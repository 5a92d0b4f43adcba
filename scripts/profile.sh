#!/usr/bin/env bash
# Sampled CPU profile of one run: self time per symbol and inclusive
# time per inline frame, in % of the run's samples.
#
#   scripts/profile.sh <bin> [args...]
#
# Runs <bin> once under the scripts/sigprof.c shim (1 kHz of process
# CPU time) with its stdout sent to stderr, then symbolizes every
# sample with `addr2line -f -i`: self time goes to the function the
# code was compiled into, inclusive time to every function of the
# inline chain. A sample in a shared library (libc's memcpy, a page
# fault in memset) is listed under the library and its caller (the
# word at the stack top: exact for a leaf without a frame), and counts
# inclusively for the caller's frames. Build the binary with line
# tables, in a target directory of its own:
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=<dir> \
#       cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Set TOP to list more than 40 rows a table.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
bin=$(realpath "$(command -v "$1")")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/sigprof.so" "$(dirname "$0")/sigprof.c"
SIGPROF_OUT="$work/samples" LD_PRELOAD="$work/sigprof.so" "$@" >&2

python3 - "$work/samples" "$bin" "${TOP:-40}" <<'PYEOF'
import collections, struct, subprocess, sys

path, binary, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
maps, samples = [], []
for line in open(path):
    if line.startswith("map "):
        fields = line.split()
        lo, hi = (int(x, 16) for x in fields[1].split("-"))
        maps.append((lo, hi, int(fields[3], 16), fields[6] if len(fields) > 6 else ""))
    else:
        samples.append(tuple(int(x, 16) for x in line.split()))

def segments(file, cache={}):
    """The PT_LOAD program headers of an ELF file: (offset, size, vaddr)."""
    if file not in cache:
        with open(file, "rb") as elf:
            phoff, = struct.unpack_from("<Q", elf.read(64), 0x20)
            elf.seek(0x36)
            size, count = struct.unpack("<HH", elf.read(4))
            elf.seek(phoff)
            table = elf.read(size * count)
        heads = (struct.unpack_from("<IIQQQQ", table, i * size) for i in range(count))
        cache[file] = [(off, filesz, vaddr) for kind, _, off, vaddr, _, filesz in heads if kind == 1]
    return cache[file]

def locate(addr):
    """(file, link-time address) of a mapped address: what addr2line and nm use."""
    for lo, hi, offset, file in maps:
        if lo <= addr < hi and file.startswith("/"):
            at = addr - lo + offset
            for off, size, vaddr in segments(file):
                if off <= at < off + size:
                    return file, at - off + vaddr
            return file, at
    return None, addr

own, foreign = [], []
for rip, word in samples:
    file, rel = locate(rip)
    if file == binary:
        own.append(rel)
    else:
        caller_file, caller = locate(word)
        lib = (file or "unmapped").rsplit("/", 1)[-1]
        foreign.append(((caller - 1) if caller_file == binary else None, lib))

# addr2line -a prints each address, then (function, file:line) per frame,
# innermost first; the last function is the one the code was compiled into.
wanted = sorted(set(own) | {a for a, _ in foreign if a is not None})
frames = collections.defaultdict(list)
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                     input="\n".join(f"{a:x}" for a in wanted), capture_output=True, text=True).stdout
current = None
for line in out.splitlines():
    if line.startswith("0x"):
        current, odd = int(line, 16), True
    elif odd:
        frames[current].append(line)
        odd = False
    else:
        odd = True

self_time, inclusive = collections.Counter(), collections.Counter()
for addr in own:
    chain = frames.get(addr) or ["??"]
    self_time[chain[-1]] += 1
    inclusive.update(set(chain))
for caller, lib in foreign:
    chain = frames.get(caller) or ["??"]
    self_time[f"[{lib}] <- {chain[0]}"] += 1
    inclusive.update(set(chain))

total = max(len(samples), 1)
print(f"{len(samples)} samples: {len(own)} in {binary.rsplit('/', 1)[-1]}, {len(foreign)} in shared libraries")
for title, counts in (("self time per symbol", self_time), ("inclusive time per inline frame", inclusive)):
    print(f"\n{title} (% of samples):")
    for name, n in counts.most_common(top):
        print(f"{100 * n / total:6.1f}  {name}")
PYEOF
