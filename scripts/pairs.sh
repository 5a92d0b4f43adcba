#!/usr/bin/env bash
# A/B two builds of the benchmark on one workload, the way a claimed gain
# must be shown (choosing-metrics §8): alternating pairs, per-side median
# and quartiles, win count.
#
#   scripts/pairs.sh <bin-a> <bin-b> <workload> [pairs=10] [seconds=20] [seed=1]
#
# <bin-a> is the parent's `pfair-benchmark`, <bin-b> the change's, each
# built once into its own target directory (.claude/skills/verify/SKILL.md
# has the recipe). Run from the repository root: both sides write their
# details under benchmark/out/. Odd pairs run A first, even pairs B first.
# The result object is the last stdout line of each run. A side "wins" a
# pair when its metric is strictly better there; ties count for neither.
# Exit 1 if any run fails, reports failed operations, or is not `correct`.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
bin_a=$1 bin_b=$2 workload=$3
pairs=${4:-10} seconds=${5:-20} seed=${6:-1}

results=$(mktemp)
trap 'rm -f "$results"' EXIT

run_side() { # <label> <binary> <pair>
    local line
    line=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\n' "$3" "$1" "$line" >>"$results"
    echo "pair $3 $1: $line" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run_side A "$bin_a" "$pair"
        run_side B "$bin_b" "$pair"
    else
        run_side B "$bin_b" "$pair"
        run_side A "$bin_a" "$pair"
    fi
done

python3 - "$results" "$workload" "$pairs" "$seconds" "$seed" <<'PYEOF'
import json, statistics, sys

path, workload, pairs, seconds, seed = sys.argv[1:6]
# The end-to-end metrics and their directions, as the contract declares them.
HIGHER = {m["name"]: m["better"] == "higher" for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {"A": {}, "B": {}}
bad = 0
for row in open(path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    doc = json.loads(line)
    if not doc.get("correct") or doc.get("failed", 0):
        print(f"pair {pair} side {side}: correct={doc.get('correct')} failed={doc.get('failed')}")
        bad += 1
    runs[side][int(pair)] = {k: v["value"] for k, v in doc["metrics"].items()}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {pairs} pair(s) of {seconds} s, seed {seed}  (A = first binary, B = second)")
for metric, higher in HIGHER.items():
    a = [runs["A"][p][metric] for p in sorted(runs["A"])]
    b = [runs["B"][p][metric] for p in sorted(runs["B"])]
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    wins_b = sum(better(y, x) for x, y in zip(a, b))
    wins_a = sum(better(x, y) for x, y in zip(a, b))
    change = (b2 / a2 - 1.0) * 100.0 if a2 else float("nan")
    print(f"  {metric} ({'higher' if higher else 'lower'} is better)")
    print(f"    A  median {a2:.6g}  quartiles {a1:.6g} .. {a3:.6g}  (distance {a3 - a1:.3g})")
    print(f"    B  median {b2:.6g}  quartiles {b1:.6g} .. {b3:.6g}  (distance {b3 - b1:.3g})")
    print(f"    B vs A: {change:+.2f} % in the median; B wins {wins_b}, A wins {wins_a} of {len(a)}")
sys.exit(1 if bad else 0)
PYEOF
