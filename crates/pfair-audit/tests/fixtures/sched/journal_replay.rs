// Fixture: a journal replay loop written without the sanctioned
// decode discipline — the entry count truncated through a lossy cast,
// panicking unwraps instead of surfaced decode errors, and a line
// checksum accumulated in floating point before being truncated back
// into the integer domain it is compared in.
// Expected: no-float at lines 23 and 25 (the casts at lines 10
//           and 27 and the unwraps at lines 16 and 17 are clippy's;
//           the suffixed literal at line 23 is not).
pub fn entry_count(len: usize) -> u32 {
    len as u32
}

/// Decode a `seq,at` journal line, panicking on malformed input.
pub fn decode_entry(line: &str) -> (u64, i64) {
    let mut it = line.split(',');
    let seq = it.next().unwrap().parse().unwrap();
    let at = it.next().unwrap().parse().unwrap();
    (seq, at)
}

/// Accumulate a line checksum through floats and truncate it back.
pub fn line_checksum(bytes: &[u8]) -> u64 {
    let mut acc = 0.0f64;
    for &b in bytes {
        acc = acc * 31.0 + f64::from(b);
    }
    acc as u64
}
