// Fixture: a busy-span batch jump (the `phi^k` idiom) written without
// the sanctioned helpers — a float estimate of the whole periods left
// before the horizon, raw arithmetic for the batched lag delta, lossy
// casts back into the slot domain, and a panic instead of a mismatch
// verdict when the probe index is out of range.
// Expected: no-float-in-scheduling at line 11. (The casts at lines
//           11, 12 and 17 and the unwrap at line 22 are clippy's:
//           `as_conversions`, `disallowed_methods`; the product at
//           line 17 is no lint's.)
pub fn whole_periods(horizon: i64, t0: i64, period: i64) -> i64 {
    let est = (horizon - t0) as f64 / period as f64;
    est as i64
}

/// Apply the verified per-period lag delta `k` more times.
pub fn jump_lag(lag_per_period: i128, k: i64) -> i128 {
    lag_per_period * k as i128
}

/// Fetch the verified per-period delta, panicking on a bad index.
pub fn period_delta(deltas: &[i64], k: usize) -> i64 {
    *deltas.get(k).unwrap()
}
