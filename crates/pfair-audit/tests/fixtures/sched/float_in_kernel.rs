// Fixture: floating point leaking into scheduling code.
// Expected: no-float-in-scheduling at lines 5, 6, 9, 10
//           (the cast at line 10 is clippy's `as_conversions`).
pub struct LagEstimate {
    pub approx: f64,
    pub tolerance: f32,
}

pub fn mean_lag(total: i64, n: i64) -> f64 {
    total as f64 / n as f64
}

#[cfg(test)]
mod tests {
    // Test code may approximate; not flagged.
    pub fn pct(x: f64) -> f64 {
        x * 100.0
    }
}
