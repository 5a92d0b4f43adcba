//! Order statistics over small samples of timings.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// two nearest order statistics. `0.0` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of the highest quarter of the values (at least two of them, or
/// the only one).
pub fn top_quarter_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted.truncate(values.len().div_ceil(4).max(2));
    sorted.iter().sum::<f64>() / sorted.len().max(1) as f64
}

/// `(max − min) ÷ median`: the spread of a handful of repetitions.
/// `0.0` when the median is zero.
pub fn range_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) computes them — the spread the contract in
/// `BENCHMARK.json` is judged by. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    let m = median(values);
    if n < 2 || m == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn top_quarter_mean_takes_at_least_two() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(top_quarter_mean(&v), 11.0);
        assert_eq!(top_quarter_mean(&[1.0, 5.0, 3.0]), 4.0);
        assert_eq!(top_quarter_mean(&[7.0]), 7.0);
        assert_eq!(top_quarter_mean(&[]), 0.0);
    }

    #[test]
    fn range_spread_is_relative_to_the_median() {
        assert_eq!(range_spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(range_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
