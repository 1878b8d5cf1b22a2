//! Order statistics for repeated timings.

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let mid = n / 2;
    if n % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted.get(mid - 1)? + sorted.get(mid)?) / 2.0)
    }
}

/// First and third quartiles by the "exclusive" method — the one
/// Python's `statistics.quantiles(values, n=4)` uses by default, so a
/// spread computed here matches one computed from the printed results.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    if sorted.len() < 2 {
        return None;
    }
    Some((
        exclusive_quantile(&sorted, 1, 4)?,
        exclusive_quantile(&sorted, 3, 4)?,
    ))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of `n` cut points of sorted data, positioned at
/// `i * (len + 1) / n` (1-based) and interpolated linearly.
fn exclusive_quantile(sorted: &[f64], i: usize, n: usize) -> Option<f64> {
    let m = sorted.len() + 1;
    let j = (i * m / n).clamp(1, sorted.len() - 1);
    // Negative when the clamp pulled `j` up: extrapolates, as Python does.
    let delta = (i * m) as f64 - (j * n) as f64;
    let lo = *sorted.get(j - 1)?;
    let hi = *sorted.get(j)?;
    Some((lo * (n as f64 - delta) + hi * delta) / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&v).unwrap_or(f64::NAN);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
