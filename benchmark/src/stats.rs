//! Sample statistics: means, medians, quartile spreads, and tail
//! percentiles.

/// Median of `xs` (mean of the two middle values for even counts; `NaN`
/// when empty).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `xs` (`NaN` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `xs` sorted ascending by the IEEE total order.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median (0 below two samples).
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => {
            let med = median(xs);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }
        }
        None => 0.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// A tail percentile chosen by the sample-count rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailPick {
    /// The percentile actually reported, in `[0, 1]`.
    pub q: f64,
    pub value: f64,
}

/// The `want` percentile of `xs` when at least `min_beyond` samples lie
/// beyond it; otherwise the highest percentile that still has
/// `min_beyond` samples beyond it (rank `n - min_beyond`). With
/// `min_beyond` or fewer samples there is no such percentile and the
/// median is reported instead (`q = 0.5`).
pub fn tail_percentile(xs: &[f64], want: f64, min_beyond: usize) -> TailPick {
    let s = sorted(xs);
    let n = s.len();
    if samples_beyond(n, want) >= min_beyond {
        return TailPick { q: want, value: percentile(&s, want) };
    }
    if n <= min_beyond {
        return TailPick { q: 0.5, value: median(&s) };
    }
    let q = (n - min_beyond) as f64 / n as f64;
    TailPick { q, value: s[n - min_beyond - 1] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mean_handles_values_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
    }

    #[test]
    fn p99_kept_when_ten_samples_lie_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let pick = tail_percentile(&xs, 0.99, 10);
        assert_eq!(pick.q, 0.99);
        assert_eq!(pick.value, 990.0);
    }

    #[test]
    fn p99_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let pick = tail_percentile(&xs, 0.99, 10);
        assert_eq!(pick.q, 0.95);
        assert_eq!(pick.value, 190.0);
        assert_eq!(samples_beyond(200, pick.q), 10);
    }

    #[test]
    fn too_few_samples_report_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let pick = tail_percentile(&xs, 0.99, 10);
        assert_eq!(pick.q, 0.5);
        assert_eq!(pick.value, 5.5);
    }
}
