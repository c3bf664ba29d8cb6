//! Percentiles and medians with the sample-count rule the report uses.

/// Samples a p99 needs beyond it before it is reported.
pub const MIN_BEYOND_P99: usize = 10;

/// A latency distribution reduced to what the report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Samples the percentiles were taken over (failures included).
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile, `None` with fewer than
    /// [`MIN_BEYOND_P99`] samples above its rank.
    pub p99: Option<f64>,
}

/// Zero-based index of the nearest-rank `q` quantile of `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Summarises `samples` (any order). `None` when there are none.
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p99_at = nearest_rank(n, 0.99);
    let beyond = n - 1 - p99_at;
    Some(Percentiles {
        samples: n,
        p50: sorted[nearest_rank(n, 0.5)],
        p99: (beyond >= MIN_BEYOND_P99).then(|| sorted[p99_at]),
    })
}

/// Percentiles taken per part of a run, then the median of each across
/// the parts, so a burst of stolen CPU moves one part rather than the
/// result. `samples` pair each value with its position in the run (a
/// batch index); they are cut by position into at most `max_parts` runs
/// of equal size, each large enough for its own p99. With fewer samples
/// than one such part the p99 is `None`.
pub fn sliced_percentiles(samples: &[(usize, f64)], max_parts: usize) -> Option<Percentiles> {
    let mut ordered = samples.to_vec();
    ordered.sort_by_key(|&(position, _)| position);
    let n = ordered.len();
    let parts = (n / (100 * MIN_BEYOND_P99)).clamp(1, max_parts.max(1));
    let per_part: Vec<Percentiles> = (0..parts)
        .filter_map(|i| {
            let part: Vec<f64> =
                ordered[i * n / parts..(i + 1) * n / parts].iter().map(|&(_, v)| v).collect();
            percentiles(&part)
        })
        .collect();
    if per_part.is_empty() {
        return None;
    }
    let p99s: Option<Vec<f64>> = per_part.iter().map(|p| p.p99).collect();
    Some(Percentiles {
        samples: n,
        p50: median(&per_part.iter().map(|p| p.p50).collect::<Vec<_>>()),
        p99: p99s.map(|p99s| median(&p99s)),
    })
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        let summary = percentiles(&values).unwrap();
        assert_eq!(summary.samples, 999);
        assert_eq!(summary.p99, None, "999 samples leave only 9 above the p99");

        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = percentiles(&values).unwrap();
        assert_eq!(summary.p50, 500.0);
        assert_eq!(summary.p99, Some(990.0), "exactly 10 samples (991..=1000) lie beyond");
    }

    #[test]
    fn percentiles_ignore_input_order_and_keep_failures_on_top() {
        let mut values: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        // Failed operations count as misses of any latency limit.
        values.extend([f64::INFINITY; 30]);
        let summary = percentiles(&values).unwrap();
        assert_eq!(summary.samples, 2030);
        assert_eq!(summary.p50, 1014.0);
        assert_eq!(summary.p99, Some(f64::INFINITY));
        assert!(percentiles(&[]).is_none());
    }

    #[test]
    fn sliced_percentiles_take_the_median_across_parts() {
        // Three parts of 1000 samples, given out of order; the middle part
        // saw a stall.
        let mut samples = Vec::new();
        for part in [2, 0, 1] {
            let stall = if part == 1 { 100.0 } else { 0.0 };
            samples.extend((1..=1000).map(|v| (part * 1000 + v, v as f64 + stall)));
        }
        let summary = sliced_percentiles(&samples, 3).unwrap();
        assert_eq!(summary.samples, 3000);
        assert_eq!(summary.p50, 500.0);
        assert_eq!(summary.p99, Some(990.0));
        // Asking for more parts than the samples support keeps parts
        // large enough for a p99.
        assert_eq!(sliced_percentiles(&samples, 4).unwrap(), summary);
        let few: Vec<(usize, f64)> = samples[..500].to_vec();
        assert_eq!(sliced_percentiles(&few, 4).unwrap().p99, None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
