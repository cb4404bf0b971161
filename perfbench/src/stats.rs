//! Small statistics helpers: medians, sample percentiles, histogram
//! quantiles, and the process's peak resident memory.

use titancfi_obs::Histogram;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `p`-quantile of a bucketed histogram, interpolated linearly inside
/// the bucket that holds the rank (the estimator Prometheus'
/// `histogram_quantile` uses), with the bucket's edges clamped to the
/// exact tracked `min` and `max`. `Histogram::percentile` reports the
/// bucket's upper bound instead, which on power-of-two buckets reads the
/// same for any distribution inside one bucket. Empty histograms give 0.
#[must_use]
pub fn histogram_quantile(h: &Histogram, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = p * h.count as f64;
    let mut seen = 0u64;
    let mut lower = 0u64;
    for (upper, n) in h.buckets() {
        if n > 0 && (seen + n) as f64 >= rank {
            let lo = lower.max(h.min) as f64;
            let hi = upper.min(h.max) as f64;
            let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
            return lo + (hi - lo).max(0.0) * frac;
        }
        seen += n;
        lower = upper;
    }
    h.max as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hit ratio of a cache from its hit and miss counts (0 when unused).
#[must_use]
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let mut h = Histogram::cycles();
        for v in 1100..1200 {
            h.record(v);
        }
        // Everything sits in the (1024, 4096] bucket; clamping to the
        // tracked min/max keeps the estimate inside the data.
        let p50 = histogram_quantile(&h, 0.5);
        assert!((1100.0..=1199.0).contains(&p50), "{p50}");
        assert!(histogram_quantile(&h, 0.99) > p50);
        assert_eq!(histogram_quantile(&Histogram::cycles(), 0.5), 0.0);
    }
}
