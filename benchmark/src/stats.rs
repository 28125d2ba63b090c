//! Order statistics for the benchmark's reported numbers.
//!
//! Everything the benchmark prints is a median, a percentile or an
//! interquartile range of raw samples; the rules live here so the lap
//! runner, the layer probes and `selfcheck.sh`'s expectations agree.

/// Percentiles the benchmark is willing to name, lowest first.
pub const REPORTABLE: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the "percentile" is one or two outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an already sorted slice (`q` in `[0,1]`).
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median (`0.0` for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Quantile `q` of the sample, linear interpolation between ranks.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// First and third quartile.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.75))
}

/// Interquartile range as a share of the median: the benchmark's own
/// noise meter (`harness.lap_spread`).
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let med = median(samples);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / med.abs()
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them beyond
/// quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() as usize >= MIN_BEYOND
}

/// The highest [`REPORTABLE`] percentile not above `want` that `n` samples
/// support; the median is always reportable.
pub fn highest_supported(n: usize, want: f64) -> f64 {
    REPORTABLE
        .iter()
        .copied()
        .filter(|&q| q <= want && supports(n, q))
        .fold(0.50, f64::max)
}

/// A tail percentile with the sample-count rule applied: asks for `want`,
/// reports the highest supported percentile at or below it, and says which.
pub struct Tail {
    pub quantile: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(samples: &[f64], want: f64) -> Tail {
    let quantile = highest_supported(samples.len(), want);
    Tail {
        quantile,
        value: percentile(samples, quantile),
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(quartiles(&v), (11.0, 13.0));
        assert!((relative_iqr(&v) - 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(relative_iqr(&[]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        // p99 needs 1000 samples, p95 needs 200, p90 needs 100.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert_eq!(highest_supported(150, 0.99), 0.90);
        assert_eq!(highest_supported(250, 0.99), 0.95);
        assert_eq!(highest_supported(250, 0.95), 0.95);
        assert_eq!(highest_supported(5000, 0.99), 0.99);
        // Never asks above what was wanted, never drops below the median.
        assert_eq!(highest_supported(100_000, 0.95), 0.95);
        assert_eq!(highest_supported(3, 0.99), 0.50);
    }

    #[test]
    fn tail_reports_the_percentile_it_actually_used() {
        let v: Vec<f64> = (0..150).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!(t.quantile, 0.90);
        assert_eq!(t.samples, 150);
        assert!((t.value - percentile(&v, 0.90)).abs() < 1e-12);
    }
}
