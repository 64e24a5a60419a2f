//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! that are only quoted with enough samples behind them, and open-loop
//! schedule lateness.

use std::time::{Duration, Instant};

/// Median as Python's `statistics.median` computes it: the middle value,
/// or the mean of the two middle values. `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Cut points dividing `values` into `n` equal groups, exactly as
/// Python's `statistics.quantiles(values, n=n)` does with its default
/// `exclusive` method. Needs at least two values and `n >= 1`.
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 || n < 1 {
        return None;
    }
    let m = ld + 1;
    Some(
        (1..n)
            .map(|i| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
            })
            .collect(),
    )
}

/// Interquartile range as a share of the median — the spread figure two
/// sets of runs are judged by.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let q = quantiles(values, 4)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q[2] - q[0]) / med.abs())
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let rank = percentile_rank(s.len(), p)?;
    Some(s[rank - 1])
}

/// Samples needed strictly above a quoted percentile.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn percentile_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    // multiply first so whole-number percentiles stay exact; the epsilon
    // absorbs the rounding of fractional ones like 99.9
    Some(((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n))
}

/// Whether percentile `p` of `n` samples has at least [`TAIL_SAMPLES`]
/// samples beyond it, i.e. whether it may be quoted.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    percentile_rank(n, p).is_some_and(|rank| n - rank >= TAIL_SAMPLES)
}

/// The ladder of percentiles a timing summary picks its tail from.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

/// A timing as it is reported: sample count, median, interquartile
/// range as a share of the median, and the highest percentile with at
/// least ten samples beyond it (if any).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub spread: Option<f64>,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Self> {
        let median = median(values)?;
        let tail = highest_supported_percentile(values.len())
            .and_then(|p| percentile(values, p).map(|v| (p, v)));
        Some(Self {
            count: values.len(),
            median,
            spread: relative_iqr(values),
            tail,
        })
    }

    /// `median 1.23 ms, IQR 4.0%, p99 4.56 ms (n=2000)`.
    pub fn render(&self, unit: &str) -> String {
        let spread = self
            .spread
            .map_or(String::new(), |r| format!(", IQR {:.1}%", 100.0 * r));
        let tail = self.tail.map_or(", no tail".to_string(), |(p, v)| {
            format!(", p{} {v:.4} {unit}", fmt_pct(p))
        });
        format!(
            "median {:.4} {unit}{spread}{tail} (n={})",
            self.median, self.count
        )
    }
}

fn fmt_pct(p: f64) -> String {
    let s = format!("{p}");
    s.trim_end_matches(".0").to_string()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i * period`, whether or not earlier requests were answered.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    pub start: Instant,
    pub period: Duration,
}

impl OpenLoop {
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// How late the generator sent request `i`, in milliseconds; a
    /// request sent early or on time counts zero.
    pub fn lateness_ms(&self, i: u64, sent: Instant) -> f64 {
        ms(sent.saturating_duration_since(self.due(i)))
    }

    /// Latency of request `i` measured from when it was due, not from
    /// when it was sent — so a stall in the system also charges the wait
    /// it imposes on requests queued behind it.
    pub fn latency_ms(&self, i: u64, answered: Instant) -> f64 {
        ms(answered.saturating_duration_since(self.due(i)))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), Some(vec![2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), Some(vec![0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quantiles(&[50.0, 10.0, 40.0, 20.0, 30.0], 4),
            Some(vec![15.0, 30.0, 45.0])
        );
        assert_eq!(quantiles(&[1.0], 4), None);
    }

    #[test]
    fn relative_iqr_is_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&v).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples sits at rank 90: exactly ten beyond
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        // p99 needs a thousand samples
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        // the median needs twenty
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(150), Some(90.0));
        assert_eq!(highest_supported_percentile(2000), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
    }

    #[test]
    fn summary_quotes_tail_only_when_supported() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!((s.count, s.median, s.tail), (10, 5.5, None));
        assert_eq!(
            s.render("ms"),
            "median 5.5000 ms, IQR 100.0%, no tail (n=10)"
        );
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert!(s.render("ms").ends_with(", p99 990.0000 ms (n=1000)"));
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        let start = Instant::now();
        let ol = OpenLoop {
            start,
            period: Duration::from_millis(5),
        };
        assert_eq!(ol.due(4), start + Duration::from_millis(20));
        // sent on time: no lateness; sent 3 ms late: 3 ms
        assert_eq!(ol.lateness_ms(2, start + Duration::from_millis(10)), 0.0);
        assert!((ol.lateness_ms(2, start + Duration::from_millis(13)) - 3.0).abs() < 1e-9);
        // early sends never count negative
        assert_eq!(ol.lateness_ms(2, start), 0.0);
        // a 100 ms stall starting at t=0 answers request 4 (due at 20 ms)
        // at 100 ms: it waited 80 ms, even though it was sent only then
        let answered = start + Duration::from_millis(100);
        assert!((ol.latency_ms(4, answered) - 80.0).abs() < 1e-9);
    }
}
