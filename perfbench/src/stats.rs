//! Sample statistics and metric naming rules.

/// Percentiles the report may name, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples a reported percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n >= 1` samples.
/// The product is rounded first so that, e.g., 99.9% of 10 000 is rank
/// 9990 despite binary floating point.
fn rank(n: usize, pct: f64) -> usize {
    let exact = (pct * n as f64 / 100.0 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `pct` of an ascending slice, `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), pct) - 1])
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`.
#[must_use]
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The highest percentile of the ladder with at least [`TAIL_SAMPLES`]
/// samples beyond it, `None` when even the median has fewer.
#[must_use]
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_SAMPLES)
}

/// Median of unsorted values (mean of the middle two for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency samples of one kind, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[must_use]
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// `pct` when it has at least [`TAIL_SAMPLES`] samples beyond it.
    #[must_use]
    pub fn reportable(&self, pct: f64) -> Option<f64> {
        (beyond(self.len(), pct) >= TAIL_SAMPLES || pct <= 50.0)
            .then(|| percentile(&self.sorted(), pct))
            .flatten()
    }

    /// One line: median, p90 and the highest reportable percentile, with
    /// the sample count.
    #[must_use]
    pub fn describe(&self) -> String {
        let s = self.sorted();
        let n = s.len();
        let mut out = format!("n={n}");
        for pct in [50.0, 90.0] {
            if let Some(v) = self.reportable(pct) {
                out.push_str(&format!(" p{pct}={v:.4}"));
            }
        }
        if let Some(top) = highest_percentile(n).filter(|p| *p > 90.0) {
            let v = percentile(&s, top).unwrap_or(f64::NAN);
            out.push_str(&format!(" p{top}={v:.4} ({} beyond)", beyond(n, top)));
        }
        out
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = highest_percentile(n) {
                assert!(beyond(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reportable_refuses_a_thin_tail() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(f64::from(i));
        }
        assert!(s.reportable(90.0).is_none());
        assert!(s.reportable(50.0).is_some());
        s.push(99.0);
        assert_eq!(s.reportable(90.0), Some(89.0));
        assert!(s.describe().starts_with("n=100 p50=49.0000 p90=89.0000"));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "qps",
            "latency_p90_ms",
            "core.sketch_cache.hit_ratio",
            "net.party.run_ms.hh-binary",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "uni©ode",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
