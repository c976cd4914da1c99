//! Named metrics with units and sample counts, printed as text lines and
//! as the final JSON object.

use crate::stats::valid_name;
use std::fmt::Write as _;

/// End-to-end metrics in `BENCHMARK.json` order: `(name, unit)`. Every
/// workload reports each of them from an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("bits_per_query", "bit"),
    ("rounds_per_query", "rounds"),
];

/// Per-layer metrics every workload reports from a traced run:
/// `(name, unit)`. Workload-specific layer metrics are printed as text.
pub const PER_LAYER: [(&str, &str); 16] = [
    ("core.estimate_ms", "ms"),
    ("core.warm_views_ms", "ms"),
    ("comm.messages_per_query", "count"),
    ("sketch.table_build_ms.lp.l0", "ms"),
    ("sketch.table_build_ms.lp-baseline.stable", "ms"),
    ("sketch.table_build_ms.l0-sample.l0", "ms"),
    ("sketch.table_build_ms.l0-sample.l0-sampler", "ms"),
    ("sketch.table_build_ms.linf-general.block-ams", "ms"),
    ("sketch.rows_tab_ms.lp.l0", "ms"),
    ("sketch.rows_tab_ms.lp-baseline.stable", "ms"),
    ("sketch.rows_tab_ms.l0-sample.l0", "ms"),
    ("sketch.rows_tab_ms.l0-sample.l0-sampler", "ms"),
    ("sketch.rows_tab_ms.linf-general.block-ams", "ms"),
    ("net.client.fingerprint_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: u64,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Sheet(Vec<Metric>);

impl Sheet {
    /// Records `name` measured over `n` samples.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name (a benchmark bug).
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: u64) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One `metric <name> = <value> <unit> (n=<count>)` line each.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "metric {} = {} {} (n={})",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.n
            );
        }
        out
    }

    /// The result line: every metric of `keys`, which must all be present.
    ///
    /// # Panics
    ///
    /// Panics when a key was never measured (a benchmark bug).
    #[must_use]
    pub fn json(
        &self,
        keys: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
        for (i, (name, unit)) in keys.iter().enumerate() {
            let m = self
                .0
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(m.unit, *unit, "unit of {name}");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(m.value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Shortest round-trip form; JSON has no NaN or infinity, so those
/// (a metric with no samples) read as 0.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_is_valid_and_in_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn json_lists_exactly_the_keys() {
        let mut m = Sheet::default();
        m.add("qps", 12.5, "1/s", 100);
        m.add("extra", 1.0, "count", 1);
        let line = m.json(&[("qps", "1/s")], true, 100, 0);
        assert_eq!(line, "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}");
        assert!(m.text().contains("metric extra = 1 count (n=1)"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Sheet::default().add("bad name", 1.0, "ms", 1);
    }
}
