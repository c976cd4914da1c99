//! Spans recorded from the benchmark's own calls into each layer.
//!
//! Spans are kept in memory while the workload runs and written out,
//! through the program's own tracer and schema, when it ends. A layer's
//! self time is its spans' durations minus the part their child spans
//! cover; the benchmark's own `op` spans keep what no layer claims.

use crate::system::TraceSink;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers a span can be billed to: the workspace crates on the
/// serving paths, plus the benchmark itself.
pub const LAYERS: [&str; 6] = ["bench", "core", "sketch", "comm", "net", "obs"];

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    layer: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

/// An open span; hand it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder. A disabled recorder records nothing.
pub struct Spans {
    origin: Instant,
    recs: Vec<Rec>,
    stack: Vec<usize>,
    enabled: bool,
}

impl Spans {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            enabled,
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let idx = self.recs.len();
        self.recs.push(Rec {
            name,
            layer,
            op,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed(),
            end: None,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.recs[idx].end = Some(self.origin.elapsed());
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, layer, op);
        let out = f();
        self.exit(open);
        out
    }

    fn dur(rec: &Rec) -> Duration {
        rec.end
            .map_or(Duration::ZERO, |end| end.saturating_sub(rec.start))
    }

    /// Self time per layer over the spans whose outermost ancestor is
    /// named `root` (every layer present, zero when unused).
    #[must_use]
    pub fn self_times(&self, root: &str) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.recs.len()];
        for rec in &self.recs {
            if let Some(p) = rec.parent {
                child_time[p] += Self::dur(rec);
            }
        }
        let mut out: BTreeMap<&'static str, Duration> =
            LAYERS.iter().map(|l| (*l, Duration::ZERO)).collect();
        for (i, rec) in self.recs.iter().enumerate() {
            if self.root_name(i) == root {
                *out.entry(rec.layer).or_default() += Self::dur(rec).saturating_sub(child_time[i]);
            }
        }
        out
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.recs[i].parent {
            i = p;
        }
        self.recs[i].name
    }

    /// Writes every span to `sink`; `origin_us` is the sink's clock
    /// reading when this recorder was created.
    pub fn write(&self, sink: &TraceSink, origin_us: u64) {
        for (i, rec) in self.recs.iter().enumerate() {
            let mut tags = vec![("span", i.to_string()), ("layer", rec.layer.to_string())];
            if let Some(p) = rec.parent {
                tags.push(("parent", p.to_string()));
            }
            sink.record(
                rec.name,
                rec.op,
                origin_us + rec.start.as_micros() as u64,
                Self::dur(rec).as_micros() as u64,
                tags,
            );
        }
        sink.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_follows_roots() {
        let mut s = Spans::new(true);
        let op = s.enter("op", "bench", 1);
        let inner = s.enter("net.client.query", "net", 1);
        std::thread::sleep(Duration::from_millis(4));
        s.exit(inner);
        s.exit(op);
        s.time("probe", "sketch", 0, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let t = s.self_times("op");
        assert!(t["net"] >= Duration::from_millis(4));
        assert!(t["bench"] < Duration::from_millis(2), "{t:?}");
        assert_eq!(t["sketch"], Duration::ZERO);
        assert!(s.self_times("probe")["sketch"] >= Duration::from_millis(2));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.enter("op", "bench", 0);
        std::thread::sleep(Duration::from_millis(1));
        s.exit(o);
        assert!(s.recs.is_empty());
        assert_eq!(s.self_times("op")["bench"], Duration::ZERO);
    }
}
