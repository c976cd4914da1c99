//! The one file that calls into the system under test.
//!
//! Every other module of the benchmark reaches the mpest crates only
//! through the names below, so a change to a public entry point (the
//! planned collapses of `run_with_party_view*`, `PartyHost::spawn*` and
//! `Server::spawn*`) touches this file alone.

use mpest_comm::{CommError, Role, Seed};
use mpest_core::{Constants, Session, UpdateBatch, UpdateSide};
use mpest_matrix::{CsrMatrix, PNorm, Workloads};
use mpest_net::{FramedConn, PartyHost, ServeClient, ServeConfig, Server};
use mpest_obs::{Registry, Snapshot, Span, TraceFormat, Tracer};
use mpest_sketch::{
    sketch_rows_tab, BlockAmsSketch, ColumnSlots, ColumnTable, L0Sampler, L0Sketch, SketchKernel,
    StableSketch,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub use mpest_core::{EstimateReport as Report, EstimateRequest as Request};

/// Every failure the system reports, as text.
pub type Fallible<T> = Result<T, String>;

fn err(e: CommError) -> String {
    e.to_string()
}

/// Per-read deadline for socket I/O: generous, but a stalled peer still
/// surfaces as a failed operation instead of a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The protocols of the catalog whose names appear in `names`, at the
/// catalog's parameters, in the order given.
///
/// # Panics
///
/// Panics on a name the catalog does not have (a benchmark bug).
#[must_use]
pub fn mix(names: &[&str]) -> Vec<Request> {
    let catalog = Request::catalog();
    names
        .iter()
        .map(|name| {
            catalog
                .iter()
                .find(|r| r.name() == *name)
                .unwrap_or_else(|| panic!("no catalog protocol named {name}"))
                .clone()
        })
        .collect()
}

/// The protocol's kebab-case name.
#[must_use]
pub fn name(request: &Request) -> &'static str {
    request.name()
}

/// The paper's costs of one run, read from its transcript.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    pub bits: u64,
    pub rounds: u64,
    pub messages: u64,
}

#[must_use]
pub fn cost(report: &Report) -> Cost {
    Cost {
        bits: report.bits(),
        rounds: u64::from(report.rounds()),
        messages: report.transcript.messages() as u64,
    }
}

/// Bit-for-bit equality of output and transcript.
#[must_use]
pub fn same_report(x: &Report, y: &Report) -> bool {
    x == y
}

/// One side of an update: Alice's `A` or Bob's `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    A,
    B,
}

/// One entry write: `Some(v)` sets the entry, `None` deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write {
    pub side: Side,
    pub row: u32,
    pub col: u32,
    pub value: Option<i64>,
}

/// An update batch as the system takes it.
#[derive(Debug, Clone)]
pub struct Batch(UpdateBatch);

#[must_use]
pub fn batch(writes: &[Write]) -> Batch {
    Batch(writes.iter().fold(UpdateBatch::new(), |b, w| {
        let side = match w.side {
            Side::A => UpdateSide::Alice,
            Side::B => UpdateSide::Bob,
        };
        match w.value {
            Some(v) => b.set_entry(side, w.row, w.col, v),
            None => b.delete_entry(side, w.row, w.col),
        }
    }))
}

/// A request every protocol run refuses (`l0-sample` at eps = 0), for
/// the self-tests of failure accounting.
#[cfg(test)]
#[must_use]
pub fn invalid_request() -> Request {
    Request::L0Sample { eps: 0.0 }
}

/// The matrix pair a workload runs on.
#[derive(Debug, Clone)]
pub struct Pair {
    a: CsrMatrix,
    b: CsrMatrix,
}

impl Pair {
    /// An `n × n` Bernoulli pair at `density`, drawn from `seed`.
    #[must_use]
    pub fn bernoulli(n: usize, density: f64, seed: u64) -> Self {
        Self {
            a: Workloads::bernoulli_bits(n, n, density, seed).to_csr(),
            b: Workloads::bernoulli_bits(n, n, density, seed ^ 0x5eed_b0b0).to_csr(),
        }
    }
}

/// Process-local metric registry handed to sessions and views.
#[derive(Clone)]
pub struct Metrics(Registry);

impl Metrics {
    #[must_use]
    pub fn new() -> Self {
        Self(Registry::new())
    }

    #[must_use]
    pub fn snapshot(&self) -> Snap {
        Snap(self.0.snapshot())
    }
}

/// A registry snapshot: counters, gauge high-water marks and histograms.
#[derive(Clone, Default)]
pub struct Snap(Snapshot);

impl Snap {
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name)
    }

    /// Sum of every counter whose name starts with `prefix`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// High-water mark of a gauge, 0 when absent.
    #[must_use]
    pub fn gauge_high(&self, name: &str) -> u64 {
        self.0.gauges.get(name).map_or(0, |g| g.high)
    }

    /// `(count, sum)` of a histogram, zeros when absent.
    #[must_use]
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum))
    }

    /// Both snapshots' metrics in one (names must not collide).
    #[must_use]
    pub fn merged(mut self, other: Snap) -> Snap {
        self.0.counters.extend(other.0.counters);
        self.0.gauges.extend(other.0.gauges);
        self.0.histograms.extend(other.0.histograms);
        self
    }

    /// Histogram quantile over the samples recorded since `before`
    /// (bucket counts subtracted), 0 when none were.
    #[must_use]
    pub fn quantile_since(&self, before: &Snap, name: &str, q: f64) -> u64 {
        let Some(now) = self.0.histograms.get(name) else {
            return 0;
        };
        let mut delta = now.clone();
        if let Some(old) = before.0.histograms.get(name) {
            for (idx, count) in &mut delta.buckets {
                if let Some((_, c)) = old.buckets.iter().find(|(i, _)| i == idx) {
                    *count -= c;
                }
            }
            delta.count -= old.count;
            delta.sum -= old.sum;
        }
        delta.buckets.retain(|(_, c)| *c > 0);
        if delta.count == 0 {
            return 0;
        }
        delta.quantile(q)
    }
}

/// A full-pair in-process session.
pub struct InProc(Session);

impl InProc {
    /// A fresh session over `pair`; `metrics` receives its sketch-cache
    /// counters.
    #[must_use]
    pub fn new(pair: &Pair, metrics: Option<&Metrics>) -> Self {
        let mut session = Session::new(pair.a.clone(), pair.b.clone());
        if let Some(m) = metrics {
            session.set_obs(&m.0);
        }
        Self(session)
    }

    /// Materializes every derived view.
    ///
    /// # Errors
    ///
    /// The session's dimension mismatch.
    pub fn warm_views(&self) -> Fallible<()> {
        self.0.warm_views().map_err(err)
    }

    /// # Errors
    ///
    /// Whatever the protocol reports.
    pub fn estimate(&self, request: &Request, seed: u64) -> Fallible<Report> {
        self.0.estimate_seeded(request, Seed(seed)).map_err(err)
    }

    /// Applies `batch` and returns the new epoch.
    ///
    /// # Errors
    ///
    /// An invalid batch.
    pub fn apply(&mut self, batch: &Batch) -> Fallible<u64> {
        self.0.apply_update(&batch.0).map_err(err)
    }

    /// The content fingerprints of both halves, as the daemon keys them.
    ///
    /// # Errors
    ///
    /// The session's dimension mismatch.
    pub fn fingerprints(&self) -> Fallible<(u64, u64)> {
        let (a, b) = self.0.csr_halves().map_err(err)?;
        Ok((mpest_net::fingerprint(a), mpest_net::fingerprint(b)))
    }

    /// Splits into Alice's and Bob's storage-split views; each holds only
    /// its own half.
    #[must_use]
    pub fn split(
        &self,
        alice: Option<&Metrics>,
        bob: Option<&Metrics>,
    ) -> (AliceView, SplitHostSpec) {
        let mut a = self.0.party_view(Role::Alice);
        let mut b = self.0.party_view(Role::Bob);
        if let Some(m) = alice {
            a.set_obs(&m.0);
        }
        if let Some(m) = bob {
            b.set_obs(&m.0);
        }
        (AliceView(a), SplitHostSpec(b))
    }
}

/// A span sink with the JSONL schema of `mpest serve --trace-out`.
#[derive(Clone)]
pub struct TraceSink(Tracer);

impl TraceSink {
    /// # Errors
    ///
    /// The file cannot be created.
    pub fn to_file(path: &str) -> Fallible<Self> {
        Tracer::to_file(path, TraceFormat::Jsonl)
            .map(Self)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))
    }

    /// Microseconds since the sink was created.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.0.now_us()
    }

    /// Writes one span. `op` is the per-operation id; `tags` carry the
    /// span's own id, its parent and its layer.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        start_us: u64,
        dur_us: u64,
        tags: Vec<(&'static str, String)>,
    ) {
        self.0.record(&Span {
            name,
            conn: 0,
            id: op,
            start_us,
            dur_us,
            phases: Vec::new(),
            tags,
        });
    }

    pub fn finish(&self) {
        self.0.finish();
    }
}

/// A loopback serve daemon with one compute worker.
pub struct Daemon(Server);

impl Daemon {
    /// # Errors
    ///
    /// The loopback listener cannot bind.
    pub fn spawn(trace: Option<&TraceSink>) -> Fallible<Self> {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = match trace {
            Some(t) => Server::spawn_traced("127.0.0.1:0", config, t.0.clone()),
            None => Server::spawn_with("127.0.0.1:0", config),
        };
        server
            .map(Self)
            .map_err(|e| format!("cannot bind the loopback daemon: {e}"))
    }

    #[must_use]
    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// What the daemon acknowledged for one update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub fp_a: u64,
    pub fp_b: u64,
    pub epoch: u64,
}

/// One served read.
pub struct Served {
    pub report: Report,
    pub epoch: u64,
    /// Socket bytes of this exchange, both directions.
    pub wire_bytes: u64,
}

/// One `ServeClient` connection.
pub struct DaemonClient(ServeClient);

impl DaemonClient {
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn connect(addr: &str) -> Fallible<Self> {
        ServeClient::connect_with(addr, Some(IO_TIMEOUT), Some(IO_TIMEOUT))
            .map(Self)
            .map_err(err)
    }

    /// One read of the pair `mirror` holds; the first read of a pair
    /// uploads it.
    ///
    /// # Errors
    ///
    /// Transport failures and the daemon's typed errors.
    pub fn query(&mut self, mirror: &InProc, request: &Request, seed: u64) -> Fallible<Served> {
        let (a, b) = mirror.0.csr_halves().map_err(err)?;
        let out = self
            .0
            .query(a, b, &[(seed, request.clone())])
            .map_err(err)?;
        let epoch = out.reports.epoch;
        let report = out
            .reports
            .reports
            .into_iter()
            .next()
            .ok_or_else(|| "the daemon sent no report".to_string())?;
        Ok(Served {
            report,
            epoch,
            wire_bytes: out.bytes_out + out.bytes_in,
        })
    }

    /// Sends `batch` for the pair `mirror` holds, at its epoch.
    ///
    /// # Errors
    ///
    /// Transport failures, a stale epoch, an invalid batch.
    pub fn update(&mut self, mirror: &InProc, batch: &Batch) -> Fallible<Ack> {
        let (a, b) = mirror.0.csr_halves().map_err(err)?;
        self.0
            .update(a, b, mirror.0.epoch(), &batch.0)
            .map(|o| Ack {
                fp_a: o.fp_a,
                fp_b: o.fp_b,
                epoch: o.epoch,
            })
            .map_err(err)
    }

    /// The daemon's registry.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&mut self) -> Fallible<Snap> {
        self.0.metrics().map(Snap).map_err(err)
    }

    /// Cumulative socket bytes of this connection, both directions.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        let (out, inn) = self.0.wire_bytes();
        out + inn
    }
}

/// Bob's half, ready to be served by a split party host.
pub struct SplitHostSpec(mpest_core::PartyView);

/// A storage-split party host on loopback serving Bob's half.
pub struct SplitHost(PartyHost);

impl SplitHost {
    /// # Errors
    ///
    /// The loopback listener cannot bind.
    pub fn spawn(spec: SplitHostSpec) -> Fallible<Self> {
        PartyHost::spawn_split("127.0.0.1:0", spec.0)
            .map(Self)
            .map_err(|e| format!("cannot bind the loopback party host: {e}"))
    }

    #[must_use]
    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// The host's run counters and its session's sketch-cache counters.
    #[must_use]
    pub fn metrics(&self) -> Snap {
        Snap(self.0.metrics_snapshot())
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// Alice's storage-split view, run from the benchmark's process.
pub struct AliceView(mpest_core::PartyView);

impl AliceView {
    /// # Errors
    ///
    /// The view's dimension mismatch.
    pub fn warm_views(&self) -> Fallible<()> {
        self.0.warm_views().map_err(err)
    }

    /// One split run against the host at `addr`: connect, `party-hello`,
    /// the protocol's rounds and the output exchange. Returns the report
    /// and the socket bytes, both directions.
    ///
    /// # Errors
    ///
    /// Transport, handshake and protocol failures.
    pub fn run(&self, addr: &str, request: &Request, seed: u64) -> Fallible<(Report, u64)> {
        mpest_net::run_with_party_view(addr, &self.0, request, Seed(seed))
            .map(|(report, out, inn)| (report, out + inn))
            .map_err(err)
    }
}

/// Opens and closes one framed connection to `addr`.
///
/// # Errors
///
/// Connection failure.
pub fn connect_once(addr: &str) -> Fallible<()> {
    FramedConn::connect(addr, Some(IO_TIMEOUT))
        .map(drop)
        .map_err(err)
}

/// The client-side digest `ServeClient` computes over both halves on
/// every request.
#[must_use]
pub fn fingerprint_pair(pair: &Pair) -> (u64, u64) {
    (
        mpest_net::fingerprint(&pair.a),
        mpest_net::fingerprint(&pair.b),
    )
}

/// The sketches the protocols of the mixes build on every uncached read,
/// as `(protocol, family)`. `hh-general` also sketches, but over
/// sub-matrices that depend on the run, so it has no probe.
pub const SKETCH_JOBS: [(&str, &str); 5] = [
    ("lp", "l0"),
    ("lp-baseline", "stable"),
    ("l0-sample", "l0"),
    ("l0-sample", "l0-sampler"),
    ("linf-general", "block-ams"),
];

/// One sketch-kernel probe: the sketch `protocol` builds of `family`, at
/// the catalog's parameters and over the matrix side the protocol
/// sketches, as `(table_build, rows_tab)` wall times. `table_build` is
/// `ColumnSlots::from_csr` plus `ColumnTable::build`; `rows_tab` is the
/// full `sketch_rows_tab` pass, which is what the protocol runs.
///
/// # Panics
///
/// Panics on a pair not in [`SKETCH_JOBS`].
#[must_use]
pub fn sketch_probe(protocol: &str, family: &str, pair: &Pair, seed: u64) -> (Duration, Duration) {
    let c = Constants::default();
    // `lp` and `lp-baseline` sketch the rows of B (dimension: B's
    // columns); `l0-sample` and `linf-general` sketch the columns of A
    // (dimension: A's rows), from the session's cached transpose.
    let (b, b_dim) = (&pair.b, pair.b.cols().max(1));
    let (a_t, a_dim) = (pair.a.transpose(), pair.a.rows().max(1));
    match (&mix(&[protocol])[0], family) {
        // Algorithm 1 builds its sketch at accuracy sqrt(eps).
        (
            Request::LpNorm {
                p: PNorm::Zero,
                eps,
            },
            "l0",
        ) => time_kernel(&L0Sketch::new(b_dim, eps.sqrt(), c.sketch_reps, seed), b),
        (
            Request::LpBaseline {
                p: PNorm::P(p),
                eps,
            },
            "stable",
        ) => time_kernel(&StableSketch::new(b_dim, *p, *eps, c.sketch_reps, seed), b),
        (Request::L0Sample { eps }, "l0") => {
            time_kernel(&L0Sketch::new(a_dim, *eps, c.sketch_reps, seed), &a_t)
        }
        (Request::L0Sample { .. }, "l0-sampler") => {
            time_kernel(&L0Sampler::new(a_dim, c.sampler_reps, seed), &a_t)
        }
        (Request::LinfGeneral { kappa }, "block-ams") => time_kernel(
            &BlockAmsSketch::new(a_dim, *kappa, c.sketch_reps, seed),
            &a_t,
        ),
        _ => panic!("no sketch probe for {protocol}/{family}"),
    }
}

fn time_kernel<K: SketchKernel>(kernel: &K, m: &CsrMatrix) -> (Duration, Duration) {
    let start = Instant::now();
    let slots = ColumnSlots::from_csr(m);
    let table = ColumnTable::build(kernel, &slots);
    let build = start.elapsed();
    black_box(&table);
    let start = Instant::now();
    let rows = sketch_rows_tab(kernel, black_box(m));
    let tab = start.elapsed();
    black_box(&rows);
    (build, tab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sketch_job_has_a_probe_in_a_mix() {
        let pair = Pair::bernoulli(32, 0.1, 1);
        for (protocol, family) in SKETCH_JOBS {
            let _ = sketch_probe(protocol, family, &pair, 3);
        }
    }
}
