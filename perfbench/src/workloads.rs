//! The three workloads: a fixed, seed-determined sequence of reads (and,
//! for `serve-rw`, writes) driven from one calling thread.
//!
//! Every public client waits for its reply, so each workload is a
//! closed loop with one caller; the daemon runs one compute worker, so
//! no more than two threads are ever busy.

use crate::stats::Samples;
use crate::system::{
    self, AliceView, Daemon, DaemonClient, Fallible, InProc, Metrics, Pair, Report, Request, Side,
    Snap, SplitHost, TraceSink, Write,
};
use crate::trace::Spans;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Side of the square Bernoulli pair (the ROADMAP re-anchor pair).
pub const N: usize = 512;
/// Density of both halves.
pub const DENSITY: f64 = 0.05;
/// Seed of the pair, the same in every run. The run seed draws what
/// each read does (protocol seeds, warm-up seeds, update batches); a
/// pair drawn from it too moved `qps` and the latencies between runs by
/// more than the timing noise did, as protocol costs depend on the data.
pub const PAIR_SEED: u64 = 1;
/// `serve-rw` sends one update batch after every this many reads.
pub const WRITE_EVERY: usize = 10;
/// Entries per update batch: large enough that one write stays above a
/// millisecond, well clear of timer jitter.
pub const BATCH_ENTRIES: usize = 32;
/// Seeds per protocol that `party-split` cycles through.
pub const SEED_POOL: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InprocSketch,
    ServeRw,
    PartySplit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::InprocSketch, Self::ServeRw, Self::PartySplit];

    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::InprocSketch => "inproc-sketch",
            Self::ServeRw => "serve-rw",
            Self::PartySplit => "party-split",
        }
    }

    /// Five protocols of equal weight, so p50 falls in the middle of the
    /// third-costliest protocol's latency class and p90 in the middle of
    /// the costliest one's. `at-least-t-join` (tens of seconds per call
    /// at this size) and the trivial baselines (not paper protocols) are
    /// left out of every mix.
    #[must_use]
    pub fn mix_names(self) -> [&'static str; 5] {
        match self {
            // Sketch kernels and protocol-local compute, no socket.
            Self::InprocSketch => [
                "lp",
                "l0-sample",
                "hh-general",
                "linf-general",
                "lp-baseline",
            ],
            // Cheap reads with small replies: the per-request path dominates.
            Self::ServeRw => [
                "exact-l1",
                "l1-sample",
                "hh-binary",
                "linf-binary",
                "linf-kappa",
            ],
            // Every round and the output exchange cross the socket.
            Self::PartySplit => [
                "hh-binary",
                "linf-kappa",
                "hh-general",
                "linf-general",
                "sparse-matmul",
            ],
        }
    }

    /// Reads per second on a 2-CPU container (release build). It only
    /// converts `--seconds` into a fixed read count, so what a run does,
    /// and the memory it ends with, does not depend on the machine's speed.
    fn nominal_qps(self) -> f64 {
        match self {
            Self::InprocSketch => 11.0,
            Self::ServeRw => 240.0,
            Self::PartySplit => 55.0,
        }
    }

    /// Reads per unit a window is made of: a mix cycle, or a write
    /// period where there are writes.
    fn period(self) -> usize {
        if self == Self::ServeRw {
            WRITE_EVERY
        } else {
            5
        }
    }

    /// The fixed read count for a run of `seconds`: whole periods, and at
    /// least 100 so that p90 has ten samples beyond it.
    #[must_use]
    pub fn reads_for(self, seconds: u64) -> usize {
        let nominal = (self.nominal_qps() * seconds as f64).ceil() as usize;
        let period = self.period();
        nominal.max(100).div_ceil(period) * period
    }

    /// Whether every read draws a seed of its own, so no read finds its
    /// sketches cached.
    #[must_use]
    pub fn fresh_seeds(self) -> bool {
        self != Self::PartySplit
    }
}

/// SplitMix64 finalizer: decorrelates seeds derived from one run seed.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One read: a protocol at a seed.
#[derive(Debug, Clone)]
pub struct ReadOp {
    pub request: Request,
    pub seed: u64,
}

/// Everything a run does, generated from the run seed before any timing.
pub struct Plan {
    pub workload: Workload,
    pub pair: Pair,
    pub warmup: Vec<ReadOp>,
    pub reads: Vec<ReadOp>,
    /// `batches[k]` follows read `(k + 1) * WRITE_EVERY - 1` (`serve-rw`).
    pub batches: Vec<Vec<Write>>,
}

impl Plan {
    #[must_use]
    pub fn new(workload: Workload, n: usize, seed: u64, reads: usize) -> Self {
        let pair = Pair::bernoulli(n, DENSITY, PAIR_SEED);
        let mix = system::mix(&workload.mix_names());
        let warmup = mix
            .iter()
            .enumerate()
            .map(|(k, r)| ReadOp {
                request: r.clone(),
                seed: mix64(seed ^ 0x7761_726d ^ ((k as u64) << 32)),
            })
            .collect();
        let reads: Vec<ReadOp> = (0..reads)
            .map(|i| {
                let k = i % mix.len();
                let draw = if workload.fresh_seeds() {
                    i as u64
                } else {
                    ((i / mix.len()) as u64) % SEED_POOL
                };
                ReadOp {
                    request: mix[k].clone(),
                    seed: mix64(mix64(seed) ^ ((k as u64) << 40) ^ draw),
                }
            })
            .collect();
        let batches = if workload == Workload::ServeRw {
            let writes = reads.len() / WRITE_EVERY;
            // Each batch deletes the entries the previous one set (batch 0
            // deletes an unused draw), then sets its own: every batch holds
            // `BATCH_ENTRIES` writes and the density stays put.
            let sets: Vec<Vec<Write>> = (0..=writes).map(|w| set_batch(n, seed, w)).collect();
            sets.windows(2)
                .map(|pair| {
                    let mut b: Vec<Write> = pair[0]
                        .iter()
                        .map(|s| Write { value: None, ..*s })
                        .collect();
                    b.extend_from_slice(&pair[1]);
                    b
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            workload,
            pair,
            warmup,
            reads,
            batches,
        }
    }

    /// Operations the timed window attempts: reads plus writes.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.reads.len() + self.batches.len()
    }
}

/// Draw `w` of binary entries to set, alternating sides.
fn set_batch(n: usize, seed: u64, w: usize) -> Vec<Write> {
    (0..BATCH_ENTRIES / 2)
        .map(|k| {
            let h = mix64(mix64(seed ^ 0x7772_6974) ^ ((w as u64) << 16) ^ k as u64);
            Write {
                side: if k % 2 == 0 { Side::A } else { Side::B },
                row: ((h >> 8) % n as u64) as u32,
                col: ((h >> 36) % n as u64) as u32,
                value: Some(1),
            }
        })
        .collect()
}

/// A read's result as the workload saw it.
pub struct ReadOut {
    pub report: Report,
    /// The epoch of the pair that answered.
    pub epoch: u64,
    /// Socket bytes, both directions (0 in process).
    pub wire_bytes: u64,
}

/// A set-up system, ready for the first timed operation.
pub enum Target {
    InProc {
        session: InProc,
        metrics: Metrics,
    },
    Serve {
        daemon: Daemon,
        client: DaemonClient,
        mirror: InProc,
    },
    Split {
        host: SplitHost,
        addr: String,
        alice: AliceView,
        alice_metrics: Metrics,
        bob_metrics: Metrics,
    },
}

impl Target {
    /// Builds the system for `plan` and runs the untimed warm-up pass.
    /// Everything here counts toward `setup_s`.
    ///
    /// # Errors
    ///
    /// Any failure of the system while setting up.
    pub fn setup(plan: &Plan, spans: &mut Spans, sink: Option<&TraceSink>) -> Fallible<Self> {
        let mut target = match plan.workload {
            Workload::InprocSketch => {
                let metrics = Metrics::new();
                let session = InProc::new(&plan.pair, Some(&metrics));
                spans.time("core.warm_views", "core", 0, || session.warm_views())?;
                Self::InProc { session, metrics }
            }
            Workload::ServeRw => {
                let daemon = spans.time("net.daemon.spawn", "net", 0, || Daemon::spawn(sink))?;
                let client = spans.time("net.client.connect", "net", 0, || {
                    DaemonClient::connect(&daemon.addr())
                })?;
                let mirror = InProc::new(&plan.pair, None);
                spans.time("core.warm_views", "core", 0, || mirror.warm_views())?;
                Self::Serve {
                    daemon,
                    client,
                    mirror,
                }
            }
            Workload::PartySplit => {
                let (alice_metrics, bob_metrics) = (Metrics::new(), Metrics::new());
                let full = InProc::new(&plan.pair, None);
                let (alice, bob) = full.split(Some(&alice_metrics), Some(&bob_metrics));
                drop(full);
                let host = spans.time("net.party.spawn", "net", 0, || SplitHost::spawn(bob))?;
                spans.time("core.warm_views", "core", 0, || alice.warm_views())?;
                Self::Split {
                    addr: host.addr(),
                    host,
                    alice,
                    alice_metrics,
                    bob_metrics,
                }
            }
        };
        for op in &plan.warmup {
            target.read(op, 0, spans)?;
        }
        Ok(target)
    }

    /// One timed read, spanned per layer call.
    ///
    /// # Errors
    ///
    /// Whatever the system reports for this read.
    pub fn read(&mut self, op: &ReadOp, id: u64, spans: &mut Spans) -> Fallible<ReadOut> {
        match self {
            Self::InProc { session, .. } => {
                let report = spans.time("core.estimate", "core", id, || {
                    session.estimate(&op.request, op.seed)
                })?;
                Ok(ReadOut {
                    report,
                    epoch: 0,
                    wire_bytes: 0,
                })
            }
            Self::Serve { client, mirror, .. } => {
                let served = spans.time("net.client.query", "net", id, || {
                    client.query(mirror, &op.request, op.seed)
                })?;
                Ok(ReadOut {
                    report: served.report,
                    epoch: served.epoch,
                    wire_bytes: served.wire_bytes,
                })
            }
            Self::Split { addr, alice, .. } => {
                let (report, wire_bytes) = spans.time("net.party.run", "net", id, || {
                    alice.run(addr, &op.request, op.seed)
                })?;
                Ok(ReadOut {
                    report,
                    epoch: 0,
                    wire_bytes,
                })
            }
        }
    }

    /// Registry snapshots of the sketch caches (and, behind a socket,
    /// the daemon's or host's own counters) — `(local, remote)`.
    ///
    /// # Errors
    ///
    /// The daemon's metrics request failing.
    pub fn snapshots(&mut self) -> Fallible<(Snap, Snap)> {
        match self {
            Self::InProc { metrics, .. } => Ok((metrics.snapshot(), Snap::default())),
            Self::Serve { client, .. } => Ok((Snap::default(), client.metrics()?)),
            Self::Split {
                host,
                alice_metrics,
                bob_metrics,
                ..
            } => Ok((
                alice_metrics.snapshot(),
                bob_metrics.snapshot().merged(host.metrics()),
            )),
        }
    }

    pub fn teardown(self) {
        match self {
            Self::InProc { .. } => {}
            Self::Serve { daemon, .. } => daemon.shutdown(),
            Self::Split { host, .. } => host.shutdown(),
        }
    }
}

/// A read kept for the correctness check.
pub struct Kept {
    pub index: usize,
    pub epoch: u64,
    pub report: Report,
}

/// Per-protocol totals over the window.
#[derive(Debug, Clone, Default)]
pub struct ProtoStats {
    pub latency_ms: Samples,
    pub bits: u64,
    pub rounds: u64,
    pub messages: u64,
    pub wire_bytes: u64,
    pub reads: u64,
}

/// What one timed window measured.
#[derive(Default)]
pub struct Window {
    pub wall: Duration,
    pub read_ms: Samples,
    pub write_ms: Samples,
    pub mirror_apply_us: Samples,
    pub per_protocol: BTreeMap<&'static str, ProtoStats>,
    pub reads_failed: usize,
    pub writes_failed: usize,
    pub errors: Vec<String>,
    pub kept: Vec<Kept>,
    pub acks: Vec<Option<system::Ack>>,
    pub write_wire_bytes: u64,
    pub before: (Snap, Snap),
    pub after: (Snap, Snap),
}

impl Window {
    #[must_use]
    pub fn reads_ok(&self) -> usize {
        self.read_ms.len()
    }

    /// Reads completed per second of the window's wall time. The whole
    /// window, not a median of parts of it: on a host whose speed drifts
    /// over tens of seconds, the mean over the longest span varies least
    /// from run to run.
    #[must_use]
    pub fn qps(&self) -> f64 {
        self.reads_ok() as f64 / self.wall.as_secs_f64()
    }

    #[must_use]
    pub fn totals(&self) -> ProtoStats {
        let mut t = ProtoStats::default();
        for p in self.per_protocol.values() {
            t.bits += p.bits;
            t.rounds += p.rounds;
            t.messages += p.messages;
            t.wire_bytes += p.wire_bytes;
            t.reads += p.reads;
        }
        t
    }
}

/// Every `check_every`-th read is kept for the correctness check. Not a
/// multiple of five, so every protocol of the mix is sampled.
#[must_use]
pub fn check_every(w: Workload) -> usize {
    match w {
        Workload::InprocSketch => 11,
        Workload::ServeRw => 23,
        Workload::PartySplit => 19,
    }
}

/// Runs the plan's reads (and writes) against `target`, timing each.
///
/// # Errors
///
/// Only the registry snapshots failing; operation failures are counted.
pub fn run_window(plan: &Plan, target: &mut Target, spans: &mut Spans) -> Fallible<Window> {
    let mut win = Window {
        before: target.snapshots()?,
        ..Window::default()
    };
    let keep = check_every(plan.workload);
    let start = Instant::now();
    for (i, op) in plan.reads.iter().enumerate() {
        let id = i as u64 + 1;
        let span = spans.enter("op", "bench", id);
        let t0 = Instant::now();
        let result = target.read(op, id, spans);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(out) => {
                win.read_ms.push(ms);
                let cost = spans.time("comm.cost", "comm", id, || system::cost(&out.report));
                let p = win
                    .per_protocol
                    .entry(system::name(&op.request))
                    .or_default();
                p.latency_ms.push(ms);
                p.bits += cost.bits;
                p.rounds += cost.rounds;
                p.messages += cost.messages;
                p.wire_bytes += out.wire_bytes;
                p.reads += 1;
                if i % keep == 0 {
                    win.kept.push(Kept {
                        index: i,
                        epoch: out.epoch,
                        report: out.report,
                    });
                }
            }
            Err(e) => {
                win.reads_failed += 1;
                win.errors
                    .push(format!("read {i} ({}): {e}", system::name(&op.request)));
            }
        }
        spans.exit(span);
        if (i + 1) % WRITE_EVERY == 0 {
            if let Some(writes) = plan.batches.get(i / WRITE_EVERY) {
                let id = (plan.reads.len() + i / WRITE_EVERY) as u64 + 1;
                write(target, writes, id, spans, &mut win);
            }
        }
    }
    win.wall = start.elapsed();
    win.after = target.snapshots()?;
    Ok(win)
}

fn write(target: &mut Target, writes: &[Write], id: u64, spans: &mut Spans, win: &mut Window) {
    let Target::Serve { client, mirror, .. } = target else {
        return;
    };
    let batch = system::batch(writes);
    let span = spans.enter("op", "bench", id);
    let wire0 = client.wire_bytes();
    let t0 = Instant::now();
    let acked = spans.time("net.client.update", "net", id, || {
        client.update(mirror, &batch)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    win.write_wire_bytes += client.wire_bytes() - wire0;
    match acked {
        Ok(ack) => {
            win.write_ms.push(ms);
            let t0 = Instant::now();
            let applied = spans.time("core.mirror_apply", "core", id, || mirror.apply(&batch));
            win.mirror_apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
            match applied {
                Ok(epoch) if epoch == ack.epoch => win.acks.push(Some(ack)),
                Ok(epoch) => {
                    win.writes_failed += 1;
                    win.acks.push(None);
                    win.errors.push(format!(
                        "write {id}: mirror at epoch {epoch}, daemon at {}",
                        ack.epoch
                    ));
                }
                Err(e) => {
                    win.writes_failed += 1;
                    win.acks.push(None);
                    win.errors
                        .push(format!("write {id}: mirror rejected the batch: {e}"));
                }
            }
        }
        Err(e) => {
            win.writes_failed += 1;
            win.acks.push(None);
            win.errors.push(format!("write {id}: {e}"));
        }
    }
    spans.exit(span);
}

/// Failed operations of the window plus mismatches of its check: a run
/// is correct only when this is 0.
#[must_use]
pub fn failures(win: &Window, checked: &Checked) -> usize {
    win.reads_failed + win.writes_failed + checked.mismatches.len()
}

/// Outcome of the correctness check.
#[derive(Debug, Default)]
pub struct Checked {
    pub reads: usize,
    pub writes: usize,
    pub mismatches: Vec<String>,
}

/// Re-runs every kept read on a fresh in-process session at the same
/// seed and epoch, and replays every write there, comparing outputs,
/// transcripts, epochs and fingerprints bit for bit. Untimed.
#[must_use]
pub fn check(plan: &Plan, win: &Window) -> Checked {
    let mut out = Checked::default();
    let mut session = InProc::new(&plan.pair, None);
    let mut kept = win.kept.iter().peekable();
    for epoch in 0..=plan.batches.len() as u64 {
        while let Some(k) = kept.next_if(|k| k.epoch == epoch) {
            let op = &plan.reads[k.index];
            // Reads without writes get a session of their own: caches cold.
            let fresh;
            let s = if plan.batches.is_empty() {
                fresh = InProc::new(&plan.pair, None);
                &fresh
            } else {
                &session
            };
            out.reads += 1;
            match s.estimate(&op.request, op.seed) {
                Ok(r) if system::same_report(&r, &k.report) => {}
                Ok(_) => out.mismatches.push(format!(
                    "read {} ({}) differs from a fresh session",
                    k.index,
                    system::name(&op.request)
                )),
                Err(e) => out
                    .mismatches
                    .push(format!("read {}: fresh session failed: {e}", k.index)),
            }
        }
        let Some(writes) = plan.batches.get(epoch as usize) else {
            break;
        };
        if win.acks.len() <= epoch as usize {
            break;
        }
        out.writes += 1;
        let applied = session.apply(&system::batch(writes));
        let fps = session.fingerprints();
        match (&win.acks[epoch as usize], applied, fps) {
            (Some(ack), Ok(e), Ok((a, b))) if e == ack.epoch && (a, b) == (ack.fp_a, ack.fp_b) => {}
            (Some(ack), Ok(e), Ok((a, b))) => out.mismatches.push(format!(
                "write {epoch}: daemon acked epoch {} fp ({:#x}, {:#x}), fresh session has epoch {e} fp ({a:#x}, {b:#x})",
                ack.epoch, ack.fp_a, ack.fp_b
            )),
            (None, ..) => out.mismatches.push(format!("write {epoch} failed, later epochs unchecked")),
            (_, Err(e), _) | (_, _, Err(e)) => out.mismatches.push(format!("write {epoch}: fresh session failed: {e}")),
        }
        if win.acks[epoch as usize].is_none() {
            break;
        }
    }
    if let Some(k) = kept.next() {
        out.mismatches.push(format!(
            "read {} at epoch {} was never checked",
            k.index, k.epoch
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a window counts that must not depend on timing.
    fn counts(win: &Window) -> Vec<String> {
        let mut out: Vec<String> = win
            .per_protocol
            .iter()
            .map(|(k, p)| {
                format!(
                    "{k} reads={} bits={} rounds={} messages={} wire={}",
                    p.reads, p.bits, p.rounds, p.messages, p.wire_bytes
                )
            })
            .collect();
        out.push(format!(
            "writes={} wire={} acks={:?}",
            win.write_ms.len(),
            win.write_wire_bytes,
            win.acks
        ));
        out
    }

    #[test]
    fn tiny_runs_fail_nothing_and_repeat_their_counts() {
        for w in Workload::ALL {
            let run = || {
                let plan = Plan::new(w, 128, 7, 20);
                let mut target =
                    Target::setup(&plan, &mut Spans::new(false), None).expect("set-up");
                let win = run_window(&plan, &mut target, &mut Spans::new(false)).expect("window");
                target.teardown();
                let checked = check(&plan, &win);
                assert_eq!(
                    failures(&win, &checked),
                    0,
                    "{}: {:?} {:?}",
                    w.name(),
                    win.errors,
                    checked.mismatches
                );
                assert_eq!(win.reads_ok(), 20, "{}", w.name());
                assert_eq!(checked.writes, plan.batches.len(), "{}", w.name());
                assert!(checked.reads >= 1, "{}", w.name());
                counts(&win)
            };
            assert_eq!(run(), run(), "{}", w.name());
        }
    }

    /// Runs `plan` once and returns its failure count.
    fn failures_of(plan: &Plan) -> usize {
        let mut target = Target::setup(plan, &mut Spans::new(false), None).expect("set-up");
        let win = run_window(plan, &mut target, &mut Spans::new(false)).expect("window");
        target.teardown();
        failures(&win, &check(plan, &win))
    }

    #[test]
    fn a_failed_read_is_a_failure() {
        let mut plan = Plan::new(Workload::InprocSketch, 64, 7, 10);
        plan.reads[3].request = system::invalid_request();
        assert_eq!(failures_of(&plan), 1);
    }

    #[test]
    fn a_failed_write_is_a_failure() {
        let mut plan = Plan::new(Workload::ServeRw, 64, 7, 30);
        // An entry outside the 64 x 64 pair: the daemon refuses the batch.
        plan.batches[1][0].row = 1_000;
        let failed = failures_of(&plan);
        assert!(failed >= 1, "{failed}");
    }

    #[test]
    fn plans_are_fixed_by_the_seed() {
        let a = Plan::new(Workload::ServeRw, 64, 3, 40);
        let b = Plan::new(Workload::ServeRw, 64, 3, 40);
        let c = Plan::new(Workload::ServeRw, 64, 4, 40);
        let seeds = |p: &Plan| p.reads.iter().map(|r| r.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.batches.len(), 4);
        assert!(a.batches.iter().all(|b| b.len() == BATCH_ENTRIES));
        let pooled = Plan::new(Workload::PartySplit, 64, 3, 200);
        let distinct: std::collections::BTreeSet<u64> = seeds(&pooled).into_iter().collect();
        assert_eq!(distinct.len(), 5 * SEED_POOL as usize);
    }

    #[test]
    fn read_counts_fill_whole_periods_and_the_p90_tail() {
        for w in Workload::ALL {
            for seconds in [1, 10, 15, 60] {
                let n = w.reads_for(seconds);
                assert!(n >= 100);
                assert_eq!(n % w.period(), 0);
            }
        }
        assert_eq!(Workload::ServeRw.reads_for(15), 3600);
    }
}
