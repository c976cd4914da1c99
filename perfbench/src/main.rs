//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inproc-sketch|serve-rw|party-split> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run executes a fixed, seed-determined sequence of operations; its
//! length is `--seconds` times the workload's nominal rate, so counts and
//! memory do not depend on the machine's speed. `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` alternates untraced
//! and traced windows and reports the per-layer split. Outputs are
//! checked against fresh in-process sessions; any failed operation or
//! mismatch makes the run exit nonzero. The last line of standard output
//! is the JSON result.

mod report;
mod stats;
mod system;
mod trace;
mod workloads;

use report::{Sheet, END_TO_END, PER_LAYER};
use stats::{highest_percentile, median, percentile, Samples};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use system::{InProc, Snap, TraceSink, SKETCH_JOBS};
use trace::{Spans, LAYERS};
use workloads::{check, failures, run_window, Checked, Plan, Target, Window, Workload, N};

const USAGE: &str = "usage: perfbench --workload <inproc-sketch|serve-rw|party-split> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per untraced run: at least `SETUPS_MIN`, then more while all
/// of them together took less than `SETUP_BUDGET`, up to `SETUPS_MAX`.
/// `setup_s` is their median, so a cheap set-up is sampled more often.
const SETUPS_MIN: usize = 7;
const SETUPS_MAX: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(4);
/// Repetitions of each per-layer probe; its metric is their median.
const PROBE_REPS: usize = 7;
/// The windows of a traced run, in order: untraced (`false`) and traced
/// (`true`) as ABBA, so that a steady drift of the host's speed weighs on
/// both kinds alike. Each is a quarter of a `--seconds` window long.
const TRACE_ORDER: [bool; 4] = [false, true, true, false];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1..=600"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A traced run holds four windows, each a quarter as long, so that it
    // takes about as long as an untraced one.
    let window_seconds = if args.trace {
        args.seconds.div_ceil(TRACE_ORDER.len() as u64)
    } else {
        args.seconds
    };
    let plan = Plan::new(
        args.workload,
        N,
        args.seed,
        args.workload.reads_for(window_seconds),
    );
    println!(
        "perfbench workload={} seed={} reads={} writes={} trace={}",
        args.workload.name(),
        args.seed,
        plan.reads.len(),
        plan.batches.len(),
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&plan)
    } else {
        untraced(&plan)
    };
    match result {
        Ok(out) => {
            print!("{}", out.sheet.text());
            println!(
                "{}",
                out.sheet
                    .json(out.keys, out.correct, out.attempted, out.failed)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    sheet: Sheet,
    keys: &'static [(&'static str, &'static str)],
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Prints the window's operation counts and failures; returns
/// `(correct, failed)`. A window is correct only when no operation failed
/// and every check matched.
fn tally(label: &str, plan: &Plan, win: &Window, checked: &Checked) -> (bool, u64) {
    println!(
        "{label}: reads {}/{} ok, writes {}/{} ok; checked {} reads and {} writes on fresh sessions, {} mismatches",
        win.reads_ok(),
        plan.reads.len(),
        win.write_ms.len(),
        plan.batches.len(),
        checked.reads,
        checked.writes,
        checked.mismatches.len()
    );
    for e in win.errors.iter().chain(&checked.mismatches).take(10) {
        eprintln!("perfbench: {label}: {e}");
    }
    let failed = failures(win, checked);
    (failed == 0, failed as u64)
}

fn untraced(plan: &Plan) -> Result<Outcome, String> {
    // The first set-up, in a fresh process, serves the timed window; the
    // rest are timed and torn down after it, for the median.
    let mut setups = Vec::with_capacity(SETUPS_MAX);
    let t0 = Instant::now();
    let mut target = Target::setup(plan, &mut Spans::new(false), None)?;
    setups.push(t0.elapsed().as_secs_f64());
    let peak_reset = rss::reset_peak();
    let win = run_window(plan, &mut target, &mut Spans::new(false))?;
    let peak = rss::peak_mib();
    target.teardown();
    while setups.len() < SETUPS_MIN
        || (setups.len() < SETUPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        let t0 = Instant::now();
        let target = Target::setup(plan, &mut Spans::new(false), None)?;
        setups.push(t0.elapsed().as_secs_f64());
        target.teardown();
    }
    let checked = check(plan, &win);
    let (correct, failed) = tally("window", plan, &win, &checked);
    if !peak_reset {
        println!("note: VmHWM could not be reset; peak_rss_mib includes set-up");
    }

    let mut sheet = Sheet::default();
    let reads = win.reads_ok() as u64;
    let totals = win.totals();
    let sorted = win.read_ms.sorted();
    sheet.add("qps", win.qps(), "1/s", reads);
    sheet.add(
        "latency_p50_ms",
        percentile(&sorted, 50.0).unwrap_or(f64::NAN),
        "ms",
        reads,
    );
    sheet.add(
        "latency_p90_ms",
        win.read_ms.reportable(90.0).unwrap_or(f64::NAN),
        "ms",
        reads,
    );
    if let Some(top) = highest_percentile(sorted.len()).filter(|p| *p > 90.0) {
        sheet.add(
            format!("latency_p{top}_ms"),
            percentile(&sorted, top).unwrap_or(f64::NAN),
            "ms",
            reads,
        );
    }
    sheet.add("setup_s", median(&setups), "s", setups.len() as u64);
    sheet.add("peak_rss_mib", peak, "MiB", 1);
    sheet.add(
        "bits_per_query",
        totals.bits as f64 / reads as f64,
        "bit",
        reads,
    );
    sheet.add(
        "rounds_per_query",
        totals.rounds as f64 / reads as f64,
        "rounds",
        reads,
    );
    if !win.write_ms.is_empty() {
        let n = win.write_ms.len() as u64;
        sheet.add(
            "update_p50_ms",
            win.write_ms.reportable(50.0).unwrap_or(f64::NAN),
            "ms",
            n,
        );
        if let Some(v) = win.write_ms.reportable(90.0) {
            sheet.add("update_p90_ms", v, "ms", n);
        }
    }
    if totals.wire_bytes > 0 {
        sheet.add(
            "wire_bytes_per_query",
            totals.wire_bytes as f64 / reads as f64,
            "B",
            reads,
        );
    }
    let attempted = plan.attempted() as u64;
    sheet.add(
        "error_rate",
        failed as f64 / attempted as f64,
        "ratio",
        attempted,
    );
    println!("latency: {}", win.read_ms.describe());
    for (protocol, p) in &win.per_protocol {
        println!("latency {protocol}: {}", p.latency_ms.describe());
    }
    let runs: Vec<String> = setups.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    println!("set-up ms by run: {}", runs.join(" "));
    Ok(Outcome {
        sheet,
        keys: &END_TO_END,
        correct,
        attempted,
        failed,
    })
}

fn traced(plan: &Plan) -> Result<Outcome, String> {
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let trace_path = format!("{out_dir}/{}.trace.jsonl", plan.workload.name());
    let last_traced = TRACE_ORDER.iter().rposition(|t| *t).unwrap_or(0);
    // (reads, seconds) summed over the untraced and the traced windows.
    let (mut base, mut with) = ((0, 0.0), (0, 0.0));
    let (mut correct, mut failed) = (true, 0);
    let mut kept = None;
    for (k, tracing) in TRACE_ORDER.into_iter().enumerate() {
        // Each traced window writes its spans to a fresh file; the last
        // one's stay.
        let sink = tracing
            .then(|| TraceSink::to_file(&trace_path))
            .transpose()?;
        let origin_us = sink.as_ref().map_or(0, TraceSink::now_us);
        let mut spans = Spans::new(tracing);
        let mut target = Target::setup(plan, &mut spans, sink.as_ref())?;
        let win = run_window(plan, &mut target, &mut spans)?;
        let probes = if k == last_traced {
            Some(probe(plan, &target, &mut spans)?)
        } else {
            None
        };
        target.teardown();
        let checked = check(plan, &win);
        let kind = if tracing { "traced" } else { "untraced" };
        let (ok, f) = tally(&format!("window {} ({kind})", k + 1), plan, &win, &checked);
        correct &= ok;
        failed += f;
        let sum = if tracing { &mut with } else { &mut base };
        sum.0 += win.reads_ok();
        sum.1 += win.wall.as_secs_f64();
        if let Some(sink) = sink {
            spans.write(&sink, origin_us);
        }
        if let Some(probes) = probes {
            kept = Some((win, probes, spans));
        }
    }
    let (win, probes, spans) = kept.ok_or("the traced run holds no traced window")?;

    let mut sheet = Sheet::default();
    layer_metrics(&mut sheet, plan, &win, &probes);
    // Read rates over both windows of each kind.
    let (base_qps, traced_qps) = (base.0 as f64 / base.1, with.0 as f64 / with.1);
    sheet.add(
        "obs.trace_overhead_pct",
        (base_qps - traced_qps) / base_qps * 100.0,
        "%",
        (base.0 + with.0) as u64,
    );
    self_times(&mut sheet, plan, &win, &spans);
    Ok(Outcome {
        sheet,
        keys: &PER_LAYER,
        correct,
        attempted: (TRACE_ORDER.len() * plan.attempted()) as u64,
        failed,
    })
}

/// Per-layer timings measured beside the window, over the run's own pair.
struct Probes {
    /// `(table_build_ms, rows_tab_ms)` medians per `(protocol, family)`
    /// of [`SKETCH_JOBS`].
    sketch: BTreeMap<(&'static str, &'static str), (f64, f64)>,
    fingerprint_us: f64,
    warm_views_ms: f64,
    /// In-process estimate latencies per protocol at the window's seeds.
    estimate_ms: BTreeMap<&'static str, Samples>,
    connect_ms: Option<f64>,
}

/// Median wall time in milliseconds of `reps` calls of `f`, each spanned.
fn probe_ms<T>(
    spans: &mut Spans,
    name: &'static str,
    layer: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(spans.time(name, layer, 0, &mut f)?);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

fn probe(plan: &Plan, target: &Target, spans: &mut Spans) -> Result<Probes, String> {
    let mut sketch = BTreeMap::new();
    for (k, (protocol, family)) in SKETCH_JOBS.into_iter().enumerate() {
        let (mut build, mut tab) = (Vec::new(), Vec::new());
        for r in 0..PROBE_REPS {
            let seed = workloads::mix64((k * PROBE_REPS + r) as u64);
            let (b, t) = spans.time("probe.sketch", "sketch", 0, || {
                system::sketch_probe(protocol, family, &plan.pair, seed)
            });
            build.push(b.as_secs_f64() * 1e3);
            tab.push(t.as_secs_f64() * 1e3);
        }
        sketch.insert((protocol, family), (median(&build), median(&tab)));
    }
    let fingerprint_us = 1e3
        * probe_ms(spans, "probe.fingerprint", "net", 4 * PROBE_REPS, || {
            Ok(system::fingerprint_pair(&plan.pair))
        })?;
    let warm_views_ms = {
        let mut ms = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            let session = InProc::new(&plan.pair, None);
            ms.push(probe_ms(spans, "probe.warm_views", "core", 1, || {
                session.warm_views()
            })?);
        }
        median(&ms)
    };

    // In-process estimates of the window's first reads, on a warm
    // session. Pooled seeds run twice and the second pass is timed, as
    // most of the window's replays find their sketches cached.
    let mut estimate_ms: BTreeMap<&'static str, Samples> = BTreeMap::new();
    if plan.workload != Workload::InprocSketch {
        let session = InProc::new(&plan.pair, None);
        session.warm_views()?;
        let ops = &plan.reads[..plan.reads.len().min(80)];
        let passes = if plan.workload == Workload::PartySplit {
            2
        } else {
            1
        };
        for pass in 0..passes {
            for op in ops {
                let t0 = Instant::now();
                spans.time("probe.estimate", "core", 0, || {
                    session.estimate(&op.request, op.seed)
                })?;
                if pass + 1 == passes {
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    estimate_ms
                        .entry(system::name(&op.request))
                        .or_default()
                        .push(ms);
                }
            }
        }
    }
    let connect_ms = match target {
        Target::Split { addr, .. } => Some(probe_ms(
            spans,
            "probe.connect",
            "net",
            4 * PROBE_REPS,
            || system::connect_once(addr),
        )?),
        _ => None,
    };
    Ok(Probes {
        sketch,
        fingerprint_us,
        warm_views_ms,
        estimate_ms,
        connect_ms,
    })
}

fn counter_delta(win: &Window, name: &str) -> u64 {
    let total = |(l, r): &(Snap, Snap)| l.counter(name) + r.counter(name);
    total(&win.after) - total(&win.before)
}

#[allow(clippy::too_many_lines)]
fn layer_metrics(sheet: &mut Sheet, plan: &Plan, win: &Window, probes: &Probes) {
    let reads = win.reads_ok() as u64;
    let ops = reads + win.write_ms.len() as u64;
    let p50 = |s: &Samples| s.reportable(50.0).unwrap_or(f64::NAN);

    // core
    let estimates: BTreeMap<&str, &Samples> = if plan.workload == Workload::InprocSketch {
        win.per_protocol
            .iter()
            .map(|(k, v)| (*k, &v.latency_ms))
            .collect()
    } else {
        probes.estimate_ms.iter().map(|(k, v)| (*k, v)).collect()
    };
    let mut all = Samples::default();
    for s in estimates.values() {
        for v in s.sorted() {
            all.push(v);
        }
    }
    sheet.add("core.estimate_ms", p50(&all), "ms", all.len() as u64);
    for (protocol, s) in &estimates {
        let est = p50(s);
        sheet.add(
            format!("core.estimate_ms.{protocol}"),
            est,
            "ms",
            s.len() as u64,
        );
        // The sketch passes a protocol makes on a cold read, from the
        // probes; pooled seeds find them cached, so only fresh-seed
        // workloads get the remainder.
        let jobs: Vec<f64> = probes
            .sketch
            .iter()
            .filter(|((p, _), _)| p == protocol)
            .map(|(_, (_, tab))| *tab)
            .collect();
        if plan.workload.fresh_seeds() && !jobs.is_empty() {
            let sketching: f64 = jobs.iter().sum();
            sheet.add(
                format!("core.unattributed_ms.{protocol}"),
                est - sketching,
                "ms",
                s.len() as u64,
            );
        }
    }
    sheet.add(
        "core.warm_views_ms",
        probes.warm_views_ms,
        "ms",
        PROBE_REPS as u64,
    );
    if !win.mirror_apply_us.is_empty() {
        sheet.add(
            "core.mirror_apply_us",
            p50(&win.mirror_apply_us),
            "us",
            win.mirror_apply_us.len() as u64,
        );
    }
    let hits = counter_delta(win, "sketch.cache.hits");
    let misses = counter_delta(win, "sketch.cache.misses");
    sheet.add("core.sketch_cache.hits", hits as f64, "count", ops);
    sheet.add("core.sketch_cache.misses", misses as f64, "count", ops);
    sheet.add(
        "core.sketch_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        hits + misses,
    );
    sheet.add(
        "core.sketch_cache.prewarm_kernel",
        counter_delta(win, "sketch.prewarm.kernel") as f64,
        "count",
        ops,
    );
    sheet.add(
        "core.sketch_cache.prewarm_scalar",
        counter_delta(win, "sketch.prewarm.scalar") as f64,
        "count",
        ops,
    );

    // sketch
    for ((protocol, family), (build, tab)) in &probes.sketch {
        sheet.add(
            format!("sketch.table_build_ms.{protocol}.{family}"),
            *build,
            "ms",
            PROBE_REPS as u64,
        );
        sheet.add(
            format!("sketch.rows_tab_ms.{protocol}.{family}"),
            *tab,
            "ms",
            PROBE_REPS as u64,
        );
    }

    // comm
    let totals = win.totals();
    sheet.add(
        "comm.messages_per_query",
        totals.messages as f64 / reads as f64,
        "count",
        reads,
    );
    for (protocol, p) in &win.per_protocol {
        let n = p.reads.max(1) as f64;
        sheet.add(
            format!("comm.bits.{protocol}"),
            p.bits as f64 / n,
            "bit",
            p.reads,
        );
        sheet.add(
            format!("comm.rounds.{protocol}"),
            p.rounds as f64 / n,
            "rounds",
            p.reads,
        );
        sheet.add(
            format!("comm.messages.{protocol}"),
            p.messages as f64 / n,
            "count",
            p.reads,
        );
        if p.wire_bytes > 0 {
            let ratio = p.wire_bytes as f64 / p.bits.div_ceil(8).max(1) as f64;
            sheet.add(
                format!("comm.framing_ratio.{protocol}"),
                ratio,
                "ratio",
                p.reads,
            );
        }
    }

    // net
    sheet.add(
        "net.client.fingerprint_us",
        probes.fingerprint_us,
        "us",
        4 * PROBE_REPS as u64,
    );
    if plan.workload == Workload::ServeRw {
        let (before, after) = (&win.before.1, &win.after.1);
        let mut phases_ms = 0.0;
        for phase in ["decode", "lookup", "run", "encode"] {
            let us = after.quantile_since(before, &format!("phase.{phase}_us"), 0.5) as f64;
            phases_ms += us / 1e3;
            sheet.add(format!("net.phase.{phase}_us"), us, "us", ops);
        }
        let write_pass = after.quantile_since(before, "reactor.write_pass_us", 0.5) as f64;
        sheet.add("net.reactor.write_pass_us", write_pass, "us", ops);
        let wakeups = after.counter_sum("reactor.wakeup.") - before.counter_sum("reactor.wakeup.");
        sheet.add(
            "net.reactor.wakeups_per_op",
            wakeups as f64 / ops as f64,
            "count",
            ops,
        );
        sheet.add(
            "net.serve.unattributed_ms",
            p50(&win.read_ms) - phases_ms,
            "ms",
            reads,
        );
        sheet.add(
            "net.spool.depth_high_bytes",
            after.gauge_high("spool.depth") as f64,
            "B",
            1,
        );
        sheet.add(
            "net.backpressure.pauses",
            counter_delta(win, "backpressure.pause") as f64,
            "count",
            ops,
        );
    }
    if let Some(ms) = probes.connect_ms {
        sheet.add("net.party.connect_ms", ms, "ms", 4 * PROBE_REPS as u64);
        for (protocol, p) in &win.per_protocol {
            let run = p50(&p.latency_ms);
            sheet.add(format!("net.party.run_ms.{protocol}"), run, "ms", p.reads);
            if let Some(local) = probes.estimate_ms.get(protocol) {
                sheet.add(
                    format!("net.party.remote_overhead_ms.{protocol}"),
                    run - p50(local),
                    "ms",
                    p.reads,
                );
            }
        }
        sheet.add(
            "party.runs",
            counter_delta(win, "party.runs") as f64,
            "count",
            reads,
        );
        sheet.add(
            "party.run_failures",
            counter_delta(win, "party.run_failures") as f64,
            "count",
            reads,
        );
    }
}

/// Each layer's self time per operation over the traced window, from the
/// benchmark's spans, and the remainder of the window's wall time that no
/// layer span claims. Behind the daemon's socket, its phase histograms
/// split the client's `net` time further.
fn self_times(sheet: &mut Sheet, plan: &Plan, win: &Window, spans: &Spans) {
    let ops = (win.reads_ok() + win.write_ms.len()).max(1) as u64;
    let per_op = |d: Duration| d.as_secs_f64() * 1e3 / ops as f64;
    let times = spans.self_times("op");
    let mut claimed = Duration::ZERO;
    for layer in LAYERS.iter().filter(|l| **l != "bench") {
        claimed += times[layer];
        sheet.add(
            format!("trace.self_ms.{layer}"),
            per_op(times[layer]),
            "ms",
            ops,
        );
    }
    sheet.add(
        "trace.unattributed_ms",
        per_op(win.wall.saturating_sub(claimed)),
        "ms",
        ops,
    );
    if plan.workload == Workload::ServeRw {
        let (before, after) = (&win.before.1, &win.after.1);
        for phase in ["decode", "lookup", "run", "encode"] {
            let name = format!("phase.{phase}_us");
            let sum_us = after.histogram(&name).1 - before.histogram(&name).1;
            sheet.add(
                format!("trace.daemon_ms.{phase}"),
                sum_us as f64 / 1e3 / ops as f64,
                "ms",
                ops,
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), which holds the daemon
/// and party host threads as well as the caller.
mod rss {
    /// Resets `VmHWM` to the current resident set; false when the kernel
    /// refuses.
    pub fn reset_peak() -> bool {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }

    /// `VmHWM` in MiB, NaN when unreadable.
    pub fn peak_mib() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}
