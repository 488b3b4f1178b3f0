//! `perfbench`: the measuring program behind `perfbench/run.py`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID] [--spans-out FILE]
//! ```
//!
//! Run from the repository root (`repro-smoke` reads the committed
//! `REPRO_*.json` artifacts there). One client issues operations back to
//! back (a closed loop) for `--seconds`, after the set-up (repeated
//! [`SETUP_REPS`] times), an untimed correctness oracle and one warm-up
//! operation. Every operation's output is checked; a wrong output or a
//! panic counts as a failed operation and never aborts the run. The last
//! stdout line is the result object `{"correct", "attempted", "failed",
//! "metrics"}`: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`.
//!
//! The traced run spends a third of its time on untraced operations (the
//! base of the tracing overhead) and the rest on traced iterations: the
//! operation itself, then one call into each layer it exercises, every
//! call in its own span. Spans stay in memory and are written to
//! `--spans-out` at exit. End-to-end numbers come from untraced runs only.
//!
//! Self-tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod arena;
mod smoke;
mod stats;
mod trace;

use stats::{median, percentile, tail_percentile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_times, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 20;

/// One operation: its wall time (output checks excluded), the pair-slots
/// it simulated, and whether its output matched the oracle.
pub struct OpSample {
    pub secs: f64,
    pub pair_slots: u64,
    pub check: Result<(), String>,
}

/// Exact simulated quality of a workload's outputs, fixed by its seed.
#[derive(Clone, Copy)]
pub struct Quality {
    pub ttr_p50: f64,
    pub ttr_p99: f64,
    pub met_frac: f64,
}

/// Exact work counts of the engine layers, per operation.
#[derive(Default)]
pub struct Counts {
    pub pairs: f64,
    pub pair_slots: f64,
    pub agent_slots_filled: f64,
    pub schedule_groups: f64,
    pub pair_blocks_scanned: f64,
    pub met_pairs: f64,
}

pub trait Workload: Sized {
    /// Generates the inputs from `seed` and builds everything an
    /// operation needs: the timed set-up.
    fn build(seed: u64, threads: usize, tracer: &mut Tracer) -> Self;
    /// Computes the correctness oracle (untimed, once per process).
    fn prepare_oracle(&mut self) -> Result<(), String>;
    /// Runs and checks the next operation.
    fn op(&mut self, tracer: &mut Tracer) -> OpSample;
    /// Calls each layer the operation exercises, each in its own span.
    fn probe(&mut self, tracer: &mut Tracer) -> Result<(), String>;
    fn quality(&self) -> Quality;
    fn counts(&self) -> Counts;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    spans_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload arena-dense|arena-sparse|arena-faulted|repro-smoke \
                     --seed N --seconds S --trace 0|1 [--commit ID] [--spans-out FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "unknown".to_string(),
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--commit" => args.commit = value.clone(),
            "--spans-out" => args.spans_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next read
/// covers one operation (and the workload it keeps resident). A single
/// end-of-run peak swings by half between runs of one input, with the
/// allocator's per-thread arenas; the median of per-operation peaks holds.
fn reset_peak_rss() {
    // Best effort: without it every read is the process's peak so far.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = match args.workload.as_str() {
        "arena-dense" => drive::<arena::Arena<arena::Dense>>(&args, threads),
        "arena-sparse" => drive::<arena::Arena<arena::Sparse>>(&args, threads),
        "arena-faulted" => drive::<arena::Arena<arena::Faulted>>(&args, threads),
        "repro-smoke" => drive::<smoke::Smoke>(&args, threads),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs one workload end to end and returns the result line.
fn drive<W: Workload>(args: &Args, threads: usize) -> Result<String, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut w = timed_setup::<W>(args, threads, &mut tracer, &mut setup_secs);

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    if let Err(e) = w.prepare_oracle() {
        attempted += 1;
        failures.push(format!("oracle: {e}"));
    }
    // Warm-up: fills caches and finishes lazy set-up before timing.
    attempted += 1;
    if let Err(e) = w.op(&mut Tracer::off()).check {
        failures.push(format!("warm-up: {e}"));
    }

    let started = Instant::now();
    let untraced_budget = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    // The other set-ups are spread evenly over the untraced loop (between
    // operations, untimed as operations), so that `setup_s` averages the
    // host's state over the run like the operation timings do.
    let setup_every = untraced_budget / SETUP_REPS as f64;
    let mut untraced = Vec::new();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut off = Tracer::off();
    while untraced.is_empty() || started.elapsed().as_secs_f64() < untraced_budget {
        while setup_secs.len() < SETUP_REPS
            && started.elapsed().as_secs_f64() >= setup_every * setup_secs.len() as f64
        {
            drop(timed_setup::<W>(
                args,
                threads,
                &mut tracer,
                &mut setup_secs,
            ));
        }
        reset_peak_rss();
        let s = w.op(&mut off);
        rss.push(peak_rss_mb());
        attempted += 1;
        if let Err(e) = s.check {
            failures.push(e);
        }
        untraced.push(s.secs);
        rates.push(s.pair_slots as f64 / s.secs);
    }
    let mut traced = Vec::new();
    if args.trace {
        while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            tracer.next_op();
            let iteration = tracer.enter("iteration");
            let s = w.op(&mut tracer);
            let probe = tracer.enter("probe");
            let probed = catch_unwind(AssertUnwindSafe(|| w.probe(&mut tracer)))
                .unwrap_or_else(|_| Err("a layer probe panicked".to_string()));
            tracer.exit(probe, 0);
            tracer.exit(iteration, 0);
            attempted += 1;
            if let Err(e) = s.check.and(probed) {
                failures.push(e);
            }
            traced.push(s.secs);
        }
    }

    let host = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{threads},\"engine_threads\":{threads},\"commit\":\"{}\",\"trace\":{}}}",
        args.workload, args.seed, args.commit, args.trace as u8
    );
    println!("host {host}");
    let tail = tail_percentile(untraced.len()).map_or("none".to_string(), |q| {
        format!("p{q} = {:.6} s", percentile(&untraced, q))
    });
    println!(
        "ops: {} untraced, op_s.p50 = {:.6} s, highest percentile with >= 10 samples beyond: {tail}",
        untraced.len(),
        median(&untraced)
    );
    println!(
        "setup: {} reps, median {:.6} s, range {:.6}..{:.6} s",
        setup_secs.len(),
        median(&setup_secs),
        percentile(&setup_secs, 0.0),
        percentile(&setup_secs, 100.0)
    );
    println!(
        "error_rate = {} ({} failed / {attempted} attempted)",
        failures.len() as f64 / attempted as f64,
        failures.len()
    );
    for f in failures.iter().take(5) {
        println!("failure: {f}");
    }

    let metrics = if args.trace {
        let metrics = layer_metrics(&w, &tracer, &untraced, &traced);
        if let Some(path) = &args.spans_out {
            tracer
                .write_jsonl(path, &host)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        metrics
    } else {
        let q = w.quality();
        vec![
            ("setup_s", "s", median(&setup_secs)),
            ("op_s.p50", "s", median(&untraced)),
            ("op_s.p90", "s", percentile(&untraced, 90.0)),
            ("pair_slots_per_s", "1/s", median(&rates)),
            ("ttr_slots.p50", "slots", q.ttr_p50),
            ("ttr_slots.p99", "slots", q.ttr_p99),
            ("met_frac", "ratio", q.met_frac),
            ("peak_rss_mb", "MiB", median(&rss)),
        ]
    };
    Ok(result_line(
        failures.is_empty(),
        attempted,
        failures.len(),
        &metrics,
    ))
}

/// Builds the workload once, appending the wall time to `secs`.
fn timed_setup<W: Workload>(
    args: &Args,
    threads: usize,
    tracer: &mut Tracer,
    secs: &mut Vec<f64>,
) -> W {
    tracer.next_op();
    let span = tracer.enter("setup");
    let t0 = Instant::now();
    let built = W::build(args.seed, threads, tracer);
    secs.push(t0.elapsed().as_secs_f64());
    tracer.exit(span, 0);
    built
}

/// Per-layer metrics from the traced iterations' spans.
fn layer_metrics<W: Workload>(w: &W, tracer: &Tracer, untraced: &[f64], traced: &[f64]) -> Metrics {
    let layers = self_times(tracer.spans());
    // Per-iteration self seconds of a layer, over the iterations that ran it.
    let per_op = |name: &str| -> Vec<f64> {
        layers.get(name).map_or(Vec::new(), |ops| {
            ops.values().map(|l| l.self_ns as f64 * 1e-9).collect()
        })
    };
    let med = |name: &str| median(&per_op(name));
    let ns_per_count = |name: &str| {
        layers.get(name).map_or(0.0, |ops| {
            let (ns, count) = ops
                .values()
                .fold((0u64, 0u64), |(ns, c), l| (ns + l.self_ns, c + l.count));
            if count == 0 {
                0.0
            } else {
                ns as f64 / count as f64
            }
        })
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let auto = med("engine.run_engine");
    let forced = [
        "engine.forced.planes",
        "engine.forced.slots",
        "engine.forced.buckets",
    ]
    .map(&med)
    .into_iter()
    .filter(|&t| t > 0.0)
    .fold(f64::INFINITY, f64::min);
    // Report rendering, JSON and printing: pipeline wall time minus the
    // separately timed calls into the layers the pipelines run.
    let harness: Vec<f64> = layers.get("pipelines.table1").map_or(Vec::new(), |ops| {
        ops.keys()
            .map(|op| {
                let at = |name: &str| {
                    layers
                        .get(name)
                        .and_then(|m| m.get(op))
                        .map_or(0.0, |l| l.self_ns as f64 * 1e-9)
                };
                smoke::PIPELINES.iter().map(|&n| at(n)).sum::<f64>()
                    - smoke::PIPELINE_LAYERS.iter().map(|&n| at(n)).sum::<f64>()
            })
            .collect()
    });
    let c = w.counts();
    let mut metrics: Metrics = vec![
        ("workload.build_s", "s", med("workload.build")),
        ("engine.overlap_s", "s", med("engine.overlap")),
        ("compiled.compile_s", "s", med("compiled.compile")),
        (
            "schedule.fill_ns_per_agent_slot",
            "ns",
            ns_per_count("schedule.fill"),
        ),
        (
            "fault.mask_ns_per_agent_slot",
            "ns",
            ns_per_count("fault.mask"),
        ),
        (
            "bitplane.pack_ns_per_agent_block",
            "ns",
            ns_per_count("bitplane.pack"),
        ),
        (
            "bitplane.match_ns_per_pair_block",
            "ns",
            ns_per_count("bitplane.match"),
        ),
        ("engine.forced.planes_s", "s", med("engine.forced.planes")),
        ("engine.forced.slots_s", "s", med("engine.forced.slots")),
        ("engine.forced.buckets_s", "s", med("engine.forced.buckets")),
        ("engine.auto_regret", "ratio", ratio(auto, forced)),
        ("engine.threads1_s", "s", med("engine.threads1")),
        (
            "engine.parallel_speedup",
            "ratio",
            ratio(med("engine.threads1"), auto),
        ),
        ("engine.reference_s", "s", med("engine.reference")),
        (
            "engine.vs_reference",
            "ratio",
            ratio(med("engine.reference"), auto),
        ),
        (
            "pool.barrier_us_per_call",
            "us",
            ns_per_count("pool.barrier") * 1e-3,
        ),
        ("engine.pairs", "count", c.pairs),
        ("engine.pair_slots", "count", c.pair_slots),
        ("engine.agent_slots_filled", "count", c.agent_slots_filled),
        ("engine.schedule_groups", "count", c.schedule_groups),
        ("engine.pair_blocks_scanned", "count", c.pair_blocks_scanned),
        (
            "engine.meet_yield",
            "ratio",
            ratio(c.met_pairs, c.pair_blocks_scanned),
        ),
        ("trace.overhead_s", "s", median(traced) - median(untraced)),
        ("pipelines.harness_s", "s", median(&harness)),
    ];
    for (metric, span) in smoke::SPAN_METRICS {
        metrics.push((metric, "s", med(span)));
    }

    // Where the time went: median self time per traced iteration.
    let mut shares: Vec<(f64, &str)> = layers
        .keys()
        .filter(|name| !matches!(**name, "setup" | "workload.build"))
        .map(|&name| (med(name), name))
        .collect();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    let listed: Vec<String> = shares
        .iter()
        .map(|(t, name)| format!("{name} {:.3} ms", t * 1e3))
        .collect();
    println!(
        "self time per traced iteration (median): {}",
        listed.join(", ")
    );
    metrics
}

/// The result object, as one JSON line.
fn result_line(correct: bool, attempted: u64, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
