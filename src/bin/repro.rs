//! The reproduction CLI: regenerates the paper's tables and bounds as
//! machine-readable, gated artifacts, and reads the run ledger.
//!
//! ```text
//! repro [--quick | --smoke] [--out-dir DIR] [<command>] [args...]
//!
//! artifact pipelines (JSON + markdown, gated, CI-diffed bit-for-bit):
//!   table1             all eight algorithms × sync/async × sym/asym,
//!                      measured against the Theorems 3–5 bounds, each
//!                      async curve with its fitted growth exponent in n;
//!                      plus the pair_period section: Theorem 1's
//!                      O(log log n) pair-schedule period against n, the
//!                      worst async TTR of two overlapping pairs gated
//!                      against one period. Writes REPRO_table1.{json,md},
//!                      exits non-zero on a violation
//!   table1 --faults P  the fault-injection variant: the arena engine under
//!                      the named fault profile ('light' or 'heavy'),
//!                      sweeping outage × churn axes on the quarantined
//!                      orchestrator; writes REPRO_table1_faults.{json,md}.
//!                      With --sabotage, one cell deliberately panics to
//!                      exercise the graceful-degradation contract end to
//!                      end
//!   lower              the Section 4 lower bounds on the same grid: the
//!                      covering/density sandwich invariant per cell, exact
//!                      R_s(n,2) optima, pigeonhole certificates, density
//!                      witnesses, Ramsey-bridge attack; writes
//!                      REPRO_lower.{json,md}
//!   sdp                the appendix one-round SDP relaxation on the graph
//!                      families vs exact optima; writes REPRO_sdp.{json,md}
//!   all                (the default) every artifact pipeline, in order:
//!                      table1, table1 --faults light, lower, sdp
//!
//! perf-trend history (the append-only run ledger, see the
//! `blind_rendezvous::history` module docs):
//!   --history FILE     with any pipeline run: append the run (commit,
//!                      host fingerprint incl. host_threads, tier, UTC
//!                      timestamp, headroom rows by row id) as one JSONL
//!                      line to FILE after the artifacts are written.
//!                      `bench_report --history` is the bench twin
//!   trend --history FILE [--window N] [--max-regression-pct P]
//!                      [--same-host]
//!                      N-generation analysis over the ledger: every
//!                      series (pipeline headroom row / bench throughput
//!                      point) is matched across generations, the latest
//!                      value compared against the median of the
//!                      preceding N-generation window (default 5), and
//!                      classified regressed / improved / flat beyond
//!                      the tolerance (default 30%). N must be a positive
//!                      integer and P a finite, non-negative number (exit
//!                      2 otherwise). Exits 1 on any regression — the
//!                      only perf-regression gate in CI
//!   dashboard [--history FILE] [--out FILE]
//!                      renders the ledger (default HISTORY.jsonl) into
//!                      committed markdown sparkline tables (default
//!                      DASHBOARD.md); byte-identical given the same
//!                      ledger, so CI diffs it against the committed copy
//!   history fsck [--repair] [--history FILE]
//!                      checks the ledger (default HISTORY.jsonl) for
//!                      corrupt lines: reports each with its line number
//!                      and exits 1 if any are found; with --repair the
//!                      ledger is rewritten without them through the
//!                      atomic-commit path (exit 0)
//!
//! A crashed or interrupted run keeps no resume state: rerun it. Every
//! artifact is committed atomically (tmp + fsync + rename), so a crash
//! leaves the previous complete file, never a partial one.
//!
//! tiers:
//!   (default)      full paper-scale grids
//!   --quick        smaller grids, same shapes
//!   --smoke        minutes-scale CI tier: smallest grids that still cross
//!                  every algorithm × timing × scenario cell
//!
//! exit codes:
//!   0  success — every cell completed and every gated bound held
//!   1  a gated bound violation (the CI contract for committed artifacts),
//!      or `history fsck` found corruption without --repair
//!   2  usage error: an unknown command or flag, a repeated flag, a flag
//!      value that is missing or unparsable, --smoke with --quick,
//!      --faults or --sabotage with any command but table1, --sabotage
//!      without --faults
//!   3  degraded partial artifact — some grid cells panicked; the
//!      artifact's failed_cells section lists them. Takes precedence
//!      over 1.
//! ```
//!
//! The paper's Figures 1–3 print from `cargo run --example figures`.

use blind_rendezvous::cli;
use blind_rendezvous::history::{self, HostFingerprint, TrendOptions};
use blind_rendezvous::pipelines::{self, faults::Sabotage};
use blind_rendezvous::report::{self, PipelineOutput, Tier};
use rdv_core::fault::FaultProfile;
use std::fmt::Display;
use std::path::PathBuf;

/// Prints a usage error and exits 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(
        &argv,
        &[
            "--out-dir",
            "--faults",
            "--history",
            "--window",
            "--max-regression-pct",
            "--out",
        ],
        &[
            "--smoke",
            "--quick",
            "--sabotage",
            "--same-host",
            "--repair",
        ],
    )
    .unwrap_or_else(|e| usage_error(format!("{e}; see the module docs")));
    let positional = &args.positionals;
    let cmd = positional.first().map_or("all", String::as_str);
    let tier = match (args.has("--smoke"), args.has("--quick")) {
        (true, true) => usage_error("--smoke and --quick are mutually exclusive"),
        (true, false) => Tier::Smoke,
        (false, true) => Tier::Quick,
        (false, false) => Tier::Full,
    };
    if cmd != "table1" && (args.has("--faults") || args.has("--sabotage")) {
        usage_error("--faults and --sabotage only apply to the table1 pipeline");
    }
    if args.has("--sabotage") && !args.has("--faults") {
        usage_error("--sabotage requires --faults <light|heavy>");
    }
    let faults = args.value("--faults").map(|name| {
        FaultProfile::named(name).unwrap_or_else(|| {
            usage_error(format!(
                "unknown fault profile {name:?}; known: light, heavy"
            ))
        })
    });
    let sabotage = if args.has("--sabotage") {
        // A fixed cell index so the degraded artifact — and the CI
        // exit-code check against it — is deterministic.
        Sabotage {
            poison_cell: Some(1),
        }
    } else {
        Sabotage::NONE
    };
    let history_path = args.value("--history").map(PathBuf::from);
    let ctx = Ctx {
        out_dir: PathBuf::from(args.value("--out-dir").unwrap_or(".")),
        history: history_path.clone(),
    };
    match cmd {
        "table1" => match faults {
            Some(profile) => run_pipeline(
                &ctx,
                pipelines::faults::run(tier, 0, profile, sabotage),
                pipelines::faults::STEM,
            ),
            None => run_pipeline(
                &ctx,
                pipelines::table1::run(tier, 0),
                pipelines::table1::STEM,
            ),
        },
        "lower" => run_pipeline(&ctx, pipelines::lower::run(tier, 0), pipelines::lower::STEM),
        "sdp" => run_pipeline(&ctx, pipelines::sdp::run(tier, 0), pipelines::sdp::STEM),
        "trend" => {
            let Some(ledger) = &history_path else {
                usage_error(
                    "usage: repro trend --history LEDGER.jsonl [--window N] \
                     [--max-regression-pct P] [--same-host]",
                );
            };
            let opts = TrendOptions {
                window: args
                    .value("--window")
                    .map(|v| match v.parse() {
                        Ok(n) if n > 0 => n,
                        _ => usage_error(format!("--window takes a positive integer (got {v})")),
                    })
                    .unwrap_or(5),
                max_regression_pct: args
                    .value("--max-regression-pct")
                    .map(|v| match v.parse::<f64>() {
                        Ok(p) if p.is_finite() && p >= 0.0 => p,
                        _ => usage_error(format!(
                            "--max-regression-pct takes a finite, non-negative number (got {v})"
                        )),
                    })
                    .unwrap_or(30.0),
                same_host: args.has("--same-host"),
            };
            trend_history(ledger, &opts);
        }
        "dashboard" => {
            let ledger = history_path.unwrap_or_else(|| PathBuf::from("HISTORY.jsonl"));
            let out = PathBuf::from(args.value("--out").unwrap_or("DASHBOARD.md"));
            dashboard(&ledger, &out);
        }
        "history" => match positional.get(1).map(String::as_str) {
            Some("fsck") => {
                let ledger = history_path.unwrap_or_else(|| PathBuf::from("HISTORY.jsonl"));
                history_fsck(&ledger, args.has("--repair"));
            }
            _ => usage_error("usage: repro history fsck [--repair] [--history LEDGER.jsonl]"),
        },
        "all" => {
            let light = FaultProfile::named("light").expect("a committed fault profile");
            run_pipeline(
                &ctx,
                pipelines::table1::run(tier, 0),
                pipelines::table1::STEM,
            );
            run_pipeline(
                &ctx,
                pipelines::faults::run(tier, 0, light, Sabotage::NONE),
                pipelines::faults::STEM,
            );
            run_pipeline(&ctx, pipelines::lower::run(tier, 0), pipelines::lower::STEM);
            run_pipeline(&ctx, pipelines::sdp::run(tier, 0), pipelines::sdp::STEM);
        }
        other => usage_error(format!("unknown experiment {other:?}; see the module docs")),
    }
}

struct Ctx {
    out_dir: PathBuf,
    /// The run ledger pipeline runs append to (`--history`).
    history: Option<PathBuf>,
}

/// Writes one pipeline's artifact pair and enforces its gates: failed grid
/// cells exit 3 (degraded partial artifact — it takes precedence so CI
/// never mistakes an incomplete grid for a bound verdict), any proven
/// bound violation exits 1 — the CI contract.
fn run_pipeline(ctx: &Ctx, out: PipelineOutput, stem: &str) {
    let (json_path, md_path) = report::write_artifacts(&ctx.out_dir, stem, &out);
    println!();
    println!(
        "wrote {} and {} ({} gated violations, {} failed cells)",
        json_path.display(),
        md_path.display(),
        out.violations.len(),
        out.failed_cells.len()
    );
    // Append the generation to the run ledger before any gate exits —
    // degraded and violating runs are part of the trajectory too.
    if let Some(ledger) = &ctx.history {
        let (commit, utc) = history::writer_context();
        let entry =
            history::entry_from_artifact(&out.json, &commit, &HostFingerprint::detect(), &utc)
                .unwrap_or_else(|e| {
                    eprintln!("history: cannot build a ledger entry from {stem}: {e}");
                    std::process::exit(2);
                });
        history::append(ledger, &entry).unwrap_or_else(|e| {
            eprintln!("history: appending to {}: {e}", ledger.display());
            std::process::exit(2);
        });
        println!(
            "appended {} generation ({} rows) to {}",
            entry.source,
            entry.rows.len(),
            ledger.display()
        );
    }
    for v in &out.violations {
        eprintln!("BOUND VIOLATION: {v}");
    }
    if !out.failed_cells.is_empty() {
        for cell in &out.failed_cells {
            eprintln!(
                "FAILED CELL: {} ({}; seed={:#018x})",
                cell.id, cell.cause, cell.seed
            );
        }
        eprintln!("partial artifact: {} cells failed", out.failed_cells.len());
        std::process::exit(3);
    }
    if !out.violations.is_empty() {
        std::process::exit(1);
    }
}

/// Reads a ledger, reporting (but surviving) corrupt lines; only I/O
/// failure is fatal.
fn read_ledger(path: &std::path::Path) -> blind_rendezvous::history::Ledger {
    let ledger = history::read(path).unwrap_or_else(|e| {
        eprintln!("reading {}: {e}", path.display());
        std::process::exit(2);
    });
    for s in &ledger.skipped {
        eprintln!(
            "history: skipped corrupt ledger line {} of {}: {}",
            s.line,
            path.display(),
            s.error
        );
    }
    ledger
}

/// `repro history fsck [--repair]`: reports the ledger's corrupt lines
/// with their line numbers; without `--repair` any corruption exits 1,
/// with it the ledger is rewritten without the corrupt lines through the
/// atomic-commit path.
fn history_fsck(path: &std::path::Path, repair: bool) {
    let ledger = history::read(path).unwrap_or_else(|e| {
        eprintln!("reading {}: {e}", path.display());
        std::process::exit(2);
    });
    if ledger.skipped.is_empty() {
        println!(
            "{}: clean — {} generations, no corrupt lines",
            path.display(),
            ledger.entries.len()
        );
        return;
    }
    for s in &ledger.skipped {
        eprintln!("{}: corrupt line {}: {}", path.display(), s.line, s.error);
    }
    if repair {
        history::rewrite(path, &ledger.entries).unwrap_or_else(|e| {
            eprintln!("repairing {}: {e}", path.display());
            std::process::exit(2);
        });
        println!(
            "repaired {}: kept {} generations, dropped {} corrupt lines",
            path.display(),
            ledger.entries.len(),
            ledger.skipped.len()
        );
    } else {
        eprintln!(
            "{}: {} corrupt lines (re-run with --repair to drop them)",
            path.display(),
            ledger.skipped.len()
        );
        std::process::exit(1);
    }
}

/// `repro trend --history LEDGER`: the N-generation analysis; exits 1 on
/// any regressed series — the CI gate.
fn trend_history(ledger_path: &std::path::Path, opts: &TrendOptions) {
    let ledger = read_ledger(ledger_path);
    if ledger.entries.is_empty() {
        eprintln!(
            "trend: ledger {} has no readable generations",
            ledger_path.display()
        );
        std::process::exit(2);
    }
    let analysis = history::analyze(&ledger.entries, opts);
    print!("{}", analysis.render(opts));
    let regressed = analysis.regressed();
    if !regressed.is_empty() {
        for s in &regressed {
            eprintln!(
                "PERF REGRESSION: {} at {} vs window median {} ({:+.1}%, tolerance -{}%)",
                s.key,
                history::format_metric(s.latest),
                history::format_metric(s.baseline.unwrap_or(f64::NAN)),
                s.delta_pct.unwrap_or(f64::NAN),
                opts.max_regression_pct
            );
        }
        std::process::exit(1);
    }
}

/// `repro dashboard`: renders the ledger into the committed markdown
/// dashboard — a pure function of the ledger file.
fn dashboard(ledger_path: &std::path::Path, out_path: &std::path::Path) {
    let ledger = read_ledger(ledger_path);
    let md = history::render_dashboard(&ledger);
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    report::commit_bytes(out_path, md.as_bytes())
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    println!(
        "wrote {} ({} generations, {} skipped lines)",
        out_path.display(),
        ledger.entries.len(),
        ledger.skipped.len()
    );
}
