//! The experiment driver: regenerates every table and figure of the paper,
//! plus the one-command machine-readable reproduction pipelines.
//!
//! ```text
//! repro [--quick | --smoke] [--out-dir DIR] <experiment> [args...]
//!
//! artifact pipelines (JSON + markdown, gated, CI-diffed bit-for-bit):
//!   table1         E0  all eight algorithms × sync/async × sym/asym,
//!                      measured against the Theorems 3–5 bounds; writes
//!                      REPRO_table1.{json,md}, exits non-zero on a violation
//!   table1 --faults P  the fault-injection variant: the arena engine under
//!                      the named fault profile ('light' or 'heavy'),
//!                      sweeping outage × churn axes on the quarantined
//!                      orchestrator; writes REPRO_table1_faults.{json,md}.
//!                      With --sabotage, two cells are deliberately failed
//!                      (one panic, one sampler exhaustion) to exercise the
//!                      graceful-degradation contract end to end
//!   lower              the Section 4 lower bounds on the same grid: the
//!                      covering/density sandwich invariant per cell, exact
//!                      R_s(n,2) optima, pigeonhole certificates, density
//!                      witnesses, Ramsey-bridge attack; writes
//!                      REPRO_lower.{json,md}
//!   sdp                the appendix one-round SDP relaxation on the graph
//!                      families vs exact optima; writes REPRO_sdp.{json,md}
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
//!   history-import ARTIFACT.json...  --history FILE
//!                      backfills ledger entries from committed
//!                      REPRO_*.json / BENCH_*.json snapshots (the seed
//!                      generation); bench entries record the CLI tier
//!   history fsck [--repair] [--history FILE]
//!                      checks the ledger (default HISTORY.jsonl) for
//!                      corrupt lines: reports each with its line number
//!                      and exits 1 if any are found; with --repair the
//!                      ledger is rewritten without them through the
//!                      atomic-commit path (exit 0)
//!
//! crash safety (see the `blind_rendezvous::checkpoint` module docs):
//!   <pipeline> --checkpoint FILE
//!                      journal every completed grid cell to FILE; if a
//!                      compatible journal is already there (same
//!                      pipeline/tier/commit/config fingerprint), resume
//!                      it — replay its cells and run only the missing
//!                      ones. A stale or torn journal starts fresh, so
//!                      evicted cron runs self-heal
//!   <pipeline> --resume FILE
//!                      strict resume: like --checkpoint, but a missing,
//!                      headerless, or stale journal is an error (exit 4)
//!                      instead of a fresh start
//!                      Either way the resumed artifact is byte-identical
//!                      to an uninterrupted run, failed cells included
//!
//! console experiments:
//!   table1-asym    E1  Table 1, asymmetric column (TTR vs n, fitted exponents)
//!   table1-sym     E2  Table 1, symmetric column
//!   thm3-scaling   E3  O(|A||B| log log n) headline scaling
//!   pair-loglog    E7  Theorem 1 period/TTR vs n (doubly logarithmic)
//!   figures        E4-E6  Figures 1, 2, 3 (ASCII renderings)
//!   lb-exact       E8  exact R_s(n,2) / cyclic R_a(n,2) by exhaustive search
//!   lb-sync        E9  Theorem 6 pigeonhole certificates
//!   lb-async       E10 Theorem 7 density witnesses (Ω(kℓ))
//!   beacon         E11/E12  one-bit beacon protocols A and B
//!   all            everything, in order
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
//!   2  usage error (unknown experiment, bad arguments)
//!   3  degraded partial artifact — some grid cells failed (panic or
//!      sampling exhaustion); the artifact's failed_cells section lists
//!      them. Takes precedence over 1.
//!   4  checkpoint-resume rejection — `--resume` named a journal that is
//!      missing, headerless, or stale (written by a different
//!      pipeline/tier/commit/config), or the journal file is unreadable
//! ```

use blind_rendezvous::checkpoint::{self, Journal};
use blind_rendezvous::history::{self, HostFingerprint, TrendOptions};
use blind_rendezvous::pipelines;
use blind_rendezvous::prelude::*;
use blind_rendezvous::report::{self, PipelineOutput, Tier};
use rdv_core::channel::ChannelSet;
use rdv_core::fault::FaultProfile;
use rdv_lower::{density, exact, pigeonhole};
use rdv_sim::stats::growth_exponent;
use rdv_sim::sweep::{sweep_pair_ttr, SweepConfig};
use rdv_sim::workload;
use rdv_strings::{rmap::RCode, Bits};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tier = if args.iter().any(|a| a == "--smoke") {
        Tier::Smoke
    } else if args.iter().any(|a| a == "--quick") {
        Tier::Quick
    } else {
        Tier::Full
    };
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let faults = args.iter().position(|a| a == "--faults").map(|i| {
        match args.get(i + 1).map(String::as_str) {
            Some(name) if !name.starts_with("--") => {
                FaultProfile::named(name).unwrap_or_else(|| {
                    eprintln!("unknown fault profile {name:?}; known: light, heavy");
                    std::process::exit(2);
                })
            }
            _ => {
                eprintln!("usage: repro table1 --faults <light|heavy> [--sabotage]");
                std::process::exit(2);
            }
        }
    });
    let sabotage = if args.iter().any(|a| a == "--sabotage") {
        // Fixed cell indices so the degraded artifact — and the CI
        // exit-code check against it — is deterministic.
        pipelines::faults::Sabotage {
            poison_cell: Some(1),
            exhaust_cell: Some(2),
        }
    } else {
        pipelines::faults::Sabotage::NONE
    };
    // A value-taking flag's value, with a hard usage error when the value
    // is missing or flag-shaped.
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                }
            })
    };
    let history_path = flag_value("--history").map(PathBuf::from);
    let checkpoint_path = flag_value("--checkpoint").map(PathBuf::from);
    let resume_path = flag_value("--resume").map(PathBuf::from);
    if checkpoint_path.is_some() && resume_path.is_some() {
        eprintln!("--checkpoint and --resume are mutually exclusive");
        std::process::exit(2);
    }
    // Positional arguments: everything that is neither a flag nor the
    // value of a value-taking flag.
    const VALUE_FLAGS: [&str; 8] = [
        "--out-dir",
        "--faults",
        "--history",
        "--window",
        "--max-regression-pct",
        "--out",
        "--checkpoint",
        "--resume",
    ];
    let mut positional: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            positional.push(a);
        }
    }
    let cmd = positional.first().copied().unwrap_or("all");
    if (checkpoint_path.is_some() || resume_path.is_some())
        && !matches!(cmd, "table1" | "lower" | "sdp")
    {
        eprintln!("--checkpoint/--resume only apply to the table1, lower, and sdp pipelines");
        std::process::exit(2);
    }
    // The journal for this run, under the given fingerprint:
    // `--checkpoint` opens leniently (resume a compatible journal, start
    // fresh otherwise), `--resume` strictly (a journal it cannot resume
    // exits 4). Corrupt journal lines are reported and re-run, not fatal.
    let open_journal = |fp: &checkpoint::Fingerprint| -> Option<Journal> {
        let (path, strict) = match (&checkpoint_path, &resume_path) {
            (Some(p), None) => (p, false),
            (None, Some(p)) => (p, true),
            _ => return None,
        };
        let opened = if strict {
            Journal::resume(path, fp)
        } else {
            Journal::open(path, fp)
        };
        let journal = opened.unwrap_or_else(|e| {
            eprintln!("checkpoint: {e}");
            std::process::exit(4);
        });
        for s in &journal.skipped {
            eprintln!(
                "checkpoint: skipped corrupt journal line {} of {}: {}",
                s.line,
                journal.path().display(),
                s.error
            );
        }
        println!(
            "checkpoint: journaling to {} ({} cells replayed)",
            journal.path().display(),
            journal.replayed().len()
        );
        Some(journal)
    };
    let ctx = Ctx {
        tier,
        out_dir,
        history: history_path.clone(),
    };
    match cmd {
        "table1" => match faults {
            Some(profile) => {
                let journal =
                    open_journal(&pipelines::faults::fingerprint(tier, profile, sabotage));
                run_pipeline(
                    &ctx,
                    pipelines::faults::run_with(tier, 0, profile, sabotage, journal.as_ref()),
                    pipelines::faults::STEM,
                );
            }
            None => {
                let journal = open_journal(&pipelines::table1::fingerprint(tier));
                run_pipeline(
                    &ctx,
                    pipelines::table1::run_with(tier, 0, journal.as_ref()),
                    pipelines::table1::STEM,
                );
            }
        },
        "lower" => {
            let journal = open_journal(&pipelines::lower::fingerprint(tier));
            run_pipeline(
                &ctx,
                pipelines::lower::run_with(tier, 0, journal.as_ref()),
                pipelines::lower::STEM,
            );
        }
        "sdp" => {
            let journal = open_journal(&pipelines::sdp::fingerprint(tier));
            run_pipeline(
                &ctx,
                pipelines::sdp::run_with(tier, 0, journal.as_ref()),
                pipelines::sdp::STEM,
            );
        }
        "trend" => {
            let Some(ledger) = &history_path else {
                eprintln!(
                    "usage: repro trend --history LEDGER.jsonl [--window N] \
                     [--max-regression-pct P] [--same-host]"
                );
                std::process::exit(2);
            };
            let opts = TrendOptions {
                window: flag_value("--window")
                    .map(|v| match v.parse() {
                        Ok(n) if n > 0 => n,
                        _ => {
                            eprintln!("--window takes a positive integer (got {v})");
                            std::process::exit(2);
                        }
                    })
                    .unwrap_or(5),
                max_regression_pct: flag_value("--max-regression-pct")
                    .map(|v| match v.parse::<f64>() {
                        Ok(p) if p.is_finite() && p >= 0.0 => p,
                        _ => {
                            eprintln!(
                                "--max-regression-pct takes a finite, non-negative number \
                                 (got {v})"
                            );
                            std::process::exit(2);
                        }
                    })
                    .unwrap_or(30.0),
                same_host: args.iter().any(|a| a == "--same-host"),
            };
            trend_history(ledger, &opts);
        }
        "dashboard" => {
            let ledger = history_path.unwrap_or_else(|| PathBuf::from("HISTORY.jsonl"));
            let out = flag_value("--out")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("DASHBOARD.md"));
            dashboard(&ledger, &out);
        }
        "history-import" => {
            let Some(ledger) = &history_path else {
                eprintln!("usage: repro history-import ARTIFACT.json... --history LEDGER.jsonl");
                std::process::exit(2);
            };
            if positional.len() < 2 {
                eprintln!("history-import: no artifact files given");
                std::process::exit(2);
            }
            history_import(ledger, &positional[1..], tier);
        }
        "history" => match positional.get(1).copied() {
            Some("fsck") => {
                let ledger = history_path.unwrap_or_else(|| PathBuf::from("HISTORY.jsonl"));
                history_fsck(&ledger, args.iter().any(|a| a == "--repair"));
            }
            _ => {
                eprintln!("usage: repro history fsck [--repair] [--history LEDGER.jsonl]");
                std::process::exit(2);
            }
        },
        "table1-asym" => table1_asym(&ctx),
        "table1-sym" => table1_sym(&ctx),
        "thm3-scaling" => thm3_scaling(&ctx),
        "pair-loglog" => pair_loglog(&ctx),
        "figures" => figures(),
        "lb-exact" => lb_exact(&ctx),
        "lb-sync" => lb_sync(&ctx),
        "lb-async" => lb_async(&ctx),
        "beacon" => beacon(&ctx),
        "all" => {
            run_pipeline(
                &ctx,
                pipelines::table1::run(tier, 0),
                pipelines::table1::STEM,
            );
            run_pipeline(&ctx, pipelines::lower::run(tier, 0), pipelines::lower::STEM);
            run_pipeline(&ctx, pipelines::sdp::run(tier, 0), pipelines::sdp::STEM);
            table1_asym(&ctx);
            table1_sym(&ctx);
            thm3_scaling(&ctx);
            pair_loglog(&ctx);
            figures();
            lb_exact(&ctx);
            lb_sync(&ctx);
            lb_async(&ctx);
            beacon(&ctx);
        }
        other => {
            eprintln!("unknown experiment {other:?}; see the module docs");
            std::process::exit(2);
        }
    }
}

struct Ctx {
    tier: Tier,
    out_dir: PathBuf,
    /// The run ledger pipeline runs append to (`--history`).
    history: Option<PathBuf>,
}

impl Ctx {
    /// Whether the classic experiments should use their reduced grids
    /// (both `--quick` and `--smoke` do).
    fn quick(&self) -> bool {
        self.tier != Tier::Full
    }
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
                "FAILED CELL: {} ({}; retries={}, seed={:#018x})",
                cell.id, cell.cause, cell.retries, cell.seed
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
    checkpoint::commit_bytes(out_path, md.as_bytes())
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    println!(
        "wrote {} ({} generations, {} skipped lines)",
        out_path.display(),
        ledger.entries.len(),
        ledger.skipped.len()
    );
}

/// `repro history-import`: backfills ledger entries from committed
/// artifact / bench snapshots. Pipeline artifacts carry their own
/// provenance; bench reports record the CLI `tier`.
fn history_import(ledger_path: &std::path::Path, files: &[&str], tier: Tier) {
    let (commit, utc) = history::writer_context();
    let host = HostFingerprint::detect();
    for path in files {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            std::process::exit(2);
        });
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("parsing {path}: {e}");
            std::process::exit(2);
        });
        let entry = if doc.get("pipeline").is_some() {
            history::entry_from_artifact(&doc, &commit, &host, &utc)
        } else {
            history::entry_from_bench(&doc, tier.name(), &commit, &host, &utc)
        }
        .unwrap_or_else(|e| {
            eprintln!("history-import: {path}: {e}");
            std::process::exit(2);
        });
        history::append(ledger_path, &entry).unwrap_or_else(|e| {
            eprintln!("history: appending to {}: {e}", ledger_path.display());
            std::process::exit(2);
        });
        println!(
            "imported {} ({} {} rows) into {}",
            path,
            entry.rows.len(),
            entry.kind.name(),
            ledger_path.display()
        );
    }
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
    println!();
}

/// E1 — Table 1, asymmetric column: worst/mean TTR vs n per algorithm,
/// adversarial overlap-one pairs, plus fitted growth exponents.
fn table1_asym(ctx: &Ctx) {
    header("E1: Table 1 (asymmetric) — max TTR over wake-up shifts, |A|=|B|=4, |A∩B|=1");
    let ns: &[u64] = if ctx.quick() {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 64, 128]
    };
    let cfg = SweepConfig {
        shifts: if ctx.quick() { 64 } else { 1024 },
        shift_stride: 13,
        spread_over_period: true,
        seeds: 6,
        horizon_override: 0,
        threads: 0,
    };
    let algos = [
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
        Algorithm::Ours,
        Algorithm::Random,
    ];
    print!("{:<16}", "algorithm");
    for n in ns {
        print!("{:>10}", format!("n={n}"));
    }
    println!("{:>9}{:>9}", "exp(n)", "paper");
    let paper_exp = [
        "2 (n^2)",
        "3 (n^3)",
        "2 (n^2)",
        "~0 (kl loglog n)",
        "~0 (kl log n)",
    ];
    let geometries = if ctx.quick() { 3 } else { 8 };
    for (algo, paper) in algos.iter().zip(paper_exp) {
        let mut points = Vec::new();
        print!("{:<16}", algo.to_string());
        for &n in ns {
            // Worst case over several overlap geometries × many shifts:
            // the adversarial boundary pair plus seeded random overlaps.
            let mut scenarios = vec![workload::adversarial_overlap_one(n, 4, 4).expect("fits")];
            for seed in 0..geometries {
                scenarios.push(workload::random_overlapping_pair(n, 4, 4, seed).expect("fits"));
            }
            let mut worst = 0u64;
            let mut failures = 0usize;
            for scenario in &scenarios {
                let s = sweep_pair_ttr(*algo, n, scenario, &cfg)
                    .unwrap_or_else(|e| panic!("{algo} failed at n={n}: {e}"));
                if algo.proven_asymmetric_guarantee() {
                    assert_eq!(s.failures, 0, "{algo} missed its horizon at n={n}");
                }
                if s.failures > 0 {
                    // Horizon misses lower-bound the worst case.
                    worst = worst.max(s.horizon);
                }
                failures += s.failures;
                worst = worst.max(s.summary.max);
            }
            if failures == 0 {
                points.push((n, worst));
            }
            if failures > 0 {
                print!("{:>10}", format!("≥{worst}"));
            } else {
                print!("{:>10}", worst);
            }
        }
        let e = growth_exponent(&points).unwrap_or(f64::NAN);
        println!("{:>9.2}  {}", e, paper);
    }
    println!();
    println!("reproduction check: exponent ordering ours < DRDS/CRSEQ < JS; ours ≈ flat in n.");
    println!("(≥ marks cells where a reconstruction missed its horizon for some geometry+shift;");
    println!(" the true worst case is at least the shown value — see rdv-baselines docs.)");
}

/// E2 — Table 1, symmetric column: A = B.
fn table1_sym(ctx: &Ctx) {
    header("E2: Table 1 (symmetric) — max TTR over wake-up shifts, A = B, |A|=4");
    let ns: &[u64] = if ctx.quick() {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 64, 128]
    };
    let cfg = SweepConfig {
        shifts: if ctx.quick() { 64 } else { 1024 },
        shift_stride: 13,
        spread_over_period: true,
        seeds: 6,
        horizon_override: 0,
        threads: 0,
    };
    let algos = [
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
        Algorithm::Ours,
        Algorithm::OursSymmetric,
    ];
    let paper_exp = [
        "2 (n^2)",
        "1 (n)",
        "n/a (reconstr.)",
        "kl loglog n",
        "0 (O(1))",
    ];
    print!("{:<16}", "algorithm");
    for n in ns {
        print!("{:>10}", format!("n={n}"));
    }
    println!("{:>9}{:>14}", "exp(n)", "paper");
    let geometries = if ctx.quick() { 3 } else { 8 };
    for (algo, paper) in algos.iter().zip(paper_exp) {
        let mut points = Vec::new();
        print!("{:<16}", algo.to_string());
        for &n in ns {
            let mut worst = 0u64;
            let mut failures = 0usize;
            for seed in 0..geometries {
                let scenario = workload::symmetric_pair(n, 4, seed).expect("fits");
                let s = sweep_pair_ttr(*algo, n, &scenario, &cfg)
                    .unwrap_or_else(|e| panic!("{algo} failed at n={n}: {e}"));
                if algo.proven_asymmetric_guarantee() {
                    assert_eq!(s.failures, 0, "{algo} missed at n={n}");
                }
                if s.failures > 0 {
                    worst = worst.max(s.horizon);
                }
                failures += s.failures;
                worst = worst.max(s.summary.max);
            }
            if failures == 0 {
                points.push((n, worst));
            }
            if failures > 0 {
                print!("{:>10}", format!("≥{worst}"));
            } else {
                print!("{:>10}", worst);
            }
        }
        let e = growth_exponent(&points).unwrap_or(f64::NAN);
        println!("{:>9.2}  {}", e, paper);
    }
    println!();
    println!("reproduction check: ours+sym row is flat (O(1), ≤ 12 slots) at every n.");
}

/// E3 — the headline O(|A||B| log log n) scaling.
fn thm3_scaling(ctx: &Ctx) {
    header("E3: Theorem 3 scaling — max TTR vs |A||B| (n=256) and vs n (|A|=|B|=4)");
    let cfg = SweepConfig {
        shifts: if ctx.quick() { 64 } else { 512 },
        shift_stride: 19,
        spread_over_period: true,
        seeds: 1,
        horizon_override: 0,
        threads: 0,
    };
    println!(
        "{:<8}{:>8}{:>10}{:>12}{:>12}",
        "k=l", "k*l", "maxTTR", "TTR/(k*l)", "bound"
    );
    let ks: &[usize] = if ctx.quick() {
        &[2, 3, 4, 6]
    } else {
        &[2, 3, 4, 6, 8, 12]
    };
    for &k in ks {
        let n = 256u64;
        let scenario = workload::adversarial_overlap_one(n, k, k).expect("fits");
        let s = sweep_pair_ttr(Algorithm::Ours, n, &scenario, &cfg).expect("sweep");
        assert_eq!(s.failures, 0);
        let sched = GeneralSchedule::asynchronous(n, scenario.a.clone()).expect("valid");
        println!(
            "{:<8}{:>8}{:>10}{:>12.1}{:>12}",
            k,
            k * k,
            s.summary.max,
            s.summary.max as f64 / (k * k) as f64,
            sched.ttr_bound(k)
        );
    }
    println!();
    println!("{:<10}{:>10}{:>12}", "n", "maxTTR", "pair period");
    let ns: &[u64] = if ctx.quick() {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024, 4096]
    };
    for &n in ns {
        let scenario = workload::adversarial_overlap_one(n, 4, 4).expect("fits");
        let s = sweep_pair_ttr(Algorithm::Ours, n, &scenario, &cfg).expect("sweep");
        assert_eq!(s.failures, 0);
        let fam = PairFamily::new(n).expect("n ≥ 2");
        println!("{:<10}{:>10}{:>12}", n, s.summary.max, fam.period());
    }
    println!();
    println!("reproduction check: TTR/(k*l) column ~constant; TTR vs n grows only via the pair period (log log n).");
}

/// E7 — Theorem 1: the pair-schedule period is doubly logarithmic in n.
fn pair_loglog(ctx: &Ctx) {
    header("E7: Theorem 1 — pair schedule period and worst TTR vs n (k=2)");
    println!(
        "{:<22}{:>10}{:>12}{:>12}",
        "n", "period", "worst TTR", "log2 log2 n"
    );
    let ns: &[u64] = if ctx.quick() {
        &[4, 256, 65536]
    } else {
        &[4, 16, 256, 65536, 1 << 32, 1 << 62]
    };
    for &n in ns {
        let fam = PairFamily::new(n).expect("n ≥ 2");
        // Worst asynchronous TTR between the 2-path pair {1,2} vs {2,3}
        // over every relative shift — the configuration the Ramsey
        // coloring exists for.
        let sa = fam.schedule(1, 2).expect("pair");
        let sb = fam.schedule(2, 3).expect("pair");
        let worst = rdv_core::verify::worst_async_ttr_exhaustive(&sa, &sb, 4 * fam.period())
            .expect("pairs rendezvous");
        let loglog = (n.max(4) as f64).log2().log2();
        println!(
            "{:<22}{:>10}{:>12}{:>12.2}",
            format!("2^{}", 64 - n.leading_zeros() - 1),
            fam.period(),
            worst.ttr,
            loglog
        );
    }
    println!();
    println!("reproduction check: period grows ~4x while n grows 2^58x (log log n shape).");
}

/// E4–E6 — the paper's figures as ASCII.
fn figures() {
    header("E4: Figure 1 — walks and balanced strings");
    let fig1a: Bits = "11010".parse().expect("literal");
    let fig1b: Bits = "110001".parse().expect("literal");
    println!(
        "(a) the graph of 11010 ({}):",
        rdv_strings::render::describe(&fig1a)
    );
    print!("{}", rdv_strings::render::render_walk(&fig1a));
    println!();
    println!(
        "(b) the graph of 110001 ({}):",
        rdv_strings::render::describe(&fig1b)
    );
    print!("{}", rdv_strings::render::render_walk(&fig1b));

    header("E5: Figure 2 — a strictly Catalan codeword and a shift of it");
    let code = RCode::new(3);
    let word = code.encode(&Bits::encode_int(0b101, 3)).into_bits();
    println!("R(101) ({}):", rdv_strings::render::describe(&word));
    print!("{}", rdv_strings::render::render_walk(&word));
    println!();
    let shifted = word.cyclic_shift(5);
    println!("S^5 R(101) ({}):", rdv_strings::render::describe(&shifted));
    print!("{}", rdv_strings::render::render_walk(&shifted));

    header("E6: Figure 3 — the 2-maximality transform");
    let z: Bits = "110100".parse().expect("literal");
    print!("{}", rdv_strings::render::render_maximality_transform(&z));
}

/// E8 — exact small-n optima: the Ω(log log n) companion.
fn lb_exact(ctx: &Ctx) {
    header("E8: Theorem 4 companion — exact R_s(n,2) and cyclic R_a(n,2) by exhaustive search");
    let max_n_sync = if ctx.quick() { 8 } else { 10 };
    let max_n_cyc = 3; // n = 4 already needs a cyclic period > 6 (beyond the 2^6 domain)
    println!(
        "{:<6}{:>12}{:>16}{:>22}",
        "n", "R_s(n,2)", "cyclic R_a(n,2)", "Ramsey threshold m"
    );
    for n in 2..=max_n_sync {
        let rs = match exact::exact_rs_n2(n, 5, 1 << 26) {
            exact::SearchOutcome::Optimal(t) => t.to_string(),
            other => format!("{other:?}"),
        };
        let ra = if n <= max_n_cyc {
            match exact::exact_ra_n2_cyclic(n, 6, 1 << 26) {
                exact::SearchOutcome::Optimal(t) => t.to_string(),
                other => format!("{other:?}"),
            }
        } else {
            "-".to_string()
        };
        // Smallest palette size m with e·m! ≥ n (i.e. T = log2 m forced).
        let m = (1..=12u32)
            .find(|&m| rdv_ramsey::triangle::ramsey_triangle_threshold(m) >= n)
            .unwrap_or(12);
        println!("{:<6}{:>12}{:>16}{:>22}", n, rs, ra, m);
    }
    println!();
    println!("reproduction check: R_s grows with n (Theorem 4's Ω(log log n)); cyclic ≥ sync.");
}

/// E9 — Theorem 6 pigeonhole certificates.
fn lb_sync(ctx: &Ctx) {
    header("E9: Theorem 6 — pigeonhole certificates (R_s ≥ αk for concrete families)");
    let n = if ctx.quick() { 16 } else { 64 };
    println!(
        "{:<26}{:>4}{:>4}{:>18}",
        "family", "k", "α", "certified bound"
    );
    let round_robin = |set: &ChannelSet| {
        rdv_core::schedule::CyclicSchedule::new(set.iter().collect()).expect("non-empty")
    };
    for (k, alpha) in [(2usize, 2usize), (3, 2), (4, 2)] {
        match pigeonhole::certify(&round_robin, n, k, alpha) {
            Some(w) => println!(
                "{:<26}{:>4}{:>4}{:>18}",
                "round-robin", k, alpha, w.certified_bound
            ),
            None => println!(
                "{:<26}{:>4}{:>4}{:>18}",
                "round-robin", k, alpha, "no witness"
            ),
        }
    }
    let ours = |set: &ChannelSet| {
        rdv_core::general::GeneralSchedule::synchronous(n, set.clone()).expect("valid")
    };
    for (k, alpha) in [(2usize, 2usize), (3, 2)] {
        match pigeonhole::certify(&ours, n, k, alpha) {
            Some(w) => println!(
                "{:<26}{:>4}{:>4}{:>18}",
                "ours (sync, Thm 3)", k, alpha, w.certified_bound
            ),
            None => println!(
                "{:<26}{:>4}{:>4}{:>18}",
                "ours (sync, Thm 3)", k, alpha, "no witness"
            ),
        }
    }
    println!();
    println!("reproduction check: witnesses certify R_s ≥ αk, matching Theorem 6's pigeonhole.");
}

/// E10 — Theorem 7 density witnesses.
fn lb_async(ctx: &Ctx) {
    header("E10: Theorem 7 — Ω(kl) density witnesses against Theorem 3 schedules");
    let n = 24u64;
    println!(
        "{:<6}{:<6}{:>8}{:>10}{:>12}{:>14}",
        "k", "l", "k*l", "worstTTR", "TTR/(k*l)", "Thm3 bound"
    );
    let family = move |set: &ChannelSet| {
        rdv_core::general::GeneralSchedule::asynchronous(n, set.clone()).expect("valid")
    };
    let grid: &[(usize, usize)] = if ctx.quick() {
        &[(2, 2), (3, 3)]
    } else {
        &[(2, 2), (2, 4), (3, 3), (4, 4), (4, 6), (6, 6)]
    };
    for &(k, l) in grid {
        let w =
            density::worst_overlap_one_pair(&family, n, k, l, 1 << 22, 5, 128).expect("witness");
        let bound = family(&w.a).ttr_bound(l);
        println!(
            "{:<6}{:<6}{:>8}{:>10}{:>12.2}{:>14}",
            k,
            l,
            k * l,
            w.ttr,
            w.barrier_ratio,
            bound
        );
    }
    println!();
    println!("reproduction check: worst TTR ≥ Ω(k·l) (ratio column bounded below), and ≤ the O(kl loglog n) bound.");
}

/// E11/E12 — the beacon protocols.
fn beacon(ctx: &Ctx) {
    header("E11/E12: one-bit beacon — protocol A O(logn·(k+l)) vs protocol B O(k+l+logn)");
    let cfg = SweepConfig {
        shifts: 4,
        shift_stride: 9,
        spread_over_period: true,
        seeds: if ctx.quick() { 12 } else { 32 },
        horizon_override: 0,
        threads: 0,
    };
    println!("-- vs n (k = l = 4) --");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}",
        "n", "A p50", "A p95", "B p50", "B p95"
    );
    let ns: &[u64] = if ctx.quick() {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    for &n in ns {
        let scenario = workload::adversarial_overlap_one(n, 4, 4).expect("fits");
        let a = sweep_pair_ttr(Algorithm::BeaconA, n, &scenario, &cfg).expect("sweep A");
        let b = sweep_pair_ttr(Algorithm::BeaconB, n, &scenario, &cfg).expect("sweep B");
        println!(
            "{:<8}{:>12}{:>12}{:>12}{:>12}",
            n, a.summary.p50, a.summary.p95, b.summary.p50, b.summary.p95
        );
    }
    println!();
    println!("-- vs k (n = 256, l = k) --");
    println!("{:<8}{:>12}{:>12}", "k", "A p50", "B p50");
    let ks: &[usize] = if ctx.quick() { &[2, 8] } else { &[2, 4, 8, 16] };
    for &k in ks {
        let scenario = workload::adversarial_overlap_one(256, k, k).expect("fits");
        let a = sweep_pair_ttr(Algorithm::BeaconA, 256, &scenario, &cfg).expect("sweep A");
        let b = sweep_pair_ttr(Algorithm::BeaconB, 256, &scenario, &cfg).expect("sweep B");
        println!("{:<8}{:>12}{:>12}", k, a.summary.p50, b.summary.p50);
    }
    println!();
    println!("reproduction check: both grow mildly with k; B's dependence on n is additive, A's multiplicative.");
}
