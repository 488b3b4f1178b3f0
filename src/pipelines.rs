//! The artifact-emitting reproduction pipelines behind the `repro`
//! driver: [`table1`] (measured TTR vs proven upper bounds), [`lower`]
//! (the Section 4 lower-bound harnesses and the sandwich invariant), and
//! [`sdp`] (the appendix's one-round SDP relaxation) — all three sharing
//! the [`crate::report`] artifact schema and the shared-queue
//! orchestrator, so every artifact is bit-identical at any worker thread
//! count.
//!
//! The `table1` and `lower` pipelines measure the same (algorithm ×
//! timing × scenario × n) grid, walked by one private `grid` function;
//! each pipeline zips that grid with its sweep results to build its
//! JSON and markdown rows in one pass. Each grid is **one task-tree
//! submission** (`rdv_sim::sweep_pair_grid` / `sweep_lower_grid`): every
//! cell is a parent task, its `(shift × seed)` chunks are children, and
//! the chunks of *all* cells share one queue on one pool.
//!
//! Pipelines print nothing: the markdown artifact is their only
//! human-readable rendering, and `repro` echoes it to the console.
//!
//! Living in the library (not the `repro` binary) so the test suite can
//! run the pipelines in-process: `tests/repro_determinism.rs` executes
//! each one at 1 and 8 threads and asserts byte-identical JSON, the
//! `cargo test` twin of CI's artifact diff.

use crate::report::{self, Artifact, PipelineOutput, Tier};
use rdv_core::channel::ChannelSet;
use rdv_core::general::GeneralSchedule;
use rdv_core::symmetric::SymmetricWrapped;
use rdv_sim::sweep::{
    sweep_lower_grid, sweep_pair_grid, LowerCell, LowerSweepConfig, SweepCell, SweepConfig,
};
use rdv_sim::workload::{self, PairScenario};
use rdv_sim::{Algorithm, ParallelConfig};
use serde_json::Value;

/// Every algorithm the pipelines reproduce — the Table 1 rows plus the
/// randomized strawman and the two beacon protocols.
pub const PIPELINE_ALGOS: [Algorithm; 8] = [
    Algorithm::Ours,
    Algorithm::OursSymmetric,
    Algorithm::Crseq,
    Algorithm::JumpStay,
    Algorithm::Drds,
    Algorithm::Random,
    Algorithm::BeaconA,
    Algorithm::BeaconB,
];

/// The channel-set size of every measurement-grid scenario — shared (like
/// [`grid_dimensions`]) by the `table1` and `lower` pipelines and the
/// sandwich test suite so their cells line up one-to-one.
pub const GRID_K: usize = 4;

/// The universe ladder, shift count, and seed count of the measurement
/// grids at each tier — shared by the `table1` and `lower` pipelines so
/// their cells line up one-to-one.
pub fn grid_dimensions(tier: Tier) -> (&'static [u64], u64, u64) {
    match tier {
        Tier::Smoke => (&[8, 16], 16, 3),
        Tier::Full => (&[8, 16, 32, 64, 128], 256, 6),
    }
}

/// The pipeline grid's scenario for one (kind, n) cell: the Theorem 7
/// adversarial overlap-one pair, or the seed-0 symmetric pair.
pub fn grid_scenario(kind: &str, n: u64, k: usize) -> PairScenario {
    if kind == "asymmetric" {
        workload::adversarial_overlap_one(n, k, k).expect("n ≥ 2k−1")
    } else {
        workload::symmetric_pair(n, k, 0).expect("n ≥ k")
    }
}

/// The upper bound a pipeline cell is measured against: the slot count, a
/// label for the artifact, and whether the row is *gated* (a proven bound
/// whose violation fails the pipeline) or merely recorded.
pub fn cell_bound(algo: Algorithm, n: u64, scenario: &PairScenario) -> (u64, &'static str, bool) {
    let (k, ell) = (scenario.a.len(), scenario.b.len());
    match algo {
        Algorithm::Ours => {
            let s = GeneralSchedule::asynchronous(n, scenario.a.clone()).expect("valid scenario");
            (s.ttr_bound(ell), "Theorem 3: O(|A||B| log log n)", true)
        }
        Algorithm::OursSymmetric => {
            if scenario.a == scenario.b {
                (
                    SymmetricWrapped::<GeneralSchedule>::SYMMETRIC_TTR_BOUND,
                    "§3.2: O(1) symmetric",
                    true,
                )
            } else {
                let base =
                    GeneralSchedule::asynchronous(n, scenario.a.clone()).expect("valid scenario");
                (
                    rdv_core::symmetric::BLOWUP * base.ttr_bound(ell)
                        + 2 * rdv_core::symmetric::BLOWUP,
                    "§3.2 wrap: 12× Theorem 3 + O(1)",
                    true,
                )
            }
        }
        // The baseline reconstructions are faithful in period structure but
        // their paywalled proofs could not be transcribed (see
        // rdv-baselines); their generous guarantee horizons are recorded and
        // *reported* against, not gated.
        Algorithm::Crseq | Algorithm::JumpStay | Algorithm::Drds => (
            algo.horizon(n, k, ell),
            "guarantee horizon (reconstruction, empirical)",
            false,
        ),
        Algorithm::Random | Algorithm::BeaconA | Algorithm::BeaconB => {
            (algo.horizon(n, k, ell), "w.h.p. horizon (not gated)", false)
        }
        // The availability-aware family (arXiv 1506.00744 / 1506.01136)
        // carries no proven asymmetric guarantee at all in this
        // reconstruction — even fault-free, its rows are recorded against
        // the generous empirical horizon, never gated.
        Algorithm::Zos | Algorithm::AcsHopping => (
            algo.horizon(n, k, ell),
            "empirical horizon (availability-aware, not gated)",
            false,
        ),
    }
}

/// One cell of the measurement grid shared by `table1` and `lower`.
struct GridCell {
    algo: Algorithm,
    kind: &'static str,
    n: u64,
    timing: &'static str,
    scenario: PairScenario,
}

impl GridCell {
    /// The cell's artifact row id (see [`report::cell_id`]).
    fn id(&self) -> String {
        report::cell_id(&self.algo.to_string(), self.timing, self.kind, self.n)
    }
}

/// The measurement grid at `tier` in artifact row order (algorithm →
/// scenario kind → n → timing): the one loop nest behind both the
/// `table1` and `lower` grids, so their cells line up one-to-one.
fn grid(tier: Tier) -> Vec<GridCell> {
    let (ns, _, _) = grid_dimensions(tier);
    let mut cells = Vec::new();
    for algo in PIPELINE_ALGOS {
        for kind in ["asymmetric", "symmetric"] {
            for &n in ns {
                let scenario = grid_scenario(kind, n, GRID_K);
                for timing in ["sync", "async"] {
                    cells.push(GridCell {
                        algo,
                        kind,
                        n,
                        timing,
                        scenario: scenario.clone(),
                    });
                }
            }
        }
    }
    cells
}

/// One grid row as JSON: the sweep's own object plus the cell's `id`,
/// `timing` and `scenario` and the pipeline's `fields`.
fn row_json(
    cell: &GridCell,
    sweep_json: Value,
    fields: impl IntoIterator<Item = (&'static str, Value)>,
) -> Value {
    let Value::Object(mut m) = sweep_json else {
        unreachable!("sweep rows are JSON objects");
    };
    m.insert("id".to_string(), Value::from(cell.id()));
    m.insert("timing".to_string(), Value::from(cell.timing));
    m.insert("scenario".to_string(), Value::from(cell.kind));
    m.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(m)
}

/// The `table1` measurement grid as task-tree parents: the shared private
/// `grid` walk with each cell's sweep configuration, one [`SweepCell`]
/// per artifact row. Shared by [`table1::run`], the `BENCH_tree.json`
/// orchestration bench (`bench_report --suite tree`) and the
/// benchmark's `repro-smoke` probe, so all three submit the identical
/// tree.
pub fn table1_cells(tier: Tier, threads: usize) -> Vec<SweepCell> {
    let (_, shifts, seeds) = grid_dimensions(tier);
    grid(tier)
        .into_iter()
        .map(|cell| SweepCell {
            algorithm: cell.algo,
            n: cell.n,
            scenario: cell.scenario,
            cfg: SweepConfig {
                shifts: if cell.timing == "sync" { 1 } else { shifts },
                shift_stride: 13,
                spread_over_period: cell.timing == "async",
                seeds,
                horizon_override: 0,
                threads,
            },
        })
        .collect()
}

/// The Table 1 reproduction pipeline: all eight algorithms ×
/// sync/async × symmetric/asymmetric across a universe-size ladder, every
/// cell swept on the shared-queue orchestrator and its measured worst
/// case checked against the Theorem 3 / §3.2 bounds; plus Theorem 1's
/// pair-schedule period against n.
pub mod table1 {
    use super::*;
    use rdv_core::pair::PairFamily;
    use rdv_core::verify;
    use rdv_sim::stats::growth_exponent;

    /// Artifact file stem: the `repro` driver writes `REPRO_table1.{json,md}`
    /// and the history ledger records runs under it.
    pub const STEM: &str = "REPRO_table1";

    /// Theorem 1: the pair-schedule period is `O(log log n)`. For each n,
    /// the worst asynchronous TTR between the pairs `{1,2}` and `{2,3}`
    /// (the 2-path the Ramsey coloring exists for) over every relative
    /// shift, gated against the family's one-period bound. Adds the
    /// `pair_period` section and returns its markdown table rows.
    fn pair_period_section(artifact: &mut Artifact) -> String {
        let ns: &[u64] = match artifact.tier() {
            Tier::Smoke => &[4, 1 << 8, 1 << 16],
            Tier::Full => &[4, 1 << 4, 1 << 8, 1 << 16, 1 << 32, 1 << 62],
        };
        let (mut rows, mut md_rows) = (Vec::new(), String::new());
        for &n in ns {
            let fam = PairFamily::new(n).expect("n ≥ 2");
            let (period, bound) = (fam.period(), fam.ttr_bound());
            let sa = fam.schedule(1, 2).expect("1 < 2 ≤ n");
            let sb = fam.schedule(2, 3).expect("2 < 3 ≤ n");
            let horizon = 4 * period;
            // A shift that misses the horizon puts the worst case past it.
            let measured =
                verify::worst_async_ttr_exhaustive(&sa, &sb, horizon).map_or(horizon, |w| w.ttr);
            let ok = measured <= bound;
            if !ok {
                artifact.violation(format!(
                    "pair period n={n}: worst async TTR {measured} exceeds the Theorem 1 \
                     bound {bound} (one period)"
                ));
            }
            md_rows.push_str(&format!(
                "| {n} | {period} | {measured} | {bound} | {} |\n",
                if ok { "✓" } else { "✗" }
            ));
            rows.push(Value::object([
                ("id", Value::from(format!("pair_period/n={n}"))),
                ("n", Value::from(n)),
                ("period", Value::from(period)),
                ("measured", Value::from(measured)),
                ("bound", Value::from(bound)),
                ("bound_ok", Value::from(ok)),
            ]));
        }
        artifact.section("pair_period", Value::Array(rows));
        md_rows
    }

    /// Runs the pipeline at `tier` on `threads` workers (0 = auto) and
    /// returns the artifact pair; the caller writes and gates it.
    pub fn run(tier: Tier, threads: usize) -> PipelineOutput {
        let (ns, shifts, seeds) = grid_dimensions(tier);
        let k = GRID_K;
        // The grid is ONE task-tree submission: cells are parents, their
        // (shift × seed) chunks are children, and the chunks of all cells
        // are claimed from one shared queue.
        let cells = grid(tier);
        let sweeps = sweep_pair_grid(table1_cells(tier, threads), &ParallelConfig { threads });
        assert_eq!(sweeps.len(), cells.len());
        let mut artifact = Artifact::new("table1", tier);
        let (mut rows, mut curves, mut md_rows) = (Vec::new(), Vec::new(), String::new());
        // The async points of the current (algorithm, scenario) curve, and
        // the (n, measured) of those that missed no horizon: the fit
        // behind the curve's growth exponent.
        let (mut points, mut fit) = (Vec::new(), Vec::new());
        for (cell, sweep) in cells.iter().zip(sweeps) {
            let GridCell {
                algo,
                kind,
                n,
                timing,
                ..
            } = *cell;
            let sweep = sweep.unwrap_or_else(|e| panic!("pipeline cell {}: {e}", cell.id()));
            let (bound, bound_kind, gated) = cell_bound(algo, n, &cell.scenario);
            let (measured, failures, count) =
                (sweep.summary.max, sweep.failures, sweep.summary.count);
            let ok = failures == 0 && measured <= bound;
            if gated && !ok {
                artifact.violation(format!(
                    "{algo} ({timing}, {kind}, n={n}): max TTR {measured} vs bound \
                     {bound} ({failures} horizon misses)"
                ));
            }
            let ratio = measured as f64 / bound.max(1) as f64;
            md_rows.push_str(&format!(
                "| {algo} | {timing} | {kind} | {n} | {measured} | {bound} | {ratio:.3} \
                 | {count} | {failures} | {} |\n",
                if ok { "✓" } else { "✗" },
            ));
            rows.push(row_json(
                cell,
                sweep.to_json(),
                [
                    ("measured", Value::from(measured)),
                    ("bound", Value::from(bound)),
                    ("bound_kind", Value::from(bound_kind)),
                    ("gated", Value::from(gated)),
                    ("bound_ok", Value::from(ok)),
                ],
            ));
            if timing == "sync" {
                continue;
            }
            if failures == 0 {
                fit.push((n, measured));
            }
            points.push(Value::object([
                ("n", Value::from(n)),
                ("measured_max", Value::from(measured)),
                ("bound", Value::from(bound)),
            ]));
            // The async cell at the largest n closes its curve.
            if n == ns[ns.len() - 1] {
                curves.push(Value::object([
                    ("algorithm", Value::from(algo.to_string())),
                    ("scenario", Value::from(kind)),
                    ("timing", Value::from("async")),
                    ("points", Value::Array(std::mem::take(&mut points))),
                    // Rounded so a last-bit difference between platform
                    // `ln` implementations cannot change the artifact bytes.
                    (
                        "growth_exponent",
                        growth_exponent(&std::mem::take(&mut fit))
                            .map_or(Value::Null, |e| Value::from((e * 1e4).round() / 1e4)),
                    ),
                ]));
            }
        }

        artifact.section(
            "config",
            Value::object([
                (
                    "ns",
                    Value::Array(ns.iter().map(|&n| Value::from(n)).collect()),
                ),
                ("shifts", Value::from(shifts)),
                ("seeds", Value::from(seeds)),
                ("k", Value::from(k)),
            ]),
        );
        artifact.section("rows", Value::Array(rows));
        artifact.section("curves", Value::Array(curves));
        let md_pairs = pair_period_section(&mut artifact);

        let md = format!(
            "{}| algorithm | timing | scenario | n | max TTR | bound | max/bound | samples | misses | ok |\n\
             |---|---|---|---|---|---|---|---|---|---|\n\
             {md_rows}\n\
             Theorem 1: the pair-schedule period grows as `O(log log n)`. Worst async\n\
             TTR of the pairs {{1,2}} and {{2,3}} over every shift, gated against one period.\n\n\
             | n | period | worst TTR | bound | ok |\n\
             |---|---|---|---|---|\n\
             {md_pairs}\n\
             {}\n",
            artifact.preamble_markdown(
                "Paper reproduction — Table 1 comparison",
                "REPRO_table1",
                "Cells marked *gated* carry a proven bound\n\
                 (Theorem 3, §3.2); a gated ✗ fails the pipeline, and CI runs it on\n\
                 every push.",
            ),
            artifact.verdict_markdown()
        );
        artifact.finish(md)
    }
}

/// The lower-bound pipeline: the Section 4 harnesses (covering/density,
/// exact small-case, pigeonhole, Ramsey bridge) wired into the same grid
/// and artifact schema as `table1`, checking the *sandwich invariant*
/// `certified lower ≤ measured ≤ proven upper` on every gridded cell.
pub mod lower {
    use super::*;
    use rdv_lower::{density, exact, pigeonhole, ramsey_bridge};

    /// Artifact file stem (see [`super::table1::STEM`]).
    pub const STEM: &str = "REPRO_lower";

    /// Exhaustive-shift cap and sampled-shift count per tier.
    fn shift_dimensions(tier: Tier) -> (u64, u64) {
        match tier {
            Tier::Smoke => (256, 16),
            Tier::Full => (4096, 256),
        }
    }

    /// The measurement grid: one lower-bound cell per `table1` cell, the
    /// whole grid one task-tree submission (cells are parents, shift
    /// chunks are children, load balancing crosses cells). Returns the
    /// artifact rows and their markdown table rows.
    fn grid_cells(artifact: &mut Artifact, threads: usize) -> (Vec<Value>, String) {
        let (max_exhaustive, sampled) = shift_dimensions(artifact.tier());
        let cells = grid(artifact.tier());
        let lower_cells = cells
            .iter()
            .map(|cell| LowerCell {
                algorithm: cell.algo,
                n: cell.n,
                scenario: cell.scenario.clone(),
                cfg: LowerSweepConfig {
                    sync: cell.timing == "sync",
                    max_exhaustive_shifts: max_exhaustive,
                    sampled_shifts: sampled,
                    horizon_override: 0,
                    threads,
                },
            })
            .collect();
        let swept = sweep_lower_grid(lower_cells, &ParallelConfig { threads });
        assert_eq!(swept.len(), cells.len());
        let (mut rows, mut md_rows) = (Vec::new(), String::new());
        for (cell, swept) in cells.iter().zip(swept) {
            let GridCell {
                algo,
                kind,
                n,
                timing,
                ..
            } = *cell;
            let swept = swept.unwrap_or_else(|e| panic!("lower cell {}: {e}", cell.id()));
            let (upper, upper_kind, gated) = cell_bound(algo, n, &cell.scenario);
            let (lower, measured, failures) =
                (swept.certified_bound, swept.witness_ttr, swept.failures);
            let lower_ok = swept.lower_slice_ok();
            let upper_ok = failures == 0 && measured <= upper;
            let ok = lower_ok && (!gated || upper_ok);
            if !lower_ok {
                artifact.violation(format!(
                    "{algo} ({timing}, {kind}, n={n}): certified lower bound {lower} \
                     exceeds the exhaustively measured worst case {measured}"
                ));
            }
            if gated && !upper_ok {
                artifact.violation(format!(
                    "{algo} ({timing}, {kind}, n={n}): measured {measured} vs upper \
                     bound {upper} ({failures} horizon misses)"
                ));
            }
            md_rows.push_str(&format!(
                "| {} | {lower} | {measured} | {upper} | {} | {} |\n",
                cell.id(),
                if swept.exhaustive {
                    "exhaustive"
                } else {
                    "sampled"
                },
                if ok { "✓" } else { "✗" },
            ));
            rows.push(row_json(
                cell,
                swept.to_json(),
                [
                    ("bound", Value::from(upper)),
                    ("bound_kind", Value::from(upper_kind)),
                    ("gated", Value::from(gated)),
                    ("sandwich_ok", Value::from(ok)),
                ],
            ));
        }
        (rows, md_rows)
    }

    /// Exact `R_s(n,2)` / cyclic `R_a(n,2)` optima by exhaustive search —
    /// Theorem 4's empirical companion, gated on monotone growth.
    fn exact_section(artifact: &mut Artifact) -> Vec<Value> {
        let (max_n_sync, budget) = match artifact.tier() {
            Tier::Smoke => (5u64, 1u64 << 22),
            Tier::Full => (8, 1 << 26),
        };
        let max_n_cyclic = 3; // n = 4 already needs a cyclic period > 2^6
        let mut rows = Vec::new();
        let mut last_optimal = 0u32;
        for n in 2..=max_n_sync {
            let outcome_str = |o: exact::SearchOutcome| match o {
                exact::SearchOutcome::Optimal(t) => t.to_string(),
                other => format!("{other:?}"),
            };
            let rs = exact::exact_rs_n2(n, 5, budget);
            if let exact::SearchOutcome::Optimal(t) = rs {
                if t < last_optimal {
                    artifact.violation(format!(
                        "exact R_s({n},2) = {t} dropped below R_s({},2) = {last_optimal} — \
                         Theorem 4 demands monotone growth",
                        n - 1
                    ));
                }
                last_optimal = t;
            }
            let ra = if n <= max_n_cyclic {
                Some(exact::exact_ra_n2_cyclic(n, 6, budget))
            } else {
                None
            };
            rows.push(Value::object([
                ("id", Value::from(format!("exact/rs/n={n}"))),
                ("n", Value::from(n)),
                ("rs", Value::from(outcome_str(rs))),
                (
                    "ra_cyclic",
                    ra.map_or(Value::Null, |o| Value::from(outcome_str(o))),
                ),
            ]));
        }
        rows
    }

    /// Theorem 6 pigeonhole certificates against concrete families; the
    /// deliberately weak round-robin family must be certified slow.
    fn pigeonhole_section(artifact: &mut Artifact) -> Vec<Value> {
        let n = match artifact.tier() {
            Tier::Smoke => 16u64,
            Tier::Full => 64,
        };
        let mut rows = Vec::new();
        let round_robin = |set: &ChannelSet| {
            rdv_core::schedule::CyclicSchedule::new(set.iter().collect()).expect("non-empty")
        };
        let ours =
            |set: &ChannelSet| GeneralSchedule::synchronous(n, set.clone()).expect("valid set");
        let mut run_family = |name: &str, grid: &[(usize, usize)], is_round_robin: bool| {
            for &(k, alpha) in grid {
                let witness = if is_round_robin {
                    pigeonhole::certify(&round_robin, n, k, alpha)
                } else {
                    pigeonhole::certify(&ours, n, k, alpha)
                };
                let certified = witness.as_ref().map(|w| w.certified_bound);
                if is_round_robin && witness.is_none() {
                    artifact.violation(format!(
                        "pigeonhole: round-robin family dodged the k={k}, α={alpha} witness at \
                         n={n} — the construction must certify it"
                    ));
                }
                rows.push(Value::object([
                    (
                        "id",
                        Value::from(format!("pigeonhole/{name}/k={k}/alpha={alpha}")),
                    ),
                    ("family", Value::from(name.to_string())),
                    ("n", Value::from(n)),
                    ("k", Value::from(k)),
                    ("alpha", Value::from(alpha)),
                    ("certified", certified.map_or(Value::Null, Value::from)),
                    (
                        "s_hat",
                        witness.map_or(Value::Null, |w| {
                            Value::Array(
                                w.s_hat.as_slice().iter().map(|&c| Value::from(c)).collect(),
                            )
                        }),
                    ),
                ]));
            }
        };
        run_family("round-robin", &[(2, 2), (3, 2), (4, 2)], true);
        run_family("ours-sync", &[(2, 2), (3, 2)], false);
        rows
    }

    /// Theorem 7 density witnesses against the paper's construction:
    /// worst overlap-one pairs must sit between the `Ω(kℓ)` barrier and
    /// the Theorem 3 bound.
    fn density_section(artifact: &mut Artifact) -> Vec<Value> {
        let n = 24u64;
        let grid: &[(usize, usize)] = match artifact.tier() {
            Tier::Smoke => &[(2, 2), (3, 3)],
            Tier::Full => &[(2, 2), (2, 4), (3, 3), (4, 4), (4, 6), (6, 6)],
        };
        let family =
            move |set: &ChannelSet| GeneralSchedule::asynchronous(n, set.clone()).expect("valid");
        let mut rows = Vec::new();
        for &(k, l) in grid {
            let w = density::worst_overlap_one_pair(&family, n, k, l, 1 << 22, 5, 128)
                .expect("witness");
            let bound = family(&w.a).ttr_bound(l);
            if w.ttr > bound {
                artifact.violation(format!(
                    "density witness k={k}, l={l}: TTR {} exceeds the Theorem 3 bound {bound}",
                    w.ttr
                ));
            }
            rows.push(Value::object([
                ("id", Value::from(format!("density/k={k}/l={l}"))),
                ("n", Value::from(n)),
                ("k", Value::from(k)),
                ("ell", Value::from(l)),
                ("measured", Value::from(w.ttr)),
                ("bound", Value::from(bound)),
                ("witness_shift", Value::from(w.shift)),
                ("barrier_ratio", Value::from(w.barrier_ratio)),
                ("h", Value::from(w.h)),
            ]));
        }
        rows
    }

    /// Theorem 4's Ramsey attack: the oblivious alternation family must
    /// produce a verified monochromatic 2-path certificate; the paper's
    /// pair family must survive the attack at its full period.
    fn ramsey_section(artifact: &mut Artifact) -> Vec<Value> {
        let mut rows = Vec::new();
        // The family Theorem 4 demolishes: every pair alternates.
        let oblivious = |a: u64, b: u64| {
            rdv_core::schedule::CyclicSchedule::new(vec![
                rdv_core::channel::Channel::new(a),
                rdv_core::channel::Channel::new(b),
            ])
            .expect("non-empty")
        };
        let horizon = 8u64;
        let attack = ramsey_bridge::monochromatic_failure(&oblivious, 4, horizon);
        let verified = attack
            .as_ref()
            .is_some_and(|w| ramsey_bridge::verify_failure(&oblivious, w, horizon));
        if !verified {
            artifact.violation(
                "ramsey: the oblivious family escaped the Theorem 4 attack it cannot escape"
                    .to_string(),
            );
        }
        rows.push(Value::object([
            ("id", Value::from("ramsey/oblivious/n=4")),
            ("family", Value::from("oblivious")),
            ("n", Value::from(4u64)),
            ("horizon", Value::from(horizon)),
            ("witness_verified", Value::from(verified)),
        ]));
        let ns: &[u64] = match artifact.tier() {
            Tier::Smoke => &[4, 8],
            Tier::Full => &[4, 8, 16, 32],
        };
        for &n in ns {
            let fam = rdv_core::pair::PairFamily::new(n).expect("n ≥ 2");
            let period = fam.period();
            let family = move |a: u64, b: u64| fam.schedule(a, b).expect("valid pair");
            let attack = ramsey_bridge::monochromatic_failure(&family, n, period);
            let survived = match &attack {
                None => true,
                Some(w) => !ramsey_bridge::verify_failure(&family, w, period),
            };
            if !survived {
                artifact.violation(format!(
                    "ramsey: a Theorem 4 witness verified against the paper's pair family at n={n}"
                ));
            }
            rows.push(Value::object([
                ("id", Value::from(format!("ramsey/pair-family/n={n}"))),
                ("family", Value::from("pair-family")),
                ("n", Value::from(n)),
                ("horizon", Value::from(period)),
                ("survives", Value::from(survived)),
            ]));
        }
        rows
    }

    /// Runs the pipeline at `tier` on `threads` workers (0 = auto) and
    /// returns the artifact pair; the caller writes and gates it.
    pub fn run(tier: Tier, threads: usize) -> PipelineOutput {
        let (ns, _, _) = grid_dimensions(tier);
        let (max_exhaustive, sampled) = shift_dimensions(tier);
        let mut artifact = Artifact::new("lower", tier);
        artifact.section(
            "config",
            Value::object([
                (
                    "ns",
                    Value::Array(ns.iter().map(|&n| Value::from(n)).collect()),
                ),
                ("max_exhaustive_shifts", Value::from(max_exhaustive)),
                ("sampled_shifts", Value::from(sampled)),
                ("k", Value::from(GRID_K)),
            ]),
        );
        let (cells, md_rows) = grid_cells(&mut artifact, threads);
        let exact = exact_section(&mut artifact);
        let pigeonhole = pigeonhole_section(&mut artifact);
        let density = density_section(&mut artifact);
        let ramsey = ramsey_section(&mut artifact);
        artifact.section("cells", Value::Array(cells));
        artifact.section("exact", Value::Array(exact));
        artifact.section("pigeonhole", Value::Array(pigeonhole));
        artifact.section("density", Value::Array(density));
        artifact.section("ramsey", Value::Array(ramsey));

        let md = format!(
            "{}Every gridded cell checks the **sandwich invariant**\n\
             `certified lower ≤ measured worst TTR ≤ proven upper bound`: the lower\n\
             slice is the Theorem 7 covering bound (certified only on cells whose\n\
             shift sweep is exhaustive), the upper slice the Theorem 3 / §3.2 bound\n\
             on gated rows. The artifact also carries the exact `R_s(n,2)` optima\n\
             (Theorem 4), pigeonhole certificates (Theorem 6), density witnesses\n\
             (Theorem 7), and the Ramsey-bridge attack (Theorem 4).\n\n\
             | cell | lower | measured | upper | shifts | sandwich |\n\
             |---|---|---|---|---|---|\n\
             {md_rows}\n\
             {}\n",
            artifact.preamble_markdown(
                "Paper reproduction — Section 4 lower bounds",
                "REPRO_lower",
                "A sandwich violation on any cell, or a failed Theorem 4/6/7\n\
                 certificate, fails the pipeline.",
            ),
            artifact.verdict_markdown()
        );
        artifact.finish(md)
    }
}

/// The SDP pipeline: the appendix's one-round 0.439-approximation,
/// re-solved on the named graph families plus seeded random instances,
/// with exact optima and the 0.25 random baseline — instances sharded
/// onto the shared-queue orchestrator.
pub mod sdp {
    use super::*;
    use rdv_sdp::{exact_max_in_pairs, random_orientation_value, solve, OrientGraph, SdpConfig};
    use rdv_sim::{pool, ParallelConfig};

    /// Artifact file stem (see [`super::table1::STEM`]).
    pub const STEM: &str = "REPRO_sdp";

    /// The appendix's approximation guarantee: `0.878 / 2`.
    pub const GUARANTEE: f64 = 0.439;

    /// The instance families at `tier`: stable-named small graphs plus
    /// seeded random multigraphs (more of them at bigger tiers).
    fn instances(tier: Tier) -> Vec<(String, OrientGraph)> {
        let mut out: Vec<(String, OrientGraph)> = vec![
            (
                "star-6".into(),
                OrientGraph::new(7, (1..=6).map(|v| (v, 0)).collect()).expect("valid"),
            ),
            (
                "cycle-7".into(),
                OrientGraph::new(7, (0..7).map(|i| (i, (i + 1) % 7)).collect()).expect("valid"),
            ),
            (
                "K4".into(),
                OrientGraph::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
                    .expect("valid"),
            ),
            (
                "path-6".into(),
                OrientGraph::new(6, (0..5).map(|i| (i, i + 1)).collect()).expect("valid"),
            ),
        ];
        let extra = match tier {
            Tier::Smoke => 2,
            Tier::Full => 6,
        };
        for i in 0..extra {
            out.push((
                format!("random-{i}"),
                OrientGraph::seeded_random(1000 + i, 5..9, 6..13),
            ));
        }
        out
    }

    /// Runs the pipeline at `tier` on `threads` workers (0 = auto) and
    /// returns the artifact pair; the caller writes and gates it.
    pub fn run(tier: Tier, threads: usize) -> PipelineOutput {
        let mut artifact = Artifact::new("sdp", tier);
        let instances = instances(tier);
        artifact.section(
            "config",
            Value::object([
                ("instances", Value::from(instances.len())),
                ("guarantee", Value::from(GUARANTEE)),
                (
                    "solver",
                    Value::from("Burer–Monteiro projected gradient + hyperplane rounding"),
                ),
            ]),
        );
        // One task per instance on the orchestrator; results merge back in
        // instance order, so the artifact is thread-count invariant.
        let solved: Vec<(usize, f64, usize, usize, f64, usize)> = pool::run_indexed(
            instances.iter().map(|(_, g)| g).collect(),
            &ParallelConfig { threads },
            |_idx, g| {
                let opt = exact_max_in_pairs(g);
                let res = solve(g, &SdpConfig::default());
                let (rand_expected, rand_best) = random_orientation_value(g, 64, 7);
                (
                    opt,
                    res.sdp_value,
                    res.in_pairs,
                    res.in_plus_out,
                    rand_expected,
                    rand_best,
                )
            },
        );

        let mut rows = Vec::new();
        let mut md_rows = String::new();
        let mut min_ratio = f64::INFINITY;
        for ((name, g), (opt, sdp_value, in_pairs, in_plus_out, rand_expected, rand_best)) in
            instances.iter().zip(solved)
        {
            let ratio = if opt > 0 {
                in_pairs as f64 / opt as f64
            } else {
                1.0
            };
            let ok = ratio >= GUARANTEE;
            min_ratio = min_ratio.min(ratio);
            if !ok {
                artifact.violation(format!(
                    "sdp {name}: rounded {in_pairs} in-pairs vs optimum {opt} \
                     (ratio {ratio:.3} < {GUARANTEE})"
                ));
            }
            if sdp_value + 1e-6 < opt as f64 * 0.99 {
                artifact.violation(format!(
                    "sdp {name}: relaxation value {sdp_value:.3} sits below the integral \
                     optimum {opt} — the ascent failed to converge"
                ));
            }
            md_rows.push_str(&format!(
                "| {name} | {} | {} | {opt} | {sdp_value:.3} | {in_pairs} | {rand_expected:.2} | \
                 {ratio:.3} | {} |\n",
                g.n_vertices(),
                g.n_edges(),
                if ok { "✓" } else { "✗" },
            ));
            rows.push(Value::object([
                ("id", Value::from(format!("sdp/{name}"))),
                ("instance", Value::from(name.to_string())),
                ("vertices", Value::from(g.n_vertices())),
                ("edges", Value::from(g.n_edges())),
                ("measured", Value::from(in_pairs)),
                ("bound", Value::from(opt)),
                ("sdp_value", Value::from(sdp_value)),
                ("in_plus_out", Value::from(in_plus_out)),
                ("random_expected", Value::from(rand_expected)),
                ("random_best", Value::from(rand_best)),
                ("ratio", Value::from(ratio)),
                ("ratio_ok", Value::from(ok)),
            ]));
        }
        artifact.section("rows", Value::Array(rows));
        artifact.section("min_ratio", Value::from(min_ratio));

        let md = format!(
            "{}For every instance the pipeline compares the exact optimum (exhaustive\n\
             over all orientations), the SDP relaxation value, the hyperplane-rounded\n\
             orientation (with the flip trick), and the 0.25 random baseline. Here\n\
             `measured` is the rounded in-pair count and `bound` the exact optimum,\n\
             so the trend headroom tracks how much rounding leaves on the table.\n\n\
             | instance | vertices | edges | exact | sdp value | rounded | rand E | ratio | ok |\n\
             |---|---|---|---|---|---|---|---|---|\n\
             {md_rows}\n\
             {}\n",
            artifact.preamble_markdown(
                "Paper reproduction — appendix one-round SDP",
                "REPRO_sdp",
                "A rounded orientation below the 0.439 guarantee, or a relaxation\n\
                 value below the integral optimum, fails the pipeline.",
            ),
            artifact.verdict_markdown()
        );
        artifact.finish(md)
    }
}

/// The fault-injection pipeline behind `repro table1 --faults <profile>`:
/// the arena engine re-run over clustered multi-agent populations with a
/// deterministic [`rdv_sim::FaultPlan`] sweeping outage-rate × churn-rate
/// axes — genuinely new cells under degraded spectra. Every cell is
/// panic-quarantined: a failing cell degrades the artifact (row-id-sorted
/// `failed_cells` section, distinct exit code) instead of killing the
/// grid.
pub mod faults {
    use super::*;
    use crate::report::FailedCell;
    use rdv_sim::engine::{EngineConfig, MissCause, Simulation};
    use rdv_sim::{pool, FaultPlan, FaultProfile};

    /// Artifact file stem (see [`super::table1::STEM`]).
    pub const STEM: &str = "REPRO_table1_faults";

    /// The deterministic base seed every cell seed is streamed from.
    pub const PIPELINE_SEED: u64 = 0xFA01_7ED5;

    /// The channel universe and per-agent set size of every fault cell.
    const UNIVERSE: u64 = 32;
    const SET_K: usize = 4;
    /// Wake staggering window of the clustered populations.
    const MAX_WAKE: u64 = 128;

    /// The algorithms the fault axes sweep: the four oblivious Table 1
    /// rows, then the availability-aware family — the algorithms actually
    /// designed for a faulted spectrum, whose schedules consult the
    /// plan's sensed channel sets (arXiv 1506.00744 / 1506.01136).
    pub const FAULT_ALGOS: [Algorithm; 6] = [
        Algorithm::Crseq,
        Algorithm::JumpStay,
        Algorithm::Drds,
        Algorithm::Ours,
        Algorithm::Zos,
        Algorithm::AcsHopping,
    ];

    /// The cell (a position in grid, i.e. artifact row, order) a sabotaged
    /// run panics in. Fixed, so the degraded artifact — and CI's
    /// exit-code check against it — is deterministic.
    const POISON_CELL: usize = 1;

    /// One cell of the fault grid.
    struct FaultCell {
        algo: Algorithm,
        outage_per_mille: u16,
        churn_per_mille: u16,
        agents: usize,
        seed: u64,
        id: String,
    }

    /// Population sizes and horizon per tier.
    fn fault_dimensions(tier: Tier) -> (&'static [usize], u64) {
        match tier {
            Tier::Smoke => (&[16], 4_096),
            Tier::Full => (&[16, 32, 64], 16_384),
        }
    }

    /// The fault grid in artifact row order (algorithm → fault axis →
    /// population size): the profile's outage/churn rates are swept as
    /// the axes `(0,0)`, `(o,0)`, `(0,c)`, `(o,c)`, so every artifact
    /// contains its own fault-free control rows. The population seed
    /// depends only on (algorithm, population size) — the four axis rows
    /// of one (algorithm, size) pair run the *same* agents under
    /// different fault plans, so `met` degrades against a fixed control.
    fn cells(tier: Tier, profile: &FaultProfile) -> Vec<FaultCell> {
        let (counts, _) = fault_dimensions(tier);
        let (o, c) = (profile.outage_per_mille, profile.churn_per_mille);
        let axes = [(0, 0), (o, 0), (0, c), (o, c)];
        let mut out = Vec::new();
        for (algo_idx, algo) in FAULT_ALGOS.into_iter().enumerate() {
            for (outage, churn) in axes {
                for (count_idx, &agents) in counts.iter().enumerate() {
                    let population = (algo_idx * counts.len() + count_idx) as u64;
                    out.push(FaultCell {
                        algo,
                        outage_per_mille: outage,
                        churn_per_mille: churn,
                        agents,
                        seed: pool::stream_seed(PIPELINE_SEED, population),
                        id: report::cell_id(
                            &algo.to_string(),
                            "async",
                            &format!("faults[o={outage},c={churn}]"),
                            agents as u64,
                        ),
                    });
                }
            }
        }
        out
    }

    /// Evaluates one cell: build the clustered population and run the
    /// arena engine twice — fault-free control and faulted — recording how
    /// gracefully rendezvous degrades. Cells run single-threaded inside the
    /// quarantined grid; the engine's own determinism contract makes the
    /// rows thread-count invariant.
    fn eval_cell(cell: &FaultCell, profile: &FaultProfile, horizon: u64) -> Value {
        let plan = FaultPlan::new(
            pool::stream_seed(cell.seed, 1),
            profile.epoch_slots,
            cell.outage_per_mille,
            cell.churn_per_mille,
            horizon,
        );
        let sim = Simulation::new(workload::clustered_agents(
            cell.algo,
            UNIVERSE,
            SET_K,
            cell.agents,
            cell.seed,
            MAX_WAKE,
        ));
        let clean_cfg = EngineConfig {
            parallel: ParallelConfig::with_threads(1),
            ..EngineConfig::default()
        };
        let clean = sim.run_engine(horizon, &clean_cfg);
        // The faulted twin: availability-aware algorithms sense the plan,
        // so their faulted population is *rebuilt* with the plan threaded
        // into every AgentCtx (same channel sets and wakes — the clean
        // run above stays their fault-free control); oblivious algorithms
        // run the very same agents under the plan's masks.
        let faulted_sim = if cell.algo.availability_aware() {
            Simulation::new(workload::clustered_agents_with_faults(
                cell.algo,
                UNIVERSE,
                SET_K,
                cell.agents,
                cell.seed,
                MAX_WAKE,
                Some(plan),
            ))
        } else {
            sim
        };
        let faulted = faulted_sim.run_engine(
            horizon,
            &EngineConfig {
                faults: Some(plan),
                ..clean_cfg
            },
        );
        let pairs = faulted.first_meeting.len() + faulted.missed.len();
        let worst_ttr = faulted
            .first_meeting
            .iter()
            .filter_map(|((i, j), _)| faulted.ttr(i, j, faulted_sim.agents()))
            .max()
            .unwrap_or(0);
        Value::object([
            ("id", Value::from(cell.id.clone())),
            ("algorithm", Value::from(cell.algo.to_string())),
            (
                "availability_aware",
                Value::from(cell.algo.availability_aware()),
            ),
            (
                "outage_per_mille",
                Value::from(u64::from(cell.outage_per_mille)),
            ),
            (
                "churn_per_mille",
                Value::from(u64::from(cell.churn_per_mille)),
            ),
            ("agents", Value::from(cell.agents)),
            // Full 64-bit stream seed; hex string because the JSON shim's
            // number domain is f64 (exact only below 2^53).
            ("seed", Value::from(format!("{:#018x}", cell.seed))),
            ("overlapping_pairs", Value::from(pairs)),
            ("met", Value::from(faulted.first_meeting.len())),
            ("met_clean", Value::from(clean.first_meeting.len())),
            (
                "missed_horizon",
                Value::from(faulted.missed_with_cause(MissCause::HorizonExhausted)),
            ),
            (
                "departed",
                Value::from(faulted.missed_with_cause(MissCause::Departed)),
            ),
            ("measured", Value::from(worst_ttr)),
            ("bound", Value::from(horizon)),
            ("bound_kind", Value::from("run horizon (not gated)")),
            ("gated", Value::from(false)),
        ])
    }

    /// Runs the pipeline at `tier` on `threads` workers (0 = auto) and
    /// returns the artifact pair; the caller writes it and maps a
    /// non-empty `failed_cells` to the degraded exit code. With `sabotage`
    /// (CI and the degradation tests; `false` for real runs) cell 1
    /// deliberately panics, exercising the panic quarantine end to end.
    pub fn run(
        tier: Tier,
        threads: usize,
        profile: &FaultProfile,
        sabotage: bool,
    ) -> PipelineOutput {
        let (_, horizon) = fault_dimensions(tier);
        let grid = cells(tier, profile);
        let mut artifact = Artifact::new("table1_faults", tier);
        artifact.track_failed_cells();
        artifact.section(
            "config",
            Value::object([
                ("profile", Value::from(profile.name)),
                ("epoch_slots", Value::from(profile.epoch_slots)),
                (
                    "outage_per_mille",
                    Value::from(u64::from(profile.outage_per_mille)),
                ),
                (
                    "churn_per_mille",
                    Value::from(u64::from(profile.churn_per_mille)),
                ),
                ("universe", Value::from(UNIVERSE)),
                ("k", Value::from(SET_K)),
                ("horizon", Value::from(horizon)),
                ("max_wake", Value::from(MAX_WAKE)),
                ("base_seed", Value::from(PIPELINE_SEED)),
            ]),
        );
        // A panicking cell is recorded and released, never propagated.
        let results = pool::run_indexed(
            grid.iter().collect(),
            &ParallelConfig { threads },
            |idx, cell| {
                pool::quarantine(|| {
                    if sabotage && idx == POISON_CELL {
                        panic!("deliberately poisoned cell: {}", cell.id);
                    }
                    eval_cell(cell, profile, horizon)
                })
            },
        );
        let mut rows = Vec::new();
        let mut md_rows = String::new();
        for (cell, result) in grid.iter().zip(results) {
            let row = match result {
                Ok(row) => row,
                Err(panic) => {
                    artifact.failed_cell(FailedCell {
                        id: cell.id.clone(),
                        cause: panic.to_string(),
                        seed: cell.seed,
                    });
                    continue;
                }
            };
            let get = |key: &str| row.get(key).and_then(Value::as_u64).unwrap_or(0);
            md_rows.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                cell.algo,
                cell.outage_per_mille,
                cell.churn_per_mille,
                cell.agents,
                get("overlapping_pairs"),
                get("met"),
                get("met_clean"),
                get("missed_horizon"),
                get("departed"),
                get("measured"),
            ));
            rows.push(row);
        }
        artifact.section("rows", Value::Array(rows));

        let failed_md = artifact.failed_cells_markdown();
        let tier_name = tier.name();
        let profile_name = profile.name;
        let md = format!(
            "# Fault injection — Table 1 algorithms under channel outages & agent churn \
             (tier: {tier_name})\n\n\
             Regenerate with `cargo run --release --bin repro -- --{tier_name} table1 \
             --faults {profile_name}`. Machine-readable twin:\n\
             `REPRO_table1_faults.json`. Rows are *recorded*, not gated — the paper's\n\
             bounds assume a fault-free spectrum, so under faults the interesting\n\
             quantity is how gracefully rendezvous degrades (`met` vs `met_clean`,\n\
             and `departed` misses no horizon could fix).\n\n\
             Faults are drawn from seeded SplitMix64 streams (profile '{profile_name}':\n\
             epoch {epoch} slots, outage {o}‰, churn {c}‰) and sweeps ran on the\n\
             quarantined shared-queue orchestrator; results (and this file) are\n\
             bit-identical at any worker thread count.\n\n\
             | algorithm | outage ‰ | churn ‰ | agents | pairs | met | met clean | \
             missed@horizon | departed | worst TTR |\n\
             |---|---|---|---|---|---|---|---|---|---|\n\
             {md_rows}\n\
             {failed_md}",
            epoch = profile.epoch_slots,
            o = profile.outage_per_mille,
            c = profile.churn_per_mille,
        );
        artifact.finish(md)
    }
}
