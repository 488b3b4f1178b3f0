//! The `repro-smoke` workload: the `table1`, `lower` and `sdp` artifact
//! pipelines at the smoke tier, in-process. Every operation's artifacts
//! must be byte-identical to the committed `REPRO_*.json` files and
//! record no violation. The seed is ignored: the pipelines are fixed.
//!
//! The traced probe calls, with the pipelines' own smoke arguments, each
//! layer they run: the two measurement-grid sweeps, the four Section 4
//! lower-bound harnesses and the SDP solver. Pipeline wall time minus
//! those calls is the harness (report rendering, JSON, printing).

use crate::trace::Tracer;
use crate::{Counts, OpSample, Quality, Workload};
use blind_rendezvous::pipelines::{
    grid_dimensions, grid_scenario, lower, sdp, table1, table1_cells, GRID_K, PIPELINE_ALGOS,
};
use blind_rendezvous::report::{PipelineOutput, Tier};
use rdv_core::channel::{Channel, ChannelSet};
use rdv_core::general::GeneralSchedule;
use rdv_core::pair::PairFamily;
use rdv_core::schedule::CyclicSchedule;
use rdv_lower::{density, exact, pigeonhole, ramsey_bridge};
use rdv_sdp::{exact_max_in_pairs, random_orientation_value, solve, OrientGraph, SdpConfig};
use rdv_sim::sweep::{sweep_lower_grid, sweep_pair_grid, LowerCell, LowerSweepConfig};
use rdv_sim::ParallelConfig;
use serde_json::Value;
use std::hint::black_box;
use std::panic::catch_unwind;
use std::time::Instant;

/// The pipeline spans of one operation.
pub const PIPELINES: [&str; 3] = ["pipelines.table1", "pipelines.lower", "pipelines.sdp"];

/// The layer spans of the probe that the pipelines' wall time covers.
pub const PIPELINE_LAYERS: [&str; 7] = [
    "sweep.table1_grid",
    "sweep.lower_grid",
    "lower.density",
    "lower.exact",
    "lower.pigeonhole",
    "lower.ramsey",
    "sdp.solve",
];

/// Per-layer metrics that are a span's median self time.
pub const SPAN_METRICS: [(&str, &str); 10] = [
    ("sweep.table1_grid_s", "sweep.table1_grid"),
    ("sweep.lower_grid_s", "sweep.lower_grid"),
    ("lower.density_s", "lower.density"),
    ("lower.exact_s", "lower.exact"),
    ("lower.pigeonhole_s", "lower.pigeonhole"),
    ("lower.ramsey_s", "lower.ramsey"),
    ("sdp.solve_s", "sdp.solve"),
    ("pipelines.table1_s", "pipelines.table1"),
    ("pipelines.lower_s", "pipelines.lower"),
    ("pipelines.sdp_s", "pipelines.sdp"),
];

const STEMS: [&str; 3] = [table1::STEM, lower::STEM, sdp::STEM];

pub struct Smoke {
    threads: usize,
    /// The committed artifact bytes, in [`STEMS`] order.
    committed: Vec<Vec<u8>>,
    /// Pair-slots the `table1` grid simulates: per sample, slots to the
    /// first meeting.
    pair_slots: u64,
    quality: Quality,
}

impl Workload for Smoke {
    fn build(_seed: u64, threads: usize, _tracer: &mut Tracer) -> Self {
        let committed: Vec<Vec<u8>> = STEMS
            .iter()
            .map(|stem| {
                let path = format!("{stem}.json");
                std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
            })
            .collect();
        let table = String::from_utf8_lossy(&committed[0]);
        let table: Value =
            serde_json::from_str(&table).expect("committed REPRO_table1.json parses");
        let rows = table
            .get("rows")
            .and_then(Value::as_array)
            .expect("REPRO_table1.json has rows");
        let field = |row: &Value, key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let (mut samples, mut failures, mut slots) = (0.0, 0.0, 0.0);
        let (mut p50s, mut maxes) = (Vec::new(), Vec::new());
        for row in rows {
            samples += field(row, "count");
            failures += field(row, "failures");
            slots += field(row, "count") * (field(row, "mean") + 1.0);
            p50s.push(field(row, "p50"));
            maxes.push(field(row, "max"));
        }
        Smoke {
            threads,
            committed,
            pair_slots: slots.round() as u64,
            // The artifact keeps per-cell summaries, not samples: the
            // median of the cells' medians, and the 99th percentile of
            // their worst cases.
            quality: Quality {
                ttr_p50: crate::stats::median(&p50s),
                ttr_p99: crate::stats::percentile(&maxes, 99.0),
                met_frac: samples / (samples + failures).max(1.0),
            },
        }
    }

    fn prepare_oracle(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn op(&mut self, tracer: &mut Tracer) -> OpSample {
        let threads = self.threads;
        let t0 = Instant::now();
        let mut outs = Vec::with_capacity(3);
        for (name, run) in PIPELINES
            .into_iter()
            .zip([table1::run, lower::run, sdp::run])
        {
            let span = tracer.enter(name);
            outs.push(catch_unwind(move || run(Tier::Smoke, threads)));
            tracer.exit(span, 0);
        }
        let secs = t0.elapsed().as_secs_f64();
        let check = outs
            .into_iter()
            .zip(STEMS.iter().zip(&self.committed))
            .try_for_each(|(out, (stem, committed))| check_artifact(out, stem, committed));
        OpSample {
            secs,
            pair_slots: self.pair_slots,
            check,
        }
    }

    fn probe(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let threads = self.threads;
        let parallel = ParallelConfig { threads };
        let mut checks = Vec::new();

        let span = tracer.enter("sweep.table1_grid");
        let swept = sweep_pair_grid(table1_cells(Tier::Smoke, threads), &parallel);
        tracer.exit(span, swept.len() as u64);
        checks.push(
            swept
                .iter()
                .try_for_each(|r| r.as_ref().map(|_| ()).map_err(|e| e.to_string())),
        );

        let span = tracer.enter("sweep.lower_grid");
        let swept = sweep_lower_grid(lower_cells(threads), &parallel);
        tracer.exit(span, swept.len() as u64);
        checks.push(
            swept
                .iter()
                .try_for_each(|r| r.as_ref().map(|_| ()).map_err(|e| e.to_string())),
        );

        let span = tracer.enter("lower.density");
        let n = 24u64;
        let family =
            move |set: &ChannelSet| GeneralSchedule::asynchronous(n, set.clone()).expect("valid");
        for (k, l) in [(2, 2), (3, 3)] {
            let w = density::worst_overlap_one_pair(&family, n, k, l, 1 << 22, 5, 128);
            checks.push(
                w.map(|w| drop(black_box(w)))
                    .ok_or("density: no witness".to_string()),
            );
        }
        tracer.exit(span, 2);

        let span = tracer.enter("lower.exact");
        for n in 2..=5u64 {
            black_box(exact::exact_rs_n2(n, 5, 1 << 22));
            if n <= 3 {
                black_box(exact::exact_ra_n2_cyclic(n, 6, 1 << 22));
            }
        }
        tracer.exit(span, 4);

        let span = tracer.enter("lower.pigeonhole");
        let n = 16u64;
        let round_robin =
            |set: &ChannelSet| CyclicSchedule::new(set.iter().collect()).expect("non-empty");
        let ours = |set: &ChannelSet| GeneralSchedule::synchronous(n, set.clone()).expect("valid");
        for (k, alpha) in [(2, 2), (3, 2), (4, 2)] {
            black_box(pigeonhole::certify(&round_robin, n, k, alpha));
        }
        for (k, alpha) in [(2, 2), (3, 2)] {
            black_box(pigeonhole::certify(&ours, n, k, alpha));
        }
        tracer.exit(span, 5);

        let span = tracer.enter("lower.ramsey");
        let oblivious = |a: u64, b: u64| {
            CyclicSchedule::new(vec![Channel::new(a), Channel::new(b)]).expect("non-empty")
        };
        let attack = ramsey_bridge::monochromatic_failure(&oblivious, 4, 8);
        let verified = attack
            .as_ref()
            .is_some_and(|w| ramsey_bridge::verify_failure(&oblivious, w, 8));
        checks.push(
            verified
                .then_some(())
                .ok_or("ramsey: oblivious family escaped".to_string()),
        );
        for n in [4u64, 8] {
            let fam = PairFamily::new(n).expect("n ≥ 2");
            let period = fam.period();
            let family = move |a: u64, b: u64| fam.schedule(a, b).expect("valid pair");
            if let Some(w) = ramsey_bridge::monochromatic_failure(&family, n, period) {
                black_box(ramsey_bridge::verify_failure(&family, &w, period));
            }
        }
        tracer.exit(span, 3);

        let span = tracer.enter("sdp.solve");
        let graphs = sdp_instances();
        for g in &graphs {
            black_box(exact_max_in_pairs(g));
            black_box(solve(g, &SdpConfig::default()));
            black_box(random_orientation_value(g, 64, 7));
        }
        tracer.exit(span, graphs.len() as u64);

        checks.into_iter().collect()
    }

    fn quality(&self) -> Quality {
        self.quality
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }
}

/// A pipeline run's verdict: no panic, no violation, no quarantined cell,
/// and JSON bytes identical to the committed artifact.
fn check_artifact(
    out: std::thread::Result<PipelineOutput>,
    stem: &str,
    committed: &[u8],
) -> Result<(), String> {
    let out = out.map_err(|_| format!("{stem}: the pipeline panicked"))?;
    if !out.violations.is_empty() || !out.failed_cells.is_empty() {
        return Err(format!(
            "{stem}: {} violations, {} failed cells",
            out.violations.len(),
            out.failed_cells.len()
        ));
    }
    let bytes = serde_json::to_string_pretty(&out.json) + "\n";
    if bytes.as_bytes() != committed {
        return Err(format!("{stem}: artifact differs from the committed copy"));
    }
    Ok(())
}

/// The `lower` pipeline's measurement grid at the smoke tier (its
/// exhaustive-shift cap and sampled-shift count are 256 and 16 there).
fn lower_cells(threads: usize) -> Vec<LowerCell> {
    let (ns, _, _) = grid_dimensions(Tier::Smoke);
    let mut cells = Vec::new();
    for algorithm in PIPELINE_ALGOS {
        for kind in ["asymmetric", "symmetric"] {
            for &n in ns {
                for sync in [true, false] {
                    cells.push(LowerCell {
                        algorithm,
                        n,
                        scenario: grid_scenario(kind, n, GRID_K),
                        cfg: LowerSweepConfig {
                            sync,
                            max_exhaustive_shifts: 256,
                            sampled_shifts: 16,
                            horizon_override: 0,
                            threads,
                        },
                    });
                }
            }
        }
    }
    cells
}

/// The `sdp` pipeline's smoke-tier instances.
fn sdp_instances() -> Vec<OrientGraph> {
    let mut graphs = vec![
        OrientGraph::new(7, (1..=6).map(|v| (v, 0)).collect()).expect("valid"),
        OrientGraph::new(7, (0..7).map(|i| (i, (i + 1) % 7)).collect()).expect("valid"),
        OrientGraph::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).expect("valid"),
        OrientGraph::new(6, (0..5).map(|i| (i, i + 1)).collect()).expect("valid"),
    ];
    graphs.extend((0..2).map(|i| OrientGraph::seeded_random(1000 + i, 5..9, 6..13)));
    graphs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sabotaged_artifact_counts_as_failure() {
        let out = |json: Value| PipelineOutput {
            pipeline: "sdp",
            json,
            markdown: String::new(),
            violations: Vec::new(),
            failed_cells: Vec::new(),
        };
        let json = Value::object([("rows", Value::from(3u64))]);
        let committed = serde_json::to_string_pretty(&json) + "\n";
        let committed = committed.as_bytes();
        assert!(check_artifact(Ok(out(json.clone())), "x", committed).is_ok());
        let changed = Value::object([("rows", Value::from(4u64))]);
        assert!(check_artifact(Ok(out(changed)), "x", committed).is_err());
        let panicked = catch_unwind(|| -> PipelineOutput { panic!("sabotaged pipeline") });
        assert!(check_artifact(panicked, "x", committed).is_err());
        let mut violated = out(json);
        violated.violations.push("bound".to_string());
        assert!(check_artifact(Ok(violated), "x", committed).is_err());
    }
}
