//! Error-path coverage of the typed sweep failures: the scenario
//! generators and sweep entry points must surface
//! `SweepError::{InvalidScenario, DisjointSets}` (and friends) as typed,
//! displayable errors rather than panics or hangs — previously only their
//! happy paths were exercised by integration tests.

use blind_rendezvous::prelude::*;
use blind_rendezvous::sim::workload::{self, PairScenario};
use blind_rendezvous::sim::{
    sweep_lower_bound, sweep_pair_grid, sweep_pair_ttr, LowerSweepConfig, ParallelConfig,
    SweepCell, SweepConfig, SweepError,
};

#[test]
fn coalition_parameter_errors_are_invalid_scenario() {
    // band > k, band == 0, and 2k > n can never produce a coalition: each
    // must be caught before any sampling, with an explanatory message.
    for (n, k, band) in [(10u64, 3usize, 4usize), (10, 3, 0), (10, 6, 2)] {
        let err = workload::coalition_pair(n, k, band, 0)
            .expect_err("infeasible coalition parameters must not sample");
        assert!(
            matches!(err, SweepError::InvalidScenario { .. }),
            "({n}, {k}, {band}) produced {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("invalid scenario parameters"), "{msg}");
        assert!(msg.contains("coalition needs"), "{msg}");
    }
}

#[test]
fn disjoint_sets_surface_from_every_entry_point() {
    // Scenario validation…
    assert_eq!(
        PairScenario::try_new(vec![1u64, 2], vec![3, 4]),
        Err(SweepError::DisjointSets)
    );
    // …and both sweep entry points, before any sampling happens.
    let disjoint = PairScenario {
        a: ChannelSet::new(vec![1, 2]).expect("valid"),
        b: ChannelSet::new(vec![3, 4]).expect("valid"),
    };
    assert_eq!(
        sweep_pair_ttr(Algorithm::Ours, 8, &disjoint, &SweepConfig::default())
            .expect_err("disjoint sets cannot sweep"),
        SweepError::DisjointSets
    );
    assert_eq!(
        sweep_lower_bound(Algorithm::Ours, 8, &disjoint, &LowerSweepConfig::default())
            .expect_err("disjoint sets cannot sweep"),
        SweepError::DisjointSets
    );
}

#[test]
fn zero_shift_sweep_is_an_invalid_scenario_not_a_missed_horizon() {
    // Zero shifts means zero samples: a parameter error, not "all 0
    // samples missed the horizon" — in a grid as well as for one cell.
    let scenario = workload::adversarial_overlap_one(8, 3, 3).expect("fits");
    let cfg = SweepConfig {
        shifts: 0,
        ..SweepConfig::default()
    };
    for algo in [Algorithm::Ours, Algorithm::Random, Algorithm::BeaconB] {
        let err = sweep_pair_ttr(algo, 8, &scenario, &cfg).expect_err("no shift to sweep");
        assert!(
            matches!(err, SweepError::InvalidScenario { reason } if reason.contains("shifts")),
            "{algo}: {err}"
        );
        let cells = vec![SweepCell {
            algorithm: algo,
            n: 8,
            scenario: scenario.clone(),
            cfg,
        }];
        let grid = sweep_pair_grid(cells, &ParallelConfig::with_threads(2));
        assert_eq!(grid[0].as_ref().err(), Some(&err), "{algo}");
    }
}

#[test]
fn every_variant_displays_and_is_a_std_error() {
    let variants: Vec<(SweepError, &str)> = vec![
        (
            SweepError::InvalidSet(blind_rendezvous::core::channel::ChannelSetError::Empty),
            "invalid channel set",
        ),
        (SweepError::DisjointSets, "disjoint"),
        (
            SweepError::Unsupported {
                algorithm: Algorithm::Ours,
                n: 8,
            },
            "cannot be instantiated",
        ),
        (SweepError::NoSamples { failures: 3 }, "all 3 samples"),
        (
            SweepError::InvalidScenario { reason: "test" },
            "invalid scenario parameters: test",
        ),
    ];
    for (err, needle) in variants {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{err:?} displayed as {msg:?}");
        // Each variant must also travel as a boxed std error.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains(needle));
    }
}
