//! Workspace-level property-based tests: random channel-set geometries,
//! shifts and universes against the paper's guarantees.

use blind_rendezvous::prelude::*;
use proptest::prelude::*;
use rdv_core::schedule::CyclicSchedule;
use rdv_core::verify;
use rdv_lower::density;

/// Hides a schedule's period, so [`density::density`] takes its aperiodic
/// fallback.
struct Unhinted<S>(S);

impl<S: Schedule> Schedule for Unhinted<S> {
    fn channel_at(&self, t: u64) -> Channel {
        self.0.channel_at(t)
    }
}

/// Asserts the folded density, with and without the period hint, is
/// bit-identical to the per-slot reference.
fn assert_density_matches_naive<S: Schedule>(s: &S, h: u64, t: u64) {
    let naive = density::naive::density(s, h, t).to_bits();
    assert_eq!(density::density(s, h, t).to_bits(), naive, "h={h} T={t}");
    assert_eq!(
        density::density(&Unhinted(s), h, t).to_bits(),
        naive,
        "unhinted h={h} T={t}"
    );
}

/// Strategy: a universe size and a pair of overlapping subsets.
fn overlapping_instance() -> impl Strategy<Value = (u64, ChannelSet, ChannelSet)> {
    (6u64..40).prop_flat_map(|n| {
        let subset = proptest::collection::btree_set(1..=n, 1..=6);
        (Just(n), subset.clone(), subset, 1..=n).prop_map(|(n, mut a, mut b, shared)| {
            a.insert(shared);
            b.insert(shared);
            (
                n,
                ChannelSet::new(a).expect("non-empty"),
                ChannelSet::new(b).expect("non-empty"),
            )
        })
    })
}

/// Strategy: a universe size and one licensed subset — either small
/// (`n < 40`, up to 6 channels) or wide (`n` up to 300, up to 32
/// channels, past any small membership cache).
fn sensed_instance() -> impl Strategy<Value = (u64, ChannelSet)> {
    (0u8..2).prop_flat_map(|wide| {
        let (n_max, k_max) = if wide == 1 {
            (300u64, 32usize)
        } else {
            (39, 6)
        };
        (2u64..=n_max).prop_flat_map(move |n| {
            proptest::collection::btree_set(1..=n, 1..=k_max)
                .prop_map(move |set| (n, ChannelSet::new(set).expect("non-empty")))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_schedule_always_meets_within_bound(
        (n, a, b) in overlapping_instance(),
        shift in 0u64..10_000,
    ) {
        let sa = GeneralSchedule::asynchronous(n, a.clone()).expect("valid");
        let sb = GeneralSchedule::asynchronous(n, b.clone()).expect("valid");
        let bound = sa.ttr_bound(b.len());
        let ttr = verify::async_ttr(&sa, &sb, shift, bound + 1);
        prop_assert!(ttr.is_some(), "A={a}, B={b}, n={n}, shift={shift}");
        prop_assert!(ttr.expect("checked") <= bound);
    }

    #[test]
    fn rendezvous_lands_on_a_common_channel(
        (n, a, b) in overlapping_instance(),
        shift in 0u64..5_000,
    ) {
        let sa = GeneralSchedule::asynchronous(n, a.clone()).expect("valid");
        let sb = GeneralSchedule::asynchronous(n, b.clone()).expect("valid");
        let bound = sa.ttr_bound(b.len());
        if let Some(ttr) = verify::async_ttr(&sa, &sb, shift, bound + 1) {
            let c = sb.channel_at(ttr).get();
            prop_assert!(a.contains(c) && b.contains(c), "met on {c} ∉ A∩B");
        }
    }

    #[test]
    fn schedules_confined_to_their_sets(
        (n, a, _) in overlapping_instance(),
        t in 0u64..50_000,
    ) {
        let s = GeneralSchedule::asynchronous(n, a.clone()).expect("valid");
        prop_assert!(a.contains(s.channel_at(t).get()));
    }

    #[test]
    fn symmetric_wrapper_constant_regardless_of_instance(
        (n, a, _) in overlapping_instance(),
        shift in 0u64..100_000,
    ) {
        let base = GeneralSchedule::asynchronous(n, a.clone()).expect("valid");
        let w = SymmetricWrapped::new(base, &a);
        let ttr = verify::async_ttr(&w, &w, shift, 13);
        prop_assert!(ttr.is_some_and(|t| t < 12));
    }

    #[test]
    fn pair_family_schedules_are_valid_codewords(n in 2u64..(1 << 24)) {
        use rdv_strings::walk::Walk;
        let fam = PairFamily::new(n).expect("n ≥ 2");
        let s = fam.schedule(1, 2).expect("pair in range");
        let w = Walk::new(s.word());
        prop_assert!(w.is_balanced());
        prop_assert!(w.is_strictly_catalan());
        prop_assert_eq!(w.maximal_count(), 2);
    }

    #[test]
    fn kernel_equivalence_all_algorithms(
        (n, a, b) in overlapping_instance(),
        shift in 0u64..5_000,
        seed in 0u64..4,
    ) {
        // The block/compiled kernels must return bit-identical TTRs and
        // fingerprints to the naive per-slot channel_at path, for every
        // algorithm in the workspace.
        use blind_rendezvous::sim::algo::AgentCtx;
        use rdv_core::compiled::CompiledSchedule;
        use rdv_core::schedule::fingerprint;
        let algos = [
            Algorithm::Ours,
            Algorithm::OursSymmetric,
            Algorithm::Crseq,
            Algorithm::JumpStay,
            Algorithm::Drds,
            Algorithm::Random,
            Algorithm::BeaconA,
            Algorithm::BeaconB,
        ];
        for algo in algos {
            let ctx_a = AgentCtx { wake: 0, agent_seed: seed * 2, shared_seed: seed, faults: None };
            let ctx_b = AgentCtx { wake: shift, agent_seed: seed * 2 + 1, shared_seed: seed, faults: None };
            let (Some(sa), Some(sb)) = (algo.make(n, &a, &ctx_a), algo.make(n, &b, &ctx_b))
            else {
                continue;
            };
            let horizon = algo.horizon(n, a.len(), b.len()).min(20_000);
            let reference = verify::naive::async_ttr(&sa, &sb, shift, horizon);
            prop_assert_eq!(
                verify::async_ttr(&sa, &sb, shift, horizon),
                reference,
                "{} chunked kernel diverged (n={}, shift={})", algo, n, shift
            );
            if let (Some(ca), Some(cb)) =
                (CompiledSchedule::compile(&sa), CompiledSchedule::compile(&sb))
            {
                prop_assert_eq!(
                    verify::async_ttr_tables(ca.table(), cb.table(), shift, horizon),
                    reference,
                    "{} table kernel diverged (n={}, shift={})", algo, n, shift
                );
            }
            // Fingerprints consume fill_channels; compare against a direct
            // per-slot FNV-1a of channel_at.
            let span = 1_500u64;
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for t in 0..span {
                for byte in sa.channel_at(t).get().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
            prop_assert_eq!(
                fingerprint(&sa, span), h,
                "{} fill_channels fingerprint diverged (n={})", algo, n
            );
        }
    }

    #[test]
    fn sensed_fill_equivalence_under_faults(
        (n, set) in sensed_instance(),
        (seed, epoch, outage) in (any::<u64>(), 1u64..=256, 0u16..=1000),
        wake in 0u64..1_000,
        start in 0u64..10_000,
        len in 1usize..=1_300,
    ) {
        // The availability-aware family's segment-compiled fill must be
        // bit-identical to per-slot channel_at from any start, across
        // epoch, phase and total-blackout (outage up to 1000‰) boundaries.
        use blind_rendezvous::sim::algo::AgentCtx;
        use rdv_core::fault::FaultPlan;
        let plan = FaultPlan::new(seed, epoch, outage, 0, 4_096);
        let ctx = AgentCtx { wake, agent_seed: 0, shared_seed: 0, faults: Some(plan) };
        for algo in [Algorithm::Zos, Algorithm::AcsHopping] {
            let s = algo.make(n, &set, &ctx).expect("valid agent");
            let mut bulk = vec![0u64; len];
            s.fill_channels(start, &mut bulk);
            let slotwise: Vec<u64> =
                (start..start + len as u64).map(|t| s.channel_at(t).get()).collect();
            let first_diff = bulk.iter().zip(&slotwise).position(|(a, b)| a != b);
            prop_assert_eq!(
                first_diff, None,
                "{} fill diverged (n={}, set={}, epoch={}, outage={}, start={})",
                algo, n, set, epoch, outage, start
            );
        }
    }

    #[test]
    fn exhaustive_sweep_equivalence(
        (n, a, b) in overlapping_instance(),
        ra in proptest::collection::vec(1u64..=3, 1..=7),
        rb in proptest::collection::vec(1u64..=3, 1..=7),
    ) {
        // The compile-once sliding sweep must match the naive exhaustive
        // sweep exactly — same worst shift, same worst TTR.
        let sa = GeneralSchedule::asynchronous(n, a.clone()).expect("valid");
        let sb = GeneralSchedule::asynchronous(n, b.clone()).expect("valid");
        let horizon = sa.ttr_bound(b.len()) + 1;
        // The naive path costs O(period × TTR); cap the sweep size to keep
        // the reference tractable while still crossing chunk boundaries.
        if sa.period_hint().expect("periodic") <= 4_096 {
            prop_assert_eq!(
                verify::worst_async_ttr_exhaustive(&sa, &sb, horizon),
                verify::naive::worst_async_ttr_exhaustive(&sa, &sb, horizon),
                "exhaustive sweep diverged (A={}, B={}, n={})", a, b, n
            );
        }
        // Unequal periods: every relative phase of both wake orders occurs
        // among the shifts 0..P_A·P_B, the ground truth. Two cyclic
        // schedules that have not met within P_A·P_B slots never meet.
        let cyc = |raw: &[u64]| {
            CyclicSchedule::new(raw.iter().map(|&c| Channel::new(c)).collect()).expect("non-empty")
        };
        let (ca, cb) = (cyc(&ra), cyc(&rb));
        let joint = (ra.len() * rb.len()) as u64;
        let truth = verify::naive::worst_async_ttr(&ca, &cb, 0..joint, joint).map(|w| w.ttr);
        let swept = verify::worst_async_ttr_exhaustive(&ca, &cb, joint);
        prop_assert_eq!(swept.map(|w| w.ttr), truth, "A={:?}, B={:?}", ra, rb);
        prop_assert_eq!(swept, verify::naive::worst_async_ttr_exhaustive(&ca, &cb, joint));
    }

    #[test]
    fn baselines_meet_on_random_small_instances(
        seed in 0u64..500,
        shift in 0u64..2_000,
    ) {
        // Jump-Stay and CRSEQ on random overlapping pairs of [8]: the
        // reconstructions must meet within their (generous) horizons.
        let n = 8u64;
        let scenario = blind_rendezvous::sim::workload::random_overlapping_pair(n, 3, 3, seed)
            .expect("fits");
        let js_a = JumpStay::new(n, scenario.a.clone()).expect("valid");
        let js_b = JumpStay::new(n, scenario.b.clone()).expect("valid");
        prop_assert!(verify::async_ttr(&js_a, &js_b, shift, 40_000).is_some());
        let cr_a = Crseq::new(n, scenario.a.clone()).expect("valid");
        let cr_b = Crseq::new(n, scenario.b.clone()).expect("valid");
        prop_assert!(verify::async_ttr(&cr_a, &cr_b, shift, 40_000).is_some());
    }

    #[test]
    fn folded_density_matches_naive_on_cyclic_schedules(
        slots in proptest::collection::vec(1u64..8, 1..=64),
        h in 0u64..10,
        reps in 2u64..6,
        rem in 0u64..64,
    ) {
        // h ranges over channels inside and outside the schedule; T over
        // below one period, one period, exact multiples, and multiples
        // plus a remainder.
        let s = CyclicSchedule::new(slots.iter().map(|&c| Channel::new(c)).collect())
            .expect("non-empty");
        let p = slots.len() as u64;
        let rem = rem % p;
        for t in [rem.max(1), p, reps * p, reps * p + rem, reps * p + p - 1] {
            assert_density_matches_naive(&s, h, t);
        }
    }

    #[test]
    fn folded_density_matches_naive_on_general_schedules(
        set in proptest::collection::btree_set(1u64..=24, 1..=3),
        h in 1u64..=24,
        t in 1u64..5_000,
    ) {
        let s = GeneralSchedule::asynchronous(24, ChannelSet::new(set).expect("non-empty"))
            .expect("valid");
        let p = s.period_hint().expect("periodic");
        for t in [t, p, 3 * p, 3 * p + t % p] {
            assert_density_matches_naive(&s, h, t);
        }
    }
}
