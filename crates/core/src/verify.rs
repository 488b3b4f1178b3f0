//! The measurement engine: exact times-to-rendezvous under both timing
//! models.
//!
//! Every experiment in the reproduction ultimately calls into this module:
//! it computes, for two concrete schedules, the first slot at which they hop
//! on a common channel — synchronously (same wake-up) or asynchronously
//! (arbitrary relative wake-up shift) — and sweeps shifts for worst-case
//! figures.
//!
//! # Kernels
//!
//! All entry points are *block kernels*: they pull channels through
//! [`Schedule::fill_channels`] in fixed-size chunks and compare flat `u64`
//! buffers, instead of paying a (possibly virtual) `channel_at` call plus
//! epoch/codeword arithmetic per slot. The shift sweeps go further: when
//! both schedules are periodic and small enough to compile
//! ([`CompiledSchedule`]), each schedule's period is materialized **once**
//! and every shift is evaluated by sliding over the two period tables —
//! turning the `O(period × shifts)` virtual-call storm of the naive sweep
//! into contiguous slice scans.
//!
//! The original per-slot implementations are kept as `*_naive` reference
//! functions; the workspace property tests assert the kernels are
//! bit-identical to them, and the `bench_report` kernel suite
//! (`BENCH_kernel.json`) tracks the speedup.

use crate::compiled::CompiledSchedule;
use crate::schedule::Schedule;

/// Maximum chunk size (slots) of the block kernels: two buffers of 4 KiB
/// each stay comfortably in L1 while amortizing the `fill_channels`
/// dispatch.
const CHUNK: usize = 512;

/// First chunk size of a scan. Chunks gallop `32 → 128 → 512` so shallow
/// scans (most rendezvous happen within a few dozen slots) don't pay for a
/// full 512-slot fill, while deep scans still amortize dispatch.
const FIRST_CHUNK: usize = 32;

/// The next chunk size after `cap`.
fn grow_chunk(cap: usize) -> usize {
    (cap * 4).min(CHUNK)
}

/// First slot `t ≤ max_steps` with `a(t) = b(t)` (synchronous model), or
/// `None` if the schedules do not meet within the horizon.
pub fn sync_ttr<A, B>(a: &A, b: &B, max_steps: u64) -> Option<u64>
where
    A: Schedule + ?Sized,
    B: Schedule + ?Sized,
{
    let mut bufa = [0u64; CHUNK];
    let mut bufb = [0u64; CHUNK];
    let mut cap = FIRST_CHUNK;
    let mut t = 0u64;
    while t < max_steps {
        let len = (max_steps - t).min(cap as u64) as usize;
        a.fill_channels(t, &mut bufa[..len]);
        b.fill_channels(t, &mut bufb[..len]);
        for i in 0..len {
            if bufa[i] == bufb[i] {
                return Some(t + i as u64);
            }
        }
        t += len as u64;
        cap = grow_chunk(cap);
    }
    None
}

/// Asynchronous time-to-rendezvous with `b` waking `shift` slots after `a`.
///
/// Returns the smallest `τ ≤ max_steps` such that
/// `a(shift + τ) = b(τ)` — the number of slots after *both* agents are
/// awake — or `None` if no meeting occurs within the horizon.
pub fn async_ttr<A, B>(a: &A, b: &B, shift: u64, max_steps: u64) -> Option<u64>
where
    A: Schedule + ?Sized,
    B: Schedule + ?Sized,
{
    let mut bufa = [0u64; CHUNK];
    let mut bufb = [0u64; CHUNK];
    let mut cap = FIRST_CHUNK;
    let mut tau = 0u64;
    while tau < max_steps {
        let len = (max_steps - tau).min(cap as u64) as usize;
        a.fill_channels(shift + tau, &mut bufa[..len]);
        b.fill_channels(tau, &mut bufb[..len]);
        for i in 0..len {
            if bufa[i] == bufb[i] {
                return Some(tau + i as u64);
            }
        }
        tau += len as u64;
        cap = grow_chunk(cap);
    }
    None
}

/// [`async_ttr`] over two pre-compiled period tables (see
/// [`CompiledSchedule::table`]): `ta[(shift + τ) mod |ta|] = tb[τ mod |tb|]`.
///
/// The scan walks both tables with wrapping counters — no division and no
/// schedule dispatch per slot — and stops early at `lcm(|ta|, |tb|)` slots,
/// past which the joint phase provably repeats.
///
/// # Panics
///
/// Panics if either table is empty.
pub fn async_ttr_tables(ta: &[u64], tb: &[u64], shift: u64, max_steps: u64) -> Option<u64> {
    assert!(!ta.is_empty() && !tb.is_empty(), "empty period table");
    let pa = ta.len();
    let pb = tb.len();
    let steps = max_steps.min(joint_period(pa as u64, pb as u64));
    let mut ia = (shift % pa as u64) as usize;
    let mut ib = 0usize;
    for tau in 0..steps {
        if ta[ia] == tb[ib] {
            return Some(tau);
        }
        ia += 1;
        if ia == pa {
            ia = 0;
        }
        ib += 1;
        if ib == pb {
            ib = 0;
        }
    }
    None
}

/// [`async_ttr`] over two [`crate::compiled::PreparedSchedule`]s,
/// dispatching to the
/// table-sliding kernel when both sides compiled and to the chunked block
/// kernel otherwise.
///
/// Both arguments are read-only; the parallel sweep orchestrator shares
/// one prepared pair across all of its worker threads and calls this per
/// (shift, seed) sample.
pub fn async_ttr_prepared<SA, SB>(
    a: &crate::compiled::PreparedSchedule<SA>,
    b: &crate::compiled::PreparedSchedule<SB>,
    shift: u64,
    max_steps: u64,
) -> Option<u64>
where
    SA: Schedule,
    SB: Schedule,
{
    use crate::compiled::PreparedSchedule;
    match (a, b) {
        (PreparedSchedule::Table(ca), PreparedSchedule::Table(cb)) => {
            async_ttr_tables(ca.table(), cb.table(), shift, max_steps)
        }
        (PreparedSchedule::Table(ca), PreparedSchedule::Raw(b)) => {
            async_ttr(ca, b, shift, max_steps)
        }
        (PreparedSchedule::Raw(a), PreparedSchedule::Table(cb)) => {
            async_ttr(a, cb, shift, max_steps)
        }
        (PreparedSchedule::Raw(a), PreparedSchedule::Raw(b)) => async_ttr(a, b, shift, max_steps),
    }
}

/// `lcm(a, b)`, saturating at `u64::MAX`.
fn joint_period(a: u64, b: u64) -> u64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        a
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// The result of a worst-case shift sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorstCase {
    /// The shift achieving the maximum time-to-rendezvous.
    pub shift: u64,
    /// The maximum time-to-rendezvous over the sweep.
    pub ttr: u64,
}

/// Sweeps relative shifts (both "b later" and "a later") and returns the
/// worst observed time-to-rendezvous.
///
/// `shifts` supplies the offsets to try in each direction; periodic
/// schedules need only `0..period`. Returns `None` if *any* swept shift
/// fails to rendezvous within `max_steps` (which, for the guaranteed
/// constructions, indicates a bug or an insufficient horizon).
///
/// Both schedules are compiled **once** when possible (periodic, period
/// under the [`CompiledSchedule`] cap) and the whole sweep then runs on the
/// two period tables; otherwise it falls back to the chunked kernel.
pub fn worst_async_ttr<A, B>(
    a: &A,
    b: &B,
    shifts: impl IntoIterator<Item = u64>,
    max_steps: u64,
) -> Option<WorstCase>
where
    A: Schedule + ?Sized,
    B: Schedule + ?Sized,
{
    let compiled = match (CompiledSchedule::compile(a), CompiledSchedule::compile(b)) {
        (Some(ca), Some(cb)) => Some((ca, cb)),
        _ => None,
    };
    let mut worst: Option<WorstCase> = None;
    for shift in shifts {
        let (later, earlier) = match &compiled {
            Some((ca, cb)) => (
                async_ttr_tables(ca.table(), cb.table(), shift, max_steps)?,
                async_ttr_tables(cb.table(), ca.table(), shift, max_steps)?,
            ),
            None => (
                async_ttr(a, b, shift, max_steps)?,
                async_ttr(b, a, shift, max_steps)?,
            ),
        };
        let ttr = later.max(earlier);
        if worst.is_none_or(|w| ttr > w.ttr) {
            worst = Some(WorstCase { shift, ttr });
        }
    }
    worst
}

/// Worst-case asynchronous time-to-rendezvous over *all* distinct relative
/// phases of two periodic schedules.
///
/// With `b` waking `s` slots later the phase that matters is `s mod P_A`;
/// with `a` waking later it is `s mod P_B`. Sweeping `0..max(P_A, P_B)`
/// therefore covers every phase of both wake orders. Returns `None` if
/// either schedule lacks a period hint or any phase fails within
/// `max_steps`.
///
/// This is the hottest sweep in the workspace; it compiles each schedule
/// once and slides over the period tables instead of recomputing
/// `O(period × shifts)` virtual calls.
pub fn worst_async_ttr_exhaustive<A, B>(a: &A, b: &B, max_steps: u64) -> Option<WorstCase>
where
    A: Schedule + ?Sized,
    B: Schedule + ?Sized,
{
    let phases = a.period_hint()?.max(b.period_hint()?);
    worst_async_ttr(a, b, 0..phases, max_steps)
}

/// Per-slot reference implementations of the kernels above.
///
/// These are the original (pre-kernel) loops over [`Schedule::channel_at`].
/// They exist so the property tests can assert the block/compiled kernels
/// are bit-identical, and so the `bench_report` kernel suite can measure
/// the speedup.
pub mod naive {
    use super::{Schedule, WorstCase};

    /// Per-slot reference for [`super::sync_ttr`].
    pub fn sync_ttr<A, B>(a: &A, b: &B, max_steps: u64) -> Option<u64>
    where
        A: Schedule + ?Sized,
        B: Schedule + ?Sized,
    {
        (0..max_steps).find(|&t| a.channel_at(t) == b.channel_at(t))
    }

    /// Per-slot reference for [`super::async_ttr`].
    pub fn async_ttr<A, B>(a: &A, b: &B, shift: u64, max_steps: u64) -> Option<u64>
    where
        A: Schedule + ?Sized,
        B: Schedule + ?Sized,
    {
        (0..max_steps).find(|&tau| a.channel_at(shift + tau) == b.channel_at(tau))
    }

    /// Per-slot reference for [`super::worst_async_ttr`].
    pub fn worst_async_ttr<A, B>(
        a: &A,
        b: &B,
        shifts: impl IntoIterator<Item = u64>,
        max_steps: u64,
    ) -> Option<WorstCase>
    where
        A: Schedule + ?Sized,
        B: Schedule + ?Sized,
    {
        let mut worst: Option<WorstCase> = None;
        for shift in shifts {
            let later = async_ttr(a, b, shift, max_steps)?;
            let earlier = async_ttr(b, a, shift, max_steps)?;
            let ttr = later.max(earlier);
            if worst.is_none_or(|w| ttr > w.ttr) {
                worst = Some(WorstCase { shift, ttr });
            }
        }
        worst
    }

    /// Per-slot reference for [`super::worst_async_ttr_exhaustive`].
    pub fn worst_async_ttr_exhaustive<A, B>(a: &A, b: &B, max_steps: u64) -> Option<WorstCase>
    where
        A: Schedule + ?Sized,
        B: Schedule + ?Sized,
    {
        let phases = a.period_hint()?.max(b.period_hint()?);
        worst_async_ttr(a, b, 0..phases, max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::schedule::{ConstantSchedule, CyclicSchedule};

    fn cyc(slots: &[u64]) -> CyclicSchedule {
        CyclicSchedule::new(slots.iter().map(|&c| Channel::new(c)).collect()).unwrap()
    }

    #[test]
    fn sync_ttr_finds_first_meeting() {
        let a = cyc(&[1, 2, 3]);
        let b = cyc(&[3, 2, 1]);
        assert_eq!(sync_ttr(&a, &b, 10), Some(1));
        let c = cyc(&[4, 4, 4]);
        assert_eq!(sync_ttr(&a, &c, 100), None);
    }

    #[test]
    fn async_ttr_applies_shift_to_a() {
        let a = cyc(&[1, 2]);
        let b = ConstantSchedule::new(Channel::new(1));
        // b wakes 1 slot after a: a is at slot 1 (=2), then 2 (=1): τ = 1.
        assert_eq!(async_ttr(&a, &b, 1, 10), Some(1));
        assert_eq!(async_ttr(&a, &b, 0, 10), Some(0));
    }

    #[test]
    fn worst_case_sweep_picks_maximum() {
        let a = cyc(&[1, 2, 3, 4]);
        let b = cyc(&[1, 1, 1, 1]);
        // Shift 0: meet at τ=0. Shift 1: a = 2,3,4,1 → τ=3. Shift 2: τ=2...
        let w = worst_async_ttr(&a, &b, 0..4, 100).unwrap();
        assert_eq!(w.ttr, 3);
        assert_eq!(w.shift, 1);
    }

    #[test]
    fn worst_case_fails_closed() {
        let a = cyc(&[1, 2]);
        let b = cyc(&[2, 1]);
        // At shift 1 the schedules are identical-phase-opposed: 1 vs 1? a
        // shifted by 1 = [2,1] = b: they meet immediately. At shift 0 they
        // never meet (always opposite). The sweep must report None.
        assert_eq!(worst_async_ttr(&a, &b, 0..2, 50), None);
    }

    #[test]
    fn exhaustive_uses_period() {
        // A period-3 pattern against a constant: worst phase is swept from
        // the period hint without the caller supplying a range.
        let a = cyc(&[1, 2, 3]);
        let b = ConstantSchedule::new(Channel::new(1));
        let w = worst_async_ttr_exhaustive(&a, &b, 50).unwrap();
        assert_eq!(w.ttr, 2); // worst phase leaves channel 1 two slots away
        assert!(worst_async_ttr_exhaustive(&b, &a, 50).is_some());
    }

    #[test]
    fn exhaustive_covers_the_longer_period() {
        // P_A = 2 < P_B = 5: with `a` waking later, phases of B beyond
        // P_A matter. The worst case over all P_A·P_B shifts is 6, at
        // shift 4; sweeping only 0..P_A reports 5.
        let a = cyc(&[3, 1]);
        let b = cyc(&[3, 1, 3, 2, 2]);
        let truth = naive::worst_async_ttr(&a, &b, 0..10, 100).unwrap();
        assert_eq!(truth, WorstCase { shift: 4, ttr: 6 });
        assert_eq!(worst_async_ttr_exhaustive(&a, &b, 100), Some(truth));
        assert_eq!(naive::worst_async_ttr_exhaustive(&a, &b, 100), Some(truth));
        assert_eq!(
            worst_async_ttr_exhaustive(&b, &a, 100).map(|w| w.ttr),
            Some(6)
        );
    }

    #[test]
    fn parity_trap_documented() {
        // The cleaner version of the above: alternating schedules with an
        // odd relative shift never meet — the classic failure that the
        // strictly-Catalan codewords are designed to avoid.
        let a = cyc(&[1, 2]);
        let b = cyc(&[1, 2]);
        assert_eq!(async_ttr(&a, &b, 1, 1000), None);
        assert_eq!(worst_async_ttr_exhaustive(&a, &b, 1000), None);
    }

    #[test]
    fn table_kernel_matches_schedule_kernel() {
        let a = cyc(&[1, 2, 3, 4, 5]);
        let b = cyc(&[5, 4, 2]);
        let ca = CompiledSchedule::compile(&a).unwrap();
        let cb = CompiledSchedule::compile(&b).unwrap();
        for shift in 0..40u64 {
            assert_eq!(
                async_ttr_tables(ca.table(), cb.table(), shift, 500),
                naive::async_ttr(&a, &b, shift, 500),
                "shift {shift}"
            );
        }
    }

    #[test]
    fn table_kernel_early_exits_at_joint_period() {
        // Disjoint channel sets never meet; the table kernel must return
        // None quickly (lcm(2, 3) = 6 slots scanned) even for a huge
        // horizon.
        let a = cyc(&[1, 2]);
        let b = cyc(&[3, 4, 5]);
        let ca = CompiledSchedule::compile(&a).unwrap();
        let cb = CompiledSchedule::compile(&b).unwrap();
        assert_eq!(async_ttr_tables(ca.table(), cb.table(), 0, u64::MAX), None);
    }

    #[test]
    fn kernels_match_naive_on_cyclic_schedules() {
        let a = cyc(&[7, 3, 3, 9, 7, 1, 4]);
        let b = cyc(&[4, 9, 1]);
        for shift in [0u64, 1, 2, 5, 19, 700] {
            assert_eq!(
                async_ttr(&a, &b, shift, 2_000),
                naive::async_ttr(&a, &b, shift, 2_000)
            );
        }
        assert_eq!(sync_ttr(&a, &b, 2_000), naive::sync_ttr(&a, &b, 2_000));
        assert_eq!(
            worst_async_ttr_exhaustive(&a, &b, 5_000),
            naive::worst_async_ttr_exhaustive(&a, &b, 5_000)
        );
    }

    #[test]
    fn prepared_dispatch_matches_naive_in_all_four_arms() {
        struct NoPeriod(CyclicSchedule);
        impl Schedule for NoPeriod {
            fn channel_at(&self, t: u64) -> Channel {
                self.0.channel_at(t)
            }
        }
        let a = cyc(&[7, 3, 3, 9, 7, 1, 4]);
        let b = cyc(&[4, 9, 1]);
        let table_a = crate::compiled::PreparedSchedule::new(a.clone());
        let table_b = crate::compiled::PreparedSchedule::new(b.clone());
        let raw_a = crate::compiled::PreparedSchedule::new(NoPeriod(a.clone()));
        let raw_b = crate::compiled::PreparedSchedule::new(NoPeriod(b.clone()));
        assert!(table_a.table().is_some() && raw_a.table().is_none());
        for shift in [0u64, 1, 5, 19, 700] {
            let expected = naive::async_ttr(&a, &b, shift, 2_000);
            assert_eq!(
                async_ttr_prepared(&table_a, &table_b, shift, 2_000),
                expected
            );
            assert_eq!(async_ttr_prepared(&raw_a, &table_b, shift, 2_000), expected);
            let expected_rev = naive::async_ttr(&b, &a, shift, 2_000);
            assert_eq!(
                async_ttr_prepared(&table_b, &raw_a, shift, 2_000),
                expected_rev
            );
            assert_eq!(
                async_ttr_prepared(&raw_b, &raw_a, shift, 2_000),
                expected_rev
            );
        }
    }

    #[test]
    fn chunk_boundaries_are_seamless() {
        // Meetings right at multiples of the kernel chunk size.
        let mut slots = vec![2u64; 600];
        slots[511] = 1;
        slots[512] = 1;
        let a = CyclicSchedule::new(slots.iter().map(|&c| Channel::new(c)).collect()).unwrap();
        let b = ConstantSchedule::new(Channel::new(1));
        assert_eq!(async_ttr(&a, &b, 0, 10_000), Some(511));
        assert_eq!(
            async_ttr(&a, &b, 512, 10_000),
            naive::async_ttr(&a, &b, 512, 10_000)
        );
        assert_eq!(sync_ttr(&a, &b, 511), naive::sync_ttr(&a, &b, 511));
        assert_eq!(sync_ttr(&a, &b, 512), naive::sync_ttr(&a, &b, 512));
    }
}
