//! Block-compiled schedules: one period of any periodic schedule
//! materialized into a flat table, so repeated sweeps become slice scans.
//!
//! The measurement engine evaluates the same schedule at millions of slots
//! (worst-case shift sweeps re-scan every relative phase of a period).
//! Going through [`Schedule::channel_at`] pays epoch div/mod, CRT index
//! math, and codeword bit lookups — often behind a `dyn` pointer — on
//! every slot. A [`CompiledSchedule`] pays that cost exactly once per
//! period slot at compile time; afterwards every evaluation is one indexed
//! load from a contiguous `Vec<u64>`, and bulk fills are `copy_from_slice`
//! rotations running at memory speed.
//!
//! Compilation is gated by a size cap so aperiodic schedules (no
//! [`Schedule::period_hint`]) and schedules with impractically long periods
//! (e.g. the `O(n³)` Jump-Stay reconstruction at large `n`) transparently
//! fall back to the block kernels over `fill_channels`.

use crate::channel::Channel;
use crate::schedule::Schedule;

/// A periodic schedule flattened into one period of raw channel numbers.
///
/// # Example
///
/// ```
/// use rdv_core::channel::ChannelSet;
/// use rdv_core::compiled::CompiledSchedule;
/// use rdv_core::general::GeneralSchedule;
/// use rdv_core::schedule::Schedule;
///
/// let set = ChannelSet::new(vec![2, 11, 29]).unwrap();
/// let s = GeneralSchedule::asynchronous(32, set).unwrap();
/// let c = CompiledSchedule::compile(&s).unwrap();
/// assert_eq!(c.period(), s.period_hint().unwrap());
/// for t in 0..5_000 {
///     assert_eq!(c.channel_at(t), s.channel_at(t));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSchedule {
    table: Vec<u64>,
}

impl CompiledSchedule {
    /// Default cap on the compiled period, in slots (32 MiB of table).
    ///
    /// Chosen so every Theorem 1/3 schedule and the quadratic baselines
    /// compile at all benched universe sizes, while the cubic Jump-Stay
    /// period (`≈ 3n³` slots) stops compiling around `n ≈ 110` and falls
    /// back to the chunked kernels.
    pub const DEFAULT_MAX_PERIOD: u64 = 1 << 22;

    /// Compiles one period of `s` under [`Self::DEFAULT_MAX_PERIOD`].
    ///
    /// Returns `None` if `s` has no period hint or the period exceeds the
    /// cap.
    pub fn compile<S: Schedule + ?Sized>(s: &S) -> Option<Self> {
        Self::compile_capped(s, Self::DEFAULT_MAX_PERIOD)
    }

    /// Compiles one period of `s`, refusing periods above `max_period`.
    pub fn compile_capped<S: Schedule + ?Sized>(s: &S, max_period: u64) -> Option<Self> {
        let p = s.period_hint()?;
        if p == 0 || p > max_period {
            return None;
        }
        let mut table = vec![0u64; p as usize];
        s.fill_channels(0, &mut table);
        Some(CompiledSchedule { table })
    }

    /// The compiled period length in slots.
    pub fn period(&self) -> u64 {
        self.table.len() as u64
    }

    /// One full period of raw channel numbers — the input of the slice
    /// kernels in [`crate::verify`].
    pub fn table(&self) -> &[u64] {
        &self.table
    }
}

/// A schedule readied for repeated sweep evaluation: compiled to a flat
/// one-period table when the period fits the [`CompiledSchedule`] cap,
/// otherwise kept as the raw schedule and evaluated through the chunked
/// block kernels.
///
/// This is the unit the parallel sweep orchestrator shares **read-only
/// across worker threads**: it is `Send + Sync` whenever the wrapped
/// schedule is, compilation happens once before the fan-out, and every
/// worker then evaluates shifts against the same immutable table (see
/// [`crate::verify::async_ttr_prepared`]).
pub enum PreparedSchedule<S> {
    /// The schedule's period fit the cap and was flattened into a table.
    Table(CompiledSchedule),
    /// Aperiodic or oversized-period fallback: the schedule itself.
    Raw(S),
}

impl<S: Schedule> PreparedSchedule<S> {
    /// Compiles `schedule` under the default period cap, falling back to
    /// the raw schedule when compilation is refused.
    pub fn new(schedule: S) -> Self {
        Self::new_capped(schedule, CompiledSchedule::DEFAULT_MAX_PERIOD)
    }

    /// Compiles `schedule` under an explicit period cap, falling back to
    /// the raw schedule when the period is unknown or exceeds `max_period`.
    ///
    /// The default cap is sized for *one* schedule evaluated millions of
    /// times (a pair sweep). Population-scale consumers that prepare one
    /// schedule per agent or per shared schedule divide a total table
    /// budget by the agent count and pass the quotient here, so a
    /// 10k-agent population cannot materialize 10k maximum-size tables.
    /// (The multi-agent arena engine goes further and compiles only the
    /// slots a run reads, which may be a prefix of the period; see
    /// `rdv_sim::engine`.)
    pub fn new_capped(schedule: S, max_period: u64) -> Self {
        match CompiledSchedule::compile_capped(&schedule, max_period) {
            Some(c) => PreparedSchedule::Table(c),
            None => PreparedSchedule::Raw(schedule),
        }
    }

    /// The compiled period table, when compilation succeeded.
    pub fn table(&self) -> Option<&CompiledSchedule> {
        match self {
            PreparedSchedule::Table(c) => Some(c),
            PreparedSchedule::Raw(_) => None,
        }
    }
}

impl<S: Schedule> Schedule for PreparedSchedule<S> {
    fn channel_at(&self, t: u64) -> Channel {
        match self {
            PreparedSchedule::Table(c) => c.channel_at(t),
            PreparedSchedule::Raw(s) => s.channel_at(t),
        }
    }

    fn period_hint(&self) -> Option<u64> {
        match self {
            PreparedSchedule::Table(c) => c.period_hint(),
            PreparedSchedule::Raw(s) => s.period_hint(),
        }
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        match self {
            PreparedSchedule::Table(c) => c.fill_channels(start, out),
            PreparedSchedule::Raw(s) => s.fill_channels(start, out),
        }
    }
}

impl Schedule for CompiledSchedule {
    fn channel_at(&self, t: u64) -> Channel {
        Channel::new(self.table[(t % self.table.len() as u64) as usize])
    }

    fn period_hint(&self) -> Option<u64> {
        Some(self.table.len() as u64)
    }

    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        let p = self.table.len();
        let mut idx = (start % p as u64) as usize;
        let mut written = 0usize;
        while written < out.len() {
            let take = (p - idx).min(out.len() - written);
            out[written..written + take].copy_from_slice(&self.table[idx..idx + take]);
            written += take;
            idx += take;
            if idx == p {
                idx = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelSet};
    use crate::general::GeneralSchedule;
    use crate::schedule::{ConstantSchedule, CyclicSchedule};
    use crate::symmetric::SymmetricWrapped;

    #[test]
    fn compile_matches_source_everywhere() {
        let set = ChannelSet::new(vec![3, 9, 17, 40]).unwrap();
        let s = GeneralSchedule::asynchronous(64, set.clone()).unwrap();
        let c = CompiledSchedule::compile(&s).unwrap();
        for t in (0..3 * c.period()).step_by(7) {
            assert_eq!(c.channel_at(t), s.channel_at(t), "slot {t}");
        }
        let w = SymmetricWrapped::new(s, &set);
        let cw = CompiledSchedule::compile(&w).unwrap();
        assert_eq!(cw.period(), w.period_hint().unwrap());
        for t in (0..2 * cw.period()).step_by(11) {
            assert_eq!(cw.channel_at(t), w.channel_at(t), "slot {t}");
        }
    }

    #[test]
    fn fill_channels_rotates_correctly() {
        let s =
            CyclicSchedule::new(vec![Channel::new(1), Channel::new(2), Channel::new(3)]).unwrap();
        let c = CompiledSchedule::compile(&s).unwrap();
        let mut buf = [0u64; 8];
        c.fill_channels(2, &mut buf);
        assert_eq!(buf, [3, 1, 2, 3, 1, 2, 3, 1]);
        let mut big = vec![0u64; 100];
        c.fill_channels(1, &mut big);
        for (i, &v) in big.iter().enumerate() {
            assert_eq!(v, s.channel_at(1 + i as u64).get(), "offset {i}");
        }
    }

    #[test]
    fn aperiodic_and_oversized_refuse() {
        struct NoPeriod;
        impl Schedule for NoPeriod {
            fn channel_at(&self, _t: u64) -> Channel {
                Channel::new(1)
            }
        }
        assert!(CompiledSchedule::compile(&NoPeriod).is_none());
        let s = ConstantSchedule::new(Channel::new(4));
        assert!(CompiledSchedule::compile_capped(&s, 0).is_none());
        let long = CyclicSchedule::new(vec![Channel::new(1); 10]).unwrap();
        assert!(CompiledSchedule::compile_capped(&long, 9).is_none());
        assert!(CompiledSchedule::compile_capped(&long, 10).is_some());
    }

    #[test]
    fn prepared_capped_falls_back_below_period() {
        let s =
            CyclicSchedule::new(vec![Channel::new(1), Channel::new(2), Channel::new(3)]).unwrap();
        let table = PreparedSchedule::new_capped(&s, 3);
        assert!(table.table().is_some());
        let raw = PreparedSchedule::new_capped(&s, 2);
        assert!(raw.table().is_none());
        for t in 0..20 {
            assert_eq!(table.channel_at(t), s.channel_at(t));
            assert_eq!(raw.channel_at(t), s.channel_at(t));
        }
    }
}
