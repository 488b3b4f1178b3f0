//! The [`Schedule`] trait and basic schedule combinators.

use crate::channel::Channel;

/// A deterministic channel-hopping schedule `σ : ℕ → [n]`.
///
/// Time `t` is measured in slots *since the agent's own wake-up*; the
/// asynchronous model's relative shifts are applied by the verification
/// engine and the simulator, not by schedules themselves.
///
/// Implementations must be pure: `channel_at(t)` always returns the same
/// channel for the same `t` (determinism is part of the model and is what
/// the tests rely on).
///
/// # Bulk evaluation
///
/// The measurement engine ([`crate::verify`]) and the simulator never ask
/// for one slot at a time: they consume schedules in blocks through
/// [`fill_channels`](Schedule::fill_channels), which writes raw channel
/// numbers for a contiguous slot range into a caller-supplied buffer. The
/// default implementation loops `channel_at`, so every schedule gets the
/// bulk API for free; hot schedules override it to hoist per-slot work
/// (epoch div/mod, codeword lookups, wrapper arithmetic) out of the inner
/// loop. Overrides must be *bit-identical* to the default — the workspace
/// property tests enforce this. Periodic schedules can additionally be
/// flattened into one period table with [`crate::compiled::CompiledSchedule`],
/// which turns repeated sweeps into slice scans.
pub trait Schedule {
    /// The channel accessed at slot `t` (since wake-up).
    fn channel_at(&self, t: u64) -> Channel;

    /// If the schedule is periodic, its period. The verification engine
    /// uses this to bound exhaustive shift sweeps, and the compiled kernel
    /// uses it to size one-period tables; it must be a *true* period
    /// (`channel_at(t + p) == channel_at(t)` for all `t`), not an estimate.
    fn period_hint(&self) -> Option<u64> {
        None
    }

    /// Writes the raw channel numbers of slots `start..start + out.len()`
    /// into `out` (`out[i] = channel_at(start + i).get()`).
    ///
    /// This is the bulk entry point of the measurement kernels; overrides
    /// must match the default implementation exactly.
    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.channel_at(start + i as u64).get();
        }
    }
}

impl<S: Schedule + ?Sized> Schedule for &S {
    fn channel_at(&self, t: u64) -> Channel {
        (**self).channel_at(t)
    }
    fn period_hint(&self) -> Option<u64> {
        (**self).period_hint()
    }
    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        (**self).fill_channels(start, out)
    }
}

impl<S: Schedule + ?Sized> Schedule for Box<S> {
    fn channel_at(&self, t: u64) -> Channel {
        (**self).channel_at(t)
    }
    fn period_hint(&self) -> Option<u64> {
        (**self).period_hint()
    }
    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        (**self).fill_channels(start, out)
    }
}

/// The constant schedule: always the same channel (the degenerate size-one
/// case of the constructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantSchedule {
    channel: Channel,
}

impl ConstantSchedule {
    /// Creates a schedule that always hops on `channel`.
    pub fn new(channel: Channel) -> Self {
        ConstantSchedule { channel }
    }
}

impl Schedule for ConstantSchedule {
    fn channel_at(&self, _t: u64) -> Channel {
        self.channel
    }
    fn period_hint(&self) -> Option<u64> {
        Some(1)
    }
    fn fill_channels(&self, _start: u64, out: &mut [u64]) {
        out.fill(self.channel.get());
    }
}

/// A schedule cycling through an explicit finite sequence of channels.
///
/// # Example
///
/// ```
/// use rdv_core::channel::Channel;
/// use rdv_core::schedule::{CyclicSchedule, Schedule};
///
/// let s = CyclicSchedule::new(vec![Channel::new(1), Channel::new(5)]).unwrap();
/// assert_eq!(s.channel_at(0).get(), 1);
/// assert_eq!(s.channel_at(3).get(), 5);
/// assert_eq!(s.period_hint(), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclicSchedule {
    slots: Vec<Channel>,
}

impl CyclicSchedule {
    /// Creates a cyclic schedule from one period of slots.
    ///
    /// Returns `None` if `slots` is empty.
    pub fn new(slots: Vec<Channel>) -> Option<Self> {
        if slots.is_empty() {
            None
        } else {
            Some(CyclicSchedule { slots })
        }
    }

    /// One period of the schedule.
    pub fn slots(&self) -> &[Channel] {
        &self.slots
    }
}

impl Schedule for CyclicSchedule {
    fn channel_at(&self, t: u64) -> Channel {
        self.slots[(t % self.slots.len() as u64) as usize]
    }
    fn period_hint(&self) -> Option<u64> {
        Some(self.slots.len() as u64)
    }
    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        let p = self.slots.len();
        let mut idx = (start % p as u64) as usize;
        for slot in out.iter_mut() {
            *slot = self.slots[idx].get();
            idx += 1;
            if idx == p {
                idx = 0;
            }
        }
    }
}

/// A schedule shifted in time: plays `inner` starting from local slot
/// `offset` (used to model an agent that woke earlier).
#[derive(Debug, Clone, Copy)]
pub struct ShiftedSchedule<S> {
    inner: S,
    offset: u64,
}

impl<S: Schedule> ShiftedSchedule<S> {
    /// Wraps `inner`, advancing it by `offset` slots.
    pub fn new(inner: S, offset: u64) -> Self {
        ShiftedSchedule { inner, offset }
    }
}

impl<S: Schedule> Schedule for ShiftedSchedule<S> {
    fn channel_at(&self, t: u64) -> Channel {
        self.inner.channel_at(self.offset + t)
    }
    fn period_hint(&self) -> Option<u64> {
        self.inner.period_hint()
    }
    fn fill_channels(&self, start: u64, out: &mut [u64]) {
        self.inner.fill_channels(self.offset + start, out)
    }
}

/// A stable fingerprint of a schedule's first `horizon` slots — used by the
/// anonymity/determinism tests (two constructions of the same set must
/// produce identical fingerprints).
///
/// Consumes the schedule through the block kernel; bit-identical to
/// hashing `channel_at(0..horizon)` slot by slot.
pub fn fingerprint<S: Schedule + ?Sized>(s: &S, horizon: u64) -> u64 {
    // FNV-1a over the channel numbers, in fill_channels blocks.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = [0u64; 512];
    let mut t = 0u64;
    while t < horizon {
        let len = (horizon - t).min(buf.len() as u64) as usize;
        s.fill_channels(t, &mut buf[..len]);
        for &c in &buf[..len] {
            for byte in c.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        t += len as u64;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = ConstantSchedule::new(Channel::new(9));
        for t in [0u64, 1, 1000, u64::MAX] {
            assert_eq!(s.channel_at(t).get(), 9);
        }
        assert_eq!(s.period_hint(), Some(1));
    }

    #[test]
    fn cyclic_schedule_wraps() {
        let s =
            CyclicSchedule::new(vec![Channel::new(1), Channel::new(2), Channel::new(3)]).unwrap();
        let seq: Vec<u64> = (0..7).map(|t| s.channel_at(t).get()).collect();
        assert_eq!(seq, vec![1, 2, 3, 1, 2, 3, 1]);
    }

    #[test]
    fn cyclic_rejects_empty() {
        assert!(CyclicSchedule::new(vec![]).is_none());
    }

    #[test]
    fn shifted_schedule() {
        let s = CyclicSchedule::new(vec![Channel::new(1), Channel::new(2)]).unwrap();
        let shifted = ShiftedSchedule::new(&s, 1);
        assert_eq!(shifted.channel_at(0).get(), 2);
        assert_eq!(shifted.channel_at(1).get(), 1);
    }

    #[test]
    fn trait_object_usable() {
        let s: Box<dyn Schedule> = Box::new(ConstantSchedule::new(Channel::new(2)));
        assert_eq!(s.channel_at(5).get(), 2);
        let by_ref: &dyn Schedule = &s;
        assert_eq!(by_ref.channel_at(5).get(), 2);
    }

    #[test]
    fn fingerprint_distinguishes_and_agrees() {
        let a = CyclicSchedule::new(vec![Channel::new(1), Channel::new(2)]).unwrap();
        let b = CyclicSchedule::new(vec![Channel::new(1), Channel::new(2)]).unwrap();
        let c = CyclicSchedule::new(vec![Channel::new(2), Channel::new(1)]).unwrap();
        assert_eq!(fingerprint(&a, 64), fingerprint(&b, 64));
        assert_ne!(fingerprint(&a, 64), fingerprint(&c, 64));
    }
}
