//! # blind-rendezvous
//!
//! A complete Rust reproduction of *Deterministic Blind Rendezvous in
//! Cognitive Radio Networks* (Chen, Russell, Samanta, Sundaram; ICDCS
//! 2014): deterministic channel-hopping schedules that guarantee any two
//! anonymous, asynchronous radios with overlapping channel sets `A, B ⊆ [n]`
//! rendezvous within `O(|A|·|B|·log log n)` slots — plus everything the
//! paper measures itself against: the CRSEQ / Jump-Stay / DRDS baselines,
//! the `Ω(log log n)`, `Ω(αk)` and `Ω(kℓ)` lower-bound harnesses, the
//! one-bit-beacon protocols, and the one-round SDP approximation from the
//! appendix.
//!
//! ## Crate map
//!
//! | need | crate (re-exported module) |
//! |------|----------------------------|
//! | build schedules, measure rendezvous | [`core`] (`rdv-core`) |
//! | binary-string substrate of Theorem 1 | [`strings`] (`rdv-strings`) |
//! | primes / CRT / fields | [`numtheory`] (`rdv-numtheory`) |
//! | the 2-Ramsey coloring | [`ramsey`] (`rdv-ramsey`) |
//! | prior-art baselines | [`baselines`] (`rdv-baselines`) |
//! | beacon protocols | [`beacon`] (`rdv-beacon`) |
//! | lower-bound searches | [`lower`] (`rdv-lower`) |
//! | one-round SDP | [`sdp`] (`rdv-sdp`) |
//! | simulator & sweeps | [`sim`] (`rdv-sim`) |
//!
//! ## Quickstart
//!
//! ```
//! use blind_rendezvous::prelude::*;
//!
//! let n = 128; // channel universe [n]
//! let alice = ChannelSet::new(vec![7, 42, 99]).unwrap();
//! let bob = ChannelSet::new(vec![13, 42, 81, 100]).unwrap();
//!
//! let sa = GeneralSchedule::asynchronous(n, alice).unwrap();
//! let sb = GeneralSchedule::asynchronous(n, bob).unwrap();
//!
//! // Bob wakes 1000 slots after Alice; they still meet, fast:
//! let ttr = async_ttr(&sa, &sb, 1000, 1_000_000).unwrap();
//! assert!(ttr <= sa.ttr_bound(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod history;
pub mod pipelines;
pub mod report;

pub use rdv_baselines as baselines;
pub use rdv_beacon as beacon;
pub use rdv_core as core;
pub use rdv_lower as lower;
pub use rdv_numtheory as numtheory;
pub use rdv_ramsey as ramsey;
pub use rdv_sdp as sdp;
pub use rdv_sim as sim;
pub use rdv_strings as strings;

/// The most common imports, in one place.
pub mod prelude {
    pub use rdv_baselines::{Crseq, Drds, JumpStay, RandomHopping};
    pub use rdv_beacon::{BeaconProtocolA, BeaconProtocolB, BeaconStream};
    pub use rdv_core::channel::{Channel, ChannelSet};
    pub use rdv_core::general::GeneralSchedule;
    pub use rdv_core::pair::PairFamily;
    pub use rdv_core::schedule::Schedule;
    pub use rdv_core::symmetric::SymmetricWrapped;
    pub use rdv_core::verify::{async_ttr, sync_ttr, worst_async_ttr};
    pub use rdv_sim::{Algorithm, Simulation};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let set = ChannelSet::new(vec![1, 2, 3]).unwrap();
        let s = GeneralSchedule::asynchronous(8, set).unwrap();
        assert!(sync_ttr(&s, &s, 4).is_some());
    }
}
