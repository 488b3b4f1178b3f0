//! The bridge between Theorem 4's Ramsey argument and concrete schedule
//! families.
//!
//! Theorem 4 views the pair schedules of an `(n,2)`-schedule as an edge
//! coloring of `K_n` (color = the length-`T` schedule string) and argues:
//! a monochromatic *directed 2-path* `i < j < k` (edges `(i,j)`, `(j,k)`
//! with identical strings) kills synchronous rendezvous, and Ramsey's
//! theorem forces one whenever `n ≥ e·(2^T)!`. This module extracts the
//! induced coloring from any schedule family and searches it — yielding
//! either a *certificate of failure* (the monochromatic 2-path witness) or
//! evidence that the family's color diversity is adequate, as is the case
//! for the paper's Ramsey-colored construction.

use rdv_core::schedule::Schedule;
use rdv_ramsey::triangle::{find_monochromatic_two_path, FnColoring, Triangle};

/// A factory producing a schedule for any size-two channel set.
pub trait PairScheduleFamily {
    /// The schedule type.
    type S: Schedule;
    /// The schedule for the pair `{a, b}` (`a < b`).
    fn pair_schedule(&self, a: u64, b: u64) -> Self::S;
}

impl<F, S> PairScheduleFamily for F
where
    F: Fn(u64, u64) -> S,
    S: Schedule,
{
    type S = S;
    fn pair_schedule(&self, a: u64, b: u64) -> S {
        self(a, b)
    }
}

/// The induced Theorem 4 edge coloring: the color of edge `{a, b}` is the
/// fingerprint of the first `t_slots` of its schedule.
fn induced_color<F: PairScheduleFamily>(family: &F, a: u64, b: u64, t_slots: u64) -> u64 {
    let s = family.pair_schedule(a, b);
    // Encode the prefix exactly (two channels → one bit per slot) so equal
    // colors mean equal schedule prefixes, not just equal hashes.
    let mut color = 0u64;
    for t in 0..t_slots.min(63) {
        let bit = u64::from(s.channel_at(t).get() == b);
        color |= bit << t;
    }
    color
}

/// Searches the induced coloring of `family` over `[n]` for a
/// monochromatic directed 2-path within the first `t_slots` slots.
///
/// `Some(witness)` certifies that the family cannot guarantee synchronous
/// rendezvous within `t_slots` (the two path edges share channel `j` in
/// opposite roles but follow identical prefixes, so they never align on
/// it). `None` means the family survives the Theorem 4 attack at this
/// horizon — necessary (not sufficient) for correctness.
pub fn monochromatic_failure<F: PairScheduleFamily>(
    family: &F,
    n: u64,
    t_slots: u64,
) -> Option<Triangle> {
    let coloring = FnColoring::new(n, |a, b| induced_color(family, a, b, t_slots));
    find_monochromatic_two_path(&coloring)
}

/// Verifies the certificate: the two edges of the witness really do fail to
/// rendezvous synchronously within `t_slots`.
pub fn verify_failure<F: PairScheduleFamily>(family: &F, witness: &Triangle, t_slots: u64) -> bool {
    let lower = family.pair_schedule(witness.i, witness.j);
    let upper = family.pair_schedule(witness.j, witness.k);
    rdv_core::verify::sync_ttr(&lower, &upper, t_slots).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdv_core::pair::PairFamily;
    use rdv_core::schedule::CyclicSchedule;

    /// The "oblivious" family: every pair alternates smaller/larger — the
    /// classic construction Theorem 4 demolishes.
    fn oblivious(a: u64, b: u64) -> CyclicSchedule {
        CyclicSchedule::new(vec![
            rdv_core::channel::Channel::new(a),
            rdv_core::channel::Channel::new(b),
        ])
        .expect("non-empty")
    }

    #[test]
    fn oblivious_family_fails_ramsey_attack() {
        let witness = monochromatic_failure(&oblivious, 4, 8).expect("identical colors everywhere");
        assert!(
            verify_failure(&oblivious, &witness, 8),
            "certificate must verify"
        );
    }

    #[test]
    fn our_construction_survives_up_to_its_period() {
        // The paper's family: colors differ on every 2-path by Lemma 2, so
        // no monochromatic 2-path can exist at any horizon ≥ 1 slot where
        // codewords differ... verify across small universes at the full
        // period horizon.
        for n in [4u64, 8, 16, 32] {
            let fam = PairFamily::new(n).expect("n ≥ 2");
            let family = move |a: u64, b: u64| fam.schedule(a, b).expect("valid pair");
            let period = PairFamily::new(n).expect("n ≥ 2").period();
            let attack = monochromatic_failure(&family, n, period);
            if let Some(w) = attack {
                // A monochromatic 2-path in the induced coloring would be a
                // genuine bug only if it verifies.
                assert!(
                    !verify_failure(&family, &w, period),
                    "n = {n}: Theorem 4 witness {w:?} verified against our construction"
                );
            }
        }
    }

    #[test]
    fn induced_colors_reflect_schedule_prefixes() {
        let fam = PairFamily::new(8).expect("n ≥ 2");
        let family = move |a: u64, b: u64| fam.schedule(a, b).expect("valid pair");
        // Same Ramsey color ⇒ same codeword ⇒ same induced color.
        let c1 = induced_color(&family, 1, 2, 32);
        let c2 = induced_color(&family, 1, 2, 32);
        assert_eq!(c1, c2);
        // A 2-path must get different colors (Lemma 2 through the pipeline).
        let lower = induced_color(&family, 1, 2, 32);
        let upper = induced_color(&family, 2, 3, 32);
        assert_ne!(lower, upper, "2-path colors must differ");
    }

    #[test]
    fn certificate_rejects_sound_families() {
        // verify_failure on a pair that DOES rendezvous returns false.
        let fam = PairFamily::new(8).expect("n ≥ 2");
        let family = move |a: u64, b: u64| fam.schedule(a, b).expect("valid pair");
        let fake = Triangle {
            i: 1,
            j: 2,
            k: 3,
            color: 0,
        };
        assert!(!verify_failure(&family, &fake, 64));
    }
}
