//! Exact optimal rendezvous times for size-two channel sets, by exhaustive
//! constraint search.
//!
//! An `(n,2)`-schedule assigns to every edge `{a, b}` of `K_n` a binary
//! string (`0` = smaller channel, `1` = larger). Rendezvous within `T`
//! slots imposes, per overlapping edge pair, that a specific aligned tuple
//! occurs among the first `T` symbols:
//!
//! | configuration | tuple required |
//! |---------------|----------------|
//! | shared smallest (`a₀ = b₀`) | `(0,0)` |
//! | shared largest (`a₁ = b₁`)  | `(1,1)` |
//! | 2-path (`a₁ = b₀`)          | `(1,0)` |
//! | 2-path (`a₀ = b₁`)          | `(0,1)` |
//!
//! `R_s(n,2)` is the least `T` for which an assignment exists — a binary
//! CSP over domains `{0,1}^T` solved here by backtracking with forward
//! checking. The asynchronous variant treats strings as cyclic and
//! quantifies the tuples over every relative rotation (and adds the unary
//! self-rendezvous constraint `∀d ∃τ: x_{τ+d} = x_τ`), yielding the least
//! `T` achievable by period-`T` cyclic schedules — an upper-bound proxy
//! for `R_a(n,2)` that is exact within the cyclic family.

/// Outcome of a bounded exhaustive search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A valid assignment exists; the optimum is this `T`.
    Optimal(u32),
    /// No assignment exists for any `T ≤ max_t`.
    ExceedsMax,
    /// The node budget was exhausted before the search completed.
    Unknown,
}

/// How two edges of `K_n` overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overlap {
    SharedSmallest,
    SharedLargest,
    PathFirstLarger,  // a₁ = b₀: first edge plays 1, second plays 0
    PathSecondLarger, // a₀ = b₁
}

fn classify(a: (u64, u64), b: (u64, u64)) -> Option<Overlap> {
    if a == b {
        return None; // identical sets rendezvous trivially (synchronous)
    }
    if a.0 == b.0 {
        Some(Overlap::SharedSmallest)
    } else if a.1 == b.1 {
        Some(Overlap::SharedLargest)
    } else if a.1 == b.0 {
        Some(Overlap::PathFirstLarger)
    } else if a.0 == b.1 {
        Some(Overlap::PathSecondLarger)
    } else {
        None
    }
}

/// Whether strings `x`, `y` (bit `t` = slot `t`, `T` slots) contain the
/// aligned tuple required by `kind`.
fn sync_ok(x: u32, y: u32, kind: Overlap, mask: u32) -> bool {
    match kind {
        Overlap::SharedSmallest => !x & !y & mask != 0,
        Overlap::SharedLargest => x & y & mask != 0,
        Overlap::PathFirstLarger => x & !y & mask != 0,
        Overlap::PathSecondLarger => !x & y & mask != 0,
    }
}

fn rotate(x: u32, d: u32, t: u32) -> u32 {
    let mask = (1u32 << t) - 1;
    ((x >> d) | (x << (t - d))) & mask
}

/// Cyclic variant: the tuple must occur for *every* relative rotation.
fn cyclic_ok(x: u32, y: u32, kind: Overlap, t: u32) -> bool {
    let mask = (1u32 << t) - 1;
    (0..t).all(|d| sync_ok(rotate(x, d, t), y, kind, mask))
}

/// Unary cyclic self-constraint: a set must rendezvous with itself under
/// every shift (`∀d ∃τ: x_{τ+d} = x_τ`).
fn cyclic_self_ok(x: u32, t: u32) -> bool {
    let mask = (1u32 << t) - 1;
    (0..t).all(|d| {
        let r = rotate(x, d, t);
        // Some aligned position with equal symbols: (0,0) or (1,1).
        (!x & !r & mask != 0) || (x & r & mask != 0)
    })
}

struct Csp {
    /// Edges of K_n as (smaller, larger), in index order.
    edges: Vec<(u64, u64)>,
    /// Constraint kinds per ordered variable pair (i < j).
    constraints: Vec<(usize, usize, Overlap)>,
    t: u32,
    cyclic: bool,
    node_budget: u64,
}

impl Csp {
    fn new(n: u64, t: u32, cyclic: bool, node_budget: u64) -> Self {
        let mut edges = Vec::new();
        for a in 1..=n {
            for b in a + 1..=n {
                edges.push((a, b));
            }
        }
        let mut constraints = Vec::new();
        for i in 0..edges.len() {
            for j in i + 1..edges.len() {
                if let Some(kind) = classify(edges[i], edges[j]) {
                    constraints.push((i, j, kind));
                }
            }
        }
        Csp {
            edges,
            constraints,
            t,
            cyclic,
            node_budget,
        }
    }

    fn pair_ok(&self, x: u32, y: u32, kind: Overlap) -> bool {
        if self.cyclic {
            cyclic_ok(x, y, kind, self.t)
        } else {
            sync_ok(x, y, kind, (1u32 << self.t) - 1)
        }
    }

    /// Backtracking with forward checking over bitmask domains.
    fn solve(&self) -> (Option<Vec<u32>>, bool) {
        let nvals = 1u32 << self.t;
        let full: u64 = if nvals >= 64 {
            u64::MAX
        } else {
            (1u64 << nvals) - 1
        };
        // Unary filtering.
        let mut base = full;
        if self.cyclic {
            base = 0;
            for v in 0..nvals {
                if cyclic_self_ok(v, self.t) {
                    base |= 1u64 << v;
                }
            }
            if base == 0 {
                return (None, true);
            }
        }
        // Adjacency: constraints per variable.
        let nv = self.edges.len();
        let mut adj: Vec<Vec<(usize, Overlap, bool)>> = vec![Vec::new(); nv];
        for &(i, j, kind) in &self.constraints {
            adj[i].push((j, kind, true)); // i is the "x" side
            adj[j].push((i, kind, false));
        }
        let mut domains = vec![base; nv];
        let mut assignment: Vec<Option<u32>> = vec![None; nv];
        let mut nodes = 0u64;
        let ok = self.backtrack(&mut domains, &mut assignment, &adj, &mut nodes);
        match ok {
            Some(true) => (
                Some(
                    assignment
                        .into_iter()
                        .map(|a| a.expect("complete"))
                        .collect(),
                ),
                true,
            ),
            Some(false) => (None, true),
            None => (None, false), // budget exhausted
        }
    }

    fn backtrack(
        &self,
        domains: &mut [u64],
        assignment: &mut [Option<u32>],
        adj: &[Vec<(usize, Overlap, bool)>],
        nodes: &mut u64,
    ) -> Option<bool> {
        *nodes += 1;
        if *nodes > self.node_budget {
            return None;
        }
        // MRV: unassigned variable with smallest domain.
        let var = match (0..domains.len())
            .filter(|&v| assignment[v].is_none())
            .min_by_key(|&v| domains[v].count_ones())
        {
            Some(v) => v,
            None => return Some(true),
        };
        let dom = domains[var];
        let mut value_bits = dom;
        while value_bits != 0 {
            let val = value_bits.trailing_zeros();
            value_bits &= value_bits - 1;
            assignment[var] = Some(val);
            // Forward check neighbors.
            let saved = domains.to_vec();
            let mut dead = false;
            for &(other, kind, var_is_x) in &adj[var] {
                if assignment[other].is_some() {
                    let ov = assignment[other].unwrap();
                    let ok = if var_is_x {
                        self.pair_ok(val, ov, kind)
                    } else {
                        self.pair_ok(ov, val, kind)
                    };
                    if !ok {
                        dead = true;
                        break;
                    }
                    continue;
                }
                let mut newdom = 0u64;
                let mut bits = domains[other];
                while bits != 0 {
                    let w = bits.trailing_zeros();
                    bits &= bits - 1;
                    let ok = if var_is_x {
                        self.pair_ok(val, w, kind)
                    } else {
                        self.pair_ok(w, val, kind)
                    };
                    if ok {
                        newdom |= 1u64 << w;
                    }
                }
                if newdom == 0 {
                    dead = true;
                    break;
                }
                domains[other] = newdom;
            }
            if !dead {
                match self.backtrack(domains, assignment, adj, nodes) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            domains.copy_from_slice(&saved);
            assignment[var] = None;
        }
        Some(false)
    }
}

/// A satisfying `(n,2)`-schedule assignment: one string per edge of `K_n`
/// (edges in lexicographic order), each of length `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Edge list in the same order as `strings`.
    pub edges: Vec<(u64, u64)>,
    /// Schedule strings as bit-packed `u32`s (bit `t` = slot `t`).
    pub strings: Vec<u32>,
    /// The schedule length `T`.
    pub t: u32,
}

/// Computes the exact synchronous optimum `R_s(n, 2)`: the least `T ≤ max_t`
/// for which a valid `(n,2)`-schedule of length `T` exists.
///
/// `node_budget` bounds the search (per `T`); exceeding it yields
/// [`SearchOutcome::Unknown`].
pub fn exact_rs_n2(n: u64, max_t: u32, node_budget: u64) -> SearchOutcome {
    search(n, max_t, false, node_budget).0
}

/// Like [`exact_rs_n2`] but for cyclic schedules evaluated under every
/// relative rotation — the exact optimum within period-`T` cyclic families,
/// and an upper bound witness for `R_a(n, 2)`.
pub fn exact_ra_n2_cyclic(n: u64, max_t: u32, node_budget: u64) -> SearchOutcome {
    search(n, max_t, true, node_budget).0
}

fn search(
    n: u64,
    max_t: u32,
    cyclic: bool,
    node_budget: u64,
) -> (SearchOutcome, Option<Assignment>) {
    assert!(n >= 2, "need at least one edge");
    assert!(max_t <= 6, "domains are capped at 2^6 values");
    let mut sawunknown = false;
    for t in 1..=max_t {
        let csp = Csp::new(n, t, cyclic, node_budget);
        let (sol, complete) = csp.solve();
        if let Some(strings) = sol {
            return (
                SearchOutcome::Optimal(t),
                Some(Assignment {
                    edges: csp.edges,
                    strings,
                    t,
                }),
            );
        }
        if !complete {
            sawunknown = true;
        }
    }
    if sawunknown {
        (SearchOutcome::Unknown, None)
    } else {
        (SearchOutcome::ExceedsMax, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_behaves() {
        // x = 0b011 (slots: 1,1,0), rotate forward by 1: slots 1,0,1 = 0b101.
        assert_eq!(rotate(0b011, 1, 3), 0b101);
        assert_eq!(rotate(0b011, 0, 3), 0b011);
        assert_eq!(rotate(0b1, 1, 1), 0b1);
    }

    #[test]
    fn classify_cases() {
        assert_eq!(classify((1, 2), (1, 3)), Some(Overlap::SharedSmallest));
        assert_eq!(classify((1, 3), (2, 3)), Some(Overlap::SharedLargest));
        assert_eq!(classify((1, 2), (2, 3)), Some(Overlap::PathFirstLarger));
        assert_eq!(classify((2, 3), (1, 2)), Some(Overlap::PathSecondLarger));
        assert_eq!(classify((1, 2), (3, 4)), None);
        assert_eq!(classify((1, 2), (1, 2)), None);
    }

    #[test]
    fn n2_needs_one_slot() {
        assert_eq!(exact_rs_n2(2, 3, 1 << 20), SearchOutcome::Optimal(1));
    }

    #[test]
    fn n3_exact_value() {
        // K_3: edges A=(1,2), B=(1,3), C=(2,3) with constraints
        // (A,B) ∋ (0,0), (A,C) ∋ (1,0), (B,C) ∋ (1,1). A needs both a 0 and
        // a 1, so T=2 forces A ∈ {01, 10}, and either choice pins B and C
        // into contradiction (e.g. A=01 ⇒ B₀=0 and C₁=0, leaving no slot
        // for (B,C)=(1,1)). T=3 admits A=011, B=011, C=110.
        assert_eq!(exact_rs_n2(3, 4, 1 << 22), SearchOutcome::Optimal(3));
    }

    #[test]
    fn small_n_values_are_monotone() {
        let mut last = 0;
        for n in 2..=8u64 {
            match exact_rs_n2(n, 5, 1 << 24) {
                SearchOutcome::Optimal(t) => {
                    assert!(t >= last, "R_s({n},2) = {t} dropped below {last}");
                    last = t;
                }
                other => panic!("R_s({n},2) search failed: {other:?}"),
            }
        }
        // Theorem 4: the optimum must grow; by n = 8 it exceeds the n = 2
        // value.
        assert!(last >= 2);
    }

    #[test]
    fn witness_actually_satisfies_constraints() {
        let (outcome, witness) = search(5, 5, false, 1 << 24);
        let SearchOutcome::Optimal(t) = outcome else {
            panic!("no optimum found: {outcome:?}");
        };
        let w = witness.expect("witness accompanies Optimal");
        assert_eq!(w.t, t);
        let mask = (1u32 << t) - 1;
        for (i, &e) in w.edges.iter().enumerate() {
            for (j, &f) in w.edges.iter().enumerate() {
                if i < j {
                    if let Some(kind) = classify(e, f) {
                        assert!(
                            sync_ok(w.strings[i], w.strings[j], kind, mask),
                            "witness violates {e:?} vs {f:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cyclic_optimum_at_least_sync() {
        for n in 2..=5u64 {
            let s = exact_rs_n2(n, 5, 1 << 24);
            let c = exact_ra_n2_cyclic(n, 5, 1 << 24);
            if let (SearchOutcome::Optimal(ts), SearchOutcome::Optimal(tc)) = (s, c) {
                assert!(tc >= ts, "n = {n}: cyclic {tc} < sync {ts}");
            }
        }
    }

    #[test]
    fn cyclic_self_constraint_rejects_alternation() {
        assert!(!cyclic_self_ok(0b10, 2)); // "01" fails at shift 1
        assert!(cyclic_self_ok(0b110, 3));
        assert!(cyclic_self_ok(0b0, 1));
    }

    #[test]
    fn unsat_when_max_t_too_small() {
        assert_eq!(exact_rs_n2(6, 1, 1 << 22), SearchOutcome::ExceedsMax);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // An absurdly small budget cannot even finish T=1.
        match exact_rs_n2(8, 4, 4) {
            SearchOutcome::Unknown => {}
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn identical_edges_are_unconstrained() {
        // Full overlap (the same edge twice) rendezvouses trivially under
        // synchrony — classify must exclude it rather than emit a
        // vacuous/contradictory constraint.
        assert_eq!(classify((2, 5), (2, 5)), None);
        // And fully disjoint edges share no channel to meet on: no
        // constraint either.
        assert_eq!(classify((1, 2), (5, 9)), None);
        assert_eq!(classify((1, 4), (2, 3)), None);
    }

    #[test]
    fn k3_generates_exactly_its_overlapping_constraints() {
        // K_3's three edges pairwise overlap in exactly one channel
        // (disjoint-except-one in every configuration): 3 constraints, one
        // per pair, none self.
        let csp = Csp::new(3, 2, false, 1 << 10);
        assert_eq!(csp.edges, vec![(1, 2), (1, 3), (2, 3)]);
        assert_eq!(csp.constraints.len(), 3);
        for &(i, j, _) in &csp.constraints {
            assert!(i < j, "constraints must be ordered");
        }
        // K_4 has 6 edges; of the 15 pairs only the 3 perfect matchings'
        // disjoint pairs drop out: 15 − 3 = 12 constraints.
        let csp4 = Csp::new(4, 2, false, 1 << 10);
        assert_eq!(csp4.edges.len(), 6);
        assert_eq!(csp4.constraints.len(), 12);
    }

    #[test]
    fn sync_tuples_match_their_configurations() {
        let mask = 0b11u32;
        // Shared smallest needs an aligned (0,0): x=01, y=10 has (0,·)
        // only at slot 1 where y=1 — no.
        assert!(!sync_ok(0b10, 0b01, Overlap::SharedSmallest, mask));
        assert!(sync_ok(0b10, 0b10, Overlap::SharedSmallest, mask));
        // Shared largest needs (1,1).
        assert!(sync_ok(0b10, 0b11, Overlap::SharedLargest, mask));
        assert!(!sync_ok(0b01, 0b10, Overlap::SharedLargest, mask));
        // 2-paths need the opposing tuples.
        assert!(sync_ok(0b01, 0b10, Overlap::PathFirstLarger, mask));
        assert!(!sync_ok(0b01, 0b01, Overlap::PathFirstLarger, mask));
        assert!(sync_ok(0b10, 0b01, Overlap::PathSecondLarger, mask));
    }

    #[test]
    fn cyclic_single_edge_needs_one_slot() {
        // n = 2: one edge, only the unary self-rendezvous constraint; the
        // constant 1-slot string satisfies every rotation of itself.
        assert_eq!(exact_ra_n2_cyclic(2, 3, 1 << 16), SearchOutcome::Optimal(1));
    }

    #[test]
    fn cyclic_budget_exhaustion_reports_unknown() {
        match exact_ra_n2_cyclic(3, 6, 2) {
            SearchOutcome::Unknown => {}
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn witness_absent_unless_optimal() {
        let (outcome, witness) = search(6, 1, false, 1 << 22);
        assert_eq!(outcome, SearchOutcome::ExceedsMax);
        assert!(witness.is_none(), "no witness without an optimum");
    }

    #[test]
    #[should_panic(expected = "capped at 2^6")]
    fn oversized_domain_rejected() {
        exact_rs_n2(3, 7, 1 << 10);
    }

    #[test]
    fn rotate_full_shift_is_identity_adjacent() {
        // Rotating by t−1 then by 1 returns the original string.
        for x in 0u32..(1 << 4) {
            assert_eq!(rotate(rotate(x, 3, 4), 1, 4), x);
        }
    }
}
