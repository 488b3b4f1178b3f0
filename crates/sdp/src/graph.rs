//! The orientation-maximization instance: a multigraph of size-two agents.

/// A graph whose edges are agents with two channels each.
///
/// Vertices are channels `0..n_vertices`; parallel edges are allowed (two
/// agents may own the same channel pair). The *initial orientation* of edge
/// `(u, v)` is `u → v` as given.
///
/// # Example
///
/// ```
/// use rdv_sdp::OrientGraph;
///
/// // A star on 4 leaves: best one-round outcome orients everything inward.
/// let g = OrientGraph::new(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
/// assert_eq!(g.incident_pairs().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrientGraph {
    n_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl OrientGraph {
    /// Validates and builds an instance.
    ///
    /// Returns `None` if any edge is a self-loop or touches a vertex
    /// `≥ n_vertices`, or if there are no edges.
    pub fn new(n_vertices: usize, edges: Vec<(u32, u32)>) -> Option<Self> {
        if edges.is_empty() {
            return None;
        }
        for &(u, v) in &edges {
            if u == v || u as usize >= n_vertices || v as usize >= n_vertices {
                return None;
            }
        }
        Some(OrientGraph { n_vertices, edges })
    }

    /// Number of vertices (channels).
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// The edges (agents), in input order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of edges (agents).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// All incident edge pairs `(e, f, w)` with `e < f` sharing vertex `w`.
    ///
    /// Edges sharing *both* endpoints contribute two pairs (one per shared
    /// vertex), matching the appendix's count of rendezvousing agent pairs
    /// by meeting channel.
    pub fn incident_pairs(&self) -> Vec<(usize, usize, u32)> {
        let mut out = Vec::new();
        for i in 0..self.edges.len() {
            for j in i + 1..self.edges.len() {
                let (a, b) = self.edges[i];
                let (c, d) = self.edges[j];
                for w in [a, b] {
                    if w == c || w == d {
                        out.push((i, j, w));
                    }
                }
            }
        }
        out
    }

    /// `+1` if edge `e` initially points into `w`, `−1` if away.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not an endpoint of `e`.
    fn direction_into(&self, e: usize, w: u32) -> i32 {
        let (u, v) = self.edges[e];
        if v == w {
            1
        } else if u == w {
            -1
        } else {
            panic!("vertex {w} is not an endpoint of edge {e}")
        }
    }

    /// Counts in-pairs under an orientation (`x[e] = true` keeps the initial
    /// direction, `false` flips it).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_edges()`.
    pub fn in_pairs(&self, x: &[bool]) -> usize {
        assert_eq!(x.len(), self.n_edges(), "orientation length mismatch");
        self.incident_pairs()
            .iter()
            .filter(|&&(e, f, w)| {
                let xe = if x[e] { 1 } else { -1 };
                let xf = if x[f] { 1 } else { -1 };
                xe * self.direction_into(e, w) == 1 && xf * self.direction_into(f, w) == 1
            })
            .count()
    }

    /// Counts in-pairs plus out-pairs under an orientation — the quantity
    /// the SDP relaxes.
    pub fn in_plus_out_pairs(&self, x: &[bool]) -> usize {
        assert_eq!(x.len(), self.n_edges(), "orientation length mismatch");
        self.incident_pairs()
            .iter()
            .filter(|&&(e, f, w)| {
                let xe = if x[e] { 1 } else { -1 };
                let xf = if x[f] { 1 } else { -1 };
                xe * self.direction_into(e, w) == xf * self.direction_into(f, w)
            })
            .count()
    }

    /// The sign `sgn(e, f)` of the SDP objective: `+1` when keeping both
    /// initial orientations makes the pair an in-pair or out-pair at their
    /// shared vertex, `−1` for a cross-pair.
    pub fn pair_sign(&self, e: usize, f: usize, w: u32) -> i32 {
        self.direction_into(e, w) * self.direction_into(f, w)
    }

    /// A seeded random multigraph: a vertex count drawn from `nv_range`,
    /// an edge count from `ne_range`, and that many uniform non-loop
    /// edges (parallel edges allowed) — deterministic given the seed.
    /// The instance generator behind the SDP pipeline's `random-*`
    /// families and the solver's randomized tests.
    ///
    /// # Panics
    ///
    /// Panics if the ranges admit `nv < 2` or `ne < 1` draws (no
    /// non-loop edge exists / the graph would be empty).
    pub fn seeded_random(
        seed: u64,
        nv_range: std::ops::Range<usize>,
        ne_range: std::ops::Range<usize>,
    ) -> Self {
        use rand::{Rng, SeedableRng};
        assert!(nv_range.start >= 2, "non-loop edges need two vertices");
        assert!(ne_range.start >= 1, "instances need at least one edge");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nv = rng.gen_range(nv_range);
        let ne = rng.gen_range(ne_range);
        let edges: Vec<(u32, u32)> = (0..ne)
            .map(|_| {
                let u = rng.gen_range(0..nv as u32);
                let mut v = rng.gen_range(0..nv as u32);
                while v == u {
                    v = rng.gen_range(0..nv as u32);
                }
                (u, v)
            })
            .collect();
        OrientGraph::new(nv, edges).expect("non-loop edges within the universe")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(OrientGraph::new(3, vec![]).is_none());
        assert!(OrientGraph::new(3, vec![(0, 0)]).is_none());
        assert!(OrientGraph::new(3, vec![(0, 3)]).is_none());
        assert!(OrientGraph::new(3, vec![(0, 2)]).is_some());
    }

    #[test]
    fn path_graph_pairs() {
        // Path 0-1-2: one incident pair at vertex 1.
        let g = OrientGraph::new(3, vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.incident_pairs(), vec![(0, 1, 1)]);
        // Initial orientations: 0→1 (into 1), 1→2 (out of 1): cross-pair.
        assert_eq!(g.pair_sign(0, 1, 1), -1);
        assert_eq!(g.in_pairs(&[true, true]), 0);
        // Flip the second edge: 0→1, 2→1: in-pair.
        assert_eq!(g.in_pairs(&[true, false]), 1);
        assert_eq!(g.in_plus_out_pairs(&[true, false]), 1);
        // Flip the first instead: 1→0, 1→2: out-pair (counts for in+out).
        assert_eq!(g.in_pairs(&[false, true]), 0);
        assert_eq!(g.in_plus_out_pairs(&[false, true]), 1);
    }

    #[test]
    fn star_counts() {
        let g = OrientGraph::new(5, vec![(1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        // All initial orientations point into the hub: C(4,2) in-pairs.
        assert_eq!(g.in_pairs(&[true; 4]), 6);
        // One flipped: C(3,2) = 3 in-pairs remain.
        assert_eq!(g.in_pairs(&[false, true, true, true]), 3);
    }

    #[test]
    fn parallel_edges_share_two_vertices() {
        let g = OrientGraph::new(2, vec![(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.incident_pairs().len(), 2);
        // Same direction: in-pair at vertex 1 (both into), out-pair at 0.
        assert_eq!(g.in_pairs(&[true, true]), 1);
        assert_eq!(g.in_plus_out_pairs(&[true, true]), 2);
        // Opposite directions: two cross-pairs.
        assert_eq!(g.in_pairs(&[true, false]), 0);
        assert_eq!(g.in_plus_out_pairs(&[true, false]), 0);
    }

    #[test]
    fn seeded_random_is_deterministic_and_valid() {
        let a = OrientGraph::seeded_random(7, 5..9, 6..13);
        let b = OrientGraph::seeded_random(7, 5..9, 6..13);
        assert_eq!(a, b, "same seed must reproduce the instance");
        assert_ne!(a, OrientGraph::seeded_random(8, 5..9, 6..13));
        assert!((5..9).contains(&a.n_vertices()));
        assert!((6..13).contains(&a.n_edges()));
        for &(u, v) in a.edges() {
            assert_ne!(u, v, "no self-loops");
        }
    }

    #[test]
    fn triangle_max_is_one() {
        // A directed triangle can realize at most one in-pair.
        let g = OrientGraph::new(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut best = 0;
        for mask in 0u32..8 {
            let x: Vec<bool> = (0..3).map(|i| mask >> i & 1 == 1).collect();
            best = best.max(g.in_pairs(&x));
        }
        assert_eq!(best, 1);
    }
}
