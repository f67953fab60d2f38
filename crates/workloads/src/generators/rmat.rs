//! R-MAT graph generator and CSR representation.
//!
//! The paper's BFS workload runs on symmetric R-MAT graphs generated by the
//! Ligra framework. This module implements the classic recursive-matrix
//! generator (a = 0.57, b = c = 0.19, d = 0.05) and converts the edge list to
//! compressed sparse rows, which is what the BFS proxy traverses.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A directed graph in compressed sparse row format.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Row offsets, `num_vertices + 1` entries.
    pub offsets: Vec<u64>,
    /// Column indices (neighbour lists), `offsets[num_vertices]` entries.
    pub edges: Vec<u32>,
}

impl CsrGraph {
    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Neighbours of vertex `v`.
    pub fn neighbours(&self, v: usize) -> &[u32] {
        let start = self.offsets[v] as usize;
        let end = self.offsets[v + 1] as usize;
        &self.edges[start..end]
    }

    /// Out-degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Vertex with the largest out-degree (a good BFS root for R-MAT graphs,
    /// which have a giant connected component around the hubs).
    pub fn max_degree_vertex(&self) -> usize {
        (0..self.num_vertices)
            .max_by_key(|&v| self.degree(v))
            .unwrap_or(0)
    }

    /// Bytes of the offsets array (u64 entries).
    pub fn offsets_bytes(&self) -> u64 {
        (self.offsets.len() * 8) as u64
    }

    /// Bytes of the edge array (u32 entries).
    pub fn edges_bytes(&self) -> u64 {
        (self.edges.len() * 4) as u64
    }
}

/// Generates an R-MAT graph with `2^log_n` vertices and approximately
/// `num_edges` directed edges (duplicates are kept, self-loops dropped, and
/// each generated edge is also inserted in the reverse direction so the graph
/// is symmetric like the paper's inputs).
///
/// The edge list is never stored: the seeded edge stream is drawn twice,
/// once to count degrees and once to fill the rows.
pub fn rmat_graph(log_n: u32, num_edges: usize, seed: u64) -> CsrGraph {
    let n = 1usize << log_n;
    let quadrants = Quadrants::new(0.57, 0.19, 0.19);
    let edges = || RmatEdges {
        rng: StdRng::seed_from_u64(seed),
        quadrants,
        log_n,
        remaining: num_edges,
    };

    // Count degrees and build the row offsets.
    let mut degree = vec![0u64; n];
    for (src, dst) in edges() {
        degree[src as usize] += 1;
        degree[dst as usize] += 1;
    }
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    drop(degree);

    // Fill the rows in stream order, each edge and then its reverse.
    let mut cursor = offsets.clone();
    let mut edges_out = vec![0u32; offsets[n] as usize];
    for (src, dst) in edges() {
        for (s, d) in [(src, dst), (dst, src)] {
            let pos = &mut cursor[s as usize];
            edges_out[*pos as usize] = d;
            *pos += 1;
        }
    }

    CsrGraph {
        num_vertices: n,
        offsets,
        edges: edges_out,
    }
}

/// The recursive-matrix quadrant probabilities as integer thresholds on the
/// 53-bit mantissa of a uniform draw: a draw `m = next_u64() >> 11` picks
/// quadrant a, b, c or d as `m` falls below `a·2⁵³`, `(a+b)·2⁵³`,
/// `(a+b+c)·2⁵³` or none. The uniform `f64` is `m · 2⁻⁵³`, exactly, so the
/// integer comparisons choose what `f64` comparisons against `a`, `a + b`
/// and `a + b + c` would.
#[derive(Clone, Copy)]
struct Quadrants {
    thresholds: [u64; 3],
}

impl Quadrants {
    fn new(a: f64, b: f64, c: f64) -> Self {
        let scale = (1u64 << 53) as f64;
        let threshold = |p: f64| {
            let t = p * scale;
            assert!(
                t.fract() == 0.0 && (0.0..=scale).contains(&t),
                "threshold {p}·2⁵³ is not an exact integer"
            );
            t as u64
        };
        Self {
            thresholds: [threshold(a), threshold(a + b), threshold(a + b + c)],
        }
    }

    /// The (source bit, destination bit) of the quadrant mantissa `m` picks,
    /// without a branch: the source bit is set in quadrants c and d, the
    /// destination bit in b and d.
    #[inline]
    fn pick(&self, m: u64) -> (usize, usize) {
        let [past_a, past_b, past_c] = self.thresholds.map(|t| usize::from(m >= t));
        (past_b, past_a ^ past_b ^ past_c)
    }
}

/// The seeded R-MAT edge stream: `remaining` draws of one edge each, with
/// self-loops dropped.
struct RmatEdges {
    rng: StdRng,
    quadrants: Quadrants,
    log_n: u32,
    remaining: usize,
}

impl Iterator for RmatEdges {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        while self.remaining > 0 {
            self.remaining -= 1;
            let mut src = 0usize;
            let mut dst = 0usize;
            for level in (0..self.log_n).rev() {
                let (sbit, dbit) = self.quadrants.pick(self.rng.next_u64() >> 11);
                src |= sbit << level;
                dst |= dbit << level;
            }
            if src != dst {
                return Some((src as u32, dst as u32));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_structure_is_consistent() {
        let g = rmat_graph(10, 4000, 7);
        assert_eq!(g.num_vertices, 1024);
        assert_eq!(g.offsets.len(), 1025);
        assert_eq!(g.offsets[0], 0);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.edges.len());
        for w in g.offsets.windows(2) {
            assert!(w[1] >= w[0], "offsets must be monotonic");
        }
        for &e in &g.edges {
            assert!((e as usize) < g.num_vertices);
        }
    }

    #[test]
    fn graph_is_symmetric() {
        let g = rmat_graph(8, 1000, 42);
        // Every edge (u, v) has a reverse edge (v, u).
        for u in 0..g.num_vertices {
            for &v in g.neighbours(u) {
                assert!(
                    g.neighbours(v as usize).contains(&(u as u32)),
                    "missing reverse edge ({v}, {u})"
                );
            }
        }
    }

    #[test]
    fn degrees_are_skewed() {
        // R-MAT graphs are scale-free-ish: the hub should have a much larger
        // degree than the average.
        let g = rmat_graph(12, 32_768, 1);
        let hub = g.max_degree_vertex();
        let avg = g.num_edges() as f64 / g.num_vertices as f64;
        assert!(
            g.degree(hub) as f64 > 8.0 * avg,
            "hub degree {} vs average {avg}",
            g.degree(hub)
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = rmat_graph(8, 500, 9);
        let b = rmat_graph(8, 500, 9);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.offsets, b.offsets);
        let c = rmat_graph(8, 500, 10);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn no_self_loops() {
        let g = rmat_graph(8, 2000, 3);
        for u in 0..g.num_vertices {
            for &v in g.neighbours(u) {
                assert_ne!(u as u32, v);
            }
        }
    }

    /// The CSR arrays of a small graph, pinned by FNV-1a digests of their
    /// little-endian bytes: the generator's output must not drift.
    #[test]
    fn csr_arrays_are_pinned() {
        let g = rmat_graph(10, 4000, 7);
        let offsets: Vec<u8> = g.offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
        let edges: Vec<u8> = g.edges.iter().flat_map(|e| e.to_le_bytes()).collect();
        assert_eq!(g.edges.len(), 7928);
        assert_eq!(dismem_trace::fnv1a64(&offsets), 0xc39f_c397_8dcc_31da);
        assert_eq!(dismem_trace::fnv1a64(&edges), 0xb4a4_1535_3a37_626a);
    }

    #[test]
    fn quadrant_thresholds_choose_as_the_float_comparisons_do() {
        let (a, b, c) = (0.57f64, 0.19f64, 0.19f64);
        let quadrants = Quadrants::new(a, b, c);
        let float_pick = |m: u64| {
            let r = m as f64 * (1.0 / (1u64 << 53) as f64);
            if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            }
        };
        for t in quadrants.thresholds {
            for m in [t.saturating_sub(1), t, t + 1] {
                assert_eq!(quadrants.pick(m), float_pick(m), "mantissa {m}");
            }
        }
        for m in [0, (1u64 << 53) - 1] {
            assert_eq!(quadrants.pick(m), float_pick(m));
        }
    }

    #[test]
    fn byte_size_helpers() {
        let g = rmat_graph(6, 100, 0);
        assert_eq!(g.offsets_bytes(), (g.num_vertices as u64 + 1) * 8);
        assert_eq!(g.edges_bytes(), g.num_edges() as u64 * 4);
    }
}
