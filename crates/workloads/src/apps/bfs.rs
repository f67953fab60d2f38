//! Ligra-style breadth-first search on an R-MAT graph.
//!
//! This proxy reproduces the BFS memory behaviour the paper analyses in depth
//! (Section 7.1): a large CSR graph whose adjacency data is streamed, a small
//! but very hot `Parents` array accessed randomly for every traversed edge,
//! a temporary object left over from graph construction, and per-level
//! dynamically allocated frontiers.
//!
//! With the default first-touch policy, the allocation order determines which
//! objects end up in node-local memory once the local tier is smaller than
//! the footprint. [`BfsOptimization`] exposes the three placements studied in
//! the paper's first case study:
//!
//! * `Baseline` — Ligra's natural order: graph arrays first, `Parents` last,
//!   construction temporary never freed;
//! * `ReorderAllocations` — `Parents` allocated and initialized first, so the
//!   hottest object lands in local memory;
//! * `ReorderAndFreeTemp` — additionally frees the construction temporary
//!   (the paper's "1-line change"), so dynamic frontier allocations can also
//!   use local memory.

use crate::generators::rmat::{rmat_graph, CsrGraph};
use crate::workload::{InputScale, Workload};
use dismem_trace::{AccessKind, MemoryEngine, ObjectHandle};
use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

/// Data-placement variant for the BFS case study (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BfsOptimization {
    /// Natural Ligra allocation order, temporary kept alive.
    #[default]
    Baseline,
    /// Allocate and initialize `Parents` before the graph arrays.
    ReorderAllocations,
    /// Reorder allocations and free the construction temporary after setup.
    ReorderAndFreeTemp,
}

impl BfsOptimization {
    /// All variants in the order the case study presents them.
    pub fn all() -> [BfsOptimization; 3] {
        [
            BfsOptimization::Baseline,
            BfsOptimization::ReorderAllocations,
            BfsOptimization::ReorderAndFreeTemp,
        ]
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BfsOptimization::Baseline => "baseline",
            BfsOptimization::ReorderAllocations => "reorder-allocations",
            BfsOptimization::ReorderAndFreeTemp => "reorder+free-temp",
        }
    }
}

/// BFS proxy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsParams {
    /// log2 of the number of vertices.
    pub log_vertices: u32,
    /// Average degree (directed edges per vertex before symmetrization).
    pub avg_degree: usize,
    /// Number of BFS traversals (from the highest-degree vertices).
    pub sources: usize,
    /// Data-placement variant.
    pub optimization: BfsOptimization,
    /// RNG seed for graph generation.
    pub seed: u64,
}

impl BfsParams {
    /// Simulation-friendly input sizes with the paper's 1:2:4 footprint ratio.
    pub fn bench(scale: InputScale) -> Self {
        let log_vertices = match scale {
            InputScale::X1 => 20,
            InputScale::X2 => 21,
            InputScale::X4 => 22,
        };
        Self {
            log_vertices,
            avg_degree: 8,
            sources: 1,
            optimization: BfsOptimization::Baseline,
            seed: 0xB55,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            log_vertices: 10,
            avg_degree: 8,
            sources: 1,
            optimization: BfsOptimization::Baseline,
            seed: 0xB55,
        }
    }

    /// Returns a copy with a different placement variant.
    pub fn with_optimization(mut self, optimization: BfsOptimization) -> Self {
        self.optimization = optimization;
        self
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u64 {
        1u64 << self.log_vertices
    }

    /// Approximate number of directed edges after symmetrization.
    pub fn edges(&self) -> u64 {
        self.vertices() * self.avg_degree as u64
    }
}

/// The BFS proxy workload.
///
/// Clones and [`Bfs::with_optimization`] variants share one lazily
/// generated graph, so a study that runs several placements of the same
/// input generates it once.
#[derive(Debug, Clone)]
pub struct Bfs {
    params: BfsParams,
    graph: Arc<OnceLock<CsrGraph>>,
}

impl Bfs {
    /// Creates the workload. The graph is generated lazily on first use so
    /// that merely instantiating a large configuration (e.g. to read its
    /// footprint estimate) stays cheap; repeated runs of the same instance
    /// traverse the same input.
    pub fn new(params: BfsParams) -> Self {
        Self {
            params,
            graph: Arc::new(OnceLock::new()),
        }
    }

    /// The same input under another placement variant. The graph does not
    /// depend on the variant, so the two share it.
    pub fn with_optimization(&self, optimization: BfsOptimization) -> Bfs {
        Self {
            params: self.params.with_optimization(optimization),
            graph: Arc::clone(&self.graph),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &BfsParams {
        &self.params
    }

    /// The generated graph (generated on first call).
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get_or_init(|| {
            let directed_edges = (self.params.vertices() as usize * self.params.avg_degree) / 2;
            rmat_graph(self.params.log_vertices, directed_edges, self.params.seed)
        })
    }

    fn alloc_parents(&self, engine: &mut dyn MemoryEngine) -> ObjectHandle {
        let bytes = self.graph().num_vertices as u64 * 8;
        let parents = engine.alloc("Parents", "bfs.rs:parents", bytes);
        engine.touch(parents, bytes);
        parents
    }

    fn build_graph(
        &self,
        engine: &mut dyn MemoryEngine,
    ) -> (ObjectHandle, ObjectHandle, ObjectHandle) {
        let offsets_bytes = self.graph().offsets_bytes();
        let edges_bytes = self.graph().edges_bytes();
        // The construction temporary: degree counters + permutation buffer
        // (kept alive by the original code due to an allocator performance
        // bug, per the paper).
        let temp_bytes = self.graph().num_vertices as u64 * 16;

        let offsets = engine.alloc("offsets", "bfs.rs:build", offsets_bytes);
        let edges = engine.alloc("edges", "bfs.rs:build", edges_bytes);
        let temp = engine.alloc("build-temp", "bfs.rs:build", temp_bytes);

        // Graph construction: histogram degrees into the temporary, then fill
        // offsets and edge lists.
        engine.touch(temp, temp_bytes);
        engine.access_range(temp, 0, temp_bytes, AccessKind::Read);
        engine.touch(offsets, offsets_bytes);
        engine.touch(edges, edges_bytes);
        (offsets, edges, temp)
    }

    /// Runs the BFS traversal phase against already-allocated graph arrays.
    fn traverse(
        &self,
        engine: &mut dyn MemoryEngine,
        offsets: ObjectHandle,
        edges: ObjectHandle,
        parents: ObjectHandle,
    ) {
        let g = self.graph();
        let mut parents_data = vec![u32::MAX; g.num_vertices];
        let mut frontier_generation = 0usize;

        for root in highest_degree_vertices(g, self.params.sources) {
            if parents_data[root] != u32::MAX {
                continue;
            }
            parents_data[root] = root as u32;
            engine.access_range(parents, root as u64 * 8, 8, AccessKind::Write);

            let mut frontier = vec![root as u32];
            while !frontier.is_empty() {
                // Ligra allocates a fresh sparse frontier every level.
                frontier_generation += 1;
                let next_capacity_bytes = (frontier.len() as u64 * 8 * 4).max(4096);
                let next_frontier_obj = engine.alloc(
                    &format!("frontier-{frontier_generation}"),
                    "bfs.rs:edge_map",
                    next_capacity_bytes,
                );
                let mut next = Vec::new();
                let mut appended: u64 = 0;

                let mut parent_reads: Vec<u64> = Vec::new();
                let mut parent_writes: Vec<u64> = Vec::new();
                let mut frontier_appends: Vec<u64> = Vec::new();
                for &u in &frontier {
                    let u = u as usize;
                    // Read the two offsets bounding u's adjacency list: one
                    // contiguous 16-byte run through the bulk entry point.
                    engine.access_range(offsets, u as u64 * 8, 16, AccessKind::Read);
                    let neighbours = g.neighbours(u);
                    if !neighbours.is_empty() {
                        // Stream the adjacency slice.
                        engine.access_range(
                            edges,
                            g.offsets[u] * 4,
                            neighbours.len() as u64 * 4,
                            AccessKind::Read,
                        );
                    }
                    // Check the parents of all of u's neighbours: one bulk
                    // gather of random accesses into Parents.
                    parent_reads.clear();
                    parent_reads.extend(neighbours.iter().map(|&v| v as u64 * 8));
                    engine.gather(parents, &parent_reads, 8);
                    // Claim the undiscovered neighbours: one bulk scatter
                    // into Parents and one (sequential) scatter appending to
                    // the dynamically allocated next frontier.
                    parent_writes.clear();
                    frontier_appends.clear();
                    for &v in neighbours {
                        let v = v as usize;
                        if parents_data[v] == u32::MAX {
                            parents_data[v] = u as u32;
                            parent_writes.push(v as u64 * 8);
                            frontier_appends.push((appended * 8).min(next_capacity_bytes - 8));
                            appended += 1;
                            next.push(v as u32);
                        }
                    }
                    engine.scatter(parents, &parent_writes, 8);
                    engine.scatter(next_frontier_obj, &frontier_appends, 8);
                    engine.flops(neighbours.len() as u64);
                }

                engine.free(next_frontier_obj);
                frontier = next;
            }
        }
    }
}

/// The `count` highest-degree vertices of `g`, highest first, ties to the
/// lower vertex id: the first `count` of a stable sort by descending degree,
/// found in one pass over the vertices.
fn highest_degree_vertices(g: &CsrGraph, count: usize) -> Vec<usize> {
    if count == 0 {
        return Vec::new();
    }
    let key = |v: usize| (Reverse(g.degree(v)), v);
    let mut top: Vec<usize> = Vec::with_capacity(count + 1);
    for v in 0..g.num_vertices {
        if top.len() == count && key(v) > key(top[count - 1]) {
            continue;
        }
        let at = top.partition_point(|&w| key(w) < key(v));
        top.insert(at, v);
        top.truncate(count);
    }
    top
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn description(&self) -> &'static str {
        "Graph processing benchmark of breadth-first search in the Ligra framework"
    }

    fn parallelization(&self) -> &'static str {
        "OpenMP"
    }

    fn input_description(&self) -> String {
        format!(
            "symmetric rMat, N=2^{}, M≈{} ({})",
            self.params.log_vertices,
            self.params.edges(),
            self.params.optimization.label()
        )
    }

    fn expected_footprint_bytes(&self) -> u64 {
        let n = self.params.vertices();
        let m = self.params.edges();
        (n + 1) * 8 // offsets
            + m * 4 // edges
            + n * 8 // Parents
            + n * 16 // build temp
    }

    fn run(&self, engine: &mut dyn MemoryEngine) {
        let opt = self.params.optimization;

        engine.phase_start("p1-build");
        let (offsets, edges, temp, parents) = match opt {
            BfsOptimization::Baseline => {
                let (offsets, edges, temp) = self.build_graph(engine);
                let parents = self.alloc_parents(engine);
                (offsets, edges, temp, parents)
            }
            BfsOptimization::ReorderAllocations | BfsOptimization::ReorderAndFreeTemp => {
                // Hottest object first: with first-touch placement it lands in
                // node-local memory.
                let parents = self.alloc_parents(engine);
                let (offsets, edges, temp) = self.build_graph(engine);
                (offsets, edges, temp, parents)
            }
        };
        if opt == BfsOptimization::ReorderAndFreeTemp {
            // The paper's 1-line change: free the construction temporary so
            // local capacity is available for the dynamic frontiers.
            engine.free(temp);
        }
        engine.phase_end();

        engine.phase_start("p2-bfs");
        self.traverse(engine, offsets, edges, parents);
        engine.phase_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_trace::TraceRecorder;

    fn run(opt: BfsOptimization) -> TraceRecorder {
        let w = Bfs::new(BfsParams::tiny().with_optimization(opt));
        let mut rec = TraceRecorder::new();
        w.run(&mut rec);
        rec
    }

    #[test]
    fn traversal_visits_most_of_the_graph() {
        let w = Bfs::new(BfsParams::tiny());
        let mut rec = TraceRecorder::new();
        w.run(&mut rec);
        let stats = rec.stats();
        // The BFS phase must read a significant share of the edge array.
        let p2 = &stats.phases[1];
        assert!(
            p2.bytes_read > w.graph().edges_bytes() / 2,
            "BFS read only {} bytes of a {}-byte edge array",
            p2.bytes_read,
            w.graph().edges_bytes()
        );
        // Graph processing has essentially no floating-point work.
        assert!(p2.arithmetic_intensity() < 0.2);
    }

    #[test]
    fn baseline_allocates_parents_after_graph() {
        let rec = run(BfsOptimization::Baseline);
        let order: Vec<_> = rec.allocations().iter().map(|a| a.name.clone()).collect();
        let parents_pos = order.iter().position(|n| n == "Parents").unwrap();
        let edges_pos = order.iter().position(|n| n == "edges").unwrap();
        assert!(parents_pos > edges_pos);
        // Temporary never freed in the baseline.
        let temp = rec
            .allocations()
            .iter()
            .find(|a| a.name == "build-temp")
            .unwrap();
        assert!(!temp.freed);
    }

    #[test]
    fn optimized_variant_allocates_parents_first_and_frees_temp() {
        let rec = run(BfsOptimization::ReorderAndFreeTemp);
        let order: Vec<_> = rec.allocations().iter().map(|a| a.name.clone()).collect();
        let parents_pos = order.iter().position(|n| n == "Parents").unwrap();
        let edges_pos = order.iter().position(|n| n == "edges").unwrap();
        assert!(parents_pos < edges_pos);
        let temp = rec
            .allocations()
            .iter()
            .find(|a| a.name == "build-temp")
            .unwrap();
        assert!(temp.freed);
    }

    #[test]
    fn frontiers_are_dynamically_allocated_and_freed() {
        let rec = run(BfsOptimization::Baseline);
        let frontiers: Vec<_> = rec
            .allocations()
            .iter()
            .filter(|a| a.name.starts_with("frontier-"))
            .collect();
        assert!(frontiers.len() >= 2, "expected one frontier per BFS level");
        assert!(frontiers.iter().all(|f| f.freed));
    }

    #[test]
    fn all_variants_do_the_same_traversal_work() {
        // The placement variant must not change how much work the traversal
        // itself does (only where the data lives).
        let base = run(BfsOptimization::Baseline).stats();
        let opt = run(BfsOptimization::ReorderAndFreeTemp).stats();
        assert_eq!(base.phases[1].bytes_read, opt.phases[1].bytes_read);
        assert_eq!(base.phases[1].flops, opt.phases[1].flops);
    }

    #[test]
    fn roots_are_the_stable_sorts_highest_degree_vertices() {
        // Degrees 1, 3, 0, 3, 1, 3: three vertices tie at the top and two
        // below them.
        let degrees = [1u64, 3, 0, 3, 1, 3];
        let offsets: Vec<u64> = std::iter::once(0)
            .chain(degrees.iter().scan(0, |end, d| {
                *end += d;
                Some(*end)
            }))
            .collect();
        let edges_len = offsets[degrees.len()] as usize;
        let g = CsrGraph {
            num_vertices: degrees.len(),
            offsets,
            edges: vec![0; edges_len],
        };
        let mut sorted: Vec<usize> = (0..g.num_vertices).collect();
        sorted.sort_by_key(|&v| Reverse(g.degree(v)));
        assert_eq!(sorted, vec![1, 3, 5, 0, 4, 2]);
        for count in 0..=g.num_vertices + 1 {
            let expected = &sorted[..count.min(g.num_vertices)];
            assert_eq!(
                highest_degree_vertices(&g, count),
                expected,
                "count {count}"
            );
        }
    }

    #[test]
    fn variants_and_clones_share_one_graph() {
        let base = Bfs::new(BfsParams::tiny());
        let variant = base.with_optimization(BfsOptimization::ReorderAndFreeTemp);
        assert_eq!(
            variant.params().optimization,
            BfsOptimization::ReorderAndFreeTemp
        );
        assert_eq!(base.params().optimization, BfsOptimization::Baseline);
        // Generated once, through the variant, and read by all three.
        let graph = variant.graph();
        assert!(std::ptr::eq(graph, base.graph()));
        assert!(std::ptr::eq(graph, base.clone().graph()));
    }
}
