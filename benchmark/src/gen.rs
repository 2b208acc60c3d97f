//! Frozen workload generators: Amazon-/YouTube-like data graphs, extracted connected
//! patterns and edge-churn delta streams.
//!
//! Everything here depends only on [`SplitMix64`] and the standard library, so edits to
//! the repository's dataset crate or its vendored `rand` cannot move the benchmark. The
//! output is text (the edge-list format of `ssim_graph::io`) and plain edge operations:
//! the program under test receives only these inputs.

use crate::rng::SplitMix64;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Statistical shape of a generated data graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Number of nodes.
    pub nodes: usize,
    /// Mean out-degree before duplicate and self-loop removal.
    pub out_degree: f64,
    /// Number of category labels.
    pub labels: usize,
    /// Zipf exponent of the label distribution.
    pub label_skew: f64,
    /// Share of edges drawn inside the locality window (the rest attach to the hubs of
    /// the source's community).
    pub locality: f64,
    /// Zipf exponent of the hub weights inside a community.
    pub hub_skew: f64,
    /// Communities: equal blocks of consecutive ids, each growing its own hubs.
    pub communities: usize,
}

impl GraphShape {
    /// Width of the id window local edges land in.
    fn window(&self) -> usize {
        (self.nodes / 50).max(4)
    }

    /// Community of node `v`.
    fn community(&self, v: usize) -> usize {
        v * self.communities / self.nodes
    }
}

/// A generated labelled directed graph: no self-loops, no duplicate edges, edges sorted.
#[derive(Debug, Clone)]
pub struct GenGraph {
    /// Label index of every node.
    pub labels: Vec<u32>,
    /// Directed edges, ascending.
    pub edges: Vec<(u32, u32)>,
}

/// A generated connected pattern over label indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenPattern {
    /// Label index of every pattern node.
    pub labels: Vec<u32>,
    /// Directed pattern edges.
    pub edges: Vec<(u32, u32)>,
    /// The data node each pattern node was carved from. Generator-side only: the
    /// program receives labels and edges.
    pub origin: Vec<u32>,
}

/// One edge operation of a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOp {
    /// `true` inserts the edge, `false` deletes it.
    pub insert: bool,
    /// Source node.
    pub from: u32,
    /// Target node.
    pub to: u32,
}

fn local_target(source: usize, nodes: usize, window: usize, rng: &mut SplitMix64) -> u32 {
    let offset = 1 + rng.below(window);
    let target = if rng.below(2) == 0 {
        (source + offset) % nodes
    } else {
        (source + nodes - offset % nodes) % nodes
    };
    target as u32
}

/// Exactly Zipf-distributed labels (largest-remainder counts), shuffled over the nodes,
/// so every seed has the same label histogram.
fn zipf_labels(shape: &GraphShape, rng: &mut SplitMix64) -> Vec<u32> {
    let n = shape.nodes;
    let weights: Vec<f64> = (0..shape.labels)
        .map(|k| 1.0 / ((k + 1) as f64).powf(shape.label_skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..shape.labels).collect();
    by_remainder.sort_by(|&a, &b| shares[b].fract().total_cmp(&shares[a].fract()));
    let missing = n - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(missing) {
        counts[k] += 1;
    }
    let mut labels: Vec<u32> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k as u32, c))
        .collect();
    rng.shuffle(&mut labels);
    labels
}

/// The attachment targets of one community: its nodes in a seeded order, the node of
/// rank `r` drawn with weight `(r + 1)^-skew`. Fixed weights give every seed the same
/// in-degree profile; only which nodes (and so which labels) are the hubs varies.
struct Hubs {
    nodes: Vec<u32>,
    cumulative: Vec<f64>,
}

impl Hubs {
    fn new(nodes: std::ops::Range<usize>, skew: f64, rng: &mut SplitMix64) -> Self {
        let mut nodes: Vec<u32> = nodes.map(|v| v as u32).collect();
        rng.shuffle(&mut nodes);
        let mut total = 0.0;
        let cumulative = (1..=nodes.len())
            .map(|rank| {
                total += (rank as f64).powf(-skew);
                total
            })
            .collect();
        Hubs { nodes, cumulative }
    }

    fn draw(&self, rng: &mut SplitMix64) -> u32 {
        let x = rng.unit() * self.cumulative.last().copied().unwrap_or(0.0);
        let i = self.cumulative.partition_point(|&c| c <= x);
        self.nodes[i.min(self.nodes.len() - 1)]
    }
}

/// Generates a graph of the given shape: Zipf labels, geometric out-degrees, targets
/// either inside the id window (co-purchase-style locality) or drawn from the hubs of
/// the source's community (heavy-tailed in-degree). Each community has its own hubs,
/// so the cost of a query sums over many independent hubs rather than hinging on the
/// labels of a few global ones.
pub fn generate_graph(shape: &GraphShape, rng: &mut SplitMix64) -> GenGraph {
    let n = shape.nodes;
    let labels = zipf_labels(shape, rng);
    let window = shape.window();
    let max_degree = (shape.out_degree * 8.0) as usize + 1;
    let keep_going = 1.0 - 1.0 / shape.out_degree.max(1.0);
    let hubs: Vec<Hubs> = (0..shape.communities)
        .map(|c| {
            let first = (c * n).div_ceil(shape.communities);
            let end = ((c + 1) * n).div_ceil(shape.communities);
            Hubs::new(first..end, shape.hub_skew, rng)
        })
        .collect();
    let mut edges = Vec::with_capacity((n as f64 * shape.out_degree) as usize);
    let mut targets: Vec<u32> = Vec::new();
    for source in 0..n {
        let mut degree = 1;
        while degree < max_degree && rng.unit() < keep_going {
            degree += 1;
        }
        let hubs = &hubs[shape.community(source)];
        targets.clear();
        for _ in 0..degree {
            let target = if rng.unit() < shape.locality {
                local_target(source, n, window, rng)
            } else {
                hubs.draw(rng)
            };
            if target as usize != source && !targets.contains(&target) {
                targets.push(target);
            }
        }
        targets.sort_unstable();
        edges.extend(targets.iter().map(|&t| (source as u32, t)));
    }
    GenGraph { labels, edges }
}

/// Renders nodes and edges in the `ssim_graph::io` edge-list format, labels as `L<k>`.
fn edge_list_text(labels: &[u32], edges: &[(u32, u32)]) -> String {
    let mut out = String::with_capacity(labels.len() * 12 + edges.len() * 16);
    for (id, label) in labels.iter().enumerate() {
        let _ = writeln!(out, "v {id} L{label}");
    }
    for (s, t) in edges {
        let _ = writeln!(out, "e {s} {t}");
    }
    out
}

impl GenGraph {
    /// The graph as edge-list text.
    pub fn to_text(&self) -> String {
        edge_list_text(&self.labels, &self.edges)
    }

    fn has_edge(&self, s: u32, t: u32) -> bool {
        self.edges.binary_search(&(s, t)).is_ok()
    }

    /// Nodes per label index.
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut histogram = vec![0; self.labels.iter().max().map_or(0, |&m| m as usize + 1)];
        for &l in &self.labels {
            histogram[l as usize] += 1;
        }
        histogram
    }
}

impl GenPattern {
    /// The pattern as edge-list text.
    pub fn to_text(&self) -> String {
        edge_list_text(&self.labels, &self.edges)
    }

    /// The data edges of the embedding the pattern was carved from.
    pub fn origin_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges
            .iter()
            .map(|&(a, b)| (self.origin[a as usize], self.origin[b as usize]))
    }
}

/// Undirected adjacency of a [`GenGraph`] in CSR form, for sampling patterns.
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Builds the adjacency.
    pub fn new(graph: &GenGraph) -> Self {
        let n = graph.labels.len();
        let mut offsets = vec![0usize; n + 1];
        for &(s, t) in &graph.edges {
            offsets[s as usize + 1] += 1;
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut fill = offsets.clone();
        for &(s, t) in &graph.edges {
            targets[fill[s as usize]] = t;
            fill[s as usize] += 1;
            targets[fill[t as usize]] = s;
            fill[t as usize] += 1;
        }
        Adjacency { offsets, targets }
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Carves a connected pattern of up to `size` nodes out of `graph`: a shuffled
/// undirected BFS from a random start (the largest of 16 tries if none reaches `size`),
/// keeping every induced edge. Every extracted pattern has an exact match in `graph`.
pub fn extract_pattern(
    graph: &GenGraph,
    adj: &Adjacency,
    size: usize,
    rng: &mut SplitMix64,
) -> GenPattern {
    let n = graph.labels.len();
    let mut best: Vec<u32> = Vec::new();
    let mut neighbors: Vec<u32> = Vec::new();
    for _ in 0..16 {
        let mut selected = vec![rng.below(n) as u32];
        let mut frontier = 0;
        while selected.len() < size && frontier < selected.len() {
            neighbors.clear();
            neighbors.extend_from_slice(adj.neighbors(selected[frontier]));
            frontier += 1;
            rng.shuffle(&mut neighbors);
            for &v in &neighbors {
                if selected.len() >= size {
                    break;
                }
                if !selected.contains(&v) {
                    selected.push(v);
                }
            }
        }
        if selected.len() > best.len() {
            best = selected;
        }
        if best.len() == size {
            break;
        }
    }
    let mut edges = Vec::new();
    for (i, &s) in best.iter().enumerate() {
        for (j, &t) in best.iter().enumerate() {
            if i != j && graph.has_edge(s, t) {
                edges.push((i as u32, j as u32));
            }
        }
    }
    GenPattern {
        labels: best.iter().map(|&v| graph.labels[v as usize]).collect(),
        edges,
        origin: best,
    }
}

/// Generates `count` patterns whose sizes cycle through `sizes`, each drawn again until
/// its label mass — the data nodes carrying each pattern node's label, summed over the
/// pattern nodes, as a share of `|V|` — is at most `max_mass`.
pub fn extract_patterns(
    graph: &GenGraph,
    adj: &Adjacency,
    sizes: &[usize],
    count: usize,
    max_mass: f64,
    rng: &mut SplitMix64,
) -> Vec<GenPattern> {
    let histogram = graph.label_histogram();
    let cap = max_mass * graph.labels.len() as f64;
    let mass = |p: &GenPattern| {
        p.labels
            .iter()
            .map(|&l| histogram[l as usize])
            .sum::<usize>()
    };
    (0..count)
        .map(|i| loop {
            let p = extract_pattern(graph, adj, sizes[i % sizes.len()], rng);
            if mass(&p) as f64 <= cap {
                break p;
            }
        })
        .collect()
}

/// One operation of the serving workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// Apply one delta.
    Apply(Vec<EdgeOp>),
    /// Register an ad-hoc query (and retire the one registered two registrations ago).
    Register(GenPattern),
}

/// Edge operations per delta.
pub const DELTA_EDGES: usize = 32;
/// Every this many stream ops, one is a registration.
pub const REGISTER_EVERY: usize = 10;

fn edge_key(s: u32, t: u32) -> u64 {
    (u64::from(s) << 32) | u64::from(t)
}

/// The serving workload's unbounded, seed-determined operation stream.
///
/// Churn is local: each delta deletes live edges chosen uniformly among those inside
/// the locality window and inserts as many new edges inside the window, while the
/// long-range edges that make the hubs stay. So the graph keeps its shape however long
/// the stream runs. The embeddings the registered patterns were carved from are never
/// deleted either, so every query keeps a match and no query drifts into a different
/// cost regime mid-run.
pub struct ChurnStream {
    rng: SplitMix64,
    shape: GraphShape,
    /// The initial edges, ascending.
    base: Vec<(u32, u32)>,
    /// Base edges currently deleted.
    deleted: HashSet<u64>,
    /// Live edges outside `base`, and where each sits in that list.
    added: Vec<(u32, u32)>,
    added_at: HashMap<u64, usize>,
    /// Edges that are never deleted.
    protected: HashSet<u64>,
    adhoc: Vec<GenPattern>,
    produced: usize,
}

impl ChurnStream {
    /// A stream over `graph` (grown with `shape`): every [`REGISTER_EVERY`]-th op
    /// registers the next pattern of `adhoc` (cycling); the others apply deltas of
    /// [`DELTA_EDGES`] edge operations, half deletions and half insertions. The origin
    /// embeddings of `keep` and of `adhoc` are protected.
    pub fn new(
        graph: &GenGraph,
        shape: &GraphShape,
        keep: &[GenPattern],
        adhoc: Vec<GenPattern>,
        rng: SplitMix64,
    ) -> Self {
        let protected = keep
            .iter()
            .chain(&adhoc)
            .flat_map(GenPattern::origin_edges)
            .map(|(s, t)| edge_key(s, t))
            .collect();
        ChurnStream {
            rng,
            shape: *shape,
            base: graph.edges.clone(),
            deleted: HashSet::new(),
            added: Vec::new(),
            added_at: HashMap::new(),
            protected,
            adhoc,
            produced: 0,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> ChurnOp {
        self.produced += 1;
        if self.produced.is_multiple_of(REGISTER_EVERY) {
            let registration = self.produced / REGISTER_EVERY - 1;
            ChurnOp::Register(self.adhoc[registration % self.adhoc.len()].clone())
        } else {
            ChurnOp::Apply(self.next_delta())
        }
    }

    fn is_live(&self, s: u32, t: u32) -> bool {
        let key = edge_key(s, t);
        self.added_at.contains_key(&key)
            || (self.base.binary_search(&(s, t)).is_ok() && !self.deleted.contains(&key))
    }

    /// Whether `s → t` spans at most the locality window (ids wrap around).
    fn is_local(&self, s: u32, t: u32) -> bool {
        let d = s.abs_diff(t) as usize;
        d.min(self.shape.nodes - d) <= self.shape.window()
    }

    /// A live local edge, uniformly chosen, that may be deleted and is not yet in `ops`.
    fn pick_deletion(&mut self, ops: &[EdgeOp]) -> (u32, u32) {
        loop {
            let k = self.rng.below(self.base.len() + self.added.len());
            let (s, t) = match self.base.get(k) {
                Some(&edge) => edge,
                None => self.added[k - self.base.len()],
            };
            if self.is_local(s, t)
                && self.is_live(s, t)
                && !self.protected.contains(&edge_key(s, t))
                && !ops.iter().any(|op| (op.from, op.to) == (s, t))
            {
                return (s, t);
            }
        }
    }

    /// A new local edge: absent now and not yet in `ops`.
    fn pick_insertion(&mut self, ops: &[EdgeOp]) -> (u32, u32) {
        let n = self.shape.nodes;
        loop {
            let source = self.rng.below(n);
            let target = local_target(source, n, self.shape.window(), &mut self.rng);
            let (s, t) = (source as u32, target);
            if source != target as usize
                && !self.is_live(s, t)
                && !ops.iter().any(|op| (op.from, op.to) == (s, t))
            {
                return (s, t);
            }
        }
    }

    fn next_delta(&mut self) -> Vec<EdgeOp> {
        let mut ops = Vec::with_capacity(DELTA_EDGES);
        for i in 0..DELTA_EDGES {
            let insert = i >= DELTA_EDGES / 2;
            let (from, to) = if insert {
                self.pick_insertion(&ops)
            } else {
                self.pick_deletion(&ops)
            };
            ops.push(EdgeOp { insert, from, to });
        }
        for op in &ops {
            let key = edge_key(op.from, op.to);
            if op.insert {
                if !self.deleted.remove(&key) {
                    self.added_at.insert(key, self.added.len());
                    self.added.push((op.from, op.to));
                }
            } else if let Some(at) = self.added_at.remove(&key) {
                self.added.swap_remove(at);
                if let Some(&(s, t)) = self.added.get(at) {
                    self.added_at.insert(edge_key(s, t), at);
                }
            } else {
                self.deleted.insert(key);
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn shape() -> GraphShape {
        GraphShape {
            nodes: 400,
            out_degree: 3.3,
            labels: 10,
            label_skew: 0.8,
            locality: 0.5,
            hub_skew: 0.5,
            communities: 4,
        }
    }

    fn small() -> GenGraph {
        generate_graph(&shape(), &mut SplitMix64::stream(3, 0))
    }

    #[test]
    fn graphs_have_no_self_loops_or_duplicates() {
        let g = small();
        assert!(g.edges.windows(2).all(|w| w[0] < w[1]));
        assert!(g.edges.iter().all(|&(s, t)| s != t && (t as usize) < 400));
    }

    #[test]
    fn label_histogram_is_the_same_for_every_seed() {
        let histogram = |seed| {
            let mut h = [0usize; 10];
            for l in generate_graph(&shape(), &mut SplitMix64::stream(seed, 0)).labels {
                h[l as usize] += 1;
            }
            h
        };
        let h = histogram(1);
        assert_eq!(h.iter().sum::<usize>(), 400);
        assert!(
            h.windows(2).all(|w| w[0] >= w[1]),
            "Zipf counts fall with rank"
        );
        assert_eq!(histogram(2), h);
    }

    #[test]
    fn patterns_are_connected_and_embedded_at_their_origin() {
        let g = small();
        let adj = Adjacency::new(&g);
        let mut rng = SplitMix64::stream(3, 1);
        for size in [3, 6, 10] {
            let p = extract_pattern(&g, &adj, size, &mut rng);
            assert!(!p.labels.is_empty() && p.labels.len() <= size);
            for (i, &v) in p.origin.iter().enumerate() {
                assert_eq!(p.labels[i], g.labels[v as usize]);
            }
            assert!(p.origin_edges().all(|(s, t)| g.has_edge(s, t)));
            // Undirected reachability from node 0 over the pattern edges.
            let mut seen = vec![false; p.labels.len()];
            seen[0] = true;
            for _ in 0..p.labels.len() {
                for &(a, b) in &p.edges {
                    let (a, b) = (a as usize, b as usize);
                    if seen[a] || seen[b] {
                        seen[a] = true;
                        seen[b] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "pattern must be connected");
        }
    }

    #[test]
    fn churn_deltas_are_valid_and_spare_protected_embeddings() {
        let g = small();
        let mut live: BTreeSet<(u32, u32)> = g.edges.iter().copied().collect();
        let adj = Adjacency::new(&g);
        let standing = extract_patterns(&g, &adj, &[4, 5], 4, 1.0, &mut SplitMix64::stream(3, 1));
        let adhoc = extract_patterns(&g, &adj, &[3, 4], 2, 1.0, &mut SplitMix64::stream(3, 3));
        let protected: Vec<(u32, u32)> = standing
            .iter()
            .chain(&adhoc)
            .flat_map(GenPattern::origin_edges)
            .collect();
        let mut stream = ChurnStream::new(&g, &shape(), &standing, adhoc, SplitMix64::stream(3, 2));
        let mut registrations = 0;
        for _ in 0..400 {
            match stream.next_op() {
                ChurnOp::Apply(ops) => {
                    assert_eq!(ops.len(), DELTA_EDGES);
                    assert_eq!(ops.iter().filter(|o| o.insert).count(), DELTA_EDGES / 2);
                    let mentioned: BTreeSet<(u32, u32)> =
                        ops.iter().map(|o| (o.from, o.to)).collect();
                    assert_eq!(mentioned.len(), DELTA_EDGES, "an edge is mentioned once");
                    for op in &ops {
                        assert_ne!(op.from, op.to);
                        assert!(stream.is_local(op.from, op.to), "churn stays local");
                        if op.insert {
                            assert!(live.insert((op.from, op.to)), "insertions are new");
                        } else {
                            assert!(live.remove(&(op.from, op.to)), "deletions are live");
                        }
                    }
                }
                ChurnOp::Register(_) => registrations += 1,
            }
        }
        assert_eq!(registrations, 400 / REGISTER_EVERY);
        assert_eq!(live.len(), g.edges.len(), "the edge count holds steady");
        assert!(protected.iter().all(|e| live.contains(e)));
        let hub_edges: Vec<_> = g
            .edges
            .iter()
            .filter(|&&(s, t)| !stream.is_local(s, t))
            .collect();
        assert!(!hub_edges.is_empty());
        assert!(hub_edges.iter().all(|e| live.contains(e)), "hub edges stay");
    }
}
