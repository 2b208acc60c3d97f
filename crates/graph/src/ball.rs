//! Balls `Ĝ[w, r]`: the radius-`r` undirected neighbourhood of a node.
//!
//! A ball is the subgraph of `G` whose nodes lie within undirected distance `r` of the
//! center `w` and whose edges are **all** edges of `G` between those nodes (Section 2.2 of
//! the paper). Border nodes — nodes at distance exactly `r` — are tracked because the
//! `dualFilter` optimisation (Fig. 5, Proposition 5) starts its removal process from them.

use crate::bitset::BitSet;
use crate::graph::{Graph, NodeId};
use crate::traversal::{bounded_bfs_undirected, UNREACHABLE};
use crate::view::{AdjView, GraphView};
use std::collections::VecDeque;

/// The ball `Ĝ[w, r]` of a data graph.
#[derive(Debug, Clone)]
pub struct Ball {
    center: NodeId,
    radius: usize,
    /// Members in BFS order from the center.
    members: Vec<NodeId>,
    /// Distance from the center for each entry of `members`.
    distances: Vec<u32>,
    /// Membership bitset over the *original* graph's node ids.
    membership: BitSet,
}

impl Ball {
    /// Builds the ball of radius `radius` centred at `center`.
    ///
    /// # Panics
    /// Panics when `center` is not a node of `graph`.
    pub fn new(graph: &Graph, center: NodeId, radius: usize) -> Self {
        assert!(
            graph.contains_node(center),
            "ball center {center} out of range"
        );
        let (members, distances) = bounded_bfs_undirected(graph, center, radius);
        let mut membership = BitSet::new(graph.node_count());
        for &m in &members {
            membership.insert(m.index());
        }
        Ball {
            center,
            radius,
            members,
            distances,
            membership,
        }
    }

    /// The ball center `w`.
    #[inline]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The ball radius `r`.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Nodes of the ball (original graph ids), in BFS order from the center.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of nodes in the ball.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when `node` belongs to the ball.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.membership.contains(node.index())
    }

    /// Distance of `node` from the center, when the node is in the ball.
    pub fn distance(&self, node: NodeId) -> Option<usize> {
        self.members
            .iter()
            .position(|&m| m == node)
            .map(|i| self.distances[i] as usize)
    }

    /// Border nodes: members at distance exactly `radius` from the center.
    pub fn border_nodes(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .zip(&self.distances)
            .filter(|(_, &d)| d as usize == self.radius)
            .map(|(&m, _)| m)
            .collect()
    }

    /// Membership bitset over the original graph's node ids.
    #[inline]
    pub fn membership(&self) -> &BitSet {
        &self.membership
    }

    /// A [`GraphView`] of `graph` restricted to this ball.
    pub fn view<'a>(&'a self, graph: &'a Graph) -> GraphView<'a> {
        GraphView::restricted(graph, &self.membership)
    }

    /// Materialises the ball as a standalone graph; returns the graph and the mapping
    /// *new id → original id*. Mostly useful for presentation and tests — the matching
    /// algorithms use [`Ball::view`] instead.
    pub fn to_graph(&self, graph: &Graph) -> (Graph, Vec<NodeId>) {
        graph.induced_subgraph(&self.members)
    }

    /// Number of edges of the ball subgraph. `O(Σ deg)` over members.
    pub fn edge_count(&self, graph: &Graph) -> usize {
        self.members
            .iter()
            .map(|&u| graph.out_neighbors(u).filter(|v| self.contains(*v)).count())
            .sum()
    }

    /// Builds the dense-id [`CompactBall`] of this ball.
    pub fn to_compact(&self, graph: &Graph) -> CompactBall {
        CompactBall::from_members(
            graph,
            self.center,
            self.radius,
            &self.members,
            &self.distances,
            Vec::new(),
        )
    }
}

/// Reusable per-thread scratch space for [`CompactBall::build`].
///
/// Holds one `|V|`-sized distance array that is allocated once per worker thread and wiped
/// only at the indices a ball actually touched, so per-ball work stays `O(|ball|)` instead
/// of `O(|V|)`.
#[derive(Debug, Default)]
pub struct BallScratch {
    dist: Vec<u32>,
    /// Global id → local id map (`u32::MAX` = not a member), recycled between balls via
    /// [`CompactBall::recycle`] so only the touched entries are ever written or cleared.
    map: Vec<u32>,
}

impl BallScratch {
    /// Creates an empty scratch; storage is grown lazily on first use.
    pub fn new() -> Self {
        BallScratch {
            dist: Vec::new(),
            map: Vec::new(),
        }
    }
}

/// A ball with its nodes re-indexed densely as `0..|ball|`.
///
/// The matching engine runs (dual-)simulation refinement once per ball; doing that with
/// `|V|`-sized candidate bitsets made every ball pay for the whole graph. A `CompactBall`
/// holds only the member list — local ids are BFS positions in it — and
/// [`CompactBallView`] exposes the ball subgraph's
/// adjacency over local ids by filtering the original CSR lazily. The engine thus operates
/// on ball-sized bitsets and counters throughout without materialising per-ball adjacency,
/// translating to global ids only when a perfect subgraph is extracted.
#[derive(Debug, Clone)]
pub struct CompactBall {
    /// Local id → global id: the ball members in BFS order from the center.
    to_global: Vec<NodeId>,
    /// Global id → local id (`u32::MAX` = not a member). Sized to the underlying graph but
    /// borrowed from the scratch and cleared entry-by-entry on [`CompactBall::recycle`], so
    /// steady-state per-ball cost stays `O(|ball|)`.
    local_map: Vec<u32>,
    /// Local id of the ball center.
    center: NodeId,
    /// Global id of the ball center.
    center_global: NodeId,
    /// Local ids of the border nodes (distance exactly `radius`), ascending.
    border: Vec<NodeId>,
    /// Ball radius used during construction.
    radius: usize,
}

impl CompactBall {
    /// Builds the compact ball `Ĝ[center, radius]` directly, without an intermediate
    /// [`Ball`], reusing `scratch` across calls.
    ///
    /// # Panics
    /// Panics when `center` is not a node of `graph`.
    pub fn build(graph: &Graph, center: NodeId, radius: usize, scratch: &mut BallScratch) -> Self {
        assert!(
            graph.contains_node(center),
            "ball center {center} out of range"
        );
        if scratch.dist.len() < graph.node_count() {
            scratch.dist.resize(graph.node_count(), UNREACHABLE);
        }
        let dist = &mut scratch.dist;
        let mut members = Vec::new();
        let mut member_dist = Vec::new();
        let mut queue = VecDeque::new();
        dist[center.index()] = 0;
        members.push(center);
        member_dist.push(0u32);
        queue.push_back(center);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du as usize >= radius {
                continue;
            }
            for v in graph.out_neighbors(u).chain(graph.in_neighbors(u)) {
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = du + 1;
                    members.push(v);
                    member_dist.push(du + 1);
                    queue.push_back(v);
                }
            }
        }
        // Wipe only the touched entries so the scratch can be reused.
        for &m in &members {
            dist[m.index()] = UNREACHABLE;
        }
        let map = std::mem::take(&mut scratch.map);
        Self::from_members(graph, center, radius, &members, &member_dist, map)
    }

    /// Returns the ball's global→local map to `scratch` for the next build, clearing only
    /// the entries this ball set. Optional — a dropped ball simply costs the next build a
    /// fresh allocation — but the engine's per-ball loop always recycles.
    pub fn recycle(mut self, scratch: &mut BallScratch) {
        for &g in &self.to_global {
            self.local_map[g.index()] = u32::MAX;
        }
        scratch.map = self.local_map;
    }

    /// Builds a compact ball from an explicit member list with per-member distances.
    ///
    /// Local ids are the members' **BFS positions** (the center is local id 0) — no sort is
    /// performed per ball; consumers that need globally-ordered output sort once at
    /// extraction time. `map` is the (possibly recycled) global→local scratch map; it is
    /// grown to the graph's size and filled at the member indices.
    fn from_members(
        graph: &Graph,
        center: NodeId,
        radius: usize,
        members: &[NodeId],
        distances: &[u32],
        mut map: Vec<u32>,
    ) -> Self {
        let to_global: Vec<NodeId> = members.to_vec();
        if map.len() < graph.node_count() {
            map.resize(graph.node_count(), u32::MAX);
        }
        for (local, &g) in to_global.iter().enumerate() {
            map[g.index()] = local as u32;
        }
        // Members are listed in BFS order, so the border (distance == radius) occupies
        // ascending local positions already.
        let border: Vec<NodeId> = to_global
            .iter()
            .enumerate()
            .filter(|&(local, _)| distances[local] as usize == radius)
            .map(|(local, _)| NodeId(local as u32))
            .collect();
        let center_local = NodeId(map[center.index()]);
        CompactBall {
            to_global,
            local_map: map,
            center: center_local,
            center_global: center,
            border,
            radius,
        }
    }

    /// An [`AdjView`] of the ball subgraph addressed by local ids.
    #[inline]
    pub fn view<'a>(&'a self, data: &'a Graph) -> CompactBallView<'a> {
        CompactBallView { ball: self, data }
    }

    /// Number of nodes in the ball.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.to_global.len()
    }

    /// Local id of the ball center.
    #[inline]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// Global id of the ball center.
    #[inline]
    pub fn center_global(&self) -> NodeId {
        self.center_global
    }

    /// Ball radius used during construction.
    #[inline]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Local ids of the border nodes (distance exactly `radius`), ascending.
    #[inline]
    pub fn border(&self) -> &[NodeId] {
        &self.border
    }

    /// Local id → global id mapping (members in BFS order from the center).
    #[inline]
    pub fn to_global(&self) -> &[NodeId] {
        &self.to_global
    }

    /// Global id of local node `local`.
    #[inline]
    pub fn global_of(&self, local: NodeId) -> NodeId {
        self.to_global[local.index()]
    }

    /// Local id of global node `global`, when it belongs to the ball. `O(1)`.
    #[inline]
    pub fn local_of(&self, global: NodeId) -> Option<NodeId> {
        match self.local_map.get(global.index()) {
            Some(&l) if l != u32::MAX => Some(NodeId(l)),
            _ => None,
        }
    }

    /// Number of ball edges (both endpoints inside). `O(Σ deg)` over members.
    pub fn edge_count(&self, data: &Graph) -> usize {
        self.to_global
            .iter()
            .map(|&g| {
                data.out_neighbors(g)
                    .filter(|w| self.local_of(*w).is_some())
                    .count()
            })
            .sum()
    }
}

/// The ball subgraph's adjacency over **local** ids, backed lazily by the original CSR.
///
/// Neighbour iteration maps each global neighbour into the ball with an `O(1)` lookup in
/// the ball's global→local map; nodes outside the ball are skipped. Since the matchers
/// only traverse the neighbourhoods of *candidate* nodes — typically a small fraction of
/// the ball — this is far cheaper than materialising the full ball adjacency up front.
#[derive(Clone, Copy)]
pub struct CompactBallView<'a> {
    ball: &'a CompactBall,
    data: &'a Graph,
}

impl CompactBallView<'_> {
    /// The compact ball this view reads.
    #[inline]
    pub fn ball(&self) -> &CompactBall {
        self.ball
    }
}

impl AdjView for CompactBallView<'_> {
    #[inline]
    fn id_space(&self) -> usize {
        self.ball.node_count()
    }

    #[inline]
    fn label(&self, node: NodeId) -> crate::labels::Label {
        self.data.label(self.ball.global_of(node))
    }

    #[inline]
    fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.data
            .out_neighbors(self.ball.global_of(node))
            .filter_map(|w| self.ball.local_of(w))
    }

    #[inline]
    fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.data
            .in_neighbors(self.ball.global_of(node))
            .filter_map(|w| self.ball.local_of(w))
    }

    #[inline]
    fn nodes_with_label(&self, label: crate::labels::Label) -> impl Iterator<Item = NodeId> + '_ {
        // The global label index is usually much smaller than the ball, so filtering it
        // through the membership search seeds candidates in O(|label nodes| · log |ball|).
        self.data
            .nodes_with_label(label)
            .iter()
            .filter_map(|&g| self.ball.local_of(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    fn star_plus_tail() -> Graph {
        // 0 is the hub of a star over 1..=3; 3 -> 4 -> 5 is a tail.
        Graph::from_edges(vec![Label(0); 6], &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]).unwrap()
    }

    #[test]
    fn radius_one_ball() {
        let g = star_plus_tail();
        let ball = Ball::new(&g, NodeId(0), 1);
        assert_eq!(ball.center(), NodeId(0));
        assert_eq!(ball.radius(), 1);
        assert_eq!(ball.node_count(), 4);
        assert!(ball.contains(NodeId(3)));
        assert!(!ball.contains(NodeId(4)));
        assert_eq!(ball.border_nodes(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(ball.distance(NodeId(0)), Some(0));
        assert_eq!(ball.distance(NodeId(3)), Some(1));
        assert_eq!(ball.distance(NodeId(5)), None);
        assert_eq!(ball.edge_count(&g), 3);
    }

    #[test]
    fn radius_zero_ball_is_single_node() {
        let g = star_plus_tail();
        let ball = Ball::new(&g, NodeId(4), 0);
        assert_eq!(ball.members(), &[NodeId(4)]);
        assert_eq!(ball.border_nodes(), vec![NodeId(4)]);
        assert_eq!(ball.edge_count(&g), 0);
    }

    #[test]
    fn ball_uses_undirected_distance() {
        let g = star_plus_tail();
        // Node 5 reaches node 4 and 3 via reversed edges.
        let ball = Ball::new(&g, NodeId(5), 2);
        assert!(ball.contains(NodeId(3)));
        assert!(!ball.contains(NodeId(0)));
    }

    #[test]
    fn large_radius_covers_component() {
        let g = star_plus_tail();
        let ball = Ball::new(&g, NodeId(2), 10);
        assert_eq!(ball.node_count(), 6);
        assert!(ball.border_nodes().is_empty());
        let (sub, mapping) = ball.to_graph(&g);
        assert_eq!(sub.node_count(), 6);
        assert_eq!(sub.edge_count(), 5);
        assert_eq!(mapping.len(), 6);
    }

    #[test]
    fn view_restricts_neighbors() {
        let g = star_plus_tail();
        let ball = Ball::new(&g, NodeId(0), 1);
        let view = ball.view(&g);
        assert_eq!(view.node_count(), 4);
        assert_eq!(view.out_neighbors(NodeId(3)).count(), 0); // 3 -> 4 leaves the ball
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_center_panics() {
        let g = star_plus_tail();
        let _ = Ball::new(&g, NodeId(42), 1);
    }

    #[test]
    fn compact_ball_matches_ball_view() {
        let g = star_plus_tail();
        let mut scratch = BallScratch::new();
        for center in g.nodes() {
            for radius in 0..3 {
                let ball = Ball::new(&g, center, radius);
                let compact = CompactBall::build(&g, center, radius, &mut scratch);
                assert_eq!(compact.node_count(), ball.node_count());
                assert_eq!(compact.edge_count(&g), ball.edge_count(&g));
                assert_eq!(compact.global_of(compact.center()), center);
                assert_eq!(compact.center_global(), center);
                assert_eq!(compact.radius(), radius);
                // to_compact from an existing ball agrees with the direct construction.
                let via_ball = ball.to_compact(&g);
                assert_eq!(via_ball.to_global(), compact.to_global());
                assert_eq!(via_ball.border(), compact.border());
                // The center is always local id 0 (BFS starts there).
                assert_eq!(compact.center(), NodeId(0));
                // Border sets agree modulo the id translation.
                let mut ball_border = ball.border_nodes();
                ball_border.sort_unstable();
                let mut compact_border: Vec<NodeId> = compact
                    .border()
                    .iter()
                    .map(|&l| compact.global_of(l))
                    .collect();
                compact_border.sort_unstable();
                assert_eq!(compact_border, ball_border);
                // Local adjacency (via the lazy view) mirrors the restricted view's.
                let view = ball.view(&g);
                let local_view = compact.view(&g);
                for local in (0..compact.node_count()).map(NodeId::from_index) {
                    let global = compact.global_of(local);
                    assert_eq!(AdjView::label(&local_view, local), g.label(global));
                    let mut expected: Vec<NodeId> = view.out_neighbors(global).collect();
                    expected.sort_unstable();
                    let mut actual: Vec<NodeId> = local_view
                        .out_neighbors(local)
                        .map(|l| compact.global_of(l))
                        .collect();
                    actual.sort_unstable();
                    assert_eq!(
                        actual, expected,
                        "adjacency of {global} in ball({center},{radius})"
                    );
                    let mut expected_in: Vec<NodeId> = view.in_neighbors(global).collect();
                    expected_in.sort_unstable();
                    let mut actual_in: Vec<NodeId> = local_view
                        .in_neighbors(local)
                        .map(|l| compact.global_of(l))
                        .collect();
                    actual_in.sort_unstable();
                    assert_eq!(actual_in, expected_in);
                }
                // Label seeding through the view agrees with a direct scan.
                for label in [Label(0), Label(7)] {
                    let mut seeded: Vec<NodeId> = local_view
                        .nodes_with_label(label)
                        .map(|l| compact.global_of(l))
                        .collect();
                    seeded.sort_unstable();
                    let expected: Vec<NodeId> = view.nodes_with_label(label).collect();
                    assert_eq!(seeded, expected);
                }
            }
        }
    }

    #[test]
    fn compact_ball_roundtrips_ids() {
        let g = star_plus_tail();
        let mut scratch = BallScratch::new();
        let compact = CompactBall::build(&g, NodeId(3), 1, &mut scratch);
        for local in (0..compact.node_count()).map(NodeId::from_index) {
            assert_eq!(compact.local_of(compact.global_of(local)), Some(local));
        }
        assert_eq!(compact.local_of(NodeId(42)), None);
        // Scratch is reusable: a second build from the same scratch is identical.
        let again = CompactBall::build(&g, NodeId(3), 1, &mut scratch);
        assert_eq!(again.to_global(), compact.to_global());
    }
}
