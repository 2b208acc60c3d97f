//! The match-graph ball substrate `Gm` and its per-query candidate adjacency.
//!
//! Under the dual filter, `Match+` extracts the global fixpoint's matched nodes once as a
//! dense renumbered subgraph `Gm` and runs every ball inside it (Fig. 5). Both per-ball
//! steps — the border-seeded removal cascade of `dualFilter` and `ExtractMaxPG` — only
//! ever follow a data edge `(v, w)` along some pattern edge `(u, u′)` with `v` a
//! candidate of `u` and `w` a candidate of `u′`. Walking the raw `Gm` CSR and testing
//! every neighbour against the relation wastes most of those tests on dense graphs,
//! where the neighbours mostly carry other labels.
//!
//! A candidate adjacency is built once per query instead (GraphMini's pruned auxiliary
//! graph): for every pattern edge `(u, u′)` and every global candidate `v` of `u`, the
//! sorted slice of `v`'s `Gm` out-neighbours that are global candidates of `u′`, plus the
//! mirror in-lists for the candidates of `u′`. A ball's relation is always contained in
//! the global one, so filtering those slices by ball membership and the ball relation
//! sees exactly the neighbours the raw walk would accept. [`GmSubstrate`] bundles the
//! lists with `Gm` and the renumbered relation; [`match_gm_ball`] is the per-ball unit of
//! work over them.
//!
//! The raw-CSR primitives ([`crate::dual_filter::refine_projected`],
//! [`crate::match_graph::extract_max_perfect_subgraph`]) stay the reference this path is
//! tested against.

use crate::match_graph::PerfectSubgraph;
use crate::relation::MatchRelation;
use crate::repetition::{
    enforce_repetition, RepetitionMode, RepetitionOutcome, RepetitionSemantics,
};
use ssim_graph::{BitSet, CompactBall, ExtractedSubgraph, Graph, NodeId, Pattern};
use std::collections::VecDeque;

/// One pattern edge seen from one of its endpoints.
#[derive(Debug, Clone, Copy)]
struct Arc {
    /// The edge's other endpoint.
    other: NodeId,
    /// Position of the mirror arc (the same edge seen from `other`) in `other`'s arcs.
    mirror: u32,
}

/// Per-query candidate-filtered adjacency over `Gm`.
///
/// Lists are stored per candidate pair `(u, v)` — `v` a `Gm` node, `u` a pattern node it
/// is a global candidate of — with pairs ranked node-major (ascending `v`, then `u`).
/// Each pair owns one slice per arc of `u`: first the out-arcs (pattern edges
/// `(u, u′)`: `v`'s out-neighbours among the candidates of `u′`), then the in-arcs
/// (pattern edges `(u″, u)`: `v`'s in-neighbours among the candidates of `u″`). Memory is
/// `O(|Gm| + pairs · deg_Q + filtered edges)`.
#[derive(Debug, Clone)]
pub(crate) struct CandidateAdjacency {
    /// Per pattern node: the range of its arcs in `arcs`.
    arc_offsets: Vec<u32>,
    /// Per pattern node: how many of its arcs are out-arcs (they come first).
    out_arcs: Vec<u32>,
    arcs: Vec<Arc>,
    /// Per `Gm` node: the range of its pairs.
    node_pairs: Vec<u32>,
    /// Per pair: its pattern node.
    pair_pattern: Vec<NodeId>,
    /// Per pair: its first list.
    pair_lists: Vec<u32>,
    /// Per list: the range of its entries in `targets`.
    list_offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl CandidateAdjacency {
    /// Builds the lists of `pattern` over `gm` for the candidate sets of `relation`
    /// (expressed in `gm`'s ids).
    fn build(pattern: &Pattern, gm: &Graph, relation: &MatchRelation) -> Self {
        let q = pattern.graph();
        let nq = q.node_count();
        let mut arc_offsets = Vec::with_capacity(nq + 1);
        let mut out_arcs = Vec::with_capacity(nq);
        let mut arcs = Vec::with_capacity(2 * q.edge_count());
        arc_offsets.push(0u32);
        for u in q.nodes() {
            out_arcs.push(q.out_degree(u) as u32);
            for other in q.out_neighbors(u).chain(q.in_neighbors(u)) {
                arcs.push(Arc { other, mirror: 0 });
            }
            arc_offsets.push(arcs.len() as u32);
        }
        // The out-arc `(u → u′)` mirrors the in-arc of `u′` whose other endpoint is `u`.
        for u in q.nodes() {
            let base = arc_offsets[u.index()] as usize;
            let outs = out_arcs[u.index()] as usize;
            for i in base..base + outs {
                let child = arcs[i].other;
                let (cb, ce) = (
                    arc_offsets[child.index()] as usize,
                    arc_offsets[child.index() + 1] as usize,
                );
                let child_outs = out_arcs[child.index()] as usize;
                let j = (cb + child_outs..ce)
                    .find(|&j| arcs[j].other == u)
                    .expect("every pattern edge appears as an in-arc of its target");
                arcs[i].mirror = (j - cb) as u32;
                arcs[j].mirror = (i - base) as u32;
            }
        }

        let mut node_pairs = Vec::with_capacity(gm.node_count() + 1);
        let mut pair_pattern = Vec::new();
        let mut pair_lists = Vec::new();
        let mut list_offsets = vec![0u32];
        let mut targets = Vec::new();
        node_pairs.push(0u32);
        for v in gm.nodes() {
            for u in q.nodes().filter(|&u| relation.contains(u, v)) {
                pair_pattern.push(u);
                pair_lists.push((list_offsets.len() - 1) as u32);
                let (b, e) = (
                    arc_offsets[u.index()] as usize,
                    arc_offsets[u.index() + 1] as usize,
                );
                let outs = out_arcs[u.index()] as usize;
                for (i, arc) in arcs[b..e].iter().enumerate() {
                    let neighbours = if i < outs {
                        gm.out_neighbors(v)
                    } else {
                        gm.in_neighbors(v)
                    };
                    targets.extend(neighbours.filter(|&w| relation.contains(arc.other, w)));
                    list_offsets.push(targets.len() as u32);
                }
            }
            node_pairs.push(pair_pattern.len() as u32);
        }
        CandidateAdjacency {
            arc_offsets,
            out_arcs,
            arcs,
            node_pairs,
            pair_pattern,
            pair_lists,
            list_offsets,
            targets,
        }
    }

    #[inline]
    fn arcs_of(&self, u: NodeId) -> &[Arc] {
        &self.arcs[self.arc_offsets[u.index()] as usize..self.arc_offsets[u.index() + 1] as usize]
    }

    /// The pairs of `Gm` node `v`, as `(pair id, pattern node)`.
    #[inline]
    fn pairs_of(&self, v: NodeId) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        let (b, e) = (
            self.node_pairs[v.index()] as usize,
            self.node_pairs[v.index() + 1] as usize,
        );
        (b..e).map(|p| (p, self.pair_pattern[p]))
    }

    #[inline]
    fn pair_of(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.pairs_of(v).find(|&(_, pu)| pu == u).map(|(p, _)| p)
    }

    /// The list of pair `p` for the arc at position `arc` of its pattern node.
    #[inline]
    fn list(&self, p: usize, arc: usize) -> &[NodeId] {
        let l = self.pair_lists[p] as usize + arc;
        &self.targets[self.list_offsets[l] as usize..self.list_offsets[l + 1] as usize]
    }
}

/// The match-graph substrate of one query: `Gm`, the global fixpoint renumbered into
/// it, and the candidate adjacency of that relation over it (see the module docs).
/// Built wherever `Gm` is built — one-shot extraction, registration and incremental
/// re-extraction.
#[derive(Debug, Clone)]
pub struct GmSubstrate {
    subgraph: ExtractedSubgraph,
    relation: MatchRelation,
    adjacency: CandidateAdjacency,
}

impl GmSubstrate {
    /// Bundles an extraction with the fixpoint renumbered into it
    /// ([`MatchRelation::renumber_through`]) and builds the candidate adjacency.
    pub fn new(pattern: &Pattern, subgraph: ExtractedSubgraph, relation: MatchRelation) -> Self {
        let adjacency = CandidateAdjacency::build(pattern, subgraph.graph(), &relation);
        GmSubstrate {
            subgraph,
            relation,
            adjacency,
        }
    }

    /// The extraction (`Gm` plus its id translation).
    #[inline]
    pub fn subgraph(&self) -> &ExtractedSubgraph {
        &self.subgraph
    }

    /// `Gm` itself.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.subgraph.graph()
    }

    /// The global fixpoint in `Gm` ids.
    #[inline]
    pub fn relation(&self) -> &MatchRelation {
        &self.relation
    }

    /// Gives the extraction back, dropping the relation and the lists.
    pub fn into_subgraph(self) -> ExtractedSubgraph {
        self.subgraph
    }
}

/// Matches one compact ball built inside `gm.graph()`: projects the global relation onto
/// the ball (as [`MatchRelation::project_compact`] does), refines it with the
/// border-seeded removal cascade over the candidate lists, closes it under `repetition`,
/// and extracts the center's component of the match graph with one BFS over the lists.
///
/// Returns the perfect subgraph in `Gm` ids, the pairs the cascade removed, the size of
/// the projected start relation and the repetition outcome — each equal to what the
/// raw-CSR reference (`project_compact` + [`crate::dual_filter::refine_projected`] +
/// [`crate::match_graph::extract_max_perfect_subgraph`]) yields. No connectivity pruning
/// runs: every `Gm` node is a candidate and a `Gm` ball is the undirected BFS closure of
/// its center, so pruning the projection is the identity.
pub fn match_gm_ball(
    pattern: &Pattern,
    ball: &CompactBall,
    gm: &GmSubstrate,
    repetition: RepetitionSemantics,
    repetition_mode: RepetitionMode,
) -> (Option<PerfectSubgraph>, usize, usize, RepetitionOutcome) {
    let lists = BallLists {
        adj: &gm.adjacency,
        ball,
    };
    // The projection onto the ball, read from the members' pair ranges: the same
    // relation `project_compact` builds, without scanning the pairs outside the ball.
    let mut relation = MatchRelation::empty(gm.relation.pattern_node_count(), ball.node_count());
    for (local, &v) in ball.to_global().iter().enumerate() {
        for (_, u) in gm.adjacency.pairs_of(v) {
            relation.insert(u, NodeId::from_index(local));
        }
    }
    let seeded = relation.pair_count();
    let removed = lists.refine_from_border(&mut relation);
    if !relation.is_total() {
        return (None, removed, seeded, RepetitionOutcome::default());
    }
    let outcome = enforce_repetition(
        pattern,
        &ball.view(gm.graph()),
        &mut relation,
        repetition,
        repetition_mode,
    );
    if !relation.is_total() {
        return (None, removed, seeded, outcome);
    }
    (lists.extract(&relation), removed, seeded, outcome)
}

/// The candidate lists read through one ball: list entries are `Gm` ids, kept only when
/// they are ball members.
struct BallLists<'a> {
    adj: &'a CandidateAdjacency,
    ball: &'a CompactBall,
}

impl BallLists<'_> {
    /// Ball-local members of the list of pair `p` at arc `arc` that are candidates of the
    /// arc's other endpoint in `relation`.
    #[inline]
    fn supporters<'r>(
        &'r self,
        relation: &'r MatchRelation,
        p: usize,
        arc: usize,
        other: NodeId,
    ) -> impl Iterator<Item = NodeId> + 'r {
        self.adj
            .list(p, arc)
            .iter()
            .filter_map(|&w| self.ball.local_of(w))
            .filter(move |&w| relation.contains(other, w))
    }

    /// Whether local pair `(u, v)` (global pair `p`) has a supporter along every arc.
    fn supported(&self, relation: &MatchRelation, p: usize, u: NodeId, v: NodeId) -> bool {
        debug_assert!(relation.contains(u, v));
        self.adj
            .arcs_of(u)
            .iter()
            .enumerate()
            .all(|(i, arc)| self.supporters(relation, p, i, arc.other).next().is_some())
    }

    /// The border-seeded removal cascade of `dualFilter` (Fig. 5) over the lists:
    /// verifies the pairs on border nodes, removes the unsupported ones and re-checks,
    /// for every removal, the neighbouring pairs whose support it carried. Returns the
    /// number of pairs removed; the result is the maximum dual-simulation relation inside
    /// the projection (Proposition 5).
    fn refine_from_border(&self, relation: &mut MatchRelation) -> usize {
        let mut queue: VecDeque<(usize, NodeId, NodeId)> = VecDeque::new();
        for &v in self.ball.border() {
            for (p, u) in self.adj.pairs_of(self.ball.global_of(v)) {
                if relation.contains(u, v) && !self.supported(relation, p, u, v) {
                    queue.push_back((p, u, v));
                }
            }
        }
        let mut removed = 0usize;
        while let Some((p, u, v)) = queue.pop_front() {
            if !relation.remove(u, v) {
                continue;
            }
            removed += 1;
            // Every neighbouring pair `(u2, v2)` that `(u, v)` supported along an arc of
            // `u` loses that supporter; it is unsupported when none is left along the
            // mirror arc.
            for (i, arc) in self.adj.arcs_of(u).iter().enumerate() {
                let u2 = arc.other;
                for v2 in self.supporters(relation, p, i, u2) {
                    let p2 = self
                        .adj
                        .pair_of(u2, self.ball.global_of(v2))
                        .expect("a ball relation is contained in the global one");
                    if self
                        .supporters(relation, p2, arc.mirror as usize, u)
                        .next()
                        .is_none()
                    {
                        queue.push_back((p2, u2, v2));
                    }
                }
            }
        }
        removed
    }

    /// `ExtractMaxPG` (Fig. 3) fused into one BFS from the center over the match-graph
    /// edges the lists yield: returns the center's component with its out-edges and its
    /// relation pairs, in `Gm` ids and sorted, or `None` when the center is unmatched.
    fn extract(&self, relation: &MatchRelation) -> Option<PerfectSubgraph> {
        let center = self.ball.center();
        let q_nodes = relation.pattern_node_count();
        if !(0..q_nodes).any(|u| relation.contains(NodeId::from_index(u), center)) {
            return None;
        }
        let mut seen = BitSet::new(self.ball.node_count());
        seen.insert(center.index());
        let mut component = vec![center];
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut head = 0;
        while head < component.len() {
            let v = component[head];
            head += 1;
            let vg = self.ball.global_of(v);
            for (p, u) in self.adj.pairs_of(vg) {
                if !relation.contains(u, v) {
                    continue;
                }
                let outs = self.adj.out_arcs[u.index()] as usize;
                for (i, arc) in self.adj.arcs_of(u).iter().enumerate() {
                    for w in self.supporters(relation, p, i, arc.other) {
                        if i < outs {
                            edges.push((vg, self.ball.global_of(w)));
                        }
                        if seen.insert(w.index()) {
                            component.push(w);
                        }
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut nodes: Vec<NodeId> = component.iter().map(|&v| self.ball.global_of(v)).collect();
        nodes.sort_unstable();
        let relation_pairs: Vec<(NodeId, NodeId)> = (0..q_nodes)
            .map(NodeId::from_index)
            .flat_map(|u| {
                nodes
                    .iter()
                    .filter(move |&&v| {
                        self.ball
                            .local_of(v)
                            .is_some_and(|local| relation.contains(u, local))
                    })
                    .map(move |&v| (u, v))
            })
            .collect();
        Some(PerfectSubgraph {
            center: self.ball.center_global(),
            radius: self.ball.radius(),
            nodes,
            edges,
            relation: relation_pairs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::dual_simulation;
    use crate::dual_filter::refine_projected;
    use crate::match_graph::extract_max_perfect_subgraph;
    use crate::strong::translate_subgraph;
    use ssim_graph::{BallScratch, Label};

    impl CandidateAdjacency {
        /// The list of the pattern edge `(u, child)` at candidate `v` of `u`.
        fn out_list(&self, u: NodeId, child: NodeId, v: NodeId) -> Option<&[NodeId]> {
            let arc = self.arcs_of(u)[..self.out_arcs[u.index()] as usize]
                .iter()
                .position(|a| a.other == child)?;
            Some(self.list(self.pair_of(u, v)?, arc))
        }

        /// The list of the pattern edge `(parent, u)` at candidate `v` of `u`.
        fn in_list(&self, parent: NodeId, u: NodeId, v: NodeId) -> Option<&[NodeId]> {
            let outs = self.out_arcs[u.index()] as usize;
            let arc = self.arcs_of(u)[outs..]
                .iter()
                .position(|a| a.other == parent)?;
            Some(self.list(self.pair_of(u, v)?, outs + arc))
        }
    }

    /// The substrate of `pattern` over `data`, or `None` when nothing dual-simulates.
    fn substrate(pattern: &Pattern, data: &Graph) -> Option<GmSubstrate> {
        let global = dual_simulation(pattern, data)?;
        let (sub, inner) = global.extract_matched_subgraph(data, &mut BitSet::new(0));
        Some(GmSubstrate::new(pattern, sub, inner))
    }

    /// Every list equals the brute-force filter of the raw `Gm` CSR, and non-candidates
    /// and non-edges have no list.
    fn assert_lists_are_brute_force(pattern: &Pattern, gm: &GmSubstrate) {
        let g = gm.graph();
        let rel = gm.relation();
        let mut pairs = 0;
        let mut entries = 0;
        for (u, child) in pattern.graph().edges() {
            for v in g.nodes() {
                if !rel.contains(u, v) {
                    assert_eq!(gm.adjacency.out_list(u, child, v), None);
                    continue;
                }
                let want: Vec<NodeId> = g
                    .out_neighbors(v)
                    .filter(|&w| rel.contains(child, w))
                    .collect();
                assert_eq!(gm.adjacency.out_list(u, child, v), Some(want.as_slice()));
                entries += want.len();
            }
            for v in g.nodes() {
                if !rel.contains(child, v) {
                    assert_eq!(gm.adjacency.in_list(u, child, v), None);
                    continue;
                }
                let want: Vec<NodeId> = g.in_neighbors(v).filter(|&w| rel.contains(u, w)).collect();
                assert_eq!(gm.adjacency.in_list(u, child, v), Some(want.as_slice()));
                entries += want.len();
            }
        }
        for u in pattern.nodes() {
            for v in g.nodes() {
                pairs += usize::from(rel.contains(u, v));
                for other in pattern.nodes() {
                    if !pattern.graph().has_edge(u, other) {
                        assert_eq!(gm.adjacency.out_list(u, other, v), None);
                    }
                }
            }
        }
        assert_eq!(gm.adjacency.pair_pattern.len(), pairs);
        assert_eq!(gm.adjacency.targets.len(), entries);
    }

    /// Both per-ball paths agree on every ball of the substrate.
    fn assert_ball_paths_agree(pattern: &Pattern, gm: &GmSubstrate, radius: usize) {
        let mut scratch = BallScratch::new();
        for center in gm.graph().nodes() {
            let ball = CompactBall::build(gm.graph(), center, radius, &mut scratch);
            let (row, removed, seeded, _) = match_gm_ball(
                pattern,
                &ball,
                gm,
                RepetitionSemantics::Free,
                RepetitionMode::Integrated,
            );
            let view = ball.view(gm.graph());
            let start = gm.relation().project_compact(&ball);
            assert_eq!(seeded, start.pair_count());
            let mut want_removed = 0;
            let want = refine_projected(
                pattern,
                &view,
                ball.border(),
                start,
                Some(&mut want_removed),
            )
            .and_then(|rel| {
                extract_max_perfect_subgraph(pattern, &view, &rel, ball.center(), radius)
            })
            .map(|s| translate_subgraph(s, &ball));
            assert_eq!(removed, want_removed, "removed pairs at {center}");
            assert_eq!(row, want, "row at {center}");
            ball.recycle(&mut scratch);
        }
    }

    #[test]
    fn lists_equal_brute_force_on_figure1() {
        let (pattern, data, _) = crate::strong::tests::figure1();
        let gm = substrate(&pattern, &data).expect("figure 1 dual-simulates");
        assert_lists_are_brute_force(&pattern, &gm);
        for radius in 0..=pattern.diameter() {
            assert_ball_paths_agree(&pattern, &gm, radius);
        }
    }

    #[test]
    fn lists_cover_self_loops_and_two_way_edges() {
        // a(A) ⇄ b(B), b → b, b → c(C): a two-way pair and a self-loop on one node.
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(2)],
            &[(0, 1), (1, 0), (1, 1), (1, 2)],
        )
        .unwrap();
        let data = Graph::from_edges(
            vec![
                Label(0),
                Label(1),
                Label(1),
                Label(2),
                Label(0),
                Label(1),
                Label(2),
            ],
            &[
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 2),
                (1, 3),
                (2, 3),
                (4, 2),
                (2, 4),
                (5, 5),
                (5, 6),
                (4, 5),
            ],
        )
        .unwrap();
        let gm = substrate(&pattern, &data).expect("the data dual-simulates the pattern");
        // Data nodes 0–4 match (5 lacks an A-child), so `Gm` keeps their ids; node 1's
        // self-loop list holds itself and its B-neighbour 2.
        assert_eq!(gm.subgraph().to_outer().len(), 5);
        let loop_list: &[NodeId] = &[NodeId(1), NodeId(2)];
        assert_eq!(
            gm.adjacency.out_list(NodeId(1), NodeId(1), NodeId(1)),
            Some(loop_list)
        );
        assert_eq!(
            gm.adjacency.in_list(NodeId(1), NodeId(1), NodeId(1)),
            Some(loop_list)
        );
        assert_lists_are_brute_force(&pattern, &gm);
        for radius in 0..=3 {
            assert_ball_paths_agree(&pattern, &gm, radius);
        }
    }
}
