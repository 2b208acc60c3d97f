//! Graph simulation `Q ≺ G` (Milner; Henzinger, Henzinger & Kopke).
//!
//! A graph `G` matches pattern `Q` via graph simulation when there is a relation
//! `S ⊆ Vq × V` such that
//!
//! 1. every `(u, v) ∈ S` relates identically labelled nodes, and
//! 2. every pattern node has a match, and for every pattern edge `(u, u')` and `(u, v) ∈ S`
//!    there is a data edge `(v, v')` with `(u', v') ∈ S`.
//!
//! Only the *child* relationship is preserved — the paper's Example 1 shows how this loses
//! topology. The maximum simulation relation is unique; [`graph_simulation`] computes it with
//! the classic candidate-refinement fixpoint, operating over a [`GraphView`] so the same code
//! serves whole graphs and balls.

use crate::relation::MatchRelation;
use ssim_graph::{AdjView, Graph, GraphView, NodeId, Pattern};
use std::collections::VecDeque;

/// Computes the maximum graph-simulation relation of `pattern` over `view`.
///
/// Returns `None` when `view` does not match the pattern (some pattern node ends up with an
/// empty candidate set); otherwise returns the unique maximum match relation.
pub fn graph_simulation_view<V: AdjView>(pattern: &Pattern, view: &V) -> Option<MatchRelation> {
    let relation = refine(
        pattern,
        view,
        RefineMode::ChildrenOnly,
        initial_candidates(pattern, view),
    );
    relation.filter(MatchRelation::is_total)
}

/// Computes the maximum graph-simulation relation of `pattern` over the whole `data` graph.
pub fn graph_simulation(pattern: &Pattern, data: &Graph) -> Option<MatchRelation> {
    graph_simulation_view(pattern, &GraphView::full(data))
}

/// [`graph_simulation`] with an explicit [`RefineStrategy`] — `NaiveFixpoint` is the seed's
/// re-scan loop, kept as the equivalence oracle for tests and ablation benches.
pub fn graph_simulation_with(
    pattern: &Pattern,
    data: &Graph,
    strategy: RefineStrategy,
) -> Option<MatchRelation> {
    let view = GraphView::full(data);
    let relation = refine_with(
        pattern,
        &view,
        RefineMode::ChildrenOnly,
        initial_candidates(pattern, &view),
        strategy,
    );
    relation.filter(MatchRelation::is_total)
}

/// Returns `true` when `Q ≺ G`, i.e. the data graph matches the pattern via graph simulation.
pub fn simulates(pattern: &Pattern, data: &Graph) -> bool {
    graph_simulation(pattern, data).is_some()
}

/// Which refinement conditions to enforce. Shared by plain and dual simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefineMode {
    /// Enforce only the child (successor) condition — graph simulation.
    ChildrenOnly,
    /// Enforce both the child and the parent (predecessor) conditions — dual simulation.
    ChildrenAndParents,
}

/// Builds the initial candidate sets `sim(u) = {v ∈ view | l(v) = l(u)}`.
pub fn initial_candidates<V: AdjView>(pattern: &Pattern, view: &V) -> MatchRelation {
    let mut relation = MatchRelation::empty(pattern.node_count(), view.id_space());
    for u in pattern.nodes() {
        for v in view.nodes_with_label(pattern.label(u)) {
            relation.insert(u, v);
        }
    }
    relation
}

/// Builds a superset of the maximum dual-simulation relation of `pattern` over `view`
/// that is seeded from pattern neighbourhoods instead of whole label classes.
///
/// The pattern node with the smallest label class is seeded with that class. Every other
/// node `u` is then seeded, in greedy order (unseeded nodes adjacent to a seeded node,
/// smallest label class first), from the already-seeded neighbour `w` with the fewest
/// candidates: for a pattern edge `(w, u)` with the label-`l(u)` out-neighbours of
/// `sim(w)`, for a pattern edge `(u, w)` with the label-`l(u)` in-neighbours of `sim(w)`.
/// Seeding stops early, leaving the result non-total, once a set comes out empty.
///
/// **Exactness.** The parent condition forces `R*(u) ⊆ out(R*(w))` for a pattern edge
/// `(w, u)` and the child condition forces `R*(u) ⊆ in(R*(w))` for `(u, w)`, where `R*`
/// is the maximum dual-simulation relation. Patterns are connected, so induction over the
/// seeding order gives `dual_candidates ⊇ R*`, and refining from it reaches exactly `R*`.
pub fn dual_candidates<V: AdjView>(pattern: &Pattern, view: &V) -> MatchRelation {
    let q = pattern.graph();
    let nq = pattern.node_count();
    let mut relation = MatchRelation::empty(nq, view.id_space());
    let class: Vec<usize> = pattern
        .nodes()
        .map(|u| view.nodes_with_label(pattern.label(u)).count())
        .collect();
    let mut seeded = vec![false; nq];
    let root = pattern
        .nodes()
        .min_by_key(|u| class[u.index()])
        .expect("patterns have at least one node");
    for v in view.nodes_with_label(pattern.label(root)) {
        relation.insert(root, v);
    }
    seeded[root.index()] = true;
    if relation.candidates(root).is_empty() {
        return relation;
    }
    let mut buffer: Vec<NodeId> = Vec::new();
    for _ in 1..nq {
        let u = pattern
            .nodes()
            .filter(|u| {
                !seeded[u.index()]
                    && q.in_neighbors(*u)
                        .chain(q.out_neighbors(*u))
                        .any(|w| seeded[w.index()])
            })
            .min_by_key(|u| class[u.index()])
            .expect("patterns are connected");
        // `true` when the source is a pattern parent of `u`, i.e. the edge is `(w, u)`.
        let (w, from_parent) = q
            .in_neighbors(u)
            .map(|w| (w, true))
            .chain(q.out_neighbors(u).map(|w| (w, false)))
            .filter(|(w, _)| seeded[w.index()])
            .min_by_key(|(w, _)| relation.candidates(*w).len())
            .expect("u is adjacent to a seeded node");
        let label = pattern.label(u);
        buffer.clear();
        for v in relation.candidates(w).iter().map(NodeId::from_index) {
            if from_parent {
                buffer.extend(view.out_neighbors(v).filter(|&x| view.label(x) == label));
            } else {
                buffer.extend(view.in_neighbors(v).filter(|&x| view.label(x) == label));
            }
        }
        for &x in &buffer {
            relation.insert(u, x);
        }
        seeded[u.index()] = true;
        if buffer.is_empty() {
            break;
        }
    }
    relation
}

/// Which refinement algorithm to run. The worklist engine is the default everywhere; the
/// naive fixpoint is retained as the equivalence oracle for tests and ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineStrategy {
    /// Counter-based worklist refinement (HHK-style): each removal is propagated
    /// incrementally through per-`(pattern edge, data node)` support counters.
    #[default]
    Worklist,
    /// The seed's `while changed` re-scan of every candidate of every pattern edge. Its
    /// global dual-simulation fixpoint still starts from [`initial_candidates`] (whole
    /// label classes), so the oracle does not depend on [`dual_candidates`] seeding.
    NaiveFixpoint,
}

/// Iteratively removes candidates that violate the simulation conditions until a fixpoint is
/// reached. Returns the refined relation (which may have empty candidate sets).
///
/// This is the refinement loop of procedure `DualSim` in Fig. 3 of the paper, parameterised
/// by whether the parent condition is enforced. Dispatches to the worklist engine.
pub(crate) fn refine<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    mode: RefineMode,
    relation: MatchRelation,
) -> Option<MatchRelation> {
    refine_with(pattern, view, mode, relation, RefineStrategy::Worklist)
}

/// [`refine`] with an explicit [`RefineStrategy`].
pub(crate) fn refine_with<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    mode: RefineMode,
    relation: MatchRelation,
    strategy: RefineStrategy,
) -> Option<MatchRelation> {
    match strategy {
        RefineStrategy::Worklist => refine_worklist(pattern, view, mode, relation),
        RefineStrategy::NaiveFixpoint => refine_naive(pattern, view, mode, relation),
    }
}

/// Counter-based worklist refinement.
///
/// For every pattern edge `e = (u, u')` two families of support counters are kept:
///
/// * `child[e][v]` — for `v ∈ sim(u)`, the number of out-neighbours of `v` in `sim(u')`
///   (the child condition's witnesses), and
/// * `parent[e][v']` — for `v' ∈ sim(u')`, the number of in-neighbours of `v'` in `sim(u)`
///   (the parent condition's witnesses, dual mode only).
///
/// A pair whose counter reaches zero is removed and pushed on a queue; processing a removed
/// pair `(u, v)` decrements exactly the counters whose witness set contained `v`, so
/// removals propagate incrementally instead of via the naive loop's quadratic re-scans.
/// Counters are capped at [`COUNT_CAP`] with an exact recount on suspected zeros, which
/// keeps every neighbourhood scan as short as the naive pass's early-exit `any` while
/// preserving the worklist's incremental propagation on long removal cascades.
fn refine_worklist<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    mode: RefineMode,
    relation: MatchRelation,
) -> Option<MatchRelation> {
    REFINE_SCRATCH
        .with_borrow_mut(|scratch| refine_worklist_with(pattern, view, mode, relation, scratch))
}

/// Witness counters are *capped* at this value: a counter never stores more than
/// `COUNT_CAP`, so both the initial count and every recount stop scanning a neighbourhood
/// after two witnesses (the same early-exit the naive pass enjoys via `any`). A decrement
/// that reaches zero therefore only *suspects* a lost pair and triggers an exact (still
/// capped) recount before removal — removals stay exact, scans stay short.
pub(crate) const COUNT_CAP: u32 = 2;

/// Counts elements of `iter` satisfying `pred`, stopping at [`COUNT_CAP`].
#[inline]
pub(crate) fn count_capped<I: Iterator<Item = NodeId>>(
    iter: I,
    mut pred: impl FnMut(NodeId) -> bool,
) -> u32 {
    let mut c = 0u32;
    for w in iter {
        if pred(w) {
            c += 1;
            if c >= COUNT_CAP {
                break;
            }
        }
    }
    c
}

/// Reusable buffers for [`refine_worklist_with`], held in a thread-local so the per-ball
/// refinement calls of the matching engine do not allocate.
///
/// The counter arrays are grown but **never zeroed**: phase 1 writes the counter of every
/// `(edge, candidate)` pair before phase 2 reads it, and only candidate entries are ever
/// read, so stale values from previous calls are unreachable.
#[derive(Default)]
struct RefineScratch {
    /// Flat child-support counters, indexed `edge * n + node`.
    child: Vec<u32>,
    /// Flat parent-support counters (dual mode), indexed `edge * n + node`.
    parent: Vec<u32>,
    /// Work queue of removed pairs awaiting propagation.
    queue: VecDeque<(NodeId, NodeId)>,
    /// Pairs found unsupported during counter initialisation.
    dead: Vec<(NodeId, NodeId)>,
    /// The pattern's edge list.
    edges: Vec<(NodeId, NodeId)>,
    /// Edge ids grouped by child endpoint (CSR offsets + ids).
    ein_off: Vec<u32>,
    ein: Vec<u32>,
    /// Edge ids grouped by parent endpoint (CSR offsets + ids).
    eout_off: Vec<u32>,
    eout: Vec<u32>,
}

thread_local! {
    static REFINE_SCRATCH: std::cell::RefCell<RefineScratch> =
        std::cell::RefCell::new(RefineScratch::default());
}

fn refine_worklist_with<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    mode: RefineMode,
    mut relation: MatchRelation,
    scratch: &mut RefineScratch,
) -> Option<MatchRelation> {
    let q = pattern.graph();
    scratch.edges.clear();
    scratch.edges.extend(q.edges());
    let edges = std::mem::take(&mut scratch.edges);
    if edges.is_empty() {
        scratch.edges = edges;
        return Some(relation);
    }
    let n = relation.data_node_capacity();
    let dual = mode == RefineMode::ChildrenAndParents;

    // Phase 1: compute every counter against the *full* starting relation, collecting the
    // initially unsupported pairs. Counters must all see the same relation snapshot —
    // removing eagerly here would make later decrements double-count.
    if scratch.child.len() < edges.len() * n {
        scratch.child.resize(edges.len() * n, 0);
    }
    if dual && scratch.parent.len() < edges.len() * n {
        scratch.parent.resize(edges.len() * n, 0);
    }
    let child = &mut scratch.child;
    let parent = &mut scratch.parent;
    scratch.queue.clear();
    scratch.dead.clear();
    for (e, &(u, u_child)) in edges.iter().enumerate() {
        let base = e * n;
        for v in relation.candidates(u).iter().map(NodeId::from_index) {
            let c = count_capped(view.out_neighbors(v), |w| relation.contains(u_child, w));
            child[base + v.index()] = c;
            if c == 0 {
                scratch.dead.push((u, v));
            }
        }
        if dual {
            for v in relation.candidates(u_child).iter().map(NodeId::from_index) {
                let c = count_capped(view.in_neighbors(v), |w| relation.contains(u, w));
                parent[base + v.index()] = c;
                if c == 0 {
                    scratch.dead.push((u_child, v));
                }
            }
        }
    }
    for &(u, v) in &scratch.dead {
        // A pair may be unsupported w.r.t. several edges; remove (and queue) it once.
        if relation.remove(u, v) {
            if relation.candidates(u).is_empty() {
                scratch.edges = edges;
                return Some(relation);
            }
            scratch.queue.push_back((u, v));
        }
    }

    // Pattern adjacency by edge id (counting-sort CSR), so propagation can find the edges
    // touching a node without nested vectors.
    let nq = q.node_count();
    scratch.ein_off.clear();
    scratch.ein_off.resize(nq + 1, 0);
    scratch.eout_off.clear();
    scratch.eout_off.resize(nq + 1, 0);
    for &(u, u_child) in &edges {
        scratch.eout_off[u.index() + 1] += 1;
        scratch.ein_off[u_child.index() + 1] += 1;
    }
    for i in 0..nq {
        scratch.ein_off[i + 1] += scratch.ein_off[i];
        scratch.eout_off[i + 1] += scratch.eout_off[i];
    }
    scratch.ein.clear();
    scratch.ein.resize(edges.len(), 0);
    scratch.eout.clear();
    scratch.eout.resize(edges.len(), 0);
    {
        let mut ein_cursor: Vec<u32> = scratch.ein_off[..nq].to_vec();
        let mut eout_cursor: Vec<u32> = scratch.eout_off[..nq].to_vec();
        for (e, &(u, u_child)) in edges.iter().enumerate() {
            scratch.eout[eout_cursor[u.index()] as usize] = e as u32;
            eout_cursor[u.index()] += 1;
            scratch.ein[ein_cursor[u_child.index()] as usize] = e as u32;
            ein_cursor[u_child.index()] += 1;
        }
    }

    // Phase 2: drain the queue, propagating each removal to the counters it supported.
    while let Some((u, v)) = scratch.queue.pop_front() {
        // v left sim(u): for every pattern edge (u2, u), data parents w of v lose one child
        // witness for that edge.
        let ui = u.index();
        for &e in &scratch.ein[scratch.ein_off[ui] as usize..scratch.ein_off[ui + 1] as usize] {
            let e = e as usize;
            let u2 = edges[e].0;
            let base = e * n;
            for w in view.in_neighbors(v) {
                if relation.contains(u2, w) {
                    child[base + w.index()] -= 1;
                    if child[base + w.index()] == 0 {
                        // The cap means a zero is only a *suspicion*: recount exactly
                        // (capped again) before concluding the pair lost all support.
                        let c = count_capped(view.out_neighbors(w), |x| relation.contains(u, x));
                        child[base + w.index()] = c;
                        if c == 0 && relation.remove(u2, w) {
                            if relation.candidates(u2).is_empty() {
                                scratch.edges = edges;
                                return Some(relation);
                            }
                            scratch.queue.push_back((u2, w));
                        }
                    }
                }
            }
        }
        if dual {
            // v left sim(u): for every pattern edge (u, u3), data children w of v lose one
            // parent witness for that edge.
            for &e in
                &scratch.eout[scratch.eout_off[ui] as usize..scratch.eout_off[ui + 1] as usize]
            {
                let e = e as usize;
                let u3 = edges[e].1;
                let base = e * n;
                for w in view.out_neighbors(v) {
                    if relation.contains(u3, w) {
                        parent[base + w.index()] -= 1;
                        if parent[base + w.index()] == 0 {
                            let c = count_capped(view.in_neighbors(w), |x| relation.contains(u, x));
                            parent[base + w.index()] = c;
                            if c == 0 && relation.remove(u3, w) {
                                if relation.candidates(u3).is_empty() {
                                    scratch.edges = edges;
                                    return Some(relation);
                                }
                                scratch.queue.push_back((u3, w));
                            }
                        }
                    }
                }
            }
        }
    }
    scratch.edges = edges;
    Some(relation)
}

/// The seed's naive re-scan fixpoint, kept verbatim as the equivalence oracle: the proptest
/// suite asserts it agrees with [`RefineStrategy::Worklist`] on random inputs, and the
/// ablation benches measure the gap.
fn refine_naive<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    mode: RefineMode,
    mut relation: MatchRelation,
) -> Option<MatchRelation> {
    let q = pattern.graph();
    let mut changed = true;
    while changed {
        changed = false;
        for (u, u_child) in q.edges() {
            // Child condition: v ∈ sim(u) needs an out-neighbour in sim(u_child).
            let removals: Vec<NodeId> = relation
                .candidates(u)
                .iter()
                .map(NodeId::from_index)
                .filter(|&v| !view.out_neighbors(v).any(|w| relation.contains(u_child, w)))
                .collect();
            for v in removals {
                relation.remove(u, v);
                changed = true;
            }
            if relation.candidates(u).is_empty() {
                return Some(relation);
            }
            if mode == RefineMode::ChildrenAndParents {
                // Parent condition: v ∈ sim(u_child) needs an in-neighbour in sim(u).
                let removals: Vec<NodeId> = relation
                    .candidates(u_child)
                    .iter()
                    .map(NodeId::from_index)
                    .filter(|&v| !view.in_neighbors(v).any(|w| relation.contains(u, w)))
                    .collect();
                for v in removals {
                    relation.remove(u_child, v);
                    changed = true;
                }
                if relation.candidates(u_child).is_empty() {
                    return Some(relation);
                }
            }
        }
    }
    Some(relation)
}

/// Checks that `relation` is a valid (not necessarily maximum) graph-simulation witness:
/// labels match, every pattern node has a candidate, and the child condition holds for every
/// pair. Used by tests and by the topology report.
pub fn is_valid_simulation(pattern: &Pattern, data: &Graph, relation: &MatchRelation) -> bool {
    let view = GraphView::full(data);
    if !relation.is_total() || !relation.respects_labels(pattern, data) {
        return false;
    }
    for (u, u_child) in pattern.graph().edges() {
        for v in relation.candidates(u).iter().map(NodeId::from_index) {
            if !view.out_neighbors(v).any(|w| relation.contains(u_child, w)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_graph::Label;

    /// Pattern: A -> B. Data: A -> B plus an extra A with no B child.
    #[test]
    fn simple_child_refinement() {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1), Label(0)], &[(0, 1)]).unwrap();
        let relation = graph_simulation(&pattern, &data).unwrap();
        // Data node 2 (label A, no child) must be removed from sim(A).
        assert_eq!(relation.to_sorted_pairs(), vec![(0, 0), (1, 1)]);
        assert!(simulates(&pattern, &data));
        assert!(is_valid_simulation(&pattern, &data, &relation));
    }

    #[test]
    fn no_match_when_label_is_missing() {
        let pattern = Pattern::from_edges(vec![Label(0), Label(9)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        assert!(graph_simulation(&pattern, &data).is_none());
        assert!(!simulates(&pattern, &data));
    }

    #[test]
    fn no_match_when_edge_cannot_be_simulated() {
        // Pattern: A -> A (needs an A with an A child). Data: single A, no edges.
        let pattern = Pattern::from_edges(vec![Label(0), Label(0)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0)], &[]).unwrap();
        assert!(!simulates(&pattern, &data));
    }

    #[test]
    fn directed_cycle_matches_longer_cycle() {
        // Pattern: 2-cycle A <-> B. Data: 4-cycle A -> B -> A -> B -> (first A).
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1), (1, 0)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(0), Label(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        .unwrap();
        let relation = graph_simulation(&pattern, &data).unwrap();
        // Every data node participates: simulation cannot tell the 2-cycle from the 4-cycle.
        assert_eq!(relation.pair_count(), 4);
    }

    #[test]
    fn simulation_ignores_parents_example1_style() {
        // Pattern: HR -> Bio and SE -> Bio (Bio needs two parents).
        // Data: HR -> Bio1, SE -> Bio2 — no Bio has both parents, yet simulation matches.
        let pattern =
            Pattern::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 2), (1, 2)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(2), Label(2)],
            &[(0, 2), (1, 3)],
        )
        .unwrap();
        let relation = graph_simulation(&pattern, &data).unwrap();
        // Both Bio1 and Bio2 stay in sim(Bio): the parent condition is not enforced.
        assert_eq!(relation.candidates(NodeId(2)).len(), 2);
    }

    #[test]
    fn maximum_relation_contains_any_valid_witness() {
        // The maximum relation must be a superset of a hand-constructed witness.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(0), Label(1)],
            &[(0, 1), (2, 3)],
        )
        .unwrap();
        let maximum = graph_simulation(&pattern, &data).unwrap();
        let mut witness = MatchRelation::empty(2, 4);
        witness.insert(NodeId(0), NodeId(0));
        witness.insert(NodeId(1), NodeId(1));
        assert!(is_valid_simulation(&pattern, &data, &witness));
        assert!(witness.is_subrelation_of(&maximum));
        assert_eq!(maximum.pair_count(), 4);
    }

    #[test]
    fn single_node_pattern_matches_every_labelled_node() {
        let pattern = Pattern::from_edges(vec![Label(5)], &[]).unwrap();
        let data = Graph::from_edges(vec![Label(5), Label(5), Label(1)], &[(0, 1)]).unwrap();
        let relation = graph_simulation(&pattern, &data).unwrap();
        assert_eq!(relation.to_sorted_pairs(), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn self_loop_pattern_requires_cycle() {
        // Pattern: A with a self-loop. A chain of A's has no directed cycle, so no match.
        let pattern = Pattern::from_edges(vec![Label(0)], &[(0, 0)]).unwrap();
        let chain = Graph::from_edges(vec![Label(0); 3], &[(0, 1), (1, 2)]).unwrap();
        assert!(!simulates(&pattern, &chain));
        let cycle = Graph::from_edges(vec![Label(0); 3], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(simulates(&pattern, &cycle));
    }

    /// `dual_candidates` must contain the maximum dual-simulation relation on the paper's
    /// fixtures, and refining it must reach exactly that relation.
    #[test]
    fn dual_candidates_contain_the_fixpoint_on_paper_fixtures() {
        let (fig1_pattern, fig1_data, _) = crate::strong::tests::figure1();
        let fixtures = [
            (fig1_pattern, fig1_data),
            crate::dual::tests::book_example(),
        ];
        for (pattern, data) in &fixtures {
            let start = dual_candidates(pattern, data);
            let labels = initial_candidates(pattern, data);
            let dual = crate::dual::dual_simulation(pattern, data).unwrap();
            assert!(dual.is_subrelation_of(&start));
            assert!(start.is_subrelation_of(&labels));
            let refined = crate::dual::refine_dual(pattern, data, start).unwrap();
            assert_eq!(refined.to_sorted_pairs(), dual.to_sorted_pairs());
        }
        // On Fig. 1 the seeding already discards the partial components' HR/SE/Bio nodes
        // and the long AI/DM cycle.
        let (pattern, data) = &fixtures[0];
        assert!(
            dual_candidates(pattern, data).pair_count()
                < initial_candidates(pattern, data).pair_count()
        );
    }

    #[test]
    fn dual_candidates_of_a_single_node_pattern_is_its_label_class() {
        let pattern = Pattern::from_edges(vec![Label(5)], &[]).unwrap();
        let data = Graph::from_edges(vec![Label(5), Label(5), Label(1)], &[(0, 1)]).unwrap();
        let start = dual_candidates(&pattern, &data);
        assert_eq!(start.to_sorted_pairs(), vec![(0, 0), (0, 1)]);
        assert_eq!(
            start.to_sorted_pairs(),
            initial_candidates(&pattern, &data).to_sorted_pairs()
        );
    }

    #[test]
    fn dual_candidates_is_non_total_when_the_rarest_label_is_absent() {
        // Pattern A -> C, and the data graph has no C at all.
        let pattern = Pattern::from_edges(vec![Label(0), Label(9)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(0), Label(1)], &[(0, 2)]).unwrap();
        let start = dual_candidates(&pattern, &data);
        assert!(!start.is_total());
        assert!(crate::dual::dual_simulation(&pattern, &data).is_none());
    }

    #[test]
    fn dual_candidates_follow_edge_direction() {
        // Pattern A -> B with B the rarest label. Data: a0 -> b (a parent), b -> a1 (a
        // child), a2 isolated. sim(A) must be seeded from the in-neighbours of sim(B).
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(0), Label(0), Label(1)],
            &[(0, 3), (3, 1)],
        )
        .unwrap();
        let start = dual_candidates(&pattern, &data);
        assert_eq!(start.to_sorted_pairs(), vec![(0, 0), (1, 3)]);
        // The reversed pattern B -> A seeds sim(A) from the out-neighbours instead.
        let reversed = Pattern::from_edges(vec![Label(0), Label(1)], &[(1, 0)]).unwrap();
        let start = dual_candidates(&reversed, &data);
        assert_eq!(start.to_sorted_pairs(), vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn dual_candidates_with_self_loop_patterns() {
        // A lone self-loop has no neighbour to seed from: its start is the label class,
        // and refinement keeps only the nodes on a directed cycle.
        let pattern = Pattern::from_edges(vec![Label(0)], &[(0, 0)]).unwrap();
        let data = Graph::from_edges(vec![Label(0); 4], &[(0, 1), (1, 2), (2, 1)]).unwrap();
        let start = dual_candidates(&pattern, &data);
        assert_eq!(start.pair_count(), 4);
        let dual = crate::dual::dual_simulation(&pattern, &data).unwrap();
        assert_eq!(dual.to_sorted_pairs(), vec![(0, 1), (0, 2)]);

        // A self-loop on A -> B, with B rarest: sim(A) comes from B's parents, the loop
        // itself is never a seeding edge, and refinement drops the loop-less parent.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 0), (0, 1)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(0), Label(0), Label(1)],
            &[(0, 0), (0, 3), (1, 3), (2, 2)],
        )
        .unwrap();
        let start = dual_candidates(&pattern, &data);
        assert_eq!(start.to_sorted_pairs(), vec![(0, 0), (0, 1), (1, 3)]);
        let dual = crate::dual::dual_simulation(&pattern, &data).unwrap();
        assert_eq!(dual.to_sorted_pairs(), vec![(0, 0), (1, 3)]);
        assert!(dual.is_subrelation_of(&start));
    }

    #[test]
    fn is_valid_simulation_rejects_bad_witnesses() {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        // Empty relation: not total.
        let empty = MatchRelation::empty(2, 2);
        assert!(!is_valid_simulation(&pattern, &data, &empty));
        // Label-violating relation.
        let mut bad = MatchRelation::empty(2, 2);
        bad.insert(NodeId(0), NodeId(1));
        bad.insert(NodeId(1), NodeId(0));
        assert!(!is_valid_simulation(&pattern, &data, &bad));
    }
}
