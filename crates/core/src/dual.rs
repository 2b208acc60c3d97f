//! Dual simulation `Q ≺D G`: child- **and** parent-preserving simulation.
//!
//! Dual simulation strengthens graph simulation with the *duality* condition: for every pair
//! `(u, v)` in the relation and every pattern edge `(u2, u)` there must be a data edge
//! `(v2, v)` with `(u2, v2)` in the relation. The maximum dual-simulation relation is unique
//! (Lemma 1) and is the building block of strong simulation: the `Match` algorithm runs this
//! procedure (`DualSim` in Fig. 3) inside every ball.

use crate::relation::MatchRelation;
use crate::simulation::{
    dual_candidates, initial_candidates, refine, refine_with, RefineMode, RefineStrategy,
};
use ssim_graph::{AdjView, Graph, GraphView, NodeId, Pattern};

/// Computes the maximum dual-simulation relation of `pattern` over `view`
/// (procedure `DualSim` of the paper).
///
/// Returns `None` when the view does not match the pattern via dual simulation.
pub fn dual_simulation_view<V: AdjView>(pattern: &Pattern, view: &V) -> Option<MatchRelation> {
    global_dual_simulation(pattern, view, RefineStrategy::Worklist)
}

/// Computes the maximum dual-simulation relation over the whole data graph.
pub fn dual_simulation(pattern: &Pattern, data: &Graph) -> Option<MatchRelation> {
    dual_simulation_view(pattern, &GraphView::full(data))
}

/// [`dual_simulation`] with an explicit [`RefineStrategy`]. `Worklist` refines from the
/// neighbourhood-seeded [`dual_candidates`]; `NaiveFixpoint` is the seed's re-scan loop
/// over the label-class [`initial_candidates`], kept as the equivalence oracle for tests
/// and ablation benches.
pub fn dual_simulation_with(
    pattern: &Pattern,
    data: &Graph,
    strategy: RefineStrategy,
) -> Option<MatchRelation> {
    global_dual_simulation(pattern, &GraphView::full(data), strategy)
}

/// The global dual-simulation fixpoint behind [`dual_simulation_with`] and
/// [`crate::incremental::global_fixpoint`], generic over the view. Both starts contain the
/// maximum relation, so both strategies reach the same result; a non-total start cannot
/// refine to a total relation and is rejected before refining.
pub(crate) fn global_dual_simulation<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    strategy: RefineStrategy,
) -> Option<MatchRelation> {
    let start = match strategy {
        RefineStrategy::Worklist => dual_candidates(pattern, view),
        RefineStrategy::NaiveFixpoint => initial_candidates(pattern, view),
    };
    if !start.is_total() {
        return None;
    }
    refine_dual_with(pattern, view, start, strategy)
}

/// Returns `true` when `Q ≺D G`.
pub fn dual_simulates(pattern: &Pattern, data: &Graph) -> bool {
    dual_simulation(pattern, data).is_some()
}

/// Refines an arbitrary starting relation down to the maximum dual-simulation relation
/// contained in it. Used by the `dualFilter` optimisation, which starts from the global
/// relation projected onto a ball rather than from the label-based candidates.
pub fn refine_dual<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    start: MatchRelation,
) -> Option<MatchRelation> {
    let relation = refine(pattern, view, RefineMode::ChildrenAndParents, start);
    relation.filter(MatchRelation::is_total)
}

/// [`refine_dual`] with an explicit [`RefineStrategy`].
pub fn refine_dual_with<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    start: MatchRelation,
    strategy: RefineStrategy,
) -> Option<MatchRelation> {
    let relation = refine_with(
        pattern,
        view,
        RefineMode::ChildrenAndParents,
        start,
        strategy,
    );
    relation.filter(MatchRelation::is_total)
}

/// Checks that `relation` is a valid dual-simulation witness (labels, totality, child and
/// parent conditions). Used by tests and the topology report.
pub fn is_valid_dual_simulation(pattern: &Pattern, data: &Graph, relation: &MatchRelation) -> bool {
    let view = GraphView::full(data);
    if !crate::simulation::is_valid_simulation(pattern, data, relation) {
        return false;
    }
    for (u_parent, u) in pattern.graph().edges() {
        for v in relation.candidates(u).iter().map(NodeId::from_index) {
            if !view.in_neighbors(v).any(|w| relation.contains(u_parent, w)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simulation::graph_simulation;
    use ssim_graph::Label;

    /// The Q2/G2 example of the paper (Example 2(4)): a book recommended by both a student
    /// and a teacher. Simulation keeps book1 (student-only); dual simulation removes it.
    pub(crate) fn book_example() -> (Pattern, Graph) {
        let pattern = Pattern::from_edges(
            vec![
                Label(0), /*ST*/
                Label(1), /*TE*/
                Label(2), /*book*/
            ],
            &[(0, 2), (1, 2)],
        )
        .unwrap();
        let data = Graph::from_edges(
            vec![
                Label(0),
                Label(1),
                Label(2), /*book1*/
                Label(2), /*book2*/
            ],
            &[(0, 2), (0, 3), (1, 3)],
        )
        .unwrap();
        (pattern, data)
    }

    #[test]
    fn duality_filters_book1() {
        let (pattern, data) = book_example();
        let sim = graph_simulation(&pattern, &data).unwrap();
        assert!(
            sim.contains(NodeId(2), NodeId(2)),
            "plain simulation keeps book1"
        );
        let dual = dual_simulation(&pattern, &data).unwrap();
        assert!(
            !dual.contains(NodeId(2), NodeId(2)),
            "dual simulation removes book1"
        );
        assert!(dual.contains(NodeId(2), NodeId(3)));
        assert!(is_valid_dual_simulation(&pattern, &data, &dual));
    }

    #[test]
    fn dual_relation_is_contained_in_simulation_relation() {
        let (pattern, data) = book_example();
        let sim = graph_simulation(&pattern, &data).unwrap();
        let dual = dual_simulation(&pattern, &data).unwrap();
        assert!(dual.is_subrelation_of(&sim));
    }

    #[test]
    fn no_dual_match_when_parent_is_missing() {
        // Pattern: A -> B. Data has B but no A parent for it... actually also no A at all
        // for sim(A); build a subtler case: A exists but never points at B.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data =
            Graph::from_edges(vec![Label(0), Label(1), Label(3)], &[(0, 2), (2, 1)]).unwrap();
        assert!(!dual_simulates(&pattern, &data));
        assert!(!crate::simulation::simulates(&pattern, &data));
    }

    #[test]
    fn undirected_cycle_pattern_rejects_tree_data() {
        // Pattern Q1-style undirected cycle HR -> SE, HR -> Bio, SE -> Bio.
        // Data: a tree HR -> SE -> Bio plus HR -> Bio2 — the cycle cannot be matched because
        // no single Bio has both an HR parent and an SE parent.
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 2)],
        )
        .unwrap();
        let tree = Graph::from_edges(
            vec![Label(0), Label(1), Label(2), Label(2)],
            &[(0, 1), (1, 2), (0, 3)],
        )
        .unwrap();
        // Graph simulation happily matches the tree (Example 1's observation)…
        assert!(crate::simulation::simulates(&pattern, &tree));
        // …but dual simulation rejects it.
        assert!(!dual_simulates(&pattern, &tree));
    }

    #[test]
    fn dual_simulation_on_isomorphic_copy_is_identity_like() {
        // Matching a pattern against itself keeps every node (reflexive pairs at minimum).
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(2)],
            &[(0, 1), (1, 2), (2, 0)],
        )
        .unwrap();
        let data = pattern.graph().clone();
        let dual = dual_simulation(&pattern, &data).unwrap();
        for u in pattern.nodes() {
            assert!(dual.contains(u, u));
        }
    }

    #[test]
    fn refine_dual_from_projected_superset() {
        let (pattern, data) = book_example();
        let full = dual_simulation(&pattern, &data).unwrap();
        // Start from the full label-based candidates (a superset) and refine: same result.
        let start = initial_candidates(&pattern, &GraphView::full(&data));
        let refined = refine_dual(&pattern, &GraphView::full(&data), start).unwrap();
        assert_eq!(refined.to_sorted_pairs(), full.to_sorted_pairs());
    }

    #[test]
    fn unique_maximum_lemma1() {
        // Any valid dual-simulation witness is contained in the computed maximum (Lemma 1).
        let (pattern, data) = book_example();
        let maximum = dual_simulation(&pattern, &data).unwrap();
        let mut witness = MatchRelation::empty(3, 4);
        witness.insert(NodeId(0), NodeId(0));
        witness.insert(NodeId(1), NodeId(1));
        witness.insert(NodeId(2), NodeId(3));
        assert!(is_valid_dual_simulation(&pattern, &data, &witness));
        assert!(witness.is_subrelation_of(&maximum));
    }

    #[test]
    fn dual_on_restricted_view() {
        use ssim_graph::BitSet;
        let (pattern, data) = book_example();
        // Restrict the view to {ST, book1}: the pattern cannot match inside it.
        let mut members = BitSet::new(data.node_count());
        members.insert(0);
        members.insert(2);
        let view = GraphView::restricted(&data, &members);
        assert!(dual_simulation_view(&pattern, &view).is_none());
    }
}
