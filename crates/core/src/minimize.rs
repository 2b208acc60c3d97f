//! Query minimization (Algorithm `minQ`, Fig. 4; Theorem 6, Lemmas 2–3).
//!
//! Two pattern graphs are equivalent when they return the same result on every data graph.
//! The unique (up to isomorphism) minimum equivalent pattern under dual simulation is the
//! quotient of the pattern by its dual-simulation *equivalence*: nodes `u`, `v` are
//! equivalent iff both `(u, v)` and `(v, u)` belong to the maximum dual-simulation relation
//! of `Q` with itself. Because strong simulation fixes the ball radius to the diameter of the
//! *original* query (Lemma 3), the minimised pattern is bundled with that radius.

use crate::dual::refine_dual;
use crate::simulation::initial_candidates;
use ssim_graph::{GraphView, NodeId, Pattern};

/// Result of minimising a pattern graph.
#[derive(Debug, Clone)]
pub struct MinimizedPattern {
    /// The minimised, equivalent pattern `Qm`.
    pub pattern: Pattern,
    /// Diameter of the *original* pattern, to be used as ball radius (Lemma 3).
    pub original_diameter: usize,
    /// For every original pattern node, the id of the equivalence-class node in `Qm`.
    pub class_of: Vec<NodeId>,
    /// Size (|V| + |E|) of the original pattern, kept for reporting.
    pub original_size: usize,
}

impl MinimizedPattern {
    /// Returns `true` when minimization actually shrank the pattern.
    pub fn reduced(&self) -> bool {
        self.pattern.size() < self.original_size
    }

    /// The original pattern nodes of every class node of `Qm`, ascending.
    pub fn class_members(&self) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.pattern.node_count()];
        for (original, class) in self.class_of.iter().enumerate() {
            members[class.index()].push(NodeId::from_index(original));
        }
        members
    }
}

/// Runs Algorithm `minQ`: computes the minimum pattern equivalent to `pattern` under dual
/// simulation (and, with the bundled radius, under strong simulation).
pub fn minimize_pattern(pattern: &Pattern) -> MinimizedPattern {
    let n = pattern.node_count();
    // Line 1: maximum dual-simulation match relation of Q over itself.
    // Matching a connected pattern against itself always succeeds (the identity relation is a
    // witness), so the unwrap is justified. A pattern's own label classes are a handful of
    // nodes, too few for neighbourhood seeding (`dual_candidates`) to pay for its walk, so
    // this refines from the label classes.
    let view = GraphView::full(pattern.graph());
    let relation = refine_dual(pattern, &view, initial_candidates(pattern, &view))
        .expect("a pattern always dual-simulates itself via the identity relation");

    // Line 2: equivalence classes — u ≡ v iff (u, v) and (v, u) are both in the relation.
    let mut class_of_raw: Vec<usize> = vec![usize::MAX; n];
    let mut class_reps: Vec<NodeId> = Vec::new();
    for u in pattern.nodes() {
        if class_of_raw[u.index()] != usize::MAX {
            continue;
        }
        let class_id = class_reps.len();
        class_reps.push(u);
        class_of_raw[u.index()] = class_id;
        for v_idx in (u.index() + 1)..n {
            let v = NodeId::from_index(v_idx);
            if class_of_raw[v.index()] == usize::MAX
                && relation.contains(u, v)
                && relation.contains(v, u)
            {
                class_of_raw[v.index()] = class_id;
            }
        }
    }

    // Lines 3-4: build the quotient pattern.
    let mut builder =
        ssim_graph::GraphBuilder::with_capacity(class_reps.len(), pattern.edge_count());
    for &rep in &class_reps {
        builder.add_labeled_node(pattern.label(rep));
    }
    let mut edges: Vec<(u32, u32)> = pattern
        .graph()
        .edges()
        .map(|(u, v)| {
            (
                class_of_raw[u.index()] as u32,
                class_of_raw[v.index()] as u32,
            )
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    for (s, t) in edges {
        builder.add_edge(NodeId(s), NodeId(t));
    }
    let minimized = Pattern::new(builder.build())
        .expect("quotient of a connected pattern is connected and non-empty");

    MinimizedPattern {
        pattern: minimized,
        original_diameter: pattern.diameter(),
        class_of: class_of_raw.into_iter().map(NodeId::from_index).collect(),
        original_size: pattern.size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::dual_simulation;
    use crate::match_graph::MatchGraph;
    use ssim_graph::{Graph, GraphView, Label};

    /// The Q5 pattern of Fig. 6(a): R -> A, R -> B1, R -> B2, B1 -> C1, B2 -> C2,
    /// C1 -> D1, C2 -> D2, A -> ... — the two R -> B -> C -> D branches are equivalent and
    /// collapse into one.
    fn q5() -> Pattern {
        // labels: R=0, A=1, B=2, C=3, D=4
        Pattern::from_edges(
            vec![
                Label(0),
                Label(1),
                Label(2),
                Label(2),
                Label(3),
                Label(3),
                Label(4),
                Label(4),
            ],
            &[
                (0, 1), // R -> A
                (0, 2), // R -> B1
                (0, 3), // R -> B2
                (2, 4), // B1 -> C1
                (3, 5), // B2 -> C2
                (4, 6), // C1 -> D1
                (5, 7), // C2 -> D2
            ],
        )
        .unwrap()
    }

    #[test]
    fn q5_collapses_duplicate_branches() {
        let pattern = q5();
        let minimized = minimize_pattern(&pattern);
        // R, A, B, C, D — five equivalence classes.
        assert_eq!(minimized.pattern.node_count(), 5);
        assert_eq!(minimized.pattern.edge_count(), 4);
        assert!(minimized.reduced());
        assert_eq!(minimized.original_diameter, pattern.diameter());
        assert_eq!(minimized.original_size, pattern.size());
        // The two B nodes map to the same class, likewise C and D.
        assert_eq!(minimized.class_of[2], minimized.class_of[3]);
        assert_eq!(minimized.class_of[4], minimized.class_of[5]);
        assert_eq!(minimized.class_of[6], minimized.class_of[7]);
        assert_ne!(minimized.class_of[0], minimized.class_of[1]);
    }

    #[test]
    fn already_minimal_pattern_is_unchanged() {
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(2)],
            &[(0, 1), (1, 2), (2, 0)],
        )
        .unwrap();
        let minimized = minimize_pattern(&pattern);
        assert_eq!(minimized.pattern.node_count(), 3);
        assert_eq!(minimized.pattern.edge_count(), 3);
        assert!(!minimized.reduced());
    }

    #[test]
    fn same_label_nodes_with_different_context_are_not_merged() {
        // A -> B and B -> A: the two B-labelled nodes would only merge if they were
        // dual-simulation equivalent; give them asymmetric children so they are not.
        // Pattern: A -> B1, B1 -> C, A -> B2  (B1 has a C child, B2 does not).
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 3)],
        )
        .unwrap();
        let minimized = minimize_pattern(&pattern);
        assert_eq!(
            minimized.pattern.node_count(),
            4,
            "B1 and B2 must stay distinct"
        );
    }

    #[test]
    fn minimized_pattern_finds_the_same_match_graph() {
        // Lemma 2(1): Q and Qm produce the same match graph on any data graph.
        let pattern = q5();
        let minimized = minimize_pattern(&pattern);
        let data = Graph::from_edges(
            vec![
                Label(0), // R
                Label(1), // A
                Label(2), // B
                Label(3), // C
                Label(4), // D
                Label(2), // another B with no C child (should be filtered)
            ],
            &[(0, 1), (0, 2), (2, 3), (3, 4), (0, 5)],
        )
        .unwrap();
        let view = GraphView::full(&data);
        let original_relation = dual_simulation(&pattern, &data).unwrap();
        let minimized_relation = dual_simulation(&minimized.pattern, &data).unwrap();
        let mg_original = MatchGraph::build(&pattern, &view, &original_relation);
        let mg_minimized = MatchGraph::build(&minimized.pattern, &view, &minimized_relation);
        assert_eq!(mg_original, mg_minimized);
    }

    #[test]
    fn cycle_of_equivalent_nodes_collapses_to_self_loop() {
        // A directed cycle of identically labelled nodes is dual-simulation equivalent
        // everywhere and collapses to a single node with a self-loop.
        let pattern = Pattern::from_edges(vec![Label(7); 3], &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let minimized = minimize_pattern(&pattern);
        assert_eq!(minimized.pattern.node_count(), 1);
        assert_eq!(minimized.pattern.edge_count(), 1);
        assert!(minimized.pattern.graph().has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    fn single_node_pattern_is_a_fixpoint() {
        let pattern = Pattern::from_edges(vec![Label(3)], &[]).unwrap();
        let minimized = minimize_pattern(&pattern);
        assert_eq!(minimized.pattern.node_count(), 1);
        assert!(!minimized.reduced());
        assert_eq!(minimized.class_of, vec![NodeId(0)]);
    }

    #[test]
    fn minimization_is_idempotent() {
        let pattern = q5();
        let once = minimize_pattern(&pattern);
        let twice = minimize_pattern(&once.pattern);
        assert_eq!(once.pattern.node_count(), twice.pattern.node_count());
        assert_eq!(once.pattern.edge_count(), twice.pattern.edge_count());
        assert!(!twice.reduced());
    }
}
