//! Match graphs and perfect subgraphs.
//!
//! Given a relation `S ⊆ Vq × V`, the *match graph* w.r.t. `S` (Section 2.2) is the subgraph
//! `G[Vs, Es]` of the data graph where `Vs` is the set of data nodes appearing in `S` and
//! `(v, v') ∈ Es` iff some pattern edge `(u, u')` has `(u, v) ∈ S` and `(u', v') ∈ S`.
//!
//! A *perfect subgraph* is the connected component of a ball's match graph that contains the
//! ball center (procedure `ExtractMaxPG` of Fig. 3); strong simulation returns the set of
//! maximum perfect subgraphs, one per ball at most (Theorem 1).

use crate::relation::MatchRelation;
use ssim_graph::{AdjView, BitSet, Graph, NodeId, Pattern};

/// The match graph w.r.t. a match relation: data nodes and the data edges that realise some
/// pattern edge. Node ids refer to the original data graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchGraph {
    /// Data nodes appearing in the relation, ascending.
    pub nodes: Vec<NodeId>,
    /// Data edges covered by at least one pattern edge, deduplicated and sorted.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl MatchGraph {
    /// Builds the match graph of `relation` over `view`.
    pub fn build<V: AdjView>(pattern: &Pattern, view: &V, relation: &MatchRelation) -> Self {
        let nodes: Vec<NodeId> = relation
            .matched_data_nodes()
            .iter()
            .map(NodeId::from_index)
            .collect();
        let mut edges = Vec::new();
        for (u, u_child) in pattern.graph().edges() {
            for v in relation.candidates(u).iter().map(NodeId::from_index) {
                for w in view.out_neighbors(v) {
                    if relation.contains(u_child, w) {
                        edges.push((v, w));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        MatchGraph { nodes, edges }
    }

    /// Number of nodes in the match graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the match graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when `node` appears in the match graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Splits the match graph into its undirected connected components (lists of node ids).
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        if self.nodes.is_empty() {
            return Vec::new();
        }
        // Union-find over positions in `self.nodes`.
        let index_of = |n: NodeId| {
            self.nodes
                .binary_search(&n)
                .expect("edge endpoint not in node set")
        };
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(s, t) in &self.edges {
            let (a, b) = (index_of(s), index_of(t));
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for (i, &n) in self.nodes.iter().enumerate() {
            groups.entry(find(&mut parent, i)).or_default().push(n);
        }
        groups.into_values().collect()
    }

    /// The connected component containing `node`, or `None` when the node is absent.
    ///
    /// Unlike [`MatchGraph::connected_components`], which partitions the *whole* match
    /// graph with union-find and groups every component, this builds an undirected CSR
    /// over the match edges in one counting pass and runs a single BFS from `node` —
    /// `ExtractMaxPG` only ever needs the center's component, and on balls whose match
    /// graph splinters into many components the difference is the dominant extraction
    /// cost.
    pub fn component_containing(&self, node: NodeId) -> Option<Vec<NodeId>> {
        let start = self.nodes.binary_search(&node).ok()?;
        let n = self.nodes.len();
        let index_of = |v: NodeId| {
            self.nodes
                .binary_search(&v)
                .expect("edge endpoint not in node set")
        };
        // Undirected CSR over node positions: counting pass, prefix sums, fill.
        let mut offsets = vec![0u32; n + 1];
        for &(s, t) in &self.edges {
            offsets[index_of(s) + 1] += 1;
            offsets[index_of(t) + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(s, t) in &self.edges {
            let (a, b) = (index_of(s), index_of(t));
            adjacency[cursor[a] as usize] = b as u32;
            cursor[a] += 1;
            adjacency[cursor[b] as usize] = a as u32;
            cursor[b] += 1;
        }
        // BFS over only the component containing `start`.
        let mut seen = BitSet::new(n);
        seen.insert(start);
        let mut component = vec![start];
        let mut head = 0;
        while head < component.len() {
            let u = component[head];
            head += 1;
            for &w in &adjacency[offsets[u] as usize..offsets[u + 1] as usize] {
                if !seen.contains(w as usize) {
                    seen.insert(w as usize);
                    component.push(w as usize);
                }
            }
        }
        component.sort_unstable();
        Some(component.into_iter().map(|i| self.nodes[i]).collect())
    }

    /// Materialises the match graph as a standalone [`Graph`] (plus new-id → original-id map).
    pub fn to_graph(&self, data: &Graph) -> (Graph, Vec<NodeId>) {
        data.subgraph_with_edges(&self.nodes, &self.edges)
    }
}

/// A maximum perfect subgraph: the result unit of strong simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfectSubgraph {
    /// The ball center `w` this subgraph was extracted from.
    pub center: NodeId,
    /// Ball radius used (the pattern diameter `dQ`, unless overridden).
    pub radius: usize,
    /// Data nodes of the subgraph, ascending.
    pub nodes: Vec<NodeId>,
    /// Data edges of the subgraph (the match-graph edges inside the component).
    pub edges: Vec<(NodeId, NodeId)>,
    /// The match relation restricted to the subgraph's nodes, as sorted
    /// `(pattern node, data node)` pairs.
    pub relation: Vec<(NodeId, NodeId)>,
}

impl PerfectSubgraph {
    /// Number of data nodes in the subgraph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of data edges in the subgraph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Data nodes matching a given pattern node.
    pub fn matches_of(&self, pattern_node: NodeId) -> Vec<NodeId> {
        self.relation
            .iter()
            .filter(|(u, _)| *u == pattern_node)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Materialises the subgraph as a standalone [`Graph`] (plus id map).
    pub fn to_graph(&self, data: &Graph) -> (Graph, Vec<NodeId>) {
        data.subgraph_with_edges(&self.nodes, &self.edges)
    }

    /// Structural identity key (nodes and edges), used to deduplicate identical subgraphs
    /// discovered from different ball centers.
    pub fn structural_key(&self) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        (self.nodes.clone(), self.edges.clone())
    }
}

/// Procedure `ExtractMaxPG` (Fig. 3): extracts the maximum perfect subgraph of a ball.
///
/// Returns `None` when the ball center `w` does not appear in the relation (line 1 of the
/// procedure), otherwise the connected component of the match graph that contains `w`
/// (justified by Theorem 2).
///
/// This builds the ball's [`MatchGraph`] from the view's raw adjacency. It is the
/// reference for the engine's balls inside `Gm`, which extract with one BFS over the
/// query's candidate lists ([`crate::gm::match_gm_ball`]).
pub fn extract_max_perfect_subgraph<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &MatchRelation,
    center: NodeId,
    radius: usize,
) -> Option<PerfectSubgraph> {
    if !relation.matched_data_nodes().contains(center.index()) {
        return None;
    }
    let match_graph = MatchGraph::build(pattern, view, relation);
    let component = match_graph.component_containing(center)?;
    let mut in_component = BitSet::new(view.id_space());
    for &n in &component {
        in_component.insert(n.index());
    }
    let edges: Vec<(NodeId, NodeId)> = match_graph
        .edges
        .iter()
        .copied()
        .filter(|(s, t)| in_component.contains(s.index()) && in_component.contains(t.index()))
        .collect();
    let relation_pairs: Vec<(NodeId, NodeId)> = relation
        .pairs()
        .filter(|(_, v)| in_component.contains(v.index()))
        .collect();
    Some(PerfectSubgraph {
        center,
        radius,
        nodes: component,
        edges,
        relation: relation_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::dual_simulation;
    use ssim_graph::{GraphView, Label};

    /// Pattern A -> B; data has two disjoint A -> B pairs and a stray labelled-C node.
    fn two_components() -> (Pattern, Graph) {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(0), Label(1), Label(2)],
            &[(0, 1), (2, 3), (0, 4)],
        )
        .unwrap();
        (pattern, data)
    }

    #[test]
    fn match_graph_includes_only_covered_edges() {
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let view = GraphView::full(&data);
        let mg = MatchGraph::build(&pattern, &view, &relation);
        assert_eq!(mg.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // Edge 0->4 is not covered by any pattern edge (node 4 has label C).
        assert_eq!(
            mg.edges,
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]
        );
        assert_eq!(mg.node_count(), 4);
        assert_eq!(mg.edge_count(), 2);
        assert!(mg.contains_node(NodeId(2)));
        assert!(!mg.contains_node(NodeId(4)));
    }

    #[test]
    fn connected_components_of_match_graph() {
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let mg = MatchGraph::build(&pattern, &GraphView::full(&data), &relation);
        let comps = mg.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(
            mg.component_containing(NodeId(3)).unwrap(),
            vec![NodeId(2), NodeId(3)]
        );
        assert_eq!(mg.component_containing(NodeId(4)), None);
    }

    #[test]
    fn empty_match_graph() {
        let mg = MatchGraph {
            nodes: vec![],
            edges: vec![],
        };
        assert!(mg.connected_components().is_empty());
        assert_eq!(mg.component_containing(NodeId(0)), None);
    }

    #[test]
    fn extract_perfect_subgraph_around_center() {
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let view = GraphView::full(&data);
        let ps = extract_max_perfect_subgraph(&pattern, &view, &relation, NodeId(1), 1).unwrap();
        assert_eq!(ps.nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(ps.edges, vec![(NodeId(0), NodeId(1))]);
        assert_eq!(ps.center, NodeId(1));
        assert_eq!(ps.radius, 1);
        assert_eq!(ps.matches_of(NodeId(0)), vec![NodeId(0)]);
        assert_eq!(ps.matches_of(NodeId(1)), vec![NodeId(1)]);
        assert_eq!(ps.node_count(), 2);
        assert_eq!(ps.edge_count(), 1);
        // Relation restricted to the component: exactly two pairs.
        assert_eq!(ps.relation.len(), 2);
    }

    #[test]
    fn extract_returns_none_for_unmatched_center() {
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let view = GraphView::full(&data);
        // Node 4 (label C) is not in the relation.
        assert!(extract_max_perfect_subgraph(&pattern, &view, &relation, NodeId(4), 1).is_none());
    }

    #[test]
    fn perfect_subgraph_to_graph_roundtrip() {
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let view = GraphView::full(&data);
        let ps = extract_max_perfect_subgraph(&pattern, &view, &relation, NodeId(2), 1).unwrap();
        let (g, mapping) = ps.to_graph(&data);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(mapping, vec![NodeId(2), NodeId(3)]);
        let key = ps.structural_key();
        assert_eq!(key.0, ps.nodes);
    }

    #[test]
    fn component_containing_isolated_center() {
        // A center that appears in the relation but has no incident match edge forms a
        // singleton component — the radius-0 ball case of `ExtractMaxPG`.
        let pattern = Pattern::from_edges(vec![Label(0)], &[]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(0)], &[(0, 1)]).unwrap();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let view = GraphView::full(&data);
        let mg = MatchGraph::build(&pattern, &view, &relation);
        assert!(mg.edges.is_empty(), "edgeless pattern covers no data edge");
        assert_eq!(mg.component_containing(NodeId(0)).unwrap(), vec![NodeId(0)]);
        assert_eq!(mg.component_containing(NodeId(1)).unwrap(), vec![NodeId(1)]);
        // Extraction around each isolated center returns the singleton subgraph.
        let ps = extract_max_perfect_subgraph(&pattern, &view, &relation, NodeId(1), 0).unwrap();
        assert_eq!(ps.nodes, vec![NodeId(1)]);
        assert!(ps.edges.is_empty());
    }

    #[test]
    fn component_containing_agrees_with_full_partition() {
        // The targeted BFS must return exactly the group the union-find partition puts
        // the node in, for every node of a multi-component match graph.
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let mg = MatchGraph::build(&pattern, &GraphView::full(&data), &relation);
        let components = mg.connected_components();
        for &node in &mg.nodes {
            let expected = components
                .iter()
                .find(|c| c.binary_search(&node).is_ok())
                .unwrap();
            assert_eq!(&mg.component_containing(node).unwrap(), expected, "{node}");
        }
    }

    #[test]
    fn structural_key_ignores_center_and_radius() {
        // The same node/edge set discovered from different centers (or radii) must
        // produce equal keys, else deduplication would keep structural duplicates.
        let base = PerfectSubgraph {
            center: NodeId(0),
            radius: 1,
            nodes: vec![NodeId(0), NodeId(1)],
            edges: vec![(NodeId(0), NodeId(1))],
            relation: vec![(NodeId(0), NodeId(0)), (NodeId(1), NodeId(1))],
        };
        let other_center = PerfectSubgraph {
            center: NodeId(1),
            radius: 2,
            relation: vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))],
            ..base.clone()
        };
        assert_eq!(base.structural_key(), other_center.structural_key());
    }

    #[test]
    fn structural_key_distinguishes_permuted_node_ids() {
        // Node-id permutations that change the node/edge sets change the key: the key is
        // the literal (sorted) sets, stable across discovery order but not isomorphism.
        let a = PerfectSubgraph {
            center: NodeId(0),
            radius: 1,
            nodes: vec![NodeId(0), NodeId(1)],
            edges: vec![(NodeId(0), NodeId(1))],
            relation: Vec::new(),
        };
        let permuted = PerfectSubgraph {
            nodes: vec![NodeId(1), NodeId(2)],
            edges: vec![(NodeId(1), NodeId(2))],
            ..a.clone()
        };
        assert_ne!(a.structural_key(), permuted.structural_key());
        // A reversed edge is a different structure too.
        let reversed = PerfectSubgraph {
            edges: vec![(NodeId(1), NodeId(0))],
            ..a.clone()
        };
        assert_ne!(a.structural_key(), reversed.structural_key());
    }

    #[test]
    fn match_graph_to_graph() {
        let (pattern, data) = two_components();
        let relation = dual_simulation(&pattern, &data).unwrap();
        let mg = MatchGraph::build(&pattern, &GraphView::full(&data), &relation);
        let (g, mapping) = mg.to_graph(&data);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(mapping.len(), 4);
    }
}
