//! Ball-pipeline helpers shared by the one-shot engine and the distributed runtime: the
//! [`BallSubstrate`] axis and the [`locality_center_order`] the distributed coordinator
//! splits its site center lists by.
//!
//! Every ball `Ĝ[w, dQ]` itself is built by a fresh bounded BFS
//! ([`ssim_graph::CompactBall::build`]) and refined from scratch, as in the paper's
//! `Match` (Fig. 3) and `Match+` (Fig. 5).

use ssim_graph::{BitSet, Graph, NodeId};

/// Which graph the ball pipeline traverses when the global dual-simulation filter is on —
/// an oracle axis next to [`crate::simulation::RefineStrategy`].
///
/// With dual filtering, only *matched* nodes can ever be candidates, support an in-ball
/// pair or appear in an extracted subgraph. The optimised `Match` of the paper (Fig. 5,
/// Proposition 5) therefore extracts the match graph `Gm` once and builds its balls
/// **inside `Gm`** — membership, distances and borders are all taken w.r.t. `Gm`, and on
/// selective patterns each ball's size tracks the candidate density instead of the raw
/// degree. Everything below `strong_simulation` then speaks `Gm` ids; results are
/// translated back at `PerfectSubgraph` emission.
///
/// The axis only takes effect when `dual_filter` is enabled (without the global relation
/// there is no `Gm`); every other configuration traverses the full graph regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BallSubstrate {
    /// Build balls inside the extracted match graph `Gm` (Fig. 5 semantics: ball
    /// membership and borders use `Gm` distances).
    #[default]
    MatchGraph,
    /// Build balls in the full data graph and only prune *centers* to matched nodes —
    /// the pre-extraction behaviour, kept as the equivalence oracle and as the baseline
    /// the `gm_substrate` bench ratios are measured against.
    FullGraph,
}

/// Orders `centers` along an undirected BFS traversal of `graph`, so that consecutive
/// centers are usually adjacent.
///
/// The traversal starts at the smallest node id and restarts at the smallest unvisited id
/// per component, making the order deterministic. Returns exactly the nodes of `centers`
/// (a permutation of it); centers filtered out upstream (e.g. by the global
/// dual-simulation filter) simply leave gaps in the traversal.
pub fn locality_center_order(graph: &Graph, centers: &[NodeId]) -> Vec<NodeId> {
    let mut wanted = BitSet::new(graph.node_count());
    for &c in centers {
        wanted.insert(c.index());
    }
    let mut visited = BitSet::new(graph.node_count());
    let mut order = Vec::with_capacity(centers.len());
    let mut queue = std::collections::VecDeque::new();
    for start in graph.nodes() {
        if visited.contains(start.index()) {
            continue;
        }
        visited.insert(start.index());
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            if wanted.contains(u.index()) {
                order.push(u);
            }
            for v in graph.out_neighbors(u).chain(graph.in_neighbors(u)) {
                if !visited.contains(v.index()) {
                    visited.insert(v.index());
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_graph::Label;

    fn line(n: u32) -> Graph {
        Graph::from_edges(
            vec![Label(0); n as usize],
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn locality_order_is_a_permutation_preferring_adjacency() {
        let g = line(16);
        let centers: Vec<NodeId> = g.nodes().collect();
        let order = locality_center_order(&g, &centers);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, centers);
        // On a line the BFS order steps by one, so every consecutive pair is adjacent.
        for pair in order.windows(2) {
            let (a, b) = (pair[0].0 as i64, pair[1].0 as i64);
            assert_eq!((a - b).abs(), 1, "consecutive centers {a},{b}");
        }
    }

    #[test]
    fn locality_order_respects_the_candidate_filter() {
        let g = line(10);
        let centers = vec![NodeId(8), NodeId(2), NodeId(4)];
        let order = locality_center_order(&g, &centers);
        assert_eq!(order, vec![NodeId(2), NodeId(4), NodeId(8)]);
    }
}
