//! Dual-simulation filtering (Algorithm `dualFilter`, Fig. 5; Proposition 5).
//!
//! Instead of re-running dual simulation from label-based candidates in every ball, the
//! optimised matcher first computes the maximum dual-simulation relation `S_G` over the
//! **whole** data graph once, then projects it onto each ball. Inside a ball, a projected
//! pair can only be invalid because of a *border node* (a node at distance exactly `dQ`
//! from the center, whose neighbours may lie outside the ball) or because of a cascade
//! started at one — Proposition 5. The removal process therefore starts from border pairs
//! and propagates with a work queue, typically touching a small fraction of the ball.

use crate::relation::MatchRelation;
use ssim_graph::{AdjView, NodeId, Pattern};
use std::collections::VecDeque;

/// Refines the projection of the global relation onto a ball down to the ball's maximum
/// dual-simulation relation, starting the removal process from the ball's border nodes.
///
/// `projected` must be the global maximum dual-simulation relation already projected onto
/// the ball members (and possibly further restricted by connectivity pruning), expressed in
/// the same id space as `view` and `border` — either global ids with a restricted view (the
/// seed path) or ball-local ids with a [`ssim_graph::CompactBall`]'s graph. Returns `None`
/// when some pattern node loses all candidates, i.e. the ball holds no match.
///
/// Statistics about the work performed are accumulated into `removed_pairs` when provided.
///
/// This walks the view's raw adjacency and tests every neighbour against the relation.
/// It is the reference for the engine's balls inside `Gm`, which run the same cascade
/// over the query's candidate lists ([`crate::gm::match_gm_ball`]); the engine itself
/// calls it only off `Gm` (the full-graph substrate).
pub fn refine_projected<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    border: &[NodeId],
    projected: MatchRelation,
    removed_pairs: Option<&mut usize>,
) -> Option<MatchRelation> {
    // Seed: pairs whose data node is a border node (lines 2-5 of Fig. 5); the shared
    // drain verifies their support and cascades the removals.
    let suspects: Vec<(NodeId, NodeId)> = border
        .iter()
        .flat_map(|&v| {
            projected
                .pattern_nodes_matching(v)
                .into_iter()
                .map(move |u| (u, v))
        })
        .collect();
    let projected = refine_suspects(pattern, view, projected, suspects, removed_pairs);
    if projected.is_total() {
        Some(projected)
    } else {
        None
    }
}

/// The removal-propagation core shared by [`refine_projected`], the incremental global
/// fixpoint and the repetition closure: verifies every *suspect* pair against the
/// current relation, removes the unsupported ones and cascades each removal to the
/// neighbouring pairs whose support it carried, until a fixpoint.
///
/// Computes the maximum dual-simulation relation contained in `relation` **provided**
/// `suspects` covers every pair that is unsupported w.r.t. the starting relation — pairs
/// whose support is intact at the start can only become invalid through a removal, and
/// the cascade re-checks exactly those. Unlike the worklist engine this never exits early
/// on an emptied candidate set: callers that keep the result (the maintained global
/// fixpoint) need the true fixpoint, not a partially drained relation.
pub(crate) fn refine_suspects<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    mut relation: MatchRelation,
    suspects: impl IntoIterator<Item = (NodeId, NodeId)>,
    mut removed_pairs: Option<&mut usize>,
) -> MatchRelation {
    let q = pattern.graph();
    // Work queue of invalid (pattern node, data node) pairs.
    let mut queue: VecDeque<(NodeId, NodeId)> = VecDeque::new();
    for (u, v) in suspects {
        if relation.contains(u, v) && !pair_supported(pattern, view, &relation, u, v) {
            queue.push_back((u, v));
        }
    }

    while let Some((u, v)) = queue.pop_front() {
        if !relation.remove(u, v) {
            continue; // already removed through another path
        }
        if let Some(count) = removed_pairs.as_deref_mut() {
            *count += 1;
        }
        // Parents of u in Q matched to parents of v may have lost their child support
        // (lines 8-11).
        for u2 in q.in_neighbors(u) {
            for v2 in view.in_neighbors(v) {
                if relation.contains(u2, v2)
                    && !view.out_neighbors(v2).any(|w| relation.contains(u, w))
                {
                    queue.push_back((u2, v2));
                }
            }
        }
        // Children of u in Q matched to children of v may have lost their parent support
        // (lines 12-15).
        for u1 in q.out_neighbors(u) {
            for v1 in view.out_neighbors(v) {
                if relation.contains(u1, v1)
                    && !view.in_neighbors(v1).any(|w| relation.contains(u, w))
                {
                    queue.push_back((u1, v1));
                }
            }
        }
    }
    relation
}

/// Returns `true` when the pair `(u, v)` has both child and parent support inside the view.
pub(crate) fn pair_supported<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &MatchRelation,
    u: NodeId,
    v: NodeId,
) -> bool {
    let q = pattern.graph();
    for u1 in q.out_neighbors(u) {
        if !view.out_neighbors(v).any(|w| relation.contains(u1, w)) {
            return false;
        }
    }
    for u2 in q.in_neighbors(u) {
        if !view.in_neighbors(v).any(|w| relation.contains(u2, w)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{dual_simulation, dual_simulation_view};
    use ssim_graph::{Ball, Graph, Label};

    /// Builds the Fig. 6(b)-style data: a chain of A -> B pairs where the outermost pair
    /// loses support once confined to a ball.
    fn chain_data() -> (Pattern, Graph) {
        // Pattern: A -> B -> C ... simplified to A -> B with a C tail so diameters differ.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        // Data: A1 -> B1 -> A2 -> B2 -> A3 -> B3   (B -> A edges carry no pattern meaning but
        // keep the chain connected), all labelled alternately A/B.
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(0), Label(1), Label(0), Label(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        )
        .unwrap();
        (pattern, data)
    }

    #[test]
    fn projection_plus_refinement_equals_fresh_dual_sim_on_ball() {
        let (pattern, data) = chain_data();
        let global = dual_simulation(&pattern, &data).unwrap();
        for center in data.nodes() {
            let ball = Ball::new(&data, center, pattern.diameter().max(1));
            let view = ball.view(&data);
            let projected = global.project(ball.membership());
            let filtered = refine_projected(&pattern, &view, &ball.border_nodes(), projected, None);
            let fresh = dual_simulation_view(&pattern, &view);
            match (filtered, fresh) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(
                    a.to_sorted_pairs(),
                    b.to_sorted_pairs(),
                    "mismatch for ball centred at {center}"
                ),
                (a, b) => panic!(
                    "dualFilter and DualSim disagree for center {center}: {:?} vs {:?}",
                    a.map(|r| r.to_sorted_pairs()),
                    b.map(|r| r.to_sorted_pairs())
                ),
            }
        }
    }

    #[test]
    fn counts_removed_pairs() {
        let (pattern, data) = chain_data();
        let global = dual_simulation(&pattern, &data).unwrap();
        let center = NodeId(2);
        let ball = Ball::new(&data, center, 1);
        let view = ball.view(&data);
        let projected = global.project(ball.membership());
        let mut removed = 0usize;
        let _ = refine_projected(
            &pattern,
            &view,
            &ball.border_nodes(),
            projected,
            Some(&mut removed),
        );
        // At least one projected pair loses support inside the radius-1 ball.
        assert!(removed > 0);
    }

    #[test]
    fn ball_with_no_surviving_match_returns_none() {
        // Pattern A -> B; data node A with its B child outside the radius-0 ball.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let global = dual_simulation(&pattern, &data).unwrap();
        let ball = Ball::new(&data, NodeId(0), 0);
        let view = ball.view(&data);
        let projected = global.project(ball.membership());
        assert!(refine_projected(&pattern, &view, &ball.border_nodes(), projected, None).is_none());
    }

    #[test]
    fn interior_pairs_keep_their_global_support() {
        // A ball large enough to contain the whole component: nothing should be removed.
        let (pattern, data) = chain_data();
        let global = dual_simulation(&pattern, &data).unwrap();
        let ball = Ball::new(&data, NodeId(2), 10);
        let view = ball.view(&data);
        let projected = global.project(ball.membership());
        let mut removed = 0usize;
        let refined = refine_projected(
            &pattern,
            &view,
            &ball.border_nodes(),
            projected.clone(),
            Some(&mut removed),
        )
        .unwrap();
        assert_eq!(removed, 0);
        assert_eq!(refined.to_sorted_pairs(), projected.to_sorted_pairs());
    }
}
