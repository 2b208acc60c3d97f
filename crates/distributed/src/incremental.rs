//! Incremental distributed matching: a private distributed session over a mutating
//! graph — the core one-query session ([`IncrementalMatcher`]) on the [`Partitioned`]
//! executor. Its incremental plan is a one-query [`crate::DistributedQueryService`];
//! its recompute oracle re-runs [`crate::distributed_strong_simulation`] per delta.
//!
//! # Surviving mid-delta site loss
//!
//! The maintained state (fixpoint, `Gm`, overlay) is advanced *before* the fan-out, so
//! a site failing during an apply can only degrade that apply's **rows**, never the
//! state: [`DistributedOutput::lost_centers`] records exactly which cached rows are
//! missing. The *next* apply re-routes them to live sites and splices their fresh rows
//! in, converging the session back to the bit-exact fault-free result.

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::runtime::{DistributedConfig, DistributedOutput};
use crate::service::Partitioned;
use ssim_core::incremental::IncrementalMatcher;
use ssim_graph::{Graph, GraphDelta, OverlayGraph, Pattern};

/// A distributed strong-simulation session over a mutating data graph.
///
/// Construct once, then feed [`GraphDelta`]s through
/// [`IncrementalDistributed::apply`]; the cached [`DistributedOutput`] after every apply
/// carries subgraphs bit-identical to a one-shot
/// [`crate::distributed_strong_simulation`] on the updated graph (whose traffic counters,
/// by contrast, describe only the update's own work).
pub struct IncrementalDistributed(IncrementalMatcher<Partitioned>);

impl IncrementalDistributed {
    /// Runs the initial distributed match over `data` and caches the coordinator state.
    /// Fails on an invalid [`DistributedConfig`] (the same validation every one-shot
    /// entry point runs).
    pub fn new(
        pattern: &Pattern,
        data: Graph,
        config: DistributedConfig,
    ) -> Result<Self, DistError> {
        IncrementalMatcher::with_executor(pattern, data, config, Partitioned).map(Self)
    }

    /// The current data graph (after every applied delta), materialised flat — an
    /// `O(|V|+|E|)` merge on the incremental plan, meant for oracles and tests.
    pub fn data(&self) -> Graph {
        self.0.data()
    }

    /// The versioned serving substrate; `None` on the recompute oracle plan.
    pub fn overlay(&self) -> Option<&OverlayGraph> {
        self.0.overlay()
    }

    /// The distributed match result over the current graph. On the incremental plan the
    /// traffic counters describe the most recent update's work (dirty balls routed,
    /// shipping for those balls), not a full pass. After a degraded apply,
    /// [`DistributedOutput::lost_centers`] lists the rows this cache is missing.
    pub fn output(&self) -> &DistributedOutput {
        self.0.output()
    }

    /// Applies one validated batch of edge updates: the coordinator maintains its
    /// state, routes the dirty centers to their owning sites and splices the returned
    /// rows. Fails (leaving the session untouched) when the delta does not validate.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<&DistributedOutput, DistError> {
        self.0.apply(delta)
    }

    /// [`IncrementalDistributed::apply`] under a scripted [`FaultPlan`]: a non-empty plan
    /// needs a [`crate::fault::RecoveryPolicy`] on the configuration, and chunks lost past
    /// the budget degrade only this apply's rows — the maintained state stays exact, and
    /// the next apply re-routes the lost centers ([lost-center healing](self)).
    pub fn apply_with_faults(
        &mut self,
        delta: &GraphDelta,
        faults: &FaultPlan,
    ) -> Result<&DistributedOutput, DistError> {
        self.0.apply_with_faults(delta, faults)
    }

    /// Applies a batch of deltas as **one** maintenance step: the stream is folded into
    /// its net delta and fed through a single apply — one dirty sweep, one routed
    /// fan-out. The recompute oracle applies the stream sequentially and re-runs one
    /// full pass on the final graph. A mid-stream validation error leaves the session
    /// untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<&DistributedOutput, DistError> {
        self.0.apply_batch(deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RecoveryPolicy;
    use crate::partition::PartitionStrategy;
    use ssim_core::ball::BallSubstrate;
    use ssim_core::incremental::UpdatePlan;
    use ssim_datasets::patterns::extract_pattern;
    use ssim_datasets::synthetic::{synthetic, SyntheticConfig};
    use ssim_graph::NodeId;

    fn assert_same_subgraphs(a: &DistributedOutput, b: &DistributedOutput, ctx: &str) {
        // Derived PartialEq on PerfectSubgraph covers every field.
        assert_eq!(a.subgraphs, b.subgraphs, "{ctx}");
    }

    #[test]
    fn incremental_distributed_tracks_the_recompute_oracle() {
        let data = synthetic(&SyntheticConfig {
            nodes: 160,
            alpha: 1.15,
            labels: 8,
            seed: 11,
        });
        let pattern = extract_pattern(&data, 3, 7).expect("pattern extraction succeeds");
        for dual_filter in [false, true] {
            for substrate in [BallSubstrate::MatchGraph, BallSubstrate::FullGraph] {
                let base = DistributedConfig {
                    sites: 3,
                    strategy: PartitionStrategy::Range,
                    minimize_query: false,
                    dual_filter,
                    ball_substrate: substrate,
                    ..DistributedConfig::default()
                };
                let mut inc = IncrementalDistributed::new(&pattern, data.clone(), base)
                    .expect("valid distributed config");
                let mut ora = IncrementalDistributed::new(
                    &pattern,
                    data.clone(),
                    DistributedConfig {
                        update_plan: UpdatePlan::Recompute,
                        ..base
                    },
                )
                .expect("valid distributed config");
                assert_same_subgraphs(inc.output(), ora.output(), "initial");
                // Delete an existing edge, then add a fresh one.
                let (s, t) = data.edges().next().expect("generator emits edges");
                let mut d1 = GraphDelta::new();
                d1.delete_edge(s, t);
                let fresh = data
                    .nodes()
                    .find(|&v| !data.has_edge(v, NodeId(0)) && v != NodeId(0))
                    .expect("some non-edge exists");
                let mut d2 = GraphDelta::new();
                d2.insert_edge(fresh, NodeId(0));
                for (i, delta) in [d1, d2].iter().enumerate() {
                    inc.apply(delta).unwrap();
                    ora.apply(delta).unwrap();
                    let ctx = format!("step {i} dual_filter={dual_filter} {substrate:?}");
                    assert_same_subgraphs(inc.output(), ora.output(), &ctx);
                    // The dirty/clean split always covers the whole graph.
                    let traffic = &inc.output().traffic;
                    assert_eq!(
                        traffic.dirty_balls + traffic.clean_balls,
                        data.node_count(),
                        "{ctx}"
                    );
                    assert!(
                        traffic.dirty_balls < data.node_count(),
                        "{ctx}: a two-edge delta must leave some ball clean"
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_apply_heals_on_the_next_fault_free_apply() {
        let data = synthetic(&SyntheticConfig {
            nodes: 140,
            alpha: 1.15,
            labels: 8,
            seed: 13,
        });
        let pattern = extract_pattern(&data, 3, 5).expect("pattern extraction succeeds");
        let policy = RecoveryPolicy::default();
        let config = DistributedConfig {
            sites: 3,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            recovery: Some(policy),
            ..DistributedConfig::default()
        };
        let (s, t) = data.edges().next().expect("generator emits edges");
        let mut d1 = GraphDelta::new();
        d1.delete_edge(s, t);
        let fresh = data
            .nodes()
            .find(|&v| !data.has_edge(v, NodeId(0)) && v != NodeId(0))
            .expect("some non-edge exists");
        let mut d2 = GraphDelta::new();
        d2.insert_edge(fresh, NodeId(0));

        // The fault-free reference session.
        let mut oracle = IncrementalDistributed::new(&pattern, data.clone(), config)
            .expect("valid distributed config");
        oracle.apply(&d1).unwrap();
        let oracle_after_d1 = oracle.output().subgraphs.clone();
        oracle.apply(&d2).unwrap();

        // The faulty session: d1's fan-out perma-panics the first chunk of every site
        // past the retry budget, losing whatever dirty chunks exist.
        let mut plan = FaultPlan::none();
        for site in 0..config.sites {
            for round in 0..=policy.chunk_retries {
                plan.panic_chunk(site, 0, round);
            }
        }
        let mut session = IncrementalDistributed::new(&pattern, data.clone(), config)
            .expect("valid distributed config");
        session.apply_with_faults(&d1, &plan).unwrap();
        let degraded = session.output();
        // The delta dirtied at least the deleted edge's endpoints, so a first chunk
        // existed somewhere — and was lost.
        assert!(!degraded.lost_centers.is_empty());
        assert_eq!(
            degraded.traffic.covered_balls + degraded.traffic.lost_balls,
            data.node_count()
        );
        // The degraded cache is exactly the fault-free rows minus the lost centers.
        let lost: std::collections::BTreeSet<NodeId> =
            degraded.lost_centers.iter().copied().collect();
        let expected: Vec<_> = oracle_after_d1
            .iter()
            .filter(|s| !lost.contains(&s.center))
            .cloned()
            .collect();
        assert_eq!(degraded.subgraphs, expected);

        // The next (fault-free) apply re-routes the lost centers: the session converges
        // back to the oracle, bit for bit.
        session.apply(&d2).unwrap();
        assert!(session.output().lost_centers.is_empty());
        assert_same_subgraphs(session.output(), oracle.output(), "post-healing");
        // And the healed dirty set was charged for the extra centers.
        assert_eq!(
            session.output().traffic.dirty_balls + session.output().traffic.clean_balls,
            data.node_count()
        );
    }
}
