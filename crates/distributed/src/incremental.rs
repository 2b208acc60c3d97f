//! Incremental distributed matching: a private distributed session over a mutating
//! graph.
//!
//! [`IncrementalDistributed`] owns no apply of its own: its incremental plan is a
//! [`DistributedQueryService`] holding this one query, which maintains the global
//! dual-simulation fixpoint and the `Gm` extraction per [`GraphDelta`], computes the
//! dirty-center set (the dQ-bounded locality sweep of Prop. 3) through the core
//! service's substrate step, routes each dirty center to the site owning it and splices
//! the returned rows into the cached result. [`TrafficStats::dirty_balls`] /
//! [`TrafficStats::clean_balls`] account for the split and always sum to `|V|`.
//!
//! [`UpdatePlan::Recompute`] (on [`DistributedConfig::update_plan`]) is the oracle: it
//! re-runs the full one-shot [`distributed_strong_simulation`] per delta. The
//! differential suite holds both plans bit-identical along random delta streams.
//!
//! # Surviving mid-delta site loss
//!
//! The maintained state (fixpoint, `Gm`, overlay) is advanced *before* the fan-out, so
//! a site failing during an apply can only degrade that apply's **rows**, never the
//! state — [`IncrementalDistributed::apply_with_faults`] returns a degraded
//! [`DistributedOutput`] whose [`DistributedOutput::lost_centers`] records exactly
//! which cached rows are stale/missing. The *next* apply heals: previously-lost centers
//! are unioned into its dirty set, re-routed to live sites, and their fresh rows
//! spliced in — a fault-free apply after a degraded one converges the session back to
//! the bit-exact fault-free result.
//!
//! [`TrafficStats::dirty_balls`]: crate::runtime::TrafficStats::dirty_balls
//! [`TrafficStats::clean_balls`]: crate::runtime::TrafficStats::clean_balls

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::runtime::{
    distributed_strong_simulation, distributed_with_faults, DistributedConfig, DistributedOutput,
};
use crate::service::DistributedQueryService;
use ssim_core::incremental::UpdatePlan;
use ssim_core::service::QueryId;
use ssim_graph::{Graph, GraphDelta, OverlayGraph, Pattern};

/// Per-plan state: the incremental plan is a one-query [`DistributedQueryService`], the
/// recompute oracle keeps a flat graph and its own output.
enum PlanState {
    Incremental {
        service: Box<DistributedQueryService>,
        id: QueryId,
    },
    Recompute(Box<Recompute>),
}

/// The recompute oracle: a flat graph, rebuilt per delta, and a full one-shot run.
struct Recompute {
    pattern: Pattern,
    config: DistributedConfig,
    data: Graph,
    output: DistributedOutput,
}

/// A distributed strong-simulation session over a mutating data graph.
///
/// Construct once, then feed [`GraphDelta`]s through
/// [`IncrementalDistributed::apply`]; the cached [`DistributedOutput`] after every apply
/// carries subgraphs bit-identical to a one-shot
/// [`distributed_strong_simulation`] on the updated graph (whose traffic counters, by
/// contrast, describe only the update's own work).
pub struct IncrementalDistributed {
    plan: PlanState,
}

impl IncrementalDistributed {
    /// Runs the initial distributed match over `data` and caches the coordinator state.
    /// Fails on an invalid [`DistributedConfig`] (the same validation every one-shot
    /// entry point runs).
    pub fn new(
        pattern: &Pattern,
        data: Graph,
        config: DistributedConfig,
    ) -> Result<Self, DistError> {
        let plan = match config.update_plan {
            UpdatePlan::Recompute => PlanState::Recompute(Box::new(Recompute {
                output: distributed_strong_simulation(pattern, &data, &config)?,
                pattern: pattern.clone(),
                config,
                data,
            })),
            UpdatePlan::Incremental => {
                let mut service = Box::new(DistributedQueryService::new(data));
                let id = service.register(pattern, config)?;
                PlanState::Incremental { service, id }
            }
        };
        Ok(IncrementalDistributed { plan })
    }

    /// The current data graph (after every applied delta), materialised flat — an
    /// `O(|V|+|E|)` merge on the incremental plan, meant for oracles and tests. Use
    /// [`IncrementalDistributed::overlay`] to inspect the serving substrate directly.
    pub fn data(&self) -> Graph {
        match &self.plan {
            PlanState::Incremental { service, .. } => service.data(),
            PlanState::Recompute(oracle) => oracle.data.clone(),
        }
    }

    /// The versioned serving substrate; `None` on the recompute oracle plan.
    pub fn overlay(&self) -> Option<&OverlayGraph> {
        match &self.plan {
            PlanState::Incremental { service, .. } => Some(service.published()),
            PlanState::Recompute(_) => None,
        }
    }

    /// The distributed match result over the current graph. On the incremental plan the
    /// traffic counters describe the most recent update's work (dirty balls routed,
    /// shipping for those balls), not a full pass. After a degraded apply,
    /// [`DistributedOutput::lost_centers`] lists the rows this cache is missing.
    pub fn output(&self) -> &DistributedOutput {
        match &self.plan {
            PlanState::Incremental { service, id } => service
                .output(*id)
                .expect("the session's query stays registered"),
            PlanState::Recompute(oracle) => &oracle.output,
        }
    }

    /// Applies one validated batch of edge updates: the coordinator maintains its
    /// state, routes the dirty centers to their owning sites and splices the returned
    /// rows. Fails (leaving the session untouched) when the delta does not validate.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<&DistributedOutput, DistError> {
        self.apply_with(std::slice::from_ref(delta), None)
    }

    /// [`IncrementalDistributed::apply`] under a scripted [`FaultPlan`]: the apply's
    /// fan-out runs under the supervision loop (the configuration must carry a
    /// [`crate::fault::RecoveryPolicy`] for a non-empty plan), and chunks lost past the
    /// budget degrade only this apply's rows — the maintained state stays exact, and the
    /// next apply re-routes the lost centers ([lost-center healing](self)).
    pub fn apply_with_faults(
        &mut self,
        delta: &GraphDelta,
        faults: &FaultPlan,
    ) -> Result<&DistributedOutput, DistError> {
        self.apply_with(std::slice::from_ref(delta), Some(faults))
    }

    /// Applies a batch of deltas as **one** maintenance step
    /// ([`DistributedQueryService::apply_batch`]): the stream is folded into its net
    /// delta ([`GraphDelta::then`]) and fed through a single apply — one dirty sweep,
    /// one routed fan-out. The recompute oracle applies the stream sequentially and
    /// re-runs one full pass on the final graph. A mid-stream validation error leaves
    /// the session untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<&DistributedOutput, DistError> {
        self.apply_with(deltas, None)
    }

    fn apply_with(
        &mut self,
        deltas: &[GraphDelta],
        faults: Option<&FaultPlan>,
    ) -> Result<&DistributedOutput, DistError> {
        match &mut self.plan {
            PlanState::Incremental { service, .. } => {
                service.apply_batch_with(deltas, faults)?;
            }
            PlanState::Recompute(oracle) => {
                if faults.is_some_and(|plan| !plan.is_empty()) && oracle.config.recovery.is_none() {
                    return Err(DistError::FaultPlanNeedsRecovery);
                }
                if let [first, rest @ ..] = deltas {
                    let mut data = oracle.data.apply_delta(first)?;
                    for d in rest {
                        data = data.apply_delta(d)?;
                    }
                    // The oracle recomputes every row per apply, so a previous degraded
                    // apply heals here by construction.
                    oracle.output = match faults {
                        Some(plan) => {
                            distributed_with_faults(&oracle.pattern, &data, &oracle.config, plan)?
                        }
                        None => {
                            distributed_strong_simulation(&oracle.pattern, &data, &oracle.config)?
                        }
                    };
                    oracle.data = data;
                }
            }
        }
        Ok(self.output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RecoveryPolicy;
    use crate::partition::PartitionStrategy;
    use ssim_core::ball::BallSubstrate;
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
