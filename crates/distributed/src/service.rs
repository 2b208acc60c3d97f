//! Multi-pattern standing queries over the fault-tolerant distributed runtime.
//!
//! A distributed standing query differs from a local one only in *where its balls run*
//! (Prop. 3: a partitioned run evaluates exactly the balls a centralized one does, each
//! at the site owning its center). So the distributed service is
//! [`ssim_core::service::QueryService`] itself — registry, shared substrate step, batch
//! fold, pattern-state advance and splice — on the [`Partitioned`] executor, whose pass
//! routes the dirty centers to their owning sites, optionally under a scripted
//! [`FaultPlan`], and re-routes the centers a degraded pass lost
//! ([`DistributedOutput::lost_centers`]) on the next apply. A distributed session over
//! one pattern is this service holding one query.
//!
//! # Surviving mid-delta site loss
//!
//! The maintained state (fixpoint, `Gm`, overlay) is advanced *before* the fan-out, so
//! a site failing during an apply can only degrade that apply's **rows**, never the
//! state: [`DistributedOutput::lost_centers`] records exactly which cached rows are
//! missing. The *next* apply re-routes them to live sites and splices their fresh rows
//! in, converging the query back to the bit-exact fault-free result.

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::runtime::{distributed_with_state, DistributedConfig, DistributedOutput};
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::service::{Executor, QueryRef, QueryService, SubstrateCache};
use ssim_core::strong::{DataRef, MatchConfig};
use ssim_graph::{BitSet, NodeId, OverlayGraph};

/// A registry of standing queries over one shared graph, each served by the
/// distributed runtime: `DistributedQueryService::with_executor(data, Partitioned)`,
/// with queries entering through [`QueryService::try_register`], which rejects an
/// invalid [`DistributedConfig`] before it builds any state.
pub type DistributedQueryService = QueryService<Partitioned>;

/// The partitioned executor: each query's pass is one coordinator run of the
/// distributed runtime under the query's [`DistributedConfig`], with partitions sized
/// by `|V|`. A non-empty [`FaultPlan`] needs a recovery policy on every query that runs
/// under it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Partitioned;

impl Executor for Partitioned {
    type Config = DistributedConfig;
    type Output = DistributedOutput;
    type Error = DistError;
    type Faults = FaultPlan;

    fn match_config(&self, config: &DistributedConfig) -> MatchConfig {
        config.match_config()
    }

    fn run(
        &self,
        query: QueryRef<'_, DistributedConfig>,
        data: &OverlayGraph,
        dirty: Option<&BitSet>,
        cache: &mut SubstrateCache,
        faults: &FaultPlan,
    ) -> Result<DistributedOutput, DistError> {
        let data = match query.state.prepared() {
            // The serving path: the whole run stays inside the maintained `Gm` (or
            // short-circuits on an empty fixpoint) — no flat graph at all.
            Some(p) if p.gm.is_some() || !p.relation.is_total() => {
                DataRef::CountOnly(data.node_count())
            }
            // Full-graph-substrate shapes localise in the raw data graph: one flat
            // materialisation per apply, shared by every such query.
            _ => DataRef::Flat(cache.flat(data)),
        };
        let state = Some(query.state);
        distributed_with_state(
            query.pattern,
            data,
            query.config,
            state,
            dirty,
            Some(faults),
        )
    }

    fn rows_mut<'o>(&self, output: &'o mut DistributedOutput) -> &'o mut Vec<PerfectSubgraph> {
        &mut output.subgraphs
    }

    /// The traffic counters keep describing the most recent pass, except for the rows
    /// the coordinator now holds.
    fn refresh(&self, output: &mut DistributedOutput, _: usize) {
        output.traffic.result_subgraphs = output.subgraphs.len();
    }

    /// Runs [`DistributedConfig::validate`], so an invalid configuration fails before
    /// its registration builds any state.
    fn admit(
        &self,
        config: &DistributedConfig,
        faults: &FaultPlan,
        nodes: usize,
    ) -> Result<(), DistError> {
        config.validate(nodes)?;
        if !faults.is_empty() && config.recovery.is_none() {
            return Err(DistError::FaultPlanNeedsRecovery);
        }
        Ok(())
    }

    fn lost_centers<'o>(&self, output: &'o DistributedOutput) -> &'o [NodeId] {
        &output.lost_centers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RecoveryPolicy;
    use crate::partition::PartitionStrategy;
    use crate::runtime::distributed_strong_simulation;
    use ssim_core::ball::BallSubstrate;
    use ssim_core::service::QueryId;
    use ssim_datasets::patterns::extract_pattern;
    use ssim_datasets::synthetic::{synthetic, SyntheticConfig};
    use ssim_graph::NodeId;
    use ssim_graph::{Graph, GraphDelta, Pattern};

    fn base_config() -> DistributedConfig {
        DistributedConfig {
            sites: 3,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            ..DistributedConfig::default()
        }
    }

    fn two_deltas(data: &Graph) -> [GraphDelta; 2] {
        let (s, t) = data.edges().next().expect("generator emits edges");
        let mut d1 = GraphDelta::new();
        d1.delete_edge(s, t);
        let fresh = data
            .nodes()
            .find(|&v| !data.has_edge(v, NodeId(0)) && v != NodeId(0))
            .expect("some non-edge exists");
        let mut d2 = GraphDelta::new();
        d2.insert_edge(fresh, NodeId(0));
        [d1, d2]
    }

    #[test]
    fn distributed_service_tracks_independent_sessions() {
        let data = synthetic(&SyntheticConfig {
            nodes: 160,
            alpha: 1.15,
            labels: 8,
            seed: 11,
        });
        let patterns: Vec<Pattern> = [7u64, 5]
            .iter()
            .map(|&seed| extract_pattern(&data, 3, seed).expect("pattern extraction succeeds"))
            .collect();
        let config = base_config();
        let mut service = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let ids: Vec<QueryId> = patterns
            .iter()
            .map(|p| service.try_register(p, config).expect("valid config"))
            .collect();
        let mut oracles: Vec<(DistributedQueryService, QueryId)> = patterns
            .iter()
            .map(|p| {
                let mut oracle = DistributedQueryService::with_executor(data.clone(), Partitioned);
                let id = oracle.try_register(p, config).expect("valid config");
                (oracle, id)
            })
            .collect();
        for (id, (oracle, sole)) in ids.iter().zip(&oracles) {
            assert_eq!(
                service.output(*id).unwrap().subgraphs,
                oracle.output(*sole).unwrap().subgraphs,
                "initial"
            );
        }
        for (i, delta) in two_deltas(&data).iter().enumerate() {
            service.apply(delta).unwrap();
            for (id, (oracle, sole)) in ids.iter().zip(oracles.iter_mut()) {
                oracle.apply(delta).unwrap();
                assert_eq!(
                    service.output(*id).unwrap().subgraphs,
                    oracle.output(*sole).unwrap().subgraphs,
                    "step {i}"
                );
                assert_eq!(
                    service.output(*id).unwrap().traffic.dirty_balls,
                    oracle.output(*sole).unwrap().traffic.dirty_balls,
                    "step {i} dirty split"
                );
            }
        }
    }

    #[test]
    fn service_batch_matches_sequential_applies() {
        let data = synthetic(&SyntheticConfig {
            nodes: 140,
            alpha: 1.15,
            labels: 8,
            seed: 13,
        });
        let pattern = extract_pattern(&data, 3, 5).expect("pattern extraction succeeds");
        let config = base_config();
        let deltas = two_deltas(&data);
        let mut batched = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id_b = batched.try_register(&pattern, config).unwrap();
        let mut sequential = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id_s = sequential.try_register(&pattern, config).unwrap();
        batched.apply_batch(&deltas).unwrap();
        for d in &deltas {
            sequential.apply(d).unwrap();
        }
        assert_eq!(
            batched.output(id_b).unwrap().subgraphs,
            sequential.output(id_s).unwrap().subgraphs
        );
        assert_eq!(batched.data(), sequential.data());
        // Empty batch is a no-op.
        let before = batched.output(id_b).unwrap().subgraphs.clone();
        let update = batched.apply_batch(&[]).unwrap();
        assert_eq!(update.sharing.sessions, 1);
        assert_eq!(batched.output(id_b).unwrap().subgraphs, before);
    }

    #[test]
    fn fault_plan_without_recovery_is_rejected_before_any_state_moves() {
        let data = synthetic(&SyntheticConfig {
            nodes: 100,
            alpha: 1.15,
            labels: 8,
            seed: 7,
        });
        let pattern = extract_pattern(&data, 3, 5).expect("pattern extraction succeeds");
        let mut service = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id = service.try_register(&pattern, base_config()).unwrap();
        let before = service.output(id).unwrap().subgraphs.clone();
        let epoch = service.epoch();
        let mut plan = FaultPlan::none();
        plan.panic_chunk(0, 0, 0);
        let [d1, _] = two_deltas(&data);
        assert!(matches!(
            service.apply_with_faults(&d1, &plan),
            Err(DistError::FaultPlanNeedsRecovery)
        ));
        assert_eq!(service.epoch(), epoch, "substrate untouched");
        assert_eq!(service.output(id).unwrap().subgraphs, before);
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
                let mut inc = DistributedQueryService::with_executor(data.clone(), Partitioned);
                let id = inc
                    .try_register(&pattern, base)
                    .expect("valid distributed config");
                let mut flat = data.clone();
                let ora = distributed_strong_simulation(&pattern, &flat, &base)
                    .expect("valid distributed config");
                assert_eq!(inc.output(id).unwrap().subgraphs, ora.subgraphs, "initial");
                for (i, delta) in two_deltas(&data).iter().enumerate() {
                    inc.apply(delta).unwrap();
                    flat = flat.apply_delta(delta).unwrap();
                    let ora = distributed_strong_simulation(&pattern, &flat, &base)
                        .expect("valid distributed config");
                    let ctx = format!("step {i} dual_filter={dual_filter} {substrate:?}");
                    assert_eq!(inc.output(id).unwrap().subgraphs, ora.subgraphs, "{ctx}");
                    // The dirty/clean split always covers the whole graph.
                    let traffic = &inc.output(id).unwrap().traffic;
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
    fn faulty_apply_degrades_then_heals_per_query() {
        let data = synthetic(&SyntheticConfig {
            nodes: 140,
            alpha: 1.15,
            labels: 8,
            seed: 13,
        });
        let pattern = extract_pattern(&data, 3, 5).expect("pattern extraction succeeds");
        let policy = RecoveryPolicy::default();
        let config = DistributedConfig {
            recovery: Some(policy),
            ..base_config()
        };
        let deltas = two_deltas(&data);

        let mut oracle = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id_o = oracle.try_register(&pattern, config).unwrap();
        oracle.apply(&deltas[0]).unwrap();
        oracle.apply(&deltas[1]).unwrap();

        let mut plan = FaultPlan::none();
        for site in 0..config.sites {
            for round in 0..=policy.chunk_retries {
                plan.panic_chunk(site, 0, round);
            }
        }
        let mut service = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id = service.try_register(&pattern, config).unwrap();
        service.apply_with_faults(&deltas[0], &plan).unwrap();
        assert!(!service.output(id).unwrap().lost_centers.is_empty());
        service.apply(&deltas[1]).unwrap();
        assert!(service.output(id).unwrap().lost_centers.is_empty());
        assert_eq!(
            service.output(id).unwrap().subgraphs,
            oracle.output(id_o).unwrap().subgraphs,
            "post-healing"
        );
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
            recovery: Some(policy),
            ..base_config()
        };
        let [d1, d2] = two_deltas(&data);

        // The fault-free reference query.
        let mut oracle = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id_o = oracle
            .try_register(&pattern, config)
            .expect("valid distributed config");
        oracle.apply(&d1).unwrap();
        let oracle_after_d1 = oracle.output(id_o).unwrap().subgraphs.clone();
        oracle.apply(&d2).unwrap();

        // The faulty query: d1's fan-out perma-panics the first chunk of every site
        // past the retry budget, losing whatever dirty chunks exist.
        let mut plan = FaultPlan::none();
        for site in 0..config.sites {
            for round in 0..=policy.chunk_retries {
                plan.panic_chunk(site, 0, round);
            }
        }
        let mut session = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id = session
            .try_register(&pattern, config)
            .expect("valid distributed config");
        session.apply_with_faults(&d1, &plan).unwrap();
        let degraded = session.output(id).unwrap();
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

        // The next (fault-free) apply re-routes the lost centers: the query converges
        // back to the oracle, bit for bit.
        session.apply(&d2).unwrap();
        let healed = session.output(id).unwrap();
        assert!(healed.lost_centers.is_empty());
        assert_eq!(
            healed.subgraphs,
            oracle.output(id_o).unwrap().subgraphs,
            "post-healing"
        );
        // And the healed dirty set was charged for the extra centers.
        assert_eq!(
            healed.traffic.dirty_balls + healed.traffic.clean_balls,
            data.node_count()
        );
    }
}
