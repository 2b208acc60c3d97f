//! Multi-pattern standing queries over the fault-tolerant distributed runtime.
//!
//! A distributed standing query differs from a local one only in *where its balls run*
//! (Prop. 3: a partitioned run evaluates exactly the balls a centralized one does, each
//! at the site owning its center). So the distributed service is
//! [`ssim_core::service::QueryService`] itself — registry, shared substrate step, batch
//! fold, pattern-state advance and splice — on the [`Partitioned`] executor, whose pass
//! routes the dirty centers to their owning sites, optionally under a scripted
//! [`FaultPlan`], and re-routes the centers a degraded pass lost
//! ([`DistributedOutput::lost_centers`]) on the next apply.

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::runtime::{distributed_with_state, DistributedConfig, DistributedOutput};
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::service::{Executor, QueryRef, QueryService, SubstrateCache};
use ssim_core::strong::{DataRef, MatchConfig};
use ssim_graph::{BitSet, Graph, NodeId, OverlayGraph, Pattern};

/// A registry of standing queries over one shared graph, each served by the
/// distributed runtime: `DistributedQueryService::with_executor(data, Partitioned)`.
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

    fn oneshot(
        &self,
        pattern: &Pattern,
        data: &Graph,
        config: &DistributedConfig,
        faults: &FaultPlan,
    ) -> Result<DistributedOutput, DistError> {
        distributed_with_state(
            pattern,
            DataRef::Flat(data),
            config,
            None,
            None,
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

    fn admit(&self, config: &DistributedConfig, faults: &FaultPlan) -> Result<(), DistError> {
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
    use crate::incremental::IncrementalDistributed;
    use crate::partition::PartitionStrategy;
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
        let mut oracles: Vec<IncrementalDistributed> = patterns
            .iter()
            .map(|p| IncrementalDistributed::new(p, data.clone(), config).expect("valid config"))
            .collect();
        for (id, oracle) in ids.iter().zip(&oracles) {
            assert_eq!(
                service.output(*id).unwrap().subgraphs,
                oracle.output().subgraphs,
                "initial"
            );
        }
        for (i, delta) in two_deltas(&data).iter().enumerate() {
            service.apply(delta).unwrap();
            for (id, oracle) in ids.iter().zip(oracles.iter_mut()) {
                oracle.apply(delta).unwrap();
                assert_eq!(
                    service.output(*id).unwrap().subgraphs,
                    oracle.output().subgraphs,
                    "step {i}"
                );
                assert_eq!(
                    service.output(*id).unwrap().traffic.dirty_balls,
                    oracle.output().traffic.dirty_balls,
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
}
