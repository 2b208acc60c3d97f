//! Multi-pattern standing queries over the fault-tolerant distributed runtime.
//!
//! The distributed twin of [`ssim_core::service::QueryService`], and the only code that
//! applies a delta to a distributed match ([`crate::incremental::IncrementalDistributed`]
//! is a one-query service). The substrate half of an apply is the core service's:
//! [`SubstrateStep`] lands the delta on the shared epoch-versioned substrate once and
//! runs the edge-ball sweeps once per distinct radius, [`fold_batch`] folds a batch into
//! its net delta, and one [`SubstrateCache`] shares the flat materialisation across the
//! full-graph-substrate queries of an apply. What this service adds per query is the
//! coordinator pass: dirty centers routed to their owning sites, rows shipped back and
//! spliced, optionally under a scripted [`FaultPlan`] with lost-center healing — centers
//! a degraded apply lost are re-routed on the next one.
//!
//! Every shared value is a pure function of inputs a one-query service would compute
//! for itself, so each query's [`DistributedOutput`] subgraphs track a private session
//! bit for bit.

use crate::error::DistError;
use crate::fault::FaultPlan;
use crate::runtime::{distributed_with_prepared, DistributedConfig, DistributedOutput};
use ssim_core::incremental::{splice_rows, PatternState};
use ssim_core::service::{fold_batch, QueryId, SharingStats, SubstrateCache, SubstrateStep};
use ssim_core::simulation::RefineStrategy;
use ssim_core::strong::DataRef;
use ssim_graph::{
    Graph, GraphDelta, GraphEpoch, OverlayGraph, Pattern, SnapshotHandle, VersionedGraph,
};

struct Session {
    pattern: Pattern,
    config: DistributedConfig,
    state: PatternState,
    output: DistributedOutput,
}

/// What one [`DistributedQueryService::apply`] did.
#[derive(Debug, Clone)]
pub struct DistServiceUpdate {
    /// Epoch of the published substrate after the apply.
    pub epoch: GraphEpoch,
    /// The overlay compacted back to a flat base CSR during this apply.
    pub compacted: bool,
    /// Cross-pattern sharing accounting (the flat materialisation counts as the
    /// substrate build; region extraction sharing happens site-side and is not
    /// re-counted here).
    pub sharing: SharingStats,
}

/// A registry of standing queries over one shared graph, each served by the
/// distributed runtime. See the [module docs](self).
pub struct DistributedQueryService {
    substrate: VersionedGraph,
    sessions: Vec<Option<Session>>,
}

impl DistributedQueryService {
    /// A service over `data` with no registered queries.
    pub fn new(data: Graph) -> Self {
        DistributedQueryService {
            substrate: VersionedGraph::new(data),
            sessions: Vec::new(),
        }
    }

    /// Registers a standing query and runs its initial distributed match. Fails on an
    /// invalid [`DistributedConfig`]. As in the core service, `config.update_plan` is
    /// ignored — the service is the incremental plan; the recompute oracle exists as
    /// independent sessions.
    pub fn register(
        &mut self,
        pattern: &Pattern,
        config: DistributedConfig,
    ) -> Result<QueryId, DistError> {
        let data = self.substrate.published();
        config.validate(data.node_count())?;
        let state = PatternState::new(
            pattern,
            data,
            config.minimize_query,
            None,
            config.dual_filter,
            config.ball_substrate,
            RefineStrategy::Worklist,
        );
        // One unrestricted pass, copy-free off the base CSR while the overlay is flat.
        let flat;
        let graph = if data.is_flat() {
            data.base()
        } else {
            flat = data.to_graph();
            &flat
        };
        let output = distributed_with_prepared(
            pattern,
            DataRef::Flat(graph),
            &config,
            state.prepared(),
            None,
            None,
        )?;
        self.sessions.push(Some(Session {
            pattern: pattern.clone(),
            config,
            state,
            output,
        }));
        Ok(QueryId(self.sessions.len() - 1))
    }

    /// Removes a standing query; ids are never reused.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        match self.sessions.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    /// Ids of the live registered queries, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| QueryId(i)))
            .collect()
    }

    /// Number of live registered queries.
    pub fn len(&self) -> usize {
        self.sessions.iter().flatten().count()
    }

    /// `true` when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached distributed result of one query over the current graph. After a
    /// degraded apply its [`DistributedOutput::lost_centers`] lists the rows the cache
    /// is missing; the next apply heals them.
    pub fn output(&self, id: QueryId) -> Option<&DistributedOutput> {
        self.sessions
            .get(id.0)
            .and_then(|s| s.as_ref())
            .map(|s| &s.output)
    }

    /// Epoch of the currently published substrate version.
    pub fn epoch(&self) -> GraphEpoch {
        self.substrate.epoch()
    }

    /// Pins the published substrate version.
    pub fn pin(&self) -> SnapshotHandle {
        self.substrate.pin()
    }

    /// The current data graph, materialised flat — for oracles and tests.
    pub fn data(&self) -> Graph {
        self.substrate.published().to_graph()
    }

    /// The published substrate version.
    pub(crate) fn published(&self) -> &OverlayGraph {
        self.substrate.published()
    }

    /// Applies one validated delta: lands on the shared substrate once, sweeps dirty
    /// balls once per distinct radius, then fans out per query through the distributed
    /// coordinator. Fails before touching anything when the delta does not validate.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<DistServiceUpdate, DistError> {
        self.apply_batch_with(std::slice::from_ref(delta), None)
    }

    /// [`DistributedQueryService::apply`] under a scripted [`FaultPlan`]. Every
    /// registered query's fan-out runs under the same plan (each restarts the plan's
    /// `(site, chunk, round)` script — sessions are independent supervision scopes), so
    /// a non-empty plan requires *every* query's configuration to carry a recovery
    /// policy. Degraded queries record their lost centers and heal on the next apply.
    pub fn apply_with_faults(
        &mut self,
        delta: &GraphDelta,
        faults: &FaultPlan,
    ) -> Result<DistServiceUpdate, DistError> {
        self.apply_batch_with(std::slice::from_ref(delta), Some(faults))
    }

    /// Applies a batch of deltas as one maintenance step per query: the stream is
    /// folded into its net delta ([`fold_batch`]) and fed through a single
    /// [`DistributedQueryService::apply`]. A mid-stream validation error leaves the
    /// substrate and every query untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<DistServiceUpdate, DistError> {
        self.apply_batch_with(deltas, None)
    }

    /// The one apply path: the fault gate, the shared substrate step, then per query
    /// the pattern-state advance, lost-center healing, the coordinator pass and the
    /// splice.
    pub(crate) fn apply_batch_with(
        &mut self,
        deltas: &[GraphDelta],
        faults: Option<&FaultPlan>,
    ) -> Result<DistServiceUpdate, DistError> {
        // Gate before any state moves: scripted faults require a recovery policy on
        // every query that will run under them.
        if faults.is_some_and(|plan| !plan.is_empty())
            && self
                .sessions
                .iter()
                .flatten()
                .any(|s| s.config.recovery.is_none())
        {
            return Err(DistError::FaultPlanNeedsRecovery);
        }
        let Some(delta) = fold_batch(self.substrate.published(), deltas)? else {
            return Ok(DistServiceUpdate {
                epoch: self.substrate.epoch(),
                compacted: false,
                sharing: SharingStats {
                    sessions: self.len(),
                    ..SharingStats::default()
                },
            });
        };
        let step = SubstrateStep::run(
            &mut self.substrate,
            &delta,
            self.sessions.iter().flatten().map(|s| &s.state),
        )?;
        let data = self.substrate.published();
        let mut shared = SubstrateCache::new();
        for sess in self.sessions.iter_mut().flatten() {
            let (pre, post) = step.edge_dirty(&sess.state);
            let mut effect = sess.state.advance_applied(data, &delta, pre, post);
            // Lost-center healing: centers a previous degraded apply lost have no
            // trustworthy cached rows. Marking them dirty routes them to (live) sites
            // again and splices their fresh rows in below — and removes any stale
            // cached row even if this apply loses them again.
            for &center in &sess.output.lost_centers {
                effect.dirty.insert(center.index());
            }
            let prepared = sess.state.prepared();
            let data_ref = match prepared {
                // The serving path: the whole run stays inside the maintained `Gm` (or
                // short-circuits on an empty fixpoint) — no flat graph at all.
                Some(p) if p.gm.is_some() || !p.relation.is_total() => {
                    DataRef::CountOnly(data.node_count())
                }
                // Full-graph-substrate shapes localise in the raw data graph: one flat
                // materialisation per apply, shared by every such query.
                _ => DataRef::Flat(shared.flat(data)),
            };
            let mut out = distributed_with_prepared(
                &sess.pattern,
                data_ref,
                &sess.config,
                prepared,
                Some(&effect.dirty),
                faults,
            )?;
            let fresh = std::mem::replace(
                &mut out.subgraphs,
                std::mem::take(&mut sess.output.subgraphs),
            );
            splice_rows(&mut out.subgraphs, &effect.dirty, fresh);
            out.traffic.result_subgraphs = out.subgraphs.len();
            sess.output = out;
        }
        Ok(DistServiceUpdate {
            epoch: self.substrate.epoch(),
            compacted: step.compacted,
            sharing: step.sharing(self.len(), &shared),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RecoveryPolicy;
    use crate::incremental::IncrementalDistributed;
    use crate::partition::PartitionStrategy;
    use ssim_datasets::patterns::extract_pattern;
    use ssim_datasets::synthetic::{synthetic, SyntheticConfig};
    use ssim_graph::NodeId;

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
        let mut service = DistributedQueryService::new(data.clone());
        let ids: Vec<QueryId> = patterns
            .iter()
            .map(|p| service.register(p, config).expect("valid config"))
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
        let mut batched = DistributedQueryService::new(data.clone());
        let id_b = batched.register(&pattern, config).unwrap();
        let mut sequential = DistributedQueryService::new(data.clone());
        let id_s = sequential.register(&pattern, config).unwrap();
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

        let mut oracle = DistributedQueryService::new(data.clone());
        let id_o = oracle.register(&pattern, config).unwrap();
        oracle.apply(&deltas[0]).unwrap();
        oracle.apply(&deltas[1]).unwrap();

        let mut plan = FaultPlan::none();
        for site in 0..config.sites {
            for round in 0..=policy.chunk_retries {
                plan.panic_chunk(site, 0, round);
            }
        }
        let mut service = DistributedQueryService::new(data.clone());
        let id = service.register(&pattern, config).unwrap();
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
        let mut service = DistributedQueryService::new(data.clone());
        let id = service.register(&pattern, base_config()).unwrap();
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
