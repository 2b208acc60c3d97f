//! Incremental distributed matching: coordinator-side delta maintenance with per-site
//! dirty-ball routing.
//!
//! The coordinator owns the mutable state — the data graph, the global dual-simulation
//! fixpoint and the `Gm` extraction, all maintained by the shared
//! [`ssim_core::incremental::IncrementalState`] machinery — and, per
//! [`GraphDelta`], computes the dirty-center set (the dQ-bounded locality sweep of
//! Prop. 3) exactly like the centralized driver. The *routing* is what distribution
//! adds: each dirty center is shipped to the site owning it, sites re-evaluate only
//! their own dirty balls (walking their slice of the locality order, as always), and
//! the coordinator splices the returned rows into its cached result.
//! [`TrafficStats::dirty_balls`] / [`TrafficStats::clean_balls`] account for the split
//! and always sum to `|V|`.
//!
//! [`UpdatePlan::Recompute`] (on [`DistributedConfig::update_plan`]) is the oracle: it
//! re-runs the full one-shot [`distributed_strong_simulation`] per delta. The
//! differential suite holds both plans bit-identical along random delta streams.
//!
//! # Surviving mid-delta site loss
//!
//! The maintained coordinator state (fixpoint, `Gm`, overlay) is advanced *before* the
//! fan-out, so a site failing during an apply can only degrade that apply's **rows**,
//! never the state — [`IncrementalDistributed::apply_with_faults`] returns a degraded
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
    distributed_strong_simulation, distributed_with_faults, distributed_with_prepared_cached,
    distributed_with_prepared_counted, CoordinatorCache, DistributedConfig, DistributedOutput,
};
use ssim_core::incremental::{splice_rows, IncrementalState, UpdatePlan};
use ssim_core::simulation::RefineStrategy;
use ssim_graph::{Graph, GraphDelta, OverlayGraph, Pattern};

/// Per-plan coordinator state. The distributed runtime never deduplicates, so the
/// cached `output.subgraphs` doubles as the row cache and splices happen in place.
/// The incremental plan carries a [`CoordinatorCache`] so the partition and the
/// substrate locality order survive across applies instead of being rebuilt per delta.
enum PlanState {
    Incremental {
        state: Box<IncrementalState>,
        cache: CoordinatorCache,
    },
    Recompute {
        data: Graph,
    },
}

/// A distributed strong-simulation session over a mutating data graph.
///
/// Construct once, then feed [`GraphDelta`]s through
/// [`IncrementalDistributed::apply`]; the cached [`DistributedOutput`] after every apply
/// carries subgraphs bit-identical to a one-shot
/// [`distributed_strong_simulation`] on the updated graph (whose traffic counters, by
/// contrast, describe only the update's own work).
pub struct IncrementalDistributed {
    pattern: Pattern,
    config: DistributedConfig,
    plan: PlanState,
    output: DistributedOutput,
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
        let (plan, output) = match config.update_plan {
            UpdatePlan::Recompute => {
                let output = distributed_strong_simulation(pattern, &data, &config)?;
                (PlanState::Recompute { data }, output)
            }
            UpdatePlan::Incremental => {
                // Validate before building the (expensive) maintained state.
                config.validate(data.node_count())?;
                let state = Box::new(IncrementalState::new(
                    pattern,
                    data,
                    config.minimize_query,
                    None,
                    config.dual_filter,
                    config.ball_substrate,
                    RefineStrategy::Worklist,
                ));
                let mut cache = CoordinatorCache::new();
                // At construction the overlay is flat, so its base CSR *is* the graph.
                debug_assert!(state.data.is_flat());
                let output = distributed_with_prepared_cached(
                    pattern,
                    state.data.base(),
                    &config,
                    state.prepared(),
                    None,
                    &mut cache,
                    None,
                )?;
                (PlanState::Incremental { state, cache }, output)
            }
        };
        Ok(IncrementalDistributed {
            pattern: pattern.clone(),
            config,
            plan,
            output,
        })
    }

    /// The current data graph (after every applied delta), materialised flat — an
    /// `O(|V|+|E|)` merge on the incremental plan, meant for oracles and tests. Use
    /// [`IncrementalDistributed::overlay`] to inspect the serving substrate directly.
    pub fn data(&self) -> Graph {
        match &self.plan {
            PlanState::Incremental { state, .. } => state.data.to_graph(),
            PlanState::Recompute { data } => data.clone(),
        }
    }

    /// The versioned serving substrate; `None` on the recompute oracle plan.
    pub fn overlay(&self) -> Option<&OverlayGraph> {
        match &self.plan {
            PlanState::Incremental { state, .. } => Some(&state.data),
            PlanState::Recompute { .. } => None,
        }
    }

    /// The distributed match result over the current graph. On the incremental plan the
    /// traffic counters describe the most recent update's work (dirty balls routed,
    /// shipping for those balls), not a full pass. After a degraded apply,
    /// [`DistributedOutput::lost_centers`] lists the rows this cache is missing.
    pub fn output(&self) -> &DistributedOutput {
        &self.output
    }

    /// Applies one validated batch of edge updates: the coordinator maintains its
    /// state, routes the dirty centers to their owning sites and splices the returned
    /// rows. Fails (leaving the session untouched) when the delta does not validate.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<&DistributedOutput, DistError> {
        self.apply_inner(delta, None)
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
        self.apply_inner(delta, Some(faults))
    }

    /// Applies a batch of deltas as **one** maintenance step, mirroring
    /// [`ssim_core::incremental::IncrementalMatcher::apply_batch`]: on the incremental
    /// plan the stream is staged on a cheap overlay clone to validate its
    /// order-sensitive legality up front, folded into its net delta
    /// ([`GraphDelta::then`]) and fed through a single apply — one dirty sweep, one
    /// routed fan-out. The recompute oracle applies the stream sequentially and re-runs
    /// one full pass on the final graph. A mid-stream validation error leaves the
    /// session untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<&DistributedOutput, DistError> {
        let [first, rest @ ..] = deltas else {
            return Ok(&self.output);
        };
        if rest.is_empty() {
            return self.apply(first);
        }
        match &mut self.plan {
            PlanState::Recompute { data } => {
                let mut new_data = data.apply_delta(first).map_err(DistError::from)?;
                for d in rest {
                    new_data = new_data.apply_delta(d).map_err(DistError::from)?;
                }
                self.output =
                    distributed_strong_simulation(&self.pattern, &new_data, &self.config)?;
                *data = new_data;
                Ok(&self.output)
            }
            PlanState::Incremental { state, .. } => {
                let mut staged = state.data.clone();
                for d in deltas {
                    staged.apply_delta(d).map_err(DistError::from)?;
                }
                let mut net = first.clone();
                for d in rest {
                    net = net.then(d);
                }
                self.apply_inner(&net, None)
            }
        }
    }

    fn apply_inner(
        &mut self,
        delta: &GraphDelta,
        faults: Option<&FaultPlan>,
    ) -> Result<&DistributedOutput, DistError> {
        // Gate before any state is advanced, so a rejected plan leaves the session
        // untouched (the runtime's own gate would only fire after `advance`).
        if faults.is_some_and(|plan| !plan.is_empty()) && self.config.recovery.is_none() {
            return Err(DistError::FaultPlanNeedsRecovery);
        }
        match &mut self.plan {
            PlanState::Recompute { data } => {
                let new_data = data.apply_delta(delta).map_err(DistError::from)?;
                // The oracle recomputes every row per apply, so a previous degraded
                // apply heals here by construction.
                self.output = match faults {
                    Some(plan) => {
                        distributed_with_faults(&self.pattern, &new_data, &self.config, plan)?
                    }
                    None => distributed_strong_simulation(&self.pattern, &new_data, &self.config)?,
                };
                *data = new_data;
            }
            PlanState::Incremental { state, cache } => {
                let mut effect = state.advance(delta).map_err(DistError::from)?;
                if effect.gm_reextracted {
                    // The cached locality order ranked the *old* extraction's ids.
                    cache.invalidate_locality();
                }
                // Lost-center healing: centers a previous degraded apply lost have no
                // trustworthy cached rows. Marking them dirty routes them to (live)
                // sites again and splices their fresh rows in below — and removes any
                // stale cached row even if this apply loses them again.
                for &center in &self.output.lost_centers {
                    effect.dirty.insert(center.index());
                }
                let mut out = match state.prepared() {
                    // The serving path: the whole run stays inside the maintained `Gm`
                    // (or short-circuits on an empty fixpoint) — no flat graph at all.
                    Some(p) if p.gm.is_some() || !p.relation.is_total() => {
                        distributed_with_prepared_counted(
                            &self.pattern,
                            state.data.node_count(),
                            &self.config,
                            p,
                            Some(&effect.dirty),
                            cache,
                            faults,
                        )?
                    }
                    // Full-graph-substrate shapes localise in the raw data graph:
                    // materialise the overlay once per apply (oracle shapes only).
                    p => {
                        let flat = state.data.to_graph();
                        distributed_with_prepared_cached(
                            &self.pattern,
                            &flat,
                            &self.config,
                            p,
                            Some(&effect.dirty),
                            cache,
                            faults,
                        )?
                    }
                };
                let fresh = std::mem::replace(
                    &mut out.subgraphs,
                    std::mem::take(&mut self.output.subgraphs),
                );
                splice_rows(&mut out.subgraphs, &effect.dirty, fresh);
                out.traffic.result_subgraphs = out.subgraphs.len();
                self.output = out;
            }
        }
        Ok(&self.output)
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
