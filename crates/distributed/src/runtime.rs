//! The simulated coordinator/site runtime.
//!
//! Each site's balls (the balls centred at the site's own nodes) are evaluated in
//! locality-contiguous chunks and reported as partial results `Θi` plus traffic counters
//! back to the coordinator; the coordinator assembles the union. Every ball is evaluated
//! exactly once (charged to the site owning its center), so the union equals the
//! centralized result — the property the tests verify.
//!
//! The fan-out reuses the matching engine's work-stealing chunk scheduler
//! ([`ssim_core::parallel::StealScheduler`]): each site's center list is cut into
//! chunks ([`ssim_core::parallel::chunk_plan`]), the site-ordered chunk list is dealt to
//! one worker per site, and a worker whose sites ran dry steals whole chunks from loaded
//! sites — a slow site overlaps with fast ones instead of barriering the run on the
//! largest fragment. Each site matches its balls with the same ball-local compact engine
//! ([`ssim_core::strong::match_compact_ball`]) the centralized `Match` runs, so engine
//! improvements land on both runtimes at once. Every ball is built by its own bounded
//! BFS and refined from scratch, so per-ball behaviour (and every counter except
//! `chunks_stolen`) is independent of how the steals fall — a ball is built at exactly
//! one site, once. Chunk boundaries are fixed, so the per-site attribution of
//! `balls_per_site` follows the chunk plan.
//!
//! # Fault tolerance
//!
//! With [`DistributedConfig::recovery`] set, the fan-out runs under a coordinator
//! **supervision loop** instead of the zero-overhead fast path. The loop advances in
//! rounds: every round executes the still-pending chunks (each attempt wrapped in its
//! own `catch_unwind`), then processes the outcomes deterministically in chunk-id order.
//! A failed attempt — a contained panic, a dropped result message, a scripted delay at
//! or past the policy timeout — is retried with exponential virtual-tick backoff until
//! [`RecoveryPolicy::chunk_retries`] is exhausted; a site scripted to crash has its
//! unfinished chunks reassigned to surviving sites before the round executes (crashes
//! never consume retries). Because every ball is evaluated independently of the balls
//! before it, a chunk's rows and counters are a pure function of its centers, so
//! replayed and reassigned chunks are bit-safe: a recoverable run's output is
//! bit-identical to the fault-free run, with the recovery trace confined to
//! [`TrafficStats::recovery`]. Chunks lost past the budget
//! degrade the output instead of failing it (under
//! [`RecoveryPolicy::allow_degraded`]): their centers are reported in
//! [`DistributedOutput::lost_centers`] and the coverage arithmetic
//! `covered_balls + lost_balls == |V|` stays exact — the distributed mirror of the
//! repetition budget/bail contract.

use crate::error::DistError;
use crate::fault::{FaultAction, FaultPlan, RecoveryPolicy, RecoveryStats};
use crate::partition::{GraphPartition, PartitionStrategy};
use ssim_core::ball::{locality_center_order, BallSubstrate};
use ssim_core::dual::dual_simulation_with;
use ssim_core::gm::{match_gm_ball, GmSubstrate};
use ssim_core::incremental::{PreparedGlobal, UpdatePlan};
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::minimize::minimize_pattern;
use ssim_core::parallel::{
    chunk_plan, effective_workers, panic_message, par_workers, StealScheduler,
};
use ssim_core::relation::MatchRelation;
use ssim_core::repetition::{RepetitionMode, RepetitionSemantics};
use ssim_core::simulation::RefineStrategy;
use ssim_core::strong::{
    match_compact_ball_filtered_with, match_compact_ball_with, translate_to_outer,
};
use ssim_graph::{BallScratch, BitSet, CompactBall, Graph, NodeId, Pattern};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Number of sites (fragments).
    pub sites: usize,
    /// How the data graph is partitioned across sites.
    pub strategy: PartitionStrategy,
    /// Minimise the query at the coordinator before broadcasting it.
    pub minimize_query: bool,
    /// Compute the global dual-simulation relation once at the coordinator, restrict the
    /// sites to matched ball centers and seed every per-ball refinement from the
    /// projected relation (`dualFilter`, Fig. 5) — the distributed mirror of
    /// `MatchConfig::dual_filter`.
    pub dual_filter: bool,
    /// Which graph the sites' ball pipelines traverse under [`Self::dual_filter`]: the
    /// coordinator-extracted match graph `Gm` (each site walks its own slice of `Gm`'s
    /// locality order) or the full data graph. Ignored without `dual_filter`.
    pub ball_substrate: BallSubstrate,
    /// How [`crate::incremental::IncrementalDistributed`] reacts to graph deltas:
    /// coordinator-side state maintenance with per-site dirty-ball routing (the
    /// default) or a full recompute (the equivalence oracle). One-shot
    /// [`distributed_strong_simulation`] calls ignore the axis.
    pub update_plan: UpdatePlan,
    /// How equal-labelled pattern nodes may be realised by data nodes — the distributed
    /// mirror of `MatchConfig::repetition`. Sites run the per-ball repetition closure
    /// locally before emitting, so the union equals the centralized result under every
    /// semantics.
    pub repetition: RepetitionSemantics,
    /// Which implementation enforces a non-`Free` repetition semantics at the sites
    /// (the integrated closure or the naive per-pair oracle).
    pub repetition_mode: RepetitionMode,
    /// `None` (the default) runs the zero-overhead fast path, where a worker panic
    /// propagates and aborts the run as before. `Some(policy)` routes the fan-out
    /// through the coordinator supervision loop: chunk failures are contained and
    /// retried, crashed sites' chunks are reassigned, and chunks lost past the budget
    /// degrade the output with exact coverage accounting instead of panicking.
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            sites: 4,
            strategy: PartitionStrategy::Range,
            minimize_query: true,
            dual_filter: false,
            ball_substrate: BallSubstrate::MatchGraph,
            update_plan: UpdatePlan::Incremental,
            repetition: RepetitionSemantics::Free,
            repetition_mode: RepetitionMode::Integrated,
            recovery: None,
        }
    }
}

impl DistributedConfig {
    /// Validates the configuration against a concrete data graph size. Every entry
    /// point runs this up front, so misconfigurations surface as typed errors before
    /// any site work starts (the runtime used to clamp or panic instead).
    pub fn validate(&self, nodes: usize) -> Result<(), DistError> {
        if self.sites == 0 {
            return Err(DistError::NoSites);
        }
        if self.sites > nodes {
            return Err(DistError::MoreSitesThanNodes {
                sites: self.sites,
                nodes,
            });
        }
        if let Some(policy) = &self.recovery {
            policy.validate()?;
        }
        Ok(())
    }
}

/// Network-traffic accounting for one distributed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Candidate ball centers considered by the coordinator: every data node, on both
    /// ball substrates (`considered_balls == skipped_balls + Σ balls_per_site`).
    pub considered_balls: usize,
    /// Centers excluded before any site saw them — the global dual filter's unmatched
    /// nodes (equivalently: nodes outside `Gm` on the match-graph substrate).
    pub skipped_balls: usize,
    /// Balls whose center sits next to a fragment boundary (candidates for shipping).
    pub border_balls: usize,
    /// Balls that actually contained at least one foreign node and thus required shipping.
    pub shipped_balls: usize,
    /// Total number of foreign nodes shipped across all balls.
    pub shipped_nodes: usize,
    /// Total number of ball edges incident to a foreign node (shipped edges).
    pub shipped_edges: usize,
    /// Perfect subgraphs shipped back to the coordinator.
    pub result_subgraphs: usize,
    /// Balls constructed by a bounded BFS, summed over sites. Every ball is evaluated at
    /// exactly one site (the owner of its center), so this equals the number of balls
    /// evaluated — no ball is counted at two sites.
    pub built_balls: usize,
    /// Centers this run had no cached result for: every center on a one-shot run, only
    /// the delta-invalidated ones on an incremental update (of which only the matched
    /// ones are actually routed to sites). `dirty_balls + clean_balls == |V|` always.
    pub dirty_balls: usize,
    /// Centers whose cached (or trivially absent) result was reused untouched.
    pub clean_balls: usize,
    /// Locality-contiguous chunks of site center lists whose results reached the
    /// coordinator. The per-site chunk plans depend only on the site center counts, so
    /// this is identical at every worker count; on a supervised run each chunk counts
    /// once however many attempts it took (failed attempts are accounted in
    /// [`TrafficStats::recovery`]), and lost chunks do not count.
    pub chunks_processed: usize,
    /// Chunks executed by a worker other than the one they were dealt to — cross-site
    /// load balancing in action. The one scheduling-dependent counter; excluded from
    /// the consistency suites' comparisons.
    pub chunks_stolen: usize,
    /// Ball centers whose evaluation completed or was skipped/clean — everything except
    /// the lost ones. `covered_balls + lost_balls == |V|` always (the coverage
    /// contract); a fully successful run covers every node.
    pub covered_balls: usize,
    /// Ball centers whose evaluation was lost past the retry budget (the members of
    /// [`DistributedOutput::lost_centers`]). Zero on the fast path.
    pub lost_balls: usize,
    /// Recovery-event counters from the supervision loop; all zero on the fast path and
    /// on a fault-free supervised run. Deterministic given the input and the fault plan
    /// (rounds are barriers), unlike `chunks_stolen`.
    pub recovery: RecoveryStats,
    /// Number of balls evaluated by each site. Reassigned chunks stay charged to the
    /// site owning their centers, so a recoverable run's attribution matches the
    /// fault-free run.
    pub balls_per_site: Vec<usize>,
}

/// Result of a distributed strong-simulation run.
#[derive(Debug, Clone)]
pub struct DistributedOutput {
    /// The union of the sites' partial results, ordered by ball center.
    pub subgraphs: Vec<PerfectSubgraph>,
    /// Aggregated traffic counters.
    pub traffic: TrafficStats,
    /// The partition that was used.
    pub partition: GraphPartition,
    /// Ball centers (in the caller's data-graph ids, ascending) whose evaluation was
    /// lost past the recovery budget — empty on any fully successful run. Each lost
    /// center's ball may or may not have matched; the surviving
    /// [`DistributedOutput::subgraphs`] are exactly the fault-free result minus rows
    /// centred at these nodes.
    pub lost_centers: Vec<NodeId>,
}

impl DistributedOutput {
    /// Union of matched data nodes, mirroring [`ssim_core::strong::MatchOutput::matched_nodes`].
    pub fn matched_nodes(&self) -> std::collections::BTreeSet<ssim_graph::NodeId> {
        self.subgraphs
            .iter()
            .flat_map(|s| s.nodes.iter().copied())
            .collect()
    }
}

/// Delta-invariant coordinator state cached across incremental applies.
///
/// * The **partition** depends only on `|V|`, the site count and the strategy — both
///   strategies assign ownership by node id, so edge deltas can never move a node to
///   another site. One partition serves the whole delta stream (cloned into each
///   [`DistributedOutput`], a memcpy instead of a rebuild).
/// * The **locality order** is one undirected BFS order over *all* substrate nodes;
///   each apply filters it down to its dirty centers (bit-identical to ordering the
///   filtered set directly — the order is produced by filtering a whole-graph BFS).
///   The order is a performance hint, not a correctness input: any permutation of the
///   centers yields the same rows, so it is reused until the substrate itself is
///   replaced (a `Gm` re-extraction) rather than per delta.
#[derive(Default)]
pub struct CoordinatorCache {
    partition: Option<GraphPartition>,
    locality: Option<Vec<NodeId>>,
}

impl CoordinatorCache {
    /// An empty cache; fills lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached locality order (the substrate it ordered was replaced).
    pub fn invalidate_locality(&mut self) {
        self.locality = None;
    }

    fn partition(&mut self, n: usize, config: &DistributedConfig) -> GraphPartition {
        let stale = self.partition.as_ref().is_none_or(|p| {
            p.sites() != config.sites || p.fragment_sizes().iter().sum::<usize>() != n
        });
        if stale {
            self.partition = Some(GraphPartition::from_node_count(
                n,
                config.sites,
                config.strategy,
            ));
        }
        self.partition.clone().expect("filled above")
    }

    fn locality(&mut self, match_data: &Graph, centers: &[NodeId]) -> Vec<NodeId> {
        let stale = self
            .locality
            .as_ref()
            .is_none_or(|order| order.len() != match_data.node_count());
        if stale {
            let all: Vec<NodeId> = match_data.nodes().collect();
            self.locality = Some(locality_center_order(match_data, &all));
        }
        let order = self.locality.as_ref().expect("filled above");
        let mut wanted = BitSet::new(match_data.node_count());
        for &c in centers {
            wanted.insert(c.index());
        }
        order
            .iter()
            .copied()
            .filter(|c| wanted.contains(c.index()))
            .collect()
    }
}

/// The coordinator's data argument: the flat graph, or — when the whole run stays
/// inside the prepared `Gm` — just its node count (the overlay-serving path).
enum DistData<'a> {
    Flat(&'a Graph),
    CountOnly(usize),
}

impl DistData<'_> {
    #[inline]
    fn node_count(&self) -> usize {
        match self {
            DistData::Flat(g) => g.node_count(),
            DistData::CountOnly(n) => *n,
        }
    }

    #[inline]
    fn flat(&self) -> Result<&Graph, DistError> {
        match self {
            DistData::Flat(g) => Ok(g),
            DistData::CountOnly(_) => Err(DistError::FlatGraphRequired),
        }
    }
}

/// One unit of schedulable site work: a contiguous slice of `site`'s locality-ordered
/// center list. `index` is the chunk's ordinal within the site's plan — together
/// `(site, index)` is the chunk's stable identity, the coordinate fault plans key on.
/// Chunk boundaries depend only on the site center counts, never on the worker count or
/// steal timing.
struct SiteChunk {
    site: usize,
    index: usize,
    range: std::ops::Range<usize>,
}

/// Partial result produced by one fan-out worker, possibly spanning chunks of several
/// sites (its own plus stolen ones); per-site attribution survives in `balls_per_site`.
/// The supervised path produces one report per *successful chunk attempt* instead — the
/// merge only ever sums reports, so both granularities feed it unchanged.
struct WorkerReport {
    subgraphs: Vec<PerfectSubgraph>,
    border_balls: usize,
    shipped_balls: usize,
    shipped_nodes: usize,
    shipped_edges: usize,
    built_balls: usize,
    chunks_processed: usize,
    chunks_stolen: usize,
    balls_per_site: Vec<usize>,
}

impl WorkerReport {
    fn new(sites: usize) -> Self {
        WorkerReport {
            subgraphs: Vec::new(),
            border_balls: 0,
            shipped_balls: 0,
            shipped_nodes: 0,
            shipped_edges: 0,
            built_balls: 0,
            chunks_processed: 0,
            chunks_stolen: 0,
            balls_per_site: vec![0; sites],
        }
    }
}

/// Runs strong simulation of `pattern` over `data` distributed across
/// `config.sites` simulated sites.
pub fn distributed_strong_simulation(
    pattern: &Pattern,
    data: &Graph,
    config: &DistributedConfig,
) -> Result<DistributedOutput, DistError> {
    distributed_with_prepared(pattern, data, config, None, None)
}

/// [`distributed_strong_simulation`] under a scripted [`FaultPlan`]: site crashes,
/// chunk panics, dropped results and slow-site delays fire at their scripted
/// `(site, chunk, round)` points and are handled by the supervision loop. A non-empty
/// plan requires [`DistributedConfig::recovery`] to be set — scripted faults without a
/// recovery policy would abort the run, which is exactly what the fault plane exists to
/// prevent ([`DistError::FaultPlanNeedsRecovery`]).
pub fn distributed_with_faults(
    pattern: &Pattern,
    data: &Graph,
    config: &DistributedConfig,
    faults: &FaultPlan,
) -> Result<DistributedOutput, DistError> {
    let mut cache = CoordinatorCache::new();
    distributed_impl(
        pattern,
        DistData::Flat(data),
        config,
        None,
        None,
        &mut cache,
        Some(faults),
    )
}

/// [`distributed_strong_simulation`] with the incremental driver's hooks, mirroring
/// [`ssim_core::strong::match_with_prepared`]: a coordinator-maintained global state
/// (skipping the global fixpoint and `Gm` extraction) and a dirty-center filter in
/// data-graph ids — only dirty centers are routed to their owning sites, which is how a
/// delta's work is distributed.
pub fn distributed_with_prepared(
    pattern: &Pattern,
    data: &Graph,
    config: &DistributedConfig,
    prepared: Option<PreparedGlobal<'_>>,
    dirty: Option<&BitSet>,
) -> Result<DistributedOutput, DistError> {
    let mut cache = CoordinatorCache::new();
    distributed_impl(
        pattern,
        DistData::Flat(data),
        config,
        prepared,
        dirty,
        &mut cache,
        None,
    )
}

/// [`distributed_with_prepared`] with a [`CoordinatorCache`] carried across calls (so
/// repeated applies against the same node count reuse the partition and the substrate
/// locality order instead of rebuilding both per delta) and an optional fault plan for
/// chaos-testing the incremental path.
pub fn distributed_with_prepared_cached(
    pattern: &Pattern,
    data: &Graph,
    config: &DistributedConfig,
    prepared: Option<PreparedGlobal<'_>>,
    dirty: Option<&BitSet>,
    cache: &mut CoordinatorCache,
    faults: Option<&FaultPlan>,
) -> Result<DistributedOutput, DistError> {
    distributed_impl(
        pattern,
        DistData::Flat(data),
        config,
        prepared,
        dirty,
        cache,
        faults,
    )
}

/// [`distributed_with_prepared`] without the flat data graph, mirroring
/// [`ssim_core::strong::match_with_prepared_counted`]: on the prepared match-graph
/// substrate every site runs inside the cached `Gm`, so the coordinator only needs the
/// data node count (partitions are id-based) — which lets the incremental driver serve
/// straight from its overlay without materialising a CSR per update.
///
/// Fails with [`DistError::FlatGraphRequired`] when the configuration would traverse
/// raw data adjacency (`dual_filter` off, or a total relation on the full-graph oracle
/// substrate) and with [`DistError::PreparedStateMissingGm`] when the prepared state
/// lacks the extraction the match-graph substrate needs.
pub fn distributed_with_prepared_counted(
    pattern: &Pattern,
    data_node_count: usize,
    config: &DistributedConfig,
    prepared: PreparedGlobal<'_>,
    dirty: Option<&BitSet>,
    cache: &mut CoordinatorCache,
    faults: Option<&FaultPlan>,
) -> Result<DistributedOutput, DistError> {
    distributed_impl(
        pattern,
        DistData::CountOnly(data_node_count),
        config,
        prepared.into(),
        dirty,
        cache,
        faults,
    )
}

/// The public-path gate in front of [`distributed_core`]: a non-empty fault plan
/// without a recovery policy is rejected up front, so no public entry point can panic
/// on a scripted fault. (The core itself accepts the combination — the propagation
/// regression test uses it to drive the fast path's abort behaviour directly.)
fn distributed_impl(
    pattern: &Pattern,
    data: DistData<'_>,
    config: &DistributedConfig,
    prepared: Option<PreparedGlobal<'_>>,
    dirty: Option<&BitSet>,
    cache: &mut CoordinatorCache,
    faults: Option<&FaultPlan>,
) -> Result<DistributedOutput, DistError> {
    if faults.is_some_and(|plan| !plan.is_empty()) && config.recovery.is_none() {
        return Err(DistError::FaultPlanNeedsRecovery);
    }
    distributed_core(pattern, data, config, prepared, dirty, cache, faults)
}

/// Everything the fan-out paths need from the coordinator preamble, bundled so the fast
/// and supervised paths share one signature.
struct FanoutCtx<'a> {
    pattern: &'a Pattern,
    match_data: &'a Graph,
    gm: Option<&'a GmSubstrate>,
    relation: Option<&'a MatchRelation>,
    partition: &'a GraphPartition,
    site_centers: &'a [Vec<NodeId>],
    radius: usize,
    config: &'a DistributedConfig,
}

fn distributed_core(
    pattern: &Pattern,
    data: DistData<'_>,
    config: &DistributedConfig,
    prepared: Option<PreparedGlobal<'_>>,
    dirty: Option<&BitSet>,
    cache: &mut CoordinatorCache,
    faults: Option<&FaultPlan>,
) -> Result<DistributedOutput, DistError> {
    config.validate(data.node_count())?;
    let partition = cache.partition(data.node_count(), config);

    // Coordinator step 1: optionally minimise the query, then "broadcast" it. The ball
    // radius stays the diameter of the original query (Lemma 3).
    let radius = pattern.diameter();
    let effective_pattern = if config.minimize_query {
        minimize_pattern(pattern).pattern
    } else {
        pattern.clone()
    };

    // Coordinator step 1b (dual filter): the global dual-simulation relation — computed
    // once here, or handed in already maintained by the incremental driver.
    let empty_output = |partition: GraphPartition, dirty_balls: usize| {
        let node_count = data.node_count();
        DistributedOutput {
            subgraphs: Vec::new(),
            traffic: TrafficStats {
                considered_balls: node_count,
                skipped_balls: node_count,
                dirty_balls,
                clean_balls: node_count - dirty_balls,
                covered_balls: node_count,
                balls_per_site: vec![0; partition.sites()],
                ..Default::default()
            },
            partition,
            lost_centers: Vec::new(),
        }
    };
    let computed_global: Option<MatchRelation> = match (config.dual_filter, prepared) {
        (true, None) => {
            match dual_simulation_with(&effective_pattern, data.flat()?, RefineStrategy::Worklist) {
                Some(rel) => Some(rel),
                None => {
                    // No ball anywhere can match: skip every center at the coordinator.
                    let dirty_balls = dirty.map_or(data.node_count(), BitSet::len);
                    return Ok(empty_output(partition, dirty_balls));
                }
            }
        }
        _ => None,
    };
    let global_relation: Option<&MatchRelation> = if config.dual_filter {
        match prepared {
            Some(p) => {
                if !p.relation.is_total() {
                    // The maintained fixpoint is empty: no ball anywhere can match.
                    let dirty_balls = dirty.map_or(data.node_count(), BitSet::len);
                    return Ok(empty_output(partition, dirty_balls));
                }
                Some(p.relation)
            }
            None => computed_global.as_ref(),
        }
    } else {
        None
    };
    let extracted: Option<GmSubstrate> = match (global_relation, prepared) {
        (Some(global), None) if config.ball_substrate == BallSubstrate::MatchGraph => {
            let mut matched = BitSet::new(0);
            let (sub, inner) = global.extract_matched_subgraph(data.flat()?, &mut matched);
            Some(GmSubstrate::new(&effective_pattern, sub, inner))
        }
        _ => None,
    };
    let gm: Option<&GmSubstrate> = match (global_relation, prepared) {
        (Some(_), Some(p)) if config.ball_substrate == BallSubstrate::MatchGraph => {
            Some(p.gm.ok_or(DistError::PreparedStateMissingGm)?)
        }
        (Some(_), None) if config.ball_substrate == BallSubstrate::MatchGraph => extracted.as_ref(),
        _ => None,
    };
    let (match_data, local_relation): (&Graph, Option<&MatchRelation>) = match gm {
        Some(gm) => (gm.graph(), Some(gm.relation())),
        None => (data.flat()?, global_relation),
    };

    // One locality order over the whole substrate, split by owner (the site owning the
    // *original* node — `Gm` ids translate back for the ownership lookup): site workers
    // walk their own centers in this order (consecutive balls then share most of their
    // members, which measured faster than id order on dense graphs), and the
    // O(|V| + |E|) ordering BFS is paid once instead of once per site.
    let centers: Vec<NodeId> = match (gm, global_relation) {
        (Some(gm), _) => gm.graph().nodes().collect(),
        (None, Some(global)) => {
            let matched = global.matched_data_nodes();
            data.flat()?
                .nodes()
                .filter(|c| matched.contains(c.index()))
                .collect()
        }
        (None, None) => data.flat()?.nodes().collect(),
    };
    let skipped_balls = data.node_count() - centers.len();
    // Incremental updates route only the dirty centers to their owning sites.
    let centers: Vec<NodeId> = match dirty {
        Some(dirty) => centers
            .into_iter()
            .filter(|&c| {
                let outer = gm.map_or(c, |gm| gm.subgraph().outer_of(c));
                dirty.contains(outer.index())
            })
            .collect(),
        None => centers,
    };
    let mut site_centers: Vec<Vec<NodeId>> = vec![Vec::new(); partition.sites()];
    for center in cache.locality(match_data, &centers) {
        let owner = gm.map_or(center, |gm| gm.subgraph().outer_of(center));
        site_centers[partition.site_of(owner)].push(center);
    }

    // Coordinator step 2: the sites' balls are evaluated in locality-contiguous chunks
    // through the engine's work-stealing scheduler — one worker per site (clamped to
    // the chunk count), each dealt its own site's chunks first, idle workers stealing
    // whole chunks from loaded sites so a skewed fragment no longer barriers the run.
    let mut site_chunks: Vec<SiteChunk> = Vec::new();
    for (site, centers) in site_centers.iter().enumerate() {
        for (index, range) in chunk_plan(centers.len()).into_iter().enumerate() {
            site_chunks.push(SiteChunk { site, index, range });
        }
    }
    let ctx = FanoutCtx {
        pattern: &effective_pattern,
        match_data,
        gm,
        relation: local_relation,
        partition: &partition,
        site_centers: &site_centers,
        radius,
        config,
    };
    let (reports, recovery, lost_centers) = match &config.recovery {
        Some(policy) => {
            let empty_plan = FaultPlan::none();
            run_supervised(&ctx, site_chunks, policy, faults.unwrap_or(&empty_plan))
        }
        None => (
            run_fast(&ctx, site_chunks, faults),
            RecoveryStats::default(),
            Vec::new(),
        ),
    };
    if let Some(policy) = &config.recovery {
        if !policy.allow_degraded && !lost_centers.is_empty() {
            return Err(DistError::CoverageLost {
                lost_balls: lost_centers.len(),
                covered_balls: data.node_count() - lost_centers.len(),
            });
        }
    }

    // Assemble the union, deterministically ordered by ball center.
    let dirty_balls = dirty.map_or(data.node_count(), BitSet::len);
    let mut traffic = TrafficStats {
        considered_balls: data.node_count(),
        skipped_balls,
        dirty_balls,
        clean_balls: data.node_count() - dirty_balls,
        covered_balls: data.node_count() - lost_centers.len(),
        lost_balls: lost_centers.len(),
        recovery,
        balls_per_site: vec![0; partition.sites()],
        ..Default::default()
    };
    let mut subgraphs = Vec::new();
    for report in reports {
        traffic.border_balls += report.border_balls;
        traffic.shipped_balls += report.shipped_balls;
        traffic.shipped_nodes += report.shipped_nodes;
        traffic.shipped_edges += report.shipped_edges;
        traffic.built_balls += report.built_balls;
        traffic.result_subgraphs += report.subgraphs.len();
        traffic.chunks_processed += report.chunks_processed;
        traffic.chunks_stolen += report.chunks_stolen;
        for (site, balls) in report.balls_per_site.iter().enumerate() {
            traffic.balls_per_site[site] += balls;
        }
        subgraphs.extend(report.subgraphs);
    }
    subgraphs.sort_by_key(|s| s.center);
    Ok(DistributedOutput {
        subgraphs,
        traffic,
        partition,
        lost_centers,
    })
}

/// The zero-overhead fan-out: one long-lived report per worker, panics re-raised with
/// site/chunk coordinates (aborting the run — the behaviour every pre-recovery release
/// had, preserved verbatim for `recovery: None`). The `faults` seam only scripts
/// round-0 panics and is reachable solely through [`distributed_core`] — public entry
/// points reject fault plans without a recovery policy.
fn run_fast(
    ctx: &FanoutCtx<'_>,
    site_chunks: Vec<SiteChunk>,
    faults: Option<&FaultPlan>,
) -> Vec<WorkerReport> {
    let workers = effective_workers(ctx.partition.sites(), site_chunks.len());
    let scheduler = StealScheduler::new(workers, site_chunks);
    let sites = ctx.partition.sites();
    par_workers(workers, |t| {
        let mut report = WorkerReport::new(sites);
        let mut scratch = BallScratch::new();
        while let Some((chunk, stolen)) = scheduler.next(t) {
            report.chunks_processed += 1;
            report.chunks_stolen += usize::from(stolen);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if faults.and_then(|plan| plan.action_at(chunk.site, chunk.index, 0))
                    == Some(FaultAction::Panic)
                {
                    panic!("injected fault: scripted worker panic");
                }
                evaluate_chunk(
                    chunk.site,
                    ctx.pattern,
                    ctx.match_data,
                    ctx.gm,
                    ctx.relation,
                    ctx.partition,
                    &ctx.site_centers[chunk.site][chunk.range.clone()],
                    ctx.radius,
                    &mut scratch,
                    &mut report,
                    ctx.config.repetition,
                    ctx.config.repetition_mode,
                )
            }));
            if let Err(payload) = caught {
                panic!(
                    "worker {t} panicked in site {} chunk {}..{}: {}",
                    chunk.site,
                    chunk.range.start,
                    chunk.range.end,
                    panic_message(&*payload)
                );
            }
        }
        report
    })
}

/// A chunk the supervision loop still owes a result for.
struct PendingChunk {
    /// Owning site — the chunk's identity, stable across reassignment.
    site: usize,
    /// Ordinal within the owning site's chunk plan.
    index: usize,
    range: std::ops::Range<usize>,
    /// Failed attempts so far; past `chunk_retries` the chunk is lost.
    failures: usize,
    /// Site currently responsible for executing it (≠ `site` after a reassignment).
    assigned: usize,
}

/// One chunk execution dispatched within a supervision round.
struct RoundItem {
    /// Position in the round's `pending` list.
    slot: usize,
    site: usize,
    index: usize,
    range: std::ops::Range<usize>,
}

/// What one chunk attempt produced.
enum AttemptOutcome {
    /// Evaluation completed and the result message arrived (possibly `delay` virtual
    /// ticks late, below the timeout).
    Success { report: WorkerReport, delay: u64 },
    /// The worker panicked (scripted or genuine) and the supervisor contained it.
    Panicked,
    /// Evaluation completed but the result message was lost in transit.
    Dropped,
    /// The scripted delay reached the policy timeout.
    TimedOut,
}

/// The supervised fan-out: rounds are barriers, every attempt is individually
/// contained, and all failure handling happens at the coordinator in chunk-id order —
/// which makes every recovery counter a deterministic function of the input and the
/// fault plan (only `chunks_stolen` remains schedule-dependent). Returns the successful
/// per-chunk reports, the recovery trace and the lost centers (outer ids, ascending).
fn run_supervised(
    ctx: &FanoutCtx<'_>,
    site_chunks: Vec<SiteChunk>,
    policy: &RecoveryPolicy,
    plan: &FaultPlan,
) -> (Vec<WorkerReport>, RecoveryStats, Vec<NodeId>) {
    let sites = ctx.partition.sites();
    let mut stats = RecoveryStats::default();
    let mut dead = vec![false; sites];
    let mut pending: Vec<PendingChunk> = site_chunks
        .into_iter()
        .map(|c| PendingChunk {
            site: c.site,
            index: c.index,
            range: c.range,
            failures: 0,
            assigned: c.site,
        })
        .collect();
    let mut done: Vec<WorkerReport> = Vec::new();
    let mut lost: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut round = 0usize;
    while !pending.is_empty() {
        // Crashes scheduled at or before this round take effect at its start: the dead
        // site's unfinished chunks move to survivors (round-robin, in chunk order)
        // before anything executes, so a crash never consumes a chunk's retries.
        // Results shipped in earlier rounds already live at the coordinator.
        for (site, when) in plan.crashes() {
            if when <= round && site < sites && !dead[site] {
                dead[site] = true;
                stats.site_crashes += 1;
            }
        }
        let survivors: Vec<usize> = (0..sites).filter(|&s| !dead[s]).collect();
        if survivors.is_empty() {
            // Nobody left to reassign to: every pending chunk is lost.
            stats.chunks_lost += pending.len();
            lost.extend(pending.drain(..).map(|c| (c.site, c.range)));
            break;
        }
        let mut rr = 0usize;
        for chunk in &mut pending {
            if dead[chunk.assigned] {
                chunk.assigned = survivors[rr % survivors.len()];
                rr += 1;
                stats.chunks_reassigned += 1;
            }
        }

        // Execute this round's attempts through the steal scheduler, ordered by
        // assigned site so each live site's worker is dealt its own chunks first.
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&i| (pending[i].assigned, pending[i].site, pending[i].index));
        let items: Vec<RoundItem> = order
            .iter()
            .map(|&i| RoundItem {
                slot: i,
                site: pending[i].site,
                index: pending[i].index,
                range: pending[i].range.clone(),
            })
            .collect();
        let workers = effective_workers(survivors.len(), items.len());
        let scheduler = StealScheduler::new(workers, items);
        let outcomes: Vec<Vec<(usize, AttemptOutcome)>> = par_workers(workers, |t| {
            let mut out: Vec<(usize, AttemptOutcome)> = Vec::new();
            let mut scratch = BallScratch::new();
            while let Some((item, stolen)) = scheduler.next(t) {
                let scripted = plan.action_at(item.site, item.index, round);
                let outcome = if scripted == Some(FaultAction::Panic) {
                    // The scripted panic unwinds through the same containment a genuine
                    // one would; the ball scratch is untouched (nothing ran).
                    let unwound = catch_unwind(AssertUnwindSafe(|| {
                        panic!("injected fault: scripted worker panic");
                    }));
                    debug_assert!(unwound.is_err());
                    AttemptOutcome::Panicked
                } else {
                    let mut report = WorkerReport::new(sites);
                    report.chunks_processed = 1;
                    report.chunks_stolen = usize::from(stolen);
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        evaluate_chunk(
                            item.site,
                            ctx.pattern,
                            ctx.match_data,
                            ctx.gm,
                            ctx.relation,
                            ctx.partition,
                            &ctx.site_centers[item.site][item.range.clone()],
                            ctx.radius,
                            &mut scratch,
                            &mut report,
                            ctx.config.repetition,
                            ctx.config.repetition_mode,
                        )
                    }));
                    match caught {
                        Err(_) => {
                            // A mid-chunk unwind may leave the ball scratch with stale
                            // entries; replace it so later attempts on this worker start
                            // from known-good state.
                            scratch = BallScratch::new();
                            AttemptOutcome::Panicked
                        }
                        Ok(()) => match scripted {
                            Some(FaultAction::DropResult) => AttemptOutcome::Dropped,
                            Some(FaultAction::Delay(t)) if t >= policy.chunk_timeout_ticks => {
                                AttemptOutcome::TimedOut
                            }
                            Some(FaultAction::Delay(t)) => {
                                AttemptOutcome::Success { report, delay: t }
                            }
                            _ => AttemptOutcome::Success { report, delay: 0 },
                        },
                    }
                };
                out.push((item.slot, outcome));
            }
            out
        });

        // Coordinator processing, deterministically in chunk-id order regardless of
        // which worker ran what.
        let mut flat: Vec<(usize, AttemptOutcome)> = outcomes.into_iter().flatten().collect();
        flat.sort_by_key(|&(slot, _)| (pending[slot].site, pending[slot].index));
        let mut finished = vec![false; pending.len()];
        for (slot, outcome) in flat {
            let failed = match outcome {
                AttemptOutcome::Success { report, delay } => {
                    stats.delay_ticks += delay;
                    done.push(report);
                    finished[slot] = true;
                    false
                }
                AttemptOutcome::Panicked => {
                    stats.panics_contained += 1;
                    true
                }
                AttemptOutcome::Dropped => {
                    stats.results_dropped += 1;
                    true
                }
                AttemptOutcome::TimedOut => {
                    stats.chunk_timeouts += 1;
                    true
                }
            };
            if failed {
                let chunk = &mut pending[slot];
                chunk.failures += 1;
                if chunk.failures > policy.chunk_retries {
                    stats.chunks_lost += 1;
                    finished[slot] = true;
                    lost.push((chunk.site, chunk.range.clone()));
                } else {
                    stats.chunk_retries += 1;
                    stats.backoff_ticks +=
                        policy.backoff_ticks << (chunk.failures - 1).min(32) as u32;
                }
            }
        }
        let mut keep = finished.iter().map(|&f| !f);
        pending.retain(|_| keep.next().expect("one flag per chunk"));
        if pending.is_empty() {
            break;
        }
        round += 1;
        stats.retry_rounds += 1;
    }

    // Lost chunks' centers, translated to the caller's id space and sorted.
    let outer_of = |v: NodeId| ctx.gm.map_or(v, |gm| gm.subgraph().outer_of(v));
    let mut lost_centers: Vec<NodeId> = lost
        .into_iter()
        .flat_map(|(site, range)| ctx.site_centers[site][range].iter().copied())
        .map(outer_of)
        .collect();
    lost_centers.sort_unstable();
    (done, stats, lost_centers)
}

/// Evaluates one chunk of `site`'s balls, each built by its own bounded BFS and refined
/// from scratch. `centers` is the chunk's slice of the site's locality order, in `data`'s
/// id space — which is the coordinator's `Gm` slice when `gm` is present (`data` is then
/// the extracted graph, and ownership/traffic lookups translate through it). A center is
/// owned by exactly one site and appears in exactly one chunk, so each ball is evaluated
/// — and counted as built — exactly once across the whole run.
#[allow(clippy::too_many_arguments)]
fn evaluate_chunk(
    site: usize,
    pattern: &Pattern,
    data: &Graph,
    gm: Option<&GmSubstrate>,
    global_relation: Option<&MatchRelation>,
    partition: &GraphPartition,
    centers: &[NodeId],
    radius: usize,
    scratch: &mut BallScratch,
    report: &mut WorkerReport,
    repetition: RepetitionSemantics,
    repetition_mode: RepetitionMode,
) {
    // Ownership and the border metric live on the *original* graph's ids.
    let outer_of = |v: NodeId| gm.map_or(v, |gm| gm.subgraph().outer_of(v));
    for &center in centers {
        report.balls_per_site[site] += 1;
        // Border centers: a substrate neighbour stored on a different site. On the
        // match-graph substrate this is `Gm` adjacency — only edges a ball could ship.
        if partition.is_border_node_translated(data, center, outer_of) {
            report.border_balls += 1;
        }
        report.built_balls += 1;
        let ball = CompactBall::build(data, center, radius, scratch);
        // Traffic accounting: every ball member stored on a different site would have to be
        // shipped to this site, together with its incident ball edges. On the match-graph
        // substrate the members and edges *are* `Gm`'s — exactly the data a site would
        // fetch — so the counts are taken over the substrate adjacency.
        let foreign: Vec<NodeId> = ball
            .to_global()
            .iter()
            .copied()
            .filter(|&v| partition.site_of(outer_of(v)) != site)
            .collect();
        if !foreign.is_empty() {
            report.shipped_balls += 1;
            report.shipped_nodes += foreign.len();
            for &v in &foreign {
                report.shipped_edges += data
                    .out_neighbors(v)
                    .chain(data.in_neighbors(v))
                    .filter(|w| ball.local_of(*w).is_some())
                    .count();
            }
        }
        let subgraph = if let Some(gm) = gm {
            // Balls inside `Gm` refine and extract over its candidate adjacency.
            match_gm_ball(pattern, &ball, gm, repetition, repetition_mode).0
        } else if let Some(global) = global_relation {
            match_compact_ball_filtered_with(
                pattern,
                &ball,
                data,
                global,
                repetition,
                repetition_mode,
            )
            .0
        } else {
            match_compact_ball_with(pattern, &ball, data, repetition, repetition_mode).0
        };
        if let Some(subgraph) = subgraph {
            // The id-translation boundary: sites speak substrate ids, reports speak the
            // caller's data-graph ids.
            report.subgraphs.push(match gm {
                Some(gm) => translate_to_outer(subgraph, gm.subgraph()),
                None => subgraph,
            });
        }
        ball.recycle(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_core::strong::{strong_simulation, MatchConfig};
    use ssim_datasets::paper;
    use ssim_datasets::patterns::extract_pattern;
    use ssim_datasets::synthetic::{synthetic, SyntheticConfig};

    #[test]
    fn distributed_equals_centralized_on_figure1() {
        let fig = paper::figure1();
        let central = strong_simulation(&fig.pattern, &fig.data, &MatchConfig::basic());
        for sites in [1, 2, 3, 5] {
            for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
                let config = DistributedConfig {
                    sites,
                    strategy,
                    minimize_query: false,
                    ..DistributedConfig::default()
                };
                let out = distributed_strong_simulation(&fig.pattern, &fig.data, &config)
                    .expect("valid configuration");
                assert_eq!(
                    central.matched_nodes(),
                    out.matched_nodes(),
                    "sites={sites} strategy={strategy:?}"
                );
                assert_eq!(central.subgraphs.len(), out.subgraphs.len());
                // Full coverage on a fault-free run.
                assert_eq!(out.traffic.covered_balls, fig.data.node_count());
                assert_eq!(out.traffic.lost_balls, 0);
                assert!(out.lost_centers.is_empty());
            }
        }
    }

    #[test]
    fn distributed_equals_centralized_on_synthetic_data() {
        let data = synthetic(&SyntheticConfig {
            nodes: 250,
            alpha: 1.15,
            labels: 12,
            seed: 3,
        });
        let pattern = extract_pattern(&data, 4, 9).expect("pattern extraction succeeds");
        let central = strong_simulation(&pattern, &data, &MatchConfig::basic());
        let out = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 4,
                strategy: PartitionStrategy::Hash,
                minimize_query: true,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        assert_eq!(central.matched_nodes(), out.matched_nodes());
        assert_eq!(central.subgraphs.len(), out.subgraphs.len());
    }

    #[test]
    fn single_site_ships_nothing() {
        let fig = paper::figure2_books();
        let out = distributed_strong_simulation(
            &fig.pattern,
            &fig.data,
            &DistributedConfig {
                sites: 1,
                strategy: PartitionStrategy::Hash,
                minimize_query: false,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        assert_eq!(out.traffic.shipped_balls, 0);
        assert_eq!(out.traffic.shipped_nodes, 0);
        assert_eq!(out.traffic.border_balls, 0);
        assert_eq!(out.traffic.balls_per_site, vec![fig.data.node_count()]);
    }

    #[test]
    fn shipping_is_bounded_by_border_balls_times_ball_size() {
        let data = synthetic(&SyntheticConfig {
            nodes: 150,
            alpha: 1.1,
            labels: 8,
            seed: 21,
        });
        let pattern = extract_pattern(&data, 3, 4).unwrap();
        let out = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 3,
                strategy: PartitionStrategy::Range,
                minimize_query: false,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        // Shipped balls can never exceed the total number of balls, and every shipped ball
        // ships at most the whole graph.
        let total_balls: usize = out.traffic.balls_per_site.iter().sum();
        assert_eq!(total_balls, data.node_count());
        assert!(out.traffic.shipped_balls <= total_balls);
        assert!(out.traffic.shipped_nodes <= out.traffic.shipped_balls * data.node_count());
        assert_eq!(out.traffic.result_subgraphs, out.subgraphs.len());
    }

    #[test]
    fn built_balls_are_counted_once_per_ball_across_sites() {
        let data = synthetic(&SyntheticConfig {
            nodes: 180,
            alpha: 1.12,
            labels: 10,
            seed: 9,
        });
        let pattern = extract_pattern(&data, 3, 5).unwrap();
        for sites in [1, 3, 6] {
            for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
                let out = distributed_strong_simulation(
                    &pattern,
                    &data,
                    &DistributedConfig {
                        sites,
                        strategy,
                        minimize_query: false,
                        ..DistributedConfig::default()
                    },
                )
                .expect("valid configuration");
                let total: usize = out.traffic.balls_per_site.iter().sum();
                assert_eq!(total, data.node_count());
                // Every ball is built exactly once, at one site.
                assert_eq!(
                    out.traffic.built_balls, total,
                    "sites={sites} strategy={strategy:?}"
                );
            }
        }
    }

    #[test]
    fn dual_filter_skips_unmatched_centers_and_matches_centralized() {
        use ssim_core::ball::BallSubstrate;
        let data = synthetic(&SyntheticConfig {
            nodes: 220,
            alpha: 1.15,
            labels: 10,
            seed: 5,
        });
        let pattern = extract_pattern(&data, 4, 7).expect("pattern extraction succeeds");
        // The centralized reference: dual filter on, no minimization/pruning (the
        // distributed sites run the plain per-ball unit of work).
        let central = strong_simulation(
            &pattern,
            &data,
            &MatchConfig {
                dual_filter: true,
                ..MatchConfig::basic()
            },
        );
        for substrate in [BallSubstrate::MatchGraph, BallSubstrate::FullGraph] {
            for sites in [1, 3, 5] {
                for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
                    let out = distributed_strong_simulation(
                        &pattern,
                        &data,
                        &DistributedConfig {
                            sites,
                            strategy,
                            minimize_query: false,
                            dual_filter: true,
                            ball_substrate: substrate,
                            ..DistributedConfig::default()
                        },
                    )
                    .expect("valid configuration");
                    let ctx = format!("substrate={substrate:?} sites={sites} {strategy:?}");
                    assert_eq!(central.subgraphs.len(), out.subgraphs.len(), "{ctx}");
                    for (a, b) in central.subgraphs.iter().zip(&out.subgraphs) {
                        assert_eq!(a.center, b.center, "{ctx}");
                        assert_eq!(a.nodes, b.nodes, "{ctx}");
                        assert_eq!(a.edges, b.edges, "{ctx}");
                        assert_eq!(a.relation, b.relation, "{ctx}");
                    }
                    // Skipped-vs-considered sums to |V| on both substrates.
                    let evaluated: usize = out.traffic.balls_per_site.iter().sum();
                    assert_eq!(out.traffic.considered_balls, data.node_count(), "{ctx}");
                    assert_eq!(
                        out.traffic.skipped_balls + evaluated,
                        out.traffic.considered_balls,
                        "{ctx}"
                    );
                    assert_eq!(
                        out.traffic.skipped_balls, central.stats.balls_skipped,
                        "{ctx}"
                    );
                    assert_eq!(out.traffic.built_balls, evaluated, "{ctx}");
                }
            }
        }
        // Without the filter nothing is skipped and every node is evaluated.
        let unfiltered = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 3,
                minimize_query: false,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        assert_eq!(unfiltered.traffic.considered_balls, data.node_count());
        assert_eq!(unfiltered.traffic.skipped_balls, 0);
    }

    #[test]
    fn dual_filter_rejecting_graph_skips_every_center() {
        // A pattern whose label is absent: the coordinator's global relation is empty.
        let data = synthetic(&SyntheticConfig {
            nodes: 60,
            alpha: 1.2,
            labels: 4,
            seed: 2,
        });
        let pattern = ssim_graph::Pattern::from_edges(
            vec![ssim_graph::Label(77), ssim_graph::Label(78)],
            &[(0, 1)],
        )
        .unwrap();
        let out = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 3,
                minimize_query: false,
                dual_filter: true,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        assert!(out.subgraphs.is_empty());
        assert_eq!(out.traffic.considered_balls, data.node_count());
        assert_eq!(out.traffic.skipped_balls, data.node_count());
        assert_eq!(out.traffic.balls_per_site, vec![0, 0, 0]);
        // The short-circuit path still reports full coverage.
        assert_eq!(out.traffic.covered_balls, data.node_count());
        assert_eq!(out.traffic.lost_balls, 0);
    }

    #[test]
    fn range_partition_ships_less_than_hash_partition() {
        // On a long path graph the range partition has O(sites) border nodes while the hash
        // partition makes nearly every node a border node, so range must ship less.
        let n = 200u32;
        let labels: Vec<ssim_graph::Label> = (0..n).map(|i| ssim_graph::Label(i % 2)).collect();
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let data = ssim_graph::Graph::from_edges(labels, &edges).unwrap();
        let pattern = ssim_graph::Pattern::from_edges(
            vec![ssim_graph::Label(0), ssim_graph::Label(1)],
            &[(0, 1)],
        )
        .unwrap();
        let hash = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 4,
                strategy: PartitionStrategy::Hash,
                minimize_query: false,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        let range = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 4,
                strategy: PartitionStrategy::Range,
                minimize_query: false,
                ..DistributedConfig::default()
            },
        )
        .expect("valid configuration");
        assert_eq!(hash.matched_nodes(), range.matched_nodes());
        assert!(
            range.traffic.shipped_nodes < hash.traffic.shipped_nodes,
            "range partition ({}) should ship no more than hash ({})",
            range.traffic.shipped_nodes,
            hash.traffic.shipped_nodes
        );
    }

    // --- Fault tolerance ---------------------------------------------------------

    fn small_case() -> (Pattern, Graph) {
        let data = synthetic(&SyntheticConfig {
            nodes: 120,
            alpha: 1.15,
            labels: 8,
            seed: 7,
        });
        let pattern = extract_pattern(&data, 3, 5).expect("pattern extraction succeeds");
        (pattern, data)
    }

    /// Zeroes the counters a fault plan or steal timing is allowed to perturb.
    fn normalized(t: &TrafficStats) -> TrafficStats {
        TrafficStats {
            chunks_stolen: 0,
            recovery: RecoveryStats::default(),
            ..t.clone()
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_setups() {
        let (pattern, data) = small_case();
        let zero_sites = DistributedConfig {
            sites: 0,
            ..DistributedConfig::default()
        };
        assert_eq!(
            distributed_strong_simulation(&pattern, &data, &zero_sites).unwrap_err(),
            DistError::NoSites
        );
        let too_many = DistributedConfig {
            sites: data.node_count() + 1,
            ..DistributedConfig::default()
        };
        assert_eq!(
            distributed_strong_simulation(&pattern, &data, &too_many).unwrap_err(),
            DistError::MoreSitesThanNodes {
                sites: data.node_count() + 1,
                nodes: data.node_count()
            }
        );
        let useless = DistributedConfig {
            recovery: Some(RecoveryPolicy {
                chunk_retries: 0,
                allow_degraded: false,
                ..RecoveryPolicy::default()
            }),
            ..DistributedConfig::default()
        };
        assert_eq!(
            distributed_strong_simulation(&pattern, &data, &useless).unwrap_err(),
            DistError::UselessRecoveryPolicy
        );
        // A scripted fault without a recovery policy is rejected, not executed.
        let mut plan = FaultPlan::none();
        plan.panic_chunk(0, 0, 0);
        assert_eq!(
            distributed_with_faults(&pattern, &data, &DistributedConfig::default(), &plan)
                .unwrap_err(),
            DistError::FaultPlanNeedsRecovery
        );
    }

    #[test]
    fn counted_entry_without_gm_returns_typed_errors() {
        let (pattern, data) = small_case();
        let relation = dual_simulation_with(&pattern, &data, RefineStrategy::Worklist)
            .expect("extracted pattern matches its own graph");
        let mut cache = CoordinatorCache::new();
        // Without the dual filter the counted path must traverse the flat graph.
        let flat_needed = DistributedConfig {
            dual_filter: false,
            ..DistributedConfig::default()
        };
        let err = distributed_with_prepared_counted(
            &pattern,
            data.node_count(),
            &flat_needed,
            PreparedGlobal {
                relation: &relation,
                gm: None,
            },
            None,
            &mut cache,
            None,
        )
        .unwrap_err();
        assert_eq!(err, DistError::FlatGraphRequired);
        // The match-graph substrate requires the prepared Gm extraction.
        let gm_needed = DistributedConfig {
            dual_filter: true,
            ball_substrate: BallSubstrate::MatchGraph,
            ..DistributedConfig::default()
        };
        let err = distributed_with_prepared_counted(
            &pattern,
            data.node_count(),
            &gm_needed,
            PreparedGlobal {
                relation: &relation,
                gm: None,
            },
            None,
            &mut cache,
            None,
        )
        .unwrap_err();
        assert_eq!(err, DistError::PreparedStateMissingGm);
    }

    #[test]
    fn scripted_panic_propagates_without_recovery() {
        // The pre-recovery abort behaviour, pinned: on the fast path a worker panic
        // re-raises with site/chunk coordinates. Driven through the private core — the
        // public entry points refuse fault plans without a recovery policy.
        let (pattern, data) = small_case();
        let mut plan = FaultPlan::none();
        plan.panic_chunk(0, 0, 0);
        let config = DistributedConfig {
            sites: 2,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut cache = CoordinatorCache::new();
            distributed_core(
                &pattern,
                DistData::Flat(&data),
                &config,
                None,
                None,
                &mut cache,
                Some(&plan),
            )
        }));
        let payload = caught.expect_err("the scripted panic must abort the fast path");
        let message = panic_message(&*payload).to_string();
        assert!(
            message.contains("panicked in site 0 chunk"),
            "unexpected panic message: {message}"
        );
        assert!(message.contains("injected fault"), "{message}");
    }

    #[test]
    fn contained_panic_completes_bit_identical() {
        // The containment twin: the same injected panic, with a recovery policy on,
        // completes and the output is bit-identical to the fault-free run.
        let (pattern, data) = small_case();
        let mut plan = FaultPlan::none();
        plan.panic_chunk(0, 0, 0);
        let base = DistributedConfig {
            sites: 2,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let fault_free = distributed_strong_simulation(&pattern, &data, &base).unwrap();
        let supervised = DistributedConfig {
            recovery: Some(RecoveryPolicy::default()),
            ..base
        };
        let recovered = distributed_with_faults(&pattern, &data, &supervised, &plan).unwrap();
        assert_eq!(fault_free.subgraphs, recovered.subgraphs);
        assert_eq!(
            normalized(&fault_free.traffic),
            normalized(&recovered.traffic)
        );
        assert!(recovered.lost_centers.is_empty());
        // The recovery trace records exactly the one contained panic and its retry.
        let rec = &recovered.traffic.recovery;
        assert_eq!(rec.panics_contained, 1);
        assert_eq!(rec.chunk_retries, 1);
        assert_eq!(rec.retry_rounds, 1);
        assert_eq!(rec.chunks_lost, 0);
        assert_eq!(rec.site_crashes, 0);
    }

    #[test]
    fn crash_reassigns_chunks_without_losing_results() {
        let (pattern, data) = small_case();
        let base = DistributedConfig {
            sites: 3,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let fault_free = distributed_strong_simulation(&pattern, &data, &base).unwrap();
        let mut plan = FaultPlan::none();
        plan.crash_site(1, 0);
        let supervised = DistributedConfig {
            recovery: Some(RecoveryPolicy::default()),
            ..base
        };
        let recovered = distributed_with_faults(&pattern, &data, &supervised, &plan).unwrap();
        assert_eq!(fault_free.subgraphs, recovered.subgraphs);
        assert_eq!(
            normalized(&fault_free.traffic),
            normalized(&recovered.traffic)
        );
        let rec = &recovered.traffic.recovery;
        assert_eq!(rec.site_crashes, 1);
        assert!(rec.chunks_reassigned > 0, "the dead site owned chunks");
        assert_eq!(rec.chunks_lost, 0);
        // Reassigned chunks stay charged to the owning site's ledger.
        assert_eq!(
            recovered.traffic.balls_per_site,
            fault_free.traffic.balls_per_site
        );
    }

    #[test]
    fn unrecoverable_loss_degrades_with_exact_coverage() {
        let (pattern, data) = small_case();
        let base = DistributedConfig {
            sites: 2,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let fault_free = distributed_strong_simulation(&pattern, &data, &base).unwrap();
        // Site 0's first chunk panics on every attempt within the budget: lost.
        let policy = RecoveryPolicy::default();
        let mut plan = FaultPlan::none();
        for round in 0..=policy.chunk_retries {
            plan.panic_chunk(0, 0, round);
        }
        let supervised = DistributedConfig {
            recovery: Some(policy),
            ..base
        };
        let degraded = distributed_with_faults(&pattern, &data, &supervised, &plan).unwrap();
        assert!(!degraded.lost_centers.is_empty());
        assert_eq!(
            degraded.traffic.covered_balls + degraded.traffic.lost_balls,
            data.node_count()
        );
        assert_eq!(degraded.traffic.lost_balls, degraded.lost_centers.len());
        assert_eq!(degraded.traffic.recovery.chunks_lost, 1);
        // Surviving subgraphs are exactly the fault-free rows minus the lost centers.
        let lost: std::collections::BTreeSet<NodeId> =
            degraded.lost_centers.iter().copied().collect();
        let expected: Vec<_> = fault_free
            .subgraphs
            .iter()
            .filter(|s| !lost.contains(&s.center))
            .cloned()
            .collect();
        assert_eq!(degraded.subgraphs, expected);
        // The same schedule under a fail-fast policy is a typed error, not a panic.
        let strict = DistributedConfig {
            recovery: Some(RecoveryPolicy {
                allow_degraded: false,
                ..policy
            }),
            ..base
        };
        let err = distributed_with_faults(&pattern, &data, &strict, &plan).unwrap_err();
        assert!(matches!(err, DistError::CoverageLost { .. }));
    }

    #[test]
    fn all_sites_crashing_loses_every_ball() {
        let (pattern, data) = small_case();
        let base = DistributedConfig {
            sites: 3,
            minimize_query: false,
            recovery: Some(RecoveryPolicy::default()),
            ..DistributedConfig::default()
        };
        let mut plan = FaultPlan::none();
        for site in 0..3 {
            plan.crash_site(site, 0);
        }
        let out = distributed_with_faults(&pattern, &data, &base, &plan).unwrap();
        assert!(out.subgraphs.is_empty());
        assert_eq!(out.traffic.lost_balls, data.node_count());
        assert_eq!(out.traffic.covered_balls, 0);
        assert_eq!(out.lost_centers.len(), data.node_count());
        assert_eq!(out.traffic.recovery.site_crashes, 3);
    }

    #[test]
    fn fault_free_supervised_run_matches_fast_path() {
        // The supervision loop with nothing scripted must be a bit-identical drop-in —
        // the property the fault_overhead bench also depends on.
        let (pattern, data) = small_case();
        for dual_filter in [false, true] {
            let base = DistributedConfig {
                sites: 3,
                minimize_query: false,
                dual_filter,
                ..DistributedConfig::default()
            };
            let fast = distributed_strong_simulation(&pattern, &data, &base).unwrap();
            let supervised = distributed_strong_simulation(
                &pattern,
                &data,
                &DistributedConfig {
                    recovery: Some(RecoveryPolicy::default()),
                    ..base
                },
            )
            .unwrap();
            assert_eq!(fast.subgraphs, supervised.subgraphs, "dual={dual_filter}");
            assert_eq!(
                normalized(&fast.traffic),
                normalized(&supervised.traffic),
                "dual={dual_filter}"
            );
            assert_eq!(supervised.traffic.recovery, RecoveryStats::default());
        }
    }

    /// Twin boundary tests for the `Delay(t)` vs `chunk_timeout_ticks` contract:
    /// `t >= timeout` is a timeout **failure** (retried, no delay absorbed), while
    /// `t == timeout - 1` is the largest benign slow-site delay (absorbed in full,
    /// nothing retried). Pinning both sides keeps the `>=` from regressing to `>`.
    #[test]
    fn delay_exactly_at_the_timeout_is_a_timeout_failure() {
        let data = synthetic(&SyntheticConfig {
            nodes: 120,
            alpha: 1.15,
            labels: 8,
            seed: 17,
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
        let clean =
            distributed_strong_simulation(&pattern, &data, &config).expect("valid configuration");
        let mut plan = FaultPlan::none();
        plan.delay_chunk(0, 0, 0, policy.chunk_timeout_ticks);
        let out =
            distributed_with_faults(&pattern, &data, &config, &plan).expect("recoverable plan");
        let recovery = &out.traffic.recovery;
        assert_eq!(
            recovery.chunk_timeouts, 1,
            "t == timeout must count as a timeout"
        );
        assert_eq!(
            recovery.delay_ticks, 0,
            "a timed-out attempt's delay is not absorbed as slow-site time"
        );
        assert_eq!(
            recovery.chunk_retries, 1,
            "the failed chunk is retried once"
        );
        assert!(
            out.lost_centers.is_empty(),
            "one failure is within the budget"
        );
        assert_eq!(
            out.subgraphs, clean.subgraphs,
            "the retry restores bit-identity"
        );
    }

    #[test]
    fn delay_one_tick_below_the_timeout_is_benign() {
        let data = synthetic(&SyntheticConfig {
            nodes: 120,
            alpha: 1.15,
            labels: 8,
            seed: 17,
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
        let clean =
            distributed_strong_simulation(&pattern, &data, &config).expect("valid configuration");
        let mut plan = FaultPlan::none();
        plan.delay_chunk(0, 0, 0, policy.chunk_timeout_ticks - 1);
        let out =
            distributed_with_faults(&pattern, &data, &config, &plan).expect("recoverable plan");
        let recovery = &out.traffic.recovery;
        assert_eq!(
            recovery.chunk_timeouts, 0,
            "t == timeout - 1 must not time out"
        );
        assert_eq!(
            recovery.delay_ticks,
            policy.chunk_timeout_ticks - 1,
            "the sub-timeout delay is absorbed in full"
        );
        assert_eq!(recovery.chunk_retries, 0);
        assert_eq!(recovery.retry_rounds, 0);
        assert!(out.lost_centers.is_empty());
        assert_eq!(out.subgraphs, clean.subgraphs);
    }
}
