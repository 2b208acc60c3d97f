//! The simulated coordinator/site runtime.
//!
//! The coordinator runs the engine's per-query preamble, a [`MatchPlan`] built under
//! [`DistributedConfig::match_config`]: minimisation, the global dual filter, `Gm` and
//! the skip and dirty filters. It splits the plan's centers by the site owning them, in
//! ascending id order. Each site evaluates its balls with the plan's ball evaluator
//! ([`MatchPlan::evaluate`]), the same one the centralized engine runs, and accounts the
//! foreign ball members it would have to ship. Every ball is evaluated exactly once,
//! charged to the site owning its center, so the union equals the centralized result —
//! the property the tests verify.
//!
//! The fan-out reuses the matching engine's work-stealing chunk scheduler
//! ([`ssim_core::parallel::StealScheduler`]): each site's center list is cut into
//! chunks ([`ssim_core::parallel::chunk_plan`]), the site-ordered chunk list is dealt to
//! one worker per site, and a worker whose sites ran dry steals whole chunks from loaded
//! sites — a slow site overlaps with fast ones instead of barriering the run on the
//! largest fragment. Every ball is built by its own bounded BFS and refined from
//! scratch, so per-ball behaviour (and every counter except `chunks_stolen`) is
//! independent of how the steals fall. Chunk boundaries are fixed, so the per-site
//! attribution of `balls_per_site` follows the chunk plan.
//!
//! # Fault tolerance
//!
//! The fan-out is one coordinator **supervision loop** that advances in rounds: every
//! round executes the still-pending chunks, each attempt wrapped in its own
//! `catch_unwind`. Each worker keeps one report across its successful chunks; a chunk
//! evaluates into a reused per-worker buffer that is merged on success and discarded on
//! failure, so a round in which nothing fails costs no coordinator work beyond summing
//! one report per worker.
//!
//! With [`DistributedConfig::recovery`] set, a failed attempt — a contained panic, a
//! dropped result message, a scripted delay at or past the policy timeout — is retried
//! with exponential virtual-tick backoff until [`RecoveryPolicy::chunk_retries`] is
//! exhausted; failures are processed at the coordinator in chunk-id order. A site
//! scripted to crash has its unfinished chunks reassigned to surviving sites before the
//! round executes (crashes never consume retries). Because every ball is evaluated
//! independently of the balls before it, a chunk's rows and counters are a pure function
//! of its centers, so replayed and reassigned chunks are bit-safe: a recoverable run's
//! output is bit-identical to the fault-free run, with the recovery trace confined to
//! [`TrafficStats::recovery`]. Chunks lost past the budget degrade the output instead of
//! failing it (under [`RecoveryPolicy::allow_degraded`]): their centers are reported in
//! [`DistributedOutput::lost_centers`] and the coverage arithmetic
//! `covered_balls + lost_balls == |V|` stays exact — the distributed mirror of the
//! repetition budget/bail contract. Without a policy the loop runs one round with no
//! retries, and the first panicking chunk re-raises with its site/chunk coordinates.

use crate::error::DistError;
use crate::fault::{FaultAction, FaultPlan, RecoveryPolicy, RecoveryStats};
use crate::partition::{GraphPartition, PartitionStrategy};
use ssim_core::ball::BallSubstrate;
use ssim_core::incremental::PatternState;
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::parallel::{
    chunk_plan, effective_workers, panic_message, par_workers, StealScheduler,
};
use ssim_core::repetition::{RepetitionMode, RepetitionSemantics};
use ssim_core::strong::{DataRef, MatchConfig, MatchPlan};
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
    /// coordinator-extracted match graph `Gm` (each site walks its own slice of `Gm`) or
    /// the full data graph. Ignored without `dual_filter`.
    pub ball_substrate: BallSubstrate,
    /// How equal-labelled pattern nodes may be realised by data nodes — the distributed
    /// mirror of `MatchConfig::repetition`. Sites run the per-ball repetition closure
    /// locally before emitting, so the union equals the centralized result under every
    /// semantics.
    pub repetition: RepetitionSemantics,
    /// Which implementation enforces a non-`Free` repetition semantics at the sites
    /// (the integrated closure or the naive per-pair oracle).
    pub repetition_mode: RepetitionMode,
    /// `None` (the default) runs the supervision loop without retries: a worker panic
    /// re-raises and aborts the run as before. `Some(policy)` contains and retries chunk
    /// failures, reassigns crashed sites' chunks, and degrades the output with exact
    /// coverage accounting when chunks are lost past the budget instead of panicking.
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

    /// The engine configuration the coordinator plans under and the sites evaluate
    /// their balls with: this configuration's query-level switches on plain `Match` —
    /// the pattern's own radius, worklist refinement and no connectivity pruning.
    /// [`ssim_core::strong::strong_simulation`] under it yields the same rows, with
    /// relations over the original rather than the minimised pattern.
    pub fn match_config(&self) -> MatchConfig {
        MatchConfig {
            minimize_query: self.minimize_query,
            dual_filter: self.dual_filter,
            ball_substrate: self.ball_substrate,
            repetition: self.repetition,
            repetition_mode: self.repetition_mode,
            ..MatchConfig::basic()
        }
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
    /// Chunks of site center lists whose results reached the coordinator. The per-site
    /// chunk plans depend only on the site center counts, so this is identical at every
    /// worker count; each chunk counts once however many attempts it took (failed
    /// attempts are accounted in [`TrafficStats::recovery`]), and lost chunks do not
    /// count.
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
    /// [`DistributedOutput::lost_centers`]). Zero on every fault-free run.
    pub lost_balls: usize,
    /// Recovery-event counters from the supervision loop; all zero on a fault-free run.
    /// Deterministic given the input and the fault plan (rounds are barriers), unlike
    /// `chunks_stolen`.
    pub recovery: RecoveryStats,
    /// Number of balls evaluated by each site. Reassigned chunks stay charged to the
    /// site owning their centers, so a recoverable run's attribution matches the
    /// fault-free run.
    pub balls_per_site: Vec<usize>,
}

/// Result of a distributed strong-simulation run.
#[derive(Debug, Clone)]
pub struct DistributedOutput {
    /// The union of the sites' partial results, ordered by ball center. Relations are
    /// over the minimised pattern's classes when the query was minimised.
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

/// Runs strong simulation of `pattern` over `data` distributed across
/// `config.sites` simulated sites.
pub fn distributed_strong_simulation(
    pattern: &Pattern,
    data: &Graph,
    config: &DistributedConfig,
) -> Result<DistributedOutput, DistError> {
    distributed_with_state(pattern, DataRef::Flat(data), config, None, None, None)
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
    distributed_with_state(
        pattern,
        DataRef::Flat(data),
        config,
        None,
        None,
        Some(faults),
    )
}

/// The entry point of the partitioned executor, mirroring
/// [`ssim_core::strong::MatchPlan::for_state`]: a coordinator-maintained query state
/// (its minimised pattern, global fixpoint and `Gm` extraction), a dirty-center filter
/// in data-graph ids — only dirty centers are routed to their owning sites, which is
/// how a delta's work is distributed — and an optional fault plan. On the prepared
/// match-graph substrate every site runs inside the cached `Gm`, so
/// [`DataRef::CountOnly`] suffices (partitions are id-based) and the service serves
/// straight from its overlay.
///
/// Fails with [`DistError::FlatGraphRequired`] when a count-only run would traverse raw
/// data adjacency (`dual_filter` off, or a total relation on the full-graph oracle
/// substrate) and with [`DistError::PreparedStateMissingGm`] when a count-only prepared
/// state lacks the extraction the match-graph substrate needs. A non-empty fault plan
/// without a recovery policy is rejected up front, so no entry point can panic on a
/// scripted fault.
pub(crate) fn distributed_with_state(
    pattern: &Pattern,
    data: DataRef<'_>,
    config: &DistributedConfig,
    state: Option<&PatternState>,
    dirty: Option<&BitSet>,
    faults: Option<&FaultPlan>,
) -> Result<DistributedOutput, DistError> {
    if faults.is_some_and(|plan| !plan.is_empty()) && config.recovery.is_none() {
        return Err(DistError::FaultPlanNeedsRecovery);
    }
    distributed_core(pattern, data, config, state, dirty, faults)
}

/// [`distributed_with_state`] without the fault-plan gate. The propagation
/// regression test drives scripted faults without a recovery policy through it.
fn distributed_core(
    pattern: &Pattern,
    data: DataRef<'_>,
    config: &DistributedConfig,
    state: Option<&PatternState>,
    dirty: Option<&BitSet>,
    faults: Option<&FaultPlan>,
) -> Result<DistributedOutput, DistError> {
    let n = data.node_count();
    config.validate(n)?;
    let partition = GraphPartition::from_node_count(n, config.sites, config.strategy);

    // Coordinator step 1: the engine's preamble, then "broadcast" the plan. Its centers
    // go to the site owning them (the owner of the *original* node — `Gm` ids
    // translate back for the ownership lookup), in ascending id order.
    let match_config = config.match_config();
    let plan = match state {
        Some(state) => MatchPlan::for_state(pattern, data, &match_config, state, dirty)?,
        None => MatchPlan::new(pattern, data, &match_config, None, dirty)?,
    };
    let mut site_centers: Vec<Vec<NodeId>> = vec![Vec::new(); config.sites];
    for &center in plan.centers() {
        site_centers[partition.site_of(plan.outer_of(center))].push(center);
    }

    // Coordinator step 2: the sites' balls are evaluated in chunks through the
    // supervised fan-out.
    let mut chunks: Vec<SiteChunk> = Vec::new();
    for (site, centers) in site_centers.iter().enumerate() {
        for (index, range) in chunk_plan(centers.len()).into_iter().enumerate() {
            chunks.push(SiteChunk {
                site,
                index,
                range,
                assigned: site,
                failures: 0,
            });
        }
    }
    let no_faults = FaultPlan::none();
    let fanout = Fanout {
        plan: &plan,
        partition: &partition,
        site_centers: &site_centers,
        policy: config.recovery.as_ref(),
        faults: faults.unwrap_or(&no_faults),
    };
    let (reports, recovery, lost_centers) = fanout.run(chunks);
    if config
        .recovery
        .is_some_and(|policy| !policy.allow_degraded && !lost_centers.is_empty())
    {
        return Err(DistError::CoverageLost {
            lost_balls: lost_centers.len(),
            covered_balls: n - lost_centers.len(),
        });
    }

    // Assemble the union, deterministically ordered by ball center.
    let dirty_balls = dirty.map_or(n, BitSet::len);
    let mut traffic = TrafficStats {
        considered_balls: n,
        skipped_balls: plan.stats().balls_skipped,
        dirty_balls,
        clean_balls: n - dirty_balls,
        covered_balls: n - lost_centers.len(),
        lost_balls: lost_centers.len(),
        recovery,
        balls_per_site: vec![0; config.sites],
        ..Default::default()
    };
    let mut subgraphs = Vec::new();
    for report in reports {
        traffic.border_balls += report.border_balls;
        traffic.shipped_balls += report.shipped_balls;
        traffic.shipped_nodes += report.shipped_nodes;
        traffic.shipped_edges += report.shipped_edges;
        traffic.chunks_processed += report.chunks_processed;
        traffic.chunks_stolen += report.chunks_stolen;
        for (site, balls) in report.balls_per_site.iter().enumerate() {
            traffic.balls_per_site[site] += balls;
            traffic.built_balls += balls;
        }
        subgraphs.extend(report.subgraphs);
    }
    traffic.result_subgraphs = subgraphs.len();
    subgraphs.sort_by_key(|s| s.center);
    Ok(DistributedOutput {
        subgraphs,
        traffic,
        partition,
        lost_centers,
    })
}

/// One unit of schedulable site work: a contiguous slice of `site`'s center list.
/// `index` is the chunk's ordinal within the site's plan — together `(site, index)` is
/// the chunk's stable identity, the coordinate fault plans key on. Chunk boundaries
/// depend only on the site center counts, never on the worker count or steal timing.
struct SiteChunk {
    site: usize,
    index: usize,
    range: std::ops::Range<usize>,
    /// Site currently responsible for executing it (≠ `site` after a reassignment).
    assigned: usize,
    /// Failed attempts so far; past the policy's `chunk_retries` the chunk is lost.
    failures: usize,
}

/// How one chunk attempt failed.
#[derive(Clone, Copy)]
enum Failure {
    /// The worker panicked (scripted or genuine) and the supervisor contained it.
    Panicked,
    /// Evaluation completed but the result message was lost in transit.
    Dropped,
    /// The scripted delay reached the policy timeout.
    TimedOut,
}

/// Partial result of one fan-out worker over a round, possibly spanning chunks of
/// several sites (its own plus stolen ones); per-site attribution survives in
/// `balls_per_site`, and every ball counted there was built once. The same shape
/// buffers a single chunk attempt until the attempt is known to have succeeded.
struct WorkerReport {
    subgraphs: Vec<PerfectSubgraph>,
    border_balls: usize,
    shipped_balls: usize,
    shipped_nodes: usize,
    shipped_edges: usize,
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
            chunks_processed: 0,
            chunks_stolen: 0,
            balls_per_site: vec![0; sites],
        }
    }

    /// Moves a successful attempt's buffer into this report, leaving the buffer empty
    /// with its allocations kept for the next attempt.
    fn absorb(&mut self, attempt: &mut WorkerReport) {
        self.subgraphs.append(&mut attempt.subgraphs);
        self.border_balls += std::mem::take(&mut attempt.border_balls);
        self.shipped_balls += std::mem::take(&mut attempt.shipped_balls);
        self.shipped_nodes += std::mem::take(&mut attempt.shipped_nodes);
        self.shipped_edges += std::mem::take(&mut attempt.shipped_edges);
        for (total, balls) in self
            .balls_per_site
            .iter_mut()
            .zip(&mut attempt.balls_per_site)
        {
            *total += std::mem::take(balls);
        }
        self.chunks_processed += 1;
    }

    /// Discards a failed attempt's partial buffer.
    fn discard(&mut self) {
        self.subgraphs.clear();
        self.border_balls = 0;
        self.shipped_balls = 0;
        self.shipped_nodes = 0;
        self.shipped_edges = 0;
        self.balls_per_site.fill(0);
    }
}

/// Everything the fan-out reads from the coordinator.
struct Fanout<'a> {
    plan: &'a MatchPlan<'a>,
    partition: &'a GraphPartition,
    site_centers: &'a [Vec<NodeId>],
    /// `None` runs one round without retries; the first panic re-raises.
    policy: Option<&'a RecoveryPolicy>,
    faults: &'a FaultPlan,
}

impl Fanout<'_> {
    /// The supervised fan-out: rounds are barriers, every attempt is individually
    /// contained, and failure handling happens at the coordinator in chunk-id order —
    /// which makes every recovery counter a deterministic function of the input and the
    /// fault plan (only `chunks_stolen` remains schedule-dependent). Returns one report
    /// per worker and round, the recovery trace and the lost centers (outer ids,
    /// ascending).
    fn run(&self, mut pending: Vec<SiteChunk>) -> (Vec<WorkerReport>, RecoveryStats, Vec<NodeId>) {
        let sites = self.partition.sites();
        let retries = self.policy.map_or(0, |p| p.chunk_retries);
        let backoff = self.policy.map_or(0, |p| p.backoff_ticks);
        let mut stats = RecoveryStats::default();
        let mut dead = vec![false; sites];
        let mut done: Vec<WorkerReport> = Vec::new();
        let mut lost: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        let mut round = 0usize;
        while !pending.is_empty() {
            // Crashes scheduled at or before this round take effect at its start: the
            // dead site's unfinished chunks move to survivors (round-robin, in chunk
            // order) before anything executes, so a crash never consumes a chunk's
            // retries. Results shipped in earlier rounds already live at the coordinator.
            for (site, when) in self.faults.crashes() {
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
            // `pending` stays in chunk-id order, so only reassigned chunks need a sort.
            let mut order: Vec<usize> = (0..pending.len()).collect();
            if pending.iter().any(|c| c.assigned != c.site) {
                order.sort_by_key(|&slot| pending[slot].assigned);
            }
            let workers = effective_workers(survivors.len(), order.len());
            let scheduler = StealScheduler::new(workers, order);
            let outcomes = par_workers(workers, |t| self.worker(t, round, &pending, &scheduler));

            let mut failed: Vec<(usize, Failure)> = Vec::new();
            for (report, failures, delay_ticks) in outcomes {
                done.push(report);
                failed.extend(failures);
                stats.delay_ticks += delay_ticks;
            }
            if failed.is_empty() {
                break;
            }
            // Coordinator processing, deterministically in chunk-id order regardless of
            // which worker ran what.
            failed.sort_unstable_by_key(|&(slot, _)| slot);
            let mut retry = vec![false; pending.len()];
            for (slot, failure) in failed {
                match failure {
                    Failure::Panicked => stats.panics_contained += 1,
                    Failure::Dropped => stats.results_dropped += 1,
                    Failure::TimedOut => stats.chunk_timeouts += 1,
                }
                let chunk = &mut pending[slot];
                chunk.failures += 1;
                if chunk.failures > retries {
                    stats.chunks_lost += 1;
                    lost.push((chunk.site, chunk.range.clone()));
                } else {
                    retry[slot] = true;
                    stats.chunk_retries += 1;
                    stats.backoff_ticks += backoff << (chunk.failures - 1).min(32) as u32;
                }
            }
            let mut keep = retry.into_iter();
            pending.retain(|_| keep.next().expect("one flag per chunk"));
            if pending.is_empty() {
                break;
            }
            round += 1;
            stats.retry_rounds += 1;
        }

        // Lost chunks' centers, translated to the caller's id space and sorted.
        let mut lost_centers: Vec<NodeId> = lost
            .into_iter()
            .flat_map(|(site, range)| self.site_centers[site][range].iter().copied())
            .map(|v| self.plan.outer_of(v))
            .collect();
        lost_centers.sort_unstable();
        (done, stats, lost_centers)
    }

    /// One worker's share of a round: its report over the successful attempts, the
    /// failed attempts (by `pending` slot) and the benign delay ticks it absorbed.
    fn worker(
        &self,
        t: usize,
        round: usize,
        pending: &[SiteChunk],
        scheduler: &StealScheduler<usize>,
    ) -> (WorkerReport, Vec<(usize, Failure)>, u64) {
        let sites = self.partition.sites();
        let mut report = WorkerReport::new(sites);
        let mut attempt = WorkerReport::new(sites);
        let mut failures = Vec::new();
        let mut delay_ticks = 0;
        let mut scratch = BallScratch::new();
        while let Some((slot, stolen)) = scheduler.next(t) {
            let chunk = &pending[slot];
            let scripted = self.faults.action_at(chunk.site, chunk.index, round);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if scripted == Some(FaultAction::Panic) {
                    panic!("injected fault: scripted worker panic");
                }
                self.evaluate_chunk(chunk, &mut scratch, &mut attempt);
            }));
            let failure = match (caught, scripted) {
                (Err(payload), _) => {
                    if self.policy.is_none() {
                        panic!(
                            "worker {t} panicked in site {} chunk {}..{}: {}",
                            chunk.site,
                            chunk.range.start,
                            chunk.range.end,
                            panic_message(&*payload)
                        );
                    }
                    // A mid-chunk unwind may leave the ball scratch with stale entries;
                    // replace it so later attempts on this worker start from known-good
                    // state.
                    scratch = BallScratch::new();
                    Some(Failure::Panicked)
                }
                (Ok(()), Some(FaultAction::DropResult)) => Some(Failure::Dropped),
                (Ok(()), Some(FaultAction::Delay(ticks))) => {
                    if self.policy.is_some_and(|p| ticks >= p.chunk_timeout_ticks) {
                        Some(Failure::TimedOut)
                    } else {
                        delay_ticks += ticks;
                        None
                    }
                }
                (Ok(()), _) => None,
            };
            match failure {
                None => {
                    report.absorb(&mut attempt);
                    report.chunks_stolen += usize::from(stolen);
                }
                Some(failure) => {
                    attempt.discard();
                    failures.push((slot, failure));
                }
            }
        }
        (report, failures, delay_ticks)
    }

    /// Evaluates one chunk of its owning site's balls into `out`, each ball built by its
    /// own bounded BFS in the plan's graph — `Gm` on the match-graph substrate, where
    /// ownership and traffic lookups translate back to data-graph ids. A center is
    /// owned by exactly one site and appears in exactly one chunk, so each ball is
    /// evaluated — and counted as built — exactly once across the whole run.
    fn evaluate_chunk(&self, chunk: &SiteChunk, scratch: &mut BallScratch, out: &mut WorkerReport) {
        let plan = self.plan;
        let graph = plan.graph();
        let site = chunk.site;
        for &center in &self.site_centers[site][chunk.range.clone()] {
            out.balls_per_site[site] += 1;
            // Border centers: a substrate neighbour stored on a different site. On the
            // match-graph substrate this is `Gm` adjacency — only edges a ball could ship.
            if self
                .partition
                .is_border_node_translated(graph, center, |v| plan.outer_of(v))
            {
                out.border_balls += 1;
            }
            let ball = CompactBall::build(graph, center, plan.radius(), scratch);
            // Traffic accounting: every ball member stored on a different site would have
            // to be shipped to this site, together with its incident ball edges. On the
            // match-graph substrate the members and edges *are* `Gm`'s — exactly the data
            // a site would fetch — so the counts are taken over the substrate adjacency.
            let mut foreign = 0usize;
            for &v in ball.to_global() {
                if self.partition.site_of(plan.outer_of(v)) != site {
                    foreign += 1;
                    out.shipped_edges += graph
                        .out_neighbors(v)
                        .chain(graph.in_neighbors(v))
                        .filter(|w| ball.local_of(*w).is_some())
                        .count();
                }
            }
            if foreign > 0 {
                out.shipped_balls += 1;
                out.shipped_nodes += foreign;
            }
            if let Some(subgraph) = plan.evaluate(&ball).0 {
                out.subgraphs.push(subgraph);
            }
            ball.recycle(scratch);
        }
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
        let overlay = ssim_graph::OverlayGraph::new(data.clone());
        let state = |config: &DistributedConfig| {
            let shape = config.match_config();
            PatternState::new(
                &pattern,
                &overlay,
                shape.minimize_query,
                shape.radius_override,
                shape.dual_filter,
                shape.ball_substrate,
                shape.refine_strategy,
            )
        };
        // Without the dual filter the counted path must traverse the flat graph.
        let flat_needed = DistributedConfig {
            dual_filter: false,
            ..DistributedConfig::default()
        };
        let err = distributed_with_state(
            &pattern,
            DataRef::CountOnly(data.node_count()),
            &flat_needed,
            Some(&state(&flat_needed)),
            None,
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
        let mut without_gm = state(&gm_needed);
        assert!(without_gm.gm_cache.take().is_some());
        let err = distributed_with_state(
            &pattern,
            DataRef::CountOnly(data.node_count()),
            &gm_needed,
            Some(&without_gm),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(err, DistError::PreparedStateMissingGm);
    }

    #[test]
    fn scripted_panic_propagates_without_recovery() {
        // The pre-recovery abort behaviour, pinned: without a recovery policy a worker
        // panic re-raises with site/chunk coordinates. Driven through the private core — the
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
            distributed_core(
                &pattern,
                DataRef::Flat(&data),
                &config,
                None,
                None,
                Some(&plan),
            )
        }));
        let payload = caught.expect_err("the scripted panic must abort the run");
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
