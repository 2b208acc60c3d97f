//! Strong simulation `Q ≺LD G`: the `Match` and `Match+` algorithms (Section 4, Fig. 3).
//!
//! `Match` inspects, for every data node `w`, the ball `Ĝ[w, dQ]` of radius `dQ` (the
//! pattern diameter), computes the maximum dual-simulation relation inside the ball
//! (procedure `DualSim`), and extracts the connected component of the resulting match graph
//! that contains `w` (procedure `ExtractMaxPG`). The set of all such *maximum perfect
//! subgraphs* is the answer; by Proposition 4 it contains at most `|V|` elements.
//!
//! `Match+` layers the three optimisations of Section 4.2 on top: query minimization
//! ([`crate::minimize`]), dual-simulation filtering ([`crate::dual_filter`]) and connectivity
//! pruning ([`crate::pruning`]). All of them preserve the result exactly; the configuration
//! is expressed with [`MatchConfig`] so the ablation benches can toggle them independently.
//!
//! # Engine
//!
//! Independent of the paper-level optimisations, every ball is remapped to dense ids
//! `0..|ball|` ([`CompactBall`]) so relations, counters and adjacency are ball-sized
//! instead of `|V|`-sized, and the engine has three performance layers, each with a
//! fallback kept as an equivalence oracle:
//!
//! * **worklist refinement** ([`RefineStrategy::Worklist`]) — counter-based incremental
//!   removal propagation instead of the naive `while changed` re-scan,
//! * **parallel ball processing** (`parallel`) — the centers, in ascending id order, are
//!   cut into contiguous chunks ([`crate::parallel::chunk_plan`], a function of the
//!   center count alone) and fanned out over scoped worker threads through a
//!   work-stealing scheduler ([`crate::parallel::StealScheduler`]). Every ball is built
//!   by its own bounded BFS and refined from scratch, so a ball's rows depend on its
//!   center alone; subgraphs are re-sorted by center id and stats merged by summation,
//!   so the output — including every counter except the scheduling-dependent
//!   `chunks_stolen` — is bit-identical to the sequential run at any thread count,
//! * **match-graph ball substrate** ([`BallSubstrate::MatchGraph`]) — with `dual_filter`
//!   on, the matched-node set is extracted once as a dense renumbered subgraph `Gm`
//!   ([`ssim_graph::ExtractedSubgraph`]) and the entire ball pipeline — ball
//!   construction, refinement, extraction — runs inside it, translating ids back only at
//!   [`PerfectSubgraph`] emission ([`BallSubstrate::FullGraph`] is the oracle).
//!   Connectivity pruning is the identity on `Gm` balls and is skipped; their refinement
//!   and extraction read the query's candidate adjacency ([`crate::gm::GmSubstrate`])
//!   instead of the raw `Gm` CSR.
//!
//! A run is split in two halves that the distributed runtime shares: the per-query
//! [`MatchPlan`] (minimisation, global fixpoint, `Gm`, center filters) and its per-ball
//! evaluator [`MatchPlan::evaluate`].

use crate::ball::BallSubstrate;
use crate::dual::{dual_simulation_with, refine_dual_with};
use crate::dual_filter::refine_projected;
use crate::gm::{match_gm_ball, GmSubstrate};
use crate::incremental::{PatternState, PreparedGlobal};
use crate::match_graph::{extract_max_perfect_subgraph, PerfectSubgraph};
use crate::minimize::minimize_pattern;
use crate::parallel::{
    available_threads, chunk_plan, effective_workers, panic_message, par_workers, StealScheduler,
};
use crate::pruning::prune_by_connectivity;
use crate::relation::MatchRelation;
use crate::repetition::{
    enforce_repetition, RepetitionMode, RepetitionOutcome, RepetitionSemantics,
};
use crate::simulation::{initial_candidates, RefineStrategy};
use ssim_graph::{BallScratch, BitSet, CompactBall, ExtractedSubgraph, Graph, NodeId, Pattern};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration of the strong-simulation matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Minimise the pattern with `minQ` before matching (Theorem 6).
    pub minimize_query: bool,
    /// Compute the global dual-simulation relation once and filter it per ball
    /// (`dualFilter`, Fig. 5) instead of running `DualSim` from scratch in every ball.
    pub dual_filter: bool,
    /// Prune ball candidates that are not connected to the ball center through other
    /// candidates (Example 6) before refinement.
    pub connectivity_pruning: bool,
    /// Override the ball radius; `None` uses the pattern diameter `dQ` as in the paper.
    pub radius_override: Option<usize>,
    /// Drop structurally identical perfect subgraphs discovered from different centers.
    pub deduplicate: bool,
    /// Which refinement engine to run inside each ball (and for the global dual filter).
    pub refine_strategy: RefineStrategy,
    /// Process balls on all available cores. The output is deterministic either way.
    pub parallel: bool,
    /// Explicit worker count for the ball fan-out (benchmarks, scaling tests). `None`
    /// sizes the pool automatically and runs small inputs inline.
    pub thread_limit: Option<usize>,
    /// Which graph the ball pipeline traverses when `dual_filter` is on: the extracted
    /// match graph `Gm` (the default — Fig. 5's ball substrate) or the full data graph
    /// (the pre-extraction behaviour, kept as the equivalence oracle). Ignored without
    /// `dual_filter` — there is no `Gm` to extract.
    pub ball_substrate: BallSubstrate,
    /// How equal-labelled pattern nodes may be realised by data nodes — the third oracle
    /// axis. [`RepetitionSemantics::Free`] is the paper's behaviour (and the seed
    /// reference); `Distinct`/`Equal` run the per-ball repetition closure of
    /// [`crate::repetition`] after refinement converges (subject to its budget/bail
    /// contract).
    pub repetition: RepetitionSemantics,
    /// Which implementation enforces a non-`Free` repetition semantics: the integrated
    /// marked witness search (the default) or the naive per-pair oracle (the
    /// equivalence oracle). Ignored under [`RepetitionSemantics::Free`].
    pub repetition_mode: RepetitionMode,
}

impl Default for MatchConfig {
    /// The plain `Match` algorithm of Fig. 3 — no paper optimisations, no deduplication —
    /// running on the fast engine (worklist + compact balls + parallel).
    fn default() -> Self {
        MatchConfig {
            minimize_query: false,
            dual_filter: false,
            connectivity_pruning: false,
            radius_override: None,
            deduplicate: false,
            refine_strategy: RefineStrategy::Worklist,
            parallel: true,
            thread_limit: None,
            ball_substrate: BallSubstrate::MatchGraph,
            repetition: RepetitionSemantics::Free,
            repetition_mode: RepetitionMode::Integrated,
        }
    }
}

impl MatchConfig {
    /// The plain `Match` algorithm (Fig. 3).
    pub fn basic() -> Self {
        Self::default()
    }

    /// `Match+`: all optimisations of Section 4.2 enabled.
    pub fn optimized() -> Self {
        MatchConfig {
            minimize_query: true,
            dual_filter: true,
            connectivity_pruning: true,
            ..Self::default()
        }
    }

    /// The seed's engine shape: naive fixpoint refinement, sequential, full-graph balls.
    /// Used by benches as the speedup baseline and by tests as an oracle.
    pub fn seed_reference() -> Self {
        MatchConfig {
            refine_strategy: RefineStrategy::NaiveFixpoint,
            parallel: false,
            ball_substrate: BallSubstrate::FullGraph,
            ..Self::default()
        }
    }

    /// Sets an explicit ball radius instead of the pattern diameter.
    pub fn with_radius(mut self, radius: usize) -> Self {
        self.radius_override = Some(radius);
        self
    }

    /// Enables structural deduplication of the returned perfect subgraphs.
    pub fn with_deduplication(mut self) -> Self {
        self.deduplicate = true;
        self
    }

    /// Forces sequential ball processing.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Forces an explicit worker count for the ball fan-out (bypasses the small-input
    /// cutoff; used by scaling benches and the parallel-merge tests).
    pub fn with_thread_limit(mut self, threads: usize) -> Self {
        self.parallel = true;
        self.thread_limit = Some(threads);
        self
    }

    /// Selects the refinement engine.
    pub fn with_refine_strategy(mut self, strategy: RefineStrategy) -> Self {
        self.refine_strategy = strategy;
        self
    }

    /// Selects which graph the ball pipeline traverses under `dual_filter`.
    pub fn with_ball_substrate(mut self, substrate: BallSubstrate) -> Self {
        self.ball_substrate = substrate;
        self
    }

    /// Selects how equal-labelled pattern nodes may be realised by data nodes.
    pub fn with_repetition(mut self, semantics: RepetitionSemantics) -> Self {
        self.repetition = semantics;
        self
    }

    /// Selects which implementation enforces a non-`Free` repetition semantics.
    pub fn with_repetition_mode(mut self, mode: RepetitionMode) -> Self {
        self.repetition_mode = mode;
        self
    }
}

/// Counters describing the work performed by a strong-simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of candidate ball centers considered (= `|V|` without dual filtering).
    pub balls_considered: usize,
    /// Balls actually refined (centers surviving the global dual-simulation filter).
    pub balls_processed: usize,
    /// Balls skipped because their center cannot match any pattern node.
    pub balls_skipped: usize,
    /// Balls whose projected relation required at least one removal (dual filter only).
    pub balls_with_invalid_matches: usize,
    /// Total `(u, v)` pairs removed by the per-ball dual filter.
    pub filter_removed_pairs: usize,
    /// Balls constructed by a bounded BFS: every ball is built fresh, so this equals
    /// `balls_processed`.
    pub balls_built: usize,
    /// Always 0: every ball is built fresh. Kept only until the benchmark's trace stops
    /// reading it (`ball.reused_frac`).
    pub balls_reused: usize,
    /// Always 0: every ball is refined from scratch. Kept only until the benchmark's
    /// trace stops reading it (`warm.started_frac`).
    pub balls_warm_started: usize,
    /// Pairs in the start relations fed to per-ball refinement, summed over balls.
    pub seeded_pairs: usize,
    /// Nodes of the extracted match graph `Gm` ([`BallSubstrate::MatchGraph`] with
    /// `dual_filter` only; 0 when no extraction ran). `gm_nodes / balls_considered` is
    /// the extraction selectivity the experiment reports print.
    pub gm_nodes: usize,
    /// Edges of the extracted match graph `Gm` (same validity rule as `gm_nodes`).
    pub gm_edges: usize,
    /// Chunks of the center order executed by the fan-out: the
    /// [`crate::parallel::chunk_plan`] chunks. The plan is a function of the center
    /// count alone, so this is identical at every thread count (including the
    /// sequential run).
    pub chunks_processed: usize,
    /// Chunks executed by a worker other than the one they were dealt to. **The one
    /// scheduling-dependent counter**: it varies with thread count and steal timing, so
    /// the equivalence suites exclude it from their bit-identity comparisons.
    pub chunks_stolen: usize,
    /// Always 0: chunks are never split mid-run. Kept only until the benchmark's trace
    /// stops reading it (`parallel.splits`).
    pub chunks_split: usize,
    /// Pairs removed by the per-ball repetition closure, witness filter plus cascade
    /// ([`RepetitionSemantics::Distinct`]/[`RepetitionSemantics::Equal`] only). Identical
    /// between the integrated path and the naive oracle at any fixed configuration (the
    /// modes remove the same pair set per closure iteration); like `seeded_pairs` it may
    /// differ across engine shapes, which skip the closure on balls they never evaluate.
    pub repetition_filtered_pairs: usize,
    /// Balls whose repetition enforcement was skipped because the witness-search budget
    /// precondition failed (see [`crate::repetition::REPETITION_BUDGET`]): those balls
    /// behave as under [`RepetitionSemantics::Free`]. The bail decision reads only
    /// candidate-set sizes of the converged relation, so it is mode-independent.
    pub repetition_bailed_balls: usize,
    /// Perfect subgraphs found (before deduplication).
    pub perfect_subgraphs: usize,
    /// `(original, minimised)` pattern sizes when query minimization ran.
    pub pattern_sizes: Option<(usize, usize)>,
    /// Ball radius that was used.
    pub radius: usize,
}

/// The result of a strong-simulation run: the set `Θ` of maximum perfect subgraphs plus the
/// work statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutput {
    /// Maximum perfect subgraphs, in ascending order of their ball centers.
    pub subgraphs: Vec<PerfectSubgraph>,
    /// Work counters.
    pub stats: MatchStats,
}

impl MatchOutput {
    /// Returns `true` when at least one perfect subgraph was found, i.e. `Q ≺LD G`.
    pub fn is_match(&self) -> bool {
        !self.subgraphs.is_empty()
    }

    /// The union of data nodes across all perfect subgraphs.
    pub fn matched_nodes(&self) -> BTreeSet<NodeId> {
        self.subgraphs
            .iter()
            .flat_map(|s| s.nodes.iter().copied())
            .collect()
    }

    /// Data nodes matched to a specific pattern node, across all perfect subgraphs.
    pub fn matches_of(&self, pattern_node: NodeId) -> BTreeSet<NodeId> {
        self.subgraphs
            .iter()
            .flat_map(|s| s.matches_of(pattern_node))
            .collect()
    }

    /// Total number of matched data nodes (with multiplicity across subgraphs collapsed).
    pub fn matched_node_count(&self) -> usize {
        self.matched_nodes().len()
    }

    /// Structurally distinct perfect subgraphs (different centers may discover the same
    /// node/edge set).
    pub fn distinct_subgraphs(&self) -> Vec<&PerfectSubgraph> {
        distinct_indices(&self.subgraphs)
            .into_iter()
            .map(|i| &self.subgraphs[i])
            .collect()
    }
}

/// Hashes a subgraph's structural identity (node and edge sets) without cloning them.
fn structural_hash(s: &PerfectSubgraph) -> u64 {
    let mut h = DefaultHasher::new();
    s.nodes.len().hash(&mut h);
    for n in &s.nodes {
        n.0.hash(&mut h);
    }
    for (a, b) in &s.edges {
        a.0.hash(&mut h);
        b.0.hash(&mut h);
    }
    h.finish()
}

/// Indices of the structurally distinct subgraphs, keeping the first occurrence of each
/// structure. Deduplication is hash-based with an equality check on collision, so it does
/// not clone the node/edge vectors into set keys the way the seed did.
pub(crate) fn distinct_indices(subgraphs: &[PerfectSubgraph]) -> Vec<usize> {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::with_capacity(subgraphs.len());
    let mut keep = Vec::with_capacity(subgraphs.len());
    for (i, s) in subgraphs.iter().enumerate() {
        let bucket = buckets.entry(structural_hash(s)).or_default();
        let duplicate = bucket
            .iter()
            .any(|&j| subgraphs[j].nodes == s.nodes && subgraphs[j].edges == s.edges);
        if !duplicate {
            bucket.push(i);
            keep.push(i);
        }
    }
    keep
}

/// The data argument of a [`MatchPlan`]: the flat graph itself, or — on maintained
/// (`prepared`) paths whose entire ball pipeline runs inside the cached `Gm` extraction —
/// just its node count. The count-only shape is what lets the incremental sessions keep
/// their serving state as an [`ssim_graph::OverlayGraph`] without materialising a flat
/// CSR per update: stats accounting needs `|V|`, not adjacency.
#[derive(Clone, Copy)]
pub enum DataRef<'a> {
    /// The flat data graph.
    Flat(&'a Graph),
    /// Only the data node count.
    CountOnly(usize),
}

impl<'a> DataRef<'a> {
    /// Number of data nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        match self {
            DataRef::Flat(g) => g.node_count(),
            DataRef::CountOnly(n) => *n,
        }
    }

    /// The flat graph, on paths that traverse raw data adjacency.
    fn flat(&self) -> Result<&'a Graph, PlanError> {
        match *self {
            DataRef::Flat(g) => Ok(g),
            DataRef::CountOnly(_) => Err(PlanError::FlatGraphRequired),
        }
    }
}

/// Why a [`MatchPlan`] cannot be built over a [`DataRef::CountOnly`] data argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The configuration traverses raw data adjacency: `dual_filter` off, or a total
    /// relation on the [`BallSubstrate::FullGraph`] oracle substrate.
    FlatGraphRequired,
    /// The match-graph substrate needs `Gm`, the prepared state carries none, and there
    /// is no flat graph to extract it from.
    PreparedStateMissingGm,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanError::FlatGraphRequired => {
                "this matcher configuration traverses the flat data graph; \
                 the counted entry point only serves prepared match-graph-substrate runs"
            }
            PlanError::PreparedStateMissingGm => {
                "the match-graph substrate needs the prepared Gm extraction"
            }
        })
    }
}

impl std::error::Error for PlanError {}

/// What [`MatchPlan::evaluate`] reports for one ball: the perfect subgraph, if any, the
/// pairs the per-ball dual filter removed, the size of the start relation and the
/// repetition-closure outcome.
pub type BallResult = (Option<PerfectSubgraph>, usize, usize, RepetitionOutcome);

/// The per-query preamble of strong simulation, shared by [`strong_simulation`] and the
/// distributed runtime: the effective (optionally minimised) pattern, the ball radius,
/// the global dual-simulation relation, the optional `Gm` substrate and the ball centers
/// that survive the skip and dirty filters.
///
/// [`MatchPlan::evaluate`] is the per-ball half. Every ball is built by
/// [`CompactBall::build`] over [`MatchPlan::graph`] at [`MatchPlan::radius`] around one
/// of [`MatchPlan::centers`], and its rows depend on its center alone, so any split of
/// the centers — across worker threads or across sites — yields the same rows.
pub struct MatchPlan<'a> {
    pattern: Cow<'a, Pattern>,
    /// Original pattern nodes per minimised class; empty without `minimize_query`.
    class_members: Cow<'a, [Vec<NodeId>]>,
    config: MatchConfig,
    data: DataRef<'a>,
    /// The global relation, kept only on the full-graph path (`Gm` carries its own).
    global: Option<Cow<'a, MatchRelation>>,
    gm: Option<Cow<'a, GmSubstrate>>,
    centers: Vec<NodeId>,
    stats: MatchStats,
}

impl<'a> MatchPlan<'a> {
    /// Runs the preamble. `prepared` and `dirty` are the hooks described on
    /// [`match_with_prepared`]. Fails only on a [`DataRef::CountOnly`] argument whose
    /// configuration needs the flat graph after all.
    pub fn new(
        pattern: &'a Pattern,
        data: DataRef<'a>,
        config: &MatchConfig,
        prepared: Option<PreparedGlobal<'a>>,
        dirty: Option<&BitSet>,
    ) -> Result<Self, PlanError> {
        // Optimisation 1: query minimization. The ball radius stays the *original*
        // diameter (Lemma 3); `match_impl` translates rows back to the original pattern.
        let query = if config.minimize_query {
            let minimized = minimize_pattern(pattern);
            let class_members = Cow::Owned(minimized.class_members());
            let radius = config
                .radius_override
                .unwrap_or(minimized.original_diameter);
            (Cow::Owned(minimized.pattern), class_members, radius)
        } else {
            let radius = config.radius_override.unwrap_or(pattern.diameter());
            (Cow::Borrowed(pattern), Cow::Borrowed(&[][..]), radius)
        };
        Self::build(pattern.size(), query, data, config, prepared, dirty)
    }

    /// [`MatchPlan::new`] for a maintained query: the effective pattern, its class map,
    /// the radius and the prepared global state all come from `state`, so the pattern
    /// is minimised once, when the state is built, instead of on every pass.
    pub fn for_state(
        pattern: &Pattern,
        data: DataRef<'a>,
        config: &MatchConfig,
        state: &'a PatternState,
        dirty: Option<&BitSet>,
    ) -> Result<Self, PlanError> {
        let query = (
            Cow::Borrowed(&state.effective),
            Cow::Borrowed(&state.class_members[..]),
            state.radius,
        );
        Self::build(pattern.size(), query, data, config, state.prepared(), dirty)
    }

    /// The preamble after minimisation: `query` is the effective pattern, its class map
    /// and the ball radius, `original_size` the size of the caller's pattern.
    fn build(
        original_size: usize,
        (pattern, class_members, radius): (Cow<'a, Pattern>, Cow<'a, [Vec<NodeId>]>, usize),
        data: DataRef<'a>,
        config: &MatchConfig,
        prepared: Option<PreparedGlobal<'a>>,
        dirty: Option<&BitSet>,
    ) -> Result<Self, PlanError> {
        let n = data.node_count();
        let stats = MatchStats {
            balls_considered: n,
            pattern_sizes: config
                .minimize_query
                .then(|| (original_size, pattern.size())),
            radius,
            ..MatchStats::default()
        };
        let mut plan = MatchPlan {
            pattern,
            class_members,
            config: *config,
            data,
            global: None,
            gm: None,
            centers: Vec::new(),
            stats,
        };

        if config.dual_filter {
            // Optimisation 2 (part 1): the global dual-simulation relation — computed
            // once here, or handed in already maintained by an incremental session.
            let global = match prepared {
                Some(p) => {
                    debug_assert_eq!(
                        p.relation.pattern_node_count(),
                        plan.pattern.node_count(),
                        "prepared relation must be over the effective (minimised) pattern"
                    );
                    p.relation.is_total().then_some(Cow::Borrowed(p.relation))
                }
                None => dual_simulation_with(&plan.pattern, data.flat()?, config.refine_strategy)
                    .map(Cow::Owned),
            };
            let Some(global) = global else {
                // The whole graph does not even dual-simulate the pattern: no ball can.
                plan.stats.balls_skipped = n;
                return Ok(plan);
            };
            // Ball substrate: only matched nodes can ever be candidates, support an
            // in-ball pair or appear in an extracted subgraph, so the default substrate
            // materialises the match graph `Gm` once and runs the entire ball pipeline
            // inside it (Fig. 5). Its nodes are exactly the centers the filter keeps.
            if config.ball_substrate == BallSubstrate::MatchGraph {
                let gm = match prepared.and_then(|p| p.gm) {
                    Some(gm) => Cow::Borrowed(gm),
                    None => {
                        let flat = data.flat().map_err(|_| PlanError::PreparedStateMissingGm)?;
                        let (sub, inner) =
                            global.extract_matched_subgraph(flat, &mut BitSet::new(0));
                        Cow::Owned(GmSubstrate::new(&plan.pattern, sub, inner))
                    }
                };
                plan.stats.gm_nodes = gm.subgraph().node_count();
                plan.stats.gm_edges = gm.subgraph().edge_count();
                plan.centers = gm.graph().nodes().collect();
                plan.gm = Some(gm);
            } else {
                let mut matched = BitSet::new(0);
                global.matched_data_nodes_into(&mut matched);
                plan.centers = data
                    .flat()?
                    .nodes()
                    .filter(|c| matched.contains(c.index()))
                    .collect();
                plan.global = Some(global);
            }
        } else {
            plan.centers = data.flat()?.nodes().collect();
        }
        // Balls whose center cannot match any pattern node are skipped outright.
        plan.stats.balls_skipped = n - plan.centers.len();
        // Incremental updates restrict the run to the centers a delta marked dirty;
        // every ball's rows depend on its center alone, so the surviving rows are
        // bit-identical to the same centers' rows in an unrestricted pass.
        if let Some(dirty) = dirty {
            let gm = plan.gm.as_deref();
            plan.centers.retain(|&c| {
                let outer = gm.map_or(c, |gm| gm.subgraph().outer_of(c));
                dirty.contains(outer.index())
            });
        }
        plan.stats.balls_processed = plan.centers.len();
        Ok(plan)
    }

    /// The effective pattern: minimised when the configuration minimises queries.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Ball radius: the original pattern's diameter unless overridden (Lemma 3).
    pub fn radius(&self) -> usize {
        self.stats.radius
    }

    /// Ball centers in [`MatchPlan::graph`] ids, ascending.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// The preamble's counters (pattern sizes, radius, considered/skipped/processed
    /// balls, `Gm` size); the per-ball counters are zero.
    pub fn stats(&self) -> &MatchStats {
        &self.stats
    }

    /// The graph balls are built in: `Gm` on the match-graph substrate, the data graph
    /// otherwise.
    ///
    /// # Panics
    /// Panics on a count-only plan outside `Gm`, which has no centers.
    pub fn graph(&self) -> &Graph {
        match (&self.gm, self.data) {
            (Some(gm), _) => gm.graph(),
            (None, DataRef::Flat(g)) => g,
            (None, DataRef::CountOnly(_)) => panic!("a count-only plan outside Gm has no balls"),
        }
    }

    /// Translates a [`MatchPlan::graph`] id to the caller's data-graph id.
    #[inline]
    pub fn outer_of(&self, v: NodeId) -> NodeId {
        self.gm.as_ref().map_or(v, |gm| gm.subgraph().outer_of(v))
    }

    /// The ball evaluator: matches one ball built by [`CompactBall::build`] over
    /// [`MatchPlan::graph`] at [`MatchPlan::radius`]. The perfect subgraph, if any, is
    /// in the caller's data-graph ids with its relation over [`MatchPlan::pattern`].
    /// Balls built inside `Gm` refine and extract over its candidate adjacency
    /// ([`match_gm_ball`]).
    pub fn evaluate(&self, ball: &CompactBall) -> BallResult {
        let config = &self.config;
        match &self.gm {
            Some(gm) => {
                let (subgraph, removed, seeded, repetition) = match_gm_ball(
                    &self.pattern,
                    ball,
                    gm,
                    config.repetition,
                    config.repetition_mode,
                );
                // Cross the id-translation boundary: everything above spoke `Gm` ids.
                let subgraph = subgraph.map(|s| translate_to_outer(s, gm.subgraph()));
                (subgraph, removed, seeded, repetition)
            }
            None => match_data_ball(
                &self.pattern,
                self.graph(),
                ball,
                self.global.as_deref(),
                config,
            ),
        }
    }
}

/// Per-worker partial result of the ball-processing fan-out.
#[derive(Default)]
struct WorkerResult {
    subgraphs: Vec<PerfectSubgraph>,
    balls_with_invalid_matches: usize,
    filter_removed_pairs: usize,
    balls_built: usize,
    seeded_pairs: usize,
    repetition_filtered_pairs: usize,
    repetition_bailed_balls: usize,
    chunks_processed: usize,
    chunks_stolen: usize,
}

impl WorkerResult {
    /// Folds one ball's repetition-closure outcome into the worker's counters.
    fn record_repetition(&mut self, outcome: RepetitionOutcome) {
        self.repetition_filtered_pairs += outcome.removed_pairs;
        self.repetition_bailed_balls += usize::from(outcome.bailed);
    }
}

/// Runs strong simulation of `pattern` over `data` with the given configuration.
///
/// This is Algorithm `Match` (Fig. 3) when `config` is [`MatchConfig::basic`] and `Match+`
/// when it is [`MatchConfig::optimized`]; any other combination toggles individual
/// optimisations for ablation studies.
pub fn strong_simulation(pattern: &Pattern, data: &Graph, config: &MatchConfig) -> MatchOutput {
    match_with_prepared(pattern, data, config, None, None)
}

/// [`strong_simulation`] with the incremental driver's two hooks:
///
/// * `prepared` — a maintained global dual-simulation state ([`PreparedGlobal`]): the
///   exact global fixpoint plus, on the match-graph substrate, the cached `Gm`
///   substrate. When given, the global fixpoint and the substrate are *not* recomputed
///   here — that is the point of maintaining them across updates. A prepared state
///   without its `Gm` gets one extracted from its fixpoint.
/// * `dirty` — a center filter in **data-graph** (outer) ids: only balls whose center is
///   in the set are evaluated. Every per-ball unit of work is independent of which other
///   centers run (the invariant the PR 2–4 differential suites pin), so the rows
///   produced here are bit-identical to the same centers' rows in an unrestricted pass —
///   which is what lets the incremental matcher splice them into a cached result.
///
/// One-shot callers pass `None` for both and get exactly [`strong_simulation`]. The
/// pattern is minimised here on every call; the query service plans a maintained query
/// from its state instead ([`MatchPlan::for_state`]), minimised once.
pub fn match_with_prepared(
    pattern: &Pattern,
    data: &Graph,
    config: &MatchConfig,
    prepared: Option<PreparedGlobal<'_>>,
    dirty: Option<&BitSet>,
) -> MatchOutput {
    match_impl(MatchPlan::new(
        pattern,
        DataRef::Flat(data),
        config,
        prepared,
        dirty,
    ))
}

/// [`match_with_prepared`] without the flat data graph: the prepared state plus the data
/// node count are everything the match-graph-substrate pipeline reads, so a caller whose
/// serving state is an overlay needs no flat CSR — the whole run stays inside the cached
/// `Gm` extraction.
///
/// # Panics
/// Panics when the configuration would traverse raw data adjacency after all: `dual_filter`
/// off, a total relation on the [`BallSubstrate::FullGraph`] oracle substrate (no `Gm`
/// to run in), or a total relation without its prepared `Gm` (which would have to be
/// extracted from the data graph). Callers route those shapes through
/// [`match_with_prepared`] with a materialised graph instead.
pub fn match_with_prepared_counted(
    pattern: &Pattern,
    data_node_count: usize,
    config: &MatchConfig,
    prepared: PreparedGlobal<'_>,
    dirty: Option<&BitSet>,
) -> MatchOutput {
    match_impl(MatchPlan::new(
        pattern,
        DataRef::CountOnly(data_node_count),
        config,
        Some(prepared),
        dirty,
    ))
}

/// Runs a plan's fan-out, class expansion, stats and dedup.
///
/// # Panics
/// Panics when the plan could not be built.
pub(crate) fn match_impl(plan: Result<MatchPlan<'_>, PlanError>) -> MatchOutput {
    let plan = plan.unwrap_or_else(|e| panic!("{e}"));
    let config = &plan.config;
    let mut stats = plan.stats.clone();
    let centers = &plan.centers;

    // Fan the per-ball work out over worker threads. The centers are cut into contiguous
    // chunks whose boundaries depend only on the center count, each worker is dealt a
    // contiguous block of chunks, and idle workers steal whole chunks. Every ball is
    // built and refined from scratch, so its rows depend on its center alone and every
    // stat except `chunks_stolen` is bit-identical at any thread count. Below the cutoff,
    // thread spawn/join costs more than the matching itself, so small inputs run inline
    // even when `parallel` is requested — unless an explicit `thread_limit` asks for
    // real fan-out.
    const PARALLEL_CUTOFF: usize = 128;
    let threads = match (config.parallel, config.thread_limit) {
        (false, _) => 1,
        (true, Some(n)) => n.max(1),
        (true, None) if centers.len() >= PARALLEL_CUTOFF => available_threads(),
        (true, None) => 1,
    };
    let chunks = chunk_plan(centers.len());
    let workers = effective_workers(threads, chunks.len());
    let scheduler = StealScheduler::new(workers, chunks);
    let worker = |t: usize| -> WorkerResult {
        let mut result = WorkerResult::default();
        let mut scratch = BallScratch::new();
        while let Some((chunk, stolen)) = scheduler.next(t) {
            result.chunks_processed += 1;
            result.chunks_stolen += usize::from(stolen);
            let current = Cell::new(None::<NodeId>);
            let bounds = chunk.clone();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for &center in &centers[chunk] {
                    current.set(Some(center));
                    result.balls_built += 1;
                    let ball =
                        CompactBall::build(plan.graph(), center, plan.radius(), &mut scratch);
                    let (subgraph, removed, seeded, repetition) = plan.evaluate(&ball);
                    ball.recycle(&mut scratch);
                    result.seeded_pairs += seeded;
                    result.record_repetition(repetition);
                    if removed > 0 {
                        result.balls_with_invalid_matches += 1;
                        result.filter_removed_pairs += removed;
                    }
                    if let Some(mut subgraph) = subgraph {
                        // Express the relation in terms of the caller's pattern nodes when the
                        // matcher ran on the minimised pattern.
                        if config.minimize_query {
                            let mut expanded = Vec::with_capacity(subgraph.relation.len());
                            for (class_node, data_node) in &subgraph.relation {
                                for &original in &plan.class_members[class_node.index()] {
                                    expanded.push((original, *data_node));
                                }
                            }
                            expanded.sort_unstable();
                            subgraph.relation = expanded;
                        }
                        result.subgraphs.push(subgraph);
                    }
                }
            }));
            if let Err(payload) = caught {
                // Re-raise with the fan-out position so a failure in the parallel
                // suites names the chunk and center that died, not just "a worker".
                panic!(
                    "worker {t} panicked in chunk {}..{} at center {}: {}",
                    bounds.start,
                    bounds.end,
                    current
                        .get()
                        .map_or_else(|| "?".to_string(), |c| c.to_string()),
                    panic_message(&*payload)
                );
            }
        }
        result
    };
    let results = par_workers(workers, worker);

    // Deterministic merge: stats are sums; subgraphs are re-sorted by their ball center
    // (each center yields at most one subgraph, so the order is total).
    let mut subgraphs = Vec::new();
    for r in results {
        stats.balls_with_invalid_matches += r.balls_with_invalid_matches;
        stats.filter_removed_pairs += r.filter_removed_pairs;
        stats.balls_built += r.balls_built;
        stats.seeded_pairs += r.seeded_pairs;
        stats.repetition_filtered_pairs += r.repetition_filtered_pairs;
        stats.repetition_bailed_balls += r.repetition_bailed_balls;
        stats.chunks_processed += r.chunks_processed;
        stats.chunks_stolen += r.chunks_stolen;
        subgraphs.extend(r.subgraphs);
    }
    subgraphs.sort_by_key(|s| s.center);

    if config.deduplicate {
        let keep = distinct_indices(&subgraphs);
        let mut iter = keep.into_iter().peekable();
        let mut index = 0usize;
        subgraphs.retain(|_| {
            let keep_this = iter.peek() == Some(&index);
            if keep_this {
                iter.next();
            }
            index += 1;
            keep_this
        });
    }
    stats.perfect_subgraphs = subgraphs.len();
    MatchOutput { subgraphs, stats }
}

/// Matches one compact ball built in the data graph `data` (the evaluator's path outside
/// `Gm`): the start relation is the projection of `global_relation` when given (the
/// dual filter, refined border-seeded) and fresh label candidates otherwise (refined to
/// the full fixpoint), optionally pruned by connectivity around the center.
fn match_data_ball(
    pattern: &Pattern,
    data: &Graph,
    ball: &CompactBall,
    global_relation: Option<&MatchRelation>,
    config: &MatchConfig,
) -> BallResult {
    let view = ball.view(data);

    // Starting relation (ball-local ids): either the projected global relation or fresh
    // label candidates.
    let start = match global_relation {
        Some(global) => global.project_compact(ball),
        None => initial_candidates(pattern, &view),
    };

    // Optimisation 3: connectivity pruning around the center.
    let start = if config.connectivity_pruning {
        match prune_by_connectivity(pattern, &view, ball.center(), &start) {
            Some(pruned) => pruned,
            // Center cannot match: no perfect subgraph in this ball.
            None => return (None, 0, 0, RepetitionOutcome::default()),
        }
    } else {
        start
    };
    let seeded = start.pair_count();

    // Refinement: border-seeded work queue when starting from the projected global
    // relation, full fixpoint otherwise.
    let mut removed = 0usize;
    let relation = match global_relation {
        Some(_) => refine_projected(pattern, &view, ball.border(), start, Some(&mut removed)),
        None => refine_dual_with(pattern, &view, start, config.refine_strategy),
    };
    // The repetition closure runs between refinement convergence and extraction; a
    // closure that empties some candidate set turns the ball into a non-match exactly
    // like an emptied refinement would.
    let mut repetition = RepetitionOutcome::default();
    let relation = relation.and_then(|mut relation| {
        repetition = enforce_repetition(
            pattern,
            &view,
            &mut relation,
            config.repetition,
            config.repetition_mode,
        );
        relation.is_total().then_some(relation)
    });
    let result = relation.and_then(|relation| {
        extract_max_perfect_subgraph(pattern, &view, &relation, ball.center(), ball.radius())
            .map(|s| translate_subgraph(s, ball))
    });
    (result, removed, seeded, repetition)
}

/// Translates a perfect subgraph expressed in ball-local ids back to global ids.
///
/// Local ids follow BFS order, so the mapped vectors are re-sorted to restore the
/// ascending-global-id invariants of [`PerfectSubgraph`]. This runs once per *extracted*
/// subgraph — a tiny fraction of the per-ball work.
pub(crate) fn translate_subgraph(local: PerfectSubgraph, ball: &CompactBall) -> PerfectSubgraph {
    let mut nodes: Vec<NodeId> = local.nodes.into_iter().map(|n| ball.global_of(n)).collect();
    nodes.sort_unstable();
    let mut edges: Vec<(NodeId, NodeId)> = local
        .edges
        .into_iter()
        .map(|(a, b)| (ball.global_of(a), ball.global_of(b)))
        .collect();
    edges.sort_unstable();
    let mut relation: Vec<(NodeId, NodeId)> = local
        .relation
        .into_iter()
        .map(|(u, v)| (u, ball.global_of(v)))
        .collect();
    relation.sort_unstable();
    PerfectSubgraph {
        center: ball.center_global(),
        radius: local.radius,
        nodes,
        edges,
        relation,
    }
}

/// Translates a perfect subgraph expressed in `Gm` (extraction-inner) ids back to the
/// outer data-graph ids — the emission side of the match-graph ball substrate.
///
/// Inner ids ascend with outer ids ([`ExtractedSubgraph`] assigns them in ascending
/// member order), so the map is monotone and the sorted-vector invariants of
/// [`PerfectSubgraph`] survive without re-sorting. Shared with the distributed runtime,
/// whose sites emit in the same boundary position.
pub fn translate_to_outer(local: PerfectSubgraph, sub: &ExtractedSubgraph) -> PerfectSubgraph {
    PerfectSubgraph {
        center: sub.outer_of(local.center),
        radius: local.radius,
        nodes: local.nodes.into_iter().map(|n| sub.outer_of(n)).collect(),
        edges: local
            .edges
            .into_iter()
            .map(|(a, b)| (sub.outer_of(a), sub.outer_of(b)))
            .collect(),
        relation: local
            .relation
            .into_iter()
            .map(|(u, v)| (u, sub.outer_of(v)))
            .collect(),
    }
}

/// Matches a single prebuilt compact ball with fresh label candidates and worklist
/// refinement — the plain `Match` unit of work, outside any [`MatchPlan`].
pub fn match_compact_ball(
    pattern: &Pattern,
    ball: &CompactBall,
    data: &Graph,
) -> Option<PerfectSubgraph> {
    match_data_ball(pattern, data, ball, None, &MatchConfig::basic()).0
}

/// [`match_compact_ball`] under the dual filter: the per-ball start is the projection of
/// the global dual-simulation relation (in `data`'s id space — `Gm` ids when the ball was
/// built inside an extraction) and refinement is border-seeded (`dualFilter`, Fig. 5).
///
/// Refinement and extraction walk `data`'s raw CSR ([`refine_projected`] +
/// [`extract_max_perfect_subgraph`]): this is the reference for the engine's `Gm` balls,
/// which run over the query's candidate lists instead ([`crate::gm::match_gm_ball`]).
pub fn match_compact_ball_filtered(
    pattern: &Pattern,
    ball: &CompactBall,
    data: &Graph,
    global_relation: &MatchRelation,
) -> Option<PerfectSubgraph> {
    match_data_ball(
        pattern,
        data,
        ball,
        Some(global_relation),
        &MatchConfig::basic(),
    )
    .0
}

/// Returns `true` when `Q ≺LD G`, i.e. some ball of `G` contains a perfect subgraph.
pub fn strong_simulates(pattern: &Pattern, data: &Graph) -> bool {
    strong_simulation(pattern, data, &MatchConfig::basic()).is_match()
}

/// Convenience wrapper for the fully optimised matcher (`Match+`).
pub fn strong_simulation_plus(pattern: &Pattern, data: &Graph) -> MatchOutput {
    strong_simulation(pattern, data, &MatchConfig::optimized())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ssim_graph::{GraphBuilder, Label};

    /// Builds the running example of the paper (Fig. 1): pattern Q1 and data graph G1.
    ///
    /// Q1: HR -> SE, HR -> Bio, SE -> Bio, DM -> Bio, DM <-> AI.
    /// G1: one connected component where Bio4 satisfies every requirement, plus components
    /// with partially-recommended biologists and a long AI/DM cycle.
    pub(crate) fn figure1() -> (Pattern, Graph, NodeId) {
        // Labels: HR=0, SE=1, Bio=2, DM=3, AI=4
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(2), Label(3), Label(4)],
            &[(0, 1), (0, 2), (1, 2), (3, 2), (3, 4), (4, 3)],
        )
        .unwrap();

        let mut b = GraphBuilder::new();
        // Component 1: HR1 -> Bio1 (recommended by HR only).
        let hr1 = b.add_node("HR");
        let bio1 = b.add_node("Bio");
        b.add_edge(hr1, bio1);
        // Component 2: SE1 -> Bio2 (recommended by SE only).
        let se1 = b.add_node("SE");
        let bio2 = b.add_node("Bio");
        b.add_edge(se1, bio2);
        // Component 3: the long AI/DM cycle feeding Bio3 (k = 3 pairs).
        let bio3 = b.add_node("Bio");
        let mut cycle_nodes = Vec::new();
        for _ in 0..3 {
            let ai = b.add_node("AI");
            let dm = b.add_node("DM");
            cycle_nodes.push((ai, dm));
            b.add_edge(dm, bio3);
        }
        for i in 0..cycle_nodes.len() {
            let (ai, dm) = cycle_nodes[i];
            b.add_edge(ai, dm);
            let (next_ai, _) = cycle_nodes[(i + 1) % cycle_nodes.len()];
            b.add_edge(dm, next_ai);
        }
        // Component 4: the good one around Bio4.
        let hr2 = b.add_node("HR");
        let se2 = b.add_node("SE");
        let bio4 = b.add_node("Bio");
        let dm1p = b.add_node("DM");
        let dm2p = b.add_node("DM");
        let ai1p = b.add_node("AI");
        let ai2p = b.add_node("AI");
        b.add_edge(hr2, se2);
        b.add_edge(hr2, bio4);
        b.add_edge(se2, bio4);
        b.add_edge(dm1p, bio4);
        b.add_edge(dm2p, bio4);
        b.add_edge(dm1p, ai1p);
        b.add_edge(ai1p, dm1p);
        b.add_edge(dm2p, ai2p);
        b.add_edge(ai2p, dm2p);
        let (graph, interner) = b.build_with_interner();
        // Translate the string labels to the numeric labels used by the pattern.
        // (The builder interned HR=0, Bio=1, SE=2, AI=3, DM=4 in insertion order; rebuild the
        // data graph with the pattern's labelling so both sides agree.)
        let relabel = |l: ssim_graph::Label| -> Label {
            match interner.name(l).unwrap() {
                "HR" => Label(0),
                "SE" => Label(1),
                "Bio" => Label(2),
                "DM" => Label(3),
                "AI" => Label(4),
                other => panic!("unexpected label {other}"),
            }
        };
        let labels: Vec<Label> = graph.nodes().map(|v| relabel(graph.label(v))).collect();
        let edges: Vec<(u32, u32)> = graph.edges().map(|(a, b)| (a.0, b.0)).collect();
        let data = Graph::from_edges(labels, &edges).unwrap();
        (pattern, data, bio4)
    }

    #[test]
    fn figure1_strong_simulation_finds_only_bio4() {
        let (pattern, data, bio4) = figure1();
        let bio_label = Label(2);
        // Plain simulation matches every biologist (Example 1)…
        let sim = crate::simulation::graph_simulation(&pattern, &data).unwrap();
        let sim_bios: Vec<NodeId> = sim
            .candidates(NodeId(2))
            .iter()
            .map(NodeId::from_index)
            .collect();
        assert_eq!(
            sim_bios.len(),
            4,
            "graph simulation keeps all four biologists"
        );
        // …strong simulation keeps only Bio4 (Example 2(3)).
        let result = strong_simulation(&pattern, &data, &MatchConfig::basic());
        assert!(result.is_match());
        let matched_bios: Vec<NodeId> = result
            .matches_of(NodeId(2))
            .into_iter()
            .filter(|v| data.label(*v) == bio_label)
            .collect();
        assert_eq!(matched_bios, vec![bio4]);
        // The long AI/DM cycle is not part of any perfect subgraph.
        let matched = result.matched_nodes();
        for v in data.nodes() {
            if matched.contains(&v) {
                // every matched node lives in Bio4's component
                assert!(
                    ssim_graph::traversal::undirected_distance(&data, v, bio4).is_some(),
                    "matched node {v} is outside Bio4's component"
                );
            }
        }
    }

    #[test]
    fn figure1_all_configs_agree() {
        let (pattern, data, _) = figure1();
        let base = strong_simulation(&pattern, &data, &MatchConfig::basic());
        for config in [
            MatchConfig {
                dual_filter: true,
                ..MatchConfig::basic()
            },
            MatchConfig {
                connectivity_pruning: true,
                ..MatchConfig::basic()
            },
            MatchConfig {
                minimize_query: true,
                ..MatchConfig::basic()
            },
            MatchConfig::optimized(),
            // Engine ablations must not change results either.
            MatchConfig::seed_reference(),
            MatchConfig::basic().sequential(),
            MatchConfig::basic().with_thread_limit(4),
            MatchConfig::optimized().with_thread_limit(3),
            MatchConfig::basic().with_refine_strategy(RefineStrategy::NaiveFixpoint),
            MatchConfig::optimized().sequential(),
            MatchConfig::optimized().with_ball_substrate(BallSubstrate::FullGraph),
        ] {
            let out = strong_simulation(&pattern, &data, &config);
            assert_eq!(
                base.matched_nodes(),
                out.matched_nodes(),
                "config {config:?} changed the matched node set"
            );
            assert_eq!(
                base.subgraphs.len(),
                out.subgraphs.len(),
                "config {config:?} changed the number of perfect subgraphs"
            );
        }
    }

    #[test]
    fn engine_paths_produce_identical_subgraphs() {
        let (pattern, data, _) = figure1();
        for base_config in [MatchConfig::basic(), MatchConfig::optimized()] {
            let fast = strong_simulation(&pattern, &data, &base_config);
            let seed = strong_simulation(
                &pattern,
                &data,
                &MatchConfig {
                    refine_strategy: RefineStrategy::NaiveFixpoint,
                    parallel: false,
                    ..base_config
                },
            );
            assert_eq!(fast.subgraphs.len(), seed.subgraphs.len());
            for (a, b) in fast.subgraphs.iter().zip(&seed.subgraphs) {
                assert_eq!(a.center, b.center);
                assert_eq!(a.nodes, b.nodes);
                assert_eq!(a.edges, b.edges);
                assert_eq!(a.relation, b.relation);
            }
        }
    }

    #[test]
    fn dual_filter_skips_unmatchable_centers() {
        let (pattern, data, _) = figure1();
        let out = strong_simulation(&pattern, &data, &MatchConfig::optimized());
        assert!(
            out.stats.balls_skipped > 0,
            "expected the global filter to skip some balls"
        );
        assert_eq!(
            out.stats.balls_considered,
            data.node_count(),
            "every node is considered as a potential center"
        );
        assert_eq!(
            out.stats.balls_processed + out.stats.balls_skipped,
            out.stats.balls_considered
        );
        assert!(out.stats.pattern_sizes.is_some());
        assert_eq!(out.stats.radius, pattern.diameter());
    }

    #[test]
    fn no_match_when_label_absent() {
        let pattern = Pattern::from_edges(vec![Label(0), Label(9)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        for config in [MatchConfig::basic(), MatchConfig::optimized()] {
            let out = strong_simulation(&pattern, &data, &config);
            assert!(!out.is_match());
            assert_eq!(out.stats.perfect_subgraphs, 0);
        }
        assert!(!strong_simulates(&pattern, &data));
    }

    #[test]
    fn proposition4_bounded_number_of_matches() {
        let (pattern, data, _) = figure1();
        let out = strong_simulation(&pattern, &data, &MatchConfig::basic());
        assert!(out.subgraphs.len() <= data.node_count());
    }

    #[test]
    fn proposition3_diameter_bound() {
        let (pattern, data, _) = figure1();
        let out = strong_simulation(&pattern, &data, &MatchConfig::basic());
        for s in &out.subgraphs {
            let d = ssim_graph::metrics::induced_diameter(&data, &s.nodes);
            assert!(
                d <= 2 * pattern.diameter(),
                "perfect subgraph diameter {d} exceeds 2·dQ = {}",
                2 * pattern.diameter()
            );
        }
    }

    #[test]
    fn radius_override_and_dedup() {
        let (pattern, data, _) = figure1();
        let config = MatchConfig::basic().with_radius(1).with_deduplication();
        let out = strong_simulation(&pattern, &data, &config);
        assert_eq!(out.stats.radius, 1);
        // Deduplicated output has no structurally identical subgraphs.
        let distinct = out.distinct_subgraphs().len();
        assert_eq!(distinct, out.subgraphs.len());
    }

    #[test]
    fn identical_subgraphs_from_different_centers_deduplicate() {
        // Pattern A -> B over data A -> B: both centers see the same radius-1 ball and
        // extract the identical perfect subgraph {0, 1}.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let plain = strong_simulation(&pattern, &data, &MatchConfig::basic());
        assert_eq!(plain.subgraphs.len(), 2, "one subgraph per center");
        assert_eq!(
            plain.subgraphs[0].structural_key(),
            plain.subgraphs[1].structural_key()
        );
        let deduped =
            strong_simulation(&pattern, &data, &MatchConfig::basic().with_deduplication());
        assert_eq!(deduped.subgraphs.len(), 1);
        // Dedup keeps the first occurrence in center order.
        assert_eq!(deduped.subgraphs[0].center, NodeId(0));
        assert_eq!(deduped.stats.perfect_subgraphs, 1);
    }

    #[test]
    fn dedup_matches_seed_semantics() {
        // Dedup keeps the first occurrence of each structure, like the seed's BTreeSet key.
        let (pattern, data, _) = figure1();
        let plain = strong_simulation(&pattern, &data, &MatchConfig::basic().with_radius(1));
        let deduped = strong_simulation(
            &pattern,
            &data,
            &MatchConfig::basic().with_radius(1).with_deduplication(),
        );
        let expected: Vec<&PerfectSubgraph> = plain.distinct_subgraphs();
        assert_eq!(deduped.subgraphs.len(), expected.len());
        for (a, b) in deduped.subgraphs.iter().zip(expected) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
        }
    }

    #[test]
    fn single_node_pattern_matches_every_labelled_node() {
        let pattern = Pattern::from_edges(vec![Label(2)], &[]).unwrap();
        let (_, data, _) = figure1();
        let out = strong_simulation(&pattern, &data, &MatchConfig::basic());
        // Every Bio node forms its own perfect subgraph (radius 0 balls).
        let bios = data.nodes().filter(|v| data.label(*v) == Label(2)).count();
        assert_eq!(out.subgraphs.len(), bios);
        assert!(out.subgraphs.iter().all(|s| s.node_count() == 1));
    }

    #[test]
    fn strong_simulation_plus_matches_basic() {
        let (pattern, data, _) = figure1();
        let basic = strong_simulation(&pattern, &data, &MatchConfig::basic());
        let plus = strong_simulation_plus(&pattern, &data);
        assert_eq!(basic.matched_nodes(), plus.matched_nodes());
    }

    #[test]
    fn match_compact_ball_agrees_with_engine() {
        let (pattern, data, _) = figure1();
        let radius = pattern.diameter();
        let out = strong_simulation(&pattern, &data, &MatchConfig::basic());
        let mut scratch = BallScratch::new();
        let mut found = Vec::new();
        for center in data.nodes() {
            let ball = CompactBall::build(&data, center, radius, &mut scratch);
            if let Some(s) = match_compact_ball(&pattern, &ball, &data) {
                found.push(s);
            }
        }
        assert_eq!(found.len(), out.subgraphs.len());
        for (a, b) in found.iter().zip(&out.subgraphs) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.nodes, b.nodes);
        }
    }

    /// An unbounded radius covers each center's whole component, exactly like a radius
    /// of `|V|`: no ball-construction step may size anything by `radius + 1`.
    #[test]
    fn unbounded_radius_equals_node_count_radius() {
        let (pattern, data, _) = figure1();
        for base in [MatchConfig::basic(), MatchConfig::optimized()] {
            let want = strong_simulation(
                &pattern,
                &data,
                &base.sequential().with_radius(data.node_count()),
            );
            assert!(want.is_match());
            for config in [base.sequential(), base.with_thread_limit(2)] {
                let got = strong_simulation(&pattern, &data, &config.with_radius(usize::MAX));
                assert_eq!(got.subgraphs.len(), want.subgraphs.len(), "{config:?}");
                for (a, b) in got.subgraphs.iter().zip(&want.subgraphs) {
                    assert_eq!(a.center, b.center);
                    assert_eq!(a.nodes, b.nodes);
                    assert_eq!(a.edges, b.edges);
                    assert_eq!(a.relation, b.relation);
                }
            }
        }
    }
}
