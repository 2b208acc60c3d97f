//! Multi-pattern query service: standing queries over one shared, mutating graph — and
//! the only code that applies a delta to a maintained match.
//!
//! Production traffic is many concurrent patterns standing over the same data graph.
//! Naively that is N independent sessions — N private copies of the substrate, N delta
//! applications, N edge-ball sweeps and N region extractions per update, even though
//! every one of those is a pure function of the *shared* graph. [`QueryService`]
//! collapses the redundancy without giving up the per-pattern bit-identity contract.
//! It is the only registry and the only apply — the one front-end for maintained
//! matching: a session over one pattern is a service holding one query, and the
//! distributed service is this service on a partitioned [`Executor`]. The executor is
//! the one part that differs — where a query's balls run: the [`Local`] executor's
//! pass runs them on this process's threads (with region extraction and the dirty
//! bail), a partitioned one routes them to the sites owning their centers.
//!
//! 1. **One substrate.** The registry holds a single epoch-versioned
//!    [`VersionedGraph`]; every registered query's [`PatternState`] (fixpoint, matched
//!    set, `Gm` cache) is maintained against it. Readers pin epochs via
//!    [`QueryService::pin`], and a delta lands on the overlay exactly once per
//!    [`QueryService::apply`] — not once per query.
//! 2. **Single-sweep delta fan-out.** The dirty-ball edge sweeps
//!    ([`ssim_graph::delta::mark_edge_ball_centers`] over the deleted edges on the
//!    pre-update graph and the inserted edges on the post-update graph) depend only on
//!    `(graph, delta, radius)`. The service runs them **once per distinct radius** and
//!    routes the result into every pattern's dirty set; patterns on the `Gm` substrate
//!    sweep their own cached extractions exactly as a one-query service would.
//! 3. **Shared-work scheduling.** Per apply, one [`SubstrateCache`] memoises the flat
//!    materialisation of the overlay and each `(radius, dirty)` region extraction
//!    across the per-pattern passes, and at registration a query whose
//!    pattern-and-shape equals an already-registered one clones that query's
//!    maintained state instead of recomputing the global fixpoint. Queries with
//!    overlapping label signatures ([`QueryService::signature_groups`]) are where the
//!    sharing bites: same-radius patterns over the same labels produce identical dirty
//!    sets, so their sweeps and region extractions collapse to one.
//! 4. **Bit-identity.** Every shared value is a pure function of inputs a one-query
//!    service would compute for itself, so each query's [`MatchOutput`] — rows *and*
//!    stats — is bit-identical to a one-query service fed the same deltas, and its rows
//!    equal a one-shot [`crate::strong::strong_simulation`] on the current graph.
//!    `tests/service_equivalence.rs` pins both property-style.
//!
//! Patterns enter through the fluent [`PatternBuilder`]
//! (`.component(..)`, `.one_way_direction(..)` chains → a validated [`Pattern`]):
//!
//! ```
//! use ssim_core::service::{PatternBuilder, QueryService};
//! use ssim_core::strong::MatchConfig;
//! use ssim_graph::{Graph, Label};
//!
//! let pattern = PatternBuilder::new()
//!     .component("student", Label(0))
//!     .component("book", Label(1))
//!     .one_way_direction("student", "book")
//!     .build()
//!     .unwrap();
//!
//! let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
//! let mut service = QueryService::new(data);
//! let id = service.register(&pattern, MatchConfig::optimized());
//! assert!(service.output(id).unwrap().is_match());
//! ```

use crate::incremental::{splice_rows, PatternState, UpdateStats};
use crate::match_graph::PerfectSubgraph;
use crate::strong::{
    distinct_indices, match_impl, translate_to_outer, DataRef, MatchConfig, MatchOutput, MatchPlan,
};
use ssim_graph::delta::{mark_edge_ball_centers, mark_within_distance};
use ssim_graph::{
    BitSet, ExtractedSubgraph, Graph, GraphDelta, GraphEpoch, GraphError, Label, NodeId,
    OverlayGraph, Pattern, SnapshotHandle, VersionedGraph,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A structural error found while assembling a pattern through [`PatternBuilder`].
///
/// The builder is infallible while chaining (matching the fluent style it mirrors);
/// every error is reported at [`PatternBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuilderError {
    /// `build()` on a builder with no components.
    NoComponents,
    /// Two `component(..)` calls used the same id.
    DuplicateComponent(String),
    /// An edge endpoint names a component that was never defined; `missing` is the
    /// undefined side.
    UndefinedEndpoint {
        /// The edge's source component id.
        source: String,
        /// The edge's target component id.
        target: String,
        /// Whichever of the two ids has no matching `component(..)` call.
        missing: String,
    },
    /// The assembled component/edge set is not a valid pattern (patterns must be
    /// non-empty and connected).
    Pattern(GraphError),
}

impl std::fmt::Display for BuilderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuilderError::NoComponents => write!(f, "pattern has no components"),
            BuilderError::DuplicateComponent(id) => {
                write!(f, "component `{id}` is defined twice")
            }
            BuilderError::UndefinedEndpoint {
                source,
                target,
                missing,
            } => write!(
                f,
                "edge `{source}` -> `{target}`: `{missing}` has not been defined, \
                 use .component(\"{missing}\", ..) to define it"
            ),
            BuilderError::Pattern(e) => write!(f, "invalid pattern: {e:?}"),
        }
    }
}

impl std::error::Error for BuilderError {}

/// Fluent pattern assembly: named components with labels, one-way edges between them.
///
/// Component ids are arbitrary strings; the built [`Pattern`]'s node ids follow the
/// `component(..)` call order. Errors (duplicate ids, undefined endpoints, structurally
/// invalid patterns) surface at [`PatternBuilder::build`], so chains never panic:
///
/// ```
/// use ssim_core::service::PatternBuilder;
/// use ssim_graph::Label;
///
/// let pattern = PatternBuilder::new()
///     .component("a", Label(0))
///     .component("b", Label(1))
///     .component("c", Label(0))
///     .one_way_direction("a", "b")
///     .one_way_direction("b", "c")
///     .build()
///     .unwrap();
/// assert_eq!(pattern.node_count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternBuilder {
    components: Vec<(String, Label)>,
    edges: Vec<(String, String)>,
}

impl PatternBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PatternBuilder::default()
    }

    /// Defines a component (a pattern node) with the given id and label.
    pub fn component(mut self, id: impl Into<String>, label: Label) -> Self {
        self.components.push((id.into(), label));
        self
    }

    /// Adds a directed edge from `source` to `target`. Both must be defined via
    /// [`PatternBuilder::component`] (in any order — definition may follow use) by the
    /// time [`PatternBuilder::build`] runs.
    pub fn one_way_direction(
        mut self,
        source: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        self.edges.push((source.into(), target.into()));
        self
    }

    /// Validates the assembled components and edges into a [`Pattern`].
    pub fn build(&self) -> Result<Pattern, BuilderError> {
        if self.components.is_empty() {
            return Err(BuilderError::NoComponents);
        }
        let mut index: BTreeMap<&str, u32> = BTreeMap::new();
        for (i, (id, _)) in self.components.iter().enumerate() {
            if index.insert(id.as_str(), i as u32).is_some() {
                return Err(BuilderError::DuplicateComponent(id.clone()));
            }
        }
        let mut edges = Vec::with_capacity(self.edges.len());
        for (source, target) in &self.edges {
            let resolve = |id: &String| {
                index
                    .get(id.as_str())
                    .copied()
                    .ok_or_else(|| BuilderError::UndefinedEndpoint {
                        source: source.clone(),
                        target: target.clone(),
                        missing: id.clone(),
                    })
            };
            edges.push((resolve(source)?, resolve(target)?));
        }
        let labels: Vec<Label> = self.components.iter().map(|(_, l)| *l).collect();
        Pattern::from_edges(labels, &edges).map_err(BuilderError::Pattern)
    }
}

/// Handle to a registered standing query. Ids are allocated monotonically and never
/// reused, so a stale handle after [`QueryService::deregister`] is simply unknown (the
/// accessors return `None`) rather than silently naming a different query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub usize);

/// Where a registered query's balls run: the one part of serving a standing query that
/// differs between running it in-process ([`Local`]) and running it on partitioned
/// sites (the distributed crate's executor). [`QueryService`] owns everything else —
/// the registry, the shared substrate step, the pattern-state advance, the splice and
/// the deduplication — and calls these hooks once per query and pass.
pub trait Executor {
    /// The configuration a query registers under.
    type Config: Copy;
    /// A query's cached result over the current graph.
    type Output;
    /// What a registration or an apply fails with; delta validation errors convert
    /// into it.
    type Error: From<GraphError>;
    /// Scripted faults an apply can run under; `()` for an executor that has none.
    type Faults: Default;

    /// The engine configuration a query's [`PatternState`] is built under.
    fn match_config(&self, config: &Self::Config) -> MatchConfig;

    /// One pass of a query over the current graph: every ball (`dirty: None`) or only
    /// the balls of the `dirty` centers (data-graph ids). The output's rows come back
    /// in ascending center order and not deduplicated. `cache` is shared by every pass
    /// of one apply.
    fn run(
        &self,
        query: QueryRef<'_, Self::Config>,
        data: &OverlayGraph,
        dirty: Option<&BitSet>,
        cache: &mut SubstrateCache,
        faults: &Self::Faults,
    ) -> Result<Self::Output, Self::Error>;

    /// The rows of an output, in ascending center order.
    fn rows_mut<'o>(&self, output: &'o mut Self::Output) -> &'o mut Vec<PerfectSubgraph>;

    /// Brings an output's counters in line with its spliced rows over `nodes` data
    /// nodes; the work counters keep describing the most recent pass.
    fn refresh(&self, output: &mut Self::Output, nodes: usize);

    /// Rejects, before a registration or an apply moves any state, a configuration
    /// that cannot run over a graph of `nodes` nodes or faults it cannot run under.
    fn admit(
        &self,
        _config: &Self::Config,
        _faults: &Self::Faults,
        _nodes: usize,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Whether a pass with `dirty` of `nodes` centers dirty runs unrestricted instead,
    /// replacing the query's rows wholesale.
    fn bails(&self, _dirty: usize, _nodes: usize) -> bool {
        false
    }

    /// Centers whose rows an earlier pass lost: the next apply re-runs them.
    fn lost_centers<'o>(&self, _output: &'o Self::Output) -> &'o [NodeId] {
        &[]
    }
}

/// A registered query as an [`Executor`] pass sees it.
#[derive(Clone, Copy)]
pub struct QueryRef<'a, C> {
    /// The pattern the query was registered with.
    pub pattern: &'a Pattern,
    /// The configuration the query was registered with.
    pub config: &'a C,
    /// The query's maintained state over the current graph.
    pub state: &'a PatternState,
}

/// The in-process executor: a query's balls run on this process's worker threads
/// ([`crate::strong`]'s fan-out), off the cheapest data representation the query admits
/// — the maintained `Gm`, a dirty-region extraction or the flat overlay — and a delta
/// that dirties more than 85 % of the balls re-runs them all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Local;

impl Executor for Local {
    type Config = MatchConfig;
    type Output = MatchOutput;
    type Error = GraphError;
    type Faults = ();

    fn match_config(&self, config: &MatchConfig) -> MatchConfig {
        *config
    }

    fn run(
        &self,
        query: QueryRef<'_, MatchConfig>,
        data: &OverlayGraph,
        dirty: Option<&BitSet>,
        cache: &mut SubstrateCache,
        _: &(),
    ) -> Result<MatchOutput, GraphError> {
        Ok(run_pattern_pass(query, data, dirty, cache))
    }

    fn rows_mut<'o>(&self, output: &'o mut MatchOutput) -> &'o mut Vec<PerfectSubgraph> {
        &mut output.subgraphs
    }

    fn refresh(&self, output: &mut MatchOutput, nodes: usize) {
        output.stats.perfect_subgraphs = output.subgraphs.len();
        // A pass over a dirty-region extraction considered only the region's balls.
        output.stats.balls_considered = nodes;
    }

    /// When a delta invalidates nearly every ball, region extraction and splicing cost
    /// more than the unrestricted pass they would orchestrate.
    fn bails(&self, dirty: usize, nodes: usize) -> bool {
        dirty > (DIRTY_BAIL_FRACTION * nodes as f64) as usize
    }
}

/// One registered standing query: its pattern, configuration, maintained
/// [`PatternState`] and cached output — everything but the shared substrate.
struct Session<E: Executor> {
    pattern: Pattern,
    config: E::Config,
    signature: BTreeSet<Label>,
    state: PatternState,
    /// Pre-deduplication rows (ascending ball center, data-graph ids); present exactly
    /// when the configuration deduplicates, because deduplication is a cross-row
    /// operation that must be re-applied over every splice. Otherwise the output's rows
    /// are the row cache and splices happen in place.
    dedup_rows: Option<Vec<PerfectSubgraph>>,
    output: E::Output,
    last_update: UpdateStats,
}

impl<E: Executor> Session<E> {
    /// Splices a pass's `fresh` rows into the cached ones at the `dirty` centers — or
    /// replaces them, after an unrestricted pass — and refreshes the output around them.
    /// The output already holds the cached rows.
    fn splice(
        &mut self,
        exec: &E,
        fresh: Vec<PerfectSubgraph>,
        dirty: Option<&BitSet>,
        nodes: usize,
    ) {
        let rows = match &mut self.dedup_rows {
            Some(rows) => rows,
            None => exec.rows_mut(&mut self.output),
        };
        match dirty {
            Some(dirty) => splice_rows(rows, dirty, fresh),
            None => *rows = fresh,
        }
        if let Some(rows) = &self.dedup_rows {
            *exec.rows_mut(&mut self.output) = deduped_copy(rows);
        }
        exec.refresh(&mut self.output, nodes);
    }
}

/// Per-query slice of a [`ServiceUpdate`].
#[derive(Debug, Clone)]
pub struct QueryUpdate {
    /// The query the stats belong to.
    pub id: QueryId,
    /// The same accounting a one-query service's `last_update()` would report.
    pub stats: UpdateStats,
}

/// How much cross-pattern work one [`QueryService::apply`] shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Live registered queries the delta fanned out to.
    pub sessions: usize,
    /// Distinct radii the data-edge ball sweeps ran at (each runs once per side).
    pub edge_sweep_radii: usize,
    /// Sessions that consumed a shared data-edge sweep. With N same-radius full-graph
    /// sessions this reads N while `edge_sweep_radii` reads 1 — the fan-out saving.
    pub edge_sweep_consumers: usize,
    /// Substrate representations (flat materialisations + region extractions) built
    /// into the shared cache this apply.
    pub substrate_builds: usize,
    /// Substrate representations served from the shared cache instead of rebuilt —
    /// each one a whole-graph merge or region BFS+extraction an independent session
    /// would have paid.
    pub substrate_reuses: usize,
}

/// What one [`QueryService::apply`] did: the substrate epoch it produced, per-query
/// update accounting, and the cross-pattern sharing counters.
#[derive(Debug, Clone)]
pub struct ServiceUpdate {
    /// Epoch of the published substrate after the apply.
    pub epoch: GraphEpoch,
    /// The overlay compacted back to a flat base CSR during this apply.
    pub compacted: bool,
    /// Per-query stats, ascending [`QueryId`].
    pub queries: Vec<QueryUpdate>,
    /// Cross-pattern sharing accounting.
    pub sharing: SharingStats,
}

/// A registry of standing queries over one shared, epoch-versioned data graph, served
/// by the executor `E`.
///
/// See the [module docs](self) for the sharing model. The contract: after every
/// [`QueryService::apply`], each registered query's [`QueryService::output`] is
/// bit-identical — rows and stats — to a service holding that query alone, constructed
/// on the same initial graph and fed the same deltas.
pub struct QueryService<E: Executor = Local> {
    substrate: VersionedGraph,
    sessions: Vec<Option<Session<E>>>,
    executor: E,
}

impl QueryService {
    /// A service over `data` with no registered queries, on the [`Local`] executor.
    pub fn new(data: Graph) -> Self {
        QueryService::with_executor(data, Local)
    }

    /// Registers a standing query and runs its initial match over the current graph
    /// (see [`QueryService::try_register`]; the local executor cannot fail).
    pub fn register(&mut self, pattern: &Pattern, config: MatchConfig) -> QueryId {
        self.try_register(pattern, config)
            .expect("local passes do not fail")
    }
}

impl<E: Executor> QueryService<E> {
    /// A service over `data` with no registered queries, on `executor`.
    pub fn with_executor(data: Graph, executor: E) -> Self {
        QueryService {
            substrate: VersionedGraph::new(data),
            sessions: Vec::new(),
            executor,
        }
    }

    /// Registers a standing query and runs its initial match over the current graph.
    /// Fails, before any work, when the executor rejects the configuration
    /// ([`Executor::admit`]).
    ///
    /// If an already-registered query has the same pattern and shape-relevant
    /// configuration, its maintained state is cloned instead of recomputing the global
    /// fixpoint — bit-identical by purity, cheaper by one fixpoint and one `Gm`
    /// extraction.
    pub fn try_register(
        &mut self,
        pattern: &Pattern,
        config: E::Config,
    ) -> Result<QueryId, E::Error> {
        let data = self.substrate.published();
        self.executor
            .admit(&config, &E::Faults::default(), data.node_count())?;
        let shape = self.executor.match_config(&config);
        let state = self.reusable_state(pattern, &shape).unwrap_or_else(|| {
            PatternState::new(
                pattern,
                data,
                shape.minimize_query,
                shape.radius_override,
                shape.dual_filter,
                shape.ball_substrate,
                shape.refine_strategy,
            )
        });
        let query = QueryRef {
            pattern,
            config: &config,
            state: &state,
        };
        let mut cache = SubstrateCache::new();
        let mut output = self
            .executor
            .run(query, data, None, &mut cache, &E::Faults::default())?;
        let fresh = std::mem::take(self.executor.rows_mut(&mut output));
        let n = data.node_count();
        let mut session = Session {
            pattern: pattern.clone(),
            config,
            signature: pattern.nodes().map(|u| pattern.label(u)).collect(),
            state,
            dedup_rows: shape.deduplicate.then(Vec::new),
            output,
            last_update: UpdateStats::full_pass(n),
        };
        session.splice(&self.executor, fresh, None, n);
        self.sessions.push(Some(session));
        Ok(QueryId(self.sessions.len() - 1))
    }

    /// A clone of an already-registered query's maintained state, when one with the
    /// same pattern and the same shape-relevant configuration exists. The maintained
    /// state is a pure function of those inputs over the current graph, so the clone
    /// is bit-identical to recomputing.
    fn reusable_state(&self, pattern: &Pattern, shape: &MatchConfig) -> Option<PatternState> {
        self.sessions.iter().flatten().find_map(|s| {
            let other = self.executor.match_config(&s.config);
            let same_shape = s.pattern == *pattern
                && other.minimize_query == shape.minimize_query
                && other.radius_override == shape.radius_override
                && other.dual_filter == shape.dual_filter
                && other.ball_substrate == shape.ball_substrate
                && other.refine_strategy == shape.refine_strategy;
            same_shape.then(|| s.state.clone())
        })
    }

    /// Removes a standing query. Returns `false` when the id is unknown or already
    /// deregistered. The id is never reused.
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

    /// The cached match result of one query over the current graph. On an executor
    /// that can lose rows, [`Executor::lost_centers`] names the ones it is missing; the
    /// next apply heals them.
    pub fn output(&self, id: QueryId) -> Option<&E::Output> {
        self.session(id).map(|s| &s.output)
    }

    /// Work accounting of the most recent apply for one query (or of its initial run,
    /// where every ball is dirty by definition).
    pub fn last_update(&self, id: QueryId) -> Option<&UpdateStats> {
        self.session(id).map(|s| &s.last_update)
    }

    /// The pattern a query was registered with.
    pub fn pattern(&self, id: QueryId) -> Option<&Pattern> {
        self.session(id).map(|s| &s.pattern)
    }

    /// The configuration a query was registered with.
    pub fn config(&self, id: QueryId) -> Option<&E::Config> {
        self.session(id).map(|s| &s.config)
    }

    /// The set of labels a query's pattern uses — its label signature.
    pub fn signature(&self, id: QueryId) -> Option<&BTreeSet<Label>> {
        self.session(id).map(|s| &s.signature)
    }

    /// Epoch of the currently published substrate version.
    pub fn epoch(&self) -> GraphEpoch {
        self.substrate.epoch()
    }

    /// Pins the published substrate version — an `O(1)` epoch-tagged snapshot that
    /// stays readable across later applies and compactions.
    pub fn pin(&self) -> SnapshotHandle {
        self.substrate.pin()
    }

    /// The current data graph, materialised flat — an `O(|V|+|E|)` merge meant for
    /// oracles and tests, not the serving path (use [`QueryService::pin`] to read
    /// without materialising).
    pub fn data(&self) -> Graph {
        self.substrate.published().to_graph()
    }

    /// Groups the live queries by *overlapping* label signatures (transitively: two
    /// queries sharing any label land in one group, and a third overlapping either
    /// joins them). Groups are where cross-pattern sharing concentrates — same-radius
    /// patterns over the same labels produce identical dirty sets — and they are the
    /// unit a deployment would shard by: queries in different groups share only the
    /// substrate itself.
    pub fn signature_groups(&self) -> Vec<Vec<QueryId>> {
        let mut groups: Vec<(BTreeSet<Label>, Vec<QueryId>)> = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            let Some(s) = s else { continue };
            let (mut overlapping, disjoint): (Vec<_>, Vec<_>) = groups
                .drain(..)
                .partition(|(sig, _)| !sig.is_disjoint(&s.signature));
            let mut merged = (s.signature.clone(), vec![QueryId(i)]);
            for (sig, ids) in overlapping.drain(..) {
                merged.0.extend(sig);
                // Earlier groups hold smaller ids; extending keeps ascending order.
                let mut ids = ids;
                ids.extend(std::mem::take(&mut merged.1));
                merged.1 = ids;
            }
            merged.1.sort_unstable();
            groups = disjoint;
            groups.push(merged);
        }
        groups.sort_by_key(|(_, ids)| ids[0]);
        groups.into_iter().map(|(_, ids)| ids).collect()
    }

    /// Applies one validated delta to the shared substrate and fans it out to every
    /// registered query in a single sweep: edge-ball marking once per distinct radius,
    /// one substrate cache across the per-query restricted passes. Fails (leaving the
    /// substrate and every query untouched) when the delta does not validate against
    /// the current graph.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<ServiceUpdate, E::Error> {
        self.apply_batch_with_faults(std::slice::from_ref(delta), &E::Faults::default())
    }

    /// [`QueryService::apply`] with every query's pass under the scripted `faults`
    /// (each query's pass restarts the script: queries are independent supervision
    /// scopes). Fails before any state moves when some query cannot run under them.
    pub fn apply_with_faults(
        &mut self,
        delta: &GraphDelta,
        faults: &E::Faults,
    ) -> Result<ServiceUpdate, E::Error> {
        self.apply_batch_with_faults(std::slice::from_ref(delta), faults)
    }

    /// Applies a batch of deltas as **one** maintenance step: the stream is folded into
    /// its net delta ([`GraphDelta::then`]) and fed through a single apply — so sweeps,
    /// fixpoint maintenance and the restricted passes are paid once per batch for
    /// *every* registered query. A mid-stream validation error leaves the substrate and
    /// every query untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<ServiceUpdate, E::Error> {
        self.apply_batch_with_faults(deltas, &E::Faults::default())
    }

    /// The one apply path: the executor's fault gate, the batch fold, the shared
    /// substrate step, then per query the pattern-state advance, the executor's pass
    /// over the dirty centers (plus the ones an earlier pass lost) and the splice.
    pub fn apply_batch_with_faults(
        &mut self,
        deltas: &[GraphDelta],
        faults: &E::Faults,
    ) -> Result<ServiceUpdate, E::Error> {
        let nodes = self.substrate.published().node_count();
        for sess in self.sessions.iter().flatten() {
            self.executor.admit(&sess.config, faults, nodes)?;
        }
        let Some(delta) = fold_batch(self.substrate.published(), deltas)? else {
            return Ok(ServiceUpdate {
                epoch: self.substrate.epoch(),
                compacted: false,
                queries: Vec::new(),
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
        let n = data.node_count();
        let exec = &self.executor;
        let mut cache = SubstrateCache::new();
        let mut queries = Vec::new();
        for (i, slot) in self.sessions.iter_mut().enumerate() {
            let Some(sess) = slot else { continue };
            let (pre, post) = step.edge_dirty(&sess.state);
            let mut effect = sess.state.advance_applied(data, &delta, pre, post);
            // Lost-center healing: centers an earlier pass lost have no trustworthy
            // cached rows, so they run again and their stale rows are dropped.
            for &center in exec.lost_centers(&sess.output) {
                effect.dirty.insert(center.index());
            }
            let bailed = exec.bails(effect.dirty.len(), n);
            let dirty = (!bailed).then_some(&effect.dirty);
            let query = QueryRef {
                pattern: &sess.pattern,
                config: &sess.config,
                state: &sess.state,
            };
            let mut output = exec.run(query, data, dirty, &mut cache, faults)?;
            let cached = std::mem::take(exec.rows_mut(&mut sess.output));
            let fresh = std::mem::replace(exec.rows_mut(&mut output), cached);
            sess.output = output;
            sess.splice(exec, fresh, dirty, n);
            sess.last_update = UpdateStats {
                dirty_balls: if bailed { n } else { effect.dirty.len() },
                clean_balls: if bailed { 0 } else { n - effect.dirty.len() },
                pairs_gained: effect.pairs_gained,
                pairs_lost: effect.pairs_lost,
                relation_recomputed: effect.relation_recomputed,
                gm_reextracted: effect.gm_reextracted,
                dirty_bailed: bailed,
                overlay_compacted: step.compacted,
            };
            queries.push(QueryUpdate {
                id: QueryId(i),
                stats: sess.last_update.clone(),
            });
        }
        Ok(ServiceUpdate {
            epoch: self.substrate.epoch(),
            compacted: step.compacted,
            sharing: step.sharing(queries.len(), &cache),
            queries,
        })
    }

    fn session(&self, id: QueryId) -> Option<&Session<E>> {
        self.sessions.get(id.0).and_then(|s| s.as_ref())
    }
}

/// The substrate half of one [`QueryService`] apply, whatever the executor: the delta
/// validated and landed on the shared [`VersionedGraph`]
/// exactly once, with the data-edge ball sweeps run once per distinct radius. Deleted
/// edges localise in the pre-update graph and inserted edges in the post-update one —
/// per edge, exactly the centers holding both endpoints within `dQ` are dirtied (the
/// balls that contain the edge). Patterns on the `Gm` substrate sweep their own cached
/// extractions inside [`PatternState::advance_applied`] instead.
struct SubstrateStep {
    /// `(pre, post)` sweeps per distinct radius among the patterns that sweep data edges.
    sweeps: BTreeMap<usize, (BitSet, BitSet)>,
    /// What patterns that sweep their own extractions receive.
    empty: BitSet,
    /// Patterns that consume a shared sweep.
    consumers: usize,
    /// The overlay compacted back to a flat base CSR during this apply.
    compacted: bool,
}

impl SubstrateStep {
    /// Validates `delta` against the published version, sweeps its deleted edges there,
    /// stages and publishes it, and sweeps its inserted edges on the new version — at
    /// every radius some pattern of `states` sweeps data edges at. Fails, leaving the
    /// substrate untouched, when the delta does not validate.
    fn run<'a>(
        substrate: &mut VersionedGraph,
        delta: &GraphDelta,
        states: impl IntoIterator<Item = &'a PatternState>,
    ) -> Result<Self, GraphError> {
        let pre_graph = substrate.published();
        delta.validate(pre_graph)?;
        let n = pre_graph.node_count();
        let mut sweeps: BTreeMap<usize, (BitSet, BitSet)> = BTreeMap::new();
        let mut consumers = 0;
        for state in states.into_iter().filter(|s| s.sweeps_data_edges()) {
            consumers += 1;
            sweeps
                .entry(state.radius)
                .or_insert_with(|| (BitSet::new(n), BitSet::new(n)));
        }
        let deleted: Vec<(NodeId, NodeId)> = delta.deleted_edges().collect();
        for (radius, (pre, _)) in sweeps.iter_mut() {
            mark_edge_ball_centers(pre_graph, &deleted, *radius, pre);
        }
        let compactions_before = pre_graph.compactions();
        substrate.stage(delta)?;
        substrate.publish();
        let post_graph = substrate.published();
        let inserted: Vec<(NodeId, NodeId)> = delta.inserted_edges().collect();
        for (radius, (_, post)) in sweeps.iter_mut() {
            mark_edge_ball_centers(post_graph, &inserted, *radius, post);
        }
        Ok(SubstrateStep {
            sweeps,
            empty: BitSet::new(n),
            consumers,
            compacted: post_graph.compactions() > compactions_before,
        })
    }

    /// The `(pre, post)` edge sweeps [`PatternState::advance_applied`] takes for `state`
    /// (empty sets when it sweeps its own `Gm` extractions).
    fn edge_dirty(&self, state: &PatternState) -> (&BitSet, &BitSet) {
        match self.sweeps.get(&state.radius) {
            Some((pre, post)) if state.sweeps_data_edges() => (pre, post),
            _ => (&self.empty, &self.empty),
        }
    }

    /// The apply's sharing accounting over `sessions` live queries, with the substrate
    /// counters of the per-query passes' shared `cache`.
    fn sharing(&self, sessions: usize, cache: &SubstrateCache) -> SharingStats {
        let (substrate_reuses, substrate_builds) = cache.counters();
        SharingStats {
            sessions,
            edge_sweep_radii: self.sweeps.len(),
            edge_sweep_consumers: self.consumers,
            substrate_builds,
            substrate_reuses,
        }
    }
}

/// The batch fold: checks each delta of the stream in order on a
/// clone of the published overlay (`O(patch-slots)` — the base CSR is shared behind an
/// `Arc`), so a mid-stream error leaves everything untouched, and composes the stream
/// into its net delta ([`GraphDelta::then`]). `None` for an empty stream; a single delta
/// comes back as is, for its apply to validate.
fn fold_batch<'d>(
    published: &OverlayGraph,
    deltas: &'d [GraphDelta],
) -> Result<Option<Cow<'d, GraphDelta>>, GraphError> {
    let [first, rest @ ..] = deltas else {
        return Ok(None);
    };
    if rest.is_empty() {
        return Ok(Some(Cow::Borrowed(first)));
    }
    let mut staged = published.clone();
    for d in deltas {
        staged.apply_delta(d)?;
    }
    let net = rest.iter().fold(first.clone(), |net, d| net.then(d));
    Ok(Some(Cow::Owned(net)))
}

/// Dirty fraction above which the [`Local`] executor abandons the restricted
/// pass. Chosen well above the densest committed bench row (`update-overlap-chain-5pct`
/// invalidates ~0.64 of the balls and still wins incrementally) so the bail only fires
/// on genuinely global deltas.
pub(crate) const DIRTY_BAIL_FRACTION: f64 = 0.85;

/// Per-apply memo of the pure, pattern-independent data representations
/// the per-query pass builds: the flat materialisation of the overlay and the dirty-
/// region extraction. Both are functions of `(graph, radius, dirty set)` alone, so a
/// multi-pattern caller passing one cache across its per-pattern passes shares them
/// bit-identically — the pass consumes the same *value* it would have built itself.
///
/// The cache is only valid for one substrate version: drop it (or build a fresh one)
/// after every delta application.
#[derive(Default)]
pub struct SubstrateCache {
    /// The overlay merged flat, shared by every pass that needs a whole-graph CSR.
    flat: Option<Graph>,
    /// One entry per distinct `(radius, dirty)` request this apply; registered queries
    /// are few, so a linear scan beats any keyed structure.
    regions: Vec<RegionEntry>,
    /// Times a memoised value was served instead of rebuilt (flat + region combined).
    reuses: usize,
    /// Times a value was built into the cache (flat + region combined).
    builds: usize,
}

/// A memoised dirty-region extraction: the region decision for one `(radius, dirty)`
/// pair. `extraction: None` records that the region grew past the half-graph threshold
/// and the pass fell back to the flat path — a decision worth memoising too, since it
/// cost the region BFS to make.
struct RegionEntry {
    radius: usize,
    dirty: BitSet,
    extraction: Option<(ExtractedSubgraph, BitSet)>,
}

impl SubstrateCache {
    /// An empty cache for one substrate version.
    pub fn new() -> Self {
        SubstrateCache::default()
    }

    /// `(reuses, builds)` of memoised representations so far.
    pub fn counters(&self) -> (usize, usize) {
        (self.reuses, self.builds)
    }

    /// The flat materialisation of `data`, built on first request — or its base CSR,
    /// copy-free, while the overlay is flat.
    pub fn flat<'a>(&'a mut self, data: &'a OverlayGraph) -> &'a Graph {
        if data.is_flat() {
            return data.base();
        }
        if self.flat.is_some() {
            self.reuses += 1;
        } else {
            self.builds += 1;
        }
        self.flat.get_or_insert_with(|| data.to_graph())
    }

    /// Ensures the region entry for `(radius, dirty)` exists and returns its index.
    fn ensure_region(&mut self, data: &OverlayGraph, radius: usize, dirty: &BitSet) -> usize {
        if let Some(i) = self
            .regions
            .iter()
            .position(|e| e.radius == radius && &e.dirty == dirty)
        {
            self.reuses += 1;
            return i;
        }
        self.builds += 1;
        let n = data.node_count();
        let mut region = BitSet::new(n);
        mark_within_distance(
            data,
            dirty.iter().map(NodeId::from_index),
            radius,
            &mut region,
        );
        // Region extraction only pays while the untouched remainder is large: past
        // half the graph, building, indexing and translating an almost-full induced
        // copy costs more than the bulk `to_graph` merge (patched nodes re-merge,
        // untouched nodes memcpy) plus a dirty-restricted full-graph pass.
        let extraction = if region.len() * 2 > n {
            None
        } else {
            let sub = ExtractedSubgraph::induced(data, &region);
            let mut dirty_inner = BitSet::new(sub.node_count());
            for c in dirty.iter() {
                let inner = sub
                    .inner_of(NodeId::from_index(c))
                    .expect("dirty centers are within distance 0 of themselves");
                dirty_inner.insert(inner.index());
            }
            Some((sub, dirty_inner))
        };
        self.regions.push(RegionEntry {
            radius,
            dirty: dirty.clone(),
            extraction,
        });
        self.regions.len() - 1
    }
}

/// One restricted (or full) pass of the ball pipeline against the maintained state,
/// choosing the cheapest data representation the configuration admits:
///
/// * **Prepared match-graph runs** (`dual_filter` + cached `Gm`, or an empty fixpoint)
///   never touch raw data adjacency — [`match_with_prepared_counted`] runs straight off
///   the overlay-maintained state with no flat graph at all.
/// * **Unprepared runs** (no `dual_filter` — the plain-`Match` shapes) with a dirty set
///   localise first: every dirty ball lives within `radius` of its center (Prop. 3), so
///   the pass extracts the dirty region `D⁺` (all nodes within `radius` of a dirty
///   center) from the overlay and runs over that dense subgraph. Ball membership,
///   distances (hence borders) and induced edges inside `D⁺` equal the full graph's —
///   a ball only ever sees nodes within `radius` of its center, and shortest paths of
///   length `≤ radius` from a dirty center stay inside `D⁺` — so the translated rows
///   are bit-identical to a full-graph pass. When `D⁺` covers more than half of `|V|`
///   the extraction stops paying and the pass falls back to one bulk materialisation
///   with the same dirty restriction.
/// * Everything else (full passes without `Gm`, and the `dual_filter` + full-graph
///   oracle substrate) materialises the overlay once — status-quo cost, oracle-only
///   shapes.
fn run_pattern_pass(
    query: QueryRef<'_, MatchConfig>,
    data: &OverlayGraph,
    dirty: Option<&BitSet>,
    cache: &mut SubstrateCache,
) -> MatchOutput {
    let QueryRef { pattern, state, .. } = query;
    // Deduplication is re-applied over the spliced rows.
    let run_cfg = MatchConfig {
        deduplicate: false,
        ..*query.config
    };
    let run = |data: DataRef<'_>, dirty: Option<&BitSet>| {
        match_impl(MatchPlan::for_state(pattern, data, &run_cfg, state, dirty))
    };
    let n = data.node_count();
    if let Some(p) = state.prepared() {
        if p.gm.is_some() || !p.relation.is_total() {
            return run(DataRef::CountOnly(n), dirty);
        }
        return run(DataRef::Flat(cache.flat(data)), dirty);
    }
    let Some(dirty) = dirty else {
        return run(DataRef::Flat(cache.flat(data)), None);
    };
    // The region only grows from the dirty set; past half the graph the
    // extraction loses to the bulk merge, so skip even the region sweep.
    if dirty.len() * 2 > n {
        return run(DataRef::Flat(cache.flat(data)), Some(dirty));
    }
    let entry = cache.ensure_region(data, state.radius, dirty);
    if cache.regions[entry].extraction.is_none() {
        return run(DataRef::Flat(cache.flat(data)), Some(dirty));
    }
    let (sub, dirty_inner) = cache.regions[entry]
        .extraction
        .as_ref()
        .expect("checked above");
    let out = run(DataRef::Flat(sub.graph()), Some(dirty_inner));
    // The extraction's id map is monotone, so translated rows keep their
    // ascending-center order and splice directly.
    MatchOutput {
        subgraphs: out
            .subgraphs
            .into_iter()
            .map(|row| translate_to_outer(row, sub))
            .collect(),
        stats: out.stats,
    }
}

/// Copies the structurally distinct rows, keeping the first occurrence of each
/// structure — the matcher's dedup, re-applied over every splice (deduplication is a
/// cross-row operation: a dirty center's new row can legitimise or shadow a clean
/// center's cached one, so it can never be cached per row). Clones only the kept rows,
/// so the per-update cost tracks the output size, not the cache size.
fn deduped_copy(rows: &[PerfectSubgraph]) -> Vec<PerfectSubgraph> {
    distinct_indices(rows)
        .into_iter()
        .map(|i| rows[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_data() -> Graph {
        let labels: Vec<Label> = (0..12u32).map(|i| Label(i % 2)).collect();
        let edges: Vec<(u32, u32)> = (0..11u32).map(|i| (i, i + 1)).collect();
        Graph::from_edges(labels, &edges).unwrap()
    }

    fn path_pattern(labels: &[u32]) -> Pattern {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        Pattern::from_edges(labels.iter().map(|&l| Label(l)).collect(), &edges).unwrap()
    }

    #[test]
    fn builder_assembles_a_path() {
        let built = PatternBuilder::new()
            .component("a", Label(0))
            .component("b", Label(1))
            .one_way_direction("a", "b")
            .build()
            .unwrap();
        assert_eq!(built, path_pattern(&[0, 1]));
    }

    #[test]
    fn builder_reports_undefined_endpoints_and_duplicates() {
        let missing = PatternBuilder::new()
            .component("a", Label(0))
            .one_way_direction("a", "ghost")
            .build();
        assert_eq!(
            missing,
            Err(BuilderError::UndefinedEndpoint {
                source: "a".into(),
                target: "ghost".into(),
                missing: "ghost".into(),
            })
        );
        let dup = PatternBuilder::new()
            .component("a", Label(0))
            .component("a", Label(1))
            .build();
        assert_eq!(dup, Err(BuilderError::DuplicateComponent("a".into())));
        assert_eq!(
            PatternBuilder::new().build(),
            Err(BuilderError::NoComponents)
        );
    }

    #[test]
    fn service_tracks_independent_sessions_through_a_delta() {
        let data = chain_data();
        let patterns = [path_pattern(&[0, 1]), path_pattern(&[1, 0])];
        let config = MatchConfig::optimized();
        let mut service = QueryService::new(data.clone());
        let ids: Vec<QueryId> = patterns
            .iter()
            .map(|p| service.register(p, config))
            .collect();
        let mut oracles: Vec<(QueryService, QueryId)> = patterns
            .iter()
            .map(|p| {
                let mut oracle = QueryService::new(data.clone());
                let id = oracle.register(p, config);
                (oracle, id)
            })
            .collect();
        for (id, (oracle, sole)) in ids.iter().zip(&oracles) {
            assert_eq!(
                service.output(*id).unwrap(),
                oracle.output(*sole).unwrap(),
                "initial output"
            );
        }
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(5), NodeId(6));
        delta.insert_edge(NodeId(6), NodeId(5));
        let update = service.apply(&delta).unwrap();
        assert_eq!(update.queries.len(), 2);
        // optimized() is a Gm-substrate shape: it sweeps its own cached extraction,
        // so the shared data-edge sweep plane stays idle.
        assert_eq!(update.sharing.edge_sweep_radii, 0);
        assert_eq!(update.sharing.edge_sweep_consumers, 0);
        for (id, (oracle, sole)) in ids.iter().zip(oracles.iter_mut()) {
            oracle.apply(&delta).unwrap();
            assert_eq!(
                service.output(*id).unwrap(),
                oracle.output(*sole).unwrap(),
                "post-delta"
            );
            assert_eq!(
                service.last_update(*id).unwrap(),
                oracle.last_update(*sole).unwrap(),
                "per-query stats"
            );
        }
    }

    #[test]
    fn registry_lifecycle_register_deregister_reuse() {
        let data = chain_data();
        let mut service = QueryService::new(data);
        let a = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        let b = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        assert_ne!(a, b, "identical queries get distinct ids");
        assert_eq!(service.len(), 2);
        assert_eq!(service.output(a), service.output(b));
        assert!(service.deregister(a));
        assert!(!service.deregister(a), "double deregister is a no-op");
        assert_eq!(service.len(), 1);
        assert!(service.output(a).is_none(), "stale handle goes dark");
        assert!(service.output(b).is_some());
        let c = service.register(&path_pattern(&[1, 0]), MatchConfig::basic());
        assert!(c > b, "ids are never reused");
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(0), NodeId(1));
        let update = service.apply(&delta).unwrap();
        assert_eq!(update.queries.len(), 2, "only live queries are updated");
    }

    #[test]
    fn signature_groups_merge_transitively() {
        let data = chain_data();
        let mut service = QueryService::new(data);
        let a = service.register(&path_pattern(&[0, 0]), MatchConfig::basic());
        let b = service.register(&path_pattern(&[1, 1]), MatchConfig::basic());
        assert_eq!(service.signature_groups(), vec![vec![a], vec![b]]);
        // {0,1} overlaps both — everything merges.
        let c = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        assert_eq!(service.signature_groups(), vec![vec![a, b, c]]);
    }

    #[test]
    fn invalid_delta_leaves_every_query_untouched() {
        let data = chain_data();
        let mut service = QueryService::new(data);
        let id = service.register(&path_pattern(&[0, 1]), MatchConfig::basic());
        let before = service.output(id).unwrap().clone();
        let epoch = service.epoch();
        let mut bad = GraphDelta::new();
        bad.delete_edge(NodeId(1), NodeId(0)); // not present
        assert!(service.apply(&bad).is_err());
        assert_eq!(service.output(id).unwrap(), &before);
        assert_eq!(service.epoch(), epoch);
    }
}
