//! Multi-pattern query service: standing queries over one shared, mutating graph — and
//! the only code that applies a delta to a maintained match.
//!
//! Production traffic is many concurrent patterns standing over the same data graph.
//! Naively that is N independent sessions — N private copies of the substrate, N delta
//! applications, N edge-ball sweeps and N region extractions per update, even though
//! every one of those is a pure function of the *shared* graph. [`QueryService`]
//! collapses the redundancy without giving up the per-pattern bit-identity contract.
//! It owns the apply: a private [`crate::incremental::IncrementalMatcher`] session is a
//! one-query service, and the distributed service reuses the substrate half of the
//! apply ([`SubstrateStep`], [`fold_batch`]) with its own per-query coordinator pass.
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
//!    sweep their own cached extractions exactly as a private session would.
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
//!    stats — is bit-identical to a private session fed the same deltas, and its rows
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

use crate::incremental::{splice_rows, PatternState, UpdatePlan, UpdateStats};
use crate::match_graph::PerfectSubgraph;
use crate::strong::{
    distinct_indices, match_with_prepared, match_with_prepared_counted, translate_to_outer,
    MatchConfig, MatchOutput, MatchStats,
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

/// One registered standing query: its pattern, configuration, maintained
/// [`PatternState`] and cached output — everything but the shared substrate.
struct Session {
    pattern: Pattern,
    config: MatchConfig,
    signature: BTreeSet<Label>,
    state: PatternState,
    /// Pre-deduplication rows (ascending ball center, data-graph ids); present exactly
    /// when the configuration deduplicates, because deduplication is a cross-row
    /// operation that must be re-applied over every splice. Otherwise
    /// `output.subgraphs` itself is the row cache and splices happen in place.
    dedup_rows: Option<Vec<PerfectSubgraph>>,
    output: MatchOutput,
    last_update: UpdateStats,
}

/// Per-query slice of a [`ServiceUpdate`].
#[derive(Debug, Clone)]
pub struct QueryUpdate {
    /// The query the stats belong to.
    pub id: QueryId,
    /// The same accounting a private session's `last_update()` would report.
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

/// A registry of standing queries over one shared, epoch-versioned data graph.
///
/// See the [module docs](self) for the sharing model. The contract: after every
/// [`QueryService::apply`], each registered query's [`QueryService::output`] is
/// bit-identical — rows and stats — to a service holding that query alone, constructed
/// on the same initial graph and fed the same deltas.
pub struct QueryService {
    substrate: VersionedGraph,
    sessions: Vec<Option<Session>>,
}

impl QueryService {
    /// A service over `data` with no registered queries.
    pub fn new(data: Graph) -> Self {
        QueryService {
            substrate: VersionedGraph::new(data),
            sessions: Vec::new(),
        }
    }

    /// Registers a standing query and runs its initial match over the current graph.
    ///
    /// `config.update_plan` is ignored: the service *is* the incremental plan (the
    /// recompute oracle exists as N independent sessions, which is exactly what the
    /// differential suite runs). If an already-registered query has the same pattern
    /// and shape-relevant configuration, its maintained state is cloned instead of
    /// recomputing the global fixpoint — bit-identical by purity, cheaper by one
    /// fixpoint and one `Gm` extraction.
    pub fn register(&mut self, pattern: &Pattern, config: MatchConfig) -> QueryId {
        let data = self.substrate.published();
        let state = self.reusable_state(pattern, &config).unwrap_or_else(|| {
            PatternState::new(
                pattern,
                data,
                config.minimize_query,
                config.radius_override,
                config.dual_filter,
                config.ball_substrate,
                config.refine_strategy,
            )
        });
        let run_cfg = MatchConfig {
            deduplicate: false,
            update_plan: UpdatePlan::Incremental,
            ..config
        };
        // One unrestricted prepared pass over the current graph (copy-free off the base
        // CSR while the overlay is flat).
        let flat;
        let graph = if data.is_flat() {
            data.base()
        } else {
            flat = data.to_graph();
            &flat
        };
        let out = match_with_prepared(pattern, graph, &run_cfg, state.prepared(), None);
        let (dedup_rows, subgraphs) = if config.deduplicate {
            let subgraphs = deduped_copy(&out.subgraphs);
            (Some(out.subgraphs), subgraphs)
        } else {
            (None, out.subgraphs)
        };
        let output = MatchOutput {
            stats: refreshed_pattern_stats(out.stats, &state, data.node_count(), subgraphs.len()),
            subgraphs,
        };
        let signature = pattern
            .nodes()
            .map(|u| pattern.label(u))
            .collect::<BTreeSet<Label>>();
        let n = data.node_count();
        self.sessions.push(Some(Session {
            pattern: pattern.clone(),
            config,
            signature,
            state,
            dedup_rows,
            output,
            last_update: UpdateStats::full_pass(n),
        }));
        QueryId(self.sessions.len() - 1)
    }

    /// A clone of an already-registered query's maintained state, when one with the
    /// same pattern and the same shape-relevant configuration exists. The maintained
    /// state is a pure function of those inputs over the current graph, so the clone
    /// is bit-identical to recomputing.
    fn reusable_state(&self, pattern: &Pattern, config: &MatchConfig) -> Option<PatternState> {
        self.sessions.iter().flatten().find_map(|s| {
            let same_shape = s.pattern == *pattern
                && s.config.minimize_query == config.minimize_query
                && s.config.radius_override == config.radius_override
                && s.config.dual_filter == config.dual_filter
                && s.config.ball_substrate == config.ball_substrate
                && s.config.refine_strategy == config.refine_strategy;
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

    /// The cached match result of one query over the current graph.
    pub fn output(&self, id: QueryId) -> Option<&MatchOutput> {
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
    pub fn config(&self, id: QueryId) -> Option<&MatchConfig> {
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

    /// The published substrate version.
    pub(crate) fn published(&self) -> &OverlayGraph {
        self.substrate.published()
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
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<ServiceUpdate, GraphError> {
        let step = SubstrateStep::run(
            &mut self.substrate,
            delta,
            self.sessions.iter().flatten().map(|s| &s.state),
        )?;
        let data = self.substrate.published();
        let n = data.node_count();
        let mut cache = SubstrateCache::new();
        let mut queries = Vec::new();
        for (i, slot) in self.sessions.iter_mut().enumerate() {
            let Some(sess) = slot else { continue };
            let (pre, post) = step.edge_dirty(&sess.state);
            let effect = sess.state.advance_applied(data, delta, pre, post);
            let run_cfg = MatchConfig {
                deduplicate: false,
                ..sess.config
            };
            // Adaptive dirty-fraction bail: when the delta invalidates nearly every ball,
            // region extraction + splicing costs more than the unrestricted pass it
            // would orchestrate, so run from scratch and replace the rows wholesale.
            let bailed = effect.dirty.len() > (DIRTY_BAIL_FRACTION * n as f64) as usize;
            let dirty = (!bailed).then_some(&effect.dirty);
            let out = run_pattern_pass(
                &sess.pattern,
                data,
                &sess.state,
                &run_cfg,
                dirty,
                &mut cache,
            );
            let rows = match &mut sess.dedup_rows {
                Some(rows) => rows,
                None => &mut sess.output.subgraphs,
            };
            match dirty {
                Some(dirty) => splice_rows(rows, dirty, out.subgraphs),
                None => *rows = out.subgraphs,
            }
            if let Some(rows) = &sess.dedup_rows {
                sess.output.subgraphs = deduped_copy(rows);
            }
            sess.output.stats =
                refreshed_pattern_stats(out.stats, &sess.state, n, sess.output.subgraphs.len());
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
            queries,
            sharing: step.sharing(self.len(), &cache),
        })
    }

    /// Applies a batch of deltas as **one** maintenance step: the stream is folded into
    /// its net delta ([`fold_batch`]) and fed through a single [`QueryService::apply`] —
    /// so sweeps, fixpoint maintenance and the restricted passes are paid once per batch
    /// for *every* registered query. A mid-stream validation error leaves the substrate
    /// and every query untouched.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<ServiceUpdate, GraphError> {
        match fold_batch(self.substrate.published(), deltas)? {
            Some(net) => self.apply(&net),
            None => Ok(ServiceUpdate {
                epoch: self.substrate.epoch(),
                compacted: false,
                queries: Vec::new(),
                sharing: SharingStats {
                    sessions: self.len(),
                    ..SharingStats::default()
                },
            }),
        }
    }

    fn session(&self, id: QueryId) -> Option<&Session> {
        self.sessions.get(id.0).and_then(|s| s.as_ref())
    }
}

/// The substrate half of one service apply, written once for [`QueryService`] and the
/// distributed service: the delta validated and landed on the shared [`VersionedGraph`]
/// exactly once, with the data-edge ball sweeps run once per distinct radius. Deleted
/// edges localise in the pre-update graph and inserted edges in the post-update one —
/// per edge, exactly the centers holding both endpoints within `dQ` are dirtied (the
/// balls that contain the edge). Patterns on the `Gm` substrate sweep their own cached
/// extractions inside [`PatternState::advance_applied`] instead.
pub struct SubstrateStep {
    /// `(pre, post)` sweeps per distinct radius among the patterns that sweep data edges.
    sweeps: BTreeMap<usize, (BitSet, BitSet)>,
    /// What patterns that sweep their own extractions receive.
    empty: BitSet,
    /// Patterns that consume a shared sweep.
    consumers: usize,
    /// The overlay compacted back to a flat base CSR during this apply.
    pub compacted: bool,
}

impl SubstrateStep {
    /// Validates `delta` against the published version, sweeps its deleted edges there,
    /// stages and publishes it, and sweeps its inserted edges on the new version — at
    /// every radius some pattern of `states` sweeps data edges at. Fails, leaving the
    /// substrate untouched, when the delta does not validate.
    pub fn run<'a>(
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
    pub fn edge_dirty(&self, state: &PatternState) -> (&BitSet, &BitSet) {
        match self.sweeps.get(&state.radius) {
            Some((pre, post)) if state.sweeps_data_edges() => (pre, post),
            _ => (&self.empty, &self.empty),
        }
    }

    /// The apply's sharing accounting over `sessions` live queries, with the substrate
    /// counters of the per-query passes' shared `cache`.
    pub fn sharing(&self, sessions: usize, cache: &SubstrateCache) -> SharingStats {
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

/// The batch fold both services share: checks each delta of the stream in order on a
/// clone of the published overlay (`O(patch-slots)` — the base CSR is shared behind an
/// `Arc`), so a mid-stream error leaves everything untouched, and composes the stream
/// into its net delta ([`GraphDelta::then`]). `None` for an empty stream; a single delta
/// comes back as is, for its apply to validate.
pub fn fold_batch<'d>(
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

/// Dirty fraction above which [`QueryService::apply`] abandons the restricted
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

    /// The flat materialisation of `data`, built on first request.
    pub fn flat(&mut self, data: &OverlayGraph) -> &Graph {
        if self.flat.is_none() {
            self.builds += 1;
            self.flat = Some(data.to_graph());
        } else {
            self.reuses += 1;
        }
        self.flat.as_ref().expect("just ensured")
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
    pattern: &Pattern,
    data: &OverlayGraph,
    ps: &PatternState,
    run_cfg: &MatchConfig,
    dirty: Option<&BitSet>,
    cache: &mut SubstrateCache,
) -> MatchOutput {
    let n = data.node_count();
    if let Some(p) = ps.prepared() {
        if p.gm.is_some() || !p.relation.is_total() {
            return match_with_prepared_counted(pattern, n, run_cfg, p, dirty);
        }
        let flat = cache.flat(data);
        return match_with_prepared(pattern, flat, run_cfg, Some(p), dirty);
    }
    let Some(dirty) = dirty else {
        let flat = cache.flat(data);
        return match_with_prepared(pattern, flat, run_cfg, None, None);
    };
    // The region only grows from the dirty set; past half the graph the
    // extraction loses to the bulk merge, so skip even the region sweep.
    if dirty.len() * 2 > n {
        let flat = cache.flat(data);
        return match_with_prepared(pattern, flat, run_cfg, None, Some(dirty));
    }
    let entry = cache.ensure_region(data, ps.radius, dirty);
    if cache.regions[entry].extraction.is_none() {
        let flat = cache.flat(data);
        return match_with_prepared(pattern, flat, run_cfg, None, Some(dirty));
    }
    let (sub, dirty_inner) = cache.regions[entry]
        .extraction
        .as_ref()
        .expect("checked above");
    let out = match_with_prepared(pattern, sub.graph(), run_cfg, None, Some(dirty_inner));
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

/// Describes a query's current state in the stats carried by its cached output (work
/// counters keep describing the most recent — restricted — run).
fn refreshed_pattern_stats(
    mut stats: MatchStats,
    ps: &PatternState,
    node_count: usize,
    subgraph_count: usize,
) -> MatchStats {
    stats.perfect_subgraphs = subgraph_count;
    stats.radius = ps.radius;
    stats.balls_considered = node_count;
    if let Some(gm) = &ps.gm_cache {
        stats.gm_nodes = gm.subgraph().node_count();
        stats.gm_edges = gm.subgraph().edge_count();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalMatcher;

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
        let mut oracles: Vec<IncrementalMatcher> = patterns
            .iter()
            .map(|p| IncrementalMatcher::new(p, data.clone(), config))
            .collect();
        for (id, oracle) in ids.iter().zip(&oracles) {
            assert_eq!(
                service.output(*id).unwrap(),
                oracle.output(),
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
        for (id, oracle) in ids.iter().zip(oracles.iter_mut()) {
            oracle.apply(&delta).unwrap();
            assert_eq!(service.output(*id).unwrap(), oracle.output(), "post-delta");
            assert_eq!(
                service.last_update(*id).unwrap(),
                oracle.last_update(),
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
