//! Incremental matching under graph updates: the continuously-serving engine.
//!
//! A one-shot [`crate::strong::strong_simulation`] call answers one query; real traffic
//! mutates the data graph between queries and today's alternative is a full recompute
//! per change. The paper's locality results make updates intrinsically local: every
//! perfect subgraph lives in a ball of radius `dQ` around its center (Proposition 3), so
//! an edge change can only affect the balls whose members lie within substrate distance
//! `dQ` of a node the change touched. [`IncrementalMatcher`] exploits exactly that:
//!
//! 1. **Global relation maintenance.** Under `dual_filter`, the exact global
//!    dual-simulation fixpoint is *maintained* across a [`GraphDelta`] instead of
//!    recomputed: deletions seed the suspect queue of the existing removal-propagation
//!    engine ([`crate::dual_filter`]'s `refine_suspects` — the same capped-counter
//!    cascade the per-ball worklist uses), and insertions run a **bounded candidate
//!    re-admission**: a pair-level closure over `pattern adjacency × data adjacency`
//!    from the inserted endpoints collects every label-eligible pair the new edges can
//!    possibly have revived, which is then re-verified by the same suspect cascade.
//!    The closure is exact — a superset of the true fixpoint gain (see
//!    [`update_global_fixpoint`] for the argument) — and budgeted: floods fall back to a
//!    from-scratch fixpoint.
//! 2. **`Gm` re-extraction policy.** The match-graph substrate re-extracts `Gm` only
//!    when the matched-node set changed or a delta edge lands inside it; otherwise the
//!    cached extraction (and its id translation) is reused. Its candidate adjacency
//!    ([`GmSubstrate`]) is kept too when the fixpoint did not change, and rebuilt with
//!    the renumbered relation otherwise.
//! 3. **Dirty-ball invalidation.** Candidacy-changed nodes seed a dQ-bounded
//!    multi-source BFS (any ball holding such a node is suspect); delta edges dirty
//!    exactly the balls *containing* them — the centers within `dQ` of **both**
//!    endpoints ([`mark_edge_ball_centers`]), marked on the side of the update where
//!    the edge exists (pre-update substrate for deletions, post-update for
//!    insertions; `Gm` extractions on the match-graph substrate). Everything outside
//!    the sweeps is provably bit-identical.
//! 4. **Row splicing.** Only dirty centers re-run through the (unchanged) ball
//!    pipeline — fresh balls, refinement, pruning, extraction — via
//!    [`crate::strong::match_with_prepared`]; their rows are spliced into the cached
//!    pre-deduplication row set, and deduplication is re-applied over the splice, so the
//!    assembled [`MatchOutput`] is bit-identical to a full recompute.
//!
//! [`UpdatePlan::Recompute`] is the oracle (pinned by
//! [`crate::strong::MatchConfig::seed_reference`]): it applies the delta and re-runs the
//! full matcher. `tests/incremental_update_equivalence.rs` holds both plans bit-identical
//! along random delta streams, across the sequential, parallel and distributed runtimes,
//! with the other three engine axes pinned and composed.

use crate::ball::BallSubstrate;
use crate::dual::global_dual_simulation;
use crate::dual_filter::refine_suspects;
use crate::gm::GmSubstrate;
use crate::match_graph::PerfectSubgraph;
use crate::minimize::minimize_pattern;
use crate::relation::MatchRelation;
use crate::simulation::RefineStrategy;
use crate::strong::{
    distinct_indices, match_with_prepared, match_with_prepared_counted, translate_to_outer,
    MatchConfig, MatchOutput, MatchStats,
};
use ssim_graph::delta::{mark_edge_ball_centers, mark_within_distance};
use ssim_graph::{
    AdjView, BitSet, ExtractedSubgraph, Graph, GraphDelta, GraphEpoch, GraphError, NodeId,
    OverlayGraph, Pattern,
};
use std::collections::VecDeque;

/// How a cached match result reacts to a graph delta — an oracle axis next to
/// `RefineStrategy × BallSubstrate × RepetitionSemantics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePlan {
    /// Maintain the global relation under the delta, invalidate only the dirty balls
    /// (Prop. 3 locality) and splice their fresh rows into the cached output.
    #[default]
    Incremental,
    /// Apply the delta and recompute the whole match from scratch. The equivalence
    /// oracle, and the baseline the `incremental_update` bench ratios are measured
    /// against.
    Recompute,
}

/// The maintained global dual-simulation state handed to
/// [`crate::strong::match_with_prepared`]: the exact global fixpoint plus, on the
/// match-graph substrate, the cached [`GmSubstrate`] (`Gm`, the fixpoint renumbered into
/// it and its candidate adjacency).
#[derive(Clone, Copy)]
pub struct PreparedGlobal<'a> {
    /// Exact global fixpoint for the *effective* (minimised) pattern over the data
    /// graph. Non-total means empty — patterns are connected, so the true non-total
    /// fixpoint is exactly the empty relation.
    pub relation: &'a MatchRelation,
    /// The `Gm` substrate; present exactly when the consuming configuration runs on
    /// [`BallSubstrate::MatchGraph`] and the fixpoint is total.
    /// [`crate::strong::match_with_prepared`] extracts it from `relation` when absent.
    pub gm: Option<&'a GmSubstrate>,
}

/// Computes the exact greatest dual-simulation fixpoint of `pattern` over `data`, with
/// the non-total case normalised to the literal empty relation.
///
/// Under [`RefineStrategy::Worklist`] the refinement starts from the neighbourhood-seeded
/// [`crate::simulation::dual_candidates`], under `NaiveFixpoint` from the label classes;
/// both contain the fixpoint, so both reach it exactly.
///
/// `dual_simulation_with` discards non-total results, and the worklist engine exits
/// early on an emptied candidate set with a partially refined relation — either would
/// poison incremental maintenance, which needs the true fixpoint as its base. Patterns
/// are connected, so a non-total fixpoint is exactly empty (an empty candidate set makes
/// every pair on an adjacent pattern node unsupported, and emptiness spreads over the
/// whole pattern), which makes the normalisation exact.
///
/// Generic over [`AdjView`] so the fixpoint can be computed directly against a flat
/// [`Graph`] or an [`OverlayGraph`] — the overlay merges its patches during iteration,
/// so no flat materialisation is needed to (re)establish the relation.
pub fn global_fixpoint<V: AdjView>(
    pattern: &Pattern,
    data: &V,
    strategy: RefineStrategy,
) -> MatchRelation {
    global_dual_simulation(pattern, data, strategy)
        .unwrap_or_else(|| MatchRelation::empty(pattern.node_count(), data.id_space()))
}

/// The result of maintaining the global fixpoint across one delta.
pub struct FixpointUpdate {
    /// The exact fixpoint over the updated graph (empty when non-total).
    pub relation: MatchRelation,
    /// Data nodes whose candidacy changed for at least one pattern node.
    pub changed_nodes: BitSet,
    /// Pairs present after the update that were absent before.
    pub pairs_gained: usize,
    /// Pairs present before the update that are absent after.
    pub pairs_lost: usize,
    /// The re-admission closure flooded and the fixpoint was recomputed from scratch
    /// (still exact; the budget only bounds the incremental path's work).
    pub recomputed: bool,
}

/// Maintains the exact global dual-simulation fixpoint across one [`GraphDelta`].
///
/// `old` must be the exact fixpoint of `pattern` over the pre-delta graph and
/// `new_data` the post-delta graph. Deletions can only *remove* pairs: each deleted data
/// edge seeds the pairs on its endpoints as suspects of the removal cascade. Insertions
/// can only *add* pairs: the re-admission closure collects, starting from the
/// label-eligible pairs on inserted endpoints and propagating through
/// `pattern adjacency × data adjacency`, every pair the insertions can have revived.
///
/// **Exactness.** Let `M` be the true fixpoint over `new_data`, `R` the old fixpoint and
/// `B` the closure. Every pair of `M \ R` has, for each pattern edge, a support witness
/// in `M`; if any witness edge is newly inserted the pair is a closure seed, and if a
/// witness pair is itself in `M \ R` the closure's propagation step reaches the pair
/// from it — so a pair of `M` outside `R ∪ B` would have all its support on old edges
/// and `R`-or-likewise-outside pairs, making `R ∪ (M \ (R ∪ B))` a valid pre-fixpoint
/// over the *old* graph and contradicting `R`'s maximality. Hence `M ⊆ R ∪ B`, and the
/// suspect cascade (which verifies every admitted pair and every deletion-affected pair,
/// and re-checks neighbours of each removal) refines `R ∪ B` down to exactly `M`.
pub fn update_global_fixpoint<V: AdjView>(
    pattern: &Pattern,
    new_data: &V,
    delta: &GraphDelta,
    old: &MatchRelation,
    strategy: RefineStrategy,
) -> FixpointUpdate {
    let n = new_data.id_space();
    let q = pattern.graph();
    let mut rel = old.clone();
    let mut suspects: Vec<(NodeId, NodeId)> = Vec::new();

    // Deletions: a removed data edge carried child support only for pairs on its source
    // and parent support only for pairs on its target.
    for (v, w) in delta.deleted_edges() {
        for u in rel.pattern_nodes_matching(v) {
            suspects.push((u, v));
        }
        for u in rel.pattern_nodes_matching(w) {
            suspects.push((u, w));
        }
    }

    // Insertions: bounded candidate re-admission. `admitted` doubles as the dedup set
    // and the record of what to splice in; the budget bounds the closure at roughly the
    // relation's own size before bailing to a scratch fixpoint — a flood means the
    // insertions revived a region comparable to the whole relation, where scratch
    // refinement does the same work with better constants.
    let mut admitted = MatchRelation::empty(pattern.node_count(), n);
    let mut admit_count = 0usize;
    let budget = 2 * old.pair_count() + 16 * delta.op_count() * pattern.node_count() + 256;
    let mut queue: VecDeque<(NodeId, NodeId)> = VecDeque::new();
    let mut flooded = false;
    for (v, w) in delta.inserted_edges() {
        for (u, u_child) in q.edges() {
            for (pu, pv) in [(u, v), (u_child, w)] {
                if pattern.label(pu) == new_data.label(pv)
                    && !rel.contains(pu, pv)
                    && admitted.insert(pu, pv)
                {
                    admit_count += 1;
                    queue.push_back((pu, pv));
                }
            }
        }
    }
    while let Some((u, w)) = queue.pop_front() {
        if admit_count > budget {
            flooded = true;
            break;
        }
        // (u, w)'s presence can revive child support of in-neighbour pairs under
        // pattern in-edges of u…
        for u2 in q.in_neighbors(u) {
            for w2 in new_data.in_neighbors(w) {
                if pattern.label(u2) == new_data.label(w2)
                    && !rel.contains(u2, w2)
                    && admitted.insert(u2, w2)
                {
                    admit_count += 1;
                    queue.push_back((u2, w2));
                }
            }
        }
        // …and parent support of out-neighbour pairs under pattern out-edges of u.
        for u3 in q.out_neighbors(u) {
            for w3 in new_data.out_neighbors(w) {
                if pattern.label(u3) == new_data.label(w3)
                    && !rel.contains(u3, w3)
                    && admitted.insert(u3, w3)
                {
                    admit_count += 1;
                    queue.push_back((u3, w3));
                }
            }
        }
    }

    let relation = if flooded {
        global_fixpoint(pattern, new_data, strategy)
    } else {
        for (u, w) in admitted.pairs() {
            rel.insert(u, w);
            suspects.push((u, w));
        }
        let refined = refine_suspects(pattern, new_data, rel, suspects, None);
        debug_assert!(
            refined.is_total() || refined.is_empty(),
            "connected patterns have all-or-nothing fixpoints"
        );
        if refined.is_total() {
            refined
        } else {
            MatchRelation::empty(pattern.node_count(), n)
        }
    };

    let mut changed_nodes = BitSet::new(n);
    let mut pairs_gained = 0usize;
    let mut pairs_lost = 0usize;
    for u in pattern.nodes() {
        let before = old.candidates(u);
        let after = relation.candidates(u);
        changed_nodes.union_symmetric_diff(before, after);
        pairs_gained += after.iter().filter(|&v| !before.contains(v)).count();
        pairs_lost += before.iter().filter(|&v| !after.contains(v)).count();
    }
    FixpointUpdate {
        relation,
        changed_nodes,
        pairs_gained,
        pairs_lost,
        recomputed: flooded,
    }
}

/// What one delta did to a maintained [`IncrementalState`].
pub struct DeltaEffect {
    /// Ball centers whose cached result can have changed, in data-graph ids: nodes
    /// within substrate distance `≤ radius` of a touched node in the pre- or post-update
    /// substrate (Prop. 3 locality).
    pub dirty: BitSet,
    /// See [`FixpointUpdate::pairs_gained`] (0 without `dual_filter`).
    pub pairs_gained: usize,
    /// See [`FixpointUpdate::pairs_lost`] (0 without `dual_filter`).
    pub pairs_lost: usize,
    /// See [`FixpointUpdate::recomputed`].
    pub relation_recomputed: bool,
    /// The `Gm` extraction was rebuilt (matched set changed, or a delta edge landed
    /// inside `Gm`); `false` when the cached extraction was reused or none exists.
    pub gm_reextracted: bool,
    /// The overlay's patch mass crossed the compaction threshold during this apply and
    /// was folded back into a flat base CSR.
    pub compacted: bool,
    /// Epoch of the substrate after the apply.
    pub epoch: GraphEpoch,
}

/// The per-pattern half of a maintained incremental session: everything a standing
/// query carries *except* the data graph — the effective pattern, its localisation
/// parameters, the exact global fixpoint (under `dual_filter`), the matched-node set
/// and the cached `Gm` extraction.
///
/// Splitting this off the substrate is what makes multi-pattern serving possible: a
/// [`crate::service::QueryService`] holds **one** shared [`OverlayGraph`] and one
/// `PatternState` per registered query, applies each delta to the substrate once, and
/// moves every pattern across it via [`PatternState::advance_applied`] — handing the
/// substrate-only edge-ball sweeps in pre-computed, so they are paid once per radius
/// instead of once per pattern. A single-pattern [`IncrementalState`] is exactly the
/// `{substrate, pattern}` pair.
///
/// `Clone` is deliberate: the state is a pure, deterministic function of its
/// construction inputs over the current graph, so a clone is bit-identical to
/// recomputing — which lets a registry reuse the fixpoint of an already-registered
/// identical query instead of paying it again.
#[derive(Clone)]
pub struct PatternState {
    /// The effective pattern: minimised when the configuration minimises queries.
    pub effective: Pattern,
    /// Ball radius (the *original* pattern's diameter unless overridden — Lemma 3).
    pub radius: usize,
    /// Whether a global fixpoint is maintained at all.
    pub dual_filter: bool,
    /// Which substrate the consuming pipeline localises in.
    pub substrate: BallSubstrate,
    /// Refinement engine used for scratch fixpoints.
    pub refine_strategy: RefineStrategy,
    /// Exact global fixpoint over the shared data graph (`dual_filter` only).
    pub fixpoint: Option<MatchRelation>,
    /// Matched-node set of the fixpoint, in data-graph ids.
    pub matched: BitSet,
    /// Cached `Gm` substrate (extraction, renumbered fixpoint, candidate adjacency);
    /// present exactly when `dual_filter`, the match-graph substrate and a total
    /// fixpoint coincide.
    pub gm_cache: Option<GmSubstrate>,
}

/// What one (already-applied) delta did to a [`PatternState`] — the pattern-local
/// subset of [`DeltaEffect`], without the substrate bookkeeping.
pub struct PatternEffect {
    /// See [`DeltaEffect::dirty`].
    pub dirty: BitSet,
    /// See [`FixpointUpdate::pairs_gained`] (0 without `dual_filter`).
    pub pairs_gained: usize,
    /// See [`FixpointUpdate::pairs_lost`] (0 without `dual_filter`).
    pub pairs_lost: usize,
    /// See [`FixpointUpdate::recomputed`].
    pub relation_recomputed: bool,
    /// See [`DeltaEffect::gm_reextracted`].
    pub gm_reextracted: bool,
}

impl PatternState {
    /// Builds the pattern state against the current `data`: computes the global
    /// fixpoint and the `Gm` extraction the configuration calls for.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pattern: &Pattern,
        data: &OverlayGraph,
        minimize: bool,
        radius_override: Option<usize>,
        dual_filter: bool,
        substrate: BallSubstrate,
        refine_strategy: RefineStrategy,
    ) -> Self {
        let (effective, radius) = if minimize {
            let m = minimize_pattern(pattern);
            let radius = radius_override.unwrap_or(m.original_diameter);
            (m.pattern, radius)
        } else {
            (
                pattern.clone(),
                radius_override.unwrap_or(pattern.diameter()),
            )
        };
        let mut state = PatternState {
            effective,
            radius,
            dual_filter,
            substrate,
            refine_strategy,
            matched: BitSet::new(data.node_count()),
            fixpoint: None,
            gm_cache: None,
        };
        if dual_filter {
            let fix = global_fixpoint(&state.effective, data, refine_strategy);
            fix.matched_data_nodes_into(&mut state.matched);
            if state.substrate == BallSubstrate::MatchGraph && fix.is_total() {
                let sub = ExtractedSubgraph::induced(data, &state.matched);
                let inner = fix.renumber_through(&sub);
                state.gm_cache = Some(GmSubstrate::new(&state.effective, sub, inner));
            }
            state.fixpoint = Some(fix);
        }
        state
    }

    /// The maintained state in the form [`match_with_prepared`] consumes; `None` when no
    /// fixpoint is maintained (configurations without `dual_filter`).
    pub fn prepared(&self) -> Option<PreparedGlobal<'_>> {
        self.fixpoint.as_ref().map(|relation| PreparedGlobal {
            relation,
            gm: self.gm_cache.as_ref(),
        })
    }

    /// Whether this pattern's dirty sweep runs over the raw data graph (and therefore
    /// consumes the shared pre/post edge-ball sweeps), as opposed to sweeping its own
    /// cached `Gm` extractions. The data-graph sweeps depend only on `(graph, delta
    /// edges, radius)`, so every pattern for which this returns `true` shares them at
    /// equal radius.
    pub fn sweeps_data_edges(&self) -> bool {
        !(self.dual_filter && self.substrate == BallSubstrate::MatchGraph)
    }

    /// Moves the pattern state across a delta that has **already landed** on `data`,
    /// and reports the pattern's dirty centers.
    ///
    /// `pre_edge_dirty` / `post_edge_dirty` are the substrate-only halves of the dirty
    /// sweep — [`mark_edge_ball_centers`] over the *deleted* edges on the pre-update
    /// graph and over the *inserted* edges on the post-update graph, both at
    /// [`PatternState::radius`]. They are inputs (rather than computed here) so a
    /// multi-pattern caller can compute them once per distinct radius and fan them out;
    /// they are ignored when [`PatternState::sweeps_data_edges`] is `false` (the `Gm`
    /// path sweeps its own extractions). [`IncrementalState::advance`] shows the
    /// single-pattern composition.
    pub fn advance_applied(
        &mut self,
        data: &OverlayGraph,
        delta: &GraphDelta,
        pre_edge_dirty: &BitSet,
        post_edge_dirty: &BitSet,
    ) -> PatternEffect {
        let n = data.node_count();
        let mut touched = BitSet::new(n);
        let use_gm = self.dual_filter && self.substrate == BallSubstrate::MatchGraph;
        let mut effect = PatternEffect {
            dirty: BitSet::new(n),
            pairs_gained: 0,
            pairs_lost: 0,
            relation_recomputed: false,
            gm_reextracted: false,
        };

        let old_matched = std::mem::replace(&mut self.matched, BitSet::new(n));
        let mut old_gm: Option<GmSubstrate> = self.gm_cache.take();

        if self.dual_filter {
            let old_fix = self
                .fixpoint
                .take()
                .expect("dual-filter state carries a fixpoint");
            let up = update_global_fixpoint(
                &self.effective,
                data,
                delta,
                &old_fix,
                self.refine_strategy,
            );
            touched.union_with(&up.changed_nodes);
            effect.pairs_gained = up.pairs_gained;
            effect.pairs_lost = up.pairs_lost;
            effect.relation_recomputed = up.recomputed;
            let fix = up.relation;
            fix.matched_data_nodes_into(&mut self.matched);
            if use_gm && fix.is_total() {
                // Gm re-extraction policy: the induced subgraph on the matched set can
                // only change when the set itself changed or a delta edge has both
                // endpoints inside it.
                let delta_inside_gm =
                    delta
                        .inserted_edges()
                        .chain(delta.deleted_edges())
                        .any(|(a, b)| {
                            self.matched.contains(a.index()) && self.matched.contains(b.index())
                        });
                let reuse = self.matched == old_matched && !delta_inside_gm && old_gm.is_some();
                // The candidate lists are a function of `Gm` and the fixpoint: they stand
                // only when both are unchanged.
                let fixpoint_unchanged =
                    up.pairs_gained == 0 && up.pairs_lost == 0 && !up.recomputed;
                let gm = match old_gm.take() {
                    Some(cached) if reuse && fixpoint_unchanged => cached,
                    cached => {
                        let sub = match cached {
                            Some(cached) if reuse => cached.into_subgraph(),
                            cached => {
                                old_gm = cached;
                                effect.gm_reextracted = true;
                                ExtractedSubgraph::induced(data, &self.matched)
                            }
                        };
                        let inner = fix.renumber_through(&sub);
                        GmSubstrate::new(&self.effective, sub, inner)
                    }
                };
                self.gm_cache = Some(gm);
            }
            self.fixpoint = Some(fix);
        }

        // Material delta edges on the match-graph substrate. A deleted edge lives in
        // the old `Gm` iff both endpoints were matched before; an inserted edge lives
        // in the new `Gm` iff both are matched now. An edge material to neither side
        // appears in neither extraction, so — candidacies unchanged — the substrate is
        // untouched around it and its balls are provably clean; endpoints whose
        // candidacy *did* change are already seeds via `changed_nodes`.
        let mut deleted_in_old: Vec<(NodeId, NodeId)> = Vec::new();
        let mut inserted_in_new: Vec<(NodeId, NodeId)> = Vec::new();
        if use_gm {
            deleted_in_old.extend(delta.deleted_edges().filter(|(a, b)| {
                old_matched.contains(a.index()) && old_matched.contains(b.index())
            }));
            inserted_in_new.extend(delta.inserted_edges().filter(|(a, b)| {
                self.matched.contains(a.index()) && self.matched.contains(b.index())
            }));
        }

        // Dirty sweep, one per update side. Candidacy-changed nodes dirty every ball
        // holding them (dQ-bounded BFS from `touched`); delta edges dirty exactly the
        // balls *containing* them — centers within `dQ` of both endpoints, marked on
        // the side of the update where the edge exists. A clean center's ball has
        // identical membership, borders and projected relation on both sides of the
        // delta, so its cached row stands.
        if use_gm {
            // Reused extractions leave `old_gm` empty — reuse required an unchanged
            // matched set and no delta edge inside `Gm`, so the new-side sweep covers
            // the identical graph.
            if let Some(old) = old_gm.as_ref() {
                sweep_extraction(
                    old.subgraph(),
                    &touched,
                    &deleted_in_old,
                    self.radius,
                    &mut effect.dirty,
                );
            }
            if let Some(gm) = self.gm_cache.as_ref() {
                sweep_extraction(
                    gm.subgraph(),
                    &touched,
                    &inserted_in_new,
                    self.radius,
                    &mut effect.dirty,
                );
            }
        } else {
            effect.dirty.union_with(pre_edge_dirty);
            effect.dirty.union_with(post_edge_dirty);
            if !touched.is_empty() {
                mark_within_distance(
                    data,
                    touched.iter().map(NodeId::from_index),
                    self.radius,
                    &mut effect.dirty,
                );
            }
        }
        effect
    }
}

/// The maintained substrate shared by the centralized and distributed incremental
/// drivers: the current graph (as a layered [`OverlayGraph`] — deltas land as per-node
/// patches in `O(patches)` instead of an `O(|V|+|E|)` CSR rebuild) plus the per-pattern
/// half ([`PatternState`]: the exact global fixpoint under `dual_filter`, its
/// matched-node set and the cached `Gm` extraction).
///
/// [`IncrementalState::advance`] moves the whole bundle across one delta and returns
/// the dirty-center set; the drivers then re-run only those centers and splice.
pub struct IncrementalState {
    /// The current data graph (post all applied deltas), as a versioned overlay: the
    /// base flat CSR plus per-node sorted insert/tombstone patches, compacted back to
    /// flat when the patch mass crosses the policy threshold.
    pub data: OverlayGraph,
    /// The per-pattern maintained state over [`Self::data`].
    pub pattern: PatternState,
}

impl IncrementalState {
    /// Builds the state for a fresh graph: computes the global fixpoint and the `Gm`
    /// extraction the configuration calls for.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pattern: &Pattern,
        data: Graph,
        minimize: bool,
        radius_override: Option<usize>,
        dual_filter: bool,
        substrate: BallSubstrate,
        refine_strategy: RefineStrategy,
    ) -> Self {
        let data = OverlayGraph::new(data);
        let pattern = PatternState::new(
            pattern,
            &data,
            minimize,
            radius_override,
            dual_filter,
            substrate,
            refine_strategy,
        );
        IncrementalState { data, pattern }
    }

    /// The maintained state in the form [`match_with_prepared`] consumes; `None` when no
    /// fixpoint is maintained (configurations without `dual_filter`).
    pub fn prepared(&self) -> Option<PreparedGlobal<'_>> {
        self.pattern.prepared()
    }

    /// Moves the state across one delta and reports the dirty centers.
    ///
    /// The delta lands on the overlay in `O(patches)` — validation runs against the
    /// merged state, the per-node patch arrays absorb the edits, and the epoch advances;
    /// a flat CSR is rebuilt only when the overlay's compaction threshold trips. The
    /// substrate-only edge-ball sweeps run here (pre-update side before the patches
    /// land, post-update side after), then [`PatternState::advance_applied`] does the
    /// pattern-local half — the exact composition a multi-pattern service performs with
    /// the sweeps shared across patterns.
    pub fn advance(&mut self, delta: &GraphDelta) -> Result<DeltaEffect, GraphError> {
        let n = self.data.node_count();

        // The non-Gm dirty sweep walks the *pre-update* substrate too — but only the
        // *deleted* edges matter there: an edge's effects (its presence in a ball, and
        // any ball-membership shift riding a path through it) exist on the side of the
        // update where the edge does, so deletions localise in the pre-update graph and
        // insertions in the post-update one. Per edge, exactly the centers holding both
        // endpoints within `dQ` are dirtied — the balls that contain the edge. Sweeping
        // the old side before the patches land costs bounded walks and no snapshot. The
        // Gm path sweeps the cached old extraction instead.
        let mut pre_edge_dirty = BitSet::new(n);
        if self.pattern.sweeps_data_edges() {
            let deleted: Vec<(NodeId, NodeId)> = delta.deleted_edges().collect();
            mark_edge_ball_centers(
                &self.data,
                &deleted,
                self.pattern.radius,
                &mut pre_edge_dirty,
            );
        }
        let compactions_before = self.data.compactions();
        // Validates against the merged state first; the whole bundle is untouched on error.
        self.data.apply_delta(delta)?;
        let mut post_edge_dirty = BitSet::new(n);
        if self.pattern.sweeps_data_edges() {
            let inserted: Vec<(NodeId, NodeId)> = delta.inserted_edges().collect();
            mark_edge_ball_centers(
                &self.data,
                &inserted,
                self.pattern.radius,
                &mut post_edge_dirty,
            );
        }

        let eff =
            self.pattern
                .advance_applied(&self.data, delta, &pre_edge_dirty, &post_edge_dirty);
        Ok(DeltaEffect {
            dirty: eff.dirty,
            pairs_gained: eff.pairs_gained,
            pairs_lost: eff.pairs_lost,
            relation_recomputed: eff.relation_recomputed,
            gm_reextracted: eff.gm_reextracted,
            compacted: self.data.compactions() > compactions_before,
            epoch: self.data.epoch(),
        })
    }
}

/// Sweeps one cached `Gm` extraction for dirty centers: dQ-bounded BFS from the
/// candidacy-changed seeds plus exact ball-containment marking for the delta edges
/// material to this side, all in the extraction's dense ids, translated back to outer
/// ids into `dirty`.
fn sweep_extraction(
    sub: &ExtractedSubgraph,
    changed: &BitSet,
    edges: &[(NodeId, NodeId)],
    radius: usize,
    dirty: &mut BitSet,
) {
    let seeds: Vec<NodeId> = changed
        .iter()
        .filter_map(|o| sub.inner_of(NodeId::from_index(o)))
        .collect();
    let edges_inner: Vec<(NodeId, NodeId)> = edges
        .iter()
        .filter_map(|&(a, b)| Some((sub.inner_of(a)?, sub.inner_of(b)?)))
        .collect();
    if seeds.is_empty() && edges_inner.is_empty() {
        return;
    }
    let mut marked = BitSet::new(sub.node_count());
    mark_within_distance(sub.graph(), seeds, radius, &mut marked);
    mark_edge_ball_centers(sub.graph(), &edges_inner, radius, &mut marked);
    for inner in marked.iter() {
        dirty.insert(sub.outer_of(NodeId::from_index(inner)).index());
    }
}

/// Splices freshly computed rows for the dirty centers into a cached row set: cached
/// rows on dirty centers are dropped (their ball may no longer yield a subgraph), fresh
/// rows take their place, and the merge keeps the ascending-center order.
pub fn splice_rows(
    rows: &mut Vec<PerfectSubgraph>,
    dirty: &BitSet,
    new_rows: Vec<PerfectSubgraph>,
) {
    let old_rows = std::mem::take(rows);
    let mut merged: Vec<PerfectSubgraph> = Vec::with_capacity(old_rows.len() + new_rows.len());
    let mut old_it = old_rows
        .into_iter()
        .filter(|r| !dirty.contains(r.center.index()))
        .peekable();
    let mut new_it = new_rows.into_iter().peekable();
    loop {
        match (old_it.peek(), new_it.peek()) {
            (Some(a), Some(b)) => {
                debug_assert_ne!(a.center, b.center, "dirty filter must drop dirty rows");
                if a.center < b.center {
                    merged.push(old_it.next().expect("peeked"));
                } else {
                    merged.push(new_it.next().expect("peeked"));
                }
            }
            (Some(_), None) => merged.push(old_it.next().expect("peeked")),
            (None, Some(_)) => merged.push(new_it.next().expect("peeked")),
            (None, None) => break,
        }
    }
    *rows = merged;
}

/// Work accounting of the most recent [`IncrementalMatcher::apply`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Centers the delta marked dirty (re-evaluated through the ball pipeline).
    /// `dirty_balls + clean_balls == |V|`.
    pub dirty_balls: usize,
    /// Centers whose cached result was reused untouched.
    pub clean_balls: usize,
    /// Global-relation pairs the update added (`dual_filter` only).
    pub pairs_gained: usize,
    /// Global-relation pairs the update removed (`dual_filter` only).
    pub pairs_lost: usize,
    /// The insertion re-admission closure flooded and the global fixpoint was
    /// recomputed from scratch.
    pub relation_recomputed: bool,
    /// The `Gm` extraction was rebuilt rather than reused.
    pub gm_reextracted: bool,
    /// The dirty fraction crossed [`DIRTY_BAIL_FRACTION`] and the matcher fell back to
    /// one unrestricted pass instead of paying region extraction and splicing on top of
    /// a near-total invalidation (`dirty_balls` reports `|V|` in that case).
    pub dirty_bailed: bool,
    /// The overlay compacted back to a flat base CSR during this apply.
    pub overlay_compacted: bool,
}

/// Per-plan state of the matcher: the incremental plan maintains
/// [`IncrementalState`] + cached rows, the recompute oracle only the graph.
enum PlanState {
    Incremental {
        state: Box<IncrementalState>,
        /// Pre-deduplication rows (ascending ball center, data-graph ids) — kept
        /// separately only when the configuration deduplicates, because deduplication
        /// is a cross-row operation that must be re-applied over every splice. With
        /// dedup off, `output.subgraphs` itself is the row cache and splices happen in
        /// place, clone-free.
        dedup_rows: Option<Vec<PerfectSubgraph>>,
    },
    Recompute {
        data: Graph,
    },
}

/// A strong-simulation session over a mutating data graph.
///
/// Construct once, then feed [`GraphDelta`]s through [`IncrementalMatcher::apply`]; the
/// cached [`MatchOutput`] after every apply is bit-identical (subgraph rows) to running
/// [`crate::strong::strong_simulation`] on the updated graph with the same
/// configuration. `config.update_plan` picks the maintenance strategy —
/// [`UpdatePlan::Incremental`] (the default) or the [`UpdatePlan::Recompute`] oracle.
pub struct IncrementalMatcher {
    pattern: Pattern,
    config: MatchConfig,
    plan: PlanState,
    output: MatchOutput,
    last_update: UpdateStats,
}

impl IncrementalMatcher {
    /// Runs the initial match over `data` and caches everything the chosen plan needs.
    pub fn new(pattern: &Pattern, data: Graph, config: MatchConfig) -> Self {
        let n = data.node_count();
        let (plan, output) = match config.update_plan {
            UpdatePlan::Recompute => {
                let output = crate::strong::strong_simulation(pattern, &data, &config);
                (PlanState::Recompute { data }, output)
            }
            UpdatePlan::Incremental => {
                let state = Box::new(IncrementalState::new(
                    pattern,
                    data,
                    config.minimize_query,
                    config.radius_override,
                    config.dual_filter,
                    config.ball_substrate,
                    config.refine_strategy,
                ));
                let run_cfg = MatchConfig {
                    deduplicate: false,
                    ..config
                };
                // At construction the overlay is flat — zero patches — so its base CSR
                // *is* the current graph and the initial pass runs over it copy-free.
                debug_assert!(state.data.is_flat());
                let out = match_with_prepared(
                    pattern,
                    state.data.base(),
                    &run_cfg,
                    state.prepared(),
                    None,
                );
                let (dedup_rows, subgraphs) = if config.deduplicate {
                    let subgraphs = deduped_copy(&out.subgraphs);
                    (Some(out.subgraphs), subgraphs)
                } else {
                    (None, out.subgraphs)
                };
                let output = MatchOutput {
                    stats: refreshed_stats(out.stats, &state, subgraphs.len()),
                    subgraphs,
                };
                (PlanState::Incremental { state, dedup_rows }, output)
            }
        };
        IncrementalMatcher {
            pattern: pattern.clone(),
            config,
            plan,
            output,
            last_update: UpdateStats {
                dirty_balls: n,
                clean_balls: 0,
                ..UpdateStats::default()
            },
        }
    }

    /// The current data graph (after every applied delta), materialised flat.
    ///
    /// The incremental plan serves from an [`OverlayGraph`], so this merges the live
    /// patches into a fresh CSR — an `O(|V|+|E|)` copy meant for oracles and tests, not
    /// the serving path. Use [`IncrementalMatcher::overlay`] to inspect the substrate
    /// without materialising.
    pub fn data(&self) -> Graph {
        match &self.plan {
            PlanState::Incremental { state, .. } => state.data.to_graph(),
            PlanState::Recompute { data } => data.clone(),
        }
    }

    /// The versioned serving substrate; `None` on the recompute oracle plan, which keeps
    /// a flat graph and rebuilds it per delta.
    pub fn overlay(&self) -> Option<&OverlayGraph> {
        match &self.plan {
            PlanState::Incremental { state, .. } => Some(&state.data),
            PlanState::Recompute { .. } => None,
        }
    }

    /// The configuration the session runs under.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The match result over the current graph.
    pub fn output(&self) -> &MatchOutput {
        &self.output
    }

    /// Work accounting of the most recent [`IncrementalMatcher::apply`] (or of the
    /// initial run, where every ball is dirty by definition).
    pub fn last_update(&self) -> &UpdateStats {
        &self.last_update
    }

    /// Applies one validated batch of edge updates and refreshes the cached output.
    ///
    /// Returns the refreshed output; fails (leaving the session untouched) when the
    /// delta does not validate against the current graph.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<&MatchOutput, GraphError> {
        match &mut self.plan {
            PlanState::Recompute { data } => {
                let new_data = data.apply_delta(delta)?;
                self.output =
                    crate::strong::strong_simulation(&self.pattern, &new_data, &self.config);
                self.last_update = UpdateStats {
                    dirty_balls: new_data.node_count(),
                    clean_balls: 0,
                    ..UpdateStats::default()
                };
                *data = new_data;
            }
            PlanState::Incremental { state, dedup_rows } => {
                let effect = state.advance(delta)?;
                let run_cfg = MatchConfig {
                    deduplicate: false,
                    ..self.config
                };
                let n = state.data.node_count();
                // Adaptive dirty-fraction bail: when the delta invalidates nearly every
                // ball, region extraction + splicing costs more than the unrestricted
                // pass it would orchestrate, so run from scratch and replace the cache
                // wholesale.
                let bailed = effect.dirty.len() > (DIRTY_BAIL_FRACTION * n as f64) as usize;
                if bailed {
                    let out = run_pass(&self.pattern, state, &run_cfg, None);
                    match dedup_rows {
                        Some(rows) => {
                            *rows = out.subgraphs;
                            self.output.subgraphs = deduped_copy(rows);
                        }
                        None => self.output.subgraphs = out.subgraphs,
                    }
                    self.output.stats =
                        refreshed_stats(out.stats, state, self.output.subgraphs.len());
                } else {
                    let out = run_pass(&self.pattern, state, &run_cfg, Some(&effect.dirty));
                    match dedup_rows {
                        Some(rows) => {
                            splice_rows(rows, &effect.dirty, out.subgraphs);
                            self.output.subgraphs = deduped_copy(rows);
                        }
                        None => {
                            splice_rows(&mut self.output.subgraphs, &effect.dirty, out.subgraphs)
                        }
                    }
                    self.output.stats =
                        refreshed_stats(out.stats, state, self.output.subgraphs.len());
                }
                self.last_update = UpdateStats {
                    dirty_balls: if bailed { n } else { effect.dirty.len() },
                    clean_balls: if bailed { 0 } else { n - effect.dirty.len() },
                    pairs_gained: effect.pairs_gained,
                    pairs_lost: effect.pairs_lost,
                    relation_recomputed: effect.relation_recomputed,
                    gm_reextracted: effect.gm_reextracted,
                    dirty_bailed: bailed,
                    overlay_compacted: effect.compacted,
                };
            }
        }
        Ok(&self.output)
    }

    /// Applies a batch of deltas as **one** maintenance step: the stream is composed
    /// into its net delta ([`GraphDelta::then`]) and fed through a single
    /// [`IncrementalMatcher::apply`], so invalidation, fixpoint maintenance and the
    /// restricted re-match are paid once per batch instead of once per delta. The
    /// result is identical to applying the deltas one by one — the net delta produces
    /// the same final graph, and the cached output only ever depends on the current
    /// graph.
    ///
    /// Each delta must validate against the graph its predecessors produce; the stream
    /// is staged on a cheap overlay snapshot first, so a mid-stream validation error
    /// leaves the session untouched. The recompute oracle applies the stream
    /// sequentially and re-matches once at the end.
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> Result<&MatchOutput, GraphError> {
        let [first, rest @ ..] = deltas else {
            return Ok(&self.output);
        };
        if rest.is_empty() {
            return self.apply(first);
        }
        match &mut self.plan {
            PlanState::Recompute { data } => {
                let mut new_data = data.apply_delta(first)?;
                for d in rest {
                    new_data = new_data.apply_delta(d)?;
                }
                self.output =
                    crate::strong::strong_simulation(&self.pattern, &new_data, &self.config);
                self.last_update = UpdateStats {
                    dirty_balls: new_data.node_count(),
                    clean_balls: 0,
                    ..UpdateStats::default()
                };
                *data = new_data;
                Ok(&self.output)
            }
            PlanState::Incremental { state, .. } => {
                // Stage the stream on a snapshot (O(patch-slots) clone — the base CSR
                // is shared) to validate its order-sensitive legality up front.
                let mut staged = state.data.clone();
                for d in deltas {
                    staged.apply_delta(d)?;
                }
                let mut net = first.clone();
                for d in rest {
                    net = net.then(d);
                }
                self.apply(&net)
            }
        }
    }
}

/// Dirty fraction above which [`IncrementalMatcher::apply`] abandons the restricted
/// pass. Chosen well above the densest committed bench row (`update-overlap-chain-5pct`
/// invalidates ~0.64 of the balls and still wins incrementally) so the bail only fires
/// on genuinely global deltas.
pub(crate) const DIRTY_BAIL_FRACTION: f64 = 0.85;

/// Per-apply memo of the pure, pattern-independent data representations
/// [`run_pattern_pass`] builds: the flat materialisation of the overlay and the dirty-
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
    fn flat(&mut self, data: &OverlayGraph) -> &Graph {
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
fn run_pass(
    pattern: &Pattern,
    state: &IncrementalState,
    run_cfg: &MatchConfig,
    dirty: Option<&BitSet>,
) -> MatchOutput {
    run_pattern_pass(pattern, &state.data, &state.pattern, run_cfg, dirty, None)
}

/// [`run_pass`] over split substrate/pattern state, with an optional shared
/// [`SubstrateCache`]. With a cache, the flat materialisation and the dirty-region
/// extraction are memoised across calls against the same substrate version; without
/// one, a throwaway cache reproduces the single-pattern behaviour exactly. Because the
/// memoised values are pure functions of `(graph, radius, dirty)`, a cached pass
/// returns output **and stats** bit-identical to an uncached one.
pub(crate) fn run_pattern_pass(
    pattern: &Pattern,
    data: &OverlayGraph,
    ps: &PatternState,
    run_cfg: &MatchConfig,
    dirty: Option<&BitSet>,
    cache: Option<&mut SubstrateCache>,
) -> MatchOutput {
    let n = data.node_count();
    let mut local = SubstrateCache::new();
    let cache = match cache {
        Some(c) => c,
        None => &mut local,
    };
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
pub(crate) fn deduped_copy(rows: &[PerfectSubgraph]) -> Vec<PerfectSubgraph> {
    distinct_indices(rows)
        .into_iter()
        .map(|i| rows[i].clone())
        .collect()
}

/// Describes the session's current state in the stats carried by the cached output
/// (work counters keep describing the most recent — restricted — run).
fn refreshed_stats(
    stats: MatchStats,
    state: &IncrementalState,
    subgraph_count: usize,
) -> MatchStats {
    refreshed_pattern_stats(
        stats,
        &state.pattern,
        state.data.node_count(),
        subgraph_count,
    )
}

/// [`refreshed_stats`] over split substrate/pattern state, for callers (the query
/// service) that do not hold an [`IncrementalState`].
pub(crate) fn refreshed_pattern_stats(
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
    use crate::strong::strong_simulation;
    use ssim_graph::Label;

    /// Chain data with alternating labels and a path pattern — small enough to reason
    /// about, rich enough that deltas move matches around.
    fn chain() -> (Pattern, Graph) {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let labels: Vec<Label> = (0..10u32).map(|i| Label(i % 2)).collect();
        let edges: Vec<(u32, u32)> = (0..9u32).map(|i| (i, i + 1)).collect();
        (pattern, Graph::from_edges(labels, &edges).unwrap())
    }

    fn assert_rows_equal(a: &MatchOutput, b: &MatchOutput, ctx: &str) {
        // Derived PartialEq on PerfectSubgraph covers every field.
        assert_eq!(a.subgraphs, b.subgraphs, "{ctx}");
    }

    #[test]
    fn incremental_tracks_recompute_on_a_chain() {
        let (pattern, data) = chain();
        for config in [
            MatchConfig::basic(),
            MatchConfig::optimized(),
            MatchConfig {
                dual_filter: true,
                ..MatchConfig::basic()
            },
        ] {
            let mut inc = IncrementalMatcher::new(&pattern, data.clone(), config);
            let mut ora = IncrementalMatcher::new(
                &pattern,
                data.clone(),
                MatchConfig {
                    update_plan: UpdatePlan::Recompute,
                    ..config
                },
            );
            assert_rows_equal(inc.output(), ora.output(), "initial");
            // Break the chain in the middle, then heal it elsewhere.
            let mut d1 = GraphDelta::new();
            d1.delete_edge(NodeId(4), NodeId(5));
            let mut d2 = GraphDelta::new();
            d2.insert_edge(NodeId(5), NodeId(4));
            for (i, delta) in [d1, d2].iter().enumerate() {
                inc.apply(delta).unwrap();
                ora.apply(delta).unwrap();
                assert_rows_equal(inc.output(), ora.output(), &format!("step {i} {config:?}"));
                let oneshot = strong_simulation(&pattern, &inc.data(), &config);
                assert_rows_equal(inc.output(), &oneshot, &format!("vs one-shot {i}"));
            }
        }
    }

    /// Deltas that move fixpoint pairs while the matched set stays the same must rebuild
    /// the cached candidate lists, and a delta outside `Gm` keeps them; rows track the
    /// recompute oracle either way. (With `Gm` reused its fixpoint cannot change: both
    /// relations are dual simulations of the same induced subgraph.)
    #[test]
    fn candidate_lists_follow_pair_changes_on_a_fixed_matched_set() {
        // a(A) → a′(A) over the chain 0 → 1 → 2 of A-nodes plus a C-node 3.
        let pattern = Pattern::from_edges(vec![Label(0), Label(0)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(
            vec![Label(0), Label(0), Label(0), Label(2)],
            &[(0, 1), (1, 2)],
        )
        .unwrap();
        let config = MatchConfig::optimized();
        let mut inc = IncrementalMatcher::new(&pattern, data.clone(), config);
        let mut ora = IncrementalMatcher::new(
            &pattern,
            data,
            config.with_update_plan(UpdatePlan::Recompute),
        );
        let mut close_cycle = GraphDelta::new();
        close_cycle.insert_edge(NodeId(2), NodeId(0));
        let mut outside_gm = GraphDelta::new();
        outside_gm.insert_edge(NodeId(0), NodeId(3));
        let mut open_cycle = GraphDelta::new();
        open_cycle.delete_edge(NodeId(2), NodeId(0));
        for (delta, pairs_changed, reextracted) in [
            (close_cycle, true, true),
            (outside_gm, false, false),
            (open_cycle, true, true),
        ] {
            let matched_before = inc.output().matched_nodes();
            inc.apply(&delta).unwrap();
            ora.apply(&delta).unwrap();
            let up = inc.last_update().clone();
            assert_eq!(inc.output().matched_nodes(), matched_before);
            assert_eq!(up.pairs_gained + up.pairs_lost > 0, pairs_changed, "{up:?}");
            assert_eq!(up.gm_reextracted, reextracted, "{up:?}");
            assert_rows_equal(inc.output(), ora.output(), &format!("{up:?}"));
        }
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let (pattern, data) = chain();
        let mut inc = IncrementalMatcher::new(&pattern, data, MatchConfig::optimized());
        let before = inc.output().clone();
        inc.apply(&GraphDelta::new()).unwrap();
        assert_rows_equal(&before, inc.output(), "empty delta");
        assert_eq!(inc.last_update().dirty_balls, 0);
        assert_eq!(
            inc.last_update().clean_balls,
            inc.data().node_count(),
            "every ball stays clean"
        );
    }

    #[test]
    fn fixpoint_maintenance_matches_scratch() {
        let (pattern, data) = chain();
        let old = global_fixpoint(&pattern, &data, RefineStrategy::Worklist);
        // Drop (0,1), add (2,1).
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(0), NodeId(1));
        delta.insert_edge(NodeId(2), NodeId(1));
        let new_data = data.apply_delta(&delta).unwrap();
        let up =
            update_global_fixpoint(&pattern, &new_data, &delta, &old, RefineStrategy::Worklist);
        let scratch = global_fixpoint(&pattern, &new_data, RefineStrategy::Worklist);
        assert_eq!(up.relation.to_sorted_pairs(), scratch.to_sorted_pairs());
        // Changed nodes cover exactly the symmetric difference of the two relations.
        for u in pattern.nodes() {
            for v in new_data.nodes() {
                if old.contains(u, v) != scratch.contains(u, v) {
                    assert!(
                        up.changed_nodes.contains(v.index()),
                        "missing change at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn deletion_that_empties_the_relation_and_reinsertion_round_trip() {
        // Pattern A -> B over a single A -> B edge: deleting it empties the fixpoint,
        // re-adding restores it exactly.
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let original = global_fixpoint(&pattern, &data, RefineStrategy::Worklist);
        assert!(original.is_total());
        let mut del = GraphDelta::new();
        del.delete_edge(NodeId(0), NodeId(1));
        let without = data.apply_delta(&del).unwrap();
        let up = update_global_fixpoint(
            &pattern,
            &without,
            &del,
            &original,
            RefineStrategy::Worklist,
        );
        assert!(up.relation.is_empty(), "non-total fixpoints are empty");
        assert_eq!(up.pairs_lost, 2);
        let back = without.apply_delta(&del.inverse()).unwrap();
        let up2 = update_global_fixpoint(
            &pattern,
            &back,
            &del.inverse(),
            &up.relation,
            RefineStrategy::Worklist,
        );
        assert_eq!(
            up2.relation.to_sorted_pairs(),
            original.to_sorted_pairs(),
            "round trip"
        );
    }

    #[test]
    fn splice_merges_and_drops_dirty_rows() {
        let row = |c: u32| PerfectSubgraph {
            center: NodeId(c),
            radius: 1,
            nodes: vec![NodeId(c)],
            edges: vec![],
            relation: vec![],
        };
        let mut rows = vec![row(1), row(3), row(5)];
        let mut dirty = BitSet::new(8);
        dirty.insert(3); // row 3 is dropped and not replaced
        dirty.insert(4); // a new center appears
        splice_rows(&mut rows, &dirty, vec![row(4)]);
        let centers: Vec<u32> = rows.iter().map(|r| r.center.0).collect();
        assert_eq!(centers, vec![1, 4, 5]);
    }
}
