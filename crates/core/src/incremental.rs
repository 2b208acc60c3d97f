//! Incremental matching under graph updates: the per-pattern maintenance behind the
//! continuously-serving engine.
//!
//! A one-shot [`crate::strong::strong_simulation`] call answers one query; real traffic
//! mutates the data graph between queries and the naive alternative is a full recompute
//! per change. The paper's locality results make updates intrinsically local: every
//! perfect subgraph lives in a ball of radius `dQ` around its center (Proposition 3), so
//! an edge change can only affect the balls whose members lie within substrate distance
//! `dQ` of a node the change touched. This module holds the per-pattern maintenance
//! ([`PatternState`], steps 1–3 below) and the row splice (step 4). The apply itself —
//! substrate step, dirty sweep, the executor's restricted pass and the splice — is owned
//! by [`crate::service::QueryService`], the one front-end for maintained matching: a
//! session over one pattern is a service holding one query. Every maintained query is
//! planned from its `PatternState` ([`crate::strong::MatchPlan::for_state`]), so its
//! pattern is minimised once, when the state is built.
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
//!    pipeline — fresh balls, refinement, pruning, extraction — in the executor's pass;
//!    their rows are spliced ([`splice_rows`]) into the cached pre-deduplication row
//!    set, and deduplication is re-applied over the splice, so the assembled output is
//!    bit-identical to a full recompute.
//!
//! The oracle is the one-shot matcher on a flat [`ssim_graph::Graph`] advanced with
//! [`ssim_graph::Graph::apply_delta`]. `tests/incremental_update_equivalence.rs` holds
//! the maintained rows bit-identical to it along random delta streams, across the
//! sequential, parallel and distributed runtimes, with the other engine axes pinned and
//! composed.

use crate::ball::BallSubstrate;
use crate::dual::global_dual_simulation;
use crate::dual_filter::refine_suspects;
use crate::gm::GmSubstrate;
use crate::match_graph::PerfectSubgraph;
use crate::minimize::minimize_pattern;
use crate::relation::MatchRelation;
use crate::simulation::RefineStrategy;
use ssim_graph::delta::{mark_edge_ball_centers, mark_within_distance};
use ssim_graph::{AdjView, BitSet, ExtractedSubgraph, GraphDelta, NodeId, OverlayGraph, Pattern};
use std::collections::VecDeque;

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
/// [`ssim_graph::Graph`] or an [`OverlayGraph`] — the overlay merges its patches during iteration,
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
/// instead of once per pattern.
///
/// `Clone` is deliberate: the state is a pure, deterministic function of its
/// construction inputs over the current graph, so a clone is bit-identical to
/// recomputing — which lets a registry reuse the fixpoint of an already-registered
/// identical query instead of paying it again.
#[derive(Clone)]
pub struct PatternState {
    /// The effective pattern: minimised when the configuration minimises queries.
    pub effective: Pattern,
    /// The original pattern nodes of every node of `effective`; empty when the
    /// configuration does not minimise queries.
    pub class_members: Vec<Vec<NodeId>>,
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

/// What one (already-applied) delta did to a [`PatternState`].
pub struct PatternEffect {
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
        let (effective, class_members, radius) = if minimize {
            let m = minimize_pattern(pattern);
            let radius = radius_override.unwrap_or(m.original_diameter);
            let class_members = m.class_members();
            (m.pattern, class_members, radius)
        } else {
            (
                pattern.clone(),
                Vec::new(),
                radius_override.unwrap_or(pattern.diameter()),
            )
        };
        let mut state = PatternState {
            effective,
            class_members,
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

    /// The maintained state in the form [`crate::strong::match_with_prepared`] consumes; `None` when no
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
    /// path sweeps its own extractions). [`crate::service::QueryService`]'s apply
    /// computes them.
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

/// Work accounting of one query's most recent [`crate::service::QueryService::apply`]
/// (or of its initial run), as [`crate::service::QueryService::last_update`] reports it.
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
    /// The dirty fraction crossed the service's `DIRTY_BAIL_FRACTION` (0.85) and the apply fell back to
    /// one unrestricted pass instead of paying region extraction and splicing on top of
    /// a near-total invalidation (`dirty_balls` reports `|V|` in that case).
    pub dirty_bailed: bool,
    /// The overlay compacted back to a flat base CSR during this apply.
    pub overlay_compacted: bool,
}

impl UpdateStats {
    /// The accounting of a full pass over `n` centers: every ball is dirty.
    pub(crate) fn full_pass(n: usize) -> Self {
        UpdateStats {
            dirty_balls: n,
            ..UpdateStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::QueryService;
    use crate::strong::{strong_simulation, MatchConfig, MatchOutput};
    use ssim_graph::{Graph, Label};

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
            let mut inc = QueryService::new(data.clone());
            let id = inc.register(&pattern, config);
            let mut flat = data.clone();
            let ora = strong_simulation(&pattern, &flat, &config);
            assert_rows_equal(inc.output(id).unwrap(), &ora, "initial");
            // Break the chain in the middle, then heal it elsewhere.
            let mut d1 = GraphDelta::new();
            d1.delete_edge(NodeId(4), NodeId(5));
            let mut d2 = GraphDelta::new();
            d2.insert_edge(NodeId(5), NodeId(4));
            for (i, delta) in [d1, d2].iter().enumerate() {
                inc.apply(delta).unwrap();
                flat = flat.apply_delta(delta).unwrap();
                let ora = strong_simulation(&pattern, &flat, &config);
                let ctx = format!("step {i} {config:?}");
                assert_rows_equal(inc.output(id).unwrap(), &ora, &ctx);
                let oneshot = strong_simulation(&pattern, &inc.data(), &config);
                assert_rows_equal(
                    inc.output(id).unwrap(),
                    &oneshot,
                    &format!("vs one-shot {i}"),
                );
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
        let mut inc = QueryService::new(data.clone());
        let id = inc.register(&pattern, config);
        let mut flat = data;
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
            let matched_before = inc.output(id).unwrap().matched_nodes();
            inc.apply(&delta).unwrap();
            flat = flat.apply_delta(&delta).unwrap();
            let ora = strong_simulation(&pattern, &flat, &config);
            let up = inc.last_update(id).unwrap().clone();
            assert_eq!(inc.output(id).unwrap().matched_nodes(), matched_before);
            assert_eq!(up.pairs_gained + up.pairs_lost > 0, pairs_changed, "{up:?}");
            assert_eq!(up.gm_reextracted, reextracted, "{up:?}");
            assert_rows_equal(inc.output(id).unwrap(), &ora, &format!("{up:?}"));
        }
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let (pattern, data) = chain();
        let mut inc = QueryService::new(data);
        let id = inc.register(&pattern, MatchConfig::optimized());
        let before = inc.output(id).unwrap().clone();
        inc.apply(&GraphDelta::new()).unwrap();
        assert_rows_equal(&before, inc.output(id).unwrap(), "empty delta");
        assert_eq!(inc.last_update(id).unwrap().dirty_balls, 0);
        assert_eq!(
            inc.last_update(id).unwrap().clean_balls,
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
