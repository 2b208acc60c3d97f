//! Warm-started per-ball refinement: carry the converged relation across slid balls.
//!
//! Strong simulation refines a dual-simulation fixpoint inside every ball. With the
//! sliding [`crate::ball::BallForest`], adjacent centers share almost their whole ball —
//! and therefore almost their whole converged relation — yet the engine used to rebuild
//! the candidate sets and re-run the fixpoint from scratch per center. A [`WarmMatcher`]
//! instead carries the previous ball's *exact* maximum relation and repairs it:
//!
//! 1. **translate** the carried relation through the compact-index remap (previous local
//!    ids → global ids → new local ids); pairs on nodes that left the ball drop out,
//! 2. **re-open gains**: only pairs whose support can have *appeared* are re-added — the
//!    full base candidates of entered nodes, closed under pair-level propagation (a
//!    missing base pair `(a, v)` is re-opened when a neighbouring pair `(b, w)` along a
//!    pattern edge was re-opened, since `w` may now witness `v`'s support),
//! 3. **seed suspects**: exactly the delta — every gained pair plus every pair on a node
//!    adjacent to a departed node — is re-verified by a lazily-counted worklist; the
//!    counter cascade handles everything downstream.
//!
//! # Why this is exact
//!
//! Refinement computes the maximum dual-simulation relation contained in its start. The
//! warm start `S₀ = translate(GF_prev) ∪ gains` satisfies `GF_new ⊆ S₀ ⊆ base_new`:
//! the left inclusion holds because a `GF_new` pair missing from `S₀` would, together
//! with `GF_prev`, form a valid dual simulation on the *previous* ball (its witnesses are
//! either previous-ball pairs or re-opened gains — the gain closure chases exactly the
//! witness chains into the entered region), contradicting `GF_prev`'s maximality. Both
//! `GF_new ⊆ S₀` and `S₀ ⊆ base_new` force refinement from `S₀` to the unique maximum
//! `GF_new` — bit-identical, per candidate bitset, to
//! [`RefineSeed::FromScratch`](crate::simulation::RefineSeed). Distances play no role:
//! the ball subgraph is induced by *membership* alone, so entered/left nodes are the
//! entire delta and distance-only changes (every slide shifts most distances) are
//! invisible to refinement.
//!
//! The carry rides the forest's *slides*: their entered/left delta is exact and free. A
//! rebuild — a far jump or the forest's adaptive back-off — invalidates the carried
//! relation's relationship to the next delta, so the rebuilt ball refines from scratch
//! and re-seeds the carry. Warm attempts that *flood* (the gain closure exceeding its
//! budget because the fixpoint sits far below the base candidates) bail to scratch
//! seeding and open a doubling back-off window, so graphs whose per-ball relations churn
//! heavily pay only a vanishing probe overhead over the scratch engine.
//!
//! Patterns are connected by construction ([`ssim_graph::Pattern`] validates it), so an
//! emptied candidate set forces the *entire* fixpoint empty — emptiness cascades across
//! every pattern edge in both directions. The drain therefore keeps the worklist
//! engine's early exit without approximating: on an emptied set the carried relation is
//! cleared to the exact empty fixpoint instead of being left partially drained.
//!
//! The warm drain mirrors the counter-based worklist of [`crate::simulation`] but
//! initialises its capped support counters *lazily*, on first touch, instead of in a
//! phase-1 sweep over the whole relation — so a small delta only ever touches a small
//! counter neighbourhood. Laziness is safe because removal is gated by an authoritative
//! capped recount: decrements may over-fire (a counter initialised after an enqueued
//! removal gets decremented again), which at worst wastes a recount, and can never
//! under-fire, because untouched counters are recounted against the current relation.
//!
//! Connectivity pruning is center-dependent, so it cannot ride the carry. The warm path
//! refines to the pruning-free fixpoint (which *is* carried), then prunes and re-refines:
//! `GF(prune(GF(S))) = GF(prune(S))` because pruning is monotone and `GF(prune(S))` stays
//! connected-to-center inside `GF(S)` — the output matches the scratch pipeline exactly.
//! On `Gm` balls pruning the projection is the identity, so the scratch pipeline skips it
//! and the warm path extracts from the pruning-free fixpoint directly.
//!
//! On top of the carried relation, the per-ball **match graph** is maintained
//! incrementally (pruning off): rows are kept in global ids — stable across the remap —
//! and only *dirty sources* (entered/left/candidate-changed nodes and their in-neighbours)
//! are re-derived, the rest of the previous ball's edge list is spliced through.

use crate::ball::BallMove;
use crate::dual::refine_dual_with;
use crate::dual_filter::refine_projected;
use crate::match_graph::{extract_max_perfect_subgraph, MatchGraph, PerfectSubgraph};
use crate::pruning::prune_by_connectivity;
use crate::relation::MatchRelation;
use crate::repetition::{enforce_repetition, RepetitionMode, RepetitionSemantics};
use crate::simulation::{count_capped, initial_candidates, RefineStrategy};
use crate::strong::translate_subgraph;
use ssim_graph::{AdjView, CompactBall, Graph, Label, NodeId, Pattern};
use std::collections::VecDeque;

/// When the membership delta exceeds this fraction of the ball, the carried relation no
/// longer pays for its translation: refine from scratch instead (the carry is still
/// re-established for the next ball). Deltas of a couple of nodes always warm-start —
/// on tiny balls the translation is as cheap as the scratch seeding.
const DEGENERATE_DELTA_DIVISOR: usize = 2;

/// Gain-closure budget floor: a warm attempt that re-opens more than
/// `max(GAIN_BUDGET_MIN, translated_pairs / 4)` pairs is flooding — the ball's fixpoint
/// sits far below its base candidates, so chasing the missing set pair-by-pair costs
/// more than the scratch engine's linear phase-1 sweep. The attempt is abandoned and
/// the ball refined from scratch.
const GAIN_BUDGET_MIN: usize = 6;

/// After a flooded (bailed) warm attempt, this many balls are refined from scratch
/// before the next warm probe; the window doubles up to [`BAIL_BACKOFF_MAX`], mirroring
/// the [`crate::ball::BallForest`] slide back-off, so unstable-relation regions decay to
/// scratch seeding at negligible probe overhead while stable regions recover quickly.
const BAIL_BACKOFF_START: u32 = 16;

/// Upper bound for the bail back-off window.
const BAIL_BACKOFF_MAX: u32 = 128;

/// Work counters of one [`WarmMatcher`], merged into
/// [`MatchStats`](crate::strong::MatchStats) / `TrafficStats` by the drivers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Balls whose refinement was warm-started from the previous ball's fixpoint.
    pub warm_balls: usize,
    /// Balls the warm engine refined from scratch (first ball of a chain, or a
    /// degenerate membership delta).
    pub scratch_balls: usize,
    /// Suspect pairs enqueued for re-verification, over all balls (the seeded-worklist
    /// size; from-scratch balls count their full start relation).
    pub seeded_pairs: usize,
    /// Warm attempts abandoned because the gain closure exceeded its budget (counted
    /// among `scratch_balls`; they trigger the bail back-off).
    pub bailed_balls: usize,
    /// Balls whose match graph was updated incrementally instead of rebuilt.
    pub match_graphs_reused: usize,
    /// Pairs removed by the per-ball repetition closure (non-`Free` semantics only).
    /// The closure runs on a clone of the converged relation at the output stage — the
    /// carry keeps the plain dual fixpoint, on which the warm-start exactness argument
    /// rests — so these counters mirror the scratch pipeline's per-ball outcomes.
    pub repetition_filtered_pairs: usize,
    /// Balls whose repetition enforcement bailed on the witness-search budget
    /// precondition (see [`crate::repetition::REPETITION_BUDGET`]).
    pub repetition_bailed_balls: usize,
}

/// The state carried from the previous ball.
struct Carry {
    /// Previous ball's local→global map (`CompactBall::to_global`).
    members: Vec<NodeId>,
    /// The previous ball's exact maximum dual-simulation relation, in its local ids.
    /// `None` records the **empty** fixpoint — the common state on unmatchable
    /// stretches — without zeroing any bitset storage.
    relation: Option<MatchRelation>,
    /// The previous ball's match graph in **global** ids, when one was built (relation
    /// total, pruning off). Global ids survive the remap, so rows can be spliced.
    match_graph: Option<MatchGraph>,
}

/// The lazily-counted seeded worklist's scratch: the pattern's edge CSR (built once per
/// matcher) plus epoch-validated capped support counters sized to the largest ball seen.
struct SeededScratch {
    /// The pattern's edge list; counter blocks are indexed `edge * n + node`.
    edges: Vec<(NodeId, NodeId)>,
    /// Edge ids grouped by child endpoint (CSR offsets + ids).
    ein_off: Vec<u32>,
    ein: Vec<u32>,
    /// Edge ids grouped by parent endpoint (CSR offsets + ids).
    eout_off: Vec<u32>,
    eout: Vec<u32>,
    /// Capped child/parent support counters; an entry is meaningful only when its epoch
    /// matches the current ball's, so nothing is ever zeroed between balls.
    child_val: Vec<u32>,
    child_epoch: Vec<u32>,
    parent_val: Vec<u32>,
    parent_epoch: Vec<u32>,
    epoch: u32,
    /// Work queue of removed pairs awaiting propagation.
    queue: VecDeque<(NodeId, NodeId)>,
}

impl SeededScratch {
    fn new(pattern: &Pattern) -> Self {
        let q = pattern.graph();
        let edges: Vec<(NodeId, NodeId)> = q.edges().collect();
        let nq = q.node_count();
        let mut ein_off = vec![0u32; nq + 1];
        let mut eout_off = vec![0u32; nq + 1];
        for &(u, u_child) in &edges {
            eout_off[u.index() + 1] += 1;
            ein_off[u_child.index() + 1] += 1;
        }
        for i in 0..nq {
            ein_off[i + 1] += ein_off[i];
            eout_off[i + 1] += eout_off[i];
        }
        let mut ein = vec![0u32; edges.len()];
        let mut eout = vec![0u32; edges.len()];
        let mut ein_cursor: Vec<u32> = ein_off[..nq].to_vec();
        let mut eout_cursor: Vec<u32> = eout_off[..nq].to_vec();
        for (e, &(u, u_child)) in edges.iter().enumerate() {
            eout[eout_cursor[u.index()] as usize] = e as u32;
            eout_cursor[u.index()] += 1;
            ein[ein_cursor[u_child.index()] as usize] = e as u32;
            ein_cursor[u_child.index()] += 1;
        }
        SeededScratch {
            edges,
            ein_off,
            ein,
            eout_off,
            eout,
            child_val: Vec::new(),
            child_epoch: Vec::new(),
            parent_val: Vec::new(),
            parent_epoch: Vec::new(),
            epoch: 0,
            queue: VecDeque::new(),
        }
    }
}

/// Per-worker warm-started ball matcher: one per [`crate::ball::BallForest`], fed the
/// forest's membership deltas ball by ball. All per-ball buffers are reused across the
/// run, so the steady-state per-ball allocation cost is zero.
pub struct WarmMatcher {
    /// Data label → pattern nodes carrying it (base-candidate seeding without scanning
    /// the global label index per ball). A pattern has a handful of distinct labels, so
    /// a linear scan beats hashing on the per-entered-node hot path.
    classes: Vec<(Label, Vec<NodeId>)>,
    carry: Option<Carry>,
    /// Recycled relation storage: the ball-before-last's bitsets, reset per ball.
    spare: Option<MatchRelation>,
    seeded: SeededScratch,
    suspects: Vec<(NodeId, NodeId)>,
    touched: Vec<NodeId>,
    gain_queue: VecDeque<(NodeId, NodeId)>,
    entered_buf: Vec<NodeId>,
    left_buf: Vec<NodeId>,
    /// Ball-local nodes adjacent to a departed node (deduplicated suspect sources).
    near_left: Vec<NodeId>,
    /// Whether the carry corresponds to the *immediately previous* ball. A slide's
    /// entered/left delta is relative to that ball, so warm starts require freshness;
    /// rebuilds (including the forest's back-off) and skipped updates invalidate it.
    carry_fresh: bool,
    /// Remaining balls to refine from scratch before probing with a warm attempt again
    /// (set by flooded gain closures).
    flood_penalty: u32,
    flood_backoff: u32,
    /// Balls come from the match-graph substrate `Gm` ([`WarmMatcher::on_match_graph`]).
    gm_balls: bool,
    /// Work counters, drained by the driver after the worker finishes.
    pub stats: WarmStats,
}

impl WarmMatcher {
    /// Creates a matcher for `pattern` with no carried state.
    pub fn new(pattern: &Pattern) -> Self {
        let mut classes: Vec<(Label, Vec<NodeId>)> = Vec::new();
        for u in pattern.nodes() {
            let label = pattern.label(u);
            match classes.iter_mut().find(|(l, _)| *l == label) {
                Some((_, nodes)) => nodes.push(u),
                None => classes.push((label, vec![u])),
            }
        }
        WarmMatcher {
            classes,
            carry: None,
            spare: None,
            seeded: SeededScratch::new(pattern),
            suspects: Vec::new(),
            touched: Vec::new(),
            gain_queue: VecDeque::new(),
            entered_buf: Vec::new(),
            left_buf: Vec::new(),
            near_left: Vec::new(),
            carry_fresh: false,
            flood_penalty: 0,
            flood_backoff: BAIL_BACKOFF_START,
            gm_balls: false,
            stats: WarmStats::default(),
        }
    }

    /// Marks the matcher's balls as built inside the match-graph substrate `Gm`, where
    /// the output stage skips connectivity pruning: every `Gm` node is a candidate and a
    /// `Gm` ball is the undirected BFS closure of its center, so the center's
    /// match-graph component — all that is extracted — is the same with or without it.
    pub(crate) fn on_match_graph(mut self, gm: bool) -> Self {
        self.gm_balls = gm;
        self
    }

    /// The per-ball dispatch gate shared by the drivers: returns `true` when the ball
    /// should go through [`WarmMatcher::match_ball`] (the carry rides slides), and
    /// `false` for rebuilt balls — far jumps and the forest's adaptive back-off — which
    /// must take the caller's plain scratch path. The invalidation of the carried
    /// relation lives *here* so no driver can forget it: a rebuild severs the carry's
    /// relationship to the next slide delta, and the next matcher-processed ball
    /// re-seeds the chain from its own scratch refinement.
    pub fn wants(&mut self, ball_move: BallMove) -> bool {
        if matches!(ball_move, BallMove::Same | BallMove::Slid) {
            true
        } else {
            self.carry_fresh = false;
            false
        }
    }

    /// Severs the carry chain and resets the flood back-off to its fresh-matcher state,
    /// exactly as a newly constructed matcher would start — while keeping the allocated
    /// relation buffers and the cumulative [`WarmStats`]. The chunk scheduler calls this
    /// at every chunk boundary so warm-start decisions are a function of chunk content
    /// alone, independent of which worker runs the chunk.
    pub fn reset_chain(&mut self) {
        if let Some(carry) = self.carry.take() {
            if let Some(relation) = carry.relation {
                self.spare = Some(relation);
            }
        }
        self.carry_fresh = false;
        self.flood_penalty = 0;
        self.flood_backoff = BAIL_BACKOFF_START;
    }

    /// The members (local → global) and converged relation carried from the last
    /// processed ball — the exact per-node candidate bitsets the next ball warm-starts
    /// from (`None` relation = the exact empty fixpoint). Exposed for the differential
    /// harness and diagnostics.
    pub fn carried_relation(&self) -> Option<(&[NodeId], Option<&MatchRelation>)> {
        self.carry
            .as_ref()
            .map(|c| (c.members.as_slice(), c.relation.as_ref()))
    }

    /// Whether the carry reflects the *last processed* ball (false inside a flood
    /// back-off window, where maintenance is skipped). A non-empty fresh carry's
    /// members are the last ball's; an empty fresh carry may keep stale members, since
    /// the empty fixpoint needs no translation.
    pub fn carry_is_fresh(&self) -> bool {
        self.carry_fresh
    }

    /// Matches one ball, warm-starting from the previous ball's fixpoint when the
    /// membership delta allows it. `ball_move`, `entered` and `left` come from the
    /// forest that produced `ball` ([`crate::ball::BallForest::last_move`] &c.);
    /// `global_relation` is the dual-filter base when that optimisation is on.
    ///
    /// Returns the extracted perfect subgraph (bit-identical to the from-scratch
    /// pipeline) plus the number of pairs the per-ball refinement removed — the
    /// dual-filter instrumentation, whose value is seed-dependent by design.
    #[allow(clippy::too_many_arguments)]
    pub fn match_ball(
        &mut self,
        pattern: &Pattern,
        data: &Graph,
        ball: &CompactBall,
        ball_move: BallMove,
        entered: &[NodeId],
        left: &[NodeId],
        global_relation: Option<&MatchRelation>,
        connectivity_pruning: bool,
        refine_strategy: RefineStrategy,
        repetition: RepetitionSemantics,
        repetition_mode: RepetitionMode,
    ) -> (Option<PerfectSubgraph>, usize) {
        let view = ball.view(data);
        let n = ball.node_count();
        let mut removed_pairs = 0usize;

        // The flood back-off window is measured in matcher-processed balls and counts
        // down unconditionally — gating the decrement on probe eligibility would
        // deadlock (a closed window keeps the carry stale, staleness blocks probes, and
        // blocked probes would never reopen the window).
        if self.flood_penalty > 0 {
            self.flood_penalty -= 1;
        }
        // A warm start needs (a) a carry that corresponds to the *previous* ball — the
        // forest's entered/left delta is relative to it, and a rebuild (including the
        // adaptive back-off) invalidated that relationship, so the carried relation is
        // reset by re-seeding it from this ball's scratch refinement — (b) a
        // non-degenerate delta, and (c) an open flood back-off window: after a flooded
        // gain closure, probes sit out a doubling window of scratch balls, so
        // unstable-relation regions decay to scratch seeding at negligible overhead,
        // mirroring the forest's slide back-off.
        let probe = self.carry.is_some()
            && self.carry_fresh
            && self.flood_penalty == 0
            && matches!(ball_move, BallMove::Same | BallMove::Slid);
        let mut warm = probe;
        if warm {
            self.touched.clear();
            self.suspects.clear();
            self.entered_buf.clear();
            self.entered_buf.extend_from_slice(entered);
            self.left_buf.clear();
            self.left_buf.extend_from_slice(left);
            warm = self.entered_buf.len() + self.left_buf.len()
                <= (n / DEGENERATE_DELTA_DIVISOR).max(2);
        }

        let mut attempt: Option<MatchRelation> = None;
        if warm {
            attempt =
                self.warm_attempt(pattern, data, ball, global_relation, n, &mut removed_pairs);
            match &attempt {
                Some(_) => {
                    self.stats.warm_balls += 1;
                    self.stats.seeded_pairs += self.suspects.len();
                    self.flood_backoff = BAIL_BACKOFF_START;
                }
                None => {
                    self.stats.bailed_balls += 1;
                    self.flood_penalty = self.flood_backoff;
                    self.flood_backoff = (self.flood_backoff * 2).min(BAIL_BACKOFF_MAX);
                    warm = false;
                    removed_pairs = 0;
                    self.touched.clear();
                    self.suspects.clear();
                }
            }
        }
        let relation: Option<MatchRelation> = if attempt.is_some() {
            // An emptied warm fixpoint — whether cleared by the drain or empty straight
            // out of translation — is recorded as `None`, the carry's buffer-free empty
            // representation, so hopeless stretches skip the member copy.
            match attempt {
                Some(rel) if rel.is_empty() => {
                    self.spare = Some(rel);
                    None
                }
                other => other,
            }
        } else {
            // First ball of a chain, a degenerate delta or a bail window: refine from
            // scratch with the stock engines (worklist / border-seeded dualFilter). A
            // non-total result means the exact fixpoint is empty (connected pattern),
            // recorded as `None` without touching any buffers.
            self.stats.scratch_balls += 1;
            let start = match global_relation {
                Some(global) => global.project_compact(ball),
                None => initial_candidates(pattern, &view),
            };
            self.stats.seeded_pairs += start.pair_count();
            if global_relation.is_some() {
                refine_projected(
                    pattern,
                    &view,
                    ball.border(),
                    start,
                    Some(&mut removed_pairs),
                )
            } else {
                refine_dual_with(pattern, &view, start, refine_strategy)
            }
        };

        // Output: totality gate, optional pruning (after the fact — see module docs),
        // then extraction; the *pruning-free* fixpoint is what the next ball inherits.
        let mut result = None;
        let mut match_graph = None;
        if let Some(rel) = relation.as_ref().filter(|r| r.is_total()) {
            if connectivity_pruning {
                // Non-`Free` semantics close the pruned-and-re-refined relation, exactly
                // where the scratch pipeline runs the closure (between convergence and
                // extraction); the pruning-free carry below is untouched by it.
                let mut repetition_stats = (0usize, 0usize);
                let pruned = if self.gm_balls {
                    Some(rel.clone())
                } else {
                    prune_by_connectivity(pattern, &view, ball.center(), rel).and_then(|pruned| {
                        refine_dual_with(pattern, &view, pruned, refine_strategy)
                    })
                };
                result = pruned
                    .and_then(|mut final_rel| {
                        let outcome = enforce_repetition(
                            pattern,
                            &view,
                            &mut final_rel,
                            repetition,
                            repetition_mode,
                        );
                        repetition_stats = (outcome.removed_pairs, usize::from(outcome.bailed));
                        final_rel.is_total().then_some(final_rel)
                    })
                    .and_then(|final_rel| {
                        extract_max_perfect_subgraph(
                            pattern,
                            &view,
                            &final_rel,
                            ball.center(),
                            ball.radius(),
                        )
                    })
                    .map(|s| translate_subgraph(s, ball));
                self.stats.repetition_filtered_pairs += repetition_stats.0;
                self.stats.repetition_bailed_balls += repetition_stats.1;
            } else if pattern.nodes().any(|u| rel.contains(u, ball.center())) {
                // Only extracting balls build (and carry) a match graph — an unmatched
                // center extracts nothing, exactly like the scratch pipeline, which
                // bails before building the graph.
                let mg = self.build_match_graph(pattern, data, ball, rel, warm);
                // The repetition closure runs on a *clone* of the converged relation:
                // the carry (and the match graph it maintains) must stay the plain dual
                // fixpoint the warm-start exactness argument is built on. A closure
                // that changed nothing leaves the match-graph extraction path — proven
                // bit-identical to the scratch extraction — in charge.
                let closed = (repetition != RepetitionSemantics::Free
                    && crate::repetition::has_repeated_labels(pattern))
                .then(|| {
                    let mut closed = rel.clone();
                    let outcome = enforce_repetition(
                        pattern,
                        &view,
                        &mut closed,
                        repetition,
                        repetition_mode,
                    );
                    self.stats.repetition_filtered_pairs += outcome.removed_pairs;
                    self.stats.repetition_bailed_balls += usize::from(outcome.bailed);
                    (closed, outcome.changed)
                });
                result = match closed {
                    Some((closed, true)) => closed
                        .is_total()
                        .then(|| {
                            extract_max_perfect_subgraph(
                                pattern,
                                &view,
                                &closed,
                                ball.center(),
                                ball.radius(),
                            )
                        })
                        .flatten()
                        .map(|s| translate_subgraph(s, ball)),
                    _ => extract_component(&mg, ball, rel),
                };
                match_graph = Some(mg);
            }
        }
        // Maintain the carry only when the next balls can consume it: deep inside a
        // flood back-off window nothing probes before the window closes, so the member
        // copy and relation hand-over would be pure overhead. The ball right before the
        // window closes (penalty ≤ 1) refreshes the carry for the probe.
        if self.flood_penalty <= 1 {
            match self.carry.as_mut() {
                Some(c) => {
                    match relation {
                        Some(rel) => {
                            if let Some(old) = c.relation.replace(rel) {
                                self.spare = Some(old);
                            }
                            c.members.clear();
                            c.members.extend_from_slice(ball.to_global());
                        }
                        None => {
                            // An empty carry is never translated, so its member list
                            // can stay stale — no per-ball copy on hopeless stretches.
                            if let Some(old) = c.relation.take() {
                                self.spare = Some(old);
                            }
                        }
                    }
                    c.match_graph = match_graph;
                }
                None => {
                    self.carry = Some(Carry {
                        members: ball.to_global().to_vec(),
                        relation,
                        match_graph,
                    });
                }
            }
            self.carry_fresh = true;
        } else {
            if let Some(rel) = relation {
                self.spare = Some(rel);
            }
            self.carry_fresh = false;
        }
        let removed = if global_relation.is_some() {
            removed_pairs
        } else {
            0 // removal counting is dual-filter instrumentation, as in the scratch path
        };
        (result, removed)
    }

    /// One warm attempt: translate, gain-closure (budgeted), suspect seeding and the
    /// seeded drain. Returns `None` when the closure flooded past its budget (the
    /// caller bails to scratch seeding). Kept out of line so the bootstrap-dominated
    /// hot path through [`WarmMatcher::match_ball`] stays compact.
    #[inline(never)]
    fn warm_attempt(
        &mut self,
        pattern: &Pattern,
        data: &Graph,
        ball: &CompactBall,
        global_relation: Option<&MatchRelation>,
        n: usize,
        removed_pairs: &mut usize,
    ) -> Option<MatchRelation> {
        let view = ball.view(data);
        // Disjoint borrows of the matcher's buffers for the seeding phase.
        let Self {
            classes,
            carry,
            spare,
            seeded,
            suspects,
            touched,
            gain_queue,
            entered_buf,
            left_buf,
            near_left,
            ..
        } = self;
        let carry = carry.as_ref().expect("warm implies a carry");
        'attempt: {
            // 1. Translate the carried fixpoint through the remap.
            let mut rel = spare.take().map_or_else(
                || MatchRelation::empty(pattern.node_count(), n),
                |mut r| {
                    r.reset(n);
                    r
                },
            );
            if let Some(prev_rel) = &carry.relation {
                for u in pattern.nodes() {
                    for old_local in prev_rel.candidates(u).iter() {
                        if let Some(new_local) = ball.local_of(carry.members[old_local]) {
                            rel.insert(u, new_local);
                        }
                    }
                }
            }
            // 2. Re-open gains: entered nodes get their full base candidates; the
            // pair-level closure chases potential support chains back into the
            // common region. A closure that floods past its budget means the
            // fixpoint sits far below the base — scratch seeding is cheaper there,
            // so the attempt is abandoned (the recycled relation is kept for later).
            let gain_budget = (rel.pair_count() / 4).max(GAIN_BUDGET_MIN);
            let mut gains = 0usize;
            let base_ok = |u: NodeId, g: NodeId| -> bool {
                pattern.label(u) == data.label(g)
                    && global_relation.is_none_or(|gr| gr.contains(u, g))
            };
            gain_queue.clear();
            for &g in entered_buf.iter() {
                let Some(v) = ball.local_of(g) else { continue };
                let label = data.label(g);
                let Some((_, class)) = classes.iter().find(|(l, _)| *l == label) else {
                    continue;
                };
                for &u in class {
                    if base_ok(u, g) && rel.insert(u, v) {
                        gains += 1;
                        if gains > gain_budget {
                            *spare = Some(rel);
                            break 'attempt None;
                        }
                        gain_queue.push_back((u, v));
                        suspects.push((u, v));
                        touched.push(v);
                    }
                }
            }
            let q = pattern.graph();
            while let Some((b, w)) = gain_queue.pop_front() {
                // (b, w) was re-opened: w may now witness the child support of
                // in-neighbour pairs along pattern edges (a, b) and the parent
                // support of out-neighbour pairs along pattern edges (b, c).
                for a in q.in_neighbors(b) {
                    for v in view.in_neighbors(w) {
                        if base_ok(a, ball.global_of(v)) && rel.insert(a, v) {
                            gains += 1;
                            if gains > gain_budget {
                                *spare = Some(rel);
                                break 'attempt None;
                            }
                            gain_queue.push_back((a, v));
                            suspects.push((a, v));
                            touched.push(v);
                        }
                    }
                }
                for c in q.out_neighbors(b) {
                    for v in view.out_neighbors(w) {
                        if base_ok(c, ball.global_of(v)) && rel.insert(c, v) {
                            gains += 1;
                            if gains > gain_budget {
                                *spare = Some(rel);
                                break 'attempt None;
                            }
                            gain_queue.push_back((c, v));
                            suspects.push((c, v));
                            touched.push(v);
                        }
                    }
                }
            }
            // 3. Suspect every pair that may have *lost* support: the pairs on
            // nodes adjacent to a departed node (their witness sets shrank). An
            // empty relation — the common case on unmatchable stretches — has
            // nothing to lose, so the adjacency scan is skipped outright.
            if !rel.is_empty() {
                near_left.clear();
                for &l in left_buf.iter() {
                    for w in data.out_neighbors(l).chain(data.in_neighbors(l)) {
                        if let Some(wl) = ball.local_of(w) {
                            near_left.push(wl);
                        }
                    }
                }
                near_left.sort_unstable();
                near_left.dedup();
                for &wl in near_left.iter() {
                    for u in pattern.nodes() {
                        if rel.contains(u, wl) {
                            suspects.push((u, wl));
                        }
                    }
                }
            }
            if !suspects.is_empty() {
                drain_seeded(seeded, &view, &mut rel, suspects, removed_pairs, touched);
            }
            Some(rel)
        }
    }

    /// Builds the ball's match graph in global ids — incrementally, when the previous
    /// ball left one behind and this ball warm-started, by re-deriving only the dirty
    /// sources' rows.
    fn build_match_graph(
        &mut self,
        pattern: &Pattern,
        data: &Graph,
        ball: &CompactBall,
        relation: &MatchRelation,
        warm: bool,
    ) -> MatchGraph {
        let mut nodes: Vec<NodeId> = relation
            .matched_data_nodes()
            .iter()
            .map(|i| ball.global_of(NodeId::from_index(i)))
            .collect();
        nodes.sort_unstable();
        let previous = if warm {
            self.carry.as_ref().and_then(|c| c.match_graph.as_ref())
        } else {
            None
        };
        // Dirty sources: a row (the match edges out of one node) changes only when the
        // node's own candidates changed, it entered or left the ball, or one of its
        // out-neighbours did — i.e. it is an in-neighbour of such a node. Splicing only
        // pays when that core is a small fraction of the matched set: on small or
        // delta-heavy balls the in-neighbour expansion plus merge costs more than
        // re-deriving every row, so fall back to a full (equally exact) rebuild.
        let spliceable = previous.and_then(|prev| {
            let mut core: Vec<NodeId> = self
                .entered_buf
                .iter()
                .chain(self.left_buf.iter())
                .copied()
                .chain(self.touched.iter().map(|&l| ball.global_of(l)))
                .collect();
            core.sort_unstable();
            core.dedup();
            // The dirty set still grows by the core's in-neighbourhoods before rows are
            // re-derived, so splicing needs a core well below the matched count to beat
            // a plain rebuild.
            (core.len() * 4 < nodes.len()).then_some((prev, core))
        });
        let edges = match spliceable {
            Some((prev, mut dirty)) => {
                self.stats.match_graphs_reused += 1;
                let core_len = dirty.len();
                for i in 0..core_len {
                    let g = dirty[i];
                    dirty.extend(data.in_neighbors(g));
                }
                dirty.sort_unstable();
                dirty.dedup();
                let mut fresh_rows: Vec<(NodeId, NodeId)> = Vec::new();
                for &g in &dirty {
                    if let Some(v) = ball.local_of(g) {
                        push_match_row(pattern, ball, relation, g, v, data, &mut fresh_rows);
                    }
                }
                splice_rows(&prev.edges, &dirty, fresh_rows)
            }
            None => {
                let mut rows = Vec::new();
                for &g in &nodes {
                    let v = ball.local_of(g).expect("matched node is a ball member");
                    push_match_row(pattern, ball, relation, g, v, data, &mut rows);
                }
                rows
            }
        };
        MatchGraph { nodes, edges }
    }
}

/// Empties every candidate set: the exact fixpoint of an unmatchable ball (connected
/// patterns — see the module docs).
fn clear_relation(relation: &mut MatchRelation) {
    let n = relation.data_node_capacity();
    relation.reset(n);
}

/// `ExtractMaxPG` over a global-id match graph and a ball-local relation: the center's
/// component with its edges and relation pairs, bit-identical to the scratch pipeline's
/// `extract_max_perfect_subgraph` + `translate_subgraph` but with ball-sized filtering
/// (the component bitset and the pair sort cover only the component, not the ball).
fn extract_component(
    mg: &MatchGraph,
    ball: &CompactBall,
    relation: &MatchRelation,
) -> Option<PerfectSubgraph> {
    let component = mg.component_containing(ball.center_global())?;
    let mut in_component = ssim_graph::BitSet::new(ball.node_count());
    for &g in &component {
        let local = ball.local_of(g).expect("component node is a ball member");
        in_component.insert(local.index());
    }
    let edges: Vec<(NodeId, NodeId)> = mg
        .edges
        .iter()
        .copied()
        .filter(|&(s, t)| {
            let sl = ball
                .local_of(s)
                .expect("match edge source is a ball member");
            let tl = ball
                .local_of(t)
                .expect("match edge target is a ball member");
            in_component.contains(sl.index()) && in_component.contains(tl.index())
        })
        .collect();
    let mut pairs: Vec<(NodeId, NodeId)> = relation
        .pairs()
        .filter(|&(_, v)| in_component.contains(v.index()))
        .map(|(u, v)| (u, ball.global_of(v)))
        .collect();
    pairs.sort_unstable();
    Some(PerfectSubgraph {
        center: ball.center_global(),
        radius: ball.radius(),
        nodes: component,
        edges,
        relation: pairs,
    })
}

/// The seeded, lazily-counted worklist drain: verifies the suspect pairs, removes the
/// unsupported ones and propagates through capped support counters initialised on first
/// touch. Computes the maximum dual-simulation relation contained in the start
/// **provided** `suspects` covers every initially unsupported pair. When some candidate
/// set empties mid-drain the relation is cleared to the exact empty fixpoint (connected
/// patterns — see the module docs) instead of being drained further.
fn drain_seeded<V: AdjView>(
    s: &mut SeededScratch,
    view: &V,
    relation: &mut MatchRelation,
    suspects: &[(NodeId, NodeId)],
    removed: &mut usize,
    touched: &mut Vec<NodeId>,
) {
    if s.edges.is_empty() {
        return; // no pattern edges: every pair is vacuously supported
    }
    let n = relation.data_node_capacity();
    let need = s.edges.len() * n;
    if s.child_val.len() < need {
        s.child_val.resize(need, 0);
        s.child_epoch.resize(need, 0);
        s.parent_val.resize(need, 0);
        s.parent_epoch.resize(need, 0);
    }
    s.epoch = s.epoch.wrapping_add(1);
    if s.epoch == 0 {
        s.child_epoch.fill(0);
        s.parent_epoch.fill(0);
        s.epoch = 1;
    }
    let epoch = s.epoch;
    s.queue.clear();

    // Verify the suspects, initialising their counters along the way.
    for &(u, v) in suspects {
        if !relation.contains(u, v) {
            continue; // re-suspected pair already removed
        }
        let ui = u.index();
        let mut dead = false;
        for &e in &s.eout[s.eout_off[ui] as usize..s.eout_off[ui + 1] as usize] {
            let e = e as usize;
            let u_child = s.edges[e].1;
            let c = count_capped(view.out_neighbors(v), |w| relation.contains(u_child, w));
            s.child_val[e * n + v.index()] = c;
            s.child_epoch[e * n + v.index()] = epoch;
            if c == 0 {
                dead = true;
                break;
            }
        }
        if !dead {
            for &e in &s.ein[s.ein_off[ui] as usize..s.ein_off[ui + 1] as usize] {
                let e = e as usize;
                let u_parent = s.edges[e].0;
                let c = count_capped(view.in_neighbors(v), |w| relation.contains(u_parent, w));
                s.parent_val[e * n + v.index()] = c;
                s.parent_epoch[e * n + v.index()] = epoch;
                if c == 0 {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            relation.remove(u, v);
            *removed += 1;
            touched.push(v);
            if relation.candidates(u).is_empty() {
                clear_relation(relation);
                return;
            }
            s.queue.push_back((u, v));
        }
    }

    // Propagate: each removal (u, v) may break the child support of in-neighbour pairs
    // along pattern edges (u2, u) and the parent support of out-neighbour pairs along
    // (u, u3) — exactly the worklist engine's cascade, with lazy counter init.
    while let Some((u, v)) = s.queue.pop_front() {
        let ui = u.index();
        for &e in &s.ein[s.ein_off[ui] as usize..s.ein_off[ui + 1] as usize] {
            let e = e as usize;
            let u2 = s.edges[e].0;
            let base = e * n;
            for w in view.in_neighbors(v) {
                if !relation.contains(u2, w) {
                    continue;
                }
                let idx = base + w.index();
                let (current, fresh) = if s.child_epoch[idx] == epoch {
                    let nv = s.child_val[idx].saturating_sub(1);
                    s.child_val[idx] = nv;
                    (nv, false)
                } else {
                    let c = count_capped(view.out_neighbors(w), |x| relation.contains(u, x));
                    s.child_epoch[idx] = epoch;
                    s.child_val[idx] = c;
                    (c, true)
                };
                if current == 0 {
                    // A decremented zero is only a suspicion (the cap, and possible
                    // over-fired decrements): recount before concluding.
                    let c = if fresh {
                        0
                    } else {
                        count_capped(view.out_neighbors(w), |x| relation.contains(u, x))
                    };
                    s.child_val[idx] = c;
                    if c == 0 && relation.remove(u2, w) {
                        *removed += 1;
                        touched.push(w);
                        if relation.candidates(u2).is_empty() {
                            clear_relation(relation);
                            return;
                        }
                        s.queue.push_back((u2, w));
                    }
                }
            }
        }
        for &e in &s.eout[s.eout_off[ui] as usize..s.eout_off[ui + 1] as usize] {
            let e = e as usize;
            let u3 = s.edges[e].1;
            let base = e * n;
            for w in view.out_neighbors(v) {
                if !relation.contains(u3, w) {
                    continue;
                }
                let idx = base + w.index();
                let (current, fresh) = if s.parent_epoch[idx] == epoch {
                    let nv = s.parent_val[idx].saturating_sub(1);
                    s.parent_val[idx] = nv;
                    (nv, false)
                } else {
                    let c = count_capped(view.in_neighbors(w), |x| relation.contains(u, x));
                    s.parent_epoch[idx] = epoch;
                    s.parent_val[idx] = c;
                    (c, true)
                };
                if current == 0 {
                    let c = if fresh {
                        0
                    } else {
                        count_capped(view.in_neighbors(w), |x| relation.contains(u, x))
                    };
                    s.parent_val[idx] = c;
                    if c == 0 && relation.remove(u3, w) {
                        *removed += 1;
                        touched.push(w);
                        if relation.candidates(u3).is_empty() {
                            clear_relation(relation);
                            return;
                        }
                        s.queue.push_back((u3, w));
                    }
                }
            }
        }
    }
}

/// Appends the sorted, deduplicated match-graph row of data node `g` (local id `v`):
/// every ball edge `g → w` covered by some pattern edge under `relation`.
fn push_match_row(
    pattern: &Pattern,
    ball: &CompactBall,
    relation: &MatchRelation,
    g: NodeId,
    v: NodeId,
    data: &Graph,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    let view = ball.view(data);
    let start = out.len();
    for (a, b) in pattern.graph().edges() {
        if relation.contains(a, v) {
            for w in view.out_neighbors(v) {
                if relation.contains(b, w) {
                    out.push((g, ball.global_of(w)));
                }
            }
        }
    }
    // Sort and deduplicate only the row just appended (several pattern edges can cover
    // the same data edge); earlier rows have distinct sources and stay untouched.
    out[start..].sort_unstable();
    let mut write = start;
    for read in start..out.len() {
        if write == start || out[write - 1] != out[read] {
            out[write] = out[read];
            write += 1;
        }
    }
    out.truncate(write);
}

/// Merges the previous ball's edge list with freshly derived rows: edges sourced at a
/// dirty node are dropped (their row was re-derived — possibly to nothing), everything
/// else is spliced through. Both inputs are sorted; the output is too.
fn splice_rows(
    old: &[(NodeId, NodeId)],
    dirty_sorted: &[NodeId],
    fresh: Vec<(NodeId, NodeId)>,
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::with_capacity(old.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for &(s, t) in old {
        if dirty_sorted.binary_search(&s).is_ok() {
            continue;
        }
        while let Some(&(fs, ft)) = fresh.peek() {
            if (fs, ft) < (s, t) {
                out.push((fs, ft));
                fresh.next();
            } else {
                break;
            }
        }
        out.push((s, t));
    }
    out.extend(fresh);
    out
}
