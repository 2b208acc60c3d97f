//! The [`BallSubstrate`] axis: which graph every ball `Ĝ[w, dQ]` is built in.
//!
//! Every ball is built by a fresh bounded BFS ([`ssim_graph::CompactBall::build`]) and
//! refined from scratch, as in the paper's `Match` (Fig. 3) and `Match+` (Fig. 5). The
//! one-shot engine and the distributed sites visit their centers in ascending id order
//! and evaluate each ball through the same [`crate::strong::MatchPlan::evaluate`].

/// Which graph the ball pipeline traverses when the global dual-simulation filter is on —
/// an oracle axis next to [`crate::simulation::RefineStrategy`].
///
/// With dual filtering, only *matched* nodes can ever be candidates, support an in-ball
/// pair or appear in an extracted subgraph. The optimised `Match` of the paper (Fig. 5,
/// Proposition 5) therefore extracts the match graph `Gm` once and builds its balls
/// **inside `Gm`** — membership, distances and borders are all taken w.r.t. `Gm`, and on
/// selective patterns each ball's size tracks the candidate density instead of the raw
/// degree. Everything below `strong_simulation` then speaks `Gm` ids; results are
/// translated back at `PerfectSubgraph` emission.
///
/// The axis only takes effect when `dual_filter` is enabled (without the global relation
/// there is no `Gm`); every other configuration traverses the full graph regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BallSubstrate {
    /// Build balls inside the extracted match graph `Gm` (Fig. 5 semantics: ball
    /// membership and borders use `Gm` distances).
    #[default]
    MatchGraph,
    /// Build balls in the full data graph and only prune *centers* to matched nodes —
    /// the pre-extraction behaviour, kept as the equivalence oracle and as the baseline
    /// the `gm_substrate` bench ratios are measured against.
    FullGraph,
}
