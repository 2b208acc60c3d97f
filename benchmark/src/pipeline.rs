//! `Match+` rebuilt from the engine's public primitives, with a span around each layer.
//!
//! The chain is `minimize_pattern` → `dual_simulation` → `extract_matched_subgraph` →
//! per-`Gm`-node `CompactBall::build` → `match_compact_ball_filtered` →
//! `translate_to_outer`. Its rows must equal `strong_simulation` under
//! `MatchConfig::optimized()` bit for bit, which makes it both the output check of the
//! one-shot workloads and the outside-in trace of their layers. It runs sequentially
//! and without the engine's forest, warm-start and pruning layers, so its spans
//! attribute work to layers rather than reproduce the engine's time.

use ssim_core::dual::dual_simulation;
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::minimize::{minimize_pattern, MinimizedPattern};
use ssim_core::strong::{match_compact_ball_filtered, translate_to_outer};
use ssim_graph::{BallScratch, BitSet, CompactBall, Graph, NodeId, Pattern};
use std::time::{Duration, Instant};

/// Time spent in each layer, summed over the calls it was passed to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `minimize_pattern`.
    pub minimize: Duration,
    /// `dual_simulation` (the global fixpoint).
    pub dual: Duration,
    /// `MatchRelation::extract_matched_subgraph` (building `Gm`).
    pub subgraph: Duration,
    /// `CompactBall::build`, every ball.
    pub ball: Duration,
    /// `match_compact_ball_filtered`, every ball.
    pub strong: Duration,
}

impl Spans {
    /// Sum of all spans.
    pub fn total(&self) -> Duration {
        self.minimize + self.dual + self.subgraph + self.ball + self.strong
    }

    /// Adds `other` span by span.
    pub fn add(&mut self, other: &Spans) {
        self.minimize += other.minimize;
        self.dual += other.dual;
        self.subgraph += other.subgraph;
        self.ball += other.ball;
        self.strong += other.strong;
    }
}

/// Work counts of one pipeline run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Pairs in the global dual-simulation relation (0 when it is empty).
    pub dual_pairs: usize,
    /// Nodes of `Gm`.
    pub gm_nodes: usize,
    /// Balls built (one per `Gm` node).
    pub balls: usize,
    /// Nodes over all balls built.
    pub ball_nodes: usize,
}

impl Counts {
    /// Adds `other` count by count.
    pub fn add(&mut self, other: &Counts) {
        self.dual_pairs += other.dual_pairs;
        self.gm_nodes += other.gm_nodes;
        self.balls += other.balls;
        self.ball_nodes += other.ball_nodes;
    }
}

fn timed<T>(
    spans: &mut Option<&mut Spans>,
    slot: fn(&mut Spans) -> &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => {
            let start = Instant::now();
            let out = f();
            *slot(s) += start.elapsed();
            out
        }
        None => f(),
    }
}

/// The result of one pipeline run.
pub struct PipelineRun {
    /// The perfect subgraphs, ascending by center, exactly as the engine reports them.
    pub rows: Vec<PerfectSubgraph>,
    /// Work counts.
    pub counts: Counts,
    /// The ball centers `Match+` evaluates (the nodes of `Gm`), in data-graph ids.
    pub centers: BitSet,
}

/// Runs the primitive `Match+` chain; with `spans`, adds each layer's time to it.
pub fn match_plus(pattern: &Pattern, data: &Graph, mut spans: Option<&mut Spans>) -> PipelineRun {
    let mut counts = Counts::default();
    let minimized = timed(
        &mut spans,
        |s| &mut s.minimize,
        || minimize_pattern(pattern),
    );
    let effective = &minimized.pattern;
    let radius = minimized.original_diameter;
    let Some(global) = timed(
        &mut spans,
        |s| &mut s.dual,
        || dual_simulation(effective, data),
    ) else {
        return PipelineRun {
            rows: Vec::new(),
            counts,
            centers: BitSet::new(data.node_count()),
        };
    };
    counts.dual_pairs = global.pair_count();
    let mut centers = BitSet::new(0);
    let (gm, inner) = timed(
        &mut spans,
        |s| &mut s.subgraph,
        || global.extract_matched_subgraph(data, &mut centers),
    );
    counts.gm_nodes = gm.node_count();
    let members = class_members(&minimized);

    let mut scratch = BallScratch::new();
    let mut rows = Vec::new();
    for center in gm.graph().nodes() {
        let ball = timed(
            &mut spans,
            |s| &mut s.ball,
            || CompactBall::build(gm.graph(), center, radius, &mut scratch),
        );
        counts.balls += 1;
        counts.ball_nodes += ball.node_count();
        let found = timed(
            &mut spans,
            |s| &mut s.strong,
            || match_compact_ball_filtered(effective, &ball, gm.graph(), &inner),
        );
        ball.recycle(&mut scratch);
        if let Some(local) = found {
            let mut row = translate_to_outer(local, &gm);
            row.relation = expand_classes(&row.relation, &members);
            rows.push(row);
        }
    }
    PipelineRun {
        rows,
        counts,
        centers,
    }
}

/// The caller's pattern nodes in each class of a minimised pattern.
fn class_members(minimized: &MinimizedPattern) -> Vec<Vec<NodeId>> {
    let mut members = vec![Vec::new(); minimized.pattern.node_count()];
    for (original, class) in minimized.class_of.iter().enumerate() {
        members[class.index()].push(NodeId::from_index(original));
    }
    members
}

/// Rewrites `(class, data node)` pairs over a minimised pattern as sorted
/// `(pattern node, data node)` pairs over the caller's pattern, the way
/// `strong_simulation` reports them.
fn expand_classes(relation: &[(NodeId, NodeId)], members: &[Vec<NodeId>]) -> Vec<(NodeId, NodeId)> {
    let mut expanded = Vec::with_capacity(relation.len());
    for &(class, data_node) in relation {
        expanded.extend(members[class.index()].iter().map(|&u| (u, data_node)));
    }
    expanded.sort_unstable();
    expanded
}

/// Distributed rows in the form centralized `Match+` reports them. With
/// `minimize_query` the distributed runtime leaves each row's relation over the
/// minimised pattern's classes; nodes, edges and centers are unaffected.
pub fn expand_minimized(pattern: &Pattern, rows: &[PerfectSubgraph]) -> Vec<PerfectSubgraph> {
    let members = class_members(&minimize_pattern(pattern));
    rows.iter()
        .map(|row| PerfectSubgraph {
            relation: expand_classes(&row.relation, &members),
            ..row.clone()
        })
        .collect()
}
