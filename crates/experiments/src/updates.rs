//! Update-stream experiment: the continuously-serving store under edge churn.
//!
//! The paper's locality results (Prop. 3) make updates intrinsically local; the
//! versioned substrate ([`ssim_graph::OverlayGraph`]) makes *applying* them cheap too —
//! `O(patches)` patch staging instead of the `O(|V|+|E|)` CSR rebuild of
//! `Graph::apply_delta`. This experiment measures both layers on one workload:
//!
//! * **substrate** — per-delta microseconds for the overlay apply vs the flat rebuild,
//!   plus the compaction count and the live overlay fraction after the stream;
//! * **engine** — wall-clock for a one-query [`QueryService`] absorbing the stream
//!   (per delta, and folded into batches through `apply_batch`) against the recompute
//!   oracle — the flat graph advanced with `Graph::apply_delta` and the one-shot matcher
//!   re-run per batch — with the dirty-ball fraction that drives the difference.
//!
//! Every row cross-checks the session rows against a one-shot match on the final graph,
//! so the numbers are only reported for bit-identical outputs.

use crate::scale::ExperimentScale;
use crate::workloads::{experiment_pattern, DatasetKind};
use ssim_core::service::QueryService;
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_graph::{Graph, GraphDelta, OverlayGraph};
use std::time::Instant;

/// One measured churn level.
#[derive(Debug, Clone)]
pub struct UpdateRow {
    /// Fraction of `|E|` churned per delta.
    pub churn: f64,
    /// Edges churned per delta.
    pub churn_edges: usize,
    /// Deltas in the stream.
    pub updates: usize,
    /// Batch size fed to `apply_batch` (1 = per-delta `apply`).
    pub batch: usize,
    /// Mean microseconds per delta for `OverlayGraph::apply_delta`.
    pub overlay_apply_us: f64,
    /// Mean microseconds per delta for the flat `Graph::apply_delta` rebuild.
    pub rebuild_us: f64,
    /// Compactions the overlay's policy triggered across the stream.
    pub compactions: u64,
    /// Live overlay mass over `|E|` after the stream.
    pub overlay_fraction: f64,
    /// Mean dirty-ball fraction across the per-delta session's updates.
    pub dirty_fraction: f64,
    /// Wall-clock seconds for the incremental session absorbing the stream.
    pub incremental_secs: f64,
    /// Wall-clock seconds for the recompute oracle absorbing the stream.
    pub recompute_secs: f64,
    /// `recompute_secs / incremental_secs`.
    pub speedup: f64,
    /// Whether the session's final rows equal a one-shot match on the final graph.
    pub matches_oneshot: bool,
}

/// A deterministic churn stream: `updates` deltas alternately deleting and re-inserting
/// the same evenly-spaced `churn_edges` edges, so the graph oscillates between two
/// versions instead of drifting away from the workload's intended shape. No RNG: the
/// stride picks the edges, which keeps the experiment reproducible at every scale.
fn churn_stream(data: &Graph, churn_edges: usize, updates: usize) -> Vec<GraphDelta> {
    let edges: Vec<_> = data.edges().collect();
    let target = churn_edges.clamp(1, edges.len());
    let stride = (edges.len() / target).max(1);
    let mut deletion = GraphDelta::new();
    for (s, t) in edges.iter().step_by(stride).take(target) {
        deletion.delete_edge(*s, *t);
    }
    let reinsertion = deletion.inverse();
    (0..updates)
        .map(|k| {
            if k % 2 == 0 {
                deletion.clone()
            } else {
                reinsertion.clone()
            }
        })
        .collect()
}

/// Runs the experiment on one dataset family, sweeping churn level and batch size.
pub fn update_streams(dataset: DatasetKind, scale: &ExperimentScale) -> Vec<UpdateRow> {
    let data = dataset.generate(scale.data_nodes, scale.seed);
    let pattern = experiment_pattern(&data, scale.fixed_pattern_size, scale.point_seed(910, 0));
    let config = MatchConfig::optimized();
    let updates = 6usize;
    let mut rows = Vec::new();
    for churn in [0.01f64, 0.05] {
        let churn_edges = ((data.edge_count() as f64 * churn).ceil() as usize).max(1);
        let stream = churn_stream(&data, churn_edges, updates);
        // Substrate layer: overlay patch staging vs flat rebuild, same stream.
        let mut overlay = OverlayGraph::new(data.clone());
        let start = Instant::now();
        for delta in &stream {
            overlay.apply_delta(delta).expect("stream validates");
        }
        let overlay_apply_us = start.elapsed().as_secs_f64() * 1e6 / stream.len() as f64;
        let mut flat = data.clone();
        let start = Instant::now();
        for delta in &stream {
            flat = flat.apply_delta(delta).expect("stream validates");
        }
        let rebuild_us = start.elapsed().as_secs_f64() * 1e6 / stream.len() as f64;
        assert!(flat == overlay.to_graph(), "substrates diverged");
        // Engine layer: session vs oracle, per-delta and batched.
        for batch in [1usize, 3] {
            let mut inc = QueryService::new(data.clone());
            let id = inc.register(&pattern, config);
            let mut dirty = 0usize;
            let start = Instant::now();
            for chunk in stream.chunks(batch) {
                inc.apply_batch(chunk).expect("stream validates");
                dirty += inc.last_update(id).expect("registered").dirty_balls;
            }
            let incremental_secs = start.elapsed().as_secs_f64();
            let applies = stream.len().div_ceil(batch);
            let dirty_fraction = dirty as f64 / (applies * data.node_count()).max(1) as f64;
            let mut rec_graph = data.clone();
            let mut rec = None;
            let start = Instant::now();
            for chunk in stream.chunks(batch) {
                for delta in chunk {
                    rec_graph = rec_graph.apply_delta(delta).expect("stream validates");
                }
                rec = Some(strong_simulation(&pattern, &rec_graph, &config));
            }
            let recompute_secs = start.elapsed().as_secs_f64();
            let oneshot = strong_simulation(&pattern, &flat, &config);
            let matches_oneshot = inc.output(id).expect("registered").subgraphs
                == oneshot.subgraphs
                && rec.is_some_and(|rec| rec.subgraphs == oneshot.subgraphs);
            rows.push(UpdateRow {
                churn,
                churn_edges,
                updates,
                batch,
                overlay_apply_us,
                rebuild_us,
                compactions: overlay.compactions(),
                overlay_fraction: overlay.overlay_fraction(),
                dirty_fraction,
                incremental_secs,
                recompute_secs,
                speedup: recompute_secs / incremental_secs.max(f64::MIN_POSITIVE),
                matches_oneshot,
            });
        }
    }
    rows
}

/// Renders the update rows as a text table.
pub fn render(rows: &[UpdateRow], dataset: DatasetKind) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== upd — update streams on the versioned substrate ({}) ==",
        dataset.name()
    );
    let _ = writeln!(
        out,
        "{:>7}{:>7}{:>13}{:>13}{:>9}{:>9}{:>11}{:>11}{:>9}{:>9}",
        "churn",
        "batch",
        "apply us/d",
        "rebuild us",
        "compact",
        "dirty",
        "inc ms",
        "rec ms",
        "speedup",
        "correct"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6.0}%{:>7}{:>13.1}{:>13.1}{:>9}{:>8.1}%{:>11.3}{:>11.3}{:>8.2}x{:>9}",
            r.churn * 100.0,
            r.batch,
            r.overlay_apply_us,
            r.rebuild_us,
            r.compactions,
            r.dirty_fraction * 100.0,
            r.incremental_secs * 1e3,
            r.recompute_secs * 1e3,
            r.speedup,
            r.matches_oneshot
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_rows_are_correct_and_overlay_amortises() {
        let scale = ExperimentScale::tiny();
        let rows = update_streams(DatasetKind::Synthetic, &scale);
        assert_eq!(rows.len(), 4, "two churn levels x two batch sizes");
        assert!(
            rows.iter().all(|r| r.matches_oneshot),
            "a session diverged from the one-shot matcher"
        );
        // Zero is legitimate: a delta outside the match graph dirties no ball.
        assert!(
            rows.iter().all(|r| (0.0..=1.0).contains(&r.dirty_fraction)),
            "dirty fractions out of range"
        );
        let text = render(&rows, DatasetKind::Synthetic);
        assert!(text.contains("apply us/d"));
    }
}
