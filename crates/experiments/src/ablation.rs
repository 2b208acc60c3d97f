//! Ablation of the Section 4.2 optimisations.
//!
//! The paper reports that the optimisations reduce `Match`'s running time by roughly one
//! third ("the running time of Match+ is consistently about 2/3 of the time taken by
//! Match"). This experiment times the plain matcher, each optimisation in isolation and the
//! full `Match+`, and also reports how many balls the dual-simulation filter skips.

use crate::report::Figure;
use crate::scale::ExperimentScale;
use crate::workloads::{experiment_pattern, DatasetKind};
use ssim_core::strong::{strong_simulation, MatchConfig};
use std::time::Instant;

/// One ablation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationVariant {
    /// Display name.
    pub name: &'static str,
    /// Matcher configuration.
    pub config: MatchConfig,
}

/// The configurations compared by the ablation bench.
pub fn variants() -> Vec<AblationVariant> {
    vec![
        AblationVariant {
            name: "Match",
            config: MatchConfig::basic(),
        },
        AblationVariant {
            name: "Match+minQ",
            config: MatchConfig {
                minimize_query: true,
                ..MatchConfig::basic()
            },
        },
        AblationVariant {
            name: "Match+filter",
            config: MatchConfig {
                dual_filter: true,
                ..MatchConfig::basic()
            },
        },
        AblationVariant {
            name: "Match+prune",
            config: MatchConfig {
                connectivity_pruning: true,
                ..MatchConfig::basic()
            },
        },
        AblationVariant {
            name: "Match+",
            config: MatchConfig::optimized(),
        },
    ]
}

/// One measured row of the ablation report.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub variant: &'static str,
    /// Average wall-clock seconds per run.
    pub seconds: f64,
    /// Average number of balls actually refined.
    pub balls_processed: f64,
    /// Average number of balls skipped by the global filter.
    pub balls_skipped: f64,
    /// Average number of perfect subgraphs (identical across variants — a sanity check).
    pub subgraphs: f64,
    /// Engine-layer summary of the last repetition (balls processed, `Gm` extraction
    /// selectivity) — see [`crate::report::engine_stats_line`].
    pub engine: String,
}

/// Runs the ablation on one dataset family.
pub fn optimization_ablation(dataset: DatasetKind, scale: &ExperimentScale) -> Vec<AblationRow> {
    let data = dataset.generate(scale.data_nodes, scale.seed);
    let mut rows = Vec::new();
    for variant in variants() {
        let mut seconds = 0.0;
        let mut processed = 0usize;
        let mut skipped = 0usize;
        let mut subgraphs = 0usize;
        let mut engine = String::new();
        let reps = scale.patterns_per_point.max(1);
        for rep in 0..reps {
            let pattern =
                experiment_pattern(&data, scale.fixed_pattern_size, scale.point_seed(500, rep));
            let start = Instant::now();
            let output = strong_simulation(&pattern, &data, &variant.config);
            seconds += start.elapsed().as_secs_f64();
            processed += output.stats.balls_processed;
            skipped += output.stats.balls_skipped;
            subgraphs += output.subgraphs.len();
            engine = crate::report::engine_stats_line(&output.stats);
        }
        rows.push(AblationRow {
            variant: variant.name,
            seconds: seconds / reps as f64,
            balls_processed: processed as f64 / reps as f64,
            balls_skipped: skipped as f64 / reps as f64,
            subgraphs: subgraphs as f64 / reps as f64,
            engine,
        });
    }
    rows
}

/// Renders the ablation rows as a text table compatible with the `reproduce` binary.
pub fn render(rows: &[AblationRow], dataset: DatasetKind) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== opt — optimisation ablation ({}) ==",
        dataset.name()
    );
    let _ = writeln!(
        out,
        "{:>14}{:>12}{:>16}{:>14}{:>12}",
        "variant", "seconds", "balls refined", "balls skipped", "subgraphs"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>14}{:>12.4}{:>16.1}{:>14.1}{:>12.1}",
            r.variant, r.seconds, r.balls_processed, r.balls_skipped, r.subgraphs
        );
        let _ = writeln!(out, "{:>14}  {}", "", r.engine);
    }
    out
}

/// Convenience wrapper turning the ablation into a [`Figure`] keyed by variant index, for
/// consumers that want the generic figure format.
pub fn as_figure(rows: &[AblationRow], dataset: DatasetKind) -> Figure {
    use crate::algorithms::AlgorithmKind;
    let mut fig = Figure::new(
        "opt",
        &format!("optimisation ablation ({})", dataset.name()),
        "variant index",
        "seconds",
    );
    for (i, r) in rows.iter().enumerate() {
        // Reuse Match/MatchPlus markers for the two endpoints; intermediate variants are
        // recorded under Match as repetitions at distinct x positions.
        let marker = if r.variant == "Match+" {
            AlgorithmKind::MatchPlus
        } else {
            AlgorithmKind::Match
        };
        fig.push(i as f64, marker, r.seconds);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_preserves_results_across_variants() {
        let scale = ExperimentScale::tiny();
        let rows = optimization_ablation(DatasetKind::Synthetic, &scale);
        assert_eq!(rows.len(), 5);
        let reference = rows[0].subgraphs;
        for r in &rows {
            assert!(
                (r.subgraphs - reference).abs() < 1e-9,
                "variant {} changed the number of perfect subgraphs",
                r.variant
            );
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn filter_variants_skip_balls() {
        let scale = ExperimentScale::tiny();
        let rows = optimization_ablation(DatasetKind::AmazonLike, &scale);
        let filter_row = rows.iter().find(|r| r.variant == "Match+filter").unwrap();
        let base_row = rows.iter().find(|r| r.variant == "Match").unwrap();
        assert!(filter_row.balls_processed <= base_row.balls_processed);
    }

    #[test]
    fn rendering_and_figure_conversion() {
        let scale = ExperimentScale::tiny();
        let rows = optimization_ablation(DatasetKind::Synthetic, &scale);
        let text = render(&rows, DatasetKind::Synthetic);
        assert!(text.contains("Match+"));
        assert!(text.contains("balls refined"));
        let fig = as_figure(&rows, DatasetKind::Synthetic);
        assert_eq!(fig.points.len(), rows.len());
    }
}
