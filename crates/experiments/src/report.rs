//! Text-table rendering of experiment results.

use crate::algorithms::AlgorithmKind;
use ssim_core::strong::MatchStats;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One-line summary of a run's engine-layer counters: balls processed and — when the
/// match-graph ball substrate ran — the `Gm` extraction selectivity. Rendered under the
/// experiment tables so the engine's filtering stays visible next to the paper-level
/// numbers.
pub fn engine_stats_line(stats: &MatchStats) -> String {
    let mut line = format!("balls {}/{}", stats.balls_processed, stats.balls_considered);
    if stats.gm_nodes > 0 {
        let _ = write!(
            line,
            " · Gm {:.1}% of |V| ({} nodes, {} edges)",
            100.0 * stats.gm_nodes as f64 / stats.balls_considered.max(1) as f64,
            stats.gm_nodes,
            stats.gm_edges
        );
    }
    line
}

/// A single measurement: algorithm `algorithm` measured value `value` at sweep position `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Sweep coordinate (pattern size, data size, density, number of sites, …).
    pub x: f64,
    /// Algorithm (or configuration) the value belongs to.
    pub algorithm: AlgorithmKind,
    /// Measured value (closeness, count, seconds, …).
    pub value: f64,
}

/// A figure of the paper, reproduced as a set of series over a common x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Experiment identifier, e.g. `"fig7c"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis (the measured quantity).
    pub y_label: String,
    /// All measurements.
    pub points: Vec<SeriesPoint>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            points: Vec::new(),
        }
    }

    /// Adds a measurement.
    pub fn push(&mut self, x: f64, algorithm: AlgorithmKind, value: f64) {
        self.points.push(SeriesPoint {
            x,
            algorithm,
            value,
        });
    }

    /// The sorted, deduplicated x coordinates.
    pub fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self.points.iter().map(|p| p.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x values"));
        xs.dedup();
        xs
    }

    /// Algorithms present in the figure, in first-appearance order.
    pub fn algorithms(&self) -> Vec<AlgorithmKind> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for p in &self.points {
            if seen.insert(p.algorithm.name()) {
                out.push(p.algorithm);
            }
        }
        out
    }

    /// The value of `algorithm` at `x`, averaged when multiple repetitions were recorded.
    pub fn value_at(&self, x: f64, algorithm: AlgorithmKind) -> Option<f64> {
        let values: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.algorithm == algorithm && (p.x - x).abs() < 1e-9)
            .map(|p| p.value)
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Renders the figure as an aligned text table (rows = x values, columns = algorithms).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let algorithms = self.algorithms();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   ({} vs {})", self.y_label, self.x_label);
        let _ = write!(out, "{:>12}", self.x_label);
        for a in &algorithms {
            let _ = write!(out, "{:>12}", a.name());
        }
        let _ = writeln!(out);
        for x in self.xs() {
            let _ = write!(out, "{x:>12.3}");
            for a in &algorithms {
                match self.value_at(x, *a) {
                    Some(v) => {
                        let _ = write!(out, "{v:>12.4}");
                    }
                    None => {
                        let _ = write!(out, "{:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_accumulates_and_averages() {
        let mut fig = Figure::new("fig7c", "closeness on amazon", "|Vq|", "closeness");
        fig.push(4.0, AlgorithmKind::Sim, 0.3);
        fig.push(4.0, AlgorithmKind::Sim, 0.5);
        fig.push(4.0, AlgorithmKind::Match, 0.8);
        fig.push(6.0, AlgorithmKind::Match, 0.7);
        assert_eq!(fig.xs(), vec![4.0, 6.0]);
        assert_eq!(
            fig.algorithms(),
            vec![AlgorithmKind::Sim, AlgorithmKind::Match]
        );
        assert!((fig.value_at(4.0, AlgorithmKind::Sim).unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(fig.value_at(6.0, AlgorithmKind::Sim), None);
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let mut fig = Figure::new("fig8a", "time on amazon", "|Vq|", "seconds");
        fig.push(2.0, AlgorithmKind::Match, 0.01);
        fig.push(2.0, AlgorithmKind::MatchPlus, 0.005);
        let table = fig.to_table();
        assert!(table.contains("fig8a"));
        assert!(table.contains("Match"));
        assert!(table.contains("Match+"));
        assert!(table.contains("0.0100"));
        assert!(table.contains("0.0050"));
    }

    #[test]
    fn engine_stats_line_includes_gm_selectivity_only_when_extracted() {
        let mut stats = MatchStats {
            balls_considered: 400,
            balls_processed: 40,
            balls_skipped: 360,
            ..MatchStats::default()
        };
        let without = engine_stats_line(&stats);
        assert_eq!(without, "balls 40/400");
        stats.gm_nodes = 40;
        stats.gm_edges = 120;
        let with = engine_stats_line(&stats);
        assert!(
            with.contains("Gm 10.0% of |V| (40 nodes, 120 edges)"),
            "{with}"
        );
    }

    #[test]
    fn missing_values_render_as_dash() {
        let mut fig = Figure::new("x", "t", "x", "y");
        fig.push(1.0, AlgorithmKind::Vf2, 1.0);
        fig.push(2.0, AlgorithmKind::Sim, 2.0);
        let table = fig.to_table();
        assert!(table.contains('-'));
    }
}
