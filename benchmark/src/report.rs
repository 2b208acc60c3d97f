//! Metric names, units and the result line every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run. "op" is one request of the
/// workload's closed loop: a query on the one-shot and distributed workloads, a delta
/// apply or a query registration on `serve-churn`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("setup_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run. One-shot layers are per traced
/// pipeline run, update layers per apply or per registration, distributed layers per
/// distributed query; the README defines each one.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minimize.ms", "ms"),
    ("dual.ms", "ms"),
    ("dual.pairs", "count"),
    ("subgraph.ms", "ms"),
    ("subgraph.gm_frac", "frac"),
    ("subgraph.divergent_queries", "count"),
    ("ball.ms", "ms"),
    ("ball.per_query", "count"),
    ("ball.mean_nodes", "count"),
    ("ball.reused_frac", "frac"),
    ("strong.ms", "ms"),
    ("strong.useful_frac", "frac"),
    ("strong.removed_pairs", "count"),
    ("strong.restricted_ms", "ms"),
    ("warm.started_frac", "frac"),
    ("warm.seeded_per_ball", "count"),
    ("parallel.chunks", "count"),
    ("parallel.steal_frac", "frac"),
    ("parallel.splits", "count"),
    ("trace.engine_over_primitives", "ratio"),
    ("trace.overhead", "ratio"),
    ("overlay.stage_ms", "ms"),
    ("overlay.compactions", "count"),
    ("overlay.patch_frac", "frac"),
    ("incremental.advance_ms", "ms"),
    ("incremental.splice_ms", "ms"),
    ("incremental.dirty_frac", "frac"),
    ("incremental.pairs_changed", "count"),
    ("incremental.recompute_frac", "frac"),
    ("incremental.gm_reextract_frac", "frac"),
    ("service.apply_p50_ms", "ms"),
    ("service.register_p50_ms", "ms"),
    ("service.residual_ms", "ms"),
    ("service.register_state_ms", "ms"),
    ("service.register_pass_ms", "ms"),
    ("distributed.edge_cut", "count"),
    ("distributed.border_balls", "count"),
    ("distributed.shipped_balls", "count"),
    ("distributed.shipped_nodes", "count"),
    ("distributed.shipped_edges", "count"),
    ("distributed.steal_frac", "frac"),
    ("distributed.over_centralized", "ratio"),
];

/// `a / b`, or 0 when `b` is 0 (a ratio over work that did not happen).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metric values of one run, checked against one of the name lists above.
pub struct MetricSet {
    spec: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An empty set for the end-to-end list: every metric must be set.
    pub fn end_to_end() -> Self {
        MetricSet {
            spec: END_TO_END,
            values: BTreeMap::new(),
        }
    }

    /// The per-layer list with every metric at 0 until set.
    pub fn per_layer() -> Self {
        MetricSet {
            spec: PER_LAYER,
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    /// On a name outside the list, or a value that is not finite: both are bugs here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.spec.iter().any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    fn finish(self) -> Vec<Metric> {
        self.spec
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured")),
                unit,
            })
            .collect()
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    /// Metrics in list order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Assembles a report; `failed` operations make it incorrect.
    pub fn new(attempted: u64, failed: u64, metrics: MetricSet) -> Self {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics: metrics.finish(),
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable metric lines.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| format!("{:<32} {:>16.6} {}", m.name, m.value, m.unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
    }

    #[test]
    fn json_line_round_trips() {
        let mut m = MetricSet::end_to_end();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.5 + i as f64);
        }
        let report = Report::new(7, 0, m);
        let v = json::parse(&report.json()).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(json::Json::as_f64), Some(7.0));
        let metrics = v.get("metrics").and_then(json::Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[1].1.get("value").and_then(json::Json::as_f64),
            Some(1.5)
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_end_to_end_metric_is_a_bug() {
        Report::new(1, 0, MetricSet::end_to_end());
    }
}
