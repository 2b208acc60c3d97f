//! `compare`: two sets of result files side by side, per workload and end-to-end
//! metric — each side's median and quartiles, the share of run pairs the second side
//! wins, and whether the medians differ by more than the metric's bound.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` text.
pub fn read_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(text)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry without {k}"));
            let name = field("name")?.as_str().ok_or("name is not a string")?;
            let lower_is_better = match field("better")?.as_str() {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            Ok(MetricSpec {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One run's result: its workload and metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name, from the run's `# workload` header line.
    pub workload: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads one run's captured standard output: the `# workload <name> …` header and the
/// JSON result on the last line.
pub fn read_result(text: &str) -> Result<RunResult, String> {
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("# workload "))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no '# workload' header line")?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty result")?;
    let doc = json::parse(last)?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult { workload, metrics })
}

fn group(runs: &[RunResult]) -> BTreeMap<&str, Vec<&RunResult>> {
    let mut by_workload: BTreeMap<&str, Vec<&RunResult>> = BTreeMap::new();
    for r in runs {
        by_workload.entry(&r.workload).or_default().push(r);
    }
    by_workload
}

/// The comparison table of base runs `a` against changed runs `b`. Runs pair up in
/// the order given, per workload.
pub fn compare(spec: &[MetricSpec], a: &[RunResult], b: &[RunResult]) -> String {
    let (a, b) = (group(a), group(b));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>30} {:>30} {:>8} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<18} (no B runs)");
            continue;
        };
        for m in spec {
            let values = |runs: &[&RunResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let ((qa1, qa3), (qb1, qb3)) = (stats::quartiles(&va), stats::quartiles(&vb));
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let pairs = va.len().min(vb.len());
            let wins = va.iter().zip(&vb).filter(|(x, y)| better(**y, **x)).count();
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let worse = if m.lower_is_better { change } else { -change };
            let verdict = if worse > m.bound {
                "regression beyond bound"
            } else if -worse > m.bound {
                "gain beyond bound"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "{workload:<18} {:<12} {:>30} {:>30} {:>+7.1}% {:>3}/{:<3}  {verdict} ({:.0}%)",
                m.name,
                format!("{ma:.4} [{qa1:.4}, {qa3:.4}]"),
                format!("{mb:.4} [{qb1:.4}, {qb3:.4}]"),
                change * 100.0,
                wins,
                pairs,
                m.bound * 100.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn result(p50: f64, ops: f64) -> RunResult {
        let text = format!(
            "# workload oneshot-dense seed 1\n{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\"op_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}\n"
        );
        read_result(&text).unwrap()
    }

    #[test]
    fn reads_spec_and_results() {
        let spec = read_spec(SPEC).unwrap();
        assert_eq!(spec.len(), 2);
        assert!(spec[0].lower_is_better && !spec[1].lower_is_better);
        let r = result(2.5, 400.0);
        assert_eq!(r.workload, "oneshot-dense");
        assert_eq!(r.metrics["op_p50_ms"], 2.5);
    }

    #[test]
    fn flags_regressions_and_counts_wins() {
        let spec = read_spec(SPEC).unwrap();
        let a = vec![result(10.0, 100.0), result(10.2, 101.0), result(9.8, 99.0)];
        let b = vec![result(12.0, 99.5), result(12.5, 100.5), result(11.9, 99.8)];
        let table = compare(&spec, &a, &b);
        let p50 = table.lines().find(|l| l.contains("op_p50_ms")).unwrap();
        assert!(p50.contains("regression beyond bound"), "{p50}");
        assert!(p50.contains("0/3"), "{p50}");
        let ops = table.lines().find(|l| l.contains("ops_per_s")).unwrap();
        assert!(ops.contains("within bound"), "{ops}");
        assert!(ops.contains("1/3"), "{ops}");
    }

    #[test]
    fn rejects_results_without_header_or_json() {
        assert!(read_result("{\"metrics\": {}}").is_err());
        assert!(read_result("# workload x\nnot json").is_err());
    }
}
