//! Every workload, untraced and traced, at smoke scale: the same generators, loops,
//! output checks and result line as a benchmark run, in a few seconds.

use ssim_benchmark::json::{self, Json};
use ssim_benchmark::report::{END_TO_END, PER_LAYER};
use ssim_benchmark::run::{run, Options};
use ssim_benchmark::workload::{Scale, Workload};

#[test]
fn every_workload_runs_and_checks_out_at_smoke_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 1,
                seconds: 0.2,
                trace,
                scale: Scale::Smoke,
            };
            let what = format!("{} trace={trace}", workload.name());
            let report = run(&opts).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(report.correct, "{what}: {} failed ops", report.failed);
            assert!(report.attempted >= 1, "{what}");

            let line = json::parse(&report.json()).unwrap_or_else(|e| panic!("{what}: {e}"));
            let keys: Vec<&str> = line
                .as_object()
                .expect("the result line is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{what}");
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let spec = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), spec.len(), "{what}");
            for ((name, metric), &(want, unit)) in metrics.iter().zip(spec) {
                assert_eq!(name, want, "{what}");
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{what}"
                );
                let value = metric.get("value").and_then(Json::as_f64).expect("value");
                assert!(
                    value.is_finite() && value >= 0.0,
                    "{what}: {name} = {value}"
                );
                if !trace {
                    assert!(value > 0.0, "{what}: end-to-end metric {name} reads 0");
                }
            }
        }
    }
}
