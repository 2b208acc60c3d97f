//! Command line of the repository benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! benchmark compare [--spec BENCHMARK.json] --a <result>... --b <result>...
//! ```
//!
//! A run prints a `# workload` header, one line per metric and, last, the JSON result
//! line. It exits 0 when every checked output was correct and 1 otherwise; bad
//! arguments or an unsuitable machine exit 2 without a result.

use ssim_benchmark::compare;
use ssim_benchmark::rss;
use ssim_benchmark::run::{self, Options, WORKERS};
use ssim_benchmark::workload::{Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
  benchmark compare [--spec BENCHMARK.json] --a <result>... --b <result>...
workloads: oneshot-sparse oneshot-dense serve-churn distributed-dense";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed takes an integer")?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = Scale::from_name(value).ok_or("--scale takes full or smoke")?;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn compare_main(args: &[String]) -> Result<(), String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            "--a" => side = Some(&mut a),
            "--b" => side = Some(&mut b),
            path => side
                .as_mut()
                .ok_or("result files must follow --a or --b")?
                .push(path.to_string()),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs result files after both --a and --b".into());
    }
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = compare::read_spec(&read(&spec_path)?)?;
    let load = |paths: &[String]| -> Result<Vec<_>, String> {
        paths
            .iter()
            .map(|p| compare::read_result(&read(p)?).map_err(|e| format!("{p}: {e}")))
            .collect()
    };
    print!("{}", compare::compare(&spec, &load(&a)?, &load(&b)?));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < WORKERS {
        eprintln!(
            "refusing to run: the engine pool is pinned to {WORKERS} workers but only {cores} \
             core(s) are available, so latencies would measure oversubscription"
        );
        return ExitCode::from(2);
    }
    if rss::peak_mib().is_none() {
        eprintln!("refusing to run: setup_rss_mb needs VmHWM from /proc/self/status");
        return ExitCode::from(2);
    }
    // Before the first matcher call, while this is the only thread.
    std::env::set_var("SSIM_THREADS", WORKERS.to_string());
    println!(
        "# workload {} seed {} seconds {} trace {} scale {:?} workers {WORKERS} cores {cores}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale,
    );
    match run::run(&opts) {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(2)
        }
    }
}
