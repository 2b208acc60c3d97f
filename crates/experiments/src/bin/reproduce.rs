//! `reproduce` — regenerate the tables and figures of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! reproduce [--scale tiny|small|paper] [--nodes N] [exp-id ...]
//! ```
//!
//! With no experiment ids every experiment is run. Valid ids: `fig7a`, `fig7b`,
//! `fig7c`..`fig7h` (closeness), `fig7i`..`fig7n` (match counts), `table3`,
//! `fig8a`..`fig8h` (performance), `opt` (optimisation ablation), `dist` (distributed),
//! `upd` (update streams on the versioned substrate). An unknown id or scale, or a
//! missing or non-positive `--nodes` value, prints the usage to stderr and exits with
//! status 2.

use ssim_experiments::scale::ExperimentScale;
use ssim_experiments::workloads::DatasetKind;
use ssim_experiments::{
    ablation, closeness, distributed_exp, match_counts, match_sizes, performance, quality, updates,
};

const USAGE: &str = "usage: reproduce [--scale tiny|small|paper] [--nodes N] [exp-id ...]";

/// Every valid experiment id.
const EXPERIMENT_IDS: &[&str] = &[
    "fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h", "fig7i", "fig7j",
    "fig7k", "fig7l", "fig7m", "fig7n", "table3", "fig8a", "fig8b", "fig8c", "fig8d", "fig8e",
    "fig8f", "fig8g", "fig8h", "opt", "dist", "upd",
];

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print the usage and exit successfully.
    Help,
    /// Run the `requested` experiments (all of them when empty) at `scale`.
    Run {
        scale: ExperimentScale,
        requested: Vec<String>,
    },
}

/// Parses the arguments after the program name. A `--nodes` override applies to the
/// scale whatever the flag order. Unknown scales, unknown experiment ids, a missing value
/// and a `--nodes` value that is not a positive count are errors.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut scale = ExperimentScale::paper_scaled();
    let mut nodes: Option<usize> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => {
                scale = match args.next() {
                    Some("tiny") => ExperimentScale::tiny(),
                    Some("small") => ExperimentScale::small(),
                    Some("paper") => ExperimentScale::paper_scaled(),
                    Some(other) => return Err(format!("unknown scale {other:?}")),
                    None => return Err("--scale needs a value".to_string()),
                };
            }
            "--nodes" => {
                let value = args.next().ok_or("--nodes needs a value")?;
                let n = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--nodes needs a positive node count, got {value:?}"))?;
                nodes = Some(n);
            }
            "--help" | "-h" => return Ok(Command::Help),
            id if EXPERIMENT_IDS.contains(&id) => requested.push(id.to_string()),
            other => return Err(format!("unknown experiment id or flag {other:?}")),
        }
    }
    if let Some(n) = nodes {
        scale.data_nodes = n;
    }
    Ok(Command::Run { scale, requested })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, requested) = match parse_args(&args) {
        Ok(Command::Run { scale, requested }) => (scale, requested),
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("reproduce: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_all = requested.is_empty();
    let wants = |id: &str| run_all || requested.iter().any(|r| r == id);

    println!(
        "reproducing the evaluation of \"Capturing Topology in Graph Pattern Matching\" \
         (scale: {} data nodes)\n",
        scale.data_nodes
    );

    // Figures 7(a)/(b): qualitative case studies.
    if wants("fig7a") {
        println!(
            "{}",
            quality::render(&quality::amazon_case(
                scale.data_nodes.min(2_000),
                scale.seed
            ))
        );
    }
    if wants("fig7b") {
        println!(
            "{}",
            quality::render(&quality::youtube_case(
                scale.data_nodes.min(1_000),
                scale.seed
            ))
        );
    }

    // Figures 7(c)-(h): closeness.
    let closeness_ids = ["fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h"];
    for (idx, dataset) in DatasetKind::all().iter().enumerate() {
        if wants(closeness_ids[idx]) {
            println!(
                "{}",
                closeness::closeness_vs_pattern_size(*dataset, &scale).to_table()
            );
        }
        if wants(closeness_ids[idx + 3]) {
            println!(
                "{}",
                closeness::closeness_vs_data_size(*dataset, &scale).to_table()
            );
        }
    }

    // Figures 7(i)-(n): match counts.
    let count_ids = ["fig7i", "fig7j", "fig7k", "fig7l", "fig7m", "fig7n"];
    for (idx, dataset) in DatasetKind::all().iter().enumerate() {
        if wants(count_ids[idx]) {
            println!(
                "{}",
                match_counts::counts_vs_pattern_size(*dataset, &scale).to_table()
            );
        }
        if wants(count_ids[idx + 3]) {
            println!(
                "{}",
                match_counts::counts_vs_data_size(*dataset, &scale).to_table()
            );
        }
    }

    // Table 3: matched-subgraph sizes.
    if wants("table3") {
        println!(
            "{}",
            match_sizes::render_table3(&match_sizes::table3(&scale))
        );
    }

    // Figures 8(a)-(h): performance.
    let perf_pattern_ids = ["fig8a", "fig8b", "fig8c"];
    let perf_data_ids = ["fig8e", "fig8f", "fig8g"];
    for (idx, dataset) in DatasetKind::all().iter().enumerate() {
        if wants(perf_pattern_ids[idx]) {
            println!(
                "{}",
                performance::time_vs_pattern_size(*dataset, &scale).to_table()
            );
        }
        if wants(perf_data_ids[idx]) {
            println!(
                "{}",
                performance::time_vs_data_size(*dataset, &scale).to_table()
            );
        }
    }
    if wants("fig8d") {
        println!(
            "{}",
            performance::time_vs_pattern_density(&scale).to_table()
        );
    }
    if wants("fig8h") {
        println!("{}", performance::time_vs_data_density(&scale).to_table());
    }

    // Optimisation ablation and distributed evaluation.
    if wants("opt") {
        let rows = ablation::optimization_ablation(DatasetKind::Synthetic, &scale);
        println!("{}", ablation::render(&rows, DatasetKind::Synthetic));
    }
    if wants("dist") {
        let rows = distributed_exp::traffic_vs_sites(DatasetKind::AmazonLike, &scale);
        println!(
            "{}",
            distributed_exp::render(&rows, DatasetKind::AmazonLike)
        );
    }
    if wants("upd") {
        let rows = updates::update_streams(DatasetKind::Synthetic, &scale);
        println!("{}", updates::render(&rows, DatasetKind::Synthetic));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn run(scale: ExperimentScale, requested: &[&str]) -> Command {
        Command::Run {
            scale,
            requested: requested.iter().map(|r| r.to_string()).collect(),
        }
    }

    #[test]
    fn defaults_to_every_experiment_at_paper_scale() {
        assert_eq!(parse(&[]), Ok(run(ExperimentScale::paper_scaled(), &[])));
    }

    #[test]
    fn parses_scale_nodes_and_ids_in_any_order() {
        let mut tiny = ExperimentScale::tiny();
        tiny.data_nodes = 50;
        let expected = run(tiny, &["table3", "opt"]);
        assert_eq!(
            parse(&["--scale", "tiny", "--nodes", "50", "table3", "opt"]),
            Ok(expected)
        );
        let mut tiny = ExperimentScale::tiny();
        tiny.data_nodes = 50;
        assert_eq!(
            parse(&["table3", "--nodes", "50", "--scale", "tiny", "opt"]),
            Ok(run(tiny, &["table3", "opt"]))
        );
        assert_eq!(
            parse(&["--scale", "small"]),
            Ok(run(ExperimentScale::small(), &[]))
        );
    }

    #[test]
    fn help_wins() {
        assert_eq!(parse(&["table3", "--help"]), Ok(Command::Help));
        assert_eq!(parse(&["-h"]), Ok(Command::Help));
    }

    #[test]
    fn every_listed_id_is_accepted() {
        for id in EXPERIMENT_IDS {
            assert_eq!(
                parse(&[id]),
                Ok(run(ExperimentScale::paper_scaled(), &[id]))
            );
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["fig9z"][..],
            &["table3", "--verbose"],
            &["--scale", "huge"],
            &["--scale"],
            &["--nodes"],
            &["--nodes", "many"],
            &["--nodes", "-5"],
            &["--nodes", "0"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
