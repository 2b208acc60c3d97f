//! Workload loops for the untraced runs, which report the end-to-end metrics, plus
//! the input conversion and output checks the traced runs share.
//!
//! Every workload is a closed loop with one caller: the next operation starts when the
//! previous one returns. Only the operation itself is timed; input conversion and
//! output checks run between operations, untimed. The loop stops once the timed work
//! reaches the run length, so a faster engine completes more of the same
//! seed-determined operation sequence.

use crate::gen::{ChurnOp, EdgeOp};
use crate::pipeline;
use crate::report::{MetricSet, Report};
use crate::rss;
use crate::stats;
use crate::trace;
use crate::workload::{self, ChurnInputs, Inputs, OneShotInputs, Scale, Workload};
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::service::{QueryId, QueryService};
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, PartitionStrategy, RecoveryPolicy,
};
use ssim_graph::io::parse_edge_list;
use ssim_graph::{Graph, GraphDelta, Label, LabelInterner, NodeId, Pattern};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length: timed work of the measured loop, in seconds.
    pub seconds: f64,
    /// Run the traced loop (per-layer metrics) instead of the measured one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Worker threads the engine's pool is pinned to (through `SSIM_THREADS`).
pub const WORKERS: usize = 2;
/// Sites of the distributed workload.
pub const SITES: usize = 2;
/// One-shot and distributed outputs are checked every this many queries.
pub const CHECK_EVERY: usize = 10;
/// `serve-churn` outputs are checked every this many ops, and at the end.
pub const SERVE_CHECK_EVERY: usize = 500;

/// The distributed workload's configuration: 2 Range sites, minimization, the dual
/// filter and the supervision loop with no faults scripted.
pub fn distributed_config() -> DistributedConfig {
    DistributedConfig {
        sites: SITES,
        strategy: PartitionStrategy::Range,
        minimize_query: true,
        dual_filter: true,
        recovery: Some(RecoveryPolicy::default()),
        ..DistributedConfig::default()
    }
}

/// Generates the workload's inputs and runs it.
pub fn run(opts: &Options) -> Result<Report, String> {
    let inputs = workload::generate(opts.workload, opts.scale, opts.seed);
    let budget = Duration::from_secs_f64(opts.seconds);
    // Set-up memory counts from here on, not input generation.
    if !rss::reset_peak() {
        eprintln!("note: /proc/self/clear_refs refused; set-up RSS includes input generation");
    }
    let reps = if opts.trace {
        1
    } else {
        opts.workload.setup_reps(opts.scale)
    };
    match inputs {
        Inputs::OneShot(OneShotInputs {
            graphs: texts,
            queries,
            updates,
        }) => {
            let (setup, parsed) = SetupClock::start(reps, || {
                texts
                    .iter()
                    .map(|text| parse_graph(text))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let (graphs, interners): (Vec<Graph>, Vec<LabelInterner>) = parsed.into_iter().unzip();
            let queries = queries
                .iter()
                .map(|(k, q)| Ok((*k, parse_pattern(q, &interners[*k])?)))
                .collect::<Result<Vec<_>, String>>()?;
            let distributed = opts.workload == Workload::DistributedDense;
            match (distributed, opts.trace) {
                (_, true) => trace::oneshot(
                    &graphs,
                    &interners[0],
                    &queries,
                    updates,
                    budget,
                    distributed,
                ),
                (true, false) => distributed_queries(setup, &graphs, &queries, budget),
                (false, false) => oneshot(setup, &graphs, &queries, budget),
            }
        }
        Inputs::Churn(inputs) => serve(*inputs, reps, budget, opts.trace),
    }
}

/// What set-up cost: the median time of its repetitions and the peak resident memory
/// of the first.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Median set-up time in seconds.
    pub seconds: f64,
    /// Peak resident memory in MiB.
    pub rss_mb: f64,
}

/// Set-up, timed `reps` times. The first build runs before the measured loop, which
/// runs on its result. The other `reps - 1` run between the loop's ops, at even steps
/// of its timed work, and each result is dropped at once. A shared host has slow spells
/// of about a second: repetitions run back to back fall into the same one, while
/// repetitions spread over the run see the host as the ops do.
pub struct SetupClock<'a> {
    /// Builds once more and drops the result; returns the build time.
    rebuild: Box<dyn FnMut() -> Result<Duration, String> + 'a>,
    reps: usize,
    seconds: Vec<f64>,
    rss_mb: f64,
}

impl<'a> SetupClock<'a> {
    /// Builds once, timed; returns the clock and the result.
    fn start<T: 'a>(
        reps: usize,
        mut build: impl FnMut() -> Result<T, String> + 'a,
    ) -> Result<(Self, T), String> {
        let start = Instant::now();
        let built = build()?;
        let seconds = vec![start.elapsed().as_secs_f64()];
        let rss_mb = rss::peak_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        let rebuild = move || {
            let start = Instant::now();
            let built = build()?;
            let took = start.elapsed();
            drop(built);
            Ok(took)
        };
        let clock = SetupClock {
            rebuild: Box::new(rebuild),
            reps: reps.max(1),
            seconds,
            rss_mb,
        };
        Ok((clock, built))
    }

    /// Runs the repetitions due once `done` of the loop's `budget` of timed work is
    /// spent.
    fn catch_up(&mut self, done: Duration, budget: Duration) -> Result<(), String> {
        let share = (done.as_secs_f64() / budget.as_secs_f64()).min(1.0);
        let due = 1 + ((self.reps - 1) as f64 * share) as usize;
        while self.seconds.len() < due {
            let took = (self.rebuild)()?;
            self.seconds.push(took.as_secs_f64());
        }
        Ok(())
    }

    /// Runs the repetitions still due and reports what set-up cost.
    fn finish(mut self) -> Result<Setup, String> {
        self.catch_up(Duration::from_secs(1), Duration::from_secs(1))?;
        Ok(Setup {
            seconds: stats::median(&self.seconds),
            rss_mb: self.rss_mb,
        })
    }
}

/// Parses the data graph text.
pub fn parse_graph(text: &str) -> Result<(Graph, LabelInterner), String> {
    parse_edge_list(text).map_err(|e| format!("data graph: {e:?}"))
}

/// Parses a pattern's text, resolving its label names through the data graph's.
pub fn parse_pattern(text: &str, data: &LabelInterner) -> Result<Pattern, String> {
    let (graph, local) = parse_edge_list(text).map_err(|e| format!("pattern: {e:?}"))?;
    let labels = graph
        .nodes()
        .map(|v| {
            let name = local
                .name(graph.label(v))
                .ok_or("pattern label without a name")?;
            data.get(name)
                .ok_or_else(|| format!("pattern label {name} does not occur in the data graph"))
        })
        .collect::<Result<Vec<Label>, String>>()?;
    let edges: Vec<(u32, u32)> = graph.edges().map(|(a, b)| (a.0, b.0)).collect();
    Pattern::from_edges(labels, &edges).map_err(|e| format!("pattern: {e:?}"))
}

/// Builds the engine's delta from generated edge operations.
pub fn to_delta(ops: &[EdgeOp]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for op in ops {
        let (from, to) = (NodeId(op.from), NodeId(op.to));
        if op.insert {
            delta.insert_edge(from, to);
        } else {
            delta.delete_edge(from, to);
        }
    }
    delta
}

/// Latencies of a closed loop.
#[derive(Default)]
pub struct Latencies {
    ms: Vec<f64>,
    busy: Duration,
}

impl Latencies {
    /// `true` until the timed work reaches `budget` (and always before the first op).
    pub fn more(&self, budget: Duration) -> bool {
        self.ms.is_empty() || self.busy < budget
    }

    /// Records one op.
    pub fn record(&mut self, took: Duration) {
        self.ms.push(took.as_secs_f64() * 1e3);
        self.busy += took;
    }

    /// Time spent in the ops recorded.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Ops recorded.
    pub fn count(&self) -> usize {
        self.ms.len()
    }

    /// Median latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.ms)
    }
}

fn end_to_end(setup: Setup, lat: &Latencies, failed: u64) -> Report {
    let mut m = MetricSet::end_to_end();
    m.set("setup_s", setup.seconds);
    m.set("setup_rss_mb", setup.rss_mb);
    m.set("op_p50_ms", lat.p50_ms());
    m.set("op_p99_ms", stats::percentile(&lat.ms, 0.99));
    m.set("ops_per_s", lat.count() as f64 / lat.busy.as_secs_f64());
    Report::new(lat.count() as u64, failed, m)
}

/// The query loop of the one-shot and distributed workloads over `queries`, each the
/// index of its graph in `graphs` and a pattern: `op` is timed, and every
/// [`CHECK_EVERY`]-th result goes through `check`, untimed. Returns the report.
fn query_loop(
    mut setup: SetupClock<'_>,
    graphs: &[Graph],
    queries: &[(usize, Pattern)],
    budget: Duration,
    mut op: impl FnMut(&Pattern, &Graph) -> Result<Vec<PerfectSubgraph>, String>,
    mut check: impl FnMut(&Pattern, &Graph, &[PerfectSubgraph]) -> bool,
) -> Result<Report, String> {
    let mut lat = Latencies::default();
    let mut failed = 0;
    while lat.more(budget) {
        let i = lat.count();
        let (k, q) = &queries[i % queries.len()];
        let graph = &graphs[*k];
        let start = Instant::now();
        let rows = op(q, graph);
        lat.record(start.elapsed());
        match rows {
            Ok(rows) => {
                if i % CHECK_EVERY == 0 && !check(q, graph, &rows) {
                    eprintln!("query {i}: rows differ from the reference");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("query {i}: {e}");
                failed += 1;
            }
        }
        setup.catch_up(lat.busy(), budget)?;
    }
    Ok(end_to_end(setup.finish()?, &lat, failed))
}

/// `oneshot-*`: `Match+` per query, checked against the primitive pipeline.
fn oneshot(
    setup: SetupClock<'_>,
    graphs: &[Graph],
    queries: &[(usize, Pattern)],
    budget: Duration,
) -> Result<Report, String> {
    let cfg = MatchConfig::optimized();
    query_loop(
        setup,
        graphs,
        queries,
        budget,
        |q, graph| Ok(strong_simulation(q, graph, &cfg).subgraphs),
        |q, graph, rows| pipeline::match_plus(q, graph, None).rows == rows,
    )
}

/// `distributed-dense`: one distributed run per query, checked against centralized
/// `Match+`.
fn distributed_queries(
    setup: SetupClock<'_>,
    graphs: &[Graph],
    queries: &[(usize, Pattern)],
    budget: Duration,
) -> Result<Report, String> {
    let dcfg = distributed_config();
    let cfg = MatchConfig::optimized();
    query_loop(
        setup,
        graphs,
        queries,
        budget,
        |q, graph| {
            let out =
                distributed_strong_simulation(q, graph, &dcfg).map_err(|e| format!("{e:?}"))?;
            if out.lost_centers.is_empty() {
                Ok(out.subgraphs)
            } else {
                Err(format!("{} centers lost", out.lost_centers.len()))
            }
        },
        |q, graph, rows| {
            pipeline::expand_minimized(q, rows) == strong_simulation(q, graph, &cfg).subgraphs
        },
    )
}

/// Registers an ad-hoc query and retires the one registered two registrations
/// earlier; returns the new id and the retired one.
pub fn register_adhoc(
    service: &mut QueryService,
    adhoc: &mut VecDeque<QueryId>,
    pattern: &Pattern,
    cfg: MatchConfig,
) -> (QueryId, Option<QueryId>) {
    let id = service.register(pattern, cfg);
    adhoc.push_back(id);
    let retired = (adhoc.len() > 2).then(|| adhoc.pop_front().expect("len > 2"));
    if let Some(old) = retired {
        service.deregister(old);
    }
    (id, retired)
}

/// Checks every live query of `service` against one-shot `Match+` over the current
/// graph; returns the number of queries whose rows differ.
pub fn check_service(service: &QueryService, cfg: &MatchConfig) -> u64 {
    let data = service.data();
    let mut wrong = 0;
    for id in service.query_ids() {
        let (Some(pattern), Some(output)) = (service.pattern(id), service.output(id)) else {
            continue;
        };
        if strong_simulation(pattern, &data, cfg).subgraphs != output.subgraphs {
            eprintln!("query {}: service rows differ from one-shot Match+", id.0);
            wrong += 1;
        }
    }
    wrong
}

/// `serve-churn` set-up: parse the graph, start the service, register the standing
/// queries.
fn serve_setup(
    text: &str,
    standing: &[String],
    cfg: MatchConfig,
) -> Result<(QueryService, LabelInterner), String> {
    let (graph, interner) = parse_graph(text)?;
    let mut service = QueryService::new(graph);
    for p in standing {
        service.register(&parse_pattern(p, &interner)?, cfg);
    }
    Ok((service, interner))
}

/// `serve-churn`: one writer applying deltas and registering ad-hoc queries.
fn serve(
    inputs: ChurnInputs,
    reps: usize,
    budget: Duration,
    traced: bool,
) -> Result<Report, String> {
    let ChurnInputs {
        graph: text,
        standing,
        mut stream,
    } = inputs;
    let cfg = MatchConfig::optimized();
    let (mut setup, (mut service, interner)) =
        SetupClock::start(reps, || serve_setup(&text, &standing, cfg))?;
    if traced {
        return trace::serve(service, &interner, &mut stream, budget);
    }
    let mut lat = Latencies::default();
    let mut failed = 0;
    let mut adhoc = VecDeque::new();
    while lat.more(budget) {
        match stream.next_op() {
            ChurnOp::Apply(ops) => {
                let delta = to_delta(&ops);
                let start = Instant::now();
                let applied = service.apply(&delta);
                lat.record(start.elapsed());
                if let Err(e) = applied {
                    eprintln!("apply {}: {e:?}", lat.count());
                    failed += 1;
                }
            }
            ChurnOp::Register(p) => {
                let pattern = parse_pattern(&p.to_text(), &interner)?;
                let start = Instant::now();
                register_adhoc(&mut service, &mut adhoc, &pattern, cfg);
                lat.record(start.elapsed());
            }
        }
        if lat.count() % SERVE_CHECK_EVERY == 0 {
            failed += check_service(&service, &cfg);
        }
        setup.catch_up(lat.busy(), budget)?;
    }
    failed += check_service(&service, &cfg);
    Ok(end_to_end(setup.finish()?, &lat, failed))
}
