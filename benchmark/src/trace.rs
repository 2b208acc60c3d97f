//! Traced runs: per-layer metrics from spans the benchmark records around its own calls
//! into each layer's public functions.
//!
//! The engine has no in-program tracing, so each layer is timed from outside:
//!
//! * one-shot layers — the primitive pipeline of [`crate::pipeline`], whose rows must
//!   equal the engine's; counters that only the engine sees (ball reuse, warm starts,
//!   chunks) come from its `MatchStats`;
//! * update layers — a replica of the service's apply path (`OverlayGraph::apply_delta`,
//!   `PatternState::advance_applied`, `match_with_prepared_counted`, `splice_rows`),
//!   whose rows must equal `QueryService::output` after every delta;
//! * distributed layers — `TrafficStats` and the partition of each run, against
//!   centralized `Match+` on the same query.
//!
//! Every traced run exercises every layer: the workload's own loop runs for the run
//! length and gives its layers most of the work, then a short fixed epilogue gives the
//! other layers a little (a few distributed queries, a short update stream). So each
//! per-layer metric is measured on a workload that stresses its layer and on workloads
//! that barely touch it.
//!
//! Spans measure the public-function boundaries only: work the engine does between
//! those calls (forest slides, warm carries, pruning, the fan-out) shows up as the
//! `trace.engine_over_primitives` ratio, not as a layer of its own.

use crate::gen::{ChurnOp, ChurnStream};
use crate::pipeline::{self, Counts, Spans};
use crate::report::{ratio, MetricSet, Report};
use crate::run::{
    check_service, distributed_config, parse_pattern, register_adhoc, to_delta, Latencies,
    SERVE_CHECK_EVERY,
};
use crate::workload::TRACE_STANDING;
use ssim_core::incremental::{splice_rows, PatternState};
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::service::{QueryId, QueryService};
use ssim_core::strong::{
    match_with_prepared, match_with_prepared_counted, strong_simulation, MatchConfig, MatchStats,
};
use ssim_distributed::distributed_strong_simulation;
use ssim_graph::{BitSet, Graph, LabelInterner, OverlayGraph, Pattern};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The first this many pipeline runs also compare their `Match+` rows with plain
/// `Match` on the same centers (`subgraph.divergent_queries`).
const DIVERGENCE_SAMPLE: usize = 12;
/// Every this many traced pipeline runs, an untraced one measures the span overhead.
const OVERHEAD_EVERY: usize = 10;
/// The service's documented dirty-bail rule: an apply whose dirty centers exceed this
/// share of the graph re-runs the whole pass instead of splicing.
const DIRTY_BAIL_FRACTION: f64 = 0.85;
/// Distributed queries in the epilogue of a workload that is not itself distributed.
const DISTRIBUTED_PROBES: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sums behind the one-shot layer metrics.
#[derive(Default)]
struct LayerTally {
    runs: usize,
    data_nodes: usize,
    spans: Spans,
    pipeline: Counts,
    engine: MatchStats,
    engine_seq: Duration,
    traced_wall: Duration,
    plain_wall: Duration,
    divergent: usize,
}

impl LayerTally {
    fn add_engine(&mut self, s: &MatchStats) {
        let e = &mut self.engine;
        e.balls_processed += s.balls_processed;
        e.balls_reused += s.balls_reused;
        e.balls_warm_started += s.balls_warm_started;
        e.seeded_pairs += s.seeded_pairs;
        e.filter_removed_pairs += s.filter_removed_pairs;
        e.perfect_subgraphs += s.perfect_subgraphs;
        e.chunks_processed += s.chunks_processed;
        e.chunks_stolen += s.chunks_stolen;
        e.chunks_split += s.chunks_split;
    }

    /// Runs the traced pipeline on `q`, plus an untraced one every [`OVERHEAD_EVERY`]-th
    /// run and a plain-`Match` comparison on the first [`DIVERGENCE_SAMPLE`] runs.
    fn pipeline(&mut self, q: &Pattern, graph: &Graph) -> pipeline::PipelineRun {
        let mut spans = Spans::default();
        let start = Instant::now();
        let run = pipeline::match_plus(q, graph, Some(&mut spans));
        let traced = start.elapsed();
        if self.runs.is_multiple_of(OVERHEAD_EVERY) {
            let start = Instant::now();
            black_box(pipeline::match_plus(q, graph, None));
            self.plain_wall += start.elapsed();
            self.traced_wall += traced;
        }
        if self.runs < DIVERGENCE_SAMPLE {
            let plain =
                match_with_prepared(q, graph, &MatchConfig::basic(), None, Some(&run.centers));
            self.divergent += usize::from(plain.subgraphs != run.rows);
        }
        self.runs += 1;
        self.data_nodes += graph.node_count();
        self.spans.add(&spans);
        self.pipeline.add(&run.counts);
        run
    }

    fn write(&self, m: &mut MetricSet) {
        let runs = self.runs as f64;
        let per_run = |d: Duration| ratio(ms(d), runs);
        let e = &self.engine;
        let processed = e.balls_processed as f64;
        m.set("minimize.ms", per_run(self.spans.minimize));
        m.set("dual.ms", per_run(self.spans.dual));
        m.set("dual.pairs", ratio(self.pipeline.dual_pairs as f64, runs));
        m.set("subgraph.ms", per_run(self.spans.subgraph));
        m.set(
            "subgraph.gm_frac",
            ratio(self.pipeline.gm_nodes as f64, self.data_nodes as f64),
        );
        m.set("subgraph.divergent_queries", self.divergent as f64);
        m.set("ball.ms", per_run(self.spans.ball));
        m.set("ball.per_query", ratio(processed, runs));
        m.set(
            "ball.mean_nodes",
            ratio(self.pipeline.ball_nodes as f64, self.pipeline.balls as f64),
        );
        m.set("ball.reused_frac", ratio(e.balls_reused as f64, processed));
        m.set("strong.ms", per_run(self.spans.strong));
        m.set(
            "strong.useful_frac",
            ratio(e.perfect_subgraphs as f64, processed),
        );
        m.set(
            "strong.removed_pairs",
            ratio(e.filter_removed_pairs as f64, runs),
        );
        m.set(
            "warm.started_frac",
            ratio(e.balls_warm_started as f64, processed),
        );
        m.set(
            "warm.seeded_per_ball",
            ratio(e.seeded_pairs as f64, processed),
        );
        m.set("parallel.chunks", ratio(e.chunks_processed as f64, runs));
        m.set(
            "parallel.steal_frac",
            ratio(e.chunks_stolen as f64, e.chunks_processed as f64),
        );
        m.set("parallel.splits", ratio(e.chunks_split as f64, runs));
        m.set(
            "trace.engine_over_primitives",
            ratio(ms(self.engine_seq), ms(self.spans.total())),
        );
        m.set(
            "trace.overhead",
            ratio(ms(self.traced_wall), ms(self.plain_wall)),
        );
    }

    /// One traced one-shot query: the engine in parallel (rows and stats) and
    /// sequentially (for the engine-over-primitives ratio), and the traced pipeline.
    /// Returns the rows when all three agree.
    fn query(&mut self, q: &Pattern, graph: &Graph) -> Option<Vec<PerfectSubgraph>> {
        let cfg = MatchConfig::optimized();
        let out = strong_simulation(q, graph, &cfg);
        let start = Instant::now();
        let sequential = strong_simulation(q, graph, &cfg.sequential());
        self.engine_seq += start.elapsed();
        self.add_engine(&out.stats);
        let run = self.pipeline(q, graph);
        if run.rows == out.subgraphs && sequential.subgraphs == out.subgraphs {
            Some(out.subgraphs)
        } else {
            eprintln!("traced query: engine and primitive pipeline rows differ");
            None
        }
    }
}

/// Sums behind the distributed layer metrics.
#[derive(Default)]
struct DistTally {
    runs: usize,
    edge_cut: usize,
    border: usize,
    shipped_balls: usize,
    shipped_nodes: usize,
    shipped_edges: usize,
    chunks: usize,
    stolen: usize,
    distributed: Duration,
    centralized: Duration,
}

impl DistTally {
    /// Runs `q` distributed and centralized; `true` when the rows agree.
    fn query(&mut self, q: &Pattern, graph: &Graph) -> bool {
        let start = Instant::now();
        let out = distributed_strong_simulation(q, graph, &distributed_config());
        let distributed = start.elapsed();
        let start = Instant::now();
        let central = strong_simulation(q, graph, &MatchConfig::optimized());
        let centralized = start.elapsed();
        match out {
            Ok(out) => {
                let t = &out.traffic;
                self.runs += 1;
                self.distributed += distributed;
                self.centralized += centralized;
                self.edge_cut += out.partition.edge_cut(graph);
                self.border += t.border_balls;
                self.shipped_balls += t.shipped_balls;
                self.shipped_nodes += t.shipped_nodes;
                self.shipped_edges += t.shipped_edges;
                self.chunks += t.chunks_processed;
                self.stolen += t.chunks_stolen;
                let agree = out.lost_centers.is_empty()
                    && pipeline::expand_minimized(q, &out.subgraphs) == central.subgraphs;
                if !agree {
                    eprintln!("distributed query: rows differ from centralized Match+");
                }
                agree
            }
            Err(e) => {
                eprintln!("distributed query: {e:?}");
                false
            }
        }
    }

    fn write(&self, m: &mut MetricSet) {
        let runs = self.runs as f64;
        m.set("distributed.edge_cut", ratio(self.edge_cut as f64, runs));
        m.set("distributed.border_balls", ratio(self.border as f64, runs));
        m.set(
            "distributed.shipped_balls",
            ratio(self.shipped_balls as f64, runs),
        );
        m.set(
            "distributed.shipped_nodes",
            ratio(self.shipped_nodes as f64, runs),
        );
        m.set(
            "distributed.shipped_edges",
            ratio(self.shipped_edges as f64, runs),
        );
        m.set(
            "distributed.steal_frac",
            ratio(self.stolen as f64, self.chunks as f64),
        );
        m.set(
            "distributed.over_centralized",
            ratio(ms(self.distributed), ms(self.centralized)),
        );
    }
}

/// Sums behind the update-layer metrics.
#[derive(Default)]
struct ServeTally {
    applies: usize,
    updates: usize,
    registrations: usize,
    stage: Duration,
    advance: Duration,
    restricted: Duration,
    splice: Duration,
    residual_ms: f64,
    register_state: Duration,
    register_pass: Duration,
    compactions: usize,
    patch_frac: f64,
    dirty_frac: f64,
    pairs_changed: usize,
    recomputes: usize,
    reextracts: usize,
    apply_lat: Latencies,
    register_lat: Latencies,
}

impl ServeTally {
    fn write(&self, m: &mut MetricSet) {
        let applies = self.applies as f64;
        let updates = self.updates as f64;
        let regs = self.registrations as f64;
        m.set("overlay.stage_ms", ratio(ms(self.stage), applies));
        m.set("overlay.compactions", self.compactions as f64);
        m.set("overlay.patch_frac", ratio(self.patch_frac, regs));
        m.set("incremental.advance_ms", ratio(ms(self.advance), applies));
        m.set("incremental.splice_ms", ratio(ms(self.splice), applies));
        m.set("incremental.dirty_frac", ratio(self.dirty_frac, updates));
        m.set(
            "incremental.pairs_changed",
            ratio(self.pairs_changed as f64, updates),
        );
        m.set(
            "incremental.recompute_frac",
            ratio(self.recomputes as f64, updates),
        );
        m.set(
            "incremental.gm_reextract_frac",
            ratio(self.reextracts as f64, updates),
        );
        m.set("strong.restricted_ms", ratio(ms(self.restricted), applies));
        m.set("service.apply_p50_ms", self.apply_lat.p50_ms());
        m.set("service.register_p50_ms", self.register_lat.p50_ms());
        m.set("service.residual_ms", ratio(self.residual_ms, applies));
        m.set(
            "service.register_state_ms",
            ratio(ms(self.register_state), regs),
        );
        m.set(
            "service.register_pass_ms",
            ratio(ms(self.register_pass), regs),
        );
    }
}

/// A replica of one registered query: what the service keeps per query, maintained
/// through the same public functions its apply path calls.
struct ReplicaQuery {
    id: QueryId,
    pattern: Pattern,
    state: PatternState,
    rows: Vec<PerfectSubgraph>,
}

/// Builds a replica query the way `QueryService::register` does: the pattern state,
/// then one unrestricted prepared pass over the current graph.
fn replica_register(
    overlay: &OverlayGraph,
    id: QueryId,
    pattern: Pattern,
    tally: &mut ServeTally,
) -> ReplicaQuery {
    let cfg = MatchConfig::optimized();
    let start = Instant::now();
    let state = PatternState::new(
        &pattern,
        overlay,
        cfg.minimize_query,
        cfg.radius_override,
        cfg.dual_filter,
        cfg.ball_substrate,
        cfg.refine_strategy,
    );
    tally.register_state += start.elapsed();
    let start = Instant::now();
    let out = if overlay.is_flat() {
        match_with_prepared(&pattern, overlay.base(), &cfg, state.prepared(), None)
    } else {
        let flat = overlay.to_graph();
        match_with_prepared(&pattern, &flat, &cfg, state.prepared(), None)
    };
    tally.register_pass += start.elapsed();
    ReplicaQuery {
        id,
        pattern,
        state,
        rows: out.subgraphs,
    }
}

/// A service serving an op stream, with a replica that replays every op through the
/// public functions of each update layer.
struct Replay {
    service: QueryService,
    overlay: OverlayGraph,
    replica: Vec<ReplicaQuery>,
    adhoc: VecDeque<QueryId>,
    tally: ServeTally,
}

impl Replay {
    /// Starts replaying next to `service`, whose graph must still be flat.
    fn new(service: QueryService) -> Self {
        let overlay = OverlayGraph::new(service.data());
        let replica = service
            .query_ids()
            .into_iter()
            .map(|id| {
                let pattern = service.pattern(id).expect("live id").clone();
                replica_register(&overlay, id, pattern, &mut ServeTally::default())
            })
            .collect();
        Replay {
            service,
            overlay,
            replica,
            adhoc: VecDeque::new(),
            tally: ServeTally::default(),
        }
    }

    fn rows_match(&self, q: &ReplicaQuery) -> bool {
        self.service
            .output(q.id)
            .is_some_and(|out| out.subgraphs == q.rows)
    }

    /// Serves one op and replays it; returns the number of failed checks.
    fn step(
        &mut self,
        op: ChurnOp,
        interner: &LabelInterner,
        layers: &mut LayerTally,
    ) -> Result<u64, String> {
        match op {
            ChurnOp::Apply(edge_ops) => self.apply(&to_delta(&edge_ops)),
            ChurnOp::Register(p) => self.register(parse_pattern(&p.to_text(), interner)?, layers),
        }
    }

    fn apply(&mut self, delta: &ssim_graph::GraphDelta) -> Result<u64, String> {
        let t = Instant::now();
        let update = self.service.apply(delta);
        let apply = t.elapsed();
        let update = match update {
            Ok(update) => update,
            Err(e) => {
                eprintln!("apply: {e:?}");
                return Ok(1);
            }
        };
        let s = &mut self.tally;
        s.apply_lat.record(apply);
        s.applies += 1;
        s.compactions += usize::from(update.compacted);
        let n = self.overlay.node_count();
        for q in &update.queries {
            let q = &q.stats;
            s.updates += 1;
            s.dirty_frac += q.dirty_balls as f64 / n as f64;
            s.pairs_changed += q.pairs_gained + q.pairs_lost;
            s.recomputes += usize::from(q.relation_recomputed);
            s.reextracts += usize::from(q.gm_reextracted);
        }

        let t = Instant::now();
        self.overlay
            .apply_delta(delta)
            .map_err(|e| format!("replica rejected a delta the service took: {e:?}"))?;
        let stage = t.elapsed();
        s.stage += stage;
        let mut layered = stage;
        // The edge sweeps `advance_applied` takes are only read by patterns that
        // localise in the full graph; `Match+` sweeps its own `Gm`.
        let no_sweep = BitSet::new(n);
        let cfg = MatchConfig::optimized();
        let mut failed = 0;
        for q in &mut self.replica {
            let t = Instant::now();
            let effect = q
                .state
                .advance_applied(&self.overlay, delta, &no_sweep, &no_sweep);
            let advance = t.elapsed();
            let bailed = effect.dirty.len() > (DIRTY_BAIL_FRACTION * n as f64) as usize;
            let prepared = q.state.prepared().expect("Match+ maintains a fixpoint");
            let dirty = (!bailed).then_some(&effect.dirty);
            let t = Instant::now();
            let out = match_with_prepared_counted(&q.pattern, n, &cfg, prepared, dirty);
            let restricted = t.elapsed();
            let t = Instant::now();
            match dirty {
                Some(dirty) => splice_rows(&mut q.rows, dirty, out.subgraphs),
                None => q.rows = out.subgraphs,
            }
            let splice = t.elapsed();
            s.advance += advance;
            s.restricted += restricted;
            s.splice += splice;
            layered += advance + restricted + splice;
        }
        s.residual_ms += ms(apply) - ms(layered);
        for q in &self.replica {
            if !self.rows_match(q) {
                eprintln!("apply: replica rows differ for query {}", q.id.0);
                failed += 1;
            }
        }
        Ok(failed)
    }

    fn register(&mut self, pattern: Pattern, layers: &mut LayerTally) -> Result<u64, String> {
        let cfg = MatchConfig::optimized();
        let t = Instant::now();
        let (id, retired) = register_adhoc(&mut self.service, &mut self.adhoc, &pattern, cfg);
        self.tally.register_lat.record(t.elapsed());
        self.tally.registrations += 1;
        self.tally.patch_frac += self.overlay.overlay_fraction();
        let q = replica_register(&self.overlay, id, pattern, &mut self.tally);
        // The one-shot layers, on the registered pattern over the current graph.
        let rows = layers.query(&q.pattern, &self.overlay.to_graph());
        let failed = !self.rows_match(&q) || rows.as_ref() != Some(&q.rows);
        if failed {
            eprintln!("registration: rows differ");
        }
        self.replica.push(q);
        self.replica.retain(|r| Some(r.id) != retired);
        Ok(u64::from(failed))
    }
}

/// Traced one-shot run (`oneshot-*`, and `distributed-dense` with `distributed`): the
/// workload's queries (each the index of its graph in `graphs` and a pattern) through
/// the traced pipeline (and the distributed runtime) for the run length, then a few
/// distributed queries (when not already distributed) and the short update stream over
/// the first graph, whose label names `interner` holds, with its first queries standing.
pub fn oneshot(
    graphs: &[Graph],
    interner: &LabelInterner,
    queries: &[(usize, Pattern)],
    updates: Vec<ChurnOp>,
    budget: Duration,
    distributed: bool,
) -> Result<Report, String> {
    let mut layers = LayerTally::default();
    let mut dist = DistTally::default();
    let mut failed = 0;
    let mut attempted = 0u64;
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < budget {
        let (k, q) = &queries[attempted as usize % queries.len()];
        let mut ok = layers.query(q, &graphs[*k]).is_some();
        if distributed {
            ok &= dist.query(q, &graphs[*k]);
        }
        failed += u64::from(!ok);
        attempted += 1;
    }
    if !distributed {
        for (k, q) in queries.iter().take(DISTRIBUTED_PROBES) {
            failed += u64::from(!dist.query(q, &graphs[*k]));
            attempted += 1;
        }
    }
    let cfg = MatchConfig::optimized();
    let mut service = QueryService::new(graphs[0].clone());
    let standing = queries.iter().filter(|(k, _)| *k == 0).take(TRACE_STANDING);
    for (_, q) in standing {
        service.register(q, cfg);
    }
    let mut replay = Replay::new(service);
    for op in updates {
        failed += replay.step(op, interner, &mut layers)?;
        attempted += 1;
    }
    failed += check_service(&replay.service, &cfg);
    let mut m = MetricSet::per_layer();
    layers.write(&mut m);
    dist.write(&mut m);
    replay.tally.write(&mut m);
    Ok(Report::new(attempted, failed, m))
}

/// Traced `serve-churn` run: the service serves the op stream while a replica replays
/// it through the public functions of each update layer; registrations also run the
/// one-shot pipeline. Then the standing queries run distributed over the final graph.
pub fn serve(
    service: QueryService,
    interner: &LabelInterner,
    stream: &mut ChurnStream,
    budget: Duration,
) -> Result<Report, String> {
    let cfg = MatchConfig::optimized();
    let standing: Vec<Pattern> = service
        .query_ids()
        .into_iter()
        .filter_map(|id| service.pattern(id).cloned())
        .collect();
    let mut replay = Replay::new(service);
    let mut layers = LayerTally::default();
    let mut failed = 0;
    let mut attempted = 0u64;
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < budget {
        failed += replay.step(stream.next_op(), interner, &mut layers)?;
        attempted += 1;
        if attempted.is_multiple_of(SERVE_CHECK_EVERY as u64) {
            failed += check_service(&replay.service, &cfg);
        }
    }
    failed += check_service(&replay.service, &cfg);
    let mut dist = DistTally::default();
    let data = replay.service.data();
    for q in standing.iter().take(DISTRIBUTED_PROBES) {
        failed += u64::from(!dist.query(q, &data));
        attempted += 1;
    }
    let mut m = MetricSet::per_layer();
    layers.write(&mut m);
    dist.write(&mut m);
    replay.tally.write(&mut m);
    Ok(Report::new(attempted, failed, m))
}
