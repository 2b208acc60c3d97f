//! Engine trajectory bench: times the matching engine's configurations on the standard
//! workload and emits `BENCH_match.json` at the workspace root so future engine work has a
//! baseline to beat.
//!
//! Configurations measured, on `workload()` at `BENCH_NODES` for every dataset family:
//!
//! * `seed/match` — the seed's engine (naive fixpoint, sequential, `|V|`-sized ball
//!   relations) running plain `Match`,
//! * `seed/match_plus` — the seed's engine running `Match+`,
//! * `engine/match` — worklist + compact balls + parallel running plain `Match`,
//! * `engine/match_plus` — the full fast engine running `Match+`,
//! * `engine/match_plus_fullballs` — `Match+` with `BallSubstrate::FullGraph`, isolating
//!   the match-graph ball substrate: `gm_substrate` records its time over
//!   `engine/match_plus`'s plus the fraction of `|V|` the extracted `Gm` holds.
//!
//! Two high-overlap rows (`overlap-chain`, `overlap-cluster`), where adjacent centers
//! share most of their balls, time plain `Match` at 1/2/4/8 workers (the `scaling`
//! curve of the work-stealing chunk scheduler). A `selective-labels` row (match-graph
//! fraction below 10 % of `|V|`) stresses the `Gm` substrate, whose ball cost tracks the
//! candidate density instead of the mesh degree. Four update-stream rows
//! (`update-overlap-chain-*`, `update-selective-labels-*` at 1 % / 5 % edge churn)
//! stress the incremental matcher: each `incremental_update` blob records the
//! dirty-ball fraction and the speedup of `UpdatePlan::Incremental` over the
//! `UpdatePlan::Recompute` oracle across a six-delta stream. A `repeated-labels` row
//! (equal-label community corpus) prices the repetition oracle axis: its `repetition` blob
//! records the `Distinct`/`Equal` witness-closure overhead over `Free` and the naive
//! per-ball oracle's cost over the integrated path, on the one workload shape where
//! the closure has real work. Each update row carries an
//! `overlay_apply` blob comparing the versioned substrate's `OverlayGraph::apply_delta`
//! (O(patches), amortised over any compactions) against the flat `Graph::apply_delta`
//! full-rebuild baseline. Two batched rows (`update-*-batched`, 5 % churn in
//! three-delta batches through `apply_batch`) measure the overlay's net-delta folding:
//! one maintenance pass per batch instead of one per delta. Each overlap row also
//! carries a `fault_overhead` blob pricing the distributed supervision loop when idle:
//! the recovery-enabled runtime with nothing scripted against the fast fan-out, which
//! CI's bench-smoke gates at ≤ 5 % overhead.
//!
//! For each configuration the JSON records mean seconds per run, processed balls per
//! second and data nodes per second, plus the speedup of the fast engine over the seed
//! engine. Run with `cargo bench --bench match_engine`.

use ssim_bench::{workload, BenchWorkload, BENCH_NODES, BENCH_PATTERN_NODES};
use ssim_core::ball::BallSubstrate;
use ssim_core::incremental::{IncrementalMatcher, UpdatePlan};
use ssim_core::repetition::{RepetitionMode, RepetitionSemantics};
use ssim_core::strong::{strong_simulation, MatchConfig, MatchOutput};
use ssim_distributed::{distributed_strong_simulation, DistributedConfig, RecoveryPolicy};
use ssim_experiments::workloads::DatasetKind;
use ssim_graph::GraphDelta;
use std::time::Instant;

/// One measured configuration.
struct ConfigResult {
    name: &'static str,
    seconds: f64,
    balls_per_sec: f64,
    nodes_per_sec: f64,
    subgraphs: usize,
    matched_nodes: usize,
    balls_built: usize,
    seeded_pairs: usize,
    gm_nodes: usize,
}

/// Times each configuration over `runs` interleaved rounds (after one warm-up each) and
/// returns the per-config **median** seconds plus outputs. Round-robin interleaving plus
/// medians keeps slow machine-level drift (frequency scaling, noisy neighbours) from
/// biasing the cross-config ratios the way back-to-back means did.
fn time_configs(
    pattern: &ssim_graph::Pattern,
    data: &ssim_graph::Graph,
    configs: &[&MatchConfig],
    runs: usize,
) -> Vec<(f64, MatchOutput)> {
    let warmups: Vec<MatchOutput> = configs
        .iter()
        .map(|c| strong_simulation(pattern, data, c))
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); configs.len()];
    for _ in 0..runs {
        for (i, config) in configs.iter().enumerate() {
            let start = Instant::now();
            let out = strong_simulation(pattern, data, config);
            times[i].push(start.elapsed().as_secs_f64());
            assert_eq!(
                out.subgraphs.len(),
                warmups[i].subgraphs.len(),
                "nondeterministic output"
            );
        }
    }
    times
        .into_iter()
        .zip(warmups)
        .map(|(mut t, out)| {
            t.sort_by(f64::total_cmp);
            (t[t.len() / 2], out)
        })
        .collect()
}

fn measure(name: &'static str, w: &BenchWorkload, seconds: f64, out: &MatchOutput) -> ConfigResult {
    ConfigResult {
        name,
        seconds,
        balls_per_sec: out.stats.balls_processed as f64 / seconds,
        nodes_per_sec: w.data.node_count() as f64 / seconds,
        subgraphs: out.subgraphs.len(),
        matched_nodes: out.matched_node_count(),
        balls_built: out.stats.balls_built,
        seeded_pairs: out.stats.seeded_pairs,
        gm_nodes: out.stats.gm_nodes,
    }
}

/// Fraction of the data graph surviving the `Gm` extraction (0 when none ran).
fn gm_fraction(gm_nodes: usize, data_nodes: usize) -> f64 {
    if data_nodes == 0 {
        0.0
    } else {
        gm_nodes as f64 / data_nodes as f64
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A deterministic churn stream: `updates` deltas that alternately delete and re-insert
/// the same `churn_edges` randomly chosen edges, so the graph (and the matches near the
/// churned region) oscillates between two versions instead of drifting away from the
/// workload's intended shape.
fn delta_stream(
    data: &ssim_graph::Graph,
    churn_edges: usize,
    updates: usize,
    seed: u64,
) -> Vec<GraphDelta> {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let edges: Vec<(ssim_graph::NodeId, ssim_graph::NodeId)> = data.edges().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = churn_edges.min(edges.len());
    // Partial Fisher–Yates: a uniform `target`-subset of the edge indices in O(|E|).
    let mut indices: Vec<usize> = (0..edges.len()).collect();
    for k in 0..target {
        let j = rng.gen_range(k..indices.len());
        indices.swap(k, j);
    }
    let mut deletion = GraphDelta::new();
    for &i in &indices[..target] {
        let (s, t) = edges[i];
        deletion.delete_edge(s, t);
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

/// Times one update plan absorbing the whole stream. Session construction (the initial
/// full match) is untimed — both plans pay it identically; the applies are the measure.
/// Returns the stream seconds and the mean dirty-ball fraction across the updates.
fn time_update_stream(
    pattern: &ssim_graph::Pattern,
    data: &ssim_graph::Graph,
    config: &MatchConfig,
    plan: UpdatePlan,
    stream: &[GraphDelta],
) -> (f64, f64) {
    let mut session = IncrementalMatcher::new(pattern, data.clone(), config.with_update_plan(plan));
    let mut dirty = 0usize;
    let start = Instant::now();
    for delta in stream {
        session
            .apply(delta)
            .expect("stream validates against the session graph");
        dirty += session.last_update().dirty_balls;
    }
    let secs = start.elapsed().as_secs_f64();
    let fraction = dirty as f64 / (stream.len() * data.node_count()).max(1) as f64;
    (secs, fraction)
}

/// Times one update plan absorbing the stream in `batch`-sized groups via
/// [`IncrementalMatcher::apply_batch`]: the incremental plan validates the batch on a
/// cheap overlay clone, folds it into one net delta and pays a single maintenance pass;
/// the recompute oracle chains the deltas and re-runs the full matcher once per batch.
fn time_update_stream_batched(
    pattern: &ssim_graph::Pattern,
    data: &ssim_graph::Graph,
    config: &MatchConfig,
    plan: UpdatePlan,
    stream: &[GraphDelta],
    batch: usize,
) -> f64 {
    let mut session = IncrementalMatcher::new(pattern, data.clone(), config.with_update_plan(plan));
    let start = Instant::now();
    for chunk in stream.chunks(batch) {
        session
            .apply_batch(chunk)
            .expect("stream validates against the session graph");
    }
    start.elapsed().as_secs_f64()
}

/// Substrate-level delta cost: per-delta microseconds for `OverlayGraph::apply_delta`
/// (patch staging, amortised over any compactions the policy triggers) against the flat
/// `Graph::apply_delta` full-rebuild baseline absorbing the same stream.
struct OverlayApplyStats {
    apply_us_per_delta: f64,
    rebuild_us_per_delta: f64,
    ratio: f64,
    compactions: u64,
    overlay_fraction: f64,
}

fn overlay_apply_stats(
    data: &ssim_graph::Graph,
    stream: &[GraphDelta],
    rounds: usize,
) -> OverlayApplyStats {
    use ssim_graph::OverlayGraph;
    let mut overlay = OverlayGraph::new(data.clone());
    let start = Instant::now();
    for _ in 0..rounds {
        for delta in stream {
            overlay.apply_delta(delta).expect("stream validates");
        }
    }
    let overlay_secs = start.elapsed().as_secs_f64();
    let mut flat = data.clone();
    let start = Instant::now();
    for _ in 0..rounds {
        for delta in stream {
            flat = flat.apply_delta(delta).expect("stream validates");
        }
    }
    let rebuild_secs = start.elapsed().as_secs_f64();
    // The alternating stream nets out to the original graph: both substrates must agree.
    assert!(
        flat == overlay.to_graph(),
        "substrates diverged on the stream"
    );
    let applies = (rounds * stream.len()).max(1) as f64;
    let apply_us = overlay_secs * 1e6 / applies;
    let rebuild_us = rebuild_secs * 1e6 / applies;
    OverlayApplyStats {
        apply_us_per_delta: apply_us,
        rebuild_us_per_delta: rebuild_us,
        ratio: rebuild_us / apply_us.max(f64::MIN_POSITIVE),
        compactions: overlay.compactions(),
        overlay_fraction: overlay.overlay_fraction(),
    }
}

/// A long thick chain (each node linked to the next two) with a diameter-2 path pattern:
/// every radius-2 ball shares all but a couple of nodes with its neighbour's.
fn overlap_chain() -> (&'static str, ssim_graph::Graph, ssim_graph::Pattern) {
    use ssim_graph::{Graph, Label, Pattern};
    let n = 3000u32;
    // One matchable 0/1 prefix; the long tail is ball-construction-bound: its labels
    // never seed a candidate, so per-ball cost there is the ball build itself.
    let labels: Vec<Label> = (0..n)
        .map(|i| Label(if i < 64 { i % 2 } else { 2 }))
        .collect();
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.extend((0..n - 2).map(|i| (i, i + 2)));
    let data = Graph::from_edges(labels, &edges).unwrap();
    let pattern =
        Pattern::from_edges(vec![Label(0), Label(1), Label(0)], &[(0, 1), (1, 2)]).unwrap();
    ("overlap-chain", data, pattern)
}

/// Short-chord communities chained in a line: centers inside one community see nearly
/// identical balls. The first communities keep the matchable labelling, and the filler
/// communities carry isolated *near-miss* candidates — pattern-labelled nodes that are
/// never wired into a match, so every ball pays their dead-candidate cascade.
fn overlap_cluster() -> (&'static str, ssim_graph::Graph, ssim_graph::Pattern) {
    use ssim_graph::{Graph, Label, Pattern};
    let communities = 40u32;
    let size = 24u32;
    let n = communities * size;
    let labels: Vec<Label> = (0..n)
        .map(|i| {
            if i < 4 * size {
                // Matchable prefix: consecutive ring labels realise the path pattern.
                Label(i % 3)
            } else {
                // Near-miss candidates at positions 0/8/16: with chords {1, 2} they are
                // never adjacent to each other, so their candidacy always refines away.
                match i % size {
                    0 => Label(0),
                    8 => Label(1),
                    16 => Label(2),
                    _ => Label(3),
                }
            }
        })
        .collect();
    let mut edges = Vec::new();
    for c in 0..communities {
        let base = c * size;
        for i in 0..size - 1 {
            // Path plus one short chord per node: adjacent centers' balls overlap
            // almost entirely.
            edges.push((base + i, base + i + 1));
            if i < size - 2 {
                edges.push((base + i, base + i + 2));
            }
        }
        // One bridge to the next community (linear chain of communities).
        if c + 1 < communities {
            edges.push((base + size - 1, base + size));
        }
    }
    let data = Graph::from_edges(labels, &edges).unwrap();
    let pattern =
        Pattern::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
    ("overlap-cluster", data, pattern)
}

/// Equal-label community corpus for the repetition-semantics row: star-shaped
/// communities whose hub and members all carry label 0 (bidirectional spokes), chained
/// by label-1 bridges. Every radius-2 ball is dense in repeated-label candidates —
/// exactly the shape where the `Distinct`/`Equal` witness closure has real work — while
/// the per-ball candidate products stay far under the witness budget, so no ball bails.
fn repeated_labels() -> (&'static str, ssim_graph::Graph, ssim_graph::Pattern) {
    use ssim_graph::{Graph, Label, Pattern};
    let communities = 48u32;
    let members = 12u32;
    let mut labels = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for c in 0..communities {
        let hub = labels.len() as u32;
        labels.push(Label(0));
        for _ in 0..members {
            let m = labels.len() as u32;
            labels.push(Label(0));
            edges.push((hub, m));
            edges.push((m, hub));
        }
        if c + 1 < communities {
            let bridge = labels.len() as u32;
            labels.push(Label(1));
            edges.push((hub, bridge));
            edges.push((bridge, hub + members + 2));
        }
    }
    // Fold-loop components: a self-looped label-0 node feeding a label-1 sink. Dual
    // simulation keeps the loop node for both label-0 pattern nodes, but the only
    // witness maps them to the *same* node — so `Distinct` filters the pair away while
    // `Equal` (which wants exactly that collapse) keeps it. These give the closure
    // genuine removals and the `Free`/`Distinct`/`Equal` outputs three distinct values.
    for _ in 0..8 {
        let a = labels.len() as u32;
        labels.push(Label(0));
        let c = labels.len() as u32;
        labels.push(Label(1));
        edges.push((a, a));
        edges.push((a, c));
    }
    let data = Graph::from_edges(labels, &edges).unwrap();
    // Both endpoints of the 2-path sit on the repeated label: the closure must find a
    // witness with two *distinct* (resp. one shared) label-0 nodes in every ball.
    let pattern =
        Pattern::from_edges(vec![Label(0), Label(0), Label(1)], &[(0, 1), (1, 2)]).unwrap();
    ("repeated-labels", data, pattern)
}

fn main() {
    // `cargo test` may execute bench targets in test mode; only benchmark under
    // `cargo bench`.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let runs = 9usize;
    let threads = ssim_core::parallel::available_threads();
    let configs: [(&'static str, MatchConfig); 6] = [
        ("seed/match", MatchConfig::seed_reference()),
        (
            "seed/match_plus",
            MatchConfig {
                minimize_query: true,
                dual_filter: true,
                connectivity_pruning: true,
                ..MatchConfig::seed_reference()
            },
        ),
        ("engine/match", MatchConfig::basic()),
        ("engine/match_plus", MatchConfig::optimized()),
        (
            "engine/match_plus_fullballs",
            MatchConfig::optimized().with_ball_substrate(BallSubstrate::FullGraph),
        ),
        (
            "engine/match_plus_distinct",
            MatchConfig::optimized().with_repetition(RepetitionSemantics::Distinct),
        ),
    ];

    let mut dataset_blobs = Vec::new();
    for dataset in DatasetKind::all() {
        let w = workload(dataset);
        eprintln!(
            "dataset {} : |V|={} |E|={} pattern |Vq|={} dQ={}",
            dataset.name(),
            w.data.node_count(),
            w.data.edge_count(),
            w.pattern.node_count(),
            w.pattern.diameter()
        );
        let config_refs: Vec<&MatchConfig> = configs.iter().map(|(_, c)| c).collect();
        let timed = time_configs(&w.pattern, &w.data, &config_refs, runs);
        let results: Vec<ConfigResult> = configs
            .iter()
            .zip(&timed)
            .map(|((name, _), (seconds, out))| measure(name, &w, *seconds, out))
            .collect();
        // Headline: the optimised matcher on the new engine vs the seed's naive
        // sequential engine (its shipped `Match`). Same-configuration ratios are also
        // recorded so engine regressions stay visible.
        let headline = results[0].seconds / results[3].seconds;
        let speedup_plus = results[1].seconds / results[3].seconds;
        let speedup_basic = results[0].seconds / results[2].seconds;
        // Ball-substrate layer in isolation: Match+ with full-graph balls vs the same
        // configuration building its balls inside the extracted Gm.
        let gm_speedup = results[4].seconds / results[3].seconds;
        let gm_frac = gm_fraction(results[3].gm_nodes, w.data.node_count());
        // Repetition axis on standard rows: the workload patterns are label-distinct,
        // so the `Distinct` closure is a gated no-op and this ratio prices the gate
        // itself (the per-ball repeated-label check) — the ≤1.5x standard-row claim.
        let repetition_overhead = results[5].seconds / results[3].seconds;
        for r in &results {
            eprintln!(
                "  {:<22} {:>10.4} ms/run  {:>12.0} balls/s  {:>12.0} nodes/s  ({} subgraphs)",
                r.name,
                r.seconds * 1e3,
                r.balls_per_sec,
                r.nodes_per_sec,
                r.subgraphs
            );
        }
        eprintln!(
            "  speedup: Match+ vs seed engine {headline:.2}x (same-config: Match {speedup_basic:.2}x, Match+ {speedup_plus:.2}x)"
        );
        eprintln!(
            "  gm substrate: Gm holds {:.0}% of |V|, {gm_speedup:.2}x vs full-graph balls",
            gm_frac * 100.0
        );
        eprintln!("  repetition: Distinct overhead {repetition_overhead:.2}x vs Match+ (gated)");
        let config_json: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "      {{\"name\": \"{}\", \"seconds_per_run\": {:.6}, ",
                        "\"balls_per_sec\": {:.1}, \"nodes_per_sec\": {:.1}, ",
                        "\"subgraphs\": {}, \"matched_nodes\": {}, ",
                        "\"balls_built\": {}, \"seeded_pairs\": {}}}"
                    ),
                    json_escape(r.name),
                    r.seconds,
                    r.balls_per_sec,
                    r.nodes_per_sec,
                    r.subgraphs,
                    r.matched_nodes,
                    r.balls_built,
                    r.seeded_pairs
                )
            })
            .collect();
        dataset_blobs.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, ",
                "\"pattern_nodes\": {}, \"pattern_diameter\": {},\n",
                "     \"speedup_match_plus_vs_seed_engine\": {:.3},\n",
                "     \"speedup_match_same_config\": {:.3}, ",
                "\"speedup_match_plus_same_config\": {:.3},\n",
                "     \"gm_substrate\": {{\"gm_fraction\": {:.4}, ",
                "\"speedup_vs_full\": {:.3}}},\n",
                "     \"repetition\": {{\"distinct_overhead_vs_free\": {:.3}}},\n",
                "     \"configs\": [\n{}\n    ]}}"
            ),
            json_escape(dataset.name()),
            w.data.node_count(),
            w.data.edge_count(),
            w.pattern.node_count(),
            w.pattern.diameter(),
            headline,
            speedup_basic,
            speedup_plus,
            gm_frac,
            gm_speedup,
            repetition_overhead,
            config_json.join(",\n")
        ));
    }

    // Cascade stress: a self-loop pattern over a long path forces the refinement to strip
    // the candidate set one layer per pass, the worst case the worklist engine exists for.
    // `Match+` computes the (empty) global dual-simulation relation and skips every ball,
    // so this row isolates the refinement algorithms.
    {
        let n = 4000u32;
        let pattern =
            ssim_graph::Pattern::from_edges(vec![ssim_graph::Label(0)], &[(0, 0)]).unwrap();
        let chain = ssim_graph::Graph::from_edges(
            vec![ssim_graph::Label(0); n as usize],
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
        .unwrap();
        let seed_cfg = MatchConfig {
            minimize_query: true,
            dual_filter: true,
            connectivity_pruning: true,
            ..MatchConfig::seed_reference()
        };
        let engine_cfg = MatchConfig::optimized();
        let mut timed = time_configs(&pattern, &chain, &[&seed_cfg, &engine_cfg], runs);
        let (engine_secs, engine_out) = timed.pop().expect("engine timing");
        let (seed_secs, seed_out) = timed.pop().expect("seed timing");
        assert_eq!(seed_out.subgraphs.len(), engine_out.subgraphs.len());
        // Unlike the dataset rows' cross-config headline, this is a *same-config*
        // comparison (Match+ on both engines), isolating the refinement algorithm.
        let cascade_speedup = seed_secs / engine_secs;
        eprintln!(
            "cascade chain n={n}: seed {:.3} ms, engine {:.3} ms — {cascade_speedup:.1}x (same-config Match+)",
            seed_secs * 1e3,
            engine_secs * 1e3
        );
        dataset_blobs.push(format!(
            concat!(
                "    {{\"dataset\": \"cascade-chain\", \"nodes\": {}, \"edges\": {}, ",
                "\"pattern_nodes\": 1, \"pattern_diameter\": 0,\n",
                "     \"speedup_match_plus_same_config\": {:.3},\n",
                "     \"configs\": [\n",
                "      {{\"name\": \"seed/match_plus\", \"seconds_per_run\": {:.6}}},\n",
                "      {{\"name\": \"engine/match_plus\", \"seconds_per_run\": {:.6}}}\n",
                "    ]}}"
            ),
            n,
            n - 1,
            cascade_speedup,
            seed_secs,
            engine_secs
        ));
    }

    // High-overlap workloads: adjacent centers share most of their balls. Each row times
    // the fast engine's plain `Match`, its thread scaling and the distributed runtime's
    // idle supervision overhead.
    for (name, data, pattern) in [overlap_chain(), overlap_cluster()] {
        let mut timed = time_configs(&pattern, &data, &[&MatchConfig::basic()], runs);
        let (match_secs, match_out) = timed.pop().expect("engine timing");
        // Balls/sec scaling curve: the same plain config at explicit worker counts
        // 1/2/4/8 through the work-stealing chunk scheduler. `measured_cores` records
        // the physical parallelism behind the numbers (ignoring the SSIM_THREADS
        // override): on a single-core box the curve is flat-to-falling and only the
        // 1-thread point is meaningful; re-run on a multi-core box to commit real
        // speedups.
        let measured_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let scaling_threads = [1usize, 2, 4, 8];
        let thread_cfgs: Vec<MatchConfig> = scaling_threads
            .iter()
            .map(|&t| MatchConfig::basic().with_thread_limit(t))
            .collect();
        let cfg_refs: Vec<&MatchConfig> = thread_cfgs.iter().collect();
        let scaled = time_configs(&pattern, &data, &cfg_refs, runs);
        for (_, out) in &scaled {
            assert_eq!(
                out.subgraphs.len(),
                match_out.subgraphs.len(),
                "thread count changed the output"
            );
        }
        let scaling_points: Vec<String> = scaled
            .iter()
            .zip(scaling_threads)
            .map(|((secs, out), t)| {
                format!(
                    concat!(
                        "{{\"threads\": {}, \"seconds_per_run\": {:.6}, ",
                        "\"balls_per_sec\": {:.1}, \"chunks\": {}, ",
                        "\"chunks_stolen\": {}, \"chunks_split\": {}}}"
                    ),
                    t,
                    secs,
                    out.stats.balls_processed as f64 / secs,
                    out.stats.chunks_processed,
                    out.stats.chunks_stolen,
                    out.stats.chunks_split
                )
            })
            .collect();
        let speedup_2t = scaled[0].0 / scaled[1].0;
        let speedup_4t = scaled[0].0 / scaled[2].0;
        let speedup_8t = scaled[0].0 / scaled[3].0;
        eprintln!(
            "{name} scaling (cores={measured_cores}): 1t {:.3} ms, 2t {:.3} ms ({speedup_2t:.2}x), 4t {:.3} ms ({speedup_4t:.2}x), 8t {:.3} ms ({speedup_8t:.2}x)",
            scaled[0].0 * 1e3,
            scaled[1].0 * 1e3,
            scaled[2].0 * 1e3,
            scaled[3].0 * 1e3
        );
        eprintln!(
            "{name} |V|={}: Match {:.3} ms",
            data.node_count(),
            match_secs * 1e3
        );
        // Fault-tolerance pricing: the supervised distributed runtime (recovery
        // configured, nothing scripted) against the fast fan-out (recovery disabled)
        // on the same row. Supervision must be close to free when no faults fire;
        // bench-smoke gates `overhead` at 1.05.
        let fast_dist = DistributedConfig {
            sites: 4,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let supervised_dist = DistributedConfig {
            recovery: Some(RecoveryPolicy::default()),
            ..fast_dist
        };
        let fast_out = distributed_strong_simulation(&pattern, &data, &fast_dist)
            .expect("valid distributed config");
        let supervised_out = distributed_strong_simulation(&pattern, &data, &supervised_dist)
            .expect("valid distributed config");
        assert_eq!(
            fast_out.subgraphs, supervised_out.subgraphs,
            "idle supervision changed the distributed output"
        );
        let mut fast_dist_times = Vec::with_capacity(runs);
        let mut supervised_dist_times = Vec::with_capacity(runs);
        for _ in 0..runs {
            let t = Instant::now();
            let out = distributed_strong_simulation(&pattern, &data, &fast_dist)
                .expect("valid distributed config");
            fast_dist_times.push(t.elapsed().as_secs_f64());
            assert_eq!(out.subgraphs.len(), fast_out.subgraphs.len());
            let t = Instant::now();
            let out = distributed_strong_simulation(&pattern, &data, &supervised_dist)
                .expect("valid distributed config");
            supervised_dist_times.push(t.elapsed().as_secs_f64());
            assert_eq!(out.subgraphs.len(), fast_out.subgraphs.len());
        }
        fast_dist_times.sort_by(f64::total_cmp);
        supervised_dist_times.sort_by(f64::total_cmp);
        let fast_dist_secs = fast_dist_times[fast_dist_times.len() / 2];
        let supervised_dist_secs = supervised_dist_times[supervised_dist_times.len() / 2];
        let fault_overhead = supervised_dist_secs / fast_dist_secs;
        eprintln!(
            "{name} fault tolerance: fast fan-out {:.3} ms, idle supervision {:.3} ms ({fault_overhead:.3}x)",
            fast_dist_secs * 1e3,
            supervised_dist_secs * 1e3
        );
        dataset_blobs.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, ",
                "\"pattern_nodes\": {}, \"pattern_diameter\": {},\n",
                "     \"fault_overhead\": {{\"fast_secs\": {:.6}, ",
                "\"supervised_secs\": {:.6}, \"overhead\": {:.4}}},\n",
                "     \"scaling\": {{\"measured_cores\": {}, \"speedup_2t\": {:.3}, ",
                "\"speedup_4t\": {:.3}, \"speedup_8t\": {:.3},\n",
                "      \"points\": [{}]}},\n",
                "     \"configs\": [\n",
                "      {{\"name\": \"engine/match\", \"seconds_per_run\": {:.6}, ",
                "\"balls_built\": {}, \"seeded_pairs\": {}}}\n",
                "    ]}}"
            ),
            json_escape(name),
            data.node_count(),
            data.edge_count(),
            pattern.node_count(),
            pattern.diameter(),
            fast_dist_secs,
            supervised_dist_secs,
            fault_overhead,
            measured_cores,
            speedup_2t,
            speedup_4t,
            speedup_8t,
            scaling_points.join(", "),
            match_secs,
            match_out.stats.balls_built,
            match_out.stats.seeded_pairs
        ));
    }

    // Selective workload: a sparse matchable chain (every `stride`-th node, linked to
    // the next matchable node) woven through a thick unmatchable mesh. The global dual
    // filter keeps only the chain, so `Gm` holds under 10 % of |V| — and the Gm-substrate
    // balls are chain-sized while full-graph balls pay the mesh degree. Ball membership
    // is identical on both substrates here (consecutive matchable nodes are directly
    // linked, so Gm distances equal data-graph distances) and the bench asserts the
    // outputs agree bit for bit.
    {
        let (data, pattern) = ssim_datasets::synthetic::selective_labels(6000, 12, 4);
        let gm_cfg = MatchConfig::optimized();
        let full_cfg = MatchConfig::optimized().with_ball_substrate(BallSubstrate::FullGraph);
        let mut timed = time_configs(&pattern, &data, &[&gm_cfg, &full_cfg], runs);
        let (full_secs, full_out) = timed.pop().expect("full-substrate timing");
        let (gm_secs, gm_out) = timed.pop().expect("gm-substrate timing");
        assert_eq!(gm_out.subgraphs.len(), full_out.subgraphs.len());
        for (a, b) in gm_out.subgraphs.iter().zip(&full_out.subgraphs) {
            assert_eq!(
                a.center, b.center,
                "substrates diverged on selective-labels"
            );
            assert_eq!(a.nodes, b.nodes, "substrates diverged on selective-labels");
        }
        let speedup = full_secs / gm_secs;
        let fraction = gm_fraction(gm_out.stats.gm_nodes, data.node_count());
        eprintln!(
            "selective-labels |V|={}: full {:.3} ms, gm {:.3} ms — gm substrate {speedup:.2}x (Gm holds {:.1}% of |V|, {} subgraphs)",
            data.node_count(),
            full_secs * 1e3,
            gm_secs * 1e3,
            fraction * 100.0,
            gm_out.subgraphs.len()
        );
        dataset_blobs.push(format!(
            concat!(
                "    {{\"dataset\": \"selective-labels\", \"nodes\": {}, \"edges\": {}, ",
                "\"pattern_nodes\": {}, \"pattern_diameter\": {},\n",
                "     \"gm_substrate\": {{\"gm_fraction\": {:.4}, ",
                "\"speedup_vs_full\": {:.3}}},\n",
                "     \"configs\": [\n",
                "      {{\"name\": \"engine/match_plus\", \"seconds_per_run\": {:.6}, ",
                "\"gm_nodes\": {}, \"gm_edges\": {}, ",
                "\"balls_built\": {}, \"subgraphs\": {}}},\n",
                "      {{\"name\": \"engine/match_plus_fullballs\", \"seconds_per_run\": {:.6}, ",
                "\"balls_built\": {}, \"subgraphs\": {}}}\n",
                "    ]}}"
            ),
            data.node_count(),
            data.edge_count(),
            pattern.node_count(),
            pattern.diameter(),
            fraction,
            speedup,
            gm_secs,
            gm_out.stats.gm_nodes,
            gm_out.stats.gm_edges,
            gm_out.stats.balls_built,
            gm_out.subgraphs.len(),
            full_secs,
            full_out.stats.balls_built,
            full_out.subgraphs.len()
        ));
    }

    // Repetition semantics: the repetition oracle axis on its worst-case-friendly corpus.
    // `Free` is the axis-less baseline; `Distinct`/`Equal` pay the per-ball witness
    // closure (integrated path), and the naive per-ball oracle bounds the closure's
    // engine integration win. On label-distinct rows the axis is a gated no-op — the
    // overhead ratios here are the price on the one workload shape that actually pays.
    {
        let (name, data, pattern) = repeated_labels();
        let free_cfg = MatchConfig::basic();
        let distinct_cfg = MatchConfig::basic().with_repetition(RepetitionSemantics::Distinct);
        let equal_cfg = MatchConfig::basic().with_repetition(RepetitionSemantics::Equal);
        let naive_cfg = MatchConfig::basic()
            .with_repetition(RepetitionSemantics::Distinct)
            .with_repetition_mode(RepetitionMode::NaiveOracle);
        let mut timed = time_configs(
            &pattern,
            &data,
            &[&free_cfg, &distinct_cfg, &equal_cfg, &naive_cfg],
            runs,
        );
        let (naive_secs, naive_out) = timed.pop().expect("naive timing");
        let (equal_secs, equal_out) = timed.pop().expect("equal timing");
        let (distinct_secs, distinct_out) = timed.pop().expect("distinct timing");
        let (free_secs, free_out) = timed.pop().expect("free timing");
        assert_eq!(
            distinct_out.subgraphs, naive_out.subgraphs,
            "integrated and naive repetition paths diverged"
        );
        assert_eq!(
            distinct_out.stats.repetition_bailed_balls, 0,
            "repeated-labels corpus must stay within the witness budget"
        );
        assert!(
            distinct_out.stats.repetition_filtered_pairs > 0
                || distinct_out.subgraphs == free_out.subgraphs,
            "closure ran but neither filtered nor matched"
        );
        let distinct_overhead = distinct_secs / free_secs;
        let equal_overhead = equal_secs / free_secs;
        let naive_vs_integrated = naive_secs / distinct_secs;
        eprintln!(
            "{name} |V|={}: free {:.3} ms, distinct {:.3} ms ({distinct_overhead:.2}x), equal {:.3} ms ({equal_overhead:.2}x), naive oracle {naive_vs_integrated:.2}x vs integrated ({} filtered pairs, {} subgraphs)",
            data.node_count(),
            free_secs * 1e3,
            distinct_secs * 1e3,
            equal_secs * 1e3,
            distinct_out.stats.repetition_filtered_pairs,
            distinct_out.subgraphs.len()
        );
        dataset_blobs.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, ",
                "\"pattern_nodes\": {}, \"pattern_diameter\": {},\n",
                "     \"repetition\": {{\"distinct_overhead_vs_free\": {:.3}, ",
                "\"equal_overhead_vs_free\": {:.3}, ",
                "\"naive_vs_integrated\": {:.3},\n",
                "      \"filtered_pairs_distinct\": {}, \"filtered_pairs_equal\": {}, ",
                "\"bailed_balls\": {}}},\n",
                "     \"configs\": [\n",
                "      {{\"name\": \"engine/match_free\", \"seconds_per_run\": {:.6}, ",
                "\"subgraphs\": {}}},\n",
                "      {{\"name\": \"engine/match_distinct\", \"seconds_per_run\": {:.6}, ",
                "\"subgraphs\": {}}},\n",
                "      {{\"name\": \"engine/match_equal\", \"seconds_per_run\": {:.6}, ",
                "\"subgraphs\": {}}},\n",
                "      {{\"name\": \"engine/match_distinct_naive\", \"seconds_per_run\": {:.6}, ",
                "\"subgraphs\": {}}}\n",
                "    ]}}"
            ),
            json_escape(name),
            data.node_count(),
            data.edge_count(),
            pattern.node_count(),
            pattern.diameter(),
            distinct_overhead,
            equal_overhead,
            naive_vs_integrated,
            distinct_out.stats.repetition_filtered_pairs,
            equal_out.stats.repetition_filtered_pairs,
            distinct_out.stats.repetition_bailed_balls,
            free_secs,
            free_out.subgraphs.len(),
            distinct_secs,
            distinct_out.subgraphs.len(),
            equal_secs,
            equal_out.subgraphs.len(),
            naive_secs,
            naive_out.subgraphs.len()
        ));
    }

    // Update streams: a matching session absorbs batches of edge churn (1 % / 5 % of
    // |E|, alternately deleted and re-inserted so the graph oscillates). The
    // `UpdatePlan::Incremental` session maintains the global relation and re-runs only
    // the dirty balls (Prop. 3 locality); the `UpdatePlan::Recompute` oracle re-runs
    // the full matcher per batch. The `incremental_update` blob records the dirty-ball
    // fraction and the speedup — the continuously-serving engine's headline numbers.
    {
        let updates = 6usize;
        let (_, oc_data, oc_pattern) = overlap_chain();
        let (sl_data, sl_pattern) = ssim_datasets::synthetic::selective_labels(6000, 12, 4);
        let update_rows: [(&str, &ssim_graph::Graph, &ssim_graph::Pattern, MatchConfig); 2] = [
            (
                "update-overlap-chain",
                &oc_data,
                &oc_pattern,
                MatchConfig::basic(),
            ),
            (
                "update-selective-labels",
                &sl_data,
                &sl_pattern,
                MatchConfig::optimized(),
            ),
        ];
        for (name, data, pattern, config) in update_rows {
            for (suffix, churn) in [("1pct", 0.01f64), ("5pct", 0.05f64)] {
                let churn_edges = ((data.edge_count() as f64 * churn).ceil() as usize).max(1);
                let stream = delta_stream(data, churn_edges, updates, 0x5eed_0001);
                // Correctness gate + warm-up: both plans step-locked once.
                {
                    let mut inc = IncrementalMatcher::new(
                        pattern,
                        data.clone(),
                        config.with_update_plan(UpdatePlan::Incremental),
                    );
                    let mut rec = IncrementalMatcher::new(
                        pattern,
                        data.clone(),
                        config.with_update_plan(UpdatePlan::Recompute),
                    );
                    for delta in &stream {
                        inc.apply(delta).expect("stream validates");
                        rec.apply(delta).expect("stream validates");
                        assert_eq!(
                            inc.output().subgraphs,
                            rec.output().subgraphs,
                            "update plans diverged"
                        );
                    }
                }
                let stream_runs = 5usize;
                let mut inc_times = Vec::with_capacity(stream_runs);
                let mut rec_times = Vec::with_capacity(stream_runs);
                let mut dirty_fraction = 0.0f64;
                for _ in 0..stream_runs {
                    let (secs, fraction) = time_update_stream(
                        pattern,
                        data,
                        &config,
                        UpdatePlan::Incremental,
                        &stream,
                    );
                    inc_times.push(secs);
                    dirty_fraction = fraction; // deterministic, identical every run
                    let (secs, _) =
                        time_update_stream(pattern, data, &config, UpdatePlan::Recompute, &stream);
                    rec_times.push(secs);
                }
                inc_times.sort_by(f64::total_cmp);
                rec_times.sort_by(f64::total_cmp);
                let inc_secs = inc_times[inc_times.len() / 2];
                let rec_secs = rec_times[rec_times.len() / 2];
                let speedup = rec_secs / inc_secs;
                // Substrate cost alone: overlay patch staging vs flat CSR rebuild.
                let overlay = overlay_apply_stats(data, &stream, 5);
                eprintln!(
                    "{name}-{suffix} |V|={}: churn {churn_edges} edges x {updates} updates — recompute {:.3} ms, incremental {:.3} ms, {speedup:.2}x (dirty fraction {:.3})",
                    data.node_count(),
                    rec_secs * 1e3,
                    inc_secs * 1e3,
                    dirty_fraction
                );
                eprintln!(
                    "  overlay apply: {:.1} us/delta vs {:.1} us rebuild — {:.1}x ({} compactions, overlay fraction {:.4})",
                    overlay.apply_us_per_delta,
                    overlay.rebuild_us_per_delta,
                    overlay.ratio,
                    overlay.compactions,
                    overlay.overlay_fraction
                );
                dataset_blobs.push(format!(
                    concat!(
                        "    {{\"dataset\": \"{}-{}\", \"nodes\": {}, \"edges\": {}, ",
                        "\"pattern_nodes\": {}, \"pattern_diameter\": {},\n",
                        "     \"incremental_update\": {{\"churn\": {:.4}, \"churn_edges\": {}, ",
                        "\"updates\": {}, \"dirty_ball_fraction\": {:.4}, ",
                        "\"speedup_vs_recompute\": {:.3}}},\n",
                        "     \"overlay_apply\": {{\"apply_us_per_delta\": {:.3}, ",
                        "\"rebuild_us_per_delta\": {:.3}, \"ratio\": {:.3}, ",
                        "\"compactions\": {}, \"overlay_fraction\": {:.4}}},\n",
                        "     \"configs\": [\n",
                        "      {{\"name\": \"engine/update_incremental\", \"seconds_per_stream\": {:.6}}},\n",
                        "      {{\"name\": \"engine/update_recompute\", \"seconds_per_stream\": {:.6}}}\n",
                        "    ]}}"
                    ),
                    json_escape(name),
                    suffix,
                    data.node_count(),
                    data.edge_count(),
                    pattern.node_count(),
                    pattern.diameter(),
                    churn,
                    churn_edges,
                    updates,
                    dirty_fraction,
                    speedup,
                    overlay.apply_us_per_delta,
                    overlay.rebuild_us_per_delta,
                    overlay.ratio,
                    overlay.compactions,
                    overlay.overlay_fraction,
                    inc_secs,
                    rec_secs
                ));
                // Batched variant at the heavy churn level: the stream folds into
                // three-delta net batches, so the incremental session pays one
                // maintenance pass per batch instead of one per delta.
                if suffix == "5pct" {
                    let batch = 3usize;
                    // Correctness gate: batched plans step-locked once.
                    {
                        let mut inc = IncrementalMatcher::new(
                            pattern,
                            data.clone(),
                            config.with_update_plan(UpdatePlan::Incremental),
                        );
                        let mut rec = IncrementalMatcher::new(
                            pattern,
                            data.clone(),
                            config.with_update_plan(UpdatePlan::Recompute),
                        );
                        for chunk in stream.chunks(batch) {
                            inc.apply_batch(chunk).expect("stream validates");
                            rec.apply_batch(chunk).expect("stream validates");
                            assert_eq!(
                                inc.output().subgraphs,
                                rec.output().subgraphs,
                                "batched update plans diverged"
                            );
                        }
                    }
                    let mut inc_times = Vec::with_capacity(stream_runs);
                    let mut rec_times = Vec::with_capacity(stream_runs);
                    for _ in 0..stream_runs {
                        inc_times.push(time_update_stream_batched(
                            pattern,
                            data,
                            &config,
                            UpdatePlan::Incremental,
                            &stream,
                            batch,
                        ));
                        rec_times.push(time_update_stream_batched(
                            pattern,
                            data,
                            &config,
                            UpdatePlan::Recompute,
                            &stream,
                            batch,
                        ));
                    }
                    inc_times.sort_by(f64::total_cmp);
                    rec_times.sort_by(f64::total_cmp);
                    let inc_secs = inc_times[inc_times.len() / 2];
                    let rec_secs = rec_times[rec_times.len() / 2];
                    let batched_speedup = rec_secs / inc_secs;
                    eprintln!(
                        "{name}-batched |V|={}: churn {churn_edges} edges x {updates} updates in batches of {batch} — recompute {:.3} ms, incremental {:.3} ms, {batched_speedup:.2}x",
                        data.node_count(),
                        rec_secs * 1e3,
                        inc_secs * 1e3
                    );
                    dataset_blobs.push(format!(
                        concat!(
                            "    {{\"dataset\": \"{}-batched\", \"nodes\": {}, \"edges\": {}, ",
                            "\"pattern_nodes\": {}, \"pattern_diameter\": {},\n",
                            "     \"incremental_update\": {{\"churn\": {:.4}, \"churn_edges\": {}, ",
                            "\"updates\": {}, \"batch\": {}, ",
                            "\"speedup_vs_recompute\": {:.3}}},\n",
                            "     \"configs\": [\n",
                            "      {{\"name\": \"engine/update_incremental_batched\", \"seconds_per_stream\": {:.6}}},\n",
                            "      {{\"name\": \"engine/update_recompute_batched\", \"seconds_per_stream\": {:.6}}}\n",
                            "    ]}}"
                        ),
                        json_escape(name),
                        data.node_count(),
                        data.edge_count(),
                        pattern.node_count(),
                        pattern.diameter(),
                        churn,
                        churn_edges,
                        updates,
                        batch,
                        batched_speedup,
                        inc_secs,
                        rec_secs
                    ));
                }
            }
        }
    }

    // ── Standing queries: shared-substrate service vs independent sessions ──────
    // Six overlapping-label-signature patterns stand over one mutating chain. The
    // service applies each delta once — one edge-ball sweep pair, one shared dirty-
    // region extraction fanned out to all six patterns — where the independent
    // baseline runs six private `IncrementalMatcher` sessions, each paying its own
    // substrate, sweeps and extraction. The `standing_query` blob records
    // patterns×updates/sec and the shared-over-independent ratio (CI gates ≥ 1.2×).
    {
        use ssim_core::service::QueryService;
        use ssim_experiments::workloads::standing_query_workload;

        let (data, patterns) = standing_query_workload(3000);
        let config = MatchConfig::basic();
        let updates = 6usize;
        let churn_edges = ((data.edge_count() as f64 * 0.005).ceil() as usize).max(1);
        let stream = delta_stream(&data, churn_edges, updates, 0x5eed_0002);

        // Correctness gate + warm-up: the service must track the independent sessions
        // bit for bit through the whole stream before anything is timed.
        {
            let mut service = QueryService::new(data.clone());
            let ids: Vec<_> = patterns
                .iter()
                .map(|q| service.register(q, config))
                .collect();
            let mut sessions: Vec<IncrementalMatcher> = patterns
                .iter()
                .map(|q| IncrementalMatcher::new(q, data.clone(), config))
                .collect();
            for delta in &stream {
                service.apply(delta).expect("stream validates");
                for (id, session) in ids.iter().zip(sessions.iter_mut()) {
                    session.apply(delta).expect("stream validates");
                    // `chunks_stolen` is the one scheduling-dependent counter.
                    let unstolen = |out: &MatchOutput| {
                        let mut out = out.clone();
                        out.stats.chunks_stolen = 0;
                        out
                    };
                    assert_eq!(
                        unstolen(service.output(*id).unwrap()),
                        unstolen(session.output()),
                        "service diverged from its independent session"
                    );
                }
            }
        }

        // Construction is untimed on both sides — standing queries register once and
        // live for many updates; the applies are the serving cost.
        let stream_runs = 5usize;
        let mut shared_times = Vec::with_capacity(stream_runs);
        let mut independent_times = Vec::with_capacity(stream_runs);
        let mut sweep_radii = 0usize;
        let mut sweep_consumers = 0usize;
        let mut substrate_builds = 0usize;
        let mut substrate_reuses = 0usize;
        for _ in 0..stream_runs {
            let mut service = QueryService::new(data.clone());
            for q in &patterns {
                service.register(q, config);
            }
            let start = Instant::now();
            for delta in &stream {
                let update = service.apply(delta).expect("stream validates");
                sweep_radii = update.sharing.edge_sweep_radii;
                sweep_consumers = update.sharing.edge_sweep_consumers;
                substrate_builds = update.sharing.substrate_builds;
                substrate_reuses = update.sharing.substrate_reuses;
            }
            shared_times.push(start.elapsed().as_secs_f64());

            let mut sessions: Vec<IncrementalMatcher> = patterns
                .iter()
                .map(|q| IncrementalMatcher::new(q, data.clone(), config))
                .collect();
            let start = Instant::now();
            for delta in &stream {
                for session in sessions.iter_mut() {
                    session.apply(delta).expect("stream validates");
                }
            }
            independent_times.push(start.elapsed().as_secs_f64());
        }
        shared_times.sort_by(f64::total_cmp);
        independent_times.sort_by(f64::total_cmp);
        let shared_secs = shared_times[shared_times.len() / 2];
        let independent_secs = independent_times[independent_times.len() / 2];
        let ratio = independent_secs / shared_secs;
        let pattern_updates_per_sec = (patterns.len() * updates) as f64 / shared_secs;
        eprintln!(
            "standing-query |V|={}: {} patterns x {updates} updates — independent {:.3} ms, shared {:.3} ms, {ratio:.2}x ({pattern_updates_per_sec:.0} pattern-updates/s; sweeps {sweep_radii} radius for {sweep_consumers} consumers, cache {substrate_reuses} reuses / {substrate_builds} builds)",
            data.node_count(),
            patterns.len(),
            independent_secs * 1e3,
            shared_secs * 1e3
        );
        dataset_blobs.push(format!(
            concat!(
                "    {{\"dataset\": \"standing-query-chain\", \"nodes\": {}, \"edges\": {}, ",
                "\"pattern_nodes\": 3, \"pattern_diameter\": 2,\n",
                "     \"standing_query\": {{\"patterns\": {}, \"updates\": {}, ",
                "\"churn_edges\": {}, \"pattern_updates_per_sec\": {:.1}, ",
                "\"shared_over_independent\": {:.3}, \"edge_sweep_radii\": {}, ",
                "\"edge_sweep_consumers\": {}, \"substrate_reuses\": {}, ",
                "\"substrate_builds\": {}}},\n",
                "     \"configs\": [\n",
                "      {{\"name\": \"service/standing_query_shared\", \"seconds_per_stream\": {:.6}}},\n",
                "      {{\"name\": \"service/standing_query_independent\", \"seconds_per_stream\": {:.6}}}\n",
                "    ]}}"
            ),
            data.node_count(),
            data.edge_count(),
            patterns.len(),
            updates,
            churn_edges,
            pattern_updates_per_sec,
            ratio,
            sweep_radii,
            sweep_consumers,
            substrate_reuses,
            substrate_builds,
            shared_secs,
            independent_secs
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"match_engine\",\n  \"bench_nodes\": {},\n",
            "  \"bench_pattern_nodes\": {},\n  \"runs_per_config\": {},\n",
            "  \"threads\": {},\n  \"datasets\": [\n{}\n  ]\n}}\n"
        ),
        BENCH_NODES,
        BENCH_PATTERN_NODES,
        runs,
        threads,
        dataset_blobs.join(",\n")
    );

    // Emit at the workspace root: crates/bench/../../BENCH_match.json.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_match.json");
    std::fs::write(&path, &json).expect("write BENCH_match.json");
    eprintln!("wrote {}", path.display());
}
