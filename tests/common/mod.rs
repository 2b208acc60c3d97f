//! Shared generators, assertion helpers and the three-axis oracle-matrix driver for the
//! workspace equivalence suites.
//!
//! Every `tests/*_equivalence.rs` suite used to carry its own copy of the edge-soup
//! data-graph strategy, the connected-pattern strategy and the raw-word delta builder;
//! they live here once now, parameterised where the suites' ranges differed. The matrix
//! driver below is the repetition axis's differential harness: it decodes a *random
//! point* of the full oracle matrix (`RefineStrategy` × `BallSubstrate` ×
//! `RepetitionSemantics`) from raw generator words and pits the integrated repetition
//! path against the naive per-ball oracle at that point — sequential, parallel and
//! distributed, one-shot and maintained by a `QueryService`, before and after a
//! `GraphDelta`.

// Each integration test compiles this module separately and uses its own subset.
#![allow(dead_code)]

use proptest::prelude::*;
use ssim_core::match_graph::PerfectSubgraph;
use ssim_core::minimize::minimize_pattern;
use ssim_core::service::QueryService;
use ssim_core::strong::{strong_simulation, MatchConfig, MatchOutput};
use ssim_core::{BallSubstrate, RefineStrategy, RepetitionMode, RepetitionSemantics};
use ssim_datasets::patterns::{random_pattern, PatternGenConfig};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, DistributedQueryService, PartitionStrategy,
    Partitioned,
};
use ssim_graph::{Graph, GraphDelta, Label, NodeId, Pattern};

/// Strategy: a random data graph with `n ∈ [3, max_nodes)` nodes, up to `3n` random
/// edges and labels drawn from a `labels`-symbol alphabet — the edge-soup generator
/// shared by every equivalence suite.
pub fn data_graph_sized(max_nodes: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (3usize..max_nodes).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u32..labels, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..(3 * n));
        (labels, edges).prop_map(|(labels, edges)| {
            Graph::from_edges(labels.into_iter().map(Label).collect(), &edges)
                .expect("endpoints are in range by construction")
        })
    })
}

/// The suites' default data-graph strategy: `n ∈ [3, 24)` over a 4-symbol alphabet.
pub fn data_graph() -> impl Strategy<Value = Graph> {
    data_graph_sized(24, 4)
}

/// Strategy: a random connected pattern with `2..max_nodes` nodes over a
/// `labels`-symbol alphabet.
pub fn pattern_sized(max_nodes: usize, labels: usize) -> impl Strategy<Value = Pattern> {
    (2usize..max_nodes, any::<u64>(), 1.05f64..1.4).prop_map(move |(nodes, seed, alpha)| {
        random_pattern(&PatternGenConfig {
            nodes,
            alpha,
            labels,
            seed,
        })
    })
}

/// The suites' default pattern strategy: 2–5 nodes over a 4-symbol alphabet. Small
/// alphabet + small patterns make repeated labels frequent, which is exactly what the
/// repetition axis needs exercised.
pub fn pattern() -> impl Strategy<Value = Pattern> {
    pattern_sized(6, 4)
}

/// Size of the [`skewed_graph`] alphabet.
pub const SKEWED_LABELS: u32 = 10;

/// Maps a uniform draw in `[0, 1)` to a label of a Zipf(1) distribution over
/// [`SKEWED_LABELS`] symbols: label `k` has weight `1 / (k + 1)`, so label 0 covers about
/// a third of the nodes and label 9 about 3 %.
fn zipf_label(draw: f64) -> Label {
    let total: f64 = (1..=SKEWED_LABELS).map(|k| 1.0 / f64::from(k)).sum();
    let mut cumulative = 0.0;
    for k in 0..SKEWED_LABELS {
        cumulative += 1.0 / f64::from(k + 1) / total;
        if draw < cumulative {
            return Label(k);
        }
    }
    Label(SKEWED_LABELS - 1)
}

/// Strategy: a sparse random data graph with `n ∈ [3, 96)` nodes, up to `2n` random edges
/// and Zipf-skewed labels ([`zipf_label`]). Rare labels make small label classes, so a
/// start seeded from pattern neighbourhoods is much smaller than the label classes.
pub fn skewed_graph() -> impl Strategy<Value = Graph> {
    (3usize..96).prop_flat_map(|n| {
        let draws = proptest::collection::vec(0.0f64..1.0, n);
        let edges = proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..(2 * n));
        (draws, edges).prop_map(|(draws, edges)| {
            Graph::from_edges(draws.into_iter().map(zipf_label).collect(), &edges)
                .expect("endpoints are in range by construction")
        })
    })
}

/// Carves a connected pattern of at most `size` nodes out of `graph`: the first `size`
/// nodes of an undirected BFS from `start`, with every edge among them and their data
/// labels. The carved pattern always dual-simulates into `graph`.
pub fn carved_pattern(graph: &Graph, start: NodeId, size: usize) -> Pattern {
    let mut order = vec![start];
    let mut next = 0;
    while next < order.len() && order.len() < size {
        let v = order[next];
        next += 1;
        for w in graph.out_neighbors(v).chain(graph.in_neighbors(v)) {
            if order.len() < size && !order.contains(&w) {
                order.push(w);
            }
        }
    }
    let position = |v: NodeId| order.iter().position(|&x| x == v);
    let labels: Vec<Label> = order.iter().map(|&v| graph.label(v)).collect();
    let edges: Vec<(u32, u32)> = graph
        .edges()
        .filter_map(|(a, b)| Some((position(a)? as u32, position(b)? as u32)))
        .collect();
    Pattern::from_edges(labels, &edges).expect("a BFS prefix is connected")
}

/// Strategy: a [`skewed_graph`] with a pattern of 1–6 nodes. Half the patterns are carved
/// out of the graph ([`carved_pattern`]) and so match; the other half are random patterns
/// over the same alphabet, which often name labels the graph lacks.
pub fn skewed_case() -> impl Strategy<Value = (Graph, Pattern)> {
    (skewed_graph(), 1usize..7, any::<u64>()).prop_map(|(graph, size, word)| {
        let pattern = if word & 1 == 0 {
            let start = NodeId(((word >> 1) % graph.node_count() as u64) as u32);
            carved_pattern(&graph, start, size)
        } else {
            random_pattern(&PatternGenConfig {
                nodes: size,
                alpha: 1.2,
                labels: SKEWED_LABELS as usize,
                seed: word >> 1,
            })
        };
        (graph, pattern)
    })
}

/// Builds a valid random delta against `graph` from raw generator words: odd words try
/// to delete an existing edge, even words try to insert an absent one; ops that would
/// conflict with an earlier pick are skipped, so the result always validates.
pub fn random_delta(graph: &Graph, picks: &[u64]) -> GraphDelta {
    let n = graph.node_count() as u64;
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let mut delta = GraphDelta::new();
    let mut mentioned: Vec<(NodeId, NodeId)> = Vec::new();
    for &pick in picks {
        if n == 0 {
            break;
        }
        if pick % 2 == 1 {
            if edges.is_empty() {
                continue;
            }
            let (s, t) = edges[((pick / 2) % edges.len() as u64) as usize];
            if !mentioned.contains(&(s, t)) {
                mentioned.push((s, t));
                delta.delete_edge_labeled(s, t, graph.label(s), graph.label(t));
            }
        } else {
            let v = pick / 2;
            let (s, t) = (NodeId((v % n) as u32), NodeId(((v / n) % n) as u32));
            if !graph.has_edge(s, t) && !mentioned.contains(&(s, t)) {
                mentioned.push((s, t));
                delta.insert_edge(s, t);
            }
        }
    }
    delta
}

/// Asserts two match outputs are bit-identical: identical subgraph sets and identical
/// stats up to `chunks_stolen`, the one counter that depends on steal timing.
pub fn assert_bit_identical(a: &MatchOutput, b: &MatchOutput, context: &str) -> Result<(), String> {
    prop_assert!(
        a.subgraphs.len() == b.subgraphs.len(),
        "{context}: {} vs {} subgraphs",
        a.subgraphs.len(),
        b.subgraphs.len()
    );
    for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
        prop_assert!(x == y, "{context}: subgraph {:?} != {:?}", x, y);
    }
    let mut sa = a.stats.clone();
    let mut sb = b.stats.clone();
    sa.chunks_stolen = 0;
    sb.chunks_stolen = 0;
    prop_assert!(sa == sb, "{context}: stats differ: {sa:?} vs {sb:?}");
    Ok(())
}

/// Decodes one point of the *shape* axes from a raw generator word: `Match` or `Match+`
/// (bit 0), refine strategy (bit 1), ball substrate (bit 2, riding on the dual filter)
/// and thread count (bits 3–4). Bit 5 picks the distributed partition strategy in
/// [`check_matrix_point`]. The repetition axis is supplied by the caller — the matrix
/// driver runs both repetition modes at the decoded point.
pub fn matrix_config(bits: u64) -> MatchConfig {
    let mut config = if bits & 1 == 0 {
        MatchConfig::basic()
    } else {
        MatchConfig::optimized()
    };
    if bits & 2 != 0 {
        config = config.with_refine_strategy(RefineStrategy::NaiveFixpoint);
    }
    if bits & 4 != 0 {
        config = config.with_ball_substrate(BallSubstrate::FullGraph);
    }
    match (bits >> 3) & 3 {
        0 => config.sequential(),
        1 => config.with_thread_limit(2),
        _ => config.with_thread_limit(4),
    }
}

/// Decodes the repetition semantics pole from a raw generator word, biased towards the
/// two non-`Free` poles (the axis under test; `Free` keeps a presence as the
/// no-op/regression pole).
pub fn matrix_semantics(bits: u64) -> RepetitionSemantics {
    match bits % 4 {
        0 => RepetitionSemantics::Free,
        1 | 2 => RepetitionSemantics::Distinct,
        _ => RepetitionSemantics::Equal,
    }
}

/// The repetition axis's differential harness at one sampled matrix point: the integrated
/// repetition path and the naive per-ball oracle must produce bit-identical
/// `MatchOutput`s — one-shot before and after `delta`, and maintained across it by a
/// `QueryService` — and bit-identical distributed subgraph sets. `Free` points double as a regression check
/// (both modes must equal the axis-less output bit for bit).
pub fn check_matrix_point(
    q: &Pattern,
    data: &Graph,
    delta: &GraphDelta,
    shape_bits: u64,
    semantics: RepetitionSemantics,
    sites: usize,
) -> Result<(), String> {
    let base = matrix_config(shape_bits).with_repetition(semantics);
    let integrated = base.with_repetition_mode(RepetitionMode::Integrated);
    let naive = base.with_repetition_mode(RepetitionMode::NaiveOracle);
    let context = format!("shape bits {shape_bits:#b}, {semantics:?}, {sites} sites");

    // One-shot (pre-delta).
    let a = strong_simulation(q, data, &integrated);
    let b = strong_simulation(q, data, &naive);
    assert_bit_identical(&a, &b, &format!("{context}: one-shot"))?;

    // Maintained across the delta by one service per mode.
    let mut sa = QueryService::new(data.clone());
    let ia = sa.register(q, integrated);
    let mut sb = QueryService::new(data.clone());
    let ib = sb.register(q, naive);
    assert_bit_identical(
        sa.output(ia).expect("registered"),
        sb.output(ib).expect("registered"),
        &format!("{context}: maintained pre-delta"),
    )?;
    sa.apply(delta).expect("delta validates");
    sb.apply(delta).expect("delta validates");
    assert_bit_identical(
        sa.output(ia).expect("registered"),
        sb.output(ib).expect("registered"),
        &format!("{context}: maintained post-delta"),
    )?;

    // Recomputed: the one-shot matcher on the updated flat graph.
    let updated = data.apply_delta(delta).expect("delta validates");
    let ra = strong_simulation(q, &updated, &integrated);
    let rb = strong_simulation(q, &updated, &naive);
    assert_bit_identical(&ra, &rb, &format!("{context}: recomputed post-delta"))?;

    // Distributed runtime: identical subgraph sets and traffic (minus steal timing).
    let dist = DistributedConfig {
        sites,
        strategy: if shape_bits & 32 != 0 {
            PartitionStrategy::Hash
        } else {
            PartitionStrategy::Range
        },
        dual_filter: shape_bits & 1 != 0,
        ball_substrate: if shape_bits & 4 != 0 {
            BallSubstrate::FullGraph
        } else {
            BallSubstrate::MatchGraph
        },
        repetition: semantics,
        ..DistributedConfig::default()
    };
    let da = distributed_strong_simulation(q, data, &dist).expect("valid distributed config");
    let db = distributed_strong_simulation(
        q,
        data,
        &DistributedConfig {
            repetition_mode: RepetitionMode::NaiveOracle,
            ..dist
        },
    )
    .expect("valid distributed config");
    prop_assert!(
        da.subgraphs == db.subgraphs,
        "{context}: distributed subgraphs differ"
    );
    let mut ta = da.traffic.clone();
    let mut tb = db.traffic.clone();
    ta.chunks_stolen = 0;
    tb.chunks_stolen = 0;
    prop_assert!(ta == tb, "{context}: distributed traffic differs");

    // Distributed, maintained across the same delta.
    let mut dsa = DistributedQueryService::with_executor(data.clone(), Partitioned);
    let dia = dsa.try_register(q, dist).expect("valid distributed config");
    let mut dsb = DistributedQueryService::with_executor(data.clone(), Partitioned);
    let dib = dsb
        .try_register(
            q,
            DistributedConfig {
                repetition_mode: RepetitionMode::NaiveOracle,
                ..dist
            },
        )
        .expect("valid distributed config");
    dsa.apply(delta).expect("delta validates");
    dsb.apply(delta).expect("delta validates");
    prop_assert!(
        dsa.output(dia).expect("registered").subgraphs
            == dsb.output(dib).expect("registered").subgraphs,
        "{context}: distributed post-delta subgraphs differ"
    );
    Ok(())
}

/// Distributed rows in the form `strong_simulation` reports them: with `minimize_query`
/// the runtime leaves each relation over the minimised pattern's classes, so every
/// class pair expands to one pair per original pattern node of the class.
pub fn expand_classes(
    pattern: &Pattern,
    minimized: bool,
    rows: &[PerfectSubgraph],
) -> Vec<PerfectSubgraph> {
    if !minimized {
        return rows.to_vec();
    }
    let class_of = minimize_pattern(pattern).class_of;
    rows.iter()
        .map(|row| {
            let mut relation: Vec<(NodeId, NodeId)> = row
                .relation
                .iter()
                .flat_map(|&(class, v)| {
                    class_of
                        .iter()
                        .enumerate()
                        .filter(move |&(_, &c)| c == class)
                        .map(move |(u, _)| (NodeId::from_index(u), v))
                })
                .collect();
            relation.sort_unstable();
            PerfectSubgraph {
                relation,
                ..row.clone()
            }
        })
        .collect()
}
