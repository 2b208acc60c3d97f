//! The four workloads: their shapes, sizes and seed-determined inputs.

use crate::gen::{
    extract_patterns, generate_graph, Adjacency, ChurnOp, ChurnStream, GenGraph, GenPattern,
    GraphShape,
};
use crate::rng::SplitMix64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Match+` queries on sparse Amazon-like graphs: `Gm` is tiny, so the global
    /// dual-simulation layer does most of the work.
    OneshotSparse,
    /// `Match+` queries on dense YouTube-like graphs: `Gm` is a few percent of the
    /// graph and its balls are large, so the ball, refinement, warm-start and parallel
    /// layers do most of the work.
    OneshotDense,
    /// Standing queries over an edge-churned graph served by `QueryService`: the only
    /// write path (overlay staging, compaction, incremental maintenance, registration).
    ServeChurn,
    /// The `oneshot-dense` graph and queries through `distributed_strong_simulation`:
    /// partitioning, border-ball shipping and the supervision loop.
    DistributedDense,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::OneshotSparse,
        Workload::OneshotDense,
        Workload::ServeChurn,
        Workload::DistributedDense,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotSparse => "oneshot-sparse",
            Workload::OneshotDense => "oneshot-dense",
            Workload::ServeChurn => "serve-churn",
            Workload::DistributedDense => "distributed-dense",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times a run repeats its set-up to report the median: about 1.5 s of
    /// set-up in all.
    pub fn setup_reps(self, scale: Scale) -> usize {
        match (scale, self) {
            (Scale::Smoke, _) => 2,
            (Scale::Full, Workload::OneshotSparse) => 15,
            (Scale::Full, Workload::ServeChurn) => 25,
            (Scale::Full, Workload::OneshotDense | Workload::DistributedDense) => 40,
        }
    }

    /// Data graphs the workload draws. A one-shot run spreads its queries over several
    /// independently drawn graphs, so that its numbers do not hinge on the shape of one.
    pub fn graphs(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::ServeChurn, _) => 1,
            (_, Scale::Full) => 4,
            (_, Scale::Smoke) => 2,
        }
    }
}

/// Input size: `Full` is the benchmark, `Smoke` a seconds-long run of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small graphs for the smoke test.
    Smoke,
}

impl Scale {
    /// Looks a scale up by name.
    pub fn from_name(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// Pattern sizes `|Vq|` of the one-shot queries, cycled in order.
pub const QUERY_SIZES: [usize; 4] = [4, 6, 8, 10];
/// Pattern sizes of the `serve-churn` queries, cycled in order.
pub const SERVE_SIZES: [usize; 4] = [3, 4, 5, 6];
/// Standing queries registered at `serve-churn` set-up.
pub const STANDING_QUERIES: usize = 8;
/// Distinct ad-hoc patterns the `serve-churn` registrations cycle through.
pub const ADHOC_QUERIES: usize = 256;
/// Operations of the short update stream a traced one-shot run serves after its
/// queries, so that every layer does some work on every workload.
pub const TRACE_UPDATE_OPS: usize = 20;
/// One-shot queries standing in the service during that stream.
pub const TRACE_STANDING: usize = 2;
/// Consecutive one-shot queries on the same graph. Queries rotate over the graphs in
/// blocks of this many, so a graph stays warm in cache from one query to the next and
/// every run covers every graph alike.
pub const QUERY_BLOCK: usize = 10;

const GRAPH_STREAM: u64 = 0;
const QUERY_STREAM: u64 = 1;
const CHURN_STREAM: u64 = 2;
const ADHOC_STREAM: u64 = 3;
/// Graph `k` of a workload draws from streams `k * STREAMS_PER_GRAPH + …`, so graph 0
/// draws from the plain streams above.
const STREAMS_PER_GRAPH: u64 = 4;

fn shape(workload: Workload, scale: Scale) -> GraphShape {
    let full = scale == Scale::Full;
    match workload {
        Workload::OneshotSparse => GraphShape {
            nodes: if full { 50_000 } else { 20_000 },
            out_degree: 3.3,
            labels: 200,
            label_skew: 0.8,
            locality: 0.5,
            hub_skew: 0.6,
            communities: 1,
        },
        Workload::OneshotDense | Workload::DistributedDense => GraphShape {
            nodes: if full { 5_000 } else { 800 },
            out_degree: 20.0,
            labels: 20,
            label_skew: 0.6,
            locality: 0.3,
            hub_skew: 0.5,
            communities: if full { 10 } else { 2 },
        },
        Workload::ServeChurn => GraphShape {
            nodes: if full { 50_000 } else { 3_000 },
            out_degree: 3.3,
            labels: 20,
            label_skew: 0.8,
            locality: 0.5,
            hub_skew: 0.6,
            communities: 1,
        },
    }
}

/// Size of the query pool a one-shot run cycles through, over all its graphs. A run
/// of the dense workloads completes fewer ops than this, so every op of its p99 is a
/// distinct pattern: the p99 sits among the run's few dozen costliest patterns, and
/// which patterns those are is what moves it from seed to seed.
fn query_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16_000,
        Scale::Smoke => 40,
    }
}

/// Cap on a pattern's label mass (the data nodes carrying each pattern node's label,
/// summed over the pattern) as a share of `|V|`; patterns above it are drawn again. The
/// caps cut off rare patterns whose cost is far out of line with the rest, so that
/// whether a seed happened to draw one does not set its numbers:
///
/// * `oneshot-sparse`: a pattern made only of the most frequent label (a tenth of the
///   nodes) matches a twentieth of the graph and takes about 100 times the median
///   query;
/// * `serve-churn`: a pattern above the cap can keep a small fixpoint among so many
///   label-compatible pairs that the engine recomputes the fixpoint from scratch on
///   nearly every apply, as long as it stands.
fn max_mass(workload: Workload) -> f64 {
    match workload {
        Workload::OneshotSparse => 0.3,
        Workload::OneshotDense | Workload::DistributedDense => f64::INFINITY,
        Workload::ServeChurn => 0.4,
    }
}

/// Inputs of a one-shot or distributed workload.
pub struct OneShotInputs {
    /// The data graphs as edge-list text.
    pub graphs: Vec<String>,
    /// Query patterns as edge-list text, each with the index of the graph it runs on;
    /// run in order (and cycled when exhausted).
    pub queries: Vec<(usize, String)>,
    /// A short update stream over the first graph, for traced runs: it applies deltas
    /// with that graph's first [`TRACE_STANDING`] queries standing and registers its
    /// next ones.
    pub updates: Vec<ChurnOp>,
}

/// Inputs of the serving workload.
pub struct ChurnInputs {
    /// The initial data graph as edge-list text.
    pub graph: String,
    /// The standing query patterns.
    pub standing: Vec<String>,
    /// The operation stream.
    pub stream: ChurnStream,
}

/// Generated inputs of a workload.
pub enum Inputs {
    /// `oneshot-*` and `distributed-dense`.
    OneShot(OneShotInputs),
    /// `serve-churn`.
    Churn(Box<ChurnInputs>),
}

struct Parts {
    graphs: Vec<GenGraph>,
    /// One-shot queries with the index of their graph, or `serve-churn`'s standing
    /// queries (all on graph 0).
    patterns: Vec<(usize, GenPattern)>,
    /// The update stream over graph 0.
    stream: ChurnStream,
}

fn parts(workload: Workload, scale: Scale, seed: u64) -> Parts {
    let shape = shape(workload, scale);
    let rng = |graph: usize, stream: u64| {
        SplitMix64::stream(seed, graph as u64 * STREAMS_PER_GRAPH + stream)
    };
    let graphs: Vec<GenGraph> = (0..workload.graphs(scale))
        .map(|k| generate_graph(&shape, &mut rng(k, GRAPH_STREAM)))
        .collect();
    let adjacency: Vec<Adjacency> = graphs.iter().map(Adjacency::new).collect();
    let churn = rng(0, CHURN_STREAM);
    match workload {
        Workload::ServeChurn => {
            let standing = extract_patterns(
                &graphs[0],
                &adjacency[0],
                &SERVE_SIZES,
                STANDING_QUERIES,
                max_mass(workload),
                &mut rng(0, QUERY_STREAM),
            );
            let adhoc = extract_patterns(
                &graphs[0],
                &adjacency[0],
                &SERVE_SIZES,
                ADHOC_QUERIES,
                max_mass(workload),
                &mut rng(0, ADHOC_STREAM),
            );
            let stream = ChurnStream::new(&graphs[0], &shape, &standing, adhoc, churn);
            Parts {
                graphs,
                patterns: standing.into_iter().map(|p| (0, p)).collect(),
                stream,
            }
        }
        _ => {
            let per_graph = query_count(scale) / graphs.len();
            let pools: Vec<Vec<GenPattern>> = graphs
                .iter()
                .zip(&adjacency)
                .enumerate()
                .map(|(k, (graph, adj))| {
                    extract_patterns(
                        graph,
                        adj,
                        &QUERY_SIZES,
                        per_graph,
                        max_mass(workload),
                        &mut rng(k, QUERY_STREAM),
                    )
                })
                .collect();
            let first = &pools[0];
            let adhoc = first[TRACE_STANDING..2 * TRACE_STANDING].to_vec();
            let stream =
                ChurnStream::new(&graphs[0], &shape, &first[..TRACE_STANDING], adhoc, churn);
            let mut patterns = Vec::with_capacity(per_graph * graphs.len());
            for round in 0..per_graph.div_ceil(QUERY_BLOCK) {
                for (k, pool) in pools.iter().enumerate() {
                    let block = pool.iter().skip(round * QUERY_BLOCK).take(QUERY_BLOCK);
                    patterns.extend(block.map(|p| (k, p.clone())));
                }
            }
            Parts {
                graphs,
                patterns,
                stream,
            }
        }
    }
}

/// Generates a workload's inputs; the same seed always gives the same inputs.
/// `distributed-dense` gets exactly the `oneshot-dense` inputs of the same seed.
pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let Parts {
        graphs,
        patterns,
        mut stream,
    } = parts(workload, scale, seed);
    match workload {
        Workload::ServeChurn => Inputs::Churn(Box::new(ChurnInputs {
            graph: graphs[0].to_text(),
            standing: patterns.iter().map(|(_, p)| p.to_text()).collect(),
            stream,
        })),
        _ => Inputs::OneShot(OneShotInputs {
            graphs: graphs.iter().map(GenGraph::to_text).collect(),
            queries: patterns.iter().map(|(k, p)| (*k, p.to_text())).collect(),
            updates: (0..TRACE_UPDATE_OPS).map(|_| stream.next_op()).collect(),
        }),
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// A one-line summary of a workload's inputs: the number of graphs, `|V|` and `|E|`
/// summed over them, hashes of their label histograms and edge lists, the first two
/// patterns and the first four operations of the first delta. Pinned by a test so that
/// a change to the generators cannot pass unnoticed.
pub fn fingerprint(workload: Workload, scale: Scale, seed: u64) -> String {
    let Parts {
        graphs,
        patterns,
        mut stream,
    } = parts(workload, scale, seed);
    let ChurnOp::Apply(first_delta) = stream.next_op() else {
        unreachable!("the first op is an apply");
    };
    let delta: Vec<String> = first_delta
        .iter()
        .take(4)
        .map(|op| format!("{}{}>{}", if op.insert { '+' } else { '-' }, op.from, op.to))
        .collect();
    let label_hash = fnv1a(
        graphs
            .iter()
            .flat_map(GenGraph::label_histogram)
            .flat_map(|c| (c as u64).to_le_bytes()),
    );
    let edge_hash = fnv1a(
        graphs
            .iter()
            .flat_map(|g| &g.edges)
            .flat_map(|&(s, t)| s.to_le_bytes().into_iter().chain(t.to_le_bytes())),
    );
    let pattern = |(k, p): &(usize, GenPattern)| format!("{k}:{:?}/{:?}", p.labels, p.edges);
    format!(
        "G={} V={} E={} labels={label_hash:016x} edges={edge_hash:016x} p0={} p1={} d0=[{}]",
        graphs.len(),
        graphs.iter().map(|g| g.labels.len()).sum::<usize>(),
        graphs.iter().map(|g| g.edges.len()).sum::<usize>(),
        pattern(&patterns[0]),
        pattern(&patterns[1]),
        delta.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inputs every workload generates at seed 1. A change here moves the benchmark:
    /// it must be its own change, and the baseline measured again.
    #[test]
    fn seed_one_fingerprints_are_pinned() {
        let pinned = [
            (
                Workload::OneshotSparse,
                "G=4 V=200000 E=659006 labels=673660f3d3380c45 edges=8adce2aefa50bcef \
                 p0=0:[5, 22, 15, 84]/[(0, 2), (1, 0), (3, 0)] \
                 p1=0:[99, 44, 2, 170, 44, 28]/[(0, 2), (0, 5), (1, 0), (3, 0), (4, 0)] \
                 d0=[-25432>24844 -13388>13458 -47819>48743 -3658>3702]",
            ),
            (
                Workload::OneshotDense,
                "G=4 V=20000 E=374490 labels=702719eaf75ebdfd edges=936f766f96783400 \
                 p0=0:[10, 2, 12, 3]/[(0, 2), (1, 0), (3, 0)] \
                 p1=0:[5, 7, 2, 4, 1, 10]/[(0, 3), (1, 0), (2, 0), (2, 1), (4, 0), (4, 3), \
                 (5, 0), (5, 2)] \
                 d0=[-2559>2504 -1312>1235 -4773>4677 -1674>1588]",
            ),
            (
                Workload::ServeChurn,
                "G=1 V=50000 E=164950 labels=ccd8c57d4556e4ae edges=d97f685f5ceb5b7d \
                 p0=0:[1, 4, 3]/[(0, 2), (1, 0)] p1=0:[11, 6, 0, 17]/[(0, 2), (1, 0), (3, 0)] \
                 d0=[-25432>24844 -13388>13458 -47819>48743 -3658>3702]",
            ),
        ];
        for (workload, want) in pinned {
            assert_eq!(
                fingerprint(workload, Scale::Full, 1),
                want,
                "{}",
                workload.name()
            );
        }
        assert_eq!(
            fingerprint(Workload::DistributedDense, Scale::Full, 1),
            fingerprint(Workload::OneshotDense, Scale::Full, 1),
            "distributed-dense runs the oneshot-dense inputs"
        );
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in Workload::ALL {
            let a = fingerprint(workload, Scale::Smoke, 7);
            assert_eq!(a, fingerprint(workload, Scale::Smoke, 7));
            assert_ne!(a, fingerprint(workload, Scale::Smoke, 8));
        }
    }
}
