//! Differential properties of incremental matching under graph updates
//! ([`ssim_core::incremental`]).
//!
//! A [`QueryService`] maintains the global dual-simulation fixpoint across a
//! [`GraphDelta`], invalidates only the balls within substrate distance `dQ` of a
//! touched node (Prop. 3 locality) and splices their fresh rows into the cached output.
//! The maximum relation and every per-ball result are unique, so the maintained rows
//! must be *bit-identical* to the recompute oracle: the one-shot matcher on a flat
//! [`Graph`] advanced independently with `Graph::apply_delta`. These properties pin it
//! at three layers:
//!
//! * **relation layer** — after every delta, the maintained global fixpoint (deletion
//!   suspect cascades + insertion re-admission closure) equals a from-scratch fixpoint
//!   over the updated graph, on arbitrary edge-soup graphs;
//! * **match layer** — along random delta streams over the workload generators, the
//!   maintained `MatchOutput` rows are bit-identical to the recompute oracle's and to a
//!   one-shot `strong_simulation` on the service's own graph, with the other engine
//!   axes (`RefineStrategy × BallSubstrate`) pinned at their defaults AND composed into
//!   every oracle shape;
//! * **distributed layer** — the coordinator's per-site dirty-ball routing returns the
//!   same rows as a distributed recompute, and `dirty_balls + clean_balls == |V|`.
//!
//! Plus the contractual edge cases: an empty delta is a no-op (zero dirty balls), a
//! delete-then-reinsert stream round-trips to the original output, and the
//! `ExtractedSubgraph` boundary shapes (empty, all-matched, single-node, emptied-by-
//! delta `Gm`) behave.

mod common;

use common::{data_graph, pattern, random_delta};
use proptest::prelude::*;
use ssim_core::ball::BallSubstrate;
use ssim_core::incremental::{global_fixpoint, update_global_fixpoint};
use ssim_core::service::QueryService;
use ssim_core::simulation::RefineStrategy;
use ssim_core::strong::{strong_simulation, MatchConfig, MatchOutput};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, DistributedQueryService, PartitionStrategy,
    Partitioned,
};
use ssim_experiments::workloads::{experiment_pattern, DatasetKind};
use ssim_graph::{Graph, GraphDelta, Label, NodeId, Pattern};

/// Asserts two match outputs agree on every subgraph bit. Work stats are excluded by
/// design: a maintained apply processes only dirty balls, so the ball counters differ
/// from a full pass — that difference is the feature.
fn assert_same_rows(a: &MatchOutput, b: &MatchOutput, context: &str) -> Result<(), String> {
    prop_assert!(
        a.subgraphs.len() == b.subgraphs.len(),
        "{context}: {} vs {} subgraphs",
        a.subgraphs.len(),
        b.subgraphs.len()
    );
    for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
        // Derived PartialEq covers every field (center, radius, nodes, edges, relation).
        prop_assert!(x == y, "{context}: row {:?} != {:?}", x, y);
    }
    Ok(())
}

/// The oracle-matrix shapes maintained matching is composed with: the other engine axes
/// pinned at their defaults, each flipped to its oracle, the full seed shape, and the
/// paper-level toggles (dedup, radius override) that interact with row splicing.
fn config_matrix() -> Vec<(&'static str, MatchConfig)> {
    vec![
        ("basic", MatchConfig::basic()),
        ("optimized", MatchConfig::optimized()),
        (
            "naive-fixpoint",
            MatchConfig::basic().with_refine_strategy(RefineStrategy::NaiveFixpoint),
        ),
        (
            "full-substrate",
            MatchConfig::optimized().with_ball_substrate(BallSubstrate::FullGraph),
        ),
        ("seed-shape", MatchConfig::seed_reference()),
        ("sequential", MatchConfig::optimized().sequential()),
        ("threads-3", MatchConfig::basic().with_thread_limit(3)),
        ("dedup", MatchConfig::optimized().with_deduplication()),
        ("radius-1", MatchConfig::basic().with_radius(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Relation layer: the maintained global fixpoint equals a from-scratch fixpoint
    /// after every delta of a stream, on arbitrary edge soup (the harshest shapes for
    /// the re-admission closure and the suspect cascade).
    #[test]
    fn maintained_fixpoint_equals_scratch(
        data in data_graph(),
        q in pattern(),
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..8), 1..5),
    ) {
        let mut graph = data;
        let mut fix = global_fixpoint(&q, &graph, RefineStrategy::Worklist);
        for (i, picks) in stream.iter().enumerate() {
            let delta = random_delta(&graph, picks);
            let new_graph = graph.apply_delta(&delta).expect("random_delta validates");
            let up = update_global_fixpoint(&q, &new_graph, &delta, &fix, RefineStrategy::Worklist);
            let scratch = global_fixpoint(&q, &new_graph, RefineStrategy::Worklist);
            prop_assert!(
                up.relation.to_sorted_pairs() == scratch.to_sorted_pairs(),
                "step {} ({} ops): maintained {:?} vs scratch {:?}",
                i,
                delta.op_count(),
                up.relation.to_sorted_pairs(),
                scratch.to_sorted_pairs()
            );
            // The changed-node set covers every data node whose candidacy flipped.
            for u in q.nodes() {
                for v in new_graph.nodes() {
                    if fix.contains(u, v) != scratch.contains(u, v) {
                        prop_assert!(
                            up.changed_nodes.contains(v.index()),
                            "step {}: unreported change at {}", i, v
                        );
                    }
                }
            }
            fix = scratch;
            graph = new_graph;
        }
    }

    /// Match layer, pinned axes: along a delta stream over the workload generators the
    /// maintained query equals the recompute oracle and the one-shot matcher, for
    /// every shape of the engine-oracle matrix.
    #[test]
    fn incremental_equals_recompute_across_the_matrix(
        seed in any::<u64>(),
        nodes in 24usize..56,
        kind in 0usize..3,
        pattern_nodes in 2usize..5,
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 1..4),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, pattern_nodes, seed ^ 0x9e3779b97f4a7c15);
        for (name, config) in config_matrix() {
            let mut inc = QueryService::new(data.clone());
            let id = inc.register(&q, config);
            let mut flat = data.clone();
            let oracle = strong_simulation(&q, &flat, &config);
            assert_same_rows(inc.output(id).unwrap(), &oracle, &format!("{name}: initial"))?;
            for (i, picks) in stream.iter().enumerate() {
                let delta = random_delta(&flat, picks);
                inc.apply(&delta).expect("delta validates");
                flat = flat.apply_delta(&delta).expect("delta validates");
                let oracle = strong_simulation(&q, &flat, &config);
                assert_same_rows(
                    inc.output(id).unwrap(),
                    &oracle,
                    &format!("{name}: step {i} ({} ops)", delta.op_count()),
                )?;
                // The dirty/clean split covers the graph exactly.
                let up = inc.last_update(id).unwrap();
                prop_assert!(
                    up.dirty_balls + up.clean_balls == inc.data().node_count(),
                    "{}: step {}: dirty {} + clean {} != |V|",
                    name,
                    i,
                    up.dirty_balls,
                    up.clean_balls
                );
            }
            // One-shot cross-check on the service's own final graph (bit-identical rows
            // again).
            let oneshot = strong_simulation(&q, &inc.data(), &config);
            assert_same_rows(inc.output(id).unwrap(), &oneshot, &format!("{name}: vs one-shot"))?;
        }
    }

    /// Distributed layer: coordinator-side maintenance with per-site dirty-ball routing
    /// equals a distributed recompute, across sites, partition strategies, the dual
    /// filter and both ball substrates.
    #[test]
    fn distributed_incremental_equals_recompute(
        seed in any::<u64>(),
        nodes in 24usize..56,
        kind in 0usize..3,
        pattern_nodes in 2usize..5,
        sites in 1usize..5,
        strategy in 0usize..2,
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 1..3),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, pattern_nodes, seed ^ 0x9e3779b97f4a7c15);
        let strategy = [PartitionStrategy::Hash, PartitionStrategy::Range][strategy];
        for (dual_filter, substrate) in [
            (false, BallSubstrate::MatchGraph),
            (true, BallSubstrate::MatchGraph),
            (true, BallSubstrate::FullGraph),
        ] {
            let base = DistributedConfig {
                sites,
                strategy,
                minimize_query: false,
                dual_filter,
                ball_substrate: substrate,
                ..DistributedConfig::default()
            };
            let mut inc = DistributedQueryService::with_executor(data.clone(), Partitioned);
            let id = inc.try_register(&q, base).expect("valid distributed config");
            let mut flat = data.clone();
            for (i, picks) in stream.iter().enumerate() {
                let delta = random_delta(&flat, picks);
                inc.apply(&delta).expect("delta validates");
                flat = flat.apply_delta(&delta).expect("delta validates");
                let oracle = distributed_strong_simulation(&q, &flat, &base)
                    .expect("valid distributed config");
                let ctx = format!(
                    "sites={sites} {strategy:?} dual={dual_filter} {substrate:?} step {i}"
                );
                prop_assert!(
                    inc.output(id).unwrap().subgraphs == oracle.subgraphs,
                    "{}: distributed rows diverged", ctx
                );
                let traffic = &inc.output(id).unwrap().traffic;
                prop_assert!(
                    traffic.dirty_balls + traffic.clean_balls == inc.data().node_count(),
                    "{}: dirty {} + clean {} != |V|",
                    ctx,
                    traffic.dirty_balls,
                    traffic.clean_balls
                );
            }
        }
    }

    /// An empty delta is a no-op: zero dirty balls, identical rows, untouched graph.
    #[test]
    fn empty_delta_is_a_no_op(
        seed in any::<u64>(),
        nodes in 24usize..56,
        kind in 0usize..3,
        pattern_nodes in 2usize..5,
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, pattern_nodes, seed ^ 0x9e3779b97f4a7c15);
        for config in [MatchConfig::basic(), MatchConfig::optimized()] {
            let mut inc = QueryService::new(data.clone());
            let id = inc.register(&q, config);
            let before = inc.output(id).unwrap().clone();
            inc.apply(&GraphDelta::new()).expect("empty deltas validate");
            assert_same_rows(&before, inc.output(id).unwrap(), "empty delta")?;
            let up = inc.last_update(id).unwrap();
            prop_assert_eq!(up.dirty_balls, 0);
            prop_assert_eq!(up.clean_balls, data.node_count());
            prop_assert_eq!(up.pairs_gained, 0);
            prop_assert_eq!(up.pairs_lost, 0);
        }
    }

    /// Batch parity: `apply_batch` over a delta stream equals the same deltas applied
    /// one by one — identical rows and identical final graph — and the recompute oracle
    /// on the independently evolved graph (splice path included via dedup), sequential
    /// and distributed. Plus the contractual edges: an empty batch is a no-op and a
    /// single-delta batch equals `apply`.
    #[test]
    fn apply_batch_equals_sequential_applies(
        seed in any::<u64>(),
        nodes in 24usize..56,
        kind in 0usize..3,
        pattern_nodes in 2usize..5,
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 2..4),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, pattern_nodes, seed ^ 0x9e3779b97f4a7c15);
        // Build the stream against the evolving graph, so every delta validates at its
        // position (and only there — later deltas may touch edges earlier ones made).
        let mut deltas = Vec::new();
        let mut evolved = data.clone();
        for picks in &stream {
            let delta = random_delta(&evolved, picks);
            evolved = evolved.apply_delta(&delta).expect("random_delta validates");
            deltas.push(delta);
        }
        for (name, config) in [
            ("basic", MatchConfig::basic()),
            ("optimized", MatchConfig::optimized()),
            ("dedup", MatchConfig::optimized().with_deduplication()),
        ] {
            let mut batch = QueryService::new(data.clone());
            let id_b = batch.register(&q, config);
            let mut seq = QueryService::new(data.clone());
            let id_s = seq.register(&q, config);
            for d in &deltas {
                seq.apply(d).expect("delta validates in sequence");
            }
            batch.apply_batch(&deltas).expect("staged stream validates");
            let ctx = name;
            let batch_rows = batch.output(id_b).unwrap();
            assert_same_rows(batch_rows, seq.output(id_s).unwrap(), &format!("{ctx}: batch"))?;
            prop_assert!(batch.data() == seq.data(), "{ctx}: final graphs differ");
            // The recompute oracle on the independently evolved graph.
            let oracle = strong_simulation(&q, &evolved, &config);
            assert_same_rows(batch_rows, &oracle, &format!("{ctx}: batch vs recompute"))?;
            // Empty batch: a no-op that touches nothing.
            let before = batch_rows.clone();
            batch.apply_batch(&[]).expect("empty batch");
            assert_same_rows(&before, batch.output(id_b).unwrap(), &format!("{ctx}: empty batch"))?;
            // Single-delta batch == plain apply, bit for bit including stats.
            let mut via_batch = QueryService::new(data.clone());
            let id_vb = via_batch.register(&q, config);
            let mut via_apply = QueryService::new(data.clone());
            let id_va = via_apply.register(&q, config);
            via_batch.apply_batch(&deltas[..1]).expect("delta validates");
            via_apply.apply(&deltas[0]).expect("delta validates");
            common::assert_bit_identical(
                via_batch.output(id_vb).unwrap(),
                via_apply.output(id_va).unwrap(),
                &format!("{ctx}: single-delta batch"),
            )?;
            prop_assert!(
                via_batch.last_update(id_vb) == via_apply.last_update(id_va),
                "{ctx}: single-delta batch update stats differ"
            );
        }
        // Distributed: same parity through the coordinator, and the distributed
        // recompute oracle on the evolved graph.
        let cfg = DistributedConfig {
            sites: 3,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let mut batch = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id_b = batch.try_register(&q, cfg).expect("valid distributed config");
        let mut seq = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id_s = seq.try_register(&q, cfg).expect("valid distributed config");
        for d in &deltas {
            seq.apply(d).expect("delta validates in sequence");
        }
        batch.apply_batch(&deltas).expect("staged stream validates");
        prop_assert!(
            batch.output(id_b).unwrap().subgraphs == seq.output(id_s).unwrap().subgraphs,
            "distributed: batch rows diverged"
        );
        prop_assert!(batch.data() == seq.data(), "distributed: graphs differ");
        let oracle =
            distributed_strong_simulation(&q, &evolved, &cfg).expect("valid distributed config");
        prop_assert!(
            batch.output(id_b).unwrap().subgraphs == oracle.subgraphs,
            "distributed: batch rows diverged from the recompute oracle"
        );
    }

    /// Delete-then-reinsert round-trips: applying a deletion batch and then its inverse
    /// restores the graph and the output bit-for-bit.
    #[test]
    fn delete_then_reinsert_round_trips(
        seed in any::<u64>(),
        nodes in 24usize..56,
        kind in 0usize..3,
        pattern_nodes in 2usize..5,
        picks in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, pattern_nodes, seed ^ 0x9e3779b97f4a7c15);
        // Deletions only: force every pick odd.
        let dels: Vec<u64> = picks.iter().map(|p| p | 1).collect();
        for config in [MatchConfig::basic(), MatchConfig::optimized()] {
            let mut inc = QueryService::new(data.clone());
            let id = inc.register(&q, config);
            let before = inc.output(id).unwrap().clone();
            let delta = random_delta(&data, &dels);
            inc.apply(&delta).expect("delta validates");
            inc.apply(&delta.inverse()).expect("inverse validates");
            prop_assert!(inc.data() == data, "graph round-trips");
            assert_same_rows(&before, inc.output(id).unwrap(), "delete-then-reinsert")?;
        }
    }
}

/// Regression coverage for label-pin validation across `apply_batch`'s then-fold:
/// `apply_batch` folds the stream into one net delta, so a pin that is only meaningful
/// against an *intermediate* state (its edge appears earlier in the same batch) never
/// reaches `GraphDelta::validate` against the initial graph — the staged sequential
/// pre-validation is what keeps batch semantics identical to sequential `apply`.
mod apply_batch_label_pins {
    use super::*;

    fn fixture() -> (Pattern, Graph) {
        let q = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data =
            Graph::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        (q, data)
    }

    /// A pinned deletion of an edge that only exists mid-batch (inserted by the
    /// previous delta): invalid against the initial graph, valid at its position.
    /// Batch and sequential must agree on rows and final graph.
    #[test]
    fn pin_valid_only_at_an_intermediate_state_matches_sequential() {
        let (q, data) = fixture();
        let mut d1 = GraphDelta::new();
        d1.insert_edge(NodeId(2), NodeId(0));
        let mut d2 = GraphDelta::new();
        d2.delete_edge_labeled(NodeId(2), NodeId(0), Label(2), Label(0));
        // Sanity: the net effect cancels, and d2 alone is invalid at the start.
        assert!(data.clone().apply_delta(&d2).is_err());
        // The recompute oracle chains the stream onto a flat graph.
        let flat = data.apply_delta(&d1).unwrap().apply_delta(&d2).unwrap();
        for config in [MatchConfig::basic(), MatchConfig::optimized()] {
            let mut batch = QueryService::new(data.clone());
            let id_b = batch.register(&q, config);
            let mut seq = QueryService::new(data.clone());
            let id_s = seq.register(&q, config);
            seq.apply(&d1).unwrap();
            seq.apply(&d2).unwrap();
            batch
                .apply_batch(&[d1.clone(), d2.clone()])
                .expect("the staged stream validates at every position");
            assert_eq!(batch.data(), seq.data(), "final graphs");
            assert_eq!(batch.data(), data, "the batch nets out to a no-op");
            assert_eq!(flat, data, "the recomputed chain nets out to a no-op");
            let rows = &batch.output(id_b).unwrap().subgraphs;
            assert_eq!(rows, &seq.output(id_s).unwrap().subgraphs, "rows");
            assert_eq!(
                rows,
                &strong_simulation(&q, &flat, &config).subgraphs,
                "rows vs recompute"
            );
        }
    }

    /// The mirror stream: a pinned deletion first, then reinsertion of the same edge.
    /// The fold cancels the pair; sequential pays two applies. Rows and graphs agree.
    #[test]
    fn pinned_delete_then_reinsert_folds_to_a_no_op() {
        let (q, data) = fixture();
        let mut d1 = GraphDelta::new();
        d1.delete_edge_labeled(NodeId(0), NodeId(1), Label(0), Label(1));
        let mut d2 = GraphDelta::new();
        d2.insert_edge(NodeId(0), NodeId(1));
        let cfg = MatchConfig::optimized();
        let mut batch = QueryService::new(data.clone());
        let id_b = batch.register(&q, cfg);
        let mut seq = QueryService::new(data.clone());
        let id_s = seq.register(&q, cfg);
        let before = batch.output(id_b).unwrap().clone();
        seq.apply(&d1).unwrap();
        seq.apply(&d2).unwrap();
        batch.apply_batch(&[d1.clone(), d2.clone()]).unwrap();
        assert_eq!(batch.data(), seq.data(), "final graphs");
        let rows = &batch.output(id_b).unwrap().subgraphs;
        assert_eq!(rows, &seq.output(id_s).unwrap().subgraphs);
        assert_eq!(
            rows, &before.subgraphs,
            "net no-op restores the original rows"
        );
        // The recompute oracle on the flat chain agrees.
        let flat = data.apply_delta(&d1).unwrap().apply_delta(&d2).unwrap();
        assert_eq!(rows, &strong_simulation(&q, &flat, &cfg).subgraphs);
    }

    /// A mid-stream pin that is wrong at its own position must reject the whole batch
    /// up front and leave the service untouched — graph, rows and update accounting.
    #[test]
    fn mid_stream_invalid_pin_rejects_the_whole_batch() {
        let (q, data) = fixture();
        let mut d1 = GraphDelta::new();
        d1.insert_edge(NodeId(2), NodeId(0));
        let mut bad = GraphDelta::new();
        // The edge exists after d1, but the target-label pin is wrong everywhere.
        bad.delete_edge_labeled(NodeId(2), NodeId(0), Label(2), Label(5));
        // The flat chain rejects the pin at its position too.
        let after_d1 = data.apply_delta(&d1).unwrap();
        assert!(
            after_d1.apply_delta(&bad).is_err(),
            "the pin is wrong mid-stream"
        );
        let cfg = MatchConfig::optimized();
        let mut m = QueryService::new(data.clone());
        let id = m.register(&q, cfg);
        let before = m.output(id).unwrap().clone();
        let stats_before = m.last_update(id).unwrap().clone();
        assert!(
            m.apply_batch(&[d1.clone(), bad.clone()]).is_err(),
            "the wrong pin must fail staging"
        );
        assert_eq!(m.data(), data, "graph untouched");
        assert_eq!(
            m.output(id).unwrap().subgraphs,
            before.subgraphs,
            "rows untouched"
        );
        assert_eq!(
            m.last_update(id).unwrap(),
            &stats_before,
            "accounting untouched"
        );
        // The distributed service folds batches through the same apply.
        let dcfg = DistributedConfig {
            sites: 2,
            ..DistributedConfig::default()
        };
        let mut d = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id = d.try_register(&q, dcfg).expect("valid config");
        let before = d.output(id).unwrap().subgraphs.clone();
        assert!(
            d.apply_batch(&[d1.clone(), bad.clone()]).is_err(),
            "the wrong pin must fail the distributed batch"
        );
        assert_eq!(d.data(), data, "distributed graph untouched");
        assert_eq!(
            d.output(id).unwrap().subgraphs,
            before,
            "distributed rows untouched"
        );
    }
}

/// `ExtractedSubgraph` boundary shapes, exercised through the matcher pipeline rather
/// than the extraction API alone.
mod gm_edge_cases {
    use super::*;

    /// Empty matched set: the pattern's label is absent, the global relation is empty,
    /// and no `Gm` is ever extracted (the engine returns before extraction).
    #[test]
    fn empty_matched_set_skips_extraction() {
        let pattern = Pattern::from_edges(vec![Label(9), Label(8)], &[(0, 1)]).unwrap();
        let data = Graph::from_edges(vec![Label(0); 6], &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let out = strong_simulation(&pattern, &data, &MatchConfig::optimized());
        assert!(!out.is_match());
        assert_eq!(out.stats.gm_nodes, 0);
        assert_eq!(out.stats.gm_edges, 0);
        assert_eq!(out.stats.balls_skipped, data.node_count());
        // The maintained query agrees and keeps agreeing over a delta.
        let mut inc = QueryService::new(data.clone());
        let id = inc.register(&pattern, MatchConfig::optimized());
        assert!(inc.output(id).unwrap().subgraphs.is_empty());
        let mut delta = GraphDelta::new();
        delta.insert_edge(NodeId(2), NodeId(0));
        inc.apply(&delta).unwrap();
        assert!(inc.output(id).unwrap().subgraphs.is_empty());
    }

    /// All-matched: every data node survives the dual filter, so `Gm == G` and the
    /// substrates must agree bit-for-bit.
    fn all_matched_ring() -> (Pattern, Graph) {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1), (1, 0)]).unwrap();
        let n = 8u32;
        let labels: Vec<Label> = (0..n).map(|i| Label(i % 2)).collect();
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        (pattern, Graph::from_edges(labels, &edges).unwrap())
    }

    #[test]
    fn all_matched_gm_equals_g() {
        let (pattern, data) = all_matched_ring();
        let gm = strong_simulation(&pattern, &data, &MatchConfig::optimized());
        assert_eq!(gm.stats.gm_nodes, data.node_count(), "Gm == G");
        assert_eq!(gm.stats.gm_edges, data.edge_count());
        assert_eq!(gm.stats.balls_skipped, 0);
        let full = strong_simulation(
            &pattern,
            &data,
            &MatchConfig::optimized().with_ball_substrate(BallSubstrate::FullGraph),
        );
        assert_eq!(gm.subgraphs.len(), full.subgraphs.len());
        for (a, b) in gm.subgraphs.iter().zip(&full.subgraphs) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.relation, b.relation);
        }
    }

    /// Single-node `Gm`: exactly one data node matches a single-node pattern.
    #[test]
    fn single_node_gm() {
        let pattern = Pattern::from_edges(vec![Label(7)], &[]).unwrap();
        let data =
            Graph::from_edges(vec![Label(0), Label(7), Label(0)], &[(0, 1), (1, 2)]).unwrap();
        let out = strong_simulation(&pattern, &data, &MatchConfig::optimized());
        assert_eq!(out.stats.gm_nodes, 1);
        assert_eq!(out.stats.gm_edges, 0, "a single member induces no edge");
        assert_eq!(out.subgraphs.len(), 1);
        assert_eq!(out.subgraphs[0].nodes, vec![NodeId(1)]);
    }

    /// A delta that empties `Gm` entirely: deleting the supporting edge makes the
    /// global relation non-total (hence empty), the cached extraction is dropped, and
    /// re-inserting restores everything bit-for-bit.
    #[test]
    fn delta_that_empties_gm() {
        let pattern = Pattern::from_edges(vec![Label(0), Label(1)], &[(0, 1)]).unwrap();
        let data =
            Graph::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        let mut inc = QueryService::new(data.clone());
        let id = inc.register(&pattern, MatchConfig::optimized());
        let before = inc.output(id).unwrap().clone();
        assert!(before.is_match());
        assert_eq!(before.stats.gm_nodes, 2);
        let mut kill = GraphDelta::new();
        kill.delete_edge(NodeId(0), NodeId(1));
        inc.apply(&kill).unwrap();
        let emptied = inc.output(id).unwrap();
        assert!(!emptied.is_match(), "the only match is gone");
        assert!(emptied.subgraphs.is_empty());
        assert_eq!(emptied.stats.gm_nodes, 0, "Gm emptied");
        assert_eq!(inc.last_update(id).unwrap().pairs_lost, 2);
        // The oracle agrees on the emptied graph.
        let flat = data.apply_delta(&kill).unwrap();
        let oneshot = strong_simulation(&pattern, &flat, &MatchConfig::optimized());
        assert!(oneshot.subgraphs.is_empty());
        // Round-trip: reinsertion restores the original output.
        inc.apply(&kill.inverse()).unwrap();
        let restored = inc.output(id).unwrap();
        assert_eq!(restored.subgraphs.len(), before.subgraphs.len());
        for (a, b) in restored.subgraphs.iter().zip(&before.subgraphs) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.relation, b.relation);
        }
        assert_eq!(restored.stats.gm_nodes, 2, "Gm restored");
    }
}
