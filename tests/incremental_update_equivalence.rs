//! Differential properties of incremental matching under graph updates
//! ([`ssim_core::incremental`]).
//!
//! [`UpdatePlan::Incremental`] maintains the global dual-simulation fixpoint across a
//! [`GraphDelta`], invalidates only the balls within substrate distance `dQ` of a
//! touched node (Prop. 3 locality) and splices their fresh rows into the cached output.
//! The maximum relation and every per-ball result are unique, so the plan must be
//! *bit-identical* to the [`UpdatePlan::Recompute`] oracle. These properties pin it at
//! three layers:
//!
//! * **relation layer** — after every delta, the maintained global fixpoint (deletion
//!   suspect cascades + insertion re-admission closure) equals a from-scratch fixpoint
//!   over the updated graph, on arbitrary edge-soup graphs;
//! * **match layer** — along random delta streams over the workload generators, the
//!   incremental session's `MatchOutput` rows are bit-identical to the recompute
//!   oracle's and to a one-shot `strong_simulation` on the updated graph, with the
//!   other engine axes (`RefineStrategy × BallSubstrate`) pinned at their defaults AND
//!   composed into every oracle shape;
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
use ssim_core::incremental::{global_fixpoint, update_global_fixpoint, IncrementalMatcher};
use ssim_core::simulation::RefineStrategy;
use ssim_core::strong::{strong_simulation, MatchConfig, MatchOutput};
use ssim_core::UpdatePlan;
use ssim_distributed::{DistributedConfig, IncrementalDistributed, PartitionStrategy};
use ssim_experiments::workloads::{experiment_pattern, DatasetKind};
use ssim_graph::{Graph, GraphDelta, Label, NodeId, Pattern};

/// Asserts two match outputs agree on every subgraph bit. Work stats are excluded by
/// design: the incremental plan processes only dirty balls, so the ball counters differ
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

/// The oracle-matrix shapes the update axis is composed with: the other engine axes
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
        (
            "seed-shape",
            MatchConfig {
                update_plan: UpdatePlan::Incremental,
                ..MatchConfig::seed_reference()
            },
        ),
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
    /// incremental session equals the recompute oracle and the one-shot matcher, for
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
            let incremental_cfg = config.with_update_plan(UpdatePlan::Incremental);
            let oracle_cfg = config.with_update_plan(UpdatePlan::Recompute);
            let mut inc = IncrementalMatcher::new(&q, data.clone(), incremental_cfg);
            let mut oracle = IncrementalMatcher::new(&q, data.clone(), oracle_cfg);
            assert_same_rows(inc.output(), oracle.output(), &format!("{name}: initial"))?;
            for (i, picks) in stream.iter().enumerate() {
                let delta = random_delta(&inc.data(), picks);
                inc.apply(&delta).expect("delta validates");
                oracle.apply(&delta).expect("delta validates");
                assert_same_rows(
                    inc.output(),
                    oracle.output(),
                    &format!("{name}: step {i} ({} ops)", delta.op_count()),
                )?;
                // The dirty/clean split covers the graph exactly.
                let up = inc.last_update();
                prop_assert!(
                    up.dirty_balls + up.clean_balls == inc.data().node_count(),
                    "{}: step {}: dirty {} + clean {} != |V|",
                    name,
                    i,
                    up.dirty_balls,
                    up.clean_balls
                );
            }
            // One-shot cross-check on the final graph (bit-identical rows again).
            let oneshot = strong_simulation(&q, &inc.data(), &incremental_cfg);
            assert_same_rows(inc.output(), &oneshot, &format!("{name}: vs one-shot"))?;
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
            let mut inc = IncrementalDistributed::new(&q, data.clone(), base)
                .expect("valid distributed config");
            let mut oracle = IncrementalDistributed::new(
                &q,
                data.clone(),
                DistributedConfig { update_plan: UpdatePlan::Recompute, ..base },
            )
            .expect("valid distributed config");
            for (i, picks) in stream.iter().enumerate() {
                let delta = random_delta(&inc.data(), picks);
                inc.apply(&delta).expect("delta validates");
                oracle.apply(&delta).expect("delta validates");
                let ctx = format!(
                    "sites={sites} {strategy:?} dual={dual_filter} {substrate:?} step {i}"
                );
                prop_assert!(
                    inc.output().subgraphs == oracle.output().subgraphs,
                    "{}: distributed rows diverged", ctx
                );
                let traffic = &inc.output().traffic;
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
            let mut inc = IncrementalMatcher::new(&q, data.clone(), config);
            let before = inc.output().clone();
            inc.apply(&GraphDelta::new()).expect("empty deltas validate");
            assert_same_rows(&before, inc.output(), "empty delta")?;
            prop_assert_eq!(inc.last_update().dirty_balls, 0);
            prop_assert_eq!(inc.last_update().clean_balls, data.node_count());
            prop_assert_eq!(inc.last_update().pairs_gained, 0);
            prop_assert_eq!(inc.last_update().pairs_lost, 0);
        }
    }

    /// Batch parity: `apply_batch` over a delta stream equals the same deltas applied
    /// one by one — identical rows and identical final graph — across both update plans
    /// (splice path included via dedup), sequential and distributed. Plus the
    /// contractual edges: an empty batch is a no-op and a single-delta batch equals
    /// `apply`.
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
            for plan in [UpdatePlan::Incremental, UpdatePlan::Recompute] {
                let cfg = config.with_update_plan(plan);
                let mut batch = IncrementalMatcher::new(&q, data.clone(), cfg);
                let mut seq = IncrementalMatcher::new(&q, data.clone(), cfg);
                for d in &deltas {
                    seq.apply(d).expect("delta validates in sequence");
                }
                batch.apply_batch(&deltas).expect("staged stream validates");
                let ctx = format!("{name} {plan:?}");
                assert_same_rows(batch.output(), seq.output(), &format!("{ctx}: batch"))?;
                prop_assert!(batch.data() == seq.data(), "{ctx}: final graphs differ");
                // Empty batch: a no-op that touches nothing.
                let before = batch.output().clone();
                batch.apply_batch(&[]).expect("empty batch");
                assert_same_rows(&before, batch.output(), &format!("{ctx}: empty batch"))?;
                // Single-delta batch == plain apply, bit for bit including stats.
                let mut via_batch = IncrementalMatcher::new(&q, data.clone(), cfg);
                let mut via_apply = IncrementalMatcher::new(&q, data.clone(), cfg);
                via_batch.apply_batch(&deltas[..1]).expect("delta validates");
                via_apply.apply(&deltas[0]).expect("delta validates");
                common::assert_bit_identical(
                    via_batch.output(),
                    via_apply.output(),
                    &format!("{ctx}: single-delta batch"),
                )?;
                prop_assert!(
                    via_batch.last_update() == via_apply.last_update(),
                    "{ctx}: single-delta batch update stats differ"
                );
            }
        }
        // Distributed: same parity through the coordinator, both plans.
        for plan in [UpdatePlan::Incremental, UpdatePlan::Recompute] {
            let cfg = DistributedConfig {
                sites: 3,
                strategy: PartitionStrategy::Range,
                minimize_query: false,
                update_plan: plan,
                ..DistributedConfig::default()
            };
            let mut batch = IncrementalDistributed::new(&q, data.clone(), cfg)
                .expect("valid distributed config");
            let mut seq = IncrementalDistributed::new(&q, data.clone(), cfg)
                .expect("valid distributed config");
            for d in &deltas {
                seq.apply(d).expect("delta validates in sequence");
            }
            batch.apply_batch(&deltas).expect("staged stream validates");
            prop_assert!(
                batch.output().subgraphs == seq.output().subgraphs,
                "distributed {plan:?}: batch rows diverged"
            );
            prop_assert!(batch.data() == seq.data(), "distributed {plan:?}: graphs differ");
        }
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
            let mut inc = IncrementalMatcher::new(&q, data.clone(), config);
            let before = inc.output().clone();
            let delta = random_delta(&inc.data(), &dels);
            inc.apply(&delta).expect("delta validates");
            inc.apply(&delta.inverse()).expect("inverse validates");
            prop_assert!(inc.data() == data, "graph round-trips");
            assert_same_rows(&before, inc.output(), "delete-then-reinsert")?;
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
        for plan in [UpdatePlan::Incremental, UpdatePlan::Recompute] {
            for config in [MatchConfig::basic(), MatchConfig::optimized()] {
                let cfg = config.with_update_plan(plan);
                let mut batch = IncrementalMatcher::new(&q, data.clone(), cfg);
                let mut seq = IncrementalMatcher::new(&q, data.clone(), cfg);
                seq.apply(&d1).unwrap();
                seq.apply(&d2).unwrap();
                batch
                    .apply_batch(&[d1.clone(), d2.clone()])
                    .expect("the staged stream validates at every position");
                assert_eq!(batch.data(), seq.data(), "{plan:?}: final graphs");
                assert_eq!(batch.data(), data, "the batch nets out to a no-op");
                assert_eq!(
                    batch.output().subgraphs,
                    seq.output().subgraphs,
                    "{plan:?}: rows"
                );
            }
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
        for plan in [UpdatePlan::Incremental, UpdatePlan::Recompute] {
            let cfg = MatchConfig::optimized().with_update_plan(plan);
            let mut batch = IncrementalMatcher::new(&q, data.clone(), cfg);
            let mut seq = IncrementalMatcher::new(&q, data.clone(), cfg);
            let before = batch.output().clone();
            seq.apply(&d1).unwrap();
            seq.apply(&d2).unwrap();
            batch.apply_batch(&[d1.clone(), d2.clone()]).unwrap();
            assert_eq!(batch.data(), seq.data(), "{plan:?}: final graphs");
            assert_eq!(batch.output().subgraphs, seq.output().subgraphs, "{plan:?}");
            assert_eq!(
                batch.output().subgraphs,
                before.subgraphs,
                "{plan:?}: net no-op restores the original rows"
            );
        }
    }

    /// A mid-stream pin that is wrong at its own position must reject the whole batch
    /// up front and leave the session untouched — graph, rows and update accounting.
    #[test]
    fn mid_stream_invalid_pin_rejects_the_whole_batch() {
        let (q, data) = fixture();
        let mut d1 = GraphDelta::new();
        d1.insert_edge(NodeId(2), NodeId(0));
        let mut bad = GraphDelta::new();
        // The edge exists after d1, but the target-label pin is wrong everywhere.
        bad.delete_edge_labeled(NodeId(2), NodeId(0), Label(2), Label(5));
        for plan in [UpdatePlan::Incremental, UpdatePlan::Recompute] {
            let cfg = MatchConfig::optimized().with_update_plan(plan);
            let mut m = IncrementalMatcher::new(&q, data.clone(), cfg);
            let before = m.output().clone();
            let stats_before = m.last_update().clone();
            assert!(
                m.apply_batch(&[d1.clone(), bad.clone()]).is_err(),
                "{plan:?}: the wrong pin must fail staging"
            );
            assert_eq!(m.data(), data, "{plan:?}: graph untouched");
            assert_eq!(
                m.output().subgraphs,
                before.subgraphs,
                "{plan:?}: rows untouched"
            );
            assert_eq!(
                m.last_update(),
                &stats_before,
                "{plan:?}: accounting untouched"
            );
            // The distributed session folds batches through its own service.
            let dcfg = DistributedConfig {
                sites: 2,
                update_plan: plan,
                ..DistributedConfig::default()
            };
            let mut d = IncrementalDistributed::new(&q, data.clone(), dcfg).expect("valid config");
            let before = d.output().subgraphs.clone();
            assert!(
                d.apply_batch(&[d1.clone(), bad.clone()]).is_err(),
                "{plan:?}: the wrong pin must fail the distributed batch"
            );
            assert_eq!(d.data(), data, "{plan:?}: distributed graph untouched");
            assert_eq!(
                d.output().subgraphs,
                before,
                "{plan:?}: distributed rows untouched"
            );
        }
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
        // The incremental session agrees and keeps agreeing over a delta.
        let mut inc = IncrementalMatcher::new(&pattern, data.clone(), MatchConfig::optimized());
        assert!(inc.output().subgraphs.is_empty());
        let mut delta = GraphDelta::new();
        delta.insert_edge(NodeId(2), NodeId(0));
        inc.apply(&delta).unwrap();
        assert!(inc.output().subgraphs.is_empty());
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
        let mut inc = IncrementalMatcher::new(&pattern, data, MatchConfig::optimized());
        let before = inc.output().clone();
        assert!(inc.output().is_match());
        assert_eq!(inc.output().stats.gm_nodes, 2);
        let mut kill = GraphDelta::new();
        kill.delete_edge(NodeId(0), NodeId(1));
        inc.apply(&kill).unwrap();
        assert!(!inc.output().is_match(), "the only match is gone");
        assert!(inc.output().subgraphs.is_empty());
        assert_eq!(inc.output().stats.gm_nodes, 0, "Gm emptied");
        assert_eq!(inc.last_update().pairs_lost, 2);
        // The oracle agrees on the emptied graph.
        let oneshot = strong_simulation(&pattern, &inc.data(), &MatchConfig::optimized());
        assert!(oneshot.subgraphs.is_empty());
        // Round-trip: reinsertion restores the original output.
        inc.apply(&kill.inverse()).unwrap();
        assert_eq!(inc.output().subgraphs.len(), before.subgraphs.len());
        for (a, b) in inc.output().subgraphs.iter().zip(&before.subgraphs) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.relation, b.relation);
        }
        assert_eq!(inc.output().stats.gm_nodes, 2, "Gm restored");
    }
}
