//! Property-based equivalence of the engine's performance layers.
//!
//! The matching engine has three layers that must be *observationally invisible*: worklist
//! refinement vs the seed's naive fixpoint, ball-local compact indexing vs `|V|`-sized
//! relations, and parallel vs sequential ball processing. Each property pits the fast path
//! against its seed-compatible oracle on random graph/pattern pairs.
//!
//! The parallel layer's contract is the strongest: the work-stealing chunk scheduler must
//! keep `MatchOutput` — subgraphs *and* every stat except the scheduling-dependent
//! `chunks_stolen` — bit-identical across thread counts on every oracle axis, and the
//! partition helpers it is built from must cover `0..len` exactly for any `(len, threads)`.

mod common;

use common::{assert_bit_identical, random_delta};
use proptest::prelude::*;
use ssim_core::dual::dual_simulation_with;
use ssim_core::incremental::global_fixpoint;
use ssim_core::parallel::{chunk_plan, contiguous, stripe};
use ssim_core::relation::MatchRelation;
use ssim_core::simulation::{dual_candidates, graph_simulation_with};
use ssim_core::strong::{strong_simulation, MatchConfig, MatchOutput};
use ssim_core::{BallSubstrate, IncrementalMatcher, RefineStrategy, UpdatePlan};
use ssim_graph::{CompactionPolicy, Graph, OverlayGraph, Pattern};

/// This suite stretches the shared generators a little wider than the default ranges:
/// `n ∈ [3, 28)` data nodes and 2–6 pattern nodes.
fn data_graph() -> impl Strategy<Value = Graph> {
    common::data_graph_sized(28, 4)
}

fn pattern() -> impl Strategy<Value = Pattern> {
    common::pattern_sized(7, 4)
}

/// Asserts two match outputs carry identical subgraph sets (centers, nodes, edges and
/// relations) and consistent top-level stats.
fn assert_same_output(a: &MatchOutput, b: &MatchOutput, context: &str) -> Result<(), String> {
    prop_assert_eq!(a.subgraphs.len(), b.subgraphs.len());
    for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
        prop_assert!(
            x.center == y.center,
            "{context}: centers {} vs {}",
            x.center,
            y.center
        );
        prop_assert_eq!(&x.nodes, &y.nodes);
        prop_assert_eq!(&x.edges, &y.edges);
        prop_assert_eq!(&x.relation, &y.relation);
        prop_assert!(x.radius == y.radius, "{context}: radii differ");
    }
    prop_assert_eq!(a.stats.balls_considered, b.stats.balls_considered);
    prop_assert_eq!(a.stats.balls_processed, b.stats.balls_processed);
    prop_assert_eq!(a.stats.balls_skipped, b.stats.balls_skipped);
    prop_assert_eq!(a.stats.perfect_subgraphs, b.stats.perfect_subgraphs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The worklist engine and the naive fixpoint compute the same maximum
    /// dual-simulation relation (and the same maximum plain-simulation relation).
    #[test]
    fn worklist_and_naive_refinement_agree(data in data_graph(), q in pattern()) {
        let fast = dual_simulation_with(&q, &data, RefineStrategy::Worklist);
        let naive = dual_simulation_with(&q, &data, RefineStrategy::NaiveFixpoint);
        match (fast, naive) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert_eq!(a.to_sorted_pairs(), b.to_sorted_pairs()),
            (a, b) => prop_assert!(
                false,
                "worklist and naive disagree on matchability: {:?} vs {:?}",
                a.is_some(), b.is_some()
            ),
        }
        let fast_sim = graph_simulation_with(&q, &data, RefineStrategy::Worklist);
        let naive_sim = graph_simulation_with(&q, &data, RefineStrategy::NaiveFixpoint);
        match (fast_sim, naive_sim) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert_eq!(a.to_sorted_pairs(), b.to_sorted_pairs()),
            (a, b) => prop_assert!(
                false,
                "worklist and naive disagree on plain simulation: {:?} vs {:?}",
                a.is_some(), b.is_some()
            ),
        }
    }

    /// The neighbourhood-seeded global fixpoint on Zipf-skewed graphs, where the seeding
    /// prunes hard: the worklist engine (seeded from `dual_candidates`) equals the naive
    /// fixpoint (seeded from the label classes), the start contains the relation, and the
    /// fixpoint over an overlay carrying a random delta equals the one over its flat graph.
    #[test]
    fn seeded_global_fixpoint_agrees_on_skewed_labels(
        (data, q) in common::skewed_case(),
        picks in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let seeded = dual_simulation_with(&q, &data, RefineStrategy::Worklist);
        let naive = dual_simulation_with(&q, &data, RefineStrategy::NaiveFixpoint);
        prop_assert_eq!(
            seeded.as_ref().map(MatchRelation::to_sorted_pairs),
            naive.as_ref().map(MatchRelation::to_sorted_pairs)
        );
        if let Some(relation) = &seeded {
            prop_assert!(relation.is_subrelation_of(&dual_candidates(&q, &data)));
        }

        let mut overlay = OverlayGraph::with_policy(data.clone(), CompactionPolicy::never());
        overlay.apply_delta(&random_delta(&data, &picks)).expect("delta validates");
        let flat = overlay.to_graph();
        let over_overlay = global_fixpoint(&q, &overlay, RefineStrategy::Worklist);
        prop_assert_eq!(
            over_overlay.to_sorted_pairs(),
            global_fixpoint(&q, &flat, RefineStrategy::Worklist).to_sorted_pairs()
        );
        prop_assert_eq!(
            over_overlay.to_sorted_pairs(),
            global_fixpoint(&q, &flat, RefineStrategy::NaiveFixpoint).to_sorted_pairs()
        );
    }

    /// Parallel and sequential strong simulation return identical `MatchOutput`s, for both
    /// the plain and the fully optimised configuration. `with_thread_limit` forces a real
    /// multi-worker fan-out even on small inputs (and on single-core machines), so the
    /// striped split + deterministic merge path is genuinely exercised.
    #[test]
    fn parallel_and_sequential_strong_simulation_agree(data in data_graph(), q in pattern()) {
        for base in [MatchConfig::basic(), MatchConfig::optimized()] {
            let sequential = strong_simulation(&q, &data, &base.sequential());
            for workers in [2usize, 5] {
                let parallel =
                    strong_simulation(&q, &data, &base.with_thread_limit(workers));
                assert_same_output(&parallel, &sequential, "parallel vs sequential")?;
            }
            let auto = strong_simulation(&q, &data, &base);
            assert_same_output(&auto, &sequential, "auto vs sequential")?;
        }
    }

    /// The compact (ball-local ids) engine agrees with the seed's `|V|`-sized path, and the
    /// full fast engine agrees with the full seed-reference engine.
    #[test]
    fn compact_and_seed_engines_agree(data in data_graph(), q in pattern()) {
        for base in [MatchConfig::basic(), MatchConfig::optimized()] {
            let compact = strong_simulation(&q, &data, &base);
            let legacy = strong_simulation(
                &q,
                &data,
                &MatchConfig { compact_balls: false, ..base },
            );
            assert_same_output(&compact, &legacy, "compact vs legacy")?;
            let seed = strong_simulation(
                &q,
                &data,
                &MatchConfig {
                    refine_strategy: RefineStrategy::NaiveFixpoint,
                    parallel: false,
                    compact_balls: false,
                    ..base
                },
            );
            assert_same_output(&compact, &seed, "fast engine vs seed engine")?;
        }
    }
}

/// One configuration per engine oracle axis (both poles where they differ from the
/// bases): `RefineStrategy` and `BallSubstrate` on top of the plain and fully optimised
/// bases. The `UpdatePlan` axis only acts through the incremental session and is covered
/// by `updated_output_is_bit_identical_across_threads`.
fn axis_configs() -> Vec<MatchConfig> {
    vec![
        MatchConfig::basic(),
        MatchConfig::optimized(),
        MatchConfig::basic().with_refine_strategy(RefineStrategy::NaiveFixpoint),
        MatchConfig::optimized().with_ball_substrate(BallSubstrate::FullGraph),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `stripe`, `contiguous` and `chunk_plan` are exact partitions of `0..len` for
    /// arbitrary `(len, threads)` — no index dropped, none duplicated. The chunk plan
    /// additionally never emits an empty chunk (the scheduler's items are all real work).
    #[test]
    fn partition_helpers_cover_the_range_exactly(len in 0usize..4096, threads in 1usize..17) {
        let expected: Vec<usize> = (0..len).collect();
        let mut striped: Vec<usize> =
            (0..threads).flat_map(|t| stripe(len, threads, t)).collect();
        striped.sort_unstable();
        prop_assert!(striped == expected, "stripe gaps at len={len} threads={threads}");
        let contig: Vec<usize> =
            (0..threads).flat_map(|t| contiguous(len, threads, t)).collect();
        prop_assert!(contig == expected, "contiguous gaps at len={len} threads={threads}");
        let plan = chunk_plan(len);
        for chunk in &plan {
            prop_assert!(!chunk.is_empty(), "empty chunk for len={}", len);
        }
        let chunked: Vec<usize> = plan.iter().flat_map(|r| r.clone()).collect();
        prop_assert!(chunked == expected, "chunk_plan gaps at len={len}");
    }

    /// `MatchOutput` is bit-identical across thread counts 1/2/4/8 on every oracle axis,
    /// and the sequential engine agrees too: the chunk plan is a function of the input
    /// alone and every ball is evaluated on its own, so only steal attribution may vary.
    #[test]
    fn output_is_bit_identical_across_thread_counts(data in data_graph(), q in pattern()) {
        for base in axis_configs() {
            let reference = strong_simulation(&q, &data, &base.with_thread_limit(1));
            for threads in [2usize, 4, 8] {
                let out = strong_simulation(&q, &data, &base.with_thread_limit(threads));
                assert_bit_identical(&out, &reference, "thread-count bit-identity")?;
            }
            let sequential = strong_simulation(&q, &data, &base.sequential());
            assert_bit_identical(&sequential, &reference, "sequential vs one worker")?;
        }
    }

    /// The `UpdatePlan` oracle axis: incremental sessions inherit the chunk
    /// scheduler through the prepared entry points, so the post-update output is
    /// bit-identical across thread counts for both the incremental plan and the
    /// recompute oracle.
    #[test]
    fn updated_output_is_bit_identical_across_threads(
        data in data_graph(),
        q in pattern(),
        picks in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let delta = random_delta(&data, &picks);
        for plan in [UpdatePlan::Incremental, UpdatePlan::Recompute] {
            let base = MatchConfig::optimized().with_update_plan(plan);
            let mut reference =
                IncrementalMatcher::new(&q, data.clone(), base.with_thread_limit(1));
            reference.apply(&delta).expect("delta validates");
            for threads in [2usize, 4, 8] {
                let mut session =
                    IncrementalMatcher::new(&q, data.clone(), base.with_thread_limit(threads));
                session.apply(&delta).expect("delta validates");
                assert_bit_identical(
                    session.output(),
                    reference.output(),
                    "post-update thread-count bit-identity",
                )?;
            }
        }
    }
}
