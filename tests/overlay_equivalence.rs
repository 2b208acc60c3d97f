//! Differential properties of the versioned graph substrate
//! ([`ssim_graph::overlay`]).
//!
//! The layered-CSR overlay is the serving path's graph: every delta lands as per-node
//! sorted patches over an immutable base CSR, compaction folds the patches back into a
//! flat base when they outgrow the policy, and [`VersionedGraph`] layers epoch-tagged
//! publication on top. All of it is only correct if the merged view is *bit-identical*
//! to a flat rebuilt [`Graph`] at every step. These properties pin that at three layers:
//!
//! * **substrate layer** — along random delta streams, the overlay's adjacency (both
//!   directions, sorted order included), labels, label index, degrees, `has_edge` and
//!   `to_graph()` materialisation equal a flat `Graph::apply_delta` chain, under every
//!   compaction policy and across explicit `compact()` calls (which must not move the
//!   epoch);
//! * **snapshot layer** — through `pin`/`stage`/`publish` cycles, pinned handles keep
//!   reading the version they pinned (even across a later compaction of the published
//!   overlay), staging never leaks into the published view, and publication advances
//!   the epoch by exactly the staged applies;
//! * **match layer** — a one-query [`QueryService`] (whose state lives on the overlay)
//!   and its batched [`QueryService::apply_batch`] entry stay bit-identical to the
//!   recompute oracle — a one-shot [`strong_simulation`] on the rebuilt flat graph —
//!   sequentially, in parallel and distributed. Compaction
//!   transparency for the matcher follows from the substrate layer: a compacted overlay
//!   is indistinguishable through every accessor the engine uses.
//!
//! Plus the regressions the patch-cancellation bookkeeping is prone to: a
//! tombstone-then-reinsert across a compaction boundary must not resurrect stale
//! patches, `GraphDelta::inverse` must round-trip the overlay back to zero mass, and
//! label-pin validation must reject mismatches against the *merged* state while leaving
//! the overlay (and its epoch) untouched.

mod common;

use common::{data_graph, random_delta};
use proptest::prelude::*;
use ssim_core::service::QueryService;
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, DistributedQueryService, PartitionStrategy,
    Partitioned,
};
use ssim_experiments::workloads::{experiment_pattern, DatasetKind};
use ssim_graph::{
    CompactionPolicy, Graph, GraphDelta, GraphError, Label, NodeId, OverlayGraph, VersionedGraph,
};

/// Asserts the overlay's merged view is bit-identical to `flat` through every accessor
/// the engine uses: counts, labels, sorted adjacency both ways, degrees, `has_edge`,
/// the label index and the `to_graph()` materialisation.
fn assert_overlay_matches_flat(
    overlay: &OverlayGraph,
    flat: &Graph,
    context: &str,
) -> Result<(), String> {
    prop_assert!(
        overlay.node_count() == flat.node_count(),
        "{context}: node counts"
    );
    prop_assert!(
        overlay.edge_count() == flat.edge_count(),
        "{context}: edge counts {} vs {}",
        overlay.edge_count(),
        flat.edge_count()
    );
    for v in flat.nodes() {
        prop_assert!(overlay.label(v) == flat.label(v), "{context}: label of {v}");
        prop_assert!(
            overlay.out_degree(v) == flat.out_degree(v),
            "{context}: out-degree of {v}"
        );
        prop_assert!(
            overlay.in_degree(v) == flat.in_degree(v),
            "{context}: in-degree of {v}"
        );
        let out: Vec<NodeId> = overlay.out_neighbors(v).collect();
        let want: Vec<NodeId> = flat.out_neighbors(v).collect();
        prop_assert!(out == want, "{context}: out-adjacency of {v}");
        let inn: Vec<NodeId> = overlay.in_neighbors(v).collect();
        let want: Vec<NodeId> = flat.in_neighbors(v).collect();
        prop_assert!(inn == want, "{context}: in-adjacency of {v}");
        for w in flat.nodes() {
            prop_assert!(
                overlay.has_edge(v, w) == flat.has_edge(v, w),
                "{context}: has_edge({v}, {w})"
            );
        }
    }
    for l in 0..4 {
        prop_assert!(
            overlay.nodes_with_label(Label(l)) == flat.nodes_with_label(Label(l)),
            "{context}: label index for {l}"
        );
    }
    prop_assert!(
        &overlay.to_graph() == flat,
        "{context}: to_graph() materialisation"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Substrate layer: along a random delta stream the overlay stays bit-identical to
    /// the flat `Graph::apply_delta` chain, under every compaction policy (never /
    /// default / eager) and across explicit mid-stream `compact()` calls, which must
    /// leave the epoch alone while every apply bumps it by one.
    #[test]
    fn overlay_equals_flat_rebuild_chain(
        data in data_graph(),
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..8), 1..6),
        policy in 0usize..3,
        compact_at in any::<u64>(),
    ) {
        let policy = [
            CompactionPolicy::never(),
            CompactionPolicy::default(),
            CompactionPolicy::eager(),
        ][policy];
        let mut overlay = OverlayGraph::with_policy(data.clone(), policy);
        let mut flat = data;
        assert_overlay_matches_flat(&overlay, &flat, "initial")?;
        prop_assert!(overlay.is_flat() && overlay.epoch().0 == 0);
        for (i, picks) in stream.iter().enumerate() {
            let delta = random_delta(&flat, picks);
            let epoch_before = overlay.epoch();
            overlay.apply_delta(&delta).expect("random_delta validates");
            flat = flat.apply_delta(&delta).expect("random_delta validates");
            prop_assert!(
                overlay.epoch() == epoch_before.next(),
                "step {i}: apply bumps the epoch exactly once"
            );
            assert_overlay_matches_flat(&overlay, &flat, &format!("step {i}"))?;
            if compact_at % (stream.len() as u64 + 1) == i as u64 {
                let epoch = overlay.epoch();
                let compactions = overlay.compactions();
                overlay.compact();
                prop_assert!(overlay.epoch() == epoch, "compact() must not move the epoch");
                prop_assert!(
                    overlay.is_flat()
                        && (overlay.compactions() == compactions
                            || overlay.compactions() == compactions + 1),
                    "compact() folds the patches and counts itself at most once"
                );
                assert_overlay_matches_flat(&overlay, &flat, &format!("step {i} compacted"))?;
            }
        }
    }

    /// Regression: `GraphDelta::inverse` round-trips the overlay — applying a delta and
    /// its inverse cancels every patch (zero overlay mass, flat again) and restores the
    /// original merged graph bit for bit.
    #[test]
    fn inverse_round_trips_to_zero_mass(
        data in data_graph(),
        picks in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        let mut overlay = OverlayGraph::with_policy(data.clone(), CompactionPolicy::never());
        let delta = random_delta(&data, &picks);
        overlay.apply_delta(&delta).expect("random_delta validates");
        prop_assert!(overlay.overlay_mass() == delta.op_count(), "mass tracks live ops");
        overlay.apply_delta(&delta.inverse()).expect("inverse validates against merged state");
        prop_assert!(
            overlay.overlay_mass() == 0 && overlay.is_flat(),
            "inverse cancels every patch, got mass {}",
            overlay.overlay_mass()
        );
        assert_overlay_matches_flat(&overlay, &data, "after round-trip")?;
    }

    /// Snapshot layer: through random pin/stage/publish cycles the pinned handles keep
    /// reading their version (even across a later compaction of the published overlay),
    /// staging never leaks into the published view, and publication advances the epoch
    /// by exactly the number of staged applies.
    #[test]
    fn epoch_pin_publish_cycles(
        data in data_graph(),
        cycles in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 1..6), 1..3),
            1..4),
    ) {
        let mut versioned = VersionedGraph::new(data.clone());
        let mut flat = data;
        for (i, cycle) in cycles.iter().enumerate() {
            let pinned = versioned.pin();
            let pinned_flat = flat.clone();
            let epoch_before = versioned.epoch();
            prop_assert!(pinned.epoch() == epoch_before, "cycle {i}: pin sees published epoch");
            let mut staged_flat = flat.clone();
            for picks in cycle {
                let delta = random_delta(&staged_flat, picks);
                versioned.stage(&delta).expect("random_delta validates");
                staged_flat = staged_flat.apply_delta(&delta).expect("random_delta validates");
                // Readers are unaffected while the writer stages.
                prop_assert!(
                    versioned.epoch() == epoch_before,
                    "cycle {i}: staging must not move the published epoch"
                );
                assert_overlay_matches_flat(versioned.published(), &flat, "published during stage")?;
            }
            prop_assert!(versioned.has_staged(), "cycle {i}: applies left a staged version");
            let published = versioned.publish();
            prop_assert!(
                published.0 == epoch_before.0 + cycle.len() as u64,
                "cycle {i}: publish advances by the staged applies"
            );
            flat = staged_flat;
            assert_overlay_matches_flat(versioned.published(), &flat, "published after publish")?;
            // The handle pinned before the cycle still reads the old version, even if
            // the published overlay compacts underneath it.
            prop_assert!(pinned.epoch() == epoch_before, "cycle {i}: pin is immutable");
            assert_overlay_matches_flat(pinned.graph(), &pinned_flat, "pinned after publish")?;
        }
    }

    /// Match layer: a maintained query over the overlay substrate — fed per-delta and
    /// in batches — stays bit-identical to the recompute oracle, a one-shot matcher on
    /// the rebuilt flat graph, sequentially, in parallel and distributed.
    #[test]
    fn matcher_identity_over_overlay_streams(
        seed in any::<u64>(),
        nodes in 24usize..48,
        kind in 0usize..3,
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 2..5),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, 3, seed ^ 0x9e3779b97f4a7c15);
        for (name, config) in [
            ("sequential", MatchConfig::basic().sequential()),
            ("parallel", MatchConfig::basic()),
            ("optimized", MatchConfig::optimized()),
        ] {
            let mut inc = QueryService::new(data.clone());
            let id = inc.register(&q, config);
            let mut batched = QueryService::new(data.clone());
            let id_b = batched.register(&q, config);
            let mut deltas = Vec::new();
            let mut flat = data.clone();
            for picks in &stream {
                let delta = random_delta(&flat, picks);
                flat = flat.apply_delta(&delta).expect("random_delta validates");
                inc.apply(&delta).expect("delta validates");
                deltas.push(delta);
            }
            batched.apply_batch(&deltas).expect("batch validates");
            let oracle = strong_simulation(&q, &flat, &config);
            prop_assert!(
                inc.output(id).unwrap().subgraphs == oracle.subgraphs,
                "{name}: per-delta query diverged from the oracle"
            );
            prop_assert!(
                batched.output(id_b).unwrap().subgraphs == oracle.subgraphs,
                "{name}: batched query diverged from the oracle"
            );
            prop_assert!(inc.data() == flat, "{name}: overlay drifted from the flat chain");
            prop_assert!(batched.data() == flat, "{name}: batched overlay drifted");
        }
        // Distributed: the coordinator's state lives on the same overlay.
        let base = DistributedConfig {
            sites: 3,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let mut inc = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let id = inc.try_register(&q, base).expect("valid distributed config");
        let mut flat = data;
        for picks in &stream {
            let delta = random_delta(&flat, picks);
            flat = flat.apply_delta(&delta).expect("random_delta validates");
            inc.apply(&delta).expect("delta validates");
            let oracle =
                distributed_strong_simulation(&q, &flat, &base).expect("valid distributed config");
            prop_assert!(
                inc.output(id).unwrap().subgraphs == oracle.subgraphs,
                "distributed query diverged from the oracle"
            );
        }
        prop_assert!(inc.data() == flat, "distributed overlay drifted from the flat chain");
    }
}

/// Regression: a tombstone folded into the base by a compaction must stay dead — the
/// re-insert after the compaction is a fresh overlay insert against the new base, not a
/// resurrection of the stale patch, and the delete after *that* must cancel cleanly.
#[test]
fn tombstone_then_reinsert_across_compaction() {
    let data = Graph::from_edges(
        vec![Label(0), Label(1), Label(1), Label(2)],
        &[(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    .unwrap();
    let (s, t) = (NodeId(0), NodeId(1));
    let mut overlay = OverlayGraph::with_policy(data.clone(), CompactionPolicy::never());
    let mut flat = data;

    // Tombstone the base edge, then fold the tombstone into the base.
    let mut del = GraphDelta::new();
    del.delete_edge(s, t);
    overlay.apply_delta(&del).unwrap();
    flat = flat.apply_delta(&del).unwrap();
    overlay.compact();
    assert!(overlay.is_flat() && !overlay.has_edge(s, t));
    assert_eq!(overlay.to_graph(), flat);

    // Re-insert across the compaction boundary: a fresh insert against the new base.
    let ins = del.inverse();
    overlay.apply_delta(&ins).unwrap();
    flat = flat.apply_delta(&ins).unwrap();
    assert!(
        overlay.has_edge(s, t),
        "reinsert after compaction must land"
    );
    assert_eq!(overlay.overlay_mass(), 1, "one live insert patch");
    assert_eq!(overlay.to_graph(), flat);

    // Compact again (insert folds in), then delete: a fresh tombstone, no stale state.
    overlay.compact();
    assert!(overlay.is_flat());
    overlay.apply_delta(&del).unwrap();
    flat = flat.apply_delta(&del).unwrap();
    assert!(!overlay.has_edge(s, t));
    assert_eq!(overlay.overlay_mass(), 1, "one live tombstone");
    assert_eq!(overlay.to_graph(), flat);
}

/// Regression: label-pin validation runs against the *merged* state and a rejected
/// delta leaves the overlay — including its epoch — untouched.
#[test]
fn label_pins_validate_against_the_merged_state() {
    let data = Graph::from_edges(
        vec![Label(0), Label(1), Label(1), Label(2)],
        &[(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    .unwrap();
    let mut overlay = OverlayGraph::new(data.clone());

    // Wrong pin: rejected, overlay untouched.
    let mut wrong = GraphDelta::new();
    wrong.delete_edge_labeled(NodeId(0), NodeId(1), Label(3), Label(1));
    let epoch = overlay.epoch();
    assert!(matches!(
        overlay.apply_delta(&wrong),
        Err(GraphError::LabelMismatch { .. })
    ));
    assert_eq!(
        overlay.epoch(),
        epoch,
        "a rejected delta must not bump the epoch"
    );
    assert_eq!(overlay.to_graph(), data, "a rejected delta must not mutate");

    // Right pin: lands.
    let mut right = GraphDelta::new();
    right.delete_edge_labeled(NodeId(0), NodeId(1), Label(0), Label(1));
    overlay.apply_delta(&right).unwrap();
    assert!(!overlay.has_edge(NodeId(0), NodeId(1)));

    // Validation consults the merged view, not the base: the tombstoned edge is gone
    // (deleting it again is MissingEdge) and re-inserting it twice is EdgeExists.
    let mut again = GraphDelta::new();
    again.delete_edge(NodeId(0), NodeId(1));
    assert!(matches!(
        overlay.apply_delta(&again),
        Err(GraphError::MissingEdge { .. })
    ));
    let mut reinsert = GraphDelta::new();
    reinsert.insert_edge(NodeId(0), NodeId(1));
    overlay.apply_delta(&reinsert).unwrap();
    assert!(matches!(
        overlay.apply_delta(&reinsert),
        Err(GraphError::EdgeExists { .. })
    ));
    assert_eq!(overlay.to_graph(), data, "delete + reinsert round-trips");
}
