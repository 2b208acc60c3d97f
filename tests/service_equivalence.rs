//! Differential properties of the multi-pattern query service
//! ([`ssim_core::service`]) against independent sessions.
//!
//! The service's whole premise is that shared work is *pure* — the edge-ball sweeps,
//! the flat materialisation and the region extractions it shares across registered
//! patterns are values every one-query service would compute for itself — so sharing
//! must be observationally invisible. The independent-sessions oracle pins exactly
//! that: after every delta, every registered query's `MatchOutput` (rows AND stats) and
//! `UpdateStats` must be bit-identical to a service holding that query alone,
//! constructed on the same initial graph with the same configuration and fed the same
//! deltas. On top of the differential core:
//!
//! * **registry lifecycle** — queries registered mid-stream start from the current
//!   graph (their oracle is a fresh one-query service on it); deregistered queries stop
//!   being updated without disturbing the rest;
//! * **batch parity** — `QueryService::apply_batch` equals the same deltas applied one
//!   by one, per query (rows), sequential and distributed;
//! * **sharing accounting** — same-radius full-graph-sweep patterns collapse to one
//!   sweep per radius, and the shared substrate cache reports real reuse;
//! * **distributed twin** — `DistributedQueryService` tracks independent one-query
//!   distributed services row for row;
//! * **two executors** — the same queries on the local and the partitioned executor
//!   hold equal rows along a delta stream, through a degraded apply and its healing.

mod common;

use common::{assert_bit_identical, expand_classes, random_delta};
use proptest::prelude::*;
use ssim_core::service::{PatternBuilder, QueryId, QueryService};
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_distributed::service::{DistributedQueryService, Partitioned};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, FaultPlan, PartitionStrategy, RecoveryPolicy,
};
use ssim_experiments::workloads::{experiment_pattern, DatasetKind};
use ssim_graph::{Label, NodeId, Pattern};
use std::collections::BTreeSet;

/// The configuration shapes queries register under: the poles that exercise every
/// service code path — shared data-edge sweeps (basic: no dual filter), the `Gm`
/// substrate (optimized: private extraction sweeps), the splice/dedup path, a radius
/// override (distinct sweep radius) and a pinned thread count.
fn service_config(bits: u64) -> MatchConfig {
    match bits % 5 {
        0 => MatchConfig::basic(),
        1 => MatchConfig::optimized(),
        2 => MatchConfig::optimized().with_deduplication(),
        3 => MatchConfig::basic().with_radius(1),
        _ => MatchConfig::basic().with_thread_limit(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: a service with N standing queries tracks N
    /// independent one-query services bit for bit — rows, match stats and update
    /// accounting — along a random delta stream, for every registered query, across
    /// mixed configuration shapes.
    #[test]
    fn service_is_bit_identical_to_independent_sessions(
        seed in any::<u64>(),
        nodes in 24usize..56,
        kind in 0usize..3,
        shapes in proptest::collection::vec(any::<u64>(), 2..5),
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 1..4),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let mut service = QueryService::new(data.clone());
        let mut oracles: Vec<(QueryId, QueryService, QueryId)> = Vec::new();
        let mut queries: Vec<(Pattern, MatchConfig)> = Vec::new();
        for (i, &bits) in shapes.iter().enumerate() {
            let q = experiment_pattern(
                &data,
                2 + (bits % 3) as usize,
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
            );
            let config = service_config(bits);
            let id = service.register(&q, config);
            let mut oracle = QueryService::new(data.clone());
            let sole = oracle.register(&q, config);
            assert_bit_identical(
                service.output(id).unwrap(),
                oracle.output(sole).unwrap(),
                &format!("query {i}: initial"),
            )?;
            oracles.push((id, oracle, sole));
            queries.push((q, config));
        }
        let mut graph = data;
        for (step, picks) in stream.iter().enumerate() {
            let delta = random_delta(&graph, picks);
            graph = graph.apply_delta(&delta).expect("random_delta validates");
            let update = service.apply(&delta).expect("delta validates");
            // The one-query services above run the service's own code, so the one-shot
            // matcher keeps the contract independent.
            for (i, ((id, ..), (q, config))) in oracles.iter().zip(&queries).enumerate() {
                prop_assert!(
                    service.output(*id).unwrap().subgraphs
                        == strong_simulation(q, &graph, config).subgraphs,
                    "query {}: step {}: rows differ from one-shot strong_simulation", i, step
                );
            }
            prop_assert_eq!(update.queries.len(), oracles.len());
            for (i, (id, oracle, sole)) in oracles.iter_mut().enumerate() {
                oracle.apply(&delta).expect("delta validates");
                assert_bit_identical(
                    service.output(*id).unwrap(),
                    oracle.output(*sole).unwrap(),
                    &format!("query {i}: step {step}"),
                )?;
                prop_assert!(
                    service.last_update(*id) == oracle.last_update(*sole),
                    "query {}: step {}: update stats {:?} vs {:?}",
                    i, step, service.last_update(*id).unwrap(), oracle.last_update(*sole)
                );
            }
            prop_assert!(service.data() == graph, "step {}: substrate diverged", step);
        }
    }

    /// Registry lifecycle under churn: a query registered mid-stream equals a fresh
    /// one-query service on the current graph, deregistering stops updates for that id
    /// only, and the survivors keep tracking their oracles.
    #[test]
    fn mid_stream_registration_and_deregistration(
        seed in any::<u64>(),
        nodes in 24usize..48,
        kind in 0usize..3,
        picks_a in proptest::collection::vec(any::<u64>(), 1..6),
        picks_b in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let qa = experiment_pattern(&data, 3, seed ^ 0x9e3779b97f4a7c15);
        let qb = experiment_pattern(&data, 2, seed ^ 0x51afd44d);
        let config = MatchConfig::optimized();
        let mut service = QueryService::new(data.clone());
        let a = service.register(&qa, config);
        let mut oracle_a = QueryService::new(data.clone());
        let sole_a = oracle_a.register(&qa, config);

        let d1 = random_delta(&data, &picks_a);
        let graph1 = data.apply_delta(&d1).expect("random_delta validates");
        service.apply(&d1).expect("delta validates");
        oracle_a.apply(&d1).expect("delta validates");
        assert_bit_identical(
            service.output(a).unwrap(),
            oracle_a.output(sole_a).unwrap(),
            "first query post-delta",
        )?;

        // Late registration: the new query's oracle is a fresh one-query service on
        // the *current* graph — including its initial full-pass accounting.
        let b = service.register(&qb, config);
        let mut oracle_b = QueryService::new(graph1.clone());
        let sole_b = oracle_b.register(&qb, config);
        assert_bit_identical(
            service.output(b).unwrap(),
            oracle_b.output(sole_b).unwrap(),
            "late registration",
        )?;
        prop_assert!(service.last_update(b) == oracle_b.last_update(sole_b));

        // Deregister the first: its handle goes dark, the second keeps tracking.
        prop_assert!(service.deregister(a));
        prop_assert!(service.output(a).is_none());
        let d2 = random_delta(&graph1, &picks_b);
        let update = service.apply(&d2).expect("delta validates");
        oracle_b.apply(&d2).expect("delta validates");
        prop_assert!(update.queries.len() == 1, "only the live query is updated");
        prop_assert_eq!(update.queries[0].id, b);
        assert_bit_identical(
            service.output(b).unwrap(),
            oracle_b.output(sole_b).unwrap(),
            "survivor post-churn",
        )?;
    }

    /// Service batch parity: `apply_batch` over a stream equals the same deltas applied
    /// one by one, per registered query, and an empty batch is a no-op.
    #[test]
    fn service_apply_batch_equals_sequential(
        seed in any::<u64>(),
        nodes in 24usize..48,
        kind in 0usize..3,
        shapes in proptest::collection::vec(any::<u64>(), 2..4),
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 2..4),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let mut deltas = Vec::new();
        let mut evolved = data.clone();
        for picks in &stream {
            let delta = random_delta(&evolved, picks);
            evolved = evolved.apply_delta(&delta).expect("random_delta validates");
            deltas.push(delta);
        }
        let mut batched = QueryService::new(data.clone());
        let mut sequential = QueryService::new(data.clone());
        let mut ids = Vec::new();
        for (i, &bits) in shapes.iter().enumerate() {
            let q = experiment_pattern(
                &data,
                2 + (bits % 3) as usize,
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
            );
            let config = service_config(bits);
            let id_b = batched.register(&q, config);
            let id_s = sequential.register(&q, config);
            prop_assert_eq!(id_b, id_s);
            ids.push(id_b);
        }
        batched.apply_batch(&deltas).expect("staged stream validates");
        for d in &deltas {
            sequential.apply(d).expect("delta validates in sequence");
        }
        for (i, id) in ids.iter().enumerate() {
            prop_assert!(
                batched.output(*id).unwrap().subgraphs
                    == sequential.output(*id).unwrap().subgraphs,
                "query {}: batch rows diverged", i
            );
        }
        prop_assert!(batched.data() == sequential.data());
        // Empty batch: no epoch movement, no query updates.
        let epoch = batched.epoch();
        let update = batched.apply_batch(&[]).expect("empty batch");
        prop_assert_eq!(batched.epoch(), epoch);
        prop_assert!(update.queries.is_empty());
    }

    /// Distributed twin: the distributed service tracks independent one-query
    /// distributed services row for row along a delta stream.
    #[test]
    fn distributed_service_tracks_independent_sessions(
        seed in any::<u64>(),
        nodes in 24usize..48,
        kind in 0usize..3,
        sites in 1usize..4,
        n_patterns in 2usize..4,
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 1..3),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let config = DistributedConfig {
            sites,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            ..DistributedConfig::default()
        };
        let mut service = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let mut oracles = Vec::new();
        for i in 0..n_patterns {
            let q = experiment_pattern(
                &data,
                2 + i % 3,
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
            );
            let id = service.try_register(&q, config).expect("valid config");
            let mut oracle = DistributedQueryService::with_executor(data.clone(), Partitioned);
            let sole = oracle.try_register(&q, config).expect("valid config");
            prop_assert!(
                service.output(id).unwrap().subgraphs == oracle.output(sole).unwrap().subgraphs,
                "query {}: initial distributed rows", i
            );
            oracles.push((id, oracle, sole, q));
        }
        let mut graph = data;
        for (step, picks) in stream.iter().enumerate() {
            let delta = random_delta(&graph, picks);
            graph = graph.apply_delta(&delta).expect("random_delta validates");
            service.apply(&delta).expect("delta validates");
            for (i, (id, oracle, sole, q)) in oracles.iter_mut().enumerate() {
                oracle.apply(&delta).expect("delta validates");
                prop_assert!(
                    service.output(*id).unwrap().subgraphs
                        == oracle.output(*sole).unwrap().subgraphs,
                    "query {}: step {}: distributed rows diverged", i, step
                );
                let oneshot = distributed_strong_simulation(q, &graph, &config)
                    .expect("valid config");
                prop_assert!(
                    service.output(*id).unwrap().subgraphs == oneshot.subgraphs,
                    "query {}: step {}: rows differ from one-shot distributed run", i, step
                );
            }
        }
    }

    /// One service, two executors: the same patterns registered on the local executor
    /// under `DistributedConfig::match_config()` and on the partitioned executor hold
    /// equal rows after every delta (the partitioned rows class-expanded). One apply
    /// runs the partitioned service under a fault plan that loses the first chunk of
    /// every site: its rows are the local rows minus the lost centers, and the next,
    /// fault-free apply heals them back to equality.
    #[test]
    fn local_and_partitioned_executors_hold_equal_rows(
        seed in any::<u64>(),
        nodes in 24usize..48,
        kind in 0usize..3,
        sites in 1usize..4,
        shape in 0u8..16,
        n_patterns in 1usize..4,
        fault_step in 0usize..3,
        stream in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..6), 2..4),
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let policy = RecoveryPolicy::default();
        let dcfg = DistributedConfig {
            sites,
            strategy: if shape & 1 == 0 { PartitionStrategy::Range } else { PartitionStrategy::Hash },
            minimize_query: shape & 2 != 0,
            dual_filter: shape & 4 != 0,
            ball_substrate: if shape & 8 == 0 {
                ssim_core::BallSubstrate::MatchGraph
            } else {
                ssim_core::BallSubstrate::FullGraph
            },
            recovery: Some(policy),
            ..DistributedConfig::default()
        };
        let mut local = QueryService::new(data.clone());
        let mut partitioned = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let mut queries = Vec::new();
        for i in 0..n_patterns {
            let q = experiment_pattern(
                &data,
                2 + i % 3,
                seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
            );
            let l = local.register(&q, dcfg.match_config());
            let p = partitioned.try_register(&q, dcfg).expect("valid config");
            queries.push((q, l, p));
        }
        let mut plan = FaultPlan::none();
        for site in 0..sites {
            for round in 0..=policy.chunk_retries {
                plan.panic_chunk(site, 0, round);
            }
        }
        let fault_step = fault_step % (stream.len() - 1);
        let mut graph = data;
        for (step, picks) in stream.iter().enumerate() {
            let delta = random_delta(&graph, picks);
            graph = graph.apply_delta(&delta).expect("random_delta validates");
            local.apply(&delta).expect("delta validates");
            if step == fault_step {
                partitioned.apply_with_faults(&delta, &plan).expect("degraded, not failed");
            } else {
                partitioned.apply(&delta).expect("delta validates");
            }
            for (i, (q, l, p)) in queries.iter().enumerate() {
                let out = partitioned.output(*p).unwrap();
                let lost: BTreeSet<NodeId> = out.lost_centers.iter().copied().collect();
                prop_assert!(step == fault_step || lost.is_empty(), "step {}: unhealed", step);
                let expected: Vec<_> = local
                    .output(*l)
                    .unwrap()
                    .subgraphs
                    .iter()
                    .filter(|row| !lost.contains(&row.center))
                    .cloned()
                    .collect();
                prop_assert!(
                    expand_classes(q, dcfg.minimize_query, &out.subgraphs) == expected,
                    "query {}: step {}: partitioned rows differ from local rows", i, step
                );
            }
        }
    }
}

/// Deterministic sharing and builder coverage that needs no generator.
mod deterministic {
    use super::*;
    use ssim_graph::{Graph, GraphDelta, NodeId};

    fn chain(n: u32) -> Graph {
        let labels: Vec<Label> = (0..n).map(|i| Label(i % 2)).collect();
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(labels, &edges).unwrap()
    }

    fn path(labels: &[u32]) -> Pattern {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        Pattern::from_edges(labels.iter().map(|&l| Label(l)).collect(), &edges).unwrap()
    }

    /// Four same-radius patterns without the dual filter all consume the shared
    /// data-edge sweep: one sweep radius serves four consumers, and the substrate
    /// cache reports genuine cross-pattern reuse.
    #[test]
    fn overlapping_signatures_share_sweeps_and_substrate() {
        let data = chain(64);
        let patterns = [
            path(&[0, 1, 0]),
            path(&[1, 0, 1]),
            path(&[0, 1, 1]),
            path(&[1, 0, 0]),
        ];
        let mut service = QueryService::new(data);
        for q in &patterns {
            service.register(q, MatchConfig::basic());
        }
        assert_eq!(
            service.signature_groups().len(),
            1,
            "all four overlap on labels {{0, 1}}"
        );
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(30), NodeId(31));
        delta.insert_edge(NodeId(31), NodeId(30));
        let update = service.apply(&delta).unwrap();
        assert_eq!(update.sharing.sessions, 4);
        assert_eq!(
            update.sharing.edge_sweep_radii, 1,
            "same radius → one sweep pair"
        );
        assert_eq!(update.sharing.edge_sweep_consumers, 4);
        assert!(
            update.sharing.substrate_reuses >= update.sharing.substrate_builds,
            "four identical dirty regions must mostly hit the shared cache: {:?}",
            update.sharing
        );
        assert!(update.sharing.substrate_builds >= 1);
    }

    /// Disjoint-label patterns form separate signature groups but still share the
    /// substrate: one apply, one epoch bump, every query updated.
    #[test]
    fn disjoint_signatures_still_share_the_substrate() {
        let labels: Vec<Label> = (0..40u32).map(|i| Label(i % 4)).collect();
        let edges: Vec<(u32, u32)> = (0..39u32).map(|i| (i, i + 1)).collect();
        let data = Graph::from_edges(labels, &edges).unwrap();
        let mut service = QueryService::new(data);
        let a = service.register(&path(&[0, 1]), MatchConfig::basic());
        let b = service.register(&path(&[2, 3]), MatchConfig::basic());
        assert_eq!(service.signature_groups(), vec![vec![a], vec![b]]);
        let epoch = service.epoch();
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(10), NodeId(11));
        let update = service.apply(&delta).unwrap();
        assert_eq!(update.queries.len(), 2);
        assert_ne!(
            service.epoch(),
            epoch,
            "one delta, one epoch bump for everyone"
        );
    }

    /// The fluent builder wired end to end: built pattern registered, matched,
    /// updated — against a hand-checkable graph.
    #[test]
    fn builder_to_service_end_to_end() {
        // student -> book <- teacher, the paper's Q2 shape.
        let q = PatternBuilder::new()
            .component("student", Label(0))
            .component("teacher", Label(1))
            .component("book", Label(2))
            .one_way_direction("student", "book")
            .one_way_direction("teacher", "book")
            .build()
            .unwrap();
        // book 3 is recommended by both, book 4 only by the student.
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(2), Label(2)],
            &[(0, 2), (1, 2), (0, 3)],
        )
        .unwrap();
        let mut service = QueryService::new(data);
        let id = service.register(&q, MatchConfig::optimized());
        let out = service.output(id).unwrap();
        assert!(out.is_match());
        assert!(out.subgraphs.iter().all(|s| s.nodes.contains(&NodeId(2))));
        assert!(out.subgraphs.iter().all(|s| !s.nodes.contains(&NodeId(3))));
        // Delete the teacher's recommendation: the match dies.
        let mut delta = GraphDelta::new();
        delta.delete_edge(NodeId(1), NodeId(2));
        service.apply(&delta).unwrap();
        assert!(!service.output(id).unwrap().is_match());
        // Restore it: the match returns.
        service.apply(&delta.inverse()).unwrap();
        assert!(service.output(id).unwrap().is_match());
    }
}
