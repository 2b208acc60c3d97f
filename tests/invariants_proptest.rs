//! Property-based tests of the paper's theorems and propositions on random workloads.
//!
//! Random data graphs are generated from arbitrary edge lists over a small label alphabet;
//! random connected patterns come from the dataset generators. The properties checked are
//! the formal results of Section 3 plus the correctness statements behind the Section 4.2
//! optimisations.

mod common;

use common::{data_graph, pattern};
use proptest::prelude::*;
use ssim_core::dual::{dual_simulation, is_valid_dual_simulation};
use ssim_core::match_graph::MatchGraph;
use ssim_core::minimize::minimize_pattern;
use ssim_core::simulation::{graph_simulation, is_valid_simulation};
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_core::topology::undirected_cycle_guarantee_applies;
use ssim_core::topology::TopologyReport;
use ssim_core::RepetitionSemantics;
use ssim_experiments::workloads::{experiment_pattern, DatasetKind};
use ssim_graph::{metrics, Graph, GraphView, Label, NodeId, Pattern};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The computed simulation / dual-simulation relations are valid witnesses and dual is
    /// contained in plain simulation.
    #[test]
    fn computed_relations_are_valid_witnesses(data in data_graph(), q in pattern()) {
        if let Some(sim) = graph_simulation(&q, &data) {
            prop_assert!(is_valid_simulation(&q, &data, &sim));
            if let Some(dual) = dual_simulation(&q, &data) {
                prop_assert!(is_valid_dual_simulation(&q, &data, &dual));
                prop_assert!(dual.is_subrelation_of(&sim));
            }
        } else {
            // No simulation match implies no dual-simulation match (Proposition 1).
            prop_assert!(dual_simulation(&q, &data).is_none());
        }
    }

    /// Propositions 3 and 4 plus Theorem 2: perfect subgraphs are connected, at most |V| of
    /// them exist, and each has diameter at most 2·dQ; moreover every Table 2 criterion
    /// holds for the strong-simulation output.
    #[test]
    fn strong_simulation_output_satisfies_the_topology_criteria(
        data in data_graph(),
        q in pattern(),
    ) {
        let output = strong_simulation(&q, &data, &MatchConfig::basic());
        prop_assert!(output.subgraphs.len() <= data.node_count());
        for s in &output.subgraphs {
            prop_assert!(metrics::induced_diameter(&data, &s.nodes) <= 2 * q.diameter());
            prop_assert!(!s.nodes.is_empty());
            // The relation stored with the subgraph only mentions nodes of the subgraph.
            for (_, v) in &s.relation {
                prop_assert!(s.nodes.contains(v));
            }
        }
        let report = TopologyReport::evaluate(&q, &data, &output);
        prop_assert!(report.all_preserved(), "report: {report:?}");
    }

    /// Strong-simulation matched nodes are contained in the dual-simulation matched nodes,
    /// which are contained in the simulation matched nodes (Proposition 1 at node level).
    #[test]
    fn matched_node_hierarchy(data in data_graph(), q in pattern()) {
        let strong = strong_simulation(&q, &data, &MatchConfig::basic());
        let dual_nodes: std::collections::BTreeSet<NodeId> = dual_simulation(&q, &data)
            .map(|r| r.matched_data_nodes().iter().map(NodeId::from_index).collect())
            .unwrap_or_default();
        let sim_nodes: std::collections::BTreeSet<NodeId> = graph_simulation(&q, &data)
            .map(|r| r.matched_data_nodes().iter().map(NodeId::from_index).collect())
            .unwrap_or_default();
        for v in strong.matched_nodes() {
            prop_assert!(dual_nodes.contains(&v));
        }
        for v in &dual_nodes {
            prop_assert!(sim_nodes.contains(v));
        }
    }

    /// Lemma 2: the minimised pattern produces the same dual-simulation match graph on any
    /// data graph, and minimization never grows the pattern.
    #[test]
    fn query_minimization_preserves_match_graphs(data in data_graph(), q in pattern()) {
        let minimized = minimize_pattern(&q);
        prop_assert!(minimized.pattern.size() <= q.size());
        let view = GraphView::full(&data);
        let original = dual_simulation(&q, &data);
        let reduced = dual_simulation(&minimized.pattern, &data);
        match (original, reduced) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                let mg_a = MatchGraph::build(&q, &view, &a);
                let mg_b = MatchGraph::build(&minimized.pattern, &view, &b);
                prop_assert_eq!(mg_a, mg_b);
            }
            (a, b) => {
                prop_assert!(false, "minimization changed matchability: {:?} vs {:?}", a.is_some(), b.is_some());
            }
        }
    }

    /// Minimization is idempotent: minimising a minimised pattern changes nothing.
    #[test]
    fn query_minimization_is_idempotent(q in pattern()) {
        let once = minimize_pattern(&q);
        let twice = minimize_pattern(&once.pattern);
        prop_assert_eq!(once.pattern.node_count(), twice.pattern.node_count());
        prop_assert_eq!(once.pattern.edge_count(), twice.pattern.edge_count());
    }

    /// Every `Match+` output over the standard workload generators (amazon-like,
    /// youtube-like, synthetic) preserves all Table 2 topology criteria — the paper's
    /// headline claim, checked on the realistic generators rather than arbitrary edge
    /// lists, with the full optimisation stack (and deduplication) enabled.
    #[test]
    fn match_plus_preserves_topology_on_workload_generators(
        seed in any::<u64>(),
        nodes in 30usize..80,
        kind in 0usize..3,
        pattern_nodes in 3usize..6,
    ) {
        let kind = DatasetKind::all()[kind];
        let data = kind.generate(nodes, seed);
        let q = experiment_pattern(&data, pattern_nodes, seed ^ 0x9e3779b97f4a7c15);
        let output = strong_simulation(&q, &data, &MatchConfig::optimized().with_deduplication());
        let report = TopologyReport::evaluate(&q, &data, &output);
        prop_assert!(
            report.all_preserved(),
            "{} |V|={} seed={}: {report:?}",
            kind.name(),
            nodes,
            seed
        );
        // The stats invariants hold on realistic workloads too.
        prop_assert_eq!(output.stats.balls_built, output.stats.balls_processed);
    }

    /// Where Theorem 3's guarantee applies — the pattern has a directed cycle or a
    /// label-distinct undirected cycle — every perfect subgraph must carry an
    /// undirected cycle. The complement (undirected-only cycles with repeated labels)
    /// is exactly the fold case pinned by `case_301_repeated_label_cycle_folds`.
    #[test]
    fn guaranteed_cycles_always_appear_in_subgraphs(data in data_graph(), q in pattern()) {
        if undirected_cycle_guarantee_applies(&q, RepetitionSemantics::Free) {
            let output = strong_simulation(&q, &data, &MatchConfig::basic());
            for s in &output.subgraphs {
                let (sub, _) = data.subgraph_with_edges(&s.nodes, &s.edges);
                prop_assert!(
                    ssim_graph::cycles::has_undirected_cycle(&sub),
                    "guaranteed cycle missing from subgraph centred at {}",
                    s.center
                );
            }
        }
    }

    /// The positive counterpart closed by the repetition oracle axis: under
    /// `RepetitionSemantics::Distinct` the undirected-cycle guarantee extends to *every*
    /// cyclic pattern — repeated labels included — because the repetition closure only
    /// keeps pairs with a class-injective homomorphism witness. Runs where the closure
    /// bailed on its budget fall back to `Free` per contract and are excluded.
    #[test]
    fn distinct_semantics_pins_repeated_label_cycles(data in data_graph(), q in pattern()) {
        if undirected_cycle_guarantee_applies(&q, RepetitionSemantics::Distinct) {
            let config = MatchConfig::basic().with_repetition(RepetitionSemantics::Distinct);
            let output = strong_simulation(&q, &data, &config);
            if output.stats.repetition_bailed_balls == 0 {
                for s in &output.subgraphs {
                    let (sub, _) = data.subgraph_with_edges(&s.nodes, &s.edges);
                    prop_assert!(
                        ssim_graph::cycles::has_undirected_cycle(&sub),
                        "Distinct-guaranteed cycle missing from subgraph centred at {}",
                        s.center
                    );
                }
            }
        }
    }

    /// Self-matching: every connected pattern strongly simulates itself, and the identity
    /// pairs appear in its dual-simulation relation with itself.
    #[test]
    fn patterns_match_themselves(q in pattern()) {
        let data = q.graph().clone();
        let dual = dual_simulation(&q, &data).expect("a pattern dual-simulates itself");
        for u in q.nodes() {
            prop_assert!(dual.contains(u, u));
        }
        let strong = strong_simulation(&q, &data, &MatchConfig::basic());
        prop_assert!(strong.is_match());
    }
}

/// Named regression for generator case 301 of
/// `strong_simulation_output_satisfies_the_topology_criteria` (the pre-existing nightly
/// failure at `PROPTEST_CASES ≥ 302`): a pattern whose only undirected cycle repeats a
/// label (`u0` and `u4` both carry label 0 on the cycle `u0–u1–u4–u2`), matched by data
/// where the cycle folds — both map to data node 3 — so the perfect subgraph is a star,
/// not a cycle. This is a genuine boundary of Theorem 3, not an engine bug: dual
/// simulation only guarantees undirected-cycle preservation for patterns with a directed
/// cycle or a label-distinct undirected cycle, and the criterion now claims exactly that.
#[test]
fn case_301_repeated_label_cycle_folds() {
    let data = Graph::from_edges(
        [
            0u32, 0, 1, 0, 3, 1, 0, 2, 2, 0, 3, 0, 3, 2, 3, 0, 0, 0, 2, 2, 3, 3,
        ]
        .into_iter()
        .map(Label)
        .collect(),
        &[
            (0, 1),
            (0, 13),
            (0, 19),
            (3, 5),
            (3, 19),
            (4, 8),
            (4, 11),
            (5, 0),
            (5, 3),
            (5, 19),
            (6, 2),
            (6, 21),
            (7, 16),
            (8, 15),
            (9, 16),
            (10, 1),
            (10, 3),
            (10, 5),
            (10, 7),
            (10, 12),
            (10, 18),
            (11, 5),
            (12, 10),
            (12, 11),
            (13, 1),
            (14, 5),
            (15, 8),
            (15, 11),
            (15, 14),
            (15, 15),
            (15, 19),
            (16, 19),
            (18, 8),
            (19, 10),
            (20, 15),
            (21, 13),
        ],
    )
    .unwrap();
    let q = Pattern::from_edges(
        vec![Label(0), Label(1), Label(3), Label(2), Label(0)],
        &[(0, 1), (0, 3), (2, 0), (2, 4), (4, 1)],
    )
    .unwrap();
    // The pattern's one undirected cycle (u0-u1-u4-u2) repeats label 0 on u0/u4 and the
    // pattern has no directed cycle: Theorem 3's guarantee does not apply.
    assert!(ssim_graph::cycles::has_undirected_cycle(q.graph()));
    assert!(!ssim_graph::cycles::has_directed_cycle(q.graph()));
    assert!(!undirected_cycle_guarantee_applies(
        &q,
        RepetitionSemantics::Free
    ));
    // The fold is real: the engine finds subgraphs whose relation maps both u0 and u4
    // to data node 3, and the subgraphs are trees (star around node 3, no cycle).
    let output = strong_simulation(&q, &data, &MatchConfig::basic());
    assert!(output.is_match());
    for s in &output.subgraphs {
        assert!(s.relation.contains(&(NodeId(0), NodeId(3))));
        assert!(s.relation.contains(&(NodeId(4), NodeId(3))));
        let (sub, _) = data.subgraph_with_edges(&s.nodes, &s.edges);
        assert!(
            !ssim_graph::cycles::has_undirected_cycle(&sub),
            "case 301's perfect subgraphs are cycle-free by construction"
        );
    }
    // The tightened criterion accepts the fold: every Table 2 column holds.
    let report = TopologyReport::evaluate(&q, &data, &output);
    assert!(report.undirected_cycles, "fold must not trip the criterion");
    assert!(report.all_preserved(), "{report:?}");
}

/// The case-301 boundary, closed: on data holding both a *foldable* star realisation of
/// the repeated-label cycle and a *genuine* (node-distinct) one, `Free` still folds —
/// the star component matches with a cycle-free subgraph — while
/// `RepetitionSemantics::Distinct` discards the fold and keeps exactly the matches that
/// realise the cycle with distinct data nodes, reinstating the Theorem 3 guarantee the
/// `Free` semantics provably loses.
#[test]
fn case_301_repeated_label_cycle_preserved_under_distinct() {
    // The case-301 pattern shape: one undirected cycle u0-u1-u4-u2 with l(u0) = l(u4),
    // no directed cycle.
    let q = Pattern::from_edges(
        vec![Label(0), Label(1), Label(3), Label(2), Label(0)],
        &[(0, 1), (0, 3), (2, 0), (2, 4), (4, 1)],
    )
    .unwrap();
    assert!(undirected_cycle_guarantee_applies(
        &q,
        RepetitionSemantics::Distinct
    ));
    // Component A (nodes 0-3): the minimal fold — both label-0 pattern nodes land on
    // data node 0, so the matched star has no cycle. Component B (nodes 4-8): a
    // node-distinct copy of the pattern itself, whose cycle survives injectively.
    let data = Graph::from_edges(
        vec![
            Label(0), // 0: the fold target (u0 and u4 both map here under Free)
            Label(1), // 1
            Label(3), // 2
            Label(2), // 3
            Label(0), // 4: genuine u0
            Label(1), // 5: genuine u1
            Label(3), // 6: genuine u2
            Label(2), // 7: genuine u3
            Label(0), // 8: genuine u4
        ],
        &[
            // fold component: x2 -> x0 -> {x1, x3}
            (2, 0),
            (0, 1),
            (0, 3),
            // genuine component: the pattern's own edge set shifted by 4
            (4, 5),
            (4, 7),
            (6, 4),
            (6, 8),
            (8, 5),
        ],
    )
    .unwrap();

    // Under Free both components match, and the fold component's subgraph is cycle-free
    // — the boundary as documented since PR 5.
    let free = strong_simulation(&q, &data, &MatchConfig::basic());
    assert!(free.is_match());
    let folded: Vec<_> = free
        .subgraphs
        .iter()
        .filter(|s| s.nodes.contains(&NodeId(0)))
        .collect();
    assert!(
        !folded.is_empty(),
        "the fold component must match under Free"
    );
    for s in &folded {
        assert!(s.relation.contains(&(NodeId(0), NodeId(0))));
        assert!(s.relation.contains(&(NodeId(4), NodeId(0))));
        let (sub, _) = data.subgraph_with_edges(&s.nodes, &s.edges);
        assert!(!ssim_graph::cycles::has_undirected_cycle(&sub));
    }

    // Under Distinct the fold is rejected — no subgraph touches the star component —
    // and every surviving match realises the cycle with distinct data nodes.
    let distinct = strong_simulation(
        &q,
        &data,
        &MatchConfig::basic().with_repetition(RepetitionSemantics::Distinct),
    );
    assert_eq!(distinct.stats.repetition_bailed_balls, 0);
    assert!(distinct.is_match(), "the genuine cycle must still match");
    for s in &distinct.subgraphs {
        assert!(
            !s.nodes.contains(&NodeId(0)),
            "Distinct must discard the folded star"
        );
        // u0 and u4 are realised by distinct data nodes in every surviving relation.
        let u0: Vec<_> = s.relation.iter().filter(|(u, _)| *u == NodeId(0)).collect();
        let u4: Vec<_> = s.relation.iter().filter(|(u, _)| *u == NodeId(4)).collect();
        assert!(!u0.is_empty() && !u4.is_empty());
        for (_, v0) in &u0 {
            for (_, v4) in &u4 {
                assert_ne!(v0, v4, "equal-label class folded under Distinct");
            }
        }
        let (sub, _) = data.subgraph_with_edges(&s.nodes, &s.edges);
        assert!(
            ssim_graph::cycles::has_undirected_cycle(&sub),
            "Distinct subgraph centred at {} lost the cycle",
            s.center
        );
    }
    // The semantics-aware Table 2 report accepts the Distinct output in full.
    let report =
        TopologyReport::evaluate_under(&q, &data, &distinct, RepetitionSemantics::Distinct);
    assert!(report.all_preserved(), "{report:?}");
}
