//! Differential properties of the label-repetition semantics
//! ([`ssim_core::RepetitionSemantics`]) — the fourth oracle axis.
//!
//! Strong simulation's maximum relation deliberately ignores how many pattern nodes
//! share a label; `Distinct`/`Equal` constrain equal-labelled pattern nodes to distinct
//! (resp. one) data node(s) per match witness. Like every prior axis the semantics is
//! implemented twice — the integrated witness-closure threaded through the engine and a
//! naive per-pair oracle — and the two must be *bit-identical* at every point of the
//! four-axis oracle matrix: `RefineStrategy` × `BallSubstrate` × `UpdatePlan` ×
//! `RepetitionSemantics`, sequential, parallel and distributed, before and after a
//! `GraphDelta`. The shared driver lives in
//! `tests/common/` ([`common::check_matrix_point`]).
//!
//! The budget/bail contract is pinned too: when the product of candidate-set sizes over
//! the pattern nodes exceeds [`ssim_core::REPETITION_BUDGET`], the ball skips
//! enforcement (behaving as `Free`) and reports itself in
//! `MatchStats::repetition_bailed_balls` — identically in both modes, because the
//! decision reads only the converged candidate-set sizes.

mod common;

use proptest::prelude::*;
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_core::{has_repeated_labels, RepetitionMode, RepetitionSemantics};
use ssim_graph::{Graph, GraphDelta, Label, Pattern};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: at a random point of the four-axis matrix, the integrated
    /// repetition path and the naive per-ball oracle return bit-identical
    /// `MatchOutput`s — one-shot, through incremental sessions across a random delta
    /// (both update plans), and through the distributed runtime.
    #[test]
    fn integrated_and_naive_oracle_agree_across_the_matrix(
        data in common::data_graph(),
        q in common::pattern(),
        picks in proptest::collection::vec(any::<u64>(), 1..6),
        shape_bits in any::<u64>(),
        semantics_bits in any::<u64>(),
        sites in 1usize..4,
    ) {
        let delta = common::random_delta(&data, &picks);
        let semantics = common::matrix_semantics(semantics_bits);
        common::check_matrix_point(&q, &data, &delta, shape_bits, semantics, sites)?;
    }

    /// On label-distinct patterns the repetition closure is a gated no-op: `Distinct`
    /// (and `Equal`) are bit-identical to `Free` — counters included — so the repetition
    /// axis costs nothing on the workloads the paper studies.
    #[test]
    fn non_free_semantics_gate_out_on_label_distinct_patterns(
        data in common::data_graph(),
        q in common::pattern_sized(5, 8),
        shape_bits in any::<u64>(),
    ) {
        // The 8-symbol alphabet on ≤4-node patterns makes label-distinct draws common;
        // repeated-label draws simply pass (they are the other properties' subject).
        if !has_repeated_labels(&q) {
            let base = common::matrix_config(shape_bits);
            let free = strong_simulation(&q, &data, &base);
            for semantics in [RepetitionSemantics::Distinct, RepetitionSemantics::Equal] {
                for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
                    let out = strong_simulation(
                        &q,
                        &data,
                        &base.with_repetition(semantics).with_repetition_mode(mode),
                    );
                    common::assert_bit_identical(&out, &free, "gated no-op vs Free")?;
                    prop_assert_eq!(out.stats.repetition_filtered_pairs, 0);
                    prop_assert_eq!(out.stats.repetition_bailed_balls, 0);
                }
            }
        }
    }

    /// `Free` is the `seed_reference` pole: setting it explicitly (in either mode)
    /// never changes anything, on any pattern.
    #[test]
    fn free_pole_is_inert(
        data in common::data_graph(),
        q in common::pattern(),
        shape_bits in any::<u64>(),
    ) {
        let base = common::matrix_config(shape_bits);
        let plain = strong_simulation(&q, &data, &base);
        for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
            let out = strong_simulation(
                &q,
                &data,
                &base
                    .with_repetition(RepetitionSemantics::Free)
                    .with_repetition_mode(mode),
            );
            common::assert_bit_identical(&out, &plain, "explicit Free vs default")?;
        }
    }
}

/// A small equal-label community corpus: `communities` star-shaped clusters whose hub
/// and members all carry label 0, chained by label-1 bridges — dense repeated-label
/// balls without blowing the witness budget.
fn equal_label_communities(communities: usize, members: usize) -> Graph {
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
            edges.push((bridge, hub + (members as u32) + 2));
        }
    }
    Graph::from_edges(labels, &edges).unwrap()
}

/// The deterministic matrix smoke (named from when the matrix had six axes): every
/// shape-bit combination of the matrix driver (both partition strategies included),
/// every semantics, on a fixed repeated-label corpus and pattern with a fixed delta —
/// the CI job that exercises cross-axis composition on every PR without proptest's
/// runtime.
#[test]
fn six_axis_matrix_smoke() {
    let data = equal_label_communities(4, 3);
    // A 2-path with both endpoints on the repeated label: u0(0) -> u1(0) -> u2(1).
    let q = Pattern::from_edges(vec![Label(0), Label(0), Label(1)], &[(0, 1), (1, 2)]).unwrap();
    assert!(has_repeated_labels(&q));
    let mut delta = GraphDelta::new();
    let (s, t) = data.edges().next().expect("corpus has edges");
    delta.delete_edge_labeled(s, t, data.label(s), data.label(t));
    for shape_bits in 0..64u64 {
        for semantics in [
            RepetitionSemantics::Free,
            RepetitionSemantics::Distinct,
            RepetitionSemantics::Equal,
        ] {
            common::check_matrix_point(&q, &data, &delta, shape_bits, semantics, 2)
                .unwrap_or_else(|e| panic!("matrix point {shape_bits:#b} {semantics:?}: {e}"));
        }
    }
}

/// The budget/bail contract: a ball whose candidate-set product exceeds the witness
/// budget skips enforcement — identically in both modes — and the output degrades to
/// `Free` exactly, with the bail surfaced in the stats.
#[test]
fn budget_bail_is_mode_identical_and_degrades_to_free() {
    // A 40-node label-0 clique: each ball's relation keeps all 40 candidates for every
    // of the 4 pattern nodes, so the precondition product is 40^4 ≈ 2.56M > 2^18.
    let n = 40u32;
    let labels: Vec<Label> = (0..n).map(|_| Label(0)).collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                edges.push((i, j));
            }
        }
    }
    let data = Graph::from_edges(labels, &edges).unwrap();
    let q = Pattern::from_edges(
        vec![Label(0), Label(0), Label(0), Label(0)],
        &[(0, 1), (1, 2), (2, 3)],
    )
    .unwrap();
    let free = strong_simulation(&q, &data, &MatchConfig::basic().sequential());
    for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
        let out = strong_simulation(
            &q,
            &data,
            &MatchConfig::basic()
                .sequential()
                .with_repetition(RepetitionSemantics::Distinct)
                .with_repetition_mode(mode),
        );
        assert!(
            out.stats.repetition_bailed_balls > 0,
            "{mode:?}: clique balls must exceed the witness budget"
        );
        assert_eq!(out.stats.repetition_filtered_pairs, 0);
        assert_eq!(
            out.subgraphs, free.subgraphs,
            "{mode:?}: bailed balls must behave exactly like Free"
        );
    }
}

/// `Equal` genuinely diverges from both `Free` and `Distinct`: on a loop-free chain, a
/// repeated-label chain pattern needs a self-loop once its class collapses, so `Equal`
/// rejects what `Distinct` accepts.
#[test]
fn equal_and_distinct_diverge_on_the_chain() {
    let q = Pattern::from_edges(
        vec![Label(0), Label(1), Label(1), Label(2)],
        &[(0, 1), (1, 2), (2, 3)],
    )
    .unwrap();
    let data = Graph::from_edges(
        vec![Label(0), Label(1), Label(1), Label(2)],
        &[(0, 1), (1, 2), (2, 3)],
    )
    .unwrap();
    let free = strong_simulation(&q, &data, &MatchConfig::basic());
    assert!(free.is_match());
    for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
        let distinct = strong_simulation(
            &q,
            &data,
            &MatchConfig::basic()
                .with_repetition(RepetitionSemantics::Distinct)
                .with_repetition_mode(mode),
        );
        assert!(distinct.is_match(), "{mode:?}: the chain realises Distinct");
        let equal = strong_simulation(
            &q,
            &data,
            &MatchConfig::basic()
                .with_repetition(RepetitionSemantics::Equal)
                .with_repetition_mode(mode),
        );
        assert!(
            !equal.is_match(),
            "{mode:?}: collapsing the class needs a self-loop the chain lacks"
        );
    }
}
