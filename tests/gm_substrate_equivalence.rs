//! Differential properties of the match-graph ball substrate
//! ([`ssim_core::BallSubstrate`]) — one of the four oracle axes.
//!
//! With the dual filter on, the engine extracts the matched-node set once as a dense
//! renumbered subgraph `Gm` ([`ssim_graph::ExtractedSubgraph`]) and builds its balls
//! inside it (Fig. 5 of the paper): membership, distances and borders are taken w.r.t.
//! `Gm`. These properties pin the layer at three levels, with the other oracle axes held
//! fixed:
//!
//! * **extraction layer** — the straight CSR-to-CSR extraction is bit-identical to the
//!   builder-based [`ssim_graph::Graph::induced_subgraph`] oracle (labels, adjacency,
//!   label index, id mapping);
//! * **ball layer** — balls built inside the extraction equal balls built on a
//!   materialized copy of the same subgraph: members, center distances and borders;
//! * **match layer** — `strong_simulation` returns identical `MatchOutput`s under
//!   [`BallSubstrate::MatchGraph`] and the [`BallSubstrate::FullGraph`] oracle, across
//!   {seq, par, distributed} × both `RefineStrategy`s × plain/optimised `Match`, and the
//!   skipped-vs-considered accounting sums to `|V|` on both substrates.
//!
//! # The locality criterion
//!
//! The substrates' per-center outputs provably coincide whenever every full-substrate
//! extracted subgraph lies within `Gm`-distance `dQ` of its center: support chains and
//! match edges only ever connect matched candidates, so in-ball refinement decomposes
//! over `Gm`'s components and the ball *membership* is the only difference between the
//! substrates — and under the criterion the memberships agree on everything the output
//! depends on. Unconditionally, the `Gm` result is *contained* in the full-graph result
//! per center (smaller membership ⇒ smaller maximum relation ⇒ smaller component).
//!
//! Arbitrary random edge soups can violate the criterion (matched regions bridged only
//! by unmatched shortcut paths — Fig. 5's balls then localise harder than full-graph
//! balls; roughly one case in several hundred of the `data_graph()` generator below),
//! so the match-layer properties assert bit-identity exactly where the criterion holds
//! and the containment relation where it does not. Every shipped corpus — the paper
//! figures, the workload generators, the bench rows — satisfies the criterion
//! everywhere, which the deterministic tests pin; a boundary regression documents the
//! minimal violating shape so future sessions don't mistake the semantics for a bug.

mod common;

use common::{data_graph, pattern, skewed_case};
use proptest::prelude::*;
use ssim_core::dual::dual_simulation;
use ssim_core::dual_filter::refine_projected;
use ssim_core::gm::{match_gm_ball, GmSubstrate};
use ssim_core::incremental::{PatternState, PreparedGlobal};
use ssim_core::pruning::prune_by_connectivity;
use ssim_core::strong::{
    match_compact_ball_filtered, match_with_prepared, strong_simulation, MatchConfig, MatchOutput,
};
use ssim_core::{BallSubstrate, RefineStrategy, RepetitionMode, RepetitionSemantics};
use ssim_distributed::{distributed_strong_simulation, DistributedConfig, PartitionStrategy};
use ssim_graph::{
    Ball, BallScratch, BitSet, CompactBall, ExtractedSubgraph, Graph, Label, NodeId, OverlayGraph,
    Pattern,
};

/// Returns `true` when every node of `subgraph` lies within `Gm`-distance `radius` of
/// its center — the provable bit-identity criterion (see the module docs).
fn within_gm_ball(
    gm: &ExtractedSubgraph,
    subgraph: &ssim_core::PerfectSubgraph,
    radius: usize,
    scratch: &mut BallScratch,
) -> bool {
    let Some(center) = gm.inner_of(subgraph.center) else {
        return false;
    };
    let ball = CompactBall::build(gm.graph(), center, radius, scratch);
    let covered = subgraph
        .nodes
        .iter()
        .all(|&n| gm.inner_of(n).is_some_and(|i| ball.local_of(i).is_some()));
    ball.recycle(scratch);
    covered
}

/// Compares the substrates' subgraph lists under the locality criterion: bit-identical
/// at every criterion-satisfying center, contained (nodes/edges/relation subsets, at a
/// center the full substrate also extracted) everywhere else.
fn assert_substrate_subgraphs(
    gm_subs: &[ssim_core::PerfectSubgraph],
    full_subs: &[ssim_core::PerfectSubgraph],
    gm: &ExtractedSubgraph,
    radius: usize,
    context: &str,
) -> Result<(), String> {
    use std::collections::BTreeMap;
    let full_by_center: BTreeMap<NodeId, &ssim_core::PerfectSubgraph> =
        full_subs.iter().map(|s| (s.center, s)).collect();
    let gm_by_center: BTreeMap<NodeId, &ssim_core::PerfectSubgraph> =
        gm_subs.iter().map(|s| (s.center, s)).collect();
    prop_assert!(
        gm_subs.len() <= full_subs.len(),
        "{context}: Gm extracted more subgraphs than the full substrate"
    );
    // Unconditional containment: every Gm subgraph sits inside the full one.
    for s in gm_subs {
        let Some(f) = full_by_center.get(&s.center) else {
            return Err(format!(
                "{context}: Gm extracted at center {} where the full substrate did not",
                s.center
            ));
        };
        let f_nodes: std::collections::BTreeSet<_> = f.nodes.iter().collect();
        prop_assert!(
            s.nodes.iter().all(|n| f_nodes.contains(n)),
            "{context}: Gm nodes at {} escape the full subgraph",
            s.center
        );
        let f_edges: std::collections::BTreeSet<_> = f.edges.iter().collect();
        prop_assert!(
            s.edges.iter().all(|e| f_edges.contains(e)),
            "{context}: Gm edges at {} escape the full subgraph",
            s.center
        );
        let f_rel: std::collections::BTreeSet<_> = f.relation.iter().collect();
        prop_assert!(
            s.relation.iter().all(|p| f_rel.contains(p)),
            "{context}: Gm relation at {} escapes the full subgraph",
            s.center
        );
    }
    // Bit-identity wherever the criterion holds.
    let mut scratch = BallScratch::new();
    for f in full_subs {
        if !within_gm_ball(gm, f, radius, &mut scratch) {
            continue;
        }
        let Some(s) = gm_by_center.get(&f.center) else {
            return Err(format!(
                "{context}: criterion holds at center {} but Gm extracted nothing",
                f.center
            ));
        };
        prop_assert!(s.radius == f.radius, "{context}: radii differ");
        prop_assert_eq!(&s.nodes, &f.nodes);
        prop_assert_eq!(&s.edges, &f.edges);
        prop_assert_eq!(&s.relation, &f.relation);
    }
    Ok(())
}

/// Asserts the substrate-independent work accounting agrees and compares the subgraphs
/// under the locality criterion.
fn assert_same_output(
    a: &MatchOutput,
    b: &MatchOutput,
    gm: &ExtractedSubgraph,
    radius: usize,
    context: &str,
) -> Result<(), String> {
    assert_substrate_subgraphs(&a.subgraphs, &b.subgraphs, gm, radius, context)?;
    prop_assert_eq!(a.stats.balls_considered, b.stats.balls_considered);
    prop_assert_eq!(a.stats.balls_processed, b.stats.balls_processed);
    prop_assert_eq!(a.stats.balls_skipped, b.stats.balls_skipped);
    prop_assert_eq!(a.stats.radius, b.stats.radius);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Extraction layer: the CSR-to-CSR extraction equals the builder-based
    /// `induced_subgraph` oracle for arbitrary membership sets.
    #[test]
    fn extraction_equals_builder_induced_subgraph(
        data in data_graph(),
        member_bits in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let mut members = BitSet::new(data.node_count());
        for (i, &b) in member_bits.iter().take(data.node_count()).enumerate() {
            if b {
                members.insert(i);
            }
        }
        let sub = ExtractedSubgraph::induced(&data, &members);
        let member_ids: Vec<NodeId> = members.iter().map(NodeId::from_index).collect();
        let (oracle, mapping) = data.induced_subgraph(&member_ids);
        prop_assert_eq!(sub.node_count(), oracle.node_count());
        prop_assert_eq!(sub.edge_count(), oracle.edge_count());
        prop_assert_eq!(sub.to_outer(), mapping.as_slice());
        for v in oracle.nodes() {
            prop_assert!(sub.graph().label(v) == oracle.label(v), "label of {v}");
            let got: Vec<NodeId> = sub.graph().out_neighbors(v).collect();
            let want: Vec<NodeId> = oracle.out_neighbors(v).collect();
            prop_assert!(got == want, "out-adjacency of {v}: {got:?} vs {want:?}");
            let got: Vec<NodeId> = sub.graph().in_neighbors(v).collect();
            let want: Vec<NodeId> = oracle.in_neighbors(v).collect();
            prop_assert!(got == want, "in-adjacency of {v}: {got:?} vs {want:?}");
        }
        for label in 0..5u32 {
            prop_assert!(
                sub.graph().nodes_with_label(Label(label))
                    == oracle.nodes_with_label(Label(label)),
                "label index of {label}"
            );
        }
        // Id translation round-trips and non-members translate to nothing.
        for v in sub.graph().nodes() {
            prop_assert_eq!(sub.inner_of(sub.outer_of(v)), Some(v));
        }
        for outer in data.nodes() {
            prop_assert!(sub.inner_of(outer).is_some() == members.contains(outer.index()));
        }
    }

    /// Ball layer: balls built inside the extraction — the ball pipeline's substrate —
    /// equal balls built on a materialized copy of `Gm`: members, distances and borders.
    #[test]
    fn gm_balls_equal_materialized_oracle(
        data in data_graph(),
        q in pattern(),
        radius in 0usize..4,
    ) {
        let Some(global) = dual_simulation(&q, &data) else {
            return Ok(()); // nothing matches: no Gm to compare
        };
        let matched = global.matched_data_nodes();
        let gm = ExtractedSubgraph::induced(&data, &matched);
        let member_ids: Vec<NodeId> = matched.iter().map(NodeId::from_index).collect();
        let (oracle_gm, _) = data.induced_subgraph(&member_ids);
        let mut scratch = BallScratch::new();
        for center in gm.graph().nodes() {
            let ball = CompactBall::build(gm.graph(), center, radius, &mut scratch);
            let oracle = Ball::new(&oracle_gm, center, radius);
            let mut got: Vec<NodeId> = ball.to_global().to_vec();
            got.sort_unstable();
            let mut want: Vec<NodeId> = oracle.members().to_vec();
            want.sort_unstable();
            prop_assert!(
                got == want,
                "members of gm-ball({center}, {radius}): {got:?} vs {want:?}"
            );
            for &m in oracle.members() {
                let local = ball.local_of(m).expect("member has a local id");
                // CompactBall lists members in BFS order with distances implied by
                // construction; re-derive via the border rule below and the oracle's
                // distance for the full check.
                let d = oracle.distance(m).expect("member has a distance");
                let on_border = ball.border().contains(&local);
                prop_assert!(
                    on_border == (d == radius),
                    "border of {} in gm-ball({}, {}): oracle distance {}",
                    m, center, radius, d
                );
            }
        }
    }

    /// Match layer: the substrates produce identical outputs for plain-with-filter and
    /// fully optimised `Match`, both refinement strategies, sequential and parallel, on
    /// the default engine.
    #[test]
    fn substrates_agree_on_match_output(data in data_graph(), q in pattern()) {
        let Some(global) = dual_simulation(&q, &data) else {
            // Nothing dual-simulates: both substrates skip every ball.
            let out = strong_simulation(&q, &data, &MatchConfig::optimized());
            prop_assert!(out.subgraphs.is_empty());
            prop_assert_eq!(out.stats.balls_skipped, data.node_count());
            return Ok(());
        };
        let gm_sub = ExtractedSubgraph::induced(&data, &global.matched_data_nodes());
        let radius = q.diameter();
        let bases = [
            MatchConfig {
                dual_filter: true,
                ..MatchConfig::basic()
            },
            MatchConfig::optimized(),
        ];
        for base in bases {
            for strategy in [RefineStrategy::Worklist, RefineStrategy::NaiveFixpoint] {
                let base = base.with_refine_strategy(strategy);
                let full = strong_simulation(
                    &q,
                    &data,
                    &base.sequential().with_ball_substrate(BallSubstrate::FullGraph),
                );
                let gm_seq = strong_simulation(
                    &q,
                    &data,
                    &base.sequential().with_ball_substrate(BallSubstrate::MatchGraph),
                );
                assert_same_output(&gm_seq, &full, &gm_sub, radius, "gm seq vs full")?;
                // The substrate-axis invariants: centers are the Gm nodes, and the
                // skipped/considered split is identical on both sides.
                prop_assert_eq!(gm_seq.stats.gm_nodes, gm_seq.stats.balls_processed);
                prop_assert_eq!(gm_seq.stats.gm_nodes, gm_sub.node_count());
                prop_assert_eq!(gm_seq.stats.gm_edges, gm_sub.edge_count());
                prop_assert_eq!(full.stats.gm_nodes, 0);
                prop_assert_eq!(
                    gm_seq.stats.balls_processed + gm_seq.stats.balls_skipped,
                    data.node_count()
                );
                for workers in [2usize, 5] {
                    let gm_par = strong_simulation(
                        &q,
                        &data,
                        &base
                            .with_thread_limit(workers)
                            .with_ball_substrate(BallSubstrate::MatchGraph),
                    );
                    assert_same_output(&gm_par, &full, &gm_sub, radius, "gm par vs full")?;
                    // Within the substrate, parallelism is exact: the parallel Gm run
                    // equals the sequential Gm run bit for bit.
                    prop_assert_eq!(gm_par.subgraphs.len(), gm_seq.subgraphs.len());
                    for (x, y) in gm_par.subgraphs.iter().zip(&gm_seq.subgraphs) {
                        prop_assert_eq!(&x.nodes, &y.nodes);
                        prop_assert_eq!(&x.edges, &y.edges);
                        prop_assert_eq!(&x.relation, &y.relation);
                    }
                }
            }
        }
    }

    /// The substrate axis composes with the other oracle axes: the legacy `|V|`-sized
    /// engine, alone and with the naive fixpoint, agrees across substrates.
    #[test]
    fn substrates_agree_with_other_axes_pinned_to_oracles(data in data_graph(), q in pattern()) {
        let Some(global) = dual_simulation(&q, &data) else {
            return Ok(());
        };
        let gm_sub = ExtractedSubgraph::induced(&data, &global.matched_data_nodes());
        let radius = q.diameter();
        let shapes = [
            MatchConfig {
                dual_filter: true,
                compact_balls: false,
                ..MatchConfig::basic()
            },
            MatchConfig {
                refine_strategy: RefineStrategy::NaiveFixpoint,
                compact_balls: false,
                dual_filter: true,
                ..MatchConfig::basic()
            },
        ];
        for shape in shapes {
            let full = strong_simulation(
                &q,
                &data,
                &shape.sequential().with_ball_substrate(BallSubstrate::FullGraph),
            );
            let gm = strong_simulation(
                &q,
                &data,
                &shape.sequential().with_ball_substrate(BallSubstrate::MatchGraph),
            );
            assert_same_output(&gm, &full, &gm_sub, radius, "axis-pinned gm vs full")?;
        }
    }

    /// The distributed runtime agrees across substrates under the dual filter, for every
    /// partition strategy and site count, and its skipped-vs-considered accounting sums
    /// to `|V|` on both substrates.
    #[test]
    fn substrates_agree_through_the_distributed_runtime(
        data in data_graph(),
        q in pattern(),
        sites in 1usize..5,
    ) {
        let Some(global) = dual_simulation(&q, &data) else {
            return Ok(());
        };
        let gm_sub = ExtractedSubgraph::induced(&data, &global.matched_data_nodes());
        let radius = q.diameter();
        // The config layer rejects sites > |V| now; the strategy may draw more sites
        // than the smallest graphs have nodes.
        let sites = sites.min(data.node_count());
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
            let base = DistributedConfig {
                sites,
                strategy,
                minimize_query: false,
                dual_filter: true,
                ..DistributedConfig::default()
            };
            let gm = distributed_strong_simulation(&q, &data, &base)
                .expect("valid distributed config");
            let full = distributed_strong_simulation(
                &q,
                &data,
                &DistributedConfig {
                    ball_substrate: BallSubstrate::FullGraph,
                    ..base
                },
            )
            .expect("valid distributed config");
            assert_substrate_subgraphs(
                &gm.subgraphs,
                &full.subgraphs,
                &gm_sub,
                radius,
                "distributed gm vs full",
            )?;
            for out in [&gm, &full] {
                let evaluated: usize = out.traffic.balls_per_site.iter().sum();
                prop_assert_eq!(out.traffic.considered_balls, data.node_count());
                prop_assert_eq!(out.traffic.skipped_balls + evaluated, data.node_count());
                prop_assert_eq!(out.traffic.built_balls, evaluated);
            }
            prop_assert_eq!(gm.traffic.skipped_balls, full.traffic.skipped_balls);
        }
    }
}

/// Checks every ball of `q`'s `Gm` over `data` at `radius`:
///
/// * connectivity pruning returns the projection unchanged — every `Gm` node is a
///   candidate and a `Gm` ball is the BFS closure of its center, which is why the engine
///   skips the pass on `Gm` balls (a substrate with non-candidate nodes would break
///   this, and the skip with it);
/// * the candidate-list path ([`match_gm_ball`]) and the raw-CSR reference
///   (`refine_projected` + `extract_max_perfect_subgraph`) agree on the row, the removed
///   pairs and the seeded pairs.
fn check_gm_ball_paths(data: &Graph, q: &Pattern, radius: usize) -> Result<(), String> {
    let Some(global) = dual_simulation(q, data) else {
        return Ok(());
    };
    let (sub, inner) = global.extract_matched_subgraph(data, &mut BitSet::new(0));
    let gm = GmSubstrate::new(q, sub, inner);
    let mut scratch = BallScratch::new();
    for center in gm.graph().nodes() {
        let ball = CompactBall::build(gm.graph(), center, radius, &mut scratch);
        let view = ball.view(gm.graph());
        let start = gm.relation().project_compact(&ball);
        let pruned = prune_by_connectivity(q, &view, ball.center(), &start);
        prop_assert!(
            pruned.as_ref() == Some(&start),
            "pruning changed the projection of Gm ball ({center}, {radius})"
        );
        let seeded = start.pair_count();
        let mut removed = 0usize;
        let _ = refine_projected(q, &view, ball.border(), start, Some(&mut removed));
        let want = match_compact_ball_filtered(q, &ball, gm.graph(), gm.relation());
        let (got, got_removed, got_seeded, _) = match_gm_ball(
            q,
            &ball,
            &gm,
            RepetitionSemantics::Free,
            RepetitionMode::Integrated,
        );
        prop_assert!(got == want, "rows of Gm ball ({center}, {radius}) differ");
        prop_assert_eq!(got_removed, removed);
        prop_assert_eq!(got_seeded, seeded);
        ball.recycle(&mut scratch);
    }
    Ok(())
}

proptest! {
    // Cheap (a few milliseconds), and cascades deep enough to tell the paths apart are
    // rare on graphs this small, so these run more cases than the suites above.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-ball paths agree on every `Gm` ball of random edge soups.
    #[test]
    fn gm_ball_paths_agree_on_random_graphs(
        data in data_graph(),
        q in pattern(),
        radius in 0usize..2,
    ) {
        check_gm_ball_paths(&data, &q, radius)?;
        check_gm_ball_paths(&data, &q, q.diameter())?;
    }

    /// The per-ball paths agree on every `Gm` ball of Zipf-skewed graphs, whose carved
    /// patterns always match.
    #[test]
    fn gm_ball_paths_agree_on_skewed_graphs(case in skewed_case(), radius in 0usize..2) {
        let (data, q) = case;
        check_gm_ball_paths(&data, &q, radius)?;
        check_gm_ball_paths(&data, &q, q.diameter())?;
    }
}

// ---------------------------------------------------------------------------
// Deterministic regressions.
// ---------------------------------------------------------------------------

/// A prepared state without its `Gm` (the fields are public) used to panic under the
/// default substrate; the matcher now extracts `Gm` from the prepared fixpoint.
#[test]
fn prepared_state_without_gm_extracts_it() {
    let fig = ssim_datasets::paper::figure1();
    for config in [
        MatchConfig::optimized(),
        MatchConfig {
            dual_filter: true,
            ..MatchConfig::basic()
        },
    ] {
        let state = PatternState::new(
            &fig.pattern,
            &OverlayGraph::new(fig.data.clone()),
            config.minimize_query,
            config.radius_override,
            config.dual_filter,
            config.ball_substrate,
            config.refine_strategy,
        );
        let with_gm = state
            .prepared()
            .expect("the dual filter maintains a fixpoint");
        assert!(with_gm.gm.is_some());
        let without_gm = PreparedGlobal {
            gm: None,
            ..with_gm
        };
        let oneshot = strong_simulation(&fig.pattern, &fig.data, &config);
        let got = match_with_prepared(&fig.pattern, &fig.data, &config, Some(without_gm), None);
        let cached = match_with_prepared(&fig.pattern, &fig.data, &config, Some(with_gm), None);
        assert!(oneshot.is_match());
        assert_eq!(got, oneshot, "{config:?}");
        assert_eq!(got, cached, "{config:?}");
    }
}

/// Runs both substrates sequentially and asserts bit-identical outputs; returns the
/// match-graph-substrate output for extra assertions.
fn gm_equals_full(pattern: &Pattern, data: &Graph, config: MatchConfig) -> MatchOutput {
    let gm = strong_simulation(
        pattern,
        data,
        &config
            .sequential()
            .with_ball_substrate(BallSubstrate::MatchGraph),
    );
    let full = strong_simulation(
        pattern,
        data,
        &config
            .sequential()
            .with_ball_substrate(BallSubstrate::FullGraph),
    );
    assert_eq!(gm.subgraphs.len(), full.subgraphs.len(), "{config:?}");
    for (a, b) in gm.subgraphs.iter().zip(&full.subgraphs) {
        assert_eq!(a.center, b.center);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.relation, b.relation);
    }
    gm
}

/// A selective workload: a sparse matchable chain woven through a thick unmatchable
/// mesh — [`ssim_datasets::synthetic::selective_labels`], the same construction the
/// bench's `selective-labels` row runs at larger scale. The `Gm` fraction is below 10 %
/// and the matchable chain's `Gm` distances equal its data-graph distances, so the
/// substrates agree while the `Gm` balls are an order of magnitude smaller.
fn selective_chain(n: u32, stride: u32) -> (Graph, Pattern) {
    ssim_datasets::synthetic::selective_labels(n, stride, 3)
}

#[test]
fn selective_chain_agrees_and_extracts_a_small_gm() {
    let (data, pattern) = selective_chain(600, 12);
    let out = gm_equals_full(
        &pattern,
        &data,
        MatchConfig {
            dual_filter: true,
            ..MatchConfig::basic()
        },
    );
    assert!(out.is_match(), "the matchable chain must match");
    assert!(out.stats.gm_nodes > 0);
    assert!(
        out.stats.gm_nodes * 10 <= data.node_count(),
        "Gm fraction {}/{} is not selective",
        out.stats.gm_nodes,
        data.node_count()
    );
    assert_eq!(
        out.stats.balls_processed + out.stats.balls_skipped,
        data.node_count()
    );
    // The optimised configuration agrees too.
    let _ = gm_equals_full(&pattern, &data, MatchConfig::optimized());
}

#[test]
fn figure1_substrates_agree() {
    let fig = ssim_datasets::paper::figure1();
    for config in [
        MatchConfig {
            dual_filter: true,
            ..MatchConfig::basic()
        },
        MatchConfig::optimized(),
        MatchConfig::optimized().with_deduplication(),
    ] {
        let out = gm_equals_full(&fig.pattern, &fig.data, config);
        assert_eq!(out.stats.gm_nodes, out.stats.balls_processed);
    }
}

#[test]
fn substrate_is_inert_without_the_dual_filter() {
    // Without a global relation there is no Gm; both substrate settings must take the
    // identical full-graph path and record no extraction.
    let (data, pattern) = selective_chain(120, 12);
    let out = gm_equals_full(&pattern, &data, MatchConfig::basic());
    assert_eq!(out.stats.gm_nodes, 0);
    assert_eq!(out.stats.balls_skipped, 0);
}

/// The documented boundary of the oracle equivalence (see the module docs): two matched
/// clusters whose only *short* connection runs through unmatched shortcut nodes. Ball
/// membership w.r.t. `Gm` (Fig. 5) then localises harder than full-graph balls: the far
/// cluster sits within data-graph distance `dQ` of the center but beyond `Gm`-distance
/// `dQ`, so the full-graph ball keeps it while the `Gm` ball does not. Neither answer is
/// wrong — they realise different ball definitions — but the default substrate commits
/// to Fig. 5, and this regression pins the exact shape so the boundary stays visible.
#[test]
fn unmatched_shortcut_boundary_localises_harder_on_gm() {
    // Pattern: a(A) ⇄ b(B) ⇄ c(C); dQ = 2.
    let pattern = Pattern::from_edges(
        vec![Label(0), Label(1), Label(2)],
        &[(0, 1), (1, 0), (1, 2), (2, 1)],
    )
    .unwrap();
    // Data: matched chain w(A)=0 ⇄ x(B)=1 ⇄ y(C)=2 ⇄ x2(B)=3 ⇄ w2(A)=4 plus unmatched
    // shortcuts w -> u1(=5) -> x2 and w -> u2(=6) -> w2 that pull x2/w2 within
    // data-graph distance 2 of w; their Gm distances stay 3 and 4.
    let labels = vec![
        Label(0),
        Label(1),
        Label(2),
        Label(1),
        Label(0),
        Label(9),
        Label(9),
    ];
    let edges = [
        (0u32, 1u32),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 3),
        (3, 2),
        (3, 4),
        (4, 3),
        (0, 5),
        (5, 3),
        (0, 6),
        (6, 4),
    ];
    let data = Graph::from_edges(labels, &edges).unwrap();
    let config = MatchConfig {
        dual_filter: true,
        ..MatchConfig::basic()
    };
    let full = strong_simulation(
        &pattern,
        &data,
        &config
            .sequential()
            .with_ball_substrate(BallSubstrate::FullGraph),
    );
    let gm = strong_simulation(
        &pattern,
        &data,
        &config
            .sequential()
            .with_ball_substrate(BallSubstrate::MatchGraph),
    );
    // Every matched node survives the global filter; the divergence is per-ball.
    assert_eq!(gm.stats.balls_processed, 5);
    assert_eq!(full.stats.balls_processed, 5);
    let full_w = full
        .subgraphs
        .iter()
        .find(|s| s.center == NodeId(0))
        .unwrap();
    let gm_w = gm.subgraphs.iter().find(|s| s.center == NodeId(0)).unwrap();
    assert_eq!(
        full_w.nodes,
        vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
        "the full-graph ball reaches the far cluster through the shortcuts"
    );
    assert_eq!(
        gm_w.nodes,
        vec![NodeId(0), NodeId(1), NodeId(2)],
        "the Gm ball of radius dQ stops at the near cluster"
    );
    // On every center whose extracted subgraph stays within Gm-distance dQ, the outputs
    // coincide (the provable criterion): w2's ball sees only its own cluster either way.
    let full_w2 = full
        .subgraphs
        .iter()
        .find(|s| s.center == NodeId(4))
        .unwrap();
    let gm_w2 = gm.subgraphs.iter().find(|s| s.center == NodeId(4)).unwrap();
    assert_eq!(full_w2.nodes, gm_w2.nodes);
    assert_eq!(full_w2.relation, gm_w2.relation);
}
