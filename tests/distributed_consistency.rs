//! Distributed strong simulation (Section 4.3) agrees with the centralized algorithm.
//!
//! The paper's data-locality argument: strong simulation can be evaluated per ball, so a
//! partitioned evaluation that ships only boundary balls reproduces the centralized result.

mod common;

use proptest::prelude::*;
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_core::{BallSubstrate, RepetitionSemantics};
use ssim_datasets::paper;
use ssim_datasets::patterns::extract_pattern;
use ssim_datasets::reallike::amazon_like;
use ssim_datasets::synthetic::{synthetic, SyntheticConfig};
use ssim_distributed::{
    distributed_strong_simulation, DistributedConfig, GraphPartition, PartitionStrategy,
    RecoveryPolicy, RecoveryStats, TrafficStats,
};

#[test]
fn distributed_matches_centralized_across_sites_and_strategies() {
    let fig = paper::figure1();
    let central = strong_simulation(&fig.pattern, &fig.data, &MatchConfig::basic());
    for sites in [1usize, 2, 3, 4, 7] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
            for minimize_query in [false, true] {
                let out = distributed_strong_simulation(
                    &fig.pattern,
                    &fig.data,
                    &DistributedConfig {
                        sites,
                        strategy,
                        minimize_query,
                        ..DistributedConfig::default()
                    },
                )
                .expect("valid distributed config");
                assert_eq!(
                    central.matched_nodes(),
                    out.matched_nodes(),
                    "sites={sites} strategy={strategy:?} minQ={minimize_query}"
                );
                assert_eq!(central.subgraphs.len(), out.subgraphs.len());
            }
        }
    }
}

#[test]
fn distributed_matches_centralized_on_generated_workloads() {
    for seed in 0..4u64 {
        let data = synthetic(&SyntheticConfig {
            nodes: 150,
            alpha: 1.15,
            labels: 8,
            seed,
        });
        let Some(pattern) = extract_pattern(&data, 4, seed.wrapping_add(5)) else {
            continue;
        };
        let central = strong_simulation(&pattern, &data, &MatchConfig::basic());
        let out = distributed_strong_simulation(
            &pattern,
            &data,
            &DistributedConfig {
                sites: 5,
                strategy: PartitionStrategy::Hash,
                minimize_query: true,
                ..DistributedConfig::default()
            },
        )
        .expect("valid distributed config");
        assert_eq!(central.matched_nodes(), out.matched_nodes(), "seed={seed}");
    }
}

#[test]
fn traffic_accounting_is_consistent() {
    let data = amazon_like(220, 6);
    let pattern = extract_pattern(&data, 4, 1).expect("extraction succeeds");
    let out = distributed_strong_simulation(
        &pattern,
        &data,
        &DistributedConfig {
            sites: 4,
            strategy: PartitionStrategy::Range,
            minimize_query: false,
            ..DistributedConfig::default()
        },
    )
    .expect("valid distributed config");
    // Every node is the center of exactly one ball, evaluated at its home site.
    assert_eq!(
        out.traffic.balls_per_site.iter().sum::<usize>(),
        data.node_count()
    );
    assert_eq!(out.traffic.balls_per_site.len(), 4);
    // Shipped balls are a subset of all balls; shipping implies a non-zero node count.
    assert!(out.traffic.shipped_balls <= data.node_count());
    if out.traffic.shipped_balls > 0 {
        assert!(out.traffic.shipped_nodes >= out.traffic.shipped_balls);
    }
    assert_eq!(out.traffic.result_subgraphs, out.subgraphs.len());
    // The fragments partition the node set.
    assert_eq!(
        out.partition.fragment_sizes().iter().sum::<usize>(),
        data.node_count()
    );
}

#[test]
fn partition_invariants() {
    let data = synthetic(&SyntheticConfig {
        nodes: 97,
        alpha: 1.2,
        labels: 5,
        seed: 9,
    });
    for sites in [2usize, 3, 10] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Range] {
            let p = GraphPartition::new(&data, sites, strategy);
            assert_eq!(p.fragment_sizes().iter().sum::<usize>(), data.node_count());
            // Every node belongs to exactly one site, and border nodes are exactly the nodes
            // with a cross-fragment neighbour.
            for v in data.nodes() {
                let home = p.site_of(v);
                assert!(home < sites);
                let has_foreign_neighbor = data
                    .out_neighbors(v)
                    .chain(data.in_neighbors(v))
                    .any(|w| p.site_of(w) != home);
                assert_eq!(p.is_border_node(&data, v), has_foreign_neighbor);
            }
        }
    }
}

/// Zeroes the counters steal timing and supervision are allowed to perturb.
fn normalized(t: &TrafficStats) -> TrafficStats {
    TrafficStats {
        chunks_stolen: 0,
        recovery: RecoveryStats::default(),
        ..t.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Locality at the row level: for every site count, partition strategy and query
    /// switch, the distributed rows — class-expanded — are bit-identical to
    /// `strong_simulation` under the configuration the sites run
    /// (`DistributedConfig::match_config`); every considered center is either skipped
    /// or built exactly once at one site; and the supervision loop with a recovery
    /// policy and nothing scripted reports the same rows and traffic as without one.
    #[test]
    fn distributed_rows_equal_centralized_under_the_matching_config(
        (data, q) in common::skewed_case(),
        sites in 1usize..4,
        hash in any::<bool>(),
        dual_filter in any::<bool>(),
        full_graph in any::<bool>(),
        minimize_query in any::<bool>(),
        repetition in 0usize..3,
    ) {
        let config = DistributedConfig {
            sites,
            strategy: if hash { PartitionStrategy::Hash } else { PartitionStrategy::Range },
            minimize_query,
            dual_filter,
            ball_substrate: if full_graph {
                BallSubstrate::FullGraph
            } else {
                BallSubstrate::MatchGraph
            },
            repetition: [
                RepetitionSemantics::Free,
                RepetitionSemantics::Distinct,
                RepetitionSemantics::Equal,
            ][repetition],
            ..DistributedConfig::default()
        };
        let out = distributed_strong_simulation(&q, &data, &config).expect("sites <= |V|");
        let central = strong_simulation(&q, &data, &config.match_config());
        prop_assert_eq!(common::expand_classes(&q, minimize_query, &out.subgraphs), central.subgraphs);

        let t = &out.traffic;
        let evaluated: usize = t.balls_per_site.iter().sum();
        prop_assert_eq!(t.considered_balls, t.skipped_balls + evaluated);
        prop_assert_eq!(t.built_balls, evaluated);

        let supervised = distributed_strong_simulation(
            &q,
            &data,
            &DistributedConfig {
                recovery: Some(RecoveryPolicy::default()),
                ..config
            },
        )
        .expect("valid recovery policy");
        prop_assert_eq!(&supervised.subgraphs, &out.subgraphs);
        prop_assert_eq!(normalized(&supervised.traffic), normalized(t));
    }
}
