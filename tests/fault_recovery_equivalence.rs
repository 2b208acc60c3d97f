//! Chaos differential suite for the fault-tolerant distributed runtime.
//!
//! Every scenario is scripted through a seeded [`FaultPlan`], so every failure here is
//! replayable from its proptest seed. The properties mirror the recovery contract:
//!
//! * **Recoverable schedules** (≤ sites−1 crashes, per-chunk failures within the retry
//!   budget) complete with output **bit-identical** to the fault-free run — same
//!   subgraphs, same traffic up to the scheduling-dependent `chunks_stolen` and the
//!   recovery trace — and agree with the centralized matcher (sequential and parallel,
//!   both refine strategies), before and after a `GraphDelta`, one-shot and maintained
//!   by a `DistributedQueryService`.
//! * **Unrecoverable schedules** degrade exactly: `covered_balls + lost_balls == |V|`,
//!   the lost centers are reported, and the surviving subgraphs are precisely the
//!   fault-free rows minus the lost centers (a subset, pinned sharply).
//! * **Replay**: the same plan against the same input reproduces the same output and
//!   the same recovery counters, bit for bit.
//! * **No public entry point panics** on a scripted fault — runs complete, degrade, or
//!   return a typed `DistError`, never unwind.

mod common;

use common::{data_graph_sized, pattern, random_delta};
use proptest::prelude::*;
use ssim_core::strong::{strong_simulation, MatchConfig};
use ssim_core::RefineStrategy;
use ssim_distributed::{
    distributed_strong_simulation, distributed_with_faults, DistError, DistributedConfig,
    DistributedQueryService, FaultPlan, Partitioned, RecoveryPolicy, RecoveryStats, TrafficStats,
};
use ssim_graph::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Contained worker panics still run the global panic hook (they unwind on worker
/// threads, past libtest's output capture), so a chaos run would spew hundreds of
/// "injected fault" backtraces. Suppress exactly those payloads; real panics keep the
/// default reporting.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&'static str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if message.is_some_and(|m| m.contains("injected fault")) {
                return;
            }
            previous(info);
        }));
    });
}

/// Zeroes the two traffic components a fault schedule is allowed to perturb: steal
/// timing and the recovery trace itself. Everything else must match bit for bit.
fn normalized(t: &TrafficStats) -> TrafficStats {
    TrafficStats {
        chunks_stolen: 0,
        recovery: RecoveryStats::default(),
        ..t.clone()
    }
}

fn supervised_config(sites: usize, policy: RecoveryPolicy, dual_filter: bool) -> DistributedConfig {
    DistributedConfig {
        sites,
        minimize_query: false,
        dual_filter,
        recovery: Some(policy),
        ..DistributedConfig::default()
    }
}

proptest! {
    /// Recoverable schedules are invisible in the output: bit-identical to the
    /// fault-free run (one-shot, pre and post delta, and through incremental sessions)
    /// and in agreement with the centralized matcher across sequential/parallel × both
    /// refine strategies.
    #[test]
    fn recoverable_schedules_are_bit_identical(
        data in data_graph_sized(48, 4),
        q in pattern(),
        sites in 1usize..5,
        fault_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        install_quiet_hook();
        let sites = sites.min(data.node_count());
        let policy = RecoveryPolicy::default();
        let plan = FaultPlan::seeded_recoverable(fault_seed, sites, &policy);
        let config = supervised_config(sites, policy, false);

        // One-shot, pre-delta.
        let fault_free = distributed_strong_simulation(&q, &data, &config)
            .expect("valid distributed config");
        let recovered = distributed_with_faults(&q, &data, &config, &plan)
            .expect("recoverable plan completes");
        prop_assert!(recovered.lost_centers.is_empty(), "recoverable plan lost chunks");
        prop_assert_eq!(&fault_free.subgraphs, &recovered.subgraphs);
        prop_assert_eq!(normalized(&fault_free.traffic), normalized(&recovered.traffic));
        prop_assert_eq!(recovered.traffic.covered_balls, data.node_count());

        // Centralized agreement: sequential and parallel, both refine strategies.
        for strategy in [RefineStrategy::Worklist, RefineStrategy::NaiveFixpoint] {
            for threads in [1usize, 4] {
                let central = strong_simulation(
                    &q,
                    &data,
                    &MatchConfig::basic()
                        .with_refine_strategy(strategy)
                        .with_thread_limit(threads),
                );
                prop_assert!(
                    central.subgraphs == recovered.subgraphs,
                    "centralized {strategy:?}/{threads} threads diverged from the recovered run"
                );
            }
        }

        // Post-delta one-shot: the same plan against the updated graph.
        let delta = random_delta(&data, &picks);
        let updated = data.apply_delta(&delta).expect("random_delta validates");
        let fault_free_post = distributed_strong_simulation(&q, &updated, &config)
            .expect("valid distributed config");
        let recovered_post = distributed_with_faults(&q, &updated, &config, &plan)
            .expect("recoverable plan completes");
        prop_assert!(recovered_post.lost_centers.is_empty());
        prop_assert_eq!(&fault_free_post.subgraphs, &recovered_post.subgraphs);
        prop_assert_eq!(
            normalized(&fault_free_post.traffic),
            normalized(&recovered_post.traffic)
        );

        // Maintained queries: the chaotic service takes the faults mid-apply and must
        // still track the clean service bit for bit.
        let mut clean = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let clean_id = clean.try_register(&q, config).expect("valid distributed config");
        let mut chaotic = DistributedQueryService::with_executor(data.clone(), Partitioned);
        let chaotic_id = chaotic.try_register(&q, config).expect("valid distributed config");
        clean.apply(&delta).expect("delta validates");
        chaotic.apply_with_faults(&delta, &plan).expect("recoverable plan completes");
        let (clean, chaotic) = (clean.output(clean_id).unwrap(), chaotic.output(chaotic_id).unwrap());
        prop_assert!(chaotic.lost_centers.is_empty());
        prop_assert_eq!(&clean.subgraphs, &chaotic.subgraphs);
        prop_assert_eq!(
            normalized(&clean.traffic),
            normalized(&chaotic.traffic)
        );
    }

    /// Unrecoverable schedules degrade with exact arithmetic: coverage sums to `|V|`,
    /// and the survivors are exactly the fault-free rows minus the lost centers.
    #[test]
    fn unrecoverable_schedules_degrade_with_exact_coverage(
        data in data_graph_sized(48, 4),
        q in pattern(),
        sites in 1usize..5,
        fault_seed in any::<u64>(),
        dual_filter in any::<bool>(),
    ) {
        install_quiet_hook();
        let sites = sites.min(data.node_count());
        let policy = RecoveryPolicy::default();
        let plan = FaultPlan::seeded_unrecoverable(fault_seed, sites, &policy);
        let config = supervised_config(sites, policy, dual_filter);

        let fault_free = distributed_strong_simulation(&q, &data, &config)
            .expect("valid distributed config");
        let degraded = distributed_with_faults(&q, &data, &config, &plan)
            .expect("degradation is allowed");

        let n = data.node_count();
        prop_assert!(
            degraded.traffic.covered_balls + degraded.traffic.lost_balls == n,
            "coverage arithmetic broke"
        );
        prop_assert_eq!(degraded.traffic.lost_balls, degraded.lost_centers.len());
        // Loss pressure is guaranteed whenever any ball was actually evaluated (the
        // dual filter may skip everything, in which case there is nothing to lose).
        let evaluated: usize = fault_free.traffic.balls_per_site.iter().sum();
        if evaluated > 0 {
            prop_assert!(
                degraded.traffic.lost_balls > 0,
                "an unrecoverable plan over {evaluated} evaluated balls lost nothing"
            );
        } else {
            prop_assert_eq!(degraded.traffic.lost_balls, 0);
        }
        // Sharper than subset: survivors are exactly the fault-free rows minus the
        // lost centers.
        let lost: std::collections::BTreeSet<NodeId> =
            degraded.lost_centers.iter().copied().collect();
        let expected: Vec<_> = fault_free
            .subgraphs
            .iter()
            .filter(|s| !lost.contains(&s.center))
            .cloned()
            .collect();
        prop_assert_eq!(&degraded.subgraphs, &expected);

        // The same schedule under a fail-fast policy is a typed error, not a panic.
        if degraded.traffic.lost_balls > 0 {
            let strict = supervised_config(
                sites,
                RecoveryPolicy { allow_degraded: false, ..policy },
                dual_filter,
            );
            let err = distributed_with_faults(&q, &data, &strict, &plan);
            prop_assert!(
                matches!(err, Err(DistError::CoverageLost { .. })),
                "fail-fast policy returned {err:?}"
            );
        }
    }

    /// Replay determinism: the same plan against the same input reproduces the output
    /// *and the recovery trace* bit for bit — only steal timing may differ.
    #[test]
    fn fault_schedules_replay_bit_identically(
        data in data_graph_sized(48, 4),
        q in pattern(),
        sites in 1usize..5,
        fault_seed in any::<u64>(),
    ) {
        install_quiet_hook();
        let sites = sites.min(data.node_count());
        let policy = RecoveryPolicy::default();
        let plan = if fault_seed.is_multiple_of(2) {
            FaultPlan::seeded_recoverable(fault_seed, sites, &policy)
        } else {
            FaultPlan::seeded_unrecoverable(fault_seed, sites, &policy)
        };
        let config = supervised_config(sites, policy, false);
        let a = distributed_with_faults(&q, &data, &config, &plan)
            .expect("degradation is allowed");
        let b = distributed_with_faults(&q, &data, &config, &plan)
            .expect("degradation is allowed");
        prop_assert_eq!(&a.subgraphs, &b.subgraphs);
        prop_assert_eq!(&a.lost_centers, &b.lost_centers);
        let mut ta = a.traffic.clone();
        let mut tb = b.traffic.clone();
        ta.chunks_stolen = 0;
        tb.chunks_stolen = 0;
        // Note: `recovery` stays in the comparison — the supervision trace itself must
        // replay deterministically.
        prop_assert_eq!(ta, tb);
    }

    /// The catch-all wrapper of the acceptance criteria: no public entry point unwinds
    /// on a scripted fault, under any plan, with or without a recovery policy.
    #[test]
    fn public_entry_points_never_panic_on_scripted_faults(
        data in data_graph_sized(48, 4),
        q in pattern(),
        sites in 1usize..5,
        fault_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        install_quiet_hook();
        let sites = sites.min(data.node_count());
        let policy = RecoveryPolicy::default();
        let plans = [
            FaultPlan::seeded_recoverable(fault_seed, sites, &policy),
            FaultPlan::seeded_unrecoverable(fault_seed, sites, &policy),
        ];
        let supervised = supervised_config(sites, policy, false);
        let unsupervised = DistributedConfig { recovery: None, ..supervised };
        let delta = random_delta(&data, &picks);
        for plan in &plans {
            // One-shot, with supervision: completes or degrades, never unwinds.
            let run = catch_unwind(AssertUnwindSafe(|| {
                distributed_with_faults(&q, &data, &supervised, plan).map(|_| ())
            }));
            prop_assert!(run.is_ok(), "supervised entry point panicked");
            // Without a recovery policy a non-empty plan is a typed error, not a panic.
            let gated = catch_unwind(AssertUnwindSafe(|| {
                distributed_with_faults(&q, &data, &unsupervised, plan)
            }));
            match gated {
                Ok(result) => {
                    if !plan.is_empty() {
                        prop_assert_eq!(
                            result.err(),
                            Some(DistError::FaultPlanNeedsRecovery)
                        );
                    }
                }
                Err(_) => prop_assert!(false, "ungated entry point panicked"),
            }
            // A maintained query taking the faults mid-apply.
            let session = catch_unwind(AssertUnwindSafe(|| {
                let mut inc = DistributedQueryService::with_executor(data.clone(), Partitioned);
                inc.try_register(&q, supervised)?;
                inc.apply_with_faults(&delta, plan).map(|_| ())
            }));
            prop_assert!(session.is_ok(), "maintained query panicked");
        }
    }
}

/// Deterministic spot checks of the typed-error surface through public entry points —
/// the cheap half of the no-panic criterion.
#[test]
fn config_errors_are_typed_not_panics() {
    install_quiet_hook();
    let data = ssim_graph::Graph::from_edges(
        vec![
            ssim_graph::Label(0),
            ssim_graph::Label(1),
            ssim_graph::Label(0),
        ],
        &[(0, 1), (1, 2)],
    )
    .unwrap();
    let q = ssim_graph::Pattern::from_edges(
        vec![ssim_graph::Label(0), ssim_graph::Label(1)],
        &[(0, 1)],
    )
    .unwrap();
    let checks: Vec<(DistributedConfig, DistError)> = vec![
        (
            DistributedConfig {
                sites: 0,
                ..DistributedConfig::default()
            },
            DistError::NoSites,
        ),
        (
            DistributedConfig {
                sites: 99,
                ..DistributedConfig::default()
            },
            DistError::MoreSitesThanNodes {
                sites: 99,
                nodes: 3,
            },
        ),
        (
            DistributedConfig {
                sites: 2,
                recovery: Some(RecoveryPolicy {
                    chunk_retries: 0,
                    allow_degraded: false,
                    ..RecoveryPolicy::default()
                }),
                ..DistributedConfig::default()
            },
            DistError::UselessRecoveryPolicy,
        ),
        (
            DistributedConfig {
                sites: 2,
                recovery: Some(RecoveryPolicy {
                    chunk_timeout_ticks: 0,
                    ..RecoveryPolicy::default()
                }),
                ..DistributedConfig::default()
            },
            DistError::ZeroChunkTimeout,
        ),
    ];
    for (config, expected) in checks {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            distributed_strong_simulation(&q, &data, &config)
        }));
        let result = caught.expect("validation must not panic");
        assert_eq!(result.unwrap_err(), expected);
        let session = catch_unwind(AssertUnwindSafe(|| {
            DistributedQueryService::with_executor(data.clone(), Partitioned)
                .try_register(&q, config)
                .map(|_| ())
        }));
        let result = session.expect("registration must not panic");
        assert_eq!(result.unwrap_err(), expected);
    }
}
