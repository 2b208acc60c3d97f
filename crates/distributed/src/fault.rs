//! Deterministic fault injection and recovery policy for the distributed runtime.
//!
//! A [`FaultPlan`] scripts failures at precise points of a distributed run — site
//! crashes, per-chunk worker panics, dropped result messages and slow-site delays —
//! keyed by `(site, chunk index, supervision round)`. Because the chunk plan depends
//! only on the site center counts (never on worker count or steal timing) and the
//! supervision loop advances in rounds, every scripted scenario is **replayable**: the
//! same plan against the same input produces the same failures, the same recovery trace
//! and the same output, bit for bit.
//!
//! Time is virtual. Delays and backoff are accounted in abstract *ticks* against
//! [`RecoveryPolicy::chunk_timeout_ticks`]; nothing sleeps, so chaos suites run at full
//! speed and stay deterministic on loaded CI runners.
//!
//! The recovery contract mirrors the engine's repetition budget/bail contract (PR 8):
//! fail locally, count what was skipped, keep the global answer well-defined. A chunk
//! that fails past [`RecoveryPolicy::chunk_retries`] is *lost*, its centers are reported
//! in [`crate::runtime::DistributedOutput::lost_centers`], and the coverage arithmetic
//! `covered_balls + lost_balls == |V|` stays exact — the surviving subgraphs are always
//! a subset of the fault-free result (every ball is built and refined independently of
//! the balls evaluated before it, so a chunk's rows are a function of its centers alone
//! and replayed or reassigned chunks are bit-safe).

use std::collections::BTreeMap;

/// What a scripted chunk fault does when the chunk executes in its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The worker evaluating the chunk panics (caught per chunk by the supervisor).
    Panic,
    /// The chunk evaluates, but its result message is lost on the way back to the
    /// coordinator — indistinguishable from a failure, so it is retried.
    DropResult,
    /// The chunk's result arrives after the given number of virtual ticks. Delays at or
    /// past [`RecoveryPolicy::chunk_timeout_ticks`] are treated as a timeout failure;
    /// shorter ones complete and are accounted in
    /// [`RecoveryStats::delay_ticks`].
    Delay(u64),
}

/// A deterministic, replayable script of faults for one distributed run.
///
/// Chunk faults are keyed by `(site, chunk, round)` where `chunk` is the site-local
/// chunk ordinal (position in the site's [`ssim_core::parallel::chunk_plan`]) and
/// `round` is the supervision round (0 is the initial pass; a chunk that failed in
/// round `r` is retried in round `r + 1`). A fault fires when *that chunk* executes in
/// *that round*, whichever worker runs it — faults are properties of the simulated
/// site/network, not of the stealing schedule. Keys that never execute (a chunk index
/// past the site's plan, a round the chunk never reaches) are silent no-ops, which lets
/// seeded generators script plans without knowing the exact chunk counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Site id → round at the start of which the site is dead. A dead site's workers
    /// stop executing and its unfinished chunks are reassigned to surviving sites.
    crashes: BTreeMap<usize, usize>,
    /// `(site, chunk, round)` → scripted action.
    chunk_faults: BTreeMap<(usize, usize, usize), FaultAction>,
}

impl FaultPlan {
    /// An empty plan: no faults, the run behaves exactly like the fault-free runtime.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.chunk_faults.is_empty()
    }

    /// Scripts site `site` to crash at the start of round `round`: its workers stop and
    /// its unfinished chunks are reassigned to surviving sites. Results the site already
    /// returned in earlier rounds stay valid (they were shipped to the coordinator).
    pub fn crash_site(&mut self, site: usize, round: usize) -> &mut Self {
        let entry = self.crashes.entry(site).or_insert(round);
        *entry = (*entry).min(round);
        self
    }

    /// Scripts a worker panic while evaluating chunk `chunk` of `site` in `round`.
    pub fn panic_chunk(&mut self, site: usize, chunk: usize, round: usize) -> &mut Self {
        self.chunk_faults
            .insert((site, chunk, round), FaultAction::Panic);
        self
    }

    /// Scripts the loss of the chunk's result message in `round`.
    pub fn drop_result(&mut self, site: usize, chunk: usize, round: usize) -> &mut Self {
        self.chunk_faults
            .insert((site, chunk, round), FaultAction::DropResult);
        self
    }

    /// Scripts a slow site: the chunk's result arrives `ticks` virtual ticks late.
    pub fn delay_chunk(
        &mut self,
        site: usize,
        chunk: usize,
        round: usize,
        ticks: u64,
    ) -> &mut Self {
        self.chunk_faults
            .insert((site, chunk, round), FaultAction::Delay(ticks));
        self
    }

    /// The round at which `site` crashes, if scripted.
    pub fn crash_round(&self, site: usize) -> Option<usize> {
        self.crashes.get(&site).copied()
    }

    /// Sites scripted to crash, with their crash rounds, in site order.
    pub fn crashes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.crashes.iter().map(|(&s, &r)| (s, r))
    }

    /// The scripted action for `(site, chunk, round)`, if any.
    pub fn action_at(&self, site: usize, chunk: usize, round: usize) -> Option<FaultAction> {
        self.chunk_faults.get(&(site, chunk, round)).copied()
    }

    /// Number of scripted chunk faults (panics, drops, delays).
    pub fn chunk_fault_count(&self) -> usize {
        self.chunk_faults.len()
    }

    /// A seeded random plan that is **recoverable** under `policy` with `sites` sites:
    /// at most `sites - 1` crashes, and per chunk at most `policy.chunk_retries`
    /// consecutive failures starting at round 0 (so the chunk's final retry always
    /// succeeds), plus benign sub-timeout delays. Same seed, same plan.
    pub fn seeded_recoverable(seed: u64, sites: usize, policy: &RecoveryPolicy) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut plan = FaultPlan::none();
        if sites > 1 {
            // Crashes never lose work on their own (chunks are reassigned), but keep at
            // least one site alive so reassignment has a destination.
            let crash_count = (rng.next() as usize) % sites; // 0..=sites-1
            let mut crashed = Vec::new();
            while crashed.len() < crash_count {
                let site = (rng.next() as usize) % sites;
                if !crashed.contains(&site) {
                    crashed.push(site);
                    plan.crash_site(site, (rng.next() as usize) % 3);
                }
            }
        }
        let targets = (rng.next() as usize) % 4;
        let mut used: Vec<(usize, usize)> = Vec::new();
        for _ in 0..targets {
            let site = (rng.next() as usize) % sites.max(1);
            let chunk = (rng.next() as usize) % 4;
            if used.contains(&(site, chunk)) {
                continue;
            }
            used.push((site, chunk));
            // Failures must hit the chunk's actual attempt schedule: a chunk attempts
            // rounds 0, 1, 2, … while it keeps failing, so `f <= chunk_retries`
            // consecutive failures from round 0 leave the final attempt fault-free.
            let failures = (rng.next() as usize) % (policy.chunk_retries + 1);
            for round in 0..failures {
                match rng.next() % 3 {
                    0 => plan.panic_chunk(site, chunk, round),
                    1 => plan.drop_result(site, chunk, round),
                    // A delay at the timeout counts as a failure.
                    _ => plan.delay_chunk(
                        site,
                        chunk,
                        round,
                        policy.chunk_timeout_ticks.saturating_add(rng.next() % 16),
                    ),
                };
            }
            if rng.next().is_multiple_of(2) && policy.chunk_timeout_ticks > 1 {
                // Benign slow-site delay on the succeeding attempt.
                plan.delay_chunk(
                    site,
                    chunk,
                    failures,
                    1 + rng.next() % (policy.chunk_timeout_ticks - 1).min(64),
                );
            }
        }
        plan
    }

    /// A seeded random plan that is **unrecoverable** under `policy`: either every site
    /// crashes at round 0 (no survivor to reassign to), or the first chunk of every
    /// site panics on every attempt within the retry budget (so any site that owns at
    /// least one ball center loses its first chunk). Same seed, same plan.
    pub fn seeded_unrecoverable(seed: u64, sites: usize, policy: &RecoveryPolicy) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut plan = FaultPlan::none();
        if rng.next().is_multiple_of(2) {
            for site in 0..sites {
                plan.crash_site(site, 0);
            }
        } else {
            for site in 0..sites {
                for round in 0..=policy.chunk_retries {
                    plan.panic_chunk(site, 0, round);
                }
            }
        }
        plan
    }
}

/// How the coordinator's supervision loop reacts to chunk failures and site loss.
///
/// Present on [`crate::runtime::DistributedConfig::recovery`]: `None` runs the
/// supervision loop for one round without retries, where a worker panic propagates as
/// before; `Some(policy)` lets the loop contain failures — chunk panics are caught and
/// retried, dead sites' chunks are reassigned, and chunks that
/// exhaust the budget degrade to exact coverage loss (or fail the run, per
/// [`RecoveryPolicy::allow_degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per chunk after its first attempt. A chunk failing `chunk_retries + 1`
    /// times is lost.
    pub chunk_retries: usize,
    /// Base backoff in virtual ticks before a retry; attempt `k` backs off
    /// `backoff_ticks << (k - 1)` (exponential), accounted in
    /// [`RecoveryStats::backoff_ticks`].
    pub backoff_ticks: u64,
    /// Scripted delays at or past this many ticks count as a chunk timeout (a failure);
    /// shorter delays complete and are accounted as absorbed slow-site time.
    pub chunk_timeout_ticks: u64,
    /// When chunks are lost past the retry budget: `true` emits a degraded
    /// [`crate::runtime::DistributedOutput`] with exact coverage accounting,
    /// `false` fails the run with [`crate::DistError::CoverageLost`].
    pub allow_degraded: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            chunk_retries: 2,
            backoff_ticks: 1,
            chunk_timeout_ticks: 1_000,
            allow_degraded: true,
        }
    }
}

impl RecoveryPolicy {
    /// Validates the policy: it must be able to either retry or degrade, and the
    /// timeout must admit at least instant chunks.
    pub fn validate(&self) -> Result<(), crate::DistError> {
        if self.chunk_retries == 0 && !self.allow_degraded {
            return Err(crate::DistError::UselessRecoveryPolicy);
        }
        if self.chunk_timeout_ticks == 0 {
            return Err(crate::DistError::ZeroChunkTimeout);
        }
        Ok(())
    }
}

/// Recovery-event accounting for one supervised run, carried on
/// [`crate::runtime::TrafficStats::recovery`].
///
/// Every counter here is a deterministic function of the input, the fault plan and the
/// policy — rounds are barriers and faults are scripted, so none of these depend on
/// steal timing (`chunks_stolen` remains the one schedule-dependent counter). A
/// fault-free run leaves all of them zero, which is how the equivalence suites compare
/// runs with and without a recovery policy directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sites that crashed during the run.
    pub site_crashes: usize,
    /// Chunk evaluations that panicked (scripted or genuine) and were caught by the
    /// supervisor instead of aborting the run.
    pub panics_contained: usize,
    /// Chunk results lost in transit (scripted message drops).
    pub results_dropped: usize,
    /// Chunk evaluations whose scripted delay hit the policy timeout.
    pub chunk_timeouts: usize,
    /// Retry executions scheduled (one per failure within the budget).
    pub chunk_retries: usize,
    /// Chunks of dead sites rerouted to surviving sites.
    pub chunks_reassigned: usize,
    /// Supervision rounds beyond the first (0 on a fault-free run).
    pub retry_rounds: usize,
    /// Virtual backoff ticks accumulated before retries (exponential per attempt).
    pub backoff_ticks: u64,
    /// Virtual slow-site delay ticks absorbed below the timeout.
    pub delay_ticks: u64,
    /// Chunks lost past the retry budget (their centers are the lost balls).
    pub chunks_lost: usize,
}

/// Minimal splitmix64 stream for the seeded plan generators — deterministic, no
/// external dependency, good enough to scatter fault points.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistError;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let policy = RecoveryPolicy::default();
        for seed in 0..50u64 {
            assert_eq!(
                FaultPlan::seeded_recoverable(seed, 4, &policy),
                FaultPlan::seeded_recoverable(seed, 4, &policy)
            );
            assert_eq!(
                FaultPlan::seeded_unrecoverable(seed, 4, &policy),
                FaultPlan::seeded_unrecoverable(seed, 4, &policy)
            );
        }
    }

    #[test]
    fn recoverable_plans_respect_the_budget() {
        let policy = RecoveryPolicy {
            chunk_retries: 2,
            ..RecoveryPolicy::default()
        };
        for seed in 0..200u64 {
            for sites in [1usize, 2, 4, 7] {
                let plan = FaultPlan::seeded_recoverable(seed, sites, &policy);
                // Never all sites crashed.
                assert!(plan.crashes().count() < sites.max(1), "seed {seed}");
                // Per chunk: failures are consecutive from round 0 and within budget.
                let mut failures: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
                for (&(site, chunk, round), &action) in &plan.chunk_faults {
                    let failing = match action {
                        FaultAction::Panic | FaultAction::DropResult => true,
                        FaultAction::Delay(t) => t >= policy.chunk_timeout_ticks,
                    };
                    if failing {
                        failures.entry((site, chunk)).or_default().push(round);
                    }
                }
                for ((site, chunk), rounds) in failures {
                    assert!(
                        rounds.len() <= policy.chunk_retries,
                        "seed {seed}: chunk ({site},{chunk}) scripted past the budget"
                    );
                    for (i, &r) in rounds.iter().enumerate() {
                        assert_eq!(r, i, "seed {seed}: failures not consecutive from 0");
                    }
                }
            }
        }
    }

    #[test]
    fn unrecoverable_plans_guarantee_loss_pressure() {
        let policy = RecoveryPolicy::default();
        for seed in 0..50u64 {
            let plan = FaultPlan::seeded_unrecoverable(seed, 3, &policy);
            let all_crashed =
                plan.crashes().count() == 3 && plan.crashes().all(|(_, round)| round == 0);
            let perma_panic = (0..3).all(|site| {
                (0..=policy.chunk_retries)
                    .all(|r| plan.action_at(site, 0, r) == Some(FaultAction::Panic))
            });
            assert!(all_crashed || perma_panic, "seed {seed}");
        }
    }

    #[test]
    fn crash_site_keeps_the_earliest_round() {
        let mut plan = FaultPlan::none();
        plan.crash_site(2, 5).crash_site(2, 1).crash_site(2, 3);
        assert_eq!(plan.crash_round(2), Some(1));
        assert_eq!(plan.crash_round(0), None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn policy_validation_rejects_degenerate_policies() {
        let useless = RecoveryPolicy {
            chunk_retries: 0,
            allow_degraded: false,
            ..RecoveryPolicy::default()
        };
        assert_eq!(useless.validate(), Err(DistError::UselessRecoveryPolicy));
        let zero_timeout = RecoveryPolicy {
            chunk_timeout_ticks: 0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(zero_timeout.validate(), Err(DistError::ZeroChunkTimeout));
        assert_eq!(RecoveryPolicy::default().validate(), Ok(()));
        // Zero retries WITH degradation is a legitimate fail-straight-to-lost policy.
        let degrade_only = RecoveryPolicy {
            chunk_retries: 0,
            allow_degraded: true,
            ..RecoveryPolicy::default()
        };
        assert_eq!(degrade_only.validate(), Ok(()));
    }
}
