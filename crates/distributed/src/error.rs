//! Typed errors for the distributed runtime.
//!
//! Coordinator-path failures used to `panic!` (invalid configurations clamped or
//! aborted, the counted entry point's missing flat graph blew up mid-run); every public
//! entry point now returns [`DistError`] instead, wrapping [`GraphError`] where the
//! failure originates in the graph layer.

use ssim_core::strong::PlanError;
use ssim_graph::GraphError;
use std::fmt;

/// Errors raised by the distributed coordinator: invalid configurations, misused entry
/// points, graph-layer failures surfaced through delta application, and coverage loss
/// under a fail-fast recovery policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A graph-layer error (delta validation, construction) surfaced through a
    /// distributed entry point.
    Graph(GraphError),
    /// `DistributedConfig::sites` was zero — there is no site to evaluate anything.
    NoSites,
    /// More sites than data nodes: at least one fragment would be empty, which the
    /// runtime used to clamp silently. Requested explicitly, it is a configuration
    /// mistake and is rejected up front.
    MoreSitesThanNodes {
        /// Requested site count.
        sites: usize,
        /// Nodes in the data graph.
        nodes: usize,
    },
    /// A recovery policy with `chunk_retries == 0` and `allow_degraded == false` can
    /// neither retry a failed chunk nor degrade around it — it promises tolerance it
    /// cannot deliver, so it is rejected instead of failing on the first fault.
    UselessRecoveryPolicy,
    /// A recovery policy with `chunk_timeout_ticks == 0` would time out every chunk,
    /// including instant ones.
    ZeroChunkTimeout,
    /// A non-empty [`crate::fault::FaultPlan`] was supplied without a recovery policy
    /// on the configuration; scripted faults require supervision to be containable.
    FaultPlanNeedsRecovery,
    /// This coordinator path traverses the flat data graph, but the counted entry point
    /// only carries the node count (it serves prepared match-graph-substrate runs).
    FlatGraphRequired,
    /// The prepared incremental state did not carry the `Gm` extraction the
    /// match-graph substrate requires.
    PreparedStateMissingGm,
    /// Chunks were lost past the retry budget and the recovery policy forbids degraded
    /// output (`allow_degraded == false`).
    CoverageLost {
        /// Ball centers whose evaluation was lost.
        lost_balls: usize,
        /// Ball centers the run still covers (`covered + lost == |V|`).
        covered_balls: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Graph(e) => write!(f, "graph error: {e}"),
            DistError::NoSites => write!(f, "a distributed run needs at least one site"),
            DistError::MoreSitesThanNodes { sites, nodes } => write!(
                f,
                "{sites} sites over {nodes} nodes would leave at least one fragment empty"
            ),
            DistError::UselessRecoveryPolicy => write!(
                f,
                "recovery policy with zero retries and degradation disabled can never recover"
            ),
            DistError::ZeroChunkTimeout => {
                write!(f, "a zero chunk timeout would time out every chunk")
            }
            DistError::FaultPlanNeedsRecovery => write!(
                f,
                "a non-empty fault plan requires a recovery policy on the configuration"
            ),
            DistError::FlatGraphRequired => write!(
                f,
                "this coordinator path traverses the flat data graph; the counted entry \
                 point only serves prepared match-graph-substrate runs"
            ),
            DistError::PreparedStateMissingGm => write!(
                f,
                "prepared state must carry Gm on the match-graph substrate"
            ),
            DistError::CoverageLost {
                lost_balls,
                covered_balls,
            } => write!(
                f,
                "{lost_balls} ball centers lost past the retry budget \
                 ({covered_balls} covered) and the policy forbids degraded output"
            ),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for DistError {
    fn from(e: GraphError) -> Self {
        DistError::Graph(e)
    }
}

impl From<PlanError> for DistError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::FlatGraphRequired => DistError::FlatGraphRequired,
            PlanError::PreparedStateMissingGm => DistError::PreparedStateMissingGm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_graph_errors() {
        let e: DistError = GraphError::MissingEdge { from: 1, to: 2 }.into();
        assert!(matches!(e, DistError::Graph(_)));
        assert!(e.to_string().contains("graph error"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_covers_config_variants() {
        assert!(DistError::NoSites.to_string().contains("at least one site"));
        let e = DistError::MoreSitesThanNodes { sites: 9, nodes: 4 };
        assert!(e.to_string().contains("9 sites over 4 nodes"));
        assert!(DistError::UselessRecoveryPolicy
            .to_string()
            .contains("never recover"));
        assert!(DistError::CoverageLost {
            lost_balls: 3,
            covered_balls: 7
        }
        .to_string()
        .contains("3 ball centers lost"));
        assert!(std::error::Error::source(&DistError::NoSites).is_none());
    }
}
