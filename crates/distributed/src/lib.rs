//! Distributed strong simulation (Section 4.3 of the paper).
//!
//! The locality of strong simulation — every match lives inside a ball of radius `dQ` —
//! makes it evaluable over a *partitioned* graph with bounded data shipment: a site only has
//! to ship the balls whose centers sit next to a fragment boundary. This crate reproduces
//! the algorithm sketched in the paper:
//!
//! 1. the coordinator broadcasts the pattern `Q` to every site,
//! 2. each site `Mi` evaluates the balls centred at its own nodes; balls that spill into
//!    other fragments require the foreign part of the ball to be shipped (accounted in
//!    [`TrafficStats`]),
//! 3. each site sends its partial result `Θi` back and the coordinator returns the union.
//!
//! The "cluster" is simulated in-process with one thread per site communicating over
//! channels ([`runtime`]); the algorithm and its traffic accounting are exactly what a real
//! deployment would execute, which is all the paper's data-locality claim needs (see the
//! substitution table in DESIGN.md).
//!
//! The runtime is fault-tolerant: the [`fault`] module scripts deterministic site
//! crashes, chunk panics, dropped results and slow-site delays, and a
//! [`fault::RecoveryPolicy`] on the configuration routes the fan-out through a
//! supervising coordinator that retries, reassigns and — when a chunk is lost past the
//! budget — degrades the output with exact coverage accounting instead of panicking.
//! Coordinator-path failures are typed ([`DistError`]) rather than panics.

pub mod error;
pub mod fault;
pub mod partition;
pub mod runtime;
pub mod service;

pub use error::DistError;
pub use fault::{FaultAction, FaultPlan, RecoveryPolicy, RecoveryStats};
pub use partition::{GraphPartition, PartitionStrategy};
pub use runtime::{
    distributed_strong_simulation, distributed_with_faults, DistributedConfig, DistributedOutput,
    TrafficStats,
};
pub use service::{DistributedQueryService, Partitioned};
