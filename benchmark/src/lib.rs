//! The repository benchmark: four seeded workloads over the engine's default public
//! entry points, end-to-end metrics from untraced runs and per-layer metrics from
//! traced runs. See `README.md` in this package for the workloads, metrics and the
//! exact API surface the benchmark depends on.

pub mod compare;
pub mod gen;
pub mod json;
pub mod pipeline;
pub mod report;
pub mod rng;
pub mod rss;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
