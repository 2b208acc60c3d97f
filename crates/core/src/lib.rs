//! Strong simulation for graph pattern matching.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Capturing Topology in Graph Pattern Matching"* (Ma, Cao, Fan, Huai, Wo — VLDB 2011).
//! It implements the full family of simulation-based matching notions studied in the paper,
//! ordered from weakest to strongest:
//!
//! * **graph simulation** `Q ≺ G` — child-preserving matching ([`simulation`]),
//! * **dual simulation** `Q ≺D G` — child- and parent-preserving matching ([`dual`]),
//! * **strong simulation** `Q ≺LD G` — dual simulation confined to balls of radius `dQ`,
//!   producing *perfect subgraphs* ([`strong`]),
//! * **bounded simulation** — the Fan et al. 2010 extension with hop bounds on pattern
//!   edges, provided for completeness ([`bounded`]),
//! * **bisimulation** — the stronger, intractable-to-match notion discussed in Section 3.2
//!   ([`bisimulation`]).
//!
//! On top of the matchers the crate provides the optimisations of Section 4.2 —
//! query minimization ([`minimize`]), dual-simulation filtering ([`dual_filter`]) and
//! connectivity pruning ([`pruning`]) — and the topology-preservation criteria of Section 3
//! ([`topology`]).
//!
//! # Quick example
//!
//! ```
//! use ssim_graph::{GraphBuilder, Pattern};
//! use ssim_core::strong::{strong_simulation, MatchConfig};
//!
//! // Pattern: a book recommended by a student (ST) and a teacher (TE) — Q2 of the paper.
//! let mut qb = GraphBuilder::new();
//! let st = qb.add_node("ST");
//! let te = qb.add_node("TE");
//! let book = qb.add_node("book");
//! qb.add_edge(st, book);
//! qb.add_edge(te, book);
//! let pattern = Pattern::new(qb.build()).unwrap();
//!
//! // Data graph: book1 recommended only by a student, book2 by both.
//! let mut gb = GraphBuilder::new();
//! let st1 = gb.add_node("ST");
//! let te1 = gb.add_node("TE");
//! let book1 = gb.add_node("book");
//! let book2 = gb.add_node("book");
//! gb.add_edge(st1, book1);
//! gb.add_edge(st1, book2);
//! gb.add_edge(te1, book2);
//! let data = gb.build();
//!
//! let result = strong_simulation(&pattern, &data, &MatchConfig::default());
//! // book2 is matched, book1 is filtered out by the duality condition.
//! assert!(result.subgraphs.iter().all(|s| s.nodes.contains(&book2)));
//! assert!(result.subgraphs.iter().all(|s| !s.nodes.contains(&book1)));
//! ```

pub mod ball;
pub mod bisimulation;
pub mod bounded;
pub mod dual;
pub mod dual_filter;
pub mod gm;
pub mod incremental;
pub mod match_graph;
pub mod minimize;
pub mod parallel;
pub mod pruning;
pub mod relation;
pub mod repetition;
pub mod service;
pub mod simulation;
pub mod strong;
pub mod topology;

pub use ball::{locality_center_order, BallSubstrate};
pub use dual::{dual_simulates, dual_simulation, dual_simulation_with};
pub use gm::GmSubstrate;
pub use incremental::{IncrementalMatcher, PreparedGlobal, UpdatePlan, UpdateStats};
pub use match_graph::{MatchGraph, PerfectSubgraph};
pub use minimize::minimize_pattern;
pub use relation::MatchRelation;
pub use repetition::{
    enforce_repetition, has_repeated_labels, RepetitionMode, RepetitionOutcome,
    RepetitionSemantics, REPETITION_BUDGET,
};
pub use service::{
    BuilderError, PatternBuilder, QueryId, QueryService, QueryUpdate, ServiceUpdate, SharingStats,
};
pub use simulation::{graph_simulation, graph_simulation_with, simulates, RefineStrategy};
pub use strong::{strong_simulation, MatchConfig, MatchOutput, MatchStats};
