//! Label-repetition matching semantics — the fourth oracle axis.
//!
//! The paper's strong simulation deliberately relaxes injectivity: two distinct pattern
//! nodes with equal labels may match the *same* data node, which is exactly why
//! repeated-label undirected cycles can fold onto paths (the pinned case-301 boundary of
//! Theorem 3). Following Mahfoud's label-repetition constraints, this module makes that
//! relaxation a tunable ([`RepetitionSemantics`]):
//!
//! * [`RepetitionSemantics::Free`] — the paper's behaviour (and the seed reference): no
//!   constraint between equal-labelled pattern nodes. The closure below is a no-op.
//! * [`RepetitionSemantics::Distinct`] — equal-labelled pattern nodes must be realised by
//!   pairwise *distinct* data nodes.
//! * [`RepetitionSemantics::Equal`] — equal-labelled pattern nodes must collapse onto one
//!   *shared* data node.
//!
//! # Semantics: witness-closed relations
//!
//! Enforcement is *witness-based*, applied per ball after the dual-simulation refinement
//! converges. A pair `(u, v)` of the converged relation `R` survives iff there exists a
//! full homomorphism `σ : V(Q) → ball` with `σ(u) = v`, `σ(u') ∈ R(u')` for every pattern
//! node, every pattern edge mapped to a data edge of the ball, and `σ` injective on each
//! equal-label class (`Distinct`) or constant on each class (`Equal`). Removing
//! witness-unsupported pairs can invalidate the dual-simulation support of neighbouring
//! pairs, so the closure alternates the witness filter with the dual-refinement cascade
//! until a fixpoint. Both steps are monotone and deflationary, so the greatest fixpoint is
//! unique — which is what makes the axis's output independent of engine shape, id space
//! and enforcement mode.
//!
//! When the pattern has **no repeated labels** every class is a singleton and both
//! constraints hold vacuously, so the closure is skipped outright: `Distinct` and `Equal`
//! are then bit-identical to `Free` at zero cost. This gating also keeps the
//! undirected-cycle guarantee complete (see [`crate::topology`]): a label-distinct cycle
//! falls under the classic clause, while any cycle on a repeated-label pattern is covered
//! by the witness argument — a class-injective label-preserving homomorphism maps a simple
//! undirected cycle to pairwise-distinct data nodes with covering data edges.
//!
//! # Budget and bail contract
//!
//! The witness search is exponential in the worst case. Before enforcing, the closure
//! computes the saturating product of the candidate-set sizes `∏ |R(u)|` over **all**
//! pattern nodes — an upper bound on the assignment tree — and when it exceeds
//! [`REPETITION_BUDGET`] the ball *bails*: enforcement is skipped (the ball behaves as
//! under `Free`) and [`RepetitionOutcome::bailed`] is reported, surfaced as
//! `MatchStats::repetition_bailed_balls`. The precondition reads only candidate-set sizes
//! of the converged relation — which every engine shape computes bit-identically — so the
//! bail decision, and hence the output, is identical across modes and substrates.
//! Callers needing guaranteed enforcement must check the counter.
//!
//! # Two implementations, one fixpoint
//!
//! As with every prior axis the semantics is implemented twice ([`RepetitionMode`]):
//!
//! * [`RepetitionMode::Integrated`] — the engine path: one witness search per *unmarked*
//!   pair (a found witness marks all `(u', σ(u'))` pairs it realises as supported, so
//!   they are never searched again), removals cascaded through the worklist suspect
//!   queue ([`crate::dual_filter`]'s removal-propagation core).
//! * [`RepetitionMode::NaiveOracle`] — the differential oracle: an independent witness
//!   search per pair and a naive while-changed re-scan for the cascade.
//!
//! A marked pair provably has a witness and an unmarked pair is decided by its own
//! search, so both modes remove the same pair set in every closure iteration and arrive
//! at the same fixpoint — `tests/repetition_equivalence.rs` pins the outputs (and the
//! repetition counters) bit-identical across the sampled four-axis matrix.

use crate::dual_filter::{pair_supported, refine_suspects};
use crate::relation::MatchRelation;
use ssim_graph::{AdjView, NodeId, Pattern};

/// How equal-labelled pattern nodes may be realised by data nodes. The fourth oracle axis
/// on `MatchConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepetitionSemantics {
    /// No constraint — the paper's strong simulation (and the seed reference).
    #[default]
    Free,
    /// Distinct pattern nodes with equal labels must match pairwise distinct data nodes.
    Distinct,
    /// Distinct pattern nodes with equal labels must match one shared data node.
    Equal,
}

/// Which implementation enforces a non-[`Free`](RepetitionSemantics::Free) semantics.
/// Both arrive at the same fixpoint; the oracle exists to differentially pin the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepetitionMode {
    /// Marked witness search + worklist suspect cascade (the engine path).
    #[default]
    Integrated,
    /// Independent per-pair witness search + naive while-changed cascade (the oracle).
    NaiveOracle,
}

/// Upper bound on the witness-search assignment tree (`∏ |R(u)|` over all pattern nodes)
/// above which a ball bails out of enforcement. See the module docs for the contract.
pub const REPETITION_BUDGET: u64 = 1 << 18;

/// What the per-ball repetition closure did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepetitionOutcome {
    /// The closure removed at least one pair (the relation differs from the dual fixpoint).
    pub changed: bool,
    /// The budget precondition failed: enforcement was skipped for this ball.
    pub bailed: bool,
    /// Total pairs removed by the closure (witness filter plus cascade).
    pub removed_pairs: usize,
}

/// Maps each pattern node to its repeated-label class, or `None` for nodes whose label is
/// unique. Returns `None` when every class is a singleton — the gating that makes
/// `Distinct`/`Equal` free on label-distinct patterns.
pub(crate) fn repeated_label_class_map(pattern: &Pattern) -> Option<Vec<Option<u32>>> {
    let n = pattern.node_count();
    let mut class_of: Vec<Option<u32>> = vec![None; n];
    let mut next = 0u32;
    for i in 0..n {
        if class_of[i].is_some() {
            continue;
        }
        let label = pattern.label(NodeId::from_index(i));
        let mut members = vec![i];
        for (j, slot) in class_of.iter().enumerate().skip(i + 1) {
            if slot.is_none() && pattern.label(NodeId::from_index(j)) == label {
                members.push(j);
            }
        }
        if members.len() >= 2 {
            for &m in &members {
                class_of[m] = Some(next);
            }
            next += 1;
        }
    }
    if next == 0 {
        None
    } else {
        Some(class_of)
    }
}

/// `true` when the pattern has at least two nodes sharing a label — the only patterns on
/// which `Distinct`/`Equal` can differ from `Free`.
pub fn has_repeated_labels(pattern: &Pattern) -> bool {
    repeated_label_class_map(pattern).is_some()
}

/// Backtracking search for a repetition-consistent witness homomorphism over the
/// converged relation. Node order is ascending pattern index, candidates are tried in
/// ascending id order — deterministic, though only *existence* feeds the output.
struct WitnessSearch<'a, V: AdjView> {
    pattern: &'a Pattern,
    view: &'a V,
    relation: &'a MatchRelation,
    class_of: &'a [Option<u32>],
    semantics: RepetitionSemantics,
    assignment: Vec<Option<NodeId>>,
}

impl<'a, V: AdjView> WitnessSearch<'a, V> {
    fn new(
        pattern: &'a Pattern,
        view: &'a V,
        relation: &'a MatchRelation,
        class_of: &'a [Option<u32>],
        semantics: RepetitionSemantics,
    ) -> Self {
        WitnessSearch {
            pattern,
            view,
            relation,
            class_of,
            semantics,
            assignment: vec![None; pattern.node_count()],
        }
    }

    /// `true` when a witness with `σ(root_u) = root_v` exists. On success `assignment`
    /// holds the full witness (used by the integrated mode's support marking).
    fn witness_for(&mut self, root_u: NodeId, root_v: NodeId) -> bool {
        self.assignment.fill(None);
        if !self.admissible(root_u, root_v) {
            return false;
        }
        self.assignment[root_u.index()] = Some(root_v);
        self.assign_from(0)
    }

    /// Assigns pattern nodes `next..` (skipping the preset root) left to right.
    fn assign_from(&mut self, next: usize) -> bool {
        let n = self.pattern.node_count();
        let mut k = next;
        while k < n && self.assignment[k].is_some() {
            k += 1;
        }
        if k == n {
            return true;
        }
        let u = NodeId::from_index(k);
        // Candidates ascending; the collect frees `self` for the recursive borrow.
        let candidates: Vec<usize> = self.relation.candidates(u).iter().collect();
        for vi in candidates {
            let v = NodeId::from_index(vi);
            if self.admissible(u, v) {
                self.assignment[k] = Some(v);
                if self.assign_from(k + 1) {
                    return true;
                }
                self.assignment[k] = None;
            }
        }
        false
    }

    /// Checks `σ(u) = v` against the partial assignment: the class constraint against
    /// assigned classmates and every pattern edge between `u` and an assigned node
    /// (self-loops included) against the ball's data edges.
    fn admissible(&self, u: NodeId, v: NodeId) -> bool {
        if let Some(class) = self.class_of[u.index()] {
            for (j, assigned) in self.assignment.iter().enumerate() {
                if j == u.index() {
                    continue;
                }
                if let Some(w) = assigned {
                    if self.class_of[j] == Some(class) {
                        let conflict = match self.semantics {
                            RepetitionSemantics::Distinct => *w == v,
                            RepetitionSemantics::Equal => *w != v,
                            RepetitionSemantics::Free => false,
                        };
                        if conflict {
                            return false;
                        }
                    }
                }
            }
        }
        let q = self.pattern.graph();
        for j in q.out_neighbors(u) {
            let target = if j == u {
                Some(v) // self-loop: σ(u) → σ(u)
            } else {
                self.assignment[j.index()]
            };
            if let Some(w) = target {
                if !self.view.out_neighbors(v).any(|x| x == w) {
                    return false;
                }
            }
        }
        for j in q.in_neighbors(u) {
            if j == u {
                continue; // self-loop already checked above
            }
            if let Some(w) = self.assignment[j.index()] {
                if !self.view.out_neighbors(w).any(|x| x == v) {
                    return false;
                }
            }
        }
        true
    }
}

/// Applies the repetition closure to a ball's converged dual-simulation relation in
/// place: alternates the witness filter with the dual-refinement cascade until the
/// fixpoint (or until some pattern node empties — callers treat a non-total relation as
/// "no match in this ball", exactly as after plain refinement).
///
/// No-op under [`RepetitionSemantics::Free`], on label-distinct patterns, and when the
/// budget precondition fails (see [`REPETITION_BUDGET`]). `relation` must be a converged
/// (maximum) dual-simulation relation over `view` — the closure's bit-identity across
/// engine shapes relies on every shape handing in the same fixpoint.
pub fn enforce_repetition<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &mut MatchRelation,
    semantics: RepetitionSemantics,
    mode: RepetitionMode,
) -> RepetitionOutcome {
    let mut outcome = RepetitionOutcome::default();
    if semantics == RepetitionSemantics::Free {
        return outcome;
    }
    let Some(class_of) = repeated_label_class_map(pattern) else {
        return outcome;
    };
    // Budget precondition: a function of candidate-set sizes alone, so the decision is
    // identical whichever mode, substrate or seeding produced the fixpoint.
    let mut tree_bound = 1u64;
    for u in pattern.nodes() {
        tree_bound = tree_bound.saturating_mul(relation.candidates(u).len().max(1) as u64);
    }
    if tree_bound > REPETITION_BUDGET {
        outcome.bailed = true;
        return outcome;
    }
    loop {
        let unsupported = match mode {
            RepetitionMode::Integrated => {
                unsupported_marked(pattern, view, relation, &class_of, semantics)
            }
            RepetitionMode::NaiveOracle => {
                unsupported_independent(pattern, view, relation, &class_of, semantics)
            }
        };
        if unsupported.is_empty() {
            break;
        }
        outcome.changed = true;
        for &(u, v) in &unsupported {
            if relation.remove(u, v) {
                outcome.removed_pairs += 1;
            }
        }
        if !relation.is_total() {
            break;
        }
        // Cascade: removing a witness-unsupported pair can strip the dual-simulation
        // support of its neighbours, and the witness filter assumes a converged input.
        match mode {
            RepetitionMode::Integrated => {
                let suspects = cascade_suspects(pattern, view, relation, &unsupported);
                let taken = std::mem::replace(relation, MatchRelation::empty(0, 0));
                *relation = refine_suspects(
                    pattern,
                    view,
                    taken,
                    suspects,
                    Some(&mut outcome.removed_pairs),
                );
            }
            RepetitionMode::NaiveOracle => {
                naive_cascade(pattern, view, relation, &mut outcome.removed_pairs);
            }
        }
        if !relation.is_total() {
            break;
        }
    }
    outcome
}

/// Engine-path witness filter: pairs realised by an earlier witness are marked supported
/// and never searched. Returns the unsupported pairs in deterministic order.
fn unsupported_marked<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &MatchRelation,
    class_of: &[Option<u32>],
    semantics: RepetitionSemantics,
) -> Vec<(NodeId, NodeId)> {
    let mut marks = MatchRelation::empty(pattern.node_count(), relation.data_node_capacity());
    let pairs: Vec<(NodeId, NodeId)> = relation.pairs().collect();
    let mut search = WitnessSearch::new(pattern, view, relation, class_of, semantics);
    let mut unsupported = Vec::new();
    for (u, v) in pairs {
        if marks.contains(u, v) {
            continue;
        }
        if search.witness_for(u, v) {
            for (j, assigned) in search.assignment.iter().enumerate() {
                let w = assigned.expect("a successful witness assigns every pattern node");
                marks.insert(NodeId::from_index(j), w);
            }
        } else {
            unsupported.push((u, v));
        }
    }
    unsupported
}

/// Oracle witness filter: one independent search per pair, no marking. Removes the same
/// pair set as [`unsupported_marked`] — a mark is only ever placed on a witnessed pair.
fn unsupported_independent<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &MatchRelation,
    class_of: &[Option<u32>],
    semantics: RepetitionSemantics,
) -> Vec<(NodeId, NodeId)> {
    let pairs: Vec<(NodeId, NodeId)> = relation.pairs().collect();
    let mut search = WitnessSearch::new(pattern, view, relation, class_of, semantics);
    pairs
        .into_iter()
        .filter(|&(u, v)| !search.witness_for(u, v))
        .collect()
}

/// The pairs whose dual-simulation support one of `removed`'s pairs may have carried —
/// the seed set for the worklist cascade (mirrors the propagation step of
/// [`refine_suspects`], which re-verifies each suspect before removing it).
fn cascade_suspects<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &MatchRelation,
    removed: &[(NodeId, NodeId)],
) -> Vec<(NodeId, NodeId)> {
    let q = pattern.graph();
    let mut suspects = Vec::new();
    for &(u, v) in removed {
        for u2 in q.in_neighbors(u) {
            for v2 in view.in_neighbors(v) {
                if relation.contains(u2, v2) {
                    suspects.push((u2, v2));
                }
            }
        }
        for u1 in q.out_neighbors(u) {
            for v1 in view.out_neighbors(v) {
                if relation.contains(u1, v1) {
                    suspects.push((u1, v1));
                }
            }
        }
    }
    suspects
}

/// Naive cascade: re-scan every pair for dual-simulation support until nothing changes.
/// Jacobi-style simultaneous removal — same greatest fixpoint as the worklist cascade.
fn naive_cascade<V: AdjView>(
    pattern: &Pattern,
    view: &V,
    relation: &mut MatchRelation,
    removed_pairs: &mut usize,
) {
    loop {
        let doomed: Vec<(NodeId, NodeId)> = relation
            .pairs()
            .filter(|&(u, v)| !pair_supported(pattern, view, relation, u, v))
            .collect();
        if doomed.is_empty() {
            break;
        }
        for (u, v) in doomed {
            if relation.remove(u, v) {
                *removed_pairs += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::dual_simulation_view;
    use ssim_graph::{Ball, Graph, Label};

    /// The case-301 minimal shape: an equal-labelled diamond pattern over a 3-node path.
    /// Under `Free` the diamond folds onto the path; under `Distinct` the two Label(1)
    /// pattern nodes cannot share the single Label(1) data node, so the match dies.
    fn diamond_on_path() -> (Pattern, Graph) {
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        let path =
            Graph::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        (pattern, path)
    }

    /// A genuine diamond in the data: both semantics should accept, `Distinct` keeping
    /// both Label(1) branches on distinct data nodes.
    fn diamond_on_diamond() -> (Pattern, Graph) {
        let (pattern, _) = diamond_on_path();
        let data = Graph::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        (pattern, data)
    }

    fn converged(pattern: &Pattern, data: &Graph) -> MatchRelation {
        let ball = Ball::new(data, NodeId(0), data.node_count());
        let view = ball.view(data);
        dual_simulation_view(pattern, &view).expect("fixture dual-simulates")
    }

    fn enforce(
        pattern: &Pattern,
        data: &Graph,
        semantics: RepetitionSemantics,
        mode: RepetitionMode,
    ) -> (MatchRelation, RepetitionOutcome) {
        let ball = Ball::new(data, NodeId(0), data.node_count());
        let view = ball.view(data);
        let mut relation = converged(pattern, data);
        let outcome = enforce_repetition(pattern, &view, &mut relation, semantics, mode);
        (relation, outcome)
    }

    #[test]
    fn free_is_a_noop() {
        let (pattern, data) = diamond_on_path();
        let before = converged(&pattern, &data);
        let (after, outcome) = enforce(
            &pattern,
            &data,
            RepetitionSemantics::Free,
            RepetitionMode::Integrated,
        );
        assert_eq!(before.to_sorted_pairs(), after.to_sorted_pairs());
        assert_eq!(outcome, RepetitionOutcome::default());
    }

    #[test]
    fn label_distinct_patterns_gate_out() {
        let pattern =
            Pattern::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        assert!(!has_repeated_labels(&pattern));
        let data =
            Graph::from_edges(vec![Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        let before = converged(&pattern, &data);
        for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
            let (after, outcome) = enforce(&pattern, &data, RepetitionSemantics::Distinct, mode);
            assert_eq!(before.to_sorted_pairs(), after.to_sorted_pairs());
            assert_eq!(outcome, RepetitionOutcome::default());
        }
    }

    #[test]
    fn distinct_rejects_the_folded_diamond() {
        let (pattern, path) = diamond_on_path();
        for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
            let (after, outcome) = enforce(&pattern, &path, RepetitionSemantics::Distinct, mode);
            assert!(outcome.changed, "folding must be detected under {mode:?}");
            assert!(!outcome.bailed);
            assert!(
                !after.is_total(),
                "no Distinct-consistent assignment exists on the path"
            );
        }
    }

    #[test]
    fn distinct_keeps_the_genuine_diamond() {
        let (pattern, data) = diamond_on_diamond();
        for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
            let (after, outcome) = enforce(&pattern, &data, RepetitionSemantics::Distinct, mode);
            assert!(!outcome.bailed);
            assert!(after.is_total(), "the genuine diamond realises the pattern");
        }
    }

    #[test]
    fn equal_accepts_the_folded_diamond_and_rejects_the_chain() {
        // Equal forces both Label(1) pattern nodes onto one data node: exactly the
        // folded realisation of the diamond. On a repeated-label *chain* 0→1→1'→2 the
        // collapsed node would need a self-loop (the 1→1' edge maps to σ(1)→σ(1)),
        // which the loop-free data chain cannot provide — while Distinct accepts it.
        let (pattern, path) = diamond_on_path();
        let chain_pattern = Pattern::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        let chain_data = Graph::from_edges(
            vec![Label(0), Label(1), Label(1), Label(2)],
            &[(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
            let (after, outcome) = enforce(&pattern, &path, RepetitionSemantics::Equal, mode);
            assert!(!outcome.changed && !outcome.bailed);
            assert!(after.is_total());
            let (after, outcome) = enforce(
                &chain_pattern,
                &chain_data,
                RepetitionSemantics::Equal,
                mode,
            );
            assert!(outcome.changed);
            assert!(!after.is_total(), "Equal needs a Label(1) self-loop here");
            let (after, _) = enforce(
                &chain_pattern,
                &chain_data,
                RepetitionSemantics::Distinct,
                mode,
            );
            assert!(
                after.is_total(),
                "Distinct realises the chain node-for-node"
            );
        }
    }

    #[test]
    fn modes_agree_pairwise() {
        for (pattern, data) in [diamond_on_path(), diamond_on_diamond()] {
            for semantics in [RepetitionSemantics::Distinct, RepetitionSemantics::Equal] {
                let (a, oa) = enforce(&pattern, &data, semantics, RepetitionMode::Integrated);
                let (b, ob) = enforce(&pattern, &data, semantics, RepetitionMode::NaiveOracle);
                assert_eq!(a.to_sorted_pairs(), b.to_sorted_pairs());
                assert_eq!(oa, ob, "outcome counters must be mode-independent");
            }
        }
    }

    #[test]
    fn budget_bails_identically_in_both_modes() {
        // A clique of one label: every node is a candidate of every pattern node, so the
        // tree bound is |V|^|Vq|; 64^4 = 2^24 exceeds the 2^18 budget.
        let n = 64u32;
        let labels = vec![Label(0); n as usize];
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let data = Graph::from_edges(labels, &edges).unwrap();
        let pattern = Pattern::from_edges(
            vec![Label(0), Label(0), Label(0), Label(0)],
            &[(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        let before = converged(&pattern, &data);
        for mode in [RepetitionMode::Integrated, RepetitionMode::NaiveOracle] {
            let (after, outcome) = enforce(&pattern, &data, RepetitionSemantics::Distinct, mode);
            assert!(outcome.bailed, "the clique must exceed the budget");
            assert!(!outcome.changed);
            assert_eq!(before.to_sorted_pairs(), after.to_sorted_pairs());
        }
    }

    #[test]
    fn class_map_groups_by_label() {
        let pattern = Pattern::from_edges(
            vec![Label(7), Label(3), Label(7), Label(3), Label(9)],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        let map = repeated_label_class_map(&pattern).expect("two repeated classes");
        assert_eq!(map[0], map[2]);
        assert_eq!(map[1], map[3]);
        assert_ne!(map[0], map[1]);
        assert_eq!(map[4], None);
    }
}
