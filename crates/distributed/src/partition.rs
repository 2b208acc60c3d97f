//! Graph partitioning into `k` fragments.
//!
//! The paper's distributed algorithm is agnostic to how the graph is partitioned ("it is
//! applicable to any G regardless of how G is partitioned and distributed"); two simple
//! strategies are provided so the experiments can show how fragmentation quality affects the
//! shipped-data bound.

use crate::error::DistError;
use ssim_graph::{Graph, NodeId};

/// Strategy used to assign nodes to fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Node `v` goes to fragment `v mod k` — maximally scattered, worst-case boundary size.
    Hash,
    /// Contiguous ranges of node ids — preserves the locality of generators that allocate
    /// related nodes with nearby ids, so fewer balls cross fragments.
    Range,
}

/// Assignment of every node to one of `k` fragments (sites).
///
/// Both strategies assign sites by node id arithmetic, so the partition is stored as
/// `(|V|, sites, strategy)` and every lookup is computed: building or cloning one is
/// O(1) whatever the graph size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPartition {
    nodes: usize,
    sites: usize,
    strategy: PartitionStrategy,
    /// Nodes per fragment under [`PartitionStrategy::Range`] (the last one takes the
    /// remainder).
    range: usize,
}

impl GraphPartition {
    /// Partitions `graph` into `sites` fragments with the given strategy.
    ///
    /// # Panics
    /// Panics when `sites == 0`.
    pub fn new(graph: &Graph, sites: usize, strategy: PartitionStrategy) -> Self {
        Self::from_node_count(graph.node_count(), sites, strategy)
    }

    /// [`GraphPartition::new`] from the node count alone. Both strategies assign sites
    /// by node id, never by adjacency, so the partition is **delta-invariant**: edge
    /// updates cannot move a node to another site.
    ///
    /// # Panics
    /// Panics when `sites == 0`.
    pub fn from_node_count(n: usize, sites: usize, strategy: PartitionStrategy) -> Self {
        assert!(sites > 0, "a partition needs at least one site");
        GraphPartition {
            nodes: n,
            sites,
            strategy,
            range: n.div_ceil(sites).max(1),
        }
    }

    /// [`GraphPartition::from_node_count`] with the degenerate shapes rejected as typed
    /// errors instead of a panic (`sites == 0`) or a silent mostly-empty partition
    /// (`sites > n`). The runtime validates configurations through this; the panicking
    /// constructor remains for low-level callers that have already checked.
    pub fn try_from_node_count(
        n: usize,
        sites: usize,
        strategy: PartitionStrategy,
    ) -> Result<Self, DistError> {
        if sites == 0 {
            return Err(DistError::NoSites);
        }
        if sites > n {
            return Err(DistError::MoreSitesThanNodes { sites, nodes: n });
        }
        Ok(Self::from_node_count(n, sites, strategy))
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// The site holding `node`.
    #[inline]
    pub fn site_of(&self, node: NodeId) -> usize {
        match self.strategy {
            PartitionStrategy::Hash => node.index() % self.sites,
            PartitionStrategy::Range => (node.index() / self.range).min(self.sites - 1),
        }
    }

    /// Nodes owned by `site`, in ascending order.
    pub fn nodes_of(&self, site: usize) -> Vec<NodeId> {
        match self.strategy {
            PartitionStrategy::Hash => (site..self.nodes)
                .step_by(self.sites)
                .map(NodeId::from_index)
                .collect(),
            PartitionStrategy::Range => self.range_of(site).map(NodeId::from_index).collect(),
        }
    }

    /// The id range a [`PartitionStrategy::Range`] fragment holds.
    fn range_of(&self, site: usize) -> std::ops::Range<usize> {
        let start = (site * self.range).min(self.nodes);
        let end = if site + 1 == self.sites {
            self.nodes
        } else {
            ((site + 1) * self.range).min(self.nodes)
        };
        start..end
    }

    /// Returns `true` when `node` has at least one neighbour stored on a different site —
    /// exactly the nodes whose balls may have to be shipped.
    pub fn is_border_node(&self, graph: &Graph, node: NodeId) -> bool {
        self.is_border_node_translated(graph, node, |v| v)
    }

    /// [`GraphPartition::is_border_node`] with node ids translated through `owner_id`
    /// before the ownership lookup. This is the form the match-graph ball substrate
    /// needs: `graph` is then the extracted `Gm`, whose inner ids translate back to the
    /// partitioned graph's ids for `site_of`.
    pub fn is_border_node_translated(
        &self,
        graph: &Graph,
        node: NodeId,
        owner_id: impl Fn(NodeId) -> NodeId,
    ) -> bool {
        let home = self.site_of(owner_id(node));
        graph
            .out_neighbors(node)
            .chain(graph.in_neighbors(node))
            .any(|w| self.site_of(owner_id(w)) != home)
    }

    /// Number of edges whose endpoints live on different sites (the edge cut).
    pub fn edge_cut(&self, graph: &Graph) -> usize {
        graph
            .edges()
            .filter(|&(s, t)| self.site_of(s) != self.site_of(t))
            .count()
    }

    /// Sizes of all fragments.
    pub fn fragment_sizes(&self) -> Vec<usize> {
        (0..self.sites)
            .map(|site| match self.strategy {
                PartitionStrategy::Hash => {
                    self.nodes / self.sites + usize::from(site < self.nodes % self.sites)
                }
                PartitionStrategy::Range => self.range_of(site).len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim_graph::Label;

    fn chain(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(vec![Label(0); n], &edges).unwrap()
    }

    #[test]
    fn hash_partition_balances_nodes() {
        let g = chain(10);
        let p = GraphPartition::new(&g, 3, PartitionStrategy::Hash);
        assert_eq!(p.sites(), 3);
        assert_eq!(p.fragment_sizes().iter().sum::<usize>(), 10);
        assert!(p.fragment_sizes().iter().all(|&s| (3..=4).contains(&s)));
        assert_eq!(p.site_of(NodeId(4)), 1);
    }

    #[test]
    fn range_partition_is_contiguous_and_has_smaller_cut() {
        let g = chain(30);
        let hash = GraphPartition::new(&g, 3, PartitionStrategy::Hash);
        let range = GraphPartition::new(&g, 3, PartitionStrategy::Range);
        assert!(range.edge_cut(&g) < hash.edge_cut(&g));
        // A chain cut into 3 contiguous ranges has exactly 2 cross edges.
        assert_eq!(range.edge_cut(&g), 2);
    }

    #[test]
    fn border_nodes_touch_other_fragments() {
        let g = chain(10);
        let p = GraphPartition::new(&g, 2, PartitionStrategy::Range);
        // Nodes 4 and 5 straddle the boundary of a 2-way range partition.
        assert!(p.is_border_node(&g, NodeId(4)));
        assert!(p.is_border_node(&g, NodeId(5)));
        assert!(!p.is_border_node(&g, NodeId(0)));
    }

    #[test]
    fn single_site_has_no_cut() {
        let g = chain(5);
        let p = GraphPartition::new(&g, 1, PartitionStrategy::Hash);
        assert_eq!(p.edge_cut(&g), 0);
        assert!(g.nodes().all(|v| !p.is_border_node(&g, v)));
        assert_eq!(p.nodes_of(0).len(), 5);
    }

    #[test]
    fn more_sites_than_nodes() {
        let g = chain(3);
        let p = GraphPartition::new(&g, 8, PartitionStrategy::Range);
        assert_eq!(p.fragment_sizes().iter().sum::<usize>(), 3);
        assert_eq!(p.sites(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_panics() {
        let g = chain(3);
        let _ = GraphPartition::new(&g, 0, PartitionStrategy::Hash);
    }

    #[test]
    fn try_constructor_rejects_degenerate_shapes() {
        assert_eq!(
            GraphPartition::try_from_node_count(3, 0, PartitionStrategy::Hash).unwrap_err(),
            DistError::NoSites
        );
        assert_eq!(
            GraphPartition::try_from_node_count(3, 8, PartitionStrategy::Range).unwrap_err(),
            DistError::MoreSitesThanNodes { sites: 8, nodes: 3 }
        );
        let p = GraphPartition::try_from_node_count(10, 3, PartitionStrategy::Range)
            .expect("valid shape");
        assert_eq!(p.sites(), 3);
        assert_eq!(p.fragment_sizes().iter().sum::<usize>(), 10);
    }
}
