//! Shared identifier newtypes.
//!
//! The manycore is a mesh of tiles; every tile contains a core, its private
//! L1 caches, its scratchpad, a slice of the shared NUCA L2 and a slice of
//! the distributed directories.  [`CoreId`] identifies a core/tile and
//! [`NodeId`] identifies a network endpoint, which in this design is the same
//! numbering (one NoC router per tile).

use std::fmt;

/// Identifies one core (and, equivalently, one tile) of the manycore.
///
/// # Example
///
/// ```
/// use simkernel::CoreId;
///
/// let c = CoreId::new(17);
/// assert_eq!(c.index(), 17);
/// assert_eq!(c.to_string(), "core17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core identifier from its index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// Returns the zero-based core index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }

    /// Returns the NoC node this core is attached to (1:1 mapping).
    #[inline]
    pub const fn node(self) -> NodeId {
        NodeId(self.0)
    }

    /// Iterator over the first `n` core identifiers.
    pub fn all(n: usize) -> impl Iterator<Item = CoreId> {
        (0..n).map(CoreId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(index: usize) -> Self {
        CoreId(index)
    }
}

impl From<CoreId> for usize {
    fn from(id: CoreId) -> Self {
        id.0
    }
}

/// Identifies one endpoint (router) of the on-chip network.
///
/// # Example
///
/// ```
/// use simkernel::{CoreId, NodeId};
///
/// assert_eq!(CoreId::new(5).node(), NodeId::new(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identifier from its index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the zero-based node index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }

    /// Returns the core that lives on this node (1:1 mapping).
    #[inline]
    pub const fn core(self) -> CoreId {
        CoreId(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_and_node_roundtrip() {
        let c = CoreId::new(12);
        assert_eq!(c.index(), 12);
        assert_eq!(usize::from(c), 12);
        assert_eq!(CoreId::from(12usize), c);
        assert_eq!(c.node(), NodeId::new(12));
        assert_eq!(c.node().core(), c);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreId::new(3).to_string(), "core3");
        assert_eq!(NodeId::new(4).to_string(), "node4");
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<usize> = CoreId::all(4).map(|c| c.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert!(NodeId::new(9) > NodeId::new(3));
    }
}
