use std::fmt;

/// Identifier of a node (player) in a network.
///
/// Node ids are small dense integers assigned by the graph that owns them;
/// they index adjacency tables and bit positions in [`NodeSet`]s.
///
/// # Example
///
/// ```
/// use rmt_sets::NodeId;
///
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "v3");
/// ```
///
/// [`NodeSet`]: crate::NodeSet
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

/// The bound on a node id read from outside the process (wire bytes, JSON,
/// instance files): decoders reject any id from here up. Graphs, node sets
/// and knowledge caches allocate by id, so an unbounded id would make a few
/// bytes of input cost memory linear in the id.
pub const MAX_NODE_ID: u32 = 1 << 16;

impl NodeId {
    /// Creates a node id from its raw integer value.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw integer value, usable as an array index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let v = NodeId::new(42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(NodeId::from(42u32), v);
        assert_eq!(usize::from(v), 42);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(7), NodeId::new(7));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", NodeId::new(0)), "v0");
        assert_eq!(format!("{:?}", NodeId::new(0)), "NodeId(0)");
    }
}
