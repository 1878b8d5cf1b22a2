//! Node topology: sockets, cores, and NUMA domains.
//!
//! The reproduction's reference node mirrors the paper's testbed: two
//! sockets, 12 cores each, one NUMA memory domain per socket. The topology is
//! fully parameterized so tests can build smaller machines.

use serde::{Deserialize, Error, Serialize, Value};

/// Most sockets a node may have (the paper's testbed node has 2). A thread
/// placement keeps its per-socket counts in a fixed array of this length,
/// so resolving one allocates nothing; [`NodeTopology::new`] rejects wider
/// machines.
pub const MAX_SOCKETS: usize = 4;

/// Identifier of a physical core, globally numbered `0..total_cores()`.
/// Cores `[s·cps, (s+1)·cps)` belong to socket `s` (cps = cores per socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub usize);

/// Identifier of a socket / NUMA domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SocketId(pub usize);

/// Static shape of a compute node. Deserializing checks the shape as
/// [`NodeTopology::new`] does, so a bad node description fails where it is
/// read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NodeTopology {
    sockets: usize,
    cores_per_socket: usize,
}

impl NodeTopology {
    /// Build a topology; both dimensions must be non-zero, and there may
    /// be at most [`MAX_SOCKETS`] sockets.
    pub fn new(sockets: usize, cores_per_socket: usize) -> Self {
        let invalid = Self::invalid(sockets, cores_per_socket);
        assert!(invalid.is_none(), "{}", invalid.unwrap_or_default());
        Self {
            sockets,
            cores_per_socket,
        }
    }

    /// Why a node of `sockets` × `cores_per_socket` cannot be built, if it
    /// cannot.
    fn invalid(sockets: usize, cores_per_socket: usize) -> Option<String> {
        if sockets == 0 {
            Some("topology needs at least one socket".to_string())
        } else if sockets > MAX_SOCKETS {
            Some(format!(
                "{sockets} sockets exceed the supported {MAX_SOCKETS}"
            ))
        } else if cores_per_socket == 0 {
            Some("topology needs at least one core per socket".to_string())
        } else {
            None
        }
    }

    /// The paper's testbed node: 2 × 12-core Haswell.
    pub fn haswell_2x12() -> Self {
        Self::new(2, 12)
    }

    /// Number of sockets (= NUMA domains).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Cores on each socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Socket owning a core. Panics if the core id is out of range.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        assert!(core.0 < self.total_cores(), "core {core:?} out of range");
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Iterator over the core ids of one socket.
    pub fn cores_of(&self, socket: SocketId) -> impl Iterator<Item = CoreId> {
        assert!(socket.0 < self.sockets, "socket {socket:?} out of range");
        let start = socket.0 * self.cores_per_socket;
        (start..start + self.cores_per_socket).map(CoreId)
    }

    /// Iterator over all socket ids.
    pub fn socket_ids(&self) -> impl Iterator<Item = SocketId> {
        (0..self.sockets).map(SocketId)
    }

    /// Half of the total cores, as used by the paper's half-core profiling
    /// configuration (rounded down, at least 1).
    pub fn half_cores(&self) -> usize {
        (self.total_cores() / 2).max(1)
    }
}

impl Deserialize for NodeTopology {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        if !matches!(v, Value::Object(_)) {
            return Err(Error::invalid_type("object", v));
        }
        let field = |name: &str| match v.get(name) {
            Some(x) => usize::deserialize_value(x),
            None => serde::missing_field(name),
        };
        let (sockets, cores_per_socket) = (field("sockets")?, field("cores_per_socket")?);
        match Self::invalid(sockets, cores_per_socket) {
            Some(why) => Err(Error::custom(format!(
                "invalid topology of {sockets} sockets x {cores_per_socket} cores: {why}"
            ))),
            None => Ok(Self {
                sockets,
                cores_per_socket,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_shape() {
        let t = NodeTopology::haswell_2x12();
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.cores_per_socket(), 12);
        assert_eq!(t.total_cores(), 24);
        assert_eq!(t.half_cores(), 12);
    }

    #[test]
    fn socket_ownership() {
        let t = NodeTopology::haswell_2x12();
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(11)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(12)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(23)), SocketId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_checks_range() {
        NodeTopology::haswell_2x12().socket_of(CoreId(24));
    }

    #[test]
    fn cores_of_socket() {
        let t = NodeTopology::new(2, 3);
        let s1: Vec<_> = t.cores_of(SocketId(1)).collect();
        assert_eq!(s1, vec![CoreId(3), CoreId(4), CoreId(5)]);
    }

    #[test]
    fn half_cores_minimum_one() {
        assert_eq!(NodeTopology::new(1, 1).half_cores(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn zero_sockets_rejected() {
        NodeTopology::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "sockets exceed the supported")]
    fn too_many_sockets_rejected() {
        NodeTopology::new(MAX_SOCKETS + 1, 4);
    }

    #[test]
    #[should_panic(expected = "at least one core per socket")]
    fn zero_cores_per_socket_rejected() {
        NodeTopology::new(2, 0);
    }

    #[test]
    fn socket_ids_enumerate_all() {
        let t = NodeTopology::new(4, 2);
        let ids: Vec<_> = t.socket_ids().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[3], SocketId(3));
    }
}
