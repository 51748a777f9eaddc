//! The MACEDON API (Figure 3 of the paper).
//!
//! Layers communicate through a standard, overlay-generic interface:
//! **downcalls** request services from the layer below (`route`,
//! `routeIP`, `multicast`, `anycast`, `collect`, group management and an
//! extensible escape hatch), and **upcalls** notify the layer above
//! (`deliver`, `notify`, extensibles). The `forward` upcall is special:
//! it is a *query* — the upper layer may modify the message, its next
//! hop, or quash it entirely before the router transmits.
//!
//! Because every overlay speaks this API, "the Scribe application-layer
//! multicast protocol can be switched from using Pastry to Chord by
//! changing a single line in its MACEDON specification" — reproduced in
//! this repo by constructing the Scribe agent over either DHT agent.

use crate::key::MacedonKey;
use bytes::Bytes;
use macedon_net::NodeId;

/// Well-known protocol number (akin to IP protocol values); used to demux
/// messages and to label layers.
pub type ProtocolId = u16;

/// Reserved protocol id for engine-internal traffic (heartbeats).
pub const ENGINE_PROTOCOL: ProtocolId = 0xFFFF;

/// Reserved protocol id framing payloads a lowest layer tunnels on
/// behalf of the layers above (the engine's `macedon_routeIP` service).
/// Every spec agent, interpreted or generated, frames and unwraps it in
/// [`crate::spec`]; see [`crate::wire::tunnel_frame`].
pub const TUNNEL_PROTOCOL: ProtocolId = 0xFFFD;

/// Default priority: "the -1 priority requests use of the message's
/// default transport" (§3.3.1).
pub const DEFAULT_PRIORITY: i8 = -1;

/// A request to the layer below (or, from the application, to the top
/// layer of the stack).
#[derive(Clone, Debug)]
pub enum DownCall {
    /// Route `payload` through the overlay toward the key `dest`
    /// (`macedon_route`).
    Route {
        dest: MacedonKey,
        payload: Bytes,
        priority: i8,
    },
    /// Send directly to an IP host (`macedon_routeIP`).
    RouteIp {
        dest: NodeId,
        payload: Bytes,
        priority: i8,
    },
    /// Disseminate to all members of `group` (`macedon_multicast`).
    Multicast {
        group: MacedonKey,
        payload: Bytes,
        priority: i8,
    },
    /// Deliver to exactly one member of `group` (`macedon_anycast`).
    Anycast {
        group: MacedonKey,
        payload: Bytes,
        priority: i8,
    },
    /// Reverse-multicast: aggregate `payload` up the tree toward the root
    /// (`macedon_collect`, the paper's new primitive).
    Collect {
        group: MacedonKey,
        payload: Bytes,
        priority: i8,
    },
    /// Create a multicast session (`macedon_create_group`).
    CreateGroup { group: MacedonKey },
    /// Join a session (`macedon_join`).
    Join { group: MacedonKey },
    /// Leave a session (`macedon_leave`).
    Leave { group: MacedonKey },
    /// Protocol-specific extension (`downcall_ext`).
    Ext { op: u32, payload: Bytes },
}

impl DownCall {
    /// Stable API name for trace events (the paper's `macedon_*` verbs).
    pub fn name(&self) -> &'static str {
        match self {
            DownCall::Route { .. } => "route",
            DownCall::RouteIp { .. } => "route_ip",
            DownCall::Multicast { .. } => "multicast",
            DownCall::Anycast { .. } => "anycast",
            DownCall::Collect { .. } => "collect",
            DownCall::CreateGroup { .. } => "create_group",
            DownCall::Join { .. } => "join",
            DownCall::Leave { .. } => "leave",
            DownCall::Ext { .. } => "ext",
        }
    }
}

/// A notification to the layer above.
#[derive(Clone, Debug)]
pub enum UpCall {
    /// Message reached this node as final destination
    /// (`macedon_deliver_handler`).
    Deliver {
        src: MacedonKey,
        from: NodeId,
        payload: Bytes,
    },
    /// Neighbor set changed (`macedon_notify_handler`); `nbr_type` is
    /// protocol-defined (e.g. [`NBR_TYPE_PARENT`]).
    Notify {
        nbr_type: u32,
        neighbors: Vec<NodeId>,
    },
    /// Protocol-specific extension (`upcall_ext`).
    Ext { op: u32, payload: Bytes },
}

/// Neighbor-type constants for `Notify`, mirroring the paper's
/// `NBR_TYPE_PARENT` in the sample Overcast transition.
pub const NBR_TYPE_PARENT: u32 = 1;
pub const NBR_TYPE_CHILDREN: u32 = 2;
pub const NBR_TYPE_PEERS: u32 = 3;

/// The mutable `forward()` query: the routing layer proposes a next hop
/// for an in-transit message; each layer above may rewrite the payload,
/// redirect the destination, or quash it.
#[derive(Clone, Debug)]
pub struct ForwardInfo {
    /// Key of the message's origin.
    pub src: MacedonKey,
    /// Key the message is routed toward.
    pub dest: MacedonKey,
    /// Node this message arrived from (== this node when originating);
    /// reverse-path protocols like Scribe build trees from it.
    pub prev_hop: NodeId,
    /// Node the router intends to transmit to next.
    pub next_hop: NodeId,
    /// Tunneled upper-layer payload.
    pub payload: Bytes,
    /// Set to true to drop the message instead of forwarding.
    pub quash: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_info_mutation() {
        let mut f = ForwardInfo {
            src: MacedonKey(1),
            prev_hop: NodeId(0),
            dest: MacedonKey(2),
            next_hop: NodeId(3),
            payload: Bytes::from_static(b"x"),
            quash: false,
        };
        f.quash = true;
        f.next_hop = NodeId(9);
        assert!(f.quash);
        assert_eq!(f.next_hop, NodeId(9));
    }

    #[test]
    fn downcall_is_cloneable_for_relays() {
        let c = DownCall::Join {
            group: MacedonKey(7),
        };
        let c2 = c.clone();
        assert!(matches!(c2, DownCall::Join { group } if group == MacedonKey(7)));
    }
}
