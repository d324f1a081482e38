//! Flits: the flow-control unit that actually moves through routers.

use std::fmt;

use crate::coord::NodeId;
use crate::destset::DestinationSet;
use crate::message::MessageClass;
use crate::packet::{Packet, PacketId, PacketKind};
use crate::{Cycle, VcId};

/// Width of a flit in bits (the chip's channel width).
pub const FLIT_BITS: usize = 64;

/// Globally unique flit identifier.
pub type FlitId = u64;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Middle flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet; frees the VC on departure.
    Tail,
    /// Single-flit packet: simultaneously head and tail.
    HeadTail,
}

impl FlitKind {
    /// Returns `true` for flits that carry routing information (head flits).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Returns `true` for flits that terminate a packet (tail flits).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlitKind::Head => "head",
            FlitKind::Body => "body",
            FlitKind::Tail => "tail",
            FlitKind::HeadTail => "head-tail",
        };
        f.write_str(s)
    }
}

/// A 64-bit flow-control unit travelling through the network.
///
/// A flit remembers the identity and destination set of its parent packet so
/// that every router on the path can route it (the real chip stores this in
/// per-VC state after the head flit passes; carrying it on each flit is a
/// simulator convenience that does not change timing). It also carries
/// timestamps used for latency accounting and the virtual channel it
/// currently occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flit {
    id: FlitId,
    packet_id: PacketId,
    source: NodeId,
    destinations: DestinationSet,
    class: MessageClass,
    kind: FlitKind,
    sequence: u8,
    packet_len: u8,
    created_at: Cycle,
    injected_at: Option<Cycle>,
    vc: Option<VcId>,
    hops: u32,
    bypassed_hops: u32,
}

impl Flit {
    /// Creates the `sequence`-th flit of `packet`.
    #[must_use]
    pub fn new(packet: &Packet, sequence: u8, kind: FlitKind) -> Self {
        Self {
            id: packet.id() * 16 + u64::from(sequence),
            packet_id: packet.id(),
            source: packet.source(),
            destinations: *packet.destinations(),
            class: packet.message_class(),
            kind,
            sequence,
            packet_len: packet.flit_count() as u8,
            created_at: packet.created_at(),
            injected_at: None,
            vc: None,
            hops: 0,
            bypassed_hops: 0,
        }
    }

    /// Unique flit identifier.
    #[must_use]
    pub fn id(&self) -> FlitId {
        self.id
    }

    /// Identifier of the parent packet.
    #[must_use]
    pub fn packet_id(&self) -> PacketId {
        self.packet_id
    }

    /// Node that injected the parent packet.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Destination set of the parent packet.
    #[must_use]
    pub fn destinations(&self) -> &DestinationSet {
        &self.destinations
    }

    /// Replaces the destination set.
    ///
    /// Used by multicast forking: when a flit is replicated towards several
    /// output ports, each replica keeps only the destinations reachable
    /// through its own port.
    pub fn set_destinations(&mut self, destinations: DestinationSet) {
        self.destinations = destinations;
    }

    /// Message class of the flit.
    #[must_use]
    pub fn message_class(&self) -> MessageClass {
        self.class
    }

    /// Head/body/tail position within the packet.
    #[must_use]
    pub fn kind(&self) -> FlitKind {
        self.kind
    }

    /// Zero-based position of this flit in its packet.
    #[must_use]
    pub fn sequence(&self) -> u8 {
        self.sequence
    }

    /// Number of flits in the parent packet.
    #[must_use]
    pub fn packet_len(&self) -> u8 {
        self.packet_len
    }

    /// Cycle at which the parent packet was created at the source NIC.
    #[must_use]
    pub fn created_at(&self) -> Cycle {
        self.created_at
    }

    /// Cycle at which the flit left the source NIC, if it has been injected.
    #[must_use]
    pub fn injected_at(&self) -> Option<Cycle> {
        self.injected_at
    }

    /// Records the injection cycle.
    pub fn mark_injected(&mut self, cycle: Cycle) {
        self.injected_at = Some(cycle);
    }

    /// Virtual channel the flit currently occupies, if any.
    #[must_use]
    pub fn vc(&self) -> Option<VcId> {
        self.vc
    }

    /// Assigns the flit to virtual channel `vc`.
    pub fn set_vc(&mut self, vc: VcId) {
        self.vc = Some(vc);
    }

    /// Number of router-to-router hops the flit has taken so far.
    #[must_use]
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Number of hops at which the flit bypassed the router pipeline thanks
    /// to a successful lookahead pre-allocation.
    #[must_use]
    pub fn bypassed_hops(&self) -> u32 {
        self.bypassed_hops
    }

    /// Records one hop; `bypassed` indicates whether the hop used the
    /// single-cycle bypass path.
    pub fn record_hop(&mut self, bypassed: bool) {
        self.hops += 1;
        if bypassed {
            self.bypassed_hops += 1;
        }
    }

    /// Returns `true` when the flit should be ejected at node `node`
    /// (i.e. `node` is one of its destinations).
    #[must_use]
    pub fn targets(&self, node: NodeId) -> bool {
        self.destinations.contains(node)
    }

    /// Packet kind inferred from the message class and length.
    #[must_use]
    pub fn packet_kind(&self) -> PacketKind {
        match self.class {
            MessageClass::Request => PacketKind::Request,
            MessageClass::Response => PacketKind::Response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn sample_flit() -> Flit {
        let p = Packet::new(9, 2, DestinationSet::unicast(14), PacketKind::Request, 50);
        p.to_flits().remove(0)
    }

    #[test]
    fn flit_carries_packet_identity() {
        let f = sample_flit();
        assert_eq!(f.packet_id(), 9);
        assert_eq!(f.source(), 2);
        assert_eq!(f.created_at(), 50);
        assert_eq!(f.packet_len(), 1);
        assert!(f.kind().is_head());
        assert!(f.kind().is_tail());
        assert!(f.targets(14));
        assert!(!f.targets(2));
    }

    #[test]
    fn hop_accounting() {
        let mut f = sample_flit();
        f.record_hop(true);
        f.record_hop(false);
        f.record_hop(true);
        assert_eq!(f.hops(), 3);
        assert_eq!(f.bypassed_hops(), 2);
    }

    #[test]
    fn vc_and_injection_bookkeeping() {
        let mut f = sample_flit();
        assert_eq!(f.vc(), None);
        assert_eq!(f.injected_at(), None);
        f.set_vc(3);
        f.mark_injected(55);
        assert_eq!(f.vc(), Some(3));
        assert_eq!(f.injected_at(), Some(55));
    }

    #[test]
    fn multicast_fork_narrows_destinations() {
        let p = Packet::new(
            1,
            0,
            DestinationSet::broadcast(4, 0),
            PacketKind::Request,
            0,
        );
        let mut f = p.to_flits().remove(0);
        let east_side: DestinationSet = (0u16..16).filter(|id| id % 4 >= 2).collect();
        f.set_destinations(f.destinations().intersection(&east_side));
        assert!(f.destinations().len() < 15);
        assert!(f.destinations().iter().all(|d| d % 4 >= 2));
    }

    #[test]
    fn flit_kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
    }
}
