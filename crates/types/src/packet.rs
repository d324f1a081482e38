//! Packets: the unit of injection at the network interface.

use std::fmt;

use crate::coord::NodeId;
use crate::destset::DestinationSet;
use crate::flit::{Flit, FlitKind, FLIT_BITS};
use crate::message::MessageClass;
use crate::Cycle;

/// Globally unique packet identifier (assigned by the injecting NIC).
pub type PacketId = u64;

/// The two packet formats used by the fabricated chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Coherence request or acknowledgement: a single flit that is both head
    /// and tail.
    Request,
    /// Cache-line data response: five flits (head + 3 body + tail).
    Response,
}

impl PacketKind {
    /// Number of flits a packet of this kind is segmented into.
    #[must_use]
    pub fn flit_count(self) -> usize {
        match self {
            PacketKind::Request => 1,
            PacketKind::Response => 5,
        }
    }

    /// Message class this packet kind travels in.
    #[must_use]
    pub fn message_class(self) -> MessageClass {
        match self {
            PacketKind::Request => MessageClass::Request,
            PacketKind::Response => MessageClass::Response,
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketKind::Request => f.write_str("request"),
            PacketKind::Response => f.write_str("response"),
        }
    }
}

/// A packet before segmentation into flits.
///
/// A packet carries its source, its destination set (one node for unicasts,
/// all-but-source for broadcasts), its kind (which fixes the flit count and
/// message class), and the cycle at which the NIC
/// created it (used for end-to-end latency accounting).
///
/// # Examples
///
/// ```
/// use noc_types::{DestinationSet, Packet, PacketKind};
///
/// let p = Packet::new(7, 0, DestinationSet::unicast(12), PacketKind::Response, 100);
/// let flits = p.to_flits();
/// assert_eq!(flits.len(), 5);
/// assert!(flits[0].kind().is_head());
/// assert!(flits[4].kind().is_tail());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    id: PacketId,
    source: NodeId,
    destinations: DestinationSet,
    kind: PacketKind,
    created_at: Cycle,
}

impl Packet {
    /// Creates a packet.
    ///
    /// `created_at` is the cycle at which the source NIC generated the packet;
    /// end-to-end latency is measured from this cycle until the last
    /// destination NIC receives the tail flit.
    #[must_use]
    pub fn new(
        id: PacketId,
        source: NodeId,
        destinations: DestinationSet,
        kind: PacketKind,
        created_at: Cycle,
    ) -> Self {
        Self {
            id,
            source,
            destinations,
            kind,
            created_at,
        }
    }

    /// Packet identifier.
    #[must_use]
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// Injecting node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Destination set.
    #[must_use]
    pub fn destinations(&self) -> &DestinationSet {
        &self.destinations
    }

    /// Packet kind (request / response).
    #[must_use]
    pub fn kind(&self) -> PacketKind {
        self.kind
    }

    /// Cycle at which the source NIC created the packet.
    #[must_use]
    pub fn created_at(&self) -> Cycle {
        self.created_at
    }

    /// Message class the packet travels in.
    #[must_use]
    pub fn message_class(&self) -> MessageClass {
        self.kind.message_class()
    }

    /// Number of flits the packet is segmented into.
    #[must_use]
    pub fn flit_count(&self) -> usize {
        self.kind.flit_count()
    }

    /// Returns `true` if the packet targets more than one node.
    #[must_use]
    pub fn is_multicast(&self) -> bool {
        self.destinations.is_multicast()
    }

    /// Total number of payload bits moved over a single link when the whole
    /// packet crosses it.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.flit_count() as u64 * FLIT_BITS as u64
    }

    /// Segments the packet into its flits.
    ///
    /// Every flit carries the destination set and the packet's timestamps;
    /// for single-flit packets the lone flit is [`FlitKind::HeadTail`].
    #[must_use]
    pub fn to_flits(&self) -> Vec<Flit> {
        let mut flits = Vec::with_capacity(self.flit_count());
        self.write_flits_into(&mut flits);
        flits
    }

    /// Segments the packet into its flits, appending them to `out`.
    ///
    /// This is the allocation-free sibling of [`Packet::to_flits`]: callers
    /// on the injection fast path (the NICs) keep one scratch buffer alive
    /// and reuse its capacity across every packet they segment.
    pub fn write_flits_into(&self, out: &mut Vec<Flit>) {
        let n = self.flit_count();
        for i in 0..n {
            let kind = if n == 1 {
                FlitKind::HeadTail
            } else if i == 0 {
                FlitKind::Head
            } else if i == n - 1 {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            out.push(Flit::new(self, i as u8, kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_single_flit() {
        let p = Packet::new(1, 0, DestinationSet::unicast(3), PacketKind::Request, 10);
        assert_eq!(p.flit_count(), 1);
        assert_eq!(p.bits(), 64);
        let flits = p.to_flits();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind(), FlitKind::HeadTail);
        assert_eq!(flits[0].packet_id(), 1);
        assert_eq!(flits[0].created_at(), 10);
    }

    #[test]
    fn response_is_five_flits() {
        let p = Packet::new(2, 5, DestinationSet::unicast(9), PacketKind::Response, 0);
        let flits = p.to_flits();
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind(), FlitKind::Head);
        assert_eq!(flits[1].kind(), FlitKind::Body);
        assert_eq!(flits[3].kind(), FlitKind::Body);
        assert_eq!(flits[4].kind(), FlitKind::Tail);
        assert!(flits.iter().all(|f| f.packet_id() == 2));
        assert!(flits.iter().all(|f| f.source() == 5));
    }

    #[test]
    fn broadcast_packet_is_multicast() {
        let p = Packet::new(
            4,
            0,
            DestinationSet::broadcast(4, 0),
            PacketKind::Request,
            0,
        );
        assert!(p.is_multicast());
        assert_eq!(p.destinations().len(), 15);
    }
}
