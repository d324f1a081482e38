//! Lookahead signals for virtual bypassing.
//!
//! When a flit wins switch traversal at router A towards router B, router A
//! also computes the output ports the flit will need *at B* (next-route
//! computation) and sends that request ahead of the flit as a small sideband
//! signal (15 bits on the chip: 5 output-port bits per message class plus VC
//! identification). The lookahead enters B's mSA-II with priority over
//! buffered flits; if it wins all the ports the flit needs, the flit skips
//! B's first two pipeline stages entirely and traverses B in a single cycle.

use noc_types::{FlitId, MessageClass, PortSet, VcId};

/// A lookahead (crossbar pre-allocation request) travelling one hop ahead of
/// its flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookahead {
    /// Identifier of the flit the lookahead pre-allocates for (used to match
    /// the lookahead with the flit arriving on the same input port).
    pub flit_id: FlitId,
    /// Message class of the flit.
    pub class: MessageClass,
    /// Virtual channel (at the receiving router's input port) the flit was
    /// assigned by the upstream VA stage.
    pub vc: VcId,
    /// Output ports the flit will request at the receiving router.
    pub requested_ports: PortSet,
}

impl Lookahead {
    /// Creates a lookahead.
    #[must_use]
    pub fn new(flit_id: FlitId, class: MessageClass, vc: VcId, requested_ports: PortSet) -> Self {
        Self {
            flit_id,
            class,
            vc,
            requested_ports,
        }
    }

    /// Approximate width of the sideband signal in bits, as reported by the
    /// paper (5 bits of output-port request per message class plus VC id —
    /// 15 bits total per link).
    #[must_use]
    pub fn signal_bits() -> u32 {
        15
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::Port;

    #[test]
    fn lookahead_carries_request_vector() {
        let ports: PortSet = [Port::East, Port::Local].into_iter().collect();
        let la = Lookahead::new(42, MessageClass::Request, 3, ports);
        assert_eq!(la.flit_id, 42);
        assert_eq!(la.requested_ports.len(), 2);
        assert!(la.requested_ports.contains(Port::East));
        assert_eq!(Lookahead::signal_bits(), 15);
    }
}
