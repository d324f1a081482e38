//! Input-side buffer state of a router, laid out struct-of-arrays.
//!
//! One [`InputBank`] holds the virtual-channel buffers of *all five* input
//! ports in parallel flat arrays indexed `port * vc_count + vc`: the flits
//! themselves in inline [`ArrayFifo`] rings (no per-VC heap indirection), the
//! head-readiness cycles and route state in sibling arrays, and one
//! occupancy bitmask per port. The switch allocator's mSA-I scan therefore
//! walks contiguous words — occupancy mask, head-ready cycle, head flit —
//! instead of pointer-chasing per-port buffer objects.
//!
//! External readers (the network's debug dump, benches, tests) borrow
//! [`InputPortRef`] / [`VcRef`] views instead of owning port objects.

use noc_types::{ArrayFifo, Cycle, Flit, MessageClass, Port, VcId, PORT_COUNT};

use crate::config::{RouterConfig, VcLayout, MAX_VC_DEPTH};

/// Route state of the packet currently occupying a virtual channel.
///
/// Set when the packet's head flit traverses the router (whether buffered or
/// bypassed) and cleared when the tail flit leaves, so that body and tail
/// flits inherit the output port and downstream VC chosen for the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcRoute {
    /// Output port granted to the packet's head flit.
    pub out_port: Port,
    /// Downstream virtual channel allocated to the packet.
    pub out_vc: VcId,
}

/// The head-ready sentinel for an empty VC: no head can ever be eligible.
const NEVER: Cycle = Cycle::MAX;

/// The input-buffer state of every port of one router, struct-of-arrays.
///
/// All per-VC arrays are indexed `port * vc_count + flat_vc`, where
/// `flat_vc` counts request VCs first and response VCs after (the same
/// flattening the occupancy masks and mSA-I request vectors use).
#[derive(Debug, Clone, PartialEq)]
pub struct InputBank {
    layout: VcLayout,
    /// Buffered flits of each VC (with the earliest cycle each may compete
    /// for the switch), stored inline.
    flits: Vec<ArrayFifo<(Flit, Cycle), MAX_VC_DEPTH>>,
    /// Ready cycle of each VC's *head* flit ([`NEVER`] when empty) — the
    /// word the eligibility scan reads without touching the flit itself.
    head_ready: Vec<Cycle>,
    /// Route state of the in-flight packet using each VC (if any).
    routes: Vec<Option<VcRoute>>,
    /// Bit `v` of `occupied[p]` set ⇔ VC `v` of port `p` is non-empty.
    occupied: [u32; PORT_COUNT],
    /// Total buffered flits across the bank (kept incrementally so the
    /// network's active-set scheduler can poll it for free).
    buffered: usize,
}

impl InputBank {
    /// Creates the input bank for a router provisioned per `config`.
    #[must_use]
    pub fn new(config: &RouterConfig) -> Self {
        let layout = VcLayout::new(config);
        let slots = PORT_COUNT * layout.vc_count();
        Self {
            layout,
            flits: (0..slots).map(|_| ArrayFifo::new()).collect(),
            head_ready: vec![NEVER; slots],
            routes: vec![None; slots],
            occupied: [0; PORT_COUNT],
            buffered: 0,
        }
    }

    /// Restores the bank to its post-construction state — every VC empty and
    /// route-free — keeping the (inline) storage.
    pub fn reset(&mut self) {
        for fifo in &mut self.flits {
            fifo.clear();
        }
        self.head_ready.fill(NEVER);
        self.routes.fill(None);
        self.occupied = [0; PORT_COUNT];
        self.buffered = 0;
    }

    /// Number of VCs per port across both message classes.
    #[must_use]
    pub fn vc_count(&self) -> usize {
        self.layout.vc_count()
    }

    /// Flattened per-port VC index for `(class, vc)` — request VCs first,
    /// then response VCs (see [`VcLayout::flat_vc`]).
    #[must_use]
    pub fn flat_vc(&self, class: MessageClass, vc: VcId) -> usize {
        self.layout.flat_vc(class, vc)
    }

    /// Message class of flat VC `flat`.
    #[must_use]
    pub fn class_of(&self, flat: usize) -> MessageClass {
        self.layout.class_of(flat)
    }

    /// VC identifier (within its message class) of flat VC `flat`.
    #[must_use]
    pub fn vc_id_of(&self, flat: usize) -> VcId {
        self.layout.vc_id_of(flat)
    }

    /// Buffer depth of flat VC `flat`.
    #[must_use]
    pub fn depth_of(&self, flat: usize) -> u8 {
        self.layout.depth_of(flat)
    }

    #[inline]
    fn slot(&self, port: usize, flat: usize) -> usize {
        debug_assert!(port < PORT_COUNT);
        self.layout.slot(port, flat)
    }

    /// Bitmask of flat VC indices of `port` currently holding flits.
    #[inline]
    #[must_use]
    pub fn occupied_mask(&self, port: usize) -> u32 {
        self.occupied[port]
    }

    /// Pushes an arriving flit into VC `(class, vc)` of `port`, keeping the
    /// occupancy mask, head-ready cache and buffered count in sync.
    ///
    /// # Panics
    ///
    /// Panics if the VC buffer overflows (a flow-control protocol bug).
    pub fn push_flit(
        &mut self,
        port: usize,
        class: MessageClass,
        vc: VcId,
        flit: Flit,
        ready_at: Cycle,
    ) {
        let flat = self.flat_vc(class, vc);
        let slot = self.slot(port, flat);
        assert!(
            self.flits[slot].len() < usize::from(self.depth_of(flat)),
            "VC buffer overflow: class {:?} vc {} depth {}",
            class,
            vc,
            self.depth_of(flat)
        );
        if self.flits[slot].is_empty() {
            self.head_ready[slot] = ready_at;
        }
        self.flits[slot].push_back((flit, ready_at));
        self.occupied[port] |= 1 << flat;
        self.buffered += 1;
    }

    /// Pops the head flit of flat VC `flat` of `port`, keeping the occupancy
    /// mask, head-ready cache and buffered count in sync.
    pub fn pop_flit(&mut self, port: usize, flat: usize) -> Option<Flit> {
        let slot = self.slot(port, flat);
        let (flit, _) = self.flits[slot].pop_front()?;
        self.head_ready[slot] = self.flits[slot].front().map_or(NEVER, |(_, r)| *r);
        if self.flits[slot].is_empty() {
            self.occupied[port] &= !(1 << flat);
        }
        self.buffered -= 1;
        Some(flit)
    }

    /// Earliest cycle the head of flat VC `flat` of `port` may compete for
    /// the switch ([`Cycle::MAX`] when the VC is empty). Comparing this word
    /// against `now` is the whole eligibility probe — no flit is touched.
    #[inline]
    #[must_use]
    pub fn head_ready(&self, port: usize, flat: usize) -> Cycle {
        self.head_ready[self.slot(port, flat)]
    }

    /// The head flit of flat VC `flat` of `port`, if any.
    #[must_use]
    pub fn head(&self, port: usize, flat: usize) -> Option<&Flit> {
        self.flits[self.slot(port, flat)].front().map(|(f, _)| f)
    }

    /// Mutable access to the head flit (used to shrink a multicast flit's
    /// remaining destination set after partial service).
    pub fn head_mut(&mut self, port: usize, flat: usize) -> Option<&mut Flit> {
        let slot = self.slot(port, flat);
        self.flits[slot].front_mut().map(|(f, _)| f)
    }

    /// Returns `true` when flat VC `flat` of `port` buffers no flit.
    #[must_use]
    pub fn is_empty(&self, port: usize, flat: usize) -> bool {
        self.occupied[port] & (1 << flat) == 0
    }

    /// Flits buffered in flat VC `flat` of `port`.
    #[must_use]
    pub fn occupancy_at(&self, port: usize, flat: usize) -> usize {
        self.flits[self.slot(port, flat)].len()
    }

    /// Total flits buffered across all VCs of `port`.
    #[must_use]
    pub fn occupancy(&self, port: usize) -> usize {
        (0..self.vc_count())
            .map(|flat| self.occupancy_at(port, flat))
            .sum()
    }

    /// Total flits buffered across the whole bank (O(1); maintained
    /// incrementally by push/pop).
    #[inline]
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.buffered
    }

    /// Route state of the packet currently using flat VC `flat` of `port`.
    #[inline]
    #[must_use]
    pub fn route(&self, port: usize, flat: usize) -> Option<VcRoute> {
        self.routes[self.slot(port, flat)]
    }

    /// Sets the route state (called when a head flit traverses).
    pub fn set_route(&mut self, port: usize, flat: usize, route: VcRoute) {
        let slot = self.slot(port, flat);
        self.routes[slot] = Some(route);
    }

    /// Clears the route state (called when a tail flit traverses).
    pub fn clear_route(&mut self, port: usize, flat: usize) {
        let slot = self.slot(port, flat);
        self.routes[slot] = None;
    }

    /// Read-only view of one input port (for diagnostics and tests).
    #[must_use]
    pub fn port(&self, port: Port) -> InputPortRef<'_> {
        InputPortRef { bank: self, port }
    }
}

/// Read-only view of one input port of an [`InputBank`].
#[derive(Debug, Clone, Copy)]
pub struct InputPortRef<'a> {
    bank: &'a InputBank,
    port: Port,
}

impl<'a> InputPortRef<'a> {
    /// Which router port this view covers.
    #[must_use]
    pub fn port(&self) -> Port {
        self.port
    }

    /// Number of VCs across both message classes.
    #[must_use]
    pub fn vc_count(&self) -> usize {
        self.bank.vc_count()
    }

    /// Flattened VC index for `(class, vc)` — request VCs first, then
    /// response VCs.
    #[must_use]
    pub fn flat_index(&self, class: MessageClass, vc: VcId) -> usize {
        self.bank.flat_vc(class, vc)
    }

    /// Bitmask of flat VC indices currently holding at least one flit.
    #[must_use]
    pub fn occupied_mask(&self) -> u32 {
        self.bank.occupied_mask(self.port.index())
    }

    /// Total flits buffered across all VCs of this port.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.bank.occupancy(self.port.index())
    }

    /// View of the VC buffer for `(class, vc)`.
    #[must_use]
    pub fn vc(&self, class: MessageClass, vc: VcId) -> VcRef<'a> {
        self.vc_at(self.bank.flat_vc(class, vc))
    }

    /// View of the VC buffer at flattened index `flat`.
    ///
    /// # Panics
    ///
    /// Panics if the VC does not exist in this configuration.
    #[must_use]
    pub fn vc_at(&self, flat: usize) -> VcRef<'a> {
        assert!(flat < self.bank.vc_count(), "VC index out of range");
        VcRef {
            bank: self.bank,
            port: self.port.index(),
            flat,
        }
    }
}

/// Read-only view of one virtual-channel buffer of an [`InputBank`].
#[derive(Debug, Clone, Copy)]
pub struct VcRef<'a> {
    bank: &'a InputBank,
    port: usize,
    flat: usize,
}

impl VcRef<'_> {
    /// Message class of this VC.
    #[must_use]
    pub fn class(&self) -> MessageClass {
        self.bank.class_of(self.flat)
    }

    /// VC identifier within its message class.
    #[must_use]
    pub fn id(&self) -> VcId {
        self.bank.vc_id_of(self.flat)
    }

    /// Buffer depth in flits.
    #[must_use]
    pub fn depth(&self) -> usize {
        usize::from(self.bank.depth_of(self.flat))
    }

    /// Number of flits currently buffered.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.bank.occupancy_at(self.port, self.flat)
    }

    /// Returns `true` when no flit is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bank.is_empty(self.port, self.flat)
    }

    /// The flit at the head of the FIFO regardless of readiness.
    #[must_use]
    pub fn head(&self) -> Option<&Flit> {
        self.bank.head(self.port, self.flat)
    }

    /// The head flit, if it is allowed to compete for the switch at `now`.
    #[must_use]
    pub fn eligible_head(&self, now: Cycle) -> Option<&Flit> {
        if self.bank.head_ready(self.port, self.flat) <= now {
            self.head()
        } else {
            None
        }
    }

    /// Route state of the packet currently using this VC.
    #[must_use]
    pub fn route(&self) -> Option<VcRoute> {
        self.bank.route(self.port, self.flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use noc_types::{DestinationSet, Packet, PacketKind};

    fn request_flit(id: u64) -> Flit {
        Packet::new(id, 0, DestinationSet::unicast(5), PacketKind::Request, 0)
            .to_flits()
            .remove(0)
    }

    fn bank() -> InputBank {
        InputBank::new(&RouterConfig::proposed(true))
    }

    const EAST: usize = 1;

    #[test]
    fn bank_has_the_chip_vc_layout() {
        let bank = bank();
        assert_eq!(bank.vc_count(), 6);
        let north = bank.port(Port::North);
        assert_eq!(north.vc_count(), 6);
        assert_eq!(north.vc(MessageClass::Request, 0).depth(), 1);
        assert_eq!(north.vc(MessageClass::Response, 1).depth(), 3);
        assert_eq!(north.flat_index(MessageClass::Response, 0), 4);
        assert_eq!(bank.class_of(3), MessageClass::Request);
        assert_eq!(bank.class_of(4), MessageClass::Response);
        assert_eq!(bank.vc_id_of(5), 1);
    }

    #[test]
    fn fifo_order_and_readiness_per_vc() {
        let mut bank = bank();
        bank.push_flit(EAST, MessageClass::Response, 0, request_flit(1), 5);
        bank.push_flit(EAST, MessageClass::Response, 0, request_flit(2), 6);
        let flat = bank.flat_vc(MessageClass::Response, 0);
        assert_eq!(bank.occupancy_at(EAST, flat), 2);
        assert_eq!(bank.head_ready(EAST, flat), 5, "head sets the ready word");
        let view = bank.port(Port::East).vc(MessageClass::Response, 0);
        assert!(view.eligible_head(4).is_none());
        assert_eq!(view.eligible_head(5).unwrap().packet_id(), 1);
        assert_eq!(bank.pop_flit(EAST, flat).unwrap().packet_id(), 1);
        assert_eq!(bank.head_ready(EAST, flat), 6, "next flit's readiness");
        assert_eq!(bank.head(EAST, flat).unwrap().packet_id(), 2);
        assert_eq!(bank.pop_flit(EAST, flat).unwrap().packet_id(), 2);
        assert_eq!(bank.head_ready(EAST, flat), Cycle::MAX);
        assert!(bank.pop_flit(EAST, flat).is_none());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn vc_buffer_overflow_panics() {
        let mut bank = bank();
        bank.push_flit(0, MessageClass::Request, 0, request_flit(1), 0);
        bank.push_flit(0, MessageClass::Request, 0, request_flit(2), 0);
    }

    #[test]
    fn route_state_lifecycle() {
        let mut bank = bank();
        let flat = bank.flat_vc(MessageClass::Response, 1);
        assert!(bank.route(EAST, flat).is_none());
        bank.set_route(
            EAST,
            flat,
            VcRoute {
                out_port: Port::East,
                out_vc: 1,
            },
        );
        assert_eq!(bank.route(EAST, flat).unwrap().out_port, Port::East);
        assert_eq!(
            bank.port(Port::East)
                .vc(MessageClass::Response, 1)
                .route()
                .unwrap()
                .out_vc,
            1
        );
        bank.clear_route(EAST, flat);
        assert!(bank.route(EAST, flat).is_none());
    }

    #[test]
    fn occupancy_mask_tracks_pushes_and_pops() {
        let mut bank = bank();
        assert_eq!(bank.occupied_mask(EAST), 0);
        bank.push_flit(EAST, MessageClass::Request, 2, request_flit(1), 0);
        bank.push_flit(EAST, MessageClass::Response, 0, request_flit(2), 0);
        bank.push_flit(EAST, MessageClass::Response, 0, request_flit(3), 0);
        // Request VC 2 is flat index 2; response VC 0 is flat index 4.
        assert_eq!(bank.occupied_mask(EAST), 0b1_0100);
        assert_eq!(bank.buffered_flits(), 3);
        assert!(bank.pop_flit(EAST, 4).is_some());
        assert_eq!(
            bank.occupied_mask(EAST),
            0b1_0100,
            "one flit still buffered"
        );
        assert!(bank.pop_flit(EAST, 4).is_some());
        assert_eq!(bank.occupied_mask(EAST), 0b0_0100);
        assert_eq!(bank.buffered_flits(), 1);
        bank.reset();
        assert_eq!(bank.occupied_mask(EAST), 0);
        assert_eq!(bank.occupancy(EAST), 0);
        assert_eq!(bank.buffered_flits(), 0);
        assert_eq!(bank, InputBank::new(&RouterConfig::proposed(true)));
    }

    #[test]
    fn ports_are_independent_slices_of_the_bank() {
        let mut bank = bank();
        bank.push_flit(0, MessageClass::Request, 0, request_flit(1), 0);
        bank.push_flit(3, MessageClass::Request, 2, request_flit(2), 0);
        assert_eq!(bank.occupancy(0), 1);
        assert_eq!(bank.occupancy(3), 1);
        assert_eq!(bank.occupancy(EAST), 0);
        assert_eq!(bank.port(Port::West).occupancy(), 1);
        assert_eq!(bank.buffered_flits(), 2);
    }
}
