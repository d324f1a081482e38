//! Pooled, refcounted flit storage addressed by small handles.
//!
//! The network core schedules flits through its event wheel by value today's
//! `Delivery` enum would copy a ~100-byte `Flit` per hop. A [`FlitSlab`]
//! decouples payload from schedule: payloads are parked once in a pooled slot
//! and the wheel moves 8-byte [`FlitHandle`]s instead. Multicast forks become
//! a handle copy with a refcounted payload — each fork branch gets a *replica*
//! handle recording only its per-branch overrides (narrowed destination set,
//! downstream VC, hop accounting), and the full flit is materialised lazily at
//! delivery. Branches that eject to a NIC never materialise at all: NIC
//! reception reads only override-independent fields, so the shared payload is
//! peeked in place and released.
//!
//! Slot storage (payload slots, replica slots and both free lists) is
//! recycled, so steady-state insert/take cycles perform no heap allocation;
//! [`FlitSlab::reset`] drains every slot while keeping the pooled capacity —
//! the slab half of the warm network reset.
//!
//! Handles are opaque: nothing observable depends on slot indices, which is
//! what keeps a warm (index-recycling) network bit-identical to a cold one.

use noc_types::{DestinationSet, Flit, VcId};

/// Discriminator bit of a [`FlitHandle`]: set for replica handles.
const REPLICA_BIT: u32 = 1 << 31;

/// An 8-byte-event-sized ticket for one flit parked in a [`FlitSlab`].
///
/// A *direct* handle owns (a reference to) a payload slot; a *replica* handle
/// points at a replica slot holding per-branch overrides plus a reference to
/// the shared payload of a multicast fork. Every handle must be consumed
/// exactly once, by [`FlitSlab::take`] or [`FlitSlab::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitHandle(u32);

impl FlitHandle {
    fn direct(index: usize) -> Self {
        debug_assert!((index as u32) & REPLICA_BIT == 0, "slab index overflow");
        Self(index as u32)
    }

    fn replica(index: usize) -> Self {
        debug_assert!((index as u32) & REPLICA_BIT == 0, "slab index overflow");
        Self(index as u32 | REPLICA_BIT)
    }

    fn is_replica(self) -> bool {
        self.0 & REPLICA_BIT != 0
    }

    fn index(self) -> usize {
        (self.0 & !REPLICA_BIT) as usize
    }
}

/// One pooled payload slot: the flit plus the number of live handles
/// (direct or replica) that still reference it.
#[derive(Debug, Clone)]
struct PayloadSlot {
    refs: u32,
    flit: Option<Flit>,
}

/// Per-branch overrides of one multicast fork replica: everything a branch
/// changes about the shared payload, recorded instead of cloning it.
#[derive(Debug, Clone, Copy)]
struct ReplicaSlot {
    base: u32,
    destinations: DestinationSet,
    vc: VcId,
    /// `Some(bypassed)` when the branch crossed a router-to-router link and
    /// owes the flit a hop record; `None` for ejection branches.
    hop: Option<bool>,
}

/// Pooled, refcounted storage for in-flight flits (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct FlitSlab {
    payloads: Vec<PayloadSlot>,
    payload_free: Vec<u32>,
    replicas: Vec<ReplicaSlot>,
    replica_free: Vec<u32>,
    live: usize,
}

impl FlitSlab {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (issued but not yet consumed) handles.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// `true` when no handle is outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Payload slots ever allocated (live or pooled for reuse) — the
    /// capacity a warm reset retains.
    #[must_use]
    pub fn pooled_payload_slots(&self) -> usize {
        self.payloads.len()
    }

    /// Replica slots ever allocated (live or pooled for reuse).
    #[must_use]
    pub fn pooled_replica_slots(&self) -> usize {
        self.replicas.len()
    }

    /// Parks `flit` in a pooled slot and returns its direct handle.
    pub fn insert(&mut self, flit: Flit) -> FlitHandle {
        self.live += 1;
        if let Some(index) = self.payload_free.pop() {
            let slot = &mut self.payloads[index as usize];
            debug_assert!(slot.flit.is_none(), "free-listed slot must be empty");
            slot.refs = 1;
            slot.flit = Some(flit);
            FlitHandle::direct(index as usize)
        } else {
            self.payloads.push(PayloadSlot {
                refs: 1,
                flit: Some(flit),
            });
            FlitHandle::direct(self.payloads.len() - 1)
        }
    }

    /// Issues a replica handle sharing `base`'s payload, carrying the
    /// per-branch overrides a multicast fork would otherwise clone the whole
    /// flit to apply. The payload's refcount grows by one; the fork caller
    /// releases its own `base` handle once every branch is replicated.
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself a replica handle.
    pub fn replicate(
        &mut self,
        base: FlitHandle,
        destinations: DestinationSet,
        vc: VcId,
        hop: Option<bool>,
    ) -> FlitHandle {
        assert!(!base.is_replica(), "replicas must share a direct handle");
        self.payloads[base.index()].refs += 1;
        self.live += 1;
        let slot = ReplicaSlot {
            base: base.index() as u32,
            destinations,
            vc,
            hop,
        };
        if let Some(index) = self.replica_free.pop() {
            self.replicas[index as usize] = slot;
            FlitHandle::replica(index as usize)
        } else {
            self.replicas.push(slot);
            FlitHandle::replica(self.replicas.len() - 1)
        }
    }

    /// Consumes `handle` and materialises its flit: a direct handle moves
    /// (or, while shared, clones) its payload out; a replica handle applies
    /// its overrides on top. The last handle of a payload frees its slot.
    pub fn take(&mut self, handle: FlitHandle) -> Flit {
        self.live -= 1;
        if handle.is_replica() {
            let replica = self.replicas[handle.index()];
            self.replica_free.push(handle.index() as u32);
            let mut flit = self.take_payload(replica.base as usize);
            flit.set_destinations(replica.destinations);
            flit.set_vc(replica.vc);
            if let Some(bypassed) = replica.hop {
                flit.record_hop(bypassed);
            }
            flit
        } else {
            self.take_payload(handle.index())
        }
    }

    /// The shared payload behind `handle`, *without* applying replica
    /// overrides. Only valid for readers that ignore the overridden fields
    /// (destination set, VC assignment, hop counts) — NIC reception, which
    /// reads just the flit kind, packet id and packet length, is the one
    /// production caller.
    #[must_use]
    pub fn peek_payload(&self, handle: FlitHandle) -> &Flit {
        let index = if handle.is_replica() {
            self.replicas[handle.index()].base as usize
        } else {
            handle.index()
        };
        self.payloads[index]
            .flit
            .as_ref()
            .expect("live handle has a payload")
    }

    /// Consumes `handle` without materialising a flit (used after a peeked
    /// NIC delivery). The last handle of a payload frees its slot.
    pub fn release(&mut self, handle: FlitHandle) {
        self.live -= 1;
        if handle.is_replica() {
            let base = self.replicas[handle.index()].base as usize;
            self.replica_free.push(handle.index() as u32);
            self.drop_payload_ref(base);
        } else {
            self.drop_payload_ref(handle.index());
        }
    }

    /// Drains every outstanding handle and payload while keeping all pooled
    /// slot storage, restoring the observable state of a cold slab.
    pub fn reset(&mut self) {
        self.live = 0;
        for slot in &mut self.payloads {
            slot.refs = 0;
            slot.flit = None;
        }
        self.payload_free.clear();
        for index in (0..self.payloads.len()).rev() {
            self.payload_free.push(index as u32);
        }
        self.replica_free.clear();
        for index in (0..self.replicas.len()).rev() {
            self.replica_free.push(index as u32);
        }
    }

    fn take_payload(&mut self, index: usize) -> Flit {
        let slot = &mut self.payloads[index];
        slot.refs -= 1;
        if slot.refs == 0 {
            let flit = slot.flit.take().expect("live handle has a payload");
            self.payload_free.push(index as u32);
            flit
        } else {
            slot.flit.clone().expect("live handle has a payload")
        }
    }

    fn drop_payload_ref(&mut self, index: usize) {
        let slot = &mut self.payloads[index];
        slot.refs -= 1;
        if slot.refs == 0 {
            slot.flit = None;
            self.payload_free.push(index as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Packet, PacketKind};

    fn flit(id: u64, dest: u16) -> Flit {
        let packet = Packet::new(id, 0, DestinationSet::unicast(dest), PacketKind::Request, 0);
        let mut f = packet.to_flits().remove(0);
        f.set_vc(0);
        f
    }

    #[test]
    fn insert_take_roundtrips_a_flit() {
        let mut slab = FlitSlab::new();
        let original = flit(1, 7);
        let handle = slab.insert(original.clone());
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.take(handle), original);
        assert!(slab.is_empty());
    }

    #[test]
    fn fork_replicas_share_one_payload_and_apply_overrides() {
        let mut slab = FlitSlab::new();
        let base_flit = flit(1, 7);
        let base = slab.insert(base_flit.clone());
        let east = slab.replicate(base, DestinationSet::unicast(7), 2, Some(true));
        let local = slab.replicate(base, DestinationSet::unicast(5), 0, None);
        slab.release(base);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.pooled_payload_slots(), 1, "one shared payload");

        // The ejection branch is peekable without materialisation...
        assert_eq!(slab.peek_payload(local).packet_id(), 1);
        slab.release(local);
        // ...and the link branch materialises with its overrides applied.
        let taken = slab.take(east);
        assert_eq!(taken.vc(), Some(2));
        assert_eq!(taken.bypassed_hops(), base_flit.bypassed_hops() + 1);
        assert!(taken.destinations().contains(7));
        assert!(slab.is_empty());
    }

    #[test]
    fn recycled_slots_never_alias_live_payloads() {
        let mut slab = FlitSlab::new();
        let a = slab.insert(flit(1, 3));
        let b = slab.insert(flit(2, 4));
        assert_eq!(slab.take(a).packet_id(), 1);
        // The freed slot is reused by the next insert...
        let c = slab.insert(flit(3, 5));
        // ...without disturbing the still-live payload.
        assert_eq!(slab.peek_payload(b).packet_id(), 2);
        assert_eq!(slab.take(c).packet_id(), 3);
        assert_eq!(slab.take(b).packet_id(), 2);
        assert_eq!(slab.pooled_payload_slots(), 2);
    }

    #[test]
    fn reset_drains_to_cold_state_keeping_capacity() {
        let mut slab = FlitSlab::new();
        let base = slab.insert(flit(1, 3));
        let _r = slab.replicate(base, DestinationSet::unicast(3), 1, Some(false));
        let _d = slab.insert(flit(2, 4));
        slab.reset();
        assert!(slab.is_empty());
        assert_eq!(slab.pooled_payload_slots(), 2, "slots survive the reset");
        assert_eq!(slab.pooled_replica_slots(), 1);
        // The pool is fully reusable afterwards.
        let h = slab.insert(flit(9, 8));
        assert_eq!(slab.take(h).packet_id(), 9);
        assert_eq!(slab.pooled_payload_slots(), 2, "no growth after reset");
    }
}
