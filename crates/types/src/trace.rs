//! Deterministic record/replay traces of packet injections.
//!
//! A [`Trace`] is the workload as data: the ordered list of packet
//! injections (cycle, source, kind, destination set) a scenario performed.
//! Recording one from a live network and replaying it through a
//! trace-driven traffic source reproduces the original run bit for bit —
//! packet ids and flit layouts are regenerated deterministically from the
//! event order, so they never need to be stored.
//!
//! The serialized form is a compact little-endian binary format (cycle
//! deltas as LEB128 varints, unicasts and full broadcasts as one-byte
//! destination tags) built for checked round-tripping: every decode error
//! is a typed [`TraceError`], and decoding validates the header, the
//! event encoding and the exact byte length.

use std::fmt;

use crate::coord::NodeId;
use crate::destset::DestinationSet;
use crate::packet::PacketKind;
use crate::Cycle;

/// Magic bytes opening every serialized trace.
const MAGIC: [u8; 4] = *b"NOCT";
/// Serialization format version written by [`Trace::to_bytes`].
const VERSION: u8 = 1;

/// Destination-set encodings used in the serialized form.
const TAG_UNICAST: u8 = 0;
const TAG_BROADCAST: u8 = 1;
const TAG_GENERAL: u8 = 2;

/// One recorded packet injection.
///
/// The packet kind fixes both the message class and the flit count
/// ([`PacketKind::flit_count`]), so the event does not store a separate
/// length field. Packet ids are likewise omitted: replay regenerates them
/// from the per-node event order, exactly as the live NICs assign them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the source NIC created the packet.
    pub cycle: Cycle,
    /// Injecting node.
    pub source: NodeId,
    /// Packet kind (fixes message class and flit count).
    pub kind: PacketKind,
    /// Destination set of the packet.
    pub destinations: DestinationSet,
}

impl TraceEvent {
    /// Number of flits the recorded packet segments into.
    #[must_use]
    pub fn flit_count(&self) -> usize {
        self.kind.flit_count()
    }
}

/// A recorded injection workload for a k×k mesh.
///
/// Events are kept sorted by `(cycle, source)`; within one `(cycle,
/// source)` pair they keep their recording order (the per-node injection
/// order replay must reproduce).
///
/// # Examples
///
/// ```
/// use noc_types::{DestinationSet, PacketKind, Trace, TraceEvent};
///
/// let mut trace = Trace::new(4);
/// trace.record(TraceEvent {
///     cycle: 3,
///     source: 5,
///     kind: PacketKind::Request,
///     destinations: DestinationSet::broadcast(4, 5),
/// });
/// let bytes = trace.to_bytes();
/// assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    k: u16,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace for a k×k mesh.
    #[must_use]
    pub fn new(k: u16) -> Self {
        Self {
            k,
            events: Vec::new(),
        }
    }

    /// Builds a trace from an arbitrary event list, stably sorting it into
    /// the canonical `(cycle, source)` order.
    #[must_use]
    pub fn from_events(k: u16, mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| (e.cycle, e.source));
        Self { k, events }
    }

    /// Appends an event.
    ///
    /// Recording sites call this in simulation order, which already is the
    /// canonical order; arbitrary callers should prefer
    /// [`Trace::from_events`], which sorts.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Mesh side length the trace was recorded on.
    #[must_use]
    pub fn k(&self) -> u16 {
        self.k
    }

    /// Number of recorded injections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no injections were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events in `(cycle, source)` order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Serializes the trace into the compact binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 8);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        let mut previous_cycle: Cycle = 0;
        for event in &self.events {
            write_varint(&mut out, event.cycle - previous_cycle);
            previous_cycle = event.cycle;
            out.extend_from_slice(&event.source.to_le_bytes());
            out.push(match event.kind {
                PacketKind::Request => 0,
                PacketKind::Response => 1,
            });
            if let Some(dest) = event.destinations.sole_destination() {
                out.push(TAG_UNICAST);
                out.extend_from_slice(&dest.to_le_bytes());
            } else if event.destinations == DestinationSet::broadcast(self.k, event.source) {
                out.push(TAG_BROADCAST);
            } else {
                out.push(TAG_GENERAL);
                out.extend_from_slice(&(event.destinations.len() as u16).to_le_bytes());
                for dest in event.destinations.iter() {
                    out.extend_from_slice(&dest.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes a trace previously produced by [`Trace::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first malformed element:
    /// wrong magic, unsupported version, a truncated buffer, an unknown
    /// packet-kind or destination tag, or trailing bytes after the last
    /// event.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut reader = Reader { bytes, at: 0 };
        if reader.take(4)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = reader.u8()?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let k = reader.u16()?;
        let count = reader.u32()? as usize;
        let mut events = Vec::with_capacity(count.min(1 << 20));
        let mut cycle: Cycle = 0;
        for _ in 0..count {
            cycle += reader.varint()?;
            let source = reader.u16()?;
            let kind = match reader.u8()? {
                0 => PacketKind::Request,
                1 => PacketKind::Response,
                other => return Err(TraceError::InvalidKind(other)),
            };
            let destinations = match reader.u8()? {
                TAG_UNICAST => DestinationSet::unicast(reader.u16()?),
                TAG_BROADCAST => DestinationSet::broadcast(k, source),
                TAG_GENERAL => {
                    let n = reader.u16()?;
                    let mut set = DestinationSet::empty();
                    for _ in 0..n {
                        set.insert(reader.u16()?);
                    }
                    set
                }
                other => return Err(TraceError::InvalidTag(other)),
            };
            events.push(TraceEvent {
                cycle,
                source,
                kind,
                destinations,
            });
        }
        if reader.at != bytes.len() {
            return Err(TraceError::TrailingBytes);
        }
        Ok(Self { k, events })
    }
}

/// Appends `value` as an LEB128 varint.
fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Cursor over a serialized trace.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], TraceError> {
        let end = self.at.checked_add(n).ok_or(TraceError::UnexpectedEnd)?;
        if end > self.bytes.len() {
            return Err(TraceError::UnexpectedEnd);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(TraceError::InvalidVarint)
    }
}

/// Errors decoding a serialized [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not start with the trace magic bytes.
    BadMagic,
    /// The format version is newer than this decoder understands.
    UnsupportedVersion(u8),
    /// The buffer ended in the middle of a field.
    UnexpectedEnd,
    /// A cycle-delta varint ran past 64 bits.
    InvalidVarint,
    /// An unknown packet-kind byte.
    InvalidKind(u8),
    /// An unknown destination-set tag byte.
    InvalidTag(u8),
    /// Well-formed events were followed by extra bytes.
    TrailingBytes,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => f.write_str("not a serialized trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::UnexpectedEnd => f.write_str("trace truncated mid-field"),
            TraceError::InvalidVarint => f.write_str("cycle delta varint overflows 64 bits"),
            TraceError::InvalidKind(b) => write!(f, "unknown packet kind byte {b:#04x}"),
            TraceError::InvalidTag(b) => write!(f, "unknown destination tag byte {b:#04x}"),
            TraceError::TrailingBytes => f.write_str("trailing bytes after the last event"),
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut trace = Trace::new(4);
        trace.record(TraceEvent {
            cycle: 0,
            source: 0,
            kind: PacketKind::Request,
            destinations: DestinationSet::unicast(7),
        });
        trace.record(TraceEvent {
            cycle: 0,
            source: 9,
            kind: PacketKind::Response,
            destinations: DestinationSet::unicast(2),
        });
        trace.record(TraceEvent {
            cycle: 130,
            source: 5,
            kind: PacketKind::Request,
            destinations: DestinationSet::broadcast(4, 5),
        });
        trace.record(TraceEvent {
            cycle: 131,
            source: 5,
            kind: PacketKind::Request,
            destinations: [1u16, 2, 3].into_iter().collect(),
        });
        trace
    }

    #[test]
    fn round_trips_through_bytes() {
        let trace = sample();
        let bytes = trace.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new(8);
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded, trace);
        assert!(decoded.is_empty());
        assert_eq!(decoded.k(), 8);
    }

    #[test]
    fn from_events_sorts_into_canonical_order() {
        let shuffled = vec![
            TraceEvent {
                cycle: 9,
                source: 1,
                kind: PacketKind::Request,
                destinations: DestinationSet::unicast(0),
            },
            TraceEvent {
                cycle: 2,
                source: 3,
                kind: PacketKind::Request,
                destinations: DestinationSet::unicast(0),
            },
            TraceEvent {
                cycle: 2,
                source: 1,
                kind: PacketKind::Request,
                destinations: DestinationSet::unicast(0),
            },
        ];
        let trace = Trace::from_events(4, shuffled);
        let order: Vec<(Cycle, NodeId)> =
            trace.events().iter().map(|e| (e.cycle, e.source)).collect();
        assert_eq!(order, vec![(2, 1), (2, 3), (9, 1)]);
    }

    #[test]
    fn decode_rejects_malformed_buffers() {
        let good = sample().to_bytes();

        assert_eq!(Trace::from_bytes(b"XX"), Err(TraceError::UnexpectedEnd));
        assert_eq!(Trace::from_bytes(b"XXXX"), Err(TraceError::BadMagic));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(Trace::from_bytes(&bad_magic), Err(TraceError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(
            Trace::from_bytes(&bad_version),
            Err(TraceError::UnsupportedVersion(99))
        );

        let truncated = &good[..good.len() - 1];
        assert_eq!(Trace::from_bytes(truncated), Err(TraceError::UnexpectedEnd));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(Trace::from_bytes(&trailing), Err(TraceError::TrailingBytes));
    }

    #[test]
    fn broadcasts_use_the_one_byte_encoding() {
        let mut bcast = Trace::new(4);
        bcast.record(TraceEvent {
            cycle: 1,
            source: 3,
            kind: PacketKind::Request,
            destinations: DestinationSet::broadcast(4, 3),
        });
        let mut listed = Trace::new(4);
        listed.record(TraceEvent {
            cycle: 1,
            source: 3,
            kind: PacketKind::Request,
            destinations: (0u16..16).filter(|&d| d != 3).collect::<DestinationSet>(),
        });
        // Identical sets: the broadcast-tagged encoding must be much smaller
        // than fifteen listed destinations, yet decode to the same trace.
        assert_eq!(bcast, listed);
        assert_eq!(bcast.to_bytes(), listed.to_bytes());
        assert!(bcast.to_bytes().len() < 16 + 15 * 2);
        assert_eq!(Trace::from_bytes(&bcast.to_bytes()).unwrap(), listed);
    }
}
