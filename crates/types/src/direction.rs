//! Router ports and port sets.
//!
//! Each router of the mesh has five input/output ports: the four mesh
//! directions plus the local port that connects to the network interface
//! controller (NIC). Multicast flits request *sets* of output ports, which we
//! represent compactly as a [`PortSet`] bit vector (this mirrors the 5-bit
//! output-port request vector of the chip's mSA-I stage).

use std::fmt;

/// Number of ports on every router (N, E, S, W, Local).
pub const PORT_COUNT: usize = 5;

/// One of the four mesh directions.
///
/// `Direction` is the *link* direction; [`Port`] additionally includes the
/// local NIC port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Towards increasing `y`.
    North,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `y`.
    South,
    /// Towards decreasing `x`.
    West,
}

impl Direction {
    /// All four directions, in port-index order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The direction a flit arrives *from* when it was sent in `self`'s
    /// direction (i.e. the opposite direction).
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// The router port corresponding to this direction.
    #[must_use]
    pub fn port(self) -> Port {
        match self {
            Direction::North => Port::North,
            Direction::East => Port::East,
            Direction::South => Port::South,
            Direction::West => Port::West,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// One of the five router ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Port {
    /// Link towards the node above (`y + 1`).
    North,
    /// Link towards the node to the right (`x + 1`).
    East,
    /// Link towards the node below (`y - 1`).
    South,
    /// Link towards the node to the left (`x - 1`).
    West,
    /// Local port: connection to the node's NIC (injection / ejection).
    Local,
}

impl Port {
    /// All five ports in index order (N, E, S, W, Local).
    pub const ALL: [Port; PORT_COUNT] = [
        Port::North,
        Port::East,
        Port::South,
        Port::West,
        Port::Local,
    ];

    /// Stable index of the port, `0..PORT_COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }

    /// Builds a port back from its [`index`](Port::index).
    ///
    /// Returns `None` when `index >= PORT_COUNT`.
    #[must_use]
    pub fn from_index(index: usize) -> Option<Port> {
        Port::ALL.get(index).copied()
    }

    /// The mesh direction of this port, or `None` for the local port.
    #[must_use]
    pub fn direction(self) -> Option<Direction> {
        match self {
            Port::North => Some(Direction::North),
            Port::East => Some(Direction::East),
            Port::South => Some(Direction::South),
            Port::West => Some(Direction::West),
            Port::Local => None,
        }
    }

    /// Returns `true` for the local (NIC) port.
    #[must_use]
    pub fn is_local(self) -> bool {
        self == Port::Local
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
            Port::Local => "NIC",
        };
        f.write_str(s)
    }
}

impl From<Direction> for Port {
    fn from(d: Direction) -> Self {
        d.port()
    }
}

/// A set of router ports, stored as a 5-bit vector.
///
/// This is the in-model equivalent of the chip's 5-bit output-port request
/// produced by the mSA-I stage: unicast flits request exactly one port,
/// multicast and broadcast flits may request several.
///
/// # Examples
///
/// ```
/// use noc_types::{Port, PortSet};
///
/// let mut set = PortSet::empty();
/// set.insert(Port::North);
/// set.insert(Port::Local);
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(Port::North));
/// assert!(!set.contains(Port::East));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortSet(u8);

impl PortSet {
    /// The empty port set.
    #[must_use]
    pub fn empty() -> Self {
        PortSet(0)
    }

    /// Creates a new, empty port set (alias of [`PortSet::empty`]).
    #[must_use]
    pub fn new() -> Self {
        Self::empty()
    }

    /// A set containing a single port.
    #[must_use]
    pub fn single(port: Port) -> Self {
        let mut s = Self::empty();
        s.insert(port);
        s
    }

    /// A set containing all five ports.
    #[must_use]
    pub fn all() -> Self {
        PortSet(0b1_1111)
    }

    /// Adds `port` to the set. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, port: Port) -> bool {
        let bit = 1u8 << port.index();
        let was_absent = self.0 & bit == 0;
        self.0 |= bit;
        was_absent
    }

    /// Removes `port` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, port: Port) -> bool {
        let bit = 1u8 << port.index();
        let was_present = self.0 & bit != 0;
        self.0 &= !bit;
        was_present
    }

    /// Returns `true` if the set contains `port`.
    #[must_use]
    pub fn contains(self, port: Port) -> bool {
        self.0 & (1 << port.index()) != 0
    }

    /// Number of ports in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` when no port is in the set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the ports in the set in index order.
    pub fn iter(self) -> impl Iterator<Item = Port> {
        Port::ALL.into_iter().filter(move |p| self.contains(*p))
    }

    /// Union of two port sets.
    #[must_use]
    pub fn union(self, other: PortSet) -> PortSet {
        PortSet(self.0 | other.0)
    }

    /// Intersection of two port sets.
    #[must_use]
    pub fn intersection(self, other: PortSet) -> PortSet {
        PortSet(self.0 & other.0)
    }

    /// Raw 5-bit representation (bit `i` = `Port::from_index(i)`).
    #[must_use]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Builds a port set back from its raw [`bits`](PortSet::bits)
    /// representation; bits above the five port positions are ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_types::{Port, PortSet};
    ///
    /// let set = PortSet::from_bits(0b00011);
    /// assert_eq!(set, [Port::North, Port::East].into_iter().collect());
    /// assert_eq!(PortSet::from_bits(set.bits()), set);
    /// ```
    #[must_use]
    pub fn from_bits(bits: u8) -> PortSet {
        PortSet(bits & 0b1_1111)
    }
}

impl fmt::Debug for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PortSet{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        f.write_str("}")
    }
}

impl FromIterator<Port> for PortSet {
    fn from_iter<I: IntoIterator<Item = Port>>(iter: I) -> Self {
        let mut s = PortSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<Port> for PortSet {
    fn extend<I: IntoIterator<Item = Port>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn port_index_round_trip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), Some(p));
        }
        assert_eq!(Port::from_index(PORT_COUNT), None);
    }

    #[test]
    fn portset_insert_remove() {
        let mut s = PortSet::empty();
        assert!(s.is_empty());
        assert!(s.insert(Port::East));
        assert!(!s.insert(Port::East));
        assert_eq!(s.len(), 1);
        assert!(s.remove(Port::East));
        assert!(!s.remove(Port::East));
        assert!(s.is_empty());
    }

    #[test]
    fn portset_all_and_iter() {
        let s = PortSet::all();
        assert_eq!(s.len(), PORT_COUNT);
        let ports: Vec<_> = s.iter().collect();
        assert_eq!(ports, Port::ALL.to_vec());
    }

    #[test]
    fn portset_set_operations() {
        let a: PortSet = [Port::North, Port::East].into_iter().collect();
        let b: PortSet = [Port::East, Port::Local].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b), PortSet::single(Port::East));
    }

    #[test]
    fn portset_bits_round_trip_and_truncate() {
        for bits in 0u8..=0b1_1111 {
            assert_eq!(PortSet::from_bits(bits).bits(), bits);
        }
        assert_eq!(PortSet::from_bits(0xFF), PortSet::all());
    }

    #[test]
    fn portset_debug_lists_members() {
        let s: PortSet = [Port::North, Port::Local].into_iter().collect();
        assert_eq!(format!("{s:?}"), "PortSet{N,NIC}");
    }
}
