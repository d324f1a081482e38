//! Destination sets for unicast, multicast and broadcast packets.

use std::fmt;

use crate::coord::NodeId;

/// Maximum number of nodes a [`DestinationSet`] can represent (a 16×16 mesh).
pub(crate) const MAX_NODES: usize = 256;
const WORDS: usize = MAX_NODES / 64;

/// The set of destination nodes of a packet.
///
/// A unicast packet has exactly one destination; a broadcast packet targets
/// every node except (by the paper's convention) the source itself; general
/// multicasts can target any subset. The set is a fixed-size bit vector
/// sized for meshes up to 16×16, which comfortably covers the paper's 4×4
/// prototype and the 8×8 networks used in its Table 2 comparisons.
///
/// # Examples
///
/// ```
/// use noc_types::DestinationSet;
///
/// let unicast = DestinationSet::unicast(9);
/// assert_eq!(unicast.len(), 1);
/// assert!(unicast.is_unicast());
///
/// let bcast = DestinationSet::broadcast(4, 0);
/// assert_eq!(bcast.len(), 15);
/// assert!(!bcast.contains(0));
/// assert!(bcast.contains(15));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DestinationSet {
    words: [u64; WORDS],
}

impl DestinationSet {
    /// The empty destination set.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A set containing the single destination `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `dest >= 256`.
    #[must_use]
    pub fn unicast(dest: NodeId) -> Self {
        let mut s = Self::empty();
        s.insert(dest);
        s
    }

    /// The broadcast set for a k×k mesh: every node except `source`.
    ///
    /// # Panics
    ///
    /// Panics if `k * k > 256`.
    #[must_use]
    pub fn broadcast(k: u16, source: NodeId) -> Self {
        let nodes = usize::from(k) * usize::from(k);
        assert!(nodes <= MAX_NODES, "mesh too large for DestinationSet");
        let mut s = Self::empty();
        for id in 0..nodes as u16 {
            if id != source {
                s.insert(id);
            }
        }
        s
    }

    /// Adds `dest` to the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `dest >= 256`.
    pub fn insert(&mut self, dest: NodeId) -> bool {
        let idx = usize::from(dest);
        assert!(idx < MAX_NODES, "destination id out of range");
        let (w, b) = (idx / 64, idx % 64);
        let was_absent = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        was_absent
    }

    /// Removes `dest` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, dest: NodeId) -> bool {
        let idx = usize::from(dest);
        if idx >= MAX_NODES {
            return false;
        }
        let (w, b) = (idx / 64, idx % 64);
        let was_present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was_present
    }

    /// Returns `true` if the set contains `dest`.
    #[must_use]
    pub fn contains(&self, dest: NodeId) -> bool {
        let idx = usize::from(dest);
        if idx >= MAX_NODES {
            return false;
        }
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of destinations in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` when the set contains exactly one destination.
    #[must_use]
    pub fn is_unicast(&self) -> bool {
        self.len() == 1
    }

    /// Returns `true` when the set contains more than one destination.
    #[must_use]
    pub fn is_multicast(&self) -> bool {
        self.len() > 1
    }

    /// The single destination, if this set is a unicast.
    #[must_use]
    pub fn sole_destination(&self) -> Option<NodeId> {
        if self.is_unicast() {
            self.iter().next()
        } else {
            None
        }
    }

    /// Iterates over the destinations in ascending node-id order.
    pub fn iter(&self) -> Iter {
        Iter {
            set: *self,
            next: 0,
        }
    }

    /// Union of two destination sets.
    #[must_use]
    pub fn union(&self, other: &DestinationSet) -> DestinationSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
        out
    }

    /// Intersection of two destination sets.
    #[must_use]
    pub fn intersection(&self, other: &DestinationSet) -> DestinationSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
        out
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &DestinationSet) -> DestinationSet {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !*b;
        }
        out
    }
}

impl fmt::Debug for DestinationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for DestinationSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = DestinationSet::empty();
        for d in iter {
            s.insert(d);
        }
        s
    }
}

impl Extend<NodeId> for DestinationSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for d in iter {
            self.insert(d);
        }
    }
}

/// Iterator over the destinations of a [`DestinationSet`].
#[derive(Debug, Clone)]
pub struct Iter {
    set: DestinationSet,
    next: usize,
}

impl Iterator for Iter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.next < MAX_NODES {
            let id = self.next as NodeId;
            self.next += 1;
            if self.set.contains(id) {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_has_one_destination() {
        let s = DestinationSet::unicast(42);
        assert!(s.is_unicast());
        assert!(!s.is_multicast());
        assert_eq!(s.sole_destination(), Some(42));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn broadcast_excludes_source() {
        let s = DestinationSet::broadcast(4, 5);
        assert_eq!(s.len(), 15);
        assert!(!s.contains(5));
        assert!(s.is_multicast());
        assert_eq!(s.sole_destination(), None);
    }

    #[test]
    fn insert_and_remove() {
        let mut s = DestinationSet::empty();
        assert!(s.insert(200));
        assert!(!s.insert(200));
        assert!(s.contains(200));
        assert!(s.remove(200));
        assert!(!s.remove(200));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a: DestinationSet = [1u16, 2, 3].into_iter().collect();
        let b: DestinationSet = [3u16, 4].into_iter().collect();
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = DestinationSet::unicast(0);
        assert!(!s.contains(300));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = DestinationSet::empty();
        s.insert(256);
    }

    #[test]
    fn debug_lists_members() {
        let s: DestinationSet = [7u16, 3].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{3, 7}");
    }
}
