//! Mesh coordinates and node identifiers.

use std::fmt;

/// Flat identifier of a node (tile) in a k×k mesh.
///
/// Nodes are numbered in row-major order: `id = y * k + x`.
pub type NodeId = u16;

/// Position of a node in a k×k mesh.
///
/// `x` grows eastwards, `y` grows northwards. The fabricated prototype is a
/// 4×4 mesh, but every model in this workspace is parameterised over `k`.
///
/// # Examples
///
/// ```
/// use noc_types::Coord;
///
/// let c = Coord::new(3, 1);
/// assert_eq!(c.node_id(4), 7);
/// assert_eq!(Coord::from_node_id(7, 4), c);
/// assert_eq!(c.manhattan_distance(Coord::new(0, 0)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column index, `0..k`, grows eastwards.
    pub x: u16,
    /// Row index, `0..k`, grows northwards.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate at column `x`, row `y`.
    #[must_use]
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Converts a flat node id back into a coordinate for a mesh of side `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn from_node_id(id: NodeId, k: u16) -> Self {
        assert!(k > 0, "mesh side length must be positive");
        Self {
            x: id % k,
            y: id / k,
        }
    }

    /// Flat row-major node id of this coordinate in a mesh of side `k`.
    #[must_use]
    pub fn node_id(self, k: u16) -> NodeId {
        self.y * k + self.x
    }

    /// Returns `true` if the coordinate lies inside a k×k mesh.
    #[must_use]
    pub fn is_within(self, k: u16) -> bool {
        self.x < k && self.y < k
    }

    /// Manhattan (hop-count) distance to `other`.
    #[must_use]
    pub fn manhattan_distance(self, other: Coord) -> u32 {
        let dx = i32::from(self.x) - i32::from(other.x);
        let dy = i32::from(self.y) - i32::from(other.y);
        dx.unsigned_abs() + dy.unsigned_abs()
    }

    /// Hop count from this node to the node of the mesh that is furthest away
    /// from it (the metric used by the paper's broadcast latency limit,
    /// Appendix A, Fig. 9).
    #[must_use]
    pub fn furthest_distance(self, k: u16) -> u32 {
        let far_x = if self.x >= k / 2 { 0 } else { k - 1 };
        let far_y = if self.y >= k / 2 { 0 } else { k - 1 };
        self.manhattan_distance(Coord::new(far_x, far_y))
    }

    /// Iterator over all coordinates of a k×k mesh in row-major order.
    pub fn all(k: u16) -> impl Iterator<Item = Coord> {
        (0..k).flat_map(move |y| (0..k).map(move |x| Coord::new(x, y)))
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((x, y): (u16, u16)) -> Self {
        Coord::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        for k in 1..=8u16 {
            for id in 0..k * k {
                let c = Coord::from_node_id(id, k);
                assert!(c.is_within(k));
                assert_eq!(c.node_id(k), id);
            }
        }
    }

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Coord::new(1, 3);
        let b = Coord::new(2, 0);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(b), 4);
        assert_eq!(a.manhattan_distance(a), 0);
    }

    #[test]
    fn furthest_distance_corner_cases() {
        // A corner node of a 4x4 mesh is 6 hops from the opposite corner.
        assert_eq!(Coord::new(0, 0).furthest_distance(4), 6);
        assert_eq!(Coord::new(3, 3).furthest_distance(4), 6);
        // A central node is 4 hops from its furthest corner.
        assert_eq!(Coord::new(1, 1).furthest_distance(4), 4);
        assert_eq!(Coord::new(2, 2).furthest_distance(4), 4);
    }

    #[test]
    fn all_enumerates_every_node_once() {
        let coords: Vec<_> = Coord::all(4).collect();
        assert_eq!(coords.len(), 16);
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(c.node_id(4) as usize, i);
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Coord::new(2, 3).to_string(), "(2, 3)");
    }

    #[test]
    #[should_panic(expected = "mesh side length")]
    fn zero_side_length_panics() {
        let _ = Coord::from_node_id(0, 0);
    }
}
