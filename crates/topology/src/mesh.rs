//! The k×k mesh topology.

use noc_types::{ConfigError, Coord, Direction, NodeId};

/// A directed router-to-router link of the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Upstream (sending) node.
    pub from: NodeId,
    /// Downstream (receiving) node.
    pub to: NodeId,
    /// Direction of travel as seen from `from`.
    pub direction: Direction,
}

/// A k×k mesh topology.
///
/// The mesh is the substrate every experiment in the paper runs on: 4×4 for
/// the fabricated prototype, 8×8 for the Table 2 comparisons against prior
/// chips. This type answers purely structural questions — neighbours, link
/// enumeration, bisection size — and leaves routing decisions to
/// [`crate::routing`].
///
/// # Examples
///
/// ```
/// use noc_topology::Mesh;
/// use noc_types::{Coord, Direction};
///
/// let mesh = Mesh::new(4)?;
/// assert_eq!(mesh.node_count(), 16);
/// assert_eq!(mesh.neighbor(Coord::new(0, 0), Direction::North), Some(Coord::new(0, 1)));
/// assert_eq!(mesh.neighbor(Coord::new(0, 0), Direction::West), None);
/// # Ok::<(), noc_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    k: u16,
}

impl Mesh {
    /// Creates a k×k mesh.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidMeshSide`] when `k` is zero or larger
    /// than 16 (the largest mesh a [`noc_types::DestinationSet`] can
    /// represent).
    pub fn new(k: u16) -> Result<Self, ConfigError> {
        if k == 0 || k > 16 {
            return Err(ConfigError::InvalidMeshSide { k });
        }
        Ok(Self { k })
    }

    /// Side length of the mesh.
    #[must_use]
    pub fn side(&self) -> u16 {
        self.k
    }

    /// Number of nodes (routers / NICs) in the mesh.
    #[must_use]
    pub fn node_count(&self) -> usize {
        usize::from(self.k) * usize::from(self.k)
    }

    /// Returns `true` when `coord` is a valid node of this mesh.
    #[must_use]
    pub fn contains(&self, coord: Coord) -> bool {
        coord.is_within(self.k)
    }

    /// Coordinate of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this mesh.
    #[must_use]
    pub fn coord_of(&self, id: NodeId) -> Coord {
        assert!(
            usize::from(id) < self.node_count(),
            "node id {id} out of range for a {k}x{k} mesh",
            k = self.k
        );
        Coord::from_node_id(id, self.k)
    }

    /// Node id of `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` lies outside the mesh.
    #[must_use]
    pub fn id_of(&self, coord: Coord) -> NodeId {
        assert!(self.contains(coord), "coordinate {coord} outside mesh");
        coord.node_id(self.k)
    }

    /// The neighbouring coordinate in `direction`, or `None` at the mesh edge.
    #[must_use]
    pub fn neighbor(&self, coord: Coord, direction: Direction) -> Option<Coord> {
        let (x, y) = (coord.x, coord.y);
        let next = match direction {
            Direction::North if y + 1 < self.k => Coord::new(x, y + 1),
            Direction::East if x + 1 < self.k => Coord::new(x + 1, y),
            Direction::South if y > 0 => Coord::new(x, y - 1),
            Direction::West if x > 0 => Coord::new(x - 1, y),
            _ => return None,
        };
        Some(next)
    }

    /// Iterates over every node coordinate in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = Coord> {
        Coord::all(self.k)
    }

    /// Enumerates every directed router-to-router link of the mesh.
    #[must_use]
    pub fn links(&self) -> Vec<Link> {
        let mut links = Vec::new();
        for coord in self.nodes() {
            for dir in Direction::ALL {
                if let Some(next) = self.neighbor(coord, dir) {
                    links.push(Link {
                        from: self.id_of(coord),
                        to: self.id_of(next),
                        direction: dir,
                    });
                }
            }
        }
        links
    }

    /// Number of unidirectional links crossing the vertical bisection of the
    /// mesh (between columns `k/2 - 1` and `k/2`), counted in one direction.
    ///
    /// For the 4×4 prototype this is 4 links of 64 bits at 1 GHz, i.e. the
    /// 256 Gb/s bisection bandwidth quoted in Table 2.
    #[must_use]
    pub fn bisection_links(&self) -> usize {
        usize::from(self.k)
    }

    /// Number of ejection links (router → NIC), one per node.
    #[must_use]
    pub fn ejection_links(&self) -> usize {
        self.node_count()
    }

    /// Bisection bandwidth in Gb/s for a given channel width and clock.
    ///
    /// `channel_bits` is the flit width of one network; `frequency_ghz` the
    /// link clock; `networks` the number of parallel physical networks
    /// (5 for TILE64, 1 for the other chips in Table 2).
    #[must_use]
    pub fn bisection_bandwidth_gbps(
        &self,
        channel_bits: u32,
        frequency_ghz: f64,
        networks: u32,
    ) -> f64 {
        self.bisection_links() as f64
            * f64::from(channel_bits)
            * frequency_ghz
            * f64::from(networks)
    }

    /// Manhattan hop count between two nodes.
    #[must_use]
    pub fn hops(&self, from: Coord, to: Coord) -> u32 {
        from.manhattan_distance(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_sides() {
        assert!(Mesh::new(0).is_err());
        assert!(Mesh::new(17).is_err());
        assert!(Mesh::new(1).is_ok());
        assert!(Mesh::new(16).is_ok());
    }

    #[test]
    fn four_by_four_has_sixteen_nodes_and_forty_eight_links() {
        let mesh = Mesh::new(4).unwrap();
        assert_eq!(mesh.node_count(), 16);
        // 2 * k * (k-1) bidirectional links = 24, i.e. 48 directed links.
        assert_eq!(mesh.links().len(), 48);
    }

    #[test]
    fn neighbors_respect_mesh_edges() {
        let mesh = Mesh::new(4).unwrap();
        let corner = Coord::new(0, 0);
        assert_eq!(mesh.neighbor(corner, Direction::South), None);
        assert_eq!(mesh.neighbor(corner, Direction::West), None);
        assert_eq!(
            mesh.neighbor(corner, Direction::North),
            Some(Coord::new(0, 1))
        );
        assert_eq!(
            mesh.neighbor(corner, Direction::East),
            Some(Coord::new(1, 0))
        );
        let opposite = Coord::new(3, 3);
        assert_eq!(mesh.neighbor(opposite, Direction::North), None);
        assert_eq!(mesh.neighbor(opposite, Direction::East), None);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let mesh = Mesh::new(5).unwrap();
        for coord in mesh.nodes() {
            for dir in Direction::ALL {
                if let Some(next) = mesh.neighbor(coord, dir) {
                    assert_eq!(mesh.neighbor(next, dir.opposite()), Some(coord));
                }
            }
        }
    }

    #[test]
    fn bisection_bandwidth_matches_table2_this_work() {
        // 4x4, 64-bit channels at 1 GHz -> 256 Gb/s (Table 2, "this work").
        let mesh = Mesh::new(4).unwrap();
        assert_eq!(mesh.bisection_bandwidth_gbps(64, 1.0, 1), 256.0);
        // Modeled as an 8x8 network -> 512 Gb/s.
        let mesh8 = Mesh::new(8).unwrap();
        assert_eq!(mesh8.bisection_bandwidth_gbps(64, 1.0, 1), 512.0);
    }

    #[test]
    fn id_coord_round_trip() {
        let mesh = Mesh::new(6).unwrap();
        for coord in mesh.nodes() {
            assert_eq!(mesh.coord_of(mesh.id_of(coord)), coord);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_of_rejects_out_of_range() {
        let mesh = Mesh::new(4).unwrap();
        let _ = mesh.coord_of(16);
    }
}
