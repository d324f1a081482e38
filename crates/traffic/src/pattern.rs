//! Spatial traffic patterns: how a node picks the destination of a unicast.
//!
//! The chip's RTL draws destinations uniformly from its PRBS generators, but
//! NoC evaluation practice treats the spatial pattern as a first-class,
//! swappable object: the same network is stressed with transpose, bit
//! permutations, tornado or hotspot traffic to expose pathologies that
//! uniform-random traffic averages away. [`SpatialPattern`] captures that
//! abstraction for this simulator.
//!
//! Every pattern is deterministic given the node's PRBS stream: patterns
//! either consume words from the *destination* LFSR (uniform and hotspot) or
//! consume nothing at all (the fixed permutations), so simulations remain
//! pure functions of `(configuration, seed)` and the parallel sweep runner's
//! bit-identical-for-any-thread-count contract is preserved.
//!
//! A pattern whose permutation maps a node onto itself (the transpose
//! diagonal, bit-reverse palindromes, the shuffle fixed points) falls back to
//! the node's successor `(source + 1) % nodes`, so no pattern ever produces a
//! self-addressed unicast on meshes with at least two nodes.

use noc_sim::PrbsGenerator;
use noc_types::{ConfigError, Coord, DestinationSet, NodeId};

/// What [`SpatialPattern::UniformRandom`] does when the PRBS draw lands on
/// the sending node itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollisionPolicy {
    /// Redraw from the PRBS stream until the destination differs from the
    /// source. This is the statistically correct behaviour: every other node
    /// is hit with probability `1 / (nodes - 1)`.
    Resample,
    /// Replace a self-destination with `(source + 1) % nodes` — the chip
    /// RTL's (and this simulator's historical) behaviour. It over-weights
    /// each node's successor by a factor of two, but reproduces every curve
    /// measured before the pattern abstraction existed bit-for-bit.
    LegacySkip,
}

/// A spatial traffic pattern: the map from a sending node to the destination
/// of each unicast packet it creates.
///
/// Patterns are `Copy` and cheap to embed in a configuration.
/// Hotspot target sets ride a [`DestinationSet`] bit vector so the whole enum
/// stays `Copy` (and so configurations containing it remain `Copy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialPattern {
    /// Uniformly random destinations drawn from the PRBS stream, excluding
    /// the source according to the [`CollisionPolicy`].
    UniformRandom {
        /// How self-destinations are avoided.
        collision: CollisionPolicy,
    },
    /// `(x, y) → (y, x)`: the matrix-transpose permutation. Diagonal nodes
    /// fall back to their successor.
    Transpose,
    /// `(x, y) → (k-1-x, k-1-y)`: every node targets its point reflection
    /// through the mesh centre (for power-of-two `k` this is the classical
    /// bit-complement of the node id). Maximises bisection load.
    BitComplement,
    /// The node id with its bits reversed (within `log2(nodes)` bits).
    /// Requires a power-of-two node count. Palindromic ids fall back to
    /// their successor.
    BitReverse,
    /// Each coordinate shifted `max(1, ⌈k/2⌉ - 1)` hops along its dimension
    /// (wrapping): the classical adversarial pattern for minimal routing on
    /// tori, kept as a long-haul stressor on the mesh.
    Tornado,
    /// `(x, y) → ((x+1) mod k, y)`: each node targets its +X neighbour (the
    /// mesh edge wraps). The friendliest possible pattern — every flit
    /// travels one or `k-1` hops.
    NearestNeighbor,
    /// The node id rotated left by one bit (within `log2(nodes)` bits): the
    /// perfect-shuffle permutation. Requires a power-of-two node count;
    /// fixed points (all-zeros, all-ones) fall back to their successor.
    Shuffle,
    /// With probability `weight`, target a uniformly chosen member of
    /// `targets`; otherwise fall back to a uniform-random draw over the whole
    /// mesh (resampling self-destinations away in both arms).
    Hotspot {
        /// The hotspot nodes. Must be non-empty and within the mesh.
        targets: DestinationSet,
        /// Probability of targeting the hotspot set, in `[0, 1]`.
        weight: f64,
    },
}

impl SpatialPattern {
    /// Unbiased uniform-random traffic ([`CollisionPolicy::Resample`]) — the
    /// recommended uniform pattern for new experiments.
    #[must_use]
    pub fn uniform() -> Self {
        SpatialPattern::UniformRandom {
            collision: CollisionPolicy::Resample,
        }
    }

    /// Uniform-random traffic with the chip RTL's successor-skip collision
    /// handling ([`CollisionPolicy::LegacySkip`]) — bit-identical to the
    /// generator this simulator shipped with, and therefore the default of
    /// every built-in configuration preset (the golden tests pin this).
    #[must_use]
    pub fn uniform_legacy() -> Self {
        SpatialPattern::UniformRandom {
            collision: CollisionPolicy::LegacySkip,
        }
    }

    /// A hotspot pattern over `targets` with the given weight.
    #[must_use]
    pub fn hotspot(targets: DestinationSet, weight: f64) -> Self {
        SpatialPattern::Hotspot { targets, weight }
    }

    /// The four-corner hotspot used by the `patterns` experiment: the mesh
    /// corners absorb `weight` of the unicast traffic.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn corner_hotspot(k: u16, weight: f64) -> Self {
        assert!(k > 0, "mesh side length must be positive");
        let nodes = k * k;
        let mut targets = DestinationSet::empty();
        targets.insert(0);
        targets.insert(k - 1);
        targets.insert(nodes - k);
        targets.insert(nodes - 1);
        Self::hotspot(targets, weight)
    }

    /// The full pattern gallery for a k×k mesh: one instance of each of the
    /// eight pattern families (uniform appears in its unbiased
    /// [`Resample`](CollisionPolicy::Resample) form; the hotspot weighs the
    /// four mesh corners at 0.5).
    #[must_use]
    pub fn gallery(k: u16) -> Vec<SpatialPattern> {
        vec![
            SpatialPattern::uniform(),
            SpatialPattern::Transpose,
            SpatialPattern::BitComplement,
            SpatialPattern::BitReverse,
            SpatialPattern::Tornado,
            SpatialPattern::NearestNeighbor,
            SpatialPattern::Shuffle,
            SpatialPattern::corner_hotspot(k, 0.5),
        ]
    }

    /// Short stable name used by experiment reports and sweep records.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SpatialPattern::UniformRandom {
                collision: CollisionPolicy::Resample,
            } => "uniform",
            SpatialPattern::UniformRandom {
                collision: CollisionPolicy::LegacySkip,
            } => "uniform-legacy",
            SpatialPattern::Transpose => "transpose",
            SpatialPattern::BitComplement => "bit-complement",
            SpatialPattern::BitReverse => "bit-reverse",
            SpatialPattern::Tornado => "tornado",
            SpatialPattern::NearestNeighbor => "nearest-neighbor",
            SpatialPattern::Shuffle => "shuffle",
            SpatialPattern::Hotspot { .. } => "hotspot",
        }
    }

    /// Validates the pattern against a k×k mesh.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidPattern`] when the pattern cannot run on
    /// the mesh: deterministic permutations need at least two nodes,
    /// bit-based permutations need a power-of-two node count, and hotspot
    /// parameters must be well-formed.
    pub fn validate(&self, k: u16) -> Result<(), ConfigError> {
        let nodes = k * k;
        let invalid = |reason: String| ConfigError::InvalidPattern { reason };
        match self {
            SpatialPattern::UniformRandom { .. } => Ok(()),
            SpatialPattern::Transpose
            | SpatialPattern::BitComplement
            | SpatialPattern::Tornado
            | SpatialPattern::NearestNeighbor => {
                if nodes < 2 {
                    return Err(invalid(format!(
                        "{} traffic needs at least a 2-node mesh, got k={k}",
                        self.name()
                    )));
                }
                Ok(())
            }
            SpatialPattern::BitReverse | SpatialPattern::Shuffle => {
                if nodes < 2 || !nodes.is_power_of_two() {
                    return Err(invalid(format!(
                        "{} traffic needs a power-of-two node count, got {nodes} (k={k})",
                        self.name()
                    )));
                }
                Ok(())
            }
            SpatialPattern::Hotspot { targets, weight } => {
                if targets.is_empty() {
                    return Err(invalid("hotspot target set is empty".to_owned()));
                }
                if let Some(bad) = targets.iter().find(|&t| t >= nodes) {
                    return Err(invalid(format!(
                        "hotspot target {bad} is outside the {nodes}-node mesh"
                    )));
                }
                if !(0.0..=1.0).contains(weight) {
                    return Err(invalid(format!(
                        "hotspot weight {weight} is outside [0, 1]"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Draws the destination of one unicast created by `source` on a k×k
    /// mesh, consuming PRBS words as needed.
    ///
    /// Guaranteed in-range and never equal to `source` for any validated
    /// pattern on a mesh of at least two nodes. (On a degenerate one-node
    /// mesh the only possible value, `source`, is returned rather than
    /// spinning.)
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn draw(&self, prbs: &mut PrbsGenerator, source: NodeId, k: u16) -> NodeId {
        assert!(k > 0, "mesh side length must be positive");
        let nodes = k * k;
        match self {
            SpatialPattern::UniformRandom { collision } => match collision {
                CollisionPolicy::Resample => uniform_excluding(prbs, nodes, source),
                CollisionPolicy::LegacySkip => {
                    let mut dest = prbs.next_below(nodes);
                    if dest == source {
                        dest = (dest + 1) % nodes;
                    }
                    dest
                }
            },
            SpatialPattern::Transpose => {
                let c = Coord::from_node_id(source, k);
                avoid_self(Coord::new(c.y, c.x).node_id(k), source, nodes)
            }
            SpatialPattern::BitComplement => {
                let c = Coord::from_node_id(source, k);
                avoid_self(
                    Coord::new(k - 1 - c.x, k - 1 - c.y).node_id(k),
                    source,
                    nodes,
                )
            }
            SpatialPattern::BitReverse => {
                let bits = nodes.trailing_zeros();
                avoid_self(source.reverse_bits() >> (16 - bits), source, nodes)
            }
            SpatialPattern::Tornado => {
                let shift = (k.div_ceil(2) - 1).max(1);
                let c = Coord::from_node_id(source, k);
                // shift is in 1..k, so the destination can never be source.
                Coord::new((c.x + shift) % k, (c.y + shift) % k).node_id(k)
            }
            SpatialPattern::NearestNeighbor => {
                let c = Coord::from_node_id(source, k);
                avoid_self(Coord::new((c.x + 1) % k, c.y).node_id(k), source, nodes)
            }
            SpatialPattern::Shuffle => {
                let bits = nodes.trailing_zeros();
                let rotated = ((source << 1) | (source >> (bits - 1))) & (nodes - 1);
                avoid_self(rotated, source, nodes)
            }
            SpatialPattern::Hotspot { targets, weight } => {
                // One destination-LFSR word decides hotspot vs background, so
                // the injection (rate-LFSR) stream stays untouched.
                let threshold = (weight.clamp(0.0, 1.0) * 65_536.0) as u32;
                if u32::from(prbs.next_word()) < threshold {
                    let idx = usize::from(prbs.next_below(targets.len() as u16));
                    let target = targets.iter().nth(idx).expect("index is within the set");
                    if target != source {
                        return target;
                    }
                }
                uniform_excluding(prbs, nodes, source)
            }
        }
    }
}

impl Default for SpatialPattern {
    /// The compatibility default: [`SpatialPattern::uniform_legacy`], which
    /// keeps every pre-pattern-abstraction curve bit-identical.
    fn default() -> Self {
        Self::uniform_legacy()
    }
}

/// Uniform draw over `0..nodes` excluding `source`, by rejection sampling
/// from the PRBS destination stream. The destination LFSR visits every
/// 16-bit state, so the loop always terminates; a one-node mesh short-cuts
/// to `source` because no other destination exists.
fn uniform_excluding(prbs: &mut PrbsGenerator, nodes: u16, source: NodeId) -> NodeId {
    if nodes <= 1 {
        return source;
    }
    loop {
        let dest = prbs.next_below(nodes);
        if dest != source {
            return dest;
        }
    }
}

/// Maps a permutation fixed point onto the node's successor so deterministic
/// patterns never address the sender itself.
fn avoid_self(dest: NodeId, source: NodeId, nodes: u16) -> NodeId {
    if dest == source {
        (source + 1) % nodes
    } else {
        dest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_many(pattern: SpatialPattern, source: NodeId, k: u16, n: usize) -> Vec<NodeId> {
        let mut prbs = PrbsGenerator::new(0xACE1);
        (0..n).map(|_| pattern.draw(&mut prbs, source, k)).collect()
    }

    #[test]
    fn legacy_uniform_matches_the_historical_inline_draw() {
        // The exact expression build_packet used before the abstraction.
        let mut reference = PrbsGenerator::new(0xACE1);
        let mut prbs = PrbsGenerator::new(0xACE1);
        let pattern = SpatialPattern::uniform_legacy();
        for _ in 0..500 {
            let mut expected = reference.next_below(16);
            if expected == 5 {
                expected = (expected + 1) % 16;
            }
            assert_eq!(pattern.draw(&mut prbs, 5, 4), expected);
        }
    }

    #[test]
    fn resample_never_skews_onto_the_successor() {
        // With LegacySkip, node 5 receives the probability mass of node 4's
        // self-draws on top of its own; with Resample all 15 other nodes are
        // equally likely. Check the successor bias directly.
        let legacy = draw_many(SpatialPattern::uniform_legacy(), 4, 4, 60_000);
        let fair = draw_many(SpatialPattern::uniform(), 4, 4, 60_000);
        let count = |v: &[NodeId], d: NodeId| v.iter().filter(|&&x| x == d).count() as f64;
        let legacy_bias = count(&legacy, 5) / legacy.len() as f64;
        let fair_share = count(&fair, 5) / fair.len() as f64;
        assert!(
            legacy_bias > 1.6 / 16.0,
            "legacy successor weight should be ~2/16, got {legacy_bias:.4}"
        );
        assert!(
            (fair_share - 1.0 / 15.0).abs() < 0.01,
            "resampled successor weight should be ~1/15, got {fair_share:.4}"
        );
    }

    #[test]
    fn deterministic_patterns_consume_no_prbs_words() {
        for pattern in [
            SpatialPattern::Transpose,
            SpatialPattern::BitComplement,
            SpatialPattern::BitReverse,
            SpatialPattern::Tornado,
            SpatialPattern::NearestNeighbor,
            SpatialPattern::Shuffle,
        ] {
            let mut prbs = PrbsGenerator::new(0x1234);
            let before = prbs;
            let _ = pattern.draw(&mut prbs, 3, 4);
            assert_eq!(prbs, before, "{} consumed PRBS state", pattern.name());
        }
    }

    #[test]
    fn transpose_maps_coordinates() {
        // Node 6 = (2, 1) on a 4×4 mesh; transpose = (1, 2) = node 9.
        let mut prbs = PrbsGenerator::new(1);
        assert_eq!(SpatialPattern::Transpose.draw(&mut prbs, 6, 4), 9);
        // Diagonal node 5 = (1, 1) falls back to its successor.
        assert_eq!(SpatialPattern::Transpose.draw(&mut prbs, 5, 4), 6);
    }

    #[test]
    fn bit_patterns_match_their_classical_definitions() {
        let mut prbs = PrbsGenerator::new(1);
        // 4×4: node 1 = 0b0001 -> reverse = 0b1000 = 8, complement = 0b1110 = 14,
        // shuffle = 0b0010 = 2.
        assert_eq!(SpatialPattern::BitReverse.draw(&mut prbs, 1, 4), 8);
        assert_eq!(SpatialPattern::BitComplement.draw(&mut prbs, 1, 4), 14);
        assert_eq!(SpatialPattern::Shuffle.draw(&mut prbs, 1, 4), 2);
        // Shuffle wraps the top bit: 8 = 0b1000 -> 0b0001.
        assert_eq!(SpatialPattern::Shuffle.draw(&mut prbs, 8, 4), 1);
        // Fixed points fall back to the successor.
        assert_eq!(SpatialPattern::Shuffle.draw(&mut prbs, 0, 4), 1);
        assert_eq!(SpatialPattern::BitReverse.draw(&mut prbs, 6, 4), 7);
    }

    #[test]
    fn tornado_shifts_both_dimensions() {
        let mut prbs = PrbsGenerator::new(1);
        // k=4: shift = max(1, ceil(4/2) - 1) = 1; node 0 = (0,0) -> (1,1) = 5.
        assert_eq!(SpatialPattern::Tornado.draw(&mut prbs, 0, 4), 5);
        // k=8: shift = 3; node 0 -> (3,3) = 27.
        assert_eq!(SpatialPattern::Tornado.draw(&mut prbs, 0, 8), 27);
    }

    #[test]
    fn hotspot_concentrates_traffic_on_the_targets() {
        let pattern = SpatialPattern::corner_hotspot(4, 0.75);
        let draws = draw_many(pattern, 5, 4, 20_000);
        let corners = [0u16, 3, 12, 15];
        let hot = draws.iter().filter(|d| corners.contains(d)).count() as f64;
        let fraction = hot / draws.len() as f64;
        // 75% direct hits plus the corners' share of the uniform background.
        assert!(
            fraction > 0.70 && fraction < 0.90,
            "hotspot fraction {fraction:.3}"
        );
    }

    #[test]
    fn hotspot_weight_extremes() {
        let targets = DestinationSet::unicast(0);
        let always = SpatialPattern::hotspot(targets, 1.0);
        for d in draw_many(always, 5, 4, 200) {
            assert_eq!(d, 0);
        }
        let never = SpatialPattern::hotspot(targets, 0.0);
        let draws = draw_many(never, 5, 4, 2000);
        assert!(draws.iter().any(|&d| d != 0), "weight 0 must be background");
    }

    #[test]
    fn hotspot_on_its_own_node_resamples_to_background() {
        // The only target is the source itself: every draw must fall back to
        // the uniform background and never self-address.
        let pattern = SpatialPattern::hotspot(DestinationSet::unicast(5), 1.0);
        for d in draw_many(pattern, 5, 4, 2000) {
            assert_ne!(d, 5);
        }
    }

    #[test]
    fn validation_rejects_impossible_patterns() {
        // Bit permutations need power-of-two node counts.
        assert!(SpatialPattern::BitReverse.validate(4).is_ok());
        assert!(SpatialPattern::BitReverse.validate(5).is_err());
        assert!(SpatialPattern::Shuffle.validate(6).is_err());
        // Deterministic patterns need at least two nodes.
        assert!(SpatialPattern::Transpose.validate(1).is_err());
        assert!(SpatialPattern::Transpose.validate(5).is_ok());
        // Uniform runs anywhere.
        assert!(SpatialPattern::uniform().validate(1).is_ok());
        // Hotspot parameter validation.
        assert!(SpatialPattern::hotspot(DestinationSet::empty(), 0.5)
            .validate(4)
            .is_err());
        assert!(SpatialPattern::hotspot(DestinationSet::unicast(99), 0.5)
            .validate(4)
            .is_err());
        assert!(SpatialPattern::hotspot(DestinationSet::unicast(3), 1.5)
            .validate(4)
            .is_err());
        assert!(SpatialPattern::corner_hotspot(4, 0.5).validate(4).is_ok());
    }

    #[test]
    fn gallery_contains_all_eight_families_and_validates_on_the_chip_mesh() {
        let gallery = SpatialPattern::gallery(4);
        assert_eq!(gallery.len(), 8);
        let names: std::collections::HashSet<&str> =
            gallery.iter().map(SpatialPattern::name).collect();
        assert_eq!(names.len(), 8, "gallery names must be distinct");
        for pattern in &gallery {
            pattern.validate(4).unwrap();
            pattern.validate(8).unwrap();
        }
    }

    #[test]
    fn every_gallery_pattern_is_in_range_and_never_self() {
        for pattern in SpatialPattern::gallery(4) {
            let mut prbs = PrbsGenerator::new(0xBEEF);
            for source in 0..16u16 {
                for _ in 0..50 {
                    let dest = pattern.draw(&mut prbs, source, 4);
                    assert!(dest < 16, "{}: {dest} out of range", pattern.name());
                    assert_ne!(dest, source, "{}: self-addressed", pattern.name());
                }
            }
        }
    }
}
