//! Traffic mixes: the distribution of packet kinds a NIC injects.

use noc_types::{ConfigError, PacketKind, TrafficKind};

/// A distribution over the three packet kinds the chip's evaluation uses.
///
/// Fractions must sum to 1.0 (validated by [`TrafficMix::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficMix {
    broadcast_request: f64,
    unicast_request: f64,
    unicast_response: f64,
}

impl TrafficMix {
    /// Creates a traffic mix from the three packet-kind fractions.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidTrafficMix`] when the fractions do not
    /// sum to 1.0 (within 1e-9) or any fraction is negative.
    pub fn new(
        broadcast_request: f64,
        unicast_request: f64,
        unicast_response: f64,
    ) -> Result<Self, ConfigError> {
        let sum = broadcast_request + unicast_request + unicast_response;
        let valid = (sum - 1.0).abs() < 1e-9
            && broadcast_request >= 0.0
            && unicast_request >= 0.0
            && unicast_response >= 0.0;
        if !valid {
            return Err(ConfigError::InvalidTrafficMix { sum });
        }
        Ok(Self {
            broadcast_request,
            unicast_request,
            unicast_response,
        })
    }

    /// The paper's mixed traffic: 50% broadcast requests, 25% unicast
    /// requests, 25% unicast responses (Fig. 5).
    #[must_use]
    pub fn mixed() -> Self {
        Self {
            broadcast_request: 0.5,
            unicast_request: 0.25,
            unicast_response: 0.25,
        }
    }

    /// Broadcast-only traffic: 100% broadcast requests (Fig. 13).
    #[must_use]
    pub fn broadcast_only() -> Self {
        Self {
            broadcast_request: 1.0,
            unicast_request: 0.0,
            unicast_response: 0.0,
        }
    }

    /// Uniform-random unicast traffic (50% requests, 50% responses), used by
    /// unicast-only comparisons and the Table 2 zero-load analysis.
    #[must_use]
    pub fn unicast_only() -> Self {
        Self {
            broadcast_request: 0.0,
            unicast_request: 0.5,
            unicast_response: 0.5,
        }
    }

    /// Single-flit unicast requests only (the simplest pattern; useful for
    /// calibration tests).
    #[must_use]
    pub fn unicast_requests_only() -> Self {
        Self {
            broadcast_request: 0.0,
            unicast_request: 1.0,
            unicast_response: 0.0,
        }
    }

    /// Fraction of broadcast requests.
    #[must_use]
    pub fn broadcast_request(&self) -> f64 {
        self.broadcast_request
    }

    /// Fraction of unicast requests.
    #[must_use]
    pub fn unicast_request(&self) -> f64 {
        self.unicast_request
    }

    /// Fraction of unicast responses.
    #[must_use]
    pub fn unicast_response(&self) -> f64 {
        self.unicast_response
    }

    /// Expected number of flits per injected packet under this mix
    /// (requests are 1 flit, responses are 5).
    #[must_use]
    pub fn expected_flits_per_packet(&self) -> f64 {
        (self.broadcast_request + self.unicast_request) * PacketKind::Request.flit_count() as f64
            + self.unicast_response * PacketKind::Response.flit_count() as f64
    }

    /// Picks the traffic kind corresponding to a uniform sample `u` in
    /// `[0, 1)`.
    #[must_use]
    pub fn pick(&self, u: f64) -> TrafficKind {
        if u < self.broadcast_request {
            TrafficKind::BroadcastRequest
        } else if u < self.broadcast_request + self.unicast_request {
            TrafficKind::UnicastRequest
        } else {
            TrafficKind::UnicastResponse
        }
    }
}

impl Default for TrafficMix {
    fn default() -> Self {
        Self::mixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sum_to_one() {
        for mix in [
            TrafficMix::mixed(),
            TrafficMix::broadcast_only(),
            TrafficMix::unicast_only(),
            TrafficMix::unicast_requests_only(),
        ] {
            let sum = mix.broadcast_request() + mix.unicast_request() + mix.unicast_response();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn new_validates_fractions() {
        assert!(TrafficMix::new(0.5, 0.25, 0.25).is_ok());
        assert!(TrafficMix::new(0.5, 0.5, 0.5).is_err());
        assert!(TrafficMix::new(-0.1, 0.6, 0.5).is_err());
    }

    #[test]
    fn mixed_expected_flits_is_two() {
        // 0.75 packets of 1 flit + 0.25 packets of 5 flits = 2 flits/packet.
        assert!((TrafficMix::mixed().expected_flits_per_packet() - 2.0).abs() < 1e-12);
        assert!((TrafficMix::broadcast_only().expected_flits_per_packet() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pick_maps_the_unit_interval() {
        let mix = TrafficMix::mixed();
        assert_eq!(mix.pick(0.0), TrafficKind::BroadcastRequest);
        assert_eq!(mix.pick(0.49), TrafficKind::BroadcastRequest);
        assert_eq!(mix.pick(0.6), TrafficKind::UnicastRequest);
        assert_eq!(mix.pick(0.9), TrafficKind::UnicastResponse);
    }
}
