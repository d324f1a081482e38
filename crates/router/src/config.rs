//! Router configuration: virtual channels, buffer depths and pipeline kind.

use noc_types::{ConfigError, MessageClass, VcId};

/// Largest supported VC buffer depth, in flits.
///
/// VC buffers live *inline* in the router's input bank
/// (`ArrayFifo<Flit, MAX_VC_DEPTH>`), so the depth ceiling is a compile-time
/// constant; [`RouterConfig::validate`] rejects deeper configurations. The
/// chip needs 1 (request class) and 3 (response class).
pub const MAX_VC_DEPTH: usize = 4;

/// Virtual-channel configuration of one message class at every input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcConfig {
    /// Number of virtual channels.
    pub count: u8,
    /// Buffer depth (flit slots) of each virtual channel.
    pub depth: u8,
}

impl VcConfig {
    /// Creates a VC configuration.
    #[must_use]
    pub fn new(count: u8, depth: u8) -> Self {
        Self { count, depth }
    }

    /// Total buffer slots of this message class per input port.
    #[must_use]
    pub fn total_buffers(&self) -> usize {
        usize::from(self.count) * usize::from(self.depth)
    }
}

/// Which router generation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The textbook / aggressive baseline of Fig. 1: no multicast support,
    /// no lookaheads.
    Baseline {
        /// `true` folds ST and LT into one cycle (the "fairer" baseline used
        /// in the paper's measured comparison); `false` keeps them as two
        /// separate pipeline stages (the original textbook router).
        combined_st_lt: bool,
    },
    /// The proposed multicast router of Fig. 3.
    Proposed {
        /// Enables lookahead-based virtual bypassing (configs C vs D of the
        /// power study differ exactly in this switch).
        bypass: bool,
    },
}

impl RouterKind {
    /// Returns `true` when routers can replicate multicast flits.
    #[must_use]
    pub fn multicast_support(self) -> bool {
        matches!(self, RouterKind::Proposed { .. })
    }

    /// Returns `true` when routers send and honour lookahead signals.
    #[must_use]
    pub fn lookahead_enabled(self) -> bool {
        matches!(self, RouterKind::Proposed { bypass: true })
    }

    /// Extra link cycle paid after switch traversal (only the textbook
    /// baseline keeps LT as a separate pipeline stage).
    #[must_use]
    pub fn separate_lt_cycles(self) -> u64 {
        match self {
            RouterKind::Baseline {
                combined_st_lt: false,
            } => 1,
            _ => 0,
        }
    }

    /// Pipeline delay, in cycles, between a flit being written into an input
    /// buffer and the earliest cycle it can win switch traversal.
    ///
    /// Two cycles in every configuration: one for the stage-1 actions
    /// (BW, mSA-I, VA) and one for stage 2 (NRC, mSA-II). Bypassed flits skip
    /// both.
    #[must_use]
    pub fn buffered_pipeline_delay(self) -> u64 {
        2
    }
}

/// Complete configuration of a router (and, by construction, of every router
/// in a network — the chip is homogeneous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Router generation.
    pub kind: RouterKind,
    /// Request-class VCs (the chip: 4 VCs, 1 flit deep).
    pub request_vcs: VcConfig,
    /// Response-class VCs (the chip: 2 VCs, 3 flits deep).
    pub response_vcs: VcConfig,
}

impl RouterConfig {
    /// The chip's VC provisioning: 4×1-flit request VCs and 2×3-flit
    /// response VCs (6 VCs, 10 buffers per port).
    #[must_use]
    pub fn chip_vcs() -> (VcConfig, VcConfig) {
        (VcConfig::new(4, 1), VcConfig::new(2, 3))
    }

    /// The textbook baseline router (separate ST and LT stages).
    #[must_use]
    pub fn textbook_baseline() -> Self {
        let (req, resp) = Self::chip_vcs();
        Self {
            kind: RouterKind::Baseline {
                combined_st_lt: false,
            },
            request_vcs: req,
            response_vcs: resp,
        }
    }

    /// The aggressive baseline used in Fig. 5 (single-cycle ST+LT, otherwise
    /// identical to the textbook router).
    #[must_use]
    pub fn aggressive_baseline() -> Self {
        let (req, resp) = Self::chip_vcs();
        Self {
            kind: RouterKind::Baseline {
                combined_st_lt: true,
            },
            request_vcs: req,
            response_vcs: resp,
        }
    }

    /// The proposed router; `bypass` selects whether virtual bypassing is
    /// enabled (the fabricated chip has it enabled).
    #[must_use]
    pub fn proposed(bypass: bool) -> Self {
        let (req, resp) = Self::chip_vcs();
        Self {
            kind: RouterKind::Proposed { bypass },
            request_vcs: req,
            response_vcs: resp,
        }
    }

    /// VC configuration of `class`.
    #[must_use]
    pub fn vcs(&self, class: MessageClass) -> VcConfig {
        match class {
            MessageClass::Request => self.request_vcs,
            MessageClass::Response => self.response_vcs,
        }
    }

    /// Total VCs per input port across both message classes.
    #[must_use]
    pub fn total_vcs(&self) -> usize {
        usize::from(self.request_vcs.count) + usize::from(self.response_vcs.count)
    }

    /// Total buffer slots per input port across both message classes.
    #[must_use]
    pub fn total_buffers(&self) -> usize {
        self.request_vcs.total_buffers() + self.response_vcs.total_buffers()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidVcConfig`] when either message class has
    /// zero VCs, zero-depth buffers, or buffers deeper than the inline
    /// storage ceiling [`MAX_VC_DEPTH`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, vc) in [
            ("request", self.request_vcs),
            ("response", self.response_vcs),
        ] {
            if vc.count == 0 || vc.depth == 0 {
                return Err(ConfigError::InvalidVcConfig {
                    reason: format!("{name} class must have at least one VC of depth >= 1"),
                });
            }
            if usize::from(vc.depth) > MAX_VC_DEPTH {
                return Err(ConfigError::InvalidVcConfig {
                    reason: format!(
                        "{name} class depth {} exceeds the inline buffer ceiling {MAX_VC_DEPTH}",
                        vc.depth
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::proposed(true)
    }
}

/// The flattened virtual-channel layout shared by the router's input and
/// output banks.
///
/// Both banks index their per-VC flat arrays `port * vc_count + flat_vc`,
/// with request VCs flattened first and response VCs after. Keeping the
/// flattening (and the per-class depth/count selection) in one value type
/// means the two banks cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcLayout {
    request_count: u8,
    response_count: u8,
    request_depth: u8,
    response_depth: u8,
}

impl VcLayout {
    /// The layout of `config`'s VC provisioning.
    #[must_use]
    pub fn new(config: &RouterConfig) -> Self {
        Self {
            request_count: config.request_vcs.count,
            response_count: config.response_vcs.count,
            request_depth: config.request_vcs.depth,
            response_depth: config.response_vcs.depth,
        }
    }

    /// Total VCs per port across both message classes.
    #[inline]
    #[must_use]
    pub fn vc_count(&self) -> usize {
        usize::from(self.request_count) + usize::from(self.response_count)
    }

    /// Number of VCs in `class`.
    #[inline]
    #[must_use]
    pub fn class_count(&self, class: MessageClass) -> usize {
        match class {
            MessageClass::Request => usize::from(self.request_count),
            MessageClass::Response => usize::from(self.response_count),
        }
    }

    /// Buffer depth of every VC in `class`.
    #[inline]
    #[must_use]
    pub fn class_depth(&self, class: MessageClass) -> u8 {
        match class {
            MessageClass::Request => self.request_depth,
            MessageClass::Response => self.response_depth,
        }
    }

    /// Flattened per-port VC index for `(class, vc)` — request VCs first,
    /// then response VCs.
    #[inline]
    #[must_use]
    pub fn flat_vc(&self, class: MessageClass, vc: VcId) -> usize {
        match class {
            MessageClass::Request => usize::from(vc),
            MessageClass::Response => usize::from(self.request_count) + usize::from(vc),
        }
    }

    /// Message class of flat VC `flat`.
    #[inline]
    #[must_use]
    pub fn class_of(&self, flat: usize) -> MessageClass {
        if flat < usize::from(self.request_count) {
            MessageClass::Request
        } else {
            MessageClass::Response
        }
    }

    /// VC identifier (within its message class) of flat VC `flat`.
    #[inline]
    #[must_use]
    pub fn vc_id_of(&self, flat: usize) -> VcId {
        if flat < usize::from(self.request_count) {
            flat as VcId
        } else {
            (flat - usize::from(self.request_count)) as VcId
        }
    }

    /// Buffer depth of flat VC `flat`.
    #[inline]
    #[must_use]
    pub fn depth_of(&self, flat: usize) -> u8 {
        self.class_depth(self.class_of(flat))
    }

    /// Index of `(port, flat_vc)` in a bank's flat per-VC arrays.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not a valid flat VC index — an out-of-range
    /// index would otherwise silently alias a neighbouring port's VC (the
    /// per-port `Vec` layout this replaced panicked immediately instead).
    #[inline]
    #[must_use]
    pub fn slot(&self, port: usize, flat: usize) -> usize {
        assert!(flat < self.vc_count(), "flat VC index out of range");
        port * self.vc_count() + flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_configuration_has_six_vcs_and_ten_buffers() {
        let cfg = RouterConfig::proposed(true);
        assert_eq!(cfg.total_vcs(), 6);
        assert_eq!(cfg.total_buffers(), 10);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn kinds_expose_their_capabilities() {
        assert!(RouterKind::Proposed { bypass: true }.multicast_support());
        assert!(RouterKind::Proposed { bypass: false }.multicast_support());
        assert!(!RouterKind::Baseline {
            combined_st_lt: true
        }
        .multicast_support());
        assert!(RouterKind::Proposed { bypass: true }.lookahead_enabled());
        assert!(!RouterKind::Proposed { bypass: false }.lookahead_enabled());
        assert_eq!(
            RouterKind::Baseline {
                combined_st_lt: false
            }
            .separate_lt_cycles(),
            1
        );
        assert_eq!(
            RouterKind::Baseline {
                combined_st_lt: true
            }
            .separate_lt_cycles(),
            0
        );
    }

    #[test]
    fn validation_rejects_empty_vc_configs() {
        let mut cfg = RouterConfig::proposed(true);
        cfg.request_vcs = VcConfig::new(0, 1);
        assert!(cfg.validate().is_err());
        let mut cfg = RouterConfig::proposed(true);
        cfg.response_vcs = VcConfig::new(2, 0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_depths_beyond_the_inline_ceiling() {
        let mut cfg = RouterConfig::proposed(true);
        cfg.response_vcs = VcConfig::new(2, MAX_VC_DEPTH as u8);
        assert!(cfg.validate().is_ok());
        cfg.response_vcs = VcConfig::new(2, MAX_VC_DEPTH as u8 + 1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn vcs_accessor_selects_class() {
        let cfg = RouterConfig::proposed(true);
        assert_eq!(cfg.vcs(MessageClass::Request).count, 4);
        assert_eq!(cfg.vcs(MessageClass::Request).depth, 1);
        assert_eq!(cfg.vcs(MessageClass::Response).count, 2);
        assert_eq!(cfg.vcs(MessageClass::Response).depth, 3);
    }
}
