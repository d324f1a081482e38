//! Message classes and traffic kinds.

use std::fmt;

/// Number of message classes (virtual networks) per input port.
pub const MESSAGE_CLASS_COUNT: usize = 2;

/// Message class (virtual network) of a packet.
///
/// The chip provides two message classes per input port, *request* and
/// *response*, to avoid message-level (protocol) deadlock in cache-coherent
/// multicores: a response must never be blocked behind a request that is
/// itself waiting for that response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Coherence requests and acknowledgements; 1-flit packets on the chip.
    Request,
    /// Cache-data responses; 5-flit packets on the chip.
    Response,
}

impl MessageClass {
    /// Both message classes in index order.
    pub const ALL: [MessageClass; MESSAGE_CLASS_COUNT] =
        [MessageClass::Request, MessageClass::Response];

    /// Stable index of the class (`Request` = 0, `Response` = 1).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MessageClass::Request => 0,
            MessageClass::Response => 1,
        }
    }

    /// Builds a message class from its [`index`](MessageClass::index).
    ///
    /// Returns `None` when `index >= MESSAGE_CLASS_COUNT`.
    #[must_use]
    pub fn from_index(index: usize) -> Option<MessageClass> {
        MessageClass::ALL.get(index).copied()
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageClass::Request => f.write_str("request"),
            MessageClass::Response => f.write_str("response"),
        }
    }
}

/// The kind of traffic a packet belongs to, as used by the paper's
/// measured traffic mixes.
///
/// The evaluation uses two patterns at 1 GHz:
/// * *mixed*: 50% broadcast requests, 25% unicast requests, 25% unicast
///   responses,
/// * *broadcast-only*: 100% broadcast requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficKind {
    /// Single-destination coherence request (1 flit).
    UnicastRequest,
    /// Single-destination cache-data response (5 flits).
    UnicastResponse,
    /// One-to-all coherence request (1 flit delivered to every other node).
    BroadcastRequest,
}

impl TrafficKind {
    /// The message class this traffic kind travels in.
    #[must_use]
    pub fn message_class(self) -> MessageClass {
        match self {
            TrafficKind::UnicastRequest | TrafficKind::BroadcastRequest => MessageClass::Request,
            TrafficKind::UnicastResponse => MessageClass::Response,
        }
    }

    /// Returns `true` for one-to-all traffic.
    #[must_use]
    pub fn is_broadcast(self) -> bool {
        matches!(self, TrafficKind::BroadcastRequest)
    }
}

impl fmt::Display for TrafficKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficKind::UnicastRequest => f.write_str("unicast-request"),
            TrafficKind::UnicastResponse => f.write_str("unicast-response"),
            TrafficKind::BroadcastRequest => f.write_str("broadcast-request"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_round_trip() {
        for c in MessageClass::ALL {
            assert_eq!(MessageClass::from_index(c.index()), Some(c));
        }
        assert_eq!(MessageClass::from_index(2), None);
    }

    #[test]
    fn traffic_kind_classes() {
        assert_eq!(
            TrafficKind::UnicastRequest.message_class(),
            MessageClass::Request
        );
        assert_eq!(
            TrafficKind::BroadcastRequest.message_class(),
            MessageClass::Request
        );
        assert_eq!(
            TrafficKind::UnicastResponse.message_class(),
            MessageClass::Response
        );
        assert!(TrafficKind::BroadcastRequest.is_broadcast());
        assert!(!TrafficKind::UnicastRequest.is_broadcast());
    }

    #[test]
    fn display_strings() {
        assert_eq!(MessageClass::Request.to_string(), "request");
        assert_eq!(
            TrafficKind::BroadcastRequest.to_string(),
            "broadcast-request"
        );
    }
}
