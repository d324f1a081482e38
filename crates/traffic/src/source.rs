//! Pluggable packet sources: live Bernoulli generation or trace replay,
//! with optional recording of every emitted packet into a
//! [`noc_types::Trace`].

use std::collections::VecDeque;

use noc_types::{Cycle, NodeId, Packet, TraceEvent};

use crate::generator::TrafficGenerator;

/// The per-node packet source a NIC polls every injection cycle.
///
/// A source is either the paper's live Bernoulli [`TrafficGenerator`] or a
/// deterministic replayer of recorded [`TraceEvent`]s; both speak the same
/// generate / rate / nap protocol, so the NIC does not care which one it is
/// driving. In either mode the source can additionally *record* everything
/// it emits, which is how traces are captured from live scenarios in the
/// first place.
///
/// Replay regenerates packet ids from the per-node emission order using the
/// same `(node << 40) | seq` scheme the live generator uses, so a replayed
/// run is bit-identical to the recorded one without ids ever being stored
/// in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSource {
    mode: SourceMode,
    recorded: Option<Vec<TraceEvent>>,
}

#[derive(Debug, Clone, PartialEq)]
enum SourceMode {
    Bernoulli(TrafficGenerator),
    Replay(TraceReplayer),
}

/// Replays one node's slice of a recorded trace.
#[derive(Debug, Clone, PartialEq)]
struct TraceReplayer {
    node: NodeId,
    /// This node's events in cycle order.
    events: VecDeque<TraceEvent>,
    /// Per-node packet sequence counter (regenerates the live id scheme).
    next_packet_seq: u64,
}

impl TrafficSource {
    /// Wraps a live Bernoulli generator.
    #[must_use]
    pub fn bernoulli(generator: TrafficGenerator) -> Self {
        Self {
            mode: SourceMode::Bernoulli(generator),
            recorded: None,
        }
    }

    /// Builds a replay source emitting `events` (this node's slice of a
    /// trace, in cycle order) from `node`.
    #[must_use]
    pub fn replay(node: NodeId, events: Vec<TraceEvent>) -> Self {
        debug_assert!(events.iter().all(|e| e.source == node));
        debug_assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        Self {
            mode: SourceMode::Replay(TraceReplayer {
                node,
                events: events.into(),
                next_packet_seq: 0,
            }),
            recorded: None,
        }
    }

    /// Node this source injects from.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match &self.mode {
            SourceMode::Bernoulli(generator) => generator.node(),
            SourceMode::Replay(replayer) => replayer.node,
        }
    }

    /// Returns `true` when this source replays a trace instead of running
    /// the live Bernoulli process.
    #[must_use]
    pub fn is_replay(&self) -> bool {
        matches!(self.mode, SourceMode::Replay(_))
    }

    /// The wrapped Bernoulli generator, when in live mode.
    #[must_use]
    pub fn generator(&self) -> Option<&TrafficGenerator> {
        match &self.mode {
            SourceMode::Bernoulli(generator) => Some(generator),
            SourceMode::Replay(_) => None,
        }
    }

    /// Starts recording every packet this source emits from now on.
    ///
    /// Restarting recording discards anything recorded so far.
    pub fn start_recording(&mut self) {
        self.recorded = Some(Vec::new());
    }

    /// Returns `true` while recording is active.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.recorded.is_some()
    }

    /// Stops recording and returns this node's recorded events in emission
    /// (= cycle) order. Returns an empty list when recording was never
    /// started.
    pub fn take_recorded_events(&mut self) -> Vec<TraceEvent> {
        self.recorded.take().unwrap_or_default()
    }

    /// Produces the packet this node creates at `cycle`, if any.
    ///
    /// Bernoulli mode flips the live coin; replay mode emits the next
    /// recorded event once its cycle is due. Either way at most one packet
    /// per call, like the chip's NICs.
    pub fn generate(&mut self, cycle: Cycle) -> Option<Packet> {
        let packet = match &mut self.mode {
            SourceMode::Bernoulli(generator) => generator.generate(cycle),
            SourceMode::Replay(replayer) => {
                if replayer.events.front().is_some_and(|e| e.cycle <= cycle) {
                    let event = replayer.events.pop_front().expect("front checked");
                    let id = (u64::from(replayer.node) << 40) | replayer.next_packet_seq;
                    replayer.next_packet_seq += 1;
                    Some(Packet::new(
                        id,
                        replayer.node,
                        event.destinations,
                        event.kind,
                        cycle,
                    ))
                } else {
                    None
                }
            }
        };
        if let (Some(recorded), Some(packet)) = (self.recorded.as_mut(), packet.as_ref()) {
            recorded.push(TraceEvent {
                cycle,
                source: packet.source(),
                kind: packet.kind(),
                destinations: *packet.destinations(),
            });
        }
        packet
    }

    /// Configured flit injection rate (zero for replay sources, whose
    /// schedule is fixed by the trace).
    #[must_use]
    pub fn rate(&self) -> f64 {
        match &self.mode {
            SourceMode::Bernoulli(generator) => generator.rate(),
            SourceMode::Replay(_) => 0.0,
        }
    }

    /// Changes the injection rate. A no-op for replay sources.
    pub fn set_rate(&mut self, rate: f64) {
        if let SourceMode::Bernoulli(generator) = &mut self.mode {
            generator.set_rate(rate);
        }
    }

    /// Number of packets emitted so far.
    #[must_use]
    pub fn generated_packets(&self) -> u64 {
        match &self.mode {
            SourceMode::Bernoulli(generator) => generator.generated_packets(),
            SourceMode::Replay(replayer) => replayer.next_packet_seq,
        }
    }

    /// Scouts how many upcoming [`generate`](Self::generate) calls are
    /// guaranteed idle (see [`TrafficGenerator::idle_cycles_hint`]).
    ///
    /// A replay source with events left never promises idle cycles (the nap
    /// protocol is keyed on injection ordinals, not trace cycles, so it
    /// simply opts out); once its trace is exhausted it is idle forever.
    /// Napping is a pure scheduling shortcut — opting out cannot change any
    /// measured number.
    #[must_use]
    pub fn idle_cycles_hint(&self, cap: u64) -> u64 {
        match &self.mode {
            SourceMode::Bernoulli(generator) => generator.idle_cycles_hint(cap),
            SourceMode::Replay(replayer) => {
                if replayer.events.is_empty() {
                    u64::MAX
                } else {
                    0
                }
            }
        }
    }

    /// Replays `cycles` promised-idle injection cycles at once. A no-op for
    /// replay sources (they hold no PRBS state to advance).
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        if let SourceMode::Bernoulli(generator) = &mut self.mode {
            generator.skip_idle_cycles(cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SeedMode;
    use crate::mix::TrafficMix;
    use noc_types::{DestinationSet, PacketKind};

    fn live_source(rate: f64) -> TrafficSource {
        TrafficSource::bernoulli(TrafficGenerator::new(
            5,
            4,
            TrafficMix::mixed(),
            SeedMode::PerNode,
            rate,
        ))
    }

    #[test]
    fn recorded_replay_reproduces_the_live_stream_bit_for_bit() {
        let mut live = live_source(0.3);
        live.start_recording();
        let reference: Vec<Option<Packet>> = (0..500).map(|c| live.generate(c)).collect();
        let events = live.take_recorded_events();
        assert!(!events.is_empty(), "rate 0.3 must emit something");

        let mut replay = TrafficSource::replay(5, events);
        assert!(replay.is_replay());
        for (cycle, expected) in reference.iter().enumerate() {
            let got = replay.generate(cycle as Cycle);
            assert_eq!(&got, expected, "cycle {cycle} diverged");
        }
        assert!(replay.generate(1_000).is_none(), "trace must be exhausted");
    }

    #[test]
    fn replay_regenerates_the_live_packet_id_scheme() {
        let events = vec![
            TraceEvent {
                cycle: 2,
                source: 3,
                kind: PacketKind::Request,
                destinations: DestinationSet::unicast(1),
            },
            TraceEvent {
                cycle: 7,
                source: 3,
                kind: PacketKind::Response,
                destinations: DestinationSet::unicast(9),
            },
        ];
        let mut replay = TrafficSource::replay(3, events);
        assert!(replay.generate(0).is_none());
        let first = replay.generate(2).unwrap();
        assert_eq!(first.id(), 3u64 << 40);
        assert_eq!(first.created_at(), 2);
        let second = replay.generate(7).unwrap();
        assert_eq!(second.id(), (3u64 << 40) | 1);
        assert_eq!(second.kind(), PacketKind::Response);
        assert_eq!(replay.generated_packets(), 2);
    }

    #[test]
    fn replay_opts_out_of_the_nap_protocol_until_exhausted() {
        let events = vec![TraceEvent {
            cycle: 50,
            source: 0,
            kind: PacketKind::Request,
            destinations: DestinationSet::unicast(1),
        }];
        let mut replay = TrafficSource::replay(0, events);
        assert_eq!(replay.idle_cycles_hint(u64::MAX), 0);
        replay.skip_idle_cycles(10); // must be a harmless no-op
        assert!(replay.generate(50).is_some());
        assert_eq!(replay.idle_cycles_hint(u64::MAX), u64::MAX);
    }

    #[test]
    fn recording_does_not_perturb_the_bernoulli_stream() {
        let mut plain = live_source(0.2);
        let mut taped = live_source(0.2);
        taped.start_recording();
        for cycle in 0..300 {
            assert_eq!(plain.generate(cycle), taped.generate(cycle));
        }
        assert_eq!(
            u64::try_from(taped.take_recorded_events().len()).unwrap(),
            plain.generated_packets()
        );
    }

    #[test]
    fn rate_controls_only_the_live_mode() {
        let mut live = live_source(0.25);
        assert_eq!(live.rate(), 0.25);
        live.set_rate(0.5);
        assert_eq!(live.rate(), 0.5);

        let mut replay = TrafficSource::replay(0, Vec::new());
        assert_eq!(replay.rate(), 0.0);
        replay.set_rate(0.9); // no-op by contract
        assert_eq!(replay.rate(), 0.0);
        assert!(replay.generator().is_none());
        assert!(live.generator().is_some());
    }
}
