//! Round-by-round execution traces.
//!
//! Debugging a distributed algorithm on a shared channel means asking "who
//! was on, who transmitted, what happened to the packet" for a window of
//! rounds. The [`Trace`] ring buffer records a compact summary of the last
//! `capacity` rounds; tests and the examples render it with
//! [`Trace::render`].
//!
//! Tracing is off by default (the engine allocates nothing for it) and is
//! enabled with [`crate::Simulator::enable_trace`].

use crate::packet::{PacketId, Round, StationId};

/// What the channel carried in one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChannelEvent {
    /// No transmission.
    Silence,
    /// A collision of `2+` transmitters.
    Collision {
        /// Number of simultaneous transmitters.
        transmitters: usize,
    },
    /// The slot was corrupted by injected jamming (see [`crate::faults`]).
    Jammed {
        /// Transmitters whose messages were destroyed (may be zero).
        transmitters: usize,
    },
    /// A light (packet-less) message was heard.
    Light {
        /// The transmitter.
        sender: StationId,
        /// Control bits in the message.
        control_bits: usize,
    },
    /// A packet was heard.
    Packet {
        /// The transmitter.
        sender: StationId,
        /// The packet.
        packet: PacketId,
        /// Its destination.
        dest: StationId,
        /// What became of it.
        outcome: PacketOutcome,
    },
}

/// Fate of a heard packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Consumed by its switched-on destination.
    Delivered,
    /// Adopted by a relay station.
    Adopted(StationId),
    /// Neither delivered nor adopted (a model violation).
    Lost,
}

/// One traced round.
#[derive(Clone, Debug)]
pub struct RoundTrace {
    /// The round number.
    pub round: Round,
    /// Stations that were switched on.
    pub awake: Vec<StationId>,
    /// Packets injected this round as `(into, dest)`.
    pub injections: Vec<(StationId, StationId)>,
    /// The channel event.
    pub event: ChannelEvent,
}

/// Fixed-capacity ring buffer of [`RoundTrace`]s.
#[derive(Clone, Debug)]
pub struct Trace {
    capacity: usize,
    rounds: std::collections::VecDeque<RoundTrace>,
}

impl Trace {
    /// A trace keeping the last `capacity` rounds. The ring grows as
    /// rounds are recorded, so it never holds more than the run executes,
    /// whatever `capacity` says.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { capacity, rounds: std::collections::VecDeque::new() }
    }

    /// Record a round (evicting the oldest beyond capacity).
    pub fn push(&mut self, round: RoundTrace) {
        if self.rounds.len() == self.capacity {
            self.rounds.pop_front();
        }
        self.rounds.push_back(round);
    }

    /// Traced rounds, oldest first.
    pub fn rounds(&self) -> impl Iterator<Item = &RoundTrace> {
        self.rounds.iter()
    }

    /// Number of rounds currently held.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Render as an aligned, human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rt in &self.rounds {
            let awake: Vec<String> = rt.awake.iter().map(|s| s.to_string()).collect();
            let inj: Vec<String> = rt.injections.iter().map(|(s, d)| format!("{s}->{d}")).collect();
            let event = match &rt.event {
                ChannelEvent::Silence => "(silence)".to_string(),
                ChannelEvent::Collision { transmitters } => {
                    format!("COLLISION x{transmitters}")
                }
                ChannelEvent::Jammed { transmitters } => {
                    format!("JAMMED x{transmitters}")
                }
                ChannelEvent::Light { sender, control_bits } => {
                    format!("s{sender} light [{control_bits}b]")
                }
                ChannelEvent::Packet { sender, packet, dest, outcome } => {
                    let fate = match outcome {
                        PacketOutcome::Delivered => "delivered".to_string(),
                        PacketOutcome::Adopted(by) => format!("adopted by s{by}"),
                        PacketOutcome::Lost => "LOST".to_string(),
                    };
                    format!("s{sender} sends {packet}(->s{dest}) {fate}")
                }
            };
            out.push_str(&format!(
                "r{:<6} on[{}] {}{}\n",
                rt.round,
                awake.join(","),
                event,
                if inj.is_empty() { String::new() } else { format!("  inj[{}]", inj.join(" ")) },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(round: Round, event: ChannelEvent) -> RoundTrace {
        RoundTrace { round, awake: vec![0, 2], injections: vec![(1, 3)], event }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::new(2);
        t.push(rt(0, ChannelEvent::Silence));
        t.push(rt(1, ChannelEvent::Silence));
        t.push(rt(2, ChannelEvent::Collision { transmitters: 3 }));
        assert_eq!(t.len(), 2);
        let rounds: Vec<Round> = t.rounds().map(|r| r.round).collect();
        assert_eq!(rounds, vec![1, 2]);
    }

    #[test]
    fn render_mentions_everything() {
        let mut t = Trace::new(8);
        t.push(rt(5, ChannelEvent::Light { sender: 4, control_bits: 7 }));
        t.push(rt(
            6,
            ChannelEvent::Packet {
                sender: 0,
                packet: PacketId(9),
                dest: 2,
                outcome: PacketOutcome::Delivered,
            },
        ));
        t.push(rt(
            7,
            ChannelEvent::Packet {
                sender: 0,
                packet: PacketId(10),
                dest: 3,
                outcome: PacketOutcome::Adopted(2),
            },
        ));
        let s = t.render();
        assert!(s.contains("s4 light [7b]"));
        assert!(s.contains("p9(->s2) delivered"));
        assert!(s.contains("adopted by s2"));
        assert!(s.contains("inj[1->3]"));
        assert!(s.contains("on[0,2]"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(4);
        assert!(t.is_empty());
        assert_eq!(t.render(), "");
    }
}
