//! The interface between the simulator and distributed routing algorithms.
//!
//! Each station runs its own [`Protocol`] instance and observes only local
//! information: its name, the system size `n`, the energy cap, its queue,
//! and the channel feedback in rounds when it is switched on. This enforces
//! the paper's distributed model at the type level — a protocol object has
//! no way to peek at another station's state.
//!
//! Two wake disciplines exist, mirroring the paper's algorithm classes:
//!
//! * **Adaptive** (non-oblivious) protocols manage a programmable wake-up
//!   timer: they return a [`Wake`] decision after each awake round.
//! * **Scheduled** (energy-oblivious) protocols are switched on and off by a
//!   precomputed [`OnSchedule`]; for each station the on-rounds are
//!   determined before the execution starts, as the paper requires.

use std::sync::Arc;

use crate::bitset::BitSet;
use crate::message::Message;
use crate::packet::{Injection, Round, StationId};
use crate::queue::{IndexedQueue, QueuedPacket};

/// Immutable per-round context a protocol can observe.
///
/// Besides the round itself, the engine hands every callback the round's
/// position in the schedule's period (the *schedule clock*), so a
/// scheduled protocol finds its active thread or pair without dividing
/// the round: for a schedule with period `p` (see
/// [`OnSchedule::period`]), `phase == round % p` and
/// `cycle == round / p`. Without a period — adaptive wake, aperiodic
/// schedules — `phase == round` and `cycle == 0`. The engine advances the
/// clock by one comparison per round. Both values follow the global
/// round, also for a station whose schedule lookups a skew fault offsets.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolCtx {
    /// This station's name.
    pub id: StationId,
    /// Number of stations attached to the channel (known to algorithms).
    pub n: usize,
    /// The system's energy cap (known to algorithms).
    pub cap: usize,
    /// Current round (0-based).
    pub round: Round,
    /// Position of `round` in the schedule's period: `round % period`, or
    /// `round` when the wake discipline has no period.
    pub phase: Round,
    /// Completed schedule periods before `round`: `round / period`, or 0
    /// when the wake discipline has no period.
    pub cycle: u64,
}

/// What a switched-on station does in a round: transmit or listen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Transmit `message`. A message carrying a packet is built from the
    /// station's [`QueuedPacket`] and carries its handle; the engine
    /// verifies through the handle that the packet is still in this
    /// station's queue, and removes it once the message is heard.
    Transmit(Message),
    /// Sense the channel.
    Listen,
}

/// Channel feedback observed by every switched-on station at the end of a
/// round (paper §2, "Messages").
#[derive(Clone, Copy, Debug)]
pub enum Feedback<'a> {
    /// No station transmitted.
    Silence,
    /// Exactly one station transmitted and the message was heard by every
    /// switched-on station, including the transmitter.
    Heard(&'a Message),
    /// Two or more stations transmitted; nothing was heard.
    Collision,
}

/// Wake-up decision of an adaptive protocol after an awake round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Remain switched on in the next round.
    Stay,
    /// Switch off and wake at the given round (must be in the future).
    At(Round),
}

impl Wake {
    /// Sleep for `c` rounds starting after the current round `now`
    /// (the paper's "set its timer to a positive integer c").
    pub fn sleep_for(now: Round, c: u64) -> Wake {
        Wake::At(now + 1 + c)
    }
}

/// How a packet entered a station's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOrigin {
    /// Injected by the adversary.
    Injected,
    /// Adopted from the channel; this station is now the packet's relay.
    Adopted,
}

/// Side effects a protocol may request while processing feedback.
#[derive(Debug, Default)]
pub struct Effects {
    pub(crate) adopt: bool,
    pub(crate) flags: Vec<&'static str>,
}

impl Effects {
    /// Adopt the packet heard this round, becoming its relay. Only valid
    /// when a packet was heard and was not consumed by its destination; the
    /// engine records a violation otherwise.
    pub fn adopt_heard(&mut self) {
        self.adopt = true;
    }

    /// Flag a protocol-level anomaly (e.g. an unexpected silent round).
    /// Flags are collected by the validator; tests assert none occur.
    pub fn flag(&mut self, reason: &'static str) {
        self.flags.push(reason);
    }
}

/// A distributed station algorithm.
///
/// The engine calls `act` and `on_feedback` only in rounds where the station
/// is switched on; `on_enqueued` is called whenever a packet enters the
/// queue, even while the station is off (packets may be injected into
/// switched-off stations).
///
/// Protocols are `Send` so a built system can execute on a campaign worker
/// thread; per-station state never crosses threads mid-run.
pub trait Protocol: Send {
    /// First round in which this station is switched on (adaptive protocols
    /// only; ignored under a schedule). Called once before round 0.
    fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
        let _ = ctx;
        Wake::Stay
    }

    /// Choose this round's action. Called before channel resolution.
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action;

    /// Observe channel feedback, optionally adopt the heard packet, and
    /// decide when to wake next (adaptive protocols).
    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake;

    /// A packet entered this station's queue.
    fn on_enqueued(&mut self, ctx: &ProtocolCtx, qp: &QueuedPacket, origin: EnqueueOrigin) {
        let _ = (ctx, qp, origin);
    }
}

/// A precomputed on/off schedule for energy-oblivious algorithms: for each
/// station and each round, whether the station is switched on. The schedule
/// is fixed before the execution starts.
///
/// Schedules are immutable shared data (`Send + Sync`): the engine and
/// schedule-aware adversaries read the same `Arc` from any thread.
pub trait OnSchedule: Send + Sync {
    /// Whether `station` is switched on in `round`.
    fn is_on(&self, station: StationId, round: Round) -> bool;

    /// Fill `out` with the stations switched on in `round`, in ascending
    /// name order. `out` is cleared first; its capacity is reused, which is
    /// what keeps the engine's round loop allocation-free in steady state.
    /// The default scans all `n` stations; schedules with structure should
    /// override with an O(cap) enumeration.
    fn on_set_into(&self, n: usize, round: Round, out: &mut Vec<StationId>) {
        out.clear();
        out.extend((0..n).filter(|&s| self.is_on(s, round)));
    }

    /// Stations switched on in `round`, as a freshly allocated vector.
    /// Convenience wrapper over [`OnSchedule::on_set_into`] for
    /// construction-time schedule analysis and tests; per-round hot paths
    /// hold a scratch buffer and call `on_set_into` instead.
    fn on_set(&self, n: usize, round: Round) -> Vec<StationId> {
        let mut out = Vec::new();
        self.on_set_into(n, round, &mut out);
        out
    }

    /// The schedule's period, when it has one: `on_set(n, r)` must equal
    /// `on_set(n, r % period)` for **every** round `r`. The engine uses
    /// this hint to expand one full period into a packed
    /// [`crate::schedule::ScheduleTable`] at construction time, replacing
    /// per-round enumeration with a row copy. The default — and the honest
    /// answer for aperiodic schedules such as the pseudorandom duty-cycle
    /// baseline — is `None`, which keeps the per-round `on_set_into` path.
    fn period(&self) -> Option<u64> {
        None
    }
}

/// Wake discipline of a built algorithm.
#[derive(Clone)]
pub enum WakeMode {
    /// Stations drive their own wake-up timers.
    Adaptive,
    /// Stations follow a precomputed schedule (energy-oblivious).
    Scheduled(Arc<dyn OnSchedule>),
}

impl std::fmt::Debug for WakeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WakeMode::Adaptive => write!(f, "Adaptive"),
            WakeMode::Scheduled(_) => write!(f, "Scheduled(..)"),
        }
    }
}

/// Structural properties of an algorithm, used by the validator to check the
/// claims of the paper's Table 1 (plain-packet algorithms attach no control
/// bits; direct algorithms never relay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgorithmClass {
    /// At most `cap` stations on per round, determined in advance.
    pub oblivious: bool,
    /// Messages consist of exactly one packet and no control bits.
    pub plain_packet: bool,
    /// Packets hop once, from the injection station to the destination.
    pub direct: bool,
}

impl AlgorithmClass {
    /// Non-oblivious, general messages, direct routing (e.g. Orchestra).
    pub const NOBL_GEN_DIR: Self = Self { oblivious: false, plain_packet: false, direct: true };
    /// Non-oblivious, plain-packet, indirect routing (e.g. Adjust-Window).
    pub const NOBL_PP_IND: Self = Self { oblivious: false, plain_packet: true, direct: false };
    /// Oblivious, plain-packet, indirect (e.g. k-Cycle).
    pub const OBL_PP_IND: Self = Self { oblivious: true, plain_packet: true, direct: false };
    /// Oblivious, plain-packet, direct (e.g. k-Clique).
    pub const OBL_PP_DIR: Self = Self { oblivious: true, plain_packet: true, direct: true };
    /// Oblivious, general, direct (e.g. k-Subsets).
    pub const OBL_GEN_DIR: Self = Self { oblivious: true, plain_packet: false, direct: true };
}

/// A fully instantiated distributed algorithm, ready to run: one protocol
/// per station plus the wake discipline and the declared class.
pub struct BuiltAlgorithm {
    /// Human-readable algorithm name (for reports).
    pub name: String,
    /// One protocol instance per station, indexed by station name.
    pub protocols: Vec<Box<dyn Protocol>>,
    /// Wake discipline.
    pub wake: WakeMode,
    /// Declared structural class; the validator enforces it.
    pub class: AlgorithmClass,
}

/// A view of the system that adversaries may use when planning injections.
///
/// Adversaries are adaptive and omniscient in the model: they know the
/// algorithm and the entire history. The view exposes what the constructive
/// lower-bound adversaries of the paper need: who was on, for how long, and
/// how queues look.
#[derive(Clone, Copy, Debug)]
pub struct SystemView<'a> {
    /// Current round (the one being planned).
    pub round: Round,
    /// System size.
    pub n: usize,
    /// Queue length of each station at the end of the previous round.
    pub queue_sizes: &'a [usize],
    /// Which stations were switched on in the previous round, as a packed
    /// bit set: membership is `prev_awake.contains(s)`, enumeration is
    /// `prev_awake.iter()` (ascending, word-wise — no O(n) bool scan).
    pub prev_awake: &'a BitSet,
    /// Cumulative on-rounds per station.
    pub on_counts: &'a [u64],
    /// Most recent round each station was switched on, if ever.
    pub last_on: &'a [Option<Round>],
}

/// A packet-injection adversary of type `(ρ, β)`.
///
/// `budget` is the number of packets the leaky bucket allows this round; the
/// engine truncates any excess, so implementations cannot exceed their type.
///
/// The two planning methods are defaulted in terms of each other, so an
/// implementation **must override at least one** (overriding neither
/// recurses forever). Simple adversaries implement [`Adversary::plan`];
/// hot-path adversaries implement [`Adversary::plan_into`], which the
/// engine calls with a reused scratch buffer so injecting rounds stay
/// allocation-free in steady state.
///
/// Adversaries are `Send` for the same reason protocols are: a whole
/// simulated system must be movable onto a campaign worker thread.
pub trait Adversary: Send {
    /// Plan the injections for `round`, as a freshly allocated vector.
    fn plan(&mut self, round: Round, budget: usize, view: &SystemView<'_>) -> Vec<Injection> {
        let mut out = Vec::new();
        self.plan_into(round, budget, view, &mut out);
        out
    }

    /// Plan the injections for `round` into a caller-owned buffer. `out`
    /// is cleared first; its capacity is reused, which is what keeps the
    /// engine's injecting rounds allocation-free in steady state. The
    /// default shims over [`Adversary::plan`].
    fn plan_into(
        &mut self,
        round: Round,
        budget: usize,
        view: &SystemView<'_>,
        out: &mut Vec<Injection>,
    ) {
        out.clear();
        out.extend(self.plan(round, budget, view));
    }
}

/// Convenience: a no-op adversary (no injections ever).
pub struct NoInjections;

impl Adversary for NoInjections {
    fn plan_into(
        &mut self,
        _round: Round,
        _budget: usize,
        _view: &SystemView<'_>,
        out: &mut Vec<Injection>,
    ) {
        out.clear();
    }
}

/// Helper for tests and simple protocols: a protocol that is always on and
/// always listens. Useful as a passive receiver.
pub struct AlwaysListen;

impl Protocol for AlwaysListen {
    fn act(&mut self, _ctx: &ProtocolCtx, _queue: &IndexedQueue) -> Action {
        Action::Listen
    }

    fn on_feedback(
        &mut self,
        _ctx: &ProtocolCtx,
        _queue: &IndexedQueue,
        _fb: Feedback<'_>,
        _effects: &mut Effects,
    ) -> Wake {
        Wake::Stay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_sleep_for_matches_paper_timer() {
        // Timer c at round t: off during t+1 .. t+c, on again at t+c+1.
        assert_eq!(Wake::sleep_for(10, 3), Wake::At(14));
        assert_eq!(Wake::sleep_for(0, 1), Wake::At(2));
    }

    #[test]
    fn class_constants_match_table1() {
        // one runtime assertion over the constants, exercised as data
        let classes = [
            (AlgorithmClass::NOBL_GEN_DIR, (false, false, true)),
            (AlgorithmClass::NOBL_PP_IND, (false, true, false)),
            (AlgorithmClass::OBL_PP_IND, (true, true, false)),
            (AlgorithmClass::OBL_PP_DIR, (true, true, true)),
            (AlgorithmClass::OBL_GEN_DIR, (true, false, true)),
        ];
        for (c, (obl, pp, dir)) in classes {
            assert_eq!((c.oblivious, c.plain_packet, c.direct), (obl, pp, dir), "{c:?}");
        }
    }

    #[test]
    fn effects_accumulate() {
        let mut e = Effects::default();
        assert!(!e.adopt);
        e.adopt_heard();
        e.flag("x");
        assert!(e.adopt);
        assert_eq!(e.flags, vec!["x"]);
    }

    struct EveryOther;
    impl OnSchedule for EveryOther {
        fn is_on(&self, station: StationId, round: Round) -> bool {
            (station as u64 + round).is_multiple_of(2)
        }
    }

    #[test]
    fn schedule_default_on_set() {
        let s = EveryOther;
        assert_eq!(s.on_set(4, 0), vec![0, 2]);
        assert_eq!(s.on_set(4, 1), vec![1, 3]);
        assert_eq!(s.period(), None, "the default period hint is honest ignorance");
    }

    #[test]
    fn adversary_defaults_shim_between_plan_and_plan_into() {
        // An adversary implementing only `plan` works through `plan_into`
        // (the engine's entry point), and one implementing only `plan_into`
        // works through `plan` (the convenience entry point).
        struct PlanOnly;
        impl Adversary for PlanOnly {
            fn plan(&mut self, _r: Round, budget: usize, _v: &SystemView<'_>) -> Vec<Injection> {
                (0..budget).map(|_| Injection::new(0, 1)).collect()
            }
        }
        struct IntoOnly;
        impl Adversary for IntoOnly {
            fn plan_into(
                &mut self,
                _r: Round,
                budget: usize,
                _v: &SystemView<'_>,
                out: &mut Vec<Injection>,
            ) {
                out.clear();
                out.extend((0..budget).map(|_| Injection::new(1, 0)));
            }
        }
        let qs = vec![0usize; 2];
        let pa = BitSet::new(2);
        let oc = vec![0u64; 2];
        let lo = vec![None; 2];
        let v = SystemView {
            round: 0,
            n: 2,
            queue_sizes: &qs,
            prev_awake: &pa,
            on_counts: &oc,
            last_on: &lo,
        };
        let mut buf = vec![Injection::new(9, 9)]; // stale contents must be cleared
        PlanOnly.plan_into(0, 2, &v, &mut buf);
        assert_eq!(buf, vec![Injection::new(0, 1); 2]);
        assert_eq!(IntoOnly.plan(0, 3, &v), vec![Injection::new(1, 0); 3]);
    }

    #[test]
    fn on_set_into_clears_and_reuses_the_buffer() {
        let s = EveryOther;
        let mut buf = vec![9, 9, 9, 9, 9];
        let capacity_before = buf.capacity();
        s.on_set_into(4, 0, &mut buf);
        assert_eq!(buf, vec![0, 2], "stale contents must be cleared");
        s.on_set_into(4, 1, &mut buf);
        assert_eq!(buf, vec![1, 3]);
        assert_eq!(buf.capacity(), capacity_before, "capacity is reused, never shrunk");
    }
}
