//! # emac-sim — a multiple-access-channel simulator with energy caps
//!
//! Execution substrate for the algorithms of *"Energy Efficient Adversarial
//! Routing in Shared Channels"* (Chlebus, Hradovich, Jurdziński, Klonowski,
//! Kowalski — SPAA 2019). The crate models, exactly as in the paper's §2:
//!
//! * a synchronous **multiple access channel** shared by `n` stations:
//!   exactly one transmitter per round is heard by every switched-on
//!   station, two or more collide, none is silence;
//! * **energy caps**: a bound on the number of stations switched on
//!   simultaneously, with per-round accounting and violation detection;
//! * a **programmable wake-up mechanism** (adaptive timers) and precomputed
//!   on/off schedules for energy-oblivious algorithms;
//! * **leaky-bucket adversarial injection** of type `(ρ, β)` with exact
//!   rational accounting;
//! * packet **custody tracking**: delivery exactly once, relay adoption,
//!   loss and duplication detection;
//! * the paper's performance measures: queue sizes, packet delays (latency),
//!   energy, and channel utilisation.
//!
//! Algorithms implement the [`Protocol`] trait per station and observe only
//! local information, enforcing the distributed model at the type level.
//!
//! ```
//! use emac_sim::{
//!     Action, AlgorithmClass, BuiltAlgorithm, Feedback, Effects, IndexedQueue, Message,
//!     Protocol, ProtocolCtx, Rate, SimConfig, Simulator, Wake, WakeMode,
//! };
//! use emac_sim::{Adversary, Injection, Round, SystemView};
//!
//! // A toy algorithm: station r mod n transmits its oldest packet.
//! struct RoundRobin;
//! impl Protocol for RoundRobin {
//!     fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
//!         if ctx.round as usize % ctx.n == ctx.id {
//!             if let Some(qp) = queue.oldest() {
//!                 return Action::Transmit(Message::plain(qp));
//!             }
//!         }
//!         Action::Listen
//!     }
//!     fn on_feedback(&mut self, _: &ProtocolCtx, _: &IndexedQueue, _: Feedback<'_>,
//!                    _: &mut Effects) -> Wake { Wake::Stay }
//! }
//!
//! struct ToOne;
//! impl Adversary for ToOne {
//!     fn plan(&mut self, r: Round, budget: usize, _: &SystemView<'_>) -> Vec<Injection> {
//!         (0..budget.min(1)).map(|_| Injection::new(r as usize % 3, 3)).collect()
//!     }
//! }
//!
//! let cfg = SimConfig::new(4, 4).adversary_type(Rate::new(1, 2), Rate::integer(1));
//! let built = BuiltAlgorithm {
//!     name: "round-robin".into(),
//!     protocols: (0..4).map(|_| Box::new(RoundRobin) as Box<dyn Protocol>).collect(),
//!     wake: WakeMode::Adaptive,
//!     class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
//! };
//! let mut sim = Simulator::new(cfg, built, Box::new(ToOne));
//! sim.run(1000);
//! assert!(sim.violations().is_clean());
//! assert!(sim.metrics().delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bitset;
pub mod config;
pub mod engine;
pub mod faults;
pub mod hooks;
pub mod message;
pub mod metrics;
pub mod packet;
pub mod plot;
pub mod protocol;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod schedule;
pub mod trace;
pub mod validate;

pub use batch::BatchSimulator;
pub use bitset::BitSet;
pub use config::SimConfig;
pub use engine::Simulator;
pub use faults::{FaultPlan, FaultSpec, RoundFaults};
pub use hooks::SimHooks;
pub use message::{bits_for, BitReader, ControlBits, Message};
pub use metrics::{DelayStats, Metrics, QueueSample};
pub use packet::{Injection, Packet, PacketId, Round, StationId};
pub use plot::{render_delay_histogram, render_series};
pub use protocol::{
    Action, Adversary, AlgorithmClass, AlwaysListen, BuiltAlgorithm, Effects, EnqueueOrigin,
    Feedback, NoInjections, OnSchedule, Protocol, ProtocolCtx, SystemView, Wake, WakeMode,
};
pub use queue::{Handle, IndexedQueue, QueuedPacket};
pub use rate::{LeakyBucket, Rate};
pub use rng::SmallRng;
pub use schedule::ScheduleTable;
pub use trace::{ChannelEvent, PacketOutcome, RoundTrace, Trace};
pub use validate::{ProtocolFlag, Violations};
