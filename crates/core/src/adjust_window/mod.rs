//! `Adjust-Window` — plain-packet universal routing with energy cap 2
//! (paper §4.2).
//!
//! An execution is segmented into *time windows* whose size `L` doubles
//! whenever a window fails to deliver all its *old* packets (those injected
//! before it started). A window has three stages:
//!
//! * **Gossip** — `n²` phases of `2 + 3·lgL` rounds. In phase `(i, j)`,
//!   station `j` listens throughout; a *large* station `i` (queue at window
//!   start at least `4n·lgL`) signals largeness, whether its queue exceeds
//!   `L`, and three numbers by *coded transfer*: one round per bit, a
//!   transmitted packet encoding 1 and silence encoding 0. Transfer packets
//!   are consumed by `j` if addressed to it and adopted otherwise — the
//!   messages stay plain packets, no control bits.
//! * **Main** — the stations compute a common schedule from the gossiped
//!   counts and deliver old packets directly, sender and destination
//!   switched on per round. If some queue exceeds `L`, the stage is instead
//!   dedicated to draining the smallest-named such station through a
//!   rotating listener (`tests::concentrated_flood_triggers_dedicated_mode_and_survives`).
//! * **Auxiliary** — `8n·lgL` round-robin phases of `n²` rounds deliver the
//!   old packets of *small* stations and everything adopted during Gossip.
//!
//! Theorem 4: latency at most `(18n³·log²n + 2β)/(1 − ρ)` for every fixed
//! adversary with `ρ < 1` (constants for "sufficiently large n"; the
//! harness reports measured ratios).

pub mod params;

use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, Effects, EnqueueOrigin, Feedback, Handle, IndexedQueue,
    Message, Protocol, ProtocolCtx, QueuedPacket, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;
pub use params::{impl_latency_bound, initial_window_size, steady_window_size, WindowCfg};

/// Snapshot of a station's queue at the start of the current window.
#[derive(Debug)]
struct Snapshot {
    size: u64,
    small: bool,
    over_l: bool,
    /// Snapshot packets sorted by (destination, arrival) — the common Main
    /// schedule order. An entry is spent once its handle no longer
    /// resolves: the packet left the queue, so its slot reads as dead or
    /// holds a later packet. A spent packet adopted back during Gossip is
    /// a new queue entry, delivered from `adopted`.
    list: Vec<(Handle, StationId)>,
    /// Old packets per destination.
    count_for: Vec<u64>,
    /// Old packets with destination strictly below each index.
    count_below: Vec<u64>,
}

/// What a station learns from listening during Gossip.
#[derive(Debug)]
struct GossipRx {
    large: Vec<bool>,
    over_l: Vec<bool>,
    n1: Vec<u64>,
    n2_to_me: Vec<u64>,
    n3_below_me: Vec<u64>,
}

impl GossipRx {
    fn new(n: usize) -> Self {
        Self {
            large: vec![false; n],
            over_l: vec![false; n],
            n1: vec![0; n],
            n2_to_me: vec![0; n],
            n3_below_me: vec![0; n],
        }
    }
}

/// The Main-stage plan derived from the gossip (identical at every
/// station up to its own role).
#[derive(Debug)]
struct MainPlan {
    double_next: bool,
    mode: MainMode,
    /// `min(m, L_M)` — rounds of the normal schedule actually executed.
    cutoff: u64,
    /// Block offset of each large station in the normal schedule.
    prefix: Vec<u64>,
}

#[derive(Debug, PartialEq, Eq)]
enum MainMode {
    Normal,
    Dedicated(StationId),
}

/// Per-station `Adjust-Window` replica.
pub struct AdjustWindowStation {
    n: usize,
    id: StationId,
    win: WindowCfg,
    snap: Option<Snapshot>,
    rx: GossipRx,
    /// Packets adopted during this window's Gossip (handle, destination) —
    /// delivered in this window's Auxiliary stage. An entry names one stay
    /// in the queue: a packet that leaves and is adopted again is a new
    /// entry.
    adopted: Vec<(Handle, StationId)>,
    plan: Option<MainPlan>,
}

impl AdjustWindowStation {
    fn new(n: usize, id: StationId) -> Self {
        assert!(n >= 2);
        Self {
            n,
            id,
            win: WindowCfg::first(n),
            snap: None,
            rx: GossipRx::new(n),
            adopted: Vec::new(),
            plan: None,
        }
    }

    /// Gossip data about station `i`, substituting this station's own
    /// snapshot for itself — nobody listens to their own gossip phases, so
    /// `rx` has no row for `self.id`, but the common Main schedule must
    /// include every large station's block.
    fn peer(&self, i: StationId) -> (bool, bool, u64) {
        if i == self.id {
            let s = self.snap.as_ref().expect("snapshot exists before planning");
            (!s.small, s.over_l, s.size.min(self.win.l))
        } else {
            (self.rx.large[i], self.rx.over_l[i], self.rx.n1[i])
        }
    }

    /// Advance the window state machine up to the window containing `r`.
    fn ensure_window(&mut self, r: Round) {
        while r >= self.win.end() {
            let double = self
                .plan
                .as_ref()
                .map_or_else(|| self.compute_plan().double_next, |p| p.double_next);
            self.win = self.win.next(self.n, double);
            self.snap = None;
            self.rx = GossipRx::new(self.n);
            self.adopted.clear();
            self.plan = None;
        }
    }

    /// Build the window-start snapshot lazily. Correct as long as it runs
    /// before this station's first transmission of the window: while the
    /// station only sleeps or listens, its set of pre-window packets is
    /// exactly `iter_old(w0)`.
    fn ensure_snapshot(&mut self, queue: &IndexedQueue) {
        if self.snap.is_some() {
            return;
        }
        let w0 = self.win.w0;
        let mut entries: Vec<(StationId, u32, Handle)> =
            queue.iter_old(w0).map(|qp| (qp.packet.dest, qp.seq, qp.handle())).collect();
        entries.sort_unstable_by_key(|&(d, seq, _)| (d, seq));
        let mut count_for = vec![0u64; self.n];
        for &(d, _, _) in &entries {
            count_for[d] += 1;
        }
        let mut count_below = vec![0u64; self.n];
        for d in 1..self.n {
            count_below[d] = count_below[d - 1] + count_for[d - 1];
        }
        let size = entries.len() as u64;
        self.snap = Some(Snapshot {
            size,
            small: size < self.win.small_threshold(self.n),
            over_l: size > self.win.l,
            list: entries.into_iter().map(|(d, _, h)| (h, d)).collect(),
            count_for,
            count_below,
        });
    }

    /// Derive the Main plan from the gossip table merged with this
    /// station's own snapshot.
    fn compute_plan(&self) -> MainPlan {
        let dedicated = (0..self.n).find(|&i| self.peer(i).1);
        if let Some(i_star) = dedicated {
            return MainPlan {
                double_next: true,
                mode: MainMode::Dedicated(i_star),
                cutoff: self.win.lm_len,
                prefix: vec![0; self.n],
            };
        }
        let mut prefix = vec![0u64; self.n];
        let mut m_total = 0u64;
        for (i, p) in prefix.iter_mut().enumerate() {
            *p = m_total;
            let (large, _, n1) = self.peer(i);
            if large {
                m_total += n1;
            }
        }
        MainPlan {
            double_next: m_total > self.win.lm_len,
            mode: MainMode::Normal,
            cutoff: m_total.min(self.win.lm_len),
            prefix,
        }
    }

    fn ensure_plan(&mut self) {
        if self.plan.is_none() {
            self.plan = Some(self.compute_plan());
        }
    }

    /// The gossip phase and offset of a round, if it is in the Gossip stage.
    fn gossip_pos(&self, r: Round) -> Option<(usize, usize, u64)> {
        let rel = r - self.win.w0;
        if rel >= self.win.lg_len {
            return None;
        }
        let plen = self.win.phase_len();
        let p = rel / plen;
        let off = rel % plen;
        Some(((p / self.n as u64) as usize, (p % self.n as u64) as usize, off))
    }

    /// Value of the coded-transfer bit at offset `off` of phase `(i=me, j)`.
    fn gossip_bit(&self, j: StationId, off: u64) -> bool {
        let snap = self.snap.as_ref().expect("snapshot exists when transmitting");
        match off {
            0 => true,
            1 => snap.over_l,
            o => {
                let idx = o - 2;
                let field = idx / self.win.g;
                let bit = idx % self.win.g;
                let l = self.win.l;
                let val = match field {
                    0 => snap.size.min(l),
                    1 => snap.count_for[j].min(l),
                    _ => snap.count_below[j].min(l),
                };
                (val >> bit) & 1 == 1
            }
        }
    }

    /// Packet to spend on one gossip transmission to `j`: a new packet if
    /// any, else an old packet destined to `j` (a delivery), else the last
    /// surviving snapshot packet (its relay delivers it in Auxiliary).
    fn pick_gossip_packet<'q>(
        &self,
        j: StationId,
        queue: &'q IndexedQueue,
    ) -> Option<&'q QueuedPacket> {
        let w0 = self.win.w0;
        if let Some(qp) = queue.newest().filter(|qp| qp.arrived >= w0) {
            return Some(qp);
        }
        if let Some(qp) = queue.oldest_old_for(j, w0) {
            return Some(qp);
        }
        let snap = self.snap.as_ref().expect("snapshot exists");
        snap.list.iter().rev().find_map(|&(h, _)| queue.get(h))
    }

    /// Deliverable packet for `j` in the Auxiliary stage: an old packet if
    /// this station is small, else a gossip-adopted packet addressed to `j`.
    fn aux_deliverable<'q>(
        &self,
        j: StationId,
        queue: &'q IndexedQueue,
    ) -> Option<&'q QueuedPacket> {
        let snap = self.snap.as_ref().expect("snapshot exists");
        if snap.small {
            if let Some(qp) = queue.oldest_old_for(j, self.win.w0) {
                return Some(qp);
            }
        }
        self.adopted.iter().filter(|&&(_, dest)| dest == j).find_map(|&(h, _)| queue.get(h))
    }

    /// Stations other than `i_star` in name order (dedicated-mode listener
    /// rotation).
    fn dedicated_listener(&self, i_star: StationId, t: u64) -> StationId {
        let idx = (t % (self.n as u64 - 1)) as usize;
        if idx < i_star {
            idx
        } else {
            idx + 1
        }
    }

    /// My Main-stage events as merged intervals over `[0, cutoff)`.
    fn main_intervals(&self, me: StationId) -> Vec<(u64, u64)> {
        let plan = self.plan.as_ref().expect("plan exists");
        let mut iv: Vec<(u64, u64)> = Vec::new();
        match plan.mode {
            MainMode::Dedicated(i_star) => {
                if me == i_star {
                    iv.push((0, self.win.lm_len));
                } else {
                    // every (n-1)th round; represent as singletons lazily in
                    // next_event instead of materialising them all
                }
            }
            MainMode::Normal => {
                let snap = self.snap.as_ref().expect("snapshot exists");
                if !snap.small && !snap.over_l {
                    let s = plan.prefix[me];
                    let e = (s + snap.size).min(plan.cutoff);
                    if s < e {
                        iv.push((s, e));
                    }
                }
                for i in 0..self.n {
                    if i != me && self.rx.large[i] {
                        let s = plan.prefix[i] + self.rx.n3_below_me[i];
                        let e = (s + self.rx.n2_to_me[i]).min(plan.cutoff);
                        if s < e {
                            iv.push((s, e));
                        }
                    }
                }
            }
        }
        iv.sort_unstable();
        iv
    }

    /// My next relevant round at or after `from` (absolute), or `None` if
    /// nothing remains in the current window.
    fn next_event_in_window(&mut self, me: StationId, from: Round) -> Option<Round> {
        let mut r = from.max(self.win.w0);
        // --- Gossip stage: wake for whole phases involving me.
        if r < self.win.main_start() {
            let plen = self.win.phase_len();
            let rel = r - self.win.w0;
            let mut p = rel / plen;
            let in_phase_off = rel % plen;
            let n = self.n as u64;
            while p < n * n {
                let (i, j) = ((p / n) as usize, (p % n) as usize);
                if i != j && (i == me || j == me) {
                    let start = self.win.w0 + p * plen;
                    return Some(start.max(if in_phase_off > 0 && p == rel / plen {
                        r
                    } else {
                        start
                    }));
                }
                p += 1;
            }
            r = self.win.main_start();
        }
        // --- Main stage.
        if r < self.win.aux_start() {
            self.ensure_plan();
            let t0 = r - self.win.main_start();
            let plan = self.plan.as_ref().expect("ensured");
            if let MainMode::Dedicated(i_star) = plan.mode {
                if me == i_star {
                    if t0 < self.win.lm_len {
                        return Some(r);
                    }
                } else {
                    // listener rounds: t ≡ my index (mod n−1)
                    let idx = (if me < i_star { me } else { me - 1 }) as u64;
                    let step = self.n as u64 - 1;
                    let t = if t0 % step <= idx {
                        t0 - (t0 % step) + idx
                    } else {
                        t0 - (t0 % step) + step + idx
                    };
                    if t < self.win.lm_len {
                        return Some(self.win.main_start() + t);
                    }
                }
            } else {
                for (s, e) in self.main_intervals(me) {
                    if t0 < e {
                        return Some(self.win.main_start() + s.max(t0));
                    }
                }
            }
            r = self.win.aux_start();
        }
        // --- Auxiliary stage.
        let nn = (self.n * self.n) as u64;
        let mut ra = r - self.win.aux_start();
        while ra < self.win.la_len {
            let off = ra % nn;
            let (i, j) = ((off / self.n as u64) as usize, (off % self.n as u64) as usize);
            if i != j && j == me {
                return Some(self.win.aux_start() + ra);
            }
            if i == me && j != me && self.has_aux_deliverable_hint() {
                return Some(self.win.aux_start() + ra);
            }
            ra += 1;
        }
        None
    }

    /// Cheap test for "might still have auxiliary deliverables": exact
    /// emptiness is checked again at `act` (a spurious wake merely listens).
    fn has_aux_deliverable_hint(&self) -> bool {
        let small = self.snap.as_ref().is_some_and(|s| s.small);
        small || !self.adopted.is_empty()
    }

    fn plan_wake(&mut self, me: StationId, r: Round) -> Wake {
        let mut from = r + 1;
        loop {
            self.ensure_window(from);
            if self.snap.is_none()
                && from >= self.win.w0
                && from < self.win.end()
                && r >= self.win.w0
            {
                // crossing stages within a known window is fine; snapshots of
                // future windows are built when their first round arrives
            }
            match self.next_event_in_window(me, from) {
                Some(e) => {
                    debug_assert!(e >= from, "event in the past");
                    return if e == r + 1 { Wake::Stay } else { Wake::At(e) };
                }
                None => from = self.win.end(),
            }
        }
    }
}

impl Protocol for AdjustWindowStation {
    fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
        match self.next_event_in_window(ctx.id, 0) {
            Some(0) => Wake::Stay,
            Some(e) => Wake::At(e),
            None => Wake::At(self.win.end()),
        }
    }

    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        self.ensure_window(ctx.round);
        self.ensure_snapshot(queue);
        // Gossip stage.
        if let Some((i, j, off)) = self.gossip_pos(ctx.round) {
            if i == ctx.id && j != ctx.id {
                let snap = self.snap.as_ref().expect("ensured");
                if !snap.small && self.gossip_bit(j, off) {
                    if let Some(qp) = self.pick_gossip_packet(j, queue) {
                        return Action::Transmit(Message::plain(qp));
                    }
                }
            }
            return Action::Listen;
        }
        let rel = ctx.round - self.win.w0;
        // Main stage.
        if rel < self.win.lg_len + self.win.lm_len {
            self.ensure_plan();
            let t = rel - self.win.lg_len;
            let plan = self.plan.as_ref().expect("ensured");
            match plan.mode {
                MainMode::Dedicated(i_star) if i_star == ctx.id => {
                    let listener = self.dedicated_listener(i_star, t);
                    if let Some(qp) = queue.oldest_for(listener) {
                        return Action::Transmit(Message::plain(qp));
                    }
                    if let Some(qp) = queue.oldest() {
                        return Action::Transmit(Message::plain(qp));
                    }
                    return Action::Listen;
                }
                MainMode::Dedicated(_) => return Action::Listen,
                MainMode::Normal => {
                    let snap = self.snap.as_ref().expect("ensured");
                    if !snap.small && !snap.over_l && t < plan.cutoff {
                        let s = plan.prefix[ctx.id];
                        if t >= s && t < s + snap.size {
                            let (h, _) = snap.list[(t - s) as usize];
                            if let Some(qp) = queue.get(h) {
                                return Action::Transmit(Message::plain(qp));
                            }
                            // spent during gossip: its relay delivers it
                        }
                    }
                    return Action::Listen;
                }
            }
        }
        // Auxiliary stage.
        let ra = rel - self.win.lg_len - self.win.lm_len;
        let nn = (self.n * self.n) as u64;
        let off = ra % nn;
        let (i, j) = ((off / self.n as u64) as usize, (off % self.n as u64) as usize);
        if i == ctx.id && j != ctx.id {
            if let Some(qp) = self.aux_deliverable(j, queue) {
                return Action::Transmit(Message::plain(qp));
            }
        }
        Action::Listen
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        self.ensure_window(ctx.round);
        self.ensure_snapshot(queue);
        if matches!(fb, Feedback::Collision) {
            effects.flag("adjust-window: collision cannot happen");
        }
        if let Some((i, j, off)) = self.gossip_pos(ctx.round) {
            if j == ctx.id && i != ctx.id {
                let heard = matches!(fb, Feedback::Heard(_));
                match off {
                    0 => self.rx.large[i] = heard,
                    1 => self.rx.over_l[i] = heard,
                    o => {
                        if heard {
                            let idx = o - 2;
                            let field = idx / self.win.g;
                            let bit = idx % self.win.g;
                            match field {
                                0 => self.rx.n1[i] |= 1 << bit,
                                1 => self.rx.n2_to_me[i] |= 1 << bit,
                                _ => self.rx.n3_below_me[i] |= 1 << bit,
                            }
                        }
                    }
                }
                // The adopted packet enters `adopted` in `on_enqueued`,
                // once the queue has named it.
                if let Feedback::Heard(m) = fb {
                    if let Some(p) = m.packet {
                        if p.dest != ctx.id {
                            effects.adopt_heard();
                        }
                    }
                }
            }
        } else {
            let rel = ctx.round - self.win.w0;
            if rel < self.win.lg_len + self.win.lm_len {
                // Dedicated-mode listeners adopt what is not theirs; such
                // packets become ordinary (new) queue entries for the next
                // window rather than auxiliary deliverables.
                self.ensure_plan();
                if let Some(MainPlan { mode: MainMode::Dedicated(i_star), .. }) = self.plan {
                    if ctx.id != i_star {
                        if let Feedback::Heard(m) = fb {
                            if let Some(p) = m.packet {
                                if p.dest != ctx.id {
                                    effects.adopt_heard();
                                }
                            }
                        }
                    }
                }
            }
        }
        self.plan_wake(ctx.id, ctx.round)
    }

    /// A packet adopted during Gossip is an Auxiliary-stage deliverable;
    /// the engine enqueues it right after this round's `on_feedback`, so
    /// the window is current.
    fn on_enqueued(&mut self, ctx: &ProtocolCtx, qp: &QueuedPacket, origin: EnqueueOrigin) {
        if origin == EnqueueOrigin::Adopted && self.gossip_pos(ctx.round).is_some() {
            self.adopted.push((qp.handle(), qp.packet.dest));
        }
    }
}

/// The `Adjust-Window` algorithm of §4.2.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdjustWindow;

impl AdjustWindow {
    /// `Adjust-Window` (no parameters).
    pub fn new() -> Self {
        Self
    }
}

impl Algorithm for AdjustWindow {
    fn name(&self) -> String {
        "Adjust-Window".into()
    }

    fn class(&self) -> AlgorithmClass {
        AlgorithmClass::NOBL_PP_IND
    }

    fn required_cap(&self, _n: usize) -> usize {
        2
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        BuiltAlgorithm {
            name: format!("Adjust-Window(n={n})"),
            protocols: (0..n)
                .map(|s| Box::new(AdjustWindowStation::new(n, s)) as Box<dyn Protocol>)
                .collect(),
            wake: WakeMode::Adaptive,
            class: self.class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emac_adversary::{Scripted, SingleTarget, UniformRandom};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn first_window_is_quiet_and_cheap() {
        let n = 3;
        let cfg = SimConfig::new(n, 2);
        let mut sim =
            Simulator::new(cfg, AdjustWindow::new().build(n), Box::new(emac_sim::NoInjections));
        let w = WindowCfg::first(n);
        sim.run(w.l + 10);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= 2);
        assert_eq!(sim.metrics().packet_rounds, 0);
    }

    #[test]
    fn small_station_packets_flow_through_auxiliary() {
        // A handful of packets keeps every station small: delivery must
        // happen in the Auxiliary stage of the next window.
        let n = 3;
        let w = WindowCfg::first(n);
        let cfg = SimConfig::new(n, 2).adversary_type(Rate::new(1, 2), Rate::integer(2));
        let adv = Box::new(Scripted::from_triples(&[(0, 0, 1), (0, 2, 0), (1, 2, 1)]));
        let mut sim = Simulator::new(cfg, AdjustWindow::new().build(n), adv);
        sim.run(2 * w.l + 10);
        assert_eq!(sim.metrics().delivered, 3);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        // delivered within two windows
        assert!(sim.metrics().delay.max() <= 2 * w.l);
    }

    #[test]
    fn sustained_load_is_stable_and_clean() {
        let n = 3;
        let w = WindowCfg::first(n);
        let cfg = SimConfig::new(n, 2)
            .adversary_type(Rate::new(1, 2), Rate::integer(2))
            .sample_every(1024);
        let adv = Box::new(UniformRandom::new(7));
        let mut sim = Simulator::new(cfg, AdjustWindow::new().build(n), adv);
        // ~15 windows
        sim.run(15 * w.l);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= 2);
        assert!(sim.metrics().delivered > 0);
        // latency at most ~2 (possibly doubled) windows
        assert!(sim.metrics().delay.max() <= 8 * w.l, "delay {}", sim.metrics().delay.max());
        assert!(sim.run_until_drained(20 * w.l));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }

    #[test]
    fn concentrated_flood_triggers_dedicated_mode_and_survives() {
        // A single-pair flood drives one queue past L: the Main stage is
        // dedicated to draining it and the window doubles until the Main
        // stage outpaces the arrival rate (universality at work).
        let n = 3;
        let w = WindowCfg::first(n);
        let cfg = SimConfig::new(n, 2)
            .adversary_type(Rate::new(3, 5), Rate::integer(4))
            .sample_every(1024);
        let adv = Box::new(SingleTarget::new(0, 2));
        let mut sim = Simulator::new(cfg, AdjustWindow::new().build(n), adv);
        sim.run(30 * w.l);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        // relays were used (dedicated mode spreads load over listeners)
        assert!(sim.metrics().adoptions > 0);
        // stability: growth flattens once the window size has adjusted
        let slope = sim.metrics().queue_growth_slope();
        assert!(slope < 0.05, "slope {slope}");
        assert!(sim.run_until_drained(60 * w.l));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }

    #[test]
    fn plain_packet_discipline_holds() {
        let n = 4;
        let w = WindowCfg::first(n);
        let cfg = SimConfig::new(n, 2).adversary_type(Rate::new(2, 3), Rate::integer(2));
        let adv = Box::new(UniformRandom::new(3));
        let mut sim = Simulator::new(cfg, AdjustWindow::new().build(n), adv);
        sim.run(4 * w.l);
        // the validator enforces plain-packet (class) — zero violations means
        // no control bits and no light messages were ever sent
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert_eq!(sim.metrics().control_bits_total, 0);
    }
}
