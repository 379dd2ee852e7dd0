//! `k-Subsets` — maximum-throughput energy-oblivious direct routing
//! (paper §6).
//!
//! Fix an enumeration `A_0, …, A_{γ−1}` of all `γ = C(n,k)` subsets of `k`
//! stations. Rounds of the form `i + jγ` make *thread* `i`; in thread `i`'s
//! rounds exactly the stations of `A_i` are switched on — a fixed schedule,
//! so the algorithm is `k`-energy-oblivious. Each thread runs its own
//! instantiation of the MBTF broadcast algorithm \[17\] over the `k` stations
//! of its subset, with dedicated per-thread queues.
//!
//! A station assigns each packet for destination `w` to one of the
//! `C(n−2, k−2)` threads whose subset contains both endpoints, keeping the
//! cumulative allocations balanced (max − min ≤ 1). Since the receiver is
//! on in every round of the thread, routing is direct.
//!
//! Theorem 8: stable at injection rate exactly `k(k−1)/(n(n−1))` with at
//! most `2·C(n,k)(n² + β)` queued packets; Theorem 9 shows no oblivious
//! direct algorithm can beat that rate. The paper also notes that replacing
//! MBTF by RRW yields bounded latency `Θ(γ(n + β))` for rates strictly
//! below the threshold — available here as [`ThreadSubroutine::Rrw`].
//!
//! # Representation
//!
//! A station is in `C(n−1, k−1)` threads (127 at n = 128, k = 2), so its
//! memory is one thread's share times that count. Each thread has one
//! fixed-size record of its subroutine's state: 16 bytes for MBTF (the
//! ends and length of its packet list, the baton position and the two big
//! bits), 24 for RRW (the list, the token position and the batch marker).
//! The packet lists of all of a station's threads are threaded through one
//! pool of nodes, MBTF baton rows hold `u32` station ids, and the balanced
//! allocator keeps one position per destination. Built with its simulator,
//! before any packet arrives, the n = 128, k = 2 system holds about
//! 0.99 MB of heap (`tests/alloc_free.rs` bounds it at 1.0 MB).

use std::sync::Arc;

use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, ControlBits, Effects, Feedback, Handle, IndexedQueue,
    Message, OnSchedule, Protocol, ProtocolCtx, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;
use crate::balance::BalancedAllocator;
use crate::combinatorics::combinations;

/// Shared geometry: the subset enumeration and the thread schedule. The
/// engine expands the schedule into its own packed table, so the geometry
/// keeps only the enumeration, as `u32` station ids.
#[derive(Debug)]
pub struct KSubsetsParams {
    n: usize,
    k: usize,
    /// The enumeration, `k` ascending station ids per subset, back to
    /// back: `A_t` is `subsets[t·k..(t+1)·k]`.
    subsets: Vec<u32>,
}

impl KSubsetsParams {
    /// Geometry for `n` stations and cap `2 ≤ k < n` (the subset count
    /// `C(n, k)` is guarded by [`combinations`]).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 2 && k < n, "need 2 <= k < n");
        let subsets = combinations(n, k).into_iter().map(|s| s as u32).collect();
        Self { n, k, subsets }
    }

    /// Number of threads `γ = C(n, k)` (the schedule period and phase
    /// length).
    pub fn gamma(&self) -> usize {
        self.subsets.len() / self.k
    }

    /// The stations of `A_t`, ascending.
    fn subset(&self, t: u32) -> &[u32] {
        let t = t as usize;
        &self.subsets[t * self.k..(t + 1) * self.k]
    }

    /// Energy cap `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The thread executing in `round`.
    pub fn thread_of_round(&self, round: Round) -> u32 {
        (round % self.gamma() as u64) as u32
    }

    /// Whether `station ∈ A_t`: a scan of the subset's `k` members.
    pub fn in_subset(&self, t: u32, station: StationId) -> bool {
        u32::try_from(station).is_ok_and(|s| self.subset(t).contains(&s))
    }

    /// Every station's threads, those whose subset contains it, in
    /// ascending order: one pass over the enumeration. Each list holds
    /// `C(n−1, k−1) = γk/n` threads.
    pub fn threads_by_station(&self) -> Vec<Vec<u32>> {
        let per_station = self.gamma() * self.k / self.n;
        let mut threads: Vec<Vec<u32>> =
            (0..self.n).map(|_| Vec::with_capacity(per_station)).collect();
        for (t, subset) in self.subsets.chunks(self.k).enumerate() {
            for &station in subset {
                threads[station as usize].push(t as u32);
            }
        }
        threads
    }
}

impl OnSchedule for KSubsetsParams {
    fn is_on(&self, station: StationId, round: Round) -> bool {
        self.in_subset(self.thread_of_round(round), station)
    }

    fn on_set_into(&self, _n: usize, round: Round, out: &mut Vec<StationId>) {
        out.clear();
        out.extend(self.subset(self.thread_of_round(round)).iter().map(|&s| s as StationId));
    }

    /// The subset enumeration repeats after `γ = C(n, k)` rounds.
    fn period(&self) -> Option<u64> {
        Some(self.gamma() as u64)
    }
}

/// Which broadcast algorithm each thread instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadSubroutine {
    /// MBTF \[17\]: throughput 1 per thread, but possibly unbounded latency
    /// (Table 1 row 8 reports latency ∞).
    Mbtf,
    /// RRW \[18\]: bounded latency `Θ(γ(n+β))` for rates strictly below the
    /// threshold (paper §6 remark). Plain-packet.
    Rrw,
}

/// Sentinel "no node" link in a [`ListPool`].
const NIL: u32 = u32::MAX;

/// One thread's packet list in its station's [`ListPool`]: the ends and
/// the length of a FIFO of the handles of the station's packets allocated
/// to that thread.
#[derive(Clone, Copy, Debug)]
struct ThreadList {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_LIST: ThreadList = ThreadList { head: NIL, tail: NIL, len: 0 };

/// A station's per-thread packet FIFOs, threaded through one pool of
/// nodes: a thread's list costs its [`ThreadList`] plus one node per
/// listed packet, and popped nodes go on a free list for the next push,
/// so a pool at its high-water mark does not allocate. The pool is the
/// station's own, not keyed by queue slot: a handle the queue no longer
/// resolves (a crash emptied the queue, or a deaf round hid the
/// transmission) stays listed until its thread pops it.
struct ListPool {
    /// Node `i`: a listed handle and the next node of its list, or, while
    /// free, the next free node.
    nodes: Vec<(Handle, u32)>,
    free: u32,
}

impl ListPool {
    fn new() -> Self {
        Self { nodes: Vec::new(), free: NIL }
    }

    fn push_back(&mut self, list: &mut ThreadList, h: Handle) {
        let node = if self.free == NIL {
            self.nodes.push((h, NIL));
            u32::try_from(self.nodes.len() - 1)
                .ok()
                .filter(|&node| node != NIL)
                .expect("thread lists outgrew the u32 node range")
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].1;
            self.nodes[node as usize] = (h, NIL);
            node
        };
        match list.tail {
            NIL => list.head = node,
            tail => self.nodes[tail as usize].1 = node,
        }
        list.tail = node;
        list.len += 1;
    }

    fn front(&self, list: &ThreadList) -> Option<Handle> {
        (list.head != NIL).then(|| self.nodes[list.head as usize].0)
    }

    /// Drop the front of `list`, the packet this station just transmitted:
    /// the engine has taken it from the queue, so its handle no longer
    /// resolves.
    fn pop_sent(&mut self, list: &mut ThreadList, queue: &IndexedQueue) {
        let sent = self.front(list);
        debug_assert!(sent.is_some_and(|h| queue.get(h).is_none()), "sent {sent:?}");
        if sent.is_some() {
            let node = list.head;
            list.head = self.nodes[node as usize].1;
            if list.head == NIL {
                list.tail = NIL;
            }
            list.len -= 1;
            self.nodes[node as usize].1 = self.free;
            self.free = node;
        }
    }
}

/// One station's MBTF state for one of its threads. The thread's baton
/// list is the thread's row of the station's baton rows.
#[derive(Clone, Copy, Debug)]
struct MbtfThread {
    list: ThreadList,
    /// The baton holder's position in the thread's baton row.
    baton_pos: u16,
    my_big: bool,
    season_big: bool,
}

/// One station's RRW state for one of its threads.
#[derive(Clone, Copy, Debug)]
struct RrwThread {
    list: ThreadList,
    /// The token's position in the thread's subset.
    token: u32,
    /// The station's packets that arrived before this round make up its
    /// batch for its next token visit.
    batch_marker: Round,
}

// The records stay a quarter and three eighths of a cache line.
const _: () = assert!(std::mem::size_of::<MbtfThread>() == 16);
const _: () = assert!(std::mem::size_of::<RrwThread>() == 24);

/// A station's threads, in the order of its `my_threads`, with the state
/// its subroutine keeps for each.
enum Threads {
    Mbtf {
        threads: Vec<MbtfThread>,
        /// The baton list of `my_threads[i]` at row `i`, `k` station ids
        /// per row: it starts as the thread's subset.
        batons: Vec<u32>,
        season: SeasonClock,
    },
    Rrw {
        threads: Vec<RrwThread>,
        /// Whether this station transmitted in the current round: set by
        /// `act`, taken by `on_feedback`. A station pops a thread list
        /// only for a packet it sent itself, so a token that a crash or a
        /// deaf round desynchronized never pops another member's packet.
        sent: bool,
    },
}

/// The end-of-season move-big-to-front transition on one thread's baton
/// list, held as a slice (the flat form of
/// [`emac_broadcast::BatonList::season_end`]): a big conductor at `pos`
/// moves to the front and keeps the baton; otherwise the baton passes to
/// the next station in cyclic list order. Returns the new baton position.
fn baton_season_end(order: &mut [u32], pos: usize, conductor_was_big: bool) -> usize {
    if conductor_was_big {
        order[..=pos].rotate_right(1);
        0
    } else if pos + 1 == order.len() {
        0
    } else {
        pos + 1
    }
}

/// Where a thread-round falls in its MBTF season: `j % season_len`. Every
/// thread of a station is in the same thread-round `j` (the schedule
/// clock's cycle), so one clock per station serves all of its threads.
#[derive(Clone, Copy, Debug, Default)]
struct SeasonClock {
    /// The thread-round `pos` belongs to.
    round: u64,
    pos: u64,
}

impl SeasonClock {
    /// `j % season_len`, counted up by comparison from the previous
    /// thread-round — a station wakes in every cycle of its schedule —
    /// and divided only after a gap, which a wake fault makes.
    fn at(&mut self, j: u64, season_len: u64) -> u64 {
        if j != self.round {
            self.pos = if j == self.round + 1 {
                let next = self.pos + 1;
                if next == season_len {
                    0
                } else {
                    next
                }
            } else {
                j % season_len
            };
            self.round = j;
        }
        self.pos
    }
}

/// Per-station `k-Subsets` protocol.
pub struct KSubsetsStation {
    params: Arc<KSubsetsParams>,
    /// The threads whose subset contains this station (ascending).
    my_threads: Vec<u32>,
    /// The state of `my_threads[i]` at position `i`.
    threads: Threads,
    /// Every thread's packet list.
    lists: ListPool,
    /// The slot of the thread this station runs next.
    cursor: usize,
    /// Per-destination balanced allocation: row `w` spreads over the slots
    /// of the `C(n−2, k−2)` threads containing `w` (the station's own row
    /// is never used).
    alloc: BalancedAllocator,
}

impl KSubsetsStation {
    /// Station `id`'s protocol over its threads `my_threads` (ascending).
    fn new(
        params: Arc<KSubsetsParams>,
        id: StationId,
        my_threads: Vec<u32>,
        mode: ThreadSubroutine,
    ) -> Self {
        let (n, k) = (params.n, params.k);
        let per_dest = my_threads.len() * (k - 1) / (n - 1);
        let mut alloc_slots = vec![0u32; n * per_dest];
        let mut fill = vec![0; n];
        for (slot, &t) in my_threads.iter().enumerate() {
            for w in params.subset(t).iter().map(|&w| w as usize).filter(|&w| w != id) {
                alloc_slots[w * per_dest + fill[w]] = slot as u32;
                fill[w] += 1;
            }
        }
        let threads = match mode {
            ThreadSubroutine::Mbtf => {
                assert!(k <= 1 << 16, "an MBTF baton position is a u16, so k <= 65536");
                let mut batons = Vec::with_capacity(my_threads.len() * k);
                for &t in &my_threads {
                    batons.extend_from_slice(params.subset(t));
                }
                let thread =
                    MbtfThread { list: EMPTY_LIST, baton_pos: 0, my_big: false, season_big: false };
                Threads::Mbtf {
                    threads: vec![thread; my_threads.len()],
                    batons,
                    season: SeasonClock::default(),
                }
            }
            ThreadSubroutine::Rrw => {
                let thread = RrwThread { list: EMPTY_LIST, token: 0, batch_marker: 0 };
                Threads::Rrw { threads: vec![thread; my_threads.len()], sent: false }
            }
        };
        Self {
            params,
            my_threads,
            threads,
            lists: ListPool::new(),
            cursor: 0,
            alloc: BalancedAllocator::rows(alloc_slots, per_dest),
        }
    }

    /// Position of thread `t` in `my_threads`, if this station is in it.
    fn slot(&self, t: u32) -> Option<usize> {
        self.my_threads.binary_search(&t).ok()
    }

    /// The active thread and thread-round, read off the schedule clock:
    /// thread `i` runs in rounds `i + jγ`, so they are its phase and cycle.
    fn thread_round(&self, ctx: &ProtocolCtx) -> (u32, u64) {
        let gamma = self.params.gamma() as u64;
        debug_assert_eq!((ctx.phase, ctx.cycle), (ctx.round % gamma, ctx.round / gamma));
        (ctx.phase as u32, ctx.cycle)
    }

    /// Position of the active thread `t` in `my_threads`. A station's
    /// threads recur in ascending order, so on schedule it is the cursor's
    /// slot; after a wake fault the binary search finds it.
    fn active_slot(&mut self, t: u32) -> Option<usize> {
        if self.my_threads.get(self.cursor) != Some(&t) {
            self.cursor = self.slot(t)?;
        }
        Some(self.cursor)
    }

    /// Thread-local season length (MBTF seasons within a thread's scaled
    /// time are `k − 1` thread-rounds).
    fn season_len(&self) -> u64 {
        (self.params.k - 1).max(1) as u64
    }
}

impl Protocol for KSubsetsStation {
    fn on_enqueued(
        &mut self,
        ctx: &ProtocolCtx,
        qp: &emac_sim::QueuedPacket,
        _origin: emac_sim::EnqueueOrigin,
    ) {
        let w = qp.packet.dest;
        debug_assert_ne!(w, ctx.id, "self-addressed packets never queue");
        let slot = self.alloc.pick_in(w) as usize;
        let list = match &mut self.threads {
            Threads::Mbtf { threads, .. } => &mut threads[slot].list,
            Threads::Rrw { threads, .. } => &mut threads[slot].list,
        };
        self.lists.push_back(list, qp.handle());
    }

    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        let (t, j) = self.thread_round(ctx);
        let season_len = self.season_len();
        let kk = self.params.k;
        let Some(slot) = self.active_slot(t) else {
            return Action::Listen;
        };
        match &mut self.threads {
            Threads::Mbtf { threads, batons, season } => {
                let rec = &mut threads[slot];
                if batons[slot * kk + usize::from(rec.baton_pos)] as StationId != ctx.id {
                    return Action::Listen;
                }
                if season.at(j, season_len) == 0 {
                    rec.my_big = rec.list.len as usize >= kk * kk - 1;
                }
                let mut bits = ControlBits::new();
                bits.push_bit(rec.my_big);
                match self.lists.front(&rec.list) {
                    Some(h) => match queue.get(h) {
                        Some(qp) => Action::Transmit(Message::with_control(qp, bits)),
                        None => Action::Listen, // custody desync; validator will flag
                    },
                    None => Action::Transmit(Message::light(bits)),
                }
            }
            Threads::Rrw { threads, sent } => {
                let rec = &threads[slot];
                if self.params.subset(t)[rec.token as usize] as StationId != ctx.id {
                    return Action::Listen;
                }
                match self.lists.front(&rec.list).and_then(|h| queue.get(h)) {
                    Some(qp) if qp.arrived < rec.batch_marker => {
                        *sent = true;
                        Action::Transmit(Message::plain(qp))
                    }
                    _ => Action::Listen,
                }
            }
        }
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        let (t, j) = self.thread_round(ctx);
        let season_len = self.season_len();
        let Some(slot) = self.active_slot(t) else {
            effects.flag("k-subsets: awake outside own threads");
            return Wake::Stay;
        };
        // This thread's turn ends with this round; the next thread comes next.
        self.cursor = if slot + 1 == self.my_threads.len() { 0 } else { slot + 1 };
        let kk = self.params.k;
        let id = ctx.id;
        match &mut self.threads {
            Threads::Mbtf { threads, batons, season } => {
                let rec = &mut threads[slot];
                let baton = &mut batons[slot * kk..(slot + 1) * kk];
                match fb {
                    Feedback::Heard(m) => {
                        rec.season_big = m.control.reader().read_bit();
                        let holder = baton[usize::from(rec.baton_pos)] as StationId;
                        if holder == id && m.packet.is_some() {
                            self.lists.pop_sent(&mut rec.list, queue);
                        }
                    }
                    // the conductor transmits every thread-round
                    Feedback::Silence => effects.flag("k-subsets: mbtf thread went silent"),
                    Feedback::Collision => effects.flag("k-subsets: collision cannot happen"),
                }
                if season.at(j, season_len) == season_len - 1 {
                    let pos = baton_season_end(baton, rec.baton_pos.into(), rec.season_big);
                    rec.baton_pos = pos as u16;
                    rec.season_big = false;
                }
            }
            Threads::Rrw { threads, sent } => {
                let sent = std::mem::take(sent);
                let rec = &mut threads[slot];
                let members = self.params.subset(t);
                match fb {
                    Feedback::Silence => {
                        rec.token = if rec.token as usize + 1 == kk { 0 } else { rec.token + 1 };
                        if members[rec.token as usize] as StationId == id {
                            rec.batch_marker = ctx.round + 1;
                        }
                    }
                    Feedback::Heard(m) => {
                        if sent && m.packet.is_some() {
                            self.lists.pop_sent(&mut rec.list, queue);
                        }
                    }
                    Feedback::Collision => effects.flag("k-subsets: collision cannot happen"),
                }
            }
        }
        Wake::Stay
    }
}

/// The `k-Subsets` algorithm of §6.
#[derive(Clone, Copy, Debug)]
pub struct KSubsets {
    /// Energy cap `k` (used exactly; no adjustment needed).
    pub k: usize,
    /// Per-thread broadcast subroutine.
    pub subroutine: ThreadSubroutine,
}

impl KSubsets {
    /// `k-Subsets` with the paper's MBTF subroutine (throughput-optimal).
    pub fn new(k: usize) -> Self {
        Self { k, subroutine: ThreadSubroutine::Mbtf }
    }

    /// The RRW variant with bounded latency below the threshold.
    pub fn with_rrw(k: usize) -> Self {
        Self { k, subroutine: ThreadSubroutine::Rrw }
    }

    /// The geometry used for `n` stations.
    pub fn params(&self, n: usize) -> KSubsetsParams {
        KSubsetsParams::new(n, self.k)
    }
}

impl Algorithm for KSubsets {
    fn name(&self) -> String {
        match self.subroutine {
            ThreadSubroutine::Mbtf => format!("k-Subsets(k={})", self.k),
            ThreadSubroutine::Rrw => format!("k-Subsets/RRW(k={})", self.k),
        }
    }

    fn class(&self) -> AlgorithmClass {
        match self.subroutine {
            ThreadSubroutine::Mbtf => AlgorithmClass::OBL_GEN_DIR,
            ThreadSubroutine::Rrw => AlgorithmClass::OBL_PP_DIR,
        }
    }

    fn required_cap(&self, _n: usize) -> usize {
        self.k
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        let params = Arc::new(KSubsetsParams::new(n, self.k));
        let protocols = params
            .threads_by_station()
            .into_iter()
            .enumerate()
            .map(|(id, threads)| {
                let station =
                    KSubsetsStation::new(Arc::clone(&params), id, threads, self.subroutine);
                Box::new(station) as Box<dyn Protocol>
            })
            .collect();
        BuiltAlgorithm {
            name: format!("{}(n={n})", self.name().split('(').next().expect("name")),
            protocols,
            wake: WakeMode::Scheduled(params),
            class: self.class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use emac_adversary::{LeastOnPair, RoundRobinLoad, Scripted, SingleTarget};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn schedule_is_the_subset_enumeration() {
        let p = KSubsetsParams::new(5, 2);
        assert_eq!(p.gamma(), 10);
        assert_eq!(p.on_set(5, 0), vec![0, 1]);
        assert_eq!(p.on_set(5, 1), vec![0, 2]);
        assert_eq!(p.on_set(5, 10), vec![0, 1]); // period gamma
        let threads = p.threads_by_station();
        assert_eq!(threads[4].len(), 4); // C(4,1)
        for (station, mine) in threads.iter().enumerate() {
            let containing: Vec<u32> =
                (0..p.gamma() as u32).filter(|&t| p.in_subset(t, station)).collect();
            assert_eq!(mine, &containing, "station {station}");
        }
    }

    #[test]
    fn flat_baton_order_matches_baton_list() {
        // The flat per-thread baton rows follow `BatonList` exactly: the
        // same conductor and the same order after every season, for random
        // member sets and random big/not-big announcement sequences.
        let mut rng = emac_sim::SmallRng::seed_from_u64(0xba70);
        let mut rotated = 0;
        for k in 2..=6usize {
            for _case in 0..40 {
                let mut members: Vec<StationId> = Vec::new();
                while members.len() < k {
                    let s = rng.random_range(0..24);
                    if !members.contains(&s) {
                        members.push(s);
                    }
                }
                members.sort_unstable();
                let mut list = emac_broadcast::BatonList::with_members(members.clone());
                let mut order: Vec<u32> = members.iter().map(|&s| s as u32).collect();
                let mut pos = 0;
                for season in 0..300 {
                    let big = rng.random_bool();
                    rotated += usize::from(big && pos > 0);
                    pos = baton_season_end(&mut order, pos, big);
                    list.season_end(big);
                    assert_eq!(order[pos] as StationId, list.conductor(), "k={k} season {season}");
                    let ids: Vec<StationId> = order.iter().map(|&s| s as StationId).collect();
                    assert_eq!(ids, list.order(), "k={k} season {season}");
                }
            }
        }
        assert!(rotated > 1_000, "big conductors must often sit past the front ({rotated})");
    }

    #[test]
    fn allocators_spread_each_destination_over_its_shared_threads() {
        // Every destination's packets rotate over exactly the threads both
        // endpoints share, least-loaded first, ties to the smallest thread.
        let (n, k) = (7usize, 3usize);
        let params = Arc::new(KSubsetsParams::new(n, k));
        let me = 2;
        let mine = params.threads_by_station().swap_remove(me);
        let mut station =
            KSubsetsStation::new(Arc::clone(&params), me, mine.clone(), ThreadSubroutine::Mbtf);
        let ctx = ProtocolCtx { id: me, n, cap: k, round: 0, phase: 0, cycle: 0 };
        let mut queue = IndexedQueue::new(n);
        let mut id = 0;
        for w in (0..n).filter(|&w| w != me) {
            let shared: Vec<u32> =
                mine.iter().copied().filter(|&t| params.in_subset(t, w)).collect();
            assert_eq!(shared.len() as u64, bounds::binomial(n as u64 - 2, k as u64 - 2));
            for lap in 0..3 {
                for &t in &shared {
                    let packet = emac_sim::Packet {
                        id: emac_sim::PacketId(id),
                        dest: w,
                        injected_round: 0,
                        origin: me,
                    };
                    let qp = queue.push(packet, 0);
                    station.on_enqueued(&ctx, &qp, emac_sim::EnqueueOrigin::Injected);
                    let slot = mine.binary_search(&t).unwrap();
                    let Threads::Mbtf { threads, .. } = &station.threads else { unreachable!() };
                    let back = station.lists.nodes[threads[slot].list.tail as usize].0;
                    assert_eq!(back, qp.handle(), "w={w} lap {lap} thread {t}");
                    id += 1;
                }
            }
        }
    }

    #[test]
    fn delivers_scripted_packet_directly() {
        let (n, k) = (5usize, 3usize);
        let gamma = bounds::binomial(n as u64, k as u64);
        let cfg = SimConfig::new(n, k).adversary_type(Rate::new(1, 10), Rate::integer(1));
        let adv = Box::new(Scripted::from_triples(&[(0, 0, 4)]));
        let mut sim = Simulator::new(cfg, KSubsets::new(k).build(n), adv);
        sim.run(gamma * (k as u64) * 10);
        assert_eq!(sim.metrics().delivered, 1);
        assert_eq!(sim.metrics().adoptions, 0);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn stable_at_exact_threshold_concentrated() {
        // Theorem 8 at rho = k(k-1)/(n(n-1)) exactly, all load on one pair.
        let (n, k) = (6u64, 3u64);
        let beta = 2u64;
        let rho = bounds::k_subsets_rate_threshold(n, k); // 6/30 = 1/5
        let cfg = SimConfig::new(n as usize, k as usize)
            .adversary_type(rho, Rate::integer(beta))
            .sample_every(512);
        let adv = Box::new(SingleTarget::new(0, 5));
        let mut sim = Simulator::new(cfg, KSubsets::new(k as usize).build(n as usize), adv);
        sim.run(250_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= k as usize);
        let bound = bounds::k_subsets_queue_bound(n, k, beta as f64);
        assert!(
            (sim.metrics().max_total_queued as f64) <= bound,
            "queues {} exceed bound {bound}",
            sim.metrics().max_total_queued
        );
        assert!(
            sim.metrics().queue_growth_slope() < 0.02,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
    }

    #[test]
    fn stable_at_exact_threshold_spread() {
        let (n, k) = (6u64, 3u64);
        let rho = bounds::k_subsets_rate_threshold(n, k);
        let cfg = SimConfig::new(n as usize, k as usize)
            .adversary_type(rho, Rate::integer(2))
            .sample_every(512);
        let adv = Box::new(RoundRobinLoad::new());
        let mut sim = Simulator::new(cfg, KSubsets::new(k as usize).build(n as usize), adv);
        sim.run(250_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().queue_growth_slope() < 0.02);
    }

    #[test]
    fn unstable_above_threshold_least_pair_flood() {
        // Theorem 9: above k(k-1)/(n(n-1)) the least co-scheduled pair blows up.
        let (n, k) = (6usize, 3usize);
        let alg = KSubsets::new(k);
        let built = alg.build(n);
        let schedule = match &built.wake {
            WakeMode::Scheduled(s) => Arc::clone(s),
            _ => unreachable!(),
        };
        let gamma = alg.params(n).gamma() as u64;
        let rho = bounds::k_subsets_rate_threshold(n as u64, k as u64).scaled(3, 2);
        let cfg = SimConfig::new(n, k).adversary_type(rho, Rate::integer(2)).sample_every(512);
        let adv = Box::new(LeastOnPair::new(&schedule, n, gamma));
        let mut sim = Simulator::new(cfg, built, adv);
        sim.run(150_000);
        assert!(
            sim.metrics().queue_growth_slope() > 0.01,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
    }

    #[test]
    fn rrw_variant_has_bounded_latency_below_threshold() {
        let (n, k) = (6u64, 3u64);
        let beta = 2u64;
        let rho = bounds::k_subsets_rate_threshold(n, k).scaled(3, 4);
        let cfg = SimConfig::new(n as usize, k as usize)
            .adversary_type(rho, Rate::integer(beta))
            .sample_every(512);
        let adv = Box::new(SingleTarget::new(0, 5));
        let alg = KSubsets::with_rrw(k as usize);
        let mut sim = Simulator::new(cfg, alg.build(n as usize), adv);
        sim.run(200_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        // paper remark: latency Theta(gamma * (n + beta)) for fixed adversaries;
        // generous constant for the shape check.
        let gamma = bounds::binomial(n, k) as f64;
        let bound = 20.0 * gamma * (n as f64 + beta as f64);
        let measured = sim.metrics().delay.max() as f64;
        assert!(measured <= bound, "latency {measured} exceeds shape bound {bound}");
        assert!(sim.run_until_drained(100_000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }

    #[test]
    fn mbtf_variant_drains_when_injections_stop() {
        let (n, k) = (6usize, 3usize);
        let rho = bounds::k_subsets_rate_threshold(6, 3);
        let cfg = SimConfig::new(n, k).adversary_type(rho, Rate::integer(4));
        let adv = Box::new(RoundRobinLoad::new());
        let mut sim = Simulator::new(cfg, KSubsets::new(k).build(n), adv);
        sim.run(50_000);
        assert!(sim.run_until_drained(200_000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }
}
