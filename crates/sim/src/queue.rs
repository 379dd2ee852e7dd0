//! Per-station packet queues.
//!
//! A station's queue is its private memory of injected and adopted packets
//! (paper §2). A station may transmit queued packets in arbitrary order and
//! can scan its queue in negligible time, so the queue offers arrival-order
//! iteration, per-destination counting, and lookup and removal by handle.
//!
//! The queue is owned by the simulator, not by the algorithm: the engine is
//! the single source of truth for packet custody, which is what lets it
//! verify that every packet is delivered exactly once and never duplicated
//! or lost. Algorithms receive `&IndexedQueue` views.
//!
//! # Representation
//!
//! Queue operations sit on the engine's per-round hot path, so the queue is
//! a *slab*: packets live in a `Vec` of 64-byte slots, each threaded with
//! `u32` links into two intrusive doubly-linked lists — the queue's arrival
//! order, and the arrival order of the packets bound for the same
//! destination (one head/tail/length entry per destination). Removed slots
//! are recycled through a free list. There is no index by packet id: once
//! the slab has grown to the execution's high-water queue length, no queue
//! operation allocates, and the queue's memory is the slab plus the
//! per-destination lists. Those lists, one per station of the system, are
//! allocated by the queue's first push, so a queue that never held a
//! packet holds no heap memory and reads as empty for every destination.
//!
//! # Handles
//!
//! Every queued packet is named by a [`Handle`]: its slot index and the
//! arrival `seq` the queue stamped on it. Sequence numbers are never
//! reused, so the `seq` is the handle's generation: a handle resolves only
//! while its packet sits in the slot. Once the packet leaves, the freed
//! slot reads as dead, and a later packet reusing the slot carries a new
//! `seq`; either way the old handle no longer resolves. Protocols keep
//! handles to the packets they plan to send, and a transmitted
//! [`Message`](crate::Message) carries the handle of its packet, which is
//! how the engine checks custody with one slot probe.
//!
//! **Arrival invariant.** [`IndexedQueue::push`] asserts that no packet
//! arrives before the newest packet already queued, so both lists are
//! sorted by `arrived` as well as by `seq`. The packets that arrived
//! strictly before a marker round ("old" packets) are therefore a prefix
//! of each list, and the old-packet queries stop at the first packet that
//! is not old. The engine pushes in its current round, which never
//! decreases.
//!
//! Costs, for a queue of `len` packets of which `old` are old, `len_d` are
//! bound for `dest` and `old_d` are both:
//!
//! | operation                                        | cost                  |
//! |--------------------------------------------------|-----------------------|
//! | `push`                                           | O(1)                  |
//! | `get`, `remove` (by handle)                      | O(1), one slot probe  |
//! | `len`, `count_for`, `oldest`, `newest`           | O(1)                  |
//! | `oldest_for`, `oldest_old`, `oldest_old_for`     | O(1)                  |
//! | `iter_old`, `count_old`                          | O(old + 1)            |
//! | `iter_for`                                       | O(len_d)              |
//! | `count_old_for`                                  | O(old_d + 1)          |
//! | `count_below(dest)`                              | O(dest)               |
//! | `iter`                                           | O(len)                |

use crate::packet::{Packet, Round, StationId};

/// Names one queued packet: its slot in the station's queue and the
/// arrival `seq` the queue gave it. Obtained from
/// [`QueuedPacket::handle`]; resolves through [`IndexedQueue::get`] only
/// while that packet is still queued in that slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handle {
    slot: u32,
    seq: u32,
}

impl Handle {
    /// A handle that never resolves: the handle of a light message.
    pub(crate) const NONE: Handle = Handle { slot: NIL, seq: DEAD };

    /// The slot index: below the queue's high-water length, so it keys a
    /// dense per-slot side table.
    #[inline]
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

/// A packet at rest in a station's queue, with arrival bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// Round the packet arrived at this station (injection or adoption).
    pub arrived: Round,
    /// Arrival sequence number local to this station; strictly increasing,
    /// never reused, breaks ties between packets arriving in the same round.
    pub seq: u32,
    /// The slab slot holding the packet.
    slot: u32,
}

impl QueuedPacket {
    /// The handle naming this packet in its station's queue.
    #[inline]
    pub fn handle(&self) -> Handle {
        Handle { slot: self.slot, seq: self.seq }
    }
}

/// Sentinel "no slot" index for the intrusive links; slot indices stay
/// below it.
const NIL: u32 = u32::MAX;

/// The `seq` of a freed slot. The queue never issues it, so no handle
/// resolves to a freed slot.
const DEAD: u32 = u32::MAX;

/// One slab slot: a queued packet threaded into the arrival-order list
/// (`prev`/`next`) and its destination's list (`dprev`/`dnext`). Freed
/// slots have `qp.seq == DEAD` and reuse `next` as the free-list link;
/// only slots reachable from `head` are live.
#[derive(Clone, Copy, Debug)]
struct Slot {
    qp: QueuedPacket,
    prev: u32,
    next: u32,
    dprev: u32,
    dnext: u32,
}

// `u32` links, slot index and `seq` keep a slot within one cache line.
const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

/// Ends and length of one destination's list.
#[derive(Clone, Copy, Debug)]
struct DestList {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_LIST: DestList = DestList { head: NIL, tail: NIL, len: 0 };

/// Arrival-ordered queue with per-destination lists, O(1) push and
/// removal by handle, and steady-state allocation-free operation.
#[derive(Clone, Debug)]
pub struct IndexedQueue {
    slots: Vec<Slot>,
    /// Head of the free list (threaded through `Slot::next`).
    free_head: u32,
    /// Oldest live slot (front of the arrival order).
    head: u32,
    /// Newest live slot (back of the arrival order).
    tail: u32,
    len: usize,
    /// One list per destination, allocated by the first push; until then
    /// empty, and every destination's list reads as empty.
    dests: Box<[DestList]>,
    /// Stations in the system: the number of destination lists.
    n: usize,
    next_seq: u32,
}

impl Default for IndexedQueue {
    fn default() -> Self {
        Self::new(0)
    }
}

impl IndexedQueue {
    /// An empty queue for a system of `n` stations.
    pub fn new(n: usize) -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            dests: Box::default(),
            n,
            next_seq: 0,
        }
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queued packet `h` names, if it is still queued here.
    #[inline]
    pub fn get(&self, h: Handle) -> Option<&QueuedPacket> {
        self.slots.get(h.slot as usize).map(|s| &s.qp).filter(|qp| qp.seq == h.seq)
    }

    /// The list of the packets bound for `dest`: empty before the first
    /// push allocates the lists.
    #[inline]
    fn list(&self, dest: StationId) -> DestList {
        match self.dests.get(dest) {
            Some(&list) => list,
            None => {
                assert!(dest < self.n, "destination {dest} out of range for {} stations", self.n);
                EMPTY_LIST
            }
        }
    }

    /// Packets destined to `dest` currently queued.
    #[inline]
    pub fn count_for(&self, dest: StationId) -> usize {
        self.list(dest).len as usize
    }

    /// Packets destined to stations with a name strictly below `dest`
    /// (used by Adjust-Window gossip).
    pub fn count_below(&self, dest: StationId) -> usize {
        assert!(dest <= self.n, "destination {dest} out of range for {} stations", self.n);
        self.dests.get(..dest).map_or(0, |lists| lists.iter().map(|l| l.len as usize).sum())
    }

    /// Iterate over queued packets in arrival order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &QueuedPacket> {
        Links::<false> { slots: &self.slots, cur: self.head }
    }

    /// Iterate in arrival order over packets destined to `dest`.
    #[inline]
    pub fn iter_for(&self, dest: StationId) -> impl Iterator<Item = &QueuedPacket> + '_ {
        Links::<true> { slots: &self.slots, cur: self.list(dest).head }
    }

    /// Iterate in arrival order over packets that arrived strictly before
    /// `marker` (the usual "old packet" predicate of the paper's algorithms).
    #[inline]
    pub fn iter_old(&self, marker: Round) -> impl Iterator<Item = &QueuedPacket> + '_ {
        self.iter().take_while(move |qp| qp.arrived < marker)
    }

    /// Count packets that arrived strictly before `marker`.
    pub fn count_old(&self, marker: Round) -> usize {
        self.iter_old(marker).count()
    }

    /// Count packets destined to `dest` that arrived strictly before `marker`.
    pub fn count_old_for(&self, dest: StationId, marker: Round) -> usize {
        self.iter_for(dest).take_while(|qp| qp.arrived < marker).count()
    }

    /// The earliest-arrived packet.
    #[inline]
    pub fn oldest(&self) -> Option<&QueuedPacket> {
        self.qp_at(self.head)
    }

    /// The latest-arrived packet.
    #[inline]
    pub fn newest(&self) -> Option<&QueuedPacket> {
        self.qp_at(self.tail)
    }

    /// The earliest-arrived packet destined to `dest`.
    #[inline]
    pub fn oldest_for(&self, dest: StationId) -> Option<&QueuedPacket> {
        self.qp_at(self.list(dest).head)
    }

    /// The earliest-arrived packet that arrived strictly before `marker`.
    #[inline]
    pub fn oldest_old(&self, marker: Round) -> Option<&QueuedPacket> {
        self.oldest().filter(|qp| qp.arrived < marker)
    }

    /// The earliest-arrived old packet destined to `dest`.
    #[inline]
    pub fn oldest_old_for(&self, dest: StationId, marker: Round) -> Option<&QueuedPacket> {
        self.oldest_for(dest).filter(|qp| qp.arrived < marker)
    }

    #[inline]
    fn qp_at(&self, idx: u32) -> Option<&QueuedPacket> {
        (idx != NIL).then(|| &self.slots[idx as usize].qp)
    }

    /// Enqueue a packet arriving in round `arrived`; the returned copy's
    /// [`handle`](QueuedPacket::handle) names it.
    ///
    /// Queue mutation is the engine's job during simulation — protocols only
    /// ever see `&IndexedQueue` — but the methods are public so the data
    /// structure can be tested and reused standalone.
    ///
    /// # Panics
    ///
    /// If `arrived` is earlier than the newest queued packet's arrival (the
    /// old-packet queries rely on arrival order), or if the queue would
    /// outgrow the `u32` slot or arrival-sequence range.
    pub fn push(&mut self, packet: Packet, arrived: Round) -> QueuedPacket {
        if let Some(newest) = self.newest() {
            assert!(
                arrived >= newest.arrived,
                "packet {} arrives in round {arrived}, before the newest queued packet \
                 (round {}): queue arrivals must not decrease",
                packet.id,
                newest.arrived
            );
        }
        if self.dests.is_empty() {
            self.dests = vec![EMPTY_LIST; self.n].into_boxed_slice();
        }
        let seq = self.next_seq;
        assert!(seq != DEAD, "station queue outgrew the u32 range of its arrival sequence");
        self.next_seq = seq + 1;
        let reuse = self.free_head != NIL;
        let idx = if reuse {
            self.free_head
        } else {
            u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("station queue outgrew the u32 slot range of its links")
        };
        let qp = QueuedPacket { packet, arrived, seq, slot: idx };
        let dprev = self.dests[packet.dest].tail;
        let slot = Slot { qp, prev: self.tail, next: NIL, dprev, dnext: NIL };
        if reuse {
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
        } else {
            self.slots.push(slot);
        }
        if self.tail != NIL {
            self.slots[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        let list = &mut self.dests[packet.dest];
        if list.tail != NIL {
            self.slots[list.tail as usize].dnext = idx;
        } else {
            list.head = idx;
        }
        list.tail = idx;
        list.len += 1;
        self.len += 1;
        qp
    }

    /// Remove the packet `h` names, if it is still queued here.
    pub fn remove(&mut self, h: Handle) -> Option<QueuedPacket> {
        let qp = *self.get(h)?;
        let idx = h.slot;
        let Slot { prev, next, dprev, dnext, .. } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let list = &mut self.dests[qp.packet.dest];
        if dprev != NIL {
            self.slots[dprev as usize].dnext = dnext;
        } else {
            list.head = dnext;
        }
        if dnext != NIL {
            self.slots[dnext as usize].dprev = dprev;
        } else {
            list.tail = dprev;
        }
        list.len -= 1;
        let freed = &mut self.slots[idx as usize];
        freed.qp.seq = DEAD;
        freed.next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        Some(qp)
    }
}

/// Walks one of the intrusive lists: the arrival order, or with `DEST` set
/// a destination's list.
struct Links<'a, const DEST: bool> {
    slots: &'a [Slot],
    cur: u32,
}

impl<'a, const DEST: bool> Iterator for Links<'a, DEST> {
    type Item = &'a QueuedPacket;

    fn next(&mut self) -> Option<&'a QueuedPacket> {
        if self.cur == NIL {
            return None;
        }
        let slot = &self.slots[self.cur as usize];
        self.cur = if DEST { slot.dnext } else { slot.next };
        Some(&slot.qp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    fn pkt(id: u64, dest: StationId) -> Packet {
        Packet { id: PacketId(id), dest, injected_round: 0, origin: 0 }
    }

    /// Four packets and their handles.
    fn filled() -> (IndexedQueue, [Handle; 4]) {
        let mut q = IndexedQueue::new(4);
        let hs = [
            q.push(pkt(0, 1), 0).handle(),
            q.push(pkt(1, 2), 0).handle(),
            q.push(pkt(2, 1), 3).handle(),
            q.push(pkt(3, 3), 5).handle(),
        ];
        (q, hs)
    }

    fn ids(q: &IndexedQueue) -> Vec<u64> {
        q.iter().map(|qp| qp.packet.id.0).collect()
    }

    #[test]
    fn arrival_order_is_preserved() {
        let (q, _) = filled();
        assert_eq!(ids(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_destination_counts() {
        let (q, _) = filled();
        assert_eq!(q.count_for(1), 2);
        assert_eq!(q.count_for(2), 1);
        assert_eq!(q.count_for(0), 0);
        assert_eq!(q.count_below(2), 2);
        assert_eq!(q.count_below(3), 3);
    }

    #[test]
    fn old_packet_predicates() {
        let (q, _) = filled();
        assert_eq!(q.count_old(3), 2);
        assert_eq!(q.count_old_for(1, 4), 2);
        assert_eq!(q.count_old_for(1, 1), 1);
        assert_eq!(q.oldest_old(1).unwrap().packet.id.0, 0);
        assert_eq!(q.oldest_old_for(1, 4).unwrap().packet.id.0, 0);
        assert!(q.oldest_old(0).is_none());
    }

    #[test]
    fn remove_updates_everything() {
        let (mut q, hs) = filled();
        let removed = q.remove(hs[0]).unwrap();
        assert_eq!(removed.packet.dest, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.count_for(1), 1);
        assert!(q.get(hs[0]).is_none(), "a freed slot reads as dead");
        assert!(q.remove(hs[0]).is_none());
        assert_eq!(q.oldest().unwrap().packet.id.0, 1);
        assert_eq!(q.oldest_for(1).unwrap().packet.id.0, 2);
    }

    #[test]
    fn seq_is_monotonic_across_removals() {
        let mut q = IndexedQueue::new(2);
        let h = q.push(pkt(0, 1), 0).handle();
        q.remove(h);
        let qp = q.push(pkt(1, 1), 1);
        assert_eq!(qp.seq, 1);
    }

    #[test]
    fn get_by_handle() {
        let (q, hs) = filled();
        assert_eq!(q.get(hs[2]).unwrap().arrived, 3);
        assert_eq!(q.get(hs[2]).unwrap().handle(), hs[2]);
        assert!(q.get(Handle::NONE).is_none());
    }

    #[test]
    fn a_reused_slot_does_not_resolve_the_old_handle() {
        let (mut q, hs) = filled();
        let old = q.remove(hs[1]).unwrap();
        let new = q.push(pkt(9, 2), 6);
        assert_eq!(new.handle().slot(), old.handle().slot(), "the freed slot is reused");
        assert!(q.get(hs[1]).is_none(), "the old handle names a packet that left");
        assert!(q.remove(hs[1]).is_none());
        assert_eq!(q.len(), 4);
        assert_eq!(q.get(new.handle()).unwrap().packet.id.0, 9);
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        // Churn far more packets than the peak queue length: the slab must
        // stay at the high-water mark, recycling freed slots.
        let mut q = IndexedQueue::new(2);
        let mut live: std::collections::VecDeque<Handle> =
            (0..4).map(|id| q.push(pkt(id, 1), id).handle()).collect();
        for id in 4..1_000 {
            q.remove(live.pop_front().unwrap()).expect("oldest still queued");
            live.push_back(q.push(pkt(id, 1), id).handle());
            assert_eq!(q.len(), 4);
        }
        assert_eq!(q.slots.len(), 4, "slab must not grow past the high-water mark");
        assert_eq!(ids(&q), vec![996, 997, 998, 999], "arrival order survives recycling");
        assert_eq!(q.newest().unwrap().packet.id.0, 999);
    }

    #[test]
    fn interior_removal_keeps_links_consistent() {
        let (mut q, hs) = filled();
        q.remove(hs[1]).unwrap(); // interior
        q.remove(hs[3]).unwrap(); // tail
        assert_eq!(ids(&q), vec![0, 2]);
        assert_eq!(q.newest().unwrap().packet.id.0, 2);
        q.push(pkt(9, 3), 9);
        assert_eq!(ids(&q), vec![0, 2, 9]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let (mut q, hs) = filled();
        for h in hs {
            q.remove(h).unwrap();
        }
        assert!(q.is_empty());
        assert!(q.oldest().is_none());
        assert!(q.newest().is_none());
        assert_eq!(q.iter().count(), 0);
        let qp = q.push(pkt(7, 2), 11);
        assert_eq!(qp.seq, 4, "sequence numbers keep increasing");
        assert_eq!(q.oldest().unwrap().packet.id.0, 7);
    }

    #[test]
    fn a_queue_allocates_its_lists_on_its_first_push() {
        let mut q = IndexedQueue::new(4);
        assert!(q.dests.is_empty(), "an empty queue holds no lists");
        for dest in 0..4 {
            assert_eq!(q.count_for(dest), 0);
            assert_eq!(q.count_old_for(dest, 9), 0);
            assert_eq!(q.iter_for(dest).count(), 0);
            assert!(q.oldest_for(dest).is_none());
            assert!(q.oldest_old_for(dest, 9).is_none());
        }
        assert_eq!(q.count_below(4), 0);
        let h = q.push(pkt(0, 3), 0).handle();
        assert_eq!(q.dests.len(), 4, "the first push allocates one list per station");
        assert_eq!((q.count_for(3), q.count_below(4), q.count_below(3)), (1, 1, 0));
        q.remove(h);
        assert_eq!(q.dests.len(), 4, "an emptied queue keeps its lists");
        assert_eq!(q.count_for(3), 0);
    }

    #[test]
    #[should_panic(expected = "destination 4 out of range for 4 stations")]
    fn an_empty_queue_refuses_a_destination_out_of_range() {
        IndexedQueue::new(4).count_for(4);
    }

    #[test]
    #[should_panic(expected = "queue arrivals must not decrease")]
    fn out_of_order_push_is_refused() {
        let (mut q, _) = filled(); // newest packet arrived in round 5
        q.push(pkt(4, 2), 4);
    }
}
