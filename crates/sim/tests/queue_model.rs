//! Model-based property test: `IndexedQueue` against a naive reference
//! implementation (a plain `Vec` in arrival order), driven by random but
//! seeded operation sequences. Every query the algorithms rely on must
//! agree after every operation, and every handle must resolve exactly
//! while its packet is queued: a handle to a packet that left — its slot
//! freed, or reused by a later push — never resolves again.

use emac_sim::{Handle, IndexedQueue, Packet, PacketId, SmallRng, StationId};

const N: usize = 8;

/// Where in one destination's list a targeted removal strikes.
#[derive(Clone, Copy, Debug)]
enum Pos {
    Head,
    Tail,
    Interior(usize),
}

#[derive(Clone, Debug)]
enum Op {
    /// Push a packet arriving `advance` rounds after the previous one.
    Push { dest: StationId, advance: u64 },
    /// Remove a packet picked anywhere in the arrival order.
    Remove { index: usize },
    /// Remove a packet at a chosen position of one destination's list.
    RemoveInDest { dest: StationId, pos: Pos },
    /// Remove through the handle of a packet that already left.
    RemoveStale { index: usize },
}

fn random_ops(rng: &mut SmallRng) -> Vec<Op> {
    let len = rng.random_range(1..160);
    (0..len)
        .map(|_| match rng.random_range(0..9) {
            // pushes three times as likely as removals
            0..6 => Op::Push { dest: rng.random_range(0..N), advance: rng.random_range_u64(0..4) },
            6 => Op::Remove { index: rng.random_range(0..64) },
            7 => {
                let pos = match rng.random_range(0..3) {
                    0 => Pos::Head,
                    1 => Pos::Tail,
                    _ => Pos::Interior(rng.random_range(0..64)),
                };
                Op::RemoveInDest { dest: rng.random_range(0..N), pos }
            }
            _ => Op::RemoveStale { index: rng.random_range(0..64) },
        })
        .collect()
}

/// The reference: packets in arrival order with their metadata and the
/// handles the queue gave them, plus the handles of every packet that
/// left.
#[derive(Default)]
struct Model {
    items: Vec<(Packet, u64, Handle)>, // (packet, arrived, handle), arrival order
    gone: Vec<Handle>,
}

impl Model {
    fn ids(&self, keep: impl Fn(&Packet, u64) -> bool) -> Vec<u64> {
        self.items.iter().filter(|&&(p, a, _)| keep(&p, a)).map(|(p, _, _)| p.id.0).collect()
    }
    fn iter_for(&self, d: StationId) -> Vec<u64> {
        self.ids(|p, _| p.dest == d)
    }
    fn iter_old(&self, marker: u64) -> Vec<u64> {
        self.ids(|_, a| a < marker)
    }
    fn old_for(&self, d: StationId, marker: u64) -> Vec<u64> {
        self.ids(|p, a| p.dest == d && a < marker)
    }
}

fn ids<'a>(it: impl Iterator<Item = &'a emac_sim::QueuedPacket>) -> Vec<u64> {
    it.map(|qp| qp.packet.id.0).collect()
}

/// Every query against the model, at markers before, inside and after the
/// arrivals seen so far (`clock` is the latest arrival round).
fn assert_agrees(q: &IndexedQueue, m: &Model, clock: u64) {
    assert_eq!(q.len(), m.items.len());
    assert_eq!(ids(q.iter()), m.ids(|_, _| true), "arrival order must match");
    assert_eq!(q.oldest().map(|qp| qp.packet.id.0), m.items.first().map(|(p, _, _)| p.id.0));
    assert_eq!(q.newest().map(|qp| qp.packet.id.0), m.items.last().map(|(p, _, _)| p.id.0));
    for &(p, arrived, h) in &m.items {
        let qp = q.get(h).unwrap_or_else(|| panic!("live handle {h:?} of {} resolves", p.id));
        assert_eq!((qp.packet, qp.arrived, qp.handle()), (p, arrived, h));
    }
    for &h in &m.gone {
        assert!(q.get(h).is_none(), "handle {h:?} of a packet that left must not resolve");
    }
    for d in 0..N {
        let want = m.iter_for(d);
        assert_eq!(ids(q.iter_for(d)), want, "iter_for({d})");
        assert_eq!(q.count_for(d), want.len());
        assert_eq!(q.oldest_for(d).map(|qp| qp.packet.id.0), want.first().copied());
    }
    for marker in [0, 1, clock / 3, clock / 2, clock, clock + 1, u64::MAX] {
        let old = m.iter_old(marker);
        assert_eq!(ids(q.iter_old(marker)), old, "iter_old({marker})");
        assert_eq!(q.count_old(marker), old.len());
        assert_eq!(q.oldest_old(marker).map(|qp| qp.packet.id.0), old.first().copied());
        for d in 0..N {
            let old_d = m.old_for(d, marker);
            assert_eq!(q.count_old_for(d, marker), old_d.len(), "count_old_for({d}, {marker})");
            assert_eq!(
                q.oldest_old_for(d, marker).map(|qp| qp.packet.id.0),
                old_d.first().copied()
            );
        }
    }
}

/// A queue and its model driven in step.
struct Harness {
    q: IndexedQueue,
    m: Model,
    next_id: u64,
    clock: u64, // arrivals must be non-decreasing
}

impl Harness {
    fn new() -> Self {
        Self { q: IndexedQueue::new(N), m: Model::default(), next_id: 0, clock: 0 }
    }

    fn push(&mut self, dest: StationId, advance: u64) -> Handle {
        self.clock += advance;
        let p = Packet { id: PacketId(self.next_id), dest, injected_round: self.clock, origin: 0 };
        self.next_id += 1;
        let h = self.q.push(p, self.clock).handle();
        self.m.items.push((p, self.clock, h));
        h
    }

    /// Remove the model's `at`-th packet (arrival order) through its
    /// handle; the handle must not remove anything a second time.
    fn remove_at(&mut self, at: usize) -> Handle {
        let (p, _, h) = self.m.items.remove(at);
        let removed = self.q.remove(h);
        assert_eq!(removed.map(|qp| (qp.packet, qp.handle())), Some((p, h)));
        assert!(self.q.remove(h).is_none(), "a handle removes its packet once");
        self.m.gone.push(h);
        h
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Push { dest, advance } => {
                self.push(dest, advance);
            }
            Op::Remove { index } => {
                if !self.m.items.is_empty() {
                    self.remove_at(index % self.m.items.len());
                }
            }
            Op::RemoveInDest { dest, pos } => {
                let list = self.m.iter_for(dest);
                if !list.is_empty() {
                    let at = match pos {
                        Pos::Head => 0,
                        Pos::Tail => list.len() - 1,
                        // strictly inside when the list has one
                        Pos::Interior(i) if list.len() > 2 => 1 + i % (list.len() - 2),
                        Pos::Interior(i) => i % list.len(),
                    };
                    let id = list[at];
                    let at = self.m.items.iter().position(|(p, _, _)| p.id.0 == id).unwrap();
                    self.remove_at(at);
                }
            }
            Op::RemoveStale { index } => {
                if !self.m.gone.is_empty() {
                    let h = self.m.gone[index % self.m.gone.len()];
                    assert!(self.q.remove(h).is_none(), "stale handle {h:?} removed a packet");
                }
            }
        }
    }
}

#[test]
fn queue_agrees_with_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0x0eee);
    for _case in 0..64 {
        let mut s = Harness::new();
        for op in random_ops(&mut rng) {
            s.apply(op);
            assert_agrees(&s.q, &s.m, s.clock);
        }
    }
}

/// Slots freed by one destination's packets are reused by others': fill,
/// then repeatedly remove a random packet and push one bound for a
/// different destination, so every recycled slot changes lists. The new
/// packet takes the freed slot, and the old handle to that slot no longer
/// resolves.
#[test]
fn recycled_slots_move_between_destination_lists() {
    let mut rng = SmallRng::seed_from_u64(0x0ef0);
    for _case in 0..16 {
        let mut s = Harness::new();
        for _ in 0..rng.random_range(1..24) {
            s.push(rng.random_range(0..N), rng.random_range_u64(0..3));
        }
        for _ in 0..200 {
            let at = rng.random_range(0..s.m.items.len());
            let dest = (s.m.items[at].0.dest + 1 + rng.random_range(0..N - 1)) % N;
            let old = s.remove_at(at);
            let new = s.push(dest, rng.random_range_u64(0..3));
            assert_eq!(new.slot(), old.slot(), "the freed slot is the next one pushed into");
            assert_ne!(new, old);
            assert!(s.q.get(old).is_none(), "the reused slot's old handle must not resolve");
            assert_agrees(&s.q, &s.m, s.clock);
        }
    }
}

/// count_below agrees with summing count_for.
#[test]
fn count_below_is_prefix_sum() {
    let mut rng = SmallRng::seed_from_u64(0x0eef);
    for _case in 0..64 {
        let len = rng.random_range(0..40);
        let dests: Vec<usize> = (0..len).map(|_| rng.random_range(0..6)).collect();
        let mut q = IndexedQueue::new(6);
        for (i, &d) in dests.iter().enumerate() {
            q.push(Packet { id: PacketId(i as u64), dest: d, injected_round: 0, origin: 0 }, 0);
        }
        for d in 0..6 {
            let expected: usize = (0..d).map(|x| q.count_for(x)).sum();
            assert_eq!(q.count_below(d), expected);
        }
    }
}
