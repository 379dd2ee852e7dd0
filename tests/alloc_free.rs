//! Counting-allocator proof that the engine's round loop is
//! allocation-free in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (scratch buffers sized, queue slabs at their high-water
//! marks), a window of thousands of `Simulator::step` calls must perform
//! **zero** allocations and zero deallocations — while packets are still
//! in flight, so the window exercises scheduling, queue scans,
//! transmission, and delivery, not an idle system. Case 7 bounds the
//! allocations and the live heap of building one wide system instead. The allocator also
//! tracks live heap bytes, and the last case bounds what a queue holding
//! Table 1's largest backlog keeps on the heap.
//!
//! This file holds a single `#[test]`: the test harness runs tests in the
//! same binary concurrently, so a second test's allocations would race the
//! counters. Keep it that way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use emac::prelude::*;
use emac_adversary::Scripted;
use emac_sim::{BuiltAlgorithm, IndexedQueue, NoInjections, Packet, PacketId, Simulator};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (wrapping: only differences are read).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Live heap bytes `make` leaves allocated in what it returns.
fn live_bytes_of<T>(make: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let made = make();
    (made, LIVE_BYTES.load(Ordering::SeqCst).wrapping_sub(before))
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `sim` for `rounds` steps and return (allocations, deallocations).
fn count_allocs(sim: &mut Simulator, rounds: u64) -> (u64, u64) {
    let a0 = ALLOCS.load(Ordering::SeqCst);
    let d0 = DEALLOCS.load(Ordering::SeqCst);
    sim.run(rounds);
    (ALLOCS.load(Ordering::SeqCst) - a0, DEALLOCS.load(Ordering::SeqCst) - d0)
}

#[test]
fn steady_state_steps_do_not_allocate() {
    // --- Case 1: loaded k-Clique system, packets in flight the whole
    // window. A burst of 400 packets is scripted at round 0 (the script
    // then replays to empty Vecs, which do not allocate); k-Clique routes
    // directly, at most one delivery per pair activation (every `m = 15`
    // rounds here), so the backlog outlasts warm-up plus the window.
    let (n, k) = (12usize, 4usize);
    const BURST: u64 = 400;
    let burst: Vec<(u64, usize, usize)> = (0..BURST).map(|_| (0u64, 0usize, 11usize)).collect();
    let cfg = emac_sim::SimConfig::new(n, k)
        .adversary_type(Rate::new(1, 8), Rate::integer(BURST))
        .sample_every(1 << 40); // sample only round 0: no series growth mid-window
    let mut sim =
        Simulator::new(cfg, KClique::new(k).build(n), Box::new(Scripted::from_triples(&burst)));

    // Warm-up: scratch buffers filled, every queue at its high-water mark
    // (the whole burst lands in station 0's queue at round 0).
    sim.run(512);
    assert!(sim.total_queued() > 0, "backlog must still be in flight after warm-up");

    let (allocs, deallocs) = count_allocs(&mut sim, 4_096);
    assert!(sim.total_queued() > 0, "window must have exercised a loaded system");
    assert!(sim.metrics().delivered > 0, "window must have exercised real deliveries");
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "steady-state loaded steps must not touch the allocator"
    );

    // The run stays correct after the measured window.
    assert!(sim.run_until_drained(200_000));
    assert_eq!(sim.metrics().delivered + sim.metrics().self_delivered, BURST);
    assert!(sim.violations().is_clean(), "{}", sim.violations());

    // --- Case 2: idle scheduled system (k-Cycle, empty queues, no
    // injections): the pure scheduling loop is also allocation-free.
    let cfg = emac_sim::SimConfig::new(16, 4)
        .adversary_type(Rate::new(1, 8), Rate::integer(2))
        .sample_every(1 << 40);
    let mut sim = Simulator::new(cfg, KCycle::new(4).build(16), Box::new(NoInjections));
    sim.run(256);
    let (allocs, deallocs) = count_allocs(&mut sim, 4_096);
    assert_eq!((allocs, deallocs), (0, 0), "idle scheduled steps must not touch the allocator");

    // --- Case 3: the uncoordinated duty-cycle baseline reshuffles its
    // pseudorandom schedule every round; the shuffle runs in reused
    // scratch, so even this schedule is allocation-free once warm.
    let cfg = emac_sim::SimConfig::new(16, 4)
        .adversary_type(Rate::new(1, 8), Rate::integer(2))
        .sample_every(1 << 40);
    let mut sim = Simulator::new(cfg, DutyCycle::new(4).build(16), Box::new(NoInjections));
    sim.run(256);
    let (allocs, deallocs) = count_allocs(&mut sim, 4_096);
    assert_eq!((allocs, deallocs), (0, 0), "duty-cycle schedule must reuse its shuffle scratch");

    // --- Case 4: rounds with a positive injection budget and a live
    // adversary. The adversary plans through `plan_into` into the engine's
    // reused buffer, and the stable load keeps every queue at or below the
    // high-water mark reached during warm-up, so even rounds that inject,
    // route, and deliver touch the allocator zero times.
    let rho = emac_core::bounds::k_cycle_rate_threshold(16, 4).scaled(4, 5);
    let cfg =
        emac_sim::SimConfig::new(16, 4).adversary_type(rho, Rate::integer(2)).sample_every(1 << 40);
    let mut sim = Simulator::new(cfg, KCycle::new(4).build(16), Box::new(UniformRandom::new(2)));
    sim.run(60_000);
    let injected_before = sim.metrics().injected;
    let delivered_before = sim.metrics().delivered;
    let (allocs, deallocs) = count_allocs(&mut sim, 4_096);
    assert!(
        sim.metrics().injected > injected_before + 100,
        "window must contain many positive-budget injecting rounds"
    );
    assert!(sim.metrics().delivered > delivered_before, "window must deliver packets");
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "injecting steady-state rounds must not touch the allocator"
    );
    assert!(sim.violations().is_clean(), "{}", sim.violations());

    // --- Case 5: protocols that attach control bits. k-Subsets' MBTF
    // threads send a one-bit control string every thread-round, Count-Hop
    // sends 48- and 96-bit count and offset messages, and Orchestra's
    // conductors announce bigness and teach schedules; the bits live
    // inline in `Message`, so loaded rounds that send them allocate
    // nothing either.
    let systems: [(&str, usize, usize, Rate, BuiltAlgorithm); 4] = [
        (
            "k-Subsets",
            8,
            3,
            emac_core::bounds::k_subsets_rate_threshold(8, 3).scaled(4, 5),
            KSubsets::new(3).build(8),
        ),
        ("Count-Hop", 6, 2, Rate::new(1, 4), CountHop::new().build(6)),
        ("Orchestra n=6", 6, 3, Rate::new(1, 4), Orchestra::new().build(6)),
        ("Orchestra n=8", 8, 3, Rate::new(1, 4), Orchestra::new().build(8)),
    ];
    for (name, n, cap, rho, built) in systems {
        let cfg = emac_sim::SimConfig::new(n, cap)
            .adversary_type(rho, Rate::integer(2))
            .sample_every(1 << 40);
        let mut sim = Simulator::new(cfg, built, Box::new(UniformRandom::new(5)));
        sim.run(60_000);
        let injected_before = sim.metrics().injected;
        let delivered_before = sim.metrics().delivered;
        let bits_before = sim.metrics().control_bits_total;
        let (allocs, deallocs) = count_allocs(&mut sim, 4_096);
        assert!(
            sim.metrics().injected > injected_before + 100,
            "{name}: window must contain many injecting rounds"
        );
        assert!(sim.metrics().delivered > delivered_before, "{name}: window must deliver");
        assert!(
            sim.metrics().control_bits_total > bits_before,
            "{name}: window must send control bits"
        );
        assert_eq!(
            (allocs, deallocs),
            (0, 0),
            "{name}: loaded rounds with control bits must not touch the allocator"
        );
        assert!(sim.violations().is_clean(), "{name}: {}", sim.violations());
    }

    // --- Case 6: observability stays out of the round loop. An armed
    // Observer (event log + progress line) exists for the whole window,
    // but by construction it is only touched at row/probe boundaries —
    // so steady-state rounds still allocate nothing, while the engine's
    // phase-timer hooks (plain u64 counters) keep advancing per round.
    let cfg =
        emac_sim::SimConfig::new(16, 4).adversary_type(rho, Rate::integer(2)).sample_every(1 << 40);
    let mut sim = Simulator::new(cfg, KCycle::new(4).build(16), Box::new(UniformRandom::new(3)));
    sim.run(60_000);
    let log_path =
        std::env::temp_dir().join(format!("emac-alloc-free-{}.jsonl", std::process::id()));
    let log = emac_core::obs::EventLog::create(&log_path).unwrap();
    let mut observer = emac_core::obs::Observer::new()
        .with_log(log)
        .with_progress(emac_core::obs::Progress::new(emac_core::obs::RunKind::Campaign, 1));
    assert!(observer.is_armed());
    let hooks_before = sim.hooks().rounds;
    let (allocs, deallocs) = count_allocs(&mut sim, 4_096);
    assert_eq!((allocs, deallocs), (0, 0), "armed observability must cost the round loop nothing");
    assert_eq!(sim.hooks().rounds, hooks_before + 4_096, "phase-timer hooks advance every round");
    assert!(sim.hooks().wake_table_rounds > 0, "k-cycle rounds wake via the schedule table");
    // The boundary is where observability spends: the wall clock is read
    // and the row event rendered outside the measured window.
    let wall_us = observer.boundary_us();
    observer.record(&emac_core::obs::ObsEvent::Row {
        index: 0,
        rounds: 4_096,
        clean: true,
        wall_us,
    });
    observer.flush().unwrap();
    let _ = std::fs::remove_file(&log_path);

    // --- Case 7: building a wide k-Subsets system. At n = 128, k = 2 there
    // are C(128, 2) = 8128 threads, 127 per station; the subsets, the
    // per-thread baton lists and the per-destination allocators are flat
    // arrays, so the build and the simulator's construction cost a few
    // allocations per station, not per thread. A thread is one 16-byte
    // MBTF record plus its `u32` baton row and its share of the allocator,
    // and no queue holds a packet yet, so none holds its per-destination
    // lists: the system with its simulator holds about 0.99 MB of heap.
    let n = 128;
    let cfg = emac_sim::SimConfig::new(n, 2);
    let a0 = ALLOCS.load(Ordering::SeqCst);
    let (sim, held) =
        live_bytes_of(|| Simulator::new(cfg, KSubsets::new(2).build(n), Box::new(NoInjections)));
    let allocs = ALLOCS.load(Ordering::SeqCst) - a0;
    assert!(allocs <= 10 * n as u64, "k-Subsets n={n} k=2 build made {allocs} allocations");
    assert!(held <= 1_000_000, "k-Subsets n={n} k=2 system holds {held} heap bytes, over 1.0 MB");
    drop(sim);

    // --- Case 8: what a queue keeps on the heap. Table 1's diverging rows
    // hold backlogs of up to 35,014 packets, so a queue of 35,000 must
    // hold its slab — a vector of 64-byte slots, grown by the same pushes
    // — plus one list head per destination (head, tail and length, three
    // `u32`s), which its first push allocates, and nothing per packet
    // besides its slot: no index by packet id. An empty queue holds
    // nothing.
    const BACKLOG: u64 = 35_000;
    const LIST_HEAD: u64 = 12;
    let n = 9;
    let (_, empty) = live_bytes_of(|| IndexedQueue::new(n));
    assert_eq!(empty, 0, "an empty queue holds {empty} heap bytes");
    let lists = n as u64 * LIST_HEAD;
    let (slab_twin, slab) = live_bytes_of(|| {
        let mut twin: Vec<[u8; 64]> = Vec::new();
        (0..BACKLOG).for_each(|_| twin.push([0; 64]));
        twin
    });
    let (queue, held) = live_bytes_of(|| {
        let mut q = IndexedQueue::new(n);
        for id in 0..BACKLOG {
            let dest = 1 + id as usize % (n - 1);
            q.push(Packet { id: PacketId(id), dest, injected_round: id, origin: 0 }, id);
        }
        q
    });
    assert_eq!(queue.len(), BACKLOG as usize);
    assert!(
        held <= slab + lists,
        "a queue of {BACKLOG} packets holds {held} heap bytes, over its slab ({slab}) plus \
         its per-destination lists ({lists})"
    );
    drop((queue, slab_twin));
}
