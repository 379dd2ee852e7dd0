//! Timing and counting delegates wrapped around the library's extension
//! traits. Each forwards every call unchanged, so a run through them
//! writes the same bytes as a run without them (the traced run checks it).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use emac::registry::Registry;
use emac_core::campaign::{ScenarioFactory, ScenarioSpec};
use emac_core::frontier::{MapRow, MapSink};
use emac_core::Algorithm;
use emac_sim::{
    Action, Adversary, Effects, EnqueueOrigin, Feedback, IndexedQueue, Injection, OnSchedule,
    Protocol, ProtocolCtx, QueuedPacket, Round, ScheduleTable, SystemView, Wake,
};

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A [`ScenarioFactory`] delegate over the registry that counts the lanes
/// it builds and the rounds their adversaries plan, and optionally logs
/// every lane's spec in call order.
#[derive(Debug, Default)]
pub struct CountingFactory {
    /// Rounds simulated, counted as adversary planning calls: one per
    /// round while injections are on, and frontier probes never drain.
    /// Statistics read after the run, so `Relaxed` suffices.
    rounds: Arc<AtomicU64>,
    lanes: AtomicU64,
    /// Lane specs (seed included) in the order the executor built them.
    log: Option<Mutex<Vec<ScenarioSpec>>>,
}

impl CountingFactory {
    /// A counting factory that also logs every lane's spec.
    pub fn logging() -> Self {
        Self { log: Some(Mutex::default()), ..Self::default() }
    }

    /// Rounds planned by every adversary dropped so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Relaxed)
    }

    /// Lanes built so far.
    pub fn lanes(&self) -> u64 {
        self.lanes.load(Relaxed)
    }

    /// The logged lane specs, emptying the log.
    pub fn take_lanes(&self) -> Vec<ScenarioSpec> {
        self.log
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock().expect("lane log poisoned")))
            .unwrap_or_default()
    }
}

impl ScenarioFactory for CountingFactory {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        self.lanes.fetch_add(1, Relaxed);
        if let Some(log) = &self.log {
            log.lock().expect("lane log poisoned").push(spec.clone());
        }
        Registry::make_algorithm(spec)
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        let inner = Registry::make_adversary(spec, schedule)?;
        Ok(Box::new(CountedAdversary { inner, total: Arc::clone(&self.rounds), rounds: 0 }))
    }
}

/// Nanoseconds to expand `schedule` into the table `Simulator::new`
/// builds from it (the result is discarded).
pub fn time_table(schedule: &dyn OnSchedule, n: usize) -> u64 {
    let started = Instant::now();
    std::hint::black_box(ScheduleTable::build(schedule, n));
    ns(started.elapsed())
}

/// An [`Adversary`] delegate counting planning calls (= rounds).
struct CountedAdversary {
    inner: Box<dyn Adversary>,
    total: Arc<AtomicU64>,
    rounds: u64,
}

impl Adversary for CountedAdversary {
    fn plan(&mut self, round: Round, budget: usize, view: &SystemView<'_>) -> Vec<Injection> {
        let mut out = Vec::new();
        self.plan_into(round, budget, view, &mut out);
        out
    }

    fn plan_into(
        &mut self,
        round: Round,
        budget: usize,
        view: &SystemView<'_>,
        out: &mut Vec<Injection>,
    ) {
        self.rounds += 1;
        self.inner.plan_into(round, budget, view, out);
    }
}

impl Drop for CountedAdversary {
    fn drop(&mut self) {
        self.total.fetch_add(self.rounds, Relaxed);
    }
}

/// A [`MapSink`] delegate timing row serialization.
pub struct TimedMapSink<S: MapSink> {
    pub inner: S,
    pub serialize: Duration,
}

impl<S: MapSink> TimedMapSink<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, serialize: Duration::ZERO }
    }
}

impl<S: MapSink> MapSink for TimedMapSink<S> {
    fn accept(&mut self, row: &MapRow) -> Result<(), String> {
        let started = Instant::now();
        let out = self.inner.accept(row);
        self.serialize += started.elapsed();
        out
    }

    fn sync(&mut self) -> Result<(), String> {
        self.inner.sync()
    }

    fn finish(&mut self) -> Result<(), String> {
        self.inner.finish()
    }
}

/// Protocol callbacks between two clock reads of every sampled call.
const SAMPLE_EVERY: u64 = 16;

/// Sampled protocol-callback time of one lane's stations.
#[derive(Debug, Default)]
pub struct ProtocolClock {
    calls: AtomicU64,
    samples: AtomicU64,
    sampled_ns: AtomicU64,
}

impl ProtocolClock {
    /// Estimated nanoseconds spent inside protocol callbacks: the sampled
    /// time, less the clock's own cost per sample, scaled to every call.
    pub fn estimate_ns(&self, clock_overhead_ns: f64) -> f64 {
        let samples = self.samples.load(Relaxed);
        if samples == 0 {
            return 0.0;
        }
        let sampled = self.sampled_ns.load(Relaxed) as f64 - samples as f64 * clock_overhead_ns;
        sampled.max(0.0) * self.calls.load(Relaxed) as f64 / samples as f64
    }
}

/// Wrap every station's protocol in a sampled timer feeding `clock`.
pub fn time_protocols(
    protocols: Vec<Box<dyn Protocol>>,
    clock: &Arc<ProtocolClock>,
) -> Vec<Box<dyn Protocol>> {
    protocols
        .into_iter()
        .map(|inner| {
            Box::new(TimedProtocol { inner, clock: Arc::clone(clock), calls: 0, samples: 0, ns: 0 })
                as Box<dyn Protocol>
        })
        .collect()
}

/// Times one callback in [`SAMPLE_EVERY`]; the rest pass straight through.
struct TimedProtocol {
    inner: Box<dyn Protocol>,
    clock: Arc<ProtocolClock>,
    calls: u64,
    samples: u64,
    ns: u64,
}

impl TimedProtocol {
    #[inline]
    fn call<T>(&mut self, f: impl FnOnce(&mut dyn Protocol) -> T) -> T {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(self.inner.as_mut());
        }
        let started = Instant::now();
        let out = f(self.inner.as_mut());
        self.ns += ns(started.elapsed());
        self.samples += 1;
        out
    }
}

impl Protocol for TimedProtocol {
    fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
        self.call(|p| p.first_wake(ctx))
    }

    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        self.call(|p| p.act(ctx, queue))
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        self.call(|p| p.on_feedback(ctx, queue, fb, effects))
    }

    fn on_enqueued(&mut self, ctx: &ProtocolCtx, qp: &QueuedPacket, origin: EnqueueOrigin) {
        self.call(|p| p.on_enqueued(ctx, qp, origin))
    }
}

impl Drop for TimedProtocol {
    fn drop(&mut self) {
        self.clock.calls.fetch_add(self.calls, Relaxed);
        self.clock.samples.fetch_add(self.samples, Relaxed);
        self.clock.sampled_ns.fetch_add(self.ns, Relaxed);
    }
}

/// Median cost of one `Instant::now` / `elapsed` pair, in nanoseconds —
/// the bias every sampled callback time carries.
pub fn clock_overhead_ns() -> f64 {
    let mut costs: Vec<u64> = (0..2_001)
        .map(|_| {
            let started = Instant::now();
            ns(std::hint::black_box(started).elapsed())
        })
        .collect();
    costs.sort_unstable();
    costs[costs.len() / 2] as f64
}
