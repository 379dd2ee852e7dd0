//! The one worker pool behind campaign rows (whose commit contract
//! [`Campaign::run_subset`](super::Campaign::run_subset) states) and
//! frontier lanes. Workers share one [`Queue`] under a lock: each pops a
//! unit, runs it without the lock, and parks the result. The calling thread
//! is the only committer: it takes parked results, hands them to the sink,
//! the checkpoint and the observer, and admits or queues more units.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use super::checkpoint::Checkpoint;
use super::sink::ResultSink;
use super::ScenarioRun;

/// Rows per commit block, and the window's slack beyond one row per worker.
const K: usize = 8;

const POISONED: &str = "worker pool poisoned";

/// The work a [`Pool`] runs, shared by its workers and its committer under
/// one lock.
pub(crate) trait Queue: Send {
    /// What a worker runs.
    type Unit: Send;
    /// What running a unit gave.
    type Done: Send;

    /// The next unit a worker may start now, if any.
    fn pop(&mut self) -> Option<Self::Unit>;

    /// File a finished unit's result for the committer, and say whom that
    /// concerns, if anyone yet.
    fn park(&mut self, unit: Self::Unit, done: Self::Done) -> Option<Wake>;
}

/// Whom a parked result concerns, so only they are woken.
pub(crate) enum Wake {
    /// The committer, which can take something now.
    Committer,
    /// Idle workers: the park queued more units.
    Workers,
}

/// The committer's handle on a running pool.
pub(crate) struct Pool<Q> {
    state: Mutex<State<Q>>,
    /// Wakes idle workers: the queue changed, or the pool closed.
    changed: Condvar,
    /// Wakes the committer: a parked result concerns it, or the pool closed.
    parked: Condvar,
}

struct State<Q> {
    queue: Q,
    /// Set once the committer returns or any thread stops: nothing starts.
    closed: bool,
}

impl<Q: Queue> Pool<Q> {
    /// Wait until `take` finds a parked result; `None` once a panicking
    /// worker closed the pool (the scope then re-raises its panic).
    pub(crate) fn take<T>(&self, mut take: impl FnMut(&mut Q) -> Option<T>) -> Option<T> {
        let mut state = self.state.lock().expect(POISONED);
        loop {
            if state.closed {
                return None;
            }
            if let Some(done) = take(&mut state.queue) {
                return Some(done);
            }
            state = self.parked.wait(state).expect(POISONED);
        }
    }

    /// Change the queue, admitting or adding units, and wake idle workers.
    pub(crate) fn update<T>(&self, update: impl FnOnce(&mut Q) -> T) -> T {
        let out = update(&mut self.state.lock().expect(POISONED).queue);
        self.changed.notify_all();
        out
    }

    /// Pop, run and park units until the pool closes.
    fn work(&self, execute: &(impl Fn(&Q::Unit) -> Q::Done + Sync)) {
        let _close = Close(self);
        let mut state = self.state.lock().expect(POISONED);
        while !state.closed {
            let Some(unit) = state.queue.pop() else {
                state = self.changed.wait(state).expect(POISONED);
                continue;
            };
            drop(state);
            let done = execute(&unit);
            state = self.state.lock().expect(POISONED);
            match state.queue.park(unit, done) {
                Some(Wake::Committer) => self.parked.notify_one(),
                Some(Wake::Workers) => self.changed.notify_all(),
                None => {}
            }
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.changed.notify_all();
        self.parked.notify_all();
    }
}

/// Closes the pool when the committer or a worker stops, even by a panic,
/// so no thread waits for work that will never come.
struct Close<'p, Q: Queue>(&'p Pool<Q>);

impl<Q: Queue> Drop for Close<'_, Q> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Run `commit` on the calling thread beside `workers` scoped threads that
/// run `execute` on the units of `queue` (see the module docs); its result
/// comes back once the pool is closed and every worker has exited.
pub(crate) fn pool<Q, E, C, T>(workers: usize, queue: Q, execute: E, commit: C) -> T
where
    Q: Queue,
    E: Fn(&Q::Unit) -> Q::Done + Sync,
    C: FnOnce(&Pool<Q>) -> T,
{
    let pool = Pool {
        state: Mutex::new(State { queue, closed: false }),
        changed: Condvar::new(),
        parked: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers).map(|_| scope.spawn(|| pool.work(&execute))).collect();
        let out = {
            let _close = Close(&pool);
            commit(&pool)
        };
        // The scope waits only for the closures; a worker still exiting
        // holds its allocator arena, and the next pool would grow new ones.
        for worker in workers {
            worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        out
    })
}

/// A campaign's queue, a reorder window: `todo` position `p` may start only
/// while `p < a + workers + K`, so parked runs never share a ring slot.
struct Window {
    /// The next `todo` position to start.
    next: usize,
    /// `todo.len()`.
    len: usize,
    /// Rows the sink has accepted (`a`).
    accepted: usize,
    /// Finished runs waiting for their turn; position `p` parks at
    /// `p % ring.len()`.
    ring: Vec<Option<ScenarioRun>>,
}

impl Queue for Window {
    type Unit = usize;
    type Done = ScenarioRun;

    fn pop(&mut self) -> Option<usize> {
        let pos = self.next;
        let admitted = pos < self.len && pos < self.accepted + self.ring.len();
        self.next += usize::from(admitted);
        admitted.then_some(pos)
    }

    fn park(&mut self, pos: usize, run: ScenarioRun) -> Option<Wake> {
        let slots = self.ring.len();
        self.ring[pos % slots] = Some(run);
        (pos == self.accepted).then_some(Wake::Committer)
    }
}

/// Run `execute` on the spec index at every `todo` position over `workers`
/// threads, committing each run to `sink` and `checkpoint` in `todo` order
/// as [`Campaign::run_subset`](super::Campaign::run_subset) states.
/// [`ResultSink::finish`] runs only on success.
pub(super) fn run<E>(
    todo: &[usize],
    workers: usize,
    sink: &mut dyn ResultSink,
    mut checkpoint: Option<&mut Checkpoint>,
    execute: E,
) -> Result<(), String>
where
    E: Fn(usize) -> ScenarioRun + Sync,
{
    let slots = workers + K;
    let ring = (0..slots).map(|_| None).collect();
    let window = Window { next: 0, len: todo.len(), accepted: 0, ring };
    let run_at = |&pos: &usize| execute(todo[pos]);
    pool(workers, window, run_at, |pool| {
        let mut block = Vec::with_capacity(K);
        for (pos, &index) in todo.iter().enumerate() {
            let run =
                pool.take(|w| w.ring[pos % slots].take()).ok_or("a campaign worker panicked")?;
            if let Err(e) = sink.accept(index, run) {
                // Abort, but first record the block's accepted rows if
                // their sync succeeds: exactly the accepted rows are then
                // recorded, as if the run had been killed right here.
                let _ = barrier(sink, checkpoint.as_deref_mut(), &mut block);
                return Err(e);
            }
            block.push(index);
            pool.update(|w| w.accepted += 1);
            if (pos + 1).is_multiple_of(K) || pos + 1 == todo.len() {
                barrier(sink, checkpoint.as_deref_mut(), &mut block)?;
            }
        }
        sink.finish()
    })
}

/// Make the block of rows accepted since the last barrier durable: sync the
/// output, record the block in the checkpoint, and report the pair's time
/// ([`ResultSink::committed`]). Without a checkpoint nothing is synced.
fn barrier(
    sink: &mut dyn ResultSink,
    checkpoint: Option<&mut Checkpoint>,
    block: &mut Vec<usize>,
) -> Result<(), String> {
    if let Some(checkpoint) = checkpoint.filter(|_| !block.is_empty()) {
        let started = Instant::now();
        sink.sync()?;
        checkpoint.record_all(block)?;
        sink.committed(started.elapsed());
    }
    block.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use emac_sim::{Adversary, NoInjections, OnSchedule};

    use super::*;
    use crate::campaign::checkpoint::read_done;
    use crate::campaign::{Campaign, FnSink, ScenarioFactory, ScenarioSpec};
    use crate::frontier::{Frontier, FrontierCheckpoint, FrontierSpec, MapRow, MapSink};
    use crate::{Algorithm, CountHop};

    /// `count` short scenarios; each one's seed is its position.
    fn rows(count: u64) -> Vec<ScenarioSpec> {
        (0..count)
            .map(|seed| ScenarioSpec::new("count-hop", "none").n(4).rounds(64).seed(seed))
            .collect()
    }

    struct Idle;

    impl ScenarioFactory for Idle {
        fn algorithm(&self, _spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
            Ok(Box::new(CountHop::new()))
        }

        fn adversary(
            &self,
            _spec: &ScenarioSpec,
            _schedule: Option<&Arc<dyn OnSchedule>>,
        ) -> Result<Box<dyn Adversary>, String> {
            Ok(Box::new(NoInjections))
        }
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-commit-unit-{}-{tag}.ckpt", std::process::id()))
    }

    /// Holds row 0 inside its factory call until `limit` rows have
    /// started, or a deadline passes, and notes what started meanwhile.
    struct HoldRowZero {
        limit: usize,
        started: Mutex<Vec<usize>>,
        progress: Condvar,
        row0_accepted: AtomicBool,
        /// Rows at or beyond `limit` started before row 0 was accepted.
        overran: Mutex<Vec<usize>>,
        /// The rows started when row 0 was let go.
        held: Mutex<Vec<usize>>,
    }

    impl ScenarioFactory for HoldRowZero {
        fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
            let pos = spec.seed as usize;
            if pos >= self.limit && !self.row0_accepted.load(Ordering::SeqCst) {
                self.overran.lock().unwrap().push(pos);
            }
            let mut started = self.started.lock().unwrap();
            started.push(pos);
            self.progress.notify_all();
            if pos == 0 {
                let deadline = Duration::from_secs(10);
                let (started, _) = self
                    .progress
                    .wait_timeout_while(started, deadline, |s| s.len() < self.limit)
                    .unwrap();
                drop(started);
                // Room for any worker that could overrun the window to do so.
                std::thread::sleep(Duration::from_millis(50));
                *self.held.lock().unwrap() = self.started.lock().unwrap().clone();
            }
            Ok(Box::new(CountHop::new()))
        }

        fn adversary(
            &self,
            spec: &ScenarioSpec,
            schedule: Option<&Arc<dyn OnSchedule>>,
        ) -> Result<Box<dyn Adversary>, String> {
            Idle.adversary(spec, schedule)
        }
    }

    /// While row 0 runs, the free workers start every row up to position
    /// `THREADS + K − 1` and park them, and none beyond it until row 0 is
    /// accepted.
    #[test]
    fn free_workers_fill_the_window_while_row_zero_runs() {
        const THREADS: usize = 4;
        let limit = THREADS + K;
        let specs = rows(3 * limit as u64);
        let factory = HoldRowZero {
            limit,
            started: Mutex::new(Vec::new()),
            progress: Condvar::new(),
            row0_accepted: AtomicBool::new(false),
            overran: Mutex::new(Vec::new()),
            held: Mutex::new(Vec::new()),
        };
        let mut order = Vec::new();
        let mut sink = FnSink(|index, _run| {
            if index == 0 {
                factory.row0_accepted.store(true, Ordering::SeqCst);
            }
            order.push(index);
            Ok(())
        });
        Campaign::new().threads(THREADS).run_into(&specs, &factory, &mut sink).unwrap();
        assert_eq!(order, (0..specs.len()).collect::<Vec<_>>(), "rows reach the sink in order");
        let mut held = factory.held.into_inner().unwrap();
        held.sort_unstable();
        assert_eq!(held, (0..limit).collect::<Vec<_>>(), "rows started while row 0 was held");
        assert_eq!(factory.overran.into_inner().unwrap(), Vec::<usize>::new());
    }

    /// Counts syncs, and at each one reads the checkpoint back from disk.
    struct Audit {
        path: PathBuf,
        total: usize,
        accepted: Vec<usize>,
        /// Per sync: rows accepted by then, and the checkpoint's records.
        syncs: Vec<(usize, Vec<usize>)>,
    }

    impl ResultSink for Audit {
        fn accept(&mut self, index: usize, _run: ScenarioRun) -> Result<(), String> {
            self.accepted.push(index);
            Ok(())
        }

        fn sync(&mut self) -> Result<(), String> {
            let on_disk = read_done(&self.path, 7, self.total)?.expect("checkpoint present");
            self.syncs.push((self.accepted.len(), on_disk));
            Ok(())
        }
    }

    /// `R` rows take `⌈R/K⌉` syncs at any thread count, each after a block
    /// edge; at each sync the checkpoint holds exactly the rows accepted
    /// before the previous one, and at the end every row.
    #[test]
    fn rows_commit_in_fixed_blocks_at_any_thread_count() {
        for count in [K as u64 * 2, 21] {
            let specs = rows(count);
            let total = specs.len();
            for threads in [1, 4] {
                let path = temp_ckpt(&format!("blocks-{count}-{threads}"));
                let mut ckpt = Checkpoint::fresh(&path, 7, total).unwrap();
                let mut sink =
                    Audit { path: path.clone(), total, accepted: Vec::new(), syncs: Vec::new() };
                let campaign = Campaign::new().threads(threads);
                campaign
                    .run_subset(&specs, &ckpt.remaining(), &Idle, &mut sink, Some(&mut ckpt))
                    .unwrap();
                assert_eq!(sink.accepted, (0..total).collect::<Vec<_>>());
                assert_eq!(sink.syncs.len(), total.div_ceil(K), "{count} rows, {threads} threads");
                let mut before = 0;
                for (i, (accepted, on_disk)) in sink.syncs.iter().enumerate() {
                    assert_eq!(*accepted, ((i + 1) * K).min(total), "sync {i} at a block edge");
                    assert_eq!(on_disk, &sink.accepted[..before], "sync {i}");
                    before = *accepted;
                }
                assert_eq!(read_done(&path, 7, total).unwrap(), Some(sink.accepted));
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// A sink error anywhere in a block aborts the run with exactly the
    /// accepted rows recorded, at any thread count.
    #[test]
    fn an_abort_records_exactly_the_accepted_rows() {
        let specs = rows(24);
        for threads in [1, 4] {
            for fail_at in [0, 1, K - 1, K, K + 3, 23] {
                let path = temp_ckpt(&format!("abort-{threads}-{fail_at}"));
                let mut ckpt = Checkpoint::fresh(&path, 7, specs.len()).unwrap();
                let mut accepted = Vec::new();
                let mut sink = FnSink(|index, _run| {
                    if accepted.len() == fail_at {
                        return Err("simulated crash".into());
                    }
                    accepted.push(index);
                    Ok(())
                });
                let campaign = Campaign::new().threads(threads);
                let err = campaign
                    .run_subset(&specs, &ckpt.remaining(), &Idle, &mut sink, Some(&mut ckpt))
                    .unwrap_err();
                assert!(err.contains("simulated crash"), "{err}");
                let on_disk = read_done(&path, 7, specs.len()).unwrap();
                assert_eq!(on_disk, Some(accepted), "{threads} threads, failing at {fail_at}");
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// A panicking sink re-raises its panic from the campaign instead of
    /// leaving the other workers waiting for a row that never lands.
    #[test]
    fn a_panicking_sink_stops_every_worker() {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let specs = rows(40);
            let run = std::panic::catch_unwind(|| {
                let mut sink = FnSink(|index, _run| {
                    assert!(index < 5, "sink gives up at row 5");
                    Ok(())
                });
                Campaign::new().threads(4).run_into(&specs, &Idle, &mut sink)
            });
            let _ = done.send(run.is_err());
        });
        let panicked = outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("the campaign hung after its sink panicked");
        assert!(panicked, "the sink's panic reaches the caller");
    }

    /// A solo map over `Idle` runs at the system sizes `ns`: every probe
    /// reads stable, so each point probes `lo`, then `hi`, and finishes
    /// all-stable.
    fn idle_map(ns: &str) -> FrontierSpec {
        FrontierSpec::parse(&format!(
            r#"{{"template": {{"algorithm": "count-hop", "adversary": "none", "rounds": 64}},
                "lo": "1/4", "hi": "1/2", "map": {{"n": {ns}}}}}"#
        ))
        .unwrap()
    }

    /// Holds the first lane of the `n = 4` point inside its factory call
    /// until the `n = 6` point's second probe has been built, or a
    /// deadline passes.
    #[derive(Default)]
    struct HoldPointZero {
        /// The system size of every lane built so far.
        built: Mutex<Vec<usize>>,
        progress: Condvar,
        /// The deadline passed before the other point's second probe.
        overran: AtomicBool,
    }

    impl ScenarioFactory for HoldPointZero {
        fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
            let mut built = self.built.lock().unwrap();
            built.push(spec.n);
            self.progress.notify_all();
            let of = |built: &[usize], n: usize| built.iter().filter(|&&b| b == n).count();
            if spec.n == 4 && of(&built, 4) == 1 {
                let deadline = Duration::from_secs(10);
                let (built, wait) = self
                    .progress
                    .wait_timeout_while(built, deadline, |built| of(built, 6) < 2)
                    .unwrap();
                drop(built);
                self.overran.store(wait.timed_out(), Ordering::SeqCst);
            }
            Ok(Box::new(CountHop::new()))
        }

        fn adversary(
            &self,
            spec: &ScenarioSpec,
            schedule: Option<&Arc<dyn OnSchedule>>,
        ) -> Result<Box<dyn Adversary>, String> {
            Idle.adversary(spec, schedule)
        }
    }

    /// Two independent points at two workers: while one point's first
    /// probe runs, the other's probes keep coming, so no probe waits for
    /// another point's.
    #[test]
    fn a_point_probes_on_while_another_points_probe_runs() {
        let spec = idle_map("[4, 6]");
        let factory = HoldPointZero::default();
        let mut sink = RowLog::default();
        let summary =
            Frontier::new().threads(2).run_into(&spec, &factory, &mut sink, None).unwrap();
        assert_eq!((summary.completed, summary.probes_run, summary.waves), (2, 4, 2));
        assert!(
            !factory.overran.load(Ordering::SeqCst),
            "the n = 6 point's second probe waited for the n = 4 point's first"
        );
    }

    /// Keeps the indices of the rows it accepts; fails or panics at a
    /// given row when asked to.
    #[derive(Default)]
    struct RowLog {
        rows: Vec<usize>,
        fail_at: Option<usize>,
        panic_at: Option<usize>,
    }

    impl MapSink for RowLog {
        fn accept(&mut self, row: &MapRow) -> Result<(), String> {
            assert_ne!(self.panic_at, Some(row.index), "sink gives up at row {}", row.index);
            if self.fail_at == Some(row.index) {
                return Err("simulated crash".into());
            }
            self.rows.push(row.index);
            Ok(())
        }
    }

    /// A map sink error aborts the map with exactly the rows before it
    /// recorded, at any thread count.
    #[test]
    fn a_failing_map_sink_records_exactly_the_rows_before_it() {
        let spec = idle_map("[4, 5, 6]");
        let (digest, points) = (spec.digest("csv"), spec.points().len());
        for threads in [1, 4] {
            for fail_at in 0..points {
                let path = temp_ckpt(&format!("map-abort-{threads}-{fail_at}"));
                let mut ckpt = FrontierCheckpoint::fresh(&path, digest, points).unwrap();
                let mut sink = RowLog { fail_at: Some(fail_at), ..Default::default() };
                let err = Frontier::new()
                    .threads(threads)
                    .run_into(&spec, &Idle, &mut sink, Some(&mut ckpt))
                    .unwrap_err();
                assert!(err.contains("simulated crash"), "{err}");
                let before: Vec<usize> = (0..fail_at).collect();
                assert_eq!(sink.rows, before, "{threads} threads, failing at {fail_at}");
                drop(ckpt);
                let on_disk = FrontierCheckpoint::resume(&path, digest, points).unwrap();
                assert_eq!(
                    on_disk.row_indices(),
                    before,
                    "{threads} threads, failing at {fail_at}"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// A panicking map sink re-raises its panic from the map instead of
    /// leaving the pool's workers waiting for a committer that is gone.
    #[test]
    fn a_panicking_map_sink_stops_every_worker() {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                let spec = idle_map("[4, 5, 6]");
                let mut sink = RowLog { panic_at: Some(1), ..Default::default() };
                Frontier::new().threads(4).run_into(&spec, &Idle, &mut sink, None)
            });
            let _ = done.send(run.is_err());
        });
        let panicked = outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("the map hung after its sink panicked");
        assert!(panicked, "the sink's panic reaches the caller");
    }
}
