//! The campaign's commit stage behind
//! [`Campaign::run_subset`](super::Campaign::run_subset), whose docs state
//! the contract: a reorder window of `workers + K` rows, one committer,
//! and a durability barrier per block of `K` rows.
//!
//! Workers share one [`Window`] under a lock. A finished run parks in the
//! ring slot of its position; the window admits only `workers + K`
//! consecutive positions, so their slots never collide. The sink and the
//! checkpoint form a [`Stage`], parked in the window while no worker
//! commits. The worker that parks position `a` takes the stage if it is
//! free; a committer parks it again in the same critical section in which
//! it finds position `a` still running, so the worker that later parks
//! that row finds the stage free and no finished row is stranded.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use super::checkpoint::Checkpoint;
use super::sink::ResultSink;
use super::ScenarioRun;

/// Rows per commit block, and the window's slack beyond one row per worker.
const K: usize = 8;

const POISONED: &str = "commit window poisoned";

/// The sink side, owned by whichever worker holds the committer role and
/// parked in [`Window::stage`] while none does.
struct Stage<'a> {
    sink: &'a mut dyn ResultSink,
    checkpoint: Option<&'a mut Checkpoint>,
    /// Spec indices accepted since the last barrier, in acceptance order.
    block: Vec<usize>,
}

impl Stage<'_> {
    /// Make the block durable: sync the output, then record the block in
    /// the checkpoint, and report the pair's time through
    /// [`ResultSink::committed`]. Without a checkpoint nothing vouches for
    /// the output, so nothing is synced.
    fn barrier(&mut self) -> Result<(), String> {
        let Some(checkpoint) = self.checkpoint.as_deref_mut() else {
            self.block.clear();
            return Ok(());
        };
        if self.block.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        self.sink.sync()?;
        checkpoint.record_all(&self.block)?;
        self.block.clear();
        self.sink.committed(started.elapsed());
        Ok(())
    }
}

/// What the workers share, under one lock.
struct Window<'a> {
    /// The next `todo` position to start.
    next: usize,
    /// Rows the sink has accepted (`a`).
    accepted: usize,
    /// Finished runs waiting for their turn; position `p` parks at
    /// `p % ring.len()`.
    ring: Vec<Option<ScenarioRun>>,
    /// The sink side, while no worker is committing.
    stage: Option<Stage<'a>>,
    /// The first sink or checkpoint error; it stops every worker.
    error: Option<String>,
}

/// Run `execute` on the spec index at every `todo` position over `workers`
/// threads, committing each run to `sink` and `checkpoint` in `todo` order
/// (see the module docs). [`ResultSink::finish`] runs only on success.
pub(super) fn run<E>(
    todo: &[usize],
    workers: usize,
    sink: &mut dyn ResultSink,
    checkpoint: Option<&mut Checkpoint>,
    execute: E,
) -> Result<(), String>
where
    E: Fn(usize) -> ScenarioRun + Sync,
{
    let slots = workers + K;
    let window = Mutex::new(Window {
        next: 0,
        accepted: 0,
        ring: (0..slots).map(|_| None).collect(),
        stage: Some(Stage { sink, checkpoint, block: Vec::with_capacity(K) }),
        error: None,
    });
    let admitted = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _stop = StopOnPanic { window: &window, admitted: &admitted };
                let mut w = window.lock().expect(POISONED);
                loop {
                    while w.error.is_none() && w.next < todo.len() && w.next >= w.accepted + slots {
                        w = admitted.wait(w).expect(POISONED);
                    }
                    if w.error.is_some() || w.next >= todo.len() {
                        break;
                    }
                    let pos = w.next;
                    w.next += 1;
                    drop(w);
                    let run = execute(todo[pos]);
                    w = window.lock().expect(POISONED);
                    if w.error.is_some() {
                        break;
                    }
                    w.ring[pos % slots] = Some(run);
                    if pos == w.accepted {
                        if let Some(stage) = w.stage.take() {
                            w = commit(w, stage, &window, &admitted, todo);
                        }
                    }
                }
            });
        }
    });
    let window = window.into_inner().expect(POISONED);
    match window.error {
        Some(e) => Err(e),
        None => window.stage.expect("the committer parks the stage").sink.finish(),
    }
}

/// Hold the committer role: hand the parked rows from position `a` on to
/// the sink in order, with a barrier after each block edge, until the next
/// row is still running or an error stops the run. Returns the lock with
/// the stage parked again.
fn commit<'w, 'a>(
    mut w: MutexGuard<'w, Window<'a>>,
    mut stage: Stage<'a>,
    window: &'w Mutex<Window<'a>>,
    admitted: &Condvar,
    todo: &[usize],
) -> MutexGuard<'w, Window<'a>> {
    let slots = w.ring.len();
    loop {
        let pos = w.accepted;
        let Some(run) = w.ring[pos % slots].take() else { break };
        drop(w);
        let index = todo[pos];
        let outcome = match stage.sink.accept(index, run) {
            Ok(()) => {
                stage.block.push(index);
                w = window.lock().expect(POISONED);
                w.accepted += 1;
                admitted.notify_all();
                if !(pos + 1).is_multiple_of(K) && pos + 1 != todo.len() {
                    continue;
                }
                drop(w);
                stage.barrier()
            }
            Err(e) => {
                // Abort, but first record the block's accepted rows if
                // their sync succeeds: exactly the accepted rows are then
                // recorded, as if the run had been killed right here.
                let _ = stage.barrier();
                Err(e)
            }
        };
        w = window.lock().expect(POISONED);
        if let Err(e) = outcome {
            w.error = Some(e);
            admitted.notify_all();
            break;
        }
    }
    w.stage = Some(stage);
    w
}

/// Stops the other workers when this one unwinds (a panicking sink), so
/// the scope joins them and re-raises the panic instead of leaving them
/// waiting for a row that will never be accepted.
struct StopOnPanic<'w, 'a> {
    window: &'w Mutex<Window<'a>>,
    admitted: &'w Condvar,
}

impl Drop for StopOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut w = self.window.lock().unwrap_or_else(PoisonError::into_inner);
            w.error.get_or_insert_with(|| "a campaign worker panicked".into());
            self.admitted.notify_all();
        }
    }
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
}
