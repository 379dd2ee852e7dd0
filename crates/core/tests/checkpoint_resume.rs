//! Checkpoint/resume integration: a campaign killed mid-flight (simulated
//! by a sink that errors) resumes where it stopped, re-executes exactly
//! the unfinished scenarios, and produces byte-identical concatenated
//! output; a changed spec list is refused.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use emac_adversary::UniformRandom;
use emac_core::campaign::{
    spec_list_digest, Campaign, Checkpoint, CsvStreamSink, JsonLinesSink, ResultSink,
    ScenarioFactory, ScenarioRun, ScenarioSpec,
};
use emac_core::prelude::*;
use emac_sim::{Adversary, OnSchedule, Rate};

/// Factory that counts how many scenarios actually execute.
struct CountingFactory {
    executed: AtomicUsize,
}

impl CountingFactory {
    fn new() -> Self {
        Self { executed: AtomicUsize::new(0) }
    }
}

impl ScenarioFactory for CountingFactory {
    fn algorithm(&self, spec: &ScenarioSpec) -> Result<Box<dyn Algorithm>, String> {
        self.executed.fetch_add(1, Ordering::SeqCst);
        match spec.algorithm.as_str() {
            "count-hop" => Ok(Box::new(CountHop::new())),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }

    fn adversary(
        &self,
        spec: &ScenarioSpec,
        _schedule: Option<&Arc<dyn OnSchedule>>,
    ) -> Result<Box<dyn Adversary>, String> {
        Ok(Box::new(UniformRandom::new(spec.seed)))
    }
}

/// A sink that simulates a crash: it writes the first `fail_at` runs to an
/// inner byte buffer, then errors — exactly what a process kill looks like
/// to the checkpoint (the failing run is not recorded).
struct CrashingSink<S: ResultSink> {
    inner: S,
    accepted: usize,
    fail_at: usize,
}

impl<S: ResultSink> ResultSink for CrashingSink<S> {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        if self.accepted == self.fail_at {
            return Err("simulated crash".into());
        }
        self.accepted += 1;
        self.inner.accept(index, run)
    }

    fn sync(&mut self) -> Result<(), String> {
        self.inner.sync()
    }
}

fn sweep(n_seeds: u64) -> Vec<ScenarioSpec> {
    Grid::new(ScenarioSpec::new("count-hop", "uniform").rounds(512))
        .ns([4, 5])
        .rhos([Rate::new(1, 2), Rate::new(3, 4)])
        .seeds((1..=n_seeds).collect::<Vec<u64>>())
        .expand()
}

fn temp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("emac-resume-{}-{tag}.ckpt", std::process::id()))
}

/// The satellite test: kill after M of N scenarios, resume, and the
/// concatenated output is byte-identical to an uninterrupted run while
/// exactly N−M scenarios re-execute.
#[test]
fn resume_is_byte_identical_and_reexecutes_only_the_remainder() {
    let specs = sweep(6); // 2·2·6 = 24 scenarios
    let n = specs.len();
    let m = 10;
    let digest = spec_list_digest(&specs);
    let campaign = Campaign::new().threads(4);

    // Uninterrupted reference (CSV and JSONL).
    let mut csv = CsvStreamSink::new(Vec::new());
    campaign.run_into(&specs, &CountingFactory::new(), &mut csv).unwrap();
    let mut jsonl = JsonLinesSink::new(Vec::new());
    campaign.run_into(&specs, &CountingFactory::new(), &mut jsonl).unwrap();
    let (ref_csv, ref_jsonl) = (
        String::from_utf8(csv.into_inner()).unwrap(),
        String::from_utf8(jsonl.into_inner()).unwrap(),
    );

    for jsonl in [false, true] {
        let path = temp_ckpt(if jsonl { "jsonl" } else { "csv" });
        let _ = std::fs::remove_file(&path);

        // Phase 1: crash after M accepted scenarios.
        let mut ckpt = Checkpoint::fresh(&path, digest, n).unwrap();
        let factory = CountingFactory::new();
        let mut first = Vec::new();
        let err = if jsonl {
            let sink = JsonLinesSink::new(&mut first);
            let mut sink = CrashingSink { inner: sink, accepted: 0, fail_at: m };
            campaign.run_subset(&specs, &ckpt.remaining(), &factory, &mut sink, Some(&mut ckpt))
        } else {
            let sink = CsvStreamSink::new(&mut first);
            let mut sink = CrashingSink { inner: sink, accepted: 0, fail_at: m };
            campaign.run_subset(&specs, &ckpt.remaining(), &factory, &mut sink, Some(&mut ckpt))
        }
        .unwrap_err();
        assert!(err.contains("simulated crash"), "{err}");
        assert_eq!(ckpt.completed(), m, "exactly the accepted scenarios are recorded");
        drop(ckpt);

        // Phase 2: resume — only the remainder executes, output appends.
        let mut ckpt = Checkpoint::resume(&path, digest, n).unwrap();
        assert_eq!(ckpt.remaining().len(), n - m);
        let factory = CountingFactory::new();
        let mut second = Vec::new();
        if jsonl {
            let mut sink = JsonLinesSink::new(&mut second);
            campaign
                .run_subset(&specs, &ckpt.remaining(), &factory, &mut sink, Some(&mut ckpt))
                .unwrap();
        } else {
            let mut sink = CsvStreamSink::appending(&mut second);
            campaign
                .run_subset(&specs, &ckpt.remaining(), &factory, &mut sink, Some(&mut ckpt))
                .unwrap();
        }
        assert_eq!(
            factory.executed.load(Ordering::SeqCst),
            n - m,
            "resume must re-execute exactly the unfinished scenarios"
        );
        assert_eq!(ckpt.completed(), n);
        assert!(ckpt.remaining().is_empty());

        let concatenated =
            String::from_utf8(first.iter().chain(&second).copied().collect()).unwrap();
        let reference = if jsonl { &ref_jsonl } else { &ref_csv };
        assert_eq!(&concatenated, reference, "resumed output diverged from uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }
}

/// A spec-list edit between the crash and the resume is refused — the
/// digest in the checkpoint header no longer matches.
#[test]
fn resume_refuses_a_changed_spec_list() {
    let specs = sweep(3);
    let path = temp_ckpt("digest-mismatch");
    let _ = std::fs::remove_file(&path);
    let mut ckpt = Checkpoint::fresh(&path, spec_list_digest(&specs), specs.len()).unwrap();
    ckpt.record(0).unwrap();
    drop(ckpt);

    let mut edited = specs.clone();
    edited[2].seed = 999;
    let err = Checkpoint::resume(&path, spec_list_digest(&edited), edited.len()).unwrap_err();
    assert!(err.contains("refusing to resume"), "{err}");
    assert!(err.contains("digest mismatch"), "{err}");

    // the unchanged list still resumes
    let ckpt = Checkpoint::resume(&path, spec_list_digest(&specs), specs.len()).unwrap();
    assert_eq!(ckpt.completed(), 1);
    let _ = std::fs::remove_file(&path);
}

/// Resuming a finished campaign executes nothing and appends nothing.
#[test]
fn resume_of_complete_campaign_is_a_no_op() {
    let specs = sweep(2);
    let digest = spec_list_digest(&specs);
    let path = temp_ckpt("complete");
    let _ = std::fs::remove_file(&path);
    let campaign = Campaign::new().threads(2);

    let mut ckpt = Checkpoint::fresh(&path, digest, specs.len()).unwrap();
    let mut bytes = Vec::new();
    let mut sink = CsvStreamSink::new(&mut bytes);
    campaign
        .run_subset(&specs, &ckpt.remaining(), &CountingFactory::new(), &mut sink, Some(&mut ckpt))
        .unwrap();
    drop(ckpt);

    let ckpt = Checkpoint::resume(&path, digest, specs.len()).unwrap();
    assert!(ckpt.remaining().is_empty());
    let _ = std::fs::remove_file(&path);
}
