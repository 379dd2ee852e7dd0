//! Shard-determinism suite: fleet-sharded executions are byte-identical
//! to single-process runs, whatever the shard count, launch order, or
//! steal schedule.
//!
//! Every case here drives the real `emac` binary (`emac shard plan`,
//! parallel `emac shard run` worker *processes*, `emac shard merge`) and
//! diffs the merged bytes against an uninterrupted single-process run of
//! the same spec:
//!
//! 1. a 64-scenario mixed campaign (explicit scenarios + a grid), split
//!    into {1, 2, 3, 7} shards launched in shuffled order;
//! 2. a 4-point frontier map under the same shard counts;
//! 3. JSONL output through a 2-shard split;
//! 4. the pinned goldens: the registry-wide campaign grid merges to
//!    `3b17903468572632` and `specs/frontier_theorem5_band.json` (seed
//!    ensemble, escalation, `n`-continuation) merges to
//!    `a3e0d1df6fb35675` — the same digests `tests/golden_determinism.rs`
//!    pins on the single-process paths;
//! 5. the digest `emac shard plan` prints is the `digest` line of the
//!    checkpoint a single-process run writes, for every campaign
//!    `--format` × `--detail` and every frontier `--format`.

use std::path::{Path, PathBuf};
use std::process::Command;

use emac_core::digest::Fnv64;

/// xorshift64 — the house stand-in for a rand dependency; shuffles the
/// shard launch order deterministically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn emac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_emac"))
}

fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", Fnv64::new().bytes(bytes).finish())
}

/// A fresh scratch directory per test case.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-shard-det-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 4 explicit scenarios + a 60-point grid = 64 mixed scenarios.
const MIXED_SPEC: &str = r#"{
  "scenarios": [
    {"label": "drained", "algorithm": "count-hop", "adversary": "uniform",
     "n": 6, "rho": "1/4", "beta": "2", "rounds": 1024, "drain": 512, "seed": 3},
    {"label": "jammed", "algorithm": "k-cycle", "adversary": "uniform",
     "n": 8, "k": 3, "rho": "1/8", "rounds": 1024, "seed": 4,
     "faults": {"jam": "1/10", "seed": 9}},
    {"label": "subsets", "algorithm": "k-subsets", "adversary": "round-robin",
     "n": 7, "k": 3, "rho": "1/8", "rounds": 1024, "seed": 5},
    {"label": "baseline", "algorithm": "duty-cycle", "adversary": "uniform",
     "n": 6, "k": 2, "rho": "1/4", "rounds": 1024, "seed": 6}
  ],
  "grids": [
    {"algorithms": ["k-cycle", "k-clique", "count-hop", "orchestra", "adjust-window"],
     "adversaries": ["uniform", "round-robin"],
     "n": [6, 8], "k": [3], "rho": ["1/8", "1/4", "3/8"], "beta": ["1"],
     "rounds": 1024, "seeds": [5]}
  ]
}"#;

/// A cheap 4-point boundary map (no ensemble, no continuation).
const MAP_SPEC: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "uniform",
               "rounds": 2000, "probe_cap": 1000},
  "axis": "rho", "lo": "0", "hi": "1/2", "tol": 0.01,
  "map": {"n": [6, 9], "k": [2, 3]}
}"#;

/// Run the spec single-process through the real binary; return the
/// output bytes. (Exit status is not asserted: duty-cycle scenarios
/// violate invariants by design and exit non-zero, by contract.)
fn single_process(dir: &Path, spec: &Path, cmd: &str, format: &str) -> Vec<u8> {
    let out_dir = dir.join("single");
    let status = emac()
        .args([cmd, spec.to_str().unwrap(), "--format", format, "--out"])
        .arg(&out_dir)
        .output()
        .unwrap();
    let out_path = out_dir.join(format!(
        "{}.{}",
        if cmd == "campaign" { "campaign" } else { "frontier" },
        format
    ));
    assert!(
        out_path.is_file(),
        "single-process {cmd} must produce {}: {}",
        out_path.display(),
        String::from_utf8_lossy(&status.stderr)
    );
    std::fs::read(&out_path).unwrap()
}

/// Plan `shards` shards, launch every worker as a separate OS process in
/// a shuffled order, wait for all, merge, and return the merged bytes.
fn sharded(dir: &Path, spec: &Path, shards: usize, format: &str, rng: &mut Rng) -> Vec<u8> {
    let fleet = dir.join(format!("fleet-{shards}"));
    let plan = emac()
        .args(["shard", "plan", spec.to_str().unwrap(), "--dir"])
        .arg(&fleet)
        .args(["--shards", &shards.to_string(), "--format", format])
        .output()
        .unwrap();
    assert!(plan.status.success(), "plan: {}", String::from_utf8_lossy(&plan.stderr));

    let mut order: Vec<usize> = (0..shards).collect();
    rng.shuffle(&mut order);
    let workers: Vec<_> = order
        .iter()
        .map(|s| {
            emac()
                .args(["shard", "run", spec.to_str().unwrap(), "--dir"])
                .arg(&fleet)
                .args(["--shard", &s.to_string()])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for mut w in workers {
        w.wait().unwrap();
    }

    let merged = fleet.join(format!("merged.{format}"));
    let out = emac()
        .args(["shard", "merge", "--dir"])
        .arg(&fleet)
        .args(["--out"])
        .arg(&merged)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "merge of {shards} shards: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&merged).unwrap()
}

#[test]
fn mixed_campaign_shards_merge_byte_identically_at_every_shard_count() {
    let dir = scratch("campaign");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, MIXED_SPEC).unwrap();
    let reference = single_process(&dir, &spec, "campaign", "csv");
    assert_eq!(reference.iter().filter(|&&b| b == b'\n').count(), 65, "64 rows + header");

    let mut rng = Rng(0x5eed_0001);
    for shards in [1, 2, 3, 7] {
        let merged = sharded(&dir, &spec, shards, "csv", &mut rng);
        assert_eq!(
            merged, reference,
            "{shards}-shard campaign merge must be byte-identical to single-process"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontier_map_shards_merge_byte_identically_at_every_shard_count() {
    let dir = scratch("frontier");
    let spec = dir.join("map.json");
    std::fs::write(&spec, MAP_SPEC).unwrap();
    let reference = single_process(&dir, &spec, "frontier", "csv");
    assert_eq!(reference.iter().filter(|&&b| b == b'\n').count(), 5, "4 points + header");

    let mut rng = Rng(0x5eed_0002);
    for shards in [1, 2, 3, 7] {
        let merged = sharded(&dir, &spec, shards, "csv", &mut rng);
        assert_eq!(
            merged, reference,
            "{shards}-shard frontier merge must be byte-identical to single-process"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_output_shards_byte_identically_too() {
    let dir = scratch("jsonl");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, MIXED_SPEC).unwrap();
    let reference = single_process(&dir, &spec, "campaign", "jsonl");
    let mut rng = Rng(0x5eed_0003);
    let merged = sharded(&dir, &spec, 2, "jsonl", &mut rng);
    assert_eq!(merged, reference, "jsonl merge must be byte-identical to single-process");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry-wide campaign grid of `tests/golden_determinism.rs`,
/// as a spec document: sharding must merge to the same pinned digest
/// the buffered `to_csv`, the streaming sink, and the slim-detail run
/// all produce.
const GOLDEN_GRID_SPEC: &str = r#"{
  "grids": [
    {"algorithms": ["orchestra", "orchestra-nomb", "count-hop", "adjust-window",
                    "k-cycle", "k-cycle:1/2", "k-clique", "k-subsets",
                    "k-subsets-rrw", "duty-cycle"],
     "adversaries": ["uniform", "round-robin"],
     "n": [8], "k": [4], "rho": ["1/8"], "beta": ["1"],
     "rounds": 2048, "seeds": [7]}
  ]
}"#;

/// Kept verbatim in sync with `CAMPAIGN_CSV_GOLDEN` in
/// `tests/golden_determinism.rs`.
const CAMPAIGN_CSV_GOLDEN: &str = "3b17903468572632";

/// Kept verbatim in sync with `FRONTIER_BAND_CSV_GOLDEN` in
/// `tests/golden_determinism.rs`.
const FRONTIER_BAND_CSV_GOLDEN: &str = "a3e0d1df6fb35675";

#[test]
fn sharded_golden_campaign_grid_merges_to_the_pinned_digest() {
    let dir = scratch("golden-campaign");
    let spec = dir.join("grid.json");
    std::fs::write(&spec, GOLDEN_GRID_SPEC).unwrap();
    let mut rng = Rng(0x5eed_0004);
    let merged = sharded(&dir, &spec, 3, "csv", &mut rng);
    assert_eq!(
        fnv_hex(&merged),
        CAMPAIGN_CSV_GOLDEN,
        "sharded registry grid must merge to the pinned campaign CSV digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_band_map_with_continuation_merges_to_the_pinned_digest() {
    let dir = scratch("golden-band");
    // The committed ensemble map: 2 points in 1 continuation chain, so
    // a 2-shard plan keeps the chain whole (one slice stays empty and
    // the chain is stolen by whichever worker reaches it first).
    let spec = Path::new("specs/frontier_theorem5_band.json").canonicalize().unwrap();
    let mut rng = Rng(0x5eed_0005);
    let merged = sharded(&dir, &spec, 2, "csv", &mut rng);
    assert_eq!(
        fnv_hex(&merged),
        FRONTIER_BAND_CSV_GOLDEN,
        "sharded band map must merge to the pinned band CSV digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The digest `emac shard plan` prints for `spec` under the output
/// `flags`, and the `digest` line of the checkpoint that a single-process
/// `emac <cmd>` run of the same spec and flags writes.
fn plan_and_checkpoint_digests(dir: &Path, spec: &Path, cmd: &str, flags: &[&str]) -> [String; 2] {
    let tag = format!("{cmd}{}", flags.join(""));
    let plan = emac()
        .args(["shard", "plan", spec.to_str().unwrap(), "--shards", "2", "--dir"])
        .arg(dir.join(format!("plan{tag}")))
        .args(flags)
        .output()
        .unwrap();
    assert!(plan.status.success(), "plan: {}", String::from_utf8_lossy(&plan.stderr));
    let stdout = String::from_utf8(plan.stdout).unwrap();
    let printed = stdout.split("(digest ").nth(1).and_then(|rest| rest.split(')').next());

    let out = dir.join(format!("single{tag}"));
    emac().args([cmd, spec.to_str().unwrap(), "--out"]).arg(&out).args(flags).output().unwrap();
    let ckpt = std::fs::read_to_string(out.join(format!("{cmd}.ckpt"))).unwrap();
    let recorded = ckpt.lines().nth(1).and_then(|line| line.strip_prefix("digest "));
    [printed.expect("plan prints its digest"), recorded.expect("checkpoint digest line")]
        .map(String::from)
}

#[test]
fn plan_digest_is_the_single_process_checkpoint_digest() {
    let dir = scratch("plan-digest");
    let campaign = dir.join("spec.json");
    std::fs::write(&campaign, MIXED_SPEC).unwrap();
    let map = dir.join("map.json");
    std::fs::write(&map, MAP_SPEC).unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for format in ["csv", "jsonl"] {
        for detail in ["full", "slim"] {
            let flags = ["--format", format, "--detail", detail];
            let [plan, ckpt] = plan_and_checkpoint_digests(&dir, &campaign, "campaign", &flags);
            assert_eq!(plan, ckpt, "campaign --format {format} --detail {detail}");
            seen.insert(plan);
        }
        let flags = ["--format", format];
        let [plan, ckpt] = plan_and_checkpoint_digests(&dir, &map, "frontier", &flags);
        assert_eq!(plan, ckpt, "frontier --format {format}");
        seen.insert(plan);
    }
    assert_eq!(seen.len(), 6, "every output option binds its own digest: {seen:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
