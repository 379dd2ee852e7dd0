//! Crash consistency at every byte offset of every durable journal.
//!
//! A kill or power loss can stop an append-only log at any byte. For each
//! log the CLI keeps — `campaign.ckpt`, `frontier.ckpt` and a shard's
//! checkpoint — this suite records one uninterrupted run, then for every
//! offset `L` copies that run, cuts the log to `L` bytes, resumes through
//! the `emac` binary (merging, for a fleet) and compares the final output
//! with the uninterrupted bytes.
//!
//! No cut may ever give different output. Every cut of a checkpoint must
//! resume to identical output, including cuts inside its header, which
//! read as a checkpoint torn while being created. A fleet's claims are
//! lease files, not a log; `tests/shard_claims.rs` kills a claim at each
//! of its steps instead.
//!
//! Outputs are compared, not checkpoints: after a resume, probe waves
//! pair differently and probe lines may legitimately reorder, while the
//! output a map or campaign writes must not change at all. The copied
//! output keeps every row of the uninterrupted run, so each cut also
//! exercises the reconcile that drops rows the log no longer vouches for.

use std::path::{Path, PathBuf};
use std::process::Command;

/// 8 scenarios: count-hop and k-cycle, n 4/6, seeds 1–2.
const GRID: &str = r#"{"grids":[{"algorithms":["count-hop","k-cycle"],"adversaries":["uniform"],
  "n":[4,6],"k":[3],"rho":["1/4"],"beta":["1"],"rounds":500,"seeds":[1,2]}]}"#;

/// One band-map point whose 3-seed ensemble escalates twice under
/// `--escalate 5:1`.
const BAND: &str = r#"{"template": {"algorithm": "k-cycle", "adversary": "uniform", "n": 6, "k": 3,
              "rounds": 1000, "probe_cap": 500},
 "axis": "rho", "lo": "0", "hi": "1/2", "tol": 0.0625,
 "seeds": [1, 2, 3]}"#;

const CAMPAIGN_ARGS: [&str; 4] = ["--format", "csv", "--detail", "slim"];

fn emac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_emac"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-journal-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `cmd`; `Err(stderr)` unless it exits 0.
fn run(cmd: &mut Command) -> Result<(), String> {
    let out = cmd.output().unwrap();
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).into_owned())
    }
}

fn size(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// For every byte offset of `log` (a path relative to `reference`), copy
/// `reference`, cut the log there and run `resume` on the copy. Panics,
/// naming the offset, if a resume succeeds with output other than
/// `expected`; returns the offsets whose resume was refused, with the
/// error.
fn sweep(
    reference: &Path,
    log: &str,
    expected: &[u8],
    resume: impl Fn(&Path) -> Result<Vec<u8>, String>,
) -> Vec<(u64, String)> {
    let len = size(&reference.join(log));
    let work = reference.with_extension("cut");
    let mut refused = Vec::new();
    for cut in 0..=len {
        let _ = std::fs::remove_dir_all(&work);
        copy_dir(reference, &work);
        let file = std::fs::OpenOptions::new().write(true).open(work.join(log)).unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        match resume(&work) {
            Ok(bytes) => assert!(bytes == expected, "{log} cut at {cut} bytes diverged"),
            Err(e) => refused.push((cut, e)),
        }
    }
    refused
}

#[test]
fn campaign_checkpoint_resumes_identically_from_every_byte_offset() {
    let dir = scratch("campaign");
    let spec = dir.join("grid.json");
    std::fs::write(&spec, GRID).unwrap();
    let reference = dir.join("ref");
    run(emac().arg("campaign").arg(&spec).arg("--out").arg(&reference).args(CAMPAIGN_ARGS))
        .unwrap();
    let expected = std::fs::read(reference.join("campaign.csv")).unwrap();

    assert_eq!(size(&reference.join("campaign.ckpt")), 110, "54-byte header + 8 records of 7");
    let refused = sweep(&reference, "campaign.ckpt", &expected, |work| {
        run(emac()
            .arg("campaign")
            .arg(&spec)
            .arg("--out")
            .arg(work)
            .args(CAMPAIGN_ARGS)
            .arg("--resume"))?;
        Ok(std::fs::read(work.join("campaign.csv")).unwrap())
    });
    assert_eq!(refused, vec![], "every cut resumes, one inside the header afresh");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontier_checkpoint_resumes_identically_from_every_byte_offset() {
    let dir = scratch("frontier");
    let spec = dir.join("band.json");
    std::fs::write(&spec, BAND).unwrap();
    let reference = dir.join("ref");
    let map = |out: &Path| {
        let mut cmd = emac();
        cmd.arg("frontier").arg(&spec).args(["--escalate", "5:1", "--out"]).arg(out);
        cmd
    };
    run(&mut map(&reference)).unwrap();
    let expected = std::fs::read(reference.join("frontier.csv")).unwrap();
    let ckpt = std::fs::read_to_string(reference.join("frontier.ckpt")).unwrap();
    let escalations = ckpt.lines().filter(|l| l.starts_with("probe ") && l.ends_with(" 5")).count();
    assert_eq!(escalations, 2, "the sweep must cut through escalation records:\n{ckpt}");

    assert_eq!(ckpt.len(), 131, "55-byte header + 5 probes of 14 bytes + 1 row");
    let refused = sweep(&reference, "frontier.ckpt", &expected, |work| {
        run(map(work).arg("--resume"))?;
        Ok(std::fs::read(work.join("frontier.csv")).unwrap())
    });
    assert_eq!(refused, vec![], "every cut resumes, one inside the header afresh");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 2-shard fleet over [`GRID`], run one shard after the other: shard 1
/// claims its own slice and then steals shard 0's, so its checkpoint
/// records units out of ascending order, and shard 0's checkpoint holds
/// only its header.
fn fleet(dir: &Path) -> (PathBuf, PathBuf, Vec<u8>) {
    let spec = dir.join("grid.json");
    std::fs::write(&spec, GRID).unwrap();
    let single = dir.join("single");
    run(emac().arg("campaign").arg(&spec).arg("--out").arg(&single).args(CAMPAIGN_ARGS)).unwrap();
    let expected = std::fs::read(single.join("campaign.csv")).unwrap();
    let plan = dir.join("plan");
    run(emac()
        .args(["shard", "plan"])
        .arg(&spec)
        .arg("--dir")
        .arg(&plan)
        .args(["--shards", "2", "--detail", "slim"]))
    .unwrap();
    for shard in ["1", "0"] {
        run(emac()
            .args(["shard", "run"])
            .arg(&spec)
            .arg("--dir")
            .arg(&plan)
            .args(["--shard", shard]))
        .unwrap();
    }
    (spec, plan, expected)
}

/// Resume `shard` of the fleet in `plan`, merge, return the merged bytes.
fn resume_and_merge(spec: &Path, plan: &Path, shard: &str) -> Result<Vec<u8>, String> {
    run(emac()
        .args(["shard", "run"])
        .arg(spec)
        .arg("--dir")
        .arg(plan)
        .args(["--shard", shard, "--resume"]))?;
    let merged = plan.join("merged.csv");
    run(emac().args(["shard", "merge", "--dir"]).arg(plan).arg("--out").arg(&merged))?;
    Ok(std::fs::read(merged).unwrap())
}

#[test]
fn shard_checkpoints_resume_identically_from_every_byte_offset() {
    let dir = scratch("shard");
    let (spec, plan, expected) = fleet(&dir);
    for (shard, bytes) in [("0", 54), ("1", 110)] {
        let log = format!("shard-{shard}/campaign.ckpt");
        assert_eq!(size(&plan.join(&log)), bytes, "shard 0 holds only its header, 1 8 records");
        let refused = sweep(&plan, &log, &expected, |work| resume_and_merge(&spec, work, shard));
        assert_eq!(refused, vec![], "every cut of {log} resumes and merges");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
