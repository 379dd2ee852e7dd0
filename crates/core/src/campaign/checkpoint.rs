//! Campaign checkpoints: crash-safe progress tracking for long sweeps.
//!
//! A [`Checkpoint`] is a [journal] (`campaign.ckpt`, conventionally next
//! to the campaign's output) recording which scenario indices have been
//! durably written to the result sink. The executor commits rows in
//! blocks of 8: it appends a block's records, with one write and one
//! fsync ([`Checkpoint::record_all`]), only **after** the sink accepted
//! those rows *and* made them durable
//! ([`ResultSink::sync`](super::sink::ResultSink::sync)), so a crash at
//! any instant leaves the checkpoint claiming no more than the output
//! holds. A write cut inside a block leaves complete lines, and those
//! count. The opposite overhang — complete or torn output rows whose
//! record never landed — is cut at resume time by
//! [`reopen_output`](crate::journal::reopen_output); those scenarios
//! re-execute, so a resumed campaign's final output is byte-identical to
//! an uninterrupted run.
//!
//! The header pins a digest of the full spec list ([`spec_list_digest`]),
//! so resuming against an edited spec file is refused instead of silently
//! producing a frankenstein result.
//!
//! # File format
//!
//! ```text
//! emac-campaign-ckpt v1
//! digest 4a3f9c0e12b45d67
//! total 128
//! done 0
//! done 1
//! …
//! ```
//!
//! Records are appended in sink-acceptance order; each index is in range
//! and recorded at most once.

use std::collections::BTreeSet;
use std::path::Path;

use super::ScenarioSpec;
use crate::digest::Fnv64;
use crate::journal::{self, Header, Journal};

pub(crate) const HEADER: Header = Header {
    magic: "emac-campaign-ckpt v1",
    noun: "campaign checkpoint",
    count: "total",
    count_name: "scenario count",
    changed: "the spec list or output options changed since this campaign started",
};

/// FNV-1a digest of a spec list: the scenario count followed by every
/// spec's canonical compact JSON rendering. Two spec files that expand to
/// the same scenarios in the same order digest identically; any reorder,
/// edit, insertion, or deletion changes it.
pub fn spec_list_digest(specs: &[ScenarioSpec]) -> u64 {
    let mut h = Fnv64::new();
    h.usize(specs.len());
    for spec in specs {
        h.str(&spec.to_json().render());
    }
    h.finish()
}

/// Persistent record of completed scenario indices — see the module docs
/// for the file format and durability contract.
#[derive(Debug)]
pub struct Checkpoint {
    journal: Journal,
    total: usize,
    done: BTreeSet<usize>,
}

impl Checkpoint {
    /// Start a fresh checkpoint at `path` (truncating any previous one)
    /// for a campaign of `total` scenarios whose spec list digests to
    /// `digest`. The header is durable before returning.
    pub fn fresh(path: &Path, digest: u64, total: usize) -> Result<Self, String> {
        let journal = Journal::create(path, &HEADER, digest, total)?;
        Ok(Self { journal, total, done: BTreeSet::new() })
    }

    /// Resume from the checkpoint at `path`, verifying that it belongs to
    /// this spec list (`digest`, `total`). A missing file, or one torn
    /// inside its header, starts fresh — `--resume` on a never-started
    /// campaign just runs it. A digest or count mismatch is refused.
    pub fn resume(path: &Path, digest: u64, total: usize) -> Result<Self, String> {
        let mut done = BTreeSet::new();
        match Journal::open(path, &HEADER, digest, total, &mut |line| {
            parse_done(line, total, &mut done).map(drop)
        })? {
            Some(journal) => Ok(Self { journal, total, done }),
            None => Self::fresh(path, digest, total),
        }
    }

    /// Record scenario `index` as durably written: [`record_all`] of one.
    ///
    /// [`record_all`]: Self::record_all
    pub fn record(&mut self, index: usize) -> Result<(), String> {
        self.record_all(&[index])
    }

    /// Record `indices` as durably written, in the order given. Appends
    /// their lines with one write and fsyncs them once before returning,
    /// so a completed commit block survives any later crash.
    pub fn record_all(&mut self, indices: &[usize]) -> Result<(), String> {
        debug_assert!(indices.iter().all(|&i| i < self.total));
        self.journal.append(indices.iter().map(|i| format!("done {i}")))?;
        self.done.extend(indices);
        Ok(())
    }

    /// Whether scenario `index` is already recorded.
    pub fn is_done(&self, index: usize) -> bool {
        self.done.contains(&index)
    }

    /// Number of recorded scenarios.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Total scenarios in the campaign this checkpoint tracks.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The spec indices still to run, in spec order — feed this to
    /// [`Campaign::run_subset`](super::Campaign::run_subset).
    pub fn remaining(&self) -> Vec<usize> {
        (0..self.total).filter(|i| !self.done.contains(i)).collect()
    }
}

/// Parse one `done` record into `done`, refusing an out-of-range or
/// repeated index.
fn parse_done(line: &str, total: usize, done: &mut BTreeSet<usize>) -> Result<usize, String> {
    let index = line
        .strip_prefix("done ")
        .and_then(|i| i.parse::<usize>().ok())
        .ok_or_else(|| format!("malformed checkpoint line {line:?}"))?;
    if index >= total {
        return Err(format!("checkpoint records scenario {index} of a {total}-scenario run"));
    }
    if !done.insert(index) {
        return Err(format!("checkpoint records scenario {index} twice"));
    }
    Ok(index)
}

/// Read the campaign checkpoint at `path` without writing to it: the
/// recorded indices in *append* order, or `None` if it is missing or torn
/// inside its header. The executor appends in sink-acceptance order, so
/// the j-th entry names the scenario behind the j-th output row — the
/// pairing `shard::merge` relies on to stitch shard outputs whose row
/// order is not globally ascending. A duplicate index is refused (it would
/// desynchronise that pairing).
pub(crate) fn read_done(
    path: &Path,
    digest: u64,
    total: usize,
) -> Result<Option<Vec<usize>>, String> {
    let (mut done, mut order) = (BTreeSet::new(), Vec::new());
    let present = journal::read(path, &HEADER, digest, total, &mut |line| {
        order.push(parse_done(line, total, &mut done)?);
        Ok(())
    })?;
    Ok(present.then_some(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-ckpt-unit-{}-{tag}.ckpt", std::process::id()))
    }

    #[test]
    fn fresh_record_resume_round_trip() {
        let path = temp_path("roundtrip");
        let digest = 0xabcd_1234_u64;
        let mut ck = Checkpoint::fresh(&path, digest, 5).unwrap();
        assert_eq!(ck.remaining(), vec![0, 1, 2, 3, 4]);
        ck.record(0).unwrap();
        ck.record(1).unwrap();
        ck.record(3).unwrap();
        drop(ck);
        let ck = Checkpoint::resume(&path, digest, 5).unwrap();
        assert_eq!(ck.completed(), 3);
        assert!(ck.is_done(3) && !ck.is_done(2));
        assert_eq!(ck.remaining(), vec![2, 4]);
        assert_eq!(ck.total(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_digest_and_total_mismatch() {
        let path = temp_path("mismatch");
        Checkpoint::fresh(&path, 7, 3).unwrap();
        let err = Checkpoint::resume(&path, 8, 3).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(err.contains("digest mismatch"), "{err}");
        let err = Checkpoint::resume(&path, 7, 4).unwrap_err();
        assert!(err.contains("count mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_file_starts_fresh() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::resume(&path, 1, 2).unwrap();
        assert_eq!(ck.completed(), 0);
        assert!(path.exists(), "fresh header written");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_ignored_but_torn_middle_is_not() {
        let path = temp_path("torn");
        let mut ck = Checkpoint::fresh(&path, 9, 10).unwrap();
        ck.record(0).unwrap();
        ck.record(1).unwrap();
        drop(ck);
        // simulate a kill mid-append
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "done 2").unwrap(); // no newline
        drop(file);
        let mut ck = Checkpoint::resume(&path, 9, 10).unwrap();
        assert_eq!(ck.completed(), 2, "torn tail dropped");
        // the torn bytes are physically gone: a record appended after the
        // resume lands on a fresh line and a second resume accepts it
        ck.record(2).unwrap();
        drop(ck);
        let ck = Checkpoint::resume(&path, 9, 10).unwrap();
        assert_eq!(ck.completed(), 3, "post-resume record survives a second resume");
        let _ = std::fs::remove_file(&path);

        let path = temp_path("garbled");
        std::fs::write(&path, format!("{}wat\ndone 1\n", HEADER.render(9, 4))).unwrap();
        let err = Checkpoint::resume(&path, 9, 4).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_out_of_range_and_foreign_files() {
        let path = temp_path("range");
        std::fs::write(&path, format!("{}done 5\n", HEADER.render(3, 2))).unwrap();
        assert!(Checkpoint::resume(&path, 3, 2).unwrap_err().contains("records scenario 5"));
        std::fs::write(&path, "something else\n").unwrap();
        assert!(Checkpoint::resume(&path, 3, 2).unwrap_err().contains("bad magic"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ordered_parse_preserves_append_order_and_refuses_duplicates() {
        let path = temp_path("ordered");
        let head = HEADER.render(5, 6);
        std::fs::write(&path, format!("{head}done 4\ndone 1\ndone 3\n")).unwrap();
        let done = read_done(&path, 5, 6).unwrap();
        assert_eq!(done, Some(vec![4, 1, 3]), "append order preserved, not sorted");
        std::fs::write(&path, format!("{head}done 2\ndone 2\n")).unwrap();
        let err = read_done(&path, 5, 6).unwrap_err();
        assert!(err.contains("scenario 2 twice"), "{err}");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_done(&path, 5, 6).unwrap(), None, "a missing checkpoint reads as absent");
    }

    #[test]
    fn spec_digest_is_order_and_content_sensitive() {
        let a = ScenarioSpec::new("x", "y");
        let b = ScenarioSpec::new("x", "y").seed(9);
        let d1 = spec_list_digest(&[a.clone(), b.clone()]);
        assert_eq!(d1, spec_list_digest(&[a.clone(), b.clone()]), "deterministic");
        assert_ne!(d1, spec_list_digest(&[b.clone(), a.clone()]), "order matters");
        assert_ne!(d1, spec_list_digest(std::slice::from_ref(&a)), "count matters");
        assert_ne!(d1, spec_list_digest(&[a, b.seed(10)]), "content matters");
    }
}
