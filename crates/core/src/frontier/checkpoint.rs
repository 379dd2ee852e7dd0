//! Frontier checkpoints: crash-safe bisection state.
//!
//! A frontier search's full state is (a) which probes have run and what
//! each said, and (b) how many output rows are already durable — bisection
//! is a deterministic function of the per-point verdict sequence, so a
//! checkpoint need only record `probe` and `row` lines and a resume
//! *replays* them through the same state machine to land exactly where a
//! killed run stopped, mid-bisection included. The file is a [journal],
//! with the campaign checkpoint's discipline: every record is durable
//! before the engine moves on, a `row` record is appended only after the
//! output sink made the row durable, and the header digest binds the
//! frontier spec **and** the output format.
//!
//! # File format
//!
//! ```text
//! emac-frontier-ckpt v1
//! digest 4a3f9c0e12b45d67
//! points 4
//! probe 0 s
//! probe 1 d 4 5
//! row 0
//! …
//! ```
//!
//! Verdicts are one letter: `s`table, `d`iverging, `i`nconclusive. Solo
//! probes record `probe <point> <verdict>`; seed-ensemble probes append
//! `<diverging-lanes> <total-lanes>` from the probe's **final** (possibly
//! escalation-widened) lane batch — together with the verdict that is the
//! whole replayable escalation event: lanes are deterministic, so a resume
//! reconstructs the verdict-flip band and agreement tallies without
//! re-running a single probe. An ensemble spec refuses to resume from a
//! checkpoint whose probe lines lack lane counts (a pre-band artifact):
//! replaying them would silently drop band state.

use std::path::Path;

use crate::journal::{self, Header, Journal};
use crate::stability::Verdict;

pub(crate) const HEADER: Header = Header {
    magic: "emac-frontier-ckpt v1",
    noun: "frontier checkpoint",
    count: "points",
    count_name: "map size",
    changed: "the frontier spec or output options changed since this map started",
};

/// One recorded probe: which map point, what the (majority) verdict was,
/// and — for seed-ensemble probes — the final lane tally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Map-point index the probe belongs to.
    pub point: usize,
    /// The verdict that drove the bisection (the strict-majority verdict
    /// for ensemble probes; ties count as diverging).
    pub verdict: Verdict,
    /// `(diverging lanes, total lanes)` of the final lane batch for
    /// ensemble probes; `None` for solo probes.
    pub lanes: Option<(usize, usize)>,
}

/// Persistent record of probe verdicts and emitted rows — see the module
/// docs for the format and durability contract.
///
/// A checkpoint is either *sequential* (the default: rows must arrive in
/// map order, `0, 1, 2, …` — what a single-process run emits) or *sharded*
/// ([`fresh_sharded`](Self::fresh_sharded) /
/// [`resume_sharded`](Self::resume_sharded)): a shard worker claims work
/// units in lease order, which is not globally ascending once it starts
/// stealing, so its rows may arrive in any order as long as each map point
/// is recorded at most once. The j-th `row` line still names the point
/// behind the j-th output row — the pairing `shard::merge` uses to stitch
/// shard outputs back into map order.
#[derive(Debug)]
pub struct FrontierCheckpoint {
    journal: Journal,
    log: Log,
}

/// What a frontier checkpoint records, validated as it grows.
#[derive(Debug)]
struct Log {
    points: usize,
    sequential: bool,
    probes: Vec<ProbeRecord>,
    rows: Vec<usize>,
}

fn verdict_letter(v: Verdict) -> char {
    match v {
        Verdict::Stable => 's',
        Verdict::Diverging => 'd',
        Verdict::Inconclusive => 'i',
    }
}

fn verdict_from_letter(s: &str) -> Option<Verdict> {
    match s {
        "s" => Some(Verdict::Stable),
        "d" => Some(Verdict::Diverging),
        "i" => Some(Verdict::Inconclusive),
        _ => None,
    }
}

impl FrontierCheckpoint {
    /// Start a fresh checkpoint at `path` (truncating any previous one)
    /// for a map of `points` points whose spec digests to `digest`
    /// ([`FrontierSpec::digest`](super::FrontierSpec::digest)).
    pub fn fresh(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::fresh_mode(path, digest, points, true)
    }

    /// Like [`fresh`](Self::fresh), but for a shard worker: rows may be
    /// recorded in any order (each point at most once).
    pub fn fresh_sharded(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::fresh_mode(path, digest, points, false)
    }

    fn fresh_mode(
        path: &Path,
        digest: u64,
        points: usize,
        sequential: bool,
    ) -> Result<Self, String> {
        let journal = Journal::create(path, &HEADER, digest, points)?;
        Ok(Self { journal, log: Log::new(points, sequential) })
    }

    /// Resume from `path`, verifying the digest and point count. A missing
    /// file, or one torn inside its header, starts fresh; a mismatch is
    /// refused.
    pub fn resume(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::resume_mode(path, digest, points, true)
    }

    /// Like [`resume`](Self::resume), but for a shard worker: recorded
    /// rows may appear in any order (each point at most once).
    pub fn resume_sharded(path: &Path, digest: u64, points: usize) -> Result<Self, String> {
        Self::resume_mode(path, digest, points, false)
    }

    fn resume_mode(
        path: &Path,
        digest: u64,
        points: usize,
        sequential: bool,
    ) -> Result<Self, String> {
        let mut log = Log::new(points, sequential);
        match Journal::open(path, &HEADER, digest, points, &mut |line| log.replay(line))? {
            Some(journal) => Ok(Self { journal, log }),
            None => Self::fresh_mode(path, digest, points, sequential),
        }
    }

    /// Record one solo probe verdict for map point `point`. Durable before
    /// returning.
    pub fn record_probe(&mut self, point: usize, verdict: Verdict) -> Result<(), String> {
        debug_assert!(point < self.log.points);
        self.journal.append([format_args!("probe {point} {}", verdict_letter(verdict))])?;
        self.log.probes.push(ProbeRecord { point, verdict, lanes: None });
        Ok(())
    }

    /// Record one seed-ensemble probe: the majority verdict plus the final
    /// batch's `(diverging, total)` lane tally — the replayable escalation
    /// event. Durable before returning.
    pub fn record_ensemble_probe(
        &mut self,
        point: usize,
        verdict: Verdict,
        diverging: usize,
        lanes: usize,
    ) -> Result<(), String> {
        debug_assert!(point < self.log.points);
        debug_assert!(diverging <= lanes && lanes > 0);
        let letter = verdict_letter(verdict);
        self.journal.append([format_args!("probe {point} {letter} {diverging} {lanes}")])?;
        self.log.probes.push(ProbeRecord { point, verdict, lanes: Some((diverging, lanes)) });
        Ok(())
    }

    /// Record that map point `index`'s output row is durably written. A
    /// sequential checkpoint requires `index` to be the next row in map
    /// order; a sharded one accepts any order but refuses a point recorded
    /// twice.
    pub fn record_row(&mut self, index: usize) -> Result<(), String> {
        self.log.check_row(index).map_err(|e| self.journal.context(&e))?;
        self.journal.append([format_args!("row {index}")])?;
        self.log.rows.push(index);
        Ok(())
    }

    /// The recorded probes, in recording (= verdict-arrival) order.
    pub fn probes(&self) -> &[ProbeRecord] {
        &self.log.probes
    }

    /// Number of output rows the checkpoint claims durable — the line
    /// count (minus any CSV header) to reconcile the output file to before
    /// resuming.
    pub fn rows_written(&self) -> usize {
        self.log.rows.len()
    }

    /// The recorded row indices in recording order: the j-th entry is the
    /// map point behind the j-th output row. For a sequential checkpoint
    /// this is always `0, 1, 2, …`; for a sharded one it is the shard's
    /// claim-and-emit order.
    pub fn row_indices(&self) -> &[usize] {
        &self.log.rows
    }

    /// The map size this checkpoint tracks.
    pub fn points(&self) -> usize {
        self.log.points
    }
}

impl Log {
    fn new(points: usize, sequential: bool) -> Self {
        Self { points, sequential, probes: Vec::new(), rows: Vec::new() }
    }

    /// Whether `index` may be the next recorded row.
    fn check_row(&self, index: usize) -> Result<(), String> {
        if self.sequential && index != self.rows.len() {
            return Err(format!(
                "row {index} recorded out of order (expected {})",
                self.rows.len()
            ));
        }
        if index >= self.points {
            return Err(format!("row {index} of a {}-point map", self.points));
        }
        if !self.sequential && self.rows.contains(&index) {
            return Err(format!("row {index} recorded twice"));
        }
        Ok(())
    }

    /// Apply one recorded line.
    fn replay(&mut self, line: &str) -> Result<(), String> {
        if let Some(rest) = line.strip_prefix("probe ") {
            let malformed = || format!("malformed probe line {line:?}");
            let mut fields = rest.split(' ');
            let point: usize = fields.next().and_then(|t| t.parse().ok()).ok_or_else(malformed)?;
            if point >= self.points {
                return Err(format!("probe for map point {point} of a {}-point map", self.points));
            }
            let verdict = fields.next().and_then(verdict_from_letter).ok_or_else(malformed)?;
            // Optional ensemble tally: `<diverging> <total>` lane counts.
            let lanes = match fields.next() {
                None => None,
                Some(div) => {
                    let div: usize = div.parse().map_err(|_| malformed())?;
                    let total: usize =
                        fields.next().and_then(|t| t.parse().ok()).ok_or_else(malformed)?;
                    if fields.next().is_some() || div > total || total == 0 {
                        return Err(malformed());
                    }
                    Some((div, total))
                }
            };
            self.probes.push(ProbeRecord { point, verdict, lanes });
        } else if let Some(index) = line.strip_prefix("row ") {
            let index: usize = index.parse().map_err(|_| format!("malformed row line {line:?}"))?;
            self.check_row(index)?;
            self.rows.push(index);
        } else {
            return Err(format!("malformed checkpoint line {line:?}"));
        }
        Ok(())
    }
}

type Recorded = (Vec<ProbeRecord>, Vec<usize>);

/// Read a *sharded* checkpoint without writing to it: `(probes, row
/// indices in append order)`, or `None` if it is missing or torn inside
/// its header. Used by `shard::merge` and `shard::status`, which inspect
/// worker checkpoints without opening them for append.
pub(crate) fn read_sharded(
    path: &Path,
    digest: u64,
    points: usize,
) -> Result<Option<Recorded>, String> {
    let mut log = Log::new(points, false);
    let present = journal::read(path, &HEADER, digest, points, &mut |line| log.replay(line))?;
    Ok(present.then_some((log.probes, log.rows)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-frontier-ckpt-{}-{tag}.ckpt", std::process::id()))
    }

    fn solo(point: usize, verdict: Verdict) -> ProbeRecord {
        ProbeRecord { point, verdict, lanes: None }
    }

    #[test]
    fn fresh_record_resume_round_trip() {
        let path = temp_path("roundtrip");
        let mut ck = FrontierCheckpoint::fresh(&path, 0xfeed, 3).unwrap();
        ck.record_probe(0, Verdict::Stable).unwrap();
        ck.record_probe(2, Verdict::Diverging).unwrap();
        ck.record_probe(0, Verdict::Inconclusive).unwrap();
        ck.record_row(0).unwrap();
        drop(ck);
        let ck = FrontierCheckpoint::resume(&path, 0xfeed, 3).unwrap();
        assert_eq!(
            ck.probes(),
            &[
                solo(0, Verdict::Stable),
                solo(2, Verdict::Diverging),
                solo(0, Verdict::Inconclusive)
            ]
        );
        assert_eq!(ck.rows_written(), 1);
        assert_eq!(ck.points(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ensemble_probes_round_trip_with_lane_tallies() {
        let path = temp_path("ensemble");
        let mut ck = FrontierCheckpoint::fresh(&path, 0xbead, 2).unwrap();
        ck.record_ensemble_probe(0, Verdict::Diverging, 4, 5).unwrap();
        ck.record_probe(1, Verdict::Stable).unwrap();
        ck.record_ensemble_probe(1, Verdict::Stable, 0, 3).unwrap();
        drop(ck);
        let ck = FrontierCheckpoint::resume(&path, 0xbead, 2).unwrap();
        assert_eq!(
            ck.probes(),
            &[
                ProbeRecord { point: 0, verdict: Verdict::Diverging, lanes: Some((4, 5)) },
                solo(1, Verdict::Stable),
                ProbeRecord { point: 1, verdict: Verdict::Stable, lanes: Some((0, 3)) },
            ]
        );
        let _ = std::fs::remove_file(&path);

        // malformed tallies are refused: more diverging than total lanes,
        // zero lanes, trailing junk
        for bad in ["probe 0 d 6 5", "probe 0 d 0 0", "probe 0 d 1 5 9"] {
            let path = temp_path("badtally");
            std::fs::write(&path, format!("{}{bad}\n", HEADER.render(1, 2))).unwrap();
            let err = FrontierCheckpoint::resume(&path, 1, 2).unwrap_err();
            assert!(err.contains("malformed probe line"), "{bad}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn refuses_mismatch_and_garbage() {
        let path = temp_path("mismatch");
        FrontierCheckpoint::fresh(&path, 7, 3).unwrap();
        assert!(FrontierCheckpoint::resume(&path, 8, 3).unwrap_err().contains("digest mismatch"));
        assert!(FrontierCheckpoint::resume(&path, 7, 4).unwrap_err().contains("size mismatch"));
        std::fs::write(&path, "nope\n").unwrap();
        assert!(FrontierCheckpoint::resume(&path, 7, 3).unwrap_err().contains("bad magic"));
        std::fs::write(&path, format!("{}probe 5 s\n", HEADER.render(7, 2))).unwrap();
        assert!(FrontierCheckpoint::resume(&path, 7, 2).unwrap_err().contains("map point 5"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_rows_must_be_ordered() {
        let path = temp_path("torn");
        let mut ck = FrontierCheckpoint::fresh(&path, 9, 4).unwrap();
        ck.record_probe(1, Verdict::Diverging).unwrap();
        drop(ck);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "probe 2 s").unwrap(); // torn: no newline
        drop(file);
        let ck = FrontierCheckpoint::resume(&path, 9, 4).unwrap();
        assert_eq!(ck.probes().len(), 1, "torn tail dropped");
        let _ = std::fs::remove_file(&path);

        let path = temp_path("order");
        std::fs::write(&path, format!("{}row 1\n", HEADER.render(9, 4))).unwrap();
        assert!(FrontierCheckpoint::resume(&path, 9, 4).unwrap_err().contains("out of order"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_ensemble_escalation_tail_is_dropped() {
        // A kill mid-append can tear an ensemble escalation event (`probe
        // <pt> <v> <diverging> <lanes>`) at any field boundary; every
        // prefix must be dropped, not misread as a (shorter) valid record.
        for torn in ["probe 2 d", "probe 2 d 4", "probe 2 d 4 9"] {
            let path = temp_path(&format!("torn-ens-{}", torn.len()));
            let mut ck = FrontierCheckpoint::fresh(&path, 0xabad, 4).unwrap();
            ck.record_ensemble_probe(0, Verdict::Stable, 1, 9).unwrap();
            ck.record_row(0).unwrap();
            drop(ck);
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            write!(file, "{torn}").unwrap(); // torn: no trailing newline
            drop(file);

            let mut ck = FrontierCheckpoint::resume(&path, 0xabad, 4).unwrap();
            assert_eq!(
                ck.probes(),
                &[ProbeRecord { point: 0, verdict: Verdict::Stable, lanes: Some((1, 9)) }],
                "{torn:?} must be dropped wholesale"
            );
            assert_eq!(ck.rows_written(), 1);

            // The resumed run re-executes the torn probe and appends it
            // cleanly after the torn bytes; a second resume sees both.
            ck.record_ensemble_probe(2, Verdict::Diverging, 4, 9).unwrap();
            drop(ck);
            let ck = FrontierCheckpoint::resume(&path, 0xabad, 4).unwrap();
            assert_eq!(ck.probes().len(), 2, "re-recorded escalation event survives");
            assert_eq!(
                ck.probes()[1],
                ProbeRecord { point: 2, verdict: Verdict::Diverging, lanes: Some((4, 9)) }
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn sharded_mode_accepts_any_row_order_but_refuses_duplicates() {
        let path = temp_path("sharded");
        let mut ck = FrontierCheckpoint::fresh_sharded(&path, 0xcafe, 4).unwrap();
        ck.record_probe(3, Verdict::Stable).unwrap();
        ck.record_row(3).unwrap(); // out of map order: fine for a shard
        ck.record_row(0).unwrap();
        assert!(ck.record_row(3).unwrap_err().contains("recorded twice"));
        assert!(ck.record_row(9).unwrap_err().contains("of a 4-point map"));
        drop(ck);
        let ck = FrontierCheckpoint::resume_sharded(&path, 0xcafe, 4).unwrap();
        assert_eq!(ck.row_indices(), &[3, 0], "append order preserved");
        assert_eq!(ck.rows_written(), 2);
        // the same file is refused by a sequential resume…
        let err = FrontierCheckpoint::resume(&path, 0xcafe, 4).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        // …and a duplicate row line is refused by the sharded parser
        std::fs::write(&path, format!("{}row 1\nrow 1\n", HEADER.render(5, 4))).unwrap();
        let err = FrontierCheckpoint::resume_sharded(&path, 5, 4).unwrap_err();
        assert!(err.contains("row 1 recorded twice"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_starts_fresh_and_record_row_enforces_order() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let mut ck = FrontierCheckpoint::resume(&path, 1, 2).unwrap();
        assert_eq!(ck.rows_written(), 0);
        assert!(path.exists());
        assert!(ck.record_row(1).unwrap_err().contains("out of order"));
        ck.record_row(0).unwrap();
        ck.record_row(1).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
