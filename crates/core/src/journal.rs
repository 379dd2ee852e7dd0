//! One durable line journal: the crash contract of every progress log.
//!
//! The campaign checkpoint (`campaign.ckpt`), the frontier checkpoint
//! (`frontier.ckpt`, sequential and sharded) and the fleet's claim log
//! (`claims.log`) are the same kind of file: a three-line v1 header that
//! binds the log to one digest and one count, then one record per line.
//! This module owns that file — the header, opening, reading complete
//! lines, appending — and the reconcile of the output a journal vouches
//! for ([`reopen_output`]). Each log keeps its own record grammar and
//! validation.
//!
//! ```text
//! emac-campaign-ckpt v1        magic: which log, format v1
//! digest 4a3f9c0e12b45d67      the spec (or plan) digest it belongs to
//! total 128                    its count: scenarios, map points or units
//! done 0                       one record per line
//! ```
//!
//! The header is one `write_all` made durable with `sync_all`. Each append
//! — one record, or a campaign's whole commit block of records — is one
//! `write_all` made durable with one `sync_data` before it returns.
//!
//! # Crash contract
//!
//! A kill or power loss can stop a journal at any byte. Opening one
//! classifies what it finds:
//!
//! * **The expected header, then records.** Every complete line is a
//!   record. A torn final fragment (no trailing newline) is ignored when
//!   reading and cut off when reopening for append, so the next record
//!   starts a line of its own.
//! * **A proper prefix of the expected header**, the empty file included.
//!   The journal was torn while being created, before any record could
//!   land, so it reads as absent, like a missing file: a checkpoint starts
//!   fresh and a merge sees no records. The claim log is the exception:
//!   concurrent workers open it, so [`ClaimTable`](crate::shard::ClaimTable)
//!   refuses a torn header by name and never rewrites it.
//! * **Anything else** belongs to another run or is not a journal, and is
//!   refused with a named error: bad magic, digest mismatch, count
//!   mismatch, or a malformed header line.
//!
//! A record therefore counts once its newline is durable, and resuming
//! from any prefix of a journal gives the output of an uninterrupted run;
//! `tests/journal_crash.rs` cuts every log at every byte offset to prove
//! it. A flipped byte inside a complete line is outside this model:
//! catching one needs per-record checksums, which the v1 format lacks.

use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

use crate::campaign::sink::DurableFile;

/// The fixed identity of one kind of journal: its header lines and the
/// words its errors use.
#[derive(Debug)]
pub(crate) struct Header {
    /// First line: the log's name and format version.
    pub magic: &'static str,
    /// What the log is, for error messages ("campaign checkpoint").
    pub noun: &'static str,
    /// Key of the third header line ("total", "points", "units").
    pub count: &'static str,
    /// What a count mismatch is called ("scenario count").
    pub count_name: &'static str,
    /// Why a digest mismatch is refused.
    pub changed: &'static str,
}

impl Header {
    pub(crate) fn render(&self, digest: u64, count: usize) -> String {
        format!("{}\ndigest {digest:016x}\n{} {count}\n", self.magic, self.count)
    }

    /// The header's length if `text` starts with the expected header;
    /// `None` if `text` is a proper prefix of it (torn while being
    /// created); otherwise the named reason it is refused.
    fn check(&self, text: &str, digest: u64, count: usize) -> Result<Option<usize>, String> {
        let expected = self.render(digest, count);
        if text.starts_with(&expected) {
            return Ok(Some(expected.len()));
        }
        if expected.starts_with(text) {
            return Ok(None);
        }
        let mut lines = text.split('\n');
        if lines.next() != Some(self.magic) {
            return Err(format!("not a {} (bad magic line)", self.noun));
        }
        let recorded = lines
            .next()
            .and_then(|l| l.strip_prefix("digest "))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("malformed digest line")?;
        if recorded != digest {
            return Err(format!(
                "digest mismatch (recorded {recorded:016x}, expected {digest:016x}): {}; \
                 refusing to resume",
                self.changed
            ));
        }
        let recorded = lines
            .next()
            .and_then(|l| l.strip_prefix(self.count)?.strip_prefix(' '))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| format!("malformed {} line", self.count))?;
        if recorded != count {
            return Err(format!(
                "{} mismatch (recorded {recorded}, expected {count}); refusing to resume",
                self.count_name
            ));
        }
        Err("malformed header (not in canonical form)".into())
    }
}

/// An open journal. Each [`append`](Self::append) is one `write_all` of a
/// whole line, durable before it returns. Journals reopened with
/// [`open`](Self::open) or created with [`create_new`](Self::create_new)
/// append with `O_APPEND`, so processes sharing one journal through their
/// own handles never overwrite each other's lines.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    path: PathBuf,
    header: &'static Header,
}

impl Journal {
    /// Start a journal at `path`, truncating any previous file.
    pub(crate) fn create(
        path: &Path,
        header: &'static Header,
        digest: u64,
        count: usize,
    ) -> Result<Self, String> {
        Self::start(File::create(path), path, header, digest, count)
    }

    /// Start a journal at `path`, which must not exist yet (`O_EXCL`).
    pub(crate) fn create_new(
        path: &Path,
        header: &'static Header,
        digest: u64,
        count: usize,
    ) -> Result<Self, String> {
        let file = OpenOptions::new().append(true).create_new(true).open(path);
        Self::start(file, path, header, digest, count)
    }

    fn start(
        file: std::io::Result<File>,
        path: &Path,
        header: &'static Header,
        digest: u64,
        count: usize,
    ) -> Result<Self, String> {
        let file = file.map_err(|e| context(header, path, &e))?;
        let journal = Self { file, path: path.to_path_buf(), header };
        (&journal.file)
            .write_all(header.render(digest, count).as_bytes())
            .and_then(|()| journal.file.sync_all())
            .map_err(|e| journal.context(&e))?;
        Ok(journal)
    }

    /// Reopen the journal at `path` for appending: check its header, hand
    /// every complete record line to `record` in order, then cut a torn
    /// final fragment. `Ok(None)` if the file is missing or torn inside
    /// its header; nothing is written then, nor when `record` refuses a
    /// line.
    pub(crate) fn open(
        path: &Path,
        header: &'static Header,
        digest: u64,
        count: usize,
        record: &mut dyn FnMut(&str) -> Result<(), String>,
    ) -> Result<Option<Self>, String> {
        let file = match OpenOptions::new().read(true).append(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(context(header, path, &e)),
        };
        let journal = Self { file, path: path.to_path_buf(), header };
        let mut text = String::new();
        (&journal.file).read_to_string(&mut text).map_err(|e| journal.context(&e))?;
        let Some(complete) =
            scan(&text, header, digest, count, record).map_err(|e| journal.context(&e))?
        else {
            return Ok(None);
        };
        cut(&journal.file, text.len() as u64, complete as u64).map_err(|e| journal.context(&e))?;
        Ok(Some(journal))
    }

    /// Append `records`, one line each (the newlines are added here),
    /// with one `write_all`, and make them durable with one `sync_data`.
    pub(crate) fn append<R: fmt::Display>(
        &self,
        records: impl IntoIterator<Item = R>,
    ) -> Result<(), String> {
        let mut text = String::new();
        for record in records {
            let _ = writeln!(text, "{record}");
        }
        (&self.file)
            .write_all(text.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| self.context(&e))
    }

    /// `err`, prefixed with which journal it concerns.
    pub(crate) fn context(&self, err: &dyn fmt::Display) -> String {
        context(self.header, &self.path, err)
    }
}

fn context(header: &Header, path: &Path, err: &dyn fmt::Display) -> String {
    format!("{} {}: {err}", header.noun, path.display())
}

/// Read the journal at `path` without writing to it: check its header and
/// hand every complete record line to `record` in order. `Ok(false)` if
/// the file is missing or torn inside its header.
pub(crate) fn read(
    path: &Path,
    header: &'static Header,
    digest: u64,
    count: usize,
    record: &mut dyn FnMut(&str) -> Result<(), String>,
) -> Result<bool, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(context(header, path, &e)),
    };
    let scanned = scan(&text, header, digest, count, record);
    scanned.map(|complete| complete.is_some()).map_err(|e| context(header, path, &e))
}

/// Check `text`'s header and hand each complete, non-empty record line to
/// `record`. Returns the length of the complete lines (where a torn final
/// fragment starts), or `None` if `text` is torn inside its header.
fn scan(
    text: &str,
    header: &Header,
    digest: u64,
    count: usize,
    record: &mut dyn FnMut(&str) -> Result<(), String>,
) -> Result<Option<usize>, String> {
    let Some(start) = header.check(text, digest, count)? else {
        return Ok(None);
    };
    let complete = complete_len(text);
    for line in text[start..complete].split_terminator('\n').filter(|l| !l.is_empty()) {
        record(line)?;
    }
    Ok(Some(complete))
}

/// Length of `text` up to and including its last newline.
fn complete_len(text: &str) -> usize {
    text.rfind('\n').map_or(0, |i| i + 1)
}

/// Cut `file`, `len` bytes long, back to its first `keep` bytes, durably.
/// This is the one truncation every torn tail and every unvouched output
/// row goes through.
fn cut(file: &File, len: u64, keep: u64) -> std::io::Result<()> {
    if keep < len {
        file.set_len(keep)?;
        file.sync_data()?;
    }
    Ok(())
}

/// Open the headerless line log at `path` for appending, creating it if
/// missing: a torn final fragment is cut first, so the next line starts
/// on a line of its own. This is the event log's discipline, where every
/// complete line stands alone.
pub(crate) fn append_lines(path: &Path) -> std::io::Result<File> {
    let file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut text = String::new();
    (&file).read_to_string(&mut text)?;
    cut(&file, text.len() as u64, complete_len(&text) as u64)?;
    Ok(file)
}

/// Reopen the output file a journal vouches for: its first `rows` rows
/// after `preamble` lines (1 for a CSV header, else 0). Exactly those
/// lines are kept and everything after them is cut — complete rows whose
/// record never landed and torn fragments alike — so those rows re-run
/// and the output ends byte-identical to an uninterrupted run. With
/// `rows == 0` the output starts afresh. Returns the writer, appending
/// after the kept lines, and the number of bytes cut.
///
/// An output holding fewer lines than the journal vouches for was
/// modified or replaced since, and is refused. The scan streams in
/// fixed-size chunks, so any output size reconciles in constant memory.
pub fn reopen_output(
    path: &Path,
    rows: usize,
    preamble: usize,
) -> Result<(DurableFile, u64), String> {
    if rows == 0 {
        let file = File::create(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        return Ok((DurableFile::new(file), 0));
    }
    let refuse = |e: std::io::Error| {
        format!("cannot reconcile {} with its checkpoint: {e}; refusing to resume", path.display())
    };
    let file = OpenOptions::new().read(true).append(true).open(path).map_err(refuse)?;
    let len = file.metadata().map_err(refuse)?.len();
    let Some(keep) = line_end(&file, (rows + preamble) as u64).map_err(refuse)? else {
        return Err(format!(
            "{} holds fewer rows than its checkpoint records ({rows}); \
             refusing to resume against a modified output",
            path.display()
        ));
    };
    cut(&file, len, keep).map_err(refuse)?;
    Ok((DurableFile::new(file), len - keep))
}

/// Byte offset just past the `lines`-th newline of `file`, or `None` if it
/// holds fewer.
fn line_end(mut file: &File, lines: u64) -> std::io::Result<Option<u64>> {
    let mut buf = [0u8; 8192];
    let (mut seen, mut offset) = (0u64, 0u64);
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        for (i, _) in buf[..n].iter().enumerate().filter(|&(_, &b)| b == b'\n') {
            seen += 1;
            if seen == lines {
                return Ok(Some(offset + i as u64 + 1));
            }
        }
        offset += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{checkpoint, Checkpoint, MetricsDetail};
    use crate::frontier::{self, FrontierCheckpoint};
    use crate::output::Format;
    use crate::shard::{self, ClaimTable, ShardPlan};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emac-journal-unit-{}-{tag}", std::process::id()))
    }

    fn bytes(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn header_tears_read_as_absent_and_body_tears_are_cut() {
        // Every proper prefix of a checkpoint header, the empty file
        // included, is a checkpoint torn while being created: it resumes
        // fresh and then holds exactly the header.
        let path = temp_path("header-tear.ckpt");
        let header = checkpoint::HEADER.render(0xd1, 4);
        for cut in 0..header.len() {
            std::fs::write(&path, &header[..cut]).unwrap();
            assert_eq!(checkpoint::read_done(&path, 0xd1, 4).unwrap(), None, "cut {cut}");
            let ck = Checkpoint::resume(&path, 0xd1, 4).unwrap();
            assert_eq!(ck.completed(), 0, "cut {cut}");
            assert_eq!(bytes(&path), header, "cut {cut}");
        }
        let header = frontier::checkpoint::HEADER.render(0xf2, 3);
        for cut in 0..header.len() {
            for sharded in [false, true] {
                std::fs::write(&path, &header[..cut]).unwrap();
                let ck = if sharded {
                    FrontierCheckpoint::resume_sharded(&path, 0xf2, 3)
                } else {
                    FrontierCheckpoint::resume(&path, 0xf2, 3)
                };
                assert_eq!(ck.unwrap().probes(), &[], "cut {cut}");
                assert_eq!(bytes(&path), header, "cut {cut}");
            }
        }

        // A torn record line is cut before the next append, so the record
        // appended after the resume starts a line of its own.
        let header = checkpoint::HEADER.render(0, 2);
        std::fs::write(&path, format!("{header}done 0\ndone 1")).unwrap();
        let mut ck = Checkpoint::resume(&path, 0, 2).unwrap();
        assert_eq!(ck.completed(), 1);
        assert_eq!(bytes(&path), format!("{header}done 0\n"));
        ck.record(1).unwrap();
        assert_eq!(bytes(&path), format!("{header}done 0\ndone 1\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_and_other_runs_keep_their_named_errors() {
        let path = temp_path("foreign.ckpt");
        let refused = |text: &str, needles: &[&str]| {
            std::fs::write(&path, text).unwrap();
            for err in [
                Checkpoint::resume(&path, 7, 4).unwrap_err(),
                checkpoint::read_done(&path, 7, 4).unwrap_err(),
            ] {
                for needle in needles {
                    assert!(err.contains(needle), "{text:?}: {err}");
                }
            }
            assert_eq!(bytes(&path), text, "a refused journal is left as it was");
        };
        let header = checkpoint::HEADER.render(7, 4);
        refused("something else\n", &["bad magic"]);
        refused(&checkpoint::HEADER.render(8, 4), &["digest mismatch", "refusing to resume"]);
        refused(&checkpoint::HEADER.render(7, 5), &["count mismatch", "refusing to resume"]);
        refused(&header.replace("total 4", "total 04"), &["malformed header"]);
        refused(&header.replace("total 4", "total x"), &["malformed total line"]);
        // A header torn while another spec's checkpoint was created is
        // not a prefix of this one's: it belongs to another run.
        let other = checkpoint::HEADER.render(0xff << 56, 4);
        refused(&other[..other.find("digest ").unwrap() + 8], &["digest mismatch"]);
        // The torn tail of a refused journal is not cut either.
        refused(&format!("{}done 1\ndo", checkpoint::HEADER.render(8, 4)), &["digest mismatch"]);

        let header = frontier::checkpoint::HEADER.render(7, 3);
        std::fs::write(&path, &header).unwrap();
        let err = FrontierCheckpoint::resume(&path, 7, 2).unwrap_err();
        assert!(err.contains("size mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn claim_log_torn_in_its_header_is_refused_not_rewritten() {
        let dir = temp_path("claims");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ClaimTable::create(&dir, 0xc1, 4).unwrap();
        let log = dir.join("claims.log");
        let header = bytes(&log);
        for cut in 0..header.len() {
            std::fs::write(&log, &header[..cut]).unwrap();
            let err = ClaimTable::open(&dir, 0xc1, 4).unwrap_err();
            assert!(err.contains("torn"), "cut {cut}: {err}");
            assert_eq!(bytes(&log), header[..cut], "cut {cut}: never rewritten");
        }
        std::fs::write(&log, &header).unwrap();
        let err = ClaimTable::open(&dir, 0xc1, 5).unwrap_err();
        assert!(err.contains("unit count mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_reports_a_shard_torn_in_its_header_unfinished() {
        let spec = r#"[{"algorithm": "count-hop", "adversary": "uniform", "n": 4, "rounds": 64}]"#;
        let dir = temp_path("merge");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = ShardPlan::build(spec, Format::Csv, MetricsDetail::Slim, 1).unwrap();
        plan.save(&dir).unwrap();
        let claims = ClaimTable::open(&dir, plan.digest, 1).unwrap();
        assert!(claims.try_claim(0, 0).unwrap());
        let shard_dir = dir.join("shard-0");
        std::fs::create_dir_all(&shard_dir).unwrap();
        std::fs::write(shard_dir.join("campaign.csv"), "").unwrap();
        let header = checkpoint::HEADER.render(plan.shard_digest(0), 1);
        for cut in 0..header.len() {
            std::fs::write(shard_dir.join("campaign.ckpt"), &header[..cut]).unwrap();
            let err = shard::merge(&dir, &dir.join("merged.csv")).unwrap_err();
            assert!(err.contains("shard 0 is unfinished"), "cut {cut}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_output_keeps_exactly_the_vouched_rows() {
        let path = temp_path("output.csv");
        // 3 complete rows + a torn fragment; vouching for 2 cuts "row2\ntorn"
        std::fs::write(&path, "row0\nrow1\nrow2\ntorn").unwrap();
        let (mut out, cut) = reopen_output(&path, 2, 0).unwrap();
        assert_eq!(cut, 9);
        out.write_all(b"again\n").unwrap();
        out.flush().unwrap();
        assert_eq!(bytes(&path), "row0\nrow1\nagain\n", "appends after the kept rows");
        // a CSV header is kept on top of the vouched rows
        std::fs::write(&path, "head\nrow0\nrow1\n").unwrap();
        assert_eq!(reopen_output(&path, 1, 1).unwrap().1, 5);
        assert_eq!(bytes(&path), "head\nrow0\n");
        // already exact: nothing cut
        assert_eq!(reopen_output(&path, 1, 1).unwrap().1, 0);
        // fewer lines than the journal vouches for: modified, refused
        let err = reopen_output(&path, 2, 1).unwrap_err();
        assert!(err.contains("fewer rows") && err.contains("refusing to resume"), "{err}");
        assert_eq!(bytes(&path), "head\nrow0\n", "a refused output is left as it was");
        // nothing vouched for: the output starts afresh
        reopen_output(&path, 0, 1).unwrap();
        assert_eq!(bytes(&path), "");
        let _ = std::fs::remove_file(&path);
        // a missing output the journal vouches rows for is refused
        let err = reopen_output(&path, 1, 0).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
    }

    #[test]
    fn reopen_output_streams_across_chunks() {
        let path = temp_path("output-big.csv");
        // rows long enough that the kept newline sits beyond one 8 KiB chunk
        let row = "x".repeat(5_000);
        std::fs::write(&path, format!("{row}\n{row}\n{row}\npartial")).unwrap();
        assert_eq!(reopen_output(&path, 2, 0).unwrap().1, 5_001 + 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * 5_001);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_lines_cuts_a_torn_final_line() {
        let path = temp_path("events.jsonl");
        // torn third line: cut back to the last newline
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"c\":").unwrap();
        append_lines(&path).unwrap();
        assert_eq!(bytes(&path), "{\"a\":1}\n{\"b\":2}\n");
        // a torn fragment with no newline at all empties the file
        std::fs::write(&path, "{\"t").unwrap();
        append_lines(&path).unwrap();
        assert_eq!(bytes(&path), "");
        // a clean file is left untouched, and appends land after it
        std::fs::write(&path, "{\"a\":1}\n").unwrap();
        append_lines(&path).unwrap().write_all(b"{\"b\":2}\n").unwrap();
        assert_eq!(bytes(&path), "{\"a\":1}\n{\"b\":2}\n");
        // a missing file is created
        let _ = std::fs::remove_file(&path);
        append_lines(&path).unwrap();
        assert_eq!(bytes(&path), "");
        let _ = std::fs::remove_file(&path);
    }
}
