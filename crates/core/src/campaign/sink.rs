//! Result sinks: where completed scenarios go.
//!
//! The campaign executor hands every finished [`ScenarioRun`] to a single
//! [`ResultSink`], **in spec order**, through its commit stage: one
//! committer at a time accepts the consecutive finished rows while the
//! other workers keep simulating, and with a checkpoint it makes each
//! block of 8 rows durable with one [`ResultSink::sync`] (see
//! [`Campaign::run_subset`]). A sink decides what to keep:
//!
//! * [`CsvStreamSink`] / [`JsonLinesSink`] — constant-memory streaming:
//!   write each run through the [`row`](super::row) writers and drop it.
//!   These are the only campaign renderers. The CLI and the shard worker
//!   get theirs from
//!   [`Format::campaign_sink`](crate::output::Format::campaign_sink).
//! * [`FnSink`] — hand each run to a closure: [`Campaign::run`] collects
//!   runs into a [`CampaignResult`] this way, and the bench binaries score
//!   reports into comparisons and keep only scalars.
//! * [`TallySink`] — a transparent wrapper counting ok / violating /
//!   failed runs for progress summaries and exit codes.
//!
//! A sink returning `Err` aborts the campaign: no further scenarios are
//! dispatched, the run that failed to write is **not** checkpointed, and
//! [`Campaign::run_subset`] surfaces the error. That makes a failing sink
//! behave exactly like a killed process for checkpoint/resume purposes —
//! the resume tests simulate crashes this way.
//!
//! [`Campaign::run`]: super::Campaign::run
//! [`Campaign::run_subset`]: super::Campaign::run_subset
//! [`CampaignResult`]: super::CampaignResult

use std::io::Write;
use std::time::Duration;

use super::row::{csv_row, write_run_json, CSV_HEADER};
use super::ScenarioRun;

/// Consumer of completed scenarios, invoked in spec order by the executor.
///
/// Only the executor's calling thread, its committer, calls a sink, so
/// implementations need neither internal synchronization nor `Send`.
pub trait ResultSink {
    /// Consume one completed scenario. `index` is the scenario's position
    /// in the campaign's spec list (not the execution order, which equals
    /// it anyway, and not the position within a resumed subset).
    ///
    /// Returning `Err` aborts the campaign; the run is considered **not**
    /// persisted (it will re-execute on resume).
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String>;

    /// Make everything accepted so far durable (flush application buffers;
    /// fsync when the sink is file-backed — see [`DurableFile`]). With a
    /// checkpoint, the executor calls this once per commit block,
    /// **before** recording the block, so the checkpoint can never claim
    /// more than the output durably holds.
    fn sync(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Told once per commit block, after its [`sync`](Self::sync) and its
    /// checkpoint append both returned: `barrier` is how long the two took
    /// together. [`ObservedSink`](crate::obs::ObservedSink) reports it as
    /// an `Fsync` event and wrappers forward it; other sinks ignore it.
    fn committed(&mut self, _barrier: Duration) {}

    /// Called once after the last accepted scenario of a successful
    /// campaign (not after an abort). Flush buffers here.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// A boxed sink is a sink, so a sink picked at run time
/// ([`Format::campaign_sink`](crate::output::Format::campaign_sink)) fits
/// inside the generic wrappers ([`TallySink`],
/// [`ObservedSink`](crate::obs::ObservedSink)).
impl<S: ResultSink + ?Sized> ResultSink for Box<S> {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        (**self).accept(index, run)
    }

    fn sync(&mut self) -> Result<(), String> {
        (**self).sync()
    }

    fn committed(&mut self, barrier: Duration) {
        (**self).committed(barrier);
    }

    fn finish(&mut self) -> Result<(), String> {
        (**self).finish()
    }
}

/// A buffered campaign-output file whose `flush` also fsyncs
/// (`File::sync_data`), giving a streaming sink the same power-loss
/// durability as the checkpoint it pairs with: the executor accepts a
/// block's rows, calls [`ResultSink::sync`], and only then
/// [`Checkpoint::record_all`]s them, so every checkpointed row is durably
/// on disk.
///
/// [`Checkpoint::record_all`]: super::Checkpoint::record_all
#[derive(Debug)]
pub struct DurableFile {
    inner: std::io::BufWriter<std::fs::File>,
}

impl DurableFile {
    /// Wrap an open output file.
    pub fn new(file: std::fs::File) -> Self {
        Self { inner: std::io::BufWriter::new(file) }
    }
}

impl Write for DurableFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        self.inner.get_ref().sync_data()
    }
}

/// Constant-memory CSV writer: header (see [`CSV_HEADER`]) plus one row
/// per scenario, formatted by the shared [`row`](super::row) helper and
/// dropped immediately.
#[derive(Debug)]
pub struct CsvStreamSink<W: Write> {
    out: W,
    header_pending: bool,
}

impl<W: Write> CsvStreamSink<W> {
    /// A sink that writes the CSV header before the first row.
    pub fn new(out: W) -> Self {
        Self { out, header_pending: true }
    }

    /// A sink that appends rows only — for resuming into a file that
    /// already has its header.
    pub fn appending(out: W) -> Self {
        Self { out, header_pending: false }
    }

    /// Recover the writer (e.g. the byte buffer in tests).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ResultSink for CsvStreamSink<W> {
    fn accept(&mut self, _index: usize, run: ScenarioRun) -> Result<(), String> {
        if self.header_pending {
            self.header_pending = false;
            writeln!(self.out, "{CSV_HEADER}").map_err(|e| format!("csv sink: {e}"))?;
        }
        writeln!(self.out, "{}", csv_row(&run)).map_err(|e| format!("csv sink: {e}"))
    }

    fn sync(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("csv sink: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        // An empty campaign still gets its header.
        if self.header_pending {
            self.header_pending = false;
            writeln!(self.out, "{CSV_HEADER}").map_err(|e| format!("csv sink: {e}"))?;
        }
        self.out.flush().map_err(|e| format!("csv sink: {e}"))
    }
}

/// Constant-memory JSON-Lines writer: one compact
/// `{"index":…,"spec":…,"report":…|"error":…}` object per line. Each row
/// is written by [`row::write_run_json`](super::row::write_run_json) into
/// one reused buffer and handed to the writer in a single `write_all`.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    /// The row being written; cleared, not freed, between rows.
    line: String,
}

impl<W: Write> JsonLinesSink<W> {
    /// A sink writing to `out`. JSON Lines has no header, so fresh and
    /// resumed campaigns construct it the same way.
    pub fn new(out: W) -> Self {
        Self { out, line: String::new() }
    }

    /// Recover the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ResultSink for JsonLinesSink<W> {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        self.line.clear();
        write_run_json(&mut self.line, index, &run);
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes()).map_err(|e| format!("jsonl sink: {e}"))
    }

    fn sync(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("jsonl sink: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("jsonl sink: {e}"))
    }
}

/// Adapt a closure into a sink. The closure owns what to keep — the bench
/// binaries use this to score each report into a small comparison and drop
/// the report.
pub struct FnSink<F>(pub F)
where
    F: FnMut(usize, ScenarioRun) -> Result<(), String>;

impl<F> ResultSink for FnSink<F>
where
    F: FnMut(usize, ScenarioRun) -> Result<(), String>,
{
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        (self.0)(index, run)
    }
}

/// Transparent wrapper that tallies outcomes on their way to an inner
/// sink: how many ran clean, how many violated a model invariant, and how
/// many failed to run at all. The CLI uses it for progress summaries and
/// the exit code without buffering anything.
#[derive(Debug)]
pub struct TallySink<S: ResultSink> {
    inner: S,
    ok: usize,
    unclean: usize,
    failed: usize,
}

impl<S: ResultSink> TallySink<S> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        Self { inner, ok: 0, unclean: 0, failed: 0 }
    }

    /// Runs that completed and respected every invariant.
    pub fn ok(&self) -> usize {
        self.ok
    }

    /// Runs that completed but violated a model invariant.
    pub fn unclean(&self) -> usize {
        self.unclean
    }

    /// Scenarios that failed to run (bad name, bad parameters, panic).
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Unwrap the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ResultSink> ResultSink for TallySink<S> {
    fn accept(&mut self, index: usize, run: ScenarioRun) -> Result<(), String> {
        match &run.outcome {
            Ok(report) if report.clean() => self.ok += 1,
            Ok(_) => self.unclean += 1,
            Err(_) => self.failed += 1,
        }
        self.inner.accept(index, run)
    }

    fn sync(&mut self) -> Result<(), String> {
        self.inner.sync()
    }

    fn committed(&mut self, barrier: Duration) {
        self.inner.committed(barrier);
    }

    fn finish(&mut self) -> Result<(), String> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScenarioSpec;
    use super::*;

    fn failed_run(error: &str) -> ScenarioRun {
        ScenarioRun { spec: ScenarioSpec::new("a", "b"), outcome: Err(error.into()) }
    }

    #[test]
    fn csv_sink_writes_header_once_and_rows() {
        let mut sink = CsvStreamSink::new(Vec::new());
        sink.accept(0, failed_run("x")).unwrap();
        sink.accept(1, failed_run("y")).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].ends_with("x") && lines[2].ends_with("y"));
    }

    #[test]
    fn appending_csv_sink_skips_header_and_empty_sink_still_writes_it() {
        let mut sink = CsvStreamSink::appending(Vec::new());
        sink.accept(5, failed_run("x")).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(!text.contains("label,"), "{text}");

        let mut sink = CsvStreamSink::new(Vec::new());
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 1, "empty campaign exports a bare header");
    }

    #[test]
    fn jsonl_sink_emits_one_object_per_line_with_original_index() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.accept(7, failed_run("boom")).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"index\":7,"), "{text}");
        assert!(text.contains("\"error\":\"boom\""));
    }

    #[test]
    fn tally_counts_failures_and_delegates() {
        let mut sink = TallySink::new(JsonLinesSink::new(Vec::new()));
        sink.accept(0, failed_run("x")).unwrap();
        sink.accept(1, failed_run("y")).unwrap();
        assert_eq!((sink.ok(), sink.unclean(), sink.failed()), (0, 0, 2));
        let text = String::from_utf8(sink.into_inner().into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }
}
