//! Result-row formatting: the **single** place where a scenario outcome
//! becomes a CSV row ([`csv_row`]) or a JSON Lines row
//! ([`write_run_json`]), called by the streaming sinks ([`CsvStreamSink`],
//! [`JsonLinesSink`]) as each row commits. The JSON row writer appends
//! straight into a caller's buffer — the sink reuses one `String` for
//! every row — and streams the queue series and delay buckets through a
//! stack buffer of ASCII bytes a chunk at a time, building no JSON tree
//! for the report; only the small spec
//! object goes through [`Json`](super::json::Json). Derived columns —
//! latency, mean delay, peak queue, energy per round, the stability slope
//! — are computed here once, from the report's scalar fields, never
//! re-derived from `queue_series` (which the `Slim` metrics detail drops).
//!
//! [`CsvStreamSink`]: super::sink::CsvStreamSink
//! [`JsonLinesSink`]: super::sink::JsonLinesSink

use std::fmt::Write as _;

use emac_sim::Rate;

use super::json::{write_escaped, write_f64, write_i64, write_json_u64, AsciiChunks};
use super::{push_rate, rate_str, ScenarioRun};
use crate::runner::RunReport;

/// Columns of every campaign CSV export.
pub const CSV_HEADER: &str = "label,algorithm,adversary,n,k,rho,beta,rounds,seed,cap,\
     injected,delivered,latency_max,delay_mean,max_queue,energy_per_round,slope,verdict,\
     clean,drained,error";

/// One scenario outcome as a CSV row (no trailing newline), matching
/// [`CSV_HEADER`].
pub fn csv_row(run: &ScenarioRun) -> String {
    let spec = &run.spec;
    let mut row = vec![
        csv_field(&spec.display_label()),
        csv_field(&spec.algorithm),
        csv_field(&spec.adversary),
        spec.n.to_string(),
        spec.k.to_string(),
        rate_str(spec.rho),
        rate_str(spec.beta),
        spec.rounds.to_string(),
        spec.seed.to_string(),
        spec.cap.map(|c| c.to_string()).unwrap_or_default(),
    ];
    match &run.outcome {
        Ok(r) => row.extend([
            r.metrics.injected.to_string(),
            r.metrics.delivered.to_string(),
            r.latency().to_string(),
            format!("{:.3}", r.metrics.delay.mean()),
            r.max_queue().to_string(),
            format!("{:.4}", r.metrics.energy_per_round()),
            format!("{:.6}", r.stability.slope),
            format!("{:?}", r.stability.verdict),
            r.clean().to_string(),
            r.drained.map(|d| d.to_string()).unwrap_or_default(),
            String::new(),
        ]),
        Err(e) => {
            row.extend(std::iter::repeat_n(String::new(), 10));
            row.push(csv_field(e));
        }
    }
    row.join(",")
}

/// Append one scenario outcome to `out` as a compact JSON object, without
/// a newline: `index` (position in the spec list), the `spec`, and either
/// the `report` or the `error`. This is the line format of
/// [`JsonLinesSink`], and the one place that fixes a row's keys, their
/// order and their formatting.
///
/// The report's fields are written in this order: the scalars always, then
/// `violations` when the run is unclean, `drained` when a drain ran, the
/// bulky series — `queue_series` and `delay_log2_buckets` — only when
/// present (the `Slim` metrics detail clears them before export), and the
/// fault counters only when nonzero. The series stream into `out` a chunk
/// of bytes at a time.
///
/// [`JsonLinesSink`]: super::sink::JsonLinesSink
pub fn write_run_json(out: &mut String, index: usize, run: &ScenarioRun) {
    out.push_str("{\"index\":");
    write_i64(out, index as i64);
    out.push_str(",\"spec\":");
    run.spec.to_json().write(out);
    match &run.outcome {
        Ok(report) => {
            out.push_str(",\"report\":");
            write_report(out, report);
        }
        Err(e) => {
            out.push_str(",\"error\":");
            write_escaped(out, e);
        }
    }
    out.push('}');
}

/// Start the next member of an open object: `,"key":`. Keys are plain
/// ASCII and need no escaping.
fn key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// A rate as the JSON string `"p/q"`, or `"p"` for an integer.
fn write_rate(out: &mut String, r: Rate) {
    out.push('"');
    push_rate(out, r);
    out.push('"');
}

/// A [`RunReport`] as a JSON object, in the order [`write_run_json`]
/// documents.
fn write_report(out: &mut String, r: &RunReport) {
    let m = &r.metrics;
    out.push_str("{\"algorithm\":");
    write_escaped(out, &r.algorithm);
    for (name, value) in [("n", r.n as i64), ("cap", r.cap as i64)] {
        key(out, name);
        write_i64(out, value);
    }
    key(out, "rho");
    write_rate(out, r.rho);
    key(out, "beta");
    write_rate(out, r.beta);
    for (name, value) in [
        ("rounds", r.rounds),
        ("injected", m.injected),
        ("delivered", m.delivered),
        ("latency_max", r.latency()),
    ] {
        key(out, name);
        write_i64(out, value as i64);
    }
    key(out, "delay_mean");
    write_f64(out, m.delay.mean());
    key(out, "max_queue");
    write_i64(out, r.max_queue() as i64);
    for (name, value) in [
        ("energy_per_round", m.energy_per_round()),
        ("goodput", m.goodput()),
        ("slope", r.stability.slope),
    ] {
        key(out, name);
        write_f64(out, value);
    }
    key(out, "verdict");
    let _ = write!(out, "\"{:?}\"", r.stability.verdict);
    let clean = r.clean();
    key(out, "clean");
    out.push_str(if clean { "true" } else { "false" });
    if !clean {
        key(out, "violations");
        write_escaped(out, &r.violations.to_string());
    }
    if let Some(drained) = r.drained {
        key(out, "drained");
        out.push_str(if drained { "true" } else { "false" });
    }
    if !m.queue_series.is_empty() {
        key(out, "queue_series");
        let mut series = AsciiChunks::new(out);
        series.push(b'[');
        for (i, s) in m.queue_series.iter().enumerate() {
            if i > 0 {
                series.push(b',');
            }
            series.push(b'[');
            series.json_u64(s.round);
            series.push(b',');
            series.json_u64(s.total_queued);
            series.push(b']');
        }
        series.push(b']');
        series.finish();
    }
    let buckets = m.delay.log2_buckets();
    if let Some(last) = buckets.iter().rposition(|&c| c != 0) {
        key(out, "delay_log2_buckets");
        let mut series = AsciiChunks::new(out);
        series.push(b'[');
        for (i, &count) in buckets[..=last].iter().enumerate() {
            if i > 0 {
                series.push(b',');
            }
            series.json_u64(count);
        }
        series.push(b']');
        series.finish();
    }
    // Fault telemetry, emitted only when nonzero: fault-free rows (and all
    // Slim rows — `Metrics::slim` zeroes these) keep their exact bytes.
    for (name, count) in
        [("jammed_rounds", m.jammed_rounds), ("crashes", m.crashes), ("deaf_rounds", m.deaf_rounds)]
    {
        if count != 0 {
            key(out, name);
            write_json_u64(out, count);
        }
    }
    out.push('}');
}

pub(crate) fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::json::Json;
    use super::super::ScenarioSpec;
    use super::*;

    #[test]
    fn csv_escapes_awkward_labels() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn error_rows_pad_every_report_column() {
        let run =
            ScenarioRun { spec: ScenarioSpec::new("a", "b"), outcome: Err("it, broke".into()) };
        let row = csv_row(&run);
        assert_eq!(
            row.matches(',').count(),
            CSV_HEADER.matches(',').count() + 1,
            "error text is escaped, so the column count matches the header: {row}"
        );
        assert!(row.ends_with("\"it, broke\""));
    }

    #[test]
    fn run_json_carries_index_and_error() {
        let run = ScenarioRun { spec: ScenarioSpec::new("a", "b"), outcome: Err("nope".into()) };
        let mut line = String::new();
        write_run_json(&mut line, 3, &run);
        let json = Json::parse(&line).expect("the writer emits one JSON object");
        assert_eq!(json.get("index").and_then(Json::as_i64), Some(3));
        assert_eq!(json.get("error").and_then(Json::as_str), Some("nope"));
        assert!(json.get("report").is_none());
    }
}
