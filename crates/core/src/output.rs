//! Run output: what a campaign or frontier run writes, and where.
//!
//! A run's `--format` decides three things, and only this module knows
//! them: the output file's name, how many header lines a single-process
//! output starts with, and the sink that writes its rows. The checkpoint's
//! name depends on the run's [`Kind`] alone. `emac campaign`,
//! `emac frontier`, `emac shard plan|run|merge` and the shard worker all
//! ask here, so a shard directory holds the same files as a
//! single-process output directory:
//!
//! ```text
//! kind       csv            jsonl            checkpoint
//! campaign   campaign.csv   campaign.jsonl   campaign.ckpt
//! frontier   frontier.csv   frontier.jsonl   frontier.ckpt
//! ```
//!
//! The output file name is also the format tag that checkpoint digests
//! bind ([`campaign_digest`](crate::campaign::campaign_digest),
//! [`FrontierSpec::digest`](crate::frontier::FrontierSpec::digest)), so a
//! resume under another format is refused like an edited spec.

use std::io::Write;

use crate::campaign::{CsvStreamSink, JsonLinesSink, ResultSink};
use crate::frontier::{CsvMapSink, JsonMapSink, MapSink};

/// Which engine a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A scenario list run by [`Campaign`](crate::campaign::Campaign).
    Campaign,
    /// A boundary map run by [`Frontier`](crate::frontier::Frontier).
    Frontier,
}

impl Kind {
    /// Stable name: `"campaign"` or `"frontier"`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Campaign => "campaign",
            Kind::Frontier => "frontier",
        }
    }

    /// The checkpoint file name inside a run's output directory.
    pub fn checkpoint_name(self) -> &'static str {
        match self {
            Kind::Campaign => "campaign.ckpt",
            Kind::Frontier => "frontier.ckpt",
        }
    }
}

/// Output encoding of a campaign or frontier run (`--format`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Comma-separated rows after one header line.
    Csv,
    /// One JSON object per line, no header.
    JsonLines,
}

impl Format {
    /// Parse a `--format` value (`"csv"` or `"jsonl"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "csv" => Ok(Format::Csv),
            "jsonl" => Ok(Format::JsonLines),
            other => Err(format!("format must be csv or jsonl, got {other:?}")),
        }
    }

    /// The `--format` value naming this format, also the output file's
    /// extension.
    pub fn name(self) -> &'static str {
        match self {
            Format::Csv => "csv",
            Format::JsonLines => "jsonl",
        }
    }

    /// The output file name a run of `kind` writes in this format.
    pub fn file_name(self, kind: Kind) -> &'static str {
        match (kind, self) {
            (Kind::Campaign, Format::Csv) => "campaign.csv",
            (Kind::Campaign, Format::JsonLines) => "campaign.jsonl",
            (Kind::Frontier, Format::Csv) => "frontier.csv",
            (Kind::Frontier, Format::JsonLines) => "frontier.jsonl",
        }
    }

    /// Header lines before the first row of a single-process output.
    /// Shard outputs carry none: merge writes them once.
    pub fn header_lines(self) -> usize {
        usize::from(self == Format::Csv)
    }

    /// The streaming campaign sink writing this format to `out`. `header`
    /// writes the CSV header before the first row; JSON Lines has none.
    pub fn campaign_sink<'a, W: Write + Send + 'a>(
        self,
        out: W,
        header: bool,
    ) -> Box<dyn ResultSink + 'a> {
        match (self, header) {
            (Format::Csv, true) => Box::new(CsvStreamSink::new(out)),
            (Format::Csv, false) => Box::new(CsvStreamSink::appending(out)),
            (Format::JsonLines, _) => Box::new(JsonLinesSink::new(out)),
        }
    }

    /// The frontier map sink writing this format to `out`, with `header`
    /// as for [`campaign_sink`](Self::campaign_sink).
    pub fn map_sink<'a, W: Write + 'a>(self, out: W, header: bool) -> Box<dyn MapSink + 'a> {
        match (self, header) {
            (Format::Csv, true) => Box::new(CsvMapSink::new(out)),
            (Format::Csv, false) => Box::new(CsvMapSink::appending(out)),
            (Format::JsonLines, _) => Box::new(JsonMapSink::new(out)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{ScenarioRun, ScenarioSpec, CSV_HEADER};
    use crate::frontier::{MapPoint, MapRow, SearchAxis, Status, FRONTIER_CSV_HEADER};
    use emac_sim::Rate;

    const FORMATS: [Format; 2] = [Format::Csv, Format::JsonLines];

    #[test]
    fn file_names_follow_kind_and_format() {
        assert_eq!(Format::Csv.file_name(Kind::Campaign), "campaign.csv");
        assert_eq!(Format::JsonLines.file_name(Kind::Campaign), "campaign.jsonl");
        assert_eq!(Format::Csv.file_name(Kind::Frontier), "frontier.csv");
        assert_eq!(Format::JsonLines.file_name(Kind::Frontier), "frontier.jsonl");
        assert_eq!(Kind::Campaign.checkpoint_name(), "campaign.ckpt");
        assert_eq!(Kind::Frontier.checkpoint_name(), "frontier.ckpt");
        for kind in [Kind::Campaign, Kind::Frontier] {
            for format in FORMATS {
                let name = format.file_name(kind);
                assert_eq!(name, format!("{}.{}", kind.name(), format.name()));
            }
        }
    }

    #[test]
    fn sinks_write_exactly_the_counted_header_lines() {
        let run = ScenarioRun { spec: ScenarioSpec::new("a", "b"), outcome: Err("x".into()) };
        let row = MapRow {
            index: 0,
            point: MapPoint { n: 6, k: 3 },
            axis: SearchAxis::Rho,
            lo: Rate::new(1, 4),
            hi: Rate::new(1, 2),
            probes: 2,
            status: Status::Converged,
            band: None,
        };
        for format in FORMATS {
            for header in [true, false] {
                let mut bytes = Vec::new();
                let mut sink = format.campaign_sink(&mut bytes, header);
                sink.accept(0, run.clone()).unwrap();
                sink.finish().unwrap();
                drop(sink);
                let text = String::from_utf8(bytes).unwrap();
                let headed = header && format.header_lines() == 1;
                assert_eq!(text.lines().count(), 1 + usize::from(headed), "{text}");
                assert_eq!(text.starts_with(CSV_HEADER), headed, "{text}");

                let mut bytes = Vec::new();
                let mut sink = format.map_sink(&mut bytes, header);
                sink.accept(&row).unwrap();
                sink.finish().unwrap();
                drop(sink);
                let text = String::from_utf8(bytes).unwrap();
                assert_eq!(text.lines().count(), 1 + usize::from(headed), "{text}");
                assert_eq!(text.starts_with(FRONTIER_CSV_HEADER), headed, "{text}");
            }
        }
    }
}
