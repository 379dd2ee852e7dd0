//! # emac-bench — the Table-1 reproduction harness
//!
//! Shared helpers for the experiment binaries (`table1`, `figures`,
//! `impossibility`, `ablations`) and the throughput benches. A binary
//! *declares* its sweep as a list of [`Planned`] comparisons (scenario spec
//! plus how to score the report against the paper's bound), then
//! [`execute_rows`] runs everything through one parallel
//! [`emac_core::campaign::Campaign`] over the shared
//! [`emac::registry::Registry`] — no binary hand-rolls a serial sweep loop.
//!
//! Sweeps **stream**: each report is consumed the moment the campaign
//! hands it over (in spec order) and dropped, via [`run_streamed`] — by
//! default with [`MetricsDetail::Slim`], so a binary's peak memory is
//! independent of how many scenarios it sweeps. A consumer that needs the
//! full per-run series (F1's queue-growth figure) opts back into
//! [`MetricsDetail::Full`] through [`run_streamed_with`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use emac::registry::Registry;
use emac_core::campaign::{Campaign, FnSink, MetricsDetail, ScenarioRun, ScenarioSpec};
use emac_core::RunReport;

/// One measured-vs-bound comparison line.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// What was run (algorithm, parameters, adversary).
    pub label: String,
    /// Name of the measured quantity ("latency", "max queue", "slope").
    pub metric: &'static str,
    /// Measured value.
    pub measured: f64,
    /// The bound it is compared against (`None` for growth demos).
    pub bound: Option<f64>,
    /// Whether the run satisfied every model invariant.
    pub clean: bool,
    /// Stability verdict string.
    pub verdict: String,
}

impl Comparison {
    /// Compare a report's latency against a bound.
    pub fn latency(label: impl Into<String>, report: &RunReport, bound: f64) -> Self {
        Self {
            label: label.into(),
            metric: "latency",
            measured: report.latency() as f64,
            bound: Some(bound),
            clean: report.clean(),
            verdict: format!("{:?}", report.stability.verdict),
        }
    }

    /// Compare a report's maximum queue against a bound.
    pub fn queue(label: impl Into<String>, report: &RunReport, bound: f64) -> Self {
        Self {
            label: label.into(),
            metric: "max queue",
            measured: report.max_queue() as f64,
            bound: Some(bound),
            clean: report.clean(),
            verdict: format!("{:?}", report.stability.verdict),
        }
    }

    /// Report a queue-growth slope (impossibility rows).
    pub fn slope(label: impl Into<String>, report: &RunReport) -> Self {
        Self {
            label: label.into(),
            metric: "slope",
            measured: report.stability.slope,
            bound: None,
            clean: report.clean(),
            verdict: format!("{:?}", report.stability.verdict),
        }
    }

    /// Whether the measured value respects the bound (always true for
    /// bound-less comparisons).
    pub fn within_bound(&self) -> bool {
        self.bound.is_none_or(|b| self.measured <= b)
    }

    /// Render as a fixed-width table line.
    pub fn line(&self) -> String {
        let bound_txt = match self.bound {
            Some(b) => format!("{:>12.1}", b),
            None => format!("{:>12}", "-"),
        };
        let ratio = match self.bound {
            Some(b) if b > 0.0 => format!("{:>6.2}x", self.measured / b),
            _ => format!("{:>7}", "-"),
        };
        format!(
            "  {:<58} {:>9} {:>12.3} {} {} {:<11} {}",
            self.label,
            self.metric,
            self.measured,
            bound_txt,
            ratio,
            self.verdict,
            if self.clean { "clean" } else { "VIOLATIONS" },
        )
    }
}

/// How a planned run's report is scored into a [`Comparison`].
#[derive(Clone, Copy, Debug)]
pub enum Score {
    /// Compare maximum packet delay against a bound.
    Latency(f64),
    /// Compare maximum total queue against a bound.
    Queue(f64),
    /// Report the queue-growth slope (impossibility rows; no bound).
    Slope,
}

/// One planned experiment: what to run and how to score it.
pub struct Planned {
    /// Row label (the `Comparison` label).
    pub label: String,
    /// Scoring rule.
    pub score: Score,
    /// The scenario to execute.
    pub spec: ScenarioSpec,
    /// Optional touch-up applied after scoring (relabelling with measured
    /// values, tolerating a baseline's expected violations, ...).
    pub post: Option<fn(&RunReport, &mut Comparison)>,
}

impl Planned {
    /// Plan a latency-vs-bound comparison.
    pub fn latency(label: impl Into<String>, spec: ScenarioSpec, bound: f64) -> Self {
        Self { label: label.into(), score: Score::Latency(bound), spec, post: None }
    }

    /// Plan a queue-vs-bound comparison.
    pub fn queue(label: impl Into<String>, spec: ScenarioSpec, bound: f64) -> Self {
        Self { label: label.into(), score: Score::Queue(bound), spec, post: None }
    }

    /// Plan a slope report.
    pub fn slope(label: impl Into<String>, spec: ScenarioSpec) -> Self {
        Self { label: label.into(), score: Score::Slope, spec, post: None }
    }

    /// Attach a post-scoring touch-up.
    pub fn with_post(mut self, post: fn(&RunReport, &mut Comparison)) -> Self {
        self.post = Some(post);
        self
    }

    /// Score a finished report.
    pub fn comparison(&self, report: &RunReport) -> Comparison {
        let mut c = match self.score {
            Score::Latency(bound) => Comparison::latency(self.label.clone(), report, bound),
            Score::Queue(bound) => Comparison::queue(self.label.clone(), report, bound),
            Score::Slope => Comparison::slope(self.label.clone(), report),
        };
        if let Some(post) = self.post {
            post(report, &mut c);
        }
        c
    }
}

/// Run every spec in parallel through the shared registry, streaming each
/// report — slimmed to scalars ([`MetricsDetail::Slim`]) — to `consume` in
/// spec order the moment it completes, then dropping it. Peak memory is
/// bounded by the campaign's reorder window (the workers plus one commit
/// block of reports), independent of sweep width. Bench
/// sweeps are statically known-good, so a scenario error (an impossible
/// name, say) aborts with a message.
pub fn run_streamed(specs: &[ScenarioSpec], consume: impl FnMut(usize, RunReport)) {
    run_streamed_with(MetricsDetail::Slim, specs, consume);
}

/// [`run_streamed`] with an explicit metrics detail — `Full` for consumers
/// that read the per-run queue series or delay histogram.
pub fn run_streamed_with(
    detail: MetricsDetail,
    specs: &[ScenarioSpec],
    mut consume: impl FnMut(usize, RunReport),
) {
    let mut sink = FnSink(|index: usize, run: ScenarioRun| match run.outcome {
        Ok(report) => {
            consume(index, report);
            Ok(())
        }
        Err(e) => Err(format!("scenario {} failed: {e}", run.spec.display_label())),
    });
    if let Err(e) = Campaign::new().detail(detail).run_into(specs, &Registry, &mut sink) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// Execute titled rows of plans through **one** streaming campaign, print
/// each row, and return whether every comparison was clean and within
/// bound. Each report is scored into its small [`Comparison`] as it
/// completes and dropped — only the comparisons are held.
pub fn execute_rows(rows: Vec<(String, Vec<Planned>)>) -> bool {
    let flat: Vec<&Planned> = rows.iter().flat_map(|(_, plans)| plans).collect();
    let specs: Vec<ScenarioSpec> = flat.iter().map(|p| p.spec.clone()).collect();
    let mut comparisons: Vec<Option<Comparison>> = (0..flat.len()).map(|_| None).collect();
    run_streamed(&specs, |i, report| comparisons[i] = Some(flat[i].comparison(&report)));
    let mut scored = comparisons.into_iter().map(|c| c.expect("one report per plan"));
    let mut all_ok = true;
    for (title, plans) in &rows {
        let comparisons: Vec<Comparison> =
            plans.iter().map(|_| scored.next().expect("one report per plan")).collect();
        all_ok &= print_row(title, &comparisons);
    }
    all_ok
}

/// Print a row header followed by its comparisons; returns whether all
/// comparisons were clean and within bound.
pub fn print_row(title: &str, comparisons: &[Comparison]) -> bool {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len().min(100)));
    let mut ok = true;
    for c in comparisons {
        println!("{}", c.line());
        ok &= c.clean && c.within_bound();
    }
    ok
}

/// Write a CSV file, creating the parent directory.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(measured: f64, bound: Option<f64>) -> Comparison {
        Comparison {
            label: "x".into(),
            metric: "latency",
            measured,
            bound,
            clean: true,
            verdict: "Stable".into(),
        }
    }

    #[test]
    fn within_bound_logic() {
        assert!(dummy(5.0, Some(10.0)).within_bound());
        assert!(!dummy(11.0, Some(10.0)).within_bound());
        assert!(dummy(999.0, None).within_bound());
    }

    #[test]
    fn line_formats_ratio() {
        let l = dummy(5.0, Some(10.0)).line();
        assert!(l.contains("0.50x"), "{l}");
        let l = dummy(5.0, None).line();
        assert!(l.contains(" - "), "{l}");
    }
}
