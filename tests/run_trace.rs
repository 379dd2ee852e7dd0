//! `emac run --trace` at the binary: a traced run is the run its flags
//! describe. After its trace table it prints exactly what the same run
//! prints without `--trace` (the report, `probe:`, `faults:` and
//! `digest:` lines), whether the probe cap cuts the run short, a drain
//! follows it (one that fast-forwards untraced, too), or jamming hits it.

use std::process::{Command, Output};

fn emac(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emac"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn emac")
}

/// Stdout of `emac <args>` (panics unless it exits 0).
fn stdout(args: &str) -> String {
    let out = emac(args);
    assert!(out.status.success(), "emac {args}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Check that `emac run <scenario> --trace 3` prints a three-round trace
/// table and then exactly what `emac run <scenario>` prints; returns the
/// latter.
fn assert_traced_run_is_the_solo_run(scenario: &str) -> String {
    let solo = stdout(&format!("run {scenario}"));
    let traced = stdout(&format!("run {scenario} --trace 3"));
    let lines: Vec<&str> = traced.lines().collect();
    assert_eq!(lines[0], "last 3 rounds:", "{traced}");
    assert!(lines[1..4].iter().all(|l| l.starts_with('r')), "{traced}");
    let report: String = lines[4..].iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(report, solo, "{scenario}: the traced run's report differs from the solo run's");
    solo
}

#[test]
fn a_probe_capped_trace_stops_where_the_solo_run_trips() {
    let solo = assert_traced_run_is_the_solo_run(
        "--alg k-cycle --n 9 --k 3 --rho 1/2 --beta 2 --rounds 20000 --seed 1 --probe-cap 50",
    );
    assert!(solo.contains("  probe: queue cap tripped at round 183\n"), "{solo}");
    assert!(solo.contains("delivered 43/94 "), "{solo}");
}

#[test]
fn a_drained_trace_drains_like_the_solo_run() {
    let solo = assert_traced_run_is_the_solo_run(
        "--alg count-hop --n 4 --rho 1/2 --beta 2 --rounds 2000 --seed 1 --drain 5000",
    );
    assert!(solo.contains("delivered 1002/1002 "), "{solo}");
    assert!(solo.contains("| drained: yes\n"), "{solo}");
}

#[test]
fn a_traced_drain_steps_every_round_the_solo_drain_passes_over() {
    // Every station sleeps through this drain, so the solo run's drain
    // fast-forwards; a trace ring turns that off, and the traced run,
    // stepped round by round, must print the same report.
    let solo = assert_traced_run_is_the_solo_run(
        "--alg adjust-window --n 6 --k 3 --rho 1/4 --beta 2 --rounds 5000 --drain 20000 \
         --adversary uniform --seed 12345",
    );
    assert!(solo.contains("delivered 0/1252 "), "{solo}");
    assert!(solo.contains("| drained: NO\n"), "{solo}");
}

#[test]
fn a_jammed_trace_reports_the_solo_run_faults() {
    let solo = assert_traced_run_is_the_solo_run(
        "--alg k-cycle --n 9 --k 3 --rho 1/5 --beta 2 --rounds 20000 --jam 1/10",
    );
    assert!(solo.contains("  faults: "), "{solo}");
    assert!(solo.contains("  digest: "), "{solo}");
}

#[test]
fn a_zero_trace_window_is_refused() {
    let out = emac("run --alg count-hop --n 4 --rounds 100 --trace 0");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --trace must be positive\n"), "{stderr}");
}

#[test]
fn a_trace_window_past_the_run_holds_every_round() {
    // The ring holds at most the rounds the run executes, so a window of
    // u64::MAX rounds neither reserves that many up front nor overflows.
    let scenario = "--alg count-hop --n 4 --rounds 100";
    let solo = stdout(&format!("run {scenario}"));
    let traced = stdout(&format!("run {scenario} --trace {}", u64::MAX));
    let lines: Vec<&str> = traced.lines().collect();
    assert_eq!(lines[0], "last 100 rounds:", "{traced}");
    let table: Vec<&str> = lines[1..].iter().copied().take_while(|l| l.starts_with('r')).collect();
    assert_eq!(table.len(), 100, "{traced}");
    assert!(table[0].starts_with("r0 ") && table[99].starts_with("r99 "), "{traced}");
    let report: String = lines[101..].iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(report, solo, "the traced run's report differs from the solo run's");
}
