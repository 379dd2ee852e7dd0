//! `emac run --seeds` at the binary: each lane row carries its seed's solo
//! digest and probe tripping round, in `--seeds` order.
//!
//! A `--seeds` run hands one campaign row per seed to the machine-sized
//! worker pool, so lanes finish in any order; the rows must still print
//! in the order the seeds were given, and each must report exactly what
//! `emac run --seed <s>` reports for that seed.

use std::process::Command;

const SCENARIO: &str = "run --alg k-cycle --adversary uniform --n 9 --k 3 --beta 2 --rounds 20000";

/// Run `emac <SCENARIO> <extra>` and return its stdout (panics unless it
/// exits 0).
fn emac(extra: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_emac"))
        .args(SCENARIO.split_whitespace().chain(extra.split_whitespace()))
        .output()
        .expect("spawn emac");
    assert!(out.status.success(), "emac {extra}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The value after `key` on `line`, up to the next space.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest.split_whitespace().next().unwrap_or(""))
}

/// `(seed, digest, tripped round)` of each lane row, in print order.
fn lanes(output: &str) -> Vec<(u64, String, Option<u64>)> {
    output
        .lines()
        .filter_map(|line| {
            let seed = field(line, "  seed ")?.parse().expect("seed");
            let digest = field(line, "| digest ").expect("digest").to_string();
            let tripped = field(line, "| tripped round ").map(|r| r.parse().expect("round"));
            Some((seed, digest, tripped))
        })
        .collect()
}

/// `(digest, tripped round)` of a solo `--seed` run.
fn solo(extra: &str, seed: u64) -> (String, Option<u64>) {
    let out = emac(&format!("{extra} --seed {seed}"));
    let digest = out.lines().find_map(|l| field(l, "digest: ")).expect("solo digest");
    let tripped = out
        .lines()
        .find_map(|l| field(l, "probe: queue cap tripped at round "))
        .map(|r| r.parse().expect("round"));
    (digest.to_string(), tripped)
}

/// Check `--seeds <arg>`, which names `seeds`, against solo runs;
/// returns its lanes.
fn assert_lanes_are_solo_runs(
    extra: &str,
    arg: &str,
    seeds: &[u64],
) -> Vec<(u64, String, Option<u64>)> {
    let out = emac(&format!("{extra} --seeds {arg}"));
    assert!(out.starts_with(&format!("seed batch: {} lanes | ", seeds.len())), "{out}");
    let rows = lanes(&out);
    let printed: Vec<u64> = rows.iter().map(|r| r.0).collect();
    assert_eq!(printed, seeds, "lanes must print in --seeds order:\n{out}");
    for (seed, digest, tripped) in &rows {
        assert_eq!(
            (digest.clone(), *tripped),
            solo(extra, *seed),
            "{extra}: lane {seed} differs from its solo run"
        );
    }
    rows
}

#[test]
fn probe_lanes_match_solo_runs_and_some_trip() {
    let rows =
        assert_lanes_are_solo_runs("--rho 1/4 --probe-cap 32", "8", &[0, 1, 2, 3, 4, 5, 6, 7]);
    let tripped = rows.iter().filter(|r| r.2.is_some()).count();
    assert!(
        0 < tripped && tripped < rows.len(),
        "the cap must split the lanes: {tripped} of {} tripped",
        rows.len()
    );
}

#[test]
fn jammed_lanes_print_in_the_given_order() {
    assert_lanes_are_solo_runs("--rho 1/5 --jam 1/10", "3,0,2,1", &[3, 0, 2, 1]);
}
