//! `emac frontier` at the binary: a template whose probes are scenarios
//! `ScenarioSpec::validate` refuses is refused the way `emac campaign`
//! refuses such a row — exit 2, one error line naming the scenario once —
//! before the checkpoint or the map file exists. So is a bracket the
//! point search refuses, by `emac frontier` and `emac shard plan` alike,
//! and so is a bracket whose bisection to its tolerance would pass the
//! precision of `u64` rationals. The flags that override template keys
//! (`--axis`, `--tol`, `--escalate`) are read with the template, so a
//! template is judged under the axis and tolerance it runs with.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one case.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-frontier-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn a_template_refused_as_a_scenario_exits_2_before_any_output() {
    let cases = [
        ("rounds", r#""rounds": 0"#, "rounds must be positive"),
        ("cap", r#""rounds": 20000, "cap": 1"#, "cap must be at least 2"),
    ];
    for (case, keys, want) in cases {
        let dir = scratch(case);
        let spec = dir.join("frontier.json");
        let template = format!(
            r#"{{"template": {{"algorithm": "k-cycle", "adversary": "uniform", "n": 6, "k": 3, {keys}}},
                "axis": "rho", "lo": "0", "hi": "1/2", "tol": 0.1}}"#
        );
        std::fs::write(&spec, template).expect("write spec");
        let out = dir.join("out");
        let run = Command::new(env!("CARGO_BIN_EXE_emac"))
            .arg("frontier")
            .arg(&spec)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn emac");
        let stderr = String::from_utf8(run.stderr).expect("utf-8 stderr");
        assert_eq!(run.status.code(), Some(2), "{case}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(want), "{case}: {stderr}");
        assert_eq!(stderr.matches("k-cycle vs uniform | n=6 k=3").count(), 1, "{case}: {stderr}");
        assert!(!out.exists(), "{case}: {} was created", out.display());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_bracket_the_point_search_refuses_exits_2_before_any_output() {
    let dir = scratch("ell-bracket");
    let spec = dir.join("frontier.json");
    std::fs::write(
        &spec,
        r#"{"template": {"algorithm": "k-cycle", "adversary": "uniform", "n": 9, "k": 3,
                         "rounds": 2000},
            "axis": "ell", "hi": "6", "tol": 1}"#,
    )
    .expect("write spec");
    let out = dir.join("out");
    let plan = dir.join("plan");
    let mut frontier = Command::new(env!("CARGO_BIN_EXE_emac"));
    frontier.arg("frontier").arg(&spec).arg("--out").arg(&out);
    let mut shard_plan = Command::new(env!("CARGO_BIN_EXE_emac"));
    shard_plan.args(["shard", "plan"]).arg(&spec).arg("--dir").arg(&plan).args(["--shards", "2"]);
    for (name, mut command) in [("frontier", frontier), ("shard plan", shard_plan)] {
        let run = command.output().expect("spawn emac");
        let stderr = String::from_utf8(run.stderr).expect("utf-8 stderr");
        assert_eq!(run.status.code(), Some(2), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("ell bracket must start at 2 or above, lo is 0"),
            "{name}: {stderr}"
        );
    }
    assert!(!out.exists(), "{} was created", out.display());
    assert!(!plan.exists(), "{} was created", plan.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bracket_past_u64_precision_stops_the_map_by_name_not_by_panic() {
    // Bisected to tol 0.01 in 4 halvings, every probe lies on a grid over
    // the denominator (2^64 − 1) · 2^4, which passes u64.
    let dir = scratch("u64-bracket");
    let spec = dir.join("frontier.json");
    std::fs::write(
        &spec,
        r#"{"template": {"algorithm": "count-hop", "adversary": "single-target",
                         "target": 0, "dest": 2, "n": 4, "beta": "2", "rounds": 20000,
                         "probe_cap": 400},
            "lo": "16602069666338596864/18446744073709551615",
            "hi": "18446744073709551614/18446744073709551615", "tol": 0.01}"#,
    )
    .expect("write spec");
    let out = dir.join("out");
    let run = Command::new(env!("CARGO_BIN_EXE_emac"))
        .arg("frontier")
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn emac");
    let stderr = String::from_utf8(run.stderr).expect("utf-8 stderr");
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: ")
            && stderr.ends_with(
                ": map point n=4, k=3: bisecting [16602069666338596864/18446744073709551615, \
                 18446744073709551614/18446744073709551615] to tol 0.01 takes 4 halvings, past \
                 the precision of u64 rationals\n"
            ),
        "{stderr}"
    );
    assert!(!out.exists(), "{} was created", out.display());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Map `template` with `emac frontier <flags>` into `dir/<name>`, expecting
/// exit 0, and return its output bytes and its checkpoint's digest line.
fn map(dir: &Path, name: &str, template: &str, flags: &[&str]) -> (String, String) {
    let spec = dir.join(format!("{name}.json"));
    std::fs::write(&spec, template).expect("write spec");
    let out = dir.join(name);
    let run = Command::new(env!("CARGO_BIN_EXE_emac"))
        .arg("frontier")
        .arg(&spec)
        .args(flags)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn emac");
    assert!(run.status.success(), "{name}: {}", String::from_utf8_lossy(&run.stderr));
    let csv = std::fs::read_to_string(out.join("frontier.csv")).expect("read map");
    let ckpt = std::fs::read_to_string(out.join("frontier.ckpt")).expect("read checkpoint");
    (csv, ckpt.lines().nth(1).expect("digest line").to_string())
}

#[test]
fn an_axis_flag_is_read_with_the_template() {
    // Under its own default axis, rho, this bracket is refused; under
    // `--axis k` it is the map the template with `"axis": "k"` makes.
    let dir = scratch("axis-flag");
    let template = r#"{"template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
                                    "target": 1, "n": 9, "rho": "1/4", "rounds": 4000,
                                    "probe_cap": 1000},
                       "lo": "2", "hi": "8", "tol": 1}"#;
    let keyed = template.replace(r#""tol": 1"#, r#""axis": "k", "tol": 1"#);
    let flagged = map(&dir, "flag", template, &["--axis", "k"]);
    assert_eq!(flagged, map(&dir, "key", &keyed, &[]));
    assert!(flagged.0.starts_with("n,k,axis,lo,hi,boundary,probes,status\n9,3,k,"), "{flagged:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tol_flag_is_read_with_the_template() {
    // The template's own tol is finer than bisection can resolve; `--tol`
    // replaces it before the template is judged.
    let dir = scratch("tol-flag");
    let template = r#"{"template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
                                    "target": 1, "n": 6, "k": 3, "rounds": 4000,
                                    "probe_cap": 1000},
                       "lo": "0", "hi": "1/2", "tol": 1e-12}"#;
    let keyed = template.replace("1e-12", "0.01");
    assert_eq!(map(&dir, "flag", template, &["--tol", "0.01"]), map(&dir, "key", &keyed, &[]));
    let _ = std::fs::remove_dir_all(&dir);
}
