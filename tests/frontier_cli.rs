//! `emac frontier` at the binary: a template whose probes are scenarios
//! `ScenarioSpec::validate` refuses is refused the way `emac campaign`
//! refuses such a row — exit 2, one error line naming the scenario once —
//! before the checkpoint or the map file exists.

use std::path::PathBuf;
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
