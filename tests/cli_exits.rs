//! `emac`'s exit codes and error lines at the binary, one row per failure
//! class. Exit 0 is a clean run; 1 is a run that failed or found a
//! violated invariant; 2 is input refused before anything ran. A refusal
//! is one `error: …` line, followed by the usage text only when the
//! command line itself is malformed; a run whose rows are unclean prints
//! its summary and no `error:` line. Each row asserts the exit code and
//! the whole of stderr.

use std::path::Path;
use std::process::Command;

use emac::core::campaign::{campaign_digest, parse_campaign_spec, MetricsDetail};
use emac::core::output::Format;

/// Three quick scenarios; the edited copy changes the last one.
const SPEC: &str = r#"[
 {"algorithm": "count-hop", "adversary": "uniform", "n": 4, "rho": "1/8", "rounds": 256},
 {"algorithm": "count-hop", "adversary": "uniform", "n": 5, "rho": "1/8", "rounds": 256},
 {"algorithm": "count-hop", "adversary": "uniform", "n": 6, "rho": "1/8", "rounds": 256}
]"#;

/// One scenario that runs but loses packets by design, so its row is
/// unclean.
const UNCLEAN: &str = r#"[
 {"algorithm": "duty-cycle", "adversary": "uniform", "n": 4, "rho": "1/8", "rounds": 2000}
]"#;

/// What one `emac` invocation did.
struct Exit {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Run `emac args…` with `dir` as its working directory, so every path it
/// names is relative.
fn emac(dir: &Path, args: &[&str]) -> Exit {
    let out = Command::new(env!("CARGO_BIN_EXE_emac"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn emac");
    Exit {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

/// The campaign checkpoint digest of `spec` written as CSV with full
/// metrics, the options every campaign here runs with.
fn digest(spec: &str) -> String {
    let specs = parse_campaign_spec(spec).expect("spec parses");
    format!("{:016x}", campaign_digest(&specs, Format::Csv, MetricsDetail::Full))
}

#[test]
fn every_failure_class_has_its_exit_code_and_its_stderr() {
    let dir = std::env::temp_dir().join(format!("emac-cli-exits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let write = |name: &str, text: &str| std::fs::write(dir.join(name), text).expect("write");
    let edited = SPEC.replace(r#""n": 6"#, r#""n": 7"#);
    write("spec.json", SPEC);
    write("edited.json", &edited);
    write("unclean.json", UNCLEAN);
    write("bad.json", r#"[{"algorithm": "#);
    write("events.jsonl", "{\"event\":\"nope\"}\n");
    let missing = std::fs::read_to_string(dir.join("missing.json")).unwrap_err();

    // The bare command prints the usage text and nothing else.
    let bare = emac(&dir, &[]);
    assert_eq!(bare.code, Some(2), "{}", bare.stderr);
    assert_eq!(bare.stdout, "");
    let usage = bare.stderr;
    assert!(usage.starts_with("usage:\n  emac run --alg <name>"), "{usage}");
    assert!(usage.ends_with("\n  emac list\n"), "{usage}");
    assert!(usage.lines().skip(1).all(|line| line.starts_with("  ")), "{usage}");

    // Fixtures: campaigns stopped after two rows and after one, an output
    // that lost a recorded row, one with an unrecorded tail (a complete
    // row and a torn one, 14 bytes), and a shard plan nothing claimed.
    let setup = |args: &[&str]| {
        let exit = emac(&dir, args);
        assert_eq!(exit.code, Some(0), "{args:?}: {}", exit.stderr);
    };
    setup(&["campaign", "spec.json", "--out", "edit", "--limit", "2"]);
    setup(&["campaign", "spec.json", "--out", "lost", "--limit", "2"]);
    setup(&["campaign", "spec.json", "--out", "tail", "--limit", "1"]);
    setup(&["shard", "plan", "spec.json", "--dir", "plan", "--shards", "2"]);
    let lost = dir.join("lost/campaign.csv");
    let text = std::fs::read_to_string(&lost).expect("read output");
    let kept: String = text.lines().take(2).map(|line| format!("{line}\n")).collect();
    std::fs::write(&lost, kept).expect("drop a recorded row");
    let tail = dir.join("tail/campaign.csv");
    let text = std::fs::read_to_string(&tail).expect("read output");
    std::fs::write(&tail, format!("{text}extra,row\ntorn")).expect("leave an unrecorded tail");

    let (spec, edited) = (digest(SPEC), digest(&edited));
    let cases: Vec<(&str, Vec<&str>, i32, String, String)> = vec![
        (
            "campaign without a spec",
            vec!["campaign"],
            2,
            format!("error: campaign needs a spec file (try `emac campaign --example`)\n{usage}"),
            String::new(),
        ),
        (
            "campaign of an unreadable file",
            vec!["campaign", "missing.json"],
            2,
            format!("error: cannot read missing.json: {missing}\n"),
            String::new(),
        ),
        (
            "frontier of an unreadable file",
            vec!["frontier", "missing.json"],
            2,
            format!("error: cannot read missing.json: {missing}\n"),
            String::new(),
        ),
        (
            "shard plan of an unreadable file",
            vec!["shard", "plan", "missing.json", "--dir", "nowhere", "--shards", "2"],
            2,
            format!("error: cannot read missing.json: {missing}\n"),
            String::new(),
        ),
        (
            "shard run of an unreadable file",
            vec!["shard", "run", "missing.json", "--dir", "nowhere", "--shard", "0"],
            2,
            format!("error: cannot read missing.json: {missing}\n"),
            String::new(),
        ),
        (
            "obs report of an unreadable file",
            vec!["obs", "report", "missing.json"],
            2,
            format!("error: cannot read missing.json: {missing}\n"),
            String::new(),
        ),
        (
            "a malformed campaign spec",
            vec!["campaign", "bad.json"],
            2,
            "error: bad.json: unexpected end of input\n".into(),
            String::new(),
        ),
        (
            "resume against another spec's checkpoint",
            vec!["campaign", "edited.json", "--out", "edit", "--resume"],
            2,
            format!(
                "error: campaign checkpoint edit/campaign.ckpt: digest mismatch (recorded \
                 {spec}, expected {edited}): the spec list or output options changed since \
                 this campaign started; refusing to resume\n"
            ),
            String::new(),
        ),
        (
            "resume after the output lost rows",
            vec!["campaign", "spec.json", "--out", "lost", "--resume"],
            2,
            "error: lost/campaign.csv holds fewer rows than its checkpoint records (2); \
             refusing to resume against a modified output\n"
                .into(),
            String::new(),
        ),
        (
            "resume over an unrecorded tail",
            vec!["campaign", "spec.json", "--out", "tail", "--resume"],
            0,
            "note: dropped 14 bytes of unrecorded output from a previous run\n\
             running 2 of 3 scenarios (1 already complete)...\n"
                .into(),
            "3 of 3 scenarios complete in tail/campaign.csv (2 this run: 2 ok, 0 with \
             violations, 0 failed)\n"
                .into(),
        ),
        (
            "a campaign with an unclean row",
            vec!["campaign", "unclean.json", "--out", "unclean"],
            1,
            "running 1 of 1 scenarios (0 already complete)...\n".into(),
            "1 of 1 scenarios complete in unclean/campaign.csv (1 this run: 0 ok, 1 with \
             violations, 0 failed)\n"
                .into(),
        ),
        (
            "shard run of an edited spec",
            vec!["shard", "run", "edited.json", "--dir", "plan", "--shard", "0"],
            2,
            format!(
                "error: spec digest mismatch between plan and run (plan {spec}, edited.json \
                 digests to {edited}); refusing to run against a different spec\n"
            ),
            String::new(),
        ),
        (
            "shard run of a shard not in the plan",
            vec!["shard", "run", "spec.json", "--dir", "plan", "--shard", "5"],
            2,
            "error: shard 5 is not in the plan (2 shards)\n".into(),
            String::new(),
        ),
        (
            "shard merge before every unit is claimed",
            vec!["shard", "merge", "--dir", "plan"],
            2,
            "error: unit 0 was never claimed; run `emac shard run` until the plan is \
             exhausted before merging\n"
                .into(),
            String::new(),
        ),
        (
            "obs report of a malformed line",
            vec!["obs", "report", "events.jsonl"],
            2,
            "error: events.jsonl: line 1: event missing \"ev\": {\"event\":\"nope\"}\n".into(),
            String::new(),
        ),
        (
            "run --trace with --seeds",
            vec!["run", "--alg", "count-hop", "--trace", "5", "--seeds", "2"],
            2,
            "error: --trace traces a single execution; it cannot be combined with --seeds\n".into(),
            String::new(),
        ),
        (
            "run of an unknown algorithm",
            vec!["run", "--alg", "nope"],
            2,
            "error: unknown algorithm \"nope\" (see `emac list`)\n".into(),
            String::new(),
        ),
    ];
    for (name, args, code, stderr, stdout) in cases {
        let exit = emac(&dir, &args);
        assert_eq!(exit.code, Some(code), "{name}: {}", exit.stderr);
        assert_eq!(exit.stderr, stderr, "{name}");
        assert_eq!(exit.stdout, stdout, "{name}");
    }
    assert!(!dir.join("nowhere").exists(), "a refused shard command created its directory");
    let _ = std::fs::remove_dir_all(&dir);
}
