//! A fleet's claims at every kill point. A lease file is the one record of
//! a claim: shard `s` writes its id to `leases/shard-<s>.draft`, fsyncs
//! it, hard-links it to `leases/unit-<u>.lease`, removes the draft and
//! fsyncs `leases/`. A kill at any of those steps must leave a plan
//! directory that runs, resumes and merges to the single-process bytes;
//! and a lease that names no shard, which no claim leaves, is refused by
//! name everywhere it is read.

use std::path::{Path, PathBuf};

use emac::registry::Registry;
use emac_core::campaign::{parse_campaign_spec, Campaign, CsvStreamSink, MetricsDetail};
use emac_core::output::Format;
use emac_core::shard::{merge, status, ClaimTable, ShardPlan, ShardRunner};

/// Four cheap scenarios: a 2-shard plan gives units 0–1 to shard 0 and
/// units 2–3 to shard 1.
const SPEC: &str = r#"[
    {"algorithm": "count-hop", "adversary": "uniform", "n": 4, "rho": "1/8", "rounds": 256},
    {"algorithm": "count-hop", "adversary": "uniform", "n": 5, "rho": "1/8", "rounds": 256},
    {"algorithm": "k-cycle", "adversary": "uniform", "n": 5, "k": 2, "rho": "1/8",
     "rounds": 256},
    {"algorithm": "k-cycle", "adversary": "uniform", "n": 6, "k": 2, "rho": "1/4",
     "rounds": 256}
]"#;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emac-shard-claims-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn single_process_bytes() -> Vec<u8> {
    let specs = parse_campaign_spec(SPEC).unwrap();
    let mut sink = CsvStreamSink::new(Vec::new());
    Campaign::new().run_into(&specs, &Registry, &mut sink).unwrap();
    sink.into_inner()
}

fn plan(dir: &Path) -> ShardPlan {
    let plan = ShardPlan::build(SPEC, Format::Csv, MetricsDetail::Full, 2).unwrap();
    plan.save(dir).unwrap();
    plan
}

#[test]
fn a_lease_naming_no_shard_is_refused_by_run_merge_and_status() {
    for (case, text) in [("empty", ""), ("torn", "0"), ("foreign", "shard zero\n")] {
        let dir = scratch(case);
        let plan = plan(&dir);
        std::fs::write(dir.join("leases").join("unit-0.lease"), text).unwrap();
        let run = ShardRunner::new(&dir, plan.clone(), 0).unwrap().run(&Registry, false);
        for (what, err) in [
            ("run", run.unwrap_err()),
            ("merge", merge(&dir, &dir.join("merged.csv")).unwrap_err()),
            ("status", status(&dir).unwrap_err()),
        ] {
            assert!(
                err.contains("unit-0.lease") && err.contains("names no shard"),
                "{case}: {what}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_claim_killed_at_every_step_still_merges_to_single_process_bytes() {
    let expected = single_process_bytes();
    // Shard 0 finishes unit 0, then dies claiming unit 1: mid-draft (each
    // length of "0\n"), after linking the lease but before removing the
    // draft, or after removing it.
    let kills: [(&str, usize, bool); 5] = [
        ("draft-0", 0, false),
        ("draft-1", 1, false),
        ("draft-2", 2, false),
        ("linked", 2, true),
        ("unlinked", 2, true),
    ];
    for (kill, draft_len, linked) in kills {
        // Either the dead shard resumes first (and claims all that is
        // left) or its peer runs first (and steals unit 1 unless the lease
        // was linked).
        for resume_first in [true, false] {
            let dir = scratch(&format!("{kill}-{resume_first}"));
            let plan = plan(&dir);
            let runner = |s| ShardRunner::new(&dir, plan.clone(), s).unwrap();
            runner(0).run_with_limit(&Registry, false, 1).unwrap();

            let leases = dir.join("leases");
            let (draft, lease) = (leases.join("shard-0.draft"), leases.join("unit-1.lease"));
            std::fs::write(&draft, &"0\n"[..draft_len]).unwrap();
            if linked {
                std::fs::hard_link(&draft, &lease).unwrap();
                if kill == "unlinked" {
                    std::fs::remove_file(&draft).unwrap();
                }
            }

            let order =
                if resume_first { [(0, true), (1, false)] } else { [(1, false), (0, true)] };
            for (s, resume) in order {
                runner(s).run(&Registry, resume).unwrap();
            }
            let owners = match (resume_first, linked) {
                (true, _) => [0, 0, 0, 0],
                (false, true) => [0, 0, 1, 1],
                (false, false) => [0, 1, 1, 1],
            };
            assert_eq!(
                ClaimTable::new(&dir, plan.units.len()).owners().unwrap(),
                owners.map(Some),
                "{kill}"
            );

            let merged = dir.join("merged.csv");
            merge(&dir, &merged).unwrap();
            assert!(std::fs::read(&merged).unwrap() == expected, "{kill}: merge diverged");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
