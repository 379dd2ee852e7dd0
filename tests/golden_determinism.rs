//! Golden determinism tests: byte-identical executions, pinned by digest.
//!
//! Every scenario in the matrix below folds its entire [`RunReport`] —
//! metrics, queue series, per-station counters, delay histogram,
//! violations, stability verdict — into a 64-bit FNV-1a digest
//! (`emac_core::digest`). The expected values were produced once and are
//! committed; any change to the engine, the queues, the schedules, or the
//! adversaries that alters even one observable of one execution fails here.
//!
//! This is the safety net under hot-path refactoring: an allocation-free
//! rewrite of the round loop must reproduce these digests exactly.
//!
//! To re-pin after an *intentional* semantic change, run
//! `cargo test --test golden_determinism -- --nocapture` and copy the
//! printed table (and justify the change in the commit).

use emac::registry::Registry;
use emac_core::campaign::{Campaign, CsvStreamSink, MetricsDetail, ScenarioSpec, TallySink};
use emac_core::digest::{report_digest_hex, Fnv64};
use emac_sim::Rate;

const N: usize = 8;
const K: usize = 4;
const ROUNDS: u64 = 4_096;

/// The pinned seed matrix: every registry algorithm × adversaries that
/// apply to it × β ∈ {1, 3/2}.
fn matrix() -> Vec<ScenarioSpec> {
    let algorithms: &[&str] = &[
        "orchestra",
        "orchestra-nomb",
        "count-hop",
        "adjust-window",
        "k-cycle",
        "k-cycle:1/2",
        "k-clique",
        "k-subsets",
        "k-subsets-rrw",
        "duty-cycle",
    ];
    // The schedule-aware lower-bound adversaries only apply to the
    // energy-oblivious algorithms.
    let oblivious: &[&str] =
        &["k-cycle", "k-cycle:1/2", "k-clique", "k-subsets", "k-subsets-rrw", "duty-cycle"];
    let betas = [Rate::integer(1), Rate::new(3, 2)];
    let mut specs = Vec::new();
    for &alg in algorithms {
        let mut adversaries = vec!["uniform", "round-robin"];
        if oblivious.contains(&alg) {
            adversaries.push("least-on");
        }
        for adv in adversaries {
            for beta in betas {
                specs.push(
                    ScenarioSpec::new(alg, adv)
                        .n(N)
                        .k(K)
                        .rho(Rate::new(1, 8))
                        .beta(beta)
                        .rounds(ROUNDS)
                        .seed(7)
                        .horizon(2_000)
                        .label(format!("{alg}|{adv}|beta={}/{}", beta.num(), beta.den())),
                );
            }
        }
    }
    specs
}

/// Pinned digests, one per matrix entry, in matrix order.
const GOLDEN: &[(&str, &str)] = &[
    ("orchestra|uniform|beta=1/1", "0266885699dc3983"),
    ("orchestra|uniform|beta=3/2", "2677f29c346febe7"),
    ("orchestra|round-robin|beta=1/1", "42bb0f8bfbd11c92"),
    ("orchestra|round-robin|beta=3/2", "2c1e865cda045cc8"),
    ("orchestra-nomb|uniform|beta=1/1", "e78435567e0e8e02"),
    ("orchestra-nomb|uniform|beta=3/2", "25b6782faf8a7e92"),
    ("orchestra-nomb|round-robin|beta=1/1", "8909f77b5ff159b7"),
    ("orchestra-nomb|round-robin|beta=3/2", "7ec4abaeba1b92a1"),
    ("count-hop|uniform|beta=1/1", "ee5302b9ce623892"),
    ("count-hop|uniform|beta=3/2", "bb9b175444eaf2e5"),
    ("count-hop|round-robin|beta=1/1", "2981a5f41c82918f"),
    ("count-hop|round-robin|beta=3/2", "aa6b3a0d7478cf6e"),
    ("adjust-window|uniform|beta=1/1", "4d8696811e41aaf2"),
    ("adjust-window|uniform|beta=3/2", "365cfc3e7df25caa"),
    ("adjust-window|round-robin|beta=1/1", "ccc21d72215b551d"),
    ("adjust-window|round-robin|beta=3/2", "0b9f3d7072e9d345"),
    ("k-cycle|uniform|beta=1/1", "e927971c99ab3496"),
    ("k-cycle|uniform|beta=3/2", "9d940580e916952e"),
    ("k-cycle|round-robin|beta=1/1", "4f91c065cad1fb96"),
    ("k-cycle|round-robin|beta=3/2", "a661cff3dfafaab9"),
    ("k-cycle|least-on|beta=1/1", "56f1eceef0593547"),
    ("k-cycle|least-on|beta=3/2", "49b400e7c7ea225d"),
    ("k-cycle:1/2|uniform|beta=1/1", "b9d22468b4b3029d"),
    ("k-cycle:1/2|uniform|beta=3/2", "75ee9eab53afdfa0"),
    ("k-cycle:1/2|round-robin|beta=1/1", "e3354316afc54fa8"),
    ("k-cycle:1/2|round-robin|beta=3/2", "ccc15f0faa5aaa1d"),
    ("k-cycle:1/2|least-on|beta=1/1", "8e512f295a33b944"),
    ("k-cycle:1/2|least-on|beta=3/2", "b9d859619651c09b"),
    ("k-clique|uniform|beta=1/1", "5eb56210e1ae674a"),
    ("k-clique|uniform|beta=3/2", "fd6e5c885cfd89b4"),
    ("k-clique|round-robin|beta=1/1", "8f31eec0c5d1ffe6"),
    ("k-clique|round-robin|beta=3/2", "aee93f589edb2124"),
    ("k-clique|least-on|beta=1/1", "7aaf273485f2763c"),
    ("k-clique|least-on|beta=3/2", "53c53b8e3b9e1a90"),
    ("k-subsets|uniform|beta=1/1", "dc23c1b3c1a197e9"),
    ("k-subsets|uniform|beta=3/2", "168a57ba53e34f24"),
    ("k-subsets|round-robin|beta=1/1", "c8d5ca4067e61f19"),
    ("k-subsets|round-robin|beta=3/2", "a88bdc7e1ddfcbd9"),
    ("k-subsets|least-on|beta=1/1", "944f8c124c35c2ab"),
    ("k-subsets|least-on|beta=3/2", "7a6bc1cac355225e"),
    ("k-subsets-rrw|uniform|beta=1/1", "62548d933cf170c8"),
    ("k-subsets-rrw|uniform|beta=3/2", "5e4fd3c1fb519ebd"),
    ("k-subsets-rrw|round-robin|beta=1/1", "f38d18c3d9d526bc"),
    ("k-subsets-rrw|round-robin|beta=3/2", "0b33aaa919b10ffe"),
    ("k-subsets-rrw|least-on|beta=1/1", "8ebe45c9535f4055"),
    ("k-subsets-rrw|least-on|beta=3/2", "971e6eee95185dbe"),
    ("duty-cycle|uniform|beta=1/1", "53657255bd072610"),
    ("duty-cycle|uniform|beta=3/2", "a2fb235efafa8110"),
    ("duty-cycle|round-robin|beta=1/1", "89f1ef5d86d7a30d"),
    ("duty-cycle|round-robin|beta=3/2", "95a0f622ea6c336d"),
    ("duty-cycle|least-on|beta=1/1", "25a09759c81535d8"),
    ("duty-cycle|least-on|beta=3/2", "d5d47104483c7022"),
];

#[test]
fn run_report_digests_match_golden() {
    assert_digests("GOLDEN", &matrix(), GOLDEN);
}

/// k-Subsets paths the matrix above does not reach: a system past one mask
/// word (n = 128, k = 2, 8,128 threads), once under the `ksubsets_n128`
/// bench's uniform load and once under a one-station flood that stacks
/// dozens of packets in each of that station's thread lists; n = 16, k = 3
/// under the least-on-pair flood in both thread subroutines; MBTF under
/// crashes that lose the queue, clock skew and deaf rounds; and RRW under
/// clock skew, under deaf rounds and under crashes that lose the queue.
/// The deaf rounds stall MBTF threads (a deaf baton holder never pops the
/// packet the channel heard); that stall is pinned as it stands. A crash or
/// a deaf round desynchronizes an RRW token; a member pops its thread list
/// only for a packet it sent itself, so the desync costs collisions but
/// never a packet another member sent.
fn ksubsets_matrix() -> Vec<ScenarioSpec> {
    use emac_sim::FaultSpec;

    let wide = |adv: &str, rho: Rate| {
        ScenarioSpec::new("k-subsets", adv)
            .n(128)
            .k(2)
            .rho(rho)
            .beta(Rate::integer(4))
            .rounds(16_384)
            .seed(3)
            .label(format!("k-subsets|{adv}|n=128|k=2"))
    };
    let least_pair = |alg: &str| {
        ScenarioSpec::new(alg, "least-on-pair")
            .n(16)
            .k(3)
            .rho(Rate::new(1, 20))
            .beta(Rate::integer(2))
            .rounds(40_000)
            .seed(7)
            .label(format!("{alg}|least-on-pair|n=16|k=3"))
    };
    let faulted = |alg: &str, faults: FaultSpec, label: &str| {
        ScenarioSpec::new(alg, "uniform")
            .n(8)
            .k(3)
            .rho(Rate::new(1, 8))
            .beta(Rate::integer(2))
            .rounds(16_384)
            .seed(7)
            .faults(FaultSpec { seed: 9, ..faults })
            .label(format!("{alg}|uniform|{label}"))
    };
    let crash_skew_deaf = FaultSpec {
        crash: Rate::new(1, 500),
        crash_len: 48,
        retain_queue: false,
        deaf: Rate::new(1, 40),
        skew: 2,
        ..FaultSpec::default()
    };
    vec![
        wide("uniform", Rate::new(1, 64)),
        wide("spread-from-one", Rate::new(1, 2)),
        least_pair("k-subsets"),
        least_pair("k-subsets-rrw"),
        faulted("k-subsets", crash_skew_deaf, "crash,skew,deaf"),
        faulted("k-subsets-rrw", FaultSpec { skew: 2, ..FaultSpec::default() }, "skew"),
        // These two are `emac run --alg k-subsets-rrw --n 8 --k 3 --rho 1/8
        // --beta 2 --rounds 16384 --adversary uniform --seed 7 --drain 0
        // --faults …`, so their digests are the ones that command prints.
        faulted(
            "k-subsets-rrw",
            FaultSpec { deaf: Rate::new(1, 40), ..FaultSpec::default() },
            "deaf",
        )
        .drain(0),
        faulted(
            "k-subsets-rrw",
            FaultSpec {
                crash: Rate::new(1, 500),
                crash_len: 48,
                retain_queue: false,
                ..FaultSpec::default()
            },
            "crash",
        )
        .drain(0),
    ]
}

/// Pinned digests, one per [`ksubsets_matrix`] entry, in order.
const KSUBSETS_GOLDEN: &[(&str, &str)] = &[
    ("k-subsets|uniform|n=128|k=2", "0af71cca90d2bb92"),
    ("k-subsets|spread-from-one|n=128|k=2", "42de06d10ff71a8b"),
    ("k-subsets|least-on-pair|n=16|k=3", "5072560e0def0859"),
    ("k-subsets-rrw|least-on-pair|n=16|k=3", "8adc1cbca5df2fcc"),
    ("k-subsets|uniform|crash,skew,deaf", "8c040cd39312dda5"),
    ("k-subsets-rrw|uniform|skew", "79b2c0087e344000"),
    ("k-subsets-rrw|uniform|deaf", "08e7ac1d21e071b2"),
    ("k-subsets-rrw|uniform|crash", "672ab23fa284a5bb"),
];

#[test]
fn ksubsets_digests_match_golden() {
    assert_digests("KSUBSETS_GOLDEN", &ksubsets_matrix(), KSUBSETS_GOLDEN);
}

/// Run `specs` and compare every report's digest with `golden`, in order;
/// on any difference, print the re-pin table for the constant `name`.
fn assert_digests(name: &str, specs: &[ScenarioSpec], golden: &[(&str, &str)]) {
    let result = Campaign::new().threads(4).run(specs, &Registry);
    assert_eq!(result.first_error(), None, "every golden scenario must run");
    let actual: Vec<(String, String)> = result
        .runs
        .iter()
        .map(|run| {
            let report = run.outcome.as_ref().expect("checked above");
            (run.spec.display_label(), report_digest_hex(report))
        })
        .collect();
    let expected: Vec<(String, String)> =
        golden.iter().map(|&(l, d)| (l.to_string(), d.to_string())).collect();
    if actual != expected {
        println!("const {name}: &[(&str, &str)] = &[");
        for (label, digest) in &actual {
            println!("    ({label:?}, {digest:?}),");
        }
        println!("];");
        let divergent: Vec<&str> = actual
            .iter()
            .zip(expected.iter())
            .filter(|(a, e)| a != e)
            .map(|(a, _)| a.0.as_str())
            .collect();
        panic!(
            "{} of {} {name} digests diverged (first: {:?}); \
             full re-pin table printed above",
            divergent
                .len()
                .max((actual.len() as i64 - expected.len() as i64).unsigned_abs() as usize),
            actual.len(),
            divergent.first()
        );
    }
}

/// Pinned digest of the **campaign-level** CSV export over a small
/// registry-wide grid: an FNV-1a fold of the exact bytes a
/// `CsvStreamSink` writes while the campaign runs. The per-report digests
/// above catch engine changes; this one catches executor/export refactors
/// — column reordering, float formatting, row ordering, sink drift.
const CAMPAIGN_CSV_GOLDEN: &str = "3b17903468572632";

/// Registry-wide campaign grid: every algorithm × {uniform, round-robin}.
fn campaign_matrix() -> Vec<ScenarioSpec> {
    let algorithms: &[&str] = &[
        "orchestra",
        "orchestra-nomb",
        "count-hop",
        "adjust-window",
        "k-cycle",
        "k-cycle:1/2",
        "k-clique",
        "k-subsets",
        "k-subsets-rrw",
        "duty-cycle",
    ];
    let mut specs = Vec::new();
    for &alg in algorithms {
        for adv in ["uniform", "round-robin"] {
            specs.push(
                ScenarioSpec::new(alg, adv)
                    .n(N)
                    .k(K)
                    .rho(Rate::new(1, 8))
                    .beta(Rate::integer(1))
                    .rounds(2_048)
                    .seed(7),
            );
        }
    }
    specs
}

/// The CSV bytes a `CsvStreamSink` writes for the campaign grid at
/// `detail`, with the number of scenarios that failed to run.
fn campaign_csv(detail: MetricsDetail) -> (String, usize) {
    let mut sink = TallySink::new(CsvStreamSink::new(Vec::new()));
    Campaign::new()
        .threads(4)
        .detail(detail)
        .run_into(&campaign_matrix(), &Registry, &mut sink)
        .unwrap();
    let failed = sink.failed();
    (String::from_utf8(sink.into_inner().into_inner()).unwrap(), failed)
}

#[test]
fn campaign_csv_digest_matches_golden() {
    let (csv, failed) = campaign_csv(MetricsDetail::Full);
    assert_eq!(failed, 0, "every campaign-grid scenario must run");
    let actual = format!("{:016x}", Fnv64::new().bytes(csv.as_bytes()).finish());
    if actual != CAMPAIGN_CSV_GOLDEN {
        println!("--- campaign CSV (re-pin the digest below after justifying the change) ---");
        print!("{csv}");
        panic!(
            "campaign CSV digest diverged: expected {CAMPAIGN_CSV_GOLDEN}, got {actual}; \
             full CSV printed above"
        );
    }
}

/// Pinned digest of the committed Table-1 campaign
/// (`specs/table1_rows5to9.json`) as a Slim CSV: the bytes
/// `emac campaign --format csv --detail slim` writes. Unlike the 4 096-round
/// matrix above, this covers long loaded runs and the diverging k-Clique
/// least-on-pair flood, whose 35k-packet backlog exercises the station
/// queues' per-destination and old-packet queries at depth.
const TABLE1_SLIM_CSV_GOLDEN: &str = "a9f7a566ef016505";

#[test]
fn table1_slim_csv_digest_matches_golden() {
    use emac_core::campaign::parse_campaign_spec;

    let text = std::fs::read_to_string("specs/table1_rows5to9.json").unwrap();
    let specs = parse_campaign_spec(&text).unwrap();
    let mut sink = CsvStreamSink::new(Vec::new());
    Campaign::new()
        .threads(2)
        .detail(MetricsDetail::Slim)
        .run_into(&specs, &Registry, &mut sink)
        .unwrap();
    let csv = String::from_utf8(sink.into_inner()).unwrap();
    let actual = format!("{:016x}", Fnv64::new().bytes(csv.as_bytes()).finish());
    if actual != TABLE1_SLIM_CSV_GOLDEN {
        println!("--- Table-1 CSV (re-pin the digest below after justifying the change) ---");
        print!("{csv}");
        panic!(
            "Table-1 CSV digest diverged: expected {TABLE1_SLIM_CSV_GOLDEN}, got {actual}; \
             full CSV printed above"
        );
    }
}

/// Pinned digest of a small grid streamed as **Full** JSON Lines: the
/// bytes `emac campaign --format jsonl` writes. The grid is chosen so the
/// rows carry every shape the JSONL row writer emits — the queue series
/// and delay buckets of Full detail, `drained`, `violations`, the fault
/// counters, an `error` row, a label that needs escaping, and a seed above
/// `i64::MAX` (written as a string) — with one row per registry algorithm.
const FULL_JSONL_GOLDEN: &str = "e5a798233af7ecb3";

fn full_jsonl_matrix() -> Vec<ScenarioSpec> {
    use emac_sim::FaultSpec;

    let base = |alg: &str| {
        ScenarioSpec::new(alg, "uniform")
            .n(6)
            .k(3)
            .rho(Rate::new(1, 8))
            .beta(Rate::integer(2))
            .rounds(2_048)
            .seed(11)
    };
    let mut specs: Vec<ScenarioSpec> = [
        "orchestra",
        "orchestra-nomb",
        "count-hop",
        "adjust-window",
        "k-cycle",
        "k-cycle:1/2",
        "k-clique",
        "k-subsets",
        "k-subsets-rrw",
        "duty-cycle",
    ]
    .into_iter()
    .map(base)
    .collect();
    specs.extend([
        base("count-hop").drain(20_000),
        base("k-cycle").cap(2),
        base("k-cycle").faults(FaultSpec {
            seed: 5,
            jam: Rate::new(1, 10),
            crash: Rate::new(1, 200),
            crash_len: 16,
            deaf: Rate::new(1, 50),
            ..FaultSpec::default()
        }),
        base("k-subsets").k(6),
        base("k-clique").label("quoted \"label\", with a comma"),
        base("k-subsets").seed(u64::MAX - 6),
    ]);
    specs
}

#[test]
fn full_jsonl_digest_matches_golden() {
    use emac_core::campaign::JsonLinesSink;

    let specs = full_jsonl_matrix();
    let mut sink = JsonLinesSink::new(Vec::new());
    Campaign::new().threads(2).run_into(&specs, &Registry, &mut sink).unwrap();
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(jsonl.lines().count(), specs.len());
    for shape in [
        "\"queue_series\":[[0,",
        "\"delay_log2_buckets\":[",
        "\"drained\":true",
        "\"clean\":false,\"violations\":\"",
        "\"jammed_rounds\":",
        "\"crashes\":",
        "\"deaf_rounds\":",
        "\"error\":\"",
        "\"label\":\"quoted \\\"label\\\", with a comma\"",
        "\"seed\":\"18446744073709551609\"",
    ] {
        assert!(jsonl.contains(shape), "the grid must produce {shape:?}:\n{jsonl}");
    }
    let actual = format!("{:016x}", Fnv64::new().bytes(jsonl.as_bytes()).finish());
    if actual != FULL_JSONL_GOLDEN {
        println!("--- Full JSONL (re-pin the digest below after justifying the change) ---");
        print!("{jsonl}");
        panic!(
            "Full JSONL digest diverged: expected {FULL_JSONL_GOLDEN}, got {actual}; \
             full JSONL printed above"
        );
    }
}

/// `Slim` detail invariance over the registry grid: every scalar metric
/// equals its `Full` counterpart, so the CSV export (scalar columns only)
/// digests to [`CAMPAIGN_CSV_GOLDEN`] too.
#[test]
fn slim_detail_scalars_match_full_on_registry_grid() {
    let (csv, _) = campaign_csv(MetricsDetail::Slim);
    let digest = format!("{:016x}", Fnv64::new().bytes(csv.as_bytes()).finish());
    assert_eq!(digest, CAMPAIGN_CSV_GOLDEN, "Slim changed a scalar CSV column");
    let specs = campaign_matrix();
    let full = Campaign::new().threads(4).run(&specs, &Registry);
    let slim = Campaign::new().threads(4).detail(MetricsDetail::Slim).run(&specs, &Registry);
    for (f, s) in full.reports().zip(slim.reports()) {
        assert_eq!(report_scalars(f), report_scalars(s));
        assert!(s.metrics.queue_series.is_empty());
        assert!(s.metrics.delay.log2_buckets().iter().all(|&c| c == 0));
    }
}

#[allow(clippy::type_complexity)]
fn report_scalars(r: &emac_core::RunReport) -> (u64, u64, u64, u128, u64, u64, u64, f64) {
    (
        r.metrics.injected,
        r.metrics.delivered,
        r.metrics.delay.max(),
        r.metrics.delay.sum(),
        r.max_queue(),
        r.metrics.energy_total,
        r.metrics.delay.count(),
        r.stability.slope,
    )
}

/// Pinned digest of a frontier-map CSV export: an FNV-1a fold of the exact
/// bytes a [`CsvMapSink`] writes for a small k-Cycle concentrated-flood
/// map. The campaign digest above catches executor/export refactors; this
/// one catches **search-order** refactors in the frontier engine — wave
/// batching, bisection state, row emission, float formatting — which must
/// all stay byte-for-byte, at any thread count.
const FRONTIER_CSV_GOLDEN: &str = "8d94529b6fcee3c3";

const FRONTIER_GOLDEN_MAP: &str = r#"{
  "template": {"algorithm": "k-cycle", "adversary": "spread-from-one",
               "target": 1, "beta": "1", "rounds": 30000, "probe_cap": 2000},
  "axis": "rho",
  "lo": "0.5 * group_share",
  "hi": "1.25 * k_cycle_threshold",
  "tol": 0.03125,
  "map": {"n": [9, 13], "k": [3]}
}"#;

#[test]
fn frontier_csv_digest_matches_golden_at_any_thread_count() {
    use emac_core::frontier::{CsvMapSink, Frontier, FrontierSpec};

    let spec = FrontierSpec::parse(FRONTIER_GOLDEN_MAP).unwrap();
    let run = |threads: usize| -> String {
        let mut sink = CsvMapSink::new(Vec::new());
        Frontier::new().threads(threads).run_into(&spec, &Registry, &mut sink, None).unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "frontier map must not depend on the thread count");
    let actual = format!("{:016x}", Fnv64::new().bytes(serial.as_bytes()).finish());
    if actual != FRONTIER_CSV_GOLDEN {
        println!("--- frontier CSV (re-pin the digest below after justifying the change) ---");
        print!("{serial}");
        panic!(
            "frontier CSV digest diverged: expected {FRONTIER_CSV_GOLDEN}, got {actual}; \
             full CSV printed above"
        );
    }
}

/// The band-era template keys (`seeds`, `escalate`, `continuation`) must
/// be invisible in a legacy spec's canonical JSON: the spec digest is the
/// checkpoint identity, so any stray key would orphan every pre-band
/// `frontier.ckpt`. Pinned against the shipped legacy spec file with the
/// digest it had before bands existed.
#[test]
fn legacy_frontier_spec_digest_is_unchanged_by_the_band_era() {
    use emac_core::frontier::FrontierSpec;

    let text = std::fs::read_to_string("specs/frontier_theorem5.json").unwrap();
    let spec = FrontierSpec::parse(&text).unwrap();
    let rendered = spec.to_json().render();
    for key in ["seeds", "escalate", "continuation", "band"] {
        assert!(!rendered.contains(key), "legacy spec must not render {key:?}: {rendered}");
    }
    // The digest the CLI binds CSV checkpoints to — old frontier.ckpt
    // files must keep resuming.
    assert_eq!(format!("{:016x}", spec.digest("frontier.csv")), "fbfbbbec6275f974");
}

/// Pinned digest of the seed-ensemble band map over
/// `specs/frontier_theorem5_band.json`: k-Cycle under the seeded
/// concentrated flood, a 5-seed base ensemble escalating to 9 lanes on
/// disagreement, and `n`-continuation warm-starting n=13 from n=9. Pins
/// the whole band pipeline — per-seed solo lanes, escalation, the
/// verdict-flip band columns, warm-start brackets — byte-for-byte at any
/// thread count. The reproduction claim rides on these bytes: at n=9,
/// k=3 the band `[0.199817, 0.200024]` contains `1/ℓ = 1/5` and excludes
/// the paper's claimed `(k−1)/(n−1) = 1/4` (Theorem 5 discrepancy, now a
/// statistical claim rather than one stream's opinion).
const FRONTIER_BAND_CSV_GOLDEN: &str = "a3e0d1df6fb35675";

#[test]
fn frontier_band_csv_digest_matches_golden_at_any_thread_count() {
    use emac_core::frontier::{CsvMapSink, Frontier, FrontierSpec};

    let text = std::fs::read_to_string("specs/frontier_theorem5_band.json").unwrap();
    let spec = FrontierSpec::parse(&text).unwrap();
    let run = |threads: usize| -> String {
        let mut sink = CsvMapSink::new(Vec::new());
        Frontier::new().threads(threads).run_into(&spec, &Registry, &mut sink, None).unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "band map must not depend on the thread count");

    // The acceptance claim, asserted on the bytes themselves so a re-pin
    // cannot silently surrender it: band contains 1/ell, excludes the
    // paper's threshold.
    let n9 = serial.lines().nth(1).expect("n=9 row");
    let fields: Vec<&str> = n9.split(',').collect();
    let (band_lo, band_hi): (f64, f64) = (fields[8].parse().unwrap(), fields[9].parse().unwrap());
    assert!(band_lo <= 0.2 && 0.2 <= band_hi, "band [{band_lo}, {band_hi}] must contain 1/ell");
    assert!(band_hi < 0.25, "band [{band_lo}, {band_hi}] must exclude (k-1)/(n-1) = 0.25");
    let agreement: f64 = fields[10].parse().unwrap();
    assert!(agreement < 1.0, "a band straddling the boundary comes from lane disagreement");

    let actual = format!("{:016x}", Fnv64::new().bytes(serial.as_bytes()).finish());
    if actual != FRONTIER_BAND_CSV_GOLDEN {
        println!("--- band CSV (re-pin the digest below after justifying the change) ---");
        print!("{serial}");
        panic!(
            "band-map CSV digest diverged: expected {FRONTIER_BAND_CSV_GOLDEN}, got {actual}; \
             full CSV printed above"
        );
    }
}

/// Pinned digest of `specs/frontier_kcycle_jammed.json`'s CSV: the first
/// stability surface the paper could not state. With ρ fixed at `0.9 *
/// group_share` (comfortably stable on a clean channel), k-Cycle's jamming
/// tolerance lands at jam ≈ 0.117 for both map points — the channel's
/// spare capacity `1 − 0.9 = 0.1` plus the slack the finite probe horizon
/// affords, and independent of n because both ρ and the schedule share
/// scale with `1/ℓ`.
const FRONTIER_JAMMED_CSV_GOLDEN: &str = "31a3d6d0a5d33107";

#[test]
fn jammed_frontier_csv_digest_matches_golden_at_any_thread_count() {
    use emac_core::frontier::{CsvMapSink, Frontier, FrontierSpec};

    let text = std::fs::read_to_string("specs/frontier_kcycle_jammed.json").unwrap();
    let spec = FrontierSpec::parse(&text).unwrap();
    let run = |threads: usize| -> String {
        let mut sink = CsvMapSink::new(Vec::new());
        Frontier::new().threads(threads).run_into(&spec, &Registry, &mut sink, None).unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "jammed map must not depend on the thread count");

    // The robustness claim on the bytes themselves: the boundary sits
    // above the clean-channel spare capacity (1 - 0.9 = 0.1) but well
    // below the half-jammed channel that would drown ρ outright.
    for row in serial.lines().skip(1) {
        let fields: Vec<&str> = row.split(',').collect();
        let boundary: f64 = fields[5].parse().unwrap();
        assert!(
            (0.1..0.25).contains(&boundary),
            "jam boundary {boundary} outside the spare-capacity window"
        );
        assert_eq!(fields[7], "converged", "{row}");
    }

    let actual = format!("{:016x}", Fnv64::new().bytes(serial.as_bytes()).finish());
    if actual != FRONTIER_JAMMED_CSV_GOLDEN {
        println!("--- jammed CSV (re-pin the digest below after justifying the change) ---");
        print!("{serial}");
        panic!(
            "jammed-map CSV digest diverged: expected {FRONTIER_JAMMED_CSV_GOLDEN}, got {actual}; \
             full CSV printed above"
        );
    }
}

#[test]
fn digests_are_stable_across_repeated_runs_and_thread_counts() {
    // A slice of the matrix, run serially and in parallel: identical digests.
    let specs: Vec<ScenarioSpec> = matrix().into_iter().take(6).collect();
    let serial = Campaign::new().threads(1).run(&specs, &Registry);
    let parallel = Campaign::new().threads(4).run(&specs, &Registry);
    let d = |r: &emac_core::campaign::CampaignResult| -> Vec<String> {
        r.reports().map(report_digest_hex).collect()
    };
    assert_eq!(d(&serial), d(&parallel));
    assert_eq!(d(&serial), d(&Campaign::new().threads(1).run(&specs, &Registry)));
}
