//! The three workloads' inputs and the output digests they must reproduce.
//!
//! `table1_campaign` and `frontier_maps` read committed spec files, so
//! their outputs are pinned byte-for-byte. `grid_short` is shuffled by the
//! workload seed; its output must equal a serial run of the same grid, and
//! for the two recorded seeds it is pinned as well.

use emac_core::campaign::MetricsDetail;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `specs/table1_rows5to9.json` as a Slim CSV campaign.
    Table1Campaign,
    /// A seeded grid of short scenarios, streamed as Full-detail JSONL.
    GridShort,
    /// The four committed `specs/frontier_*.json` maps, back to back.
    FrontierMaps,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "table1_campaign" => Ok(Self::Table1Campaign),
            "grid_short" => Ok(Self::GridShort),
            "frontier_maps" => Ok(Self::FrontierMaps),
            other => Err(format!(
                "unknown workload {other:?} (table1_campaign, grid_short, frontier_maps)"
            )),
        }
    }
}

/// Output file format of a campaign workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Csv,
    JsonLines,
}

impl Format {
    pub fn file_name(self) -> &'static str {
        match self {
            Format::Csv => "campaign.csv",
            Format::JsonLines => "campaign.jsonl",
        }
    }
}

/// Where a campaign's spec text comes from. Reading it is the first timed
/// step of an iteration.
pub enum Source {
    File(&'static str),
    Text(String),
}

impl Source {
    pub fn read(&self) -> Result<String, String> {
        match self {
            Source::File(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
            }
            Source::Text(text) => Ok(text.clone()),
        }
    }
}

/// A campaign workload: its spec, its output shape, and the FNV-1a digest
/// of the output bytes when that is pinned.
pub struct CampaignJob {
    pub source: Source,
    pub format: Format,
    pub detail: MetricsDetail,
    pub pinned: Option<u64>,
}

/// The committed Table-1 campaign (12 scenarios, 3.0 M rounds).
pub const TABLE1_SPEC: &str = "specs/table1_rows5to9.json";

/// FNV-1a of the Slim CSV the Table-1 campaign writes.
pub const TABLE1_CSV_DIGEST: u64 = 0xa9f7_a566_ef01_6505;

/// The committed frontier maps, run in this order, with the FNV-1a digest
/// of each map's CSV output.
pub const FRONTIER_MAPS: [(&str, u64); 4] = [
    ("specs/frontier_theorem5.json", 0x8898_2990_0cf2_3d5f),
    ("specs/frontier_theorem5_band.json", 0xa3e0_d1df_6fb3_5675),
    ("specs/frontier_ksubsets.json", 0x388a_5f7e_bd47_009b),
    ("specs/frontier_kcycle_jammed.json", 0x31a3_d6d0_a5d3_3107),
];

/// The `--seed` the benchmark is tuned and reported with.
pub const GRID_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming later claims.
pub const GRID_HELD_OUT_SEED: u64 = 20_261_016;

/// FNV-1a of the `grid_short` JSONL output for the two recorded seeds.
const GRID_PINNED: [(u64, u64); 2] =
    [(GRID_SEED, 0x9a64_d518_4d27_882a), (GRID_HELD_OUT_SEED, 0x5895_012d_9e82_0e74)];

/// Scenario families of `grid_short`: `(algorithm, n, k, rho)`. Adaptive
/// algorithms first, then the oblivious ones up to k-Subsets at n = 128,
/// whose 8128-row schedule table dominates its 5k-round run.
const GRID_FAMILIES: [(&str, usize, usize, &str); 8] = [
    ("count-hop", 6, 3, "1/2"),
    ("orchestra", 6, 3, "1/2"),
    ("adjust-window", 6, 3, "1/4"),
    ("k-cycle", 9, 3, "0.8 * k_cycle_threshold"),
    ("k-cycle", 16, 5, "0.8 * k_cycle_threshold"),
    ("k-clique", 8, 4, "k_clique_latency_rate"),
    ("k-subsets", 16, 3, "0.8 * k_subsets_threshold"),
    ("k-subsets", 128, 2, "0.8 * k_subsets_threshold"),
];

/// Scenarios per family in `grid_short`.
const GRID_PER_FAMILY: usize = 32;

/// Start of the stream the `grid_short` scenario seeds are drawn from.
const GRID_SCENARIO_STREAM: u64 = 0x5eed;

pub fn campaign_job(workload: Workload, seed: u64) -> Option<CampaignJob> {
    match workload {
        Workload::Table1Campaign => Some(CampaignJob {
            source: Source::File(TABLE1_SPEC),
            format: Format::Csv,
            detail: MetricsDetail::Slim,
            pinned: Some(TABLE1_CSV_DIGEST),
        }),
        Workload::GridShort => Some(CampaignJob {
            source: Source::Text(grid_short_spec(seed)),
            format: Format::JsonLines,
            detail: MetricsDetail::Full,
            pinned: GRID_PINNED.iter().find(|(s, _)| *s == seed).map(|&(_, d)| d),
        }),
        Workload::FrontierMaps => None,
    }
}

/// The `grid_short` campaign document for `seed`: every family with
/// [`GRID_PER_FAMILY`] scenarios whose own seeds come from a fixed
/// splitmix64 stream, in an order shuffled by `seed`. The scenario set —
/// and so the exact round count — is the same for every `seed`; the order
/// the executor hands rows off in is not.
pub fn grid_short_spec(seed: u64) -> String {
    let mut stream = GRID_SCENARIO_STREAM;
    let mut scenarios = Vec::with_capacity(GRID_FAMILIES.len() * GRID_PER_FAMILY);
    for _ in 0..GRID_PER_FAMILY {
        for (algorithm, n, k, rho) in GRID_FAMILIES {
            let scenario_seed = splitmix64(&mut stream) % 1_000_000_007;
            scenarios.push(format!(
                "{{\"algorithm\": \"{algorithm}\", \"adversary\": \"uniform\", \"n\": {n}, \
                 \"k\": {k}, \"rho\": \"{rho}\", \"beta\": \"2\", \"rounds\": 5000, \
                 \"drain\": 20000, \"seed\": {scenario_seed}}}"
            ));
        }
    }
    // Fisher-Yates, driven by the workload seed.
    let mut order = seed;
    for i in (1..scenarios.len()).rev() {
        let j = (splitmix64(&mut order) % (i as u64 + 1)) as usize;
        scenarios.swap(i, j);
    }
    format!("{{\"scenarios\": [\n  {}\n]}}\n", scenarios.join(",\n  "))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
