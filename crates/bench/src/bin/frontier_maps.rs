//! Regenerate the stability-boundary figures through the adaptive
//! frontier subsystem: the Theorem-5 k-Cycle concentrated-flood map (whose
//! boundary sits at the group share `1/ℓ`, below the claimed
//! `(k−1)/(n−1)` region — the pinned reproduction finding) and the
//! k-Subsets map against the Theorem-9 `least-on-pair` adversary (whose
//! boundary sits at the optimal `k(k−1)/(n(n−1))`).
//!
//! ```text
//! cargo run --release -p emac-bench --bin frontier_maps [-- --out DIR]
//! ```
//!
//! Runs the **committed** templates (`specs/frontier_theorem5.json`,
//! `specs/frontier_ksubsets.json`, `specs/frontier_theorem5_band.json`)
//! and writes `frontier_theorem5.csv`, `frontier_ksubsets.csv`, and the
//! band-columned `frontier_theorem5_band.csv` under `--out` (default
//! `results/`), printing each located boundary next to the relevant
//! paper bound.

use emac::registry::Registry;
use emac_core::bounds;
use emac_core::campaign::{Expr, ExprEnv};
use emac_core::frontier::{
    csv_row, Frontier, FrontierSpec, MapRow, MemoryMapSink, FRONTIER_BAND_CSV_HEADER,
    FRONTIER_CSV_HEADER,
};

const THEOREM5_TEMPLATE: &str = include_str!("../../../../specs/frontier_theorem5.json");
const KSUBSETS_TEMPLATE: &str = include_str!("../../../../specs/frontier_ksubsets.json");
const THEOREM5_BAND_TEMPLATE: &str = include_str!("../../../../specs/frontier_theorem5_band.json");

fn run_map(
    name: &str,
    template: &str,
    reference: impl Fn(&MapRow) -> (String, f64),
) -> (&'static str, Vec<String>) {
    let spec = FrontierSpec::parse(template).unwrap_or_else(|e| {
        eprintln!("frontier_maps: {name}: {e}");
        std::process::exit(2);
    });
    let mut sink = MemoryMapSink::new();
    let summary = Frontier::new().run_into(&spec, &Registry, &mut sink, None).unwrap_or_else(|e| {
        eprintln!("frontier_maps: {name}: {e}");
        std::process::exit(2);
    });
    let rows = sink.into_rows();
    if summary.unclean_probes > 0 {
        eprintln!(
            "frontier_maps: {name}: {} probe(s) violated a model invariant; \
             refusing to publish a suspect figure",
            summary.unclean_probes
        );
        std::process::exit(1);
    }
    let escalated = if summary.escalated_probes > 0 {
        format!(", {} escalated", summary.escalated_probes)
    } else {
        String::new()
    };
    println!(
        "\n{name}: {} map point(s), {} probe(s), {} deep{escalated}",
        summary.points, summary.probes_run, summary.waves
    );
    for row in &rows {
        let (bound_name, bound) = reference(row);
        let band = row.band.as_ref().map_or(String::new(), |b| {
            format!(" band [{:.4} .. {:.4}] agree {:.3}", b.lo, b.hi, b.agreement)
        });
        println!(
            "  n={:<3} k={:<2} boundary {:.4} [{} .. {}] ({} probes, {}){band} | {bound_name} = {bound:.4}",
            row.point.n,
            row.point.k,
            row.boundary(),
            row.lo,
            row.hi,
            row.probes,
            row.status.name(),
        );
    }
    let header = if rows.iter().any(|r| r.band.is_some()) {
        FRONTIER_BAND_CSV_HEADER
    } else {
        FRONTIER_CSV_HEADER
    };
    (header, rows.iter().map(csv_row).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone())
        .unwrap_or_else(|| "results".into());

    let theorem5 = run_map("Theorem-5 k-Cycle concentrated flood", THEOREM5_TEMPLATE, |row| {
        // The boundary tracks the group share 1/l, not the claimed region;
        // derive it through the same evaluator the search itself uses, so
        // the annotation can never disagree with the located boundary.
        let share = Expr::parse("group_share")
            .expect("known identifier")
            .eval(&ExprEnv::new(row.point.n, row.point.k))
            .expect("template points host k-Cycle");
        ("group share 1/l".into(), share.as_f64())
    });
    let ksubsets = run_map("Theorem-9 k-Subsets least-on-pair", KSUBSETS_TEMPLATE, |row| {
        let thr = bounds::k_subsets_rate_threshold(row.point.n as u64, row.point.k as u64);
        ("k(k-1)/(n(n-1))".into(), thr.as_f64())
    });
    // The seed-ensemble form of the Theorem-5 map: same reference bound,
    // but each boundary carries a verdict-flip band and agreement score.
    let band = run_map("Theorem-5 seed-ensemble band", THEOREM5_BAND_TEMPLATE, |row| {
        let share = Expr::parse("group_share")
            .expect("known identifier")
            .eval(&ExprEnv::new(row.point.n, row.point.k))
            .expect("template points host k-Cycle");
        ("group share 1/l".into(), share.as_f64())
    });

    for (file, (header, rows)) in [
        ("frontier_theorem5.csv", &theorem5),
        ("frontier_ksubsets.csv", &ksubsets),
        ("frontier_theorem5_band.csv", &band),
    ] {
        let path = format!("{out_dir}/{file}");
        if let Err(e) = emac_bench::write_csv(&path, header, rows) {
            eprintln!("frontier_maps: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
