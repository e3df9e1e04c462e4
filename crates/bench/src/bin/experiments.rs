//! Experiment harness — regenerates every experiment table listed in
//! [`EXPERIMENTS`] below: the paper's claims, not served latency (that is
//! the benchmark's job). Ids are never reused, so the list has gaps.
//!
//! ```sh
//! cargo run --release -p dds-bench --bin experiments -- --all
//! cargo run --release -p dds-bench --bin experiments -- --e1 --e6
//! cargo run --release -p dds-bench --bin experiments -- --all --quick
//! cargo run --release -p dds-bench --bin experiments -- --smoke   # CI sanity run
//! ```

use dds_bench::experiments::{
    ablations, exact, federated, lowerbound, pref, ptile, routing, scaling, Scale,
};
use dds_bench::Table;
use std::time::Instant;

type Experiment = (&'static str, &'static str, fn(Scale) -> Table);

const EXPERIMENTS: &[Experiment] = &[
    (
        "--e1",
        "Ptile threshold query scaling (Thm 4.4)",
        ptile::e1_threshold_query_scaling,
    ),
    (
        "--e2",
        "Ptile threshold guarantees (Thm 4.4)",
        ptile::e2_threshold_guarantees,
    ),
    (
        "--e3",
        "Ptile range predicates (Thm 4.11)",
        ptile::e3_range_queries,
    ),
    ("--e4", "Exact CPtile in R^1 (Thm C.5)", exact::e4_exact_1d),
    (
        "--e5",
        "Logical expressions m=2 (Thm C.8)",
        ptile::e5_multi_predicates,
    ),
    (
        "--e6",
        "Pref threshold queries (Thm 5.4)",
        pref::e6_pref_scaling,
    ),
    (
        "--e7",
        "Pref conjunctions m=2 (Thm D.4)",
        pref::e7_pref_multi,
    ),
    (
        "--e8",
        "Space & preprocessing scaling",
        scaling::e8_construction_scaling,
    ),
    (
        "--e9",
        "Dynamic updates (Remark 1)",
        scaling::e9_dynamic_updates,
    ),
    ("--e10", "Enumeration delay (Remark 3)", scaling::e10_delay),
    (
        "--e11",
        "Federated delta sweep",
        federated::e11_federated_delta_sweep,
    ),
    (
        "--e13",
        "Set-intersection reduction (Thm 3.4)",
        lowerbound::e13_set_intersection,
    ),
    (
        "--e18",
        "Synopsis routing: selectivity × shards skip rates (box vs mass bound, =unrouted)",
        routing::e18_selective_routing,
    ),
    (
        "--a1",
        "Ablation: pair enumeration",
        ablations::a1_pair_enumeration,
    ),
    ("--a2", "Ablation: search backend", ablations::a2_backend),
    (
        "--a4",
        "Ablation: eps vs space budget",
        ablations::a4_eps_budget,
    ),
    (
        "--a5",
        "Ablation: synopsis families",
        ablations::a5_synopsis_families,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = smoke || args.iter().any(|a| a == "--quick");
    let scale = Scale { quick, smoke };
    // Explicit --eN/--aN flags narrow the run; mode flags alone mean all.
    let any_explicit = EXPERIMENTS
        .iter()
        .any(|(flag, _, _)| args.iter().any(|a| a == flag));
    let all =
        args.iter().any(|a| a == "--all") || (!any_explicit && (args.is_empty() || smoke || quick));

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(flag, _, _)| all || args.iter().any(|a| a == flag))
        .collect();
    if selected.is_empty() {
        eprintln!("usage: experiments [--all|--quick|--smoke|--eN|--aN ...]");
        eprintln!("available experiments:");
        for (flag, what, _) in EXPERIMENTS {
            eprintln!("  {flag:<6} {what}");
        }
        std::process::exit(2);
    }

    println!(
        "# Distribution-aware dataset search — experiment run ({} mode)\n",
        if smoke {
            "smoke"
        } else if quick {
            "quick"
        } else {
            "full"
        }
    );
    let t0 = Instant::now();
    for (flag, what, run) in selected {
        eprintln!("running {flag} ({what})…");
        let t = Instant::now();
        let table = run(scale);
        table.print();
        eprintln!("  done in {:.1?}", t.elapsed());
    }
    eprintln!("\ntotal: {:.1?}", t0.elapsed());
}
