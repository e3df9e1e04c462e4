//! Experiment harness — regenerates every experiment table listed in
//! [`EXPERIMENTS`] below.
//!
//! ```sh
//! cargo run --release -p dds-bench --bin experiments -- --all
//! cargo run --release -p dds-bench --bin experiments -- --e1 --e6
//! cargo run --release -p dds-bench --bin experiments -- --all --quick
//! cargo run --release -p dds-bench --bin experiments -- --smoke   # CI sanity run
//! ```

use dds_bench::experiments::{
    ablations, batch, churn, exact, fault, federated, latency, lowerbound, pref, ptile, routing,
    scaling, serving, shard, Scale,
};
use dds_bench::Table;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Counting global allocator: feeds `dds_bench::alloc::ALLOCATIONS` so E12
/// can report measured allocations per query. Lives in the binary because
/// the library crate forbids `unsafe`; the counter itself is a relaxed
/// atomic add, cheap enough to leave on for the whole run.
struct CountingAlloc;

// SAFETY: defers every operation to `System`; only adds a relaxed counter
// increment on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        dds_bench::alloc::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        dds_bench::alloc::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        dds_bench::alloc::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
        "--e12",
        "Batch query throughput (worker pool)",
        batch::e12_batch_query_throughput,
    ),
    (
        "--e13",
        "Set-intersection reduction (Thm 3.4)",
        lowerbound::e13_set_intersection,
    ),
    (
        "--e14",
        "Sharded scatter/gather throughput",
        shard::e14_sharded_throughput,
    ),
    (
        "--e15",
        "Serving steady state: zero-allocation frames",
        serving::e15_serving_allocations,
    ),
    (
        "--e16",
        "Shard lifecycle under churn (split/merge/rebalance)",
        churn::e16_shard_churn,
    ),
    (
        "--e17",
        "Fault soak (chaos proxy + self-healing client)",
        fault::e17_fault_soak,
    ),
    (
        "--e18",
        "Synopsis routing: selectivity × shards skip rates (box vs mass bound, =unrouted)",
        routing::e18_selective_routing,
    ),
    (
        "--e19",
        "Per-stage serving latency (Metrics op: p50/p99/p999 histograms)",
        latency::e19_stage_latency,
    ),
    (
        "--a1",
        "Ablation: pair enumeration",
        ablations::a1_pair_enumeration,
    ),
    ("--a2", "Ablation: search backend", ablations::a2_backend),
    (
        "--a3",
        "Ablation: lazy vs eager deletion",
        ablations::a3_lazy_vs_eager,
    ),
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
    dds_bench::alloc::mark_installed();
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
