//! E13 — the Section 3.1 / Figure 4 reduction, executed at scale.

use super::Scale;
use crate::table::{fmt_duration, Table};
use crate::timing::{median_duration, time};
use dds_core::lowerbound::SetIntersectionCPtile;
use dds_workload::UniformSetInstance;

/// E13 — set intersection through the CPtile oracle: exactness and query
/// cost of the reduction (Theorem 3.4's construction). Asserts zero
/// mismatches on every row.
pub fn e13_set_intersection(scale: Scale) -> Table {
    let mut table = Table::new(
        "E13 — set intersection ↔ CPtile reduction (Fig. 4 / Thm 3.4)",
        &[
            "g",
            "universe",
            "repl",
            "M",
            "build",
            "oracle/q",
            "brute/q",
            "mismatches",
        ],
    );
    let configs = if scale.quick {
        vec![(8usize, 60u64, 3usize)]
    } else {
        vec![(8usize, 60u64, 3usize), (16, 200, 4), (32, 500, 6)]
    };
    for (g, universe, repl) in configs {
        let inst = UniformSetInstance::generate(g, universe, repl, 0xE12);
        let (red, build) = time(|| SetIntersectionCPtile::build(&inst.sets, inst.universe));
        let mut t_oracle = Vec::new();
        let mut t_brute = Vec::new();
        let mut mismatches = 0usize;
        for i in 0..g {
            for j in 0..g {
                let (got, d) = time(|| red.intersect(i, j));
                t_oracle.push(d);
                let (want, d) = time(|| inst.intersect(i, j));
                t_brute.push(d);
                if got != want {
                    mismatches += 1;
                }
            }
        }
        // Figure 4's reduction is exact: every pair's intersection read off
        // the CPtile oracle equals the brute-force merge.
        assert_eq!(
            mismatches, 0,
            "the CPtile reduction answered set intersection wrongly (g {g}, universe {universe})"
        );
        table.row(vec![
            g.to_string(),
            universe.to_string(),
            repl.to_string(),
            inst.total_size().to_string(),
            fmt_duration(build),
            fmt_duration(median_duration(t_oracle)),
            fmt_duration(median_duration(t_brute)),
            mismatches.to_string(),
        ]);
    }
    table
}
