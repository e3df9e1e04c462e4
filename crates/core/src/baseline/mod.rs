//! The Ω(N) baselines the paper's overview (Section 4.1) compares against:
//! exact per-dataset scans in the centralized setting and synopsis scans
//! (the Fainder-style federated baseline \[8\]) — both linear in the number
//! of datasets per query, in contrast to the indexes' `Õ(1 + OUT)`.

mod pref_scan;
mod ptile_scan;

pub use pref_scan::LinearScanPref;
pub use ptile_scan::{LinearScanPtile, SynopsisScanPtile};
