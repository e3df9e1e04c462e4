//! Example 1.1 of the paper, end to end: an economist searches an open-data
//! repository of city crime datasets for
//!  (i) cities with >= 10% of incidents inside a target region, and
//!  (ii) cities with at least k neighborhoods of high quality of life
//!      (a linear function over crime/pollution/healthcare attributes).
//!
//! ```sh
//! cargo run --release --example open_data_economist
//! ```

use dds_core::framework::Repository;
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{PtileBuildParams, PtileThresholdIndex};
use dds_workload::CityScenario;

fn main() {
    let sc = CityScenario::generate(40, 500, 0.15, 2026);
    println!(
        "open-data repository: {} cities, {} incident records, focus region {:?}\n",
        sc.len(),
        sc.incidents.iter().map(Vec::len).sum::<usize>(),
        sc.brooklyn
    );

    // (i) Percentile search over incident locations.
    let incidents = Repository::from_point_sets(sc.incidents.clone());
    let ptile = PtileThresholdIndex::build_opts(
        &incidents.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let mut coverage = ptile.query(&sc.brooklyn, 0.10);
    coverage.sort_unstable();
    println!(
        ">= 10% of incidents in the focus region ({} cities):",
        coverage.len()
    );
    for &c in &coverage {
        let mass = sc.brooklyn.mass(&sc.incidents[c]);
        let tag = if sc.focused_cities.contains(&c) {
            " [engineered]"
        } else {
            ""
        };
        println!("  {} mass={:.3}{}", sc.names[c], mass, tag);
    }
    // Soundness spot-check: every engineered city is present.
    assert!(sc.focused_cities.iter().all(|c| coverage.contains(c)));

    // (ii) Preference search over neighborhood quality vectors.
    let quality = Repository::from_point_sets(sc.quality.clone());
    let k = 5;
    let pref = PrefIndex::build_opts(
        &quality.exact_synopses(),
        k,
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    // The economist's quality-of-life weighting: equal parts safety, air
    // quality, healthcare.
    let s3 = 1.0 / 3.0f64.sqrt();
    let v = vec![s3, s3, s3];
    let tau = 0.25;
    let mut livable = pref.query(&v, tau);
    livable.sort_unstable();
    println!(
        "\n>= {k} neighborhoods with quality score >= {tau} ({} cities):",
        livable.len()
    );
    for &c in &livable {
        let score = dds_workload::queries::exact_kth_score(&sc.quality[c], &v, k);
        println!("  {} omega_{k}={:.3}", sc.names[c], score);
    }

    // The combined discovery answer: statistically significant coverage AND
    // enough livable neighborhoods.
    let both: Vec<&str> = coverage
        .iter()
        .filter(|c| livable.contains(c))
        .map(|&c| sc.names[c].as_str())
        .collect();
    println!("\ncities satisfying both requirements: {both:?}");
}
