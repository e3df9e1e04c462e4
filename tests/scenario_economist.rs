//! End-to-end run of Example 1.1 (the economist): percentile search for
//! cities with enough incidents in a target region, and preference search
//! for cities with k high quality-of-life neighborhoods.

mod common;

use common::sorted;
use dds_core::framework::Repository;
use dds_core::pool::BuildOptions;
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{PtileBuildParams, PtileThresholdIndex};
use dds_workload::CityScenario;

#[test]
fn percentile_query_finds_focused_cities() {
    let sc = CityScenario::generate(24, 300, 0.15, 501);
    let repo = Repository::from_point_sets(sc.incidents.clone());
    let idx = PtileThresholdIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    // "at least 10% of the data points from Brooklyn" — Example 1.1.
    let hits = idx.query(&sc.brooklyn, 0.10);
    // Every focused city (engineered ≥ 15%) must be found.
    for &c in &sc.focused_cities {
        assert!(hits.contains(&c), "missed focused city {c}");
    }
    // Everything reported is within the guarantee band.
    for &j in &hits {
        let mass = sc.brooklyn.mass(&sc.incidents[j]);
        assert!(
            mass >= 0.10 - idx.slack() - 1e-9,
            "city {j} reported with mass {mass:.3}"
        );
    }
}

#[test]
fn preference_query_finds_high_quality_cities() {
    let sc = CityScenario::generate(24, 200, 0.15, 511);
    let repo = Repository::from_point_sets(sc.quality.clone());
    let k = 5; // "at least k neighborhoods with high quality of life"
    let idx = PrefIndex::build_opts(
        &repo.exact_synopses(),
        k,
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    // Equal-weight quality-of-life direction.
    let s3 = 1.0 / 3.0f64.sqrt();
    let v = vec![s3, s3, s3];
    let tau = 0.25;
    let hits = idx.query(&v, tau);
    // Ground truth + band checks.
    for (i, hoods) in sc.quality.iter().enumerate() {
        let score = dds_workload::queries::exact_kth_score(hoods, &v, k);
        if score >= tau {
            assert!(hits.contains(&i), "missed qualifying city {i}");
        }
    }
    for &j in &hits {
        let score = dds_workload::queries::exact_kth_score(&sc.quality[j], &v, k);
        assert!(score >= tau - idx.slack() - 1e-9, "city {j} out of band");
    }
    // Focused (high-crime) cities are biased to lower quality: at this
    // threshold the answer should skew towards unfocused cities.
    let focused_hits = hits
        .iter()
        .filter(|j| sc.focused_cities.contains(j))
        .count();
    assert!(
        focused_hits * 2 <= hits.len().max(1),
        "focused cities dominate a high-quality query unexpectedly"
    );
}

#[test]
fn combined_discovery_workflow() {
    // The economist's full workflow: find datasets with regional coverage,
    // then rank the same cities by quality — the intersection drives the
    // final analysis.
    let sc = CityScenario::generate(16, 250, 0.2, 521);
    let incidents = Repository::from_point_sets(sc.incidents.clone());
    let quality = Repository::from_point_sets(sc.quality.clone());
    let ptile = PtileThresholdIndex::build_opts(
        &incidents.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let pref = PrefIndex::build_opts(
        &quality.exact_synopses(),
        3,
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let coverage = sorted(ptile.query(&sc.brooklyn, 0.1));
    let s3 = 1.0 / 3.0f64.sqrt();
    let livable = sorted(pref.query(&[s3, s3, s3], 0.0));
    let both: Vec<usize> = coverage
        .iter()
        .filter(|c| livable.contains(c))
        .copied()
        .collect();
    // The workflow must produce a deterministic, reproducible answer.
    let coverage2 = sorted(ptile.query(&sc.brooklyn, 0.1));
    assert_eq!(coverage, coverage2);
    assert!(both.len() <= coverage.len());
}
