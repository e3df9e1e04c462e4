//! Integration tests for the Pref indexes (Theorems 5.4 and D.4):
//! centralized guarantees on unit-ball repositories, against the exact
//! linear scan.

mod common;

use common::{ball_repo, point_sets, sorted};
use dds_core::baseline::LinearScanPref;
use dds_core::guarantee::check_pref;
use dds_core::pool::BuildOptions;
use dds_core::pref::{DynamicPrefIndex, PrefBuildParams, PrefIndex, PrefMultiIndex};
use dds_geom::Point;
use dds_synopsis::ExactSynopsis;
use dds_workload::queries;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn pref_index_guarantees_d2() {
    let repo = ball_repo(60, 400, 2, 201);
    let sets = point_sets(&repo);
    for k in [1usize, 10] {
        let idx = PrefIndex::build_opts(
            &repo.exact_synopses(),
            k,
            PrefBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        let slack = idx.slack();
        let mut rng = StdRng::seed_from_u64(202 + k as u64);
        for q in 0..30 {
            let v = queries::random_unit_vector(&mut rng, 2);
            let a = queries::threshold_with_selectivity(&sets, &v, k, 0.25);
            let hits = idx.query(&v, a);
            let check = check_pref(&sets, &v, k, a, &hits, slack);
            assert!(
                check.missed.is_empty(),
                "k={k} query {q}: missed {:?}",
                check.missed
            );
            assert!(
                check.out_of_band.is_empty(),
                "k={k} query {q}: band violated {:?}",
                check.out_of_band
            );
        }
    }
}

#[test]
fn pref_index_guarantees_d3() {
    let repo = ball_repo(40, 300, 3, 211);
    let sets = point_sets(&repo);
    let k = 3;
    let params = PrefBuildParams::exact_centralized().with_eps(0.15);
    let idx = PrefIndex::build_opts(&repo.exact_synopses(), k, params, &BuildOptions::serial());
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(212);
    for q in 0..20 {
        let v = queries::random_unit_vector(&mut rng, 3);
        let a = queries::threshold_with_selectivity(&sets, &v, k, 0.25);
        let hits = idx.query(&v, a);
        let check = check_pref(&sets, &v, k, a, &hits, slack);
        assert!(
            check.missed.is_empty(),
            "query {q}: missed {:?}",
            check.missed
        );
        assert!(
            check.out_of_band.is_empty(),
            "query {q}: band violated {:?}",
            check.out_of_band
        );
    }
}

#[test]
fn finer_nets_report_fewer_extras() {
    let repo = ball_repo(80, 300, 2, 221);
    let sets = point_sets(&repo);
    let k = 2;
    let coarse = PrefIndex::build_opts(
        &repo.exact_synopses(),
        k,
        PrefBuildParams::exact_centralized().with_eps(0.4),
        &BuildOptions::serial(),
    );
    let fine = PrefIndex::build_opts(
        &repo.exact_synopses(),
        k,
        PrefBuildParams::exact_centralized().with_eps(0.02),
        &BuildOptions::serial(),
    );
    let mut rng = StdRng::seed_from_u64(222);
    let mut extra_coarse = 0usize;
    let mut extra_fine = 0usize;
    for _ in 0..30 {
        let v = queries::random_unit_vector(&mut rng, 2);
        let a = queries::threshold_with_selectivity(&sets, &v, k, 0.3);
        let exact = sets
            .iter()
            .filter(|p| queries::exact_kth_score(p, &v, k) >= a)
            .count();
        extra_coarse += coarse.query(&v, a).len().saturating_sub(exact);
        extra_fine += fine.query(&v, a).len().saturating_sub(exact);
    }
    assert!(
        extra_fine <= extra_coarse,
        "finer net must not over-report more (fine {extra_fine} vs coarse {extra_coarse})"
    );
}

#[test]
fn multi_pref_conjunctions() {
    let repo = ball_repo(50, 300, 2, 231);
    let sets = point_sets(&repo);
    let k = 2;
    let idx = PrefMultiIndex::build_opts(
        &repo.exact_synopses(),
        k,
        2,
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let slack = idx.slack();
    let mut rng = StdRng::seed_from_u64(232);
    for q in 0..20 {
        let v1 = queries::random_unit_vector(&mut rng, 2);
        let v2 = queries::random_unit_vector(&mut rng, 2);
        let a1 = queries::threshold_with_selectivity(&sets, &v1, k, 0.5);
        let a2 = queries::threshold_with_selectivity(&sets, &v2, k, 0.5);
        let hits = idx.query(&[(v1.clone(), a1), (v2.clone(), a2)]);
        // Recall: exact conjunction qualifiers must be reported.
        for (i, pts) in sets.iter().enumerate() {
            let qualifies = queries::exact_kth_score(pts, &v1, k) >= a1
                && queries::exact_kth_score(pts, &v2, k) >= a2;
            if qualifies {
                assert!(hits.contains(&i), "query {q}: missed {i}");
            }
        }
        // Per-predicate bands.
        for &j in &hits {
            let s1 = queries::exact_kth_score(&sets[j], &v1, k);
            let s2 = queries::exact_kth_score(&sets[j], &v2, k);
            assert!(
                s1 >= a1 - slack - 1e-9 && s2 >= a2 - slack - 1e-9,
                "query {q}: band violated for {j}"
            );
        }
    }
}

#[test]
fn dynamic_pref_tracks_static_answers() {
    let repo = ball_repo(40, 200, 2, 241);
    let sets = point_sets(&repo);
    let k = 1;
    let params = PrefBuildParams::exact_centralized();
    let static_idx = PrefIndex::build_opts(
        &repo.exact_synopses(),
        k,
        params.clone(),
        &BuildOptions::serial(),
    );
    let mut dyn_idx = DynamicPrefIndex::new(2, k, params);
    let mut handles = Vec::new();
    for s in repo.exact_synopses() {
        handles.push(dyn_idx.insert_synopsis(&s));
    }
    let mut rng = StdRng::seed_from_u64(242);
    for _ in 0..20 {
        let v = queries::random_unit_vector(&mut rng, 2);
        let a = queries::threshold_with_selectivity(&sets, &v, k, 0.3);
        let s_hits = sorted(static_idx.query(&v, a));
        let mut d_hits: Vec<usize> = dyn_idx.query(&v, a).iter().map(|&h| h as usize).collect();
        d_hits.sort_unstable();
        assert_eq!(s_hits, d_hits, "dynamic must equal static before churn");
    }
    // Remove half the synopses; the dynamic answers must shrink accordingly.
    for &h in handles.iter().step_by(2) {
        assert!(dyn_idx.remove_synopsis(h));
    }
    let v = queries::random_unit_vector(&mut rng, 2);
    let hits = dyn_idx.query(&v, -1.0);
    assert!(hits.iter().all(|&h| h % 2 == 1), "removed handles reported");
    assert_eq!(hits.len(), 20);
}

#[test]
fn dynamic_pref_keeps_negative_zero_scores() {
    // Along u = (−1), dataset 0's best point is the origin, and its score
    // −1 · 0.0 sums to −0.0. At a_θ = margin() the reporting threshold is
    // 0.0, which −0.0 meets: both indexes must report dataset 0 alone.
    let synopses = [
        ExactSynopsis::new(vec![Point::one(0.0), Point::one(0.5)]),
        ExactSynopsis::new(vec![Point::one(0.3), Point::one(0.6)]),
    ];
    let params = PrefBuildParams::exact_centralized();
    let static_idx = PrefIndex::build_opts(&synopses, 1, params.clone(), &BuildOptions::serial());
    let mut dyn_idx = DynamicPrefIndex::new(1, 1, params);
    for s in &synopses {
        dyn_idx.insert_synopsis(s);
    }
    let a = static_idx.margin();
    assert_eq!(a, dyn_idx.margin());
    assert_eq!(static_idx.query(&[-1.0], a), vec![0]);
    assert_eq!(dyn_idx.query(&[-1.0], a), vec![0]);
}

#[test]
fn pref_matches_linear_scan_within_band() {
    let repo = ball_repo(50, 250, 2, 251);
    let k = 4;
    let idx = PrefIndex::build_opts(
        &repo.exact_synopses(),
        k,
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let scan = LinearScanPref::build(&repo);
    let mut rng = StdRng::seed_from_u64(252);
    for _ in 0..20 {
        let v = queries::random_unit_vector(&mut rng, 2);
        let a = 0.2;
        let exact = scan.query(&v, k, a);
        let approx = idx.query(&v, a);
        // exact ⊆ approx; extras within the band.
        for i in &exact {
            assert!(approx.contains(i));
        }
        for j in &approx {
            assert!(scan.score(*j, &v, k) >= a - idx.slack() - 1e-9);
        }
    }
}
