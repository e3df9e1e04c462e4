//! Integration tests for the dynamic indexes (Remark 1) and the delay
//! instrumentation (Remark 3).

mod common;

use common::{mixed_repo, point_sets, sorted};
use dds_core::delay::DelayRecorder;
use dds_core::framework::Interval;
use dds_core::pool::BuildOptions;
use dds_core::ptile::{DynamicPtileIndex, PtileBuildParams, PtileRangeIndex, PtileThresholdIndex};
use dds_synopsis::ExactSynopsis;
use dds_workload::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn dynamic_ptile_tracks_static_rebuild() {
    // Supports small enough for the exact-support shortcut on both sides:
    // with ε = 0 the dynamic and static answers must agree bit-for-bit
    // (with sampling, both are correct but may differ inside the band).
    let repo = mixed_repo(30, 80, 1, 401);
    let synopses = repo.exact_synopses();
    let params = PtileBuildParams::exact_centralized();
    let mut dynamic = DynamicPtileIndex::new(1, params.clone());
    let handles: Vec<u64> = synopses
        .iter()
        .map(|s| dynamic.insert_synopsis(s))
        .collect();
    let mut rng = StdRng::seed_from_u64(402);
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);

    // Full set: dynamic answers equal the static index on the same data.
    let static_idx =
        PtileRangeIndex::build_opts(&synopses, params.clone(), &BuildOptions::serial());
    for _ in 0..15 {
        let r = queries::random_rect(&mut rng, &bbox);
        let (a, b) = queries::random_theta(&mut rng, 0.1);
        let theta = Interval::new(a, b);
        let s = sorted(static_idx.query(&r, theta));
        let d = sorted(
            dynamic
                .query(&r, theta)
                .into_iter()
                .map(|h| h as usize)
                .collect(),
        );
        assert_eq!(s, d, "dynamic vs static disagreement");
    }

    // Delete a third, compare against a rebuilt static index.
    let keep: Vec<usize> = (0..30).filter(|i| i % 3 != 0).collect();
    for (i, &h) in handles.iter().enumerate() {
        if i % 3 == 0 {
            assert!(dynamic.remove_synopsis(h));
        }
    }
    let kept_synopses: Vec<ExactSynopsis> = keep.iter().map(|&i| synopses[i].clone()).collect();
    let rebuilt = PtileRangeIndex::build_opts(&kept_synopses, params, &BuildOptions::serial());
    for _ in 0..15 {
        let r = queries::random_rect(&mut rng, &bbox);
        let (a, b) = queries::random_theta(&mut rng, 0.1);
        let theta = Interval::new(a, b);
        let want: Vec<usize> = sorted(
            rebuilt
                .query(&r, theta)
                .into_iter()
                .map(|j| keep[j]) // map back to original ids = handles
                .collect(),
        );
        let got = sorted(
            dynamic
                .query(&r, theta)
                .into_iter()
                .map(|h| h as usize)
                .collect(),
        );
        assert_eq!(got, want, "after deletions");
    }
}

#[test]
fn delay_is_bounded_per_report() {
    // Remark 3: the gap between consecutive reports stays small even when
    // the output is large. We check the empirical max gap is within a
    // liberal constant of the mean (no pathological stalls), which is the
    // observable consequence of the Õ(1)-delay claim.
    let repo = mixed_repo(120, 150, 1, 411);
    let idx = PtileThresholdIndex::build_opts(
        &repo.exact_synopses(),
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let r = dds_geom::Rect::interval(0.0, 100.0);
    let mut rec = DelayRecorder::new();
    idx.query_cb(&r, 0.9, &mut |_| rec.tick());
    rec.finish();
    assert!(rec.results() > 50, "expected a large output");
    let mean = rec.mean_gap();
    let max = rec.max_gap();
    assert!(
        max <= mean * 200 + std::time::Duration::from_millis(5),
        "suspicious stall: max {max:?} vs mean {mean:?}"
    );
}

#[test]
fn dynamic_insertion_is_cheap_relative_to_rebuild() {
    // E9 sanity: one insertion must be much cheaper than a full rebuild.
    let repo = mixed_repo(60, 150, 1, 421);
    let synopses = repo.exact_synopses();
    let params = PtileBuildParams::exact_centralized();
    let mut dynamic = DynamicPtileIndex::new(1, params.clone());
    for s in &synopses {
        dynamic.insert_synopsis(s);
    }
    let extra = ExactSynopsis::new(
        (0..100)
            .map(|i| dds_geom::Point::one(i as f64))
            .collect::<Vec<_>>(),
    );
    let t0 = std::time::Instant::now();
    dynamic.insert_synopsis(&extra);
    let insert_time = t0.elapsed();

    let mut all = synopses.clone();
    all.push(extra);
    let t1 = std::time::Instant::now();
    let _rebuilt = PtileRangeIndex::build_opts(&all, params, &BuildOptions::serial());
    let rebuild_time = t1.elapsed();
    assert!(
        insert_time < rebuild_time,
        "insertion ({insert_time:?}) should beat a rebuild ({rebuild_time:?})"
    );
}

#[test]
fn unknown_delta_remark_semantics() {
    // Remark 2: with unknown per-dataset δ_i, reported sets still satisfy
    // per-dataset bands. We emulate it by building with δ = max δ_i and
    // checking the per-dataset band with each dataset's own δ_i + global ε.
    let repo = mixed_repo(20, 500, 1, 431);
    let sets = point_sets(&repo);
    let mut rng = StdRng::seed_from_u64(432);
    let synopses: Vec<dds_synopsis::GridHistogram> = sets
        .iter()
        .map(|pts| {
            let bins = rng.gen_range(8..64);
            dds_synopsis::GridHistogram::from_points(pts, bins)
        })
        .collect();
    let deltas: Vec<f64> = synopses
        .iter()
        .zip(&sets)
        .map(|(s, pts)| 1.5 * dds_synopsis::error::estimate_percentile_error(s, pts, 60, &mut rng))
        .collect();
    let delta_max = deltas
        .iter()
        .fold(0.0f64, |a, &b| a.max(b))
        .clamp(0.01, 0.6);
    let idx = PtileThresholdIndex::build_opts(
        &synopses,
        PtileBuildParams::federated(delta_max),
        &BuildOptions::serial(),
    );
    let bbox = dds_geom::Rect::from_bounds(&[0.0], &[100.0]);
    for _ in 0..15 {
        let r = queries::random_rect(&mut rng, &bbox);
        let a: f64 = rng.gen_range(0.1..0.8);
        let hits = idx.query(&r, a);
        // Global-budget band must hold for every report.
        for &j in &hits {
            let mass = r.mass(&sets[j]);
            assert!(
                mass >= a - idx.slack() - 1e-9,
                "dataset {j} outside even the global band"
            );
        }
    }
}
