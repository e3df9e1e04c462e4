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
        let d: Vec<usize> = sorted(
            dynamic
                .query(&r, theta)
                .iter()
                .map(|&h| h as usize)
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
        let got: Vec<usize> = sorted(
            dynamic
                .query(&r, theta)
                .iter()
                .map(|&h| h as usize)
                .collect(),
        );
        assert_eq!(got, want, "after deletions");
    }
}

#[test]
fn anchored_dynamic_index_splits_phi_over_its_anchor() {
    // A declared φ anchor is the split's denominator from the first insert
    // on; only outgrowing it with live datasets panics, as in a static
    // build of that many datasets.
    let repo = mixed_repo(9, 80, 1, 405);
    let synopses = repo.exact_synopses();
    let params = PtileBuildParams::exact_centralized().with_phi_datasets(8);
    let mut dynamic = DynamicPtileIndex::new(1, params);
    let first = dynamic.insert_synopsis(&synopses[0]);
    dynamic.insert_batch(&synopses[1..8], &BuildOptions::with_threads(2));
    assert_eq!(dynamic.len(), 8);
    assert!(dynamic.remove_synopsis(first));
    dynamic.insert_synopsis(&synopses[8]);
    assert_eq!(dynamic.len(), 8);
    let past_anchor = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dynamic.insert_synopsis(&synopses[0]);
    }));
    assert!(past_anchor.is_err(), "nine live datasets");
}

/// One step of the churn script below.
enum Step {
    Insert(usize),
    Batch(std::ops::Range<usize>),
    Remove(u64),
}

#[test]
fn anchored_sampled_churn_tracks_static_builds() {
    // Each step's answers must equal a static build over the live synopses
    // whose seed ids are their handles: a handle's part is sampled once,
    // from the stream a static build gives that seed id, and merges rebuild
    // levels from the retained parts without resampling.
    const ANCHOR: usize = 16;
    let repo = mixed_repo(12, 900, 1, 441);
    let synopses = repo.exact_synopses();
    let params = PtileBuildParams::default()
        .with_rect_budget(200)
        .with_phi_datasets(ANCHOR);
    let queries: Vec<(dds_geom::Rect, Interval)> = (0..8)
        .map(|q| {
            let lo = q as f64 * 11.0;
            (
                dds_geom::Rect::interval(lo, lo + 20.0),
                Interval::new(0.03 * q as f64, 0.12 + 0.1 * q as f64),
            )
        })
        .collect();
    // Level contents (handles) after each step, oldest level last.
    let script = [
        Step::Insert(0),     // [0]
        Step::Insert(1),     // merge: [], [0 1]
        Step::Batch(2..5),   // merge: [4], [], [0 1 2 3]
        Step::Remove(1),     // a retired bit; levels unchanged
        Step::Remove(3),     // likewise
        Step::Batch(5..8),   // merges: [], [], [], [0 2 4 5 6 7] — drops 1, 3
        Step::Remove(6),     // retired inside the level of six
        Step::Insert(8),     // [8], [], [], [0 2 4 5 6 7]
        Step::Insert(9),     // merge: [], [8 9], [], [0 2 4 5 6 7]
        Step::Remove(0),     // retired inside the level of six
        Step::Batch(10..12), // merge: [], [], [8 9 10 11], [0 2 4 5 6 7]
        Step::Remove(10),    // retired inside the level of four
        Step::Remove(9),     // likewise
    ];
    let mut dynamic = DynamicPtileIndex::new(1, params.clone());
    // Live handles, ascending; handle h indexes synopses[h].
    let mut live: Vec<u64> = Vec::new();
    let mut hits = 0;
    for step in &script {
        match step {
            Step::Insert(i) => live.push(dynamic.insert_synopsis(&synopses[*i])),
            Step::Batch(range) => live.extend(
                dynamic.insert_batch(&synopses[range.clone()], &BuildOptions::with_threads(3)),
            ),
            Step::Remove(h) => {
                assert!(dynamic.remove_synopsis(*h));
                assert!(!dynamic.remove_synopsis(*h), "retired handle {h}");
                live.retain(|l| l != h);
            }
        }
        assert_eq!(dynamic.len(), live.len());
        assert!(!dynamic.remove_synopsis(99), "unknown handle");
        let live_synopses: Vec<ExactSynopsis> =
            live.iter().map(|&h| synopses[h as usize].clone()).collect();
        let reference = PtileRangeIndex::build_opts(
            &live_synopses,
            params.clone().with_seed_ids(live.clone()),
            &BuildOptions::serial(),
        );
        for (r, theta) in &queries {
            let want = sorted(
                reference
                    .query(r, *theta)
                    .iter()
                    .map(|&j| live[j])
                    .collect(),
            );
            let got = sorted(dynamic.query(r, *theta));
            assert_eq!(got, want, "{r:?} {theta:?} with live {live:?}");
            hits += got.len();
        }
    }
    assert!(hits > 0, "the queries must report something");
    assert!(dynamic.eps() > 0.0, "sampling path must be engaged");
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
