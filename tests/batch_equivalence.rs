//! Batch-query equivalence layer: the parallel batch APIs
//! (`MixedQueryEngine::try_query_batch_opts`,
//! `PtileMultiIndex::query_expr_batch_opts`, `PrefIndex::query_batch_opts`,
//! `DynamicPtileIndex::insert_batch`) must be **bit-identical** to
//! sequential one-at-a-time execution for every thread count — same
//! answers, same order, same errors. This is the contract that lets callers
//! pass `BuildOptions::default()` (all available cores), exactly as the
//! build-side `tests/parallel_equivalence.rs` does for construction.
//!
//! Also pins the `&self` refactor at the type level: a shared `Arc<engine>`
//! is queried from plain `std::thread` workers with no locks.

mod common;

use common::sorted;
use dds_core::framework::Repository;
use dds_core::ptile::DynamicPtileIndex;
use dds_core::scratch::QueryScratch;
use distribution_aware_search::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The thread counts the batch-equivalence contract is pinned against.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn synopses_1d(sets: &[Vec<f64>]) -> Vec<dds_synopsis::ExactSynopsis> {
    sets.iter()
        .map(|xs| dds_synopsis::ExactSynopsis::new(xs.iter().map(|&x| Point::one(x)).collect()))
        .collect()
}

/// Generated case: 1-d datasets plus query-shape scalars.
type BatchCase = (Vec<Vec<f64>>, Vec<(f64, f64, f64, f64)>);

/// Strategy: a small integer-grid repository and a batch of query shapes
/// `(lo, width, a, b-width)` from which expressions are derived. The batch
/// deliberately repeats shapes (modulo rounding) so the shared mask cache
/// actually dedups.
fn repo_and_batch() -> impl Strategy<Value = BatchCase> {
    (
        prop::collection::vec(
            prop::collection::vec((-20i32..20).prop_map(|x| x as f64), 1..10),
            1..7,
        ),
        prop::collection::vec(
            ((-25i32..25), (0i32..15), (0u32..=100), (0u32..=60)).prop_map(|(lo, w, a, bw)| {
                (lo as f64, w as f64, a as f64 / 100.0, bw as f64 / 100.0)
            }),
            1..12,
        ),
    )
}

/// A mixed expression (percentile + top-k literals) from one query shape.
fn mixed_expr(lo: f64, w: f64, a: f64, bw: f64) -> LogicalExpr {
    let rect = Rect::interval(lo, lo + w);
    LogicalExpr::Or(vec![
        LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile(
                rect.clone(),
                Interval::new(a, (a + bw).min(1.0)),
            )),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 1, lo + w * a)),
        ]),
        LogicalExpr::Pred(Predicate::percentile_at_least(rect, a)),
    ])
}

/// A percentile-only expression (for the multi-predicate structure).
fn ptile_expr(lo: f64, w: f64, a: f64, bw: f64) -> LogicalExpr {
    let rect = Rect::interval(lo, lo + w);
    let wide = Rect::interval(lo - 3.0, lo + w + 3.0);
    LogicalExpr::Or(vec![
        LogicalExpr::And(vec![
            LogicalExpr::Pred(Predicate::percentile(
                rect,
                Interval::new(a, (a + bw).min(1.0)),
            )),
            LogicalExpr::Pred(Predicate::percentile_at_least(wide.clone(), a / 2.0)),
        ]),
        LogicalExpr::Pred(Predicate::percentile_at_least(wide, (a + bw).min(1.0))),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `MixedQueryEngine::try_query_batch_opts` ≡ sequential `try_query_with`,
    /// and scratch
    /// reuse ≡ fresh scratch, for every thread count.
    #[test]
    fn engine_batch_matches_sequential((sets, shapes) in repo_and_batch()) {
        let repo = Repository::new(
            sets.iter()
                .enumerate()
                .map(|(i, xs)| {
                    Dataset::from_rows(format!("d{i}"), xs.iter().map(|&x| vec![x]).collect())
                })
                .collect(),
        );
        let engine = MixedQueryEngine::build_opts(
            &repo,
            &[1],
            PtileBuildParams::exact_centralized(),
            PrefBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        let exprs: Vec<LogicalExpr> = shapes
            .iter()
            .map(|&(lo, w, a, bw)| mixed_expr(lo, w, a, bw))
            .collect();
        let sequential: Vec<_> = exprs.iter().map(|e| engine.try_query_with(e, &mut QueryScratch::new())).collect();
        // Scratch reuse across a query loop changes nothing.
        let mut scratch = QueryScratch::new();
        let reused: Vec<_> = exprs.iter().map(|e| engine.try_query_with(e, &mut scratch)).collect();
        prop_assert_eq!(&reused, &sequential);
        for t in THREADS {
            let batch = engine.try_query_batch_opts(&exprs, &BuildOptions::with_threads(t));
            prop_assert_eq!(&batch, &sequential, "threads = {}", t);
        }
    }

    /// `PtileMultiIndex::query_expr_batch_opts` ≡ sequential `query_expr`.
    #[test]
    fn multi_index_batch_matches_sequential((sets, shapes) in repo_and_batch()) {
        let syns = synopses_1d(&sets);
        let idx = PtileMultiIndex::build_opts(&syns, 2, PtileBuildParams::exact_centralized(), &BuildOptions::serial());
        let exprs: Vec<LogicalExpr> = shapes
            .iter()
            .map(|&(lo, w, a, bw)| ptile_expr(lo, w, a, bw))
            .collect();
        let sequential: Vec<_> = exprs.iter().map(|e| idx.query_expr(e)).collect();
        for t in THREADS {
            let batch = idx.query_expr_batch_opts(&exprs, &BuildOptions::with_threads(t));
            prop_assert_eq!(&batch, &sequential, "threads = {}", t);
        }
    }
}

#[test]
fn pref_batch_matches_sequential() {
    let repo = common::ball_repo(40, 60, 2, 0xBA7C);
    let syns = repo.exact_synopses();
    let idx = PrefIndex::build_opts(
        &syns,
        2,
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let queries: Vec<(Vec<f64>, f64)> = (0..25)
        .map(|i| {
            let angle = i as f64 * 0.251;
            (vec![angle.cos(), angle.sin()], -0.9 + 0.07 * i as f64)
        })
        .collect();
    let sequential: Vec<Vec<usize>> = queries.iter().map(|(u, a)| idx.query(u, *a)).collect();
    for t in THREADS {
        assert_eq!(
            idx.query_batch_opts(&queries, &BuildOptions::with_threads(t)),
            sequential,
            "threads = {t}"
        );
    }
}

/// Degenerate empty clauses (`And([])`, `Or([])`) are handled, not
/// panicked on — in one worker of a batch they would otherwise take the
/// whole batch down via pool panic propagation.
#[test]
fn empty_clauses_are_benign_in_sequential_and_batch() {
    let sets: Vec<Vec<f64>> = vec![vec![1.0, 7.0, 9.0], vec![2.0, 4.0, 6.0, 10.0]];
    let syns = synopses_1d(&sets);
    let idx = PtileMultiIndex::build_opts(
        &syns,
        2,
        PtileBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let empty_and = LogicalExpr::And(vec![]);
    let empty_or = LogicalExpr::Or(vec![]);
    let real = ptile_expr(3.0, 5.0, 0.2, 0.8);
    assert_eq!(idx.query_expr(&empty_and), Ok(vec![]));
    assert_eq!(idx.query_expr(&empty_or), Ok(vec![]));
    let exprs = vec![empty_and.clone(), real.clone(), empty_or.clone()];
    let sequential: Vec<_> = exprs.iter().map(|e| idx.query_expr(e)).collect();
    for t in THREADS {
        assert_eq!(
            idx.query_expr_batch_opts(&exprs, &BuildOptions::with_threads(t)),
            sequential,
            "threads = {t}"
        );
    }
    // The mixed engine agrees (it skips empty clauses the same way).
    let repo = Repository::new(vec![
        Dataset::from_rows("a", vec![vec![1.0], vec![7.0]]),
        Dataset::from_rows("b", vec![vec![2.0], vec![4.0]]),
    ]);
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    assert_eq!(
        engine.try_query_with(&empty_and, &mut QueryScratch::new()),
        Ok(vec![])
    );
    let batch = engine.try_query_batch_opts(
        &[empty_and, mixed_expr(0.0, 8.0, 0.2, 0.5), empty_or],
        &BuildOptions::with_threads(3),
    );
    assert!(batch.iter().all(Result::is_ok));
}

/// The mask cache makes `index_queries` advance by the number of
/// *distinct uncached* predicates in a batch, at every thread count — and
/// since the cache now **survives across `try_query_batch_opts` calls**, only the
/// first batch computes anything; repeats are pure cache hits.
#[test]
fn batch_counts_each_distinct_predicate_once() {
    let repo = common::mixed_repo(10, 40, 1, 0xC0DE);
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    // 12 expressions cycling over 3 distinct shapes; each shape holds 3
    // distinct predicates (And-pair + Or-literal).
    let exprs: Vec<LogicalExpr> = (0..12)
        .map(|i| mixed_expr(10.0 * (i % 3) as f64, 8.0, 0.25, 0.5))
        .collect();
    for (round, t) in THREADS.into_iter().enumerate() {
        let before = engine.index_queries();
        let _ = engine.try_query_batch_opts(&exprs, &BuildOptions::with_threads(t));
        let expected = if round == 0 { 9 } else { 0 };
        assert_eq!(
            engine.index_queries() - before,
            expected,
            "3 shapes x 3 distinct predicates, cached across calls, threads = {t}"
        );
    }
    // 36 lookups per batch (12 expressions x 3 distinct predicates after
    // per-call memoization); the first batch's 9 are misses, everything
    // after is a hit, deterministically.
    assert_eq!(engine.mask_cache().misses(), 9);
    assert_eq!(engine.mask_cache().hits(), (THREADS.len() as u64) * 36 - 9);
    // Invalidation restores the cold-start behaviour without rebuilding.
    engine.mask_cache().invalidate();
    let before = engine.index_queries();
    let _ = engine.try_query_batch_opts(&exprs, &BuildOptions::serial());
    assert_eq!(
        engine.index_queries() - before,
        9,
        "stale entries recompute"
    );
}

/// Batch errors surface per expression, in input order, exactly as the
/// sequential loop produces them.
#[test]
fn engine_batch_preserves_per_expression_errors() {
    let repo = common::mixed_repo(12, 40, 1, 0xE44);
    let engine = MixedQueryEngine::build_opts(
        &repo,
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    );
    let good = LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::interval(0.0, 50.0),
        0.1,
    ));
    let bad = LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0], 9, 0.0));
    let exprs = vec![good.clone(), bad.clone(), good, bad];
    let sequential: Vec<_> = exprs
        .iter()
        .map(|e| engine.try_query_with(e, &mut QueryScratch::new()))
        .collect();
    assert!(sequential[1].is_err() && sequential[3].is_err());
    for t in THREADS {
        assert_eq!(
            engine.try_query_batch_opts(&exprs, &BuildOptions::with_threads(t)),
            sequential,
            "threads = {t}"
        );
    }
}

/// Compile-time-and-runtime proof of the `&self` refactor: one engine
/// shared behind an `Arc` serves concurrent `std::thread` readers with no
/// locks, all agreeing with the single-threaded answers.
#[test]
fn engine_is_shareable_across_plain_threads() {
    let repo = common::mixed_repo(30, 80, 1, 0xA3C);
    let engine = Arc::new(MixedQueryEngine::build_opts(
        &repo,
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized(),
        &BuildOptions::serial(),
    ));
    let exprs: Vec<LogicalExpr> = (0..12)
        .map(|i| mixed_expr(-10.0 + 2.0 * i as f64, 15.0, 0.05 * i as f64, 0.3))
        .collect();
    let expected: Vec<_> = exprs
        .iter()
        .map(|e| engine.try_query_with(e, &mut QueryScratch::new()))
        .collect();
    let mut joined: Vec<(usize, Vec<Result<Vec<usize>, _>>)> = std::thread::scope(|s| {
        (0..4)
            .map(|worker| {
                let engine = Arc::clone(&engine);
                let exprs = &exprs;
                s.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    let answers = exprs
                        .iter()
                        .map(|e| engine.try_query_with(e, &mut scratch))
                        .collect();
                    (worker, answers)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    joined.sort_by_key(|(w, _)| *w);
    for (worker, answers) in joined {
        assert_eq!(answers, expected, "worker {worker}");
    }
}

/// `DynamicPtileIndex::insert_batch` ≡ serial `insert_synopsis` loop:
/// same handles, same quoted errors, same answers — for every thread count
/// (per-handle RNG streams make the payloads order-independent).
#[test]
fn dynamic_insert_batch_matches_serial_inserts() {
    let wl = common::mixed_repo(30, 900, 1, 0xD15);
    let syns = wl.exact_synopses();
    let params = PtileBuildParams::default().with_rect_budget(200);

    let mut serial = DynamicPtileIndex::new(1, params.clone());
    let serial_handles: Vec<_> = syns.iter().map(|s| serial.insert_synopsis(s)).collect();
    assert!(serial.eps() > 0.0, "sampling path must be engaged");

    let queries: Vec<(Rect, Interval)> = (0..8)
        .map(|q| {
            let lo = q as f64 * 9.0;
            (
                Rect::interval(lo, lo + 15.0),
                Interval::new(0.04 * q as f64, 0.1 + 0.09 * q as f64),
            )
        })
        .collect();

    for t in THREADS {
        let mut batched = DynamicPtileIndex::new(1, params.clone());
        let handles = batched.insert_batch(&syns, &BuildOptions::with_threads(t));
        assert_eq!(handles, serial_handles, "threads = {t}");
        assert_eq!(batched.len(), serial.len());
        assert_eq!(batched.eps().to_bits(), serial.eps().to_bits());
        for (rect, theta) in &queries {
            assert_eq!(
                sorted(
                    batched
                        .query(rect, *theta)
                        .iter()
                        .map(|&h| h as usize)
                        .collect()
                ),
                sorted(
                    serial
                        .query(rect, *theta)
                        .iter()
                        .map(|&h| h as usize)
                        .collect()
                ),
                "threads = {t}"
            );
        }
    }

    // Mixing the two insertion paths keeps handles and budgets aligned too.
    let mut mixed = DynamicPtileIndex::new(1, params);
    let first = mixed.insert_synopsis(&syns[0]);
    let rest = mixed.insert_batch(&syns[1..], &BuildOptions::with_threads(3));
    assert_eq!(first, serial_handles[0]);
    assert_eq!(rest, serial_handles[1..]);
    assert_eq!(mixed.eps().to_bits(), serial.eps().to_bits());
}
