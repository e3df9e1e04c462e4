//! Packed-bitset hit masks: word-boundary coverage (63 / 64 / 65 datasets)
//! for the DNF query loops, and the regression pin that predicate dedup in
//! `MixedQueryEngine::try_query_with` still issues exactly one index query per
//! distinct predicate after the `Vec<bool>` → `u64`-word switch.

use distribution_aware_search::prelude::*;

/// `n` one-point 2-d datasets: dataset `j` sits at position `j` with quality
/// `j / n`, so any prefix/suffix of indexes is selectable exactly.
fn unit_repo(n: usize) -> Repository {
    Repository::new(
        (0..n)
            .map(|j| Dataset::from_rows(format!("d{j}"), vec![vec![j as f64 / n as f64, j as f64]]))
            .collect(),
    )
}

fn engine(n: usize) -> MixedQueryEngine {
    MixedQueryEngine::build_opts(
        &unit_repo(n),
        &[1],
        PtileBuildParams::exact_centralized(),
        PrefBuildParams::exact_centralized().with_eps(0.02),
        &BuildOptions::serial(),
    )
}

/// Positions `< cut` (i.e. datasets `0..cut`).
fn below(cut: usize) -> LogicalExpr {
    LogicalExpr::Pred(Predicate::percentile_at_least(
        Rect::from_bounds(&[-1.0, -1.0], &[2.0, cut as f64 - 0.5]),
        0.9,
    ))
}

#[test]
fn word_boundary_universes_answer_exactly() {
    for n in [63usize, 64, 65] {
        let e = engine(n);
        // Everything below n-1 AND quality >= 0.5 — an AND straddling the
        // last partial word.
        let expr = LogicalExpr::And(vec![
            below(n - 1),
            LogicalExpr::Pred(Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5)),
        ]);
        let mut hits = e.try_query_with(&expr, &mut QueryScratch::new()).unwrap();
        hits.sort_unstable();
        let slack_pad = (e.pref_slack(1).unwrap() / (1.0 / n as f64)).ceil() as usize + 1;
        // Exact answer: quality j/n >= 0.5 and j <= n-2.
        let exact: Vec<usize> = (0..n).filter(|&j| 2 * j >= n && j < n - 1).collect();
        for j in &exact {
            assert!(hits.contains(j), "n={n}: missed dataset {j}");
        }
        // Band: nothing further than the Pref slack below the bar, and the
        // percentile predicate (exact here) is never violated.
        let min_allowed = n / 2 - slack_pad.min(n / 2);
        assert!(
            hits.iter().all(|&j| j >= min_allowed && j < n - 1),
            "n={n}: out-of-band hit in {hits:?}"
        );

        // OR over the boundary datasets: indexes 62, 63, 64 are the last
        // bits of word 0 and the first of word 1.
        let last = n - 1;
        let expr = LogicalExpr::Or(vec![
            LogicalExpr::Pred(Predicate::percentile_at_least(
                Rect::from_bounds(&[-1.0, last as f64 - 0.5], &[2.0, last as f64 + 0.5]),
                0.9,
            )),
            below(1),
        ]);
        let mut hits = e.try_query_with(&expr, &mut QueryScratch::new()).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, last], "n={n}");
    }
}

#[test]
fn multi_index_clause_accumulator_at_word_boundaries() {
    for n in [63usize, 64, 65] {
        let syns = unit_repo(n).exact_synopses();
        let idx = PtileMultiIndex::build_opts(
            &syns,
            2,
            PtileBuildParams::exact_centralized(),
            &BuildOptions::serial(),
        );
        // Degenerate band (lo = 0) forces the bitset intersection fallback.
        let hits = idx.query(&[
            (
                Rect::from_bounds(&[-1.0, -1.0], &[2.0, n as f64 - 1.5]),
                Interval::new(0.0, 1.0),
            ),
            (
                Rect::from_bounds(&[-1.0, 0.5], &[2.0, n as f64]),
                Interval::new(0.9, 1.0),
            ),
        ]);
        // Second predicate selects 1..n, first is satisfied by everyone
        // (mass 1 inside for 0..n-1, mass 0 allowed by the zero band).
        assert_eq!(hits, (1..n).collect::<Vec<_>>(), "n={n}");

        // DNF union across the word boundary via query_expr_with's bitset: one
        // clause per dataset in 56..n, so the set bits straddle words 0/1.
        let expr = LogicalExpr::Or(
            (56..n)
                .map(|j| {
                    LogicalExpr::Pred(Predicate::percentile_at_least(
                        Rect::from_bounds(&[-1.0, j as f64 - 0.5], &[2.0, j as f64 + 0.5]),
                        0.9,
                    ))
                })
                .collect(),
        );
        let mut hits = idx
            .query_expr_with(&expr, &mut QueryScratch::new())
            .unwrap();
        hits.sort_unstable();
        assert_eq!(hits, (56..n).collect::<Vec<_>>(), "n={n}");
    }
}

#[test]
fn dnf_dedup_still_issues_one_query_per_distinct_predicate() {
    // 65 datasets: the memoized masks span two words. `(a ∧ s) ∨ (b ∧ s)`
    // mentions 4 literals over 3 distinct predicates.
    let e = engine(65);
    let score = Predicate::topk_at_least(vec![1.0, 0.0], 1, 0.5);
    let a = Predicate::percentile_at_least(Rect::from_bounds(&[-1.0, -1.0], &[2.0, 31.5]), 0.9);
    let b = Predicate::percentile_at_least(Rect::from_bounds(&[-1.0, 31.5], &[2.0, 65.0]), 0.9);
    let expr = LogicalExpr::Or(vec![
        LogicalExpr::And(vec![
            LogicalExpr::Pred(a.clone()),
            LogicalExpr::Pred(score.clone()),
        ]),
        LogicalExpr::And(vec![
            LogicalExpr::Pred(b.clone()),
            LogicalExpr::Pred(score.clone()),
        ]),
    ]);
    assert_eq!(e.index_queries(), 0);
    let hits = e.try_query_with(&expr, &mut QueryScratch::new()).unwrap();
    assert_eq!(
        e.index_queries(),
        3,
        "4 DNF literals over 3 distinct predicates must hit the indexes 3 times"
    );
    // No dataset reported twice across clauses.
    let mut dedup = hits.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), hits.len());
    // Re-querying keeps counting: the plan dedups predicates within one
    // call, and `try_query_with` bypasses the mask cache.
    let _ = e.try_query_with(&expr, &mut QueryScratch::new()).unwrap();
    assert_eq!(e.index_queries(), 6);
}

#[test]
fn bitset_primitive_word_boundaries() {
    for n in [63usize, 64, 65] {
        let mut s = BitSet::new(n);
        assert_eq!(s.len(), n);
        for j in 0..n {
            assert!(s.insert(j));
        }
        assert_eq!(s.count_ones(), n);
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>()
        );
        let mut evens = BitSet::new(n);
        for j in (0..n).step_by(2) {
            evens.insert(j);
        }
        s.and_assign(&evens);
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            (0..n).step_by(2).collect::<Vec<_>>()
        );
        assert_eq!(s.count_ones(), n.div_ceil(2));
        assert!(!s.contains(n), "out of universe");
    }
}
