//! The four workloads: what each catalog and request stream looks like,
//! why it exists, the frozen open-loop rates, and the shape each must keep
//! (checked at run time, so a later change that quietly turns one
//! workload into another fails the run instead of moving a number).
//!
//! Everything is a function of the seed: the same seed gives the same
//! catalog and the same streams.

use crate::stats::Zipf;
use crate::sut::{self, Catalog, EngineSpec, Expr, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points per dataset are drawn from `[POINTS / 2, POINTS]`.
const POINTS: usize = 250;

/// Bounds a workload's measured shape must stay inside.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Mask-cache hit ratio over the closed phase, `[lo, hi]`.
    pub hit_ratio: (f64, f64),
    /// Median answer size as a share of the catalog, at most.
    pub max_median_answer_share: f64,
    /// Share of scatter units routed away, at least.
    pub min_skip_ratio: f64,
    /// Share of reads with a non-empty answer, at least.
    pub min_nonempty_share: f64,
    /// `core.shard.query_ns / server.client.rtt_ns`, `[lo, hi]` (traced
    /// pass).
    pub engine_share_of_rtt: (f64, f64),
    /// Lifecycle ops per timed phase, at least.
    pub min_writes_per_phase: usize,
}

/// What a pass observed of a workload's shape (`None`: not observed by
/// this pass).
#[derive(Clone, Debug, Default)]
pub struct Observed {
    pub hit_ratio: Option<f64>,
    pub median_answer_share: Option<f64>,
    pub skip_ratio: Option<f64>,
    pub nonempty_share: Option<f64>,
    pub engine_share_of_rtt: Option<f64>,
    /// `(phase, lifecycle ops it carried)`.
    pub writes: Vec<(&'static str, usize)>,
}

impl std::fmt::Display for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        let mut ratio = |name: &str, value: Option<f64>| {
            if let Some(v) = value {
                parts.push(format!("{name} {v:.4}"));
            }
        };
        ratio("hit ratio", self.hit_ratio);
        ratio("median answer / N", self.median_answer_share);
        ratio("route skip", self.skip_ratio);
        ratio("non-empty", self.nonempty_share);
        ratio("engine share of rtt", self.engine_share_of_rtt);
        for (phase, writes) in &self.writes {
            parts.push(format!("{writes} lifecycle ops in {phase}"));
        }
        f.write_str(&parts.join(", "))
    }
}

impl Shape {
    /// Every bound `seen` breaks. A scale model (`--check`) is held only to
    /// the bounds that do not depend on run length or machine speed.
    pub fn violations(&self, seen: &Observed, check: bool) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(hit) = seen.hit_ratio {
            let (lo, hi) = self.hit_ratio;
            let cold = hi <= 0.01;
            if (hit > hi && (cold || !check)) || (hit < lo && !check) {
                out.push(format!(
                    "mask-cache hit ratio {hit:.4} outside [{lo}, {hi}]"
                ));
            }
        }
        if let Some(share) = seen.median_answer_share {
            if share > self.max_median_answer_share {
                out.push(format!(
                    "median answer is {share:.3} of the catalog, above {}",
                    self.max_median_answer_share
                ));
            }
        }
        if let Some(skip) = seen.skip_ratio {
            if skip < self.min_skip_ratio {
                out.push(format!(
                    "route skip ratio {skip:.3} below {}",
                    self.min_skip_ratio
                ));
            }
        }
        if let Some(nonempty) = seen.nonempty_share {
            if nonempty < self.min_nonempty_share {
                out.push(format!(
                    "{nonempty:.3} of reads are non-empty, below {}",
                    self.min_nonempty_share
                ));
            }
        }
        if let (Some(share), false) = (seen.engine_share_of_rtt, check) {
            let (lo, hi) = self.engine_share_of_rtt;
            if share < lo || share > hi {
                out.push(format!(
                    "core.shard.query_ns is {share:.3} of server.client.rtt_ns, outside [{lo}, {hi}]"
                ));
            }
        }
        if !check {
            for (phase, writes) in &seen.writes {
                if *writes < self.min_writes_per_phase {
                    out.push(format!(
                        "{writes} lifecycle ops in the {phase} phase, below {}",
                        self.min_writes_per_phase
                    ));
                }
            }
        }
        out.into_iter().map(|v| format!("shape: {v}")).collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    PtileCold,
    ZipfMixed,
    PrefBall,
    ChurnRouted,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    pub n_datasets: usize,
    pub n_shards: usize,
    pub dim: usize,
    pub engine: EngineSpec,
    /// Every `write_every`-th request of a stream is a lifecycle op (0:
    /// none in the stream).
    pub write_every: usize,
    /// The open-loop arrival rate `half`, requests per second. Frozen here
    /// by the PR that defined the benchmark as 0.5 × that commit's median
    /// `closed_qps` on the 2-core box it was measured on (two significant
    /// digits); never recomputed from the commit being measured. The traced
    /// pass's ladder climbs from it in steps of × 1.25; `high` is its third
    /// rung, 0.78 × that `closed_qps`.
    pub half_qps: f64,
    /// That same commit's `closed_p50_us`: the knee ladder's latency limit
    /// is 5 × this.
    pub seed_closed_p50_us: f64,
    pub shape: Shape,
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "ptile_cold",
            kind: Kind::PtileCold,
            n_datasets: 4000,
            n_shards: 8,
            dim: 1,
            engine: EngineSpec {
                ranks: vec![1],
                rect_budget: 400,
            },
            write_every: 0,
            half_qps: 750.0,
            seed_closed_p50_us: 1250.0,
            shape: Shape {
                hit_ratio: (0.0, 0.01),
                max_median_answer_share: 1.0,
                min_skip_ratio: 0.0,
                min_nonempty_share: 0.0,
                engine_share_of_rtt: (0.5, 10.0),
                min_writes_per_phase: 0,
            },
        },
        Workload {
            name: "zipf_mixed",
            kind: Kind::ZipfMixed,
            n_datasets: 2000,
            n_shards: 4,
            dim: 1,
            engine: EngineSpec {
                ranks: vec![1, 3],
                rect_budget: 400,
            },
            write_every: 0,
            half_qps: 2400.0,
            seed_closed_p50_us: 370.0,
            shape: Shape {
                hit_ratio: (0.5, 0.95),
                max_median_answer_share: 0.25,
                min_skip_ratio: 0.0,
                min_nonempty_share: 0.0,
                engine_share_of_rtt: (0.0, 10.0),
                min_writes_per_phase: 0,
            },
        },
        Workload {
            name: "pref_ball",
            kind: Kind::PrefBall,
            n_datasets: 2000,
            n_shards: 8,
            dim: 2,
            engine: EngineSpec {
                ranks: vec![1, 5, 10],
                rect_budget: 64,
            },
            write_every: 0,
            half_qps: 2700.0,
            seed_closed_p50_us: 360.0,
            shape: Shape {
                hit_ratio: (0.0, 0.01),
                max_median_answer_share: 0.10,
                min_skip_ratio: 0.0,
                min_nonempty_share: 0.0,
                engine_share_of_rtt: (0.0, 0.2),
                min_writes_per_phase: 0,
            },
        },
        Workload {
            name: "churn_routed",
            kind: Kind::ChurnRouted,
            n_datasets: 3200,
            n_shards: 16,
            dim: 1,
            engine: EngineSpec {
                ranks: vec![1],
                rect_budget: 400,
            },
            write_every: 800,
            half_qps: 1500.0,
            seed_closed_p50_us: 500.0,
            shape: Shape {
                hit_ratio: (0.0, 1.0),
                max_median_answer_share: 1.0,
                min_skip_ratio: 0.7,
                min_nonempty_share: 0.2,
                engine_share_of_rtt: (0.0, 10.0),
                min_writes_per_phase: 10,
            },
        },
    ]
}

/// The phases a run draws separate streams for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamId {
    WarmUp = 1,
    Closed = 2,
    OpenHalf = 3,
    /// The traced pass's open-loop rate ladder.
    Ladder = 4,
}

fn sub_seed(seed: u64, salt: u64) -> u64 {
    // splitmix64 finaliser over a golden-ratio stride. The same arithmetic as
    // `dds_pool::mix_seed`, kept apart on purpose: a change to the program
    // under test must not change the benchmark's inputs.
    let mut z = seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// A `1/div` scale model (`--check`): same shape, smaller catalog.
    pub fn scaled(&self, div: usize) -> Workload {
        let mut w = self.clone();
        w.n_datasets = (self.n_datasets / div).max(4 * self.n_shards);
        w
    }

    /// The catalog for `seed`.
    pub fn catalog(&self, seed: u64) -> Catalog {
        let seed = sub_seed(seed, 0);
        match self.kind {
            Kind::PrefBall => {
                Catalog::from_rows(ball_clusters(self.n_datasets, seed), self.n_shards)
            }
            _ => Catalog::mixed(self.n_datasets, POINTS, self.dim, self.n_shards, seed),
        }
    }

    /// What the seed fixes besides the catalog: predicate pools and
    /// threshold tables the streams draw from.
    pub fn generator<'a>(&'a self, cat: &'a Catalog, seed: u64) -> Generator<'a> {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 100));
        let pool = match self.kind {
            Kind::ZipfMixed => Pool::Zipf(ZipfPool::build(cat, &self.engine.ranks, &mut rng)),
            Kind::PrefBall => {
                // Cluster centres are uniform in direction, so one reference
                // direction's ω_k over the catalog stands for every direction.
                let all: Vec<usize> = (0..cat.n_datasets).collect();
                let reference = [1.0, 0.0];
                Pool::Scores(
                    self.engine
                        .ranks
                        .iter()
                        .map(|&k| (k, sut::sorted_kth_scores(cat, &all, &reference, k)))
                        .collect(),
                )
            }
            Kind::ChurnRouted => Pool::Dense(dense_windows(cat)),
            Kind::PtileCold => Pool::None,
        };
        Generator {
            workload: self,
            cat,
            seed,
            pool,
        }
    }
}

/// Clustered datasets inside the unit disk (Pref's Lemma 5.1 needs
/// `‖p‖ ≤ 1`): dataset `i` is uniform in a disk of radius `r ∈ [0.05, 0.3]`
/// centred uniformly in the disk of radius `1 − r`. Unlike uniform
/// unit-ball datasets, whose `ω_k` all agree to within the index's ε band,
/// these spread `ω_k` over `[−1, 1]`, so a threshold selects a few.
fn ball_clusters(n_datasets: usize, seed: u64) -> Vec<Vec<Vec<f64>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let in_disk = |rng: &mut StdRng| loop {
        let (x, y): (f64, f64) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        if x * x + y * y <= 1.0 {
            return (x, y);
        }
    };
    (0..n_datasets)
        .map(|_| {
            let n = rng.gen_range(POINTS / 2..=POINTS);
            let r = rng.gen_range(0.05..0.3);
            let (cx, cy) = in_disk(&mut rng);
            let (cx, cy) = (cx * (1.0 - r), cy * (1.0 - r));
            (0..n)
                .map(|_| {
                    let (x, y) = in_disk(&mut rng);
                    vec![cx + r * x, cy + r * y]
                })
                .collect()
        })
        .collect()
}

/// `ptile_cold`'s predicate: a band of width 0.25 on the mass inside a
/// rectangle anchored on a random dataset. Random reals, so never repeated.
fn cold_percentile(cat: &Catalog, rng: &mut StdRng) -> Expr {
    let sel = rng.gen_range(0.5..0.9);
    let anchor = cat.points(rng.gen_range(0..cat.n_datasets));
    let rect = sut::rect_with_selectivity(rng, anchor, sel);
    let a = rng.gen_range(0.25..0.75);
    sut::percentile_between(rect, a, a + 0.25)
}

enum Pool {
    None,
    Zipf(ZipfPool),
    /// `(centre, mass)` of the densest [`DENSE_WIDTH`]-wide window of every
    /// dataset that keeps at least [`DENSE_MASS`] of its points in one.
    Dense(Vec<(f64, f64)>),
    /// Per rank, the catalog's `ω_k` along a reference direction, ascending.
    Scores(Vec<(usize, Vec<f64>)>),
}

/// `zipf_mixed`'s working set: 16384 distinct predicates and 32768
/// expression shapes over them, both drawn Zipf(1.1) — larger than one
/// shard's 1024-entry mask cache, so the cache both hits and evicts.
struct ZipfPool {
    shapes: Vec<Expr>,
    by_shape: Zipf,
}

/// `churn_routed` anchors half its reads on datasets this concentrated:
/// only they can clear a 50–80 % threshold inside a narrow interval, and
/// only the few shards holding one near the interval are not routed away.
const DENSE_WIDTH: f64 = 10.0;
const DENSE_MASS: f64 = 0.6;

fn dense_windows(cat: &Catalog) -> Vec<(f64, f64)> {
    (0..cat.n_datasets)
        .filter_map(|g| {
            let mut xs = sut::first_coordinates(cat, g);
            xs.sort_unstable_by(f64::total_cmp);
            let mut best = (0usize, 0usize);
            let mut lo = 0;
            for hi in 0..xs.len() {
                while xs[hi] - xs[lo] > DENSE_WIDTH {
                    lo += 1;
                }
                if hi - lo > best.1 - best.0 {
                    best = (lo, hi);
                }
            }
            let mass = (best.1 - best.0 + 1) as f64 / xs.len() as f64;
            (mass >= DENSE_MASS).then(|| (0.5 * (xs[best.0] + xs[best.1]), mass))
        })
        .collect()
}

const ZIPF_S: f64 = 1.1;
const PREDICATES: usize = 16384;
const SHAPES: usize = 32768;

impl ZipfPool {
    fn build(cat: &Catalog, ranks: &[usize], rng: &mut StdRng) -> ZipfPool {
        // Top-k thresholds are quantiles of ω_k over a fixed subsample.
        let sample: Vec<usize> = (0..256).map(|_| rng.gen_range(0..cat.n_datasets)).collect();
        let mut tables = Vec::new();
        for &k in ranks {
            for sign in [1.0, -1.0] {
                tables.push((k, sign, sut::sorted_kth_scores(cat, &sample, &[sign], k)));
            }
        }
        let predicates: Vec<Expr> = (0..PREDICATES)
            .map(|i| {
                if i % 3 == 2 {
                    let (k, sign, scores) = &tables[rng.gen_range(0..tables.len())];
                    let q: f64 = rng.gen_range(0.70..0.99);
                    let a = scores[(q * (scores.len() - 1) as f64) as usize];
                    sut::topk_at_least(vec![*sign], *k, a)
                } else {
                    let anchor = cat.points(rng.gen_range(0..cat.n_datasets));
                    let sel = rng.gen_range(0.1..0.5);
                    let rect = sut::rect_with_selectivity(rng, anchor, sel);
                    sut::percentile_at_least(rect, rng.gen_range(0.3..0.8))
                }
            })
            .collect();
        let by_predicate = Zipf::new(PREDICATES, ZIPF_S);
        let draw = |rng: &mut StdRng| predicates[by_predicate.sample(rng)].clone();
        let shapes = (0..SHAPES)
            .map(|_| {
                let u: f64 = rng.gen();
                if u < 0.5 {
                    draw(rng)
                } else if u < 0.8 {
                    sut::and(vec![draw(rng), draw(rng)])
                } else {
                    sut::or(vec![sut::and(vec![draw(rng), draw(rng)]), draw(rng)])
                }
            })
            .collect();
        ZipfPool {
            shapes,
            by_shape: Zipf::new(SHAPES, ZIPF_S),
        }
    }
}

pub struct Generator<'a> {
    workload: &'a Workload,
    cat: &'a Catalog,
    seed: u64,
    pool: Pool,
}

impl Generator<'_> {
    /// The `len` requests of slice `round` of one phase. Each slice has its
    /// own sub-seed, so none repeats another's requests.
    pub fn stream(&self, id: StreamId, round: usize, len: usize) -> Vec<Request> {
        let mut rng =
            StdRng::seed_from_u64(sub_seed(self.seed, 1000 + 64 * id as u64 + round as u64));
        let every = self.workload.write_every;
        (0..len)
            .map(|i| {
                if every > 0 && i % every == every - 1 {
                    Request::Write
                } else {
                    Request::Query(self.read(&mut rng))
                }
            })
            .collect()
    }

    /// `n` probe predicates of one kind over this catalog, for pricing an
    /// index the workload's own stream never reaches (`percentile`:
    /// `ptile_cold`'s predicate; else a top-k threshold at the 95th
    /// percentile of `ω_k` along a random direction).
    pub fn probes(&self, percentile: bool, n: usize) -> Vec<Expr> {
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, 2000 + percentile as u64));
        let cat = self.cat;
        let sample: Vec<usize> = (0..128).map(|_| rng.gen_range(0..cat.n_datasets)).collect();
        let k = self.workload.engine.ranks[0];
        (0..n)
            .map(|_| {
                if percentile {
                    cold_percentile(cat, &mut rng)
                } else {
                    let v = sut::random_unit_vector(&mut rng, cat.dim);
                    let scores = sut::sorted_kth_scores(cat, &sample, &v, k);
                    let a = scores[(0.95 * (scores.len() - 1) as f64) as usize];
                    sut::topk_at_least(v, k, a)
                }
            })
            .collect()
    }

    fn read(&self, rng: &mut StdRng) -> Expr {
        let cat = self.cat;
        match (&self.workload.kind, &self.pool) {
            // A conjunction of two never-repeated two-sided percentile
            // predicates, each over a rectangle that holds 50–90 % of some
            // dataset: two cold index queries on every shard.
            (Kind::PtileCold, Pool::None) => {
                sut::and(vec![cold_percentile(cat, rng), cold_percentile(cat, rng)])
            }
            (Kind::ZipfMixed, Pool::Zipf(pool)) => pool.shapes[pool.by_shape.sample(rng)].clone(),
            // Unique directions; the threshold sits at a high quantile of
            // the catalog's ω_k, so few datasets clear it.
            (Kind::PrefBall, Pool::Scores(tables)) => {
                let (k, scores) = &tables[rng.gen_range(0..tables.len())];
                let v = sut::random_unit_vector(rng, cat.dim);
                let q: f64 = rng.gen_range(0.92..0.995);
                let a = scores[(q * (scores.len() - 1) as f64) as usize];
                sut::topk_at_least(v, *k, a)
            }
            // Unique narrow at-least predicates: half over a short interval
            // anywhere (mostly empty answers, almost every shard routed
            // away), half over the dense window of a dataset that clears
            // the threshold, so answers are not all empty.
            (Kind::ChurnRouted, Pool::Dense(dense)) => {
                if dense.is_empty() || rng.gen_bool(0.5) {
                    let (c, w) = (rng.gen_range(20.0..80.0), rng.gen_range(1.0..5.0));
                    sut::percentile_at_least(
                        sut::interval_rect(c - w, c + w),
                        rng.gen_range(0.5..0.8),
                    )
                } else {
                    let (c, mass) = dense[rng.gen_range(0..dense.len())];
                    let w = 0.5 * DENSE_WIDTH + rng.gen_range(0.0..2.0);
                    let a = rng.gen_range(0.5..mass.min(0.8));
                    sut::percentile_at_least(sut::interval_rect(c - w, c + w), a)
                }
            }
            _ => unreachable!("generator() builds the pool its kind reads"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(stream: &[Request]) -> Vec<String> {
        stream.iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_phases() {
        for w in all() {
            let w = w.scaled(20);
            let (cat_a, cat_b) = (w.catalog(5), w.catalog(6));
            let a1 = render(&w.generator(&cat_a, 5).stream(StreamId::Closed, 0, 300));
            let a2 = render(
                &w.generator(&w.catalog(5), 5)
                    .stream(StreamId::Closed, 0, 300),
            );
            let b = render(&w.generator(&cat_b, 6).stream(StreamId::Closed, 0, 300));
            let other_phase = render(&w.generator(&cat_a, 5).stream(StreamId::OpenHalf, 0, 300));
            let other_slice = render(&w.generator(&cat_a, 5).stream(StreamId::Closed, 1, 300));
            assert_eq!(a1, a2, "{}: same seed, same stream", w.name);
            assert_ne!(a1, b, "{}: another seed, another stream", w.name);
            assert_ne!(a1, other_phase, "{}: another phase, another stream", w.name);
            assert_ne!(a1, other_slice, "{}: another slice, another stream", w.name);
        }
    }

    #[test]
    fn cold_streams_never_repeat_and_zipf_streams_do() {
        let distinct = |stream: &[Request]| {
            let mut seen: Vec<String> = render(stream);
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        for w in all() {
            let w = w.scaled(20);
            let cat = w.catalog(9);
            let stream = w.generator(&cat, 9).stream(StreamId::Closed, 0, 2000);
            let reads = stream.iter().filter(|r| !r.is_write()).count();
            let writes = stream.len() - reads;
            match w.name {
                "zipf_mixed" => {
                    let d = distinct(&stream);
                    assert!(d < 1500 && d > 200, "{d} distinct shapes in 2000 draws");
                }
                "churn_routed" => {
                    assert_eq!(writes, 2000 / w.write_every);
                    assert_eq!(distinct(&stream), reads + 1, "reads are unique");
                }
                _ => {
                    assert_eq!(writes, 0);
                    assert_eq!(distinct(&stream), 2000, "{}: unique requests", w.name);
                }
            }
        }
    }

    #[test]
    fn shape_bounds_bite_and_a_scale_model_is_held_to_the_scale_free_ones() {
        let cold = &all()[0].shape;
        let warm = Observed {
            hit_ratio: Some(0.3),
            engine_share_of_rtt: Some(0.1),
            ..Observed::default()
        };
        assert_eq!(cold.violations(&warm, false).len(), 2);
        // Under --check the cold workload must still be cold, but its
        // timing ratio is the scale model's, not the workload's.
        assert_eq!(cold.violations(&warm, true).len(), 1);
        let churn = &all()[3].shape;
        let routed = Observed {
            skip_ratio: Some(0.9),
            nonempty_share: Some(0.5),
            writes: vec![("closed", 12), ("open half", 3)],
            ..Observed::default()
        };
        assert_eq!(
            churn.violations(&routed, false),
            vec!["shape: 3 lifecycle ops in the open half phase, below 10".to_string()]
        );
        assert!(churn.violations(&routed, true).is_empty());
        let unrouted = Observed {
            skip_ratio: Some(0.4),
            nonempty_share: Some(0.05),
            ..Observed::default()
        };
        assert_eq!(churn.violations(&unrouted, true).len(), 2);
    }

    #[test]
    fn ball_clusters_stay_inside_the_unit_disk() {
        for set in ball_clusters(50, 1) {
            assert!((POINTS / 2..=POINTS).contains(&set.len()));
            for p in set {
                assert!(p[0] * p[0] + p[1] * p[1] <= 1.0 + 1e-12);
            }
        }
    }
}
