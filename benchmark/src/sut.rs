//! The adapter to the system under test: every call into a `dds_*` crate
//! lives in this file, so a rename in the repository is a one-file change
//! here. Only the spellings ROADMAP's API-collapse item keeps are used:
//! `try_*_opts` with an explicit `&BuildOptions`, `*_with(&mut
//! QueryScratch)`, and `DdsClient` / `DdsServer` methods.

use dds_core::framework::{Interval, LogicalExpr, MeasureFunction, Predicate, Repository};
use dds_core::guarantee::{check_pref, check_ptile};
use dds_core::pool::{par_map_with, BuildOptions};
use dds_core::pref::{PrefBuildParams, PrefIndex};
use dds_core::ptile::{PtileBuildParams, PtileRangeIndex};
use dds_core::scratch::QueryScratch;
use dds_core::shard::ShardedEngine;
use dds_geom::{EpsNet, Point, Rect};
use dds_rangetree::{KdTree, OrthoIndex, Region, SortedScores};
use dds_server::protocol::{Request as WireRequest, Response as WireResponse};
use dds_server::wire::Writer;
use dds_server::{ClientConfig, DdsClient, DdsServer, ServerConfig};
use dds_workload::{queries, RepoSpec};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A query expression as the engine and the wire take it.
pub type Expr = LogicalExpr;
/// One answer: ascending global ids, or the engine's typed error rendered.
pub type Answer = Result<Vec<u64>, String>;

/// A call that neither side should ever wait this long for; past it the
/// request counts as failed instead of hanging the run.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

/// One shard of the catalog, ready to ingest.
pub struct CatalogShard {
    pub ids: Vec<u64>,
    pub repo: Repository,
}

/// A generated catalog, partitioned round-robin.
pub struct Catalog {
    pub dim: usize,
    pub n_datasets: usize,
    pub shards: Vec<CatalogShard>,
    /// Every coordinate lies in `[bounds.0, bounds.1]`.
    pub bounds: (f64, f64),
}

impl Catalog {
    /// `RepoSpec::mixed` (uniform / clustered / skewed / correlated
    /// datasets in `[0, 100]^d`), round-robin over `n_shards`.
    pub fn mixed(n_datasets: usize, points: usize, dim: usize, n_shards: usize, seed: u64) -> Self {
        let shards = RepoSpec::mixed(n_datasets, points, dim, seed)
            .shards(n_shards)
            .into_iter()
            .map(|s| CatalogShard {
                ids: s.global_ids,
                repo: Repository::from_point_sets(s.sets),
            })
            .collect();
        Catalog {
            dim,
            n_datasets,
            shards,
            bounds: (0.0, 100.0),
        }
    }

    /// A catalog over caller-generated datasets (`sets[i]` gets global id
    /// `i`), partitioned round-robin exactly as `RepoSpec::shards` does.
    pub fn from_rows(sets: Vec<Vec<Vec<f64>>>, n_shards: usize) -> Self {
        let dim = sets[0][0].len();
        let n_datasets = sets.len();
        let all = || sets.iter().flatten().flatten().copied();
        let bounds = (
            all().fold(f64::INFINITY, f64::min),
            all().fold(f64::NEG_INFINITY, f64::max),
        );
        let mut ids: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
        let mut parts: Vec<Vec<Vec<Point>>> = vec![Vec::new(); n_shards];
        for (i, rows) in sets.into_iter().enumerate() {
            ids[i % n_shards].push(i as u64);
            parts[i % n_shards].push(rows.into_iter().map(Point::new).collect());
        }
        let shards = ids
            .into_iter()
            .zip(parts)
            .map(|(ids, sets)| CatalogShard {
                ids,
                repo: Repository::from_point_sets(sets),
            })
            .collect();
        Catalog {
            dim,
            n_datasets,
            shards,
            bounds,
        }
    }

    /// The points of dataset `gid` (global ids are `0..n_datasets`,
    /// assigned round-robin).
    pub fn points(&self, gid: usize) -> &[Point] {
        let k = self.shards.len();
        self.shards[gid % k].repo.get(gid / k).points()
    }

    /// Every dataset's points in global-id order — the oracle's input.
    pub fn raw(&self) -> Vec<Vec<Point>> {
        (0..self.n_datasets)
            .map(|g| self.points(g).to_vec())
            .collect()
    }

    /// Bytes of raw coordinates (`Σ n_i · d · 8`), the base of
    /// `core.shard.space_amp`.
    pub fn raw_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.repo.total_points() * self.dim * 8)
            .sum()
    }
}

// ---------------------------------------------------------------------
// Request construction (the generators in `workloads.rs` call these)
// ---------------------------------------------------------------------

pub fn rect_with_selectivity(rng: &mut StdRng, anchor: &[Point], target: f64) -> Rect {
    queries::rect_with_selectivity(rng, anchor, target)
}

pub fn interval_rect(lo: f64, hi: f64) -> Rect {
    Rect::interval(lo, hi)
}

pub fn random_unit_vector(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    queries::random_unit_vector(rng, dim)
}

/// Exact `ω_k(P_gid, v)` for every dataset named, ascending — the pool a
/// Pref threshold quantile is read from.
pub fn sorted_kth_scores(cat: &Catalog, gids: &[usize], v: &[f64], k: usize) -> Vec<f64> {
    let mut scores: Vec<f64> = gids
        .iter()
        .map(|&g| queries::exact_kth_score(cat.points(g), v, k))
        .filter(|s| s.is_finite())
        .collect();
    scores.sort_unstable_by(f64::total_cmp);
    scores
}

/// Coordinate 0 of every point of dataset `gid`.
pub fn first_coordinates(cat: &Catalog, gid: usize) -> Vec<f64> {
    cat.points(gid).iter().map(|p| p.coord(0)).collect()
}

pub fn percentile_between(rect: Rect, lo: f64, hi: f64) -> Expr {
    LogicalExpr::Pred(Predicate::percentile(rect, Interval::new(lo, hi)))
}

pub fn percentile_at_least(rect: Rect, a: f64) -> Expr {
    LogicalExpr::Pred(Predicate::percentile_at_least(rect, a))
}

pub fn topk_at_least(v: Vec<f64>, k: usize, a: f64) -> Expr {
    LogicalExpr::Pred(Predicate::topk_at_least(v, k, a))
}

pub fn and(xs: Vec<Expr>) -> Expr {
    LogicalExpr::And(xs)
}

pub fn or(xs: Vec<Expr>) -> Expr {
    LogicalExpr::Or(xs)
}

// ---------------------------------------------------------------------
// Engine, server, client
// ---------------------------------------------------------------------

/// The build parameters one workload's engine uses everywhere (served,
/// mirror, lab), so the three agree byte for byte.
#[derive(Clone, Debug)]
pub struct EngineSpec {
    pub ranks: Vec<usize>,
    pub rect_budget: usize,
}

impl EngineSpec {
    fn ptile(&self, cat: &Catalog) -> PtileBuildParams {
        PtileBuildParams::default()
            .with_rect_budget(self.rect_budget)
            .with_phi_datasets(cat.n_datasets)
    }
}

/// An in-process engine (the mirror, and the lab the traced pass probes).
pub struct Engine(ShardedEngine);

/// Ingests every shard of the catalog; returns the engine and each
/// shard's ingest time.
pub fn build_engine(cat: &Catalog, spec: &EngineSpec) -> (Engine, Vec<Duration>) {
    let opts = BuildOptions::default();
    let mut engine = ShardedEngine::new(&spec.ranks, spec.ptile(cat), PrefBuildParams::default());
    let mut per_shard = Vec::with_capacity(cat.shards.len());
    for shard in &cat.shards {
        let t = Instant::now();
        engine
            .try_add_shard_opts(&shard.repo, &shard.ids, &opts)
            .expect("generated shards ingest cleanly");
        per_shard.push(t.elapsed());
    }
    (Engine(engine), per_shard)
}

fn render(res: Result<Vec<u64>, dds_core::error::EngineError>) -> Answer {
    res.map_err(|e| e.to_string())
}

/// The guarantee bands an answer is checked against.
pub struct Slacks {
    ptile: f64,
    pref: Vec<(usize, f64)>,
}

impl Slacks {
    fn pref(&self, k: usize) -> f64 {
        self.pref
            .iter()
            .find(|(rank, _)| *rank == k)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// Cache and routing counters, cumulative since the engine was built.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub index_queries: u64,
    pub routed_box: u64,
    pub routed_synopsis: u64,
    pub scatter_units: u64,
    pub buffers_reused: u64,
    pub busy: u64,
}

impl Counters {
    /// `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            index_queries: self.index_queries - earlier.index_queries,
            routed_box: self.routed_box - earlier.routed_box,
            routed_synopsis: self.routed_synopsis - earlier.routed_synopsis,
            scatter_units: self.scatter_units - earlier.scatter_units,
            buffers_reused: self.buffers_reused - earlier.buffers_reused,
            busy: self.busy - earlier.busy,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Scatter units routed away over units planned.
    pub fn skip_ratio(&self) -> f64 {
        let skipped = self.routed_box + self.routed_synopsis;
        ratio(skipped, skipped + self.scatter_units)
    }

    /// Of the units routed away, the share only the synopsis could prove.
    pub fn synopsis_share(&self) -> f64 {
        ratio(self.routed_synopsis, self.routed_box + self.routed_synopsis)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Engine {
    pub fn n_shards(&self) -> usize {
        self.0.n_shards()
    }

    pub fn slacks(&self, ranks: &[usize]) -> Slacks {
        let shard0 = self.0.shard_engine(0);
        Slacks {
            ptile: self.0.ptile_slack(),
            pref: ranks
                .iter()
                .map(|&k| (k, shard0.pref_slack(k).expect("rank is indexed")))
                .collect(),
        }
    }

    pub fn counters(&self) -> Counters {
        let s = self.0.stats_snapshot();
        Counters {
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            index_queries: s.index_queries,
            routed_box: s.shards_routed_past,
            routed_synopsis: s.shards_routed_by_synopsis,
            scatter_units: self.0.telemetry().scatter.count(),
            buffers_reused: 0,
            busy: 0,
        }
    }

    /// Makes every shard's mask cache read as empty, so a replay starts
    /// from the same cold state the served engine started from.
    pub fn reset_caches(&self) {
        for s in 0..self.0.n_shards() {
            self.0.shard_engine(s).mask_cache().invalidate();
        }
    }

    /// The sequential scatter/gather path.
    pub fn query(&self, expr: &Expr, scratch: &mut Scratch) -> Answer {
        render(self.0.try_query_with(expr, &mut scratch.0))
    }

    /// The server's exact call for one `Query` request, down to resolving
    /// the pool options afresh (`ServerConfig::query_threads` is `None`).
    pub fn query_as_served(&self, expr: &Expr) -> Answer {
        let mut out = self
            .0
            .try_query_batch_opts(std::slice::from_ref(expr), &BuildOptions::default());
        render(out.pop().expect("one result per expression"))
    }

    /// Per shard, the scatter units it has evaluated so far; a query
    /// advances exactly the shards it was not routed away from.
    pub fn evaluated_units(&self) -> Vec<u64> {
        self.0.shard_loads().iter().map(|l| l.queries).collect()
    }

    /// One shard's engine through its cross-call mask cache (what a scatter
    /// unit runs), on the calling thread. Returns the shard-local hit count.
    pub fn shard_query_cached(&self, shard: usize, expr: &Expr) -> usize {
        let mut out = self
            .0
            .shard_engine(shard)
            .try_query_batch_opts(std::slice::from_ref(expr), &BuildOptions::serial());
        out.pop()
            .expect("one result per expression")
            .map_or(0, |hits| hits.len())
    }

    /// One shard's engine without the cross-call cache: DNF expansion, one
    /// index query per distinct predicate, bitset algebra.
    pub fn shard_query_uncached(&self, shard: usize, expr: &Expr, scratch: &mut Scratch) -> usize {
        self.0
            .shard_engine(shard)
            .try_query_with(expr, &mut scratch.0)
            .map_or(0, |hits| hits.len())
    }

    pub fn rebuild_shard(&mut self, cat: &Catalog, shard: usize) {
        let s = &cat.shards[shard];
        self.0
            .try_rebuild_shard_opts(shard, &s.repo, &s.ids, &BuildOptions::default())
            .expect("rebuild with the shard's own data");
    }

    /// Splits off every other dataset of `shard`; returns the new shard.
    pub fn split_shard(&mut self, cat: &Catalog, shard: usize) -> usize {
        let move_ids: Vec<u64> = cat.shards[shard].ids.iter().copied().step_by(2).collect();
        self.0
            .try_split_shard_opts(shard, &move_ids, &BuildOptions::default())
            .expect("split names ids the shard holds")
    }

    pub fn merge_shards(&mut self, a: usize, b: usize) -> usize {
        self.0
            .try_merge_shards_opts(a, b, &BuildOptions::default())
            .expect("merge names two served shards")
    }
}

/// Reusable per-thread query state.
pub struct Scratch(QueryScratch);

impl Scratch {
    pub fn new() -> Self {
        Scratch(QueryScratch::new())
    }
}

/// One request of a workload stream.
#[derive(Clone, Debug)]
pub enum Request {
    Query(Expr),
    /// The next lifecycle op of the served engine's [`WriteCycle`].
    Write,
}

impl Request {
    pub fn is_write(&self) -> bool {
        matches!(self, Request::Write)
    }
}

/// The lifecycle ops a run sends over the wire, in a fixed cycle over
/// shard pairs: rebuild(s) → rebuild(s+1) → split(s, every other id) →
/// merge(s, new shard), then on to the next pair. Every op carries the
/// shard's own data, so no answer may move. The cycle is shared by all
/// connections and holds its lock across the call: ops never overlap, so
/// a split is always merged back before the next one starts.
pub struct WriteCycle {
    cat: Arc<Catalog>,
    step: Mutex<usize>,
}

impl WriteCycle {
    pub fn new(cat: Arc<Catalog>) -> Self {
        WriteCycle {
            cat,
            step: Mutex::new(0),
        }
    }

    fn run_next(&self, client: &mut DdsClient) -> Result<(), dds_server::ClientError> {
        let mut step = self.step.lock().expect("a client thread panicked mid-op");
        let n = self.cat.shards.len();
        let s = (*step / 4 * 2) % n;
        match *step % 4 {
            0 | 1 => {
                let shard = (s + *step % 4) % n;
                let data = &self.cat.shards[shard];
                client.rebuild_shard(shard, &data.repo, &data.ids)?;
            }
            2 => {
                let move_ids: Vec<u64> =
                    self.cat.shards[s].ids.iter().copied().step_by(2).collect();
                client.split_shard(s, &move_ids)?;
            }
            _ => {
                client.merge_shards(s, n)?;
            }
        }
        *step += 1;
        Ok(())
    }

    /// Ops still owed before the engine is back to its ingested shard
    /// layout (a split not yet merged back).
    pub fn pending(&self) -> usize {
        (4 - *self.step.lock().expect("a client thread panicked mid-op") % 4) % 4
    }
}

/// What came back for one request.
#[derive(Clone, Debug)]
pub enum Reply {
    Hits(Answer),
    /// A lifecycle op completed.
    Done,
    /// Transport error, `Busy`, timeout or a typed server error.
    Failed(String),
}

/// A served engine on an ephemeral loopback port.
pub struct Served {
    server: DdsServer,
}

impl Served {
    /// `DdsServer::serve` at `ServerConfig::default()`; with `trace_capacity`
    /// set, every request additionally leaves its exact per-stage
    /// nanoseconds in the slow-query ring.
    pub fn start(engine: Engine, trace_capacity: Option<usize>) -> Served {
        let cfg = match trace_capacity {
            Some(capacity) => ServerConfig {
                slow_query_threshold: Duration::ZERO,
                slow_log_capacity: capacity,
                ..ServerConfig::default()
            },
            None => ServerConfig::default(),
        };
        let server = DdsServer::serve(engine.0, "127.0.0.1:0", cfg).expect("bind loopback");
        Served { server }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn counters(&self) -> Counters {
        let s = self.server.stats();
        Counters {
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            index_queries: s.index_queries,
            routed_box: s.shards_routed_past,
            routed_synopsis: s.shards_routed_by_synopsis,
            scatter_units: self.server.metrics().scatter.total(),
            buffers_reused: s.buffers_reused,
            busy: s.busy_rejections,
        }
    }

    /// The exact per-stage nanoseconds of every traced `Query`, oldest
    /// first.
    pub fn query_traces(&self) -> Vec<StageNs> {
        self.server
            .metrics()
            .slow_queries
            .iter()
            .filter(|t| t.opcode == dds_server::protocol::opcode::QUERY)
            .map(|t| StageNs {
                decode: t.decode_ns,
                queue: t.queue_ns,
                execute: t.execute_ns,
                write: t.write_ns,
                total: t.total_ns,
            })
            .collect()
    }

    /// Graceful shutdown; joins every server thread.
    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// One traced request's server-side stages.
#[derive(Clone, Copy, Debug)]
pub struct StageNs {
    pub decode: u64,
    pub queue: u64,
    pub execute: u64,
    pub write: u64,
    pub total: u64,
}

/// Anything a load generator can drive: the served client here, a fake in
/// the harness self-tests.
pub trait Connection: Send {
    fn send(&mut self, req: &Request) -> Reply;
}

/// A blocking connection to a [`Served`] engine.
pub struct Client {
    inner: DdsClient,
    writes: Arc<WriteCycle>,
}

impl Client {
    pub fn connect(addr: SocketAddr, writes: Arc<WriteCycle>) -> Client {
        let cfg = ClientConfig {
            timeout: Some(CALL_TIMEOUT),
            ..ClientConfig::default()
        };
        Client {
            inner: DdsClient::connect_with(addr, cfg).expect("connect to loopback server"),
            writes,
        }
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.inner.ping().map_err(|e| e.to_string())
    }
}

impl Connection for Client {
    fn send(&mut self, req: &Request) -> Reply {
        match req {
            Request::Query(expr) => match self.inner.query(expr) {
                Ok(res) => Reply::Hits(render(res)),
                Err(e) => Reply::Failed(e.to_string()),
            },
            Request::Write => match self.writes.run_next(&mut self.inner) {
                Ok(()) => Reply::Done,
                Err(e) => Reply::Failed(e.to_string()),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// One answer checked against the raw datasets.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Truly qualifying datasets the answer lacks (must be 0).
    pub missed: usize,
    /// Reported datasets outside the guarantee band (must be 0).
    pub out_of_band: usize,
    pub exact_out: usize,
    pub reported: usize,
}

/// Recall and band check of one answer. A single predicate goes through
/// the repository's own `check_ptile` / `check_pref`; a compound
/// expression is checked by brute force: recall against `Expr::eval`, the
/// band against the same expression with every predicate widened by its
/// index's slack.
pub fn verify(expr: &Expr, ids: &[u64], raw: &[Vec<Point>], slacks: &Slacks) -> Verdict {
    let reported: Vec<usize> = ids.iter().map(|&g| g as usize).collect();
    if let LogicalExpr::Pred(p) = expr {
        let check = match &p.measure {
            MeasureFunction::Percentile(r) => check_ptile(raw, r, p.theta, &reported, slacks.ptile),
            MeasureFunction::TopK { v, k } => {
                check_pref(raw, v, *k, p.theta.lo, &reported, slacks.pref(*k))
            }
        };
        return Verdict {
            missed: check.missed.len(),
            out_of_band: check.out_of_band.len(),
            exact_out: check.exact_out,
            reported: check.reported,
        };
    }
    let mut is_reported = vec![false; raw.len()];
    for &j in &reported {
        is_reported[j] = true;
    }
    let mut verdict = Verdict {
        reported: reported.len(),
        ..Verdict::default()
    };
    for (i, pts) in raw.iter().enumerate() {
        if expr.eval(pts) {
            verdict.exact_out += 1;
            if !is_reported[i] {
                verdict.missed += 1;
            }
        }
        if is_reported[i] && !eval_widened(expr, pts, slacks) {
            verdict.out_of_band += 1;
        }
    }
    verdict
}

fn eval_widened(expr: &Expr, pts: &[Point], slacks: &Slacks) -> bool {
    match expr {
        LogicalExpr::Pred(p) => {
            let slack = match &p.measure {
                MeasureFunction::Percentile(_) => slacks.ptile,
                MeasureFunction::TopK { k, .. } => slacks.pref(*k),
            };
            p.theta.widened(slack + 1e-9).contains(p.measure.eval(pts))
        }
        LogicalExpr::And(xs) => xs.iter().all(|x| eval_widened(x, pts, slacks)),
        LogicalExpr::Or(xs) => xs.iter().any(|x| eval_widened(x, pts, slacks)),
    }
}

// ---------------------------------------------------------------------
// Layer probes (traced pass)
// ---------------------------------------------------------------------

/// Standalone indexes over shard 0, built the way the shard engine builds
/// its own, so index-level spans can be taken on the sampled requests.
pub struct IndexLab {
    ptile: PtileRangeIndex,
    prefs: Vec<(usize, PrefIndex)>,
    pub synopses_ms: f64,
    pub ptile_build_ms: f64,
    pub pref_build_ms: f64,
}

/// A distinct predicate of a request, as the index layer sees it.
pub enum Leaf<'a> {
    Ptile(&'a Rect, Interval),
    Pref(&'a [f64], usize, f64),
}

impl Leaf<'_> {
    pub fn is_ptile(&self) -> bool {
        matches!(self, Leaf::Ptile(..))
    }

    /// The query vector of a preference leaf.
    pub fn direction(&self) -> Option<&[f64]> {
        match self {
            Leaf::Pref(v, ..) => Some(v),
            Leaf::Ptile(..) => None,
        }
    }
}

/// The predicate leaves of `expr`, left to right.
pub fn leaves(expr: &Expr) -> Vec<Leaf<'_>> {
    fn walk<'a>(expr: &'a Expr, out: &mut Vec<Leaf<'a>>) {
        match expr {
            LogicalExpr::Pred(p) => out.push(match &p.measure {
                MeasureFunction::Percentile(r) => Leaf::Ptile(r, p.theta),
                MeasureFunction::TopK { v, k } => Leaf::Pref(v, *k, p.theta.lo),
            }),
            LogicalExpr::And(xs) | LogicalExpr::Or(xs) => xs.iter().for_each(|x| walk(x, out)),
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

impl IndexLab {
    pub fn build(cat: &Catalog, spec: &EngineSpec) -> IndexLab {
        let opts = BuildOptions::default();
        let shard = &cat.shards[0];
        let t = Instant::now();
        let synopses = shard.repo.exact_synopses();
        let synopses_ms = ms(t.elapsed());
        let t = Instant::now();
        let params = spec.ptile(cat).with_seed_ids(shard.ids.clone());
        let ptile = PtileRangeIndex::build_opts(&synopses, params, &opts);
        let ptile_build_ms = ms(t.elapsed());
        let t = Instant::now();
        let prefs: Vec<(usize, PrefIndex)> = spec
            .ranks
            .iter()
            .map(|&k| {
                (
                    k,
                    PrefIndex::build_opts(&synopses, k, PrefBuildParams::default(), &opts),
                )
            })
            .collect();
        let pref_build_ms = ms(t.elapsed()) / spec.ranks.len() as f64;
        IndexLab {
            ptile,
            prefs,
            synopses_ms,
            ptile_build_ms,
            pref_build_ms,
        }
    }

    pub fn lifted_points(&self) -> usize {
        self.ptile.lifted_points()
    }

    pub fn ptile_mem_bytes(&self) -> usize {
        self.ptile.memory_bytes()
    }

    pub fn ptile_margin(&self) -> f64 {
        self.ptile.margin()
    }

    pub fn pref_directions(&self) -> usize {
        self.prefs[0].1.directions()
    }

    pub fn pref_mem_bytes(&self) -> usize {
        self.prefs.iter().map(|(_, p)| p.memory_bytes()).sum()
    }

    /// One index query; returns the hit count.
    pub fn query(&self, leaf: &Leaf<'_>, scratch: &mut Scratch) -> usize {
        match leaf {
            Leaf::Ptile(r, theta) => self.ptile.query_with(r, *theta, &mut scratch.0).len(),
            Leaf::Pref(v, k, a) => {
                let index = &self
                    .prefs
                    .iter()
                    .find(|(rank, _)| rank == k)
                    .expect("rank")
                    .1;
                index.query(v, *a).len()
            }
        }
    }
}

/// A kd-tree shaped like shard 0's lifted Ptile structure: `n` points in
/// `4d + 2` dimensions laid out as `(ρ⁻, ρ̂⁻, ρ⁺, ρ̂⁺, w⁺, w⁻)` over a random
/// coordinate grid, queried with Algorithm 4's orthant. The real lifted
/// points are private to the index; this stand-in prices the kernel alone.
pub struct KernelLab {
    dim: usize,
    tree: KdTree,
    pub build_ms: f64,
}

impl KernelLab {
    pub fn build(rng: &mut StdRng, dim: usize, n: usize, lo: f64, hi: f64, margin: f64) -> Self {
        let grid = 64usize;
        let mut points = Vec::with_capacity(n);
        while points.len() < n {
            // One "dataset": a sorted grid per axis, every rectangle a
            // sub-range of it with weight = covered fraction.
            let axes: Vec<Vec<f64>> = (0..dim)
                .map(|_| {
                    let mut c: Vec<f64> = (0..grid).map(|_| rng.gen_range(lo..hi)).collect();
                    c.sort_unstable_by(f64::total_cmp);
                    c
                })
                .collect();
            for _ in 0..grid.min(n - points.len()) {
                let mut p = vec![0.0; 4 * dim + 2];
                let mut w = 1.0;
                for (h, c) in axes.iter().enumerate() {
                    let i = rng.gen_range(0..grid);
                    let j = rng.gen_range(i..grid);
                    p[h] = c[i];
                    p[dim + h] = if i == 0 { f64::NEG_INFINITY } else { c[i - 1] };
                    p[2 * dim + h] = c[j];
                    p[3 * dim + h] = if j + 1 == grid {
                        f64::INFINITY
                    } else {
                        c[j + 1]
                    };
                    w *= (j - i + 1) as f64 / grid as f64;
                }
                p[4 * dim] = w + margin;
                p[4 * dim + 1] = w - margin;
                points.push(p);
            }
        }
        let threads = BuildOptions::default().threads;
        let t = Instant::now();
        let tree = KdTree::build_par(4 * dim + 2, points, threads);
        KernelLab {
            dim,
            tree,
            build_ms: ms(t.elapsed()),
        }
    }

    /// `KdTree::report` under the orthant of a percentile leaf; returns
    /// hits (`None` for a preference leaf, which has no orthant).
    pub fn report(&self, leaf: &Leaf<'_>, out: &mut Vec<usize>) -> Option<usize> {
        let Leaf::Ptile(rect, theta) = leaf else {
            return None;
        };
        let d = self.dim;
        let mut region = Region::all(4 * d + 2);
        for h in 0..d {
            region.set_lo(h, rect.lo_at(h), false);
            region.set_hi(d + h, rect.lo_at(h), true);
            region.set_hi(2 * d + h, rect.hi_at(h), false);
            region.set_lo(3 * d + h, rect.hi_at(h), true);
        }
        region.set_lo(4 * d, theta.lo, false);
        region.set_hi(4 * d + 1, theta.hi, false);
        out.clear();
        self.tree.report(&region, out);
        Some(out.len())
    }
}

/// `SortedScores` over `n` scores — the Pref index's 1-d kernel.
pub struct ScoresLab {
    scores: SortedScores,
    keys: Vec<f64>,
}

impl ScoresLab {
    pub fn build(rng: &mut StdRng, n: usize) -> Self {
        let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let scores = SortedScores::build(&raw);
        let mut keys = raw;
        keys.sort_unstable_by(f64::total_cmp);
        ScoresLab { scores, keys }
    }

    /// Reports the top `share` of the scores.
    pub fn report_top(&self, share: f64, out: &mut Vec<usize>) -> usize {
        let at = ((1.0 - share) * (self.keys.len() - 1) as f64) as usize;
        out.clear();
        self.scores.report_at_least(self.keys[at], out);
        out.len()
    }
}

/// The ε-net the Pref index snaps query vectors to.
pub struct NetLab(EpsNet);

impl NetLab {
    pub fn build(dim: usize) -> Self {
        NetLab(EpsNet::new(dim, PrefBuildParams::default().eps))
    }

    pub fn nearest(&self, v: &[f64]) -> usize {
        self.0.nearest(v).0
    }
}

/// `par_map_with` over `units` no-op work units at `threads` threads: the
/// spawn/join tax every served query pays before any shard is touched.
pub fn pool_fanout(units: usize, threads: usize) -> usize {
    let items: Vec<usize> = (0..units).collect();
    par_map_with(
        &BuildOptions::with_threads(threads),
        &items,
        || (),
        |(), _, &i| i,
    )
    .len()
}

/// Worker threads the engine's default pool resolves to here
/// (`BuildOptions::default()`: `DDS_THREADS`, else
/// `available_parallelism`) — resolved on every call, as the server does
/// per query.
pub fn default_threads() -> usize {
    BuildOptions::default().threads
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// Encode/decode times and sizes of one request and its real answer.
pub struct CodecNs {
    pub encode_req: u64,
    pub decode_req: u64,
    pub encode_resp: u64,
    pub decode_resp: u64,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

/// Times `Request/Response::{encode_to, decode}` on `expr` and `answer`.
pub fn codec_times(expr: &Expr, answer: &[u64]) -> CodecNs {
    let req = WireRequest::Query(expr.clone());
    let t = Instant::now();
    let mut w = Writer::new();
    let op = req.encode_to(&mut w);
    let req_payload = w.into_bytes();
    let encode_req = ns(t.elapsed());
    let t = Instant::now();
    let decoded = WireRequest::decode(op, &req_payload).expect("own encoding decodes");
    let decode_req = ns(t.elapsed());
    std::hint::black_box(decoded);

    let resp = WireResponse::Hits(Ok(answer.to_vec()));
    let t = Instant::now();
    let mut w = Writer::new();
    let op = resp.encode_to(&mut w);
    let resp_payload = w.into_bytes();
    let encode_resp = ns(t.elapsed());
    let t = Instant::now();
    let decoded = WireResponse::decode(op, &resp_payload).expect("own encoding decodes");
    let decode_resp = ns(t.elapsed());
    std::hint::black_box(decoded);
    CodecNs {
        encode_req,
        decode_req,
        encode_resp,
        decode_resp,
        req_bytes: req_payload.len(),
        resp_bytes: resp_payload.len(),
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
