//! Bounded, invalidation-aware predicate-mask cache.
//!
//! Dataset-search deployments are read-mostly catalogs: the same popular
//! filters recur across requests, so a predicate's hit mask computed for
//! one batch call is very likely useful to the next. PR 3's cache
//! lived for a single batch; [`MaskCache`] lifts it to a service-lifetime
//! object the [`MixedQueryEngine`](crate::engine::MixedQueryEngine) owns
//! and every batch call shares:
//!
//! * **Bounded** — at most `capacity` distinct predicate masks are
//!   retained; inserting past the bound evicts the least-recently-used
//!   entry (approximate LRU via a relaxed logical clock — "LRU-ish": a
//!   racing touch may keep a slightly older entry alive, never more than
//!   `capacity` of them).
//! * **Invalidation-aware** — entries are tagged with the cache
//!   *generation* at insert time; [`invalidate`](MaskCache::invalidate)
//!   bumps the generation so every existing entry becomes stale without
//!   touching any other cache. A shard rebuild invalidates only its own
//!   shard's cache this way (see `dds_core::shard`).
//! * **Instrumented** — hit/miss counters are `AtomicU64`s, so the
//!   instrumentation survives concurrent readers exactly like
//!   `MixedQueryEngine::index_queries`. Misses count *computations*: under
//!   a racing batch each resident distinct predicate is still computed
//!   exactly once (the compute runs inside a per-key `OnceLock` cell).
//!   While the distinct-key working set fits `capacity` the miss counter
//!   is therefore deterministic for a given workload at every thread
//!   count; once eviction kicks in, *which* keys get evicted (and so how
//!   often one recomputes) depends on timing — the counters stay exact
//!   totals, but eviction-regime counts can vary run to run. Answers never
//!   do: a recomputed mask is bit-identical to the evicted one.
//! * **Hashed once per expression** — a [`CacheKey`] carries the
//!   predicate's bit-exact encoding and a digest of it under the cache's
//!   SipHash keys (one `RandomState` per cache, shared by every shard
//!   cache of one `ShardedEngine`). A sharded query digests each predicate
//!   once and every shard's map hashes that digest by identity, with
//!   equality still comparing the full encodings. The keys are
//!   client-supplied predicates, so the digest stays keyed: colliding
//!   entries cannot be precomputed to flood one bucket.

use crate::bitset::BitSet;
use crate::engine::EngineError;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Default number of distinct predicate masks a cache retains
/// ([`MaskCache::with_default_capacity`]).
pub const DEFAULT_MASK_CACHE_CAPACITY: usize = 1024;

/// Entries examined per eviction: the victim is the least-recently-used
/// of a bounded sample (memcached-style), not of the whole map, so a full
/// cache never turns every miss into an O(capacity) scan under the write
/// lock. Caches at or below this size still evict exact LRU.
const EVICTION_SAMPLE: usize = 16;

/// One mask computation, shared behind a cell so racing lookups of the
/// same key block on *this* predicate only while exactly one of them
/// computes. Errors cache too — a `MissingRank` answer is as deterministic
/// as a mask.
type MaskCell = Arc<OnceLock<Result<Arc<BitSet>, EngineError>>>;

/// A predicate's cache key: its bit-exact encoding and a keyed digest of
/// it. Built once per expression, when the query is planned, and shared by every
/// lookup of that predicate, in every shard cache hashing with the same
/// keys. Cloning is a reference-count bump.
#[derive(Clone, Debug)]
pub(crate) struct CacheKey {
    digest: u64,
    words: Arc<[u64]>,
}

impl CacheKey {
    /// The key of the predicate encoding `words`, digested under `hasher`
    /// (the [`MaskCache::hasher`] of every cache it will be looked up in).
    pub(crate) fn new(words: &[u64], hasher: &RandomState) -> Self {
        CacheKey {
            digest: hasher.hash_one(words),
            words: words.into(),
        }
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.words == other.words
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// Passes a [`CacheKey`]'s precomputed digest through as the map hash.
#[derive(Default)]
pub(crate) struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only a CacheKey's digest is hashed, through write_u64");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`CacheKey`], hashing each key's digest by identity.
pub(crate) type DigestMap<V> = HashMap<CacheKey, V, BuildHasherDefault<DigestHasher>>;

/// A cached mask plus its bookkeeping: the generation it was inserted
/// under (stale generations read as misses) and a last-touch stamp from
/// the cache's logical clock (drives LRU-ish eviction).
#[derive(Debug)]
struct MaskEntry {
    cell: MaskCell,
    gen: u64,
    stamp: AtomicU64,
}

/// A bounded, generation-tagged predicate-mask cache shared across
/// [`MixedQueryEngine::try_query_batch_opts`](crate::engine::MixedQueryEngine::try_query_batch_opts)
/// calls (and across every query of a `dds_core::shard` shard).
///
/// Keys are the engine's bit-exact predicate encodings, digested under
/// the cache's keys; values are the packed hit-mask bitsets (or the
/// per-predicate error). Lookup takes a read lock on the map only to fetch
/// the per-key cell — the expensive index query runs outside any map lock.
#[derive(Debug)]
pub struct MaskCache {
    map: RwLock<DigestMap<MaskEntry>>,
    /// The SipHash keys every [`CacheKey`] looked up here was digested
    /// with.
    hasher: RandomState,
    capacity: usize,
    /// Current generation; entries tagged with an older value are stale.
    generation: AtomicU64,
    /// Logical clock for LRU stamps (advances on every touch).
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MaskCache {
    /// An empty cache retaining at most `capacity` masks.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, RandomState::new())
    }

    /// An empty cache digesting keys with `hasher` — `ShardedEngine` gives
    /// every shard cache the same one, so a key digested once per query
    /// serves every shard.
    pub(crate) fn with_hasher(capacity: usize, hasher: RandomState) -> Self {
        assert!(capacity >= 1, "mask cache needs capacity >= 1");
        MaskCache {
            map: RwLock::new(DigestMap::default()),
            hasher,
            capacity,
            generation: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty cache with [`DEFAULT_MASK_CACHE_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_MASK_CACHE_CAPACITY)
    }

    /// The retention bound: the cache never holds more than this many
    /// entries (stale-generation entries included — they are evicted
    /// first).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held (current and stale generations alike);
    /// always `<= capacity()`.
    pub fn len(&self) -> usize {
        self.map.read().expect("mask cache poisoned").len()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from a current-generation entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute (fresh key, stale entry, or evicted):
    /// exactly the number of mask computations this cache triggered.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The current generation (starts at 0, bumped by
    /// [`invalidate`](Self::invalidate)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every current entry by bumping the generation: the
    /// entries stay resident until replaced or evicted, but any lookup
    /// sees them as stale and recomputes. Counters are *not* reset — they
    /// report cache effectiveness over its whole lifetime.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The SipHash keys every [`CacheKey`] looked up here must be digested
    /// with.
    pub(crate) fn hasher(&self) -> &RandomState {
        &self.hasher
    }

    /// Returns the cached mask for `key`, computing (and caching) it with
    /// `compute` on a miss. Exactly one caller computes a given key per
    /// generation; racing callers block on that key's cell only.
    pub(crate) fn get_or_compute(
        &self,
        key: &CacheKey,
        compute: impl FnOnce() -> Result<Arc<BitSet>, EngineError>,
    ) -> Result<Arc<BitSet>, EngineError> {
        let gen = self.generation();
        // Fast path: current-generation entry under the read lock.
        let found = {
            let read = self.map.read().expect("mask cache poisoned");
            read.get(key).and_then(|e| {
                (e.gen == gen).then(|| {
                    e.stamp.store(self.tick(), Ordering::Relaxed);
                    Arc::clone(&e.cell)
                })
            })
        };
        let cell = match found {
            Some(cell) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cell
            }
            None => {
                let mut write = self.map.write().expect("mask cache poisoned");
                // Re-read the generation under the write lock: a racing
                // invalidate() between the fast path and here must not let
                // this (older-generation) writer clobber an entry a
                // current-generation worker just inserted.
                let gen = self.generation();
                // Re-check: a racing worker may have inserted the cell
                // between our read and write locks — that is a hit (the
                // compute is theirs).
                match write.get(key) {
                    Some(e) if e.gen == gen => {
                        e.stamp.store(self.tick(), Ordering::Relaxed);
                        let cell = Arc::clone(&e.cell);
                        drop(write);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        cell
                    }
                    _ => {
                        if !write.contains_key(key) && write.len() >= self.capacity {
                            Self::evict_one(&mut write, gen);
                        }
                        let cell: MaskCell = Arc::default();
                        write.insert(
                            key.clone(),
                            MaskEntry {
                                cell: Arc::clone(&cell),
                                gen,
                                stamp: AtomicU64::new(self.tick()),
                            },
                        );
                        drop(write);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        cell
                    }
                }
            }
        };
        cell.get_or_init(compute).clone()
    }

    /// Answers a whole scatter unit from the cache, or declines without a
    /// trace. Under one read lock: when every key has a current-generation
    /// mask that is already computed, appends those masks to `out` in key
    /// order, touches each entry and counts one hit per key — exactly what
    /// [`get_or_compute`](Self::get_or_compute) on each key would have done —
    /// and returns `true`. Otherwise (a key absent, stale, still being
    /// computed or cached as an error) returns `false` and leaves `out`,
    /// the counters and every stamp as they were.
    pub(crate) fn get_resident<'k>(
        &self,
        keys: impl Iterator<Item = &'k CacheKey> + Clone,
        out: &mut Vec<Arc<BitSet>>,
    ) -> bool {
        let gen = self.generation();
        let start = out.len();
        let map = self.map.read().expect("mask cache poisoned");
        for key in keys.clone() {
            match map
                .get(key)
                .filter(|e| e.gen == gen)
                .and_then(|e| e.cell.get())
            {
                Some(Ok(mask)) => out.push(Arc::clone(mask)),
                _ => {
                    out.truncate(start);
                    return false;
                }
            }
        }
        for key in keys {
            if let Some(e) = map.get(key) {
                e.stamp.store(self.tick(), Ordering::Relaxed);
            }
        }
        drop(map);
        self.hits
            .fetch_add((out.len() - start) as u64, Ordering::Relaxed);
        true
    }

    /// Next logical-clock value for an LRU stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts one entry to make room: within a bounded sample of the map
    /// ([`EVICTION_SAMPLE`] entries — the map's iteration prefix, whose
    /// membership rotates as evictions reshape it), any stale-generation
    /// entry first, otherwise the smallest (oldest) stamp.
    fn evict_one(map: &mut DigestMap<MaskEntry>, gen: u64) {
        let victim = map
            .iter()
            .take(EVICTION_SAMPLE)
            .min_by_key(|(_, e)| (e.gen == gen, e.stamp.load(Ordering::Relaxed)))
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            map.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cache: &MaskCache, words: Vec<u64>) -> CacheKey {
        CacheKey::new(&words, cache.hasher())
    }

    fn mask_of(bits: &[usize]) -> Result<Arc<BitSet>, EngineError> {
        let mut m = BitSet::new(64);
        for &b in bits {
            m.insert(b);
        }
        Ok(Arc::new(m))
    }

    #[test]
    fn computes_once_then_hits() {
        let cache = MaskCache::new(8);
        let key = key(&cache, vec![1, 2, 3]);
        let a = cache.get_or_compute(&key, || mask_of(&[1])).unwrap();
        let b = cache
            .get_or_compute(&key, || panic!("must not recompute"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn capacity_bounds_the_map_and_evicts_lru() {
        let cache = MaskCache::new(3);
        for i in 0..10u64 {
            let _ = cache.get_or_compute(&key(&cache, vec![i]), || mask_of(&[i as usize]));
            assert!(cache.len() <= 3, "bound violated at insert {i}");
        }
        assert_eq!(cache.misses(), 10);
        // The three most recent keys survive; the earliest do not.
        let _ = cache.get_or_compute(&key(&cache, vec![9]), || panic!("9 must be resident"));
        assert_eq!(cache.hits(), 1);
        let _ = cache.get_or_compute(&key(&cache, vec![0]), || mask_of(&[0]));
        assert_eq!(cache.misses(), 11, "0 was evicted long ago");
    }

    #[test]
    fn touching_refreshes_lru_position() {
        let cache = MaskCache::new(2);
        let _ = cache.get_or_compute(&key(&cache, vec![1]), || mask_of(&[1]));
        let _ = cache.get_or_compute(&key(&cache, vec![2]), || mask_of(&[2]));
        // Touch 1 so 2 becomes the LRU victim.
        let _ = cache.get_or_compute(&key(&cache, vec![1]), || panic!("resident"));
        let _ = cache.get_or_compute(&key(&cache, vec![3]), || mask_of(&[3]));
        let _ = cache.get_or_compute(&key(&cache, vec![1]), || {
            panic!("1 was refreshed, must survive")
        });
    }

    #[test]
    fn invalidate_makes_entries_stale_without_clearing() {
        let cache = MaskCache::new(4);
        let _ = cache.get_or_compute(&key(&cache, vec![7]), || mask_of(&[7]));
        assert_eq!(cache.generation(), 0);
        cache.invalidate();
        assert_eq!(cache.generation(), 1);
        assert_eq!(cache.len(), 1, "entries stay resident until replaced");
        // Stale entry reads as a miss and is recomputed in place.
        let recomputed = cache
            .get_or_compute(&key(&cache, vec![7]), || mask_of(&[7, 8]))
            .unwrap();
        assert!(recomputed.contains(8));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 1, "replaced, not duplicated");
        // And the refreshed entry hits again.
        let _ = cache.get_or_compute(&key(&cache, vec![7]), || panic!("fresh generation entry"));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn stale_entries_are_preferred_eviction_victims() {
        let cache = MaskCache::new(2);
        let _ = cache.get_or_compute(&key(&cache, vec![1]), || mask_of(&[1]));
        cache.invalidate();
        let _ = cache.get_or_compute(&key(&cache, vec![2]), || mask_of(&[2]));
        // Full: one stale ([1]) + one current ([2]). Inserting [3] must
        // evict the stale [1] even though [2] is older by stamp… ([2] is
        // newer by stamp here, so pin the property with a touch order that
        // would otherwise doom [2]).
        let _ = cache.get_or_compute(&key(&cache, vec![3]), || mask_of(&[3]));
        let _ = cache.get_or_compute(&key(&cache, vec![2]), || {
            panic!("current entry must survive")
        });
        let _ = cache.get_or_compute(&key(&cache, vec![3]), || {
            panic!("current entry must survive")
        });
    }

    #[test]
    fn errors_cache_like_masks() {
        let cache = MaskCache::new(4);
        let err = cache.get_or_compute(&key(&cache, vec![5]), || Err(EngineError::MissingRank(9)));
        assert_eq!(err, Err(EngineError::MissingRank(9)));
        let again = cache.get_or_compute(&key(&cache, vec![5]), || panic!("errors are cached too"));
        assert_eq!(again, Err(EngineError::MissingRank(9)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn concurrent_lookups_compute_each_key_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(MaskCache::new(64));
        let computes = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let word = round % 16;
                        let _ = cache.get_or_compute(&key(&cache, vec![word]), || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            mask_of(&[word as usize])
                        });
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 16, "one compute per key");
        assert_eq!(cache.misses(), 16);
        assert_eq!(cache.hits() + cache.misses(), 8 * 50);
    }

    /// A key whose digest is forced to `digest`, whatever its words.
    fn colliding(words: &[u64], digest: u64) -> CacheKey {
        CacheKey {
            digest,
            words: words.into(),
        }
    }

    /// Every key in one bucket: the map must still tell distinct encodings
    /// apart (equality compares the words), evict within the bound and
    /// honour invalidation — a digest collision may cost time, never an
    /// answer.
    #[test]
    fn colliding_digests_keep_distinct_masks_bounds_and_invalidation() {
        let cache = MaskCache::new(4);
        for i in 0..4u64 {
            let m = cache
                .get_or_compute(&colliding(&[i, 7], 0), || mask_of(&[i as usize]))
                .unwrap();
            assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![i as usize]);
        }
        assert_eq!(cache.len(), 4);
        for i in 0..4u64 {
            let m = cache
                .get_or_compute(&colliding(&[i, 7], 0), || panic!("{i} is resident"))
                .unwrap();
            assert_eq!(
                m.iter_ones().collect::<Vec<_>>(),
                vec![i as usize],
                "a colliding key must never read another key's mask"
            );
        }
        assert_eq!((cache.hits(), cache.misses()), (4, 4));
        for i in 4..40u64 {
            let _ = cache.get_or_compute(&colliding(&[i, 7], 0), || mask_of(&[i as usize]));
            assert!(cache.len() <= 4, "bound violated at insert {i}");
        }
        cache.invalidate();
        let mut resident = Vec::new();
        let live = colliding(&[39, 7], 0);
        assert!(!cache.get_resident(std::iter::once(&live), &mut resident));
        let m = cache.get_or_compute(&live, || mask_of(&[63])).unwrap();
        assert!(m.contains(63), "a stale colliding entry is recomputed");
    }

    /// The all-or-nothing unit lookup: a fully resident key set is answered
    /// and counted exactly like one `get_or_compute` per key; any missing,
    /// stale or error key declines with no counter, stamp or output change.
    #[test]
    fn resident_lookup_is_all_or_nothing() {
        let cache = MaskCache::new(2);
        let (a, b, c, e) = (
            key(&cache, vec![1]),
            key(&cache, vec![2]),
            key(&cache, vec![3]),
            key(&cache, vec![4]),
        );
        let mut out = Vec::new();
        assert!(!cache.get_resident([&a].into_iter(), &mut out));
        let _ = cache.get_or_compute(&a, || mask_of(&[1]));
        let _ = cache.get_or_compute(&b, || mask_of(&[2]));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // One absent key declines the unit and counts nothing.
        assert!(!cache.get_resident([&a, &c].into_iter(), &mut out));
        assert!(out.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // All resident: masks in key order, one hit per key.
        assert!(cache.get_resident([&b, &a].into_iter(), &mut out));
        let bits: Vec<Vec<usize>> = out.iter().map(|m| m.iter_ones().collect()).collect();
        assert_eq!(bits, vec![vec![2], vec![1]]);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // The lookup touched `a` last, so inserting `c` evicts `b`.
        let _ = cache.get_or_compute(&c, || mask_of(&[3]));
        let _ = cache.get_or_compute(&a, || panic!("a was touched, must survive"));
        // Cached errors are answered by the counted path only.
        let _ = cache.get_or_compute(&e, || Err(EngineError::MissingRank(9)));
        out.clear();
        let before = (cache.hits(), cache.misses());
        assert!(!cache.get_resident([&e].into_iter(), &mut out));
        assert_eq!((cache.hits(), cache.misses()), before);
        // Stale entries decline too.
        cache.invalidate();
        assert!(!cache.get_resident([&a].into_iter(), &mut out));
        assert_eq!((cache.hits(), cache.misses()), before);
    }
}
