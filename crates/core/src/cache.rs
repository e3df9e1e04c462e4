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

use crate::bitset::BitSet;
use crate::engine::EngineError;
use std::collections::HashMap;
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
/// Keys are the engine's bit-exact predicate encodings; values are the
/// packed hit-mask bitsets (or the per-predicate error). Lookup takes a
/// read lock on the map only to fetch the per-key cell — the expensive
/// index query runs outside any map lock.
#[derive(Debug)]
pub struct MaskCache {
    map: RwLock<HashMap<Vec<u64>, MaskEntry>>,
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
        assert!(capacity >= 1, "mask cache needs capacity >= 1");
        MaskCache {
            map: RwLock::new(HashMap::new()),
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

    /// Returns the cached mask for `key`, computing (and caching) it with
    /// `compute` on a miss. Exactly one caller computes a given key per
    /// generation; racing callers block on that key's cell only.
    pub fn get_or_compute(
        &self,
        key: &[u64],
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
                            key.to_vec(),
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

    /// Next logical-clock value for an LRU stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts one entry to make room: within a bounded sample of the map
    /// ([`EVICTION_SAMPLE`] entries — the map's iteration prefix, whose
    /// membership rotates as evictions reshape it), any stale-generation
    /// entry first, otherwise the smallest (oldest) stamp.
    fn evict_one(map: &mut HashMap<Vec<u64>, MaskEntry>, gen: u64) {
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
        let key = vec![1, 2, 3];
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
            let _ = cache.get_or_compute(&[i], || mask_of(&[i as usize]));
            assert!(cache.len() <= 3, "bound violated at insert {i}");
        }
        assert_eq!(cache.misses(), 10);
        // The three most recent keys survive; the earliest do not.
        let _ = cache.get_or_compute(&[9], || panic!("9 must be resident"));
        assert_eq!(cache.hits(), 1);
        let _ = cache.get_or_compute(&[0], || mask_of(&[0]));
        assert_eq!(cache.misses(), 11, "0 was evicted long ago");
    }

    #[test]
    fn touching_refreshes_lru_position() {
        let cache = MaskCache::new(2);
        let _ = cache.get_or_compute(&[1], || mask_of(&[1]));
        let _ = cache.get_or_compute(&[2], || mask_of(&[2]));
        // Touch 1 so 2 becomes the LRU victim.
        let _ = cache.get_or_compute(&[1], || panic!("resident"));
        let _ = cache.get_or_compute(&[3], || mask_of(&[3]));
        let _ = cache.get_or_compute(&[1], || panic!("1 was refreshed, must survive"));
    }

    #[test]
    fn invalidate_makes_entries_stale_without_clearing() {
        let cache = MaskCache::new(4);
        let _ = cache.get_or_compute(&[7], || mask_of(&[7]));
        assert_eq!(cache.generation(), 0);
        cache.invalidate();
        assert_eq!(cache.generation(), 1);
        assert_eq!(cache.len(), 1, "entries stay resident until replaced");
        // Stale entry reads as a miss and is recomputed in place.
        let recomputed = cache.get_or_compute(&[7], || mask_of(&[7, 8])).unwrap();
        assert!(recomputed.contains(8));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 1, "replaced, not duplicated");
        // And the refreshed entry hits again.
        let _ = cache.get_or_compute(&[7], || panic!("fresh generation entry"));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn stale_entries_are_preferred_eviction_victims() {
        let cache = MaskCache::new(2);
        let _ = cache.get_or_compute(&[1], || mask_of(&[1]));
        cache.invalidate();
        let _ = cache.get_or_compute(&[2], || mask_of(&[2]));
        // Full: one stale ([1]) + one current ([2]). Inserting [3] must
        // evict the stale [1] even though [2] is older by stamp… ([2] is
        // newer by stamp here, so pin the property with a touch order that
        // would otherwise doom [2]).
        let _ = cache.get_or_compute(&[3], || mask_of(&[3]));
        let _ = cache.get_or_compute(&[2], || panic!("current entry must survive"));
        let _ = cache.get_or_compute(&[3], || panic!("current entry must survive"));
    }

    #[test]
    fn errors_cache_like_masks() {
        let cache = MaskCache::new(4);
        let err = cache.get_or_compute(&[5], || Err(EngineError::MissingRank(9)));
        assert_eq!(err, Err(EngineError::MissingRank(9)));
        let again = cache.get_or_compute(&[5], || panic!("errors are cached too"));
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
                        let key = [round % 16];
                        let _ = cache.get_or_compute(&key, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            mask_of(&[key[0] as usize])
                        });
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 16, "one compute per key");
        assert_eq!(cache.misses(), 16);
        assert_eq!(cache.hits() + cache.misses(), 8 * 50);
    }
}
