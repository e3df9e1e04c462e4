//! Scoped std-thread worker pool for parallel index construction.
//!
//! The paper's build paths are embarrassingly parallel per dataset (canonical
//! rectangle enumeration, Algorithms 1/3) and per net direction (score
//! tables, Algorithm 5). This crate provides the one primitive they all
//! share: [`par_map`], a *deterministic* parallel map over indexed work
//! units. `rayon` is unavailable offline, so the pool is built directly on
//! [`std::thread::scope`]:
//!
//! * the input is cut into contiguous chunks of indexes;
//! * `threads` counts the calling thread: caller plus `threads − 1`
//!   helpers — the caller is worker 0 and runs the same loop as the
//!   scoped helpers instead of parking in `join`;
//! * workers *steal* chunks from a shared atomic cursor (no static
//!   partitioning — a worker that lands on cheap datasets just takes more
//!   chunks);
//! * each chunk's results are kept together and the chunks are merged back
//!   in index order after the scope joins.
//!
//! Because every work unit is a pure function of its index and the merge
//! order is fixed, the output is **bit-identical to the serial map for every
//! thread count** — the property the parallel-equivalence test layer pins
//! for all index families.
//!
//! [`BuildOptions`] carries the thread count through the build APIs; its
//! `Default` resolves `DDS_THREADS` (env override) and falls back to
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Work units claimed per cursor increment aim for this many chunks per
/// worker, so fast workers can steal the tail of a slow worker's share.
const CHUNKS_PER_WORKER: usize = 4;

/// Options controlling parallel index construction.
///
/// The thread count **never** affects results — every build path using the
/// pool is bit-identical to its serial counterpart — so the default can
/// safely exploit all available cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Number of threads that do work (≥ 1). `threads` counts the calling
    /// thread: caller plus `threads − 1` helpers. `1` means build serially
    /// on the calling thread.
    pub threads: usize,
}

impl BuildOptions {
    /// Serial build: everything on the calling thread.
    pub fn serial() -> Self {
        BuildOptions { threads: 1 }
    }

    /// Build with exactly `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        BuildOptions { threads }
    }
}

impl Default for BuildOptions {
    /// Resolves the thread count from the environment: the `DDS_THREADS`
    /// variable when set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    fn default() -> Self {
        let env = std::env::var("DDS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1);
        let threads = env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        BuildOptions { threads }
    }
}

/// Derives an independent, collision-free RNG seed for work unit `index`
/// from a build seed (SplitMix64 finalizer over a golden-ratio stride; the
/// map `index → mix_seed(seed, index)` is injective for fixed `seed`).
///
/// Builders seed one `StdRng` per dataset with this instead of threading a
/// single sequential generator through the dataset loop — that is what makes
/// per-dataset sampling independent of both the thread count and the order
/// in which workers claim datasets.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic parallel map: `out[i] = f(i, &items[i])`, computed on up to
/// `opts.threads` workers stealing contiguous index chunks — the calling
/// thread plus `opts.threads − 1` scoped helpers.
///
/// Guarantees, for any thread count:
/// * the output is exactly `items.iter().enumerate().map(f).collect()`;
/// * `f` is called exactly once per item;
/// * a panic in any work unit propagates to the caller, with the unit's own
///   payload, after the scope joins.
pub fn par_map<T, U, F>(opts: &BuildOptions, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(opts, items, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with **per-worker reusable state**: every worker thread (the
/// caller included) calls `init()` exactly once and threads the resulting
/// value through all the work units it claims
/// (`out[i] = f(&mut state, i, &items[i])`).
///
/// This is the primitive behind the batch *query* APIs: the state is a query
/// scratch (bitsets, hit buffers, memo maps) that would otherwise be
/// re-allocated per query. The determinism contract is inherited from
/// [`par_map`] **provided `f`'s output does not depend on the state's
/// history** — scratch must be reset per unit, which every caller in this
/// workspace does.
pub fn par_map_with<T, U, S, I, F>(opts: &BuildOptions, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    // Fast path: a singleton (or empty) input, or an explicitly serial
    // configuration, runs inline on the calling thread — no workers are
    // spawned, no cursor, no chunk merge. Results are identical by
    // construction (it *is* the serial map the guarantee is stated
    // against); the pool's own tests pin that the caller thread does all
    // the work here.
    let threads = opts.threads.max(1).min(n.max(1));
    if n <= 1 || threads == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    // Chunk granularity: small enough that workers can steal meaningfully,
    // large enough to amortize the cursor traffic.
    let chunk = (n / (threads * CHUNKS_PER_WORKER)).max(1);
    let n_chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    // One worker's loop: claim chunks from the shared cursor until none
    // are left, keeping each chunk's results together with its index.
    let work = || {
        let mut state = init();
        let mut local: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let mut out = Vec::with_capacity(end - start);
            for (j, item) in items[start..end].iter().enumerate() {
                out.push(f(&mut state, start + j, item));
            }
            local.push((c, out));
        }
        local
    };
    // The calling thread is worker 0, so `threads − 1` helpers suffice.
    let mut by_chunk: Vec<(usize, Vec<U>)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut all = work();
        for h in helpers {
            // Re-raise a helper's panic with its own payload, so a unit's
            // panic reads the same whichever thread ran it.
            all.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        all
    });
    // Deterministic merge: chunks back into index order, then flatten.
    by_chunk.sort_unstable_by_key(|(c, _)| *c);
    let mut out = Vec::with_capacity(n);
    for (_, mut v) in by_chunk {
        out.append(&mut v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 4, 7, 8, 64] {
            let got = par_map(&BuildOptions::with_threads(threads), &items, |i, x| {
                x * 3 + i as u64
            });
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let opts = BuildOptions::with_threads(8);
        let empty: Vec<u32> = vec![];
        assert!(par_map(&opts, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(&opts, &[42u32], |i, x| (i, *x)), vec![(0, 42)]);
        // More threads than items.
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&opts, &items, |_, x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let n = 257; // deliberately not a multiple of any chunk size
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        let out = par_map(&BuildOptions::with_threads(5), &items, |i, _| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, items);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_with_reuses_state_and_matches_serial() {
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for threads in [1, 2, 3, 8] {
            // State is a scratch buffer reset per unit; reuse must be
            // invisible in the output.
            let got = par_map_with(
                &BuildOptions::with_threads(threads),
                &items,
                Vec::<u64>::new,
                |buf, _, &x| {
                    buf.clear();
                    buf.extend(std::iter::repeat_n(x, 7));
                    buf.iter().sum::<u64>()
                },
            );
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_with_calls_init_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_with(
            &BuildOptions::with_threads(4),
            &items,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, _| i,
        );
        assert_eq!(out, items);
        assert!(inits.load(Ordering::Relaxed) <= 4, "one init per worker");
    }

    /// The inline fast path: singleton/empty inputs and `threads == 1`
    /// run entirely on the calling thread (no workers spawned), with
    /// results unchanged from the general pooled path.
    #[test]
    fn fast_path_runs_inline_on_caller_thread() {
        let caller = std::thread::current().id();
        let observe = |items: &[u64], threads: usize| {
            let ids = std::sync::Mutex::new(Vec::new());
            let out = par_map(&BuildOptions::with_threads(threads), items, |i, x| {
                ids.lock().unwrap().push(std::thread::current().id());
                x * 5 + i as u64
            });
            (out, ids.into_inner().unwrap())
        };
        // threads == 1 over many items; one item (or none) over many
        // threads — every shape must stay on the caller.
        for (items, threads) in [
            ((0..100).collect::<Vec<u64>>(), 1),
            (vec![42], 8),
            (vec![], 8),
        ] {
            let serial: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, x)| x * 5 + i as u64)
                .collect();
            let (out, ids) = observe(&items, threads);
            assert_eq!(out, serial, "inline results unchanged");
            assert_eq!(ids.len(), items.len(), "one call per item");
            assert!(
                ids.iter().all(|&id| id == caller),
                "fast path must not leave the calling thread"
            );
        }
        // Control: the pooled path runs on exactly `t` threads, the caller
        // among them (so the assertion above is meaningful). `t` units that
        // each wait on a `Barrier(t)` finish only if `t` threads run them at
        // once, so which threads ran them is deterministic.
        for t in [2, 4, 8] {
            let barrier = std::sync::Barrier::new(t);
            let units: Vec<usize> = (0..t).collect();
            let ids = par_map(&BuildOptions::with_threads(t), &units, |_, _| {
                barrier.wait();
                std::thread::current().id()
            });
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), t, "threads = {t}: one thread per unit");
            assert!(
                distinct.contains(&caller),
                "threads = {t}: the calling thread must be worker 0"
            );
        }
    }

    #[test]
    fn mix_seed_is_injective_per_index() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix_seed(0x5EED, i)), "collision at {i}");
        }
        // Different build seeds give different streams.
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }

    /// A unit's panic reaches the caller with the unit's own payload, at
    /// every thread count and whichever thread ran the unit.
    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let result = std::panic::catch_unwind(|| {
                par_map(&BuildOptions::with_threads(threads), &items, |i, _| {
                    if i == 33 {
                        panic!("boom at unit {i}");
                    }
                    i
                })
            });
            let payload = result.expect_err("the unit's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("boom at unit 33"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn options_resolve_env_override() {
        // Whatever the ambient environment, explicit construction wins.
        assert_eq!(BuildOptions::serial().threads, 1);
        assert_eq!(BuildOptions::with_threads(6).threads, 6);
        assert!(BuildOptions::default().threads >= 1);
    }
}
