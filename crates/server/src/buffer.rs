//! Size-classed reusable byte buffers for the session layer.
//!
//! Every live session holds two buffers (request body in, encoded
//! response out) acquired from the server's [`BufferPool`] and returned
//! when the session closes. Buffers keep their capacity across frames
//! (`clear` never shrinks a `Vec`), so a session serving steady-state
//! traffic allocates **nothing per frame** — and with the pool, a
//! reconnect-storm allocates nothing per *session* either once the pool
//! is warm. The `steady_state_allocs` test pins the per-frame half of
//! this with a counting allocator; the `buffers_reused` server counter
//! makes the per-session half observable in production.
//!
//! Size classes are powers of two from 4 KiB to 512 KiB, at most
//! [`PER_CLASS_RETENTION`] retained buffers each (≈ 65 MiB worst case,
//! in practice a handful of classes see traffic). Oversized buffers —
//! a response that outgrew the largest class — are classified by
//! capacity into the largest class they cover, so their capacity keeps
//! serving; acquire only ever hands out at least what was asked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest class: covers the length prefix plus every control-op frame
/// with room to spare.
const MIN_CLASS_BYTES: usize = 4 << 10;

/// Number of power-of-two classes: 4 KiB … 512 KiB.
const N_CLASSES: usize = 8;

/// Retained buffers per class; a release beyond this drops the buffer
/// (bounded memory under a connection burst that later subsides).
const PER_CLASS_RETENTION: usize = 64;

/// Byte size of class `c`.
fn class_bytes(c: usize) -> usize {
    MIN_CLASS_BYTES << c
}

/// The smallest class holding at least `min_cap` bytes, or `None` if
/// even the largest is too small.
fn class_covering(min_cap: usize) -> Option<usize> {
    (0..N_CLASSES).find(|&c| class_bytes(c) >= min_cap)
}

/// The largest class a buffer of capacity `cap` can serve, or `None` if
/// the capacity is below even the smallest class (never produced by
/// [`BufferPool::acquire`], but `release` accepts any buffer).
fn class_served(cap: usize) -> Option<usize> {
    (0..N_CLASSES).rev().find(|&c| cap >= class_bytes(c))
}

/// A bounded pool of size-classed `Vec<u8>`s shared by all sessions of
/// one server.
#[derive(Debug)]
pub struct BufferPool {
    classes: [Mutex<Vec<Vec<u8>>>; N_CLASSES],
    reused: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            classes: std::array::from_fn(|_| Mutex::new(Vec::new())),
            reused: AtomicU64::new(0),
        }
    }

    /// An empty (cleared) buffer with capacity ≥ `min_cap`: pooled if the
    /// covering class has one (counted in [`reused`](Self::reused)),
    /// freshly allocated at the class size otherwise. A `min_cap` beyond
    /// the largest class allocates exactly `min_cap` — it can still come
    /// home via [`release`](Self::release).
    pub fn acquire(&self, min_cap: usize) -> Vec<u8> {
        match class_covering(min_cap) {
            Some(c) => {
                if let Some(buf) = self.classes[c].lock().unwrap().pop() {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    return buf;
                }
                Vec::with_capacity(class_bytes(c))
            }
            None => Vec::with_capacity(min_cap),
        }
    }

    /// Returns a buffer to the pool (cleared; capacity kept). Dropped
    /// instead if its capacity is below the smallest class or the class
    /// is already at its retention bound.
    pub fn release(&self, mut buf: Vec<u8>) {
        let Some(c) = class_served(buf.capacity()) else {
            return;
        };
        let mut class = self.classes[c].lock().unwrap();
        if class.len() < PER_CLASS_RETENTION {
            buf.clear();
            class.push(buf);
        }
    }

    /// How many acquisitions were served from the pool instead of the
    /// allocator — the `buffers_reused` stats counter.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_round_trip_reuses() {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(100);
        assert!(buf.capacity() >= MIN_CLASS_BYTES);
        assert!(buf.is_empty());
        assert_eq!(pool.reused(), 0);
        buf.extend_from_slice(b"dirty");
        let cap = buf.capacity();
        pool.release(buf);
        let again = pool.acquire(100);
        assert_eq!(pool.reused(), 1);
        assert_eq!(again.capacity(), cap, "same buffer came back");
        assert!(again.is_empty(), "released buffers are cleared");
    }

    #[test]
    fn classes_cover_requested_capacity() {
        let pool = BufferPool::new();
        for min_cap in [1, 4096, 4097, 100_000, class_bytes(N_CLASSES - 1) + 1] {
            let buf = pool.acquire(min_cap);
            assert!(buf.capacity() >= min_cap, "min_cap = {min_cap}");
            pool.release(buf);
        }
    }

    #[test]
    fn grown_buffers_reclassify_by_capacity() {
        let pool = BufferPool::new();
        let mut buf = pool.acquire(16);
        // The session outgrew the smallest class mid-frame.
        buf.reserve(3 * MIN_CLASS_BYTES);
        pool.release(buf);
        // A request the smallest class cannot cover is served by the
        // grown buffer, not a fresh allocation.
        let big = pool.acquire(2 * MIN_CLASS_BYTES);
        assert_eq!(pool.reused(), 1);
        assert!(big.capacity() >= 2 * MIN_CLASS_BYTES);
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..(PER_CLASS_RETENTION + 10) {
            pool.release(Vec::with_capacity(MIN_CLASS_BYTES));
        }
        let retained = pool.classes[0].lock().unwrap().len();
        assert_eq!(retained, PER_CLASS_RETENTION);
    }
}
