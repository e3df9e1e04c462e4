//! Allocation-count hook for the query-path experiments.
//!
//! The scratch-reuse work (E12) is verified with a *measured* allocation
//! count, not just a timing delta. The library crate forbids `unsafe`, so
//! the counting [`std::alloc::GlobalAlloc`] itself lives in the
//! `experiments` **binary** (its crate root installs it with
//! `#[global_allocator]`); it reports every allocation into
//! [`ALLOCATIONS`] here, where the experiment code can read it. When the
//! harness runs without the counting allocator (e.g. under `cargo test`),
//! [`installed`] stays `false` and the experiments print `n/a` instead of
//! a bogus zero.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Total heap allocations observed by the counting allocator (monotone).
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Declares that a counting global allocator is feeding [`ALLOCATIONS`].
/// Called once from the `experiments` binary's `main`.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// True when allocation counts are real (counting allocator installed).
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Current allocation count; subtract two readings to meter a section.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations performed by `f`, or `None` without a counting allocator.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    if !installed() {
        return (f(), None);
    }
    let before = allocations();
    let out = f();
    (out, Some(allocations() - before))
}
