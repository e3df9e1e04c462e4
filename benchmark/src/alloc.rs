//! The benchmark binary's global allocator: `System`, plus counters that
//! are switched on only around what they measure — live bytes across a
//! set-up (`index_mb`), allocation calls on server threads across the
//! traced sample (`allocs_per_req`). Off, it costs one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};

const OFF: u8 = 0;
const BYTES: u8 = 1;
const CALLS: u8 = 2;

/// One counter per cache line: a parallel build allocates from every
/// worker at once, and a single shared counter would slow the very set-up
/// it is measuring.
#[repr(align(64))]
struct Slot(AtomicI64);

const SLOTS: usize = 16;

static MODE: AtomicU8 = AtomicU8::new(OFF);
static LIVE_BYTES: [Slot; SLOTS] = [const { Slot(AtomicI64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static CALLS_SEEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on load-generator threads so their allocations are not charged
    /// to the server. Const-initialised and without a destructor, so
    /// reading it inside the allocator cannot itself allocate.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    /// This thread's counter slot, plus one (0: not assigned yet).
    static SLOT: Cell<usize> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    let slot = SLOT
        .try_with(|s| {
            if s.get() == 0 {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS + 1);
            }
            s.get() - 1
        })
        .unwrap_or(0);
    LIVE_BYTES[slot].0.fetch_add(delta, Ordering::Relaxed);
}

pub struct Counting;

impl Counting {
    #[inline]
    fn on_alloc(size: usize) {
        match MODE.load(Ordering::Relaxed) {
            BYTES => add_live(size as i64),
            CALLS if !IS_CLIENT.try_with(Cell::get).unwrap_or(false) => {
                CALLS_SEEN.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    #[inline]
    fn on_dealloc(size: usize) {
        if MODE.load(Ordering::Relaxed) == BYTES {
            add_live(-(size as i64));
        }
    }
}

// SAFETY: every operation is `System`'s; the hooks only touch atomics and a
// destructor-free thread-local, so they neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_dealloc(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::on_dealloc(layout.size());
        Self::on_alloc(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes allocated and not yet freed while `f` ran (negative if `f` freed
/// more than it allocated).
pub fn live_bytes_added<T>(f: impl FnOnce() -> T) -> (T, i64) {
    for slot in &LIVE_BYTES {
        slot.0.store(0, Ordering::Relaxed);
    }
    MODE.store(BYTES, Ordering::Relaxed);
    let out = f();
    MODE.store(OFF, Ordering::Relaxed);
    let live = LIVE_BYTES.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
    (out, live)
}

/// Allocation calls made while `f` ran by threads that did not call
/// [`mark_client_thread`].
pub fn server_side_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS_SEEN.store(0, Ordering::Relaxed);
    MODE.store(CALLS, Ordering::Relaxed);
    let out = f();
    MODE.store(OFF, Ordering::Relaxed);
    (out, CALLS_SEEN.load(Ordering::Relaxed))
}

/// Excludes the calling thread from [`server_side_calls`].
pub fn mark_client_thread(is_client: bool) {
    IS_CLIENT.with(|c| c.set(is_client));
}
