//! A counting global allocator: exact allocation counts for the
//! `alloc.*` and `plan.allocs_per_call` metrics.
//!
//! Counting is off until [`set_counting`] turns it on, so timed runs pay
//! one relaxed load per allocation. An "allocation" is every `alloc`,
//! `alloc_zeroed` and `realloc` call; its bytes are the size requested
//! (the new size for `realloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The process allocator: the system allocator plus counters.
pub struct Counting;

// Relaxed throughout: the counters are statistics and publish no data.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised with no destructor, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting around it touches only
// atomics and a destructor-free thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; the caller guarantees
        // `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations and bytes counted across every thread so far.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_on_this_thread() {
        set_counting(true);
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(16);
        let after = thread_allocs();
        drop(v);
        assert_eq!(after - before, 1);
    }
}
