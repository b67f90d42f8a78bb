//! A counting global allocator.
//!
//! Every allocator call that hands out memory (`alloc`, `alloc_zeroed`,
//! `realloc`) bumps a counter owned by the calling thread. A section
//! measured on one thread therefore counts only its own allocations,
//! whatever the daemon's or the runner's other threads do meanwhile, and
//! a single-threaded section counts the same on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; those
    // calls are never inside a measured section.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update neither allocates nor touches the block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocs();
    let out = f();
    (out, thread_allocs() - before)
}
