//! A counting global allocator for the traced run.
//!
//! It forwards every request to the system allocator. Counting is off
//! until [`start`] and the untraced run never turns it on, so the
//! end-to-end metrics pay one relaxed load per allocation and nothing
//! else. Counters are process-wide, not per thread: `fanout_batch`
//! allocates on the scatter pool's workers as well as on the client.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct Counting;

fn note(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Count allocations from now on.
pub fn start() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop counting.
pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
