//! # refminer-heapcount
//!
//! A counting global allocator for tests that pin how much memory a
//! structure takes. [`Counting`] forwards every request to the system
//! allocator and keeps the number of bytes live, so a test reads an
//! exact footprint, the same on any host:
//!
//! ```
//! #[global_allocator]
//! static HEAP: refminer_heapcount::Counting = refminer_heapcount::Counting;
//!
//! fn main() {
//!     let before = refminer_heapcount::live_bytes();
//!     let v = vec![0u64; 100];
//!     assert_eq!(refminer_heapcount::live_bytes() - before, 800);
//!     drop(v);
//!     assert_eq!(refminer_heapcount::live_bytes(), before);
//! }
//! ```
//!
//! The count is the sum of the sizes requested and not yet freed, so it
//! leaves out the allocator's own overhead. It is process-wide: measure
//! in a test binary that runs a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The counting allocator. Install it with `#[global_allocator]`.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Bytes allocated through [`Counting`] and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

// SAFETY: both methods hand their arguments to `System` unchanged, so
// they keep its guarantees; counting is a side effect. The trait's
// default `realloc` and `alloc_zeroed` go through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // and `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}
