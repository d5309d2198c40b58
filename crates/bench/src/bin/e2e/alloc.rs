//! A counting global allocator for the traced pass. Untraced passes pay
//! one relaxed load per allocation and count nothing, so the end-to-end
//! numbers are taken with it switched off.

// The workspace denies `unsafe_code`; a global allocator cannot be
// written without it, and this one only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed everywhere: the counters are statistics read by the thread that
// made (or joined with the threads that made) the allocations; nothing is
// published through them.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out and cannot allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which always delegates
        // to `System`, with the same `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes
/// they asked for, by every thread of the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub count: u64,
    pub bytes: u64,
}

impl Counters {
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn counters() -> Counters {
    Counters {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}
