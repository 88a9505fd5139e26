//! A counting allocator: `System` plus a relaxed net-byte counter, so the
//! harness can report resident bytes per stored row without reading
//! `/proc`. The counters publish no other data, hence `Relaxed`.
//!
//! The counter only moves while *armed*. Live heap after − live heap
//! before equals bytes allocated − bytes freed in between, whenever the
//! freed blocks were allocated, so counting only inside the window gives
//! the same number as counting always — and outside it an allocation costs
//! one relaxed load of a flag nobody writes, not a read-modify-write on a
//! cache line both vCPUs fight over (FastText embeds allocate ~300 times
//! per record; always-on counting slowed them by ~15%).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct CountingAlloc {
    armed: AtomicBool,
    net: AtomicIsize,
}

impl CountingAlloc {
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            armed: AtomicBool::new(false),
            net: AtomicIsize::new(0),
        }
    }

    /// Start (or stop) counting. Arming resets the counter.
    pub fn arm(&self, on: bool) {
        if on {
            self.net.store(0, Ordering::Relaxed);
        }
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Bytes allocated minus bytes freed since the counter was armed.
    pub fn net_bytes(&self) -> isize {
        self.net.load(Ordering::Relaxed)
    }

    #[inline]
    fn count(&self, delta: isize) {
        if self.armed.load(Ordering::Relaxed) {
            self.net.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every call forwards to `System` with the caller's own pointer
// and layout, so `System`'s contract is the caller's contract; the
// counter is bookkeeping only and never influences a returned pointer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Run `f` with the process-wide counter armed; returns its result and
/// the heap bytes it left allocated (net of everything it freed).
pub fn net_heap_growth<T>(f: impl FnOnce() -> T) -> (T, isize) {
    GLOBAL.arm(true);
    let out = f();
    let net = GLOBAL.net_bytes();
    GLOBAL.arm(false);
    (out, net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_realloc_dealloc_balance() {
        // A private instance: the global one is shared with every other
        // test thread, so its deltas are not exact.
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let grown = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: the layouts are non-zero-sized; each pointer is passed
        // back with the layout it was allocated (or last reallocated) with.
        unsafe {
            // Disarmed: nothing is counted.
            let quiet = a.alloc(layout);
            assert_eq!(a.net_bytes(), 0);

            a.arm(true);
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.net_bytes(), 64);
            let p = a.realloc(p, layout, 256);
            assert!(!p.is_null());
            assert_eq!(a.net_bytes(), 256);
            let z = a.alloc_zeroed(layout);
            assert_eq!(a.net_bytes(), 320);
            assert!((0..64).all(|i| *z.add(i) == 0));
            a.dealloc(z, layout);
            a.dealloc(p, grown);
            assert_eq!(a.net_bytes(), 0);
            // Freeing a block from before the window counts against it:
            // that is what makes the window equal after − before.
            a.dealloc(quiet, layout);
            assert_eq!(a.net_bytes(), -64);
            a.arm(false);
        }
    }
}
