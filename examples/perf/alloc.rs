//! A forwarding global allocator that counts allocations and net live bytes, but
//! only inside a [`count_during`] window. The traced pass opens the window around
//! `netsim.engine.run`; outside it every call costs one relaxed load on top of the
//! system allocator, which is what the timed pass pays.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

// Statistics only: no other data is published through these, so `Relaxed` is enough.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

pub struct CountingAlloc;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counting window saw.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Highest net bytes allocated since the window opened.
    pub peak_bytes: u64,
}

/// Run `f` with counting on and return its result with the window's counts.
/// Windows are serialized (parallel unit tests would otherwise reset each other's
/// counters); opening one inside another deadlocks, and the harness never does.
pub fn count_during<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    static WINDOW: Mutex<()> = Mutex::new(());
    // The guarded data is `()`: a panic inside another window leaves nothing invalid.
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
    };
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_sees_its_allocations_and_their_peak() {
        let (v, count) = count_during(|| vec![0u8; 1 << 20]);
        assert_eq!(v.len(), 1 << 20);
        assert!(count.allocs >= 1);
        assert!(count.peak_bytes >= 1 << 20);
    }
}
