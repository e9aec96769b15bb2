//! A counting global allocator: live heap bytes of the whole process and
//! their high-water mark since the last [`take_peak`].
//!
//! `VmHWM` is not steady enough to gate on for the small daemon
//! workloads: glibc keeps freed memory per arena, and which arena grows
//! depends on thread timing. Live bytes do not depend on that.
//!
//! Each thread keeps its own running change and adds it to the shared
//! count only once it reaches [`FLUSH_BYTES`] either way. One shared
//! atomic updated on every allocation made the allocation-heavy cluster
//! workload about 1.5 times slower on two vCPUs, through cache-line
//! traffic alone; batched, it costs that workload about a tenth. The
//! count is therefore exact to within [`FLUSH_BYTES`] per thread, and a
//! thread that exits leaves up to that much uncounted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The most a thread holds back from the shared count, either way.
const FLUSH_BYTES: isize = 16 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Change not yet added to [`LIVE`]. No destructor, so it stays
    /// usable while the thread's other thread-locals are torn down.
    static PENDING: Cell<isize> = const { Cell::new(0) };
    /// Set inside [`untracked`].
    static UNTRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Forwards to the system allocator and counts.
pub struct Counting;

/// Runs `f` without counting its allocations, for the benchmark's own
/// per-operation records, which grow with the operation count. Memory
/// allocated in here must also be freed in here.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    UNTRACKED.with(|u| u.set(true));
    let result = f();
    UNTRACKED.with(|u| u.set(false));
    result
}

fn record(bytes: isize) {
    if UNTRACKED.with(Cell::get) {
        return;
    }
    let flush = PENDING.with(|pending| {
        let total = pending.get() + bytes;
        if total.abs() < FLUSH_BYTES {
            pending.set(total);
            0
        } else {
            pending.set(0);
            total
        }
    });
    if flush != 0 {
        let live = LIVE.fetch_add(flush, Ordering::Relaxed) + flush;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record(size(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record(size(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            record(size(new_size) - size(layout.size()));
        }
        moved
    }
}

/// The most bytes live at once since the previous call; the high-water
/// mark restarts at the bytes live now.
pub fn take_peak() -> isize {
    PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
}
