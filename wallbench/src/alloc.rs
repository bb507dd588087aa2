//! A counting global allocator: allocation calls, bytes requested and
//! the peak of live heap bytes.
//!
//! Counters are striped per thread, one cache line each, and a thread
//! updates its stripe with a plain load and store instead of a locked
//! read-modify-write: with one shared counter updated by atomic
//! increments, `merge-large` windows ran 1.7x slower on two cores, and
//! with striped atomic increments still 1.2x slower. The first thread
//! (main) has a stripe of its own and every later thread takes one of
//! the others round-robin, so two threads alive at once never share a
//! stripe unless more than `STRIPES - 1` run together; if they did, an
//! update could be lost, never corrupt memory.
//!
//! The traced replay is single-threaded, so the difference between two
//! [`snapshot`]s taken around one call is exactly that call's
//! allocations and repeats run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`] and counts.
pub struct Counting;

const STRIPES: usize = 16;
/// The peak is re-summed each time a stripe has allocated this many
/// more bytes, so it may miss a spike shorter than that per stripe.
const PEAK_STEP: u64 = 64 << 10;

#[repr(align(128))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
    /// Bytes allocated minus bytes freed on threads using this stripe;
    /// negative when they free more than they allocate.
    live: AtomicIsize,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Stripe = Stripe {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    live: AtomicIsize::new(0),
};
static STRIPE: [Stripe; STRIPES] = [EMPTY; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised with no destructor: reading it never allocates.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stripe, taken on its first allocation.
fn stripe() -> &'static Stripe {
    let i = MY_STRIPE
        .try_with(|s| {
            if s.get() == usize::MAX {
                let n = NEXT_STRIPE.fetch_add(1, Relaxed);
                s.set(if n == 0 {
                    0
                } else {
                    1 + (n - 1) % (STRIPES - 1)
                });
            }
            s.get()
        })
        .unwrap_or(0);
    &STRIPE[i]
}

fn add_u64(a: &AtomicU64, v: u64) -> u64 {
    let before = a.load(Relaxed);
    a.store(before.wrapping_add(v), Relaxed);
    before
}

fn add_isize(a: &AtomicIsize, v: isize) {
    a.store(a.load(Relaxed).wrapping_add(v), Relaxed);
}

fn live_total() -> isize {
    STRIPE.iter().map(|s| s.live.load(Relaxed)).sum()
}

fn grew(size: usize) {
    let s = stripe();
    add_u64(&s.allocs, 1);
    add_isize(&s.live, size as isize);
    let before = add_u64(&s.bytes, size as u64);
    if before / PEAK_STEP != (before + size as u64) / PEAK_STEP {
        PEAK.fetch_max(live_total(), Relaxed);
    }
}

fn shrank(size: usize) {
    add_isize(&stripe().live, -(size as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator and
        // `new_size` meets `realloc`'s contract, as the caller
        // guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Cumulative allocation calls and bytes requested over all threads (a
/// `realloc` counts as one call of its new size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for s in &STRIPE {
        snap.allocs += s.allocs.load(Relaxed);
        snap.bytes += s.bytes.load(Relaxed);
    }
    snap
}

/// Highest live heap seen since the process started, in bytes.
pub fn peak_bytes() -> usize {
    PEAK.fetch_max(live_total(), Relaxed);
    PEAK.load(Relaxed).max(0) as usize
}
