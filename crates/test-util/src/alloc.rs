//! A counting global allocator for tests that bound heap traffic.
//!
//! A test binary opts in with one declaration,
//!
//! ```text
//! #[global_allocator]
//! static ALLOCATOR: test_util::alloc::Counting = test_util::alloc::Counting;
//! ```
//!
//! then wraps the code under test in [`allocations`]. The count is per
//! thread and armed only inside that call, so the test harness's own
//! threads and output do not disturb it, and it is a property of the code,
//! not of the host: the same build makes the same allocations on any
//! machine. Beside the traffic it tracks the bytes still live: what the
//! call allocated and did not free, such as the state it hands back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// What [`allocations`] measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocations {
    /// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
    /// Bytes allocated and not freed by the end of the call (negative
    /// when it freed more than it allocated).
    pub live: i64,
}

/// Record `count` allocations requesting `bytes` that change the live
/// bytes by `live`, while [`allocations`] is armed on this thread.
fn record(count: u64, bytes: usize, live: i64) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|n| n.set(n.get() + count));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        let _ = LIVE.try_with(|n| n.set(n.get() + live));
    }
}

/// Forwards every request to [`System`], counting allocations made on a
/// thread, and the bytes they leave live, while [`allocations`] is
/// running there. A `realloc` counts as one allocation of its new size.
pub struct Counting;

// SAFETY: every request is forwarded to `System` unchanged; the
// bookkeeping touches only const-initialised, destructor-free
// thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// The heap allocations `f` makes on this thread. Meaningful only in a
/// binary whose `#[global_allocator]` is [`Counting`]; elsewhere it
/// reads zero.
pub fn allocations(f: impl FnOnce()) -> Allocations {
    COUNT.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    LIVE.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    Allocations {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
    }
}
