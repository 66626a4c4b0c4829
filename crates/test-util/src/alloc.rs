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
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// What [`allocations`] measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocations {
    /// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
}

/// Forwards every request to [`System`], counting allocations made on a
/// thread while [`allocations`] is running there.
pub struct Counting;

// SAFETY: every request is forwarded to `System` unchanged; the
// bookkeeping touches only const-initialised, destructor-free
// thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
            let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// The heap allocations `f` makes on this thread. Meaningful only in a
/// binary whose `#[global_allocator]` is [`Counting`]; elsewhere it
/// reads zero.
pub fn allocations(f: impl FnOnce()) -> Allocations {
    COUNT.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    Allocations {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}
