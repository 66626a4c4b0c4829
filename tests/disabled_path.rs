//! Disabled observability is free, in a unit that does not depend on the
//! host: the tracing calls on `Obs::disabled()` and the watchdog / SLO
//! observes on `AlertSink::disabled()` perform **zero heap allocations**.
//! A disabled path that grows a `String`, a `Vec` or a boxed event fails
//! here whatever the machine's speed; what the calls cost in time is the
//! repo benchmark's `obs.disabled_ns_per_op`.
//!
//! The file is its own test binary with a single test because it installs
//! a counting `#[global_allocator]`; the count is per thread and armed
//! only around the measured loops, so the harness does not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spot_jupiter::obs::{
    AlertSink, FleetDeficitWatchdog, LivenessWatchdog, Obs, SloSpec, SloTracker, TraceContext,
};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded to `System` unchanged; the
// bookkeeping touches only const-initialised, destructor-free
// thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) `f` makes on
/// this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
}

const OPS: u64 = 100_000;

/// One traced operation: a causal span with one instant inside it.
fn traced_op(obs: &Obs, trace_id: u64) {
    let tctx = TraceContext {
        trace_id,
        span_id: 0,
    };
    let span = obs.trace.span_open_causal("bench.op", tctx, &[]);
    obs.trace.event_causal("bench.mark", span.context(), &[]);
    obs.trace.span_close(span, "bench.op", &[]);
}

#[test]
fn disabled_tracing_and_monitors_never_allocate() {
    // The counter counts: a boxed value is one allocation.
    assert_eq!(allocations(|| drop(std::hint::black_box(Box::new(7u64)))), 1);

    let disabled = Obs::disabled();
    let tracing = allocations(|| {
        for i in 0..OPS {
            traced_op(&disabled, i | 1);
        }
    });
    assert_eq!(tracing, 0, "disabled tracing allocated over {OPS} ops");

    let sink = AlertSink::disabled();
    let mut liveness = LivenessWatchdog::new(sink.clone(), 30_000_000);
    let mut fleet = FleetDeficitWatchdog::new(sink.clone());
    let mut slo = SloTracker::new(SloSpec::paper_availability(60), sink);
    let monitors = allocations(|| {
        for i in 0..OPS {
            liveness.observe(i, 1);
            fleet.observe(i, 3, 5, 3, &[]);
            slo.record(i, 1.0, 1.0);
        }
    });
    assert_eq!(monitors, 0, "disabled monitors allocated over {OPS} ops");

    // Enabled, the same calls do their deterministic work: three events
    // per traced op …
    let (enabled, _clock) = Obs::simulated();
    for i in 0..1_000 {
        traced_op(&enabled, i + 1);
    }
    assert_eq!(enabled.trace.events().len(), 3_000);

    // … and an hour of outage after ten good hours pages three times.
    let alerts = AlertSink::new(64);
    let mut tracker = SloTracker::new(SloSpec::paper_availability(24 * 60), alerts.clone());
    for minute in 0..600 {
        tracker.record(minute, 1.0, 1.0);
    }
    for minute in 600..660 {
        tracker.record(minute, 0.0, 1.0);
    }
    assert_eq!(alerts.len(), 3);
}
