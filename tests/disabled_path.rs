//! Disabled observability is free, in a unit that does not depend on the
//! host: the tracing and audit calls on `Obs::disabled()` and the alert,
//! watchdog and SLO calls on `AlertSink::disabled()` perform **zero heap
//! allocations**, and neither does rendering a `Zone`, which the replay
//! formats on its grant path.
//! A disabled path that grows a `String`, a `Vec` or a boxed event fails
//! here whatever the machine's speed; what the calls cost in time is the
//! repo benchmark's `obs.disabled_ns_per_op`.
//!
//! The same unit bounds the replay's per-interval observe for a strategy
//! that never reads its failure models: a cursor store, no queued range
//! and no copied price window.
//!
//! The file is its own test binary because it installs the counting
//! `#[global_allocator]` of `test_util::alloc`; the count is per thread
//! and armed only around the measured loops, so the harness and the
//! other test's thread do not disturb it.

use spot_jupiter::obs::{
    AlertSink, AuditKind, FleetDeficitWatchdog, LivenessWatchdog, Obs, RepairBudgetWatchdog,
    Severity, SloSpec, SloTracker, TraceContext,
};
use spot_jupiter::spot_market::{Price, PricePoint, PriceTrace, Region, Zone};
use spot_jupiter::spot_model::{FailureModel, FailureModelConfig};
use std::fmt::Write;
use std::sync::Arc;
use test_util::alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let boxed = allocations(|| drop(std::hint::black_box(Box::new(7u64))));
    assert_eq!(boxed.count, 1);

    let disabled = Obs::disabled();
    // Empty strings: cloning the record allocates nothing, so any
    // allocation counted below is the log's own.
    let note = AuditKind::RepairAction {
        action: String::new(),
        zone: String::new(),
        trigger_death_minute: 0,
        bid_dollars: 0.0,
        billing_delta_dollars: 0.0,
    };
    let tracing = allocations(|| {
        for i in 0..OPS {
            traced_op(&disabled, i | 1);
            disabled.audit.record(i, note.clone());
        }
    });
    assert_eq!(
        tracing.count, 0,
        "disabled tracing allocated over {OPS} ops"
    );

    let sink = AlertSink::disabled();
    let mut liveness = LivenessWatchdog::new(sink.clone(), 30_000_000);
    let mut fleet = FleetDeficitWatchdog::new(sink.clone());
    let mut budget = RepairBudgetWatchdog::new(sink.clone());
    let mut slo = SloTracker::new(SloSpec::paper_availability(60), sink.clone());
    let monitors = allocations(|| {
        for i in 0..OPS {
            liveness.observe(i, 1);
            fleet.observe(i, 3, 5, 3, &[]);
            budget.exhausted(i, 4, &[]);
            budget.interval_start();
            slo.record(i, 1.0, 1.0);
            sink.emit(
                i,
                "m",
                Severity::Info,
                String::new(),
                Vec::new(),
                Vec::new(),
            );
        }
    });
    assert_eq!(
        monitors.count, 0,
        "disabled monitors allocated over {OPS} ops"
    );

    // A zone writes its region name and letter straight into the
    // formatter: nothing beyond the caller's own buffer.
    let zone = Zone::new(Region::ApSoutheast2, 1);
    let mut name = String::with_capacity(32);
    let rendered = allocations(|| write!(name, "{zone}").unwrap());
    assert_eq!(rendered.count, 0, "rendering {name} allocated");
    assert_eq!(name, "ap-southeast-2b");

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

#[test]
fn unread_models_move_a_cursor_without_copying_windows() {
    // 10 000 change points, alternating every 3 minutes.
    let points = (0..10_000u64)
        .map(|i| PricePoint {
            minute: 3 * i,
            price: Price::from_micros(10_000 + 5_000 * (i % 2)),
        })
        .collect();
    let trace = Arc::new(PriceTrace::new(points, 30_000));
    const OBSERVES: u64 = 1_000;
    let revealed = Arc::new((0..OBSERVES).map(|k| 30 * k..30 * (k + 1)).collect());
    let mut model = FailureModel::new(FailureModelConfig::default());
    model.follow(&trace, &revealed);
    let shown = allocations(|| {
        for k in 1..=OBSERVES as usize {
            model.show(k);
        }
    });
    // A cursor store per boundary: no range queued, no window cut.
    assert_eq!(shown.count, 0, "{OBSERVES} unread shows allocated");
    assert_eq!(model.unfolded(), OBSERVES as usize);
    // A read then cuts and folds every range.
    assert!(model.is_trained());
    assert_eq!(model.unfolded(), 0);
}
