//! Unit tests for the obs crate: instrument semantics, bucket math,
//! clock behavior, concurrency, and JSON export.

use std::sync::Arc;
use std::thread;

use obs::{Counter, EventKind, FieldValue, Histogram, ManualClock, Obs, Registry, Tracer};

#[test]
fn histogram_bucket_boundaries() {
    // Bucket 0 holds only 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
    assert_eq!(obs::bucket_index(0), 0);
    assert_eq!(obs::bucket_index(1), 1);
    assert_eq!(obs::bucket_index(2), 2);
    assert_eq!(obs::bucket_index(3), 2);
    assert_eq!(obs::bucket_index(4), 3);
    assert_eq!(obs::bucket_index(7), 3);
    assert_eq!(obs::bucket_index(8), 4);
    assert_eq!(obs::bucket_index(1023), 10);
    assert_eq!(obs::bucket_index(1024), 11);
    assert_eq!(obs::bucket_index(u64::MAX), obs::HISTOGRAM_BUCKETS - 1);
    // Upper bounds invert the index mapping.
    assert_eq!(obs::bucket_upper_bound(0), 0);
    assert_eq!(obs::bucket_upper_bound(1), 1);
    assert_eq!(obs::bucket_upper_bound(2), 3);
    assert_eq!(obs::bucket_upper_bound(11), 2047);
    for v in [0u64, 1, 2, 3, 5, 100, 4096, 1 << 40] {
        assert!(obs::bucket_upper_bound(obs::bucket_index(v)) >= v);
    }
}

#[test]
fn histogram_quantiles_and_exact_stats() {
    let registry = Registry::new();
    let h = registry.histogram("latency");
    for v in 1..=100u64 {
        h.record(v);
    }
    let s = h.summary();
    assert_eq!(s.count, 100);
    assert_eq!(s.sum, 5050);
    assert!((s.mean - 50.5).abs() < 1e-9);
    assert_eq!(s.max, 100);
    // Quantiles are power-of-two upper bounds: p50 of 1..=100 is 50,
    // whose bucket [32, 64) reports 63.
    assert_eq!(s.p50, 63);
    assert_eq!(s.p95, 100); // bucket [64, 128) clamped to observed max
    assert_eq!(s.p99, 100);
}

#[test]
fn empty_histogram_is_all_zero() {
    let h = Registry::new().histogram("empty");
    let s = h.summary();
    assert_eq!(
        (s.count, s.sum, s.p50, s.p95, s.p99, s.max),
        (0, 0, 0, 0, 0, 0)
    );
    assert_eq!(s.mean, 0.0);
    // Interpolated estimates share the zero default — no NaN from the
    // 0/0 rank math.
    assert_eq!((s.p50_est, s.p90_est, s.p99_est), (0.0, 0.0, 0.0));
}

#[test]
fn interpolated_quantiles_within_a_single_bucket() {
    // Five identical samples of 7 all land in bucket [4, 7]. The
    // estimate interpolates by rank *within* the bucket: p50 (rank 3 of
    // 5) sits 3/5 of the way from 4 to the observed max 7.
    let h = Registry::new().histogram("h");
    for _ in 0..5 {
        h.record(7);
    }
    let s = h.summary();
    assert!((s.p50_est - 5.8).abs() < 1e-9, "p50_est = {}", s.p50_est);
    // Rank 5 of 5: the top of the bucket, clamped to the observed max.
    assert_eq!(s.p90_est, 7.0);
    assert_eq!(s.p99_est, 7.0);
}

#[test]
fn interpolated_quantiles_with_all_mass_in_the_overflow_bucket() {
    // u64::MAX lands in the final (overflow) bucket, whose range is
    // [2^63, u64::MAX]. Estimates must stay inside it — in particular
    // no overflow or NaN from the giant bucket width.
    let h = Registry::new().histogram("h");
    for _ in 0..3 {
        h.record(u64::MAX);
    }
    let s = h.summary();
    assert_eq!(s.max, u64::MAX);
    for est in [s.p50_est, s.p90_est, s.p99_est] {
        assert!(est.is_finite());
        assert!(est >= (1u64 << 63) as f64, "est {est} below bucket floor");
        assert!(est <= u64::MAX as f64, "est {est} above observed max");
    }
    // The top rank interpolates to the bucket ceiling = observed max.
    assert_eq!(s.p99_est, u64::MAX as f64);
}

#[test]
fn interpolated_quantiles_at_exact_boundary_ranks() {
    // 1..=10: buckets {1}, {2,3}, {4..7}, {8,9,10}. q·count is exactly
    // integral for p50 (rank 5) and p90 (rank 9), so the rank math must
    // not skip a bucket or double-count at the boundary.
    let h = Registry::new().histogram("h");
    for v in 1..=10u64 {
        h.record(v);
    }
    let s = h.summary();
    // Rank 5 falls 2 deep into the 4-sample bucket [4, 7]: 4 + 2/4 · 3.
    assert!((s.p50_est - 5.5).abs() < 1e-9, "p50_est = {}", s.p50_est);
    // Rank 9 falls 2 deep into the 3-sample bucket [8, 10]: 8 + 2/3 · 2.
    assert!(
        (s.p90_est - (8.0 + 2.0 / 3.0 * 2.0)).abs() < 1e-9,
        "p90_est = {}",
        s.p90_est
    );
    // Rank 10 is the bucket ceiling, clamped to the observed max.
    assert_eq!(s.p99_est, 10.0);

    // A rank landing exactly on a bucket's last sample interpolates to
    // that bucket's top, not into the next bucket: p50 of {1,1,8,8} is
    // rank 2 = the end of bucket [1, 1].
    let h2 = Registry::new().histogram("h2");
    for v in [1u64, 1, 8, 8] {
        h2.record(v);
    }
    assert_eq!(h2.summary().p50_est, 1.0);
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    let registry = Registry::new();
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let counter = registry.counter("hits");
            thread::spawn(move || {
                for _ in 0..per_thread {
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(registry.counter("hits").get(), threads * per_thread);
    assert_eq!(
        registry.snapshot().counter("hits"),
        Some(threads * per_thread)
    );
}

#[test]
fn concurrent_histogram_records_are_lossless() {
    let registry = Registry::new();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let h = registry.histogram("h");
            thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1000 + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = registry.histogram("h").summary();
    assert_eq!(s.count, 4000);
    assert_eq!(s.max, 3999);
}

#[test]
fn disabled_instruments_are_inert() {
    let registry = Registry::disabled();
    assert!(!registry.is_enabled());
    let c = registry.counter("c");
    let h = registry.histogram("h");
    c.add(5);
    h.record(9);
    assert_eq!(c.get(), 0);
    assert_eq!(h.summary().count, 0);
    let snap = registry.snapshot();
    assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    // Default handles (struct-field defaults) are the disabled form.
    let d = Counter::default();
    d.inc();
    assert_eq!(d.get(), 0);
    Histogram::default().record(1);
    let tracer = Tracer::disabled();
    tracer.event("x", &[]);
    let span = tracer.span_open("y", &[]);
    tracer.span_close(span, "y", &[]);
    assert!(tracer.events().is_empty());
}

#[test]
fn manual_clock_span_durations_use_virtual_time() {
    let clock = Arc::new(ManualClock::new());
    let tracer = Tracer::new(clock.clone(), 64);
    clock.set_micros(1_000);
    let span = tracer.span_open("interval", &[("idx", FieldValue::U64(3))]);
    clock.set_micros(251_000);
    tracer.span_close(span, "interval", &[]);
    let events = tracer.events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].kind, EventKind::SpanStart);
    assert_eq!(events[0].at_micros, 1_000);
    assert_eq!(events[1].kind, EventKind::SpanEnd);
    assert_eq!(events[1].at_micros, 251_000);
    assert_eq!(events[0].span_id, events[1].span_id);
    assert!(events[1]
        .fields
        .iter()
        .any(|(k, v)| k == "duration_micros" && *v == FieldValue::U64(250_000)));
}

#[test]
fn manual_clock_never_goes_backwards() {
    let clock = ManualClock::new();
    clock.set_micros(500);
    clock.set_micros(200); // stale setter loses
    assert_eq!(clock.now_micros(), 500);
    clock.set_micros(510);
    assert_eq!(clock.now_micros(), 510);
}

#[test]
fn ring_buffer_drops_oldest_and_counts() {
    let clock = Arc::new(ManualClock::new());
    let tracer = Tracer::new(clock, 4);
    for i in 0..10u64 {
        tracer.event("e", &[("i", FieldValue::U64(i))]);
    }
    assert_eq!(tracer.dropped(), 6);
    let events = tracer.events();
    assert_eq!(events.len(), 4);
    assert_eq!(events[0].fields[0].1, FieldValue::U64(6));
    assert_eq!(events[3].fields[0].1, FieldValue::U64(9));
}

#[test]
fn json_export_round_trips() {
    let (o, clock) = Obs::simulated();
    o.counter("replay.bids_placed").add(17);
    o.histogram("paxos.phase2_micros").record(1500);
    clock.set_micros(42);
    o.trace.event(
        "replay.death",
        &[
            ("zone", FieldValue::Str("us-east-1a".into())),
            ("out_of_bid", FieldValue::Bool(true)),
            ("delta", FieldValue::I64(-3)),
            ("price \"quoted\"\n", FieldValue::F64(0.013)),
        ],
    );
    let doc = serde_json::parse_value(&o.to_json()).expect("export is valid JSON");
    let obj = doc.as_object().unwrap();

    let metrics = &obj.iter().find(|(k, _)| k == "metrics").unwrap().1;
    let counters = metrics
        .as_object()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "counters")
        .unwrap()
        .1
        .as_object()
        .unwrap();
    assert_eq!(counters[0].0, "replay.bids_placed");
    assert_eq!(counters[0].1.as_u64(), Some(17));

    let trace = &obj.iter().find(|(k, _)| k == "trace").unwrap().1;
    let events = trace
        .as_object()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "events")
        .unwrap()
        .1
        .as_array()
        .unwrap();
    assert_eq!(events.len(), 1);
    let event = events[0].as_object().unwrap();
    let field = |name: &str| {
        event
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(field("at_micros").as_u64(), Some(42));
    assert_eq!(field("name").as_str(), Some("replay.death"));
    let fields = field("fields");
    let fields = fields.as_object().unwrap();
    assert_eq!(fields[0].1.as_str(), Some("us-east-1a"));
    assert_eq!(fields[3].0, "price \"quoted\"\n"); // escaping survived
    assert_eq!(fields[3].1.as_f64(), Some(0.013));

    // JSON-lines export: one standalone parseable object per line.
    let lines = o.trace.to_json_lines();
    for line in lines.lines() {
        serde_json::parse_value(line).expect("each trace line is valid JSON");
    }
}

#[test]
fn snapshot_counter_family_rolls_up() {
    let registry = Registry::new();
    registry.counter("replay.granted.us-east-1a").add(3);
    registry.counter("replay.granted.us-west-2b").add(4);
    registry.counter("replay.term.user").add(9);
    let snap = registry.snapshot();
    assert_eq!(snap.counter_family("replay.granted."), 7);
    assert_eq!(snap.counter_family("replay."), 16);
    assert_eq!(snap.counter("replay.granted.us-west-2b"), Some(4));
    assert_eq!(snap.counter("missing"), None);
}

#[test]
fn handles_share_cells_across_clones() {
    let registry = Registry::new();
    let a = registry.counter("shared");
    let b = registry.counter("shared");
    let c = a.clone();
    a.inc();
    b.inc();
    c.inc();
    assert_eq!(registry.counter("shared").get(), 3);

    let cloned_registry = registry.clone();
    cloned_registry.counter("shared").inc();
    assert_eq!(a.get(), 4);
}

#[test]
fn obs_bundle_defaults_disabled_and_simulated_enables() {
    let off = Obs::default();
    assert!(!off.is_enabled());
    off.counter("x").inc();
    assert_eq!(off.metrics.snapshot().counters.len(), 0);

    let (on, _clock) = Obs::simulated();
    assert!(on.is_enabled());
    on.counter("x").inc();
    assert_eq!(on.metrics.snapshot().counter("x"), Some(1));
}
