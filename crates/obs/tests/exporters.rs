//! Golden files for the three structured ways out (audit JSONL, alert
//! JSONL, Chrome trace) and the downsampling envelope property.
//!
//! The golden files live in `tests/golden/`; regenerate them after an
//! intentional format change with
//! `BLESS=1 cargo test -p obs --test exporters`.

use obs::{
    chrome_trace_json, json_lines, AlertEvent, AlertSink, AuditKind, AuditLog, AuditRecord,
    FieldValue, Obs, SeriesStore, Severity, TraceContext, ALERT_SCHEMA_VERSION,
    AUDIT_SCHEMA_VERSION,
};
use proptest::prelude::*;

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (regenerate with BLESS=1)"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if intentional, regenerate with \
         BLESS=1 cargo test -p obs --test exporters"
    );
}

/// Audit-record and alert JSONL goldens: every line is standalone JSON
/// opening with an explicit `schema_version` field, so downstream
/// consumers can dispatch on version before touching the rest of the
/// record. Byte-pinned — a serialization change must bump the schema
/// version and re-bless, not silently drift.
#[test]
fn audit_and_alert_jsonl_golden() {
    let log = AuditLog::new(16);
    log.record(
        600,
        AuditKind::BidSelection {
            zone: "us-east-1a".into(),
            instance_type: "m1.small".into(),
            capacity_weight: 1.0,
            bid_dollars: 0.085,
            spot_price_dollars: 0.041,
            predicted_availability: 0.9971,
            predicted_cost_dollars: 0.51,
            kernel_id: 0x00ab_cdef_0123_4567,
            fp_cache_hit: false,
            granted: true,
        },
    );
    log.record(
        608,
        AuditKind::RepairAction {
            action: "on_demand_top_up".into(),
            zone: "us-east-1c".into(),
            trigger_death_minute: 607,
            bid_dollars: 0.0,
            billing_delta_dollars: 0.26,
        },
    );
    let audit = json_lines(&log.snapshot(), AuditRecord::to_json);
    for line in audit.lines() {
        serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("invalid audit line {line:?}: {e}"));
        assert!(
            line.starts_with(&format!("{{\"schema_version\":{AUDIT_SCHEMA_VERSION},")),
            "audit record must lead with schema_version: {line}"
        );
    }
    check_golden("audit.jsonl", &audit);

    let sink = AlertSink::new(16);
    sink.emit(
        608 * 60_000_000,
        "slo.availability.fast_burn",
        Severity::Critical,
        "burn 14.9 over 60m (threshold 14.4)".to_string(),
        vec![1, 2],
        vec![
            ("burn_rate".to_string(), FieldValue::F64(14.9)),
            ("window_minutes".to_string(), FieldValue::U64(60)),
        ],
    );
    let alerts = json_lines(&sink.snapshot(), AlertEvent::to_json);
    for line in alerts.lines() {
        serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("invalid alert line {line:?}: {e}"));
        assert!(
            line.starts_with(&format!("{{\"schema_version\":{ALERT_SCHEMA_VERSION},")),
            "alert must lead with schema_version: {line}"
        );
    }
    check_golden("alerts.jsonl", &alerts);
}

/// Chrome-trace exporter golden: a causal client → propose →
/// quorum-wait chain with a chaos instant and one unclosed span.
#[test]
fn chrome_trace_golden() {
    let (obs, _clock) = Obs::simulated();
    let t = &obs.trace;
    let trace = TraceContext {
        trace_id: 1,
        span_id: 0,
    };
    obs.set_time_micros(1_000);
    let root = t.span_open_causal("client.request", trace, &[("req_id", 1u64.into())]);
    obs.set_time_micros(1_500);
    let propose = t.span_open_causal(
        "paxos.propose",
        root.context(),
        &[("slot", 4u64.into()), ("node", 0u64.into())],
    );
    obs.set_time_micros(1_600);
    let wait = t.span_open_causal("paxos.quorum_wait", propose.context(), &[]);
    t.event_causal(
        "simnet.drop",
        wait.context(),
        &[("from", 0u64.into()), ("to", 2u64.into())],
    );
    obs.set_time_micros(2_400);
    t.span_close(wait, "paxos.quorum_wait", &[("acks", 2u64.into())]);
    obs.set_time_micros(2_500);
    t.span_close(propose, "paxos.propose", &[]);
    obs.set_time_micros(2_900);
    t.span_close(root, "client.request", &[]);
    // An unclosed span (operation still in flight at export time).
    obs.set_time_micros(3_000);
    let _open = t.span_open_causal(
        "client.request",
        TraceContext {
            trace_id: 2,
            span_id: 0,
        },
        &[("req_id", 2u64.into())],
    );

    let json = chrome_trace_json(&t.events());
    serde_json::parse_value(&json).expect("chrome trace is valid JSON");
    check_golden("chrome_trace.json", &json);
}

// ---- downsampling envelope ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However hard a series is downsampled, the retained points keep
    /// the exact global min/max/first/last/sum/count of the raw stream,
    /// and the merged points stay in time order.
    #[test]
    fn downsampling_preserves_the_envelope(
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..300),
        capacity in 2usize..16,
    ) {
        let store = SeriesStore::with_capacity(capacity);
        let ts = store.series("s");
        for (i, &v) in values.iter().enumerate() {
            ts.record(i as u64, v);
        }
        let snap = &store.snapshot()[0];

        prop_assert!(snap.points.len() <= capacity.max(2));
        prop_assert_eq!(snap.total_count, values.len() as u64);
        let count: u64 = snap.points.iter().map(|p| p.count).sum();
        prop_assert_eq!(count, values.len() as u64);

        let raw_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let raw_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(snap.min(), Some(raw_min));
        prop_assert_eq!(snap.max(), Some(raw_max));
        prop_assert_eq!(snap.points.first().map(|p| p.first), values.first().copied());
        prop_assert_eq!(snap.last(), values.last().copied());

        let raw_sum: f64 = values.iter().sum();
        let kept_sum: f64 = snap.points.iter().map(|p| p.sum).sum();
        prop_assert!((raw_sum - kept_sum).abs() <= raw_sum.abs() * 1e-9 + 1e-6);

        // Points cover disjoint, ordered time ranges.
        for w in snap.points.windows(2) {
            prop_assert!(w[0].t_last < w[1].t_first);
        }
        for p in &snap.points {
            prop_assert!(p.t_first <= p.t_last);
            prop_assert!(p.min <= p.max);
        }
    }
}
