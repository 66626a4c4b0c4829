//! Online alerting: structured [`AlertEvent`]s in a bounded [`Log`] (the
//! alert analogue of the [`crate::Tracer`]'s event log) plus the watchdog
//! monitors the replay and protocol harnesses thread through their
//! loops — a liveness detector, a fleet-strength deficit detector, and a
//! repair-budget-exhaustion detector.
//!
//! Everything here follows the crate's "disabled is free" rule: a
//! disabled [`AlertSink`] makes every watchdog `observe` call a single
//! `None` check, so un-monitored replays are untouched (the root
//! `tests/disabled_path.rs` holds those calls to zero allocations).

use crate::json;
use crate::log::Log;
use crate::trace::{field_value_to_json, FieldValue};

/// Version stamped into every serialized alert record; bump on any
/// breaking change to [`AlertEvent::to_json`].
pub const ALERT_SCHEMA_VERSION: u32 = 1;

/// How urgent a fired alert is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; no action expected.
    Info,
    /// Degradation that will become a problem if sustained (slow-window
    /// burn, fleet below target strength).
    Warning,
    /// Immediate action required (fast-window burn, quorum loss,
    /// liveness stall).
    Critical,
}

impl Severity {
    /// Lower-case label used in JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One fired alert: which monitor, when (sim time), how bad, and the
/// audit-record sequence numbers ([`crate::audit::AuditRecord::seq`]) of
/// the decisions that preceded it — the cross-reference that lets a
/// post-mortem jump from "the budget burned" to "these bids caused it".
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// Monotonic sequence number within the sink (starts at 1).
    pub seq: u64,
    /// Sim-time timestamp in microseconds (replay minutes are
    /// `minute * 60e6`, matching the tracer's convention).
    pub at_micros: u64,
    /// Dotted monitor id, e.g. `slo.availability.fast_burn` or
    /// `watchdog.liveness`.
    pub monitor: String,
    /// Urgency.
    pub severity: Severity,
    /// Human-readable one-liner.
    pub message: String,
    /// Audit-log sequence numbers of the decisions leading up to this
    /// alert (most recent last); empty when no audit log was live.
    pub audit_refs: Vec<u64>,
    /// Structured context (burn rate, window, live count, …).
    pub fields: Vec<(String, FieldValue)>,
}

impl AlertEvent {
    /// The alert as one JSON object (a valid JSON-lines record),
    /// carrying an explicit `schema_version`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema_version\":{ALERT_SCHEMA_VERSION},\"seq\":{},\"at_micros\":{},\"monitor\":",
            self.seq, self.at_micros
        ));
        json::push_str_lit(&mut out, &self.monitor);
        out.push_str(&format!(",\"severity\":\"{}\",\"message\":", self.severity.label()));
        json::push_str_lit(&mut out, &self.message);
        out.push_str(",\"audit_refs\":[");
        for (i, r) in self.audit_refs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_string());
        }
        out.push(']');
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_str_lit(&mut out, key);
                out.push(':');
                field_value_to_json(&mut out, value);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Fired alerts: a [`Log`] of [`AlertEvent`]s.
pub type AlertSink = Log<AlertEvent>;

impl Log<AlertEvent> {
    /// Default capacity (alerts are rare; this never drops in practice,
    /// but the bound keeps pathological monitors harmless).
    pub const DEFAULT_CAPACITY: usize = 4_096;

    /// Fire an alert; returns its sequence number, or `None` when
    /// disabled.
    pub fn emit(
        &self,
        at_micros: u64,
        monitor: &str,
        severity: Severity,
        message: String,
        audit_refs: Vec<u64>,
        fields: Vec<(String, FieldValue)>,
    ) -> Option<u64> {
        self.push(|seq| AlertEvent {
            seq,
            at_micros,
            monitor: monitor.to_owned(),
            severity,
            message,
            audit_refs,
            fields,
        })
    }
}

/// Detects stalls: outstanding client requests but no completion
/// progress within a sim-time bound. The harness calls
/// [`LivenessWatchdog::observe`] from its drain loop; progress is any
/// change in the outstanding count (completions shrink it, fresh
/// submissions reset the stall timer too — the service is clearly
/// accepting work).
#[derive(Debug)]
pub struct LivenessWatchdog {
    sink: AlertSink,
    stall_bound_micros: u64,
    last_outstanding: u64,
    last_progress_micros: u64,
    fired: bool,
}

impl LivenessWatchdog {
    /// A watchdog firing `watchdog.liveness` after `stall_bound_micros`
    /// of zero progress with work outstanding.
    pub fn new(sink: AlertSink, stall_bound_micros: u64) -> LivenessWatchdog {
        LivenessWatchdog {
            sink,
            stall_bound_micros: stall_bound_micros.max(1),
            last_outstanding: 0,
            last_progress_micros: 0,
            fired: false,
        }
    }

    /// Feed one observation; returns the alert seq if the stall bound
    /// was just crossed (edge-triggered — one alert per stall).
    pub fn observe(&mut self, now_micros: u64, outstanding: u64) -> Option<u64> {
        if !self.sink.is_enabled() {
            return None;
        }
        if outstanding == 0 || outstanding != self.last_outstanding {
            self.last_outstanding = outstanding;
            self.last_progress_micros = now_micros;
            self.fired = false;
            return None;
        }
        let stalled = now_micros.saturating_sub(self.last_progress_micros);
        if stalled >= self.stall_bound_micros && !self.fired {
            self.fired = true;
            return self.sink.emit(
                now_micros,
                "watchdog.liveness",
                Severity::Critical,
                format!(
                    "{outstanding} request(s) outstanding with no progress for \
                     {stalled} sim-µs (bound {})",
                    self.stall_bound_micros
                ),
                Vec::new(),
                vec![
                    ("outstanding".to_owned(), FieldValue::U64(outstanding)),
                    ("stalled_micros".to_owned(), FieldValue::U64(stalled)),
                ],
            );
        }
        None
    }
}

/// Detects fleet-strength deficits in the replay's minute accounting:
/// fires `watchdog.fleet_deficit` (warning) when the live count first
/// drops below the decided group size and `watchdog.quorum_loss`
/// (critical) when it drops below quorum; both clear (re-arm) when
/// strength is restored.
#[derive(Debug)]
pub struct FleetDeficitWatchdog {
    sink: AlertSink,
    in_deficit: bool,
    below_quorum: bool,
}

impl FleetDeficitWatchdog {
    /// A fresh watchdog over `sink`.
    pub fn new(sink: AlertSink) -> FleetDeficitWatchdog {
        FleetDeficitWatchdog {
            sink,
            in_deficit: false,
            below_quorum: false,
        }
    }

    /// Feed one strength observation; `audit_refs` names the decisions
    /// in effect (attached to any alert fired here).
    pub fn observe(
        &mut self,
        at_micros: u64,
        live: usize,
        group: usize,
        quorum: usize,
        audit_refs: &[u64],
    ) {
        if !self.sink.is_enabled() {
            return;
        }
        if live < quorum {
            if !self.below_quorum {
                self.below_quorum = true;
                self.sink.emit(
                    at_micros,
                    "watchdog.quorum_loss",
                    Severity::Critical,
                    format!("{live} live instance(s), quorum needs {quorum}"),
                    audit_refs.to_vec(),
                    vec![
                        ("live".to_owned(), FieldValue::U64(live as u64)),
                        ("quorum".to_owned(), FieldValue::U64(quorum as u64)),
                    ],
                );
            }
        } else {
            self.below_quorum = false;
        }
        if live < group {
            if !self.in_deficit {
                self.in_deficit = true;
                self.sink.emit(
                    at_micros,
                    "watchdog.fleet_deficit",
                    Severity::Warning,
                    format!("fleet at {live}/{group} decided strength"),
                    audit_refs.to_vec(),
                    vec![
                        ("live".to_owned(), FieldValue::U64(live as u64)),
                        ("group".to_owned(), FieldValue::U64(group as u64)),
                    ],
                );
            }
        } else {
            self.in_deficit = false;
        }
    }
}

/// Detects repair-budget exhaustion: the repair controller ran out of
/// rebids while kills were still arriving. One `watchdog.repair_budget`
/// alert per bidding interval (re-armed at each boundary).
#[derive(Debug)]
pub struct RepairBudgetWatchdog {
    sink: AlertSink,
    fired_this_interval: bool,
}

impl RepairBudgetWatchdog {
    /// A fresh watchdog over `sink`.
    pub fn new(sink: AlertSink) -> RepairBudgetWatchdog {
        RepairBudgetWatchdog {
            sink,
            fired_this_interval: false,
        }
    }

    /// Re-arm at a bidding-interval boundary.
    pub fn interval_start(&mut self) {
        self.fired_this_interval = false;
    }

    /// Report an exhausted rebid budget; fires at most once per
    /// interval.
    pub fn exhausted(&mut self, at_micros: u64, max_rebids: u32, audit_refs: &[u64]) {
        if !self.sink.is_enabled() || self.fired_this_interval {
            return;
        }
        self.fired_this_interval = true;
        self.sink.emit(
            at_micros,
            "watchdog.repair_budget",
            Severity::Critical,
            format!("rebid budget exhausted ({max_rebids} per interval)"),
            audit_refs.to_vec(),
            vec![("max_rebids".to_owned(), FieldValue::U64(max_rebids as u64))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_sequences() {
        let sink = AlertSink::new(2);
        for i in 0..4u64 {
            sink.emit(i, "m", Severity::Info, format!("a{i}"), vec![], vec![]);
        }
        let alerts = sink.snapshot();
        assert_eq!(alerts.len(), 2);
        assert_eq!(sink.dropped(), 2);
        // `emit` stamps the sink's sequence number into each alert, and
        // the numbers keep counting across evictions.
        assert_eq!((alerts[0].seq, alerts[0].at_micros), (3, 2));
        assert_eq!((alerts[1].seq, alerts[1].at_micros), (4, 3));
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = AlertSink::disabled();
        assert_eq!(
            sink.emit(0, "m", Severity::Critical, "x".into(), vec![], vec![]),
            None
        );
        assert!(sink.snapshot().is_empty());
        assert!(sink.is_empty());
    }

    #[test]
    fn liveness_fires_once_per_stall_and_rearms_on_progress() {
        let sink = AlertSink::new(16);
        let mut dog = LivenessWatchdog::new(sink.clone(), 1_000);
        assert_eq!(dog.observe(0, 3), None); // first sighting = progress
        assert_eq!(dog.observe(500, 3), None); // within bound
        let fired = dog.observe(1_200, 3);
        assert!(fired.is_some(), "stall past the bound fires");
        assert_eq!(dog.observe(2_000, 3), None, "still stalled: no re-fire");
        assert_eq!(dog.observe(2_100, 2), None, "progress re-arms");
        assert!(dog.observe(3_500, 2).is_some(), "second stall fires again");
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn fleet_deficit_edges_only() {
        let sink = AlertSink::new(16);
        let mut dog = FleetDeficitWatchdog::new(sink.clone());
        dog.observe(0, 5, 5, 3, &[]);
        assert!(sink.is_empty());
        dog.observe(60, 4, 5, 3, &[7]); // deficit, quorum holds
        dog.observe(120, 4, 5, 3, &[7]); // no duplicate
        dog.observe(180, 2, 5, 3, &[7]); // quorum lost
        let alerts = sink.snapshot();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].monitor, "watchdog.fleet_deficit");
        assert_eq!(alerts[0].severity, Severity::Warning);
        assert_eq!(alerts[0].audit_refs, vec![7]);
        assert_eq!(alerts[1].monitor, "watchdog.quorum_loss");
        assert_eq!(alerts[1].severity, Severity::Critical);
        dog.observe(240, 5, 5, 3, &[]); // restored
        dog.observe(300, 4, 5, 3, &[]); // fresh deficit fires again
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn repair_budget_fires_once_per_interval() {
        let sink = AlertSink::new(16);
        let mut dog = RepairBudgetWatchdog::new(sink.clone());
        dog.exhausted(0, 4, &[1, 2]);
        dog.exhausted(60, 4, &[1, 2]);
        assert_eq!(sink.len(), 1);
        dog.interval_start();
        dog.exhausted(120, 4, &[3]);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn alert_json_carries_schema_version() {
        let sink = AlertSink::new(4);
        sink.emit(
            60_000_000,
            "slo.availability.fast_burn",
            Severity::Critical,
            "burn".into(),
            vec![1, 2],
            vec![("burn_rate".to_owned(), FieldValue::F64(20.0))],
        );
        let json = sink.snapshot()[0].to_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"audit_refs\":[1,2]"));
        assert!(json.contains("\"severity\":\"critical\""));
    }
}
