//! Workspace-wide observability: cheap atomic metrics and structured
//! event tracing, designed for the simulation-heavy crates in this tree.
//!
//! Three deliberate properties shape the design:
//!
//! * **Disabled is free.** Every handle ([`Registry`], [`Counter`],
//!   [`Tracer`], …) has a disabled form whose operations are a `None`
//!   check and nothing else, so instrumented hot paths (Paxos message
//!   handling, trace replay) cost nothing when observability is off —
//!   which is the default everywhere.
//! * **Simulated time only.** Tracing timestamps come from a
//!   [`ManualClock`] the instrumented simulation drives (`simnet` time,
//!   replay minutes), so a recorded run is a function of its seed. Host
//!   time is only ever a recorded *value* ([`Histogram::time`]), never a
//!   timestamp.
//! * **One way out per signal kind.** [`Obs::to_json`] for metrics and
//!   series, [`chrome_trace_json`] for the causal trace, [`audit_jsonl`]
//!   / [`alerts_jsonl`] for decisions and alerts, and
//!   [`Tracer::to_json_lines`] for a failure dump.
//!
//! The crate has zero dependencies; JSON export is hand-rolled.

pub mod audit;
pub mod causal;
mod clock;
mod json;
mod metrics;
pub mod monitor;
mod ring;
pub mod slo;
mod timeseries;
mod trace;

pub use audit::{audit_jsonl, alerts_jsonl, AuditKind, AuditLog, AuditRecord, AUDIT_SCHEMA_VERSION};
pub use causal::{
    assemble_traces, chrome_trace_json, critical_path, hop_self_times, CausalInstant,
    CausalSpan, CausalTrace, PathSegment,
};
pub use clock::ManualClock;
pub use monitor::{
    AlertEvent, AlertSink, FleetDeficitWatchdog, LivenessWatchdog, RepairBudgetWatchdog,
    Severity, ALERT_SCHEMA_VERSION,
};
pub use slo::{SloSpec, SloTracker};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Histogram, HistogramSummary,
    MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use timeseries::{
    SeriesPoint, SeriesSnapshot, SeriesStore, TimeSeries, DEFAULT_SERIES_CAPACITY,
};
pub use trace::{
    event_to_json, Event, EventKind, FieldValue, SpanHandle, TraceContext, Tracer,
};

use std::sync::Arc;

/// A bundled observability handle: a metrics [`Registry`], an event
/// [`Tracer`] on a simulated clock, and the series, alert and audit
/// stores. This is the single field instrumented subsystems carry in
/// their configs; cloning is cheap (five `Arc`s).
#[derive(Clone)]
pub struct Obs {
    /// Counters and histograms.
    pub metrics: Registry,
    /// Structured events and spans.
    pub trace: Tracer,
    /// Named `(t, f64)` time series with bounded memory.
    pub series: SeriesStore,
    /// Fired monitor alerts (SLO burn, watchdogs).
    pub alerts: AlertSink,
    /// Decision audit log (bid selections, repair actions).
    pub audit: AuditLog,
}

impl Obs {
    /// Disabled metrics and tracing; all operations are no-ops.
    pub fn disabled() -> Obs {
        Obs {
            metrics: Registry::disabled(),
            trace: Tracer::disabled(),
            series: SeriesStore::disabled(),
            alerts: AlertSink::disabled(),
            audit: AuditLog::disabled(),
        }
    }

    /// Enabled, timestamping from a caller-driven virtual clock.
    /// Returns the handle and the clock to advance.
    pub fn simulated() -> (Obs, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs {
            metrics: Registry::new(),
            trace: Tracer::new(clock.clone(), Tracer::DEFAULT_CAPACITY),
            series: SeriesStore::new(),
            alerts: AlertSink::new(AlertSink::DEFAULT_CAPACITY),
            audit: AuditLog::new(AuditLog::DEFAULT_CAPACITY),
        };
        (obs, clock)
    }

    /// Whether any instrumentation is live.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
            || self.trace.is_enabled()
            || self.series.is_enabled()
            || self.alerts.is_enabled()
            || self.audit.is_enabled()
    }

    /// Drive the tracer's clock (no-op on disabled handles).
    /// Instrumented simulations call this as their virtual time advances.
    pub fn set_time_micros(&self, micros: u64) {
        self.trace.set_time_micros(micros);
    }

    /// Counter handle from the bundled registry.
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(name)
    }

    /// Histogram handle from the bundled registry.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.metrics.histogram(name)
    }

    /// The full state as one JSON document:
    /// `{"metrics": ..., "series": ..., "trace": ..., "alerts": [...],
    /// "audit": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"metrics\":");
        out.push_str(&self.metrics.snapshot().to_json());
        out.push_str(",\"series\":[");
        for (i, s) in self.series.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("],\"trace\":");
        out.push_str(&self.trace.to_json());
        out.push_str(",\"alerts\":[");
        for (i, a) in self.alerts.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_json());
        }
        out.push_str("],\"audit\":[");
        for (i, r) in self.audit.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::disabled()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.metrics)
            .field("trace", &self.trace)
            .field("series", &self.series)
            .field("alerts", &self.alerts)
            .field("audit", &self.audit)
            .finish()
    }
}
