//! Structured event tracing on simulated time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::ManualClock;
use crate::json;
use crate::log::{json_lines, Log};

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time occurrence.
    Instant,
    /// The opening edge of a span ([`Tracer::span_open`]).
    SpanStart,
    /// The closing edge of a span ([`Tracer::span_close`]); carries
    /// `duration_micros`.
    SpanEnd,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Instant => "instant",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Timestamp from the tracer's [`ManualClock`], in microseconds.
    pub at_micros: u64,
    /// Event name (dotted-path convention, e.g. `replay.interval`).
    pub name: String,
    /// Point event or span edge.
    pub kind: EventKind,
    /// Span id tying a start to its end, for span edges.
    pub span_id: Option<u64>,
    /// Causal trace this event belongs to; 0 means untraced (and the
    /// field is omitted from JSON, keeping legacy output byte-stable).
    pub trace_id: u64,
    /// Span (possibly on another node) that caused this event; 0 = root.
    pub parent_span: u64,
    /// Attached key/value fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// A causal context carried across node boundaries: which trace an
/// operation belongs to and which span caused the current work.
///
/// `Copy` and two words wide so it rides on every simnet message
/// envelope for free. The all-zero value ([`TraceContext::NONE`]) means
/// "untraced" — timers, boot work, and anything outside an operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Trace id grouping all spans of one end-to-end operation.
    pub trace_id: u64,
    /// The span that caused the message/work this context annotates.
    pub span_id: u64,
}

impl TraceContext {
    /// The untraced context.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this context carries a real trace.
    pub fn is_some(self) -> bool {
        self.trace_id != 0
    }
}

/// The enabled tracer: its clock and span-id counter beside the event
/// log.
struct TracerInner {
    clock: Arc<ManualClock>,
    next_span_id: AtomicU64,
    events: Log<Event>,
}

/// Records [`Event`]s into a bounded [`Log`], timestamping from a
/// [`ManualClock`]. Cloning shares the log; disabled tracers record
/// nothing and never read the clock.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// Default log capacity (events kept before the oldest are dropped
    /// and counted in [`Tracer::dropped`]).
    pub(crate) const DEFAULT_CAPACITY: usize = 16_384;

    /// An enabled tracer timestamping from `clock`, keeping at most
    /// `capacity` events.
    pub fn new(clock: Arc<ManualClock>, capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                next_span_id: AtomicU64::new(1),
                events: Log::new(capacity),
            })),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether events are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading (0 when disabled).
    pub fn now_micros(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_micros())
    }

    /// Drive the clock forward (see [`ManualClock::set_micros`]).
    pub(crate) fn set_time_micros(&self, micros: u64) {
        if let Some(inner) = &self.inner {
            inner.clock.set_micros(micros);
        }
    }

    /// Record a point event with `fields`.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.event_causal(name, TraceContext::NONE, fields);
    }

    /// Record a point event attributed to a causal trace: the event
    /// carries `tctx`'s trace id and names `tctx.span_id` as its cause.
    pub fn event_causal(&self, name: &str, tctx: TraceContext, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        inner.push(Event {
            at_micros: inner.clock.now_micros(),
            name: name.to_owned(),
            kind: EventKind::Instant,
            span_id: None,
            trace_id: tctx.trace_id,
            parent_span: tctx.span_id,
            fields: owned_fields(fields),
        });
    }

    /// Open a span: records the start edge and returns a [`SpanHandle`]
    /// (`Copy`, storable in `Clone`/`Debug` state machines) to pass to
    /// [`Tracer::span_close`] later. Returns the inert handle when
    /// disabled.
    pub fn span_open(&self, name: &str, fields: &[(&str, FieldValue)]) -> SpanHandle {
        self.span_open_causal(name, TraceContext::NONE, fields)
    }

    /// Open a span as a causal child: the start edge carries
    /// `tctx`'s trace id and names `tctx.span_id` (possibly a span on a
    /// remote node) as its parent. The returned handle's
    /// [`SpanHandle::context`] continues the trace with this span as
    /// the new parent.
    pub fn span_open_causal(
        &self,
        name: &str,
        tctx: TraceContext,
        fields: &[(&str, FieldValue)],
    ) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle::inert();
        };
        let id = inner.next_span_id.fetch_add(1, Ordering::Relaxed);
        let start_micros = inner.clock.now_micros();
        inner.push(Event {
            at_micros: start_micros,
            name: name.to_owned(),
            kind: EventKind::SpanStart,
            span_id: Some(id),
            trace_id: tctx.trace_id,
            parent_span: tctx.span_id,
            fields: owned_fields(fields),
        });
        SpanHandle {
            id,
            start_micros,
            trace_id: tctx.trace_id,
        }
    }

    /// Close a span opened with [`Tracer::span_open`], recording the
    /// end edge with `duration_micros` plus `fields`. No-op for inert
    /// handles; closing the same handle twice records two end edges, so
    /// callers should take the handle out of their state when closing.
    pub fn span_close(&self, handle: SpanHandle, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        if handle.id == 0 {
            return;
        }
        let now = inner.clock.now_micros();
        let mut all = owned_fields(fields);
        all.push((
            "duration_micros".to_owned(),
            FieldValue::U64(now.saturating_sub(handle.start_micros)),
        ));
        inner.push(Event {
            at_micros: now,
            name: name.to_owned(),
            kind: EventKind::SpanEnd,
            span_id: Some(handle.id),
            trace_id: handle.trace_id,
            parent_span: 0,
            fields: all,
        });
    }

    /// Number of events evicted from the log so far.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.events.dropped())
    }

    /// Copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.snapshot())
    }

    /// The trace as one JSON object:
    /// `{"dropped": n, "events": [...]}`; each event is also valid as a
    /// standalone JSON-lines record via [`event_to_json`].
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"dropped\":{},\"events\":[", self.dropped()));
        for (i, event) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_to_json(event));
        }
        out.push_str("]}");
        out
    }

    /// The buffered events as JSON lines (one event object per line).
    pub fn to_json_lines(&self) -> String {
        json_lines(&self.events(), event_to_json)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f.debug_tuple("Tracer").field(&inner.events).finish(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl TracerInner {
    /// Append `event`, built before the log's lock is taken.
    fn push(&self, event: Event) {
        self.events.push(|_| event);
    }
}

fn owned_fields(fields: &[(&str, FieldValue)]) -> Vec<(String, FieldValue)> {
    fields
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

/// One event as a JSON object (used for both the array export and
/// JSON-lines output).
pub(crate) fn event_to_json(event: &Event) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"at_micros\":{},\"name\":",
        event.at_micros
    ));
    json::push_str_lit(&mut out, &event.name);
    out.push_str(&format!(",\"kind\":\"{}\"", event.kind.as_str()));
    if let Some(id) = event.span_id {
        out.push_str(&format!(",\"span_id\":{id}"));
    }
    if event.trace_id != 0 {
        out.push_str(&format!(",\"trace_id\":{}", event.trace_id));
    }
    if event.parent_span != 0 {
        out.push_str(&format!(",\"parent_span\":{}", event.parent_span));
    }
    if !event.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in event.fields.iter().enumerate() {
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

/// Append one [`FieldValue`] as a JSON value.
pub(crate) fn field_value_to_json(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => out.push_str(&v.to_string()),
        FieldValue::I64(v) => out.push_str(&v.to_string()),
        FieldValue::F64(v) => json::push_f64(out, *v),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => json::push_str_lit(out, v),
    }
}

/// An open span: just the span id and start timestamp, so it
/// is `Copy` and can live inside `Clone`/`Debug` state (e.g. a Paxos
/// replica's in-flight proposals). Obtained from [`Tracer::span_open`],
/// closed with [`Tracer::span_close`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanHandle {
    /// Span id tying the edges together; 0 means inert.
    pub id: u64,
    /// Clock reading at the start edge.
    pub start_micros: u64,
    /// Causal trace the span belongs to; 0 for plain (uncausal) spans.
    pub trace_id: u64,
}

impl SpanHandle {
    /// The no-op handle (what disabled tracers hand out).
    pub(crate) fn inert() -> SpanHandle {
        SpanHandle {
            id: 0,
            start_micros: 0,
            trace_id: 0,
        }
    }

    /// The trace context continuing this span's trace with this span as
    /// the causal parent — what a message caused by this span carries.
    pub fn context(self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.id,
        }
    }
}
