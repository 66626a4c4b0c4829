//! Causal trace assembly and analysis.
//!
//! The tracer records flat [`Event`]s; this module reassembles the ones
//! stamped with a nonzero `trace_id` into per-operation [`CausalTrace`]s
//! (cross-node span trees plus attributed instants), extracts the
//! **critical path** of each committed operation, and exports traces in
//! the Chrome trace event format (loadable in `chrome://tracing` and
//! Perfetto).
//!
//! The critical path of a trace is computed by partitioning the root
//! span's interval by the *deepest active descendant* at every moment:
//! the segments tile `[root.start, root.end]` exactly, so their
//! durations always sum to the observed end-to-end latency — per-hop
//! attribution is exhaustive by construction, never "97% explained".

use std::collections::HashMap;

use crate::json;
use crate::trace::{field_value_to_json, Event, EventKind, FieldValue};

/// One reassembled span of a causal trace (possibly from a remote node).
#[derive(Clone, Debug)]
pub struct CausalSpan {
    /// Span id (unique within one tracer, shared cluster-wide here).
    pub span_id: u64,
    /// Causal parent span; 0 marks the trace root.
    pub parent_span: u64,
    /// Span name from its start edge.
    pub name: String,
    /// Start-edge timestamp.
    pub start_micros: u64,
    /// End-edge timestamp; `None` when the span never closed (the
    /// operation was aborted, or the edge was evicted from the ring).
    pub end_micros: Option<u64>,
    /// Fields from the start edge.
    pub fields: Vec<(String, FieldValue)>,
}

/// A point event attributed to a trace (e.g. a chaos drop annotation).
#[derive(Clone, Debug)]
pub struct CausalInstant {
    /// Event name.
    pub name: String,
    /// Timestamp.
    pub at_micros: u64,
    /// The span this instant blames (0 when unattributed).
    pub parent_span: u64,
    /// Attached fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// All events of one causal trace, reassembled from the flat ring.
#[derive(Clone, Debug)]
pub struct CausalTrace {
    /// The trace id shared by every member event.
    pub trace_id: u64,
    /// Member spans, ordered by start time (ties by span id).
    pub spans: Vec<CausalSpan>,
    /// Member instants, ordered by time.
    pub instants: Vec<CausalInstant>,
}

impl CausalTrace {
    /// The root span: the earliest span with no parent. `None` when the
    /// root was evicted from the ring (every span has a parent).
    pub fn root(&self) -> Option<&CausalSpan> {
        self.spans.iter().find(|s| s.parent_span == 0)
    }

    /// Look up a member span by id.
    pub fn span(&self, id: u64) -> Option<&CausalSpan> {
        self.spans.iter().find(|s| s.span_id == id)
    }

    /// Spans whose declared parent is missing from this trace — the
    /// signature of a dropped message or an evicted edge. Chaos
    /// annotations ([`CausalInstant`]s like `simnet.drop`) explain which.
    pub fn orphans(&self) -> Vec<&CausalSpan> {
        self.spans
            .iter()
            .filter(|s| s.parent_span != 0 && self.span(s.parent_span).is_none())
            .collect()
    }

    /// Whether the trace is complete: a closed root exists and no span
    /// is orphaned or unclosed.
    pub fn is_complete(&self) -> bool {
        self.root().is_some_and(|r| r.end_micros.is_some())
            && self.orphans().is_empty()
            && self.spans.iter().all(|s| s.end_micros.is_some())
    }

    /// End-to-end latency: the root span's duration, when closed.
    pub fn latency_micros(&self) -> Option<u64> {
        let root = self.root()?;
        Some(root.end_micros?.saturating_sub(root.start_micros))
    }
}

/// Group the causally-stamped events (nonzero `trace_id`) into traces,
/// ordered by trace id. Untraced events are ignored.
pub fn assemble_traces(events: &[Event]) -> Vec<CausalTrace> {
    // span_id → index into the trace's spans, per trace.
    let mut traces: HashMap<u64, CausalTrace> = HashMap::new();
    for ev in events {
        if ev.trace_id == 0 {
            continue;
        }
        let trace = traces.entry(ev.trace_id).or_insert_with(|| CausalTrace {
            trace_id: ev.trace_id,
            spans: Vec::new(),
            instants: Vec::new(),
        });
        match (ev.kind, ev.span_id) {
            (EventKind::SpanStart, Some(id)) => trace.spans.push(CausalSpan {
                span_id: id,
                parent_span: ev.parent_span,
                name: ev.name.clone(),
                start_micros: ev.at_micros,
                end_micros: None,
                fields: ev.fields.clone(),
            }),
            (EventKind::SpanEnd, Some(id)) => {
                match trace.spans.iter_mut().find(|s| s.span_id == id) {
                    Some(span) => span.end_micros = Some(ev.at_micros),
                    // Start edge evicted: keep the end as a zero-length
                    // record so the span is not silently lost.
                    None => trace.spans.push(CausalSpan {
                        span_id: id,
                        parent_span: ev.parent_span,
                        name: ev.name.clone(),
                        start_micros: ev.at_micros,
                        end_micros: Some(ev.at_micros),
                        fields: ev.fields.clone(),
                    }),
                }
            }
            _ => trace.instants.push(CausalInstant {
                name: ev.name.clone(),
                at_micros: ev.at_micros,
                parent_span: ev.parent_span,
                fields: ev.fields.clone(),
            }),
        }
    }
    let mut out: Vec<CausalTrace> = traces.into_values().collect();
    for t in &mut out {
        t.spans
            .sort_by_key(|s| (s.start_micros, s.span_id));
        t.instants.sort_by_key(|i| i.at_micros);
    }
    out.sort_by_key(|t| t.trace_id);
    out
}

/// One segment of a trace's critical path: `span_id`/`name` were the
/// deepest active work during `[from_micros, to_micros)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// The span charged for this segment.
    pub span_id: u64,
    /// Its name (the "hop" label for attribution histograms).
    pub name: String,
    /// Segment start.
    pub from_micros: u64,
    /// Segment end (exclusive).
    pub to_micros: u64,
}

impl PathSegment {
    /// Segment duration.
    pub fn micros(&self) -> u64 {
        self.to_micros.saturating_sub(self.from_micros)
    }
}

/// Extract the critical path of a trace: the root interval partitioned
/// by the deepest span active at each moment (ties broken by later
/// start, then higher span id — the most recently dispatched work).
///
/// Only spans reachable from the root through parent links participate;
/// orphans are excluded so a duplicated message cannot double-charge
/// the path. Segment durations sum exactly to
/// [`CausalTrace::latency_micros`]. Returns an empty path when the
/// trace has no closed root.
pub fn critical_path(trace: &CausalTrace) -> Vec<PathSegment> {
    let Some(root) = trace.root() else {
        return Vec::new();
    };
    let Some(root_end) = root.end_micros else {
        return Vec::new();
    };
    let root_start = root.start_micros;
    if root_end <= root_start {
        return Vec::new();
    }
    // Depth by walking parent links; unreachable spans get None.
    let by_id: HashMap<u64, &CausalSpan> =
        trace.spans.iter().map(|s| (s.span_id, s)).collect();
    let depth_of = |mut id: u64| -> Option<u64> {
        // Bounded walk: a cycle (corrupted trace) terminates as orphan.
        for depth in 0..=trace.spans.len() as u64 {
            let span = by_id.get(&id)?;
            if span.parent_span == 0 {
                return Some(depth);
            }
            id = span.parent_span;
        }
        None
    };
    // Closed, reachable spans clamped into the root window.
    struct Active<'a> {
        span: &'a CausalSpan,
        depth: u64,
        from: u64,
        to: u64,
    }
    let mut active: Vec<Active<'_>> = Vec::new();
    for s in &trace.spans {
        let Some(end) = s.end_micros else { continue };
        let Some(depth) = depth_of(s.span_id) else {
            continue;
        };
        let from = s.start_micros.max(root_start);
        let to = end.min(root_end);
        if to > from || s.span_id == root.span_id {
            active.push(Active {
                span: s,
                depth,
                from,
                to,
            });
        }
    }
    // Elementary intervals from every clamped boundary.
    let mut cuts: Vec<u64> = active
        .iter()
        .flat_map(|a| [a.from, a.to])
        .chain([root_start, root_end])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut path: Vec<PathSegment> = Vec::new();
    for w in cuts.windows(2) {
        let (from, to) = (w[0], w[1]);
        if to <= from || to <= root_start || from >= root_end {
            continue;
        }
        // Deepest active span over [from, to); the root always covers
        // it, so a winner always exists.
        let winner = active
            .iter()
            .filter(|a| a.from <= from && a.to >= to)
            .max_by_key(|a| (a.depth, a.span.start_micros, a.span.span_id))
            .expect("root span covers its whole interval");
        match path.last_mut() {
            Some(last) if last.span_id == winner.span.span_id && last.to_micros == from => {
                last.to_micros = to;
            }
            _ => path.push(PathSegment {
                span_id: winner.span.span_id,
                name: winner.span.name.clone(),
                from_micros: from,
                to_micros: to,
            }),
        }
    }
    path
}

/// Total critical-path time per span name ("hop"), sorted by name — the
/// input to per-hop latency attribution histograms.
pub fn hop_self_times(path: &[PathSegment]) -> Vec<(String, u64)> {
    let mut sums: Vec<(String, u64)> = Vec::new();
    for seg in path {
        match sums.iter_mut().find(|(n, _)| *n == seg.name) {
            Some((_, t)) => *t += seg.micros(),
            None => sums.push((seg.name.clone(), seg.micros())),
        }
    }
    sums.sort_by(|a, b| a.0.cmp(&b.0));
    sums
}

/// Export events in the Chrome trace event format
/// (`chrome://tracing` / Perfetto): one JSON object with a
/// `traceEvents` array. Causal traces become one "process" each
/// (`pid` = trace id) with every span on its own row (`tid` = span id);
/// closed spans are complete (`ph:"X"`) events, unclosed spans emit a
/// lone begin (`ph:"B"`), and instants map to `ph:"i"`. Untraced span
/// events land under `pid` 0. Timestamps are the tracer clock's
/// microseconds, which Perfetto renders natively.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |entry: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&entry);
    };
    // Pair up span edges (per span id) to emit complete events.
    let mut open: HashMap<u64, &Event> = HashMap::new();
    for ev in events {
        match (ev.kind, ev.span_id) {
            (EventKind::SpanStart, Some(id)) => {
                open.insert(id, ev);
            }
            (EventKind::SpanEnd, Some(id)) => {
                let entry = match open.remove(&id) {
                    Some(start) => chrome_event(
                        &start.name,
                        "X",
                        start.at_micros,
                        Some(ev.at_micros.saturating_sub(start.at_micros)),
                        start.trace_id,
                        id,
                        start.parent_span,
                        &start.fields,
                    ),
                    None => chrome_event(
                        &ev.name,
                        "E",
                        ev.at_micros,
                        None,
                        ev.trace_id,
                        id,
                        ev.parent_span,
                        &[],
                    ),
                };
                push(entry, &mut out);
            }
            _ => {
                let entry = chrome_event(
                    &ev.name,
                    "i",
                    ev.at_micros,
                    None,
                    ev.trace_id,
                    0,
                    ev.parent_span,
                    &ev.fields,
                );
                push(entry, &mut out);
            }
        }
    }
    // Unclosed spans: begin-only edges.
    let mut stragglers: Vec<(&u64, &&Event)> = open.iter().collect();
    stragglers.sort_by_key(|(id, _)| **id);
    for (id, start) in stragglers {
        let entry = chrome_event(
            &start.name,
            "B",
            start.at_micros,
            None,
            start.trace_id,
            *id,
            start.parent_span,
            &start.fields,
        );
        push(entry, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn chrome_event(
    name: &str,
    ph: &str,
    ts: u64,
    dur: Option<u64>,
    trace_id: u64,
    tid: u64,
    parent_span: u64,
    fields: &[(String, FieldValue)],
) -> String {
    let mut e = String::from("{\"name\":");
    json::push_str_lit(&mut e, name);
    e.push_str(&format!(",\"ph\":\"{ph}\",\"ts\":{ts}"));
    if let Some(d) = dur {
        e.push_str(&format!(",\"dur\":{d}"));
    }
    e.push_str(&format!(",\"pid\":{trace_id},\"tid\":{tid}"));
    if ph == "i" {
        // Thread-scoped instant marks render as small arrows.
        e.push_str(",\"s\":\"t\"");
    }
    if parent_span != 0 || !fields.is_empty() {
        e.push_str(",\"args\":{");
        let mut first = true;
        if parent_span != 0 {
            e.push_str(&format!("\"parent_span\":{parent_span}"));
            first = false;
        }
        for (k, v) in fields {
            if !std::mem::take(&mut first) {
                e.push(',');
            }
            json::push_str_lit(&mut e, k);
            e.push(':');
            field_value_to_json(&mut e, v);
        }
        e.push('}');
    }
    e.push('}');
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;
    use crate::{ManualClock, Tracer};
    use std::sync::Arc;

    fn tracer() -> (Tracer, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Tracer::new(clock.clone(), 1024), clock)
    }

    /// Client → propose → quorum_wait shaped trace; critical-path
    /// segments must tile the root exactly.
    #[test]
    fn critical_path_tiles_the_root_interval() {
        let (t, clock) = tracer();
        let trace = TraceContext {
            trace_id: 7,
            span_id: 0,
        };
        clock.set_micros(100);
        let root = t.span_open_causal("client.request", trace, &[]);
        clock.set_micros(150);
        let propose = t.span_open_causal("paxos.propose", root.context(), &[]);
        clock.set_micros(180);
        let wait = t.span_open_causal("paxos.quorum_wait", propose.context(), &[]);
        clock.set_micros(400);
        t.span_close(wait, "paxos.quorum_wait", &[]);
        clock.set_micros(420);
        t.span_close(propose, "paxos.propose", &[]);
        clock.set_micros(500);
        t.span_close(root, "client.request", &[]);

        let traces = assemble_traces(&t.events());
        assert_eq!(traces.len(), 1);
        let ct = &traces[0];
        assert!(ct.is_complete());
        assert_eq!(ct.latency_micros(), Some(400));

        let path = critical_path(ct);
        let total: u64 = path.iter().map(|s| s.micros()).sum();
        assert_eq!(total, 400, "critical path must sum to root latency");
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "client.request",
                "paxos.propose",
                "paxos.quorum_wait",
                "paxos.propose",
                "client.request",
            ]
        );
        let hops = hop_self_times(&path);
        assert_eq!(
            hops,
            vec![
                ("client.request".into(), 130),
                ("paxos.propose".into(), 50),
                ("paxos.quorum_wait".into(), 220),
            ]
        );
    }

    #[test]
    fn orphans_are_detected_and_excluded_from_the_path() {
        let (t, clock) = tracer();
        let trace = TraceContext {
            trace_id: 9,
            span_id: 0,
        };
        clock.set_micros(0);
        let root = t.span_open_causal("client.request", trace, &[]);
        // A span claiming a parent that never recorded (dropped msg).
        let ghost_parent = TraceContext {
            trace_id: 9,
            span_id: 999,
        };
        clock.set_micros(10);
        let orphan = t.span_open_causal("paxos.quorum_wait", ghost_parent, &[]);
        clock.set_micros(90);
        t.span_close(orphan, "paxos.quorum_wait", &[]);
        clock.set_micros(100);
        t.span_close(root, "client.request", &[]);

        let traces = assemble_traces(&t.events());
        let ct = &traces[0];
        assert!(!ct.is_complete());
        let orphans = ct.orphans();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].name, "paxos.quorum_wait");
        // The orphan cannot claim critical-path time.
        let path = critical_path(ct);
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].name, "client.request");
        assert_eq!(path[0].micros(), 100);
    }

    #[test]
    fn unclosed_root_yields_empty_path() {
        let (t, clock) = tracer();
        clock.set_micros(5);
        let _root = t.span_open_causal(
            "client.request",
            TraceContext {
                trace_id: 3,
                span_id: 0,
            },
            &[],
        );
        let traces = assemble_traces(&t.events());
        assert_eq!(traces[0].latency_micros(), None);
        assert!(critical_path(&traces[0]).is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json_with_complete_events() {
        let (t, clock) = tracer();
        let trace = TraceContext {
            trace_id: 4,
            span_id: 0,
        };
        clock.set_micros(0);
        let root = t.span_open_causal("client.request", trace, &[]);
        t.event_causal("simnet.drop", root.context(), &[("to", 2u64.into())]);
        clock.set_micros(50);
        t.span_close(root, "client.request", &[]);
        let json = chrome_trace_json(&t.events());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":50"));
        assert!(json.contains("\"pid\":4"));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
