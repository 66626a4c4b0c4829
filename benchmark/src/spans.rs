//! Benchmark-side spans: `{name, start_ns, end_ns, parent}` recorded
//! around the calls into each layer, kept in memory and written out as a
//! Chrome trace when the run ends. Nothing inside the program is
//! instrumented here — in-program spans are a later change.

use std::time::Instant;

use crate::json_string;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `spot-model.fit` or `replay.cell[7]`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled recorder (the untraced
/// runs) only runs the closures it is handed.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes [`Recorder::scope`] free.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. The closure receives the recorder to open children.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover (children of one parent never overlap — one thread, one stack).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Sum of self times over the subtree rooted at `root` — equals the
/// root's duration when the bookkeeping is right.
pub fn subtree_self_ns(spans: &[Span], root: usize) -> u64 {
    let own = self_times_ns(spans);
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut total = own[root];
    // Parents precede children (start order), so one forward pass works.
    for i in root + 1..spans.len() {
        if spans[i].parent.is_some_and(|p| inside[p]) {
            inside[i] = true;
            total += own[i];
        }
    }
    total
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span with its self time in `args`, plus the
/// registry counters and per-layer metrics the run read, under
/// `otherData`.
pub fn chrome_trace_json(workload: &str, spans: &[Span], numbers: &[(String, f64)]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}}}",
            json_string(&s.name),
            json_string(workload),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.start_ns,
            s.end_ns,
            own[i],
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!("\"workload\":{}", json_string(workload)));
    for (name, value) in numbers {
        out.push_str(&format!(",{}:{value}", json_string(name)));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("replay.cell[0]", 10, 40, Some(0)),
            span("jupiter.decide[0]", 15, 25, Some(1)),
            span("replay.cell[1]", 40, 90, Some(0)),
            span("setup", 100, 130, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50, 30]);
        // Self times inside `pass` tile it exactly; `setup` is outside.
        assert_eq!(subtree_self_ns(&spans, 0), 100);
        assert_eq!(subtree_self_ns(&spans, 1), 30);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let got = rec.scope("pass", |r| {
            r.scope("a", |_| ());
            r.scope("b", |r| r.scope("c", |_| 7))
        });
        assert_eq!(got, 7);
        let parents: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            vec![
                ("pass", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        let pass = &rec.spans()[0];
        assert_eq!(subtree_self_ns(rec.spans(), 0), pass.duration_ns());

        let mut off = Recorder::new(false);
        assert_eq!(off.scope("pass", |r| r.scope("a", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_and_keeps_every_span() {
        let spans = vec![
            span("pass", 0, 2_000, None),
            span("erasure.probe", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace_json(
            "store_serving",
            &spans,
            &[("storage.msgs_per_commit".into(), 8.5)],
        );
        let root = serde_json::parse_value(&text).expect("valid JSON");
        let root = root.as_object().unwrap();
        let events = serde_json::Value::as_array(&root[0].1).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[0]
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "args")
            .unwrap();
        let self_ns = args
            .1
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "self_ns")
            .unwrap();
        assert_eq!(self_ns.1.as_u64(), Some(1_000));
    }
}
