//! Self-contained HTML reports: the recorded replay time series rendered
//! as inline SVG line charts (the Fig. 4/7 shapes — price vs. bid over
//! time, cost and availability per bidding interval), with a metrics
//! table appended. No external assets, scripts, or crates: one file,
//! openable anywhere.
//!
//! Chart conventions follow the workspace's dataviz ground rules: one
//! y-axis per chart, at most a few series, a fixed categorical color
//! order (CSS custom properties, stepped separately for dark mode),
//! recessive grid, direct labels via a legend row, and the full
//! per-interval table below the charts as the accessible fallback.

use obs::{
    assemble_traces, critical_path, hop_self_times, AlertEvent, AuditKind, AuditRecord,
    CausalTrace, Event, MetricsSnapshot, SeriesSnapshot, Severity,
};
use replay::ReplayResult;

/// One polyline in a chart. `slot` picks the categorical color
/// (1-based, fixed order across the report).
pub struct Line {
    /// Legend label.
    pub label: String,
    /// Categorical palette slot (1..=8).
    pub slot: u8,
    /// Dashed stroke (used to separate bid from price).
    pub dashed: bool,
    /// `(x, y)` in data coordinates.
    pub points: Vec<(f64, f64)>,
}

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 300.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 14.0;
const MARGIN_T: f64 = 14.0;
const MARGIN_B: f64 = 40.0;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Compact tick/value formatting: enough digits to tell ticks apart,
/// no scientific noise for the usual dollar/availability ranges.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    let a = v.abs();
    let s = if a == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.1 {
        format!("{v:.2}")
    } else if a >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    };
    // Trim a trailing ".0"-style fraction.
    if s.contains('.') && !s.contains('e') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// A vertical annotation on a chart: a fired alert at `x` (same x units
/// as the chart's lines).
pub struct Mark {
    /// X coordinate in data units.
    pub x: f64,
    /// Tooltip label.
    pub label: String,
    /// Alert severity — picks the marker color class.
    pub severity: Severity,
}

/// Alerts as chart marks on the market-hours axis (alert timestamps are
/// replay-minute micros).
fn alert_marks(alerts: &[AlertEvent]) -> Vec<Mark> {
    alerts
        .iter()
        .map(|a| Mark {
            x: a.at_micros as f64 / 60e6 / 60.0,
            label: format!("{} — {}", a.monitor, a.message),
            severity: a.severity,
        })
        .collect()
}

/// Render one line chart as an SVG element, with vertical alert markers
/// overlaid (marks outside the data's x range are dropped). Returns an
/// empty-data note instead of axes when no line has points.
pub fn svg_chart_marked(x_label: &str, y_label: &str, lines: &[Line], marks: &[Mark]) -> String {
    let all: Vec<(f64, f64)> = lines.iter().flat_map(|l| l.points.iter().copied()).collect();
    if all.is_empty() {
        return "<p class=\"empty\">no recorded samples</p>".into();
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x1 - x0 < 1e-9 {
        x0 -= 0.5;
        x1 += 0.5;
    }
    if y1 - y0 < 1e-9 {
        let pad = (y0.abs() * 0.1).max(0.5);
        y0 -= pad;
        y1 += pad;
    } else {
        let pad = (y1 - y0) * 0.06;
        y0 -= pad;
        y1 += pad;
    }
    let px = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R);
    let py = |y: f64| HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (HEIGHT - MARGIN_T - MARGIN_B);

    let mut out = format!(
        "<svg viewBox=\"0 0 {WIDTH} {HEIGHT}\" role=\"img\" \
         preserveAspectRatio=\"xMidYMid meet\">\n"
    );
    // Recessive grid + y ticks.
    for i in 0..=4 {
        let y = y0 + (y1 - y0) * i as f64 / 4.0;
        let yy = py(y);
        out.push_str(&format!(
            "<line class=\"grid\" x1=\"{MARGIN_L}\" y1=\"{yy:.1}\" x2=\"{:.1}\" y2=\"{yy:.1}\"/>\n",
            WIDTH - MARGIN_R
        ));
        out.push_str(&format!(
            "<text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            MARGIN_L - 6.0,
            yy + 3.5,
            fmt_num(y)
        ));
    }
    // X ticks.
    for i in 0..=5 {
        let x = x0 + (x1 - x0) * i as f64 / 5.0;
        let xx = px(x);
        out.push_str(&format!(
            "<line class=\"grid\" x1=\"{xx:.1}\" y1=\"{:.1}\" x2=\"{xx:.1}\" y2=\"{:.1}\"/>\n",
            HEIGHT - MARGIN_B,
            HEIGHT - MARGIN_B + 4.0
        ));
        out.push_str(&format!(
            "<text class=\"tick\" x=\"{xx:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
            HEIGHT - MARGIN_B + 16.0,
            fmt_num(x)
        ));
    }
    // Axis labels.
    out.push_str(&format!(
        "<text class=\"axis\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
        MARGIN_L + (WIDTH - MARGIN_L - MARGIN_R) / 2.0,
        HEIGHT - 6.0,
        esc(x_label)
    ));
    out.push_str(&format!(
        "<text class=\"axis\" x=\"14\" y=\"{:.1}\" text-anchor=\"middle\" \
         transform=\"rotate(-90 14 {:.1})\">{}</text>\n",
        MARGIN_T + (HEIGHT - MARGIN_T - MARGIN_B) / 2.0,
        MARGIN_T + (HEIGHT - MARGIN_T - MARGIN_B) / 2.0,
        esc(y_label)
    ));
    // Series.
    for line in lines {
        if line.points.is_empty() {
            continue;
        }
        let dash = if line.dashed { " stroke-dasharray=\"6 4\"" } else { "" };
        let mut d = String::new();
        for (i, &(x, y)) in line.points.iter().enumerate() {
            d.push_str(if i == 0 { "M" } else { "L" });
            d.push_str(&format!("{:.1} {:.1} ", px(x), py(y)));
        }
        out.push_str(&format!(
            "<path class=\"s{}\" fill=\"none\" stroke-width=\"2\" \
             stroke-linejoin=\"round\" d=\"{}\"{}/>\n",
            line.slot,
            d.trim_end(),
            dash
        ));
        // Native hover tooltips on sparse series; skip on dense ones to
        // keep the file small and the marks thin.
        if line.points.len() <= 120 {
            for &(x, y) in &line.points {
                out.push_str(&format!(
                    "<circle class=\"hover s{}\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"7\">\
                     <title>{}: ({}, {})</title></circle>\n",
                    line.slot,
                    px(x),
                    py(y),
                    esc(&line.label),
                    fmt_num(x),
                    fmt_num(y)
                ));
            }
        }
    }
    // Alert annotations: a vertical rule at each fired alert, colored by
    // severity, tooltip carrying the monitor + message.
    for mark in marks {
        if mark.x < x0 || mark.x > x1 {
            continue;
        }
        let xx = px(mark.x);
        out.push_str(&format!(
            "<line class=\"alert alert-{}\" x1=\"{xx:.1}\" y1=\"{MARGIN_T}\" \
             x2=\"{xx:.1}\" y2=\"{:.1}\"><title>{}</title></line>\n",
            mark.severity.label(),
            HEIGHT - MARGIN_B,
            esc(&mark.label)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// A chart block: caption, legend row (for ≥ 2 series), SVG with the
/// alert markers passed through.
pub fn figure(
    caption: &str,
    x_label: &str,
    y_label: &str,
    lines: &[Line],
    marks: &[Mark],
) -> String {
    let mut out = format!("<figure>\n<figcaption>{}</figcaption>\n", esc(caption));
    if lines.len() >= 2 {
        out.push_str("<div class=\"legend\">");
        for line in lines {
            out.push_str(&format!(
                "<span><i class=\"sw s{}{}\"></i>{}</span>",
                line.slot,
                if line.dashed { " dash" } else { "" },
                esc(&line.label)
            ));
        }
        out.push_str("</div>\n");
    }
    out.push_str(&svg_chart_marked(x_label, y_label, lines, marks));
    out.push_str("</figure>\n");
    out
}

/// Series points as `(hours, last-value)` chart coordinates.
fn line_points(s: &SeriesSnapshot) -> Vec<(f64, f64)> {
    s.points
        .iter()
        .map(|p| (p.t_last as f64 / 60.0, p.last))
        .collect()
}

fn find<'a>(series: &'a [SeriesSnapshot], name: &str) -> Option<&'a SeriesSnapshot> {
    series.iter().find(|s| s.name == name)
}

/// Nesting depth of a span inside its trace (root = 0); also the Gantt
/// color slot, so sibling hops at the same depth share a color.
fn span_depth(trace: &CausalTrace, span_id: u64) -> usize {
    let mut depth = 0;
    let mut cur = span_id;
    while let Some(s) = trace.span(cur) {
        if s.parent_span == 0 || depth > 32 {
            break;
        }
        depth += 1;
        cur = s.parent_span;
    }
    depth
}

/// One complete request trace as a Gantt chart: a row per span, bars on
/// a µs-since-submit axis, instants (commits, applies, chaos drops) as
/// tick marks on their parent span's row.
fn gantt_svg(trace: &CausalTrace) -> String {
    let Some(root) = trace.root() else {
        return String::new();
    };
    let t0 = root.start_micros;
    let latency = trace.latency_micros().unwrap_or(0).max(1) as f64;
    const ROW_H: f64 = 22.0;
    const LEFT: f64 = 190.0;
    const TOP: f64 = 8.0;
    const BOTTOM: f64 = 30.0;
    let rows = trace.spans.len();
    let height = TOP + ROW_H * rows as f64 + BOTTOM;
    let px = |micros: u64| {
        LEFT + (micros.saturating_sub(t0) as f64 / latency) * (WIDTH - LEFT - MARGIN_R)
    };
    let mut out = format!(
        "<svg class=\"gantt\" viewBox=\"0 0 {WIDTH} {height}\" role=\"img\" \
         preserveAspectRatio=\"xMidYMid meet\">\n"
    );
    // X axis: µs since the client submitted.
    for i in 0..=4 {
        let v = latency * i as f64 / 4.0;
        let xx = LEFT + (v / latency) * (WIDTH - LEFT - MARGIN_R);
        out.push_str(&format!(
            "<line class=\"grid\" x1=\"{xx:.1}\" y1=\"{TOP}\" x2=\"{xx:.1}\" y2=\"{:.1}\"/>\n",
            height - BOTTOM
        ));
        out.push_str(&format!(
            "<text class=\"tick\" x=\"{xx:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
            height - BOTTOM + 14.0,
            fmt_num(v)
        ));
    }
    out.push_str(&format!(
        "<text class=\"axis\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\">µs since submit</text>\n",
        LEFT + (WIDTH - LEFT - MARGIN_R) / 2.0,
        height - 4.0
    ));
    for (row, span) in trace.spans.iter().enumerate() {
        let y = TOP + ROW_H * row as f64;
        let slot = span_depth(trace, span.span_id) % 3 + 1;
        let x0 = px(span.start_micros);
        let x1 = px(span.end_micros.unwrap_or(t0 + latency as u64));
        let dur = span
            .end_micros
            .map(|e| e.saturating_sub(span.start_micros))
            .unwrap_or(0);
        out.push_str(&format!(
            "<text class=\"row\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            LEFT - 8.0,
            y + ROW_H * 0.68,
            esc(&span.name)
        ));
        out.push_str(&format!(
            "<rect class=\"s{slot}\" x=\"{x0:.1}\" y=\"{:.1}\" width=\"{:.1}\" \
             height=\"{:.1}\" rx=\"2\"><title>{}: {} µs</title></rect>\n",
            y + 3.0,
            (x1 - x0).max(1.5),
            ROW_H - 7.0,
            esc(&span.name),
            dur
        ));
    }
    // Instants land on their blamed span's row (row 0 when unattributed).
    for inst in &trace.instants {
        let row = trace
            .spans
            .iter()
            .position(|s| s.span_id == inst.parent_span)
            .unwrap_or(0);
        let y = TOP + ROW_H * row as f64;
        let xx = px(inst.at_micros);
        out.push_str(&format!(
            "<line class=\"mark\" x1=\"{xx:.1}\" y1=\"{:.1}\" x2=\"{xx:.1}\" y2=\"{:.1}\">\
             <title>{} @ {} µs</title></line>\n",
            y + 1.0,
            y + ROW_H - 2.0,
            esc(&inst.name),
            inst.at_micros.saturating_sub(t0)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// The causal-trace section: Gantt charts for the slowest complete
/// `client.request` traces plus a critical-path attribution table
/// aggregated over *all* complete request traces. Empty when the ring
/// holds no complete request trace (tracing disabled, or no service
/// replay ran).
pub fn trace_section(events: &[Event]) -> String {
    let traces = assemble_traces(events);
    let mut complete: Vec<&CausalTrace> = traces
        .iter()
        .filter(|t| t.root().is_some_and(|r| r.name == "client.request") && t.is_complete())
        .collect();
    if complete.is_empty() {
        return String::new();
    }
    // Attribution first, over every complete trace: per-hop self time on
    // the critical path. The segments tile each root interval, so the
    // table is exhaustive — shares sum to 100%.
    let mut hops: Vec<(String, u64, u64)> = Vec::new();
    let mut total: u64 = 0;
    for t in &complete {
        for (hop, micros) in hop_self_times(&critical_path(t)) {
            total += micros;
            match hops.iter_mut().find(|(name, _, _)| *name == hop) {
                Some(row) => {
                    row.1 += micros;
                    row.2 += 1;
                }
                None => hops.push((hop, micros, 1)),
            }
        }
    }
    hops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out = String::from("<h2>Causal traces</h2>\n");
    out.push_str(&format!(
        "<p class=\"sub\">{} complete request traces; critical-path time by hop \
         (segments tile each request's submit→response interval):</p>\n",
        complete.len()
    ));
    out.push_str(
        "<table>\n<thead><tr><th>hop</th><th>self time (µs)</th>\
         <th>share</th><th>segments</th></tr></thead>\n<tbody>\n",
    );
    for (hop, micros, count) in &hops {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{micros}</td><td>{:.1}%</td><td>{count}</td></tr>\n",
            esc(hop),
            100.0 * *micros as f64 / total.max(1) as f64
        ));
    }
    out.push_str("</tbody>\n</table>\n");
    // Gantt charts for the slowest operations — the ones worth reading.
    complete.sort_by_key(|t| std::cmp::Reverse(t.latency_micros().unwrap_or(0)));
    for t in complete.iter().take(6) {
        out.push_str(&format!(
            "<figure>\n<figcaption>Operation trace {:#018x} — {} µs commit latency</figcaption>\n",
            t.trace_id,
            t.latency_micros().unwrap_or(0)
        ));
        out.push_str(&gantt_svg(t));
        out.push_str("</figure>\n");
    }
    out
}

/// Cap on audit-timeline rows rendered into the report; newest records
/// win (the full log ships in the `.audit.jsonl` artifact).
const AUDIT_TIMELINE_ROWS: usize = 80;

/// The online-monitoring section: every fired alert (cross-referenced to
/// the audit records that preceded it) plus the decision audit timeline.
/// Both blocks render unconditionally — the `id="alerts"` anchor and the
/// `audit-timeline` class are stable markers CI greps for — degrading to
/// an empty-state note when monitors were off or nothing fired.
pub fn alert_section(alerts: &[AlertEvent], audit: &[AuditRecord]) -> String {
    let mut out = String::from("<h2 id=\"alerts\">Alerts &amp; SLO burn</h2>\n");
    if alerts.is_empty() {
        out.push_str("<p class=\"empty\">no alerts fired</p>\n");
    } else {
        out.push_str(
            "<table>\n<thead><tr><th>sim time (h)</th><th>monitor</th>\
             <th>severity</th><th>message</th><th>decisions</th></tr></thead>\n<tbody>\n",
        );
        for a in alerts {
            let refs = if a.audit_refs.is_empty() {
                "-".to_string()
            } else {
                a.audit_refs
                    .iter()
                    .map(|seq| format!("<a href=\"#audit-{seq}\">#{seq}</a>"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td>\
                 <td><span class=\"sev sev-{}\">{}</span></td><td>{}</td><td>{refs}</td></tr>\n",
                fmt_num(a.at_micros as f64 / 3.6e9),
                esc(&a.monitor),
                a.severity.label(),
                a.severity.label(),
                esc(&a.message),
            ));
        }
        out.push_str("</tbody>\n</table>\n");
    }

    out.push_str("<h2>Decision audit timeline</h2>\n<div class=\"audit-timeline\">\n");
    if audit.is_empty() {
        out.push_str("<p class=\"empty\">audit log empty (monitors disabled?)</p>\n");
    } else {
        let shown = &audit[audit.len().saturating_sub(AUDIT_TIMELINE_ROWS)..];
        if shown.len() < audit.len() {
            out.push_str(&format!(
                "<p class=\"sub\">last {} of {} audit records (full log in the \
                 JSONL artifact):</p>\n",
                shown.len(),
                audit.len()
            ));
        }
        out.push_str(
            "<table>\n<thead><tr><th>seq</th><th>minute</th><th>kind</th>\
             <th>zone</th><th>bid ($/h)</th><th>detail</th></tr></thead>\n<tbody>\n",
        );
        for r in shown {
            let (zone, bid, detail) = match &r.kind {
                AuditKind::BidSelection {
                    zone,
                    bid_dollars,
                    spot_price_dollars,
                    predicted_availability,
                    kernel_id,
                    fp_cache_hit,
                    granted,
                    ..
                } => (
                    zone.clone(),
                    *bid_dollars,
                    format!(
                        "spot {} · pred avail {} · kernel {kernel_id:#018x}{}{}",
                        fmt_num(*spot_price_dollars),
                        if *predicted_availability < 0.0 {
                            "-".to_string()
                        } else {
                            fmt_num(*predicted_availability)
                        },
                        if *fp_cache_hit { " · cache hit" } else { "" },
                        if *granted { "" } else { " · not granted" },
                    ),
                ),
                AuditKind::RepairAction {
                    action,
                    zone,
                    trigger_death_minute,
                    bid_dollars,
                    billing_delta_dollars,
                } => (
                    zone.clone(),
                    *bid_dollars,
                    format!(
                        "{action} after death @ min {trigger_death_minute} · Δ${}",
                        fmt_num(*billing_delta_dollars)
                    ),
                ),
                AuditKind::ScaleDecision {
                    action,
                    reason,
                    from_strength,
                    to_strength,
                    demand_strength,
                    ..
                } => (
                    String::new(),
                    0.0,
                    format!(
                        "{action} ({reason}) · strength {from_strength} → {to_strength} · demand {}",
                        fmt_num(*demand_strength)
                    ),
                ),
                AuditKind::Migration {
                    action,
                    from_zone,
                    to_zone,
                    notice_minute,
                    deadline_minute,
                    bid_dollars,
                } => (
                    from_zone.clone(),
                    *bid_dollars,
                    format!(
                        "{action} → {} · notice @ min {notice_minute} · deadline @ min {deadline_minute}",
                        if to_zone.is_empty() { "∅" } else { to_zone },
                    ),
                ),
            };
            out.push_str(&format!(
                "<tr id=\"audit-{}\"><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>\n",
                r.seq,
                r.seq,
                r.at_minute,
                r.kind.label(),
                esc(&zone),
                fmt_num(bid),
                esc(&detail),
            ));
        }
        out.push_str("</tbody>\n</table>\n");
    }
    out.push_str("</div>\n");
    out
}

/// The report's stylesheet: palette as CSS custom properties (stepped
/// separately for dark mode), then the chart, table and tile rules.
const STYLE: &str = r#".viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e6e5e1;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #34332f;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
  }
}
body { margin: 0; }
.viz-root {
  font: 14px/1.45 system-ui, sans-serif;
  background: var(--surface-1);
  color: var(--text-primary);
  max-width: 780px;
  margin: 0 auto;
  padding: 24px 16px 48px;
}
h1 { font-size: 20px; margin: 0 0 4px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin-bottom: 20px; }
.tile { border: 1px solid var(--grid); border-radius: 8px; padding: 10px 16px; }
.tile .v { font-size: 20px; font-weight: 600; }
.tile .l { color: var(--text-secondary); font-size: 12px; }
figure { margin: 0 0 28px; }
figcaption { font-weight: 600; margin-bottom: 6px; }
svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.tick { fill: var(--text-secondary); font-size: 11px; }
.axis { fill: var(--text-secondary); font-size: 12px; }
path.s1 { stroke: var(--series-1); }
path.s2 { stroke: var(--series-2); }
path.s3 { stroke: var(--series-3); }
circle.hover { fill: transparent; }
circle.hover:hover { fill: currentColor; fill-opacity: 0.25; }
circle.s1 { color: var(--series-1); }
circle.s2 { color: var(--series-2); }
circle.s3 { color: var(--series-3); }
rect.s1 { fill: var(--series-1); }
rect.s2 { fill: var(--series-2); }
rect.s3 { fill: var(--series-3); }
.gantt .row { fill: var(--text-primary); font-size: 11px; }
line.mark { stroke: var(--text-primary); stroke-width: 1.5; }
line.alert { stroke-width: 1.5; stroke-dasharray: 2 3; }
line.alert-critical { stroke: #c92a2a; }
line.alert-warning { stroke: #e8930c; }
line.alert-info { stroke: var(--text-secondary); }
.sev { font-size: 11px; font-weight: 600; text-transform: uppercase; }
.sev-critical { color: #c92a2a; }
.sev-warning { color: #e8930c; }
.sev-info { color: var(--text-secondary); }
.legend { display: flex; gap: 16px; margin-bottom: 4px; color: var(--text-secondary); font-size: 12px; }
.legend .sw { display: inline-block; width: 18px; height: 0; border-top: 2px solid; vertical-align: middle; margin-right: 6px; }
.legend .sw.dash { border-top-style: dashed; }
.legend .s1 { border-color: var(--series-1); }
.legend .s2 { border-color: var(--series-2); }
.legend .s3 { border-color: var(--series-3); }
table { border-collapse: collapse; width: 100%; margin: 8px 0 24px; font-size: 13px; }
th, td { border-bottom: 1px solid var(--grid); padding: 4px 8px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
.empty { color: var(--text-secondary); font-style: italic; }
h2 { font-size: 16px; margin: 24px 0 4px; }
"#;

/// One chart of the replay report: which recorded series it draws, in
/// palette-slot order.
struct ChartSpec {
    caption: &'static str,
    y_label: &'static str,
    /// Overlay the fired alerts.
    marked: bool,
    /// `(series name, legend label, dashed)`.
    lines: &'static [(&'static str, &'static str, bool)],
}

/// Spot price vs. active bid in one zone — the Fig. 4 shape. Caption and
/// series names are completed by the zone name.
const ZONE_CHART: ChartSpec = ChartSpec {
    caption: "Spot price vs. active bid — ",
    y_label: "$/hour",
    marked: false,
    lines: &[
        ("replay.price.", "spot price", false),
        ("replay.bid.", "active bid", true),
    ],
};

/// The whole-replay charts, in report order. The repair series are
/// absent (and the chart skipped) when the replay ran with repair off.
const CHARTS: [ChartSpec; 5] = [
    ChartSpec {
        caption: "Cost upper bound per bidding interval (Σ bids)",
        y_label: "$",
        marked: true,
        lines: &[("replay.interval_cost_upper_dollars", "interval cost", false)],
    },
    ChartSpec {
        caption: "Service availability per bidding interval (alert rules marked)",
        y_label: "fraction of interval at quorum",
        marked: true,
        lines: &[("replay.interval_availability", "availability", false)],
    },
    ChartSpec {
        caption: "Fleet size and out-of-bid kills per interval",
        y_label: "instances",
        marked: false,
        lines: &[
            ("replay.fleet_size", "fleet size", false),
            ("replay.deaths", "out-of-bid kills", false),
        ],
    },
    ChartSpec {
        caption: "Bidding decision latency",
        y_label: "decide() µs",
        marked: false,
        lines: &[("jupiter.decide_micros", "decide latency", false)],
    },
    ChartSpec {
        caption: "Repair controller: degraded minutes and rebids per bidding interval",
        y_label: "minutes / rebids",
        marked: false,
        lines: &[
            ("repair.degraded_minutes", "degraded minutes", false),
            ("repair.rebids", "rebids", true),
        ],
    },
];

/// The figure for `spec`, with `suffix` completing its caption and series
/// names; empty when none of its series was recorded.
fn chart(spec: &ChartSpec, suffix: &str, series: &[SeriesSnapshot], marks: &[Mark]) -> String {
    let lines: Vec<Line> = (1..)
        .zip(spec.lines)
        .filter_map(|(slot, &(name, label, dashed))| {
            find(series, &format!("{name}{suffix}")).map(|s| Line {
                label: label.into(),
                slot,
                dashed,
                points: line_points(s),
            })
        })
        .collect();
    if lines.is_empty() {
        return String::new();
    }
    figure(
        &format!("{}{suffix}", spec.caption),
        "market time (hours)",
        spec.y_label,
        &lines,
        if spec.marked { marks } else { &[] },
    )
}

/// Render the full report for one recorded replay run. `trace_events` is
/// the run's trace ring (pass `&[]` when tracing was disabled); complete
/// request traces in it render as a per-operation Gantt section.
pub fn render_replay_report(
    subtitle: &str,
    result: &ReplayResult,
    snapshot: &MetricsSnapshot,
    trace_events: &[Event],
) -> String {
    let series = &result.series;
    let marks = alert_marks(&result.alerts);
    let mut figures = String::new();

    // The two most-bid zones first, then the whole-replay charts.
    let mut zones: Vec<String> = series
        .iter()
        .filter(|s| s.name.starts_with("replay.bid."))
        .map(|s| s.name["replay.bid.".len()..].to_string())
        .collect();
    zones.sort_by_key(|z| {
        std::cmp::Reverse(find(series, &format!("replay.bid.{z}")).map_or(0, |s| s.total_count))
    });
    for zone in zones.iter().take(2) {
        figures.push_str(&chart(&ZONE_CHART, zone, series, &marks));
    }
    for spec in &CHARTS {
        figures.push_str(&chart(spec, "", series, &marks));
    }

    // The accessible fallback: the per-interval table.
    let mut table = String::from(
        "<table>\n<thead><tr><th>start (min)</th><th>group</th><th>quorum</th>\
         <th>cost bound ($)</th><th>up (min)</th><th>kills</th></tr></thead>\n<tbody>\n",
    );
    for iv in &result.intervals {
        table.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.4}</td><td>{}</td><td>{}</td></tr>\n",
            iv.start,
            iv.group_size,
            iv.quorum,
            iv.cost_upper_bound.as_dollars(),
            iv.up_minutes,
            iv.kills
        ));
    }
    table.push_str("</tbody>\n</table>\n");

    // Headline counters.
    let mut counters = String::from("<table>\n<thead><tr><th>counter</th><th>value</th></tr></thead>\n<tbody>\n");
    for (name, v) in &snapshot.counters {
        counters.push_str(&format!("<tr><td>{}</td><td>{v}</td></tr>\n", esc(name)));
    }
    counters.push_str("</tbody>\n</table>\n");

    let stat = |label: &str, value: String| {
        format!(
            "<div class=\"tile\"><div class=\"v\">{value}</div><div class=\"l\">{}</div></div>\n",
            esc(label)
        )
    };
    let tiles = format!(
        "<div class=\"tiles\">\n{}{}{}{}</div>\n",
        stat("total cost", format!("${:.2}", result.total_cost.as_dollars())),
        stat("availability", format!("{:.6}", result.availability())),
        stat("out-of-bid kills", result.total_kills().to_string()),
        stat("strategy", esc(&result.strategy)),
    );

    format!(
        r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>spot-jupiter replay report</title>
<style>
{STYLE}</style>
</head>
<body>
<div class="viz-root">
<h1>spot-jupiter replay report</h1>
<p class="sub">{subtitle}</p>
{tiles}
{figures}
{alerts}
{traces}
<h2>Per-interval outcomes</h2>
{table}
<h2>Counters</h2>
{counters}
</div>
</body>
</html>
"#,
        subtitle = esc(subtitle),
        tiles = tiles,
        figures = figures,
        alerts = alert_section(&result.alerts, &result.audit),
        traces = trace_section(trace_events),
        table = table,
        counters = counters,
    )
}

/// Number of `<svg` charts in a rendered report (used by tests and the
/// CLI's sanity check).
pub fn chart_count(html: &str) -> usize {
    html.matches("<svg").count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_bounds_and_series() {
        let svg = svg_chart_marked(
            "t",
            "y",
            &[Line {
                label: "a".into(),
                slot: 1,
                dashed: false,
                points: vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)],
            }],
            &[],
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("path class=\"s1\""));
        assert!(svg.contains("<title>"));
    }

    #[test]
    fn empty_chart_degrades_gracefully() {
        let svg = svg_chart_marked("t", "y", &[], &[]);
        assert!(svg.contains("no recorded samples"));
    }

    #[test]
    fn flat_series_still_has_finite_axis() {
        let svg = svg_chart_marked(
            "t",
            "y",
            &[Line {
                label: "flat".into(),
                slot: 2,
                dashed: true,
                points: vec![(0.0, 5.0), (10.0, 5.0)],
            }],
            &[],
        );
        assert!(svg.contains("stroke-dasharray"));
        assert!(!svg.contains("NaN"));
        assert!(!svg.contains("inf"));
    }

    #[test]
    fn trace_section_renders_gantt_and_attribution() {
        use obs::{Obs, TraceContext};
        let (o, _clock) = Obs::simulated();
        o.set_time_micros(0);
        let root = o.trace.span_open_causal(
            "client.request",
            TraceContext {
                trace_id: 9,
                span_id: 0,
            },
            &[],
        );
        o.set_time_micros(100);
        let prop = o.trace.span_open_causal("paxos.propose", root.context(), &[]);
        o.set_time_micros(400);
        o.trace.event_causal("paxos.commit", prop.context(), &[]);
        o.trace.span_close(prop, "paxos.propose", &[]);
        o.set_time_micros(500);
        o.trace.span_close(root, "client.request", &[]);

        let html = trace_section(&o.trace.events());
        assert!(html.contains("Causal traces"));
        assert!(html.contains("client.request"));
        assert!(html.contains("paxos.propose"));
        assert!(html.contains("class=\"gantt\""));
        // Attribution tiles the 500 µs root: 200 µs client + 300 µs propose.
        assert!(html.contains("<td>300</td>"));
        assert!(html.contains("<td>200</td>"));
        // Commit instant renders as a mark with a tooltip.
        assert!(html.contains("paxos.commit @ 400 µs"));
    }

    #[test]
    fn trace_section_is_empty_without_complete_traces() {
        assert!(trace_section(&[]).is_empty());
    }

    #[test]
    fn alert_marks_annotate_charts() {
        let svg = svg_chart_marked(
            "t",
            "y",
            &[Line {
                label: "a".into(),
                slot: 1,
                dashed: false,
                points: vec![(0.0, 1.0), (10.0, 2.0)],
            }],
            &[
                Mark {
                    x: 5.0,
                    label: "slo.availability.fast_burn — burning".into(),
                    severity: Severity::Critical,
                },
                Mark {
                    x: 99.0, // outside data range: dropped
                    label: "late".into(),
                    severity: Severity::Info,
                },
            ],
        );
        assert!(svg.contains("alert-critical"));
        assert!(svg.contains("slo.availability.fast_burn"));
        assert!(!svg.contains("alert-info"));
    }

    #[test]
    fn alert_section_markers_always_present() {
        let html = alert_section(&[], &[]);
        assert!(html.contains("id=\"alerts\""));
        assert!(html.contains("class=\"audit-timeline\""));
        assert!(html.contains("no alerts fired"));

        let audit = vec![AuditRecord {
            seq: 1,
            at_minute: 12,
            kind: AuditKind::BidSelection {
                zone: "us-east-1a".into(),
                instance_type: "m1.small".into(),
                capacity_weight: 1.0,
                bid_dollars: 0.08,
                spot_price_dollars: 0.04,
                predicted_availability: 0.997,
                predicted_cost_dollars: 0.24,
                kernel_id: 0xdead_beef,
                fp_cache_hit: true,
                granted: true,
            },
        }];
        let alerts = vec![AlertEvent {
            seq: 1,
            at_micros: 608 * 60_000_000,
            monitor: "slo.availability.fast_burn".into(),
            severity: Severity::Critical,
            message: "burn 14.9 over 60m".into(),
            audit_refs: vec![1],
            fields: Vec::new(),
        }];
        let html = alert_section(&alerts, &audit);
        assert!(html.contains("id=\"alerts\""));
        assert!(html.contains("slo.availability.fast_burn"));
        // The alert row links to the audit record's row anchor.
        assert!(html.contains("href=\"#audit-1\""));
        assert!(html.contains("id=\"audit-1\""));
        assert!(html.contains("us-east-1a"));
        assert!(html.contains("cache hit"));
    }

    /// The whole report over the `report` target's own input, as one
    /// FNV-1a-64 digest — first recorded on the six hand-built chart blocks
    /// and the inline stylesheet, before they became [`CHARTS`] and
    /// [`STYLE`]; re-keyed at 4fda18e with the counters PR 18 deletes
    /// dropped from the all-counters table by name (it prints whatever
    /// the registry holds).
    /// `*_micros` series carry host wall-clock values, so their points are
    /// flattened to 0 in the input (the chart itself stays).
    #[test]
    fn report_html_digest_is_pinned() {
        let (obs, _service, mut result) =
            crate::observed_replays(2014, 7, 2, replay::RepairConfig::hybrid());
        for s in &mut result.series {
            if s.name.ends_with("_micros") {
                s.points.iter_mut().for_each(|p| p.last = 0.0);
            }
        }
        let html = render_replay_report(
            "digest",
            &result,
            &obs.metrics.snapshot(),
            &obs.trace.events(),
        );
        assert_eq!(chart_count(&html), 13, "two zones, five charts, six Gantts");
        let digest = html.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0x68e3_fcc5_736f_69b4, "got {digest:#018x}");
    }

    #[test]
    fn labels_are_escaped() {
        let svg = svg_chart_marked(
            "<time>",
            "a&b",
            &[Line {
                label: "x".into(),
                slot: 1,
                dashed: false,
                points: vec![(0.0, 0.0)],
            }],
            &[],
        );
        assert!(svg.contains("&lt;time&gt;"));
        assert!(svg.contains("a&amp;b"));
        assert!(!svg.contains("<time>"));
    }
}
