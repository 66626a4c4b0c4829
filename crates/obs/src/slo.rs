//! Online SLO evaluation: declarative [`SloSpec`]s, error-budget
//! accounting over a stream of sim-time observations, and Google-SRE
//! style multi-window burn-rate alerting (a fast paging window and a
//! slow ticketing window, both in sim time, both deterministic).
//!
//! The unit of an observation is a *good fraction over a total*: the
//! replay feeds one observation per accounted minute-span
//! (`good = span` when a quorum was up), the service replay feeds one
//! per completed request (`good = 1` when it met the latency bound).
//! Burn rate over a trailing window `W` is
//! `(bad_W / total_W) / (1 − objective)` — burn 1.0 spends the budget
//! exactly at the rate that exhausts it at the window's end, burn
//! `x` spends it `x` times faster.

use std::collections::VecDeque;

use crate::monitor::{AlertSink, Severity};
use crate::trace::FieldValue;

/// Target good fraction (the paper's fleet target is 0.99).
const OBJECTIVE: f64 = 0.99;
/// Fast (paging) burn window, sim minutes.
const FAST_WINDOW_MINUTES: u64 = 60;
/// Slow (ticketing) burn window, sim minutes.
const SLOW_WINDOW_MINUTES: u64 = 360;
/// Burn-rate threshold for the fast window (SRE convention: 14.4
/// spends 2% of a 30-day budget in an hour).
const FAST_BURN_THRESHOLD: f64 = 14.4;
/// Burn-rate threshold for the slow window.
const SLOW_BURN_THRESHOLD: f64 = 6.0;

/// A named service-level objective: 99% good over a budget window, with
/// a 1-hour fast window at burn 14.4 and a 6-hour slow window at burn 6.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// SLO name; alerts fire as `slo.{name}.fast_burn` /
    /// `slo.{name}.slow_burn` / `slo.{name}.budget_exhausted`.
    pub name: String,
    /// Budget window in sim minutes: the error budget is
    /// `(1 − objective) × window_minutes` bad units.
    pub window_minutes: u64,
}

impl SloSpec {
    /// The paper's fleet-availability SLO (§5: ≥ 0.99 of evaluated
    /// minutes with a quorum up) over a budget window of
    /// `window_minutes`.
    pub fn paper_availability(window_minutes: u64) -> SloSpec {
        SloSpec {
            name: "availability".to_owned(),
            window_minutes,
        }
    }

    /// The request-latency SLO: 99% of requests within the configured
    /// SLA bound.
    pub fn request_latency(window_minutes: u64) -> SloSpec {
        SloSpec {
            name: "request_latency".to_owned(),
            window_minutes,
        }
    }
}

/// Online evaluator for one [`SloSpec`]: feed observations in sim-time
/// order via [`SloTracker::record`]; burn-rate alerts fire into the
/// [`AlertSink`] deterministically, cross-referencing the audit-record
/// seqs registered via [`SloTracker::link_decision`].
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    sink: AlertSink,
    /// Trailing observations `(minute, bad, total)` covering the slow
    /// window (older entries are evicted).
    window: VecDeque<(u64, f64, f64)>,
    first_minute: Option<u64>,
    cum_bad: f64,
    cum_total: f64,
    fast_firing: bool,
    slow_firing: bool,
    budget_fired: bool,
    alerts_fired: u64,
    /// Audit seqs of the most recent decisions, attached to fired
    /// alerts (bounded).
    recent_refs: VecDeque<u64>,
}

/// How many recent decision refs an alert carries.
const MAX_REFS: usize = 16;

impl SloTracker {
    /// A tracker for `spec`, alerting into `sink`.
    pub fn new(spec: SloSpec, sink: AlertSink) -> SloTracker {
        SloTracker {
            spec,
            sink,
            window: VecDeque::new(),
            first_minute: None,
            cum_bad: 0.0,
            cum_total: 0.0,
            fast_firing: false,
            slow_firing: false,
            budget_fired: false,
            alerts_fired: 0,
            recent_refs: VecDeque::new(),
        }
    }

    /// Register the audit seq of a decision now in effect; the most
    /// recent `MAX_REFS` are attached to any alert fired later.
    pub fn link_decision(&mut self, seq: u64) {
        if !self.sink.is_enabled() {
            return;
        }
        if self.recent_refs.len() >= MAX_REFS {
            self.recent_refs.pop_front();
        }
        self.recent_refs.push_back(seq);
    }

    /// Feed one observation at `minute`: `good` good units out of
    /// `total`. Returns the seq of the fast-window alert if one fired
    /// at this observation. No-op (a single branch) when the sink is
    /// disabled.
    pub fn record(&mut self, minute: u64, good: f64, total: f64) -> Option<u64> {
        if !self.sink.is_enabled() || total <= 0.0 {
            return None;
        }
        let bad = (total - good).max(0.0);
        let first = *self.first_minute.get_or_insert(minute);
        self.cum_bad += bad;
        self.cum_total += total;
        self.window.push_back((minute, bad, total));
        let keep_from = minute.saturating_sub(SLOW_WINDOW_MINUTES - 1);
        while self.window.front().map(|&(m, _, _)| m < keep_from).unwrap_or(false) {
            self.window.pop_front();
        }

        // Burn alerts stay armed-but-quiet until a full window of
        // stream has elapsed: a partial window inflates the bad
        // fraction (one bad minute at stream start is burn 100).
        let elapsed = minute.saturating_sub(first) + 1;
        let at_micros = minute.saturating_mul(60_000_000);
        let fast = self.burn_rate(FAST_WINDOW_MINUTES);
        let slow = self.burn_rate(SLOW_WINDOW_MINUTES);
        let mut fast_seq = None;
        if fast >= FAST_BURN_THRESHOLD && elapsed >= FAST_WINDOW_MINUTES {
            if !self.fast_firing {
                self.fast_firing = true;
                fast_seq = self.fire(
                    at_micros,
                    "fast_burn",
                    Severity::Critical,
                    fast,
                    FAST_WINDOW_MINUTES,
                );
            }
        } else {
            self.fast_firing = false;
        }
        if slow >= SLOW_BURN_THRESHOLD && elapsed >= SLOW_WINDOW_MINUTES {
            if !self.slow_firing {
                self.slow_firing = true;
                self.fire(at_micros, "slow_burn", Severity::Warning, slow, SLOW_WINDOW_MINUTES);
            }
        } else {
            self.slow_firing = false;
        }
        // Tolerance absorbs the f64 error in (1 − objective) × window.
        if !self.budget_fired && self.budget_remaining() <= 1e-9 {
            self.budget_fired = true;
            self.fire(at_micros, "budget_exhausted", Severity::Critical, fast, 0);
        }
        fast_seq
    }

    fn fire(
        &mut self,
        at_micros: u64,
        which: &str,
        severity: Severity,
        burn: f64,
        window_minutes: u64,
    ) -> Option<u64> {
        self.alerts_fired += 1;
        self.sink.emit(
            at_micros,
            &format!("slo.{}.{which}", self.spec.name),
            severity,
            format!(
                "{} burning at {burn:.1}× budget rate ({}% budget left)",
                self.spec.name,
                (self.budget_remaining().max(0.0) * 100.0).round()
            ),
            self.recent_refs.iter().copied().collect(),
            vec![
                ("burn_rate".to_owned(), FieldValue::F64(burn)),
                ("window_minutes".to_owned(), FieldValue::U64(window_minutes)),
                (
                    "budget_remaining".to_owned(),
                    FieldValue::F64(self.budget_remaining()),
                ),
                ("objective".to_owned(), FieldValue::F64(OBJECTIVE)),
            ],
        )
    }

    /// Burn rate over the trailing `window_minutes` ending at the last
    /// observation: `(bad / total) / (1 − objective)`; 0 with no data.
    pub fn burn_rate(&self, window_minutes: u64) -> f64 {
        let Some(&(last, _, _)) = self.window.back() else {
            return 0.0;
        };
        let from = last.saturating_sub(window_minutes.max(1) - 1);
        let (mut bad, mut total) = (0.0, 0.0);
        for &(m, b, t) in self.window.iter().rev() {
            if m < from {
                break;
            }
            bad += b;
            total += t;
        }
        let budget_rate = 1.0 - OBJECTIVE;
        if total <= 0.0 {
            0.0
        } else {
            (bad / total) / budget_rate
        }
    }

    /// Cumulative good fraction observed so far (1.0 with no data).
    pub fn availability(&self) -> f64 {
        if self.cum_total <= 0.0 {
            1.0
        } else {
            1.0 - self.cum_bad / self.cum_total
        }
    }

    /// Fraction of the error budget left (can go negative when blown):
    /// `1 − bad / ((1 − objective) × window_minutes)`.
    pub fn budget_remaining(&self) -> f64 {
        let budget = (1.0 - OBJECTIVE) * self.spec.window_minutes as f64;
        if budget <= 0.0 {
            return 0.0;
        }
        1.0 - self.cum_bad / budget
    }

    /// Alerts this tracker has fired.
    pub fn alerts_fired(&self) -> u64 {
        self.alerts_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec::paper_availability(7 * 24 * 60)
    }

    #[test]
    fn healthy_stream_fires_nothing() {
        let sink = AlertSink::new(64);
        let mut t = SloTracker::new(spec(), sink.clone());
        for minute in 0..1_000 {
            t.record(minute, 1.0, 1.0);
        }
        assert!(sink.is_empty());
        assert_eq!(t.availability(), 1.0);
        assert!((t.budget_remaining() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_burn_fires_deterministically_and_once_per_episode() {
        let sink = AlertSink::new(64);
        let mut t = SloTracker::new(spec(), sink.clone());
        for minute in 0..600 {
            t.record(minute, 1.0, 1.0);
        }
        // Total outage: burn over the 60-minute window crosses 14.4
        // once ⌈0.144 × 60⌉ = 9 bad minutes accumulate.
        let mut fired_at = None;
        for minute in 600..660 {
            if let Some(seq) = t.record(minute, 0.0, 1.0) {
                fired_at = Some((minute, seq));
                break;
            }
        }
        let (minute, _) = fired_at.expect("fast burn fires");
        assert_eq!(minute, 608, "9th bad minute of the fast window");
        // Still burning: no duplicate alert.
        for minute in 609..660 {
            assert_eq!(t.record(minute, 0.0, 1.0), None);
        }
        let fast: Vec<_> = sink
            .snapshot()
            .into_iter()
            .filter(|a| a.monitor == "slo.availability.fast_burn")
            .collect();
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].at_micros, 608 * 60_000_000);
        assert_eq!(fast[0].severity, Severity::Critical);
    }

    #[test]
    fn slow_burn_needs_a_sustained_deficit() {
        let sink = AlertSink::new(64);
        let mut t = SloTracker::new(spec(), sink.clone());
        // 8 bad minutes then recovery: under both thresholds' windows.
        for minute in 0..8 {
            t.record(minute, 0.0, 1.0);
        }
        for minute in 8..360 {
            t.record(minute, 1.0, 1.0);
        }
        assert!(
            sink.snapshot()
                .iter()
                .all(|a| a.monitor != "slo.availability.slow_burn"),
            "brief blip never tickets"
        );
        // A sustained 10%-bad stream crosses the slow threshold
        // (burn 10 ≥ 6) once enough of the window is bad.
        let mut t2 = SloTracker::new(spec(), AlertSink::new(64).clone());
        let sink2 = t2.sink.clone();
        for minute in 0..3_600 {
            let good = if minute % 10 == 0 { 0.0 } else { 1.0 };
            t2.record(minute, good, 1.0);
        }
        assert!(sink2
            .snapshot()
            .iter()
            .any(|a| a.monitor == "slo.availability.slow_burn"));
    }

    #[test]
    fn alerts_carry_linked_decisions() {
        let sink = AlertSink::new(64);
        let mut t = SloTracker::new(spec(), sink.clone());
        for seq in 1..=20 {
            t.link_decision(seq);
        }
        for minute in 0..60 {
            t.record(minute, 0.0, 1.0);
        }
        let alert = &sink.snapshot()[0];
        assert_eq!(alert.audit_refs.len(), MAX_REFS);
        assert_eq!(*alert.audit_refs.last().unwrap(), 20);
    }

    #[test]
    fn budget_accounting_is_exact() {
        let sink = AlertSink::new(1024);
        let mut t = SloTracker::new(SloSpec::paper_availability(1_000), sink.clone());
        // Budget = 10 bad minutes. Spend 5: half left.
        for minute in 0..5 {
            t.record(minute, 0.0, 1.0);
        }
        assert!((t.budget_remaining() - 0.5).abs() < 1e-12);
        for minute in 5..10 {
            t.record(minute, 0.0, 1.0);
        }
        assert!(t.budget_remaining() <= 1e-9);
        assert!(sink
            .snapshot()
            .iter()
            .any(|a| a.monitor == "slo.availability.budget_exhausted"));
        assert!((t.availability() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_sink_short_circuits() {
        let mut t = SloTracker::new(spec(), AlertSink::disabled());
        for minute in 0..100 {
            assert_eq!(t.record(minute, 0.0, 1.0), None);
        }
        // Nothing accumulated: the disabled path does no bookkeeping.
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.alerts_fired(), 0);
    }
}
