//! The decision audit log: every bid selection and every repair action
//! recorded as a versioned structured record in a bounded [`Log`], so a
//! fired alert (see [`crate::monitor`]) can be cross-referenced to the
//! decisions that preceded it. Export is JSON lines via
//! [`AuditRecord::to_json`] and [`crate::json_lines`].

use crate::json;
use crate::log::Log;

/// Version stamped into every serialized audit record; bump on any
/// breaking change to [`AuditRecord::to_json`].
///
/// v2: `bid_selection` gained `instance_type` and `capacity_weight`
/// (heterogeneous pools), and the `scale_decision` kind was added (the
/// load-driven auto-scaler).
///
/// v3: the `migration` kind was added (the proactive-migration
/// controller of the capacity-reclaim era).
pub const AUDIT_SCHEMA_VERSION: u32 = 3;

/// What kind of decision a record captures.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditKind {
    /// One pool's bid within a bidding decision (boundary or repair
    /// rebid).
    BidSelection {
        /// Zone label (e.g. `us-east-1a`).
        zone: String,
        /// Instance-type pool within the zone (API name, e.g.
        /// `m1.small`).
        instance_type: String,
        /// Serving strength of one replica in this pool relative to the
        /// baseline type.
        capacity_weight: f64,
        /// The bid, in dollars per hour.
        bid_dollars: f64,
        /// Spot price at decision time, dollars per hour.
        spot_price_dollars: f64,
        /// Model-predicted availability of the instance over the
        /// decision horizon (`1 − FP`); negative when no model view was
        /// available.
        predicted_availability: f64,
        /// Cost upper bound this bid contributes for the horizon,
        /// dollars (bid × horizon hours).
        predicted_cost_dollars: f64,
        /// Fingerprint of the frozen kernel the prediction came from
        /// (0 when untrained).
        kernel_id: u64,
        /// Whether the decision round was served from the bid-grid FP
        /// cache (no fresh forecast work).
        fp_cache_hit: bool,
        /// Whether the spot request was granted.
        granted: bool,
    },
    /// One repair-controller action.
    RepairAction {
        /// What the controller did: `rebid`, `backoff`,
        /// `on_demand_top_up`, `budget_exhausted`, or `too_late`.
        action: String,
        /// Zone acted on (the on-demand zone for top-ups; empty for
        /// fleet-wide actions like backoff).
        zone: String,
        /// Market minute of the out-of-bid death that triggered the
        /// repair pass.
        trigger_death_minute: u64,
        /// The replacement bid in dollars per hour (0 for non-launch
        /// actions).
        bid_dollars: f64,
        /// Billing delta committed by the action, dollars (the hourly
        /// on-demand rate for top-ups, the bid upper bound for spot
        /// replacements, 0 otherwise).
        billing_delta_dollars: f64,
    },
    /// One proactive-migration action taken on an interruption notice
    /// (capacity-reclaim era).
    Migration {
        /// What the controller did: `drained` (replacement up before the
        /// deadline), `late_drain` (replacement launched but missed the
        /// deadline), `no_pool` (no diversified pool available),
        /// `no_grant` (the declared price cap did not grant).
        action: String,
        /// Zone of the instance under notice.
        from_zone: String,
        /// Zone the replacement launched in (empty when none launched).
        to_zone: String,
        /// Market minute the controller acted at (the notice or the
        /// earlier rebalance recommendation it chose to act on).
        notice_minute: u64,
        /// Market minute the reclamation lands.
        deadline_minute: u64,
        /// The replacement's declared price cap in dollars per hour (0
        /// when none launched).
        bid_dollars: f64,
    },
    /// One auto-scaler re-targeting of the fleet's capacity-weighted
    /// strength.
    ScaleDecision {
        /// What the controller did: `scale_out`, `scale_in`, or `hold`.
        action: String,
        /// Why: `demand_exceeds_target`, `slo_burn`,
        /// `sustained_headroom`, or `within_band`.
        reason: String,
        /// The strength target before this decision.
        from_strength: u64,
        /// The strength target after this decision.
        to_strength: u64,
        /// The demand (in strength units) forecast for the upcoming
        /// interval.
        demand_strength: f64,
        /// The availability observed over the interval that just ended
        /// (1.0 before the first interval completes).
        observed_availability: f64,
    },
}

impl AuditKind {
    /// The record's `kind` tag in JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AuditKind::BidSelection { .. } => "bid_selection",
            AuditKind::RepairAction { .. } => "repair_action",
            AuditKind::Migration { .. } => "migration",
            AuditKind::ScaleDecision { .. } => "scale_decision",
        }
    }
}

/// One audit-log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Monotonic sequence number within the log (starts at 1); alerts
    /// reference these in `audit_refs`.
    pub seq: u64,
    /// Market minute the decision was made at.
    pub at_minute: u64,
    /// The decision itself.
    pub kind: AuditKind,
}

impl AuditRecord {
    /// The record as one JSON object (a valid JSON-lines record),
    /// carrying an explicit `schema_version`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema_version\":{AUDIT_SCHEMA_VERSION},\"seq\":{},\"at_minute\":{},\"kind\":\"{}\"",
            self.seq,
            self.at_minute,
            self.kind.label()
        ));
        match &self.kind {
            AuditKind::BidSelection {
                zone,
                instance_type,
                capacity_weight,
                bid_dollars,
                spot_price_dollars,
                predicted_availability,
                predicted_cost_dollars,
                kernel_id,
                fp_cache_hit,
                granted,
            } => {
                out.push_str(",\"zone\":");
                json::push_str_lit(&mut out, zone);
                out.push_str(",\"instance_type\":");
                json::push_str_lit(&mut out, instance_type);
                out.push_str(",\"capacity_weight\":");
                json::push_f64(&mut out, *capacity_weight);
                out.push_str(",\"bid_dollars\":");
                json::push_f64(&mut out, *bid_dollars);
                out.push_str(",\"spot_price_dollars\":");
                json::push_f64(&mut out, *spot_price_dollars);
                out.push_str(",\"predicted_availability\":");
                json::push_f64(&mut out, *predicted_availability);
                out.push_str(",\"predicted_cost_dollars\":");
                json::push_f64(&mut out, *predicted_cost_dollars);
                out.push_str(&format!(
                    ",\"kernel_id\":{kernel_id},\"fp_cache_hit\":{fp_cache_hit},\"granted\":{granted}"
                ));
            }
            AuditKind::RepairAction {
                action,
                zone,
                trigger_death_minute,
                bid_dollars,
                billing_delta_dollars,
            } => {
                out.push_str(",\"action\":");
                json::push_str_lit(&mut out, action);
                out.push_str(",\"zone\":");
                json::push_str_lit(&mut out, zone);
                out.push_str(&format!(",\"trigger_death_minute\":{trigger_death_minute}"));
                out.push_str(",\"bid_dollars\":");
                json::push_f64(&mut out, *bid_dollars);
                out.push_str(",\"billing_delta_dollars\":");
                json::push_f64(&mut out, *billing_delta_dollars);
            }
            AuditKind::Migration {
                action,
                from_zone,
                to_zone,
                notice_minute,
                deadline_minute,
                bid_dollars,
            } => {
                out.push_str(",\"action\":");
                json::push_str_lit(&mut out, action);
                out.push_str(",\"from_zone\":");
                json::push_str_lit(&mut out, from_zone);
                out.push_str(",\"to_zone\":");
                json::push_str_lit(&mut out, to_zone);
                out.push_str(&format!(
                    ",\"notice_minute\":{notice_minute},\"deadline_minute\":{deadline_minute}"
                ));
                out.push_str(",\"bid_dollars\":");
                json::push_f64(&mut out, *bid_dollars);
            }
            AuditKind::ScaleDecision {
                action,
                reason,
                from_strength,
                to_strength,
                demand_strength,
                observed_availability,
            } => {
                out.push_str(",\"action\":");
                json::push_str_lit(&mut out, action);
                out.push_str(",\"reason\":");
                json::push_str_lit(&mut out, reason);
                out.push_str(&format!(
                    ",\"from_strength\":{from_strength},\"to_strength\":{to_strength}"
                ));
                out.push_str(",\"demand_strength\":");
                json::push_f64(&mut out, *demand_strength);
                out.push_str(",\"observed_availability\":");
                json::push_f64(&mut out, *observed_availability);
            }
        }
        out.push('}');
        out
    }
}

/// The decision audit log: a [`Log`] of [`AuditRecord`]s.
pub type AuditLog = Log<AuditRecord>;

impl Log<AuditRecord> {
    /// Default capacity — sized for a full multi-week replay (hundreds
    /// of boundary decisions × fleet size, plus repairs).
    pub(crate) const DEFAULT_CAPACITY: usize = 16_384;

    /// Append a record; returns its sequence number, or `None` when
    /// disabled.
    pub fn record(&self, at_minute: u64, kind: AuditKind) -> Option<u64> {
        self.push(|seq| AuditRecord {
            seq,
            at_minute,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid_kind() -> AuditKind {
        AuditKind::BidSelection {
            zone: "us-east-1a".into(),
            instance_type: "m1.small".into(),
            capacity_weight: 1.0,
            bid_dollars: 0.0105,
            spot_price_dollars: 0.0085,
            predicted_availability: 0.9931,
            predicted_cost_dollars: 0.063,
            kernel_id: 0xBEEF,
            fp_cache_hit: true,
            granted: true,
        }
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let log = AuditLog::new(2);
        for minute in 0..3 {
            log.record(minute, bid_kind());
        }
        // `record` stamps the log's sequence number into each record,
        // and the numbers keep counting across evictions.
        let records = log.snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!((records[0].seq, records[0].at_minute), (2, 1));
        assert_eq!((records[1].seq, records[1].at_minute), (3, 2));
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = AuditLog::disabled();
        assert_eq!(log.record(0, bid_kind()), None);
        assert!(log.is_empty());
    }

    #[test]
    fn json_carries_schema_version_and_kind() {
        let log = AuditLog::new(8);
        log.record(10_080, bid_kind());
        log.record(
            10_141,
            AuditKind::RepairAction {
                action: "on_demand_top_up".into(),
                zone: "us-west-1a".into(),
                trigger_death_minute: 10_135,
                bid_dollars: 0.0,
                billing_delta_dollars: 0.06,
            },
        );
        log.record(
            10_240,
            AuditKind::Migration {
                action: "drained".into(),
                from_zone: "us-east-1a".into(),
                to_zone: "us-west-1a".into(),
                notice_minute: 10_230,
                deadline_minute: 10_244,
                bid_dollars: 0.012,
            },
        );
        log.record(
            10_440,
            AuditKind::ScaleDecision {
                action: "scale_out".into(),
                reason: "demand_exceeds_target".into(),
                from_strength: 5,
                to_strength: 9,
                demand_strength: 8.4,
                observed_availability: 0.997,
            },
        );
        let jsonl = crate::json_lines(&log.snapshot(), AuditRecord::to_json);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"schema_version\":3,\"seq\":1,"));
        assert!(lines[0].contains("\"kind\":\"bid_selection\""));
        assert!(lines[0].contains("\"instance_type\":\"m1.small\""));
        assert!(lines[0].contains("\"capacity_weight\":1"));
        assert!(lines[0].contains("\"fp_cache_hit\":true"));
        assert!(lines[1].contains("\"kind\":\"repair_action\""));
        assert!(lines[1].contains("\"trigger_death_minute\":10135"));
        assert!(lines[2].contains("\"kind\":\"migration\""));
        assert!(lines[2].contains("\"action\":\"drained\""));
        assert!(lines[2].contains("\"from_zone\":\"us-east-1a\",\"to_zone\":\"us-west-1a\""));
        assert!(lines[2].contains("\"notice_minute\":10230,\"deadline_minute\":10244"));
        assert!(lines[3].contains("\"kind\":\"scale_decision\""));
        assert!(lines[3].contains("\"from_strength\":5,\"to_strength\":9"));
    }
}
