//! Market-derived fault schedules: out-of-bid terminations as chaos.
//!
//! The market-level replay ([`crate::lifecycle`]) records every instance's
//! life as an [`InstanceRecord`](crate::InstanceRecord). This module
//! converts those records into a [`ChaosSchedule`] for a protocol
//! cluster, so the *timing pattern* of
//! real out-of-bid churn — correlated kills at price spikes, replacements
//! booting minutes later — drives the Paxos/RS-Paxos safety checkers
//! instead of (or alongside) purely random schedules.
//!
//! Time mapping is [`crate::service_level`]'s: one market minute is one
//! simulated second, so sub-second protocol dynamics (elections, lease
//! renewal) play out between consecutive market events.

use simnet::{ChaosAction, ChaosEvent, ChaosSchedule, NodeId, SimTime};
use spot_market::{Termination, Zone};

use crate::results::ReplayResult;
use crate::service_level::to_sim;

/// Derive a crash/restart schedule for a `slots`-replica protocol cluster
/// from a market replay's instance records.
///
/// Zones are assigned to replica slots in order of first appearance
/// (wrapping when the replay used more zones than there are slots). An
/// out-of-bid death ([`Termination::Provider`]) inside the window becomes
/// a [`ChaosAction::Crash`] of that zone's slot; a later instance booting
/// in the zone becomes the matching [`ChaosAction::Restart`]. Slots still
/// down at the end of the window are restarted at the window boundary, so
/// post-schedule progress can always be asserted. Graceful boundary
/// retirements ([`Termination::User`]) are not faults and are ignored.
///
/// The result carries `seed = 0`: it is derived data, reproducible from
/// the replay's own inputs rather than from a chaos seed.
pub fn market_fault_schedule(
    result: &ReplayResult,
    eval_start: u64,
    slots: usize,
) -> ChaosSchedule {
    assert!(slots >= 1, "need at least one replica slot");
    let mut zones: Vec<Zone> = Vec::new();

    // Raw (minute, is_crash, slot) stream. Restarts sort before crashes at
    // the same minute so a kill-and-replace minute nets out to "down".
    let mut raw: Vec<(u64, bool, usize)> = Vec::new();
    for rec in &result.instances {
        if !zones.contains(&rec.zone) {
            zones.push(rec.zone);
        }
        let index = zones.iter().position(|&z| z == rec.zone);
        let slot = index.unwrap_or_default() % slots;
        if rec.termination == Termination::Provider && rec.ended_at >= eval_start {
            raw.push((rec.ended_at, true, slot));
        }
        if rec.running_from > eval_start {
            raw.push((rec.running_from, false, slot));
        }
    }
    raw.sort_by_key(|&(minute, is_crash, slot)| (minute, is_crash, slot));

    let mut down = vec![false; slots];
    let mut events = Vec::new();
    for (minute, is_crash, slot) in raw {
        if is_crash != down[slot] {
            down[slot] = is_crash;
            let at = to_sim(minute.saturating_sub(eval_start));
            let action = if is_crash {
                ChaosAction::Crash(NodeId(slot))
            } else {
                ChaosAction::Restart(NodeId(slot))
            };
            events.push(ChaosEvent { at, action });
        }
    }

    let end = to_sim(result.window_minutes);
    for slot in (0..slots).filter(|&s| down[s]) {
        let action = ChaosAction::Restart(NodeId(slot));
        events.push(ChaosEvent { at: end, action });
    }

    ChaosSchedule { seed: 0, events }
}

/// The longest idle stretch [`capacity_fault_schedule`] keeps between
/// consecutive fault events, in simulated seconds. Capacity reclamations
/// are sparse (a handful per pool-week), so the raw minute-per-second
/// mapping would leave the protocol cluster idling for simulated hours
/// between correlated bursts.
pub const CAPACITY_MAX_IDLE_SECS: u64 = 120;

/// [`market_fault_schedule`] for capacity-era replays: the same
/// crash/restart derivation — under [`spot_market::BidEra::CapacityReclaim`]
/// every [`Termination::Provider`] record is a capacity reclamation, and a
/// migration replacement's boot becomes the Restart that *precedes* its
/// correlated Crash whenever the drain beat the deadline — but with idle
/// gaps between events compressed to at most [`CAPACITY_MAX_IDLE_SECS`]
/// simulated seconds. Relative order is preserved exactly, and same-minute
/// correlated crashes (whole-zone capacity crunches) stay simultaneous, so
/// the safety checkers see the full notice → drain → view change → kill
/// sequence without hours of dead air.
pub fn capacity_fault_schedule(
    result: &ReplayResult,
    eval_start: u64,
    slots: usize,
) -> ChaosSchedule {
    let base = market_fault_schedule(result, eval_start, slots);
    let mut sim_ms = 0u64;
    let mut prev_raw_ms = 0u64;
    let events = base
        .events
        .into_iter()
        .map(|ev| {
            let raw_ms = ev.at.as_millis();
            let gap = raw_ms
                .saturating_sub(prev_raw_ms)
                .min(CAPACITY_MAX_IDLE_SECS * 1_000);
            prev_raw_ms = raw_ms;
            sim_ms += gap;
            ChaosEvent {
                at: SimTime::from_millis(sim_ms),
                action: ev.action,
            }
        })
        .collect();
    ChaosSchedule { seed: 0, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Replay, ReplayConfig};
    use jupiter::{ExtraStrategy, ServiceSpec};
    use spot_market::{InstanceType, Market, MarketConfig};

    fn replay() -> (ReplayResult, u64) {
        let mut cfg = MarketConfig::paper(21, 2 * 7 * 24 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M1Small];
        let market = Market::generate(cfg);
        let spec = ServiceSpec::lock_service();
        let eval_start = 7 * 24 * 60;
        let config = ReplayConfig::new(eval_start, 14 * 24 * 60, 3);
        // A deliberately low bid premium so out-of-bid kills actually occur.
        (
            Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.02)),
            eval_start,
        )
    }

    #[test]
    fn schedule_alternates_and_ends_all_up() {
        let (result, eval_start) = replay();
        let schedule = market_fault_schedule(&result, eval_start, 5);
        let mut down = [false; 5];
        let mut last = SimTime::ZERO;
        for ev in &schedule.events {
            assert!(ev.at >= last, "events out of order");
            last = ev.at;
            match ev.action {
                ChaosAction::Crash(n) => {
                    assert!(!down[n.0], "crash of a down slot");
                    down[n.0] = true;
                }
                ChaosAction::Restart(n) => {
                    assert!(down[n.0], "restart of an up slot");
                    down[n.0] = false;
                }
                ref other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(down.iter().all(|d| !d), "slots left down at window end");
        assert!(
            schedule
                .events
                .iter()
                .all(|e| e.at <= to_sim(result.window_minutes)),
            "event beyond the window"
        );
    }

    #[test]
    fn out_of_bid_kills_appear_as_crashes() {
        let (result, eval_start) = replay();
        let kills = result
            .instances
            .iter()
            .filter(|r| r.termination == Termination::Provider && r.ended_at >= eval_start)
            .count();
        assert!(kills > 0, "fixture must produce out-of-bid churn");
        let schedule = market_fault_schedule(&result, eval_start, 5);
        let crashes = schedule
            .events
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Crash(_)))
            .count();
        // Same-slot collisions can merge kills, never invent them.
        assert!(
            crashes >= 1 && crashes <= kills,
            "crashes={crashes} kills={kills}"
        );
    }

    #[test]
    fn derivation_is_deterministic() {
        let (result, eval_start) = replay();
        let a = market_fault_schedule(&result, eval_start, 5);
        let b = market_fault_schedule(&result, eval_start, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn capacity_schedule_compresses_gaps_and_preserves_order() {
        use crate::repair::RepairConfig;
        use spot_market::BidEra;
        let mut cfg = MarketConfig::paper(21, 2 * 7 * 24 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M1Small];
        let market = Market::generate(cfg);
        let spec = ServiceSpec::lock_service();
        let eval_start = 7 * 24 * 60;
        let config =
            ReplayConfig::new(eval_start, 14 * 24 * 60, 3).with_era(BidEra::CapacityReclaim);
        let result = Replay::new(&market, &spec, config)
            .repair(RepairConfig::migrate())
            .run(ExtraStrategy::new(0, 0.2));
        let raw = market_fault_schedule(&result, eval_start, 5);
        let compressed = capacity_fault_schedule(&result, eval_start, 5);
        // Same action sequence, only the clock is compressed.
        assert_eq!(raw.events.len(), compressed.events.len());
        assert!(!compressed.events.is_empty(), "capacity churn must appear");
        let mut prev = SimTime::ZERO;
        for (r, c) in raw.events.iter().zip(&compressed.events) {
            assert_eq!(r.action, c.action);
            assert!(c.at >= prev, "compressed events out of order");
            assert!(
                c.at.saturating_sub(prev).as_secs() <= CAPACITY_MAX_IDLE_SECS,
                "gap beyond the idle cap"
            );
            assert!(c.at <= r.at, "compression never delays an event");
            prev = c.at;
        }
        // Same-minute correlated events stay simultaneous.
        for (rs, cs) in raw.events.windows(2).zip(compressed.events.windows(2)) {
            if rs[0].at == rs[1].at {
                assert_eq!(cs[0].at, cs[1].at);
            }
        }
    }
}
