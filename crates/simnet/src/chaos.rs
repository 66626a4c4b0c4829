//! Seeded fault-injection schedules.
//!
//! A [`ChaosSchedule`] is a time-ordered list of fault actions — crashes,
//! restarts, partitions, link-level chaos, clock skew — generated as a pure
//! function of a `u64` seed and a [`ChaosPlan`]. The schedule is plain
//! data: the simulator executes the network-level actions and the service
//! harnesses (which know how to build fresh actors) execute crash/restart,
//! so any failing run reproduces byte-for-byte from its printed seed.
//!
//! The out-of-bid terminations of the spot-market replay produce the same
//! data type (see `replay::chaos`), which lets the protocol simulations be
//! driven by market-derived death schedules instead of purely random ones.

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::network::LinkChaos;
use crate::sim::NodeId;
use crate::time::SimTime;

/// One fault-injection action.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosAction {
    /// Crash a node (state destroyed, timers cancelled, in-flight messages
    /// to it dropped on arrival). No-op if the node is already down.
    Crash(NodeId),
    /// Restart a crashed node with a fresh actor (the harness supplies the
    /// actor; recovery is the protocol's business). No-op if it is up.
    Restart(NodeId),
    /// Install a network partition; each group is one island. Harnesses
    /// add unlisted nodes (e.g. clients) to every group so only the listed
    /// replicas are actually separated.
    Partition(Vec<Vec<NodeId>>),
    /// Heal any partition.
    Heal,
    /// Enable link-level chaos: extra drops, duplicates, delay spikes.
    SetLinkChaos(LinkChaos),
    /// Disable link-level chaos.
    ClearLinkChaos,
    /// Skew a node's actor-visible clock forward by the given millis.
    ClockSkew(NodeId, u64),
}

impl ChaosAction {
    /// Short lowercase tag for pretty-printing and digests.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            ChaosAction::Crash(_) => "crash",
            ChaosAction::Restart(_) => "restart",
            ChaosAction::Partition(_) => "partition",
            ChaosAction::Heal => "heal",
            ChaosAction::SetLinkChaos(_) => "link-chaos",
            ChaosAction::ClearLinkChaos => "link-clear",
            ChaosAction::ClockSkew(_, _) => "clock-skew",
        }
    }
}

/// A timestamped fault action.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosEvent {
    /// When the action fires (virtual time).
    pub at: SimTime,
    /// The action.
    pub action: ChaosAction,
}

/// Clock-skew events draw their skew from `[0, MAX_SKEW_MS]`.
const MAX_SKEW_MS: u64 = 2_000;

/// Generation parameters for a random schedule.
///
/// The generator tracks which nodes it has crashed so far and never takes
/// more than `max_down` of the `nodes` replicas down at once — the quorum
/// margin the service is supposed to tolerate stays intact — and it ends
/// every schedule with heal/clear/restart-everything events at `duration`,
/// so the cluster is whole again: *safety and eventual progress are both
/// fair assertions* against a generated schedule. Link-chaos toggles
/// (drop/duplicate/delay spikes) and clock skews are always in the draw.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Replica count; fault targets are `NodeId(0..nodes)`.
    pub nodes: usize,
    /// Schedule horizon: all events land in `[0, duration)`.
    pub duration: SimTime,
    /// Number of fault events to draw.
    pub events: usize,
    /// Maximum concurrently-crashed replicas.
    pub max_down: usize,
    /// Allow partition/heal events.
    pub partitions: bool,
}

impl ChaosPlan {
    /// A plan matching the paper's lock service: five replicas, majority
    /// quorum, at most two concurrently dead (Def. 1 margin).
    pub fn lock_service(duration: SimTime, events: usize) -> Self {
        ChaosPlan {
            nodes: 5,
            duration,
            events,
            max_down: 2,
            partitions: true,
        }
    }

    /// A plan matching θ(3,5) RS-Paxos storage: five replicas, quorum 4,
    /// at most one concurrently dead (Def. 2 margin).
    pub fn storage_service(duration: SimTime, events: usize) -> Self {
        ChaosPlan {
            nodes: 5,
            duration,
            events,
            max_down: 1,
            partitions: false, // θ(3,5) tolerates 1: a 2|3 split stalls it
        }
    }
}

/// A deterministic, seed-reproducible fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    /// The seed the schedule was generated from (0 for derived schedules,
    /// e.g. market-replay deaths).
    pub seed: u64,
    /// Events in non-decreasing time order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn empty(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// Generate a schedule from `seed` under `plan`. Pure function of its
    /// arguments: the same `(seed, plan)` yields the same schedule on
    /// every platform (ChaCha8 + integer sampling only).
    pub fn generate(seed: u64, plan: &ChaosPlan) -> Self {
        assert!(plan.nodes >= 1, "need at least one node");
        assert!(plan.max_down < plan.nodes, "must keep one node alive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let horizon = plan.duration.as_millis().max(1);
        let mut times: Vec<u64> = (0..plan.events)
            .map(|_| rng.gen_range(0..horizon))
            .collect();
        times.sort_unstable();

        let mut down: Vec<NodeId> = Vec::new();
        let mut partitioned = false;
        let mut link_dirty = false;
        let mut events = Vec::with_capacity(plan.events + plan.nodes + 2);
        for at in times {
            let at = SimTime::from_millis(at);
            // Draw an action kind, retrying kinds that are currently
            // inapplicable (e.g. restart with nothing down). Bounded
            // retries keep generation total.
            let mut action = None;
            for _ in 0..8 {
                match rng.gen_range(0..6u32) {
                    0 | 1 if down.len() < plan.max_down => {
                        // Crash is twice as likely as any other kind: the
                        // paper's threat model is dominated by out-of-bid
                        // kills.
                        let up: Vec<NodeId> = (0..plan.nodes)
                            .map(NodeId)
                            .filter(|n| !down.contains(n))
                            .collect();
                        let victim = up[rng.gen_range(0..up.len())];
                        down.push(victim);
                        action = Some(ChaosAction::Crash(victim));
                    }
                    2 if !down.is_empty() => {
                        let idx = rng.gen_range(0..down.len());
                        let node = down.swap_remove(idx);
                        action = Some(ChaosAction::Restart(node));
                    }
                    3 if plan.partitions => {
                        if partitioned {
                            partitioned = false;
                            action = Some(ChaosAction::Heal);
                        } else {
                            // Random two-island split with both sides
                            // non-empty.
                            let cut = rng.gen_range(1..plan.nodes);
                            let mut ids: Vec<NodeId> = (0..plan.nodes).map(NodeId).collect();
                            // Fisher–Yates with the schedule RNG.
                            for i in (1..ids.len()).rev() {
                                let j = rng.gen_range(0..=i);
                                ids.swap(i, j);
                            }
                            let right = ids.split_off(cut);
                            partitioned = true;
                            action = Some(ChaosAction::Partition(vec![ids, right]));
                        }
                    }
                    4 => {
                        if link_dirty {
                            link_dirty = false;
                            action = Some(ChaosAction::ClearLinkChaos);
                        } else {
                            link_dirty = true;
                            action = Some(ChaosAction::SetLinkChaos(LinkChaos {
                                drop_pr: rng.gen_range(0..=10) as f64 / 100.0,
                                dup_pr: rng.gen_range(0..=10) as f64 / 100.0,
                                delay_pr: rng.gen_range(0..=20) as f64 / 100.0,
                                extra_delay_max: SimTime::from_millis(rng.gen_range(50..=800)),
                            }));
                        }
                    }
                    5 => {
                        let node = NodeId(rng.gen_range(0..plan.nodes));
                        let skew = rng.gen_range(0..=MAX_SKEW_MS);
                        action = Some(ChaosAction::ClockSkew(node, skew));
                    }
                    _ => continue,
                }
                break;
            }
            if let Some(action) = action {
                events.push(ChaosEvent { at, action });
            }
        }

        // Make the cluster whole again at `duration`.
        let at = plan.duration;
        if partitioned {
            events.push(ChaosEvent {
                at,
                action: ChaosAction::Heal,
            });
        }
        if link_dirty {
            events.push(ChaosEvent {
                at,
                action: ChaosAction::ClearLinkChaos,
            });
        }
        down.sort_unstable();
        for node in down {
            events.push(ChaosEvent {
                at,
                action: ChaosAction::Restart(node),
            });
        }

        ChaosSchedule { seed, events }
    }

    /// The schedule truncated to its first `n` events (same seed tag).
    pub(crate) fn prefix(&self, n: usize) -> Self {
        ChaosSchedule {
            seed: self.seed,
            events: self.events[..n.min(self.events.len())].to_vec(),
        }
    }

    /// Shrink a failing schedule to its minimal failing prefix: the
    /// shortest prefix for which `fails` still returns `true`.
    ///
    /// `fails` must be deterministic (run the simulation from scratch on
    /// each candidate — that is exactly what seeded schedules make cheap).
    /// Returns `None` when the full schedule does not fail.
    pub fn minimal_failing_prefix(
        &self,
        mut fails: impl FnMut(&ChaosSchedule) -> bool,
    ) -> Option<ChaosSchedule> {
        if !fails(self) {
            return None;
        }
        // Fault-dependent failures are not necessarily monotone in the
        // prefix length, so scan for the *first* failing prefix instead of
        // bisecting.
        for n in 0..self.events.len() {
            let candidate = self.prefix(n);
            if fails(&candidate) {
                return Some(candidate);
            }
        }
        Some(self.clone())
    }
}

impl fmt::Display for ChaosSchedule {
    /// A human-readable table, one event per line — what a failing chaos
    /// test prints next to the repro seed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos schedule seed={:#018x} ({} events)",
            self.seed,
            self.events.len()
        )?;
        for ev in &self.events {
            write!(f, "  {:>12} {:<10}", ev.at.to_string(), ev.action.tag())?;
            match &ev.action {
                ChaosAction::Crash(n) | ChaosAction::Restart(n) => writeln!(f, " {n}")?,
                ChaosAction::Partition(groups) => {
                    let sides: Vec<String> = groups
                        .iter()
                        .map(|g| {
                            let ids: Vec<String> = g.iter().map(NodeId::to_string).collect();
                            format!("{{{}}}", ids.join(","))
                        })
                        .collect();
                    writeln!(f, " {}", sides.join(" | "))?;
                }
                ChaosAction::Heal | ChaosAction::ClearLinkChaos => writeln!(f)?,
                ChaosAction::SetLinkChaos(c) => writeln!(
                    f,
                    " drop={:.2} dup={:.2} delay={:.2}≤{}ms",
                    c.drop_pr,
                    c.dup_pr,
                    c.delay_pr,
                    c.extra_delay_max.as_millis()
                )?,
                ChaosAction::ClockSkew(n, ms) => writeln!(f, " {n} +{ms}ms")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ChaosPlan {
        ChaosPlan::lock_service(SimTime::from_secs(60), 24)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosSchedule::generate(42, &plan());
        let b = ChaosSchedule::generate(42, &plan());
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(43, &plan());
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn events_are_time_ordered_and_bounded() {
        let s = ChaosSchedule::generate(7, &plan());
        let mut last = SimTime::ZERO;
        for ev in &s.events {
            assert!(ev.at >= last, "events out of order");
            assert!(ev.at <= SimTime::from_secs(60));
            last = ev.at;
        }
        assert!(!s.events.is_empty());
    }

    #[test]
    fn never_exceeds_max_down() {
        for seed in 0..50 {
            let s = ChaosSchedule::generate(seed, &plan());
            let mut down = 0usize;
            for ev in &s.events {
                match ev.action {
                    ChaosAction::Crash(_) => {
                        down += 1;
                        assert!(down <= 2, "seed {seed}: {down} down at once");
                    }
                    ChaosAction::Restart(_) => down = down.saturating_sub(1),
                    _ => {}
                }
            }
            assert_eq!(down, 0, "seed {seed}: the schedule's end must restart all");
        }
    }

    #[test]
    fn schedule_end_restores_the_network() {
        for seed in 0..50 {
            let s = ChaosSchedule::generate(seed, &plan());
            let mut partitioned = false;
            let mut chaotic = false;
            for ev in &s.events {
                match ev.action {
                    ChaosAction::Partition(_) => partitioned = true,
                    ChaosAction::Heal => partitioned = false,
                    ChaosAction::SetLinkChaos(_) => chaotic = true,
                    ChaosAction::ClearLinkChaos => chaotic = false,
                    _ => {}
                }
            }
            assert!(!partitioned && !chaotic, "seed {seed}: dirty at end");
        }
    }

    #[test]
    fn prefix_truncates() {
        let s = ChaosSchedule::generate(1, &plan());
        let p = s.prefix(3);
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[..], s.events[..3]);
        assert_eq!(s.prefix(10_000).events.len(), s.events.len());
    }

    #[test]
    fn shrink_finds_first_failing_prefix() {
        let s = ChaosSchedule::generate(5, &plan());
        // Synthetic failure: "fails" once the prefix contains ≥ 2 crashes.
        let crashes =
            |s: &ChaosSchedule| s.events.iter().filter(|e| e.action.tag() == "crash").count();
        let min = s.minimal_failing_prefix(|p| crashes(p) >= 2).unwrap();
        assert_eq!(crashes(&min), 2);
        assert_eq!(
            min.events.last().map(|e| e.action.tag()),
            Some("crash"),
            "minimal prefix ends at the failure-inducing event"
        );
        // A predicate the full schedule doesn't satisfy shrinks to None.
        assert!(s.minimal_failing_prefix(|_| false).is_none());
    }

    #[test]
    fn storage_plan_keeps_quorum_margin() {
        let p = ChaosPlan::storage_service(SimTime::from_secs(30), 40);
        for seed in 0..20 {
            let s = ChaosSchedule::generate(seed, &p);
            let mut down = 0usize;
            for ev in &s.events {
                match ev.action {
                    ChaosAction::Crash(_) => {
                        down += 1;
                        assert!(down <= 1, "θ(3,5) margin violated");
                    }
                    ChaosAction::Restart(_) => down = down.saturating_sub(1),
                    ChaosAction::Partition(_) => panic!("no partitions for storage"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn display_prints_every_event() {
        let s = ChaosSchedule::generate(9, &plan());
        let text = s.to_string();
        assert!(text.contains("seed=0x"));
        // One header line plus one line per event.
        assert_eq!(text.lines().count(), 1 + s.events.len());
    }
}
