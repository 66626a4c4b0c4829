//! Service-level replay: run the *actual* Paxos lock service and RS-Paxos
//! store on the fleet the market replay billed.
//!
//! The market-level replay ([`crate::lifecycle`]) accounts availability by
//! quorum arithmetic, as the paper's 11-week trace replays do. This module
//! closes the loop for the feasibility claim (§5.4) without a bidding loop
//! of its own: each driver runs [`Replay`] once (repair off, bidding era)
//! and plays the [`crate::InstanceRecord`]s it returns against a live
//! cluster on the simulated network. With repair off every launch is at a
//! decision, 15 minutes before its boundary, and has booted by it; every
//! `Termination::User` inside the window is a boundary retirement and
//! every `Termination::Provider` an out-of-bid kill. The lock service
//! admits a boundary's joiners and drops its retirees and the replicas
//! killed since the last boundary in one Paxos **view change**, kills
//! crash live replicas mid-protocol, and a closed-loop client measures
//! request-level behaviour through every failover — on exactly the fleet
//! the figures bill.
//!
//! Time mapping (`to_sim`): one market minute = one simulated second, so
//! a 12-hour market window runs as a 43 200 s protocol simulation. Leader
//! failovers (~1–2 s simulated) therefore correspond to one or two market
//! minutes of measured unavailability — the same order as real Chubby
//! failovers.

use std::collections::BTreeMap;

use jupiter::{BiddingStrategy, ServiceSpec};
use obs::{CausalTrace, Obs, SloSpec, SloTracker};
use paxos::{
    ClientOp, Cluster, CompletedOp, LockCmd, LockService, PaxosNode, ReplicaConfig, Service,
};
use simnet::{NetworkConfig, NodeId, SimTime};
use spot_market::{Market, Termination};

use crate::lifecycle::{Replay, ReplayConfig};

/// Latency bound a request must meet to count as served (simulated
/// milliseconds).
pub(crate) const SLA_MS: u64 = 5_000;

/// Service-level replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceReplayConfig {
    /// Market minute the evaluation starts at (history before it trains
    /// the models).
    pub eval_start: u64,
    /// Evaluated market minutes (kept short: this runs a full protocol
    /// simulation).
    pub window_minutes: u64,
    /// Bidding interval in hours.
    pub interval_hours: u64,
    /// Simulation seed.
    pub seed: u64,
}

/// What the service-level replay observed.
#[derive(Clone, Debug)]
pub struct ServiceReplayOutcome {
    /// Lock operations completed.
    pub ops_completed: usize,
    /// Lock operations still outstanding at the end.
    pub ops_unfinished: usize,
    /// Mean completion latency (simulated ms).
    pub mean_latency_ms: f64,
    /// Worst completion latency (simulated ms).
    pub max_latency_ms: u64,
    /// Fraction of issued ops answered within the SLA bound (an op still
    /// outstanding at the end is a miss).
    pub sla_fraction: f64,
    /// Membership reconfigurations executed.
    pub reconfigs: usize,
    /// Out-of-bid crashes injected.
    pub crashes: usize,
    /// Length of the agreed log prefix across live replicas at the end.
    pub agreed_log_len: usize,
}

/// Market minutes past the window start as simulated time: one market
/// minute is one simulated second (shared with [`crate::chaos`]).
pub(crate) fn to_sim(minute_rel: u64) -> SimTime {
    SimTime::from_secs(minute_rel)
}

/// One change to the billed fleet. The derived order is the order in
/// which changes sharing a market minute apply: a retiree leaves and a
/// replacement boots before the boundary's view change, and a kill at a
/// boundary minute lands after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    /// Record `i` is terminated by the user at its boundary.
    Retire(usize),
    /// Record `i` has booted.
    Boot(usize),
    /// A bidding-interval boundary.
    Boundary,
    /// Record `i` is killed out-of-bid.
    Kill(usize),
}

/// Replay `strategy` for `spec` over the window and return the billed
/// fleet: the records running at the window start, then every later
/// change inside the window in `(minute, change)` order. The replay runs
/// unobserved: it stamps market-minute time into the clock it is given,
/// and the caller's `Obs` carries this run's sim-millisecond spans.
fn billed_fleet<S: BiddingStrategy>(
    market: &Market,
    spec: &ServiceSpec,
    strategy: S,
    config: ServiceReplayConfig,
) -> (Vec<usize>, Vec<(u64, Change)>) {
    let (start, end) = (config.eval_start, config.eval_start + config.window_minutes);
    let window = ReplayConfig::new(start, end, config.interval_hours);
    let result = Replay::new(market, spec, window).run(strategy);
    let boundaries = result.intervals[1..]
        .iter()
        .map(|iv| (iv.start, Change::Boundary));
    let mut changes: Vec<(u64, Change)> = boundaries.collect();
    for (i, rec) in result.instances.iter().enumerate() {
        if rec.running_from < rec.ended_at {
            changes.push((rec.running_from.max(start), Change::Boot(i)));
        }
        match rec.termination {
            _ if rec.ended_at >= end => {}
            Termination::User => changes.push((rec.ended_at, Change::Retire(i))),
            Termination::Provider => changes.push((rec.ended_at, Change::Kill(i))),
        }
    }
    changes.sort_unstable();
    let first: Vec<usize> = changes
        .iter()
        .map_while(|&(minute, change)| match change {
            Change::Boot(i) if minute == start => Some(i),
            _ => None,
        })
        .collect();
    changes.drain(..first.len());
    (first, changes)
}

/// Apply each of `changes` to `cluster` at its minute, run to the window
/// end, drain `client` (bounded) and return its history. Time advances
/// through [`Cluster::run_until_drained`], so a service that stops
/// answering raises the harness's `watchdog.liveness` alert at its sim
/// time instead of stalling silently.
fn play<S: Service>(
    cluster: &mut Cluster<S>,
    client: NodeId,
    config: ServiceReplayConfig,
    changes: Vec<(u64, Change)>,
    mut apply: impl FnMut(&mut Cluster<S>, u64, Change),
) -> Vec<CompletedOp<S>> {
    let run_to = |cluster: &mut Cluster<S>, minute: u64| {
        let at = to_sim(minute - config.eval_start);
        cluster.run_until_drained(client, at);
        cluster.sim.run_until(at);
    };
    for (minute, change) in changes {
        run_to(cluster, minute);
        apply(cluster, minute, change);
    }
    run_to(cluster, config.eval_start + config.window_minutes);
    let deadline = cluster.sim.now() + SimTime::from_secs(300);
    cluster.run_until_drained(client, deadline);
    let node = cluster.sim.actor(client).and_then(PaxosNode::as_client);
    node.map(|c| c.history().to_vec()).unwrap_or_default()
}

/// Exact quantile of a sorted sample (nearest-rank); 0 on empty input.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fold the tracer ring into `trace.*` counters: per-operation commit
/// latency (the duration of each complete `client.request` root span, as
/// exact p50/p99 so the consensus golden can pin them) and orphan/
/// incomplete counts for chaos post-mortems. Returns the assembled
/// traces for `record_latency_slo`. No-op (no traces) when tracing is
/// disabled, so the untraced replay path is untouched.
pub fn record_trace_metrics(obs: &Obs) -> Vec<CausalTrace> {
    if !obs.trace.is_enabled() {
        return Vec::new();
    }
    let traces = obs::assemble_traces(&obs.trace.events());
    let mut latencies: Vec<u64> = Vec::new();
    let mut orphans = 0u64;
    let mut incomplete = 0u64;
    for t in &traces {
        orphans += t.orphans().len() as u64;
        let Some(lat) = t.latency_micros() else {
            incomplete += 1;
            continue;
        };
        latencies.push(lat);
    }
    latencies.sort_unstable();
    obs.counter("trace.ops").add(latencies.len() as u64);
    obs.counter("trace.orphan_spans").add(orphans);
    obs.counter("trace.incomplete").add(incomplete);
    obs.counter("trace.commit_latency_p50_micros")
        .add(quantile(&latencies, 0.50));
    obs.counter("trace.commit_latency_p99_micros")
        .add(quantile(&latencies, 0.99));
    traces
}

/// Online request-latency SLO: feed the commit latencies of `traces`
/// (assembled from `obs`'s ring by [`record_trace_metrics`]; one
/// observation per completed operation, timestamped on the market-minute
/// axis — one sim second is one market minute) into a [`SloTracker`] with
/// the paper's 0.99 objective against [`SLA_MS`]. Burn-rate alerts land
/// in `obs.alerts` as `slo.request_latency.*`; the verdict is published
/// as `slo.request_latency.availability` /
/// `slo.request_latency.budget_remaining` ppm counters. No-op unless
/// both tracing and alerting are enabled.
pub(crate) fn record_latency_slo(
    obs: &Obs,
    traces: &[CausalTrace],
    eval_start: u64,
    window_minutes: u64,
) {
    if !obs.trace.is_enabled() || !obs.alerts.is_enabled() {
        return;
    }
    let mut completions: Vec<(u64, bool)> = traces
        .iter()
        .filter_map(|t| {
            let latency = t.latency_micros()?;
            let done_micros = t.root()?.end_micros?;
            Some((
                eval_start + done_micros / 1_000_000,
                latency <= SLA_MS * 1_000,
            ))
        })
        .collect();
    completions.sort_unstable();
    let mut slo = SloTracker::new(SloSpec::request_latency(window_minutes), obs.alerts.clone());
    for &(minute, ok) in &completions {
        slo.record(minute, if ok { 1.0 } else { 0.0 }, 1.0);
    }
    obs.counter("slo.request_latency.availability")
        .add((slo.availability().clamp(0.0, 1.0) * 1e6).round() as u64);
    obs.counter("slo.request_latency.budget_remaining")
        .add((slo.budget_remaining().max(0.0) * 1e6).round() as u64);
    obs.counter("slo.request_latency.alerts_fired")
        .add(slo.alerts_fired());
}

/// Fraction of issued operations answered within [`SLA_MS`]; one that was
/// never answered is a miss.
fn sla_fraction(latencies: &[u64], unfinished: usize) -> f64 {
    let within = latencies.iter().filter(|&&l| l <= SLA_MS).count();
    within as f64 / (latencies.len() + unfinished).max(1) as f64
}

/// Run the lock service on the fleet `strategy` bids for over a short
/// market window. The records running at the window start are the
/// initial cluster; a kill crashes its replica at the kill minute, and
/// each boundary spawns its joiners and removes its retirees and the
/// interval's killed replicas in one `Reconfig`. Returns request-level
/// metrics; every Paxos replica and this loop record into `obs`
/// (`paxos.*`, `service.*`, `trace.*`), and a strategy built `with_obs`
/// adds its `jupiter.*`. `Err` when no record runs at the window start:
/// a Paxos group needs members to start from.
pub fn lock_service_replay<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
    config: ServiceReplayConfig,
    obs: &Obs,
) -> Result<ServiceReplayOutcome, String> {
    let (first, changes) = billed_fleet(market, &ServiceSpec::lock_service(), strategy, config);
    if first.is_empty() {
        return Err("the strategy found no initial deployment".to_owned());
    }
    let replicas = ReplicaConfig {
        obs: obs.clone(),
        ..ReplicaConfig::default()
    };
    let net = NetworkConfig::default();
    let mut cluster = Cluster::new(first.len(), LockService::new(), replicas, net, config.seed);
    // Record → its live replica. A `BTreeMap`: the nodes a boundary
    // retires go into one `Reconfig` command — a value in the replicated
    // log — and are crashed in order, neither of which may vary from run
    // to run.
    let mut node: BTreeMap<usize, NodeId> = first.into_iter().zip((0..).map(NodeId)).collect();
    let admin = cluster.add_client();
    let worker = cluster.add_client();

    let (mut reconfigs, mut crashes) = (0usize, 0usize);
    // Cumulative trajectories on the market-minute axis — the crash/churn
    // view of the same window the market replay records per interval.
    let crash_series = obs.series.series("service.crashes");
    let fleet_series = obs.series.series("service.fleet_size");
    let reconfig_series = obs.series.series("service.reconfigs");
    fleet_series.record(config.eval_start, node.len() as f64);

    // A steady lock workload of acquire/release pairs, one op roughly
    // every two simulated seconds, queued `more` at a time.
    let total_ops = (config.window_minutes / 2).max(4) as usize;
    let mut queued = 0usize;
    let mut refill = |cluster: &mut Cluster<LockService>, more: usize| {
        let upto = (queued + more).min(total_ops);
        for k in queued..upto {
            let (name, owner) = (format!("lease-{}", k / 2), worker);
            let cmd = if k.is_multiple_of(2) {
                LockCmd::Acquire { name, owner }
            } else {
                LockCmd::Release { name, owner }
            };
            cluster.submit(worker, ClientOp::App(cmd));
        }
        queued = upto;
    };
    refill(&mut cluster, 64);

    let (mut joining, mut leaving, mut killed) = (Vec::new(), Vec::new(), Vec::new());
    let apply = |cluster: &mut Cluster<LockService>, minute, change| match change {
        Change::Boot(i) => joining.push(i),
        Change::Retire(i) => leaving.push(i),
        Change::Kill(i) => {
            if let Some(n) = node.remove(&i) {
                refill(cluster, 16);
                cluster.crash(n);
                killed.push(n);
                crashes += 1;
                crash_series.record(minute, crashes as f64);
            }
        }
        Change::Boundary => {
            // Retiring every live member with no joiner would leave
            // nothing to serve: keep the members instead.
            if joining.is_empty() && node.keys().all(|i| leaving.contains(i)) {
                leaving.clear();
            }
            let retired: Vec<NodeId> = leaving.drain(..).filter_map(|i| node.remove(&i)).collect();
            let mut add = Vec::new();
            for i in joining.drain(..) {
                let n = cluster.spawn_server();
                node.insert(i, n);
                add.push(n);
            }
            if !add.is_empty() || !retired.is_empty() || !killed.is_empty() {
                let remove = retired.iter().copied().chain(killed.drain(..)).collect();
                let op = ClientOp::Reconfig { add, remove };
                cluster.submit(admin, op);
                let deadline = cluster.sim.now() + SimTime::from_secs(120);
                cluster.run_until_drained(admin, deadline);
                cluster.refresh_clients();
                // The retired instances are returned to EC2; the killed
                // ones are down already.
                retired.iter().for_each(|&n| cluster.crash(n));
                reconfigs += 1;
            }
            fleet_series.record(minute, node.len() as f64);
            reconfig_series.record(minute, reconfigs as f64);
            refill(cluster, 32);
        }
    };
    let history = play(&mut cluster, worker, config, changes, apply);

    let latencies: Vec<u64> = history
        .iter()
        .filter_map(|op| {
            let (done, _) = op.completed.as_ref()?;
            Some(done.as_millis() - op.issued_at.as_millis())
        })
        .collect();
    let unfinished = history.len() - latencies.len();
    let traces = record_trace_metrics(obs);
    record_latency_slo(obs, &traces, config.eval_start, config.window_minutes);

    Ok(ServiceReplayOutcome {
        ops_completed: latencies.len(),
        ops_unfinished: unfinished,
        mean_latency_ms: latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64,
        max_latency_ms: latencies.iter().copied().max().unwrap_or(0),
        sla_fraction: sla_fraction(&latencies, unfinished),
        reconfigs,
        crashes,
        agreed_log_len: cluster.assert_log_agreement(),
    })
}

/// Outcome of a storage-service service-level replay.
#[derive(Clone, Debug)]
pub struct StorageReplayOutcome {
    /// Store operations completed (puts + gets).
    pub ops_completed: usize,
    /// Operations still outstanding at the end.
    pub ops_unfinished: usize,
    /// Gets that returned the exact bytes last put under the key.
    pub correct_reads: usize,
    /// Gets answered at all.
    pub reads: usize,
    /// Out-of-bid crashes injected.
    pub crashes: usize,
    /// Replica slot rebinds: a booted record taking over a slot another
    /// record held.
    pub rebinds: usize,
}

/// Run the RS-Paxos storage service on the fleet `strategy` bids for over
/// a short market window.
///
/// RS-Paxos keeps a fixed five-slot membership (shard index = slot), so a
/// record holds a free slot from its boot (or, when all five are held,
/// from the moment one frees) to its end, and a slot changing hands is a
/// *rebind*: a pristine replica takes over the slot and recovers state
/// through protocol catch-up — operationally the replacement flow of §4
/// with the shard index pinned. A kill or a retirement leaves its slot
/// down until another record takes it; records beyond five at once are
/// not hosted. Every RS-Paxos replica records into `obs` (`storage.*`,
/// `trace.*`); a strategy built `with_obs` adds its `jupiter.*`.
pub fn storage_service_replay<S: BiddingStrategy>(
    market: &Market,
    strategy: S,
    config: ServiceReplayConfig,
    obs: &Obs,
) -> StorageReplayOutcome {
    use storage::{RsCluster, RsConfig, RsService, StoreCmd, StoreResp};
    const SLOTS: usize = 5;

    let (mut first, changes) =
        billed_fleet(market, &ServiceSpec::storage_service(), strategy, config);
    let rs = RsConfig {
        obs: obs.clone(),
        ..RsConfig::default()
    };
    let mut cluster = RsCluster::new(SLOTS, rs, NetworkConfig::default(), config.seed);
    let client = cluster.add_client();
    // Slot `s` is replica `NodeId(s)`; its record, if any (a slot no
    // record holds is down). Booted records wait for a free slot in boot
    // order.
    let mut holder: Vec<Option<usize>> = (0..SLOTS).map(|s| first.get(s).copied()).collect();
    let mut waiting = first.split_off(first.len().min(SLOTS));
    (first.len()..SLOTS).for_each(|s| cluster.crash(NodeId(s)));

    let (mut crashes, mut rebinds) = (0usize, 0usize);
    let total_ops = (config.window_minutes / 3).max(4) as usize;
    let mut submitted = 0usize;
    let mut submit = |cluster: &mut Cluster<RsService>, more: usize| {
        let upto = (submitted + more).min(total_ops);
        for k in submitted..upto {
            let key = format!("obj-{}", k % 7);
            let op = if k.is_multiple_of(2) {
                let object = bytes::Bytes::from(vec![(k % 251) as u8; 256]);
                StoreCmd::Put { key, object }
            } else {
                StoreCmd::Get { key }
            };
            cluster.submit(client, op);
        }
        submitted = upto;
    };
    submit(&mut cluster, 40);

    let apply = |cluster: &mut Cluster<RsService>, _, change| {
        match change {
            Change::Boot(i) => waiting.push(i),
            Change::Boundary => submit(cluster, 16),
            Change::Retire(i) | Change::Kill(i) => {
                let kill = matches!(change, Change::Kill(_));
                if kill {
                    submit(cluster, 8);
                }
                waiting.retain(|&j| j != i);
                if let Some(slot) = holder.iter().position(|&h| h == Some(i)) {
                    cluster.crash(NodeId(slot));
                    holder[slot] = None;
                    crashes += usize::from(kill);
                }
            }
        }
        while let (Some(slot), false) =
            (holder.iter().position(Option::is_none), waiting.is_empty())
        {
            cluster.restart_pristine(NodeId(slot));
            holder[slot] = Some(waiting.remove(0));
            rebinds += 1;
        }
    };
    let history = play(&mut cluster, client, config, changes, apply);

    let (mut completed, mut unfinished, mut reads, mut correct_reads) = (0, 0, 0, 0);
    // Replay the history to know what each get should have returned.
    let mut shadow: std::collections::HashMap<String, u8> = Default::default();
    for op in &history {
        match (&op.op, &op.completed) {
            (_, None) => unfinished += 1,
            (StoreCmd::Put { key, object }, Some(_)) => {
                completed += 1;
                shadow.insert(key.clone(), object.first().copied().unwrap_or(0));
            }
            (StoreCmd::Get { key }, Some((_, resp))) => {
                completed += 1;
                reads += 1;
                let want = shadow.get(key).copied();
                let got = match resp {
                    Some(StoreResp::Value { object: Some(o) }) => o.first().copied(),
                    Some(StoreResp::Value { object: None }) => None,
                    _ => Some(0xFF),
                };
                if want == got {
                    correct_reads += 1;
                }
            }
            (_, Some(_)) => completed += 1,
        }
    }
    let traces = record_trace_metrics(obs);
    record_latency_slo(obs, &traces, config.eval_start, config.window_minutes);

    StorageReplayOutcome {
        ops_completed: completed,
        ops_unfinished: unfinished,
        correct_reads,
        reads,
        crashes,
        rebinds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jupiter::{BidDecision, JupiterStrategy, ZoneState};
    use spot_market::{InstanceType, MarketConfig};

    #[test]
    fn an_unanswered_request_is_an_sla_miss() {
        assert_eq!(sla_fraction(&[SLA_MS, SLA_MS + 1], 1), 1.0 / 3.0);
        assert_eq!(sla_fraction(&[], 0), 0.0);
    }

    #[test]
    fn lock_service_survives_a_market_window() {
        // 2 weeks of training, a 4-hour evaluated window at 2-hour
        // intervals: at least one reconfiguration cycle plus any kills the
        // market dishes out.
        let train = 2 * 7 * 24 * 60;
        let mut cfg = MarketConfig::paper(31, train + 5 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M1Small];
        let market = spot_market::Market::generate(cfg);
        let out = lock_service_replay(
            &market,
            JupiterStrategy::new(),
            ServiceReplayConfig {
                eval_start: train,
                window_minutes: 4 * 60,
                interval_hours: 2,
                seed: 9,
            },
            &Obs::disabled(),
        )
        .expect("the market yields an initial fleet");
        assert!(out.ops_completed > 50, "completed {}", out.ops_completed);
        assert!(out.sla_fraction > 0.95, "sla {}", out.sla_fraction);
        assert!(out.reconfigs <= 2);
        assert!(out.agreed_log_len > 0);
        assert_eq!(out.ops_unfinished, 0);
    }

    /// Bids for nothing at any boundary.
    struct Abstain;

    impl BiddingStrategy for Abstain {
        fn name(&self) -> String {
            "Abstain".to_owned()
        }

        fn decide(&self, _: &[ZoneState<'_>], _: &ServiceSpec, _: u32) -> BidDecision {
            BidDecision { bids: Vec::new() }
        }
    }

    #[test]
    fn a_strategy_that_bids_nothing_is_an_err() {
        let train = 2 * 7 * 24 * 60;
        let mut cfg = MarketConfig::paper(31, train + 3 * 60);
        cfg.zones.truncate(4);
        cfg.types = vec![InstanceType::M1Small, InstanceType::M3Large];
        let market = spot_market::Market::generate(cfg);
        let config = ServiceReplayConfig {
            eval_start: train,
            window_minutes: 2 * 60,
            interval_hours: 1,
            seed: 9,
        };
        let out = lock_service_replay(&market, Abstain, config, &Obs::disabled());
        assert_eq!(out.unwrap_err(), "the strategy found no initial deployment");
        // The store starts from five down slots instead and answers nothing.
        let out = storage_service_replay(&market, Abstain, config, &Obs::disabled());
        assert_eq!((out.ops_completed, out.rebinds), (0, 0));
    }

    #[test]
    fn storage_service_survives_a_market_window() {
        let train = 2 * 7 * 24 * 60;
        let mut cfg = MarketConfig::paper(41, train + 5 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M3Large];
        let market = spot_market::Market::generate(cfg);
        let out = storage_service_replay(
            &market,
            JupiterStrategy::new(),
            ServiceReplayConfig {
                eval_start: train,
                window_minutes: 4 * 60,
                interval_hours: 2,
                seed: 3,
            },
            &Obs::disabled(),
        );
        assert!(out.ops_completed > 30, "completed {}", out.ops_completed);
        assert_eq!(out.ops_unfinished, 0, "stalled ops");
        assert!(out.reads > 10);
        assert_eq!(
            out.correct_reads, out.reads,
            "a linearizable store never returns stale bytes"
        );
    }
}
