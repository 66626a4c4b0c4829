//! The request-level workload engine: an open-loop generator that
//! drives a replicated service (the Paxos lock service or the RS-Paxos
//! store) with a seeded arrival process, then reduces per-request
//! outcomes to latency quantiles and an SLO-based availability figure.
//!
//! The engine separates three populations:
//!
//! * **simulated clients** (`population`) — the logical end users whose
//!   keys/locks the commands touch; scaling this to millions costs one
//!   `u64` draw per request, not an actor each;
//! * **sessions** (`sessions`) — the connection-pool actors that carry
//!   requests on the simulated wire (each keeps one request in flight,
//!   see `paxos::open_loop`);
//! * **replicas** (`replicas`) — the service cluster under test.
//!
//! Latency is scheduled-arrival → completion, so leader queueing and
//! session queueing are charged to the request (no coordinated
//! omission). The SLO availability counts an unacknowledged request as
//! a miss, making "the service never answered" indistinguishable from
//! "the service answered late" — the paper's fleet-level availability
//! treats lost instances the same way.

use obs::{LivenessWatchdog, Obs, SloSpec, SloTracker};
use paxos::open_loop::OpenLoopClient;
use paxos::{Cluster, LockCmd, LockService, PaxosNode, ReplicaConfig, Service};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{NetworkConfig, NodeId, SimTime};
use storage::{RsCluster, RsConfig, StoreCmd};

use crate::arrival::{split_round_robin, ArrivalProcess};

/// Salt for the arrival-time stream (distinct from the command mix).
const ARRIVAL_SALT: u64 = 0x5EED_A221;
/// Salt for the command-mix stream.
const MIX_SALT: u64 = 0x5EED_C033;

/// Sim-time milliseconds as trace microseconds.
fn sim_micros(t: SimTime) -> u64 {
    t.as_millis().saturating_mul(1_000)
}

/// Everything that defines one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// When requests arrive.
    pub arrivals: ArrivalProcess,
    /// Arrival-generation horizon (measured from `start_at`).
    pub horizon: SimTime,
    /// Open-loop session actors carrying the requests.
    pub sessions: usize,
    /// Simulated client population (key/lock space); millions are fine.
    pub population: u64,
    /// Fraction of requests that are read-only queries.
    pub read_fraction: f64,
    /// Master seed (arrival times and command mix derive from it).
    pub seed: u64,
    /// Latency bound a request must meet to count as SLO-good.
    pub sla: SimTime,
    /// Replica count for the service cluster.
    pub replicas: usize,
    /// Leader batching: max client ops folded into one slot (1 = off).
    pub batch_max_ops: usize,
    /// Accept pipelining: max in-flight proposals (0 = unlimited).
    pub pipeline: usize,
    /// Trace every Nth request (0 = none); sampling keeps the bounded
    /// trace ring representative at 100k-request scale.
    pub trace_every: u64,
    /// Warm-up before the first arrival (leader election headroom).
    pub start_at: SimTime,
    /// Extra time after the last arrival to drain stragglers.
    pub drain_grace: SimTime,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 200.0 },
            horizon: SimTime::from_secs(30),
            sessions: 48,
            population: 10_000,
            read_fraction: 0.5,
            seed: 2014,
            sla: SimTime::from_millis(800),
            replicas: 5,
            batch_max_ops: 1,
            pipeline: 0,
            trace_every: 64,
            start_at: SimTime::from_secs(3),
            drain_grace: SimTime::from_secs(120),
        }
    }
}

/// The request-level outcome of one workload run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadReport {
    /// Requests scheduled.
    pub requests: u64,
    /// Requests acknowledged before the drain deadline.
    pub completed: u64,
    /// Client-side retransmissions.
    pub retransmits: u64,
    /// Completions within the SLA bound.
    pub sla_met: u64,
    /// SLO availability in parts-per-million: `sla_met / requests`
    /// (unacknowledged requests are misses).
    pub availability_ppm: u64,
    /// Nearest-rank median of scheduled→completion latency.
    pub latency_p50: SimTime,
    /// Nearest-rank 99th percentile of scheduled→completion latency.
    pub latency_p99: SimTime,
    /// Burn-rate alerts fired by the request-latency SLO tracker.
    pub slo_alerts_fired: u64,
    /// Simulation time when the run stopped.
    pub elapsed: SimTime,
}

/// Nearest-rank quantile of an ascending-sorted sample.
fn quantile(sorted: &[SimTime], q: f64) -> SimTime {
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One request's timing, service-agnostic.
struct Outcome {
    scheduled: SimTime,
    completed: Option<SimTime>,
}

/// Reduce raw outcomes to the report; SLO burn alerts land in `obs`.
fn summarize(
    spec: &WorkloadSpec,
    outcomes: Vec<Outcome>,
    retransmits: u64,
    elapsed: SimTime,
    obs: &Obs,
) -> WorkloadReport {
    let requests = outcomes.len() as u64;
    let mut latencies: Vec<SimTime> = Vec::new();
    let mut sla_met = 0u64;
    // Per-sim-minute SLO feed (scheduled-minute buckets, in order).
    let minutes = |t: SimTime| t.as_millis() / 60_000;
    let max_minute = outcomes
        .iter()
        .map(|o| minutes(o.scheduled))
        .max()
        .unwrap_or(0);
    let mut minute_good = vec![0u64; max_minute as usize + 1];
    let mut minute_total = vec![0u64; max_minute as usize + 1];
    for o in &outcomes {
        let m = minutes(o.scheduled) as usize;
        minute_total[m] += 1;
        if let Some(done) = o.completed {
            let lat = done.saturating_sub(o.scheduled);
            latencies.push(lat);
            if lat <= spec.sla {
                sla_met += 1;
                minute_good[m] += 1;
            }
        }
    }
    let completed = latencies.len() as u64;
    latencies.sort_unstable();
    let p50 = quantile(&latencies, 0.50);
    let p99 = quantile(&latencies, 0.99);

    let mut tracker = SloTracker::new(
        SloSpec::request_latency(60),
        obs.alerts.clone(),
    );
    for (m, &total) in minute_total.iter().enumerate() {
        if total > 0 {
            tracker.record(m as u64, minute_good[m] as f64, total as f64);
        }
    }
    let availability_ppm = sla_met
        .saturating_mul(1_000_000)
        .checked_div(requests)
        .unwrap_or(1_000_000);

    WorkloadReport {
        requests,
        completed,
        retransmits,
        sla_met,
        availability_ppm,
        latency_p50: p50,
        latency_p99: p99,
        slo_alerts_fired: tracker.alerts_fired(),
        elapsed,
    }
}

/// The lock-service command for one request of user `user`.
fn lock_cmd(rng: &mut ChaCha8Rng, spec: &WorkloadSpec, user: u64) -> LockCmd {
    let name = format!("u{user}");
    if rng.gen_bool(spec.read_fraction.clamp(0.0, 1.0)) {
        LockCmd::Holder { name }
    } else if rng.gen_bool(0.5) {
        LockCmd::Acquire {
            name,
            owner: NodeId(user as usize),
        }
    } else {
        LockCmd::Release {
            name,
            owner: NodeId(user as usize),
        }
    }
}

/// The store command for one request of user `user` (64-byte objects).
fn store_cmd(rng: &mut ChaCha8Rng, spec: &WorkloadSpec, user: u64) -> StoreCmd {
    let key = format!("u{user}");
    if rng.gen_bool(spec.read_fraction.clamp(0.0, 1.0)) {
        StoreCmd::Get { key }
    } else {
        StoreCmd::Put {
            key,
            object: bytes::Bytes::from(vec![(user % 251) as u8 + 1; 64]),
        }
    }
}

/// Generate the absolute-time request stream for `spec`.
fn schedule<C>(
    spec: &WorkloadSpec,
    mut cmd: impl FnMut(&mut ChaCha8Rng, u64) -> C,
) -> Vec<(SimTime, C)> {
    let arrivals = spec
        .arrivals
        .sample(spec.seed ^ ARRIVAL_SALT, spec.horizon);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ MIX_SALT);
    arrivals
        .into_iter()
        .map(|t| {
            let user = rng.gen_range(0..spec.population.max(1));
            (spec.start_at + t, cmd(&mut rng, user))
        })
        .collect()
}

/// Play `stream` on `cluster` through `spec.sessions` open-loop
/// sessions, one simulated second at a time under a liveness watchdog,
/// until every request is acknowledged or the drain deadline passes;
/// then reduce the session records to the report.
fn drive<S: Service>(
    cluster: &mut Cluster<S>,
    stream: Vec<(SimTime, S::Cmd)>,
    spec: &WorkloadSpec,
    obs: &Obs,
) -> WorkloadReport {
    let requests = stream.len();
    let mut session_ids = Vec::with_capacity(spec.sessions);
    for sched in split_round_robin(stream, spec.sessions.max(1)) {
        let id = NodeId(cluster.sim.node_count());
        let session = OpenLoopClient::new(id, cluster.servers().to_vec(), sched)
            .with_obs(obs.clone())
            .with_trace_every(spec.trace_every);
        let got = cluster.sim.add_node(PaxosNode::OpenLoop(session));
        assert_eq!(got, id);
        session_ids.push(id);
    }

    let deadline = spec.start_at + spec.horizon + spec.drain_grace;
    let mut watchdog = LivenessWatchdog::new(
        obs.alerts.clone(),
        paxos::harness::LIVENESS_STALL_BOUND,
    );
    loop {
        let completed: usize = session_ids
            .iter()
            .filter_map(|&id| cluster.sim.actor(id).and_then(PaxosNode::as_open_loop))
            .map(OpenLoopClient::completions)
            .sum();
        let outstanding = requests - completed;
        watchdog.observe(sim_micros(cluster.sim.now()), outstanding as u64);
        if outstanding == 0 || cluster.sim.now() >= deadline {
            break;
        }
        let next = cluster.sim.now() + SimTime::from_secs(1);
        cluster.sim.run_until(next.min(deadline));
    }

    let mut outcomes = Vec::with_capacity(requests);
    let mut retransmits = 0u64;
    for &id in &session_ids {
        let s = cluster
            .sim
            .actor(id)
            .and_then(PaxosNode::as_open_loop)
            .expect("session exists");
        retransmits += s.retransmits();
        for r in s.records() {
            outcomes.push(Outcome {
                scheduled: r.scheduled,
                completed: r.completed.as_ref().map(|&(t, _)| t),
            });
        }
    }
    summarize(spec, outcomes, retransmits, cluster.sim.now(), obs)
}

/// Run `spec` against a fresh lock-service cluster; the replicas'
/// `paxos.*` instruments, the sampled request traces and any SLO or
/// liveness alert go to `obs`.
pub fn run_lock_workload(spec: &WorkloadSpec, net: NetworkConfig, obs: &Obs) -> WorkloadReport {
    let cfg = ReplicaConfig {
        batch_max_ops: spec.batch_max_ops,
        pipeline: spec.pipeline,
        obs: obs.clone(),
        ..ReplicaConfig::default()
    };
    let mut cluster = Cluster::new(spec.replicas, LockService::new(), cfg, net, spec.seed);
    let stream = schedule(spec, |rng, user| lock_cmd(rng, spec, user));
    drive(&mut cluster, stream, spec, obs)
}

/// Run `spec` against a fresh RS-Paxos storage cluster (`storage.*`
/// instruments into `obs`).
pub fn run_storage_workload(spec: &WorkloadSpec, net: NetworkConfig, obs: &Obs) -> WorkloadReport {
    let cfg = RsConfig {
        batch_max_ops: spec.batch_max_ops,
        pipeline: spec.pipeline,
        obs: obs.clone(),
        ..RsConfig::default()
    };
    let mut cluster = RsCluster::new(spec.replicas, cfg, net, spec.seed);
    let stream = schedule(spec, |rng, user| store_cmd(rng, spec, user));
    drive(&mut cluster, stream, spec, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 40.0 },
            horizon: SimTime::from_secs(5),
            sessions: 16,
            population: 100,
            trace_every: 0,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn lock_workload_drains_and_reports() {
        let obs = Obs::disabled();
        let report = run_lock_workload(&small_spec(), NetworkConfig::default(), &obs);
        assert!(report.requests > 100, "requests {}", report.requests);
        assert_eq!(report.completed, report.requests);
        assert!(report.latency_p50 > SimTime::ZERO);
        assert!(report.latency_p99 >= report.latency_p50);
    }

    #[test]
    fn storage_workload_drains_and_reports() {
        let obs = Obs::disabled();
        let spec = WorkloadSpec {
            sessions: 24,
            ..small_spec()
        };
        let report = run_storage_workload(&spec, NetworkConfig::default(), &obs);
        assert!(report.requests > 100);
        assert_eq!(report.completed, report.requests);
    }

    #[test]
    fn identical_specs_identical_reports() {
        let spec = small_spec();
        let a = run_lock_workload(&spec, NetworkConfig::default(), &Obs::disabled());
        let b = run_lock_workload(&spec, NetworkConfig::default(), &Obs::disabled());
        assert_eq!(a, b);
    }

    #[test]
    fn batched_lock_workload_drains() {
        let spec = WorkloadSpec {
            batch_max_ops: 8,
            pipeline: 4,
            ..small_spec()
        };
        let obs = Obs::disabled();
        let report = run_lock_workload(&spec, NetworkConfig::default(), &obs);
        assert_eq!(report.completed, report.requests);
    }
}
