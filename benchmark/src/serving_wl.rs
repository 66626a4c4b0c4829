//! The three request-serving workloads. All are open loop: requests fire
//! at their scheduled arrival whatever the service is doing, and latency
//! runs from the scheduled arrival to completion, so queueing behind a
//! stall is charged to the requests that waited. Arrival times are in
//! simulated time, so the generator is never late.
//!
//! Message delay is `NetworkConfig::default()`: 20–80 ms one way with
//! 0.1 % loss between distinct nodes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use obs::Obs;
use paxos::{Cluster, LockCmd, LockService, OpenLoopClient, PaxosNode, ReplicaConfig};
use simnet::{ChaosAction, NetworkConfig, NodeId, SimTime};
use storage::{RsCluster, RsConfig, RsNode, RsOpenLoopClient, StoreCmd, StoreResp};
use workload::{run_lock_workload, split_round_robin, ArrivalProcess, WorkloadSpec};

use crate::spans::Recorder;
use crate::stats::{quantile_sorted, Summary};
use crate::{Options, Pass, Workload};

const REPLICAS: usize = 5;
const BATCH_MAX_OPS: usize = 8;
/// A request answered later than this misses the SLA.
const SLA: SimTime = SimTime::from_millis(800);
/// Head start for the first election before requests arrive.
const START_AT: SimTime = SimTime::from_secs(3);
/// Simulated time after the last arrival for stragglers to finish.
const DRAIN_GRACE: SimTime = SimTime::from_secs(60);

const ARRIVAL_SALT: u64 = 0xA221_5EED;
const MIX_SALT: u64 = 0xC033_5EED;

/// The benchmark's own command-mix stream (xorshift64*; the programs
/// receive only the generated commands).
struct Mix(u64);

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix((seed ^ MIX_SALT).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }
}

fn arrivals(seed: u64, rate_per_sec: f64, secs: u64) -> Vec<SimTime> {
    ArrivalProcess::Poisson { rate_per_sec }
        .sample(seed ^ ARRIVAL_SALT, SimTime::from_secs(secs))
        .into_iter()
        .map(|t| START_AT + t)
        .collect()
}

/// Half holder queries, a quarter acquires, a quarter releases, over a
/// `population` of lock names.
fn lock_schedule(seed: u64, rate: f64, secs: u64, population: u64) -> Vec<(SimTime, LockCmd)> {
    let mut mix = Mix::new(seed);
    arrivals(seed, rate, secs)
        .into_iter()
        .map(|at| {
            let user = mix.next() % population;
            let name = format!("u{user}");
            let owner = NodeId(user as usize);
            let cmd = match mix.next() % 4 {
                0 | 1 => LockCmd::Holder { name },
                2 => LockCmd::Acquire { name, owner },
                _ => LockCmd::Release { name, owner },
            };
            (at, cmd)
        })
        .collect()
}

/// Scheduled and completion times of every request of a pass.
#[derive(Default)]
struct Timings {
    scheduled: Vec<SimTime>,
    /// Completion per request, same order; `None` if never answered.
    completed: Vec<Option<SimTime>>,
}

impl Timings {
    fn push(&mut self, scheduled: SimTime, completed: Option<SimTime>) {
        self.scheduled.push(scheduled);
        self.completed.push(completed);
    }

    /// Requests, unfinished, SLA availability and latency percentiles.
    fn reduce(&self) -> Pass {
        let ops = self.scheduled.len() as u64;
        let mut latency: Vec<f64> = self
            .scheduled
            .iter()
            .zip(&self.completed)
            .filter_map(|(&s, &c)| c.map(|c| c.saturating_sub(s).as_millis() as f64))
            .collect();
        latency.sort_by(f64::total_cmp);
        let failed = ops - latency.len() as u64;
        let within = latency
            .iter()
            .filter(|&&ms| ms <= SLA.as_millis() as f64)
            .count();
        Pass {
            ops,
            failed,
            outcome: vec![
                ("availability_ppm", within as f64 / ops as f64 * 1e6),
                ("latency_sim_ms_p50", quantile_sorted(&latency, 0.50)),
                ("latency_sim_ms_p99", quantile_sorted(&latency, 0.99)),
            ],
            ..Pass::default()
        }
    }

    /// Longest simulated gap between consecutive completions during
    /// which at least one request was outstanding.
    fn longest_stall_ms(&self) -> f64 {
        let mut scheduled = self.scheduled.clone();
        scheduled.sort_unstable();
        let mut done: Vec<SimTime> = self.completed.iter().flatten().copied().collect();
        done.sort_unstable();
        let mut longest = 0;
        for (i, pair) in done.windows(2).enumerate() {
            // After completion i, i + 1 requests are done. Waiting starts
            // at that completion, or when the next request arrives if
            // everything scheduled so far was already answered.
            let Some(&next_arrival) = scheduled.get(i + 1) else {
                break;
            };
            let from = pair[0].max(next_arrival);
            longest = longest.max(pair[1].saturating_sub(from).as_millis());
        }
        longest as f64
    }
}

fn store_session(cluster: &RsCluster, id: NodeId) -> &RsOpenLoopClient {
    cluster
        .sim
        .actor(id)
        .and_then(RsNode::as_open_loop)
        .expect("session")
}

fn lock_session(cluster: &Cluster<LockService>, id: NodeId) -> &OpenLoopClient<LockService> {
    cluster
        .sim
        .actor(id)
        .and_then(PaxosNode::as_open_loop)
        .expect("session")
}

/// Host-time samples of the one-simulated-second `run_until` steps.
fn step_metrics(step_ms: &[f64]) -> Vec<(&'static str, f64)> {
    let s = Summary::of(step_ms);
    vec![
        ("simnet.host_ms_per_sim_s_p50", s.p50),
        ("simnet.host_ms_per_sim_s_max", s.max()),
    ]
}

// ---------------------------------------------------------------- lock_serving

/// The lock service at its headline load, through the workload engine.
pub struct LockServing {
    seed: u64,
    secs: u64,
    ladder_secs: u64,
}

impl LockServing {
    const RATE: f64 = 1_000.0;
    const SESSIONS: usize = 512;
    const POPULATION: u64 = 1_000_000;
    /// Fixed rates for `max_rate_within_sla_per_s`.
    const LADDER: [f64; 5] = [500.0, 1_000.0, 1_500.0, 2_000.0, 3_000.0];

    fn spec(&self, rate_per_sec: f64, secs: u64) -> WorkloadSpec {
        WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_sec },
            horizon: SimTime::from_secs(secs),
            sessions: Self::SESSIONS,
            population: Self::POPULATION,
            read_fraction: 0.5,
            seed: self.seed,
            sla: SLA,
            replicas: REPLICAS,
            batch_max_ops: BATCH_MAX_OPS,
            pipeline: 0,
            start_at: START_AT,
            drain_grace: DRAIN_GRACE,
            ..WorkloadSpec::default()
        }
    }
}

impl Workload for LockServing {
    type Ready = ();
    const SUB_SEEDS: usize = 4;

    fn new(opts: &Options) -> Self {
        LockServing {
            seed: opts.seed,
            secs: opts.scaled(60),
            ladder_secs: opts.scaled(30),
        }
    }

    /// `run_lock_workload` generates its schedule and builds its cluster
    /// internally, so set-up time is measured on an equivalent the
    /// benchmark builds with the same public pieces and then drops.
    fn setup(&self, _obs: &Obs, rec: &mut Recorder) {
        let sessions = rec.scope("workload.schedule", |_| {
            let stream = lock_schedule(self.seed, Self::RATE, self.secs, Self::POPULATION);
            split_round_robin(stream, Self::SESSIONS)
        });
        rec.scope("cluster.build", |_| {
            let cfg = ReplicaConfig {
                batch_max_ops: BATCH_MAX_OPS,
                ..ReplicaConfig::default()
            };
            let mut cluster = Cluster::new(
                REPLICAS,
                LockService::new(),
                cfg,
                NetworkConfig::default(),
                self.seed,
            );
            for schedule in sessions {
                cluster.add_open_loop(schedule);
            }
            std::hint::black_box(cluster.sim.node_count());
        });
    }

    fn pass(&self, _ready: (), obs: &Obs, rec: &mut Recorder) -> Pass {
        let spec = self.spec(Self::RATE, self.secs);
        let t0 = Instant::now();
        let report = rec.scope("workload.run_lock_workload", |_| {
            run_lock_workload(&spec, NetworkConfig::default(), obs)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let failed = report.requests - report.completed;
        let mut errors = Vec::new();
        if failed > 0 {
            errors.push(format!(
                "{failed} of {} requests never completed",
                report.requests
            ));
        }
        Pass {
            ops: report.requests,
            failed,
            wall_s,
            outcome: vec![
                (
                    "availability_ppm",
                    report.sla_met as f64 / report.requests as f64 * 1e6,
                ),
                ("latency_sim_ms_p50", report.latency_p50.as_millis() as f64),
                ("latency_sim_ms_p99", report.latency_p99.as_millis() as f64),
            ],
            fingerprint: vec![report.retransmits, report.elapsed.as_millis()],
            errors,
            ..Pass::default()
        }
    }

    /// Latency at each fixed rate, and the highest rate that meets the
    /// SLA on p99 with nothing left unfinished at drain.
    fn outcome_once(&self) -> Vec<(&'static str, f64)> {
        let mut best = 0.0;
        for rate in Self::LADDER {
            let spec = self.spec(rate, self.ladder_secs);
            let r = run_lock_workload(&spec, NetworkConfig::default(), &Obs::disabled());
            println!(
                "ladder {rate} req/s: {} requests, {} unfinished, p50 {} p99 {} sim-ms",
                r.requests,
                r.requests - r.completed,
                r.latency_p50.as_millis(),
                r.latency_p99.as_millis()
            );
            if r.latency_p99 <= SLA && r.completed == r.requests {
                best = rate;
            }
        }
        vec![("max_rate_within_sla_per_s", best)]
    }
}

// --------------------------------------------------------------- store_serving

/// Which requests a store schedule holds.
#[derive(Clone, Copy)]
enum StoreMix {
    /// Half gets, half puts (the workload).
    Mixed,
    /// Puts only, then as many gets over the keys just written.
    PutsThenGets,
}

/// The RS-Paxos store under large payloads.
pub struct StoreServing {
    seed: u64,
    secs: u64,
}

/// f(key), the one object ever written under `key`: 64 KiB when
/// `key % 5 == 0`, else 4 KiB. The table is built once per process and
/// shared (cloning `Bytes` clones a pointer), whatever the seed.
fn object(key: u64) -> &'static Bytes {
    static OBJECTS: OnceLock<Vec<Bytes>> = OnceLock::new();
    let table = OBJECTS.get_or_init(|| {
        (0..StoreServing::KEYS)
            .map(|key| {
                let len = if key % 5 == 0 { 64 * 1024 } else { 4 * 1024 };
                let byte =
                    |i: u64| (key.wrapping_mul(31).wrapping_add(i.wrapping_mul(7)) >> 2) as u8;
                Bytes::from((0..len).map(byte).collect::<Vec<u8>>())
            })
            .collect()
    });
    &table[key as usize]
}

/// A built store cluster with its sessions and their expected requests.
pub struct StoreReady {
    cluster: RsCluster,
    sessions: Vec<NodeId>,
    requests: usize,
}

impl StoreServing {
    const RATE: f64 = 200.0;
    const SESSIONS: usize = 64;
    const KEYS: u64 = 2_000;

    fn schedule(&self, secs: u64, mix: StoreMix) -> Vec<(SimTime, StoreCmd)> {
        let mut rng = Mix::new(self.seed);
        let put = |key: u64| StoreCmd::Put {
            key: format!("k{key}"),
            object: object(key).clone(),
        };
        let mut stream: Vec<(SimTime, StoreCmd)> = arrivals(self.seed, Self::RATE, secs)
            .into_iter()
            .map(|at| {
                let key = rng.next() % Self::KEYS;
                let read = rng.next().is_multiple_of(2);
                match mix {
                    StoreMix::Mixed if read => (
                        at,
                        StoreCmd::Get {
                            key: format!("k{key}"),
                        },
                    ),
                    _ => (at, put(key)),
                }
            })
            .collect();
        if let StoreMix::PutsThenGets = mix {
            let shift = SimTime::from_secs(secs);
            let gets: Vec<(SimTime, StoreCmd)> = stream
                .iter()
                .map(|(at, cmd)| match cmd {
                    StoreCmd::Put { key, .. } => (*at + shift, StoreCmd::Get { key: key.clone() }),
                    _ => unreachable!("puts only"),
                })
                .collect();
            stream.extend(gets);
        }
        stream
    }

    fn build(&self, stream: Vec<(SimTime, StoreCmd)>, obs: &Obs) -> StoreReady {
        let cfg = RsConfig {
            m: 3,
            batch_max_ops: BATCH_MAX_OPS,
            pipeline: 0,
            obs: obs.clone(),
            ..RsConfig::default()
        };
        let requests = stream.len();
        let mut cluster = RsCluster::new(REPLICAS, cfg, NetworkConfig::default(), self.seed);
        let sessions = split_round_robin(stream, Self::SESSIONS)
            .into_iter()
            .map(|schedule| cluster.add_open_loop(schedule))
            .collect();
        StoreReady {
            cluster,
            sessions,
            requests,
        }
    }

    /// Drive a built cluster to drain, one simulated second per step,
    /// then check every response. Also returns the host ms of each step
    /// (step `i` simulates second `i`).
    fn drive(&self, ready: StoreReady, rec: &mut Recorder) -> (Pass, Vec<f64>) {
        let StoreReady {
            mut cluster,
            sessions,
            requests,
        } = ready;
        let last_arrival = sessions
            .iter()
            .filter_map(|&id| {
                store_session(&cluster, id)
                    .records()
                    .last()
                    .map(|r| r.scheduled)
            })
            .max()
            .unwrap_or(START_AT);
        let deadline = last_arrival + DRAIN_GRACE;
        let mut step_ms = Vec::new();
        let t0 = Instant::now();
        loop {
            let done: usize = sessions
                .iter()
                .map(|&id| store_session(&cluster, id).completions())
                .sum();
            if done == requests || cluster.sim.now() >= deadline {
                break;
            }
            let next = cluster.sim.now() + SimTime::from_secs(1);
            let t = Instant::now();
            rec.scope(&format!("simnet.run_until[{}]", next.as_secs()), |_| {
                cluster.sim.run_until(next)
            });
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let mut timings = Timings::default();
        let mut errors = Vec::new();
        let mut wrong = 0u64;
        for &id in &sessions {
            for r in store_session(&cluster, id).records() {
                timings.push(r.scheduled, r.completed.as_ref().map(|(t, _)| *t));
                let ok = match (&r.cmd, r.completed.as_ref().map(|(_, resp)| resp)) {
                    (_, None) => true, // counted as failed, not as wrong
                    (StoreCmd::Put { .. }, Some(StoreResp::Stored { .. })) => true,
                    (StoreCmd::Get { .. }, Some(StoreResp::Value { object: None })) => true,
                    (StoreCmd::Get { key }, Some(StoreResp::Value { object: Some(got) })) => {
                        let key: u64 = key[1..].parse().expect("benchmark key");
                        got[..] == object(key)[..]
                    }
                    _ => false,
                };
                wrong += u64::from(!ok);
            }
        }
        if wrong > 0 {
            errors.push(format!(
                "{wrong} responses were neither NotFound nor exactly f(key)"
            ));
        }
        let mut pass = timings.reduce();
        if pass.failed > 0 {
            errors.push(format!(
                "{} of {requests} requests never completed",
                pass.failed
            ));
        }
        pass.failed += wrong;
        pass.wall_s = wall_s;
        pass.sim_layer.push((
            "simnet.msgs_delivered",
            cluster.sim.messages_delivered() as f64,
        ));
        pass.fingerprint = vec![cluster.sim.now().as_millis(), cluster.sim.fingerprint()];
        pass.host_layer = step_metrics(&step_ms);
        pass.errors = errors;
        (pass, step_ms)
    }
}

impl Workload for StoreServing {
    type Ready = StoreReady;
    const SUB_SEEDS: usize = 12;

    fn new(opts: &Options) -> Self {
        StoreServing {
            seed: opts.seed,
            secs: opts.scaled(40),
        }
    }

    fn setup(&self, obs: &Obs, rec: &mut Recorder) -> StoreReady {
        let stream = rec.scope("workload.schedule", |_| {
            self.schedule(self.secs, StoreMix::Mixed)
        });
        rec.scope("cluster.build", |_| self.build(stream, obs))
    }

    fn pass(&self, ready: StoreReady, _obs: &Obs, rec: &mut Recorder) -> Pass {
        self.drive(ready, rec).0
    }

    /// Host time per put and per get: one pass that writes for a while,
    /// then reads every written key back; the steps before the first get
    /// is due are the puts' and the rest the gets'.
    fn extras(&self, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        let secs = (self.secs / 2).max(1);
        let stream = self.schedule(secs, StoreMix::PutsThenGets);
        let ready = self.build(stream, &Obs::disabled());
        let (pass, step_ms) = rec.scope("storage.puts_then_gets", |rec| self.drive(ready, rec));
        assert!(pass.errors.is_empty(), "{:?}", pass.errors);
        let first_get = (START_AT.as_secs() + secs) as usize;
        let (puts, gets) = step_ms.split_at(first_get.min(step_ms.len()));
        let per_op_us = |steps: &[f64]| steps.iter().sum::<f64>() * 1e3 / (pass.ops / 2) as f64;
        vec![
            ("storage.host_us_per_put", per_op_us(puts)),
            ("storage.host_us_per_get", per_op_us(gets)),
        ]
    }
}

// --------------------------------------------------------------- lock_failover

/// The lock service while its leader is crashed and rebooted four times.
pub struct LockFailover {
    seed: u64,
    secs: u64,
}

/// A built lock cluster with its sessions.
pub struct FailoverReady {
    cluster: Cluster<LockService>,
    sessions: Vec<NodeId>,
    requests: usize,
}

impl LockFailover {
    const RATE: f64 = 200.0;
    const SESSIONS: usize = 64;
    const POPULATION: u64 = 10_000;
    const CRASHES: u64 = 4;

    /// Simulated second of each crash; the victim reboots half a period
    /// later (full scale: crash 30/90/150/210 s into the arrivals, reboot
    /// 30 s after each).
    fn crash_times(&self) -> VecDeque<u64> {
        let period = self.secs / Self::CRASHES;
        (0..Self::CRASHES)
            .map(|k| START_AT.as_secs() + period / 2 + k * period)
            .collect()
    }
}

/// Replicas must agree on every slot both still hold. Compared by slot
/// number: replicas compact at different times, so their retained
/// prefixes start at different slots and index `i` of one is not index
/// `i` of another.
fn check_log_agreement(cluster: &Cluster<LockService>, errors: &mut Vec<String>) {
    let mut agreed = BTreeMap::new();
    for &id in cluster.servers() {
        let Some(replica) = cluster.replica(id) else {
            continue;
        };
        for (slot, value) in replica.applied_prefix() {
            match agreed.get(&slot) {
                None => {
                    agreed.insert(slot, value);
                }
                Some(first) if *first != value => {
                    errors.push(format!("replicas disagree on slot {slot}"));
                    return;
                }
                Some(_) => {}
            }
        }
    }
    if agreed.is_empty() {
        errors.push("no replica retained any applied slot".into());
    }
}

impl Workload for LockFailover {
    type Ready = FailoverReady;
    const SUB_SEEDS: usize = 6;

    fn new(opts: &Options) -> Self {
        LockFailover {
            seed: opts.seed,
            secs: opts.scaled(240).max(8),
        }
    }

    fn setup(&self, obs: &Obs, rec: &mut Recorder) -> FailoverReady {
        let sessions = rec.scope("workload.schedule", |_| {
            let stream = lock_schedule(self.seed, Self::RATE, self.secs, Self::POPULATION);
            split_round_robin(stream, Self::SESSIONS)
        });
        rec.scope("cluster.build", |_| {
            let cfg = ReplicaConfig {
                batch_max_ops: BATCH_MAX_OPS,
                obs: obs.clone(),
                ..ReplicaConfig::default()
            };
            let requests = sessions.iter().map(Vec::len).sum();
            let mut cluster = Cluster::new(
                REPLICAS,
                LockService::new(),
                cfg,
                NetworkConfig::default(),
                self.seed,
            );
            let sessions = sessions
                .into_iter()
                .map(|s| cluster.add_open_loop(s))
                .collect();
            FailoverReady {
                cluster,
                sessions,
                requests,
            }
        })
    }

    fn pass(&self, ready: FailoverReady, _obs: &Obs, rec: &mut Recorder) -> Pass {
        let FailoverReady {
            mut cluster,
            sessions,
            requests,
        } = ready;
        let mut crash_at = self.crash_times();
        let reboot_after = self.secs / Self::CRASHES / 2;
        let deadline = START_AT + SimTime::from_secs(self.secs) + DRAIN_GRACE;
        let mut down: Option<(NodeId, u64)> = None;
        let mut step_ms = Vec::new();
        let t0 = Instant::now();
        loop {
            let done: usize = sessions
                .iter()
                .map(|&id| lock_session(&cluster, id).completions())
                .sum();
            if (done == requests && down.is_none()) || cluster.sim.now() >= deadline {
                break;
            }
            let sec = cluster.sim.now().as_secs();
            if let Some((victim, at)) = down {
                if sec >= at {
                    cluster.apply_chaos(&ChaosAction::Restart(victim));
                    down = None;
                }
            }
            // A crash that falls due while nobody leads (or while the last
            // victim is still down) waits for the next leader.
            if down.is_none() && crash_at.front().is_some_and(|&at| sec >= at) {
                if let Some(leader) = cluster.leader() {
                    cluster.apply_chaos(&ChaosAction::Crash(leader));
                    down = Some((leader, sec + reboot_after));
                    crash_at.pop_front();
                }
            }
            let next = SimTime::from_secs(sec + 1);
            let t = Instant::now();
            rec.scope(&format!("simnet.run_until[{}]", sec + 1), |_| {
                cluster.sim.run_until(next)
            });
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let mut timings = Timings::default();
        for &id in &sessions {
            for r in lock_session(&cluster, id).records() {
                timings.push(r.scheduled, r.completed.as_ref().map(|(t, _)| *t));
            }
        }
        let mut pass = timings.reduce();
        let mut errors = Vec::new();
        if pass.failed > 0 {
            errors.push(format!(
                "{} of {requests} requests never completed",
                pass.failed
            ));
        }
        if !crash_at.is_empty() {
            errors.push(format!(
                "{} of {} planned leader crashes never happened",
                crash_at.len(),
                Self::CRASHES
            ));
        }
        check_log_agreement(&cluster, &mut errors);
        pass.wall_s = wall_s;
        pass.outcome
            .push(("failover_sim_ms_max", timings.longest_stall_ms()));
        pass.sim_layer.push((
            "simnet.msgs_delivered",
            cluster.sim.messages_delivered() as f64,
        ));
        pass.fingerprint = vec![cluster.sim.now().as_millis(), cluster.sim.fingerprint()];
        pass.host_layer = step_metrics(&step_ms);
        pass.errors = errors;
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_stall_ignores_idle_gaps() {
        let ms = SimTime::from_millis;
        let mut t = Timings::default();
        t.push(ms(0), Some(ms(10)));
        t.push(ms(5), Some(ms(30))); // outstanding across the 10 -> 30 gap
        t.push(ms(500), Some(ms(520))); // idle 30 -> 500, then 20 ms of waiting
        assert_eq!(t.longest_stall_ms(), 20.0);
        t.push(ms(505), Some(ms(900)));
        assert_eq!(t.longest_stall_ms(), 380.0);
    }

    #[test]
    fn timings_count_unfinished_as_failed_and_as_sla_misses() {
        let ms = SimTime::from_millis;
        let mut t = Timings::default();
        t.push(ms(0), Some(ms(100)));
        t.push(ms(0), Some(ms(900)));
        t.push(ms(0), None);
        t.push(ms(0), Some(ms(800)));
        let pass = t.reduce();
        assert_eq!((pass.ops, pass.failed), (4, 1));
        assert_eq!(pass.outcome("availability_ppm"), Some(500_000.0));
    }
}
