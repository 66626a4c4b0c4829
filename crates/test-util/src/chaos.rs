//! Chaos-sweep drivers: run a seeded workload against a cluster while a
//! [`ChaosSchedule`] injects faults, then run the safety checkers.
//!
//! Both drivers are pure functions of the schedule (workload, cluster
//! seeds, and fault times all derive from `schedule.seed`), so a failing
//! run reproduces byte-for-byte from the printed seed — asserted via the
//! simulator's run [`fingerprint`](simnet::Simulation::fingerprint).
//!
//! On failure, [`shrink_and_report`] reduces the schedule to its minimal
//! failing prefix, re-runs it with tracing enabled, and packages the
//! seed, the pretty-printed schedule, the obs trace, and the exact
//! re-run command into a [`ChaosFailure`].

use std::fmt;

use obs::Obs;
use paxos::{ClientOp, Cluster, LockCmd, ReplicaConfig, Service};
use rand::Rng;
use simnet::{ChaosAction, ChaosSchedule, NodeId, SimTime};
use storage::{RsConfig, StoreCmd};

use crate::check::{check_lock_cluster, check_storage_cluster};
use crate::env::repro_command;
use crate::fixtures::{lock_cluster, storage_cluster};
use crate::rng::{derive_seed, rng_from};

/// Sub-seed streams carved out of one schedule seed.
const STREAM_CLUSTER: u64 = 1;
const STREAM_WORKLOAD: u64 = 2;

/// How long after the last chaos event the clients get to drain before
/// the run is declared stuck.
const DRAIN_GRACE: SimTime = SimTime::from_secs(240);

/// What a successful chaos run produced.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOutcome {
    /// The simulator's run digest — equal across runs of the same
    /// schedule, the byte-for-byte reproducibility witness.
    pub fingerprint: u64,
    /// Completed client operations audited by the checker.
    pub ops_checked: usize,
    /// Reads answered `Unavailable` (storage runs; 0 for lock runs).
    pub unavailable_reads: usize,
    /// Keys degraded below `m` surviving byte shards (storage runs; see
    /// [`crate::check::CheckStats::eroded_keys`]).
    pub eroded_keys: usize,
    /// Batch slot values the run chose and audited (0 unless the driver
    /// ran with a batch size above 1): the witness that a batched sweep
    /// actually folded several requests into one slot.
    pub batches_checked: usize,
}

/// Everything needed to reproduce and diagnose a failing chaos run.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// The schedule seed.
    pub seed: u64,
    /// The derived sub-seed the run's client workload was drawn from
    /// (`derive_seed(seed, STREAM_WORKLOAD)`) — printed so a failure in
    /// a batched run can be replayed against the exact request stream,
    /// not just the fault timeline.
    pub workload_seed: u64,
    /// Why the (full) run failed.
    pub reason: String,
    /// The minimal failing prefix, pretty-printed.
    pub schedule: String,
    /// Why the minimal prefix fails (usually the same reason).
    pub minimal_reason: String,
    /// Obs trace (JSON lines) of the minimal failing run.
    pub trace_json: String,
    /// Alerts the online monitors fired during the minimal failing run
    /// (liveness watchdog stalls, SLO burns) — the monitor's verdict on
    /// *what* degraded, alongside the checker's verdict on what broke.
    pub verdicts: Vec<obs::AlertEvent>,
    /// Copy-paste command that re-runs exactly this schedule.
    pub repro: String,
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos run failed: {}", self.reason)?;
        writeln!(
            f,
            "schedule seed {:#x}, workload seed {:#x}",
            self.seed, self.workload_seed
        )?;
        writeln!(f, "minimal failing prefix: {}", self.minimal_reason)?;
        write!(f, "{}", self.schedule)?;
        writeln!(f, "reproduce with:\n  {}", self.repro)?;
        if self.verdicts.is_empty() {
            writeln!(f, "monitor verdicts: none fired during the minimal run")?;
        } else {
            writeln!(f, "monitor verdicts ({}):", self.verdicts.len())?;
            for a in &self.verdicts {
                writeln!(
                    f,
                    "  [{}] {} @ {} µs: {}",
                    a.severity.label(),
                    a.monitor,
                    a.at_micros,
                    a.message
                )?;
            }
        }
        let events = self.trace_json.lines().count();
        writeln!(f, "obs trace of the minimal run ({events} events):")?;
        for line in self.trace_json.lines().take(40) {
            writeln!(f, "  {line}")?;
        }
        if events > 40 {
            writeln!(f, "  … {} more", events - 40)?;
        }
        Ok(())
    }
}

/// The part of a chaos run both services share: execute the fault
/// schedule interleaved with the already-queued workload (stamping obs
/// time at each event), run the recovery epilogue, then give every
/// client [`DRAIN_GRACE`] to drain. `who` names the clients in the
/// liveness error.
fn run_schedule<S: Service>(
    c: &mut Cluster<S>,
    schedule: &ChaosSchedule,
    clients: &[NodeId],
    obs: &Obs,
    who: &str,
) -> Result<(), String> {
    for ev in &schedule.events {
        c.sim.run_until(ev.at);
        obs.set_time_micros(c.sim.now().as_micros());
        c.apply_chaos(&ev.action);
    }

    // Recovery epilogue: whatever state the schedule (or a shrunk prefix
    // of it) left behind, restore the network and every replica so the
    // drain below asserts *eventual* progress, not luck.
    c.apply_chaos(&ChaosAction::ClearLinkChaos);
    c.apply_chaos(&ChaosAction::Heal);
    for id in c.servers().to_vec() {
        c.apply_chaos(&ChaosAction::Restart(id));
    }

    let deadline = c.sim.now() + DRAIN_GRACE;
    for &client in clients {
        if !c.run_until_drained(client, deadline) {
            return Err(format!(
                "liveness: {who} {client} still has outstanding ops {DRAIN_GRACE} after the \
                 schedule healed"
            ));
        }
    }
    obs.set_time_micros(c.sim.now().as_micros());
    Ok(())
}

/// Run the lock-service workload under `schedule` and check every lock
/// invariant. `obs` instruments the replicas (pass [`Obs::disabled`]
/// for sweeps; it does not affect determinism).
pub fn run_lock_chaos(schedule: &ChaosSchedule, obs: &Obs) -> Result<ChaosOutcome, String> {
    let cfg = ReplicaConfig {
        obs: obs.clone(),
        ..ReplicaConfig::default()
    };
    run_lock_chaos_with(schedule, cfg, 2)
}

/// [`run_lock_chaos`] with leader batching and accept pipelining on
/// (batch 4, pipeline 2, a 20 ms batch window): same schedules, same
/// safety bar, plus the batch-atomicity audit in the checker. A third
/// closed-loop client raises the odds that concurrent requests coalesce
/// into real multi-entry batches.
pub fn run_lock_chaos_batched(schedule: &ChaosSchedule, obs: &Obs) -> Result<ChaosOutcome, String> {
    let cfg = ReplicaConfig {
        batch_max_ops: 4,
        batch_delay: SimTime::from_millis(20),
        pipeline: 2,
        obs: obs.clone(),
        ..ReplicaConfig::default()
    };
    run_lock_chaos_with(schedule, cfg, 3)
}

fn run_lock_chaos_with(
    schedule: &ChaosSchedule,
    cfg: ReplicaConfig,
    n_clients: usize,
) -> Result<ChaosOutcome, String> {
    let obs = &cfg.obs.clone();
    let mut c = lock_cluster(5, cfg, derive_seed(schedule.seed, STREAM_CLUSTER));
    let clients: Vec<_> = (0..n_clients).map(|_| c.add_client()).collect();

    // Seeded workload, queued up-front; the closed-loop clients trickle
    // it through the cluster while faults land.
    let mut wl = rng_from(derive_seed(schedule.seed, STREAM_WORKLOAD));
    for (ci, &client) in clients.iter().enumerate() {
        // Command-embedded timestamps: monotone per client, so lease
        // expiry is deterministic and renewals can never go backwards.
        let mut now_ms = 1_000 * (ci as u64 + 1);
        for _ in 0..12 {
            now_ms += 1_500;
            let name = if wl.gen_bool(0.5) { "alpha" } else { "beta" };
            let name = name.to_string();
            let cmd = match wl.gen_range(0..6u32) {
                0 => LockCmd::Acquire {
                    name,
                    owner: client,
                },
                1 | 2 => LockCmd::AcquireLease {
                    name,
                    owner: client,
                    now_ms,
                    ttl_ms: wl.gen_range(2_000..10_000),
                },
                3 => LockCmd::Renew {
                    name,
                    owner: client,
                    now_ms,
                },
                4 => LockCmd::Release {
                    name,
                    owner: client,
                },
                _ => LockCmd::Holder { name },
            };
            c.submit(client, ClientOp::App(cmd));
        }
    }

    run_schedule(&mut c, schedule, &clients, obs, "client")?;

    let stats = check_lock_cluster(&c)?;
    Ok(ChaosOutcome {
        fingerprint: c.sim.fingerprint(),
        ops_checked: stats.ops_checked,
        unavailable_reads: 0,
        eroded_keys: 0,
        batches_checked: stats.batches_checked,
    })
}

/// Run the θ(3,5) storage workload under `schedule` and check the
/// client histories plus final decoded-value integrity.
pub fn run_storage_chaos(schedule: &ChaosSchedule, obs: &Obs) -> Result<ChaosOutcome, String> {
    let cfg = RsConfig {
        obs: obs.clone(),
        ..RsConfig::default()
    };
    run_storage_chaos_with(schedule, cfg, 1)
}

/// [`run_storage_chaos`] with batched shard proposals and accept
/// pipelining on (batch 4, pipeline 2, a 20 ms batch window), and a
/// second closed-loop writer over a disjoint key range so multi-entry
/// batches actually form (a batch carries at most one command per
/// client). The history check and the decoded-value audit double as the
/// batch-atomicity check: a partially applied batch leaves a key at a
/// version whose bytes never completed, which the final shard audit
/// rejects.
pub fn run_storage_chaos_batched(
    schedule: &ChaosSchedule,
    obs: &Obs,
) -> Result<ChaosOutcome, String> {
    let cfg = RsConfig {
        batch_max_ops: 4,
        batch_delay: SimTime::from_millis(20),
        pipeline: 2,
        obs: obs.clone(),
        ..RsConfig::default()
    };
    run_storage_chaos_with(schedule, cfg, 2)
}

fn run_storage_chaos_with(
    schedule: &ChaosSchedule,
    cfg: RsConfig,
    n_writers: usize,
) -> Result<ChaosOutcome, String> {
    let obs = &cfg.obs.clone();
    let m = cfg.m;
    let mut c = storage_cluster(5, cfg, derive_seed(schedule.seed, STREAM_CLUSTER));
    let writers: Vec<_> = (0..n_writers).map(|_| c.add_client()).collect();

    // Closed-loop writers over disjoint three-key ranges: rounds of
    // put/get with the occasional delete. One writer per key gives every
    // key one final state for the shard audit; object bytes are a pure
    // function of (seed, round, key) so any stale read is detectable.
    for (wi, &client) in writers.iter().enumerate() {
        let mut wl = rng_from(derive_seed(schedule.seed, STREAM_WORKLOAD + wi as u64));
        for round in 0..6u64 {
            for key_i in 0..3u64 {
                let ki = wi as u64 * 3 + key_i;
                let key = format!("k{ki}");
                if wl.gen_bool(0.1) {
                    c.submit(client, StoreCmd::Delete { key });
                    continue;
                }
                if wl.gen_bool(0.7) {
                    let len = wl.gen_range(16..256usize);
                    let tag = derive_seed(schedule.seed, (round << 8) | ki);
                    let object: Vec<u8> = (0..len)
                        .map(|i| (tag.rotate_left(i as u32 % 64) & 0xFF) as u8)
                        .collect();
                    c.submit(
                        client,
                        StoreCmd::Put {
                            key: key.clone(),
                            object: object.into(),
                        },
                    );
                }
                if wl.gen_bool(0.8) {
                    c.submit(client, StoreCmd::Get { key });
                }
            }
        }
    }

    run_schedule(&mut c, schedule, &writers, obs, "storage client")?;

    let stats = check_storage_cluster(&c, m)?;
    // The lifetime batch counter (it survives log catch-up gaps) is the
    // witness that batching actually ran.
    let batches_checked = c
        .servers()
        .iter()
        .filter_map(|&id| c.replica(id))
        .map(|r| r.service().batches_applied() as usize)
        .max()
        .unwrap_or(0);
    Ok(ChaosOutcome {
        fingerprint: c.sim.fingerprint(),
        ops_checked: stats.ops_checked,
        unavailable_reads: stats.unavailable_reads,
        eroded_keys: stats.eroded_keys,
        batches_checked,
    })
}

/// Shrink a failing schedule to its minimal failing prefix, re-run that
/// prefix with tracing on, and package the full diagnosis.
///
/// `run` is the driver under test ([`run_lock_chaos`] or
/// [`run_storage_chaos`]); `reason` is the failure the caller observed
/// on the full schedule.
pub fn shrink_and_report(
    schedule: &ChaosSchedule,
    test_name: &str,
    reason: String,
    run: impl Fn(&ChaosSchedule, &Obs) -> Result<ChaosOutcome, String>,
) -> ChaosFailure {
    let minimal = schedule
        .minimal_failing_prefix(|s| run(s, &Obs::disabled()).is_err())
        .unwrap_or_else(|| schedule.clone());
    let (obs, _clock) = Obs::simulated();
    let minimal_reason = match run(&minimal, &obs) {
        Err(e) => e,
        // Shrinking re-runs must be deterministic, so this only happens
        // if a driver is nondeterministic — worth reporting loudly.
        Ok(_) => "minimal prefix did not reproduce the failure (nondeterminism!)".to_string(),
    };
    ChaosFailure {
        seed: schedule.seed,
        workload_seed: derive_seed(schedule.seed, STREAM_WORKLOAD),
        reason,
        schedule: minimal.to_string(),
        minimal_reason,
        trace_json: obs.trace.to_json_lines(),
        verdicts: obs.alerts.snapshot(),
        repro: repro_command(test_name, schedule.seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::ChaosPlan;

    #[test]
    fn quiet_lock_run_passes_and_fingerprints_identically() {
        let s = ChaosSchedule::empty(11);
        let a = run_lock_chaos(&s, &Obs::disabled()).expect("quiet run is safe");
        let b = run_lock_chaos(&s, &Obs::disabled()).expect("quiet run is safe");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.ops_checked > 0, "checker saw completed ops");
    }

    #[test]
    fn quiet_storage_run_passes() {
        let s = ChaosSchedule::empty(12);
        let out = run_storage_chaos(&s, &Obs::disabled()).expect("quiet run is safe");
        assert!(out.ops_checked > 0);
    }

    #[test]
    fn quiet_batched_runs_are_safe_and_reproducible() {
        let s = ChaosSchedule::empty(13);
        let a = run_lock_chaos_batched(&s, &Obs::disabled()).expect("quiet batched run is safe");
        let b = run_lock_chaos_batched(&s, &Obs::disabled()).expect("quiet batched run is safe");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.ops_checked > 0);
        let st =
            run_storage_chaos_batched(&s, &Obs::disabled()).expect("quiet batched store is safe");
        assert!(st.ops_checked > 0);
    }

    #[test]
    fn chaotic_lock_run_is_reproducible() {
        let plan = ChaosPlan::lock_service(SimTime::from_secs(45), 10);
        let s = ChaosSchedule::generate(77, &plan);
        let a = run_lock_chaos(&s, &Obs::disabled()).expect("within-margin chaos is safe");
        let b = run_lock_chaos(&s, &Obs::disabled()).expect("within-margin chaos is safe");
        assert_eq!(a.fingerprint, b.fingerprint, "byte-identical reproduction");
    }

    #[test]
    fn failure_report_carries_seed_and_repro() {
        let plan = ChaosPlan::lock_service(SimTime::from_secs(30), 6);
        let s = ChaosSchedule::generate(5, &plan);
        // A synthetic always-failing driver exercises the report path
        // without needing a real bug.
        let fail = shrink_and_report(&s, "lock_sweep", "synthetic".into(), |_, _| {
            Err("synthetic".into())
        });
        assert_eq!(fail.seed, 5);
        assert_eq!(fail.workload_seed, crate::rng::derive_seed(5, STREAM_WORKLOAD));
        assert!(fail.repro.contains("CHAOS_SEED=0x5"));
        let text = fail.to_string();
        assert!(text.contains("reproduce with"));
        assert!(text.contains("workload seed"));
        assert!(text.contains("chaos schedule seed="));
        // The monitor-verdict block renders even when nothing fired.
        assert!(text.contains("monitor verdicts"));
    }

    #[test]
    fn failure_report_renders_fired_verdicts() {
        let plan = ChaosPlan::lock_service(SimTime::from_secs(30), 6);
        let s = ChaosSchedule::generate(6, &plan);
        // A driver that fires an alert into the re-run's sink before
        // failing: the report must carry the monitor's verdict.
        let fail = shrink_and_report(&s, "lock_sweep", "synthetic".into(), |_, obs| {
            obs.alerts.emit(
                42_000_000,
                "watchdog.liveness",
                obs::Severity::Critical,
                "no progress for 30000000 µs".to_string(),
                Vec::new(),
                Vec::new(),
            );
            Err("synthetic".into())
        });
        assert_eq!(fail.verdicts.len(), 1);
        let text = fail.to_string();
        assert!(text.contains("monitor verdicts (1):"));
        assert!(text.contains("[critical] watchdog.liveness @ 42000000 µs"));
    }
}
