//! The chaos suite: hundreds of seeded fault schedules — crashes,
//! restarts, partitions, link chaos, clock skew — against the live lock
//! and storage services, with every run checked for safety.
//!
//! * Default counts keep the whole suite inside the CI budget; raise them
//!   with `CHAOS_SCHEDULES=<n>` for soak runs (the count applies to each
//!   sweep function).
//! * A failing run shrinks its schedule to the minimal failing prefix and
//!   panics with the seed, the pretty-printed schedule, an obs trace of
//!   the minimal run, and the exact command to reproduce it:
//!   `CHAOS_SEED=0x… CHAOS_SCHEDULES=1 cargo test -q --test chaos <name>`.
//! * Reproduction is byte-for-byte: the same schedule always yields the
//!   same simulator fingerprint (asserted below).

use spot_jupiter::jupiter::{ExtraStrategy, ServiceSpec};
use spot_jupiter::obs::{AuditKind, Obs};
use spot_jupiter::paxos::{ClientOp, LockCmd, ReplicaConfig};
use spot_jupiter::replay::lifecycle::on_demand_baseline_cost;
use spot_jupiter::replay::{
    capacity_fault_schedule, market_fault_schedule, RepairConfig, Replay, ReplayConfig,
};
use spot_jupiter::simnet::{ChaosAction, ChaosEvent, ChaosPlan, ChaosSchedule, SimTime};
use spot_jupiter::spot_market::BidEra;
use test_util::{
    chaos_schedules, chaos_seed, check_lock_cluster, derive_seed, lock_cluster, quick_market,
    repair_pair, run_lock_chaos, run_lock_chaos_batched, run_storage_chaos,
    run_storage_chaos_batched, shrink_and_report, ChaosOutcome,
};

/// Default per-sweep schedule counts: two plain lock sweeps (30 each),
/// two batched lock sweeps (25 each), two storage sweeps (20 each) and
/// the capacity-driven migration sweep (50) give the ≥200-schedule
/// baseline the suite promises, with a dedicated 50-schedule slice
/// through the proactive-migration path.
const LOCK_SWEEP_DEFAULT: usize = 30;
const LOCK_BATCHED_DEFAULT: usize = 25;
const STORAGE_SWEEP_DEFAULT: usize = 20;
const MIGRATION_SWEEP_DEFAULT: usize = 50;

/// Run `n` seeded schedules through `run`, shrinking and reporting the
/// first failure. Returns (ops checked, unavailable reads, batches
/// audited) across the sweep as a sanity signal that the workloads
/// actually exercised the cluster — and, for the batched sweeps, that
/// multi-command batches really flowed through the chosen log.
fn sweep(
    test_name: &str,
    default_n: usize,
    stream: u64,
    plan: &ChaosPlan,
    run: impl Fn(&ChaosSchedule, &Obs) -> Result<ChaosOutcome, String> + Copy,
) -> (usize, usize, usize) {
    let n = chaos_schedules(default_n);
    let pinned = std::env::var("CHAOS_SEED").is_ok();
    let base = chaos_seed(0xC0FFEE);
    let mut ops = 0;
    let mut unavailable = 0;
    let mut batches = 0;
    for i in 0..n {
        // Pinned seeds are used verbatim so a printed failure seed
        // re-runs the exact schedule; otherwise each sweep draws from its
        // own derived stream.
        let seed = if pinned {
            base.wrapping_add(i as u64)
        } else {
            derive_seed(derive_seed(base, stream), i as u64)
        };
        let schedule = ChaosSchedule::generate(seed, plan);
        match run(&schedule, &Obs::disabled()) {
            Ok(out) => {
                ops += out.ops_checked;
                unavailable += out.unavailable_reads;
                batches += out.batches_checked;
            }
            Err(reason) => {
                let failure = shrink_and_report(&schedule, test_name, reason, run);
                panic!("{failure}");
            }
        }
    }
    (ops, unavailable, batches)
}

fn lock_plan() -> ChaosPlan {
    ChaosPlan::lock_service(SimTime::from_secs(60), 16)
}

fn storage_plan() -> ChaosPlan {
    ChaosPlan::storage_service(SimTime::from_secs(60), 12)
}

#[test]
fn lock_sweep_a() {
    let (ops, _, _) = sweep("lock_sweep_a", LOCK_SWEEP_DEFAULT, 0xA, &lock_plan(), run_lock_chaos);
    assert!(ops > 0, "sweep never audited a completed op");
}

#[test]
fn lock_sweep_b() {
    let (ops, _, _) = sweep("lock_sweep_b", LOCK_SWEEP_DEFAULT, 0xB, &lock_plan(), run_lock_chaos);
    assert!(ops > 0, "sweep never audited a completed op");
}

// Sweeps c/d run the same plans with leader batching + accept
// pipelining enabled (batch 4, pipeline 2): same safety checkers, plus
// the batch-atomicity audit. Together with a/b and the storage sweeps
// the suite still runs its ≥200-schedule baseline, half of it batched.
#[test]
fn lock_sweep_c_batched() {
    let (ops, _, batches) = sweep(
        "lock_sweep_c_batched",
        LOCK_BATCHED_DEFAULT,
        0xC,
        &lock_plan(),
        run_lock_chaos_batched,
    );
    assert!(ops > 0, "sweep never audited a completed op");
    assert!(batches > 0, "batched sweep never chose a multi-command batch");
}

#[test]
fn lock_sweep_d_batched() {
    let (ops, _, batches) = sweep(
        "lock_sweep_d_batched",
        LOCK_BATCHED_DEFAULT,
        0xD,
        &lock_plan(),
        run_lock_chaos_batched,
    );
    assert!(ops > 0, "sweep never audited a completed op");
    assert!(batches > 0, "batched sweep never chose a multi-command batch");
}

#[test]
fn storage_sweep_a() {
    let (ops, _, _) = sweep(
        "storage_sweep_a",
        STORAGE_SWEEP_DEFAULT,
        0x5A,
        &storage_plan(),
        run_storage_chaos,
    );
    assert!(ops > 0, "sweep never audited a completed op");
}

#[test]
fn storage_sweep_b_batched() {
    let (ops, _, batches) = sweep(
        "storage_sweep_b_batched",
        STORAGE_SWEEP_DEFAULT,
        0x5B,
        &storage_plan(),
        run_storage_chaos_batched,
    );
    assert!(ops > 0, "sweep never audited a completed op");
    assert!(batches > 0, "batched sweep never applied a batch slot");
}

#[test]
fn chaotic_runs_reproduce_byte_for_byte() {
    // The acceptance property behind every printed repro seed: the same
    // schedule yields the same simulator fingerprint, run after run.
    let s = ChaosSchedule::generate(0xFEED, &lock_plan());
    let a = run_lock_chaos(&s, &Obs::disabled()).expect("within-margin chaos is safe");
    let b = run_lock_chaos(&s, &Obs::disabled()).expect("within-margin chaos is safe");
    assert_eq!(a.fingerprint, b.fingerprint, "nondeterministic run");

    // And a different schedule takes a different trajectory.
    let other = ChaosSchedule::generate(0xFEED + 1, &lock_plan());
    let c = run_lock_chaos(&other, &Obs::disabled()).expect("within-margin chaos is safe");
    assert_ne!(a.fingerprint, c.fingerprint, "fingerprint ignores the schedule");
}

#[test]
fn failing_schedules_shrink_to_the_first_bad_event() {
    // Synthetic failure predicate (any crash "fails"): exercises the
    // shrinker and the report format without needing a real safety bug.
    let schedule = ChaosSchedule::generate(0xBAD, &lock_plan());
    let first_crash = schedule
        .events
        .iter()
        .position(|e| matches!(e.action, ChaosAction::Crash(_)))
        .expect("generated schedule has a crash");
    let run = |s: &ChaosSchedule, _: &Obs| -> Result<ChaosOutcome, String> {
        if s.events.iter().any(|e| matches!(e.action, ChaosAction::Crash(_))) {
            Err("synthetic: crash observed".into())
        } else {
            Ok(ChaosOutcome {
                fingerprint: 0,
                ops_checked: 0,
                unavailable_reads: 0,
                eroded_keys: 0,
                batches_checked: 0,
            })
        }
    };
    let failure = shrink_and_report(&schedule, "failing_schedules_shrink", "seen".into(), run);
    assert_eq!(failure.seed, 0xBAD);
    assert_eq!(failure.minimal_reason, "synthetic: crash observed");
    assert!(failure.repro.contains("CHAOS_SEED=0xbad"));
    // The minimal prefix ends exactly at the first crash: header line plus
    // one line per event.
    let printed_events = failure.schedule.lines().count() - 1;
    assert_eq!(printed_events, first_crash + 1, "not minimal:\n{failure}");
}

/// Replicas compact at different times, so the logs they retain start at
/// different slots: agreement is judged slot by slot. (Aligned by index,
/// the same run reports a slot order divergence on logs that agree.)
#[test]
fn agreement_is_checked_by_slot_across_compaction_floors() {
    let cfg = ReplicaConfig {
        compact_after: Some(8),
        ..ReplicaConfig::default()
    };
    let mut c = lock_cluster(5, cfg, 0x5107);
    let client = c.add_client();
    let acquire = |c: &mut spot_jupiter::paxos::Cluster<_>, n: usize| {
        for i in 0..n {
            let name = format!("l{i}");
            c.submit(
                client,
                ClientOp::App(LockCmd::Acquire {
                    name,
                    owner: client,
                }),
            );
        }
        assert!(c.run_until_drained(client, SimTime::from_secs(600)));
    };
    acquire(&mut c, 2);
    let leader = c.leader().expect("leader");
    let sleeper = *c
        .servers()
        .iter()
        .find(|&&s| s != leader)
        .expect("follower");
    // Asleep across two compactions, then rebooted: it resumes from a
    // snapshot, so its floor is where the snapshot was cut.
    c.apply_chaos(&ChaosAction::Crash(sleeper));
    acquire(&mut c, 20);
    c.apply_chaos(&ChaosAction::Restart(sleeper));
    c.sim.run_until(c.sim.now() + SimTime::from_secs(10));
    acquire(&mut c, 4);
    c.sim.run_until(c.sim.now() + SimTime::from_secs(10));
    let floor = |id| c.replica(id).expect("live").compaction_floor();
    assert!(floor(leader) >= 16, "two compactions at the leader");
    assert_ne!(floor(sleeper), floor(leader), "floors differ");
    assert!(c.assert_log_agreement() >= 26);
    let stats = check_lock_cluster(&c).expect("logs that agree pass the checker");
    // The history check judges every acquire, compacted away or not.
    assert_eq!(stats.ops_checked, 26);
}

/// Compress a schedule's timeline to at most `max` total duration,
/// preserving event order — market windows span days of simulated time,
/// far more than a protocol test needs between faults.
fn compress(schedule: &ChaosSchedule, max: SimTime) -> ChaosSchedule {
    let last = schedule
        .events
        .last()
        .map(|e| e.at.as_millis())
        .unwrap_or(0);
    if last <= max.as_millis() {
        return schedule.clone();
    }
    let k = last.div_ceil(max.as_millis());
    ChaosSchedule {
        seed: schedule.seed,
        events: schedule
            .events
            .iter()
            .map(|e| ChaosEvent {
                at: SimTime::from_millis(e.at.as_millis() / k),
                action: e.action.clone(),
            })
            .collect(),
    }
}

#[test]
fn repair_enabled_churn_sweep() {
    // The repair controller under market-derived chaos: for each seeded
    // market, replay the same kill-prone deployment with repair off and
    // with the hybrid policy (shared frozen kernels — identical boundary
    // decisions), check the repair ordering, then drive the live lock
    // cluster with the fault schedule derived from the *repairing*
    // replay, so repair rebids and on-demand boots join the crash /
    // restart timeline the safety checkers see.
    let n = chaos_schedules(8);
    let base = chaos_seed(0xC0FFEE);
    let eval_start = 7 * 24 * 60;
    let interval_hours = 3;
    // Strict improvement needs a kill the controller can still answer:
    // detection (1 min) + first backoff (5 min) + startup delay, with the
    // replacement running before the interval ends. 90 minutes of
    // headroom is comfortably past all three.
    let headroom = 90;
    let mut improved = 0usize;
    for i in 0..n {
        let seed = derive_seed(derive_seed(base, 0x4E), i as u64);
        let market = quick_market(seed, 2, 8);
        let (obs, _clock) = Obs::simulated();
        let (off, hybrid) = repair_pair(
            &market,
            eval_start,
            interval_hours,
            RepairConfig::hybrid(),
            &obs,
        );

        // Repair never hurts, and never outspends holding the fleet
        // on-demand for the whole window.
        assert!(
            hybrid.degraded_minutes <= off.degraded_minutes,
            "seed {seed:#x}: hybrid degraded {} > off {}",
            hybrid.degraded_minutes,
            off.degraded_minutes
        );
        assert!(hybrid.up_minutes >= off.up_minutes, "seed {seed:#x}");
        let baseline = on_demand_baseline_cost(
            &market,
            &ServiceSpec::lock_service(),
            ReplayConfig::new(eval_start, market.horizon(), interval_hours),
        );
        assert!(
            hybrid.total_cost < baseline,
            "seed {seed:#x}: repair cost {} ≥ on-demand baseline {baseline}",
            hybrid.total_cost,
        );

        // A mid-interval kill with repair headroom must strictly shrink
        // the degraded time.
        let interval_minutes = interval_hours * 60;
        let repairable_kill = off.instances.iter().any(|rec| {
            rec.termination == spot_jupiter::spot_market::Termination::Provider
                && off.intervals.iter().any(|iv| {
                    rec.ended_at >= iv.start
                        && rec.ended_at + headroom < iv.start + interval_minutes
                })
        });
        if repairable_kill {
            assert!(
                hybrid.degraded_minutes < off.degraded_minutes,
                "seed {seed:#x}: repairable kill but degraded did not shrink \
                 (off {}, hybrid {}) — repro: CHAOS_SEED={seed:#x} CHAOS_SCHEDULES=1 \
                 cargo test -q --test chaos repair_enabled_churn_sweep",
                off.degraded_minutes,
                hybrid.degraded_minutes
            );
            improved += 1;
        }

        // Safety under the repair-enabled timeline.
        let schedule = market_fault_schedule(&hybrid, eval_start, 5);
        let compressed = compress(&schedule, SimTime::from_secs(120));
        run_lock_chaos(&compressed, &Obs::disabled()).unwrap_or_else(|e| {
            panic!(
                "seed {seed:#x}: repair-enabled schedule broke safety: {e}\n{compressed}"
            )
        });
    }
    println!("repair_enabled_churn_sweep: base seed {base:#x}, {n} markets, {improved} with strict improvement");
    assert!(
        improved > 0,
        "no market produced a repairable kill — thin-margin fixture lost its churn"
    );
}

#[test]
fn market_derived_churn_preserves_lock_safety() {
    // Out-of-bid terminations from a real (synthetic-market) replay drive
    // the same fault pipeline: the timing pattern of correlated kills at
    // price spikes, not a random schedule. A deliberately thin bid margin
    // makes kills plentiful.
    let market = quick_market(21, 2, 8);
    let spec = ServiceSpec::lock_service();
    let eval_start = 7 * 24 * 60;
    let config = ReplayConfig::new(eval_start, 14 * 24 * 60, 3);
    let result = Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.02));
    let schedule = market_fault_schedule(&result, eval_start, 5);
    let crashes = schedule
        .events
        .iter()
        .filter(|e| matches!(e.action, ChaosAction::Crash(_)))
        .count();
    assert!(crashes > 0, "fixture must produce out-of-bid churn");

    let compressed = compress(&schedule, SimTime::from_secs(120));
    let out = run_lock_chaos(&compressed, &Obs::disabled())
        .unwrap_or_else(|e| panic!("market-derived schedule broke safety: {e}\n{compressed}"));
    // Histories live at the clients, so even a wipe of all five replicas
    // (each reboots from its disk) leaves every answered op to check.
    assert!(out.ops_checked > 0, "no ops audited");
}

#[test]
fn capacity_migration_sweep() {
    // The dedicated capacity-era slice of the schedule budget: for each
    // seeded market, replay the evaluation week under the capacity
    // regime with the proactive-migration policy, then drive the live
    // lock cluster with the correlated crash schedule derived from its
    // reclamations (gap-compressed so the cluster never idles for
    // simulated hours). A replacement that boots before its victim's
    // kill shows up as a Restart preceding the paired Crash — the view
    // change happens before the kill lands — so the safety checkers see
    // the whole notice → drain → view change → kill sequence. Failures
    // shrink and print a `CHAOS_SEED=…` repro like every other sweep.
    let n = chaos_schedules(MIGRATION_SWEEP_DEFAULT);
    let pinned = std::env::var("CHAOS_SEED").is_ok();
    let base = chaos_seed(0xC0FFEE);
    let spec = ServiceSpec::lock_service();
    let eval_start = 7 * 24 * 60;
    let mut drains = 0usize;
    let mut late = 0usize;
    let mut crashes_total = 0usize;
    let mut ops = 0usize;
    for i in 0..n {
        // Pinned seeds are used verbatim so a printed failure seed
        // re-runs the exact market; the derived schedule is a pure
        // function of the market replay.
        let seed = if pinned {
            base.wrapping_add(i as u64)
        } else {
            derive_seed(derive_seed(base, 0x316), i as u64)
        };
        let market = quick_market(seed, 2, 8);
        let config =
            ReplayConfig::new(eval_start, 14 * 24 * 60, 3).with_era(BidEra::CapacityReclaim);
        let (obs, _clock) = Obs::simulated();
        let result = Replay::new(&market, &spec, config)
            .repair(RepairConfig::migrate())
            .obs(&obs)
            .run(ExtraStrategy::new(0, 0.2));
        for r in &obs.audit.snapshot() {
            if let AuditKind::Migration { action, .. } = &r.kind {
                match action.as_str() {
                    "drained" => drains += 1,
                    "late_drain" => late += 1,
                    _ => {}
                }
            }
        }
        let derived = capacity_fault_schedule(&result, eval_start, 5);
        crashes_total += derived
            .events
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Crash(_)))
            .count();
        // Stamp the market seed on the derived schedule so a failure's
        // printed repro line re-runs this exact market.
        let schedule = ChaosSchedule {
            seed,
            events: derived.events,
        };
        match run_lock_chaos(&schedule, &Obs::disabled()) {
            Ok(out) => ops += out.ops_checked,
            Err(reason) => {
                let failure =
                    shrink_and_report(&schedule, "capacity_migration_sweep", reason, run_lock_chaos);
                panic!("{failure}");
            }
        }
    }
    println!(
        "capacity_migration_sweep: base seed {base:#x}, {n} markets, \
         {drains} drains ({late} late), {crashes_total} correlated crashes"
    );
    assert!(crashes_total > 0, "capacity regime produced no reclamation churn");
    assert!(drains >= 1, "no pre-deadline drain landed across the sweep");
    assert!(ops > 0, "sweep never audited a completed op");
}
