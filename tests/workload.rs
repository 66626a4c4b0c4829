//! Integration coverage for the request-level workload engine and the
//! batched SMR fast path (DESIGN.md "Workload engine & batched fast
//! path"):
//!
//! * property tests for the seeded arrival processes — a Poisson
//!   stream's empirical rate stays within sampling tolerance of λ, and
//!   the diurnal process integrates to its configured daily volume;
//! * thread-count determinism — identical seeds yield identical arrival
//!   streams and identical `WorkloadReport`s no matter which thread
//!   runs them (the in-process counterpart of ci.sh's two-process diff
//!   over `repro workload`);
//! * the batching regression bar — at a reference load that saturates a
//!   depth-2 accept pipeline, enabling batching must not worsen the
//!   request-level p99 (`tests/consensus_golden.rs` pins a batched
//!   run's exact numbers);
//! * session monotonicity of follower-local reads — a seeded
//!   interleaving sweep whose session history the lock checker judges
//!   (a follower-served read must never return a value older than the
//!   session's last acknowledged write), with a printed-seed repro on
//!   failure.

use proptest::prelude::*;
use spot_jupiter::obs::Obs;
use spot_jupiter::paxos::open_loop::OpenLoopClient;
use spot_jupiter::paxos::{Cluster, LockCmd, LockService, PaxosNode, ReplicaConfig};
use spot_jupiter::simnet::{NetworkConfig, NodeId, SimTime};
use spot_jupiter::workload::{
    run_lock_workload, ArrivalProcess, WorkloadReport, WorkloadSpec,
};
use test_util::{check_lock_cluster, derive_seed, rng_from};

// ---- arrival-process properties -----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Empirical Poisson rate within 5σ of λ (σ = √(λT)/T for a count
    /// over horizon T): a seeded thinning sampler that drifted off its
    /// configured rate would blow through this for some (λ, seed).
    #[test]
    fn poisson_empirical_rate_tracks_lambda(
        rate in 5.0f64..150.0,
        seed in any::<u64>(),
    ) {
        let horizon_secs = 100u64;
        let p = ArrivalProcess::Poisson { rate_per_sec: rate };
        let n = p.sample(seed, SimTime::from_secs(horizon_secs)).len() as f64;
        let expected = rate * horizon_secs as f64;
        let tolerance = 5.0 * expected.sqrt() + 10.0;
        prop_assert!(
            (n - expected).abs() <= tolerance,
            "rate {rate}, seed {seed}: {n} arrivals vs expected {expected} ± {tolerance}"
        );
    }

    /// Over one full simulated day the diurnal process integrates to its
    /// configured daily volume (± 5σ): the sinusoid's calibration
    /// constant is exactly what this pins down.
    #[test]
    fn diurnal_integrates_to_daily_volume(
        volume in 1_000u64..50_000,
        seed in any::<u64>(),
    ) {
        let p = ArrivalProcess::Diurnal { daily_volume: volume };
        let n = p.sample(seed, SimTime::from_secs(86_400)).len() as f64;
        let expected = volume as f64;
        let tolerance = 5.0 * expected.sqrt() + 10.0;
        prop_assert!(
            (n - expected).abs() <= tolerance,
            "volume {volume}, seed {seed}: {n} arrivals vs {expected} ± {tolerance}"
        );
    }
}

// ---- determinism across threads -----------------------------------------

#[test]
fn identical_seeds_identical_streams_across_threads() {
    let p = ArrivalProcess::Bursty {
        base_rate: 20.0,
        peak_rate: 200.0,
        period: SimTime::from_secs(10),
        burst_len: SimTime::from_secs(2),
    };
    let horizon = SimTime::from_secs(120);
    let reference = p.sample(0xD15EA5E, horizon);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let p = p.clone();
            std::thread::spawn(move || p.sample(0xD15EA5E, horizon))
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("sampler thread"), reference);
    }
}

fn small_lock_spec() -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 40.0 },
        horizon: SimTime::from_secs(5),
        sessions: 16,
        population: 200,
        trace_every: 0,
        ..WorkloadSpec::default()
    }
}

#[test]
fn workload_reports_are_identical_across_threads() {
    // The whole engine — arrival sampling, command mix, DES run,
    // summary reduction — replays bit-identically on any thread. This
    // is the in-process form of the ci.sh gate that runs `repro --quick
    // workload` in two processes at one seed and diffs the rows.
    let spec = small_lock_spec();
    let reference = run_lock_workload(&spec, NetworkConfig::default(), &Obs::disabled());
    let handles: Vec<std::thread::JoinHandle<WorkloadReport>> = (0..3)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                run_lock_workload(&spec, NetworkConfig::default(), &Obs::disabled())
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("workload thread"), reference);
    }
}

// ---- the batching regression bar ----------------------------------------

#[test]
fn batching_does_not_worsen_p99_at_reference_load() {
    // Reference load: 60 req/s against a depth-2 pipeline. Unbatched,
    // the leader commits ~2 ops per commit round trip (~100 ms on the
    // default WAN model), ~20 ops/s — a third of the offered load, so
    // its queue (and p99) grows for the whole horizon. Batch 8 lifts
    // capacity past the load. The inequality is over the workload's own
    // scheduled→completion latencies.
    let reference = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 60.0 },
        horizon: SimTime::from_secs(10),
        sessions: 32,
        population: 500,
        trace_every: 0,
        pipeline: 2,
        batch_max_ops: 1,
        ..WorkloadSpec::default()
    };
    let unbatched = run_lock_workload(&reference, NetworkConfig::default(), &Obs::disabled());
    let batched_spec = WorkloadSpec {
        batch_max_ops: 8,
        ..reference
    };
    let batched = run_lock_workload(&batched_spec, NetworkConfig::default(), &Obs::disabled());

    // Both configurations must fully drain (batching may not lose ops).
    assert_eq!(unbatched.completed, unbatched.requests);
    assert_eq!(batched.completed, batched.requests);
    assert_eq!(batched.requests, unbatched.requests, "same arrival stream");

    // The load must genuinely saturate the unbatched pipeline —
    // otherwise the inequality below tests nothing.
    assert!(
        unbatched.latency_p99 > SimTime::from_secs(2),
        "reference load no longer saturates the unbatched pipeline \
         (p99 {} ms)",
        unbatched.latency_p99.as_millis()
    );
    assert!(
        batched.latency_p99 <= unbatched.latency_p99,
        "batching worsened request-level p99: batched {} ms > unbatched {} ms",
        batched.latency_p99.as_millis(),
        unbatched.latency_p99.as_millis()
    );
    // And the SLO availability must move the same direction.
    assert!(
        batched.availability_ppm >= unbatched.availability_ppm,
        "batching worsened SLO availability: {} ppm < {} ppm",
        batched.availability_ppm,
        unbatched.availability_ppm
    );
}

// ---- follower-local reads: session monotonicity -------------------------

/// One seeded interleaving: a single open-loop session alternates
/// Acquire → Holder → Release → Holder on one lock against a 5-replica
/// cluster with follower-local reads enabled. For one session, session
/// monotonicity ("a read never returns a value older than my last
/// acknowledged write") is linearizability, which the history checker
/// judges.
///
/// Returns (reads checked, reads served locally by a follower).
fn run_local_read_interleaving(seed: u64) -> (usize, usize) {
    let owner = NodeId(1);
    let cfg = ReplicaConfig {
        local_reads: true,
        ..ReplicaConfig::default()
    };
    let mut cluster = Cluster::new(
        5,
        LockService::new(),
        cfg,
        NetworkConfig::default(),
        derive_seed(seed, 1),
    );

    // Seeded gaps: the interleaving of reads with commit/apply traffic
    // at each follower is what varies run to run.
    let mut rng = rng_from(derive_seed(seed, 2));
    let mut t = SimTime::from_secs(3);
    let mut schedule = Vec::new();
    use rand::Rng;
    for _ in 0..12 {
        for cmd in [
            LockCmd::Acquire {
                name: "L".into(),
                owner,
            },
            LockCmd::Holder { name: "L".into() },
            LockCmd::Release {
                name: "L".into(),
                owner,
            },
            LockCmd::Holder { name: "L".into() },
        ] {
            t += SimTime::from_millis(rng.gen_range(20..400));
            schedule.push((t, cmd));
        }
    }
    let total = schedule.len();

    let id = NodeId(cluster.sim.node_count());
    let session = OpenLoopClient::new(id, cluster.servers().to_vec(), schedule)
        .with_local_reads(true)
        .with_trace_every(0);
    let got = cluster.sim.add_node(PaxosNode::OpenLoop(session));
    assert_eq!(got, id);

    let deadline = t + SimTime::from_secs(120);
    loop {
        let session = cluster
            .sim
            .actor(id)
            .and_then(PaxosNode::as_open_loop)
            .expect("session exists");
        if session.completions() == total || cluster.sim.now() >= deadline {
            break;
        }
        let next = cluster.sim.now() + SimTime::from_secs(1);
        cluster.sim.run_until(next.min(deadline));
    }

    let session = cluster
        .sim
        .actor(id)
        .and_then(PaxosNode::as_open_loop)
        .expect("session exists");
    let repro = format!("repro: run_local_read_interleaving({seed:#x})");
    assert_eq!(session.completions(), total, "ops left unanswered — {repro}");
    check_lock_cluster(&cluster).unwrap_or_else(|e| panic!("{e} — {repro}"));
    let reads = session
        .records()
        .iter()
        .filter(|op| matches!(op.cmd, LockCmd::Holder { .. }))
        .count();
    (reads, session.local_served() as usize)
}

#[test]
fn follower_local_reads_preserve_session_monotonicity() {
    let mut reads = 0;
    let mut local = 0;
    for seed in 0..24u64 {
        let (r, l) = run_local_read_interleaving(derive_seed(0x10CA1, seed));
        reads += r;
        local += l;
    }
    assert!(reads > 0, "sweep never checked a read");
    // The property is vacuous unless followers actually served reads.
    assert!(
        local > 0,
        "no read was ever served from follower-local state — the local-read \
         path is not being exercised"
    );
}
