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
//!   run's exact numbers).

use proptest::prelude::*;
use spot_jupiter::obs::Obs;
use spot_jupiter::simnet::{NetworkConfig, SimTime};
use spot_jupiter::workload::{
    run_lock_workload, ArrivalProcess, WorkloadReport, WorkloadSpec,
};

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
