//! The lock serving path's heap traffic, as a budget that does not
//! depend on the host: a fixed open-loop run of the Paxos lock service
//! (Poisson 1000 req/s × 10 sim-s over 512 sessions, 1 M-client
//! population, batch 8, seed 2014) may make at most
//! `MAX_ALLOCS_PER_REQUEST` heap allocations per scheduled request.
//!
//! The count is deterministic — same seed, same schedule, same
//! allocations — so a deep copy of a slot value creeping back into the
//! accept, commit or apply path, or a per-event buffer in the simulator,
//! fails here on any machine. What the path costs in time is the repo
//! benchmark's `lock_serving` `ops_per_s`.
//!
//! The file is its own test binary with a single test because it installs
//! the counting `#[global_allocator]` of `test_util::alloc`.

use spot_jupiter::obs::Obs;
use spot_jupiter::simnet::{NetworkConfig, SimTime};
use spot_jupiter::workload::{run_lock_workload, ArrivalProcess, WorkloadSpec};
use test_util::alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The measured count (6.37 per request) plus 10 %; 10.56 while every
/// event's simulator context started an effects `Vec` of its own, and
/// 29.63 while every accept, commit and apply deep-copied the slot value.
const MAX_ALLOCS_PER_REQUEST: f64 = 7.0;

#[test]
fn lock_serving_allocations_per_request_stay_in_budget() {
    let spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: 1000.0,
        },
        horizon: SimTime::from_secs(10),
        sessions: 512,
        population: 1_000_000,
        seed: 2014,
        batch_max_ops: 8,
        trace_every: 0,
        ..WorkloadSpec::default()
    };
    let mut report = None;
    let allocs = allocations(|| {
        report = Some(run_lock_workload(
            &spec,
            NetworkConfig::default(),
            &Obs::disabled(),
        ));
    });
    let report = report.expect("the workload ran");
    assert_eq!(
        report.requests, 10_172,
        "the fixed spec schedules a fixed load"
    );
    assert_eq!(report.completed, report.requests);
    let per_request = allocs.count as f64 / report.requests as f64;
    let bytes_per_request = allocs.bytes as f64 / report.requests as f64;
    println!("{per_request:.2} allocations, {bytes_per_request:.0} bytes per request");
    assert!(
        per_request <= MAX_ALLOCS_PER_REQUEST,
        "{per_request:.2} allocations per request (budget {MAX_ALLOCS_PER_REQUEST}); \
         a slot value is being deep-copied again?"
    );
}
