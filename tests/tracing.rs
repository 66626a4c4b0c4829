//! End-to-end causal tracing: a committed Paxos operation yields a
//! complete causal trace (submit → propose → quorum → commit → apply)
//! whose critical path tiles the observed commit latency exactly; chaos
//! faults leave attributable marks inside the affected traces; and
//! trace-id allocation is a pure function of the simulation seed,
//! independent of how many host threads run simulations concurrently.
//!
//! (The thread-count test drives real `std::thread` concurrency:
//! simulations racing on separate OS threads allocate identical trace
//! ids.)

use spot_jupiter::obs::{assemble_traces, chrome_trace_json, critical_path, CausalTrace, Obs};
use spot_jupiter::paxos::{ClientOp, Cluster, LockCmd, LockService, ReplicaConfig};
use spot_jupiter::simnet::{LinkChaos, NetworkConfig, NodeId, SimTime};

fn traced_cluster(seed: u64) -> (Obs, Cluster<LockService>, NodeId) {
    let (obs, _clock) = Obs::simulated();
    let mut cluster = Cluster::new(
        3,
        LockService::new(),
        ReplicaConfig {
            obs: obs.clone(),
            ..ReplicaConfig::default()
        },
        NetworkConfig::default(),
        seed,
    );
    let client = cluster.add_client();
    (obs, cluster, client)
}

fn submit_lock_ops(cluster: &mut Cluster<LockService>, client: NodeId, n: usize) {
    for i in 0..n {
        let name = format!("lock-{}", i / 2);
        let cmd = if i % 2 == 0 {
            LockCmd::Acquire {
                name,
                owner: client,
            }
        } else {
            LockCmd::Release {
                name,
                owner: client,
            }
        };
        cluster.submit(client, ClientOp::App(cmd));
    }
}

/// Complete request traces (root `client.request`, every span closed, no
/// orphans) in assembly order.
fn complete_requests(traces: &[CausalTrace]) -> Vec<&CausalTrace> {
    traces
        .iter()
        .filter(|t| t.root().is_some_and(|r| r.name == "client.request") && t.is_complete())
        .collect()
}

#[test]
fn committed_ops_yield_complete_traces_whose_critical_path_tiles_latency() {
    let (obs, mut cluster, client) = traced_cluster(7);
    submit_lock_ops(&mut cluster, client, 4);
    assert!(cluster.run_until_drained(client, SimTime::from_secs(60)));

    let events = obs.trace.events();
    let traces = assemble_traces(&events);
    let complete = complete_requests(&traces);
    assert!(
        complete.len() >= 4,
        "expected ≥4 complete request traces, got {}",
        complete.len()
    );
    for t in &complete {
        // The critical path partitions the root interval: its segment
        // durations must sum to the observed commit latency exactly.
        let path = critical_path(t);
        let total: u64 = path.iter().map(|s| s.micros()).sum();
        assert_eq!(
            total,
            t.latency_micros().expect("complete root"),
            "critical path must tile the root interval (trace {})",
            t.trace_id
        );
        assert!(
            path.iter().any(|s| s.name != "client.request"),
            "critical path should descend into replica spans"
        );
        // The full cross-node chain is present under one trace id.
        assert!(t.spans.iter().any(|s| s.name == "paxos.propose"));
        assert!(t.spans.iter().any(|s| s.name == "paxos.quorum_wait"));
        assert!(t.instants.iter().any(|i| i.name == "paxos.commit"));
        assert!(t.instants.iter().any(|i| i.name == "paxos.apply"));
    }

    // The same events export cleanly to Chrome-trace JSON.
    let chrome = chrome_trace_json(&events);
    assert!(chrome.contains("\"client.request\""));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"ph\":\"i\""));
}

#[test]
fn dropped_phase2_messages_leave_attributable_marks_in_the_trace() {
    // Link chaos drops messages by probability, not by kind, so scan a
    // few seeds for a run where traced protocol traffic (Requests,
    // phase-2 Accepts/Accepteds, Commits) was actually dropped AND a
    // request trace shows the disturbance. Each run is deterministic per
    // seed, so the scan is stable.
    let mut found = false;
    for seed in 0..32u64 {
        let (obs, mut cluster, client) = traced_cluster(seed);
        // Reach steady state (leader elected) before enabling chaos.
        submit_lock_ops(&mut cluster, client, 2);
        assert!(cluster.run_until_drained(client, SimTime::from_secs(60)));
        cluster.sim.set_link_chaos(LinkChaos {
            drop_pr: 0.3,
            ..LinkChaos::default()
        });
        submit_lock_ops(&mut cluster, client, 6);
        let deadline = cluster.sim.now() + SimTime::from_secs(120);
        let _ = cluster.run_until_drained(client, deadline);

        let events = obs.trace.events();
        let traced_drops = events
            .iter()
            .filter(|e| e.name == "simnet.drop" && e.trace_id != 0)
            .count();
        let traces = assemble_traces(&events);
        // A disturbed trace: unfinished span sub-tree (orphaned by the
        // drop) or a client retransmit marking the lost attempt.
        let disturbed = traces
            .iter()
            .filter(|t| {
                !t.is_complete() || t.instants.iter().any(|i| i.name == "client.retransmit")
            })
            .count();
        if traced_drops == 0 || disturbed == 0 {
            continue;
        }
        // Attribution: some drop instant landed *inside* a request
        // trace, pointing the orphaned spans at their cause.
        assert!(
            traces
                .iter()
                .any(|t| t.instants.iter().any(|i| i.name == "simnet.drop")),
            "traced drops must appear as instants in their traces"
        );
        // Ops that did commit under chaos still carry exact traces.
        for t in complete_requests(&traces) {
            let total: u64 = critical_path(t).iter().map(|s| s.micros()).sum();
            assert_eq!(total, t.latency_micros().expect("complete root"));
        }
        found = true;
        break;
    }
    assert!(
        found,
        "no seed in 0..32 produced a traced drop plus a disturbed request trace"
    );
}

#[test]
fn trace_ids_are_identical_across_host_thread_counts() {
    fn run(seed: u64) -> (Vec<u64>, usize) {
        let (obs, mut cluster, client) = traced_cluster(seed);
        submit_lock_ops(&mut cluster, client, 4);
        assert!(cluster.run_until_drained(client, SimTime::from_secs(60)));
        let events = obs.trace.events();
        let mut ids: Vec<u64> = events
            .iter()
            .map(|e| e.trace_id)
            .filter(|&t| t != 0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        (ids, events.len())
    }

    let baseline = run(11);
    assert!(!baseline.0.is_empty(), "traced run recorded no trace ids");
    // The same simulation run on 1 and then 4 concurrent OS threads must
    // allocate byte-identical trace ids and record the same event count:
    // allocation state lives in the simulation, not in process globals.
    for threads in [1usize, 4] {
        let handles: Vec<_> = (0..threads)
            .map(|_| std::thread::spawn(move || run(11)))
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread panicked"), baseline);
        }
    }
}
