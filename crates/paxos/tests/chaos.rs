//! Chaos testing: randomized crash/restart schedules against the lock
//! service. Safety (log agreement) must hold unconditionally; progress
//! must hold because the schedule never takes more than two of five
//! replicas down at once.

use paxos::{ClientOp, Cluster, LockCmd, LockService, PaxosNode, ReplicaConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{NetworkConfig, NodeId, SimTime};

fn run_chaos(seed: u64, rounds: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut c: Cluster<LockService> = Cluster::new(
        5,
        LockService::new(),
        ReplicaConfig::default(),
        NetworkConfig::default(),
        seed,
    );
    let client = c.add_client();
    let mut down: Vec<NodeId> = Vec::new();

    for round in 0..rounds {
        // Random fault action keeping at least 3 replicas alive.
        match rng.gen_range(0..3) {
            0 if down.len() < 2 => {
                let up: Vec<NodeId> = c
                    .servers()
                    .iter()
                    .copied()
                    .filter(|n| !down.contains(n))
                    .collect();
                let victim = up[rng.gen_range(0..up.len())];
                c.crash(victim);
                down.push(victim);
            }
            1 if !down.is_empty() => {
                let idx = rng.gen_range(0..down.len());
                let node = down.swap_remove(idx);
                assert!(c.current_view().is_some(), "some replica alive");
                c.restart_pristine(node);
            }
            _ => {}
        }
        // A lock operation must still commit (quorum always alive).
        let name = format!("chaos-{round}");
        c.submit(
            client,
            ClientOp::App(LockCmd::Acquire {
                name,
                owner: client,
            }),
        );
        assert!(
            c.run_until_drained(client, c.sim.now() + SimTime::from_secs(180)),
            "seed {seed} round {round}: no progress with {} down",
            down.len()
        );
        // Safety after every step.
        c.assert_log_agreement();
    }
    // Let restarts catch up fully, then check the global invariant: every
    // live replica's state machine holds every acquired lock.
    for &n in &down.clone() {
        assert!(c.current_view().is_some(), "some replica alive");
        c.restart_pristine(n);
    }
    c.sim.run_until(c.sim.now() + SimTime::from_secs(60));
    let committed = c.assert_log_agreement();
    assert!(committed >= rounds, "only {committed} of {rounds} agreed");
    for &s in c.servers() {
        if let Some(r) = c.sim.actor(s).and_then(PaxosNode::as_server) {
            if r.commit_index() as usize >= rounds {
                assert!(
                    r.state_machine().held_count() >= rounds,
                    "replica {s} lost locks: {}",
                    r.state_machine().held_count()
                );
            }
        }
    }
}

#[test]
fn chaos_schedule_seed_1() {
    run_chaos(1, 12);
}

#[test]
fn chaos_schedule_seed_2() {
    run_chaos(2, 12);
}

#[test]
fn chaos_schedule_seed_3() {
    run_chaos(3, 12);
}

#[test]
fn chaos_harsh_network() {
    // Heavy loss + jitter, one permanent crash, continued progress.
    let mut c: Cluster<LockService> = Cluster::new(
        5,
        LockService::new(),
        ReplicaConfig::default(),
        NetworkConfig::harsh(),
        77,
    );
    let client = c.add_client();
    c.crash(c.servers()[4]);
    for round in 0..6 {
        c.submit(
            client,
            ClientOp::App(LockCmd::Acquire {
                name: format!("h{round}"),
                owner: client,
            }),
        );
        assert!(
            c.run_until_drained(client, c.sim.now() + SimTime::from_secs(600)),
            "round {round}"
        );
    }
    c.assert_log_agreement();
}
