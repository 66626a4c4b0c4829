//! End-to-end protocol tests: elections, replication, failover, catch-up,
//! reconfiguration and client semantics on a simulated cluster.

use std::collections::BTreeMap;
use std::sync::Arc;

use obs::{Event, EventKind, FieldValue};
use paxos::{ClientOp, Cluster, Command, LockCmd, LockResp, LockService, PaxosNode, ReplicaConfig};
use simnet::{NetworkConfig, NodeId, SimTime};

fn cluster(n: usize, seed: u64) -> Cluster<LockService> {
    Cluster::new(
        n,
        LockService::new(),
        ReplicaConfig::default(),
        NetworkConfig::default(),
        seed,
    )
}

fn acquire(owner: NodeId, name: &str) -> ClientOp<LockCmd> {
    ClientOp::App(LockCmd::Acquire {
        name: name.into(),
        owner,
    })
}

fn release(owner: NodeId, name: &str) -> ClientOp<LockCmd> {
    ClientOp::App(LockCmd::Release {
        name: name.into(),
        owner,
    })
}

fn last_resp(c: &Cluster<LockService>, client: NodeId) -> Option<LockResp> {
    c.last_response(client)
}

#[test]
fn elects_a_leader_and_commits() {
    let mut c = cluster(5, 1);
    let client = c.add_client();
    c.submit(client, acquire(client, "master"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    assert_eq!(last_resp(&c, client), Some(LockResp::Granted));
    assert!(c.leader().is_some());
    // Every live replica applied the same log.
    let applied = c.assert_log_agreement();
    assert!(applied >= 1);
}

#[test]
fn lock_mutual_exclusion_across_clients() {
    let mut c = cluster(5, 2);
    let c1 = c.add_client();
    let c2 = c.add_client();
    c.submit(c1, acquire(c1, "lease"));
    assert!(c.run_until_drained(c1, SimTime::from_secs(30)));
    c.submit(c2, acquire(c2, "lease"));
    assert!(c.run_until_drained(c2, SimTime::from_secs(30)));
    assert_eq!(last_resp(&c, c1), Some(LockResp::Granted));
    assert_eq!(last_resp(&c, c2), Some(LockResp::Busy { holder: c1 }));
    // Release then re-acquire.
    c.submit(c1, release(c1, "lease"));
    assert!(c.run_until_drained(c1, SimTime::from_secs(30)));
    c.submit(c2, acquire(c2, "lease"));
    assert!(c.run_until_drained(c2, SimTime::from_secs(30)));
    assert_eq!(last_resp(&c, c2), Some(LockResp::Granted));
}

#[test]
fn survives_leader_crash() {
    let mut c = cluster(5, 3);
    let client = c.add_client();
    c.submit(client, acquire(client, "a"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    let leader = c.leader().expect("leader elected");
    c.crash(leader);
    // The service must keep working with 4 of 5 replicas.
    c.submit(client, acquire(client, "b"));
    assert!(c.run_until_drained(client, SimTime::from_secs(60)));
    assert_eq!(last_resp(&c, client), Some(LockResp::Granted));
    let new_leader = c.leader().expect("new leader elected");
    assert_ne!(new_leader, leader);
    c.assert_log_agreement();
}

#[test]
fn tolerates_two_of_five_failures() {
    let mut c = cluster(5, 4);
    let client = c.add_client();
    c.submit(client, acquire(client, "x"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    let leader = c.leader().unwrap();
    let victim = c.servers().iter().copied().find(|&s| s != leader).unwrap();
    c.crash(leader);
    c.crash(victim);
    c.submit(client, acquire(client, "y"));
    assert!(
        c.run_until_drained(client, SimTime::from_secs(120)),
        "3 of 5 replicas must still make progress"
    );
    c.assert_log_agreement();
}

#[test]
fn three_of_five_failures_block_progress() {
    let mut c = cluster(5, 5);
    let client = c.add_client();
    c.submit(client, acquire(client, "x"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    let victims: Vec<NodeId> = c.servers().iter().copied().take(3).collect();
    for v in victims {
        c.crash(v);
    }
    c.submit(client, acquire(client, "y"));
    assert!(
        !c.run_until_drained(client, SimTime::from_secs(30)),
        "a minority must not commit"
    );
}

#[test]
fn restarted_replica_catches_up() {
    let mut c = cluster(3, 6);
    let client = c.add_client();
    c.submit(client, acquire(client, "l1"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    let victim = c.servers()[0];
    c.crash(victim);
    for name in ["l2", "l3", "l4"] {
        c.submit(client, acquire(client, name));
        assert!(c.run_until_drained(client, SimTime::from_secs(60)));
    }
    assert!(c.current_view().is_some());
    c.restart_pristine(victim);
    c.sim.run_until(c.sim.now() + SimTime::from_secs(30));
    let restarted = c.replica(victim).unwrap();
    assert!(
        restarted.commit_index() >= 4,
        "restarted replica should learn the log, commit_index={}",
        restarted.commit_index()
    );
    c.assert_log_agreement();
}

#[test]
fn reconfiguration_replaces_a_replica() {
    let mut c = cluster(5, 7);
    let client = c.add_client();
    c.submit(client, acquire(client, "pre"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));

    // Launch a fresh instance, add it, then remove an old one — exactly
    // the replacement flow at a bidding-interval boundary (§4).
    let newcomer = c.spawn_server();
    let outgoing = c
        .servers()
        .iter()
        .copied()
        .find(|&s| Some(s) != c.leader() && s != newcomer)
        .unwrap();
    c.submit(
        client,
        ClientOp::Reconfig {
            add: vec![newcomer],
            remove: vec![outgoing],
        },
    );
    assert!(c.run_until_drained(client, SimTime::from_secs(60)));
    c.refresh_clients();

    let view = c.current_view().unwrap();
    assert!(view.contains(&newcomer), "newcomer in view");
    assert!(!view.contains(&outgoing), "outgoing removed from view");
    assert_eq!(view.len(), 5);

    // The reconfigured service still commits…
    c.submit(client, acquire(client, "post"));
    assert!(c.run_until_drained(client, SimTime::from_secs(60)));
    // …and the newcomer holds the full history.
    c.sim.run_until(c.sim.now() + SimTime::from_secs(10));
    let n = c.replica(newcomer).unwrap();
    assert!(
        n.commit_index() >= 3,
        "newcomer caught up: {}",
        n.commit_index()
    );
    // The removed replica retired itself.
    assert!(c.replica(outgoing).unwrap().is_retired());
}

#[test]
fn client_retransmissions_apply_once() {
    // A harsh network loses ~5% of messages; the client retries, but the
    // acquire/release pairing must still be exactly-once: releasing a lock
    // acquired once must never report NotHeld.
    let mut c = Cluster::new(
        5,
        LockService::new(),
        ReplicaConfig::default(),
        NetworkConfig::harsh(),
        8,
    );
    let client = c.add_client();
    for round in 0..5 {
        c.submit(client, acquire(client, "r"));
        assert!(
            c.run_until_drained(client, SimTime::from_secs(300)),
            "round {round} acquire"
        );
        assert_eq!(last_resp(&c, client), Some(LockResp::Granted));
        c.submit(client, release(client, "r"));
        assert!(
            c.run_until_drained(client, SimTime::from_secs(300)),
            "round {round} release"
        );
        assert_eq!(
            last_resp(&c, client),
            Some(LockResp::Released),
            "round {round}: double-applied acquire or lost release"
        );
    }
    c.assert_log_agreement();
}

#[test]
fn deterministic_replay() {
    let run = |seed| {
        let mut c = cluster(5, seed);
        let client = c.add_client();
        c.submit(client, acquire(client, "d"));
        c.run_until_drained(client, SimTime::from_secs(30));
        (c.sim.now(), c.sim.messages_delivered(), c.leader())
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn single_node_cluster_works() {
    let mut c = cluster(1, 9);
    let client = c.add_client();
    c.submit(client, acquire(client, "solo"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    assert_eq!(last_resp(&c, client), Some(LockResp::Granted));
}

#[test]
fn log_compaction_and_snapshot_catchup() {
    // Aggressive compaction: snapshot every 4 applied slots.
    let cfg = ReplicaConfig {
        compact_after: Some(4),
        ..ReplicaConfig::default()
    };
    let mut c = Cluster::new(3, LockService::new(), cfg, NetworkConfig::default(), 21);
    let client = c.add_client();

    // Crash a follower early so it misses compacted history.
    c.submit(client, acquire(client, "k0"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    let victim = c
        .servers()
        .iter()
        .copied()
        .find(|&s| Some(s) != c.leader())
        .unwrap();
    c.crash(victim);

    for i in 1..12 {
        c.submit(client, acquire(client, &format!("k{i}")));
        assert!(
            c.run_until_drained(client, SimTime::from_secs(60)),
            "op {i}"
        );
    }
    // The live replicas compacted well past the victim's log.
    let leader = c.leader().unwrap();
    assert!(
        c.replica(leader).unwrap().compaction_floor() >= 4,
        "floor {}",
        c.replica(leader).unwrap().compaction_floor()
    );

    // Restart: the victim must recover through a snapshot, not the log.
    assert!(c.current_view().is_some());
    c.restart_pristine(victim);
    c.sim.run_until(c.sim.now() + SimTime::from_secs(30));
    let r = c.replica(victim).unwrap();
    assert!(r.commit_index() >= 12, "commit_index {}", r.commit_index());
    assert_eq!(
        r.state_machine().held_count(),
        12,
        "snapshot carried the locks"
    );

    // And the service still works.
    c.submit(client, acquire(client, "post"));
    assert!(c.run_until_drained(client, SimTime::from_secs(60)));
}

#[test]
fn joiner_after_compaction_gets_snapshot() {
    let cfg = ReplicaConfig {
        compact_after: Some(4),
        ..ReplicaConfig::default()
    };
    let mut c = Cluster::new(3, LockService::new(), cfg, NetworkConfig::default(), 22);
    let client = c.add_client();
    for i in 0..10 {
        c.submit(client, acquire(client, &format!("pre{i}")));
        assert!(
            c.run_until_drained(client, SimTime::from_secs(60)),
            "op {i}"
        );
    }
    let newcomer = c.spawn_server();
    let outgoing = c
        .servers()
        .iter()
        .copied()
        .find(|&s| Some(s) != c.leader() && s != newcomer)
        .unwrap();
    c.submit(
        client,
        ClientOp::Reconfig {
            add: vec![newcomer],
            remove: vec![outgoing],
        },
    );
    assert!(c.run_until_drained(client, SimTime::from_secs(120)));
    c.refresh_clients();
    c.sim.run_until(c.sim.now() + SimTime::from_secs(20));
    let n = c.replica(newcomer).unwrap();
    assert!(
        n.commit_index() >= 10,
        "newcomer commit {}",
        n.commit_index()
    );
    assert_eq!(
        n.state_machine().held_count(),
        10,
        "joiner received the compacted state"
    );
}

#[test]
fn partition_minority_cannot_commit_majority_can() {
    let mut c = cluster(5, 10);
    let client = c.add_client();
    c.submit(client, acquire(client, "p0"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));

    let servers = c.servers().to_vec();
    let minority = vec![servers[0], servers[1]];
    let mut majority = vec![servers[2], servers[3], servers[4]];
    // The client must sit with the majority to observe commits.
    majority.push(client);
    c.sim.partition(vec![minority.clone(), majority]);

    c.submit(client, acquire(client, "p1"));
    assert!(
        c.run_until_drained(client, SimTime::from_secs(120)),
        "majority side must commit"
    );
    c.sim.heal();
    c.sim.run_until(c.sim.now() + SimTime::from_secs(30));
    c.assert_log_agreement();
}

#[test]
fn observability_captures_consensus_activity() {
    let (o, _clock) = obs::Obs::simulated();
    let cfg = ReplicaConfig {
        obs: o.clone(),
        ..ReplicaConfig::default()
    };
    let mut c = Cluster::new(3, LockService::new(), cfg, NetworkConfig::default(), 77);
    let client = c.add_client();
    c.submit(client, acquire(client, "obs"));
    assert!(c.run_until_drained(client, SimTime::from_secs(30)));
    assert_eq!(last_resp(&c, client), Some(LockResp::Granted));

    let snap = o.metrics.snapshot();
    // Becoming leader and committing a command exercises both phases.
    assert!(snap.counter("paxos.elections_started").unwrap_or(0) >= 1);
    assert!(snap.counter("paxos.leadership_acquired").unwrap_or(0) >= 1);
    assert!(snap.counter("paxos.msg_sent.prepare").unwrap_or(0) >= 2);
    assert!(snap.counter("paxos.msg_recv.promise").unwrap_or(0) >= 1);
    assert!(snap.counter("paxos.msg_sent.accept").unwrap_or(0) >= 2);
    assert!(snap.counter("paxos.msg_recv.accepted").unwrap_or(0) >= 1);
    assert!(snap.counter_family("paxos.msg_sent.") > 0);
    assert!(snap.histogram("paxos.phase2_micros").map_or(0, |h| h.count) >= 1);

    // The trace carries election and quorum-wait spans in sim time.
    let events = o.trace.events();
    assert!(events.iter().any(|e| e.name == "paxos.election"));
    assert!(events.iter().any(|e| e.name == "paxos.quorum_wait"));
}

#[test]
fn a_decided_value_exists_once() {
    // Every replica's copy of a slot is the one allocation the leader
    // proposed: accepts, commits, catch-up and the stored chosen value
    // share it. A deep copy on any single path (`wire_for` for an accept
    // or a commit, `reshape` for a catch-up entry) leaves two replicas
    // holding equal values at different addresses.
    let cfg = ReplicaConfig {
        batch_max_ops: 4,
        pipeline: 2,
        ..ReplicaConfig::default()
    };
    let mut c = Cluster::new(5, LockService::new(), cfg, NetworkConfig::default(), 23);
    for s in 0..6u64 {
        let schedule = (0..40u64)
            .map(|i| {
                let at = SimTime::from_millis(3_000 + 50 * i + 7 * s);
                let name = format!("k{}", (s * 40 + i) % 17);
                (
                    at,
                    LockCmd::Acquire {
                        name,
                        owner: NodeId(100 + s as usize),
                    },
                )
            })
            .collect();
        c.add_open_loop(schedule);
    }
    c.sim.run_until(SimTime::from_secs(20));
    c.assert_log_agreement();

    let mut first: BTreeMap<u64, Arc<Command<LockCmd>>> = BTreeMap::new();
    let (mut shared, mut batches) = (0, 0);
    for &id in c.servers() {
        for (slot, value) in c.replica(id).expect("fault-free run").applied_prefix() {
            match first.get(&slot) {
                None => {
                    batches += usize::from(matches!(*value, Command::Batch(_)));
                    first.insert(slot, value);
                }
                Some(v) => {
                    assert!(Arc::ptr_eq(v, &value), "slot {slot} held as two copies");
                    shared += 1;
                }
            }
        }
    }
    assert!(batches > 0, "the run batched");
    assert!(
        shared >= 4 * first.len(),
        "{shared} shared copies of {} slots",
        first.len()
    );
}

#[test]
fn batched_apps_flow_past_an_in_flight_reconfiguration() {
    // Batching with a pipeline window: a Reconfig in flight bars only a
    // second Reconfig at the front of the queue, so an App request that
    // arrives meanwhile is proposed in a slot above it before it applies.
    // The admin client sends each Reconfig on its 100 ms tick; the session
    // releases an App 40 ms later, which usually lands inside that
    // Reconfig's quorum round trip. Four rounds make "usually" certain.
    let (o, _clock) = obs::Obs::simulated();
    let cfg = ReplicaConfig {
        batch_max_ops: 4,
        pipeline: 2,
        obs: o.clone(),
        ..ReplicaConfig::default()
    };
    let mut c = Cluster::new(5, LockService::new(), cfg, NetworkConfig::default(), 24);
    let admin = c.add_client();
    let ticks: Vec<u64> = (0..4).map(|k| 3_300 + 500 * k).collect();
    let schedule: Vec<(SimTime, LockCmd)> = ticks
        .iter()
        .flat_map(|&t| [t + 40, t + 250])
        .map(|at| {
            let name = format!("k{at}");
            (
                SimTime::from_millis(at),
                LockCmd::Acquire {
                    name,
                    owner: NodeId(100),
                },
            )
        })
        .collect();
    let ops = schedule.len();
    let session = c.add_open_loop(schedule);
    let mut newcomers = Vec::new();
    for &tick in &ticks {
        c.sim.run_until(SimTime::from_millis(tick - 50));
        let newcomer = c.spawn_server();
        let add = vec![newcomer];
        c.submit(
            admin,
            ClientOp::Reconfig {
                add,
                remove: vec![],
            },
        );
        newcomers.push(newcomer);
    }
    assert!(c.run_until_drained(admin, SimTime::from_secs(60)));
    c.sim.run_until(c.sim.now() + SimTime::from_secs(10));

    // (a) Every op completed, the view changed, and the logs agree.
    let open_loop = c.sim.actor(session).and_then(PaxosNode::as_open_loop);
    assert_eq!(open_loop.expect("session exists").completions(), ops);
    let view = c.current_view().unwrap();
    assert!(newcomers.iter().all(|n| view.contains(n)), "{view:?}");
    c.assert_log_agreement();

    // (b) Some App slot above a Reconfig's was proposed before the
    // Reconfig's proposer applied it.
    let prefix = c
        .replica(c.leader().expect("a leader"))
        .unwrap()
        .applied_prefix();
    let reconfigs: Vec<u64> = prefix
        .iter()
        .filter(|(_, v)| matches!(**v, Command::Reconfig { .. }))
        .map(|&(slot, _)| slot)
        .collect();
    let apps: Vec<u64> = prefix
        .iter()
        .filter(|(_, v)| matches!(**v, Command::App { .. } | Command::Batch(_)))
        .map(|&(slot, _)| slot)
        .collect();
    assert_eq!(reconfigs.len(), newcomers.len());
    let events = o.trace.events();
    assert_eq!(o.trace.dropped(), 0);
    let field = |e: &Event, key: &str| {
        e.fields.iter().find_map(|(k, v)| match v {
            FieldValue::U64(x) if k == key => Some(*x),
            _ => None,
        })
    };
    let proposals: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "paxos.propose" && e.kind == EventKind::SpanStart)
        .collect();
    let overtaken = reconfigs.iter().filter(|&&r| {
        let proposer = proposals
            .iter()
            .find(|e| field(e, "slot") == Some(r))
            .and_then(|e| field(e, "node"));
        let applied_at = events
            .iter()
            .find(|e| {
                e.name == "paxos.apply"
                    && field(e, "slot") == Some(r)
                    && field(e, "node") == proposer
            })
            .expect("the proposer applied the Reconfig")
            .at_micros;
        proposals.iter().any(|e| {
            let slot = field(e, "slot").expect("propose spans carry a slot");
            slot > r && apps.contains(&slot) && e.at_micros < applied_at
        })
    });
    assert!(
        overtaken.count() > 0,
        "no App slot above a Reconfig slot {reconfigs:?} was proposed before it applied"
    );
}
