//! Message-flow golden for the consensus core: one FNV-1a-64 digest per
//! case over the simulator's event fingerprint, clock and delivery
//! count; every replica's commit index and the `{:?}` of the chosen log
//! it holds; every client and session record (request id, response,
//! completion time) in order; the `{prefix}.msg_sent.*` /
//! `{prefix}.msg_recv.*` / `elections_started` / `leadership_acquired`
//! counters and the sim-time `phase1_micros` / `phase2_micros` count and
//! sum; and, for the lock cases, the commit-latency numbers
//! `record_trace_metrics` folds out of the causal trace (`trace.*`). The
//! simulator draws its network RNG once per send, so a digest moves if a
//! replica sends one message more, fewer, or in a different order.
//!
//! All but the last two digests were recorded at commit 8f37684, when
//! the lock service and the store each had a hand-written replica
//! (`paxos::Replica<SM>`, `storage::RsReplica`), message enum, node enum
//! and open-loop session; they hold unchanged on the one generic core.
//! To reproduce them there, put this file into that tree with these
//! spellings and run `cargo test --offline --test consensus_golden`:
//!
//! | here                                        | at 8f37684 |
//! |---------------------------------------------|------------|
//! | `r.service().store()`, `r.service().batches_applied()` | `r.store()`, `r.batches_applied()` |
//! | `r.applied_prefix()` on a storage replica   | not in that tree; add to `RsReplica`: `pub fn applied_prefix(&self) -> Vec<(u64, WireValue)> { self.slots.iter().filter(\|(s, _)\| **s < self.commit_index).filter_map(\|(s, st)\| st.chosen.clone().map(\|v\| (*s, v))).collect() }` |
//! | `completed` in `store_history_part` (the shared client records `Option<StoreResp>`) | `h.completed` as is |
//! | `metrics_part` prints every `msg_sent.*` / `msg_recv.*` counter | skip names containing `.read_` (the lock service's two follower-read kinds, zero in every case here) |
//!
//! Everything else (`Cluster`, `RsCluster`, `PaxosNode::as_client`, the
//! `test_util` and `workload` drivers) is spelled the same in both trees.
//!
//! The last two cases (`lock_market_replay`, `store_workload_batched`)
//! were recorded at 1de41dd, the last tree with the counter-diffing perf
//! baseline: they take over its `lock_service_replay` and store-workload
//! pins, and its 22 lock-service counters held there.
//! `lock_market_replay` was 0x52edf1a18c2f40d1 then; it was re-keyed at
//! 4fda18e, where writing its three `service.*` series through
//! `SeriesSnapshot::to_json` instead of the since-deleted JSON-lines
//! exporter gives 0x640f8dd960cbf900 (same samples, other bytes). It was
//! re-pinned once more when `lock_service_replay` stopped re-running the
//! bidding loop and began playing the market replay's instance records:
//! the live service now runs the billed fleet, `trace.ops` went 96 → 97
//! and the digest moved to 0xebf8c2f878198f3d; the heartbeat count and
//! the p99 held.
//!
//! The two workload cases ("lock workload batch 8", "store workload
//! batch 8") were re-pinned when `WorkloadReport`'s count of
//! follower-served reads, always 0, was deleted: their `{report:?}`
//! line no longer prints it, and nothing else they digest moved. They were
//! 0xe14e69df98f4e032 and 0x0f3eee4c8d5af7d4 before.
//!
//! Four lock digests were re-pinned when the follower-local read path
//! was deleted, and the "lock local reads" case went with it. No run
//! moved; only the digested text did. "lock quiet" (0xd20aa4ff508dce05
//! before), "lock compaction + reconfig" (0xf983420dfb431cd5), "lock
//! workload batch 8" (0x1948a798cfc2ebc3) and "lock market replay"
//! (0xebf8c2f878198f3d) lost the four zero-valued
//! `paxos.msg_{sent,recv}.read_*` lines, and the first two the session
//! floor `lock_history_part` printed after `client {client}`. Each new
//! value is the old tree's digest with `metrics_part` skipping names
//! that contain `.read_` and `lock_history_part` printing
//! `client {client}` alone.
//!
//! "store quiet" (0x8e6d68431ff5be5a before) and "store open loop"
//! (0x6531026a967d91be) were re-pinned when an applied put's shard moved
//! out of the log into the `ShardStore`: a store replica's chosen log now
//! holds each applied put's decision with an empty shard. They are the
//! two cases that print a store replica's `applied_prefix()`. No run
//! moved: with every `PutShard`'s shard blanked in that print, the old
//! and the new tree give the same 17 digests, and they are the new pins.
//!
//! The same two were re-pinned once more when the erasure frame's u64
//! length moved from its head to a trailer (object, zero padding, length),
//! so that a put's leading data shards are views of the object: they are
//! also the two cases whose `store_replicas_part` prints a `ShardStore`,
//! whose `{:?}` spells out every shard's bytes. "store quiet" was
//! 0x4a9113ce7b6d1278 and "store open loop" 0x75c6a926a9ab49fc. No run
//! moved: with each `Some(b"…")` shard literal in the store's print
//! emptied, the old and the new tree give the same 17 digests (those two
//! read 0xbd22cd1ba6bafb6f and 0xec2c182e8438b28a in that form). Shard
//! counts and lengths, and every message, are unchanged; the five "store
//! chaos" cases rebuild reads from shards but print no shard bytes, so
//! they hold.

use std::fmt::{self, Write as _};

use bytes::Bytes;
use spot_jupiter::jupiter::JupiterStrategy;
use spot_jupiter::obs::Obs;
use spot_jupiter::paxos::{ClientOp, Cluster, LockCmd, LockService, PaxosNode, ReplicaConfig};
use spot_jupiter::replay::record_trace_metrics;
use spot_jupiter::replay::service_level::{lock_service_replay, ServiceReplayConfig};
use spot_jupiter::simnet::{ChaosAction, ChaosPlan, ChaosSchedule, NetworkConfig, NodeId, SimTime};
use spot_jupiter::storage::{RsCluster, RsConfig, RsNode, StoreCmd};
use spot_jupiter::workload::{
    run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadSpec,
};
use test_util::{
    derive_seed, lock_cluster, market_days, rng_from, run_lock_chaos, run_lock_chaos_batched,
    run_storage_chaos, run_storage_chaos_batched, storage_cluster, ChaosOutcome,
};

/// Digests in case order.
const WANT: [(&str, u64); 17] = [
    ("lock quiet", 0x28f991129ed7808a),
    ("lock compaction + reconfig", 0x4d5543bca77ebb0d),
    ("lock workload batch 8", 0x04ed2ae7a5f0528d),
    ("lock chaos 0", 0xff25cdd7409e68e8),
    ("lock chaos 1", 0x41663439141eb26c),
    ("lock chaos 2", 0xc2318c750e6e1125),
    ("lock chaos batched 3", 0xabf14cac73c02c7e),
    ("lock chaos batched 4", 0xea91f4e6bf7bfd9e),
    ("store quiet", 0x06882fe3673ad95a),
    ("store chaos 0", 0xc5865df524a35d21),
    ("store chaos 1", 0x219aae5d0a946ffb),
    ("store chaos 2", 0x8eaaaaf28d9aedf5),
    ("store chaos batched 3", 0x3589896b5842fcaa),
    ("store chaos batched 4", 0x7f945874ac4e2f39),
    ("store open loop", 0x34d5098a7530f850),
    // Recorded at 1de41dd (see the header).
    ("lock market replay", 0x4ecf3b8be72a46ef),
    ("store workload batch 8", 0x1427868e607f75df),
];

/// FNV-1a-64 over everything written into it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn simulated() -> Obs {
    Obs::simulated().0
}

/// The run's event digest, clock and delivery count.
fn sim_part<A>(d: &mut Digest, sim: &spot_jupiter::simnet::Simulation<A>)
where
    A: spot_jupiter::simnet::Actor,
    A::Msg: Clone,
{
    writeln!(
        d,
        "sim {:#x} {} {}",
        sim.fingerprint(),
        sim.now().as_millis(),
        sim.messages_delivered()
    )
    .unwrap();
}

/// Message counters by kind, elections, and the sim-time phase timers.
fn metrics_part(d: &mut Digest, obs: &Obs, prefix: &str) {
    let snap = obs.metrics.snapshot();
    let sent = format!("{prefix}.msg_sent.");
    let recv = format!("{prefix}.msg_recv.");
    let exact = [
        format!("{prefix}.elections_started"),
        format!("{prefix}.leadership_acquired"),
    ];
    for (name, v) in &snap.counters {
        if name.starts_with(&sent) || name.starts_with(&recv) || exact.contains(name) {
            writeln!(d, "{name} {v}").unwrap();
        }
    }
    for h in ["phase1_micros", "phase2_micros"] {
        let s = snap
            .histogram(&format!("{prefix}.{h}"))
            .expect("phase histogram registered");
        writeln!(d, "{prefix}.{h} {} {}", s.count, s.sum).unwrap();
    }
}

/// The commit-latency numbers folded out of the causal trace here.
fn trace_part(d: &mut Digest, obs: &Obs) {
    record_trace_metrics(obs);
    folded_trace_part(d, obs);
}

/// The same numbers after a run that folded the trace itself.
fn folded_trace_part(d: &mut Digest, obs: &Obs) {
    let snap = obs.metrics.snapshot();
    for name in [
        "trace.ops",
        "trace.commit_latency_p50_micros",
        "trace.commit_latency_p99_micros",
        "trace.incomplete",
        "trace.orphan_spans",
    ] {
        writeln!(d, "{name} {}", snap.counter(name).expect("trace counter")).unwrap();
    }
}

/// Per replica: commit index, compaction floor, membership and the
/// chosen log it still holds.
fn lock_replicas_part(d: &mut Digest, c: &Cluster<LockService>) {
    for &id in c.servers() {
        let Some(r) = c.replica(id) else {
            writeln!(d, "replica {id} down").unwrap();
            continue;
        };
        writeln!(
            d,
            "replica {id} commit {} floor {} view {:?}#{} retired {} leader {}",
            r.commit_index(),
            r.compaction_floor(),
            r.view(),
            r.view_id(),
            r.is_retired(),
            r.is_leader(),
        )
        .unwrap();
        writeln!(d, "{:?}", r.applied_prefix()).unwrap();
    }
}

fn store_replicas_part(d: &mut Digest, c: &RsCluster) {
    for &id in c.servers() {
        let Some(r) = c.replica(id) else {
            writeln!(d, "replica {id} down").unwrap();
            continue;
        };
        writeln!(
            d,
            "replica {id} commit {} leader {} batches {}",
            r.commit_index(),
            r.is_leader(),
            r.service().batches_applied()
        )
        .unwrap();
        writeln!(d, "{:?}", r.applied_prefix()).unwrap();
        writeln!(d, "{:?}", r.service().store()).unwrap();
    }
}

fn lock_history_part(d: &mut Digest, c: &Cluster<LockService>, client: NodeId) {
    let cl = c
        .sim
        .actor(client)
        .and_then(PaxosNode::as_client)
        .expect("client");
    writeln!(d, "client {client}").unwrap();
    for h in cl.history() {
        writeln!(
            d,
            "{} {} {:?}",
            h.req_id,
            h.issued_at.as_millis(),
            h.completed
        )
        .unwrap();
    }
}

fn store_history_part(d: &mut Digest, c: &RsCluster, client: NodeId) {
    let cl = c
        .sim
        .actor(client)
        .and_then(RsNode::as_client)
        .expect("client");
    writeln!(d, "client {client}").unwrap();
    for h in cl.history() {
        let completed = h
            .completed
            .clone()
            .map(|(t, r)| (t, r.expect("storage responses carry a payload")));
        writeln!(
            d,
            "{} {} {:?}",
            h.req_id,
            h.issued_at.as_millis(),
            completed
        )
        .unwrap();
    }
}

fn store_session_part(d: &mut Digest, c: &RsCluster, id: NodeId) {
    let s = c
        .sim
        .actor(id)
        .and_then(RsNode::as_open_loop)
        .expect("session");
    writeln!(d, "session {id} retransmits {}", s.retransmits()).unwrap();
    for (i, r) in s.records().iter().enumerate() {
        writeln!(d, "{} {:?}", i + 1, r.completed).unwrap();
    }
}

fn acquire(owner: NodeId, name: String) -> ClientOp<LockCmd> {
    ClientOp::App(LockCmd::Acquire { name, owner })
}

fn release(owner: NodeId, name: String) -> ClientOp<LockCmd> {
    ClientOp::App(LockCmd::Release { name, owner })
}

/// `n` alternating acquire/release/holder operations over a few locks.
fn submit_lock_ops(c: &mut Cluster<LockService>, client: NodeId, from: usize, n: usize) {
    for i in from..from + n {
        let name = format!("lock-{}", i % 7);
        let op = match i % 3 {
            0 => acquire(client, name),
            1 => ClientOp::App(LockCmd::Holder { name }),
            _ => release(client, name),
        };
        c.submit(client, op);
    }
}

fn object(tag: u64, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (tag.wrapping_mul(31).wrapping_add(i as u64 * 7) >> 2) as u8)
            .collect::<Vec<u8>>(),
    )
}

// ------------------------------------------------------------------ cases

/// Five replicas, one closed-loop client, 100 operations, no faults.
fn lock_quiet() -> u64 {
    let obs = simulated();
    let cfg = ReplicaConfig {
        obs: obs.clone(),
        ..ReplicaConfig::default()
    };
    let mut c = lock_cluster(5, cfg, 0x601D);
    let client = c.add_client();
    submit_lock_ops(&mut c, client, 0, 100);
    assert!(c.run_until_drained(client, SimTime::from_secs(600)));
    let mut d = Digest::new();
    sim_part(&mut d, &c.sim);
    lock_replicas_part(&mut d, &c);
    lock_history_part(&mut d, &c, client);
    metrics_part(&mut d, &obs, "paxos");
    trace_part(&mut d, &obs);
    d.0
}

/// Compaction every 16 slots; a follower sleeps through two
/// compactions and reboots (snapshot install by catch-up); a spawned
/// server joins by reconfiguration (snapshot to the joiner) while
/// another replica is removed.
fn lock_compaction_reconfig() -> u64 {
    let obs = simulated();
    let cfg = ReplicaConfig {
        compact_after: Some(16),
        obs: obs.clone(),
        ..ReplicaConfig::default()
    };
    let mut c = lock_cluster(5, cfg, 0x601E);
    let client = c.add_client();
    submit_lock_ops(&mut c, client, 0, 10);
    assert!(c.run_until_drained(client, SimTime::from_secs(120)));
    let leader = c.leader().expect("leader");
    let sleeper = c.servers().iter().copied().find(|&s| s != leader).unwrap();
    c.apply_chaos(&ChaosAction::Crash(sleeper));
    submit_lock_ops(&mut c, client, 10, 40);
    assert!(c.run_until_drained(client, SimTime::from_secs(600)));
    c.apply_chaos(&ChaosAction::Restart(sleeper));
    c.sim.run_until(c.sim.now() + SimTime::from_secs(10));
    assert!(
        c.replica(sleeper).unwrap().compaction_floor() >= 32,
        "the sleeper installed a snapshot past two compactions"
    );

    let newcomer = c.spawn_server();
    let leader = c.leader().expect("leader");
    let outgoing = c
        .servers()
        .iter()
        .copied()
        .find(|&s| s != leader && s != newcomer && s != sleeper)
        .unwrap();
    c.submit(
        client,
        ClientOp::Reconfig {
            add: vec![newcomer],
            remove: vec![outgoing],
        },
    );
    assert!(c.run_until_drained(client, SimTime::from_secs(900)));
    c.refresh_clients();
    submit_lock_ops(&mut c, client, 50, 20);
    assert!(c.run_until_drained(client, SimTime::from_secs(1200)));
    c.sim.run_until(c.sim.now() + SimTime::from_secs(10));
    assert!(
        c.replica(newcomer).unwrap().compaction_floor() > 0,
        "joiner got a snapshot"
    );
    assert!(c.replica(outgoing).unwrap().is_retired());

    let mut d = Digest::new();
    sim_part(&mut d, &c.sim);
    lock_replicas_part(&mut d, &c);
    lock_history_part(&mut d, &c, client);
    metrics_part(&mut d, &obs, "paxos");
    trace_part(&mut d, &obs);
    d.0
}

/// The workload engine at batch 8 for two simulated seconds.
fn lock_workload_batched() -> u64 {
    let obs = simulated();
    let spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: 400.0,
        },
        horizon: SimTime::from_secs(2),
        sessions: 32,
        batch_max_ops: 8,
        trace_every: 4,
        seed: 0x6020,
        ..WorkloadSpec::default()
    };
    let report = run_lock_workload(&spec, NetworkConfig::default(), &obs);
    assert_eq!(report.completed, report.requests);
    let mut d = Digest::new();
    writeln!(d, "{report:?}").unwrap();
    metrics_part(&mut d, &obs, "paxos");
    trace_part(&mut d, &obs);
    d.0
}

fn lock_chaos(i: u64, batched: bool) -> u64 {
    let plan = ChaosPlan::lock_service(SimTime::from_secs(60), 16);
    let s = ChaosSchedule::generate(derive_seed(0x6021, i), &plan);
    let run = if batched {
        run_lock_chaos_batched
    } else {
        run_lock_chaos
    };
    let out: ChaosOutcome = run(&s, &Obs::disabled()).expect("schedule is safe");
    let mut d = Digest::new();
    writeln!(d, "{out:?}").unwrap();
    d.0
}

/// θ(3,5), one closed-loop client: puts, overwrites, gets (hit and
/// miss) and deletes, no faults.
fn store_quiet() -> u64 {
    let obs = simulated();
    let cfg = RsConfig {
        obs: obs.clone(),
        ..RsConfig::default()
    };
    let mut c = storage_cluster(5, cfg, 0x6022);
    let client = c.add_client();
    c.submit(
        client,
        StoreCmd::Get {
            key: "ghost".into(),
        },
    );
    for i in 0..12u64 {
        let key = format!("k{}", i % 5);
        c.submit(
            client,
            StoreCmd::Put {
                key: key.clone(),
                object: object(i, 100 + 37 * i as usize),
            },
        );
        c.submit(client, StoreCmd::Get { key: key.clone() });
        if i % 4 == 3 {
            c.submit(client, StoreCmd::Delete { key: key.clone() });
            c.submit(client, StoreCmd::Get { key });
        }
    }
    assert!(c.run_until_drained(client, SimTime::from_secs(600)));
    let mut d = Digest::new();
    sim_part(&mut d, &c.sim);
    store_replicas_part(&mut d, &c);
    store_history_part(&mut d, &c, client);
    metrics_part(&mut d, &obs, "storage");
    d.0
}

fn store_chaos(i: u64, batched: bool) -> (u64, u64, u64) {
    let plan = ChaosPlan::storage_service(SimTime::from_secs(60), 12);
    let s = ChaosSchedule::generate(derive_seed(0x6023, i), &plan);
    let run = if batched {
        run_storage_chaos_batched
    } else {
        run_storage_chaos
    };
    let obs = simulated();
    let out = run(&s, &obs).expect("schedule is safe");
    let snap = obs.metrics.snapshot();
    let mut d = Digest::new();
    writeln!(d, "{out:?}").unwrap();
    metrics_part(&mut d, &obs, "storage");
    (
        d.0,
        snap.counter("storage.leadership_acquired").unwrap(),
        snap.counter("storage.reads_reconstructed").unwrap(),
    )
}

/// Eight open-loop sessions write and read 4 KiB / 64 KiB objects at
/// batch 8.
fn store_open_loop() -> u64 {
    let obs = simulated();
    let cfg = RsConfig {
        batch_max_ops: 8,
        obs: obs.clone(),
        ..RsConfig::default()
    };
    let mut c = RsCluster::new(5, cfg, NetworkConfig::default(), 0x6024);
    let mut rng = rng_from(derive_seed(0x6024, 2));
    use rand::Rng;
    let mut schedules: Vec<Vec<(SimTime, StoreCmd)>> = vec![Vec::new(); 8];
    let mut t = SimTime::from_secs(3);
    for i in 0..96u64 {
        t += SimTime::from_millis(rng.gen_range(1..25));
        let k = rng.gen_range(0..12u64);
        let key = format!("k{k}");
        let cmd = if rng.gen_bool(0.5) {
            StoreCmd::Get { key }
        } else {
            let len = if k % 5 == 0 { 64 * 1024 } else { 4 * 1024 };
            StoreCmd::Put {
                key,
                object: object(k, len),
            }
        };
        schedules[(i % 8) as usize].push((t, cmd));
    }
    let sessions: Vec<NodeId> = schedules.into_iter().map(|s| c.add_open_loop(s)).collect();
    c.sim.run_until(t + SimTime::from_secs(30));
    let mut d = Digest::new();
    sim_part(&mut d, &c.sim);
    store_replicas_part(&mut d, &c);
    for &id in &sessions {
        store_session_part(&mut d, &c, id);
        let done = c
            .sim
            .actor(id)
            .and_then(RsNode::as_open_loop)
            .map(|s| s.completions() == s.records().len());
        assert_eq!(done, Some(true), "session {id} drained");
    }
    metrics_part(&mut d, &obs, "storage");
    d.0
}

/// The live lock service under the spot market: Jupiter re-bids every
/// 2 h over a 4 h window of an 8-zone m1.small market; out-of-bid kills
/// crash replicas mid-protocol and every boundary reconfigures the view.
fn lock_market_replay() -> u64 {
    const WEEK: u64 = 7 * 24 * 60;
    let market = market_days(4242, 8, 3 * 7);
    let obs = simulated();
    let outcome = lock_service_replay(
        &market,
        JupiterStrategy::new().with_obs(obs.clone()),
        ServiceReplayConfig {
            eval_start: 2 * WEEK,
            window_minutes: 4 * 60,
            interval_hours: 2,
            seed: 4242,
        },
        &obs,
    )
    .expect("an initial fleet");
    let snap = obs.metrics.snapshot();
    // Legible on their own; the digest below covers them too.
    assert_eq!(snap.counter("paxos.msg_sent.heartbeat"), Some(4780));
    assert_eq!(snap.counter("trace.ops"), Some(97));
    assert_eq!(snap.counter("trace.commit_latency_p99_micros"), Some(1_272_000));
    let mut d = Digest::new();
    writeln!(d, "{outcome:?}").unwrap();
    metrics_part(&mut d, &obs, "paxos");
    folded_trace_part(&mut d, &obs);
    for (name, v) in &snap.counters {
        if name.starts_with("slo.request_latency.") {
            writeln!(d, "{name} {v}").unwrap();
        }
    }
    let mut series = obs.series.snapshot();
    series.retain(|s| s.name.starts_with("service."));
    assert_eq!(series.len(), 3, "crashes, fleet_size, reconfigs");
    for s in &series {
        writeln!(d, "{}", s.to_json()).unwrap();
    }
    d.0
}

/// The workload engine against the θ(3,5) store at batch 8 for two
/// simulated seconds.
fn store_workload_batched() -> u64 {
    let obs = simulated();
    let spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: 200.0,
        },
        horizon: SimTime::from_secs(2),
        sessions: 16,
        batch_max_ops: 8,
        trace_every: 4,
        seed: 0x6025,
        ..WorkloadSpec::default()
    };
    let report = run_storage_workload(&spec, NetworkConfig::default(), &obs);
    assert_eq!(report.completed, report.requests);
    let mut d = Digest::new();
    writeln!(d, "{report:?}").unwrap();
    metrics_part(&mut d, &obs, "storage");
    d.0
}

#[test]
fn digests_match_the_two_replica_tree() {
    let mut got = vec![
        lock_quiet(),
        lock_compaction_reconfig(),
        lock_workload_batched(),
    ];
    got.extend((0..3).map(|i| lock_chaos(i, false)));
    got.extend((3..5).map(|i| lock_chaos(i, true)));
    got.push(store_quiet());
    let (mut leaders, mut rebuilt) = (0, 0);
    for i in 0..5 {
        let (digest, l, r) = store_chaos(i, i >= 3);
        got.push(digest);
        leaders += l;
        rebuilt += r;
    }
    assert!(leaders > 5, "no storage schedule changed leader");
    assert!(rebuilt > 0, "no storage schedule reconstructed a read");
    got.push(store_open_loop());
    got.push(lock_market_replay());
    got.push(store_workload_batched());
    for ((case, want), got) in WANT.iter().zip(&got) {
        assert_eq!(got, want, "{case}: got {got:#018x}");
    }
    assert_eq!(got.len(), WANT.len());
}
