//! What an RS-Paxos replica keeps of the puts it applied, as a budget
//! that does not depend on the host: a fixed, fault-free θ(3,5) run
//! (batch 8, 64 open-loop sessions, Poisson 200 req/s × 10 sim-s over
//! 200 keys, half puts of 4 KiB / 16 KiB objects, seed 2014) must leave
//! every applied put in every replica's log with an empty shard, and the
//! heap it leaves live beyond the shard stores' bytes may come to at
//! most `MAX_LIVE_BYTES_PER_APPLIED_SLOT` per applied slot. The run may
//! make at most `MAX_ALLOCS_PER_REQUEST` heap allocations per scheduled
//! request, as `tests/serving_allocations.rs` bounds the lock path's, and
//! allocate at most `MAX_BYTES_PER_REQUEST` bytes per scheduled request.
//!
//! A shard belongs to the `ShardStore` once applied; a log that keeps
//! its own reference (or the accepted copy) holds every overwritten
//! version too, and the live bytes grow with the puts. A put is coded
//! once and then only shared: its key becomes one `Arc<str>` at
//! admission, its leading data shards views of the object itself and the
//! rest slices of one buffer, so a key, shard or object deep-copied per
//! message, per destination or per apply shows in the allocation count,
//! and an object copied per encode in the bytes allocated. All three are
//! deterministic, so any such regression fails here on any machine. What
//! the store costs in resident set and time is the repo benchmark's
//! `store_serving` `peak_rss_mb` and `ops_per_s`.
//!
//! The file is its own test binary with a single test because it installs
//! the counting `#[global_allocator]` of `test_util::alloc`.

use bytes::Bytes;
use spot_jupiter::simnet::{NetworkConfig, SimTime};
use spot_jupiter::storage::{RsCluster, RsConfig, RsNode, StoreCmd, WireValue};
use spot_jupiter::workload::{split_round_robin, ArrivalProcess};
use test_util::alloc::{allocations, Counting};
use test_util::rng_from;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The measured 614 live bytes per applied slot plus 10 %; 788 while a
/// put's data shards were slices of a framed copy of its object (the
/// leader's cache keeps the object and its shards), 2 657 while the log
/// kept a reference to every shard it applied.
const MAX_LIVE_BYTES_PER_APPLIED_SLOT: f64 = 675.0;

/// The measured count (19.69 per request) plus 10 %; 42.04 while every
/// slot value, wire value and store entry cloned its key as a `String`,
/// `Bytes` copied on every `From<Vec<u8>>` and `slice`, and every
/// catch-up reply re-encoded its shard.
const MAX_ALLOCS_PER_REQUEST: f64 = 21.6;

/// The measured 6 968 bytes allocated per request plus 10 %; 9 002 while
/// every encode copied the whole object into a framed buffer.
const MAX_BYTES_PER_REQUEST: f64 = 7_665.0;

const KEYS: u64 = 200;
const START: SimTime = SimTime::from_secs(3);

/// The object written under `key`: 16 KiB when `key % 5 == 0`, else 4 KiB.
fn object(key: u64) -> Bytes {
    let len = if key.is_multiple_of(5) { 16 * 1024 } else { 4 * 1024 };
    Bytes::from(
        (0..len)
            .map(|i| (key * 31 + i * 7) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// The run's requests, each session's in time order.
fn schedules() -> Vec<Vec<(SimTime, StoreCmd)>> {
    use rand::Rng;
    let objects: Vec<Bytes> = (0..KEYS).map(object).collect();
    let mut rng = rng_from(2014);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_sec: 200.0,
    }
    .sample(2014, SimTime::from_secs(10));
    let stream = arrivals
        .into_iter()
        .map(|at| {
            let k = rng.gen_range(0..KEYS);
            let key = format!("k{k}");
            let cmd = if rng.gen_bool(0.5) {
                StoreCmd::Put {
                    key,
                    object: objects[k as usize].clone(),
                }
            } else {
                StoreCmd::Get { key }
            };
            (START + at, cmd)
        })
        .collect();
    split_round_robin(stream, 64)
}

/// Whether any put in `value` still carries shard bytes.
fn holds_shard(value: &WireValue) -> bool {
    match value {
        WireValue::PutShard { shard, .. } => !shard.is_empty(),
        WireValue::Batch(subs) => subs.iter().any(holds_shard),
        _ => false,
    }
}

#[test]
fn applied_shards_live_in_the_store_alone() {
    let mut cluster = None;
    let mut requests = 0;
    let allocs = allocations(|| {
        let cfg = RsConfig {
            batch_max_ops: 8,
            ..RsConfig::default()
        };
        let mut c = RsCluster::new(5, cfg, NetworkConfig::default(), 2014);
        let schedules = schedules();
        requests = schedules.iter().map(Vec::len).sum::<usize>();
        let sessions: Vec<_> = schedules
            .into_iter()
            .map(|s| c.add_open_loop(s))
            .collect();
        c.sim.run_until(START + SimTime::from_secs(40));
        for id in sessions {
            let s = c.sim.actor(id).and_then(RsNode::as_open_loop);
            let drained = s.is_some_and(|s| s.completions() == s.records().len());
            assert!(drained, "session {id} drained");
        }
        cluster = Some(c);
    });
    let c = cluster.expect("the run finished");
    let (mut slots, mut shard_bytes) = (0usize, 0usize);
    for &id in c.servers() {
        let r = c.replica(id).expect("fault-free run");
        let applied = r.applied_prefix();
        if let Some((slot, _)) = applied.iter().find(|(_, v)| holds_shard(v)) {
            panic!("replica {id} keeps the shard of applied slot {slot} in its log");
        }
        slots += applied.len();
        shard_bytes += r.service().store().shard_bytes();
    }
    assert!(slots > 1_000, "{slots} applied slots");
    let per_slot = (allocs.live - shard_bytes as i64) as f64 / slots as f64;
    println!(
        "{per_slot:.0} live bytes per applied slot beyond {shard_bytes} shard bytes, \
         {slots} applied slots"
    );
    assert!(
        per_slot <= MAX_LIVE_BYTES_PER_APPLIED_SLOT,
        "{per_slot:.0} live bytes per applied slot (budget {MAX_LIVE_BYTES_PER_APPLIED_SLOT}); \
         is the log keeping applied shards again?"
    );
    let per_request = allocs.count as f64 / requests as f64;
    let bytes_per_request = allocs.bytes as f64 / requests as f64;
    println!(
        "{per_request:.2} allocations, {bytes_per_request:.0} bytes per request \
         over {requests} requests"
    );
    assert!(
        per_request <= MAX_ALLOCS_PER_REQUEST,
        "{per_request:.2} allocations per request (budget {MAX_ALLOCS_PER_REQUEST}); \
         is a key or shard being deep-copied again?"
    );
    assert!(
        bytes_per_request <= MAX_BYTES_PER_REQUEST,
        "{bytes_per_request:.0} bytes allocated per request (budget {MAX_BYTES_PER_REQUEST}); \
         is an object being copied per encode again?"
    );
}
