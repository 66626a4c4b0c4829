//! The RS-Paxos service: what the `paxos` replica core replicates when
//! values travel as erasure-coded shards.
#![deny(clippy::too_many_lines)]

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use bytes::Bytes;
use erasure::ReedSolomon;
use obs::{Counter, Obs};
use paxos::replica::PROPOSAL_RETRY;
use paxos::{Compose, Msg, PendingOp, QuorumRule, Replica, ReplicaConfig, Service, Slot};
use simnet::{Context, NodeId, SimTime};

use crate::msg::{Key, ShardMsg, SlotValue, StoreCmd, StoreResp, WireValue};
use crate::store::ShardStore;

/// RS-Paxos deployment parameters.
#[derive(Clone, Debug)]
pub struct RsConfig {
    /// Erasure data-shard count `m` (the code is θ(m, view.len())).
    pub m: usize,
    /// Maximum client commands combined into one slot. `1` (the
    /// default) makes every slot a one-op batch of the replica's one
    /// request queue.
    pub batch_max_ops: usize,
    /// How long the leader holds a non-full batch open for stragglers.
    pub batch_delay: SimTime,
    /// Maximum concurrently outstanding proposals (accept pipelining).
    /// `0` (the default) means unlimited.
    pub pipeline: usize,
    /// Observability sink (metrics + tracing). Disabled by default; when
    /// enabled the replica counts messages by kind, tracks elections and
    /// ballot churn, and times phase-1/phase-2 round trips in sim time.
    pub obs: Obs,
}

impl Default for RsConfig {
    fn default() -> Self {
        RsConfig {
            m: 3,
            batch_max_ops: 1,
            batch_delay: SimTime::from_millis(5),
            pipeline: 0,
            obs: Obs::disabled(),
        }
    }
}

impl RsConfig {
    /// The replica core's configuration for this deployment: `⌈(n+m)/2⌉`
    /// quorums, and no compaction — a snapshot of a [`ShardStore`] would
    /// carry the sender's shards, not the receiver's.
    pub(crate) fn core(&self) -> ReplicaConfig {
        ReplicaConfig {
            quorum: QuorumRule::RsPaxos { m: self.m },
            compact_after: None,
            batch_max_ops: self.batch_max_ops,
            batch_delay: self.batch_delay,
            pipeline: self.pipeline,
            obs: self.obs.clone(),
        }
    }
}

/// A slot value at the leader: the full command(s) plus the put shards,
/// encoded once per proposal.
#[derive(Clone, Debug)]
pub struct Coded {
    value: SlotValue,
    /// Per-sub-value encoded put shards, aligned with the batch entries
    /// (length 1 for singleton values): `shards[j]` is `Some` iff
    /// sub-value `j` is a put, and then indexed by view position.
    shards: Vec<Option<Vec<Bytes>>>,
}

/// The leader's copy of a key's latest version it saw chosen or rebuilt.
#[derive(Clone, Debug)]
struct Cached {
    version: u64,
    object: Bytes,
    /// Its `n` shards by view position: the ones the put was proposed
    /// with, or those of an object a read rebuilt, encoded once then.
    shards: Vec<Bytes>,
}

#[derive(Clone, Debug)]
struct PendingRead {
    client: NodeId,
    req_id: u64,
    shards: BTreeMap<u8, Bytes>,
    started: SimTime,
    last_pull: SimTime,
}

/// What an RS-Paxos storage replica keeps besides the log.
#[derive(Clone, Debug)]
pub struct RsService {
    codec: ReedSolomon,
    store: ShardStore,
    /// Leader-side full-object cache: key → its latest version.
    objects: HashMap<Key, Cached>,
    /// Reads awaiting shard reconstruction: (key, version) → state.
    /// Ordered, not hashed: reads due in one tick are answered and
    /// re-pulled in walk order, which must not vary from run to run.
    pending_reads: BTreeMap<(Key, u64), PendingRead>,
    /// Lifetime count of batch slot values applied (survives reboots;
    /// chaos sweeps assert the batched path actually ran).
    batches_applied: u64,
    reads_reconstructed: Counter,
}

/// An RS-Paxos storage replica.
pub type RsReplica = Replica<RsService>;

impl RsService {
    /// Service state for one replica of a θ(`cfg.m`, `n`) deployment.
    pub(crate) fn new(cfg: &RsConfig, n: usize) -> Self {
        assert!(cfg.m >= 1 && cfg.m <= n, "invalid erasure m");
        RsService {
            codec: ReedSolomon::new(cfg.m, n),
            store: ShardStore::new(),
            objects: HashMap::new(),
            pending_reads: BTreeMap::new(),
            batches_applied: 0,
            reads_reconstructed: cfg.obs.counter("storage.reads_reconstructed"),
        }
    }

    /// The applied shard store.
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// Lifetime count of batch slot values this replica has applied.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Recover one (sub-)value from the highest-ballot copies of it.
    /// `None` means a put with too few shards to reconstruct.
    fn recover_one(&self, first: &WireValue, copies: &[&WireValue]) -> Option<SlotValue> {
        let (client, req_id, key) = match first {
            WireValue::Noop => return Some(SlotValue::Noop),
            // Nested batches violate the wire invariant; treat as
            // unrecoverable rather than recurse.
            WireValue::Batch(_) => return None,
            WireValue::Get {
                client,
                req_id,
                key,
            } => {
                return Some(SlotValue::Get {
                    client: *client,
                    req_id: *req_id,
                    key: key.clone(),
                })
            }
            WireValue::Delete {
                client,
                req_id,
                key,
            } => {
                return Some(SlotValue::Delete {
                    client: *client,
                    req_id: *req_id,
                    key: key.clone(),
                })
            }
            WireValue::PutShard {
                client,
                req_id,
                key,
                ..
            } => (*client, *req_id, key.clone()),
        };
        let mut slots: Vec<Option<&Bytes>> = vec![None; self.codec.total_shards()];
        let mut have = 0usize;
        for v in copies {
            if let WireValue::PutShard {
                shard_idx, shard, ..
            } = v
            {
                if !shard.is_empty() && slots[*shard_idx as usize].is_none() {
                    slots[*shard_idx as usize] = Some(shard);
                    have += 1;
                }
            }
        }
        if have < self.codec.data_shards() {
            return None;
        }
        let object = self.codec.decode_object(&slots).ok()?;
        Some(SlotValue::Put {
            client,
            req_id,
            key,
            object: Bytes::from(object),
        })
    }

    /// `value` with its put shards encoded.
    fn encode(&self, value: SlotValue) -> Coded {
        let encode_one = |v: &SlotValue| match v {
            SlotValue::Put { object, .. } => Some(self.codec.encode_object(object)),
            _ => None,
        };
        let shards = match &value {
            SlotValue::Batch(subs) => subs.iter().map(encode_one).collect(),
            other => vec![encode_one(other)],
        };
        Coded { value, shards }
    }
}

/// The slot value of an admitted command; its key becomes the one
/// shared `Key` every later copy clones.
fn cmd_value(p: PendingOp<StoreCmd>) -> SlotValue {
    let PendingOp { client, req_id, .. } = p;
    match p.op {
        StoreCmd::Put { key, object } => SlotValue::Put {
            client,
            req_id,
            key: key.into(),
            object,
        },
        StoreCmd::Get { key } => SlotValue::Get {
            client,
            req_id,
            key: key.into(),
        },
        StoreCmd::Delete { key } => SlotValue::Delete {
            client,
            req_id,
            key: key.into(),
        },
    }
}

fn wire_one(value: &SlotValue, shards: Option<&Vec<Bytes>>, dest_idx: usize) -> WireValue {
    match value {
        SlotValue::Put {
            client,
            req_id,
            key,
            ..
        } => WireValue::PutShard {
            client: *client,
            req_id: *req_id,
            key: key.clone(),
            shard_idx: dest_idx as u8,
            shard: shards.expect("puts carry shards")[dest_idx].clone(),
        },
        SlotValue::Get {
            client,
            req_id,
            key,
        } => WireValue::Get {
            client: *client,
            req_id: *req_id,
            key: key.clone(),
        },
        SlotValue::Delete {
            client,
            req_id,
            key,
        } => WireValue::Delete {
            client: *client,
            req_id: *req_id,
            key: key.clone(),
        },
        SlotValue::Batch(_) => unreachable!("batches are never nested"),
        SlotValue::Noop => WireValue::Noop,
    }
}

/// Whether `value` carries `(client, req_id)` (descending into batches).
fn value_matches(value: &SlotValue, client: NodeId, req_id: u64) -> bool {
    match value {
        SlotValue::Put {
            client: c,
            req_id: r,
            ..
        }
        | SlotValue::Get {
            client: c,
            req_id: r,
            ..
        }
        | SlotValue::Delete {
            client: c,
            req_id: r,
            ..
        } => *c == client && *r == req_id,
        SlotValue::Batch(subs) => subs.iter().any(|s| value_matches(s, client, req_id)),
        SlotValue::Noop => false,
    }
}

/// `value` with its shard index and bytes blanked: what two replicas'
/// stored copies of one decision have in common.
fn decision(value: &WireValue) -> WireValue {
    match value {
        WireValue::Batch(subs) => WireValue::Batch(subs.iter().map(decision).collect()),
        WireValue::PutShard {
            client,
            req_id,
            key,
            ..
        } => WireValue::PutShard {
            client: *client,
            req_id: *req_id,
            key: key.clone(),
            shard_idx: 0,
            shard: Bytes::new(),
        },
        other => other.clone(),
    }
}

/// Drop the shard bytes of every put in `value`, keeping its metadata.
fn drop_shards(value: &mut WireValue) {
    match value {
        WireValue::PutShard { shard, .. } => *shard = Bytes::new(),
        WireValue::Batch(subs) => subs.iter_mut().for_each(drop_shards),
        _ => {}
    }
}

/// Give up on a read after this long without `m` shards.
const READ_TIMEOUT: SimTime = SimTime::from_secs(5);

impl Service for RsService {
    type Cmd = StoreCmd;
    type Resp = StoreResp;
    type Op = StoreCmd;
    type Value = Coded;
    type Wire = WireValue;
    type Ext = ShardMsg;
    /// Never built: the core runs with compaction off.
    type Snap = std::convert::Infallible;
    type Host = RsService;

    const PREFIX: &'static str = "storage";
    const EXT_KINDS: &'static [&'static str] = &["shard_pull", "shard_push"];
    const REPLICA_SALT: u64 = 0xD1B5_4A32;
    const CLIENT_SALT: u64 = 0x2545_F491;
    const CLIENT_TIMEOUT: SimTime = SimTime::from_millis(1_500);

    fn ext_kind(ext: &ShardMsg) -> usize {
        match ext {
            ShardMsg::Pull { .. } => 0,
            ShardMsg::Push { .. } => 1,
        }
    }

    /// Each acceptor gets its own shard of every put.
    fn wire_for(coded: &Coded, dest_idx: usize) -> WireValue {
        match &coded.value {
            SlotValue::Batch(subs) => WireValue::Batch(
                subs.iter()
                    .zip(&coded.shards)
                    .map(|(s, sh)| wire_one(s, sh.as_ref(), dest_idx))
                    .collect(),
            ),
            other => wire_one(other, coded.shards[0].as_ref(), dest_idx),
        }
    }

    /// Reconstruct a slot value from the highest-ballot shards seen in a
    /// prepare quorum. A chosen put always yields ≥ m shards here
    /// (quorum-intersection ≥ m); fewer shards prove the value was never
    /// chosen, so a no-op is safe. For batches the same argument holds
    /// per sub-put — a chosen batch yields ≥ m shards for *every* sub —
    /// so any unrecoverable sub proves the whole batch was never chosen
    /// and the slot no-ops atomically (a batch is never partially
    /// recovered).
    fn recover(host: &RsService, copies: &[&WireValue]) -> Coded {
        let value = match copies.first() {
            None => SlotValue::Noop,
            Some(WireValue::Batch(subs)) => (0..subs.len())
                .map(|j| {
                    let sub_copies: Vec<&WireValue> = copies
                        .iter()
                        .filter_map(|v| match v {
                            WireValue::Batch(s) if s.len() == subs.len() => s.get(j),
                            _ => None,
                        })
                        .collect();
                    host.recover_one(&subs[j], &sub_copies)
                })
                .collect::<Option<Vec<SlotValue>>>()
                .map_or(SlotValue::Noop, SlotValue::Batch),
            Some(first) => host.recover_one(first, copies).unwrap_or(SlotValue::Noop),
        };
        host.encode(value)
    }

    /// Hand the destination its cached shard while the leader caches the
    /// slot's put; otherwise send metadata (an empty shard) so the
    /// destination at least tracks versions.
    fn reshape(
        host: &RsService,
        chosen: &WireValue,
        slot: Slot,
        dest_idx: Option<usize>,
    ) -> WireValue {
        match chosen {
            // A batched put's version is the shared slot, so each sub
            // reshapes exactly like a singleton.
            WireValue::Batch(subs) => WireValue::Batch(
                subs.iter()
                    .map(|s| Self::reshape(host, s, slot, dest_idx))
                    .collect(),
            ),
            WireValue::PutShard {
                client,
                req_id,
                key,
                ..
            } => {
                let dest_idx = dest_idx.expect("storage peers are in the fixed view");
                let shard = match host.objects.get(key) {
                    Some(cached) if cached.version == slot => cached.shards[dest_idx].clone(),
                    _ => Bytes::new(),
                };
                WireValue::PutShard {
                    client: *client,
                    req_id: *req_id,
                    key: key.clone(),
                    shard_idx: dest_idx as u8,
                    shard,
                }
            }
            other => other.clone(),
        }
    }

    /// Upgrade metadata-only put records once real shard bytes arrive,
    /// sub-value by sub-value for batches. Both sides describe the same
    /// decided slot for the same destination, so only the shard bytes
    /// can differ.
    fn absorb(existing: &mut WireValue, incoming: WireValue) {
        match (existing, incoming) {
            (WireValue::PutShard { shard: e, .. }, WireValue::PutShard { shard: i, .. })
                if e.is_empty() && !i.is_empty() =>
            {
                *e = i;
            }
            (WireValue::Batch(es), WireValue::Batch(is)) if es.len() == is.len() => {
                for (e, i) in es.iter_mut().zip(is) {
                    Self::absorb(e, i);
                }
            }
            _ => {}
        }
    }

    /// An applied put's shard moves to the [`ShardStore`]; the log keeps it empty.
    fn take_applied(chosen: &mut WireValue) -> WireValue {
        let applied = chosen.clone();
        drop_shards(chosen);
        applied
    }

    fn same_decision(a: &WireValue, b: &WireValue) -> bool {
        decision(a) == decision(b)
    }

    fn carries(coded: &Coded, client: NodeId, req_id: u64) -> bool {
        value_matches(&coded.value, client, req_id)
    }

    /// One entry per client and one put per key share a slot (a batched
    /// put's version is the shared slot). A composition conflict means
    /// waiting cannot grow this batch further; only a genuinely short
    /// batch is worth holding open for the delay window.
    fn compose(queue: &VecDeque<PendingOp<StoreCmd>>, max_ops: usize) -> Compose {
        let mut clients = HashSet::new();
        let mut put_keys = HashSet::new();
        let mut take = 0usize;
        for p in queue {
            if take >= max_ops || !clients.insert(p.client) {
                break;
            }
            if let StoreCmd::Put { key, .. } = &p.op {
                if !put_keys.insert(key) {
                    break;
                }
            }
            take += 1;
        }
        Compose::Batch {
            take,
            full: take >= max_ops || take < queue.len(),
        }
    }

    fn value(host: &mut RsService, mut ops: Vec<PendingOp<StoreCmd>>) -> Coded {
        let value = if ops.len() == 1 {
            cmd_value(ops.pop().expect("len 1"))
        } else {
            SlotValue::Batch(ops.into_iter().map(cmd_value).collect())
        };
        host.encode(value)
    }

    /// Cache the full objects the leader just got chosen, with the shards
    /// they were proposed with (each batched put shares the slot as its
    /// version).
    fn chosen(host: &mut RsService, slot: Slot, coded: &Coded) {
        let subs = match &coded.value {
            SlotValue::Batch(subs) => subs.as_slice(),
            single => std::slice::from_ref(single),
        };
        for (sub, shards) in subs.iter().zip(&coded.shards) {
            if let (SlotValue::Put { key, object, .. }, Some(shards)) = (sub, shards) {
                let cached = Cached {
                    version: slot,
                    object: object.clone(),
                    shards: shards.clone(),
                };
                host.objects.insert(key.clone(), cached);
            }
        }
    }

    fn apply(r: &mut RsReplica, slot: Slot, value: WireValue, ctx: &mut Context<Msg<Self>>) {
        match value {
            WireValue::Batch(subs) => {
                // Sub-values apply in order; the slot is one apply step,
                // so no other slot's work interleaves (atomicity).
                r.service_mut().batches_applied += 1;
                for sub in subs {
                    apply_one(r, slot, sub, ctx);
                }
            }
            other => apply_one(r, slot, other, ctx),
        }
    }

    /// Retry / expire pending reads.
    fn tick(r: &mut RsReplica, ctx: &mut Context<Msg<Self>>) {
        let host = r.service();
        let mut expired = Vec::new();
        let mut repull = Vec::new();
        for (kv, read) in &host.pending_reads {
            if ctx.now.saturating_sub(read.started) >= READ_TIMEOUT {
                expired.push(kv.clone());
            } else if ctx.now.saturating_sub(read.last_pull) >= PROPOSAL_RETRY {
                repull.push(kv.clone());
            }
        }
        for kv in expired {
            let read = r.service_mut().pending_reads.remove(&kv).expect("present");
            r.finish(read.client, read.req_id, Some(StoreResp::Unavailable), ctx);
        }
        for kv in repull {
            if let Some(read) = r.service_mut().pending_reads.get_mut(&kv) {
                read.last_pull = ctx.now;
            }
            let (key, version) = kv;
            r.broadcast_msg(ctx, Msg::Ext(ShardMsg::Pull { key, version }));
        }
    }

    fn on_ext(r: &mut RsReplica, from: NodeId, ext: ShardMsg, ctx: &mut Context<Msg<Self>>) {
        match ext {
            ShardMsg::Pull { key, version } => {
                let Some(entry) = r.service().store.get(&key) else {
                    return;
                };
                if entry.version != version {
                    return;
                }
                if let Some(shard) = &entry.shard {
                    let push = ShardMsg::Push {
                        key,
                        version,
                        shard_idx: entry.shard_idx,
                        shard: shard.clone(),
                    };
                    r.send_msg(ctx, from, Msg::Ext(push));
                }
            }
            ShardMsg::Push {
                key,
                version,
                shard_idx,
                shard,
            } => {
                if let Some(read) = r.service_mut().pending_reads.get_mut(&(key, version)) {
                    read.shards.entry(shard_idx).or_insert(shard);
                    try_finish_reads(r, ctx);
                }
            }
        }
    }

    /// A deposed leader forgets the requests it had admitted and the
    /// reads it was reconstructing; clients retransmit.
    fn stepped_down(host: &mut RsService, queue: &mut VecDeque<PendingOp<StoreCmd>>) {
        queue.clear();
        host.pending_reads.clear();
    }

    fn snapshot(_host: &RsService) -> Self::Snap {
        unreachable!("the core's compaction is off for RS-Paxos")
    }

    fn restore(_host: &mut RsService, snap: Self::Snap) {
        match snap {}
    }

    fn op(cmd: StoreCmd) -> StoreCmd {
        cmd
    }
}

fn apply_one(r: &mut RsReplica, slot: Slot, value: WireValue, ctx: &mut Context<Msg<RsService>>) {
    match value {
        WireValue::Noop | WireValue::Batch(_) => {}
        WireValue::PutShard {
            client,
            req_id,
            key,
            shard_idx,
            shard,
        } => {
            let bytes = (!shard.is_empty()).then_some(shard);
            r.service_mut()
                .store
                .apply_put(&key, slot, shard_idx, bytes);
            r.finish(
                client,
                req_id,
                Some(StoreResp::Stored { version: slot }),
                ctx,
            );
        }
        WireValue::Delete {
            client,
            req_id,
            key,
        } => {
            let host = r.service_mut();
            host.store.apply_delete(&key, slot);
            host.objects.remove(&key);
            r.finish(client, req_id, Some(StoreResp::Deleted), ctx);
        }
        // Followers only note the read in dedup-free fashion.
        WireValue::Get {
            client,
            req_id,
            key,
        } if r.is_leader() => {
            let host = r.service_mut();
            let Some(entry) = host.store.get(&key) else {
                return r.finish(client, req_id, Some(StoreResp::Value { object: None }), ctx);
            };
            let version = entry.version;
            if let Some(cached) = host.objects.get(&key).filter(|c| c.version == version) {
                let object = Some(cached.object.clone());
                return r.finish(client, req_id, Some(StoreResp::Value { object }), ctx);
            }
            // Reconstruct: gather shards from peers.
            let mut shards = BTreeMap::new();
            if let Some(bytes) = &entry.shard {
                shards.insert(entry.shard_idx, bytes.clone());
            }
            host.pending_reads.insert(
                (key.clone(), version),
                PendingRead {
                    client,
                    req_id,
                    shards,
                    started: ctx.now,
                    last_pull: ctx.now,
                },
            );
            r.broadcast_msg(ctx, Msg::Ext(ShardMsg::Pull { key, version }));
            try_finish_reads(r, ctx);
        }
        WireValue::Get { .. } => {}
    }
}

/// Answer every pending read that has gathered `m` shards.
fn try_finish_reads(r: &mut RsReplica, ctx: &mut Context<Msg<RsService>>) {
    let host = r.service();
    let m = host.codec.data_shards();
    let done: Vec<(Key, u64)> = host
        .pending_reads
        .iter()
        .filter(|(_, read)| read.shards.len() >= m)
        .map(|(k, _)| k.clone())
        .collect();
    for key_ver in done {
        let host = r.service_mut();
        let read = host.pending_reads.remove(&key_ver).expect("present");
        let mut slots: Vec<Option<&Bytes>> = vec![None; host.codec.total_shards()];
        for (idx, bytes) in &read.shards {
            slots[*idx as usize] = Some(bytes);
        }
        let resp = match host.codec.decode_object(&slots) {
            Ok(object) => {
                // Adopted first, so its data shards are views of it.
                let object = Bytes::from(object);
                let cached = Cached {
                    version: key_ver.1,
                    shards: host.codec.encode_object(&object),
                    object,
                };
                let object = cached.object.clone();
                host.objects.insert(key_ver.0, cached);
                host.reads_reconstructed.inc();
                StoreResp::Value {
                    object: Some(object),
                }
            }
            Err(_) => StoreResp::Unavailable,
        };
        r.finish(read.client, read.req_id, Some(resp), ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No golden replays a read that waits out its timeout, so the value
    /// is held here.
    #[test]
    fn a_read_without_m_shards_gives_up_after_five_seconds() {
        assert_eq!(READ_TIMEOUT, SimTime::from_secs(5));
    }

    fn pending(client: usize, op: StoreCmd) -> PendingOp<StoreCmd> {
        PendingOp {
            client: NodeId(client),
            req_id: 7,
            op,
            trace: obs::TraceContext::NONE,
            at: SimTime::ZERO,
        }
    }

    fn put(client: usize, key: &str, len: usize) -> PendingOp<StoreCmd> {
        let object = (0..len)
            .map(|i| (i * 13 + client) as u8)
            .collect::<Vec<u8>>();
        let key = key.to_string();
        pending(
            client,
            StoreCmd::Put {
                key,
                object: object.into(),
            },
        )
    }

    /// `wire` with its shard bytes dropped.
    fn metadata(mut wire: WireValue) -> WireValue {
        drop_shards(&mut wire);
        wire
    }

    /// A catch-up reply must be the very value the proposal sent that
    /// destination — whichever replica's copy the leader reshapes from —
    /// while the object is cached at the slot; and metadata only (an empty
    /// shard, which `absorb` upgrades later) once the cached version
    /// differs or the key is gone.
    #[test]
    fn reshape_is_wire_for_while_the_object_is_cached() {
        const N: usize = 5;
        let slot: Slot = 9;
        let get = pending(12, StoreCmd::Get { key: "a".into() });
        for ops in [
            vec![put(10, "a", 4096)],
            vec![put(10, "a", 100), get, put(11, "b", 65_537)],
        ] {
            let mut host = RsService::new(&RsConfig::default(), N);
            let coded = RsService::value(&mut host, ops);
            RsService::chosen(&mut host, slot, &coded);
            for j in 0..N {
                let held = RsService::wire_for(&coded, j);
                for i in 0..N {
                    let sent = RsService::wire_for(&coded, i);
                    assert_eq!(RsService::reshape(&host, &held, slot, Some(i)), sent);
                }
            }

            let (held, sent) = (
                RsService::wire_for(&coded, 1),
                RsService::wire_for(&coded, 4),
            );
            // The slot is not the cached version of any key.
            assert_eq!(
                RsService::reshape(&host, &held, slot + 1, Some(4)),
                metadata(sent.clone())
            );
            // No key is cached.
            host.objects.clear();
            assert_eq!(
                RsService::reshape(&host, &held, slot, Some(4)),
                metadata(sent)
            );
        }
    }
}
