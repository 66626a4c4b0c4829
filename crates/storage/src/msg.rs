//! RS-Paxos commands, slot values and service-only messages.

use std::sync::Arc;

use bytes::Bytes;
use simnet::NodeId;

/// An object key inside the service. A client's `String` becomes one
/// shared `Arc<str>` when the leader admits its command; every slot
/// value, wire value, message and store entry after that clones a
/// reference count. It prints like the `String` under `Debug`.
pub(crate) type Key = Arc<str>;

/// Client-visible store commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreCmd {
    /// Write `object` under `key`.
    Put {
        /// Object key.
        key: String,
        /// Object bytes (shipped whole to the leader, coded from there).
        object: Bytes,
    },
    /// Read the object under `key`.
    Get {
        /// Object key.
        key: String,
    },
    /// Remove `key`.
    Delete {
        /// Object key.
        key: String,
    },
}

/// Client-visible responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreResp {
    /// Put applied; the version is the log slot of the write.
    Stored {
        /// Version (log slot) assigned to the write.
        version: u64,
    },
    /// Get result.
    Value {
        /// The reconstructed object (`None` if the key is absent).
        object: Option<Bytes>,
    },
    /// Delete applied.
    Deleted,
    /// A read failed because too few shards survive (service degraded
    /// below the erasure threshold).
    Unavailable,
}

/// The value a slot carries, as the *leader* sees it (full object).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SlotValue {
    /// A write (full object at the leader; shards on the wire).
    Put {
        /// Originating client.
        client: NodeId,
        /// Client request id.
        req_id: u64,
        /// Object key.
        key: Key,
        /// Full object bytes.
        object: Bytes,
    },
    /// A serialized read marker.
    Get {
        /// Originating client.
        client: NodeId,
        /// Client request id.
        req_id: u64,
        /// Object key.
        key: Key,
    },
    /// A delete.
    Delete {
        /// Originating client.
        client: NodeId,
        /// Client request id.
        req_id: u64,
        /// Object key.
        key: Key,
    },
    /// Several commands agreed on as one slot value, applied in order
    /// and atomically within the slot. Invariants: never empty, never
    /// nested, no `Noop` inside, at most one entry per client, and no
    /// two puts to the same key (a put's version is the slot, which all
    /// entries share).
    Batch(Vec<SlotValue>),
    /// Gap filler after leader recovery.
    Noop,
}

/// What travels in an `Accept` / sits in an acceptor's log: coded for
/// puts, verbatim for data-free commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireValue {
    /// One shard of a `Put`.
    PutShard {
        /// Originating client.
        client: NodeId,
        /// Client request id.
        req_id: u64,
        /// Object key.
        key: Key,
        /// This acceptor's shard index.
        shard_idx: u8,
        /// Shard bytes.
        shard: Bytes,
    },
    /// A read marker (no payload).
    Get {
        /// Originating client.
        client: NodeId,
        /// Client request id.
        req_id: u64,
        /// Object key.
        key: Key,
    },
    /// A delete marker.
    Delete {
        /// Originating client.
        client: NodeId,
        /// Client request id.
        req_id: u64,
        /// Object key.
        key: Key,
    },
    /// A batch: one wire sub-value per `SlotValue::Batch` entry, in
    /// the same order (each destination gets its own shard for puts).
    Batch(Vec<WireValue>),
    /// Gap filler.
    Noop,
}

/// The messages only storage replicas exchange: gathering shards for a
/// read the leader cannot serve from its object cache.
#[derive(Clone, Debug)]
pub enum ShardMsg {
    /// Leader → replica: send me your shard of `(key, version)`.
    Pull {
        /// Object key.
        key: Key,
        /// Version (slot of the put).
        version: u64,
    },
    /// Replica → leader: here is my shard.
    Push {
        /// Object key.
        key: Key,
        /// Version.
        version: u64,
        /// Shard index.
        shard_idx: u8,
        /// Shard bytes.
        shard: Bytes,
    },
}

#[cfg(test)]
mod tests {
    use crate::RsService;
    use paxos::Msg;

    /// The simulator's event heap moves every envelope ~log₂(queue) times
    /// per pop, so every message pays for the largest variant. A snapshot
    /// held inline made the store's 136 bytes.
    #[test]
    fn store_envelope_is_at_most_96_bytes() {
        let size = std::mem::size_of::<Msg<RsService>>();
        assert!(size <= 96, "Msg<RsService> is {size} bytes");
    }
}
