//! The per-replica shard store: the applied state of the coded log.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::msg::Key;

/// What one replica knows about one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Version = log slot of the latest applied `Put`.
    pub version: u64,
    /// This replica's shard index for that version.
    pub shard_idx: u8,
    /// The shard bytes — `None` when this replica learned the write's
    /// metadata (via catch-up from a leader without the object) but never
    /// received its shard.
    pub shard: Option<Bytes>,
}

/// The applied key → shard map of one replica.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStore {
    entries: BTreeMap<Key, ShardEntry>,
}

impl ShardStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Apply a `Put` shard (or metadata-only record). Later versions win;
    /// an equal version with bytes upgrades a metadata-only record.
    pub(crate) fn apply_put(
        &mut self,
        key: &Key,
        version: u64,
        shard_idx: u8,
        shard: Option<Bytes>,
    ) {
        match self.entries.get_mut(key) {
            Some(e) if e.version > version => {}
            Some(e) if e.version == version => {
                if e.shard.is_none() {
                    e.shard = shard;
                    e.shard_idx = shard_idx;
                }
            }
            _ => {
                self.entries.insert(
                    key.clone(),
                    ShardEntry {
                        version,
                        shard_idx,
                        shard,
                    },
                );
            }
        }
    }

    /// Apply a `Delete` (only if not superseded by a newer write).
    pub(crate) fn apply_delete(&mut self, key: &str, version: u64) {
        if let Some(e) = self.entries.get(key) {
            if e.version <= version {
                self.entries.remove(key);
            }
        }
    }

    /// This replica's record for `key`.
    pub fn get(&self, key: &str) -> Option<&ShardEntry> {
        self.entries.get(key)
    }

    /// Total bytes of shard data held (the storage-saving metric RS-Paxos
    /// optimizes).
    pub fn shard_bytes(&self) -> usize {
        self.entries
            .values()
            .filter_map(|e| e.shard.as_ref().map(Bytes::len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_monotone() {
        let mut s = ShardStore::new();
        s.apply_put(&"k".into(), 5, 1, Some(Bytes::from_static(b"v5")));
        s.apply_put(&"k".into(), 3, 1, Some(Bytes::from_static(b"v3")));
        assert_eq!(s.get("k").unwrap().version, 5);
        s.apply_put(&"k".into(), 9, 2, Some(Bytes::from_static(b"v9")));
        assert_eq!(s.get("k").unwrap().version, 9);
        assert_eq!(s.get("k").unwrap().shard_idx, 2);
    }

    #[test]
    fn metadata_upgraded_by_shard_arrival() {
        let mut s = ShardStore::new();
        s.apply_put(&"k".into(), 4, 3, None);
        assert!(s.get("k").unwrap().shard.is_none());
        s.apply_put(&"k".into(), 4, 3, Some(Bytes::from_static(b"late")));
        assert_eq!(s.get("k").unwrap().shard.as_deref(), Some(&b"late"[..]));
        // A second arrival does not clobber.
        s.apply_put(&"k".into(), 4, 0, Some(Bytes::from_static(b"dup")));
        assert_eq!(s.get("k").unwrap().shard.as_deref(), Some(&b"late"[..]));
    }

    #[test]
    fn delete_respects_versions() {
        let mut s = ShardStore::new();
        s.apply_put(&"k".into(), 10, 0, Some(Bytes::from_static(b"x")));
        // A stale delete (version 7 < 10) is ignored.
        s.apply_delete("k", 7);
        assert!(s.get("k").is_some());
        s.apply_delete("k", 11);
        assert!(s.get("k").is_none());
        // Deleting a missing key is a no-op.
        s.apply_delete("k", 12);
        assert!(s.entries.is_empty());
    }

    #[test]
    fn shard_bytes_accounting() {
        let mut s = ShardStore::new();
        s.apply_put(&"a".into(), 1, 0, Some(Bytes::from(vec![0u8; 100])));
        s.apply_put(&"b".into(), 2, 0, None);
        s.apply_put(&"c".into(), 3, 0, Some(Bytes::from(vec![0u8; 50])));
        assert_eq!(s.shard_bytes(), 150);
        assert_eq!(s.entries.len(), 3);
    }
}
