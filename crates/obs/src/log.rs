//! The one bounded log: the [`crate::AuditLog`], the
//! [`crate::AlertSink`] and the [`crate::Tracer`]'s event buffer are each
//! a [`Log`] — keep the newest `capacity` items, number every push, count
//! what fell off — and [`json_lines`] is the one way a log's records
//! leave as JSON lines.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, shared log of `T`s. Cloning shares the buffer;
/// [`Log::disabled`] records nothing, hands out no sequence numbers, and
/// costs one `None` check per call.
pub struct Log<T> {
    ring: Option<Arc<Mutex<Ring<T>>>>,
}

impl<T> Log<T> {
    /// An enabled log keeping at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> Log<T> {
        Log {
            ring: Some(Arc::new(Mutex::new(Ring {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 1,
                dropped: 0,
            }))),
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> Log<T> {
        Log { ring: None }
    }

    /// Whether items are kept.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Append the item `make` builds from its sequence number (counted
    /// from 1 across evictions), evicting the oldest item when full.
    /// Returns that sequence number, or `None` (without calling `make`)
    /// when disabled.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) -> Option<u64> {
        let mut ring = self.ring()?;
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.items.len() >= ring.capacity {
            ring.items.pop_front();
            ring.dropped += 1;
        }
        ring.items.push_back(make(seq));
        Some(seq)
    }

    /// Copy of the buffered items, oldest first.
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.ring()
            .map_or_else(Vec::new, |r| r.items.iter().cloned().collect())
    }

    /// Items evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.ring().map_or(0, |r| r.dropped)
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.ring().map_or(0, |r| r.items.len())
    }

    /// Whether no item is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The locked ring, or `None` when disabled.
    fn ring(&self) -> Option<MutexGuard<'_, Ring<T>>> {
        let ring = self.ring.as_ref()?;
        Some(
            ring.lock()
                .expect("no thread panics while holding a log's lock"),
        )
    }
}

impl<T> Clone for Log<T> {
    fn clone(&self) -> Log<T> {
        Log {
            ring: self.ring.clone(),
        }
    }
}

impl<T> Default for Log<T> {
    /// The disabled log.
    fn default() -> Log<T> {
        Log::disabled()
    }
}

impl<T> std::fmt::Debug for Log<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.ring() {
            Some(ring) => f
                .debug_struct("Log")
                .field("len", &ring.items.len())
                .field("dropped", &ring.dropped)
                .finish(),
            None => f.write_str("Log(disabled)"),
        }
    }
}

/// `items` as JSON lines: one `to_json` object per line, e.g.
/// `json_lines(&audit.snapshot(), AuditRecord::to_json)`.
pub fn json_lines<T>(items: &[T], to_json: impl Fn(&T) -> String) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&to_json(item));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_sequences() {
        let log = Log::new(2);
        let seqs: Vec<_> = (0..5u64)
            .map(|i| log.push(|seq| (seq, i)).unwrap())
            .collect();
        assert_eq!(seqs, [1, 2, 3, 4, 5]);
        // The newest two are kept, oldest first; seqs keep counting
        // across evictions, and every eviction is counted.
        assert_eq!(log.snapshot(), [(4, 3), (5, 4)]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert!(!log.is_empty());
        // A clone shares the buffer.
        log.clone().push(|seq| (seq, 5));
        assert_eq!(log.snapshot(), [(5, 4), (6, 5)]);
        // Capacity zero still keeps one item.
        let one = Log::new(0);
        one.push(|seq| seq);
        one.push(|seq| seq);
        assert_eq!((one.snapshot(), one.dropped()), (vec![2], 1));
    }

    #[test]
    fn disabled_log_is_inert() {
        let log: Log<u64> = Log::disabled();
        assert!(!log.is_enabled());
        assert_eq!(
            log.push(|_| unreachable!("disabled logs build nothing")),
            None
        );
        assert!(log.snapshot().is_empty());
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert!(!Log::<u64>::default().is_enabled());
        assert_eq!(format!("{log:?}"), "Log(disabled)");
    }

    #[test]
    fn json_lines_writes_one_object_per_line() {
        assert_eq!(
            json_lines(&[1, 2], |i| format!("{{\"i\":{i}}}")),
            "{\"i\":1}\n{\"i\":2}\n"
        );
        assert_eq!(json_lines::<u8>(&[], |_| unreachable!()), "");
    }
}
