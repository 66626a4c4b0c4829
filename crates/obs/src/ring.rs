//! The bounded ring behind the [`crate::Tracer`], the
//! [`crate::AlertSink`] and the [`crate::AuditLog`]: keep the newest
//! `capacity` items, number every push, count what fell off.

use std::collections::VecDeque;

pub(crate) struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl<T: Clone> Ring<T> {
    /// An empty ring keeping at most `capacity` items (at least one).
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 1,
            dropped: 0,
        }
    }

    /// Append the item `make` builds from its sequence number (counted
    /// from 1 across evictions), evicting the oldest item when full.
    /// Returns that sequence number.
    pub(crate) fn push(&mut self, make: impl FnOnce(u64) -> T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.items.len() >= self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(make(seq));
        seq
    }

    /// Copy of the buffered items, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }

    /// Number of buffered items.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Items evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}
