//! Timestamped events and the deterministic event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use obs::TraceContext;

use crate::sim::{NodeId, TimerToken};
use crate::time::SimTime;

/// What a popped event instructs the simulation to do.
#[derive(Debug)]
pub enum EventKind<M> {
    /// Deliver `msg` from `from` to the event's target node. `trace` is
    /// the causal context the sender attached (or propagated); it rides
    /// the envelope so receivers can parent their spans under the
    /// sender's without the message type knowing about tracing.
    Deliver {
        from: NodeId,
        msg: M,
        trace: TraceContext,
    },
    /// Fire the timer identified by `token` on the event's target node.
    /// `epoch` guards against timers surviving a crash/restart cycle: a
    /// timer only fires if the node's incarnation epoch still matches.
    Timer { token: TimerToken, epoch: u64 },
}

/// A scheduled event: a timestamp, a target node and a payload.
#[derive(Debug)]
pub struct Event<M> {
    /// Virtual time at which the event occurs.
    pub at: SimTime,
    /// Monotone insertion sequence; ties on `at` are broken by `seq` so the
    /// execution order is a pure function of the schedule.
    pub seq: u64,
    /// Node the event targets.
    pub target: NodeId,
    /// Payload.
    pub kind: EventKind<M>,
}

/// Milliseconds the wheel covers, one bucket each. Network delays (tens
/// of ms, link-chaos spikes included) and protocol timers land inside
/// it; the far heap takes the rare longer timer, such as a sparse
/// open-loop session's next arrival.
const SPAN: u64 = 2048;
/// 64-bit words of the bucket occupancy mask.
const WORDS: usize = SPAN as usize / 64;
/// The end of a slot chain.
const NIL: u32 = u32::MAX;

/// A slab entry: a pending event, or a vacancy. `next` chains the
/// entries of one bucket in `seq` order, or the vacancies.
#[derive(Debug)]
struct Entry<M> {
    event: Option<Event<M>>,
    next: u32,
}

/// A deterministic event queue: events pop in `(at, seq)` order.
///
/// It is a calendar queue over integer milliseconds. Every pending event
/// is at or after `cursor`, the time of the last event popped. The ones
/// less than `SPAN` (2048) ms after it sit in a wheel of one-millisecond
/// buckets, each holding only its millisecond's events in push order;
/// the rest wait in a small-key far heap. Payloads live in a slab, so
/// buckets and the far heap move only slot indices.
///
/// Order equals `(at, seq)` because of one migration rule: whenever the
/// cursor advances, every far event now in range moves into its bucket,
/// in `(at, seq)` order, before anything else can push there. A direct
/// push to millisecond `t` needs `t - cursor < SPAN`, which is exactly
/// when the far events at `t` have already moved, so within a bucket the
/// migrated events precede the direct pushes, and both run in `seq`
/// order. The cursor never passes an event it has not popped, so a push
/// at the simulation's `now` is always in range.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    /// Time of the last event popped (ms); no pending event is earlier.
    cursor: u64,
    /// First and last slot of bucket `at % SPAN`: the events at `at`, for
    /// `at - cursor < SPAN`, chained in `seq` order (`NIL` when empty).
    buckets: Vec<(u32, u32)>,
    /// Bit `b` is set while bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// `(at, seq, slot)` of events at least `SPAN` ms past the cursor.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slab: Vec<Entry<M>>,
    /// First vacant slab entry (`NIL` when the slab is full).
    vacant: u32,
    len: usize,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            cursor: 0,
            buckets: vec![(NIL, NIL); SPAN as usize],
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
            slab: Vec::new(),
            vacant: NIL,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule an event; insertion order breaks timestamp ties. `at`
    /// must not precede the last popped event's time.
    pub(crate) fn push(&mut self, at: SimTime, target: NodeId, kind: EventKind<M>) {
        let at_ms = at.as_millis();
        assert!(at_ms >= self.cursor, "event scheduled before a popped one");
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Some(Event {
            at,
            seq,
            target,
            kind,
        });
        let entry = Entry { event, next: NIL };
        let slot = match self.vacant {
            NIL => {
                self.slab.push(entry);
                u32::try_from(self.slab.len() - 1)
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("fewer than 2^32 - 1 pending events")
            }
            slot => {
                self.vacant = std::mem::replace(&mut self.slab[slot as usize], entry).next;
                slot
            }
        };
        if at_ms - self.cursor < SPAN {
            self.file(at_ms, slot);
        } else {
            self.far.push(Reverse((at_ms, seq, slot)));
        }
        self.len += 1;
    }

    /// Remove and return the earliest event if it is due at or before
    /// `bound`. When nothing is due the queue is left as it was, so any
    /// later push at or after the last popped time is still accepted.
    pub(crate) fn pop_due(&mut self, bound: SimTime) -> Option<Event<M>> {
        let bucket = match self.first_bucket() {
            Some(bucket) => bucket,
            None => {
                let &Reverse((at, _, _)) = self.far.peek()?;
                if at > bound.as_millis() {
                    return None;
                }
                self.advance(at);
                (at % SPAN) as usize
            }
        };
        let (head, tail) = self.buckets[bucket];
        let entry = &self.slab[head as usize];
        let at = entry.event.as_ref().expect("filed slot is live").at;
        if at > bound {
            return None;
        }
        let next = entry.next;
        if at.as_millis() != self.cursor {
            self.advance(at.as_millis());
        }
        if head == tail {
            self.buckets[bucket] = (NIL, NIL);
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        } else {
            self.buckets[bucket].0 = next;
        }
        let entry = &mut self.slab[head as usize];
        entry.next = self.vacant;
        self.vacant = head;
        self.len -= 1;
        entry.event.take()
    }

    /// Append `slot`, an event at `at`, to its bucket.
    fn file(&mut self, at: u64, slot: u32) {
        let bucket = (at % SPAN) as usize;
        let (head, tail) = &mut self.buckets[bucket];
        if *head == NIL {
            *head = slot;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.slab[*tail as usize].next = slot;
        }
        *tail = slot;
    }

    /// Move the cursor to `to` (no wheel event precedes it) and migrate
    /// every far event that is now in range into its bucket.
    fn advance(&mut self, to: u64) {
        self.cursor = to;
        while let Some(&Reverse((at, _, slot))) = self.far.peek() {
            if at - to >= SPAN {
                break;
            }
            self.far.pop();
            self.file(at, slot);
        }
    }

    /// The non-empty bucket holding the earliest wheel event: the first
    /// set occupancy bit at or circularly after the cursor's bucket.
    fn first_bucket(&self) -> Option<usize> {
        let start = (self.cursor % SPAN) as usize;
        let (word, bit) = (start / 64, start % 64);
        let head = self.occupied[word] & (!0 << bit);
        if head != 0 {
            return Some(word * 64 + head.trailing_zeros() as usize);
        }
        // The bits of `word` at or above `bit` are clear, so the wrapped
        // pass may read that word whole.
        (1..=WORDS).find_map(|i| {
            let w = (word + i) % WORDS;
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(q: &mut EventQueue<u32>, at_ms: u64, target: usize, msg: u32) {
        q.push(
            SimTime::from_millis(at_ms),
            NodeId(target),
            EventKind::Deliver {
                from: NodeId(0),
                msg,
                trace: TraceContext::NONE,
            },
        );
    }

    fn msg(e: Event<u32>) -> u32 {
        match e.kind {
            EventKind::Deliver { msg, .. } => msg,
            EventKind::Timer { .. } => unreachable!(),
        }
    }

    /// Drain everything, returning the message numbers in pop order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop_due(SimTime::MAX).map(msg)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        deliver(&mut q, 30, 1, 3);
        deliver(&mut q, 10, 1, 1);
        deliver(&mut q, 20, 1, 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for msg in 0..5u32 {
            deliver(&mut q, 100, 1, msg);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_due_respects_the_bound() {
        let mut q = EventQueue::new();
        deliver(&mut q, 42, 0, 0);
        deliver(&mut q, 7, 0, 1);
        assert!(q.pop_due(SimTime::from_millis(6)).is_none());
        assert_eq!(q.len, 2);
        assert_eq!(q.pop_due(SimTime::from_millis(7)).map(msg), Some(1));
        assert!(q.pop_due(SimTime::from_millis(41)).is_none());
        assert_eq!(q.pop_due(SimTime::from_millis(42)).map(msg), Some(0));
        assert!(q.len == 0);
    }

    /// A far event at `T` moves into the wheel when the cursor comes
    /// within range, so it precedes a direct push at `T` made afterwards.
    #[test]
    fn far_event_pops_before_a_later_direct_push_at_its_time() {
        let mut q = EventQueue::new();
        deliver(&mut q, 3_000, 0, 0); // far: 3000 ms past the cursor
        deliver(&mut q, 1_000, 0, 1);
        assert_eq!(q.pop_due(SimTime::MAX).map(msg), Some(1)); // cursor 1000
        deliver(&mut q, 3_000, 0, 2); // direct: 2000 ms past the cursor
        assert_eq!(drain(&mut q), vec![0, 2]);
    }

    /// A push at the cursor's own millisecond while its bucket drains
    /// joins the back of that bucket.
    #[test]
    fn push_at_now_while_its_bucket_drains_pops_after_its_elders() {
        let mut q = EventQueue::new();
        deliver(&mut q, 50, 0, 0);
        deliver(&mut q, 50, 0, 1);
        deliver(&mut q, 51, 0, 3);
        assert_eq!(q.pop_due(SimTime::MAX).map(msg), Some(0));
        deliver(&mut q, 50, 0, 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    /// `run_until(bound)` with nothing due leaves the cursor alone, so the
    /// simulation may then push at `bound` (its new `now`).
    #[test]
    fn push_at_an_idle_bound_is_accepted() {
        let mut q = EventQueue::new();
        deliver(&mut q, 9_000, 0, 1);
        assert!(q.pop_due(SimTime::from_millis(5_000)).is_none());
        deliver(&mut q, 5_000, 0, 0);
        assert!(q.pop_due(SimTime::from_millis(4_999)).is_none());
        deliver(&mut q, 5_000, 0, 2);
        assert_eq!(drain(&mut q), vec![0, 2, 1]);
    }

    #[test]
    fn times_near_the_end_of_time_saturate() {
        let mut q = EventQueue::new();
        deliver(&mut q, u64::MAX, 0, 2);
        deliver(&mut q, u64::MAX - 1, 0, 1);
        deliver(&mut q, u64::MAX - SPAN, 0, 0);
        assert_eq!(q.pop_due(SimTime::MAX).map(msg), Some(0));
        deliver(&mut q, u64::MAX, 0, 3);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    /// A popped event as both sides report it: `(at, seq, target)`.
    type Popped = (u64, u64, usize);

    /// The reference: a std max-heap on reversed `(at, seq, target)`.
    type Reference = BinaryHeap<Reverse<Popped>>;

    /// Replay `ops` against the queue and the reference as the simulation
    /// drives them (pushes at `now` plus a delay, pops bounded, `now`
    /// moving to each popped time and to each idle `run_until` bound) and
    /// return both pop sequences as `(at, seq, target)`.
    fn replay(ops: &[(u8, u64, u64)]) -> (Vec<Popped>, Vec<Popped>) {
        let (mut q, mut reference) = (EventQueue::new(), Reference::new());
        let (mut now, mut seq) = (0u64, 0u64);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &(op, a, b) in ops {
            let target = (b % 8) as usize;
            let push_at = match op % 64 {
                0..=7 => Some(now),
                8..=19 => Some(now.saturating_add(20 + a % 61)),
                20..=27 => Some(now.saturating_add(800 + a % 801)),
                28..=31 => Some(now.saturating_add(SPAN - 1 + a % 2)),
                32..=37 => Some(now.saturating_add(SPAN + 1 + a % 100_000)),
                // Rare: once popped, it drags `now` to the end of time.
                38 if op < 64 => Some((u64::MAX - a % 3).max(now)),
                38 => Some(now.saturating_add(SPAN + a % 10)),
                _ => None,
            };
            if let Some(at) = push_at {
                deliver(&mut q, at, target, 0);
                reference.push(Reverse((at, seq, target)));
                seq += 1;
                continue;
            }
            let pending = reference.iter().map(|r| r.0 .0);
            let bound = match op % 64 {
                39..=43 => now.saturating_sub(1 + a % 50),
                44..=49 => pending
                    .clone()
                    .nth(a as usize % reference.len().max(1))
                    .unwrap_or(now),
                50..=55 => pending.min().unwrap_or(now).saturating_add(1 + a % 3),
                56..=60 => now.saturating_add(SPAN + a % 5_000),
                _ => u64::MAX,
            };
            // One bounded pop, or a whole `run_until(bound)` when `b` is odd.
            loop {
                let popped = q.pop_due(SimTime::from_millis(bound));
                let expected = match reference.peek() {
                    Some(&Reverse(e)) if e.0 <= bound => reference.pop().map(|r| r.0),
                    _ => None,
                };
                got.extend(popped.map(|e| (e.at.as_millis(), e.seq, e.target.0)));
                want.extend(expected);
                match expected {
                    Some((at, _, _)) => now = at,
                    None => {
                        if b % 2 == 1 && bound != u64::MAX {
                            now = now.max(bound);
                        }
                        break;
                    }
                }
                if b % 2 == 0 {
                    break;
                }
            }
            assert_eq!(q.len, reference.len());
        }
        while let Some(e) = q.pop_due(SimTime::MAX) {
            got.push((e.at.as_millis(), e.seq, e.target.0));
        }
        want.extend(std::iter::from_fn(|| reference.pop().map(|r| r.0)));
        (got, want)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The wheel, its far heap and its bounded pops produce exactly
        /// the reference heap's `(at, seq)` order.
        #[test]
        fn pops_match_a_reference_heap(
            ops in proptest::collection::vec((0u8..=255, 0u64..u64::MAX, 0u64..u64::MAX), 1..300),
        ) {
            let (got, want) = replay(&ops);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
