//! A Chubby-like advisory lock service as a replicated state machine
//! (§5.1.1).
//!
//! The service keeps a map from lock names to holders. Clients acquire and
//! release advisory locks; the safety property the paper highlights — a
//! lock can never be held by two clients at once — follows from the state
//! machine's determinism plus Paxos' agreement on the command order.

use std::collections::HashMap;

use simnet::NodeId;

use crate::smr::StateMachine;

/// Lock-service commands.
///
/// Leased variants carry the client's timestamp (`now_ms`): every replica
/// applies the same command with the same embedded time, so lease expiry
/// stays deterministic across the group — the Chubby approach of
/// evaluating time inside the replicated operation stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockCmd {
    /// Try to acquire `name` on behalf of `owner` (no expiry).
    Acquire {
        /// Lock name.
        name: String,
        /// Requesting client.
        owner: NodeId,
    },
    /// Acquire with a lease: the lock self-releases `ttl_ms` after
    /// `now_ms` unless renewed (Chubby-style session lease).
    AcquireLease {
        /// Lock name.
        name: String,
        /// Requesting client.
        owner: NodeId,
        /// Client timestamp (ms) embedded for deterministic expiry.
        now_ms: u64,
        /// Lease duration in ms.
        ttl_ms: u64,
    },
    /// Extend a held lease by its original TTL from `now_ms`.
    Renew {
        /// Lock name.
        name: String,
        /// Renewing client.
        owner: NodeId,
        /// Client timestamp (ms).
        now_ms: u64,
    },
    /// Release `name` if held by `owner`.
    Release {
        /// Lock name.
        name: String,
        /// Releasing client.
        owner: NodeId,
    },
    /// Query the holder of `name` (read-only; still serialized through
    /// the log, like Chubby's linearizable reads). `now_ms` makes expired
    /// leases read as free.
    Holder {
        /// Lock name.
        name: String,
    },
}

/// Lock-service responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockResp {
    /// The lock was acquired (or already held by the requester).
    Granted,
    /// The lock is held by someone else.
    Busy {
        /// The current holder.
        holder: NodeId,
    },
    /// The lock was released.
    Released,
    /// Release failed: not held by the requester.
    NotHeld,
    /// Holder query result.
    HolderIs(Option<NodeId>),
    /// The lease was extended to the embedded expiry (ms).
    Renewed {
        /// New expiry timestamp in ms.
        until_ms: u64,
    },
}

/// One held lock: the owner plus an optional lease.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Holding {
    owner: NodeId,
    /// `Some((expires_at_ms, ttl_ms))` for leased locks.
    lease: Option<(u64, u64)>,
}

/// The lock table. The latest command timestamp seen drives lazy lease
/// expiry (time only moves through the replicated command stream, so the
/// table stays deterministic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockService {
    /// Keyed SipHash: lock names come from clients. Nothing reads it in
    /// order; an iteration whose order can be observed must sort first.
    locks: HashMap<String, Holding>,
    /// High-water command timestamp (ms).
    clock_ms: u64,
}

impl LockService {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently held (non-expired) locks.
    pub fn held_count(&self) -> usize {
        self.locks
            .values()
            .filter(|h| !Self::expired(h, self.clock_ms))
            .count()
    }

    fn expired(h: &Holding, now_ms: u64) -> bool {
        h.lease.map(|(exp, _)| now_ms >= exp).unwrap_or(false)
    }

    fn advance_clock(&mut self, now_ms: u64) {
        self.clock_ms = self.clock_ms.max(now_ms);
    }

    /// The live (non-expired) holding for `name`.
    fn live(&self, name: &str) -> Option<&Holding> {
        self.locks
            .get(name)
            .filter(|h| !Self::expired(h, self.clock_ms))
    }
}

impl StateMachine for LockService {
    type Command = LockCmd;
    type Response = LockResp;

    fn apply(&mut self, cmd: &LockCmd) -> LockResp {
        match cmd {
            LockCmd::Acquire { name, owner } => match self.live(name) {
                None => {
                    self.locks.insert(
                        name.clone(),
                        Holding {
                            owner: *owner,
                            lease: None,
                        },
                    );
                    LockResp::Granted
                }
                Some(h) if h.owner == *owner => LockResp::Granted,
                Some(h) => LockResp::Busy { holder: h.owner },
            },
            LockCmd::AcquireLease {
                name,
                owner,
                now_ms,
                ttl_ms,
            } => {
                self.advance_clock(*now_ms);
                match self.live(name) {
                    Some(h) if h.owner != *owner => LockResp::Busy { holder: h.owner },
                    _ => {
                        self.locks.insert(
                            name.clone(),
                            Holding {
                                owner: *owner,
                                lease: Some((now_ms + ttl_ms, *ttl_ms)),
                            },
                        );
                        LockResp::Granted
                    }
                }
            }
            LockCmd::Renew {
                name,
                owner,
                now_ms,
            } => {
                self.advance_clock(*now_ms);
                match self.live(name) {
                    Some(h) if h.owner == *owner => match h.lease {
                        Some((_, ttl)) => {
                            let until = now_ms + ttl;
                            self.locks.insert(
                                name.clone(),
                                Holding {
                                    owner: *owner,
                                    lease: Some((until, ttl)),
                                },
                            );
                            LockResp::Renewed { until_ms: until }
                        }
                        None => LockResp::Granted, // unleased locks never expire
                    },
                    _ => LockResp::NotHeld,
                }
            }
            LockCmd::Release { name, owner } => {
                // One probe decides; the holding goes if it is the
                // owner's live lock or an expired husk of anyone's.
                let Some(h) = self.locks.get(name) else {
                    return LockResp::NotHeld;
                };
                let expired = Self::expired(h, self.clock_ms);
                let mine = !expired && h.owner == *owner;
                if mine || expired {
                    self.locks.remove(name);
                }
                if mine {
                    LockResp::Released
                } else {
                    LockResp::NotHeld
                }
            }
            LockCmd::Holder { name } => LockResp::HolderIs(self.live(name).map(|h| h.owner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> NodeId {
        NodeId(i)
    }

    /// Current holder of `name` (leases judged by the last seen command
    /// timestamp).
    fn holder(s: &LockService, name: &str) -> Option<NodeId> {
        s.locks
            .get(name)
            .filter(|h| !LockService::expired(h, s.clock_ms))
            .map(|h| h.owner)
    }

    #[test]
    fn acquire_release_cycle() {
        let mut s = LockService::new();
        let acq = |s: &mut LockService, o| {
            s.apply(&LockCmd::Acquire {
                name: "master".into(),
                owner: o,
            })
        };
        assert_eq!(acq(&mut s, c(1)), LockResp::Granted);
        assert_eq!(acq(&mut s, c(2)), LockResp::Busy { holder: c(1) });
        // Re-entrant acquire by the holder.
        assert_eq!(acq(&mut s, c(1)), LockResp::Granted);
        assert_eq!(
            s.apply(&LockCmd::Release {
                name: "master".into(),
                owner: c(2)
            }),
            LockResp::NotHeld
        );
        assert_eq!(
            s.apply(&LockCmd::Release {
                name: "master".into(),
                owner: c(1)
            }),
            LockResp::Released
        );
        assert_eq!(acq(&mut s, c(2)), LockResp::Granted);
    }

    #[test]
    fn holder_query() {
        let mut s = LockService::new();
        assert_eq!(
            s.apply(&LockCmd::Holder { name: "x".into() }),
            LockResp::HolderIs(None)
        );
        s.apply(&LockCmd::Acquire {
            name: "x".into(),
            owner: c(7),
        });
        assert_eq!(
            s.apply(&LockCmd::Holder { name: "x".into() }),
            LockResp::HolderIs(Some(c(7)))
        );
        assert_eq!(s.held_count(), 1);
    }

    #[test]
    fn determinism_under_replay() {
        let cmds = [
            LockCmd::Acquire {
                name: "a".into(),
                owner: c(1),
            },
            LockCmd::Acquire {
                name: "b".into(),
                owner: c(2),
            },
            LockCmd::Release {
                name: "a".into(),
                owner: c(1),
            },
            LockCmd::Acquire {
                name: "a".into(),
                owner: c(2),
            },
        ];
        let mut s1 = LockService::new();
        let mut s2 = LockService::new();
        let r1: Vec<LockResp> = cmds.iter().map(|c| s1.apply(c)).collect();
        let r2: Vec<LockResp> = cmds.iter().map(|c| s2.apply(c)).collect();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn leases_expire_and_free_the_lock() {
        let mut s = LockService::new();
        let r = s.apply(&LockCmd::AcquireLease {
            name: "lease".into(),
            owner: c(1),
            now_ms: 1_000,
            ttl_ms: 500,
        });
        assert_eq!(r, LockResp::Granted);
        assert_eq!(holder(&s, "lease"), Some(c(1)));
        // Before expiry another client is refused.
        let r = s.apply(&LockCmd::AcquireLease {
            name: "lease".into(),
            owner: c(2),
            now_ms: 1_400,
            ttl_ms: 500,
        });
        assert_eq!(r, LockResp::Busy { holder: c(1) });
        // After expiry the lock is free and transferrable.
        let r = s.apply(&LockCmd::AcquireLease {
            name: "lease".into(),
            owner: c(2),
            now_ms: 1_600,
            ttl_ms: 500,
        });
        assert_eq!(r, LockResp::Granted);
        assert_eq!(holder(&s, "lease"), Some(c(2)));
    }

    #[test]
    fn renew_extends_the_lease() {
        let mut s = LockService::new();
        s.apply(&LockCmd::AcquireLease {
            name: "l".into(),
            owner: c(1),
            now_ms: 0,
            ttl_ms: 100,
        });
        // Renew at 80: new expiry 180.
        let r = s.apply(&LockCmd::Renew {
            name: "l".into(),
            owner: c(1),
            now_ms: 80,
        });
        assert_eq!(r, LockResp::Renewed { until_ms: 180 });
        // Still held at 150 (past the original expiry).
        let r = s.apply(&LockCmd::Holder { name: "l".into() });
        assert_eq!(r, LockResp::HolderIs(Some(c(1))));
        // A renew after expiry fails.
        let mut s2 = s.clone();
        let r = s2.apply(&LockCmd::Renew {
            name: "l".into(),
            owner: c(1),
            now_ms: 500,
        });
        assert_eq!(r, LockResp::NotHeld);
        // Only the owner can renew.
        let r = s.apply(&LockCmd::Renew {
            name: "l".into(),
            owner: c(2),
            now_ms: 100,
        });
        assert_eq!(r, LockResp::NotHeld);
    }

    #[test]
    fn unleased_locks_never_expire() {
        let mut s = LockService::new();
        s.apply(&LockCmd::Acquire {
            name: "forever".into(),
            owner: c(1),
        });
        // Time marches on through other commands.
        s.apply(&LockCmd::AcquireLease {
            name: "other".into(),
            owner: c(2),
            now_ms: 1_000_000,
            ttl_ms: 1,
        });
        assert_eq!(holder(&s, "forever"), Some(c(1)));
        // Renew on an unleased lock is a harmless Granted.
        let r = s.apply(&LockCmd::Renew {
            name: "forever".into(),
            owner: c(1),
            now_ms: 2_000_000,
        });
        assert_eq!(r, LockResp::Granted);
    }

    #[test]
    fn expired_husk_is_cleaned_by_release() {
        let mut s = LockService::new();
        s.apply(&LockCmd::AcquireLease {
            name: "x".into(),
            owner: c(1),
            now_ms: 0,
            ttl_ms: 10,
        });
        s.apply(&LockCmd::AcquireLease {
            name: "y".into(),
            owner: c(2),
            now_ms: 100,
            ttl_ms: 10,
        });
        assert_eq!(holder(&s, "x"), None, "x expired");
        // Release by the stale owner reports NotHeld but clears the husk.
        let r = s.apply(&LockCmd::Release {
            name: "x".into(),
            owner: c(1),
        });
        assert_eq!(r, LockResp::NotHeld);
        let r = s.apply(&LockCmd::Acquire {
            name: "x".into(),
            owner: c(3),
        });
        assert_eq!(r, LockResp::Granted);
    }

    #[test]
    fn never_two_holders() {
        // Exhaustive interleaving of two clients competing for one lock:
        // after every command the lock has at most one holder.
        let mut s = LockService::new();
        let script = [
            LockCmd::Acquire {
                name: "l".into(),
                owner: c(1),
            },
            LockCmd::Acquire {
                name: "l".into(),
                owner: c(2),
            },
            LockCmd::Release {
                name: "l".into(),
                owner: c(2),
            },
            LockCmd::Acquire {
                name: "l".into(),
                owner: c(2),
            },
            LockCmd::Release {
                name: "l".into(),
                owner: c(1),
            },
            LockCmd::Acquire {
                name: "l".into(),
                owner: c(2),
            },
        ];
        for cmd in &script {
            s.apply(cmd);
            assert!(s.held_count() <= 1);
        }
        assert_eq!(holder(&s, "l"), Some(c(2)));
    }
}
