//! Safety checkers for the replicated services under fault injection.
//!
//! Both checkers return `Err(reason)` instead of panicking, so chaos
//! sweeps can shrink a failing schedule and attach a report instead of
//! dying at the first assert.
//!
//! # One history check for both services
//!
//! `linearize` judges what the clients saw, not what the replicas
//! hold: is there an order of the answered operations, consistent with
//! real time, under which a sequential `Model` reproduces every
//! observed response? It is Wing & Gong's search with Lowe's memo. Every
//! client keeps one operation on the wire, so a history is one ordered
//! sequence per client, a search state is the per-client cursors plus
//! the model state, and the memo holds every such pair already explored.
//! An unanswered operation may take effect at any point after it was
//! invoked, or never.
//!
//! The one search covers response fidelity, mutual exclusion, lease
//! monotonicity, read-your-writes and exactly-once application, over
//! every replica's lifetime, compacted or not. It sees a duplicate or
//! lost effect once some later response depends on it; an effect no
//! client ever observes is out of its reach. The lock model is
//! [`LockService`] itself; its one lease clock spans every lock name, so
//! histories are not split by name. The store model is `StoreModel`.
//!
//! # What still reads replica state
//!
//! 1. **Agreement** — all live replicas agree on every applied slot any
//!    two of them still hold ([`Cluster::check_log_agreement`]).
//! 2. **Batch well-formedness** — a chosen lock-service `Batch` is
//!    non-empty and carries at most one command per `(client, req_id)`.
//!    A batch applied in part loses an acknowledged effect, which the
//!    history check sees as above.
//! 3. **Store shard audit** — no live replica holds a version newer than
//!    the last acknowledged write, and every acknowledged object decodes
//!    byte-for-byte from the shards live replicas hold.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Debug;

use bytes::Bytes;
use erasure::ReedSolomon;
use paxos::{
    ClientOp, Cluster, Command, CompletedOp, LockCmd, LockResp, LockService, PaxosNode, Service,
    StateMachine,
};
use simnet::{NodeId, SimTime};
use storage::{RsCluster, RsService, StoreCmd, StoreResp};

/// One client operation as the history check sees it.
#[derive(Clone, Debug)]
pub(crate) struct Op<C, R> {
    /// Client-local request id.
    pub req_id: u64,
    /// The command.
    pub cmd: C,
    /// When the client put it on the wire.
    pub invoked: SimTime,
    /// Completion time and the observed response (`None`: unanswered).
    pub completed: Option<(SimTime, R)>,
}

/// One client's operations in the order it sent them. Only the last
/// may be unanswered.
pub(crate) type History<C, R> = (NodeId, Vec<Op<C, R>>);

/// A sequential specification histories are checked against.
pub(crate) trait Model: Clone + PartialEq {
    /// A command.
    type Cmd;
    /// A response.
    type Resp: Debug;

    /// The state after `cmd`, or the model's own answer when it differs
    /// from `observed` (`None`, unanswered, matches any answer).
    fn step(&self, cmd: &Self::Cmd, observed: Option<&Self::Resp>) -> Result<Self, String>;

    /// A response as a failure prints it.
    fn show(resp: &Self::Resp) -> String {
        format!("{resp:?}")
    }
}

impl Model for LockService {
    type Cmd = LockCmd;
    type Resp = LockResp;

    fn step(&self, cmd: &LockCmd, observed: Option<&LockResp>) -> Result<Self, String> {
        let mut next = self.clone();
        let resp = next.apply(cmd);
        match observed {
            Some(o) if *o != resp => Err(format!("{resp:?}")),
            _ => Ok(next),
        }
    }
}

/// The store's sequential model: key → (version, object) for every key
/// ever written. A put's version is its log slot, so the model cannot
/// predict it, only that it grows; a delete keeps the version.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct StoreModel(pub BTreeMap<String, (u64, Option<Bytes>)>);

impl Model for StoreModel {
    type Cmd = StoreCmd;
    type Resp = StoreResp;

    fn step(&self, cmd: &StoreCmd, observed: Option<&StoreResp>) -> Result<Self, String> {
        let (StoreCmd::Put { key, .. } | StoreCmd::Get { key } | StoreCmd::Delete { key }) = cmd;
        let version = self.0.get(key).map(|(v, _)| *v);
        let object = self.0.get(key).and_then(|(_, o)| o.clone());
        let mut next = self.clone();
        match (cmd, observed) {
            // Too few shards to decode says nothing about the state.
            (StoreCmd::Get { .. }, None | Some(StoreResp::Unavailable)) => {}
            (StoreCmd::Get { .. }, Some(StoreResp::Value { object: got })) if *got == object => {}
            (StoreCmd::Get { .. }, _) => return Err(Self::show(&StoreResp::Value { object })),
            (StoreCmd::Put { object, .. }, Some(StoreResp::Stored { version: v }))
                if version.is_none_or(|p| *v > p) =>
            {
                next.0.insert(key.clone(), (*v, Some(object.clone())));
            }
            // An unanswered put keeps the old version as a lower bound.
            (StoreCmd::Put { object, .. }, None) => {
                let bound = version.unwrap_or(0);
                next.0.insert(key.clone(), (bound, Some(object.clone())));
            }
            (StoreCmd::Put { .. }, _) => {
                return Err(
                    version.map_or("Stored".into(), |p| format!("Stored {{ version > {p} }}"))
                )
            }
            (StoreCmd::Delete { .. }, None | Some(StoreResp::Deleted)) => {
                if let Some(entry) = next.0.get_mut(key) {
                    entry.1 = None;
                }
            }
            (StoreCmd::Delete { .. }, _) => return Err("Deleted".into()),
        }
        Ok(next)
    }

    fn show(resp: &StoreResp) -> String {
        match resp {
            StoreResp::Value { object: Some(o) } => {
                format!("Value({} bytes {:02x?}…)", o.len(), &o[..o.len().min(4)])
            }
            other => format!("{other:?}"),
        }
    }
}

/// An order [`linearize`] found.
#[derive(Debug)]
pub(crate) struct Linearized<M> {
    /// Answered operations it orders.
    pub ops: usize,
    /// The model state after it.
    pub state: M,
}

/// Find an order of `histories`' answered operations, consistent with
/// real time, under which `init` stepped through it reproduces every
/// observed response. `Err` names the operation at which no order
/// extends the longest consistent prefix, with the model's answer there.
pub(crate) fn linearize<M: Model>(
    init: M,
    histories: &[History<M::Cmd, M::Resp>],
) -> Result<Linearized<M>, String> {
    let answered: Vec<usize> = histories
        .iter()
        .map(|(_, ops)| ops.iter().take_while(|o| o.completed.is_some()).count())
        .collect();
    let mut search = Search {
        histories,
        answered: &answered,
        seen: HashMap::new(),
        deepest: (0, vec![0; histories.len()], init.clone()),
    };
    match search.dfs(&mut vec![0; histories.len()], init) {
        Some(state) => Ok(Linearized {
            ops: answered.iter().sum(),
            state,
        }),
        None => Err(search.diagnose()),
    }
}

struct Search<'a, M: Model> {
    histories: &'a [History<M::Cmd, M::Resp>],
    answered: &'a [usize],
    /// Lowe's memo: the model states explored at each cursor vector.
    seen: HashMap<Vec<usize>, Vec<M>>,
    /// The first state reached at the greatest depth, for the report.
    deepest: (usize, Vec<usize>, M),
}

impl<'a, M: Model> Search<'a, M> {
    fn next(&self, cursors: &[usize], c: usize) -> Option<&'a Op<M::Cmd, M::Resp>> {
        self.histories[c].1.get(cursors[c])
    }

    /// An operation may go next unless another client's next operation
    /// completed before it was invoked.
    fn may_go(&self, cursors: &[usize], op: &Op<M::Cmd, M::Resp>) -> bool {
        (0..cursors.len()).all(|d| {
            let done = self.next(cursors, d).and_then(|o| o.completed.as_ref());
            done.is_none_or(|(t, _)| *t >= op.invoked)
        })
    }

    fn dfs(&mut self, cursors: &mut Vec<usize>, state: M) -> Option<M> {
        if cursors.iter().zip(self.answered).all(|(c, a)| c >= a) {
            return Some(state);
        }
        let explored = self.seen.entry(cursors.clone()).or_default();
        if explored.contains(&state) {
            return None;
        }
        explored.push(state.clone());
        let depth: usize = cursors.iter().sum();
        if depth > self.deepest.0 {
            self.deepest = (depth, cursors.clone(), state.clone());
        }
        for c in 0..cursors.len() {
            let Some(op) = self.next(cursors, c).filter(|op| self.may_go(cursors, op)) else {
                continue;
            };
            let Ok(after) = state.step(&op.cmd, op.completed.as_ref().map(|(_, r)| r)) else {
                continue;
            };
            cursors[c] += 1;
            let found = self.dfs(cursors, after);
            cursors[c] -= 1;
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// At the deepest state, the answered operation that completed first
    /// must go next (nothing else completed before it was invoked), and
    /// the model disagrees with its response.
    fn diagnose(&self) -> String {
        let (depth, cursors, state) = &self.deepest;
        let (c, op, (done, resp)) = (0..cursors.len())
            .filter_map(|c| {
                let op = self.next(cursors, c)?;
                Some((c, op, op.completed.as_ref()?))
            })
            .min_by_key(|(_, _, (t, _))| *t)
            .expect("an answered operation is left");
        let answer = state
            .step(&op.cmd, Some(resp))
            .err()
            .expect("the first answered operation cannot go next");
        format!(
            "not linearizable: {depth} of {} answered operations order consistently; then client \
             {} req {} (invoked {} ms, completed {} ms) observed {} where the model answers \
             {answer}",
            self.answered.iter().sum::<usize>(),
            self.histories[c].0,
            op.req_id,
            op.invoked.as_millis(),
            done.as_millis(),
            M::show(resp),
        )
    }
}

/// Every client's history on `c`, closed-loop clients and open-loop
/// sessions alike. `cmd` reads the command out of a closed-loop
/// operation (`None` for a reconfiguration, which carries no state
/// machine payload and is left out).
fn histories<S: Service>(
    c: &Cluster<S>,
    cmd: impl Fn(&S::Op) -> Option<S::Cmd>,
) -> Vec<History<S::Cmd, S::Resp>> {
    let ops = |node: &PaxosNode<S>| -> Option<Vec<_>> {
        Some(match node {
            PaxosNode::Server(_) => return None,
            PaxosNode::Client(cl) => {
                let app = |o: &CompletedOp<S>| {
                    let answer = |(t, r): (_, Option<_>)| (t, r.expect("app ops get responses"));
                    Some(Op {
                        req_id: o.req_id,
                        cmd: cmd(&o.op)?,
                        invoked: o.issued_at,
                        completed: o.completed.clone().map(answer),
                    })
                };
                cl.history().iter().filter_map(app).collect()
            }
            // A session launches an operation at its scheduled time or
            // when the one before completes, whichever is later; nothing
            // after an unanswered operation was launched.
            PaxosNode::OpenLoop(s) => {
                let mut free_at = Some(SimTime::ZERO);
                s.records()
                    .iter()
                    .zip(1..)
                    .map_while(|(r, req_id)| {
                        let invoked = free_at?.max(r.scheduled);
                        free_at = r.completed.as_ref().map(|(t, _)| *t);
                        Some(Op {
                            req_id,
                            cmd: r.cmd.clone(),
                            invoked,
                            completed: r.completed.clone(),
                        })
                    })
                    .collect()
            }
        })
    };
    (0..c.sim.node_count())
        .map(NodeId)
        .filter_map(|id| Some((id, ops(c.sim.actor(id)?)?)))
        .collect()
}

/// What a checker verified (sizes for sanity asserts in tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Answered client operations the history check ordered.
    pub ops_checked: usize,
    /// Distinct chosen lock-service `Batch` slots the scan audited.
    pub batches_checked: usize,
    /// Store reads that returned `Unavailable` (tolerated, reported).
    pub unavailable_reads: usize,
    /// Store keys whose newest acknowledged version survives on fewer
    /// than `m` byte-carrying replicas. Tolerated but counted: repeated
    /// crash/restart cycles — each individually within the θ(m, n)
    /// margin — can erode shards because catch-up from a source without
    /// the full object restores version metadata only. A *wrong* decode
    /// is always a failure; a key that degraded to unreadable is this.
    pub eroded_keys: usize,
}

/// Check a lock cluster once it has settled (schedule done, clients
/// drained): agreement, chosen-batch well-formedness and the history
/// check against [`LockService`].
pub fn check_lock_cluster(c: &Cluster<LockService>) -> Result<CheckStats, String> {
    c.check_log_agreement()?;
    let mut batches = BTreeSet::new();
    for r in c.servers().iter().filter_map(|&id| c.replica(id)) {
        for (slot, value) in r.applied_prefix() {
            let Command::Batch(entries) = &*value else {
                continue;
            };
            if entries.is_empty() {
                return Err(format!("slot {slot}: empty batch was chosen"));
            }
            let mut seen = HashSet::new();
            if let Some(e) = entries.iter().find(|e| !seen.insert((e.client, e.req_id))) {
                let (client, req_id) = (e.client, e.req_id);
                return Err(format!(
                    "slot {slot}: batch contains ({client}, {req_id}) twice"
                ));
            }
            batches.insert(slot);
        }
    }
    let app = |op: &ClientOp<LockCmd>| match op {
        ClientOp::App(cmd) => Some(cmd.clone()),
        ClientOp::Reconfig { .. } => None,
    };
    let run = linearize(LockService::new(), &histories(c, app))?;
    Ok(CheckStats {
        ops_checked: run.ops,
        batches_checked: batches.len(),
        ..CheckStats::default()
    })
}

/// Check a storage cluster whose erasure code has `m` data shards:
/// agreement, the history check against `StoreModel`, then the shard
/// audit of the order's final state.
pub fn check_storage_cluster(c: &RsCluster, m: usize) -> Result<CheckStats, String> {
    c.check_log_agreement()?;
    let histories = histories::<RsService>(c, |op| Some(op.clone()));
    let run = linearize(StoreModel::default(), &histories)?;
    let unavailable = |o: &&Op<_, _>| matches!(o.completed, Some((_, StoreResp::Unavailable)));
    let mut stats = CheckStats {
        ops_checked: run.ops,
        unavailable_reads: histories
            .iter()
            .flat_map(|h| &h.1)
            .filter(unavailable)
            .count(),
        ..CheckStats::default()
    };
    let n = c.servers().len();
    let codec = ReedSolomon::new(m, n);
    for (key, (version, object)) in &run.state.0 {
        let mut shards: Vec<Option<&[u8]>> = vec![None; n];
        let mut newest = 0u64;
        for &id in c.servers() {
            let Some(r) = c.replica(id) else { continue };
            if let Some(e) = r.service().store().get(key) {
                newest = newest.max(e.version);
                if e.version > *version {
                    return Err(format!(
                        "replica {id} holds phantom version {} of {key:?} (last \
                         acknowledged {version})",
                        e.version
                    ));
                }
                if e.version == *version {
                    if let Some(bytes) = &e.shard {
                        shards[e.shard_idx as usize] = Some(&bytes[..]);
                    }
                }
            }
        }
        let Some(object) = object else {
            continue; // deleted key: phantom check above is all we assert
        };
        let present = shards.iter().filter(|s| s.is_some()).count();
        if newest < *version {
            return Err(format!(
                "no live replica reached acknowledged version {version} of {key:?}"
            ));
        }
        if present < m {
            stats.eroded_keys += 1;
            continue;
        }
        let decoded = codec
            .decode_object(&shards)
            .map_err(|e| format!("decoding {key:?}@{version}: {e:?}"))?;
        if decoded != object.as_ref() {
            return Err(format!(
                "decoded value of {key:?}@{version} differs from the acknowledged write"
            ));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op<C, R>(req_id: u64, cmd: C, from: u64, to: u64, resp: R) -> Op<C, R> {
        Op {
            req_id,
            cmd,
            invoked: SimTime::from_millis(from),
            completed: Some((SimTime::from_millis(to), resp)),
        }
    }

    fn acquire(owner: usize) -> LockCmd {
        LockCmd::Acquire {
            name: "L".into(),
            owner: NodeId(owner),
        }
    }

    fn lock(histories: &[History<LockCmd, LockResp>]) -> Result<usize, String> {
        linearize(LockService::new(), histories).map(|l| l.ops)
    }

    #[test]
    fn the_search_reorders_concurrent_operations() {
        // Client 1 is invoked first, yet only client 2's acquire taking
        // effect first explains both answers.
        let first = (
            NodeId(1),
            vec![op(
                1,
                acquire(1),
                0,
                100,
                LockResp::Busy { holder: NodeId(2) },
            )],
        );
        let second = vec![op(1, acquire(2), 10, 50, LockResp::Granted)];
        assert_eq!(lock(&[first.clone(), (NodeId(2), second)]), Ok(2));
        // Invoked after client 1's answer, client 2 cannot go first.
        let late = vec![op(1, acquire(2), 150, 200, LockResp::Granted)];
        assert!(lock(&[first, (NodeId(2), late)]).is_err());
        // An unanswered acquire may or may not have taken effect.
        let mut pending = op(1, acquire(1), 0, 0, LockResp::Granted);
        pending.completed = None;
        for seen in [None, Some(NodeId(1))] {
            let read = op(
                1,
                LockCmd::Holder { name: "L".into() },
                10,
                20,
                LockResp::HolderIs(seen),
            );
            let run = lock(&[(NodeId(1), vec![pending.clone()]), (NodeId(2), vec![read])]);
            assert_eq!(run, Ok(1));
        }
    }

    #[test]
    fn two_overlapping_grants_are_rejected() {
        let a = vec![op(1, acquire(1), 0, 100, LockResp::Granted)];
        let b = vec![op(1, acquire(2), 10, 90, LockResp::Granted)];
        assert!(lock(&[(NodeId(1), a), (NodeId(2), b)]).is_err());
    }

    #[test]
    fn a_duplicate_effect_exposed_by_a_later_denial_is_rejected() {
        // Busy after the release means client 1's acquire took effect twice.
        let release = LockCmd::Release {
            name: "L".into(),
            owner: NodeId(1),
        };
        let a = vec![
            op(1, acquire(1), 0, 10, LockResp::Granted),
            op(2, release, 20, 30, LockResp::Released),
        ];
        let b = vec![op(
            1,
            acquire(2),
            40,
            50,
            LockResp::Busy { holder: NodeId(1) },
        )];
        let err = lock(&[(NodeId(1), a), (NodeId(2), b)]).unwrap_err();
        // The report names the operation, its times and both answers.
        for part in [
            "2 of 3 answered operations",
            "client n2 req 1 (invoked 40 ms, completed 50 ms)",
            "observed Busy { holder: n1 }",
            "the model answers Granted",
        ] {
            assert!(err.contains(part), "{part:?} missing from {err}");
        }
    }

    #[test]
    fn a_renewal_moving_backwards_is_rejected() {
        let (name, owner) = ("L".to_string(), NodeId(1));
        let renew = |now_ms| LockCmd::Renew {
            name: name.clone(),
            owner,
            now_ms,
        };
        let lease = LockCmd::AcquireLease {
            name: name.clone(),
            owner,
            now_ms: 1_000,
            ttl_ms: 500,
        };
        let history = |until_ms| {
            vec![(
                owner,
                vec![
                    op(1, lease.clone(), 0, 10, LockResp::Granted),
                    op(
                        2,
                        renew(1_200),
                        20,
                        30,
                        LockResp::Renewed { until_ms: 1_700 },
                    ),
                    op(3, renew(1_300), 40, 50, LockResp::Renewed { until_ms }),
                ],
            )]
        };
        assert_eq!(lock(&history(1_800)), Ok(3));
        assert!(lock(&history(1_600)).is_err());
    }

    #[test]
    fn a_get_of_the_previous_version_is_rejected() {
        let (v1, v2) = (Bytes::from_static(b"one"), Bytes::from_static(b"two"));
        let put = |object: &Bytes| StoreCmd::Put {
            key: "k".into(),
            object: object.clone(),
        };
        let history = |got: &Bytes| {
            let get = StoreCmd::Get { key: "k".into() };
            let read = StoreResp::Value {
                object: Some(got.clone()),
            };
            vec![(
                NodeId(1),
                vec![
                    op(1, put(&v1), 0, 10, StoreResp::Stored { version: 3 }),
                    op(2, put(&v2), 20, 30, StoreResp::Stored { version: 7 }),
                    op(3, get, 40, 50, read),
                ],
            )]
        };
        assert!(linearize(StoreModel::default(), &history(&v2)).is_ok());
        let err = linearize(StoreModel::default(), &history(&v1)).unwrap_err();
        assert!(
            err.contains("the model answers Value(3 bytes [74, 77, 6f]…)"),
            "{err}"
        );
    }

    #[test]
    fn a_session_reading_below_its_own_write_is_rejected() {
        let holder = |seen| {
            op(
                2,
                LockCmd::Holder { name: "L".into() },
                20,
                30,
                LockResp::HolderIs(seen),
            )
        };
        let own = |read| {
            vec![(
                NodeId(1),
                vec![op(1, acquire(1), 0, 10, LockResp::Granted), read],
            )]
        };
        assert!(lock(&own(holder(None))).is_err());
        assert_eq!(lock(&own(holder(Some(NodeId(1))))), Ok(2));
        // Nor may a read miss another session's write that completed
        // before it was invoked.
        let writer = (NodeId(2), vec![op(1, acquire(2), 0, 10, LockResp::Granted)]);
        assert!(lock(&[writer, (NodeId(1), vec![holder(None)])]).is_err());
    }
}
