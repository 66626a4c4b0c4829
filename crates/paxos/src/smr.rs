//! State-machine replication: every [`StateMachine`] is a [`Service`]
//! whose slot value is one shared `Arc` (a send is a refcount bump), with
//! membership change through the log.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;

use simnet::{Context, NodeId, SimTime};

use crate::ballot::Slot;
use crate::msg::{BatchEntry, ClientOp, Command, Msg};
use crate::replica::Replica;
use crate::service::{Compose, PendingOp, Service};

/// A deterministic replicated state machine.
pub trait StateMachine: Clone + Debug {
    /// Commands the machine applies.
    type Command: Clone + Debug + PartialEq;
    /// Responses it produces.
    type Response: Clone + Debug;

    /// Apply one command, mutating the state and producing a response.
    /// Must be deterministic: identical command sequences yield identical
    /// states on every replica.
    fn apply(&mut self, cmd: &Self::Command) -> Self::Response;
}

/// A state machine's replicas exchange no messages of their own: every
/// command, reads included, goes through the log.
#[derive(Clone, Debug)]
pub enum NoExt {}

/// What a replica hosting a [`StateMachine`] keeps besides the log.
#[derive(Clone, Debug)]
pub struct SmHost<SM: StateMachine> {
    sm: SM,
    /// True while a Reconfig proposal is in flight (stalls later ones).
    reconfig_in_flight: bool,
}

impl<SM: StateMachine> SmHost<SM> {
    /// Host `sm`.
    pub(crate) fn new(sm: SM) -> Self {
        SmHost {
            sm,
            reconfig_in_flight: false,
        }
    }
}

impl<SM: StateMachine> Replica<SM> {
    /// The hosted state machine (applied prefix).
    pub fn state_machine(&self) -> &SM {
        &self.svc.sm
    }

    /// Apply one application command with exactly-once semantics and
    /// (at the leader) answer the client. Shared by singleton and
    /// batched slot values.
    fn apply_app(
        &mut self,
        client: NodeId,
        req_id: u64,
        cmd: &SM::Command,
        ctx: &mut Context<Msg<SM>>,
    ) {
        let resp = match self.dedup.get(client) {
            Some((last, cached)) if *last >= req_id => cached.clone(),
            _ => Some(self.svc.sm.apply(cmd)),
        };
        self.finish(client, req_id, resp, ctx);
    }

    /// Apply a membership change: `add`, then `remove`.
    fn apply_reconfig(
        &mut self,
        client: NodeId,
        req_id: u64,
        add: &[NodeId],
        remove: &[NodeId],
        ctx: &mut Context<Msg<SM>>,
    ) {
        let mut joiners = Vec::new();
        for &n in add {
            if !self.view.contains(&n) {
                self.view.push(n);
                joiners.push(n);
            }
        }
        self.view.retain(|n| !remove.contains(n));
        self.view.sort_unstable();
        self.view_id += 1;
        self.dedup.insert(client, req_id, None);
        if !self.view.contains(&self.me) {
            self.retired = true;
            self.step_down(ctx.now);
        }
        if !self.is_leader() {
            return;
        }
        self.svc.reconfig_in_flight = false;
        let resp = None;
        self.send_msg(ctx, client, Msg::Response { req_id, resp });
        // New members need the history to join the view: the snapshot for
        // the compacted prefix plus the live tail.
        let snapshot = (self.floor > 0).then(|| self.snapshot());
        for peer in joiners {
            if peer != self.me {
                let reply = Msg::CatchupReply {
                    snapshot: snapshot.clone(),
                    entries: self.chosen_tail(self.floor, peer).collect(),
                };
                self.send_msg(ctx, peer, reply);
            }
        }
        self.maybe_flush_batches(true, ctx);
    }
}

impl<SM: StateMachine> Service for SM {
    type Cmd = SM::Command;
    type Resp = SM::Response;
    type Op = ClientOp<SM::Command>;
    type Value = Arc<Command<SM::Command>>;
    type Wire = Arc<Command<SM::Command>>;
    type Ext = NoExt;
    type Snap = SM;
    type Host = SmHost<SM>;

    const PREFIX: &'static str = "paxos";
    const EXT_KINDS: &'static [&'static str] = &[];
    const REPLICA_SALT: u64 = 0x9E37_79B9;
    const CLIENT_SALT: u64 = 0x51_7C_C1_B7;
    const CLIENT_TIMEOUT: SimTime = SimTime::from_millis(1_000);

    fn ext_kind(ext: &NoExt) -> usize {
        match *ext {}
    }

    fn wire_for(value: &Self::Value, _dest_idx: usize) -> Self::Wire {
        Arc::clone(value)
    }

    /// Any copy will do: acceptors at one ballot accepted one value.
    fn recover(_host: &SmHost<SM>, copies: &[&Self::Wire]) -> Self::Value {
        copies
            .first()
            .map_or_else(|| Arc::new(Command::Noop), |&c| Arc::clone(c))
    }

    fn reshape(_host: &SmHost<SM>, chosen: &Self::Wire, _: Slot, _: Option<usize>) -> Self::Wire {
        Arc::clone(chosen)
    }

    fn same_decision(a: &Self::Wire, b: &Self::Wire) -> bool {
        **a == **b
    }

    fn carries(value: &Self::Value, client: NodeId, req_id: u64) -> bool {
        match &**value {
            Command::App {
                client: c,
                req_id: r,
                ..
            }
            | Command::Reconfig {
                client: c,
                req_id: r,
                ..
            } => *c == client && *r == req_id,
            Command::Batch(entries) => entries
                .iter()
                .any(|e| e.client == client && e.req_id == req_id),
            Command::Noop => false,
        }
    }

    /// One reconfiguration at a time: while one is in flight a second one
    /// waits at the front of the queue, and so do the requests behind it.
    fn barrier(host: &SmHost<SM>, op: &ClientOp<SM::Command>) -> bool {
        host.reconfig_in_flight && !matches!(op, ClientOp::App(_))
    }

    /// The longest run of application commands shares a slot; a
    /// reconfiguration is never batched.
    fn compose(queue: &VecDeque<PendingOp<ClientOp<SM::Command>>>, max_ops: usize) -> Compose {
        let apps = queue
            .iter()
            .take_while(|p| matches!(p.op, ClientOp::App(_)))
            .count();
        if apps == 0 {
            return Compose::Alone;
        }
        Compose::Batch {
            take: apps.min(max_ops),
            full: apps >= max_ops,
        }
    }

    fn value(host: &mut SmHost<SM>, mut ops: Vec<PendingOp<ClientOp<SM::Command>>>) -> Self::Value {
        if ops.len() > 1 {
            return Arc::new(Command::Batch(
                ops.into_iter()
                    .map(|p| match p.op {
                        ClientOp::App(cmd) => BatchEntry {
                            client: p.client,
                            req_id: p.req_id,
                            cmd,
                        },
                        ClientOp::Reconfig { .. } => unreachable!("compose batches only App ops"),
                    })
                    .collect(),
            ));
        }
        let PendingOp {
            client, req_id, op, ..
        } = ops.pop().expect("at least one op");
        Arc::new(match op {
            ClientOp::App(cmd) => Command::App {
                client,
                req_id,
                cmd,
            },
            ClientOp::Reconfig { add, remove } => {
                host.reconfig_in_flight = true;
                Command::Reconfig {
                    client,
                    req_id,
                    add,
                    remove,
                }
            }
        })
    }

    fn apply(r: &mut Replica<SM>, _slot: Slot, value: Self::Wire, ctx: &mut Context<Msg<SM>>) {
        match &*value {
            Command::Noop => {}
            Command::App {
                client,
                req_id,
                cmd,
            } => r.apply_app(*client, *req_id, cmd, ctx),
            Command::Batch(entries) => {
                // Atomic within the slot: every entry applies (in order)
                // before the next slot is considered.
                for e in entries {
                    r.apply_app(e.client, e.req_id, &e.cmd, ctx);
                }
            }
            Command::Reconfig {
                client,
                req_id,
                add,
                remove,
            } => r.apply_reconfig(*client, *req_id, add, remove, ctx),
        }
    }

    fn on_ext(_r: &mut Replica<SM>, _from: NodeId, ext: NoExt, _ctx: &mut Context<Msg<SM>>) {
        match ext {}
    }

    /// Queued requests survive a step-down (the next leadership flushes
    /// them); only the reconfiguration barrier lifts.
    fn stepped_down(
        host: &mut SmHost<SM>,
        _queue: &mut VecDeque<PendingOp<ClientOp<SM::Command>>>,
    ) {
        host.reconfig_in_flight = false;
    }

    fn snapshot(host: &SmHost<SM>) -> SM {
        host.sm.clone()
    }

    fn restore(host: &mut SmHost<SM>, snap: SM) {
        host.sm = snap;
    }

    fn op(cmd: SM::Command) -> ClientOp<SM::Command> {
        ClientOp::App(cmd)
    }
}
