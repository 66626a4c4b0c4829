//! A closed-loop client: submits one operation at a time, retransmits on
//! timeout, cycles through servers until it finds the leader, and records
//! a full request history (issue time, completion time, response) so the
//! harness can measure service-level availability and latency.

use std::collections::VecDeque;

use obs::{FieldValue, Obs, SpanHandle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{Context, NodeId, SimTime, TimerToken};

use crate::ballot::Slot;
use crate::msg::Msg;
use crate::replica::sim_micros;
use crate::service::Service;

const TICK_TOKEN: TimerToken = TimerToken(1);

/// One completed (or still outstanding) operation in the client history.
#[derive(Clone, Debug)]
pub struct CompletedOp<S: Service> {
    /// Request id.
    pub req_id: u64,
    /// The submitted operation.
    pub op: S::Op,
    /// When the client first issued it.
    pub issued_at: SimTime,
    /// Completion time and response (`None` while outstanding; the inner
    /// response is `None` for reconfigurations).
    pub completed: Option<(SimTime, Option<S::Resp>)>,
}

/// In-flight bookkeeping.
#[derive(Clone, Debug)]
struct InFlight {
    req_id: u64,
    last_sent: SimTime,
    target: usize,
    /// Route as a follower-local read. Cleared on the first timeout so
    /// the retransmit falls back to the fully serialized leader path
    /// (liveness does not depend on any one follower).
    read: bool,
    /// Root span of the operation's causal trace; every send (and
    /// retransmit) of the request carries `span.context()`, so the whole
    /// submit → propose → commit chain hangs under one trace id.
    span: SpanHandle,
}

/// Client actor state.
#[derive(Clone, Debug)]
pub struct ClientState<S: Service> {
    me: NodeId,
    servers: Vec<NodeId>,
    tick: SimTime,
    next_req: u64,
    queue: VecDeque<S::Op>,
    inflight: Option<InFlight>,
    leader_hint: Option<NodeId>,
    history: Vec<CompletedOp<S>>,
    /// Route read-only commands to followers as local reads.
    local_reads: bool,
    /// Session floor: the highest applied index any acknowledged
    /// operation of ours reached. Carried in read requests so a
    /// follower never answers from a state older than our last write.
    floor: Slot,
    rng: ChaCha8Rng,
    /// Observability sink (disabled by default; the harness wires the
    /// cluster's handle in so client spans land in the same trace ring
    /// as the replicas').
    obs: Obs,
}

impl<S: Service> ClientState<S> {
    /// A client that talks to `servers`.
    pub fn new(me: NodeId, servers: Vec<NodeId>, seed: u64) -> Self {
        assert!(!servers.is_empty(), "client needs at least one server");
        ClientState {
            me,
            servers,
            tick: SimTime::from_millis(100),
            next_req: 1,
            queue: VecDeque::new(),
            inflight: None,
            leader_hint: None,
            history: Vec::new(),
            local_reads: false,
            floor: 0,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (me.0 as u64).wrapping_mul(S::CLIENT_SALT)),
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle (builder-style); request spans are
    /// only recorded when its tracer is enabled.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Route operations the service can serve from applied state
    /// ([`Service::read_request`]) to followers as local reads
    /// (builder-style). Requires the replicas
    /// to run with `local_reads` enabled too; a timed-out read falls
    /// back to the serialized leader path either way.
    pub fn with_local_reads(mut self, enabled: bool) -> Self {
        self.local_reads = enabled;
        self
    }

    /// The session floor (highest acknowledged applied index).
    pub fn floor(&self) -> Slot {
        self.floor
    }

    /// Queue an operation for submission (fired from the next tick).
    pub fn submit(&mut self, op: S::Op) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.queue.push_back(op);
        req_id
    }

    /// Update the server list (after a view change).
    pub fn set_servers(&mut self, servers: Vec<NodeId>) {
        assert!(!servers.is_empty());
        self.servers = servers;
        self.leader_hint = None;
        if let Some(f) = &mut self.inflight {
            f.target = 0;
        }
    }

    /// The full request history.
    pub fn history(&self) -> &[CompletedOp<S>] {
        &self.history
    }

    /// Number of operations not yet completed (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + usize::from(self.inflight.is_some())
    }

    fn send_current(&mut self, ctx: &mut Context<Msg<S>>) {
        let Some(f) = &mut self.inflight else { return };
        let entry = self
            .history
            .iter()
            .find(|h| h.req_id == f.req_id)
            .expect("in-flight op recorded");
        f.last_sent = ctx.now;
        let trace = f.span.context();
        if f.read {
            // Local read: spread across all replicas (not just the
            // leader), carrying the session floor.
            let target = self.servers[f.target % self.servers.len()];
            let read = S::read_request(self.me, f.req_id, &entry.op, self.floor)
                .expect("read flag only set for readable ops");
            ctx.send_traced(target, Msg::Ext(read), trace);
            return;
        }
        let target = match self.leader_hint {
            Some(l) if self.servers.contains(&l) => l,
            _ => self.servers[f.target % self.servers.len()],
        };
        ctx.send_traced(
            target,
            Msg::Request {
                client: self.me,
                req_id: f.req_id,
                op: entry.op.clone(),
            },
            trace,
        );
    }

    /// Boot: arm the tick.
    pub fn on_start(&mut self, ctx: &mut Context<Msg<S>>) {
        ctx.set_timer(self.tick, TICK_TOKEN);
    }

    /// Tick: launch queued work, retransmit timed-out requests.
    pub fn on_timer(&mut self, _t: TimerToken, ctx: &mut Context<Msg<S>>) {
        ctx.set_timer(self.tick, TICK_TOKEN);
        if self.inflight.is_none() {
            if let Some(op) = self.queue.pop_front() {
                let req_id = self.next_issue_id();
                let read =
                    self.local_reads && S::read_request(self.me, req_id, &op, self.floor).is_some();
                self.history.push(CompletedOp {
                    req_id,
                    op,
                    issued_at: ctx.now,
                    completed: None,
                });
                // Root of the operation's causal trace: the span covers
                // submit → commit → response, so its duration *is* the
                // observed commit latency.
                self.obs.set_time_micros(sim_micros(ctx.now));
                let span = self.obs.trace.span_open_causal(
                    "client.request",
                    ctx.new_trace(),
                    &[
                        ("client", FieldValue::U64(self.me.0 as u64)),
                        ("req_id", FieldValue::U64(req_id)),
                    ],
                );
                self.inflight = Some(InFlight {
                    req_id,
                    last_sent: ctx.now,
                    target: self.rng.gen_range(0..self.servers.len()),
                    read,
                    span,
                });
                self.send_current(ctx);
            }
            return;
        }
        let timed_out = self
            .inflight
            .as_ref()
            .map(|f| ctx.now.saturating_sub(f.last_sent) >= S::CLIENT_TIMEOUT)
            .unwrap_or(false);
        if timed_out {
            if let Some(f) = &mut self.inflight {
                f.target += 1;
                // A read that found no willing (or caught-up) follower
                // falls back to the serialized leader path.
                f.read = false;
            }
            self.leader_hint = None;
            if let Some(f) = &self.inflight {
                // Mark the retry inside the trace: a retransmit usually
                // means the previous attempt's sub-tree was orphaned by
                // a drop or a dead leader.
                self.obs.set_time_micros(sim_micros(ctx.now));
                self.obs.trace.event_causal(
                    "client.retransmit",
                    f.span.context(),
                    &[("req_id", FieldValue::U64(f.req_id))],
                );
            }
            self.send_current(ctx);
        }
    }

    fn next_issue_id(&mut self) -> u64 {
        // History ids must match submission order: reuse the counter
        // sequence 1, 2, … in FIFO order.
        let issued = self.history.len() as u64;
        issued + 1
    }

    /// Message dispatch (responses only).
    pub fn on_message(&mut self, from: NodeId, msg: Msg<S>, _ctx: &mut Context<Msg<S>>) {
        let (req_id, resp, at, from_leader) = match msg {
            Msg::Response { req_id, resp, at } => (req_id, resp, at, true),
            Msg::Ext(ext) => match S::read_reply(ext) {
                Some((req_id, resp, at)) => (req_id, Some(resp), at, false),
                None => return,
            },
            _ => return,
        };
        let matches = self
            .inflight
            .as_ref()
            .map(|f| f.req_id == req_id)
            .unwrap_or(false);
        if matches {
            let f = self.inflight.take().expect("matched above");
            if from_leader {
                // Only log-serialized responses identify the leader; a
                // read reply may come from any follower.
                self.leader_hint = Some(from);
            }
            self.floor = self.floor.max(at);
            let now = _ctx.now;
            self.obs.set_time_micros(sim_micros(now));
            self.obs.trace.span_close(
                f.span,
                "client.request",
                &[
                    ("req_id", FieldValue::U64(req_id)),
                    ("leader", FieldValue::U64(from.0 as u64)),
                ],
            );
            if let Some(h) = self.history.iter_mut().find(|h| h.req_id == req_id) {
                h.completed = Some((now, resp));
            }
        }
    }
}
