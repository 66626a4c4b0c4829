//! The request core both clients share: one operation on the wire at a
//! time, routed to the hinted leader (or, for a readable operation, to a
//! follower as a local read), retransmitted to the next server on
//! timeout, matched against its reply. *When* an operation is launched is
//! the owning actor's policy ([`crate::client`], [`crate::open_loop`]).

use obs::{FieldValue, Obs, SpanHandle};
use simnet::{Context, NodeId, SimTime};

use crate::ballot::Slot;
use crate::msg::Msg;
use crate::replica::sim_micros;
use crate::service::Service;

#[derive(Clone, Debug)]
struct InFlight<S: Service> {
    req_id: u64,
    op: S::Op,
    last_sent: SimTime,
    target: usize,
    /// Route as a follower-local read. Cleared on the first timeout so
    /// the retransmit falls back to the fully serialized leader path
    /// (liveness does not depend on any one follower).
    read: bool,
    /// Root span of the operation's causal trace, when it is traced;
    /// every send (and retransmit) of the request carries its context, so
    /// the whole submit → propose → commit chain hangs under one trace id.
    span: Option<SpanHandle>,
}

/// The reply that completed the in-flight operation.
pub(crate) struct Reply<S: Service> {
    /// The response (`None` only for a reconfiguration).
    pub resp: Option<S::Resp>,
    /// Served by a follower from applied state, not through the log.
    pub local: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct Session<S: Service> {
    me: NodeId,
    servers: Vec<NodeId>,
    /// Route operations the service can serve from applied state
    /// ([`Service::read_request`]) to followers as local reads. Requires
    /// the replicas to run with `local_reads` enabled too.
    pub local_reads: bool,
    /// Request spans are only recorded when its tracer is enabled.
    pub obs: Obs,
    inflight: Option<InFlight<S>>,
    leader_hint: Option<NodeId>,
    /// Session floor: the highest applied index any acknowledged
    /// operation of ours reached. Carried in read requests so a
    /// follower never answers from a state older than our last write.
    floor: Slot,
}

impl<S: Service> Session<S> {
    pub fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        assert!(!servers.is_empty(), "client needs at least one server");
        Session {
            me,
            servers,
            local_reads: false,
            obs: Obs::disabled(),
            inflight: None,
            leader_hint: None,
            floor: 0,
        }
    }

    pub fn floor(&self) -> Slot {
        self.floor
    }

    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Whether an operation is on the wire.
    pub fn busy(&self) -> bool {
        self.inflight.is_some()
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

    /// Put `op` on the wire, first at `servers[first_target % n]` unless a
    /// leader is hinted. `traced` opens the `client.request` root span,
    /// which covers submit → commit → response, so its duration *is* the
    /// observed commit latency. Returns whether it went out as a local
    /// read.
    pub fn launch(
        &mut self,
        req_id: u64,
        op: S::Op,
        first_target: usize,
        traced: bool,
        ctx: &mut Context<Msg<S>>,
    ) -> bool {
        debug_assert!(self.inflight.is_none(), "one operation at a time");
        let read = self.local_reads && S::read_request(self.me, req_id, &op, self.floor).is_some();
        let span = traced.then(|| {
            self.obs.set_time_micros(sim_micros(ctx.now));
            self.obs.trace.span_open_causal(
                "client.request",
                ctx.new_trace(),
                &[
                    ("client", FieldValue::U64(self.me.0 as u64)),
                    ("req_id", FieldValue::U64(req_id)),
                ],
            )
        });
        self.inflight = Some(InFlight {
            req_id,
            op,
            last_sent: ctx.now,
            target: first_target,
            read,
            span,
        });
        self.send(ctx);
        read
    }

    fn send(&mut self, ctx: &mut Context<Msg<S>>) {
        let Some(f) = &mut self.inflight else { return };
        f.last_sent = ctx.now;
        let trace = match f.span {
            Some(span) => span.context(),
            None => ctx.trace(),
        };
        let next = self.servers[f.target % self.servers.len()];
        if f.read {
            // Local read: spread across all replicas (not just the
            // leader), carrying the session floor.
            let read = S::read_request(self.me, f.req_id, &f.op, self.floor)
                .expect("read flag only set for readable ops");
            ctx.send_traced(next, Msg::Ext(read), trace);
            return;
        }
        let target = match self.leader_hint {
            Some(l) if self.servers.contains(&l) => l,
            _ => next,
        };
        let request = Msg::Request {
            client: self.me,
            req_id: f.req_id,
            op: f.op.clone(),
        };
        ctx.send_traced(target, request, trace);
    }

    /// Retransmit to the next server if the in-flight operation has
    /// waited [`Service::CLIENT_TIMEOUT`] since its last send. Returns
    /// whether it did.
    pub fn retry_if_timed_out(&mut self, ctx: &mut Context<Msg<S>>) -> bool {
        let Some(f) = &mut self.inflight else {
            return false;
        };
        if ctx.now.saturating_sub(f.last_sent) < S::CLIENT_TIMEOUT {
            return false;
        }
        f.target += 1;
        // A read that found no willing (or caught-up) follower falls back
        // to the serialized leader path.
        f.read = false;
        self.leader_hint = None;
        if let Some(span) = f.span {
            // Mark the retry inside the trace: a retransmit usually means
            // the previous attempt's sub-tree was orphaned by a drop or a
            // dead leader.
            self.obs.set_time_micros(sim_micros(ctx.now));
            self.obs.trace.event_causal(
                "client.retransmit",
                span.context(),
                &[("req_id", FieldValue::U64(f.req_id))],
            );
        }
        self.send(ctx);
        true
    }

    /// Match `msg` against the in-flight operation; a match completes it.
    /// `accept_empty` says whether the response-less reply a
    /// reconfiguration gets counts as one.
    pub fn on_reply(
        &mut self,
        from: NodeId,
        msg: Msg<S>,
        accept_empty: bool,
        now: SimTime,
    ) -> Option<Reply<S>> {
        let (req_id, resp, at, local) = match msg {
            Msg::Response { req_id, resp, at } => (req_id, resp, at, false),
            Msg::Ext(ext) => {
                let (req_id, resp, at) = S::read_reply(ext)?;
                (req_id, Some(resp), at, true)
            }
            _ => return None,
        };
        // Anything else answers an operation already completed.
        let f = self
            .inflight
            .take_if(|f| f.req_id == req_id && (resp.is_some() || accept_empty))?;
        if !local {
            // Only log-serialized responses identify the leader; a read
            // reply may come from any follower.
            self.leader_hint = Some(from);
        }
        self.floor = self.floor.max(at);
        if let Some(span) = f.span {
            self.obs.set_time_micros(sim_micros(now));
            self.obs.trace.span_close(
                span,
                "client.request",
                &[
                    ("req_id", FieldValue::U64(req_id)),
                    ("leader", FieldValue::U64(from.0 as u64)),
                ],
            );
        }
        Some(Reply { resp, local })
    }
}
