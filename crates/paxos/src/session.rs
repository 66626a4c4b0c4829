//! The request core both clients share: one operation on the wire at a
//! time, routed to the hinted leader, retransmitted to the next server on
//! timeout, matched against its reply. *When* an operation is launched is
//! the owning actor's policy ([`crate::client`], [`crate::open_loop`]).

use obs::{FieldValue, Obs, SpanHandle};
use simnet::{Context, NodeId, SimTime};

use crate::msg::Msg;
use crate::service::Service;

#[derive(Clone, Debug)]
struct InFlight<S: Service> {
    req_id: u64,
    op: S::Op,
    last_sent: SimTime,
    target: usize,
    /// Root span of the operation's causal trace, when it is traced;
    /// every send (and retransmit) of the request carries its context, so
    /// the whole submit → propose → commit chain hangs under one trace id.
    span: Option<SpanHandle>,
}

#[derive(Clone, Debug)]
pub(crate) struct Session<S: Service> {
    me: NodeId,
    servers: Vec<NodeId>,
    /// Request spans are only recorded when its tracer is enabled.
    pub obs: Obs,
    inflight: Option<InFlight<S>>,
    leader_hint: Option<NodeId>,
}

impl<S: Service> Session<S> {
    pub(crate) fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        assert!(!servers.is_empty(), "client needs at least one server");
        Session {
            me,
            servers,
            obs: Obs::disabled(),
            inflight: None,
            leader_hint: None,
        }
    }

    pub(crate) fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Whether an operation is on the wire.
    pub(crate) fn busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Update the server list (after a view change).
    pub(crate) fn set_servers(&mut self, servers: Vec<NodeId>) {
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
    /// observed commit latency.
    pub(crate) fn launch(
        &mut self,
        req_id: u64,
        op: S::Op,
        first_target: usize,
        traced: bool,
        ctx: &mut Context<Msg<S>>,
    ) {
        debug_assert!(self.inflight.is_none(), "one operation at a time");
        let span = traced.then(|| {
            self.obs.set_time_micros(ctx.now.as_micros());
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
            span,
        });
        self.send(ctx);
    }

    fn send(&mut self, ctx: &mut Context<Msg<S>>) {
        let Some(f) = &mut self.inflight else { return };
        f.last_sent = ctx.now;
        let trace = match f.span {
            Some(span) => span.context(),
            None => ctx.trace(),
        };
        let target = match self.leader_hint {
            Some(l) if self.servers.contains(&l) => l,
            _ => self.servers[f.target % self.servers.len()],
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
    pub(crate) fn retry_if_timed_out(&mut self, ctx: &mut Context<Msg<S>>) -> bool {
        let Some(f) = &mut self.inflight else {
            return false;
        };
        if ctx.now.saturating_sub(f.last_sent) < S::CLIENT_TIMEOUT {
            return false;
        }
        f.target += 1;
        self.leader_hint = None;
        if let Some(span) = f.span {
            // Mark the retry inside the trace: a retransmit usually means
            // the previous attempt's sub-tree was orphaned by a drop or a
            // dead leader.
            self.obs.set_time_micros(ctx.now.as_micros());
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
    /// reconfiguration gets counts as one. Returns the response (`None`
    /// only for a reconfiguration).
    pub(crate) fn on_reply(
        &mut self,
        from: NodeId,
        msg: Msg<S>,
        accept_empty: bool,
        now: SimTime,
    ) -> Option<Option<S::Resp>> {
        let Msg::Response { req_id, resp } = msg else {
            return None;
        };
        // Anything else answers an operation already completed.
        let f = self
            .inflight
            .take_if(|f| f.req_id == req_id && (resp.is_some() || accept_empty))?;
        self.leader_hint = Some(from);
        if let Some(span) = f.span {
            self.obs.set_time_micros(now.as_micros());
            self.obs.trace.span_close(
                span,
                "client.request",
                &[
                    ("req_id", FieldValue::U64(req_id)),
                    ("leader", FieldValue::U64(from.0 as u64)),
                ],
            );
        }
        Some(resp)
    }
}
