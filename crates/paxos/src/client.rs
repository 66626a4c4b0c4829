//! A closed-loop client: submits one operation at a time, retransmits on
//! timeout, cycles through servers until it finds the leader, and records
//! a full request history (issue time, completion time, response) so the
//! harness can measure service-level availability and latency.

use std::collections::VecDeque;

use obs::Obs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{Context, NodeId, SimTime, TimerToken};

use crate::msg::Msg;
use crate::service::Service;
use crate::session::Session;

const TICK_TOKEN: TimerToken = TimerToken(1);
const TICK: SimTime = SimTime::from_millis(100);

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

/// Client actor state.
#[derive(Clone, Debug)]
pub struct ClientState<S: Service> {
    session: Session<S>,
    queue: VecDeque<S::Op>,
    history: Vec<CompletedOp<S>>,
    rng: ChaCha8Rng,
}

impl<S: Service> ClientState<S> {
    /// A client that talks to `servers`.
    pub(crate) fn new(me: NodeId, servers: Vec<NodeId>, seed: u64) -> Self {
        ClientState {
            session: Session::new(me, servers),
            queue: VecDeque::new(),
            history: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ (me.0 as u64).wrapping_mul(S::CLIENT_SALT)),
        }
    }

    /// Attach an observability handle (builder-style); request spans are
    /// only recorded when its tracer is enabled. The harness wires the
    /// cluster's handle in so client spans land in the same trace ring as
    /// the replicas'.
    pub(crate) fn with_obs(mut self, obs: Obs) -> Self {
        self.session.obs = obs;
        self
    }

    /// Queue an operation for submission (fired from the next tick).
    /// Request ids are 1, 2, … in submission order.
    pub(crate) fn submit(&mut self, op: S::Op) -> u64 {
        self.queue.push_back(op);
        (self.history.len() + self.queue.len()) as u64
    }

    /// Update the server list (after a view change).
    pub(crate) fn set_servers(&mut self, servers: Vec<NodeId>) {
        self.session.set_servers(servers);
    }

    /// The full request history.
    pub fn history(&self) -> &[CompletedOp<S>] {
        &self.history
    }

    /// Number of operations not yet completed (queued + in flight).
    pub(crate) fn outstanding(&self) -> usize {
        self.queue.len() + usize::from(self.session.busy())
    }

    /// Boot: arm the tick.
    pub(crate) fn on_start(&mut self, ctx: &mut Context<Msg<S>>) {
        ctx.set_timer(TICK, TICK_TOKEN);
    }

    /// Tick: launch queued work, retransmit timed-out requests.
    pub(crate) fn on_timer(&mut self, _t: TimerToken, ctx: &mut Context<Msg<S>>) {
        ctx.set_timer(TICK, TICK_TOKEN);
        if self.session.busy() {
            self.session.retry_if_timed_out(ctx);
        } else if let Some(op) = self.queue.pop_front() {
            let req_id = self.history.len() as u64 + 1;
            self.history.push(CompletedOp {
                req_id,
                op: op.clone(),
                issued_at: ctx.now,
                completed: None,
            });
            let first_target = self.rng.gen_range(0..self.session.servers().len());
            self.session.launch(req_id, op, first_target, true, ctx);
        }
    }

    /// Message dispatch (responses only). The reply to a reconfiguration
    /// carries no response and completes it all the same.
    pub(crate) fn on_message(&mut self, from: NodeId, msg: Msg<S>, ctx: &mut Context<Msg<S>>) {
        if let Some(resp) = self.session.on_reply(from, msg, true, ctx.now) {
            let entry = self.history.last_mut().expect("in-flight op recorded");
            entry.completed = Some((ctx.now, resp));
        }
    }
}
