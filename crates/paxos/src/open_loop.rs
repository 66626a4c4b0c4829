//! An open-loop session client: operations arrive on a precomputed
//! schedule (the arrival process decides *when*, not the service), and
//! latency is measured from the **scheduled arrival** to completion, so
//! server-side queueing is charged to the request instead of silently
//! delaying subsequent arrivals (no coordinated omission).
//!
//! One session keeps at most one operation on the wire. This is not a
//! throughput limitation — concurrency comes from running many session
//! actors — but a correctness requirement: the replicas' exactly-once
//! cache assumes each client's requests are proposed in `req_id` order,
//! and the simulated network does not preserve FIFO. A session with two
//! requests in flight could see request `k+1` commit first, after which
//! request `k` is dropped everywhere as a stale duplicate and the
//! session livelocks. Demand that outruns a session's single slot queues
//! here and shows up as latency, exactly like an open-loop load
//! generator's connection pool.

use obs::Obs;
use simnet::{Context, NodeId, SimTime, TimerToken};

use crate::msg::Msg;
use crate::service::Service;
use crate::session::Session;

/// Arrival-release timer (tokens 0–2 belong to the replica and the
/// closed-loop client).
const ARRIVAL_TOKEN: TimerToken = TimerToken(3);
/// Retransmission check timer.
const RETRY_TOKEN: TimerToken = TimerToken(4);

/// One scheduled operation and its outcome.
#[derive(Clone, Debug)]
pub struct OpenOp<S: Service> {
    /// The command.
    pub cmd: S::Cmd,
    /// Scheduled arrival time (latency is measured from here).
    pub scheduled: SimTime,
    /// Completion time and response, once acknowledged.
    pub completed: Option<(SimTime, S::Resp)>,
}

/// An open-loop session actor driving one cluster.
#[derive(Clone, Debug)]
pub struct OpenLoopClient<S: Service> {
    me: NodeId,
    session: Session<S>,
    /// Open a causal `client.request` root span for every Nth launched
    /// operation (0 disables tracing entirely). Sampling keeps the
    /// bounded trace ring representative at 100k-request scale.
    trace_every: u64,
    records: Vec<OpenOp<S>>,
    /// Records released by the arrival process (prefix of `records`).
    arrived: usize,
    /// Records sent at least once (prefix of `arrived`); while the
    /// session is busy, `launched - 1` is the one in flight.
    launched: usize,
    completed: usize,
    retransmits: u64,
}

impl<S: Service> OpenLoopClient<S> {
    /// A session that plays `schedule` (must be sorted by time) against
    /// `servers`. `req_id`s are assigned in schedule order starting at 1.
    pub fn new(me: NodeId, servers: Vec<NodeId>, schedule: Vec<(SimTime, S::Cmd)>) -> Self {
        debug_assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule must be sorted by arrival time"
        );
        let records = schedule
            .into_iter()
            .map(|(scheduled, cmd)| OpenOp {
                cmd,
                scheduled,
                completed: None,
            })
            .collect();
        OpenLoopClient {
            me,
            session: Session::new(me, servers),
            trace_every: 1,
            records,
            arrived: 0,
            launched: 0,
            completed: 0,
            retransmits: 0,
        }
    }

    /// Attach an observability handle (builder-style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.session.obs = obs;
        self
    }

    /// Trace every Nth operation (0 traces none).
    pub fn with_trace_every(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }

    /// Every scheduled operation and its outcome.
    pub fn records(&self) -> &[OpenOp<S>] {
        &self.records
    }

    /// Operations acknowledged so far.
    pub fn completions(&self) -> usize {
        self.completed
    }

    /// Retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    fn arm_next_arrival(&mut self, ctx: &mut Context<Msg<S>>) {
        if let Some(next) = self.records.get(self.arrived) {
            ctx.set_timer(next.scheduled.saturating_sub(ctx.now), ARRIVAL_TOKEN);
        }
    }

    /// Put the next released record on the wire if the slot is free.
    fn try_launch(&mut self, ctx: &mut Context<Msg<S>>) {
        if self.session.busy() || self.launched >= self.arrived {
            return;
        }
        let idx = self.launched;
        self.launched += 1;
        let op = S::op(self.records[idx].cmd.clone());
        let traced = self.trace_every > 0 && (idx as u64).is_multiple_of(self.trace_every);
        // Spread sessions' first picks deterministically by identity.
        let first_target = self.me.0 + idx;
        self.session
            .launch(idx as u64 + 1, op, first_target, traced, ctx);
        ctx.set_timer(S::CLIENT_TIMEOUT, RETRY_TOKEN);
    }

    /// Boot: arm the first arrival.
    pub(crate) fn on_start(&mut self, ctx: &mut Context<Msg<S>>) {
        self.arm_next_arrival(ctx);
    }

    /// Timers: arrival releases and retransmission checks.
    pub(crate) fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Msg<S>>) {
        match token {
            ARRIVAL_TOKEN => {
                while self
                    .records
                    .get(self.arrived)
                    .is_some_and(|r| r.scheduled <= ctx.now)
                {
                    self.arrived += 1;
                }
                self.arm_next_arrival(ctx);
                self.try_launch(ctx);
            }
            RETRY_TOKEN => {
                // A stale timer from a completed op retries nothing.
                let retried = self.session.retry_if_timed_out(ctx);
                if retried {
                    self.retransmits += 1;
                    ctx.set_timer(S::CLIENT_TIMEOUT, RETRY_TOKEN);
                }
            }
            _ => {}
        }
    }

    /// Message dispatch (responses only). A session never sends a
    /// reconfiguration, so it does not take the response-less reply.
    pub(crate) fn on_message(&mut self, from: NodeId, msg: Msg<S>, ctx: &mut Context<Msg<S>>) {
        let Some(resp) = self.session.on_reply(from, msg, false, ctx.now) else {
            return;
        };
        let resp = resp.expect("empty replies are not accepted");
        self.records[self.launched - 1].completed = Some((ctx.now, resp));
        self.completed += 1;
        self.try_launch(ctx);
    }
}
