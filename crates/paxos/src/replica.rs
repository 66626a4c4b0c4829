//! The replica core: acceptor + proposer + learner of one Multi-Paxos
//! log, hosting a [`Service`].
#![deny(clippy::too_many_lines)]

use std::collections::{BTreeMap, HashSet, VecDeque};

use obs::{Counter, FieldValue, Histogram, Obs, SpanHandle, TraceContext};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{Context, NodeId, SimTime, TimerToken};

use crate::ballot::{Ballot, Slot};
use crate::msg::{AcceptedEntry, ChosenEntry, Msg, QuorumRule, SnapshotData, MSG_KINDS};
use crate::service::{Compose, PendingOp, Service};

/// Static replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// The quorum rule (majority for the lock service, RS-Paxos for the
    /// coded storage service).
    pub quorum: QuorumRule,
    /// Compact the log (snapshot + prune) once this many slots have been
    /// applied since the previous compaction. `None` disables compaction.
    pub compact_after: Option<u64>,
    /// Maximum client operations folded into one slot. `1` makes every
    /// slot a one-op batch of the same request queue, so each request
    /// gets its own slot and never lingers.
    pub batch_max_ops: usize,
    /// How long the leader lingers on a partial batch before proposing
    /// it anyway (never, at a batch size of 1).
    pub batch_delay: SimTime,
    /// Maximum in-flight (accepted-but-unchosen) proposals at the
    /// leader. `0` means unlimited. With a bound, excess requests queue
    /// at the leader and are batched into slots as the window frees up.
    pub pipeline: usize,
    /// Observability sink (metrics + tracing). Disabled by default; when
    /// enabled the replica counts messages by kind, tracks elections and
    /// ballot churn, and times phase-1/phase-2 round trips in sim time.
    pub obs: Obs,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            quorum: QuorumRule::Majority,
            compact_after: Some(4096),
            batch_max_ops: 1,
            batch_delay: SimTime::from_millis(5),
            pipeline: 0,
            obs: Obs::disabled(),
        }
    }
}

/// Internal bookkeeping tick.
const TICK: SimTime = SimTime::from_millis(50);
/// Leader heartbeat period.
const HEARTBEAT_EVERY: SimTime = SimTime::from_millis(200);
/// Election timeout range (randomized per deadline).
const ELECTION_TIMEOUT: (SimTime, SimTime) =
    (SimTime::from_millis(800), SimTime::from_millis(1600));
/// Re-broadcast period for unacknowledged proposals (and, in the coded
/// store, for shard pulls).
pub const PROPOSAL_RETRY: SimTime = SimTime::from_millis(400);
/// Maximum entries per catch-up reply batch.
const CATCHUP_BATCH: usize = 512;

const TICK_TOKEN: TimerToken = TimerToken(0);
/// Linger timer for a partial batch (token 1 is the client tick).
const BATCH_TOKEN: TimerToken = TimerToken(2);

/// The proposer's phase.
#[derive(Clone, Debug)]
enum Phase<W> {
    /// Passive: following a (possibly unknown) leader.
    Follower,
    /// Campaigning: collecting promises for `ballot`.
    Preparing {
        /// Ordered by node, not hashed: the catch-up peer after a
        /// takeover is picked by walking this map, and a hasher-ordered
        /// walk would break ties differently from run to run.
        promises: BTreeMap<NodeId, (Vec<AcceptedEntry<W>>, Slot)>,
    },
    /// Leading: the stable proposer for `ballot`.
    Leading,
}

/// An in-flight proposal at the leader.
#[derive(Clone, Debug)]
struct Proposal<V> {
    value: V,
    acks: HashSet<NodeId>,
    sent_at: SimTime,
    /// Open per-operation propose span, a causal child of the request
    /// that triggered the proposal (inert when tracing is off).
    propose_span: SpanHandle,
    /// Open quorum-wait trace span, a causal child of `propose_span`.
    span: SpanHandle,
}

/// Pre-resolved instrument handles and trace-point names for the
/// replica's hot paths, so the per-message cost is an atomic add (or a
/// `None` check when disabled) instead of a registry lookup.
#[derive(Clone, Debug)]
struct ReplicaMetrics {
    obs: Obs,
    /// By [`Msg::kind_index`].
    sent: Vec<Counter>,
    recv: Vec<Counter>,
    elections: Counter,
    leadership: Counter,
    phase1_micros: Histogram,
    phase2_micros: Histogram,
    election: String,
    takeover: String,
    propose: String,
    quorum_wait: String,
    commit: String,
    apply: String,
    batch_join: String,
}

impl ReplicaMetrics {
    fn new<S: Service>(obs: Obs) -> Self {
        let name = |what: &str| format!("{}.{what}", S::PREFIX);
        let by_kind = |dir: &str| {
            MSG_KINDS
                .iter()
                .chain(S::EXT_KINDS)
                .map(|kind| obs.counter(&name(&format!("{dir}.{kind}"))))
                .collect()
        };
        ReplicaMetrics {
            sent: by_kind("msg_sent"),
            recv: by_kind("msg_recv"),
            elections: obs.counter(&name("elections_started")),
            leadership: obs.counter(&name("leadership_acquired")),
            phase1_micros: obs.histogram(&name("phase1_micros")),
            phase2_micros: obs.histogram(&name("phase2_micros")),
            election: name("election"),
            takeover: name("takeover"),
            propose: name("propose"),
            quorum_wait: name("quorum_wait"),
            commit: name("commit"),
            apply: name("apply"),
            batch_join: name("batch_join"),
            obs,
        }
    }
}

/// Per-slot acceptor state.
#[derive(Clone, Debug)]
struct SlotState<W> {
    accepted: Option<(Ballot, W)>,
    chosen: Option<W>,
}

impl<W> Default for SlotState<W> {
    fn default() -> Self {
        SlotState {
            accepted: None,
            chosen: None,
        }
    }
}

/// The exactly-once cache: per client, the last applied request id and
/// its response. Client ids are `simnet` node indices, which
/// [`simnet::Simulation::add_node`] hands out densely from zero, so the
/// cache is a vector indexed by them and lists its entries in ascending
/// client order by construction.
#[derive(Clone, Debug)]
pub(crate) struct ClientTable<R>(Vec<Option<(u64, Option<R>)>>);

impl<R: Clone> ClientTable<R> {
    /// `client`'s last applied request id and its response.
    pub(crate) fn get(&self, client: NodeId) -> Option<&(u64, Option<R>)> {
        self.0.get(client.0).and_then(Option::as_ref)
    }

    /// Record `req_id` and its response as `client`'s last applied.
    pub(crate) fn insert(&mut self, client: NodeId, req_id: u64, resp: Option<R>) {
        if client.0 >= self.0.len() {
            self.0.resize_with(client.0 + 1, || None);
        }
        self.0[client.0] = Some((req_id, resp));
    }

    /// The entries in ascending client order, as a snapshot carries them.
    fn entries(&self) -> Vec<(NodeId, u64, Option<R>)> {
        let rows = self.0.iter().enumerate();
        rows.filter_map(|(c, row)| {
            let (r, resp) = row.as_ref()?;
            Some((NodeId(c), *r, resp.clone()))
        })
        .collect()
    }

    fn from_entries(entries: Vec<(NodeId, u64, Option<R>)>) -> Self {
        let mut table = ClientTable(Vec::new());
        for (c, r, resp) in entries {
            table.insert(c, r, resp);
        }
        table
    }
}

/// A Multi-Paxos replica hosting a [`Service`].
#[derive(Clone, Debug)]
pub struct Replica<S: Service> {
    pub(crate) me: NodeId,
    pub(crate) cfg: ReplicaConfig,
    /// Current membership view, sorted.
    pub(crate) view: Vec<NodeId>,
    /// Number of reconfigurations applied.
    pub(crate) view_id: u64,
    /// True once this replica applied its own removal.
    pub(crate) retired: bool,

    pub(crate) svc: S::Host,
    /// Per-slot protocol state (pruned below `floor`).
    slots: BTreeMap<Slot, SlotState<S::Wire>>,
    /// First unchosen slot (everything below is chosen).
    commit_index: Slot,
    /// First unapplied slot (`applied ≤ commit_index`).
    pub(crate) applied: Slot,
    /// Compaction floor: slots below this were pruned into the snapshot
    /// implied by the live service state.
    pub(crate) floor: Slot,
    /// Exactly-once cache: client → (last applied req_id, response).
    pub(crate) dedup: ClientTable<S::Resp>,

    /// Highest ballot promised (acceptor duty).
    promised: Ballot,
    /// Our own ballot when campaigning or leading.
    ballot: Ballot,
    phase: Phase<S::Wire>,
    /// Who we believe leads (for request forwarding).
    leader: Option<NodeId>,
    /// In-flight proposals (leader only).
    proposals: BTreeMap<Slot, Proposal<S::Value>>,
    /// Next free slot (leader only).
    next_slot: Slot,
    /// Requests waiting for leadership, for a service barrier, for the
    /// pipeline window, or for their batch to fill.
    pending: VecDeque<PendingOp<S::Op>>,

    election_deadline: SimTime,
    last_heartbeat_sent: SimTime,
    rng: ChaCha8Rng,
    metrics: ReplicaMetrics,
    /// Open phase-1 trace span and its start time while campaigning.
    phase1_open: Option<(SpanHandle, SimTime)>,
}

impl<S: Service> Replica<S> {
    /// Create a replica with the given identity, initial view, service
    /// state and RNG seed (used only for election jitter).
    pub(crate) fn new(
        me: NodeId,
        view: Vec<NodeId>,
        svc: S::Host,
        cfg: ReplicaConfig,
        seed: u64,
    ) -> Self {
        let mut view = view;
        view.sort_unstable();
        view.dedup();
        assert!(view.contains(&me) || view.is_empty(), "replica not in view");
        let metrics = ReplicaMetrics::new::<S>(cfg.obs.clone());
        Replica {
            me,
            cfg,
            view,
            view_id: 0,
            retired: false,
            svc,
            slots: BTreeMap::new(),
            commit_index: 0,
            applied: 0,
            floor: 0,
            dedup: ClientTable(Vec::new()),
            promised: Ballot::BOTTOM,
            ballot: Ballot::BOTTOM,
            phase: Phase::Follower,
            leader: None,
            proposals: BTreeMap::new(),
            next_slot: 0,
            pending: VecDeque::new(),
            election_deadline: SimTime::ZERO,
            last_heartbeat_sent: SimTime::ZERO,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (me.0 as u64).wrapping_mul(S::REPLICA_SALT)),
            metrics,
            phase1_open: None,
        }
    }

    // ------------------------------------------------------ introspection

    /// The current membership view.
    pub fn view(&self) -> &[NodeId] {
        &self.view
    }

    /// Number of reconfigurations applied so far.
    pub fn view_id(&self) -> u64 {
        self.view_id
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        matches!(self.phase, Phase::Leading)
    }

    /// First unchosen slot.
    pub fn commit_index(&self) -> Slot {
        self.commit_index
    }

    /// The hosted service state.
    pub fn service(&self) -> &S::Host {
        &self.svc
    }

    /// Mutable service state (for the service's own hooks).
    pub fn service_mut(&mut self) -> &mut S::Host {
        &mut self.svc
    }

    /// The compaction floor: slots below this are no longer in the log.
    pub fn compaction_floor(&self) -> Slot {
        self.floor
    }

    /// Whether this replica applied its own removal from the view.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// The applied part of the chosen log still held (slots at or above
    /// the compaction floor), as this replica stores it.
    pub fn applied_prefix(&self) -> Vec<(Slot, S::Wire)> {
        self.slots
            .range(..self.applied)
            .filter_map(|(s, st)| st.chosen.clone().map(|v| (*s, v)))
            .collect()
    }

    /// The quorum size under the configured rule and the current view.
    pub(crate) fn quorum(&self) -> usize {
        self.cfg.quorum.quorum_size(self.view.len())
    }

    fn idx_of(&self, node: NodeId) -> Option<usize> {
        self.view.iter().position(|&n| n == node)
    }

    // ---------------------------------------------------------- snapshots

    /// Package the applied state as a snapshot.
    pub(crate) fn snapshot(&self) -> Box<SnapshotData<S>> {
        Box::new(SnapshotData {
            applied: self.applied,
            view: self.view.clone(),
            view_id: self.view_id,
            state: S::snapshot(&self.svc),
            dedup: self.dedup.entries(),
        })
    }

    /// Adopt a snapshot that is ahead of the local applied prefix.
    fn install_snapshot(&mut self, snap: SnapshotData<S>, now: SimTime) {
        if snap.applied <= self.applied {
            return;
        }
        S::restore(&mut self.svc, snap.state);
        self.dedup = ClientTable::from_entries(snap.dedup);
        if snap.view_id >= self.view_id {
            self.view = snap.view;
            self.view_id = snap.view_id;
        }
        self.applied = snap.applied;
        self.commit_index = self.commit_index.max(snap.applied);
        self.floor = self.floor.max(snap.applied);
        self.slots = self.slots.split_off(&snap.applied);
        if !self.view.contains(&self.me) {
            self.retired = true;
            self.step_down(now);
        }
    }

    /// Snapshot and prune the applied prefix when due.
    fn maybe_compact(&mut self) {
        let Some(every) = self.cfg.compact_after else {
            return;
        };
        if self.applied.saturating_sub(self.floor) < every {
            return;
        }
        self.floor = self.applied;
        self.slots = self.slots.split_off(&self.floor);
    }

    // ------------------------------------------------------ observability

    /// Send one message, counting it by kind; it continues the causal
    /// chain of the message being handled.
    pub fn send_msg(&self, ctx: &mut Context<Msg<S>>, to: NodeId, msg: Msg<S>) {
        self.send_msg_traced(ctx, to, msg, ctx.trace());
    }

    /// [`Replica::send_msg`] under an explicit trace context, so
    /// per-operation protocol traffic (Accepts, Commits, retries) stays
    /// parented under the operation's propose span rather than whatever
    /// message happened to trigger the send.
    fn send_msg_traced(
        &self,
        ctx: &mut Context<Msg<S>>,
        to: NodeId,
        msg: Msg<S>,
        trace: TraceContext,
    ) {
        self.metrics.sent[msg.kind_index()].inc();
        ctx.send_traced(to, msg, trace);
    }

    /// Broadcast to the view (self excluded, matching
    /// [`Context::broadcast`]), counting each copy by kind.
    pub fn broadcast_msg(&self, ctx: &mut Context<Msg<S>>, msg: Msg<S>) {
        let fanout = self.view.iter().filter(|&&p| p != self.me).count();
        self.metrics.sent[msg.kind_index()].add(fanout as u64);
        ctx.broadcast(self.view.iter(), msg);
    }

    /// Send every peer its own wire form of `value`, wrapped by `msg`,
    /// under `trace`.
    fn send_wires(
        &self,
        ctx: &mut Context<Msg<S>>,
        value: &S::Value,
        trace: TraceContext,
        msg: impl Fn(S::Wire) -> Msg<S>,
    ) {
        for (idx, &peer) in self.view.iter().enumerate() {
            if peer != self.me {
                self.send_msg_traced(ctx, peer, msg(S::wire_for(value, idx)), trace);
            }
        }
    }

    /// Drive the shared trace clock to the simulation's current time.
    fn sync_obs_time(&self, now: SimTime) {
        self.metrics.obs.set_time_micros(now.as_micros());
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        let (lo, hi) = ELECTION_TIMEOUT;
        let jitter = self.rng.gen_range(0..(hi - lo).as_millis());
        self.election_deadline = now + lo + SimTime::from_millis(jitter);
    }

    fn close_election_span(&mut self, won: bool) -> Option<SimTime> {
        let (span, started) = self.phase1_open.take()?;
        let m = &self.metrics;
        m.obs
            .trace
            .span_close(span, &m.election, &[("won", FieldValue::Bool(won))]);
        Some(started)
    }

    pub(crate) fn step_down(&mut self, now: SimTime) {
        self.close_election_span(false);
        let m = &self.metrics;
        let aborted = [("aborted", FieldValue::Bool(true))];
        for p in self.proposals.values() {
            m.obs.trace.span_close(p.span, &m.quorum_wait, &aborted);
            m.obs.trace.span_close(p.propose_span, &m.propose, &aborted);
        }
        self.phase = Phase::Follower;
        self.proposals.clear();
        S::stepped_down(&mut self.svc, &mut self.pending);
        self.reset_election_deadline(now);
    }

    /// Recover after a crash: drop volatile (in-memory) state, keep the
    /// durable (on-disk) state — `promised`, accepted/chosen slots, the
    /// applied service state and the exactly-once cache.
    ///
    /// Paxos quorum intersection is only sound if acceptor state survives
    /// restarts: a node that re-promises with an empty accepted set can
    /// complete a new-leader quorum that excludes every acker of an
    /// already-chosen value, letting the new leader choose a different
    /// command for the same slot. A replica whose disk is truly gone must
    /// rejoin as a *new* node via reconfiguration, not reuse its id.
    pub(crate) fn reboot(&mut self) {
        self.step_down(SimTime::ZERO);
        self.leader = None;
        // In-flight client requests died with the process; clients retry.
        self.pending.clear();
        // `on_start` re-arms the tick timer and election deadline at boot.
    }

    // ----------------------------------------------------------- election

    fn start_election(&mut self, ctx: &mut Context<Msg<S>>) {
        if self.retired || !self.view.contains(&self.me) {
            return;
        }
        let round = self.promised.round.max(self.ballot.round) + 1;
        self.ballot = Ballot {
            round,
            node: self.me,
        };
        self.promised = self.ballot;
        self.leader = None;
        let mut promises = BTreeMap::new();
        promises.insert(
            self.me,
            (self.accepted_tail(self.commit_index), self.commit_index),
        );
        self.phase = Phase::Preparing { promises };
        self.reset_election_deadline(ctx.now);
        self.metrics.elections.inc();
        // A re-election supersedes the previous campaign.
        self.close_election_span(false);
        let span = self.metrics.obs.trace.span_open(
            &self.metrics.election,
            &[
                ("node", FieldValue::U64(self.me.0 as u64)),
                ("round", FieldValue::U64(round)),
            ],
        );
        self.phase1_open = Some((span, ctx.now));
        let msg = Msg::Prepare {
            ballot: self.ballot,
            from_slot: self.commit_index,
        };
        self.broadcast_msg(ctx, msg);
        // A single-node view elects itself immediately.
        self.try_become_leader(ctx);
    }

    fn accepted_tail(&self, from: Slot) -> Vec<AcceptedEntry<S::Wire>> {
        self.slots
            .range(from..)
            .filter(|(_, st)| st.chosen.is_none())
            .filter_map(|(&slot, st)| {
                st.accepted.as_ref().map(|(ballot, value)| AcceptedEntry {
                    slot,
                    ballot: *ballot,
                    value: value.clone(),
                })
            })
            .collect()
    }

    /// The chosen entries from `from` on, each reshaped for `dest`.
    pub(crate) fn chosen_tail(
        &self,
        from: Slot,
        dest: NodeId,
    ) -> impl Iterator<Item = ChosenEntry<S::Wire>> + '_ {
        let dest_idx = self.idx_of(dest);
        self.slots.range(from..).filter_map(move |(&slot, st)| {
            st.chosen.as_ref().map(|v| ChosenEntry {
                slot,
                value: S::reshape(&self.svc, v, slot, dest_idx),
            })
        })
    }

    fn try_become_leader(&mut self, ctx: &mut Context<Msg<S>>) {
        let quorum = self.quorum();
        match &self.phase {
            Phase::Preparing { promises } if promises.len() >= quorum => {}
            _ => return,
        }
        let Phase::Preparing { promises } = std::mem::replace(&mut self.phase, Phase::Leading)
        else {
            unreachable!("matched above");
        };
        // Per slot: the highest ballot and every copy accepted at it.
        let mut merged: BTreeMap<Slot, (Ballot, Vec<&S::Wire>)> = BTreeMap::new();
        let mut max_commit = self.commit_index;
        // The lowest-numbered peer at the highest commit index.
        let mut best_peer = self.me;
        for (&peer, (accepted, ci)) in &promises {
            if *ci > max_commit {
                max_commit = *ci;
                best_peer = peer;
            }
            for e in accepted {
                let m = merged.entry(e.slot).or_insert((Ballot::BOTTOM, Vec::new()));
                if e.ballot > m.0 {
                    *m = (e.ballot, vec![&e.value]);
                } else if e.ballot == m.0 {
                    m.1.push(&e.value);
                }
            }
        }
        self.leader = Some(self.me);
        self.metrics.leadership.inc();
        self.metrics.obs.trace.event(
            &self.metrics.takeover,
            &[
                ("node", FieldValue::U64(self.me.0 as u64)),
                ("round", FieldValue::U64(self.ballot.round)),
                ("commit_index", FieldValue::U64(self.commit_index)),
                ("merged", FieldValue::U64(merged.len() as u64)),
                (
                    "merged_hi",
                    FieldValue::U64(merged.keys().next_back().copied().unwrap_or(0)),
                ),
                (
                    "promisers",
                    FieldValue::U64(
                        promises
                            .keys()
                            .fold(0u64, |m, n| m | (1 << (n.0 as u64 % 64))),
                    ),
                ),
            ],
        );
        if let Some(started) = self.close_election_span(true) {
            self.metrics
                .phase1_micros
                .record(ctx.now.saturating_sub(started).as_micros());
        }
        self.last_heartbeat_sent = SimTime::ZERO; // heartbeat asap

        // Re-propose merged values, fill gaps with no-ops up to the top.
        // Fresh proposals must start past every slot already decided, not
        // just past the merged *accepted* entries: a chosen slot adopted
        // from a promise can sit beyond a gap (commit_index stalls at the
        // gap), and a peer's commit index proves everything below it was
        // chosen somewhere. Assigning a fresh command to such a slot would
        // overwrite a decided value.
        let top = merged.keys().next_back().map(|s| s + 1).unwrap_or(0);
        let chosen_top = self
            .slots
            .iter()
            .rev()
            .find(|(_, st)| st.chosen.is_some())
            .map(|(&s, _)| s + 1)
            .unwrap_or(0);
        self.next_slot = self.commit_index.max(top).max(chosen_top).max(max_commit);
        let to_propose: Vec<(Slot, S::Value)> = (self.commit_index..self.next_slot)
            .filter(|slot| self.slots.get(slot).is_none_or(|st| st.chosen.is_none()))
            .map(|slot| {
                let copies = merged.get(&slot).map_or(&[][..], |(_, copies)| copies);
                (slot, S::recover(&self.svc, copies))
            })
            .collect();
        for (slot, value) in to_propose {
            // Re-proposals triggered by the view change are causally the
            // election's work: parent them under whatever message closed
            // the quorum (usually the deciding Promise).
            let trace = ctx.trace();
            self.send_accepts(slot, value, trace, ctx);
        }
        // Lagging behind a peer's commit index: fetch the chosen prefix.
        if best_peer != self.me {
            self.send_msg(
                ctx,
                best_peer,
                Msg::CatchupRequest {
                    from_slot: self.commit_index,
                },
            );
        }
        self.maybe_flush_batches(true, ctx);
        self.send_heartbeat(ctx);
    }

    // --------------------------------------------------------- proposing

    fn slot_state(&mut self, slot: Slot) -> &mut SlotState<S::Wire> {
        self.slots.entry(slot).or_default()
    }

    fn send_accepts(
        &mut self,
        slot: Slot,
        value: S::Value,
        trace: TraceContext,
        ctx: &mut Context<Msg<S>>,
    ) {
        let ballot = self.ballot;
        // Self-accept immediately.
        let my_idx = self.idx_of(self.me).expect("a leader is in its view");
        self.slot_state(slot).accepted = Some((ballot, S::wire_for(&value, my_idx)));
        let mut acks = HashSet::new();
        acks.insert(self.me);
        // Per-operation spans: the propose span is a causal child of the
        // request (or election) that produced the value; the quorum wait
        // nests inside it and the phase-2 sends ride its context.
        let propose_span = self.metrics.obs.trace.span_open_causal(
            &self.metrics.propose,
            trace,
            &[
                ("slot", FieldValue::U64(slot)),
                ("node", FieldValue::U64(self.me.0 as u64)),
            ],
        );
        let span = self.metrics.obs.trace.span_open_causal(
            &self.metrics.quorum_wait,
            propose_span.context(),
            &[("slot", FieldValue::U64(slot))],
        );
        self.send_wires(ctx, &value, span.context(), |value| Msg::Accept {
            ballot,
            slot,
            value,
        });
        self.proposals.insert(
            slot,
            Proposal {
                value,
                acks,
                sent_at: ctx.now,
                propose_span,
                span,
            },
        );
        self.maybe_choose(slot, ctx);
    }

    /// Exactly-once admission: answer a retransmission of the last
    /// applied request from the cache, drop stale ones and duplicates of
    /// an in-flight proposal (it will answer). `false` means settled.
    fn admit(&mut self, client: NodeId, req_id: u64, ctx: &mut Context<Msg<S>>) -> bool {
        if let Some((last, resp)) = self.dedup.get(client) {
            if *last == req_id {
                let resp = resp.clone();
                self.send_msg(ctx, client, Msg::Response { req_id, resp });
                return false;
            }
            if *last > req_id {
                return false; // stale duplicate
            }
        }
        !self
            .proposals
            .values()
            .any(|p| S::carries(&p.value, client, req_id))
    }

    /// Never allocate a slot that is already decided (a commit adopted
    /// from a peer can land beyond the contiguous prefix).
    fn allocate_slot(&mut self) -> Slot {
        while self
            .slots
            .get(&self.next_slot)
            .is_some_and(|st| st.chosen.is_some())
        {
            self.next_slot += 1;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Propose a request the service keeps out of batches alone, in its
    /// own slot, re-admitted: it may have settled while it queued.
    fn propose_op(&mut self, p: PendingOp<S::Op>, ctx: &mut Context<Msg<S>>) {
        if !self.admit(p.client, p.req_id, ctx) {
            return;
        }
        let trace = p.trace;
        let value = S::value(&mut self.svc, vec![p]);
        let slot = self.allocate_slot();
        self.send_accepts(slot, value, trace, ctx);
    }

    /// Queue one admitted request for proposing.
    fn enqueue_op(&mut self, p: PendingOp<S::Op>, ctx: &mut Context<Msg<S>>) {
        if !self.admit(p.client, p.req_id, ctx)
            || self
                .pending
                .iter()
                .any(|q| q.client == p.client && q.req_id == p.req_id)
        {
            return; // settled, or a retransmission of something queued
        }
        self.pending.push_back(p);
        self.maybe_flush_batches(false, ctx);
    }

    /// Drain the pending queue into slot proposals: full batches go out
    /// immediately, a partial batch lingers up to `batch_delay` (unless
    /// `force`), and the pipeline cap bounds in-flight proposals. The
    /// queue stalls while its front request is barred. Called on request
    /// arrival, on the linger timer, when a slot is chosen, and (forced)
    /// at leadership acquisition.
    pub(crate) fn maybe_flush_batches(&mut self, force: bool, ctx: &mut Context<Msg<S>>) {
        let max_ops = self.cfg.batch_max_ops.max(1);
        loop {
            let Some(front) = self.pending.front() else {
                return;
            };
            if !self.is_leader() || S::barrier(&self.svc, &front.op) {
                return;
            }
            let oldest = front.at;
            if self.cfg.pipeline > 0 && self.proposals.len() >= self.cfg.pipeline {
                return; // window full; maybe_choose re-flushes on commit
            }
            let (take, full) = match S::compose(&self.pending, max_ops) {
                Compose::Alone => {
                    let p = self.pending.pop_front().expect("checked non-empty");
                    self.propose_op(p, ctx);
                    continue;
                }
                Compose::Batch { take, full } => (take, full),
            };
            let age = ctx.now.saturating_sub(oldest);
            if !force && !full && age < self.cfg.batch_delay {
                // Linger: re-check when the oldest entry's delay expires.
                let wait = self.cfg.batch_delay.saturating_sub(age);
                ctx.set_timer(wait.max(SimTime::from_millis(1)), BATCH_TOKEN);
                return;
            }
            let ops: Vec<PendingOp<S::Op>> = self.pending.drain(..take).collect();
            // The batch's protocol traffic is parented under the first
            // entry's trace; later joiners get a causal marker in their
            // own traces instead.
            let trace = ops[0].trace;
            for p in &ops[1..] {
                self.metrics.obs.trace.event_causal(
                    &self.metrics.batch_join,
                    p.trace,
                    &[
                        ("client", FieldValue::U64(p.client.0 as u64)),
                        ("req_id", FieldValue::U64(p.req_id)),
                    ],
                );
            }
            let value = S::value(&mut self.svc, ops);
            let slot = self.allocate_slot();
            self.send_accepts(slot, value, trace, ctx);
        }
    }

    fn maybe_choose(&mut self, slot: Slot, ctx: &mut Context<Msg<S>>) {
        let quorum = self.quorum();
        if self
            .proposals
            .get(&slot)
            .is_none_or(|p| p.acks.len() < quorum)
        {
            return;
        }
        let p = self.proposals.remove(&slot).expect("checked above");
        let m = &self.metrics;
        m.phase2_micros
            .record(ctx.now.saturating_sub(p.sent_at).as_micros());
        m.obs.trace.span_close(
            p.span,
            &m.quorum_wait,
            &[
                ("slot", FieldValue::U64(slot)),
                ("acks", FieldValue::U64(p.acks.len() as u64)),
            ],
        );
        let propose_ctx = p.propose_span.context();
        let at_slot = [("slot", FieldValue::U64(slot))];
        m.obs.trace.event_causal(&m.commit, propose_ctx, &at_slot);
        m.obs.trace.span_close(p.propose_span, &m.propose, &at_slot);
        // Chosen values are write-once (as in `note_chosen`): if a commit
        // for this slot was adopted while our proposal was in flight,
        // Paxos guarantees the decisions agree — keep the stored entry.
        let my_idx = self.idx_of(self.me).expect("a leader is in its view");
        let st = self.slot_state(slot);
        if st.chosen.is_none() {
            st.chosen = Some(S::wire_for(&p.value, my_idx));
        }
        S::chosen(&mut self.svc, slot, &p.value);
        self.send_wires(ctx, &p.value, propose_ctx, |value| Msg::Commit {
            entry: ChosenEntry { slot, value },
        });
        self.advance(ctx);
        // A slot just left the pipeline window: queued requests may go.
        self.maybe_flush_batches(false, ctx);
    }

    // ----------------------------------------------------------- learning

    fn note_chosen(&mut self, entry: ChosenEntry<S::Wire>, ctx: &mut Context<Msg<S>>) {
        let applied = entry.slot < self.applied;
        match &mut self.slot_state(entry.slot).chosen {
            Some(_) if applied => {} // its value went to the service
            Some(existing) => S::absorb(existing, entry.value),
            empty => *empty = Some(entry.value),
        }
        self.advance(ctx);
    }

    /// Apply every contiguously chosen slot, then compact when due. The
    /// service takes each value; the log keeps the decision and drops the
    /// accepted copy, which nothing reads once the slot is chosen. A late
    /// `Accept` for an applied slot is acked, not kept (`on_accept`).
    fn advance(&mut self, ctx: &mut Context<Msg<S>>) {
        while let Some(st) = self.slots.get_mut(&self.commit_index) {
            let Some(chosen) = st.chosen.as_mut() else {
                break;
            };
            let value = S::take_applied(chosen);
            st.accepted = None;
            let slot = self.commit_index;
            self.commit_index += 1;
            debug_assert_eq!(slot, self.applied, "out-of-order apply");
            self.applied = slot + 1;
            // Applies triggered by a traced Commit/Accepted land inside
            // the operation's trace; catch-up applies carry their own
            // context.
            self.metrics.obs.trace.event_causal(
                &self.metrics.apply,
                ctx.trace(),
                &[
                    ("slot", FieldValue::U64(slot)),
                    ("node", FieldValue::U64(self.me.0 as u64)),
                ],
            );
            S::apply(self, slot, value, ctx);
        }
        self.maybe_compact();
    }

    /// Record `resp` as `client`'s latest answer unless a later request
    /// of theirs already applied, and (at the leader) send it.
    pub fn finish(
        &mut self,
        client: NodeId,
        req_id: u64,
        resp: Option<S::Resp>,
        ctx: &mut Context<Msg<S>>,
    ) {
        if self
            .dedup
            .get(client)
            .is_none_or(|(last, _)| *last < req_id)
        {
            self.dedup.insert(client, req_id, resp.clone());
        }
        if self.is_leader() {
            self.send_msg(ctx, client, Msg::Response { req_id, resp });
        }
    }

    // ---------------------------------------------------------- heartbeat

    fn send_heartbeat(&mut self, ctx: &mut Context<Msg<S>>) {
        self.last_heartbeat_sent = ctx.now;
        self.broadcast_msg(
            ctx,
            Msg::Heartbeat {
                ballot: self.ballot,
                commit_index: self.commit_index,
            },
        );
    }

    // ---------------------------------------------------- actor callbacks

    /// Boot: arm the tick timer and stagger the first election.
    pub(crate) fn on_start(&mut self, ctx: &mut Context<Msg<S>>) {
        self.reset_election_deadline(ctx.now);
        ctx.set_timer(TICK, TICK_TOKEN);
    }

    /// Periodic bookkeeping.
    pub(crate) fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Msg<S>>) {
        self.sync_obs_time(ctx.now);
        if token == BATCH_TOKEN {
            // A batch linger expired; flush whatever is due.
            self.maybe_flush_batches(false, ctx);
            return;
        }
        ctx.set_timer(TICK, TICK_TOKEN);
        if self.retired {
            return;
        }
        if !self.is_leader() {
            if ctx.now >= self.election_deadline {
                self.start_election(ctx);
            }
            return;
        }
        if ctx.now.saturating_sub(self.last_heartbeat_sent) >= HEARTBEAT_EVERY {
            self.send_heartbeat(ctx);
        }
        // Backstop for the linger timer (lost across reboots).
        self.maybe_flush_batches(false, ctx);
        // Re-send stale proposals. Retries are causally part of the
        // original quorum wait, not the timer that noticed the staleness.
        let stale: Vec<Slot> = self
            .proposals
            .iter()
            .filter(|(_, p)| ctx.now.saturating_sub(p.sent_at) >= PROPOSAL_RETRY)
            .map(|(&s, _)| s)
            .collect();
        let ballot = self.ballot;
        for slot in stale {
            self.proposals
                .get_mut(&slot)
                .expect("stale slot present")
                .sent_at = ctx.now;
            let p = &self.proposals[&slot];
            self.send_wires(ctx, &p.value, p.span.context(), |value| Msg::Accept {
                ballot,
                slot,
                value,
            });
        }
        S::tick(self, ctx);
    }

    /// Message dispatch.
    pub(crate) fn on_message(&mut self, from: NodeId, msg: Msg<S>, ctx: &mut Context<Msg<S>>) {
        self.sync_obs_time(ctx.now);
        self.metrics.recv[msg.kind_index()].inc();
        if self.retired {
            // A retired node still answers catch-up (it has the history).
            if let Msg::CatchupRequest { from_slot } = msg {
                self.on_catchup_request(from, from_slot, usize::MAX, ctx);
            }
            return;
        }
        match msg {
            Msg::Prepare { ballot, from_slot } => self.on_prepare(from, ballot, from_slot, ctx),
            Msg::Promise {
                ballot,
                accepted,
                chosen,
                commit_index,
                snapshot,
            } => {
                // Adopt state regardless of phase: a snapshot first (it
                // may cover compacted history), then any chosen entries
                // (the sender reshaped them for us).
                self.on_catchup_reply(snapshot, chosen, ctx);
                if ballot != self.ballot {
                    return;
                }
                if let Phase::Preparing { promises } = &mut self.phase {
                    promises.insert(from, (accepted, commit_index));
                    self.try_become_leader(ctx);
                }
            }
            Msg::Accept {
                ballot,
                slot,
                value,
            } => self.on_accept(from, ballot, slot, value, ctx),
            Msg::Accepted { ballot, slot } => {
                if ballot == self.ballot && self.is_leader() {
                    if let Some(p) = self.proposals.get_mut(&slot) {
                        p.acks.insert(from);
                        self.maybe_choose(slot, ctx);
                    }
                }
            }
            Msg::Reject { promised } => {
                if promised > self.promised {
                    self.promised = promised;
                }
                if promised > self.ballot && !matches!(self.phase, Phase::Follower) {
                    self.step_down(ctx.now);
                }
            }
            Msg::Commit { entry } => self.note_chosen(entry, ctx),
            Msg::Heartbeat {
                ballot,
                commit_index,
            } => self.on_heartbeat(ballot, commit_index, ctx),
            Msg::CatchupRequest { from_slot } => {
                self.on_catchup_request(from, from_slot, CATCHUP_BATCH, ctx);
            }
            Msg::CatchupReply { snapshot, entries } => {
                self.on_catchup_reply(snapshot, entries, ctx);
            }
            Msg::Request { client, req_id, op } => self.handle_request(client, req_id, op, ctx),
            Msg::Response { .. } => {} // replicas never receive responses
            Msg::Ext(ext) => S::on_ext(self, from, ext, ctx),
        }
    }

    /// Acceptor duty: promise `ballot` unless a higher one is promised.
    /// A foreign ballot deposes us and sets the believed leader.
    fn promise(&mut self, ballot: Ballot, leader: Option<NodeId>, now: SimTime) -> bool {
        if ballot < self.promised {
            return false;
        }
        self.promised = ballot;
        if ballot.node != self.me {
            if !matches!(self.phase, Phase::Follower) {
                self.step_down(now);
            }
            self.leader = leader;
        }
        true
    }

    /// Nack `from`: we have promised a higher ballot.
    fn reject(&self, from: NodeId, ctx: &mut Context<Msg<S>>) {
        let promised = self.promised;
        self.send_msg(ctx, from, Msg::Reject { promised });
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        from_slot: Slot,
        ctx: &mut Context<Msg<S>>,
    ) {
        if !self.promise(ballot, None, ctx.now) {
            return self.reject(from, ctx);
        }
        if ballot.node != self.me {
            self.reset_election_deadline(ctx.now);
        }
        let reply = Msg::Promise {
            ballot,
            accepted: self.accepted_tail(from_slot),
            chosen: self.chosen_tail(from_slot, from).collect(),
            commit_index: self.commit_index,
            snapshot: (from_slot < self.floor).then(|| self.snapshot()),
        };
        self.send_msg(ctx, from, reply);
    }

    fn on_accept(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        slot: Slot,
        value: S::Wire,
        ctx: &mut Context<Msg<S>>,
    ) {
        if !self.promise(ballot, Some(ballot.node), ctx.now) {
            return self.reject(from, ctx);
        }
        if ballot.node != self.me {
            self.reset_election_deadline(ctx.now);
        }
        if slot >= self.applied {
            self.slot_state(slot).accepted = Some((ballot, value));
        }
        self.send_msg(ctx, from, Msg::Accepted { ballot, slot });
    }

    fn on_heartbeat(&mut self, ballot: Ballot, commit_index: Slot, ctx: &mut Context<Msg<S>>) {
        if !self.promise(ballot, Some(ballot.node), ctx.now) {
            return;
        }
        self.reset_election_deadline(ctx.now);
        if commit_index > self.commit_index {
            self.send_msg(
                ctx,
                ballot.node,
                Msg::CatchupRequest {
                    from_slot: self.commit_index,
                },
            );
        }
    }

    fn on_catchup_request(
        &mut self,
        from: NodeId,
        from_slot: Slot,
        limit: usize,
        ctx: &mut Context<Msg<S>>,
    ) {
        let reply = Msg::CatchupReply {
            snapshot: (from_slot < self.floor).then(|| self.snapshot()),
            entries: self
                .chosen_tail(from_slot.max(self.floor), from)
                .take(limit)
                .collect(),
        };
        self.send_msg(ctx, from, reply);
    }

    fn on_catchup_reply(
        &mut self,
        snapshot: Option<Box<SnapshotData<S>>>,
        entries: Vec<ChosenEntry<S::Wire>>,
        ctx: &mut Context<Msg<S>>,
    ) {
        if let Some(snap) = snapshot {
            self.install_snapshot(*snap, ctx.now);
        }
        for e in entries {
            self.note_chosen(e, ctx);
        }
    }

    /// Route one client operation: enqueue it for proposing when
    /// leading, forward it to the believed leader otherwise.
    pub(crate) fn handle_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: S::Op,
        ctx: &mut Context<Msg<S>>,
    ) {
        if self.is_leader() {
            let p = PendingOp {
                client,
                req_id,
                op,
                trace: ctx.trace(),
                at: ctx.now,
            };
            self.enqueue_op(p, ctx);
        } else if let Some(leader) = self.leader {
            if leader != self.me {
                self.send_msg(ctx, leader, Msg::Request { client, req_id, op });
            }
        }
        // No leader known: drop; the client retransmits.
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use obs::Obs;
    use simnet::{NetworkConfig, NodeId, SimTime};

    use super::{Replica, ReplicaConfig};
    use crate::lock::{LockCmd, LockService};
    use crate::msg::{ClientOp, Command, Msg};
    use crate::smr::SmHost;
    use crate::Cluster;

    /// An `Accept` for a slot the replica already applied is acked, so
    /// the leader sees the same messages, but its value is not kept: the
    /// slot's accepted copy, dropped at apply, stays dropped.
    #[test]
    fn a_late_accept_for_an_applied_slot_is_acked_not_kept() {
        let (obs, _) = Obs::simulated();
        let cfg = ReplicaConfig {
            obs: obs.clone(),
            ..ReplicaConfig::default()
        };
        let mut c = Cluster::new(3, LockService::new(), cfg, NetworkConfig::default(), 9);
        let client = c.add_client();
        let name = "lock".to_string();
        c.submit(
            client,
            ClientOp::App(LockCmd::Acquire {
                name,
                owner: client,
            }),
        );
        assert!(c.run_until_drained(client, SimTime::from_secs(60)));
        c.sim.run_until(c.sim.now() + SimTime::from_secs(1));
        let leader = c.leader().expect("a leader");
        let follower = *c.servers().iter().find(|&&id| id != leader).unwrap();
        let ballot = c.replica(leader).unwrap().ballot;
        let slot = c.replica(follower).unwrap().applied - 1;
        let kept =
            |c: &Cluster<LockService>| c.replica(follower).unwrap().slots[&slot].accepted.is_some();
        assert!(!kept(&c), "apply drops the accepted copy");
        let acks = || obs.metrics.snapshot().counter("paxos.msg_sent.accepted");
        let before = acks().unwrap_or(0);
        let value = Arc::new(Command::Noop);
        c.sim.inject(
            leader,
            follower,
            Msg::Accept {
                ballot,
                slot,
                value,
            },
        );
        c.sim.run_until(c.sim.now() + SimTime::from_millis(100));
        assert_eq!(acks(), Some(before + 1), "the late Accept is acked");
        assert!(!kept(&c), "the late Accept's value is not kept");
    }

    /// The snapshot's client list is a function of the applied history
    /// alone: two replicas that applied the same log list the same
    /// clients in ascending order, and installing a snapshot then taking
    /// one gives the list back.
    #[test]
    fn snapshot_client_lists_follow_the_applied_history() {
        let cfg = ReplicaConfig::default();
        let net = NetworkConfig::default();
        let mut c = Cluster::new(3, LockService::new(), cfg.clone(), net, 9);
        let clients: Vec<NodeId> = (0..6).map(|_| c.add_client()).collect();
        for &client in clients.iter().rev() {
            let name = format!("lock-{}", client.0 % 2);
            c.submit(
                client,
                ClientOp::App(LockCmd::Acquire {
                    name,
                    owner: client,
                }),
            );
        }
        for &client in &clients {
            assert!(c.run_until_drained(client, SimTime::from_secs(60)));
        }
        c.sim.run_until(c.sim.now() + SimTime::from_secs(2));
        let servers = c.servers().to_vec();
        let snaps: Vec<_> = servers
            .iter()
            .map(|&id| c.replica(id).expect("replica up").snapshot())
            .collect();
        assert!(snaps.iter().all(|s| s.applied == snaps[0].applied));
        let listed: Vec<NodeId> = snaps[0].dedup.iter().map(|e| e.0).collect();
        assert_eq!(listed, clients);
        for snap in &snaps[1..] {
            assert_eq!(snap.dedup, snaps[0].dedup);
        }
        let host = SmHost::new(LockService::new());
        let mut fresh = Replica::<LockService>::new(servers[0], servers.clone(), host, cfg, 1);
        fresh.install_snapshot(*snaps[1].clone(), c.sim.now());
        assert_eq!(fresh.snapshot().dedup, snaps[1].dedup);
    }

    /// The goldens replay no catch-up longer than 256 entries, so they
    /// only move when this is mistyped below that; the value is held here.
    #[test]
    fn catchup_replies_carry_at_most_512_entries() {
        assert_eq!(super::CATCHUP_BATCH, 512);
    }
}
