//! The simulation core: nodes, actors, contexts and the event loop.

use std::fmt;

use obs::{FieldValue, TraceContext, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::event::{EventKind, EventQueue};
use crate::network::{LinkChaos, Network, NetworkConfig};
use crate::time::SimTime;

/// Identifier of a simulated node (dense index into the simulation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An actor-chosen timer identifier, echoed back when the timer fires.
///
/// Actors that need to "cancel" a timer use generation counters inside the
/// token and ignore stale fires; the simulator itself only cancels timers on
/// crash (via incarnation epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// The behaviour of a node. All nodes in one [`Simulation`] share a single
/// actor type, which suits homogeneous replicated services.
pub trait Actor: Sized {
    /// The message type exchanged between nodes.
    type Msg;

    /// Called when the node starts (initial boot, restart, or join).
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Called when a message is delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>);

    /// Called when a timer previously set through [`Context::set_timer`]
    /// fires. Timers set before a crash never fire after a restart.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<Self::Msg>) {}
}

enum Effect<M> {
    Send {
        to: NodeId,
        msg: M,
        trace: TraceContext,
    },
    Timer {
        delay: SimTime,
        token: TimerToken,
    },
}

/// Handed to actor callbacks; records outgoing effects and exposes the
/// node's identity, the current virtual time, and the causal trace
/// context of the message being handled.
pub struct Context<M> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node this context belongs to.
    pub me: NodeId,
    effects: Vec<Effect<M>>,
    /// Trace context the incoming message carried ([`TraceContext::NONE`]
    /// for timers, boots and untraced messages).
    incoming: TraceContext,
    /// Seed-derived base for fresh trace ids (shared by every context of
    /// one simulation).
    trace_base: u64,
    /// Trace-id allocation counter, copied in from the simulation and
    /// written back at flush. Deterministic: it advances only through
    /// [`Context::new_trace`] calls, whose order is fixed by the event
    /// order, never by wall time, thread count, or whether tracing is on.
    trace_count: u64,
}

impl<M> Context<M> {
    fn new(
        now: SimTime,
        me: NodeId,
        incoming: TraceContext,
        trace_base: u64,
        trace_count: u64,
        effects: Vec<Effect<M>>,
    ) -> Self {
        Context {
            now,
            me,
            effects,
            incoming,
            trace_base,
            trace_count,
        }
    }

    /// The causal trace context carried by the message this callback is
    /// handling — [`TraceContext::NONE`] for timers and boots. Spans the
    /// actor opens while handling the message should be parented here.
    pub fn trace(&self) -> TraceContext {
        self.incoming
    }

    /// Allocate a fresh trace id for a new root operation (e.g. a client
    /// request entering the system). Ids come from a seeded splitmix
    /// counter, so a run's ids are a pure function of (seed, schedule).
    pub fn new_trace(&mut self) -> TraceContext {
        self.trace_count += 1;
        let id = mix(self.trace_base, self.trace_count);
        TraceContext {
            trace_id: if id == 0 { 1 } else { id },
            span_id: 0,
        }
    }

    /// Send `msg` to `to`; delivery (or loss) is decided by the network.
    /// The incoming trace context is propagated onto the envelope, so a
    /// plain `send` inside a message handler continues that message's
    /// causal chain.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let trace = self.incoming;
        self.send_traced(to, msg, trace);
    }

    /// Send `msg` to `to` under an explicit trace context — a fresh one
    /// from [`Context::new_trace`], or a span's
    /// [`context`](obs::SpanHandle::context) so the receiver parents
    /// under that span rather than under the whole incoming operation.
    pub fn send_traced(&mut self, to: NodeId, msg: M, trace: TraceContext) {
        self.effects.push(Effect::Send { to, msg, trace });
    }

    /// Schedule `on_timer(token)` after `delay` (crash-cancelled).
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.effects.push(Effect::Timer { delay, token });
    }
}

impl<M: Clone> Context<M> {
    /// Send `msg` to every node in `peers` except self.
    pub fn broadcast<'a, I>(&mut self, peers: I, msg: M)
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        let me = self.me;
        for &p in peers {
            if p != me {
                self.send(p, msg.clone());
            }
        }
    }
}

struct Slot<A> {
    actor: Option<A>,
    up: bool,
    /// The actor as it was at crash time — the node's "disk image". Quorum
    /// protocols are only safe across restarts if durable state survives,
    /// so a crashed actor is retained here for [`Simulation::take_crashed`]
    /// rather than discarded.
    wreck: Option<A>,
    /// Incarnation epoch; bumped on crash so in-flight timers and messages
    /// addressed to the previous incarnation are discarded.
    epoch: u64,
    /// Clock skew: added to the virtual time this node's actor observes
    /// via [`Context::now`]. Event scheduling itself is unskewed.
    skew: SimTime,
}

/// A deterministic discrete-event simulation of a set of nodes running the
/// same [`Actor`] over a lossy network.
pub struct Simulation<A: Actor> {
    nodes: Vec<Slot<A>>,
    queue: EventQueue<A::Msg>,
    network: Network,
    rng: ChaCha8Rng,
    now: SimTime,
    delivered: u64,
    dropped: u64,
    fingerprint: u64,
    /// Sink for network-visibility trace events (drops, duplicates,
    /// delay spikes, dead targets); disabled by default, so emitting is
    /// a `None` check. Never feeds the fingerprint.
    tracer: Tracer,
    /// Seed-derived base for trace-id allocation; see
    /// [`Context::new_trace`].
    trace_base: u64,
    /// Count of trace ids allocated so far.
    trace_count: u64,
    /// Lent to each event's [`Context`]; `flush` drains it and hands it back.
    effects: Vec<Effect<A::Msg>>,
}

impl<A: Actor> Simulation<A>
where
    A::Msg: Clone,
{
    /// Create an empty simulation with the given network model and RNG seed.
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Simulation {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            network: Network::new(config),
            rng: ChaCha8Rng::seed_from_u64(seed),
            now: SimTime::ZERO,
            delivered: 0,
            dropped: 0,
            fingerprint: 0,
            tracer: Tracer::disabled(),
            trace_base: mix(0xCA05_A11D, seed),
            trace_count: 0,
            effects: Vec::new(),
        }
    }

    /// Install a tracer sink for network-visibility events: message
    /// drops (base loss, partitions, chaos), duplicates, delay spikes
    /// and deliveries to dead or nonexistent nodes each emit an instant
    /// event carrying the message's trace context, so a trace whose
    /// span chain goes quiet points at the exact network fault that
    /// orphaned it. Tracing never perturbs the RNG stream or the run
    /// fingerprint; with the sink disabled (the default) every emission
    /// is a single `None` check.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// Total messages dropped (loss or partition or dead target) so far.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    /// Rolling digest of every event this run has processed: event time,
    /// target, kind, and drop/stale disposition all feed it. Two runs with
    /// the same seed, schedule and workload produce the same fingerprint,
    /// so chaos tests assert byte-identical reproduction with one `u64`
    /// comparison instead of diffing whole traces.
    pub fn fingerprint(&self) -> u64 {
        // Fold in the counters so runs that diverge only in pre-delivery
        // drops still differ.
        let fp = mix(self.fingerprint, self.delivered);
        mix(fp, self.dropped)
    }

    /// Add a new node running `actor`; it boots immediately (`on_start`).
    pub fn add_node(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Slot {
            actor: Some(actor),
            up: true,
            wreck: None,
            epoch: 0,
            skew: SimTime::ZERO,
        });
        self.boot(id);
        id
    }

    /// Number of node slots ever created (crashed ones included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `id` is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.nodes.get(id.0).map(|s| s.up).unwrap_or(false)
    }

    /// Immutable access to a node's actor state (None while crashed).
    pub fn actor(&self, id: NodeId) -> Option<&A> {
        self.nodes.get(id.0).and_then(|s| s.actor.as_ref())
    }

    /// Mutable access to a node's actor state (None while crashed).
    ///
    /// Intended for drivers that inspect or tweak state between `run_until`
    /// calls; effects cannot be emitted from here.
    pub fn actor_mut(&mut self, id: NodeId) -> Option<&mut A> {
        self.nodes.get_mut(id.0).and_then(|s| s.actor.as_mut())
    }

    /// Crash a node: its state is destroyed, pending timers are cancelled
    /// and in-flight messages to it will be dropped on arrival.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(id.0) {
            slot.up = false;
            slot.wreck = slot.actor.take();
            slot.epoch += 1;
        }
    }

    /// Take the retained actor of a crashed node — its state at crash
    /// time, the "disk" a rebooting node recovers from. Returns `None` if
    /// the node is up or the wreck was already consumed. The caller is
    /// expected to clear actor-specific volatile state before handing the
    /// actor back to [`Simulation::restart`].
    pub fn take_crashed(&mut self, id: NodeId) -> Option<A> {
        self.nodes.get_mut(id.0).and_then(|s| s.wreck.take())
    }

    /// Restart a crashed node with a fresh actor (recovered state is the
    /// actor's own business: rebuilt from its replicated log peers, or
    /// carried over via [`Simulation::take_crashed`]). Any unconsumed
    /// wreck is discarded — the disk was replaced along with the actor.
    pub fn restart(&mut self, id: NodeId, actor: A) {
        let slot = &mut self.nodes[id.0];
        assert!(!slot.up, "restart of a live node {id}");
        slot.actor = Some(actor);
        slot.wreck = None;
        slot.up = true;
        self.boot(id);
    }

    /// Install a network partition (each group an island); see
    /// [`NetworkConfig`] for the connectivity rules.
    pub fn partition(&mut self, groups: Vec<Vec<NodeId>>) {
        self.network.partition(groups);
    }

    /// Heal any partition.
    pub fn heal(&mut self) {
        self.network.heal();
    }

    /// Enable link-level chaos (extra drops, duplicates, delay spikes) for
    /// subsequent sends. Chaos-off runs consume the identical RNG stream
    /// they always did, so this is free to leave uninstalled.
    pub fn set_link_chaos(&mut self, chaos: LinkChaos) {
        self.network.set_chaos(chaos);
    }

    /// Disable link-level chaos.
    pub fn clear_link_chaos(&mut self) {
        self.network.clear_chaos();
    }

    /// Skew a node's actor-visible clock forward by `ms` (cumulative).
    /// Only [`Context::now`] is affected; event scheduling stays on the
    /// global virtual clock, so skew perturbs lease/timeout *decisions*
    /// without breaking the discrete-event core.
    pub fn skew_clock(&mut self, id: NodeId, ms: u64) {
        if let Some(slot) = self.nodes.get_mut(id.0) {
            slot.skew += SimTime::from_millis(ms);
        }
    }

    /// Inject a message "from outside" (e.g. a client library): it is
    /// delivered to `to` as if sent by `from` after one network delay.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        self.enqueue_send(from, to, msg, TraceContext::NONE);
    }

    fn boot(&mut self, id: NodeId) {
        let now = self.now;
        let slot = &mut self.nodes[id.0];
        let mut ctx = Context::new(
            now + slot.skew,
            id,
            TraceContext::NONE,
            self.trace_base,
            self.trace_count,
            std::mem::take(&mut self.effects),
        );
        slot.actor
            .as_mut()
            .expect("boot of crashed node")
            .on_start(&mut ctx);
        let epoch = slot.epoch;
        self.flush(id, epoch, ctx);
    }

    /// Emit a network-visibility instant through the tracer sink.
    fn net_event(&self, name: &str, from: NodeId, to: NodeId, trace: TraceContext) {
        self.tracer.event_causal(
            name,
            trace,
            &[
                ("from", FieldValue::U64(from.0 as u64)),
                ("to", FieldValue::U64(to.0 as u64)),
            ],
        );
    }

    /// Sample the network for one send and enqueue the resulting
    /// deliveries; every lost, duplicated or spiked delivery emits a
    /// visibility event so traces stay attributable under chaos.
    fn enqueue_send(&mut self, from: NodeId, to: NodeId, msg: A::Msg, trace: TraceContext) {
        if to.0 >= self.nodes.len() {
            self.dropped += 1;
            self.net_event("simnet.dead_target", from, to, trace);
            return;
        }
        let d = self.network.sample_deliveries(from, to, &mut self.rng);
        let Some(delay) = d.first else {
            self.dropped += 1;
            self.tracer.event_causal(
                "simnet.drop",
                trace,
                &[
                    ("from", FieldValue::U64(from.0 as u64)),
                    ("to", FieldValue::U64(to.0 as u64)),
                    ("chaos", FieldValue::Bool(d.chaos_dropped)),
                ],
            );
            return;
        };
        if d.delayed {
            self.net_event("simnet.delay", from, to, trace);
        }
        if let Some(dup) = d.second {
            self.net_event("simnet.dup", from, to, trace);
            self.queue.push(
                self.now + dup,
                to,
                EventKind::Deliver {
                    from,
                    msg: msg.clone(),
                    trace,
                },
            );
        }
        self.queue
            .push(self.now + delay, to, EventKind::Deliver { from, msg, trace });
    }

    fn flush(&mut self, from: NodeId, epoch: u64, ctx: Context<A::Msg>) {
        self.trace_count = ctx.trace_count;
        let mut effects = ctx.effects;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg, trace } => self.enqueue_send(from, to, msg, trace),
                Effect::Timer { delay, token } => {
                    self.queue
                        .push(self.now + delay, from, EventKind::Timer { token, epoch });
                }
            }
        }
        self.effects = effects;
    }

    /// Process a single event if one is pending before `bound`; returns
    /// whether an event was processed. Time advances to the event time.
    pub(crate) fn step_before(&mut self, bound: SimTime) -> bool {
        let Some(ev) = self.queue.pop_due(bound) else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        let id = ev.target;
        // Digest the event before dispatching: time, target, kind, and the
        // disposition (delivered / dead target / stale timer) all land in
        // the fingerprint, so any divergence between two runs shows up.
        let fp = mix(self.fingerprint, ev.at.as_millis());
        let fp = mix(fp, id.0 as u64);
        self.fingerprint = match &ev.kind {
            EventKind::Deliver { from, .. } => mix(fp, 1 ^ ((from.0 as u64) << 8)),
            EventKind::Timer { token, epoch } => mix(fp, 2 ^ (token.0 << 8) ^ (epoch << 40)),
        };
        if !self.nodes[id.0].up {
            self.dropped += 1;
            self.fingerprint = mix(self.fingerprint, 3);
            if let EventKind::Deliver { from, trace, .. } = &ev.kind {
                self.net_event("simnet.drop_dead_node", *from, id, *trace);
            }
            return true;
        }
        let slot = &mut self.nodes[id.0];
        let epoch = slot.epoch;
        let skew = slot.skew;
        let incoming = match &ev.kind {
            EventKind::Deliver { trace, .. } => *trace,
            EventKind::Timer {
                epoch: timer_epoch, ..
            } => {
                if *timer_epoch != epoch {
                    self.fingerprint = mix(self.fingerprint, 4);
                    return true; // timer from a previous incarnation
                }
                TraceContext::NONE
            }
        };
        let mut ctx = Context::new(
            self.now + skew,
            id,
            incoming,
            self.trace_base,
            self.trace_count,
            std::mem::take(&mut self.effects),
        );
        match ev.kind {
            EventKind::Deliver { from, msg, .. } => {
                self.delivered += 1;
                slot.actor
                    .as_mut()
                    .expect("up node without actor")
                    .on_message(from, msg, &mut ctx);
            }
            EventKind::Timer { token, .. } => {
                slot.actor
                    .as_mut()
                    .expect("up node without actor")
                    .on_timer(token, &mut ctx);
            }
        }
        self.flush(id, epoch, ctx);
        true
    }

    /// Run the event loop until virtual time `bound` (inclusive): every
    /// event scheduled at or before `bound` is processed, then the clock is
    /// advanced to `bound`.
    pub fn run_until(&mut self, bound: SimTime) {
        while self.step_before(bound) {}
        if bound > self.now && bound != SimTime::MAX {
            self.now = bound;
        }
    }

    /// Run until the event queue drains completely (use with care: actors
    /// with recurring heartbeat timers never drain).
    pub fn run_to_quiescence(&mut self) {
        while self.step_before(SimTime::MAX) {}
    }
}

/// SplitMix64-style avalanche step for the run fingerprint.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong actor: replies to every `n` with `n+1` until 10.
    struct PingPong {
        peer: Option<NodeId>,
        seen: Vec<u32>,
    }

    impl Actor for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, 0);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.seen.push(msg);
            if msg < 10 {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn pair() -> (Simulation<PingPong>, NodeId, NodeId) {
        let mut sim = Simulation::new(NetworkConfig::ideal(), 42);
        let a = sim.add_node(PingPong {
            peer: None,
            seen: vec![],
        });
        let b = sim.add_node(PingPong {
            peer: Some(a),
            seen: vec![],
        });
        (sim, a, b)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let (mut sim, a, b) = pair();
        sim.run_to_quiescence();
        assert_eq!(sim.actor(a).unwrap().seen, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(sim.actor(b).unwrap().seen, vec![1, 3, 5, 7, 9]);
        assert_eq!(sim.messages_delivered(), 11);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let (mut s1, _, _) = pair();
        let (mut s2, _, _) = pair();
        s1.run_to_quiescence();
        s2.run_to_quiescence();
        assert_eq!(s1.now(), s2.now());
        assert_eq!(s1.messages_delivered(), s2.messages_delivered());
    }

    #[test]
    fn crash_drops_messages_and_cancels_timers() {
        struct Beater {
            beats: u32,
        }
        impl Actor for Beater {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                ctx.set_timer(SimTime::from_millis(10), TimerToken(1));
            }
            fn on_timer(&mut self, _t: TimerToken, ctx: &mut Context<()>) {
                self.beats += 1;
                ctx.set_timer(SimTime::from_millis(10), TimerToken(1));
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<()>) {}
        }
        let mut sim = Simulation::new(NetworkConfig::ideal(), 1);
        let n = sim.add_node(Beater { beats: 0 });
        sim.run_until(SimTime::from_millis(55));
        assert_eq!(sim.actor(n).unwrap().beats, 5);
        sim.crash(n);
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.actor(n).is_none());
        // Restart: beats start over, stale timers never fire.
        sim.restart(n, Beater { beats: 0 });
        sim.run_until(SimTime::from_millis(231));
        assert_eq!(sim.actor(n).unwrap().beats, 3);
    }

    #[test]
    fn crash_retains_state_for_recovery() {
        let (mut sim, _a, b) = pair();
        sim.run_to_quiescence();
        sim.crash(b);
        // The crashed actor's state at crash time is recoverable — the
        // node's disk image — and survives exactly one take.
        let wreck = sim.take_crashed(b).expect("wreck retained");
        assert_eq!(wreck.seen, vec![1, 3, 5, 7, 9]);
        assert!(sim.take_crashed(b).is_none(), "wreck is consumed");
        sim.restart(b, wreck);
        assert_eq!(sim.actor(b).unwrap().seen, vec![1, 3, 5, 7, 9]);

        // A restart with a fresh actor discards any unconsumed wreck.
        sim.crash(b);
        sim.restart(
            b,
            PingPong {
                peer: None,
                seen: vec![],
            },
        );
        assert!(sim.take_crashed(b).is_none());
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim: Simulation<PingPong> = Simulation::new(NetworkConfig::ideal(), 0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn inject_reaches_target() {
        let (mut sim, a, _) = pair();
        sim.run_to_quiescence();
        let before = sim.actor(a).unwrap().seen.len();
        sim.inject(NodeId(1), a, 99);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(a).unwrap().seen.len(), before + 1);
    }

    #[test]
    fn partitioned_nodes_cannot_talk() {
        let (mut sim, a, b) = pair();
        sim.run_to_quiescence();
        let seen_before = sim.actor(a).unwrap().seen.len();
        sim.partition(vec![vec![a], vec![b]]);
        sim.inject(b, a, 99);
        sim.run_to_quiescence();
        // The injected message is dropped by the partition.
        assert_eq!(sim.actor(a).unwrap().seen.len(), seen_before);
        assert_eq!(sim.messages_dropped(), 1);
        // Healing restores connectivity.
        sim.heal();
        sim.inject(b, a, 99);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(a).unwrap().seen.len(), seen_before + 1);
    }

    #[test]
    fn fingerprints_match_for_identical_runs_and_differ_otherwise() {
        let (mut s1, _, _) = pair();
        let (mut s2, _, _) = pair();
        s1.run_to_quiescence();
        s2.run_to_quiescence();
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        // Perturb one run: extra injected message changes the digest.
        let (mut s3, a, b) = pair();
        s3.run_to_quiescence();
        s3.inject(b, a, 99);
        s3.run_to_quiescence();
        assert_ne!(s1.fingerprint(), s3.fingerprint());
    }

    #[test]
    fn link_chaos_duplicates_messages() {
        let mut sim = Simulation::new(NetworkConfig::ideal(), 8);
        let a = sim.add_node(PingPong {
            peer: None,
            seen: vec![],
        });
        sim.set_link_chaos(LinkChaos {
            dup_pr: 1.0,
            extra_delay_max: SimTime::from_millis(50),
            ..LinkChaos::default()
        });
        sim.inject(NodeId(0), a, 42);
        // inject() is attributed to `a` itself here (loopback) — use a
        // distinct phantom sender so chaos applies.
        let b = sim.add_node(PingPong {
            peer: None,
            seen: vec![],
        });
        sim.inject(b, a, 77);
        sim.run_to_quiescence();
        let seen = &sim.actor(a).unwrap().seen;
        // 42 loopback-injected once; 77 delivered twice (duplicate).
        assert_eq!(seen.iter().filter(|&&m| m == 77).count(), 2);
        sim.clear_link_chaos();
        sim.inject(b, a, 5);
        sim.run_to_quiescence();
        assert_eq!(
            sim.actor(a).unwrap().seen.iter().filter(|&&m| m == 5).count(),
            1
        );
    }

    /// Actor for trace tests: the starter allocates a fresh trace and
    /// sends under it; receivers record the context they observe and
    /// reply with a *plain* send, which must propagate the trace.
    struct Tracey {
        peer: Option<NodeId>,
        started: Option<TraceContext>,
        seen: Vec<TraceContext>,
    }

    impl Actor for Tracey {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if let Some(peer) = self.peer {
                let t = ctx.new_trace();
                self.started = Some(t);
                ctx.send_traced(peer, 0, t);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.seen.push(ctx.trace());
            if msg < 3 {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn tracey_run(seed: u64) -> (TraceContext, Vec<TraceContext>) {
        let mut sim = Simulation::new(NetworkConfig::ideal(), seed);
        let a = sim.add_node(Tracey {
            peer: None,
            started: None,
            seen: vec![],
        });
        let b = sim.add_node(Tracey {
            peer: Some(a),
            started: None,
            seen: vec![],
        });
        sim.run_to_quiescence();
        let root = sim.actor(b).unwrap().started.expect("starter allocated");
        let mut seen = sim.actor(a).unwrap().seen.clone();
        seen.extend(sim.actor(b).unwrap().seen.iter().copied());
        (root, seen)
    }

    #[test]
    fn traces_propagate_across_hops_and_allocate_deterministically() {
        let (root, seen) = tracey_run(7);
        assert!(root.is_some());
        assert_eq!(seen.len(), 4, "four deliveries in the chain");
        for t in &seen {
            assert_eq!(t.trace_id, root.trace_id, "plain send propagates");
        }
        // Same seed, same schedule: byte-identical trace ids.
        let (root2, seen2) = tracey_run(7);
        assert_eq!(root, root2);
        assert_eq!(seen, seen2);
        // A different seed draws from a different id space.
        let (root3, _) = tracey_run(8);
        assert_ne!(root.trace_id, root3.trace_id);
    }

    #[test]
    fn trace_allocation_never_perturbs_the_fingerprint() {
        // Tracey allocates trace ids; PingPong never does. Within each
        // actor type, a traced run and a re-run fingerprint-match, and
        // installing a tracer sink changes nothing.
        let (mut s1, _, _) = pair();
        s1.run_to_quiescence();
        let (mut s2, _, _) = pair();
        let (obs, _clock) = obs::Obs::simulated();
        s2.set_tracer(obs.trace.clone());
        s2.run_to_quiescence();
        assert_eq!(s1.fingerprint(), s2.fingerprint());
    }

    #[test]
    fn chaos_faults_emit_visibility_events() {
        let (obs, _clock) = obs::Obs::simulated();
        let mut sim = Simulation::new(NetworkConfig::ideal(), 9);
        let a = sim.add_node(PingPong {
            peer: None,
            seen: vec![],
        });
        let b = sim.add_node(PingPong {
            peer: None,
            seen: vec![],
        });
        sim.set_tracer(obs.trace.clone());
        sim.set_link_chaos(LinkChaos {
            drop_pr: 1.0,
            ..LinkChaos::default()
        });
        sim.enqueue_send(
            b,
            a,
            7,
            TraceContext {
                trace_id: 42,
                span_id: 0,
            },
        );
        sim.run_to_quiescence();

        // A chaos-dropped traced message leaves an attributable instant.
        let drops: Vec<_> = obs
            .trace
            .events()
            .into_iter()
            .filter(|e| e.name == "simnet.drop")
            .collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].trace_id, 42);
        assert!(drops[0]
            .fields
            .iter()
            .any(|(k, v)| k == "chaos" && *v == FieldValue::Bool(true)));

        // Delivery to a crashed node is visible too.
        sim.clear_link_chaos();
        sim.crash(a);
        sim.enqueue_send(
            b,
            a,
            8,
            TraceContext {
                trace_id: 43,
                span_id: 0,
            },
        );
        sim.run_to_quiescence();
        let dead: Vec<_> = obs
            .trace
            .events()
            .into_iter()
            .filter(|e| e.name == "simnet.drop_dead_node")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].trace_id, 43);
    }

    #[test]
    fn clock_skew_shifts_actor_visible_time_only() {
        struct Clock {
            seen_now: Vec<SimTime>,
        }
        impl Actor for Clock {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<()>) {
                ctx.set_timer(SimTime::from_millis(10), TimerToken(0));
            }
            fn on_timer(&mut self, _t: TimerToken, ctx: &mut Context<()>) {
                self.seen_now.push(ctx.now);
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<()>) {}
        }
        let mut sim = Simulation::new(NetworkConfig::ideal(), 0);
        let n = sim.add_node(Clock { seen_now: vec![] });
        sim.skew_clock(n, 500);
        assert_eq!(sim.nodes[n.0].skew, SimTime::from_millis(500));
        sim.run_until(SimTime::from_millis(20));
        // Timer fired at global t=10ms but the actor saw t=510ms.
        assert_eq!(sim.actor(n).unwrap().seen_now, vec![SimTime::from_millis(510)]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        // Skew accumulates.
        sim.skew_clock(n, 100);
        assert_eq!(sim.nodes[n.0].skew, SimTime::from_millis(600));
    }
}
