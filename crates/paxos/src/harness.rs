//! Driver-side helpers: build clusters, submit operations, manage
//! membership, and interrogate replicas — the API the examples, tests and
//! the replay harness use.

use std::collections::BTreeMap;

use simnet::{ChaosAction, NetworkConfig, NodeId, SimTime, Simulation};

use crate::client::ClientState;
use crate::node::PaxosNode;
use crate::open_loop::OpenLoopClient;
use crate::replica::{Replica, ReplicaConfig};
use crate::service::Service;
use crate::smr::{SmHost, StateMachine};

/// Sim time with zero drain progress after which the harness liveness
/// watchdog fires `watchdog.liveness`: 30 sim-seconds, comfortably past
/// any healthy election + retry cycle, in the tracer's microsecond
/// convention.
pub const LIVENESS_STALL_BOUND: u64 = 30_000_000;

/// A consensus cluster under simulation: replicas, clients, and the
/// driver conveniences around them.
pub struct Cluster<S: Service> {
    /// The underlying simulation (exposed for fault injection).
    pub sim: Simulation<PaxosNode<S>>,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
    replica_cfg: ReplicaConfig,
    /// Pristine service state, cloned for every replacement replica.
    pristine: S::Host,
    seed: u64,
}

impl<SM: StateMachine> Cluster<SM> {
    /// Build a cluster of `n` replicas initialized with clones of `sm`.
    pub fn new(
        n: usize,
        sm: SM,
        replica_cfg: ReplicaConfig,
        net: NetworkConfig,
        seed: u64,
    ) -> Self {
        let host = SmHost::new(sm);
        Cluster::with_service(n, host, replica_cfg, net, seed)
    }
}

impl<S: Service> Cluster<S> {
    /// Build a cluster of `n` replicas, each hosting a clone of `host`.
    pub fn with_service(
        n: usize,
        host: S::Host,
        replica_cfg: ReplicaConfig,
        net: NetworkConfig,
        seed: u64,
    ) -> Self {
        assert!(n >= 1, "need at least one replica");
        let mut sim = Simulation::new(net, seed);
        // Network faults (drops, duplicates, delay spikes) emit
        // visibility events into the same trace ring the replicas use,
        // so orphaned request spans point at their cause.
        sim.set_tracer(replica_cfg.obs.trace.clone());
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        for &id in &ids {
            let replica = Replica::new(id, ids.clone(), host.clone(), replica_cfg.clone(), seed);
            let got = sim.add_node(PaxosNode::Server(replica));
            assert_eq!(got, id);
        }
        Cluster {
            sim,
            servers: ids,
            clients: Vec::new(),
            replica_cfg,
            pristine: host,
            seed,
        }
    }

    /// The current server node ids (as known to the driver).
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Add a closed-loop client.
    pub fn add_client(&mut self) -> NodeId {
        let id = NodeId(self.sim.node_count());
        let client = ClientState::new(id, self.servers.clone(), self.seed)
            .with_obs(self.replica_cfg.obs.clone());
        let got = self.sim.add_node(PaxosNode::Client(client));
        assert_eq!(got, id);
        self.clients.push(id);
        id
    }

    /// Add an open-loop workload session playing `schedule` (sorted by
    /// arrival time); see [`OpenLoopClient`].
    pub fn add_open_loop(&mut self, schedule: Vec<(SimTime, S::Cmd)>) -> NodeId {
        let id = NodeId(self.sim.node_count());
        let session = OpenLoopClient::new(id, self.servers.clone(), schedule)
            .with_obs(self.replica_cfg.obs.clone());
        let got = self.sim.add_node(PaxosNode::OpenLoop(session));
        assert_eq!(got, id);
        id
    }

    /// Queue an operation on `client`; it is issued at the client's next
    /// tick and retried until a leader applies it.
    pub fn submit(&mut self, client: NodeId, op: S::Op) -> u64 {
        self.sim
            .actor_mut(client)
            .and_then(PaxosNode::as_client_mut)
            .expect("client exists")
            .submit(op)
    }

    /// Run the simulation until `client` has no outstanding operations or
    /// `deadline` passes. Returns true when the client drained. A
    /// liveness watchdog fires `watchdog.liveness` into the config's
    /// alert sink if requests sit outstanding with no progress for
    /// [`LIVENESS_STALL_BOUND`] of sim time.
    pub fn run_until_drained(&mut self, client: NodeId, deadline: SimTime) -> bool {
        let mut watchdog =
            obs::LivenessWatchdog::new(self.replica_cfg.obs.alerts.clone(), LIVENESS_STALL_BOUND);
        loop {
            let outstanding = self
                .sim
                .actor(client)
                .and_then(PaxosNode::as_client)
                .map(|c| c.outstanding())
                .unwrap_or(0);
            watchdog.observe(self.sim.now().as_micros(), outstanding as u64);
            if outstanding == 0 {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            let next = self.sim.now() + SimTime::from_millis(100);
            self.sim.run_until(next.min(deadline));
        }
    }

    /// The last completed response on `client`.
    pub fn last_response(&self, client: NodeId) -> Option<S::Resp> {
        self.sim
            .actor(client)
            .and_then(PaxosNode::as_client)
            .and_then(|c| c.history().last())
            .and_then(|h| h.completed.clone())
            .and_then(|(_, r)| r)
    }

    /// The replica currently leading, if any replica believes it leads.
    pub fn leader(&self) -> Option<NodeId> {
        self.servers.iter().copied().find(|&id| {
            self.replica(id)
                .is_some_and(|r| r.is_leader() && !r.is_retired())
        })
    }

    /// Immutable replica access.
    pub fn replica(&self, id: NodeId) -> Option<&Replica<S>> {
        self.sim.actor(id).and_then(PaxosNode::as_server)
    }

    /// Crash a replica (spot instance killed out-of-bid).
    pub fn crash(&mut self, id: NodeId) {
        self.sim.crash(id);
    }

    fn fresh_replica(&self, id: NodeId, host: S::Host, view: Vec<NodeId>) -> Replica<S> {
        Replica::new(
            id,
            view,
            host,
            self.replica_cfg.clone(),
            self.seed ^ id.0 as u64,
        )
    }

    /// Restart a crashed replica slot whose disk is gone (a replacement
    /// instance): pristine service state and the most advanced live
    /// replica's view — it rejoins and catches up from its peers.
    pub fn restart_pristine(&mut self, id: NodeId) {
        let replica = self.fresh_replica(id, self.pristine.clone(), self.view());
        self.sim.restart(id, PaxosNode::Server(replica));
    }

    /// Launch a brand-new replica (a fresh spot instance) with pristine
    /// service state, expecting to be added to the view via
    /// reconfiguration. Returns its node id.
    pub fn spawn_server(&mut self) -> NodeId {
        let id = NodeId(self.sim.node_count());
        let mut view = self.view();
        if !view.contains(&id) {
            view.push(id);
        }
        let replica = self.fresh_replica(id, self.pristine.clone(), view);
        let got = self.sim.add_node(PaxosNode::Server(replica));
        assert_eq!(got, id);
        self.servers.push(id);
        id
    }

    /// [`Cluster::current_view`], or every server the driver knows of
    /// when no replica is live.
    fn view(&self) -> Vec<NodeId> {
        self.current_view().unwrap_or_else(|| self.servers.clone())
    }

    /// The membership view of the most advanced live replica.
    pub fn current_view(&self) -> Option<Vec<NodeId>> {
        self.servers
            .iter()
            .filter_map(|&id| self.replica(id))
            .filter(|r| !r.is_retired())
            .max_by_key(|r| (r.view_id(), r.commit_index()))
            .map(|r| r.view().to_vec())
    }

    /// Propagate the current view to every client (after membership
    /// changes, so clients stop poking removed servers).
    pub fn refresh_clients(&mut self) {
        let Some(view) = self.current_view() else {
            return;
        };
        for &c in &self.clients.clone() {
            if let Some(cl) = self.sim.actor_mut(c).and_then(PaxosNode::as_client_mut) {
                cl.set_servers(view.clone());
            }
        }
    }

    /// Execute one fault-schedule action against this cluster.
    ///
    /// Crash/restart are translated into the same operations the spot
    /// replay uses for out-of-bid terminations: a crashed replica stops
    /// dead mid-protocol; a restarted one reboots with its durable state
    /// intact (promises, accepted slots, applied log) and only volatile
    /// leadership state lost — the crash-recovery model Paxos safety
    /// requires. An instance whose disk is gone for good is modeled as a
    /// crash with no restart, or as a fresh node added via
    /// reconfiguration. Partition groups only list replicas, so every
    /// other node (clients, spawned servers) is appended to each side —
    /// chaos separates replicas from each other, not clients from the
    /// service. Idempotent where the schedule could race reality
    /// (crashing a dead node or restarting a live one is a no-op).
    pub fn apply_chaos(&mut self, action: &ChaosAction) {
        match action {
            ChaosAction::Crash(id) => {
                if self.sim.is_up(*id) {
                    self.crash(*id);
                }
            }
            ChaosAction::Restart(id) => {
                if !self.sim.is_up(*id) {
                    match self.sim.take_crashed(*id) {
                        Some(PaxosNode::Server(mut r)) => {
                            r.reboot();
                            self.sim.restart(*id, PaxosNode::Server(r));
                        }
                        // No disk to recover (e.g. restarted before):
                        // rejoin pristine and catch up from peers.
                        _ => self.restart_pristine(*id),
                    }
                }
            }
            ChaosAction::Partition(groups) => {
                let mut groups = groups.clone();
                let listed: Vec<NodeId> = groups.iter().flatten().copied().collect();
                for n in 0..self.sim.node_count() {
                    let id = NodeId(n);
                    if !listed.contains(&id) {
                        for g in &mut groups {
                            g.push(id);
                        }
                    }
                }
                self.sim.partition(groups);
            }
            ChaosAction::Heal => self.sim.heal(),
            ChaosAction::SetLinkChaos(chaos) => self.sim.set_link_chaos(chaos.clone()),
            ChaosAction::ClearLinkChaos => self.sim.clear_link_chaos(),
            ChaosAction::ClockSkew(id, ms) => self.sim.skew_clock(*id, *ms),
        }
    }

    /// Check that all live replicas agree on every chosen slot they
    /// still hold (the fundamental Paxos safety property). Logs are
    /// aligned by slot number: replicas compact at different times, so
    /// index `i` of one retained log is not index `i` of another.
    /// Returns the shortest applied length.
    pub fn check_log_agreement(&self) -> Result<usize, String> {
        let mut agreed: BTreeMap<_, (NodeId, S::Wire)> = BTreeMap::new();
        let mut shortest: Option<u64> = None;
        for &id in &self.servers {
            let Some(r) = self.replica(id) else {
                continue;
            };
            shortest = Some(shortest.map_or(r.commit_index(), |s| s.min(r.commit_index())));
            for (slot, value) in r.applied_prefix() {
                match agreed.get(&slot) {
                    Some((first, v)) if !S::same_decision(v, &value) => {
                        return Err(format!(
                            "log divergence at slot {slot}: {first} has {v:?}, {id} has {value:?}"
                        ));
                    }
                    Some(_) => {}
                    None => {
                        agreed.insert(slot, (id, value));
                    }
                }
            }
        }
        Ok(shortest.unwrap_or(0) as usize)
    }

    /// [`Cluster::check_log_agreement`], panicking on divergence.
    pub fn assert_log_agreement(&self) -> usize {
        self.check_log_agreement().unwrap_or_else(|e| panic!("{e}"))
    }
}
