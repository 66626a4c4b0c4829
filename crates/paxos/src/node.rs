//! The actor glue: a simulation node is either a replica or a client.

use simnet::{Actor, Context, NodeId, TimerToken};

use crate::client::ClientState;
use crate::msg::Msg;
use crate::open_loop::OpenLoopClient;
use crate::replica::Replica;
use crate::service::Service;

/// A node in a consensus simulation: server replica or client.
// Replica state dwarfs client state by design; one enum per simulation
// node is the simnet contract, and nodes are few.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum PaxosNode<S: Service> {
    /// A replica participating in consensus.
    Server(Replica<S>),
    /// A closed-loop client.
    Client(ClientState<S>),
    /// An open-loop workload session.
    OpenLoop(OpenLoopClient<S>),
}

impl<S: Service> PaxosNode<S> {
    /// The replica state, if this is a server.
    pub fn as_server(&self) -> Option<&Replica<S>> {
        match self {
            PaxosNode::Server(r) => Some(r),
            _ => None,
        }
    }

    /// The client state, if this is a client.
    pub fn as_client(&self) -> Option<&ClientState<S>> {
        match self {
            PaxosNode::Client(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable client state, if this is a client.
    pub(crate) fn as_client_mut(&mut self) -> Option<&mut ClientState<S>> {
        match self {
            PaxosNode::Client(c) => Some(c),
            _ => None,
        }
    }

    /// The open-loop session state, if this is one.
    pub fn as_open_loop(&self) -> Option<&OpenLoopClient<S>> {
        match self {
            PaxosNode::OpenLoop(c) => Some(c),
            _ => None,
        }
    }
}

impl<S: Service> Actor for PaxosNode<S> {
    type Msg = Msg<S>;

    fn on_start(&mut self, ctx: &mut Context<Msg<S>>) {
        match self {
            PaxosNode::Server(r) => r.on_start(ctx),
            PaxosNode::Client(c) => c.on_start(ctx),
            PaxosNode::OpenLoop(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg<S>, ctx: &mut Context<Msg<S>>) {
        match self {
            PaxosNode::Server(r) => r.on_message(from, msg, ctx),
            PaxosNode::Client(c) => c.on_message(from, msg, ctx),
            PaxosNode::OpenLoop(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Msg<S>>) {
        match self {
            PaxosNode::Server(r) => r.on_timer(token, ctx),
            PaxosNode::Client(c) => c.on_timer(token, ctx),
            PaxosNode::OpenLoop(c) => c.on_timer(token, ctx),
        }
    }
}
