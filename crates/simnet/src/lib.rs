//! # simnet — deterministic discrete-event network simulation
//!
//! A small, deterministic discrete-event simulator used as the execution
//! substrate for the replicated services in this workspace (the Paxos lock
//! service and the RS-Paxos storage service). The paper ran those services on
//! real EC2 instances; here every instance is a simulated node whose crashes
//! are injected by the spot-market replay (out-of-bid terminations) and whose
//! messages travel over a configurable latency/drop model.
//!
//! Design points:
//!
//! * **Virtual time** in milliseconds ([`SimTime`]). Nothing ever sleeps;
//!   the simulation pops timestamped events from a calendar queue
//!   (`event::EventQueue`: a wheel of one-millisecond buckets over a
//!   slab, with a far heap for events beyond the wheel's two seconds).
//! * **Determinism**: all randomness (latency jitter, drops) comes from a
//!   seeded ChaCha RNG, and simultaneous events are ordered by an insertion
//!   sequence number, so a run is a pure function of (seed, schedule).
//! * **Actors**: every node runs the same [`Actor`] implementation (the
//!   simulation is generic over one actor type, which is all the replicated
//!   services need). Actors react to messages and timers via a [`Context`]
//!   that records outgoing effects.
//! * **Fault injection**: the *driver* (experiment harness) interleaves
//!   `run_until` with [`Simulation::crash`], [`Simulation::restart`],
//!   [`Simulation::add_node`] and partition control, which keeps the fault
//!   schedule outside the simulator and fully deterministic. The [`chaos`]
//!   module generates seeded fault schedules ([`ChaosSchedule`]) covering
//!   crashes, restarts, partitions, link chaos ([`LinkChaos`]: extra
//!   drops, duplicates, delay spikes) and clock skew; any failing run
//!   reproduces byte-for-byte from the schedule's printed `u64` seed
//!   (checkable via [`Simulation::fingerprint`]).
#![forbid(unsafe_code)]

pub mod chaos;
pub mod event;
pub mod network;
pub mod sim;
pub mod time;

pub use chaos::{ChaosAction, ChaosEvent, ChaosPlan, ChaosSchedule};
pub use event::{Event, EventKind};
pub use network::{LinkChaos, NetworkConfig};
pub use obs::TraceContext;
pub use sim::{Actor, Context, NodeId, Simulation, TimerToken};
pub use time::SimTime;
