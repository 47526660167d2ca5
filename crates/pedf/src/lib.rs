//! PEDF — *Predicated Execution DataFlow* — runtime reproduction.
//!
//! The industrial dataflow framework the paper debugs (§IV): a dynamic
//! hybrid dataflow model on top of C++, with three entity classes
//! (**filters**, **controllers**, **modules**), structure-model data links
//! (indexed `pedf.io.x[n]` access) and step-based controller scheduling
//! (`ACTOR_START` / `ACTOR_SYNC` / `ACTOR_FIRE` / `WAIT_FOR_*`).
//!
//! This crate implements the framework's runtime system against the
//! [`p2012`] simulator:
//!
//! * [`graph`] — actors, connections, links ([`AppGraph`]);
//! * [`fifo`] — token FIFOs in simulated memory;
//! * [`api`] — the exported framework functions (bytecode stubs with
//!   symbols), trap numbers, and the boot-time string pool;
//! * [`policy`] — the explicit scheduler-choice seam (default election
//!   order + injected choice overrides; multiverse exploration);
//! * [`runtime`] — the trap handler: scheduling, token transport, boot;
//! * [`envio`] — host-side environment sources/sinks;
//! * [`events`] — the direct event stream (framework-cooperation ablation);
//! * [`system`] — the assembled machine a debugger attaches to.

pub mod api;
pub mod envio;
pub mod events;
pub mod fifo;
pub mod graph;
pub mod policy;
pub mod runtime;
pub mod system;

pub use api::{ApiStubs, StringPool};
pub use envio::{EnvSink, EnvSource, ValueGen};
pub use events::{EventBuffer, RuntimeEvent};
pub use fifo::FifoState;
pub use graph::{
    Actor, ActorId, ActorKind, AppGraph, ConnId, Connection, Dir, GraphError, Link, LinkClass,
    LinkId,
};
pub use policy::{ChoiceKind, ChoiceRec, DecisionPoint, SchedulePolicy, DELAYS};
pub use runtime::{FilterSched, Runtime, RuntimeStats};
pub use system::System;
