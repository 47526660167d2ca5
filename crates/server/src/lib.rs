//! Remote multi-session debug server for the dataflow debugger.
//!
//! The paper's debugger is a GDB extension precisely so it can be driven
//! programmatically and remotely; Parson et al. (PAPERS.md) show that a
//! machine-drivable debugger protocol is what unlocks scripted and
//! fleet-scale debugging. This crate provides that layer for the
//! reproduction:
//!
//! * [`proto`] — the newline-delimited JSON wire protocol (GDB/MI-style
//!   request/response plus async notifications), hand-rolled for the
//!   offline build environment;
//! * [`server`] — the TCP server: thread-per-session over the existing
//!   [`dfdbg::cli::Cli`] machinery, a shared session [`registry`],
//!   per-session command/idle timeouts, bounded output, and graceful
//!   drain-on-shutdown that checkpoints live time-travel sessions;
//! * [`metrics`] — the observability counters behind the text `/metrics`
//!   endpoint (sessions, commands, latency histogram, bytes, timeouts,
//!   faults);
//! * [`eventlog`] — the structured per-session event log;
//! * [`session`] — shared session construction and the scripted §III
//!   deadlock-diagnosis transcript, used identically by the server, the
//!   in-process reference path, the E7 load bench and the CI
//!   remote-vs-local byte-compare (Guo et al.'s differential-testing
//!   discipline, PAPERS.md);
//! * [`client`] — the protocol client used by `dfdbg-repl --connect`,
//!   the bench and the tests.

pub mod client;
pub mod eventlog;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod resume;
pub mod server;
pub mod session;

pub use client::{remote_transcript, scrape_metrics, Client, Reply};
pub use eventlog::EventKind;
pub use metrics::Metrics;
pub use proto::{Frame, Request};
pub use registry::{Registry, SessionInfo, SessionState};
pub use resume::SessionRecipe;
pub use server::{render_remote_help, Server, ServerConfig, Shared, SERVER_COMMANDS};
pub use session::{
    build_app, build_cli, build_cli_cached, cache_key, local_transcript, parse_variant,
    variant_name, variant_names, DecoderCache, ANALYZE_SCRIPT, CHECKPOINT_INTERVAL,
    DEADLOCK_SCRIPT, DEFAULT_N_MBS, EXPLORE_SCRIPT, SCRIPT_N_MBS,
};
