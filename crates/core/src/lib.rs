//! `dfdbg` — interactive debugging of dynamic dataflow embedded
//! applications.
//!
//! This crate is the paper's primary contribution: a debugger that "shifts
//! the main focus towards the data-controlled style of execution of the
//! dataflow model" (§III). It layers dataflow awareness on top of a full
//! source-level debugger, exactly as the paper layers its Python extension
//! on top of GDB (Fig. 3):
//!
//! * **Stopping the execution** — catchpoints on actor firing
//!   (`filter pipe catch work`), on received-token counts
//!   (`filter ipred catch Pipe_in=1,Hwcfg_in=1`, `catch *in=1`), on token
//!   content, transmission counts, controller scheduling decisions and
//!   step boundaries;
//! * **Step-by-step execution** — classic `step`/`next`/`finish`/`stepi`
//!   plus `step_both`, which breakpoints both ends of a data dependency;
//! * **Inspecting the state** — reconstructed dataflow graph (DOT),
//!   per-link token occupancy, per-filter scheduling state, token
//!   recording (`iface X::Y record/print`) and provenance paths
//!   (`filter X info last_token`);
//! * **Altering the execution** — injecting, rewriting and deleting
//!   tokens (e.g. to untie a deadlock);
//! * **Two-level debugging** — all the language-level machinery
//!   (breakpoints, watchpoints, frames, typed printing with a `$N` value
//!   history) remains available at any stop;
//! * **Time travel** — deterministic checkpoint/replay (the [`replay`]
//!   crate) behind `checkpoint`/`restart`/`goto` and the GDB-style
//!   `reverse-continue`/`reverse-step`/`reverse-next`/`reverse-stepi`,
//!   plus `token origin` composing replay with token provenance.
//!
//! Entry point: [`Session::attach`] on a [`pedf::System`] built by the
//! `mind` tool-chain, then [`Session::boot`] — the graph is reconstructed
//! live from the framework's registration calls via function breakpoints.

pub mod analysis;
pub mod appcache;
pub mod cli;
pub mod dataflow;
pub mod session;

pub use appcache::{AppCache, CachedApp};
pub use dataflow::{
    CaptureMode, CatchCond, DfEvent, DfModel, DfSched, DfStop, FlowBehavior, InlineSlice, TokenId,
    TokenRec, TokenStore, TokenValue, RECORD_LIMIT,
};
pub use replay::{CheckpointInfo, CHECKPOINT_BUDGET, CHECKPOINT_INTERVAL};
pub use session::{
    race_watch_sites, Breakpoint, CmdResult, RecordedStorage, Session, Stop, Watchpoint,
};
