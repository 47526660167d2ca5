//! The dataflow-awareness extension (the top box of Fig. 3).
//!
//! * [`model`] — the debugger's Actor/Connection/Link/Token objects,
//!   scheduling monitor, catchpoints, token recording and provenance;
//! * [`capture`] — the function-breakpoint engine that feeds the model by
//!   observing the framework's exported functions;
//! * [`chunked`] — the copy-on-write chunked sequence the model's
//!   recorded history lives in, so checkpoints and forks share it;
//! * [`graphviz`] — DOT rendering of the reconstructed graph with live
//!   link occupancy (Figs. 2 and 4).

pub mod capture;
pub mod chunked;
pub mod graphviz;
pub mod model;

pub use capture::{Capture, CaptureMode, StubKind};
pub use model::{
    CatchCond, CatchSet, Catchpoint, DfActor, DfEvent, DfModel, DfSched, DfStop, FlowBehavior,
    InlineSlice, TokenId, TokenRec, TokenStore, TokenValue, RECORD_LIMIT,
};
