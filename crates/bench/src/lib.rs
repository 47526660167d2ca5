//! Benchmark harnesses for the paper's performance discussion (§V) and
//! the qualitative analysis it proposes (§VI-F).
//!
//! * [`overhead`] — experiment E1: the slowdown introduced by the
//!   debugger's function breakpoints, and the two mitigations §V
//!   describes (disable-until-critical; framework cooperation /
//!   actor-specific breakpoints);
//! * [`localization`] — experiment E2: the study §VI-F calls for,
//!   "measure the time required to locate different kinds of bugs ...
//!   compared against more common methods like source-level debuggers".
//!   Both strategies are *scripted* debugger sessions; interaction counts
//!   fall out of execution, they are not hard-coded.

//! * [`scaling`] — experiment E3: event-capture hot-path scaling
//!   (per-event cost vs. installed catchpoints; bounded token storms).

//! * [`analysis`] — experiments E4/E5: static analyzer and bytecode
//!   verifier cost and coverage over the decoder variants (the static
//!   half of static-vs-dynamic).

//! * [`replay`] — experiment E6: time-travel recording cost per
//!   checkpoint interval, and reverse-execution latency.

//! * [`server`] — experiments E7/E8: remote debug-server load — N
//!   concurrent TCP sessions each replaying the scripted deadlock
//!   diagnosis (E7), and the attach-latency scaling study with the
//!   compile-once cache on and off (E8) — throughput, latency quantiles
//!   and transcript-isolation checks.

//! * [`fuzz_farm`] — experiment E10: differential-fuzzing divergence
//!   rates (static verdicts vs. simulated ground truth over generated
//!   apps) and the DFA004 mutation self-check.

//! * [`multiverse`] — experiment E11: the exploration engine's search
//!   throughput (universes/sec), time-to-witness for the seeded deadlock
//!   and race, and the pruning ratio with sleep sets on vs. off.

pub mod analysis;
pub mod fuzz_farm;
pub mod localization;
pub mod multiverse;
pub mod overhead;
pub mod replay;
pub mod scaling;
pub mod sched_bound;
pub mod server;

pub use self::multiverse::{explore_study, pruning_ratio, ExploreRow, E11_N_MBS};
pub use analysis::{analyze_decoder, verify_decoder, AnalysisResult, VerifyResult};
pub use fuzz_farm::{fuzz_study, mutation_study, FarmSummary, MutationOutcome};
pub use localization::{localize, LocalizationResult, Strategy};
pub use overhead::{run_overhead, DebugConfig, OverheadResult};
pub use replay::{
    checkpoint_overhead, recording_check, reverse_continue_latency, thinned_chain_check,
    RecordingCheck, ReplayPoint, ReverseLatency, ThinnedChainCheck, ELEMENTS_PER_CHECKPOINT,
    REVERSE_PAIRS,
};
pub use scaling::{bounded_storm, catchpoint_scaling, ScalingPoint, StormResult};
pub use sched_bound::{row_label, throughput_bound, throughput_study, BoundRow};
pub use server::{attach_load, server_load, AttachLoadResult, ServerLoadResult};
