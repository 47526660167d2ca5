//! Deterministic functional simulator of the *Platform 2012* MPSoC.
//!
//! The paper's debugger targets the P2012 **functional simulator** (no
//! silicon existed at the time): a SystemC program where every processing
//! element is a cooperative user-level thread. This crate reproduces that
//! observable machine:
//!
//! * clusters of STxP70-class **processing elements** (Fig. 1), each running
//!   a stack-machine bytecode program ([`vm`]) with call frames, locals and
//!   source-line debug info — enough machine state for a real source-level
//!   debugger to stop, step and inspect;
//! * a shared **memory hierarchy** ([`memory`]): per-cluster L1, chip-wide
//!   L2, external L3, with distinct access latencies and watchpoint support;
//! * **DMA engines** ([`dma`]) performing host↔fabric block transfers;
//! * a **cooperative, cycle-stepped scheduler** ([`platform`]): one global
//!   clock, PEs advanced in a fixed order each cycle, so every run with the
//!   same inputs produces the same interleaving — the determinism the paper
//!   relies on for non-intrusive debugging;
//! * a **trap interface** ([`trap`]): programs call into the runtime
//!   (the PEDF framework, implemented in the `pedf` crate) through `Trap`
//!   instructions wrapped in symbol-carrying stub functions, which is what
//!   lets the debugger observe framework activity purely through breakpoints.

pub mod cost;
pub mod dma;
pub mod isa;
pub mod memory;
pub mod platform;
pub mod trap;
pub mod vm;

pub use dma::{DmaEngine, DmaRequest, DmaStatus};
pub use isa::{Insn, Program, ProgramBuilder};
pub use memory::{
    MemError, Memory, MemoryMap, MemoryWork, PageId, PageView, Region, WatchHit, WatchKind,
    CHUNK_PAGES, PAGE_WORDS,
};
pub use platform::{
    ClusterId, CycleReport, MachineWork, PeClass, PeId, PeSet, Platform, PlatformConfig,
};
pub use trap::{NullHandler, TrapCtx, TrapHandler, TrapResult};
pub use vm::{
    hash_debug, BlockReason, Frame, PeState, PeStatus, StepEvent, VmFault, MAX_CALL_DEPTH,
    MAX_OPERAND_STACK,
};

pub use debuginfo::{CodeAddr, Word};
