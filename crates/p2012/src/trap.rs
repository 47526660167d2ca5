//! The trap interface between programs and the runtime system.
//!
//! PEDF is a *software* framework: filter kernels call framework functions
//! (`pedf_push_token`, `pedf_actor_start`, …). In the simulator these
//! functions are bytecode stubs whose body is a single `Trap` instruction;
//! the platform forwards the trap to a [`TrapHandler`] — the `pedf` crate's
//! runtime — together with a [`TrapCtx`] granting access to the rest of the
//! machine.
//!
//! Keeping the runtime *outside* the platform mirrors the paper's layering
//! (Fig. 3): the debugger owns both the machine and the runtime, observes
//! the machine through breakpoints, and never needs the runtime's
//! cooperation (except in the `framework cooperation` ablation).

use debuginfo::Word;

use crate::dma::DmaEngine;
use crate::memory::Memory;
use crate::platform::{PeId, Sched};
use crate::vm::{BlockReason, PeState};

/// Outcome of a trap, sized to avoid allocation on the token hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapResult {
    /// Commit; the trap produces no result (retc must be 0).
    Done,
    /// Commit with one result word (retc must be 1).
    Done1(Word),
    /// The condition is not satisfiable this cycle; the PE blocks with its
    /// trap pending. If [`TrapHandler::parks`] says so it sleeps until a
    /// wake, and then the platform asks [`TrapHandler::still_blocked`]
    /// before re-presenting the trap; otherwise the same trap is
    /// re-presented every cycle.
    Block(BlockReason),
    /// The runtime detected a protocol violation (e.g. unknown trap id);
    /// the PE faults and the debugger reports it.
    Fault(&'static str),
}

/// Mutable view of the machine handed to the runtime during a trap.
///
/// The PEs are reachable read-only, save for handing an idle one a task
/// ([`TrapCtx::invoke`]) and waking parked ones, so the platform's derived
/// scheduling state follows every status change. During a trap the slot of
/// the PE being served holds a placeholder (its state travels separately
/// as the `current` argument of [`TrapHandler::trap`]); the runtime must
/// not schedule work onto the trapping PE.
pub struct TrapCtx<'a> {
    pub mem: &'a mut Memory,
    pub dma: &'a mut [DmaEngine],
    pes: &'a mut [PeState],
    sched: &'a mut Sched,
    pub clock: u64,
}

impl<'a> TrapCtx<'a> {
    pub(crate) fn new(
        mem: &'a mut Memory,
        dma: &'a mut [DmaEngine],
        pes: &'a mut [PeState],
        sched: &'a mut Sched,
        clock: u64,
    ) -> Self {
        TrapCtx {
            mem,
            dma,
            pes,
            sched,
            clock,
        }
    }

    /// Start task `addr` on an idle PE (the runtime scheduling a filter's
    /// WORK method after ACTOR_START).
    pub fn invoke(&mut self, pe: PeId, addr: debuginfo::CodeAddr, args: &[Word]) {
        let from = self.pes[pe.index()].status;
        self.pes[pe.index()].invoke(addr, args);
        self.sched.invoked(pe.index(), from);
    }

    pub fn pe(&self, pe: PeId) -> &PeState {
        &self.pes[pe.index()]
    }

    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Put `pe` back in the per-cycle loop if it is parked: something it
    /// may wait for changed. A PE later in this cycle's order gets its
    /// slot in this cycle, as it would have polling.
    pub fn wake(&mut self, pe: PeId) {
        self.sched.wake(pe.index());
    }

    /// Wake every parked PE blocked on exactly `reason` (a FIFO push wakes
    /// the consumers waiting for tokens on that link, a pop the producers
    /// waiting for space).
    pub fn wake_blocked_on(&mut self, reason: BlockReason) {
        self.sched.wake_where(self.pes, |r| r == reason);
    }

    /// Wake every parked PE.
    pub fn wake_all(&mut self) {
        self.sched.wake_all();
    }
}

/// The runtime system's side of the trap interface.
pub trait TrapHandler {
    /// Service trap `id` raised by `pe` with operands `args`.
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult;

    /// Whether `pe`, which just blocked on `reason`, may sleep outside the
    /// per-cycle loop. A true answer is a promise: the handler wakes the PE
    /// ([`TrapCtx::wake`], [`TrapCtx::wake_blocked_on`]) on every event
    /// that can end the wait, or the PE sleeps through it. A parked PE
    /// still counts a trap in [`crate::platform::CycleReport::traps`] every
    /// cycle, so the reports read as if it had been polled. The default,
    /// false, keeps every blocked PE in the loop and re-presents its trap
    /// every cycle, which is what a handler unaware of wakes needs.
    fn parks(&self, pe: PeId, reason: BlockReason) -> bool {
        let _ = (pe, reason);
        false
    }

    /// Whether `pe`, woken while parked on `reason`, would block again
    /// with no side effect if its pending trap were dispatched now. While
    /// the answer is true the PE parks again without a dispatch, so a
    /// true answer must be exact. The default, false, dispatches the trap.
    fn still_blocked(&self, pe: PeId, reason: BlockReason) -> bool {
        let _ = (pe, reason);
        false
    }

    /// A task started with [`TrapCtx::invoke`] (or
    /// [`crate::Platform::invoke`]) ran to completion on `pe`.
    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        let _ = (ctx, pe, current);
    }

    /// Called once per cycle before any PE is stepped; the runtime uses it
    /// for housekeeping such as feeding environment sources.
    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        let _ = ctx;
    }

    /// Elect the order in which the `n_active` concurrently in-flight DMA
    /// engines advance this cycle: the return value rotates the engine
    /// list (`r % n_active`). Only called when two or more engines have
    /// transfers in flight — a genuine nondeterministic choice point on
    /// real hardware that the deterministic simulator must pick *some*
    /// answer for. The default (0) keeps the historical index order.
    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        let _ = (n_active, clock);
        0
    }
}

/// A handler that faults on every trap — used by platform-only tests and as
/// the default when running bare programs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHandler;

impl TrapHandler for NullHandler {
    fn trap(
        &mut self,
        _ctx: &mut TrapCtx<'_>,
        _pe: PeId,
        _current: &mut PeState,
        _id: u16,
        _args: &[Word],
    ) -> TrapResult {
        TrapResult::Fault("no runtime installed")
    }
}
