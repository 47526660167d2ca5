//! The assembled platform: clusters, PEs, host, memories, DMA and the
//! cooperative cycle-stepped scheduler.
//!
//! Fig. 1 of the paper: a general-purpose host processor plus clusters of
//! STxP70 processing elements (optionally with wired hardware accelerators),
//! per-cluster shared L1, chip-wide L2 and external L3 behind DMA.
//!
//! Scheduling is deliberately primitive and deterministic — each cycle every
//! PE in index order advances by at most one instruction, exactly like the
//! SystemC functional simulator's cooperative user-level threads. The same
//! program and inputs therefore always produce the same interleaving, which
//! is what makes the paper's breakpoint-heavy debugging non-intrusive.
//!
//! Like a sleeping SystemC thread, a PE that cannot act costs nothing: a
//! cycle visits only the *active* PEs (running ones, and blocked ones the
//! handler has not parked), in index order. Idle and halted PEs are not
//! visited; faulted and parked ones are counted in bulk, so every
//! [`CycleReport`] reads as if each PE had been visited. A parked PE
//! rejoins the loop when the handler wakes it ([`TrapCtx::wake`],
//! [`TrapCtx::wake_blocked_on`]) or when the platform does (a DMA retire,
//! [`Platform::wake_all`]). A PE leaves its slot only while the
//! [`TrapHandler`] serves it (a trap, a finished task, or a woken blocked
//! PE), so the handler's view of the other PEs never aliases the one it
//! serves.
//!
//! The visit and park sets, the status counts behind
//! [`Platform::is_quiescent`] and friends, and the set of PEs the last
//! cycle touched ([`Platform::touched`]) are derived state: they follow
//! the PE statuses, stay out of [`Platform::hash_state`], and are cloned
//! and forked with the machine. Code that writes `pes[i].status` directly
//! calls [`Platform::resync`] afterwards.

use std::sync::Arc;

use debuginfo::{CodeAddr, Word};

use crate::dma::DmaEngine;
use crate::isa::Program;
use crate::memory::{Memory, MemoryMap};
use crate::trap::{TrapCtx, TrapHandler, TrapResult};
use crate::vm::{BlockReason, PeState, PeStatus, StepEvent, VmFault};

/// Index of a processing element (global, across clusters; the host is the
/// last id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId(pub u16);

impl PeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterId(pub u16);

/// Kind of processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeClass {
    /// STxP70 configurable processor (fabric).
    Stxp70,
    /// Wired hardware accelerator controlled by its cluster (filters are
    /// "intended to be synthesized into hardware accelerators", §IV-C).
    HwAccel,
    /// The general-purpose host processor.
    ArmHost,
}

impl PeClass {
    pub fn name(self) -> &'static str {
        match self {
            PeClass::Stxp70 => "STxP70",
            PeClass::HwAccel => "HWPE",
            PeClass::ArmHost => "ARM-host",
        }
    }
}

/// Static description of one PE.
#[derive(Debug, Clone)]
pub struct PeInfo {
    pub id: PeId,
    pub class: PeClass,
    /// Cluster index; the host reports the pseudo-cluster `u16::MAX`.
    pub cluster: u16,
    pub name: String,
}

/// Platform shape. The default (2 clusters × 4 PEs + 1 accelerator, one
/// host) is the configuration used by every experiment unless stated
/// otherwise in EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    pub clusters: u16,
    pub pes_per_cluster: u16,
    pub accels_per_cluster: u16,
    pub mem: MemoryMap,
    pub dma_words_per_cycle: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            clusters: 2,
            pes_per_cluster: 4,
            accels_per_cluster: 1,
            mem: MemoryMap::default(),
            dma_words_per_cycle: 4,
        }
    }
}

/// Aggregate counters for one simulated cycle (cheap enough for the fast
/// path; the debugger inspects PE state directly for anything richer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleReport {
    pub executed: u32,
    pub traps: u32,
    pub completions: u32,
    pub faults: u32,
}

impl CycleReport {
    pub fn merge(&mut self, other: CycleReport) {
        self.executed += other.executed;
        self.traps += other.traps;
        self.completions += other.completions;
        self.faults += other.faults;
    }
}

/// A set of PEs: one bit per PE, iterated in index order. The first 64
/// PEs (every configuration in this repository) live in one inline word.
#[derive(Debug, Clone, Default)]
pub struct PeSet {
    low: u64,
    high: Vec<u64>,
}

impl PeSet {
    /// An empty set with room for `n` PEs.
    pub fn with_capacity(n: usize) -> Self {
        PeSet {
            low: 0,
            high: vec![0; n.saturating_sub(64).div_ceil(64)],
        }
    }

    fn word(&mut self, i: usize) -> &mut u64 {
        match i / 64 {
            0 => &mut self.low,
            w => &mut self.high[w - 1],
        }
    }

    /// Add `i`; true when it was not a member.
    pub fn insert(&mut self, i: usize) -> bool {
        let b = 1u64 << (i % 64);
        let w = self.word(i);
        let was = *w & b != 0;
        *w |= b;
        !was
    }

    /// Remove `i`; true when it was a member.
    pub fn remove(&mut self, i: usize) -> bool {
        let b = 1u64 << (i % 64);
        let w = self.word(i);
        let was = *w & b != 0;
        *w &= !b;
        was
    }

    pub fn clear(&mut self) {
        self.low = 0;
        self.high.iter_mut().for_each(|w| *w = 0);
    }

    /// The smallest member at or after `from`.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        if from < 64 {
            let bits = self.low & (u64::MAX << from);
            if bits != 0 {
                return Some(bits.trailing_zeros() as usize);
            }
        }
        let mut w = from.max(64) / 64;
        let mut bits = self.high.get(w - 1)? & (u64::MAX << (from.max(64) % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.high.get(w - 1)?;
        }
    }
}

/// Deterministic counts of the scheduling work the machine did, for the
/// benchmarks: how often a parked PE was woken, how often the handler was
/// asked whether a woken PE still waits, and how many traps reached it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineWork {
    pub wakeups: u64,
    pub probes: u64,
    pub dispatches: u64,
}

/// Where a PE status counts: the classes the quiescence checks read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Running,
    Blocked,
    Faulted,
    Rest,
}

fn class(status: PeStatus) -> Class {
    match status {
        PeStatus::Running => Class::Running,
        PeStatus::Blocked(_) => Class::Blocked,
        PeStatus::Faulted(_) => Class::Faulted,
        PeStatus::Idle | PeStatus::Halted => Class::Rest,
    }
}

/// The platform's derived scheduling state (see the module docs): which
/// PEs a cycle visits, which sleep until a wake, which the last cycle
/// touched, and the status counts. Rebuilt from the statuses by
/// [`Platform::resync`]; never hashed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sched {
    /// Running PEs and blocked PEs that are not parked.
    active: PeSet,
    /// Blocked PEs the handler promised to wake ([`TrapHandler::parks`]).
    parked: PeSet,
    /// Woken PEs whose wait the handler is asked about before a dispatch.
    woken: PeSet,
    /// PEs whose call stack, status or task the last cycle changed.
    touched: PeSet,
    running: u32,
    blocked: u32,
    faulted: u32,
    /// Members of `parked`.
    n_parked: u32,
    /// The PE whose slot is being served; `usize::MAX` outside the loop.
    cursor: usize,
    /// PEs parked when the loop began and woken before their slot.
    woken_ahead: u32,
    work: MachineWork,
}

impl Sched {
    fn new(n: usize) -> Self {
        Sched {
            active: PeSet::with_capacity(n),
            parked: PeSet::with_capacity(n),
            woken: PeSet::with_capacity(n),
            touched: PeSet::with_capacity(n),
            cursor: usize::MAX,
            ..Sched::default()
        }
    }

    fn count(&mut self, c: Class, delta: i32) {
        let n = match c {
            Class::Running => &mut self.running,
            Class::Blocked => &mut self.blocked,
            Class::Faulted => &mut self.faulted,
            Class::Rest => return,
        };
        *n = n.wrapping_add_signed(delta);
    }

    /// `pe`'s status went from `from` to `to`.
    fn moved(&mut self, pe: usize, from: PeStatus, to: PeStatus) {
        let (a, b) = (class(from), class(to));
        if a != b {
            self.count(a, -1);
            self.count(b, 1);
        }
        if matches!(b, Class::Running | Class::Blocked) {
            self.active.insert(pe);
        } else {
            self.active.remove(pe);
        }
    }

    /// An idle PE was handed a task.
    pub(crate) fn invoked(&mut self, pe: usize, from: PeStatus) {
        self.moved(pe, from, PeStatus::Running);
        self.touched.insert(pe);
    }

    /// Put a parked PE back in the loop; its handler is asked once more
    /// whether it still waits before its trap is dispatched.
    pub(crate) fn wake(&mut self, pe: usize) {
        if self.parked.remove(pe) {
            self.n_parked -= 1;
            self.active.insert(pe);
            self.woken.insert(pe);
            self.work.wakeups += 1;
            if self.cursor != usize::MAX && pe > self.cursor {
                self.woken_ahead += 1;
            }
        }
    }

    /// Take a blocked PE out of the loop until a wake.
    fn park(&mut self, pe: usize) {
        self.active.remove(pe);
        if self.parked.insert(pe) {
            self.n_parked += 1;
        }
    }

    /// Wake every parked PE whose status satisfies `pred`.
    pub(crate) fn wake_where(&mut self, pes: &[PeState], pred: impl Fn(BlockReason) -> bool) {
        let mut next = 0;
        while let Some(i) = self.parked.next_from(next) {
            next = i + 1;
            if let PeStatus::Blocked(r) = pes[i].status {
                if pred(r) {
                    self.wake(i);
                }
            }
        }
    }

    pub(crate) fn wake_all(&mut self) {
        let mut next = 0;
        while let Some(i) = self.parked.next_from(next) {
            next = i + 1;
            self.wake(i);
        }
    }
}

/// The simulated machine.
///
/// The PE descriptions and the program image are fixed once the program
/// is loaded, so forks share them.
#[derive(Debug, Clone)]
pub struct Platform {
    pub config: PlatformConfig,
    pub infos: Arc<[PeInfo]>,
    pub pes: Vec<PeState>,
    pub mem: Memory,
    pub dma: Vec<DmaEngine>,
    pub program: Arc<Program>,
    pub clock: u64,
    sched: Sched,
}

impl Platform {
    pub fn new(config: PlatformConfig) -> Self {
        let mut infos = Vec::new();
        for c in 0..config.clusters {
            for p in 0..config.pes_per_cluster {
                infos.push(PeInfo {
                    id: PeId(infos.len() as u16),
                    class: PeClass::Stxp70,
                    cluster: c,
                    name: format!("cluster{c}.pe{p}"),
                });
            }
            for a in 0..config.accels_per_cluster {
                infos.push(PeInfo {
                    id: PeId(infos.len() as u16),
                    class: PeClass::HwAccel,
                    cluster: c,
                    name: format!("cluster{c}.hwpe{a}"),
                });
            }
        }
        infos.push(PeInfo {
            id: PeId(infos.len() as u16),
            class: PeClass::ArmHost,
            cluster: u16::MAX,
            name: "host".to_string(),
        });
        // One DMA controller per cluster plus the host's.
        let dma = (0..=config.clusters)
            .map(|_| DmaEngine::new(config.dma_words_per_cycle))
            .collect();
        let pes = infos.iter().map(|_| PeState::default()).collect();
        Platform {
            mem: Memory::new(config.mem.clone()),
            pes,
            sched: Sched::new(infos.len()),
            infos: infos.into(),
            dma,
            program: Arc::default(),
            clock: 0,
            config,
        }
    }

    /// Install the linked program image.
    pub fn load(&mut self, program: Program) {
        self.program = Arc::new(program);
    }

    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    pub fn host_id(&self) -> PeId {
        PeId(self.infos.len() as u16 - 1)
    }

    /// The `idx`-th general-purpose PE of `cluster`.
    pub fn pe_on(&self, cluster: u16, idx: u16) -> Option<PeId> {
        self.infos
            .iter()
            .filter(|i| i.cluster == cluster && i.class == PeClass::Stxp70)
            .nth(idx as usize)
            .map(|i| i.id)
    }

    /// The `idx`-th hardware accelerator of `cluster`.
    pub fn accel_on(&self, cluster: u16, idx: u16) -> Option<PeId> {
        self.infos
            .iter()
            .filter(|i| i.cluster == cluster && i.class == PeClass::HwAccel)
            .nth(idx as usize)
            .map(|i| i.id)
    }

    pub fn info(&self, pe: PeId) -> &PeInfo {
        &self.infos[pe.index()]
    }

    /// Start a task on an idle PE from outside a trap (initial boot).
    pub fn invoke(&mut self, pe: PeId, addr: CodeAddr, args: &[Word]) {
        let from = self.pes[pe.index()].status;
        self.pes[pe.index()].invoke(addr, args);
        self.sched.invoked(pe.index(), from);
    }

    /// Advance the whole machine by one cycle.
    pub fn step_cycle(&mut self, handler: &mut dyn TrapHandler) -> CycleReport {
        let mut report = CycleReport::default();
        self.sched.touched.clear();

        handler.on_cycle(&mut self.trap_ctx());
        // DMA-completion ordering is a scheduler choice point: when two or
        // more engines are in flight, the handler elects which advances
        // first (rotation over the active set). The default answer keeps
        // the historical index order, and engines with nothing in flight
        // never observe the rotation (their step is a no-op).
        let n_active = self.dma_active();
        if n_active > 0 {
            let r = if n_active >= 2 {
                handler.choose_dma_order(n_active as u32, self.clock) as usize % n_active
            } else {
                0
            };
            // The rotation without collecting the active set: the active
            // engines from the `r`-th on, then the first `r`. A step
            // changes only its own engine, so those `r` are still active
            // and still first on the second pass.
            let before: usize = self.dma.iter().map(DmaEngine::in_flight).sum();
            let mem = &mut self.mem;
            for d in self.dma.iter_mut().filter(|d| d.in_flight() > 0).skip(r) {
                d.step(mem);
            }
            for d in self.dma.iter_mut().filter(|d| d.in_flight() > 0).take(r) {
                d.step(mem);
            }
            if self.dma.iter().map(DmaEngine::in_flight).sum::<usize>() < before {
                let pes = &self.pes;
                self.sched
                    .wake_where(pes, |r| matches!(r, BlockReason::DmaWait { .. }));
            }
        }

        // Faulted and parked PEs are not visited; each still counts, as if
        // it had been: a fault every cycle, a trap for every parked PE its
        // slot passes (one woken ahead of its slot is visited instead).
        report.faults = self.sched.faulted;
        let parked = self.sched.n_parked;
        self.sched.woken_ahead = 0;
        let mut next = 0;
        while let Some(i) = self.sched.active.next_from(next) {
            self.sched.cursor = i;
            self.slot(handler, i, &mut report);
            next = i + 1;
        }
        self.sched.cursor = usize::MAX;
        report.traps += parked - self.sched.woken_ahead;
        self.clock += 1;
        report
    }

    /// Serve PE `i`'s slot: settle a stall in place, step a running PE,
    /// and hand a trap, a finished task or a woken blocked PE to the
    /// handler. Only a trap, a finished task or a dispatched blocked PE
    /// moves out of its slot, since the handler then sees the other PEs
    /// through `TrapCtx::pes`.
    fn slot(&mut self, handler: &mut dyn TrapHandler, i: usize, report: &mut CycleReport) {
        let id = PeId(i as u16);
        let pe = &mut self.pes[i];
        let from = pe.status;
        let (tid, argc, retc) = match from {
            PeStatus::Running if pe.stall > 0 => {
                pe.stall -= 1;
                return;
            }
            PeStatus::Running => match pe.step(&self.program, &mut self.mem) {
                StepEvent::TrapPending { id, argc, retc } => (id, argc, retc),
                StepEvent::TaskComplete => {
                    report.completions += 1;
                    let mut pe = std::mem::take(&mut self.pes[i]);
                    handler.on_task_complete(&mut self.trap_ctx(), id, &mut pe);
                    self.pes[i] = pe;
                    self.settle(handler, i, from);
                    return;
                }
                StepEvent::Executed => {
                    report.executed += 1;
                    return;
                }
                StepEvent::Called { .. } | StepEvent::Returned { .. } => {
                    report.executed += 1;
                    self.sched.touched.insert(i);
                    return;
                }
                StepEvent::Fault(_) => {
                    report.faults += 1;
                    self.settle(handler, i, from);
                    return;
                }
                StepEvent::Stalled | StepEvent::Idle | StepEvent::Halted => {
                    self.settle(handler, i, from);
                    return;
                }
            },
            PeStatus::Blocked(reason) => {
                // A woken PE: the handler may vouch that a retry would
                // block again untouched, and then the PE parks again
                // without a dispatch. It still counts, as every parked PE
                // does.
                if self.sched.woken.remove(i) {
                    self.sched.work.probes += 1;
                    if handler.still_blocked(id, reason) {
                        self.sched.park(i);
                        report.traps += 1;
                        return;
                    }
                }
                let pe = &mut self.pes[i];
                match pe.pending_trap(&self.program) {
                    Some(trap) => trap,
                    None => {
                        // Blocked without a pending trap cannot happen
                        // for well-formed runtimes; fault loudly
                        // instead of spinning forever.
                        pe.status =
                            PeStatus::Faulted(VmFault::Runtime("blocked without pending trap"));
                        report.faults += 1;
                        self.settle(handler, i, from);
                        return;
                    }
                }
            }
            PeStatus::Idle | PeStatus::Halted | PeStatus::Faulted(_) => {
                debug_assert!(false, "{id} is in the visit set while {from:?}");
                self.sched.active.remove(i);
                return;
            }
        };
        report.traps += 1;
        self.sched.work.dispatches += 1;
        let mut pe = std::mem::take(&mut self.pes[i]);
        self.dispatch_trap(handler, id, &mut pe, tid, argc, retc);
        self.pes[i] = pe;
        self.settle(handler, i, from);
    }

    /// After PE `i`'s slot changed it: note it touched, move it between
    /// the status counts, and park it if it blocked on a wait its handler
    /// will wake.
    fn settle(&mut self, handler: &dyn TrapHandler, i: usize, from: PeStatus) {
        let to = self.pes[i].status;
        self.sched.touched.insert(i);
        self.sched.moved(i, from, to);
        if let PeStatus::Blocked(reason) = to {
            if handler.parks(PeId(i as u16), reason) {
                self.sched.park(i);
            }
        }
    }

    /// The handler's view of the machine: everything but the program.
    pub fn trap_ctx(&mut self) -> TrapCtx<'_> {
        TrapCtx::new(
            &mut self.mem,
            &mut self.dma,
            &mut self.pes,
            &mut self.sched,
            self.clock,
        )
    }

    fn dispatch_trap(
        &mut self,
        handler: &mut dyn TrapHandler,
        id: PeId,
        pe: &mut PeState,
        trap_id: u16,
        argc: u8,
        retc: u8,
    ) {
        debug_assert!(argc as usize <= 8, "trap arity limited to 8");
        let mut buf = [0 as Word; 8];
        let args = pe.trap_args(argc);
        buf[..args.len()].copy_from_slice(args);
        let result = handler.trap(&mut self.trap_ctx(), id, pe, trap_id, &buf[..argc as usize]);
        match result {
            TrapResult::Done => {
                debug_assert_eq!(retc, 0, "trap {trap_id} must return a value");
                pe.complete_trap(argc, &[]);
            }
            TrapResult::Done1(w) => {
                debug_assert_eq!(retc, 1, "trap {trap_id} returns no value");
                pe.complete_trap(argc, &[w]);
            }
            TrapResult::Block(reason) => pe.block(reason),
            TrapResult::Fault(msg) => {
                pe.status = PeStatus::Faulted(VmFault::Runtime(msg));
            }
        }
    }

    /// Run for `cycles` cycles (fast path, no per-cycle inspection).
    pub fn run(&mut self, handler: &mut dyn TrapHandler, cycles: u64) -> CycleReport {
        let mut total = CycleReport::default();
        for _ in 0..cycles {
            total.merge(self.step_cycle(handler));
        }
        total
    }

    /// The PEs the last [`Platform::step_cycle`] touched: those whose
    /// call stack, status or task it changed. They called or returned,
    /// trapped, completed a task, faulted, halted or were handed a task.
    /// Every other PE kept its frames and status: it retired an ordinary
    /// instruction inside its current function, paid a memory stall, or
    /// did nothing.
    pub fn touched(&self) -> &PeSet {
        &self.sched.touched
    }

    /// The PEs the next cycle visits: the running ones and the blocked
    /// ones that are not parked. Every PE about to execute is here.
    pub fn active(&self) -> &PeSet {
        &self.sched.active
    }

    /// Deterministic counts of the scheduling work done so far.
    pub fn work(&self) -> MachineWork {
        self.sched.work
    }

    /// Wake every parked PE: the conservative answer to a change made
    /// from outside the stepper (a debugger altering a FIFO, a restore).
    /// Each woken PE costs one question to its handler on its next slot.
    pub fn wake_all(&mut self) {
        self.sched.wake_all();
    }

    /// Rebuild the derived scheduling state from the PE statuses, after
    /// code wrote `pes[i].status` directly. Nothing stays parked.
    pub fn resync(&mut self) {
        let work = self.sched.work;
        self.sched = Sched::new(self.pes.len());
        self.sched.work = work;
        for i in 0..self.pes.len() {
            self.sched.moved(i, PeStatus::Idle, self.pes[i].status);
        }
    }

    /// Engines with a transfer in flight.
    fn dma_active(&self) -> usize {
        let mut n = 0;
        for d in &self.dma {
            n += usize::from(d.in_flight() > 0);
        }
        n
    }

    /// True when nothing can make progress any more: every PE idle, halted
    /// or faulted, and no DMA in flight. Blocked PEs mean a deadlock or a
    /// starved source, *not* quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.debug_check_counts();
        self.sched.running == 0 && self.sched.blocked == 0 && self.dma_active() == 0
    }

    /// All PEs blocked (or idle/halted) with at least one blocked: the
    /// machine can only be unstuck by external action — a deadlock from the
    /// application's point of view. The debugger's token-injection commands
    /// exist precisely to untie this state (§III).
    pub fn is_deadlocked(&self) -> bool {
        self.debug_check_counts();
        self.sched.running == 0 && self.sched.blocked > 0 && self.dma_active() == 0
    }

    /// The first faulted PE (lowest index) and its fault.
    pub fn first_fault(&self) -> Option<(PeId, VmFault)> {
        self.debug_check_counts();
        if self.sched.faulted == 0 {
            return None;
        }
        self.pes
            .iter()
            .enumerate()
            .find_map(|(i, p)| match p.status {
                PeStatus::Faulted(f) => Some((PeId(i as u16), f)),
                _ => None,
            })
    }

    /// Debug builds check the status counts against a scan of the PEs.
    fn debug_check_counts(&self) {
        if cfg!(debug_assertions) {
            let n = |c: Class| self.pes.iter().filter(|p| class(p.status) == c).count() as u32;
            let s = &self.sched;
            assert_eq!(
                (s.running, s.blocked, s.faulted),
                (n(Class::Running), n(Class::Blocked), n(Class::Faulted)),
                "derived status counts out of step (a direct status write needs `resync`)"
            );
        }
    }

    /// Copy-on-write fork of the whole machine: PE/DMA/clock state is
    /// cloned outright (it is small), the PE descriptions and the program
    /// are shared, and memory forks chunk-wise via [`Memory::fork`] so the
    /// two machines share every untouched chunk and page.
    /// The fork starts with every parked PE woken: whoever forks usually
    /// goes on to change the copy from outside the stepper.
    pub fn fork(&mut self) -> Platform {
        let mem = self.mem.fork();
        let mut sched = self.sched.clone();
        sched.wake_all();
        Platform {
            config: self.config.clone(),
            infos: Arc::clone(&self.infos),
            pes: self.pes.clone(),
            mem,
            dma: self.dma.clone(),
            program: Arc::clone(&self.program),
            clock: self.clock,
            sched,
        }
    }

    /// Feed the full machine state (sans memory content) to a hasher.
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u64(self.clock);
        h.write_u64(self.mem.reads);
        h.write_u64(self.mem.writes);
        for pe in &self.pes {
            pe.hash_state(h);
        }
        for d in &self.dma {
            d.hash_state(h);
        }
    }

    /// Human-readable topology description (the `platform_tour` example and
    /// the `info platform` debugger command).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Platform 2012 functional model: {} cluster(s), {} PE(s) total\n",
            self.config.clusters,
            self.pes.len()
        ));
        for c in 0..self.config.clusters {
            out.push_str(&format!(
                "  cluster {c}: {} x STxP70 + {} x HWPE, L1 @0x{:08x} ({} words, {} cy)\n",
                self.config.pes_per_cluster,
                self.config.accels_per_cluster,
                self.config.mem.l1_base(c),
                self.config.mem.l1_words,
                self.config.mem.l1_latency,
            ));
        }
        out.push_str(&format!(
            "  L2 @0x{:08x} ({} words, {} cy) — inter-cluster\n",
            crate::memory::L2_BASE,
            self.config.mem.l2_words,
            self.config.mem.l2_latency,
        ));
        out.push_str(&format!(
            "  L3 @0x{:08x} ({} words, {} cy) — host side, via DMA ({} engines, {} words/cy)\n",
            crate::memory::L3_BASE,
            self.config.mem.l3_words,
            self.config.mem.l3_latency,
            self.dma.len(),
            self.config.dma_words_per_cycle,
        ));
        out.push_str(&format!("  host: {}\n", self.info(self.host_id()).name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Insn, ProgramBuilder};
    use crate::memory::L2_BASE;
    use crate::trap::NullHandler;
    use crate::vm::BlockReason;

    #[test]
    fn pe_sets_iterate_in_index_order_past_one_word() {
        let mut s = PeSet::with_capacity(200);
        for i in [199, 3, 64, 0, 130, 63] {
            assert!(s.insert(i));
        }
        assert!(!s.insert(64));
        let members = |s: &PeSet| {
            let mut next = 0;
            std::iter::from_fn(|| {
                let i = s.next_from(next)?;
                next = i + 1;
                Some(i)
            })
            .collect::<Vec<_>>()
        };
        assert_eq!(members(&s), [0, 3, 63, 64, 130, 199]);
        assert_eq!(s.next_from(65), Some(130));
        assert_eq!(s.next_from(200), None);
        assert!(s.remove(130) && !s.remove(130));
        assert_eq!(members(&s), [0, 3, 63, 64, 199]);
        s.clear();
        assert_eq!(s.next_from(0), None);
    }

    #[test]
    fn topology_matches_config() {
        let p = Platform::new(PlatformConfig::default());
        // 2 clusters x (4 + 1) + host
        assert_eq!(p.pe_count(), 11);
        assert_eq!(p.info(p.host_id()).class, PeClass::ArmHost);
        assert_eq!(p.pe_on(1, 0), Some(PeId(5)));
        assert_eq!(p.accel_on(0, 0), Some(PeId(4)));
        assert_eq!(p.pe_on(2, 0), None);
        assert_eq!(p.dma.len(), 3);
        let d = p.describe();
        assert!(d.contains("cluster 1"));
        assert!(d.contains("host"));
    }

    #[test]
    fn two_pes_interleave_deterministically() {
        // Both PEs increment their own counter in L2; after N cycles both
        // have retired the same instruction count.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let top = b.here();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Const(1));
        b.emit(Insn::Add);
        b.emit(Insn::StoreMem);
        b.emit(Insn::Jump(top));
        let prog = b.finish();

        let mut p = Platform::new(PlatformConfig::default());
        p.load(prog);
        p.invoke(PeId(0), entry, &[L2_BASE]);
        p.invoke(PeId(1), entry, &[L2_BASE + 1]);
        let mut h = NullHandler;
        p.run(&mut h, 1000);
        let a = p.mem.peek(L2_BASE).unwrap();
        let c = p.mem.peek(L2_BASE + 1).unwrap();
        assert_eq!(a, c, "fixed-order scheduling must be fair here");
        assert!(a > 0);
        assert_eq!(p.clock, 1000);
    }

    struct CountingHandler {
        served: u32,
        block_first: bool,
    }

    impl TrapHandler for CountingHandler {
        fn trap(
            &mut self,
            _ctx: &mut TrapCtx<'_>,
            _pe: PeId,
            _current: &mut PeState,
            id: u16,
            args: &[Word],
        ) -> TrapResult {
            assert_eq!(id, 42);
            assert_eq!(args, &[5]);
            if self.block_first {
                self.block_first = false;
                return TrapResult::Block(BlockReason::Other("test"));
            }
            self.served += 1;
            TrapResult::Done1(args[0] * 2)
        }
    }

    /// `mem[L2_BASE] = trap42(5)`, then halt.
    fn trap_42_program() -> (Program, CodeAddr) {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Const(5));
        b.emit(Insn::Trap {
            id: 42,
            argc: 1,
            retc: 1,
        });
        b.emit(Insn::StoreMem);
        b.emit(Insn::Halt);
        (b.finish(), entry)
    }

    #[test]
    fn blocked_trap_is_retried_until_served() {
        let (prog, entry) = trap_42_program();
        let mut p = Platform::new(PlatformConfig::default());
        p.load(prog);
        p.invoke(PeId(0), entry, &[]);
        let mut h = CountingHandler {
            served: 0,
            block_first: true,
        };
        p.run(&mut h, 20);
        assert_eq!(h.served, 1);
        assert_eq!(p.mem.peek(L2_BASE).unwrap(), 10);
        assert!(matches!(p.pes[0].status, PeStatus::Halted));
    }

    /// Blocks trap 42 until `open`; parks the waiting PE only when `park`
    /// is set, so one run can be stepped parked or polled. `open` is set
    /// from outside the stepper, so the next cycle wakes every parked PE.
    struct Gate {
        park: bool,
        open: bool,
        woke: bool,
        calls: u32,
    }

    impl TrapHandler for Gate {
        fn trap(
            &mut self,
            _ctx: &mut TrapCtx<'_>,
            _pe: PeId,
            _current: &mut PeState,
            id: u16,
            args: &[Word],
        ) -> TrapResult {
            assert_eq!(id, 42);
            self.calls += 1;
            if self.open {
                TrapResult::Done1(args[0] * 2)
            } else {
                TrapResult::Block(BlockReason::Other("gate"))
            }
        }

        fn parks(&self, _pe: PeId, _reason: BlockReason) -> bool {
            self.park
        }

        fn still_blocked(&self, _pe: PeId, _reason: BlockReason) -> bool {
            !self.open
        }

        fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
            if self.open && !self.woke {
                self.woke = true;
                ctx.wake_all();
            }
        }
    }

    #[test]
    fn parked_pe_is_not_dispatched_but_still_counts_its_trap() {
        let run = |park: bool| {
            let (prog, entry) = trap_42_program();
            let mut p = Platform::new(PlatformConfig::default());
            p.load(prog);
            p.invoke(PeId(0), entry, &[]);
            let mut h = Gate {
                park,
                open: false,
                woke: false,
                calls: 0,
            };
            let reports: Vec<CycleReport> = (0..60)
                .map(|cycle| {
                    h.open = cycle >= 30;
                    p.step_cycle(&mut h)
                })
                .collect();
            assert_eq!(p.mem.peek(L2_BASE).unwrap(), 10);
            (reports, h.calls, p.work())
        };
        let (parked, parked_calls, work) = run(true);
        let (polled, polled_calls, _) = run(false);
        assert_eq!(parked, polled, "parking must not change any cycle's report");
        assert_eq!(parked_calls, 2, "one dispatch blocks, the next completes");
        assert_eq!(
            work,
            MachineWork {
                wakeups: 1,
                probes: 1,
                dispatches: 2
            }
        );
        let traps: u32 = polled.iter().map(|r| r.traps).sum();
        assert_eq!(polled_calls, traps, "polling dispatches every counted trap");
        assert!(traps > 20, "the PE must have waited: {traps} traps");
    }

    /// Trap 9 copies 40 words with engine 0 and returns once the copy is
    /// done; parks the waiting PE only when `park` is set.
    struct DmaWaiter {
        park: bool,
        transfer: Option<u32>,
    }

    impl TrapHandler for DmaWaiter {
        fn trap(
            &mut self,
            ctx: &mut TrapCtx<'_>,
            _pe: PeId,
            _current: &mut PeState,
            id: u16,
            _args: &[Word],
        ) -> TrapResult {
            assert_eq!(id, 9);
            let req = crate::DmaRequest {
                src: crate::memory::L3_BASE,
                dst: L2_BASE,
                len: 40,
            };
            let t = *self.transfer.get_or_insert_with(|| ctx.dma[0].submit(req));
            if ctx.dma[0].status(t) == crate::DmaStatus::Done {
                ctx.dma[0].retire(t);
                TrapResult::Done
            } else {
                TrapResult::Block(BlockReason::DmaWait { channel: 0 })
            }
        }

        fn parks(&self, _pe: PeId, reason: BlockReason) -> bool {
            self.park && matches!(reason, BlockReason::DmaWait { .. })
        }
    }

    #[test]
    fn a_dma_retire_wakes_the_pe_parked_on_it() {
        let run = |park: bool| {
            let mut b = ProgramBuilder::new();
            let entry = b.begin_func(0);
            b.emit(Insn::Enter(0));
            b.emit(Insn::Trap {
                id: 9,
                argc: 0,
                retc: 0,
            });
            b.emit(Insn::Halt);
            let mut p = Platform::new(PlatformConfig::default());
            p.load(b.finish());
            p.invoke(PeId(0), entry, &[]);
            let mut h = DmaWaiter {
                park,
                transfer: None,
            };
            let reports: Vec<CycleReport> = (0..30).map(|_| p.step_cycle(&mut h)).collect();
            assert!(matches!(p.pes[0].status, PeStatus::Halted), "park {park}");
            (reports, p.work())
        };
        let (parked, work) = run(true);
        let (polled, _) = run(false);
        assert_eq!(parked, polled);
        assert_eq!((work.wakeups, work.dispatches), (1, 2), "{work:?}");
    }

    /// PE0 raises a signal (trap 7) that PE1 waits for in trap 8.
    #[derive(Default)]
    struct Signal {
        raised_at: Option<u64>,
        served_at: Option<u64>,
    }

    impl TrapHandler for Signal {
        fn trap(
            &mut self,
            ctx: &mut TrapCtx<'_>,
            _pe: PeId,
            _current: &mut PeState,
            id: u16,
            _args: &[Word],
        ) -> TrapResult {
            match id {
                7 => {
                    self.raised_at = Some(ctx.clock);
                    ctx.wake_blocked_on(BlockReason::Other("signal"));
                    TrapResult::Done
                }
                8 if self.raised_at.is_some() => {
                    self.served_at = Some(ctx.clock);
                    TrapResult::Done
                }
                8 => TrapResult::Block(BlockReason::Other("signal")),
                _ => TrapResult::Fault("unexpected trap"),
            }
        }

        fn parks(&self, _pe: PeId, _reason: BlockReason) -> bool {
            true
        }

        fn still_blocked(&self, _pe: PeId, _reason: BlockReason) -> bool {
            self.raised_at.is_none()
        }
    }

    #[test]
    fn pe_unblocked_earlier_in_the_cycle_completes_in_that_cycle() {
        let mut b = ProgramBuilder::new();
        let raise = b.begin_func(0);
        b.emit(Insn::Enter(0));
        for _ in 0..5 {
            b.emit(Insn::Const(0));
        }
        b.emit(Insn::Trap {
            id: 7,
            argc: 0,
            retc: 0,
        });
        b.emit(Insn::Halt);
        let wait = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Trap {
            id: 8,
            argc: 0,
            retc: 0,
        });
        b.emit(Insn::Halt);
        let mut p = Platform::new(PlatformConfig::default());
        p.load(b.finish());
        // PE0 steps before PE1 within a cycle.
        p.invoke(PeId(0), raise, &[]);
        p.invoke(PeId(1), wait, &[]);
        let mut h = Signal::default();
        p.run(&mut h, 20);
        assert!(
            h.raised_at.is_some_and(|c| c > 2),
            "PE1 must park before PE0 raises: {:?}",
            h.raised_at
        );
        assert_eq!(h.served_at, h.raised_at);
        assert!(matches!(p.pes[1].status, PeStatus::Halted));
    }

    /// Without traps, a cycle must report and leave behind exactly what
    /// calling `PeState::step` on every PE in index order does: the
    /// settled statuses (stalled, faulted, halted, idle) included.
    #[test]
    fn settling_in_place_matches_stepping_every_pe() {
        let mut b = ProgramBuilder::new();
        // Loads from L3 (a 31-cycle stall each) into L2, forever.
        let copy = b.begin_func(0);
        b.emit(Insn::Enter(0));
        let top = b.here();
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Const(crate::memory::L3_BASE));
        b.emit(Insn::LoadMem);
        b.emit(Insn::StoreMem);
        b.emit(Insn::Jump(top));
        let div0 = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(1));
        b.emit(Insn::Const(0));
        b.emit(Insn::Div);
        let halt = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Halt);
        let ret = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let mut p = Platform::new(PlatformConfig::default());
        p.load(b.finish());
        for (pe, entry) in [copy, div0, halt, ret].into_iter().enumerate() {
            p.invoke(PeId(pe as u16), entry, &[]);
        }
        let mut reference = p.clone();
        let state = |p: &Platform| {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            p.hash_state(&mut h);
            h.finish()
        };
        let mut stalled = 0;
        for _ in 0..200 {
            let got = p.step_cycle(&mut NullHandler);
            stalled += u32::from(p.pes[0].stall > 0);
            let mut want = CycleReport::default();
            for pe in &mut reference.pes {
                match pe.step(&reference.program, &mut reference.mem) {
                    StepEvent::Executed | StepEvent::Called { .. } | StepEvent::Returned { .. } => {
                        want.executed += 1
                    }
                    StepEvent::TaskComplete => want.completions += 1,
                    StepEvent::Fault(_) => want.faults += 1,
                    StepEvent::TrapPending { .. } => unreachable!("no traps here"),
                    StepEvent::Stalled | StepEvent::Idle | StepEvent::Halted => {}
                }
            }
            reference.clock += 1;
            assert_eq!(got, want, "cycle {}", reference.clock);
            assert_eq!(state(&p), state(&reference), "cycle {}", reference.clock);
        }
        assert!(
            stalled > 100 && p.pes[0].retired > 5,
            "{stalled} stalled cycles"
        );
        assert!(matches!(p.pes[1].status, PeStatus::Faulted(_)));
        assert!(matches!(p.pes[2].status, PeStatus::Halted));
        assert!(matches!(p.pes[3].status, PeStatus::Idle));
    }

    #[test]
    fn quiescence_and_deadlock_detection() {
        let mut p = Platform::new(PlatformConfig::default());
        assert!(p.is_quiescent());
        assert!(!p.is_deadlocked());
        p.pes[0].status = PeStatus::Blocked(BlockReason::TokenWait { link: 1 });
        p.resync();
        assert!(!p.is_quiescent());
        assert!(p.is_deadlocked());
        p.pes[1].status = PeStatus::Running;
        p.resync();
        assert!(!p.is_deadlocked());
    }

    #[test]
    fn task_completion_reaches_handler() {
        struct H {
            done: u32,
        }
        impl TrapHandler for H {
            fn trap(
                &mut self,
                _c: &mut TrapCtx<'_>,
                _p: PeId,
                _cur: &mut PeState,
                _id: u16,
                _a: &[Word],
            ) -> TrapResult {
                TrapResult::Fault("unexpected")
            }
            fn on_task_complete(&mut self, _c: &mut TrapCtx<'_>, pe: PeId, _cur: &mut PeState) {
                assert_eq!(pe, PeId(2));
                self.done += 1;
            }
        }
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let mut p = Platform::new(PlatformConfig::default());
        p.load(prog);
        p.invoke(PeId(2), entry, &[]);
        let mut h = H { done: 0 };
        p.run(&mut h, 5);
        assert_eq!(h.done, 1);
        assert!(p.is_quiescent());
    }
}
