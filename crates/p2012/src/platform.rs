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
//! Like a sleeping SystemC thread, a PE that cannot act costs next to
//! nothing: [`Platform::step_cycle`] settles idle, halted, faulted,
//! stalled and parked PEs in their slot, and steps running PEs in place.
//! A PE leaves its slot only while the [`TrapHandler`] serves it (a trap,
//! a finished task, or an unparked blocked PE), so the handler's view of
//! the other PEs never aliases the one it serves.

use debuginfo::{CodeAddr, Word};

use crate::dma::DmaEngine;
use crate::isa::Program;
use crate::memory::{Memory, MemoryMap};
use crate::trap::{TrapCtx, TrapHandler, TrapResult};
use crate::vm::{PeState, PeStatus, StepEvent, VmFault};

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

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Platform {
    pub config: PlatformConfig,
    pub infos: Vec<PeInfo>,
    pub pes: Vec<PeState>,
    pub mem: Memory,
    pub dma: Vec<DmaEngine>,
    pub program: Program,
    pub clock: u64,
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
            infos,
            dma,
            program: Program::default(),
            clock: 0,
            config,
        }
    }

    /// Install the linked program image.
    pub fn load(&mut self, program: Program) {
        self.program = program;
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
        self.pes[pe.index()].invoke(addr, args);
    }

    /// Advance the whole machine by one cycle.
    pub fn step_cycle(&mut self, handler: &mut dyn TrapHandler) -> CycleReport {
        let mut report = CycleReport::default();

        handler.on_cycle(&mut self.trap_ctx());
        // DMA-completion ordering is a scheduler choice point: when two or
        // more engines are in flight, the handler elects which advances
        // first (rotation over the active set). The default answer keeps
        // the historical index order, and engines with nothing in flight
        // never observe the rotation (their step is a no-op).
        let n_active = self.dma.iter().filter(|d| d.in_flight() > 0).count();
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
            let mem = &mut self.mem;
            for d in self.dma.iter_mut().filter(|d| d.in_flight() > 0).skip(r) {
                d.step(mem);
            }
            for d in self.dma.iter_mut().filter(|d| d.in_flight() > 0).take(r) {
                d.step(mem);
            }
        }

        for i in 0..self.pes.len() {
            let id = PeId(i as u16);
            // Settle in place what needs no handler: idle, halted,
            // faulted, stalled and parked PEs, and running PEs whose
            // instruction retires without a trap. Only a trap, a finished
            // task or an unparked blocked PE moves out of its slot, since
            // the handler then sees the other PEs through `TrapCtx::pes`.
            let pe = &mut self.pes[i];
            let (tid, argc, retc) = match pe.status {
                PeStatus::Idle | PeStatus::Halted => continue,
                PeStatus::Faulted(_) => {
                    report.faults += 1;
                    continue;
                }
                PeStatus::Running if pe.stall > 0 => {
                    pe.stall -= 1;
                    continue;
                }
                PeStatus::Running => match pe.step(&self.program, &mut self.mem) {
                    StepEvent::TrapPending { id, argc, retc } => (id, argc, retc),
                    StepEvent::TaskComplete => {
                        report.completions += 1;
                        let mut pe = std::mem::take(&mut self.pes[i]);
                        handler.on_task_complete(&mut self.trap_ctx(), id, &mut pe);
                        self.pes[i] = pe;
                        continue;
                    }
                    StepEvent::Executed | StepEvent::Called { .. } | StepEvent::Returned { .. } => {
                        report.executed += 1;
                        continue;
                    }
                    StepEvent::Fault(_) => {
                        report.faults += 1;
                        continue;
                    }
                    StepEvent::Stalled | StepEvent::Idle | StepEvent::Halted => continue,
                },
                PeStatus::Blocked(reason) => {
                    // Parked: the handler vouches that a retry would block
                    // again untouched, so the dispatch is skipped. It
                    // still counts, which keeps every report identical to
                    // polling.
                    if handler.still_blocked(id, reason) {
                        report.traps += 1;
                        continue;
                    }
                    match pe.pending_trap(&self.program) {
                        Some(trap) => trap,
                        None => {
                            // Blocked without a pending trap cannot happen
                            // for well-formed runtimes; fault loudly
                            // instead of spinning forever.
                            pe.status =
                                PeStatus::Faulted(VmFault::Runtime("blocked without pending trap"));
                            report.faults += 1;
                            continue;
                        }
                    }
                }
            };
            report.traps += 1;
            let mut pe = std::mem::take(&mut self.pes[i]);
            self.dispatch_trap(handler, id, &mut pe, tid, argc, retc);
            self.pes[i] = pe;
        }
        self.clock += 1;
        report
    }

    fn trap_ctx(&mut self) -> TrapCtx<'_> {
        TrapCtx {
            mem: &mut self.mem,
            dma: &mut self.dma,
            pes: &mut self.pes,
            clock: self.clock,
        }
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

    /// True when nothing can make progress any more: every PE idle, halted
    /// or faulted, and no DMA in flight. Blocked PEs mean a deadlock or a
    /// starved source, *not* quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.pes.iter().all(|p| {
            matches!(
                p.status,
                PeStatus::Idle | PeStatus::Halted | PeStatus::Faulted(_)
            )
        }) && self.dma.iter().all(|d| d.in_flight() == 0)
    }

    /// All PEs blocked (or idle/halted) with at least one blocked: the
    /// machine can only be unstuck by external action — a deadlock from the
    /// application's point of view. The debugger's token-injection commands
    /// exist precisely to untie this state (§III).
    pub fn is_deadlocked(&self) -> bool {
        let mut any_blocked = false;
        for p in &self.pes {
            match p.status {
                PeStatus::Running => return false,
                PeStatus::Blocked(_) => any_blocked = true,
                _ => {}
            }
        }
        any_blocked && self.dma.iter().all(|d| d.in_flight() == 0)
    }

    /// Copy-on-write fork of the whole machine: PE/DMA/clock state is
    /// cloned outright (it is small), memory forks page-wise via
    /// [`Memory::fork`] so the two machines share every untouched page.
    pub fn fork(&mut self) -> Platform {
        let mem = self.mem.fork();
        Platform {
            config: self.config.clone(),
            infos: self.infos.clone(),
            pes: self.pes.clone(),
            mem,
            dma: self.dma.clone(),
            program: self.program.clone(),
            clock: self.clock,
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

    /// Blocks trap 42 until `open`; answers the parking hook only when
    /// `park` is set, so one run can be stepped parked or polled.
    struct Gate {
        park: bool,
        open: bool,
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

        fn still_blocked(&self, _pe: PeId, _reason: BlockReason) -> bool {
            self.park && !self.open
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
                calls: 0,
            };
            let reports: Vec<CycleReport> = (0..60)
                .map(|cycle| {
                    h.open = cycle >= 30;
                    p.step_cycle(&mut h)
                })
                .collect();
            assert_eq!(p.mem.peek(L2_BASE).unwrap(), 10);
            (reports, h.calls)
        };
        let (parked, parked_calls) = run(true);
        let (polled, polled_calls) = run(false);
        assert_eq!(parked, polled, "parking must not change any cycle's report");
        assert_eq!(parked_calls, 2, "one dispatch blocks, the next completes");
        let traps: u32 = polled.iter().map(|r| r.traps).sum();
        assert_eq!(polled_calls, traps, "polling dispatches every counted trap");
        assert!(traps > 20, "the PE must have waited: {traps} traps");
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
        assert!(!p.is_quiescent());
        assert!(p.is_deadlocked());
        p.pes[1].status = PeStatus::Running;
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
