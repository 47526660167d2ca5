//! The per-PE execution engine.
//!
//! Each processing element interprets the shared [`Program`] image with its
//! own program counter, call frames, value stack and status. The
//! interpreter is deliberately transparent: every piece of state a
//! source-level debugger wants (pc, frames, locals, operand stack, block
//! reason) is a public field or a slice accessor, because in this
//! reproduction the debugger *is* the host process.
//!
//! A PE keeps every frame's locals and operands in one value stack, as
//! bytecode interpreters usually do. A [`Frame`] is plain data: its
//! locals are `stack[locals_base..stack_base]` and its operands run from
//! `stack_base` up to the next frame's locals. A `Call` leaves its
//! arguments in place as the callee's locals, `Enter` extends them, and
//! `Ret` copies the results down to the callee's `locals_base`, so
//! stepping allocates nothing once the stack has grown to its depth.
//!
//! Traps are two-phase: [`PeState::step`] reports a pending trap without
//! consuming its operands, the platform consults the runtime handler, and
//! either [`PeState::complete_trap`] commits the instruction or
//! [`PeState::block`] parks the PE. A blocked PE keeps its trap pending; the
//! platform re-presents it once the handler no longer vouches that the wait
//! still holds ([`crate::TrapHandler::still_blocked`]) — this is how
//! token-starved filters wait "for more data", the state §III requires the
//! debugger to be able to display per actor.
//!
//! The platform calls [`PeState::step`] only for a running PE with no
//! stall left to pay; it settles every other status itself. `step` still
//! answers every status, so a PE driven on its own (as the tests here do)
//! behaves the same.

use debuginfo::{CodeAddr, Word};

use crate::isa::{Insn, Program};
use crate::memory::{MemError, Memory};

/// Maximum call-frame depth per PE. A `Call` that would exceed this faults
/// with [`VmFault::CallDepthExceeded`]; the static verifier (`bcv`) bounds
/// worst-case depth against the same constant (BCV205).
pub const MAX_CALL_DEPTH: usize = 64;

/// Nominal per-frame operand-stack budget. The interpreter itself grows
/// the value stack on demand; the static verifier flags functions whose
/// worst-case operand depth exceeds this bound (BCV202).
pub const MAX_OPERAND_STACK: usize = 256;

/// Why a PE is blocked inside the runtime. Worded from the dataflow
/// perspective because the debugger surfaces these verbatim
/// (`state: blocked, waiting for input tokens on <link>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for input tokens on a data link.
    TokenWait { link: u32 },
    /// Waiting for free space on a data link (link full).
    SpaceWait { link: u32 },
    /// Controller waiting for scheduled filters to start (WAIT_FOR_ACTOR_INIT).
    InitWait,
    /// Controller waiting for scheduled filters to finish (WAIT_FOR_ACTOR_SYNC).
    SyncWait,
    /// Waiting for a DMA transfer to complete.
    DmaWait { channel: u32 },
    /// Runtime-defined condition.
    Other(&'static str),
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockReason::TokenWait { link } => {
                write!(f, "waiting for input tokens (link #{link})")
            }
            BlockReason::SpaceWait { link } => {
                write!(f, "waiting for link space (link #{link})")
            }
            BlockReason::InitWait => write!(f, "WAIT_FOR_ACTOR_INIT"),
            BlockReason::SyncWait => write!(f, "WAIT_FOR_ACTOR_SYNC"),
            BlockReason::DmaWait { channel } => {
                write!(f, "waiting for DMA channel {channel}")
            }
            BlockReason::Other(s) => f.write_str(s),
        }
    }
}

/// Fatal execution error; the PE stops and the debugger reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmFault {
    DivideByZero,
    StackUnderflow,
    BadPc {
        pc: CodeAddr,
    },
    LocalOutOfRange {
        slot: u32,
    },
    Mem(MemError),
    /// `Enter` executed anywhere but as a function's first instruction, or
    /// a call into an address with no `Enter`.
    MalformedFunction {
        pc: CodeAddr,
    },
    /// A `Call` would push past [`MAX_CALL_DEPTH`] frames.
    CallDepthExceeded,
    /// The runtime system rejected a trap (protocol violation).
    Runtime(&'static str),
}

impl std::fmt::Display for VmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmFault::DivideByZero => write!(f, "integer divide by zero"),
            VmFault::StackUnderflow => write!(f, "operand stack underflow"),
            VmFault::BadPc { pc } => write!(f, "pc 0x{pc:04x} out of image"),
            VmFault::LocalOutOfRange { slot } => {
                write!(f, "local slot {slot} out of range")
            }
            VmFault::Mem(e) => write!(f, "memory fault: {e}"),
            VmFault::MalformedFunction { pc } => {
                write!(f, "malformed function at 0x{pc:04x}")
            }
            VmFault::CallDepthExceeded => {
                write!(f, "call depth exceeds {MAX_CALL_DEPTH} frames")
            }
            VmFault::Runtime(msg) => write!(f, "runtime fault: {msg}"),
        }
    }
}

/// Feed `v`'s `Debug` form to `h`, streamed piece by piece instead of
/// formatted into a `String` first. A hasher whose `write` simply absorbs
/// bytes in order (as the replay engine's FNV does) gets exactly the
/// value that `h.write(format!("{v:?}").as_bytes())` would give.
pub fn hash_debug(h: &mut dyn std::hash::Hasher, v: &dyn std::fmt::Debug) {
    struct Sink<'a>(&'a mut dyn std::hash::Hasher);
    impl std::fmt::Write for Sink<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    // `Sink` never fails, and a `Debug` impl fails only when its sink does.
    let _ = std::fmt::write(&mut Sink(h), format_args!("{v:?}"));
}

/// One call frame: where its words sit in the PE's value stack. Read
/// them through [`PeState::frame_locals`] and [`PeState::operands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Entry address of the function this frame executes (for backtraces).
    pub func: CodeAddr,
    /// Where `Ret` resumes in the caller.
    pub ret_addr: CodeAddr,
    /// Value-stack index of local 0.
    locals_base: usize,
    /// Value-stack index of the first operand: the end of the locals.
    stack_base: usize,
}

impl Frame {
    /// The value-stack index of local `slot`, if the frame has it.
    fn local(&self, slot: u32) -> Option<usize> {
        let at = self.locals_base + slot as usize;
        (at < self.stack_base).then_some(at)
    }
}

/// Scheduling status of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeStatus {
    /// No task assigned (a filter between steps).
    #[default]
    Idle,
    Running,
    Blocked(BlockReason),
    Halted,
    Faulted(VmFault),
}

/// What happened during one [`PeState::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction retired.
    Executed,
    /// The PE is paying a memory-latency stall this cycle.
    Stalled,
    /// Nothing to run.
    Idle,
    /// A call frame was pushed (function entry).
    Called {
        from: CodeAddr,
        to: CodeAddr,
    },
    /// A frame was popped; execution resumed at `to` in the caller.
    Returned {
        to: CodeAddr,
    },
    /// The outermost frame returned; the PE is Idle again and the runtime
    /// should be told the task finished.
    TaskComplete,
    /// A `Trap` instruction is pending; operands are still on the stack.
    TrapPending {
        id: u16,
        argc: u8,
        retc: u8,
    },
    Halted,
    Fault(VmFault),
}

/// Execution state of one processing element.
#[derive(Debug, Clone, Default)]
pub struct PeState {
    pub pc: CodeAddr,
    frames: Vec<Frame>,
    /// Every frame's locals and operands, the outermost frame's first.
    stack: Vec<Word>,
    pub status: PeStatus,
    /// Remaining memory-stall cycles.
    pub stall: u32,
    /// Instructions retired (simulator-throughput benchmark).
    pub retired: u64,
    /// Top-level task invocations (runtime work scheduling). The debugger
    /// uses the delta of this counter as its work-entry "breakpoint": a
    /// free-running filter is re-invoked within a single cycle and never
    /// observably idles, so a level-triggered check would miss entries.
    pub invocations: u64,
}

impl PeState {
    /// Start executing `addr` with `args`. The PE must be idle.
    ///
    /// # Panics
    /// Panics when invoked on a non-idle PE: the runtime scheduling layer
    /// must never double-book a processing element.
    pub fn invoke(&mut self, addr: CodeAddr, args: &[Word]) {
        assert!(
            matches!(self.status, PeStatus::Idle),
            "invoke on non-idle PE (status {:?})",
            self.status
        );
        let base = self.stack.len();
        self.stack.extend_from_slice(args);
        self.frames.push(Frame {
            func: addr,
            // Top-level frames have nowhere to return; `Ret` from depth 1
            // yields TaskComplete instead of using this.
            ret_addr: 0,
            locals_base: base,
            stack_base: self.stack.len(),
        });
        self.pc = addr;
        self.status = PeStatus::Running;
        self.invocations += 1;
    }

    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    /// The call frames, outermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The locals of frame `i` (0 is the outermost).
    ///
    /// # Panics
    /// Panics if there is no frame `i`.
    pub fn frame_locals(&self, i: usize) -> &[Word] {
        let f = self.frames[i];
        &self.stack[f.locals_base..f.stack_base]
    }

    /// The locals of frame `i`, writable.
    ///
    /// # Panics
    /// Panics if there is no frame `i`.
    pub fn frame_locals_mut(&mut self, i: usize) -> &mut [Word] {
        let f = self.frames[i];
        &mut self.stack[f.locals_base..f.stack_base]
    }

    /// The operand stack of frame `i`, bottom first: up to the next
    /// frame's locals, or to the top of the value stack for the
    /// innermost frame.
    ///
    /// # Panics
    /// Panics if there is no frame `i`.
    pub fn operands(&self, i: usize) -> &[Word] {
        let end = self
            .frames
            .get(i + 1)
            .map_or(self.stack.len(), |next| next.locals_base);
        &self.stack[self.frames[i].stack_base..end]
    }

    /// Feed every observable piece of PE state to a hasher. Used by the
    /// replay engine's divergence check: two executions with equal hashes
    /// at every checkpoint boundary are byte-identical machines.
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u32(self.pc);
        // Status carries enums with payloads; its Debug form is a stable,
        // collision-safe encoding without hand-maintaining a discriminant.
        hash_debug(h, &self.status);
        h.write_u32(self.stall);
        h.write_u64(self.retired);
        h.write_u64(self.invocations);
        h.write_usize(self.frames.len());
        for (i, f) in self.frames.iter().enumerate() {
            h.write_u32(f.func);
            h.write_u32(f.ret_addr);
            let locals = self.frame_locals(i);
            h.write_usize(locals.len());
            for w in locals {
                h.write_u32(*w);
            }
            let operands = self.operands(i);
            h.write_usize(operands.len());
            for w in operands {
                h.write_u32(*w);
            }
        }
    }

    pub fn top_frame(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Arguments visible to a pending trap: the top `argc` operands.
    pub fn trap_args(&self, argc: u8) -> &[Word] {
        &self.stack[self.stack.len() - argc as usize..]
    }

    /// Commit a pending trap: pop its operands, push `results`, advance.
    pub fn complete_trap(&mut self, argc: u8, results: &[Word]) {
        self.stack.truncate(self.stack.len() - argc as usize);
        self.stack.extend_from_slice(results);
        self.pc += 1;
        self.status = PeStatus::Running;
    }

    /// Park the PE on a blocking condition; the trap stays pending.
    pub fn block(&mut self, reason: BlockReason) {
        self.status = PeStatus::Blocked(reason);
    }

    /// The pending trap of a blocked PE, if any.
    pub fn pending_trap(&self, prog: &Program) -> Option<(u16, u8, u8)> {
        match prog.fetch(self.pc) {
            Some(Insn::Trap { id, argc, retc }) => Some((id, argc, retc)),
            _ => None,
        }
    }

    fn fault(&mut self, f: VmFault) -> StepEvent {
        self.status = PeStatus::Faulted(f);
        StepEvent::Fault(f)
    }

    /// Pop an operand of the frame whose operands start at `base`.
    fn pop(stack: &mut Vec<Word>, base: usize) -> Option<Word> {
        if stack.len() > base {
            stack.pop()
        } else {
            None
        }
    }

    /// Execute at most one instruction.
    pub fn step(&mut self, prog: &Program, mem: &mut Memory) -> StepEvent {
        match self.status {
            PeStatus::Running => {}
            PeStatus::Idle => return StepEvent::Idle,
            PeStatus::Blocked(_) => {
                // The platform re-presents the pending trap when the
                // handler lets it (`TrapHandler::still_blocked`); step()
                // itself has nothing to do for a blocked PE.
                return StepEvent::Stalled;
            }
            PeStatus::Halted => return StepEvent::Halted,
            PeStatus::Faulted(f) => return StepEvent::Fault(f),
        }
        if self.stall > 0 {
            self.stall -= 1;
            return StepEvent::Stalled;
        }
        let insn = match prog.fetch(self.pc) {
            Some(i) => i,
            None => return self.fault(VmFault::BadPc { pc: self.pc }),
        };

        // The innermost frame's bounds; no frame faults like an empty
        // operand stack.
        macro_rules! top {
            () => {
                match self.frames.last_mut() {
                    Some(f) => f,
                    None => return self.fault(VmFault::StackUnderflow),
                }
            };
        }
        macro_rules! pop {
            ($base:expr) => {
                match Self::pop(&mut self.stack, $base) {
                    Some(v) => v,
                    None => return self.fault(VmFault::StackUnderflow),
                }
            };
        }
        macro_rules! binop {
            (|$a:ident, $b:ident| $e:expr) => {{
                let base = top!().stack_base;
                let $b = pop!(base);
                let $a = pop!(base);
                let r: Word = $e;
                self.stack.push(r);
            }};
        }
        macro_rules! unop {
            (|$a:ident| $e:expr) => {{
                let base = top!().stack_base;
                let $a = pop!(base);
                let r: Word = $e;
                self.stack.push(r);
            }};
        }

        self.retired += 1;
        match insn {
            Insn::Enter(n) => {
                let f = top!();
                let (have, n) = (f.stack_base - f.locals_base, n as usize);
                if have > n {
                    return self.fault(VmFault::MalformedFunction { pc: self.pc });
                }
                // New locals are zeros slid in under any operands.
                let grow = n - have;
                if grow > 0 {
                    self.stack.resize(self.stack.len() + grow, 0);
                    self.stack[f.stack_base..].rotate_right(grow);
                    f.stack_base += grow;
                }
            }
            Insn::Const(w) => {
                top!();
                self.stack.push(w);
            }
            Insn::LoadLocal(n) => match top!().local(n.into()) {
                Some(at) => self.stack.push(self.stack[at]),
                None => return self.fault(VmFault::LocalOutOfRange { slot: n.into() }),
            },
            Insn::StoreLocal(n) => {
                let f = *top!();
                let v = pop!(f.stack_base);
                match f.local(n.into()) {
                    Some(at) => self.stack[at] = v,
                    None => return self.fault(VmFault::LocalOutOfRange { slot: n.into() }),
                }
            }
            Insn::LoadLocalIdx(base) => {
                let f = *top!();
                let off = pop!(f.stack_base);
                let slot = base as u32 + off;
                match f.local(slot) {
                    Some(at) => self.stack.push(self.stack[at]),
                    None => return self.fault(VmFault::LocalOutOfRange { slot }),
                }
            }
            Insn::StoreLocalIdx(base) => {
                let f = *top!();
                let v = pop!(f.stack_base);
                let off = pop!(f.stack_base);
                let slot = base as u32 + off;
                match f.local(slot) {
                    Some(at) => self.stack[at] = v,
                    None => return self.fault(VmFault::LocalOutOfRange { slot }),
                }
            }
            Insn::Dup => {
                let base = top!().stack_base;
                match self.stack.last().copied() {
                    Some(v) if self.stack.len() > base => self.stack.push(v),
                    _ => return self.fault(VmFault::StackUnderflow),
                }
            }
            Insn::Drop => {
                let base = top!().stack_base;
                pop!(base);
            }
            Insn::Swap => {
                let base = top!().stack_base;
                let n = self.stack.len();
                if n - base < 2 {
                    return self.fault(VmFault::StackUnderflow);
                }
                self.stack.swap(n - 1, n - 2);
            }

            Insn::Add => binop!(|a, b| a.wrapping_add(b)),
            Insn::Sub => binop!(|a, b| a.wrapping_sub(b)),
            Insn::Mul => binop!(|a, b| a.wrapping_mul(b)),
            Insn::Div | Insn::Rem => {
                let base = top!().stack_base;
                let b = pop!(base);
                let a = pop!(base);
                if b == 0 {
                    return self.fault(VmFault::DivideByZero);
                }
                let (a, b) = (a as i32, b as i32);
                let r = if insn == Insn::Div {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                self.stack.push(r as Word);
            }
            Insn::BitAnd => binop!(|a, b| a & b),
            Insn::BitOr => binop!(|a, b| a | b),
            Insn::BitXor => binop!(|a, b| a ^ b),
            Insn::Shl => binop!(|a, b| a.wrapping_shl(b)),
            Insn::Shr => binop!(|a, b| a.wrapping_shr(b)),
            Insn::Sar => binop!(|a, b| ((a as i32).wrapping_shr(b)) as Word),
            Insn::Neg => unop!(|a| (a as i32).wrapping_neg() as Word),
            Insn::Not => unop!(|a| (a == 0) as Word),
            Insn::BitNot => unop!(|a| !a),

            Insn::Eq => binop!(|a, b| (a == b) as Word),
            Insn::Ne => binop!(|a, b| (a != b) as Word),
            Insn::LtS => binop!(|a, b| ((a as i32) < (b as i32)) as Word),
            Insn::LeS => binop!(|a, b| ((a as i32) <= (b as i32)) as Word),
            Insn::GtS => binop!(|a, b| ((a as i32) > (b as i32)) as Word),
            Insn::GeS => binop!(|a, b| ((a as i32) >= (b as i32)) as Word),
            Insn::LtU => binop!(|a, b| (a < b) as Word),
            Insn::GeU => binop!(|a, b| (a >= b) as Word),

            Insn::Jump(t) => {
                self.pc = t;
                return StepEvent::Executed;
            }
            Insn::JumpIfZero(t) | Insn::JumpIfNot(t) => {
                let base = top!().stack_base;
                let v = pop!(base);
                if (v == 0) == matches!(insn, Insn::JumpIfZero(_)) {
                    self.pc = t;
                    return StepEvent::Executed;
                }
            }
            Insn::Call { addr, argc } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    return self.fault(VmFault::CallDepthExceeded);
                }
                let from = self.pc;
                let base = top!().stack_base;
                let n = self.stack.len();
                if n - base < argc as usize {
                    return self.fault(VmFault::StackUnderflow);
                }
                // The arguments stay where they are, as the callee's
                // locals.
                self.frames.push(Frame {
                    func: addr,
                    ret_addr: from + 1,
                    locals_base: n - argc as usize,
                    stack_base: n,
                });
                self.pc = addr;
                return StepEvent::Called { from, to: addr };
            }
            Insn::Ret { retc } => {
                let Some(popped) = self.frames.pop() else {
                    return self.fault(VmFault::StackUnderflow);
                };
                let (n, retc) = (self.stack.len(), retc as usize);
                if n - popped.stack_base < retc {
                    // The frame is gone, its words with it.
                    self.stack.truncate(popped.locals_base);
                    return self.fault(VmFault::StackUnderflow);
                }
                if self.frames.is_empty() {
                    self.stack.truncate(popped.locals_base);
                    self.status = PeStatus::Idle;
                    return StepEvent::TaskComplete;
                }
                // The results land where the callee's locals began, on
                // top of the caller's operands.
                self.stack.copy_within(n - retc.., popped.locals_base);
                self.stack.truncate(popped.locals_base + retc);
                self.pc = popped.ret_addr;
                return StepEvent::Returned { to: self.pc };
            }

            Insn::LoadMem => {
                let base = top!().stack_base;
                let addr = pop!(base);
                match mem.read(addr) {
                    Ok((v, lat)) => {
                        self.stack.push(v);
                        self.stall += lat.saturating_sub(1);
                    }
                    Err(e) => return self.fault(VmFault::Mem(e)),
                }
            }
            Insn::StoreMem => {
                let base = top!().stack_base;
                let v = pop!(base);
                let addr = pop!(base);
                match mem.write(addr, v) {
                    Ok(lat) => self.stall += lat.saturating_sub(1),
                    Err(e) => return self.fault(VmFault::Mem(e)),
                }
            }

            Insn::Trap { id, argc, retc } => {
                // Undo the retire count: the instruction has not committed.
                self.retired -= 1;
                let base = top!().stack_base;
                if self.stack.len() - base < argc as usize {
                    return self.fault(VmFault::StackUnderflow);
                }
                return StepEvent::TrapPending { id, argc, retc };
            }
            Insn::Halt => {
                self.status = PeStatus::Halted;
                return StepEvent::Halted;
            }
            Insn::Nop => {}
        }
        self.pc += 1;
        StepEvent::Executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;
    use crate::memory::{Memory, MemoryMap, L2_BASE};

    fn run_to_completion(prog: &Program, entry: CodeAddr, args: &[Word]) -> (PeState, Memory) {
        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, args);
        for _ in 0..10_000 {
            match pe.step(prog, &mut mem) {
                StepEvent::TaskComplete | StepEvent::Halted | StepEvent::Fault(_) => break,
                _ => {}
            }
        }
        (pe, mem)
    }

    #[test]
    fn arithmetic_and_return_value() {
        // f(a, b) = (a + b) * 2
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(2);
        b.emit(Insn::Enter(2));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadLocal(1));
        b.emit(Insn::Add);
        b.emit(Insn::Const(2));
        b.emit(Insn::Mul);
        b.emit(Insn::Ret { retc: 1 });
        let prog = b.finish();

        // Wrap in a caller that stores to memory so we can observe it.
        let mut b2 = ProgramBuilder::new();
        let mut insns = prog.insns.clone();
        let main = insns.len() as CodeAddr;
        for i in insns.drain(..) {
            b2.emit(i);
        }
        b2.begin_func(0);
        b2.emit(Insn::Enter(0));
        b2.emit(Insn::Const(L2_BASE));
        b2.emit(Insn::Const(3));
        b2.emit(Insn::Const(4));
        b2.emit(Insn::Call {
            addr: entry,
            argc: 2,
        });
        b2.emit(Insn::StoreMem);
        b2.emit(Insn::Ret { retc: 0 });
        let prog = b2.finish();

        let (pe, mem) = run_to_completion(&prog, main, &[]);
        assert_eq!(pe.status, PeStatus::Idle);
        assert_eq!(mem.peek(L2_BASE).unwrap(), 14);
    }

    #[test]
    fn signed_comparison_and_branching() {
        // g(x) = x < 0 ? 1 : 2  (signed)
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let neg = b.new_label();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(0));
        b.emit(Insn::LtS);
        b.jump_if_not(neg);
        b.emit(Insn::Const(2));
        b.emit(Insn::Ret { retc: 1 });
        b.bind(neg);
        b.emit(Insn::Const(1));
        b.emit(Insn::Ret { retc: 1 });
        let prog = b.finish();

        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, &[(-5i32) as Word]);
        loop {
            if let StepEvent::TaskComplete = pe.step(&prog, &mut mem) {
                break;
            }
        }
        // Result would have been pushed to the caller; at top level the
        // value is discarded with the frame, so re-run checking locals via
        // a store helper instead: simpler to verify with unsigned compare.
        pe = PeState::default();
        pe.invoke(entry, &[5]);
        loop {
            match pe.step(&prog, &mut mem) {
                StepEvent::TaskComplete => break,
                StepEvent::Fault(f) => panic!("fault: {f}"),
                _ => {}
            }
        }
    }

    #[test]
    fn fault_paths_are_reported() {
        // Stack underflow.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Add);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Faulted(VmFault::StackUnderflow));

        // Bad pc (fall off the image).
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Nop);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert!(matches!(
            pe.status,
            PeStatus::Faulted(VmFault::BadPc { .. })
        ));

        // Local slot out of range.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(1));
        b.emit(Insn::LoadLocal(7));
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert!(matches!(
            pe.status,
            PeStatus::Faulted(VmFault::LocalOutOfRange { slot: 7 })
        ));

        // Unmapped memory access.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(0xdead_beef));
        b.emit(Insn::LoadMem);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert!(matches!(pe.status, PeStatus::Faulted(VmFault::Mem(_))));

        // Every fault renders a human-readable message.
        for f in [
            VmFault::DivideByZero,
            VmFault::StackUnderflow,
            VmFault::BadPc { pc: 9 },
            VmFault::LocalOutOfRange { slot: 1 },
            VmFault::MalformedFunction { pc: 0 },
            VmFault::CallDepthExceeded,
            VmFault::Runtime("x"),
        ] {
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn unbounded_recursion_faults_at_depth_limit() {
        // f() { f(); } — no base case: the VM must fault instead of
        // growing the frame stack forever.
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Call {
            addr: entry,
            argc: 0,
        });
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Faulted(VmFault::CallDepthExceeded));
        assert_eq!(pe.frame_depth(), MAX_CALL_DEPTH);
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(1));
        b.emit(Insn::Const(0));
        b.emit(Insn::Div);
        b.emit(Insn::Halt);
        let prog = b.finish();
        let (pe, _) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Faulted(VmFault::DivideByZero));
    }

    #[test]
    fn memory_latency_stalls_the_pe() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(crate::memory::L3_BASE));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Drop);
        b.emit(Insn::Halt);
        let prog = b.finish();
        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, &[]);
        let mut stalls = 0;
        for _ in 0..200 {
            match pe.step(&prog, &mut mem) {
                StepEvent::Stalled => stalls += 1,
                StepEvent::Halted => break,
                _ => {}
            }
        }
        // L3 latency (32) minus the access cycle itself.
        assert_eq!(stalls, 31);
    }

    #[test]
    fn trap_is_two_phase_and_retryable() {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(7));
        b.emit(Insn::Trap {
            id: 3,
            argc: 1,
            retc: 1,
        });
        b.emit(Insn::Halt);
        let prog = b.finish();

        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(entry, &[]);
        pe.step(&prog, &mut mem); // Enter
        pe.step(&prog, &mut mem); // Const
        let ev = pe.step(&prog, &mut mem);
        assert_eq!(
            ev,
            StepEvent::TrapPending {
                id: 3,
                argc: 1,
                retc: 1
            }
        );
        assert_eq!(pe.trap_args(1), &[7]);

        // Block: the trap stays pending at the same pc with operands intact.
        pe.block(BlockReason::TokenWait { link: 0 });
        assert_eq!(pe.pending_trap(&prog), Some((3, 1, 1)));
        assert_eq!(pe.trap_args(1), &[7]);

        // Complete: operands replaced by results, pc advances.
        pe.complete_trap(1, &[99]);
        assert_eq!(pe.operands(0), &[99]);
        assert_eq!(pe.status, PeStatus::Running);
        assert_eq!(pe.step(&prog, &mut mem), StepEvent::Halted);
    }

    #[test]
    fn local_index_addressing() {
        // locals[1 + i] access via LoadLocalIdx/StoreLocalIdx
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(0);
        b.emit(Insn::Enter(4));
        // locals[1+2] = 42
        b.emit(Insn::Const(2));
        b.emit(Insn::Const(42));
        b.emit(Insn::StoreLocalIdx(1));
        // push locals[1+2]; store to memory
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Const(2));
        b.emit(Insn::LoadLocalIdx(1));
        b.emit(Insn::StoreMem);
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let (pe, mem) = run_to_completion(&prog, entry, &[]);
        assert_eq!(pe.status, PeStatus::Idle);
        assert_eq!(mem.peek(L2_BASE).unwrap(), 42);
    }

    #[test]
    fn nested_calls_report_events() {
        let mut b = ProgramBuilder::new();
        let leaf = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let main = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Call {
            addr: leaf,
            argc: 0,
        });
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();

        let mut pe = PeState::default();
        let mut mem = Memory::new(MemoryMap::default());
        pe.invoke(main, &[]);
        let mut events = Vec::new();
        loop {
            let e = pe.step(&prog, &mut mem);
            events.push(e);
            if matches!(e, StepEvent::TaskComplete | StepEvent::Fault(_)) {
                break;
            }
        }
        assert!(events.contains(&StepEvent::Called {
            from: main + 1,
            to: leaf
        }));
        assert!(events.contains(&StepEvent::Returned { to: main + 2 }));
        assert_eq!(*events.last().unwrap(), StepEvent::TaskComplete);
        assert_eq!(pe.frame_depth(), 0);
    }
}
