//! Function-level verification of a linked program image.
//!
//! Two passes per [`FuncMeta`], mirroring a classic bytecode verifier:
//!
//! 1. a **stack-depth pass** over the function's CFG proving every
//!    instruction has its operands, the operand stack stays within the VM
//!    limit, control flow never escapes the function's extent, and joins
//!    agree on depth (BCV201–BCV204);
//! 2. an **interval abstract interpretation** (a worklist fixpoint over
//!    the [`crate::absint`] machine) that tracks value ranges through
//!    locals and the operand stack to collect every raw
//!    `LoadMem`/`StoreMem` address range and to prove computed local
//!    indexes stay inside the frame (MEM304).
//!
//! Pass 2 only runs when pass 1 is clean — a function with inconsistent
//! stack depths has no well-defined abstract state to join.
//!
//! Both passes summarize a `Call` by the callee's result count. An
//! [`Image`] works those counts out once per image, one per function, and
//! finds a call target's function by binary search, so a call costs the
//! passes no rescan of the image.
//!
//! Per-point state lives in an [`Arena`] that one verification owns and
//! hands from function to function. Each pass indexes its per-point
//! arrays (depths, frame slots, visit counts) by `pc - f.addr`. Every
//! point's abstract frame sits in one flat `Vec<Iv>`: its slot is an
//! offset plus its locals' and stack's lengths. A join merges into the
//! slot in place; a state whose locals grow is appended again, and the
//! arena is cleared for the next function. Each visit copies its point's
//! slot into one reused working frame and steps it there, so neither the
//! fixpoint nor the sweep allocates per point. Worklist order, joins,
//! widening and the sweep's address order are those of a map keyed by
//! address: [`PassWork`] counts the points each pass takes off its
//! worklist, and `tests/work_counters.rs` pins their sum over the decoder
//! variants.

use std::collections::{BTreeMap, BTreeSet};

use debuginfo::{CodeAddr, Finding, LineTable, Severity, Span};
use dfa::interval::Iv;
use p2012::{isa::FuncMeta, Insn, Program, MAX_OPERAND_STACK};

use crate::absint::{self, Control, Effect, Frame};
use crate::rules;

/// Number of fixpoint visits to a program point before widening kicks in.
const WIDEN_AFTER: u32 = 4;

/// One raw memory access discovered in a function: the instruction and the
/// bounded, inclusive word-address range it may touch. Unbounded addresses
/// are not recorded — they carry no actionable overlap information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub pc: CodeAddr,
    pub lo: u32,
    pub hi: u32,
    pub write: bool,
}

impl Access {
    pub fn overlaps(&self, lo: u32, hi: u32) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// Worklist steps of the two passes: program points taken off the
/// worklist by the depth pass and by the interval fixpoint (the
/// collection sweep is not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassWork {
    pub depth_steps: u64,
    pub interval_steps: u64,
}

impl std::ops::AddAssign for PassWork {
    fn add_assign(&mut self, o: PassWork) {
        self.depth_steps += o.depth_steps;
        self.interval_steps += o.interval_steps;
    }
}

/// Verification result for one function.
#[derive(Debug, Default)]
pub struct FuncReport {
    pub findings: Vec<Finding>,
    pub accesses: Vec<Access>,
    pub work: PassWork,
}

/// Build a source span for `pc`, if the line table covers it (runtime
/// stubs and boot code have symbols but no line rows).
pub fn span_at(lines: &LineTable, pc: CodeAddr) -> Option<Span> {
    lines.lookup(pc).map(|e| Span {
        file: lines.file_name(e.file).to_string(),
        line: e.line,
        col: 0,
        addr: Some(pc),
    })
}

/// Human location for `pc`: `file:line` or a bare hex address.
pub fn describe_pc(lines: &LineTable, pc: CodeAddr) -> String {
    match lines.lookup(pc) {
        Some(e) => format!("{}:{}", lines.file_name(e.file), e.line),
        None => format!("0x{pc:04x}"),
    }
}

/// A linked image with what the passes ask about every call built once:
/// how many values each function's first `Ret` pushes back to its caller.
pub struct Image<'p> {
    prog: &'p Program,
    /// Per entry of `prog.funcs`.
    rets: Vec<u8>,
}

impl<'p> Image<'p> {
    pub fn new(prog: &'p Program) -> Image<'p> {
        let rets = prog
            .funcs
            .iter()
            .map(|f| {
                (f.addr..f.end)
                    .find_map(|pc| match prog.fetch(pc) {
                        Some(Insn::Ret { retc }) => Some(retc),
                        _ => None,
                    })
                    .unwrap_or(0)
            })
            .collect();
        Image { prog, rets }
    }

    /// How many values the first `Ret` of the function containing `addr`
    /// pushes back to its caller (0 when unknown — e.g. a call into the
    /// void).
    fn ret_count(&self, addr: CodeAddr) -> u8 {
        self.prog.func_index(addr).map_or(0, |i| self.rets[i])
    }

    /// Net stack effect of `insn` as `(pops, pushes)`.
    fn effect(&self, insn: Insn) -> (usize, usize) {
        use Insn::*;
        match insn {
            Enter(_) | Nop | Jump(_) | Halt => (0, 0),
            Const(_) | LoadLocal(_) => (0, 1),
            StoreLocal(_) | Drop | JumpIfZero(_) | JumpIfNot(_) => (1, 0),
            LoadLocalIdx(_) | Neg | Not | BitNot | LoadMem => (1, 1),
            StoreLocalIdx(_) | StoreMem => (2, 0),
            Dup => (1, 2),
            Swap => (2, 2),
            Add | Sub | Mul | Div | Rem | BitAnd | BitOr | BitXor | Shl | Shr | Sar | Eq | Ne
            | LtS | LeS | GtS | GeS | LtU | GeU => (2, 1),
            Call { addr, argc } => (argc as usize, self.ret_count(addr) as usize),
            Ret { retc } => (retc as usize, 0),
            Trap { argc, retc, .. } => (argc as usize, retc as usize),
        }
    }

    /// One abstract step of the fixpoint. A call is summarized rather
    /// than entered: its arguments are dropped and its results are
    /// unknown words.
    fn transfer(&self, insn: Insn, st: &mut Frame) -> Effect {
        let effect = absint::exec(insn, st);
        match effect.control {
            Control::Call { addr, argc } => {
                st.drop_top(argc);
                st.stack
                    .extend((0..self.ret_count(addr)).map(|_| Iv::top()));
            }
            Control::Ret { retc } => st.drop_top(retc),
            _ => {}
        }
        effect
    }
}

/// Where one program point's abstract frame sits in [`Arena::values`]:
/// `locals` values from `off`, then `stack` values.
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: usize,
    locals: usize,
    stack: usize,
}

/// The per-point state of both passes, reused from function to function
/// by one verification: it grows to the largest function's needs and no
/// further.
#[derive(Debug, Default)]
pub struct Arena {
    /// Depth pass: the stack depth entering each point.
    depths: Vec<Option<i64>>,
    /// Interval pass: each point's frame slot in `values`.
    slots: Vec<Option<Slot>>,
    /// Interval pass: every point's frame, one after another.
    values: Vec<Iv>,
    /// Interval pass: how often each point was joined into.
    visits: Vec<u32>,
    /// Either pass's worklist.
    work: Vec<CodeAddr>,
    /// The frame a visit steps: a copy of its point's slot.
    frame: Frame,
}

impl Arena {
    /// Copy point `i`'s frame into the working frame.
    fn load(&mut self, i: usize) -> bool {
        let Some(slot) = self.slots[i] else {
            return false;
        };
        let (locals, rest) = self.values[slot.off..].split_at(slot.locals);
        self.frame.locals.clear();
        self.frame.locals.extend_from_slice(locals);
        self.frame.stack.clear();
        self.frame.stack.extend_from_slice(&rest[..slot.stack]);
        true
    }

    /// Join the working frame into point `i`'s slot, or give the point
    /// its first state. With `widen`, any value still moving is pushed
    /// straight to the full interval so the fixpoint terminates. Returns
    /// whether the point's state changed.
    fn join_into(&mut self, i: usize, widen: bool) -> bool {
        let Some(mut slot) = self.slots[i] else {
            let off = self.values.len();
            self.values.extend_from_slice(&self.frame.locals);
            self.values.extend_from_slice(&self.frame.stack);
            self.slots[i] = Some(Slot {
                off,
                locals: self.frame.locals.len(),
                stack: self.frame.stack.len(),
            });
            return true;
        };
        let new = &self.frame;
        let mut changed = false;
        if slot.locals < new.locals.len() {
            // The locals grow: append the slot again, new locals zero.
            let off = self.values.len();
            self.values
                .extend_from_within(slot.off..slot.off + slot.locals);
            self.values.resize(off + new.locals.len(), Iv::exact(0));
            let stack = slot.off + slot.locals;
            self.values.extend_from_within(stack..stack + slot.stack);
            slot.off = off;
            slot.locals = new.locals.len();
            self.slots[i] = Some(slot);
            changed = true;
        }
        let (locals, rest) = self.values[slot.off..].split_at_mut(slot.locals);
        let mut merge = |dst: &mut Iv, src: Iv| {
            let joined = Iv::join(*dst, src);
            if joined != *dst {
                *dst = if widen { Iv::full() } else { joined };
                changed = true;
            }
        };
        for (dst, v) in locals.iter_mut().zip(&new.locals) {
            merge(dst, *v);
        }
        for (dst, v) in rest[..slot.stack].iter_mut().zip(&new.stack) {
            merge(dst, *v);
        }
        changed
    }
}

/// Slots for a per-point state of `f`, indexed by `pc - f.addr`. The entry
/// has one even when the function is empty (the passes then look at the
/// instruction at its address and report the fall-through).
fn point_slots(f: &FuncMeta) -> usize {
    (f.end.saturating_sub(f.addr) as usize).max(1)
}

/// Successor program points of `insn` at `pc`. Empty for terminators.
fn successors(insn: Insn, pc: CodeAddr) -> impl Iterator<Item = CodeAddr> {
    use Insn::*;
    let (first, second) = match insn {
        Jump(t) => (Some(t), None),
        JumpIfZero(t) | JumpIfNot(t) => (Some(pc + 1), Some(t)),
        Ret { .. } | Halt => (None, None),
        _ => (Some(pc + 1), None),
    };
    first.into_iter().chain(second)
}

/// Pass 1: prove stack-depth consistency over the function's CFG.
/// Reports at most one finding per rule per function (a single broken
/// join would otherwise cascade into dozens of identical diagnostics).
/// Returns `true` when the function is clean.
fn check_depths(
    image: &Image,
    arena: &mut Arena,
    f: &FuncMeta,
    subject: &str,
    lines: &LineTable,
    findings: &mut Vec<Finding>,
    steps: &mut u64,
) -> bool {
    let mut emitted: BTreeSet<&'static str> = BTreeSet::new();
    let mut emit = |rule: &'static str, pc: CodeAddr, msg: String, out: &mut Vec<Finding>| {
        if emitted.insert(rule) {
            let mut fi = Finding::new(rule, Severity::Error, subject, msg);
            if let Some(sp) = span_at(lines, pc) {
                fi = fi.with_span(sp);
            }
            out.push(fi);
        }
    };
    let depth_in = &mut arena.depths;
    depth_in.clear();
    depth_in.resize(point_slots(f), None);
    depth_in[0] = Some(0);
    let work = &mut arena.work;
    work.clear();
    work.push(f.addr);
    while let Some(pc) = work.pop() {
        *steps += 1;
        let depth = depth_in[(pc - f.addr) as usize].expect("queued points have a depth");
        let Some(insn) = image.prog.fetch(pc) else {
            emit(
                rules::STACK_ESCAPE,
                pc,
                format!("pc 0x{pc:04x} is outside the program image"),
                findings,
            );
            continue;
        };
        let (pops, pushes) = image.effect(insn);
        if depth < pops as i64 {
            emit(
                rules::STACK_UNDERFLOW,
                pc,
                format!("{insn:?} needs {pops} operand(s) but only {depth} on the stack",),
                findings,
            );
            continue;
        }
        let next = depth - pops as i64 + pushes as i64;
        if next > MAX_OPERAND_STACK as i64 {
            emit(
                rules::STACK_OVERFLOW,
                pc,
                format!(
                    "operand stack grows to {next} slots, above the VM limit of {MAX_OPERAND_STACK}",
                ),
                findings,
            );
        }
        for succ in successors(insn, pc) {
            if succ < f.addr || succ >= f.end {
                let what = if matches!(
                    insn,
                    Insn::Jump(_) | Insn::JumpIfZero(_) | Insn::JumpIfNot(_)
                ) {
                    format!(
                        "jump to 0x{succ:04x} leaves the function [0x{:04x}, 0x{:04x})",
                        f.addr, f.end
                    )
                } else {
                    "execution falls through past the end of the function".to_string()
                };
                emit(rules::STACK_ESCAPE, pc, what, findings);
                continue;
            }
            let slot = &mut depth_in[(succ - f.addr) as usize];
            match *slot {
                None => {
                    *slot = Some(next);
                    work.push(succ);
                }
                Some(seen) if seen != next => {
                    emit(
                        rules::STACK_JOIN,
                        succ,
                        format!("paths join at 0x{succ:04x} with stack depths {seen} and {next}",),
                        findings,
                    );
                }
                Some(_) => {}
            }
        }
    }
    emitted.is_empty()
}

/// Largest access range (in words) worth recording; wider intervals carry
/// no overlap information a human could act on.
const MAX_RANGE_WORDS: i64 = 0x1_0000;

/// Pass 2: interval fixpoint over the function, then a deterministic
/// collection sweep over the fixed states recording memory accesses and
/// definite local-index violations.
fn interpret(
    image: &Image,
    arena: &mut Arena,
    f: &FuncMeta,
    subject: &str,
    lines: &LineTable,
    report: &mut FuncReport,
) {
    let n = point_slots(f);
    arena.values.clear();
    arena.slots.clear();
    arena.slots.resize(n, None);
    arena.visits.clear();
    arena.visits.resize(n, 0);
    arena.values.resize(f.argc as usize, Iv::top());
    arena.slots[0] = Some(Slot {
        off: 0,
        locals: f.argc as usize,
        stack: 0,
    });
    arena.work.clear();
    arena.work.push(f.addr);
    while let Some(pc) = arena.work.pop() {
        report.work.interval_steps += 1;
        let Some(insn) = image.prog.fetch(pc) else {
            continue;
        };
        assert!(
            arena.load((pc - f.addr) as usize),
            "queued points have a state"
        );
        image.transfer(insn, &mut arena.frame);
        for succ in successors(insn, pc).filter(|&succ| succ >= f.addr && succ < f.end) {
            let i = (succ - f.addr) as usize;
            arena.visits[i] += 1;
            let widen = arena.visits[i] > WIDEN_AFTER;
            if arena.join_into(i, widen) {
                arena.work.push(succ);
            }
        }
    }
    // Collection sweep: one deterministic pass over the fixed states, in
    // address order.
    for (i, pc) in (f.addr..).take(n).enumerate() {
        let Some(insn) = image.prog.fetch(pc) else {
            continue;
        };
        if !arena.load(i) {
            continue;
        }
        let st = &mut arena.frame;
        let effect = image.transfer(insn, st);
        if let Some((addr, write)) = effect.access {
            if addr.lo >= 0
                && addr.hi <= i64::from(u32::MAX)
                && addr.hi - addr.lo <= MAX_RANGE_WORDS
            {
                report.accesses.push(Access {
                    pc,
                    lo: addr.lo as u32,
                    hi: addr.hi as u32,
                    write,
                });
            }
        }
        if let Some((base, off)) = effect.idx_oob {
            let mut fi = Finding::new(
                rules::LOCAL_INDEX_OOB,
                Severity::Error,
                subject,
                format!(
                    "computed local index {base}+[{},{}] misses the frame's {} slot(s)",
                    off.lo,
                    off.hi.min(dfa::interval::INF),
                    st.locals.len()
                ),
            );
            if let Some(sp) = span_at(lines, pc) {
                fi = fi.with_span(sp);
            }
            report.findings.push(fi);
        }
    }
}

/// Verify one function: depth pass, then (when clean) the interval pass.
/// `arena` holds the passes' per-point state; one arena serves every
/// function of an image in turn.
pub fn verify_function(
    image: &Image,
    arena: &mut Arena,
    f: &FuncMeta,
    subject: &str,
    lines: &LineTable,
) -> FuncReport {
    let mut report = FuncReport::default();
    if check_depths(
        image,
        arena,
        f,
        subject,
        lines,
        &mut report.findings,
        &mut report.work.depth_steps,
    ) {
        interpret(image, arena, f, subject, lines, &mut report);
    }
    report
}

/// Function entry addresses reachable from `entry` (inclusive), following
/// the syntactic call graph.
pub fn reachable_funcs(
    calls: &BTreeMap<CodeAddr, BTreeSet<CodeAddr>>,
    entry: CodeAddr,
) -> BTreeSet<CodeAddr> {
    let mut seen = BTreeSet::new();
    let mut work = vec![entry];
    while let Some(a) = work.pop() {
        if seen.insert(a) {
            if let Some(cs) = calls.get(&a) {
                work.extend(cs.iter().copied());
            }
        }
    }
    seen
}

/// Worst-case call depth (in frames) starting at `entry`; `None` when a
/// call cycle makes the depth unbounded.
pub fn max_call_depth(
    calls: &BTreeMap<CodeAddr, BTreeSet<CodeAddr>>,
    entry: CodeAddr,
) -> Option<u64> {
    fn go(
        calls: &BTreeMap<CodeAddr, BTreeSet<CodeAddr>>,
        at: CodeAddr,
        on_stack: &mut BTreeSet<CodeAddr>,
        memo: &mut BTreeMap<CodeAddr, Option<u64>>,
    ) -> Option<u64> {
        if let Some(&m) = memo.get(&at) {
            return m;
        }
        if !on_stack.insert(at) {
            return None; // cycle
        }
        let mut deepest = 0u64;
        let mut bounded = true;
        if let Some(cs) = calls.get(&at) {
            for &c in cs {
                match go(calls, c, on_stack, memo) {
                    Some(d) => deepest = deepest.max(d),
                    None => bounded = false,
                }
            }
        }
        on_stack.remove(&at);
        let res = bounded.then_some(1 + deepest);
        memo.insert(at, res);
        res
    }
    go(calls, entry, &mut BTreeSet::new(), &mut BTreeMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A join merges into the point's slot in place; one whose locals
    /// grow appends the slot again, the missing locals joining as the
    /// VM's fresh zeros; widening sends a moving value to the full
    /// interval.
    #[test]
    fn joins_merge_in_place_and_grow_by_appending() {
        let mut a = Arena {
            slots: vec![None],
            frame: Frame {
                locals: vec![Iv::exact(7)],
                stack: vec![Iv::exact(1)],
            },
            ..Arena::default()
        };
        assert!(a.join_into(0, false));
        a.frame.locals = vec![Iv::exact(7), Iv::exact(5), Iv::exact(0)];
        a.frame.stack = vec![Iv::exact(2)];
        assert!(a.join_into(0, false));
        assert_eq!(a.values.len(), 2 + 4);
        assert!(a.load(0));
        assert_eq!(a.frame.locals, [Iv::exact(7), Iv::new(0, 5), Iv::exact(0)]);
        assert_eq!(a.frame.stack, [Iv::new(1, 2)]);

        assert!(!a.join_into(0, false));
        a.frame.stack[0] = Iv::exact(3);
        assert!(a.join_into(0, true));
        assert_eq!(a.values.len(), 2 + 4);
        assert!(a.load(0));
        assert_eq!(a.frame.stack, [Iv::full()]);
    }
}
