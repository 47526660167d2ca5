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

/// Verification result for one function.
#[derive(Debug, Default)]
pub struct FuncReport {
    pub findings: Vec<Finding>,
    pub accesses: Vec<Access>,
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

/// How many values the first `Ret` of the function containing `addr`
/// pushes back to its caller (0 when unknown — e.g. a call into the void).
fn ret_count(prog: &Program, addr: CodeAddr) -> u8 {
    let Some(f) = prog.func_at(addr) else {
        return 0;
    };
    for pc in f.addr..f.end {
        if let Some(Insn::Ret { retc }) = prog.fetch(pc) {
            return retc;
        }
    }
    0
}

/// Net stack effect of `insn` as `(pops, pushes)`.
fn effect(prog: &Program, insn: Insn) -> (usize, usize) {
    use Insn::*;
    match insn {
        Enter(_) | Nop | Jump(_) | Halt => (0, 0),
        Const(_) | LoadLocal(_) => (0, 1),
        StoreLocal(_) | Drop | JumpIfZero(_) | JumpIfNot(_) => (1, 0),
        LoadLocalIdx(_) | Neg | Not | BitNot | LoadMem => (1, 1),
        StoreLocalIdx(_) | StoreMem => (2, 0),
        Dup => (1, 2),
        Swap => (2, 2),
        Add | Sub | Mul | Div | Rem | BitAnd | BitOr | BitXor | Shl | Shr | Sar | Eq | Ne | LtS
        | LeS | GtS | GeS | LtU | GeU => (2, 1),
        Call { addr, argc } => (argc as usize, ret_count(prog, addr) as usize),
        Ret { retc } => (retc as usize, 0),
        Trap { argc, retc, .. } => (argc as usize, retc as usize),
    }
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
    prog: &Program,
    f: &FuncMeta,
    subject: &str,
    lines: &LineTable,
    findings: &mut Vec<Finding>,
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
    let mut depth_in: BTreeMap<CodeAddr, i64> = BTreeMap::new();
    let mut work = vec![f.addr];
    depth_in.insert(f.addr, 0);
    while let Some(pc) = work.pop() {
        let depth = depth_in[&pc];
        let Some(insn) = prog.fetch(pc) else {
            emit(
                rules::STACK_ESCAPE,
                pc,
                format!("pc 0x{pc:04x} is outside the program image"),
                findings,
            );
            continue;
        };
        let (pops, pushes) = effect(prog, insn);
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
            match depth_in.get(&succ) {
                None => {
                    depth_in.insert(succ, next);
                    work.push(succ);
                }
                Some(&seen) if seen != next => {
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

/// Join `new` into `old`. With `widen`, any slot still moving is pushed
/// straight to the full interval so the fixpoint terminates.
fn join_into(old: &mut Frame, new: &Frame, widen: bool) -> bool {
    let mut changed = false;
    if old.locals.len() < new.locals.len() {
        old.locals.resize(new.locals.len(), Iv::exact(0));
        changed = true;
    }
    let mut merge = |dst: &mut Iv, src: Iv| {
        let joined = Iv::join(*dst, src);
        if joined != *dst {
            *dst = if widen { Iv::full() } else { joined };
            changed = true;
        }
    };
    for (i, v) in new.locals.iter().enumerate() {
        merge(&mut old.locals[i], *v);
    }
    for (i, v) in new.stack.iter().enumerate() {
        if i < old.stack.len() {
            merge(&mut old.stack[i], *v);
        }
    }
    changed
}

/// One abstract step of the fixpoint. A call is summarized rather than
/// entered: its results are unknown words.
fn transfer(prog: &Program, insn: Insn, st: &mut Frame) -> Effect {
    let effect = absint::exec(insn, st);
    if let Control::Call { addr, .. } = effect.control {
        st.stack
            .extend((0..ret_count(prog, addr)).map(|_| Iv::top()));
    }
    effect
}

/// Largest access range (in words) worth recording; wider intervals carry
/// no overlap information a human could act on.
const MAX_RANGE_WORDS: i64 = 0x1_0000;

/// Pass 2: interval fixpoint over the function, then a deterministic
/// collection sweep over the fixed states recording memory accesses and
/// definite local-index violations.
fn interpret(
    prog: &Program,
    f: &FuncMeta,
    subject: &str,
    lines: &LineTable,
    report: &mut FuncReport,
) {
    let entry = Frame {
        locals: vec![Iv::top(); f.argc as usize],
        stack: Vec::new(),
    };
    let mut states: BTreeMap<CodeAddr, Frame> = BTreeMap::new();
    let mut visits: BTreeMap<CodeAddr, u32> = BTreeMap::new();
    states.insert(f.addr, entry);
    let mut work = vec![f.addr];
    while let Some(pc) = work.pop() {
        let Some(insn) = prog.fetch(pc) else { continue };
        let mut st = states[&pc].clone();
        transfer(prog, insn, &mut st);
        for succ in successors(insn, pc) {
            if succ < f.addr || succ >= f.end {
                continue;
            }
            let n = visits.entry(succ).or_insert(0);
            *n += 1;
            let widen = *n > WIDEN_AFTER;
            let changed = match states.get_mut(&succ) {
                Some(old) => join_into(old, &st, widen),
                None => {
                    states.insert(succ, st.clone());
                    true
                }
            };
            if changed {
                work.push(succ);
            }
        }
    }
    // Collection sweep: one deterministic pass over the fixed states.
    for (&pc, st) in &states {
        let Some(insn) = prog.fetch(pc) else { continue };
        let mut st = st.clone();
        let effect = transfer(prog, insn, &mut st);
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
pub fn verify_function(
    prog: &Program,
    f: &FuncMeta,
    subject: &str,
    lines: &LineTable,
) -> FuncReport {
    let mut report = FuncReport::default();
    if check_depths(prog, f, subject, lines, &mut report.findings) {
        interpret(prog, f, subject, lines, &mut report);
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
