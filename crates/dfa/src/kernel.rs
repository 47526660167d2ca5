//! Pass 1 — kernel analysis.
//!
//! An abstract interpreter over the kernelc AST executing `work` (inlining
//! helper calls) on the interval domain of [`crate::interval`]. It derives,
//! per port, the number of tokens produced/consumed **per firing** — exact
//! where control flow is rate-independent, `[min,max]` intervals where
//! pushes/pops sit behind data-dependent predicates or unbounded loops —
//! and raises the local safety lints (`DFA101` use-before-init, `DFA103`
//! unreachable code). Constant io indices and first-access ordering are
//! recorded for pass 2 (`DFA102` capacity checks, deadlock "breaker"
//! analysis).
//!
//! The io-rate semantics follow the runtime: `pedf.io.conn[i]` addresses
//! the i-th queued token of the current firing, so a firing's consumption
//! on a port is `max(i) + 1` over the indices it touches, not the number
//! of accesses.
//!
//! Documented imprecision (all sound over-approximations): 32-bit
//! wrap-around is modeled as saturation; a write to any field marks the
//! whole struct local initialized; recursive helper calls return unknown
//! without being entered.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use debuginfo::{Finding, Severity, Span};
use kernelc::ast::{BinOp, Block, Expr, LValue, PedfExpr, Stmt, Unit};

use crate::interval::{Iv, Tri, INF};
use crate::rules;

/// How many loop iterations are interpreted precisely before the analyzer
/// falls back to a havoc-and-widen over-approximation. Constant-bound
/// kernel loops (the only precise-rate-relevant kind) are far shorter.
const LOOP_FUEL: u32 = 128;

/// Maximum helper-call inlining depth.
const CALL_DEPTH: usize = 12;

/// Tokens per firing on one port: `[min, max]`, `max == None` meaning
/// statically unbounded (a push/pop inside an indeterminate loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rate {
    pub min: u32,
    pub max: Option<u32>,
}

impl Rate {
    pub const ZERO: Rate = Rate {
        min: 0,
        max: Some(0),
    };

    pub fn exact(n: u32) -> Rate {
        Rate {
            min: n,
            max: Some(n),
        }
    }

    /// `Some(n)` when the rate is the same on every path.
    pub fn as_exact(&self) -> Option<u32> {
        match self.max {
            Some(m) if m == self.min => Some(m),
            _ => None,
        }
    }

    fn from_iv(iv: Iv) -> Rate {
        let min = iv.lo.clamp(0, u32::MAX as i64) as u32;
        let max = if iv.hi >= INF {
            None
        } else {
            Some(iv.hi.clamp(0, u32::MAX as i64) as u32)
        };
        Rate { min, max }
    }
}

impl Default for Rate {
    fn default() -> Self {
        Rate::ZERO
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(m) if m == self.min => write!(f, "{m}"),
            Some(m) => write!(f, "[{},{m}]", self.min),
            None => write!(f, "[{},*]", self.min),
        }
    }
}

/// Everything pass 1 learned about one port of one actor.
#[derive(Debug, Clone, Default)]
pub struct PortUse {
    pub reads: Rate,
    pub writes: Rate,
    /// Global access-order sequence number of the first pop / push; used by
    /// the deadlock breaker analysis ("does this actor produce into the
    /// cycle before consuming from it?").
    pub first_read: Option<u32>,
    pub first_write: Option<u32>,
    /// Source line of the first pop / push (0 = none).
    pub read_line: u32,
    pub write_line: u32,
    /// Largest constant index popped / pushed, with its line — checked
    /// against link capacity by pass 2 (`DFA102`).
    pub max_const_read: Option<(u32, u32)>,
    pub max_const_write: Option<(u32, u32)>,
    /// Whether the kernel touches the port at all (`DFA104` otherwise).
    pub used: bool,
}

/// Pass-1 result for one actor's kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    pub file: String,
    pub ports: BTreeMap<String, PortUse>,
    pub findings: Vec<Finding>,
}

// ---- abstract machine state ---------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Init {
    Yes,
    Maybe,
    No,
}

impl Init {
    fn join(a: Init, b: Init) -> Init {
        if a == b {
            a
        } else {
            Init::Maybe
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct VarState {
    val: Iv,
    init: Init,
}

#[derive(Debug, Clone, Copy)]
struct IoCount {
    read: Iv,
    write: Iv,
}

impl Default for IoCount {
    fn default() -> Self {
        IoCount {
            read: Iv::exact(0),
            write: Iv::exact(0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Returned,
    Broke,
    Continued,
}

#[derive(Debug, Clone)]
struct State {
    vars: HashMap<String, VarState>,
    io: BTreeMap<String, IoCount>,
    flow: Flow,
}

impl State {
    fn new() -> State {
        State {
            vars: HashMap::new(),
            io: BTreeMap::new(),
            flow: Flow::Normal,
        }
    }
}

#[derive(Debug, Default)]
struct PortMeta {
    first_read: Option<u32>,
    first_write: Option<u32>,
    read_line: u32,
    write_line: u32,
    max_const_read: Option<(u32, u32)>,
    max_const_write: Option<(u32, u32)>,
}

struct Interp<'a> {
    unit: &'a Unit,
    file: &'a str,
    qname: &'a str,
    findings: Vec<Finding>,
    reported: HashSet<(&'static str, String, u32)>,
    meta: BTreeMap<String, PortMeta>,
    seq: u32,
    cur_line: u32,
    call_stack: Vec<String>,
    /// Per-inlined-function frames of states captured at `return`.
    fn_exits: Vec<Vec<State>>,
    ret_vals: Vec<Vec<Iv>>,
    /// Per-loop frames of states captured at `break` / `continue`.
    loop_breaks: Vec<Vec<State>>,
    loop_continues: Vec<Vec<State>>,
}

type Shadow = Vec<(String, Option<VarState>)>;

impl<'a> Interp<'a> {
    fn emit(&mut self, rule: &'static str, sev: Severity, subject: String, msg: String, line: u32) {
        if self.reported.insert((rule, subject.clone(), line)) {
            self.findings.push(
                Finding::new(rule, sev, subject, msg).with_span(Span::new(self.file, line, 0)),
            );
        }
    }

    // ---- joins ----------------------------------------------------------

    /// Join two absolute io-count maps. A key absent on one side means
    /// zero accesses on that path, so it must still be joined (pulling the
    /// minimum down to 0) rather than kept as-is.
    fn join_io(into: &mut BTreeMap<String, IoCount>, mut from: BTreeMap<String, IoCount>) {
        for (k, e) in into.iter_mut() {
            let c = from.remove(k).unwrap_or_default();
            e.read = Iv::join(e.read, c.read);
            e.write = Iv::join(e.write, c.write);
        }
        for (k, c) in from {
            let z = IoCount::default();
            into.insert(
                k,
                IoCount {
                    read: Iv::join(z.read, c.read),
                    write: Iv::join(z.write, c.write),
                },
            );
        }
    }

    fn join_maps(a: &mut State, b: State) {
        for (k, bv) in b.vars {
            match a.vars.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let av = e.get_mut();
                    av.val = Iv::join(av.val, bv.val);
                    av.init = Init::join(av.init, bv.init);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(VarState {
                        val: bv.val,
                        init: Init::join(bv.init, Init::Maybe),
                    });
                }
            }
        }
        Self::join_io(&mut a.io, b.io);
    }

    /// Join the state of a second branch into `a`. A branch whose flow is
    /// non-normal had its endpoint captured on the matching exit stack when
    /// the `return`/`break`/`continue` executed, so only normal-flow
    /// branches contribute to the fall-through state.
    fn join_branch(a: &mut State, b: State) {
        match (a.flow, b.flow) {
            (x, y) if x == y => Self::join_maps(a, b),
            (Flow::Normal, _) => {}
            (_, Flow::Normal) => *a = b,
            // Both dead via different exits: nothing falls through; keep
            // either non-normal flow so the block reports unreachability.
            _ => {}
        }
    }

    // ---- io accesses -----------------------------------------------------

    fn io_access(&mut self, conn: &str, idx: Iv, write: bool, st: &mut State) {
        self.seq += 1;
        let (seq, line) = (self.seq, self.cur_line);
        let m = self.meta.entry(conn.to_string()).or_default();
        let (first, fline, max_const) = if write {
            (
                &mut m.first_write,
                &mut m.write_line,
                &mut m.max_const_write,
            )
        } else {
            (&mut m.first_read, &mut m.read_line, &mut m.max_const_read)
        };
        if first.is_none() {
            *first = Some(seq);
            *fline = line;
        }
        if let Some(k) = idx.as_exact() {
            if (0..=u32::MAX as i64).contains(&k) {
                let k = k as u32;
                if max_const.is_none_or(|(prev, _)| k > prev) {
                    *max_const = Some((k, line));
                }
            }
        }
        let c = st.io.entry(conn.to_string()).or_default();
        let lo_need = idx.lo.max(0) + 1;
        let hi_need = if idx.hi >= INF {
            INF
        } else {
            idx.hi.max(0) + 1
        };
        let slot = if write { &mut c.write } else { &mut c.read };
        slot.lo = slot.lo.max(lo_need);
        slot.hi = slot.hi.max(hi_need);
    }

    // ---- expression evaluation -------------------------------------------

    fn read_var(&mut self, name: &str, st: &State) -> Iv {
        match st.vars.get(name) {
            Some(v) => {
                match v.init {
                    Init::Yes => {}
                    Init::Maybe => self.emit(
                        rules::UNINIT_LOCAL,
                        Severity::Warning,
                        format!("{}::{}", self.qname, name),
                        format!("`{name}` may be read before initialization"),
                        self.cur_line,
                    ),
                    Init::No => self.emit(
                        rules::UNINIT_LOCAL,
                        Severity::Error,
                        format!("{}::{}", self.qname, name),
                        format!("`{name}` is read before initialization"),
                        self.cur_line,
                    ),
                }
                v.val
            }
            // Unknown names are the compiler's problem, not the analyzer's.
            None => Iv::top(),
        }
    }

    fn eval(&mut self, e: &Expr, st: &mut State) -> Iv {
        match e {
            Expr::Num(n) => Iv::exact(*n as i64),
            Expr::Var(name) => self.read_var(name, st),
            Expr::Field(base, _field) => {
                // Per-field tracking is not attempted: reading any field of
                // an initialized struct is fine, of an uninitialized one is
                // the same defect as reading the variable.
                self.read_var(base, st);
                Iv::top()
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, st);
                Iv::unary(*op, v)
            }
            Expr::Binary(op, lhs, rhs) => self.eval_binary(*op, lhs, rhs, st),
            Expr::Call { name, args } => self.eval_call(name, args, st),
            Expr::Pedf(p) => self.eval_pedf(p, st),
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, st: &mut State) -> Iv {
        let l = self.eval(lhs, st);
        // Short-circuit operators evaluate the rhs conditionally; since the
        // rhs can carry side effects visible to the analysis (io pops), the
        // indeterminate case forks the state like an `if`.
        if matches!(op, BinOp::LAnd | BinOp::LOr) {
            let skip = if op == BinOp::LAnd {
                Tri::False
            } else {
                Tri::True
            };
            match l.truth() {
                t if t == skip => return Iv::from_bool(op == BinOp::LOr),
                Tri::Maybe => {
                    let skipped = st.clone();
                    let r = self.eval(rhs, st);
                    Self::join_branch(st, skipped);
                    return Iv::binary(op, l, r);
                }
                _ => {}
            }
        }
        let r = self.eval(rhs, st);
        Iv::binary(op, l, r)
    }

    fn eval_pedf(&mut self, p: &PedfExpr, st: &mut State) -> Iv {
        match p {
            PedfExpr::IoRead { conn, index } => {
                let idx = self.eval(index, st);
                self.io_access(conn, idx, false, st);
                Iv::top()
            }
            PedfExpr::Data(_) | PedfExpr::Attr(_) => Iv::top(),
            PedfExpr::Mem(addr) => {
                // Raw memory contents are opaque here; the bytecode-level
                // verifier (`bcv`) classifies the address itself.
                self.eval(addr, st);
                Iv::top()
            }
            PedfExpr::Available(_) | PedfExpr::Space(_) => Iv::top(),
            PedfExpr::Run => Iv::boolean(),
            PedfExpr::Print(e) => {
                self.eval(e, st);
                Iv::exact(0)
            }
            PedfExpr::Start(_)
            | PedfExpr::Sync(_)
            | PedfExpr::Fire(_)
            | PedfExpr::WaitInit
            | PedfExpr::WaitSync
            | PedfExpr::StepBegin
            | PedfExpr::StepEnd => Iv::exact(0),
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], st: &mut State) -> Iv {
        let argv: Vec<Iv> = args.iter().map(|a| self.eval(a, st)).collect();
        let Some(f) = self.unit.funcs.iter().find(|f| f.name == name) else {
            return Iv::top();
        };
        if self.call_stack.len() >= CALL_DEPTH || self.call_stack.iter().any(|n| n == name) {
            // Recursion / pathological depth: give up on the return value
            // (and, documented, on io effects of the recursive part).
            return Iv::top();
        }
        self.call_stack.push(name.to_string());
        let saved_vars = std::mem::take(&mut st.vars);
        for ((pname, _), v) in f.params.iter().zip(argv) {
            st.vars.insert(
                pname.clone(),
                VarState {
                    val: v,
                    init: Init::Yes,
                },
            );
        }
        let saved_breaks = std::mem::take(&mut self.loop_breaks);
        let saved_conts = std::mem::take(&mut self.loop_continues);
        let saved_line = self.cur_line;
        self.fn_exits.push(Vec::new());
        self.ret_vals.push(Vec::new());
        self.exec_block(&f.body, st);
        let exits = self.fn_exits.pop().unwrap();
        let rets = self.ret_vals.pop().unwrap();
        let fell_through = st.flow != Flow::Returned;
        for e in exits {
            Self::join_io(&mut st.io, e.io);
        }
        let mut ret = fell_through.then(|| Iv::exact(0));
        for r in rets {
            ret = Some(match ret {
                Some(x) => Iv::join(x, r),
                None => r,
            });
        }
        st.vars = saved_vars;
        st.flow = Flow::Normal;
        self.loop_breaks = saved_breaks;
        self.loop_continues = saved_conts;
        self.call_stack.pop();
        self.cur_line = saved_line;
        ret.unwrap_or_else(|| Iv::exact(0))
    }

    // ---- statements ------------------------------------------------------

    fn exec_block(&mut self, blk: &Block, st: &mut State) {
        let mut shadow: Shadow = Vec::new();
        for (i, s) in blk.stmts.iter().enumerate() {
            if st.flow != Flow::Normal {
                let line = s.line();
                self.emit(
                    rules::UNREACHABLE_CODE,
                    Severity::Warning,
                    self.qname.to_string(),
                    "unreachable statement (control already left this block)".to_string(),
                    line,
                );
                let _ = i;
                break;
            }
            self.exec_stmt(s, st, &mut shadow);
        }
        for (name, old) in shadow.into_iter().rev() {
            match old {
                Some(v) => {
                    st.vars.insert(name, v);
                }
                None => {
                    st.vars.remove(&name);
                }
            }
        }
    }

    fn declare(&mut self, name: &str, v: VarState, st: &mut State, shadow: &mut Shadow) {
        shadow.push((name.to_string(), st.vars.insert(name.to_string(), v)));
    }

    fn exec_stmt(&mut self, s: &Stmt, st: &mut State, shadow: &mut Shadow) {
        if s.line() != 0 {
            self.cur_line = s.line();
        }
        match s {
            Stmt::Decl { name, init, .. } => {
                let v = match init {
                    Some(e) => VarState {
                        val: self.eval(e, st),
                        init: Init::Yes,
                    },
                    None => VarState {
                        val: Iv::top(),
                        init: Init::No,
                    },
                };
                self.declare(name, v, st, shadow);
            }
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var(name) => {
                        let v = self.eval(value, st);
                        st.vars.insert(
                            name.clone(),
                            VarState {
                                val: v,
                                init: Init::Yes,
                            },
                        );
                    }
                    LValue::Field(base, _field) => {
                        self.eval(value, st);
                        // A field write makes the whole struct "initialized"
                        // for the purpose of DFA101 (documented imprecision).
                        st.vars.insert(
                            base.clone(),
                            VarState {
                                val: Iv::top(),
                                init: Init::Yes,
                            },
                        );
                    }
                    LValue::Io { conn, index } => {
                        let idx = self.eval(index, st);
                        self.eval(value, st);
                        self.io_access(conn, idx, true, st);
                    }
                    LValue::Data(_) | LValue::Attr(_) => {
                        self.eval(value, st);
                    }
                    LValue::Mem(addr) => {
                        self.eval(addr, st);
                        self.eval(value, st);
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval(cond, st);
                match c.truth() {
                    Tri::True => self.exec_block(then_blk, st),
                    Tri::False => {
                        if let Some(e) = else_blk {
                            self.exec_block(e, st);
                        }
                    }
                    Tri::Maybe => {
                        let mut other = st.clone();
                        self.exec_block(then_blk, st);
                        if let Some(e) = else_blk {
                            self.exec_block(e, &mut other);
                        }
                        Self::join_branch(st, other);
                    }
                }
            }
            Stmt::While { cond, body, .. } => {
                self.exec_loop(Some(cond), None, body, st);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                let mut for_shadow: Shadow = Vec::new();
                if let Some(i) = init {
                    self.exec_stmt(i, st, &mut for_shadow);
                }
                self.exec_loop(cond.as_ref(), step.as_deref(), body, st);
                for (name, old) in for_shadow.into_iter().rev() {
                    match old {
                        Some(v) => {
                            st.vars.insert(name, v);
                        }
                        None => {
                            st.vars.remove(&name);
                        }
                    }
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    let v = self.eval(e, st);
                    if let Some(frame) = self.ret_vals.last_mut() {
                        frame.push(v);
                    }
                }
                if let Some(frame) = self.fn_exits.last_mut() {
                    frame.push(st.clone());
                }
                st.flow = Flow::Returned;
            }
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, st);
            }
            Stmt::Break { .. } => {
                if let Some(frame) = self.loop_breaks.last_mut() {
                    frame.push(st.clone());
                }
                st.flow = Flow::Broke;
            }
            Stmt::Continue { .. } => {
                if let Some(frame) = self.loop_continues.last_mut() {
                    frame.push(st.clone());
                }
                st.flow = Flow::Continued;
            }
            Stmt::Nested(b) => self.exec_block(b, st),
        }
    }

    /// Shared loop executor (`while` has no step). Constant-bound loops are
    /// unrolled precisely up to [`LOOP_FUEL`] iterations; an indeterminate
    /// condition or exhausted fuel falls back to havoc → one body pass →
    /// havoc, widening touched io counters to unbounded.
    fn exec_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &Block,
        st: &mut State,
    ) {
        self.loop_breaks.push(Vec::new());
        self.loop_continues.push(Vec::new());
        let mut exits: Vec<State> = Vec::new();
        let mut fuel = LOOP_FUEL;
        loop {
            let t = match cond {
                Some(c) => self.eval(c, st).truth(),
                None => Tri::True,
            };
            if t == Tri::False {
                exits.push(st.clone());
                break;
            }
            if t == Tri::Maybe {
                // The loop may exit right here with the current counts.
                exits.push(st.clone());
            }
            if t == Tri::Maybe || fuel == 0 {
                let mut assigned = HashSet::new();
                collect_assigned_block(body, &mut assigned);
                if let Some(s) = step {
                    collect_assigned_stmt(s, &mut assigned);
                }
                havoc(st, &assigned);
                let io_before = st.io.clone();
                self.exec_block(body, st);
                self.drain_continues(st);
                if st.flow == Flow::Normal {
                    if let Some(s) = step {
                        let mut sh = Vec::new();
                        self.exec_stmt(s, st, &mut sh);
                    }
                }
                havoc(st, &assigned);
                for (k, c) in st.io.iter_mut() {
                    let before = io_before.get(k).copied().unwrap_or_default();
                    if c.read.hi > before.read.hi {
                        c.read.hi = INF;
                    }
                    if c.write.hi > before.write.hi {
                        c.write.hi = INF;
                    }
                }
                if st.flow == Flow::Normal {
                    exits.push(st.clone());
                }
                break;
            }
            fuel -= 1;
            self.exec_block(body, st);
            self.drain_continues(st);
            match st.flow {
                Flow::Normal => {
                    if let Some(s) = step {
                        let mut sh = Vec::new();
                        self.exec_stmt(s, st, &mut sh);
                    }
                }
                // `break`/`return` endpoints were captured when they ran.
                Flow::Broke | Flow::Returned => break,
                Flow::Continued => unreachable!("continues drained"),
            }
        }
        let breaks = self.loop_breaks.pop().unwrap();
        self.loop_continues.pop();
        let mut finals: Vec<State> = exits
            .into_iter()
            .filter(|s| s.flow == Flow::Normal)
            .collect();
        finals.extend(breaks);
        if let Some(mut f) = finals.pop() {
            for o in finals {
                Self::join_maps(&mut f, o);
            }
            f.flow = Flow::Normal;
            *st = f;
        } else {
            // No path leaves the loop normally: every iteration returns
            // (or the loop provably never terminates).
            st.flow = Flow::Returned;
        }
    }

    /// Merge states captured at `continue` back into the end-of-body state:
    /// they rejoin the iteration at the condition / step.
    fn drain_continues(&mut self, st: &mut State) {
        let conts = match self.loop_continues.last_mut() {
            Some(f) => std::mem::take(f),
            None => return,
        };
        if conts.is_empty() {
            return;
        }
        let mut acc: Option<State> = (st.flow == Flow::Normal).then(|| st.clone());
        for c in conts {
            match &mut acc {
                Some(a) => Self::join_maps(a, c),
                None => acc = Some(c),
            }
        }
        let mut a = acc.expect("at least one continue state");
        a.flow = Flow::Normal;
        *st = a;
    }
}

fn havoc(st: &mut State, names: &HashSet<&str>) {
    for (name, v) in st.vars.iter_mut() {
        if names.contains(name.as_str()) {
            v.val = Iv::top();
        }
    }
}

fn collect_assigned_block<'s>(b: &'s Block, out: &mut HashSet<&'s str>) {
    for s in &b.stmts {
        collect_assigned_stmt(s, out);
    }
}

fn collect_assigned_stmt<'s>(s: &'s Stmt, out: &mut HashSet<&'s str>) {
    match s {
        Stmt::Decl { name, .. } => {
            out.insert(name);
        }
        Stmt::Assign {
            target: LValue::Var(n) | LValue::Field(n, _),
            ..
        } => {
            out.insert(n);
        }
        Stmt::Assign { .. } => {}
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            collect_assigned_block(then_blk, out);
            if let Some(e) = else_blk {
                collect_assigned_block(e, out);
            }
        }
        Stmt::While { body, .. } => collect_assigned_block(body, out),
        Stmt::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                collect_assigned_stmt(i, out);
            }
            if let Some(st) = step {
                collect_assigned_stmt(st, out);
            }
            collect_assigned_block(body, out);
        }
        Stmt::Nested(b) => collect_assigned_block(b, out),
        _ => {}
    }
}

/// Analyze one kernel unit: abstract-interpret `work` (inlining helper
/// calls) and return per-port rates, access metadata and local findings.
/// `ports` pre-seeds the report with the actor's declared connections so
/// never-touched ports appear with exact-zero rates and `used == false`.
pub fn analyze_kernel(unit: &Unit, file: &str, qname: &str, ports: &[String]) -> KernelReport {
    let mut report = KernelReport {
        file: file.to_string(),
        ports: ports
            .iter()
            .map(|p| (p.clone(), PortUse::default()))
            .collect(),
        findings: Vec::new(),
    };
    let Some(work) = unit.funcs.iter().find(|f| f.name == "work") else {
        return report;
    };
    let mut interp = Interp {
        unit,
        file,
        qname,
        findings: Vec::new(),
        reported: HashSet::new(),
        meta: BTreeMap::new(),
        seq: 0,
        cur_line: work.line,
        call_stack: vec!["work".to_string()],
        fn_exits: vec![Vec::new()],
        ret_vals: vec![Vec::new()],
        loop_breaks: Vec::new(),
        loop_continues: Vec::new(),
    };
    let mut st = State::new();
    interp.exec_block(&work.body, &mut st);
    let mut finals = interp.fn_exits.pop().unwrap_or_default();
    if st.flow != Flow::Returned {
        finals.push(st);
    }
    if let Some(mut f) = finals.pop() {
        for o in finals {
            Interp::join_io(&mut f.io, o.io);
        }
        for (name, count) in f.io {
            let pu = report.ports.entry(name).or_default();
            pu.reads = Rate::from_iv(count.read);
            pu.writes = Rate::from_iv(count.write);
        }
    }
    for (name, m) in interp.meta {
        let pu = report.ports.entry(name).or_default();
        pu.used = true;
        pu.first_read = m.first_read;
        pu.first_write = m.first_write;
        pu.read_line = m.read_line;
        pu.write_line = m.write_line;
        pu.max_const_read = m.max_const_read;
        pu.max_const_write = m.max_const_write;
    }
    report.findings = interp.findings;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> KernelReport {
        let unit = kernelc::parser::parse(src, &|s| s == "CbCrMB_t").expect("parse");
        analyze_kernel(&unit, "k.c", "t", &[])
    }

    fn port<'r>(r: &'r KernelReport, name: &str) -> &'r PortUse {
        r.ports.get(name).unwrap_or_else(|| panic!("port {name}"))
    }

    #[test]
    fn straight_line_rates_are_exact() {
        let r = analyze(
            "void work() {\n\
             U32 a = pedf.io.in_a[0];\n\
             pedf.io.out_b[0] = a;\n\
             pedf.io.out_b[1] = a + 1;\n\
             }",
        );
        assert_eq!(port(&r, "in_a").reads.as_exact(), Some(1));
        assert_eq!(port(&r, "out_b").writes.as_exact(), Some(2));
        assert_eq!(port(&r, "out_b").reads.as_exact(), Some(0));
        assert!(r.findings.is_empty());
    }

    #[test]
    fn rate_is_max_index_not_access_count() {
        // Reading token 0 twice consumes one token; reading tokens 0 and 2
        // consumes three (the runtime's indexed-window semantics).
        let r = analyze(
            "void work() {\n\
             U32 a = pedf.io.x[0] + pedf.io.x[0];\n\
             U32 b = pedf.io.y[0] + pedf.io.y[2];\n\
             pedf.io.o[0] = a + b;\n\
             }",
        );
        assert_eq!(port(&r, "x").reads.as_exact(), Some(1));
        assert_eq!(port(&r, "y").reads.as_exact(), Some(3));
        assert_eq!(port(&r, "y").max_const_read, Some((2, 3)));
    }

    #[test]
    fn constant_loops_unroll_exactly() {
        let r = analyze(
            "void work() {\n\
             U32 i;\n\
             for (i = 0; i < 3; i = i + 1) { pedf.io.out[i] = i; }\n\
             }",
        );
        assert_eq!(port(&r, "out").writes.as_exact(), Some(3));
        assert!(r.findings.is_empty());
    }

    #[test]
    fn predicated_push_yields_interval() {
        let r = analyze(
            "void work() {\n\
             U32 c = pedf.io.cfg[0];\n\
             if (c > 5) { pedf.io.out[0] = c; }\n\
             }",
        );
        let w = port(&r, "out").writes;
        assert_eq!((w.min, w.max), (0, Some(1)));
        assert_eq!(w.as_exact(), None);
    }

    #[test]
    fn unbounded_loop_widens_to_star() {
        let r = analyze("void work() { while (pedf.run()) { pedf.io.out[0] = 1; } }");
        let w = port(&r, "out").writes;
        assert_eq!((w.min, w.max), (0, None));
    }

    #[test]
    fn early_return_joins_endpoint_rates() {
        let r = analyze(
            "void work() {\n\
             U32 c = pedf.io.cfg[0];\n\
             if (c == 0) { return; }\n\
             pedf.io.out[0] = c;\n\
             }",
        );
        let w = port(&r, "out").writes;
        assert_eq!((w.min, w.max), (0, Some(1)));
        assert_eq!(port(&r, "cfg").reads.as_exact(), Some(1));
    }

    #[test]
    fn break_and_continue_keep_rates_sound() {
        let r = analyze(
            "void work() {\n\
             U32 i;\n\
             for (i = 0; i < 10; i = i + 1) {\n\
             if (i == 2) { continue; }\n\
             if (i == 4) { break; }\n\
             pedf.io.out[0] = i;\n\
             }\n\
             }",
        );
        // Iterations 0,1,3 push (2 continues, 4 breaks): exactly pushes to
        // index 0 → per-firing rate 1.
        assert_eq!(port(&r, "out").writes.as_exact(), Some(1));
    }

    #[test]
    fn helper_calls_are_inlined_for_rates() {
        let r = analyze(
            "U32 grab() { return pedf.io.in_a[0]; }\n\
             void emit2(U32 v) { pedf.io.out[0] = v; pedf.io.out[1] = v; }\n\
             void work() { emit2(grab()); }",
        );
        assert_eq!(port(&r, "in_a").reads.as_exact(), Some(1));
        assert_eq!(port(&r, "out").writes.as_exact(), Some(2));
    }

    #[test]
    fn recursion_does_not_diverge() {
        let r = analyze(
            "U32 f(U32 n) { if (n == 0) { return 0; } return f(n - 1); }\n\
             void work() { pedf.io.out[0] = f(pedf.io.in_a[0]); }",
        );
        assert_eq!(port(&r, "out").writes.as_exact(), Some(1));
    }

    #[test]
    fn first_access_order_is_recorded() {
        let r = analyze(
            "void work() {\n\
             pedf.io.out[0] = 7;\n\
             U32 a = pedf.io.in_a[0];\n\
             pedf.io.out[1] = a;\n\
             }",
        );
        let o = port(&r, "out");
        let i = port(&r, "in_a");
        assert!(o.first_write.unwrap() < i.first_read.unwrap());
        assert_eq!(o.write_line, 2);
        assert_eq!(i.read_line, 3);
    }

    #[test]
    fn dfa101_definite_uninit_read() {
        let r = analyze("void work() { U32 x; pedf.io.out[0] = x; }");
        let f = &r.findings[0];
        assert_eq!(f.rule, rules::UNINIT_LOCAL);
        assert_eq!(f.severity, Severity::Error);
        assert!(f.subject.contains("::x"));
        assert_eq!(f.span.as_ref().unwrap().line, 1);
    }

    #[test]
    fn dfa101_maybe_uninit_is_a_warning() {
        let r = analyze(
            "void work() {\n\
             U32 x;\n\
             if (pedf.io.c[0] > 0) { x = 1; }\n\
             pedf.io.out[0] = x;\n\
             }",
        );
        let f = &r.findings[0];
        assert_eq!(f.rule, rules::UNINIT_LOCAL);
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.span.as_ref().unwrap().line, 4);
    }

    #[test]
    fn dfa101_negative_initialized_paths() {
        let r = analyze(
            "void work() {\n\
             U32 x;\n\
             if (pedf.io.c[0] > 0) { x = 1; } else { x = 2; }\n\
             pedf.io.out[0] = x;\n\
             }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        // Struct locals: a field write initializes the variable.
        let r2 = analyze(
            "void work() {\n\
             CbCrMB_t mb;\n\
             mb.Addr = 1;\n\
             pedf.io.out[0] = mb.Addr;\n\
             }",
        );
        assert!(r2.findings.is_empty(), "{:?}", r2.findings);
    }

    #[test]
    fn dfa103_unreachable_after_return() {
        let r = analyze(
            "void work() {\n\
             return;\n\
             pedf.io.out[0] = 1;\n\
             }",
        );
        let f = &r.findings[0];
        assert_eq!(f.rule, rules::UNREACHABLE_CODE);
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.span.as_ref().unwrap().line, 3);
        // The dead push must not contribute to any port rate.
        assert!(r
            .ports
            .get("out")
            .is_none_or(|p| p.writes.as_exact() == Some(0)));
    }

    #[test]
    fn dfa103_negative_conditional_return() {
        let r = analyze(
            "void work() {\n\
             if (pedf.io.c[0] == 0) { return; }\n\
             pedf.io.out[0] = 1;\n\
             }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn declared_but_untouched_ports_report_unused() {
        let unit = kernelc::parser::parse("void work() { pedf.io.a[0] = 1; }", &|_| false).unwrap();
        let r = analyze_kernel(&unit, "k.c", "t", &["a".to_string(), "b".to_string()]);
        assert!(port(&r, "a").used);
        assert!(!port(&r, "b").used);
        assert_eq!(port(&r, "b").reads.as_exact(), Some(0));
    }

    #[test]
    fn rate_display_formats() {
        assert_eq!(Rate::exact(2).to_string(), "2");
        assert_eq!(
            Rate {
                min: 0,
                max: Some(3)
            }
            .to_string(),
            "[0,3]"
        );
        assert_eq!(Rate { min: 1, max: None }.to_string(), "[1,*]");
    }
}
