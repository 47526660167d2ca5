//! Pass 1 — kernel analysis.
//!
//! The one abstract interpreter over the kernelc AST: it executes `work`
//! (inlining helper calls) on the interval domain of [`crate::interval`]
//! and has two outputs.
//!
//! * **Rates.** Per port, the number of tokens produced/consumed **per
//!   firing** — exact where control flow is rate-independent, `[min,max]`
//!   intervals where pushes/pops sit behind data-dependent predicates or
//!   unbounded loops — plus the local safety lints (`DFA101`
//!   use-before-init, `DFA103` unreachable code). Constant io indices and
//!   first-access ordering are recorded for pass 2 (`DFA102` capacity
//!   checks, deadlock "breaker" analysis).
//! * **Order.** [`KernelReport::io_order`], the firing's unit pops and
//!   pushes in program order, which `sched` needs for buffer sizing:
//!   whether `red` pushes its second token before or after `pipe` can pop
//!   the first decides whether capacity 1 deadlocks. The walk follows one
//!   path wherever branches are decided and refuses to guess where they
//!   are not: the order is *not fixed* (`None`) after an undecided `if`
//!   with IO in an arm, an undecided `&&` or `||` with IO on its right, an
//!   undecided loop with IO in its body or step, a loop that runs out of
//!   `LOOP_FUEL`, a read whose index is not a constant below
//!   `MAX_WINDOW`, a controller primitive, or a call past `CALL_DEPTH` to
//!   a callee with IO. "IO" is syntactic here, and a helper call counts as
//!   IO. IO that follows an undecided `return`, `break` or `continue`
//!   before its path rejoins (the end of the call, of the loop, of the
//!   iteration) runs on some paths only, and leaves the order unfixed
//!   too.
//!
//! The io semantics follow the runtime: `pedf.io.conn[i]` addresses the
//! i-th queued token of the current firing, so a firing's consumption on a
//! port is `max(i) + 1` over the indices it touches, not the number of
//! accesses, and the first read of index `i` pops every token up to it.
//! Writes go out in index order, one token per executed assignment; the
//! value is evaluated first, then the index, then the token is pushed.
//!
//! Values written during the firing to `pedf.data.*`, `pedf.attribute.*`
//! and struct fields are tracked. An undecided loop forgets the locals and
//! fields it assigns, and every `pedf.data`/`pedf.attribute` value (a
//! helper it calls may write them).
//!
//! Helper calls are inlined, recursive ones too, up to `CALL_DEPTH`
//! nested helpers. A call past that limit is not entered: it returns an
//! unknown value, the filter state values are forgotten, and every port
//! the callee can reach (through its own calls too) gets an unbounded
//! upper rate.
//!
//! Documented imprecision (all sound over-approximations): 32-bit
//! wrap-around is modeled as saturation; a write to any field marks the
//! whole struct local initialized.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use debuginfo::{Finding, Severity, Span};
use kernelc::ast::{BinOp, Block, Expr, LValue, PedfExpr, Stmt, Unit};

use crate::interval::{Iv, Tri, INF};
use crate::rules;

/// How many loop iterations are interpreted precisely before the analyzer
/// falls back to a havoc-and-widen over-approximation. Constant-bound
/// kernel loops (the only precise-rate-relevant kind) are far shorter.
const LOOP_FUEL: u32 = 256;

/// Reads at a constant index from this one on leave the order unfixed
/// rather than record that many pops.
const MAX_WINDOW: i64 = 1 << 16;

/// Maximum number of nested helper calls inlined below `work` (recursion
/// is inlined down to it).
const CALL_DEPTH: usize = 12;

/// One unit token operation of a firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// One token popped from the FIFO behind input connection `conn`.
    Pop { conn: String },
    /// One token pushed into the FIFO behind output connection `conn`.
    Push { conn: String },
}

impl IoOp {
    pub fn conn(&self) -> &str {
        match self {
            IoOp::Pop { conn } | IoOp::Push { conn } => conn,
        }
    }
}

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
    /// The firing's unit IO in program order, each op with its source
    /// line; `None` when the order is not fixed (see the module doc).
    pub io_order: Option<Vec<(IoOp, u32)>>,
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

/// How far the walk is past a path that left early: an undecided
/// `continue`, `break` or `return` whose other arm the walk goes on
/// with. Until that path rejoins (the next iteration, the end of the loop,
/// the end of the call), the IO the walk meets runs on some paths only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Skip {
    None,
    Iteration,
    Loop,
    Call,
}

impl Skip {
    fn of(flow: Flow) -> Skip {
        match flow {
            Flow::Normal => Skip::None,
            Flow::Continued => Skip::Iteration,
            Flow::Broke => Skip::Loop,
            Flow::Returned => Skip::Call,
        }
    }
}

#[derive(Debug, Clone)]
struct State {
    vars: HashMap<String, VarState>,
    /// Known values of this frame's struct fields, keyed `var.field`.
    fields: HashMap<String, Iv>,
    /// Known values of `pedf.data.*` / `pedf.attribute.*`, keyed
    /// `data.name` / `attr.name`.
    cells: HashMap<String, Iv>,
    io: BTreeMap<String, IoCount>,
    flow: Flow,
}

impl State {
    fn new() -> State {
        State {
            vars: HashMap::new(),
            fields: HashMap::new(),
            cells: HashMap::new(),
            io: BTreeMap::new(),
            flow: Flow::Normal,
        }
    }

    /// Forget the fields of `var`, which was just declared or assigned
    /// whole.
    fn forget_fields(&mut self, var: &str) {
        if !self.fields.is_empty() {
            self.fields
                .retain(|k, _| !k.strip_prefix(var).is_some_and(|f| f.starts_with('.')));
        }
    }

    /// Forget every value an undecided loop may have changed.
    fn havoc(&mut self, names: &HashSet<&str>) {
        for (name, v) in self.vars.iter_mut() {
            if names.contains(name.as_str()) {
                v.val = Iv::top();
            }
        }
        self.fields.retain(|k, _| {
            !k.split_once('.')
                .is_some_and(|(var, _)| names.contains(var))
        });
        self.cells.clear();
    }
}

/// Join known values: a value known on one side only is unknown.
fn join_known(into: &mut HashMap<String, Iv>, from: &HashMap<String, Iv>) {
    into.retain(|k, v| match from.get(k) {
        Some(w) => {
            *v = Iv::join(*v, *w);
            true
        }
        None => false,
    });
}

#[derive(Debug, Default)]
struct PortMeta {
    first_read: Option<u32>,
    first_write: Option<u32>,
    read_line: u32,
    write_line: u32,
    max_const_read: Option<(u32, u32)>,
    max_const_write: Option<(u32, u32)>,
    /// Tokens this firing popped so far (the read window).
    popped: u32,
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
    /// The firing's IO so far; `None` once its order is not fixed.
    order: Option<Vec<(IoOp, u32)>>,
    /// Whether a path has left early (see [`Skip`]).
    skip: Skip,
    /// Helper calls being inlined below `work`.
    depth: usize,
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
        join_known(&mut a.fields, &b.fields);
        join_known(&mut a.cells, &b.cells);
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
        if self.skip != Skip::None {
            self.order = None;
        }
        let Some(order) = &mut self.order else {
            return;
        };
        if write {
            order.push((IoOp::Push { conn: conn.into() }, line));
            return;
        }
        match idx.as_exact() {
            Some(k) if (0..MAX_WINDOW).contains(&k) => {
                while i64::from(m.popped) <= k {
                    m.popped += 1;
                    order.push((IoOp::Pop { conn: conn.into() }, line));
                }
            }
            _ => self.order = None,
        }
    }

    /// Leave the order unfixed if `io` says IO is at stake on a path the
    /// walk cannot choose.
    fn unfix_if(&mut self, io: impl FnOnce() -> bool) {
        if self.order.is_some() && io() {
            self.order = None;
        }
    }

    // ---- expression evaluation -------------------------------------------

    fn read_var(&mut self, name: &str, st: &State) -> Iv {
        match st.vars.get(name) {
            Some(v) => {
                let (sev, how) = match v.init {
                    Init::Yes => return v.val,
                    Init::Maybe => (Severity::Warning, "may be"),
                    Init::No => (Severity::Error, "is"),
                };
                self.emit(
                    rules::UNINIT_LOCAL,
                    sev,
                    format!("{}::{}", self.qname, name),
                    format!("`{name}` {how} read before initialization"),
                    self.cur_line,
                );
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
            Expr::Field(base, field) => {
                // Reading any field of an initialized struct is fine, of an
                // uninitialized one is the same defect as reading the
                // variable.
                self.read_var(base, st);
                known(&st.fields, || format!("{base}.{field}"))
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
                    self.unfix_if(|| any_site_expr(rhs, &mut is_io));
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
            PedfExpr::Data(name) => known(&st.cells, || format!("data.{name}")),
            PedfExpr::Attr(name) => known(&st.cells, || format!("attr.{name}")),
            PedfExpr::Mem(addr) => {
                // Raw memory contents are opaque here; the bytecode-level
                // verifier (`bcv`) classifies the address itself.
                self.eval(addr, st);
                Iv::top()
            }
            PedfExpr::Available(_) | PedfExpr::Space(_) => Iv::top(),
            PedfExpr::Print(e) => {
                self.eval(e, st);
                Iv::exact(0)
            }
            // Controller scheduling primitives: a walk that meets one is
            // not a filter firing, so it has no fixed order.
            PedfExpr::Run => {
                self.order = None;
                Iv::boolean()
            }
            PedfExpr::Start(_)
            | PedfExpr::Sync(_)
            | PedfExpr::Fire(_)
            | PedfExpr::WaitInit
            | PedfExpr::WaitSync
            | PedfExpr::StepBegin
            | PedfExpr::StepEnd => {
                self.order = None;
                Iv::exact(0)
            }
        }
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], st: &mut State) -> Iv {
        let argv: Vec<Iv> = args.iter().map(|a| self.eval(a, st)).collect();
        let Some(f) = self.unit.funcs.iter().find(|f| f.name == name) else {
            return Iv::top();
        };
        if self.depth >= CALL_DEPTH {
            // Too deep to inline (deep recursion ends here): the value is
            // unknown, and so are the filter state the callee leaves and
            // how often it uses the ports it reaches.
            self.unfix_if(|| any_site_block(&f.body, &mut is_io));
            st.cells.clear();
            for (conn, write) in reachable_ports(self.unit, name) {
                self.meta.entry(conn.to_string()).or_default();
                let c = st.io.entry(conn.to_string()).or_default();
                if write {
                    c.write.hi = INF;
                } else {
                    c.read.hi = INF;
                }
            }
            return Iv::top();
        }
        self.depth += 1;
        let saved_vars = std::mem::take(&mut st.vars);
        let saved_fields = std::mem::take(&mut st.fields);
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
        let saved_skip = self.skip;
        self.fn_exits.push(Vec::new());
        self.ret_vals.push(Vec::new());
        self.exec_block(&f.body, st);
        let exits = self.fn_exits.pop().unwrap();
        let rets = self.ret_vals.pop().unwrap();
        let fell_through = st.flow != Flow::Returned;
        for e in exits {
            join_known(&mut st.cells, &e.cells);
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
        st.fields = saved_fields;
        st.flow = Flow::Normal;
        self.loop_breaks = saved_breaks;
        self.loop_continues = saved_conts;
        self.depth -= 1;
        self.cur_line = saved_line;
        self.skip = saved_skip;
        ret.unwrap_or_else(|| Iv::exact(0))
    }

    // ---- statements ------------------------------------------------------

    fn exec_block(&mut self, blk: &Block, st: &mut State) {
        let mut shadow: Shadow = Vec::new();
        for s in &blk.stmts {
            if st.flow != Flow::Normal {
                let line = s.line();
                self.emit(
                    rules::UNREACHABLE_CODE,
                    Severity::Warning,
                    self.qname.to_string(),
                    "unreachable statement (control already left this block)".to_string(),
                    line,
                );
                break;
            }
            self.exec_stmt(s, st, &mut shadow);
        }
        restore(shadow, st);
    }

    fn declare(&mut self, name: &str, v: VarState, st: &mut State, shadow: &mut Shadow) {
        st.forget_fields(name);
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
                        st.forget_fields(name);
                        st.vars.insert(
                            name.clone(),
                            VarState {
                                val: v,
                                init: Init::Yes,
                            },
                        );
                    }
                    LValue::Field(base, field) => {
                        let v = self.eval(value, st);
                        // A field write makes the whole struct "initialized"
                        // for the purpose of DFA101 (documented imprecision).
                        st.vars.insert(
                            base.clone(),
                            VarState {
                                val: Iv::top(),
                                init: Init::Yes,
                            },
                        );
                        st.fields.insert(format!("{base}.{field}"), v);
                    }
                    LValue::Io { conn, index } => {
                        self.eval(value, st);
                        let idx = self.eval(index, st);
                        self.io_access(conn, idx, true, st);
                    }
                    LValue::Data(name) => {
                        let v = self.eval(value, st);
                        st.cells.insert(format!("data.{name}"), v);
                    }
                    LValue::Attr(name) => {
                        let v = self.eval(value, st);
                        st.cells.insert(format!("attr.{name}"), v);
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
                        self.unfix_if(|| {
                            any_site_block(then_blk, &mut is_io)
                                || else_blk
                                    .as_ref()
                                    .is_some_and(|b| any_site_block(b, &mut is_io))
                        });
                        let mut other = st.clone();
                        self.exec_block(then_blk, st);
                        if let Some(e) = else_blk {
                            self.exec_block(e, &mut other);
                        }
                        let left = Skip::of(st.flow).max(Skip::of(other.flow));
                        Self::join_branch(st, other);
                        if st.flow == Flow::Normal {
                            self.skip = self.skip.max(left);
                        }
                    }
                }
            }
            Stmt::While { cond, body, line } => {
                self.exec_loop(*line, Some(cond), None, body, st);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                let mut for_shadow: Shadow = Vec::new();
                if let Some(i) = init {
                    self.exec_stmt(i, st, &mut for_shadow);
                }
                self.exec_loop(*line, cond.as_ref(), step.as_deref(), body, st);
                restore(for_shadow, st);
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
    /// havoc, widening touched io counters to unbounded. The condition's
    /// IO is ordered at the loop's `line`.
    fn exec_loop(
        &mut self,
        line: u32,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &Block,
        st: &mut State,
    ) {
        self.loop_breaks.push(Vec::new());
        self.loop_continues.push(Vec::new());
        let outer_skip = self.skip;
        let mut exits: Vec<State> = Vec::new();
        let mut fuel = LOOP_FUEL;
        loop {
            self.cur_line = line;
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
                // Out of fuel the order is lost; with an unknown trip count,
                // only if the loop does IO.
                self.unfix_if(|| {
                    t == Tri::True
                        || any_site_block(body, &mut is_io)
                        || step.is_some_and(|s| any_site_stmt(s, &mut is_io))
                });
                let mut assigned = HashSet::new();
                let mut note = |site| {
                    if let Site::Assign(name) = site {
                        assigned.insert(name);
                    }
                    false
                };
                any_site_block(body, &mut note);
                if let Some(s) = step {
                    any_site_stmt(s, &mut note);
                }
                st.havoc(&assigned);
                let io_before = st.io.clone();
                self.exec_block(body, st);
                self.drain_continues(st);
                if st.flow == Flow::Returned {
                    // The loop may also not run, and leave normally.
                    self.skip = Skip::Call;
                }
                if st.flow == Flow::Normal {
                    if let Some(s) = step {
                        let mut sh = Vec::new();
                        self.exec_stmt(s, st, &mut sh);
                    }
                }
                st.havoc(&assigned);
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
            if self.skip == Skip::Iteration {
                self.skip = outer_skip;
            }
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
        if self.skip != Skip::Call {
            self.skip = outer_skip;
        }
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

/// The ports helper `name` can reach, directly or through the helpers it
/// calls, each with whether it writes (`true`) or reads (`false`) there.
fn reachable_ports<'u>(unit: &'u Unit, name: &str) -> Vec<(&'u str, bool)> {
    let mut ports = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut todo = vec![name];
    while let Some(n) = todo.pop() {
        let Some(f) = unit.funcs.iter().find(|f| f.name == n) else {
            continue;
        };
        if seen.contains(&f.name.as_str()) {
            continue;
        }
        seen.push(&f.name);
        any_site_block(&f.body, &mut |site| {
            match site {
                Site::Read(c) => ports.push((c, false)),
                Site::Write(c) => ports.push((c, true)),
                Site::Call(callee) => todo.push(callee),
                Site::Assign(_) => {}
            }
            false
        });
    }
    ports
}

/// A place in the AST that moves tokens (a port read or write, or a
/// helper call, which may do either) or assigns a local or its field.
enum Site<'s> {
    Read(&'s str),
    Write(&'s str),
    Call(&'s str),
    Assign(&'s str),
}

/// Whether a site is IO, a helper call counting as IO.
fn is_io(site: Site) -> bool {
    !matches!(site, Site::Assign(_))
}

/// Offer every [`Site`] in `b` to `f` until it returns `true`; return
/// whether it did.
fn any_site_block<'s>(b: &'s Block, f: &mut impl FnMut(Site<'s>) -> bool) -> bool {
    b.stmts.iter().any(|s| any_site_stmt(s, f))
}

fn any_site_stmt<'s>(s: &'s Stmt, f: &mut impl FnMut(Site<'s>) -> bool) -> bool {
    match s {
        Stmt::Decl { name, init, .. } => {
            f(Site::Assign(name)) || init.as_ref().is_some_and(|e| any_site_expr(e, f))
        }
        Stmt::Assign { target, value, .. } => {
            any_site_expr(value, f)
                || match target {
                    LValue::Io { conn, index } => f(Site::Write(conn)) || any_site_expr(index, f),
                    LValue::Mem(e) => any_site_expr(e, f),
                    LValue::Var(name) | LValue::Field(name, _) => f(Site::Assign(name)),
                    LValue::Data(_) | LValue::Attr(_) => false,
                }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            any_site_expr(cond, f)
                || any_site_block(then_blk, f)
                || else_blk.as_ref().is_some_and(|b| any_site_block(b, f))
        }
        Stmt::While { cond, body, .. } => any_site_expr(cond, f) || any_site_block(body, f),
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            init.as_deref().is_some_and(|s| any_site_stmt(s, f))
                || cond.as_ref().is_some_and(|e| any_site_expr(e, f))
                || step.as_deref().is_some_and(|s| any_site_stmt(s, f))
                || any_site_block(body, f)
        }
        Stmt::Return { value, .. } => value.as_ref().is_some_and(|e| any_site_expr(e, f)),
        Stmt::ExprStmt { expr, .. } => any_site_expr(expr, f),
        Stmt::Break { .. } | Stmt::Continue { .. } => false,
        Stmt::Nested(b) => any_site_block(b, f),
    }
}

fn any_site_expr<'s>(e: &'s Expr, f: &mut impl FnMut(Site<'s>) -> bool) -> bool {
    match e {
        Expr::Num(_) | Expr::Var(_) | Expr::Field(..) => false,
        Expr::Unary(_, a) => any_site_expr(a, f),
        Expr::Binary(_, a, b) => any_site_expr(a, f) || any_site_expr(b, f),
        Expr::Call { name, args } => {
            f(Site::Call(name)) || args.iter().any(|a| any_site_expr(a, f))
        }
        Expr::Pedf(PedfExpr::IoRead { conn, index }) => {
            f(Site::Read(conn)) || any_site_expr(index, f)
        }
        Expr::Pedf(PedfExpr::Mem(a) | PedfExpr::Print(a)) => any_site_expr(a, f),
        Expr::Pedf(_) => false,
    }
}

/// Undo a scope's declarations, innermost first.
fn restore(shadow: Shadow, st: &mut State) {
    for (name, old) in shadow.into_iter().rev() {
        match old {
            Some(v) => st.vars.insert(name, v),
            None => st.vars.remove(&name),
        };
    }
}

/// The known value under the key `key()` builds, or unknown.
fn known(m: &HashMap<String, Iv>, key: impl FnOnce() -> String) -> Iv {
    if m.is_empty() {
        return Iv::top();
    }
    m.get(&key()).copied().unwrap_or_else(Iv::top)
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
        io_order: Some(Vec::new()),
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
        order: Some(Vec::new()),
        skip: Skip::None,
        depth: 0,
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
    report.io_order = interp.order;
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

    /// A token read into an `I32` may be negative, so the push under
    /// `v < 0` may happen: `out` is used, at up to one token.
    #[test]
    fn signed_compare_on_an_unknown_token_may_push() {
        let r = analyze(
            "void work() {\n\
             I32 v = pedf.io.x[0];\n\
             if (v < 0) { pedf.io.out[0] = 1; }\n\
             }",
        );
        let out = port(&r, "out");
        assert_eq!((out.writes.min, out.writes.max), (0, Some(1)));
        assert!(out.used);
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

    /// A recursive helper's IO is inlined like any other call's.
    #[test]
    fn recursive_helpers_are_inlined_for_rates() {
        let r = analyze(
            "void emit(U32 n, U32 i) { if (n == 0) { return; } pedf.io.out[i] = n; emit(n - 1, i + 1); }\n\
             void work() { emit(3, 0); }",
        );
        assert_eq!(port(&r, "out").writes.as_exact(), Some(3));
    }

    /// Past the inlining depth the callee's ports are unbounded.
    #[test]
    fn recursion_past_the_depth_limit_widens_the_ports_it_reaches() {
        let r = analyze(
            "U32 get(U32 i) { return pedf.io.in_a[i]; }\n\
             void emit(U32 n, U32 i) { if (n == 0) { return; } pedf.io.out[i] = get(i); emit(n - 1, i + 1); }\n\
             void work() { emit(20, 0); }",
        );
        let (w, rd) = (port(&r, "out").writes, port(&r, "in_a").reads);
        assert_eq!((w.min, w.max), (CALL_DEPTH as u32, None));
        assert_eq!(rd.max, None);
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

    /// The fixed order as `pop x` / `push out` strings; `None` when the
    /// order is not fixed.
    fn order(r: &KernelReport) -> Option<Vec<String>> {
        let ops = r.io_order.as_ref()?;
        Some(
            ops.iter()
                .map(|(op, _)| match op {
                    IoOp::Pop { conn } => format!("pop {conn}"),
                    IoOp::Push { conn } => format!("push {conn}"),
                })
                .collect(),
        )
    }

    #[test]
    fn straight_line_io_is_ordered_as_written() {
        let r = analyze(
            "void work() {
    U32 a = pedf.io.x[0];
    pedf.io.out[0] = a + 1;
    U32 b = pedf.io.x[1];
    pedf.io.out2[0] = b;
}",
        );
        assert_eq!(
            order(&r).unwrap(),
            ["pop x", "push out", "pop x", "push out2"]
        );
        let lines: Vec<u32> = r.io_order.unwrap().iter().map(|(_, l)| *l).collect();
        assert_eq!(lines, [2, 3, 4, 5]);
    }

    #[test]
    fn window_reads_pop_up_to_the_index_once() {
        // Reading [1] after [0] pops once more; re-reading [0] pops none.
        let r = analyze(
            "void work() {
    U32 a = pedf.io.x[1];
    U32 b = pedf.io.x[0];
    pedf.io.out[0] = a + b;
}",
        );
        assert_eq!(order(&r).unwrap(), ["pop x", "pop x", "push out"]);
        assert_eq!(port(&r, "x").reads.as_exact(), Some(2));
        assert_eq!(port(&r, "out").writes.as_exact(), Some(1));
    }

    #[test]
    fn constant_loops_are_ordered_iteration_by_iteration() {
        let r = analyze(
            "void work() {
    U32 i;
    for (i = 0; i < 3; i = i + 1) {
        pedf.io.out[i] = pedf.io.x[i];
    }
}",
        );
        assert_eq!(
            order(&r).unwrap(),
            ["pop x", "push out", "pop x", "push out", "pop x", "push out"]
        );
    }

    /// The value is evaluated before the index, and both before the push.
    #[test]
    fn a_write_pops_for_its_value_then_its_index_then_pushes() {
        let r = analyze("void work() { pedf.io.out[pedf.io.y[0] * 0] = pedf.io.x[0]; }");
        assert_eq!(order(&r).unwrap(), ["pop x", "pop y", "push out"]);
    }

    /// A token read into an `I32` may be negative: `v < 0` on it is not
    /// decided, so the push under it leaves the order unfixed.
    #[test]
    fn signed_compare_on_an_unknown_token_unfixes_the_order() {
        let r = analyze(
            "void work() {
    I32 v = pedf.io.x[0];
    if (v < 0) { pedf.io.out[0] = 1; }
}",
        );
        assert_eq!(order(&r), None);
    }

    #[test]
    fn unknown_branch_without_io_keeps_the_order() {
        let r = analyze(
            "U32 clip(U32 v) {
    if (v > 255) { return 255; }
    return v;
}
void work() {
    U32 a = pedf.io.x[0];
    pedf.io.out[0] = clip(a * 2);
}",
        );
        assert_eq!(order(&r).unwrap(), ["pop x", "push out"]);
    }

    /// An undecided early exit skips the IO after it up to where its path
    /// rejoins: the rest of the firing for `return` in `work`, the rest of
    /// the loop for `break`, the rest of the iteration for `continue`.
    #[test]
    fn io_after_an_undecided_early_exit_unfixes_the_order() {
        let r = analyze(
            "void work() { U32 a = pedf.io.x[0]; if (a > 10) { return; } pedf.io.out[0] = a; }",
        );
        assert_eq!(order(&r), None);
        let out = port(&r, "out").writes;
        assert_eq!((out.min, out.max), (0, Some(1)));
        for exit in ["break;", "continue;"] {
            let r = analyze(&format!(
                "void work() {{
    U32 i;
    for (i = 0; i < 2; i = i + 1) {{
        U32 a = pedf.io.x[i];
        if (a > 10) {{ {exit} }}
        pedf.io.out[i] = a;
    }}
}}"
            ));
            assert_eq!(order(&r), None, "{exit}");
        }
        // Paths rejoin at the next iteration, after the loop and after
        // the call: the IO there runs on every path.
        let r = analyze(
            "void work() {
    U32 i;
    for (i = 0; i < 1; i = i + 1) {
        if (pedf.io.x[i] > 10) { break; }
    }
    pedf.io.out[0] = 1;
}",
        );
        assert_eq!(order(&r).unwrap(), ["pop x", "push out"]);
        let r = analyze(
            "U32 f(U32 a) { if (a > 10) { return 0; } return a; }
void work() {
    U32 i;
    for (i = 0; i < 2; i = i + 1) {
        U32 a = pedf.io.x[i];
        if (a > 10) { continue; }
        a = a + 1;
    }
    pedf.io.out[0] = f(pedf.io.y[0]);
}",
        );
        assert_eq!(order(&r).unwrap(), ["pop x", "pop x", "pop y", "push out"]);
    }

    #[test]
    fn io_under_an_unknown_branch_unfixes_the_order() {
        let r = analyze(
            "void work() {
    U32 a = pedf.io.x[0];
    if (a > 10) {
        pedf.io.out[0] = a;
    }
}",
        );
        assert_eq!(order(&r), None);
        // A helper call counts as IO, whatever the helper does.
        let r = analyze(
            "U32 twice(U32 v) { return v * 2; }
void work() {
    U32 a = pedf.io.x[0];
    if (a > 10) { a = twice(a); }
    pedf.io.out[0] = a;
}",
        );
        assert_eq!(order(&r), None);
    }

    #[test]
    fn a_deciding_lhs_skips_the_rhs_io() {
        let r = analyze(
            "void work() {
    U32 a = 0 && pedf.io.y[0];
    U32 b = 1 || pedf.io.y[0];
    pedf.io.out[0] = a + b;
}",
        );
        assert_eq!(order(&r).unwrap(), ["push out"]);
        assert!(!r.ports.contains_key("y"));
    }

    #[test]
    fn rhs_io_under_an_unknown_lhs_unfixes_the_order() {
        let r = analyze(
            "void work() {
    U32 f = pedf.io.x[0];
    U32 a = f && pedf.io.y[0];
    pedf.io.out[0] = a;
}",
        );
        assert_eq!(order(&r), None);
        let y = port(&r, "y").reads;
        assert_eq!((y.min, y.max), (0, Some(1)), "the rhs may or may not pop");
    }

    #[test]
    fn data_dependent_loop_with_io_unfixes_the_order() {
        let r = analyze(
            "void work() {
    U32 n = pedf.io.x[0];
    U32 i;
    for (i = 0; i < n; i = i + 1) {
        pedf.io.out[0] = i;
    }
}",
        );
        assert_eq!(order(&r), None);
    }

    #[test]
    fn unknown_read_index_unfixes_the_order() {
        let r = analyze("void work() { U32 n = pedf.io.x[0]; pedf.io.out[0] = pedf.io.y[n]; }");
        assert_eq!(order(&r), None);
        // So does a window too large to record.
        let r = analyze("void work() { pedf.io.out[0] = pedf.io.y[70000]; }");
        assert_eq!(order(&r), None);
    }

    #[test]
    fn a_loop_out_of_fuel_unfixes_the_order() {
        let r = analyze(
            "void work() {
    U32 i;
    for (i = 0; i < 300; i = i + 1) { pedf.print(i); }
    pedf.io.out[0] = 1;
}",
        );
        assert_eq!(order(&r), None);
        let r = analyze(
            "void work() {
    U32 i;
    for (i = 0; i < 256; i = i + 1) { pedf.print(i); }
    pedf.io.out[0] = 1;
}",
        );
        assert_eq!(order(&r).unwrap(), ["push out"]);
    }

    #[test]
    fn controller_primitives_unfix_the_order() {
        let r = analyze("void work() { pedf.io.out[0] = 1; pedf.wait_sync(); }");
        assert_eq!(order(&r), None);
    }

    #[test]
    fn recursion_is_ordered_down_to_the_depth_limit() {
        let r = analyze(
            "void emit(U32 n, U32 i) { if (n == 0) { return; } pedf.io.out[i] = n; emit(n - 1, i + 1); }
void work() { emit(3, 0); }",
        );
        assert_eq!(order(&r).unwrap(), ["push out"; 3]);
        let r = analyze(
            "void emit(U32 n, U32 i) { if (n == 0) { return; } pedf.io.out[i] = n; emit(n - 1, i + 1); }
void work() { emit(20, 0); }",
        );
        assert_eq!(order(&r), None);
    }

    /// Filter state, attributes and struct fields written in the firing
    /// keep their values, so branches on them are decided.
    #[test]
    fn written_state_and_fields_decide_branches() {
        let r = analyze(
            "void work() {
    CbCrMB_t mb;
    mb.Addr = 3;
    pedf.data.k = 2;
    pedf.attribute.a = 1;
    if (pedf.data.k + mb.Addr + pedf.attribute.a == 6) { pedf.io.out[0] = 1; }
}",
        );
        assert_eq!(order(&r).unwrap(), ["push out"]);
        // A whole-struct assignment forgets the fields.
        let r = analyze(
            "void work() {
    CbCrMB_t mb;
    mb.Addr = 3;
    mb = pedf.io.x[0];
    if (mb.Addr == 3) { pedf.io.out[0] = 1; }
}",
        );
        assert_eq!(order(&r), None);
    }

    /// An undecided loop forgets the locals it assigns and all filter
    /// state, but keeps the locals it leaves alone.
    #[test]
    fn an_undecided_loop_forgets_what_it_may_change() {
        let r = analyze(
            "void work() {
    U32 keep = 2;
    U32 i = 0;
    pedf.data.k = 1;
    while (i < pedf.io.x[0]) { i = i + 1; }
    if (keep == 2) { pedf.io.out[0] = 1; }
    if (pedf.data.k == 1) { pedf.io.out2[0] = 1; }
}",
        );
        assert_eq!(order(&r), None, "pedf.data.k is unknown after the loop");
        assert_eq!(port(&r, "out").writes.as_exact(), Some(1));
        let o2 = port(&r, "out2").writes;
        assert_eq!((o2.min, o2.max), (0, Some(1)));
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
