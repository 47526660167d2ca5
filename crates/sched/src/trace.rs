//! Ordered per-firing IO traces, extracted from the kernel AST.
//!
//! The `dfa` kernel pass derives token *rates* (how many per firing) but
//! joins control-flow paths, deliberately forgetting *order*. Buffer
//! sizing needs order: whether `red` pushes its second token before or
//! after `pipe` can pop the first decides whether capacity 1 deadlocks.
//! This pass re-interprets the AST with the same interval lattice
//! (`dfa::interval::Iv`), but follows one concrete path wherever branches
//! are decidable and *refuses* to guess where they are not: a kernel
//! whose IO depends on an unknown condition is marked inexact and its
//! links are excluded from capacity analysis (`dfa` rule DFA007 is the
//! rate-side twin of this bail-out).
//!
//! Semantics mirrored from the PEDF runtime (`pedf::runtime`):
//!
//! * a write `pedf.io.c[i] = v` pushes exactly one token when the
//!   assignment executes (order of assignments = order of pushes);
//! * a read `pedf.io.c[i]` extends the connection's read window to index
//!   `i`, popping `i + 1 - already_popped` tokens from the FIFO (the
//!   window frees FIFO slots immediately and resets between firings).

use std::collections::HashMap;

use dfa::interval::{Iv, Tri};
use kernelc::ast::{BinOp, Block, Expr, Func, LValue, PedfExpr, Stmt, Unit};

/// One unit token operation, in program order.
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

/// The ordered unit-IO trace of one `work()` firing.
#[derive(Debug, Clone, Default)]
pub struct KernelTrace {
    /// Unit operations with the source line they originate from.
    pub ops: Vec<(IoOp, u32)>,
    /// True when the trace is the *only* possible firing behaviour.
    /// False when IO sat under an undecidable branch or the interpreter
    /// ran out of fuel — rates may still be derivable, order is not.
    pub exact: bool,
}

impl KernelTrace {
    /// Tokens popped per firing from `conn` (the dfa rate, re-derived
    /// from the ordered trace — the two are cross-checked in tests).
    pub fn pops(&self, conn: &str) -> u32 {
        self.count(conn, false)
    }

    /// Tokens pushed per firing into `conn`.
    pub fn pushes(&self, conn: &str) -> u32 {
        self.count(conn, true)
    }

    fn count(&self, conn: &str, push: bool) -> u32 {
        self.ops
            .iter()
            .filter(|(op, _)| matches!(op, IoOp::Push { .. }) == push && op.conn() == conn)
            .count() as u32
    }
}

const LOOP_FUEL: u32 = 256;
const CALL_DEPTH: u32 = 12;

/// Why a statement sequence stopped.
enum Flow {
    Normal,
    Return(Iv),
    Break,
    Continue,
}

struct Tracer<'a> {
    unit: &'a Unit,
    vars: HashMap<String, Iv>,
    popped: HashMap<String, u32>,
    ops: Vec<(IoOp, u32)>,
    exact: bool,
    depth: u32,
}

/// Extract the ordered IO trace of `work()` in `unit`. Helpers are
/// inlined (their IO, if any, lands in the caller's trace). Kernels with
/// no `work` function yield an empty exact trace.
pub fn trace_work(unit: &Unit) -> KernelTrace {
    let mut t = Tracer {
        unit,
        vars: HashMap::new(),
        popped: HashMap::new(),
        ops: Vec::new(),
        exact: true,
        depth: 0,
    };
    if let Some(work) = unit.funcs.iter().find(|f| f.name == "work") {
        t.exec_func(work, &[]);
    }
    KernelTrace {
        ops: t.ops,
        exact: t.exact,
    }
}

/// Does this block (recursively) contain any token IO? Used to decide
/// whether an undecidable branch poisons the trace or merely the values.
fn block_has_io(b: &Block) -> bool {
    b.stmts.iter().any(stmt_has_io)
}

fn stmt_has_io(s: &Stmt) -> bool {
    match s {
        Stmt::Decl { init, .. } => init.as_ref().is_some_and(expr_has_io),
        Stmt::Assign { target, value, .. } => {
            matches!(target, LValue::Io { .. }) || expr_has_io(value) || lvalue_has_io(target)
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            expr_has_io(cond)
                || block_has_io(then_blk)
                || else_blk.as_ref().is_some_and(block_has_io)
        }
        Stmt::While { cond, body, .. } => expr_has_io(cond) || block_has_io(body),
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            init.as_deref().is_some_and(stmt_has_io)
                || cond.as_ref().is_some_and(expr_has_io)
                || step.as_deref().is_some_and(stmt_has_io)
                || block_has_io(body)
        }
        Stmt::Return { value, .. } => value.as_ref().is_some_and(expr_has_io),
        Stmt::ExprStmt { expr, .. } => expr_has_io(expr),
        Stmt::Break { .. } | Stmt::Continue { .. } => false,
        Stmt::Nested(b) => block_has_io(b),
    }
}

fn lvalue_has_io(l: &LValue) -> bool {
    match l {
        LValue::Io { .. } => true,
        LValue::Mem(e) => expr_has_io(e),
        _ => false,
    }
}

fn expr_has_io(e: &Expr) -> bool {
    match e {
        Expr::Num(_) | Expr::Var(_) | Expr::Field(..) => false,
        Expr::Unary(_, a) => expr_has_io(a),
        Expr::Binary(_, a, b) => expr_has_io(a) || expr_has_io(b),
        // A helper call may reach IO through its body; the conservative
        // answer keeps the bail-out sound without interprocedural scans.
        Expr::Call { .. } => true,
        Expr::Pedf(p) => match p {
            PedfExpr::IoRead { .. } => true,
            PedfExpr::Mem(e) | PedfExpr::Print(e) => expr_has_io(e),
            _ => false,
        },
    }
}

impl<'a> Tracer<'a> {
    fn exec_func(&mut self, f: &Func, args: &[(String, Iv)]) -> Iv {
        let saved: Vec<_> = args
            .iter()
            .map(|(name, v)| {
                let old = self.vars.insert(name.clone(), *v);
                (name.clone(), old)
            })
            .collect();
        let flow = self.exec_block(&f.body);
        let ret = match flow {
            Flow::Return(v) => v,
            _ => Iv::top(),
        };
        for (name, old) in saved {
            match old {
                Some(v) => self.vars.insert(name, v),
                None => self.vars.remove(&name),
            };
        }
        ret
    }

    fn exec_block(&mut self, b: &Block) -> Flow {
        for s in &b.stmts {
            match self.exec_stmt(s) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Flow {
        match s {
            Stmt::Decl { name, init, .. } => {
                let v = init.as_ref().map_or(Iv::top(), |e| self.eval(e, s.line()));
                self.vars.insert(name.clone(), v);
                Flow::Normal
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                // The runtime evaluates the right-hand side (pops happen
                // here) before the push of an io assignment.
                let v = self.eval(value, *line);
                match target {
                    LValue::Var(name) => {
                        self.vars.insert(name.clone(), v);
                    }
                    LValue::Field(var, field) => {
                        self.vars.insert(format!("{var}.{field}"), v);
                    }
                    LValue::Io { conn, index } => {
                        // One token per executed assignment, whatever the
                        // index (the runtime pushes token-at-a-time).
                        self.eval(index, *line);
                        self.ops.push((IoOp::Push { conn: conn.clone() }, *line));
                    }
                    LValue::Data(name) => {
                        self.vars.insert(format!("pedf.data.{name}"), v);
                    }
                    LValue::Attr(name) => {
                        self.vars.insert(format!("pedf.attr.{name}"), v);
                    }
                    LValue::Mem(addr) => {
                        self.eval(addr, *line);
                    }
                }
                Flow::Normal
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                line,
            } => {
                let c = self.eval(cond, *line);
                match c.truth() {
                    Tri::True => self.exec_block(then_blk),
                    Tri::False => match else_blk {
                        Some(b) => self.exec_block(b),
                        None => Flow::Normal,
                    },
                    Tri::Maybe => {
                        if block_has_io(then_blk) || else_blk.as_ref().is_some_and(block_has_io) {
                            // Token order depends on data we cannot see.
                            self.exact = false;
                            return Flow::Return(Iv::top());
                        }
                        // No IO at stake: run both arms on the same store
                        // and join the resulting values.
                        let before = self.vars.clone();
                        let ft = self.exec_block(then_blk);
                        let after_then = std::mem::replace(&mut self.vars, before);
                        let fe = match else_blk {
                            Some(b) => self.exec_block(b),
                            None => Flow::Normal,
                        };
                        for (k, v) in after_then {
                            let joined = match self.vars.get(&k) {
                                Some(w) => Iv::join(v, *w),
                                None => Iv::top(),
                            };
                            self.vars.insert(k, joined);
                        }
                        // Divergent early exits on an unknown branch lose
                        // path sensitivity; fall through pessimistically.
                        let (_, _) = (ft, fe);
                        Flow::Normal
                    }
                }
            }
            Stmt::While { cond, body, line } => self.exec_loop(None, Some(cond), None, body, *line),
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                if let Some(i) = init {
                    if let f @ (Flow::Return(_) | Flow::Break | Flow::Continue) = self.exec_stmt(i)
                    {
                        return f;
                    }
                }
                self.exec_loop(None, cond.as_ref(), step.as_deref(), body, *line)
            }
            Stmt::Return { value, line } => {
                let v = value.as_ref().map_or(Iv::top(), |e| self.eval(e, *line));
                Flow::Return(v)
            }
            Stmt::ExprStmt { expr, line } => {
                self.eval(expr, *line);
                Flow::Normal
            }
            Stmt::Break { .. } => Flow::Break,
            Stmt::Continue { .. } => Flow::Continue,
            Stmt::Nested(b) => self.exec_block(b),
        }
    }

    fn exec_loop(
        &mut self,
        _init: Option<()>,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &Block,
        line: u32,
    ) -> Flow {
        let mut fuel = LOOP_FUEL;
        loop {
            let truth = match cond {
                Some(c) => self.eval(c, line).truth(),
                None => Tri::True,
            };
            match truth {
                Tri::False => return Flow::Normal,
                Tri::Maybe => {
                    if block_has_io(body) || step.is_some_and(stmt_has_io) {
                        self.exact = false;
                        return Flow::Return(Iv::top());
                    }
                    // Unknown trip count without IO: havoc everything the
                    // loop could have written and move on.
                    self.havoc();
                    return Flow::Normal;
                }
                Tri::True => {}
            }
            if fuel == 0 {
                // A provably-spinning (or too-deep) loop; order beyond
                // here is unknowable within budget.
                self.exact = false;
                return Flow::Return(Iv::top());
            }
            fuel -= 1;
            match self.exec_block(body) {
                Flow::Break => return Flow::Normal,
                Flow::Return(v) => return Flow::Return(v),
                Flow::Normal | Flow::Continue => {}
            }
            if let Some(s) = step {
                if let Flow::Return(v) = self.exec_stmt(s) {
                    return Flow::Return(v);
                }
            }
        }
    }

    fn havoc(&mut self) {
        for v in self.vars.values_mut() {
            *v = Iv::top();
        }
    }

    fn eval(&mut self, e: &Expr, line: u32) -> Iv {
        match e {
            Expr::Num(n) => Iv::exact(i64::from(*n)),
            Expr::Var(name) => self.vars.get(name).copied().unwrap_or_else(Iv::top),
            Expr::Field(var, field) => self
                .vars
                .get(&format!("{var}.{field}"))
                .copied()
                .unwrap_or_else(Iv::top),
            Expr::Unary(op, a) => {
                let v = self.eval(a, line);
                Iv::unary(*op, v)
            }
            Expr::Binary(op, a, b) => {
                let x = self.eval(a, line);
                // `&&` and `||` short-circuit as in kernelc's code
                // generator: the rhs (and its pops) runs only when the lhs
                // does not decide. On an unknown lhs, IO in the rhs makes
                // the order unknowable, as under an unknown `if`.
                let skip = match op {
                    BinOp::LAnd => Some(Tri::False),
                    BinOp::LOr => Some(Tri::True),
                    _ => None,
                };
                match (skip, x.truth()) {
                    (Some(skip), t) if t == skip => Iv::from_bool(*op == BinOp::LOr),
                    (Some(_), Tri::Maybe) if expr_has_io(b) => {
                        self.exact = false;
                        Iv::boolean()
                    }
                    _ => {
                        let y = self.eval(b, line);
                        Iv::binary(*op, x, y)
                    }
                }
            }
            Expr::Call { name, args } => {
                let vals: Vec<Iv> = args.iter().map(|a| self.eval(a, line)).collect();
                let Some(f) = self.unit.funcs.iter().find(|f| &f.name == name) else {
                    return Iv::top();
                };
                if self.depth >= CALL_DEPTH || f.params.len() != vals.len() {
                    self.exact = self.exact && !block_has_io(&f.body);
                    return Iv::top();
                }
                let bound: Vec<(String, Iv)> =
                    f.params.iter().map(|(n, _)| n.clone()).zip(vals).collect();
                self.depth += 1;
                let r = self.exec_func(f, &bound);
                self.depth -= 1;
                r
            }
            Expr::Pedf(p) => match p {
                PedfExpr::IoRead { conn, index } => {
                    let idx = self.eval(index, line);
                    match idx.as_exact() {
                        Some(i) if i >= 0 => {
                            let p = self.popped.entry(conn.clone()).or_insert(0);
                            let want = (i as u32) + 1;
                            while *p < want {
                                *p += 1;
                                self.ops.push((IoOp::Pop { conn: conn.clone() }, line));
                            }
                        }
                        _ => {
                            // Data-dependent read index: pop count unknown.
                            self.exact = false;
                        }
                    }
                    Iv::top()
                }
                PedfExpr::Data(name) => self
                    .vars
                    .get(&format!("pedf.data.{name}"))
                    .copied()
                    .unwrap_or_else(Iv::top),
                PedfExpr::Attr(name) => self
                    .vars
                    .get(&format!("pedf.attr.{name}"))
                    .copied()
                    .unwrap_or_else(Iv::top),
                PedfExpr::Mem(addr) => {
                    self.eval(addr, line);
                    Iv::top()
                }
                PedfExpr::Print(e) => {
                    self.eval(e, line);
                    Iv::top()
                }
                PedfExpr::Available(_) | PedfExpr::Space(_) => Iv::top(),
                // Controller scheduling primitives never appear in filter
                // kernels; seeing one means the trace is not a firing.
                PedfExpr::Run
                | PedfExpr::Start(_)
                | PedfExpr::Sync(_)
                | PedfExpr::Fire(_)
                | PedfExpr::WaitInit
                | PedfExpr::WaitSync
                | PedfExpr::StepBegin
                | PedfExpr::StepEnd => {
                    self.exact = false;
                    Iv::top()
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Unit {
        kernelc::parser::parse(src, &|n| n == "CbCrMB_t").expect("kernel parses")
    }

    fn ops(t: &KernelTrace) -> Vec<String> {
        t.ops
            .iter()
            .map(|(op, _)| match op {
                IoOp::Pop { conn } => format!("pop {conn}"),
                IoOp::Push { conn } => format!("push {conn}"),
            })
            .collect()
    }

    #[test]
    fn straight_line_io_is_traced_in_program_order() {
        let t = trace_work(&parse(
            "void work() {
    U32 a = pedf.io.x[0];
    pedf.io.out[0] = a + 1;
    U32 b = pedf.io.x[1];
    pedf.io.out2[0] = b;
}",
        ));
        assert!(t.exact);
        assert_eq!(ops(&t), ["pop x", "push out", "pop x", "push out2"]);
    }

    #[test]
    fn window_reads_pop_up_to_the_index_once() {
        // Reading [1] after [0] pops once more; re-reading [0] pops none.
        let t = trace_work(&parse(
            "void work() {
    U32 a = pedf.io.x[1];
    U32 b = pedf.io.x[0];
    pedf.io.out[0] = a + b;
}",
        ));
        assert!(t.exact);
        assert_eq!(ops(&t), ["pop x", "pop x", "push out"]);
        assert_eq!(t.pops("x"), 2);
        assert_eq!(t.pushes("out"), 1);
    }

    #[test]
    fn constant_loops_unroll_exactly() {
        let t = trace_work(&parse(
            "void work() {
    U32 i;
    for (i = 0; i < 3; i = i + 1) {
        pedf.io.out[i] = i;
    }
}",
        ));
        assert!(t.exact);
        assert_eq!(ops(&t), ["push out", "push out", "push out"]);
    }

    /// A token read into an `I32` may be negative: `v < 0` on it is not
    /// decided, so the push under it makes the trace inexact.
    #[test]
    fn signed_compare_on_an_unknown_token_is_undecided() {
        let t = trace_work(&parse(
            "void work() {
    I32 v = pedf.io.x[0];
    if (v < 0) { pedf.io.out[0] = 1; }
}",
        ));
        assert!(!t.exact, "traced {:?} as exact", ops(&t));
    }

    #[test]
    fn unknown_branch_without_io_stays_exact() {
        let t = trace_work(&parse(
            "U32 clip(U32 v) {
    if (v > 255) { return 255; }
    return v;
}
void work() {
    U32 a = pedf.io.x[0];
    pedf.io.out[0] = clip(a * 2);
}",
        ));
        assert!(t.exact, "branch on token value has no IO inside");
        assert_eq!(ops(&t), ["pop x", "push out"]);
    }

    #[test]
    fn io_under_unknown_branch_poisons_the_trace() {
        let t = trace_work(&parse(
            "void work() {
    U32 a = pedf.io.x[0];
    if (a > 10) {
        pedf.io.out[0] = a;
    }
}",
        ));
        assert!(!t.exact);
    }

    #[test]
    fn a_deciding_lhs_skips_the_rhs_io() {
        let t = trace_work(&parse(
            "void work() {
    U32 a = 0 && pedf.io.y[0];
    U32 b = 1 || pedf.io.y[0];
    pedf.io.out[0] = a + b;
}",
        ));
        assert!(t.exact);
        assert_eq!(ops(&t), ["push out"]);
    }

    #[test]
    fn rhs_io_under_an_unknown_lhs_poisons_the_trace() {
        let t = trace_work(&parse(
            "void work() {
    U32 f = pedf.io.x[0];
    U32 a = f && pedf.io.y[0];
    pedf.io.out[0] = a;
}",
        ));
        assert!(!t.exact);
        assert!(!ops(&t).contains(&"pop y".to_string()));
    }

    #[test]
    fn data_dependent_loop_with_io_poisons_the_trace() {
        let t = trace_work(&parse(
            "void work() {
    U32 n = pedf.io.x[0];
    U32 i;
    for (i = 0; i < n; i = i + 1) {
        pedf.io.out[0] = i;
    }
}",
        ));
        assert!(!t.exact);
    }
}
