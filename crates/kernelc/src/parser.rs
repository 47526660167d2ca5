//! Recursive-descent parser for the kernel language.
//!
//! The only context the parser needs is *which identifiers are type names*
//! (for `CbCrMB_t mb;`-style declarations), supplied as a predicate so the
//! parser stays independent of the type table representation.
//!
//! Statements and unary operators descend one function each; binary
//! operators go through one precedence-climbing loop ([`Parser::binary`])
//! over the C precedence table in [`binop`], every level left-associative.
//! Tokens are `Copy` and borrow the source, so the only allocations are
//! the token vector and the AST itself.

use debuginfo::ScalarType;

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};
use crate::CompileError;

/// Hard ceiling on statement/expression nesting. Recursive descent means
/// parser recursion tracks source nesting; without a ceiling a generated
/// kernel like `((((…))))` or a thousand-deep `else if` chain overflows
/// the stack — a crash, where a fuzzer-facing front end must return a
/// `CompileError` (surfaced as a KC001 finding) instead. A parenthesized
/// level costs four frames (`expr`, `binary`, `unary`, `primary`), plus
/// one `binary` frame per operator that binds tighter than the one before
/// it (at most nine more), so the ceiling must stay well under what a
/// 2 MiB debug-build thread stack can absorb; real kernels nest single
/// digits deep.
const MAX_NEST_DEPTH: u32 = 64;

/// The binary operator `t` stands for, with its precedence (higher binds
/// tighter), or `None` when `t` is no binary operator.
fn binop(t: Tok<'_>) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::OrOr => (BinOp::LOr, 0),
        Tok::AndAnd => (BinOp::LAnd, 1),
        Tok::Pipe => (BinOp::BitOr, 2),
        Tok::Caret => (BinOp::BitXor, 3),
        Tok::Amp => (BinOp::BitAnd, 4),
        Tok::EqEq => (BinOp::Eq, 5),
        Tok::Ne => (BinOp::Ne, 5),
        Tok::Lt => (BinOp::Lt, 6),
        Tok::Le => (BinOp::Le, 6),
        Tok::Gt => (BinOp::Gt, 6),
        Tok::Ge => (BinOp::Ge, 6),
        Tok::Shl => (BinOp::Shl, 7),
        Tok::Shr => (BinOp::Shr, 7),
        Tok::Plus => (BinOp::Add, 8),
        Tok::Minus => (BinOp::Sub, 8),
        Tok::Star => (BinOp::Mul, 9),
        Tok::Slash => (BinOp::Div, 9),
        Tok::Percent => (BinOp::Rem, 9),
        _ => return None,
    })
}

pub struct Parser<'src, 'a> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
    depth: u32,
    is_type: &'a dyn Fn(&str) -> bool,
}

impl<'src, 'a> Parser<'src, 'a> {
    pub fn new(src: &'src str, is_type: &'a dyn Fn(&str) -> bool) -> Result<Self, CompileError> {
        let toks = lex(src).map_err(|e| CompileError {
            line: e.line,
            col: e.col,
            msg: e.msg,
        })?;
        Ok(Parser {
            toks,
            pos: 0,
            depth: 0,
            is_type,
        })
    }

    fn enter_nested(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NEST_DEPTH {
            self.err(format!("nesting deeper than {MAX_NEST_DEPTH} levels"))
        } else {
            Ok(())
        }
    }

    fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    fn peek2(&self) -> Tok<'src> {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn col(&self) -> u32 {
        self.toks[self.pos].col
    }

    /// The current token; moves past it unless it is the final `Eof`.
    fn bump(&mut self) -> Tok<'src> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError {
            line: self.line(),
            col: self.col(),
            msg: msg.into(),
        })
    }

    fn expect(&mut self, t: Tok<'_>) -> Result<(), CompileError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    /// An identifier, still borrowed from the source.
    fn ident_str(&mut self) -> Result<&'src str, CompileError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other}"))
            }
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        self.ident_str().map(str::to_string)
    }

    /// Is the current token the start of a type name?
    fn at_type(&self) -> bool {
        match self.peek() {
            Tok::KwVoid => true,
            Tok::Ident(s) => ScalarType::parse(s).is_some() || (self.is_type)(s),
            _ => false,
        }
    }

    fn type_name(&mut self) -> Result<TypeName, CompileError> {
        match self.bump() {
            Tok::KwVoid => Ok(TypeName::Void),
            Tok::Ident(s) => match ScalarType::parse(s) {
                Some(st) => Ok(TypeName::Scalar(st)),
                None if (self.is_type)(s) => Ok(TypeName::Named(s.to_string())),
                None => {
                    self.pos -= 1;
                    self.err(format!("unknown type `{s}`"))
                }
            },
            other => {
                self.pos -= 1;
                self.err(format!("expected type, found {other}"))
            }
        }
    }

    /// Parse a whole unit (sequence of function definitions).
    pub fn unit(&mut self) -> Result<Unit, CompileError> {
        let mut funcs = Vec::new();
        while self.peek() != Tok::Eof {
            funcs.push(self.func()?);
        }
        if funcs.is_empty() {
            return self.err("empty source: expected a function definition");
        }
        Ok(Unit { funcs })
    }

    fn func(&mut self) -> Result<Func, CompileError> {
        let line = self.line();
        let ret = self.type_name()?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                let pty = self.type_name()?;
                if pty == TypeName::Void {
                    return self.err("void parameter");
                }
                let pname = self.ident()?;
                params.push((pname, pty));
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(Func {
            name,
            ret,
            params,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Block, CompileError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Tok::RBrace {
            if self.peek() == Tok::Eof {
                return self.err("unexpected end of file in block");
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // RBrace
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.enter_nested()?;
        let r = self.stmt_inner();
        self.depth -= 1;
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Nested(self.block()?)),
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_blk = self.block()?;
                let else_blk = if self.peek() == Tok::KwElse {
                    self.bump();
                    if self.peek() == Tok::KwIf {
                        // `else if` sugar: wrap in a block.
                        let inner = self.stmt()?;
                        Some(Block { stmts: vec![inner] })
                    } else {
                        Some(self.block()?)
                    }
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    line,
                })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(Tok::Semi)?;
                let cond = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if self.peek() == Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    line,
                })
            }
            Tok::KwReturn => {
                self.bump();
                let value = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break { line })
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue { line })
            }
            _ if self.at_type() && matches!(self.peek2(), Tok::Ident(_)) => {
                let ty = self.type_name()?;
                if ty == TypeName::Void {
                    return self.err("cannot declare a void variable");
                }
                let name = self.ident()?;
                let init = if self.peek() == Tok::Assign {
                    self.bump();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Decl {
                    name,
                    ty,
                    init,
                    line,
                })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(Tok::Semi)?;
                Ok(s)
            }
        }
    }

    /// Assignment or expression statement (no trailing `;`): the bodies of
    /// `for` clauses and ordinary statements.
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let e = self.expr()?;
        if self.peek() == Tok::Assign {
            self.bump();
            let target = self.expr_to_lvalue(e, line)?;
            let value = self.expr()?;
            Ok(Stmt::Assign {
                target,
                value,
                line,
            })
        } else {
            Ok(Stmt::ExprStmt { expr: e, line })
        }
    }

    fn expr_to_lvalue(&self, e: Expr, line: u32) -> Result<LValue, CompileError> {
        match e {
            Expr::Var(name) => Ok(LValue::Var(name)),
            Expr::Field(base, field) => Ok(LValue::Field(base, field)),
            Expr::Pedf(PedfExpr::IoRead { conn, index }) => Ok(LValue::Io { conn, index }),
            Expr::Pedf(PedfExpr::Data(n)) => Ok(LValue::Data(n)),
            Expr::Pedf(PedfExpr::Attr(n)) => Ok(LValue::Attr(n)),
            Expr::Pedf(PedfExpr::Mem(addr)) => Ok(LValue::Mem(addr)),
            _ => Err(CompileError {
                line,
                col: 0,
                msg: "left-hand side is not assignable".into(),
            }),
        }
    }

    // ---- expressions ----------------------------------------------------

    pub fn expr(&mut self) -> Result<Expr, CompileError> {
        self.enter_nested()?;
        let r = self.binary(0);
        self.depth -= 1;
        r
    }

    /// Precedence climbing: a unary operand followed by every binary
    /// operator of precedence `min` or tighter. An operator's right
    /// operand takes only tighter ones, so equal precedences associate
    /// to the left.
    fn binary(&mut self, min: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binop(self.peek()).filter(|&(_, prec)| prec >= min) {
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Bang => Some(UnOp::Not),
            Tok::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            self.enter_nested()?;
            let inner = self.unary();
            self.depth -= 1;
            return Ok(Expr::Unary(op, Box::new(inner?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        match self.bump() {
            Tok::Num(n) => Ok(Expr::Num(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident("pedf") => self.pedf_expr(),
            Tok::Ident(name) => match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call {
                        name: name.to_string(),
                        args,
                    })
                }
                Tok::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    Ok(Expr::Field(name.to_string(), field))
                }
                _ => Ok(Expr::Var(name.to_string())),
            },
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found {other}"))
            }
        }
    }

    /// Everything after the `pedf` keyword.
    fn pedf_expr(&mut self) -> Result<Expr, CompileError> {
        self.expect(Tok::Dot)?;
        let ns = self.ident_str()?;
        let e = match ns {
            "io" => {
                self.expect(Tok::Dot)?;
                let conn = self.ident()?;
                self.expect(Tok::LBracket)?;
                let index = self.expr()?;
                self.expect(Tok::RBracket)?;
                PedfExpr::IoRead {
                    conn,
                    index: Box::new(index),
                }
            }
            "data" => {
                self.expect(Tok::Dot)?;
                PedfExpr::Data(self.ident()?)
            }
            "attribute" => {
                self.expect(Tok::Dot)?;
                PedfExpr::Attr(self.ident()?)
            }
            "mem" => {
                self.expect(Tok::LBracket)?;
                let addr = self.expr()?;
                self.expect(Tok::RBracket)?;
                PedfExpr::Mem(Box::new(addr))
            }
            "available" | "space" | "start" | "sync" | "fire" => {
                self.expect(Tok::LParen)?;
                let arg = self.ident()?;
                self.expect(Tok::RParen)?;
                match ns {
                    "available" => PedfExpr::Available(arg),
                    "space" => PedfExpr::Space(arg),
                    "start" => PedfExpr::Start(arg),
                    "sync" => PedfExpr::Sync(arg),
                    _ => PedfExpr::Fire(arg),
                }
            }
            "print" => {
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                PedfExpr::Print(Box::new(e))
            }
            "run" | "wait_init" | "wait_sync" | "step_begin" | "step_end" => {
                self.expect(Tok::LParen)?;
                self.expect(Tok::RParen)?;
                match ns {
                    "run" => PedfExpr::Run,
                    "wait_init" => PedfExpr::WaitInit,
                    "wait_sync" => PedfExpr::WaitSync,
                    "step_begin" => PedfExpr::StepBegin,
                    _ => PedfExpr::StepEnd,
                }
            }
            other => return self.err(format!("unknown pedf namespace `{other}`")),
        };
        Ok(Expr::Pedf(e))
    }
}

/// Parse a full source unit.
pub fn parse(src: &str, is_type: &dyn Fn(&str) -> bool) -> Result<Unit, CompileError> {
    Parser::new(src, is_type)?.unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_types(_: &str) -> bool {
        false
    }

    fn mb_type(s: &str) -> bool {
        s == "CbCrMB_t"
    }

    #[test]
    fn parses_the_papers_shape() {
        let src = "\
void work() {
    U32 acc = 0;
    U32 i;
    for (i = 0; i < 4; i = i + 1) {
        acc = acc + pedf.io.an_input[i];
    }
    if (acc > 100) {
        pedf.io.an_output[0] = acc;
    } else {
        pedf.io.an_output[0] = 0;
    }
}";
        let u = parse(src, &no_types).unwrap();
        assert_eq!(u.funcs.len(), 1);
        assert_eq!(u.funcs[0].name, "work");
        assert_eq!(u.funcs[0].body.stmts.len(), 4);
    }

    #[test]
    fn struct_locals_and_field_access() {
        let src = "\
void work() {
    CbCrMB_t mb;
    mb = pedf.io.strin[0];
    mb.Addr = mb.Addr + 1;
    pedf.io.strout[0] = mb;
}";
        let u = parse(src, &mb_type).unwrap();
        match &u.funcs[0].body.stmts[1] {
            Stmt::Assign {
                target: LValue::Var(v),
                ..
            } => assert_eq!(v, "mb"),
            other => panic!("{other:?}"),
        }
        match &u.funcs[0].body.stmts[2] {
            Stmt::Assign {
                target: LValue::Field(v, f),
                ..
            } => {
                assert_eq!(v, "mb");
                assert_eq!(f, "Addr");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn controller_constructs() {
        let src = "\
void work() {
    while (pedf.run()) {
        pedf.step_begin();
        if (pedf.attribute.mode == 1) {
            pedf.fire(ipred);
        }
        pedf.wait_init();
        pedf.wait_sync();
        pedf.step_end();
    }
}";
        let u = parse(src, &no_types).unwrap();
        assert_eq!(u.funcs[0].name, "work");
    }

    #[test]
    fn precedence_is_c_like() {
        let u = parse("void f() { U32 x = 1 + 2 * 3 < 7 && 1; }", &no_types).unwrap();
        let Stmt::Decl { init: Some(e), .. } = &u.funcs[0].body.stmts[0] else {
            panic!()
        };
        // (( (1 + (2*3)) < 7 ) && 1)
        let Expr::Binary(BinOp::LAnd, lhs, _) = e else {
            panic!("{e:?}")
        };
        let Expr::Binary(BinOp::Lt, add, _) = lhs.as_ref() else {
            panic!("{lhs:?}")
        };
        let Expr::Binary(BinOp::Add, _, mul) = add.as_ref() else {
            panic!("{add:?}")
        };
        assert!(matches!(mul.as_ref(), Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn helper_functions_with_params() {
        let src = "\
U32 clip(U32 v, U32 hi) {
    if (v > hi) { return hi; }
    return v;
}
void work() {
    pedf.io.o[0] = clip(pedf.io.i[0], 255);
}";
        let u = parse(src, &no_types).unwrap();
        assert_eq!(u.funcs.len(), 2);
        assert_eq!(u.funcs[0].params.len(), 2);
    }

    #[test]
    fn error_reporting_with_lines() {
        let e = parse("void work() {\n  x = ;\n}", &no_types).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("", &no_types).is_err());
        assert!(parse("void f() { 1 + 2 = 3; }", &no_types).is_err());
        assert!(parse("void f() { pedf.bogus(); }", &no_types).is_err());
        assert!(parse("void f(void x) {}", &no_types).is_err());
    }

    #[test]
    fn else_if_chains() {
        let src = "\
void f() {
    if (1) { pedf.print(1); }
    else if (2) { pedf.print(2); }
    else { pedf.print(3); }
}";
        parse(src, &no_types).unwrap();
    }
}
