//! The value semantics of the ISA over intervals, written once.
//!
//! [`exec`] applies one instruction to an abstract [`Frame`] (locals and
//! operand stack of [`Iv`]) the way `p2012::vm` applies it to words, and
//! returns what the instruction does to control flow plus what it
//! observed. It decides nothing about paths: which successors to follow,
//! how to join or widen, what a call costs or returns is the business of
//! the analysis that runs it. Two do: [`crate::image`]'s worklist
//! fixpoint (memory intervals) and `sched::wcet`'s path explorer (cycle
//! bounds).
//!
//! Operators go through the one table in [`dfa::interval`]
//! ([`Iv::unary`] / [`Iv::binary`]), shared with the AST interpreters.

use dfa::interval::{Iv, Tri};
use kernelc::ast::{BinOp, UnOp};
use p2012::{CodeAddr, Insn};

/// Abstract locals and operand stack of one call frame.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    pub locals: Vec<Iv>,
    pub stack: Vec<Iv>,
}

impl Frame {
    /// Pop an operand; an empty stack (which the depth pass rules out for
    /// well-formed code) yields the widest value.
    fn pop(&mut self) -> Iv {
        self.stack.pop().unwrap_or_else(Iv::full)
    }

    fn pop_n(&mut self, n: u8) -> Vec<Iv> {
        let keep = self.stack.len().saturating_sub(usize::from(n));
        self.stack.split_off(keep)
    }

    /// The frame slots `base + off` may name, clipped to the frame: empty
    /// when the index provably misses it.
    fn slots(&self, base: u16, off: Iv) -> std::ops::Range<usize> {
        let clip = |v: i64| v.clamp(0, self.locals.len() as i64) as usize;
        let base = i64::from(base);
        clip(base + off.lo)..clip(base + off.hi + 1)
    }
}

/// What an instruction does to control flow.
#[derive(Debug)]
pub enum Control {
    /// Fall through to the next instruction.
    Next,
    Jump(CodeAddr),
    /// A conditional jump to `target`, taken with truth `taken`.
    Branch {
        target: CodeAddr,
        taken: Tri,
    },
    /// A call; `args` were popped from the caller's stack in order.
    Call {
        addr: CodeAddr,
        args: Vec<Iv>,
    },
    /// A return; `results` were popped from the callee's stack in order.
    Ret {
        results: Vec<Iv>,
    },
    Halt,
}

/// The outcome of one abstract step.
#[derive(Debug)]
pub struct Effect {
    pub control: Control,
    /// `(address, is_write)` of a raw memory access.
    pub access: Option<(Iv, bool)>,
    /// A computed local index provably outside the frame: `(base, offset)`.
    pub idx_oob: Option<(u16, Iv)>,
}

/// Apply `insn` to `frame`. Inlined so that each analysis loop sees
/// which effects it ignores.
#[inline]
pub fn exec(insn: Insn, frame: &mut Frame) -> Effect {
    use Insn::*;
    let mut effect = Effect {
        control: Control::Next,
        access: None,
        idx_oob: None,
    };
    match insn {
        Enter(n) => {
            // Fresh locals are zero in the VM.
            if frame.locals.len() < usize::from(n) {
                frame.locals.resize(usize::from(n), Iv::exact(0));
            }
        }
        Const(w) => frame.stack.push(Iv::exact(i64::from(w))),
        LoadLocal(n) => {
            let v = frame.locals.get(usize::from(n)).copied();
            frame.stack.push(v.unwrap_or_else(Iv::full));
        }
        StoreLocal(n) => {
            let v = frame.pop();
            if let Some(slot) = frame.locals.get_mut(usize::from(n)) {
                *slot = v;
            }
        }
        LoadLocalIdx(base) => {
            let off = frame.pop();
            let slots = frame.slots(base, off);
            if slots.is_empty() {
                effect.idx_oob = Some((base, off));
            }
            let v = match slots.len() {
                1 => frame.locals[slots.start],
                _ => Iv::full(),
            };
            frame.stack.push(v);
        }
        StoreLocalIdx(base) => {
            let v = frame.pop();
            let off = frame.pop();
            let slots = frame.slots(base, off);
            if slots.is_empty() {
                effect.idx_oob = Some((base, off));
            }
            // One known slot is written; an unknown one havocs every slot
            // it could alias.
            let v = if slots.len() == 1 { v } else { Iv::full() };
            for l in &mut frame.locals[slots] {
                *l = v;
            }
        }
        Dup => {
            let v = frame.stack.last().copied().unwrap_or_else(Iv::full);
            frame.stack.push(v);
        }
        Drop => {
            frame.pop();
        }
        Swap => {
            let b = frame.pop();
            let a = frame.pop();
            frame.stack.extend([b, a]);
        }
        Add | Sub | Mul | Div | Rem | BitAnd | BitOr | BitXor | Shl | Shr | Sar | Eq | Ne | LtS
        | LeS | GtS | GeS | LtU | GeU => {
            let b = frame.pop();
            let a = frame.pop();
            let op = match insn {
                Add => BinOp::Add,
                Sub => BinOp::Sub,
                Mul => BinOp::Mul,
                Div => BinOp::Div,
                Rem => BinOp::Rem,
                BitAnd => BinOp::BitAnd,
                BitOr => BinOp::BitOr,
                BitXor => BinOp::BitXor,
                Shl => BinOp::Shl,
                Shr | Sar => BinOp::Shr,
                Eq => BinOp::Eq,
                Ne => BinOp::Ne,
                LtS | LtU => BinOp::Lt,
                LeS => BinOp::Le,
                GtS => BinOp::Gt,
                _ => BinOp::Ge,
            };
            // The table's shift is logical; an arithmetic shift agrees
            // with it only on a non-negative operand. The table's ordered
            // comparisons may be signed; the unsigned ones compare words
            // as they are.
            let v = match insn {
                Sar if a.lo < 0 => Iv::full(),
                LtU => Iv::lt(a, b),
                GeU => Iv::le(b, a),
                _ => Iv::binary(op, a, b),
            };
            frame.stack.push(v);
        }
        Neg | Not | BitNot => {
            let op = match insn {
                Neg => UnOp::Neg,
                Not => UnOp::Not,
                _ => UnOp::BitNot,
            };
            let a = frame.pop();
            frame.stack.push(Iv::unary(op, a));
        }
        Jump(t) => effect.control = Control::Jump(t),
        JumpIfZero(target) => {
            let v = Iv::unary(UnOp::Not, frame.pop());
            effect.control = Control::Branch {
                target,
                taken: v.truth(),
            };
        }
        JumpIfNot(target) => {
            let taken = frame.pop().truth();
            effect.control = Control::Branch { target, taken };
        }
        Call { addr, argc } => {
            let args = frame.pop_n(argc);
            effect.control = Control::Call { addr, args };
        }
        Ret { retc } => {
            let results = frame.pop_n(retc);
            effect.control = Control::Ret { results };
        }
        LoadMem => {
            let addr = frame.pop();
            effect.access = Some((addr, false));
            frame.stack.push(Iv::top());
        }
        StoreMem => {
            let _value = frame.pop();
            let addr = frame.pop();
            effect.access = Some((addr, true));
        }
        Trap { argc, retc, .. } => {
            let keep = frame.stack.len().saturating_sub(usize::from(argc));
            frame.stack.truncate(keep);
            frame.stack.extend((0..retc).map(|_| Iv::top()));
        }
        Halt => effect.control = Control::Halt,
        Nop => {}
    }
    effect
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_local_index_havocs_what_it_may_alias_and_reads_full() {
        let mut f = Frame {
            locals: vec![Iv::exact(1), Iv::exact(2), Iv::exact(3)],
            stack: vec![Iv::new(0, 1), Iv::exact(9)],
        };
        let e = exec(Insn::StoreLocalIdx(1), &mut f);
        assert_eq!(e.idx_oob, None);
        assert_eq!(f.locals, [Iv::exact(1), Iv::full(), Iv::full()]);
        f.stack.push(Iv::new(0, 1));
        exec(Insn::LoadLocalIdx(0), &mut f);
        assert_eq!(f.stack, [Iv::full()]);
    }

    #[test]
    fn sar_is_a_logical_shift_only_on_a_non_negative_operand() {
        let mut f = Frame {
            locals: vec![],
            stack: vec![Iv::new(-4, 4), Iv::exact(1), Iv::exact(8), Iv::exact(2)],
        };
        exec(Insn::Sar, &mut f);
        assert_eq!(f.stack.pop(), Some(Iv::exact(2)));
        exec(Insn::Sar, &mut f);
        assert_eq!(f.stack, [Iv::full()]);
    }
}
