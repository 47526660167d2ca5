//! The STxP70-mini instruction set: a compact stack machine.
//!
//! The real STxP70 is a configurable VLIW core; its functional simulator
//! executes C semantics, not RTL. What the *debugger* needs from the machine
//! is: a program counter, call frames with named slots, deterministic
//! single-stepping and trap entry points. A stack machine delivers all of
//! that with a trivially verifiable interpreter, so that is the substitution
//! we make (documented in DESIGN.md).
//!
//! Programs are built with [`ProgramBuilder`], which handles forward-label
//! patching and records per-function frame sizes used by the VM prologue.

use debuginfo::{CodeAddr, Word};

/// One bytecode instruction.
///
/// Arithmetic/comparison instructions pop their operands (right-hand side
/// first) and push one result. Comparisons push `1` or `0`. Division and
/// remainder by zero raise [`crate::vm::VmFault::DivideByZero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// Function prologue: grow the current frame's locals to `n` slots.
    /// Must be the first instruction of every function.
    Enter(u16),
    /// Push an immediate word.
    Const(Word),
    /// Push local slot `n`.
    LoadLocal(u16),
    /// Pop into local slot `n`.
    StoreLocal(u16),
    /// Pop a dynamic offset, push local slot `base + offset`. Used for
    /// struct-member and local-array access with computed indexes.
    LoadLocalIdx(u16),
    /// Pop a value then a dynamic offset, store into `base + offset`.
    StoreLocalIdx(u16),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Swap the two top stack slots.
    Swap,

    // Arithmetic (wrapping, 32-bit).
    Add,
    Sub,
    Mul,
    /// Signed division.
    Div,
    /// Signed remainder.
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    /// Arithmetic (sign-propagating) right shift.
    Sar,
    /// Two's-complement negate.
    Neg,
    /// Logical not: 0 -> 1, nonzero -> 0.
    Not,
    /// Bitwise complement.
    BitNot,

    // Comparisons. Signed variants interpret operands as i32.
    Eq,
    Ne,
    LtS,
    LeS,
    GtS,
    GeS,
    LtU,
    GeU,

    /// Unconditional jump.
    Jump(CodeAddr),
    /// Pop; jump when zero.
    JumpIfZero(CodeAddr),
    /// Pop; jump when nonzero.
    JumpIfNot(CodeAddr),
    /// Call `addr`, popping `argc` arguments into the callee's first locals
    /// (argument 0 in slot 0).
    Call {
        addr: CodeAddr,
        argc: u8,
    },
    /// Return, pushing `retc` (0 or 1) values from the callee stack onto the
    /// caller stack.
    Ret {
        retc: u8,
    },

    /// Pop a word address, push the loaded word (goes through the memory
    /// hierarchy; stalls the PE by the region's latency).
    LoadMem,
    /// Pop a value then a word address, store the value.
    StoreMem,

    /// Call into the runtime: `argc` operands are *peeked* (left on the
    /// stack) so a blocking trap can be retried; on completion the VM pops
    /// them and pushes `retc` results.
    Trap {
        id: u16,
        argc: u8,
        retc: u8,
    },

    /// Stop this PE permanently.
    Halt,
    Nop,
}

/// Metadata for one function in the image, used by the loader and debugger.
#[derive(Debug, Clone)]
pub struct FuncMeta {
    pub addr: CodeAddr,
    pub end: CodeAddr,
    pub argc: u8,
}

/// A linked program image: a flat instruction array shared by every PE
/// (the P2012 functional simulator links one binary containing application,
/// framework and runtime code).
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub insns: Vec<Insn>,
    pub funcs: Vec<FuncMeta>,
}

impl Program {
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    pub fn fetch(&self, pc: CodeAddr) -> Option<Insn> {
        self.insns.get(pc as usize).copied()
    }

    /// Function metadata covering `addr`, if any.
    pub fn func_at(&self, addr: CodeAddr) -> Option<&FuncMeta> {
        self.func_index(addr).map(|i| &self.funcs[i])
    }

    /// Index in [`Program::funcs`] of the function covering `addr`.
    /// [`ProgramBuilder`] lays functions out in address order without
    /// overlap, so a binary search finds it.
    pub fn func_index(&self, addr: CodeAddr) -> Option<usize> {
        let i = self
            .funcs
            .partition_point(|f| f.addr <= addr)
            .checked_sub(1)?;
        (addr < self.funcs[i].end).then_some(i)
    }
}

/// Unresolved jump target used during construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Builder assembling a [`Program`] with forward labels.
///
/// The kernel compiler and the runtime-stub generator both target this
/// interface; `finish` verifies every label was bound, making unresolved
/// control flow a build-time panic instead of a runtime fault.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insns: Vec<Insn>,
    funcs: Vec<FuncMeta>,
    labels: Vec<Option<CodeAddr>>,
    patches: Vec<(usize, Label)>,
    current_func: Option<(CodeAddr, u8)>,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current emission address.
    pub fn here(&self) -> CodeAddr {
        self.insns.len() as CodeAddr
    }

    /// Begin a function; its extent closes at the next `begin_func` or at
    /// `finish`. Returns the entry address.
    pub fn begin_func(&mut self, argc: u8) -> CodeAddr {
        self.close_func();
        let addr = self.here();
        self.current_func = Some((addr, argc));
        addr
    }

    fn close_func(&mut self) {
        if let Some((addr, argc)) = self.current_func.take() {
            self.funcs.push(FuncMeta {
                addr,
                end: self.here(),
                argc,
            });
        }
    }

    pub fn emit(&mut self, i: Insn) -> CodeAddr {
        let at = self.here();
        self.insns.push(i);
        at
    }

    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Bind `label` to the current address.
    pub fn bind(&mut self, label: Label) {
        debug_assert!(self.labels[label.0 as usize].is_none(), "label bound twice");
        self.labels[label.0 as usize] = Some(self.here());
    }

    pub fn jump(&mut self, label: Label) {
        let at = self.emit(Insn::Jump(0));
        self.patches.push((at as usize, label));
    }

    pub fn jump_if_zero(&mut self, label: Label) {
        let at = self.emit(Insn::JumpIfZero(0));
        self.patches.push((at as usize, label));
    }

    pub fn jump_if_not(&mut self, label: Label) {
        let at = self.emit(Insn::JumpIfNot(0));
        self.patches.push((at as usize, label));
    }

    /// Rewrite the `Enter` placeholder at `at` once the function's final
    /// frame size is known (compilers discover locals while walking the
    /// body).
    ///
    /// # Panics
    /// Panics if the instruction at `at` is not an `Enter`.
    pub fn patch_enter(&mut self, at: CodeAddr, locals: u16) {
        match &mut self.insns[at as usize] {
            Insn::Enter(n) => *n = locals,
            other => panic!("patch_enter target is {other:?}"),
        }
    }

    /// Resolve all labels and freeze the image.
    ///
    /// # Panics
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Program {
        self.close_func();
        for (at, label) in &self.patches {
            let target = self.labels[label.0 as usize].expect("unbound label referenced by a jump");
            match &mut self.insns[*at] {
                Insn::Jump(t) | Insn::JumpIfZero(t) | Insn::JumpIfNot(t) => *t = target,
                other => panic!("patch target is not a jump: {other:?}"),
            }
        }
        Program {
            insns: self.insns,
            funcs: self.funcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_patches_forward_labels() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        let end = b.new_label();
        b.emit(Insn::Const(0));
        b.jump_if_zero(end);
        b.emit(Insn::Nop);
        b.bind(end);
        b.emit(Insn::Halt);
        let p = b.finish();
        assert_eq!(p.fetch(2), Some(Insn::JumpIfZero(4)));
        assert_eq!(p.fetch(4), Some(Insn::Halt));
    }

    #[test]
    fn function_extents_close_properly() {
        let mut b = ProgramBuilder::new();
        let f1 = b.begin_func(2);
        b.emit(Insn::Enter(2));
        b.emit(Insn::Ret { retc: 0 });
        let f2 = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Halt);
        let p = b.finish();
        assert_eq!(p.func_at(f1).unwrap().argc, 2);
        assert_eq!(p.func_at(f1).unwrap().end, f2);
        assert_eq!(p.func_at(f2 + 1).unwrap().addr, f2);
        assert!(p.func_at(99).is_none());
    }

    #[test]
    fn an_empty_function_covers_no_address() {
        let mut b = ProgramBuilder::new();
        b.begin_func(1); // closed at once: [0, 0)
        let f = b.begin_func(0);
        b.emit(Insn::Halt);
        b.begin_func(0); // [1, 1), at the end of the image
        let p = b.finish();
        assert_eq!(p.funcs.len(), 3);
        assert_eq!(p.func_index(f), Some(1));
        assert_eq!(p.func_at(f).unwrap().argc, 0);
        assert_eq!(p.func_index(1), None);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.jump(l);
        let _ = b.finish();
    }
}
