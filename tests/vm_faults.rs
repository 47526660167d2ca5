//! The VM's fault points at frame boundaries. Each program runs on one
//! PE until it faults; the test checks the fault and every word the PE
//! feeds [`PeState::hash_state`] after it: pc, status, stall, retired
//! and invocation counts, and per frame its function, return address,
//! locals and operands. A frame layout that lets a callee pop its
//! caller's operands, reads an operand as a local, or leaves a popped
//! frame's words behind shows here as a wrong fault or wrong bytes.

use std::hash::Hasher;

use p2012::{
    hash_debug, CodeAddr, Insn, Memory, MemoryMap, PeState, PeStatus, Program, ProgramBuilder,
    StepEvent, VmFault, Word, MAX_CALL_DEPTH,
};

/// A hasher that keeps the bytes it is fed.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Hasher for Bytes {
    fn finish(&self) -> u64 {
        0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// One frame as the hash sees it: function, return address, locals and
/// operands.
type FrameWords<'a> = (CodeAddr, CodeAddr, &'a [Word], &'a [Word]);

/// The bytes `hash_state` must feed for a faulted PE (no stall, one
/// invocation).
fn expected(pc: CodeAddr, fault: VmFault, retired: u64, frames: &[FrameWords]) -> Vec<u8> {
    let mut h = Bytes::default();
    h.write_u32(pc);
    hash_debug(&mut h, &PeStatus::Faulted(fault));
    h.write_u32(0);
    h.write_u64(retired);
    h.write_u64(1);
    h.write_usize(frames.len());
    for (func, ret_addr, locals, operands) in frames {
        h.write_u32(*func);
        h.write_u32(*ret_addr);
        h.write_usize(locals.len());
        for w in *locals {
            h.write_u32(*w);
        }
        h.write_usize(operands.len());
        for w in *operands {
            h.write_u32(*w);
        }
    }
    h.0
}

/// Invoke `entry` with `args` and step until the PE faults.
fn run_to_fault(prog: &Program, entry: CodeAddr, args: &[Word]) -> (VmFault, Vec<u8>) {
    let mut pe = PeState::default();
    let mut mem = Memory::new(MemoryMap::default());
    pe.invoke(entry, args);
    for _ in 0..10_000 {
        match pe.step(prog, &mut mem) {
            StepEvent::Fault(f) => {
                let mut h = Bytes::default();
                pe.hash_state(&mut h);
                return (f, h.0);
            }
            StepEvent::TaskComplete | StepEvent::Halted => panic!("finished without a fault"),
            _ => {}
        }
    }
    panic!("no fault in 10,000 steps");
}

#[test]
fn a_callee_cannot_pop_its_callers_operands() {
    let mut b = ProgramBuilder::new();
    let leaf = b.begin_func(1);
    b.emit(Insn::Enter(1));
    b.emit(Insn::Const(9));
    let add = b.emit(Insn::Add);
    let main = b.begin_func(0);
    b.emit(Insn::Enter(0));
    b.emit(Insn::Const(1));
    b.emit(Insn::Const(2));
    b.emit(Insn::Const(3));
    let call = b.emit(Insn::Call {
        addr: leaf,
        argc: 1,
    });
    let prog = b.finish();

    // `Add` pops 9, then finds its own operands empty; 1 and 2 below
    // belong to `main`.
    let (fault, bytes) = run_to_fault(&prog, main, &[]);
    assert_eq!(fault, VmFault::StackUnderflow);
    let want = expected(
        add,
        fault,
        8,
        &[(main, 0, &[], &[1, 2]), (leaf, call + 1, &[3], &[])],
    );
    assert_eq!(bytes, want);
}

/// A callee whose two locals sit below an operand (55), called from a
/// frame with operands of its own (100, 200); `tail` ends it.
fn indexed_access(tail: &[Insn]) -> (Program, CodeAddr, CodeAddr, CodeAddr, CodeAddr) {
    let mut b = ProgramBuilder::new();
    let leaf = b.begin_func(1);
    b.emit(Insn::Enter(2));
    b.emit(Insn::Const(55));
    let mut last = 0;
    for i in tail {
        last = b.emit(*i);
    }
    let main = b.begin_func(0);
    b.emit(Insn::Enter(0));
    b.emit(Insn::Const(100));
    b.emit(Insn::Const(200));
    b.emit(Insn::Const(11));
    let call = b.emit(Insn::Call {
        addr: leaf,
        argc: 1,
    });
    (b.finish(), leaf, main, call, last)
}

#[test]
fn an_indexed_load_one_past_the_locals_faults() {
    let (prog, leaf, main, call, at) = indexed_access(&[Insn::Const(2), Insn::LoadLocalIdx(0)]);
    // Slot 2 would be the operand 55 if locals and operands were one
    // region; the offset is popped before the check.
    let (fault, bytes) = run_to_fault(&prog, main, &[]);
    assert_eq!(fault, VmFault::LocalOutOfRange { slot: 2 });
    let want = expected(
        at,
        fault,
        9,
        &[
            (main, 0, &[], &[100, 200]),
            (leaf, call + 1, &[11, 0], &[55]),
        ],
    );
    assert_eq!(bytes, want);
}

#[test]
fn an_indexed_store_one_past_the_locals_faults() {
    let (prog, leaf, main, call, at) =
        indexed_access(&[Insn::Const(2), Insn::Const(77), Insn::StoreLocalIdx(0)]);
    // The store must neither land on the operand 55 nor keep its two
    // popped operands.
    let (fault, bytes) = run_to_fault(&prog, main, &[]);
    assert_eq!(fault, VmFault::LocalOutOfRange { slot: 2 });
    let want = expected(
        at,
        fault,
        10,
        &[
            (main, 0, &[], &[100, 200]),
            (leaf, call + 1, &[11, 0], &[55]),
        ],
    );
    assert_eq!(bytes, want);
}

#[test]
fn enter_with_more_arguments_than_locals_is_malformed() {
    let mut b = ProgramBuilder::new();
    let leaf = b.begin_func(2);
    b.emit(Insn::Enter(1));
    let main = b.begin_func(0);
    b.emit(Insn::Enter(0));
    b.emit(Insn::Const(5));
    b.emit(Insn::Const(1));
    b.emit(Insn::Const(2));
    let call = b.emit(Insn::Call {
        addr: leaf,
        argc: 2,
    });
    let prog = b.finish();

    let (fault, bytes) = run_to_fault(&prog, main, &[]);
    assert_eq!(fault, VmFault::MalformedFunction { pc: leaf });
    let want = expected(
        leaf,
        fault,
        6,
        &[(main, 0, &[], &[5]), (leaf, call + 1, &[1, 2], &[])],
    );
    assert_eq!(bytes, want);

    // The same at the top level: `invoke`'s arguments are the locals.
    let (fault, bytes) = run_to_fault(&prog, leaf, &[1, 2]);
    assert_eq!(fault, VmFault::MalformedFunction { pc: leaf });
    assert_eq!(bytes, expected(leaf, fault, 1, &[(leaf, 0, &[1, 2], &[])]));
}

#[test]
fn enter_below_live_operands_keeps_them() {
    let mut b = ProgramBuilder::new();
    let leaf = b.begin_func(1);
    b.emit(Insn::Enter(1));
    b.emit(Insn::Const(5));
    b.emit(Insn::Const(6));
    b.emit(Insn::Enter(3));
    b.emit(Insn::LoadLocal(2));
    let past = b.emit(Insn::LoadLocal(3));
    let main = b.begin_func(0);
    b.emit(Insn::Enter(0));
    b.emit(Insn::Const(1));
    b.emit(Insn::Const(4));
    let call = b.emit(Insn::Call {
        addr: leaf,
        argc: 1,
    });
    let prog = b.finish();

    // The second `Enter` grows the locals to three zero-filled slots
    // under the operands 5 and 6; local 2 reads 0, local 3 is past them.
    let (fault, bytes) = run_to_fault(&prog, main, &[]);
    assert_eq!(fault, VmFault::LocalOutOfRange { slot: 3 });
    let want = expected(
        past,
        fault,
        10,
        &[
            (main, 0, &[], &[1]),
            (leaf, call + 1, &[4, 0, 0], &[5, 6, 0]),
        ],
    );
    assert_eq!(bytes, want);
}

#[test]
fn a_return_short_of_results_drops_the_callee_frame() {
    let mut b = ProgramBuilder::new();
    let leaf = b.begin_func(1);
    b.emit(Insn::Enter(2));
    b.emit(Insn::Const(9));
    let ret = b.emit(Insn::Ret { retc: 2 });
    let main = b.begin_func(0);
    b.emit(Insn::Enter(0));
    b.emit(Insn::Const(1));
    b.emit(Insn::Const(2));
    b.emit(Insn::Call {
        addr: leaf,
        argc: 1,
    });
    let prog = b.finish();

    // The frame is popped before the count is checked, so the fault
    // leaves `main` on top with its one remaining operand.
    let (fault, bytes) = run_to_fault(&prog, main, &[]);
    assert_eq!(fault, VmFault::StackUnderflow);
    assert_eq!(bytes, expected(ret, fault, 7, &[(main, 0, &[], &[1])]));
}

#[test]
fn a_call_at_the_depth_limit_faults_with_its_argument_in_place() {
    // f(k) { 7; f(k + 1) } with no base case: every frame keeps the
    // operand 7 under the argument it passes on.
    let mut b = ProgramBuilder::new();
    let f = b.begin_func(1);
    b.emit(Insn::Enter(1));
    b.emit(Insn::Const(7));
    b.emit(Insn::LoadLocal(0));
    b.emit(Insn::Const(1));
    b.emit(Insn::Add);
    let call = b.emit(Insn::Call { addr: f, argc: 1 });
    let prog = b.finish();

    let (fault, bytes) = run_to_fault(&prog, f, &[0]);
    assert_eq!(fault, VmFault::CallDepthExceeded);
    let locals: Vec<[Word; 1]> = (0..MAX_CALL_DEPTH as Word).map(|k| [k]).collect();
    let last = [7, MAX_CALL_DEPTH as Word];
    let frames: Vec<FrameWords> = locals
        .iter()
        .enumerate()
        .map(|(k, l)| {
            let ret = if k == 0 { 0 } else { call + 1 };
            let ops: &[Word] = if k + 1 == MAX_CALL_DEPTH { &last } else { &[7] };
            (f, ret, &l[..], ops)
        })
        .collect();
    assert_eq!(
        bytes,
        expected(call, fault, 6 * MAX_CALL_DEPTH as u64, &frames)
    );
}
