//! Per-kernel execution-time intervals over the linked bytecode.
//!
//! A bounded abstract execution of each filter's `work` function, the
//! path-exploring client of the `bcv::absint` machine (`bcv::image` is
//! the fixpoint one), tracking *cycles* instead of memory ranges:
//! values are `dfa::interval::Iv`, decidable branches are followed (so
//! constant-bound loops unroll exactly), undecidable branches fork both
//! arms under a global state budget, calls are inlined with a depth
//! limit, and every instruction is priced by the platform cost tables
//! (`p2012::cost`) — including the L1/L2/L3 latency of raw memory
//! accesses, bounded through the address interval on the stack, and the
//! nominal cost of runtime stub traps. Blocking time is scheduling, not
//! computation, and is excluded.
//!
//! When the budget runs out (an input-dependent loop), the upper bound
//! is widened to "unbounded" — surfaced as the WCET601 warning — while
//! the best case keeps the minimum over completed paths, which is the
//! only direction the throughput bound needs to stay sound.

use bcv::absint::{self, Control, Frame};
use dfa::interval::Tri;
use p2012::{cost, CodeAddr, MemoryMap, Program};

/// Execution-time interval of one firing, in cycles. `wcet == None`
/// means the worst case could not be bounded within budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBounds {
    pub bcet: u64,
    pub wcet: Option<u64>,
}

/// Abstract steps explored per kernel before widening to unbounded.
const STATE_BUDGET: u32 = 50_000;

/// Inlining depth for calls (mirrors the VM's frame headroom).
const FRAME_BUDGET: usize = 12;

/// One path: its position, inlined call frames (each with the address
/// its caller resumes at) and the cycles spent so far.
#[derive(Clone)]
struct Path {
    pc: CodeAddr,
    frames: Vec<(Frame, CodeAddr)>,
    cost: (u64, u64),
}

/// Analyze one firing starting at `entry` (a `work` function address).
pub fn analyze_entry(program: &Program, map: &MemoryMap, entry: CodeAddr) -> CycleBounds {
    let mut work: Vec<Path> = vec![Path {
        pc: entry,
        frames: vec![(Frame::default(), 0)],
        cost: (0, 0),
    }];
    let mut done: Vec<(u64, u64)> = Vec::new();
    let mut budget = STATE_BUDGET;
    let mut widened = false;

    while let Some(mut st) = work.pop() {
        loop {
            if budget == 0 {
                widened = true;
                work.clear();
                break;
            }
            budget -= 1;
            let Some(insn) = program.fetch(st.pc) else {
                // Fell off the image: bcv's BCV203, not our finding;
                // drop the path.
                break;
            };
            let (frame, _) = st.frames.last_mut().expect("at least the entry frame");
            let effect = absint::exec(insn, frame);
            let addr_bounds = effect.access.and_then(|(addr, _)| {
                let lo = u32::try_from(addr.lo.max(0)).ok()?;
                let hi = u32::try_from(addr.hi).ok()?;
                Some((lo, hi))
            });
            let (lo, hi) = cost::insn_cost(map, &insn, addr_bounds);
            st.cost.0 += u64::from(lo);
            st.cost.1 += u64::from(hi);
            let next = st.pc + 1;
            st.pc = match effect.control {
                Control::Next => next,
                Control::Jump(t) => t,
                Control::Branch { target, taken } => match taken {
                    Tri::True => target,
                    Tri::False => next,
                    Tri::Maybe => {
                        let mut other = st.clone();
                        other.pc = target;
                        work.push(other);
                        next
                    }
                },
                Control::Call { addr, argc } => {
                    let args = frame.stack.split_off(frame.top_start(argc));
                    if st.frames.len() >= FRAME_BUDGET {
                        // Call too deep: the true cost from here is
                        // unknowable.
                        widened = true;
                        break;
                    }
                    let callee = Frame {
                        locals: args,
                        stack: Vec::new(),
                    };
                    st.frames.push((callee, next));
                    addr
                }
                Control::Ret { retc } => {
                    let results = frame.top_start(retc);
                    let (callee, ret_pc) = st.frames.pop().expect("a frame executed the Ret");
                    match st.frames.last_mut() {
                        Some((caller, _)) => {
                            caller.stack.extend_from_slice(&callee.stack[results..]);
                            ret_pc
                        }
                        None => {
                            done.push(st.cost);
                            break;
                        }
                    }
                }
                Control::Halt => {
                    done.push(st.cost);
                    break;
                }
            };
        }
    }

    let bcet = done.iter().map(|c| c.0).min().unwrap_or(1);
    let wcet = if widened {
        None
    } else {
        done.iter().map(|c| c.1).max()
    };
    CycleBounds { bcet, wcet }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2012::Insn;

    fn program(insns: Vec<Insn>) -> Program {
        Program {
            insns,
            funcs: Vec::new(),
        }
    }

    #[test]
    fn straight_line_cost_is_exact() {
        let p = program(vec![
            Insn::Enter(1),
            Insn::Const(3),
            Insn::Const(4),
            Insn::Add,
            Insn::StoreLocal(0),
            Insn::Ret { retc: 0 },
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        assert_eq!(b.bcet, 6);
        assert_eq!(b.wcet, Some(6));
    }

    #[test]
    fn memory_access_is_priced_by_region() {
        let p = program(vec![
            Insn::Const(0x3000_0000), // L3
            Insn::LoadMem,
            Insn::Drop,
            Insn::Ret { retc: 0 },
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        // Const + L3 latency (32) + Drop + Ret.
        assert_eq!(b.bcet, 35);
        assert_eq!(b.wcet, Some(35));
    }

    #[test]
    fn constant_loop_unrolls_without_widening() {
        // i = 0; while (i < 3) { i = i + 1 }
        let p = program(vec![
            Insn::Enter(1),        // 0
            Insn::Const(0),        // 1
            Insn::StoreLocal(0),   // 2
            Insn::LoadLocal(0),    // 3: loop top
            Insn::Const(3),        // 4
            Insn::LtU,             // 5
            Insn::JumpIfZero(12),  // 6
            Insn::LoadLocal(0),    // 7
            Insn::Const(1),        // 8
            Insn::Add,             // 9
            Insn::StoreLocal(0),   // 10
            Insn::Jump(3),         // 11
            Insn::Ret { retc: 0 }, // 12
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        assert_eq!(b.wcet, Some(b.bcet), "decided loop must not fork");
        // 3 header insns + 4 * (4-insn check) + 3 * (5-insn body) + Ret.
        assert_eq!(b.bcet, 3 + 4 * 4 + 3 * 5 + 1);
    }

    #[test]
    fn unknown_branch_widens_the_interval_not_the_bound() {
        let p = program(vec![
            Insn::Const(0x2000_0000), // 0: L2 address
            Insn::LoadMem,            // 1: unknown value
            Insn::JumpIfZero(6),      // 2
            Insn::Const(1),           // 3
            Insn::Const(2),           // 4
            Insn::Add,                // 5
            Insn::Ret { retc: 0 },    // 6
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        // Taken: 1 + 8 + 1 + 1 = 11; fallthrough adds 3 more.
        assert_eq!(b.bcet, 11);
        assert_eq!(b.wcet, Some(14));
    }

    #[test]
    fn unbounded_loop_widens_to_none() {
        // while (mem[L2] != 0) {}
        let p = program(vec![
            Insn::Const(0x2000_0000), // 0
            Insn::LoadMem,            // 1
            Insn::JumpIfNot(0),       // 2
            Insn::Ret { retc: 0 },    // 3
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        assert_eq!(b.wcet, None, "input-dependent loop must widen");
        assert!(b.bcet >= 11, "best case is the straight exit");
    }

    #[test]
    fn bit_not_of_a_constant_decides_a_branch() {
        let p = program(vec![
            Insn::Const(0xffff_ffff), // 0
            Insn::BitNot,             // 1: exactly 0
            Insn::JumpIfZero(6),      // 2: always taken
            Insn::Const(1),           // 3
            Insn::Const(2),           // 4
            Insn::Add,                // 5
            Insn::Ret { retc: 0 },    // 6
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        assert_eq!(b.wcet, Some(b.bcet), "a decided branch must not fork");
        assert_eq!(b.bcet, 4);
    }

    #[test]
    fn calls_are_inlined_and_recursion_is_stuck() {
        // Callee at 4: Enter, Ret. Caller: Call, Ret.
        let p = program(vec![
            Insn::Call { addr: 3, argc: 0 }, // 0
            Insn::Ret { retc: 0 },           // 1
            Insn::Nop,                       // 2
            Insn::Enter(0),                  // 3
            Insn::Ret { retc: 0 },           // 4
        ]);
        let b = analyze_entry(&p, &MemoryMap::default(), 0);
        assert_eq!(b.wcet, Some(4), "call + enter + ret + ret");

        let rec = program(vec![Insn::Call { addr: 0, argc: 0 }]);
        let b = analyze_entry(&rec, &MemoryMap::default(), 0);
        assert_eq!(b.wcet, None, "unbounded recursion widens");
    }
}
