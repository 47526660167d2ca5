//! Runtime-information capture via function breakpoints (§V).
//!
//! "Our runtime-information capture mechanism relies on internal function
//! breakpoints set at the entry and exit points of the programming-model
//! related functions exported by the dataflow framework. Based on the API
//! definition, calling conventions and debug information, we parse the
//! relevant function arguments."
//!
//! Concretely: every exported `pedf_*` function is a bytecode stub
//! (`Enter; load args; Trap; Ret`). The capture layer
//!
//! 1. resolves the stubs **by name** from the symbol table and locates
//!    their trap instruction from the program image — nothing here uses
//!    the runtime's internals;
//! 2. watches each PE: when its pc enters a stub, the call arguments are
//!    read from the callee frame (entry breakpoint); when the pc passes
//!    the trap, the call has completed and results/out-parameters are read
//!    from the operand stack or the caller frame (the *finish breakpoint*
//!    of §V);
//! 3. converts completed calls into [`DfEvent`]s for the model.
//!
//! WORK entry/exit cannot be observed through stubs (they are scheduled by
//! the runtime, not called), so the capture layer watches each PE's
//! invocation counter — the moral equivalent of a breakpoint on the WORK
//! symbol, with identical information content.
//!
//! The `data_exchange` flag implements §V's first mitigation: "disabling
//! the data exchange breakpoints until the critical part of the execution
//! is reached". Control and scheduling breakpoints stay active.

use std::collections::HashMap;
use std::sync::Arc;

use debuginfo::{CodeAddr, DebugInfo, TypeTable, Word};
use p2012::{Insn, PeId, PeStatus, Platform, Program};
use pedf::{api, ActorId, ActorKind, AppGraph, ConnId, Dir, LinkClass};

use super::model::{DfEvent, InlineSlice};

/// Which framework function a stub implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StubKind {
    RegisterActor,
    RegisterConn,
    RegisterLink,
    BootComplete,
    Push,
    Pop,
    PushStruct,
    PopStruct,
    ActorStart,
    ActorSync,
    ActorFire,
    WaitInit,
    WaitSync,
    StepBegin,
    StepEnd,
    Continue,
    TokensAvailable,
    LinkSpace,
    Print,
}

impl StubKind {
    fn from_name(name: &str) -> Option<StubKind> {
        Some(match name {
            "pedf_register_actor" => StubKind::RegisterActor,
            "pedf_register_conn" => StubKind::RegisterConn,
            "pedf_register_link" => StubKind::RegisterLink,
            "pedf_boot_complete" => StubKind::BootComplete,
            "pedf_push_token" => StubKind::Push,
            "pedf_pop_token" => StubKind::Pop,
            "pedf_push_struct" => StubKind::PushStruct,
            "pedf_pop_struct" => StubKind::PopStruct,
            "pedf_actor_start" => StubKind::ActorStart,
            "pedf_actor_sync" => StubKind::ActorSync,
            "pedf_actor_fire" => StubKind::ActorFire,
            "pedf_wait_actor_init" => StubKind::WaitInit,
            "pedf_wait_actor_sync" => StubKind::WaitSync,
            "pedf_step_begin" => StubKind::StepBegin,
            "pedf_step_end" => StubKind::StepEnd,
            "pedf_continue" => StubKind::Continue,
            "pedf_tokens_available" => StubKind::TokensAvailable,
            "pedf_link_space" => StubKind::LinkSpace,
            "pedf_print" => StubKind::Print,
            _ => return None,
        })
    }

    /// The breakpoints §V identifies as the dominant overhead source.
    pub fn is_data_exchange(self) -> bool {
        matches!(
            self,
            StubKind::Push | StubKind::Pop | StubKind::PushStruct | StubKind::PopStruct
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct StubInfo {
    kind: StubKind,
    entry: CodeAddr,
    end: CodeAddr,
    trap_pc: CodeAddr,
    argc: u8,
}

/// A call currently being monitored on one PE (entry breakpoint hit,
/// finish breakpoint pending).
#[derive(Debug, Clone, Copy)]
struct Pending {
    stub: usize,
    args: [Word; 8],
}

/// The capture's view of one PE.
#[derive(Debug, Clone, Copy, Default)]
struct PeWatch {
    pending: Option<Pending>,
    /// Region the capture decided to ignore (data-exchange stub while
    /// those breakpoints are disabled): avoids re-resolving the same pc
    /// every cycle while a call blocks.
    ignore_region: Option<(CodeAddr, CodeAddr)>,
    /// (invocations, completions) last seen.
    seen: (u64, u64),
}

/// How dataflow events are acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// The paper's mechanism: function breakpoints on the framework API.
    FunctionBreakpoints,
    /// §V's proposed "framework cooperation": the runtime publishes events
    /// directly (ablation).
    RuntimeEvents,
}

/// The resolved framework stubs: fixed once the program is loaded.
#[derive(Debug)]
struct StubTable {
    /// Sorted by entry address (stubs are emitted contiguously).
    stubs: Vec<StubInfo>,
    /// Dense dispatch table over `[lo, hi)`: `lut[pc - lo]` is the
    /// covering stub's index, resolving any in-stub pc with one load
    /// instead of a hash probe plus binary search. Empty when the stub
    /// span is too sparse to justify the memory (then the sorted table is
    /// searched).
    lut: Vec<u16>,
    /// Address range covering every stub: one comparison rules out the
    /// overwhelmingly common case (a PE executing kernel code).
    lo: CodeAddr,
    hi: CodeAddr,
}

/// The capture engine. `Clone` is the time-travel engine's checkpoint of
/// capture state: the per-PE view of in-flight calls and counters, so
/// replays resume observation mid-call without double-reporting. The
/// stub table, the PE -> actor map and the actor filter are shared
/// behind `Arc`, so a clone copies one plain table of a few words per PE.
///
/// `data_exchange` and `actor_filter` are user settings, not recorded
/// history: a restore keeps the live ones ([`Capture::adopt_settings`]).
#[derive(Debug, Clone)]
pub struct Capture {
    pub mode: CaptureMode,
    /// §V mitigation 1: data-exchange breakpoints can be toggled.
    pub data_exchange: bool,
    /// §V mitigation 2 (framework cooperation variant B): restrict
    /// data-exchange interception to the connections of selected actors.
    pub actor_filter: Option<Arc<[ActorId]>>,
    stubs: Arc<StubTable>,
    pes: Vec<PeWatch>,
    /// PE -> actor map, filled once the model's graph is booted.
    pe_actor: Arc<HashMap<PeId, ActorId>>,
    /// Events captured this cycle.
    pub out: Vec<DfEvent>,
}

impl Capture {
    /// Resolve the framework stubs from debug information + program image.
    pub fn new(info: &DebugInfo, program: &Program, pes: usize) -> Self {
        let mut stubs = Vec::new();
        for sym in info.symbols.iter() {
            let Some(kind) = StubKind::from_name(&sym.mangled) else {
                continue;
            };
            // Locate the trap inside the stub body.
            let mut trap_pc = None;
            let mut argc = 0;
            for pc in sym.addr..sym.addr + sym.size {
                if let Some(Insn::Trap { argc: a, .. }) = program.fetch(pc) {
                    trap_pc = Some(pc);
                    argc = a;
                    break;
                }
            }
            let Some(trap_pc) = trap_pc else {
                continue; // not a stub-shaped function; ignore
            };
            stubs.push(StubInfo {
                kind,
                entry: sym.addr,
                end: sym.addr + sym.size,
                trap_pc,
                argc,
            });
        }
        stubs.sort_by_key(|s: &StubInfo| s.entry);
        let stub_lo = stubs.first().map_or(0, |s| s.entry);
        let stub_hi = stubs.iter().map(|s| s.end).max().unwrap_or(0);
        // Stubs are emitted contiguously, so the span is a few words per
        // stub; the dense table stays tiny. The cap is defensive against
        // hand-laid images scattering stubs across the address space.
        const LUT_SPAN_CAP: usize = 1 << 16;
        let span = (stub_hi - stub_lo) as usize;
        let mut stub_lut = Vec::new();
        if !stubs.is_empty() && span <= LUT_SPAN_CAP && stubs.len() < u16::MAX as usize {
            stub_lut = vec![u16::MAX; span];
            for (i, s) in stubs.iter().enumerate() {
                for pc in s.entry..s.end {
                    stub_lut[(pc - stub_lo) as usize] = i as u16;
                }
            }
        }
        Capture {
            mode: CaptureMode::FunctionBreakpoints,
            data_exchange: true,
            actor_filter: None,
            stubs: Arc::new(StubTable {
                stubs,
                lut: stub_lut,
                lo: stub_lo,
                hi: stub_hi,
            }),
            pes: vec![PeWatch::default(); pes],
            pe_actor: Arc::default(),
            out: Vec::new(),
        }
    }

    /// Time travel: `self` (a checkpoint's capture state) is about to
    /// replace `live`; the user's data-exchange settings move across.
    pub fn adopt_settings(&mut self, live: &Capture) {
        self.data_exchange = live.data_exchange;
        self.actor_filter.clone_from(&live.actor_filter);
    }

    pub fn stub_count(&self) -> usize {
        self.stubs.stubs.len()
    }

    /// Called once the model's graph is complete (BootComplete) so work
    /// entry/exit can be attributed to actors.
    pub fn learn_graph(&mut self, graph: &AppGraph) {
        let pe_actor = graph
            .actors
            .iter()
            .filter_map(|a| Some((a.pe?, a.id)))
            .collect();
        self.pe_actor = Arc::new(pe_actor);
    }

    fn stub_covering(&self, pc: CodeAddr) -> Option<usize> {
        // One load in the dense table resolves entry *and* mid-body pcs
        // (mid-body pcs occur when interception is re-enabled or a call
        // blocks). Callers have already range-checked against
        // the stub range.
        let t = &self.stubs;
        if !t.lut.is_empty() {
            let i = *t.lut.get((pc.checked_sub(t.lo)?) as usize)?;
            return (i != u16::MAX).then_some(i as usize);
        }
        // Sparse fallback: binary-search the sorted stub table.
        let i = t.stubs.partition_point(|s| s.entry <= pc);
        let s = t.stubs.get(i.checked_sub(1)?)?;
        (pc < s.end).then_some(i - 1)
    }

    fn wants(&self, kind: StubKind, pe: PeId) -> bool {
        if !kind.is_data_exchange() {
            return true;
        }
        if !self.data_exchange {
            return false;
        }
        match &self.actor_filter {
            None => true,
            Some(actors) => match self.pe_actor.get(&pe) {
                Some(a) => actors.contains(a),
                // PE -> actor mapping not learned yet: keep capturing.
                None => true,
            },
        }
    }

    /// Observe PE `i` after a cycle; push captured events to `out`.
    ///
    /// Only a PE the cycle touched ([`Platform::touched`]) needs a look.
    /// A call into a stub, the trap in it and the return from it, a task
    /// begun or finished and a fault each touch the PE; a PE that kept
    /// its frames and status offers nothing new, since its pc stayed
    /// inside the function it was in. The run loop visits the touched
    /// PEs in index order, which captures the same events in the same
    /// order as a look at every PE would.
    pub fn observe_pe(
        &mut self,
        platform: &Platform,
        graph: &AppGraph,
        types: &TypeTable,
        i: usize,
    ) {
        if self.mode != CaptureMode::FunctionBreakpoints {
            return;
        }
        let pe = &platform.pes[i];
        let pe_id = PeId(i as u16);

        // Finish-breakpoint side: resolve a pending call.
        if let Some(p) = self.pes[i].pending {
            let stub = self.stubs.stubs[p.stub];
            let gone = pe.frame_depth() == 0
                || matches!(pe.status, PeStatus::Faulted(_) | PeStatus::Halted);
            if gone {
                self.pes[i].pending = None;
            } else if pe.pc > stub.trap_pc || pe.pc < stub.entry {
                // The trap committed (pc moved past it, or the stub
                // already returned).
                self.pes[i].pending = None;
                self.complete(platform, graph, types, pe_id, p);
            }
        }

        // Entry-breakpoint side: a PE sitting inside a stub. One range
        // comparison rules out PEs executing ordinary kernel code.
        if self.pes[i].pending.is_none()
            && pe.pc >= self.stubs.lo
            && pe.pc < self.stubs.hi
            && matches!(pe.status, PeStatus::Running | PeStatus::Blocked(_))
        {
            if let Some((lo, hi)) = self.pes[i].ignore_region {
                if pe.pc >= lo && pe.pc < hi {
                    return;
                }
                self.pes[i].ignore_region = None;
            }
            if let Some(si) = self.stub_covering(pe.pc) {
                let stub = self.stubs.stubs[si];
                if pe.pc > stub.trap_pc {
                    // Missed the call (capture was off); ignore it.
                } else if self.wants(stub.kind, pe_id) {
                    let locals = pe.frame_locals(pe.frame_depth() - 1);
                    let mut args = [0; 8];
                    let n = (stub.argc as usize).min(locals.len());
                    args[..n].copy_from_slice(&locals[..n]);
                    self.pes[i].pending = Some(Pending { stub: si, args });
                } else {
                    // Filtered out: skip this whole call without
                    // re-resolving on every cycle it blocks.
                    self.pes[i].ignore_region = Some((stub.entry, stub.end));
                }
            }
        } else if self.pes[i].ignore_region.is_some()
            && (pe.pc < self.stubs.lo || pe.pc >= self.stubs.hi)
        {
            self.pes[i].ignore_region = None;
        }

        // Work entry/exit via invocation counters: begins and ends
        // strictly alternate on one PE, starting from whatever state
        // we last observed.
        let inv = pe.invocations;
        let active = u64::from(pe.frame_depth() > 0);
        let completions = inv - active;
        let (seen_inv, seen_done) = self.pes[i].seen;
        if completions > seen_done || inv > seen_inv {
            if let Some(&actor) = self.pe_actor.get(&pe_id) {
                if graph.actor(actor).kind == ActorKind::Filter {
                    let mut was_active = seen_inv > seen_done;
                    let mut ends = completions - seen_done;
                    let mut begins = inv - seen_inv;
                    while ends > 0 || begins > 0 {
                        if was_active && ends > 0 {
                            self.out.push(DfEvent::WorkEnded { actor });
                            ends -= 1;
                            was_active = false;
                        } else if begins > 0 {
                            self.out.push(DfEvent::WorkBegun { actor });
                            begins -= 1;
                            was_active = true;
                        } else {
                            self.out.push(DfEvent::WorkEnded { actor });
                            ends -= 1;
                            was_active = false;
                        }
                    }
                }
            }
            self.pes[i].seen = (inv, completions);
        }
    }

    /// A monitored call completed: decode it into a [`DfEvent`].
    fn complete(
        &mut self,
        platform: &Platform,
        graph: &AppGraph,
        types: &TypeTable,
        pe: PeId,
        p: Pending,
    ) {
        // Controller-context calls report against the enclosing module.
        let module_of = |pe: PeId| -> Option<ActorId> {
            let ctrl = self.pe_actor.get(&pe)?;
            graph.actor(*ctrl).parent
        };
        let stub = self.stubs.stubs[p.stub];
        let a = &p.args;
        let mem = &platform.mem;
        let pes = &platform.pes;
        let read_str =
            |addr: Word, len: Word| api::read_string(mem, addr, len).unwrap_or_else(|| "?".into());
        let ev = match stub.kind {
            StubKind::RegisterActor => Some(DfEvent::ActorRegistered {
                id: a[0],
                kind: pedf::ActorKind::from_code(a[1]).unwrap_or(ActorKind::Filter),
                parent: api::decode_opt(a[2]),
                name: read_str(a[3], a[4]),
                pe: api::decode_opt(a[5]).map(|p| PeId(p as u16)),
                work: api::decode_opt(a[6]),
            }),
            StubKind::RegisterConn => Some(DfEvent::ConnRegistered {
                id: a[0],
                actor: a[1],
                dir: Dir::from_code(a[2]).unwrap_or(Dir::In),
                ty: debuginfo::TypeId(a[3]),
                name: read_str(a[4], a[5]),
            }),
            StubKind::RegisterLink => Some(DfEvent::LinkRegistered {
                id: a[0],
                from: a[1],
                to: a[2],
                capacity: a[3],
                class: LinkClass::from_code(a[4]).unwrap_or(LinkClass::Data),
                fifo_base: a[5],
            }),
            StubKind::BootComplete => Some(DfEvent::BootComplete),
            StubKind::Push => Some(DfEvent::TokenPushed {
                conn: ConnId(a[0]),
                words: InlineSlice::One(a[2]),
            }),
            StubKind::Pop => {
                // Result word sits on the stub frame's operand stack.
                let p = &pes[pe.index()];
                let value = p
                    .frame_depth()
                    .checked_sub(1)
                    .and_then(|top| p.operands(top).last().copied())
                    .unwrap_or(0);
                Some(DfEvent::TokenPopped {
                    conn: ConnId(a[0]),
                    index: a[1],
                    words: InlineSlice::One(value),
                })
            }
            StubKind::PushStruct | StubKind::PopStruct => {
                // Payload lives in the caller's frame at local_base, one
                // token width of it (the model zero-pads a short one).
                let width = graph
                    .conns
                    .get(a[0] as usize)
                    .map_or(0, |c| types.size_words(c.ty) as usize);
                let p = &pes[pe.index()];
                let words = match p.frame_depth().checked_sub(2) {
                    Some(caller) => {
                        let locals = p.frame_locals(caller);
                        let base = (a[2] as usize).min(locals.len());
                        let end = base.saturating_add(width).min(locals.len());
                        InlineSlice::from_slice(&locals[base..end])
                    }
                    None => InlineSlice::Empty,
                };
                if stub.kind == StubKind::PushStruct {
                    Some(DfEvent::TokenPushed {
                        conn: ConnId(a[0]),
                        words,
                    })
                } else {
                    Some(DfEvent::TokenPopped {
                        conn: ConnId(a[0]),
                        index: a[1],
                        words,
                    })
                }
            }
            StubKind::ActorStart => Some(DfEvent::ActorStarted {
                actor: ActorId(a[0]),
            }),
            StubKind::ActorSync => Some(DfEvent::ActorSyncRequested {
                actor: ActorId(a[0]),
            }),
            StubKind::ActorFire => {
                self.out.push(DfEvent::ActorStarted {
                    actor: ActorId(a[0]),
                });
                Some(DfEvent::ActorSyncRequested {
                    actor: ActorId(a[0]),
                })
            }
            StubKind::WaitSync => module_of(pe).map(|module| DfEvent::WaitSyncCompleted { module }),
            StubKind::StepBegin => module_of(pe).map(|module| DfEvent::StepBegun { module }),
            StubKind::StepEnd => module_of(pe).map(|module| DfEvent::StepEnded { module }),
            StubKind::WaitInit
            | StubKind::Continue
            | StubKind::TokensAvailable
            | StubKind::LinkSpace
            | StubKind::Print => None,
        };
        if let Some(ev) = ev {
            self.out.push(ev);
        }
    }

    /// Move the events captured this cycle to the end of `out`. Both
    /// buffers keep their capacity.
    pub fn drain_into(&mut self, out: &mut Vec<DfEvent>) {
        out.append(&mut self.out);
    }
}
