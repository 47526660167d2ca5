//! The debugging session: GDB-equivalent core plus the dataflow extension.
//!
//! A [`Session`] owns the machine ([`pedf::System`]) the way GDB owns an
//! attached inferior (Fig. 3): it drives the simulator cycle by cycle and
//! inspects it between cycles. The **low-level layer** provides everything
//! §III's "Two-Level Debugging" requires — code/line breakpoints,
//! watchpoints, per-PE stepping (`step`/`next`/`finish`/`stepi`), frames,
//! source listing and typed value printing. The **dataflow layer**
//! ([`crate::dataflow`]) feeds on the same run loop through the
//! function-breakpoint capture engine.
//!
//! All inspection uses the non-intrusive `peek` paths: stopping the machine
//! and examining it never advances the simulated clock, reproducing the
//! paper's claim that debugger interaction does not alter the execution
//! semantics.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use debuginfo::{CodeAddr, DebugInfo, Value, Word};
use p2012::{PeId, PeStatus, VmFault};
use pedf::{ActorId, ActorKind, ConnId, LinkId, RuntimeEvent, System};

use replay::CheckpointManager;

use crate::dataflow::capture::{Capture, CaptureMode};
use crate::dataflow::model::{CatchCond, DfEvent, DfModel, DfStop, FlowBehavior, TokenId};
use crate::dataflow::{graphviz, model};

/// A code breakpoint (user-level; the dataflow capture has its own
/// internal function breakpoints).
#[derive(Debug, Clone)]
pub struct Breakpoint {
    pub id: u32,
    pub addr: CodeAddr,
    pub enabled: bool,
    pub temporary: bool,
    pub label: String,
    /// Set when this breakpoint implements `filter X catch work`.
    pub work_of: Option<ActorId>,
    pub hits: u64,
}

/// An installed watchpoint.
#[derive(Debug, Clone)]
pub struct Watchpoint {
    pub id: u32,
    pub label: String,
    pub lo: u32,
    pub hi: u32,
}

/// Why the session stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum Stop {
    Breakpoint {
        pe: PeId,
        addr: CodeAddr,
        bp: u32,
        work_of: Option<ActorId>,
    },
    Watchpoint {
        id: u32,
        addr: u32,
        old: Word,
        new: Word,
    },
    Dataflow(DfStop),
    StepDone {
        pe: PeId,
    },
    FinishDone {
        pe: PeId,
    },
    Fault {
        pe: PeId,
        fault: VmFault,
    },
    Deadlock,
    Quiescent,
    CycleLimit,
}

#[derive(Debug, Clone, Copy)]
enum StepMode {
    None,
    Insn {
        pe: PeId,
        target: u64,
    },
    Line {
        pe: PeId,
        start_line: Option<(debuginfo::FileId, u32)>,
        start_depth: usize,
        step_over: bool,
    },
    Finish {
        pe: PeId,
        target_depth: usize,
    },
}

/// Errors from session commands (bad names, unresolved symbols, ...).
pub type CmdResult<T> = Result<T, String>;

/// The debugger-side state a checkpoint must carry beyond the machine:
/// the reconstructed dataflow model (Token objects, windows, counters),
/// the capture engine (pending calls, per-PE counters) and the run loop's
/// transient state. Breakpoints, watchpoints and the value history
/// deliberately stay *outside* — like GDB's, they survive time travel.
#[derive(Clone)]
struct SessionSnap {
    model: DfModel,
    capture: Capture,
    inv_seen: Vec<u64>,
    skip: HashSet<(PeId, CodeAddr)>,
    stop_queue: VecDeque<Stop>,
    step_mode: StepMode,
    graph_learned: bool,
}

const TT_DISABLED: &str = "time travel is not enabled (use `checkpoint` first)";

/// The debugger.
pub struct Session {
    pub sys: System,
    /// Immutable tool-chain debug info, shared across sessions forked from
    /// the same compiled app (the compile-once cache hands out one `Arc`).
    pub info: Arc<DebugInfo>,
    pub model: DfModel,
    pub capture: Capture,
    breakpoints: Vec<Breakpoint>,
    bp_addrs: HashMap<CodeAddr, Vec<u32>>,
    /// Address range covered by *enabled* breakpoints: a one-compare gate
    /// letting undisturbed cycles skip the `bp_addrs` probe entirely.
    /// `bp_lo > bp_hi` means no enabled breakpoint exists.
    bp_lo: CodeAddr,
    bp_hi: CodeAddr,
    next_bp: u32,
    skip: HashSet<(PeId, CodeAddr)>,
    watchpoints: Vec<Watchpoint>,
    next_watch: u32,
    focus: Option<PeId>,
    step_mode: StepMode,
    stop_queue: VecDeque<Stop>,
    graph_learned: bool,
    /// Per-PE invocation counters, for entry breakpoints on runtime-
    /// scheduled tasks (see `check_entry_breakpoints`).
    inv_seen: Vec<u64>,
    /// `$N` value history (1-based), as in GDB.
    pub value_history: Vec<Value>,
    /// Static-analysis input (graph + kernel sources), loaded via
    /// [`Session::load_analysis`] from the compiled app.
    analysis: Option<dfa::AnalysisInput>,
    /// Result of the most recent `analyze`, consumed by `graph dot` to
    /// paint deadlocked (red) and rate-inconsistent (yellow) elements.
    pub last_analysis: Option<dfa::Report>,
    /// Bytecode-verifier input (linked image + platform map), loaded via
    /// [`Session::load_bcv_input`]; `analyze` runs it alongside `dfa`.
    bcv_input: Option<bcv::AnalysisInput>,
    /// Result of the most recent bytecode verification, consumed by
    /// `graph dot` to draw race pairs as dashed red edges.
    pub last_bcv: Option<bcv::Report>,
    /// Static performance-analysis input (graph + kernels + image),
    /// loaded via [`Session::load_sched_input`]; `analyze` runs the
    /// buffer-sizing/WCET/throughput passes alongside `dfa` and `bcv`.
    sched_input: Option<sched::AnalysisInput>,
    /// Result of the most recent sched analysis, consumed by `graph dot`
    /// to paint the throughput-critical cycle bold.
    pub last_sched: Option<sched::Report>,
    /// The time-travel engine (checkpoint chain + divergence findings),
    /// present once `enable_time_travel` ran. Taken out of the session
    /// while the run-loop hook uses it (it needs `&mut self` alongside).
    tt: Option<CheckpointManager<SessionSnap>>,
    /// The furthest cycle this session's timeline has reached, noted
    /// whenever `restart` leaves it. `goto` replays up to it even past a
    /// stop that ended the program, but never runs an ended program
    /// beyond it.
    horizon: u64,
    /// Result of the most recent `explore`, kept for the server's
    /// per-session multiverse counters and for witness reuse.
    pub last_explore: Option<multiverse::ExploreReport>,
    /// Buffers each cycle's runtime and captured events are drained
    /// into, kept so the run loop does not allocate per cycle. Empty
    /// between cycles.
    runtime_events: Vec<RuntimeEvent>,
    captured: Vec<DfEvent>,
}

impl Session {
    /// Attach to a built system. The debug info comes from the tool-chain
    /// (DWARF equivalent); everything else is observed at runtime. Accepts
    /// either an owned `DebugInfo` or an `Arc<DebugInfo>` shared with
    /// other sessions of the same compiled app.
    pub fn attach(mut sys: System, info: impl Into<Arc<DebugInfo>>) -> Self {
        let info = info.into();
        let capture = Capture::new(&info, &sys.platform.program, sys.platform.pe_count());
        // Host-side environment I/O is invisible to breakpoints (no fabric
        // code runs it); subscribe to just those events.
        sys.runtime.events.enable_env_only();
        let model = DfModel::new(sys.runtime.types.clone());
        let n_pes = sys.platform.pe_count();
        Session {
            sys,
            info,
            model,
            capture,
            breakpoints: Vec::new(),
            bp_addrs: HashMap::new(),
            bp_lo: CodeAddr::MAX,
            bp_hi: 0,
            next_bp: 1,
            skip: HashSet::new(),
            watchpoints: Vec::new(),
            next_watch: 1,
            focus: None,
            step_mode: StepMode::None,
            stop_queue: VecDeque::new(),
            graph_learned: false,
            inv_seen: vec![0; n_pes],
            value_history: Vec::new(),
            analysis: None,
            last_analysis: None,
            bcv_input: None,
            last_bcv: None,
            sched_input: None,
            last_sched: None,
            tt: None,
            horizon: 0,
            last_explore: None,
            runtime_events: Vec::new(),
            captured: Vec::new(),
        }
    }

    /// Fork an independent session from this one. Simulator memory is
    /// shared copy-on-write with the parent (see [`pedf::System::fork`]),
    /// the immutable debug info is `Arc`-shared, and every piece of
    /// mutable debugger state — model, capture, breakpoints, time-travel
    /// chain — is deep-copied. The fork and the parent diverge freely;
    /// neither can observe the other's writes. This is what makes
    /// attaching the N-th session of a variant O(dirtied pages) instead
    /// of O(recompile + boot).
    pub fn fork(&mut self) -> Session {
        Session {
            sys: self.sys.fork(),
            info: Arc::clone(&self.info),
            model: self.model.clone(),
            capture: self.capture.clone(),
            breakpoints: self.breakpoints.clone(),
            bp_addrs: self.bp_addrs.clone(),
            bp_lo: self.bp_lo,
            bp_hi: self.bp_hi,
            next_bp: self.next_bp,
            skip: self.skip.clone(),
            watchpoints: self.watchpoints.clone(),
            next_watch: self.next_watch,
            focus: self.focus,
            step_mode: self.step_mode,
            stop_queue: self.stop_queue.clone(),
            graph_learned: self.graph_learned,
            inv_seen: self.inv_seen.clone(),
            value_history: self.value_history.clone(),
            analysis: self.analysis.clone(),
            last_analysis: self.last_analysis.clone(),
            bcv_input: self.bcv_input.clone(),
            last_bcv: self.last_bcv.clone(),
            sched_input: self.sched_input.clone(),
            last_sched: self.last_sched.clone(),
            tt: self.tt.clone(),
            horizon: self.horizon,
            last_explore: self.last_explore.clone(),
            runtime_events: Vec::new(),
            captured: Vec::new(),
        }
    }

    /// Supply the static analyzer's input. Built from the [`mind`] output
    /// (`dfa::AnalysisInput::from_app`) before the `CompiledApp` is handed
    /// to `attach`; without it the `analyze` command reports an error.
    pub fn load_analysis(&mut self, input: dfa::AnalysisInput) {
        self.analysis = Some(input);
    }

    /// Supply the bytecode verifier's input (built with
    /// `bcv::AnalysisInput::from_app`). Once loaded, `analyze` also runs
    /// the image verification and race analysis, merging its findings
    /// into the same table.
    pub fn load_bcv_input(&mut self, input: bcv::AnalysisInput) {
        self.bcv_input = Some(input);
    }

    /// Supply the static performance analyzer's input (built with
    /// `sched::AnalysisInput::from_app`). Once loaded, `analyze` also
    /// reports minimal FIFO capacities, WCET intervals and the
    /// throughput bound, merging the findings into the same table.
    pub fn load_sched_input(&mut self, input: sched::AnalysisInput) {
        self.sched_input = Some(input);
    }

    /// `analyze [--deny warnings]` — run the static dataflow analyzer over
    /// the elaborated application, without executing an instruction.
    /// Findings come back as a table with rule ids and source spans
    /// resolved through the line tables; the result is remembered so
    /// `graph dot` can paint the affected actors and links. With
    /// `deny_warnings`, a report whose worst finding is Warning or Error
    /// returns `Err` (the table is the error text) for CI-style gating.
    pub fn analyze(&mut self, deny_warnings: bool) -> CmdResult<String> {
        let findings = self.run_analyzers()?;
        let table = debuginfo::render_findings(&findings);
        let worst = findings.iter().map(|f| f.severity).max();
        let deny_hit = deny_warnings && worst >= Some(dfa::Severity::Warning);
        if deny_hit {
            Err(format!(
                "findings at or above warning level denied\n{table}"
            ))
        } else {
            Ok(table)
        }
    }

    /// `analyze --json` — same findings as [`Session::analyze`], rendered
    /// machine-readable (stable field names, deterministic order).
    pub fn analyze_json(&mut self) -> CmdResult<String> {
        let findings = self.run_analyzers()?;
        Ok(debuginfo::render_findings_json(&findings))
    }

    /// Run the dataflow analyzer and (when its input is loaded) the
    /// bytecode verifier, remember both reports for `graph dot`, and
    /// return the merged, deterministically ordered findings.
    fn run_analyzers(&mut self) -> CmdResult<Vec<dfa::Finding>> {
        let input = self
            .analysis
            .as_ref()
            .ok_or("no analysis input loaded (build one with dfa::AnalysisInput::from_app and call load_analysis)")?;
        let mut report = dfa::analyze(input);
        report.resolve_spans(&self.info.lines);
        let mut findings = report.findings.clone();
        self.last_analysis = Some(report);
        if let Some(bi) = &self.bcv_input {
            let br = bcv::verify(bi);
            findings.extend(br.findings.iter().cloned());
            self.last_bcv = Some(br);
        }
        if let Some(si) = &self.sched_input {
            let mut sr = sched::analyze(si);
            sr.resolve_spans(&self.info.lines);
            findings.extend(sr.findings.iter().cloned());
            self.last_sched = Some(sr);
        }
        debuginfo::sort_and_dedup_findings(&mut findings);
        Ok(findings)
    }

    /// Switch to the framework-cooperation ablation (§V's second option):
    /// the runtime publishes events directly; function breakpoints on data
    /// exchanges are disabled.
    pub fn use_framework_cooperation(&mut self) {
        self.capture.mode = CaptureMode::RuntimeEvents;
        self.sys.runtime.events.enable();
    }

    /// §V mitigation 1: toggle the data-exchange breakpoints.
    pub fn set_data_exchange_breakpoints(&mut self, on: bool) {
        self.capture.data_exchange = on;
    }

    /// §V mitigation 2: restrict data-exchange breakpoints to the named
    /// actors ("actor-specific location for data exchange breakpoints").
    pub fn set_actor_breakpoint_filter(&mut self, filters: Option<Vec<ActorId>>) {
        self.capture.actor_filter = filters;
    }

    /// Boot the application under debugger control; the graph is
    /// reconstructed from the registration calls as they execute
    /// (Contribution #1).
    pub fn boot(&mut self, entry: CodeAddr) -> CmdResult<()> {
        let host = self.sys.platform.host_id();
        self.sys.platform.invoke(host, entry, &[]);
        for _ in 0..2_000_000u64 {
            match self.run(1) {
                Stop::CycleLimit if self.model.booted => return Ok(()),
                Stop::CycleLimit => {}
                Stop::Fault { pe, fault } => return Err(format!("boot fault on {pe}: {fault}")),
                Stop::Quiescent => {
                    return Err("boot program exited without registering \
                                the application"
                        .to_string())
                }
                _ => {}
            }
        }
        Err("boot did not complete".to_string())
    }

    pub fn clock(&self) -> u64 {
        self.sys.clock()
    }

    // ---- the run loop -----------------------------------------------------

    /// Run until something stops the machine, for at most `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Stop {
        if let Some(s) = self.stop_queue.pop_front() {
            self.note_focus(&s);
            return s;
        }
        for _ in 0..max_cycles {
            // Breakpoints stop *before* the instruction executes.
            if let Some(stop) = self.check_breakpoints() {
                self.note_focus(&stop);
                return stop;
            }
            let report = self.sys.step();
            self.skip.clear();

            // Watchpoints.
            for hit in self.sys.platform.mem.take_hits() {
                self.stop_queue.push_back(Stop::Watchpoint {
                    id: hit.id,
                    addr: hit.addr,
                    old: hit.old,
                    new: hit.new,
                });
            }

            // Dataflow events: host-boundary stream + capture engine.
            self.pump_dataflow();

            // Entry breakpoints on runtime-scheduled tasks: when the
            // runtime invokes a WORK method on a PE that the scheduler
            // visits later in the same cycle, the entry instruction has
            // already executed by the time we look — detect the invocation
            // through the counter and stop "after the prologue", as GDB
            // does for function breakpoints.
            self.check_entry_breakpoints();

            // Faults are always reported.
            for (i, pe) in self.sys.platform.pes.iter().enumerate() {
                if let PeStatus::Faulted(f) = pe.status {
                    let stop = Stop::Fault {
                        pe: PeId(i as u16),
                        fault: f,
                    };
                    // Report each fault once.
                    if !self.stop_queue.contains(&stop) {
                        self.stop_queue.push_back(stop);
                    }
                }
            }

            // Stepping modes.
            if let Some(stop) = self.check_step_mode() {
                self.stop_queue.push_back(stop);
            }

            // Time travel: at a recorded boundary, verify the replayed
            // hash chain (divergence -> REPLAY501); on new ground, create
            // the periodic checkpoint. Runs before the stop queue pops so
            // pending stops are part of the snapshot. The manager is
            // *taken* for the duration of the hook (it is a few words;
            // the checkpoint payloads live behind its Vec) so there is a
            // single `if let` and no `is_some`/`unwrap` pair to desync.
            if let Some(mut mgr) = self.tt.take() {
                let clock = self.sys.clock();
                if mgr.has_checkpoint_at(clock) {
                    mgr.verify_boundary(&mut self.sys, clock);
                } else if mgr.creation_due(clock) {
                    let snap = self.snap();
                    mgr.checkpoint_at(&mut self.sys, snap);
                }
                self.tt = Some(mgr);
            }

            if let Some(s) = self.stop_queue.pop_front() {
                self.note_focus(&s);
                return s;
            }

            // Progress checks only when nothing executed. A policy-deferred
            // WORK start (witness replay) still counts as progress pending.
            if report.executed == 0 && report.completions == 0 {
                if self.sys.platform.is_quiescent() {
                    return Stop::Quiescent;
                }
                if self.sys.platform.is_deadlocked()
                    && !self.sys.runtime.pending_deferred(self.sys.clock())
                {
                    return Stop::Deadlock;
                }
            }
        }
        Stop::CycleLimit
    }

    /// `continue` with a default budget.
    pub fn cont(&mut self) -> Stop {
        self.run(10_000_000)
    }

    fn note_focus(&mut self, stop: &Stop) {
        match stop {
            Stop::Breakpoint { pe, .. }
            | Stop::StepDone { pe }
            | Stop::FinishDone { pe }
            | Stop::Fault { pe, .. } => self.focus = Some(*pe),
            Stop::Dataflow(df) => {
                let actor = match df {
                    DfStop::TokenReceived { actor, .. }
                    | DfStop::TokenSent { actor, .. }
                    | DfStop::ReceiveCountsReached { actor, .. }
                    | DfStop::Scheduled { actor, .. } => Some(*actor),
                    _ => None,
                };
                if let Some(a) = actor {
                    if let Some(pe) = self.model.graph.actor(a).pe {
                        self.focus = Some(pe);
                    }
                }
            }
            _ => {}
        }
    }

    fn pump_dataflow(&mut self) {
        let cycle = self.sys.clock();
        // 1. Runtime event stream: env I/O always; everything in
        //    cooperation mode.
        let coop = self.capture.mode == CaptureMode::RuntimeEvents;
        self.sys.runtime.events.drain_into(&mut self.runtime_events);
        let mut stops = Vec::new();
        for ev in self.runtime_events.drain(..) {
            let mapped = match ev {
                RuntimeEvent::TokenPushed { conn, value, .. } => Some(DfEvent::TokenPushed {
                    conn,
                    words: value.words,
                }),
                RuntimeEvent::TokenPopped { conn, value, .. } => {
                    let idx = self
                        .model
                        .conns
                        .get(conn.0 as usize)
                        .map_or(0, |c| c.window_count);
                    Some(DfEvent::TokenPopped {
                        conn,
                        index: idx,
                        words: value.words,
                    })
                }
                RuntimeEvent::BootComplete if coop => {
                    // Cooperation mode skips registration interception:
                    // adopt the runtime's graph wholesale.
                    self.model.graph = self.sys.runtime.graph.clone();
                    self.model
                        .actors
                        .resize_with(self.model.graph.actors.len(), Default::default);
                    self.model
                        .conns
                        .resize_with(self.model.graph.conns.len(), Default::default);
                    self.model
                        .links
                        .resize_with(self.model.graph.links.len(), Default::default);
                    Some(DfEvent::BootComplete)
                }
                RuntimeEvent::ActorStarted { actor } if coop => {
                    Some(DfEvent::ActorStarted { actor })
                }
                RuntimeEvent::ActorSyncRequested { actor } if coop => {
                    Some(DfEvent::ActorSyncRequested { actor })
                }
                RuntimeEvent::WorkBegun { actor } if coop => Some(DfEvent::WorkBegun { actor }),
                RuntimeEvent::WorkEnded { actor, .. } if coop => Some(DfEvent::WorkEnded { actor }),
                RuntimeEvent::StepBegun { module, .. } if coop => {
                    Some(DfEvent::StepBegun { module })
                }
                RuntimeEvent::StepEnded { module, .. } if coop => {
                    Some(DfEvent::StepEnded { module })
                }
                _ => None,
            };
            if let Some(ev) = mapped {
                self.model.apply(ev, cycle, &mut stops);
            }
        }
        // In cooperation mode WaitSync resets are invisible; mirror the
        // runtime's filter states lazily instead (displays read them).

        // 2. Function-breakpoint capture.
        self.capture.observe(&self.sys.platform, &self.model.graph);
        self.capture.drain_into(&mut self.captured);
        for ev in self.captured.drain(..) {
            self.model.apply(ev, cycle, &mut stops);
        }
        if self.model.booted && !self.graph_learned {
            self.capture.learn_graph(&self.model.graph);
            self.graph_learned = true;
        }
        // Step-both second leg: arm the receive end when the send fires.
        for s in &stops {
            self.stop_queue.push_back(Stop::Dataflow(s.clone()));
        }
    }

    // ---- breakpoints -------------------------------------------------------

    /// Recompute the enabled-breakpoint address range gate.
    fn rebuild_bp_range(&mut self) {
        self.bp_lo = CodeAddr::MAX;
        self.bp_hi = 0;
        for b in &self.breakpoints {
            if b.enabled {
                self.bp_lo = self.bp_lo.min(b.addr);
                self.bp_hi = self.bp_hi.max(b.addr);
            }
        }
    }

    /// The first enabled breakpoint installed at `addr`, if any. The one
    /// lookup both breakpoint checks share.
    fn enabled_bp_at(&self, addr: CodeAddr) -> Option<u32> {
        if addr < self.bp_lo || addr > self.bp_hi {
            return None;
        }
        let ids = self.bp_addrs.get(&addr)?;
        ids.iter()
            .find(|id| {
                self.breakpoints
                    .binary_search_by_key(id, |b| &b.id)
                    .is_ok_and(|pos| self.breakpoints[pos].enabled)
            })
            .copied()
    }

    fn check_breakpoints(&mut self) -> Option<Stop> {
        if self.bp_lo > self.bp_hi {
            return None; // no enabled breakpoint anywhere
        }
        let mut found: Option<(PeId, CodeAddr, u32)> = None;
        for (i, pe) in self.sys.platform.pes.iter().enumerate() {
            if !matches!(pe.status, PeStatus::Running) || pe.stall > 0 {
                continue;
            }
            // Cheap range gate before the skip-set and map probes: on
            // undisturbed cycles every PE falls out right here.
            if pe.pc < self.bp_lo || pe.pc > self.bp_hi {
                continue;
            }
            let pe_id = PeId(i as u16);
            if self.skip.contains(&(pe_id, pe.pc)) {
                continue;
            }
            let Some(bp_id) = self.enabled_bp_at(pe.pc) else {
                continue;
            };
            found = Some((pe_id, pe.pc, bp_id));
            break;
        }
        let (pe, addr, bp_id) = found?;
        self.skip.insert((pe, addr));
        Some(self.fire_breakpoint(pe, addr, bp_id))
    }

    fn fire_breakpoint(&mut self, pe: PeId, addr: CodeAddr, bp_id: u32) -> Stop {
        let bp = self
            .breakpoints
            .iter_mut()
            .find(|b| b.id == bp_id)
            .expect("bp exists");
        bp.hits += 1;
        let work_of = bp.work_of;
        if bp.temporary {
            self.remove_breakpoint(bp_id);
        }
        Stop::Breakpoint {
            pe,
            addr,
            bp: bp_id,
            work_of,
        }
    }

    /// Post-cycle detection of task entries that executed within the
    /// invoking cycle (see the comment at the call site).
    fn check_entry_breakpoints(&mut self) {
        for i in 0..self.sys.platform.pes.len() {
            let pe = &self.sys.platform.pes[i];
            let inv = pe.invocations;
            if inv == self.inv_seen[i] {
                continue;
            }
            self.inv_seen[i] = inv;
            if self.bp_lo > self.bp_hi {
                continue;
            }
            let Some(entry) = pe.frames.first().map(|f| f.func) else {
                continue; // already finished again: too short to stop in
            };
            if pe.pc == entry {
                continue; // not yet executed: the pre-cycle check will stop
            }
            let Some(bp_id) = self.enabled_bp_at(entry) else {
                continue;
            };
            let stop = self.fire_breakpoint(PeId(i as u16), entry, bp_id);
            self.stop_queue.push_back(stop);
        }
    }

    fn add_breakpoint(
        &mut self,
        addr: CodeAddr,
        label: String,
        temporary: bool,
        work_of: Option<ActorId>,
    ) -> u32 {
        let id = self.next_bp;
        self.next_bp += 1;
        self.breakpoints.push(Breakpoint {
            id,
            addr,
            enabled: true,
            temporary,
            label,
            work_of,
            hits: 0,
        });
        self.bp_addrs.entry(addr).or_default().push(id);
        self.bp_lo = self.bp_lo.min(addr);
        self.bp_hi = self.bp_hi.max(addr);
        id
    }

    /// `break <symbol>` — function entry.
    pub fn break_symbol(&mut self, name: &str) -> CmdResult<u32> {
        let sym = self
            .info
            .symbols
            .resolve(name)
            .ok_or_else(|| format!("no symbol `{name}`"))?;
        let (addr, pretty) = (sym.addr, sym.pretty.clone());
        Ok(self.add_breakpoint(addr, pretty, false, None))
    }

    /// `break <file>:<line>`.
    pub fn break_line(&mut self, file: &str, line: u32) -> CmdResult<u32> {
        let f = self
            .info
            .lines
            .file_by_name(file)
            .ok_or_else(|| format!("no source file `{file}`"))?;
        let addr = self
            .info
            .lines
            .addr_of_line(f, line)
            .ok_or_else(|| format!("no code at {file}:{line}"))?;
        Ok(self.add_breakpoint(addr, format!("{file}:{line}"), false, None))
    }

    pub fn remove_breakpoint(&mut self, id: u32) -> bool {
        let Some(pos) = self.breakpoints.iter().position(|b| b.id == id) else {
            return false;
        };
        let bp = self.breakpoints.remove(pos);
        if let Some(v) = self.bp_addrs.get_mut(&bp.addr) {
            v.retain(|x| *x != id);
            if v.is_empty() {
                self.bp_addrs.remove(&bp.addr);
            }
        }
        self.rebuild_bp_range();
        true
    }

    /// `enable`/`disable <bp id>`. Disabled breakpoints stay installed
    /// but are excluded from the fast-path gate.
    pub fn set_breakpoint_enabled(&mut self, id: u32, enabled: bool) -> bool {
        let Some(bp) = self.breakpoints.iter_mut().find(|b| b.id == id) else {
            return false;
        };
        bp.enabled = enabled;
        self.rebuild_bp_range();
        true
    }

    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.breakpoints
    }

    // ---- watchpoints -------------------------------------------------------

    /// `watch <object symbol>` — e.g. a filter's private data or attribute.
    pub fn watch_object(&mut self, name: &str) -> CmdResult<u32> {
        let sym = self
            .info
            .symbols
            .resolve(name)
            .ok_or_else(|| format!("no symbol `{name}`"))?;
        if sym.kind != debuginfo::SymbolKind::Object {
            return Err(format!("`{name}` is not a data object"));
        }
        let (lo, hi) = (sym.addr, sym.addr + sym.size - 1);
        let label = sym.pretty.clone();
        let id = self.next_watch;
        self.next_watch += 1;
        self.sys
            .platform
            .mem
            .add_watch(id, lo, hi, p2012::WatchKind::Write);
        self.watchpoints.push(Watchpoint { id, label, lo, hi });
        Ok(id)
    }

    pub fn remove_watchpoint(&mut self, id: u32) -> bool {
        let before = self.watchpoints.len();
        self.watchpoints.retain(|w| w.id != id);
        self.sys.platform.mem.remove_watch(id);
        before != self.watchpoints.len()
    }

    pub fn watchpoints(&self) -> &[Watchpoint] {
        &self.watchpoints
    }

    // ---- stepping ----------------------------------------------------------

    pub fn focus(&self) -> Option<PeId> {
        self.focus
    }

    pub fn set_focus(&mut self, pe: PeId) {
        self.focus = Some(pe);
    }

    /// Focus the PE running a named actor.
    pub fn focus_actor(&mut self, name: &str) -> CmdResult<PeId> {
        let a = self
            .model
            .graph
            .actor_by_name(name)
            .ok_or_else(|| format!("no actor `{name}`"))?;
        let pe = a.pe.ok_or_else(|| format!("`{name}` is not mapped"))?;
        self.focus = Some(pe);
        Ok(pe)
    }

    fn focused(&self) -> CmdResult<PeId> {
        self.focus
            .ok_or_else(|| "no focused PE (stop somewhere first, or use `focus`)".to_string())
    }

    fn current_line(&self, pe: PeId) -> Option<(debuginfo::FileId, u32)> {
        let pc = self.sys.platform.pes[pe.index()].pc;
        self.info.lines.lookup(pc).map(|e| (e.file, e.line))
    }

    /// `stepi` — one machine instruction on the focused PE.
    pub fn stepi(&mut self) -> CmdResult<Stop> {
        let pe = self.focused()?;
        let target = self.sys.platform.pes[pe.index()].retired + 1;
        self.step_mode = StepMode::Insn { pe, target };
        Ok(self.run(1_000_000))
    }

    /// `step` — to the next source line, entering calls.
    pub fn step(&mut self) -> CmdResult<Stop> {
        let pe = self.focused()?;
        self.step_mode = StepMode::Line {
            pe,
            start_line: self.current_line(pe),
            start_depth: self.sys.platform.pes[pe.index()].frame_depth(),
            step_over: false,
        };
        Ok(self.run(10_000_000))
    }

    /// `next` — to the next source line, stepping over calls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> CmdResult<Stop> {
        let pe = self.focused()?;
        self.step_mode = StepMode::Line {
            pe,
            start_line: self.current_line(pe),
            start_depth: self.sys.platform.pes[pe.index()].frame_depth(),
            step_over: true,
        };
        Ok(self.run(10_000_000))
    }

    /// `finish` — run until the current function returns.
    pub fn finish(&mut self) -> CmdResult<Stop> {
        let pe = self.focused()?;
        let depth = self.sys.platform.pes[pe.index()].frame_depth();
        if depth == 0 {
            return Err("no frame to finish".to_string());
        }
        self.step_mode = StepMode::Finish {
            pe,
            target_depth: depth - 1,
        };
        Ok(self.run(10_000_000))
    }

    fn check_step_mode(&mut self) -> Option<Stop> {
        match self.step_mode {
            StepMode::None => None,
            StepMode::Insn { pe, target } => {
                let p = &self.sys.platform.pes[pe.index()];
                if p.retired >= target || matches!(p.status, PeStatus::Idle | PeStatus::Halted) {
                    self.step_mode = StepMode::None;
                    Some(Stop::StepDone { pe })
                } else {
                    None
                }
            }
            StepMode::Line {
                pe,
                start_line,
                start_depth,
                step_over,
            } => {
                let p = &self.sys.platform.pes[pe.index()];
                if matches!(p.status, PeStatus::Idle | PeStatus::Halted) {
                    self.step_mode = StepMode::None;
                    return Some(Stop::StepDone { pe });
                }
                if !matches!(p.status, PeStatus::Running) || p.stall > 0 {
                    return None;
                }
                if step_over && p.frame_depth() > start_depth {
                    return None;
                }
                let here = self.current_line(pe);
                if here.is_some() && here != start_line {
                    self.step_mode = StepMode::None;
                    return Some(Stop::StepDone { pe });
                }
                None
            }
            StepMode::Finish { pe, target_depth } => {
                let p = &self.sys.platform.pes[pe.index()];
                if p.frame_depth() <= target_depth
                    || matches!(p.status, PeStatus::Idle | PeStatus::Halted)
                {
                    self.step_mode = StepMode::None;
                    Some(Stop::FinishDone { pe })
                } else {
                    None
                }
            }
        }
    }

    // ---- inspection ---------------------------------------------------------

    /// `backtrace` for a PE.
    pub fn backtrace(&self, pe: PeId) -> String {
        let p = &self.sys.platform.pes[pe.index()];
        if p.frames.is_empty() {
            return format!("{pe}: no stack (idle)\n");
        }
        let mut out = String::new();
        for (i, f) in p.frames.iter().enumerate().rev() {
            let pc = if i + 1 == p.frames.len() {
                p.pc
            } else {
                p.frames[i + 1].ret_addr
            };
            let func = self
                .info
                .function_at(f.func)
                .map(|s| s.pretty.clone())
                .unwrap_or_else(|| format!("0x{:04x}", f.func));
            out.push_str(&format!(
                "#{depth}  {func} () at {loc}\n",
                depth = p.frames.len() - 1 - i,
                loc = self.info.describe_addr(pc),
            ));
        }
        out
    }

    /// Where is a PE right now (`frame`): function + file:line.
    pub fn where_is(&self, pe: PeId) -> String {
        let p = &self.sys.platform.pes[pe.index()];
        match p.status {
            PeStatus::Idle => format!("{pe}: idle"),
            PeStatus::Halted => format!("{pe}: halted"),
            PeStatus::Faulted(f) => format!("{pe}: faulted ({f})"),
            PeStatus::Blocked(r) => {
                let func = self
                    .info
                    .function_at(p.frames.last().map(|f| f.func).unwrap_or(p.pc))
                    .map(|s| s.pretty.clone())
                    .unwrap_or_default();
                format!(
                    "{pe}: blocked in {func} at {} ({r})",
                    self.info.describe_addr(p.pc)
                )
            }
            PeStatus::Running => {
                let func = self
                    .info
                    .function_at(p.frames.last().map(|f| f.func).unwrap_or(p.pc))
                    .map(|s| s.pretty.clone())
                    .unwrap_or_default();
                format!("{pe}: running {func} at {}", self.info.describe_addr(p.pc))
            }
        }
    }

    /// `list` around the focused PE's current line (or an explicit
    /// file:line), returning numbered source lines.
    pub fn list_source(&self, at: Option<(&str, u32)>, context: u32) -> CmdResult<String> {
        let (file, line) = match at {
            Some((f, l)) => {
                let fid = self
                    .info
                    .lines
                    .file_by_name(f)
                    .ok_or_else(|| format!("no source file `{f}`"))?;
                (fid, l)
            }
            None => {
                let pe = self.focused()?;
                self.current_line(pe)
                    .ok_or_else(|| "no line information here".to_string())?
            }
        };
        let src = self.info.lines.file(file);
        let lo = line.saturating_sub(context).max(1);
        let hi = (line + context).min(src.line_count());
        let mut out = String::new();
        for n in lo..=hi {
            let marker = if n == line { "->" } else { "  " };
            out.push_str(&format!("{n:>4} {marker} {}\n", src.line(n).unwrap_or("")));
        }
        Ok(out)
    }

    /// `print <object>` — read a data object from simulated memory.
    pub fn print_object(&mut self, name: &str) -> CmdResult<String> {
        let sym = self
            .info
            .symbols
            .resolve(name)
            .ok_or_else(|| format!("no symbol `{name}`"))?;
        if sym.kind != debuginfo::SymbolKind::Object {
            return Err(format!("`{name}` is not a data object"));
        }
        let mut words = Vec::with_capacity(sym.size as usize);
        for i in 0..sym.size {
            words.push(
                self.sys
                    .platform
                    .mem
                    .peek(sym.addr + i)
                    .map_err(|e| e.to_string())?,
            );
        }
        let v = Value::record(debuginfo::TypeTable::U32, words.clone());
        let v = if words.len() == 1 {
            Value::scalar(debuginfo::TypeTable::U32, words[0])
        } else {
            v
        };
        let n = self.record_value(v.clone());
        Ok(format!("${n} = {}", v.render_full(&self.model.types)))
    }

    /// `print $N` — re-render a value-history entry in full (the §VI-E
    /// two-level example).
    pub fn print_history(&mut self, n: usize) -> CmdResult<String> {
        let v = self
            .value_history
            .get(n.checked_sub(1).ok_or("history starts at $1")?)
            .cloned()
            .ok_or_else(|| format!("no history value ${n}"))?;
        let m = self.record_value(v.clone());
        Ok(format!("${m} = {}", v.render_full(&self.model.types)))
    }

    pub fn record_value(&mut self, v: Value) -> usize {
        self.value_history.push(v);
        self.value_history.len()
    }

    // ---- dataflow commands ---------------------------------------------------

    fn actor_named(&self, name: &str) -> CmdResult<ActorId> {
        self.model
            .graph
            .actor_by_name(name)
            .map(|a| a.id)
            .ok_or_else(|| format!("no actor `{name}`"))
    }

    /// Resolve `actor::iface` (or `iface` of `actor`) to a connection.
    pub fn conn_named(&self, spec: &str) -> CmdResult<ConnId> {
        let (actor, conn) = spec
            .split_once("::")
            .ok_or_else(|| format!("`{spec}`: expected actor::interface"))?;
        let a = self.actor_named(actor)?;
        self.model
            .graph
            .conn_by_name(a, conn)
            .map(|c| c.id)
            .ok_or_else(|| format!("`{actor}` has no interface `{conn}`"))
    }

    /// `filter X catch work`.
    pub fn catch_work(&mut self, filter: &str) -> CmdResult<u32> {
        let a = self.actor_named(filter)?;
        let work = self
            .model
            .graph
            .actor(a)
            .work_addr
            .ok_or_else(|| format!("`{filter}` has no WORK method"))?;
        Ok(self.add_breakpoint(work, format!("work of filter {filter}"), false, Some(a)))
    }

    /// `filter X catch IFACE=N,IFACE=N` — stop once the filter received
    /// the given token counts within one step.
    pub fn catch_receive(&mut self, filter: &str, conds: &[(&str, u32)]) -> CmdResult<u32> {
        let a = self.actor_named(filter)?;
        let mut resolved = Vec::new();
        for (iface, n) in conds {
            let c = self
                .model
                .graph
                .conn_by_name(a, iface)
                .ok_or_else(|| format!("`{filter}` has no interface `{iface}`"))?;
            if c.dir != pedf::Dir::In {
                return Err(format!("`{iface}` is not an input interface"));
            }
            resolved.push((c.id, *n));
        }
        Ok(self.model.add_catch(
            CatchCond::ReceiveCounts {
                actor: a,
                conds: resolved,
            },
            false,
        ))
    }

    /// `filter X catch *in=N` — every inbound interface.
    pub fn catch_receive_all(&mut self, filter: &str, n: u32) -> CmdResult<u32> {
        let a = self.actor_named(filter)?;
        let conds: Vec<(ConnId, u32)> = self
            .model
            .graph
            .actor(a)
            .inputs
            .iter()
            .map(|c| (*c, n))
            .collect();
        if conds.is_empty() {
            return Err(format!("`{filter}` has no input interfaces"));
        }
        Ok(self
            .model
            .add_catch(CatchCond::ReceiveCounts { actor: a, conds }, false))
    }

    /// `filter X catch IFACE` — stop on every token received there.
    pub fn catch_iface_receive(&mut self, spec: &str) -> CmdResult<u32> {
        let conn = self.conn_named(spec)?;
        Ok(self
            .model
            .add_catch(CatchCond::TokenReceivedOn { conn }, false))
    }

    pub fn catch_iface_send(&mut self, spec: &str) -> CmdResult<u32> {
        let conn = self.conn_named(spec)?;
        Ok(self.model.add_catch(CatchCond::TokenSentOn { conn }, false))
    }

    /// Conditional catchpoint on token content.
    pub fn catch_value(&mut self, spec: &str, value: Word) -> CmdResult<u32> {
        let conn = self.conn_named(spec)?;
        Ok(self
            .model
            .add_catch(CatchCond::TokenValueEq { conn, value }, false))
    }

    /// Conditional catchpoint on transmitted-token count.
    pub fn catch_count(&mut self, spec: &str, count: u64) -> CmdResult<u32> {
        let conn = self.conn_named(spec)?;
        Ok(self
            .model
            .add_catch(CatchCond::TotalCount { conn, count }, false))
    }

    /// Stop when a controller schedules the filter.
    pub fn catch_scheduled(&mut self, filter: &str) -> CmdResult<u32> {
        let a = self.actor_named(filter)?;
        Ok(self
            .model
            .add_catch(CatchCond::Scheduled { actor: a }, false))
    }

    /// Stop at step begin/end of a module (None = any).
    pub fn catch_step(&mut self, module: Option<&str>, begin: bool) -> CmdResult<u32> {
        let module = match module {
            Some(m) => Some(self.actor_named(m)?),
            None => None,
        };
        let cond = if begin {
            CatchCond::StepBegin { module }
        } else {
            CatchCond::StepEnd { module }
        };
        Ok(self.model.add_catch(cond, false))
    }

    pub fn delete_catch(&mut self, id: u32) -> bool {
        self.model.delete_catch(id)
    }

    /// `enable`/`disable <catch id>`. The catch index keeps disabled
    /// entries; they are skipped at fire time.
    pub fn set_catch_enabled(&mut self, id: u32, enabled: bool) -> bool {
        match self.model.catchpoints.iter_mut().find(|c| c.id == id) {
            Some(c) => {
                c.enabled = enabled;
                true
            }
            None => false,
        }
    }

    /// `iface X::Y record` (§VI-D) — enable token-content recording.
    pub fn iface_record(&mut self, spec: &str, on: bool) -> CmdResult<()> {
        let conn = self.conn_named(spec)?;
        self.model.conns[conn.0 as usize].record = on;
        if !on {
            self.model.conns[conn.0 as usize].history.clear();
        }
        Ok(())
    }

    /// `iface X::Y print` — the recorded token history, formatted as in
    /// the paper: `#1 (U16) 5`.
    pub fn iface_print(&self, spec: &str) -> CmdResult<String> {
        let conn = self.conn_named(spec)?;
        let c = &self.model.conns[conn.0 as usize];
        if !c.record {
            return Err(format!(
                "recording is not enabled on `{spec}` \
                 (use `iface {spec} record`)"
            ));
        }
        let mut out = String::new();
        for (i, id) in c.history.iter().enumerate() {
            match self.model.try_token(*id) {
                Some(t) => out.push_str(&format!(
                    "#{} {}\n",
                    i + 1,
                    t.value.render_short(&self.model.types)
                )),
                // History can outlive the bounded token store.
                None => out.push_str(&format!("#{} (evicted)\n", i + 1)),
            }
        }
        Ok(out)
    }

    /// `filter X configure splitter` (§VI-D).
    pub fn configure_filter(&mut self, filter: &str, behavior: FlowBehavior) -> CmdResult<()> {
        let a = self.actor_named(filter)?;
        self.model.actors[a.0 as usize].behavior = behavior;
        Ok(())
    }

    /// `filter X info last_token` — the provenance path (§VI-D):
    /// `#1 red -> pipe (CbCrMB_t) {Addr=0x145D,...}`.
    pub fn info_last_token(&self, filter: &str) -> CmdResult<String> {
        let a = self.actor_named(filter)?;
        let path = self.model.last_token_path(a);
        if path.is_empty() {
            return Ok(format!("`{filter}` has not received any token\n"));
        }
        let mut out = String::new();
        for (i, t) in path.iter().enumerate() {
            let link = self.model.graph.link(t.link);
            let from = self
                .model
                .graph
                .actor(self.model.graph.conn(link.from).actor);
            let to = self.model.graph.actor(self.model.graph.conn(link.to).actor);
            out.push_str(&format!(
                "#{} {} -> {} {}\n",
                i + 1,
                from.name,
                to.name,
                t.value.render_short(&self.model.types)
            ));
        }
        Ok(out)
    }

    /// `filter print last_token` — push the last received token of the
    /// focused (or named) filter into the value history (§VI-E).
    pub fn filter_print_last_token(&mut self, filter: &str) -> CmdResult<String> {
        let a = self.actor_named(filter)?;
        let id = self.model.actors[a.0 as usize]
            .last_received
            .ok_or_else(|| format!("`{filter}` has not received any token"))?;
        let v = self
            .model
            .try_token(id)
            .ok_or_else(|| format!("`{filter}`'s last token was evicted from the record"))?
            .value
            .clone();
        let n = self.record_value(v.clone());
        Ok(format!("${n} = {}", v.render_short(&self.model.types)))
    }

    /// `step_both` (§VI-C): the focused filter is about to execute a
    /// dataflow assignment; insert temporary breakpoints at both ends of
    /// the link. The output interface is parsed from the current source
    /// line (falling back to all output interfaces of the actor).
    pub fn step_both(&mut self) -> CmdResult<Vec<String>> {
        let pe = self.focused()?;
        let actor = self
            .model
            .graph
            .actors
            .iter()
            .find(|a| a.pe == Some(pe))
            .ok_or("focused PE runs no dataflow actor")?
            .id;
        // Find the interface named on the current source line.
        let mut conns: Vec<ConnId> = Vec::new();
        if let Some((file, line)) = self.current_line(pe) {
            if let Some(text) = self.info.lines.file(file).line(line) {
                if let Some(pos) = text.find("pedf.io.") {
                    let rest = &text[pos + "pedf.io.".len()..];
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if let Some(c) = self.model.graph.conn_by_name(actor, &name) {
                        if c.dir == pedf::Dir::Out {
                            conns.push(c.id);
                        }
                    }
                }
            }
        }
        if conns.is_empty() {
            conns = self.model.graph.actor(actor).outputs.clone();
        }
        if conns.is_empty() {
            return Err("the focused filter has no output interface".into());
        }
        let mut messages = Vec::new();
        for conn in conns {
            let c = self.model.graph.conn(conn);
            let Some(link) = c.link else { continue };
            let other = self.model.graph.link(link).to;
            let oc = self.model.graph.conn(other);
            let other_actor = self.model.graph.actor(oc.actor);
            let this_actor = self.model.graph.actor(actor);
            messages.push(format!(
                "[Temporary breakpoint inserted after input interface \
                 `{}::{}']",
                other_actor.name, oc.name
            ));
            messages.push(format!(
                "[Temporary breakpoint inserted after output interface \
                 `{}::{}']",
                this_actor.name, c.name
            ));
            self.model.add_catch(CatchCond::TokenSentOn { conn }, true);
            self.model
                .add_catch(CatchCond::TokenReceivedOn { conn: other }, true);
        }
        Ok(messages)
    }

    // ---- altering the execution (§III) ---------------------------------------

    fn link_of(&self, spec: &str) -> CmdResult<LinkId> {
        let conn = self.conn_named(spec)?;
        self.model
            .graph
            .conn(conn)
            .link
            .ok_or_else(|| format!("`{spec}` is not bound to a link"))
    }

    /// `token inject <actor::iface> <value>` — e.g. to untie a deadlock.
    pub fn token_inject(&mut self, spec: &str, words: &[Word]) -> CmdResult<u64> {
        let link = self.link_of(spec)?;
        let ty = self.model.graph.conn(self.model.graph.link(link).from).ty;
        let mut w = words.to_vec();
        w.resize(self.model.types.size_words(ty) as usize, 0);
        let value = Value::record(ty, w);
        let index = self
            .sys
            .runtime
            .inject_token(&mut self.sys.platform.mem, link, &value)?;
        // Mirror in the debugger model so displays agree.
        let mut stops = Vec::new();
        self.model.apply(
            DfEvent::TokenPushed {
                conn: self.model.graph.link(link).from,
                words: value.words,
            },
            self.clock(),
            &mut stops,
        );
        for s in stops {
            self.stop_queue.push_back(Stop::Dataflow(s));
        }
        self.note_history_mutation();
        Ok(index)
    }

    /// `token set <actor::iface> <idx> <value>`.
    pub fn token_set(&mut self, spec: &str, idx: u32, words: &[Word]) -> CmdResult<()> {
        let link = self.link_of(spec)?;
        let ty = self.model.graph.conn(self.model.graph.link(link).from).ty;
        let mut w = words.to_vec();
        w.resize(self.model.types.size_words(ty) as usize, 0);
        let value = Value::record(ty, w);
        self.sys
            .runtime
            .set_token(&mut self.sys.platform.mem, link, idx, &value)?;
        // Mirror: rewrite the queued token's value in the model.
        let qid = self.model.links[link.0 as usize]
            .queue
            .get(idx as usize)
            .copied();
        if let Some(id) = qid {
            if let Some(t) = self.model.tokens.get_mut(id) {
                t.value = value;
            }
        }
        self.note_history_mutation();
        Ok(())
    }

    /// `token drop <actor::iface> <idx>`.
    pub fn token_drop(&mut self, spec: &str, idx: u32) -> CmdResult<()> {
        let link = self.link_of(spec)?;
        self.sys
            .runtime
            .drop_token(&mut self.sys.platform.mem, link, idx)?;
        let l = &mut self.model.links[link.0 as usize];
        if (idx as usize) < l.queue.len() {
            l.queue.remove(idx as usize);
            l.pushed -= 1;
        }
        self.note_history_mutation();
        Ok(())
    }

    // ---- time travel (checkpoint / replay / reverse execution) ---------------

    /// Capture the debugger-side checkpoint payload.
    fn snap(&self) -> SessionSnap {
        SessionSnap {
            model: self.model.clone(),
            capture: self.capture.clone(),
            inv_seen: self.inv_seen.clone(),
            skip: self.skip.clone(),
            stop_queue: self.stop_queue.clone(),
            step_mode: self.step_mode,
            graph_learned: self.graph_learned,
        }
    }

    fn apply_snap(&mut self, s: SessionSnap) {
        // Catchpoints are user-installed stop conditions, not recorded
        // history: like breakpoints they survive time travel, even when
        // the snapshot predates their installation.
        let catchpoints = std::mem::take(&mut self.model.catchpoints);
        let next_catch = self.model.next_catch_id();
        self.model = s.model;
        self.model.set_catchpoints(catchpoints, next_catch);
        self.capture = s.capture;
        self.inv_seen = s.inv_seen;
        self.skip = s.skip;
        self.stop_queue = s.stop_queue;
        self.step_mode = s.step_mode;
        self.graph_learned = s.graph_learned;
    }

    /// Turn on deterministic checkpointing: the current state becomes the
    /// baseline (checkpoint 0, a copy-on-write fork of the machine) and
    /// the run loop records a checkpoint every `interval` cycles. Usually
    /// called right after [`Session::boot`].
    pub fn enable_time_travel(&mut self, interval: u64) -> u32 {
        let mut mgr = CheckpointManager::new(interval);
        let snap = self.snap();
        let id = mgr.baseline(&mut self.sys, snap);
        self.tt = Some(mgr);
        id
    }

    pub fn time_travel_enabled(&self) -> bool {
        self.tt.is_some()
    }

    /// The checkpoint manager, or the canonical "not enabled" diagnostic.
    /// Every reverse/restore entry point goes through this accessor (or
    /// takes the manager outright) instead of pairing an `is_some` guard
    /// with later `unwrap`s that a refactor could desync.
    fn tt_mgr(&self) -> Result<&CheckpointManager<SessionSnap>, String> {
        self.tt.as_ref().ok_or_else(|| TT_DISABLED.to_string())
    }

    /// `checkpoint` — record a checkpoint right now. Enables time travel
    /// (with the default interval) on first use, exactly like GDB's
    /// `checkpoint` starts bookkeeping lazily.
    pub fn checkpoint_now(&mut self) -> CmdResult<u32> {
        const DEFAULT_INTERVAL: u64 = 10_000;
        let Some(mut mgr) = self.tt.take() else {
            return Ok(self.enable_time_travel(DEFAULT_INTERVAL));
        };
        let clock = self.sys.clock();
        let existing = mgr.checkpoints().find(|c| c.clock == clock).map(|c| c.id);
        let inside_history = mgr.checkpoints().any(|c| c.clock > clock);
        let result = if let Some(id) = existing {
            Ok(id) // already have a boundary at this cycle
        } else if inside_history {
            Err("cannot create a checkpoint while inside recorded \
                 history (run forward past the last checkpoint first)"
                .to_string())
        } else {
            let snap = self.snap();
            Ok(mgr.checkpoint_at(&mut self.sys, snap))
        };
        self.tt = Some(mgr);
        result
    }

    /// `info checkpoints` — the recorded chain.
    pub fn checkpoints_info(&self) -> CmdResult<String> {
        let mgr = self.tt_mgr()?;
        let mut out = String::from("Id   Cycle        Pages  Hash\n");
        for c in mgr.checkpoints() {
            out.push_str(&format!(
                "{:<4} {:<12} {:<6} {:#018x}\n",
                c.id, c.clock, c.pages, c.hash
            ));
        }
        if !mgr.findings().is_empty() {
            out.push_str(&format!(
                "{} replay divergence finding(s) — see `replay findings`\n",
                mgr.findings().len()
            ));
        }
        Ok(out)
    }

    /// `restart <id>` — rewind the whole platform (VMs, memories, FIFOs,
    /// in-flight DMA, scheduler, env-I/O cursors) and the debugger model
    /// to the checkpoint. Breakpoints, watchpoints and `$N` history
    /// survive, as in GDB's `restart`.
    pub fn restart(&mut self, id: u32) -> CmdResult<u64> {
        self.horizon = self.horizon.max(self.sys.clock());
        let snap = {
            // Field access, not `tt_mgr()`: the manager must stay
            // borrowed from `self.tt` alone so `self.sys` can be handed
            // to `restore` mutably alongside it.
            let mgr = self.tt.as_ref().ok_or(TT_DISABLED)?;
            let cp = mgr
                .restore(&mut self.sys, id)
                .ok_or_else(|| format!("no checkpoint {id}"))?;
            cp.payload.clone()
        };
        self.apply_snap(snap);
        Ok(self.sys.clock())
    }

    /// Land on an exact cycle: restore the nearest checkpoint at or before
    /// `target`, then replay forward deterministically. Replays re-verify
    /// every recorded boundary they cross. Past the furthest cycle the
    /// timeline has reached, a program that finishes, deadlocks or faults
    /// before `target` has no history to land on: the replay stops there
    /// with an error naming that cycle.
    pub fn goto_cycle(&mut self, target: u64) -> CmdResult<()> {
        let id = {
            let mgr = self.tt_mgr()?;
            mgr.nearest_at_or_before(target)
                .ok_or("target cycle predates the recorded history")?
        };
        self.restart(id)?;
        while self.sys.clock() < target {
            // Stops pop without consuming cycles; re-issuing with the
            // remaining budget always makes progress toward `target`.
            let ended = match self.run(target - self.sys.clock()) {
                Stop::Quiescent => "finished",
                Stop::Deadlock => "deadlocked",
                Stop::Fault { .. } => "faulted",
                _ => continue,
            };
            let clock = self.sys.clock();
            if clock < target && clock >= self.horizon {
                return Err(format!(
                    "the program {ended} at cycle {clock}, before cycle {target}"
                ));
            }
        }
        Ok(())
    }

    /// Stops `reverse-continue` rewinds to (the ones a user would have
    /// stopped at going forward).
    fn reversible_stop(s: &Stop) -> bool {
        matches!(
            s,
            Stop::Breakpoint { .. } | Stop::Watchpoint { .. } | Stop::Dataflow(_)
        )
    }

    /// `reverse-continue` — run backwards to the most recent breakpoint,
    /// watchpoint or catchpoint hit before the current cycle. Implemented
    /// the GDB record/replay way: restore the nearest checkpoint, replay
    /// forward counting hits, then replay again up to the last one.
    pub fn reverse_continue(&mut self) -> CmdResult<Stop> {
        let origin = self.sys.clock();
        // Replays reap temporary catchpoints as they fire; both counting
        // passes must start from the same set or the hit counts drift.
        let saved_catch = self.model.catchpoints.clone();
        let saved_next = self.model.next_catch_id();
        let mut window_hi = origin;
        while let Some(cp) = self.tt_mgr()?.nearest_strictly_before(window_hi) {
            self.model.set_catchpoints(saved_catch.clone(), saved_next);
            let cp_clock = self.restart(cp)?;
            // Pass 1: count reversible hits strictly inside the window.
            let mut hits = 0u64;
            while self.sys.clock() < window_hi {
                let s = self.run(window_hi - self.sys.clock());
                if Self::reversible_stop(&s) && self.sys.clock() < window_hi {
                    hits += 1;
                }
            }
            if hits > 0 {
                // Pass 2: replay to the last hit.
                self.model.set_catchpoints(saved_catch.clone(), saved_next);
                self.restart(cp)?;
                let mut n = 0u64;
                while self.sys.clock() <= window_hi {
                    let budget = (window_hi - self.sys.clock()).max(1);
                    let s = self.run(budget);
                    if Self::reversible_stop(&s) {
                        n += 1;
                        if n == hits {
                            self.note_focus(&s);
                            return Ok(s);
                        }
                    }
                }
                return Err("replay diverged while rewinding (see `replay findings`)".into());
            }
            window_hi = cp_clock;
        }
        // No recorded hit anywhere before `origin`: put the user back.
        self.model.set_catchpoints(saved_catch, saved_next);
        self.goto_cycle(origin)?;
        Err("no earlier breakpoint, watchpoint or catchpoint hit in recorded history".into())
    }

    /// Drive the replay forward by exactly one cycle, swallowing stops.
    fn replay_one_cycle(&mut self) {
        let c = self.sys.clock();
        while self.sys.clock() == c {
            let _ = self.run(1);
        }
    }

    /// `reverse-stepi` — undo one machine instruction on the focused PE.
    pub fn reverse_stepi(&mut self) -> CmdResult<Stop> {
        let pe = self.focused()?;
        let now = self.sys.clock();
        let r_now = self.sys.platform.pes[pe.index()].retired;
        let cp = {
            let mgr = self.tt_mgr()?;
            let mut cand = None;
            for info in mgr.checkpoints() {
                if info.clock > now {
                    break;
                }
                let c = mgr.get(info.id).expect("listed checkpoint");
                if c.sys.platform.pes[pe.index()].retired < r_now {
                    cand = Some(info.id);
                }
            }
            cand.ok_or("already at the beginning of recorded history")?
        };
        self.restart(cp)?;
        // A PE retires at most one instruction per cycle: walk forward to
        // the cycle whose step brought `retired` up to the current count,
        // then land just before it.
        while self.sys.platform.pes[pe.index()].retired < r_now {
            if self.sys.clock() >= now {
                return Err("replay diverged while rewinding (see `replay findings`)".into());
            }
            self.replay_one_cycle();
        }
        let t_hit = self.sys.clock() - 1;
        self.goto_cycle(t_hit)?;
        self.focus = Some(pe);
        Ok(Stop::StepDone { pe })
    }

    /// `reverse-step` / `reverse-next` — run backwards to the previous
    /// source line on the focused PE (`step_over` additionally refuses to
    /// descend into deeper frames, like `next`).
    fn reverse_line_step(&mut self, step_over: bool) -> CmdResult<Stop> {
        let pe = self.focused()?;
        let origin = self.sys.clock();
        let now_line = self.current_line(pe);
        let now_depth = self.sys.platform.pes[pe.index()].frame_depth();
        let mut window_hi = origin;
        while let Some(cp) = self.tt_mgr()?.nearest_strictly_before(window_hi) {
            let cp_clock = self.restart(cp)?;
            // Sample (line, depth) of the focused PE at every cycle of the
            // window; the last differing line is where we land.
            let mut best: Option<u64> = None;
            while self.sys.clock() < window_hi {
                let line = self.current_line(pe);
                let depth = self.sys.platform.pes[pe.index()].frame_depth();
                if line.is_some() && line != now_line && (!step_over || depth <= now_depth) {
                    best = Some(self.sys.clock());
                }
                self.replay_one_cycle();
            }
            if let Some(c) = best {
                self.goto_cycle(c)?;
                self.focus = Some(pe);
                return Ok(Stop::StepDone { pe });
            }
            window_hi = cp_clock;
        }
        self.goto_cycle(origin)?;
        Err("no earlier source line in recorded history".into())
    }

    pub fn reverse_step(&mut self) -> CmdResult<Stop> {
        self.reverse_line_step(false)
    }

    pub fn reverse_next(&mut self) -> CmdResult<Stop> {
        self.reverse_line_step(true)
    }

    /// `token origin <id>` — jump to the cycle a recorded token was
    /// produced and name the producing firing's source location. Composes
    /// the provenance machinery (§VI-D) with the replay engine: the
    /// producing PE is still inside the push stub at that cycle, so the
    /// call site is the stub frame's return address.
    pub fn token_origin(&mut self, tok: TokenId) -> CmdResult<String> {
        let (produced_at, producer, value_s) = {
            let t = self
                .model
                .try_token(tok)
                .ok_or("no such token in the record (it may have been evicted)")?;
            let producer = self
                .model
                .graph
                .conn(self.model.graph.link(t.link).from)
                .actor;
            (
                t.produced_at,
                producer,
                t.value.render_short(&self.model.types),
            )
        };
        if produced_at > self.sys.clock() {
            return Err("token is newer than the current cycle".into());
        }
        self.goto_cycle(produced_at)?;
        let name = self.model.graph.qualified_name(producer);
        let loc = match self.model.graph.actor(producer).pe {
            Some(pe) => {
                let p = &self.sys.platform.pes[pe.index()];
                // Inside the push stub the call site is ret_addr - 1;
                // fall back to the raw pc if the frame is already gone.
                let addr = p
                    .frames
                    .last()
                    .map(|f| f.ret_addr.saturating_sub(1))
                    .unwrap_or(p.pc);
                self.focus = Some(pe);
                self.info.describe_addr(addr)
            }
            None => "<unmapped>".to_string(),
        };
        Ok(format!(
            "token {value_s} produced by `{name}' at cycle {produced_at}, {loc}"
        ))
    }

    /// FNV-chained hash of the complete current state (machine + full
    /// memory) — the strong equality tests and the CI determinism gate
    /// compare across runs.
    pub fn state_hash(&self) -> u64 {
        replay::full_state_hash(&self.sys)
    }

    /// `(checkpoints, pages dirtied between them)` — the E6 bench reports
    /// the recording footprint per interval.
    pub fn checkpoint_footprint(&self) -> (usize, usize) {
        match &self.tt {
            Some(m) => (
                m.checkpoints().count(),
                m.checkpoints().map(|c| c.pages).sum(),
            ),
            None => (0, 0),
        }
    }

    /// Divergence findings (`REPLAY501`) accumulated by boundary
    /// verification during replays.
    pub fn replay_findings(&self) -> &[debuginfo::Finding] {
        self.tt.as_ref().map_or(&[], |m| m.findings())
    }

    // ---- multiverse exploration -------------------------------------------

    /// The statically racy shared ranges (bcv RACE401 sites) as dynamic
    /// watch targets for the explorer, with actor names resolved. Runs the
    /// bytecode verifier on demand if `analyze` hasn't yet.
    fn explore_race_sites(&mut self) -> Vec<multiverse::RaceSite> {
        if self.last_bcv.is_none() {
            if let Some(bi) = &self.bcv_input {
                self.last_bcv = Some(bcv::verify(bi));
            }
        }
        let graph = &self.sys.runtime.graph;
        let name = |id: ActorId| {
            if (id.0 as usize) < graph.actors.len() {
                graph.qualified_name(id)
            } else {
                format!("actor#{}", id.0)
            }
        };
        self.last_bcv
            .as_ref()
            .map(|r| {
                r.race_sites
                    .iter()
                    .map(|s| multiverse::RaceSite {
                        lo: s.lo,
                        hi: s.hi,
                        actors: (s.a.0, s.b.0),
                        label: format!("{} <-> {}", name(s.a), name(s.b)),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `explore [--budget N] [--horizon N] [--until ...]` — fork COW
    /// universes from the current state and search scheduler
    /// interleavings for a deadlock/wedge or an observable race. The
    /// session itself does not advance; the result (witness or bounded
    /// refutation) is kept in [`Session::last_explore`].
    pub fn explore(
        &mut self,
        budget: Option<usize>,
        horizon: Option<u64>,
        until: multiverse::Until,
    ) -> CmdResult<String> {
        let mut cfg = multiverse::ExploreConfig {
            until,
            ..Default::default()
        };
        if let Some(b) = budget {
            if b == 0 {
                return Err("explore budget must be at least 1".into());
            }
            cfg.budget = b;
        }
        if let Some(h) = horizon {
            cfg.horizon = h;
        }
        cfg.race_sites = self.explore_race_sites();
        cfg.anchor = self.state_hash();
        let root = self.sys.fork();
        let report = multiverse::explore(root, &cfg);
        let text = report.transcript.join("\n");
        self.last_explore = Some(report);
        Ok(text)
    }

    /// `explore replay <witness>` — re-run a witnessed universe in *this*
    /// session: install its choice-trace overrides, enable time travel so
    /// the failure neighbourhood is navigable, and run to the witness's
    /// failure cycle.
    pub fn explore_replay(&mut self, witness: &str) -> CmdResult<String> {
        let w = multiverse::Witness::parse(witness)?;
        let here = self.state_hash();
        if w.anchor != 0 && w.anchor != here {
            return Err(format!(
                "witness anchor {:016x} does not match this session's state hash {here:016x}; \
                 replay must start from the machine the witness was found on",
                w.anchor
            ));
        }
        if self.clock() >= w.failure_cycle && w.failure_cycle > 0 {
            return Err(format!(
                "session is already at cycle {} (witness fails at {}); restart first",
                self.clock(),
                w.failure_cycle
            ));
        }
        self.sys.runtime.policy.set_overrides(&w.overrides);
        if !self.time_travel_enabled() {
            self.enable_time_travel(1_000);
        }
        let mut last = Stop::CycleLimit;
        let mut stops = 0u32;
        while self.clock() < w.failure_cycle {
            let remaining = w.failure_cycle - self.clock();
            last = self.run(remaining);
            match last {
                Stop::CycleLimit => continue,
                Stop::Quiescent | Stop::Deadlock | Stop::Fault { .. } => break,
                _ => {
                    // Breakpoints etc.: keep driving towards the failure,
                    // but never spin forever on a pathological stop storm.
                    stops += 1;
                    if stops > 100_000 {
                        return Err("too many stops while replaying the witness".into());
                    }
                }
            }
        }
        let mut out = format!(
            "replayed witness ({} override{}) to cycle {}: {}",
            w.overrides.len(),
            if w.overrides.len() == 1 { "" } else { "s" },
            self.clock(),
            self.describe(&last).lines().next().unwrap_or("stopped"),
        );
        if !w.rule.is_empty() {
            out.push_str(&format!("\nwitnessed rule: {}", w.rule));
        }
        Ok(out)
    }

    /// The execution-altering commands (§III: token inject/set/drop)
    /// change the timeline: checkpoints recorded after this point describe
    /// a history that no longer exists. Drop them and re-anchor at the
    /// mutated state so restores and replays at or after the mutation stay
    /// exact. Replays *crossing* the mutation from an earlier checkpoint
    /// legitimately report REPLAY501 — the timeline really did change.
    fn note_history_mutation(&mut self) {
        let Some(mut mgr) = self.tt.take() else {
            return;
        };
        let clock = self.sys.clock();
        self.horizon = clock;
        let snap = self.snap();
        mgr.invalidate_after(clock.saturating_sub(1));
        mgr.checkpoint_at(&mut self.sys, snap);
        self.tt = Some(mgr);
    }

    // ---- displays --------------------------------------------------------------

    /// The application graph as Graphviz DOT (Figs. 2 and 4). When an
    /// `analyze` report exists, deadlocked cycles render red,
    /// rate-inconsistent endpoints yellow, statically detected race
    /// pairs as dashed red edges between the offending actors, and the
    /// throughput-critical cycle (sched SCH504) bold.
    pub fn graph_dot(&self) -> String {
        let mut ann = self.last_analysis.as_ref().map(graphviz::annotations_from);
        if let Some(b) = &self.last_bcv {
            if !b.race_pairs.is_empty() {
                ann.get_or_insert_with(Default::default)
                    .race_pairs
                    .extend(b.race_pairs.iter().copied());
            }
        }
        if let Some(s) = &self.last_sched {
            if !s.bold_actors.is_empty() || !s.bold_links.is_empty() {
                let a = ann.get_or_insert_with(Default::default);
                a.bold_actors.extend(s.bold_actors.iter().copied());
                a.bold_links.extend(s.bold_links.iter().copied());
            }
        }
        graphviz::to_dot_annotated(&self.model, ann.as_ref())
    }

    /// `info links` — the textual occupancy table.
    pub fn info_links(&self) -> String {
        graphviz::links_table(&self.model)
    }

    /// `info filters` — state of every filter (Contribution #2's monitor).
    pub fn info_filters(&self) -> String {
        let mut out = String::new();
        for a in self.model.graph.filters() {
            let df = &self.model.actors[a.id.0 as usize];
            let place = match a.pe {
                Some(pe) => {
                    let p = &self.sys.platform.pes[pe.index()];
                    match p.status {
                        PeStatus::Blocked(r) => {
                            format!("{pe}, blocked: {r}")
                        }
                        PeStatus::Running => format!("{pe} at {}", self.info.describe_addr(p.pc)),
                        _ => format!("{pe}"),
                    }
                }
                None => "unmapped".to_string(),
            };
            out.push_str(&format!(
                "{:<12} [{}] steps={} ({place})\n",
                self.model.graph.qualified_name(a.id),
                df.sched.label(),
                df.steps_done,
            ));
        }
        out
    }

    /// Human-readable stop description, phrased like the paper's session
    /// transcripts.
    pub fn describe(&self, stop: &Stop) -> String {
        let g = &self.model.graph;
        match stop {
            Stop::Breakpoint {
                pe,
                addr,
                bp,
                work_of,
            } => match work_of {
                Some(a) => format!(
                    "[Stopped: WORK of filter `{}' triggered on {pe}]",
                    g.actor(*a).name
                ),
                None => format!(
                    "Breakpoint {bp}, at {} on {pe}",
                    self.info.describe_addr(*addr)
                ),
            },
            Stop::Watchpoint { id, addr, old, new } => {
                let label = self
                    .watchpoints
                    .iter()
                    .find(|w| w.id == *id)
                    .map(|w| w.label.clone())
                    .unwrap_or_else(|| format!("0x{addr:08x}"));
                format!("Watchpoint {id}: {label}\nOld value = {old}\nNew value = {new}")
            }
            Stop::Dataflow(df) => match df {
                DfStop::TokenReceived { actor, conn, .. } => format!(
                    "[Stopped after receiving token from `{}::{}']",
                    g.actor(*actor).name,
                    g.conn(*conn).name
                ),
                DfStop::TokenSent { actor, conn, .. } => format!(
                    "[Stopped after sending token on `{}::{}']",
                    g.actor(*actor).name,
                    g.conn(*conn).name
                ),
                DfStop::ReceiveCountsReached { actor, .. } => format!(
                    "[Stopped: filter `{}' received the requested tokens]",
                    g.actor(*actor).name
                ),
                DfStop::Scheduled { actor, .. } => format!(
                    "[Stopped: controller scheduled filter `{}']",
                    g.actor(*actor).name
                ),
                DfStop::StepBegin { module, step, .. } => format!(
                    "[Stopped at beginning of step {step} of module `{}']",
                    g.actor(*module).name
                ),
                DfStop::StepEnd { module, step, .. } => format!(
                    "[Stopped at end of step {step} of module `{}']",
                    g.actor(*module).name
                ),
            },
            Stop::StepDone { pe } => self.where_is(*pe),
            Stop::FinishDone { pe } => self.where_is(*pe),
            Stop::Fault { pe, fault } => {
                format!("Program fault on {pe}: {fault}")
            }
            Stop::Deadlock => "[Deadlock: every actor is blocked]".into(),
            Stop::Quiescent => "[Program finished]".into(),
            Stop::CycleLimit => "[Cycle budget exhausted]".into(),
        }
    }

    /// Completion candidates for a prefix over actor names, interface
    /// specs and symbols — the §IV-A auto-completion.
    pub fn complete(&self, prefix: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for a in &self.model.graph.actors {
            if a.name.starts_with(prefix) {
                out.push(a.name.clone());
            }
            for c in a.conns() {
                let spec = format!("{}::{}", a.name, self.model.graph.conn(c).name);
                if spec.starts_with(prefix) {
                    out.push(spec);
                }
            }
        }
        for s in self.info.symbols.complete(prefix) {
            out.push(s.to_string());
        }
        out.sort();
        out.dedup();
        out
    }

    /// The application's console output (pedf_print).
    pub fn console(&self) -> &[String] {
        &self.sys.runtime.console
    }

    /// In cooperation mode the model's scheduling states lag (runtime
    /// resets are invisible); expose the runtime's view for displays.
    pub fn runtime_sched(&self, actor: ActorId) -> pedf::FilterSched {
        self.sys.runtime.filter_sched(actor)
    }

    /// Count of tokens currently queued on the link feeding/driven by the
    /// given interface.
    pub fn link_occupancy(&self, spec: &str) -> CmdResult<usize> {
        let link = self.link_of(spec)?;
        Ok(self.model.occupancy(link))
    }

    /// Queued token values on an interface's link (oldest first).
    pub fn link_tokens(&self, spec: &str) -> CmdResult<Vec<Value>> {
        let link = self.link_of(spec)?;
        Ok(self.model.queued(link).map(|t| t.value.clone()).collect())
    }

    /// Access the last token id received by an actor (tests).
    pub fn last_received(&self, filter: &str) -> CmdResult<Option<TokenId>> {
        let a = self.actor_named(filter)?;
        Ok(self.model.actors[a.0 as usize].last_received)
    }

    /// Enable timeline recording (work/step begin-end events with their
    /// cycles) — the visualization extension the paper lists as future
    /// work.
    pub fn enable_timeline(&mut self) {
        self.model.timeline_enabled = true;
    }

    /// Export the recorded timeline in Chrome trace-event JSON (load in
    /// `chrome://tracing` or Perfetto): one track per actor, grouped by
    /// module, timestamps in simulated cycles.
    pub fn export_chrome_trace(&self) -> String {
        use crate::dataflow::model::TimelineKind;
        let g = &self.model.graph;
        let mut out = String::from("[\n");
        let mut first = true;
        for ev in &self.model.timeline {
            let actor = g.actor(ev.actor);
            let module = actor
                .parent
                .map(|p| g.qualified_name(p))
                .unwrap_or_else(|| "top".to_string());
            let (ph, name) = match ev.kind {
                TimelineKind::WorkBegin => ("B", actor.name.clone()),
                TimelineKind::WorkEnd => ("E", actor.name.clone()),
                TimelineKind::StepBegin => ("B", format!("step:{}", actor.name)),
                TimelineKind::StepEnd => ("E", format!("step:{}", actor.name)),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "  {{\"name\": \"{name}\", \"ph\": \"{ph}\",                  \"ts\": {}, \"pid\": \"{module}\", \"tid\": \"{}\"}}",
                ev.cycle, actor.name
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// The platform topology description (`info platform`).
    pub fn info_platform(&self) -> String {
        self.sys.platform.describe()
    }

    /// Actors in the reconstructed graph, for ActorKind-based listings.
    pub fn actors_of_kind(&self, kind: ActorKind) -> Vec<String> {
        self.model
            .graph
            .actors
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| self.model.graph.qualified_name(a.id))
            .collect()
    }
}

pub use model::DfSched;
