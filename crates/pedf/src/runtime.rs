//! The PEDF runtime system: scheduling, token transport and boot.
//!
//! This is the framework's "runtime" box in Fig. 3: it services every
//! `pedf_*` trap raised by application bytecode, owns the dynamic state of
//! the dataflow graph (FIFO counters, per-step read windows, filter
//! scheduling states) and drives environment sources/sinks once per cycle.
//!
//! ## Execution model (§IV-B)
//!
//! Filters run *step-based*: one WORK invocation processes one step.
//! A controller calls `ACTOR_START(f)` to schedule `f`; the runtime invokes
//! `f`'s WORK on its processing element as soon as that PE is idle. Without
//! a sync request the filter free-runs (WORK is re-invoked on completion).
//! `ACTOR_SYNC(f)` asks `f` to stop at the end of its current step;
//! `WAIT_FOR_ACTOR_INIT`/`WAIT_FOR_ACTOR_SYNC` block the controller until
//! all started filters have begun / all synced filters have stopped.
//! `ACTOR_FIRE` merges START and SYNC: exactly one step.
//!
//! ## Structure-model I/O (§IV-C)
//!
//! `pedf.io.in[n]` reads the *n-th token of the current step*: the runtime
//! pops tokens from the link into a per-connection window on demand
//! (blocking while the link is starved) and serves repeated reads from the
//! window. Writes must be sequential (`out[k]` with `k` equal to the number
//! already written this step) and push immediately — these eager pop/push
//! points are precisely the events the paper's debugger intercepts.

use debuginfo::{TypeTable, Value, Word};
use p2012::{BlockReason, PeId, PeState, PeStatus, TrapCtx, TrapHandler, TrapResult};

use crate::api::{self, traps};
use crate::envio::{EnvSink, EnvSource};
use crate::events::{EventBuffer, RuntimeEvent};
use crate::fifo::FifoState;
use crate::graph::{Actor, ActorId, ActorKind, AppGraph, ConnId, Dir, LinkId};
use crate::policy::{ChoiceKind, SchedulePolicy, DELAYS};

/// Scheduling state of a filter within the current step, phrased like the
/// paper's scheduling monitor: "ready to be executed, not scheduled, or
/// have already finished the step" (Contribution #2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterSched {
    #[default]
    NotScheduled,
    /// START issued, WORK not yet running (PE was busy).
    Scheduled,
    Running,
    /// Reached the requested sync point; idle until re-started.
    Synced,
}

impl FilterSched {
    pub fn label(self) -> &'static str {
        match self {
            FilterSched::NotScheduled => "not scheduled",
            FilterSched::Scheduled => "ready",
            FilterSched::Running => "running",
            FilterSched::Synced => "finished step",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ActorRt {
    sched: FilterSched,
    started: bool,
    begun: bool,
    sync_requested: bool,
    steps_done: u64,
    /// Earliest cycle a `Scheduled` filter may begin WORK; 0 (the
    /// default) means "as soon as the PE is idle". Set by a non-default
    /// [`SchedulePolicy`] choice to defer an election.
    defer_until: u64,
}

#[derive(Debug, Clone, Default)]
struct ConnRt {
    /// Flattened tokens popped into this step's read window (inputs).
    window: Vec<Word>,
    window_tokens: u32,
    /// Tokens written this step (outputs).
    written: u32,
}

/// The actor mapped on a PE, and its module when that actor is a
/// controller: worked out once, at registration, so the trap paths and
/// the parking check index instead of walking the graph.
#[derive(Debug, Clone, Copy)]
struct PeActor {
    actor: ActorId,
    /// The parent module of a controller; `None` for any other actor.
    module: Option<ActorId>,
}

#[derive(Debug, Clone, Default)]
struct ModuleRt {
    steps: u64,
    stop: bool,
    max_steps: Option<u64>,
}

/// Aggregate counters for benchmarks and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeStats {
    pub tokens_pushed: u64,
    pub tokens_popped: u64,
    pub work_invocations: u64,
}

/// The runtime system. Implements [`TrapHandler`]; owns all dynamic
/// dataflow state.
///
/// `Clone` is deliberate: every field is plain data (env sources/sinks
/// included), so session forking and every time-travel checkpoint
/// duplicate the whole runtime in one deep copy instead of re-running
/// boot + environment setup.
#[derive(Debug, Clone)]
pub struct Runtime {
    /// Shared type table (same ids as the image's debug info).
    pub types: TypeTable,
    /// The registered application graph.
    pub graph: AppGraph,
    actors_rt: Vec<ActorRt>,
    conns_rt: Vec<ConnRt>,
    /// FIFO state per link (parallel to `graph.links`).
    pub fifos: Vec<FifoState>,
    modules_rt: Vec<ModuleRt>,
    /// Indexed by [`PeId`]; sized to the platform at the first
    /// registration.
    pe_actor: Vec<Option<PeActor>>,
    /// The filters of each module in registration order, indexed by actor
    /// id (empty for non-modules). Static once the graph is registered;
    /// the WAIT_FOR_ACTOR_* traps and the parking check both read it.
    module_filters: Vec<Vec<ActorId>>,
    pub booted: bool,
    /// Output of `pedf_print` (the application's console).
    pub console: Vec<String>,
    /// Direct event stream (framework-cooperation ablation; disabled by
    /// default so the baseline stays clean).
    pub events: EventBuffer,
    /// Human-readable details for trap-level protocol faults.
    pub protocol_errors: Vec<String>,
    sources: Vec<EnvSource>,
    sinks: Vec<EnvSink>,
    pub stats: RuntimeStats,
    /// The scheduler-choice seam: answers every election with code 0 by
    /// default (today's deterministic order) unless overrides are
    /// installed. Machine state — forked, restored and hashed with the
    /// rest of the runtime so replay from a checkpoint re-consumes the
    /// same decision indices.
    pub policy: SchedulePolicy,
    pop_buf: Vec<Word>,
}

impl Runtime {
    pub fn new(types: TypeTable) -> Self {
        Runtime {
            types,
            graph: AppGraph::new(),
            actors_rt: Vec::new(),
            conns_rt: Vec::new(),
            fifos: Vec::new(),
            modules_rt: Vec::new(),
            pe_actor: Vec::new(),
            module_filters: Vec::new(),
            booted: false,
            console: Vec::new(),
            events: EventBuffer::default(),
            protocol_errors: Vec::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            stats: RuntimeStats::default(),
            policy: SchedulePolicy::default(),
            pop_buf: Vec::new(),
        }
    }

    fn fail(&mut self, detail: String, short: &'static str) -> TrapResult {
        self.protocol_errors.push(detail);
        TrapResult::Fault(short)
    }

    fn token_words(&self, conn: ConnId) -> u32 {
        self.types.size_words(self.graph.conn(conn).ty)
    }

    // ---- registration ----------------------------------------------------

    fn do_register_actor(&mut self, ctx: &mut TrapCtx<'_>, args: &[Word]) -> TrapResult {
        let [id, kind, parent1, name_addr, name_len, pe1, work1] = args else {
            return TrapResult::Fault("register_actor arity");
        };
        let Some(kind) = ActorKind::from_code(*kind) else {
            return self.fail(format!("register_actor: bad kind {kind}"), "bad actor kind");
        };
        let Some(name) = api::read_string(ctx.mem, *name_addr, *name_len) else {
            return self.fail(
                "register_actor: unreadable name".into(),
                "unreadable actor name",
            );
        };
        let parent = api::decode_opt(*parent1).map(ActorId);
        let pe = api::decode_opt(*pe1).map(|p| PeId(p as u16));
        let work = api::decode_opt(*work1);
        match self
            .graph
            .register_actor(*id, &name, kind, parent, pe, work)
        {
            Ok(aid) => {
                self.actors_rt.push(ActorRt::default());
                self.module_filters.push(Vec::new());
                if let (ActorKind::Filter, Some(module)) = (kind, parent) {
                    self.module_filters[module.0 as usize].push(aid);
                }
                // May already exist if limits were configured pre-boot.
                if self.modules_rt.len() <= aid.0 as usize {
                    self.modules_rt
                        .resize_with(aid.0 as usize + 1, ModuleRt::default);
                }
                if self.pe_actor.len() < ctx.pes.len() {
                    self.pe_actor.resize(ctx.pes.len(), None);
                }
                // A PE the platform lacks can never trap, so it needs no
                // slot.
                if let Some(slot) = pe.and_then(|pe| self.pe_actor.get_mut(pe.index())) {
                    *slot = Some(PeActor {
                        actor: aid,
                        module: parent.filter(|_| kind == ActorKind::Controller),
                    });
                }
                self.events
                    .push(|| RuntimeEvent::ActorRegistered { actor: aid });
                TrapResult::Done
            }
            Err(e) => self.fail(format!("register_actor: {e}"), "graph registration"),
        }
    }

    fn do_register_conn(&mut self, ctx: &mut TrapCtx<'_>, args: &[Word]) -> TrapResult {
        let [id, actor, dir, ty, name_addr, name_len] = args else {
            return TrapResult::Fault("register_conn arity");
        };
        let Some(dir) = Dir::from_code(*dir) else {
            return self.fail(format!("register_conn: bad dir {dir}"), "bad direction");
        };
        let Some(name) = api::read_string(ctx.mem, *name_addr, *name_len) else {
            return self.fail(
                "register_conn: unreadable name".into(),
                "unreadable conn name",
            );
        };
        if *ty as usize >= self.types.len() {
            return self.fail(format!("register_conn: bad type {ty}"), "bad type id");
        }
        match self
            .graph
            .register_conn(*id, ActorId(*actor), &name, dir, debuginfo::TypeId(*ty))
        {
            Ok(_) => {
                self.conns_rt.push(ConnRt::default());
                TrapResult::Done
            }
            Err(e) => self.fail(format!("register_conn: {e}"), "graph registration"),
        }
    }

    fn do_register_link(&mut self, args: &[Word]) -> TrapResult {
        let [id, from, to, capacity, class, fifo_base] = args else {
            return TrapResult::Fault("register_link arity");
        };
        let Some(class) = crate::graph::LinkClass::from_code(*class) else {
            return self.fail(format!("register_link: bad class {class}"), "bad class");
        };
        match self.graph.register_link(
            *id,
            ConnId(*from),
            ConnId(*to),
            *capacity,
            class,
            *fifo_base,
        ) {
            Ok(lid) => {
                let tw = self.token_words(ConnId(*from));
                self.fifos.push(FifoState::new(*fifo_base, *capacity, tw));
                self.events
                    .push(|| RuntimeEvent::LinkRegistered { link: lid });
                TrapResult::Done
            }
            Err(e) => self.fail(format!("register_link: {e}"), "graph registration"),
        }
    }

    fn do_boot_complete(&mut self, ctx: &mut TrapCtx<'_>) -> TrapResult {
        if self.booted {
            return self.fail("boot_complete twice".into(), "double boot");
        }
        self.booted = true;
        // Launch every controller on its processing element.
        let controllers: Vec<(ActorId, PeId, u32)> = self
            .graph
            .actors
            .iter()
            .filter(|a| a.kind == ActorKind::Controller)
            .filter_map(|a| Some((a.id, a.pe?, a.work_addr?)))
            .collect();
        for (actor, pe, work) in controllers {
            if !matches!(ctx.pe(pe).status, PeStatus::Idle) {
                return self.fail(
                    format!("controller {} PE busy at boot", actor.0),
                    "controller PE busy",
                );
            }
            ctx.invoke(pe, work, &[]);
            self.actors_rt[actor.0 as usize].sched = FilterSched::Running;
            self.actors_rt[actor.0 as usize].begun = true;
        }
        self.events.push(|| RuntimeEvent::BootComplete);
        TrapResult::Done
    }

    // ---- token transport ---------------------------------------------------

    /// Push `words` through output connection `conn`; shared by the scalar
    /// and struct push traps. `idx` enforces sequential writes.
    fn push_words(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        current: &mut PeState,
        conn: ConnId,
        idx: Word,
        words: &[Word],
    ) -> TrapResult {
        let Some(c) = self.graph.conns.get(conn.0 as usize) else {
            return self.fail(format!("push: bad conn {}", conn.0), "bad conn");
        };
        if c.dir != Dir::Out {
            return self.fail(
                format!("push on input connection {}", c.name),
                "push on input",
            );
        }
        let Some(link) = c.link else {
            return self.fail(format!("push on unbound conn {}", c.name), "unbound");
        };
        let ty = c.ty;
        let rt_written = self.conns_rt[conn.0 as usize].written;
        if idx != rt_written {
            return self.fail(
                format!(
                    "out-of-order write on {} (index {idx}, expected {rt_written})",
                    c.name
                ),
                "out-of-order write",
            );
        }
        let fifo = &mut self.fifos[link.0 as usize];
        match fifo.push(ctx.mem, words) {
            Ok(Some((index, stall))) => {
                current.stall += stall;
                self.conns_rt[conn.0 as usize].written += 1;
                self.stats.tokens_pushed += 1;
                self.events.push(|| RuntimeEvent::TokenPushed {
                    conn,
                    link,
                    index,
                    value: Value::record(ty, words.to_vec()),
                });
                TrapResult::Done
            }
            Ok(None) => TrapResult::Block(BlockReason::SpaceWait { link: link.0 }),
            Err(e) => self.fail(format!("push: {e}"), "fifo memory fault"),
        }
    }

    /// Ensure the read window of `conn` holds at least `idx + 1` tokens,
    /// popping from the link as needed. Returns the flattened window offset
    /// of token `idx`, or a blocking result.
    fn fill_window(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        current: &mut PeState,
        conn: ConnId,
        idx: Word,
    ) -> Result<usize, TrapResult> {
        let Some(c) = self.graph.conns.get(conn.0 as usize) else {
            return Err(self.fail(format!("pop: bad conn {}", conn.0), "bad conn"));
        };
        if c.dir != Dir::In {
            return Err(self.fail(
                format!("pop on output connection {}", c.name),
                "pop on output",
            ));
        }
        let Some(link) = c.link else {
            return Err(self.fail(format!("pop on unbound conn {}", c.name), "unbound"));
        };
        let ty = c.ty;
        let tw = self.types.size_words(ty) as usize;
        while self.conns_rt[conn.0 as usize].window_tokens <= idx {
            self.pop_buf.clear();
            let fifo = &mut self.fifos[link.0 as usize];
            match fifo.pop(ctx.mem, &mut self.pop_buf) {
                Ok(Some((index, stall))) => {
                    current.stall += stall;
                    let rt = &mut self.conns_rt[conn.0 as usize];
                    rt.window.extend_from_slice(&self.pop_buf);
                    rt.window_tokens += 1;
                    self.stats.tokens_popped += 1;
                    let words = self.pop_buf.clone();
                    self.events.push(|| RuntimeEvent::TokenPopped {
                        conn,
                        link,
                        index,
                        value: Value::record(ty, words),
                    });
                }
                Ok(None) => return Err(TrapResult::Block(BlockReason::TokenWait { link: link.0 })),
                Err(e) => return Err(self.fail(format!("pop: {e}"), "fifo memory fault")),
            }
        }
        Ok(idx as usize * tw)
    }

    // ---- scheduling ------------------------------------------------------

    fn filter_of(&mut self, id: Word) -> Result<ActorId, TrapResult> {
        match self.graph.actors.get(id as usize) {
            Some(a) if a.kind == ActorKind::Filter => Ok(a.id),
            Some(a) => Err(self.fail(
                format!("scheduling call on non-filter `{}`", a.name),
                "not a filter",
            )),
            None => Err(self.fail(format!("scheduling call on bad actor {id}"), "bad actor")),
        }
    }

    fn do_actor_start(&mut self, ctx: &mut TrapCtx<'_>, actor: ActorId) -> TrapResult {
        let a = self.graph.actor(actor);
        let (Some(pe), Some(work)) = (a.pe, a.work_addr) else {
            return self.fail(
                format!("START on unmapped filter `{}`", a.name),
                "unmapped filter",
            );
        };
        let rt = &mut self.actors_rt[actor.0 as usize];
        rt.started = true;
        self.events.push(|| RuntimeEvent::ActorStarted { actor });
        if matches!(rt.sched, FilterSched::Running) {
            // Free-running from a previous step; nothing more to do.
            return TrapResult::Done;
        }
        if matches!(ctx.pe(pe).status, PeStatus::Idle) {
            // An election: the runtime *may* begin WORK now, or lawfully
            // defer it. The policy's default answer (code 0) starts
            // immediately — byte-identical to the historical behaviour.
            let code = self
                .policy
                .decide(ChoiceKind::ActorStart, actor.0, ctx.clock);
            let delay = DELAYS[code as usize % DELAYS.len()];
            let rt = &mut self.actors_rt[actor.0 as usize];
            if delay == 0 {
                ctx.invoke(pe, work, &[]);
                rt.begun = true;
                rt.sched = FilterSched::Running;
                self.stats.work_invocations += 1;
                self.events.push(|| RuntimeEvent::WorkBegun { actor });
            } else {
                rt.begun = false;
                rt.sched = FilterSched::Scheduled;
                rt.defer_until = ctx.clock + delay;
            }
        } else {
            let rt = &mut self.actors_rt[actor.0 as usize];
            rt.begun = false;
            rt.sched = FilterSched::Scheduled;
        }
        TrapResult::Done
    }

    fn do_actor_sync(&mut self, actor: ActorId) -> TrapResult {
        let rt = &mut self.actors_rt[actor.0 as usize];
        rt.sync_requested = true;
        if !rt.started && rt.sched == FilterSched::NotScheduled {
            // Vacuous sync on a filter that never ran this step.
            rt.sched = FilterSched::Synced;
        }
        self.events
            .push(|| RuntimeEvent::ActorSyncRequested { actor });
        TrapResult::Done
    }

    /// The actor mapped on `pe`, if any.
    fn pe_actor(&self, pe: PeId) -> Option<PeActor> {
        self.pe_actor.get(pe.index()).copied().flatten()
    }

    /// The module whose controller is executing on `pe`.
    fn controller_module(&mut self, pe: PeId) -> Result<ActorId, TrapResult> {
        let Some(bound) = self.pe_actor(pe) else {
            return Err(self.fail(
                format!("controller call from unmapped {pe}"),
                "not a controller",
            ));
        };
        if let Some(module) = bound.module {
            return Ok(module);
        }
        let a = self.graph.actor(bound.actor);
        if a.kind != ActorKind::Controller {
            return Err(self.fail(
                format!("controller call from non-controller `{}`", a.name),
                "not a controller",
            ));
        }
        Err(self.fail(
            "controller without module".into(),
            "controller without module",
        ))
    }

    /// The module whose controller runs on `pe`: the lookup of
    /// [`Runtime::controller_module`] without its protocol-fault reports.
    fn waiting_module(&self, pe: PeId) -> Option<ActorId> {
        self.pe_actor(pe)?.module
    }

    /// Whether the controller of `module` must keep waiting: in
    /// WAIT_FOR_ACTOR_INIT (`InitWait`) while a started filter has not
    /// begun, in WAIT_FOR_ACTOR_SYNC (`SyncWait`) while a sync-requested
    /// filter has not stopped. The trap service and the parking check
    /// both ask here, so they cannot drift apart.
    fn wait_pending(&self, module: ActorId, wait: BlockReason) -> bool {
        self.module_filters[module.0 as usize].iter().any(|f| {
            let rt = &self.actors_rt[f.0 as usize];
            match wait {
                BlockReason::InitWait => rt.started && !rt.begun,
                BlockReason::SyncWait => rt.sync_requested && rt.sched != FilterSched::Synced,
                _ => false,
            }
        })
    }

    // ---- trap servicing entry point ---------------------------------------

    fn service(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult {
        match id {
            traps::REGISTER_ACTOR => self.do_register_actor(ctx, args),
            traps::REGISTER_CONN => self.do_register_conn(ctx, args),
            traps::REGISTER_LINK => self.do_register_link(args),
            traps::BOOT_COMPLETE => self.do_boot_complete(ctx),

            traps::PUSH_TOKEN => {
                let [conn, idx, value] = args else {
                    return TrapResult::Fault("push_token arity");
                };
                let conn = ConnId(*conn);
                if self.graph.conns.get(conn.0 as usize).is_some() && self.token_words(conn) != 1 {
                    return self.fail(
                        "scalar push on struct-typed connection".into(),
                        "wrong token width",
                    );
                }
                self.push_words(ctx, current, conn, *idx, &[*value])
            }
            traps::POP_TOKEN => {
                let [conn, idx] = args else {
                    return TrapResult::Fault("pop_token arity");
                };
                let conn = ConnId(*conn);
                if self.graph.conns.get(conn.0 as usize).is_some() && self.token_words(conn) != 1 {
                    return self.fail(
                        "scalar pop on struct-typed connection".into(),
                        "wrong token width",
                    );
                }
                match self.fill_window(ctx, current, conn, *idx) {
                    Ok(off) => TrapResult::Done1(self.conns_rt[conn.0 as usize].window[off]),
                    Err(r) => r,
                }
            }
            traps::PUSH_STRUCT => {
                let [conn, idx, local_base] = args else {
                    return TrapResult::Fault("push_struct arity");
                };
                let conn = ConnId(*conn);
                if self.graph.conns.get(conn.0 as usize).is_none() {
                    return self.fail(format!("push: bad conn {}", conn.0), "bad conn");
                }
                let tw = self.token_words(conn) as usize;
                // The stub's caller holds the struct in its locals.
                let depth = current.frames.len();
                if depth < 2 {
                    return TrapResult::Fault("struct push without caller");
                }
                let caller = &current.frames[depth - 2];
                let base = *local_base as usize;
                if base + tw > caller.locals.len() {
                    return self.fail("struct push out of caller frame".into(), "bad struct slot");
                }
                let words: Vec<Word> = caller.locals[base..base + tw].to_vec();
                self.push_words(ctx, current, conn, *idx, &words)
            }
            traps::POP_STRUCT => {
                let [conn, idx, local_base] = args else {
                    return TrapResult::Fault("pop_struct arity");
                };
                let conn = ConnId(*conn);
                if self.graph.conns.get(conn.0 as usize).is_none() {
                    return self.fail(format!("pop: bad conn {}", conn.0), "bad conn");
                }
                let tw = self.token_words(conn) as usize;
                match self.fill_window(ctx, current, conn, *idx) {
                    Ok(off) => {
                        let words: Vec<Word> =
                            self.conns_rt[conn.0 as usize].window[off..off + tw].to_vec();
                        let depth = current.frames.len();
                        if depth < 2 {
                            return TrapResult::Fault("struct pop without caller");
                        }
                        let caller = &mut current.frames[depth - 2];
                        let base = *local_base as usize;
                        if base + tw > caller.locals.len() {
                            return self
                                .fail("struct pop out of caller frame".into(), "bad struct slot");
                        }
                        caller.locals[base..base + tw].copy_from_slice(&words);
                        TrapResult::Done
                    }
                    Err(r) => r,
                }
            }
            traps::TOKENS_AVAILABLE => {
                let [conn] = args else {
                    return TrapResult::Fault("tokens_available arity");
                };
                match self.graph.conns.get(*conn as usize).and_then(|c| c.link) {
                    Some(link) => TrapResult::Done1(self.fifos[link.0 as usize].occupancy()),
                    None => self.fail(format!("tokens_available: unbound conn {conn}"), "unbound"),
                }
            }
            traps::LINK_SPACE => {
                let [conn] = args else {
                    return TrapResult::Fault("link_space arity");
                };
                match self.graph.conns.get(*conn as usize).and_then(|c| c.link) {
                    Some(link) => {
                        let f = &self.fifos[link.0 as usize];
                        TrapResult::Done1(f.capacity - f.occupancy())
                    }
                    None => self.fail(format!("link_space: unbound conn {conn}"), "unbound"),
                }
            }

            traps::ACTOR_START => {
                let [actor] = args else {
                    return TrapResult::Fault("actor_start arity");
                };
                match self.filter_of(*actor) {
                    Ok(a) => self.do_actor_start(ctx, a),
                    Err(r) => r,
                }
            }
            traps::ACTOR_SYNC => {
                let [actor] = args else {
                    return TrapResult::Fault("actor_sync arity");
                };
                match self.filter_of(*actor) {
                    Ok(a) => self.do_actor_sync(a),
                    Err(r) => r,
                }
            }
            traps::ACTOR_FIRE => {
                let [actor] = args else {
                    return TrapResult::Fault("actor_fire arity");
                };
                match self.filter_of(*actor) {
                    Ok(a) => match self.do_actor_start(ctx, a) {
                        TrapResult::Done => self.do_actor_sync(a),
                        r => r,
                    },
                    Err(r) => r,
                }
            }
            traps::WAIT_ACTOR_INIT => {
                let module = match self.controller_module(pe) {
                    Ok(m) => m,
                    Err(r) => return r,
                };
                if self.wait_pending(module, BlockReason::InitWait) {
                    TrapResult::Block(BlockReason::InitWait)
                } else {
                    TrapResult::Done
                }
            }
            traps::WAIT_ACTOR_SYNC => {
                let module = match self.controller_module(pe) {
                    Ok(m) => m,
                    Err(r) => return r,
                };
                if self.wait_pending(module, BlockReason::SyncWait) {
                    return TrapResult::Block(BlockReason::SyncWait);
                }
                // Step boundary: reset every synced filter for the next step.
                for f in &self.module_filters[module.0 as usize] {
                    let rt = &mut self.actors_rt[f.0 as usize];
                    if rt.sync_requested {
                        rt.sync_requested = false;
                        rt.started = false;
                        rt.begun = false;
                        rt.sched = FilterSched::NotScheduled;
                    }
                }
                TrapResult::Done
            }
            traps::STEP_BEGIN => {
                let module = match self.controller_module(pe) {
                    Ok(m) => m,
                    Err(r) => return r,
                };
                // A controller's WORK never returns between steps (it loops
                // until `pedf_continue` says stop), so its I/O windows reset
                // at the step boundary it declares, not at task completion.
                if let Some(ctrl) = self.pe_actor(pe) {
                    reset_windows(&mut self.conns_rt, self.graph.actor(ctrl.actor));
                }
                let m = &mut self.modules_rt[module.0 as usize];
                m.steps += 1;
                let step = m.steps;
                self.events
                    .push(|| RuntimeEvent::StepBegun { module, step });
                TrapResult::Done
            }
            traps::STEP_END => {
                let module = match self.controller_module(pe) {
                    Ok(m) => m,
                    Err(r) => return r,
                };
                let step = self.modules_rt[module.0 as usize].steps;
                self.events
                    .push(|| RuntimeEvent::StepEnded { module, step });
                TrapResult::Done
            }
            traps::CONTINUE => {
                let module = match self.controller_module(pe) {
                    Ok(m) => m,
                    Err(r) => return r,
                };
                let m = &self.modules_rt[module.0 as usize];
                let done = m.stop || m.max_steps.is_some_and(|max| m.steps >= max);
                TrapResult::Done1(u32::from(!done))
            }
            traps::PRINT => {
                let [value] = args else {
                    return TrapResult::Fault("print arity");
                };
                self.console.push(format!("{value}"));
                TrapResult::Done
            }
            other => self.fail(format!("unknown trap {other}"), "unknown trap"),
        }
    }

    // ---- environment I/O ---------------------------------------------------

    fn run_env(&mut self, ctx: &mut TrapCtx<'_>) {
        let mut sources = std::mem::take(&mut self.sources);
        for s in &mut sources {
            // One token per cycle at most, catching up after stalls.
            if !s.due(ctx.clock) {
                continue;
            }
            let Some(link) = self.graph.conn(s.conn).link else {
                continue;
            };
            let ty = self.graph.conn(s.conn).ty;
            let fifo = &mut self.fifos[link.0 as usize];
            if fifo.is_full() {
                continue; // retry next cycle; order preserved
            }
            // Record/replay point: on a first-run cycle this pulls a fresh
            // value and records it; on a replayed cycle it re-serves the
            // recorded value, because the environment is outside the
            // deterministic machine and cannot be re-executed.
            let v = s.pull();
            if let Ok(Some((index, _))) = fifo.push(ctx.mem, &[v]) {
                s.produced += 1;
                self.stats.tokens_pushed += 1;
                let conn = s.conn;
                self.events.push_env(|| RuntimeEvent::TokenPushed {
                    conn,
                    link,
                    index,
                    value: Value::scalar(ty, v),
                });
            }
        }
        self.sources = sources;

        let mut sinks = std::mem::take(&mut self.sinks);
        for k in &mut sinks {
            if !k.due(ctx.clock) {
                continue;
            }
            let Some(link) = self.graph.conn(k.conn).link else {
                continue;
            };
            let ty = self.graph.conn(k.conn).ty;
            self.pop_buf.clear();
            let fifo = &mut self.fifos[link.0 as usize];
            if let Ok(Some((index, _))) = fifo.pop(ctx.mem, &mut self.pop_buf) {
                self.stats.tokens_popped += 1;
                k.record(self.pop_buf.first().copied().unwrap_or(0));
                let conn = k.conn;
                let words = self.pop_buf.clone();
                self.events.push_env(|| RuntimeEvent::TokenPopped {
                    conn,
                    link,
                    index,
                    value: Value::record(ty, words),
                });
            }
        }
        self.sinks = sinks;
    }

    // ---- public configuration & inspection API ----------------------------

    /// Attach a source to a module input connection (post-boot).
    pub fn add_source(&mut self, source: EnvSource) -> Result<(), String> {
        let c = self
            .graph
            .conns
            .get(source.conn.0 as usize)
            .ok_or("no such connection")?;
        if self.graph.actor(c.actor).kind != ActorKind::Module || c.dir != Dir::In {
            return Err(format!("`{}` is not a module input connection", c.name));
        }
        if c.link.is_none() {
            return Err(format!("module input `{}` is unbound", c.name));
        }
        if self.types.size_words(c.ty) != 1 {
            return Err("sources only feed scalar-typed links".into());
        }
        self.sources.push(source);
        Ok(())
    }

    /// Attach a sink to a module output connection (post-boot).
    pub fn add_sink(&mut self, sink: EnvSink) -> Result<(), String> {
        let c = self
            .graph
            .conns
            .get(sink.conn.0 as usize)
            .ok_or("no such connection")?;
        if self.graph.actor(c.actor).kind != ActorKind::Module || c.dir != Dir::Out {
            return Err(format!("`{}` is not a module output connection", c.name));
        }
        if c.link.is_none() {
            return Err(format!("module output `{}` is unbound", c.name));
        }
        self.sinks.push(sink);
        Ok(())
    }

    pub fn sink_for(&self, conn: ConnId) -> Option<&EnvSink> {
        self.sinks.iter().find(|s| s.conn == conn)
    }

    /// All attached sinks, in attachment order (observable-outcome
    /// signatures for multiverse exploration).
    pub fn sinks(&self) -> &[EnvSink] {
        &self.sinks
    }

    pub fn source_for(&self, conn: ConnId) -> Option<&EnvSource> {
        self.sources.iter().find(|s| s.conn == conn)
    }

    /// Tokens currently queued on `link`.
    pub fn occupancy(&self, link: LinkId) -> u32 {
        self.fifos[link.0 as usize].occupancy()
    }

    /// `(pushed, popped)` monotonic counters of `link`.
    pub fn counters(&self, link: LinkId) -> (u64, u64) {
        let f = &self.fifos[link.0 as usize];
        (f.pushed, f.popped)
    }

    /// Typed snapshot of the queued tokens (debugger `graph`/`iface print`).
    pub fn queued_tokens(&self, mem: &p2012::Memory, link: LinkId) -> Vec<Value> {
        let f = &self.fifos[link.0 as usize];
        let ty = self.graph.conn(self.graph.link(link).from).ty;
        (0..f.occupancy())
            .filter_map(|i| f.peek(mem, i))
            .map(|words| Value::record(ty, words))
            .collect()
    }

    pub fn filter_sched(&self, actor: ActorId) -> FilterSched {
        self.actors_rt[actor.0 as usize].sched
    }

    /// Test-only: overwrite a filter's scheduling flags.
    #[cfg(test)]
    pub(crate) fn force_filter_flags(
        &mut self,
        actor: ActorId,
        sched: FilterSched,
        started: bool,
        begun: bool,
        sync_requested: bool,
    ) {
        let rt = &mut self.actors_rt[actor.0 as usize];
        rt.sched = sched;
        rt.started = started;
        rt.begun = begun;
        rt.sync_requested = sync_requested;
    }

    /// True while a policy-deferred WORK start is still pending: some
    /// elected filter's `defer_until` lies strictly in the future, so the
    /// machine *will* make progress even though every PE currently looks
    /// idle or blocked. Deadlock detection must treat such a state as
    /// alive — the pending invocation is runtime state the platform
    /// cannot see. Always false under the default policy.
    pub fn pending_deferred(&self, clock: u64) -> bool {
        self.actors_rt
            .iter()
            .any(|rt| rt.sched == FilterSched::Scheduled && rt.defer_until > clock)
    }

    pub fn steps_done(&self, actor: ActorId) -> u64 {
        self.actors_rt[actor.0 as usize].steps_done
    }

    pub fn module_steps(&self, module: ActorId) -> u64 {
        self.modules_rt
            .get(module.0 as usize)
            .map_or(0, |m| m.steps)
    }

    /// Grow-on-demand access: module limits may be configured before boot,
    /// i.e. before the registration traps have sized the table.
    fn module_rt_mut(&mut self, module: ActorId) -> &mut ModuleRt {
        let idx = module.0 as usize;
        if idx >= self.modules_rt.len() {
            self.modules_rt.resize_with(idx + 1, ModuleRt::default);
        }
        &mut self.modules_rt[idx]
    }

    pub fn set_max_steps(&mut self, module: ActorId, max: u64) {
        self.module_rt_mut(module).max_steps = Some(max);
    }

    pub fn request_stop(&mut self, module: ActorId) {
        self.module_rt_mut(module).stop = true;
    }

    /// Debugger: append a token to `link` out of thin air (§III "Altering
    /// the Normal Execution" — e.g. untying a deadlock).
    pub fn inject_token(
        &mut self,
        mem: &mut p2012::Memory,
        link: LinkId,
        value: &Value,
    ) -> Result<u64, String> {
        let ty = self.graph.conn(self.graph.link(link).from).ty;
        if value.ty != ty {
            return Err(format!(
                "type mismatch: link carries {}, got {}",
                self.types.name(ty),
                self.types.name(value.ty)
            ));
        }
        self.fifos[link.0 as usize].inject(mem, &value.words)
    }

    /// Debugger: overwrite the `idx`-th queued token.
    pub fn set_token(
        &mut self,
        mem: &mut p2012::Memory,
        link: LinkId,
        idx: u32,
        value: &Value,
    ) -> Result<(), String> {
        let ty = self.graph.conn(self.graph.link(link).from).ty;
        if value.ty != ty {
            return Err("type mismatch".to_string());
        }
        self.fifos[link.0 as usize].overwrite(mem, idx, &value.words)
    }

    /// Debugger: delete the `idx`-th queued token.
    pub fn drop_token(
        &mut self,
        mem: &mut p2012::Memory,
        link: LinkId,
        idx: u32,
    ) -> Result<(), String> {
        self.fifos[link.0 as usize].remove(mem, idx)
    }

    // ---- checkpoint/replay -------------------------------------------------

    /// Time travel: `self`, the runtime as a checkpoint recorded it, is
    /// about to replace `live`. Everything here is recorded machine state
    /// except the environment's recordings (and the generator of a
    /// `re_pull` source), which carry across; see
    /// [`EnvSource::adopt_environment`].
    pub fn adopt_environment(&mut self, live: &mut Runtime) {
        for (src, l) in self.sources.iter_mut().zip(&mut live.sources) {
            src.adopt_environment(l);
        }
    }

    /// Feed the dynamic runtime state to a hasher (divergence check).
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u8(u8::from(self.booted));
        h.write_u64(self.stats.tokens_pushed);
        h.write_u64(self.stats.tokens_popped);
        h.write_u64(self.stats.work_invocations);
        for a in &self.actors_rt {
            p2012::hash_debug(h, &a.sched);
            h.write_u8(u8::from(a.started));
            h.write_u8(u8::from(a.begun));
            h.write_u8(u8::from(a.sync_requested));
            h.write_u64(a.steps_done);
            h.write_u64(a.defer_until);
        }
        for c in &self.conns_rt {
            h.write_u32(c.window_tokens);
            h.write_u32(c.written);
            for w in &c.window {
                h.write_u32(*w);
            }
        }
        for f in &self.fifos {
            h.write_u64(f.pushed);
            h.write_u64(f.popped);
        }
        for m in &self.modules_rt {
            h.write_u64(m.steps);
            h.write_u8(u8::from(m.stop));
        }
        h.write_usize(self.console.len());
        h.write_usize(self.protocol_errors.len());
        for s in &self.sources {
            h.write_u64(s.produced);
        }
        for k in &self.sinks {
            h.write_u64(k.consumed);
            h.write_u64(k.checksum);
        }
        self.policy.hash_state(h);
    }
}

/// Clear `actor`'s read windows and write counts at a step boundary.
fn reset_windows(conns_rt: &mut [ConnRt], actor: &Actor) {
    for c in actor.conns() {
        let rt = &mut conns_rt[c.0 as usize];
        rt.window.clear();
        rt.window_tokens = 0;
        rt.written = 0;
    }
}

impl TrapHandler for Runtime {
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult {
        self.service(ctx, pe, current, id, args)
    }

    /// Exact by construction: a blocked pop has already drained its link
    /// into the read window and a blocked push has passed every protocol
    /// check, so a retry of either re-tests only the FIFO; a WAIT retry
    /// re-tests only `wait_pending`. DMA and runtime-defined
    /// waits are re-presented every cycle.
    fn still_blocked(&self, pe: PeId, reason: BlockReason) -> bool {
        match reason {
            BlockReason::TokenWait { link } => self
                .fifos
                .get(link as usize)
                .is_some_and(FifoState::is_empty),
            BlockReason::SpaceWait { link } => self
                .fifos
                .get(link as usize)
                .is_some_and(FifoState::is_full),
            BlockReason::InitWait | BlockReason::SyncWait => self
                .waiting_module(pe)
                .is_some_and(|m| self.wait_pending(m, reason)),
            BlockReason::DmaWait { .. } | BlockReason::Other(_) => false,
        }
    }

    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        u32::from(self.policy.decide(ChoiceKind::DmaOrder, n_active, clock))
    }

    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        let Some(PeActor { actor, .. }) = self.pe_actor(pe) else {
            return; // boot code finishing on the host
        };
        let kind = self.graph.actor(actor).kind;
        if kind == ActorKind::Controller {
            // Controller loop exited (pedf_continue returned 0).
            self.actors_rt[actor.0 as usize].sched = FilterSched::Synced;
            return;
        }
        // A filter finished one WORK step.
        let steps_done = {
            let rt = &mut self.actors_rt[actor.0 as usize];
            rt.steps_done += 1;
            rt.steps_done
        };
        // Step boundary: reset this filter's I/O windows.
        reset_windows(&mut self.conns_rt, self.graph.actor(actor));
        self.events
            .push(|| RuntimeEvent::WorkEnded { actor, steps_done });
        let rt = &mut self.actors_rt[actor.0 as usize];
        if rt.sync_requested {
            rt.sched = FilterSched::Synced;
            self.events.push(|| RuntimeEvent::ActorSynced { actor });
        } else if rt.started {
            // Free-running: the next step normally begins immediately, but
            // the re-invocation is an election too — the policy may defer.
            let code = self
                .policy
                .decide(ChoiceKind::ActorStart, actor.0, ctx.clock);
            let delay = DELAYS[code as usize % DELAYS.len()];
            if delay == 0 {
                let work = self.graph.actor(actor).work_addr.unwrap();
                current.invoke(work, &[]);
                let rt = &mut self.actors_rt[actor.0 as usize];
                rt.begun = true;
                rt.sched = FilterSched::Running;
                self.stats.work_invocations += 1;
                self.events.push(|| RuntimeEvent::WorkBegun { actor });
            } else {
                let rt = &mut self.actors_rt[actor.0 as usize];
                rt.begun = false;
                rt.sched = FilterSched::Scheduled;
                rt.defer_until = ctx.clock + delay;
            }
        } else {
            rt.sched = FilterSched::NotScheduled;
        }
    }

    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        if self.booted {
            self.run_env(ctx);
        }
        // Late-start scheduled filters whose PE freed up outside
        // on_task_complete (e.g. after a fault recovery).
        if self.booted {
            for i in 0..self.actors_rt.len() {
                // Almost always false: test the runtime's own contiguous
                // state before touching the graph.
                if self.actors_rt[i].sched != FilterSched::Scheduled {
                    continue;
                }
                let actor = ActorId(i as u32);
                let a = self.graph.actor(actor);
                if a.kind != ActorKind::Filter {
                    continue;
                }
                let (Some(pe), Some(work)) = (a.pe, a.work_addr) else {
                    continue;
                };
                if self.actors_rt[actor.0 as usize].defer_until > ctx.clock {
                    continue; // policy-deferred election not yet due
                }
                if matches!(ctx.pe(pe).status, PeStatus::Idle) {
                    ctx.invoke(pe, work, &[]);
                    let rt = &mut self.actors_rt[actor.0 as usize];
                    rt.begun = true;
                    rt.sched = FilterSched::Running;
                    rt.defer_until = 0;
                    self.stats.work_invocations += 1;
                    self.events.push(|| RuntimeEvent::WorkBegun { actor });
                }
            }
        }
    }
}
