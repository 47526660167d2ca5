//! The debugger's internal representation of the running dataflow
//! application — the top half of Fig. 3.
//!
//! * **Actor objects** mirror filters, controllers and modules, with their
//!   execution context (PE), scheduling state and flow behaviour;
//! * **Token objects** are "not associated with any framework object,
//!   their state only corresponds to the logical implications of runtime
//!   events" (§V) — they are created on observed pushes, consumed on
//!   observed pops, and chained into provenance paths;
//! * **Connection objects** track per-step windows, totals and recording;
//! * **Link objects** hold the queued Token objects.
//!
//! The model is fed [`DfEvent`]s by the capture layer (function
//! breakpoints) or, in the framework-cooperation ablation, by the
//! runtime's direct event stream. It is deliberately independent of the
//! `pedf::Runtime` internals: everything here is derivable from observed
//! framework calls.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

pub use debuginfo::InlineSlice;
use debuginfo::{TypeId, TypeTable, Value, Word};
use p2012::PeId;
use pedf::{ActorId, ActorKind, AppGraph, ConnId, Dir, LinkClass, LinkId};

use super::chunked::Chunked;

/// Identity of one token for its whole life. Generational: the low 32
/// bits name an arena slot, the high 32 bits the slot's generation at
/// allocation time. A stale id (its token was evicted and the slot
/// reused) never resolves to the slot's new occupant.
pub type TokenId = u64;

#[inline]
fn token_slot(id: TokenId) -> u32 {
    id as u32
}

#[inline]
fn token_generation(id: TokenId) -> u32 {
    (id >> 32) as u32
}

/// A token payload cut or zero-padded to `n` words; copied only when its
/// length changes.
fn fit_words(words: InlineSlice<Word>, n: usize) -> InlineSlice<Word> {
    if words.len() == n {
        return words;
    }
    let mut v = words.to_vec();
    v.resize(n, 0);
    v.into()
}

/// A token's typed payload as plain data. The [`Value`] that renders it
/// is built only when something does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenValue {
    pub ty: TypeId,
    pub words: InlineSlice<Word>,
}

impl TokenValue {
    /// First payload word (see [`Value::head_word`]).
    pub fn head_word(&self) -> Word {
        self.words.first().copied().unwrap_or(0)
    }

    /// The record field named `field`, if any (see [`Value::field`]).
    pub fn field(&self, types: &TypeTable, field: &str) -> Option<Word> {
        let f = types.field(self.ty, field)?;
        self.words.get(f.word_offset as usize).copied()
    }

    pub fn to_value(&self) -> Value {
        Value::record(self.ty, self.words.to_vec())
    }

    pub fn render_short(&self, types: &TypeTable) -> String {
        self.to_value().render_short(types)
    }
}

impl From<&Value> for TokenValue {
    fn from(v: &Value) -> Self {
        TokenValue {
            ty: v.ty,
            words: InlineSlice::from_slice(&v.words),
        }
    }
}

/// Dataflow-level event, as observed by the capture layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DfEvent {
    ActorRegistered {
        id: u32,
        name: String,
        kind: ActorKind,
        parent: Option<u32>,
        pe: Option<PeId>,
        work: Option<u32>,
    },
    ConnRegistered {
        id: u32,
        actor: u32,
        name: String,
        dir: Dir,
        ty: debuginfo::TypeId,
    },
    LinkRegistered {
        id: u32,
        from: u32,
        to: u32,
        capacity: u32,
        class: LinkClass,
        fifo_base: u32,
    },
    BootComplete,
    /// A token entered the link bound to output connection `conn`.
    TokenPushed {
        conn: ConnId,
        words: InlineSlice<Word>,
    },
    /// `pedf.io.in[index]` completed on input connection `conn`: the read
    /// window now holds `index + 1` tokens (tokens may have been consumed
    /// from the link to satisfy it).
    TokenPopped {
        conn: ConnId,
        index: u32,
        words: InlineSlice<Word>,
    },
    ActorStarted {
        actor: ActorId,
    },
    ActorSyncRequested {
        actor: ActorId,
    },
    WorkBegun {
        actor: ActorId,
    },
    WorkEnded {
        actor: ActorId,
    },
    /// The module's controller completed WAIT_FOR_ACTOR_SYNC: synced
    /// filters reset for the next step.
    WaitSyncCompleted {
        module: ActorId,
    },
    StepBegun {
        module: ActorId,
    },
    StepEnded {
        module: ActorId,
    },
}

/// Scheduling state shown by the monitor (Contribution #2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DfSched {
    #[default]
    NotScheduled,
    Scheduled,
    Running,
    Synced,
}

impl DfSched {
    pub fn label(self) -> &'static str {
        match self {
            DfSched::NotScheduled => "not scheduled",
            DfSched::Scheduled => "ready",
            DfSched::Running => "running",
            DfSched::Synced => "finished step",
        }
    }
}

/// Token-flow behaviour of a filter, provided by the developer (§VI-D:
/// "as this behavior depends on the filter implementation, the debugger
/// cannot automatically figure it out"). Without a declared behaviour the
/// debugger does not guess provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowBehavior {
    #[default]
    Unknown,
    /// One output token derives from the last input token.
    Pipeline,
    /// Every output token (across all interfaces) derives from the last
    /// input token (the paper's `filter red configure splitter`).
    Splitter,
    /// An output token derives from all inputs consumed since the last
    /// output.
    Merger,
}

impl FlowBehavior {
    pub fn parse(s: &str) -> Option<FlowBehavior> {
        match s {
            "pipeline" => Some(FlowBehavior::Pipeline),
            "splitter" => Some(FlowBehavior::Splitter),
            "merger" => Some(FlowBehavior::Merger),
            "unknown" => Some(FlowBehavior::Unknown),
            _ => None,
        }
    }
}

/// One token's life record. Plain data: it owns no heap allocation, so
/// copying a chunk of records (a checkpoint's first write to it) only
/// copies bytes and bumps the count of a shared multi-word payload.
#[derive(Debug, Clone)]
pub struct TokenRec {
    pub id: TokenId,
    pub link: LinkId,
    /// Global FIFO index on its link.
    pub index: u64,
    pub value: TokenValue,
    /// Tokens this one was derived from (per the producer's behaviour):
    /// the single predecessor inline, a merger's inputs shared.
    pub provenance: InlineSlice<TokenId>,
    pub produced_at: u64,
    pub consumed_at: Option<u64>,
    /// True for tokens first seen at consumption (host-injected or pushed
    /// while data-exchange capture was disabled).
    pub synthesized: bool,
}

/// Debugger-side actor state. Plain data, so the actor table copies
/// with one `memcpy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfActor {
    pub sched: DfSched,
    pub started: bool,
    pub begun: bool,
    pub sync_requested: bool,
    pub steps_done: u64,
    pub behavior: FlowBehavior,
    pub last_received: Option<TokenId>,
    pub last_sent: Option<TokenId>,
    /// Inputs consumed since the last output (merger provenance): the
    /// first `pending_len` entries, inline so that copying an actor does
    /// not allocate.
    pending_inputs: [TokenId; PENDING_CAP],
    pending_len: usize,
}

impl DfActor {
    fn note_input(&mut self, id: TokenId) {
        if self.pending_len < PENDING_CAP {
            self.pending_inputs[self.pending_len] = id;
            self.pending_len += 1;
        }
    }

    /// The inputs consumed since the last output, which a merger's output
    /// derives from.
    fn inputs(&self) -> &[TokenId] {
        &self.pending_inputs[..self.pending_len]
    }
}

/// Debugger-side connection state. Plain data: the interface's recorded
/// history lives in the model ([`DfModel::history`]), so the connection
/// table copies with one `memcpy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfConn {
    /// Tokens received this step (the catch `Pipe_in=1,Hwcfg_in=1` counts).
    pub window_count: u32,
    /// Tokens sent this step.
    pub sent_this_step: u32,
    /// Total tokens ever transmitted through this connection.
    pub total: u64,
    /// Recording enabled (`iface ... record`).
    pub record: bool,
}

/// Debugger-side link state: the queue of Token objects.
#[derive(Debug, Clone, Default)]
pub struct DfLink {
    pub queue: VecDeque<TokenId>,
    pub pushed: u64,
    pub popped: u64,
}

/// A dataflow catchpoint.
#[derive(Debug, Clone)]
pub struct Catchpoint {
    pub id: u32,
    pub enabled: bool,
    pub temporary: bool,
    pub cond: CatchCond,
}

/// What a catchpoint waits for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatchCond {
    /// Stop when the filter has received at least `n` tokens on each
    /// listed interface within the current step
    /// (`filter ipred catch Pipe_in=1,Hwcfg_in=1` / `catch *in=1`).
    ReceiveCounts {
        actor: ActorId,
        conds: Vec<(ConnId, u32)>,
    },
    /// Stop after every token received on this connection.
    TokenReceivedOn { conn: ConnId },
    /// Stop after every token sent on this connection.
    TokenSentOn { conn: ConnId },
    /// Stop when a token whose head word equals `value` is received.
    TokenValueEq { conn: ConnId, value: Word },
    /// Stop when the connection's total transmitted count reaches `n`.
    TotalCount { conn: ConnId, count: u64 },
    /// Stop when a controller schedules this filter (ACTOR_START).
    Scheduled { actor: ActorId },
    /// Stop at the beginning of a module step (None = any module).
    StepBegin { module: Option<ActorId> },
    /// Stop at the end of a module step.
    StepEnd { module: Option<ActorId> },
}

/// A triggered stop, to be surfaced to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfStop {
    TokenReceived {
        catch: u32,
        actor: ActorId,
        conn: ConnId,
        token: TokenId,
    },
    TokenSent {
        catch: u32,
        actor: ActorId,
        conn: ConnId,
        token: TokenId,
    },
    ReceiveCountsReached {
        catch: u32,
        actor: ActorId,
    },
    Scheduled {
        catch: u32,
        actor: ActorId,
    },
    StepBegin {
        catch: u32,
        module: ActorId,
        step: u64,
    },
    StepEnd {
        catch: u32,
        module: ActorId,
        step: u64,
    },
}

impl DfStop {
    /// The catchpoint that fired.
    pub fn catch(&self) -> u32 {
        match self {
            DfStop::TokenReceived { catch, .. }
            | DfStop::TokenSent { catch, .. }
            | DfStop::ReceiveCountsReached { catch, .. }
            | DfStop::Scheduled { catch, .. }
            | DfStop::StepBegin { catch, .. }
            | DfStop::StepEnd { catch, .. } => *catch,
        }
    }
}

/// Bound on per-connection recorded history.
const HISTORY_CAP: usize = 4096;
/// Bound on merger pending-input provenance.
const PENDING_CAP: usize = 32;
/// Default bound on the global token store and the timeline ring. A long
/// non-recording run keeps at most this many live Token objects; older
/// consumed tokens are evicted oldest-first.
pub const RECORD_LIMIT: usize = 1 << 16;

/// Generational slot-reuse arena for [`TokenRec`]s with a ring-buffer
/// eviction policy.
///
/// Token objects are "created on observed pushes, consumed on observed
/// pops" (§V); without a bound the store grows for the whole run even
/// when nobody asked for recording. The arena keeps at most `limit` live
/// tokens: when an allocation exceeds the bound, the oldest *consumed*
/// tokens are evicted and their slots reused under a bumped generation.
/// Tokens still queued on a link are never evicted (the occupancy model
/// depends on them), and stale ids held by provenance chains, histories
/// or `last_received` pointers simply stop resolving instead of aliasing
/// a reused slot.
///
/// The slots, the free list and the eviction ring are [`Chunked`], so a
/// clone (a checkpoint, a forked session) shares them and each side
/// copies only the chunks it writes afterwards.
#[derive(Debug, Clone)]
pub struct TokenStore {
    slots: Chunked<TokenSlot>,
    free: Chunked<u32>,
    /// Live tokens in allocation order: the eviction ring.
    order: Chunked<TokenId>,
    limit: usize,
    allocated: u64,
    evicted: u64,
}

#[derive(Debug, Clone)]
struct TokenSlot {
    generation: u32,
    rec: Option<TokenRec>,
}

impl Default for TokenStore {
    fn default() -> Self {
        TokenStore {
            slots: Chunked::default(),
            free: Chunked::default(),
            order: Chunked::default(),
            limit: RECORD_LIMIT,
            allocated: 0,
            evicted: 0,
        }
    }
}

impl TokenStore {
    /// Live (non-evicted) token count; never exceeds `limit` by more than
    /// the number of still-queued (unevictable) tokens.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total tokens ever allocated (the pre-bounding `tokens.len()`).
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    pub fn limit(&self) -> usize {
        self.limit
    }

    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit.max(1);
        self.evict_excess();
    }

    pub fn get(&self, id: TokenId) -> Option<&TokenRec> {
        let slot = self.slots.get(token_slot(id) as usize)?;
        if slot.generation != token_generation(id) {
            return None; // evicted, slot reused
        }
        slot.rec.as_ref()
    }

    pub fn get_mut(&mut self, id: TokenId) -> Option<&mut TokenRec> {
        // Resolve read-only first: a stale id must not copy a shared chunk.
        self.get(id)?;
        self.slots.get_mut(token_slot(id) as usize)?.rec.as_mut()
    }

    /// Allocate a slot, build the record (the closure receives the new
    /// token's id), and evict past the bound.
    fn alloc(&mut self, make: impl FnOnce(TokenId) -> TokenRec) -> TokenId {
        let slot = match self.free.pop_back() {
            Some(s) => s,
            None => {
                self.slots.push_back(TokenSlot {
                    generation: 0,
                    rec: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let entry = self.slots.get_mut(slot as usize).expect("slot exists");
        let id = (u64::from(entry.generation) << 32) | u64::from(slot);
        entry.rec = Some(make(id));
        self.order.push_back(id);
        self.allocated += 1;
        self.evict_excess();
        id
    }

    /// Evict the oldest consumed tokens until at most `limit` live.
    /// Unconsumed (still-queued) tokens are retained in place.
    fn evict_excess(&mut self) {
        if self.order.len() <= self.limit {
            return;
        }
        let mut excess = self.order.len() - self.limit;
        let mut retained: Vec<TokenId> = Vec::new();
        while excess > 0 {
            let Some(id) = self.order.pop_front() else {
                break;
            };
            let i = token_slot(id) as usize;
            let consumed = self
                .slots
                .get(i)
                .and_then(|s| s.rec.as_ref())
                .is_none_or(|r| r.consumed_at.is_some());
            if consumed {
                let slot = self.slots.get_mut(i).expect("live slot");
                slot.rec = None;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push_back(token_slot(id));
                self.evicted += 1;
                excess -= 1;
            } else {
                retained.push(id);
            }
        }
        for id in retained.into_iter().rev() {
            self.order.push_front(id);
        }
    }

    /// `(identity, elements)` of every chunk the store holds.
    fn chunks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slots
            .chunks()
            .chain(self.free.chunks())
            .chain(self.order.chunks())
    }
}

/// Catchpoint lookup index: buckets of catchpoint ids keyed by the event
/// source they watch, so an event consults only the catchpoints that
/// could possibly fire on it instead of linear-scanning the whole list.
/// Kept incrementally in sync by `add_catch` / `delete_catch` /
/// `reap_temporaries`.
#[derive(Debug, Clone, Default)]
struct CatchIndex {
    /// `TokenSentOn` + `TotalCount`, keyed by connection (push side).
    sent_by_conn: HashMap<u32, Vec<u32>>,
    /// `TokenReceivedOn` + `TotalCount`, keyed by connection (pop side).
    recv_by_conn: HashMap<u32, Vec<u32>>,
    /// `TokenValueEq`, keyed by (connection, watched head word): an
    /// arriving token probes with its own head word, so idle value
    /// catchpoints cost nothing at all.
    value_eq: HashMap<(u32, Word), Vec<u32>>,
    /// `ReceiveCounts`, keyed by the watched actor.
    counts_by_actor: HashMap<u32, Vec<u32>>,
    /// `Scheduled`, keyed by the watched actor.
    sched_by_actor: HashMap<u32, Vec<u32>>,
    step_begin_by_module: HashMap<u32, Vec<u32>>,
    step_begin_any: Vec<u32>,
    step_end_by_module: HashMap<u32, Vec<u32>>,
    step_end_any: Vec<u32>,
}

fn bucket_add(map: &mut HashMap<u32, Vec<u32>>, key: u32, id: u32) {
    map.entry(key).or_default().push(id);
}

fn bucket_remove(map: &mut HashMap<u32, Vec<u32>>, key: u32, id: u32) {
    if let Some(v) = map.get_mut(&key) {
        v.retain(|x| *x != id);
        if v.is_empty() {
            map.remove(&key);
        }
    }
}

/// What the user installed as catchpoints: the list, sorted by id (ids
/// are allocated monotonically and deletion preserves order), the lookup
/// index mirroring their `cond` fields, and the next id. The model holds
/// it behind `Arc`, so a snapshot shares it; only installing, deleting,
/// toggling or reaping a catchpoint copies it.
#[derive(Debug, Clone, Default)]
pub struct CatchSet {
    list: Vec<Catchpoint>,
    index: CatchIndex,
    next: u32,
}

impl CatchIndex {
    fn add(&mut self, c: &Catchpoint) {
        let id = c.id;
        match &c.cond {
            CatchCond::ReceiveCounts { actor, .. } => {
                bucket_add(&mut self.counts_by_actor, actor.0, id)
            }
            CatchCond::TokenReceivedOn { conn } => bucket_add(&mut self.recv_by_conn, conn.0, id),
            CatchCond::TokenSentOn { conn } => bucket_add(&mut self.sent_by_conn, conn.0, id),
            CatchCond::TokenValueEq { conn, value } => {
                self.value_eq.entry((conn.0, *value)).or_default().push(id)
            }
            CatchCond::TotalCount { conn, .. } => {
                // Totals advance on both sends and receives.
                bucket_add(&mut self.sent_by_conn, conn.0, id);
                bucket_add(&mut self.recv_by_conn, conn.0, id);
            }
            CatchCond::Scheduled { actor } => bucket_add(&mut self.sched_by_actor, actor.0, id),
            CatchCond::StepBegin { module: None } => self.step_begin_any.push(id),
            CatchCond::StepBegin { module: Some(m) } => {
                bucket_add(&mut self.step_begin_by_module, m.0, id)
            }
            CatchCond::StepEnd { module: None } => self.step_end_any.push(id),
            CatchCond::StepEnd { module: Some(m) } => {
                bucket_add(&mut self.step_end_by_module, m.0, id)
            }
        }
    }

    fn remove(&mut self, c: &Catchpoint) {
        let id = c.id;
        match &c.cond {
            CatchCond::ReceiveCounts { actor, .. } => {
                bucket_remove(&mut self.counts_by_actor, actor.0, id)
            }
            CatchCond::TokenReceivedOn { conn } => {
                bucket_remove(&mut self.recv_by_conn, conn.0, id)
            }
            CatchCond::TokenSentOn { conn } => bucket_remove(&mut self.sent_by_conn, conn.0, id),
            CatchCond::TokenValueEq { conn, value } => {
                if let Some(v) = self.value_eq.get_mut(&(conn.0, *value)) {
                    v.retain(|x| *x != id);
                    if v.is_empty() {
                        self.value_eq.remove(&(conn.0, *value));
                    }
                }
            }
            CatchCond::TotalCount { conn, .. } => {
                bucket_remove(&mut self.sent_by_conn, conn.0, id);
                bucket_remove(&mut self.recv_by_conn, conn.0, id);
            }
            CatchCond::Scheduled { actor } => bucket_remove(&mut self.sched_by_actor, actor.0, id),
            CatchCond::StepBegin { module: None } => self.step_begin_any.retain(|x| *x != id),
            CatchCond::StepBegin { module: Some(m) } => {
                bucket_remove(&mut self.step_begin_by_module, m.0, id)
            }
            CatchCond::StepEnd { module: None } => self.step_end_any.retain(|x| *x != id),
            CatchCond::StepEnd { module: Some(m) } => {
                bucket_remove(&mut self.step_end_by_module, m.0, id)
            }
        }
    }
}

/// The reconstructed model (graph + dynamic state + catchpoints).
///
/// `Clone` is the time-travel engine's checkpoint of the model, and it
/// is cheap: what is fixed after boot (the graph, the type table) sits
/// behind `Arc`, and the recorded history that grows with the run (the
/// token store, the timeline, the interface histories) is [`Chunked`].
/// A clone copies pointers, the plain actor and connection tables and
/// the link queues; later writes copy only the chunks they touch.
///
/// What the user installed on the model is not recorded history:
/// catchpoints, declared flow behaviours, `iface … record` flags, the
/// timeline switch and the record limit. A restore keeps the live ones
/// ([`DfModel::adopt_settings`]), like GDB keeps breakpoints. The
/// catchpoints sit behind `Arc` ([`CatchSet`]), so a clone shares them.
#[derive(Debug, Clone)]
pub struct DfModel {
    pub graph: Arc<AppGraph>,
    pub types: Arc<TypeTable>,
    pub booted: bool,
    pub actors: Vec<DfActor>,
    pub conns: Vec<DfConn>,
    pub links: Vec<DfLink>,
    pub tokens: TokenStore,
    catches: Arc<CatchSet>,
    /// Registration problems observed (should be empty on healthy apps).
    pub anomalies: Vec<String>,
    /// Execution timeline (work/step begin-end events with cycles), for
    /// the visualization extension the paper lists as future work.
    /// Disabled by default; a bounded ring keeping the newest events.
    pub timeline_enabled: bool,
    pub timeline: Chunked<TimelineEvent>,
    timeline_limit: usize,
    /// Recorded token histories (`iface … record`), each a ring keeping
    /// the newest `HISTORY_CAP`; only recording interfaces have one.
    histories: BTreeMap<ConnId, Chunked<TokenId>>,
    /// The catchpoint ids a pop consults, kept so that a watched pop
    /// does not allocate. Empty between pops.
    candidates: Vec<u32>,
}

impl Default for DfModel {
    fn default() -> Self {
        DfModel {
            graph: Arc::default(),
            types: Arc::default(),
            booted: false,
            actors: Vec::new(),
            conns: Vec::new(),
            links: Vec::new(),
            tokens: TokenStore::default(),
            catches: Arc::default(),
            anomalies: Vec::new(),
            timeline_enabled: false,
            timeline: Chunked::default(),
            timeline_limit: RECORD_LIMIT,
            histories: BTreeMap::new(),
            candidates: Vec::new(),
        }
    }
}

/// One timeline sample: an actor's WORK or a module's step began or ended
/// at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    pub cycle: u64,
    pub actor: ActorId,
    pub kind: TimelineKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    WorkBegin,
    WorkEnd,
    StepBegin,
    StepEnd,
}

impl DfModel {
    pub fn new(types: impl Into<Arc<TypeTable>>) -> Self {
        DfModel {
            types: types.into(),
            ..Default::default()
        }
    }

    /// Time travel: `self` (a checkpoint's model) is about to replace
    /// `live`. Everything the user installed moves across — catchpoints,
    /// flow behaviours, recording flags, the timeline switch and the
    /// record limit — so, like breakpoints, they survive a restore to a
    /// point before they were set. Turning recording off cleared the
    /// history, so a restored history on an interface no longer recording
    /// is dropped too.
    pub fn adopt_settings(&mut self, live: &DfModel) {
        self.catches = Arc::clone(&live.catches);
        for (a, l) in self.actors.iter_mut().zip(&live.actors) {
            a.behavior = l.behavior;
        }
        for (c, l) in self.conns.iter_mut().zip(&live.conns) {
            c.record = l.record;
        }
        let conns = &self.conns;
        self.histories.retain(|c, _| conns[c.0 as usize].record);
        self.timeline_enabled = live.timeline_enabled;
        self.set_record_limit(live.record_limit());
    }

    /// `(identity, elements)` of every chunk of recorded history the
    /// model holds (token store, timeline, interface histories): counting
    /// distinct identities across checkpoints measures how much storage
    /// they share.
    pub fn chunks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.tokens
            .chunks()
            .chain(self.timeline.chunks())
            .chain(self.histories.values().flat_map(|h| h.chunks()))
    }

    /// The tokens recorded on `conn`, oldest first (`iface … print`).
    pub fn history(&self, conn: ConnId) -> impl Iterator<Item = TokenId> + '_ {
        self.histories
            .get(&conn)
            .into_iter()
            .flat_map(|h| h.iter().copied())
    }

    /// `iface … record` on or off; turning it off drops the history.
    pub fn set_recording(&mut self, conn: ConnId, on: bool) {
        self.conns[conn.0 as usize].record = on;
        if !on {
            self.histories.remove(&conn);
        }
    }

    fn record_history(&mut self, conn: ConnId, id: TokenId) {
        let h = self.histories.entry(conn).or_default();
        if h.len() == HISTORY_CAP {
            h.pop_front();
        }
        h.push_back(id);
    }

    /// Look up a live token; panics if evicted or unknown. Use only for
    /// ids known to be live (e.g. still queued on a link).
    pub fn token(&self, id: TokenId) -> &TokenRec {
        self.tokens
            .get(id)
            .expect("token evicted from the bounded store")
    }

    /// Look up a token that may have been evicted from the bounded store.
    pub fn try_token(&self, id: TokenId) -> Option<&TokenRec> {
        self.tokens.get(id)
    }

    pub fn occupancy(&self, link: LinkId) -> usize {
        self.links[link.0 as usize].queue.len()
    }

    pub fn queued(&self, link: LinkId) -> impl Iterator<Item = &TokenRec> {
        self.links[link.0 as usize]
            .queue
            .iter()
            .map(|id| self.token(*id))
    }

    /// Bound both the token store and the timeline ring.
    pub fn set_record_limit(&mut self, limit: usize) {
        self.tokens.set_limit(limit);
        self.timeline_limit = limit.max(1);
        while self.timeline.len() > self.timeline_limit {
            self.timeline.pop_front();
        }
    }

    pub fn record_limit(&self) -> usize {
        self.tokens.limit()
    }

    /// Installed catchpoints, sorted by id.
    pub fn catchpoints(&self) -> &[Catchpoint] {
        &self.catches.list
    }

    /// Install a catchpoint, returning its id.
    pub fn add_catch(&mut self, cond: CatchCond, temporary: bool) -> u32 {
        let set = Arc::make_mut(&mut self.catches);
        let id = set.next;
        set.next += 1;
        let c = Catchpoint {
            id,
            enabled: true,
            temporary,
            cond,
        };
        set.index.add(&c);
        set.list.push(c);
        id
    }

    /// The installed catchpoints as a whole, shared.
    /// `reverse-continue` saves them and puts them back
    /// ([`DfModel::set_catch_set`]) before every replay pass, since
    /// replays reap temporary catchpoints.
    pub fn catch_set(&self) -> Arc<CatchSet> {
        Arc::clone(&self.catches)
    }

    pub fn set_catch_set(&mut self, set: Arc<CatchSet>) {
        self.catches = set;
    }

    pub fn delete_catch(&mut self, id: u32) -> bool {
        let Some(pos) = self.catch_pos(id) else {
            return false;
        };
        let set = Arc::make_mut(&mut self.catches);
        let c = set.list.remove(pos);
        set.index.remove(&c);
        true
    }

    /// Enable or disable a catchpoint; false if there is none with `id`.
    pub fn set_catch_enabled(&mut self, id: u32, enabled: bool) -> bool {
        let Some(pos) = self.catch_pos(id) else {
            return false;
        };
        Arc::make_mut(&mut self.catches).list[pos].enabled = enabled;
        true
    }

    fn catch_pos(&self, id: u32) -> Option<usize> {
        self.catches.list.binary_search_by_key(&id, |c| c.id).ok()
    }

    fn catch_by_id(&self, id: u32) -> Option<&Catchpoint> {
        self.catch_pos(id).map(|pos| &self.catches.list[pos])
    }

    fn timeline_push(&mut self, actor: ActorId, kind: TimelineKind, cycle: u64) {
        if !self.timeline_enabled {
            return;
        }
        if self.timeline.len() == self.timeline_limit {
            self.timeline.pop_front();
        }
        self.timeline
            .push_back(TimelineEvent { cycle, actor, kind });
    }

    fn new_token(
        &mut self,
        link: LinkId,
        value: TokenValue,
        provenance: InlineSlice<TokenId>,
        cycle: u64,
        synthesized: bool,
    ) -> TokenId {
        let l = &mut self.links[link.0 as usize];
        let index = l.pushed;
        l.pushed += 1;
        let id = self.tokens.alloc(|id| TokenRec {
            id,
            link,
            index,
            value,
            provenance,
            produced_at: cycle,
            consumed_at: None,
            synthesized,
        });
        self.links[link.0 as usize].queue.push_back(id);
        id
    }

    /// Apply one event; append triggered stops to `stops`.
    pub fn apply(&mut self, ev: DfEvent, cycle: u64, stops: &mut Vec<DfStop>) {
        match ev {
            DfEvent::ActorRegistered {
                id,
                name,
                kind,
                parent,
                pe,
                work,
            } => {
                if let Err(e) = Arc::make_mut(&mut self.graph).register_actor(
                    id,
                    &name,
                    kind,
                    parent.map(ActorId),
                    pe,
                    work,
                ) {
                    self.anomalies.push(e.to_string());
                    return;
                }
                self.actors.push(DfActor::default());
            }
            DfEvent::ConnRegistered {
                id,
                actor,
                name,
                dir,
                ty,
            } => {
                if let Err(e) =
                    Arc::make_mut(&mut self.graph).register_conn(id, ActorId(actor), &name, dir, ty)
                {
                    self.anomalies.push(e.to_string());
                    return;
                }
                self.conns.push(DfConn::default());
            }
            DfEvent::LinkRegistered {
                id,
                from,
                to,
                capacity,
                class,
                fifo_base,
            } => {
                if let Err(e) = Arc::make_mut(&mut self.graph).register_link(
                    id,
                    ConnId(from),
                    ConnId(to),
                    capacity,
                    class,
                    fifo_base,
                ) {
                    self.anomalies.push(e.to_string());
                    return;
                }
                self.links.push(DfLink::default());
            }
            DfEvent::BootComplete => {
                self.booted = true;
                // Controllers start running at boot.
                for a in &self.graph.actors {
                    if a.kind == ActorKind::Controller {
                        self.actors[a.id.0 as usize].sched = DfSched::Running;
                    }
                }
            }

            DfEvent::TokenPushed { conn, words } => {
                self.on_push(conn, words, cycle, stops);
            }
            DfEvent::TokenPopped { conn, index, words } => {
                self.on_pop(conn, index, words, cycle, stops);
            }

            DfEvent::ActorStarted { actor } => {
                let a = &mut self.actors[actor.0 as usize];
                a.started = true;
                if a.sched != DfSched::Running {
                    a.sched = DfSched::Scheduled;
                    a.begun = false;
                }
                if let Some(ids) = self.catches.index.sched_by_actor.get(&actor.0) {
                    for id in ids {
                        let Some(c) = self.catch_by_id(*id) else {
                            continue;
                        };
                        if c.enabled {
                            stops.push(DfStop::Scheduled { catch: c.id, actor });
                        }
                    }
                }
                self.reap_temporaries(stops);
            }
            DfEvent::ActorSyncRequested { actor } => {
                let a = &mut self.actors[actor.0 as usize];
                a.sync_requested = true;
                if !a.started && a.sched == DfSched::NotScheduled {
                    a.sched = DfSched::Synced;
                }
            }
            DfEvent::WorkBegun { actor } => {
                self.timeline_push(actor, TimelineKind::WorkBegin, cycle);
                let a = &mut self.actors[actor.0 as usize];
                a.begun = true;
                a.sched = DfSched::Running;
                // Step boundary for this filter: reset I/O windows.
                for c in self.graph.actor(actor).conns() {
                    let rc = &mut self.conns[c.0 as usize];
                    rc.window_count = 0;
                    rc.sent_this_step = 0;
                }
            }
            DfEvent::WorkEnded { actor } => {
                self.timeline_push(actor, TimelineKind::WorkEnd, cycle);
                let a = &mut self.actors[actor.0 as usize];
                a.steps_done += 1;
                if a.sync_requested {
                    a.sched = DfSched::Synced;
                } else if !a.started {
                    a.sched = DfSched::NotScheduled;
                }
                // Free-running filters stay Running (re-entry follows).
            }
            DfEvent::WaitSyncCompleted { module } => {
                let filters = self
                    .graph
                    .children(module)
                    .filter(|a| a.kind == ActorKind::Filter);
                for f in filters {
                    let a = &mut self.actors[f.id.0 as usize];
                    if a.sync_requested {
                        a.sync_requested = false;
                        a.started = false;
                        a.begun = false;
                        a.sched = DfSched::NotScheduled;
                    }
                }
            }
            DfEvent::StepBegun { module } => {
                self.timeline_push(module, TimelineKind::StepBegin, cycle);
                // Controller step boundary: reset the controller's windows.
                if let Some(ctrl) = self.graph.controller_of(module) {
                    for c in ctrl.conns() {
                        let rc = &mut self.conns[c.0 as usize];
                        rc.window_count = 0;
                        rc.sent_this_step = 0;
                    }
                }
                let step = self.actors[module.0 as usize].steps_done + 1;
                self.actors[module.0 as usize].steps_done = step;
                for id in self.step_candidates(
                    &self.catches.index.step_begin_by_module,
                    &self.catches.index.step_begin_any,
                    module,
                ) {
                    let Some(c) = self.catch_by_id(id) else {
                        continue;
                    };
                    if c.enabled {
                        stops.push(DfStop::StepBegin {
                            catch: c.id,
                            module,
                            step,
                        });
                    }
                }
                self.reap_temporaries(stops);
            }
            DfEvent::StepEnded { module } => {
                self.timeline_push(module, TimelineKind::StepEnd, cycle);
                let step = self.actors[module.0 as usize].steps_done;
                for id in self.step_candidates(
                    &self.catches.index.step_end_by_module,
                    &self.catches.index.step_end_any,
                    module,
                ) {
                    let Some(c) = self.catch_by_id(id) else {
                        continue;
                    };
                    if c.enabled {
                        stops.push(DfStop::StepEnd {
                            catch: c.id,
                            module,
                            step,
                        });
                    }
                }
                self.reap_temporaries(stops);
            }
        }
    }

    /// Candidate catchpoint ids for a step event on `module`: the
    /// module-specific bucket plus the wildcard list, in id order (the
    /// order a linear scan would have fired them in).
    fn step_candidates(
        &self,
        by_module: &HashMap<u32, Vec<u32>>,
        any: &[u32],
        module: ActorId,
    ) -> Vec<u32> {
        let mut ids: Vec<u32> = any.to_vec();
        if let Some(v) = by_module.get(&module.0) {
            ids.extend_from_slice(v);
        }
        ids.sort_unstable();
        ids
    }

    fn on_push(
        &mut self,
        conn: ConnId,
        words: InlineSlice<Word>,
        cycle: u64,
        stops: &mut Vec<DfStop>,
    ) {
        let Some(c) = self.graph.conns.get(conn.0 as usize) else {
            self.anomalies
                .push(format!("push on unknown conn {}", conn.0));
            return;
        };
        let Some(link) = c.link else {
            self.anomalies
                .push(format!("push on unbound conn `{}`", c.name));
            return;
        };
        let actor = c.actor;
        let ty = c.ty;
        let words = fit_words(words, self.types.size_words(ty) as usize);
        let value = TokenValue { ty, words };
        // Provenance per the producer's declared behaviour. Every output
        // starts the pending inputs afresh, whatever the behaviour, so a
        // filter configured as a merger mid-run derives from the inputs
        // since its last output.
        let a = &mut self.actors[actor.0 as usize];
        let provenance = match a.behavior {
            FlowBehavior::Unknown => InlineSlice::Empty,
            FlowBehavior::Pipeline | FlowBehavior::Splitter => {
                a.last_received.map_or(InlineSlice::Empty, InlineSlice::One)
            }
            FlowBehavior::Merger => InlineSlice::from_slice(a.inputs()),
        };
        a.pending_len = 0;
        let token = self.new_token(link, value, provenance, cycle, false);
        self.actors[actor.0 as usize].last_sent = Some(token);
        let rc = &mut self.conns[conn.0 as usize];
        rc.sent_this_step += 1;
        rc.total += 1;
        let total = rc.total;
        if rc.record {
            self.record_history(conn, token);
        }
        if let Some(ids) = self.catches.index.sent_by_conn.get(&conn.0) {
            for &id in ids {
                let Some(c) = self.catch_by_id(id) else {
                    continue;
                };
                if !c.enabled {
                    continue;
                }
                match &c.cond {
                    CatchCond::TokenSentOn { .. } => {
                        stops.push(DfStop::TokenSent {
                            catch: c.id,
                            actor,
                            conn,
                            token,
                        });
                    }
                    CatchCond::TotalCount { count, .. } if total == *count => {
                        stops.push(DfStop::TokenSent {
                            catch: c.id,
                            actor,
                            conn,
                            token,
                        });
                    }
                    _ => {}
                }
            }
        }
        self.reap_temporaries(stops);
    }

    fn on_pop(
        &mut self,
        conn: ConnId,
        index: u32,
        words: InlineSlice<Word>,
        cycle: u64,
        stops: &mut Vec<DfStop>,
    ) {
        let Some(c) = self.graph.conns.get(conn.0 as usize) else {
            self.anomalies
                .push(format!("pop on unknown conn {}", conn.0));
            return;
        };
        let Some(link) = c.link else {
            self.anomalies
                .push(format!("pop on unbound conn `{}`", c.name));
            return;
        };
        let actor = c.actor;
        let ty = c.ty;
        let size = self.types.size_words(ty) as usize;
        let words = fit_words(words, size);
        // The read window must now hold `index + 1` tokens; consume the
        // difference from the link queue.
        let have = self.conns[conn.0 as usize].window_count;
        let need = (index + 1).saturating_sub(have);
        let mut last_token = None;
        for k in 0..need {
            let id = match self.links[link.0 as usize].queue.pop_front() {
                Some(id) => id,
                None => {
                    // Token not observed at production (host-side push or
                    // capture disabled): synthesize from the observed value.
                    // Only the final token's value is known exactly.
                    let words = if k + 1 == need {
                        words.clone()
                    } else {
                        fit_words(InlineSlice::Empty, size)
                    };
                    let v = TokenValue { ty, words };
                    let id = self.new_token(link, v, InlineSlice::Empty, cycle, true);
                    self.links[link.0 as usize].queue.pop_front();
                    id
                }
            };
            self.links[link.0 as usize].popped += 1;
            if let Some(t) = self.tokens.get_mut(id) {
                t.consumed_at = Some(cycle);
            }
            last_token = Some(id);
            let a = &mut self.actors[actor.0 as usize];
            a.last_received = Some(id);
            a.note_input(id);
            let rc = &mut self.conns[conn.0 as usize];
            rc.window_count += 1;
            rc.total += 1;
            if rc.record {
                self.record_history(conn, id);
            }
        }
        let Some(token) = last_token else {
            return; // window re-read: nothing actually consumed
        };
        let head = self.token(token).value.head_word();
        // Candidates come from three buckets: receive/total watchers on
        // this connection, value watchers keyed by the arriving head word
        // (idle value catchpoints on other words are never consulted),
        // and receive-count watchers on the consuming actor. Fire in id
        // order, like the linear scan did.
        let mut cand = std::mem::take(&mut self.candidates);
        let index = &self.catches.index;
        if let Some(v) = index.recv_by_conn.get(&conn.0) {
            cand.extend_from_slice(v);
        }
        if let Some(v) = index.value_eq.get(&(conn.0, head)) {
            cand.extend_from_slice(v);
        }
        if let Some(v) = index.counts_by_actor.get(&actor.0) {
            cand.extend_from_slice(v);
        }
        cand.sort_unstable();
        cand.dedup();
        for &id in &cand {
            let Some(c) = self.catch_by_id(id) else {
                continue;
            };
            if !c.enabled {
                continue;
            }
            match &c.cond {
                CatchCond::TokenReceivedOn { .. } => {
                    stops.push(DfStop::TokenReceived {
                        catch: c.id,
                        actor,
                        conn,
                        token,
                    });
                }
                CatchCond::TokenValueEq { value, .. } if head == *value => {
                    stops.push(DfStop::TokenReceived {
                        catch: c.id,
                        actor,
                        conn,
                        token,
                    });
                }
                CatchCond::ReceiveCounts { conds, .. } => {
                    let ok = conds
                        .iter()
                        .all(|(cc, n)| self.conns[cc.0 as usize].window_count >= *n);
                    if ok {
                        stops.push(DfStop::ReceiveCountsReached { catch: c.id, actor });
                    }
                }
                CatchCond::TotalCount { conn: cc, count }
                    if self.conns[cc.0 as usize].total == *count =>
                {
                    stops.push(DfStop::TokenReceived {
                        catch: c.id,
                        actor,
                        conn,
                        token,
                    });
                }
                _ => {}
            }
        }
        cand.clear();
        self.candidates = cand;
        self.reap_temporaries(stops);
    }

    /// Remove triggered temporary catchpoints.
    fn reap_temporaries(&mut self, stops: &[DfStop]) {
        let fired = |c: &Catchpoint| c.temporary && stops.iter().any(|s| s.catch() == c.id);
        if !self.catches.list.iter().any(fired) {
            return;
        }
        let set = Arc::make_mut(&mut self.catches);
        let mut i = 0;
        while i < set.list.len() {
            if fired(&set.list[i]) {
                let c = set.list.remove(i);
                set.index.remove(&c);
            } else {
                i += 1;
            }
        }
    }

    /// The provenance path of an actor's most recently received token, for
    /// `filter X info last_token` (§VI-D): pairs of (token, hop label).
    /// The chain stops at the first hop evicted from the bounded store.
    pub fn last_token_path(&self, actor: ActorId) -> Vec<&TokenRec> {
        let mut out = Vec::new();
        let mut cur = self.actors[actor.0 as usize].last_received;
        while let Some(id) = cur {
            let Some(t) = self.try_token(id) else {
                break; // evicted: provenance beyond this point is gone
            };
            out.push(t);
            cur = t.provenance.first().copied();
            if out.len() > 64 {
                break; // defensive: cycles cannot happen, but cap anyway
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two filters A -> B, registered through events like boot would.
    fn model() -> DfModel {
        let mut m = DfModel::new(TypeTable::new());
        let mut stops = Vec::new();
        for ev in [
            DfEvent::ActorRegistered {
                id: 0,
                name: "m".into(),
                kind: ActorKind::Module,
                parent: None,
                pe: None,
                work: None,
            },
            DfEvent::ActorRegistered {
                id: 1,
                name: "a".into(),
                kind: ActorKind::Filter,
                parent: Some(0),
                pe: Some(PeId(1)),
                work: Some(100),
            },
            DfEvent::ActorRegistered {
                id: 2,
                name: "b".into(),
                kind: ActorKind::Filter,
                parent: Some(0),
                pe: Some(PeId(2)),
                work: Some(200),
            },
            DfEvent::ConnRegistered {
                id: 0,
                actor: 1,
                name: "o".into(),
                dir: Dir::Out,
                ty: TypeTable::U32,
            },
            DfEvent::ConnRegistered {
                id: 1,
                actor: 2,
                name: "i".into(),
                dir: Dir::In,
                ty: TypeTable::U32,
            },
            DfEvent::ConnRegistered {
                id: 2,
                actor: 2,
                name: "o2".into(),
                dir: Dir::Out,
                ty: TypeTable::U32,
            },
            DfEvent::ConnRegistered {
                id: 3,
                actor: 1,
                name: "i0".into(),
                dir: Dir::In,
                ty: TypeTable::U32,
            },
            DfEvent::LinkRegistered {
                id: 0,
                from: 0,
                to: 1,
                capacity: 8,
                class: LinkClass::Data,
                fifo_base: 0,
            },
            DfEvent::LinkRegistered {
                id: 1,
                from: 2,
                to: 3,
                capacity: 8,
                class: LinkClass::Data,
                fifo_base: 64,
            },
            DfEvent::BootComplete,
        ] {
            m.apply(ev, 0, &mut stops);
        }
        assert!(stops.is_empty());
        assert!(m.anomalies.is_empty(), "{:?}", m.anomalies);
        assert!(m.booted);
        m
    }

    fn push(m: &mut DfModel, conn: u32, v: Word, cyc: u64) -> Vec<DfStop> {
        let mut stops = Vec::new();
        m.apply(
            DfEvent::TokenPushed {
                conn: ConnId(conn),
                words: InlineSlice::One(v),
            },
            cyc,
            &mut stops,
        );
        stops
    }

    fn pop(m: &mut DfModel, conn: u32, idx: u32, v: Word, cyc: u64) -> Vec<DfStop> {
        let mut stops = Vec::new();
        m.apply(
            DfEvent::TokenPopped {
                conn: ConnId(conn),
                index: idx,
                words: InlineSlice::One(v),
            },
            cyc,
            &mut stops,
        );
        stops
    }

    #[test]
    fn tokens_flow_through_the_model() {
        let mut m = model();
        push(&mut m, 0, 11, 1);
        push(&mut m, 0, 22, 2);
        assert_eq!(m.occupancy(LinkId(0)), 2);
        let vals: Vec<Word> = m.queued(LinkId(0)).map(|t| t.value.head_word()).collect();
        assert_eq!(vals, vec![11, 22]);

        // b reads index 1: consumes both tokens into its window.
        pop(&mut m, 1, 1, 22, 3);
        assert_eq!(m.occupancy(LinkId(0)), 0);
        assert_eq!(m.conns[1].window_count, 2);
        // Re-reading index 0 consumes nothing.
        pop(&mut m, 1, 0, 11, 4);
        assert_eq!(m.conns[1].window_count, 2);
        assert_eq!(m.conns[1].total, 2);
        // Work re-entry resets the window.
        let mut stops = Vec::new();
        m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, 5, &mut stops);
        assert_eq!(m.conns[1].window_count, 0);
    }

    #[test]
    fn receive_counts_catchpoint_matches_paper_semantics() {
        let mut m = model();
        let id = m.add_catch(
            CatchCond::ReceiveCounts {
                actor: ActorId(2),
                conds: vec![(ConnId(1), 2)],
            },
            false,
        );
        push(&mut m, 0, 1, 1);
        assert!(pop(&mut m, 1, 0, 1, 2).is_empty());
        push(&mut m, 0, 2, 3);
        let stops = pop(&mut m, 1, 1, 2, 4);
        assert_eq!(
            stops,
            vec![DfStop::ReceiveCountsReached {
                catch: id,
                actor: ActorId(2)
            }]
        );
        // Persistent catchpoint survives.
        assert_eq!(m.catchpoints().len(), 1);
    }

    #[test]
    fn temporary_catchpoints_self_delete() {
        let mut m = model();
        m.add_catch(CatchCond::TokenSentOn { conn: ConnId(0) }, true);
        let stops = push(&mut m, 0, 9, 1);
        assert_eq!(stops.len(), 1);
        assert!(m.catchpoints().is_empty());
        // No further stops.
        assert!(push(&mut m, 0, 9, 2).is_empty());
    }

    #[test]
    fn value_catchpoints_inspect_content() {
        let mut m = model();
        m.add_catch(
            CatchCond::TokenValueEq {
                conn: ConnId(1),
                value: 127,
            },
            false,
        );
        push(&mut m, 0, 5, 1);
        assert!(pop(&mut m, 1, 0, 5, 2).is_empty());
        let mut stops = Vec::new();
        m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, 3, &mut stops);
        push(&mut m, 0, 127, 4);
        let stops = pop(&mut m, 1, 0, 127, 5);
        assert_eq!(stops.len(), 1);
    }

    #[test]
    fn provenance_requires_declared_behavior() {
        let mut m = model();
        // Without configuration: no provenance.
        push(&mut m, 0, 7, 1);
        pop(&mut m, 1, 0, 7, 2);
        push(&mut m, 2, 14, 3); // b sends
        let sent = m.actors[2].last_sent.unwrap();
        assert!(m.token(sent).provenance.is_empty());

        // Configure b as a splitter: provenance now recorded.
        m.actors[2].behavior = FlowBehavior::Splitter;
        let mut stops = Vec::new();
        m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, 4, &mut stops);
        push(&mut m, 0, 8, 5);
        pop(&mut m, 1, 0, 8, 6);
        push(&mut m, 2, 16, 7);
        let sent = m.actors[2].last_sent.unwrap();
        let prov = &m.token(sent).provenance;
        assert_eq!(prov.len(), 1);
        assert_eq!(m.token(prov[0]).value.head_word(), 8);

        // last_token path: b's last received chains to nothing further
        // (a has Unknown behaviour).
        let path = m.last_token_path(ActorId(2));
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].value.head_word(), 8);
    }

    #[test]
    fn merger_provenance_collects_all_inputs() {
        let mut m = model();
        m.actors[2].behavior = FlowBehavior::Merger;
        push(&mut m, 0, 1, 1);
        push(&mut m, 0, 2, 2);
        pop(&mut m, 1, 1, 2, 3);
        push(&mut m, 2, 3, 4);
        let sent = m.actors[2].last_sent.unwrap();
        assert_eq!(m.token(sent).provenance.len(), 2);
        // Inputs are drained: the next output has empty provenance.
        push(&mut m, 2, 4, 5);
        let sent = m.actors[2].last_sent.unwrap();
        assert!(m.token(sent).provenance.is_empty());
    }

    #[test]
    fn a_filter_turned_merger_derives_from_inputs_since_its_last_output() {
        let mut m = model();
        m.actors[2].behavior = FlowBehavior::Pipeline;
        let mut stops = Vec::new();
        let mut cyc = 0;
        for v in 0..40 {
            m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, cyc, &mut stops);
            push(&mut m, 0, v, cyc + 1);
            pop(&mut m, 1, 0, v, cyc + 2);
            push(&mut m, 2, v + 1000, cyc + 3);
            cyc += 4;
        }
        m.actors[2].behavior = FlowBehavior::Merger;
        m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, cyc, &mut stops);
        push(&mut m, 0, 100, cyc + 1);
        pop(&mut m, 1, 0, 100, cyc + 2);
        push(&mut m, 2, 1100, cyc + 3);
        let sent = m.actors[2].last_sent.unwrap();
        let prov: Vec<Word> = m
            .token(sent)
            .provenance
            .iter()
            .map(|&id| m.token(id).value.head_word())
            .collect();
        assert_eq!(prov, vec![100]);
    }

    #[test]
    fn recording_is_opt_in_and_bounded() {
        let mut m = model();
        push(&mut m, 0, 1, 1);
        assert_eq!(m.history(ConnId(0)).count(), 0);
        m.set_recording(ConnId(0), true);
        for v in [5, 10, 15] {
            push(&mut m, 0, v, 2);
        }
        let vals: Vec<Word> = m
            .history(ConnId(0))
            .map(|id| m.token(id).value.head_word())
            .collect();
        assert_eq!(vals, vec![5, 10, 15]);
    }

    #[test]
    fn unseen_tokens_are_synthesized_on_pop() {
        let mut m = model();
        // No push observed (capture was disabled); pop still succeeds.
        let stops = pop(&mut m, 1, 0, 42, 1);
        assert!(stops.is_empty());
        let t = m.actors[2].last_received.unwrap();
        assert!(m.token(t).synthesized);
        assert_eq!(m.token(t).value.head_word(), 42);
        assert_eq!(m.occupancy(LinkId(0)), 0);
    }

    #[test]
    fn scheduling_state_machine() {
        let mut m = model();
        let a = ActorId(1);
        let mut stops = Vec::new();
        m.apply(DfEvent::ActorStarted { actor: a }, 1, &mut stops);
        assert_eq!(m.actors[1].sched, DfSched::Scheduled);
        m.apply(DfEvent::WorkBegun { actor: a }, 2, &mut stops);
        assert_eq!(m.actors[1].sched, DfSched::Running);
        m.apply(DfEvent::ActorSyncRequested { actor: a }, 3, &mut stops);
        m.apply(DfEvent::WorkEnded { actor: a }, 4, &mut stops);
        assert_eq!(m.actors[1].sched, DfSched::Synced);
        assert_eq!(m.actors[1].steps_done, 1);
        m.apply(
            DfEvent::WaitSyncCompleted { module: ActorId(0) },
            5,
            &mut stops,
        );
        assert_eq!(m.actors[1].sched, DfSched::NotScheduled);
        assert!(!m.actors[1].sync_requested);
    }

    #[test]
    fn scheduled_catchpoint_fires() {
        let mut m = model();
        let id = m.add_catch(CatchCond::Scheduled { actor: ActorId(1) }, false);
        let mut stops = Vec::new();
        m.apply(DfEvent::ActorStarted { actor: ActorId(1) }, 1, &mut stops);
        assert_eq!(
            stops,
            vec![DfStop::Scheduled {
                catch: id,
                actor: ActorId(1)
            }]
        );
    }

    #[test]
    fn token_store_is_bounded_and_ids_stay_stale() {
        let mut m = model();
        m.set_record_limit(8);
        // First token: consumed, then remember its id.
        push(&mut m, 0, 999, 0);
        pop(&mut m, 1, 0, 999, 0);
        let first = m.actors[2].last_received.unwrap();
        assert_eq!(m.try_token(first).unwrap().value.head_word(), 999);
        // Storm far past the limit; each token is consumed promptly.
        for i in 0..100u64 {
            let mut stops = Vec::new();
            m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, i, &mut stops);
            push(&mut m, 0, i as Word, i);
            pop(&mut m, 1, 0, i as Word, i);
        }
        assert!(m.tokens.len() <= 8, "live {} > limit", m.tokens.len());
        assert_eq!(m.tokens.allocated(), 101);
        assert!(m.tokens.evicted() >= 93);
        // The first token was evicted; its id must not alias a reused slot.
        assert!(m.try_token(first).is_none());
        // Occupancy bookkeeping is intact: nothing queued.
        assert_eq!(m.occupancy(LinkId(0)), 0);
    }

    #[test]
    fn queued_tokens_survive_eviction_pressure() {
        let mut m = model();
        m.set_record_limit(4);
        // Ten unconsumed tokens sit on the link; none may be evicted even
        // though the store is over its limit.
        for i in 0..10u64 {
            push(&mut m, 0, i as Word, i);
        }
        assert_eq!(m.occupancy(LinkId(0)), 10);
        let vals: Vec<Word> = m.queued(LinkId(0)).map(|t| t.value.head_word()).collect();
        assert_eq!(vals, (0..10).collect::<Vec<Word>>());
    }

    #[test]
    fn deleted_catchpoints_never_fire_again() {
        let mut m = model();
        let id = m.add_catch(CatchCond::TokenSentOn { conn: ConnId(0) }, false);
        assert_eq!(push(&mut m, 0, 1, 1).len(), 1);
        assert!(m.delete_catch(id));
        assert!(!m.delete_catch(id));
        assert!(push(&mut m, 0, 2, 2).is_empty());
    }

    #[test]
    fn disabled_catchpoints_are_skipped_at_fire_time() {
        let mut m = model();
        let id = m.add_catch(CatchCond::TokenSentOn { conn: ConnId(0) }, false);
        assert!(m.set_catch_enabled(id, false));
        assert!(push(&mut m, 0, 1, 1).is_empty());
        assert!(m.set_catch_enabled(id, true));
        assert_eq!(push(&mut m, 0, 2, 2).len(), 1);
    }

    #[test]
    fn multiple_catchpoints_fire_in_id_order() {
        let mut m = model();
        let c1 = m.add_catch(CatchCond::TokenReceivedOn { conn: ConnId(1) }, false);
        let c2 = m.add_catch(
            CatchCond::TokenValueEq {
                conn: ConnId(1),
                value: 7,
            },
            false,
        );
        push(&mut m, 0, 7, 1);
        let stops = pop(&mut m, 1, 0, 7, 2);
        let catches: Vec<u32> = stops
            .iter()
            .map(|s| match s {
                DfStop::TokenReceived { catch, .. } => *catch,
                other => panic!("unexpected stop {other:?}"),
            })
            .collect();
        assert_eq!(catches, vec![c1, c2]);
    }

    #[test]
    fn timeline_is_a_bounded_ring() {
        let mut m = model();
        m.timeline_enabled = true;
        m.set_record_limit(16);
        let mut stops = Vec::new();
        for i in 0..100 {
            m.apply(DfEvent::WorkBegun { actor: ActorId(1) }, i, &mut stops);
        }
        assert_eq!(m.timeline.len(), 16);
        // The ring keeps the newest events.
        assert_eq!(m.timeline.back().unwrap().cycle, 99);
        assert_eq!(m.timeline.front().unwrap().cycle, 84);
    }

    #[test]
    fn step_catchpoints() {
        let mut m = model();
        m.add_catch(CatchCond::StepBegin { module: None }, false);
        m.add_catch(
            CatchCond::StepEnd {
                module: Some(ActorId(0)),
            },
            false,
        );
        let mut stops = Vec::new();
        m.apply(DfEvent::StepBegun { module: ActorId(0) }, 1, &mut stops);
        assert!(matches!(stops[0], DfStop::StepBegin { step: 1, .. }));
        stops.clear();
        m.apply(DfEvent::StepEnded { module: ActorId(0) }, 2, &mut stops);
        assert!(matches!(stops[0], DfStop::StepEnd { step: 1, .. }));
    }
}
