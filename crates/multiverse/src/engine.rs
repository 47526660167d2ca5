//! The exploration engine: BFS over scheduler-choice overrides.
//!
//! One `explore` call owns a booted [`System`] fork and searches the
//! universes reachable by overriding up to `max_depth` decision points.
//! The reference universe (no overrides) runs first with decision
//! recording on; its recording enumerates the candidate points, and its
//! observable *signature* is the baseline every other universe is
//! classified against. Universes are forked copy-on-write from the
//! nearest pooled ancestor snapshot rather than re-run from the root.

use std::collections::BTreeSet;

use p2012::{BlockReason, PeStatus, WatchKind};
use pedf::{ActorKind, ChoiceKind, ChoiceRec, DecisionPoint, LinkId, System};

use crate::rules;
use crate::witness::Witness;

/// Watch ids the engine installs for race sites live above this base so
/// they never collide with user watchpoints on the same fork.
const WATCH_ID_BASE: u32 = 0x4D56_0000; // "MV"

/// What the search is hunting. `Any` accepts the first witness of either
/// kind; the specific modes keep searching past the other kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Until {
    #[default]
    Any,
    Deadlock,
    Race,
}

impl Until {
    pub fn label(self) -> &'static str {
        match self {
            Until::Any => "any",
            Until::Deadlock => "deadlock",
            Until::Race => "race",
        }
    }

    fn accepts_deadlock(self) -> bool {
        matches!(self, Until::Any | Until::Deadlock)
    }

    fn accepts_race(self) -> bool {
        matches!(self, Until::Any | Until::Race)
    }
}

/// A statically reported racy address range to watch dynamically, with
/// the unordered actor pair it belongs to (ids for sleep-set pruning,
/// label for blame). Produced by the caller from `bcv`'s RACE401 sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSite {
    pub lo: u32,
    pub hi: u32,
    /// The two unordered actors' ids (graph ActorId values).
    pub actors: (u32, u32),
    /// Human-readable pair label, e.g. `dec.hwcfg <-> dec.bh`.
    pub label: String,
}

/// Exploration parameters. The defaults match the CLI defaults.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum universes run, including the reference.
    pub budget: usize,
    /// Cycles each universe may run past the root clock before being cut
    /// off (and checked for a wedge).
    pub horizon: u64,
    pub until: Until,
    /// Only the first this-many `ActorStart` decision points of the
    /// reference run are considered as override candidates.
    pub max_points: u64,
    /// Likewise for `DmaOrder` points.
    pub max_dma_points: u64,
    /// Maximum number of simultaneous overrides (BFS depth).
    pub max_depth: usize,
    /// Enable the sleep-set skip (race hunts only): ActorStart
    /// perturbations of actors that never touch a watched range are
    /// independent of every racy access and not worth running.
    pub sleep_sets: bool,
    /// Stop extending universes whose observable signature matches the
    /// reference exactly. Turning this off (together with `sleep_sets`)
    /// yields the brute-force enumeration of the same bounded space — the
    /// ground truth the fuzz farm's D8 oracle compares the optimized
    /// search against.
    pub prune_equivalent: bool,
    /// Maximum ancestor snapshots kept for COW forking (root excluded).
    pub pool_max: usize,
    /// Start-delay codes tried per `ActorStart` point (indices into
    /// `pedf::DELAYS`; 0 is the default and never a candidate).
    pub actor_codes: Vec<u8>,
    /// Rotation codes tried per `DmaOrder` point.
    pub dma_codes: Vec<u8>,
    /// Racy ranges to watch (empty: deadlock/wedge search only).
    pub race_sites: Vec<RaceSite>,
    /// State hash of the root system, stamped into witnesses so replay
    /// can refuse a mismatched machine.
    pub anchor: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: 256,
            horizon: 20_000,
            until: Until::Any,
            max_points: 48,
            max_dma_points: 8,
            max_depth: 2,
            sleep_sets: true,
            prune_equivalent: true,
            pool_max: 8,
            actor_codes: vec![1, 2, 3, 4, 5, 6, 7],
            dma_codes: vec![1, 2],
            race_sites: Vec::new(),
            anchor: 0,
        }
    }
}

/// Counters the server exports per session and the bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    pub universes_forked: u64,
    pub universes_explored: u64,
    /// Universes whose observable signature matched the reference exactly
    /// (the perturbation commuted) — classified but not extended deeper.
    pub universes_pruned: u64,
    /// Candidate overrides skipped because the elected actor cannot touch
    /// a watched racy range (independent transition for this search).
    pub sleep_set_hits: u64,
    /// Peak bytes of memory pages the pooled snapshots do not share with
    /// the pool's root: what the pool holds beyond the machine the search
    /// started from.
    pub peak_pool_bytes: u64,
    pub witnesses_found: u64,
    /// Cycles simulated across every universe, the reference included.
    pub cycles_stepped: u64,
    /// Universes stopped where their machine state rejoined the reference
    /// run's, their signatures completed from the reference's (counted
    /// in `universes_explored` too).
    pub universes_joined: u64,
    /// Decision points considered (after caps).
    pub actor_points: u64,
    pub dma_points: u64,
}

/// How a single universe's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All controllers exited; the app completed.
    Quiescent,
    /// Every PE blocked, nothing in flight, nothing retiring.
    Deadlock,
    /// A PE faulted.
    Fault,
    /// Still running at the horizon.
    Horizon,
}

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Quiescent => "quiescent",
            Outcome::Deadlock => "deadlock",
            Outcome::Fault => "fault",
            Outcome::Horizon => "horizon",
        }
    }
}

/// Result of one `explore` call.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// First (minimal) witness found, if any.
    pub witness: Option<Witness>,
    /// How the default-schedule reference universe ended.
    pub reference_outcome: Outcome,
    /// True when every candidate universe within depth/point caps was run
    /// (the no-witness answer is a refutation of the searched space, not
    /// a budget artifact).
    pub space_covered: bool,
    pub stats: ExploreStats,
    /// Deterministic, byte-stable log of the search.
    pub transcript: Vec<String>,
}

// ---- observable signature ----------------------------------------------

/// Everything observable about a finished universe. Two universes with
/// equal signatures (ignoring timing fields) took equivalent schedules:
/// the perturbation commuted with every conflicting access.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    outcome: Outcome,
    fault: Option<String>,
    console: Vec<String>,
    /// Per sink: (consumed, checksum).
    sinks: Vec<(u64, u64)>,
    /// Per filter actor (graph order): steps completed.
    steps: Vec<u64>,
    /// Per link: (pushed, popped).
    fifo: Vec<(u64, u64)>,
    /// Watched racy accesses in order: (addr, was_write).
    hits: Vec<(u32, bool)>,
    /// Cycle of each hit (timing: excluded from equivalence).
    hit_cycles: Vec<u64>,
    /// Final clock (timing: excluded from equivalence).
    end_clock: u64,
}

impl Signature {
    /// Equivalence ignores *when* things happened, only what.
    fn equivalent(&self, other: &Signature) -> bool {
        self.outcome == other.outcome
            && self.fault == other.fault
            && self.console == other.console
            && self.sinks == other.sinks
            && self.steps == other.steps
            && self.fifo == other.fifo
            && self.hits == other.hits
    }

    /// Output as the environment sees it: console lines + sink streams.
    fn output_diverges(&self, other: &Signature) -> bool {
        self.console != other.console || self.sinks != other.sinks
    }
}

// ---- candidate enumeration ---------------------------------------------

/// One (decision point, override code) pair the search may try.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    kind: ChoiceKind,
    index: u64,
    code: u8,
    /// Actor id (`ActorStart`) or engine count (`DmaOrder`).
    subject: u32,
    clock: u64,
}

impl Candidate {
    fn rec(&self) -> ChoiceRec {
        ChoiceRec {
            kind: self.kind,
            index: self.index,
            code: self.code,
        }
    }
}

/// Enumerate candidates from the reference recording in deterministic
/// order: all `ActorStart` points by index, then all `DmaOrder` points,
/// each with its code alphabet. BFS visits them in this order, so the
/// first witness has the lexicographically-least override set of minimal
/// size.
fn enumerate_candidates(recording: &[DecisionPoint], cfg: &ExploreConfig) -> Vec<Candidate> {
    let mut points: Vec<&DecisionPoint> = recording
        .iter()
        .filter(|p| match p.kind {
            ChoiceKind::ActorStart => p.index < cfg.max_points,
            ChoiceKind::DmaOrder => p.index < cfg.max_dma_points,
        })
        .collect();
    points.sort_by_key(|p| (p.kind.tag(), p.index));
    points.dedup_by_key(|p| (p.kind, p.index));
    let mut out = Vec::new();
    for p in points {
        let codes = match p.kind {
            ChoiceKind::ActorStart => &cfg.actor_codes,
            ChoiceKind::DmaOrder => &cfg.dma_codes,
        };
        for &code in codes {
            if code == 0 {
                continue; // 0 is the default, not an override
            }
            out.push(Candidate {
                kind: p.kind,
                index: p.index,
                code,
                subject: p.subject,
                clock: p.clock,
            });
        }
    }
    out
}

// ---- the reference ladder ----------------------------------------------

/// Cycles between two rungs of the reference ladder. A closer spacing
/// stops a joining universe sooner but costs the reference run one fork
/// per rung, and the pages it copies after each; 512 measured best on the
/// decoder hunts.
const RUNG_CYCLES: u64 = 512;

/// The reference machine at one rung clock, and how much of the
/// reference's signature it had produced by then.
struct Rung {
    sys: System,
    /// [`scalar_key`] of `sys`.
    key: Vec<u64>,
    hits: usize,
    console: usize,
}

impl Rung {
    /// Whether `sys`, at this rung's clock, is in exactly this rung's
    /// machine state. The scalar key rejects almost every universe that
    /// does not join. Then the words `Platform::hash_state` and
    /// `Runtime::hash_state` feed a hasher must be equal one by one, not
    /// as a digest: the state replay's divergence hashing covers. Then
    /// the memory's words must be equal.
    ///
    /// What these leave out cannot steer the future of a universe forked
    /// from the same root whose overrides are consumed (and dropped). It
    /// is derived state: the platform's visit and park sets and status
    /// counts, a DMA engine's in-flight count, the runtime's scheduled
    /// count, wake flag and next environment cycle, a source's generator
    /// and recording (they follow from its `produced` count). Or it is
    /// fixed at boot: the program, PE descriptions, graph and type tables,
    /// FIFO, source, sink and module settings, and the installed watches.
    /// Or it is observer-side state: the console's and protocol errors'
    /// text (their lengths are hashed), the event buffer, a sink's tail
    /// of recent values, the policy's recording, the drained watch hits,
    /// the memory's dirty-page flags and access and copy-on-write counts.
    fn matches(&self, sys: &System) -> bool {
        scalar_key(sys) == self.key
            && state_words(sys) == state_words(&self.sys)
            && sys.platform.mem.same_words_as(&self.sys.platform.mem)
    }
}

/// A few dozen scalars that differ between almost any two machines that
/// differ: the memory access counts, each PE's pc, stall, retired and
/// invocation counts and frame depth, and the runtime's token and work
/// counts.
fn scalar_key(sys: &System) -> Vec<u64> {
    let (mem, st) = (&sys.platform.mem, &sys.runtime.stats);
    let mut key = vec![
        mem.reads,
        mem.writes,
        st.tokens_pushed,
        st.tokens_popped,
        st.work_invocations,
    ];
    for pe in &sys.platform.pes {
        key.extend([
            u64::from(pe.pc),
            u64::from(pe.stall),
            pe.retired,
            pe.invocations,
            pe.frame_depth() as u64,
        ]);
    }
    key
}

/// A hasher that keeps the words it is fed instead of mixing them, so
/// two machines' state streams compare exactly.
#[derive(Default)]
struct StateWords(Vec<u64>);

impl std::hash::Hasher for StateWords {
    /// Not a digest: only the kept words are ever compared.
    fn finish(&self) -> u64 {
        self.0.len() as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.push(bytes.len() as u64);
        self.0.extend(bytes.chunks(8).map(|c| {
            let mut w = [0; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        }));
    }

    fn write_u8(&mut self, i: u8) {
        self.0.push(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.0.push(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.0.push(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.0.push(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.0.push(i as u64);
    }
}

fn state_words(sys: &System) -> Vec<u64> {
    let mut w = StateWords::default();
    sys.platform.hash_state(&mut w);
    sys.runtime.hash_state(&mut w);
    w.0
}

/// Forks of the reference run every [`RUNG_CYCLES`] cycles after the
/// root: rung `k` holds the reference at `start + (k + 1) * RUNG_CYCLES`.
struct Ladder {
    start: u64,
    rungs: Vec<Rung>,
}

impl Ladder {
    fn new(start: u64) -> Ladder {
        Ladder {
            start,
            rungs: Vec::new(),
        }
    }

    /// Keep a rung of the reference `sys` if its clock is the next rung
    /// clock.
    fn lay(&mut self, sys: &mut System, hits: usize) {
        if sys.clock() == self.start + (self.rungs.len() as u64 + 1) * RUNG_CYCLES {
            self.rungs.push(Rung {
                key: scalar_key(sys),
                hits,
                console: sys.runtime.console.len(),
                sys: sys.fork(),
            });
        }
    }

    /// The rung at `clock`, if one was laid there.
    fn at(&self, clock: u64) -> Option<&Rung> {
        let d = clock.checked_sub(self.start)?;
        if d % RUNG_CYCLES != 0 {
            return None;
        }
        let k = (d / RUNG_CYCLES).checked_sub(1)?;
        self.rungs.get(usize::try_from(k).ok()?)
    }
}

/// What a run does with the reference ladder.
enum Rungs<'a> {
    /// Nothing: the universe runs to its end.
    Off,
    /// The reference run lays the ladder.
    Lay(&'a mut Ladder),
    /// A perturbed universe stops where it joins a rung of the reference
    /// run whose signature is given.
    Join(&'a Ladder, &'a Signature),
}

// ---- universe execution ------------------------------------------------

/// One universe's run.
struct Run {
    sig: Signature,
    /// A COW fork taken right after the last installed override's
    /// decision was consumed (the cheapest point descendants can branch
    /// from).
    snap: Option<Snapshot>,
    /// Cycles simulated, up to the join for a joined universe.
    cycles: u64,
    joined: bool,
}

/// Run `sys` until a terminal condition or the absolute-clock horizon,
/// draining engine watch hits each cycle onto the ones `sys` made before
/// (`prefix`: the hits and their cycles); take the snapshot when
/// `snapshot` is requested.
///
/// Under [`Rungs::Join`], once the overrides are consumed, a universe
/// whose state equals the reference's at a rung clock stops there: from
/// equal states the deterministic machine runs the same future, so its
/// signature is its own so far and the reference's after the rung. Debug
/// builds run it on to its end anyway and assert that both agree.
fn run_universe(
    sys: &mut System,
    horizon_abs: u64,
    n_watches: u32,
    overrides: &[ChoiceRec],
    snapshot: bool,
    mut rungs: Rungs,
    prefix: (Vec<(u32, bool)>, Vec<u64>),
) -> Run {
    let (mut hits, mut hit_cycles) = prefix;
    let mut snap: Option<Snapshot> = None;
    let mut consumed = overrides.is_empty();
    let mut cycles = 0;
    let mut spliced: Option<Signature> = None;
    let mut outcome = Outcome::Horizon;
    while sys.clock() < horizon_abs {
        let report = sys.step();
        if spliced.is_none() {
            cycles += 1;
        }
        if n_watches > 0 && sys.platform.mem.has_hits() {
            for h in sys.platform.mem.take_hits() {
                if h.id >= WATCH_ID_BASE && h.id < WATCH_ID_BASE + n_watches {
                    hits.push((h.addr, h.was_write));
                    hit_cycles.push(sys.clock());
                }
            }
        }
        if !consumed
            && overrides
                .iter()
                .all(|o| sys.runtime.policy.decisions(o.kind) > o.index)
        {
            consumed = true;
            if snapshot {
                let counters = [
                    sys.runtime.policy.decisions(ChoiceKind::ActorStart),
                    sys.runtime.policy.decisions(ChoiceKind::DmaOrder),
                ];
                snap = Some(Snapshot {
                    sys: sys.fork(),
                    counters,
                    hits: hits.clone(),
                    hit_cycles: hit_cycles.clone(),
                });
            }
            // Consumed overrides can no longer fire; without them the
            // policy's state is comparable with the reference's.
            sys.runtime.policy.clear_overrides();
        }
        if sys.first_fault().is_some() {
            outcome = Outcome::Fault;
            break;
        }
        if sys.platform.is_quiescent() {
            outcome = Outcome::Quiescent;
            break;
        }
        // A machine can *look* deadlocked transiently (filters awaiting an
        // env-source token due next cycle, or a policy-deferred WORK start
        // still pending); requiring a fully dead cycle with no deferred
        // start filters those out.
        if report.executed == 0
            && report.completions == 0
            && !sys.runtime.pending_deferred(sys.clock())
            && sys.platform.is_deadlocked()
        {
            outcome = Outcome::Deadlock;
            break;
        }
        // Only a machine that runs on is laid or matched: its next cycle
        // depends on its state alone.
        match &mut rungs {
            Rungs::Lay(ladder) => ladder.lay(sys, hits.len()),
            Rungs::Join(ladder, reference) if consumed && spliced.is_none() => {
                if let Some(rung) = ladder.at(sys.clock()).filter(|r| r.matches(sys)) {
                    let sig = splice(sys, &hits, &hit_cycles, rung, reference);
                    if !cfg!(debug_assertions) {
                        return Run {
                            sig,
                            snap,
                            cycles,
                            joined: true,
                        };
                    }
                    spliced = Some(sig);
                }
            }
            _ => {}
        }
    }
    let fault = sys.first_fault().map(|(pe, f)| format!("pe{} {f}", pe.0));
    let graph = &sys.runtime.graph;
    let steps = graph
        .filters()
        .map(|a| sys.runtime.steps_done(a.id))
        .collect();
    let fifo = (0..graph.links.len() as u32)
        .map(|l| sys.runtime.counters(LinkId(l)))
        .collect();
    let sinks = sys
        .runtime
        .sinks()
        .iter()
        .map(|s| (s.consumed, s.checksum))
        .collect();
    let sig = Signature {
        outcome,
        fault,
        console: sys.runtime.console.clone(),
        sinks,
        steps,
        fifo,
        hits,
        hit_cycles,
        end_clock: sys.clock(),
    };
    let joined = spliced.is_some();
    if let Some(spliced) = spliced {
        assert_eq!(
            spliced, sig,
            "a universe that joined the reference run ended unlike its splice"
        );
    }
    Run {
        sig,
        snap,
        cycles,
        joined,
    }
}

/// The signature of a universe that joined the reference at `rung`: its
/// own hits and console lines so far, the reference's after the rung, and
/// the reference's ending.
fn splice(
    sys: &System,
    hits: &[(u32, bool)],
    hit_cycles: &[u64],
    rung: &Rung,
    reference: &Signature,
) -> Signature {
    Signature {
        outcome: reference.outcome,
        fault: reference.fault.clone(),
        console: [&sys.runtime.console[..], &reference.console[rung.console..]].concat(),
        sinks: reference.sinks.clone(),
        steps: reference.steps.clone(),
        fifo: reference.fifo.clone(),
        hits: [hits, &reference.hits[rung.hits..]].concat(),
        hit_cycles: [hit_cycles, &reference.hit_cycles[rung.hits..]].concat(),
        end_clock: reference.end_clock,
    }
}

// ---- ancestor pool -----------------------------------------------------

/// A universe frozen mid-run, with what a run forked from it must carry
/// on from: the decision counters and the watched accesses so far. The
/// machine's state does not hold those accesses (the engine drains them
/// every cycle), so without them a universe forked from the snapshot
/// would compare a cut-off hit list with the reference's.
struct Snapshot {
    sys: System,
    counters: [u64; 2],
    hits: Vec<(u32, bool)>,
    hit_cycles: Vec<u64>,
}

/// A pooled snapshot: a universe frozen right after its overrides were
/// consumed, reusable as a fork base by any descendant whose extra
/// overrides all lie in the snapshot's future.
struct PoolEntry {
    key: Vec<ChoiceRec>,
    snap: Snapshot,
    tick: u64,
}

struct Pool {
    entries: Vec<PoolEntry>,
    next_tick: u64,
    max: usize,
}

impl Pool {
    fn new(root: System, max: usize) -> Pool {
        Pool {
            entries: vec![PoolEntry {
                key: Vec::new(),
                snap: Snapshot {
                    sys: root,
                    counters: [0, 0],
                    hits: Vec::new(),
                    hit_cycles: Vec::new(),
                },
                tick: 0,
            }],
            next_tick: 1,
            max,
        }
    }

    /// Fork the deepest usable ancestor for `overrides`: its key must be a
    /// subset of `overrides` and every remaining override's decision must
    /// still be ahead of the snapshot's counters. Returns the fork with
    /// the ancestor's watched accesses so far.
    fn fork_for(&mut self, overrides: &[ChoiceRec]) -> (System, Vec<(u32, bool)>, Vec<u64>) {
        let mut best = 0usize; // root always qualifies
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let subset = e.key.iter().all(|k| overrides.contains(k));
            if !subset {
                continue;
            }
            let future = overrides
                .iter()
                .filter(|o| !e.key.contains(o))
                .all(|o| e.snap.counters[o.kind.slot()] <= o.index);
            if !future {
                continue;
            }
            let b = &self.entries[best];
            if e.key.len() > b.key.len() || (e.key.len() == b.key.len() && e.tick > b.tick) {
                best = i;
            }
        }
        self.entries[best].tick = self.next_tick;
        self.next_tick += 1;
        let snap = &mut self.entries[best].snap;
        (snap.sys.fork(), snap.hits.clone(), snap.hit_cycles.clone())
    }

    /// Insert a snapshot, evicting the least-recently-used non-root entry
    /// when full. Returns current pool payload bytes for peak tracking.
    fn insert(&mut self, key: Vec<ChoiceRec>, snap: Snapshot) -> u64 {
        self.entries.push(PoolEntry {
            key,
            snap,
            tick: self.next_tick,
        });
        self.next_tick += 1;
        while self.entries.len() > self.max + 1 {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .skip(1)
                .min_by_key(|(_, e)| e.tick)
                .map(|(i, _)| i)
                .expect("non-root entries exist");
            self.entries.remove(lru);
        }
        self.bytes()
    }

    fn bytes(&self) -> u64 {
        let root = &self.entries[0].snap.sys.platform.mem;
        self.entries
            .iter()
            .map(|e| e.snap.sys.platform.mem.words_apart_from(root) as u64 * 4)
            .sum()
    }
}

// ---- classification ----------------------------------------------------

/// Describe why a deadlocked machine is stuck: each blocked filter PE and
/// the FIFO edge it waits on.
fn blame_deadlock(sys: &System) -> String {
    let graph = &sys.runtime.graph;
    let mut parts = Vec::new();
    for (i, pe) in sys.platform.pes.iter().enumerate() {
        let (verb, link) = match pe.status {
            PeStatus::Blocked(BlockReason::TokenWait { link }) => ("awaits tokens on", link),
            PeStatus::Blocked(BlockReason::SpaceWait { link }) => ("awaits space on", link),
            _ => continue,
        };
        let who = graph
            .actors
            .iter()
            .find(|a| a.kind == ActorKind::Filter && a.pe.map(|p| p.index()) == Some(i))
            .map(|a| graph.qualified_name(a.id))
            .unwrap_or_else(|| format!("pe{i}"));
        if (link as usize) < graph.links.len() {
            parts.push(format!("{who} {verb} `{}`", graph.link_label(LinkId(link))));
        } else {
            parts.push(format!("{who} {verb} link #{link}"));
        }
        if parts.len() == 4 {
            parts.push("...".to_string());
            break;
        }
    }
    if parts.is_empty() {
        "all PEs blocked".to_string()
    } else {
        parts.join("; ")
    }
}

/// A universe that hit the horizon may still be a starvation witness: a
/// filter permanently parked on a FIFO wait while having made fewer steps
/// than it managed under the reference schedule.
fn blame_wedge(sys: &System, sig: &Signature, reference: &Signature) -> Option<String> {
    let graph = &sys.runtime.graph;
    for (fi, a) in graph.filters().enumerate() {
        if sig.steps.get(fi) >= reference.steps.get(fi) {
            continue;
        }
        let Some(pe) = a.pe else { continue };
        let (verb, link) = match sys.platform.pes[pe.index()].status {
            PeStatus::Blocked(BlockReason::TokenWait { link }) => ("awaits tokens on", link),
            PeStatus::Blocked(BlockReason::SpaceWait { link }) => ("awaits space on", link),
            _ => continue,
        };
        let edge = if (link as usize) < graph.links.len() {
            format!("`{}`", graph.link_label(LinkId(link)))
        } else {
            format!("link #{link}")
        };
        return Some(format!(
            "{} wedged at step {} (reference reached {}): {verb} {edge}",
            graph.qualified_name(a.id),
            sig.steps[fi],
            reference.steps[fi],
        ));
    }
    None
}

/// First index at which the watched access orders differ, if any.
fn first_hit_divergence(sig: &Signature, reference: &Signature) -> Option<usize> {
    if sig.hits == reference.hits {
        return None;
    }
    let i = sig
        .hits
        .iter()
        .zip(&reference.hits)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| sig.hits.len().min(reference.hits.len()));
    Some(i)
}

/// Classify a universe against the reference; returns a witness when the
/// search mode accepts the observed failure.
fn classify(
    sys: &System,
    sig: &Signature,
    reference: &Signature,
    cfg: &ExploreConfig,
    overrides: &[ChoiceRec],
) -> Option<Witness> {
    if cfg.until.accepts_deadlock() {
        if sig.outcome == Outcome::Deadlock && reference.outcome != Outcome::Deadlock {
            return Some(Witness {
                anchor: cfg.anchor,
                rule: rules::WITNESSED_DEADLOCK.to_string(),
                failure_cycle: sig.end_clock,
                overrides: overrides.to_vec(),
                blame: blame_deadlock(sys),
            });
        }
        if sig.outcome == Outcome::Horizon && reference.outcome == Outcome::Quiescent {
            if let Some(blame) = blame_wedge(sys, sig, reference) {
                return Some(Witness {
                    anchor: cfg.anchor,
                    rule: rules::WITNESSED_DEADLOCK.to_string(),
                    failure_cycle: sig.end_clock,
                    overrides: overrides.to_vec(),
                    blame,
                });
            }
        }
    }
    // A race witness requires the access order to flip AND the output to
    // diverge *with the same amount of work done* — a universe that ended
    // early (deadlock, wedge, fault) trivially has different output, which
    // proves nothing about the racy values themselves.
    if cfg.until.accepts_race()
        && !cfg.race_sites.is_empty()
        && sig.outcome == reference.outcome
        && sig.steps == reference.steps
    {
        if let Some(i) = first_hit_divergence(sig, reference) {
            if sig.output_diverges(reference) {
                let cycle = sig.hit_cycles.get(i).copied().unwrap_or(sig.end_clock);
                let addr = sig
                    .hits
                    .get(i)
                    .or_else(|| reference.hits.get(i))
                    .map(|h| h.0);
                let site =
                    addr.and_then(|a| cfg.race_sites.iter().find(|s| s.lo <= a && a <= s.hi));
                let blame = match (site, addr) {
                    (Some(s), Some(a)) => format!(
                        "{}: access order flipped at 0x{a:08x}, output diverged",
                        s.label
                    ),
                    _ => "watched access order flipped, output diverged".to_string(),
                };
                return Some(Witness {
                    anchor: cfg.anchor,
                    rule: rules::WITNESSED_RACE.to_string(),
                    failure_cycle: cycle,
                    overrides: overrides.to_vec(),
                    blame,
                });
            }
        }
    }
    None
}

// ---- the search --------------------------------------------------------

fn fmt_overrides(ovs: &[ChoiceRec]) -> String {
    if ovs.is_empty() {
        return "-".to_string();
    }
    ovs.iter()
        .map(|o| o.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// Explore scheduler interleavings of `root` (a booted system fork owned
/// by the caller) under `cfg`. Deterministic: same root + same config
/// produce a byte-identical report.
pub fn explore(mut root: System, cfg: &ExploreConfig) -> ExploreReport {
    let mut stats = ExploreStats::default();
    let mut transcript = Vec::new();
    transcript.push(format!(
        "explore: budget={} horizon={} until={} depth<={} points<={}+{} sleep-sets={} sites={}",
        cfg.budget,
        cfg.horizon,
        cfg.until.label(),
        cfg.max_depth,
        cfg.max_points,
        cfg.max_dma_points,
        if cfg.sleep_sets { "on" } else { "off" },
        cfg.race_sites.len(),
    ));

    let n_watches = cfg.race_sites.len() as u32;
    for (i, s) in cfg.race_sites.iter().enumerate() {
        root.platform
            .mem
            .add_watch(WATCH_ID_BASE + i as u32, s.lo, s.hi, WatchKind::Access);
        transcript.push(format!(
            "watch: [0x{:08x}, 0x{:08x}] {}",
            s.lo, s.hi, s.label
        ));
    }
    let horizon_abs = root.clock() + cfg.horizon;

    // Reference universe: default schedule, recording on, laying the
    // ladder perturbed universes join when pruning is on.
    let mut ref_sys = root.fork();
    stats.universes_forked += 1;
    ref_sys.runtime.policy.recording = Some(Vec::new());
    let mut ladder = Ladder::new(root.clock());
    let rungs = if cfg.prune_equivalent {
        Rungs::Lay(&mut ladder)
    } else {
        Rungs::Off
    };
    let Run {
        sig: reference,
        cycles,
        ..
    } = run_universe(
        &mut ref_sys,
        horizon_abs,
        n_watches,
        &[],
        false,
        rungs,
        Default::default(),
    );
    stats.cycles_stepped += cycles;
    let recording = ref_sys.runtime.policy.recording.take().unwrap_or_default();
    stats.universes_explored += 1;
    transcript.push(format!(
        "reference: {}@{} console={} hits={} steps={:?}",
        reference.outcome.label(),
        reference.end_clock,
        reference.console.len(),
        reference.hits.len(),
        reference.steps,
    ));

    let candidates = enumerate_candidates(&recording, cfg);
    stats.actor_points = candidates
        .iter()
        .filter(|c| c.kind == ChoiceKind::ActorStart)
        .map(|c| c.index)
        .collect::<BTreeSet<_>>()
        .len() as u64;
    stats.dma_points = candidates
        .iter()
        .filter(|c| c.kind == ChoiceKind::DmaOrder)
        .map(|c| c.index)
        .collect::<BTreeSet<_>>()
        .len() as u64;
    transcript.push(format!(
        "points: {} actor-start, {} dma-order ({} candidates)",
        stats.actor_points,
        stats.dma_points,
        candidates.len(),
    ));

    // The default schedule failing is itself a (trivial, empty-trace)
    // witness — no search needed.
    if reference.outcome == Outcome::Deadlock && cfg.until.accepts_deadlock() {
        let w = Witness {
            anchor: cfg.anchor,
            rule: rules::WITNESSED_DEADLOCK.to_string(),
            failure_cycle: reference.end_clock,
            overrides: Vec::new(),
            blame: blame_deadlock(&ref_sys),
        };
        stats.witnesses_found = 1;
        transcript.push(format!("witness {w} blame={}", w.blame));
        return ExploreReport {
            witness: Some(w),
            reference_outcome: reference.outcome,
            space_covered: true,
            stats,
            transcript,
        };
    }

    // Sleep set: when hunting a race, an ActorStart perturbation of an
    // actor that never touches a watched range is independent of every
    // racy access and cannot flip their order.
    let racy_actors: BTreeSet<u32> = cfg
        .race_sites
        .iter()
        .flat_map(|s| [s.actors.0, s.actors.1])
        .collect();
    let sleep_skip = |c: &Candidate| -> bool {
        cfg.sleep_sets
            && cfg.until == Until::Race
            && !racy_actors.is_empty()
            && c.kind == ChoiceKind::ActorStart
            && !racy_actors.contains(&c.subject)
    };

    let mut pool = Pool::new(root, cfg.pool_max);
    stats.peak_pool_bytes = pool.bytes();
    let mut witness: Option<Witness> = None;
    let mut budget_cut = false;

    // BFS by override count: parents at depth d extend with candidates
    // strictly after their last one, so each override *set* runs once.
    let mut parents: Vec<(Vec<ChoiceRec>, usize)> = vec![(Vec::new(), 0)];
    'search: for _depth in 1..=cfg.max_depth {
        let mut next_parents: Vec<(Vec<ChoiceRec>, usize)> = Vec::new();
        for (base, start) in &parents {
            for (ci, cand) in candidates.iter().enumerate().skip(*start) {
                if base
                    .iter()
                    .any(|o| (o.kind, o.index) == (cand.kind, cand.index))
                {
                    continue; // same point already overridden in this set
                }
                if sleep_skip(cand) {
                    stats.sleep_set_hits += 1;
                    continue;
                }
                if stats.universes_explored as usize >= cfg.budget {
                    budget_cut = true;
                    break 'search;
                }
                let mut ovs = base.clone();
                ovs.push(cand.rec());
                let (mut sys, hits, hit_cycles) = pool.fork_for(&ovs);
                stats.universes_forked += 1;
                sys.runtime.policy.recording = None;
                sys.runtime.policy.set_overrides(&ovs);
                let may_extend = ovs.len() < cfg.max_depth;
                let rungs = if cfg.prune_equivalent {
                    Rungs::Join(&ladder, &reference)
                } else {
                    Rungs::Off
                };
                let Run {
                    sig,
                    snap,
                    cycles,
                    joined,
                } = run_universe(
                    &mut sys,
                    horizon_abs,
                    n_watches,
                    &ovs,
                    may_extend,
                    rungs,
                    (hits, hit_cycles),
                );
                stats.cycles_stepped += cycles;
                stats.universes_joined += u64::from(joined);
                stats.universes_explored += 1;
                witness = classify(&sys, &sig, &reference, cfg, &ovs);
                if let Some(w) = &witness {
                    stats.witnesses_found = 1;
                    transcript.push(format!(
                        "u{:04} {} -> {}@{} WITNESS {}",
                        stats.universes_explored,
                        fmt_overrides(&ovs),
                        sig.outcome.label(),
                        sig.end_clock,
                        w.rule,
                    ));
                    break 'search;
                }
                if cfg.prune_equivalent && sig.equivalent(&reference) {
                    stats.universes_pruned += 1;
                    continue; // commuted with everything observable: don't extend
                }
                transcript.push(format!(
                    "u{:04} {} -> {}@{} diverges (console={} hits={} steps={:?})",
                    stats.universes_explored,
                    fmt_overrides(&ovs),
                    sig.outcome.label(),
                    sig.end_clock,
                    sig.console.len(),
                    sig.hits.len(),
                    sig.steps,
                ));
                // The snapshot is measured with the universe that made it
                // gone.
                drop(sys);
                if may_extend {
                    if let Some(snap) = snap {
                        let bytes = pool.insert(ovs.clone(), snap);
                        stats.peak_pool_bytes = stats.peak_pool_bytes.max(bytes);
                    }
                    next_parents.push((ovs, ci + 1));
                }
            }
        }
        parents = next_parents;
        if parents.is_empty() {
            break;
        }
    }

    let space_covered = !budget_cut;
    match &witness {
        Some(w) => transcript.push(format!("witness {w} blame={}", w.blame)),
        None => transcript.push(format!(
            "no divergence witnessed: {}",
            if space_covered {
                "search space covered"
            } else {
                "budget exhausted"
            }
        )),
    }
    transcript.push(format!(
        "summary: forked={} explored={} pruned={} sleep-hits={} pool-peak={}B witnesses={}",
        stats.universes_forked,
        stats.universes_explored,
        stats.universes_pruned,
        stats.sleep_set_hits,
        stats.peak_pool_bytes,
        stats.witnesses_found,
    ));
    ExploreReport {
        witness,
        reference_outcome: reference.outcome,
        space_covered,
        stats,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(kind: ChoiceKind, index: u64, subject: u32) -> DecisionPoint {
        DecisionPoint {
            kind,
            index,
            subject,
            clock: 100 + index,
        }
    }

    /// A booted 16-macroblock decoder `cycles` into its run.
    fn decoder_at(cycles: u64) -> System {
        let (mut sys, app) = h264_pipeline::build_decoder(
            h264_pipeline::Bug::None,
            16,
            p2012::PlatformConfig::default(),
        )
        .unwrap();
        sys.boot(app.boot_entry).unwrap();
        h264_pipeline::attach_env(&mut sys, &app, 16, 7).unwrap();
        sys.run(cycles);
        assert!(!sys.platform.is_quiescent());
        sys
    }

    fn rung_of(sys: &mut System) -> Rung {
        Rung {
            key: scalar_key(sys),
            hits: 0,
            console: 0,
            sys: sys.fork(),
        }
    }

    #[test]
    fn a_rung_matches_its_own_state_and_nothing_else() {
        let mut sys = decoder_at(1_500);
        let rung = rung_of(&mut sys);
        assert!(rung.matches(&sys));
        // One word of memory apart: a FIFO slot.
        let mut a = sys.fork();
        let addr = a.runtime.fifos[0].base;
        let w = a.platform.mem.peek(addr).unwrap();
        a.platform.mem.poke(addr, w ^ 1).unwrap();
        assert_eq!(scalar_key(&a), rung.key);
        assert_eq!(state_words(&a), state_words(&rung.sys));
        assert!(!rung.matches(&a));
        // One local of a running task apart.
        let mut b = sys.fork();
        let pes = &mut b.platform.pes;
        let (pe, i) = (0..pes.len())
            .flat_map(|pe| (0..pes[pe].frame_depth()).map(move |i| (pe, i)))
            .find(|&(pe, i)| !pes[pe].frame_locals(i).is_empty())
            .expect("a frame with locals");
        pes[pe].frame_locals_mut(i)[0] ^= 1;
        assert_eq!(scalar_key(&b), rung.key);
        assert!(!rung.matches(&b));
        // An override that can no longer fire, until it is dropped.
        let mut c = sys.fork();
        c.runtime.policy.set_override(ChoiceRec {
            kind: ChoiceKind::ActorStart,
            index: 0,
            code: 1,
        });
        assert!(!rung.matches(&c));
        c.runtime.policy.clear_overrides();
        assert!(rung.matches(&c));
    }

    /// Two machines apart only in the token a filter just popped into its
    /// read window: its FIFO slot and its PE state are made equal again.
    #[test]
    fn a_rung_tells_read_windows_apart() {
        let mut sys = decoder_at(1_000);
        // Step up to a cycle in which a filter pops a token.
        let popping = |sys: &mut System| {
            let mut next = sys.fork();
            next.step();
            let graph = &sys.runtime.graph;
            let link = graph.links.iter().find(|l| {
                next.runtime.counters(l.id).1 > sys.runtime.counters(l.id).1
                    && graph.actor(graph.conn(l.to).actor).kind == ActorKind::Filter
            });
            link.map(|l| l.id)
        };
        let mut link = None;
        for _ in 0..1_000 {
            link = popping(&mut sys);
            if link.is_some() {
                break;
            }
            sys.step();
        }
        let link = link.expect("a filter pops within 1,000 cycles");
        let (mut a, mut b) = (sys.fork(), sys.fork());
        let fifo = &b.runtime.fifos[link.0 as usize];
        let head = fifo.base + (fifo.popped % u64::from(fifo.capacity)) as u32 * fifo.token_words;
        let w = b.platform.mem.peek(head).unwrap();
        b.platform.mem.poke(head, w ^ 1).unwrap();
        a.step();
        b.step();
        b.platform.mem.poke(head, w).unwrap();
        b.platform.pes = a.platform.pes.clone();
        let rung = rung_of(&mut a);
        assert_eq!(scalar_key(&b), rung.key);
        assert!(b.platform.mem.same_words_as(&a.platform.mem));
        assert!(!rung.matches(&b));
    }

    #[test]
    fn candidates_are_capped_deduped_and_ordered() {
        let rec = vec![
            pt(ChoiceKind::ActorStart, 1, 7),
            pt(ChoiceKind::DmaOrder, 0, 2),
            pt(ChoiceKind::ActorStart, 0, 5),
            pt(ChoiceKind::ActorStart, 0, 5), // restored-checkpoint duplicate
            pt(ChoiceKind::ActorStart, 99, 6),
        ];
        let cfg = ExploreConfig {
            max_points: 48,
            actor_codes: vec![1, 4],
            dma_codes: vec![1],
            ..Default::default()
        };
        let cands = enumerate_candidates(&rec, &cfg);
        let recs: Vec<String> = cands.iter().map(|c| c.rec().to_string()).collect();
        // index 99 capped away; a.0 deduped; actor points before dma.
        assert_eq!(recs, ["a.0.1", "a.0.4", "a.1.1", "a.1.4", "d.0.1"]);
        assert_eq!(cands[0].subject, 5);
    }

    #[test]
    fn signature_equivalence_ignores_timing_only() {
        let base = Signature {
            outcome: Outcome::Quiescent,
            fault: None,
            console: vec!["8".into()],
            sinks: vec![(3, 42)],
            steps: vec![3, 3],
            fifo: vec![(3, 3)],
            hits: vec![(0x2000_f000, true)],
            hit_cycles: vec![100],
            end_clock: 2000,
        };
        let mut later = base.clone();
        later.hit_cycles = vec![108];
        later.end_clock = 2040;
        assert!(base.equivalent(&later));
        assert!(!base.output_diverges(&later));
        let mut flipped = base.clone();
        flipped.hits = vec![(0x2000_f000, false)];
        assert!(!base.equivalent(&flipped));
        assert_eq!(first_hit_divergence(&flipped, &base), Some(0));
        assert_eq!(first_hit_divergence(&later, &base), None);
        // Prefix divergence points at the first missing hit.
        let mut shorter = base.clone();
        shorter.hits.clear();
        shorter.hit_cycles.clear();
        assert_eq!(first_hit_divergence(&shorter, &base), Some(0));
    }
}
