//! Deterministic checkpoint/replay for the P2012 + PEDF simulator.
//!
//! The simulator is cycle-stepped and fully deterministic: the same
//! machine state and the same (recorded) environment inputs always
//! produce the same execution. Reverse debugging therefore reduces to
//! *checkpoint + forward replay* — exactly GDB's record/replay strategy,
//! and the enabling primitive of multiverse debugging (MIO, PAPERS.md).
//!
//! A [`CheckpointManager`] owns a chain of checkpoints, and each one is a
//! copy-on-write [`System::fork`] of the whole machine: every PE's VM
//! state, DMA engines with in-flight transfers, the PEDF runtime (FIFO
//! counters, scheduler state, env-I/O cursors) and memory. The fork
//! shares every page with the live machine, so a checkpoint costs a page
//! table and a runtime clone; a page is copied only when the simulation
//! writes it again. This is the same primitive session attach and
//! multiverse exploration use — the machine has one way to copy itself.
//!
//! The chain is also a divergence detector:
//!
//! * the **baseline** (checkpoint 0) carries the full state hash;
//! * every later boundary carries a **chained state hash**: `hash[i] =
//!   fnv64(hash[i-1], machine, dirty pages)`, over the pages written
//!   since the previous boundary (dirty tracking keyed by the
//!   `MemoryMap` regions — idle banks cost nothing). A replayed execution
//!   recomputes the chain and any mismatch is reported as a `REPLAY501`
//!   finding through the shared `debuginfo::Finding` pipeline, proving
//!   the simulator stays deterministic.
//!
//! The chain stays bounded however long the history grows. Periodic
//! checkpoints start [`CHECKPOINT_INTERVAL`] cycles apart; when more than
//! [`CHECKPOINT_BUDGET`] of them are kept, every second one (counting
//! back from the newest, which stays) is dropped and the spacing doubles,
//! so the kept ones stay evenly spread at about a twentieth of the
//! history. The baseline, checkpoints taken by hand and the re-anchors
//! after a history mutation are *pinned* and never dropped. A dropped
//! boundary's dirty pages join the next kept boundary's, whose hash is
//! recomputed over them from the previous kept hash, and every later
//! hash is chained again: a replay that runs through the dropped cycle
//! without stopping there verifies the next kept boundary exactly as
//! before. Thinning renumbers the checkpoint ids to chain positions, `0`
//! to `count - 1`; between thinnings ids only grow, so a history
//! mutation that drops checkpoints leaves a gap rather than giving a
//! dropped id to another state. The cost is the replay length: a
//! jump far back replays up to history / 20 cycles. The debugger's
//! replay anchors keep jumps near the present short.
//!
//! Restoring to checkpoint `C` replaces the machine with a clone of `C`'s
//! fork; its pages stay shared, so this costs what a fork does. Two
//! things live outside the recorded machine and carry over from the
//! machine being replaced: the installed memory watches (like GDB's,
//! watchpoints survive time travel; pending hits are dropped) and the
//! environment's recordings (append-only and shared by every timeline; a
//! `re_pull` test source also keeps its live generator). Later
//! checkpoints are *kept*, so the replay that follows verifies the hash
//! chain boundary by boundary.

use debuginfo::{Finding, Severity};
use p2012::{Memory, PageId, PageView, PAGE_WORDS};
use pedf::System;

pub const RULE_DIVERGENCE: &str = "REPLAY501";

/// The default starting spacing of periodic checkpoints, in cycles: what
/// every interactive front end records with and what `checkpoint` starts
/// with. Cheap enough to leave on (EXPERIMENTS.md E6); thinning doubles
/// it as the history grows (see the module docs).
pub const CHECKPOINT_INTERVAL: u64 = 2_000;

/// How many periodic checkpoints the chain keeps before it thins.
pub const CHECKPOINT_BUDGET: usize = 20;

// ---- hashing ---------------------------------------------------------------

/// FNV-1a 64-bit, as a [`std::hash::Hasher`]. `DefaultHasher` is not
/// guaranteed stable across releases; divergence hashes must be, so runs
/// can be compared across processes (the CI determinism gate).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `n` zero words. Each is `h = (h ^ 0) * P`, so `n` of them
    /// are `h * P^n` (mod 2^64): one multiply gives exactly what `n`
    /// calls of `write_u32(0)` would.
    fn write_zero_words(&mut self, n: usize) {
        const PAGE_FACTOR: u64 = FNV_PRIME.wrapping_pow(PAGE_WORDS);
        let factor = if n == PAGE_WORDS as usize {
            PAGE_FACTOR
        } else {
            FNV_PRIME.wrapping_pow(n as u32)
        };
        self.0 = self.0.wrapping_mul(factor);
    }

    /// Continue a hash chain from a previous boundary value.
    pub fn chained(prev: u64) -> Self {
        let mut h = Fnv64::new();
        std::hash::Hasher::write_u64(&mut h, prev);
        h
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl std::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // Word-at-a-time fast path: one absorb per integer instead of one per
    // byte. The checkpoint engine hashes megabytes of memory content per
    // baseline, and the byte loop dominated `enable_time_travel`. Mixing a
    // whole word per multiply is plenty for divergence detection, stays
    // process-stable, and (unlike the default `to_ne_bytes` forwarding) is
    // endian-independent.
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(FNV_PRIME);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

// ---- state hashing ---------------------------------------------------------

fn hash_machine_into(sys: &System, h: &mut Fnv64) {
    sys.platform.hash_state(h);
    sys.runtime.hash_state(h);
}

/// Every word of memory in address order, as `write_u32` each. The
/// shared zero page is absorbed in one multiply, every other page (even
/// one that holds only zeros) word by word; both give the same value.
fn hash_memory_into(mem: &Memory, h: &mut Fnv64) {
    use std::hash::Hasher;
    for page in mem.pages() {
        match page {
            PageView::Zero(n) => h.write_zero_words(n),
            PageView::Words(words) => {
                for w in words {
                    h.write_u32(*w);
                }
            }
        }
    }
}

/// Hash of the complete system state, *including* full memory content.
/// This is the strong equality used by tests and the CI determinism gate,
/// and the baseline of every checkpoint chain; boundary hashes inside the
/// chain only cover dirty pages (cheap).
pub fn full_state_hash(sys: &System) -> u64 {
    use std::hash::Hasher;
    let mut h = Fnv64::new();
    hash_machine_into(sys, &mut h);
    hash_memory_into(&sys.platform.mem, &mut h);
    h.finish()
}

// ---- checkpoints -----------------------------------------------------------

/// The union of two page sets, sorted as `Memory::take_dirty` returns
/// one.
fn union(a: &[PageId], b: &[PageId]) -> Vec<PageId> {
    let mut out = [a, b].concat();
    out.sort_unstable();
    out.dedup();
    out
}

/// Replace the live machine with `recorded`, a fork taken earlier on this
/// timeline (a checkpoint's, or any other the client kept), carrying over
/// the installed watches and the environment's recordings (see the module
/// docs). The recorded machine keeps its dirty-page set, so a replay from
/// it regenerates the dirty sets the chain's boundaries were hashed over.
pub fn restore_machine(live: &mut System, mut recorded: System) {
    recorded.platform.mem.adopt_watches(&mut live.platform.mem);
    recorded.runtime.adopt_environment(&mut live.runtime);
    *live = recorded;
}

/// One checkpoint: a fork of the machine + the chained hash at this
/// boundary + a client payload (the debugger stores its recorded half
/// there: its model and run-loop state, copy-on-write like the machine).
#[derive(Debug, Clone)]
pub struct Checkpoint<X> {
    pub id: u32,
    pub clock: u64,
    /// Chained boundary hash (see module docs).
    pub hash: u64,
    /// Pages dirtied since the previous boundary, sorted (none for the
    /// baseline).
    pub pages: Vec<PageId>,
    /// Never dropped when the chain thins.
    pub pinned: bool,
    /// The machine at `clock`, never stepped: restores clone it.
    pub sys: System,
    pub payload: X,
}

/// Summary row for `info checkpoints`.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    pub id: u32,
    pub clock: u64,
    /// How many pages were dirtied since the previous boundary.
    pub pages: usize,
    pub hash: u64,
    pub pinned: bool,
}

/// The checkpoint chain plus divergence findings.
#[derive(Debug, Clone)]
pub struct CheckpointManager<X> {
    /// Spacing of periodic checkpoints in cycles; doubles as the chain
    /// thins.
    interval: u64,
    checkpoints: Vec<Checkpoint<X>>,
    findings: Vec<Finding>,
    next_id: u32,
}

impl<X> CheckpointManager<X> {
    /// A chain whose periodic checkpoints start `interval` cycles apart.
    pub fn new(interval: u64) -> Self {
        assert!(interval >= 1, "checkpoint interval must be positive");
        CheckpointManager {
            interval,
            checkpoints: Vec::new(),
            findings: Vec::new(),
            next_id: 0,
        }
    }

    /// The current spacing of periodic checkpoints, in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    pub fn is_initialized(&self) -> bool {
        !self.checkpoints.is_empty()
    }

    /// Establish the baseline: reset dirty tracking, hash the full state
    /// and fork the machine. Becomes checkpoint 0 (with no dirty pages).
    pub fn baseline(&mut self, sys: &mut System, payload: X) -> u32 {
        let _ = sys.platform.mem.take_dirty();
        let hash = full_state_hash(sys);
        self.push(sys, hash, Vec::new(), true, payload)
    }

    fn push(
        &mut self,
        sys: &mut System,
        hash: u64,
        pages: Vec<PageId>,
        pinned: bool,
        payload: X,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.checkpoints.push(Checkpoint {
            id,
            clock: sys.clock(),
            hash,
            pages,
            pinned,
            sys: sys.fork(),
            payload,
        });
        id
    }

    pub fn checkpoints(&self) -> impl Iterator<Item = CheckpointInfo> + '_ {
        self.checkpoints.iter().map(|c| CheckpointInfo {
            id: c.id,
            clock: c.clock,
            pages: c.pages.len(),
            hash: c.hash,
            pinned: c.pinned,
        })
    }

    pub fn get(&self, id: u32) -> Option<&Checkpoint<X>> {
        let i = self.checkpoints.binary_search_by_key(&id, |c| c.id).ok()?;
        Some(&self.checkpoints[i])
    }

    /// Every checkpoint of the chain, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Checkpoint<X>> {
        self.checkpoints.iter()
    }

    fn last_clock(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.clock)
    }

    /// Is there a recorded boundary at exactly this clock? (During replay
    /// the run loop verifies instead of re-creating.)
    pub fn has_checkpoint_at(&self, clock: u64) -> bool {
        self.checkpoints
            .binary_search_by_key(&clock, |c| c.clock)
            .is_ok()
    }

    /// Should the auto-policy create a checkpoint at this clock? (Only on
    /// first-run ground, i.e. past every recorded boundary.)
    pub fn creation_due(&self, clock: u64) -> bool {
        self.is_initialized() && clock >= self.last_clock() + self.interval
    }

    /// The first clock at or after `from` where the run loop has work: a
    /// recorded boundary to verify or an auto-checkpoint due. `u64::MAX`
    /// before the baseline.
    pub fn next_boundary(&self, from: u64) -> u64 {
        if !self.is_initialized() {
            return u64::MAX;
        }
        let recorded = self
            .checkpoints
            .get(self.checkpoints.partition_point(|c| c.clock < from))
            .map_or(u64::MAX, |c| c.clock);
        let due = self.last_clock().saturating_add(self.interval).max(from);
        recorded.min(due)
    }

    /// The latest checkpoint with `clock <= target`.
    pub fn nearest_at_or_before(&self, target: u64) -> Option<u32> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.clock <= target)
            .map(|c| c.id)
    }

    /// The latest checkpoint with `clock < target`.
    pub fn nearest_strictly_before(&self, target: u64) -> Option<u32> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.clock < target)
            .map(|c| c.id)
    }

    /// The chained hash over machine state + a dirty-page set.
    fn boundary_hash(prev: u64, sys: &System, pages: &[PageId]) -> u64 {
        use std::hash::Hasher;
        let mut h = Fnv64::chained(prev);
        hash_machine_into(sys, &mut h);
        for p in pages {
            p2012::hash_debug(&mut h, p);
            for w in sys.platform.mem.page_data(*p) {
                h.write_u32(*w);
            }
        }
        h.finish()
    }

    /// Record a pinned checkpoint at the current clock (first-run
    /// ground): the chain never thins it away.
    pub fn checkpoint_at(&mut self, sys: &mut System, payload: X) -> u32 {
        self.record(sys, true, payload)
    }

    /// Record the auto-policy's checkpoint at the current clock
    /// (first-run ground), then thin the chain if it holds more than
    /// [`CHECKPOINT_BUDGET`] periodic checkpoints. Returns whether it
    /// thinned: ids are chain positions then, and earlier ones may name
    /// other checkpoints.
    pub fn periodic_at(&mut self, sys: &mut System, payload: X) -> bool {
        self.record(sys, false, payload);
        let periodic = self.checkpoints.iter().filter(|c| !c.pinned).count();
        if periodic <= CHECKPOINT_BUDGET {
            return false;
        }
        self.thin();
        true
    }

    fn record(&mut self, sys: &mut System, pinned: bool, payload: X) -> u32 {
        debug_assert!(self.is_initialized(), "baseline() first");
        let dirty = sys.platform.mem.take_dirty();
        let prev = self.checkpoints.last().map_or(0, |c| c.hash);
        let hash = Self::boundary_hash(prev, sys, &dirty);
        self.push(sys, hash, dirty, pinned, payload)
    }

    /// Drop every second periodic checkpoint, counting back from the
    /// newest (kept), double the spacing and renumber the ids to chain
    /// positions. The pages of each dropped boundary join the next kept
    /// one, whose hash is recomputed on its stored machine; every hash
    /// after the first drop is chained again.
    fn thin(&mut self) {
        // How many periodic checkpoints are newer than the one at hand.
        let mut newer = self.checkpoints.iter().filter(|c| !c.pinned).count();
        let mut merged: Vec<PageId> = Vec::new();
        let mut rechain = false;
        let mut prev = 0;
        let mut kept = Vec::with_capacity(self.checkpoints.len());
        for mut c in std::mem::take(&mut self.checkpoints) {
            if !c.pinned {
                newer -= 1;
                if newer % 2 == 1 {
                    merged = union(&merged, &c.pages);
                    rechain = true;
                    continue;
                }
            }
            if rechain {
                if !merged.is_empty() {
                    c.pages = union(&merged, &c.pages);
                    merged.clear();
                }
                c.hash = Self::boundary_hash(prev, &c.sys, &c.pages);
            }
            prev = c.hash;
            c.id = kept.len() as u32;
            kept.push(c);
        }
        debug_assert!(merged.is_empty(), "the newest checkpoint is kept");
        self.next_id = kept.len() as u32;
        self.checkpoints = kept;
        self.interval = self.interval.saturating_mul(2);
    }

    /// A replayed execution reached a recorded boundary: recompute the
    /// chained hash from the replay's own dirty set and compare. On
    /// mismatch, record a `REPLAY501` finding naming the diverging cycle.
    /// Either way the dirty tracking resets, exactly as the original
    /// checkpoint creation did.
    pub fn verify_boundary(&mut self, sys: &mut System, clock: u64) {
        let Ok(idx) = self.checkpoints.binary_search_by_key(&clock, |c| c.clock) else {
            return;
        };
        let dirty = sys.platform.mem.take_dirty();
        if idx == 0 {
            // Baseline boundary: replays never land here (restores target
            // it directly), so there is nothing to verify.
            return;
        }
        let prev = self.checkpoints[idx - 1].hash;
        let replay_hash = Self::boundary_hash(prev, sys, &dirty);
        let expect = self.checkpoints[idx].hash;
        if replay_hash != expect {
            self.findings.push(Finding::new(
                RULE_DIVERGENCE,
                Severity::Error,
                format!("cycle {clock}"),
                format!(
                    "replay diverged from the recorded execution at checkpoint \
                     boundary {} (cycle {clock}): recorded hash {expect:#018x}, \
                     replayed hash {replay_hash:#018x} — a nondeterministic \
                     input reached the simulation",
                    self.checkpoints[idx].id
                ),
            ));
        }
    }

    /// Replace the system with checkpoint `id`'s machine, carrying over
    /// the installed watches and the environment's recordings (see the
    /// module docs). The restored machine starts with no dirty pages, as
    /// the checkpoint did, so the replay regenerates the original dirty
    /// sets. Later checkpoints are kept so the replay verifies against
    /// them.
    pub fn restore(&self, sys: &mut System, id: u32) -> Option<&Checkpoint<X>> {
        let cp = self.get(id)?;
        restore_machine(sys, cp.sys.clone());
        Some(cp)
    }

    /// Drop every checkpoint after `clock`: the debugger mutated history
    /// (token injection/alteration), so later boundaries describe a
    /// timeline that no longer exists. The baseline is always retained:
    /// the chain starts there.
    pub fn invalidate_after(&mut self, clock: u64) {
        let keep = self.checkpoints.partition_point(|c| c.clock <= clock);
        self.checkpoints.truncate(keep.max(1));
    }

    /// Divergence findings accumulated by [`Self::verify_boundary`].
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    pub fn clear_findings(&mut self) {
        self.findings.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debuginfo::TypeTable;
    use p2012::memory::L2_BASE;
    use std::collections::HashMap;

    #[test]
    fn divergence_rule_is_registered() {
        let r = debuginfo::registry::find(RULE_DIVERGENCE).expect("registered");
        assert_eq!(r.group, "REPLAY");
    }
    use p2012::memory::{L3_BASE, PAGE_WORDS};
    use p2012::{Insn, MemoryMap, PeId, Platform, PlatformConfig, ProgramBuilder};
    use pedf::Runtime;

    fn counter_system() -> System {
        counter_system_on(MemoryMap::default())
    }

    /// A minimal system: two PEs incrementing counters in L2 forever.
    /// No dataflow graph — the runtime is a passive trap handler here.
    fn counter_system_on(mem: MemoryMap) -> System {
        let mut b = ProgramBuilder::new();
        let entry = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let top = b.here();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Const(1));
        b.emit(Insn::Add);
        b.emit(Insn::StoreMem);
        b.emit(Insn::Jump(top));
        let prog = b.finish();
        let mut platform = Platform::new(PlatformConfig {
            mem,
            ..PlatformConfig::default()
        });
        platform.load(prog);
        platform.invoke(PeId(0), entry, &[L2_BASE]);
        platform.invoke(PeId(1), entry, &[L2_BASE + 5000]);
        System::new(platform, Runtime::new(TypeTable::new()))
    }

    /// PE 0 stores into a new L2 page every iteration (64 pages round),
    /// PE 1 increments one counter: most intervals dirty pages the next
    /// interval does not.
    fn walker_system() -> System {
        const SPAN: u32 = 64 * PAGE_WORDS;
        let mut b = ProgramBuilder::new();
        let walk = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let top = b.here();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(L2_BASE));
        b.emit(Insn::Add);
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::StoreMem);
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(PAGE_WORDS + 1));
        b.emit(Insn::Add);
        b.emit(Insn::Const(SPAN - 1));
        b.emit(Insn::BitAnd);
        b.emit(Insn::StoreLocal(0));
        b.emit(Insn::Jump(top));
        let count = b.begin_func(1);
        b.emit(Insn::Enter(1));
        let top = b.here();
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Const(1));
        b.emit(Insn::Add);
        b.emit(Insn::StoreMem);
        b.emit(Insn::Jump(top));
        let mut platform = Platform::new(PlatformConfig::default());
        platform.load(b.finish());
        platform.invoke(PeId(0), walk, &[0]);
        platform.invoke(PeId(1), count, &[L2_BASE + SPAN]);
        System::new(platform, Runtime::new(TypeTable::new()))
    }

    /// Run to `end` as a debugger's run loop does: stop at every recorded
    /// boundary to verify it and, on first-run ground, record the periodic
    /// checkpoint due, noting the full state hash of each in `states`.
    fn run_chain(
        mgr: &mut CheckpointManager<()>,
        sys: &mut System,
        end: u64,
        states: &mut HashMap<u64, u64>,
    ) {
        while sys.clock() < end {
            let next = mgr.next_boundary(sys.clock() + 1).min(end);
            sys.run(next - sys.clock());
            let clock = sys.clock();
            if mgr.has_checkpoint_at(clock) {
                mgr.verify_boundary(sys, clock);
            } else if mgr.creation_due(clock) {
                states.insert(clock, full_state_hash(sys));
                mgr.periodic_at(sys, ());
            }
        }
    }

    /// A long history thins the chain to the budget: ids stay chain
    /// positions in clock order, the pinned checkpoints survive, and
    /// every kept checkpoint restores to the forward run's state and
    /// replays to the end with every kept boundary verified.
    #[test]
    fn a_long_chain_thins_to_the_budget_and_still_verifies() {
        const START: u64 = 50;
        const HAND: u64 = 1_234;
        const END: u64 = 30_000;
        let mut sys = walker_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(START);
        let mut states = HashMap::from([(0, full_state_hash(&sys))]);
        mgr.baseline(&mut sys, ());
        run_chain(&mut mgr, &mut sys, HAND, &mut states);
        states.insert(HAND, full_state_hash(&sys));
        mgr.checkpoint_at(&mut sys, ());
        run_chain(&mut mgr, &mut sys, END, &mut states);
        let end_hash = full_state_hash(&sys);

        let infos: Vec<CheckpointInfo> = mgr.checkpoints().collect();
        let periodic = infos.iter().filter(|c| !c.pinned).count();
        let pinned: Vec<u64> = infos.iter().filter(|c| c.pinned).map(|c| c.clock).collect();
        assert!(
            mgr.interval() >= 4 * START,
            "thinned {} times",
            mgr.interval() / START
        );
        assert!(
            periodic > CHECKPOINT_BUDGET / 2 && periodic <= CHECKPOINT_BUDGET,
            "{periodic} periodic checkpoints"
        );
        assert_eq!(pinned, [0, HAND]);
        for (i, c) in infos.iter().enumerate() {
            assert_eq!(c.id as usize, i);
            assert!(i == 0 || infos[i - 1].clock < c.clock, "{infos:?}");
        }
        assert!(mgr.findings().is_empty(), "{:?}", mgr.findings());

        for c in &infos {
            mgr.restore(&mut sys, c.id).unwrap();
            assert_eq!(
                Some(&full_state_hash(&sys)),
                states.get(&c.clock),
                "restart {}",
                c.id
            );
            run_chain(&mut mgr, &mut sys, END, &mut HashMap::new());
            assert_eq!(full_state_hash(&sys), end_hash, "replay from {}", c.id);
        }
        assert_eq!(
            mgr.findings().first(),
            None,
            "{} findings",
            mgr.findings().len()
        );
        assert_eq!(
            mgr.checkpoints().count(),
            infos.len(),
            "replays record nothing"
        );
    }

    #[test]
    fn restore_and_replay_reproduce_the_exact_state() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp = mgr.checkpoint_at(&mut sys, ());
        sys.run(250);
        let final_hash = full_state_hash(&sys);
        let final_counter = sys.platform.mem.peek(L2_BASE).unwrap();

        // Rewind to the checkpoint: memory, PEs and clock all go back.
        mgr.restore(&mut sys, cp).expect("checkpoint exists");
        assert_eq!(sys.clock(), 100);
        assert!(sys.platform.mem.peek(L2_BASE).unwrap() < final_counter);

        // Replay the same 250 cycles: bit-identical outcome.
        sys.run(250);
        assert_eq!(full_state_hash(&sys), final_hash);
        assert_eq!(sys.platform.mem.peek(L2_BASE).unwrap(), final_counter);
    }

    #[test]
    fn restore_to_baseline_rewinds_everything() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(50);
        let h0 = full_state_hash(&sys);
        let base = mgr.baseline(&mut sys, ());
        sys.run(50);
        mgr.checkpoint_at(&mut sys, ());
        sys.run(75);
        mgr.restore(&mut sys, base).unwrap();
        assert_eq!(sys.clock(), 0);
        assert_eq!(full_state_hash(&sys), h0);
    }

    #[test]
    fn restores_go_forward_as_well_as_back() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp1 = mgr.checkpoint_at(&mut sys, ());
        let h1 = full_state_hash(&sys);
        sys.run(100);
        let cp2 = mgr.checkpoint_at(&mut sys, ());
        let h2 = full_state_hash(&sys);
        sys.run(50);

        // Back to cp1, then straight on to the last checkpoint with no
        // replay in between: every page written after cp1 must come back.
        mgr.restore(&mut sys, cp1).unwrap();
        assert_eq!(full_state_hash(&sys), h1);
        mgr.restore(&mut sys, cp2).unwrap();
        assert_eq!(full_state_hash(&sys), h2);
    }

    #[test]
    fn verify_boundary_accepts_faithful_replays() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp1 = mgr.checkpoint_at(&mut sys, ());
        sys.run(100);
        mgr.checkpoint_at(&mut sys, ());

        mgr.restore(&mut sys, cp1).unwrap();
        sys.run(100);
        mgr.verify_boundary(&mut sys, 200);
        assert!(mgr.findings().is_empty(), "{:?}", mgr.findings());
    }

    /// A fork taken mid-interval keeps the interval's dirty pages, so a
    /// replay restored from it still verifies the next boundary (the
    /// debugger's replay anchors rely on this).
    #[test]
    fn a_fork_taken_mid_interval_verifies_the_next_boundary() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(20);
        // A page only the first part of the interval writes.
        sys.platform.mem.poke(L3_BASE, 7).unwrap();
        sys.run(20);
        let mid = sys.fork();
        sys.run(60);
        mgr.checkpoint_at(&mut sys, ());

        restore_machine(&mut sys, mid);
        assert_eq!(sys.clock(), 40);
        sys.run(60);
        mgr.verify_boundary(&mut sys, 100);
        assert!(mgr.findings().is_empty(), "{:?}", mgr.findings());
    }

    #[test]
    fn verify_boundary_catches_divergence() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        mgr.baseline(&mut sys, ());
        sys.run(100);
        let cp1 = mgr.checkpoint_at(&mut sys, ());
        sys.run(100);
        mgr.checkpoint_at(&mut sys, ());

        mgr.restore(&mut sys, cp1).unwrap();
        // Corrupt one word the program is working on: the replayed
        // execution now differs from the recorded one.
        sys.platform.mem.poke(L2_BASE, 424_242).unwrap();
        sys.run(100);
        mgr.verify_boundary(&mut sys, 200);
        let fs = mgr.findings();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RULE_DIVERGENCE);
        assert!(fs[0].message.contains("cycle 200"), "{}", fs[0].message);
    }

    #[test]
    fn nearest_queries_and_invalidation() {
        let mut sys = counter_system();
        let mut mgr: CheckpointManager<()> = CheckpointManager::new(10);
        let c0 = mgr.baseline(&mut sys, ());
        sys.run(10);
        let c1 = mgr.checkpoint_at(&mut sys, ());
        sys.run(10);
        let c2 = mgr.checkpoint_at(&mut sys, ());
        assert_eq!(mgr.nearest_at_or_before(20), Some(c2));
        assert_eq!(mgr.nearest_strictly_before(20), Some(c1));
        assert_eq!(mgr.nearest_strictly_before(1), Some(c0));
        assert_eq!(mgr.nearest_strictly_before(0), None);
        assert!(mgr.has_checkpoint_at(10));
        assert!(!mgr.has_checkpoint_at(11));
        assert!(mgr.creation_due(30));
        assert!(!mgr.creation_due(29));
        mgr.invalidate_after(10);
        assert_eq!(mgr.nearest_at_or_before(u64::MAX), Some(c1));
        assert_eq!(mgr.checkpoints().count(), 2);
    }

    /// `full_state_hash` the slow way: the machine, then every mapped word
    /// in address order, one `write_u32` each.
    fn serial_full_hash(sys: &System) -> u64 {
        use std::hash::Hasher;
        let mut h = Fnv64::new();
        hash_machine_into(sys, &mut h);
        let mem = &sys.platform.mem;
        let map = mem.map();
        let mut banks: Vec<(u32, u32)> = (0..map.clusters)
            .map(|c| (map.l1_base(c), map.l1_words))
            .collect();
        banks.push((L2_BASE, map.l2_words));
        banks.push((L3_BASE, map.l3_words));
        for (base, words) in banks {
            for addr in base..base + words {
                h.write_u32(mem.peek(addr).unwrap());
            }
        }
        h.finish()
    }

    #[test]
    fn full_state_hash_equals_a_serial_word_loop() {
        let check = |sys: &System, what: &str| {
            assert_eq!(full_state_hash(sys), serial_full_hash(sys), "{what}");
        };
        check(&counter_system(), "fresh default machine");

        // L2 and L3 end in a partial page here.
        let mut sys = counter_system_on(MemoryMap {
            l2_words: 6 * PAGE_WORDS + 10,
            l3_words: 3 * PAGE_WORDS + 7,
            ..MemoryMap::default()
        });
        assert!(sys
            .platform
            .mem
            .pages()
            .any(|p| matches!(p, PageView::Zero(_))));
        check(&sys, "canonical zero pages");
        sys.platform.mem.poke(L3_BASE + 5, 9).unwrap();
        sys.platform.mem.poke(L3_BASE + 5, 0).unwrap();
        assert!(sys.platform.mem.pages().any(
            |p| matches!(p, PageView::Words(w) if w.len() == PAGE_WORDS as usize
                && w.iter().all(|&x| x == 0))
        ));
        check(&sys, "an owned page written back to zero");
        sys.platform
            .mem
            .poke(L2_BASE + 6 * PAGE_WORDS + 3, 77)
            .unwrap();
        sys.platform.mem.poke(L3_BASE + 3 * PAGE_WORDS, 5).unwrap();
        check(&sys, "partial last pages");

        let mut mgr: CheckpointManager<()> = CheckpointManager::new(100);
        let base = mgr.baseline(&mut sys, ());
        assert_eq!(
            mgr.checkpoints().next().unwrap().hash,
            serial_full_hash(&sys)
        );
        sys.run(100);
        let cp = mgr.checkpoint_at(&mut sys, ());
        sys.run(150);
        check(&sys, "after running");
        let child = sys.fork();
        check(&sys, "fork parent");
        check(&child, "fork child");
        mgr.restore(&mut sys, cp).unwrap();
        check(&sys, "after restore");
        mgr.restore(&mut sys, base).unwrap();
        check(&sys, "after restoring the baseline");
    }

    #[test]
    fn fnv64_is_stable_across_runs() {
        use std::hash::Hasher;
        let mut h = Fnv64::new();
        h.write(b"determinism");
        // Pinned: this value must never change between releases, or CI
        // hash comparisons across binaries break.
        assert_eq!(h.finish(), 0x3100_2e8e_b74a_e062);
        let mut a = Fnv64::new();
        let mut b = Fnv64::new();
        a.write(b"xyz");
        b.write(b"xyz");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::chained(a.finish());
        let mut d = Fnv64::chained(b.finish());
        c.write_u32(7);
        d.write_u32(7);
        assert_eq!(c.finish(), d.finish());
        d.write_u32(8);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn zero_words_absorb_like_the_word_loop() {
        use std::hash::Hasher;
        for n in [0, 1, 7, PAGE_WORDS as usize - 1, PAGE_WORDS as usize] {
            let mut fast = Fnv64::chained(0x1234);
            let mut slow = fast.clone();
            fast.write_zero_words(n);
            for _ in 0..n {
                slow.write_u32(0);
            }
            assert_eq!(fast.finish(), slow.finish(), "{n} zero words");
        }
    }
}
