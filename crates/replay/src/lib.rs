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

/// One checkpoint: a fork of the machine + the chained hash at this
/// boundary + a client payload (the debugger stores its session-model
/// snapshot there).
#[derive(Debug, Clone)]
pub struct Checkpoint<X> {
    pub id: u32,
    pub clock: u64,
    /// Chained boundary hash (see module docs).
    pub hash: u64,
    /// Pages dirtied since the previous boundary (0 for the baseline).
    pub pages: usize,
    /// The machine at `clock`, never stepped: restores clone it.
    pub sys: System,
    pub payload: X,
}

/// Summary row for `info checkpoints`.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    pub id: u32,
    pub clock: u64,
    pub pages: usize,
    pub hash: u64,
}

/// The checkpoint chain plus divergence findings.
#[derive(Debug, Clone)]
pub struct CheckpointManager<X> {
    /// Auto-checkpoint interval in cycles.
    pub interval: u64,
    checkpoints: Vec<Checkpoint<X>>,
    findings: Vec<Finding>,
    next_id: u32,
}

impl<X> CheckpointManager<X> {
    pub fn new(interval: u64) -> Self {
        assert!(interval >= 1, "checkpoint interval must be positive");
        CheckpointManager {
            interval,
            checkpoints: Vec::new(),
            findings: Vec::new(),
            next_id: 0,
        }
    }

    pub fn is_initialized(&self) -> bool {
        !self.checkpoints.is_empty()
    }

    /// Establish the baseline: reset dirty tracking, hash the full state
    /// and fork the machine. Becomes checkpoint 0 (with no dirty pages).
    pub fn baseline(&mut self, sys: &mut System, payload: X) -> u32 {
        let _ = sys.platform.mem.take_dirty();
        let hash = full_state_hash(sys);
        self.push(sys, hash, 0, payload)
    }

    fn push(&mut self, sys: &mut System, hash: u64, pages: usize, payload: X) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.checkpoints.push(Checkpoint {
            id,
            clock: sys.clock(),
            hash,
            pages,
            sys: sys.fork(),
            payload,
        });
        id
    }

    pub fn checkpoints(&self) -> impl Iterator<Item = CheckpointInfo> + '_ {
        self.checkpoints.iter().map(|c| CheckpointInfo {
            id: c.id,
            clock: c.clock,
            pages: c.pages,
            hash: c.hash,
        })
    }

    pub fn get(&self, id: u32) -> Option<&Checkpoint<X>> {
        self.checkpoints.iter().find(|c| c.id == id)
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

    /// Record a new checkpoint at the current clock (first-run ground).
    pub fn checkpoint_at(&mut self, sys: &mut System, payload: X) -> u32 {
        debug_assert!(self.is_initialized(), "baseline() first");
        let dirty = sys.platform.mem.take_dirty();
        let prev = self.checkpoints.last().map_or(0, |c| c.hash);
        let hash = Self::boundary_hash(prev, sys, &dirty);
        self.push(sys, hash, dirty.len(), payload)
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
        let mut restored = cp.sys.clone();
        restored.platform.mem.adopt_watches(&mut sys.platform.mem);
        restored.runtime.adopt_environment(&mut sys.runtime);
        *sys = restored;
        Some(cp)
    }

    /// Drop every checkpoint after `clock`: the debugger mutated history
    /// (token injection/alteration), so later boundaries describe a
    /// timeline that no longer exists. The baseline is always retained:
    /// the chain starts there.
    pub fn invalidate_after(&mut self, clock: u64) {
        let mut first = true;
        self.checkpoints.retain(|c| {
            let keep = first || c.clock <= clock;
            first = false;
            keep
        });
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
