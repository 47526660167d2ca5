//! DMA controllers.
//!
//! On P2012 host↔fabric exchanges go through DMA with the L3 memory
//! (Fig. 1), and the case study's graph shows DMA-assisted control links
//! (the dashed arrows of Fig. 4). A [`DmaEngine`] copies word blocks between
//! any two mapped regions at a fixed words-per-cycle rate; completion is
//! polled by the runtime, which keeps blocked PEs parked with
//! [`crate::vm::BlockReason::DmaWait`] until their transfer retires.
//!
//! Transfers go through [`Memory::read`]/[`Memory::write`] so watchpoints
//! fire on DMA traffic too — the debugger must see token payloads no matter
//! which agent moves them.

use crate::memory::{MemError, Memory};

/// A block-copy request (word addresses, word count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRequest {
    pub src: u32,
    pub dst: u32,
    pub len: u32,
}

/// Status of a submitted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaStatus {
    InFlight {
        remaining: u32,
    },
    Done,
    /// Unknown id, or already retired.
    Unknown,
    /// The transfer touched an unmapped address and was aborted.
    Faulted(MemError),
}

#[derive(Debug, Clone)]
struct Transfer {
    id: u32,
    req: DmaRequest,
    copied: u32,
    state: DmaStatus,
}

/// One DMA controller.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    /// Words moved per simulated cycle.
    pub words_per_cycle: u32,
    transfers: Vec<Transfer>,
    next_id: u32,
    /// Total words copied, for the platform-throughput benchmark.
    pub words_copied: u64,
    /// Transfers still in flight: derived from `transfers`, not hashed.
    in_flight: usize,
}

impl DmaEngine {
    pub fn new(words_per_cycle: u32) -> Self {
        assert!(words_per_cycle > 0, "DMA rate must be positive");
        DmaEngine {
            words_per_cycle,
            transfers: Vec::new(),
            next_id: 0,
            words_copied: 0,
            in_flight: 0,
        }
    }

    /// Queue a transfer; returns its id for later polling.
    pub fn submit(&mut self, req: DmaRequest) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.transfers.push(Transfer {
            id,
            req,
            copied: 0,
            state: DmaStatus::InFlight { remaining: req.len },
        });
        self.in_flight += 1;
        id
    }

    pub fn status(&self, id: u32) -> DmaStatus {
        self.transfers
            .iter()
            .find(|t| t.id == id)
            .map_or(DmaStatus::Unknown, |t| t.state)
    }

    /// Drop a completed (or faulted) transfer from the table.
    pub fn retire(&mut self, id: u32) {
        self.transfers
            .retain(|t| t.id != id || matches!(t.state, DmaStatus::InFlight { .. }));
    }

    /// Number of transfers still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Feed the engine's state (including every queued transfer) to a
    /// hasher, for the replay engine's divergence check. `Clone` of the
    /// whole engine is the snapshot; this is its fingerprint.
    pub fn hash_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u32(self.words_per_cycle);
        h.write_u32(self.next_id);
        h.write_u64(self.words_copied);
        h.write_usize(self.transfers.len());
        for t in &self.transfers {
            h.write_u32(t.id);
            h.write_u32(t.req.src);
            h.write_u32(t.req.dst);
            h.write_u32(t.req.len);
            h.write_u32(t.copied);
            crate::vm::hash_debug(h, &t.state);
        }
    }

    /// Advance every in-flight transfer by one cycle.
    pub fn step(&mut self, mem: &mut Memory) {
        for t in &mut self.transfers {
            if !matches!(t.state, DmaStatus::InFlight { .. }) {
                continue;
            }
            let budget = self.words_per_cycle.min(t.req.len - t.copied);
            for i in 0..budget {
                let off = t.copied + i;
                let word = match mem.read(t.req.src + off) {
                    Ok((w, _)) => w,
                    Err(e) => {
                        t.state = DmaStatus::Faulted(e);
                        break;
                    }
                };
                if let Err(e) = mem.write(t.req.dst + off, word) {
                    t.state = DmaStatus::Faulted(e);
                    break;
                }
                self.words_copied += 1;
            }
            if matches!(t.state, DmaStatus::Faulted(_)) {
                self.in_flight -= 1;
                continue;
            }
            t.copied += budget;
            t.state = if t.copied == t.req.len {
                self.in_flight -= 1;
                DmaStatus::Done
            } else {
                DmaStatus::InFlight {
                    remaining: t.req.len - t.copied,
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Memory, MemoryMap, L2_BASE, L3_BASE};

    #[test]
    fn transfer_completes_at_configured_rate() {
        let mut mem = Memory::new(MemoryMap::default());
        for i in 0..10 {
            mem.poke(L3_BASE + i, 100 + i).unwrap();
        }
        let mut dma = DmaEngine::new(4);
        let id = dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 10,
        });
        dma.step(&mut mem);
        assert_eq!(dma.status(id), DmaStatus::InFlight { remaining: 6 });
        dma.step(&mut mem);
        dma.step(&mut mem);
        assert_eq!(dma.status(id), DmaStatus::Done);
        for i in 0..10 {
            assert_eq!(mem.peek(L2_BASE + i).unwrap(), 100 + i);
        }
        dma.retire(id);
        assert_eq!(dma.status(id), DmaStatus::Unknown);
    }

    #[test]
    fn faulting_transfer_reports_and_stops() {
        let mut mem = Memory::new(MemoryMap::default());
        let mut dma = DmaEngine::new(8);
        let id = dma.submit(DmaRequest {
            src: 0xdead_0000,
            dst: L2_BASE,
            len: 4,
        });
        dma.step(&mut mem);
        assert!(matches!(dma.status(id), DmaStatus::Faulted(_)));
        // A faulted transfer does not progress further.
        dma.step(&mut mem);
        assert!(matches!(dma.status(id), DmaStatus::Faulted(_)));
    }

    #[test]
    fn dma_traffic_triggers_watchpoints() {
        let mut mem = Memory::new(MemoryMap::default());
        mem.add_watch(9, L2_BASE, L2_BASE + 3, crate::memory::WatchKind::Write);
        let mut dma = DmaEngine::new(2);
        dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 2,
        });
        dma.step(&mut mem);
        assert_eq!(mem.take_hits().len(), 2);
    }

    #[test]
    fn zero_length_transfer_is_done_after_one_step() {
        // Pinned behavior: a zero-length request is accepted, copies
        // nothing, and completes on the first step (copied == len == 0).
        let mut mem = Memory::new(MemoryMap::default());
        let mut dma = DmaEngine::new(4);
        let id = dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 0,
        });
        assert_eq!(dma.status(id), DmaStatus::InFlight { remaining: 0 });
        assert_eq!(dma.in_flight(), 1);
        dma.step(&mut mem);
        assert_eq!(dma.status(id), DmaStatus::Done);
        assert_eq!(dma.words_copied, 0);
    }

    #[test]
    fn overlapping_src_dst_copies_sequentially() {
        // Pinned behavior: words move one at a time in ascending order, so
        // a forward-overlapping copy (dst = src + 1) propagates the first
        // word through the whole destination window — memmove semantics
        // are NOT provided.
        let mut mem = Memory::new(MemoryMap::default());
        for i in 0..4 {
            mem.poke(L2_BASE + i, 10 + i).unwrap();
        }
        let mut dma = DmaEngine::new(8);
        let id = dma.submit(DmaRequest {
            src: L2_BASE,
            dst: L2_BASE + 1,
            len: 3,
        });
        dma.step(&mut mem);
        assert_eq!(dma.status(id), DmaStatus::Done);
        // [10, 11, 12, 13] -> [10, 10, 10, 10]: each copied word is the
        // one the previous iteration just wrote.
        for i in 0..4 {
            assert_eq!(mem.peek(L2_BASE + i).unwrap(), 10);
        }
    }

    #[test]
    fn retire_of_unknown_id_is_a_noop() {
        // Pinned behavior: retiring an id that was never submitted (or was
        // already retired) does nothing and disturbs no live transfer.
        let mut mem = Memory::new(MemoryMap::default());
        let mut dma = DmaEngine::new(1);
        let live = dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 2,
        });
        dma.retire(live + 99);
        assert_eq!(dma.status(live + 99), DmaStatus::Unknown);
        assert_eq!(dma.in_flight(), 1);
        // An in-flight transfer survives even a retire of its own id.
        dma.retire(live);
        assert!(matches!(dma.status(live), DmaStatus::InFlight { .. }));
        dma.step(&mut mem);
        dma.step(&mut mem);
        assert_eq!(dma.status(live), DmaStatus::Done);
    }

    fn engine_hash(d: &DmaEngine) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        d.hash_state(&mut h);
        h.finish()
    }

    #[test]
    fn checkpoint_mid_transfer_replays_completion_at_same_cycle() {
        // A checkpoint taken while a transfer is in flight must capture the
        // pending retire: restoring the snapshot (engine clone + memory
        // fork) and re-stepping completes the transfer after exactly the
        // same number of cycles, with identical memory and state hash.
        let mut mem = Memory::new(MemoryMap::default());
        for i in 0..12 {
            mem.poke(L3_BASE + i, 200 + i).unwrap();
        }
        let mut dma = DmaEngine::new(4);
        let id = dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 12,
        });
        dma.step(&mut mem); // 4 of 12 words copied
        assert_eq!(dma.status(id), DmaStatus::InFlight { remaining: 8 });

        // Checkpoint: whole-engine clone plus copy-on-write memory fork.
        let snap_dma = dma.clone();
        let snap_mem = mem.fork();

        // Original timeline: completes after two more steps.
        dma.step(&mut mem);
        dma.step(&mut mem);
        assert_eq!(dma.status(id), DmaStatus::Done);
        let final_hash = engine_hash(&dma);

        // Restore and replay: the pending retire is still there, the
        // remaining words land on the same cycles, the hash matches.
        let mut dma2 = snap_dma;
        let mut mem = snap_mem;
        assert_eq!(dma2.status(id), DmaStatus::InFlight { remaining: 8 });
        assert_eq!(dma2.in_flight(), 1);
        dma2.step(&mut mem);
        assert_eq!(dma2.status(id), DmaStatus::InFlight { remaining: 4 });
        dma2.step(&mut mem);
        assert_eq!(dma2.status(id), DmaStatus::Done);
        for i in 0..12 {
            assert_eq!(mem.peek(L2_BASE + i).unwrap(), 200 + i);
        }
        assert_eq!(engine_hash(&dma2), final_hash);
        // Retiring in the replay works exactly like the original.
        dma2.retire(id);
        assert_eq!(dma2.status(id), DmaStatus::Unknown);
    }

    #[test]
    fn hash_distinguishes_transfer_progress() {
        let mut mem = Memory::new(MemoryMap::default());
        let mut dma = DmaEngine::new(1);
        dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 3,
        });
        let h0 = engine_hash(&dma);
        dma.step(&mut mem);
        let h1 = engine_hash(&dma);
        assert_ne!(h0, h1, "progress must change the fingerprint");
        assert_eq!(
            engine_hash(&dma.clone()),
            h1,
            "clone is a faithful snapshot"
        );
    }

    #[test]
    fn several_concurrent_transfers() {
        let mut mem = Memory::new(MemoryMap::default());
        let mut dma = DmaEngine::new(1);
        let a = dma.submit(DmaRequest {
            src: L3_BASE,
            dst: L2_BASE,
            len: 2,
        });
        let b = dma.submit(DmaRequest {
            src: L3_BASE + 100,
            dst: L2_BASE + 100,
            len: 1,
        });
        assert_eq!(dma.in_flight(), 2);
        dma.step(&mut mem);
        assert_eq!(dma.status(b), DmaStatus::Done);
        assert!(matches!(dma.status(a), DmaStatus::InFlight { .. }));
        dma.step(&mut mem);
        assert_eq!(dma.status(a), DmaStatus::Done);
        assert_eq!(dma.in_flight(), 0);
    }
}
