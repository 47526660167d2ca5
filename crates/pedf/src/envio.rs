//! Environment sources and sinks: the host side of the dataflow.
//!
//! A PEDF application's boundary connections (the module `input`/`output`
//! declarations of §IV-A) are fed and drained by the ARM host through DMA
//! and L3 (Fig. 1). We model that as rate-controlled token generators and
//! consumers attached to boundary links: a deterministic, configurable
//! substitute for the proprietary host application — the substitution is
//! recorded in DESIGN.md.
//!
//! Rates are exact (one token every `period` cycles, subject to link
//! space), which is what lets the case study set up reproducible
//! rate-mismatch bugs (Fig. 4's 20-token backlog on `pipe -> ipf`).

use debuginfo::Word;

use crate::graph::ConnId;

/// Deterministic word generator for a source.
#[derive(Debug, Clone)]
pub enum ValueGen {
    /// `start, start+step, start+2*step, ...`
    Counter { next: Word, step: Word },
    /// Repeats `values` forever.
    Cycle { values: Vec<Word>, pos: usize },
    /// Constant value.
    Constant(Word),
    /// Deterministic pseudo-random stream (LCG, full 32-bit state).
    Lcg { state: u32 },
}

impl ValueGen {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Word {
        match self {
            ValueGen::Counter { next, step } => {
                let v = *next;
                *next = next.wrapping_add(*step);
                v
            }
            ValueGen::Cycle { values, pos } => {
                let v = values[*pos % values.len()];
                *pos += 1;
                v
            }
            ValueGen::Constant(v) => *v,
            ValueGen::Lcg { state } => {
                // Numerical Recipes LCG: deterministic and fast.
                *state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *state
            }
        }
    }
}

/// Feeds tokens into a boundary link at a fixed rate.
#[derive(Debug, Clone)]
pub struct EnvSource {
    /// Module-level input connection this source drives.
    pub conn: ConnId,
    /// One token every `period` cycles (>= 1).
    pub period: u32,
    /// Stop after this many tokens (None = unbounded).
    pub limit: Option<u64>,
    pub produced: u64,
    pub gen: ValueGen,
    /// Cycles to wait before the first token.
    pub start_at: u64,
    /// Every value ever emitted, in emission order. The environment is
    /// outside the deterministic machine, so time travel must *replay*
    /// recorded inputs rather than pull fresh ones (the list is append-only
    /// and shared by all timelines — rewinding `produced` re-serves it).
    pub recorded: Vec<Word>,
    /// Test-only nondeterminism seed: always pull fresh values and refuse
    /// to rewind the generator, modelling an un-rewindable environment.
    /// Replays then diverge, which the REPLAY501 check must catch.
    pub re_pull: bool,
}

impl EnvSource {
    pub fn new(conn: ConnId, period: u32, gen: ValueGen) -> Self {
        assert!(period >= 1);
        EnvSource {
            conn,
            period,
            limit: None,
            produced: 0,
            gen,
            start_at: 0,
            recorded: Vec::new(),
            re_pull: false,
        }
    }

    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    pub fn with_start(mut self, start_at: u64) -> Self {
        self.start_at = start_at;
        self
    }

    /// Test-only: disable record/replay (see [`EnvSource::re_pull`]).
    pub fn with_re_pull(mut self) -> Self {
        self.re_pull = true;
        self
    }

    /// The value of emission number `produced`. Always advances the
    /// generator (keeping it in lock-step with the emission count), but
    /// serves the recorded value when this emission already happened on a
    /// previous timeline.
    pub fn pull(&mut self) -> Word {
        let fresh = self.gen.next();
        if self.re_pull {
            return fresh;
        }
        let idx = self.produced as usize;
        if let Some(&v) = self.recorded.get(idx) {
            return v;
        }
        debug_assert_eq!(idx, self.recorded.len());
        self.recorded.push(fresh);
        fresh
    }

    /// Time travel: `self`, this source as a checkpoint recorded it, is
    /// about to replace `live`. The recording is append-only and shared
    /// by every timeline, so `live`'s (the longer one) moves across, and
    /// the checkpoint's `produced` re-serves it. A `re_pull` source models
    /// an environment that cannot rewind, so it keeps `live`'s generator.
    pub fn adopt_environment(&mut self, live: &mut EnvSource) {
        std::mem::swap(&mut self.recorded, &mut live.recorded);
        if self.re_pull {
            std::mem::swap(&mut self.gen, &mut live.gen);
        }
    }

    /// Should this source emit at `clock`? (The runtime also checks link
    /// space; a full link postpones the token, preserving order.)
    pub fn due(&self, clock: u64) -> bool {
        self.next_due().is_some_and(|d| clock >= d)
    }

    /// The first cycle at which the next token is due: one whole period
    /// per token already produced after `start_at`. `None` once the
    /// limit is reached.
    pub fn next_due(&self) -> Option<u64> {
        if self.limit.is_some_and(|l| self.produced >= l) {
            return None;
        }
        let periods = self.produced.saturating_mul(u64::from(self.period));
        Some(self.start_at.saturating_add(periods))
    }
}

/// Drains tokens from a boundary link, recording a bounded tail of values
/// plus aggregate statistics for output validation.
#[derive(Debug, Clone)]
pub struct EnvSink {
    /// Module-level output connection this sink drains.
    pub conn: ConnId,
    /// Pop at most one token every `period` cycles.
    pub period: u32,
    pub consumed: u64,
    /// Wrapping checksum of the first word of every token.
    pub checksum: u64,
    /// Most recent values (bounded ring).
    pub tail: Vec<Word>,
    pub tail_cap: usize,
}

impl EnvSink {
    pub fn new(conn: ConnId, period: u32) -> Self {
        assert!(period >= 1);
        EnvSink {
            conn,
            period,
            consumed: 0,
            checksum: 0,
            tail: Vec::new(),
            tail_cap: 64,
        }
    }

    pub fn due(&self, clock: u64) -> bool {
        clock >= self.next_due()
    }

    /// The first cycle at which the next pop is due: one whole period per
    /// token already consumed.
    pub fn next_due(&self) -> u64 {
        self.consumed.saturating_mul(u64::from(self.period))
    }

    pub fn record(&mut self, head_word: Word) {
        self.consumed += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(31)
            .wrapping_add(u64::from(head_word));
        if self.tail.len() == self.tail_cap {
            self.tail.remove(0);
        }
        self.tail.push(head_word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_cycle_generators() {
        let mut g = ValueGen::Counter { next: 5, step: 5 };
        assert_eq!([g.next(), g.next(), g.next()], [5, 10, 15]);
        let mut c = ValueGen::Cycle {
            values: vec![1, 2],
            pos: 0,
        };
        assert_eq!([c.next(), c.next(), c.next()], [1, 2, 1]);
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = ValueGen::Lcg { state: 42 };
        let mut b = ValueGen::Lcg { state: 42 };
        for _ in 0..10 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn source_rate_and_limit() {
        let mut s = EnvSource::new(ConnId(0), 3, ValueGen::Constant(1)).with_limit(2);
        // clock 0: first token due
        assert!(s.due(0));
        s.produced += 1;
        assert!(!s.due(0));
        assert!(!s.due(2));
        assert!(s.due(3));
        s.produced += 1;
        // limit reached
        assert!(!s.due(100));
    }

    #[test]
    fn source_start_offset() {
        let s = EnvSource::new(ConnId(0), 1, ValueGen::Constant(0)).with_start(10);
        assert!(!s.due(9));
        assert!(s.due(10));
    }

    #[test]
    fn source_catches_up_after_full_link() {
        // If the link was full for a while, `due` stays true so the source
        // backfills at one token per cycle.
        let mut s = EnvSource::new(ConnId(0), 2, ValueGen::Constant(0));
        assert!(s.due(9)); // 5 tokens owed by clock 9, none produced
        s.produced = 4;
        assert!(s.due(9));
        s.produced = 5;
        assert!(!s.due(9));
    }

    /// Time travel as the replay engine does it: the checkpoint's copy
    /// replaces the live source, carrying the environment across.
    fn rewind(live: &mut EnvSource, checkpoint: &EnvSource) {
        let mut restored = checkpoint.clone();
        restored.adopt_environment(live);
        *live = restored;
    }

    #[test]
    fn source_replays_recorded_values_after_rewind() {
        let mut s = EnvSource::new(ConnId(0), 1, ValueGen::Lcg { state: 7 });
        let snap = s.clone();
        let mut first = Vec::new();
        for _ in 0..5 {
            first.push(s.pull());
            s.produced += 1;
        }
        // Rewind to the start and replay: identical values, even though the
        // generator was advanced past them.
        rewind(&mut s, &snap);
        for v in &first {
            assert_eq!(s.pull(), *v);
            s.produced += 1;
        }
        // Continuing past the recording stays on the original sequence.
        let a = s.pull();
        s.produced += 1;
        rewind(&mut s, &snap);
        for _ in 0..5 {
            s.pull();
            s.produced += 1;
        }
        assert_eq!(s.pull(), a, "6th value must match across timelines");
        assert_eq!(s.recorded.len(), 6, "one recording across timelines");
    }

    #[test]
    fn re_pull_source_diverges_on_replay() {
        let mut s = EnvSource::new(ConnId(0), 1, ValueGen::Lcg { state: 7 }).with_re_pull();
        let snap = s.clone();
        let first = s.pull();
        s.produced += 1;
        rewind(&mut s, &snap); // generator NOT rewound: environment moved on
        assert_eq!(s.produced, 0);
        let replayed = s.pull();
        assert_ne!(first, replayed, "re-pull must not reproduce history");
    }

    #[test]
    fn sink_state_round_trips() {
        let mut k = EnvSink::new(ConnId(1), 1);
        k.record(7);
        let snap = k.clone();
        k.record(8);
        k.record(9);
        // Nothing of a sink outlives its timeline: a restore is the
        // checkpoint's copy, whole.
        k = snap;
        assert_eq!(k.consumed, 1);
        assert_eq!(k.checksum, 7);
        assert_eq!(k.tail, vec![7]);
    }

    #[test]
    fn sink_checksum_and_tail() {
        let mut k = EnvSink::new(ConnId(1), 1);
        k.tail_cap = 2;
        for v in [7, 8, 9] {
            k.record(v);
        }
        assert_eq!(k.consumed, 3);
        assert_eq!(k.tail, vec![8, 9]);
        let expect = ((7u64 * 31) + 8) * 31 + 9;
        assert_eq!(k.checksum, expect);
    }
}
