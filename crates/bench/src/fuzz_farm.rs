//! E10 — the differential fuzz farm as an experiment: divergence rates
//! between the static analyzers and the simulator over generated apps,
//! plus the mutation self-check (a deliberately weakened DFA004 must be
//! caught and shrunk) that proves the oracles have teeth.
//!
//! Every count in the summary is a deterministic function of the seed:
//! the generator, the simulator and the shrinker are all seeded and
//! wall-clock-free, so `BENCH_E10.json` is byte-stable across runs and
//! machines. Only the wall/apps-per-second figures vary, and those are
//! printed, never serialized.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use appgen::{check_spec, generate, iter_seed, shrink};

/// Oracle directions the farm cross-checks (`appgen::oracle`), plus the
/// `BUILD` bucket for generated apps the toolchain itself rejects. Listed
/// exhaustively so the JSON artifact always carries every key, zero or not.
pub const ORACLES: &[&str] = &["BUILD", "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8"];

#[derive(Debug, Clone)]
pub struct FarmSummary {
    pub iters: u64,
    /// Total wall time (reporting only — not serialized).
    pub wall: Duration,
    /// Observed dynamic outcome label → count (completed/wedged/fault/…).
    pub outcomes: BTreeMap<String, u64>,
    /// Generated shape tag → count.
    pub shapes: BTreeMap<String, u64>,
    /// Oracle direction → divergence count; every [`ORACLES`] key present.
    pub divergences: BTreeMap<String, u64>,
    /// Links exercised by the D3 capacity squeeze (both arms).
    pub squeezed_links: u64,
    /// Apps where the D5 throughput bound applied.
    pub throughput_checks: u64,
    /// Apps that ran the D6 record→reverse→replay fixpoint.
    pub replay_checks: u64,
    /// Apps that ran the D8 explore-agreement check (maybe-race or
    /// maybe-deadlock verdicts).
    pub explore_checks: u64,
}

impl FarmSummary {
    pub fn total_divergences(&self) -> u64 {
        self.divergences.values().sum()
    }
}

/// Run `iters` generated apps through every oracle, counting divergences
/// per direction instead of stopping at the first (the CLI's job); with
/// the analyzers intact every count must be zero.
pub fn fuzz_study(iters: u64, base_seed: u64) -> FarmSummary {
    let t0 = Instant::now();
    let mut s = FarmSummary {
        iters,
        wall: Duration::ZERO,
        outcomes: BTreeMap::new(),
        shapes: BTreeMap::new(),
        divergences: ORACLES.iter().map(|o| (o.to_string(), 0)).collect(),
        squeezed_links: 0,
        throughput_checks: 0,
        replay_checks: 0,
        explore_checks: 0,
    };
    for iter in 0..iters {
        let spec = generate(iter_seed(base_seed, iter));
        *s.shapes.entry(spec.shape.clone()).or_default() += 1;
        match check_spec(&spec) {
            Ok(rep) => {
                *s.outcomes.entry(rep.observed).or_default() += 1;
                s.squeezed_links += rep.squeezed_links as u64;
                s.throughput_checks += rep.throughput_checked as u64;
                s.replay_checks += rep.replay_checked as u64;
                s.explore_checks += rep.explore_checked as u64;
            }
            Err(div) => {
                *s.divergences.entry(div.oracle.clone()).or_default() += 1;
            }
        }
    }
    s.wall = t0.elapsed();
    s
}

#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Whether the weakened rule was noticed within the budget.
    pub caught: bool,
    /// Iteration of the first divergence (0-based; meaningless if missed).
    pub caught_at: u64,
    /// Oracle direction that fired.
    pub oracle: String,
    /// Filter count of the shrunk witness.
    pub witness_filters: u64,
    /// Wall time (reporting only — not serialized).
    pub wall: Duration,
}

/// The mutation self-check: suppress DFA004 via `dfa::testhook`, fuzz
/// until an oracle notices the missing verdict, shrink the find. The
/// hook is restored before returning, caught or not.
pub fn mutation_study(max_iters: u64, base_seed: u64) -> MutationOutcome {
    let t0 = Instant::now();
    dfa::testhook::weaken_dfa004(true);
    let mut out = MutationOutcome {
        caught: false,
        caught_at: 0,
        oracle: String::new(),
        witness_filters: 0,
        wall: Duration::ZERO,
    };
    for iter in 0..max_iters {
        let spec = generate(iter_seed(base_seed, iter));
        if let Err(div) = check_spec(&spec) {
            let small = shrink(&spec, &div);
            out.caught = true;
            out.caught_at = iter;
            out.oracle = div.oracle;
            out.witness_filters = small.n_filters() as u64;
            break;
        }
    }
    dfa::testhook::weaken_dfa004(false);
    out.wall = t0.elapsed();
    out
}
