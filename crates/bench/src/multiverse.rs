//! E11 — the multiverse exploration engine as an experiment: universes
//! per second, time-to-witness for the two seeded schedule-dependent
//! bugs, and what the DPOR-style pruning actually buys.
//!
//! Three measured rows:
//!
//! * `deadlock` — the §III decoder deadlock. Its default schedule already
//!   wedges, so exploration terminates on the trivial (empty-trace)
//!   witness after the reference universe: time-to-witness is the cost of
//!   one instrumented run.
//! * `race` — the seeded `SharedScratch` race, hunted with the full
//!   optimized search (sleep sets + equivalence pruning).
//! * `race-noprune` — the same hunt with both pruning mechanisms off:
//!   the denominator of the pruning-ratio column.
//!
//! Every serialized field (witness string, universe counts, decision
//! points) is a deterministic simulation quantity, so `BENCH_E11.json`
//! is byte-stable across runs and machines; wall-clock figures
//! (universes/sec, time-to-witness in ms) are printed but never written.

use std::time::{Duration, Instant};

use h264_pipeline::Bug;
use server::session::build_app;

/// Decoder size every E11 row explores at — small enough that a row is a
/// sub-second affair, big enough that the §III bugs manifest.
pub const E11_N_MBS: u64 = 4;

/// One measured exploration row.
#[derive(Debug, Clone)]
pub struct ExploreRow {
    /// Row label (`deadlock`, `race`, `race-noprune`).
    pub label: String,
    /// What the search hunted (engine `Until` label).
    pub until: String,
    /// Whether sleep sets + equivalence pruning were on.
    pub optimized: bool,
    /// The witness found (string form), if any.
    pub witness: Option<String>,
    /// Overrides in the witness (0 = default schedule fails by itself).
    pub witness_overrides: usize,
    pub stats: multiverse::ExploreStats,
    pub space_covered: bool,
    /// Wall time of the whole exploration (reporting only).
    pub wall: Duration,
}

impl ExploreRow {
    pub fn universes_per_sec(&self) -> f64 {
        self.stats.universes_explored as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Build the variant fresh (uncached — E11 measures the search, not the
/// attach path), derive the RACE401 watch sites exactly as the `explore`
/// command does, and run one exploration.
fn explore_variant(
    label: &str,
    bug: Bug,
    until: multiverse::Until,
    optimized: bool,
) -> Result<ExploreRow, String> {
    let (app, mut session) = build_app(bug, E11_N_MBS)?;
    let bcv_rep = bcv::verify(&bcv::AnalysisInput::from_app(&app));
    let race_sites = dfdbg::race_watch_sites(&app.graph, &bcv_rep.race_sites);
    let cfg = multiverse::ExploreConfig {
        until,
        sleep_sets: optimized,
        prune_equivalent: optimized,
        race_sites,
        anchor: session.state_hash(),
        ..Default::default()
    };
    let root = session.sys.fork();
    let t0 = Instant::now();
    let report = multiverse::explore(root, &cfg);
    let wall = t0.elapsed();
    Ok(ExploreRow {
        label: label.to_string(),
        until: until.label().to_string(),
        optimized,
        witness: report.witness.as_ref().map(|w| w.to_string()),
        witness_overrides: report.witness.as_ref().map_or(0, |w| w.overrides.len()),
        stats: report.stats,
        space_covered: report.space_covered,
        wall,
    })
}

/// Run the three E11 rows. Deterministic apart from the `wall` fields.
pub fn explore_study() -> Result<Vec<ExploreRow>, String> {
    Ok(vec![
        explore_variant("deadlock", Bug::Deadlock, multiverse::Until::Deadlock, true)?,
        explore_variant("race", Bug::SharedScratch, multiverse::Until::Race, true)?,
        explore_variant(
            "race-noprune",
            Bug::SharedScratch,
            multiverse::Until::Race,
            false,
        )?,
    ])
}

/// Universes the unpruned hunt ran for every universe the optimized hunt
/// ran — the headline DPOR number (1.0 = pruning bought nothing).
pub fn pruning_ratio(rows: &[ExploreRow]) -> f64 {
    let fast = rows
        .iter()
        .find(|r| r.label == "race")
        .map_or(0, |r| r.stats.universes_explored);
    let brute = rows
        .iter()
        .find(|r| r.label == "race-noprune")
        .map_or(0, |r| r.stats.universes_explored);
    if fast == 0 {
        return 0.0;
    }
    brute as f64 / fast as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E11 rows are the deterministic surface `BENCH_E11.json` is
    /// diffed on: two runs must agree on every serialized field, the two
    /// seeded bugs must be witnessed, and pruning must actually prune.
    #[test]
    fn explore_rows_are_deterministic_and_witness_the_seeded_bugs() {
        let a = explore_study().expect("study runs");
        let b = explore_study().expect("study runs again");
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.witness, y.witness, "row {}: witness drifted", x.label);
            assert_eq!(x.stats, y.stats, "row {}: stats drifted", x.label);
            assert_eq!(x.space_covered, y.space_covered);
        }
        assert!(
            a[0].witness.as_deref().is_some_and(|w| w.contains("MV701")),
            "deadlock row must witness MV701: {:?}",
            a[0].witness
        );
        assert!(
            a[1].witness.as_deref().is_some_and(|w| w.contains("MV702")),
            "race row must witness MV702: {:?}",
            a[1].witness
        );
        assert!(
            pruning_ratio(&a) >= 1.0,
            "optimized search ran more universes than brute force"
        );
    }
}
