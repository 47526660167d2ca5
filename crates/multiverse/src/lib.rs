//! Multiverse exploration engine (ROADMAP 5, after the MIO
//! multiverse-debugging model).
//!
//! The cycle-stepped simulator makes execution a pure function of
//! scheduler choices, reified by [`pedf::SchedulePolicy`] as numbered
//! decision points. This crate searches that choice space: it forks cheap
//! copy-on-write universes ([`pedf::System::fork`]) from a bounded,
//! LRU-evicted pool of ancestor snapshots, runs each universe under a
//! sparse set of choice *overrides*, and classifies the outcome against
//! the default-schedule reference universe.
//!
//! A universe is identified by its override set, so every result is
//! byte-replayable: install the same overrides in a live session and run.
//! The search is breadth-first by override count, which makes the first
//! witness found *minimal* (fewest scheduling perturbations). DPOR-style
//! sleep sets prune two classes of redundant universes: elections whose
//! actor cannot touch a watched racy address (independent transitions
//! when hunting a race), and universes whose observable signature is
//! identical to the reference (the perturbation commuted with every
//! conflicting access, so deeper extensions explore the same trace).
//! State matching stops a universe early: once its overrides are consumed,
//! a universe whose whole machine state equals the reference run's at one
//! of the reference's periodic forks runs the reference's future from
//! there, so its signature is completed from the reference's instead of
//! simulated.
//!
//! Outcomes witnessed dynamically:
//! * **deadlock** (MV701) — every actor blocked, no DMA in flight, no
//!   instruction retired: the machine needs external action;
//! * **wedge/starvation** (MV701) — a filter stops making steps while the
//!   rest of the app runs, its PE parked in `TokenWait`/`SpaceWait`;
//! * **race** (MV702) — the order of conflicting accesses to a statically
//!   reported shared word flips *and* the observable output (console +
//!   sink checksums) diverges from the reference;
//! * **budget exhausted** (MV703) — no divergence found within budget;
//!   only a *bounded* refutation, reported as such.

mod engine;
mod witness;

pub use engine::{explore, ExploreConfig, ExploreReport, ExploreStats, Outcome, RaceSite, Until};
pub use witness::Witness;

/// Rule ids this engine emits (registered in `debuginfo::registry`).
pub mod rules {
    /// A schedule was found under which the application deadlocks or
    /// wedges; the witness choice trace replays it.
    pub const WITNESSED_DEADLOCK: &str = "MV701";
    /// A schedule was found that flips the order of statically racy
    /// accesses and changes the observable output.
    pub const WITNESSED_RACE: &str = "MV702";
    /// Exploration exhausted its universe budget without a witness — a
    /// bounded refutation, not a proof of absence.
    pub const BUDGET_EXHAUSTED: &str = "MV703";

    /// `(id, one-line summary)` for every rule, in id order — kept in
    /// lock-step with `debuginfo::registry` (pinned by a drift test).
    pub const ALL: &[(&str, &str)] = &[
        (
            WITNESSED_DEADLOCK,
            "witnessed schedule deadlocks or wedges the application",
        ),
        (
            WITNESSED_RACE,
            "witnessed schedule flips a racy access order and diverges output",
        ),
        (
            BUDGET_EXHAUSTED,
            "no divergence witnessed within the exploration budget",
        ),
    ];
}

#[cfg(test)]
mod tests {
    #[test]
    fn rule_table_matches_the_registry() {
        for (id, summary) in super::rules::ALL {
            let r = debuginfo::registry::find(id)
                .unwrap_or_else(|| panic!("{id} not in debuginfo::registry"));
            assert_eq!(r.summary, *summary, "{id} drifted");
        }
    }
}
