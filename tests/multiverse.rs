//! Multiverse exploration: determinism, witness minimality, replay
//! round-trips, and the bounded refutation of a data-dependent false
//! positive — all through the textual front end, on the case-study
//! decoder variants the `analyze --witness-check` CI gate uses.

use dataflow_debugger::multiverse;
use h264_pipeline::Bug;
use server::session::build_cli;

/// Two independent explorations of the same machine must produce
/// byte-identical transcripts and witnesses: the search is part of the
/// deterministic surface (CI diffs remote vs. local transcripts).
#[test]
fn explore_transcript_is_byte_deterministic() {
    let mut a = build_cli(Bug::SharedScratch, 4).unwrap();
    let mut b = build_cli(Bug::SharedScratch, 4).unwrap();
    let ta = a.exec("explore --until race");
    let tb = b.exec("explore --until race");
    assert_eq!(ta, tb, "explore transcript not deterministic");
    assert!(ta.contains("summary: forked="), "{ta}");
    let wa = a.session.last_explore.as_ref().unwrap().witness.clone();
    let wb = b.session.last_explore.as_ref().unwrap().witness.clone();
    assert_eq!(
        wa.as_ref().map(ToString::to_string),
        wb.as_ref().map(ToString::to_string)
    );
}

/// The seeded shared-scratch race yields a *minimal* (single-override,
/// BFS finds depth-1 first) MV702 witness whose replay in a fresh
/// session of the same build lands exactly at the failure cycle, with
/// time travel live for post-mortem navigation.
#[test]
fn race_witness_is_minimal_and_replays_to_the_failure_cycle() {
    let mut a = build_cli(Bug::SharedScratch, 4).unwrap();
    let out = a.exec("explore --until race");
    assert!(out.contains("WITNESS MV702"), "{out}");
    let w = a
        .session
        .last_explore
        .as_ref()
        .unwrap()
        .witness
        .clone()
        .expect("race variant must witness");
    assert_eq!(w.rule, multiverse::rules::WITNESSED_RACE);
    assert_eq!(w.overrides.len(), 1, "BFS must find a depth-1 witness");
    assert!(
        w.blame.contains("access order flipped"),
        "blame: {}",
        w.blame
    );

    // Fresh session, same variant: anchor matches, replay lands on-cycle.
    let mut c = build_cli(Bug::SharedScratch, 4).unwrap();
    let out = c.exec(&format!("explore replay {w}"));
    assert!(out.contains("witnessed rule: MV702"), "{out}");
    assert_eq!(c.session.clock(), w.failure_cycle);
    // The replay enabled time travel: the failure cycle is navigable.
    let out = c.exec(&format!("goto {}", w.failure_cycle));
    assert!(!out.starts_with("error"), "{out}");
}

/// The rate-mismatch deadlock is witnessed (the reference schedule
/// itself wedges, so the witness is the empty choice trace) and its
/// replay drives a fresh session into the deadlock stop.
#[test]
fn deadlock_witness_replays_into_the_wedge() {
    let mut a = build_cli(Bug::Deadlock, 4).unwrap();
    let out = a.exec("explore --until deadlock");
    assert!(out.contains("MV701"), "{out}");
    let w = a
        .session
        .last_explore
        .as_ref()
        .unwrap()
        .witness
        .clone()
        .expect("deadlock variant must witness");
    assert_eq!(w.rule, multiverse::rules::WITNESSED_DEADLOCK);
    assert!(w.blame.contains("awaits tokens"), "blame: {}", w.blame);

    let mut f = build_cli(Bug::Deadlock, 4).unwrap();
    let out = f.exec(&format!("explore replay {w}"));
    assert!(out.contains("Deadlock"), "{out}");
    assert!(f.session.sys.platform.is_deadlocked());
}

/// `benign` carries the *same* static RACE401 as the race variant (same
/// write/read pair on the shared word) but multiplies the loaded value
/// away — dynamically immune. Exploration must refute it: no witness
/// within the budget, reported as a bounded refutation.
#[test]
fn data_dependent_false_positive_is_refuted() {
    let mut d = build_cli(Bug::BenignScratch, 4).unwrap();
    let out = d.exec("explore --budget 40 --until race");
    assert!(
        out.contains("no divergence witnessed: budget exhausted"),
        "{out}"
    );
    let rep = d.session.last_explore.as_ref().unwrap();
    assert!(rep.witness.is_none());
    assert_eq!(rep.stats.witnesses_found, 0);
    assert_eq!(rep.stats.universes_explored, 40);
    // The pooled snapshots hold pages apart from the root: the pool's peak
    // counts them.
    assert!(rep.stats.peak_pool_bytes > 0, "{:?}", rep.stats);
}

/// A witness is anchored to the state hash of the machine it was found
/// on; replaying it on a different build must be refused, not silently
/// produce nonsense.
#[test]
fn replay_refuses_a_foreign_anchor() {
    let mut a = build_cli(Bug::SharedScratch, 4).unwrap();
    a.exec("explore --until race");
    let w = a
        .session
        .last_explore
        .as_ref()
        .unwrap()
        .witness
        .clone()
        .unwrap();
    let mut d = build_cli(Bug::BenignScratch, 4).unwrap();
    let out = d.exec(&format!("explore replay {w}"));
    assert!(
        out.contains("anchor"),
        "bad-anchor replay not refused: {out}"
    );
}

/// Flag parsing: budget floor, malformed witnesses and unknown modes
/// produce errors instead of silent defaults.
#[test]
fn explore_argument_errors_are_reported() {
    let mut c = build_cli(Bug::None, 2).unwrap();
    assert!(c.exec("explore --budget 0").contains("error"));
    assert!(c.exec("explore --until nonsense").contains("error"));
    assert!(c.exec("explore replay not-a-witness").contains("error"));
    // `--until finding <RULE>` maps registered rules onto a search mode.
    let out = c.exec("explore --budget 2 --until finding RACE401");
    assert!(out.contains("until=race"), "{out}");
}

/// The benign hunt the `explore` benchmark runs, at three pool sizes: 0
/// (every universe forks from the root), the default 8 and more than
/// the hunt ever pools. Where a universe forks from must not change what
/// it observes, so the per-universe lines and the stats agree, apart
/// from the pool's peak size and the cycles the forks saved.
#[test]
fn universes_classify_alike_at_every_pool_size() {
    let mut cli = build_cli(Bug::BenignScratch, 4).unwrap();
    cli.exec("analyze");
    let session = &mut cli.session;
    let race_sites = dataflow_debugger::dfdbg::race_watch_sites(
        &session.sys.runtime.graph,
        &session.last_bcv.as_ref().unwrap().race_sites,
    );
    assert!(!race_sites.is_empty());
    let mut hunt = |pool_max: usize| {
        let cfg = multiverse::ExploreConfig {
            until: multiverse::Until::Race,
            budget: 5000,
            horizon: 200_000,
            race_sites: race_sites.clone(),
            pool_max,
            ..Default::default()
        };
        let mut report = multiverse::explore(session.sys.fork(), &cfg);
        report.stats.peak_pool_bytes = 0;
        report.stats.cycles_stepped = 0;
        let summary = report.transcript.pop().unwrap();
        let summary = summary.split(" pool-peak=").next().unwrap().to_string();
        (report.transcript, summary, report.stats)
    };
    let from_root = hunt(0);
    assert!(from_root.2.universes_pruned > 0, "{:?}", from_root.2);
    for pool_max in [8, 1000] {
        let pooled = hunt(pool_max);
        assert_eq!(pooled.0, from_root.0, "pool_max {pool_max}: universe lines");
        assert_eq!(pooled.1, from_root.1, "pool_max {pool_max}: summary");
        assert_eq!(pooled.2, from_root.2, "pool_max {pool_max}: stats");
    }
}
