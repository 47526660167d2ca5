//! Time-travel debugging: deterministic checkpoint/replay with reverse
//! execution over the H.264 case study (the `replay` crate driven through
//! `Session`).
//!
//! The headline scenario is the paper's §III deadlock: reach the blocked
//! state, *then* install a catchpoint on `red::red_ipred_out` and
//! `reverse-continue` back to the last firing that produced a residual
//! token — finally asking `token origin` for the producing source line.

use dfdbg::{DfStop, Session, Stop};
use h264_pipeline::{build_decoder, Bug};
use p2012::PlatformConfig;

fn attach_env_via_model(session: &mut Session, n_mbs: u64, seed: u32, re_pull: bool) {
    let g = &session.model.graph;
    let decoder = g.actor_by_name("decoder").expect("root module");
    let find = |name: &str| {
        g.conn_by_name(decoder.id, name)
            .unwrap_or_else(|| panic!("boundary conn {name}"))
            .id
    };
    let bits = find("bits_in");
    let cfg = find("cfg_in");
    let frame = find("frame_out");
    let mut bits_src =
        pedf::EnvSource::new(bits, 2, pedf::ValueGen::Lcg { state: seed }).with_limit(n_mbs);
    if re_pull {
        bits_src = bits_src.with_re_pull();
    }
    session.sys.runtime.add_source(bits_src).unwrap();
    session
        .sys
        .runtime
        .add_source(
            pedf::EnvSource::new(cfg, 2, pedf::ValueGen::Counter { next: 0, step: 1 })
                .with_limit(n_mbs),
        )
        .unwrap();
    session
        .sys
        .runtime
        .add_sink(pedf::EnvSink::new(frame, 1))
        .unwrap();
}

fn session_with(bug: Bug, n_mbs: u64, seed: u32) -> Session {
    let (sys, app) = build_decoder(bug, n_mbs, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let mut session = Session::attach(sys, app.info);
    session.boot(boot).expect("boot under debugger");
    attach_env_via_model(&mut session, n_mbs, seed, false);
    session
}

fn run_to_terminal(s: &mut Session) -> Stop {
    loop {
        if let stop @ (Stop::Deadlock | Stop::Quiescent | Stop::CycleLimit) = s.run(10_000_000) {
            return stop;
        }
    }
}

// ---- checkpoint / restart ----------------------------------------------------

#[test]
fn restart_restores_the_exact_state() {
    let mut s = session_with(Bug::None, 6, 0xbeef);
    s.enable_time_travel(1_000);
    while s.sys.clock() < 800 {
        s.run(800 - s.sys.clock());
    }
    let cp = s.checkpoint_now().unwrap();
    let mark_clock = s.sys.clock();
    let mark_hash = s.state_hash();

    run_to_terminal(&mut s);
    assert!(s.sys.clock() > mark_clock);
    assert_ne!(s.state_hash(), mark_hash);

    let clock = s.restart(cp).unwrap();
    assert_eq!(clock, mark_clock);
    assert_eq!(s.state_hash(), mark_hash, "restart is bit-exact");
}

#[test]
fn goto_cycle_lands_exactly_and_is_deterministic() {
    let mut s = session_with(Bug::None, 6, 0xbeef);
    s.enable_time_travel(500);
    run_to_terminal(&mut s);
    let end_clock = s.sys.clock();
    let end_hash = s.state_hash();

    // Sample a mid-run cycle twice; both visits must agree bit-for-bit.
    let mid = end_clock / 2;
    s.goto_cycle(mid).unwrap();
    assert_eq!(s.sys.clock(), mid);
    let h1 = s.state_hash();
    s.goto_cycle(end_clock).unwrap();
    s.goto_cycle(mid).unwrap();
    assert_eq!(s.state_hash(), h1, "same cycle, same state");

    // And replaying to the end reproduces the original final state.
    s.goto_cycle(end_clock).unwrap();
    assert_eq!(s.state_hash(), end_hash);
    assert!(s.replay_findings().is_empty(), "{:?}", s.replay_findings());
}

/// `goto` past the end of the program stops at the end with an error
/// instead of ticking the finished machine forward, and records nothing
/// beyond it; the end itself stays reachable.
#[test]
fn goto_past_the_end_of_the_program_is_an_error() {
    let mut reference = session_with(Bug::None, 4, 0xbeef);
    reference.checkpoint_now().unwrap();
    assert_eq!(run_to_terminal(&mut reference), Stop::Quiescent);
    let end = reference.sys.clock();

    let mut s = session_with(Bug::None, 4, 0xbeef);
    s.checkpoint_now().unwrap();
    let err = s.goto_cycle(20_000_000).unwrap_err();
    assert!(err.contains(&format!("finished at cycle {end}")), "{err}");
    assert_eq!(s.sys.clock(), end);
    assert_eq!(
        s.checkpoint_footprint(),
        reference.checkpoint_footprint(),
        "goto recorded checkpoints past the end of the program"
    );
    s.goto_cycle(end).unwrap();
    assert_eq!(s.sys.clock(), end);
    assert_eq!(s.state_hash(), reference.state_hash());
}

// ---- watchpoints across time travel -----------------------------------------

/// Watchpoints are the user's, not recorded history: like GDB's, they
/// survive time travel. One installed after a checkpoint still fires
/// after `restart` to it, one removed after the checkpoint stays removed,
/// and a hit left pending on the abandoned timeline never surfaces.
#[test]
fn watchpoints_survive_restart_and_abandoned_hits_do_not() {
    let mut s = session_with(Bug::None, 6, 0xbeef);
    s.enable_time_travel(500);
    let removed = s.watch_object("RedFilter_data_mb_count").unwrap();
    let addr = match s.run(2_000_000) {
        Stop::Watchpoint { id, addr, .. } => {
            assert_eq!(id, removed);
            addr
        }
        other => panic!("{other:?}"),
    };
    let cp = s.checkpoint_now().unwrap();
    let cp_clock = s.sys.clock();
    assert!(s.remove_watchpoint(removed));
    let kept = s.watch_object("RedFilter_data_mb_count").unwrap();

    let next = s.run(2_000_000);
    let next_clock = s.sys.clock();
    assert!(
        matches!(next, Stop::Watchpoint { id, old: 1, new: 2, .. } if id == kept),
        "{next:?}"
    );
    // A hit this timeline never delivers.
    s.sys.platform.mem.write(addr, 0xdead).unwrap();
    assert!(s.sys.platform.mem.has_hits());

    assert_eq!(s.restart(cp).unwrap(), cp_clock);
    assert!(!s.sys.platform.mem.has_hits(), "abandoned hit survived");
    assert_eq!(
        s.run(2_000_000),
        next,
        "only the live watch fires, as before"
    );
    assert_eq!(s.sys.clock(), next_clock);
    assert_eq!(s.watchpoints().len(), 1);
    assert!(s.replay_findings().is_empty(), "{:?}", s.replay_findings());
}

// ---- the §III deadlock, backwards -------------------------------------------

#[test]
fn reverse_continue_finds_the_last_red_firing_from_the_blocked_state() {
    // Reference forward run: catch every send on red::red_ipred_out and
    // remember where the last one fired before the deadlock.
    let mut fwd = session_with(Bug::Deadlock, 8, 0xbeef);
    fwd.enable_time_travel(500);
    fwd.catch_iface_send("red::red_ipred_out").unwrap();
    let mut last_send_cycle = 0;
    let mut sends = 0u32;
    loop {
        match fwd.run(3_000_000) {
            Stop::Dataflow(DfStop::TokenSent { .. }) => {
                last_send_cycle = fwd.sys.clock();
                sends += 1;
            }
            Stop::Deadlock => break,
            other => panic!("unexpected stop {other:?}"),
        }
    }
    assert!(sends > 0 && last_send_cycle > 0);

    // The debugging session of §III: reach the blocked state with no
    // catchpoints installed, then travel back to the culprit firing.
    let mut s = session_with(Bug::Deadlock, 8, 0xbeef);
    s.enable_time_travel(500);
    assert_eq!(s.run(3_000_000), Stop::Deadlock);
    let blocked_at = s.sys.clock();

    s.catch_iface_send("red::red_ipred_out").unwrap();
    let stop = s.reverse_continue().unwrap();
    let red_out = s.conn_named("red::red_ipred_out").unwrap();
    let tok = match stop {
        Stop::Dataflow(DfStop::TokenSent { conn, token, .. }) => {
            assert_eq!(conn, red_out, "landed on the watched interface");
            token
        }
        other => panic!("expected a send catchpoint hit, got {other:?}"),
    };
    assert_eq!(
        s.sys.clock(),
        last_send_cycle,
        "landed on the LAST firing before the deadlock"
    );
    assert!(s.sys.clock() < blocked_at);

    // `token origin` pins the producing source line in red.c.
    let origin = s.token_origin(tok).unwrap();
    assert!(origin.contains(".red'"), "{origin}");
    assert!(origin.contains("red.c:9"), "{origin}");
    assert!(s.replay_findings().is_empty(), "{:?}", s.replay_findings());
}

#[test]
fn reverse_continue_walks_across_checkpoint_windows() {
    // bh sends one token per macroblock, so with a tiny checkpoint
    // interval the send cycles spread across many windows and repeated
    // reverse-continues must walk them, not just the nearest one.
    let mut fwd = session_with(Bug::None, 6, 0xbeef);
    fwd.enable_time_travel(50);
    fwd.catch_iface_send("bh::red_out").unwrap();
    let mut send_cycles = Vec::new();
    loop {
        match fwd.run(10_000_000) {
            Stop::Dataflow(DfStop::TokenSent { .. }) => send_cycles.push(fwd.sys.clock()),
            Stop::Quiescent => break,
            other => panic!("unexpected stop {other:?}"),
        }
    }
    assert!(send_cycles.len() >= 3, "{send_cycles:?}");

    // Second session: run to the end with nothing installed, then walk
    // backwards through every recorded send, newest first.
    let mut s = session_with(Bug::None, 6, 0xbeef);
    s.enable_time_travel(50);
    run_to_terminal(&mut s);
    s.catch_iface_send("bh::red_out").unwrap();
    for (i, expect) in send_cycles.iter().rev().take(3).enumerate() {
        let stop = s.reverse_continue().unwrap();
        assert!(
            matches!(stop, Stop::Dataflow(DfStop::TokenSent { .. })),
            "hit {i}: {stop:?}"
        );
        assert_eq!(
            s.sys.clock(),
            *expect,
            "hit {i} lands on the recorded cycle"
        );
    }
}

// ---- reverse stepping --------------------------------------------------------

#[test]
fn reverse_stepi_undoes_one_instruction() {
    let mut s = session_with(Bug::None, 6, 0xbeef);
    s.enable_time_travel(500);
    s.break_line("ipred.c", 9).unwrap();
    let stop = s.run(1_000_000);
    assert!(matches!(stop, Stop::Breakpoint { .. }), "{stop:?}");
    let pe = match stop {
        Stop::Breakpoint { pe, .. } => pe,
        _ => unreachable!(),
    };
    let r0 = s.sys.platform.pes[pe.index()].retired;
    let clock0 = s.sys.clock();

    s.reverse_stepi().unwrap();
    let r1 = s.sys.platform.pes[pe.index()].retired;
    assert!(s.sys.clock() < clock0);
    assert_eq!(r1, r0 - 1, "exactly one instruction undone");
}

#[test]
fn reverse_step_returns_to_the_previous_source_line() {
    let mut s = session_with(Bug::None, 6, 0xbeef);
    s.enable_time_travel(500);
    s.break_line("ipred.c", 9).unwrap();
    let stop = s.run(1_000_000);
    let pe = match stop {
        Stop::Breakpoint { pe, .. } => pe,
        other => panic!("{other:?}"),
    };
    let frame0 = s.where_is(pe);

    s.reverse_step().unwrap();
    let frame1 = s.where_is(pe);
    assert_ne!(frame0, frame1, "moved to a different source line");

    // Stepping forward again crosses a line boundary cleanly.
    let stop = s.step().unwrap();
    assert!(matches!(stop, Stop::StepDone { .. }), "{stop:?}");
}

// ---- divergence detection, both directions -----------------------------------

#[test]
fn clean_replays_never_report_divergence() {
    for bug in [Bug::None, Bug::Deadlock, Bug::SharedScratch] {
        let mut s = session_with(bug, 6, 0xbeef);
        let base = s.enable_time_travel(300);
        run_to_terminal(&mut s);
        let end = s.sys.clock();
        let end_hash = s.state_hash();
        // Replay the whole run from the baseline, re-verifying the hash
        // chain at every recorded boundary.
        s.restart(base).unwrap();
        while s.sys.clock() < end {
            s.run(end - s.sys.clock());
        }
        assert_eq!(s.state_hash(), end_hash, "{bug:?}: replay is bit-exact");
        assert!(
            s.replay_findings().is_empty(),
            "{bug:?}: {:?}",
            s.replay_findings()
        );
    }
}

#[test]
fn re_pulled_env_source_is_caught_as_replay501() {
    // A source that re-draws fresh values on replay instead of serving the
    // recorded ones models a non-deterministic environment; the streaming
    // boundary hashes must catch it.
    let (sys, app) = build_decoder(Bug::None, 6, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let mut s = Session::attach(sys, app.info);
    s.boot(boot).unwrap();
    attach_env_via_model(&mut s, 6, 0xbeef, true);
    let base = s.enable_time_travel(300);
    run_to_terminal(&mut s);
    let end = s.sys.clock();

    // Replay from the baseline: the fresh draws diverge from the record
    // and the very first boundary crossed must flag it.
    s.restart(base).unwrap();
    while s.sys.clock() < end {
        s.run(end - s.sys.clock());
    }

    let findings = s.replay_findings();
    assert!(!findings.is_empty(), "divergence went undetected");
    assert!(findings.iter().all(|f| f.rule == replay::RULE_DIVERGENCE));
    assert!(
        findings[0].message.contains("cycle"),
        "{}",
        findings[0].message
    );
}
