//! Time-travel debugging: deterministic checkpoint/replay with reverse
//! execution over the H.264 case study (the `replay` crate driven through
//! `Session`).
//!
//! The headline scenario is the paper's §III deadlock: reach the blocked
//! state, *then* install a catchpoint on `red::red_ipred_out` and
//! `reverse-continue` back to the last firing that produced a residual
//! token — finally asking `token origin` for the producing source line.

use dfdbg::cli::Cli;
use dfdbg::{CatchCond, DfStop, Session, Stop};
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

/// `goto T` onto the cycle of a periodic checkpoint delivers that cycle's
/// stops as a `goto T` that replays does: on an 8-macroblock decode
/// under `catch recv pipe::mc_in` (receptions at cycles 1424 and 1709),
/// `goto 1424; continue` stops next at 1709 whether a checkpoint lies at
/// 1412 (interval 200) or at 1424 itself (interval 212). `goto` onto the
/// baseline, with nothing earlier to replay from, restores it as it is.
#[test]
fn goto_onto_a_checkpoint_cycle_delivers_its_stops_like_a_replay() {
    for (interval, on_checkpoint) in [(200, false), (212, true)] {
        let mut s = session_with(Bug::None, 8, 0xbeef);
        s.enable_time_travel(interval);
        let oldest = s.sys.clock();
        s.catch_iface_receive("pipe::mc_in").unwrap();
        let stops: Vec<u64> = (0..2)
            .map(|_| {
                assert!(matches!(s.run(10_000_000), Stop::Dataflow(_)));
                s.sys.clock()
            })
            .collect();
        assert_eq!(stops, [1424, 1709]);
        assert_eq!(
            checkpoint_cycles(&s).contains(&1424),
            on_checkpoint,
            "interval {interval}: {:?}",
            checkpoint_cycles(&s)
        );
        s.goto_cycle(1424).unwrap();
        assert!(matches!(s.run(10_000_000), Stop::Dataflow(_)));
        assert_eq!(s.sys.clock(), 1709, "interval {interval}: after goto 1424");
        s.goto_cycle(oldest).unwrap();
        assert!(matches!(s.run(10_000_000), Stop::Dataflow(_)));
        assert_eq!(
            s.sys.clock(),
            1424,
            "interval {interval}: after goto {oldest}"
        );
    }
}

/// A session on the 8-macroblock decoder that stops at each end of the
/// `bh -> red` link. `red` pops a token in the cycle `bh` pushes it, so
/// the two stops fall in one cycle.
fn both_ends_session() -> Session {
    let mut s = session_with(Bug::None, 8, 0xbeef);
    s.catch_iface_send("bh::red_out").unwrap();
    s.catch_iface_receive("red::bh_in").unwrap();
    s
}

/// Run to the next catchpoint stop: its cycle and its `describe` text.
fn next_stop(s: &mut Session) -> (u64, String) {
    let stop = s.run(10_000_000);
    assert!(matches!(stop, Stop::Dataflow(_)), "{stop:?}");
    (s.sys.clock(), s.describe(&stop))
}

/// A checkpoint taken between commands keeps every stop its cycle has
/// still to deliver, and a periodic one at the same cycle keeps all but
/// the one its run delivered there. With the baseline or a periodic
/// checkpoint at that cycle, `goto` onto it and `continue` deliver the
/// second stop, as the forward run did.
#[test]
fn goto_onto_a_checkpoint_delivers_the_rest_of_its_cycle() {
    let mut fwd = both_ends_session();
    let stops: Vec<(u64, String)> = (0..8).map(|_| next_stop(&mut fwd)).collect();
    let i = stops
        .windows(2)
        .position(|w| w[0].0 == w[1].0)
        .expect("two stops in one cycle");
    let c = stops[i].0;
    for periodic in [false, true] {
        let mut s = both_ends_session();
        if periodic {
            let interval = c - s.sys.clock();
            s.enable_time_travel(interval);
        }
        for want in &stops[..=i] {
            assert_eq!(&next_stop(&mut s), want);
        }
        if !periodic {
            s.enable_time_travel(replay::CHECKPOINT_INTERVAL);
        }
        assert!(checkpoint_cycles(&s).contains(&c), "periodic: {periodic}");
        let at_c = state_of(&s);
        for want in &stops[i + 1..] {
            assert_eq!(&next_stop(&mut s), want);
        }
        s.goto_cycle(c).unwrap();
        assert_eq!(state_of(&s), at_c, "periodic: {periodic}");
        assert_eq!(next_stop(&mut s), stops[i + 1], "periodic: {periodic}");
        assert!(s.replay_findings().is_empty(), "{:?}", s.replay_findings());
    }
}

/// `token inject` re-anchors the timeline at the mutated state: `goto`
/// back onto the injection's cycle lands on that state, with no replay
/// divergence, and so does a `reverse-continue` that finds no earlier
/// hit and returns to where it started.
#[test]
fn goto_onto_a_history_mutation_lands_on_the_mutated_state() {
    let mut s = session_with(Bug::None, 8, 0xbeef);
    s.enable_time_travel(200);
    assert_eq!(s.run(2_000 - s.sys.clock()), Stop::CycleLimit);
    let mut cli = Cli::new(s);
    let out = cli.exec("token inject red::red_ipred_out 42");
    assert!(!out.starts_with("error"), "{out}");
    let injected = state_of(&cli.session);
    assert_eq!(cli.session.run(1_000), Stop::CycleLimit);
    assert_ne!(state_of(&cli.session), injected);
    assert_eq!(cli.exec("goto 2000"), "At cycle 2000");
    assert_eq!(state_of(&cli.session), injected);
    assert!(
        cli.session.replay_findings().is_empty(),
        "{:?}",
        cli.session.replay_findings()
    );
    let out = cli.exec("reverse-continue");
    assert!(out.contains("no earlier"), "{out}");
    assert_eq!(cli.session.sys.clock(), 2_000);
    assert_eq!(state_of(&cli.session), injected);
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

// ---- user settings survive time travel ----------------------------------------

/// Run `script` on a fresh 64-macroblock session with time travel on,
/// returning the output of its last command.
fn script_output(script: &[&str]) -> String {
    let mut s = session_with(Bug::None, 64, 0xbeef);
    s.enable_time_travel(10_000);
    let mut cli = Cli::new(s);
    let mut out = String::new();
    for cmd in script {
        out = cli.exec(cmd);
    }
    out
}

/// A setting made mid-run, followed by a restart to the baseline and a
/// run to cycle 15000, must give what the same setting made at the
/// baseline gives: settings are the user's, not recorded history.
fn assert_setting_survives_restart(setting: &str, probe: &str) {
    let late = script_output(&[
        "run 3000",
        setting,
        "run 12000",
        "restart 0",
        "run 15000",
        probe,
    ]);
    let early = script_output(&[setting, "run 15000", probe]);
    assert!(!late.starts_with("error"), "`{setting}` reverted: {late}");
    assert_eq!(late, early, "`{setting}` then restart 0");
}

#[test]
fn interface_recording_survives_restart() {
    assert_setting_survives_restart("iface pipe::mc_in record", "iface pipe::mc_in print");
    let out = script_output(&[
        "iface pipe::mc_in record",
        "run 15000",
        "iface pipe::mc_in print",
    ]);
    assert!(out.starts_with("#1 "), "{out}");
}

#[test]
fn flow_behaviour_survives_restart() {
    assert_setting_survives_restart("filter red configure merger", "filter pipe info last_token");
    // The declared behaviour really shapes the answer: without it the
    // provenance path stops at red.
    let plain = script_output(&["run 15000", "filter pipe info last_token"]);
    let merged = script_output(&[
        "filter red configure merger",
        "run 15000",
        "filter pipe info last_token",
    ]);
    assert_ne!(plain, merged);
}

#[test]
fn record_limit_timeline_and_data_exchange_survive_restart() {
    let mut s = session_with(Bug::None, 64, 0xbeef);
    s.enable_time_travel(10_000);
    s.run(3_000);
    s.model.set_record_limit(300);
    s.enable_timeline();
    s.run(12_000);
    s.restart(0).unwrap();
    assert_eq!(s.model.record_limit(), 300);
    assert!(s.model.timeline_enabled);
    s.run(15_000);
    assert!(!s.model.timeline.is_empty());
    assert!(s.model.tokens.evicted() > 0, "the limit of 300 applies");

    // Data-exchange breakpoints switched off mid-run stay off: after the
    // restart the model sees only the host-boundary traffic, as when
    // they were off from the start.
    let tokens_seen = |late: bool| {
        let mut s = session_with(Bug::None, 64, 0xbeef);
        s.enable_time_travel(10_000);
        if late {
            s.run(3_000);
        }
        s.set_data_exchange_breakpoints(false);
        s.restart(0).unwrap();
        s.run(15_000);
        s.model.tokens.allocated()
    };
    assert_eq!(tokens_seen(true), tokens_seen(false));
    let mut s = session_with(Bug::None, 64, 0xbeef);
    s.run(15_000);
    assert!(s.model.tokens.allocated() > tokens_seen(true));
}

// ---- copy-on-write sharing of the recorded history ---------------------------

/// Checkpoints share the model's recorded history: each holds only the
/// chunks its interval wrote, not a copy of everything recorded so far.
/// The bound counts the elements stored in chunks that only checkpoints
/// hold, so it does not depend on the chunk size: at most 1,536 per
/// checkpoint (6 chunks of 256 elements, the earlier bound). A deep copy
/// per checkpoint would hold the whole live history per checkpoint.
/// `report --e6-smoke` checks the same bound.
#[test]
fn checkpoints_share_recorded_history() {
    const ELEMENTS: usize = 1_536;
    let mut s = session_with(Bug::None, 512, 0xbeef);
    s.enable_time_travel(server::CHECKPOINT_INTERVAL);
    assert_eq!(run_to_terminal(&mut s), Stop::Quiescent);
    let (checkpoints, _) = s.checkpoint_footprint();
    let st = s.recorded_storage();
    println!("{checkpoints} checkpoints, {st:?}");
    assert!(
        checkpoints > 10 && st.live_chunks > 10,
        "{checkpoints} checkpoints, {st:?}"
    );
    assert!(
        st.checkpoint_only_elements <= ELEMENTS * checkpoints,
        "checkpoints alone hold {} elements > {ELEMENTS} x {checkpoints} checkpoints ({st:?})",
        st.checkpoint_only_elements
    );
}

/// Every checkpoint keeps the token records it was taken with. The live
/// session goes on consuming tokens and, under a small record limit,
/// evicting them; each of those writes lands in a record that
/// checkpoints may share, and must copy it first. After the whole run,
/// `restart` to each checkpoint must show the recorded history, the
/// provenance path and the links exactly as a forward run without time
/// travel showed them at that cycle.
#[test]
fn checkpoints_keep_their_token_records() {
    fn configured() -> Session {
        let mut s = session_with(Bug::None, 64, 0xbeef);
        s.model.set_record_limit(200);
        s.iface_record("pipe::mc_in", true).unwrap();
        s.configure_filter("pipe", dfdbg::FlowBehavior::Pipeline)
            .unwrap();
        s
    }
    fn seen(s: &Session) -> String {
        format!(
            "{}{}{}",
            s.iface_print("pipe::mc_in").unwrap(),
            s.info_last_token("pipe").unwrap(),
            s.info_links()
        )
    }
    let mut s = configured();
    s.enable_time_travel(5_000);
    assert_eq!(run_to_terminal(&mut s), Stop::Quiescent);
    assert!(s.model.tokens.evicted() > 0, "the limit of 200 applies");
    let cycles = checkpoint_cycles(&s);
    assert!(cycles.len() > 3, "{cycles:?}");

    let mut forward = configured();
    for (id, &cycle) in cycles.iter().enumerate() {
        forward.run(cycle - forward.clock());
        assert_eq!(forward.clock(), cycle);
        s.restart(id as u32).unwrap();
        assert_eq!(seen(&s), seen(&forward), "restart {id} at cycle {cycle}");
    }
}

// ---- replay anchors ------------------------------------------------------------

/// Checkpoint interval of the anchor tests: replays lay anchors every
/// 500 cycles, and `pipe::mc_in` receives every 285.
const ANCHOR_INTERVAL: u64 = 5_000;
const ANCHOR_SPACING: u64 = ANCHOR_INTERVAL / 10;
const ANCHOR_MBS: u64 = 64;

/// The periodic checkpoints' cycles, read from `info checkpoints`.
fn checkpoint_cycles(s: &Session) -> Vec<u64> {
    let info = s.checkpoints_info().unwrap();
    info.lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
        .collect()
}

fn catch_ids(s: &Session) -> Vec<u32> {
    s.model.catchpoints().iter().map(|c| c.id).collect()
}

/// What a landing is compared on beside its cycle and stop text: the
/// machine (state hash) and the debugger's model (`info links`).
fn state_of(s: &Session) -> (u64, String) {
    (s.state_hash(), s.info_links())
}

type Landing = (u64, String, (u64, String));

/// A forward run without time travel under `catch recv pipe::mc_in`:
/// `(cycle, describe, state)` at every stop, and the state at each of
/// `targets` (ascending).
fn forward_reference(targets: &[u64]) -> (Vec<Landing>, Vec<(u64, String)>) {
    let mut s = session_with(Bug::None, ANCHOR_MBS, 0xbeef);
    s.catch_iface_receive("pipe::mc_in").unwrap();
    let (mut stops, mut states) = (Vec::new(), Vec::new());
    let mut next = targets.iter().peekable();
    loop {
        let budget = next.peek().map_or(10_000_000, |t| **t - s.sys.clock());
        match s.run(budget) {
            Stop::Quiescent => break,
            Stop::CycleLimit => {}
            stop @ Stop::Dataflow(_) => {
                stops.push((s.sys.clock(), s.describe(&stop), state_of(&s)))
            }
            other => panic!("forward run stopped with {other:?}"),
        }
        if next.peek() == Some(&&s.sys.clock()) {
            states.push(state_of(&s));
            next.next();
        }
    }
    assert!(
        next.peek().is_none(),
        "the program ended before every target"
    );
    (stops, states)
}

/// Seeded `goto T` / `reverse-continue` pairs on a recorded decoder land
/// exactly where a forward run without time travel was: same cycle, same
/// stop text, same state hash and `info links`. The targets cover seeded
/// cycles, two targets in one checkpoint window, targets right after a
/// checkpoint (before any anchor of their window), a stop cycle whose
/// previous stop lies in an earlier window, and temporary catchpoints
/// that fire inside the replayed window, at and after the landing.
/// Anchors never show in `info checkpoints`, never break the hash chain,
/// and there are never more than two.
#[test]
fn anchored_replays_land_where_the_forward_run_stopped() {
    let mut s = session_with(Bug::None, ANCHOR_MBS, 0xbeef);
    s.enable_time_travel(ANCHOR_INTERVAL);
    s.catch_iface_receive("pipe::mc_in").unwrap();
    let mut recorded = Vec::new();
    loop {
        match s.run(10_000_000) {
            stop @ Stop::Dataflow(_) => {
                recorded.push((s.sys.clock(), s.describe(&stop), state_of(&s)));
            }
            Stop::Quiescent => break,
            other => panic!("recording stopped with {other:?}"),
        }
    }
    let end = s.sys.clock();
    let checkpoints = checkpoint_cycles(&s);
    let info_before = s.checkpoints_info().unwrap();
    // Recording must not change what a forward run sees. The targets
    // need the stop cycles, and the reference states need the targets.
    let (fwd_stops, _) = forward_reference(&[]);
    assert!(recorded == fwd_stops, "recording changed the stops");
    assert!(
        checkpoints.len() > 3 && fwd_stops.len() > 20,
        "{checkpoints:?}"
    );

    let stop_cycles: Vec<u64> = fwd_stops.iter().map(|s| s.0).collect();
    let mut rng = proptest::TestRng::seeded(0xbeef);
    let first = stop_cycles[0];
    let mut targets: Vec<u64> = (0..12)
        .map(|_| first + 1 + rng.below(end - first))
        .collect();
    let same_window = checkpoints[3] + 500;
    targets.extend([same_window, same_window + 37]);
    targets.extend(checkpoints.iter().skip(1).map(|c| c + 1));
    let crossing = stop_cycles
        .windows(2)
        .find(|w| checkpoints.iter().any(|c| w[0] < *c && *c < w[1]))
        .expect("a checkpoint between two stops")[1];
    targets.push(crossing);
    // The temporary catchpoints' pair comes last (one stays installed).
    // Its target is a stop whose previous stop lies after the last anchor
    // slot before it, so `reverse-continue` lands in the first window.
    let temp_target = stop_cycles
        .windows(2)
        .find(|w| w[0] >= (w[1] - 1) / ANCHOR_SPACING * ANCHOR_SPACING)
        .expect("two stops between two anchor slots")[1];
    targets.push(temp_target);
    let mut sorted = targets.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let (_, fwd_states) = forward_reference(&sorted);
    let state_at = |t: u64| &fwd_states[sorted.binary_search(&t).unwrap()];

    let mc_in = s.conn_named("pipe::mc_in").unwrap();
    let mut cli = Cli::new(s);
    for t in targets {
        assert_eq!(cli.exec(&format!("goto {t}")), format!("At cycle {t}"));
        assert_eq!(&state_of(&cli.session), state_at(t), "goto {t}");
        let mut temps = None;
        if t == temp_target {
            // Two temporary catchpoints: one fires at the landing, so it is
            // gone there; one fires only at `t`, after the landing, where
            // the replay of the window reaps it, so the landing holds it.
            let count = cli.session.model.conns[mc_in.0 as usize].total;
            let model = &mut cli.session.model;
            let at_t = model.add_catch(CatchCond::TotalCount { conn: mc_in, count }, true);
            let at_landing = model.add_catch(CatchCond::TokenReceivedOn { conn: mc_in }, true);
            temps = Some((at_t, at_landing));
        }
        let out = cli.exec("reverse-continue");
        let want = fwd_stops.iter().rev().find(|s| s.0 < t).unwrap();
        let got = (cli.session.sys.clock(), out, state_of(&cli.session));
        assert_eq!(&got, want, "reverse-continue from {t}");
        if let Some((at_t, at_landing)) = temps {
            let ids = catch_ids(&cli.session);
            assert!(ids.contains(&at_t) && !ids.contains(&at_landing), "{ids:?}");
        }
        assert!(cli.session.replay_anchors() <= 2);
    }
    assert!(cli.session.replay_anchors() > 0, "no anchor was laid");
    assert_eq!(cli.session.fork().replay_anchors(), 0, "a fork starts bare");
    assert!(
        cli.session.replay_findings().is_empty(),
        "{:?}",
        cli.session.replay_findings()
    );
    assert_eq!(cli.session.checkpoints_info().unwrap(), info_before);
}

/// `token inject` changes the timeline: an anchor laid after the
/// injection's cycle describes a history that no longer exists, so a
/// later `goto` must not restore it. Visiting `T1` before going back to
/// `T0 < T1` and injecting must leave `goto T1` where the same steps
/// without the first visit leave it.
#[test]
fn history_mutation_drops_the_anchors_after_it() {
    let script = |visit_first: bool| {
        let mut s = session_with(Bug::None, ANCHOR_MBS, 0xbeef);
        s.enable_time_travel(ANCHOR_INTERVAL);
        run_to_terminal(&mut s);
        let c = checkpoint_cycles(&s);
        // No anchor slot lies between c[1] and t0, so `goto t0` lays
        // none and the ring still holds the anchors near t1.
        let (t0, t1) = (c[1] + 1, c[2] + 1_234);
        let mut cli = Cli::new(s);
        let goto = |cli: &mut Cli, t: u64| {
            assert_eq!(cli.exec(&format!("goto {t}")), format!("At cycle {t}"));
        };
        if visit_first {
            goto(&mut cli, t1);
            assert_eq!(cli.session.replay_anchors(), 2);
        }
        goto(&mut cli, t0);
        let out = cli.exec("token inject red::red_ipred_out 42");
        assert!(!out.starts_with("error"), "{out}");
        goto(&mut cli, t1);
        (cli.session.state_hash(), cli.exec("info links"))
    };
    assert_eq!(script(true), script(false));
}

// ---- a thinning chain ------------------------------------------------------------

/// Run forward to exactly `target`, through any catchpoint stops.
fn run_until(s: &mut Session, target: u64) {
    while s.sys.clock() < target {
        match s.run(target - s.sys.clock()) {
            Stop::CycleLimit | Stop::Dataflow(_) => {}
            other => panic!("stopped with {other:?} before cycle {target}"),
        }
    }
}

/// The chain thins while the session holds replay anchors. Periodic
/// checkpoint `k` sits `k` intervals after the baseline; the first
/// thinning, when the 21st is recorded, drops every even `k`. Anchors
/// laid after a dropped boundary go with it; anchors laid after a kept
/// one stay. Going back onto the anchored cycle and on across the next
/// kept boundary, whose hash now covers the dropped interval's pages
/// too, then reversing from there, lands where a forward run without
/// time travel was, and no replay reports `REPLAY501`. The dropped
/// boundary is one whose interval dirtied a page the next did not, so
/// a replay from a stale anchor would miss that page.
#[test]
fn thinning_drops_the_anchors_after_a_dropped_boundary() {
    const START: u64 = 100;
    let c0 = session_with(Bug::None, ANCHOR_MBS, 0xbeef).sys.clock();
    let at = |k: u64, off: u64| c0 + k * START + off;
    // (anchored target, a target past the next kept boundary, whether
    // the anchors survive the thinning)
    let cases = [
        (at(10, 45), at(11, 45), false),
        (at(13, 45), at(15, 45), true),
    ];
    let pages_at = |s: &Session, k: u64| {
        let chain = s.checkpoint_chain();
        chain.iter().find(|c| c.clock == at(k, 0)).unwrap().pages
    };
    let mut targets: Vec<u64> = cases.iter().flat_map(|c| [c.0, c.1]).collect();
    targets.sort_unstable();
    let (fwd_stops, fwd_states) = forward_reference(&targets);
    let state_at = |t: u64| &fwd_states[targets.binary_search(&t).unwrap()];

    for (anchored, past, kept) in cases {
        let mut s = session_with(Bug::None, ANCHOR_MBS, 0xbeef);
        s.enable_time_travel(START);
        s.catch_iface_receive("pipe::mc_in").unwrap();
        run_until(&mut s, at(15, 50));
        let unmerged = pages_at(&s, 11);
        s.goto_cycle(anchored).unwrap();
        assert_eq!(s.replay_anchors(), 2, "goto {anchored} laid its anchors");
        run_until(&mut s, at(21, 10));
        assert_eq!(s.checkpoint_spacing(), Some(2 * START), "the chain thinned");
        let merged = pages_at(&s, 11);
        let survivors = s.replay_anchors();

        s.goto_cycle(anchored).unwrap();
        assert_eq!(&state_of(&s), state_at(anchored), "goto {anchored}");
        run_until(&mut s, past);
        assert_eq!(&state_of(&s), state_at(past), "run on to {past}");
        let stop = s.reverse_continue().unwrap();
        let want = fwd_stops.iter().rev().find(|x| x.0 < past).unwrap();
        let got = (s.sys.clock(), s.describe(&stop), state_of(&s));
        assert_eq!(&got, want, "reverse-continue from {past}");
        assert!(
            s.replay_findings().is_empty(),
            "anchors kept: {kept}: {:?}",
            s.replay_findings()
        );
        assert!(merged > unmerged, "interval 10 has a page of its own");
        assert_eq!(
            survivors,
            if kept { 2 } else { 0 },
            "anchors after thinning"
        );
    }
}
