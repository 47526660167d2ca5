//! `analyze` — run the static analyzers (dataflow `dfa` + bytecode
//! verifier `bcv` + performance analyzer `sched`) over the H.264
//! case-study graphs from the command line, for CI gating and quick
//! inspection.
//!
//! ```text
//! analyze [<variant>] [--deny warnings] [--expect-findings] [--json]
//! ```
//!
//! The variant names are the REPL's and the server's
//! (`server::parse_variant`); the default is the clean decoder.
//!
//! Exit status is non-zero when `--deny warnings` sees a finding at
//! warning level or above, or when `--expect-findings` sees none at
//! warning level or above (info-level findings — FIFO slack, throughput
//! bounds — are unconditionally present, so they satisfy neither gate) —
//! the two directions a CI gate needs (clean graphs must stay clean,
//! known-bad graphs must stay detected). `--json` replaces the human-readable output
//! with machine-readable findings in a deterministic, byte-stable order.
//!
//! `--replay-check` instead *executes* the variant under the debugger with
//! time travel enabled, drives a `reverse-continue` round trip, and prints
//! byte-stable state hashes plus the findings JSON. CI runs it twice and
//! byte-compares the outputs: any nondeterminism in the simulator, the
//! replay engine or the analyzers shows up as a diff or as a `REPLAY501`
//! finding (non-zero exit).
//!
//! `--sched-check` is the differential gate for the `sched` capacity and
//! throughput predictions: it rebuilds the variant with every analyzed
//! FIFO pinned to its *predicted minimal* capacity and requires the run to
//! complete; then, for every link whose minimum exceeds the floor of one,
//! rebuilds with that single link one slot below the minimum and requires
//! the run to wedge with a producer blocked on exactly the link the static
//! `SCH501` finding blames. The measured end-to-end cycle count must also
//! respect the static throughput lower bound. Everything printed is
//! byte-stable, so CI can diff two invocations.
//!
//! `--witness-check` is the differential gate for the multiverse engine
//! (`crates/multiverse`): the seeded `deadlock` and `race` variants must
//! yield *replayable* dynamic witnesses (MV701/MV702) that land a fresh
//! session at the failure with the statically blamed edge/pair confirmed
//! dynamically, while the `benign` variant — statically indistinguishable
//! from the race (`RACE401` fires on the same shared word) but
//! data-dependently immune — must be refuted within the default budget
//! (MV703). Witnessed findings carry the replayable choice trace in the
//! findings JSON (`witness` field); the output is byte-stable.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use dataflow_debugger::dfdbg::{Session, Stop};
use dataflow_debugger::h264::{
    attach_env, build_decoder, build_decoder_with_caps, decoder_sources, golden, Bug,
};
use dataflow_debugger::p2012::{BlockReason, PeStatus, PlatformConfig};
use dataflow_debugger::server::{parse_variant, variant_names};
use dataflow_debugger::{bcv, dfa, sched};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut variant = Bug::None;
    let mut deny_warnings = false;
    let mut expect_findings = false;
    let mut json = false;
    let mut replay_check = false;
    let mut sched_check = false;
    let mut witness_check = false;
    for a in &args {
        match a.as_str() {
            "--deny" => {}
            "warnings" => deny_warnings = true,
            "--expect-findings" => expect_findings = true,
            "--json" => json = true,
            "--replay-check" => replay_check = true,
            "--sched-check" => sched_check = true,
            "--witness-check" => witness_check = true,
            other => match parse_variant(other) {
                Some(bug) => variant = bug,
                None => {
                    eprintln!(
                        "usage: analyze [{}] [--deny warnings] [--expect-findings] [--json] \
                         [--replay-check] [--sched-check] [--witness-check] (got `{other}`)",
                        variant_names()
                    );
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if replay_check {
        return run_replay_check(variant);
    }
    if sched_check {
        return run_sched_check(variant);
    }
    if witness_check {
        return run_witness_check(variant);
    }

    let (_sys, app) = match build_decoder(variant, 4, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sources = decoder_sources(variant);
    let input = dfa::AnalysisInput::from_app(&app, &sources);
    let bcv_input = bcv::AnalysisInput::from_app(&app);
    let sched_input = sched::AnalysisInput::from_app(&app, &sources);

    let t0 = Instant::now();
    let mut report = dfa::analyze(&input);
    report.resolve_spans(&app.info.lines);
    let bcv_report = bcv::verify(&bcv_input);
    let mut sched_report = sched::analyze(&sched_input);
    sched_report.resolve_spans(&app.info.lines);
    let wall = t0.elapsed();

    let mut findings = report.findings.clone();
    findings.extend(bcv_report.findings.iter().cloned());
    findings.extend(sched_report.findings.iter().cloned());
    dataflow_debugger::debuginfo::sort_and_dedup_findings(&mut findings);

    if json {
        print!(
            "{}",
            dataflow_debugger::debuginfo::render_findings_json(&findings)
        );
    } else {
        println!(
            "analyzed {:?}: {} actors, {} links, {} kernels, {} functions in {:.2?}",
            variant,
            input.graph.actors.len(),
            input.graph.links.len(),
            input.kernels.len(),
            bcv_input.program.funcs.len(),
            wall
        );
        print!(
            "{}",
            dataflow_debugger::debuginfo::render_findings(&findings)
        );
        if !bcv_report.race_pairs.is_empty() {
            let names: Vec<String> = bcv_report
                .race_pairs
                .iter()
                .map(|&(a, b)| {
                    format!(
                        "{} <-> {}",
                        input
                            .graph
                            .qualified_name(dataflow_debugger::pedf::ActorId(a)),
                        input
                            .graph
                            .qualified_name(dataflow_debugger::pedf::ActorId(b))
                    )
                })
                .collect();
            println!("race pairs: {}", names.join(", "));
        }
    }

    let worst = findings.iter().map(|f| f.severity).max();
    if deny_warnings && worst >= Some(dfa::Severity::Warning) {
        eprintln!("error: findings at or above warning level (denied)");
        return ExitCode::FAILURE;
    }
    if expect_findings && worst < Some(dfa::Severity::Warning) {
        eprintln!("error: expected warning-or-worse findings, analyzer reported none");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI determinism gate: execute `variant` under the debugger with
/// time travel enabled, catch every module step begin, run to a terminal
/// stop, then drive a `reverse-continue` + replay round trip. Everything
/// printed is byte-stable across runs (no wall-clock, no addresses), so
/// CI can diff two invocations; within one invocation the final state
/// hash must survive restore + replay unchanged and the replay engine
/// must report zero `REPLAY501` divergences.
fn run_replay_check(variant: Bug) -> ExitCode {
    const N_MBS: u64 = 8;
    const INTERVAL: u64 = 2_000;

    let (sys, mut app) = match build_decoder(variant, N_MBS, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut session = Session::attach(sys, info);
    if let Err(e) = session.boot(boot) {
        eprintln!("boot failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = attach_env(&mut session.sys, &app, N_MBS, 0xbeef) {
        eprintln!("env attach failed: {e}");
        return ExitCode::FAILURE;
    }
    session.enable_time_travel(INTERVAL);
    if let Err(e) = session.catch_step(None, true) {
        eprintln!("catch step failed: {e}");
        return ExitCode::FAILURE;
    }

    let mut hits = 0u64;
    let terminal = loop {
        match session.run(50_000_000) {
            Stop::Dataflow(_) => hits += 1,
            s @ (Stop::Deadlock | Stop::Quiescent | Stop::CycleLimit | Stop::Fault { .. }) => {
                break s;
            }
            _ => hits += 1,
        }
        if hits > 1_000_000 {
            eprintln!("error: runaway stop loop");
            return ExitCode::FAILURE;
        }
    };
    let terminal = match terminal {
        Stop::Deadlock => "deadlock",
        Stop::Quiescent => "quiescent",
        Stop::Fault { .. } => "fault",
        _ => "cycle-limit",
    };
    let end_clock = session.sys.clock();
    let end_hash = session.state_hash();
    println!("replay-check {variant:?}: {hits} stops, terminal {terminal}");
    println!("end cycle {end_clock} hash {end_hash:#018x}");

    let landed = match session.reverse_continue() {
        Ok(_) => session.sys.clock(),
        Err(e) => {
            eprintln!("reverse-continue failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("reverse-continue landed at cycle {landed}");

    if let Err(e) = session.goto_cycle(end_clock) {
        eprintln!("replay to end failed: {e}");
        return ExitCode::FAILURE;
    }
    let replayed_hash = session.state_hash();
    println!(
        "replayed to cycle {} hash {replayed_hash:#018x}",
        session.sys.clock()
    );

    let findings = session.replay_findings();
    println!("replay findings: {}", findings.len());
    let mut ok = true;
    if !findings.is_empty() {
        print!(
            "{}",
            dataflow_debugger::debuginfo::render_findings(findings)
        );
        ok = false;
    }
    if replayed_hash != end_hash {
        eprintln!("error: state hash diverged across the reverse-continue round trip");
        ok = false;
    }
    if session.sys.clock() != end_clock {
        eprintln!("error: replay overshot the original cycle");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One simulator run for the sched gate: build `variant` with explicit
/// capacity overrides, boot, attach the environment, run. Returns the
/// system (for blame inspection), the app, and whether it reached
/// quiescence. Faults are gate failures in their own right.
fn run_with_caps(
    variant: Bug,
    caps: &BTreeMap<String, u32>,
    max_cycles: u64,
) -> Result<
    (
        dataflow_debugger::pedf::System,
        dataflow_debugger::h264::CompiledApp,
        bool,
    ),
    String,
> {
    const N_MBS: u64 = 8;
    let (mut sys, app) = build_decoder_with_caps(variant, N_MBS, PlatformConfig::default(), caps)
        .map_err(|e| format!("build failed: {e}"))?;
    sys.boot(app.boot_entry)?;
    attach_env(&mut sys, &app, N_MBS, 0xbeef)?;
    let finished = sys.run_to_quiescence(max_cycles);
    if let Some((pe, fault)) = sys.first_fault() {
        return Err(format!("fault on {pe}: {fault}"));
    }
    Ok((sys, app, finished))
}

/// The differential gate for the static performance analyzer: every
/// capacity the abstract model calls minimal must be dynamically minimal
/// on the real simulator — sufficient at the predicted size, insufficient
/// one slot below it (with the dynamic deadlock blamed on the very link
/// the static `SCH501` names) — and the measured cycle count must respect
/// the static throughput lower bound.
fn run_sched_check(variant: Bug) -> ExitCode {
    const N_MBS: u64 = 8;
    const MAX_CYCLES: u64 = 5_000_000;

    // Static pass over the variant exactly as the ADL builds it.
    let (_sys, app) = match build_decoder(variant, N_MBS, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sources = decoder_sources(variant);
    let input = sched::AnalysisInput::from_app(&app, &sources);
    let report = sched::analyze(&input);
    if report.structural {
        eprintln!("error: abstract network deadlocks at any capacity; sizing not applicable");
        return ExitCode::FAILURE;
    }
    let caps = report.min_caps_by_label(&app.graph);
    if caps.is_empty() {
        eprintln!("error: no analyzable link (nothing to check)");
        return ExitCode::FAILURE;
    }
    println!(
        "sched-check {variant:?}: {} analyzed links, period bound {} cycles",
        caps.len(),
        report.period_lb
    );
    for (label, cap) in &caps {
        println!("  min cap {label} = {cap}");
    }

    // Static detection direction: the seeded capacity bug must already be
    // an SCH501 on the as-built graph; the clean graph must carry none.
    let sch501: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == sched::rules::CAPACITY_BELOW_MIN)
        .map(|f| f.subject.clone())
        .collect();
    match variant {
        Bug::TightFifo if sch501.is_empty() => {
            eprintln!("error: seeded tight FIFO produced no SCH501 finding");
            return ExitCode::FAILURE;
        }
        Bug::None if !sch501.is_empty() => {
            eprintln!("error: clean graph produced SCH501 findings: {sch501:?}");
            return ExitCode::FAILURE;
        }
        _ => {}
    }

    // Arm A: at the predicted minimal sizes the real decoder completes.
    let (sys, app_min, finished) = match run_with_caps(variant, &caps, MAX_CYCLES) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: run at minimal capacities: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !finished {
        eprintln!("error: decoder wedged at the predicted minimal capacities");
        return ExitCode::FAILURE;
    }
    let cycles = sys.clock();
    println!("minimal capacities: completed in {cycles} cycles");

    // The clean variant's output must still match the golden model — the
    // squeeze changes scheduling, never values.
    if matches!(variant, Bug::None) {
        let expect = golden::decode_stream(N_MBS as u32, 0xbeef);
        let sink = sys
            .runtime
            .sink_for(app_min.boundary_out["frame_out"])
            .expect("sink attached");
        if sink.checksum != golden::checksum(&expect) {
            eprintln!("error: output diverged from the golden model at minimal capacities");
            return ExitCode::FAILURE;
        }
        println!("golden checksum intact at minimal capacities");
    }

    // Throughput: no schedule beats rep x BCET at the bottleneck, so the
    // measured whole-run cycle count must sit at or above the bound.
    if report.period_lb > 0 {
        let bound = report.period_lb * N_MBS;
        if cycles < bound {
            eprintln!(
                "error: measured {cycles} cycles beats the static bound {bound} \
                 ({} per iteration): the bound is unsound",
                report.period_lb
            );
            return ExitCode::FAILURE;
        }
        println!("throughput: {cycles} cycles for {N_MBS} iterations >= static bound {bound}");
    }

    // Arm B: one slot below the minimum each above-floor link wedges the
    // decoder, and the dynamically blamed producer matches the prediction.
    let mut squeezed = 0usize;
    for (label, &cap) in &caps {
        if cap < 2 {
            continue;
        }
        squeezed += 1;
        let mut tight = caps.clone();
        tight.insert(label.clone(), cap - 1);
        let (sys, app_tight, finished) = match run_with_caps(variant, &tight, MAX_CYCLES) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("error: run with {label} squeezed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if finished {
            eprintln!(
                "error: decoder completed with {label} at {} — the predicted \
                 minimum {cap} is not minimal",
                cap - 1
            );
            return ExitCode::FAILURE;
        }
        if !sys.platform.is_deadlocked() {
            eprintln!("error: squeezed run hit the cycle limit without deadlocking");
            return ExitCode::FAILURE;
        }
        let conn = app_tight.conn(label).expect("label round-trips");
        let victim = app_tight.graph.conn(conn).link.expect("bound conn");
        let blamed = sys.runtime.graph.actors.iter().any(|a| {
            a.pe.is_some_and(|pe| {
                matches!(
                    sys.pe_status(pe),
                    PeStatus::Blocked(BlockReason::SpaceWait { link: l }) if l == victim.0
                )
            })
        });
        if !blamed {
            eprintln!("error: deadlock not blamed on {label}: no producer space-waits on it");
            return ExitCode::FAILURE;
        }
        // Cross-check the static side on the squeezed build: the same
        // link must carry the SCH501.
        let squeezed_input = sched::AnalysisInput::from_app(&app_tight, &sources);
        let squeezed_report = sched::analyze(&squeezed_input);
        let label_full = app_tight.graph.link_label(victim);
        let hit = squeezed_report
            .findings
            .iter()
            .any(|f| f.rule == sched::rules::CAPACITY_BELOW_MIN && f.subject == label_full);
        if !hit {
            eprintln!("error: squeezed build carries no SCH501 on {label_full}");
            return ExitCode::FAILURE;
        }
        println!(
            "  {label} at {}: wedges, dynamic blame and SCH501 agree on {label_full}",
            cap - 1
        );
    }
    if squeezed == 0 {
        println!("no analyzed link above the one-slot floor; squeeze arm vacuous");
    }
    if matches!(variant, Bug::TightFifo) && squeezed == 0 {
        eprintln!("error: seeded tight FIFO exposed no above-floor link to squeeze");
        return ExitCode::FAILURE;
    }
    println!("sched-check PASS");
    ExitCode::SUCCESS
}

/// Build `variant` fresh, boot it under the debugger, attach the
/// environment, and replay `witness` — the same construction path the
/// witness was found on, so the anchor hash must match. Returns the
/// landed session for postcondition checks.
fn replay_in_fresh_session(variant: Bug, n_mbs: u64, witness: &str) -> Result<Session, String> {
    let (sys, mut app) = build_decoder(variant, n_mbs, PlatformConfig::default())
        .map_err(|e| format!("rebuild failed: {e}"))?;
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut session = Session::attach(sys, info);
    session
        .boot(boot)
        .map_err(|e| format!("boot failed: {e}"))?;
    attach_env(&mut session.sys, &app, n_mbs, 0xbeef).map_err(|e| format!("env: {e}"))?;
    let out = session.explore_replay(witness)?;
    println!("{out}");
    Ok(session)
}

/// The differential gate for the multiverse engine: the seeded `deadlock`
/// and `race` variants must yield dynamic witnesses whose replay lands a
/// *fresh* session at the failure with the statically blamed edge/pair
/// confirmed dynamically; the `benign` variant — same static `RACE401`,
/// data-dependently immune — must be refuted within the default budget.
/// Witnessed findings carry the choice trace in the findings JSON.
/// Everything printed is byte-stable, so CI can diff two invocations.
fn run_witness_check(variant: Bug) -> ExitCode {
    const N_MBS: u64 = 4;
    use dataflow_debugger::debuginfo::Finding;
    use dataflow_debugger::multiverse;
    use dataflow_debugger::pedf::LinkId;

    let until = match variant {
        Bug::Deadlock => multiverse::Until::Deadlock,
        Bug::SharedScratch | Bug::BenignScratch => multiverse::Until::Race,
        _ => {
            eprintln!("error: --witness-check supports the deadlock, race and benign variants");
            return ExitCode::FAILURE;
        }
    };
    let expect_witness = !matches!(variant, Bug::BenignScratch);

    // Static pass first: these are the claims the dynamic gate must
    // confirm or refute (spans resolve while the app still owns its
    // debug info).
    let (sys, mut app) = match build_decoder(variant, N_MBS, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sources = decoder_sources(variant);
    let input = dfa::AnalysisInput::from_app(&app, &sources);
    let bcv_input = bcv::AnalysisInput::from_app(&app);
    let mut dfa_report = dfa::analyze(&input);
    dfa_report.resolve_spans(&app.info.lines);
    let bcv_report = bcv::verify(&bcv_input);
    let mut findings = dfa_report.findings.clone();
    findings.extend(bcv_report.findings.iter().cloned());
    dataflow_debugger::debuginfo::sort_and_dedup_findings(&mut findings);

    let static_edge = findings
        .iter()
        .find(|f| (f.rule == "DFA003" || f.rule == "DFA004") && f.subject.contains("->"))
        .map(|f| f.subject.clone());
    let race_pair = findings
        .iter()
        .find(|f| f.rule == bcv::rules::UNORDERED_SHARED_ACCESS)
        .map(|f| f.subject.clone());
    match variant {
        Bug::Deadlock if static_edge.is_none() => {
            eprintln!("error: deadlock variant carries no static DFA003/DFA004 edge finding");
            return ExitCode::FAILURE;
        }
        Bug::SharedScratch | Bug::BenignScratch if race_pair.is_none() => {
            eprintln!("error: variant carries no static RACE401 — nothing to witness-check");
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    if let Some(pair) = &race_pair {
        println!("static RACE401 pair: {pair}");
    }
    if let Some(edge) = &static_edge {
        println!("static deadlock edge: {edge}");
    }

    // Boot the debugger session and explore from the initial state.
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut session = Session::attach(sys, info);
    if let Err(e) = session.boot(boot) {
        eprintln!("boot failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = attach_env(&mut session.sys, &app, N_MBS, 0xbeef) {
        eprintln!("env attach failed: {e}");
        return ExitCode::FAILURE;
    }
    session.load_bcv_input(bcv_input);
    println!(
        "witness-check {variant:?} ({} direction, until {})",
        if expect_witness {
            "must-witness"
        } else {
            "must-refute"
        },
        until.label()
    );
    let transcript = match session.explore(None, None, until) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("explore failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{transcript}");
    let report = session
        .last_explore
        .clone()
        .expect("explore stores its report");

    let mut ok = true;
    match (&report.witness, expect_witness) {
        (Some(w), true) => {
            let expected_rule = match variant {
                Bug::Deadlock => multiverse::rules::WITNESSED_DEADLOCK,
                _ => multiverse::rules::WITNESSED_RACE,
            };
            if w.rule != expected_rule {
                eprintln!("error: witness rule {} (expected {expected_rule})", w.rule);
                ok = false;
            }
            // The dynamic blame must name the statically blamed pair.
            if matches!(variant, Bug::SharedScratch) {
                let pair = race_pair.as_deref().unwrap_or("");
                for name in pair.split(" <-> ") {
                    if !w.blame.contains(name) {
                        eprintln!(
                            "error: witness blame misses racy actor `{name}`: {}",
                            w.blame
                        );
                        ok = false;
                    }
                }
            }
            // Replay in a fresh session (anchor must match a from-scratch
            // build) and confirm the failure dynamically.
            let wstr = w.to_string();
            match replay_in_fresh_session(variant, N_MBS, &wstr) {
                Ok(landed) => {
                    match variant {
                        Bug::Deadlock => {
                            let clock = landed.sys.clock();
                            if !landed.sys.platform.is_deadlocked()
                                || landed.sys.runtime.pending_deferred(clock)
                            {
                                eprintln!("error: replayed session is not deadlocked");
                                ok = false;
                            }
                            // The statically blamed edge starves an actor in
                            // the replayed machine.
                            let edge = static_edge.as_deref().unwrap_or("");
                            let g = &landed.sys.runtime.graph;
                            let starved = g.actors.iter().any(|a| {
                                a.pe.is_some_and(|pe| match landed.sys.pe_status(pe) {
                                    PeStatus::Blocked(
                                        BlockReason::TokenWait { link }
                                        | BlockReason::SpaceWait { link },
                                    ) => g.link_label(LinkId(link)) == edge,
                                    _ => false,
                                })
                            });
                            if !starved {
                                eprintln!("error: no PE blocked on the blamed edge `{edge}`");
                                ok = false;
                            }
                            println!("replay confirmed: deadlocked at cycle {clock}, blocked on `{edge}`");
                        }
                        _ => {
                            if landed.sys.clock() != w.failure_cycle {
                                eprintln!(
                                    "error: replay landed at cycle {} (witness fails at {})",
                                    landed.sys.clock(),
                                    w.failure_cycle
                                );
                                ok = false;
                            } else {
                                println!(
                                    "replay confirmed: landed at failure cycle {}",
                                    w.failure_cycle
                                );
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: witness replay failed: {e}");
                    ok = false;
                }
            }
            // Attach the replayable trace to the static finding it
            // confirms, and record the dynamic finding itself.
            for f in findings.iter_mut() {
                let confirms = match variant {
                    Bug::Deadlock => {
                        (f.rule == "DFA003" || f.rule == "DFA004")
                            && Some(&f.subject) == static_edge.as_ref()
                    }
                    _ => f.rule == bcv::rules::UNORDERED_SHARED_ACCESS,
                };
                if confirms {
                    f.witness = Some(wstr.clone());
                }
            }
            let subject = match variant {
                Bug::Deadlock => static_edge.clone().unwrap_or_default(),
                _ => race_pair.clone().unwrap_or_default(),
            };
            findings.push(
                Finding::new(
                    expected_rule,
                    dfa::Severity::Error,
                    subject,
                    format!(
                        "{} (witnessed at cycle {} under {} schedule override{})",
                        w.blame,
                        w.failure_cycle,
                        w.overrides.len(),
                        if w.overrides.len() == 1 { "" } else { "s" }
                    ),
                )
                .with_witness(wstr),
            );
        }
        (None, true) => {
            eprintln!("error: expected a witness, exploration found none");
            ok = false;
        }
        (Some(w), false) => {
            eprintln!("error: data-dependent false positive produced a witness: {w}");
            ok = false;
        }
        (None, false) => {
            println!(
                "refuted: static RACE401 is a data-dependent false positive here \
                 ({} universes explored, none diverged)",
                report.stats.universes_explored
            );
            findings.push(Finding::new(
                multiverse::rules::BUDGET_EXHAUSTED,
                dfa::Severity::Info,
                race_pair.clone().unwrap_or_default(),
                format!(
                    "no divergence witnessed in {} universes (bounded refutation of RACE401)",
                    report.stats.universes_explored
                ),
            ));
        }
    }

    print!(
        "{}",
        dataflow_debugger::debuginfo::render_findings_json(&findings)
    );
    if ok {
        println!("witness-check PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
