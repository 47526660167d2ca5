//! `analyze` — run the static analyzers (dataflow `dfa` + bytecode
//! verifier `bcv` + performance analyzer `sched`) over the H.264
//! case-study graphs from the command line, for CI gating and quick
//! inspection.
//!
//! ```text
//! analyze [<variant>] [--deny warnings] [--expect-findings] [--json]
//!         [--replay-check | --sched-check | --witness-check]
//! ```
//!
//! The variant names are the REPL's and the server's
//! (`server::parse_variant`); the default is the clean decoder. `--deny`
//! must be followed by `warnings`, and at most one check mode may be
//! given; anything else prints the usage line and exits nonzero.
//!
//! Exit status is non-zero when `--deny warnings` sees a finding at
//! warning level or above, or when `--expect-findings` sees none at
//! warning level or above (info-level findings — FIFO slack, throughput
//! bounds — are unconditionally present, so they satisfy neither gate) —
//! the two directions a CI gate needs (clean graphs must stay clean,
//! known-bad graphs must stay detected). `--json` replaces the human-readable output
//! with machine-readable findings in a deterministic, byte-stable order.
//!
//! The three check modes run the same differential oracles the fuzz farm
//! runs on generated apps (`appgen::oracle`), on the decoder variant, and
//! print byte-stable transcripts that CI diffs against `ci/*_check.txt`:
//!
//! * `--replay-check` is oracle D6 (`replay_round_trip`): execute the
//!   variant under the debugger with time travel enabled, catching every
//!   module step begin, then `reverse-continue` from the terminal stop and
//!   replay to the end. The state hash must round-trip and the replay
//!   engine must report no `REPLAY501` divergence.
//! * `--sched-check` is oracle D3 (`capacity_arms`): with every analyzed
//!   FIFO at its *predicted minimal* capacity the decoder must complete;
//!   one slot below each above-floor minimum it must wedge with a
//!   producer blocked on exactly the link the static `SCH501` blames. On
//!   top, the seeded `capacity` variant must carry its `SCH501` as built
//!   (the clean one none), the clean output must match the golden model
//!   at minimal capacities, and the measured cycle count must respect the
//!   static throughput lower bound.
//! * `--witness-check` is the differential gate for the multiverse engine
//!   (`crates/multiverse`): the seeded `deadlock` and `race` variants must
//!   yield *replayable* dynamic witnesses (MV701/MV702) that land a fresh
//!   session at the failure with the statically blamed edge/pair confirmed
//!   dynamically, while the `benign` variant — statically indistinguishable
//!   from the race (`RACE401` fires on the same shared word) but
//!   data-dependently immune — must be refuted within the default budget
//!   (MV703). Witnessed findings carry the replayable choice trace in the
//!   findings JSON (`witness` field).

use std::process::ExitCode;
use std::time::Instant;

use dataflow_debugger::appgen::{capacity_arms, observe, replay_round_trip};
use dataflow_debugger::dfdbg::{Session, Stop};
use dataflow_debugger::h264::{
    attach_env, build_decoder, decoder_sources, golden, run_decoder_with_caps, Bug,
};
use dataflow_debugger::p2012::{BlockReason, PeStatus, PlatformConfig};
use dataflow_debugger::server::{parse_variant, variant_names};
use dataflow_debugger::{bcv, dfa, sched};

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "usage: analyze [{}] [--deny warnings] [--expect-findings] [--json] \
         [--replay-check | --sched-check | --witness-check] ({problem})",
        variant_names()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut variant = Bug::None;
    let mut deny_warnings = false;
    let mut expect_findings = false;
    let mut json = false;
    let mut checks: Vec<fn(Bug) -> ExitCode> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                _ => return usage("`--deny` must be followed by `warnings`"),
            },
            "--expect-findings" => expect_findings = true,
            "--json" => json = true,
            "--replay-check" => checks.push(run_replay_check),
            "--sched-check" => checks.push(run_sched_check),
            "--witness-check" => checks.push(run_witness_check),
            other => match parse_variant(other) {
                Some(bug) => variant = bug,
                None => return usage(&format!("got `{other}`")),
            },
        }
    }
    match checks[..] {
        [] => {}
        [check] => return check(variant),
        _ => return usage("give at most one check mode"),
    }

    let (_sys, app) = match build_decoder(variant, 4, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => return gate_failed(format!("build failed: {e}")),
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

/// Print a gate failure and fail.
fn gate_failed(detail: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {detail}");
    ExitCode::FAILURE
}

/// Build `variant` fresh, boot it under the debugger and attach the
/// environment: the starting point of every dynamic gate.
fn decoder_session(variant: Bug, n_mbs: u64) -> Result<Session, String> {
    let (sys, mut app) = build_decoder(variant, n_mbs, PlatformConfig::default())
        .map_err(|e| format!("build failed: {e}"))?;
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut session = Session::attach(sys, info);
    session
        .boot(boot)
        .map_err(|e| format!("boot failed: {e}"))?;
    attach_env(&mut session.sys, &app, n_mbs, 0xbeef)
        .map_err(|e| format!("env attach failed: {e}"))?;
    Ok(session)
}

/// The CI determinism gate, oracle D6 on the decoder: everything printed
/// is byte-stable across runs (no wall-clock, no addresses), so CI can
/// diff it against the pinned transcript.
fn run_replay_check(variant: Bug) -> ExitCode {
    const N_MBS: u64 = 8;
    const INTERVAL: u64 = 2_000;

    let mut session = match decoder_session(variant, N_MBS) {
        Ok(s) => s,
        Err(e) => return gate_failed(e),
    };
    session.enable_time_travel(INTERVAL);
    let trip = match replay_round_trip(&mut session, 50_000_000, 1_000_000) {
        Ok(t) => t,
        Err(d) => return gate_failed(d.detail),
    };
    let terminal = match trip.terminal {
        Stop::Deadlock => "deadlock",
        Stop::Quiescent => "quiescent",
        Stop::Fault { .. } => "fault",
        _ => "cycle-limit",
    };
    println!(
        "replay-check {variant:?}: {} stops, terminal {terminal}",
        trip.stops
    );
    println!("end cycle {} hash {:#018x}", trip.end_cycle, trip.end_hash);
    println!("reverse-continue landed at cycle {}", trip.landed);
    println!(
        "replayed to cycle {} hash {:#018x}",
        trip.replayed_cycle, trip.replayed_hash
    );
    println!("replay findings: {}", trip.findings.len());
    if !trip.findings.is_empty() {
        print!(
            "{}",
            dataflow_debugger::debuginfo::render_findings(&trip.findings)
        );
    }
    match trip.check() {
        Ok(()) => ExitCode::SUCCESS,
        Err(d) => gate_failed(d.detail),
    }
}

/// The differential gate for the static performance analyzer, oracle D3
/// on the decoder, plus the decoder's own checks: the seeded `SCH501`,
/// the golden checksum and the throughput bound.
fn run_sched_check(variant: Bug) -> ExitCode {
    const N_MBS: u64 = 8;
    const MAX_CYCLES: u64 = 5_000_000;

    // Static pass over the variant exactly as the ADL builds it.
    let (_sys, app) = match build_decoder(variant, N_MBS, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => return gate_failed(format!("build failed: {e}")),
    };
    let sources = decoder_sources(variant);
    let report = sched::analyze(&sched::AnalysisInput::from_app(&app, &sources));

    // Static detection direction: the seeded capacity bug must already be
    // an SCH501 on the as-built graph; the clean graph must carry none.
    let sch501: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == sched::rules::CAPACITY_BELOW_MIN)
        .map(|f| f.subject.as_str())
        .collect();
    match variant {
        Bug::TightFifo if sch501.is_empty() => {
            return gate_failed("seeded tight FIFO produced no SCH501 finding");
        }
        Bug::None if !sch501.is_empty() => {
            return gate_failed(format!("clean graph produced SCH501 findings: {sch501:?}"));
        }
        _ => {}
    }

    let arms = capacity_arms(&report, &app.graph, &sources, |caps| {
        let (sys, app) = run_decoder_with_caps(variant, N_MBS, 0xbeef, MAX_CYCLES, caps)?;
        let observed = observe(&sys);
        Ok((sys, app, observed))
    });
    let arms = match arms {
        Ok(Some(arms)) => arms,
        Ok(None) => return gate_failed("no analyzable link (nothing to check)"),
        Err(d) => return gate_failed(d.detail),
    };
    println!(
        "sched-check {variant:?}: {} analyzed links, period bound {} cycles",
        arms.caps.len(),
        report.period_lb
    );
    for (label, cap) in &arms.caps {
        println!("  min cap {label} = {cap}");
    }
    let (sys, app_min) = &arms.at_min;
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
            return gate_failed("output diverged from the golden model at minimal capacities");
        }
        println!("golden checksum intact at minimal capacities");
    }

    // Throughput: no schedule beats rep x BCET at the bottleneck, so the
    // measured whole-run cycle count must sit at or above the bound.
    if report.period_lb > 0 {
        let bound = report.period_lb * N_MBS;
        if cycles < bound {
            return gate_failed(format!(
                "measured {cycles} cycles beats the static bound {bound} \
                 ({} per iteration): the bound is unsound",
                report.period_lb
            ));
        }
        println!("throughput: {cycles} cycles for {N_MBS} iterations >= static bound {bound}");
    }

    for (label, cap, link) in &arms.squeezed {
        println!(
            "  {label} at {}: wedges, dynamic blame and SCH501 agree on {link}",
            cap - 1
        );
    }
    if arms.squeezed.is_empty() {
        println!("no analyzed link above the one-slot floor; squeeze arm vacuous");
        if matches!(variant, Bug::TightFifo) {
            return gate_failed("seeded tight FIFO exposed no above-floor link to squeeze");
        }
    }
    println!("sched-check PASS");
    ExitCode::SUCCESS
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
        _ => return gate_failed("--witness-check supports the deadlock, race and benign variants"),
    };
    let expect_witness = !matches!(variant, Bug::BenignScratch);

    // Static pass first: these are the claims the dynamic gate must
    // confirm or refute (spans resolve while the app still owns its
    // debug info).
    let (_sys, app) = match build_decoder(variant, N_MBS, PlatformConfig::default()) {
        Ok(x) => x,
        Err(e) => return gate_failed(format!("build failed: {e}")),
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
            return gate_failed("deadlock variant carries no static DFA003/DFA004 edge finding");
        }
        Bug::SharedScratch | Bug::BenignScratch if race_pair.is_none() => {
            return gate_failed("variant carries no static RACE401 — nothing to witness-check");
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
    let mut session = match decoder_session(variant, N_MBS) {
        Ok(s) => s,
        Err(e) => return gate_failed(e),
    };
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
        Err(e) => return gate_failed(format!("explore failed: {e}")),
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
            let replayed = decoder_session(variant, N_MBS).and_then(|mut fresh| {
                println!("{}", fresh.explore_replay(&wstr)?);
                Ok(fresh)
            });
            match replayed {
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
