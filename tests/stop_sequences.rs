//! Pins the debugger's stops: every decoder variant, booted under the
//! debugger in both capture modes (function breakpoints and framework
//! cooperation) with its environment attached, runs one fixed script —
//! a breakpoint on every filter's WORK, a receive and a send catchpoint,
//! a watchpoint, then `step`, `next` and `finish` at the first stops and
//! `continue` to the end or to `MAX_STOPS` stops. The cycle, the
//! `describe` text and the full state hash of every stop are compared
//! with `tests/golden/stop_sequences.txt`.
//!
//! The stepper digests pin the machine; this pins what the debugger makes
//! of it: which PEs it looks at, in which order stops queue, and when a
//! fault is reported again (a faulted PE is re-reported one cycle after
//! a `continue` past it).

use dfdbg::{Session, Stop};
use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::PlatformConfig;
use pedf::ActorKind;

const N_MBS: u64 = 16;
const MAX_STOPS: usize = 200;

const VARIANTS: [Bug; 9] = [
    Bug::None,
    Bug::RateMismatch,
    Bug::WrongValue,
    Bug::Deadlock,
    Bug::OobStore,
    Bug::SharedScratch,
    Bug::BenignScratch,
    Bug::DmaOverlap,
    Bug::TightFifo,
];

fn note(out: &mut String, s: &Session, what: &str, stop: &Stop) {
    let text = s.describe(stop).replace('\n', " | ");
    out.push_str(&format!(
        "  {what} @{} {text} hash={:#018x}\n",
        s.sys.clock(),
        s.state_hash()
    ));
}

/// The golden block of one variant in one capture mode.
fn sequence(bug: Bug, coop: bool) -> String {
    let (sys, mut app) = build_decoder(bug, N_MBS, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut s = Session::attach(sys, info);
    if coop {
        s.use_framework_cooperation();
    }
    s.boot(boot).unwrap();
    attach_env(&mut s.sys, &app, N_MBS, 0xbeef).unwrap();
    for f in s.actors_of_kind(ActorKind::Filter) {
        let short = f.rsplit('.').next().unwrap().to_string();
        s.catch_work(&short).unwrap();
    }
    s.catch_iface_receive("pipe::mc_in").unwrap();
    s.catch_iface_send("bh::red_out").unwrap();
    s.watch_object("RedFilter_data_mb_count").unwrap();

    let mode = if coop { "cooperation" } else { "breakpoints" };
    let mut out = format!("{bug:?} {mode}\n");
    let mut stops = 0;
    let mut stop = s.cont();
    note(&mut out, &s, "continue", &stop);
    stops += 1;
    for cmd in ["step", "next", "finish"] {
        let r = match cmd {
            "step" => s.step(),
            "next" => s.next(),
            _ => s.finish(),
        };
        match r {
            Ok(st) => {
                note(&mut out, &s, cmd, &st);
                stop = st;
            }
            Err(e) => out.push_str(&format!("  {cmd} error: {e}\n")),
        }
        stops += 1;
    }
    while stops < MAX_STOPS && !matches!(stop, Stop::Quiescent | Stop::Deadlock | Stop::CycleLimit)
    {
        stop = s.cont();
        note(&mut out, &s, "continue", &stop);
        stops += 1;
    }
    out
}

#[test]
fn every_decoder_variant_stops_like_the_reference() {
    let mut got = String::new();
    for bug in VARIANTS {
        for coop in [false, true] {
            got.push_str(&sequence(bug, coop));
        }
    }
    let want = include_str!("golden/stop_sequences.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stop_sequences.txt");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "stop sequences changed; the new ones are in {}",
            path.display()
        );
    }
}
