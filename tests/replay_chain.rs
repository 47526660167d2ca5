//! Pins the time-travel checkpoint chain: every decoder variant, booted
//! under the debugger with its environment attached and time travel
//! every 500 cycles, runs to its end. The `info checkpoints` table (id,
//! cycle, dirty pages, chained hash), the full state hash after
//! `restart` to every checkpoint and after `goto` back to the end are
//! compared with `tests/golden/replay_chain.txt`. A change to how
//! checkpoints are stored or restored must reproduce the same chain and
//! land on the same states.
//!
//! Independently of the golden file, every restored state must hash like
//! the state the forward run had at that cycle, and `goto` back to the
//! end like the end of the forward run.

use std::collections::BTreeMap;

use dfdbg::{Session, Stop};
use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::PlatformConfig;

const N_MBS: u64 = 16;
const INTERVAL: u64 = 500;
const MAX_CYCLES: u64 = 1_000_000;

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

/// The golden block of one variant.
fn chain(bug: Bug) -> String {
    let (sys, mut app) = build_decoder(bug, N_MBS, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut s = Session::attach(sys, info);
    s.boot(boot).unwrap();
    attach_env(&mut s.sys, &app, N_MBS, 0xbeef).unwrap();
    s.enable_time_travel(INTERVAL);

    // Run to the end one checkpoint interval at a time, noting the state
    // hash at every boundary the auto-policy checkpoints.
    let mut forward = BTreeMap::from([(s.sys.clock(), s.state_hash())]);
    let terminal = loop {
        let next = s.sys.clock() + INTERVAL;
        let stop = s.run(next - s.sys.clock());
        if s.sys.clock() == next {
            forward.insert(next, s.state_hash());
        }
        match stop {
            Stop::Deadlock | Stop::Quiescent | Stop::Fault { .. } => break stop,
            _ if s.sys.clock() >= MAX_CYCLES => break stop,
            _ => {}
        }
    };
    let end = s.sys.clock();
    let end_hash = s.state_hash();
    let mut out = format!(
        "{bug:?} end={end} terminal={} hash={end_hash:#018x}\n",
        match terminal {
            Stop::Deadlock => "deadlock",
            Stop::Quiescent => "quiescent",
            Stop::Fault { .. } => "fault",
            _ => "cycle-limit",
        },
    );
    out.push_str(&s.checkpoints_info().unwrap());
    let (checkpoints, _) = s.checkpoint_footprint();
    for id in 0..checkpoints as u32 {
        let clock = s.restart(id).unwrap();
        let hash = s.state_hash();
        assert_eq!(
            Some(&hash),
            forward.get(&clock),
            "{bug:?}: restart {id} is not the state the forward run had at cycle {clock}"
        );
        out.push_str(&format!(
            "restart {id} -> cycle {clock} hash {hash:#018x}\n"
        ));
    }
    s.goto_cycle(end).unwrap();
    let hash = s.state_hash();
    assert_eq!(hash, end_hash, "{bug:?}: goto {end} missed the end state");
    out.push_str(&format!(
        "goto {end} -> cycle {} hash {hash:#018x} findings {}\n",
        s.sys.clock(),
        s.replay_findings().len()
    ));
    out
}

#[test]
fn every_decoder_variant_records_and_restores_the_same_chain() {
    let got: String = VARIANTS.iter().map(|&b| chain(b)).collect();
    let want = include_str!("golden/replay_chain.txt");
    assert_eq!(got, want, "replay chain changed; the new one is:\n{got}");
}
