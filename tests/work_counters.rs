//! Counts the work the machine and the debugger do on the 256-macroblock
//! decode in the paper's default mode (every function breakpoint, time
//! travel recording). The counts are deterministic: how many times the
//! debugger looked at a PE, how often a parked PE was woken, how often
//! the runtime was asked whether a woken PE still waits, and how many
//! traps reached it, and how many memory-table chunks and pages a store
//! found shared with a checkpoint and copied. A debugger that looked at every PE in each of its
//! three per-cycle passes would make 33 visits per cycle; a machine that
//! polled its blocked PEs would ask about 4.4 of them every cycle.
//!
//! Beside the decode, the file pins the work of two searches: the race
//! hunt's simulated cycles and the bytecode verifier's worklist steps.

use bcv::PassWork;
use dfdbg::{Session, Stop, CHECKPOINT_INTERVAL};
use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::{MachineWork, MemoryWork, PlatformConfig};

const N_MBS: u64 = 256;

/// Measured on this decode and pinned: a change that moves them should
/// say why.
const CYCLES: u64 = 72_968;
const PE_VISITS: u64 = 40_970;
const WORK: MachineWork = MachineWork {
    wakeups: 4_352,
    probes: 4_352,
    dispatches: 14_338,
};
/// Every checkpoint shares the memory; the stores after the run's
/// checkpoints (one every 2,000 cycles until the chain thins, then every
/// 4,000) copy 116 pages, each in a chunk of its own.
const MEM_WORK: MemoryWork = MemoryWork {
    chunks_copied: 116,
    pages_copied: 116,
};

#[test]
fn the_decode_costs_what_happens_in_it() {
    let (sys, app) = build_decoder(Bug::None, N_MBS, PlatformConfig::default()).unwrap();
    let mut s = Session::attach(sys, app.info.clone());
    s.boot(app.boot_entry).unwrap();
    attach_env(&mut s.sys, &app, N_MBS, 0xbeef).unwrap();
    s.enable_time_travel(CHECKPOINT_INTERVAL);
    let (c0, v0, w0) = (s.clock(), s.pe_visits(), s.sys.platform.work());
    let m0 = s.sys.platform.mem.work();
    assert_eq!(s.run(u64::MAX), Stop::Quiescent);
    let cycles = s.clock() - c0;
    let visits = s.pe_visits() - v0;
    let w = s.sys.platform.work();
    let work = MachineWork {
        wakeups: w.wakeups - w0.wakeups,
        probes: w.probes - w0.probes,
        dispatches: w.dispatches - w0.dispatches,
    };
    let m = s.sys.platform.mem.work();
    let mem_work = MemoryWork {
        chunks_copied: m.chunks_copied - m0.chunks_copied,
        pages_copied: m.pages_copied - m0.pages_copied,
    };
    println!("cycles {cycles}, PE visits {visits}, {work:?}, {mem_work:?}");

    assert!(
        visits <= 3 * cycles,
        "{visits} debugger PE visits in {cycles} cycles"
    );
    assert!(
        work.probes <= work.wakeups + work.dispatches,
        "{work:?}: the machine asks about PEs nothing woke"
    );
    assert_eq!(
        (cycles, visits, work, mem_work),
        (CYCLES, PE_VISITS, WORK, MEM_WORK),
        "the pinned work counts moved"
    );
}

/// The race hunt on the 16-macroblock shared-scratch decoder, the one the
/// `explore` benchmark repeats most: the cycles its universes simulate,
/// the reference's included, and how many universes stopped where they
/// rejoined the reference run.
const HUNT_CYCLES: u64 = 55_914;
const HUNT_JOINED: u64 = 8;

#[test]
fn the_race_hunt_costs_what_it_simulates() {
    let mut cli = server::session::build_cli(Bug::SharedScratch, 16).unwrap();
    let out = cli.exec("explore --until race");
    assert!(out.contains("WITNESS MV702"), "{out}");
    let st = cli.session.last_explore.as_ref().unwrap().stats;
    println!("{st:?}");
    assert_eq!(
        (st.cycles_stepped, st.universes_joined),
        (HUNT_CYCLES, HUNT_JOINED),
        "the pinned hunt counts moved"
    );
}

/// The bytecode verifier's worklist steps (points taken off the worklist
/// by the depth pass and by the interval fixpoint), summed over the nine
/// decoder variants. The fixpoint's order, joins and widening decide
/// them, not how its states are stored.
const BCV_WORK: PassWork = PassWork {
    depth_steps: 7_963,
    interval_steps: 8_155,
};

#[test]
fn the_bytecode_verifier_visits_the_pinned_points() {
    let mut work = PassWork::default();
    for bug in [
        Bug::None,
        Bug::RateMismatch,
        Bug::WrongValue,
        Bug::Deadlock,
        Bug::OobStore,
        Bug::SharedScratch,
        Bug::BenignScratch,
        Bug::DmaOverlap,
        Bug::TightFifo,
    ] {
        let (_, app) = build_decoder(bug, 4, PlatformConfig::default()).unwrap();
        work += bcv::verify(&bcv::AnalysisInput::from_app(&app)).work;
    }
    println!("{work:?}");
    assert_eq!(work, BCV_WORK, "the pinned verifier work moved");
}
