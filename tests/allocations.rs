//! Counts the heap allocations of the debugger's two hottest paths, with
//! a counting global allocator. The binary holds exactly one test, so no
//! other test thread allocates while a count is taken.
//!
//! * `run 20000` on the 256-macroblock decode in the paper's default mode
//!   (every function breakpoint, time travel recording): the second
//!   such command of the session, past boot and the first checkpoints.
//! * One `goto` plus `reverse-continue` pair on the same decoder under
//!   `catch recv pipe::mc_in` after recording it to the end, as the
//!   `timetravel` benchmark does: restores, replays, replay anchors and
//!   the snapshot the reverse pass keeps of each hit.
//! * The same decoder's second bare `System::run(20000)`, with no
//!   debugger attached: what the machine and the runtime allocate.
//! * The second `analyze --json` on an unbooted Deadlock decoder session
//!   with all three analyzers' inputs loaded, as the `analyze` benchmark
//!   runs it: kernel parse, dfa, bcv, sched and the JSON rendering.
//!
//! The counts are deterministic. A change that moves them should say why
//! and give the new readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dfdbg::cli::Cli;
use dfdbg::{Session, Stop, CHECKPOINT_INTERVAL};
use h264_pipeline::{attach_env, build_decoder, decoder_sources, Bug};
use p2012::PlatformConfig;

/// Every `alloc`, `alloc_zeroed` and `realloc`, process-wide.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const N_MBS: u64 = 256;
const ENV_SEED: u32 = 0xbeef;

/// Pinned readings.
const RUN_ALLOCATIONS: u64 = 938;
const REVERSE_PAIR_ALLOCATIONS: u64 = 455;
const BARE_RUN_ALLOCATIONS: u64 = 0;
const ANALYZE_ALLOCATIONS: u64 = 1_501;

fn decode_session() -> Session {
    let (sys, app) = build_decoder(Bug::None, N_MBS, PlatformConfig::default()).unwrap();
    let mut s = Session::attach(sys, app.info.clone());
    s.boot(app.boot_entry).unwrap();
    attach_env(&mut s.sys, &app, N_MBS, ENV_SEED).unwrap();
    s.enable_time_travel(CHECKPOINT_INTERVAL);
    s
}

#[test]
fn the_hot_paths_allocate_what_is_pinned() {
    // `run 20000` with every function breakpoint and time travel on.
    let mut cli = Cli::new(decode_session());
    cli.exec("run 20000");
    assert_eq!(cli.last_stop, Some(Stop::CycleLimit));
    let (_, run) = allocations(|| cli.exec("run 20000"));
    assert_eq!(cli.last_stop, Some(Stop::CycleLimit));

    // Record to the end under the catchpoint, then one `goto` and
    // `reverse-continue` pair from the middle of the recording.
    let mut cli = Cli::new(decode_session());
    assert!(cli.exec("catch recv pipe::mc_in").starts_with("Catchpoint"));
    let mut stops = Vec::new();
    loop {
        cli.exec("continue");
        match cli.last_stop {
            Some(Stop::Dataflow(_)) => stops.push(cli.session.clock()),
            Some(Stop::Quiescent) => break,
            ref other => panic!("recording stopped with {other:?}"),
        }
    }
    let target = cli.session.clock() / 2 + 1_234;
    let goto = format!("goto {target}");
    let ((at, landing), pair) = allocations(|| {
        let at = cli.exec(&goto);
        (at, cli.exec("reverse-continue"))
    });
    assert_eq!(at, format!("At cycle {target}"));
    let want = stops.iter().rev().find(|c| **c < target).copied();
    assert_eq!(Some(cli.session.clock()), want, "{landing}");

    // The machine alone, past boot and a first 20,000 cycles.
    let (mut sys, app) = build_decoder(Bug::None, N_MBS, PlatformConfig::default()).unwrap();
    sys.boot(app.boot_entry).unwrap();
    attach_env(&mut sys, &app, N_MBS, ENV_SEED).unwrap();
    sys.run(20_000);
    let (_, bare) = allocations(|| sys.run(20_000));
    assert!(sys.first_fault().is_none());

    // One `analyze --json` on an unbooted session with every analyzer's
    // input loaded.
    let (sys, app) = build_decoder(Bug::Deadlock, 8, PlatformConfig::default()).unwrap();
    let sources = decoder_sources(Bug::Deadlock);
    let mut s = Session::attach(sys, app.info.clone());
    s.load_analysis(dfa::AnalysisInput::from_app(&app, &sources));
    s.load_bcv_input(bcv::AnalysisInput::from_app(&app));
    s.load_sched_input(sched::AnalysisInput::from_app(&app, &sources));
    let mut cli = Cli::new(s);
    let first = cli.exec("analyze --json");
    let (again, analyze) = allocations(|| cli.exec("analyze --json"));
    assert_eq!(again, first);
    assert!(first.contains("DFA003"), "{first}");

    println!(
        "run 20000: {run} allocations; goto + reverse-continue: {pair}; bare run 20000: {bare}; \
         analyze --json: {analyze}"
    );
    assert_eq!(
        (run, pair, bare, analyze),
        (
            RUN_ALLOCATIONS,
            REVERSE_PAIR_ALLOCATIONS,
            BARE_RUN_ALLOCATIONS,
            ANALYZE_ALLOCATIONS
        ),
        "the pinned allocation counts moved"
    );
}
