//! Experiment E6: time-travel recording cost and reverse-execution
//! latency.
//!
//! The checkpoint engine must be cheap enough to leave on for a whole
//! interactive session: at the default interval the wall-clock
//! overhead over an identical un-recorded debug run should stay within a
//! few percent (EXPERIMENTS.md sets the gate at 10%). The second half
//! measures what the user actually waits for: the latency of a
//! `reverse-continue` from the end of the run, which is one restore plus
//! one replay of the window back to the previous checkpoint or replay
//! anchor (repeated for each earlier window with no hit).
//!
//! [`recording_check`] is the CI gate behind `report --e6-smoke`:
//! recording must not change what the user sees (§V: observing "does
//! not alter the execution semantic"), every checkpoint must replay to
//! the same end, checkpoints must share the recorded history, and
//! reverse execution must land where the forward run stopped;
//! [`thinned_chain_check`] adds the same replay check on a history long
//! enough to thin the checkpoint chain.

use std::time::{Duration, Instant};

use dfdbg::{RecordedStorage, Session, Stop, CHECKPOINT_BUDGET};
use h264_pipeline::{build_decoder, Bug};
use p2012::PlatformConfig;
use pedf::{EnvSink, EnvSource, ValueGen};

const SEED: u32 = 0xbeef;

/// One point on the cost/interval curve. `interval == 0` is the control:
/// the same debug session with time travel disabled.
#[derive(Debug, Clone)]
pub struct ReplayPoint {
    pub interval: u64,
    /// One-time `enable_time_travel` cost: baseline hash + machine
    /// fork. Paid once per session, independent of run length, so it is
    /// reported separately from the recording overhead.
    pub setup: Duration,
    /// Wall time of the recorded run itself (after setup).
    pub wall: Duration,
    pub cycles: u64,
    pub checkpoints: usize,
    /// Total pages dirtied across all checkpoint intervals.
    pub pages_stored: usize,
    /// Distinct chunks of recorded token and timeline history held by
    /// the session and its checkpoints together (see
    /// `Session::recorded_storage`).
    pub chunks: usize,
    /// Wall-clock ratio of the recorded run against the `interval == 0`
    /// control — the steady-state recording overhead.
    pub overhead: f64,
}

/// A timed `reverse-continue` from the end of a recorded run.
#[derive(Debug, Clone)]
pub struct ReverseLatency {
    pub interval: u64,
    pub wall: Duration,
    /// How far back the landing hit was (cycles rewound).
    pub rewound_cycles: u64,
}

fn debug_session(n_mbs: u64) -> Session {
    let (sys, mut app) = build_decoder(Bug::None, n_mbs, PlatformConfig::default()).expect("build");
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut s = Session::attach(sys, info);
    s.boot(boot).expect("boot");
    s.sys
        .runtime
        .add_source(
            EnvSource::new(app.boundary_in["bits_in"], 2, ValueGen::Lcg { state: SEED })
                .with_limit(n_mbs),
        )
        .unwrap();
    s.sys
        .runtime
        .add_source(
            EnvSource::new(
                app.boundary_in["cfg_in"],
                2,
                ValueGen::Counter { next: 0, step: 1 },
            )
            .with_limit(n_mbs),
        )
        .unwrap();
    s.sys
        .runtime
        .add_sink(EnvSink::new(app.boundary_out["frame_out"], 1))
        .unwrap();
    s
}

fn run_to_end(s: &mut Session) {
    loop {
        match s.run(50_000_000) {
            Stop::Quiescent => break,
            Stop::CycleLimit => panic!("decode did not finish"),
            Stop::Deadlock => panic!("unexpected deadlock"),
            _ => {}
        }
    }
}

/// Decode `n_mbs` macroblocks once per interval (plus the un-recorded
/// control) and report the cost/interval curve. Interval 0 runs first and
/// anchors the overhead ratios. Each point is the best of five measured
/// runs — the runs are only a few milliseconds, so a single sample is
/// dominated by scheduler noise.
pub fn checkpoint_overhead(n_mbs: u64, intervals: &[u64]) -> Vec<ReplayPoint> {
    const REPS: usize = 5;
    let mut out = Vec::new();
    let mut base_wall = None;
    for &interval in std::iter::once(&0u64).chain(intervals) {
        // Warm-up to stabilise allocator and page-cache state.
        {
            let mut w = debug_session(n_mbs.min(8));
            if interval > 0 {
                w.enable_time_travel(interval);
            }
            run_to_end(&mut w);
        }
        let mut best: Option<ReplayPoint> = None;
        for _ in 0..REPS {
            let mut s = debug_session(n_mbs);
            let setup_start = Instant::now();
            if interval > 0 {
                s.enable_time_travel(interval);
            }
            let setup = setup_start.elapsed();
            let start = Instant::now();
            run_to_end(&mut s);
            let wall = start.elapsed();
            let (checkpoints, pages_stored) = s.checkpoint_footprint();
            let chunks = s.recorded_storage().distinct_chunks;
            assert!(
                s.replay_findings().is_empty(),
                "recording flagged divergence on a clean run"
            );
            let p = ReplayPoint {
                interval,
                setup,
                wall,
                cycles: s.clock(),
                checkpoints,
                pages_stored,
                chunks,
                overhead: 1.0, // anchored below once the best rep is known
            };
            if best.as_ref().is_none_or(|b| p.wall < b.wall) {
                best = Some(p);
            }
        }
        let mut p = best.expect("REPS >= 1");
        let base = *base_wall.get_or_insert(p.wall.as_secs_f64());
        p.overhead = p.wall.as_secs_f64() / base;
        out.push(p);
    }
    out
}

/// Record a full decode at `interval`, install a send catchpoint on
/// `bh::red_out` *after* the fact, and time the `reverse-continue` that
/// rewinds to its last firing.
pub fn reverse_continue_latency(n_mbs: u64, interval: u64) -> ReverseLatency {
    let mut s = debug_session(n_mbs);
    s.enable_time_travel(interval);
    run_to_end(&mut s);
    let end = s.clock();
    s.catch_iface_send("bh::red_out").expect("catchpoint");
    let start = Instant::now();
    let stop = s.reverse_continue().expect("recorded hit");
    let wall = start.elapsed();
    assert!(
        matches!(stop, Stop::Dataflow(_)),
        "expected a catchpoint landing, got {stop:?}"
    );
    ReverseLatency {
        interval,
        wall,
        rewound_cycles: end - s.clock(),
    }
}

/// The sharing bound [`recording_check`] holds a recording to: the
/// elements stored in chunks of recorded history that only checkpoints
/// hold <= `ELEMENTS_PER_CHECKPOINT` x checkpoints. Counted in elements,
/// the bound does not depend on the chunk size; it is the earlier bound
/// of 6 chunks of 256 elements per checkpoint. `tests/time_travel.rs`
/// pins the same bound on a 512-macroblock decode.
pub const ELEMENTS_PER_CHECKPOINT: usize = 1_536;

/// How many seeded `goto` / `reverse-continue` pairs [`recording_check`]
/// runs, one target in each equal slice of the recorded span.
pub const REVERSE_PAIRS: u64 = 16;

/// What [`recording_check`] saw, and every violated property.
#[derive(Debug, Clone)]
pub struct RecordingCheck {
    pub stops: usize,
    pub end_cycle: u64,
    pub checkpoints: usize,
    /// The recorded history's half of (c), as `Session::recorded_storage`
    /// counts it.
    pub storage: RecordedStorage,
    /// The machine half of (c): memory-table chunks, as
    /// `Session::memory_chunks` counts them, and the chunks stores copied.
    pub live_mem_chunks: usize,
    pub distinct_mem_chunks: usize,
    pub mem_chunks_copied: u64,
    pub failures: Vec<String>,
}

/// What [`recording_check`] compares at a stop beside its cycle and
/// text: the machine's state hash and the model's `info links`.
fn seen(s: &Session) -> (u64, String) {
    (s.state_hash(), s.info_links())
}

/// Decode `n_mbs` macroblocks under `catch recv pipe::mc_in`, once with
/// time travel at `interval` and once without, and check that
///
/// * (a) both stop at the same cycles with the same `describe` text,
///   state hash and `info links`, and end in the same state hash and
///   `info links` — recording is not intrusive;
/// * (b) `restart` to every checkpoint, then replaying forward to the
///   end, gives the end hash and `info links` again;
/// * (c) the checkpoints share the recorded history within
///   [`ELEMENTS_PER_CHECKPOINT`], and the machine's memory table: the
///   chain holds no more distinct table chunks than the live memory plus
///   the chunks stores copied;
/// * (d) [`REVERSE_PAIRS`] seeded `goto T` / `reverse-continue` pairs
///   each land on the last stop (a) made before `T`: same cycle,
///   `describe` text, state hash and `info links`;
///
/// and that no replay of (b) or (d) reports `REPLAY501`.
pub fn recording_check(n_mbs: u64, interval: u64) -> RecordingCheck {
    let mut failures = Vec::new();
    let run = |time_travel: bool, failures: &mut Vec<String>| {
        let mut s = debug_session(n_mbs);
        if time_travel {
            s.enable_time_travel(interval);
        }
        s.catch_iface_receive("pipe::mc_in").expect("catchpoint");
        let mut stops = Vec::new();
        loop {
            match s.run(50_000_000) {
                Stop::Quiescent => break,
                stop @ Stop::Dataflow(_) => {
                    stops.push((s.clock(), s.describe(&stop), seen(&s)));
                }
                other => {
                    failures.push(format!("time travel {time_travel}: stopped with {other:?}"));
                    break;
                }
            }
        }
        (s, stops)
    };
    let (plain, plain_stops) = run(false, &mut failures);
    let (mut s, stops) = run(true, &mut failures);
    if stops != plain_stops {
        let at = stops.iter().zip(&plain_stops).position(|(a, b)| a != b);
        failures.push(format!(
            "(a) stop sequences differ: {} stops recorded, {} without, first difference at {at:?}",
            stops.len(),
            plain_stops.len()
        ));
    }
    let end = s.clock();
    let end_hash = s.state_hash();
    if end_hash != plain.state_hash() || end != plain.clock() {
        failures.push(format!(
            "(a) end state differs: cycle {end} hash {end_hash:#018x} recorded, \
             cycle {} hash {:#018x} without",
            plain.clock(),
            plain.state_hash()
        ));
    }
    let links = s.info_links();
    if links != plain.info_links() {
        failures.push("(a) `info links` at the end differs".to_string());
    }
    let (checkpoints, _) = s.checkpoint_footprint();
    let storage = s.recorded_storage();
    let (live_mem_chunks, distinct_mem_chunks) = s.memory_chunks();
    let mem_chunks_copied = s.sys.platform.mem.work().chunks_copied;
    for id in 0..checkpoints as u32 {
        replay_to_end(&mut s, id, (end, end_hash, &links), "(b)", &mut failures);
    }
    // (d): one seeded target in each slice of the span after the first
    // stop, so a stop precedes every target.
    let first = plain_stops.first().map_or(0, |x| x.0);
    let span = end.saturating_sub(first);
    let mut rng = proptest::TestRng::seeded(u64::from(SEED));
    for k in 0..REVERSE_PAIRS {
        let (lo, hi) = (span * k / REVERSE_PAIRS, span * (k + 1) / REVERSE_PAIRS);
        let target = first + 1 + lo + rng.below((hi - lo).max(1));
        let Some(want) = plain_stops.iter().rev().find(|x| x.0 < target) else {
            continue;
        };
        let landed = s.goto_cycle(target).and_then(|()| s.reverse_continue());
        match landed.map(|stop| (s.clock(), s.describe(&stop), seen(&s))) {
            Ok(got) if got == *want => {}
            Ok((cycle, text, (hash, _))) => failures.push(format!(
                "(d) reverse-continue from {target} landed at cycle {cycle} ({text}, \
                 hash {hash:#018x}), want cycle {} ({}, hash {:#018x}), or \
                 `info links` differs",
                want.0, want.1, want.2 .0
            )),
            Err(e) => failures.push(format!("(d) goto {target} / reverse-continue: {e}")),
        }
    }
    for f in s.replay_findings() {
        failures.push(format!("(b, d) {}: {}", f.rule, f.message));
    }
    if storage.checkpoint_only_elements > ELEMENTS_PER_CHECKPOINT * checkpoints {
        failures.push(format!(
            "(c) checkpoints alone hold {} elements > {ELEMENTS_PER_CHECKPOINT} x \
             {checkpoints} checkpoints",
            storage.checkpoint_only_elements
        ));
    }
    if distinct_mem_chunks as u64 > live_mem_chunks as u64 + mem_chunks_copied {
        failures.push(format!(
            "(c) {distinct_mem_chunks} distinct memory-table chunks > \
             {live_mem_chunks} live + {mem_chunks_copied} copied"
        ));
    }
    RecordingCheck {
        stops: stops.len(),
        end_cycle: end,
        checkpoints,
        storage,
        live_mem_chunks,
        distinct_mem_chunks,
        mem_chunks_copied,
        failures,
    }
}

/// `restart id`, then run forward to the end (cycle, state hash and
/// `info links`); a miss is a failure labelled `check`.
fn replay_to_end(
    s: &mut Session,
    id: u32,
    (end, end_hash, links): (u64, u64, &str),
    check: &str,
    failures: &mut Vec<String>,
) {
    if let Err(e) = s.restart(id) {
        failures.push(format!("{check} restart {id}: {e}"));
        return;
    }
    while s.clock() < end {
        let budget = end - s.clock();
        if let Stop::Quiescent | Stop::Deadlock | Stop::Fault { .. } = s.run(budget) {
            break;
        }
    }
    if s.clock() != end || s.state_hash() != end_hash {
        failures.push(format!(
            "{check} restart {id}: replay ended at cycle {} hash {:#018x}",
            s.clock(),
            s.state_hash()
        ));
    }
    if s.info_links() != links {
        failures.push(format!(
            "{check} restart {id}: `info links` differs at the end"
        ));
    }
}

/// What [`thinned_chain_check`] saw, and every violated property.
#[derive(Debug, Clone)]
pub struct ThinnedChainCheck {
    pub end_cycle: u64,
    /// How many times the chain thinned (its spacing doubled).
    pub thinnings: u32,
    pub checkpoints: usize,
    pub pinned: usize,
    pub failures: Vec<String>,
}

/// (e): decode `n_mbs` macroblocks with time travel from `interval`,
/// long enough for the chain to thin at least twice, and check that it
/// holds at most [`CHECKPOINT_BUDGET`] checkpoints beside the pinned
/// ones, and that `restart` to every kept checkpoint, then replaying
/// forward, gives the end hash and `info links` again with no
/// `REPLAY501`.
pub fn thinned_chain_check(n_mbs: u64, interval: u64) -> ThinnedChainCheck {
    let mut failures = Vec::new();
    let mut s = debug_session(n_mbs);
    s.enable_time_travel(interval);
    let stop = s.run(u64::MAX);
    if stop != Stop::Quiescent {
        failures.push(format!("(e) the decode stopped with {stop:?}"));
    }
    let (end, end_hash, links) = (s.clock(), s.state_hash(), s.info_links());
    let spacing = s.checkpoint_spacing().unwrap_or(interval);
    let thinnings = (spacing / interval).trailing_zeros();
    if thinnings < 2 {
        failures.push(format!(
            "(e) the chain thinned {thinnings} times, want 2 or more"
        ));
    }
    let chain = s.checkpoint_chain();
    let pinned = chain.iter().filter(|c| c.pinned).count();
    if chain.len() > CHECKPOINT_BUDGET + pinned {
        failures.push(format!(
            "(e) {} checkpoints > {CHECKPOINT_BUDGET} + {pinned} pinned",
            chain.len()
        ));
    }
    for c in &chain {
        replay_to_end(&mut s, c.id, (end, end_hash, &links), "(e)", &mut failures);
    }
    for f in s.replay_findings() {
        failures.push(format!("(e) {}: {}", f.rule, f.message));
    }
    ThinnedChainCheck {
        end_cycle: end,
        thinnings,
        checkpoints: chain.len(),
        pinned,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_shape_and_clean_recording() {
        let pts = checkpoint_overhead(6, &[500, 2_000]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].interval, 0);
        assert_eq!(pts[0].checkpoints, 0);
        // Recording points actually recorded, and denser intervals record
        // more checkpoints.
        assert!(pts[1].checkpoints > pts[2].checkpoints);
        assert!(pts[2].checkpoints >= 1);
        // Identical simulated execution in all configurations.
        assert!(pts.iter().all(|p| p.cycles == pts[0].cycles));
    }

    #[test]
    fn recording_check_passes_on_a_short_decode() {
        let r = recording_check(6, 1_000);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.stops == 6 && r.checkpoints > 1, "{r:?}");
    }

    #[test]
    fn reverse_continue_lands_in_the_past() {
        let r = reverse_continue_latency(6, 1_000);
        assert!(r.rewound_cycles > 0);
    }
}
