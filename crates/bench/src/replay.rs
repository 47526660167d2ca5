//! Experiment E6: time-travel recording cost and reverse-execution
//! latency.
//!
//! The checkpoint engine must be cheap enough to leave on for a whole
//! interactive session: at the default 10k-cycle interval the wall-clock
//! overhead over an identical un-recorded debug run should stay within a
//! few percent (EXPERIMENTS.md sets the gate at 10%). The second half
//! measures what the user actually waits for: the latency of a
//! `reverse-continue` from the end of the run, which is one restore plus
//! at most two interval-long replays.

use std::time::{Duration, Instant};

use dfdbg::{Session, Stop};
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
    fn reverse_continue_lands_in_the_past() {
        let r = reverse_continue_latency(6, 1_000);
        assert!(r.rewound_cycles > 0);
    }
}
