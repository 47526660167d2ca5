//! `h264-pipeline` — the case-study application (§VI).
//!
//! An H.264-style macroblock decoding pipeline written against PEDF, with
//! the exact module/filter decomposition and interface names of the
//! paper's Fig. 4, a bit-exact golden model for output validation, and
//! seeded-bug variants for the debugging experiments:
//!
//! * [`Bug::RateMismatch`] — the Fig. 4 scenario (token backlog on
//!   `pipe -> ipf`);
//! * [`Bug::WrongValue`] — the §VI-D token-flow investigation;
//! * [`Bug::Deadlock`] — the §III token-injection scenario.

pub mod app;
pub mod golden;

pub use app::{decoder_adl, decoder_sources, Bug, DECODER_ADL};
pub use mind::CompiledApp;

use std::collections::BTreeMap;

use p2012::PlatformConfig;
use pedf::{ActorId, EnvSink, EnvSource, System, ValueGen};

/// Build a decoder variant, ready to boot. `n_mbs` bounds both module
/// step counts (one macroblock per step).
pub fn build_decoder(
    bug: Bug,
    n_mbs: u64,
    config: PlatformConfig,
) -> Result<(System, CompiledApp), mind::BuildError> {
    build_decoder_with_caps(bug, n_mbs, config, &BTreeMap::new())
}

/// [`build_decoder`], with FIFO capacity overrides (producer
/// `actor::conn` → slots) applied over the ADL's `cap` annotations —
/// the hook the `analyze --sched-check` differential gate uses to replay
/// statically predicted buffer sizes on the real simulator.
pub fn build_decoder_with_caps(
    bug: Bug,
    n_mbs: u64,
    config: PlatformConfig,
    caps: &BTreeMap<String, u32>,
) -> Result<(System, CompiledApp), mind::BuildError> {
    let (mut sys, app) =
        mind::build_with_caps(&decoder_adl(bug), &decoder_sources(bug), config, caps)?;
    for m in ["front", "pred"] {
        let id = app.actor(m).expect("module exists");
        sys.runtime.set_max_steps(id, n_mbs);
    }
    Ok((sys, app))
}

/// Attach the environment streams (bitstream + config) and the frame sink.
/// Must run **after** boot (the runtime validates against the live graph).
pub fn attach_env(
    sys: &mut System,
    app: &CompiledApp,
    n_mbs: u64,
    seed: u32,
) -> Result<(), String> {
    sys.runtime.add_source(
        EnvSource::new(app.boundary_in["bits_in"], 2, ValueGen::Lcg { state: seed })
            .with_limit(n_mbs),
    )?;
    sys.runtime.add_source(
        EnvSource::new(
            app.boundary_in["cfg_in"],
            2,
            ValueGen::Counter { next: 0, step: 1 },
        )
        .with_limit(n_mbs),
    )?;
    sys.runtime
        .add_sink(EnvSink::new(app.boundary_out["frame_out"], 1))?;
    Ok(())
}

/// Result of a decoder run.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    pub frames: Vec<u32>,
    pub checksum: u64,
    pub cycles: u64,
    pub finished: bool,
    pub tokens_moved: u64,
}

/// Boot and run a decoder without any debugger attached — the baseline of
/// the overhead experiment (E1) and the golden-comparison path.
pub fn run_decoder(
    bug: Bug,
    n_mbs: u64,
    seed: u32,
    max_cycles: u64,
) -> Result<DecodeResult, String> {
    let (sys, app) = run_decoder_with_caps(bug, n_mbs, seed, max_cycles, &BTreeMap::new())?;
    if let Some((pe, fault)) = sys.first_fault() {
        return Err(format!("fault on {pe}: {fault}"));
    }
    let sink = sys
        .runtime
        .sink_for(app.boundary_out["frame_out"])
        .expect("sink attached");
    Ok(DecodeResult {
        frames: sink.tail.clone(),
        checksum: sink.checksum,
        cycles: sys.clock(),
        finished: sys.platform.is_quiescent(),
        tokens_moved: sys.runtime.stats.tokens_pushed,
    })
}

/// [`run_decoder`] at FIFO capacity overrides (see
/// [`build_decoder_with_caps`]): build, boot, attach the environment and
/// run for at most `max_cycles` or until quiescence. Returns the machine
/// as the run left it — finished, wedged or faulted — for inspection.
pub fn run_decoder_with_caps(
    bug: Bug,
    n_mbs: u64,
    seed: u32,
    max_cycles: u64,
    caps: &BTreeMap<String, u32>,
) -> Result<(System, CompiledApp), String> {
    let (mut sys, app) = build_decoder_with_caps(bug, n_mbs, PlatformConfig::default(), caps)
        .map_err(|e| e.to_string())?;
    sys.boot(app.boot_entry)?;
    attach_env(&mut sys, &app, n_mbs, seed)?;
    sys.run_to_quiescence(max_cycles);
    Ok((sys, app))
}

/// Actor ids frequently needed by experiments.
pub fn actor(app: &CompiledApp, name: &str) -> ActorId {
    app.actor(name)
        .unwrap_or_else(|| panic!("decoder has an actor named `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_decode_matches_the_golden_model() {
        let n = 24;
        let seed = 0xbeef;
        let r = run_decoder(Bug::None, n, seed, 2_000_000).unwrap();
        assert!(r.finished, "decoder did not finish");
        let expect = golden::decode_stream(n as u32, seed);
        assert_eq!(r.frames.len(), n as usize);
        assert_eq!(r.frames, expect);
        assert_eq!(r.checksum, golden::checksum(&expect));
    }

    #[test]
    fn decode_is_reproducible() {
        let a = run_decoder(Bug::None, 8, 7, 2_000_000).unwrap();
        let b = run_decoder(Bug::None, 8, 7, 2_000_000).unwrap();
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.cycles, b.cycles, "cycle-level determinism");
    }

    #[test]
    fn graph_matches_fig4_structure() {
        let (_, app) = build_decoder(Bug::None, 1, PlatformConfig::default()).unwrap();
        let g = &app.graph;
        // Modules front & pred under the Decoder assembly.
        let front = g.actor_by_name("front").unwrap();
        let pred = g.actor_by_name("pred").unwrap();
        assert_eq!(
            g.children(front.id)
                .filter(|a| a.kind == pedf::ActorKind::Filter)
                .count(),
            3
        );
        assert_eq!(
            g.children(pred.id)
                .filter(|a| a.kind == pedf::ActorKind::Filter)
                .count(),
            4
        );
        // The paper's interface names resolve.
        for spec in [
            "hwcfg::pipe_MbType_out",
            "pipe::Red2PipeCbMB_in",
            "ipred::Add2Dblock_ipf_out",
            "ipred::Pipe_in",
            "ipred::Hwcfg_in",
            "ipf::Add2Dblock_ipred_in",
        ] {
            assert!(app.conn(spec).is_some(), "{spec}");
        }
        // CbCrMB_t has the §VI-E fields.
        let ty = app.types.lookup_by_name("CbCrMB_t").unwrap();
        for field in ["Addr", "InterNotIntra", "Izz"] {
            assert!(app.types.field(ty, field).is_some(), "{field}");
        }
        // The pipe -> ipf chain flattens into one link with capacity 32.
        let pipe_conn = app.conn("pipe::pipe_ipf_out").unwrap();
        let link = g.conn(pipe_conn).link.unwrap();
        assert_eq!(g.link(link).capacity, 32);
        let (_, to) = g.link_ends(link);
        assert_eq!(g.actor(to).name, "ipf");
    }

    #[test]
    fn wrong_value_bug_corrupts_exactly_one_macroblock() {
        let n = 12;
        let seed = 0xbeef;
        let good = run_decoder(Bug::None, n, seed, 2_000_000).unwrap();
        let bad = run_decoder(Bug::WrongValue, n, seed, 2_000_000).unwrap();
        assert!(bad.finished);
        let diffs: Vec<usize> = good
            .frames
            .iter()
            .zip(&bad.frames)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![5], "only MB #5 is corrupted");
    }

    #[test]
    fn rate_mismatch_accumulates_backlog() {
        let (mut sys, app) =
            build_decoder(Bug::RateMismatch, 12, PlatformConfig::default()).unwrap();
        sys.boot(app.boot_entry).unwrap();
        attach_env(&mut sys, &app, 12, 1).unwrap();
        sys.run_to_quiescence(3_000_000);
        assert_eq!(sys.first_fault(), None);
        let pipe_conn = app.conn("pipe::pipe_ipf_out").unwrap();
        let link = app.graph.conn(pipe_conn).link.unwrap();
        // 12 steps x 3 pushed, 12 consumed -> 24 left queued.
        assert_eq!(sys.runtime.occupancy(link), 24);
    }

    #[test]
    fn tight_fifo_wedges_at_one_slot_and_runs_at_two() {
        // At the ADL's single slot, `red` blocks pushing the second
        // residual half while `pipe` waits for the header: deadlock,
        // blamed on the undersized red -> ipred link.
        let (mut sys, app) = build_decoder(Bug::TightFifo, 8, PlatformConfig::default()).unwrap();
        sys.boot(app.boot_entry).unwrap();
        attach_env(&mut sys, &app, 8, 1).unwrap();
        assert!(!sys.run_to_quiescence(500_000), "cap 1 must wedge");
        assert!(sys.platform.is_deadlocked());
        let red_conn = app.conn("red::red_ipred_out").unwrap();
        let link = app.graph.conn(red_conn).link.unwrap();
        let red_pe = sys.runtime.graph.actor(actor(&app, "red")).pe.unwrap();
        assert!(matches!(
            sys.pe_status(red_pe),
            p2012::PeStatus::Blocked(p2012::BlockReason::SpaceWait { link: l }) if l == link.0
        ));
        // One more slot is exactly enough.
        let caps: BTreeMap<String, u32> = [("red::red_ipred_out".to_string(), 2)].into();
        let (mut sys, app) =
            build_decoder_with_caps(Bug::TightFifo, 8, PlatformConfig::default(), &caps).unwrap();
        sys.boot(app.boot_entry).unwrap();
        attach_env(&mut sys, &app, 8, 1).unwrap();
        assert!(sys.run_to_quiescence(2_000_000), "cap 2 must complete");
        assert_eq!(sys.first_fault(), None);
    }

    #[test]
    fn capacity_override_typo_is_a_build_error() {
        let caps: BTreeMap<String, u32> = [("red::no_such_conn".to_string(), 2)].into();
        let err = build_decoder_with_caps(Bug::None, 1, PlatformConfig::default(), &caps)
            .expect_err("unknown override must fail the build");
        assert!(err.to_string().contains("no_such_conn"), "{err}");
    }

    #[test]
    fn deadlock_bug_deadlocks() {
        let (mut sys, app) = build_decoder(Bug::Deadlock, 8, PlatformConfig::default()).unwrap();
        sys.boot(app.boot_entry).unwrap();
        attach_env(&mut sys, &app, 8, 1).unwrap();
        let finished = sys.run_to_quiescence(500_000);
        assert!(!finished, "the deadlock variant must not finish");
        assert!(sys.platform.is_deadlocked());
        // ipred is the filter stuck waiting for tokens.
        let ipred = actor(&app, "ipred");
        let pe = sys.runtime.graph.actor(ipred).pe.unwrap();
        assert!(matches!(
            sys.pe_status(pe),
            p2012::PeStatus::Blocked(p2012::BlockReason::TokenWait { .. })
        ));
    }
}
