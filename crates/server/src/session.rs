//! Session construction shared by every front end.
//!
//! The local REPL, the TCP server and the in-process reference path of
//! the transcript-diff gate all build their debug sessions through
//! [`build_cli`], so "remote" and "local" cannot drift apart in how a
//! session is booted — the CI byte-compare (Guo et al.'s differential
//! discipline, PAPERS.md) then only has to catch wire-level mangling.

use bcv;
use dfa::AnalysisInput;
use dfdbg::cli::Cli;
use dfdbg::{AppCache, CachedApp, Session};
use h264_pipeline::{attach_env, build_decoder, decoder_sources, Bug, CompiledApp};
use p2012::PlatformConfig;
use sched;

/// Auto-checkpoint interval used by every interactive front end: the
/// replay engine's default (`replay::CHECKPOINT_INTERVAL`).
pub use dfdbg::CHECKPOINT_INTERVAL;

/// Default macroblock count when a front end does not specify one.
pub const DEFAULT_N_MBS: u64 = 32;

/// The environment seed every front end uses (same as the REPL always
/// has), part of what keeps transcripts reproducible across processes.
pub const ENV_SEED: u32 = 0xbeef;

/// Every decoder-variant name a front end accepts, and the variant it
/// names.
const VARIANTS: [(&str, Bug); 10] = [
    ("none", Bug::None),
    ("clean", Bug::None),
    ("rate", Bug::RateMismatch),
    ("value", Bug::WrongValue),
    ("deadlock", Bug::Deadlock),
    ("oob", Bug::OobStore),
    ("race", Bug::SharedScratch),
    ("benign", Bug::BenignScratch),
    ("dma", Bug::DmaOverlap),
    ("capacity", Bug::TightFifo),
];

/// Parse a decoder-variant name as accepted on the command line of the
/// REPL, the server and `analyze`.
pub fn parse_variant(s: &str) -> Option<Bug> {
    VARIANTS
        .iter()
        .find(|(name, _)| *name == s)
        .map(|&(_, bug)| bug)
}

/// Every name [`parse_variant`] accepts, `|`-separated, for usage and
/// error messages.
pub fn variant_names() -> String {
    VARIANTS.map(|(name, _)| name).join("|")
}

/// The canonical command-line spelling of a variant.
pub fn variant_name(bug: Bug) -> &'static str {
    match bug {
        Bug::None => "none",
        Bug::RateMismatch => "rate",
        Bug::WrongValue => "value",
        Bug::Deadlock => "deadlock",
        Bug::OobStore => "oob",
        Bug::SharedScratch => "race",
        Bug::BenignScratch => "benign",
        Bug::DmaOverlap => "dma",
        Bug::TightFifo => "capacity",
    }
}

/// The server's compile-once cache: one entry per `(variant, n_mbs)`
/// key, each holding the immutable compiled app plus a booted prototype
/// session every attach forks from.
pub type DecoderCache = AppCache<CachedApp<CompiledApp>>;

/// Cache key for a decoder build: the variant and the macroblock count
/// are the only inputs that change the compiled artifact or the booted
/// baseline (the environment seed is a shared constant).
pub fn cache_key(bug: Bug, n_mbs: u64) -> String {
    format!("{}:{n_mbs}", variant_name(bug))
}

/// The expensive path: ADL elaboration, kernel codegen, linking, boot
/// under the debugger, environment attach, time-travel baseline. Returns
/// the compiled app alongside the instrumented prototype session so the
/// pair can be cached and forked.
pub fn build_app(bug: Bug, n_mbs: u64) -> Result<(CompiledApp, Session), String> {
    let (sys, app) = build_decoder(bug, n_mbs, PlatformConfig::default())
        .map_err(|e| format!("building the decoder failed: {e}"))?;
    let boot = app.boot_entry;
    let sources = decoder_sources(bug);
    let analysis = AnalysisInput::from_app(&app, &sources);
    let bcv_input = bcv::AnalysisInput::from_app(&app);
    let sched_input = sched::AnalysisInput::from_app(&app, &sources);
    let mut session = Session::attach(sys, app.info.clone());
    session.load_analysis(analysis);
    session.load_bcv_input(bcv_input);
    session.load_sched_input(sched_input);
    session
        .boot(boot)
        .map_err(|e| format!("boot under debugger failed: {e}"))?;
    attach_env(&mut session.sys, &app, n_mbs, ENV_SEED)
        .map_err(|e| format!("attaching the environment failed: {e}"))?;
    session.enable_time_travel(CHECKPOINT_INTERVAL);
    Ok((app, session))
}

/// Build, boot and instrument a decoder debug session, returning the CLI
/// wrapper ready to execute command lines. Identical to what the local
/// REPL does on startup: static-analysis inputs loaded, environment
/// attached, time travel enabled. This is the uncached reference path —
/// the server's attach goes through [`build_cli_cached`].
pub fn build_cli(bug: Bug, n_mbs: u64) -> Result<Cli, String> {
    let (_app, session) = build_app(bug, n_mbs)?;
    Ok(Cli::new(session))
}

/// The fixed attach path: one compile per `(variant, n_mbs)` key for the
/// whole server lifetime; every session is a copy-on-write fork of the
/// cached prototype. A storm of concurrent attaches for the same key
/// runs [`build_app`] exactly once — the rest block and then fork.
pub fn build_cli_cached(bug: Bug, n_mbs: u64, cache: &DecoderCache) -> Result<Cli, String> {
    let cached = cache.get_or_build(&cache_key(bug, n_mbs), || {
        build_app(bug, n_mbs).map(|(app, proto)| CachedApp::new(app, proto))
    })?;
    Ok(Cli::new(cached.fork()))
}

/// The banner a session front end prints after attaching.
pub fn attach_banner(bug: Bug, n_mbs: u64, cli: &Cli) -> String {
    format!(
        "attached to the H.264 decoder ({}, {n_mbs} macroblocks), \
         graph reconstructed: {} actors, {} links",
        variant_name(bug),
        cli.session.model.graph.actors.len(),
        cli.session.model.graph.links.len()
    )
}

/// The scripted §III deadlock-diagnosis transcript: run to the deadlock,
/// inspect the stuck filters and links, untie it by injecting the token
/// `red` never produced, run on, and leave a restore point. Every command
/// produces deterministic output, so the same script drives the E7 load
/// bench, the ≥16-session concurrency test and the CI remote-vs-local
/// byte-compare.
pub const DEADLOCK_SCRIPT: &[&str] = &[
    "analyze",
    "continue",
    "info filters",
    "info links",
    "token inject red::red_ipred_out 42",
    "continue",
    "checkpoint",
    "info checkpoints",
];

/// Decoder size the scripted diagnosis runs at (the §III scenario).
pub const SCRIPT_N_MBS: u64 = 8;

/// The static-analysis parity script: the findings table and its JSON
/// rendering (dfa + bcv + sched merged). `--self-check` replays it for a
/// dataflow bug and a race bug so the remote analyzer output can never
/// drift from the in-process one.
pub const ANALYZE_SCRIPT: &[&str] = &["analyze", "analyze --json"];

/// The multiverse parity script: a bounded race-hunting exploration whose
/// transcript (search narration, witness, summary line) is part of the
/// deterministic surface. `--self-check` byte-compares it remote vs.
/// local on the race variant.
pub const EXPLORE_SCRIPT: &[&str] = &["explore --until race"];

/// Execute a script against an in-process session and return the
/// transcript: for each command, its exact output followed by one
/// newline. The remote transcript is assembled the same way from the
/// `output` fields of the responses, so equal bytes mean the server
/// forwarded every command and every output unmangled.
pub fn local_transcript(bug: Bug, n_mbs: u64, script: &[&str]) -> Result<String, String> {
    let mut cli = build_cli(bug, n_mbs)?;
    let mut out = String::new();
    for cmd in script {
        out.push_str(&cli.exec(cmd));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_round_trip() {
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
            assert_eq!(parse_variant(variant_name(bug)), Some(bug));
        }
        assert_eq!(parse_variant("frobnicate"), None);
        assert_eq!(
            variant_names(),
            "none|clean|rate|value|deadlock|oob|race|benign|dma|capacity"
        );
        assert!(variant_names()
            .split('|')
            .all(|n| parse_variant(n).is_some()));
    }

    #[test]
    fn scripted_diagnosis_is_deterministic_in_process() {
        let a = local_transcript(Bug::Deadlock, SCRIPT_N_MBS, DEADLOCK_SCRIPT).unwrap();
        let b = local_transcript(Bug::Deadlock, SCRIPT_N_MBS, DEADLOCK_SCRIPT).unwrap();
        assert_eq!(a, b, "in-process transcript must be run-to-run stable");
        assert!(a.contains("Deadlock"), "{a}");
        assert!(a.contains("Injected token"), "{a}");
    }

    /// A session forked from the cached prototype must be observably
    /// identical to one built from scratch — and two forks of the same
    /// prototype must not share mutable state (the cache compiles once,
    /// forks many).
    #[test]
    fn cached_fork_matches_fresh_build() {
        let cache = DecoderCache::new();
        let script = ["info filters", "info links", "analyze", "continue"];
        let mut fresh = build_cli(Bug::Deadlock, 2).expect("fresh build");
        let mut a = build_cli_cached(Bug::Deadlock, 2, &cache).expect("first cached");
        let mut b = build_cli_cached(Bug::Deadlock, 2, &cache).expect("second cached");
        for cmd in script {
            let want = fresh.exec(cmd);
            assert_eq!(a.exec(cmd), want, "fork A diverged on `{cmd}`");
            assert_eq!(b.exec(cmd), want, "fork B diverged on `{cmd}`");
        }
        assert_eq!(cache.misses(), 1, "one compile serves every fork");
        assert_eq!(cache.hits(), 1);
    }
}
