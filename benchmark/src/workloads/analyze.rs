//! `analyze`: the static analyzers (dfa, bcv, sched) do all the work and
//! the simulator none. The pool holds every decoder variant plus apps
//! generated from the seed, 40 of each generator shape; each turn runs
//! `analyze --json` on the next pool entry in seeded order. Every app must build, each decoder variant
//! must report the rule it was seeded with, and a repeated analysis of an
//! entry must reproduce its first output byte for byte.

use std::collections::BTreeMap;
use std::time::Duration;

use appgen::AppSpec;
use dfdbg::cli::Cli;
use dfdbg::Session;
use h264_pipeline::{build_decoder, decoder_sources, Bug};
use mind::{CompiledApp, SourceRegistry};
use p2012::PlatformConfig;
use pedf::System;

use super::{timed, Workload};
use crate::trace::Tracer;
use crate::{derive, shuffled, Scale};

/// Decoder variants and the rule each must be reported with.
pub const VARIANTS: &[(Bug, &str)] = &[
    (Bug::None, "SCH504"),
    (Bug::RateMismatch, "DFA003"),
    (Bug::WrongValue, "SCH504"),
    (Bug::Deadlock, "DFA003"),
    (Bug::OobStore, "MEM302"),
    (Bug::SharedScratch, "RACE401"),
    (Bug::BenignScratch, "RACE401"),
    (Bug::DmaOverlap, "RACE402"),
    (Bug::TightFifo, "SCH501"),
];

struct Entry {
    label: String,
    cli: Cli,
    /// The rule a decoder variant must report.
    want_rule: Option<&'static str>,
    /// The first analysis output, which every later one must equal.
    first: Option<String>,
}

pub struct Analyze {
    pool: Vec<Entry>,
    seed: u64,
    order: Vec<usize>,
    rounds: u64,
}

/// An unbooted session with the three analyzers' inputs loaded — all
/// `analyze` needs.
pub fn analysis_session(sys: System, app: &CompiledApp, sources: &SourceRegistry) -> Session {
    let mut s = Session::attach(sys, app.info.clone());
    s.load_analysis(dfa::AnalysisInput::from_app(app, sources));
    s.load_bcv_input(bcv::AnalysisInput::from_app(app));
    s.load_sched_input(sched::AnalysisInput::from_app(app, sources));
    s
}

/// Build a generated app (unbooted).
pub fn build_spec(spec: &AppSpec) -> Result<(System, CompiledApp, SourceRegistry), String> {
    let sources = spec.to_sources();
    let (sys, app) = mind::build_with_caps(
        &spec.to_adl(),
        &sources,
        PlatformConfig::default(),
        &BTreeMap::new(),
    )
    .map_err(|e| format!("generated app {:#x} does not build: {e}", spec.seed))?;
    Ok((sys, app, sources))
}

impl Analyze {
    pub fn setup(seed: u64, scale: Scale) -> Result<Analyze, String> {
        let mut pool = Vec::new();
        for &(bug, rule) in VARIANTS {
            let (sys, app) = build_decoder(bug, 8, PlatformConfig::default())
                .map_err(|e| format!("building {bug:?}: {e}"))?;
            pool.push(Entry {
                label: format!("{bug:?}"),
                cli: Cli::new(analysis_session(sys, &app, &decoder_sources(bug))),
                want_rule: Some(rule),
                first: None,
            });
        }
        // The same number of apps of every shape whatever the seed, so the
        // mix, and the percentiles it sets, do not move with the seed.
        let per_shape = scale.pick(40, 1);
        let mut taken: BTreeMap<String, usize> = BTreeMap::new();
        for i in 0..per_shape as u64 * 50 {
            let spec = appgen::generate(derive(seed, "app", i));
            let n = taken.entry(spec.shape.clone()).or_default();
            if *n == per_shape {
                continue;
            }
            *n += 1;
            let (sys, app, sources) = build_spec(&spec)?;
            pool.push(Entry {
                label: format!("app {:#x}", spec.seed),
                cli: Cli::new(analysis_session(sys, &app, &sources)),
                want_rule: None,
                first: None,
            });
        }
        Ok(Analyze {
            pool,
            seed,
            order: Vec::new(),
            rounds: 0,
        })
    }
}

impl Workload for Analyze {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn at_boundary(&self) -> bool {
        self.order.is_empty()
    }

    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        if self.order.is_empty() {
            self.order = shuffled(
                (0..self.pool.len()).collect(),
                self.seed,
                "analyze",
                self.rounds,
            );
            self.rounds += 1;
        }
        let e = &mut self.pool[self.order.pop().expect("order refilled above")];
        let (out, dt) = tr.span("core.analyze", || timed(|| e.cli.exec("analyze --json")));
        if out.starts_with("error:") {
            return Err(format!("{}: {out}", e.label));
        }
        match &e.first {
            Some(first) if *first != out => {
                return Err(format!("{}: analysis output changed between runs", e.label))
            }
            Some(_) => {}
            None => {
                if let Some(rule) = e.want_rule {
                    if !out.contains(&format!("\"rule\": \"{rule}\"")) {
                        return Err(format!("{}: seeded rule {rule} not reported", e.label));
                    }
                }
                e.first = Some(out);
            }
        }
        Ok(dt)
    }
}
