//! Experiment E9: static throughput bound vs. measured throughput.
//!
//! The `sched` analyzer promises that no schedule completes a graph
//! iteration in fewer than `period_lb` cycles (rep × BCET at the
//! bottleneck actor, each filter pinned to its own PE). This harness
//! measures real decodes — at the ADL capacities and squeezed down to the
//! predicted minimal capacities — and checks the promise: measured
//! cycles-per-iteration must never drop below the static bound. Everything
//! in a row except the analysis wall time is deterministic, so the table
//! doubles as a regression artifact (`BENCH_E9.json`).

use std::time::{Duration, Instant};

use h264_pipeline::{build_decoder, decoder_sources, run_decoder_with_caps, Bug};
use p2012::PlatformConfig;

#[derive(Debug)]
pub struct BoundRow {
    pub bug: Bug,
    /// `"as-built"` (ADL capacities) or `"minimal"` (every analyzed FIFO
    /// at its predicted minimum).
    pub capacities: &'static str,
    pub n_mbs: u64,
    /// End-to-end simulated cycles of the finished decode.
    pub cycles: u64,
    /// `cycles / n_mbs` — the measured per-iteration cost.
    pub per_iteration: f64,
    /// The static lower bound on the steady-state period, in cycles.
    pub static_bound: u64,
    /// `per_iteration / static_bound` — how loose the bound is (≥ 1 when
    /// it holds; 0 when no bound was derivable).
    pub margin: f64,
    /// Qualified name of the predicted bottleneck actor.
    pub bottleneck: String,
    /// The soundness verdict: measured never beats the bound.
    pub bound_holds: bool,
    /// Wall time of the `sched::analyze` pass (build excluded).
    pub analysis_wall: Duration,
}

/// Run one E9 cell: analyze `bug`, rebuild at the chosen capacities, run
/// `n_mbs` macroblocks to completion, compare against the bound.
pub fn throughput_bound(bug: Bug, n_mbs: u64, minimal: bool) -> BoundRow {
    let (_sys, app) = build_decoder(bug, n_mbs, PlatformConfig::default()).expect("build");
    let input = sched::AnalysisInput::from_app(&app, &decoder_sources(bug));
    let t0 = Instant::now();
    let report = sched::analyze(&input);
    let analysis_wall = t0.elapsed();
    let bottleneck = report
        .bottleneck
        .map(|a| app.graph.qualified_name(pedf::ActorId(a)))
        .unwrap_or_else(|| "-".into());

    let caps = if minimal {
        report.min_caps_by_label(&app.graph)
    } else {
        Default::default()
    };
    let (sys, _app) =
        run_decoder_with_caps(bug, n_mbs, 0xbeef, 100_000_000, &caps).expect("rebuild");
    assert!(
        sys.platform.is_quiescent(),
        "E9 run did not finish ({bug:?}, {})",
        if minimal { "minimal" } else { "as-built" }
    );
    assert_eq!(sys.first_fault(), None);
    let cycles = sys.clock();
    let per_iteration = cycles as f64 / n_mbs as f64;
    BoundRow {
        bug,
        capacities: if minimal { "minimal" } else { "as-built" },
        n_mbs,
        cycles,
        per_iteration,
        static_bound: report.period_lb,
        margin: if report.period_lb > 0 {
            per_iteration / report.period_lb as f64
        } else {
            0.0
        },
        bottleneck,
        bound_holds: per_iteration >= report.period_lb as f64,
        analysis_wall,
    }
}

/// The full E9 table: the clean decoder at both provisioning levels, the
/// rate-mismatch variant as built (it completes, with backlog), and the
/// seeded tight-FIFO variant — which only completes at all once its
/// squeezed edge is raised back to the predicted minimum.
pub fn throughput_study(n_mbs: u64) -> Vec<BoundRow> {
    vec![
        throughput_bound(Bug::None, n_mbs, false),
        throughput_bound(Bug::None, n_mbs, true),
        throughput_bound(Bug::RateMismatch, n_mbs, false),
        throughput_bound(Bug::TightFifo, n_mbs, true),
    ]
}

/// Stable variant label for tables and JSON.
pub fn row_label(row: &BoundRow) -> String {
    format!("{} ({})", server::variant_name(row.bug), row.capacities)
}
