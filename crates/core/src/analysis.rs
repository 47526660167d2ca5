//! One `analyze`: the three static analyzers over one application and
//! their findings merged into one table. The debugger's `analyze` command
//! ([`crate::Session::analyze`]) and the `analyze` binary both go through
//! [`run`], so the pinned `analyze --json` transcripts cover the path a
//! session takes.

use debuginfo::{Finding, LineTable};

/// The reports of one [`run`].
#[derive(Debug)]
pub struct Analysis {
    pub dfa: dfa::Report,
    pub bcv: Option<bcv::Report>,
    pub sched: Option<sched::Report>,
    /// Every finding of the three, sorted most severe first and
    /// deduplicated.
    pub findings: Vec<Finding>,
}

/// Run `dfa`, then `bcv` and `sched` when their inputs are given, with
/// spans resolved through `lines`. The inputs must describe one
/// application: `sched` sizes buffers from the kernel reports `dfa` built
/// instead of parsing and walking every kernel again.
pub fn run(
    dfa_input: &dfa::AnalysisInput,
    bcv_input: Option<&bcv::AnalysisInput>,
    sched_input: Option<&sched::AnalysisInput>,
    lines: &LineTable,
) -> Analysis {
    let (mut dfa, kernels) = dfa::analyze_with_kernels(dfa_input);
    dfa.resolve_spans(lines);
    let mut findings = dfa.findings.clone();
    let bcv = bcv_input.map(bcv::verify);
    if let Some(b) = &bcv {
        findings.extend(b.findings.iter().cloned());
    }
    let sched = sched_input.map(|si| {
        debug_assert!(
            si.kernels == dfa_input.kernels,
            "the dfa and sched inputs describe different applications"
        );
        let mut s = sched::analyze_with_kernels(si, kernels);
        s.resolve_spans(lines);
        s
    });
    if let Some(s) = &sched {
        findings.extend(s.findings.iter().cloned());
    }
    debuginfo::sort_and_dedup_findings(&mut findings);
    Analysis {
        dfa,
        bcv,
        sched,
        findings,
    }
}
