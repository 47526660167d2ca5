//! `dfa` — static analysis for PEDF dataflow applications.
//!
//! Two cooperating passes over an elaborated application, both running
//! *before* a single instruction executes:
//!
//! 1. **Kernel analysis** ([`kernel`]) — an abstract interpreter over the
//!    kernelc AST derives each actor's per-firing token rates (exact or
//!    `[min,max]` intervals) and, where it is fixed, the firing's ordered
//!    IO (which `sched` sizes buffers from), and raises local safety
//!    lints.
//! 2. **Graph analysis** ([`graph`]) — SDF balance equations, structural
//!    deadlock detection and FIFO-capacity checks over the application
//!    graph, fed by the rates of pass 1.
//!
//! Findings are [`debuginfo::Finding`]s with stable rule ids (see
//! [`rules`]) and source spans that resolve to code addresses through the
//! debug-info line tables — the same coordinates the interactive debugger
//! uses, so `analyze` output is directly actionable inside a session.

use std::collections::{BTreeMap, BTreeSet};

use debuginfo::LineTable;
use mind::{CompiledApp, SourceRegistry};
use pedf::{ActorId, AppGraph};

pub mod graph;
pub mod interval;
pub mod kernel;

/// Test-only mutation hooks for the differential fuzz farm's self-check
/// (`dfdbg-fuzz --mutate dfa004`): deliberately weakening a rule must
/// make the farm report a divergence, proving the oracles have teeth.
/// Never set outside tests/fuzz drivers.
#[doc(hidden)]
pub mod testhook {
    use std::sync::atomic::{AtomicBool, Ordering};

    static WEAKEN_DFA004: AtomicBool = AtomicBool::new(false);

    /// Suppress every DFA004 structural-deadlock finding while `on`.
    pub fn weaken_dfa004(on: bool) {
        WEAKEN_DFA004.store(on, Ordering::SeqCst);
    }

    /// Whether DFA004 is currently weakened.
    pub fn dfa004_weakened() -> bool {
        WEAKEN_DFA004.load(Ordering::SeqCst)
    }
}

pub use debuginfo::{render_findings, Finding, Severity, Span};
pub use graph::{analyze_graph, GraphAnalysis};
pub use kernel::{analyze_kernel, IoOp, KernelReport, PortUse, Rate};

/// Stable rule identifiers. `DFA0xx` = graph-level, `DFA1xx` =
/// kernel-level, `KC0xx` = kernel compiler diagnostics surfaced through
/// the same reporting pipeline.
pub mod rules {
    /// A filter/controller port not bound to any link.
    pub const UNCONNECTED_PORT: &str = "DFA001";
    /// A link with zero FIFO capacity.
    pub const ZERO_CAPACITY: &str = "DFA002";
    /// An SDF balance equation the repetition vector cannot satisfy.
    pub const RATE_INCONSISTENT: &str = "DFA003";
    /// A dependency cycle in which every actor pops before pushing.
    pub const STRUCTURAL_DEADLOCK: &str = "DFA004";
    /// Guaranteed per-firing demand exceeding the link's FIFO capacity.
    pub const DEMAND_EXCEEDS_CAPACITY: &str = "DFA005";
    /// A link provably never fed (or never drained) by its kernels.
    pub const STARVED_LINK: &str = "DFA006";
    /// A data-dependent rate excluded from the balance system.
    pub const DATA_DEPENDENT_RATE: &str = "DFA007";
    /// A local read before any initialization.
    pub const UNINIT_LOCAL: &str = "DFA101";
    /// A constant io index beyond the bound link's capacity.
    pub const CONST_INDEX_OOB: &str = "DFA102";
    /// A statement no execution path reaches.
    pub const UNREACHABLE_CODE: &str = "DFA103";
    /// An ADL-declared data port the kernel never accesses.
    pub const UNUSED_PORT: &str = "DFA104";
    /// A kernel that fails to compile at all.
    pub const KERNEL_COMPILE: &str = "KC001";

    /// `(id, one-line summary)` for every rule, in id order — the source
    /// of the CLI's `analyze rules` listing and the README table.
    pub const ALL: &[(&str, &str)] = &[
        (UNCONNECTED_PORT, "port not bound to any link"),
        (ZERO_CAPACITY, "link has zero FIFO capacity"),
        (RATE_INCONSISTENT, "SDF balance equation fails on this link"),
        (STRUCTURAL_DEADLOCK, "dependency cycle with no token source"),
        (
            DEMAND_EXCEEDS_CAPACITY,
            "per-firing demand exceeds FIFO capacity",
        ),
        (STARVED_LINK, "link is never fed or never drained"),
        (
            DATA_DEPENDENT_RATE,
            "data-dependent rate excluded from balance analysis",
        ),
        (UNINIT_LOCAL, "local read before initialization"),
        (CONST_INDEX_OOB, "constant io index out of FIFO bounds"),
        (UNREACHABLE_CODE, "statement is unreachable"),
        (UNUSED_PORT, "declared port never accessed by the kernel"),
        (KERNEL_COMPILE, "kernel fails to compile"),
    ];
}

/// Everything the analyzer needs, detached from the live machine: the
/// elaborated graph, the struct type names (to re-parse kernels) and each
/// actor's kernel source. Build one with [`AnalysisInput::from_app`]
/// *before* handing the [`CompiledApp`] to a debug session.
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    pub graph: AppGraph,
    /// Struct type names usable in kernel declarations.
    pub struct_types: BTreeSet<String>,
    /// Actor → (kernel file name, kernel source).
    pub kernels: BTreeMap<ActorId, (String, String)>,
}

impl AnalysisInput {
    pub fn from_app(app: &CompiledApp, sources: &SourceRegistry) -> AnalysisInput {
        let struct_types = (0..app.types.len())
            .map(|i| debuginfo::TypeId(i as u32))
            .filter(|&id| !app.types.is_scalar(id))
            .map(|id| app.types.name(id).to_string())
            .collect();
        let kernels = app
            .kernel_files
            .iter()
            .filter_map(|(aid, file)| {
                sources
                    .get(file)
                    .map(|src| (*aid, (file.clone(), src.to_string())))
            })
            .collect();
        AnalysisInput {
            graph: app.graph.clone(),
            struct_types,
            kernels,
        }
    }
}

/// The combined result of both passes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted most severe first (then rule id, subject).
    pub findings: Vec<Finding>,
    /// Actor/link ids in a structurally deadlocked cycle (graphviz: red).
    pub deadlock_actors: BTreeSet<u32>,
    pub deadlock_links: BTreeSet<u32>,
    /// Actor/link ids on rate-inconsistent edges (graphviz: yellow).
    pub rate_actors: BTreeSet<u32>,
    pub rate_links: BTreeSet<u32>,
}

impl Report {
    /// Highest severity present, `None` when the report is clean.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Render the findings table (shared format with the debugger CLI).
    pub fn table(&self) -> String {
        render_findings(&self.findings)
    }

    /// Resolve every finding span to a code address through the program's
    /// line tables, making findings clickable debugger locations.
    pub fn resolve_spans(&mut self, lines: &LineTable) {
        for f in &mut self.findings {
            if let Some(sp) = &mut f.span {
                sp.resolve(lines);
            }
        }
    }
}

/// Run both passes over `input` and return the merged, sorted report.
/// Kernels that fail to parse surface as `KC001` findings rather than
/// aborting the analysis of the rest of the application.
pub fn analyze(input: &AnalysisInput) -> Report {
    analyze_with_kernels(input).0
}

/// [`analyze`], also handing back pass 1's per-kernel reports (one per
/// kernel that parses, keyed by actor) for `sched` to size buffers from
/// instead of parsing and walking the kernels again. The report keeps
/// none of them.
pub fn analyze_with_kernels(input: &AnalysisInput) -> (Report, BTreeMap<ActorId, KernelReport>) {
    let mut findings: Vec<Finding> = Vec::new();
    let mut reports: BTreeMap<ActorId, KernelReport> = BTreeMap::new();
    let is_type = |s: &str| input.struct_types.contains(s);
    for (aid, (file, src)) in &input.kernels {
        if input.graph.actors.get(aid.0 as usize).is_none() {
            continue;
        }
        let qname = input.graph.qualified_name(*aid);
        match kernelc::parser::parse(src, &is_type) {
            Ok(unit) => {
                let ports: Vec<String> = input
                    .graph
                    .actor(*aid)
                    .conns()
                    .map(|c| input.graph.conn(c).name.clone())
                    .collect();
                let rep = analyze_kernel(&unit, file, &qname, &ports);
                findings.extend(rep.findings.iter().cloned());
                reports.insert(*aid, rep);
            }
            Err(e) => findings.push(e.finding(file)),
        }
    }
    let ga = analyze_graph(&input.graph, &reports);
    findings.extend(ga.findings);
    debuginfo::sort_and_dedup_findings(&mut findings);
    let report = Report {
        findings,
        deadlock_actors: ga.deadlock_actors,
        deadlock_links: ga.deadlock_links,
        rate_actors: ga.rate_actors,
        rate_links: ga.rate_links,
    };
    (report, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use debuginfo::TypeTable;
    use pedf::graph::{ActorKind, Dir, LinkClass};

    fn tiny_input(src_a: &str, src_b: &str) -> AnalysisInput {
        let mut g = AppGraph::new();
        let a = g
            .register_actor(0, "a", ActorKind::Filter, None, None, None)
            .unwrap();
        let b = g
            .register_actor(1, "b", ActorKind::Filter, None, None, None)
            .unwrap();
        let o = g
            .register_conn(0, a, "out", Dir::Out, TypeTable::U32)
            .unwrap();
        let i = g
            .register_conn(1, b, "inp", Dir::In, TypeTable::U32)
            .unwrap();
        g.register_link(0, o, i, 4, LinkClass::Data, 0).unwrap();
        let mut kernels = BTreeMap::new();
        kernels.insert(ActorId(0), ("a.c".to_string(), src_a.to_string()));
        kernels.insert(ActorId(1), ("b.c".to_string(), src_b.to_string()));
        AnalysisInput {
            graph: g,
            struct_types: BTreeSet::new(),
            kernels,
        }
    }

    #[test]
    fn clean_pipeline_reports_nothing() {
        let input = tiny_input(
            "void work() { pedf.io.out[0] = 1; }",
            "void work() { U32 v = pedf.io.inp[0]; pedf.print(v); }",
        );
        let r = analyze(&input);
        assert!(r.findings.is_empty(), "{}", r.table());
        assert_eq!(r.worst(), None);
    }

    #[test]
    fn unparsable_kernel_becomes_kc001() {
        let input = tiny_input(
            "void work() { pedf.io.out[0] = ; }",
            "void work() { U32 v = pedf.io.inp[0]; pedf.print(v); }",
        );
        let r = analyze(&input);
        let f = r.findings.iter().find(|f| f.rule == rules::KERNEL_COMPILE);
        let f = f.expect("KC001 expected");
        assert_eq!(f.severity, Severity::Error);
        assert_eq!(f.span.as_ref().unwrap().file, "a.c");
        // The healthy kernel is still analyzed: its unused-port/starved
        // diagnostics are legitimate (producer report missing, so none).
        assert_eq!(r.worst(), Some(Severity::Error));
    }

    #[test]
    fn findings_sort_errors_first() {
        // Producer push is predicated (DFA007, Info); consumer demands five
        // tokens from a capacity-4 FIFO (DFA005, Error). Errors lead.
        let input = tiny_input(
            "void work() { U32 c = pedf.data.cfg; if (c > 0) { pedf.io.out[0] = c; } }",
            "void work() { U32 v = pedf.io.inp[4]; pedf.print(v); }",
        );
        let r = analyze(&input);
        assert!(!r.findings.is_empty());
        for w in r.findings.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
        assert_eq!(r.findings[0].rule, rules::DEMAND_EXCEEDS_CAPACITY);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == rules::DATA_DEPENDENT_RATE));
        assert_eq!(r.worst(), Some(Severity::Error));
    }

    #[test]
    fn rules_table_is_sorted_and_unique() {
        let ids: Vec<&str> = rules::ALL.iter().map(|(id, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn rules_table_matches_the_registry() {
        for (id, summary) in rules::ALL {
            let r = debuginfo::registry::find(id)
                .unwrap_or_else(|| panic!("{id} missing from debuginfo::registry"));
            assert_eq!(r.summary, *summary, "{id} summary drifted");
        }
    }
}
