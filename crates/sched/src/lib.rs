//! `sched` — static schedule, buffer-sizing and WCET analysis for PEDF
//! dataflow applications.
//!
//! A whole-program performance pass composing the existing analyses:
//!
//! 1. **IO order** — `dfa`'s kernel walk ([`dfa::analyze_kernel`]) gives
//!    each filter's per-firing rates and, where it is fixed, the ordered
//!    push/pop sequence ([`dfa::KernelReport::io_order`]). [`analyze`]
//!    parses and walks the filter kernels itself; a
//!    debug session's `analyze` instead hands over the kernel reports
//!    `dfa` just built ([`dfa::analyze_with_kernels`]), so each kernel is
//!    parsed and walked once. Both go through [`analyze_with_kernels`],
//!    which keeps the filters' reports and their touched ports, and
//!    drops the reports once the passes below are done.
//! 2. **Buffer sizing** ([`capacity`]) — Parks-style minimal
//!    deadlock-free FIFO capacities by abstract KPN simulation, reported
//!    as `SCH501` (capacity below minimum: will deadlock) and `SCH502`
//!    (capacity above minimum: wasted SRAM).
//! 3. **WCET** ([`wcet`]) — per-kernel cycle intervals by bounded
//!    abstract execution of the linked bytecode against the p2012 cost
//!    model; unbounded worst cases surface as `WCET601`.
//! 4. **Throughput** ([`throughput`]) — the SDF repetition vector and a
//!    sound steady-state period bound with its bottleneck actor
//!    (`SCH503`/`SCH504`), painted onto `graph dot` output.
//!
//! Everything is reported as [`debuginfo::Finding`]s through the same
//! pipeline as `dfa` and `bcv`, so `analyze`, the REPL and the remote
//! server surface the results uniformly — and the claims are *testable*:
//! `analyze --sched-check` replays the predicted capacities on the real
//! simulator and fails if the static story and the dynamic behaviour
//! disagree.

use std::collections::{BTreeMap, BTreeSet};

use debuginfo::LineTable;
use dfa::{IoOp, KernelReport};
use mind::{CompiledApp, SourceRegistry};
use pedf::graph::ActorKind;
use pedf::{ActorId, AppGraph};

pub mod capacity;
pub mod throughput;
pub mod wcet;

pub use debuginfo::{render_findings, Finding, Severity, Span};
pub use wcet::CycleBounds;

/// Stable rule identifiers. `SCH5xx` = schedule/buffer findings,
/// `WCET6xx` = execution-time findings.
pub mod rules {
    /// A FIFO capacity below the minimal deadlock-free size.
    pub const CAPACITY_BELOW_MIN: &str = "SCH501";
    /// A FIFO capacity above the minimal deadlock-free size.
    pub const CAPACITY_ABOVE_MIN: &str = "SCH502";
    /// The static throughput bound for the steady state.
    pub const THROUGHPUT_BOUND: &str = "SCH503";
    /// The critical-cycle bottleneck actor.
    pub const BOTTLENECK: &str = "SCH504";
    /// A worst-case execution time that could not be bounded.
    pub const WCET_UNBOUNDED: &str = "WCET601";

    /// `(id, one-line summary)` for every rule, in id order — kept in
    /// lock-step with `debuginfo::registry` (pinned by a drift test).
    pub const ALL: &[(&str, &str)] = &[
        (
            CAPACITY_BELOW_MIN,
            "FIFO capacity below the minimal deadlock-free size",
        ),
        (
            CAPACITY_ABOVE_MIN,
            "FIFO capacity above the minimal deadlock-free size",
        ),
        (
            THROUGHPUT_BOUND,
            "static throughput bound for the steady state",
        ),
        (BOTTLENECK, "critical-cycle bottleneck actor"),
        (
            WCET_UNBOUNDED,
            "worst-case execution time unbounded (interval widened)",
        ),
    ];
}

/// Everything the analyzer needs, detached from the live machine.
/// Build one with [`AnalysisInput::from_app`] *before* handing the
/// [`CompiledApp`] to a debug session.
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    pub graph: AppGraph,
    /// Struct type names usable in kernel declarations.
    pub struct_types: BTreeSet<String>,
    /// Actor → (kernel file name, kernel source).
    pub kernels: BTreeMap<ActorId, (String, String)>,
    /// The linked bytecode image (for WCET).
    pub program: p2012::Program,
    /// The elaborated memory layout (for access latencies).
    pub mem_map: p2012::MemoryMap,
}

impl AnalysisInput {
    pub fn from_app(app: &CompiledApp, sources: &SourceRegistry) -> AnalysisInput {
        let dfa::AnalysisInput {
            graph,
            struct_types,
            kernels,
        } = dfa::AnalysisInput::from_app(app, sources);
        AnalysisInput {
            graph,
            struct_types,
            kernels,
            program: app.program.clone(),
            mem_map: app.mem_map.clone(),
        }
    }
}

/// The combined result of the three passes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted most severe first (then rule id, subject).
    pub findings: Vec<Finding>,
    /// Minimal deadlock-free capacity per analyzed link id. Empty when no
    /// link qualified or the deadlock was structural.
    pub min_caps: BTreeMap<u32, u32>,
    /// `true` when the abstract network deadlocks regardless of capacity
    /// (a starvation cycle — dfa's DFA004 names the cycle).
    pub structural: bool,
    /// Filters whose IO order is not fixed (excluded from sizing).
    pub inexact: BTreeSet<u32>,
    /// Cycles per graph iteration no schedule can beat (0 = unknown).
    pub period_lb: u64,
    /// Actor attaining the bound.
    pub bottleneck: Option<u32>,
    /// Actor/link ids of the bottleneck's dependency cycle (graphviz:
    /// bold).
    pub bold_actors: BTreeSet<u32>,
    pub bold_links: BTreeSet<u32>,
    /// Per-filter cycle bounds (actor id → interval).
    pub wcet: BTreeMap<u32, CycleBounds>,
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

    /// `"producer_actor::conn" → capacity` rendering of [`Self::min_caps`]
    /// — the key syntax `mind::build_with_caps` consumes, so the
    /// differential gate can rebuild the application at (or just below)
    /// the predicted sizes.
    pub fn min_caps_by_label(&self, g: &AppGraph) -> BTreeMap<String, u32> {
        self.min_caps
            .iter()
            .map(|(&l, &cap)| {
                let link = g.link(pedf::LinkId(l));
                let conn = g.conn(link.from);
                let actor = g.actor(conn.actor);
                (format!("{}::{}", actor.name, conn.name), cap)
            })
            .collect()
    }
}

/// Run all passes over `input` and return the merged, sorted report:
/// parse and walk every filter kernel, then [`analyze_with_kernels`].
pub fn analyze(input: &AnalysisInput) -> Report {
    analyze_with_kernels(input, walk_kernels(input))
}

/// Pass 1 on its own: rates and IO order for every filter kernel that
/// parses, keyed by actor. (Parse failures are dfa's KC001; this pass
/// just skips them.) Findings are dfa's to report; only the touched
/// ports matter here, so none are seeded.
fn walk_kernels(input: &AnalysisInput) -> BTreeMap<ActorId, KernelReport> {
    let is_type = |s: &str| input.struct_types.contains(s);
    let mut kernels = BTreeMap::new();
    for (aid, (file, src)) in &input.kernels {
        let Some(actor) = input.graph.actors.get(aid.0 as usize) else {
            continue;
        };
        if actor.kind != ActorKind::Filter {
            continue;
        }
        if let Ok(unit) = kernelc::parser::parse(src, &is_type) {
            kernels.insert(*aid, dfa::analyze_kernel(&unit, file, &actor.name, &[]));
        }
    }
    kernels
}

/// Passes 2–4 over pass 1's kernel reports: either `walk_kernels`'s or
/// the ones `dfa::analyze_with_kernels` built over the same application
/// (a debug session hands those over, so each kernel is parsed and
/// walked once per `analyze`). Reports of actors that are not filters
/// are dropped, and so are ports the kernel never touches: dfa seeds
/// every declared port, which would otherwise list exact-zero rates the
/// walk here does not.
pub fn analyze_with_kernels(
    input: &AnalysisInput,
    kernels: BTreeMap<ActorId, KernelReport>,
) -> Report {
    let mut report = Report::default();
    let mut filters: BTreeMap<u32, KernelReport> = BTreeMap::new();
    for (aid, mut k) in kernels {
        let actor = input.graph.actors.get(aid.0 as usize);
        if actor.is_none_or(|a| a.kind != ActorKind::Filter) {
            continue;
        }
        k.ports.retain(|_, p| p.used);
        if k.io_order.is_none() {
            report.inexact.insert(aid.0);
        }
        filters.insert(aid.0, k);
    }
    let kernels = filters;

    // Pass 2: minimal deadlock-free capacities, compared to elaboration.
    let model = capacity::build_model(&input.graph, &kernels);
    if !model.links.is_empty() {
        match capacity::minimal_caps(&model) {
            None => report.structural = true,
            Some(caps) => {
                for (&lid, &min) in &caps {
                    let link = input.graph.link(pedf::LinkId(lid));
                    let label = input.graph.link_label(link.id);
                    let have = link.capacity;
                    if have < min {
                        let mut f = Finding::new(
                            rules::CAPACITY_BELOW_MIN,
                            Severity::Error,
                            label,
                            format!(
                                "capacity {have} is below the minimal \
                                 deadlock-free size {min}: the network wedges"
                            ),
                        );
                        if let Some(span) = first_push_span(input, &kernels, link.from) {
                            f = f.with_span(span);
                        }
                        report.findings.push(f);
                    } else if have > min {
                        report.findings.push(Finding::new(
                            rules::CAPACITY_ABOVE_MIN,
                            Severity::Info,
                            label,
                            format!(
                                "capacity {have} exceeds the minimal \
                                 deadlock-free size {min}"
                            ),
                        ));
                    }
                }
                report.min_caps = caps;
            }
        }
    }

    // Pass 3: per-kernel cycle bounds over the linked image.
    for a in input.graph.filters() {
        let Some(entry) = a.work_addr else { continue };
        let b = wcet::analyze_entry(&input.program, &input.mem_map, entry);
        if b.wcet.is_none() {
            report.findings.push(Finding::new(
                rules::WCET_UNBOUNDED,
                Severity::Warning,
                input.graph.qualified_name(a.id),
                format!(
                    "worst-case cycles per firing unbounded within budget \
                     (best case {} cycles)",
                    b.bcet
                ),
            ));
        }
        report.wcet.insert(a.id.0, b);
    }

    // Pass 4: repetition vector and throughput bound.
    let mut rates: BTreeMap<u32, BTreeMap<String, (u32, u32)>> = BTreeMap::new();
    for (&aid, k) in &kernels {
        if k.io_order.is_none() {
            continue;
        }
        let per_conn = k
            .ports
            .iter()
            .filter_map(|(name, p)| {
                Some((name.clone(), (p.writes.as_exact()?, p.reads.as_exact()?)))
            })
            .collect();
        rates.insert(aid, per_conn);
    }
    if let Some(reps) = throughput::repetition_vector(&input.graph, &rates) {
        let t = throughput::analyze(&input.graph, &reps, &report.wcet);
        if t.period_lb > 0 {
            report.findings.push(Finding::new(
                rules::THROUGHPUT_BOUND,
                Severity::Info,
                "steady state",
                format!(
                    "no schedule completes a graph iteration in fewer than \
                     {} cycles",
                    t.period_lb
                ),
            ));
            if let Some(b) = t.bottleneck {
                let bounds = report.wcet[&b];
                report.findings.push(Finding::new(
                    rules::BOTTLENECK,
                    Severity::Info,
                    input.graph.qualified_name(ActorId(b)),
                    format!(
                        "critical-cycle bottleneck: rep {} x {} cycles per \
                         firing dominates the period",
                        reps.get(&b).copied().unwrap_or(1),
                        bounds.bcet
                    ),
                ));
            }
            report.period_lb = t.period_lb;
            report.bottleneck = t.bottleneck;
            report.bold_actors = t.cycle_actors;
            report.bold_links = t.cycle_links;
        }
    }

    debuginfo::sort_and_dedup_findings(&mut report.findings);
    report
}

/// Span of the producer's first push on the connection — the statement
/// whose execution will wedge when the FIFO is undersized.
fn first_push_span(
    input: &AnalysisInput,
    kernels: &BTreeMap<u32, KernelReport>,
    from_conn: pedf::ConnId,
) -> Option<Span> {
    let conn = input.graph.conn(from_conn);
    let order = kernels.get(&conn.actor.0)?.io_order.as_ref()?;
    let line = order.iter().find_map(|(op, line)| match op {
        IoOp::Push { conn: c } if c == &conn.name => Some(*line),
        _ => None,
    })?;
    let (file, _) = input.kernels.get(&conn.actor)?;
    Some(Span::new(file.clone(), line, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use debuginfo::TypeTable;
    use pedf::graph::{Dir, LinkClass};

    /// Two filters in one module wired by `(prod_conn, cons_conn, cap)`
    /// links, with kernel sources attached — no bytecode (WCET skipped).
    fn tiny_input(links: &[(&str, &str, u32)], src_a: &str, src_b: &str) -> AnalysisInput {
        let mut g = AppGraph::new();
        let root = g
            .register_actor(0, "root", ActorKind::Module, None, None, None)
            .unwrap();
        let m = g
            .register_actor(1, "m", ActorKind::Module, Some(root), None, None)
            .unwrap();
        let a = g
            .register_actor(2, "a", ActorKind::Filter, Some(m), None, None)
            .unwrap();
        let b = g
            .register_actor(3, "b", ActorKind::Filter, Some(m), None, None)
            .unwrap();
        for (i, (prod, cons, cap)) in links.iter().enumerate() {
            let i = i as u32;
            let o = g
                .register_conn(2 * i, a, prod, Dir::Out, TypeTable::U32)
                .unwrap();
            let inp = g
                .register_conn(2 * i + 1, b, cons, Dir::In, TypeTable::U32)
                .unwrap();
            g.register_link(i, o, inp, *cap, LinkClass::Data, 0)
                .unwrap();
        }
        let mut kernels = BTreeMap::new();
        kernels.insert(ActorId(2), ("a.c".to_string(), src_a.to_string()));
        kernels.insert(ActorId(3), ("b.c".to_string(), src_b.to_string()));
        AnalysisInput {
            graph: g,
            struct_types: BTreeSet::new(),
            kernels,
            program: p2012::Program::default(),
            mem_map: p2012::MemoryMap::default(),
        }
    }

    #[test]
    fn oversized_fifo_reports_sch502_with_the_minimum() {
        let input = tiny_input(
            &[("out", "inp", 16)],
            "void work() { pedf.io.out[0] = 1; }",
            "void work() { U32 v = pedf.io.inp[0]; pedf.print(v); }",
        );
        let r = analyze(&input);
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == rules::CAPACITY_ABOVE_MIN)
            .expect("SCH502");
        assert_eq!(f.severity, Severity::Info);
        assert!(f.message.contains("16"), "{}", f.message);
        assert_eq!(r.min_caps[&0], 1);
        assert_eq!(r.min_caps_by_label(&input.graph)["a::out"], 1);
    }

    #[test]
    fn undersized_gated_fifo_reports_sch501_at_the_push() {
        // The gated-burst shape from `capacity`: the burst link needs two
        // slots, but elaboration gave it one.
        let input = tiny_input(
            &[("a_out", "a_in", 1), ("g_out", "g_in", 1)],
            "void work() {
    pedf.io.a_out[0] = 1;
    pedf.io.a_out[1] = 2;
    pedf.io.g_out[0] = 3;
}",
            "void work() {
    U32 g = pedf.io.g_in[0];
    U32 a = pedf.io.a_in[1];
    pedf.print(a + g);
}",
        );
        let r = analyze(&input);
        assert_eq!(r.worst(), Some(Severity::Error), "{}", r.table());
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == rules::CAPACITY_BELOW_MIN)
            .expect("SCH501");
        assert_eq!(f.subject, "a::a_out -> b::a_in");
        let span = f.span.as_ref().expect("anchored at the first push");
        assert_eq!(span.file, "a.c");
        assert_eq!(span.line, 2);
        assert_eq!(r.min_caps[&0], 2);
        assert_eq!(r.min_caps[&1], 1);
    }

    #[test]
    fn inexact_kernels_are_listed_not_guessed() {
        let input = tiny_input(
            &[("out", "inp", 4)],
            "void work() { U32 n = pedf.data.k; if (n > 2) { pedf.io.out[0] = 1; } }",
            "void work() { U32 v = pedf.io.inp[0]; pedf.print(v); }",
        );
        let r = analyze(&input);
        assert!(r.inexact.contains(&2));
        assert!(r.min_caps.is_empty(), "no analyzed links");
        assert!(!r.findings.iter().any(|f| f.rule.starts_with("SCH5")));
    }

    #[test]
    fn rules_table_matches_the_registry() {
        for (id, summary) in rules::ALL {
            let r = debuginfo::registry::find(id).expect("registered");
            assert_eq!(r.summary, *summary, "{id} drifted");
        }
    }
}
