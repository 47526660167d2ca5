//! `bcv` — bytecode verifier and static shared-memory race analysis.
//!
//! Where the `dfa` crate reasons about the *source-level* dataflow program
//! (token rates, balance equations, kernel lints), `bcv` verifies the
//! artifact the machine actually runs: the linked bytecode image plus the
//! elaborated platform. Three layers, all static:
//!
//! 1. **Stack verification** ([`image`]) — per-function CFG + stack-depth
//!    proofs in the style of a JVM bytecode verifier (BCV2xx), plus a
//!    worst-case call-depth bound per actor against the VM's frame limit;
//! 2. **Memory classification** — interval abstract interpretation (the
//!    same lattice as `dfa::interval`) of every raw `LoadMem`/`StoreMem`
//!    address against the [`p2012::MemoryMap`]: statically unmapped or
//!    hole addresses, remote-cluster L1 traffic and out-of-frame computed
//!    local indexes (MEM3xx);
//! 3. **Race detection** ([`race`]) — a happens-before order derived from
//!    PEDF FIFO token dependencies and PE co-location; unordered firings
//!    with overlapping access ranges, or kernel accesses into DMA-managed
//!    boundary-FIFO windows, are reported with *both* source locations
//!    (RACE4xx).
//!
//! Findings share the [`debuginfo::Finding`] pipeline with `dfa`, so the
//! debugger's `analyze` command, the `--json` exporter and the graphviz
//! annotations treat both analyzers uniformly.

use std::collections::{BTreeMap, BTreeSet};

use debuginfo::{CodeAddr, Finding, LineTable, Severity, TypeTable};
use mind::CompiledApp;
use p2012::memory::{L1_BASE, L1_STRIDE};
use p2012::{MemoryMap, PeId, Program, Region, MAX_CALL_DEPTH};
use pedf::graph::ActorKind;
use pedf::{ActorId, AppGraph};

pub mod absint;
pub mod image;
pub mod race;

pub use debuginfo::render_findings;
pub use image::{Access, PassWork};

/// Stable rule identifiers. `BCV2xx` = bytecode/stack verification,
/// `MEM3xx` = static memory classification, `RACE4xx` = shared-memory
/// races.
pub mod rules {
    /// An instruction that pops more operands than the stack holds.
    pub const STACK_UNDERFLOW: &str = "BCV201";
    /// The operand stack provably grows past the VM limit.
    pub const STACK_OVERFLOW: &str = "BCV202";
    /// Control flow escapes the function's extent (fall-through or jump).
    pub const STACK_ESCAPE: &str = "BCV203";
    /// Two paths join with different stack depths.
    pub const STACK_JOIN: &str = "BCV204";
    /// Worst-case call depth exceeds (or cannot be bounded against) the
    /// VM's frame limit.
    pub const CALL_DEPTH: &str = "BCV205";
    /// A raw access to an address no memory region maps.
    pub const UNMAPPED_ACCESS: &str = "MEM301";
    /// A raw access landing in an unbacked hole of the L1 address window.
    pub const REGION_HOLE: &str = "MEM302";
    /// L1 traffic targeting a different cluster than the actor runs on.
    pub const CROSS_CLUSTER_L1: &str = "MEM303";
    /// A computed local index provably outside the function's frame.
    pub const LOCAL_INDEX_OOB: &str = "MEM304";
    /// Two unordered firings access overlapping memory, one writing.
    pub const UNORDERED_SHARED_ACCESS: &str = "RACE401";
    /// A kernel's raw access overlaps a DMA-managed boundary-FIFO window.
    pub const DMA_WINDOW_OVERLAP: &str = "RACE402";

    /// `(id, one-line summary)` for every rule, in id order — the source
    /// of the CLI's `analyze rules` listing and the README table.
    pub const ALL: &[(&str, &str)] = &[
        (STACK_UNDERFLOW, "operand stack underflow"),
        (STACK_OVERFLOW, "operand stack exceeds the VM limit"),
        (STACK_ESCAPE, "control flow escapes the function"),
        (STACK_JOIN, "unbalanced stack depth at a join"),
        (CALL_DEPTH, "worst-case call depth exceeds the VM limit"),
        (UNMAPPED_ACCESS, "access to a statically unmapped address"),
        (REGION_HOLE, "access into an unbacked L1 hole"),
        (CROSS_CLUSTER_L1, "L1 access targets a remote cluster"),
        (LOCAL_INDEX_OOB, "computed local index outside the frame"),
        (
            UNORDERED_SHARED_ACCESS,
            "unordered firings share memory with a write",
        ),
        (
            DMA_WINDOW_OVERLAP,
            "raw access overlaps a DMA transfer window",
        ),
    ];
}

/// Everything the verifier needs, detached from the live machine: the
/// linked image, the elaborated graph, the platform memory map and the
/// actor→PE→cluster placement. Build one with [`AnalysisInput::from_app`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    pub program: Program,
    pub graph: AppGraph,
    pub types: TypeTable,
    pub mem_map: MemoryMap,
    /// Every PE with its cluster (the host carries a pseudo-cluster of
    /// `u16::MAX` and never executes actors).
    pub pe_clusters: Vec<(PeId, u16)>,
    pub lines: LineTable,
}

impl AnalysisInput {
    pub fn from_app(app: &CompiledApp) -> AnalysisInput {
        AnalysisInput {
            program: app.program.clone(),
            graph: app.graph.clone(),
            types: app.types.clone(),
            mem_map: app.mem_map.clone(),
            pe_clusters: app.pe_clusters.clone(),
            lines: app.info.lines.clone(),
        }
    }
}

/// The combined verification result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted most severe first (then rule id, subject).
    pub findings: Vec<Finding>,
    /// Unordered actor-id pairs with a confirmed race, `(lo, hi)` sorted —
    /// the graphviz renderer draws these as dashed red edges.
    pub race_pairs: Vec<(u32, u32)>,
    /// The concrete overlapping address ranges behind `race_pairs`
    /// (RACE401 only) — the multiverse explorer watches these words to
    /// witness an access-order flip dynamically.
    pub race_sites: Vec<race::RaceSite>,
    /// Worklist steps of the per-function passes, summed over the image.
    pub work: image::PassWork,
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
}

/// Run all three verification layers over `input`.
pub fn verify(input: &AnalysisInput) -> Report {
    let prog = &input.program;
    let lines = &input.lines;
    let mut findings: Vec<Finding> = Vec::new();

    // Syntactic call graph first, so findings can be attributed to the
    // actors whose work functions reach them.
    let mut calls: BTreeMap<CodeAddr, BTreeSet<CodeAddr>> = BTreeMap::new();
    for f in &prog.funcs {
        let mut targets = BTreeSet::new();
        for pc in f.addr..f.end {
            if let Some(p2012::Insn::Call { addr, .. }) = prog.fetch(pc) {
                if let Some(callee) = prog.func_at(addr) {
                    targets.insert(callee.addr);
                }
            }
        }
        calls.insert(f.addr, targets);
    }
    let work_actors: Vec<(ActorId, CodeAddr)> = input
        .graph
        .actors
        .iter()
        .filter(|a| a.kind != ActorKind::Module)
        .filter_map(|a| {
            let entry = prog.func_at(a.work_addr?)?.addr;
            Some((a.id, entry))
        })
        .collect();
    let mut func_actors: BTreeMap<CodeAddr, BTreeSet<ActorId>> = BTreeMap::new();
    let mut actor_funcs: BTreeMap<ActorId, BTreeSet<CodeAddr>> = BTreeMap::new();
    for &(aid, entry) in &work_actors {
        let reach = image::reachable_funcs(&calls, entry);
        for &f in &reach {
            func_actors.entry(f).or_default().insert(aid);
        }
        actor_funcs.insert(aid, reach);
    }
    let subject_of = |faddr: CodeAddr| -> String {
        match func_actors.get(&faddr) {
            Some(aids) if !aids.is_empty() => aids
                .iter()
                .map(|&a| input.graph.qualified_name(a))
                .collect::<Vec<_>>()
                .join(", "),
            _ => "image".to_string(),
        }
    };

    // Layer 1+2a: per-function stack verification and access collection.
    let mut accesses: BTreeMap<CodeAddr, Vec<Access>> = BTreeMap::new();
    let mut work = image::PassWork::default();
    let img = image::Image::new(prog);
    for f in &prog.funcs {
        let rep = image::verify_function(&img, f, &subject_of(f.addr), lines);
        work += rep.work;
        findings.extend(rep.findings);
        accesses.insert(f.addr, rep.accesses);
    }

    // Layer 2b: classify the collected accesses against the memory map.
    let cluster_of: BTreeMap<u16, u16> = input.pe_clusters.iter().map(|&(p, c)| (p.0, c)).collect();
    for f in &prog.funcs {
        for acc in &accesses[&f.addr] {
            classify_access(input, &cluster_of, &func_actors, f.addr, acc, &mut findings);
        }
    }

    // Layer 1b: worst-case call depth per actor against the VM frame limit.
    for &(aid, entry) in &work_actors {
        let qname = input.graph.qualified_name(aid);
        let fi = match image::max_call_depth(&calls, entry) {
            None => Some(Finding::new(
                rules::CALL_DEPTH,
                Severity::Warning,
                qname,
                format!(
                    "recursive call cycle: worst-case call depth cannot be bounded \
                     (VM limit is {MAX_CALL_DEPTH} frames)"
                ),
            )),
            Some(d) if d > MAX_CALL_DEPTH as u64 => Some(Finding::new(
                rules::CALL_DEPTH,
                Severity::Error,
                qname,
                format!(
                    "worst-case call depth {d} exceeds the VM limit of {MAX_CALL_DEPTH} frames"
                ),
            )),
            Some(_) => None,
        };
        if let Some(mut fi) = fi {
            if let Some(sp) = image::span_at(lines, entry) {
                fi = fi.with_span(sp);
            }
            findings.push(fi);
        }
    }

    // Layer 3: happens-before race detection over per-actor access sets.
    let actor_accesses: Vec<race::ActorAccesses> = actor_funcs
        .iter()
        .map(|(&aid, funcs)| race::ActorAccesses {
            id: aid,
            accesses: funcs
                .iter()
                .flat_map(|f| accesses[f].iter().copied())
                .collect(),
        })
        .collect();
    let (race_findings, race_pairs, race_sites) =
        race::find_races(&input.graph, &input.types, &actor_accesses, lines);
    findings.extend(race_findings);

    debuginfo::sort_and_dedup_findings(&mut findings);
    Report {
        findings,
        race_pairs,
        race_sites,
        work,
    }
}

/// Mapped `[lo, hi]` word ranges of the platform, with their regions.
fn mapped_ranges(map: &MemoryMap) -> Vec<(u32, u32, Region)> {
    let mut out = Vec::new();
    for c in 0..map.clusters {
        let base = map.l1_base(c);
        out.push((base, base + map.l1_words - 1, Region::L1 { cluster: c }));
    }
    out.push((
        p2012::memory::L2_BASE,
        p2012::memory::L2_BASE + map.l2_words - 1,
        Region::L2,
    ));
    out.push((
        p2012::memory::L3_BASE,
        p2012::memory::L3_BASE + map.l3_words - 1,
        Region::L3,
    ));
    out
}

fn classify_access(
    input: &AnalysisInput,
    cluster_of: &BTreeMap<u16, u16>,
    func_actors: &BTreeMap<CodeAddr, BTreeSet<ActorId>>,
    faddr: CodeAddr,
    acc: &Access,
    findings: &mut Vec<Finding>,
) {
    let subject = match func_actors.get(&faddr) {
        Some(aids) if !aids.is_empty() => aids
            .iter()
            .map(|&a| input.graph.qualified_name(a))
            .collect::<Vec<_>>()
            .join(", "),
        _ => "image".to_string(),
    };
    let verb = if acc.write { "store to" } else { "load from" };
    let push =
        |rule: &'static str, sev: Severity, subj: String, msg: String, out: &mut Vec<Finding>| {
            let mut fi = Finding::new(rule, sev, subj, msg);
            if let Some(sp) = image::span_at(&input.lines, acc.pc) {
                fi = fi.with_span(sp);
            }
            out.push(fi);
        };
    let ranges = mapped_ranges(&input.mem_map);
    let hits: Vec<&(u32, u32, Region)> = ranges
        .iter()
        .filter(|(lo, hi, _)| acc.overlaps(*lo, *hi))
        .collect();
    if hits.is_empty() {
        let l1_window_end = L1_BASE + u32::from(input.mem_map.clusters) * L1_STRIDE - 1;
        if acc.overlaps(L1_BASE, l1_window_end) {
            push(
                rules::REGION_HOLE,
                Severity::Error,
                subject,
                format!(
                    "{verb} [0x{:08x}, 0x{:08x}] lands in an unbacked hole of the L1 window \
                     (each bank maps {} words)",
                    acc.lo, acc.hi, input.mem_map.l1_words
                ),
                findings,
            );
        } else {
            push(
                rules::UNMAPPED_ACCESS,
                Severity::Error,
                subject,
                format!(
                    "{verb} [0x{:08x}, 0x{:08x}]: no memory region maps this address",
                    acc.lo, acc.hi
                ),
                findings,
            );
        }
        return;
    }
    // Fully inside a single region: cluster-locality check for L1.
    if let [&(lo, hi, Region::L1 { cluster })] = hits.as_slice() {
        if acc.lo >= lo && acc.hi <= hi {
            let Some(aids) = func_actors.get(&faddr) else {
                return;
            };
            for &aid in aids {
                let actor = input.graph.actor(aid);
                let Some(pe) = actor.pe else { continue };
                let Some(&ac) = cluster_of.get(&pe.0) else {
                    continue;
                };
                if ac != u16::MAX && ac != cluster {
                    push(
                        rules::CROSS_CLUSTER_L1,
                        Severity::Warning,
                        input.graph.qualified_name(aid),
                        format!(
                            "{verb} [0x{:08x}, 0x{:08x}] targets cluster {cluster} L1 but the \
                             actor runs on cluster {ac} — remote L1 traffic",
                            acc.lo, acc.hi
                        ),
                        findings,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2012::{Insn, ProgramBuilder};
    use pedf::graph::{Dir, LinkClass};

    #[test]
    fn rules_table_matches_the_registry() {
        for (id, summary) in rules::ALL {
            let r = debuginfo::registry::find(id)
                .unwrap_or_else(|| panic!("{id} missing from debuginfo::registry"));
            assert_eq!(r.summary, *summary, "{id} summary drifted");
        }
    }

    fn base_input(program: Program) -> AnalysisInput {
        AnalysisInput {
            program,
            graph: AppGraph::new(),
            types: TypeTable::new(),
            mem_map: MemoryMap::default(),
            pe_clusters: vec![(PeId(0), 0), (PeId(1), 1)],
            lines: LineTable::default(),
        }
    }

    fn one_actor(g: &mut AppGraph, id: u32, name: &str, pe: u16, work: CodeAddr) -> ActorId {
        g.register_actor(
            id,
            name,
            ActorKind::Filter,
            None,
            Some(PeId(pe)),
            Some(work),
        )
        .unwrap()
    }

    fn rule_ids(r: &Report) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_function_verifies_clean() {
        let mut b = ProgramBuilder::new();
        b.begin_func(1);
        b.emit(Insn::Enter(2));
        b.emit(Insn::LoadLocal(0));
        b.emit(Insn::Const(2));
        b.emit(Insn::Add);
        b.emit(Insn::Ret { retc: 1 });
        let r = verify(&base_input(b.finish()));
        assert!(r.findings.is_empty(), "{}", r.table());
        assert_eq!(r.worst(), None);
    }

    #[test]
    fn underflow_is_bcv201() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Add);
        b.emit(Insn::Halt);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::STACK_UNDERFLOW]);
        assert_eq!(r.worst(), Some(Severity::Error));
    }

    #[test]
    fn overflow_is_bcv202() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        for _ in 0..=p2012::MAX_OPERAND_STACK {
            b.emit(Insn::Const(1));
        }
        b.emit(Insn::Halt);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::STACK_OVERFLOW]);
    }

    #[test]
    fn fall_through_is_bcv203() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(1));
        b.emit(Insn::Drop);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::STACK_ESCAPE]);
    }

    #[test]
    fn unbalanced_join_is_bcv204() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(0));
        let merge = b.new_label();
        b.jump_if_zero(merge);
        b.emit(Insn::Const(7)); // one path arrives with an extra operand
        b.bind(merge);
        b.emit(Insn::Halt);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::STACK_JOIN]);
    }

    #[test]
    fn recursion_is_bcv205() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Call { addr: f, argc: 0 });
        b.emit(Insn::Ret { retc: 0 });
        let mut input = base_input(b.finish());
        one_actor(&mut input.graph, 0, "rec", 0, f + 1);
        let r = verify(&input);
        assert_eq!(rule_ids(&r), vec![rules::CALL_DEPTH]);
        assert_eq!(r.findings[0].severity, Severity::Warning);
        assert_eq!(r.findings[0].subject, "rec");
    }

    #[test]
    fn unmapped_store_is_mem301() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(0xdead_beef));
        b.emit(Insn::Const(7));
        b.emit(Insn::StoreMem);
        b.emit(Insn::Halt);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::UNMAPPED_ACCESS]);
        assert_eq!(r.findings[0].subject, "image");
    }

    #[test]
    fn l1_hole_store_is_mem302() {
        let map = MemoryMap::default();
        let hole = L1_BASE + map.l1_words; // first word past bank 0's backing
        assert!(map.decode(hole).is_err());
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(hole));
        b.emit(Insn::Const(1));
        b.emit(Insn::StoreMem);
        b.emit(Insn::Halt);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::REGION_HOLE]);
    }

    #[test]
    fn remote_l1_load_is_mem303_warning() {
        let map = MemoryMap::default();
        let mut b = ProgramBuilder::new();
        let f = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(map.l1_base(1)));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Drop);
        b.emit(Insn::Ret { retc: 0 });
        let mut input = base_input(b.finish());
        one_actor(&mut input.graph, 0, "near", 0, f); // runs on cluster 0
        let r = verify(&input);
        assert_eq!(rule_ids(&r), vec![rules::CROSS_CLUSTER_L1]);
        assert_eq!(r.findings[0].severity, Severity::Warning);
        assert_eq!(r.findings[0].subject, "near");
    }

    #[test]
    fn computed_local_index_oob_is_mem304() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(2));
        b.emit(Insn::Const(5)); // offset: slot 0 + 5 misses a 2-slot frame
        b.emit(Insn::Const(9)); // value
        b.emit(Insn::StoreLocalIdx(0));
        b.emit(Insn::Halt);
        let r = verify(&base_input(b.finish()));
        assert_eq!(rule_ids(&r), vec![rules::LOCAL_INDEX_OOB]);
    }

    #[test]
    fn an_address_stored_through_a_computed_index_reads_back_exactly() {
        let mut b = ProgramBuilder::new();
        b.begin_func(0);
        b.emit(Insn::Enter(2));
        b.emit(Insn::Const(1)); // offset: slot 0 + 1
        b.emit(Insn::Const(0x2000_0000)); // value
        b.emit(Insn::StoreLocalIdx(0));
        b.emit(Insn::LoadLocal(1));
        b.emit(Insn::LoadMem);
        b.emit(Insn::Drop);
        b.emit(Insn::Ret { retc: 0 });
        let prog = b.finish();
        let rep = image::verify_function(
            &image::Image::new(&prog),
            &prog.funcs[0],
            "f",
            &LineTable::default(),
        );
        assert!(rep.findings.is_empty());
        assert_eq!(
            rep.accesses,
            [Access {
                pc: 5,
                lo: 0x2000_0000,
                hi: 0x2000_0000,
                write: false
            }]
        );
    }

    /// Emit a work function storing `value` to the exact address `addr`.
    fn store_fn(b: &mut ProgramBuilder, addr: u32, value: u32) -> CodeAddr {
        let f = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Const(addr));
        b.emit(Insn::Const(value));
        b.emit(Insn::StoreMem);
        b.emit(Insn::Ret { retc: 0 });
        f
    }

    #[test]
    fn unordered_shared_store_is_race401() {
        let mut b = ProgramBuilder::new();
        let fa = store_fn(&mut b, 0x2000_f000, 1);
        let fb = store_fn(&mut b, 0x2000_f000, 2);
        let mut input = base_input(b.finish());
        one_actor(&mut input.graph, 0, "a", 0, fa);
        one_actor(&mut input.graph, 1, "b", 1, fb);
        let r = verify(&input);
        assert_eq!(rule_ids(&r), vec![rules::UNORDERED_SHARED_ACCESS]);
        assert_eq!(r.findings[0].subject, "a <-> b");
        assert_eq!(r.race_pairs, vec![(0, 1)]);
    }

    #[test]
    fn token_dependency_orders_the_pair() {
        let mut b = ProgramBuilder::new();
        let fa = store_fn(&mut b, 0x2000_f000, 1);
        let fb = store_fn(&mut b, 0x2000_f000, 2);
        let mut input = base_input(b.finish());
        let a = one_actor(&mut input.graph, 0, "a", 0, fa);
        let bb = one_actor(&mut input.graph, 1, "b", 1, fb);
        let o = input
            .graph
            .register_conn(0, a, "out", Dir::Out, TypeTable::U32)
            .unwrap();
        let i = input
            .graph
            .register_conn(1, bb, "inp", Dir::In, TypeTable::U32)
            .unwrap();
        input
            .graph
            .register_link(0, o, i, 4, LinkClass::Data, 0x3000_0100)
            .unwrap();
        let r = verify(&input);
        assert!(r.findings.is_empty(), "{}", r.table());
        assert!(r.race_pairs.is_empty());
    }

    #[test]
    fn same_pe_orders_the_pair() {
        let mut b = ProgramBuilder::new();
        let fa = store_fn(&mut b, 0x2000_f000, 1);
        let fb = store_fn(&mut b, 0x2000_f000, 2);
        let mut input = base_input(b.finish());
        one_actor(&mut input.graph, 0, "a", 0, fa);
        one_actor(&mut input.graph, 1, "b", 0, fb); // same PE: serialized
        let r = verify(&input);
        assert!(r.findings.is_empty(), "{}", r.table());
    }

    #[test]
    fn read_read_sharing_is_not_a_race() {
        let mut b = ProgramBuilder::new();
        let load_fn = |b: &mut ProgramBuilder| {
            let f = b.begin_func(0);
            b.emit(Insn::Enter(0));
            b.emit(Insn::Const(0x2000_f000));
            b.emit(Insn::LoadMem);
            b.emit(Insn::Drop);
            b.emit(Insn::Ret { retc: 0 });
            f
        };
        let fa = load_fn(&mut b);
        let fb = load_fn(&mut b);
        let mut input = base_input(b.finish());
        one_actor(&mut input.graph, 0, "a", 0, fa);
        one_actor(&mut input.graph, 1, "b", 1, fb);
        let r = verify(&input);
        assert!(r.findings.is_empty(), "{}", r.table());
    }

    #[test]
    fn store_into_dma_window_is_race402() {
        let mut b = ProgramBuilder::new();
        let fa = store_fn(&mut b, 0x3000_0002, 1); // inside the 4-token window
        let fprod = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let fcons = b.begin_func(0);
        b.emit(Insn::Enter(0));
        b.emit(Insn::Ret { retc: 0 });
        let mut input = base_input(b.finish());
        let p = one_actor(&mut input.graph, 0, "prod", 0, fprod);
        let c = one_actor(&mut input.graph, 1, "cons", 1, fcons);
        one_actor(&mut input.graph, 2, "rogue", 0, fa);
        let o = input
            .graph
            .register_conn(0, p, "out", Dir::Out, TypeTable::U32)
            .unwrap();
        let i = input
            .graph
            .register_conn(1, c, "inp", Dir::In, TypeTable::U32)
            .unwrap();
        input
            .graph
            .register_link(0, o, i, 4, LinkClass::DmaControl, 0x3000_0000)
            .unwrap();
        let r = verify(&input);
        assert_eq!(rule_ids(&r), vec![rules::DMA_WINDOW_OVERLAP]);
        assert_eq!(r.findings[0].subject, "rogue <-> dma");
        assert!(r.findings[0].message.contains("0x30000000"));
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
    fn verify_is_deterministic() {
        let mut b = ProgramBuilder::new();
        let fa = store_fn(&mut b, 0x2000_f000, 1);
        let fb = store_fn(&mut b, 0x2000_f000, 2);
        let f3 = store_fn(&mut b, 0xdead_beef, 3);
        let mut input = base_input(b.finish());
        one_actor(&mut input.graph, 0, "a", 0, fa);
        one_actor(&mut input.graph, 1, "b", 1, fb);
        one_actor(&mut input.graph, 2, "c", 0, f3);
        let r1 = verify(&input);
        let r2 = verify(&input);
        assert_eq!(r1.table(), r2.table());
        assert_eq!(
            debuginfo::render_findings_json(&r1.findings),
            debuginfo::render_findings_json(&r2.findings)
        );
        assert_eq!(r1.race_pairs, r2.race_pairs);
    }
}
