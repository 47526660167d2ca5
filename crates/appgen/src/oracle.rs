//! The differential oracle: run a generated app through the static
//! analyzers and through the simulator, and require the two worlds to
//! agree.
//!
//! Directions checked (each divergence names its oracle so shrinking can
//! preserve the failure kind):
//!
//! * **D1** — no error-severity finding ⟹ the app completes (no wedge,
//!   no fault, no cycle-limit timeout).
//! * **D2** — a `DFA004` structural-deadlock verdict ⟹ the app wedges,
//!   and at least one statically blamed cycle member is dynamically
//!   blocked.
//! * **D3** — `sched`'s capacity minima are dynamically minimal: the app
//!   completes with every analyzed FIFO at its predicted minimum, and
//!   wedges (blamed via `SpaceWait` on the squeezed link, with the static
//!   re-pass agreeing) one slot below any above-floor minimum.
//! * **D4** — a `MEM301`/`MEM302` verdict ⟹ the run traps, and a trap
//!   ⟹ an error-severity finding exists (no silent faults).
//! * **D5** — on unit-rate apps that complete, measured cycles never beat
//!   `period_lb × steps` (the static throughput bound is a true bound).
//! * **D6** — record → reverse-continue → replay is a fixpoint: the
//!   state hash round-trips and no `REPLAY501` finding appears.
//! * **D7** — parking is invisible: a run that parks blocked PEs (the
//!   runtime answers `TrapHandler::still_blocked`) and a reference run
//!   that re-presents their traps every cycle report the same counts on
//!   every cycle and reach the same full state hash.
//! * **D8** — on maybe-race (`RACE401`) and maybe-deadlock
//!   (`DFA003`/`DFA004`) apps, the optimized multiverse search (sleep
//!   sets + equivalence pruning) must reach the same witness-existence
//!   verdict as the brute-force enumeration of the identical bounded
//!   override space — the pruning may only skip *redundant* universes,
//!   never load-bearing ones.
//!
//! `DFA003` (rate inconsistency) deliberately gets only a weak oracle —
//! the backlog direction of a mismatch still completes while the
//! starvation direction wedges, so the only sound expectation is "no
//! fault, no timeout". `RACE401` likewise predicts nothing about the
//! terminal outcome (the generated racy apps complete either way); its
//! teeth are the D8 agreement check.
//!
//! The D3 and D6 cores, [`capacity_arms`] and [`replay_round_trip`], take
//! any app: `analyze --sched-check` and `analyze --replay-check` run the
//! same code on the H.264 decoder variants, so the CI gates and the fuzz
//! oracles cannot drift apart.

use std::collections::BTreeMap;

use debuginfo::{Finding, Severity};
use dfdbg::{Session, Stop};
use p2012::{
    BlockReason, PeId, PeState, PeStatus, PlatformConfig, TrapCtx, TrapHandler, TrapResult, Word,
};

use crate::spec::AppSpec;

/// Cycle budget for one dynamic run of a generated app (tiny graphs; a
/// run that needs more than this is wedged-by-livelock and counts as a
/// timeout).
pub const MAX_CYCLES: u64 = 200_000;
/// Checkpoint interval for the replay fixpoint check — small, so even a
/// short generated run crosses several checkpoint boundaries.
const TT_INTERVAL: u64 = 500;

/// A static-vs-dynamic disagreement (or a generator/build bug — oracle
/// `BUILD`), carrying the oracle id that shrinking must preserve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which direction fired: `D1`..`D8`, or `BUILD`.
    pub oracle: String,
    pub detail: String,
}

impl Divergence {
    fn new(oracle: &str, detail: impl Into<String>) -> Self {
        Divergence {
            oracle: oracle.to_string(),
            detail: detail.into(),
        }
    }
}

/// What the simulator did with the app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed {
    Completed { cycles: u64 },
    Wedged { blocked: Vec<String> },
    Fault { msg: String },
    Timeout,
}

impl Observed {
    pub fn label(&self) -> &'static str {
        match self {
            Observed::Completed { .. } => "completed",
            Observed::Wedged { .. } => "wedged",
            Observed::Fault { .. } => "fault",
            Observed::Timeout => "timeout",
        }
    }
}

/// What the merged static findings predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Complete,
    Wedge,
    Fault,
    /// Rate-inconsistent (DFA003): completion and wedge are both
    /// legitimate; only faults and timeouts contradict the analysis.
    NoFaultOnly,
}

/// The merged static verdict over one spec.
pub struct StaticVerdict {
    pub findings: Vec<Finding>,
    pub sched: sched::Report,
    pub dfa: dfa::Report,
    pub bcv: bcv::Report,
}

impl StaticVerdict {
    pub fn has(&self, rule: &str) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }
    pub fn has_error(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Everything one oracle pass did — feeds the E10 table and the fuzz
/// driver's stats line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    pub expected: String,
    pub observed: String,
    /// Links exercised by the D3 squeeze arm (cap-at-min and min−1).
    pub squeezed_links: usize,
    /// Whether the D5 throughput bound applied.
    pub throughput_checked: bool,
    /// Whether the D6 replay fixpoint ran.
    pub replay_checked: bool,
    /// Whether the D8 explore-agreement check ran (maybe-race or
    /// maybe-deadlock apps only).
    pub explore_checked: bool,
}

fn build(
    spec: &AppSpec,
    caps: &BTreeMap<String, u32>,
) -> Result<(pedf::System, mind::CompiledApp), String> {
    let (mut sys, app) = mind::build_with_caps(
        &spec.to_adl(),
        &spec.to_sources(),
        PlatformConfig::default(),
        caps,
    )
    .map_err(|e| e.to_string())?;
    for m in 0..spec.modules.len() {
        let id = app
            .actor(&format!("m{m}"))
            .ok_or_else(|| format!("module m{m} missing after elaboration"))?;
        sys.runtime.set_max_steps(id, spec.steps);
    }
    Ok((sys, app))
}

/// Run the three analyzers over the spec and merge the findings the same
/// way the `analyze` CLI does.
pub fn static_pass(spec: &AppSpec) -> Result<StaticVerdict, String> {
    let (_sys, app) = build(spec, &BTreeMap::new())?;
    let sources = spec.to_sources();
    let dfa_rep = dfa::analyze(&dfa::AnalysisInput::from_app(&app, &sources));
    let bcv_rep = bcv::verify(&bcv::AnalysisInput::from_app(&app));
    let sched_rep = sched::analyze(&sched::AnalysisInput::from_app(&app, &sources));
    let mut findings = dfa_rep.findings.clone();
    findings.extend(bcv_rep.findings.iter().cloned());
    findings.extend(sched_rep.findings.iter().cloned());
    debuginfo::sort_and_dedup_findings(&mut findings);
    Ok(StaticVerdict {
        findings,
        sched: sched_rep,
        dfa: dfa_rep,
        bcv: bcv_rep,
    })
}

/// Boot and run the spec with capacity overrides; classify the outcome.
pub fn dynamic_run(
    spec: &AppSpec,
    caps: &BTreeMap<String, u32>,
) -> Result<(pedf::System, mind::CompiledApp, Observed), String> {
    let (mut sys, app) = build(spec, caps)?;
    sys.boot(app.boot_entry)?;
    // Generated apps have no environment sources, so a deadlock or fault
    // is terminal — no need to burn the rest of the cycle budget
    // (shrinking runs thousands of these). `is_deadlocked` is transiently
    // true during step handoffs (controller parked, filter not yet
    // dispatched), so require it to hold for a stability window before
    // bailing.
    let mut stuck = 0u32;
    sys.run_until(MAX_CYCLES, |s| {
        if s.platform.is_quiescent() || s.first_fault().is_some() {
            return true;
        }
        if s.platform.is_deadlocked() {
            stuck += 1;
        } else {
            stuck = 0;
        }
        stuck > 1_000
    });
    let observed = observe(&sys);
    Ok((sys, app, observed))
}

/// Classify where a run stopped: a faulted PE, quiescence, a wedge (with
/// the blocked actors), or neither within the cycle budget.
pub fn observe(sys: &pedf::System) -> Observed {
    if let Some((pe, fault)) = sys.first_fault() {
        Observed::Fault {
            msg: format!("{pe}: {fault}"),
        }
    } else if sys.platform.is_quiescent() {
        Observed::Completed {
            cycles: sys.clock(),
        }
    } else if sys.platform.is_deadlocked() {
        let blocked = sys
            .runtime
            .graph
            .actors
            .iter()
            .filter(|a| {
                a.pe.is_some_and(|pe| matches!(sys.pe_status(pe), PeStatus::Blocked(_)))
            })
            .map(|a| a.name.clone())
            .collect();
        Observed::Wedged { blocked }
    } else {
        Observed::Timeout
    }
}

fn expected_outcome(v: &StaticVerdict) -> Result<Expect, Divergence> {
    if v.has(bcv::rules::UNMAPPED_ACCESS) || v.has(bcv::rules::REGION_HOLE) {
        return Ok(Expect::Fault);
    }
    if v.has(dfa::rules::STRUCTURAL_DEADLOCK) || v.has(sched::rules::CAPACITY_BELOW_MIN) {
        return Ok(Expect::Wedge);
    }
    if v.has(dfa::rules::RATE_INCONSISTENT) {
        return Ok(Expect::NoFaultOnly);
    }
    // RACE401 (the mem-shared shape) predicts a schedule-dependent
    // *output*, not a failed run: the app completes under every schedule,
    // so it falls through to `Complete` here and gets its real oracle in
    // the D8 explore-agreement check.
    if let Some(f) = v
        .findings
        .iter()
        .find(|f| f.severity == Severity::Error && f.rule != bcv::rules::UNORDERED_SHARED_ACCESS)
    {
        // A generated app should never trip any other error rule — that
        // is a generator (or analyzer) bug worth shrinking and keeping.
        return Err(Divergence::new(
            "BUILD",
            format!("unexpected static error {} on {}", f.rule, f.subject),
        ));
    }
    Ok(Expect::Complete)
}

/// D2 blame: at least one statically named cycle member must be blocked.
fn deadlock_blame(sys: &pedf::System, dfa_rep: &dfa::Report) -> bool {
    dfa_rep.deadlock_actors.iter().any(|&id| {
        sys.runtime
            .graph
            .actors
            .iter()
            .find(|a| a.id.0 == id)
            .and_then(|a| a.pe)
            .is_some_and(|pe| matches!(sys.pe_status(pe), PeStatus::Blocked(_)))
    })
}

/// What [`capacity_arms`] ran and confirmed.
pub struct CapacityArms {
    /// Every analyzed link's predicted minimal capacity, by producer
    /// `actor::conn` label.
    pub caps: BTreeMap<String, u32>,
    /// The run with every analyzed FIFO at its predicted minimum; it
    /// completed.
    pub at_min: (pedf::System, mind::CompiledApp),
    /// Each above-floor link squeezed one slot below its minimum:
    /// `(producer label, predicted minimum, link label)`. Each wedged,
    /// blamed on that link, with the static re-pass agreeing.
    pub squeezed: Vec<(String, u32, String)>,
}

/// D3 core: `sched`'s capacity minima are dynamically minimal. `report`
/// is the static pass over `graph` as built. Arm A runs with every
/// analyzed FIFO at its predicted minimum and requires completion. Arm B
/// squeezes each link whose minimum exceeds the one-slot floor to one slot
/// below it and requires a wedge with a producer `SpaceWait`ing on exactly
/// that link, and an `SCH501` on it from a re-pass over the squeezed
/// build. `run` builds, boots and runs the app at the given capacity
/// overrides and classifies the end state with [`observe`]. `Ok(None)`
/// when no link was analyzed (nothing to check).
pub fn capacity_arms(
    report: &sched::Report,
    graph: &pedf::AppGraph,
    sources: &mind::SourceRegistry,
    mut run: impl FnMut(
        &BTreeMap<String, u32>,
    ) -> Result<(pedf::System, mind::CompiledApp, Observed), String>,
) -> Result<Option<CapacityArms>, Divergence> {
    if report.structural {
        return Err(Divergence::new(
            "D3",
            "abstract network deadlocks at any capacity; sizing not applicable",
        ));
    }
    let caps = report.min_caps_by_label(graph);
    if caps.is_empty() {
        return Ok(None);
    }
    // Arm A: complete at the predicted minima.
    let (sys, app, observed) = run(&caps).map_err(|e| Divergence::new("BUILD", e))?;
    if !matches!(observed, Observed::Completed { .. }) {
        return Err(Divergence::new(
            "D3",
            format!(
                "app {} at the predicted minimal capacities {caps:?}",
                observed.label()
            ),
        ));
    }
    let at_min = (sys, app);
    // Arm B: one slot below any above-floor minimum must wedge, blamed on
    // the squeezed link, with the static re-pass agreeing.
    let mut squeezed = Vec::new();
    for (label, &cap) in &caps {
        if cap < 2 {
            continue;
        }
        let mut tight = caps.clone();
        tight.insert(label.clone(), cap - 1);
        let (sys, app_tight, observed) = run(&tight).map_err(|e| Divergence::new("BUILD", e))?;
        if !matches!(observed, Observed::Wedged { .. }) {
            return Err(Divergence::new(
                "D3",
                format!(
                    "app {} with {label} squeezed to {} (predicted minimum {cap})",
                    observed.label(),
                    cap - 1
                ),
            ));
        }
        let conn = app_tight
            .conn(label)
            .ok_or_else(|| Divergence::new("BUILD", format!("label {label} lost in rebuild")))?;
        let victim = app_tight.graph.conn(conn).link.expect("bound conn");
        let blamed = sys.runtime.graph.actors.iter().any(|a| {
            a.pe.is_some_and(|pe| {
                matches!(
                    sys.pe_status(pe),
                    PeStatus::Blocked(BlockReason::SpaceWait { link: l }) if l == victim.0
                )
            })
        });
        if !blamed {
            return Err(Divergence::new(
                "D3",
                format!("wedge not blamed on squeezed {label}: no producer space-waits on it"),
            ));
        }
        let squeezed_rep = sched::analyze(&sched::AnalysisInput::from_app(&app_tight, sources));
        let label_full = app_tight.graph.link_label(victim);
        if !squeezed_rep
            .findings
            .iter()
            .any(|f| f.rule == sched::rules::CAPACITY_BELOW_MIN && f.subject == label_full)
        {
            return Err(Divergence::new(
                "D3",
                format!("squeezed build carries no SCH501 on {label_full}"),
            ));
        }
        squeezed.push((label.clone(), cap, label_full));
    }
    Ok(Some(CapacityArms {
        caps,
        at_min,
        squeezed,
    }))
}

/// D3 over a generated app.
fn check_capacity_arms(
    spec: &AppSpec,
    verdict: &StaticVerdict,
    report: &mut CheckReport,
) -> Result<(), Divergence> {
    let (_sys, app) = build(spec, &BTreeMap::new()).map_err(|e| Divergence::new("BUILD", e))?;
    let arms = capacity_arms(&verdict.sched, &app.graph, &spec.to_sources(), |caps| {
        dynamic_run(spec, caps)
    })?;
    report.squeezed_links = arms.map_or(0, |a| a.squeezed.len());
    Ok(())
}

/// What [`replay_round_trip`] saw.
#[derive(Debug, Clone)]
pub struct RoundTrip {
    /// Catchpoint stops before the terminal one.
    pub stops: u64,
    /// The stop that ended the forward run: deadlock, quiescence, fault
    /// or the cycle limit.
    pub terminal: Stop,
    pub end_cycle: u64,
    pub end_hash: u64,
    /// Where `reverse-continue` from the end landed.
    pub landed: u64,
    /// Where the replay back to `end_cycle` stopped, and its state hash.
    pub replayed_cycle: u64,
    pub replayed_hash: u64,
    /// The replay engine's `REPLAY501` divergence findings.
    pub findings: Vec<Finding>,
}

impl RoundTrip {
    /// D6's verdict: the replay reaches the end cycle with the end state
    /// hash, and the replay engine saw no divergence.
    pub fn check(&self) -> Result<(), Divergence> {
        if self.replayed_hash != self.end_hash {
            return Err(Divergence::new(
                "D6",
                format!(
                    "state hash diverged: {:#018x} -> {:#018x}",
                    self.end_hash, self.replayed_hash
                ),
            ));
        }
        if self.replayed_cycle != self.end_cycle {
            return Err(Divergence::new(
                "D6",
                format!(
                    "replay landed at {} not {}",
                    self.replayed_cycle, self.end_cycle
                ),
            ));
        }
        if let Some(f) = self.findings.first() {
            return Err(Divergence::new(
                "D6",
                format!("{} replay findings ({})", self.findings.len(), f.rule),
            ));
        }
        Ok(())
    }
}

/// D6 core: record → reverse-continue → replay. `session` is booted, with
/// its environment attached and time travel enabled. Catch every module
/// step begin, run to a terminal stop (`run_budget` cycles per resume, at
/// most `max_stops` catchpoint stops), `reverse-continue` from there, then
/// replay forward to the end cycle. [`RoundTrip::check`] judges the
/// result.
pub fn replay_round_trip(
    session: &mut Session,
    run_budget: u64,
    max_stops: u64,
) -> Result<RoundTrip, Divergence> {
    session
        .catch_step(None, true)
        .map_err(|e| Divergence::new("BUILD", format!("catch step: {e}")))?;
    let mut stops = 0u64;
    let terminal = loop {
        match session.run(run_budget) {
            s @ (Stop::Deadlock | Stop::Quiescent | Stop::CycleLimit | Stop::Fault { .. }) => {
                break s;
            }
            _ => stops += 1,
        }
        if stops > max_stops {
            return Err(Divergence::new("D6", "runaway stop loop under recording"));
        }
    };
    let end_cycle = session.sys.clock();
    let end_hash = session.state_hash();
    session
        .reverse_continue()
        .map_err(|e| Divergence::new("D6", format!("reverse-continue failed: {e}")))?;
    let landed = session.sys.clock();
    session
        .goto_cycle(end_cycle)
        .map_err(|e| Divergence::new("D6", format!("replay to end failed: {e}")))?;
    Ok(RoundTrip {
        stops,
        terminal,
        end_cycle,
        end_hash,
        landed,
        replayed_cycle: session.sys.clock(),
        replayed_hash: session.state_hash(),
        findings: session.replay_findings().to_vec(),
    })
}

/// D6 over a generated app, whatever its terminal state is.
fn check_replay_fixpoint(spec: &AppSpec) -> Result<(), Divergence> {
    let (sys, mut app) = build(spec, &BTreeMap::new()).map_err(|e| Divergence::new("BUILD", e))?;
    let boot = app.boot_entry;
    let info = std::mem::take(&mut app.info);
    let mut session = Session::attach(sys, info);
    session
        .boot(boot)
        .map_err(|e| Divergence::new("BUILD", format!("boot: {e}")))?;
    session.enable_time_travel(TT_INTERVAL);
    replay_round_trip(&mut session, MAX_CYCLES, 100_000)?.check()
}

/// The reference stepper for D7: forwards every trap-interface call to
/// the runtime except [`TrapHandler::still_blocked`], so a blocked PE
/// re-presents its trap every cycle instead of parking.
struct Polling<'a>(&'a mut pedf::Runtime);

impl TrapHandler for Polling<'_> {
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult {
        self.0.trap(ctx, pe, current, id, args)
    }

    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        self.0.on_task_complete(ctx, pe, current)
    }

    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        self.0.on_cycle(ctx)
    }

    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        self.0.choose_dma_order(n_active, clock)
    }
}

/// Cycles between two full-state comparisons in [`check_parking`].
const PARKING_HASH_EVERY: u64 = 1_000;

/// Cycles a run stands deadlocked before [`check_parking`] injects
/// its token, and how many times it unties the same wedge.
const UNTIE_AFTER: u32 = 50;
const UNTIE_TIMES: u32 = 3;

/// D7: step two copies of `sys` in lockstep, one parking its blocked PEs
/// and one polling them through [`Polling`]. Every cycle's `CycleReport`
/// must agree, and so must the full state hash every
/// [`PARKING_HASH_EVERY`] cycles and at the end. The run goes on past a
/// faulted PE (the others keep running) and ends at quiescence, after
/// 1,000 cycles of deadlock, or after `max_cycles`. Returns the number of
/// cycles compared.
///
/// With `untie` naming a link, the debugger's hand is on a FIFO: every
/// time the parked run has stood deadlocked for [`UNTIE_AFTER`] cycles
/// (at most [`UNTIE_TIMES`] times) both copies get the same token
/// injected onto it from outside the stepper, as `token inject` does, and
/// the comparison goes on. A stepper that misses the wake such a
/// mutation owes a parked PE diverges here.
pub fn check_parking(
    sys: &pedf::System,
    max_cycles: u64,
    untie: Option<pedf::LinkId>,
) -> Result<u64, Divergence> {
    let (mut parked, mut polled) = (sys.clone(), sys.clone());
    let mut stuck = 0u32;
    let mut untied = 0u32;
    let mut cycles = 0;
    while cycles < max_cycles {
        let clock = parked.clock();
        let a = parked.step();
        let b = polled
            .platform
            .step_cycle(&mut Polling(&mut polled.runtime));
        cycles += 1;
        if a != b {
            return Err(Divergence::new(
                "D7",
                format!("cycle {clock}: parked run reported {a:?}, polling run {b:?}"),
            ));
        }
        stuck = if parked.platform.is_deadlocked() {
            stuck + 1
        } else {
            0
        };
        if let Some(link) = untie.filter(|_| stuck == UNTIE_AFTER && untied < UNTIE_TIMES) {
            for s in [&mut parked, &mut polled] {
                inject_filler(s, link)?;
            }
            untied += 1;
            stuck = 0;
        }
        if parked.platform.is_quiescent() || stuck > 1_000 {
            break;
        }
        if cycles % PARKING_HASH_EVERY == 0 {
            same_state(&parked, &polled)?;
        }
    }
    same_state(&parked, &polled)?;
    if untie.is_some() && untied == 0 {
        return Err(Divergence::new(
            "D7",
            "the run never wedged, so nothing was injected".to_string(),
        ));
    }
    Ok(cycles)
}

/// `token inject` of an all-42 token of the link's type.
fn inject_filler(sys: &mut pedf::System, link: pedf::LinkId) -> Result<(), Divergence> {
    let rt = &mut sys.runtime;
    let ty = rt.graph.conn(rt.graph.link(link).from).ty;
    let words = vec![42; rt.types.size_words(ty) as usize];
    rt.inject_token(
        &mut sys.platform.mem,
        link,
        &debuginfo::Value::record(ty, words),
    )
    .map(|_| ())
    .map_err(|e| Divergence::new("D7", format!("token inject: {e}")))
}

fn same_state(parked: &pedf::System, polled: &pedf::System) -> Result<(), Divergence> {
    let (a, b) = (
        replay::full_state_hash(parked),
        replay::full_state_hash(polled),
    );
    if a == b {
        return Ok(());
    }
    Err(Divergence::new(
        "D7",
        format!(
            "cycle {}: state hash {a:#018x} parked, {b:#018x} polled",
            parked.clock()
        ),
    ))
}

/// D7 over a generated app, from its first boot instruction on.
fn check_parking_spec(spec: &AppSpec) -> Result<(), Divergence> {
    let (mut sys, app) = build(spec, &BTreeMap::new()).map_err(|e| Divergence::new("BUILD", e))?;
    let host = sys.platform.host_id();
    sys.platform.invoke(host, app.boot_entry, &[]);
    check_parking(&sys, MAX_CYCLES, None).map(|_| ())
}

/// D8: one bounded multiverse search over the spec's interleavings.
/// `optimized` toggles the two pruning mechanisms together; everything
/// else (depth, points, codes, budget) is identical, so the two runs
/// enumerate the same override space.
fn explore_once(
    spec: &AppSpec,
    verdict: &StaticVerdict,
    until: multiverse::Until,
    optimized: bool,
) -> Result<multiverse::ExploreReport, Divergence> {
    let (mut sys, app) = build(spec, &BTreeMap::new()).map_err(|e| Divergence::new("BUILD", e))?;
    sys.boot(app.boot_entry)
        .map_err(|e| Divergence::new("BUILD", format!("boot: {e}")))?;
    let race_sites = dfdbg::race_watch_sites(&app.graph, &verdict.bcv.race_sites);
    let cfg = multiverse::ExploreConfig {
        budget: 256,
        horizon: 50_000,
        until,
        max_points: 8,
        max_dma_points: 2,
        max_depth: 1,
        sleep_sets: optimized,
        prune_equivalent: optimized,
        pool_max: 4,
        actor_codes: vec![1, 3, 5],
        dma_codes: vec![1],
        race_sites,
        anchor: 0,
    };
    Ok(multiverse::explore(sys, &cfg))
}

/// One D8 arm over a spec, for tests and probes: runs the static pass,
/// then one bounded explore in the requested mode (race hunt when the
/// verdict carries RACE401, deadlock hunt otherwise).
pub fn explore_probe(
    spec: &AppSpec,
    optimized: bool,
) -> Result<multiverse::ExploreReport, Divergence> {
    let verdict = static_pass(spec).map_err(|e| Divergence::new("BUILD", e))?;
    let until = if verdict.has(bcv::rules::UNORDERED_SHARED_ACCESS) {
        multiverse::Until::Race
    } else {
        multiverse::Until::Deadlock
    };
    explore_once(spec, &verdict, until, optimized)
}

/// D8: the optimized search must agree with brute force on whether the
/// bounded space holds a witness — and on which rule it witnesses.
fn check_explore_agreement(
    spec: &AppSpec,
    verdict: &StaticVerdict,
    report: &mut CheckReport,
) -> Result<(), Divergence> {
    let maybe_race = verdict.has(bcv::rules::UNORDERED_SHARED_ACCESS);
    let maybe_deadlock =
        verdict.has(dfa::rules::STRUCTURAL_DEADLOCK) || verdict.has(dfa::rules::RATE_INCONSISTENT);
    if !maybe_race && !maybe_deadlock {
        return Ok(());
    }
    report.explore_checked = true;
    let until = if maybe_race {
        multiverse::Until::Race
    } else {
        multiverse::Until::Deadlock
    };
    let fast = explore_once(spec, verdict, until, true)?;
    let brute = explore_once(spec, verdict, until, false)?;
    if brute.witness.is_none() && !brute.space_covered {
        // The ground truth did not finish enumerating (budget artifact);
        // "no witness" proves nothing, so there is nothing to compare.
        return Ok(());
    }
    match (&fast.witness, &brute.witness) {
        (Some(a), Some(b)) if a.rule != b.rule => Err(Divergence::new(
            "D8",
            format!(
                "optimized explore witnessed {} where brute force witnessed {}",
                a.rule, b.rule
            ),
        )),
        (Some(_), Some(_)) | (None, None) => Ok(()),
        (Some(w), None) => Err(Divergence::new(
            "D8",
            format!(
                "optimized explore found witness {w} but brute force covered the same \
                 space ({} universes) without one",
                brute.stats.universes_explored
            ),
        )),
        (None, Some(w)) => Err(Divergence::new(
            "D8",
            format!(
                "brute force found witness {w} but the optimized search missed it \
                 (pruned {}, sleep-set hits {})",
                fast.stats.universes_pruned, fast.stats.sleep_set_hits
            ),
        )),
    }
}

/// Run every oracle direction over one spec.
pub fn check_spec(spec: &AppSpec) -> Result<CheckReport, Divergence> {
    spec.validate().map_err(|e| Divergence::new("BUILD", e))?;
    let verdict = static_pass(spec).map_err(|e| Divergence::new("BUILD", e))?;
    let expect = expected_outcome(&verdict)?;
    let (sys, _app, observed) =
        dynamic_run(spec, &BTreeMap::new()).map_err(|e| Divergence::new("BUILD", e))?;

    let mut report = CheckReport {
        expected: format!("{expect:?}"),
        observed: observed.label().to_string(),
        ..CheckReport::default()
    };

    match (expect, &observed) {
        (Expect::Fault, Observed::Fault { .. }) => {}
        (Expect::Fault, other) => {
            return Err(Divergence::new(
                "D4",
                format!("static MEM3xx error but the run {}", other.label()),
            ));
        }
        (Expect::Wedge, Observed::Wedged { .. }) => {
            if verdict.has(dfa::rules::STRUCTURAL_DEADLOCK) && !deadlock_blame(&sys, &verdict.dfa) {
                return Err(Divergence::new(
                    "D2",
                    "wedged, but no statically blamed cycle member is blocked",
                ));
            }
        }
        (Expect::Wedge, other) => {
            let rule = if verdict.has(dfa::rules::STRUCTURAL_DEADLOCK) {
                "DFA004"
            } else {
                "SCH501"
            };
            let oracle = if rule == "DFA004" { "D2" } else { "D3" };
            return Err(Divergence::new(
                oracle,
                format!(
                    "static {rule} predicts a wedge but the run {}",
                    other.label()
                ),
            ));
        }
        (Expect::Complete, Observed::Completed { .. }) => {}
        (Expect::Complete, other) => {
            return Err(Divergence::new(
                "D1",
                format!("no static error finding but the run {}", other.label()),
            ));
        }
        (Expect::NoFaultOnly, Observed::Fault { msg }) => {
            return Err(Divergence::new(
                "D4",
                format!("rate-inconsistent app faulted: {msg}"),
            ));
        }
        (Expect::NoFaultOnly, Observed::Timeout) => {
            return Err(Divergence::new(
                "D1",
                "rate-inconsistent app hit the cycle limit (livelock)",
            ));
        }
        (Expect::NoFaultOnly, _) => {}
    }

    // Soundness completeness: a trap with no error-severity finding means
    // the memory analysis missed something.
    if matches!(observed, Observed::Fault { .. }) && !verdict.has_error() {
        return Err(Divergence::new(
            "D4",
            "the run faulted but the static pass carries no error finding",
        ));
    }

    // D5: the throughput bound, where it soundly applies.
    if let Observed::Completed { cycles } = observed {
        if spec.all_unit_rates() && verdict.sched.period_lb > 0 {
            report.throughput_checked = true;
            let bound = verdict.sched.period_lb * spec.steps;
            if cycles < bound {
                return Err(Divergence::new(
                    "D5",
                    format!(
                        "measured {cycles} cycles beats the static bound {bound} \
                         ({} per iteration)",
                        verdict.sched.period_lb
                    ),
                ));
            }
        }
    }

    // D3: capacity minima, on apps the capacity model claims to cover.
    if matches!(expect, Expect::Complete)
        && !verdict.sched.structural
        && matches!(observed, Observed::Completed { .. })
    {
        check_capacity_arms(spec, &verdict, &mut report)?;
    }

    // D6: the replay fixpoint, on every app.
    report.replay_checked = true;
    check_replay_fixpoint(spec)?;

    // D7: parked and polled blocked PEs step identically, on every app.
    check_parking_spec(spec)?;

    // D8: bounded explore vs. brute-force ground truth, on apps whose
    // static verdict says an interleaving search has something to find.
    check_explore_agreement(spec, &verdict, &mut report)?;

    Ok(report)
}
