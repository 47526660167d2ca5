//! Regenerates the paper's evaluation as text tables (experiments E1–E11
//! of DESIGN.md / EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p bench --bin report [n_mbs] [--json]
//! cargo run --release -p bench --bin report -- --e1-smoke
//! cargo run --release -p bench --bin report -- --e6-smoke
//! cargo run --release -p bench --bin report -- --e8-smoke
//! cargo run --release -p bench --bin report -- --e9-smoke
//! cargo run --release -p bench --bin report -- --e10-smoke
//! cargo run --release -p bench --bin report -- --e11-smoke
//! ```
//!
//! With `--json`, each experiment additionally writes a machine-readable
//! `BENCH_E<n>.json` next to the working directory (hand-rolled writer —
//! the build environment is offline, no serde).
//!
//! `--e1-smoke` runs only the E1 work gate at 64 macroblocks: each of
//! the five configurations must decode the pinned number of cycles,
//! track the pinned number of tokens, retire the pinned number of
//! instructions and dispatch the pinned number of traps, and the
//! debugger must look at no more than 3 PEs per simulated cycle. Wall
//! time is not judged.
//!
//! `--e6-smoke` runs only the E6 recording gate: a 256-macroblock decode
//! under `catch recv pipe::mc_in` must stop at the same cycles and end in
//! the same state with time travel on and off, every checkpoint must
//! replay to that end with no `REPLAY501`, the checkpoints must share
//! the recorded history within the chunk bound, and seeded `goto` /
//! `reverse-continue` pairs must land on the forward run's stops; a
//! 512-macroblock decode must thin the checkpoint chain at least twice,
//! keep it within the budget beside the pinned checkpoints, and replay
//! every kept checkpoint to its end with no `REPLAY501`.
//!
//! `--e8-smoke` runs only a scaled-down E8 gate (64-session attach storm:
//! the compile cache must be hit exactly once, transcripts must stay
//! byte-identical, and attach p99 must stay bounded) and exits nonzero on
//! any violation — this is what CI runs.
//!
//! `--e9-smoke` runs only the E9 throughput-bound gate at 8 macroblocks:
//! every variant/provisioning cell must finish and measure at or above the
//! static per-iteration bound, and `BENCH_E9.json` is (re)written — the
//! checked-in artifact is byte-stable because every field in it is a
//! deterministic simulation quantity.
//!
//! `--e10-smoke` runs only the E10 differential-fuzz gate: 200 generated
//! apps through every oracle (zero divergences required) plus the DFA004
//! mutation self-check (must be caught and shrunk), and `BENCH_E10.json`
//! is (re)written — byte-stable for the same reason.
//!
//! `--e11-smoke` runs only the E11 multiverse-exploration gate: the
//! seeded deadlock and race variants must yield their MV701/MV702
//! witnesses and the pruned search must not explore more universes than
//! brute force; `BENCH_E11.json` is (re)written — wall-clock figures are
//! printed but never serialized, so the artifact stays byte-stable.

use std::fmt::Write as _;

use bench::{
    analyze_decoder, attach_load, checkpoint_overhead, fuzz_farm, fuzz_study, localization,
    mutation_study, recording_check, reverse_continue_latency, row_label, run_overhead, scaling,
    server_load, thinned_chain_check, throughput_study, verify_decoder, BoundRow, DebugConfig,
    FarmSummary, MutationOutcome,
};
use h264_pipeline::Bug;

/// Minimal JSON string escaping for our label/verdict strings.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_json(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// The CI gate behind `--e6-smoke`: time travel must not change what the
/// user sees, every checkpoint must replay to the recorded end, the
/// checkpoints must share the recorded history, reverse-continue must
/// land where the forward run stopped (see `bench::recording_check`),
/// and a thinned chain must replay like a dense one
/// (`bench::thinned_chain_check`).
fn run_e6_smoke() -> i32 {
    const N_MBS: u64 = 256;
    const THINNED_MBS: u64 = 512;
    println!(
        "e6-smoke: {N_MBS}-macroblock decode under `catch recv pipe::mc_in`, \
         time travel from every {} cycles vs. off",
        server::CHECKPOINT_INTERVAL
    );
    let r = recording_check(N_MBS, server::CHECKPOINT_INTERVAL);
    let st = &r.storage;
    println!(
        "e6-smoke: {} stops, end at cycle {}, {} checkpoints, {} live chunks, \
         {} distinct, {} goto/reverse-continue pairs",
        r.stops,
        r.end_cycle,
        r.checkpoints,
        st.live_chunks,
        st.distinct_chunks,
        bench::REVERSE_PAIRS,
    );
    println!(
        "e6-smoke: held only by checkpoints: {} chunks, {} elements (bound {} x {})",
        st.checkpoint_only_chunks,
        st.checkpoint_only_elements,
        bench::ELEMENTS_PER_CHECKPOINT,
        r.checkpoints,
    );
    println!(
        "e6-smoke: memory table: {} live chunks, {} distinct (bound {} + {} copied)",
        r.live_mem_chunks, r.distinct_mem_chunks, r.live_mem_chunks, r.mem_chunks_copied,
    );
    let t = thinned_chain_check(THINNED_MBS, server::CHECKPOINT_INTERVAL);
    println!(
        "e6-smoke: {THINNED_MBS}-macroblock decode, end at cycle {}: thinned {} times, \
         {} checkpoints ({} pinned, budget {}), each replayed to the end",
        t.end_cycle,
        t.thinnings,
        t.checkpoints,
        t.pinned,
        dfdbg::CHECKPOINT_BUDGET,
    );
    let failures: Vec<&String> = r.failures.iter().chain(&t.failures).collect();
    for f in &failures {
        eprintln!("e6-smoke: FAIL: {f}");
    }
    if failures.is_empty() {
        println!("e6-smoke: OK");
        0
    } else {
        eprintln!("e6-smoke: {} failure(s)", failures.len());
        1
    }
}

/// The CI gate behind `--e8-smoke`: a scaled-down attach storm that must
/// compile once, fork everything else, stay byte-identical and keep the
/// attach tail latency bounded. The bound is deliberately generous for a
/// loaded single-core CI box — an uncached regression (64 sequential
/// recompiles) overshoots it by more than an order of magnitude.
fn run_e8_smoke() -> i32 {
    const SESSIONS: usize = 64;
    const ATTACH_P99_BOUND_MS: f64 = 500.0;
    println!("e8-smoke: {SESSIONS}-session attach storm (cached, 4 macroblocks)");
    let r = attach_load(SESSIONS, 4, true);
    let p99_ms = r.attach_p99.as_secs_f64() * 1e3;
    println!(
        "e8-smoke: setup {:.2}ms, attach p50 {:.2}ms p99 {:.2}ms, \
         cache hits {} misses {}, errors {}, isolated {}",
        r.setup.as_secs_f64() * 1e3,
        r.attach_p50.as_secs_f64() * 1e3,
        p99_ms,
        r.cache_hits,
        r.cache_misses,
        r.errors,
        r.isolated,
    );
    let mut failures = 0;
    if r.cache_misses != 1 {
        failures += 1;
        eprintln!(
            "e8-smoke: FAIL: expected exactly 1 compile, saw {} cache misses",
            r.cache_misses
        );
    }
    if !r.isolated {
        failures += 1;
        eprintln!("e8-smoke: FAIL: forked-session transcripts diverged from a fresh build");
    }
    if r.errors != 0 {
        failures += 1;
        eprintln!("e8-smoke: FAIL: {} session(s) errored", r.errors);
    }
    if p99_ms > ATTACH_P99_BOUND_MS {
        failures += 1;
        eprintln!("e8-smoke: FAIL: attach p99 {p99_ms:.2}ms > {ATTACH_P99_BOUND_MS}ms bound");
    }
    if failures == 0 {
        println!("e8-smoke: OK");
        0
    } else {
        eprintln!("e8-smoke: {failures} failure(s)");
        1
    }
}

/// Render the E9 table and the machine-readable rows.
fn e9_table(rows: &[BoundRow]) -> Vec<String> {
    println!(
        "{:<22} {:>5} {:>12} {:>10} {:>8} {:>8}  {:<24} holds",
        "variant", "mbs", "cycles", "per-iter", "bound", "margin", "bottleneck"
    );
    let mut out = Vec::new();
    for r in rows {
        let margin = if r.static_bound > 0 {
            format!("{:.1}x", r.margin)
        } else {
            "-".into()
        };
        println!(
            "{:<22} {:>5} {:>12} {:>10.1} {:>8} {:>8}  {:<24} {}",
            row_label(r),
            r.n_mbs,
            r.cycles,
            r.per_iteration,
            r.static_bound,
            margin,
            r.bottleneck,
            if r.bound_holds { "yes" } else { "NO" },
        );
        out.push(format!(
            "{{\"variant\": {}, \"capacities\": {}, \"n_mbs\": {}, \
             \"cycles\": {}, \"per_iteration\": {:.3}, \"static_bound\": {}, \
             \"margin\": {:.3}, \"bottleneck\": {}, \"bound_holds\": {}}}",
            jstr(server::variant_name(r.bug)),
            jstr(r.capacities),
            r.n_mbs,
            r.cycles,
            r.per_iteration,
            r.static_bound,
            r.margin,
            jstr(&r.bottleneck),
            r.bound_holds,
        ));
    }
    out
}

fn write_e9_json(rows: &[String], n_mbs: u64) {
    write_json(
        "BENCH_E9.json",
        &format!(
            "{{\"experiment\": \"E9\", \"n_mbs\": {n_mbs}, \"rows\": [{}]}}\n",
            rows.join(", ")
        ),
    );
}

/// The CI gate behind `--e9-smoke`: the static throughput bound must hold
/// dynamically for every E9 cell, at smoke scale. Always rewrites
/// `BENCH_E9.json` (deterministic fields only) so CI can diff it against
/// the checked-in artifact.
fn run_e9_smoke() -> i32 {
    const N_MBS: u64 = 8;
    println!("e9-smoke: static throughput bound vs. measured, {N_MBS} macroblocks");
    let rows = throughput_study(N_MBS);
    let json_rows = e9_table(&rows);
    write_e9_json(&json_rows, N_MBS);
    let violations = rows.iter().filter(|r| !r.bound_holds).count();
    if violations == 0 {
        println!("e9-smoke: OK");
        0
    } else {
        eprintln!("e9-smoke: FAIL: {violations} cell(s) measured below the static bound");
        1
    }
}

/// E10 parameters — shared by the smoke gate and the full report so the
/// `BENCH_E10.json` artifact is identical whichever path wrote it.
const E10_ITERS: u64 = 200;
const E10_SEED: &str = "e10";
const E10_MUTATE_ITERS: u64 = 60;
const E10_MUTATE_SEED: &str = "e10-mutate";
const E10_MAX_WITNESS: u64 = 6;

/// Render the E10 tables; returns the summary and mutation outcome.
fn e10_tables() -> (FarmSummary, MutationOutcome) {
    let s = fuzz_study(E10_ITERS, appgen::parse_seed(E10_SEED));
    let apps_per_sec = s.iters as f64 / s.wall.as_secs_f64().max(1e-9);
    println!(
        "{} generated apps (seed \"{E10_SEED}\"), {:.1} apps/sec",
        s.iters, apps_per_sec
    );
    println!(
        "{:<10} {:>6}   {:<10} {:>6}",
        "oracle", "diverg", "outcome", "apps"
    );
    let outcomes: Vec<_> = s.outcomes.iter().collect();
    for (i, oracle) in fuzz_farm::ORACLES.iter().enumerate() {
        let (olabel, ocount) = outcomes
            .get(i)
            .map(|(l, c)| (l.as_str(), **c))
            .unwrap_or(("", 0));
        let right = if olabel.is_empty() {
            String::new()
        } else {
            format!("{olabel:<10} {ocount:>6}")
        };
        println!("{:<10} {:>6}   {right}", oracle, s.divergences[*oracle]);
    }
    println!(
        "squeeze arms {} links, throughput bounds {}, replay fixpoints {}, \
         explore agreements {}",
        s.squeezed_links, s.throughput_checks, s.replay_checks, s.explore_checks
    );
    let m = mutation_study(E10_MUTATE_ITERS, appgen::parse_seed(E10_MUTATE_SEED));
    if m.caught {
        println!(
            "mutation dfa004: caught at iteration {} by {}, witness {} filters ({:.2}ms)",
            m.caught_at,
            m.oracle,
            m.witness_filters,
            m.wall.as_secs_f64() * 1e3,
        );
    } else {
        println!("mutation dfa004: NOT caught in {E10_MUTATE_ITERS} iterations");
    }
    (s, m)
}

fn write_e10_json(s: &FarmSummary, m: &MutationOutcome) {
    let kv = |map: &std::collections::BTreeMap<String, u64>| {
        map.iter()
            .map(|(k, v)| format!("{}: {v}", jstr(k)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    write_json(
        "BENCH_E10.json",
        &format!(
            "{{\"experiment\": \"E10\", \"iters\": {}, \"seed\": {}, \
             \"divergences\": {{{}}}, \"outcomes\": {{{}}}, \"shapes\": {{{}}}, \
             \"squeezed_links\": {}, \"throughput_checks\": {}, \
             \"replay_checks\": {}, \"explore_checks\": {}, \
             \"mutation\": {{\"rule\": \"DFA004\", \
             \"seed\": {}, \"caught\": {}, \"caught_at\": {}, \"oracle\": {}, \
             \"witness_filters\": {}}}}}\n",
            s.iters,
            jstr(E10_SEED),
            kv(&s.divergences),
            kv(&s.outcomes),
            kv(&s.shapes),
            s.squeezed_links,
            s.throughput_checks,
            s.replay_checks,
            s.explore_checks,
            jstr(E10_MUTATE_SEED),
            m.caught,
            m.caught_at,
            jstr(&m.oracle),
            m.witness_filters,
        ),
    );
}

/// The CI gate behind `--e10-smoke`: zero divergences with the analyzers
/// intact, and the weakened DFA004 caught and shrunk small. Always
/// rewrites `BENCH_E10.json` (deterministic fields only) so CI can diff
/// it against the checked-in artifact.
fn run_e10_smoke() -> i32 {
    println!("e10-smoke: differential fuzz farm, {E10_ITERS} apps + mutation self-check");
    let (s, m) = e10_tables();
    write_e10_json(&s, &m);
    let mut failures = 0;
    if s.total_divergences() != 0 {
        failures += 1;
        eprintln!(
            "e10-smoke: FAIL: {} divergence(s) with the analyzers intact",
            s.total_divergences()
        );
    }
    if !m.caught {
        failures += 1;
        eprintln!("e10-smoke: FAIL: weakened DFA004 went unnoticed — the farm has no teeth");
    } else if m.witness_filters > E10_MAX_WITNESS {
        failures += 1;
        eprintln!(
            "e10-smoke: FAIL: witness has {} filters (> {E10_MAX_WITNESS})",
            m.witness_filters
        );
    }
    if failures == 0 {
        println!("e10-smoke: OK");
        0
    } else {
        eprintln!("e10-smoke: {failures} failure(s)");
        1
    }
}

/// Render the E11 table (wall-clock figures printed only) and the
/// machine-readable rows (deterministic fields only).
fn e11_tables() -> Vec<bench::ExploreRow> {
    let rows = bench::explore_study().unwrap_or_else(|e| panic!("E11 exploration failed: {e}"));
    println!(
        "{:<14} {:<9} {:>6} {:>9} {:>8} {:>7} {:>12} {:>12}  witness",
        "row", "until", "univ", "pruned", "sleep", "points", "univ/sec", "to-witness"
    );
    for r in &rows {
        println!(
            "{:<14} {:<9} {:>6} {:>9} {:>8} {:>7} {:>12.1} {:>10.2}ms  {}",
            r.label,
            r.until,
            r.stats.universes_explored,
            r.stats.universes_pruned,
            r.stats.sleep_set_hits,
            r.stats.actor_points + r.stats.dma_points,
            r.universes_per_sec(),
            r.wall.as_secs_f64() * 1e3,
            r.witness.as_deref().unwrap_or("-"),
        );
    }
    println!(
        "pruning ratio (race brute-force / optimized universes): {:.2}x",
        bench::pruning_ratio(&rows)
    );
    rows
}

fn write_e11_json(rows: &[bench::ExploreRow]) {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"label\": {}, \"until\": {}, \"optimized\": {}, \
                 \"witness\": {}, \"witness_overrides\": {}, \
                 \"universes_forked\": {}, \"universes_explored\": {}, \
                 \"universes_pruned\": {}, \"sleep_set_hits\": {}, \
                 \"actor_points\": {}, \"dma_points\": {}, \
                 \"space_covered\": {}}}",
                jstr(&r.label),
                jstr(&r.until),
                r.optimized,
                r.witness.as_deref().map_or("null".to_string(), jstr),
                r.witness_overrides,
                r.stats.universes_forked,
                r.stats.universes_explored,
                r.stats.universes_pruned,
                r.stats.sleep_set_hits,
                r.stats.actor_points,
                r.stats.dma_points,
                r.space_covered,
            )
        })
        .collect();
    write_json(
        "BENCH_E11.json",
        &format!(
            "{{\"experiment\": \"E11\", \"n_mbs\": {}, \"rows\": [{}], \
             \"pruning_ratio\": {:.2}}}\n",
            bench::E11_N_MBS,
            body.join(", "),
            bench::pruning_ratio(rows),
        ),
    );
}

/// The CI gate behind `--e11-smoke`: the seeded deadlock must yield the
/// trivial MV701 witness, both race hunts must find an MV702 witness, and
/// the optimized search must never run more universes than brute force.
/// Always rewrites `BENCH_E11.json` (deterministic fields only) so CI can
/// diff it against the checked-in artifact.
fn run_e11_smoke() -> i32 {
    println!(
        "e11-smoke: multiverse exploration, {} macroblocks",
        bench::E11_N_MBS
    );
    let rows = e11_tables();
    write_e11_json(&rows);
    let mut failures = 0;
    let witness_of = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .and_then(|r| r.witness.clone())
            .unwrap_or_default()
    };
    if !witness_of("deadlock").contains("MV701") {
        failures += 1;
        eprintln!("e11-smoke: FAIL: deadlock row found no MV701 witness");
    }
    if rows
        .iter()
        .find(|r| r.label == "deadlock")
        .is_some_and(|r| r.witness_overrides != 0)
    {
        failures += 1;
        eprintln!("e11-smoke: FAIL: the reference deadlock needed schedule overrides");
    }
    for label in ["race", "race-noprune"] {
        if !witness_of(label).contains("MV702") {
            failures += 1;
            eprintln!("e11-smoke: FAIL: {label} row found no MV702 witness");
        }
    }
    let explored = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .map_or(0, |r| r.stats.universes_explored)
    };
    if explored("race") > explored("race-noprune") {
        failures += 1;
        eprintln!(
            "e11-smoke: FAIL: optimized search ran more universes ({}) than brute force ({})",
            explored("race"),
            explored("race-noprune")
        );
    }
    if failures == 0 {
        println!("e11-smoke: OK");
        0
    } else {
        eprintln!("e11-smoke: {failures} failure(s)");
        1
    }
}

/// E1 at smoke size: every configuration's simulated cycles, tracked
/// tokens, retired instructions and trap dispatches
/// (`MachineWork::dispatches`), as the full report at its default size
/// gives them.
const E1_SMOKE_MBS: u64 = 64;
const E1_PINNED: [(DebugConfig, u64, usize, u64, u64); 5] = [
    (DebugConfig::Baseline, 19_459, 0, 27_391, 3_661),
    (DebugConfig::AllBreakpoints, 19_460, 960, 27_391, 3_661),
    (
        DebugConfig::DisabledUntilCritical,
        19_460,
        192,
        27_391,
        3_661,
    ),
    (DebugConfig::ActorSpecific, 19_460, 576, 27_391, 3_661),
    (
        DebugConfig::FrameworkCooperation,
        19_460,
        960,
        27_391,
        3_661,
    ),
];
/// The debugger looks at most this many PEs per simulated cycle.
const E1_MAX_VISITS_PER_CYCLE: u64 = 3;

/// The CI gate behind `--e1-smoke`: the five E1 configurations decode
/// the pinned number of cycles, track the pinned number of tokens,
/// retire the pinned number of instructions and dispatch the pinned
/// number of traps, and the debugger's PE visits stay within the
/// per-cycle bound. No wall time is judged.
fn run_e1_smoke() -> i32 {
    println!("e1-smoke: debugger intrusiveness, {E1_SMOKE_MBS} macroblocks");
    let mut failures = 0;
    for (cfg, cycles, tokens, instructions, dispatches) in E1_PINNED {
        let r = run_overhead(cfg, E1_SMOKE_MBS);
        println!(
            "e1-smoke: {:<28} {} cycles, {} tokens, {} instructions, {} dispatches, \
             {} PE visits, {} probes, {} wakeups",
            cfg.label(),
            r.cycles,
            r.tokens_tracked,
            r.instructions,
            r.work.dispatches,
            r.pe_visits,
            r.work.probes,
            r.work.wakeups
        );
        let got = (
            r.cycles,
            r.tokens_tracked,
            r.instructions,
            r.work.dispatches,
        );
        if got != (cycles, tokens, instructions, dispatches) {
            eprintln!(
                "e1-smoke: FAIL: {}: {} cycles, {} tokens, {} instructions, {} dispatches \
                 (pinned {cycles}, {tokens}, {instructions}, {dispatches})",
                cfg.label(),
                r.cycles,
                r.tokens_tracked,
                r.instructions,
                r.work.dispatches
            );
            failures += 1;
        }
        if r.pe_visits > E1_MAX_VISITS_PER_CYCLE * r.cycles {
            eprintln!(
                "e1-smoke: FAIL: {}: {} PE visits in {} cycles (bound {E1_MAX_VISITS_PER_CYCLE} per cycle)",
                cfg.label(),
                r.pe_visits,
                r.cycles
            );
            failures += 1;
        }
    }
    if failures == 0 {
        println!("e1-smoke: OK");
        0
    } else {
        eprintln!("e1-smoke: {failures} failure(s)");
        1
    }
}

/// A CI smoke gate: its flag, and the gate, which returns the exit status.
type Smoke = (&'static str, fn() -> i32);

/// Each smoke flag runs only its gate and exits with its status.
const SMOKES: &[Smoke] = &[
    ("--e1-smoke", run_e1_smoke),
    ("--e6-smoke", run_e6_smoke),
    ("--e8-smoke", run_e8_smoke),
    ("--e9-smoke", run_e9_smoke),
    ("--e10-smoke", run_e10_smoke),
    ("--e11-smoke", run_e11_smoke),
];

fn main() {
    let mut n_mbs: u64 = 64;
    let mut json = false;
    for a in std::env::args().skip(1) {
        if a == "--json" {
            json = true;
        } else if let Some((_, smoke)) = SMOKES.iter().find(|(flag, _)| *flag == a) {
            std::process::exit(smoke());
        } else if let Ok(n) = a.parse() {
            n_mbs = n;
        } else {
            let flags: Vec<String> = SMOKES.iter().map(|(f, _)| format!("[{f}]")).collect();
            eprintln!(
                "usage: report [n_mbs] [--json] {} (got `{a}`)",
                flags.join(" ")
            );
            std::process::exit(1);
        }
    }

    println!("=====================================================================");
    println!("E1  Debugger intrusiveness (§V): decode of {n_mbs} macroblocks");
    println!("=====================================================================");
    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>9} {:>8} {:>9} {:>7} {:>7}",
        "configuration",
        "wall time",
        "sim cycles",
        "ns/cycle",
        "tokens",
        "slowdown",
        "visits/cy",
        "probes",
        "wakeups"
    );
    let mut baseline_wall = None;
    let mut e1 = Vec::new();
    for cfg in DebugConfig::ALL {
        // Warm-up run, then the measured run (reduces allocator noise).
        let _ = run_overhead(cfg, n_mbs.min(8));
        let r = run_overhead(cfg, n_mbs);
        let base = *baseline_wall.get_or_insert(r.wall.as_secs_f64());
        let slowdown = r.wall.as_secs_f64() / base;
        println!(
            "{:<28} {:>10.2}ms {:>12} {:>9.1} {:>9} {:>7.2}x {:>9.2} {:>7} {:>7}",
            cfg.label(),
            r.wall.as_secs_f64() * 1e3,
            r.cycles,
            r.wall.as_secs_f64() * 1e9 / r.cycles as f64,
            r.tokens_tracked,
            slowdown,
            r.pe_visits as f64 / r.cycles as f64,
            r.work.probes,
            r.work.wakeups,
        );
        e1.push(format!(
            "{{\"config\": {}, \"wall_ms\": {:.3}, \"cycles\": {}, \
             \"ns_per_cycle\": {:.1}, \"instructions\": {}, \"dispatches\": {}, \
             \"tokens\": {}, \"slowdown\": {:.3}, \"pe_visits\": {}, \
             \"probes\": {}, \"wakeups\": {}}}",
            jstr(cfg.label()),
            r.wall.as_secs_f64() * 1e3,
            r.cycles,
            r.wall.as_secs_f64() * 1e9 / r.cycles as f64,
            r.instructions,
            r.work.dispatches,
            r.tokens_tracked,
            slowdown,
            r.pe_visits,
            r.work.probes,
            r.work.wakeups,
        ));
    }
    if json {
        write_json(
            "BENCH_E1.json",
            &format!(
                "{{\"experiment\": \"E1\", \"n_mbs\": {n_mbs}, \"rows\": [{}]}}\n",
                e1.join(", ")
            ),
        );
    }
    println!(
        "\nShape check (paper §V): all-breakpoints is the most expensive \
         mode;\nthe mitigations recover most of the gap while keeping the \
         control\nbreakpoints (option 1) or full visibility (cooperation)."
    );

    println!();
    println!("=====================================================================");
    println!("E2  Bug localization (§VI-F): dataflow-aware vs source-level");
    println!("=====================================================================");
    println!(
        "{:<16} {:<16} {:>13} {:>10}  verdict",
        "bug class", "strategy", "interactions", "wall"
    );
    let mut results = localization::full_study();
    results.sort_by_key(|r| (format!("{:?}", r.bug), r.strategy.label().to_string()));
    let mut e2 = Vec::new();
    for r in &results {
        println!(
            "{:<16} {:<16} {:>13} {:>8.1}ms  {}{}",
            format!("{:?}", r.bug),
            r.strategy.label(),
            r.interactions,
            r.wall.as_secs_f64() * 1e3,
            if r.located { "" } else { "NOT LOCATED: " },
            r.verdict,
        );
        e2.push(format!(
            "{{\"bug\": {}, \"strategy\": {}, \"interactions\": {}, \
             \"wall_ms\": {:.3}, \"located\": {}, \"verdict\": {}}}",
            jstr(&format!("{:?}", r.bug)),
            jstr(r.strategy.label()),
            r.interactions,
            r.wall.as_secs_f64() * 1e3,
            r.located,
            jstr(&r.verdict),
        ));
    }
    if json {
        write_json(
            "BENCH_E2.json",
            &format!(
                "{{\"experiment\": \"E2\", \"rows\": [{}]}}\n",
                e2.join(", ")
            ),
        );
    }
    println!(
        "\nShape check (paper §VI-F): the dataflow-aware debugger needs a \
         handful\nof interactions per bug; the source-level procedure \
         locates the same\nfaults but through manual counting and \
         per-stop inspection."
    );

    println!();
    println!("=====================================================================");
    println!("E3  Event-capture hot-path scaling");
    println!("=====================================================================");
    println!("{:<16} {:>14}", "catchpoints", "per event");
    let pts = scaling::catchpoint_scaling(&[0, 1, 4, 16, 64, 256], 50_000);
    let base = pts[0].ns_per_event;
    let mut e3 = Vec::new();
    for p in &pts {
        println!(
            "{:<16} {:>11.1} ns  ({:.2}x)",
            p.catchpoints,
            p.ns_per_event,
            p.ns_per_event / base,
        );
        e3.push(format!(
            "{{\"catchpoints\": {}, \"ns_per_event\": {:.2}}}",
            p.catchpoints, p.ns_per_event
        ));
    }
    let storm = scaling::bounded_storm(200_000, 1 << 10);
    println!(
        "\ntoken storm: {} allocated, {} live (limit {}), {} evicted, \
         provenance {}",
        storm.allocated,
        storm.live,
        storm.limit,
        storm.evicted,
        if storm.provenance_intact {
            "intact"
        } else {
            "BROKEN"
        },
    );
    if json {
        write_json(
            "BENCH_E3.json",
            &format!(
                "{{\"experiment\": \"E3\", \"points\": [{}], \"storm\": \
                 {{\"allocated\": {}, \"live\": {}, \"limit\": {}, \
                 \"evicted\": {}, \"provenance_intact\": {}}}}}\n",
                e3.join(", "),
                storm.allocated,
                storm.live,
                storm.limit,
                storm.evicted,
                storm.provenance_intact,
            ),
        );
    }
    println!(
        "\nShape check: per-event cost stays roughly flat as idle \
         catchpoints\ngrow (indexed dispatch, not a linear scan), and a \
         token storm far\npast the record limit keeps a bounded live set."
    );

    println!();
    println!("=====================================================================");
    println!("E4  Static analyzer: cost and coverage per decoder variant");
    println!("=====================================================================");
    println!(
        "{:<14} {:>10} {:>7} {:>6} {:>8} {:>9} {:>7}  rules",
        "variant", "wall", "actors", "links", "kernels", "findings", "errors"
    );
    let mut e4 = Vec::new();
    for bug in [Bug::None, Bug::RateMismatch, Bug::Deadlock] {
        let r = analyze_decoder(bug, 5);
        println!(
            "{:<14} {:>8.2}ms {:>7} {:>6} {:>8} {:>9} {:>7}  {}",
            format!("{bug:?}"),
            r.wall.as_secs_f64() * 1e3,
            r.actors,
            r.links,
            r.kernels,
            r.findings,
            r.errors,
            if r.rules_hit.is_empty() {
                "-".to_string()
            } else {
                r.rules_hit.join(",")
            },
        );
        e4.push(format!(
            "{{\"variant\": {}, \"wall_ms\": {:.3}, \"actors\": {}, \
             \"links\": {}, \"kernels\": {}, \"findings\": {}, \
             \"errors\": {}, \"rules\": [{}]}}",
            jstr(&format!("{bug:?}")),
            r.wall.as_secs_f64() * 1e3,
            r.actors,
            r.links,
            r.kernels,
            r.findings,
            r.errors,
            r.rules_hit
                .iter()
                .map(|s| jstr(s))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    if json {
        write_json(
            "BENCH_E4.json",
            &format!(
                "{{\"experiment\": \"E4\", \"rows\": [{}]}}\n",
                e4.join(", ")
            ),
        );
    }
    println!(
        "\nShape check: the clean variant reports nothing, both seeded \
         bugs are\nflagged statically (DFA003), and a full pass costs \
         about a millisecond —\northogonal to, and vastly cheaper than, \
         the dynamic runs above."
    );

    println!();
    println!("=====================================================================");
    println!("E5  Bytecode verifier: memory-safety and race analysis cost");
    println!("=====================================================================");
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>7} {:>6}  rules",
        "variant", "wall", "functions", "findings", "errors", "races"
    );
    let mut e5 = Vec::new();
    for bug in [
        Bug::None,
        Bug::OobStore,
        Bug::SharedScratch,
        Bug::DmaOverlap,
    ] {
        let r = verify_decoder(bug, 5);
        println!(
            "{:<14} {:>8.2}ms {:>10} {:>9} {:>7} {:>6}  {}",
            format!("{bug:?}"),
            r.wall.as_secs_f64() * 1e3,
            r.functions,
            r.findings,
            r.errors,
            r.race_pairs,
            if r.rules_hit.is_empty() {
                "-".to_string()
            } else {
                r.rules_hit.join(",")
            },
        );
        e5.push(format!(
            "{{\"variant\": {}, \"wall_ms\": {:.3}, \"functions\": {}, \
             \"findings\": {}, \"errors\": {}, \"races\": {}, \
             \"rules\": [{}]}}",
            jstr(&format!("{bug:?}")),
            r.wall.as_secs_f64() * 1e3,
            r.functions,
            r.findings,
            r.errors,
            r.race_pairs,
            r.rules_hit
                .iter()
                .map(|s| jstr(s))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    if json {
        write_json(
            "BENCH_E5.json",
            &format!(
                "{{\"experiment\": \"E5\", \"rows\": [{}]}}\n",
                e5.join(", ")
            ),
        );
    }
    println!(
        "\nShape check: the clean image verifies clean; the out-of-bounds \
         store,\nthe unsynchronised shared scratch and the DMA-window \
         overlap are each\ncaught before the first instruction executes, \
         for about a millisecond\nper full pass — the static half of the \
         watchpoint sessions in E2."
    );

    println!();
    println!("=====================================================================");
    println!("E6  Time travel: recording cost per interval, reverse latency");
    println!("=====================================================================");
    println!(
        "{:<16} {:>10} {:>12} {:>13} {:>8} {:>8} {:>9}",
        "interval", "setup", "run wall", "checkpoints", "pages", "chunks", "overhead"
    );
    let curve = checkpoint_overhead(n_mbs, &[1_000, 2_000, 5_000, 10_000, 50_000]);
    let mut e6 = Vec::new();
    for p in &curve {
        println!(
            "{:<16} {:>8.2}ms {:>10.2}ms {:>13} {:>8} {:>8} {:>8.2}x",
            if p.interval == 0 {
                "off (control)".to_string()
            } else {
                format!("{} cycles", p.interval)
            },
            p.setup.as_secs_f64() * 1e3,
            p.wall.as_secs_f64() * 1e3,
            p.checkpoints,
            p.pages_stored,
            p.chunks,
            p.overhead,
        );
        e6.push(format!(
            "{{\"interval\": {}, \"setup_ms\": {:.3}, \"wall_ms\": {:.3}, \
             \"cycles\": {}, \"checkpoints\": {}, \"pages_stored\": {}, \
             \"chunks\": {}, \"overhead\": {:.4}}}",
            p.interval,
            p.setup.as_secs_f64() * 1e3,
            p.wall.as_secs_f64() * 1e3,
            p.cycles,
            p.checkpoints,
            p.pages_stored,
            p.chunks,
            p.overhead,
        ));
    }
    let rev = reverse_continue_latency(n_mbs, server::CHECKPOINT_INTERVAL);
    println!(
        "\nreverse-continue from the end (interval {}): {:.2}ms, rewound \
         {} cycles",
        rev.interval,
        rev.wall.as_secs_f64() * 1e3,
        rev.rewound_cycles,
    );
    if json {
        write_json(
            "BENCH_E6.json",
            &format!(
                "{{\"experiment\": \"E6\", \"n_mbs\": {n_mbs}, \
                 \"points\": [{}], \"reverse_continue\": {{\"interval\": {}, \
                 \"wall_ms\": {:.3}, \"rewound_cycles\": {}}}}}\n",
                e6.join(", "),
                rev.interval,
                rev.wall.as_secs_f64() * 1e3,
                rev.rewound_cycles,
            ),
        );
    }
    println!(
        "\nShape check (EXPERIMENTS.md E6): setup (baseline hash + machine \
         fork) is\na one-time per-session cost; the steady-state \
         recording overhead at the\ndefault 2k-cycle starting interval \
         stays within the 10% gate. Denser\nintervals buy shorter replays \
         at a steeper recording cost (reverse-continue from the\nend \
         is one restore plus one replay of the window before its hit)."
    );

    println!();
    println!("=====================================================================");
    println!("E7  Remote debug server: concurrent scripted diagnoses over TCP");
    println!("=====================================================================");
    println!(
        "{:<10} {:>10} {:>13} {:>12} {:>12} {:>9} {:>9} {:>7}  isolated",
        "sessions",
        "wall",
        "sessions/s",
        "attach p50",
        "attach p99",
        "cmd p50",
        "cmd p99",
        "errors"
    );
    let mut e7 = Vec::new();
    for n_sessions in [1, 4, 16] {
        let r = server_load(n_sessions, 8);
        println!(
            "{:<10} {:>8.2}ms {:>13.2} {:>10.2}ms {:>10.2}ms {:>7.2}ms {:>7.2}ms {:>7}  {}",
            r.sessions,
            r.wall.as_secs_f64() * 1e3,
            r.sessions_per_sec,
            r.attach_p50.as_secs_f64() * 1e3,
            r.attach_p99.as_secs_f64() * 1e3,
            r.p50.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.errors,
            if r.isolated { "yes" } else { "NO" },
        );
        e7.push(format!(
            "{{\"sessions\": {}, \"wall_ms\": {:.3}, \
             \"sessions_per_sec\": {:.3}, \"commands\": {}, \
             \"errors\": {}, \"attach_mean_ms\": {:.3}, \
             \"attach_p50_ms\": {:.3}, \"attach_p99_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"isolated\": {}}}",
            r.sessions,
            r.wall.as_secs_f64() * 1e3,
            r.sessions_per_sec,
            r.commands,
            r.errors,
            r.attach_mean.as_secs_f64() * 1e3,
            r.attach_p50.as_secs_f64() * 1e3,
            r.attach_p99.as_secs_f64() * 1e3,
            r.p50.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.isolated,
        ));
    }
    if json {
        write_json(
            "BENCH_E7.json",
            &format!(
                "{{\"experiment\": \"E7\", \"rows\": [{}]}}\n",
                e7.join(", ")
            ),
        );
    }
    println!(
        "\nShape check: every remote transcript is byte-identical to the \
         in-process\nrun of the same script (isolation is structural — \
         thread-per-session, no\nshared simulator state), and throughput \
         scales with concurrent sessions\nrather than collapsing behind a \
         global lock. Attach (session setup) is\nreported separately from \
         steady-state command latency — the E6 discipline;\nE8 below \
         studies the attach column in depth."
    );

    println!();
    println!("=====================================================================");
    println!("E8  Attach-latency scaling: compile-once cache + forked sessions");
    println!("=====================================================================");
    println!(
        "{:<10} {:<10} {:>9} {:>10} {:>11} {:>12} {:>12} {:>9} {:>9} {:>9}  isolated",
        "sessions",
        "mode",
        "setup",
        "storm",
        "storm p99",
        "attach p50",
        "attach p99",
        "cmd p50",
        "cmd p99",
        "compiles"
    );
    let mut e8 = Vec::new();
    let mut cached_256_p99 = None;
    let mut uncached_256_p99 = None;
    for (n_sessions, cached) in [
        (1, true),
        (16, true),
        (256, true),
        (1000, true),
        (256, false),
    ] {
        let r = attach_load(n_sessions, 8, cached);
        // Baseline mode bypasses the cache, so every attach — the storm's
        // and the probe's — paid a full compile.
        let compiles = if cached {
            r.cache_misses
        } else {
            r.sessions as u64 + r.probes
        };
        let p99 = r.attach_p99.as_secs_f64() * 1e3;
        if n_sessions == 256 {
            if cached {
                cached_256_p99 = Some(p99);
            } else {
                uncached_256_p99 = Some(p99);
            }
        }
        println!(
            "{:<10} {:<10} {:>7.2}ms {:>8.2}ms {:>9.2}ms {:>10.2}ms {:>10.2}ms {:>7.2}ms \
             {:>7.2}ms {:>9}  {}",
            r.sessions,
            if cached { "cached" } else { "baseline" },
            r.setup.as_secs_f64() * 1e3,
            r.storm.as_secs_f64() * 1e3,
            r.storm_attach_p99.as_secs_f64() * 1e3,
            r.attach_p50.as_secs_f64() * 1e3,
            p99,
            r.steady_p50.as_secs_f64() * 1e3,
            r.steady_p99.as_secs_f64() * 1e3,
            compiles,
            if r.isolated { "yes" } else { "NO" },
        );
        e8.push(format!(
            "{{\"sessions\": {}, \"cached\": {}, \"setup_ms\": {:.3}, \
             \"storm_ms\": {:.3}, \"storm_attach_p50_ms\": {:.3}, \
             \"storm_attach_p99_ms\": {:.3}, \"attach_mean_ms\": {:.3}, \
             \"attach_p50_ms\": {:.3}, \"attach_p99_ms\": {:.3}, \
             \"probes\": {}, \"steady_p50_ms\": {:.3}, \
             \"steady_p99_ms\": {:.3}, \"compiles\": {}, \
             \"cache_hits\": {}, \"errors\": {}, \"isolated\": {}}}",
            r.sessions,
            r.cached,
            r.setup.as_secs_f64() * 1e3,
            r.storm.as_secs_f64() * 1e3,
            r.storm_attach_p50.as_secs_f64() * 1e3,
            r.storm_attach_p99.as_secs_f64() * 1e3,
            r.attach_mean.as_secs_f64() * 1e3,
            r.attach_p50.as_secs_f64() * 1e3,
            p99,
            r.probes,
            r.steady_p50.as_secs_f64() * 1e3,
            r.steady_p99.as_secs_f64() * 1e3,
            compiles,
            r.cache_hits,
            r.errors,
            r.isolated,
        ));
    }
    let speedup = match (cached_256_p99, uncached_256_p99) {
        (Some(c), Some(u)) if c > 0.0 => u / c,
        _ => 0.0,
    };
    println!("\nattach p99 speedup at 256 sessions (baseline / cached): {speedup:.1}x");
    if json {
        write_json(
            "BENCH_E8.json",
            &format!(
                "{{\"experiment\": \"E8\", \"rows\": [{}], \
                 \"speedup_p99_at_256\": {speedup:.2}}}\n",
                e8.join(", ")
            ),
        );
    }
    println!(
        "\nShape check (EXPERIMENTS.md E8): one compile serves every session \
         of a\nvariant (the `compiles` column); `storm`/`storm p99` cover N \
         literally\nsimultaneous attaches (queueing included), while `attach \
         p50/p99` is a\nsingle probe client attaching at full density — the \
         per-attach cost with\nN sessions resident. The baseline row shows \
         the old recompile-per-attach\ncost at the same fan-in, and every \
         forked transcript is byte-identical\nto a freshly-built session's."
    );

    println!();
    println!("=====================================================================");
    println!("E9  Static throughput bound vs. measured throughput");
    println!("=====================================================================");
    let e9_rows = throughput_study(8);
    let e9_json = e9_table(&e9_rows);
    if json {
        write_e9_json(&e9_json, 8);
    }
    println!(
        "\nShape check (EXPERIMENTS.md E9): every cell measures at or above \
         the\nstatic per-iteration bound (`margin` >= 1x — the bound is a \
         sound lower\nbound, loose because it ignores framework and blocking \
         overhead), and\nsqueezing the clean decoder to its predicted minimal \
         capacities trades\ncycles for memory without ever crossing the bound."
    );

    println!();
    println!("=====================================================================");
    println!("E10 Differential fuzz farm: static verdicts vs. simulated truth");
    println!("=====================================================================");
    let (e10_summary, e10_mutation) = e10_tables();
    if json {
        write_e10_json(&e10_summary, &e10_mutation);
    }
    println!(
        "\nShape check (EXPERIMENTS.md E10): with the analyzers intact every \
         oracle\ndirection counts zero divergences over the generated apps; \
         deliberately\nweakening DFA004 is caught within the iteration budget \
         and the find\nshrinks to a witness small enough to read."
    );

    println!();
    println!("=====================================================================");
    println!("E11 Multiverse exploration: time-to-witness and pruning ratio");
    println!("=====================================================================");
    let e11_rows = e11_tables();
    if json {
        write_e11_json(&e11_rows);
    }
    println!(
        "\nShape check (EXPERIMENTS.md E11): the seeded deadlock is its own \
         witness\n(the default schedule wedges, no overrides needed); the \
         seeded race needs\nthe search to find an access-order flip with \
         divergent output, and the\nsleep-set/equivalence pruning reaches the \
         same witness while running a\nfraction of the brute-force universes."
    );
}
