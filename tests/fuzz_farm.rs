//! Determinism and self-check tests for the differential fuzz farm
//! (`appgen` + the `dfdbg-fuzz` binary): same seed means byte-identical
//! apps and byte-identical analysis output, the regression corpus replays
//! clean, and the mutation hook proves the farm notices a disabled rule.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use appgen::{check_parking, check_spec, generate, load_dir, shrink, AppSpec};
use dfa::testhook;
use h264_pipeline::{attach_env, build_decoder, build_decoder_with_caps, Bug};
use p2012::PlatformConfig;
use pedf::{EnvSink, EnvSource, ValueGen};

/// The DFA004 mutation hook is process-global and every test here runs
/// the analyzers, so all of them serialize on one lock: no test may see
/// another's weakened rule.
static HOOK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    HOOK.lock().unwrap_or_else(|e| e.into_inner())
}

fn sources_of(spec: &AppSpec) -> Vec<(String, String)> {
    let reg = spec.to_sources();
    let mut out = Vec::new();
    for m in 0..spec.modules.len() {
        let name = format!("m{m}_ctrl.c");
        out.push((name.clone(), reg.get(&name).unwrap().to_string()));
        for i in 0..spec.modules[m].filters.len() {
            let name = format!("{}.c", AppSpec::filter_name(m, i));
            out.push((name.clone(), reg.get(&name).unwrap().to_string()));
        }
    }
    out
}

/// One seed, two independent generator runs: the ADL, every kernel
/// source, and the corpus serialization must match byte for byte.
#[test]
fn same_seed_generates_byte_identical_apps() {
    let _g = lock();
    for seed in 0..64u64 {
        let a = generate(seed);
        let b = generate(seed);
        assert_eq!(a.to_adl(), b.to_adl(), "seed {seed}: ADL drifted");
        assert_eq!(a.to_text(), b.to_text(), "seed {seed}: spec text drifted");
        assert_eq!(
            sources_of(&a),
            sources_of(&b),
            "seed {seed}: kernel sources drifted"
        );
        // And the text format round-trips to the same app.
        let back = AppSpec::from_text(&a.to_text()).expect("round-trip parses");
        assert_eq!(
            back.to_text(),
            a.to_text(),
            "seed {seed}: round-trip drifted"
        );
    }
}

/// Two full static passes over the same generated app render identical
/// `analyze --json` bytes — the property CI's byte-diff gate rests on.
#[test]
fn analyze_json_is_byte_stable_for_generated_apps() {
    let _g = lock();
    for seed in [0u64, 3, 7, 11, 19, 42] {
        let spec = generate(seed);
        let j1 = appgen::oracle::static_pass(&spec)
            .map(|v| debuginfo::render_findings_json(&v.findings));
        let j2 = appgen::oracle::static_pass(&spec)
            .map(|v| debuginfo::render_findings_json(&v.findings));
        assert_eq!(j1, j2, "seed {seed}: analyze JSON drifted between runs");
        if let Ok(j) = j1 {
            assert!(
                j.starts_with("{\n  \"schema_version\": 2,"),
                "seed {seed}: missing schema_version:\n{j}"
            );
        }
    }
}

/// Every checked-in corpus scenario replays with its recorded status:
/// `fixed` scenarios pass all oracles, `open` ones still diverge.
#[test]
fn corpus_replays_clean() {
    let _g = lock();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let scenarios = load_dir(&dir).expect("corpus loads");
    assert!(
        scenarios.len() >= 6,
        "expected the seeded witnesses, got {}",
        scenarios.len()
    );
    for s in &scenarios {
        s.replay().unwrap_or_else(|e| panic!("{}: {e}", s.name));
    }
}

/// The D8 direction end to end on the racy shape: `mem-shared` statically
/// yields RACE401, the bounded explore finds a dynamic MV702 witness, and
/// the optimized search agrees with brute force while running strictly
/// fewer universes — the pruning skips only redundant work.
#[test]
fn mem_shared_explore_agreement_has_a_witness() {
    let _g = lock();
    let spec = (0..2000u64)
        .map(generate)
        .find(|s| s.shape == "mem-shared")
        .expect("mem-shared shape is reachable");
    let verdict = appgen::static_pass(&spec).expect("static pass");
    assert!(
        verdict.findings.iter().any(|f| f.rule == "RACE401"),
        "mem-shared must trip RACE401"
    );
    let rep = check_spec(&spec).expect("all oracles agree on the racy app");
    assert!(rep.explore_checked, "D8 must have run on a RACE401 app");

    let fast = appgen::explore_probe(&spec, true).expect("optimized probe");
    let brute = appgen::explore_probe(&spec, false).expect("brute probe");
    let fw = fast
        .witness
        .expect("optimized search finds the race witness");
    let bw = brute.witness.expect("brute force finds the race witness");
    assert_eq!(fw.rule, "MV702");
    assert_eq!(fw.rule, bw.rule);
    assert!(brute.space_covered, "ground truth must cover the space");
    assert!(
        fast.stats.universes_explored < brute.stats.universes_explored,
        "pruning saved nothing: {} vs {}",
        fast.stats.universes_explored,
        brute.stats.universes_explored
    );
    assert!(fast.stats.sleep_set_hits > 0, "sleep set never fired");
}

/// D8 on the deadlock direction: the pop-first ring's reference schedule
/// already wedges, so both search modes must report the trivial MV701
/// witness (empty choice trace) — and agree.
#[test]
fn pop_first_ring_explore_agreement_is_trivial() {
    let _g = lock();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let ring = load_dir(&dir)
        .expect("corpus loads")
        .into_iter()
        .find(|s| s.name.contains("dfa004"))
        .expect("the DFA004 ring witness is checked in")
        .spec;
    let fast = appgen::explore_probe(&ring, true).expect("optimized probe");
    let brute = appgen::explore_probe(&ring, false).expect("brute probe");
    let fw = fast.witness.expect("reference deadlock is its own witness");
    let bw = brute.witness.expect("brute force sees the same deadlock");
    assert_eq!(fw.rule, "MV701");
    assert_eq!(bw.rule, "MV701");
    assert!(
        fw.overrides.is_empty(),
        "trivial witness needs no overrides"
    );
}

/// D7 on the case study: every decoder variant, booted with its
/// environment attached, steps identically whether its blocked PEs are
/// parked or polled, at the size the stepper digests pin. The §III
/// deadlock is untied by `token inject` onto its starved link, from
/// outside the stepper, so the wake such a mutation owes the parked
/// consumer is compared too.
#[test]
fn parking_matches_polling_on_every_decoder_variant() {
    const N_MBS: u64 = 16;
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
        let (mut sys, app) = build_decoder(bug, N_MBS, PlatformConfig::default()).unwrap();
        sys.boot(app.boot_entry).unwrap();
        attach_env(&mut sys, &app, N_MBS, 0xbeef).unwrap();
        let untie = (bug == Bug::Deadlock).then(|| {
            let g = &sys.runtime.graph;
            let red = g.actor_by_name("red").unwrap().id;
            g.conn_by_name(red, "red_ipred_out").unwrap().link.unwrap()
        });
        let cycles = check_parking(&sys, 1_000_000, untie)
            .unwrap_or_else(|d| panic!("{bug:?}: {}", d.detail));
        assert!(cycles > 1_000, "{bug:?} compared only {cycles} cycles");
    }
}

/// D7 with the environment as the waker: the clean decoder's output
/// link squeezed to one slot and drained by a sink every 1,000 cycles
/// (a frame is ready about every 300), so `pipe` waits for space on it
/// and only the sink's pops free it.
#[test]
fn parking_matches_polling_behind_a_slow_sink() {
    const N_MBS: u64 = 16;
    let caps = BTreeMap::from([("pipe::frame_out".to_string(), 1)]);
    let (mut sys, app) =
        build_decoder_with_caps(Bug::None, N_MBS, PlatformConfig::default(), &caps).unwrap();
    sys.boot(app.boot_entry).unwrap();
    let rt = &mut sys.runtime;
    let bits = EnvSource::new(
        app.boundary_in["bits_in"],
        2,
        ValueGen::Lcg { state: 0xbeef },
    );
    rt.add_source(bits.with_limit(N_MBS)).unwrap();
    let cfg = EnvSource::new(
        app.boundary_in["cfg_in"],
        2,
        ValueGen::Counter { next: 0, step: 1 },
    );
    rt.add_source(cfg.with_limit(N_MBS)).unwrap();
    rt.add_sink(EnvSink::new(app.boundary_out["frame_out"], 1_000))
        .unwrap();
    let cycles = check_parking(&sys, 1_000_000, None).unwrap_or_else(|d| panic!("{}", d.detail));
    assert!(
        cycles > 10_000,
        "the sink did not set the pace: {cycles} cycles"
    );
}

/// The mutation self-check end to end, in-process: weaken DFA004 via the
/// test hook and the pop-first ring (statically clean now, dynamically
/// wedged) must diverge on oracle D1; shrinking that divergence twice
/// gives byte-identical minimal witnesses; restoring the rule makes the
/// same app pass again.
#[test]
fn weakened_dfa004_is_caught_and_shrinks_deterministically() {
    let _g = lock();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let ring = load_dir(&dir)
        .expect("corpus loads")
        .into_iter()
        .find(|s| s.name.contains("dfa004"))
        .expect("the DFA004 ring witness is checked in")
        .spec;

    check_spec(&ring).expect("with rules intact the ring is caught statically");

    testhook::weaken_dfa004(true);
    let result = check_spec(&ring);
    let div = match &result {
        Err(d) => d.clone(),
        Ok(_) => {
            testhook::weaken_dfa004(false);
            panic!("weakened DFA004 went unnoticed on the pop-first ring");
        }
    };
    assert_eq!(div.oracle, "D1", "unexpected oracle: {}", div.detail);

    let s1 = shrink(&ring, &div);
    let s2 = shrink(&ring, &div);
    testhook::weaken_dfa004(false);

    assert_eq!(s1.to_text(), s2.to_text(), "shrinking is not deterministic");
    assert!(
        s1.n_filters() <= 6,
        "witness did not shrink: {} filters\n{}",
        s1.n_filters(),
        s1.to_text()
    );
    check_spec(&ring).expect("restoring the rule restores the verdict");
}
