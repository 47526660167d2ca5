//! Property-based tests over the full stack: generated pipelines and
//! random parameters, checking the invariants the debugger relies on.

use proptest::prelude::*;

use dfdbg::{Session, Stop};
use h264_pipeline::{build_decoder, golden, Bug};
use p2012::PlatformConfig;

/// Build a linear pipeline of `stages` add-constant filters from a
/// generated ADL string, run `n` tokens through it, and return the sink
/// tail.
fn run_chain(stages: u32, addends: &[u32], inputs: &[u32]) -> Vec<u32> {
    assert_eq!(stages as usize, addends.len());
    let mut adl = String::from(
        "@Module composite Chain {\n  contains as controller { source c.c; }\n  \
         input U32 as c_in;\n  output U32 as c_out;\n",
    );
    for (i, _) in addends.iter().enumerate() {
        adl.push_str(&format!("  contains F{i} as f{i};\n"));
    }
    adl.push_str("  binds this.c_in to f0.i;\n");
    for i in 1..stages {
        adl.push_str(&format!("  binds f{}.o to f{}.i;\n", i - 1, i));
    }
    adl.push_str(&format!("  binds f{}.o to this.c_out;\n}}\n", stages - 1));
    let mut ctrl = String::from("void work() { while (pedf.run()) { pedf.step_begin(); ");
    for i in 0..stages {
        ctrl.push_str(&format!("pedf.fire(f{i}); "));
    }
    ctrl.push_str("pedf.wait_init(); pedf.wait_sync(); pedf.step_end(); } }");

    let mut srcs = mind::SourceRegistry::new();
    srcs.add("c.c", &ctrl);
    for (i, k) in addends.iter().enumerate() {
        adl.push_str(&format!(
            "@Filter primitive F{i} {{ source f{i}.c; \
             input U32 as i; output U32 as o; }}\n"
        ));
        srcs.add(
            &format!("f{i}.c"),
            &format!("void work() {{ pedf.io.o[0] = pedf.io.i[0] + {k}; }}"),
        );
    }

    // Wider platform so up to 8 filters + controller fit.
    let config = PlatformConfig {
        clusters: 2,
        pes_per_cluster: 6,
        ..PlatformConfig::default()
    };
    let (mut sys, app) = mind::build(&adl, &srcs, config).expect("build");
    let module = app.actor("chain").unwrap();
    sys.runtime.set_max_steps(module, inputs.len() as u64);
    sys.boot(app.boot_entry).unwrap();
    sys.runtime
        .add_source(
            pedf::EnvSource::new(
                app.boundary_in["c_in"],
                1,
                pedf::ValueGen::Cycle {
                    values: inputs.to_vec(),
                    pos: 0,
                },
            )
            .with_limit(inputs.len() as u64),
        )
        .unwrap();
    sys.runtime
        .add_sink(pedf::EnvSink::new(app.boundary_out["c_out"], 1))
        .unwrap();
    assert!(sys.run_to_quiescence(2_000_000), "chain did not finish");
    assert_eq!(sys.first_fault(), None);
    sys.runtime
        .sink_for(app.boundary_out["c_out"])
        .unwrap()
        .tail
        .clone()
}

/// A booted decoder session with its environment attached.
fn decoder_session(seed: u32, n: u64) -> Session {
    let (sys, app) = build_decoder(Bug::None, n, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let mut s = Session::attach(sys, app.info.clone());
    s.boot(boot).unwrap();
    h264_pipeline::attach_env(&mut s.sys, &app, n, seed).unwrap();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A generated N-stage pipeline computes the composed function, for
    /// any stage constants and inputs.
    #[test]
    fn generated_pipelines_compute_the_composition(
        addends in prop::collection::vec(0u32..1000, 1..6),
        inputs in prop::collection::vec(0u32..100_000, 1..5),
    ) {
        let out = run_chain(addends.len() as u32, &addends, &inputs);
        let total: u32 = addends.iter().sum();
        let expect: Vec<u32> =
            inputs.iter().map(|v| v.wrapping_add(total)).collect();
        prop_assert_eq!(out, expect);
    }

    /// The decoder output matches the golden model for arbitrary seeds and
    /// lengths (end-to-end compiler + runtime + platform correctness).
    #[test]
    fn decoder_matches_golden_for_any_seed(
        seed in any::<u32>(),
        n in 1u32..12,
    ) {
        let r = h264_pipeline::run_decoder(
            Bug::None, u64::from(n), seed, 20_000_000,
        ).unwrap();
        prop_assert!(r.finished);
        prop_assert_eq!(r.frames, golden::decode_stream(n, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Debugger-model/runtime agreement: after stopping at an arbitrary
    /// cycle, the debugger's reconstructed link occupancies equal the
    /// runtime's FIFO occupancies, for every link. (Transient divergence
    /// is only permitted while a consumer is mid-blocked-pop; quiescent
    /// points and catchpoint stops are exact.)
    #[test]
    fn model_occupancy_matches_runtime_at_stops(
        seed in any::<u32>(),
        n in 2u32..8,
    ) {
        let mut s = decoder_session(seed, u64::from(n));
        loop {
            match s.run(10_000_000) {
                Stop::Quiescent => break,
                Stop::CycleLimit => prop_assert!(false, "stuck"),
                _ => {}
            }
        }
        for (i, link) in s.model.graph.links.iter().enumerate() {
            let model = s.model.occupancy(link.id);
            let runtime = s.sys.runtime.occupancy(link.id) as usize;
            prop_assert_eq!(
                model, runtime,
                "link {} ({})", i, s.model.graph.link_label(link.id)
            );
        }
        // Token counters agree too.
        for link in &s.model.graph.links {
            let (pushed, popped) = s.sys.runtime.counters(link.id);
            let dl = &s.model.links[link.id.0 as usize];
            prop_assert_eq!(dl.pushed, pushed);
            prop_assert_eq!(dl.popped, popped);
        }
    }

    /// Time travel is invisible to the execution: `forward(n)` reaches the
    /// same state (by full state hash) as `forward(n); reverse(k);
    /// forward(k)`, for arbitrary run lengths, rewind distances and
    /// checkpoint intervals.
    #[test]
    fn reverse_then_forward_replays_to_the_identical_state(
        seed in any::<u32>(),
        n in 50u64..2_000,
        k_pct in 0u64..101,
        interval_sel in 0u64..3,
    ) {
        let interval = [100u64, 300, 1_000][interval_sel as usize];
        let mut s = decoder_session(seed, 6);
        s.enable_time_travel(interval);

        // forward(n)
        let target = s.sys.clock() + n;
        while s.sys.clock() < target {
            s.run(target - s.sys.clock());
        }
        let hash_n = s.state_hash();

        // reverse(k): land k cycles back, then forward(k) again.
        let k = n * k_pct / 100;
        s.goto_cycle(target - k).unwrap();
        prop_assert_eq!(s.sys.clock(), target - k);
        while s.sys.clock() < target {
            s.run(target - s.sys.clock());
        }
        prop_assert_eq!(s.sys.clock(), target);
        prop_assert_eq!(s.state_hash(), hash_n, "replay must be bit-exact");
        prop_assert!(
            s.replay_findings().is_empty(),
            "{:?}", s.replay_findings()
        );
    }
}

/// Interfaces the token-altering operations aim at.
const TOKEN_TARGETS: [&str; 4] = ["bh::bits_in", "pipe::mc_in", "ipred::Red_in", "red::bh_in"];

/// What the recorded model shows: `info links` (with the token store
/// line), `info filters` and the provenance paths of two filters.
fn model_text(s: &Session) -> String {
    let mut out = s.info_links();
    out.push_str(&s.info_filters());
    for f in ["pipe", "ipred"] {
        out.push_str(&s.info_last_token(f).unwrap());
    }
    out
}

/// `token origin` of pipe's last token, asked on a fork so the session
/// itself does not move.
fn origin_text(s: &mut Session) -> String {
    match s.last_received("pipe").unwrap() {
        Some(tok) => s.fork().token_origin(tok).unwrap_or_else(|e| e),
        None => String::new(),
    }
}

/// One random operation (`op` in 0..6): a run, a token alteration, or a
/// record limit small enough to evict across chunk boundaries.
fn random_op(s: &mut Session, op: u32, arg: u32) {
    let target = TOKEN_TARGETS[(arg % 4) as usize];
    // Errors (an empty queue, a rejected injection) leave the session
    // unchanged and are part of the sequence.
    match op {
        0 | 1 => {
            s.run(u64::from(arg % 1_500) + 1);
        }
        2 => {
            let _ = s.token_set(target, 0, &[arg]);
        }
        3 => {
            let _ = s.token_drop(target, 0);
        }
        4 => {
            let _ = s.token_inject(target, &[arg]);
        }
        _ => s.model.set_record_limit((arg % 400) as usize + 8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The recorded history is copy-on-write: mutating a fork never shows
    /// in its parent, and `restart k` brings back exactly what the model
    /// showed when checkpoint k was taken. Forks and checkpoints share the
    /// static graph by pointer.
    #[test]
    fn forks_and_checkpoints_are_isolated_copies(
        seed in any::<u32>(),
        ops in prop::collection::vec((0u32..9, any::<u32>()), 10..24),
        fork_ops in prop::collection::vec((0u32..7, any::<u32>()), 3..10),
    ) {
        let mut s = decoder_session(seed, 40);
        s.configure_filter("red", dfdbg::FlowBehavior::Merger).unwrap();
        s.configure_filter("pipe", dfdbg::FlowBehavior::Pipeline).unwrap();
        s.iface_record("pipe::mc_in", true).unwrap();
        s.enable_time_travel(700);
        let graph = std::sync::Arc::clone(&s.model.graph);

        // (checkpoint id, record limit then, model text then)
        let mut taken: Vec<(u32, usize, String)> = Vec::new();
        for &(op, arg) in &ops {
            match op {
                6 | 7 => {
                    if let Ok(id) = s.checkpoint_now() {
                        taken.push((id, s.model.record_limit(), model_text(&s)));
                    }
                }
                8 => {
                    // Mutate a fork; the parent must not see any of it.
                    let before = (model_text(&s), origin_text(&mut s));
                    let mut f = s.fork();
                    prop_assert!(std::sync::Arc::ptr_eq(&f.model.graph, &graph));
                    for &(fop, farg) in &fork_ops {
                        if fop == 6 {
                            let _ = f.restart(farg % 4);
                        } else {
                            random_op(&mut f, fop, farg);
                        }
                    }
                    let after = (model_text(&s), origin_text(&mut s));
                    prop_assert_eq!(before, after);
                }
                _ => random_op(&mut s, op, arg),
            }
        }

        for (id, limit, text) in taken {
            // The limit is a user setting that survives restart; put back
            // the one in force when the checkpoint was taken.
            s.model.set_record_limit(limit);
            if s.restart(id).is_ok() {
                prop_assert!(std::sync::Arc::ptr_eq(&s.model.graph, &graph));
                prop_assert_eq!(model_text(&s), text, "restart {}", id);
            }
        }
    }
}
