//! The per-layer probe: each layer timed from outside, around calls to its
//! public functions, on inputs derived from the seed. Timings are medians
//! over repetitions; subtractions attribute a layer's share (capture is a
//! debug session minus the bare machine, recording is a time-travel
//! session minus one without). The counts are deterministic for a seed: a
//! change that only makes the program faster must leave them identical.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dfdbg::cli::Cli;
use dfdbg::{CachedApp, Session, Stop};
use h264_pipeline::{build_decoder, Bug};
use p2012::{PeId, PeState, PlatformConfig, TrapCtx, TrapHandler, TrapResult, Word};
use pedf::{Runtime, System};
use server::{build_app, Client, Server, ServerConfig, CHECKPOINT_INTERVAL};

use crate::hostclock::HostClock;
use crate::stats::median;
use crate::workloads::analyze::{build_spec, VARIANTS};
use crate::workloads::inspect::{CATCH, ROTATION};
use crate::workloads::remote::request;
use crate::workloads::{env_seed, timed, Decoder};
use crate::{derive, Scale, PER_LAYER};

pub type Values = BTreeMap<&'static str, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Forwards every trap-interface call to the runtime and adds up the time
/// spent inside it.
struct TimedRuntime<'a> {
    rt: &'a mut Runtime,
    ns: u64,
    calls: u64,
}

impl TimedRuntime<'_> {
    fn time<T>(&mut self, f: impl FnOnce(&mut Runtime) -> T) -> T {
        let t = Instant::now();
        let out = f(self.rt);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Time inside the runtime, less what reading the clock adds to each
    /// timed call (`per_call_ns`, measured on an empty call). With a few
    /// calls per simulated cycle that cost is not small beside the runtime.
    fn runtime_ns(&self, per_call_ns: f64) -> f64 {
        self.ns as f64 - self.calls as f64 * per_call_ns
    }
}

/// What `TimedRuntime::time` measures around a call that does nothing.
fn clock_cost_ns(rt: &mut Runtime) -> f64 {
    const CALLS: u64 = 100_000;
    let mut probe = TimedRuntime {
        rt,
        ns: 0,
        calls: 0,
    };
    for _ in 0..CALLS {
        probe.time(|rt| {
            std::hint::black_box(&*rt);
        });
    }
    probe.ns as f64 / CALLS as f64
}

impl TrapHandler for TimedRuntime<'_> {
    fn trap(
        &mut self,
        ctx: &mut TrapCtx<'_>,
        pe: PeId,
        current: &mut PeState,
        id: u16,
        args: &[Word],
    ) -> TrapResult {
        self.time(|rt| rt.trap(ctx, pe, current, id, args))
    }

    fn on_task_complete(&mut self, ctx: &mut TrapCtx<'_>, pe: PeId, current: &mut PeState) {
        self.time(|rt| rt.on_task_complete(ctx, pe, current))
    }

    fn on_cycle(&mut self, ctx: &mut TrapCtx<'_>) {
        self.time(|rt| rt.on_cycle(ctx))
    }

    fn choose_dma_order(&mut self, n_active: u32, clock: u64) -> u32 {
        self.time(|rt| rt.choose_dma_order(n_active, clock))
    }
}

fn retired(sys: &System) -> u64 {
    sys.platform.pes.iter().map(|p| p.retired).sum()
}

/// Run a debug session to the end of the decode; returns host time and
/// simulated cycles.
fn session_to_end(s: &mut Session) -> Result<(Duration, u64), String> {
    let c0 = s.clock();
    let t = Instant::now();
    loop {
        match s.run(10_000_000) {
            Stop::Quiescent => break,
            Stop::CycleLimit => {}
            other => return Err(format!("probe session stopped unexpectedly: {other:?}")),
        }
    }
    Ok((t.elapsed(), s.clock() - c0))
}

/// Simulator layers: the bare machine, the runtime's share of it, and
/// the debugger's capture and recording on top.
fn simulator(dec: &mut Decoder, env: u32, reps: usize, out: &mut Values) -> Result<(), String> {
    let base = dec.session(env, false)?;
    let (mut step, mut handler, mut capture, mut record) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        // The bare machine, as `System::run_to_quiescence` drives it.
        let mut sys = base.sys.clone();
        let c0 = sys.clock();
        let (_, bare) = timed(|| sys.run_to_quiescence(u64::MAX));
        let cycles = (sys.clock() - c0) as f64;
        step.push(bare.as_nanos() as f64 / cycles);

        // The same span with the runtime's trap interface timed.
        let mut sys = base.sys.clone();
        let (i0, c0) = (retired(&sys), sys.clock());
        let mut report = p2012::CycleReport::default();
        let System { platform, runtime } = &mut sys;
        let per_call = clock_cost_ns(runtime);
        let mut timed_rt = TimedRuntime {
            rt: runtime,
            ns: 0,
            calls: 0,
        };
        while !platform.is_quiescent() {
            report.merge(platform.step_cycle(&mut timed_rt));
        }
        handler.push(timed_rt.runtime_ns(per_call) / cycles);
        out.insert("p2012.cycles", (sys.clock() - c0) as f64);
        out.insert("p2012.instructions", (retired(&sys) - i0) as f64);
        out.insert("p2012.traps", f64::from(report.traps));
        out.insert("p2012.completions", f64::from(report.completions));
        out.insert("pedf.tokens_pushed", sys.runtime.stats.tokens_pushed as f64);

        let mut s = dec.session(env, false)?;
        let (t, c) = session_to_end(&mut s)?;
        capture.push(t.as_nanos() as f64 / c as f64);

        let mut s = dec.session(env, true)?;
        let (t, c) = session_to_end(&mut s)?;
        record.push(t.as_nanos() as f64 / c as f64);
        let (checkpoints, pages) = s.checkpoint_footprint();
        out.insert("replay.checkpoints", checkpoints as f64);
        out.insert("replay.pages_stored", pages as f64);
        out.insert("core.tokens_allocated", s.model.tokens.allocated() as f64);
        out.insert("core.tokens_evicted", s.model.tokens.evicted() as f64);
        dec.check_output(&s, env)?;
    }
    let (step, handler) = (median(&step), median(&handler));
    let (capture, record) = (median(&capture), median(&record));
    out.insert("p2012.step_ns_per_cycle", step);
    out.insert("pedf.handler_ns_per_cycle", handler);
    out.insert("p2012.self_ns_per_cycle", step - handler);
    out.insert("core.capture_ns_per_cycle", capture - step);
    out.insert("replay.record_ns_per_cycle", record - capture);
    Ok(())
}

/// Checkpoint, restore, hash and fork costs on a recorded session.
fn replay(dec: &mut Decoder, env: u32, out: &mut Values) -> Result<(), String> {
    // Checkpoints taken by hand on a fork at chunk boundaries that the
    // periodic ones (every CHECKPOINT_INTERVAL cycles) do not hit.
    let chunk = CHECKPOINT_INTERVAL * 3 / 2;
    let mut s = dec.session(env, true)?;
    let mut checkpoint = Vec::new();
    loop {
        match s.run(chunk) {
            Stop::CycleLimit => {}
            Stop::Quiescent => break,
            other => return Err(format!("probe session stopped unexpectedly: {other:?}")),
        }
        let mut f = s.fork();
        let (r, d) = timed(|| f.checkpoint_now());
        r?;
        checkpoint.push(us(d));
    }
    let (checkpoints, _) = s.checkpoint_footprint();
    let (mut restore, mut hash, mut fork) = (vec![], vec![], vec![]);
    for id in 0..checkpoints as u32 {
        let (r, d) = timed(|| s.restart(id));
        r?;
        restore.push(us(d));
        let (_, d) = timed(|| s.state_hash());
        hash.push(us(d));
        let (_, d) = timed(|| s.sys.fork());
        fork.push(us(d));
    }
    out.insert("replay.checkpoint_us", median(&checkpoint));
    out.insert("replay.restore_us", median(&restore));
    out.insert("replay.hash_us", median(&hash));
    out.insert("pedf.fork_us", median(&fork));
    Ok(())
}

/// Stop handling and the read-only inspection commands.
fn inspect(dec: &mut Decoder, env: u32, out: &mut Values) -> Result<(), String> {
    let mut cli = Cli::new(dec.session(env, true)?);
    for spec in CATCH {
        cli.exec(&format!("catch recv {spec}"));
    }
    let (mut stops, mut look) = (0u64, Vec::new());
    loop {
        let text = cli.exec("continue");
        match cli.last_stop {
            Some(Stop::Dataflow(_)) => {
                let cmd = ROTATION[(stops % ROTATION.len() as u64) as usize];
                stops += 1;
                let (r, d) = timed(|| cli.exec(cmd));
                if r.starts_with("error:") {
                    return Err(format!("`{cmd}`: {r}"));
                }
                look.push(us(d));
            }
            Some(Stop::Quiescent) => break,
            _ => return Err(format!("probe `continue` stopped unexpectedly: {text}")),
        }
    }
    out.insert("core.stops", stops as f64);
    out.insert("core.inspect_us", median(&look));
    Ok(())
}

/// The attach fork, and what the server adds to attach and to commands.
fn server(reps: usize, out: &mut Values) -> Result<(), String> {
    const N_MBS: u64 = 8;
    let (app, proto) = build_app(Bug::Deadlock, N_MBS)?;
    let cached = CachedApp::new(app, proto);
    let fork: Vec<f64> = (0..reps).map(|_| us(timed(|| cached.fork()).1)).collect();

    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.local_addr();
    let shared = server.shared();
    let thread = std::thread::spawn(move || server.run());
    fn ok(client: &mut Client, cmd: &str) -> Result<Duration, String> {
        let (r, d) = timed(|| request(client, cmd));
        r.map(|_| d)
    }
    // (median remote attach, median remote-minus-local command time)
    let result = (|| -> Result<(f64, f64), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        let attach_cmd = format!("attach deadlock {N_MBS}");
        ok(&mut client, &attach_cmd)?;
        ok(&mut client, "detach")?;
        let mut attach = Vec::new();
        for _ in 0..reps {
            attach.push(us(ok(&mut client, &attach_cmd)?));
            ok(&mut client, "detach")?;
        }
        ok(&mut client, &attach_cmd)?;
        let mut local = Cli::new(cached.fork());
        let (mut remote_cmd, mut local_cmd) = (Vec::new(), Vec::new());
        for i in 0..reps * 4 {
            let cmd = ["info filters", "info links"][i % 2];
            remote_cmd.push(us(ok(&mut client, cmd)?));
            local_cmd.push(us(timed(|| local.exec(cmd)).1));
        }
        let _ = client.request("quit");
        Ok((median(&attach), median(&remote_cmd) - median(&local_cmd)))
    })();
    shared.request_shutdown();
    let _ = thread.join();
    let (attach, overhead) = result?;
    out.insert("core.session_fork_us", median(&fork));
    out.insert("server.attach_overhead_us", attach - median(&fork));
    out.insert("server.overhead_us", overhead);
    Ok(())
}

/// One exploration on the race variant.
fn multiverse(n_mbs: u64, env: u32, out: &mut Values) -> Result<(), String> {
    let mut dec = Decoder::build(Bug::SharedScratch, n_mbs)?;
    let mut cli = Cli::new(dec.session(env, true)?);
    let (text, d) = timed(|| cli.exec("explore --until race"));
    let report = cli
        .session
        .last_explore
        .as_ref()
        .ok_or_else(|| format!("explore produced no report: {text}"))?;
    let st = &report.stats;
    out.insert(
        "multiverse.us_per_universe",
        us(d) / st.universes_explored.max(1) as f64,
    );
    out.insert(
        "multiverse.universes_explored",
        st.universes_explored as f64,
    );
    out.insert("multiverse.universes_pruned", st.universes_pruned as f64);
    out.insert("multiverse.sleep_set_hits", st.sleep_set_hits as f64);
    Ok(())
}

/// The three analyzers and the findings renderer, called one by one the
/// way `analyze --json` chains them, over every decoder variant and a set
/// of generated apps.
fn analyzers(seed: u64, n_apps: u64, out: &mut Values) -> Result<(), String> {
    let mut apps = Vec::new();
    for &(bug, _) in VARIANTS {
        let (_, app) = build_decoder(bug, 8, PlatformConfig::default())
            .map_err(|e| format!("building {bug:?}: {e}"))?;
        apps.push((app, h264_pipeline::decoder_sources(bug)));
    }
    let mut generate = Vec::new();
    for i in 0..n_apps {
        let (spec, d) = timed(|| appgen::generate(derive(seed, "app", i)));
        generate.push(us(d));
        let (_, app, sources) = build_spec(&spec)?;
        apps.push((app, sources));
    }
    let (mut dfa_t, mut bcv_t, mut sched_t, mut render_t) = (vec![], vec![], vec![], vec![]);
    let (mut dfa_n, mut bcv_n, mut sched_n) = (0usize, 0usize, 0usize);
    for (app, sources) in &apps {
        let dfa_in = dfa::AnalysisInput::from_app(app, sources);
        let bcv_in = bcv::AnalysisInput::from_app(app);
        let sched_in = sched::AnalysisInput::from_app(app, sources);
        let (mut d, t) = timed(|| dfa::analyze(&dfa_in));
        d.resolve_spans(&app.info.lines);
        dfa_t.push(us(t));
        let (b, t) = timed(|| bcv::verify(&bcv_in));
        bcv_t.push(us(t));
        let (mut sr, t) = timed(|| sched::analyze(&sched_in));
        sr.resolve_spans(&app.info.lines);
        sched_t.push(us(t));
        dfa_n += d.findings.len();
        bcv_n += b.findings.len();
        sched_n += sr.findings.len();
        let mut findings = d.findings;
        findings.extend(b.findings);
        findings.extend(sr.findings);
        let (_, t) = timed(|| {
            debuginfo::sort_and_dedup_findings(&mut findings);
            debuginfo::render_findings_json(&findings)
        });
        render_t.push(us(t));
    }
    out.insert("dfa.analyze_us", median(&dfa_t));
    out.insert("bcv.verify_us", median(&bcv_t));
    out.insert("sched.analyze_us", median(&sched_t));
    out.insert("debuginfo.render_us", median(&render_t));
    out.insert("appgen.generate_us", median(&generate));
    out.insert("dfa.findings", dfa_n as f64);
    out.insert("bcv.findings", bcv_n as f64);
    out.insert("sched.findings", sched_n as f64);
    Ok(())
}

/// Run the whole probe. Returns every per-layer metric except the tracing
/// overhead, which only a traced run of a workload can measure. Times are
/// expressed on the reference host, like the end-to-end ones, with the
/// host clock sampled between the probe's steps.
pub fn run(seed: u64, scale: Scale, clock: &mut HostClock) -> Result<Values, String> {
    let n_mbs = scale.pick(256, 8);
    let reps = scale.pick(5, 2);
    let env = env_seed(seed, 0);
    let mut out = Values::new();

    let (mut build, mut boot, mut baseline) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let (r, d) = timed(|| build_decoder(Bug::None, n_mbs, PlatformConfig::default()));
        let (sys, app) = r.map_err(|e| format!("building the decoder: {e}"))?;
        build.push(ms(d));
        let mut s = Session::attach(sys, app.info.clone());
        let (r, d) = timed(|| s.boot(app.boot_entry));
        r?;
        boot.push(ms(d));
    }
    let mut dec = Decoder::build(Bug::None, n_mbs)?;
    for _ in 0..reps {
        let mut s = dec.session(env, false)?;
        baseline.push(ms(timed(|| s.enable_time_travel(CHECKPOINT_INTERVAL)).1));
    }
    out.insert("mind.build_ms", median(&build));
    out.insert("core.boot_ms", median(&boot));
    out.insert("replay.baseline_ms", median(&baseline));

    clock.sample();
    simulator(&mut dec, env, reps, &mut out)?;
    clock.sample();
    replay(&mut dec, env, &mut out)?;
    clock.sample();
    inspect(&mut dec, env, &mut out)?;
    clock.sample();
    server(scale.pick(20, 3), &mut out)?;
    clock.sample();
    multiverse(scale.pick(16, 4), env, &mut out)?;
    clock.sample();
    analyzers(seed, scale.pick(40, 4), &mut out)?;
    clock.sample();
    let k = clock.scale();
    for spec in PER_LAYER
        .iter()
        .filter(|s| matches!(s.unit, "ms" | "us" | "ns"))
    {
        if let Some(v) = out.get_mut(spec.name) {
            *v *= k;
        }
    }
    Ok(out)
}
