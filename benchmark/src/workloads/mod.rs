//! The six workloads and the closed loop that measures them.
//!
//! Every workload is one client thread in a closed loop: the next command
//! goes out only after the previous reply. A workload is set up (the part
//! `setup_s` times), warmed up with one untimed turn, then measured turn by
//! turn. A turn's latency is the host time of the command a user waits for
//! (`run`, `continue`, `reverse-continue`, `explore`, `analyze --json`, one
//! remote diagnosis). Work a turn does around that command — opening a
//! session, the inspection command after a stop, checking the output — is
//! left out of the latency but stays inside the loop's wall time, so it
//! shows in `ops_per_s`.

pub(crate) mod analyze;
mod decode;
mod explore;
pub(crate) mod inspect;
pub(crate) mod remote;
mod timetravel;

use std::time::{Duration, Instant};

use dfdbg::Session;
use h264_pipeline::{attach_env, build_decoder, decoder_sources, golden, Bug, CompiledApp};
use p2012::PlatformConfig;
use server::session::CHECKPOINT_INTERVAL;

use crate::hostclock::HostClock;
use crate::trace::Tracer;
use crate::{stats, Metric, Scale, END_TO_END};

/// One workload, set up and ready to run turns.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Build what the output checks compare against. Runs once, after the
    /// timed set-up, so reference runs stay out of `setup_s`.
    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One closed-loop turn. Returns the latency of the turn's command, or
    /// the reason the turn failed (a wrong output is a failure too).
    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String>;

    /// Whether the last turn completed a unit of the workload's mix (a
    /// session, a round). Measurement ends only there, so every run holds
    /// whole units and the same mix of turns.
    fn at_boundary(&self) -> bool {
        true
    }
}

/// Set up a workload by name; `seed` derives all of its inputs.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "decode" => Box::new(decode::Decode::setup(seed, scale)?),
        "inspect" => Box::new(inspect::Inspect::setup(seed, scale)?),
        "timetravel" => Box::new(timetravel::TimeTravel::setup(seed, scale)?),
        "explore" => Box::new(explore::Explore::setup(seed, scale)?),
        "analyze" => Box::new(analyze::Analyze::setup(seed, scale)?),
        "remote" => Box::new(remote::Remote::setup(seed, scale)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run turns until this much wall time has passed.
    Seconds(f64),
    /// Run exactly this many turns.
    Turns(u64),
}

/// What one measured loop observed.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub latencies_ms: Vec<f64>,
    /// Turns per second of each completed unit (session or round).
    pub unit_rates: Vec<f64>,
    /// Loop time: wall time minus the host clock's samples.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Measured {
    fn record(&mut self, r: Result<Duration, String>) {
        self.attempted += 1;
        match r {
            Ok(d) => self.latencies_ms.push(d.as_secs_f64() * 1e3),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Add another loop's observations to this one.
    pub fn absorb(&mut self, other: Measured) {
        self.latencies_ms.extend(other.latencies_ms);
        self.unit_rates.extend(other.unit_rates);
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    /// Completed turns per second: the median over the run's units, each
    /// unit's turns over its loop time. Every unit holds the same mix, and
    /// the median keeps the seconds in which the shared host runs slow
    /// from moving the figure. A loop that completed no unit uses the mean.
    pub fn ops_per_s(&self) -> f64 {
        if self.unit_rates.is_empty() {
            return self.latencies_ms.len() as f64 / self.wall_s.max(1e-9);
        }
        stats::median(&self.unit_rates)
    }
}

/// Run turns of `w` until the budget is spent: for a time budget, at the
/// first unit boundary after the time is up. The host clock is sampled
/// between turns; its time is left out of the loop time.
pub fn measure(
    w: &mut dyn Workload,
    budget: Budget,
    tr: &mut Tracer,
    clock: &mut HostClock,
) -> Measured {
    let mut out = Measured::default();
    let spent0 = clock.spent_s;
    let t0 = Instant::now();
    let loop_s = |clock: &HostClock| t0.elapsed().as_secs_f64() - (clock.spent_s - spent0);
    // The open unit's start and successful turns; `None` until a turn
    // starts on a boundary, so a unit the warm-up began is not counted.
    let mut unit: Option<(f64, u64)> = None;
    loop {
        let done = match budget {
            Budget::Seconds(s) => loop_s(clock) >= s && w.at_boundary(),
            Budget::Turns(n) => out.attempted >= n,
        };
        if done {
            break;
        }
        clock.tick();
        if w.at_boundary() {
            unit = Some((loop_s(clock), 0));
        }
        tr.begin(w.name());
        let r = w.turn(tr);
        tr.end();
        if let Some((_, turns)) = unit.as_mut() {
            *turns += u64::from(r.is_ok());
        }
        out.record(r);
        if let Some((start, turns)) = unit.filter(|_| w.at_boundary()) {
            out.unit_rates
                .push(turns as f64 / (loop_s(clock) - start).max(1e-9));
            unit = None;
        }
    }
    out.wall_s = loop_s(clock);
    out
}

/// A complete run of one workload: repeated set-up, warm-up, measurement.
pub struct Run {
    pub workload: Box<dyn Workload>,
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Outcome of the untimed warm-up turn.
    pub warmup: Measured,
    pub clock: HostClock,
}

impl Run {
    pub fn measure(&mut self, budget: Budget, tr: &mut Tracer) -> Measured {
        measure(self.workload.as_mut(), budget, tr, &mut self.clock)
    }

    /// The end-to-end metrics of a measured loop, in `END_TO_END` order,
    /// with times expressed on the reference host.
    pub fn end_to_end(&self, m: &Measured, peak_rss_mb: f64) -> Vec<Metric> {
        let k = self.clock.scale();
        let lat = stats::sorted(&m.latencies_ms);
        END_TO_END
            .iter()
            .map(|spec| {
                let value = match spec.name {
                    "op_p50_ms" => stats::percentile(&lat, 0.50) * k,
                    "ops_per_s" => m.ops_per_s() / k,
                    "peak_rss_mb" => peak_rss_mb,
                    "setup_s" => stats::median(&self.setup_s) * k,
                    other => unreachable!("no rule computes `{other}`"),
                };
                Metric {
                    name: spec.name.to_string(),
                    unit: spec.unit.to_string(),
                    value,
                }
            })
            .collect()
    }
}

/// Set up `name` `reps` times (the last fixture is kept and the earlier
/// ones dropped before the next is built), prepare the output checks and
/// run the warm-up turn.
pub fn start(name: &str, seed: u64, scale: Scale, reps: usize) -> Result<Run, String> {
    let mut clock = HostClock::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        clock.sample();
        let t = Instant::now();
        kept = Some(setup(name, seed, scale)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = kept.expect("at least one set-up ran");
    workload.prepare_checks()?;
    let warmup = measure(
        workload.as_mut(),
        Budget::Turns(1),
        &mut Tracer::off(),
        &mut clock,
    );
    Ok(Run {
        workload,
        setup_s,
        warmup,
        clock,
    })
}

/// A booted decoder variant under the debugger, from which sessions fork.
/// The prototype is built like the REPL and server build theirs
/// (`build_decoder`, `Session::attach`, analysis inputs loaded, `boot`);
/// each forked session then gets its own seeded environment and, as in
/// every interactive front end, time travel at the default interval.
pub struct Decoder {
    pub bug: Bug,
    n_mbs: u64,
    app: CompiledApp,
    proto: Session,
}

impl Decoder {
    pub fn build(bug: Bug, n_mbs: u64) -> Result<Decoder, String> {
        let (sys, app) = build_decoder(bug, n_mbs, PlatformConfig::default())
            .map_err(|e| format!("building the decoder failed: {e}"))?;
        let sources = decoder_sources(bug);
        let mut proto = Session::attach(sys, app.info.clone());
        proto.load_analysis(dfa::AnalysisInput::from_app(&app, &sources));
        proto.load_bcv_input(bcv::AnalysisInput::from_app(&app));
        proto.load_sched_input(sched::AnalysisInput::from_app(&app, &sources));
        proto
            .boot(app.boot_entry)
            .map_err(|e| format!("boot under the debugger failed: {e}"))?;
        Ok(Decoder {
            bug,
            n_mbs,
            app,
            proto,
        })
    }

    /// A fresh session: a copy-on-write fork of the booted prototype with
    /// the environment attached from `env_seed`.
    pub fn session(&mut self, env_seed: u32, time_travel: bool) -> Result<Session, String> {
        let mut s = self.proto.fork();
        attach_env(&mut s.sys, &self.app, self.n_mbs, env_seed)?;
        if time_travel {
            s.enable_time_travel(CHECKPOINT_INTERVAL);
        }
        Ok(s)
    }

    /// Check a finished session's frame sink against the golden model.
    pub fn check_output(&self, s: &Session, env_seed: u32) -> Result<(), String> {
        let sink = s
            .sys
            .runtime
            .sink_for(self.app.boundary_out["frame_out"])
            .ok_or("no frame sink attached")?;
        let want = golden::checksum(&golden::decode_stream(self.n_mbs as u32, env_seed));
        if sink.consumed != self.n_mbs || sink.checksum != want {
            return Err(format!(
                "decode output wrong: {} frames, checksum {:#x} (want {} frames, {want:#x})",
                sink.consumed, sink.checksum, self.n_mbs
            ));
        }
        Ok(())
    }
}

/// The per-session environment seed: the `i`-th draw of the `env` stream.
pub fn env_seed(seed: u64, i: u64) -> u32 {
    crate::derive(seed, "env", i) as u32
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}
