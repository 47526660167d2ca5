//! `inspect`: short, frequent interactive turns. Two receive catchpoints
//! stop the decoder on every token `ipf` and `mc` take in; after each stop
//! the user looks around with one read-only command, in rotation. A turn
//! follows one macroblock through both filters: two `continue`s, whose
//! times add up to the turn's latency. (The two stops are 201 and 84
//! simulated cycles apart, so single stops would make a two-humped
//! latency whose median sits between the humps.) Capture and stop
//! handling dominate.

use std::time::Duration;

use dfdbg::cli::Cli;
use dfdbg::{Session, Stop};
use h264_pipeline::Bug;

use super::{env_seed, timed, Decoder, Workload};
use crate::trace::Tracer;
use crate::Scale;

/// Interfaces the catchpoints watch (consumer side, where tokens pop).
pub const CATCH: &[&str] = &["ipf::pipe_in", "mc::ipf_in"];

/// Read-only commands issued after each stop, in rotation.
pub const ROTATION: &[&str] = &[
    "info links",
    "filter ipf info last_token",
    "where",
    "info filters",
];

struct Live {
    cli: Cli,
    env: u32,
    stops: u64,
}

pub struct Inspect {
    dec: Decoder,
    seed: u64,
    sessions: u64,
    looks: u64,
    cur: Option<Live>,
}

impl Inspect {
    pub fn setup(seed: u64, scale: Scale) -> Result<Inspect, String> {
        Ok(Inspect {
            dec: Decoder::build(Bug::None, scale.pick(1024, 8))?,
            seed,
            sessions: 0,
            looks: 0,
            cur: None,
        })
    }

    fn open(&mut self) -> Result<Live, String> {
        let env = env_seed(self.seed, self.sessions);
        self.sessions += 1;
        let mut cli = Cli::new(self.dec.session(env, true)?);
        for spec in CATCH {
            let out = cli.exec(&format!("catch recv {spec}"));
            if !out.starts_with("Catchpoint") {
                return Err(format!("catch recv {spec}: {out}"));
            }
        }
        Ok(Live { cli, env, stops: 0 })
    }
}

/// Tokens popped so far on the watched interfaces, from the debugger's
/// link counters.
pub fn pops(s: &Session) -> Result<u64, String> {
    let mut total = 0;
    for spec in CATCH {
        let conn = s.conn_named(spec)?;
        let link = s
            .model
            .graph
            .conn(conn)
            .link
            .ok_or_else(|| format!("{spec} is not linked"))?;
        total += s.model.links[link.0 as usize].popped;
    }
    Ok(total)
}

impl Workload for Inspect {
    fn name(&self) -> &'static str {
        "inspect"
    }

    fn at_boundary(&self) -> bool {
        self.cur.is_none()
    }

    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        if self.cur.is_none() {
            self.cur = Some(tr.span("core.session_open", || self.open())?);
        }
        let live = self.cur.as_mut().expect("session opened above");
        let mut waited = Duration::ZERO;
        for _ in 0..CATCH.len() {
            let (out, dt) = tr.span("core.continue", || timed(|| live.cli.exec("continue")));
            waited += dt;
            match live.cli.last_stop {
                Some(Stop::Dataflow(_)) => {
                    live.stops += 1;
                    let cmd = ROTATION[(self.looks % ROTATION.len() as u64) as usize];
                    self.looks += 1;
                    let look = tr.span("core.inspect", || live.cli.exec(cmd));
                    if look.starts_with("error:") {
                        self.cur = None;
                        return Err(format!("`{cmd}` failed: {look}"));
                    }
                }
                Some(Stop::Quiescent) => {
                    let live = self.cur.take().expect("session present");
                    let popped = pops(&live.cli.session)?;
                    if live.stops != popped {
                        return Err(format!(
                            "{} catchpoint stops but {popped} tokens popped",
                            live.stops
                        ));
                    }
                    self.dec.check_output(&live.cli.session, live.env)?;
                    return Ok(waited);
                }
                _ => {
                    self.cur = None;
                    return Err(format!("`continue` stopped unexpectedly: {out}"));
                }
            }
        }
        Ok(waited)
    }
}
