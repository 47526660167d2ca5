//! `decode`: long runs in the paper's default mode. Each session decodes
//! the clean variant with every data-exchange function breakpoint on and
//! time travel recording, driven by `run 20000` until the program
//! finishes; the frames are then checked against the golden model. The
//! simulator and the time-travel recording dominate, and whatever grows
//! with recorded history shows here.

use std::time::Duration;

use dfdbg::cli::Cli;
use dfdbg::Stop;
use h264_pipeline::Bug;

use super::{env_seed, timed, Decoder, Workload};
use crate::trace::Tracer;
use crate::Scale;

const CHUNK: &str = "run 20000";

pub struct Decode {
    dec: Decoder,
    seed: u64,
    sessions: u64,
    cur: Option<(Cli, u32)>,
}

impl Decode {
    pub fn setup(seed: u64, scale: Scale) -> Result<Decode, String> {
        Ok(Decode {
            dec: Decoder::build(Bug::None, scale.pick(2048, 16))?,
            seed,
            sessions: 0,
            cur: None,
        })
    }
}

impl Workload for Decode {
    fn name(&self) -> &'static str {
        "decode"
    }

    fn at_boundary(&self) -> bool {
        self.cur.is_none()
    }

    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        if self.cur.is_none() {
            let env = env_seed(self.seed, self.sessions);
            self.sessions += 1;
            let s = tr.span("core.session_open", || self.dec.session(env, true))?;
            self.cur = Some((Cli::new(s), env));
        }
        let (cli, _) = self.cur.as_mut().expect("session opened above");
        let (out, dt) = tr.span("core.run", || timed(|| cli.exec(CHUNK)));
        let stop = cli.last_stop.clone();
        if stop == Some(Stop::CycleLimit) {
            return Ok(dt);
        }
        let (cli, env) = self.cur.take().expect("session present");
        if stop != Some(Stop::Quiescent) {
            return Err(format!("`{CHUNK}` stopped unexpectedly: {out}"));
        }
        tr.span("check", || self.dec.check_output(&cli.session, env))?;
        Ok(dt)
    }
}
