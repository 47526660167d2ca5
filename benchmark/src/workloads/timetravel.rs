//! `timetravel`: checkpoint creation beside restore and replay. Each
//! session first records: `continue` to the end under a receive
//! catchpoint, noting every stop's cycle and output. It then answers pairs
//! of `goto T` and `reverse-continue`, one seeded target `T` in each slice
//! of the recorded span. The measured command is the `reverse-continue` (a
//! restore plus two replay passes); it must land on the last forward stop
//! before `T`, with the same cycle and the same output.

use std::time::Duration;

use dfdbg::cli::Cli;
use dfdbg::Stop;
use h264_pipeline::Bug;

use super::{env_seed, timed, Decoder, Workload};
use crate::trace::Tracer;
use crate::{derive, shuffled, Scale};

const CATCH: &str = "catch recv pipe::mc_in";

struct Recorded {
    cli: Cli,
    /// `(cycle, output)` of every forward stop, in order.
    stops: Vec<(u64, String)>,
    /// `goto` targets still to visit.
    targets: Vec<u64>,
}

pub struct TimeTravel {
    dec: Decoder,
    seed: u64,
    pairs: u64,
    sessions: u64,
    cur: Option<Recorded>,
}

impl TimeTravel {
    pub fn setup(seed: u64, scale: Scale) -> Result<TimeTravel, String> {
        Ok(TimeTravel {
            dec: Decoder::build(Bug::None, scale.pick(256, 8))?,
            seed,
            pairs: scale.pick(100, 4),
            sessions: 0,
            cur: None,
        })
    }

    fn record(&mut self) -> Result<Recorded, String> {
        let env = env_seed(self.seed, self.sessions);
        self.sessions += 1;
        let mut cli = Cli::new(self.dec.session(env, true)?);
        let out = cli.exec(CATCH);
        if !out.starts_with("Catchpoint") {
            return Err(format!("{CATCH}: {out}"));
        }
        let mut stops = Vec::new();
        loop {
            let out = cli.exec("continue");
            match cli.last_stop {
                Some(Stop::Dataflow(_)) => stops.push((cli.session.clock(), out)),
                Some(Stop::Quiescent) => break,
                _ => return Err(format!("recording stopped unexpectedly: {out}")),
            }
        }
        self.dec.check_output(&cli.session, env)?;
        if stops.is_empty() {
            return Err("recording saw no catchpoint stop".into());
        }
        // One target in each of `pairs` equal slices of the span after the
        // first stop (so a stop precedes every target), visited in seeded
        // order: every session covers its history evenly.
        let first = stops[0].0;
        let span = cli.session.clock() - first;
        let key = derive(self.seed, "goto", self.sessions);
        let targets = (0..self.pairs)
            .map(|k| {
                let (lo, hi) = (span * k / self.pairs, span * (k + 1) / self.pairs);
                first + 1 + lo + derive(key, "slice", k) % (hi - lo).max(1)
            })
            .collect();
        Ok(Recorded {
            cli,
            stops,
            targets: shuffled(targets, key, "order", 0),
        })
    }
}

impl Workload for TimeTravel {
    fn name(&self) -> &'static str {
        "timetravel"
    }

    fn at_boundary(&self) -> bool {
        self.cur.is_none()
    }

    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        if self.cur.is_none() {
            self.cur = Some(tr.span("replay.record", || self.record())?);
        }
        let rec = self.cur.as_mut().expect("session recorded above");
        let target = rec
            .targets
            .pop()
            .expect("a session ends when its targets do");
        let at = tr.span("replay.goto", || rec.cli.exec(&format!("goto {target}")));
        let result = if at != format!("At cycle {target}") {
            Err(format!("goto {target}: {at}"))
        } else {
            let (out, dt) = tr.span("replay.reverse_continue", || {
                timed(|| rec.cli.exec("reverse-continue"))
            });
            let (want_cycle, want_out) = rec
                .stops
                .iter()
                .rev()
                .find(|(c, _)| *c < target)
                .expect("the first stop precedes every target");
            let got_cycle = rec.cli.session.clock();
            if got_cycle == *want_cycle && out == *want_out {
                Ok(dt)
            } else {
                Err(format!(
                    "reverse-continue from {target} landed at {got_cycle} ({out}), \
                     want {want_cycle} ({want_out})"
                ))
            }
        };
        if result.is_err() || rec.targets.is_empty() {
            self.cur = None;
        }
        result
    }
}
