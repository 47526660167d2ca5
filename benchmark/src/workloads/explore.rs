//! `explore`: copy-on-write forks plus many short simulations, with no
//! capture involved. Each `explore` call runs on a fresh session: hunts
//! on 16-macroblock `race` and `deadlock` decoders that must witness
//! MV702 and MV701, and an exhaustive race hunt on a 4-macroblock `benign`
//! decoder (about 500 universes) that must cover its space without a
//! witness. Every witness is then replayed through `explore replay` on
//! another fresh session. Race hunts outnumber deadlock hunts so that the
//! median turn lies inside one population.

use std::time::Duration;

use dfdbg::cli::Cli;
use h264_pipeline::Bug;

use super::{env_seed, timed, Decoder, Workload};
use crate::trace::Tracer;
use crate::{shuffled, Scale};

struct Hunt {
    bug: Bug,
    /// Decoder size at full and at tiny scale.
    n_mbs: (u64, u64),
    cmd: &'static str,
    /// The rule the witness must carry; `None` means the search must
    /// cover its space and find nothing.
    want: Option<&'static str>,
    /// Calls per round.
    weight: usize,
}

const HUNTS: &[Hunt] = &[
    Hunt {
        bug: Bug::BenignScratch,
        n_mbs: (4, 2),
        cmd: "explore --until race --budget 5000 --horizon 200000",
        want: None,
        weight: 1,
    },
    Hunt {
        bug: Bug::SharedScratch,
        n_mbs: (16, 4),
        cmd: "explore --until race",
        want: Some("MV702"),
        weight: 12,
    },
    Hunt {
        bug: Bug::Deadlock,
        n_mbs: (16, 4),
        cmd: "explore --until deadlock",
        want: Some("MV701"),
        weight: 8,
    },
];

pub struct Explore {
    variants: Vec<Decoder>,
    seed: u64,
    calls: u64,
    /// The current round: hunt indices in seeded order, consumed from the
    /// back.
    round: Vec<usize>,
    rounds: u64,
}

impl Explore {
    pub fn setup(seed: u64, scale: Scale) -> Result<Explore, String> {
        Ok(Explore {
            variants: HUNTS
                .iter()
                .map(|h| Decoder::build(h.bug, scale.pick(h.n_mbs.0, h.n_mbs.1)))
                .collect::<Result<_, _>>()?,
            seed,
            calls: 0,
            round: Vec::new(),
            rounds: 0,
        })
    }

    /// The next hunt: rounds hold every hunt `weight` times, shuffled by
    /// the seed, so each run sees the same mix in a seeded order.
    fn next_hunt(&mut self) -> usize {
        if self.round.is_empty() {
            let all = HUNTS
                .iter()
                .enumerate()
                .flat_map(|(i, h)| std::iter::repeat_n(i, h.weight))
                .collect();
            self.round = shuffled(all, self.seed, "explore", self.rounds);
            self.rounds += 1;
        }
        self.round.pop().expect("round refilled above")
    }
}

impl Workload for Explore {
    fn name(&self) -> &'static str {
        "explore"
    }

    fn at_boundary(&self) -> bool {
        self.round.is_empty()
    }

    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        let i = self.next_hunt();
        let (hunt, dec) = (&HUNTS[i], &mut self.variants[i]);
        let env = env_seed(self.seed, self.calls);
        self.calls += 1;
        let mut cli = Cli::new(tr.span("core.session_open", || dec.session(env, true))?);
        let (out, dt) = tr.span("multiverse.explore", || timed(|| cli.exec(hunt.cmd)));
        let report = cli
            .session
            .last_explore
            .as_ref()
            .ok_or_else(|| format!("`{}` produced no report: {out}", hunt.cmd))?;
        match (hunt.want, &report.witness) {
            (None, None) if report.space_covered => Ok(dt),
            (Some(rule), Some(w)) if w.rule == rule => {
                let witness = w.to_string();
                let mut replay = Cli::new(dec.session(env, true)?);
                let got = tr.span("multiverse.replay", || {
                    replay.exec(&format!("explore replay {witness}"))
                });
                if got.contains(&format!("witnessed rule: {rule}")) {
                    Ok(dt)
                } else {
                    Err(format!("witness {witness} did not replay: {got}"))
                }
            }
            _ => Err(format!(
                "`{}` on {:?}: want {:?}, got witness {:?} (space covered: {})",
                hunt.cmd,
                dec.bug,
                hunt.want,
                report.witness.as_ref().map(|w| w.to_string()),
                report.space_covered
            )),
        }
    }
}
