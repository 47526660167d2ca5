//! `dfdbg-fuzz` — the differential fuzz farm driver.
//!
//! ```text
//! dfdbg-fuzz --iters N --seed S [--corpus DIR]   # fuzz: generate, cross-check, shrink
//! dfdbg-fuzz --replay --corpus DIR               # replay every corpus scenario
//! dfdbg-fuzz --iters N --seed S --mutate dfa004  # mutation self-check
//! ```
//!
//! Fuzz mode generates one app per iteration (seed derived from `--seed`
//! and the iteration index — deterministic, so any finding names the
//! exact invocation that reproduces it), runs every oracle direction
//! (static verdicts vs. dynamic outcome, capacity minima both arms,
//! throughput bound, replay fixpoint, parked vs. polled stepping,
//! explore agreement), and on the first divergence
//! shrinks it to a minimal app, prints it, writes it into `--corpus` (if
//! given) as a `status open` scenario, and exits non-zero.
//!
//! Replay mode re-checks every `corpus/*.txt` scenario: `open` entries
//! must still diverge on their recorded oracle, `fixed` entries must pass
//! every oracle — both directions gate CI.
//!
//! Mutation mode deliberately weakens DFA004 through `dfa::testhook` and
//! requires the farm to notice within the iteration budget, shrinking the
//! find to at most `--max-shrunk-actors` (default 6) filters: proof the
//! oracles would catch a real analyzer regression.
//!
//! `--seed` accepts a number (`42`, `0xbeef`) or any string, which is
//! FNV-hashed — `--seed ci` and `--seed soak-$(date +%F)` are both fine.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dataflow_debugger::appgen::{self, corpus, iter_seed, parse_seed, Scenario, Status};

struct Args {
    iters: u64,
    seed: u64,
    seed_text: String,
    corpus: Option<PathBuf>,
    replay: bool,
    mutate: Option<String>,
    max_shrunk: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dfdbg-fuzz --iters N --seed S [--corpus DIR] [--replay] \
         [--mutate dfa004] [--max-shrunk-actors N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        iters: 200,
        seed: parse_seed("ci"),
        seed_text: "ci".to_string(),
        corpus: None,
        replay: false,
        mutate: None,
        max_shrunk: 6,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().ok_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--iters" => {
                args.iters = val("--iters")?.parse().map_err(|_| usage())?;
            }
            "--seed" => {
                args.seed_text = val("--seed")?;
                args.seed = parse_seed(&args.seed_text);
            }
            "--corpus" => args.corpus = Some(PathBuf::from(val("--corpus")?)),
            "--replay" => args.replay = true,
            "--mutate" => args.mutate = Some(val("--mutate")?),
            "--max-shrunk-actors" => {
                args.max_shrunk = val("--max-shrunk-actors")?.parse().map_err(|_| usage())?;
            }
            _ => {
                eprintln!("unknown argument `{a}`");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

fn replay_corpus(dir: &Path) -> ExitCode {
    let scenarios = match corpus::load_dir(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if scenarios.is_empty() {
        eprintln!("corpus {} holds no scenarios", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for s in &scenarios {
        match s.replay() {
            Ok(()) => println!(
                "corpus {}: ok ({}, {})",
                s.name,
                s.oracle,
                if s.status == Status::Open {
                    "open"
                } else {
                    "fixed"
                }
            ),
            Err(e) => {
                failed += 1;
                eprintln!("corpus FAIL: {e}");
            }
        }
    }
    println!("corpus: {} scenarios, {failed} failing", scenarios.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e,
    };

    if args.replay {
        let Some(dir) = &args.corpus else {
            eprintln!("--replay needs --corpus DIR");
            return usage();
        };
        return replay_corpus(dir);
    }

    match args.mutate.as_deref() {
        None => {}
        Some("dfa004") => dataflow_debugger::dfa::testhook::weaken_dfa004(true),
        Some(other) => {
            eprintln!("unknown mutation `{other}` (supported: dfa004)");
            return usage();
        }
    }

    let t0 = Instant::now();
    let mut shapes: BTreeMap<String, u64> = BTreeMap::new();
    let mut squeezed = 0usize;
    let mut throughput = 0u64;
    let mut replays = 0u64;
    let mut explores = 0u64;
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();

    for iter in 0..args.iters {
        let seed = iter_seed(args.seed, iter);
        let spec = appgen::generate(seed);
        *shapes.entry(spec.shape.clone()).or_default() += 1;
        match appgen::check_spec(&spec) {
            Ok(rep) => {
                squeezed += rep.squeezed_links;
                throughput += rep.throughput_checked as u64;
                replays += rep.replay_checked as u64;
                explores += rep.explore_checked as u64;
                *outcomes.entry(rep.observed).or_default() += 1;
            }
            Err(div) => {
                println!(
                    "iteration {iter} (seed {seed:#x}, shape {}): divergence on {}",
                    spec.shape, div.oracle
                );
                println!("  {}", div.detail);
                let small = appgen::shrink(&spec, &div);
                println!(
                    "shrunk to {} filters / {} links / {} steps:",
                    small.n_filters(),
                    small.links.len(),
                    small.steps
                );
                print!("{}", small.to_text());

                if let Some(mutation) = args.mutate.as_deref() {
                    // Self-check success: the weakened rule was noticed
                    // and the witness is small enough to read.
                    dataflow_debugger::dfa::testhook::weaken_dfa004(false);
                    if small.n_filters() > args.max_shrunk {
                        eprintln!(
                            "mutation {mutation}: witness has {} filters (> {})",
                            small.n_filters(),
                            args.max_shrunk
                        );
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "mutation {mutation}: caught at iteration {iter}, witness {} filters",
                        small.n_filters()
                    );
                    return ExitCode::SUCCESS;
                }

                if let Some(dir) = &args.corpus {
                    let scenario = Scenario {
                        name: format!("found-{seed:#x}"),
                        oracle: div.oracle.clone(),
                        status: Status::Open,
                        note: format!(
                            "dfdbg-fuzz --seed {} iteration {iter}: {}",
                            args.seed_text, div.detail
                        ),
                        spec: small.clone(),
                    };
                    let path = dir.join(format!("found-{seed:#x}.txt"));
                    if let Err(e) = std::fs::write(&path, scenario.to_text()) {
                        eprintln!("could not write {}: {e}", path.display());
                    } else {
                        println!("written to {}", path.display());
                    }
                }
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(mutation) = args.mutate.as_deref() {
        dataflow_debugger::dfa::testhook::weaken_dfa004(false);
        eprintln!(
            "mutation {mutation}: NOT caught in {} iterations — the farm has no teeth",
            args.iters
        );
        return ExitCode::FAILURE;
    }

    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{} iterations, 0 divergences, {:.1} apps/sec",
        args.iters,
        args.iters as f64 / secs.max(1e-9)
    );
    let shapes_line: Vec<String> = shapes.iter().map(|(s, n)| format!("{s}:{n}")).collect();
    println!("shapes: {}", shapes_line.join(" "));
    let outcome_line: Vec<String> = outcomes.iter().map(|(s, n)| format!("{s}:{n}")).collect();
    println!(
        "outcomes: {} | squeezed links {squeezed}, throughput bounds {throughput}, \
         replay fixpoints {replays}, explore agreements {explores}",
        outcome_line.join(" ")
    );
    ExitCode::SUCCESS
}
