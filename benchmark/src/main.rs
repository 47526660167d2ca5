//! `benchmark` — run one workload, every workload, or compare runs.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--seconds S] [--trace 0|1]      # every workload
//! benchmark --compare A.txt... -- B.txt...
//! ```
//!
//! A workload run prints a `workload=` header and, as its last line, the
//! JSON result line. `--trace 1` reports the per-layer metrics instead of
//! the end-to-end ones and writes `.bench_out/trace-<workload>.json`.

use std::process::{Command, Stdio};

use dfdbg_benchmark::trace::Tracer;
use dfdbg_benchmark::workloads::{self, Budget, Measured};
use dfdbg_benchmark::{
    compare, peak_rss_mb, probe, stats, Metric, ResultLine, Scale, PER_LAYER, WORKLOADS,
};

const USAGE: &str = concat!(
    "usage: benchmark [--workload <name>] [--seed N] [--seconds S] [--trace 0|1]\n",
    "       benchmark --compare A.txt... -- B.txt..."
);

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Where traced runs write their Chrome traces, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value(a)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` ({})", WORKLOADS.join(", ")));
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = value(a)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

fn print_failures(m: &Measured) {
    for e in &m.errors {
        eprintln!("  failed: {e}");
    }
}

/// The latency tail and the host-speed scale, for reading; the tail is
/// not a bounded metric because it does not repeat on a shared host.
fn print_tail(workload: &str, m: &Measured, scale: f64) {
    let lat = stats::sorted(&m.latencies_ms);
    eprintln!(
        "{workload}: {} turns; p90 {:.4} ms, p99 {:.4} ms, max {:.4} ms (reference host); \
         host speed scale {scale:.4}",
        lat.len(),
        stats::percentile(&lat, 0.90) * scale,
        stats::percentile(&lat, 0.99) * scale,
        lat.last().copied().unwrap_or(0.0) * scale,
    );
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        eprintln!("{workload:<11} {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// One workload in this process.
fn run_workload(name: &str, o: &Opts) -> Result<ResultLine, String> {
    let mut run = workloads::start(name, o.seed, Scale::Full, SETUP_REPS)?;
    print_failures(&run.warmup);
    let (mut attempted, mut failed) = (run.warmup.attempted, run.warmup.failed);
    let metrics = if !o.trace {
        let m = run.measure(Budget::Seconds(o.seconds), &mut Tracer::off());
        print_failures(&m);
        attempted += m.attempted;
        failed += m.failed;
        print_tail(name, &m, run.clock.scale());
        run.end_to_end(&m, peak_rss_mb()?)
    } else {
        // Alternate untraced and traced slices of about a second: the
        // difference in throughput is the tracing overhead, and
        // alternating keeps drift in the host or in the process (early
        // sessions fault in fresh memory) out of it.
        let slices = (o.seconds.ceil() as usize).max(2);
        let slice = Budget::Seconds(o.seconds / slices as f64);
        let (mut plain, mut traced) = (Measured::default(), Measured::default());
        let mut tr = Tracer::on();
        for i in 0..slices {
            if i % 2 == 0 {
                plain.absorb(run.measure(slice, &mut Tracer::off()));
            } else {
                traced.absorb(run.measure(slice, &mut tr));
            }
        }
        for m in [&plain, &traced] {
            print_failures(m);
            attempted += m.attempted;
            failed += m.failed;
        }
        let overhead_pct = (plain.ops_per_s() / traced.ops_per_s().max(1e-12) - 1.0) * 100.0;
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace-{name}.json");
        std::fs::write(&path, tr.chrome_json(name)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{name}: wrote {} spans to {path}", tr.spans().len());
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (span, t) in tr.totals() {
            eprintln!(
                "{span:<28} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        eprintln!(
            "tracing overhead: {overhead_pct:+.2}% ({:.2} ops/s untraced, {:.2} traced)",
            plain.ops_per_s(),
            traced.ops_per_s()
        );
        let mut values = probe::run(o.seed, Scale::Full, &mut run.clock)?;
        values.insert("bench.trace_overhead_pct", overhead_pct);
        PER_LAYER
            .iter()
            .map(|spec| {
                let value = *values
                    .get(spec.name)
                    .ok_or_else(|| format!("the probe did not measure `{}`", spec.name))?;
                Ok(Metric {
                    name: spec.name.to_string(),
                    unit: spec.unit.to_string(),
                    value,
                })
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    print_metrics(name, &metrics);
    Ok(ResultLine {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Every workload, each in its own child process so that its peak memory
/// and set-up time are its own.
fn run_all(o: &Opts) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all = ResultLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running workload {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        match ResultLine::parse(last) {
            Ok(r) => {
                all.correct &= r.correct && out.status.success();
                all.attempted += r.attempted;
                all.failed += r.failed;
                all.metrics.extend(r.metrics.into_iter().map(|m| Metric {
                    name: format!("{w}.{}", m.name),
                    ..m
                }));
            }
            Err(e) => return Err(format!("workload {w} printed no result ({e})")),
        }
    }
    Ok(all)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--compare") => run_compare(&args[1..]),
        _ => match parse(&args) {
            Ok(o) => {
                let result = match &o.workload {
                    Some(w) => {
                        println!(
                            "workload={w} seed={} seconds={} trace={}",
                            o.seed,
                            o.seconds,
                            u8::from(o.trace)
                        );
                        run_workload(w, &o)
                    }
                    None => run_all(&o),
                };
                match result {
                    Ok(r) => {
                        println!("{}", r.to_json());
                        i32::from(!r.correct)
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        1
                    }
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn run_compare(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("benchmark: --compare needs `--` between the two sets\n{USAGE}");
        return 2;
    };
    let read = |paths: &[String]| -> Result<Vec<compare::RunFile>, String> {
        paths.iter().map(|p| compare::read_run(p)).collect()
    };
    let result = (|| {
        let (a, b) = (read(&args[..split])?, read(&args[split + 1..])?);
        if a.is_empty() || b.is_empty() {
            return Err("each side needs at least one run file".to_string());
        }
        let bounds = compare::read_bounds("BENCHMARK.json")?;
        Ok(compare::compare(&a, &b, &bounds))
    })();
    match result {
        Ok((report, bad)) => {
            print!("{report}");
            i32::from(bad)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    }
}
