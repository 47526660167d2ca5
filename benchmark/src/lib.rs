//! The repository benchmark: six closed-loop debugging workloads over the
//! dataflow debugger, each measured end to end from outside the program,
//! plus a per-layer probe that times the layers around their public calls.
//!
//! * [`workloads`] — the six workloads (`decode`, `inspect`, `timetravel`,
//!   `explore`, `analyze`, `remote`), their seeded inputs and output checks;
//! * [`probe`] — per-layer timings and deterministic counts;
//! * [`trace`] — in-memory spans written out as a Chrome trace;
//! * [`hostclock`] — the host-speed reference that reported times are
//!   scaled to;
//! * [`compare`] — two sets of result files judged against the bounds in
//!   `BENCHMARK.json`;
//! * [`stats`] and [`json`] — quantiles and the result-line format.
//!
//! `BENCHMARK.md` beside this crate explains how to run it and what each
//! metric should move.

pub mod compare;
pub mod hostclock;
pub mod json;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "decode",
    "inspect",
    "timetravel",
    "explore",
    "analyze",
    "remote",
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark emits: name, unit and better direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, emitted by every untraced run of every workload.
pub const END_TO_END: &[MetricSpec] = &[
    m("op_p50_ms", "ms", Lower),
    m("ops_per_s", "1/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("setup_s", "s", Lower),
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`). Timings
/// are medians over the probe's samples; counts are totals and repeat
/// exactly for a given seed.
pub const PER_LAYER: &[MetricSpec] = &[
    m("mind.build_ms", "ms", Lower),
    m("core.boot_ms", "ms", Lower),
    m("replay.baseline_ms", "ms", Lower),
    m("p2012.step_ns_per_cycle", "ns", Lower),
    m("pedf.handler_ns_per_cycle", "ns", Lower),
    m("p2012.self_ns_per_cycle", "ns", Lower),
    m("core.capture_ns_per_cycle", "ns", Lower),
    m("replay.record_ns_per_cycle", "ns", Lower),
    m("replay.checkpoint_us", "us", Lower),
    m("replay.restore_us", "us", Lower),
    m("replay.hash_us", "us", Lower),
    m("pedf.fork_us", "us", Lower),
    m("core.session_fork_us", "us", Lower),
    m("multiverse.us_per_universe", "us", Lower),
    m("server.attach_overhead_us", "us", Lower),
    m("server.overhead_us", "us", Lower),
    m("core.inspect_us", "us", Lower),
    m("dfa.analyze_us", "us", Lower),
    m("bcv.verify_us", "us", Lower),
    m("sched.analyze_us", "us", Lower),
    m("debuginfo.render_us", "us", Lower),
    m("appgen.generate_us", "us", Lower),
    m("bench.trace_overhead_pct", "%", Lower),
    m("p2012.cycles", "count", Lower),
    m("p2012.instructions", "count", Lower),
    m("p2012.traps", "count", Lower),
    m("p2012.completions", "count", Lower),
    m("pedf.tokens_pushed", "count", Lower),
    m("core.stops", "count", Lower),
    m("core.tokens_allocated", "count", Lower),
    m("core.tokens_evicted", "count", Lower),
    m("replay.checkpoints", "count", Lower),
    m("replay.pages_stored", "count", Lower),
    m("multiverse.universes_explored", "count", Lower),
    m("multiverse.universes_pruned", "count", Higher),
    m("multiverse.sleep_set_hits", "count", Higher),
    m("dfa.findings", "count", Lower),
    m("bcv.findings", "count", Lower),
    m("sched.findings", "count", Lower),
];

/// Input sizes: `Full` is what the benchmark measures; `Tiny` runs the
/// same code paths on small inputs for the crate's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// Derive the `i`-th input of a named stream from the run seed
/// (splitmix64 over the seed, a stream hash and the index), so every
/// generated input is a pure function of `--seed`.
pub fn derive(seed: u64, stream: &str, i: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3);
    }
    let mut z = seed
        .wrapping_add(h)
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `items` in the order of the `round`-th seeded shuffle of `stream`.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64, stream: &str, round: u64) -> Vec<T> {
    let key = derive(seed, stream, round);
    for i in (1..items.len()).rev() {
        let j = (derive(key, "shuffle", i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// One emitted metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The result line every run prints last on stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl ResultLine {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let v = json::parse(line)?;
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("result line lacks `{k}`"))
        };
        let correct = match v.get("correct") {
            Some(json::Value::Bool(b)) => *b,
            _ => return Err("result line lacks `correct`".into()),
        };
        let mut metrics = Vec::new();
        if let Some(json::Value::Object(fields)) = v.get("metrics") {
            for (name, body) in fields {
                let value = body
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("metric `{name}` lacks a value"))?;
                let unit = body
                    .get("unit")
                    .and_then(json::Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                metrics.push(Metric {
                    name: name.clone(),
                    unit,
                    value,
                });
            }
        }
        Ok(ResultLine {
            correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_a_pure_function_of_its_inputs() {
        assert_eq!(derive(7, "env", 3), derive(7, "env", 3));
        assert_ne!(derive(7, "env", 3), derive(7, "env", 4));
        assert_ne!(derive(7, "env", 3), derive(7, "app", 3));
        assert_ne!(derive(7, "env", 3), derive(8, "env", 3));
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled((0..20).collect::<Vec<u32>>(), 7, "s", 0);
        assert_eq!(a, shuffled((0..20).collect(), 7, "s", 0));
        assert_ne!(a, shuffled((0..20).collect(), 7, "s", 1));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_round_trips() {
        let r = ResultLine {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![Metric {
                name: "op_p50_ms".into(),
                unit: "ms".into(),
                value: 1.25,
            }],
        };
        assert_eq!(ResultLine::parse(&r.to_json()).unwrap(), r);
    }
}
