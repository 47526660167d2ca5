//! `--compare A... -- B...`: judge two sets of runs of the benchmark
//! against each other. Each file holds the standard output of one run (its
//! `workload=` header and its result line); the i-th file of each side
//! form a pair. For every metric and workload the table gives each side's
//! median and quartiles, the share of pairs B wins, and a verdict:
//!
//! * `better` — over at least ten pairs, B wins at least nine tenths and
//!   the medians differ by more than A's own quartile spread;
//! * `worse` — B's median is worse than A's by more than the metric's
//!   bound from `BENCHMARK.json` (for metrics without a bound: the mirror
//!   of `better`, which is reported but does not fail the comparison);
//! * `unresolved` — A's spread is wider than the bound, and B neither
//!   reads better on every run nor fails the bound;
//! * `within` — none of the above;
//! * `identical` / `differs` — for counts, which must repeat exactly.

use std::collections::BTreeMap;

use crate::{json, stats, ResultLine, END_TO_END, PER_LAYER};

/// One run read back from a file.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub workload: String,
    pub result: ResultLine,
}

pub fn read_run(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let workload = text
        .lines()
        .find_map(|l| {
            l.split_whitespace()
                .find_map(|w| w.strip_prefix("workload="))
        })
        .ok_or_else(|| format!("{path}: no `workload=` header line"))?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    let result = ResultLine::parse(last).map_err(|e| format!("{path}: {e}"))?;
    Ok(RunFile { workload, result })
}

/// Regression bounds by metric name, from `BENCHMARK.json`.
pub fn read_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(json::Value::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
    {
        if let (Some(name), Some(bound)) = (
            m.get("name").and_then(json::Value::as_str),
            m.get("bound").and_then(json::Value::as_f64),
        ) {
            out.insert(name.to_string(), bound);
        }
    }
    Ok(out)
}

/// Fewest pairs on which a clear win (or, for a metric without a bound, a
/// clear loss) is claimed.
const MIN_PAIRS: usize = 10;

/// The verdict for one metric on one workload.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
    count: bool,
) -> &'static str {
    if count {
        return if a == b { "identical" } else { "differs" };
    }
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (a1, am, a3) = stats::quartiles(a);
    let bm = stats::median(b);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let losses = a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
    let clear = (bm - am).abs() > a3 - a1;
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && clear && better(bm, am) {
        return "better";
    }
    let Some(bound) = bound else {
        return if pairs >= MIN_PAIRS && losses * 10 >= pairs * 9 && clear {
            "worse"
        } else {
            "within"
        };
    };
    let worse_by = if lower_is_better { bm - am } else { am - bm } / am.abs().max(1e-12);
    let b_dominates = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    if worse_by > bound {
        "worse"
    } else if (a3 - a1) / am.abs().max(1e-12) > bound && !b_dominates {
        "unresolved"
    } else {
        "within"
    }
}

/// Compare the runs in `a` against those in `b`; returns the report text
/// and whether any metric got worse or any count changed.
pub fn compare(a: &[RunFile], b: &[RunFile], bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(b) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = format!(
        "{:<11} {:<30} {:>28} {:>28} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B won"
    );
    let mut bad = false;
    for w in workloads {
        let side = |runs: &[RunFile]| -> Vec<ResultLine> {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| r.result.clone())
                .collect()
        };
        let (ra, rb) = (side(a), side(b));
        let failed: u64 = ra.iter().chain(&rb).map(|r| r.failed).sum();
        if failed > 0 {
            out.push_str(&format!(
                "{w:<11} {failed} failed operation(s) in these runs\n"
            ));
            bad = true;
        }
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let values = |rs: &[ResultLine]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.name == spec.name))
                    .map(|m| m.value)
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let count = spec.unit == "count";
            let lower = spec.better == crate::Better::Lower;
            let bound = bounds.get(spec.name).copied();
            let v = verdict(&va, &vb, lower, bound, count);
            // Only bounded metrics and counts gate; the per-layer timings
            // explain a result rather than decide it.
            bad |= (v == "worse" && bound.is_some()) || v == "differs";
            let (a1, am, a3) = stats::quartiles(&va);
            let (b1, bm, b3) = stats::quartiles(&vb);
            let pairs = va.len().min(vb.len());
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(x, y)| if lower { y < x } else { y > x })
                .count();
            out.push_str(&format!(
                "{w:<11} {:<30} {:>28} {:>28} {:>+7.1}% {:>6}  {v}\n",
                format!("{} ({})", spec.name, spec.unit),
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                (bm - am) / am.abs().max(1e-12) * 100.0,
                format!("{wins}/{pairs}"),
            ));
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let jitter = [0.0, 0.1, -0.1, 0.05, -0.05, 0.02, -0.02, 0.08, -0.08, 0.0];
        let around = |m: f64| -> Vec<f64> { jitter.iter().map(|j| m + j).collect() };
        let a = around(10.0);
        // Clearly faster on every pair.
        assert_eq!(verdict(&a, &around(8.0), true, Some(0.1), false), "better");
        // ...but five pairs are too few to claim it.
        assert_eq!(
            verdict(&a[..5], &around(8.0)[..5], true, Some(0.1), false),
            "within"
        );
        // Slightly slower, inside the bound.
        assert_eq!(verdict(&a, &around(10.2), true, Some(0.1), false), "within");
        // Slower by more than the bound.
        assert_eq!(verdict(&a, &around(12.0), true, Some(0.1), false), "worse");
        // Without a bound, a clear loss on every pair.
        assert_eq!(verdict(&a, &around(12.0), true, None, false), "worse");
        // A's own spread exceeds the bound.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        let b = [10.0, 9.0, 11.0, 10.5, 9.5];
        assert_eq!(verdict(&noisy, &b, true, Some(0.1), false), "unresolved");
        // Higher-is-better metrics invert the comparison.
        assert_eq!(
            verdict(&a, &around(12.0), false, Some(0.1), false),
            "better"
        );
        // Counts must repeat exactly.
        assert_eq!(
            verdict(&[3.0, 3.0], &[3.0, 3.0], true, None, true),
            "identical"
        );
        assert_eq!(
            verdict(&[3.0, 3.0], &[3.0, 4.0], true, None, true),
            "differs"
        );
    }
}
