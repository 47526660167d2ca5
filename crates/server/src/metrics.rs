//! Server observability counters and the text `/metrics` rendering.
//!
//! Everything is lock-free atomics so the hot path (one command on one
//! session thread) never serialises against other sessions. The latency
//! histogram uses fixed microsecond buckets wide enough to cover both a
//! sub-millisecond `info links` and a multi-second `attach` in a debug
//! build; quantiles are interpolated from the buckets the Prometheus way,
//! which is also what the E7 bench sanity-checks against its exact
//! client-side measurements.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Upper bounds (µs) of the command-latency histogram buckets; the last
/// bucket is +Inf.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// One fixed-bucket latency histogram (lock-free).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&le| us <= le)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// Interpolated quantile (0.0 ..= 1.0), in microseconds. `None` until
    /// at least one observation.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return None;
        }
        let rank = q * count as f64;
        let mut seen = 0u64;
        let mut lo = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Relaxed);
            let hi = LATENCY_BUCKETS_US
                .get(i)
                .copied()
                .unwrap_or(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1] * 2);
            if n > 0 && (seen + n) as f64 >= rank {
                let into = (rank - seen as f64) / n as f64;
                return Some(lo as f64 + into * (hi - lo) as f64);
            }
            seen += n;
            lo = hi;
        }
        Some(lo as f64)
    }

    /// Append the Prometheus text exposition of this histogram.
    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &le) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                le as f64 / 1e6
            ));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_US.len()].load(Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n",
            self.sum_us.load(Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!("{name}_count {}\n", self.count.load(Relaxed)));
    }
}

#[derive(Default)]
pub struct Metrics {
    /// Currently open connections (a connection is a session slot).
    pub sessions_open: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub sessions_total: AtomicU64,
    /// Debug commands executed (requests dispatched to a session's CLI).
    pub commands_total: AtomicU64,
    /// Commands whose response was an error (`ok: false`).
    pub command_errors_total: AtomicU64,
    /// Commands that exceeded the per-session command timeout.
    pub command_timeouts_total: AtomicU64,
    /// Sessions closed by the idle timeout.
    pub idle_timeouts_total: AtomicU64,
    /// Responses truncated by the per-connection output bound.
    pub output_truncated_total: AtomicU64,
    /// Simulated-machine faults reported through stops.
    pub faults_total: AtomicU64,
    /// Wire bytes received / sent (JSON frames and newlines included).
    pub bytes_in_total: AtomicU64,
    pub bytes_out_total: AtomicU64,
    /// `/metrics` scrapes served.
    pub scrapes_total: AtomicU64,
    /// Compile-once cache traffic: attaches served by forking an already
    /// built app vs. attaches that ran the compile. Mirrors of the
    /// `AppCache` counters, synced on every attach.
    pub attach_cache_hits: AtomicU64,
    pub attach_cache_misses: AtomicU64,
    /// Idle sessions demoted to a replay recipe (memory freed).
    pub evictions_total: AtomicU64,
    /// Sessions transparently rebuilt from a recipe (next-command revive
    /// or explicit `resume <token>`).
    pub resumes_total: AtomicU64,
    /// Multiverse explorations run (`explore` commands that searched).
    pub explores_total: AtomicU64,
    /// Universes forked / run / pruned-as-equivalent across all
    /// explorations, and DPOR sleep-set skips — the work/savings split
    /// of the search.
    pub explore_forked_total: AtomicU64,
    pub explore_explored_total: AtomicU64,
    pub explore_pruned_total: AtomicU64,
    pub explore_sleep_hits_total: AtomicU64,
    /// Cycles the universes simulated, and universes stopped where they
    /// rejoined the reference run: the search's work in cycles, and what
    /// state matching saved of it.
    pub explore_cycles_stepped_total: AtomicU64,
    pub explore_joined_total: AtomicU64,
    /// Witnesses found across all explorations.
    pub explore_witnesses_total: AtomicU64,
    /// High-water mark of any exploration's snapshot-pool footprint
    /// (bytes actually owned by COW pages — near zero by design).
    pub explore_pool_peak_bytes: AtomicU64,
    /// Per-command execution latency.
    pub command_seconds: Histogram,
    /// `attach` latency, separated from command latency so session setup
    /// and steady-state cannot be conflated (E7/E8).
    pub attach_seconds: Histogram,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one command execution latency.
    pub fn observe_latency(&self, d: Duration) {
        self.command_seconds.observe(d);
    }

    /// Fold one finished exploration's stats into the server counters.
    pub fn observe_explore(&self, s: &multiverse::ExploreStats) {
        self.explores_total.fetch_add(1, Relaxed);
        self.explore_forked_total
            .fetch_add(s.universes_forked, Relaxed);
        self.explore_explored_total
            .fetch_add(s.universes_explored, Relaxed);
        self.explore_pruned_total
            .fetch_add(s.universes_pruned, Relaxed);
        self.explore_sleep_hits_total
            .fetch_add(s.sleep_set_hits, Relaxed);
        self.explore_witnesses_total
            .fetch_add(s.witnesses_found, Relaxed);
        self.explore_cycles_stepped_total
            .fetch_add(s.cycles_stepped, Relaxed);
        self.explore_joined_total
            .fetch_add(s.universes_joined, Relaxed);
        self.explore_pool_peak_bytes
            .fetch_max(s.peak_pool_bytes, Relaxed);
    }

    /// Interpolated command-latency quantile (0.0 ..= 1.0), in
    /// microseconds. `None` until at least one command was observed.
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        self.command_seconds.quantile_us(q)
    }

    /// Render in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        gauge(
            &mut out,
            "dfdbg_sessions_open",
            "debug sessions currently open",
            self.sessions_open.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_sessions_total",
            "debug sessions accepted since start",
            self.sessions_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_commands_total",
            "debug commands executed",
            self.commands_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_command_errors_total",
            "commands answered with ok=false",
            self.command_errors_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_command_timeouts_total",
            "commands that exceeded the command timeout",
            self.command_timeouts_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_idle_timeouts_total",
            "sessions closed by the idle timeout",
            self.idle_timeouts_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_output_truncated_total",
            "responses truncated by the output bound",
            self.output_truncated_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_faults_total",
            "simulated-machine faults surfaced in stops",
            self.faults_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_bytes_in_total",
            "wire bytes received",
            self.bytes_in_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_bytes_out_total",
            "wire bytes sent",
            self.bytes_out_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_metrics_scrapes_total",
            "/metrics scrapes served",
            self.scrapes_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_attach_cache_hits_total",
            "attaches served by forking an already compiled app",
            self.attach_cache_hits.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_attach_cache_misses_total",
            "attaches that compiled the app (one per variant key)",
            self.attach_cache_misses.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_evictions_total",
            "idle sessions demoted to a replay recipe",
            self.evictions_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_resumes_total",
            "sessions rebuilt from a replay recipe",
            self.resumes_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explores_total",
            "multiverse explorations run",
            self.explores_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_universes_forked_total",
            "universes forked across all explorations",
            self.explore_forked_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_universes_explored_total",
            "universes run, to their end or to where they rejoined the reference",
            self.explore_explored_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_universes_pruned_total",
            "universes pruned as reference-equivalent",
            self.explore_pruned_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_sleep_set_hits_total",
            "candidate universes skipped by sleep sets",
            self.explore_sleep_hits_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_witnesses_total",
            "dynamic witnesses found",
            self.explore_witnesses_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_cycles_stepped_total",
            "cycles simulated across all explorations' universes",
            self.explore_cycles_stepped_total.load(Relaxed),
        );
        counter(
            &mut out,
            "dfdbg_explore_universes_joined_total",
            "universes stopped where they rejoined the reference run",
            self.explore_joined_total.load(Relaxed),
        );
        gauge(
            &mut out,
            "dfdbg_explore_pool_peak_bytes",
            "high-water snapshot-pool footprint of any exploration",
            self.explore_pool_peak_bytes.load(Relaxed),
        );
        self.command_seconds.render_into(
            &mut out,
            "dfdbg_command_seconds",
            "command execution latency",
        );
        self.attach_seconds
            .render_into(&mut out, "dfdbg_attach_seconds", "session attach latency");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_quantiles_ordered() {
        let m = Metrics::new();
        for us in [30u64, 80, 80, 300, 300, 300, 7_000, 2_000_000] {
            m.observe_latency(Duration::from_micros(us));
        }
        let text = m.render();
        assert!(text.contains("dfdbg_command_seconds_count 8"), "{text}");
        assert!(text.contains("dfdbg_command_seconds_bucket{le=\"+Inf\"} 8"));
        // le=0.00005 (50us) holds exactly the 30us sample.
        assert!(text.contains("dfdbg_command_seconds_bucket{le=\"0.00005\"} 1"));
        let p50 = m.latency_quantile_us(0.50).unwrap();
        let p99 = m.latency_quantile_us(0.99).unwrap();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!((100.0..=500.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= 1_000_000.0, "p99 {p99}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let m = Metrics::new();
        assert!(m.latency_quantile_us(0.5).is_none());
        assert!(m.render().contains("dfdbg_command_seconds_count 0"));
    }
}
