//! Host-speed reference. The benchmark shares its machine with others, and
//! the speed of the cores it gets drifts by up to a factor of two over
//! minutes. A fixed loop of table updates and integer arithmetic — code of
//! the benchmark's own, independent of the program under test — is timed
//! between turns throughout a run; every reported time is scaled by
//! `REFERENCE_MS / median(loop time)`, i.e. expressed in host time of a
//! machine on which the loop takes [`REFERENCE_MS`]. A change to the
//! program moves the workload's times and not the loop's, so it still
//! shows one for one.

use std::time::Instant;

use crate::stats;

/// The loop's time on the reference host, by definition.
pub const REFERENCE_MS: f64 = 0.5;

/// Take a sample when this long has passed since the last one, so the
/// loop costs about 5% of a run.
const SAMPLE_EVERY_MS: f64 = 10.0;

const TABLE_WORDS: usize = 1 << 16;
const ROUNDS: u32 = 400_000;

pub struct HostClock {
    table: Vec<u32>,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
    /// Host time spent in the loop, which measured wall times exclude.
    pub spent_s: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            table: vec![0; TABLE_WORDS],
            samples_ms: Vec::new(),
            last: None,
            spent_s: 0.0,
        }
    }
}

impl HostClock {
    /// Time one pass of the reference loop.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x1234_5678u32;
        for _ in 0..ROUNDS {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let i = (x as usize >> 7) & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x ^ (x >> 13));
        }
        std::hint::black_box(&self.table);
        let d = t.elapsed();
        self.samples_ms.push(d.as_secs_f64() * 1e3);
        self.spent_s += d.as_secs_f64();
        self.last = Some(Instant::now());
    }

    /// Sample if the last sample is older than the sampling period.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() * 1e3 >= SAMPLE_EVERY_MS)
        {
            self.sample();
        }
    }

    /// Multiply a measured host time by this to express it on the
    /// reference host (divide a rate by it).
    pub fn scale(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        REFERENCE_MS / stats::median(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_median_sample() {
        let mut c = HostClock::default();
        assert_eq!(c.scale(), 1.0);
        c.sample();
        c.tick(); // too soon for a second sample
        assert_eq!(c.samples_ms.len(), 1);
        assert!(c.scale() > 0.0 && c.spent_s > 0.0);
    }
}
