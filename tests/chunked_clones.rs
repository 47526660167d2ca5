//! A seeded model test of `Chunked`, the copy-on-write sequence under the
//! debugger's recorded history. A live sequence takes a random walk of
//! `push_back`, `push_front`, `pop_front`, `pop_back`, `get_mut` and
//! `clear`, checked against a `VecDeque`. Clones are taken and dropped at
//! random points, so they catch the live sequence with its tail partly
//! filled, full, emptied by a `pop_back` and reaching back into a shared
//! chunk; now and then a clone becomes the live sequence, as a restored
//! checkpoint does. Every clone must keep reading exactly what it held
//! when it was taken, whatever its source and the other clones write.

use std::collections::VecDeque;

use dfdbg::dataflow::chunked::{Chunked, CHUNK};
use proptest::TestRng;

/// A sequence and the reference it must equal.
#[derive(Clone)]
struct Pair {
    seq: Chunked<u64>,
    model: VecDeque<u64>,
}

impl Pair {
    fn check(&self, what: &str) {
        assert_eq!(self.seq.len(), self.model.len(), "{what}: length");
        assert!(
            self.seq.iter().eq(self.model.iter()),
            "{what}: contents differ"
        );
        for (i, x) in self.model.iter().enumerate() {
            assert_eq!(self.seq.get(i), Some(x), "{what}: element {i}");
        }
        assert_eq!(self.seq.front(), self.model.front(), "{what}: front");
        assert_eq!(self.seq.back(), self.model.back(), "{what}: back");
    }
}

/// The most clones held at once.
const CLONES: usize = 6;

fn walk(seed: u64, steps: u32) {
    let mut rng = TestRng::seeded(seed);
    let mut live = Pair {
        seq: Chunked::default(),
        model: VecDeque::new(),
    };
    let mut clones: Vec<Pair> = Vec::new();
    // Lengths wander over a few chunks, so every operation meets chunk
    // boundaries, a full or empty tail, and a dead prefix.
    let cap = (5 * CHUNK) as u64;
    for step in 0..steps {
        let value = u64::from(step) << 8 | seed & 0xff;
        let len = live.model.len() as u64;
        match rng.below(100) {
            // Grow, more often while short.
            r if r < 30 || (r < 45 && len < cap / 2) => {
                live.seq.push_back(value);
                live.model.push_back(value);
            }
            45..=49 => {
                live.seq.push_front(value);
                live.model.push_front(value);
            }
            50..=61 => assert_eq!(live.seq.pop_front(), live.model.pop_front()),
            62..=73 => assert_eq!(live.seq.pop_back(), live.model.pop_back()),
            74..=85 => {
                if len > 0 {
                    // Writes near the back land in the tail or the last
                    // full chunk before it.
                    let i = if rng.next_bool() {
                        len - 1 - rng.below(len.min(2 * CHUNK as u64))
                    } else {
                        rng.below(len)
                    } as usize;
                    *live.seq.get_mut(i).expect("in range") = value;
                    live.model[i] = value;
                }
            }
            86 => {
                live.seq.clear();
                live.model.clear();
            }
            87..=93 => {
                if clones.len() == CLONES {
                    clones.swap_remove(rng.below(CLONES as u64) as usize);
                }
                clones.push(live.clone());
            }
            94..=97 => {
                if !clones.is_empty() {
                    clones.swap_remove(rng.below(clones.len() as u64) as usize);
                }
            }
            _ => {
                // Restore: a clone's copy becomes the live sequence, and
                // the clone stays as it was.
                if !clones.is_empty() {
                    live = clones[rng.below(clones.len() as u64) as usize].clone();
                }
            }
        }
        while live.model.len() as u64 > cap {
            assert_eq!(live.seq.pop_front(), live.model.pop_front());
        }
        live.check(&format!("seed {seed}, step {step}: live"));
        for (k, c) in clones.iter().enumerate() {
            c.check(&format!("seed {seed}, step {step}: clone {k}"));
        }
    }
}

#[test]
fn clones_keep_what_they_held() {
    for seed in 1..=8 {
        walk(seed, 6_000);
    }
}
