//! Pins the cycle stepper: every decoder variant, booted with its
//! environment attached, is stepped to its end, and every cycle's
//! `CycleReport` plus the full state hash every 1,000 cycles are folded
//! into one digest per variant. The digests in
//! `tests/golden/stepper_digests.txt` were recorded before the stepper
//! settled idle, stalled and parked PEs in place, so a faster stepper
//! must reproduce the reference one state for state.

use std::hash::Hasher;

use h264_pipeline::{attach_env, build_decoder, Bug};
use p2012::PlatformConfig;
use replay::{full_state_hash, Fnv64};

const N_MBS: u64 = 16;
const HASH_EVERY: u64 = 1_000;
const MAX_CYCLES: u64 = 1_000_000;

const VARIANTS: [Bug; 9] = [
    Bug::None,
    Bug::RateMismatch,
    Bug::WrongValue,
    Bug::Deadlock,
    Bug::OobStore,
    Bug::SharedScratch,
    Bug::BenignScratch,
    Bug::DmaOverlap,
    Bug::TightFifo,
];

/// One golden line: the variant, the cycles stepped after boot and the
/// digest.
fn digest(bug: Bug) -> String {
    let (mut sys, app) = build_decoder(bug, N_MBS, PlatformConfig::default()).unwrap();
    sys.boot(app.boot_entry).unwrap();
    attach_env(&mut sys, &app, N_MBS, 0xbeef).unwrap();
    let mut h = Fnv64::new();
    h.write_u64(full_state_hash(&sys));
    let (mut cycles, mut stuck) = (0u64, 0u32);
    while cycles < MAX_CYCLES {
        let r = sys.step();
        cycles += 1;
        for n in [r.executed, r.traps, r.completions, r.faults] {
            h.write_u32(n);
        }
        if cycles % HASH_EVERY == 0 {
            h.write_u64(full_state_hash(&sys));
        }
        // A wedged variant ends after a while of standing still, as in
        // oracle D7.
        stuck = if sys.platform.is_deadlocked() {
            stuck + 1
        } else {
            0
        };
        if sys.platform.is_quiescent() || stuck > 1_000 {
            break;
        }
    }
    h.write_u64(full_state_hash(&sys));
    format!("{bug:?} cycles={cycles} digest={:#018x}", h.finish())
}

#[test]
fn every_decoder_variant_steps_like_the_reference() {
    let got: String = VARIANTS.iter().map(|&b| digest(b) + "\n").collect();
    let want = include_str!("golden/stepper_digests.txt");
    assert_eq!(
        got, want,
        "stepper digests changed; the new ones are:\n{got}"
    );
}
