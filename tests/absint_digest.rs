//! Pins what the bytecode abstract interpreters compute, beyond the
//! findings they print: for every decoder variant and 64 generated apps
//! (seed `ci`), one digest folds every function's `bcv` access ranges and
//! finding text plus every filter's `sched` cycle interval. Only
//! overlapping accesses become findings, and only the bottleneck's WCET
//! is printed (SCH504), so the findings alone would let most of these
//! values drift unseen. The digests live in
//! `tests/golden/absint_digests.txt`.

use std::collections::BTreeMap;
use std::hash::Hasher;

use appgen::{generate, iter_seed, parse_seed};
use h264_pipeline::{build_decoder, decoder_sources, Bug};
use mind::{CompiledApp, SourceRegistry};
use p2012::PlatformConfig;
use replay::Fnv64;

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

const GENERATED_APPS: u64 = 64;

/// One golden line: the counts behind the digest, then the digest.
fn digest(label: &str, app: &CompiledApp, sources: &SourceRegistry) -> String {
    let prog = &app.program;
    let lines = &app.info.lines;
    let mut h = Fnv64::new();
    let image = bcv::image::Image::new(prog);
    let mut arena = bcv::image::Arena::default();
    let (mut accesses, mut findings) = (0usize, 0usize);
    for f in &prog.funcs {
        let subject = format!("0x{:04x}", f.addr);
        let rep = bcv::image::verify_function(&image, &mut arena, f, &subject, lines);
        h.write_u32(f.addr);
        for a in &rep.accesses {
            for w in [a.pc, a.lo, a.hi, u32::from(a.write)] {
                h.write_u32(w);
            }
        }
        for fi in &rep.findings {
            h.write(fi.to_string().as_bytes());
        }
        accesses += rep.accesses.len();
        findings += rep.findings.len();
    }
    let wcet = sched::analyze(&sched::AnalysisInput::from_app(app, sources)).wcet;
    for (&actor, b) in &wcet {
        h.write_u32(actor);
        h.write_u64(b.bcet);
        h.write_u64(b.wcet.map_or(u64::MAX, |w| w));
    }
    format!(
        "{label} funcs={} accesses={accesses} findings={findings} wcet={} digest={:#018x}",
        prog.funcs.len(),
        wcet.len(),
        h.finish()
    )
}

#[test]
fn bytecode_analyses_compute_the_pinned_values() {
    let mut got = String::new();
    for bug in VARIANTS {
        let (_sys, app) = build_decoder(bug, 4, PlatformConfig::default()).unwrap();
        got += &digest(&format!("{bug:?}"), &app, &decoder_sources(bug));
        got.push('\n');
    }
    let base = parse_seed("ci");
    for i in 0..GENERATED_APPS {
        let spec = generate(iter_seed(base, i));
        let sources = spec.to_sources();
        let line = match mind::build_with_caps(
            &spec.to_adl(),
            &sources,
            PlatformConfig::default(),
            &BTreeMap::new(),
        ) {
            Ok((_sys, app)) => digest(&format!("ci/{i}"), &app, &sources),
            Err(e) => format!("ci/{i} build error: {e}"),
        };
        got += &line;
        got.push('\n');
    }
    let want = include_str!("golden/absint_digests.txt");
    assert_eq!(
        got, want,
        "bytecode analysis digests changed; the new ones are:\n{got}"
    );
}
