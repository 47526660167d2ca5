//! Pins what the kernelc AST walk computes, beyond the findings it prints:
//! for every decoder variant and 64 generated apps (seed `ci`), one digest
//! folds every kernel's port uses (rates, first-access order, lines,
//! constant indices, use) and finding text, every filter's ordered
//! per-firing IO (each op with its line) or the fact that the order is not
//! fixed, and `sched`'s minimal capacities and inexact filters. Most of
//! these values reach the printed findings only through a threshold, so
//! the findings alone would let them drift unseen. The digests live in
//! `tests/golden/ast_digests.txt`.
//!
//! The test also checks that a fixed order agrees with the rates: its
//! per-port pops and pushes equal the kernel's exact read and write rates.
//! A second test checks, on the same inputs, that `sched` sized from the
//! kernel reports dfa built reports what `sched` walking the kernels
//! itself reports.

use std::collections::BTreeMap;
use std::hash::Hasher;

use appgen::{generate, iter_seed, parse_seed};
use dfa::kernel::{IoOp, PortUse, Rate};
use h264_pipeline::{build_decoder, decoder_sources, Bug};
use mind::{CompiledApp, SourceRegistry};
use p2012::PlatformConfig;
use pedf::graph::ActorKind;
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

fn fold_rate(h: &mut Fnv64, r: Rate) {
    h.write_u32(r.min);
    h.write_u64(r.max.map_or(u64::MAX, u64::from));
}

fn fold_opt(h: &mut Fnv64, v: Option<u32>) {
    h.write_u64(v.map_or(u64::MAX, u64::from));
}

fn fold_port(h: &mut Fnv64, name: &str, p: &PortUse) {
    h.write(name.as_bytes());
    fold_rate(h, p.reads);
    fold_rate(h, p.writes);
    fold_opt(h, p.first_read);
    fold_opt(h, p.first_write);
    h.write_u32(p.read_line);
    h.write_u32(p.write_line);
    for c in [p.max_const_read, p.max_const_write] {
        fold_opt(h, c.map(|(k, _)| k));
        fold_opt(h, c.map(|(_, line)| line));
    }
    h.write_u8(u8::from(p.used));
}

/// Pops and pushes per port of one fixed order.
fn counts(ops: &[(IoOp, u32)]) -> BTreeMap<&str, (u32, u32)> {
    let mut m: BTreeMap<&str, (u32, u32)> = BTreeMap::new();
    for (op, _) in ops {
        let e = m.entry(op.conn()).or_default();
        match op {
            IoOp::Pop { .. } => e.0 += 1,
            IoOp::Push { .. } => e.1 += 1,
        }
    }
    m
}

/// One golden line: the counts behind the digest, then the digest.
fn digest(label: &str, app: &CompiledApp, sources: &SourceRegistry) -> String {
    let input = dfa::AnalysisInput::from_app(app, sources);
    let g = &input.graph;
    let is_type = |s: &str| input.struct_types.contains(s);
    let mut h = Fnv64::new();
    let (mut kernels, mut filters, mut exact, mut ops) = (0usize, 0usize, 0usize, 0usize);
    for (aid, (file, src)) in &input.kernels {
        let Ok(unit) = kernelc::parser::parse(src, &is_type) else {
            continue;
        };
        let ports: Vec<String> = g
            .actor(*aid)
            .conns()
            .map(|c| g.conn(c).name.clone())
            .collect();
        let rep = dfa::analyze_kernel(&unit, file, &g.qualified_name(*aid), &ports);
        kernels += 1;
        h.write_u32(aid.0);
        for (name, p) in &rep.ports {
            fold_port(&mut h, name, p);
        }
        for f in &rep.findings {
            h.write(f.to_string().as_bytes());
        }
        if g.actor(*aid).kind != ActorKind::Filter {
            continue;
        }
        filters += 1;
        match &rep.io_order {
            Some(order) => {
                exact += 1;
                ops += order.len();
                h.write_u8(1);
                for (op, line) in order {
                    h.write_u8(u8::from(matches!(op, IoOp::Push { .. })));
                    h.write(op.conn().as_bytes());
                    h.write_u32(*line);
                }
                let fixed = counts(order);
                for (name, p) in &rep.ports {
                    let (pops, pushes) = fixed.get(name.as_str()).copied().unwrap_or_default();
                    assert_eq!(
                        (p.reads.as_exact(), p.writes.as_exact()),
                        (Some(pops), Some(pushes)),
                        "{label} {}::{name}: the fixed order disagrees with the rates",
                        g.qualified_name(*aid)
                    );
                }
            }
            None => h.write_u8(0),
        }
    }
    let rep = sched::analyze(&sched::AnalysisInput::from_app(app, sources));
    for (&link, &cap) in &rep.min_caps {
        h.write_u32(link);
        h.write_u32(cap);
    }
    for &actor in &rep.inexact {
        h.write_u32(actor);
    }
    format!(
        "{label} kernels={kernels} filters={filters} exact={exact} ops={ops} caps={} \
         inexact={} digest={:#018x}",
        rep.min_caps.len(),
        rep.inexact.len(),
        h.finish()
    )
}

/// Call `f` on every decoder variant and generated app, with its label;
/// an app that does not build comes as its error.
fn each_input(mut f: impl FnMut(String, Result<(CompiledApp, SourceRegistry), String>)) {
    for bug in VARIANTS {
        let (_sys, app) = build_decoder(bug, 4, PlatformConfig::default()).unwrap();
        f(format!("{bug:?}"), Ok((app, decoder_sources(bug))));
    }
    let base = parse_seed("ci");
    for i in 0..GENERATED_APPS {
        let spec = generate(iter_seed(base, i));
        let sources = spec.to_sources();
        let built = mind::build_with_caps(
            &spec.to_adl(),
            &sources,
            PlatformConfig::default(),
            &BTreeMap::new(),
        );
        f(
            format!("ci/{i}"),
            built
                .map(|(_sys, app)| (app, sources))
                .map_err(|e| e.to_string()),
        );
    }
}

#[test]
fn ast_walk_computes_the_pinned_values() {
    let mut got = String::new();
    each_input(|label, built| {
        got += &match built {
            Ok((app, sources)) => digest(&label, &app, &sources),
            Err(e) => format!("{label} build error: {e}"),
        };
        got.push('\n');
    });
    let want = include_str!("golden/ast_digests.txt");
    assert_eq!(
        got, want,
        "AST walk digests changed; the new ones are:\n{got}"
    );
}

/// In a debug session `sched` sizes buffers from the kernel reports dfa
/// built (`dfa::analyze_with_kernels`), which seed every declared port,
/// cover every kernel and carry dfa's findings. Its report must equal the
/// one from `sched`'s own walk of the filter kernels.
#[test]
fn sched_from_dfa_kernel_reports_equals_its_own_walk() {
    let mut apps = 0;
    each_input(|label, built| {
        let Ok((app, sources)) = built else { return };
        apps += 1;
        let input = sched::AnalysisInput::from_app(&app, &sources);
        let own = sched::analyze(&input);
        let (_, kernels) = dfa::analyze_with_kernels(&dfa::AnalysisInput::from_app(&app, &sources));
        let shared = sched::analyze_with_kernels(&input, kernels);
        assert_eq!(shared.findings, own.findings, "{label}: findings");
        assert_eq!(shared.min_caps, own.min_caps, "{label}: min_caps");
        assert_eq!(shared.structural, own.structural, "{label}: structural");
        assert_eq!(shared.inexact, own.inexact, "{label}: inexact");
        assert_eq!(shared.wcet, own.wcet, "{label}: wcet");
        assert_eq!(shared.period_lb, own.period_lb, "{label}: period_lb");
        assert_eq!(shared.bottleneck, own.bottleneck, "{label}: bottleneck");
        assert_eq!(
            (&shared.bold_actors, &shared.bold_links),
            (&own.bold_actors, &own.bold_links),
            "{label}: bottleneck cycle"
        );
    });
    assert!(apps > VARIANTS.len(), "only {apps} inputs built");
}
