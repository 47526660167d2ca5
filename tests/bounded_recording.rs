//! Bounded recording and the breakpoint fast path, end to end.
//!
//! §VI-D warns that recording token contents "may require a significant
//! quantity of memory". The model's global token store is therefore a
//! generational arena with a ring-buffer eviction policy: live tokens
//! never exceed the record limit, stale ids stop resolving instead of
//! aliasing reused slots, and `info last_token` provenance chains keep
//! working for everything still in the store.

use debuginfo::TypeTable;
use dfdbg::{CatchCond, DfEvent, DfModel, FlowBehavior, InlineSlice, Session, Stop};
use h264_pipeline::{build_decoder, Bug};
use p2012::{PeId, PlatformConfig};
use pedf::{ActorId, ActorKind, ConnId, Dir, LinkClass};

/// a -> b over one link, driven by raw events.
fn ab_model() -> DfModel {
    let mut m = DfModel::new(TypeTable::new());
    let mut stops = Vec::new();
    for (i, (name, kind, parent)) in [
        ("m", ActorKind::Module, None),
        ("a", ActorKind::Filter, Some(0u32)),
        ("b", ActorKind::Filter, Some(0)),
    ]
    .into_iter()
    .enumerate()
    {
        m.apply(
            DfEvent::ActorRegistered {
                id: i as u32,
                name: name.into(),
                kind,
                parent,
                pe: Some(PeId(i as u16)),
                work: Some(10),
            },
            0,
            &mut stops,
        );
    }
    for (id, actor, name, dir) in [(0u32, 1u32, "out", Dir::Out), (1, 2, "in", Dir::In)] {
        m.apply(
            DfEvent::ConnRegistered {
                id,
                actor,
                name: name.into(),
                dir,
                ty: TypeTable::U32,
            },
            0,
            &mut stops,
        );
    }
    m.apply(
        DfEvent::LinkRegistered {
            id: 0,
            from: 0,
            to: 1,
            capacity: 4096,
            class: LinkClass::Data,
            fifo_base: 0,
        },
        0,
        &mut stops,
    );
    m.apply(DfEvent::BootComplete, 0, &mut stops);
    assert!(stops.is_empty());
    m
}

fn round(m: &mut DfModel, v: u32, cycle: u64) {
    let mut stops = Vec::new();
    m.apply(
        DfEvent::TokenPushed {
            conn: ConnId(0),
            words: InlineSlice::One(v),
        },
        cycle,
        &mut stops,
    );
    m.apply(
        DfEvent::TokenPopped {
            conn: ConnId(1),
            index: 0,
            words: InlineSlice::One(v),
        },
        cycle,
        &mut stops,
    );
    m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, cycle, &mut stops);
}

#[test]
fn token_storm_keeps_live_set_bounded() {
    let mut m = ab_model();
    m.set_record_limit(128);
    for i in 0..50_000u32 {
        round(&mut m, i, u64::from(i));
    }
    assert!(m.tokens.len() <= 128, "live {}", m.tokens.len());
    assert_eq!(m.tokens.allocated(), 50_000);
    assert_eq!(
        m.tokens.evicted(),
        m.tokens.allocated() - m.tokens.len() as u64
    );
}

#[test]
fn last_token_provenance_is_unchanged_by_eviction() {
    // Reference: unbounded store.
    let mut unbounded = ab_model();
    unbounded.actors[2].behavior = FlowBehavior::Pipeline;
    // Bounded to a fraction of the traffic.
    let mut bounded = ab_model();
    bounded.actors[2].behavior = FlowBehavior::Pipeline;
    bounded.set_record_limit(64);
    for i in 0..10_000u32 {
        round(&mut unbounded, i, u64::from(i));
        round(&mut bounded, i, u64::from(i));
    }
    let want: Vec<u32> = unbounded
        .last_token_path(ActorId(2))
        .iter()
        .map(|t| t.value.head_word())
        .collect();
    let got: Vec<u32> = bounded
        .last_token_path(ActorId(2))
        .iter()
        .map(|t| t.value.head_word())
        .collect();
    assert!(!got.is_empty());
    assert_eq!(got, want, "eviction changed the provenance path");
}

#[test]
fn catchpoints_still_fire_under_eviction_pressure() {
    let mut m = ab_model();
    m.set_record_limit(16);
    let catch = m.add_catch(
        CatchCond::TokenValueEq {
            conn: ConnId(1),
            value: 777,
        },
        false,
    );
    let mut fired = 0;
    for i in 0..5_000u32 {
        let mut stops = Vec::new();
        let v = if i == 4_321 { 777 } else { i % 100 };
        m.apply(
            DfEvent::TokenPushed {
                conn: ConnId(0),
                words: InlineSlice::One(v),
            },
            u64::from(i),
            &mut stops,
        );
        m.apply(
            DfEvent::TokenPopped {
                conn: ConnId(1),
                index: 0,
                words: InlineSlice::One(v),
            },
            u64::from(i),
            &mut stops,
        );
        for s in &stops {
            assert!(matches!(
                s,
                dfdbg::DfStop::TokenReceived { catch: c, .. } if *c == catch
            ));
            fired += 1;
        }
        m.apply(DfEvent::WorkBegun { actor: ActorId(2) }, 0, &mut stops);
    }
    assert_eq!(fired, 1);
    assert!(m.tokens.len() <= 16);
}

fn booted_session(n: u64) -> Session {
    let (sys, app) = build_decoder(Bug::None, n, PlatformConfig::default()).unwrap();
    let boot = app.boot_entry;
    let mut s = Session::attach(sys, app.info);
    s.boot(boot).unwrap();
    let g = &s.model.graph;
    let d = g.actor_by_name("decoder").unwrap();
    let bits = g.conn_by_name(d.id, "bits_in").unwrap().id;
    let cfg = g.conn_by_name(d.id, "cfg_in").unwrap().id;
    s.sys
        .runtime
        .add_source(pedf::EnvSource::new(bits, 2, pedf::ValueGen::Lcg { state: 7 }).with_limit(n))
        .unwrap();
    s.sys
        .runtime
        .add_source(
            pedf::EnvSource::new(cfg, 2, pedf::ValueGen::Counter { next: 0, step: 1 })
                .with_limit(n),
        )
        .unwrap();
    s
}

#[test]
fn full_decode_respects_a_small_record_limit() {
    let mut s = booted_session(24);
    s.model.set_record_limit(32);
    loop {
        match s.run(50_000_000) {
            Stop::Quiescent | Stop::Deadlock | Stop::CycleLimit => break,
            _ => {}
        }
    }
    assert!(
        s.model.tokens.len() <= 32 + 64,
        "live {} far above limit",
        s.model.tokens.len()
    );
    assert!(s.model.tokens.allocated() > 64);
    // Displays survive eviction: the links table reports the store.
    let table = s.info_links();
    assert!(table.contains("token store:"), "{table}");
}

#[test]
fn breakpoint_disable_enable_roundtrip() {
    let mut s = booted_session(8);
    let bp = s.break_line("ipred.c", 6).unwrap();
    assert!(s.set_breakpoint_enabled(bp, false));
    let stop = s.run(2_000_000);
    assert!(
        !matches!(stop, Stop::Breakpoint { .. }),
        "disabled breakpoint stopped the run: {stop:?}"
    );
    assert!(s.set_breakpoint_enabled(bp, true));
    let mut s = booted_session(8);
    let bp = s.break_line("ipred.c", 6).unwrap();
    assert!(s.set_breakpoint_enabled(bp, false));
    assert!(s.set_breakpoint_enabled(bp, true));
    let stop = s.run(2_000_000);
    assert!(
        matches!(stop, Stop::Breakpoint { bp: b, .. } if b == bp),
        "{stop:?}"
    );
    assert!(!s.set_breakpoint_enabled(999, false));
}

#[test]
fn catchpoint_disable_enable_roundtrip() {
    let mut s = booted_session(8);
    let d = s.model.graph.actor_by_name("decoder").unwrap().id;
    let bits = s.model.graph.conn_by_name(d, "bits_in").unwrap().id;
    let catch = s
        .model
        .add_catch(CatchCond::TokenReceivedOn { conn: bits }, false);
    assert!(s.set_catch_enabled(catch, false));
    let stop = s.run(2_000_000);
    assert!(
        !matches!(stop, Stop::Dataflow(_)),
        "disabled catchpoint stopped the run: {stop:?}"
    );
    assert!(!s.set_catch_enabled(999, true));
}

/// `iface … print` once the recorded history has wrapped its 4,096-token
/// ring: the oldest tokens are dropped and numbering restarts at `#1` on
/// the oldest kept. The digest pins the whole transcript byte for byte.
#[test]
fn wrapped_interface_history_prints_the_newest_4096() {
    use std::hash::Hasher;
    let mut s = booted_session(4_200);
    let d = s.model.graph.actor_by_name("decoder").unwrap().id;
    let frame = s.model.graph.conn_by_name(d, "frame_out").unwrap().id;
    s.sys
        .runtime
        .add_sink(pedf::EnvSink::new(frame, 1))
        .unwrap();
    s.iface_record("pipe::mc_in", true).unwrap();
    loop {
        match s.run(50_000_000) {
            Stop::Quiescent | Stop::Deadlock | Stop::CycleLimit => break,
            _ => {}
        }
    }
    let conn = s.conn_named("pipe::mc_in").unwrap();
    let total = s.model.conns[conn.0 as usize].total;
    let out = s.iface_print("pipe::mc_in").unwrap();
    let mut h = replay::Fnv64::new();
    h.write(out.as_bytes());
    let lines = out.lines().count();
    let (first, last) = (out.lines().next().unwrap(), out.lines().last().unwrap());
    assert!(total > 4096, "only {total} tokens: the ring never wrapped");
    assert_eq!(
        (lines, first, last, h.finish()),
        (
            4096,
            "#1 (U32) 2774957681",
            "#4096 (U32) 1977864086",
            16968508590166728458
        ),
        "{total} tokens"
    );
}
