//! Minimal deadlock-free FIFO capacities by abstract simulation.
//!
//! The PEDF runtime is a Kahn process network: every filter is a
//! deterministic process doing blocking reads (window fills) and blocking
//! writes (token pushes), so whether a given capacity assignment deadlocks
//! is independent of scheduling order — one abstract execution decides it.
//! The firing discipline is fixed by the module controllers (each filter
//! fires exactly once per module step, with a `wait_sync` barrier), which
//! this simulation reproduces: filters run concurrently inside a round,
//! and a filter starts round `k+1` only when every simulated sibling of
//! its module finished round `k`.
//!
//! Capacities are found Parks-style: start every analyzed FIFO at 1,
//! simulate, and on deadlock grow one FIFO some writer is space-blocked
//! on; once the network completes, shrink each FIFO back down while
//! completion survives. The result satisfies exactly the property the
//! dynamic gate (`analyze --sched-check`) replays on the real simulator:
//! the network completes at the reported capacities and deadlocks when
//! any single analyzed FIFO loses one slot.

use std::collections::BTreeMap;

use dfa::{IoOp, KernelReport};
use pedf::graph::{ActorKind, AppGraph};

/// Rounds of the periodic schedule the abstract simulation runs. With
/// balanced per-round rates the FIFO state is periodic, so a handful of
/// rounds separates "completes" from "deadlocks"; the differential gate
/// cross-checks this against thousands of real cycles.
pub const SIM_ROUNDS: u32 = 8;

/// Growth safety valve: no single FIFO is grown past this many slots
/// (a balanced graph never gets anywhere close).
const MAX_CAP: u32 = 1024;

/// Why a capacity assignment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every simulated filter finished all rounds.
    Completes,
    /// No filter could make progress. Link ids some writer was
    /// space-blocked on / some reader was token-blocked on.
    Deadlock {
        blocked_pushes: Vec<u32>,
        blocked_pops: Vec<u32>,
    },
}

/// The links the capacity analysis covers, and the simulation model
/// built over them.
pub struct Model {
    /// Per-filter per-round op lists, resolved to link ids. `None` ops
    /// target excluded links and always succeed.
    procs: Vec<Proc>,
    /// Analyzed link ids (sorted).
    pub links: Vec<u32>,
}

struct Proc {
    pub module: u32,
    ops: Vec<Option<(u32, bool)>>, // (link id, is_push)
}

/// Build the simulation model. A data link between two filters is
/// *analyzed* when the IO order of both endpoints is fixed and its exact
/// per-round rates balance (`pushes == pops > 0`); everything else —
/// boundary and control links, kernels without a fixed order,
/// rate-imbalanced links (dfa's DFA003 territory) — is excluded and
/// treated as never blocking.
pub fn build_model(g: &AppGraph, kernels: &BTreeMap<u32, KernelReport>) -> Model {
    let mut analyzed: Vec<u32> = Vec::new();
    for l in g.data_links() {
        let (from_a, to_a) = g.link_ends(l.id);
        let (fa, ta) = (g.actor(from_a), g.actor(to_a));
        if fa.kind != ActorKind::Filter || ta.kind != ActorKind::Filter {
            continue;
        }
        let (Some(fk), Some(tk)) = (kernels.get(&from_a.0), kernels.get(&to_a.0)) else {
            continue;
        };
        if fk.io_order.is_none() || tk.io_order.is_none() {
            continue;
        }
        let pushes = fk
            .ports
            .get(&g.conn(l.from).name)
            .and_then(|p| p.writes.as_exact());
        let pops = tk
            .ports
            .get(&g.conn(l.to).name)
            .and_then(|p| p.reads.as_exact());
        if pushes.is_some_and(|n| n > 0) && pushes == pops {
            analyzed.push(l.id.0);
        }
    }
    analyzed.sort_unstable();

    let mut procs = Vec::new();
    for a in g.filters() {
        let Some(order) = kernels.get(&a.id.0).and_then(|k| k.io_order.as_ref()) else {
            continue;
        };
        let ops = order
            .iter()
            .map(|(op, _)| {
                let conn = g.conn_by_name(a.id, op.conn())?;
                let link = conn.link?;
                if !analyzed.contains(&link.0) {
                    return None;
                }
                Some((link.0, matches!(op, IoOp::Push { .. })))
            })
            .collect();
        procs.push(Proc {
            module: a.parent.map_or(u32::MAX, |p| p.0),
            ops,
        });
    }
    Model {
        procs,
        links: analyzed,
    }
}

/// Run the abstract network at the given capacities for [`SIM_ROUNDS`].
pub fn simulate(model: &Model, caps: &BTreeMap<u32, u32>) -> SimOutcome {
    let mut occ: BTreeMap<u32, u32> = model.links.iter().map(|&l| (l, 0)).collect();
    let mut pos = vec![0usize; model.procs.len()];
    let mut round = vec![0u32; model.procs.len()];
    loop {
        let mut progress = false;
        let mut all_done = true;
        for i in 0..model.procs.len() {
            if round[i] >= SIM_ROUNDS {
                continue;
            }
            all_done = false;
            // Barrier: start a round only when every simulated sibling
            // of the same module reached it.
            let module = model.procs[i].module;
            let gate = |round: &[u32]| {
                model
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.module == module)
                    .all(|(j, _)| round[j] >= round[i])
            };
            if pos[i] == 0 && !gate(&round) {
                continue;
            }
            // Greedy: run this filter until it blocks or ends the round.
            while pos[i] < model.procs[i].ops.len() {
                match model.procs[i].ops[pos[i]] {
                    None => {}
                    Some((link, true)) => {
                        let cap = caps.get(&link).copied().unwrap_or(1);
                        if occ[&link] >= cap {
                            break;
                        }
                        *occ.get_mut(&link).unwrap() += 1;
                    }
                    Some((link, false)) => {
                        if occ[&link] == 0 {
                            break;
                        }
                        *occ.get_mut(&link).unwrap() -= 1;
                    }
                }
                pos[i] += 1;
                progress = true;
            }
            if pos[i] == model.procs[i].ops.len() {
                pos[i] = 0;
                round[i] += 1;
                progress = true;
            }
        }
        if all_done {
            return SimOutcome::Completes;
        }
        if !progress {
            let mut blocked_pushes = Vec::new();
            let mut blocked_pops = Vec::new();
            for (i, p) in model.procs.iter().enumerate() {
                if round[i] >= SIM_ROUNDS || pos[i] >= p.ops.len() {
                    continue;
                }
                if let Some((link, push)) = p.ops[pos[i]] {
                    if push {
                        blocked_pushes.push(link);
                    } else {
                        blocked_pops.push(link);
                    }
                }
            }
            blocked_pushes.sort_unstable();
            blocked_pushes.dedup();
            blocked_pops.sort_unstable();
            blocked_pops.dedup();
            return SimOutcome::Deadlock {
                blocked_pushes,
                blocked_pops,
            };
        }
    }
}

/// Minimal deadlock-free capacity per analyzed link, or `None` when the
/// deadlock is structural (no space-blocked writer to relieve — growing
/// buffers cannot fix a starvation cycle; dfa's DFA004 names it).
pub fn minimal_caps(model: &Model) -> Option<BTreeMap<u32, u32>> {
    let mut caps: BTreeMap<u32, u32> = model.links.iter().map(|&l| (l, 1)).collect();
    loop {
        match simulate(model, &caps) {
            SimOutcome::Completes => break,
            SimOutcome::Deadlock { blocked_pushes, .. } => {
                let &grow = blocked_pushes.first()?;
                let slot = caps.get_mut(&grow).expect("blocked link is analyzed");
                *slot += 1;
                if *slot > MAX_CAP {
                    return None;
                }
            }
        }
    }
    // Shrink each link back down while the network still completes.
    for &l in &model.links {
        while caps[&l] > 1 {
            *caps.get_mut(&l).unwrap() -= 1;
            if simulate(model, &caps) != SimOutcome::Completes {
                *caps.get_mut(&l).unwrap() += 1;
                break;
            }
        }
    }
    Some(caps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedf::graph::{ActorKind, Dir, LinkClass};
    use pedf::AppGraph;

    /// Two filters `p` (id 2) and `c` (id 3) in one module, wired by the
    /// given `(producer conn, consumer conn)` pairs, one link each.
    fn two_filter_graph(links: &[(&str, &str)]) -> AppGraph {
        let mut g = AppGraph::new();
        let root = g
            .register_actor(0, "root", ActorKind::Module, None, None, None)
            .unwrap();
        let m = g
            .register_actor(1, "m", ActorKind::Module, Some(root), None, None)
            .unwrap();
        let p = g
            .register_actor(2, "p", ActorKind::Filter, Some(m), None, None)
            .unwrap();
        let c = g
            .register_actor(3, "c", ActorKind::Filter, Some(m), None, None)
            .unwrap();
        for (i, (prod, cons)) in links.iter().enumerate() {
            let i = i as u32;
            let out = g
                .register_conn(2 * i, p, prod, Dir::Out, debuginfo::TypeId(0))
                .unwrap();
            let inp = g
                .register_conn(2 * i + 1, c, cons, Dir::In, debuginfo::TypeId(0))
                .unwrap();
            g.register_link(i, out, inp, 4, LinkClass::Data, 0).unwrap();
        }
        g
    }

    fn kernels(p_src: &str, c_src: &str) -> BTreeMap<u32, KernelReport> {
        let walk = |s: &str| {
            let unit = kernelc::parser::parse(s, &|_| false).unwrap();
            dfa::analyze_kernel(&unit, "k.c", "t", &[])
        };
        [(2, walk(p_src)), (3, walk(c_src))].into()
    }

    #[test]
    fn pipeline_burst_completes_at_capacity_one() {
        // Window pops free FIFO slots as soon as each read executes, so
        // a straight pipeline burst never needs more than one slot.
        let t = kernels(
            "void work() { pedf.io.out[0] = 1; pedf.io.out[1] = 2; }",
            "void work() { U32 a = pedf.io.in[1]; }",
        );
        let g = two_filter_graph(&[("out", "in")]);
        let model = build_model(&g, &t);
        assert_eq!(model.links, vec![0]);
        let caps = minimal_caps(&model).expect("not structural");
        assert_eq!(caps[&0], 1);
    }

    #[test]
    fn gated_burst_needs_capacity_two() {
        // The consumer pops the gate token first, which the producer only
        // pushes after both burst tokens: at capacity 1 the second burst
        // push and the gate pop wait on each other forever.
        let t = kernels(
            "void work() {
    pedf.io.a_out[0] = 1;
    pedf.io.a_out[1] = 2;
    pedf.io.g_out[0] = 3;
}",
            "void work() {
    U32 g = pedf.io.g_in[0];
    U32 a = pedf.io.a_in[1];
}",
        );
        let g = two_filter_graph(&[("a_out", "a_in"), ("g_out", "g_in")]);
        let model = build_model(&g, &t);
        assert_eq!(model.links, vec![0, 1]);
        let one: BTreeMap<u32, u32> = [(0, 1), (1, 1)].into();
        match simulate(&model, &one) {
            SimOutcome::Deadlock { blocked_pushes, .. } => {
                assert_eq!(blocked_pushes, vec![0], "writer stuck on the burst link")
            }
            SimOutcome::Completes => panic!("capacity 1 must deadlock"),
        }
        let caps = minimal_caps(&model).expect("not structural");
        assert_eq!(caps[&0], 2, "burst link needs two slots");
        assert_eq!(caps[&1], 1, "gate link stays at one");
    }

    #[test]
    fn rate_imbalanced_links_are_excluded() {
        let t = kernels(
            "void work() { pedf.io.out[0] = 1; pedf.io.out[1] = 2; }",
            "void work() { U32 a = pedf.io.in[0]; }",
        );
        let g = two_filter_graph(&[("out", "in")]);
        let model = build_model(&g, &t);
        assert!(model.links.is_empty(), "2 pushes vs 1 pop: not analyzed");
    }

    #[test]
    fn unordered_kernels_are_excluded() {
        let t = kernels(
            "void work() { U32 n = pedf.data.k; if (n > 2) { pedf.io.out[0] = 1; } }",
            "void work() { U32 a = pedf.io.in[0]; }",
        );
        let g = two_filter_graph(&[("out", "in")]);
        let model = build_model(&g, &t);
        assert!(model.links.is_empty());
    }
}
