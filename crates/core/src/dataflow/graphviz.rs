//! Graph rendering (Contributions #1 and the Fig. 2 / Fig. 4 displays).
//!
//! "In the current implementation, the graph is plotted with Graphviz DOT
//! format" (§VI-A). We emit the same visual conventions as the paper's
//! figures: modules as clusters, controllers as rectangles, filters as
//! rounded boxes, plain arrows for data links, dotted for control links,
//! dashed for DMA-assisted links — and the live token count on every
//! non-empty link (Fig. 4 shows `pipe -> ipf` holding 20 tokens).

use std::collections::HashSet;
use std::fmt::Write as _;

use pedf::{ActorKind, LinkClass};

use super::model::DfModel;

/// Static-analysis paint for the DOT rendering: **red** marks members of a
/// structurally deadlocked cycle, **yellow** marks endpoints of
/// rate-inconsistent links. Red wins where both apply. `race_pairs` draws
/// an extra dashed red edge between each pair of actors the bytecode
/// verifier found racing on shared memory.
#[derive(Debug, Clone, Default)]
pub struct DotAnnotations {
    pub red_actors: HashSet<u32>,
    pub red_links: HashSet<u32>,
    pub yellow_actors: HashSet<u32>,
    pub yellow_links: HashSet<u32>,
    pub race_pairs: Vec<(u32, u32)>,
    /// Throughput-critical cycle from the sched analysis: drawn **bold**
    /// (heavier outline/edges), composing with the color paint above.
    pub bold_actors: HashSet<u32>,
    pub bold_links: HashSet<u32>,
}

/// Derive the DOT paint from a static-analysis report.
pub fn annotations_from(report: &dfa::Report) -> DotAnnotations {
    DotAnnotations {
        red_actors: report.deadlock_actors.iter().copied().collect(),
        red_links: report.deadlock_links.iter().copied().collect(),
        yellow_actors: report.rate_actors.iter().copied().collect(),
        yellow_links: report.rate_links.iter().copied().collect(),
        race_pairs: Vec::new(),
        bold_actors: HashSet::new(),
        bold_links: HashSet::new(),
    }
}

impl DotAnnotations {
    fn actor_fill(&self, id: u32) -> Option<&'static str> {
        if self.red_actors.contains(&id) {
            Some("red")
        } else if self.yellow_actors.contains(&id) {
            Some("yellow")
        } else {
            None
        }
    }

    fn link_color(&self, id: u32) -> Option<&'static str> {
        if self.red_links.contains(&id) {
            Some("red")
        } else if self.yellow_links.contains(&id) {
            Some("goldenrod")
        } else {
            None
        }
    }
}

/// Render the reconstructed graph as Graphviz DOT with live occupancy.
pub fn to_dot(model: &DfModel) -> String {
    to_dot_annotated(model, None)
}

/// [`to_dot`] plus static-analysis paint (the `analyze`-aware `graph dot`).
pub fn to_dot_annotated(model: &DfModel, ann: Option<&DotAnnotations>) -> String {
    let g = &model.graph;
    let mut out = String::new();
    out.push_str("digraph dataflow {\n  rankdir=LR;\n  node [fontsize=10];\n");

    // Modules become clusters, nested by hierarchy. Emit recursively.
    fn emit_module(
        model: &DfModel,
        module: pedf::ActorId,
        ann: Option<&DotAnnotations>,
        out: &mut String,
        indent: usize,
    ) {
        let g = &model.graph;
        let pad = "  ".repeat(indent);
        let m = g.actor(module);
        let _ = writeln!(
            out,
            "{pad}subgraph cluster_{} {{\n{pad}  label=\"{}\";",
            module.0, m.name
        );
        for child in g.children(module) {
            match child.kind {
                ActorKind::Module => emit_module(model, child.id, ann, out, indent + 1),
                ActorKind::Controller => {
                    let _ = writeln!(
                        out,
                        "{pad}  a{} [label=\"{}\" shape=box \
                         style=filled fillcolor=palegreen];",
                        child.id.0, child.name
                    );
                }
                ActorKind::Filter => {
                    let state = model.actors[child.id.0 as usize].sched.label();
                    let bold = ann.is_some_and(|a| a.bold_actors.contains(&child.id.0));
                    let paint = match (ann.and_then(|a| a.actor_fill(child.id.0)), bold) {
                        (Some(color), true) => {
                            format!(" style=\"rounded,filled,bold\" fillcolor={color} penwidth=3")
                        }
                        (Some(color), false) => {
                            format!(" style=\"rounded,filled\" fillcolor={color}")
                        }
                        (None, true) => " style=\"rounded,bold\" penwidth=3".to_string(),
                        (None, false) => " style=rounded".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{pad}  a{} [label=\"{}\\n({state})\" shape=box{paint}];",
                        child.id.0, child.name
                    );
                }
            }
        }
        let _ = writeln!(out, "{pad}}}");
    }

    for m in g.modules() {
        if m.parent.is_none() {
            emit_module(model, m.id, ann, &mut out, 1);
        }
    }
    // Boundary ports of root modules as plain nodes.
    for m in g.modules().filter(|m| m.parent.is_none()) {
        for cid in m.conns() {
            let c = g.conn(cid);
            let _ = writeln!(out, "  p{} [label=\"{}\" shape=plaintext];", cid.0, c.name);
        }
    }

    for l in &g.links {
        let (fa, ta) = g.link_ends(l.id);
        let from = if g.actor(fa).kind == ActorKind::Module {
            format!("p{}", l.from.0)
        } else {
            format!("a{}", fa.0)
        };
        let to = if g.actor(ta).kind == ActorKind::Module {
            format!("p{}", l.to.0)
        } else {
            format!("a{}", ta.0)
        };
        let style = match l.class {
            LinkClass::Data => "solid",
            LinkClass::Control => "dotted",
            LinkClass::DmaControl => "dashed",
        };
        let occupancy = model.occupancy(l.id);
        let label = if occupancy > 0 {
            format!(" label=\"{occupancy}\" fontcolor=red")
        } else {
            String::new()
        };
        let bold = ann.is_some_and(|a| a.bold_links.contains(&l.id.0));
        let paint = match (ann.and_then(|a| a.link_color(l.id.0)), bold) {
            (Some(color), true) => format!(" color={color} penwidth=3"),
            (Some(color), false) => format!(" color={color} penwidth=2"),
            (None, true) => " penwidth=3".to_string(),
            (None, false) => String::new(),
        };
        let _ = writeln!(out, "  {from} -> {to} [style={style}{label}{paint}];");
    }
    // Race pairs from the bytecode verifier: an undirected dashed red edge
    // between the two actors whose firings may interleave on shared memory.
    if let Some(ann) = ann {
        for &(a, b) in &ann.race_pairs {
            let _ = writeln!(
                out,
                "  a{a} -> a{b} [dir=none style=dashed color=red \
                 constraint=false label=\"race\" fontcolor=red];"
            );
        }
    }
    out.push_str("}\n");
    out
}

/// One-line-per-link occupancy table (`info links`), the textual version
/// of Fig. 4's edge annotations.
pub fn links_table(model: &DfModel) -> String {
    let g = &model.graph;
    let mut out = String::new();
    for l in &g.links {
        let dl = &model.links[l.id.0 as usize];
        let _ = writeln!(
            out,
            "#{:<3} {:<48} {:>3}/{:<3} tokens (pushed {}, popped {})",
            l.id.0,
            g.link_label(l.id),
            model.occupancy(l.id),
            l.capacity,
            dl.pushed,
            dl.popped,
        );
    }
    // Token-store footprint: how many Token objects are live vs. the
    // total the run produced (the bounded store evicts the rest).
    let t = &model.tokens;
    let _ = writeln!(
        out,
        "token store: {} live / {} allocated ({} evicted, limit {})",
        t.len(),
        t.allocated(),
        t.evicted(),
        t.limit(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::model::{DfEvent, InlineSlice};
    use debuginfo::TypeTable;
    use p2012::PeId;
    use pedf::{ActorId, ConnId, Dir};

    fn tiny_model() -> DfModel {
        let mut m = DfModel::new(TypeTable::new());
        let mut stops = Vec::new();
        for ev in [
            DfEvent::ActorRegistered {
                id: 0,
                name: "front".into(),
                kind: ActorKind::Module,
                parent: None,
                pe: None,
                work: None,
            },
            DfEvent::ActorRegistered {
                id: 1,
                name: "front_controller".into(),
                kind: ActorKind::Controller,
                parent: Some(0),
                pe: Some(PeId(0)),
                work: Some(10),
            },
            DfEvent::ActorRegistered {
                id: 2,
                name: "pipe".into(),
                kind: ActorKind::Filter,
                parent: Some(0),
                pe: Some(PeId(1)),
                work: Some(20),
            },
            DfEvent::ActorRegistered {
                id: 3,
                name: "ipf".into(),
                kind: ActorKind::Filter,
                parent: Some(0),
                pe: Some(PeId(2)),
                work: Some(30),
            },
            DfEvent::ConnRegistered {
                id: 0,
                actor: 2,
                name: "out".into(),
                dir: Dir::Out,
                ty: TypeTable::U32,
            },
            DfEvent::ConnRegistered {
                id: 1,
                actor: 3,
                name: "in".into(),
                dir: Dir::In,
                ty: TypeTable::U32,
            },
            DfEvent::LinkRegistered {
                id: 0,
                from: 0,
                to: 1,
                capacity: 32,
                class: LinkClass::Data,
                fifo_base: 0,
            },
            DfEvent::BootComplete,
        ] {
            m.apply(ev, 0, &mut stops);
        }
        m
    }

    #[test]
    fn dot_shows_clusters_styles_and_occupancy() {
        let mut m = tiny_model();
        let mut stops = Vec::new();
        for _ in 0..20 {
            m.apply(
                DfEvent::TokenPushed {
                    conn: ConnId(0),
                    words: InlineSlice::One(1),
                },
                1,
                &mut stops,
            );
        }
        let dot = to_dot(&m);
        assert!(dot.contains("subgraph cluster_0"), "{dot}");
        assert!(dot.contains("label=\"front\""));
        assert!(dot.contains("shape=box style=rounded"));
        assert!(dot.contains("fillcolor=palegreen"));
        // The Fig. 4 annotation: 20 queued tokens in red.
        assert!(dot.contains("label=\"20\" fontcolor=red"), "{dot}");
        assert!(dot.contains("style=solid"));
    }

    #[test]
    fn annotations_paint_deadlock_red_and_rate_yellow() {
        let m = tiny_model();
        let mut report = dfa::Report::default();
        report.deadlock_actors.insert(2); // pipe
        report.deadlock_links.insert(0);
        report.rate_actors.insert(2); // red wins over yellow
        report.rate_actors.insert(3); // ipf
        let ann = annotations_from(&report);
        let dot = to_dot_annotated(&m, Some(&ann));
        assert!(
            dot.contains("a2 [label=\"pipe\\n(not scheduled)\" shape=box style=\"rounded,filled\" fillcolor=red]"),
            "{dot}"
        );
        assert!(dot.contains("fillcolor=yellow"), "{dot}");
        assert!(dot.contains("color=red penwidth=2"), "{dot}");
        // Unannotated rendering is unchanged.
        assert!(!to_dot(&m).contains("penwidth"));
    }

    #[test]
    fn race_pairs_render_as_dashed_red_edges() {
        let m = tiny_model();
        let ann = DotAnnotations {
            race_pairs: vec![(2, 3)],
            ..Default::default()
        };
        let dot = to_dot_annotated(&m, Some(&ann));
        assert!(
            dot.contains("a2 -> a3 [dir=none style=dashed color=red"),
            "{dot}"
        );
        // No race paint without annotations.
        assert!(!to_dot(&m).contains("label=\"race\""));
    }

    #[test]
    fn links_table_reports_counters() {
        let mut m = tiny_model();
        let mut stops = Vec::new();
        for v in [1, 2, 3] {
            m.apply(
                DfEvent::TokenPushed {
                    conn: ConnId(0),
                    words: InlineSlice::One(v),
                },
                1,
                &mut stops,
            );
        }
        m.apply(
            DfEvent::TokenPopped {
                conn: ConnId(1),
                index: 0,
                words: InlineSlice::One(1),
            },
            2,
            &mut stops,
        );
        let table = links_table(&m);
        assert!(table.contains("pipe::out -> ipf::in"), "{table}");
        assert!(table.contains("2/32"), "{table}");
        assert!(table.contains("pushed 3, popped 1"), "{table}");
        assert!(
            table.contains("token store: 3 live / 3 allocated"),
            "{table}"
        );
        let _ = ActorId(0);
    }
}
