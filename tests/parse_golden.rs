//! Pins what the kernel front end (lexer and parser) returns on a seeded
//! corpus, one line per source in `tests/golden/parse_outputs.txt`: a
//! digest of the parsed `Unit` (its `Debug` rendering, which shows every
//! name, line, operator and tree shape), or the exact `line:col: msg` of
//! the error.
//!
//! The corpus mixes:
//! * token soup from the hardening generators' alphabet, bare and inside
//!   a `work` body;
//! * statement fragments spliced into a `work` body;
//! * operator chains over every binary and unary operator, with and
//!   without parentheses, to pin precedence and associativity;
//! * nesting around `MAX_NEST_DEPTH` (parentheses, unary chains, blocks,
//!   `else if` chains), to pin where the depth error is raised;
//! * every decoder kernel, with its spaces swapped for tabs, CRLF, a
//!   non-breaking space or comments holding `é`, and some with an `é`
//!   or other stray character put into the code, or cut short.
//!
//! Every separator and stray character sits on a line with tokens after
//! it, so the columns show that they count characters, not bytes.

use std::collections::BTreeSet;
use std::hash::Hasher;
use std::path::PathBuf;

use h264_pipeline::{build_decoder, decoder_sources, Bug};
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

/// splitmix64: a self-contained seeded stream, so the corpus does not
/// move with any other crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// The token-soup alphabet of `crates/kernelc/tests/hardening.rs`, plus
/// whitespace and comments with non-ASCII text and a few literals.
const SOUP: &[&str] = &[
    "a",
    "b",
    "x",
    "z",
    "A",
    "Q",
    "U",
    "0",
    "1",
    "7",
    "9",
    "_",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "=",
    "+",
    "*",
    "/",
    "<",
    ">",
    "!",
    "&",
    "|",
    "[",
    "]",
    "-",
    " ",
    "pedf.",
    "io.",
    "U32 ",
    "if",
    "else",
    "for",
    "while",
    "return",
    "void ",
    "\t",
    "\r\n",
    "\n",
    "\u{a0}",
    "é",
    "// é\n",
    "/* é */",
    "/*",
    "0x1F",
    "0x",
    "99999999999",
    "^",
    "~",
    "%",
    "==",
    "&&",
];

/// Statement fragments of the hardening generators.
const STMTS: &[&str] = &[
    "U32 a;",
    "U32 b;",
    "a = b + 1;",
    "b = a * 3;",
    "c = a - 7;",
    "if (a < 3) { b = 0; }",
    "return;",
    "{",
    "}",
    ";;",
    "= =",
    "++",
    "pedf.io.",
    "for (",
    "while",
    "else { }",
    "pedf.io.o[0] = a;",
    "a = pedf.io.i[1];",
];

/// Separators that keep a line a line: plain space, tab and a
/// non-breaking space.
const WS_SEPS: &[&str] = &[" ", " ", "\t", "\u{a0}"];

/// Separators between fragments: whitespace and comments holding `é`.
const SEPS: &[&str] = &[
    " ",
    " ",
    " ",
    "\t",
    "\r\n",
    "\u{a0}",
    " /* é */ ",
    " // é\n",
    " /* é\r\n é */ ",
];

const BINOPS: &[&str] = &[
    "||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=", "<<", ">>", "+", "-", "*", "/",
    "%",
];

fn operand(r: &mut Rng, depth: u32) -> String {
    match r.below(8) {
        0 if depth < 3 => format!("({})", chain(r, depth + 1)),
        1 => format!("{}{}", r.pick(&["-", "!", "~"]), operand(r, depth + 1)),
        2 => format!("0x{:x}", r.next() as u16),
        3 => (r.next() % 100).to_string(),
        4 => "pedf.io.i[0]".into(),
        5 => "f(a, b)".into(),
        _ => r.pick(&["a", "b", "c", "mb.Addr"]).into(),
    }
}

fn chain(r: &mut Rng, depth: u32) -> String {
    let mut s = operand(r, depth);
    for _ in 0..r.below(6) {
        s.push_str(r.pick(&[" ", "", "\t"]));
        s.push_str(r.pick(BINOPS));
        s.push_str(r.pick(&[" ", "", "\u{a0}"]));
        s.push_str(&operand(r, depth));
    }
    s
}

/// The distinct kernel sources of the nine decoder variants, and every
/// struct type name they may declare.
fn decoder_kernels() -> (Vec<String>, BTreeSet<String>) {
    let mut srcs = BTreeSet::new();
    let mut types = BTreeSet::new();
    for bug in VARIANTS {
        let (_sys, app) = build_decoder(bug, 4, PlatformConfig::default()).unwrap();
        let input = dfa::AnalysisInput::from_app(&app, &decoder_sources(bug));
        srcs.extend(input.kernels.into_values().map(|(_, src)| src));
        types.extend(input.struct_types);
    }
    (srcs.into_iter().collect(), types)
}

/// The seeded corpus, each source with the kind of case it is.
fn corpus() -> (Vec<(&'static str, String)>, BTreeSet<String>) {
    let mut r = Rng(0x5eed_0031);
    let mut out: Vec<(&'static str, String)> = Vec::new();
    for i in 0..240 {
        let n = r.below(121);
        let soup: String = (0..n).map(|_| r.pick(SOUP)).collect();
        if i % 2 == 0 {
            out.push(("soup", soup));
        } else {
            out.push(("soup-body", format!("void work() {{ {soup} }}")));
        }
    }
    for _ in 0..160 {
        let mut body = String::new();
        for _ in 0..r.below(12) {
            body.push_str(r.pick(STMTS));
            body.push_str(r.pick(SEPS));
        }
        out.push(("stmts", format!("void work() {{{}{body}}}", r.pick(SEPS))));
    }
    for _ in 0..160 {
        out.push((
            "chain",
            format!(
                "void f() {{\n\tCbCrMB_t mb;\n\tx = {};\n\tU32 y = {};\n}}",
                chain(&mut r, 0),
                chain(&mut r, 0)
            ),
        ));
    }
    for n in 58..70 {
        let (open, close) = ("(".repeat(n), ")".repeat(n));
        out.push((
            "parens",
            format!("void work() {{ U32 x; x = {open}1{close}; }}"),
        ));
        out.push((
            "mixed",
            format!(
                "void work() {{\r\n\tx = {}1{};\r\n}}",
                "-(".repeat(n / 2),
                ")".repeat(n / 2)
            ),
        ));
        out.push((
            "unary",
            format!("void work() {{ x = {}1; }}", "!~-".repeat(n / 3)),
        ));
        out.push((
            "blocks",
            format!("void work() {{ {}{} }}", "{".repeat(n), "}".repeat(n)),
        ));
        let mut elifs = String::from("void work() { U32 x; ");
        for _ in 0..n {
            elifs.push_str("if (x) { } else ");
        }
        elifs.push_str("{ } }");
        out.push(("elif", elifs));
        out.push((
            "while",
            format!(
                "void work() {{ {} x = (1 + (2)); {} }}",
                "while (x) {".repeat(n),
                "}".repeat(n)
            ),
        ));
    }
    let (kernels, types) = decoder_kernels();
    for src in &kernels {
        for variant in 0..4 {
            // A line break or comment put between a kernel's own words
            // may cut its comments open; only the last variant takes them.
            let seps = if variant == 3 { SEPS } else { WS_SEPS };
            let mut s: String = src
                .split(' ')
                .enumerate()
                .map(|(i, w)| {
                    if i == 0 {
                        w.to_string()
                    } else {
                        format!("{}{w}", r.pick(seps))
                    }
                })
                .collect();
            let kind = match variant {
                0 => "kernel",
                1 => {
                    let spaces: Vec<usize> = s.match_indices(' ').map(|(i, _)| i).collect();
                    if !spaces.is_empty() {
                        let at = spaces[r.below(spaces.len())];
                        s.insert_str(at, r.pick(&["é", "@", "\u{3b1}", "$", "\"", "\u{7f}"]));
                    }
                    "kernel-stray"
                }
                2 => {
                    let cuts: Vec<usize> =
                        (0..s.len()).filter(|&i| s.is_char_boundary(i)).collect();
                    s.truncate(cuts[r.below(cuts.len())]);
                    "kernel-cut"
                }
                _ => {
                    s = s.replace('\n', "\r\n");
                    "kernel-comments"
                }
            };
            out.push((kind, s));
        }
    }
    (out, types)
}

#[test]
fn front_end_returns_the_pinned_units_and_errors() {
    let (cases, types) = corpus();
    let is_type = |s: &str| s == "CbCrMB_t" || types.contains(s);
    let mut got = String::new();
    for (i, (kind, src)) in cases.iter().enumerate() {
        let mut h = Fnv64::new();
        h.write(src.as_bytes());
        let src_digest = h.finish();
        let outcome = match kernelc::parser::parse(src, &is_type) {
            Ok(unit) => {
                let mut h = Fnv64::new();
                h.write(format!("{unit:?}").as_bytes());
                format!("ok {:#018x}", h.finish())
            }
            Err(e) => format!("err {}:{}: {}", e.line, e.col, e.msg),
        };
        got += &format!("{i:04} {kind} src={src_digest:#018x} {outcome}\n");
    }
    let want = include_str!("golden/parse_outputs.txt");
    if got != want {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("parse_outputs.txt");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "the front end's outputs changed; the new file is {}",
            path.display()
        );
    }
}
