//! GDB-style command-line front end.
//!
//! Parses and executes the command language used throughout the paper's
//! session transcripts (§VI), e.g.:
//!
//! ```text
//! (gdb) filter pipe catch work
//! (gdb) filter ipred catch Pipe_in=1, Hwcfg_in=1
//! (gdb) filter ipred catch *in=1
//! (gdb) iface hwcfg::pipe_MbType_out record
//! (gdb) iface hwcfg::pipe_MbType_out print
//! (gdb) filter red configure splitter
//! (gdb) filter pipe info last_token
//! (gdb) filter print last_token
//! (gdb) step_both
//! (gdb) print $1
//! ```
//!
//! plus the classic low-level commands (`break`, `watch`, `step`, `next`,
//! `finish`, `continue`, `list`, `backtrace`, `info ...`) and the
//! execution-altering `token` commands of §III. [`Cli::complete`] provides
//! the auto-completion the paper highlights in §IV-A.

use debuginfo::Word;

use crate::dataflow::model::FlowBehavior;
use crate::session::{Session, Stop};

/// One entry of the command language. The dispatcher validates the first
/// word of every line against this table and `help` is rendered from it,
/// so a command cannot exist without a help entry (and vice versa — the
/// CLI coverage test drives every row through the dispatcher).
pub struct CommandSpec {
    pub name: &'static str,
    pub aliases: &'static [&'static str],
    pub usage: &'static str,
    pub help: &'static str,
    pub group: &'static str,
}

const EXEC: &str = "Execution";
const TT: &str = "Time travel";
const BP: &str = "Breakpoints and catchpoints";
const INSPECT: &str = "Inspection";
const DF: &str = "Dataflow";
const SHELL: &str = "Session";

/// The single source of truth for the command language.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec { name: "run", aliases: &["r"], usage: "run [cycles]", help: "resume for at most [cycles]", group: EXEC },
    CommandSpec { name: "continue", aliases: &["c"], usage: "continue", help: "resume until the next stop", group: EXEC },
    CommandSpec { name: "step", aliases: &["s"], usage: "step", help: "next source line, entering calls", group: EXEC },
    CommandSpec { name: "next", aliases: &["n"], usage: "next", help: "next source line, over calls", group: EXEC },
    CommandSpec { name: "finish", aliases: &[], usage: "finish", help: "run until the current function returns", group: EXEC },
    CommandSpec { name: "stepi", aliases: &["si"], usage: "stepi", help: "one machine instruction", group: EXEC },
    CommandSpec { name: "step_both", aliases: &[], usage: "step_both", help: "breakpoint both ends of the next send", group: EXEC },
    CommandSpec { name: "checkpoint", aliases: &[], usage: "checkpoint", help: "record a restore point (enables time travel)", group: TT },
    CommandSpec { name: "restart", aliases: &[], usage: "restart <id>", help: "rewind the whole platform to a checkpoint", group: TT },
    CommandSpec { name: "goto", aliases: &[], usage: "goto <cycle>", help: "land on an exact recorded cycle", group: TT },
    CommandSpec { name: "reverse-continue", aliases: &["rc"], usage: "reverse-continue", help: "back to the most recent stop before now", group: TT },
    CommandSpec { name: "reverse-step", aliases: &["rs"], usage: "reverse-step", help: "back to the previous source line", group: TT },
    CommandSpec { name: "reverse-next", aliases: &["rn"], usage: "reverse-next", help: "like reverse-step, staying in the frame", group: TT },
    CommandSpec { name: "reverse-stepi", aliases: &["rsi"], usage: "reverse-stepi", help: "undo one machine instruction", group: TT },
    CommandSpec { name: "replay", aliases: &[], usage: "replay findings", help: "REPLAY501 divergence findings from replays", group: TT },
    CommandSpec { name: "explore", aliases: &["mv"], usage: "explore [--budget N] [--horizon N] [--until deadlock|race|finding <RULE>] | explore replay <witness>", help: "search scheduler interleavings for a witness / replay one", group: TT },
    CommandSpec { name: "break", aliases: &["b"], usage: "break <symbol|file:line>", help: "set a code breakpoint", group: BP },
    CommandSpec { name: "watch", aliases: &[], usage: "watch <object>", help: "stop when a data object is written", group: BP },
    CommandSpec { name: "delete", aliases: &[], usage: "delete <id>", help: "remove a break/catch/watchpoint", group: BP },
    CommandSpec { name: "enable", aliases: &[], usage: "enable <id>", help: "re-enable a break/catchpoint", group: BP },
    CommandSpec { name: "disable", aliases: &[], usage: "disable <id>", help: "disable without removing", group: BP },
    CommandSpec { name: "catch", aliases: &[], usage: "catch recv|send <a::c> | value <a::c> <v> | count <a::c> <n> | sched <f> | step [begin|end] [module]", help: "dataflow catchpoints", group: BP },
    CommandSpec { name: "focus", aliases: &[], usage: "focus <actor>", help: "focus the PE running an actor", group: INSPECT },
    CommandSpec { name: "where", aliases: &["frame"], usage: "where", help: "where the focused PE is", group: INSPECT },
    CommandSpec { name: "backtrace", aliases: &["bt"], usage: "backtrace", help: "call stack of the focused PE", group: INSPECT },
    CommandSpec { name: "list", aliases: &["l"], usage: "list [file:line]", help: "show source around the focus", group: INSPECT },
    CommandSpec { name: "print", aliases: &["p"], usage: "print <object|$N>", help: "read an object / value history", group: INSPECT },
    CommandSpec { name: "info", aliases: &[], usage: "info filters|links|platform|breakpoints|checkpoints|console", help: "state tables", group: INSPECT },
    CommandSpec { name: "graph", aliases: &[], usage: "graph [dot]", help: "link occupancy / Graphviz DOT", group: INSPECT },
    CommandSpec { name: "analyze", aliases: &[], usage: "analyze [rules|--json|--deny warnings]", help: "static analysis (paints `graph dot`)", group: INSPECT },
    CommandSpec { name: "filter", aliases: &[], usage: "filter <f> catch work | catch In=1,... | catch *in=1 | configure splitter|pipeline|merger | info last_token; filter print last_token", help: "per-filter commands", group: DF },
    CommandSpec { name: "iface", aliases: &[], usage: "iface <a::c> record|norecord|print|stop", help: "interface recording and stops", group: DF },
    CommandSpec { name: "token", aliases: &[], usage: "token inject|set|drop <a::c> ... | token origin <id>", help: "alter the execution / trace a token's origin", group: DF },
    CommandSpec { name: "help", aliases: &["h"], usage: "help", help: "this text", group: SHELL },
    CommandSpec { name: "quit", aliases: &["q", "exit"], usage: "quit", help: "leave the debugger", group: SHELL },
];

/// Render `help` from the command table, grouped.
pub fn render_help() -> String {
    let mut out = String::new();
    for group in [EXEC, TT, BP, INSPECT, DF, SHELL] {
        out.push_str(group);
        out.push_str(":\n");
        for c in COMMANDS.iter().filter(|c| c.group == group) {
            let alias = if c.aliases.is_empty() {
                String::new()
            } else {
                format!(" ({})", c.aliases.join(", "))
            };
            out.push_str(&format!("  {:<44} {}{alias}\n", c.usage, c.help));
        }
    }
    out
}

fn known_command(word: &str) -> bool {
    COMMANDS
        .iter()
        .any(|c| c.name == word || c.aliases.contains(&word))
}

/// The CLI wrapper: executes command strings against a session.
pub struct Cli {
    pub session: Session,
    /// Echo of the last stop, if a command resumed execution.
    pub last_stop: Option<Stop>,
    /// Cycle budget per resuming command.
    pub budget: u64,
}

impl Cli {
    pub fn new(session: Session) -> Self {
        Cli {
            session,
            last_stop: None,
            budget: 10_000_000,
        }
    }

    fn stop_to_text(&mut self, stop: Stop) -> String {
        let text = self.session.describe(&stop);
        self.last_stop = Some(stop);
        text
    }

    /// Execute one command line; returns the printed output.
    pub fn exec(&mut self, line: &str) -> String {
        match self.try_exec(line) {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        }
    }

    fn try_exec(&mut self, line: &str) -> Result<String, String> {
        let words: Vec<&str> = line.split([' ', '\t']).filter(|w| !w.is_empty()).collect();
        let Some((&cmd, rest)) = words.split_first() else {
            return Ok(String::new());
        };
        if !known_command(cmd) {
            return Err(format!("unknown command `{cmd}` (try `help`)"));
        }
        match cmd {
            "run" | "r" => {
                let cycles = rest
                    .first()
                    .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
                    .transpose()?
                    .unwrap_or(self.budget);
                let stop = self.session.run(cycles);
                Ok(self.stop_to_text(stop))
            }
            "continue" | "c" => {
                let stop = self.session.run(self.budget);
                Ok(self.stop_to_text(stop))
            }
            "step" | "s" => {
                let stop = self.session.step()?;
                Ok(self.stop_to_text(stop))
            }
            "next" | "n" => {
                let stop = self.session.next()?;
                Ok(self.stop_to_text(stop))
            }
            "finish" => {
                let stop = self.session.finish()?;
                Ok(self.stop_to_text(stop))
            }
            "stepi" | "si" => {
                let stop = self.session.stepi()?;
                Ok(self.stop_to_text(stop))
            }
            "step_both" => {
                let msgs = self.session.step_both()?;
                Ok(msgs.join("\n"))
            }
            "checkpoint" => {
                let id = self.session.checkpoint_now()?;
                Ok(format!("Checkpoint {id} at cycle {}", self.session.clock()))
            }
            "restart" => {
                let id: u32 = rest
                    .first()
                    .ok_or("restart needs a checkpoint id")?
                    .parse()
                    .map_err(|_| "bad checkpoint id")?;
                let clock = self.session.restart(id)?;
                Ok(format!("Restored checkpoint {id} (cycle {clock})"))
            }
            "goto" => {
                let cycle: u64 = rest
                    .first()
                    .ok_or("goto needs a cycle")?
                    .parse()
                    .map_err(|_| "bad cycle")?;
                self.session.goto_cycle(cycle)?;
                Ok(format!("At cycle {}", self.session.clock()))
            }
            "reverse-continue" | "rc" => {
                let stop = self.session.reverse_continue()?;
                Ok(self.stop_to_text(stop))
            }
            "reverse-step" | "rs" => {
                let stop = self.session.reverse_step()?;
                Ok(self.stop_to_text(stop))
            }
            "reverse-next" | "rn" => {
                let stop = self.session.reverse_next()?;
                Ok(self.stop_to_text(stop))
            }
            "reverse-stepi" | "rsi" => {
                let stop = self.session.reverse_stepi()?;
                Ok(self.stop_to_text(stop))
            }
            "replay" => {
                if rest.first() != Some(&"findings") {
                    return Err("usage: replay findings".into());
                }
                let fs = self.session.replay_findings();
                if fs.is_empty() {
                    Ok("no replay divergence detected".into())
                } else {
                    Ok(debuginfo::render_findings(fs))
                }
            }
            "help" | "h" => Ok(render_help()),
            "quit" | "q" | "exit" => Ok(String::new()),
            "break" | "b" => {
                let spec = rest.first().ok_or("break needs a location")?;
                let id = match spec.rsplit_once(':') {
                    Some((file, line)) => {
                        let line: u32 = line.parse().map_err(|_| "bad line number")?;
                        self.session.break_line(file, line)?
                    }
                    None => self.session.break_symbol(spec)?,
                };
                Ok(format!("Breakpoint {id} set"))
            }
            "delete" => {
                let id: u32 = rest
                    .first()
                    .ok_or("delete needs an id")?
                    .parse()
                    .map_err(|_| "bad id")?;
                if self.session.remove_breakpoint(id)
                    || self.session.delete_catch(id)
                    || self.session.remove_watchpoint(id)
                {
                    Ok(format!("Deleted {id}"))
                } else {
                    Err(format!("no breakpoint/catchpoint {id}"))
                }
            }
            "enable" | "disable" => {
                let on = cmd == "enable";
                let id: u32 = rest
                    .first()
                    .ok_or("enable/disable needs an id")?
                    .parse()
                    .map_err(|_| "bad id")?;
                if self.session.set_breakpoint_enabled(id, on)
                    || self.session.set_catch_enabled(id, on)
                {
                    Ok(format!("{} {id}", if on { "Enabled" } else { "Disabled" }))
                } else {
                    Err(format!("no breakpoint/catchpoint {id}"))
                }
            }
            "watch" => {
                let sym = rest.first().ok_or("watch needs an object")?;
                let id = self.session.watch_object(sym)?;
                Ok(format!("Watchpoint {id}: {sym}"))
            }
            "focus" => {
                let name = rest.first().ok_or("focus needs an actor")?;
                let pe = self.session.focus_actor(name)?;
                Ok(format!("Focused {pe} ({name})"))
            }
            "backtrace" | "bt" => {
                let pe = self.session.focus().ok_or("no focused PE")?;
                Ok(self.session.backtrace(pe))
            }
            "where" | "frame" => {
                let pe = self.session.focus().ok_or("no focused PE")?;
                Ok(self.session.where_is(pe))
            }
            "list" | "l" => {
                let at = match rest.first() {
                    Some(spec) => {
                        let (f, l) = spec.rsplit_once(':').ok_or("list needs file:line")?;
                        Some((f, l.parse::<u32>().map_err(|_| "bad line")?))
                    }
                    None => None,
                };
                self.session.list_source(at, 3)
            }
            "print" | "p" => {
                let what = rest.first().ok_or("print needs an argument")?;
                if let Some(n) = what.strip_prefix('$') {
                    let n: usize = n.parse().map_err(|_| "bad history index")?;
                    self.session.print_history(n)
                } else {
                    self.session.print_object(what)
                }
            }
            "graph" => {
                if rest.first() == Some(&"dot") {
                    Ok(self.session.graph_dot())
                } else {
                    Ok(self.session.info_links())
                }
            }
            "analyze" => match rest {
                [] => self.session.analyze(false),
                ["rules"] => Ok(debuginfo::registry::render_listing()),
                ["--json"] => self.session.analyze_json(),
                ["--deny", "warnings"] => self.session.analyze(true),
                _ => Err("usage: analyze [rules | --json | --deny warnings]".into()),
            },
            "info" => match rest.first().copied() {
                Some("filters") => Ok(self.session.info_filters()),
                Some("links") => Ok(self.session.info_links()),
                Some("platform") => Ok(self.session.info_platform()),
                Some("breakpoints") => {
                    let mut out = String::new();
                    for b in self.session.breakpoints() {
                        out.push_str(&format!(
                            "{}  0x{:04x}  {}  hits={}\n",
                            b.id, b.addr, b.label, b.hits
                        ));
                    }
                    for c in self.session.model.catchpoints() {
                        out.push_str(&format!("catch {}  {:?}\n", c.id, c.cond));
                    }
                    Ok(out)
                }
                Some("console") => Ok(self.session.console().join("\n")),
                Some("checkpoints") => self.session.checkpoints_info(),
                other => Err(format!(
                    "info what? (filters/links/platform/breakpoints/checkpoints), got {other:?}"
                )),
            },
            "explore" | "mv" => self.explore_cmd(rest),
            "filter" => self.filter_cmd(rest),
            "iface" => self.iface_cmd(rest),
            "catch" => self.catch_cmd(rest),
            "token" => self.token_cmd(rest),
            other => Err(format!("unknown command `{other}`")),
        }
    }

    /// `explore [--budget N] [--horizon N] [--until ...]` and
    /// `explore replay <witness>`.
    fn explore_cmd(&mut self, rest: &[&str]) -> Result<String, String> {
        if rest.first() == Some(&"replay") {
            let w = rest.get(1).ok_or("usage: explore replay <witness>")?;
            return self.session.explore_replay(w);
        }
        let mut budget = None;
        let mut horizon = None;
        let mut until = multiverse::Until::Any;
        let mut it = rest.iter();
        while let Some(&w) = it.next() {
            match w {
                "--budget" => {
                    budget = Some(
                        it.next()
                            .ok_or("--budget needs a universe count")?
                            .parse::<usize>()
                            .map_err(|_| "bad budget")?,
                    )
                }
                "--horizon" => {
                    horizon = Some(
                        it.next()
                            .ok_or("--horizon needs a cycle count")?
                            .parse::<u64>()
                            .map_err(|_| "bad horizon")?,
                    )
                }
                "--until" => {
                    until = match *it.next().ok_or("--until deadlock|race|finding <RULE>")? {
                        "deadlock" => multiverse::Until::Deadlock,
                        "race" => multiverse::Until::Race,
                        "any" => multiverse::Until::Any,
                        // A rule id maps onto the failure class it describes.
                        "finding" => {
                            let rule = it.next().ok_or("--until finding <RULE>")?;
                            if rule.to_ascii_uppercase().contains("RACE") {
                                multiverse::Until::Race
                            } else {
                                multiverse::Until::Deadlock
                            }
                        }
                        other => {
                            return Err(format!(
                                "--until deadlock|race|any|finding <RULE>, got `{other}`"
                            ))
                        }
                    }
                }
                other => return Err(format!("unknown explore option `{other}`")),
            }
        }
        self.session.explore(budget, horizon, until)
    }

    /// `filter <name> catch ... | configure ... | info last_token` and
    /// `filter print last_token`.
    fn filter_cmd(&mut self, rest: &[&str]) -> Result<String, String> {
        let first = *rest.first().ok_or("filter needs arguments")?;
        if first == "print" {
            // `filter print last_token` — applies to the focused actor.
            if rest.get(1) != Some(&"last_token") {
                return Err("usage: filter print last_token".into());
            }
            let pe = self.session.focus().ok_or("no focused PE")?;
            let name = self
                .session
                .model
                .graph
                .actors
                .iter()
                .find(|a| a.pe == Some(pe))
                .map(|a| a.name.clone())
                .ok_or("focused PE runs no actor")?;
            return self.session.filter_print_last_token(&name);
        }
        let name = first;
        match rest.get(1).copied() {
            Some("catch") => {
                let spec = rest[2..].join(" ");
                let spec = spec.trim();
                if spec == "work" {
                    let id = self.session.catch_work(name)?;
                    return Ok(format!("Catchpoint {id}: WORK of filter {name}"));
                }
                if let Some(n) = spec.strip_prefix("*in=") {
                    let n: u32 = n.parse().map_err(|_| "bad count")?;
                    let id = self.session.catch_receive_all(name, n)?;
                    return Ok(format!(
                        "Catchpoint {id}: {name} receives {n} token(s) \
                         on every input"
                    ));
                }
                // IFACE=N[, IFACE=N ...]
                let mut conds = Vec::new();
                for part in spec.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let (iface, n) = part
                        .split_once('=')
                        .ok_or("catch conditions look like Iface=N")?;
                    conds.push((
                        iface.trim(),
                        n.trim().parse::<u32>().map_err(|_| "bad count")?,
                    ));
                }
                if conds.is_empty() {
                    return Err("empty catch condition".into());
                }
                let id = self.session.catch_receive(name, &conds)?;
                Ok(format!("Catchpoint {id}: token counts on {name}"))
            }
            Some("configure") => {
                let b = rest
                    .get(2)
                    .and_then(|s| FlowBehavior::parse(s))
                    .ok_or("configure needs splitter/pipeline/merger")?;
                self.session.configure_filter(name, b)?;
                Ok(format!("Filter {name} configured as {b:?}"))
            }
            Some("info") => {
                if rest.get(2) == Some(&"last_token") {
                    self.session.info_last_token(name)
                } else {
                    Err("usage: filter <name> info last_token".into())
                }
            }
            other => Err(format!(
                "filter subcommand? (catch/configure/info), got {other:?}"
            )),
        }
    }

    /// `iface <actor::conn> record | print | stop`.
    fn iface_cmd(&mut self, rest: &[&str]) -> Result<String, String> {
        let spec = *rest.first().ok_or("iface needs actor::interface")?;
        match rest.get(1).copied() {
            Some("record") => {
                self.session.iface_record(spec, true)?;
                Ok(format!("Recording tokens on {spec}"))
            }
            Some("norecord") => {
                self.session.iface_record(spec, false)?;
                Ok(format!("Stopped recording on {spec}"))
            }
            Some("print") => self.session.iface_print(spec),
            Some("stop") => {
                let id = self.session.catch_iface_receive(spec)?;
                Ok(format!("Catchpoint {id}: token received on {spec}"))
            }
            other => Err(format!(
                "iface subcommand? (record/print/stop), got {other:?}"
            )),
        }
    }

    /// `catch recv|send|value|count|sched|step ...`.
    fn catch_cmd(&mut self, rest: &[&str]) -> Result<String, String> {
        match rest.first().copied() {
            Some("recv") => {
                let spec = rest.get(1).ok_or("catch recv <actor::iface>")?;
                let id = self.session.catch_iface_receive(spec)?;
                Ok(format!("Catchpoint {id}"))
            }
            Some("send") => {
                let spec = rest.get(1).ok_or("catch send <actor::iface>")?;
                let id = self.session.catch_iface_send(spec)?;
                Ok(format!("Catchpoint {id}"))
            }
            Some("value") => {
                let spec = rest.get(1).ok_or("catch value <actor::iface> <n>")?;
                let v: Word = parse_word(rest.get(2).ok_or("catch value needs a value")?)?;
                let id = self.session.catch_value(spec, v)?;
                Ok(format!("Catchpoint {id}"))
            }
            Some("count") => {
                let spec = rest.get(1).ok_or("catch count <actor::iface> <n>")?;
                let n: u64 = rest
                    .get(2)
                    .ok_or("catch count needs a count")?
                    .parse()
                    .map_err(|_| "bad count")?;
                let id = self.session.catch_count(spec, n)?;
                Ok(format!("Catchpoint {id}"))
            }
            Some("sched") => {
                let name = rest.get(1).ok_or("catch sched <filter>")?;
                let id = self.session.catch_scheduled(name)?;
                Ok(format!("Catchpoint {id}"))
            }
            Some("step") => {
                let begin = match rest.get(1).copied() {
                    Some("begin") | None => true,
                    Some("end") => false,
                    Some(other) => return Err(format!("catch step begin|end, got `{other}`")),
                };
                let module = rest.get(2).copied();
                let id = self.session.catch_step(module, begin)?;
                Ok(format!("Catchpoint {id}"))
            }
            other => Err(format!(
                "catch what? (recv/send/value/count/sched/step), got {other:?}"
            )),
        }
    }

    /// `token inject|set|drop <actor::iface> ...`.
    fn token_cmd(&mut self, rest: &[&str]) -> Result<String, String> {
        match rest.first().copied() {
            Some("inject") => {
                let spec = rest.get(1).ok_or("token inject <actor::iface> <v>")?;
                let words: Vec<Word> = rest[2..]
                    .iter()
                    .map(|s| parse_word(s))
                    .collect::<Result<_, _>>()?;
                if words.is_empty() {
                    return Err("token inject needs a value".into());
                }
                let idx = self.session.token_inject(spec, &words)?;
                Ok(format!("Injected token #{idx} on {spec}"))
            }
            Some("set") => {
                let spec = rest.get(1).ok_or("token set <actor::iface> <idx> <v>")?;
                let idx: u32 = rest
                    .get(2)
                    .ok_or("token set needs an index")?
                    .parse()
                    .map_err(|_| "bad index")?;
                let words: Vec<Word> = rest[3..]
                    .iter()
                    .map(|s| parse_word(s))
                    .collect::<Result<_, _>>()?;
                self.session.token_set(spec, idx, &words)?;
                Ok(format!("Token {idx} on {spec} rewritten"))
            }
            Some("drop") => {
                let spec = rest.get(1).ok_or("token drop <actor::iface> <idx>")?;
                let idx: u32 = rest
                    .get(2)
                    .ok_or("token drop needs an index")?
                    .parse()
                    .map_err(|_| "bad index")?;
                self.session.token_drop(spec, idx)?;
                Ok(format!("Token {idx} on {spec} dropped"))
            }
            Some("origin") => {
                let id: u64 = rest
                    .get(1)
                    .ok_or("token origin <token id>")?
                    .parse()
                    .map_err(|_| "bad token id")?;
                self.session.token_origin(id)
            }
            other => Err(format!(
                "token what? (inject/set/drop/origin), got {other:?}"
            )),
        }
    }

    /// Auto-completion over the last word of a partial command line.
    pub fn complete(&self, partial: &str) -> Vec<String> {
        let last = partial.rsplit(' ').next().unwrap_or("");
        self.session.complete(last)
    }
}

fn parse_word(s: &str) -> Result<Word, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        Word::from_str_radix(hex, 16).map_err(|e| e.to_string())
    } else {
        s.parse().map_err(|_| format!("bad value `{s}`"))
    }
}
