//! Interactive dataflow-debugger REPL.
//!
//! Boots the case-study decoder under the debugger and reads GDB-style
//! commands from stdin:
//!
//! ```text
//! cargo run --bin dfdbg-repl [-- <variant> [n_mbs]]
//! (gdb) filter pipe catch work
//! (gdb) continue
//! (gdb) info links
//! (gdb) help
//! ```
//!
//! With `--connect <addr>` the same REPL drives a remote `dfdbg-serve`
//! instance over the wire protocol instead of an in-process session:
//!
//! ```text
//! cargo run --bin dfdbg-repl -- --connect 127.0.0.1:4711 deadlock 8
//! ```
//!
//! The `(gdb) ` prompt is printed only when stdin is a terminal, so piped
//! transcripts (CI, `diff`-based tests, scripted sessions) stay clean.

use std::io::{BufRead, IsTerminal, Write as _};

use dataflow_debugger::h264::Bug;
use dataflow_debugger::server::{
    build_cli, parse_variant, session::attach_banner, variant_name, variant_names, Client,
    DEFAULT_N_MBS,
};

fn usage() -> String {
    format!(
        "usage: dfdbg-repl [--connect <addr>] [{} [n_mbs]]",
        variant_names()
    )
}

struct Args {
    connect: Option<String>,
    bug: Bug,
    n_mbs: u64,
}

/// Parse the command line. Usage problems (unknown variant, unparsable
/// `n_mbs`) are *rejected* with a nonzero exit — silently debugging the
/// wrong workload is worse than no session at all.
fn parse_args() -> Result<Args, String> {
    let mut connect = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => {
                let addr = args.next().ok_or("--connect needs an address")?;
                connect = Some(addr);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            _ => positional.push(a),
        }
    }
    let bug = match positional.first() {
        None => Bug::None,
        Some(s) => parse_variant(s)
            .ok_or_else(|| format!("unknown variant `{s}` ({})", variant_names()))?,
    };
    let n_mbs = match positional.get(1) {
        None => DEFAULT_N_MBS,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("bad n_mbs `{s}`: expected a positive integer")),
        },
    };
    if let Some(extra) = positional.get(2) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok(Args {
        connect,
        bug,
        n_mbs,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dfdbg: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let result = match &args.connect {
        Some(addr) => run_remote(addr, args.bug, args.n_mbs),
        None => run_local(args.bug, args.n_mbs),
    };
    if let Err(e) = result {
        eprintln!("dfdbg: {e}");
        std::process::exit(1);
    }
}

/// Print the prompt only on a terminal: piped stdin (tests, CI, scripted
/// transcripts) must see command output alone on stdout.
fn prompt(interactive: bool) {
    if interactive {
        print!("(gdb) ");
        std::io::stdout().flush().ok();
    }
}

fn run_local(bug: Bug, n_mbs: u64) -> Result<(), String> {
    let mut cli = build_cli(bug, n_mbs)?;
    println!(
        "dfdbg: {}.\nType `help` for commands.",
        attach_banner(bug, n_mbs, &cli)
    );
    let interactive = std::io::stdin().is_terminal();
    let stdin = std::io::stdin();
    loop {
        prompt(interactive);
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("reading stdin: {e}")),
        }
        let line = line.trim();
        match line {
            "" => continue,
            "quit" | "q" | "exit" => break,
            _ => {
                let out = cli.exec(line);
                if !out.is_empty() {
                    println!("{out}");
                }
            }
        }
    }
    Ok(())
}

fn run_remote(addr: &str, bug: Bug, n_mbs: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let attach = client.request(&format!("attach {} {n_mbs}", variant_name(bug)))?;
    if !attach.ok {
        return Err(format!("attach failed: {}", attach.output));
    }
    println!(
        "dfdbg: {} [remote {addr}].\nType `help` for commands.",
        attach.output
    );
    let interactive = std::io::stdin().is_terminal();
    let stdin = std::io::stdin();
    loop {
        prompt(interactive);
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("reading stdin: {e}")),
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if matches!(line, "quit" | "q" | "exit") {
            let _ = client.request("quit");
            break;
        }
        let events_before = client.events.len();
        let reply = client.request(line)?;
        for (event, detail) in &client.events[events_before..] {
            eprintln!("[{event}] {detail}");
        }
        if !reply.output.is_empty() {
            println!("{}", reply.output);
        }
    }
    Ok(())
}
