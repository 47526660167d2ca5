//! The pinned gate transcripts: every `analyze` command in
//! `ci/findings.txt`, `ci/replay_check.txt`, `ci/sched_check.txt` and
//! `ci/witness_check.txt` must exit 0 and print exactly the pinned output,
//! byte for byte. Each file is a sequence of `$ analyze <args>` lines,
//! each followed by that command's stdout. Also pins how `analyze`
//! rejects malformed argument lists.

use std::path::Path;
use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("spawn analyze")
}

/// Re-run every command of one pinned transcript and compare.
fn check_transcript(file: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci").join(file);
    let pinned = std::fs::read_to_string(&path).expect("read pinned transcript");
    let mut commands: Vec<(&str, String)> = Vec::new();
    for line in pinned.lines() {
        if let Some(cmd) = line.strip_prefix("$ analyze ") {
            commands.push((cmd, String::new()));
        } else {
            let (_, out) = commands
                .last_mut()
                .unwrap_or_else(|| panic!("{file}: output before the first `$ analyze` line"));
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(!commands.is_empty(), "{file} pins no command");
    for (cmd, expected) in commands {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        let out = analyze(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "`analyze {cmd}` failed: {}\n{stdout}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(stdout, expected, "`analyze {cmd}` drifted from ci/{file}");
    }
}

#[test]
fn static_findings_match_the_pinned_ones() {
    check_transcript("findings.txt");
}

#[test]
fn replay_check_transcripts_match_the_pinned_ones() {
    check_transcript("replay_check.txt");
}

#[test]
fn sched_check_transcripts_match_the_pinned_ones() {
    check_transcript("sched_check.txt");
}

#[test]
fn witness_check_transcripts_match_the_pinned_ones() {
    check_transcript("witness_check.txt");
}

#[test]
fn malformed_argument_lists_print_usage_and_fail() {
    for args in [
        &["deadlock", "--deny"][..],
        &["clean", "warnings"],
        &["clean", "--deny", "errors"],
        &["race", "--witness-check", "--replay-check"],
        &["clean", "--sched-check", "--replay-check"],
        &["deadlock", "--witness-check", "--sched-check"],
        &["no-such-variant"],
    ] {
        let out = analyze(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "`analyze {}` exited 0",
            args.join(" ")
        );
        assert!(out.stdout.is_empty(), "`analyze {}` ran", args.join(" "));
        assert!(
            stderr.contains("usage: analyze"),
            "`analyze {}` printed no usage line: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn deny_warnings_still_gates_both_ways() {
    assert!(analyze(&["clean", "--deny", "warnings"]).status.success());
    assert!(!analyze(&["deadlock", "--deny", "warnings"])
        .status
        .success());
    assert!(!analyze(&["--deny", "warnings", "deadlock"])
        .status
        .success());
}
