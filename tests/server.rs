//! Remote debug-server integration tests: concurrency/isolation across
//! ≥16 simultaneous sessions, graceful shutdown under load, the HTTP
//! metrics endpoint, timeouts, protocol error handling and output
//! bounding — all over real TCP sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dataflow_debugger::h264::Bug;
use dataflow_debugger::server::{
    build_cli, local_transcript, remote_transcript, scrape_metrics, Client, Frame, Server,
    ServerConfig, Shared, DEADLOCK_SCRIPT,
};

/// Boot a server on an ephemeral port; the caller must
/// `shared.request_shutdown()` and join the handle.
fn boot(cfg: ServerConfig) -> (SocketAddr, Arc<Shared>, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr();
    let shared = server.shared();
    let handle = std::thread::spawn(move || server.run());
    (addr, shared, handle)
}

/// The acceptance gate: sixteen concurrent sessions each replay the §III
/// deadlock diagnosis; every remote transcript must be byte-identical to
/// the in-process run — any cross-session interference (shared simulator
/// state, interleaved responses, misrouted frames) breaks the equality.
#[test]
fn sixteen_concurrent_deadlock_diagnoses_are_isolated() {
    const N: usize = 16;
    const N_MBS: u64 = 4;
    let reference = local_transcript(Bug::Deadlock, N_MBS, DEADLOCK_SCRIPT).expect("reference");
    let (addr, shared, handle) = boot(ServerConfig::default());
    let workers: Vec<_> = (0..N)
        .map(|_| {
            std::thread::spawn(move || {
                remote_transcript(addr, Bug::Deadlock, N_MBS, DEADLOCK_SCRIPT)
            })
        })
        .collect();
    for (i, w) in workers.into_iter().enumerate() {
        let transcript = w.join().expect("no panic").expect("session completed");
        assert_eq!(
            transcript, reference,
            "session {i} transcript diverged from the in-process run"
        );
    }
    shared.request_shutdown();
    handle.join().expect("server drained");
    assert_eq!(
        shared
            .metrics
            .sessions_open
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

/// The accept loop blocks in `accept` until a connection arrives, and a
/// shutdown wakes it with a connection of its own. Twenty servers in a
/// row are bound, run and shut down, half of them at once and half after
/// sitting idle in `accept`; a missed wake would hang one, so the loop
/// must finish promptly.
#[test]
fn twenty_servers_in_a_row_stop_promptly() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for i in 0..20 {
            let (_addr, shared, handle) = boot(ServerConfig::default());
            if i % 2 == 1 {
                std::thread::sleep(Duration::from_millis(20));
            }
            shared.request_shutdown();
            handle.join().expect("server stopped");
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(20))
        .expect("a server did not stop after its shutdown request");
}

/// Sessions attached to *different* variants at the same time must each
/// see their own workload's behaviour.
#[test]
fn concurrent_sessions_on_different_variants_do_not_bleed() {
    let script: &[&str] = &["analyze", "continue"];
    let (addr, shared, handle) = boot(ServerConfig::default());
    let deadlock = std::thread::spawn(move || remote_transcript(addr, Bug::Deadlock, 4, script));
    let clean = std::thread::spawn(move || remote_transcript(addr, Bug::None, 4, script));
    let deadlock = deadlock.join().unwrap().expect("deadlock session");
    let clean = clean.join().unwrap().expect("clean session");
    assert_eq!(
        deadlock,
        local_transcript(Bug::Deadlock, 4, script).unwrap()
    );
    assert_eq!(clean, local_transcript(Bug::None, 4, script).unwrap());
    assert_ne!(
        deadlock, clean,
        "the two variants should behave differently"
    );
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// A `shutdown` request drains every live session gracefully: each one
/// checkpoints its time-travel state, announces it in a `shutdown` event
/// frame, and the accept loop joins all threads before returning.
#[test]
fn shutdown_under_load_checkpoints_live_sessions() {
    let (addr, _shared, handle) = boot(ServerConfig::default());
    let mut busy = Client::connect(addr.to_string()).expect("connect");
    let attach = busy.request("attach deadlock 4").expect("attach");
    assert!(attach.ok, "{}", attach.output);
    let run = busy.request("continue").expect("continue");
    assert!(run.ok, "{}", run.output);

    let mut operator = Client::connect(addr.to_string()).expect("connect operator");
    let reply = operator.request("shutdown").expect("shutdown request");
    assert!(reply.ok, "{}", reply.output);
    assert!(reply.output.contains("draining"), "{}", reply.output);

    busy.drain_events();
    let shutdown_event = busy
        .events
        .iter()
        .find(|(event, _)| event == "shutdown")
        .unwrap_or_else(|| panic!("no shutdown event; got {:?}", busy.events));
    assert!(
        shutdown_event.1.contains("checkpoint"),
        "live time-travel session was not checkpointed on drain: {}",
        shutdown_event.1
    );
    handle
        .join()
        .expect("server drained after shutdown command");
}

/// `/metrics` over plain HTTP: counters reflect the traffic, and a
/// scrape is not itself counted as a debug session.
#[test]
fn http_metrics_endpoint_reflects_traffic() {
    let script: &[&str] = &["info filters"];
    let (addr, shared, handle) = boot(ServerConfig::default());
    remote_transcript(addr, Bug::None, 2, script).expect("one scripted session");
    let metrics = scrape_metrics(addr).expect("scrape");
    let value = |name: &str| -> f64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}"))
    };
    assert_eq!(value("dfdbg_sessions_total") as u64, 1);
    assert_eq!(value("dfdbg_commands_total") as u64, script.len() as u64);
    assert!(value("dfdbg_bytes_out_total") > 0.0);
    assert!(value("dfdbg_command_seconds_count") as u64 >= script.len() as u64);

    // Unknown paths 404 rather than leaking the metrics body.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /nope HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("status line");
    assert!(line.starts_with("HTTP/1.0 404"), "{line}");

    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// A remote `explore` is byte-identical to the in-process run, folds its
/// search stats into the `/metrics` explore counters, and leaves a
/// structured `explore` event carrying the witness.
#[test]
fn remote_explore_updates_metrics_and_event_log() {
    use dataflow_debugger::server::EventKind;
    let script: &[&str] = &["explore --until race"];
    let reference = local_transcript(Bug::SharedScratch, 4, script).expect("reference");
    let (addr, shared, handle) = boot(ServerConfig::default());
    let remote = remote_transcript(addr, Bug::SharedScratch, 4, script).expect("session");
    assert_eq!(remote, reference, "remote explore transcript diverged");

    let metrics = scrape_metrics(addr).expect("scrape");
    let value = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}"))
    };
    assert_eq!(value("dfdbg_explores_total"), 1);
    assert!(value("dfdbg_explore_universes_explored_total") > 0);
    assert!(value("dfdbg_explore_universes_pruned_total") > 0);
    assert!(value("dfdbg_explore_sleep_set_hits_total") > 0);
    assert!(value("dfdbg_explore_cycles_stepped_total") > 0);
    assert!(
        value("dfdbg_explore_universes_joined_total")
            <= value("dfdbg_explore_universes_explored_total")
    );
    assert_eq!(value("dfdbg_explore_witnesses_total"), 1);

    assert_eq!(shared.log.count(EventKind::Explore), 1);
    let tail = shared.log.render_tail(100, None);
    assert!(tail.contains("witness mv1:"), "{tail}");
    assert!(tail.contains("explored="), "{tail}");

    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// A session with no traffic is reaped by the idle timeout, with an
/// explicit `idle-timeout` event before the close.
#[test]
fn idle_sessions_are_reaped_with_an_event() {
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, shared, handle) = boot(cfg);
    let mut client = Client::connect(addr.to_string()).expect("connect");
    client.drain_events(); // blocks until the server closes the socket
    assert!(
        client
            .events
            .iter()
            .any(|(event, _)| event == "idle-timeout"),
        "expected an idle-timeout event, got {:?}",
        client.events
    );
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// Garbage on the wire is answered (id 0, ok false), not dropped, and
/// does not poison the connection for well-formed requests after it.
#[test]
fn unparsable_requests_are_answered_not_dropped() {
    let (addr, shared, handle) = boot(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    writer
        .write_all(b"this is not json\n")
        .expect("write garbage");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    match Frame::decode(line.trim_end()).expect("well-formed response frame") {
        Frame::Response { id, ok, output } => {
            assert_eq!(id, 0);
            assert!(!ok);
            assert!(output.contains("bad request"), "{output}");
        }
        other => panic!("expected a response, got {other:?}"),
    }

    // The connection is still usable afterwards.
    writer
        .write_all(b"{\"id\": 7, \"cmd\": \"sessions\"}\n")
        .expect("write request");
    line.clear();
    reader.read_line(&mut line).expect("response");
    match Frame::decode(line.trim_end()).expect("frame") {
        Frame::Response { id, ok, .. } => {
            assert_eq!(id, 7);
            assert!(ok);
        }
        other => panic!("expected a response, got {other:?}"),
    }
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// Oversized outputs are truncated with an explicit marker — never
/// silently — and the truncation is counted.
#[test]
fn oversized_outputs_are_truncated_with_a_marker() {
    let cfg = ServerConfig {
        max_output_bytes: 64,
        ..ServerConfig::default()
    };
    let (addr, shared, handle) = boot(cfg);
    let mut client = Client::connect(addr.to_string()).expect("connect");
    let reply = client.request("help").expect("help");
    assert!(reply.ok);
    assert!(
        reply.output.contains("[output truncated:"),
        "missing truncation marker: {}",
        reply.output
    );
    let metrics = scrape_metrics(addr).expect("scrape");
    assert!(
        metrics.contains("dfdbg_output_truncated_total 1"),
        "{metrics}"
    );
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// Read one un-labelled metric value from the text exposition.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}")) as u64
}

/// The attach-cache gate: 64 simultaneous attaches of the same variant
/// must compile exactly once — every other session forks the shared
/// baseline — and each fork must still be byte-identical from the
/// client's point of view.
#[test]
fn sixty_four_simultaneous_attaches_compile_once() {
    const N: usize = 64;
    let (addr, shared, handle) = boot(ServerConfig::default());
    let start = Arc::new(Barrier::new(N));
    let workers: Vec<_> = (0..N)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr.to_string()).expect("connect");
                start.wait();
                let attach = client.request("attach deadlock 2").expect("attach");
                assert!(attach.ok, "{}", attach.output);
                let links = client.request("info links").expect("info links");
                assert!(links.ok, "{}", links.output);
                let _ = client.request("quit");
                links.output
            })
        })
        .collect();
    let outputs: Vec<String> = workers
        .into_iter()
        .map(|w| w.join().expect("no panic"))
        .collect();
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(
            out, &outputs[0],
            "session {i}'s `info links` diverged from session 0's"
        );
    }

    // One more attach after the storm has fully drained: its counter sync
    // reads the cache's final totals, making the assertion exact (the
    // storm's own syncs can interleave).
    let mut late = Client::connect(addr.to_string()).expect("connect");
    assert!(late.request("attach deadlock 2").expect("attach").ok);
    let metrics = scrape_metrics(addr).expect("scrape");
    assert_eq!(
        metric(&metrics, "dfdbg_attach_cache_misses_total"),
        1,
        "64 simultaneous attaches of one variant must compile exactly once"
    );
    assert_eq!(metric(&metrics, "dfdbg_attach_cache_hits_total"), N as u64);
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// The reap-vs-dispatch race: a command that legitimately runs longer
/// than the idle timeout must not get its session reaped — the idle
/// clock measures the gap between request completions, not the span of a
/// dispatch. The cold-compile attach and the long `continue` both exceed
/// the timeout here.
#[test]
fn slow_command_at_idle_boundary_is_not_reaped() {
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, shared, handle) = boot(cfg);
    let mut client = Client::connect(addr.to_string()).expect("connect");
    let attach = client.request("attach none 128").expect("attach");
    assert!(attach.ok, "{}", attach.output);
    // Full decode of 128 macroblocks: far longer than 200ms in a debug
    // build, and the point either way — dispatch time must not count as
    // idle time.
    let run = client.request("continue").expect("slow command");
    assert!(run.ok, "{}", run.output);
    let follow_up = client
        .request("info filters")
        .expect("session must still be live");
    assert!(follow_up.ok, "{}", follow_up.output);
    assert!(
        !client
            .events
            .iter()
            .any(|(event, _)| event == "idle-timeout"),
        "active session was reaped mid-use: {:?}",
        client.events
    );
    let metrics = scrape_metrics(addr).expect("scrape");
    assert_eq!(metric(&metrics, "dfdbg_idle_timeouts_total"), 0);
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// Drain announces `checkpoint N at cycle C` *and* a resume token; a
/// server restarted on the same state directory must rebuild the session
/// from its replay recipe — with the announced checkpoint usable — and
/// behave exactly like the original.
#[test]
fn drain_checkpoint_survives_restart_via_resume() {
    let state_dir = std::env::temp_dir().join(format!("dfdbg-resume-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let cfg = || ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };

    let (addr, _shared, handle) = boot(cfg());
    let mut busy = Client::connect(addr.to_string()).expect("connect");
    assert!(busy.request("attach deadlock 4").expect("attach").ok);
    assert!(busy.request("continue").expect("continue").ok);
    let mut operator = Client::connect(addr.to_string()).expect("connect operator");
    assert!(operator.request("shutdown").expect("shutdown").ok);
    busy.drain_events();
    let (_, detail) = busy
        .events
        .iter()
        .find(|(event, _)| event == "shutdown")
        .unwrap_or_else(|| panic!("no shutdown event; got {:?}", busy.events));
    assert!(detail.contains("checkpoint"), "{detail}");
    let token = detail
        .split("resume with `resume ")
        .nth(1)
        .and_then(|rest| rest.split('`').next())
        .unwrap_or_else(|| panic!("no resume token in shutdown detail: {detail}"))
        .to_string();
    handle.join().expect("first server drained");

    // A brand-new server process (fresh cache, same state directory).
    let (addr2, shared2, handle2) = boot(cfg());
    let mut revived = Client::connect(addr2.to_string()).expect("connect");
    let reply = revived
        .request(&format!("resume {token}"))
        .expect("resume request");
    assert!(reply.ok, "{}", reply.output);
    assert!(
        reply.output.contains("state hash verified"),
        "{}",
        reply.output
    );
    assert!(reply.output.contains("checkpoint"), "{}", reply.output);
    let links = revived.request("info links").expect("info links");
    assert!(links.ok);

    // Reference: the same journal replayed in-process. The drain appended
    // a literal `checkpoint` command to the journal, so the resumed
    // session re-created the announced checkpoint deterministically.
    let mut reference = build_cli(Bug::Deadlock, 4).expect("reference build");
    reference.exec("continue");
    reference.exec("checkpoint");
    assert_eq!(links.output, reference.exec("info links"));

    shared2.request_shutdown();
    handle2.join().expect("second server drained");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The eviction tier: an idle session is demoted to its replay recipe
/// (simulator freed), shows up as `evicted` in the session table, and the
/// next debug command transparently rebuilds it with identical behaviour.
#[test]
fn idle_sessions_evict_and_revive_transparently() {
    let cfg = ServerConfig {
        evict_after: Some(Duration::from_millis(250)),
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let (addr, shared, handle) = boot(cfg);
    let mut client = Client::connect(addr.to_string()).expect("connect");
    assert!(client.request("attach deadlock 2").expect("attach").ok);
    let before = client.request("info filters").expect("info filters");
    assert!(before.ok);

    std::thread::sleep(Duration::from_millis(700));
    let table = client.request("sessions").expect("sessions");
    assert!(
        table.output.contains("evicted"),
        "idle session was not evicted: {}",
        table.output
    );

    let after = client.request("info filters").expect("revived command");
    assert!(after.ok, "{}", after.output);
    assert_eq!(
        after.output, before.output,
        "transparent revive changed observable session state"
    );
    let metrics = scrape_metrics(addr).expect("scrape");
    assert!(metric(&metrics, "dfdbg_evictions_total") >= 1);
    assert!(metric(&metrics, "dfdbg_resumes_total") >= 1);
    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// Server-surface commands work without an attached session, and debug
/// commands without one fail with a helpful error.
#[test]
fn server_commands_and_unattached_errors() {
    let (addr, shared, handle) = boot(ServerConfig::default());
    let mut client = Client::connect(addr.to_string()).expect("connect");

    let reply = client.request("continue").expect("reply");
    assert!(!reply.ok);
    assert!(
        reply.output.contains("no session attached"),
        "{}",
        reply.output
    );

    let reply = client.request("detach").expect("reply");
    assert!(!reply.ok, "detach with nothing attached must error");

    let reply = client.request("attach deadlock 2").expect("reply");
    assert!(reply.ok, "{}", reply.output);
    let reply = client.request("attach deadlock 2").expect("reply");
    assert!(!reply.ok, "double attach must error: {}", reply.output);

    let reply = client.request("sessions").expect("reply");
    assert!(reply.ok);
    assert!(reply.output.contains("deadlock"), "{}", reply.output);

    let reply = client.request("log 5").expect("reply");
    assert!(reply.ok);
    assert!(reply.output.contains("attached"), "{}", reply.output);

    let reply = client.request("metrics").expect("reply");
    assert!(reply.ok);
    assert!(
        reply.output.contains("dfdbg_sessions_open"),
        "{}",
        reply.output
    );

    let reply = client.request("detach").expect("reply");
    assert!(reply.ok, "{}", reply.output);

    let reply = client.request("attach frob").expect("reply");
    assert!(!reply.ok);
    assert!(reply.output.contains("unknown variant"), "{}", reply.output);

    shared.request_shutdown();
    handle.join().expect("server drained");
}

/// Malformed wire frames must come back as `id: 0` error responses — the
/// connection survives, the server never panics, and a well-formed
/// request afterwards still works. The battery covers every branch of the
/// hand-rolled JSON reader that inspects untrusted bytes: truncated
/// objects, bad literals, non-scalar escapes, overlong integers, nested
/// values the flat protocol rejects, and raw binary junk.
#[test]
fn malformed_frames_get_error_responses_not_a_dead_server() {
    let (addr, shared, handle) = boot(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let battery: &[&[u8]] = &[
        b"{",
        b"}",
        b"nonsense",
        b"{\"id\": }",
        b"{\"id\": 1",
        b"{\"id\": 1, \"cmd\": \"x\"} trailing",
        b"{\"id\": 99999999999999999999999, \"cmd\": \"x\"}",
        b"{\"id\": -3, \"cmd\": \"x\"}",
        b"{\"id\": 1, \"cmd\": tru}",
        b"{\"id\": 1, \"cmd\": \"\\ud800\"}",
        b"{\"id\": 1, \"cmd\": \"\\u12\"}",
        b"{\"id\": 1, \"cmd\": \"unterminated",
        b"{\"id\": 1, \"cmd\": [\"no\", \"arrays\"]}",
        b"{\"id\": 1, \"cmd\": {\"no\": \"nesting\"}}",
        b"{\"id\" \"cmd\"}",
        b"\x00\xff\xfe{\"id\": 1}",
        b"{\"cmd\": \"info links\"}",
        b"{\"id\": 1}",
    ];
    for bad in battery {
        writer.write_all(bad).expect("write");
        writer.write_all(b"\n").expect("newline");
        let mut line = String::new();
        reader.read_line(&mut line).expect("server replied");
        let frame = Frame::decode(line.trim_end()).expect("reply is a valid frame");
        let Frame::Response { id, ok, output } = frame else {
            panic!("expected a response frame, got {frame:?}");
        };
        assert_eq!(id, 0, "malformed lines answer with id 0: {output}");
        assert!(
            !ok,
            "malformed line accepted: {}",
            String::from_utf8_lossy(bad)
        );
        assert!(output.contains("bad request"), "{output}");
    }

    // The connection is still healthy: a real request round-trips.
    writer
        .write_all(b"{\"id\": 7, \"cmd\": \"sessions\"}\n")
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("server replied");
    let frame = Frame::decode(line.trim_end()).expect("reply frame");
    let Frame::Response { id, ok, output } = frame else {
        panic!("expected a response frame, got {frame:?}");
    };
    assert_eq!(id, 7);
    assert!(ok, "healthy request failed after the battery: {output}");
    assert!(output.contains("connected"), "{output}");

    shared.request_shutdown();
    handle.join().expect("server drained");
}
