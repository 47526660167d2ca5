//! The TCP debug server: thread-per-session over the [`dfdbg::cli::Cli`]
//! machinery.
//!
//! Each accepted connection is one debug session slot. The connection
//! thread owns its simulator outright — isolation between concurrent
//! sessions is structural, not locked — and everything shared (metrics,
//! registry, event log, the shutdown flag) lives in [`Shared`] behind
//! atomics or short-lived mutexes.
//!
//! Robustness knobs ([`ServerConfig`]): a per-session **idle timeout**
//! (the session is closed, with an async `idle-timeout` event, when no
//! request arrives in time), a per-session **command timeout** (commands
//! are bounded by the cycle budget so they always return; one that still
//! overruns the wall-clock limit is flagged with an async event and
//! counted), a **bounded request line** and **bounded response output**
//! (oversized outputs are truncated with an explicit marker, never
//! silently).
//!
//! Graceful drain: `shutdown` (or SIGTERM in `dfdbg-serve`) flips the
//! shared flag; every session thread notices within one poll slice,
//! checkpoints its live time-travel session, emits a `shutdown` event
//! frame and closes; [`Server::run`] then joins them all before
//! returning.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfdbg::cli::Cli;
use dfdbg::Stop;
use h264_pipeline::Bug;

use crate::eventlog::{EventKind, EventLog};
use crate::metrics::Metrics;
use crate::proto::{Frame, Request};
use crate::registry::{Registry, SessionInfo, SessionState};
use crate::resume::SessionRecipe;
use crate::session::{
    attach_banner, build_cli, build_cli_cached, parse_variant, variant_name, variant_names,
    DecoderCache, DEFAULT_N_MBS,
};

/// How often blocked reads wake up to poll the shutdown flag and the
/// idle clock.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// How long the accept loop backs off after a failed accept (say, out of
/// file descriptors) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// Server tuning; the defaults suit both interactive use and CI.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Close a session when no request arrives for this long.
    pub idle_timeout: Duration,
    /// Flag (event + metric) commands that run longer than this.
    pub cmd_timeout: Duration,
    /// Truncate a single response output beyond this many bytes.
    pub max_output_bytes: usize,
    /// Reject a request line longer than this many bytes.
    pub max_request_bytes: usize,
    /// Clamp on the per-session cycle budget of resuming commands.
    pub cycle_budget: u64,
    /// Bounded event-log capacity.
    pub log_capacity: usize,
    /// Serve attaches from the compile-once cache (fork a prototype)
    /// instead of rebuilding per session. Disabled only to measure the
    /// per-session-recompile baseline (E8).
    pub attach_cache: bool,
    /// Demote a session idle this long to a replay recipe, freeing its
    /// simulator memory; the next debug command rebuilds it
    /// transparently. `None` disables the eviction tier.
    pub evict_after: Option<Duration>,
    /// Where drained/reaped sessions persist their replay recipes; a
    /// reconnecting client resumes with `resume <token>`. `None`
    /// disables persistence.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            idle_timeout: Duration::from_secs(300),
            cmd_timeout: Duration::from_secs(30),
            max_output_bytes: 1 << 20,
            max_request_bytes: 1 << 16,
            cycle_budget: 10_000_000,
            log_capacity: 4096,
            attach_cache: true,
            evict_after: None,
            state_dir: None,
        }
    }
}

/// State shared between the accept loop, every session thread and the
/// operator (signal handler, `/metrics` scraper, tests).
pub struct Shared {
    pub metrics: Metrics,
    pub registry: Registry,
    pub log: EventLog,
    pub cfg: ServerConfig,
    /// The compile-once app cache: one build per `(variant, n_mbs)` for
    /// the server's lifetime; attaches fork its prototypes.
    pub cache: DecoderCache,
    shutdown: AtomicBool,
    /// Where a connection reaches the listener, to wake its accept.
    wake_addr: SocketAddr,
    start: Instant,
    next_session: AtomicU64,
}

impl Shared {
    /// Flag the shutdown and wake the accept loop, which blocks in
    /// `accept` until a connection arrives, by connecting to the server's
    /// own address. Only system calls are made (no allocation, no lock),
    /// so a signal handler may call this.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Relaxed);
        let _ = TcpStream::connect(self.wake_addr);
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Relaxed)
    }

    pub fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// The server-side command surface, rendered into the remote `help` next
/// to the debugger's own table (the debugger table is reused verbatim, so
/// the remote surface cannot drift from the local one).
pub struct ServerCommandSpec {
    pub name: &'static str,
    pub usage: &'static str,
    pub help: &'static str,
}

pub const SERVER_COMMANDS: &[ServerCommandSpec] = &[
    ServerCommandSpec {
        name: "attach",
        usage: "attach <variant> [n_mbs]",
        help: "boot a decoder variant under this session",
    },
    ServerCommandSpec {
        name: "detach",
        usage: "detach",
        help: "drop the attached session, keep the connection",
    },
    ServerCommandSpec {
        name: "sessions",
        usage: "sessions",
        help: "list live sessions on this server",
    },
    ServerCommandSpec {
        name: "metrics",
        usage: "metrics",
        help: "server metrics (also served as HTTP GET /metrics)",
    },
    ServerCommandSpec {
        name: "log",
        usage: "log [n]",
        help: "tail of the structured session event log",
    },
    ServerCommandSpec {
        name: "resume",
        usage: "resume <token>",
        help: "rebuild a drained/reaped session from its persisted recipe",
    },
    ServerCommandSpec {
        name: "shutdown",
        usage: "shutdown",
        help: "drain all sessions (checkpointing them) and stop the server",
    },
];

/// The remote `help`: the full local command table plus the server
/// section.
pub fn render_remote_help() -> String {
    let mut out = dfdbg::cli::render_help();
    out.push_str("Server:\n");
    for c in SERVER_COMMANDS {
        out.push_str(&format!("  {:<44} {}\n", c.usage, c.help));
    }
    out
}

/// A bound TCP debug server. `run` blocks until a shutdown is requested
/// and every session has drained.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let log_capacity = cfg.log_capacity;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                metrics: Metrics::new(),
                registry: Registry::new(),
                log: EventLog::new(log_capacity),
                cfg,
                cache: DecoderCache::new(),
                shutdown: AtomicBool::new(false),
                wake_addr,
                start: Instant::now(),
                next_session: AtomicU64::new(1),
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Accept loop; returns after a graceful drain. It blocks in `accept`
    /// and so does no work while no client connects;
    /// [`Shared::request_shutdown`] wakes it with a connection of its own,
    /// which is dropped unserved.
    pub fn run(self) {
        let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown_requested() {
            match self.listener.accept() {
                Ok(_) if self.shared.shutdown_requested() => break,
                Ok((stream, peer)) => {
                    let shared = Arc::clone(&self.shared);
                    let id = shared.next_session.fetch_add(1, Relaxed);
                    threads.push(std::thread::spawn(move || {
                        Connection::serve(id, stream, peer, shared);
                    }));
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
            threads.retain(|t| !t.is_finished());
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

/// One connection = one session slot, owned by its thread.
struct Connection {
    id: u64,
    stream: TcpStream,
    shared: Arc<Shared>,
    attached: Attached,
    commands: u64,
}

/// The session slot's attachment tier. `Live` owns a full simulator;
/// `Evicted` holds only the replay recipe an idle session was demoted to
/// (its ~5MB simulator freed) — the next debug command transparently
/// rebuilds and verifies it.
enum Attached {
    None,
    Live(Box<Slot>),
    Evicted(Evicted),
}

/// A live attached session plus what persistence needs to recreate it.
struct Slot {
    cli: Cli,
    bug: Bug,
    n_mbs: u64,
    /// Every debug command executed, in order — the deterministic replay
    /// recipe behind eviction and drain/resume.
    journal: Vec<String>,
}

/// A session demoted to its recipe: variant + journal + the state hash
/// the rebuilt session must reproduce.
struct Evicted {
    bug: Bug,
    n_mbs: u64,
    journal: Vec<String>,
    state_hash: u64,
    clock: u64,
}

impl Attached {
    fn is_some(&self) -> bool {
        !matches!(self, Attached::None)
    }
}

/// What the dispatcher asks the connection loop to do next.
enum Disposition {
    Continue,
    Close,
}

impl Connection {
    fn serve(id: u64, stream: TcpStream, peer: SocketAddr, shared: Arc<Shared>) {
        shared.metrics.sessions_open.fetch_add(1, Relaxed);
        shared.metrics.sessions_total.fetch_add(1, Relaxed);
        shared.registry.insert(SessionInfo {
            id,
            peer: peer.to_string(),
            state: SessionState::Connected,
            variant: None,
            n_mbs: 0,
            commands: 0,
            since_ms: shared.uptime_ms(),
        });
        shared.log.push(
            shared.uptime_ms(),
            id,
            EventKind::Connected,
            peer.to_string(),
        );
        let mut conn = Connection {
            id,
            stream,
            shared,
            attached: Attached::None,
            commands: 0,
        };
        conn.read_loop();
        conn.shared
            .log
            .push(conn.shared.uptime_ms(), id, EventKind::Disconnected, "");
        conn.shared.registry.remove(id);
        conn.shared.metrics.sessions_open.fetch_sub(1, Relaxed);
    }

    fn read_loop(&mut self) {
        if self.stream.set_read_timeout(Some(POLL_SLICE)).is_err() {
            return;
        }
        let _ = self.stream.set_nodelay(true);
        let mut reader = match self.stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let mut buf: Vec<u8> = Vec::new();
        let mut last_activity = Instant::now();
        let mut first_line = true;
        loop {
            if self.shared.shutdown_requested() {
                self.drain();
                return;
            }
            if last_activity.elapsed() > self.shared.cfg.idle_timeout {
                self.shared
                    .metrics
                    .idle_timeouts_total
                    .fetch_add(1, Relaxed);
                self.shared
                    .log
                    .push(self.shared.uptime_ms(), self.id, EventKind::IdleTimeout, "");
                let mut detail = format!(
                    "no request for {:?}; closing the session",
                    self.shared.cfg.idle_timeout
                );
                if let Some(token) = self.persist_recipe() {
                    detail.push_str(&format!(
                        "; resume with `resume {token}` after reconnecting"
                    ));
                }
                self.send(&Frame::Event {
                    event: "idle-timeout".into(),
                    detail,
                });
                return;
            }
            if let Some(evict_after) = self.shared.cfg.evict_after {
                if matches!(self.attached, Attached::Live(_))
                    && last_activity.elapsed() > evict_after
                {
                    self.evict();
                }
            }
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => return, // EOF
                Ok(n) => {
                    self.shared
                        .metrics
                        .bytes_in_total
                        .fetch_add(n as u64, Relaxed);
                    if !buf.ends_with(b"\n") {
                        // Mid-line EOF races the poll slice; loop once more
                        // to pick up the true EOF.
                        continue;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if buf.len() > self.shared.cfg.max_request_bytes {
                        self.send(&Frame::Response {
                            id: 0,
                            ok: false,
                            output: format!(
                                "request line exceeds {} bytes; closing",
                                self.shared.cfg.max_request_bytes
                            ),
                        });
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
            let line = String::from_utf8_lossy(&buf).trim().to_string();
            buf.clear();
            last_activity = Instant::now();
            if line.is_empty() {
                continue;
            }
            if first_line && line.starts_with("GET ") {
                self.serve_http(&line);
                return;
            }
            first_line = false;
            if line.len() > self.shared.cfg.max_request_bytes {
                self.send(&Frame::Response {
                    id: 0,
                    ok: false,
                    output: format!(
                        "request line exceeds {} bytes; closing",
                        self.shared.cfg.max_request_bytes
                    ),
                });
                return;
            }
            let req = match Request::decode(&line) {
                Ok(r) => r,
                Err(e) => {
                    self.send(&Frame::Response {
                        id: 0,
                        ok: false,
                        output: format!("bad request: {e}"),
                    });
                    continue;
                }
            };
            match self.dispatch(&req) {
                Disposition::Continue => {}
                Disposition::Close => return,
            }
            // The idle clock measures the gap between request
            // *completions*. Re-arming it only before dispatch (as the
            // read path above does) let a command that legitimately ran
            // longer than the idle timeout get its session reaped at the
            // very next loop iteration — an active session closed mid-use.
            // Dispatch and the reaper run on this one thread, so resetting
            // here makes reap-vs-dispatch mutually exclusive by
            // construction.
            last_activity = Instant::now();
        }
    }

    /// Execute one request and send its response (plus any async event it
    /// triggers).
    fn dispatch(&mut self, req: &Request) -> Disposition {
        let words: Vec<&str> = req.cmd.split_whitespace().collect();
        let Some(&head) = words.first() else {
            self.respond(req.id, true, String::new());
            return Disposition::Continue;
        };
        match head {
            "attach" => {
                let (ok, output) = self.cmd_attach(&words[1..]);
                self.respond(req.id, ok, output);
                Disposition::Continue
            }
            "detach" => {
                let had = self.attached.is_some();
                self.attached = Attached::None;
                self.shared.registry.update(self.id, |s| {
                    s.state = SessionState::Connected;
                    s.variant = None;
                    s.n_mbs = 0;
                });
                self.respond(
                    req.id,
                    had,
                    if had {
                        "detached".into()
                    } else {
                        "error: no session attached".into()
                    },
                );
                Disposition::Continue
            }
            "sessions" => {
                let out = self.shared.registry.render();
                self.respond(req.id, true, out);
                Disposition::Continue
            }
            "metrics" => {
                let out = self.shared.metrics.render();
                self.respond(req.id, true, out);
                Disposition::Continue
            }
            "log" => {
                let limit = words
                    .get(1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(32);
                let out = self.shared.log.render_tail(limit, None);
                self.respond(req.id, true, out);
                Disposition::Continue
            }
            "resume" => {
                let (ok, output) = self.cmd_resume(&words[1..]);
                self.respond(req.id, ok, output);
                Disposition::Continue
            }
            "shutdown" => {
                self.shared.request_shutdown();
                let n = self.shared.registry.len();
                self.respond(req.id, true, format!("draining {n} session(s)"));
                // The next loop iteration sees the flag and drains this
                // connection too.
                Disposition::Continue
            }
            "help" | "h" => {
                self.respond(req.id, true, render_remote_help());
                Disposition::Continue
            }
            "quit" | "q" | "exit" => {
                self.respond(req.id, true, String::new());
                Disposition::Close
            }
            _ => {
                self.cmd_debug(req);
                Disposition::Continue
            }
        }
    }

    fn cmd_attach(&mut self, args: &[&str]) -> (bool, String) {
        if self.attached.is_some() {
            return (false, "error: already attached (use `detach` first)".into());
        }
        let Some(&variant) = args.first() else {
            return (
                false,
                format!("error: usage: attach <{}> [n_mbs]", variant_names()),
            );
        };
        let Some(bug) = parse_variant(variant) else {
            return (
                false,
                format!("error: unknown variant `{variant}` ({})", variant_names()),
            );
        };
        let n_mbs = match args.get(1) {
            None => DEFAULT_N_MBS,
            Some(s) => match s.parse::<u64>() {
                Ok(n) if n > 0 => n,
                _ => {
                    return (
                        false,
                        format!("error: bad n_mbs `{s}`: expected a positive integer"),
                    )
                }
            },
        };
        let t0 = Instant::now();
        let built = if self.shared.cfg.attach_cache {
            build_cli_cached(bug, n_mbs, &self.shared.cache)
        } else {
            build_cli(bug, n_mbs)
        };
        // Mirror the cache counters into /metrics (monotonic, so a plain
        // store after each attach is exact).
        self.shared
            .metrics
            .attach_cache_hits
            .store(self.shared.cache.hits(), Relaxed);
        self.shared
            .metrics
            .attach_cache_misses
            .store(self.shared.cache.misses(), Relaxed);
        match built {
            Ok(mut cli) => {
                self.shared.metrics.attach_seconds.observe(t0.elapsed());
                cli.budget = cli.budget.min(self.shared.cfg.cycle_budget);
                let banner = attach_banner(bug, n_mbs, &cli);
                self.attached = Attached::Live(Box::new(Slot {
                    cli,
                    bug,
                    n_mbs,
                    journal: Vec::new(),
                }));
                self.shared.registry.update(self.id, |s| {
                    s.state = SessionState::Attached;
                    s.variant = Some(variant_name(bug).to_string());
                    s.n_mbs = n_mbs;
                });
                self.shared.log.push(
                    self.shared.uptime_ms(),
                    self.id,
                    EventKind::Attached,
                    format!("{} ({n_mbs} MBs) in {:?}", variant_name(bug), t0.elapsed()),
                );
                (true, banner)
            }
            Err(e) => (false, format!("error: {e}")),
        }
    }

    /// `resume <token>` — rebuild a persisted session from its replay
    /// recipe: fork the cached app, replay the journal, verify the full
    /// state hash, and attach the result to this connection.
    fn cmd_resume(&mut self, args: &[&str]) -> (bool, String) {
        if self.attached.is_some() {
            return (false, "error: already attached (use `detach` first)".into());
        }
        let Some(dir) = self.shared.cfg.state_dir.clone() else {
            return (
                false,
                "error: this server has no state directory (start with --state-dir)".into(),
            );
        };
        let Some(&token) = args.first() else {
            return (false, "error: usage: resume <token>".into());
        };
        let recipe = match SessionRecipe::load(&dir, token) {
            Ok(r) => r,
            Err(e) => return (false, format!("error: {e}")),
        };
        let Some(bug) = parse_variant(&recipe.variant) else {
            return (
                false,
                format!("error: recipe names unknown variant `{}`", recipe.variant),
            );
        };
        match self.rebuild(bug, recipe.n_mbs, &recipe.journal, recipe.state_hash) {
            Ok(cli) => {
                let clock = cli.session.clock();
                self.attached = Attached::Live(Box::new(Slot {
                    cli,
                    bug,
                    n_mbs: recipe.n_mbs,
                    journal: recipe.journal.clone(),
                }));
                self.shared.registry.update(self.id, |s| {
                    s.state = SessionState::Attached;
                    s.variant = Some(recipe.variant.clone());
                    s.n_mbs = recipe.n_mbs;
                });
                self.shared.metrics.resumes_total.fetch_add(1, Relaxed);
                self.shared.log.push(
                    self.shared.uptime_ms(),
                    self.id,
                    EventKind::Resumed,
                    format!("token {token} ({} commands replayed)", recipe.journal.len()),
                );
                (
                    true,
                    format!(
                        "resumed {} ({} macroblocks) at cycle {clock}: \
                         {} command(s) replayed, state hash verified, \
                         checkpoint {} available",
                        recipe.variant,
                        recipe.n_mbs,
                        recipe.journal.len(),
                        recipe.checkpoint
                    ),
                )
            }
            Err(e) => (false, format!("error: {e}")),
        }
    }

    /// Rebuild a session from a replay recipe and verify it reproduces
    /// the recorded machine state exactly.
    fn rebuild(
        &self,
        bug: Bug,
        n_mbs: u64,
        journal: &[String],
        expect_hash: u64,
    ) -> Result<Cli, String> {
        let mut cli = if self.shared.cfg.attach_cache {
            build_cli_cached(bug, n_mbs, &self.shared.cache)?
        } else {
            build_cli(bug, n_mbs)?
        };
        cli.budget = cli.budget.min(self.shared.cfg.cycle_budget);
        for cmd in journal {
            let _ = cli.exec(cmd);
        }
        let got = cli.session.state_hash();
        if got != expect_hash {
            return Err(format!(
                "replay diverged: rebuilt state hash {got:#018x} != recorded {expect_hash:#018x}"
            ));
        }
        Ok(cli)
    }

    /// Demote an idle live session to its replay recipe, freeing the
    /// simulator.
    fn evict(&mut self) {
        let Attached::Live(slot) = std::mem::replace(&mut self.attached, Attached::None) else {
            return;
        };
        let evicted = Evicted {
            bug: slot.bug,
            n_mbs: slot.n_mbs,
            journal: slot.journal,
            state_hash: slot.cli.session.state_hash(),
            clock: slot.cli.session.clock(),
        };
        // `slot.cli` (the ~5MB simulator) drops here; only the recipe stays.
        let detail = format!(
            "idle session demoted to a replay recipe at cycle {} ({} journaled commands)",
            evicted.clock,
            evicted.journal.len()
        );
        self.attached = Attached::Evicted(evicted);
        self.shared.metrics.evictions_total.fetch_add(1, Relaxed);
        self.shared
            .registry
            .update(self.id, |s| s.state = SessionState::Evicted);
        self.shared
            .log
            .push(self.shared.uptime_ms(), self.id, EventKind::Evicted, detail);
    }

    /// Rebuild an evicted session in place (the transparent resume on the
    /// next debug command).
    fn revive(&mut self) -> Result<(), String> {
        let Attached::Evicted(e) = std::mem::replace(&mut self.attached, Attached::None) else {
            return Ok(());
        };
        match self.rebuild(e.bug, e.n_mbs, &e.journal, e.state_hash) {
            Ok(cli) => {
                self.attached = Attached::Live(Box::new(Slot {
                    cli,
                    bug: e.bug,
                    n_mbs: e.n_mbs,
                    journal: e.journal,
                }));
                self.shared.metrics.resumes_total.fetch_add(1, Relaxed);
                self.shared
                    .registry
                    .update(self.id, |s| s.state = SessionState::Attached);
                self.shared.log.push(
                    self.shared.uptime_ms(),
                    self.id,
                    EventKind::Resumed,
                    format!("transparent revive at cycle {}", e.clock),
                );
                Ok(())
            }
            Err(err) => Err(err),
        }
    }

    /// Build the replay recipe for whatever is attached, if anything.
    fn make_recipe(&mut self, checkpoint: u32) -> Option<SessionRecipe> {
        match &mut self.attached {
            Attached::None => None,
            Attached::Live(slot) => Some(SessionRecipe {
                variant: variant_name(slot.bug).to_string(),
                n_mbs: slot.n_mbs,
                clock: slot.cli.session.clock(),
                state_hash: slot.cli.session.state_hash(),
                checkpoint,
                journal: slot.journal.clone(),
            }),
            Attached::Evicted(e) => Some(SessionRecipe {
                variant: variant_name(e.bug).to_string(),
                n_mbs: e.n_mbs,
                clock: e.clock,
                state_hash: e.state_hash,
                checkpoint,
                journal: e.journal.clone(),
            }),
        }
    }

    /// Persist the attached session's recipe to the state directory (if
    /// both exist), returning the resume token.
    fn persist_recipe(&mut self) -> Option<String> {
        self.persist_recipe_at(0)
    }

    fn persist_recipe_at(&mut self, checkpoint: u32) -> Option<String> {
        let dir = self.shared.cfg.state_dir.clone()?;
        let recipe = self.make_recipe(checkpoint)?;
        let token = recipe.token(self.id);
        match recipe.save(&dir, &token) {
            Ok(_) => Some(token),
            Err(e) => {
                self.shared.log.push(
                    self.shared.uptime_ms(),
                    self.id,
                    EventKind::ShutdownCheckpoint,
                    format!("persisting the session recipe failed: {e}"),
                );
                None
            }
        }
    }

    /// A debugger command proper: forwarded verbatim to the session CLI.
    fn cmd_debug(&mut self, req: &Request) {
        if matches!(self.attached, Attached::Evicted(_)) {
            if let Err(e) = self.revive() {
                self.respond(req.id, false, format!("error: reviving the session: {e}"));
                return;
            }
        }
        let Attached::Live(slot) = &mut self.attached else {
            self.respond(
                req.id,
                false,
                "error: no session attached (use `attach <variant> [n_mbs]`)".into(),
            );
            return;
        };
        let cli = &mut slot.cli;
        let fault_before = matches!(cli.last_stop, Some(Stop::Fault { .. }));
        let t0 = Instant::now();
        let output = cli.exec(&req.cmd);
        let elapsed = t0.elapsed();
        let ok = !output.starts_with("error:");
        if matches!(cli.last_stop, Some(Stop::Fault { .. })) && !fault_before {
            self.shared.metrics.faults_total.fetch_add(1, Relaxed);
        }
        // A completed exploration (not a replay) carries its stats in the
        // session's last report; fold them into the server counters and
        // log the outcome as a structured event.
        let word = req.cmd.split_whitespace().next().unwrap_or("");
        let is_replay = req.cmd.split_whitespace().nth(1) == Some("replay");
        if ok && matches!(word, "explore" | "mv") && !is_replay {
            if let Some(rep) = &cli.session.last_explore {
                self.shared.metrics.observe_explore(&rep.stats);
                let outcome = match &rep.witness {
                    Some(w) => format!("witness {w}"),
                    None => "no witness".into(),
                };
                self.shared.log.push(
                    self.shared.uptime_ms(),
                    self.id,
                    EventKind::Explore,
                    format!(
                        "{outcome} (forked={} explored={} pruned={} sleep-hits={} pool-peak={}B)",
                        rep.stats.universes_forked,
                        rep.stats.universes_explored,
                        rep.stats.universes_pruned,
                        rep.stats.sleep_set_hits,
                        rep.stats.peak_pool_bytes
                    ),
                );
            }
        }
        slot.journal.push(req.cmd.clone());
        self.commands += 1;
        self.shared.metrics.commands_total.fetch_add(1, Relaxed);
        if !ok {
            self.shared
                .metrics
                .command_errors_total
                .fetch_add(1, Relaxed);
        }
        self.shared.metrics.observe_latency(elapsed);
        let commands = self.commands;
        self.shared
            .registry
            .update(self.id, |s| s.commands = commands);
        self.shared.log.push(
            self.shared.uptime_ms(),
            self.id,
            EventKind::Command,
            format!("`{}` in {:?}", req.cmd, elapsed),
        );
        self.respond(req.id, ok, output);
        if elapsed > self.shared.cfg.cmd_timeout {
            self.shared
                .metrics
                .command_timeouts_total
                .fetch_add(1, Relaxed);
            self.shared.log.push(
                self.shared.uptime_ms(),
                self.id,
                EventKind::CommandTimeout,
                format!("`{}` took {:?}", req.cmd, elapsed),
            );
            self.send(&Frame::Event {
                event: "command-timeout".into(),
                detail: format!(
                    "`{}` took {:?} (limit {:?})",
                    req.cmd, elapsed, self.shared.cfg.cmd_timeout
                ),
            });
        }
    }

    /// Graceful drain: checkpoint a live time-travel session, persist its
    /// replay recipe (so the announced checkpoint is actually usable
    /// after a reconnect), announce, close.
    fn drain(&mut self) {
        self.shared
            .registry
            .update(self.id, |s| s.state = SessionState::Draining);
        // Stage 1 (exclusive borrow of the slot): checkpoint the live
        // session and journal the `checkpoint` command — replaying the
        // recipe recreates the same checkpoint id at the same cycle
        // (ids are deterministic), which is what makes the announcement
        // below *usable* by a resumed session, not just informative.
        let staged: Result<Option<(u32, u64)>, String> = match &mut self.attached {
            Attached::Live(slot) if slot.cli.session.time_travel_enabled() => {
                match slot.cli.session.checkpoint_now() {
                    Ok(id) => {
                        slot.journal.push("checkpoint".into());
                        Ok(Some((id, slot.cli.session.clock())))
                    }
                    Err(e) => Err(e),
                }
            }
            _ => Ok(None),
        };
        // Stage 2: persist the recipe and compose the announcement.
        let evicted = matches!(self.attached, Attached::Evicted(_));
        let detail = match staged {
            Ok(Some((id, clock))) => {
                let mut d = format!("checkpoint {id} at cycle {clock}");
                if let Some(token) = self.persist_recipe_at(id) {
                    d.push_str(&format!(
                        "; resume with `resume {token}` after reconnecting"
                    ));
                }
                self.shared.log.push(
                    self.shared.uptime_ms(),
                    self.id,
                    EventKind::ShutdownCheckpoint,
                    d.clone(),
                );
                d
            }
            Err(e) => format!("checkpoint failed: {e}"),
            Ok(None) if evicted => match self.persist_recipe() {
                Some(token) => format!(
                    "evicted session persisted; resume with `resume {token}` after reconnecting"
                ),
                None => "evicted session discarded (no state directory)".into(),
            },
            Ok(None) if self.attached.is_some() => "session had no time travel enabled".into(),
            Ok(None) => "server draining".into(),
        };
        self.send(&Frame::Event {
            event: "shutdown".into(),
            detail,
        });
    }

    /// Bound, then send, a response frame.
    fn respond(&mut self, id: u64, ok: bool, mut output: String) {
        let max = self.shared.cfg.max_output_bytes;
        if output.len() > max {
            let mut cut = max;
            while !output.is_char_boundary(cut) {
                cut -= 1;
            }
            let dropped = output.len() - cut;
            output.truncate(cut);
            output.push_str(&format!("\n...[output truncated: {dropped} bytes dropped]"));
            self.shared
                .metrics
                .output_truncated_total
                .fetch_add(1, Relaxed);
            self.shared.log.push(
                self.shared.uptime_ms(),
                self.id,
                EventKind::Truncated,
                format!("{dropped} bytes dropped"),
            );
        }
        self.send(&Frame::Response { id, ok, output });
    }

    fn send(&mut self, frame: &Frame) {
        let mut line = frame.encode();
        line.push('\n');
        if self.stream.write_all(line.as_bytes()).is_ok() {
            self.shared
                .metrics
                .bytes_out_total
                .fetch_add(line.len() as u64, Relaxed);
        }
    }

    /// Minimal HTTP for observability scrapers: `GET /metrics` answers
    /// with the Prometheus text format, anything else 404s. The request
    /// headers (if any) are drained best-effort before closing.
    fn serve_http(&mut self, request_line: &str) {
        // An HTTP scrape is not a debug session; take it back out of the
        // session counter (the open-gauge is balanced by the normal
        // connection cleanup).
        self.shared.metrics.sessions_total.fetch_sub(1, Relaxed);
        let path = request_line.split_whitespace().nth(1).unwrap_or("/");
        let (status, body) = if path == "/metrics" {
            self.shared.metrics.scrapes_total.fetch_add(1, Relaxed);
            ("200 OK", self.shared.metrics.render())
        } else {
            (
                "404 Not Found",
                format!("no such path {path} (try /metrics)\n"),
            )
        };
        let response = format!(
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        if self.stream.write_all(response.as_bytes()).is_ok() {
            self.shared
                .metrics
                .bytes_out_total
                .fetch_add(response.len() as u64, Relaxed);
        }
        let _ = self.stream.flush();
        // Give the client a beat to read before the socket drops.
        let mut sink = [0u8; 512];
        let _ = self.stream.read(&mut sink);
    }
}
