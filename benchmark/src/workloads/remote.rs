//! `remote`: the debug server and its attach path. An in-process server
//! listens on a loopback port; one client on one connection runs
//! sequential remote diagnoses: `attach deadlock <n>` (a copy-on-write
//! fork of the cached build; each round takes `n` = 4, 8 and 16 once, in
//! seeded order), the scripted §III deadlock diagnosis, `detach`. A turn is one whole diagnosis, and its
//! transcript must equal the in-process one byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use h264_pipeline::Bug;
use server::{local_transcript, Client, Server, ServerConfig, Shared, DEADLOCK_SCRIPT};

use super::Workload;
use crate::trace::Tracer;
use crate::{shuffled, Scale};

pub struct Remote {
    client: Option<Client>,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    seed: u64,
    sizes: &'static [u64],
    /// Sizes left in the current round; every round attaches each size
    /// once, in seeded order, so the mix does not move with the seed.
    round: Vec<u64>,
    rounds: u64,
    /// In-process reference transcript per decoder size.
    refs: BTreeMap<u64, String>,
}

/// Send one command; a reply with `ok: false` is an error.
pub(crate) fn request(client: &mut Client, cmd: &str) -> Result<String, String> {
    let reply = client.request(cmd)?;
    if reply.ok {
        Ok(reply.output)
    } else {
        Err(format!("`{cmd}` failed: {}", reply.output))
    }
}

impl Remote {
    /// Start the server and warm its build cache for every size the
    /// seed can draw, so attaches measure the fork path.
    pub fn setup(seed: u64, scale: Scale) -> Result<Remote, String> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("binding the server: {e}"))?;
        let addr = server.local_addr();
        let shared = server.shared();
        let thread = std::thread::spawn(move || server.run());
        let mut remote = Remote {
            client: None,
            shared,
            thread: Some(thread),
            seed,
            sizes: scale.pick(&[4, 8, 16], &[2, 4]),
            round: Vec::new(),
            rounds: 0,
            refs: BTreeMap::new(),
        };
        let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        for &n in remote.sizes {
            request(&mut client, &format!("attach deadlock {n}"))?;
            request(&mut client, "detach")?;
        }
        remote.client = Some(client);
        Ok(remote)
    }
}

impl Workload for Remote {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn prepare_checks(&mut self) -> Result<(), String> {
        for &n in self.sizes {
            self.refs
                .insert(n, local_transcript(Bug::Deadlock, n, DEADLOCK_SCRIPT)?);
        }
        Ok(())
    }

    fn at_boundary(&self) -> bool {
        self.round.is_empty()
    }

    fn turn(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        if self.round.is_empty() {
            self.round = shuffled(self.sizes.to_vec(), self.seed, "remote", self.rounds);
            self.rounds += 1;
        }
        let n = self.round.pop().expect("round refilled above");
        let client = self.client.as_mut().ok_or("no connection")?;
        let t = Instant::now();
        tr.span("server.attach", || {
            request(client, &format!("attach deadlock {n}"))
        })?;
        let mut transcript = String::new();
        let mut failed = None;
        for cmd in DEADLOCK_SCRIPT {
            let reply = tr.span("server.command", || client.request(cmd))?;
            if !reply.ok && failed.is_none() {
                failed = Some(format!("`{cmd}` failed: {}", reply.output));
            }
            transcript.push_str(&reply.output);
            transcript.push('\n');
        }
        tr.span("server.detach", || request(client, "detach"))?;
        let dt = t.elapsed();
        if let Some(e) = failed {
            return Err(e);
        }
        if self.refs.get(&n) != Some(&transcript) {
            return Err(format!(
                "remote transcript for n={n} differs from the in-process one"
            ));
        }
        Ok(dt)
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        if let Some(mut c) = self.client.take() {
            let _ = c.request("quit");
        }
        self.shared.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
