//! Direct runtime event stream — the *framework cooperation* path.
//!
//! The paper's debugger deliberately avoids modifying the framework and
//! derives everything from breakpoints; §V then proposes "framework
//! cooperation" as a future optimization. We implement both so the overhead
//! benchmark (experiment E1) can quantify the gap: when [`EventBuffer`] is
//! enabled the runtime publishes each dataflow event directly, and an
//! observer (debugger or test) drains the buffer once per cycle instead of
//! paying a breakpoint stop per framework call.

use debuginfo::{InlineSlice, Word};

use crate::graph::{ActorId, ConnId, LinkId};

/// One dataflow-level event.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    ActorRegistered {
        actor: ActorId,
    },
    LinkRegistered {
        link: LinkId,
    },
    BootComplete,
    /// A token entered `link` through output connection `conn`.
    TokenPushed {
        conn: ConnId,
        link: LinkId,
        /// Global (monotonic) token index on this link.
        index: u64,
        /// The token's payload words (typed by `conn`); a one-word
        /// payload is carried inline, so scalar events do not allocate.
        words: InlineSlice<Word>,
    },
    /// A token left `link` through input connection `conn`.
    TokenPopped {
        conn: ConnId,
        link: LinkId,
        index: u64,
        words: InlineSlice<Word>,
    },
    /// Controller scheduled the actor (ACTOR_START).
    ActorStarted {
        actor: ActorId,
    },
    /// Controller requested end-of-step stop (ACTOR_SYNC).
    ActorSyncRequested {
        actor: ActorId,
    },
    /// The actor's WORK method began executing.
    WorkBegun {
        actor: ActorId,
    },
    /// The actor's WORK method returned (one step done).
    WorkEnded {
        actor: ActorId,
        steps_done: u64,
    },
    /// The actor reached its requested sync point.
    ActorSynced {
        actor: ActorId,
    },
    StepBegun {
        module: ActorId,
        step: u64,
    },
    StepEnded {
        module: ActorId,
        step: u64,
    },
}

/// Gated event sink. Disabled (the default) it costs one branch per event
/// site, preserving the honest no-debugger baseline for benchmarks.
///
/// Two gates exist: `enabled` publishes everything (framework
/// cooperation), `env_enabled` publishes only host-side environment I/O —
/// the traffic a breakpoint-based debugger cannot observe because no
/// fabric code executes it (the host feeds links directly through DMA).
/// If the observer stops draining (or a cycle produces a pathological
/// storm), the buffer keeps only the newest `EVENT_CAP` events and counts
/// the overflow instead of growing without bound.
pub const EVENT_CAP: usize = 1 << 16;

#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    enabled: bool,
    env_enabled: bool,
    events: std::collections::VecDeque<RuntimeEvent>,
    /// Events discarded because the buffer was full.
    dropped: u64,
}

impl EventBuffer {
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Publish only environment (host-boundary) token events.
    pub fn enable_env_only(&mut self) {
        self.env_enabled = true;
    }

    pub fn disable(&mut self) {
        self.enabled = false;
        self.env_enabled = false;
        self.events.clear();
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn push(&mut self, f: impl FnOnce() -> RuntimeEvent) {
        if self.enabled {
            self.push_bounded(f());
        }
    }

    /// Event site for host-side environment I/O.
    #[inline]
    pub fn push_env(&mut self, f: impl FnOnce() -> RuntimeEvent) {
        if self.enabled || self.env_enabled {
            self.push_bounded(f());
        }
    }

    fn push_bounded(&mut self, ev: RuntimeEvent) {
        if self.events.len() == EVENT_CAP {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events discarded because the observer fell behind the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Move the accumulated events, oldest first, to the end of `out`
    /// (observer, once per cycle). Both buffers keep their capacity, so
    /// an observer that reuses `out` allocates nothing per cycle.
    pub fn drain_into(&mut self, out: &mut Vec<RuntimeEvent>) {
        out.extend(self.events.drain(..));
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_drops_oldest_and_counts() {
        let mut b = EventBuffer::default();
        b.enable();
        for _ in 0..EVENT_CAP + 3 {
            b.push(|| RuntimeEvent::BootComplete);
        }
        assert_eq!(b.len(), EVENT_CAP);
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut b = EventBuffer::default();
        b.push(|| RuntimeEvent::BootComplete);
        assert!(b.is_empty());
        b.enable();
        b.push(|| RuntimeEvent::BootComplete);
        assert_eq!(b.len(), 1);
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert_eq!(out, vec![RuntimeEvent::BootComplete]);
        assert!(b.is_empty());
        b.disable();
        b.push(|| RuntimeEvent::BootComplete);
        assert!(b.is_empty());
    }
}
