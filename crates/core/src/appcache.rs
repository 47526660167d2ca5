//! Compile-once application cache: the fix for the attach-latency
//! scaling bug (E7: 33ms → 367ms attach going 1 → 16 sessions).
//!
//! Every debug session used to rebuild the identical application from
//! scratch — ADL elaboration, kernel codegen, linking, a multi-million
//! cycle boot and a full time-travel baseline — even when sixteen
//! sessions attached to the same decoder variant. [`AppCache`] keys the
//! expensive build by variant and hands out `Arc`-shared, *immutable*
//! artifacts: N sessions of one variant pay one compile, and attach
//! becomes a copy-on-write fork of a prototype session (see
//! [`crate::session::Session::fork`]).
//!
//! Concurrency: each key owns a [`OnceLock`] cell, so a storm of
//! simultaneous attaches for the same variant runs the builder exactly
//! once — the rest block on the cell and then fork. The cache never
//! exposes a mutable alias: values come back as `Arc<E>`, and the
//! prototype session inside [`CachedApp`] is only reachable through
//! [`CachedApp::fork`], which clones.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::session::Session;

type Cell<E> = Arc<OnceLock<Result<Arc<E>, String>>>;

/// A keyed compile-once cache. Generic over the entry type so the core
/// crate does not depend on the tool-chain crate that produces compiled
/// apps; the server instantiates it with [`CachedApp`]`<CompiledApp>`.
pub struct AppCache<E> {
    entries: Mutex<HashMap<String, Cell<E>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<E> Default for AppCache<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> AppCache<E> {
    pub fn new() -> Self {
        AppCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up `key`, running `build` only if no prior call built it.
    /// Concurrent callers for the same key block until the one builder
    /// finishes, then share its result. A failed build is *not* pinned:
    /// the key is cleared so a later call retries.
    pub fn get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<E, String>,
    ) -> Result<Arc<E>, String> {
        let cell: Cell<E> = {
            let mut map = self.entries.lock().unwrap();
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        let mut built = false;
        let result = cell
            .get_or_init(|| {
                built = true;
                build().map(Arc::new)
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if result.is_err() {
                let mut map = self.entries.lock().unwrap();
                if map.get(key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                    map.remove(key);
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Calls served from an already-built entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calls that ran the builder (including failed builds).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of built (or in-flight) keys.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One cached application: the immutable compiled artifact plus a booted,
/// instrumented prototype session every attach forks from. The artifact
/// is shared as `Arc<A>` — never a mutable alias — and the prototype is
/// sealed behind a mutex whose only public operation clones it.
pub struct CachedApp<A> {
    /// The immutable compile output (program image, line tables, memory
    /// map, graph). Shared by every session of this variant.
    pub app: Arc<A>,
    proto: Mutex<Session>,
}

impl<A> CachedApp<A> {
    pub fn new(app: A, proto: Session) -> Self {
        CachedApp {
            app: Arc::new(app),
            proto: Mutex::new(proto),
        }
    }

    /// Fork an independent session off the prototype (copy-on-write
    /// memory and recorded history, `Arc`-shared debug info).
    pub fn fork(&self) -> Session {
        self.proto.lock().unwrap().fork()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let cache: AppCache<String> = AppCache::new();
        let a = cache
            .get_or_build("deadlock:8", || Ok("artifact".to_string()))
            .unwrap();
        let b = cache
            .get_or_build("deadlock:8", || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_separately() {
        let cache: AppCache<u32> = AppCache::new();
        cache.get_or_build("a", || Ok(1)).unwrap();
        cache.get_or_build("b", || Ok(2)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_builds_are_not_pinned() {
        let cache: AppCache<u32> = AppCache::new();
        let err = cache.get_or_build("k", || Err("boom".to_string()));
        assert_eq!(err.unwrap_err(), "boom");
        let ok = cache.get_or_build("k", || Ok(7)).unwrap();
        assert_eq!(*ok, 7);
        assert_eq!(cache.misses(), 2, "the retry runs the builder again");
    }

    #[test]
    fn concurrent_lookups_build_exactly_once() {
        let cache: Arc<AppCache<u64>> = Arc::new(AppCache::new());
        let builds = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..32)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || {
                    *cache
                        .get_or_build("shared", || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so every thread is in
                            // flight before the builder finishes.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(42)
                        })
                        .unwrap()
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().unwrap(), 42);
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 31);
    }
}
