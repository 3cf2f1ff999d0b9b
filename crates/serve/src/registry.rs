//! Byte-budgeted LRU registry of prefactored sessions:
//! [`SessionRegistry`].
//!
//! The daemon keys one [`SharedSession`] per geometry hash (see
//! [`StackSpec::geometry_hash`](crate::proto::StackSpec::geometry_hash)).
//! Factorizations are the server's dominant memory consumer, so the
//! registry enforces a byte budget: whenever an insert pushes the total
//! past it, idle sessions are evicted least-recently-used-first until
//! the total fits (or nothing idle remains). A session is *idle* when
//! the registry holds the only [`Arc`] to it **and** none of its scratch
//! slots are checked out — a session serving an in-flight request is
//! never evicted, even if that leaves the registry over budget until the
//! request completes.
//!
//! Byte accounting uses [`SharedSession::memory_bytes`]. A session grows
//! after insert — its first Rb3d or Pcg request builds that engine, and
//! a slot's first request to a backend sizes its buffers — so the
//! registry re-reads an entry's bytes whenever [`SessionRegistry::get`]
//! touches it, and every entry's in [`SessionRegistry::enforce_budget`],
//! evicting idle sessions if the growth pushed the total past the
//! budget. The running total is always the sum of the entries' last
//! readings.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use voltprop_core::SharedSession;

/// One cached session plus its LRU bookkeeping.
#[derive(Debug)]
struct Entry {
    session: Arc<SharedSession>,
    /// Footprint at the last reading ([`SharedSession::memory_bytes`]:
    /// at insert, then at every `get` and `enforce_budget`).
    bytes: usize,
    /// Logical timestamp of the last `get`/insert touch.
    last_used: u64,
}

/// The registry's interior state, behind one mutex.
#[derive(Debug, Default)]
struct State {
    entries: HashMap<u64, Entry>,
    /// Monotonic logical clock advanced on every touch.
    clock: u64,
    /// Sum of every entry's `bytes`.
    total_bytes: usize,
    /// Sessions evicted since construction.
    evictions: u64,
}

/// Point-in-time statistics of a [`SessionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Cached sessions.
    pub sessions: usize,
    /// Sum of the cached sessions' footprints.
    pub total_bytes: usize,
    /// The configured budget (`usize::MAX` when unbounded).
    pub budget_bytes: usize,
    /// Sessions evicted since the registry was created.
    pub evictions: u64,
}

/// A concurrent map from geometry hash to [`Arc<SharedSession>`] with a
/// byte budget enforced by LRU eviction of idle sessions. See the
/// [module docs](self) for the eviction contract.
#[derive(Debug)]
pub struct SessionRegistry {
    budget_bytes: usize,
    state: Mutex<State>,
}

/// Recovers a poisoned registry mutex: the critical sections only touch
/// the map, counters, and the clock — no multi-step invariant can be
/// left torn — so continuing with the recovered state is sound.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SessionRegistry {
    /// A registry evicting down to `budget_bytes` (use `usize::MAX` for
    /// the unbounded behavior of earlier releases).
    pub fn new(budget_bytes: usize) -> SessionRegistry {
        SessionRegistry {
            budget_bytes,
            state: Mutex::new(State::default()),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The cached session for `hash`, refreshing its recency and
    /// re-reading its bytes (evicting idle sessions if they grew past the
    /// budget; the returned session is pinned by the caller's `Arc`).
    /// `None` on a miss.
    pub fn get(&self, hash: u64) -> Option<Arc<SharedSession>> {
        let mut state = lock_recover(&self.state);
        state.clock += 1;
        let clock = state.clock;
        let entry = state.entries.get_mut(&hash)?;
        entry.last_used = clock;
        let session = Arc::clone(&entry.session);
        let (old, new) = (entry.bytes, session.memory_bytes());
        entry.bytes = new;
        state.total_bytes = state.total_bytes - old + new;
        Self::evict_to_budget(&mut state, self.budget_bytes);
        Some(session)
    }

    /// Inserts a freshly built session, returning the one actually
    /// cached: when another thread won the build race for the same hash,
    /// the incumbent is kept (and `session` dropped) so both requesters
    /// share one factorization. Enforces the byte budget afterwards —
    /// the inserted/returned session itself is safe from this pass,
    /// because the caller's `Arc` clone pins it.
    pub fn insert(&self, hash: u64, session: Arc<SharedSession>) -> Arc<SharedSession> {
        let mut state = lock_recover(&self.state);
        state.clock += 1;
        let clock = state.clock;
        let kept = match state.entries.get_mut(&hash) {
            Some(incumbent) => {
                incumbent.last_used = clock;
                Arc::clone(&incumbent.session)
            }
            None => {
                let bytes = session.memory_bytes();
                state.total_bytes += bytes;
                state.entries.insert(
                    hash,
                    Entry {
                        session: Arc::clone(&session),
                        bytes,
                        last_used: clock,
                    },
                );
                session
            }
        };
        Self::evict_to_budget(&mut state, self.budget_bytes);
        kept
    }

    /// Evicts idle sessions, least recently used first, until
    /// `total_bytes <= budget` or no entry is evictable. An entry is
    /// evictable only when the registry holds the session's sole `Arc`
    /// and no scratch is checked out.
    fn evict_to_budget(state: &mut State, budget: usize) {
        while state.total_bytes > budget {
            let victim = state
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.session) == 1 && e.session.in_flight() == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&hash, _)| hash);
            match victim {
                Some(hash) => {
                    let entry = state.entries.remove(&hash).expect("victim present");
                    state.total_bytes -= entry.bytes;
                    state.evictions += 1;
                }
                // Everything left is in use; stay over budget until the
                // in-flight requests drain rather than evict live work.
                None => break,
            }
        }
    }

    /// Unconditionally replaces the entry for `hash` (the hash-collision
    /// escape hatch: a cached session that does not serve the request's
    /// actual geometry must give way). The displaced session is dropped
    /// without counting as an eviction; budget enforcement runs as in
    /// [`SessionRegistry::insert`].
    pub fn replace(&self, hash: u64, session: Arc<SharedSession>) -> Arc<SharedSession> {
        let mut state = lock_recover(&self.state);
        state.clock += 1;
        let clock = state.clock;
        if let Some(old) = state.entries.remove(&hash) {
            state.total_bytes -= old.bytes;
        }
        let bytes = session.memory_bytes();
        state.total_bytes += bytes;
        state.entries.insert(
            hash,
            Entry {
                session: Arc::clone(&session),
                bytes,
                last_used: clock,
            },
        );
        Self::evict_to_budget(&mut state, self.budget_bytes);
        session
    }

    /// Re-reads every entry's bytes and re-runs budget enforcement
    /// without inserting (e.g. after requests drain, from a maintenance
    /// tick).
    pub fn enforce_budget(&self) {
        let mut state = lock_recover(&self.state);
        let mut total = 0;
        for entry in state.entries.values_mut() {
            entry.bytes = entry.session.memory_bytes();
            total += entry.bytes;
        }
        state.total_bytes = total;
        Self::evict_to_budget(&mut state, self.budget_bytes);
    }

    /// Current statistics (sessions, bytes, budget, evictions).
    pub fn stats(&self) -> RegistryStats {
        let state = lock_recover(&self.state);
        RegistryStats {
            sessions: state.entries.len(),
            total_bytes: state.total_bytes,
            budget_bytes: self.budget_bytes,
            evictions: state.evictions,
        }
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).entries.len()
    }

    /// Whether no session is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `hash` is cached (without refreshing recency).
    pub fn contains(&self, hash: u64) -> bool {
        lock_recover(&self.state).entries.contains_key(&hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltprop_core::VpConfig;
    use voltprop_grid::Stack3d;

    fn session(width: usize) -> Arc<SharedSession> {
        let stack = Stack3d::builder(width, width, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        Arc::new(SharedSession::build(&stack, VpConfig::default(), 1).unwrap())
    }

    #[test]
    fn unbounded_registry_never_evicts() {
        let reg = SessionRegistry::new(usize::MAX);
        for hash in 0..4u64 {
            reg.insert(hash, session(6));
        }
        let stats = reg.stats();
        assert_eq!(stats.sessions, 4);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn byte_accounting_matches_memory_bytes() {
        let reg = SessionRegistry::new(usize::MAX);
        let a = reg.insert(1, session(6));
        let b = reg.insert(2, session(8));
        assert_eq!(reg.stats().total_bytes, a.memory_bytes() + b.memory_bytes());
    }

    #[test]
    fn insert_race_keeps_the_incumbent() {
        let reg = SessionRegistry::new(usize::MAX);
        let first = reg.insert(7, session(6));
        let kept = reg.insert(7, session(6));
        assert!(Arc::ptr_eq(&first, &kept), "loser of the race is dropped");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stats().total_bytes, first.memory_bytes());
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Budget that fits roughly two sessions of this size.
        let probe = session(6);
        let budget = probe.memory_bytes() * 2 + probe.memory_bytes() / 2;
        drop(probe);
        let reg = SessionRegistry::new(budget);
        reg.insert(1, session(6));
        reg.insert(2, session(6));
        // Touch 1 so 2 becomes the LRU, then force an eviction with 3.
        assert!(reg.get(1).is_some());
        reg.insert(3, session(6));
        assert!(reg.contains(1), "recently used survives");
        assert!(!reg.contains(2), "LRU entry is evicted");
        assert!(reg.contains(3), "new entry survives its own insert");
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.total_bytes <= budget);
    }

    #[test]
    fn a_lazy_build_past_the_budget_evicts_the_idle_lru_session() {
        let stack = Stack3d::builder(6, 6, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let pcg = voltprop_core::LoadCase::new(&stack).backend(voltprop_core::Backend::Pcg);
        // A probe measures a session before and after its first Pcg
        // request, which builds the engine in its core.
        let probe = session(6);
        let fresh = probe.memory_bytes();
        drop(probe.solve(&pcg).unwrap());
        let grown = probe.memory_bytes();
        assert!(grown > fresh * 3 / 2, "the build adds bytes");
        // Room for two fresh sessions, or for the grown one alone.
        let reg = SessionRegistry::new(grown + fresh / 2);
        reg.insert(1, session(6));
        reg.insert(2, session(6));
        assert_eq!(reg.stats().evictions, 0, "two fresh sessions fit");
        let two = reg.get(2).unwrap();
        drop(two.solve(&pcg).unwrap());
        assert_eq!(two.memory_bytes(), grown);
        drop(two);
        assert!(reg.contains(1) && reg.contains(2), "growth is not yet read");
        reg.enforce_budget();
        assert!(
            !reg.contains(1),
            "the idle least-recently-used session goes"
        );
        assert!(reg.contains(2));
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.total_bytes, grown);
    }

    #[test]
    fn in_use_sessions_are_pinned() {
        let reg = SessionRegistry::new(0); // evict everything idle
        let held = reg.insert(1, session(6));
        // The caller's Arc pins hash 1 despite the zero budget.
        assert!(reg.contains(1));
        // A second insert's own handle pins it too; hash 1 still held.
        let second = reg.insert(2, session(6));
        assert!(reg.contains(1) && reg.contains(2));
        // Dropping the handles unpins: the next enforcement clears both.
        drop(held);
        drop(second);
        reg.enforce_budget();
        assert!(reg.is_empty());
        assert_eq!(reg.stats().evictions, 2);
        assert_eq!(reg.stats().total_bytes, 0);
    }

    #[test]
    fn checked_out_scratch_pins_even_without_an_arc() {
        let reg = SessionRegistry::new(0);
        let arc = reg.insert(1, session(6));
        let stack = Stack3d::builder(6, 6, 2)
            .uniform_load(1e-4)
            .build()
            .unwrap();
        let sol = arc.solve(&voltprop_core::LoadCase::new(&stack)).unwrap();
        // Leak the guard so the scratch stays checked out after the Arc
        // is gone — the pathological state the `in_flight` guard is for.
        std::mem::forget(sol);
        drop(arc); // registry now holds the only Arc…
        assert_eq!(reg.get(1).map(|s| s.in_flight()), Some(1));
        reg.enforce_budget();
        assert!(
            reg.contains(1),
            "a session with a checked-out scratch must never be evicted"
        );
    }
}
