//! The server-side query cache.
//!
//! Paper §3.3: "The server caches users' initial spatial keyword queries
//! until users give up asking follow-up 'why-not' questions." A
//! [`SessionStore`] maps session ids to the cached initial query and its
//! result; entries are explicitly removed when the user gives up, or
//! evicted after a time-to-live.
//!
//! **Epoch pinning.** A session may carry an opaque *pin* — the layer
//! above stores the engine-epoch handle its initial query ran against
//! ([`SessionStore::create_pinned`]), so follow-up why-not questions keep
//! answering over exactly that corpus version even after later deletes
//! touch the cited objects. The pin is `Arc<dyn Any>` because this crate
//! sits below the execution layer that owns the epoch type; dropping the
//! session (give-up, TTL eviction) releases the pinned epoch.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use yask_query::{Query, RankedObject};

/// Opaque session identifier handed to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One cached initial query with its result.
#[derive(Clone)]
pub struct Session {
    /// The session id.
    pub id: SessionId,
    /// The cached initial query.
    pub query: Query,
    /// The initial query's result (green markers in the demo UI).
    pub result: Vec<RankedObject>,
    /// Creation time.
    pub created_at: Instant,
    /// Last access time (refreshed by [`SessionStore::get`]).
    pub last_touched: Instant,
    /// Opaque engine-epoch pin (see the module docs); `None` for
    /// sessions that answer against the live engine.
    pub pin: Option<Arc<dyn Any + Send + Sync>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("query", &self.query)
            .field("results", &self.result.len())
            .field("pinned", &self.pin.is_some())
            .finish()
    }
}

/// Thread-safe session cache with TTL eviction.
pub struct SessionStore {
    sessions: Mutex<HashMap<u64, Session>>,
    next_id: AtomicU64,
    ttl: Duration,
}

impl SessionStore {
    /// Creates a store whose entries expire `ttl` after their last touch.
    pub fn new(ttl: Duration) -> Self {
        SessionStore {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            ttl,
        }
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Caches an initial query and its result; returns the session id.
    pub fn create(&self, query: Query, result: Vec<RankedObject>) -> SessionId {
        self.create_with_pin(query, result, None)
    }

    /// [`SessionStore::create`] pinning an opaque engine-epoch handle
    /// that follow-up questions answer against.
    pub fn create_pinned(
        &self,
        query: Query,
        result: Vec<RankedObject>,
        pin: Arc<dyn Any + Send + Sync>,
    ) -> SessionId {
        self.create_with_pin(query, result, Some(pin))
    }

    fn create_with_pin(
        &self,
        query: Query,
        result: Vec<RankedObject>,
        pin: Option<Arc<dyn Any + Send + Sync>>,
    ) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let now = Instant::now();
        self.sessions.lock().insert(
            id.0,
            Session {
                id,
                query,
                result,
                created_at: now,
                last_touched: now,
                pin,
            },
        );
        id
    }

    /// `(live sessions, sessions matching pred)` read under one lock in
    /// one pass, so the two numbers of a scrape cannot disagree — e.g.
    /// "how many sessions pin an epoch older than the current one".
    pub fn len_and_count_where(&self, pred: impl Fn(&Session) -> bool) -> (usize, usize) {
        let sessions = self.sessions.lock();
        (sessions.len(), sessions.values().filter(|s| pred(s)).count())
    }

    /// Fetches (and touches) a session.
    pub fn get(&self, id: SessionId) -> Option<Session> {
        let mut guard = self.sessions.lock();
        let s = guard.get_mut(&id.0)?;
        s.last_touched = Instant::now();
        Some(s.clone())
    }

    /// Removes a session ("the user gave up asking why-not questions").
    pub fn remove(&self, id: SessionId) -> bool {
        self.sessions.lock().remove(&id.0).is_some()
    }

    /// Evicts every session idle longer than the TTL; returns the count.
    pub fn evict_expired(&self) -> usize {
        let cutoff = Instant::now();
        let mut guard = self.sessions.lock();
        let before = guard.len();
        let ttl = self.ttl;
        guard.retain(|_, s| cutoff.duration_since(s.last_touched) < ttl);
        before - guard.len()
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// True when no sessions are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yask_geo::Point;
    use yask_text::KeywordSet;

    fn query() -> Query {
        Query::new(Point::new(0.0, 0.0), KeywordSet::from_raw([1]), 3)
    }

    #[test]
    fn create_get_remove_round_trip() {
        let store = SessionStore::new(Duration::from_secs(60));
        let id = store.create(query(), vec![]);
        assert_eq!(store.len(), 1);
        let s = store.get(id).unwrap();
        assert_eq!(s.id, id);
        assert_eq!(s.query.k, 3);
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert!(store.get(id).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let store = SessionStore::new(Duration::from_secs(60));
        let a = store.create(query(), vec![]);
        let b = store.create(query(), vec![]);
        assert!(b > a);
    }

    #[test]
    fn eviction_respects_ttl() {
        let store = SessionStore::new(Duration::from_millis(10));
        let id = store.create(query(), vec![]);
        assert_eq!(store.evict_expired(), 0);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(store.evict_expired(), 1);
        assert!(store.get(id).is_none());
    }

    #[test]
    fn touching_defers_eviction() {
        let store = SessionStore::new(Duration::from_millis(50));
        let id = store.create(query(), vec![]);
        std::thread::sleep(Duration::from_millis(30));
        assert!(store.get(id).is_some()); // touch resets the idle clock
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(store.evict_expired(), 0, "recently touched session evicted");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(store.evict_expired(), 1);
    }

    #[test]
    fn pinned_sessions_carry_and_release_their_pin() {
        let store = SessionStore::new(Duration::from_secs(60));
        let pin: Arc<dyn Any + Send + Sync> = Arc::new(42u64);
        let weak = Arc::downgrade(&pin);
        let plain = store.create(query(), vec![]);
        let pinned = store.create_pinned(query(), vec![], pin);
        assert!(store.get(plain).unwrap().pin.is_none());
        let got = store.get(pinned).unwrap().pin.expect("pin survives");
        assert_eq!(got.downcast_ref::<u64>(), Some(&42));
        assert_eq!(store.len_and_count_where(|s| s.pin.is_some()), (2, 1));
        drop(got);
        // Dropping the session releases the pinned payload.
        assert!(store.remove(pinned));
        assert!(weak.upgrade().is_none(), "pin must be released with the session");
    }

    #[test]
    fn concurrent_creates_do_not_collide() {
        let store = std::sync::Arc::new(SessionStore::new(Duration::from_secs(60)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| store.create(query(), vec![]).0).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate session ids");
        assert_eq!(store.len(), n);
    }
}
