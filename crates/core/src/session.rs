//! The server-side query cache.
//!
//! Paper §3.3: "The server caches users' initial spatial keyword queries
//! until users give up asking follow-up 'why-not' questions." A
//! [`SessionStore`] maps session ids to the cached initial query (its
//! result is not kept: every why-not module recomputes what it needs from
//! the query on the pinned epoch); entries are explicitly removed when the
//! user gives up, or evicted after a time-to-live.
//!
//! **Eviction contract.** No call pays for sessions other than its own
//! (only the scrape-side [`SessionStore::len_and_count_where`] walks the
//! map). Every touch appends `(touched_at, id)` to one FIFO; the TTL is
//! the same for every session, so that FIFO is ordered by deadline *and*
//! by recency at once:
//!
//! * **amortised on every call** — `create`, `get`, `remove`, `len` and
//!   `len_and_count_where` first pop the expired prefix of the FIFO, so
//!   a server that never sweeps stays bounded, counts only live
//!   sessions, and releases expired pins on any session traffic;
//! * **lazy on `get`** — a session idle for the TTL or longer is `None`
//!   (and dropped) whether or not anything has swept it yet;
//! * **count cap, LRU** — at [`MAX_SESSIONS`] live sessions, `create`
//!   evicts from the same FIFO front, i.e. the least recently touched;
//! * **sweeper for idle servers** — [`SessionStore::evict_expired`] pops
//!   the expired prefix too, O(expired), so a periodic sweep releases
//!   pins when nothing calls the store at all.
//!
//! A FIFO entry whose time no longer matches its session's last touch
//! is stale and skipped when popped; the FIFO is compacted once stale
//! entries outnumber live sessions, so its length stays O(live).
//!
//! **Epoch pinning.** A session may carry an opaque *pin* — the layer
//! above stores the engine-epoch handle its initial query ran against
//! ([`SessionStore::create_pinned`]), so follow-up why-not questions keep
//! answering over exactly that corpus version even after later deletes
//! touch the cited objects. The pin is `Arc<dyn Any>` because this crate
//! sits below the execution layer that owns the epoch type; dropping the
//! session (give-up, TTL or cap eviction) releases the pinned epoch.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use yask_query::Query;

/// Most sessions a store holds at once; beyond it, `create` evicts the
/// least recently touched one. A session costs about 200 bytes with its
/// map and queue entries, so this bounds the store to ~6.5 MB. Sized to
/// the memory budget, not to a caller: at ~18k queries/s and a 5 s TTL
/// about 90k sessions would be live, which measured 61–62 MB process
/// peak against a ~55 MB budget on the cached-hit benchmark.
pub const MAX_SESSIONS: usize = 32_768;

/// Opaque session identifier handed to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One cached initial query. Immutable once cached: the store hands out
/// `Arc<Session>`, and keeps the last-touch time itself.
pub struct Session {
    /// The session id.
    pub id: SessionId,
    /// The cached initial query.
    pub query: Query,
    /// Opaque engine-epoch pin (see the module docs); `None` for
    /// sessions that answer against the live engine.
    pub pin: Option<Arc<dyn Any + Send + Sync>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("query", &self.query)
            .field("pinned", &self.pin.is_some())
            .finish()
    }
}

/// Sessions the store dropped on its own, by reason (explicit removals
/// are not counted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Evictions {
    /// Idle for the time-to-live or longer.
    pub ttl: u64,
    /// Least recently touched when a create hit the count cap.
    pub cap: u64,
}

struct Entry {
    session: Arc<Session>,
    /// Last touch, in nanoseconds since the store's `origin`.
    touched: u64,
}

struct Inner {
    /// Keyed by id. A B-tree, not a hash map: ids are handed out in
    /// increasing order and mostly leave oldest-first, so inserts land on
    /// the right edge and evictions empty whole leaves on the left, where
    /// an open-addressing table fills with tombstones and doubles.
    map: BTreeMap<u64, Entry>,
    /// `(touched, id)` in touch order; see the module docs.
    queue: VecDeque<(u64, u64)>,
    evicted: Evictions,
    /// Queue entries popped or scanned by compaction (the scale test's
    /// work count).
    #[cfg(test)]
    examined: u64,
}

impl Inner {
    fn pop_front(&mut self) -> Option<(u64, u64)> {
        #[cfg(test)]
        {
            self.examined += 1;
        }
        self.queue.pop_front()
    }

    /// Removes the session a popped queue entry names, unless the entry
    /// is stale (the session was touched again, removed or evicted).
    fn take_current(&mut self, (touched, id): (u64, u64)) -> Option<Arc<Session>> {
        match self.map.get(&id) {
            Some(e) if e.touched == touched => self.map.remove(&id).map(|e| e.session),
            _ => None,
        }
    }

    /// Pops the expired prefix of the queue into `dead`. Amortised O(1):
    /// each queue entry is popped once.
    fn expire(&mut self, now: u64, ttl: u64, dead: &mut Vec<Arc<Session>>) {
        while self.queue.front().is_some_and(|&(touched, _)| now.saturating_sub(touched) >= ttl) {
            let entry = self.pop_front().expect("front exists");
            if let Some(session) = self.take_current(entry) {
                self.evicted.ttl += 1;
                dead.push(session);
            }
        }
    }

    /// Evicts least recently touched sessions into `dead` until one more
    /// fits under `cap`.
    fn make_room(&mut self, cap: usize, dead: &mut Vec<Arc<Session>>) {
        while self.map.len() >= cap {
            let Some(entry) = self.pop_front() else { break };
            if let Some(session) = self.take_current(entry) {
                self.evicted.cap += 1;
                dead.push(session);
            }
        }
    }

    /// Drops stale queue entries once they outnumber the live sessions.
    /// Every live session has exactly one current entry, so afterwards
    /// the queue holds exactly the live sessions, and the next compaction
    /// is at least that many pushes away.
    fn compact_if_stale(&mut self) {
        if self.queue.len() <= 2 * self.map.len() {
            return;
        }
        #[cfg(test)]
        {
            self.examined += self.queue.len() as u64;
        }
        let map = &self.map;
        self.queue.retain(|(touched, id)| map.get(id).is_some_and(|e| e.touched == *touched));
    }
}

/// Thread-safe session cache with TTL and count-cap (LRU) eviction.
pub struct SessionStore {
    inner: Mutex<Inner>,
    next_id: AtomicU64,
    /// Tick zero: times are stored as nanoseconds since this instant,
    /// half the bytes of an `Instant` in both the map and the queue.
    origin: Instant,
    /// The time-to-live, in ticks.
    ttl: u64,
    max_sessions: usize,
}

impl SessionStore {
    /// Creates a store whose entries expire `ttl` after their last touch
    /// and which holds at most [`MAX_SESSIONS`] at a time.
    pub fn new(ttl: Duration) -> Self {
        SessionStore {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                queue: VecDeque::new(),
                evicted: Evictions::default(),
                #[cfg(test)]
                examined: 0,
            }),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
            ttl: u64::try_from(ttl.as_nanos()).unwrap_or(u64::MAX),
            max_sessions: MAX_SESSIONS,
        }
    }

    /// [`SessionStore::new`] with a smaller count cap.
    #[cfg(test)]
    fn with_cap(ttl: Duration, max_sessions: usize) -> Self {
        SessionStore { max_sessions, ..SessionStore::new(ttl) }
    }

    fn tick(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Locks the store after popping its expired prefix into `dead`.
    /// Callers declare `dead` before the guard, so evicted sessions —
    /// whose pins may hold the last reference to a whole epoch — drop
    /// after unlock.
    fn lock_expired(&self, now: u64, dead: &mut Vec<Arc<Session>>) -> MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock();
        inner.expire(now, self.ttl, dead);
        inner
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> Duration {
        Duration::from_nanos(self.ttl)
    }

    /// Caches an initial query; returns the session id.
    pub fn create(&self, query: Query) -> SessionId {
        self.create_at(query, None, Instant::now())
    }

    /// [`SessionStore::create`] pinning an opaque engine-epoch handle
    /// that follow-up questions answer against.
    pub fn create_pinned(&self, query: Query, pin: Arc<dyn Any + Send + Sync>) -> SessionId {
        self.create_at(query, Some(pin), Instant::now())
    }

    fn create_at(
        &self,
        query: Query,
        pin: Option<Arc<dyn Any + Send + Sync>>,
        now: Instant,
    ) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let session = Arc::new(Session { id, query, pin });
        let now = self.tick(now);
        let mut dead = Vec::new();
        let mut inner = self.lock_expired(now, &mut dead);
        inner.make_room(self.max_sessions, &mut dead);
        inner.map.insert(id.0, Entry { session, touched: now });
        inner.queue.push_back((now, id.0));
        inner.compact_if_stale();
        id
    }

    /// `(live sessions, sessions matching pred)` read under one lock in
    /// one pass, so the two numbers of a scrape cannot disagree — e.g.
    /// "how many sessions pin an epoch older than the current one".
    /// O(live): meant for `/stats`-style scrapes, not request paths.
    pub fn len_and_count_where(&self, pred: impl Fn(&Session) -> bool) -> (usize, usize) {
        let mut dead = Vec::new();
        let inner = self.lock_expired(self.tick(Instant::now()), &mut dead);
        let matching = inner.map.values().filter(|e| pred(&e.session)).count();
        (inner.map.len(), matching)
    }

    /// Sessions evicted so far, by reason.
    pub fn evictions(&self) -> Evictions {
        self.inner.lock().evicted
    }

    /// Fetches (and touches) a session; `None` when it is unknown or has
    /// been idle for the TTL or longer.
    pub fn get(&self, id: SessionId) -> Option<Arc<Session>> {
        self.get_at(id, Instant::now())
    }

    fn get_at(&self, id: SessionId, now: Instant) -> Option<Arc<Session>> {
        let now = self.tick(now);
        let mut dead = Vec::new();
        let mut guard = self.lock_expired(now, &mut dead);
        let inner = &mut *guard;
        let entry = inner.map.get_mut(&id.0)?;
        // The prefix pop can stop short of a session that expired a few
        // ticks behind an out-of-order push; check this one exactly.
        if now.saturating_sub(entry.touched) >= self.ttl {
            dead.extend(inner.map.remove(&id.0).map(|e| e.session));
            inner.evicted.ttl += 1;
            inner.compact_if_stale();
            return None;
        }
        let session = Arc::clone(&entry.session);
        // Never move a touch backwards (callers read the clock before
        // they lock); an unchanged touch keeps its queue entry.
        if now > entry.touched {
            entry.touched = now;
            inner.queue.push_back((now, id.0));
            inner.compact_if_stale();
        }
        Some(session)
    }

    /// Removes a session ("the user gave up asking why-not questions").
    pub fn remove(&self, id: SessionId) -> bool {
        let mut dead = Vec::new();
        let mut inner = self.lock_expired(self.tick(Instant::now()), &mut dead);
        let removed = inner.map.remove(&id.0);
        inner.compact_if_stale();
        drop(inner);
        removed.is_some()
    }

    /// Evicts every session idle for the TTL or longer; returns the
    /// count. O(expired): it pops only the expired prefix of the queue.
    pub fn evict_expired(&self) -> usize {
        self.evict_expired_at(Instant::now())
    }

    fn evict_expired_at(&self, now: Instant) -> usize {
        let mut dead = Vec::new();
        self.lock_expired(self.tick(now), &mut dead).compact_if_stale();
        dead.len()
    }

    /// Live session count (expires the front first, so sessions past
    /// their TTL are not counted).
    pub fn len(&self) -> usize {
        self.len_at(Instant::now())
    }

    fn len_at(&self, now: Instant) -> usize {
        let mut dead = Vec::new();
        let live = self.lock_expired(self.tick(now), &mut dead).map.len();
        live
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
        let id = store.create(query());
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
        let a = store.create(query());
        let b = store.create(query());
        assert!(b > a);
    }

    #[test]
    fn eviction_respects_ttl() {
        let store = SessionStore::new(Duration::from_millis(10));
        let t0 = Instant::now();
        let id = store.create_at(query(), None, t0);
        assert_eq!(store.evict_expired_at(t0 + Duration::from_millis(9)), 0);
        assert_eq!(store.evict_expired_at(t0 + Duration::from_millis(10)), 1);
        assert!(store.get_at(id, t0 + Duration::from_millis(10)).is_none());
        assert_eq!(store.evictions(), Evictions { ttl: 1, cap: 0 });
    }

    #[test]
    fn touching_defers_eviction() {
        let store = SessionStore::new(Duration::from_millis(50));
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let id = store.create_at(query(), None, t0);
        assert!(store.get_at(id, ms(30)).is_some()); // touch resets the idle clock
        assert_eq!(store.evict_expired_at(ms(60)), 0, "recently touched session evicted");
        assert_eq!(store.evict_expired_at(ms(80)), 1);
    }

    #[test]
    fn expired_session_is_gone_from_get_before_any_sweep() {
        let store = SessionStore::new(Duration::from_secs(5));
        let t0 = Instant::now();
        let id = store.create_at(query(), None, t0);
        assert!(store.get_at(id, t0 + Duration::from_millis(4_999)).is_some());
        // Five seconds after that touch: expired, though nothing swept.
        assert!(store.get_at(id, t0 + Duration::from_millis(9_999)).is_none());
        assert!(store.is_empty(), "the lazy expiry drops the session");
        assert_eq!(store.evictions(), Evictions { ttl: 1, cap: 0 });
    }

    #[test]
    fn create_expires_without_a_sweeper() {
        let store = SessionStore::new(Duration::from_secs(5));
        let t0 = Instant::now();
        let old = store.create_at(query(), None, t0);
        store.create_at(query(), None, t0 + Duration::from_secs(6));
        assert_eq!(store.len(), 1);
        assert!(store.get(old).is_none());
        assert_eq!(store.evictions(), Evictions { ttl: 1, cap: 0 });
    }

    /// Any call expires the front, not only `create`: a lookup of some
    /// other session, or a count, releases an expired session's pin.
    #[test]
    fn every_call_releases_expired_pins() {
        let store = SessionStore::new(Duration::from_secs(5));
        let t0 = Instant::now();
        let s = |n| t0 + Duration::from_secs(n);
        for probe in [
            (|store: &SessionStore, now| drop(store.get_at(SessionId(u64::MAX), now))) as fn(&SessionStore, Instant),
            |store, now| assert_eq!(store.len_at(now), 0, "expired session counted"),
        ] {
            let pin: Arc<dyn Any + Send + Sync> = Arc::new(7u64);
            let weak = Arc::downgrade(&pin);
            store.create_at(query(), Some(pin), s(0));
            probe(&store, s(10));
            assert!(weak.upgrade().is_none(), "expired pin still held");
            assert!(store.is_empty());
        }
        assert_eq!(store.evictions(), Evictions { ttl: 2, cap: 0 });
    }

    #[test]
    fn cap_evicts_the_least_recently_touched() {
        let store = SessionStore::with_cap(Duration::from_secs(60), 3);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let a = store.create_at(query(), None, ms(1));
        let b = store.create_at(query(), None, ms(2));
        let c = store.create_at(query(), None, ms(3));
        // Touching the oldest makes the second-oldest the LRU victim.
        assert!(store.get_at(a, ms(4)).is_some());
        let d = store.create_at(query(), None, ms(5));
        assert_eq!(store.len(), 3);
        assert!(store.get_at(b, ms(6)).is_none(), "b was least recently touched");
        for id in [a, c, d] {
            assert!(store.get_at(id, ms(7)).is_some(), "{id} evicted");
        }
        assert_eq!(store.evictions(), Evictions { ttl: 0, cap: 1 });
    }

    /// 10⁶ creates (and half as many touches) against a 10 000 cap: the
    /// store and its queue stay bounded, and the queue work per
    /// operation stays constant — counted, not timed.
    #[test]
    fn a_million_creates_stay_under_the_cap() {
        const CAP: usize = 10_000;
        const CREATES: u64 = 1_000_000;
        let store = SessionStore::with_cap(Duration::from_secs(3600), CAP);
        let t0 = Instant::now();
        let q = query();
        let mut ops = 0u64;
        for i in 0..CREATES {
            let now = t0 + Duration::from_micros(i);
            let id = store.create_at(q.clone(), None, now);
            ops += 1;
            // Re-touch a recent session every other create: stale queue
            // entries accumulate and must be compacted away.
            if i % 2 == 0 && id.0 > 100 {
                store.get_at(SessionId(id.0 - 100), now);
                ops += 1;
            }
            let inner = store.inner.lock();
            assert!(inner.map.len() <= CAP);
            assert!(inner.queue.len() <= 2 * CAP + 1, "queue {}", inner.queue.len());
        }
        let inner = store.inner.lock();
        assert_eq!(inner.map.len(), CAP);
        assert_eq!(inner.evicted.cap, CREATES - CAP as u64);
        assert_eq!(inner.evicted.ttl, 0);
        let per_op = inner.examined as f64 / ops as f64;
        assert!(per_op <= 2.0, "{per_op:.3} queue entries examined per operation");
    }

    #[test]
    fn pinned_sessions_carry_and_release_their_pin() {
        let store = SessionStore::new(Duration::from_secs(60));
        let pin: Arc<dyn Any + Send + Sync> = Arc::new(42u64);
        let weak = Arc::downgrade(&pin);
        let plain = store.create(query());
        let pinned = store.create_pinned(query(), pin);
        assert!(store.get(plain).unwrap().pin.is_none());
        let got = store.get(pinned).unwrap().pin.clone().expect("pin survives");
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
                (0..100).map(|_| store.create(query()).0).collect::<Vec<u64>>()
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
