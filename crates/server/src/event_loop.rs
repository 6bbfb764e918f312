//! The readiness-based connection loop (epoll via the `polling` shim).
//!
//! One loop thread owns every socket: it accepts nonblocking, reads
//! request bytes into per-connection buffers, parses complete requests
//! off them with `crate::http::try_parse` (the one request parser),
//! and dispatches them to a fixed worker pool. Workers run the handler and send serialized response
//! bytes back over a completion channel; the loop flushes them **in
//! request order** per connection via vectored writes. An idle
//! keep-alive connection therefore costs one registered fd and a few
//! hundred buffered bytes — not a parked worker thread, which is what
//! lets ≤ pool-size workers serve thousands of idle connections.
//!
//! ```text
//!             ┌────────────┐   jobs (token, seq, request)
//!   epoll ──▶ │ loop thread│ ──────────────────────────▶ workers × N
//!   events    │  accept    │ ◀────────────────────────── handler(req)
//!             │  read+parse│   done (token, seq, bytes)
//!             │  flush     │
//!             └────────────┘
//! ```
//!
//! **Connection states.** Each connection walks `reading → dispatched →
//! flushing → reading…` and exits via `draining` (close after the write
//! queue empties: request-cap reached, parse error, `connection: close`,
//! or an accept-boundary shed) or a silent close (clean client EOF, idle
//! timeout, I/O error).
//!
//! **Timeouts.** A hashed [`TimerWheel`] enforces
//! [`ConnControl::idle_timeout`](crate::http::ConnControl::idle_timeout):
//! it holds one deadline per connection, re-armed (and re-read from the
//! [`ConnPolicy`], so overload shrinks it) every time a response batch
//! finishes flushing. Expiry closes silently. Time comes from an
//! injected [`Clock`], so the wheel and the idle logic are testable
//! without real sleeps.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Interest, Poller};

use crate::http::{
    try_parse, ConnPolicy, Handler, Parsed, Request, Response, ServerHandle,
    MAX_REQUESTS_PER_CONNECTION,
};

/// Per-readable-event read budget, so one firehose connection cannot
/// starve the rest of the loop.
const READ_BUDGET: usize = 256 * 1024;

/// Timer wheel granularity. Idle timeouts are seconds-scale, so a
/// coarse wheel is plenty and keeps the idle loop at ~waking per tick
/// only while timers are armed.
const TICK: Duration = Duration::from_millis(20);

const LISTENER_TOKEN: u64 = 0;

// ---------------------------------------------------------------------------
// Clock — injectable time
// ---------------------------------------------------------------------------

/// The loop's time source. Production uses [`SystemClock`]; tests inject
/// a [`TestClock`] and advance it by hand, so idle-timeout behavior is
/// asserted without sleeping through real timeouts.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// [`Clock`] backed by [`Instant::now`].
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A manually advanced [`Clock`] for tests: time stands still until
/// [`TestClock::advance`] moves it.
pub struct TestClock {
    base: Instant,
    offset: parking_lot::Mutex<Duration>,
}

impl TestClock {
    /// A clock frozen at the current instant.
    pub fn new() -> Self {
        TestClock {
            base: Instant::now(),
            offset: parking_lot::Mutex::new(Duration::ZERO),
        }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        *self.offset.lock() += d;
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        self.base + *self.offset.lock()
    }
}

// ---------------------------------------------------------------------------
// TimerWheel — hashed wheel with lazy deletion
// ---------------------------------------------------------------------------

/// A hashed timer wheel: deadlines land in `slots[tick % N]` and expire
/// when the cursor sweeps past their tick. Cancellation is *lazy*: a
/// re-armed connection bumps its generation counter and the stale entry
/// is discarded at expiry when its generation no longer matches — O(1)
/// re-arms, no removal scans.
pub struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    granularity: Duration,
    start: Instant,
    /// Last tick already swept.
    cursor: u64,
    len: usize,
}

#[derive(Clone, Copy, Debug)]
struct WheelEntry {
    token: u64,
    generation: u64,
    deadline_tick: u64,
}

impl TimerWheel {
    /// A wheel of `slots` buckets at `granularity`, starting at `now`.
    pub fn new(slots: usize, granularity: Duration, now: Instant) -> Self {
        assert!(slots >= 2 && granularity > Duration::ZERO);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            start: now,
            cursor: 0,
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.start).as_nanos() / self.granularity.as_nanos().max(1))
            as u64
    }

    /// The tick at (or just after) `at` — deadlines round *up* so a
    /// timer never fires before its instant.
    fn tick_ceil(&self, at: Instant) -> u64 {
        let gran = self.granularity.as_nanos().max(1);
        let offset = at.saturating_duration_since(self.start).as_nanos();
        offset.div_ceil(gran) as u64
    }

    /// Arms a deadline for `(token, generation)`. A deadline already in
    /// the past lands on the next sweep.
    pub fn insert(&mut self, token: u64, generation: u64, deadline: Instant) {
        let tick = self.tick_ceil(deadline).max(self.cursor + 1);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(WheelEntry {
            token,
            generation,
            deadline_tick: tick,
        });
        self.len += 1;
    }

    /// Sweeps every tick up to `now`, returning the expired
    /// `(token, generation)` pairs. Entries whose tick lies a full wheel
    /// rotation (or more) ahead stay parked in their slot.
    pub fn expire(&mut self, now: Instant) -> Vec<(u64, u64)> {
        let target = self.tick_of(now);
        let mut fired = Vec::new();
        while self.cursor < target {
            self.cursor += 1;
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let cursor = self.cursor;
            self.slots[slot].retain(|e| {
                if e.deadline_tick <= cursor {
                    fired.push((e.token, e.generation));
                    false
                } else {
                    true
                }
            });
        }
        self.len -= fired.len();
        fired
    }

    /// Armed entries (including stale generations not yet swept).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How long the owning loop may sleep without missing a sweep:
    /// one granularity while anything is armed, `None` when empty.
    pub fn next_wake(&self) -> Option<Duration> {
        if self.is_empty() {
            None
        } else {
            Some(self.granularity)
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    read_buf: Vec<u8>,
    /// Serialized responses being flushed, oldest first.
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the queue front already written.
    write_offset: usize,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence expected on the wire — pipelined responses flush
    /// strictly in request order.
    next_flush: u64,
    /// Completed responses that arrived out of order.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched to workers, not yet completed.
    inflight: usize,
    /// Requests parsed on this connection (keep-alive cap).
    served: usize,
    /// Stop reading: client EOF, request cap, error, or `close` token.
    closed_read: bool,
    /// Close the socket once the write queue drains.
    close_after_flush: bool,
    /// Timer-wheel generation; stale wheel entries are skipped.
    generation: u64,
    /// Idle deadline (checked when the wheel fires).
    idle_deadline: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closed_read && !self.close_after_flush,
            writable: !self.write_queue.is_empty(),
        }
    }
}

/// One parsed request on its way to a worker.
struct Job {
    token: u64,
    seq: u64,
    req: Box<Request>,
    keep: bool,
}

/// One serialized response on its way back to the loop.
struct Done {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

pub(crate) fn spawn(
    listener: TcpListener,
    workers: usize,
    handler: Handler,
    policy: ConnPolicy,
) -> io::Result<ServerHandle> {
    spawn_with_clock(listener, workers, handler, policy, Arc::new(SystemClock))
}

pub(crate) fn spawn_with_clock(
    listener: TcpListener,
    workers: usize,
    handler: Handler,
    policy: ConnPolicy,
    clock: Arc<dyn Clock>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poller = Arc::new(Poller::new()?);
    #[cfg(unix)]
    let listener_fd = {
        use std::os::unix::io::AsRawFd;
        listener.as_raw_fd()
    };
    #[cfg(not(unix))]
    let listener_fd: polling::RawFd = unreachable!("event loop requires epoll");
    poller.add(listener_fd, LISTENER_TOKEN, Interest::READABLE)?;

    let stop = Arc::new(AtomicBool::new(false));
    let (job_tx, job_rx) = unbounded::<Job>();
    let (done_tx, done_rx) = unbounded::<Done>();

    let worker_handles: Vec<_> = (0..workers.max(1))
        .map(|_| {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let handler = handler.clone();
            let poller = poller.clone();
            std::thread::spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let bytes = handler(&job.req).to_bytes(job.keep);
                    let _ = done_tx.send(Done {
                        token: job.token,
                        seq: job.seq,
                        bytes,
                        close: !job.keep,
                    });
                    let _ = poller.notify();
                }
            })
        })
        .collect();
    drop(job_rx);
    drop(done_tx);

    let loop_stop = stop.clone();
    let loop_thread = std::thread::spawn(move || {
        let mut lp = EventLoop {
            listener,
            poller,
            policy,
            clock,
            job_tx: Some(job_tx),
            done_rx,
            conns: HashMap::new(),
            wheel: None,
            next_token: LISTENER_TOKEN + 1,
            events: Vec::new(),
        };
        lp.run(&loop_stop);
        // Close the job channel so workers drain and exit, then join
        // them — ServerHandle::shutdown must leave no threads behind.
        drop(lp.job_tx.take());
        drop(lp);
        for h in worker_handles {
            let _ = h.join();
        }
    });

    Ok(ServerHandle::from_parts(addr, stop, loop_thread))
}

struct EventLoop {
    listener: TcpListener,
    poller: Arc<Poller>,
    policy: ConnPolicy,
    clock: Arc<dyn Clock>,
    job_tx: Option<Sender<Job>>,
    done_rx: Receiver<Done>,
    conns: HashMap<u64, Conn>,
    /// Created lazily on the first armed timer, anchored at loop start.
    wheel: Option<TimerWheel>,
    next_token: u64,
    events: Vec<polling::Event>,
}

impl EventLoop {
    fn run(&mut self, stop: &AtomicBool) {
        self.wheel = Some(TimerWheel::new(512, TICK, self.clock.now()));
        while !stop.load(Ordering::SeqCst) {
            let timeout = self
                .wheel
                .as_ref()
                .and_then(TimerWheel::next_wake)
                .unwrap_or(Duration::from_millis(500));
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, Some(timeout));
            if stop.load(Ordering::SeqCst) {
                self.events = events;
                break;
            }

            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev.token, ev.readable, ev.writable);
                }
            }
            self.events = events;

            self.drain_completions();
            self.sweep_timers();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let control = (self.policy)();
            let token = self.next_token;
            self.next_token += 1;
            let now = self.clock.now();
            let mut conn = Conn {
                stream,
                read_buf: Vec::new(),
                write_queue: VecDeque::new(),
                write_offset: 0,
                next_seq: 0,
                next_flush: 0,
                pending: BTreeMap::new(),
                inflight: 0,
                served: 0,
                closed_read: false,
                close_after_flush: false,
                generation: 0,
                idle_deadline: now + control.idle_timeout,
                interest: Interest::READABLE,
            };
            if let Some(retry) = control.shed {
                // Accept-boundary shed: canned 503 without reading a
                // byte, then close — the overload path from PR 9.
                conn.closed_read = true;
                conn.close_after_flush = true;
                conn.write_queue.push_back(
                    Response::error(503, "server overloaded; request not read")
                        .with_retry_after(retry)
                        .to_bytes(false),
                );
                conn.interest = Interest::WRITABLE;
            }
            #[cfg(unix)]
            let fd = {
                use std::os::unix::io::AsRawFd;
                conn.stream.as_raw_fd()
            };
            #[cfg(not(unix))]
            let fd: polling::RawFd = unreachable!("event loop requires epoll");
            if self.poller.add(fd, token, conn.interest).is_err() {
                continue; // conn drops, socket closes
            }
            if let Some(w) = self.wheel.as_mut() {
                w.insert(token, conn.generation, conn.idle_deadline);
            }
            self.conns.insert(token, conn);
            // A shed response usually fits the socket buffer: flush now.
            self.flush(token);
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        if readable && self.read_ready(token) {
            return; // connection removed
        }
        if writable {
            self.flush(token);
        }
    }

    /// Reads and parses; returns `true` when the connection was removed.
    fn read_ready(&mut self, token: u64) -> bool {
        let mut jobs: Vec<Job> = Vec::new();
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return true;
            };
            if conn.closed_read {
                return false;
            }
            let mut total = 0usize;
            let mut saw_eof = false;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        total += n;
                        if total >= READ_BUDGET {
                            break; // stay fair; level-triggered epoll re-fires
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }

            // Parse every complete pipelined request off the buffer.
            while !dead && !conn.closed_read {
                match try_parse(&conn.read_buf) {
                    Parsed::NeedMore => break,
                    Parsed::Complete(req, consumed) => {
                        conn.read_buf.drain(..consumed);
                        conn.served += 1;
                        let keep =
                            req.wants_keep_alive() && conn.served < MAX_REQUESTS_PER_CONNECTION;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.inflight += 1;
                        if !keep {
                            conn.closed_read = true;
                        }
                        jobs.push(Job { token, seq, req, keep });
                    }
                    Parsed::Bad(status, msg) => {
                        // The rest of the buffer is untrustworthy: drop
                        // it, answer in sequence, close after flushing.
                        conn.read_buf.clear();
                        conn.closed_read = true;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let bytes = Response::error(status, &msg).to_bytes(false);
                        conn.pending.insert(seq, (bytes, true));
                        break;
                    }
                }
            }

            if saw_eof && !dead {
                if !conn.closed_read && !conn.read_buf.is_empty() {
                    // EOF mid-request: best-effort 400.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(
                        seq,
                        (
                            Response::error(400, "connection closed mid-request").to_bytes(false),
                            true,
                        ),
                    );
                    conn.read_buf.clear();
                }
                conn.closed_read = true;
            }
        }
        if dead {
            self.remove(token);
            return true;
        }
        if let Some(tx) = &self.job_tx {
            for job in jobs {
                let _ = tx.send(job);
            }
        }
        self.pump(token)
    }

    /// Moves in-order completed responses into the write queue and
    /// flushes. Returns `true` when the connection was removed.
    fn pump(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        while let Some((bytes, close)) = conn.pending.remove(&conn.next_flush) {
            conn.next_flush += 1;
            conn.write_queue.push_back(bytes);
            if close {
                conn.close_after_flush = true;
                conn.closed_read = true;
                conn.pending.clear();
                break;
            }
        }
        self.flush(token)
    }

    /// Vectored-writes the queue. Returns `true` when the connection was
    /// removed (fully drained and closing, peer gone, or write error).
    fn flush(&mut self, token: u64) -> bool {
        let mut dead = false;
        let mut rearm = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return true;
            };
            'write: while !conn.write_queue.is_empty() {
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity(conn.write_queue.len().min(64));
                for (i, buf) in conn.write_queue.iter().take(64).enumerate() {
                    let start = if i == 0 { conn.write_offset } else { 0 };
                    slices.push(IoSlice::new(&buf[start..]));
                }
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => {
                        dead = true;
                        break 'write;
                    }
                    Ok(mut n) => {
                        while n > 0 {
                            let front_left = conn.write_queue[0].len() - conn.write_offset;
                            if n >= front_left {
                                n -= front_left;
                                conn.write_queue.pop_front();
                                conn.write_offset = 0;
                            } else {
                                conn.write_offset += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'write,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break 'write;
                    }
                }
            }

            if !dead {
                let drained = conn.write_queue.is_empty();
                let quiesced = conn.inflight == 0 && conn.pending.is_empty();
                if drained && conn.close_after_flush {
                    dead = true;
                } else if drained && conn.closed_read && quiesced {
                    // Clean client EOF with nothing left to answer.
                    dead = true;
                } else {
                    // A response batch finishing returns the connection
                    // to idle: re-read the policy so an overloaded
                    // server shortens the keep-alive hold.
                    rearm = drained && quiesced && conn.served > 0;
                    let desired = conn.desired_interest();
                    if desired != conn.interest {
                        conn.interest = desired;
                        #[cfg(unix)]
                        {
                            use std::os::unix::io::AsRawFd;
                            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, desired);
                        }
                    }
                }
            }
        }
        if dead {
            self.remove(token);
            return true;
        }
        if rearm {
            let control = (self.policy)();
            let now = self.clock.now();
            if let Some(conn) = self.conns.get_mut(&token) {
                // Fresh generation lazily cancels the old wheel entry.
                conn.generation += 1;
                conn.idle_deadline = now + control.idle_timeout;
                let (generation, deadline) = (conn.generation, conn.idle_deadline);
                if let Some(w) = self.wheel.as_mut() {
                    w.insert(token, generation, deadline);
                }
            }
        }
        false
    }

    fn drain_completions(&mut self) {
        while let Some(done) = self.done_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue; // connection died while the handler ran
            };
            conn.inflight -= 1;
            conn.pending.insert(done.seq, (done.bytes, done.close));
            self.pump(done.token);
        }
    }

    fn sweep_timers(&mut self) {
        let now = self.clock.now();
        let Some(wheel) = self.wheel.as_mut() else {
            return;
        };
        let fired = wheel.expire(now);
        for (token, generation) in fired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.generation != generation {
                continue; // lazily cancelled: the conn was re-armed
            }
            if conn.inflight > 0 || !conn.pending.is_empty() {
                // The handler is still working — that is server time,
                // not client idle time. Push the deadline out.
                conn.generation += 1;
                conn.idle_deadline = now + (self.policy)().idle_timeout;
                let (generation, deadline) = (conn.generation, conn.idle_deadline);
                if let Some(w) = self.wheel.as_mut() {
                    w.insert(token, generation, deadline);
                }
                continue;
            }
            if now >= conn.idle_deadline {
                // Idle (or write-stalled) past the policy deadline:
                // close silently — a 400 here could be mistaken for
                // the response to a request racing the timeout.
                self.remove(token);
            }
        }
    }

    fn remove(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            #[cfg(unix)]
            {
                use std::os::unix::io::AsRawFd;
                let _ = self.poller.delete(conn.stream.as_raw_fd());
            }
            // conn.stream drops here, closing the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- clock + wheel (the injected-clock idle-timeout harness) -----------

    #[test]
    fn test_clock_advances_only_by_hand() {
        let clock = TestClock::new();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_secs(5));
        assert_eq!(clock.now(), t0 + Duration::from_secs(5));
    }

    #[test]
    fn wheel_fires_exactly_once_at_the_deadline() {
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(16, Duration::from_millis(100), clock.now());
        wheel.insert(7, 0, clock.now() + Duration::from_millis(350));
        clock.advance(Duration::from_millis(300));
        assert!(wheel.expire(clock.now()).is_empty(), "not due yet");
        clock.advance(Duration::from_millis(100));
        assert_eq!(wheel.expire(clock.now()), vec![(7, 0)]);
        assert!(wheel.is_empty());
        clock.advance(Duration::from_secs(10));
        assert!(wheel.expire(clock.now()).is_empty(), "fires once");
    }

    #[test]
    fn wheel_survives_full_rotations() {
        // A deadline more than one rotation ahead must not fire early
        // when the cursor sweeps its slot the first time around.
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(4, Duration::from_millis(10), clock.now());
        wheel.insert(1, 0, clock.now() + Duration::from_millis(95));
        clock.advance(Duration::from_millis(50));
        assert!(wheel.expire(clock.now()).is_empty());
        clock.advance(Duration::from_millis(50));
        assert_eq!(wheel.expire(clock.now()), vec![(1, 0)]);

        // The loop's own wheel (512 × 20 ms) spans 10.24 s, so a 10 s
        // idle deadline followed by one 11 s clock jump laps it.
        let mut wheel = TimerWheel::new(512, TICK, clock.now());
        wheel.insert(4, 1, clock.now() + Duration::from_secs(10));
        clock.advance(Duration::from_secs(11));
        assert_eq!(wheel.expire(clock.now()), vec![(4, 1)]);
    }

    #[test]
    fn stale_generations_surface_for_lazy_cancellation() {
        // Re-arming is modelled by bumping the generation: the wheel
        // still returns the stale entry, and the owner skips it.
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), clock.now());
        wheel.insert(3, 0, clock.now() + Duration::from_millis(20));
        wheel.insert(3, 1, clock.now() + Duration::from_millis(60));
        clock.advance(Duration::from_millis(30));
        assert_eq!(wheel.expire(clock.now()), vec![(3, 0)]);
        clock.advance(Duration::from_millis(40));
        assert_eq!(wheel.expire(clock.now()), vec![(3, 1)]);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_sweep() {
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), clock.now());
        clock.advance(Duration::from_millis(500));
        assert!(wheel.expire(clock.now()).is_empty());
        wheel.insert(9, 2, clock.now() - Duration::from_millis(100));
        clock.advance(Duration::from_millis(10));
        assert_eq!(wheel.expire(clock.now()), vec![(9, 2)]);
    }

    #[test]
    fn wheel_reports_wakeup_need() {
        let clock = TestClock::new();
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10), clock.now());
        assert_eq!(wheel.next_wake(), None);
        wheel.insert(1, 0, clock.now() + Duration::from_millis(25));
        assert_eq!(wheel.next_wake(), Some(Duration::from_millis(10)));
        clock.advance(Duration::from_millis(30));
        wheel.expire(clock.now());
        assert_eq!(wheel.next_wake(), None);
    }

    // -- idle timeout through the event loop, injected clock ---------------

    /// The keep-alive idle-timeout test advances a [`TestClock`] instead
    /// of sleeping through a real timeout. The only real waiting is the
    /// loop's (20 ms) tick cadence.
    #[test]
    #[cfg(target_os = "linux")]
    fn idle_keep_alive_connection_is_closed_by_the_wheel_without_real_sleeps() {
        use crate::http::ConnControl;
        use std::io::Read;

        let clock = Arc::new(TestClock::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler: Handler = Arc::new(|_req| Response::text("text/plain", "ok"));
        let policy: ConnPolicy = Arc::new(|| ConnControl {
            idle_timeout: Duration::from_secs(10),
            shed: None,
        });
        let mut server =
            spawn_with_clock(listener, 2, handler, policy, clock.clone()).unwrap();

        let round_trip = |stream: &mut TcpStream| {
            let mut buf = [0u8; 256];
            stream.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
            let n = stream.read(&mut buf).unwrap();
            assert!(std::str::from_utf8(&buf[..n]).unwrap().starts_with("HTTP/1.1 200"));
        };
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        round_trip(&mut stream);
        // The loop re-arms the idle deadline from the clock just *after*
        // writing the response, so the client can see the bytes before
        // the re-arm has read the clock; a jump in that window would land
        // inside the new idle period. One round trip on a second
        // connection orders the jump after the re-arm: the loop is one
        // thread and re-arms before it reads anything else.
        round_trip(&mut TcpStream::connect(server.addr()).unwrap());

        // Ten virtual seconds pass in one step; no real 10 s sleep.
        clock.advance(Duration::from_secs(11));

        // The wheel sweeps on the next tick and closes the idle
        // connection silently (EOF, no status line).
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = stream.read(&mut [0u8; 256]).unwrap();
        assert_eq!(n, 0, "idle connection must be closed silently");
        server.shutdown();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn active_connection_survives_virtual_idle_expiry_while_handler_runs() {
        use crate::http::ConnControl;
        use std::io::Read;

        let clock = Arc::new(TestClock::new());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handler_gate = gate.clone();
        let handler: Handler = Arc::new(move |_req| {
            handler_gate.wait(); // park until the test advanced the clock
            Response::text("text/plain", "late")
        });
        let policy: ConnPolicy = Arc::new(|| ConnControl {
            idle_timeout: Duration::from_secs(10),
            shed: None,
        });
        let mut server =
            spawn_with_clock(listener, 2, handler, policy, clock.clone()).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        // Give the loop a beat to dispatch, then expire the deadline
        // while the handler is mid-flight: the conn must NOT be closed,
        // because in-flight handler time is server time.
        std::thread::sleep(Duration::from_millis(100));
        clock.advance(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(100));
        gate.wait();
        let mut buf = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut chunk = [0u8; 256];
        let n = stream.read(&mut chunk).unwrap();
        buf.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
        assert!(text.contains("late"));
        server.shutdown();
    }

    /// The connection-scaling soak: ≥ 256 sockets held open and
    /// keep-alive concurrently, each pipelining bursts of requests, all
    /// answered in order through a 4-worker pool. Handler concurrency
    /// (the dispatch queue's drain rate) must stay bounded by the worker
    /// count — idle and parked connections cost an fd, not a thread —
    /// and once the policy flips to critical, the accept boundary sheds
    /// new connections with a canned 503 before reading a byte.
    #[test]
    #[cfg(target_os = "linux")]
    fn soak_256_pipelined_connections_bounded_workers_and_shedding() {
        use crate::http::ConnControl;
        use std::io::Read;
        use std::sync::atomic::AtomicUsize;

        const CONNS: usize = 256;
        const DRIVERS: usize = 8;
        const PER_DRIVER: usize = CONNS / DRIVERS;
        const PIPELINE: usize = 4;
        const ROUNDS: usize = 2;
        const WORKERS: usize = 4;

        let inflight = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let (hi, inf, srv) = (high_water.clone(), inflight.clone(), served.clone());
        let handler: Handler = Arc::new(move |req| {
            let cur = inf.fetch_add(1, Ordering::SeqCst) + 1;
            hi.fetch_max(cur, Ordering::SeqCst);
            let body = format!("ok:{}", req.path);
            srv.fetch_add(1, Ordering::SeqCst);
            inf.fetch_sub(1, Ordering::SeqCst);
            Response::text("text/plain", body)
        });
        let critical = Arc::new(AtomicBool::new(false));
        let crit = critical.clone();
        let policy: ConnPolicy = Arc::new(move || ConnControl {
            idle_timeout: Duration::from_secs(30),
            shed: crit.load(Ordering::SeqCst).then_some(7),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut server = spawn(listener, WORKERS, handler, policy).unwrap();
        let addr = server.addr();

        // Each driver thread holds PER_DRIVER sockets open for the whole
        // soak, so all 256 connections coexist; pipelined bursts go out
        // per round and the in-order responses are read back per socket.
        let drivers: Vec<_> = (0..DRIVERS)
            .map(|d| {
                std::thread::spawn(move || {
                    let mut socks: Vec<TcpStream> = (0..PER_DRIVER)
                        .map(|_| {
                            let s = TcpStream::connect(addr).unwrap();
                            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                            s
                        })
                        .collect();
                    for round in 0..ROUNDS {
                        for (c, s) in socks.iter_mut().enumerate() {
                            let mut burst = Vec::new();
                            for p in 0..PIPELINE {
                                burst.extend_from_slice(
                                    format!("GET /{d}-{c}-{round}-{p} HTTP/1.1\r\n\r\n")
                                        .as_bytes(),
                                );
                            }
                            s.write_all(&burst).unwrap();
                        }
                        for (c, s) in socks.iter_mut().enumerate() {
                            let mut got = String::new();
                            let mut chunk = [0u8; 4096];
                            while got.matches("HTTP/1.1 200").count() < PIPELINE {
                                let n = s.read(&mut chunk).unwrap();
                                assert!(n > 0, "server closed a kept-alive soak conn");
                                got.push_str(&String::from_utf8_lossy(&chunk[..n]));
                            }
                            // In-order flush: responses carry the request
                            // path back, in pipeline order.
                            for p in 0..PIPELINE {
                                let a = got.find(&format!("ok:/{d}-{c}-{round}-{p}"));
                                assert!(a.is_some(), "missing response {p} on conn {d}-{c}");
                            }
                        }
                    }
                    socks // keep them open until the test joins
                })
            })
            .collect();
        let held: Vec<Vec<TcpStream>> = drivers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(served.load(Ordering::SeqCst), CONNS * PIPELINE * ROUNDS);
        let high = high_water.load(Ordering::SeqCst);
        assert!(
            high <= WORKERS,
            "handler concurrency {high} exceeded the {WORKERS}-worker pool"
        );

        // Critical: the accept boundary sheds new connections with a
        // canned 503 + retry-after, written without reading a byte.
        critical.store(true, Ordering::SeqCst);
        let mut shed_conn = TcpStream::connect(addr).unwrap();
        shed_conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match shed_conn.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("shed read failed: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
        assert!(text.to_lowercase().contains("retry-after: 7"), "got: {text}");
        drop(held);
        server.shutdown();
    }
}
