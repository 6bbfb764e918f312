//! Minimal readiness-polling shim over raw `epoll`.
//!
//! The build environment has no crates registry, so this crate stands in
//! for `mio`/`polling` with exactly the surface the YASK server's event
//! loop needs: a level-triggered [`Poller`] that registers file
//! descriptors under caller-chosen tokens, waits for readiness, and can
//! be woken from another thread via an `eventfd`.
//!
//! On Linux the implementation is raw `epoll` through `extern "C"`
//! bindings (the C library is linked by default on `*-linux-gnu`
//! targets, so no `libc` crate is needed). On every other platform the
//! same API compiles but [`Poller::new`] returns
//! [`std::io::ErrorKind::Unsupported`], which callers pass on.
//!
//! Semantics the server leans on:
//!
//! * **Level-triggered**: a socket that still has unread bytes (or write
//!   space) keeps reporting ready — the connection state machines never
//!   need to drain to `WouldBlock` before re-arming.
//! * **Error folding**: `EPOLLERR`/`EPOLLHUP` surface as
//!   readable-and-writable, so the owner discovers the condition through
//!   the `read`/`write` return value it must handle anyway.
//! * **Wakeups coalesce**: any number of [`Poller::notify`] calls while
//!   the loop is away collapse into one wakeup, and the wakeup itself is
//!   not reported as an [`Event`].

/// Raw file descriptor (i32 on every unix; the value is never used on
/// unsupported platforms).
pub type RawFd = i32;

/// Reserved token for the internal wakeup eventfd.
const NOTIFY_TOKEN: u64 = u64::MAX;

/// What to watch a registration for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    /// Writable only.
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    /// Readable and writable.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or in an error/hangup state).
    pub readable: bool,
    /// The fd is writable (or in an error/hangup state).
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, RawFd, NOTIFY_TOKEN};
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    // The kernel ABI packs epoll_event on x86-64 only (glibc's
    // __EPOLL_PACKED); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut mask = EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Linux poller: an epoll instance plus a wakeup eventfd.
    pub struct Poller {
        epfd: c_int,
        wakefd: c_int,
    }

    // The epoll fd and eventfd are both safe to use from any thread.
    unsafe impl Send for Poller {}
    unsafe impl Sync for Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let wakefd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wakefd };
            poller.ctl(EPOLL_CTL_ADD, wakefd, EPOLLIN, NOTIFY_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            assert_ne!(token, NOTIFY_TOKEN, "token u64::MAX is reserved");
            self.ctl(EPOLL_CTL_ADD, fd, mask_of(interest), token)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            assert_ne!(token, NOTIFY_TOKEN, "token u64::MAX is reserved");
            self.ctl(EPOLL_CTL_MOD, fd, mask_of(interest), token)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            const CAP: usize = 1024;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round up so a 1 ns timeout does not spin at 0 ms.
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int
                    + c_int::from(d.subsec_nanos() % 1_000_000 != 0),
            };
            let n = loop {
                let r = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as c_int, timeout_ms) };
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            let before = events.len();
            for ev in &buf[..n] {
                let (mask, token) = (ev.events, ev.data);
                if token == NOTIFY_TOKEN {
                    self.drain_wake();
                    continue;
                }
                let failed = mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                events.push(Event {
                    token,
                    readable: failed || mask & EPOLLIN != 0,
                    writable: failed || mask & EPOLLOUT != 0,
                });
            }
            Ok(events.len() - before)
        }

        pub fn notify(&self) -> io::Result<()> {
            let one: u64 = 1;
            let r = unsafe { write(self.wakefd, (&one as *const u64).cast(), 8) };
            // EAGAIN means the counter is already at max: the loop is
            // guaranteed to wake, which is all notify promises.
            if r < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::WouldBlock {
                    return Err(err);
                }
            }
            Ok(())
        }

        fn drain_wake(&self) {
            let mut counter: u64 = 0;
            unsafe { read(self.wakefd, (&mut counter as *mut u64).cast(), 8) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    /// Stub poller for platforms without epoll: construction fails with
    /// [`io::ErrorKind::Unsupported`] and every method is unreachable.
    pub struct Poller {
        _never: std::convert::Infallible,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "polling shim: no readiness backend on this platform",
            ))
        }

        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            match self._never {}
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            match self._never {}
        }

        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            match self._never {}
        }

        pub fn wait(
            &self,
            _events: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            match self._never {}
        }

        pub fn notify(&self) -> io::Result<()> {
            match self._never {}
        }
    }
}

pub use sys::Poller;

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn writable_socket_reports_writable() {
        let poller = Poller::new().unwrap();
        let (client, _server) = pair();
        client.set_nonblocking(true).unwrap();
        poller.add(client.as_raw_fd(), 7, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].writable);
    }

    #[test]
    fn readable_after_peer_writes() {
        let poller = Poller::new().unwrap();
        let (client, mut server) = pair();
        client.set_nonblocking(true).unwrap();
        poller.add(client.as_raw_fd(), 3, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        let n = poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0);
        server.write_all(b"ping").unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
    }

    #[test]
    fn modify_switches_interest() {
        let poller = Poller::new().unwrap();
        let (client, _server) = pair();
        client.set_nonblocking(true).unwrap();
        poller.add(client.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
        poller.modify(client.as_raw_fd(), 1, Interest::BOTH).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
        poller.delete(client.as_raw_fd()).unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
    }

    #[test]
    fn notify_wakes_wait_without_an_event() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = poller.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.notify().unwrap();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 0, "the wakeup itself is not an event");
        assert!(start.elapsed() < Duration::from_secs(5), "notify must cut the wait short");
        handle.join().unwrap();
    }

    #[test]
    fn notifies_coalesce() {
        let poller = Poller::new().unwrap();
        for _ in 0..100 {
            poller.notify().unwrap();
        }
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap(), 0);
        // Drained: the next wait blocks until timeout.
        let start = Instant::now();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(40))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(35));
    }

    #[test]
    fn hangup_folds_into_readable_and_writable() {
        let poller = Poller::new().unwrap();
        let (client, server) = pair();
        client.set_nonblocking(true).unwrap();
        poller.add(client.as_raw_fd(), 9, Interest::READABLE).unwrap();
        drop(server);
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable && events[0].writable);
    }
}
