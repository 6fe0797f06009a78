//! Kernel readiness for the wire reactors: an `epoll`-backed poller
//! with a wakeup fd, plus the portable sweep fallback.
//!
//! Every pump loop in this crate (the reactor's one server loop, which
//! the echo mailbox, the router and the shard host run, the placement
//! proxies, and the client's pump in [`crate::fleet`]) has the same
//! shape: sweep the connections, and when a sweep makes no progress,
//! wait for something to change. Historically that wait was
//! `thread::sleep(IDLE_SLEEP)` — a readiness *poll* that burned a
//! syscall-and-sleep cycle per 50 µs of idleness and capped wire
//! throughput far below what the sockets can carry. `Poller` replaces
//! the sleep with a real kernel wait:
//!
//! * On Linux, [`PollerBackend::Epoll`] blocks in `epoll_wait(2)` on
//!   every registered socket (edge-triggered) plus an `eventfd(2)`
//!   wakeup fd other threads can `Waker::wake` to interrupt the wait
//!   — e.g. a shard worker that just queued a verdict for the router to
//!   flush.
//! * [`PollerBackend::Sweep`] is the previous behavior (sleep
//!   `IDLE_SLEEP`), kept as the non-Linux fallback and selectable everywhere
//!   for A/B runs via [`POLLER_ENV`] or
//!   [`FleetServerBuilder::poller`](crate::fleet::FleetServerBuilder::poller).
//!
//! The syscall layer is a hand-rolled `extern "C"` shim (no `libc`
//! crate — the symbols resolve against the C library `std` already
//! links). `Poller::wait_ready` hands back *which* fds edged
//! (`Readiness::Fds`) so the loops (the server loop, the fleet client)
//! pump exactly the flagged connections instead of probing the whole
//! pool. Any degraded answer — a wakeup, a timeout, an overflowing
//! event buffer, the sweep backend — is `Readiness::All`: probe
//! everything, the historical behavior.
//! Edge-triggered registration is safe here because every pumped
//! socket is drained to `WouldBlock` before the loop returns to the
//! wait; the wait is additionally capped (`EPOLL_CAP`) and reports
//! `All` on timeout, so a hypothetical missed or dropped edge degrades
//! to the old sweep cadence instead of a hang, and shutdown flags are
//! observed promptly.

use std::sync::Arc;
use std::time::Duration;

/// The sweep backend's sleep between pump sweeps that made no progress.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// The epoll wait cap: long enough to make idle CPU negligible, short
/// enough that a (theoretically) missed edge or an unwoken channel send
/// degrades to sweep cadence rather than a stall. `epoll_wait` timeouts
/// have millisecond granularity.
const EPOLL_CAP: Duration = Duration::from_millis(2);

/// Environment variable selecting the poller backend (`epoll` or
/// `sweep`, case-insensitive). The builder knob
/// ([`FleetServerBuilder::poller`](crate::fleet::FleetServerBuilder::poller))
/// takes precedence; unset or unrecognized values keep the default
/// ([`PollerBackend::Epoll`], falling back to sweep where epoll is
/// unavailable).
pub const POLLER_ENV: &str = "REFEREE_WIRENET_POLLER";

/// Which readiness mechanism a reactor loop blocks on when idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerBackend {
    /// Block in `epoll_wait(2)` with a wakeup fd (Linux). Elsewhere —
    /// or if epoll setup fails — this silently degrades to `Sweep`.
    Epoll,
    /// The historical readiness-polling sweep: sleep the idle interval
    /// and re-probe every socket.
    Sweep,
}

/// Resolve the poller backend with builder-beats-env precedence: an
/// explicit builder choice wins, else a recognized env *value* (passed
/// as a parameter so unit tests never mutate the process environment),
/// else [`PollerBackend::Epoll`].
pub(crate) fn resolve_poller(
    explicit: Option<PollerBackend>,
    env: Option<&str>,
) -> PollerBackend {
    if let Some(b) = explicit {
        return b;
    }
    match env.map(str::trim) {
        Some(v) if v.eq_ignore_ascii_case("sweep") => PollerBackend::Sweep,
        Some(v) if v.eq_ignore_ascii_case("epoll") => PollerBackend::Epoll,
        _ => PollerBackend::Epoll,
    }
}

/// The backend a poller starts from when the builder did not choose:
/// [`POLLER_ENV`] if set to a recognized value, else epoll.
pub(crate) fn default_backend() -> PollerBackend {
    resolve_poller(None, std::env::var(POLLER_ENV).ok().as_deref())
}

/// Raw epoll/eventfd syscall shim (Linux only, no `libc` crate): the
/// symbols link against the system C library that `std` already pulls
/// in.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    /// `struct epoll_event`. On x86-64 the kernel ABI packs this to 12
    /// bytes; other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// An epoll instance plus its eventfd wakeup channel. Fields are plain
/// fds, so the type is `Send + Sync`; [`wait`](Epoll::wait) takes
/// `&self` with a stack-local event buffer, so concurrent waiters are
/// fine (the reactors only ever have one).
#[cfg(target_os = "linux")]
struct Epoll {
    epfd: i32,
    wakefd: i32,
}

#[cfg(target_os = "linux")]
impl Epoll {
    /// Create the epoll set with its wakeup eventfd already registered
    /// (level-triggered, so a pending wake keeps interrupting waits
    /// until drained). `None` if either syscall fails — callers fall
    /// back to the sweep backend.
    fn new() -> Option<Epoll> {
        // SAFETY: plain fd-creating syscalls with no pointer arguments.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return None;
        }
        // SAFETY: as above.
        let wakefd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if wakefd < 0 {
            // SAFETY: epfd was just created and is owned here.
            unsafe { sys::close(epfd) };
            return None;
        }
        let ep = Epoll { epfd, wakefd };
        // The wakeup fd stays level-triggered: every waiter sees the
        // pending counter until `wait` drains it.
        let mut ev = sys::EpollEvent { events: sys::EPOLLIN, data: u64::MAX };
        // SAFETY: `ev` is a live, properly laid out epoll_event.
        let rc = unsafe { sys::epoll_ctl(ep.epfd, sys::EPOLL_CTL_ADD, wakefd, &mut ev) };
        if rc < 0 {
            return None; // Drop closes both fds.
        }
        Some(ep)
    }

    /// Register a socket edge-triggered for read+write readiness.
    /// Errors (e.g. duplicate registration after an fd number is
    /// reused) are ignored: the capped wait bounds the damage to the
    /// sweep cadence.
    fn register(&self, fd: i32) {
        let mut ev = sys::EpollEvent {
            events: sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
            data: fd as u64,
        };
        // SAFETY: `ev` is a live, properly laid out epoll_event.
        unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
    }

    /// Block until any registered fd is ready, a wake arrives, or
    /// `cap` elapses. Collect the ready fds into `out` and report
    /// whether the caller may trust them (`Readiness::Fds`) or must
    /// probe everything (`Readiness::All` — returned on wake, on
    /// timeout, on `EINTR`, and when the event buffer overflowed, so
    /// every degraded case falls back to the full sweep).
    fn wait(&self, cap: Duration, out: &mut Vec<i32>) -> Readiness {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let timeout_ms = cap.as_millis().clamp(1, i32::MAX as u128) as i32;
        // SAFETY: the buffer outlives the call and maxevents matches
        // its length; EINTR is indistinguishable from a wake here,
        // which is exactly the semantic we want.
        let n = unsafe {
            sys::epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        let mut woken = false;
        for ev in events.iter().take(n.max(0) as usize) {
            let data = ev.data;
            if data == u64::MAX {
                woken = true;
            } else {
                out.push(data as i32);
            }
        }
        if woken {
            // Drain the pending wakes so the level-triggered eventfd
            // stops reporting ready. Nonblocking: a racing waker after
            // the drain just triggers the next wait immediately.
            let mut buf = [0u8; 8];
            // SAFETY: 8-byte buffer matches the eventfd read contract.
            unsafe { sys::read(self.wakefd, buf.as_mut_ptr().cast(), buf.len()) };
        }
        // A wake carries no fd, so the waker's intent (usually "bytes
        // were queued somewhere, flush them") needs the full sweep; a
        // full buffer may have truncated the ready list; n <= 0 is a
        // timeout or EINTR, where the capped-wait safety story *is* the
        // sweep.
        if woken || n <= 0 || n as usize == events.len() {
            Readiness::All
        } else {
            Readiness::Fds
        }
    }

    /// Make the current (or next) [`wait`](Epoll::wait) return now.
    fn wake(&self) {
        let one: u64 = 1;
        let buf = one.to_ne_bytes();
        // SAFETY: 8-byte buffer matches the eventfd write contract.
        unsafe { sys::write(self.wakefd, buf.as_ptr().cast(), buf.len()) };
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this instance.
        unsafe {
            sys::close(self.wakefd);
            sys::close(self.epfd);
        }
    }
}

/// What a readiness wait learned: either a trustworthy list of ready
/// fds, or "probe everything" (the sweep backend, a wake, a timeout, an
/// overflowed event buffer). `All` is always a safe answer; `Fds` is
/// the fast path that lets pump loops skip sockets the kernel has not
/// flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Readiness {
    /// Probe every connection (and the listener).
    All,
    /// Only the fds pushed into the caller's buffer are ready.
    Fds,
}

/// The poller implementation behind `Poller`/[`Waker`].
enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Sweep,
}

/// A reactor loop's idle-wait mechanism: kernel readiness (epoll) or
/// the sleep-and-sweep fallback, behind one interface.
///
/// The loop registers every socket it owns, calls `wait_ready` when a
/// sweep makes no progress, and hands [`Waker`] clones to threads that
/// feed it work through channels the kernel cannot see (shard workers
/// queueing verdicts for the router, a router queueing for a proxy).
pub(crate) struct Poller {
    imp: Arc<Imp>,
}

impl Poller {
    /// Build a poller for `backend`, falling back to sweep when epoll
    /// is unavailable. The sweep backend sleeps `IDLE_SLEEP` (50 µs)
    /// per idle wait; the epoll wait is capped at `EPOLL_CAP` (2 ms).
    pub(crate) fn new(backend: PollerBackend) -> Poller {
        let imp = match backend {
            #[cfg(target_os = "linux")]
            PollerBackend::Epoll => match Epoll::new() {
                Some(ep) => Imp::Epoll(ep),
                None => Imp::Sweep,
            },
            #[cfg(not(target_os = "linux"))]
            PollerBackend::Epoll => Imp::Sweep,
            PollerBackend::Sweep => Imp::Sweep,
        };
        Poller { imp: Arc::new(imp) }
    }

    /// The backend actually in effect (after any fallback).
    pub(crate) fn backend(&self) -> PollerBackend {
        match *self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => PollerBackend::Epoll,
            Imp::Sweep => PollerBackend::Sweep,
        }
    }

    /// Register a socket for readiness (no-op on the sweep backend or
    /// for invalid fds).
    pub(crate) fn register(&self, fd: i32) {
        if fd < 0 {
            return;
        }
        match &*self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.register(fd),
            Imp::Sweep => {}
        }
    }

    /// Wait for readiness, a wake, or the cap — the replacement for
    /// `thread::sleep(IDLE_SLEEP)` in every pump loop — collecting
    /// *which* fds the kernel flagged into `ready` (cleared first). The
    /// return value says whether that list may be trusted: on
    /// `Readiness::All` the caller must probe every socket — the sweep
    /// backend, wakes, timeouts and event-buffer overflow all take that
    /// path, so a loop built on this method degrades to the historical
    /// sweep, it never loses liveness.
    pub(crate) fn wait_ready(&self, ready: &mut Vec<i32>) -> Readiness {
        ready.clear();
        match &*self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.wait(EPOLL_CAP, ready),
            Imp::Sweep => {
                std::thread::sleep(IDLE_SLEEP);
                Readiness::All
            }
        }
    }

    /// As [`wait_ready`](Poller::wait_ready) but capped at `cap` (e.g. a
    /// deadline fragment shorter than the default cap).
    #[cfg(test)]
    pub(crate) fn wait_for(&self, cap: Duration) {
        match &*self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => {
                ep.wait(cap.min(EPOLL_CAP), &mut Vec::new());
            }
            Imp::Sweep => std::thread::sleep(IDLE_SLEEP.min(cap)),
        }
    }

    /// Interrupt the current (or next) wait. The production paths wake
    /// through a cloned [`Waker`] handle; only tests wake a
    /// directly-held poller.
    #[cfg(test)]
    pub(crate) fn wake(&self) {
        match &*self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.wake(),
            Imp::Sweep => {}
        }
    }

    /// A cloneable, sendable handle other threads use to interrupt
    /// this poller's wait.
    pub(crate) fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.imp))
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("backend", &self.backend()).finish()
    }
}

/// A handle that interrupts a `Poller`'s wait from another thread
/// (no-op for the sweep backend, whose wait is a plain bounded sleep).
#[derive(Clone)]
pub(crate) struct Waker(Arc<Imp>);

impl Waker {
    /// Interrupt the poller's current (or next) wait.
    pub(crate) fn wake(&self) {
        match &*self.0 {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.wake(),
            Imp::Sweep => {}
        }
    }
}

/// The raw fd of a socket, for [`Poller::register`] (`-1`, i.e.
/// "skip", on non-unix platforms).
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::unix::io::AsRawFd>(sock: &T) -> i32 {
    sock.as_raw_fd()
}

/// Non-unix fallback: no usable fd, registration is skipped.
#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_sock: &T) -> i32 {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poller_backend_resolution_precedence() {
        // Builder beats env; env values are parameters here so no test
        // ever mutates the process environment.
        assert_eq!(resolve_poller(None, None), PollerBackend::Epoll);
        assert_eq!(resolve_poller(None, Some("sweep")), PollerBackend::Sweep);
        assert_eq!(resolve_poller(None, Some(" SWEEP ")), PollerBackend::Sweep);
        assert_eq!(resolve_poller(None, Some("epoll")), PollerBackend::Epoll);
        assert_eq!(
            resolve_poller(Some(PollerBackend::Sweep), Some("epoll")),
            PollerBackend::Sweep
        );
        assert_eq!(
            resolve_poller(Some(PollerBackend::Epoll), Some("sweep")),
            PollerBackend::Epoll
        );
        // Garbage falls back to the default instead of failing a spawn.
        assert_eq!(resolve_poller(None, Some("uring")), PollerBackend::Epoll);
        assert_eq!(resolve_poller(None, Some("")), PollerBackend::Epoll);
    }

    #[test]
    fn sweep_backend_waits_the_idle_interval() {
        let p = Poller::new(PollerBackend::Sweep);
        assert_eq!(p.backend(), PollerBackend::Sweep);
        let t = Instant::now();
        assert_eq!(p.wait_ready(&mut Vec::new()), Readiness::All);
        assert!(t.elapsed() >= IDLE_SLEEP);
        // wake() is a no-op, not a panic.
        p.wake();
        p.waker().wake();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_wake_interrupts_wait() {
        let p = Poller::new(PollerBackend::Epoll);
        assert_eq!(p.backend(), PollerBackend::Epoll, "epoll must be available on linux CI");
        // A pre-posted wake makes the wait return immediately even
        // with a long cap.
        let waker = p.waker();
        waker.wake();
        let t = Instant::now();
        p.wait_for(Duration::from_secs(2));
        assert!(t.elapsed() < Duration::from_secs(1), "wake did not interrupt the wait");

        // A wake from another thread interrupts a wait in progress.
        let waker = p.waker();
        let t = Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        p.wait_for(Duration::from_secs(5));
        assert!(t.elapsed() < Duration::from_secs(4), "cross-thread wake lost");
        h.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_socket_readiness() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let p = Poller::new(PollerBackend::Epoll);
        assert_eq!(p.backend(), PollerBackend::Epoll);
        p.register(fd_of(&rx));
        // Drain the initial edge (registration reports the current
        // state once), then wait for fresh bytes.
        p.wait_for(Duration::from_millis(10));
        let t = Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.write_all(b"ping").unwrap();
            tx
        });
        p.wait_for(Duration::from_secs(5));
        assert!(t.elapsed() < Duration::from_secs(4), "readiness edge lost");
        let _tx = h.join().unwrap();
    }
}
