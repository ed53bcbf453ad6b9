//! A single-threaded epoll reactor: one poller owning every socket a node
//! speaks through — peer listener, inbound peer connections, outbound
//! lanes, and (when ingress is attached) client sessions. It has no thread
//! of its own: the node's runtime drives it one [`Reactor::poll`] at a
//! time, between handler turns.
//!
//! No external crates: the `epoll_create1` / `epoll_ctl` / `epoll_pwait2` /
//! `eventfd` syscalls are wrapped directly in [`sys`], the way
//! `crates/shims` shims rand/bytes. Sockets stay `std::net` types
//! (switched to non-blocking); only readiness plumbing and `writev` go
//! through the raw layer.
//!
//! Model: each registered [`Source`] owns its socket and is driven by
//! three callbacks — [`Source::ready`] (epoll readiness, level-triggered),
//! [`Source::notified`] (the loop's own thread called [`Reactor::mark`],
//! e.g. after pushing onto a lane queue, or another thread called
//! [`Handle::notify`]), and [`Source::deadline`] (a timer the source armed
//! via [`Ctl::set_deadline`] fired). Callbacks get a [`Ctl`] to re-register
//! interest (the `EAGAIN` → `EPOLLOUT` dance), swap file descriptors
//! (reconnects), arm timers (backoff, injected link delays) and spawn new
//! sources (accepted connections). A mark costs no syscall; cross-thread
//! wakeups ride one `eventfd` with a pending-flag so a burst of notifies
//! costs at most one `write(2)`.
//! The reactor also owns the state its sources share, one context value
//! `C`, and lends it to each callback ([`Ctl::cx`]) and to its owner
//! between polls ([`Reactor::cx_mut`]): one thread, one owner, no lock.

use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// A node's socket state has one owner, its thread, and takes no lock.
/// The three locks left guard what a second thread touches: the reactor's
/// notify list (a [`Handle`] fires on whichever replica's thread commits a
/// block), the link filter of [`LinkFaults`](crate::faults::LinkFaults)
/// (rewritten by the fault-driver thread), and the cluster harness's
/// `StartGate` (released by the harness thread; it locks directly). Each
/// holds plain data that stays valid wherever a holder could panic, so
/// poisoning is only a signal — propagating it would let one panicking
/// thread take down every node's networking.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Raw syscall layer: direct `extern "C"` declarations of the libc
/// symbols the `std` runtime already links, plus the kernel ABI structs
/// and constants they need. Linux-only, like the rest of the live
/// transport's assumptions (loopback clusters, `kill -9` chaos).
pub mod sys {
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::unix::io::{FromRawFd, RawFd};
    use std::time::Duration;

    /// `EPOLLIN`: readable.
    pub const EPOLLIN: u32 = 0x001;
    /// `EPOLLOUT`: writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// `EPOLLERR`: error condition (always reported, never masked).
    pub const EPOLLERR: u32 = 0x008;
    /// `EPOLLHUP`: hangup (always reported, never masked).
    pub const EPOLLHUP: u32 = 0x010;
    /// `EPOLLRDHUP`: peer shut down its write side.
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINPROGRESS: i32 = 115;
    const EINTR: i32 = 4;

    /// One epoll event, in the x86-64 kernel ABI layout (packed: the
    /// 64-bit `data` member is not 8-aligned).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Readiness bit set (`EPOLL*` flags).
        pub events: u32,
        /// User data: the registration token.
        pub data: u64,
    }

    /// One `writev` segment (`struct iovec`).
    #[repr(C)]
    pub struct IoVec {
        /// Segment base.
        pub base: *const u8,
        /// Segment length in bytes.
        pub len: usize,
    }

    /// `struct timespec`, the x86-64 layout.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_pwait2(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    }

    /// Creates an epoll instance (close-on-exec).
    pub fn epoll_create() -> io::Result<RawFd> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd is
        // validated before use.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    fn ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack value for the duration of the call;
        // the kernel copies it before returning.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` for `events`.
    pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`. Failure is fine (the fd may already be closed).
    pub fn epoll_del(epfd: RawFd, fd: RawFd) {
        let _ = ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout`, to the nanosecond (`epoll_pwait2`: glibc ≥
    /// 2.35, Linux ≥ 5.11), for events; `EINTR` surfaces as zero events,
    /// any other failure (`ENOSYS` on an older kernel, `EPERM` under a
    /// seccomp filter) as the error.
    pub fn epoll_pwait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout: Duration,
    ) -> io::Result<usize> {
        let ts = Timespec {
            sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `events` is a valid mutable slice; maxevents equals its
        // length, so the kernel writes at most `events.len()` entries. `ts`
        // is a live stack value the kernel only reads; a null sigmask
        // leaves the signal mask alone.
        let n = unsafe {
            epoll_pwait2(
                epfd,
                events.as_mut_ptr(),
                events.len() as c_int,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }

    /// Creates the wakeup eventfd (non-blocking, close-on-exec).
    pub fn eventfd_new() -> io::Result<RawFd> {
        // SAFETY: eventfd takes no pointers; the returned fd is validated
        // before use.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    /// Posts one wakeup (adds 1 to the eventfd counter).
    pub fn eventfd_post(fd: RawFd) {
        let one: u64 = 1;
        // SAFETY: the buffer is a live 8-byte stack value and the count
        // matches its size exactly.
        let _ = unsafe { write(fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains the eventfd counter (non-blocking; empty is fine).
    pub fn eventfd_drain(fd: RawFd) {
        let mut buf = 0u64;
        // SAFETY: the buffer is a live 8-byte stack value and the count
        // matches its size exactly.
        let _ = unsafe { read(fd, (&mut buf as *mut u64).cast(), 8) };
    }

    /// Closes a raw fd owned by the reactor (epoll / eventfd).
    pub fn close_fd(fd: RawFd) {
        // SAFETY: callers pass fds the reactor owns exclusively (epoll /
        // eventfd), each closed exactly once on drop.
        let _ = unsafe { close(fd) };
    }

    /// Gathering write; returns the bytes written.
    pub fn writev_fd(fd: RawFd, iov: &[IoVec]) -> io::Result<usize> {
        // SAFETY: `iov` is a valid slice of IoVec whose base/len fields are
        // derived from live byte slices borrowed for this call; iovcnt
        // equals the slice length.
        let n = unsafe { writev(fd, iov.as_ptr(), iov.len() as c_int) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// Starts a non-blocking TCP connect to `addr`. Returns the stream
    /// plus `true` when the connection completed synchronously; on
    /// `false`, completion (or failure) is reported by epoll as
    /// writability, after which `TcpStream::take_error` holds the
    /// verdict.
    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: socket takes no pointers; the returned fd is validated
        // before use.
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be(),
                    addr: u32::from_ne_bytes(v4.ip().octets()),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is a live, fully initialized sockaddr_in and
                // the passed length is exactly its size.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockAddrIn).cast(),
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                // SAFETY: `sa` is a live, fully initialized sockaddr_in6 and
                // the passed length is exactly its size.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockAddrIn6).cast(),
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc == 0 {
            // SAFETY: `fd` was just created by socket(), is owned by no
            // other wrapper, and ownership transfers to the TcpStream.
            return Ok((unsafe { TcpStream::from_raw_fd(fd) }, true));
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINPROGRESS) || err.raw_os_error() == Some(EINTR) {
            // SAFETY: as above — fresh fd, exclusive ownership transfers to
            // the TcpStream.
            return Ok((unsafe { TcpStream::from_raw_fd(fd) }, false));
        }
        // SAFETY: the connect failed terminally; `fd` was never wrapped, so
        // it is closed here exactly once.
        unsafe {
            close(fd);
        }
        Err(err)
    }
}

/// Identifies one registered [`Source`] for the lifetime of the reactor.
pub type Token = u64;

/// The token reserved for the internal wakeup eventfd.
const WAKE_TOKEN: Token = u64::MAX;

/// Which readiness events a source wants from its fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Deliver readability.
    pub readable: bool,
    /// Deliver writability.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of every connection (EOF watch).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readable + writable — armed while a flush hit `EAGAIN`.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// No readiness (errors and hangups are still delivered by epoll).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn events(self) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// What a [`Source`] callback tells the reactor to do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Stay registered.
    Keep,
    /// Deregister and drop the source (closing its socket).
    Drop,
}

/// One fd-owning participant of the event loop, sharing the reactor's
/// context `C` with the others.
///
/// All callbacks run on the thread polling the reactor; neither a source
/// nor the context it borrows needs synchronization (`Send` only lets the
/// reactor move to that thread after construction). Level-triggered
/// semantics: `ready` fires again as long as the condition holds, so
/// handlers may stop early, but should drain until `EAGAIN` to keep
/// syscall counts low.
pub trait Source<C>: Send {
    /// The fd registered for this source became ready. `readable` /
    /// `writable` include error and hangup conditions (an attempted I/O
    /// then surfaces the error).
    fn ready(&mut self, ctl: &mut Ctl<'_, C>, readable: bool, writable: bool) -> Action;

    /// [`Reactor::mark`] or [`Handle::notify`] named this source's token.
    fn notified(&mut self, ctl: &mut Ctl<'_, C>) -> Action {
        let _ = ctl;
        Action::Keep
    }

    /// The deadline armed via [`Ctl::set_deadline`] fired (and was
    /// cleared; re-arm to keep a periodic timer).
    fn deadline(&mut self, ctl: &mut Ctl<'_, C>) -> Action {
        let _ = ctl;
        Action::Keep
    }
}

struct Entry<C> {
    source: Box<dyn Source<C>>,
    fd: Option<RawFd>,
    interest: Interest,
    deadline: Option<Instant>,
}

struct Shared {
    eventfd: RawFd,
    wake_pending: AtomicBool,
    notified: Mutex<Vec<Token>>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Closed only when the last Handle *and* the reactor are gone, so
        // a late notify can never write into a recycled fd.
        sys::close_fd(self.eventfd);
    }
}

/// A cloneable cross-thread waker for a [`Reactor`].
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Queues a [`Source::notified`] callback for `token` and wakes the
    /// loop. Duplicate notifies between two polls coalesce; a notify for
    /// a source that is gone is ignored.
    pub fn notify(&self, token: Token) {
        relock(&self.shared.notified).push(token);
        if !self.shared.wake_pending.swap(true, Ordering::SeqCst) {
            sys::eventfd_post(self.shared.eventfd);
        }
    }
}

/// The registration/timer surface a [`Source`] callback drives, and the
/// loan of the reactor's context.
///
/// Fd and interest changes hit `epoll_ctl` immediately; spawned sources
/// are installed right after the current callback returns.
pub struct Ctl<'a, C> {
    epfd: RawFd,
    token: Token,
    fd: &'a mut Option<RawFd>,
    interest: &'a mut Interest,
    deadline: &'a mut Option<Instant>,
    spawned: &'a mut Vec<(Token, Entry<C>)>,
    next_token: &'a mut Token,
    cx: &'a mut C,
}

impl<C> Ctl<'_, C> {
    /// This source's own token (e.g. to hand to a cross-thread waker).
    pub fn token(&self) -> Token {
        self.token
    }

    /// The reactor's context, lent for the length of this callback.
    pub fn cx(&mut self) -> &mut C {
        self.cx
    }

    /// Swaps the registered fd: the old one (if any) is deregistered —
    /// do this *before* dropping the socket — and the new one added with
    /// `interest`. `None` leaves the source alive but fd-less (an idle
    /// lane between connections).
    pub fn set_fd(&mut self, fd: Option<RawFd>, interest: Interest) {
        if let Some(old) = *self.fd {
            sys::epoll_del(self.epfd, old);
        }
        *self.fd = fd;
        *self.interest = interest;
        if let Some(new) = fd {
            let _ = sys::epoll_add(self.epfd, new, interest.events(), self.token);
        }
    }

    /// Re-registers interest on the current fd (no-op when unchanged —
    /// the `EAGAIN` hot path pays an `epoll_ctl` only on transitions).
    pub fn set_interest(&mut self, interest: Interest) {
        if interest == *self.interest {
            return;
        }
        *self.interest = interest;
        if let Some(fd) = *self.fd {
            let _ = sys::epoll_mod(self.epfd, fd, interest.events(), self.token);
        }
    }

    /// Arms (or clears) this source's timer. One deadline per source; it
    /// is cleared when it fires.
    pub fn set_deadline(&mut self, at: Option<Instant>) {
        *self.deadline = at;
    }

    /// Registers a new source (an accepted connection, typically),
    /// installed after the current callback returns.
    pub fn spawn(
        &mut self,
        source: Box<dyn Source<C>>,
        fd: Option<RawFd>,
        interest: Interest,
    ) -> Token {
        let token = *self.next_token;
        *self.next_token += 1;
        let entry = Entry {
            source,
            fd,
            interest,
            deadline: None,
        };
        self.spawned.push((token, entry));
        token
    }
}

enum Event {
    Ready(bool, bool),
    Notify,
    Deadline,
}

/// The event loop: owns the epoll fd, every registered source and the
/// context `C` they share.
///
/// Construct with [`Reactor::new`], register the initial sources, then
/// call [`Reactor::poll`] from the one thread that drives the node.
/// Dropping the reactor closes the epoll fd and every source's socket.
pub struct Reactor<C> {
    epfd: RawFd,
    entries: HashMap<Token, Entry<C>>,
    shared: Arc<Shared>,
    next_token: Token,
    /// Tokens [`Reactor::mark`]ed since the last poll.
    marked: Vec<Token>,
    cx: C,
}

impl<C> Reactor<C> {
    /// Creates the poller and its wakeup eventfd, owning `cx`.
    ///
    /// # Errors
    /// Fails when the kernel refuses any of the syscalls — `epoll_pwait2`
    /// included, which is probed once here so a kernel older than 5.11 (or
    /// a seccomp filter without it) stops the node at start rather than
    /// leaving every later poll returning at once.
    pub fn new(cx: C) -> io::Result<Reactor<C>> {
        let epfd = sys::epoll_create()?;
        let eventfd = match sys::eventfd_new() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        let mut probe = [sys::EpollEvent { events: 0, data: 0 }; 1];
        let ready = sys::epoll_add(epfd, eventfd, sys::EPOLLIN, WAKE_TOKEN)
            .and_then(|()| sys::epoll_pwait(epfd, &mut probe, Duration::ZERO));
        if let Err(e) = ready {
            sys::close_fd(epfd);
            sys::close_fd(eventfd);
            return Err(e);
        }
        Ok(Reactor {
            epfd,
            entries: HashMap::new(),
            shared: Arc::new(Shared {
                eventfd,
                wake_pending: AtomicBool::new(false),
                notified: Mutex::new(Vec::new()),
            }),
            next_token: 0,
            marked: Vec::new(),
            cx,
        })
    }

    /// The context the sources share.
    pub fn cx(&self) -> &C {
        &self.cx
    }

    /// The context the sources share, lent to the reactor's owner between
    /// polls.
    pub fn cx_mut(&mut self) -> &mut C {
        &mut self.cx
    }

    /// A cross-thread waker (cloneable) for this reactor.
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Registers a source; its fd is polled from the next [`Self::poll`].
    ///
    /// # Errors
    /// Propagates the `epoll_ctl` failure when `fd` cannot be added.
    pub fn register(
        &mut self,
        source: Box<dyn Source<C>>,
        fd: Option<RawFd>,
        interest: Interest,
    ) -> io::Result<Token> {
        let token = self.next_token;
        if let Some(fd) = fd {
            sys::epoll_add(self.epfd, fd, interest.events(), token)?;
        }
        self.next_token += 1;
        self.entries.insert(
            token,
            Entry {
                source,
                fd,
                interest,
                deadline: None,
            },
        );
        Ok(token)
    }

    /// [`Handle::notify`] from the loop's own thread, without the syscall:
    /// `token`'s `notified` runs in the next [`Self::poll`], which then does
    /// not block.
    pub fn mark(&mut self, token: Token) {
        self.marked.push(token);
    }

    /// Runs one iteration of the loop: waits up to `wait` — less if a
    /// source deadline falls due sooner, not at all if a token is marked —
    /// then dispatches readiness, notifications and due deadlines, in that
    /// order.
    pub fn poll(&mut self, wait: Duration) {
        let timeout = if self.marked.is_empty() {
            let next = self.entries.values().filter_map(|e| e.deadline).min();
            next.map_or(wait, |at| {
                wait.min(at.saturating_duration_since(Instant::now()))
            })
        } else {
            Duration::ZERO
        };
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        // `new` probed the call with this epoll fd, so the kernel supports
        // and permits it; nothing left to fail on but EINTR, already zero.
        let n = sys::epoll_pwait(self.epfd, &mut events, timeout).unwrap_or(0);
        let mut woken = false;
        for ev in events.iter().take(n) {
            let token = ev.data;
            if token == WAKE_TOKEN {
                woken = true; // drained with the notifications below
                continue;
            }
            let bits = ev.events;
            let err = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            let readable = err || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0;
            let writable = err || bits & sys::EPOLLOUT != 0;
            self.dispatch(token, Event::Ready(readable, writable));
        }
        self.drain_notifications(woken);
        self.fire_deadlines();
    }

    fn install(&mut self, token: Token, entry: Entry<C>) {
        if let Some(fd) = entry.fd {
            if sys::epoll_add(self.epfd, fd, entry.interest.events(), token).is_err() {
                return; // source dropped; its socket closes
            }
        }
        self.entries.insert(token, entry);
    }

    /// Runs the `notified` callbacks of every marked and notified token.
    /// `woken`: epoll reported the eventfd readable in this poll.
    fn drain_notifications(&mut self, woken: bool) {
        let mut tokens = std::mem::take(&mut self.marked);
        // Order matters for the lost-wakeup race: drain the eventfd,
        // clear the pending flag, *then* take the token list. A token
        // pushed after the take is paired with a flag set after the
        // clear, whose eventfd write lands in the next epoll_pwait2.
        // A readable eventfd is drained even with the flag clear: a
        // notify whose flag an earlier drain cleared before its write
        // landed leaves the (level-triggered) eventfd readable, and
        // every poll would return at once until it is read.
        if woken || self.shared.wake_pending.load(Ordering::SeqCst) {
            sys::eventfd_drain(self.shared.eventfd);
            self.shared.wake_pending.store(false, Ordering::SeqCst);
            tokens.append(&mut relock(&self.shared.notified));
        }
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.dispatch(token, Event::Notify);
        }
    }

    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        let due: Vec<Token> = self
            .entries
            .iter()
            .filter(|(_, e)| e.deadline.is_some_and(|d| d <= now))
            .map(|(&t, _)| t)
            .collect();
        for token in due {
            match self.entries.get_mut(&token) {
                Some(e) if e.deadline.is_some_and(|d| d <= now) => e.deadline = None,
                _ => continue, // re-armed later or dropped by a prior dispatch
            }
            self.dispatch(token, Event::Deadline);
        }
    }

    fn dispatch(&mut self, token: Token, event: Event) {
        let Some(mut entry) = self.entries.remove(&token) else {
            return; // stale event for a dropped source
        };
        let mut spawned = Vec::new();
        let action = {
            let mut ctl = Ctl {
                epfd: self.epfd,
                token,
                fd: &mut entry.fd,
                interest: &mut entry.interest,
                deadline: &mut entry.deadline,
                spawned: &mut spawned,
                next_token: &mut self.next_token,
                cx: &mut self.cx,
            };
            match event {
                Event::Ready(r, w) => entry.source.ready(&mut ctl, r, w),
                Event::Notify => entry.source.notified(&mut ctl),
                Event::Deadline => entry.source.deadline(&mut ctl),
            }
        };
        match action {
            Action::Keep => {
                self.entries.insert(token, entry);
            }
            Action::Drop => {
                if let Some(fd) = entry.fd {
                    sys::epoll_del(self.epfd, fd);
                }
                // entry drops here: the source's socket closes
            }
        }
        for (token, entry) in spawned {
            self.install(token, entry);
        }
    }
}

impl<C> Drop for Reactor<C> {
    fn drop(&mut self) {
        // Sources first (their sockets close), then the poller itself.
        self.entries.clear();
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::thread;

    /// Echoes everything it reads back on the same socket, buffering
    /// across EAGAIN with interest re-registration.
    struct Echo {
        stream: TcpStream,
        out: Vec<u8>,
    }

    impl Source<()> for Echo {
        fn ready(&mut self, ctl: &mut Ctl<'_, ()>, readable: bool, writable: bool) -> Action {
            if readable {
                let mut buf = [0u8; 4096];
                loop {
                    match self.stream.read(&mut buf) {
                        Ok(0) => return Action::Drop,
                        Ok(n) => self.out.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return Action::Drop,
                    }
                }
            }
            let _ = writable;
            while !self.out.is_empty() {
                match self.stream.write(&self.out) {
                    Ok(0) => return Action::Drop,
                    Ok(n) => {
                        self.out.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        ctl.set_interest(Interest::BOTH);
                        return Action::Keep;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Action::Drop,
                }
            }
            ctl.set_interest(Interest::READ);
            Action::Keep
        }
    }

    struct EchoListener {
        listener: TcpListener,
    }

    impl Source<()> for EchoListener {
        fn ready(&mut self, ctl: &mut Ctl<'_, ()>, _r: bool, _w: bool) -> Action {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true).unwrap();
                        let fd = {
                            use std::os::unix::io::AsRawFd;
                            stream.as_raw_fd()
                        };
                        ctl.spawn(
                            Box::new(Echo {
                                stream,
                                out: Vec::new(),
                            }),
                            Some(fd),
                            Interest::READ,
                        );
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            Action::Keep
        }
    }

    #[test]
    fn echoes_across_the_poller() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut reactor = Reactor::new(()).unwrap();
        let fd = listener.as_raw_fd();
        reactor
            .register(
                Box::new(EchoListener { listener }),
                Some(fd),
                Interest::READ,
            )
            .unwrap();

        // Blocking clients on their own thread; this one drives the loop.
        let clients = thread::spawn(move || {
            let mut a = TcpStream::connect(addr).unwrap();
            let mut b = TcpStream::connect(addr).unwrap();
            a.write_all(b"hello reactor").unwrap();
            b.write_all(b"second client").unwrap();
            let mut buf = [0u8; 13];
            a.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hello reactor");
            b.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"second client");
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while !clients.is_finished() && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(10));
        }
        clients.join().unwrap();
    }

    struct Ticker {
        period: Duration,
        fired: mpsc::Sender<Instant>,
    }

    impl Source<()> for Ticker {
        fn ready(&mut self, _ctl: &mut Ctl<'_, ()>, _r: bool, _w: bool) -> Action {
            Action::Keep
        }

        fn notified(&mut self, ctl: &mut Ctl<'_, ()>) -> Action {
            ctl.set_deadline(Some(Instant::now() + self.period));
            Action::Keep
        }

        fn deadline(&mut self, ctl: &mut Ctl<'_, ()>) -> Action {
            let _ = self.fired.send(Instant::now());
            ctl.set_deadline(Some(Instant::now() + self.period));
            Action::Keep
        }
    }

    #[test]
    fn deadlines_fire_and_rearm() {
        let mut reactor = Reactor::new(()).unwrap();
        let (tx, rx) = mpsc::channel();
        let token = reactor
            .register(
                Box::new(Ticker {
                    period: Duration::from_millis(10),
                    fired: tx,
                }),
                None,
                Interest::NONE,
            )
            .unwrap();
        let start = Instant::now();
        reactor.mark(token); // arms the first deadline
        let mut fired = 0;
        while fired < 3 && start.elapsed() < Duration::from_secs(2) {
            // A long wait: the armed deadline, not `wait`, ends each poll.
            reactor.poll(Duration::from_secs(1));
            fired += rx.try_iter().count();
        }
        assert_eq!(fired, 3, "three periods within the poll budget");
        assert!(start.elapsed() >= Duration::from_millis(30), "fired early");
    }

    #[test]
    fn late_registration_and_notify_coalescing() {
        /// Counts its notifications in the reactor's context.
        struct Counter;
        impl Source<u64> for Counter {
            fn ready(&mut self, _ctl: &mut Ctl<'_, u64>, _r: bool, _w: bool) -> Action {
                Action::Keep
            }
            fn notified(&mut self, ctl: &mut Ctl<'_, u64>) -> Action {
                *ctl.cx() += 1;
                Action::Keep
            }
        }
        let mut reactor = Reactor::new(0u64).unwrap();
        reactor.poll(Duration::ZERO);
        // Registered after the loop has run.
        let token = reactor
            .register(Box::new(Counter), None, Interest::NONE)
            .unwrap();

        // Marks from the loop's thread coalesce into one callback, and a
        // poll with a mark pending does not block.
        for _ in 0..100 {
            reactor.mark(token);
        }
        let start = Instant::now();
        reactor.poll(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a mark must not wait"
        );
        assert_eq!(*reactor.cx(), 1, "marks coalesce");

        // Notifies from another thread wake a blocked poll and coalesce.
        let handle = reactor.handle();
        let notifier = thread::spawn(move || {
            for _ in 0..100 {
                handle.notify(token);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        while *reactor.cx() == 1 && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(500));
        }
        notifier.join().unwrap();
        reactor.poll(Duration::ZERO);
        let seen = *reactor.cx() - 1;
        assert!(seen >= 1, "notify never delivered");
        assert!(seen <= 100, "notify multiplied");
    }

    /// A notify's eventfd write can land after the loop already cleared
    /// its pending flag (the loop was awake between the notifier's flag
    /// set and its write). The readable eventfd must still be drained, or
    /// every later poll returns at once and the node's thread spins.
    #[test]
    fn a_late_wakeup_is_drained_and_polls_block_again() {
        let mut reactor = Reactor::new(()).unwrap();
        assert!(!reactor.shared.wake_pending.load(Ordering::SeqCst));
        sys::eventfd_post(reactor.shared.eventfd);
        reactor.poll(Duration::from_millis(100)); // sees the write
        let start = Instant::now();
        reactor.poll(Duration::from_millis(100));
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "a poll with nothing pending returned after {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn nonblocking_connect_reports_status() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stream, done) = sys::connect_nonblocking(&addr).unwrap();
        // Loopback may complete synchronously or not; either way the
        // connection becomes established and carries data.
        if !done {
            let mut spins = 0;
            while stream.peer_addr().is_err() {
                thread::sleep(Duration::from_millis(1));
                spins += 1;
                assert!(spins < 2000, "connect never completed");
            }
        }
        assert!(stream.take_error().unwrap().is_none());
        let (mut accepted, _) = listener.accept().unwrap();
        let mut s = stream;
        s.set_nonblocking(false).unwrap();
        s.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }
}
