//! The connection loop both serving tiers run on.
//!
//! The gatekeeper ([`crate::serve`]) and the router ([`crate::route`])
//! share one threading model. An acceptor thread round-robins accepted
//! sockets over bounded per-worker queues and sheds with `503` +
//! `Retry-After` when every queue is full. Each worker owns its
//! connections for their lifetime and multiplexes them nonblocking,
//! without locks, in one loop that blocks in `poll(2)` on:
//!
//! * its wake socket: the acceptor writes a byte after each hand-off and
//!   drops its end on shutdown, so a worker hears of new connections and
//!   of shutdown without polling a flag;
//! * its client connections;
//! * each in-flight exchange's upstream socket (the router's proxy hop).
//!
//! Interest is derived from each connection's state on every turn:
//! `POLLIN` only while the client may send (no exchange in flight, input
//! below the cap), `POLLOUT` only while output or a relay is pending. A
//! client's `POLLERR`/`POLLHUP` closes it at once, and an upstream is
//! polled only while its exchange can use the event, so the
//! level-triggered `poll` never spins. The timeout is the earliest
//! idle-connection or upstream deadline; an idle worker sleeps until a
//! socket or a deadline needs it.
//!
//! The loop owns everything about a connection that does not depend on
//! the tier: its reused buffers (recycled through a per-worker pool), the
//! bounded read, request-head framing with its `400`/`413` replies,
//! output flushing and the idle timeout. A tier plugs in as a
//! [`Handler`] that answers framed requests and, for the router, drives
//! the exchanges it takes in flight.

use crate::wire::{self, Head, HeadParse};
use std::convert::Infallible;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted head block (request or response line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 64 << 10;

pub(crate) const POLLIN: c_short = 0x1;
pub(crate) const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const POLLNVAL: c_short = 0x20;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    // From the C library std already links.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Per-worker limits shared by both tiers.
#[derive(Clone, Copy)]
pub(crate) struct LoopConfig {
    /// Idle-connection timeout.
    pub read_timeout: Duration,
    /// Connections one worker multiplexes; beyond it new connections
    /// wait in the worker's accept queue.
    pub max_conns: usize,
    /// Largest accepted request body; larger requests get 413.
    pub max_body_bytes: usize,
}

/// What a tier does with the requests the loop frames.
pub(crate) trait Handler {
    /// A request still being served after the turn that framed it (the
    /// router's upstream hop); `Infallible` for a tier that answers every
    /// request inline.
    type Exchange: Exchange;

    /// Called once per turn after `poll` returns, before any connection
    /// is serviced.
    fn turn(&mut self) {}

    /// Answer the complete request `frame` (head + body; `head` spans
    /// index into it) by appending a response to `out`, or take it in
    /// flight by returning an exchange. The frame of an exchange stays at
    /// the start of the connection's `inbuf` until the exchange ends.
    fn request(
        &mut self,
        frame: &[u8],
        head: &Head,
        out: &mut Vec<u8>,
        now: Instant,
    ) -> Option<Self::Exchange>;

    /// Push an exchange forward once the connection's earlier output is
    /// on the wire. An ended exchange must drain its frame from
    /// `conn.inbuf`.
    fn progress(
        &mut self,
        x: Self::Exchange,
        conn: &mut Conn<Self::Exchange>,
        now: Instant,
    ) -> Step<Self::Exchange>;
}

/// The readiness an in-flight exchange waits for.
pub(crate) trait Exchange {
    /// The upstream socket and events to wait on, or `None` while the
    /// exchange waits for the client socket to take relayed bytes.
    fn waits_on(&self) -> Option<(RawFd, c_short)>;
    /// When the exchange times out.
    fn deadline(&self) -> Option<Instant>;
}

impl Exchange for Infallible {
    fn waits_on(&self) -> Option<(RawFd, c_short)> {
        match *self {}
    }
    fn deadline(&self) -> Option<Instant> {
        match *self {}
    }
}

/// Outcome of [`Handler::progress`].
pub(crate) enum Step<X> {
    /// Still in flight; the loop polls it again.
    Pending(X),
    /// Done: its response (or error) is staged or relayed.
    Ended,
    /// The client connection failed; the loop closes it.
    ClientGone,
}

/// One multiplexed client connection: reused buffers plus framing state.
pub(crate) struct Conn<X> {
    pub stream: TcpStream,
    /// Unparsed request bytes (complete requests are consumed in place).
    pub inbuf: Vec<u8>,
    /// Responses staged by the loop or the handler, not yet accepted by
    /// the socket. An exchange relays only once this is flushed, so
    /// responses leave in request order.
    pub outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    out_pos: usize,
    last_active: Instant,
    /// Flush what is pending, then close (explicit `connection: close`,
    /// protocol errors, EOF).
    pub close_after_flush: bool,
    exchange: Option<X>,
    /// Index of the connection's client entry in the poll set; its
    /// upstream entry follows it.
    slot: usize,
}

impl<X: Exchange> Conn<X> {
    fn flushed(&self) -> bool {
        self.out_pos == self.outbuf.len()
    }

    /// When this connection next needs a turn without a socket event.
    fn deadline(&self, read_timeout: Duration) -> Option<Instant> {
        match &self.exchange {
            Some(x) if self.flushed() => x.deadline(),
            _ => self.last_active.checked_add(read_timeout),
        }
    }

    /// The client and upstream poll entries for the current state.
    fn interest(&self, cap: usize) -> [PollFd; 2] {
        let mut client = PollFd { fd: self.stream.as_raw_fd(), events: 0, revents: 0 };
        // A negative fd is skipped by `poll`.
        let mut upstream = PollFd { fd: -1, events: 0, revents: 0 };
        if !self.flushed() {
            client.events |= POLLOUT;
        }
        match &self.exchange {
            Some(x) => match x.waits_on() {
                Some((fd, events)) if self.flushed() => {
                    upstream = PollFd { fd, events, revents: 0 }
                }
                _ => client.events |= POLLOUT,
            },
            None if !self.close_after_flush && self.inbuf.len() < cap => client.events |= POLLIN,
            None => {}
        }
        [client, upstream]
    }
}

/// A running tier's threads. Dropping it stops the acceptor, which
/// closes every worker's wake socket, and joins them all.
pub(crate) struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `workers` loop threads named `{name}-worker-{i}`, each
    /// running a handler from `handler`, behind an acceptor thread named
    /// `{name}-acceptor` that queues up to `accept_queue` connections per
    /// worker. `on_shed` is called once per connection shed with 503
    /// (counters differ per tier; the shed bytes do not).
    pub(crate) fn start<H: Handler + Send + 'static>(
        listener: TcpListener,
        name: &str,
        workers: usize,
        accept_queue: usize,
        cfg: LoopConfig,
        mut handler: impl FnMut() -> H,
        on_shed: impl Fn() + Send + 'static,
    ) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Every fallible step comes before the first spawn.
        let mut wakes = Vec::new();
        for _ in 0..workers.max(1) {
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            wakes.push((wake_tx, wake_rx));
        }
        let mut queues = Vec::new();
        let mut handles = Vec::new();
        for (i, (wake_tx, wake_rx)) in wakes.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(accept_queue.max(1));
            queues.push((tx, wake_tx));
            let h = handler();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || run(h, &rx, &wake_rx, cfg))
                    .expect("spawn worker"),
            );
        }
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || accept_striped(&listener, &queues, &stop, &on_shed))
                .expect("spawn acceptor")
        };
        Ok(Self { addr, stop, acceptor: Some(acceptor), workers: handles })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Round-robin accepted sockets over the per-worker queues, waking the
/// receiving worker, and shed load with `503` + `Retry-After` when every
/// queue is full. Returning drops the queues and wake sockets, which
/// stops the workers.
fn accept_striped(
    listener: &TcpListener,
    queues: &[(SyncSender<TcpStream>, UnixStream)],
    stop: &AtomicBool,
    on_shed: &dyn Fn(),
) {
    // The saturation response is fixed; build it once.
    let body = br#"{"error":"server overloaded"}"#;
    let mut reject = Vec::new();
    wire::write_head_retry(&mut reject, 503, "application/json", body.len(), false, 1);
    reject.extend_from_slice(body);

    let mut next = 0usize;
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break; // the shutdown self-connect lands here
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        // The first worker with queue room owns this connection for its
        // lifetime.
        let mut stream = Some(stream);
        for i in 0..queues.len() {
            let w = (next + i) % queues.len();
            let (tx, mut wake) = (&queues[w].0, &queues[w].1);
            match tx.try_send(stream.take().expect("stream present until sent")) {
                Ok(()) => {
                    // A full wake buffer already has the worker awake.
                    let _ = wake.write(&[1]);
                    next = (w + 1) % queues.len();
                    break;
                }
                Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                    stream = Some(s);
                }
            }
        }
        if let Some(mut s) = stream {
            // Every queue is full: shed load now, tell the client when
            // to come back, and never block the accept loop on it.
            on_shed();
            let _ = s.set_nonblocking(false);
            let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = s.write_all(&reject);
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// One worker: poll, service the connections that are ready or past a
/// deadline, admit queued connections, repeat until the wake socket
/// closes.
fn run<H: Handler>(mut h: H, rx: &Receiver<TcpStream>, wake: &UnixStream, cfg: LoopConfig) {
    let mut conns: Vec<Conn<H::Exchange>> = Vec::new();
    let mut spare: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tmp = vec![0u8; 64 << 10];
    let mut err_body = String::new();
    // Bounded so a pipelining peer cannot grow a buffer past one
    // max-size request.
    let cap = cfg.max_body_bytes.saturating_add(MAX_HEAD_BYTES + (64 << 10));
    loop {
        let now = Instant::now();
        fds.clear();
        fds.push(PollFd { fd: wake.as_raw_fd(), events: POLLIN, revents: 0 });
        let mut next: Option<Instant> = None;
        for c in &mut conns {
            c.slot = fds.len();
            fds.extend(c.interest(cap));
            if let Some(d) = c.deadline(cfg.read_timeout) {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        // Rounded up a millisecond so a wake finds its deadline passed.
        let timeout = next.map_or(-1, |d| {
            let ms = d.saturating_duration_since(now).as_millis().saturating_add(1);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        });
        // SAFETY: `fds` is a live, initialized `Vec<PollFd>` laid out as
        // `struct pollfd[]`, `nfds` is its length, and nothing else touches
        // it during the call. A failed call (EINTR) leaves every `revents`
        // zero, which reads as "no events".
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout) };
        let now = Instant::now();
        h.turn();
        if fds[0].revents != 0 && !drain_wake(wake) {
            return;
        }
        let mut i = 0;
        while i < conns.len() {
            let c = &mut conns[i];
            let (client, upstream) = (fds[c.slot].revents, fds[c.slot + 1].revents);
            let keep = if client & (POLLERR | POLLHUP | POLLNVAL) != 0 {
                false
            } else if client | upstream != 0
                || c.deadline(cfg.read_timeout).is_some_and(|d| now >= d)
            {
                service(&mut h, c, &mut tmp, &mut err_body, cap, cfg, now)
            } else {
                true
            };
            if keep {
                i += 1;
            } else {
                let c = conns.swap_remove(i);
                let _ = c.stream.shutdown(Shutdown::Both);
                spare.push((c.inbuf, c.outbuf));
            }
        }
        // Admit after servicing, so a slot freed this turn is refilled
        // now; a new connection joins the next poll.
        while conns.len() < cfg.max_conns {
            let Ok(stream) = rx.try_recv() else { break };
            let (mut inbuf, mut outbuf) = spare.pop().unwrap_or_default();
            inbuf.clear();
            outbuf.clear();
            conns.push(Conn {
                stream,
                inbuf,
                outbuf,
                out_pos: 0,
                last_active: now,
                close_after_flush: false,
                exchange: None,
                slot: 0,
            });
        }
    }
}

/// Empty the wake socket; `false` once the acceptor dropped its end.
fn drain_wake(mut wake: &UnixStream) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return e.kind() == std::io::ErrorKind::WouldBlock,
        }
    }
}

/// One turn of one connection; `false` closes it.
fn service<H: Handler>(
    h: &mut H,
    c: &mut Conn<H::Exchange>,
    tmp: &mut [u8],
    err_body: &mut String,
    cap: usize,
    cfg: LoopConfig,
    now: Instant,
) -> bool {
    // The client's POLLIN was off while an exchange was in flight, so
    // whatever it sent meanwhile is left for the next poll to report.
    let was_in_flight = c.exchange.is_some();
    if !flush_out(c, now) || !advance(h, c, now) {
        return false;
    }
    if c.exchange.is_none() && !c.close_after_flush {
        let mut eof = false;
        while !was_in_flight && c.inbuf.len() < cap {
            match c.stream.read(tmp) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    c.inbuf.extend_from_slice(&tmp[..n]);
                    c.last_active = now;
                    if n < tmp.len() {
                        // Drained for now; `poll` reports anything later.
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !frame(h, c, err_body, cfg.max_body_bytes, now) {
            return false;
        }
        if eof {
            // Peer is done sending; flush whatever is staged, then close
            // (an incomplete buffered request is dropped silently).
            c.close_after_flush = true;
        }
        // A freshly taken exchange is driven at once, so its request
        // leaves without waiting a turn.
        if !advance(h, c, now) {
            return false;
        }
    }
    if !flush_out(c, now) {
        return false;
    }
    match c.exchange {
        // An exchange that can move is bounded by its own deadline.
        Some(_) if c.flushed() => true,
        _ => {
            !(c.close_after_flush && c.flushed())
                && now.duration_since(c.last_active) <= cfg.read_timeout
        }
    }
}

/// Drive the connection's exchange, if any, once its earlier output is
/// on the wire; `false` when the client failed.
fn advance<H: Handler>(h: &mut H, c: &mut Conn<H::Exchange>, now: Instant) -> bool {
    if !c.flushed() {
        return true;
    }
    let Some(x) = c.exchange.take() else { return true };
    match h.progress(x, c, now) {
        Step::Pending(x) => c.exchange = Some(x),
        Step::Ended => c.last_active = now,
        Step::ClientGone => return false,
    }
    true
}

/// Handle every complete request buffered so far, up to the first one a
/// handler takes in flight; `false` on an unreadable head (close without
/// a response).
fn frame<H: Handler>(
    h: &mut H,
    c: &mut Conn<H::Exchange>,
    err_body: &mut String,
    max_body_bytes: usize,
    now: Instant,
) -> bool {
    let mut consumed = 0usize;
    while consumed < c.inbuf.len() {
        let buf = &c.inbuf[consumed..];
        let (status, msg) = match wire::parse_head(buf, MAX_HEAD_BYTES) {
            HeadParse::Partial => break,
            HeadParse::Hangup => return false,
            HeadParse::Bad(status, msg) => (status, msg),
            HeadParse::Complete(head) if head.content_length > max_body_bytes => {
                (413, "body too large")
            }
            HeadParse::Complete(head) => {
                let total = head.head_len + head.content_length;
                if buf.len() < total {
                    break; // body not fully buffered yet
                }
                c.last_active = now;
                if let Some(x) = h.request(&buf[..total], &head, &mut c.outbuf, now) {
                    c.exchange = Some(x);
                    break;
                }
                consumed += total;
                if !head.keep_alive {
                    c.close_after_flush = true;
                    break;
                }
                continue;
            }
        };
        // A protocol error answers, then closes: nothing after it frames.
        stage_error(err_body, &mut c.outbuf, status, msg, false);
        c.close_after_flush = true;
        consumed = c.inbuf.len();
        break;
    }
    c.inbuf.drain(..consumed);
    true
}

/// Write pending output until the socket would block; `false` when the
/// connection failed.
fn flush_out<X>(c: &mut Conn<X>, now: Instant) -> bool {
    while c.out_pos < c.outbuf.len() {
        match c.stream.write(&c.outbuf[c.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                c.out_pos += n;
                c.last_active = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if c.out_pos == c.outbuf.len() && c.out_pos > 0 {
        c.outbuf.clear();
        c.out_pos = 0;
    }
    true
}

/// Stage a JSON error response (`{"error":message}`) into `out`, using
/// `body` as the body's staging buffer.
pub(crate) fn stage_error(
    body: &mut String,
    out: &mut Vec<u8>,
    status: u16,
    message: &str,
    keep_alive: bool,
) {
    body.clear();
    wire::write_error_body(body, message);
    wire::write_head(out, status, "application/json", body.len(), keep_alive);
    out.extend_from_slice(body.as_bytes());
}
