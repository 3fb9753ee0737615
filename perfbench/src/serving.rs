//! The two serving workloads: one gatekeeper taking single-record ingest
//! (`serve_direct`), and the router in front of two gatekeepers with a
//! mixed traffic and a working set larger than the registry budget
//! (`serve_routed`).
//!
//! Load comes from this process: one sender thread on one keep-alive
//! connection, pinned to its own core with the tier's threads on another.
//! At a fixed rate it offers seeded Poisson arrivals, pipelining each
//! request when due; each request is timed from when it was due, so a
//! stall also charges the requests queued behind it. During a timed phase
//! the sender only logs what the server returned (score bits, checkpoint
//! digests); after the phase the log is replayed through local twins of
//! every profile and each served value is compared bit for bit, and the
//! run ends with a byte-for-byte audit of every checkpoint.

use crate::stats::{self, Digest, Ladder};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::{ExperimentConfig, StreamMethod};
use exathlon_core::experiment::prepare;
use exathlon_core::model::TrainingBudget;
use exathlon_core::registry::{key_hash, RegistryStats};
use exathlon_core::replay::{build_servable, replay_series, stream_seed};
use exathlon_core::route::{Ring, Router, RouterConfig, RouterStats};
use exathlon_core::serve::{GateStats, Gatekeeper, GatekeeperConfig};
use exathlon_core::wire::{self, parse_head, HeadParse};
use exathlon_linalg::stats::quantile;
use exathlon_sparksim::dataset::DatasetBuilder;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Gatekeeper and router worker threads.
const WORKERS: usize = 2;
/// Latency limit on the tail for `max_rate_rps`, µs from due time. It
/// sits well above both tiers' idle-latency floor, so the ladder finds
/// where queueing sets in rather than where idle wake-ups happen to land.
const LIMIT_US: f64 = 20000.0;
/// Rate ladder from the tier's light rate to `LADDER_MAX_RPS` in steps of
/// `LADDER_RATIO`: a 5% resolution, finer than the metric's bound. Each
/// probe offers its rate for `PROBE_SHARE` of the run's seconds.
const LADDER_MAX_RPS: f64 = 512_000.0;
const PROBE_SHARE: f64 = 0.08;
const LADDER_RATIO: f64 = 1.05;
/// Bulk replays per run; `run_s` is their median.
const BULK_REPS: usize = 7;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Warm-up requests per hot tenant during set-up.
const WARM_PER_TENANT: usize = 8;
/// Share of the run's seconds each fixed-rate phase lasts.
const FIXED_SHARE: f64 = 0.3;
/// Slices of a fixed-rate phase whose tails are combined by their median.
const TAIL_WINDOWS: usize = 5;
/// A fixed-rate phase is invalid when the generator's median lateness
/// exceeds this share of the phase's median latency. Latency is timed from
/// due time, so a late send is charged to its request and never reads as
/// fast; a late generator voids the figure at the quantile its lateness
/// reaches. An untraced run reports medians, so it is judged at the median:
/// past this share, the median measures the sender, not the tier. The
/// lag's p99 is reported beside the traced run's tails.
const GEN_LAG_SHARE: f64 = 0.1;
/// Times an untraced run offers a fixed rate before an invalid phase makes
/// the run invalid.
const PHASE_ATTEMPTS: usize = 3;
/// Slack before a latency trend at a fixed rate counts as a growing
/// backlog, ns.
const BACKLOG_SLACK_NS: u64 = 1_000_000;
/// Retries of a `503` before the request counts as failed.
const RETRY_LIMIT: u32 = 6;
/// Client socket timeout: a response slower than this is a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// `/v1/score` body size.
const BATCH: usize = 32;
/// Application name of every tenant.
const APP: &str = "spark-app";
/// Every detector a tenant may use.
const METHODS: [StreamMethod; 4] =
    [StreamMethod::Ewma, StreamMethod::Cusum, StreamMethod::Histogram, StreamMethod::Knn];

/// Which tier the load goes to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One gatekeeper, single-record ingest, working set within budget.
    Direct,
    /// Router over two gatekeepers, mixed traffic, working set spilling.
    Routed,
}

/// Per-tier shape of the tenant set and traffic.
struct Shape {
    /// Tenants every request kind reaches, with their detectors
    /// (round-robin).
    hot: usize,
    hot_methods: &'static [StreamMethod],
    /// Tenants touched by one request in `COLD_EVERY`, all with one
    /// detector.
    cold: usize,
    cold_method: StreamMethod,
    /// Cold profiles each shard has room for beyond its hot tenants; with
    /// fewer than its cold tenants, every cold request restores from
    /// spill. Zero keeps the default budget (nothing evicted).
    cold_room: usize,
    /// The `light` rate, req/s: workers sit idle between requests.
    light_rps: f64,
    /// The `heavy` rate, req/s: about half the tier's `max_rate_rps` at
    /// the commit that introduced the benchmark, on a 2-CPU box.
    heavy_rps: f64,
    /// Requests in the closed-loop bulk replay behind `run_s`, and how
    /// many of them await a reply at once.
    bulk: usize,
    bulk_window: usize,
}

/// One request in `COLD_EVERY` goes to a cold tenant on `Routed`.
const COLD_EVERY: u64 = 10;

impl Tier {
    fn shape(self) -> Shape {
        match self {
            Tier::Direct => Shape {
                hot: 16,
                hot_methods: &METHODS,
                cold: 0,
                cold_method: StreamMethod::Ewma,
                cold_room: 0,
                light_rps: 1000.0,
                heavy_rps: 15_000.0,
                bulk: 20_000,
                bulk_window: 16,
            },
            // The routed tier's open-loop capacity over one connection is
            // about 1k–1.5k req/s on this code, so its light rate sits lower.
            // Its bulk replay waits for each reply: with several in flight
            // the router's per-connection queue made replays 2x apart.
            Tier::Routed => Shape {
                hot: 16,
                hot_methods: &[StreamMethod::Ewma, StreamMethod::Cusum],
                cold: 128,
                cold_method: StreamMethod::Histogram,
                cold_room: 2,
                light_rps: 250.0,
                heavy_rps: 450.0,
                bulk: 500,
                bulk_window: 1,
            },
        }
    }
}

/// What one request does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ingest,
    Score,
    Checkpoint,
}

/// One tenant: its key, its profile as uploaded, and the records it
/// streams (cycled).
struct Tenant {
    entity: String,
    method: StreamMethod,
    profile: ServingProfile,
    records: Vec<Vec<f64>>,
    /// The single-record ingest request of each record, encoded once so
    /// that the generator spends its time sending rather than formatting.
    ingest: Vec<Vec<u8>>,
}

/// `POST /v1/ingest` of one record, as the generator sends it.
fn ingest_request(entity: &str, record: &[f64]) -> Vec<u8> {
    let mut body = String::from("{\"record\":[");
    write_values(&mut body, record);
    body.push_str("]}");
    let mut req = Vec::new();
    let _ = write!(req, "POST /v1/ingest/{APP}/{entity} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}", body.len());
    req
}

/// One logged request: what was sent and where its served values sit in
/// the sender's result buffer.
#[derive(Clone, Copy)]
struct Op {
    tenant: u32,
    kind: Kind,
    /// Record cursor of the tenant before the request.
    cursor: u32,
    /// Offset of the served values in `Sender::results`.
    at: u32,
    ok: bool,
    /// Times the request was shed with `503` and sent again.
    attempts: u32,
}

/// Timing of one request, ns since the phase started.
#[derive(Clone, Copy)]
struct Sample {
    due: u64,
    sent: u64,
    done: u64,
    ok: bool,
}

// ------------------------------------------------------------------ client

/// A keep-alive HTTP/1.1 connection with reused buffers.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    req: Vec<u8>,
    resp: Vec<u8>,
    tmp: Vec<u8>,
    retries: u64,
}

/// A request that did not complete with a 2xx response.
#[derive(Debug)]
struct Failure(String);

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            addr,
            stream: Self::open(addr)?,
            req: Vec::new(),
            resp: Vec::new(),
            tmp: vec![0; 64 << 10],
            retries: 0,
        })
    }

    fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(s)
    }

    /// Put `method path` with `body` in the request buffer.
    fn prepare(&mut self, method: &str, path: &str, body: &[u8]) {
        self.req.clear();
        let _ = write!(
            self.req,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.req.extend_from_slice(body);
    }

    /// The retry rule of every request the benchmark sends: a `503` is sent
    /// again at once, up to `RETRY_LIMIT` times; after that it fails like
    /// any other non-2xx reply. Returns whether to send again.
    fn resend(&mut self, status: u16, attempts: u32) -> bool {
        let again = status == 503 && attempts < RETRY_LIMIT;
        self.retries += u64::from(again);
        again
    }

    fn reconnect(&mut self) -> Result<(), Failure> {
        self.stream = Self::open(self.addr).map_err(|e| Failure(format!("reconnect: {e}")))?;
        Ok(())
    }

    /// Write the prepared request and read its reply into `self.resp`.
    fn exchange(&mut self) -> Result<Reply, Failure> {
        self.stream.write_all(&self.req).map_err(|e| Failure(format!("write: {e}")))?;
        self.resp.clear();
        loop {
            if let Some(reply) = split_reply(&self.resp).map_err(Failure)? {
                return Ok(reply);
            }
            let n = self.stream.read(&mut self.tmp).map_err(|e| Failure(format!("read: {e}")))?;
            if n == 0 {
                return Err(Failure("server closed mid-response".into()));
            }
            self.resp.extend_from_slice(&self.tmp[..n]);
        }
    }

    /// A whole request with its body, one at a time on the connection;
    /// returns the response body.
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Vec<u8>, Failure> {
        self.prepare(method, path, body);
        let mut attempts = 0;
        loop {
            let reply = match self.exchange() {
                Ok(r) => r,
                Err(e) => {
                    // The connection is in an unknown state: start afresh.
                    let _ = self.reconnect();
                    return Err(e);
                }
            };
            if !reply.keep_alive {
                self.reconnect()?;
            }
            if self.resend(reply.status, attempts) {
                attempts += 1;
                continue;
            }
            if !(200..300).contains(&reply.status) {
                return Err(Failure(format!("status {}", reply.status)));
            }
            return Ok(self.resp[reply.head_len..reply.len].to_vec());
        }
    }
}

/// A complete reply at the front of a read buffer.
struct Reply {
    status: u16,
    head_len: usize,
    /// Head and body.
    len: usize,
    keep_alive: bool,
}

/// The complete reply at the front of `buf`, or `None` while it is partial.
fn split_reply(buf: &[u8]) -> Result<Option<Reply>, String> {
    // A status line parses like a request line: the code lands in the
    // `path` span.
    let h = match parse_head(buf, 64 << 10) {
        HeadParse::Complete(h) => h,
        HeadParse::Partial => return Ok(None),
        other => return Err(format!("malformed reply head: {other:?}")),
    };
    let len = h.head_len + h.content_length;
    if buf.len() < len {
        return Ok(None);
    }
    let status = std::str::from_utf8(&buf[h.path.0..h.path.1])
        .ok()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| "bad status".to_string())?;
    Ok(Some(Reply { status, head_len: h.head_len, len, keep_alive: h.keep_alive }))
}

fn write_values(out: &mut String, values: &[f64]) {
    for (i, x) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if x.is_finite() {
            let _ = write!(out, "{x}");
        } else {
            out.push_str("null");
        }
    }
}

fn parse_score(token: &str) -> Option<f64> {
    if token == "null" {
        Some(f64::NAN)
    } else {
        token.parse().ok()
    }
}

/// `"score":<num>` of an ingest response.
fn score_of(body: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"score\":").nth(1)?;
    parse_score(&rest[..rest.find(',').unwrap_or(rest.len())])
}

/// `"scores":[...]` of a batch response, appended to `out`.
fn scores_of(body: &[u8], out: &mut Vec<u64>) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"scores\":[").nth(1)?;
    let list = &rest[..rest.find(']')?];
    let before = out.len();
    for token in list.split(',').filter(|t| !t.is_empty()) {
        out.push(parse_score(token)?.to_bits());
    }
    Some(out.len() - before)
}

fn checkpoint_digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.value()
}

// ------------------------------------------------------------------ sender

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    // From the C library std already links.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin thread `tid` (0: the calling thread) to `cpu`. Loopback traffic
/// makes the scheduler pull a woken receiver onto its waker's core, so
/// unpinned, the generator and the tier's busy worker sometimes share one
/// core while the other idles, and saturating phases read 20–50% apart
/// from run to run. Best effort: failure leaves the thread unpinned.
fn pin(tid: i32, cpu: usize) {
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set for the whole call and the
    // size passed matches it.
    let _ = unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
}

/// The core the generator runs on; the tier's threads get the others.
fn generator_cpu() -> Option<usize> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (2..=64).contains(&n).then_some(n - 1)
}

/// Pin every thread of the tier (`gk-*`, `rt-*`) to core 0.
fn pin_tier() {
    if generator_cpu().is_none() {
        return;
    }
    for task in std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
        if let (true, Some(tid)) = (comm.starts_with("gk-") || comm.starts_with("rt-"), tid) {
            pin(tid, 0);
        }
    }
}

/// Wait until `stream` has bytes to read or `timeout` passes. Socket read
/// timeouts round up to the kernel tick (1–4 ms), far coarser than the
/// schedule; `ppoll` sleeps on a high-resolution timer.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the whole
    // call, `nfds` is 1 to match the single `pollfd`, and a null signal mask
    // leaves the thread's mask unchanged.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

/// `wait_readable` for an open-loop sender: polls without sleeping until
/// `stream` has bytes or `timeout` passes. A sender that sleeps between
/// arrivals wakes late whenever the host has to reschedule its idle
/// virtual CPU: on a shared 2-vCPU virtual machine the light rate's p99
/// generator lag read 3–14 ms with sleeps. Spinning keeps the sender's
/// own core busy; pinning keeps that core apart from the tier's.
fn spin_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let t0 = Instant::now();
    loop {
        if wait_readable(stream, Duration::ZERO) {
            return true;
        }
        if t0.elapsed() >= timeout {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// How a phase offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop: `rate` req/s, each request written
    /// when due and pipelined on the connection without waiting for the
    /// replies before it.
    Open { rate: f64, duration: Duration, seed: u64 },
    /// Closed loop: `count` requests per sender, at most `window` of them
    /// awaiting a reply.
    Closed { count: usize, window: usize },
}

/// Requests one open-loop sender may have awaiting replies.
const MAX_PIPELINE: usize = 512;

/// The load generator: one connection, the traffic mix, and the log of
/// what the tier served. One sender thread on one connection: with the
/// generator in the same process on a 2-CPU box, the sender and the tier
/// then each keep a core, where two senders made four busy threads share
/// two cores and the saturating phases read 20–40% apart run to run. One
/// connection also keeps each tenant's request order deterministic.
struct Sender {
    client: Client,
    /// Hot and cold tenant ids, by index into the tenant list.
    hot: Vec<u32>,
    cold: Vec<u32>,
    /// Record cursor per tenant id.
    cursors: Vec<u32>,
    /// Requests issued so far (drives the traffic mix).
    seq: u64,
    body: String,
    /// Completed requests in the order the server applied them.
    log: Vec<Op>,
    results: Vec<u64>,
    failures: Vec<String>,
}

impl Sender {
    /// The next request of the mix; advances the tenant's cursor.
    fn next(&mut self, tier: Tier) -> Op {
        let j = self.seq;
        self.seq += 1;
        let pick = |set: &[u32], k: u64| set[(k % set.len() as u64) as usize];
        let (tenant, kind) = match tier {
            Tier::Direct => (pick(&self.hot, j), Kind::Ingest),
            Tier::Routed if j % COLD_EVERY == COLD_EVERY / 2 => {
                (pick(&self.cold, j / COLD_EVERY), Kind::Ingest)
            }
            Tier::Routed => {
                let kind = match j % 20 {
                    7 => Kind::Score,
                    17 => Kind::Checkpoint,
                    _ => Kind::Ingest,
                };
                (pick(&self.hot, j), kind)
            }
        };
        let cursor = self.cursors[tenant as usize];
        self.cursors[tenant as usize] += match kind {
            Kind::Ingest => 1,
            Kind::Score => BATCH as u32,
            Kind::Checkpoint => 0,
        };
        Op { tenant, kind, cursor, at: 0, ok: false, attempts: 0 }
    }

    /// Append `op`'s request to the client's request buffer.
    fn encode(&mut self, op: &Op, tenants: &[Tenant]) {
        let t = &tenants[op.tenant as usize];
        let n = t.records.len();
        self.body.clear();
        let path = match op.kind {
            Kind::Ingest => {
                self.client.req.extend_from_slice(&t.ingest[op.cursor as usize % n]);
                return;
            }
            Kind::Score => {
                self.body.push_str("{\"records\":[");
                for i in 0..BATCH {
                    if i > 0 {
                        self.body.push(',');
                    }
                    self.body.push('[');
                    write_values(&mut self.body, &t.records[(op.cursor as usize + i) % n]);
                    self.body.push(']');
                }
                self.body.push_str("]}");
                format!("/v1/score/{APP}/{}", t.entity)
            }
            Kind::Checkpoint => format!("/v1/checkpoint/{APP}/{}", t.entity),
        };
        let method = if op.kind == Kind::Checkpoint { "GET" } else { "POST" };
        let _ = write!(
            self.client.req,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            self.body.len()
        );
        self.client.req.extend_from_slice(self.body.as_bytes());
    }

    /// Log a completed request; keeps the served values when `body` is a
    /// 2xx reply that parses.
    fn finish(&mut self, mut op: Op, reply: Result<&[u8], String>) -> bool {
        op.at = self.results.len() as u32;
        let parsed = reply.and_then(|body| {
            let value = match op.kind {
                Kind::Ingest => score_of(body).map(f64::to_bits),
                Kind::Score => {
                    scores_of(body, &mut self.results).filter(|&n| n == BATCH).map(|_| 0)
                }
                Kind::Checkpoint => Some(checkpoint_digest(body)),
            };
            // Batch scores went straight into the buffer.
            let ok = value.map(|v| {
                if op.kind != Kind::Score {
                    self.results.push(v);
                }
            });
            ok.ok_or_else(|| "unparseable reply".to_string())
        });
        match parsed {
            Ok(()) => op.ok = true,
            Err(why) => {
                self.results.truncate(op.at as usize);
                if self.failures.len() < 5 {
                    self.failures.push(format!("{:?} on tenant {}: {why}", op.kind, op.tenant));
                }
            }
        }
        self.log.push(op);
        op.ok
    }

    /// Offer `load` on this sender's connection. Requests are timed from
    /// `start`; returns one sample per completed request, in reply order.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        tier: Tier,
        tenants: &[Tenant],
        load: Load,
        start: Instant,
        tr: Option<&Tracer>,
    ) -> (Vec<Sample>, bool) {
        let (mut arrivals, count, window, deadline) = match load {
            Load::Open { rate, duration, seed } => {
                let end = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
                let arrivals = stats::Arrivals::poisson(rate, seed, end);
                // A tier that cannot keep up is cut off at half again the
                // phase's length: its backlog has grown.
                (Some(arrivals), usize::MAX, MAX_PIPELINE, end.saturating_add(end / 2))
            }
            Load::Closed { count, window } => (None, count, window.max(1), u64::MAX),
        };
        let now_ns = || start.elapsed().as_nanos() as u64;
        let mut pending: std::collections::VecDeque<(Op, u64, u64)> = Default::default();
        let mut retry: std::collections::VecDeque<(Op, u64)> = Default::default();
        let mut samples = Vec::new();
        let mut issued = 0;
        self.client.resp.clear();
        loop {
            let now = now_ns();
            let open = now <= deadline;
            // Every request already due, and any shed one to send again,
            // goes out in one write, as far as the window has room.
            self.client.req.clear();
            let before = pending.len();
            while open && pending.len() < window {
                let (op, due) = match retry.pop_front() {
                    Some(r) => r,
                    None => {
                        let due = match arrivals.as_mut() {
                            Some(a) => match a.peek() {
                                Some(due) if due <= now_ns() => {
                                    a.take();
                                    due
                                }
                                _ => break,
                            },
                            None if issued < count => now_ns(),
                            None => break,
                        };
                        issued += 1;
                        (self.next(tier), due)
                    }
                };
                self.encode(&op, tenants);
                pending.push_back((op, due, 0));
            }
            if pending.len() > before {
                let sent = now_ns();
                for p in pending.iter_mut().skip(before) {
                    p.2 = sent;
                }
                if let Err(e) = self.client.stream.write_all(&self.client.req) {
                    self.fail_pending(&mut pending, &mut samples, now_ns(), &format!("write: {e}"));
                }
                continue;
            }
            let next_due = match &arrivals {
                Some(a) => a.peek(),
                None => (issued < count).then_some(now),
            };
            if pending.is_empty() {
                match next_due {
                    // Spin, not sleep: see `spin_readable`.
                    Some(due) if open && arrivals.is_some() => {
                        while now_ns() < due {
                            std::hint::spin_loop();
                        }
                    }
                    Some(due) if open => {
                        std::thread::sleep(Duration::from_nanos(due.saturating_sub(now_ns())))
                    }
                    _ if retry.is_empty() || !open => break,
                    _ => {}
                }
                continue;
            }
            // Wait for replies until the next request falls due.
            let wait = match next_due {
                Some(due) if open && pending.len() < window => due.saturating_sub(now),
                _ => IO_TIMEOUT.as_nanos() as u64,
            };
            let ready = if arrivals.is_some() && wait < IO_TIMEOUT.as_nanos() as u64 {
                spin_readable(&self.client.stream, Duration::from_nanos(wait))
            } else {
                wait_readable(&self.client.stream, Duration::from_nanos(wait))
            };
            let read = if ready {
                self.client.stream.read(&mut self.client.tmp)
            } else {
                Err(std::io::ErrorKind::TimedOut.into())
            };
            match read {
                Ok(0) => self.fail_pending(
                    &mut pending,
                    &mut samples,
                    now_ns(),
                    "server closed the connection",
                ),
                Ok(n) => {
                    let tmp = std::mem::take(&mut self.client.tmp);
                    self.client.resp.extend_from_slice(&tmp[..n]);
                    self.client.tmp = tmp;
                    self.take_replies(&mut pending, &mut retry, &mut samples, &now_ns, tr);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let oldest = pending.front().map_or(now, |p| p.2);
                    if now_ns().saturating_sub(oldest) > IO_TIMEOUT.as_nanos() as u64 {
                        self.fail_pending(&mut pending, &mut samples, now_ns(), "reply timed out");
                    }
                }
                Err(e) => {
                    self.fail_pending(&mut pending, &mut samples, now_ns(), &format!("read: {e}"))
                }
            }
        }
        let cut = arrivals.is_some_and(|a| a.peek().is_some());
        (samples, cut)
    }

    /// Match every complete reply in the buffer to the oldest request
    /// awaiting one (HTTP/1.1 replies come back in request order).
    fn take_replies(
        &mut self,
        pending: &mut std::collections::VecDeque<(Op, u64, u64)>,
        retry: &mut std::collections::VecDeque<(Op, u64)>,
        samples: &mut Vec<Sample>,
        now_ns: &dyn Fn() -> u64,
        tr: Option<&Tracer>,
    ) {
        let resp = std::mem::take(&mut self.client.resp);
        let mut pos = 0;
        let mut broken = None;
        while let Some(&(op, due, sent)) = pending.front() {
            let r = match split_reply(&resp[pos..]) {
                Ok(Some(r)) => r,
                Ok(None) => break,
                Err(why) => {
                    broken = Some(why);
                    break;
                }
            };
            pending.pop_front();
            let done = now_ns();
            let reply = &resp[pos..pos + r.len];
            pos += r.len;
            if self.client.resend(r.status, op.attempts) {
                retry.push_back((Op { attempts: op.attempts + 1, ..op }, due));
            } else {
                let ok = self.finish(
                    op,
                    if (200..300).contains(&r.status) {
                        Ok(&reply[r.head_len..])
                    } else {
                        Err(format!("status {}", r.status))
                    },
                );
                if let Some(tr) = tr {
                    // One id per request; its three spans share it.
                    let base = tr.now_ns() - now_ns();
                    let id = self.log.len() as u64;
                    let root = tr.record("client.request", base + due, base + done, None, id);
                    tr.record("gen.wait", base + due, base + sent, Some(root), id);
                    tr.record("client.rtt", base + sent, base + done, Some(root), id);
                }
                samples.push(Sample { due, sent, done, ok });
            }
            if !r.keep_alive {
                broken = Some("server closed the connection".into());
                break;
            }
        }
        self.client.resp = resp;
        self.client.resp.drain(..pos);
        if let Some(why) = broken {
            self.fail_pending(pending, samples, now_ns(), &why);
        }
    }

    /// Fail every request awaiting a reply and open a fresh connection.
    fn fail_pending(
        &mut self,
        pending: &mut std::collections::VecDeque<(Op, u64, u64)>,
        samples: &mut Vec<Sample>,
        now: u64,
        why: &str,
    ) {
        for (op, due, sent) in pending.drain(..) {
            self.finish(op, Err(why.to_string()));
            samples.push(Sample { due, sent, done: now, ok: false });
        }
        self.client.resp.clear();
        if let Err(Failure(e)) = self.client.reconnect() {
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }
}

/// What the sender saw in one phase.
struct Phase {
    /// One sample per request, in reply order.
    samples: Vec<Sample>,
    /// Whether an open-loop phase was cut off with requests still due.
    cut: bool,
}

/// Drive the sender through one phase on its own thread, pinned to the
/// generator's core; returns what it saw and the phase's wall time.
fn phase(
    sender: &mut Sender,
    tier: Tier,
    tenants: &[Tenant],
    load: Load,
    tr: Option<&Tracer>,
) -> (Phase, f64) {
    let t0 = Instant::now();
    let (samples, cut) = std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(cpu) = generator_cpu() {
                pin(0, cpu);
            }
            sender.drive(tier, tenants, load, Instant::now(), tr)
        })
        .join()
        .expect("sender thread panicked")
    });
    (Phase { samples, cut }, t0.elapsed().as_secs_f64())
}

/// A fixed-rate phase as kept: its figures, its generator lag and the
/// share of the gatekeeper workers' time they were busy.
struct Fixed {
    stats: PhaseStats,
    lag: stats::Tail,
    gk_busy: f64,
}

/// Latency (from due time), round trip and generator lag of a phase.
struct PhaseStats {
    requests: usize,
    /// Latency from due time, in due order. Failed requests read as an
    /// infinite latency: they miss any limit.
    latency: Vec<u64>,
    rtt: Vec<u64>,
    lag: Vec<u64>,
    failed: usize,
    backlog_grows: bool,
}

fn phase_stats(phase: &Phase) -> PhaseStats {
    // Replies come back in request order, so reply order is due order
    // except for requests shed and sent again.
    let mut samples = phase.samples.clone();
    samples.sort_by_key(|s| s.due);
    let in_order: Vec<u64> = samples.iter().map(|s| stats::latency_ns(s.due, s.done)).collect();
    PhaseStats {
        requests: samples.len(),
        latency: samples
            .iter()
            .map(|s| if s.ok { stats::latency_ns(s.due, s.done) } else { u64::MAX })
            .collect(),
        rtt: samples.iter().map(|s| s.done - s.sent).collect(),
        lag: samples.iter().map(|s| stats::gen_lag_ns(s.due, s.sent)).collect(),
        failed: samples.iter().filter(|s| !s.ok).count(),
        backlog_grows: phase.cut || stats::backlog_grows(&in_order, BACKLOG_SLACK_NS),
    }
}

// ------------------------------------------------------------------ fleet

/// The servers of one set-up.
struct Fleet {
    gatekeepers: Vec<Gatekeeper>,
    router: Option<Router>,
    spill_base: Option<PathBuf>,
    /// Where the sender connects.
    entry: SocketAddr,
}

impl Fleet {
    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for g in self.gatekeepers {
            g.shutdown();
        }
        if let Some(dir) = self.spill_base {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn gate_stats(&self) -> GateStats {
        let mut t = GateStats::default();
        for g in &self.gatekeepers {
            let s = g.gate_stats();
            t.spills += s.spills;
            t.restores += s.restores;
            t.rejected += s.rejected;
            t.ingest_requests += s.ingest_requests;
            t.ingest_allocs += s.ingest_allocs;
        }
        t
    }

    fn registry_stats(&self) -> RegistryStats {
        let mut t = RegistryStats::default();
        for g in &self.gatekeepers {
            let s = g.stats();
            t.hits += s.hits;
            t.misses += s.misses;
            t.evictions += s.evictions;
            t.insertions += s.insertions;
        }
        t
    }

    fn router_stats(&self) -> RouterStats {
        self.router.as_ref().map(|r| r.stats()).unwrap_or_default()
    }
}

/// Tenants fitted on the seed's data: `hot + cold` of them.
fn tenants(seed: u64, shape: &Shape) -> Vec<Tenant> {
    let ds = DatasetBuilder::tiny(seed).build();
    let config = ExperimentConfig { seed, ..ExperimentConfig::default() };
    let (_, train, tests) = prepare(&ds, &config);
    let fit = |method: StreamMethod| {
        let det = build_servable(
            method,
            &train,
            config.threshold_holdout,
            TrainingBudget::Quick,
            stream_seed(seed, method),
        );
        let threshold = quantile(&replay_series(&mut det.clone(), &train[0]), 0.99);
        ServingProfile::new(det, threshold)
    };
    let hot: Vec<ServingProfile> = shape.hot_methods.iter().map(|&m| fit(m)).collect();
    let cold = (shape.cold > 0).then(|| fit(shape.cold_method));
    (0..shape.hot + shape.cold)
        .map(|e| {
            let (label, method, profile) = match e.checked_sub(shape.hot) {
                None => {
                    let m = e % hot.len();
                    ("hot", shape.hot_methods[m], hot[m].clone())
                }
                Some(_) => ("cold", shape.cold_method, cold.clone().expect("a cold profile")),
            };
            let entity = format!("{label}-{e}-{}", method.label());
            let records: Vec<Vec<f64>> =
                tests[e % tests.len()].series.records().map(<[f64]>::to_vec).collect();
            let ingest = records.iter().map(|r| ingest_request(&entity, r)).collect();
            Tenant { entity, method, profile, records, ingest }
        })
        .collect()
}

/// Per-shard byte budget: the heaviest shard's hot tenants plus room for
/// `cold_room` cold profiles. Placement is computed the way the tier does
/// it: ring owner, then the key hash modulo the shard count.
fn budget_per_shard(shape: &Shape, tenants: &[Tenant], labels: &[&str]) -> usize {
    if shape.cold_room == 0 {
        return GatekeeperConfig::default().budget_bytes_per_shard;
    }
    let ring = Ring::build(labels.iter().copied(), RouterConfig::default().vnodes);
    let shards = GatekeeperConfig::default().shards;
    let mut bytes = vec![0usize; labels.len() * shards];
    for t in &tenants[..shape.hot] {
        let node = ring.owner(APP, &t.entity).expect("a non-empty ring") as usize;
        let shard = (key_hash(APP, &t.entity) % shards as u64) as usize;
        bytes[node * shards + shard] += t.profile.to_bytes().len();
    }
    let cold = tenants[shape.hot..].iter().map(|t| t.profile.to_bytes().len()).max().unwrap_or(0);
    bytes.into_iter().max().unwrap_or(0) + shape.cold_room * cold
}

/// Backend labels of the routed tier.
const NODES: [&str; 2] = ["node-a", "node-b"];

fn bind_fleet(tier: Tier, shape: &Shape, tenants: &[Tenant], tag: usize) -> std::io::Result<Fleet> {
    let budget = budget_per_shard(shape, tenants, &NODES);
    let gk = |spill_dir: Option<PathBuf>| {
        let config = GatekeeperConfig {
            workers: WORKERS,
            budget_bytes_per_shard: budget,
            spill_dir,
            ..GatekeeperConfig::default()
        };
        Gatekeeper::bind("127.0.0.1:0", config)
    };
    match tier {
        Tier::Direct => {
            let g = gk(None)?;
            let entry = g.local_addr();
            Ok(Fleet { gatekeepers: vec![g], router: None, spill_base: None, entry })
        }
        Tier::Routed => {
            let base = std::env::current_dir()?
                .join(".perfbench_out")
                .join(format!("spill-{}-{tag}", std::process::id()));
            let nodes: Vec<Gatekeeper> =
                NODES.iter().map(|n| gk(Some(base.join(n)))).collect::<Result<_, _>>()?;
            let backends: Vec<(&str, SocketAddr)> =
                NODES.iter().zip(&nodes).map(|(n, g)| (*n, g.local_addr())).collect();
            let router = Router::bind(
                "127.0.0.1:0",
                &backends,
                RouterConfig { workers: WORKERS, ..RouterConfig::default() },
            )?;
            let entry = router.local_addr();
            Ok(Fleet { gatekeepers: nodes, router: Some(router), spill_base: Some(base), entry })
        }
    }
}

/// One full set-up: fit the tenants' profiles, bind the tier, upload
/// every checkpoint and warm every tenant.
fn set_up(tier: Tier, seed: u64, tag: usize) -> Result<(Vec<Tenant>, Fleet, Sender), String> {
    let shape = tier.shape();
    let tenants = tenants(seed, &shape);
    let fleet = bind_fleet(tier, &shape, &tenants, tag).map_err(|e| format!("bind: {e}"))?;
    let mut upload = Client::connect(fleet.entry).map_err(|e| format!("connect: {e}"))?;
    for t in &tenants {
        upload
            .call("PUT", &format!("/v1/profile/{APP}/{}", t.entity), &t.profile.to_bytes())
            .map_err(|e| format!("upload {}: {}", t.entity, e.0))?;
    }
    let mut sender = Sender {
        client: Client::connect(fleet.entry).map_err(|e| format!("connect: {e}"))?,
        hot: (0..shape.hot as u32).collect(),
        cold: (shape.hot as u32..tenants.len() as u32).collect(),
        cursors: vec![0; tenants.len()],
        seq: 0,
        body: String::new(),
        log: Vec::new(),
        results: Vec::new(),
        failures: Vec::new(),
    };
    let warm = Load::Closed { count: shape.hot * WARM_PER_TENANT, window: 1 };
    if phase(&mut sender, tier, &tenants, warm, None).0.samples.iter().any(|s| !s.ok) {
        return Err("warm-up requests failed".into());
    }
    Ok((tenants, fleet, sender))
}

// ------------------------------------------------------------ verification

/// Local twins of every tenant, advanced through the served request log
/// after each timed phase (so no twin work competes with the servers for
/// the CPUs while timing runs).
struct Verifier {
    twins: Vec<ServingProfile>,
    /// Tenants whose server state is unknown after a failed request.
    tainted: Vec<bool>,
    /// Served values or checkpoints that differed from the twin.
    mismatches: u64,
    why: Vec<String>,
}

impl Verifier {
    fn new(tenants: &[Tenant]) -> Self {
        Self {
            twins: tenants.iter().map(|t| t.profile.clone()).collect(),
            tainted: vec![false; tenants.len()],
            mismatches: 0,
            why: Vec::new(),
        }
    }

    fn flag(&mut self, what: String) {
        self.mismatches += 1;
        if self.why.len() < 5 {
            self.why.push(what);
        }
    }

    /// Replay the sender's log through the twins, compare every served
    /// value bit for bit, and clear the log.
    fn check(&mut self, tenants: &[Tenant], s: &mut Sender) {
        for op in &s.log {
            let t = op.tenant as usize;
            if self.tainted[t] {
                continue;
            }
            if !op.ok {
                // A failed request is already counted; what the server
                // did with it is unknown, so the tenant is not checked
                // further.
                self.tainted[t] = true;
                continue;
            }
            let (twin, records) = (&mut self.twins[t], &tenants[t].records);
            let record = |i: usize| &records[(op.cursor as usize + i) % records.len()];
            let served = &s.results[op.at as usize..];
            let good = match op.kind {
                Kind::Ingest => twin.ingest(record(0)).0.to_bits() == served[0],
                Kind::Score => (0..BATCH).all(|i| twin.ingest(record(i)).0.to_bits() == served[i]),
                Kind::Checkpoint => checkpoint_digest(&twin.to_bytes()) == served[0],
            };
            if !good {
                self.tainted[t] = true;
                self.flag(format!(
                    "{:?} on {} diverged from its local twin",
                    op.kind, tenants[t].entity
                ));
            }
        }
        s.log.clear();
        s.results.clear();
    }

    /// Download every checkpoint and compare it byte for byte.
    fn audit(&mut self, tenants: &[Tenant], entry: SocketAddr) {
        let mut client = match Client::connect(entry) {
            Ok(c) => c,
            Err(e) => return self.flag(format!("audit connect: {e}")),
        };
        for (t, tenant) in tenants.iter().enumerate() {
            if self.tainted[t] {
                continue;
            }
            let got = client.call("GET", &format!("/v1/checkpoint/{APP}/{}", tenant.entity), b"");
            if got.as_deref().ok() != Some(&self.twins[t].to_bytes()[..]) {
                self.flag(format!("checkpoint of {} differs from its twin", tenant.entity));
            }
        }
    }
}

// --------------------------------------------------------------- the run

/// CPU seconds used so far by this process's threads whose name starts
/// with `prefix` (from `/proc/self/task/*/stat`, in clock ticks of 10 ms),
/// and how many such threads there are.
fn thread_cpu_s(prefix: &str) -> (f64, usize) {
    let mut ticks = 0u64;
    let mut threads = 0;
    for task in std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { continue };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else { continue };
        if !stat[open + 1..close].starts_with(prefix) {
            continue;
        }
        // Fields after the name: state is field 3; utime and stime are 14, 15.
        let fields: Vec<&str> = stat[close + 2..].split(' ').collect();
        let field = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        ticks += field(14) + field(15);
        threads += 1;
    }
    (ticks as f64 / 100.0, threads)
}

fn us(ns: u64) -> f64 {
    ns as f64 * 1e-3
}

/// Run a serving workload.
pub fn run(tier: Tier, args: &Args, out: &mut Outcome) {
    let shape = tier.shape();
    // Set up `SETUP_REPS` times; keep the last.
    let mut setup_times = Vec::new();
    let mut kept: Option<(Vec<Tenant>, Fleet, Sender)> = None;
    for tag in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = match set_up(tier, args.seed, tag) {
            Ok(f) => f,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                if let Some((_, old, _)) = kept {
                    old.shutdown();
                }
                return;
            }
        };
        setup_times.push(t0.elapsed().as_secs_f64());
        if let Some((_, old, _)) = kept.replace(fresh) {
            old.shutdown();
        }
    }
    let (tenants, fleet, mut sender) = kept.expect("at least one set-up");
    pin_tier();
    let mut verifier = Verifier::new(&tenants);
    out.param(
        "tier",
        format!(
            "\"{}\"",
            if tier == Tier::Direct { "gatekeeper" } else { "router + 2 gatekeepers" }
        ),
    );
    out.param("workers", WORKERS.to_string());
    out.param("senders", "1".into());
    out.param("light_rps", shape.light_rps.to_string());
    out.param("heavy_rps", shape.heavy_rps.to_string());
    out.param("limit_us", LIMIT_US.to_string());
    out.param("tenants_hot", shape.hot.to_string());
    out.param("tenants_cold", shape.cold.to_string());
    out.param("shards_per_gatekeeper", GatekeeperConfig::default().shards.to_string());
    out.param("budget_bytes_per_shard", budget_per_shard(&shape, &tenants, &NODES).to_string());
    let target = if tier == Tier::Routed { 1.0 / COLD_EVERY as f64 } else { 0.0 };
    out.param("spill_target_share", target.to_string());

    let window = |share: f64| Duration::from_secs_f64(args.seconds * share);
    // Arrival times come from the run's seed and the phase.
    let arrival_seed = |phase: u64| args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ phase;
    let tr = args.trace.then(Tracer::default);
    let mut invalid = Vec::new();

    // The two fixed rates. In an untraced run a phase whose measurement is
    // invalid (its backlog grew, or the generator ran late) is run again,
    // up to `PHASE_ATTEMPTS` times, so one stall of the shared host voids
    // an attempt rather than the run; the run is invalid only if every
    // attempt is. Every attempt's requests are counted and verified; the
    // figures come from the attempt kept.
    let (gate0, reg0, rt0) = (fleet.gate_stats(), fleet.registry_stats(), fleet.router_stats());
    let (mut fixed_requests, mut rt_busy, mut fixed_wall) = (0u64, 0.0, 0.0);
    let mut fixed = |name: &str, rate: f64, phase_id: u64| -> Fixed {
        let attempts = if args.trace { 1 } else { PHASE_ATTEMPTS };
        let mut attempt = 0;
        loop {
            attempt += 1;
            let ((gk0, _), (rt0, _)) = (thread_cpu_s("gk-worker"), thread_cpu_s("rt-worker"));
            let load =
                Load::Open { rate, duration: window(FIXED_SHARE), seed: arrival_seed(phase_id) };
            let (p, wall) = phase(&mut sender, tier, &tenants, load, tr.as_ref());
            let ((gk1, gk_threads), (rt1, rt_threads)) =
                (thread_cpu_s("gk-worker"), thread_cpu_s("rt-worker"));
            let p = phase_stats(&p);
            verifier.check(&tenants, &mut sender);
            out.attempted += p.requests as u64;
            out.failed += p.failed as u64;
            fixed_requests += p.requests as u64;
            fixed_wall += wall;
            rt_busy += (rt1 - rt0) / rt_threads.max(1) as f64;
            // Like the latency tails, the lag tail is a median over slices.
            let lag = stats::windowed_tail(&p.lag, TAIL_WINDOWS, 0.99).expect("enough requests");
            let mut why = Vec::new();
            if p.backlog_grows {
                why.push(format!("backlog grew at the fixed {name} rate"));
            }
            let latency =
                stats::windowed_tail(&p.latency, TAIL_WINDOWS, 0.99).expect("enough requests");
            if lag.p50 as f64 > GEN_LAG_SHARE * latency.p50 as f64 {
                why.push(format!(
                    "generator's median lag {} us at the {name} rate exceeds {GEN_LAG_SHARE} of its median latency {} us",
                    us(lag.p50),
                    us(latency.p50)
                ));
            }
            if why.is_empty() || attempt == attempts {
                invalid.extend(why);
                out.param(&format!("{name}_attempts"), attempt.to_string());
                let gk_busy = (gk1 - gk0) / (wall * gk_threads as f64);
                return Fixed { stats: p, lag, gk_busy };
            }
            let why: Vec<String> = why
                .into_iter()
                .map(|w| format!("{name} attempt {attempt} discarded: {w}"))
                .collect();
            out.note_all(&why);
        }
    };
    let light = fixed("light", shape.light_rps, 1);
    let heavy = fixed("heavy", shape.heavy_rps, 2);
    let (gate1, reg1, rt1) = (fleet.gate_stats(), fleet.registry_stats(), fleet.router_stats());
    let lag_us = us(light.lag.tail.max(heavy.lag.tail));
    out.param("gen_lag_p99_us", lag_us.to_string());
    out.param("gen_lag_p50_us", us(light.lag.p50.max(heavy.lag.p50)).to_string());
    let (light_gk_busy, heavy_gk_busy) = (light.gk_busy, heavy.gk_busy);
    let (mut light, heavy) = (light.stats, heavy.stats);
    let light_t =
        stats::windowed_tail(&light.latency, TAIL_WINDOWS, 0.99).expect("enough light requests");
    let heavy_t =
        stats::windowed_tail(&heavy.latency, TAIL_WINDOWS, 0.99).expect("enough heavy requests");
    out.param("light_samples", light_t.n.to_string());
    out.param("heavy_samples", heavy_t.n.to_string());

    if let Some(tr) = &tr {
        out.metric("tier.light_p99_us", us(light_t.tail));
        out.metric("tier.heavy_p99_us", us(heavy_t.tail));
        out.param("tail_level", light_t.level.min(heavy_t.level).to_string());
        light.rtt.sort_unstable();
        out.metric("client.rtt_p50_us", us(stats::nearest_rank(&light.rtt, 0.5)));
        out.metric("bench.gen_lag_p99_us", lag_us);
        out.metric("serve.worker_cpu_share.light", light_gk_busy);
        out.metric("serve.worker_cpu_share.heavy", heavy_gk_busy);
        let ingests = gate1.ingest_requests - gate0.ingest_requests;
        out.metric(
            "serve.allocs_per_ingest",
            (gate1.ingest_allocs - gate0.ingest_allocs) as f64 / ingests.max(1) as f64,
        );
        out.metric("serve.rejected", (gate1.rejected - gate0.rejected) as f64);
        let (hits, misses) = (reg1.hits - reg0.hits, reg1.misses - reg0.misses);
        out.metric("registry.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        out.metric("registry.evictions", (reg1.evictions - reg0.evictions) as f64);
        out.metric("spill.spills", (gate1.spills - gate0.spills) as f64);
        out.metric("spill.restores", (gate1.restores - gate0.restores) as f64);
        out.metric(
            "spill.restore_share",
            (gate1.restores - gate0.restores) as f64 / fixed_requests as f64,
        );
        if fleet.router.is_some() {
            out.metric("route.worker_cpu_share", rt_busy / fixed_wall);
            out.metric("route.shed", (rt1.shed - rt0.shed) as f64);
            out.metric("route.retries", (rt1.retries - rt0.retries) as f64);
            out.metric("route.upstream_errors", (rt1.upstream_errors - rt0.upstream_errors) as f64);
            let proxied = (rt1.proxy_requests - rt0.proxy_requests).max(1);
            out.metric(
                "route.allocs_per_proxy",
                (rt1.proxy_allocs - rt0.proxy_allocs) as f64 / proxied as f64,
            );
        }
        let spans = tr.spans();
        let mut ids: Vec<u64> = spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        out.param("spans", spans.len().to_string());
        out.param("traced_requests", ids.len().to_string());

        // The rate ladder, untraced.
        let ladder = Ladder::new(shape.light_rps, LADDER_MAX_RPS, LADDER_RATIO);
        let (best, probes) = ladder.search(|rate| {
            let load = Load::Open {
                rate,
                duration: window(PROBE_SHARE),
                seed: arrival_seed(rate.to_bits()),
            };
            let p = phase_stats(&phase(&mut sender, tier, &tenants, load, None).0);
            verifier.check(&tenants, &mut sender);
            out.attempted += p.requests as u64;
            out.failed += p.failed as u64;
            let t = stats::windowed_tail(&p.latency, TAIL_WINDOWS, 0.99);
            p.failed == 0 && !p.backlog_grows && t.is_some_and(|t| us(t.tail) <= LIMIT_US)
        });
        out.param("ladder_probes", probes.to_string());
        match best {
            Some(k) => out.metric("tier.max_rate_rps", ladder.rung(k)),
            // Reported, not fatal: the ladder probes no fixed rate.
            None => out.note_all(&[format!("even the light rate missed the {LIMIT_US} us limit")]),
        }
    } else {
        // The closed-loop bulk replay behind `run_s`.
        let mut walls = Vec::with_capacity(BULK_REPS);
        for _ in 0..BULK_REPS {
            let load = Load::Closed { count: shape.bulk, window: shape.bulk_window };
            let (bulk, wall) = phase(&mut sender, tier, &tenants, load, None);
            let bulk = phase_stats(&bulk);
            verifier.check(&tenants, &mut sender);
            out.attempted += bulk.requests as u64;
            out.failed += bulk.failed as u64;
            walls.push(wall);
        }
        out.metric("run_s", stats::median(&walls));
        let walls: Vec<String> = walls.iter().map(|t| format!("{t:.4}")).collect();
        out.param("bulk_s", format!("[{}]", walls.join(", ")));
        out.param("bulk_requests", shape.bulk.to_string());
        out.param("bulk_reps", BULK_REPS.to_string());
        out.metric("setup_s", stats::median(&setup_times));
        out.metric("light_p50_us", us(light_t.p50));
        out.metric("heavy_p50_us", us(heavy_t.p50));
    }
    out.param("retries_503", sender.client.retries.to_string());
    out.note_all(&sender.failures);

    // The checkpoint byte audit closes the run.
    verifier.check(&tenants, &mut sender);
    verifier.audit(&tenants, fleet.entry);
    out.attempted += tenants.len() as u64;
    out.failed += verifier.mismatches;
    out.note_all(&verifier.why);
    if args.trace {
        // Spans slow the generator: the traced run reports, it does not
        // judge the measurement.
        out.note_all(&invalid);
    } else {
        out.invalid.extend(invalid);
    }

    if let Some(tr) = &tr {
        layer_probes(tier, &tenants, &fleet, out, tr, window(0.1));
    }
    fleet.shutdown();
}

/// Median over `reps` timings of `f` run `inner` times, in ns per call.
fn ns_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    stats::median(&times)
}

/// Per-layer timings from outside the servers: detector updates on the
/// twins, the wire codec on the workload's own bytes, checkpoint encode
/// and decode, ring lookups, and the paired router hop.
fn layer_probes(
    tier: Tier,
    tenants: &[Tenant],
    fleet: &Fleet,
    out: &mut Outcome,
    tr: &Tracer,
    hop_window: Duration,
) {
    use exathlon_ad::stream::StreamingDetector;
    // `ad::stream`: one detector tick per record of the tenant's stream.
    for method in METHODS {
        let Some(t) = tenants.iter().find(|t| t.method == method) else { continue };
        let mut det = t.profile.detector.clone();
        let mut i = 0;
        let ns = ns_per_call(5, 4000, || {
            std::hint::black_box(det.update(&t.records[i % t.records.len()]));
            i += 1;
        });
        out.metric(&format!("stream.update_ns.{}", method.label()), ns);
    }

    // `core::wire`: the requests and responses this run exchanged.
    let reqs: Vec<&[u8]> =
        tenants.iter().take(16).flat_map(|t| t.ingest.iter().take(16).map(Vec::as_slice)).collect();
    let mut body = String::new();
    let (mut k, mut rows, mut ends) = (0usize, Vec::new(), Vec::new());
    out.metric(
        "wire.parse_head_ns",
        ns_per_call(5, 4000, || {
            std::hint::black_box(parse_head(reqs[k % reqs.len()], 64 << 10));
            k += 1;
        }),
    );
    let bodies: Vec<&[u8]> = reqs
        .iter()
        .map(|r| match parse_head(r, 64 << 10) {
            HeadParse::Complete(h) => &r[h.head_len..],
            _ => unreachable!("the benchmark's own request heads parse"),
        })
        .collect();
    out.metric(
        "wire.parse_body_ns",
        ns_per_call(5, 4000, || {
            std::hint::black_box(wire::parse_record_body(
                bodies[k % bodies.len()],
                false,
                &mut rows,
                &mut ends,
            ));
            k += 1;
        }),
    );
    let mut twin = tenants[0].profile.clone();
    let scores: Vec<(f64, bool)> = tenants[0].records.iter().map(|r| twin.ingest(r)).collect();
    out.metric(
        "wire.format_ns",
        ns_per_call(5, 4000, || {
            body.clear();
            let (score, anomaly) = scores[k % scores.len()];
            wire::write_single_score(&mut body, score, anomaly);
            std::hint::black_box(&body);
            k += 1;
        }),
    );

    // `core::checkpoint`: encode and decode of each of the workload's profiles.
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for m in METHODS {
        let Some(Tenant { profile: p, .. }) = tenants.iter().find(|t| t.method == m) else {
            continue;
        };
        let image = p.to_bytes();
        enc.push(ns_per_call(5, 20, || drop(std::hint::black_box(p.to_bytes()))) * 1e-3);
        dec.push(
            ns_per_call(5, 20, || drop(std::hint::black_box(ServingProfile::from_bytes(&image))))
                * 1e-3,
        );
    }
    out.metric("checkpoint.encode_us", stats::median(&enc));
    out.metric("checkpoint.decode_us", stats::median(&dec));

    let Some(router) = &fleet.router else { return };
    // `core::route`: ring lookups over the workload's keys.
    let labels: Vec<(String, SocketAddr)> = router.backends();
    let ring = Ring::build(labels.iter().map(|(l, _)| l.as_str()), RouterConfig::default().vnodes);
    out.metric(
        "route.ring_owner_ns",
        ns_per_call(5, 20_000, || {
            std::hint::black_box(ring.owner(APP, &tenants[k % tenants.len()].entity));
            k += 1;
        }),
    );

    // The router hop, paired: the same hot key, routed and direct
    // requests alternating at the light rate. A hop that reads as free is
    // a measurement error: it is measured again, up to `PHASE_ATTEMPTS`
    // times, and never reported.
    let rate = tier.shape().light_rps;
    let mut attempt = 0;
    let diffs = loop {
        attempt += 1;
        let diffs = match hop_pairs(tenants, fleet, &ring, &labels, tr, rate, hop_window) {
            Ok(diffs) => diffs,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("router hop probe: {e}"));
                return;
            }
        };
        if stats::quartiles(&diffs).1 > 0.0 || attempt == PHASE_ATTEMPTS {
            break diffs;
        }
    };
    let (q1, q2, q3) = stats::quartiles(&diffs);
    out.param("hop_pairs", diffs.len().to_string());
    out.param("hop_p50_us", q2.to_string());
    out.param("hop_attempts", attempt.to_string());
    if q2 > 0.0 {
        out.metric("route.hop_p50_us", q2);
        out.metric("route.hop_iqr_us", q3 - q1);
    } else {
        // The run is invalid rather than fast.
        out.invalid.push(format!("router hop median {q2} us is not positive: a measurement error"));
    }
}

/// Alternate routed and direct ingest to one key at `rate`; returns
/// each pair's routed minus direct round trip, in µs. Every served score
/// is checked against a local twin.
fn hop_pairs(
    tenants: &[Tenant],
    fleet: &Fleet,
    ring: &Ring,
    backends: &[(String, SocketAddr)],
    tr: &Tracer,
    rate: f64,
    window: Duration,
) -> Result<Vec<f64>, String> {
    let hot = tenants.iter().find(|t| t.method == StreamMethod::Ewma).expect("an EWMA tenant");
    let entity = "hop-probe-EWMA";
    let owner = ring.owner(APP, entity).ok_or("empty ring")? as usize;
    let mut routed = Client::connect(fleet.entry).map_err(|e| e.to_string())?;
    let mut direct = Client::connect(backends[owner].1).map_err(|e| e.to_string())?;
    routed
        .call("PUT", &format!("/v1/profile/{APP}/{entity}"), &hot.profile.to_bytes())
        .map_err(|e| e.0)?;
    let mut twin = hot.profile.clone();
    let path = format!("/v1/ingest/{APP}/{entity}");
    let pairs = ((window.as_secs_f64() * rate / 2.0) as usize).max(64);
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut diffs = Vec::with_capacity(pairs);
    let mut body = String::new();
    for i in 0..pairs {
        let mut rtt = [0u64; 2];
        for (side, client) in [&mut routed, &mut direct].into_iter().enumerate() {
            let record = &hot.records[(2 * i + side) % hot.records.len()];
            body.clear();
            body.push_str("{\"record\":[");
            write_values(&mut body, record);
            body.push_str("]}");
            let due = start + period * (2 * i + side) as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t0 = tr.now_ns();
            let got = client.call("POST", &path, body.as_bytes()).map_err(|e| e.0)?;
            let t1 = tr.now_ns();
            tr.record(
                if side == 0 { "route.hop.routed" } else { "route.hop.direct" },
                t0,
                t1,
                None,
                i as u64,
            );
            rtt[side] = t1 - t0;
            let want = twin.ingest(record).0;
            if score_of(&got).map(f64::to_bits) != Some(want.to_bits()) {
                return Err(format!("hop probe score diverged at pair {i}"));
            }
        }
        diffs.push((rtt[0] as f64 - rtt[1] as f64) * 1e-3);
    }
    Ok(diffs)
}
