//! The batched TCP serving front-end: cross-connection request coalescing,
//! admission control, and between-batch hot reload over the wire.
//!
//! ## Architecture
//!
//! The offline environment has no async runtime, so the server is plain
//! `std::net` + threads, shaped like the kernel fan-out rather than an
//! event loop:
//!
//! * an **acceptor** thread owns the non-blocking [`TcpListener`] and
//!   spawns one reader thread per connection;
//! * each **reader** thread decodes frames ([`crate::proto`]) off its
//!   socket. Handshakes and stats are answered inline; a malformed frame
//!   or a version-mismatched `Hello` gets a typed error and then a real
//!   socket close (the pipelined frames behind it are never served).
//!   `Recommend` and
//!   `IngestDelta` jobs go into the connection's **bounded** queue. A full
//!   queue sheds the job with a typed [`ServerMsg::Overloaded`] response
//!   instead of buffering without bound — under overload the server's
//!   memory and the p99 of *accepted* requests stay flat while the shed
//!   counter grows (the load generator's overload gate);
//! * one **coalescer** thread owns the [`Recommender`]. Per tick it waits
//!   for work, then lets the batch build while jobs keep arriving. The
//!   window closes when the batch is full ([`ServerConfig::max_batch`]),
//!   when [`ServerConfig::max_wait`] has elapsed, or when arrivals stall —
//!   which the coalescer *observes* (queue depth unchanged across one
//!   `thread::yield_now`) rather than times. A quiet server therefore
//!   never sleeps on a request: a lone job is drained as soon as it is
//!   seen, and under load a tick finds its batch already queued behind
//!   the previous one. The tick then drains the per-connection queues
//!   **round-robin** (one job per connection per pass, so a single
//!   firehose connection cannot starve the others) into one
//!   [`Recommender::recommend_batch_outcomes`] call of up to `max_batch`
//!   requests. The batch shares one pass over the item tables: every
//!   cache-resident tile of catalogue rows is scored for all of the batch's
//!   users before the next tile is read, so a saturated tick streams each
//!   table from memory once instead of once per request — which, with the
//!   per-request socket and wake-up costs the batch also amortises, is
//!   where saturation throughput several times that of
//!   one-request-in-flight serving comes from (`bench_suite`'s `sat_rps`).
//!   Deltas drained in the same tick are applied *before* the batch runs:
//!   a hot reload is a table patch between batches, never a dropped
//!   in-flight request. Responses are encoded into one pooled buffer per
//!   connection and flushed with a single write per connection per tick.
//!
//! Within a connection, queued responses come back in request order;
//! inline replies (hello, stats, sheds, protocol errors) may interleave —
//! clients match on `req_id`, not arrival order.
//!
//! The warm pipeline — frame decode, queue, coalesced batch, pooled
//! response encode — allocates nothing (`tests/alloc_regression.rs` drives
//! it sans-IO); parity with direct engine calls is bitwise
//! (`tests/net_serving.rs` in-process, this crate's
//! `tests/served_binary.rs` across a process boundary).

use crate::error::ServeError;
use crate::proto::{self, ClientMsg, DeltaOk, HelloOk, ProtoError, ServerMsg, StatsOk, PROTO_VERSION};
use crate::recommender::{Recommender, Request};
use crate::topk::Recommendation;
use cdrib_data::DomainId;
use cdrib_graph::GraphDelta;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coalescing and admission-control knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most requests drained into one coalesced batch per tick.
    pub max_batch: usize,
    /// The longest a tick keeps absorbing a *continuous* burst after its
    /// first pending job. It is a cap, not a delay: the window closes at
    /// once when arrivals stall (queue depth unchanged across a yield), so
    /// a lone request never waits on it. Zero skips the window.
    pub max_wait: Duration,
    /// Per-connection queue bound; a job arriving at a full queue is shed
    /// with a typed [`ServerMsg::Overloaded`] response.
    pub queue_capacity: usize,
    /// Worker threads the coalesced batch fans out over (the `workers`
    /// argument of [`Recommender::recommend_batch_outcomes`]; clamped to the
    /// engine's scratch count).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 256,
            max_wait: Duration::from_micros(200),
            queue_capacity: 512,
            workers: cdrib_tensor::kernels::parallelism().max(1),
        }
    }
}

/// Monotone server counters, readable locally ([`Server::stats`]) and over
/// the wire ([`ClientMsg::Stats`]).
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    deltas_applied: AtomicU64,
    batches: AtomicU64,
    epoch: AtomicU64,
    connections: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted into a queue.
    pub accepted: u64,
    /// Requests answered with recommendations.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Deltas applied over the wire.
    pub deltas_applied: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Current engine epoch.
    pub epoch: u64,
    /// Currently open connections.
    pub connections: u64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }
}

/// A queued unit of work, preserving per-connection FIFO order between
/// requests and deltas.
enum Job {
    Recommend {
        req_id: u64,
        request: Request,
    },
    Delta {
        req_id: u64,
        domain: DomainId,
        delta: GraphDelta,
    },
}

/// The socket's write half plus its pooled encode buffer. Readers (inline
/// replies) and the coalescer (batch flushes) both write under this lock.
struct ConnWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ConnWriter {
    /// Encodes and writes one message immediately (inline-reply path).
    fn send(&mut self, msg: &ServerMsg) -> io::Result<()> {
        self.buf.clear();
        proto::write_frame(&mut self.buf, msg);
        self.stream.write_all(&self.buf)
    }
}

/// Per-connection shared state between its reader thread and the coalescer.
struct Conn {
    queue: Mutex<VecDeque<Job>>,
    writer: Mutex<ConnWriter>,
    closed: AtomicBool,
}

/// State shared by every server thread.
struct Shared {
    config: ServerConfig,
    conns: Mutex<Vec<Arc<Conn>>>,
    /// Jobs queued but not yet drained by the coalescer; guarded by its own
    /// mutex so readers can wake the coalescer without touching the
    /// connection list.
    pending: Mutex<usize>,
    wake: Condvar,
    shutdown: AtomicBool,
    stats: Stats,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.wake.notify_all();
    }
}

/// Locks a per-connection queue, recovering from poisoning: a reader that
/// panicked while holding the lock leaves the `VecDeque` itself consistent
/// (push/pop are atomic w.r.t. its invariants), and treating the queue as
/// lost would strand its still-counted jobs in `pending` and wedge the
/// coalescer.
fn lock_queue(queue: &Mutex<VecDeque<Job>>) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
    queue.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Locks the pending-job counter, recovering from poisoning (the guarded
/// value is a bare `usize`; no partial update is possible).
fn lock_pending(shared: &Shared) -> std::sync::MutexGuard<'_, usize> {
    shared.pending.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running serving front-end. Dropping (or calling [`Server::shutdown`])
/// stops the acceptor and coalescer and joins them; reader threads exit on
/// their own within one read-timeout tick.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    coalescer: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts serving
    /// `rec` with the given knobs.
    pub fn spawn(rec: Recommender, addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            conns: Mutex::new(Vec::new()),
            pending: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
        });
        shared.stats.epoch.store(rec.epoch(), Ordering::Relaxed);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cdrib-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };
        let coalescer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cdrib-coalescer".into())
                .spawn(move || coalescer_loop(&shared, rec))?
        };
        Ok(Server {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            coalescer: Some(coalescer),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Whether the server is still accepting work (no shutdown requested).
    pub fn running(&self) -> bool {
        !self.shared.shutting_down()
    }

    /// Blocks until a shutdown is requested — over the wire
    /// ([`ClientMsg::Shutdown`]) or locally — then returns. The binary's
    /// main thread parks here.
    pub fn wait(&self) {
        while !self.shared.shutting_down() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Requests shutdown, drains queued work, and joins the server threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.coalescer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Batch responses are single buffered writes; Nagle would
                // only add latency on the small inline replies.
                stream.set_nodelay(true).ok();
                let write_half = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let conn = Arc::new(Conn {
                    queue: Mutex::new(VecDeque::with_capacity(shared.config.queue_capacity)),
                    writer: Mutex::new(ConnWriter {
                        stream: write_half,
                        buf: Vec::new(),
                    }),
                    closed: AtomicBool::new(false),
                });
                shared.conns.lock().expect("conns lock").push(Arc::clone(&conn));
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                // Readers are detached: they exit on EOF, on error, or
                // within one read-timeout tick of a shutdown.
                let _ = std::thread::Builder::new()
                    .name("cdrib-reader".into())
                    .spawn(move || reader_loop(&shared, &conn, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                // accept() errors are per-attempt, not fatal to the
                // listener: ECONNABORTED (peer reset mid-handshake) or
                // EMFILE (fd exhaustion) are transient, and a server that
                // reports running() must keep accepting. Back off and
                // retry; only shutdown stops the acceptor.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, mut stream: TcpStream) {
    // The timeout bounds how long a quiet connection keeps its reader from
    // noticing a shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(20))).ok();
    let mut frames = proto::FrameReader::new();
    let mut chunk = vec![0u8; 16 * 1024];
    'read: loop {
        if shared.shutting_down() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                frames.push_bytes(&chunk[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(None) => break,
                        Ok(Some(body)) => match proto::decode_client(body) {
                            Ok(msg) => {
                                if !handle_client_msg(shared, conn, msg) {
                                    break 'read;
                                }
                            }
                            Err(e) => {
                                send_protocol_error(conn, &e);
                                break 'read;
                            }
                        },
                        Err(e) => {
                            send_protocol_error(conn, &e);
                            break 'read;
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => continue,
            Err(_) => break,
        }
    }
    conn.closed.store(true, Ordering::Release);
    // Closing the connection must actually close the socket: the write-half
    // clone inside `conn.writer` keeps the fd alive until the coalescer
    // prunes the connection, and the coalescer only ticks when work is
    // pending — an incompatible or misbehaving client would otherwise wait
    // on a half-open socket forever. Shutting down here (both halves — the
    // clones share one socket) sends the FIN right after any typed error
    // already written. The one exception is a server-wide shutdown, where
    // the socket stays open so responses to queued jobs can still drain.
    if !shared.shutting_down() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    shared.stats.connections.fetch_sub(1, Ordering::Relaxed);
    // The coalescer prunes closed connections on its next tick.
    shared.wake.notify_all();
}

/// Framing/decoding is unrecoverable mid-stream: answer with a typed error
/// (best effort) and let the caller close the connection.
fn send_protocol_error(conn: &Conn, e: &ProtoError) {
    let msg = ServerMsg::Error(proto::ErrorMsg {
        req_id: 0,
        code: proto::ErrorCode::BadRequest,
        detail: e.to_string(),
    });
    if let Ok(mut w) = conn.writer.lock() {
        let _ = w.send(&msg);
    }
}

/// Dispatches one decoded message. Returns `false` when the connection (or
/// the whole server, for `Shutdown`) should stop reading.
fn handle_client_msg(shared: &Arc<Shared>, conn: &Arc<Conn>, msg: ClientMsg) -> bool {
    match msg {
        ClientMsg::Hello(h) => {
            if h.version == PROTO_VERSION {
                send_inline(
                    conn,
                    &ServerMsg::HelloOk(HelloOk {
                        version: PROTO_VERSION,
                        epoch: shared.stats.epoch.load(Ordering::Relaxed),
                    }),
                )
            } else {
                // An incompatible client gets the typed error and nothing
                // else: close the connection rather than best-effort-serving
                // frames whose meaning may have changed across versions.
                send_inline(
                    conn,
                    &ServerMsg::Error(proto::ErrorMsg {
                        req_id: 0,
                        code: proto::ErrorCode::UnsupportedVersion,
                        detail: format!("server speaks protocol {PROTO_VERSION}, client sent {}", h.version),
                    }),
                );
                false
            }
        }
        ClientMsg::Stats(req_id) => {
            let s = shared.stats.snapshot();
            send_inline(
                conn,
                &ServerMsg::Stats(StatsOk {
                    req_id,
                    epoch: s.epoch,
                    accepted: s.accepted,
                    served: s.served,
                    shed: s.shed,
                    deltas_applied: s.deltas_applied,
                    batches: s.batches,
                    connections: s.connections,
                }),
            )
        }
        ClientMsg::Recommend(r) => enqueue(
            shared,
            conn,
            r.req_id,
            Job::Recommend {
                req_id: r.req_id,
                request: r.request(),
            },
        ),
        ClientMsg::IngestDelta(i) => {
            let req_id = i.req_id;
            enqueue(
                shared,
                conn,
                req_id,
                Job::Delta {
                    req_id,
                    domain: i.domain,
                    delta: i.delta,
                },
            )
        }
        ClientMsg::Shutdown => {
            send_inline(conn, &ServerMsg::ShuttingDown);
            shared.begin_shutdown();
            false
        }
    }
}

fn send_inline(conn: &Conn, msg: &ServerMsg) -> bool {
    match conn.writer.lock() {
        Ok(mut w) => w.send(msg).is_ok(),
        Err(_) => false,
    }
}

/// Admission control: a job either joins its connection's bounded queue or
/// is shed *now* with a typed `Overloaded` response — the server never
/// buffers beyond `queue_capacity` per connection, so offered load beyond
/// capacity turns into sheds, not queue growth.
fn enqueue(shared: &Arc<Shared>, conn: &Arc<Conn>, req_id: u64, job: Job) -> bool {
    let accepted = {
        let mut queue = lock_queue(&conn.queue);
        if queue.len() >= shared.config.queue_capacity {
            false
        } else {
            queue.push_back(job);
            // Count the job before releasing the queue lock: the coalescer
            // pops under the same lock, so it can never drain a job that
            // `pending` has not yet counted (which would underflow the
            // counter). Lock order is queue → pending everywhere.
            *lock_pending(shared) += 1;
            true
        }
    };
    if accepted {
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        shared.wake.notify_all();
        true
    } else {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        send_inline(conn, &ServerMsg::Overloaded(req_id))
    }
}

fn coalescer_loop(shared: &Arc<Shared>, mut rec: Recommender) {
    // Tick-local pools, all reused: the warm pipeline allocates nothing.
    let mut tick_conns: Vec<Arc<Conn>> = Vec::new();
    let mut requests: Vec<Request> = Vec::new();
    let mut origins: Vec<(usize, u64)> = Vec::new();
    let mut responses: Vec<Vec<Recommendation>> = Vec::new();
    let mut outcomes: Vec<crate::error::Result<()>> = Vec::new();
    let mut rr_offset = 0usize;
    loop {
        // Wait for work (or shutdown). The timeout bounds shutdown latency.
        let mut seen = {
            let mut pending = lock_pending(shared);
            while *pending == 0 {
                if shared.shutting_down() {
                    return;
                }
                let (p, _) = shared
                    .wake
                    .wait_timeout(pending, Duration::from_millis(20))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                pending = p;
            }
            *pending
        };
        // Let the batch build — the coalescing window. The window closes on
        // whichever comes first: the batch is already full (`max_batch`
        // pending — waiting longer cannot grow it), the full `max_wait`
        // budget elapses (the latency bound), or arrivals stall. A stall is
        // *observed*, never timed: read `pending`, yield so any runnable
        // reader can enqueue what it already holds, read again — unchanged
        // means nothing is on its way and the tick drains now. No timed
        // wait may sit between a job's enqueue and its batch: a timed futex
        // wait costs the thread's timer slack (~90 µs for a 25 µs slice),
        // and a lone request on a quiet server would pay it every time.
        // Cut short during shutdown so draining finishes promptly; a zero
        // `max_wait` never enters the loop.
        let window_start = Instant::now();
        while seen < shared.config.max_batch
            && window_start.elapsed() < shared.config.max_wait
            && !shared.shutting_down()
        {
            std::thread::yield_now();
            let now = *lock_pending(shared);
            if now == seen {
                break;
            }
            seen = now;
        }

        // Snapshot live connections, pruning ones that are closed and fully
        // drained (their Arc dies here). A closed connection with queued
        // jobs is kept — even behind a poisoned lock — until the drain below
        // empties it, so every job counted in `pending` is eventually popped
        // and decremented.
        tick_conns.clear();
        {
            let mut conns = shared.conns.lock().expect("conns lock");
            conns.retain(|c| !(c.closed.load(Ordering::Acquire) && lock_queue(&c.queue).is_empty()));
            tick_conns.extend(conns.iter().cloned());
        }
        if tick_conns.is_empty() {
            if shared.shutting_down() {
                return;
            }
            continue;
        }

        // Round-robin drain: one job per connection per pass, up to
        // max_batch, starting at a rotating offset — no connection can fill
        // the whole batch while others wait, and per-connection order is
        // preserved. Deltas apply immediately (before this tick's batch):
        // the tables are patched between batches, in-flight requests simply
        // score against the new rows.
        requests.clear();
        origins.clear();
        let n = tick_conns.len();
        rr_offset = (rr_offset + 1) % n;
        let mut drained = 0usize;
        'drain: loop {
            let mut any = false;
            for i in 0..n {
                if drained >= shared.config.max_batch {
                    break 'drain;
                }
                let ci = (rr_offset + i) % n;
                let job = lock_queue(&tick_conns[ci].queue).pop_front();
                let Some(job) = job else { continue };
                any = true;
                drained += 1;
                match job {
                    Job::Recommend { req_id, request } => {
                        origins.push((ci, req_id));
                        requests.push(request);
                    }
                    Job::Delta { req_id, domain, delta } => {
                        let reply = match rec.apply_delta(domain, &delta) {
                            Ok(outcome) => {
                                shared.stats.deltas_applied.fetch_add(1, Ordering::Relaxed);
                                shared.stats.epoch.store(outcome.epoch, Ordering::Relaxed);
                                ServerMsg::DeltaApplied(DeltaOk {
                                    req_id,
                                    epoch: outcome.epoch,
                                    users_added: outcome.users_added as u64,
                                    items_added: outcome.items_added as u64,
                                    edges_added: outcome.edges_added as u64,
                                    wal_seq: outcome.wal_seq.unwrap_or(0),
                                })
                            }
                            Err(e) => ServerMsg::Error(proto::delta_error(req_id, &e)),
                        };
                        if !send_inline(&tick_conns[ci], &reply) {
                            tick_conns[ci].closed.store(true, Ordering::Release);
                        }
                    }
                }
            }
            if !any {
                break;
            }
        }
        {
            // Saturating as a backstop: accounting is consistent by
            // construction (increments happen under the queue lock before a
            // job is poppable), but an underflow here must never panic the
            // coalescer or wrap the counter into a permanent busy-spin.
            let mut pending = lock_pending(shared);
            *pending = pending.saturating_sub(drained);
        }
        // During shutdown a full round-robin pass that pops nothing means
        // every reachable queue is empty — exit even if `pending` still
        // claims otherwise, so shutdown() can never hang on a stale count.
        if drained == 0 && shared.shutting_down() {
            return;
        }
        if requests.is_empty() {
            continue;
        }

        // One coalesced engine call for the whole cross-connection batch.
        rec.recommend_batch_outcomes(&requests, &mut responses, &mut outcomes, shared.config.workers);
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        let epoch = rec.epoch();

        // Encode every connection's responses into its pooled buffer and
        // flush them with one write per connection.
        for (ci, conn) in tick_conns.iter().enumerate() {
            let mut writer = match conn.writer.lock() {
                Ok(w) => w,
                Err(_) => continue,
            };
            writer.buf.clear();
            let mut served = 0u64;
            for (slot, &(oci, req_id)) in origins.iter().enumerate() {
                if oci != ci {
                    continue;
                }
                match &outcomes[slot] {
                    Ok(()) => {
                        proto::encode_recommendations_into(&mut writer.buf, req_id, epoch, &responses[slot]);
                        served += 1;
                    }
                    Err(e) => {
                        proto::write_frame(&mut writer.buf, &ServerMsg::Error(proto::recommend_error(req_id, e)));
                    }
                }
            }
            if served > 0 {
                shared.stats.served.fetch_add(served, Ordering::Relaxed);
            }
            let ConnWriter { stream, buf } = &mut *writer;
            if !buf.is_empty() && stream.write_all(buf).is_err() {
                conn.closed.store(true, Ordering::Release);
            }
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket I/O failed.
    Io(io::Error),
    /// The server sent bytes that do not frame or decode.
    Proto(ProtoError),
    /// The server closed the connection.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket i/o failed: {e}"),
            ClientError::Proto(e) => write!(f, "server sent an invalid frame: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A minimal blocking protocol client — what the tests speak through.
pub struct Client {
    stream: TcpStream,
    frames: proto::FrameReader,
    chunk: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Client {
    /// Connects and performs the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<(Client, HelloOk), ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream,
            frames: proto::FrameReader::new(),
            chunk: vec![0u8; 16 * 1024],
            wbuf: Vec::new(),
        };
        client.send(&ClientMsg::Hello(crate::proto::HelloReq { version: PROTO_VERSION }))?;
        match client.recv()? {
            ServerMsg::HelloOk(ok) => Ok((client, ok)),
            other => Err(ClientError::Proto(ProtoError::Decode(serde::Error::invalid_variant(
                "HelloOk",
                match other {
                    ServerMsg::Error(_) => 5,
                    _ => u32::MAX,
                },
            )))),
        }
    }

    /// Encodes and writes one message.
    pub fn send(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        self.wbuf.clear();
        proto::write_frame(&mut self.wbuf, msg);
        self.stream.write_all(&self.wbuf)?;
        Ok(())
    }

    /// Writes pre-encoded frames (a pipelined burst in one syscall).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Blocks until the next server message arrives.
    pub fn recv(&mut self) -> Result<ServerMsg, ClientError> {
        loop {
            match self.frames.next_frame() {
                Err(e) => return Err(e.into()),
                Ok(Some(body)) => return Ok(proto::decode_server(body)?),
                Ok(None) => {}
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            self.frames.push_bytes(&self.chunk[..n]);
        }
    }

    /// Sends one recommend request and waits for its (matching) response.
    pub fn recommend(&mut self, req_id: u64, request: &Request) -> Result<ServerMsg, ClientError> {
        self.send(&ClientMsg::Recommend(proto::RecommendReq {
            req_id,
            direction: request.direction,
            user: request.user,
            k: request.k as u32,
        }))?;
        self.recv()
    }

    /// Sets/clears the receive timeout (a timed-out [`Client::recv`]
    /// surfaces as [`ClientError::Io`] with `WouldBlock`/`TimedOut`).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

/// Builds the deterministic preset engine both `cdrib-served --preset` and
/// a test's reference side use: same scenario seed, same model init seed,
/// same construction path — so a server booted in another process serves
/// **bitwise** the lists the test computes locally, which is what makes
/// the cross-process parity check (`tests/served_binary.rs`) meaningful.
pub fn preset_engine(scale: &str, seed: u64) -> crate::error::Result<(Recommender, cdrib_data::CdrScenario)> {
    use cdrib_core::{CdribConfig, CdribModel, InferenceModel};
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    let scale = match scale {
        "small" => Scale::Small,
        "full" => Scale::Full,
        _ => Scale::Tiny,
    };
    let scenario = build_preset(ScenarioKind::GameVideo, scale, seed).map_err(|e| ServeError::Update {
        detail: format!("preset scenario failed: {e}"),
    })?;
    let config = CdribConfig {
        dim: 32,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).map_err(|e| ServeError::Update {
        detail: format!("preset model init failed: {e}"),
    })?;
    let rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario)?;
    Ok((rec, scenario))
}
