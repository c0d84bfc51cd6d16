//! The load generator: one thread, non-blocking sockets, a busy-poll loop.
//!
//! Every frame is encoded before a phase starts, so the timed loop only
//! copies bytes, makes syscalls and reads the clock. A sleeping,
//! multi-threaded generator adds its own wake-up overshoot to every sample
//! (the old `load_gen` read an open-loop p50 of ~300 µs where this loop
//! reads ~160 µs from the same server); here the generator's own lateness is
//! measured and reported beside every open-loop latency.

use cdrib_data::DomainId;
use cdrib_graph::GraphDelta;
use cdrib_serve::proto::{self, ClientMsg, FrameReader, HelloReq, IngestReq, RecommendReq, ServerMsg};
use cdrib_serve::{Recommendation, Request, PROTO_VERSION};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply not received this long after its request was due is a failure.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// One reply in this many is kept for the correctness check, up to
/// [`MAX_CHECKED`] per phase run.
pub const CHECK_EVERY: usize = 64;
pub const MAX_CHECKED: usize = 512;
/// Requests in flight per connection during the saturation probe; two
/// connections stay within the server's 512-deep queues, so nothing is shed.
pub const SAT_WINDOW: usize = 256;
/// Most requests the open loop keeps in flight on one connection, just under
/// the server's per-connection queue bound. The workloads offer a fraction
/// of saturation, so this is only ever reached when the machine stalls the
/// server for tens of milliseconds; the requests held back then leave late,
/// and since latency runs from the *due* time the stall is charged in full
/// (and shows in the generator's lateness) instead of turning into sheds
/// that say nothing about the server.
pub const MAX_IN_FLIGHT: usize = 500;

fn timed_out(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("{what}: no reply within {REPLY_TIMEOUT:?}"),
    )
}

/// One client connection: handshake done blocking, everything after it
/// non-blocking.
pub struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    chunk: Vec<u8>,
    out: Vec<u8>,
    out_off: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let mut hello = Vec::new();
        proto::write_frame(&mut hello, &ClientMsg::Hello(HelloReq { version: PROTO_VERSION }));
        stream.write_all(&hello)?;
        let mut frames = FrameReader::new();
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let body = frames.next_frame().map_err(io::Error::other)?;
            if let Some(body) = body {
                match proto::decode_server(body).map_err(io::Error::other)? {
                    ServerMsg::HelloOk(_) => break,
                    other => return Err(io::Error::other(format!("handshake answered with {other:?}"))),
                }
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            frames.push_bytes(&chunk[..n]);
        }
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            frames,
            chunk,
            out: Vec::with_capacity(64 * 1024),
            out_off: 0,
        })
    }

    fn queue(&mut self, frame: &[u8]) {
        if self.out_off == self.out.len() {
            self.out.clear();
            self.out_off = 0;
        }
        self.out.extend_from_slice(frame);
    }

    /// Writes as much queued output as the socket takes without blocking.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_off < self.out.len() {
            match self.stream.write(&self.out[self.out_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived and appends the decoded messages to `sink`.
    fn poll(&mut self, sink: &mut Vec<ServerMsg>) -> io::Result<()> {
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.frames.push_bytes(&self.chunk[..n]);
                    while let Some(body) = self.frames.next_frame().map_err(io::Error::other)? {
                        sink.push(proto::decode_server(body).map_err(io::Error::other)?);
                    }
                    if n < self.chunk.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Pre-encoded frames, addressed by index.
#[derive(Default)]
pub struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    fn push(&mut self, msg: &ClientMsg) {
        proto::write_frame(&mut self.bytes, msg);
        self.ends.push(self.bytes.len());
    }

    /// One `Recommend` frame per request of `mix`, its wire id the
    /// request's slot in the mix.
    fn of_mix(mix: &[Request]) -> Frames {
        let mut frames = Frames::default();
        for (slot, request) in mix.iter().enumerate() {
            frames.push(&recommend_msg(slot as u64, request));
        }
        frames
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

pub fn recommend_msg(req_id: u64, request: &Request) -> ClientMsg {
    ClientMsg::Recommend(RecommendReq {
        req_id,
        direction: request.direction,
        user: request.user,
        k: request.k as u32,
    })
}

/// One scheduled operation of an open-loop phase; its `req_id` on the wire
/// is its index in the plan.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub due_ns: u64,
    pub conn: usize,
    pub is_delta: bool,
    /// Which request of the mix (or which delta) this operation carries.
    pub slot: usize,
}

/// An open-loop phase, fixed before it starts: operations in due order with
/// their frames.
pub struct OpenPlan {
    pub ops: Vec<Op>,
    frames: Frames,
}

impl OpenPlan {
    /// Reads at the due times of `read_due`, spread round-robin over
    /// `read_conns` connections, request `i` being `mix[i % mix.len()]`;
    /// deltas at `delta_due` on the connection after those.
    pub fn new(
        mix: &[Request],
        read_due: &[u64],
        read_conns: usize,
        deltas: &[(DomainId, GraphDelta)],
        delta_due: &[u64],
    ) -> OpenPlan {
        assert_eq!(deltas.len(), delta_due.len());
        let mut ops = Vec::with_capacity(read_due.len() + delta_due.len());
        let mut frames = Frames::default();
        let (mut r, mut d) = (0, 0);
        while r < read_due.len() || d < delta_due.len() {
            let req_id = ops.len() as u64;
            if d == delta_due.len() || (r < read_due.len() && read_due[r] <= delta_due[d]) {
                frames.push(&recommend_msg(req_id, &mix[r % mix.len()]));
                ops.push(Op {
                    due_ns: read_due[r],
                    conn: r % read_conns,
                    is_delta: false,
                    slot: r % mix.len(),
                });
                r += 1;
            } else {
                let (domain, delta) = &deltas[d];
                frames.push(&ClientMsg::IngestDelta(IngestReq {
                    req_id,
                    domain: *domain,
                    delta: delta.clone(),
                }));
                ops.push(Op {
                    due_ns: delta_due[d],
                    conn: read_conns,
                    is_delta: true,
                    slot: d,
                });
                d += 1;
            }
        }
        OpenPlan { ops, frames }
    }

    /// Connections the plan needs.
    pub fn conns(&self) -> usize {
        self.ops.iter().map(|op| op.conn + 1).max().unwrap_or(0)
    }
}

/// A reply kept for the correctness check.
pub struct Checked {
    /// Index of the request in the phase's mix.
    pub slot: usize,
    pub epoch: u64,
    pub recs: Vec<Recommendation>,
}

/// What one phase did. Latencies are per operation in send order, `+inf`
/// for an operation that failed (shed, typed error, no reply in time).
#[derive(Default)]
pub struct Outcome {
    pub lat_us: Vec<f64>,
    /// How late the generator sent each operation (open loop only).
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub shed: u64,
    pub errors: u64,
    pub timeouts: u64,
    pub checked: Vec<Checked>,
    /// First send to last reply.
    pub elapsed_s: f64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts
    }

    pub fn served(&self) -> u64 {
        self.attempted - self.failed()
    }
}

/// The generator: its connections and whether it may spin.
pub struct LoadGen {
    conns: Vec<Conn>,
    /// Unpinned runs share cores with the server, so the poll loop yields.
    spin: bool,
    inbox: Vec<ServerMsg>,
}

impl LoadGen {
    pub fn connect(addr: SocketAddr, conns: usize, spin: bool) -> io::Result<LoadGen> {
        Ok(LoadGen {
            conns: (0..conns).map(|_| Conn::connect(addr)).collect::<io::Result<_>>()?,
            spin,
            inbox: Vec::with_capacity(1024),
        })
    }

    fn idle(&self) {
        if self.spin {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// One request, one reply, on connection 0. Returns the reply and the
    /// round-trip time in ns.
    fn round_trip(&mut self, frame: &[u8], req_id: u64) -> io::Result<(ServerMsg, u64)> {
        let t0 = Instant::now();
        self.conns[0].queue(frame);
        loop {
            self.conns[0].flush()?;
            self.inbox.clear();
            let conn = &mut self.conns[0];
            conn.poll(&mut self.inbox)?;
            let rtt = t0.elapsed();
            for msg in self.inbox.drain(..) {
                let id = match &msg {
                    ServerMsg::Recommendations(ok) => ok.req_id,
                    ServerMsg::DeltaApplied(ok) => ok.req_id,
                    ServerMsg::Overloaded(id) => *id,
                    ServerMsg::Error(e) => e.req_id,
                    _ => continue,
                };
                if id == req_id {
                    return Ok((msg, rtt.as_nanos() as u64));
                }
            }
            if rtt > REPLY_TIMEOUT {
                return Err(timed_out("closed loop"));
            }
            self.idle();
        }
    }

    /// Asks one request outside any timed phase (parity gate, captures).
    pub fn ask(&mut self, request: &Request) -> io::Result<(u64, Vec<Recommendation>)> {
        let mut frame = Vec::new();
        proto::write_frame(&mut frame, &recommend_msg(u64::MAX, request));
        match self.round_trip(&frame, u64::MAX)?.0 {
            ServerMsg::Recommendations(ok) => Ok((ok.epoch, ok.recs)),
            other => Err(io::Error::other(format!("{request:?} answered with {other:?}"))),
        }
    }

    /// Closed loop on one connection: the next request leaves when the
    /// previous reply arrived. Runs for `duration`, request `i` being
    /// `mix[i % mix.len()]`; the first `warmup` round trips are not recorded.
    pub fn closed_loop(&mut self, mix: &[Request], duration: Duration, warmup: usize) -> io::Result<Outcome> {
        let frames = Frames::of_mix(mix);
        let mut out = Outcome::default();
        for i in 0..warmup {
            self.round_trip(frames.get(i % mix.len()), (i % mix.len()) as u64)?;
        }
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed() < duration {
            let slot = (warmup + i) % mix.len();
            out.attempted += 1;
            match self.round_trip(frames.get(slot), slot as u64) {
                Ok((ServerMsg::Recommendations(ok), rtt_ns)) => {
                    out.lat_us.push(rtt_ns as f64 / 1e3);
                    if i.is_multiple_of(CHECK_EVERY) && out.checked.len() < MAX_CHECKED {
                        out.checked.push(Checked {
                            slot,
                            epoch: ok.epoch,
                            recs: ok.recs,
                        });
                    }
                }
                Ok((ServerMsg::Overloaded(_), _)) => {
                    out.shed += 1;
                    out.lat_us.push(f64::INFINITY);
                }
                Ok(_) => {
                    out.errors += 1;
                    out.lat_us.push(f64::INFINITY);
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    // A reply that may still arrive would desynchronise the
                    // loop; a 5 s stall means the phase is lost anyway.
                    out.timeouts += 1;
                    out.lat_us.push(f64::INFINITY);
                    break;
                }
                Err(e) => return Err(e),
            }
            i += 1;
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Saturation probe: every connection keeps up to [`SAT_WINDOW`]
    /// requests in flight for `duration`, then drains. Request `i` is
    /// `mix[i % mix.len()]`.
    pub fn saturate(&mut self, mix: &[Request], duration: Duration) -> io::Result<Outcome> {
        let frames = Frames::of_mix(mix);
        // The wire id is the request's slot in the mix, which is what the
        // correctness check needs; replies are matched by count.
        let mut out = Outcome::default();
        let mut inflight = vec![0usize; self.conns.len()];
        let mut sent = 0usize;
        let mut replies = 0usize;
        let start = Instant::now();
        let mut last_reply = start;
        loop {
            let now = Instant::now();
            let sending = now.duration_since(start) < duration;
            for (c, conn) in self.conns.iter_mut().enumerate() {
                if sending {
                    while inflight[c] < SAT_WINDOW {
                        conn.queue(frames.get(sent % mix.len()));
                        sent += 1;
                        inflight[c] += 1;
                    }
                }
                conn.flush()?;
                self.inbox.clear();
                conn.poll(&mut self.inbox)?;
                if !self.inbox.is_empty() {
                    last_reply = Instant::now();
                }
                for msg in self.inbox.drain(..) {
                    inflight[c] -= 1;
                    match msg {
                        ServerMsg::Recommendations(ok) => {
                            if replies.is_multiple_of(CHECK_EVERY) && out.checked.len() < MAX_CHECKED {
                                out.checked.push(Checked {
                                    slot: ok.req_id as usize,
                                    epoch: ok.epoch,
                                    recs: ok.recs,
                                });
                            }
                        }
                        ServerMsg::Overloaded(_) => out.shed += 1,
                        _ => out.errors += 1,
                    }
                    replies += 1;
                }
            }
            if !sending && replies == sent {
                break;
            }
            if now.duration_since(last_reply) > REPLY_TIMEOUT {
                out.timeouts = (sent - replies) as u64;
                break;
            }
            self.idle();
        }
        out.attempted = sent as u64;
        out.elapsed_s = last_reply.duration_since(start).as_secs_f64();
        Ok(out)
    }

    /// Open loop: every operation of `plan` is sent once its due time has
    /// passed, whatever the server is doing, and its latency runs from the
    /// due time. The first `warmup` operations are sent but not recorded.
    /// Returns `(reads, deltas)`.
    pub fn open_loop(&mut self, plan: &OpenPlan, warmup: usize) -> io::Result<(Outcome, Outcome)> {
        assert!(plan.conns() <= self.conns.len());
        let n = plan.ops.len();
        const PENDING: u64 = u64::MAX;
        const FAILED: u64 = u64::MAX - 1;
        let mut lat_ns = vec![PENDING; n];
        let mut late_ns = vec![0u64; n];
        let (mut reads, mut deltas) = (Outcome::default(), Outcome::default());
        let last_due = plan.ops.last().map_or(0, |op| op.due_ns);
        let give_up_ns = last_due + REPLY_TIMEOUT.as_nanos() as u64;
        let (mut next, mut answered) = (0usize, 0usize);
        let mut in_flight = vec![0usize; self.conns.len()];
        let start = Instant::now();
        let mut last_reply_ns = 0u64;
        loop {
            let now = start.elapsed().as_nanos() as u64;
            while next < n && plan.ops[next].due_ns <= now && in_flight[plan.ops[next].conn] < MAX_IN_FLIGHT {
                let conn = plan.ops[next].conn;
                self.conns[conn].queue(plan.frames.get(next));
                in_flight[conn] += 1;
                late_ns[next] = now - plan.ops[next].due_ns;
                next += 1;
            }
            for conn in &mut self.conns {
                conn.flush()?;
                self.inbox.clear();
                conn.poll(&mut self.inbox)?;
                if self.inbox.is_empty() {
                    continue;
                }
                let t = start.elapsed().as_nanos() as u64;
                last_reply_ns = t;
                for msg in self.inbox.drain(..) {
                    let (id, ok) = match msg {
                        ServerMsg::Recommendations(ok) => {
                            let id = ok.req_id as usize;
                            if id.is_multiple_of(CHECK_EVERY) && id >= warmup {
                                reads.checked.push(Checked {
                                    slot: plan.ops[id].slot,
                                    epoch: ok.epoch,
                                    recs: ok.recs,
                                });
                            }
                            (id, true)
                        }
                        ServerMsg::DeltaApplied(ok) => (ok.req_id as usize, true),
                        ServerMsg::Overloaded(id) => {
                            let side = if plan.ops[id as usize].is_delta {
                                &mut deltas
                            } else {
                                &mut reads
                            };
                            side.shed += 1;
                            (id as usize, false)
                        }
                        ServerMsg::Error(e) => {
                            let side = if plan.ops[e.req_id as usize].is_delta {
                                &mut deltas
                            } else {
                                &mut reads
                            };
                            side.errors += 1;
                            (e.req_id as usize, false)
                        }
                        _ => continue,
                    };
                    lat_ns[id] = if ok {
                        t.saturating_sub(plan.ops[id].due_ns)
                    } else {
                        FAILED
                    };
                    in_flight[plan.ops[id].conn] -= 1;
                    answered += 1;
                }
            }
            if answered == n || now > give_up_ns {
                break;
            }
            self.idle();
        }
        for (i, op) in plan.ops.iter().enumerate() {
            let side = if op.is_delta { &mut deltas } else { &mut reads };
            side.attempted += 1;
            if lat_ns[i] == PENDING {
                side.timeouts += 1;
            }
            if i >= warmup {
                side.lat_us.push(if lat_ns[i] >= FAILED {
                    f64::INFINITY
                } else {
                    lat_ns[i] as f64 / 1e3
                });
                side.late_us.push(late_ns[i] as f64 / 1e3);
            }
        }
        let first_due = plan.ops.first().map_or(0, |op| op.due_ns);
        reads.elapsed_s = last_reply_ns.saturating_sub(first_due) as f64 / 1e9;
        deltas.elapsed_s = reads.elapsed_s;
        Ok((reads, deltas))
    }
}
