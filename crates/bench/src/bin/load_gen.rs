//! Open-loop load generator for the batched TCP serving front-end.
//!
//! `serve_perf` measures the engine **closed-loop** (the caller waits for
//! each batch, so offered load adapts to service rate and queueing delay is
//! invisible). This binary measures the *server* the way production load
//! arrives: **open-loop** Poisson arrivals at a fixed offered rate, with
//! latency taken from each request's *scheduled* arrival time — late sends
//! count against the server (no coordinated omission).
//!
//! Phases, in order:
//!
//! 1. **Parity gate** — every server response must be bitwise identical
//!    (item ids and score bits) to a direct [`Recommender`] call on an
//!    identically-seeded local engine. Hard failure otherwise.
//! 2. **Closed-loop baseline** — one connection, one request in flight:
//!    the single-request-per-connection throughput the coalescer must beat.
//! 3. **Saturation blast** — all requests written as fast as the socket
//!    accepts; the served-response rate is the coalesced service capacity.
//!    The `--min-speedup` gate (default 2x) compares it to the baseline.
//!    The floor is low because the baseline is fast: a lone request is
//!    drained the moment it is seen (12-70 us a round trip on loopback,
//!    bimodal with core placement), so the ratio reads 3x-34x for one
//!    saturation rate — read `served_rps`, not the ratio, across commits.
//! 4. **Open-loop sweep** — Poisson arrivals at 0.25/0.5/0.8x saturation
//!    plus an **overload** point at 1.5x, reporting p50/p99/p999 over
//!    *accepted* requests and the shed count. Overload must shed (bounded
//!    queues working) while accepted-p99 stays bounded.
//! 5. **Hot reload** — `IngestDelta` frames land mid-load; every in-flight
//!    request must still be answered and the epoch must advance.
//!
//! Results merge into `BENCH_serve.json` as the `"server"` section. By
//! default the server runs in-process ([`Server::spawn`]); `--addr` points
//! at an external `cdrib-served` (the CI smoke job does this) which must
//! have been booted with the same `--preset`/`--seed` for the parity gate
//! to be meaningful.

use cdrib_bench::Args;
use cdrib_data::{CdrScenario, Direction, DomainId};
use cdrib_graph::GraphDelta;
use cdrib_serve::net::preset_engine;
use cdrib_serve::proto::{self, ClientMsg, FrameReader, IngestReq, RecommendReq, ServerMsg};
use cdrib_serve::recommender::{Recommender, Request};
use cdrib_serve::topk::Recommendation;
use cdrib_serve::{Client, Server, ServerConfig};
use cdrib_tensor::rng::component_rng;
use rand::Rng;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn bitwise_equal(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// Deterministic request mix over both directions (same recipe regardless
/// of phase sizes, so parity and load phases exercise the same space).
fn request_mix(scenario: &CdrScenario, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = component_rng(seed, "load-gen-mix");
    (0..n)
        .map(|i| {
            let direction = if i % 2 == 0 {
                Direction::X_TO_Y
            } else {
                Direction::Y_TO_X
            };
            let bound = match direction.source {
                DomainId::X => scenario.x.n_users,
                DomainId::Y => scenario.y.n_users,
            } as u32;
            Request {
                direction,
                user: rng.gen_range(0..bound),
                k: 10,
            }
        })
        .collect()
}

fn encode_recommend(req_id: u64, request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    proto::write_frame(
        &mut buf,
        &ClientMsg::Recommend(RecommendReq {
            req_id,
            direction: request.direction,
            user: request.user,
            k: request.k as u32,
        }),
    );
    buf
}

/// Either an in-process [`Server`] or an externally-booted `cdrib-served`.
enum ServerHandle {
    InProcess(Server),
    External(String),
}

impl ServerHandle {
    fn addr(&self) -> String {
        match self {
            ServerHandle::InProcess(s) => s.addr().to_string(),
            ServerHandle::External(a) => a.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Phase 1: parity gate
// ---------------------------------------------------------------------------

fn parity_gate(addr: &str, reference: &mut Recommender, requests: &[Request]) {
    let (mut client, hello) = Client::connect(addr).expect("parity: connect");
    let mut expect = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let got = client.recommend(i as u64, request).expect("parity: round trip");
        reference
            .recommend(request, &mut expect)
            .expect("parity: reference call");
        match got {
            ServerMsg::Recommendations(ok) => {
                assert_eq!(ok.req_id, i as u64, "parity: response out of order");
                assert!(
                    bitwise_equal(&ok.recs, &expect),
                    "parity gate FAILED at request {i} ({request:?}): server {:?} != reference {expect:?}",
                    ok.recs
                );
            }
            other => panic!("parity: unexpected response {other:?}"),
        }
    }
    eprintln!(
        "parity: {} requests bitwise-identical to direct engine calls (server epoch {})",
        requests.len(),
        hello.epoch
    );
}

// ---------------------------------------------------------------------------
// Phase 2: closed-loop baseline
// ---------------------------------------------------------------------------

struct ClosedLoop {
    rps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn closed_loop(addr: &str, requests: &[Request]) -> ClosedLoop {
    let (mut client, _) = Client::connect(addr).expect("closed-loop: connect");
    let mut lat_us = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        let t0 = Instant::now();
        match client.recommend(i as u64, request).expect("closed-loop: round trip") {
            ServerMsg::Recommendations(_) => lat_us.push(t0.elapsed().as_secs_f64() * 1e6),
            other => panic!("closed-loop: unexpected response {other:?}"),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);
    ClosedLoop {
        rps: requests.len() as f64 / elapsed,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
    }
}

// ---------------------------------------------------------------------------
// Shared reader: drains responses until `expected` arrive (or timeout)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ConnOutcome {
    /// Response latencies (µs) of served requests, from scheduled arrival.
    lat_us: Vec<f64>,
    served: u64,
    shed: u64,
    errors: u64,
}

fn drain_responses(
    mut stream: TcpStream,
    expected: usize,
    start: Instant,
    schedule: Option<&[Duration]>,
    progress: Option<&std::sync::atomic::AtomicUsize>,
) -> ConnOutcome {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("reader: set timeout");
    let mut frames = FrameReader::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut out = ConnOutcome::default();
    let mut got = 0usize;
    'outer: while got < expected {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut => {
                eprintln!("reader: timed out with {got}/{expected} responses");
                break;
            }
            Err(e) => panic!("reader: {e}"),
        };
        frames.push_bytes(&chunk[..n]);
        loop {
            match frames.next_frame().expect("reader: bad frame") {
                None => continue 'outer,
                Some(body) => {
                    let now = Instant::now();
                    if let Some(p) = progress {
                        p.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    match proto::decode_server(body).expect("reader: bad message") {
                        ServerMsg::Recommendations(ok) => {
                            out.served += 1;
                            got += 1;
                            if let Some(sched) = schedule {
                                let due = start + sched[ok.req_id as usize];
                                out.lat_us.push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                            }
                        }
                        ServerMsg::Overloaded(_) => {
                            out.shed += 1;
                            got += 1;
                        }
                        ServerMsg::Error(e) => {
                            eprintln!("reader: server error {e:?}");
                            out.errors += 1;
                            got += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Phase 3: saturation blast
// ---------------------------------------------------------------------------

struct Saturation {
    served_rps: f64,
    served: u64,
    shed: u64,
}

fn saturation_blast(addr: &str, requests: &[Request], conns: usize, window: usize) -> Saturation {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let per_conn: Vec<Vec<Vec<u8>>> = (0..conns)
        .map(|c| {
            requests
                .iter()
                .enumerate()
                .filter(|(i, _)| i % conns == c)
                .enumerate()
                .map(|(local, (_, r))| encode_recommend(local as u64, r))
                .collect()
        })
        .collect();
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr).expect("saturation: connect").0)
        .collect();
    let received: Vec<AtomicUsize> = (0..conns).map(|_| AtomicUsize::new(0)).collect();
    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ((mut client, frames), recvd) in clients.into_iter().zip(&per_conn).zip(&received) {
            let read_half = client.try_clone_stream().expect("saturation: clone stream");
            let expected = frames.len();
            let reader = scope.spawn(move || drain_responses(read_half, expected, start, None, Some(recvd)));
            scope.spawn(move || {
                // Windowed pipelining: keep up to `window` requests in
                // flight per connection (sized to the admission-control
                // queue bound, so the coalescer's batch is always full but
                // nothing is shed) — that measures *served* capacity, not
                // how fast the server can say Overloaded.
                let mut buf = Vec::new();
                let mut sent = 0usize;
                while sent < frames.len() {
                    let inflight = sent - recvd.load(Ordering::Relaxed);
                    if inflight >= window {
                        std::thread::yield_now();
                        continue;
                    }
                    let burst = (window - inflight).min(16).min(frames.len() - sent);
                    buf.clear();
                    for f in &frames[sent..sent + burst] {
                        buf.extend_from_slice(f);
                    }
                    client.send_raw(&buf).expect("saturation: write");
                    sent += burst;
                }
            });
            handles.push(reader);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation: reader"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let served: u64 = outcomes.iter().map(|o| o.served).sum();
    let shed: u64 = outcomes.iter().map(|o| o.shed).sum();
    Saturation {
        served_rps: served as f64 / elapsed,
        served,
        shed,
    }
}

// ---------------------------------------------------------------------------
// Phase 4: open-loop Poisson sweep
// ---------------------------------------------------------------------------

struct OpenLoopPoint {
    offered_rps: f64,
    sent: usize,
    served: u64,
    shed: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn open_loop(addr: &str, requests: &[Request], offered_rps: f64, conns: usize, seed: u64) -> OpenLoopPoint {
    // Poisson arrivals: exponential inter-arrival gaps by inverse CDF.
    let mut rng = component_rng(seed, "load-gen-arrivals");
    let mut t = 0.0f64;
    let arrivals: Vec<Duration> = (0..requests.len())
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / offered_rps;
            Duration::from_secs_f64(t)
        })
        .collect();
    // Round-robin across connections; req_id is the connection-local index
    // into that connection's schedule.
    let mut schedules: Vec<Vec<Duration>> = vec![Vec::new(); conns];
    let mut frames: Vec<Vec<Vec<u8>>> = vec![Vec::new(); conns];
    for (i, (request, due)) in requests.iter().zip(&arrivals).enumerate() {
        let c = i % conns;
        frames[c].push(encode_recommend(schedules[c].len() as u64, request));
        schedules[c].push(*due);
    }
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr).expect("open-loop: connect").0)
        .collect();
    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ((mut client, sched), conn_frames) in clients.into_iter().zip(&schedules).zip(&frames) {
            let read_half = client.try_clone_stream().expect("open-loop: clone stream");
            let expected = conn_frames.len();
            let reader = scope.spawn(move || drain_responses(read_half, expected, start, Some(sched), None));
            scope.spawn(move || {
                // Send every due frame in one write (catch-up batching keeps
                // the offered schedule honest even when sleep overshoots).
                let mut buf = Vec::new();
                let mut i = 0;
                while i < conn_frames.len() {
                    let now = start.elapsed();
                    if sched[i] <= now {
                        buf.clear();
                        while i < conn_frames.len() && sched[i] <= start.elapsed() {
                            buf.extend_from_slice(&conn_frames[i]);
                            i += 1;
                        }
                        client.send_raw(&buf).expect("open-loop: write");
                    } else {
                        std::thread::sleep(sched[i] - now);
                    }
                }
            });
            handles.push(reader);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop: reader"))
            .collect()
    });
    let mut lat_us: Vec<f64> = outcomes.iter().flat_map(|o| o.lat_us.iter().copied()).collect();
    lat_us.sort_by(f64::total_cmp);
    OpenLoopPoint {
        offered_rps,
        sent: requests.len(),
        served: outcomes.iter().map(|o| o.served).sum(),
        shed: outcomes.iter().map(|o| o.shed).sum(),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        p999_us: percentile(&lat_us, 0.999),
    }
}

// ---------------------------------------------------------------------------
// Phase 5: hot reload under load
// ---------------------------------------------------------------------------

struct HotReload {
    requests: usize,
    answered: u64,
    deltas: u64,
    epoch_before: u64,
    epoch_after: u64,
}

fn hot_reload(addr: &str, scenario: &CdrScenario, requests: &[Request], rate: f64, seed: u64) -> HotReload {
    let (mut control, hello) = Client::connect(addr).expect("hot-reload: connect control");
    let epoch_before = hello.epoch;
    // Paced single-connection recommend stream (uniform gaps are fine here;
    // the phase tests the epoch swap, not tail latency).
    let gap = Duration::from_secs_f64(1.0 / rate);
    let sched: Vec<Duration> = (0..requests.len()).map(|i| gap * (i as u32 + 1)).collect();
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| encode_recommend(i as u64, r))
        .collect();
    let (mut client, _) = Client::connect(addr).expect("hot-reload: connect load");
    let read_half = client.try_clone_stream().expect("hot-reload: clone stream");
    let start = Instant::now();
    let mut rng = component_rng(seed, "load-gen-delta");
    let (outcome, deltas) = std::thread::scope(|scope| {
        let expected = frames.len();
        let reader = scope.spawn(move || drain_responses(read_half, expected, start, None, None));
        scope.spawn(|| {
            let mut i = 0;
            while i < frames.len() {
                let now = start.elapsed();
                if sched[i] <= now {
                    client.send_raw(&frames[i]).expect("hot-reload: write");
                    i += 1;
                } else {
                    std::thread::sleep(sched[i] - now);
                }
            }
        });
        // Two deltas land mid-stream: each appends one user + one item to
        // domain X with a fresh edge (and a second edge from an existing
        // user so the new item is reachable).
        let mut deltas_applied = 0u64;
        let base_user = scenario.x.n_users as u32;
        let base_item = scenario.x.n_items as u32;
        for d in 0..2u64 {
            std::thread::sleep(gap * (frames.len() as u32 / 3));
            let (next_user, next_item) = (base_user + d as u32, base_item + d as u32);
            let delta = GraphDelta {
                add_users: 1,
                add_items: 1,
                edges: vec![
                    (next_user, next_item),
                    (rng.gen_range(0..scenario.x.n_users as u32), next_item),
                ],
                ..GraphDelta::empty()
            };
            control
                .send(&ClientMsg::IngestDelta(IngestReq {
                    req_id: d,
                    domain: DomainId::X,
                    delta,
                }))
                .expect("hot-reload: send delta");
            match control.recv().expect("hot-reload: delta response") {
                ServerMsg::DeltaApplied(ok) => {
                    assert_eq!(ok.req_id, d);
                    deltas_applied += 1;
                }
                other => panic!("hot-reload: unexpected delta response {other:?}"),
            }
        }
        (reader.join().expect("hot-reload: reader"), deltas_applied)
    });
    control.send(&ClientMsg::Stats(99)).expect("hot-reload: stats");
    let stats_reply = control.recv().expect("hot-reload: stats response");
    let epoch_after = match stats_reply {
        ServerMsg::Stats(s) => s.epoch,
        other => panic!("hot-reload: unexpected stats response {other:?}"),
    };
    HotReload {
        requests: requests.len(),
        answered: outcome.served + outcome.shed + outcome.errors,
        deltas,
        epoch_before,
        epoch_after,
    }
}

// ---------------------------------------------------------------------------
// BENCH_serve.json merge
// ---------------------------------------------------------------------------

/// Replaces (or appends) the trailing `"server"` section of the bench JSON.
/// `serve_perf` owns everything before it; this binary owns the section and
/// always writes it last, so "cut at the marker, re-append" is exact.
fn merge_server_section(path: &str, section: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| String::from("{\n}\n"));
    let marker = ",\n  \"server\":";
    let base = match text.find(marker) {
        Some(pos) => text[..pos].to_string(),
        None => {
            let end = text.rfind('}').expect("bench json: no closing brace");
            text[..end].trim_end().to_string()
        }
    };
    let joiner = if base.trim_end().ends_with('{') {
        "\n  "
    } else {
        ",\n  "
    };
    let merged = format!("{base}{joiner}\"server\": {section}\n}}\n");
    std::fs::write(path, merged).expect("bench json: write");
}

fn main() {
    let args = Args::from_env();
    let quick = args.get_or("quick", 0u64) == 1;
    let preset = args.get("preset").unwrap_or("tiny").to_string();
    let seed = args.get_or("seed", 42u64);
    let conns = args.get_or("conns", 2usize).max(1);
    let min_speedup = args.get_or("min-speedup", 2.0f64);
    let n_point = args.get_or("requests", if quick { 400 } else { 2000 });
    let out_path = args.get("bench-out").unwrap_or("BENCH_serve.json").to_string();

    let config = ServerConfig {
        max_batch: args.get_or("max-batch", 256),
        max_wait: Duration::from_micros(args.get_or("max-wait-us", 200)),
        queue_capacity: args.get_or("queue-cap", 128),
        workers: args.get_or("workers", ServerConfig::default().workers),
    };

    // The reference engine is always local; the serving engine is either the
    // in-process twin or an external `cdrib-served` booted with the same
    // preset + seed (parity gate checks they agree bitwise either way).
    let (mut reference, scenario) = preset_engine(&preset, seed).expect("reference engine");
    let handle = match args.get("addr") {
        Some(addr) => ServerHandle::External(addr.to_string()),
        None => {
            let (engine, _) = preset_engine(&preset, seed).expect("server engine");
            ServerHandle::InProcess(Server::spawn(engine, "127.0.0.1:0", config.clone()).expect("spawn server"))
        }
    };
    let addr = handle.addr();
    eprintln!("load_gen: target {addr} (preset {preset}, seed {seed}, {conns} conns)");

    // 1. Parity.
    let parity_requests = request_mix(&scenario, if quick { 32 } else { 128 }, seed ^ 1);
    parity_gate(&addr, &mut reference, &parity_requests);

    // 2. Closed-loop baseline.
    let cl_requests = request_mix(&scenario, if quick { 150 } else { 500 }, seed ^ 2);
    let cl = closed_loop(&addr, &cl_requests);
    eprintln!(
        "closed-loop: {:.0} req/s (p50 {:.0}us, p99 {:.0}us)",
        cl.rps, cl.p50_us, cl.p99_us
    );

    // 3. Saturation.
    let sat_requests = request_mix(&scenario, if quick { 2000 } else { 10000 }, seed ^ 3);
    let sat = saturation_blast(&addr, &sat_requests, conns, config.queue_capacity);
    let speedup = sat.served_rps / cl.rps;
    eprintln!(
        "saturation: {:.0} served/s ({} served, {} shed) = {speedup:.1}x closed-loop",
        sat.served_rps, sat.served, sat.shed
    );

    // 4. Open-loop sweep (last point is deliberate overload). Each point
    // offers load long enough (>=120ms) for queues to reach steady state —
    // a fixed request count at high rates would end before the bounded
    // queues even fill, making the overload point meaningless.
    let fractions = [0.25, 0.5, 0.8, 1.5];
    let mut points = Vec::new();
    for (pi, frac) in fractions.iter().enumerate() {
        let rate = sat.served_rps * frac;
        let n = n_point.max((rate * 0.12) as usize);
        let reqs = request_mix(&scenario, n, seed ^ (16 + pi as u64));
        let point = open_loop(&addr, &reqs, rate, conns, seed ^ (32 + pi as u64));
        eprintln!(
            "open-loop {:.2}x: offered {:.0}/s, served {}, shed {}, p50 {:.0}us p99 {:.0}us p999 {:.0}us",
            frac, point.offered_rps, point.served, point.shed, point.p50_us, point.p99_us, point.p999_us
        );
        points.push(point);
    }

    // 5. Hot reload at half saturation.
    let hr_requests = request_mix(&scenario, if quick { 200 } else { 600 }, seed ^ 4);
    let hr = hot_reload(
        &addr,
        &scenario,
        &hr_requests,
        (sat.served_rps * 0.5).max(500.0),
        seed ^ 5,
    );
    eprintln!(
        "hot-reload: {}/{} answered across {} deltas, epoch {} -> {}",
        hr.answered, hr.requests, hr.deltas, hr.epoch_before, hr.epoch_after
    );

    // Shut the server down (in-process always; external only on request,
    // which is how the CI smoke job reaps the booted binary).
    match handle {
        ServerHandle::InProcess(server) => {
            let stats = server.stats();
            eprintln!(
                "server: accepted {} served {} shed {} deltas {} batches {}",
                stats.accepted, stats.served, stats.shed, stats.deltas_applied, stats.batches
            );
            server.shutdown();
        }
        ServerHandle::External(_) => {
            if args.get_or("shutdown", 0u64) == 1 {
                let (mut c, _) = Client::connect(&addr).expect("shutdown: connect");
                c.send(&ClientMsg::Shutdown).expect("shutdown: send");
                match c.recv() {
                    Ok(ServerMsg::ShuttingDown) | Err(_) => {}
                    Ok(other) => panic!("shutdown: unexpected response {other:?}"),
                }
            }
        }
    }

    // Gates.
    let overload = points.last().expect("overload point");
    assert!(
        speedup >= min_speedup,
        "coalescing speedup gate FAILED: {speedup:.2}x < {min_speedup:.2}x"
    );
    assert!(
        overload.shed > 0,
        "overload gate FAILED: no sheds at {:.0} req/s offered",
        overload.offered_rps
    );
    assert!(
        overload.p99_us.is_finite() && overload.p99_us < 2_000_000.0,
        "overload gate FAILED: accepted p99 {:.0}us unbounded",
        overload.p99_us
    );
    assert!(
        hr.answered as usize == hr.requests && hr.deltas == 2 && hr.epoch_after > hr.epoch_before,
        "hot-reload gate FAILED: {}/{} answered, {} deltas, epoch {} -> {}",
        hr.answered,
        hr.requests,
        hr.deltas,
        hr.epoch_before,
        hr.epoch_after
    );
    eprintln!("gates: parity, {speedup:.1}x >= {min_speedup}x, overload shed, hot reload -- all passed");

    // JSON section.
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "    \"preset\": \"{preset}\",\n    \"seed\": {seed},\n    \"connections\": {conns},\n"
    ));
    s.push_str(&format!(
        "    \"config\": {{ \"max_batch\": {}, \"max_wait_us\": {}, \"queue_capacity\": {}, \"workers\": {} }},\n",
        config.max_batch,
        config.max_wait.as_micros(),
        config.queue_capacity,
        config.workers
    ));
    s.push_str("    \"parity\": \"bitwise\",\n");
    s.push_str(&format!(
        "    \"closed_loop\": {{ \"rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1} }},\n",
        cl.rps, cl.p50_us, cl.p99_us
    ));
    s.push_str(&format!(
        "    \"saturation\": {{ \"served_rps\": {:.1}, \"served\": {}, \"shed\": {}, \"speedup_vs_closed_loop\": {:.2} }},\n",
        sat.served_rps, sat.served, sat.shed, speedup
    ));
    s.push_str("    \"open_loop\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "      {{ \"offered_rps\": {:.1}, \"sent\": {}, \"served\": {}, \"shed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1} }}{}\n",
            p.offered_rps,
            p.sent,
            p.served,
            p.shed,
            p.p50_us,
            p.p99_us,
            p.p999_us,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"hot_reload\": {{ \"requests\": {}, \"answered\": {}, \"deltas\": {}, \"epoch_before\": {}, \"epoch_after\": {} }}\n  }}",
        hr.requests, hr.answered, hr.deltas, hr.epoch_before, hr.epoch_after
    ));
    merge_server_section(&out_path, &s);
    eprintln!("load_gen: wrote server section to {out_path}");
}
