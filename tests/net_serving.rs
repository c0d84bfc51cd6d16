//! End-to-end tests of the batched TCP serving front-end: bitwise parity
//! with direct engine calls, typed load shedding from the bounded queues,
//! hot delta ingest over the wire, request/response correlation, the
//! coalescing window's two promises (a lone request never waits on a timer;
//! a pipelined burst still batches), graceful shutdown — and the
//! catalogue-extension race regression on the batch API itself.

use cdrib::data::{Direction, DomainId};
use cdrib::graph::GraphDelta;
use cdrib::serve::net::preset_engine;
use cdrib::serve::proto::{ClientMsg, ErrorCode, IngestReq, RecommendReq, ServerMsg};
use cdrib::serve::{Client, Recommendation, Recommender, Request, ServeError, Server, ServerConfig};
use std::time::{Duration, Instant};

fn spawn_tiny(config: ServerConfig) -> (Server, Recommender, (usize, usize)) {
    let (engine, scenario) = preset_engine("tiny", 7).expect("server engine");
    let (reference, _) = preset_engine("tiny", 7).expect("reference engine");
    let server = Server::spawn(engine, "127.0.0.1:0", config).expect("spawn");
    (server, reference, (scenario.x.n_users, scenario.y.n_users))
}

fn mixed_requests(n: usize, (x_users, y_users): (usize, usize)) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let x_to_y = i % 2 == 0;
            let bound = if x_to_y { x_users } else { y_users };
            Request {
                direction: if x_to_y { Direction::X_TO_Y } else { Direction::Y_TO_X },
                user: (i * 13 % bound.max(1)) as u32,
                k: 5 + i % 7,
            }
        })
        .collect()
}

/// `requests` as pipelined `Recommend` frames with ids `first_id..`, ready
/// for one `send_raw`.
fn recommend_frames(requests: &[Request], first_id: u64) -> Vec<u8> {
    let mut frames = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        cdrib::serve::proto::write_frame(
            &mut frames,
            &ClientMsg::Recommend(RecommendReq {
                req_id: first_id + i as u64,
                direction: r.direction,
                user: r.user,
                k: r.k as u32,
            }),
        );
    }
    frames
}

/// `got` must be the answer to `req_id` and equal `expect` bit for bit.
fn assert_bitwise(got: ServerMsg, req_id: u64, expect: &[Recommendation]) {
    match got {
        ServerMsg::Recommendations(ok) => {
            assert_eq!(ok.req_id, req_id);
            assert_eq!(ok.recs.len(), expect.len());
            for (a, b) in ok.recs.iter().zip(expect) {
                assert_eq!(a.item, b.item);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn served_responses_are_bitwise_equal_to_direct_calls() {
    let (server, mut reference, bounds) = spawn_tiny(ServerConfig::default());
    let (mut client, hello) = Client::connect(server.addr()).expect("connect");
    assert_eq!(hello.epoch, 0);
    let mut expect = Vec::new();
    for (i, request) in mixed_requests(40, bounds).iter().enumerate() {
        let got = client.recommend(i as u64, request).expect("round trip");
        reference.recommend(request, &mut expect).expect("reference");
        assert_bitwise(got, i as u64, &expect);
    }
    server.shutdown();
}

/// The coalescing window closes on an *observed* stall, so a quiet server
/// imposes no wait: with a 5 s `max_wait`, 20 sequential round trips finish
/// at socket speed. A timed wait on any fraction of the budget between a
/// job's enqueue and its batch fails this (an eighth of it: 20 × 625 ms).
#[test]
fn lone_request_is_never_held_by_a_timer() {
    let (server, mut reference, bounds) = spawn_tiny(ServerConfig {
        max_wait: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let (mut client, _) = Client::connect(server.addr()).expect("connect");
    let mut expect = Vec::new();
    let start = Instant::now();
    for (i, request) in mixed_requests(20, bounds).iter().enumerate() {
        let got = client.recommend(i as u64, request).expect("round trip");
        reference.recommend(request, &mut expect).expect("reference");
        assert_bitwise(got, i as u64, &expect);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "20 lone round trips took {elapsed:?}: the window slept on a quiet server"
    );
    server.shutdown();
}

/// Batching needs no window sleep: while one batch runs, the reader keeps
/// queueing the rest of a pipelined burst, so the next tick finds its batch
/// already built. One connection, one write of 4 096 frames, a queue deep
/// enough that admission control stays out of it.
#[test]
fn pipelined_burst_still_batches_without_a_window_sleep() {
    const N: usize = 4096;
    let (server, mut reference, bounds) = spawn_tiny(ServerConfig {
        queue_capacity: N,
        ..ServerConfig::default()
    });
    let (mut client, _) = Client::connect(server.addr()).expect("connect");
    let requests = mixed_requests(N, bounds);
    client.send_raw(&recommend_frames(&requests, 0)).expect("burst");
    // Queued responses of one connection come back in request order.
    let mut expect = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let got = client.recv().expect("response");
        reference.recommend(request, &mut expect).expect("reference");
        assert_bitwise(got, i as u64, &expect);
    }
    let stats = server.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.served, N as u64);
    assert!(
        stats.batches * 4 <= stats.served,
        "mean batch below 4: {} batches for {} requests",
        stats.batches,
        stats.served
    );
    server.shutdown();
}

#[test]
fn bounded_queues_shed_with_typed_overloaded() {
    // A tiny queue under a flood forces admission control to act however
    // fast ticks run: the reader decodes ~500 of these frames per socket
    // read and enqueues them back to back, while every tick that frees at
    // most 4 slots costs an engine call and a socket write.
    let (server, _, bounds) = spawn_tiny(ServerConfig {
        max_batch: 8,
        queue_capacity: 4,
        workers: 1,
        ..ServerConfig::default()
    });
    let (mut client, _) = Client::connect(server.addr()).expect("connect");
    let requests = mixed_requests(2000, bounds);
    client.send_raw(&recommend_frames(&requests, 0)).expect("flood");
    let (mut served, mut shed) = (0u64, 0u64);
    for _ in 0..requests.len() {
        match client.recv().expect("response") {
            ServerMsg::Recommendations(_) => served += 1,
            ServerMsg::Overloaded(id) => {
                assert!((id as usize) < requests.len());
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Every request was answered exactly once, sheds are typed, and the
    // stats agree with what came over the wire.
    assert_eq!(served + shed, requests.len() as u64);
    assert!(shed > 0, "flood of 2000 into a 4-deep queue must shed");
    assert!(served > 0, "admitted requests must still be served");
    let stats = server.stats();
    assert_eq!(stats.served, served);
    assert_eq!(stats.shed, shed);
    server.shutdown();
}

#[test]
fn delta_over_wire_extends_catalogue_and_bumps_epoch() {
    let (server, _, bounds) = spawn_tiny(ServerConfig::default());
    let (mut client, hello) = Client::connect(server.addr()).expect("connect");
    assert_eq!(hello.epoch, 0);
    let new_user = bounds.0 as u32;
    let request = Request {
        direction: Direction::X_TO_Y,
        user: new_user,
        k: 5,
    };
    // Before the delta the user is beyond the live table: typed wire error.
    match client.recommend(1, &request).expect("round trip") {
        ServerMsg::Error(e) => {
            assert_eq!(e.req_id, 1);
            assert_eq!(e.code, ErrorCode::UserOutOfRange);
        }
        other => panic!("expected UserOutOfRange, got {other:?}"),
    }
    // Ingest a delta appending that user with one interaction.
    client
        .send(&ClientMsg::IngestDelta(IngestReq {
            req_id: 2,
            domain: DomainId::X,
            delta: GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(new_user, 0)],
                ..GraphDelta::empty()
            },
        }))
        .expect("send delta");
    match client.recv().expect("delta response") {
        ServerMsg::DeltaApplied(ok) => {
            assert_eq!(ok.req_id, 2);
            assert_eq!(ok.users_added, 1);
            assert_eq!(ok.epoch, 1);
        }
        other => panic!("expected DeltaApplied, got {other:?}"),
    }
    // The same request now serves, stamped with the new epoch.
    match client.recommend(3, &request).expect("round trip") {
        ServerMsg::Recommendations(ok) => {
            assert_eq!(ok.req_id, 3);
            assert_eq!(ok.epoch, 1);
            assert!(!ok.recs.is_empty());
        }
        other => panic!("expected recommendations, got {other:?}"),
    }
    assert_eq!(server.stats().deltas_applied, 1);
    server.shutdown();
}

#[test]
fn pipelined_responses_correlate_by_req_id() {
    let (server, _, bounds) = spawn_tiny(ServerConfig::default());
    let (mut client, _) = Client::connect(server.addr()).expect("connect");
    let requests = mixed_requests(64, bounds);
    client.send_raw(&recommend_frames(&requests, 1000)).expect("pipeline");
    let mut seen = vec![false; requests.len()];
    for _ in 0..requests.len() {
        match client.recv().expect("response") {
            ServerMsg::Recommendations(ok) => {
                let idx = (ok.req_id - 1000) as usize;
                assert!(!seen[idx], "duplicate response for req {}", ok.req_id);
                seen[idx] = true;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "every request answered exactly once");
    server.shutdown();
}

#[test]
fn wire_shutdown_drains_in_flight_requests() {
    let (server, _, bounds) = spawn_tiny(ServerConfig::default());
    let (mut client, _) = Client::connect(server.addr()).expect("connect");
    let requests = mixed_requests(32, bounds);
    let mut frames = recommend_frames(&requests, 0);
    cdrib::serve::proto::write_frame(&mut frames, &ClientMsg::Shutdown);
    client.send_raw(&frames).expect("burst + shutdown");
    // Every queued request is still answered; the ShuttingDown ack may
    // interleave anywhere (inline replies are not coalesced).
    let (mut answered, mut acked) = (0usize, false);
    while answered < requests.len() || !acked {
        match client.recv().expect("response") {
            ServerMsg::Recommendations(_) | ServerMsg::Overloaded(_) => answered += 1,
            ServerMsg::ShuttingDown => acked = true,
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.wait(); // returns because the wire requested shutdown
    server.shutdown();
}

/// Regression: a client speaking the wrong protocol version must get the
/// typed `UnsupportedVersion` error and then the *closed* connection —
/// frames pipelined behind the bad hello are never served, because their
/// meaning may have changed across versions.
#[test]
fn version_mismatch_gets_typed_error_then_close() {
    use cdrib::serve::proto::{self, FrameReader, HelloReq, PROTO_VERSION};
    use std::io::{Read, Write};

    let (server, _, _) = spawn_tiny(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut buf = Vec::new();
    proto::write_frame(
        &mut buf,
        &ClientMsg::Hello(HelloReq {
            version: PROTO_VERSION + 1,
        }),
    );
    proto::write_frame(&mut buf, &ClientMsg::Stats(99));
    stream.write_all(&buf).expect("send bad hello + pipelined stats");
    let mut frames = FrameReader::new();
    let mut chunk = [0u8; 4096];
    let mut msgs = Vec::new();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break, // the server must close, not keep serving
            Ok(n) => {
                frames.push_bytes(&chunk[..n]);
                while let Some(body) = frames.next_frame().expect("well-formed server frame") {
                    msgs.push(proto::decode_server(body).expect("decodable server frame"));
                }
            }
            Err(e) => panic!("read failed before server close: {e}"),
        }
    }
    assert_eq!(
        msgs.len(),
        1,
        "only the typed error may come back, never the pipelined reply: {msgs:?}"
    );
    match &msgs[0] {
        ServerMsg::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion error, got {other:?}"),
    }
    server.shutdown();
}

/// Regression for the enqueue/drain race on the pending-job counter: with a
/// zero coalescing window the drain runs as hot as possible while several
/// connections flood jobs in. Under the old accounting (queue push and
/// counter increment under separate locks) the coalescer could drain a job
/// before it was counted and underflow `pending` — panicking the coalescer
/// in debug builds and wedging `shutdown()` in release builds. Every
/// admitted request must still be answered and shutdown must return.
#[test]
fn shutdown_never_hangs_under_concurrent_enqueue_load() {
    let (server, _, bounds) = spawn_tiny(ServerConfig {
        max_batch: 4,
        max_wait: Duration::ZERO,
        queue_capacity: 64,
        workers: 1,
    });
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let (mut client, _) = Client::connect(addr).expect("connect");
                let requests = mixed_requests(300, bounds);
                // Small bursts interleave enqueues with hot drains far
                // more than one big write would.
                for (burst, chunk) in requests.chunks(8).enumerate() {
                    let frames = recommend_frames(chunk, 8 * burst as u64);
                    client.send_raw(&frames).expect("burst");
                }
                let mut answered = 0usize;
                while answered < requests.len() {
                    match client.recv().expect("response") {
                        ServerMsg::Recommendations(_) | ServerMsg::Overloaded(_) => answered += 1,
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stats();
    assert_eq!(stats.accepted, stats.served, "every admitted request answered");
    assert_eq!(stats.served + stats.shed, 4 * 300);
    // The regression: this join must return (a wrapped `pending` counter
    // left the coalescer spinning with no reachable exit).
    server.shutdown();
}

/// Regression: a batch prepared against the *old* catalogue racing a
/// concurrent extension must fail **typed**, not panic or silently
/// truncate — and the per-slot API must isolate the failure to the stale
/// slot. Once the delta lands, the identical batch serves fully.
#[test]
fn catalogue_extension_race_returns_typed_error() {
    let (mut engine, scenario) = preset_engine("tiny", 7).expect("engine");
    let n_users = scenario.x.n_users as u32;
    // The "in-flight" batch references a user the delta *will* add but the
    // live table does not yet contain.
    let requests: Vec<Request> = vec![
        Request {
            direction: Direction::X_TO_Y,
            user: 0,
            k: 5,
        },
        Request {
            direction: Direction::X_TO_Y,
            user: n_users,
            k: 5,
        },
        Request {
            direction: Direction::Y_TO_X,
            user: 1,
            k: 5,
        },
    ];
    // Whole-batch API: typed first-error, no panic.
    let mut responses = Vec::new();
    match engine.recommend_batch(&requests, &mut responses) {
        Err(ServeError::UserOutOfRange { user, bound }) => {
            assert_eq!(user, n_users);
            assert_eq!(bound, n_users as usize);
        }
        other => panic!("expected typed UserOutOfRange, got {other:?}"),
    }
    // Per-slot API: healthy slots serve, only the stale slot errors (and
    // its response list is empty, not stale leftovers).
    let mut outcomes = Vec::new();
    engine.recommend_batch_outcomes(&requests, &mut responses, &mut outcomes, 2);
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    assert!(matches!(
        outcomes[1],
        Err(ServeError::UserOutOfRange { user, bound }) if user == n_users && bound == n_users as usize
    ));
    assert!(!responses[0].is_empty() && !responses[2].is_empty());
    assert!(
        responses[1].is_empty(),
        "failed slot must not leak stale recommendations"
    );
    // The extension lands; the identical batch now fully succeeds.
    engine
        .apply_delta(
            DomainId::X,
            &GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(n_users, 0)],
                ..GraphDelta::empty()
            },
        )
        .expect("delta");
    engine
        .recommend_batch(&requests, &mut responses)
        .expect("post-delta batch");
    assert!(responses.iter().all(|r| !r.is_empty()));
    engine.recommend_batch_outcomes(&requests, &mut responses, &mut outcomes, 2);
    assert!(outcomes.iter().all(|o| o.is_ok()));
}
