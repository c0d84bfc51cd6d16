//! Allocation-regression tests: warm training must be allocation-free.
//!
//! Installs the counting global allocator from `cdrib_tensor::alloc_track`
//! and measures two steady states:
//!
//! 1. a small but representative toy loop — pooled constants, matmul, bias
//!    broadcast, LeakyReLU, row-wise dot, BCE-with-logits, an L2 term, the
//!    in-place backward pass, gradient clipping and a fused Adam step;
//! 2. the **full CDRIB model** on a tiny preset scenario, including epoch
//!    batch construction through `EdgeBatcher::epoch_into`'s reusable
//!    [`EpochBatches`] storage.
//!
//! Every tensor buffer is recycled through the persistent tape's pool, the
//! epoch storages recycle all batch `Vec`s, and the optimizer state is
//! allocated during warm-up, so both steady states must perform **zero**
//! allocator requests. Any regression (a stray `clone`, a `Vec` rebuilt per
//! step, a kernel that materialises a temporary, per-step negative-sampling
//! allocations) trips these tests.
//!
//! The tests run serially in one `#[test]` so no concurrent test thread can
//! allocate while a steady-state window is being measured.

use cdrib_core::{save_model_bytes, save_serve_v2_bytes, CdribConfig, CdribModel, InferenceModel};
use cdrib_data::{build_preset, Direction, DomainId, EpochBatches, Scale, ScenarioKind};
use cdrib_graph::GraphDelta;
use cdrib_serve::{Recommendation, Recommender, Request, ScoringPrecision};
use cdrib_tensor::alloc_track::{allocated_bytes, allocation_count, CountingAlloc};
use cdrib_tensor::rng::{component_rng, normal_tensor};
use cdrib_tensor::{Adam, Optimizer, ParamSet, Tape, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Measures the allocator requests of `window` up to three times and
/// returns the smallest count. The counter is process-global, so a stray
/// allocation from the libtest harness thread can land inside a window; a
/// real pooling regression allocates deterministically in *every* window,
/// so taking the minimum rejects the interference without masking bugs.
fn min_allocs_over_windows(mut window: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = allocation_count();
        window();
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    best
}

/// The full model: warm epochs (batching + forward + backward + clip +
/// Adam) must not touch the allocator. This is the end of the ~53-allocs-
/// per-epoch trail left by PR 2 (negative sampling and batch `Vec`s) plus
/// the per-step `StepScratch` `Arc` churn and composition-dependent pool
/// misses fixed alongside the batched evaluation work.
fn full_model_steady_state() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let config = CdribConfig {
        dim: 16,
        layers: 2,
        batches_per_epoch: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let mut model = CdribModel::new(&config, &scenario).expect("model");
    let mut opt = Adam::new(config.learning_rate, 0.9, 0.999, 1e-8, config.l2_weight);
    let mut rng = component_rng(config.seed, "alloc-regression-full");
    let mut tape = Tape::new();
    let (mut x_epoch, mut y_epoch) = (EpochBatches::new(), EpochBatches::new());

    let mut run_epoch = |tape: &mut Tape, model: &mut CdribModel| {
        model
            .make_batches_into(&scenario, &mut rng, &mut x_epoch, &mut y_epoch)
            .expect("batches");
        for (xb, yb) in x_epoch.iter().zip(y_epoch.iter()) {
            model.params_mut().zero_grad();
            tape.reset();
            let (loss, _) = model.loss(tape, xb, yb, &mut rng).expect("loss");
            let value = tape.backward(loss, model.params_mut()).expect("backward");
            assert!(value.is_finite());
            model.params_mut().clip_grad_norm(20.0);
            opt.step(model.params_mut()).expect("adam");
        }
    };

    // Warm-up: pool fills across several epochs so the composition-dependent
    // buffer size classes (overlap-user splits vary with the shuffle) are
    // all parked before the measured window opens.
    for _ in 0..6 {
        run_epoch(&mut tape, &mut model);
    }
    let steady = min_allocs_over_windows(|| {
        for _ in 0..3 {
            run_epoch(&mut tape, &mut model);
        }
    });
    assert_eq!(
        steady, 0,
        "warm full-model epochs must not touch the allocator (got {steady} requests over 3 epochs)"
    );
    assert!(model.params().all_finite());
}

/// The serving half of the train/serve split: warm tape-free re-encoding
/// (`InferenceModel::encode_into`) and warm top-K requests
/// (`Recommender::recommend`) must both be allocation-free — a serving
/// process answers millions of requests from one frozen snapshot, so any
/// per-request allocation is a steady-state leak.
fn inference_and_serving_steady_state() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let config = CdribConfig {
        dim: 16,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).expect("model");

    // Tape-free re-encoding: zero allocator requests once warm.
    let mut inference = InferenceModel::from_model(&model);
    let mut embeddings = inference.embeddings().expect("embeddings");
    for _ in 0..2 {
        inference.encode_into(&mut embeddings).expect("warm encode");
    }
    let steady = min_allocs_over_windows(|| {
        for _ in 0..3 {
            inference.encode_into(&mut embeddings).expect("measured encode");
        }
    });
    assert_eq!(
        steady, 0,
        "warm InferenceModel::encode_into must not touch the allocator (got {steady} requests over 3 passes)"
    );

    // Top-K serving: zero allocator requests per warm request.
    let mut recommender = Recommender::from_embeddings(embeddings, &scenario).expect("recommender");
    let mut requests: Vec<Request> = Vec::new();
    for &user in scenario.cold_x_to_y.test_users.iter().take(8) {
        requests.push(Request {
            direction: Direction::X_TO_Y,
            user,
            k: 10,
        });
    }
    for &user in scenario.cold_y_to_x.test_users.iter().take(8) {
        requests.push(Request {
            direction: Direction::Y_TO_X,
            user,
            k: 10,
        });
    }
    assert!(!requests.is_empty());
    let mut out: Vec<Recommendation> = Vec::new();
    for request in &requests {
        recommender.recommend(request, &mut out).expect("warm request");
    }
    let steady = min_allocs_over_windows(|| {
        for request in &requests {
            recommender.recommend(request, &mut out).expect("measured request");
        }
    });
    assert_eq!(
        steady,
        0,
        "warm top-K requests must not touch the allocator (got {steady} requests over {} recommendations)",
        requests.len()
    );
    assert!(!out.is_empty());

    // The int8 path holds the same bar: quantising the item tables and the
    // per-worker user-code buffers happens once (warm-up); after that a
    // request quantises the user row into reused scratch and scores through
    // the integer kernels without touching the allocator.
    recommender.set_precision(ScoringPrecision::Int8);
    for request in &requests {
        recommender.recommend(request, &mut out).expect("warm int8 request");
    }
    let steady = min_allocs_over_windows(|| {
        for request in &requests {
            recommender.recommend(request, &mut out).expect("measured int8 request");
        }
    });
    assert_eq!(
        steady,
        0,
        "warm int8 top-K requests must not touch the allocator (got {steady} requests over {} recommendations)",
        requests.len()
    );
    assert!(!out.is_empty());
}

/// The online-update path: warm delta ingestion — graph apply, dirty-set
/// propagation, partial re-encode through the pooled kernels, in-place
/// table patch — plus a request on the updated tables must be
/// allocation-free at **steady state**, i.e. when the delta grows no
/// structure. Replayed (duplicate) interactions are exactly that workload:
/// they re-encode the touched neighbourhoods through the full incremental
/// machinery while every buffer, stamp array and dirty list retains its
/// size. (Structural growth — new users/items/edges — legitimately
/// allocates, amortised like any `Vec` push.)
fn delta_apply_steady_state() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let config = CdribConfig {
        dim: 16,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).expect("model");
    let mut recommender =
        Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).expect("recommender");
    // Int8 scoring stays on throughout: every measured delta must also
    // re-quantise its dirty rows in the int8 mirrors, and every measured
    // request runs the integer kernels — all allocation-free once the
    // mirrors are materialised.
    recommender.set_precision(ScoringPrecision::Int8);

    // Structural warm-up: a new cold-start user with two interactions grows
    // every structure (tables, int8 mirrors, graphs, stamp arrays) once.
    let user = recommender.seen_graph(DomainId::X).n_users() as u32;
    recommender
        .apply_delta(
            DomainId::X,
            &GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(user, 0), (user, 5)],
                ..GraphDelta::empty()
            },
        )
        .expect("warm growth delta");

    // Steady-state workload: replayed interactions (all duplicates) that
    // still touch real neighbourhoods and drive the full re-encode path.
    let replay = GraphDelta {
        add_users: 0,
        add_items: 0,
        edges: vec![
            (user, 0),
            recommender.seen_graph(DomainId::X).edges().next().unwrap(),
            recommender.seen_graph(DomainId::X).edges().nth(1).unwrap(),
        ],
        ..GraphDelta::empty()
    };
    let request = Request {
        direction: Direction::X_TO_Y,
        user,
        k: 10,
    };
    let mut out: Vec<Recommendation> = Vec::new();
    for _ in 0..2 {
        let outcome = recommender
            .apply_delta(DomainId::X, &replay)
            .expect("warm replay delta");
        assert_eq!(outcome.duplicate_edges, 3);
        assert!(outcome.users_reencoded > 0, "replays must re-encode touched rows");
        recommender.recommend(&request, &mut out).expect("warm request");
    }
    let steady = min_allocs_over_windows(|| {
        for _ in 0..3 {
            recommender.apply_delta(DomainId::X, &replay).expect("measured delta");
            recommender.recommend(&request, &mut out).expect("measured request");
        }
    });
    assert_eq!(
        steady, 0,
        "warm delta ingestion + re-encode + request must not touch the allocator (got {steady} requests over 3 batches)"
    );
    assert_eq!(out.len(), 10);
}

/// The retraction path at steady state: a **replayed removal batch** — an
/// already-removed edge, an already-erased user and an already-delisted
/// item — is the shrink-side analogue of the duplicate-edge replay above.
/// It flows through the whole retraction machinery (bounds check, counted
/// missing-edge no-ops, idempotent erase/delist sweeps, tombstone-set
/// merge, dirty-row re-encode, int8 re-quantisation) while no structure and no
/// tombstone set changes size, so it must be allocation-free. WAL replay
/// after a crash re-applies exactly such batches, which is what keeps
/// recovery alloc-clean too.
fn removal_replay_steady_state() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let config = CdribConfig {
        dim: 16,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).expect("model");
    let mut recommender =
        Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).expect("recommender");
    recommender.set_precision(ScoringPrecision::Int8);

    // Structural warm-up: grow a cold user with interactions, then close
    // their lifecycle — erase them and delist one of their items. Both the
    // growth and the first shrink may allocate (edges rebuild, tombstone
    // inserts); that is the amortised part.
    let user = recommender.seen_graph(DomainId::X).n_users() as u32;
    recommender
        .apply_delta(
            DomainId::X,
            &GraphDelta {
                add_users: 1,
                edges: vec![(user, 0), (user, 5)],
                ..GraphDelta::empty()
            },
        )
        .expect("warm growth delta");
    let retract = GraphDelta {
        remove_edges: vec![(user, 0)],
        erase_users: vec![user],
        delist_items: vec![5],
        ..GraphDelta::empty()
    };
    let request = Request {
        direction: Direction::X_TO_Y,
        user,
        k: 10,
    };
    let mut out: Vec<Recommendation> = Vec::new();
    for _ in 0..2 {
        let outcome = recommender
            .apply_delta(DomainId::X, &retract)
            .expect("warm retraction replay");
        assert_eq!(outcome.users_erased, 1);
        assert_eq!(outcome.items_delisted, 1);
        recommender.recommend(&request, &mut out).expect("warm request");
    }
    // From here every replay is pure no-op shrinkage: the edge is already
    // gone (a counted missing edge), the user already erased, the item
    // already tombstoned.
    let steady = min_allocs_over_windows(|| {
        for _ in 0..3 {
            let outcome = recommender
                .apply_delta(DomainId::X, &retract)
                .expect("measured retraction replay");
            assert_eq!(outcome.edges_removed, 0);
            assert_eq!(outcome.missing_edges, 1);
            recommender.recommend(&request, &mut out).expect("measured request");
        }
    });
    assert_eq!(
        steady, 0,
        "warm replayed removal batches must not touch the allocator (got {steady} requests over 3 batches)"
    );
    // The erased user still serves a full top-K and the tombstone sets
    // never grew past the first application.
    assert_eq!(out.len(), 10);
    assert_eq!(recommender.erased_users(DomainId::X), &[user]);
    assert_eq!(recommender.delisted_items(DomainId::X), &[5]);
}

/// The durability path: a warm **WAL-backed** delta ingest — bounds
/// pre-check, record framing + checksum into the log's reused buffer, the
/// retried file write, then the in-memory apply — must be allocation-free
/// at steady state, same bar as the memory-only path above. The record
/// buffer is pre-sized and recycled across appends, and the happy-path
/// write never sleeps or allocates, so durability costs a syscall, not
/// allocator traffic.
fn wal_append_steady_state() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let config = CdribConfig {
        dim: 16,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).expect("model");
    let dir = std::path::Path::new("target").join("wal-fault-injection").join("alloc");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let base = dir.join("base.cdrb");
    let log = dir.join("deltas.wal");
    std::fs::remove_file(&log).ok();
    std::fs::write(&base, save_model_bytes(&model, &scenario)).expect("base artifact");
    let (mut recommender, report) = Recommender::recover(&base, &log).expect("recover");
    assert!(report.clean() && report.created_log);

    // Structural warm-up (grows tables, graphs and the record buffer once),
    // then replayed interactions: the same steady-state workload as the
    // memory-only path, now flowing through the append-before-apply gate.
    let user = recommender.seen_graph(DomainId::X).n_users() as u32;
    recommender
        .apply_delta(
            DomainId::X,
            &GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![(user, 0), (user, 5)],
                ..GraphDelta::empty()
            },
        )
        .expect("warm growth delta");
    let replay = GraphDelta {
        add_users: 0,
        add_items: 0,
        edges: vec![
            (user, 0),
            recommender.seen_graph(DomainId::X).edges().next().unwrap(),
            recommender.seen_graph(DomainId::X).edges().nth(1).unwrap(),
        ],
        ..GraphDelta::empty()
    };
    for _ in 0..2 {
        let outcome = recommender
            .apply_delta(DomainId::X, &replay)
            .expect("warm durable delta");
        assert!(outcome.wal_seq.is_some(), "durable engines log every accepted delta");
    }
    let steady = min_allocs_over_windows(|| {
        for _ in 0..3 {
            recommender
                .apply_delta(DomainId::X, &replay)
                .expect("measured durable delta");
        }
    });
    assert_eq!(
        steady, 0,
        "warm WAL-backed delta ingestion must not touch the allocator (got {steady} requests over 3 appends)"
    );
    recommender.wal_sync().expect("wal sync");
    // 1 growth + 2 warm + 3 per measured window (the window count adapts).
    assert!(
        recommender.wal_applied_seq().unwrap() >= 6,
        "every accepted delta must advance the log"
    );
}

/// The zero-copy load path: opening a serve v2 container must validate and
/// map, not decode. The allocation *count* is O(1) in the table sizes
/// (doubling the embedding width leaves it unchanged — no per-table copies,
/// no per-element work) and the allocated *bytes* stay far below the image
/// size; the heap-image loader, which copies the whole region once, is the
/// contrast that proves the mapped path borrows. Warm serving from the
/// mapped engine then holds the same zero-allocation bar as the owned
/// engines above, in f32 and int8, without migrating any table off the map.
fn mapped_load_and_serving_steady_state() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let dir = std::path::Path::new("target")
        .join("wal-fault-injection")
        .join("alloc-v2");
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let image_for = |dim: usize| {
        let config = CdribConfig {
            dim,
            layers: 2,
            eval_every: 0,
            patience: 0,
            seed: 42,
            ..CdribConfig::default()
        };
        let model = CdribModel::new(&config, &scenario).expect("model");
        save_serve_v2_bytes(&model, &scenario, true, false).expect("serve v2 image")
    };
    let load_cost = |image: &[u8], name: &str| {
        let path = dir.join(name);
        std::fs::write(&path, image).expect("write image");
        let (count_before, bytes_before) = (allocation_count(), allocated_bytes());
        let engine = Recommender::from_serve_v2_file(&path).expect("mapped load");
        let cost = (allocation_count() - count_before, allocated_bytes() - bytes_before);
        assert!(engine.is_mapped());
        cost
    };

    let small = image_for(16);
    let big = image_for(32);
    let (small_count, small_bytes) = load_cost(&small, "dim16.cdr2");
    let (big_count, big_bytes) = load_cost(&big, "dim32.cdr2");
    assert_eq!(
        small_count, big_count,
        "v2 mapped-load allocation count must not scale with the table sizes"
    );
    assert!(
        big_bytes < big.len() as u64 / 4,
        "mapped load must not copy the image: allocated {big_bytes} bytes of a {}-byte container",
        big.len()
    );
    assert!(small_bytes < small.len() as u64 / 4);

    // The heap-image loader pays at least one full-image aligned copy.
    let before = allocated_bytes();
    let heap = Recommender::from_serve_v2_bytes(&big).expect("heap load");
    assert!(
        allocated_bytes() - before >= big.len() as u64,
        "the heap fallback copies the region; the delta above shows the mapped path does not"
    );
    drop(heap);

    // Warm top-K serving straight off the map: zero allocator requests.
    let path = dir.join("dim16.cdr2");
    let mut recommender = Recommender::from_serve_v2_file(&path).expect("mapped engine");
    let mut requests: Vec<Request> = Vec::new();
    for &user in scenario.cold_x_to_y.test_users.iter().take(8) {
        requests.push(Request {
            direction: Direction::X_TO_Y,
            user,
            k: 10,
        });
    }
    for &user in scenario.cold_y_to_x.test_users.iter().take(8) {
        requests.push(Request {
            direction: Direction::Y_TO_X,
            user,
            k: 10,
        });
    }
    let mut out: Vec<Recommendation> = Vec::new();
    for request in &requests {
        recommender.recommend(request, &mut out).expect("warm mapped request");
    }
    let steady = min_allocs_over_windows(|| {
        for request in &requests {
            recommender
                .recommend(request, &mut out)
                .expect("measured mapped request");
        }
    });
    assert_eq!(
        steady, 0,
        "warm requests against a mapped engine must not touch the allocator (got {steady} requests)"
    );

    // Int8 over the container's frozen quant mirrors: same bar.
    recommender.set_precision(ScoringPrecision::Int8);
    for request in &requests {
        recommender
            .recommend(request, &mut out)
            .expect("warm mapped int8 request");
    }
    let steady = min_allocs_over_windows(|| {
        for request in &requests {
            recommender
                .recommend(request, &mut out)
                .expect("measured mapped int8 request");
        }
    });
    assert_eq!(
        steady, 0,
        "warm int8 requests against a mapped engine must not touch the allocator (got {steady} requests)"
    );
    assert!(
        recommender.is_mapped(),
        "read-only serving must never migrate tables off the map"
    );
}

/// The network front-end's warm serving pipeline, sans IO: framed request
/// bytes through [`FrameReader`], decoded into a per-connection queue,
/// drained into one coalesced `recommend_batch_outcomes` call, responses
/// encoded back into a pooled framed write buffer — exactly what the
/// coalescer tick does between two socket calls. After warm-up the whole
/// tick must be allocation-free: every buffer (reassembly, queue, batch,
/// response lists, outcome slots, encode buffer) is pooled per connection.
fn server_pipeline_steady_state() {
    use cdrib_serve::proto::{self, ClientMsg, FrameReader, RecommendReq};
    use std::collections::VecDeque;

    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).expect("preset");
    let config = CdribConfig {
        dim: 16,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).expect("model");
    let mut inference = InferenceModel::from_model(&model);
    let embeddings = inference.embeddings().expect("embeddings");
    let mut recommender = Recommender::from_embeddings(embeddings, &scenario).expect("recommender");
    let epoch = recommender.epoch();

    let mut requests: Vec<Request> = Vec::new();
    for &user in scenario.cold_x_to_y.test_users.iter().take(8) {
        requests.push(Request {
            direction: Direction::X_TO_Y,
            user,
            k: 10,
        });
    }
    for &user in scenario.cold_y_to_x.test_users.iter().take(8) {
        requests.push(Request {
            direction: Direction::Y_TO_X,
            user,
            k: 10,
        });
    }
    assert!(!requests.is_empty());
    // The wire image a connection would deliver: one framed Recommend per
    // request, encoded once up front (the client's cost, not the server's).
    let wire: Vec<u8> = {
        let mut w = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            proto::write_frame(
                &mut w,
                &ClientMsg::Recommend(RecommendReq {
                    req_id: i as u64,
                    direction: r.direction,
                    user: r.user,
                    k: r.k as u32,
                }),
            );
        }
        w
    };

    let mut frames = FrameReader::new();
    let mut queue: VecDeque<(u64, Request)> = VecDeque::with_capacity(requests.len());
    let mut batch: Vec<Request> = Vec::with_capacity(requests.len());
    let mut ids: Vec<u64> = Vec::with_capacity(requests.len());
    let mut responses: Vec<Vec<Recommendation>> = Vec::new();
    let mut outcomes: Vec<cdrib_serve::Result<()>> = Vec::new();
    let mut write_buf: Vec<u8> = Vec::new();
    let expected = requests.len();
    let mut tick = || {
        // Reader half: reassemble frames, decode, enqueue.
        frames.push_bytes(&wire);
        while let Some(body) = frames.next_frame().expect("frame") {
            match proto::decode_client(body).expect("decode") {
                ClientMsg::Recommend(r) => queue.push_back((r.req_id, r.request())),
                other => panic!("unexpected message {other:?}"),
            }
        }
        // Coalescer half: drain the queue into one batch call, encode the
        // framed responses into the pooled per-connection write buffer.
        batch.clear();
        ids.clear();
        while let Some((id, request)) = queue.pop_front() {
            ids.push(id);
            batch.push(request);
        }
        assert_eq!(batch.len(), expected);
        recommender.recommend_batch_outcomes(&batch, &mut responses, &mut outcomes, 1);
        write_buf.clear();
        for (slot, id) in ids.iter().enumerate() {
            assert!(outcomes[slot].is_ok());
            proto::encode_recommendations_into(&mut write_buf, *id, epoch, &responses[slot]);
        }
        assert!(!write_buf.is_empty());
    };
    for _ in 0..2 {
        tick();
    }
    let steady = min_allocs_over_windows(|| {
        for _ in 0..3 {
            tick();
        }
    });
    assert_eq!(
        steady, 0,
        "the warm framed-request -> coalesced-batch -> framed-response pipeline must not touch the allocator (got {steady} requests over 3 ticks)"
    );
}

/// The tile-major batch path on a catalogue of several tiles: everything a
/// batch needs beside the caller's response lists — one bounded heap, one
/// seen cursor and (int8) one quantised user row per request, one score
/// block per worker — lives in the worker scratch and is sized by the largest
/// batch seen, so after the first full batch neither a short batch nor the
/// return to a full one touches the allocator. Both precisions, both
/// directions, mixed `k`.
fn multi_tile_batch_steady_state() {
    use cdrib_eval::EmbeddingScorer;
    use cdrib_graph::BipartiteGraph;

    // 256 KiB tiles of 64-wide f32 rows hold 1 024 rows: three tiles, the
    // last one short.
    let (n_users, n_items, dim) = (48usize, 2100usize, 64usize);
    let mut rng = component_rng(9, "alloc-regression-tiles");
    let mut table = |rows: usize| normal_tensor(&mut rng, rows, dim, 0.5);
    let scorer = EmbeddingScorer::dot(table(n_users), table(n_items), table(n_users), table(n_items));
    // Seen items on both sides of every tile boundary.
    let edges: Vec<(usize, usize)> = (0..n_users)
        .flat_map(|u| [u, 1023, 1024 + u, 2047, 2048, 2099 - u].map(|item| (u, item)))
        .collect();
    let graph = || BipartiteGraph::new(n_users, n_items, &edges).expect("graph");
    let mut recommender = Recommender::new(scorer, graph(), graph()).expect("recommender");
    recommender.install_delisted_items(DomainId::X, &[5, 1024, 2098]);
    recommender.install_delisted_items(DomainId::Y, &[1023, 2048]);

    let full: Vec<Request> = (0..256usize)
        .map(|i| Request {
            direction: [Direction::X_TO_Y, Direction::Y_TO_X][i % 2],
            user: (i * 5 % n_users) as u32,
            k: [10, 1, 50][i % 3],
        })
        .collect();
    // The response lists are the caller's and are resized to the batch, so
    // each batch size keeps its own warm set.
    let (mut full_responses, mut short_responses, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for precision in [ScoringPrecision::F32, ScoringPrecision::Int8] {
        recommender.set_precision(precision);
        // The first full batch is the warm-up (plus the short batch's lists).
        recommender.recommend_batch_outcomes(&full, &mut full_responses, &mut outcomes, 1);
        recommender.recommend_batch_outcomes(&full[..3], &mut short_responses, &mut outcomes, 1);
        let steady = min_allocs_over_windows(|| {
            for size in [256usize, 3, 256] {
                let responses = if size == 3 {
                    &mut short_responses
                } else {
                    &mut full_responses
                };
                recommender.recommend_batch_outcomes(&full[..size], responses, &mut outcomes, 1);
                assert!(outcomes.iter().all(Result::is_ok));
            }
        });
        assert_eq!(
            steady, 0,
            "warm {precision:?} batches of 256 -> 3 -> 256 over a 3-tile catalogue must not touch the allocator (got {steady} requests)"
        );
        assert_eq!(full_responses[0].len(), 10);
    }
}

#[test]
fn warm_training_steps_are_allocation_free() {
    // Pin the kernels to one thread before the first dispatch: scoped-thread
    // spawns allocate, which would be misread as a pooling regression.
    std::env::set_var("CDRIB_NUM_THREADS", "1");
    let mut rng = component_rng(3, "alloc-regression");
    // Small shapes keep every kernel below the threading threshold, so the
    // whole step runs inline on this thread (thread spawns allocate).
    let x = normal_tensor(&mut rng, 32, 16, 1.0);
    let mut targets = Tensor::zeros(32, 1);
    for (i, v) in targets.as_mut_slice().iter_mut().enumerate() {
        *v = (i % 2) as f32;
    }
    let mut params = ParamSet::new();
    let w = params.add("w", normal_tensor(&mut rng, 16, 8, 0.3)).unwrap();
    let b = params.add("b", normal_tensor(&mut rng, 1, 8, 0.3)).unwrap();
    let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-8, 0.001);
    let mut tape = Tape::new();

    let mut losses = [0.0f32; 5];
    let mut run_epoch = |tape: &mut Tape, params: &mut ParamSet, epoch: usize| {
        for _ in 0..4 {
            params.zero_grad();
            tape.reset();
            let xv = tape.constant_copy(&x);
            let wv = tape.param(params, w);
            let bv = tape.param(params, b);
            let h = tape.matmul(xv, wv).unwrap();
            let h = tape.add_row_broadcast(h, bv).unwrap();
            let h = tape.leaky_relu(h, 0.1).unwrap();
            let dots = tape.rowwise_dot(h, h).unwrap();
            let rec = tape.bce_with_logits_copy(dots, &targets).unwrap();
            let reg = tape.sum_squares(wv).unwrap();
            let reg = tape.scale(reg, 0.01).unwrap();
            let loss = tape.add(rec, reg).unwrap();
            losses[epoch] = tape.backward(loss, params).unwrap();
            params.clip_grad_norm(20.0);
            opt.step(params).unwrap();
        }
    };

    // Warm-up: pool fills, optimizer state and scratch tables allocate.
    for epoch in 0..2 {
        run_epoch(&mut tape, &mut params, epoch);
    }
    let misses_after_warmup = tape.pool_stats().misses;
    let steady_state_allocs = min_allocs_over_windows(|| {
        for epoch in 2..5 {
            run_epoch(&mut tape, &mut params, epoch);
        }
    });

    assert_eq!(
        steady_state_allocs, 0,
        "warm training steps must not touch the allocator (got {steady_state_allocs} requests over 3 epochs)"
    );
    assert_eq!(
        tape.pool_stats().misses,
        misses_after_warmup,
        "every warm buffer request must be served from the pool"
    );
    // The loop is actually training, not a no-op.
    assert!(losses[4] < losses[0], "loss should decrease: {losses:?}");
    assert!(params.all_finite());

    // Same property for the full model, the serving stack and the online
    // delta-update path, measured in the same process so the steady-state
    // windows cannot interleave with other test threads.
    full_model_steady_state();
    inference_and_serving_steady_state();
    delta_apply_steady_state();
    removal_replay_steady_state();
    wal_append_steady_state();
    mapped_load_and_serving_steady_state();
    server_pipeline_steady_state();
    multi_tile_batch_steady_state();
}
