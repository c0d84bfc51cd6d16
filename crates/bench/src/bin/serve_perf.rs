//! Serving-path performance benchmark: the full train → freeze → load →
//! recommend pipeline.
//!
//! Trains CDRIB briefly on a synthetic preset, freezes it into a versioned
//! model artifact, reloads the artifact the way a serving process would
//! (`Recommender::from_artifact_file`), verifies the frozen forward matches
//! the tape forward bit for bit and that bounded-heap top-K selection equals
//! full-sort selection, then measures:
//!
//! * single-request latency (p50 / p99) over cold-start users of both
//!   transfer directions;
//! * batched throughput in requests/s and raw candidate scores/s (each
//!   request scores the full opposite-domain catalogue);
//! * steady-state allocator requests per warm request (must be zero; the
//!   `alloc_regression` integration test enforces the same property);
//! * **online delta ingestion**: batches of new cold-start users with fresh
//!   source-domain interactions applied through `Recommender::apply_delta`
//!   (graph apply + incremental re-encode + epoch table swap), gated on
//!   bitwise parity with a full rebuild and on zero steady-state
//!   allocations for replayed (duplicate) batches.
//!
//! * **int8 quantised scoring** (`ScoringPrecision::Int8`): the same
//!   request mix through the VNNI/AVX2/portable integer kernels, gated on
//!   recall@10 >= 0.99 against the f32 lists and 0 steady-state allocs, with
//!   table bytes, ns/candidate and the speedup over f32 recorded;
//! * **thread scaling**: batched throughput swept over explicit worker
//!   counts (`Recommender::recommend_batch_with_workers`), so multi-core
//!   serve is measured whenever a multi-core runner shows up.
//!
//! Every number here is **closed-loop**: the measuring thread calls the
//! engine and waits, so offered load adapts to service rate and queueing
//! delay never appears. The network front-end's **open-loop** numbers —
//! Poisson arrivals at fixed offered rates, p50/p99/p999 from scheduled
//! arrival time, load shedding beyond capacity — come from the `load_gen`
//! binary and land in the `server` section of the same `BENCH_serve.json`
//! (run `load_gen` after this binary; it preserves every section written
//! here and replaces only `server`).
//!
//! Results are written to `BENCH_serve.json` (override with `--out`). Usage:
//!
//! ```text
//! serve_perf [--scale tiny|small] [--epochs N] [--requests N] [--k K] [--threads N] [--quick] [--out PATH]
//! ```

use cdrib_bench::Args;
use cdrib_core::{CdribConfig, CdribModel, InferenceModel};
use cdrib_data::{build_preset, Direction, DomainId, EpochBatches, Scale, ScenarioKind};
use cdrib_eval::EmbeddingScorer;
use cdrib_graph::{BipartiteGraph, GraphDelta};
use cdrib_serve::{Recommendation, Recommender, Request, ScoringPrecision};
use cdrib_tensor::alloc_track::{allocation_count, CountingAlloc};
use cdrib_tensor::rng::{component_rng, normal_tensor};
use cdrib_tensor::{kernels, Adam, Optimizer, QuantizedTable, Tape};
use std::collections::HashSet;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Trains a model for `epochs` (no in-loop validation; the artifact is the
/// deliverable, not the metric).
fn train_briefly(scenario: &cdrib_data::CdrScenario, config: &CdribConfig, epochs: usize) -> CdribModel {
    let mut model = CdribModel::new(config, scenario).expect("model construction");
    let mut opt = Adam::new(config.learning_rate, 0.9, 0.999, 1e-8, config.l2_weight);
    let mut rng = component_rng(config.seed, "serve-perf-train");
    let mut tape = Tape::new();
    let (mut x_epoch, mut y_epoch) = (EpochBatches::new(), EpochBatches::new());
    for _ in 0..epochs {
        model
            .make_batches_into(scenario, &mut rng, &mut x_epoch, &mut y_epoch)
            .expect("batches");
        for (xb, yb) in x_epoch.iter().zip(y_epoch.iter()) {
            model.params_mut().zero_grad();
            tape.reset();
            let (loss, _) = model.loss(&mut tape, xb, yb, &mut rng).expect("loss");
            let value = tape.backward(loss, model.params_mut()).expect("backward");
            assert!(value.is_finite(), "training diverged during the benchmark");
            model.params_mut().clip_grad_norm(20.0);
            opt.step(model.params_mut()).expect("optimizer step");
        }
    }
    model
}

/// The serving request mix: cold-start test users of both directions, each
/// asking for the same K — the workload the paper's protocol implies.
fn request_mix(scenario: &cdrib_data::CdrScenario, k: usize) -> Vec<Request> {
    let mut requests = Vec::new();
    for &user in &scenario.cold_x_to_y.test_users {
        requests.push(Request {
            direction: Direction::X_TO_Y,
            user,
            k,
        });
    }
    for &user in &scenario.cold_y_to_x.test_users {
        requests.push(Request {
            direction: Direction::Y_TO_X,
            user,
            k,
        });
    }
    assert!(!requests.is_empty(), "preset scenarios always hold cold-start users");
    requests
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::from_env();
    // Thread pinning must precede the first kernel dispatch: the worker pool
    // size latches `CDRIB_NUM_THREADS` once per process.
    if let Some(threads) = args.get("threads") {
        std::env::set_var("CDRIB_NUM_THREADS", threads);
    }
    let quick = args.get("quick").is_some();
    let scale = match args.get("scale").unwrap_or("tiny") {
        "small" => Scale::Small,
        "full" => Scale::Full,
        _ => Scale::Tiny,
    };
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Full => "full",
        _ => "tiny",
    };
    let train_epochs: usize = args.get_or("epochs", if quick { 8 } else { 40 });
    let k: usize = args.get_or("k", 10);
    let out_path = args.get("out").unwrap_or("BENCH_serve.json").to_string();
    let seed: u64 = args.get_or("seed", 42);

    let scenario = build_preset(ScenarioKind::GameVideo, scale, seed).expect("preset scenario");
    let config = CdribConfig {
        dim: 32,
        layers: 2,
        batches_per_epoch: 2,
        eval_every: 0,
        patience: 0,
        seed,
        ..CdribConfig::default()
    };
    eprintln!(
        "serve_perf: scenario game_video/{scale_name}, catalogues {} + {} items, dim {}, {} train epochs, isa {}, {} thread(s)",
        scenario.x.n_items,
        scenario.y.n_items,
        config.dim,
        train_epochs,
        kernels::active_isa(),
        kernels::parallelism(),
    );

    // --- Train, freeze, reload: the full artifact hand-off. -----------------
    let model = train_briefly(&scenario, &config, train_epochs);
    let artifact_path = std::env::temp_dir().join(format!("cdrib_serve_perf_{seed}.cdrb"));
    model
        .save_file(&scenario, &artifact_path)
        .expect("write model artifact");
    let artifact_bytes = std::fs::metadata(&artifact_path).expect("artifact metadata").len();

    // The serving process's view: artifact file -> frozen model -> engine.
    let (mut inference, loaded_scenario) =
        InferenceModel::from_artifact_file(&artifact_path).expect("load model artifact");
    // Frozen forward must equal the tape forward bit for bit.
    let tape_embeddings = model.infer_embeddings().expect("tape embeddings");
    let frozen_embeddings = inference.embeddings().expect("frozen embeddings");
    assert_eq!(
        tape_embeddings.x_users, frozen_embeddings.x_users,
        "frozen forward diverged from the tape forward"
    );
    assert_eq!(tape_embeddings.y_items, frozen_embeddings.y_items);
    let mut recommender = Recommender::from_inference(&mut inference, &loaded_scenario).expect("recommender");
    std::fs::remove_file(&artifact_path).ok();

    let requests = request_mix(&loaded_scenario, k);
    // Candidates scored per request = the target-domain catalogue size.
    let candidates_per_request: u64 = requests
        .iter()
        .map(|r| recommender.catalogue_size(r.direction.target) as u64)
        .sum::<u64>()
        / requests.len() as u64;

    // --- Correctness gates before any timing. -------------------------------
    let mut out: Vec<Recommendation> = Vec::new();
    for request in requests.iter().take(32) {
        recommender.recommend(request, &mut out).expect("recommend");
        let reference = recommender.recommend_full_sort(request).expect("full sort");
        assert_eq!(out, reference, "bounded-heap top-K diverged from full sort");
        assert!(out.len() <= request.k);
    }
    eprintln!(
        "parity     : heap top-K identical to full-sort top-K on {} requests",
        32.min(requests.len())
    );

    // --- Warm-up, then steady-state allocation audit. -----------------------
    for request in &requests {
        recommender.recommend(request, &mut out).expect("warm-up");
    }
    let allocs_before = allocation_count();
    let audit_rounds = 50usize;
    for request in requests.iter().cycle().take(audit_rounds) {
        recommender.recommend(request, &mut out).expect("audited request");
    }
    let allocs_per_request = (allocation_count() - allocs_before) as f64 / audit_rounds as f64;

    // --- Single-request latency. -------------------------------------------
    let latency_rounds = if quick { 4usize } else { 20 };
    let mut latencies_us: Vec<f64> = Vec::with_capacity(latency_rounds * requests.len());
    for _ in 0..latency_rounds {
        for request in &requests {
            let started = Instant::now();
            recommender.recommend(request, &mut out).expect("latency request");
            latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    latencies_us.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);

    // --- Batched throughput. ------------------------------------------------
    let mut responses: Vec<Vec<Recommendation>> = Vec::new();
    recommender
        .recommend_batch(&requests, &mut responses)
        .expect("batch warm-up");
    let batch_rounds = if quick { 6usize } else { 30 };
    let started = Instant::now();
    for _ in 0..batch_rounds {
        recommender
            .recommend_batch(&requests, &mut responses)
            .expect("batch round");
    }
    let batch_secs = started.elapsed().as_secs_f64();
    let total_requests = (batch_rounds * requests.len()) as f64;
    let recs_per_sec = total_requests / batch_secs;
    let scores_per_sec = total_requests * candidates_per_request as f64 / batch_secs;

    // --- Thread-scaling sweep over the batch fan-out. -----------------------
    // On a single-core runner this is one entry; on a multi-core box the
    // sweep shows how batched serve scales across `thread::scope` workers.
    let max_workers = kernels::parallelism().max(1);
    let mut threads_sweep: Vec<(usize, f64)> = Vec::new();
    for workers in 1..=max_workers {
        recommender
            .recommend_batch_with_workers(&requests, &mut responses, workers)
            .expect("sweep warm-up");
        let started = Instant::now();
        for _ in 0..batch_rounds {
            recommender
                .recommend_batch_with_workers(&requests, &mut responses, workers)
                .expect("sweep round");
        }
        threads_sweep.push((workers, total_requests / started.elapsed().as_secs_f64()));
    }

    // --- Int8 quantised scoring. --------------------------------------------
    // The same request mix through the integer kernels: retrieval parity vs
    // the f32 lists is the gate, then the f32 measurements are repeated.
    let mut f32_responses: Vec<Vec<Recommendation>> = Vec::new();
    recommender
        .recommend_batch(&requests, &mut f32_responses)
        .expect("f32 reference lists");
    recommender.set_precision(ScoringPrecision::Int8);
    let (mut hits, mut total, mut exact) = (0usize, 0usize, 0usize);
    for (request, f32_list) in requests.iter().zip(f32_responses.iter()) {
        recommender.recommend(request, &mut out).expect("int8 request");
        let want: HashSet<u32> = f32_list.iter().map(|r| r.item).collect();
        hits += out.iter().filter(|r| want.contains(&r.item)).count();
        total += f32_list.len();
        exact += usize::from(f32_list.iter().map(|r| r.item).eq(out.iter().map(|r| r.item)));
    }
    let int8_recall = hits as f64 / total.max(1) as f64;
    let int8_exact_rate = exact as f64 / requests.len() as f64;
    assert!(
        int8_recall >= 0.99,
        "int8 retrieval must keep recall@{k} >= 0.99 vs f32, got {int8_recall:.4}"
    );

    // Steady-state allocation audit on the int8 path.
    for request in &requests {
        recommender.recommend(request, &mut out).expect("int8 warm-up");
    }
    let allocs_before = allocation_count();
    for request in requests.iter().cycle().take(audit_rounds) {
        recommender.recommend(request, &mut out).expect("audited int8 request");
    }
    let int8_allocs_per_request = (allocation_count() - allocs_before) as f64 / audit_rounds as f64;
    assert_eq!(
        int8_allocs_per_request, 0.0,
        "warm int8 requests must not touch the allocator"
    );

    // Int8 latency and batched throughput.
    let mut int8_latencies_us: Vec<f64> = Vec::with_capacity(latency_rounds * requests.len());
    for _ in 0..latency_rounds {
        for request in &requests {
            let started = Instant::now();
            recommender.recommend(request, &mut out).expect("int8 latency request");
            int8_latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    int8_latencies_us.sort_by(f64::total_cmp);
    let int8_p50 = percentile(&int8_latencies_us, 0.50);
    let int8_p99 = percentile(&int8_latencies_us, 0.99);
    recommender
        .recommend_batch(&requests, &mut responses)
        .expect("int8 batch warm-up");
    let started = Instant::now();
    for _ in 0..batch_rounds {
        recommender
            .recommend_batch(&requests, &mut responses)
            .expect("int8 batch round");
    }
    let int8_batch_secs = started.elapsed().as_secs_f64();
    let int8_recs_per_sec = total_requests / int8_batch_secs;
    let int8_scores_per_sec = total_requests * candidates_per_request as f64 / int8_batch_secs;
    let int8_speedup = int8_scores_per_sec / scores_per_sec;

    // Table footprint: the f32 item tables the int8 mirrors replace.
    let f32_table_bytes = (recommender.scorer().x_items.as_slice().len()
        + recommender.scorer().y_items.as_slice().len())
        * std::mem::size_of::<f32>();
    let int8_table_bytes = recommender.quantized_items(DomainId::X).expect("quant x").table_bytes()
        + recommender.quantized_items(DomainId::Y).expect("quant y").table_bytes();
    let table_compression = f32_table_bytes as f64 / int8_table_bytes as f64;
    recommender.set_precision(ScoringPrecision::F32);

    // --- Catalogue-scale int8 stress. ---------------------------------------
    // The CI presets shrink catalogues to a few hundred items, which keeps
    // both precisions cache-resident and hides the memory-traffic cost int8
    // removes. Real cross-domain catalogues hold tens of thousands of items,
    // so the quantisation speedup is measured against a serving engine over
    // a catalogue of that shape (random tables — throughput does not depend
    // on the values, and retrieval parity is gated on the trained preset
    // above and in `tests/quant_parity.rs`). The gated figure is requests
    // answered one at a time: each streams a whole table, which is the
    // traffic int8 cuts to a quarter. A batch shares one pass over the table
    // among its requests (the tile-major scan), so batched f32 scoring is no
    // longer memory-bound and the batched ratio — printed, not gated — sits
    // near 1.
    let stress_items = 65_536usize;
    let stress_users = 64usize;
    let mut stress_rng = component_rng(seed, "serve-perf-stress");
    let mk = |rng: &mut _, rows: usize| normal_tensor(rng, rows, config.dim, 0.5);
    let stress_scorer = EmbeddingScorer::dot(
        mk(&mut stress_rng, stress_users),
        mk(&mut stress_rng, stress_items),
        mk(&mut stress_rng, stress_users),
        mk(&mut stress_rng, stress_items),
    );
    let empty = BipartiteGraph::new(stress_users, stress_items, &[]).expect("stress graph");
    let mut stress = Recommender::new(stress_scorer, empty.clone(), empty).expect("stress engine");
    let stress_requests: Vec<Request> = (0..stress_users as u32)
        .flat_map(|user| [Direction::X_TO_Y, Direction::Y_TO_X].map(|direction| Request { direction, user, k }))
        .collect();
    let stress_rounds = if quick { 2usize } else { 12 };
    let stress_candidates = (stress_requests.len() * stress_items) as f64;
    let mut stress_sps = [0.0f64; 2]; // [f32, int8], one request at a time
    let mut stress_batch_sps = [0.0f64; 2];
    for (slot, precision) in [(0usize, ScoringPrecision::F32), (1, ScoringPrecision::Int8)] {
        stress.set_precision(precision);
        stress
            .recommend_batch(&stress_requests, &mut responses)
            .expect("stress warm-up");
        let started = Instant::now();
        for _ in 0..stress_rounds {
            for request in &stress_requests {
                stress.recommend(request, &mut out).expect("stress request");
            }
        }
        stress_sps[slot] = stress_rounds as f64 * stress_candidates / started.elapsed().as_secs_f64();
        let started = Instant::now();
        for _ in 0..stress_rounds {
            stress
                .recommend_batch(&stress_requests, &mut responses)
                .expect("stress round");
        }
        stress_batch_sps[slot] = stress_rounds as f64 * stress_candidates / started.elapsed().as_secs_f64();
    }
    let stress_speedup = stress_sps[1] / stress_sps[0];
    eprintln!(
        "int8 stress: {stress_items}-item catalogue, dim {}: f32 {:.0}M scores/s, int8 {:.0}M scores/s ({stress_speedup:.2}x); in batches of {}: f32 {:.0}M, int8 {:.0}M",
        config.dim,
        stress_sps[0] / 1e6,
        stress_sps[1] / 1e6,
        stress_requests.len(),
        stress_batch_sps[0] / 1e6,
        stress_batch_sps[1] / 1e6,
    );
    assert!(
        stress_speedup >= 1.5,
        "int8 must beat f32 scoring on a catalogue-scale table, got {stress_speedup:.2}x"
    );
    drop(stress);

    // --- Online delta ingestion. --------------------------------------------
    // Fresh cold-start users arrive in batches with new source-domain (X)
    // interactions; each batch flows through `apply_delta` — graph apply,
    // dirty-set propagation, incremental re-encode, epoch table swap.
    use rand::Rng;
    let mut online = Recommender::from_inference_online(InferenceModel::from_model(&model), &loaded_scenario)
        .expect("online engine");
    // The online engine serves int8 so the measured ingest path includes the
    // per-delta re-quantisation of dirty rows inside the epoch swap.
    online.set_precision(ScoringPrecision::Int8);
    let mut delta_rng = component_rng(seed, "serve-perf-delta");
    let (users_per_batch, edges_per_user) = (8usize, 4usize);
    let mut make_growth_delta = |rec: &Recommender| {
        let base_user = rec.seen_graph(DomainId::X).n_users() as u32;
        let n_items = rec.seen_graph(DomainId::X).n_items();
        let mut edges = Vec::with_capacity(users_per_batch * edges_per_user);
        for u in 0..users_per_batch as u32 {
            for _ in 0..edges_per_user {
                edges.push((base_user + u, delta_rng.gen_range(0..n_items) as u32));
            }
        }
        GraphDelta {
            add_users: users_per_batch,
            add_items: 0,
            edges,
            ..GraphDelta::empty()
        }
    };
    // Warm-up batch sizes pools, stamps and the served tables.
    online
        .apply_delta(DomainId::X, &make_growth_delta(&online))
        .expect("warm delta");
    let delta_rounds = if quick { 8usize } else { 40 };
    let mut rows_reencoded: u64 = 0;
    let mut delta_edges_added: u64 = 0;
    let started = Instant::now();
    for _ in 0..delta_rounds {
        let delta = make_growth_delta(&online);
        let outcome = online.apply_delta(DomainId::X, &delta).expect("growth delta");
        rows_reencoded += (outcome.users_reencoded + outcome.items_reencoded) as u64;
        delta_edges_added += outcome.edges_added as u64;
    }
    let delta_secs = started.elapsed().as_secs_f64();
    let delta_batches_per_sec = delta_rounds as f64 / delta_secs;
    let delta_rows_mean = rows_reencoded as f64 / delta_rounds as f64;

    // Quant-mirror coherence: after every ingest the served int8 tables must
    // equal a from-scratch quantisation of the served f32 tables.
    for domain in [DomainId::X, DomainId::Y] {
        let table = match domain {
            DomainId::X => &online.scorer().x_items,
            DomainId::Y => &online.scorer().y_items,
        };
        assert_eq!(
            online.quantized_items(domain).expect("online quant table"),
            &QuantizedTable::from_tensor(table),
            "post-delta quant mirror diverged from re-quantisation ({domain:?})"
        );
    }

    // Correctness gate: the incrementally updated engine must be bitwise
    // identical to a full re-freeze on the post-delta graph, and the newest
    // cold user's top-K must match the rebuilt engine's full-sort reference.
    let gx = online.seen_graph(DomainId::X).clone();
    let gy = online.seen_graph(DomainId::Y).clone();
    let mut rebuilt = InferenceModel::from_model(&model);
    rebuilt
        .extend_entities(DomainId::X, gx.n_users(), gx.n_items())
        .expect("extend");
    rebuilt.rebind_graph(DomainId::X, &gx).expect("rebind");
    let rebuilt_embeddings = rebuilt.embeddings().expect("rebuilt forward");
    assert_eq!(
        online.scorer().x_users,
        rebuilt_embeddings.x_users,
        "incremental user table diverged from the full rebuild"
    );
    assert_eq!(
        online.scorer().x_items,
        rebuilt_embeddings.x_items,
        "incremental item table diverged from the full rebuild"
    );
    let mut rebuilt_rec = Recommender::new(rebuilt_embeddings.into_scorer(), gx.clone(), gy).expect("rebuilt engine");
    rebuilt_rec.set_shared_user_prefix(online.shared_user_prefix());
    let newest = Request {
        direction: Direction::X_TO_Y,
        user: gx.n_users() as u32 - 1,
        k,
    };
    // `recommend_full_sort` is the f32 reference baseline, so the bitwise
    // comparison runs with f32 scoring; int8 comes back on for the replay
    // audit below.
    online.set_precision(ScoringPrecision::F32);
    online.recommend(&newest, &mut out).expect("newest user");
    assert_eq!(
        out,
        rebuilt_rec.recommend_full_sort(&newest).expect("rebuilt full sort"),
        "incremental top-K diverged from the rebuilt engine"
    );
    online.set_precision(ScoringPrecision::Int8);

    // Steady-state allocation audit: replayed (duplicate) batches drive the
    // whole ingest path without growing any structure — must be 0 allocs.
    let replay = GraphDelta {
        add_users: 0,
        add_items: 0,
        edges: online.seen_graph(DomainId::X).edges()[..users_per_batch * edges_per_user / 2].to_vec(),
        ..GraphDelta::empty()
    };
    for _ in 0..2 {
        online.apply_delta(DomainId::X, &replay).expect("warm replay");
    }
    let allocs_before = allocation_count();
    let replay_rounds = 20usize;
    for _ in 0..replay_rounds {
        online.apply_delta(DomainId::X, &replay).expect("audited replay");
    }
    let delta_allocs_per_batch = (allocation_count() - allocs_before) as f64 / replay_rounds as f64;

    // --- Retraction pricing: removal batches next to growth batches. --------
    // Each batch GDPR-erases one growth batch's worth of cold users (each
    // carrying ~edges_per_user edges), driving the full shrink path: graph
    // retraction, dirty-set propagation over the shrunken neighbourhoods,
    // zero-row erasure, and re-quantisation of the dirty item rows behind
    // the epoch swap.
    let total_cold = ((delta_rounds + 1) * users_per_batch) as u32;
    let cold_base = online.seen_graph(DomainId::X).n_users() as u32 - total_cold;
    let removal_rounds = delta_rounds;
    let mut removal_edges_retracted: u64 = 0;
    let started = Instant::now();
    for r in 0..removal_rounds as u32 {
        let erase = GraphDelta {
            erase_users: (0..users_per_batch as u32)
                .map(|u| cold_base + r * users_per_batch as u32 + u)
                .collect(),
            ..GraphDelta::empty()
        };
        let outcome = online.apply_delta(DomainId::X, &erase).expect("removal batch");
        removal_edges_retracted += outcome.edges_removed as u64;
    }
    let removal_batches_per_sec = removal_rounds as f64 / started.elapsed().as_secs_f64();
    assert_eq!(
        online.erased_users(DomainId::X).len(),
        removal_rounds * users_per_batch,
        "every erased user must be tombstoned exactly once"
    );

    eprintln!(
        "latency    : p50 {p50:.1} us, p99 {p99:.1} us over {} single requests ({candidates_per_request} candidates each, k={k})",
        latencies_us.len()
    );
    eprintln!(
        "deltas     : {delta_batches_per_sec:.0} batches/s ({users_per_batch} new users x {edges_per_user} edges, {:.1} rows re-encoded/batch, {} edges total); replay steady state {delta_allocs_per_batch:.2} allocs/batch",
        delta_rows_mean,
        delta_edges_added,
    );
    eprintln!(
        "retraction : {removal_batches_per_sec:.0} batches/s ({users_per_batch} erased users/batch, {removal_edges_retracted} edges retracted total)"
    );
    assert_eq!(
        delta_allocs_per_batch, 0.0,
        "steady-state (duplicate) delta batches must not touch the allocator"
    );

    // --- WAL-backed durable ingestion. --------------------------------------
    // The same growth-batch workload through a recovered (durable) engine:
    // every accepted batch is framed, checksummed and appended to the
    // write-ahead log *before* its epoch swap commits. A fresh memory-only
    // engine runs the identical workload shape to price the append, and the
    // run is gated on `Recommender::recover` reproducing the live state
    // bitwise from the base artifact + log alone.
    let wal_dir = std::env::temp_dir().join(format!("cdrib_serve_perf_wal_{seed}"));
    std::fs::create_dir_all(&wal_dir).expect("wal scratch dir");
    let wal_base = wal_dir.join("base.cdrb");
    let wal_log = wal_dir.join("deltas.wal");
    std::fs::remove_file(&wal_log).ok();
    std::fs::write(&wal_base, model.save_bytes(&loaded_scenario)).expect("write wal base artifact");
    let (mut durable, recovery) = Recommender::recover(&wal_base, &wal_log).expect("open durable engine");
    assert!(recovery.clean() && recovery.created_log, "first boot must be clean");
    let mut plain = Recommender::from_inference_online(InferenceModel::from_model(&model), &loaded_scenario)
        .expect("unlogged engine");
    durable
        .apply_delta(DomainId::X, &make_growth_delta(&durable))
        .expect("warm durable delta");
    plain
        .apply_delta(DomainId::X, &make_growth_delta(&plain))
        .expect("warm unlogged delta");
    let wal_rounds = if quick { 8usize } else { 40 };
    let mut wal_bps = [0.0f64; 2]; // [durable, unlogged]
    for (slot, engine) in [(0usize, &mut durable), (1, &mut plain)] {
        let started = Instant::now();
        for _ in 0..wal_rounds {
            let delta = make_growth_delta(engine);
            engine.apply_delta(DomainId::X, &delta).expect("measured delta");
        }
        wal_bps[slot] = wal_rounds as f64 / started.elapsed().as_secs_f64();
    }
    let wal_overhead_pct = (wal_bps[1] / wal_bps[0] - 1.0) * 100.0;
    durable.wal_sync().expect("wal sync");
    let wal_records = durable.wal_applied_seq().expect("durable engine has a log");
    let wal_log_bytes = std::fs::metadata(&wal_log).expect("log metadata").len();
    let wal_bytes_per_record = wal_log_bytes as f64 / wal_records as f64;

    // Recovery gate: base + log alone must reproduce the live engine —
    // bitwise on all four tables, exactly-equal top-K for the newest user.
    let (mut recovered, recovery) = Recommender::recover(&wal_base, &wal_log).expect("recover durable engine");
    assert!(
        recovery.clean(),
        "recovery of an intact log must be clean: {recovery:?}"
    );
    assert_eq!(recovery.replayed as u64, wal_records);
    assert_eq!(
        recovered.scorer().x_users,
        durable.scorer().x_users,
        "recovered user table diverged from the live engine"
    );
    assert_eq!(recovered.scorer().x_items, durable.scorer().x_items);
    assert_eq!(recovered.scorer().y_users, durable.scorer().y_users);
    assert_eq!(recovered.scorer().y_items, durable.scorer().y_items);
    let newest_durable = Request {
        direction: Direction::X_TO_Y,
        user: durable.seen_graph(DomainId::X).n_users() as u32 - 1,
        k,
    };
    let mut recovered_out: Vec<Recommendation> = Vec::new();
    durable.recommend(&newest_durable, &mut out).expect("live newest user");
    recovered
        .recommend(&newest_durable, &mut recovered_out)
        .expect("recovered newest user");
    assert_eq!(out, recovered_out, "recovered top-K diverged from the live engine");
    drop(recovered);
    std::fs::remove_dir_all(&wal_dir).ok();
    eprintln!(
        "wal        : {:.0} durable batches/s vs {:.0} unlogged ({wal_overhead_pct:.1}% append overhead), {wal_bytes_per_record:.0} B/record, {wal_records} records; recovery == live (bitwise)",
        wal_bps[0],
        wal_bps[1],
    );
    // --- Cold-start load cost: v1 decode vs v2 map vs v2 heap fallback. -----
    // The zero-copy story in one number: how long until a fresh process can
    // serve its first request from a frozen artifact. The v1 path decodes a
    // serde payload into heap tables; the v2 path validates checksums and
    // maps; `CDRIB_NO_MMAP=1` prices the aligned-heap fallback of the same
    // container. Best-of-N so page-cache noise doesn't dominate.
    let cold_dir = std::env::temp_dir().join(format!("cdrib_serve_perf_cold_{seed}"));
    std::fs::create_dir_all(&cold_dir).expect("cold-start scratch dir");
    let v1_path = cold_dir.join("model.cdrb");
    let v2_path = cold_dir.join("serve.cdr2");
    model.save_file(&loaded_scenario, &v1_path).expect("write v1 artifact");
    cdrib_core::save_serve_v2_file(&model, &loaded_scenario, true, true, &v2_path).expect("write v2 artifact");
    let v2_artifact_bytes = std::fs::metadata(&v2_path).expect("v2 metadata").len();
    let cold_rounds = if quick { 3usize } else { 10 };
    let best_ms = |load: &mut dyn FnMut() -> Recommender| {
        let mut best = f64::INFINITY;
        for _ in 0..cold_rounds {
            let started = Instant::now();
            let engine = load();
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
            drop(engine);
        }
        best
    };
    let cold_v1_decode_ms = best_ms(&mut || Recommender::from_artifact_file(&v1_path).expect("v1 cold load"));
    let cold_v2_map_ms = best_ms(&mut || Recommender::from_serve_v2_file(&v2_path).expect("v2 cold load"));
    std::env::set_var("CDRIB_NO_MMAP", "1");
    let cold_v2_heap_ms = best_ms(&mut || Recommender::from_serve_v2_file(&v2_path).expect("v2 heap cold load"));
    std::env::remove_var("CDRIB_NO_MMAP");
    // Parity gate: the mapped engine serves the decoded tables bitwise
    // (`tests/mmap_parity.rs` holds the full contract; this keeps the
    // benchmark honest about measuring the same model).
    let v1_engine = Recommender::from_artifact_file(&v1_path).expect("v1 reference");
    let v2_engine = Recommender::from_serve_v2_file(&v2_path).expect("v2 reference");
    assert!(v2_engine.is_mapped(), "cold-start v2 load must serve borrowed tables");
    assert_eq!(
        v1_engine.scorer().x_users,
        v2_engine.scorer().x_users,
        "v2 tables must match the v1 decode bitwise"
    );
    assert_eq!(v1_engine.scorer().y_items, v2_engine.scorer().y_items);
    drop((v1_engine, v2_engine));
    std::fs::remove_dir_all(&cold_dir).ok();
    let cold_map_speedup = cold_v1_decode_ms / cold_v2_map_ms;
    eprintln!(
        "cold start : v1 decode {cold_v1_decode_ms:.2} ms -> v2 map {cold_v2_map_ms:.2} ms ({cold_map_speedup:.1}x), heap fallback {cold_v2_heap_ms:.2} ms; artifacts {artifact_bytes} B v1 vs {v2_artifact_bytes} B v2"
    );

    eprintln!(
        "throughput : {recs_per_sec:.0} recommendations/s, {:.2}M candidate scores/s ({} requests/batch, {} threads)",
        scores_per_sec / 1e6,
        requests.len(),
        kernels::parallelism()
    );
    for (workers, rps) in &threads_sweep {
        eprintln!("  sweep    : {workers} worker(s) -> {rps:.0} recommendations/s");
    }
    eprintln!(
        "int8       : p50 {int8_p50:.1} us, {:.2}M candidate scores/s ({int8_speedup:.2}x f32), recall@{k} {int8_recall:.4}, exact-list rate {int8_exact_rate:.2}, tables {int8_table_bytes} B vs {f32_table_bytes} B f32 ({table_compression:.2}x smaller)",
        int8_scores_per_sec / 1e6,
    );
    eprintln!("allocations: {allocs_per_request:.2} steady-state allocs/request (must be 0)");
    assert_eq!(
        allocs_per_request, 0.0,
        "warm serving requests must not touch the allocator"
    );
    assert!(
        scores_per_sec >= 1e6,
        "serving must sustain at least 1M candidate scores/s, got {scores_per_sec:.0}"
    );

    let sweep_json = threads_sweep
        .iter()
        .map(|(workers, rps)| format!("{{\"workers\": {workers}, \"recommendations_per_sec\": {rps:.1}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve_perf\",\n",
            "  \"methodology\": \"closed_loop\",\n",
            "  \"scenario\": \"game_video\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"dim\": {dim},\n",
            "  \"train_epochs\": {train_epochs},\n",
            "  \"artifact_bytes\": {artifact_bytes},\n",
            "  \"catalogue_items_x\": {items_x},\n",
            "  \"catalogue_items_y\": {items_y},\n",
            "  \"k\": {k},\n",
            "  \"isa\": \"{isa}\",\n",
            "  \"threads\": {threads},\n",
            "  \"requests_per_batch\": {batch_requests},\n",
            "  \"candidates_per_request\": {candidates},\n",
            "  \"latency_us_p50\": {p50:.2},\n",
            "  \"latency_us_p99\": {p99:.2},\n",
            "  \"recommendations_per_sec\": {rps:.1},\n",
            "  \"candidate_scores_per_sec\": {sps:.0},\n",
            "  \"steady_state_allocs_per_request\": {allocs:.2},\n",
            "  \"heap_matches_full_sort\": true,\n",
            "  \"frozen_matches_tape_forward\": true,\n",
            "  \"threads_sweep\": [{sweep}],\n",
            "  \"int8\": {{\n",
            "    \"latency_us_p50\": {int8_p50:.2},\n",
            "    \"latency_us_p99\": {int8_p99:.2},\n",
            "    \"recommendations_per_sec\": {int8_rps:.1},\n",
            "    \"candidate_scores_per_sec\": {int8_sps:.0},\n",
            "    \"speedup_vs_f32\": {int8_speedup:.3},\n",
            "    \"ns_per_candidate_f32\": {ns_f32:.3},\n",
            "    \"ns_per_candidate_int8\": {ns_int8:.3},\n",
            "    \"table_bytes_f32\": {f32_table_bytes},\n",
            "    \"table_bytes_int8\": {int8_table_bytes},\n",
            "    \"table_compression\": {table_compression:.3},\n",
            "    \"recall_at_10_vs_f32\": {int8_recall:.4},\n",
            "    \"exact_list_rate_vs_f32\": {int8_exact_rate:.4},\n",
            "    \"steady_state_allocs_per_request\": {int8_allocs:.2},\n",
            "    \"delta_quant_matches_requantise\": true,\n",
            "    \"catalogue_scale\": {{\n",
            "      \"items\": {stress_items},\n",
            "      \"f32_scores_per_sec\": {stress_f32:.0},\n",
            "      \"int8_scores_per_sec\": {stress_int8:.0},\n",
            "      \"speedup_vs_f32\": {stress_speedup:.3}\n",
            "    }}\n",
            "  }},\n",
            "  \"delta_users_per_batch\": {delta_users},\n",
            "  \"delta_edges_per_user\": {delta_edges_per_user},\n",
            "  \"delta_batches_per_sec\": {delta_bps:.1},\n",
            "  \"delta_rows_reencoded_mean\": {delta_rows:.1},\n",
            "  \"delta_steady_state_allocs_per_batch\": {delta_allocs:.2},\n",
            "  \"delta_incremental_matches_rebuild\": true,\n",
            "  \"removal_users_per_batch\": {delta_users},\n",
            "  \"removal_batches_per_sec\": {removal_bps:.1},\n",
            "  \"removal_edges_retracted\": {removal_edges},\n",
            "  \"cold_start\": {{\n",
            "    \"v1_artifact_bytes\": {artifact_bytes},\n",
            "    \"v2_artifact_bytes\": {v2_artifact_bytes},\n",
            "    \"v1_decode_ms\": {cold_v1_decode_ms:.3},\n",
            "    \"v2_map_ms\": {cold_v2_map_ms:.3},\n",
            "    \"v2_heap_fallback_ms\": {cold_v2_heap_ms:.3},\n",
            "    \"map_speedup_vs_decode\": {cold_map_speedup:.3},\n",
            "    \"v2_matches_v1_bitwise\": true\n",
            "  }},\n",
            "  \"wal\": {{\n",
            "    \"durable_batches_per_sec\": {wal_durable_bps:.1},\n",
            "    \"unlogged_batches_per_sec\": {wal_unlogged_bps:.1},\n",
            "    \"append_overhead_pct\": {wal_overhead_pct:.2},\n",
            "    \"log_bytes_per_record\": {wal_bytes_per_record:.1},\n",
            "    \"records_appended\": {wal_records},\n",
            "    \"recovery_matches_live\": true\n",
            "  }}\n",
            "}}\n"
        ),
        scale = scale_name,
        dim = config.dim,
        train_epochs = train_epochs,
        artifact_bytes = artifact_bytes,
        items_x = loaded_scenario.x.n_items,
        items_y = loaded_scenario.y.n_items,
        k = k,
        isa = kernels::active_isa(),
        threads = kernels::parallelism(),
        batch_requests = requests.len(),
        candidates = candidates_per_request,
        p50 = p50,
        p99 = p99,
        rps = recs_per_sec,
        sps = scores_per_sec,
        allocs = allocs_per_request,
        sweep = sweep_json,
        int8_p50 = int8_p50,
        int8_p99 = int8_p99,
        int8_rps = int8_recs_per_sec,
        int8_sps = int8_scores_per_sec,
        int8_speedup = int8_speedup,
        ns_f32 = 1e9 / scores_per_sec,
        ns_int8 = 1e9 / int8_scores_per_sec,
        f32_table_bytes = f32_table_bytes,
        int8_table_bytes = int8_table_bytes,
        table_compression = table_compression,
        int8_recall = int8_recall,
        int8_exact_rate = int8_exact_rate,
        int8_allocs = int8_allocs_per_request,
        stress_items = stress_items,
        stress_f32 = stress_sps[0],
        stress_int8 = stress_sps[1],
        stress_speedup = stress_speedup,
        delta_users = users_per_batch,
        delta_edges_per_user = edges_per_user,
        delta_bps = delta_batches_per_sec,
        delta_rows = delta_rows_mean,
        delta_allocs = delta_allocs_per_batch,
        removal_bps = removal_batches_per_sec,
        removal_edges = removal_edges_retracted,
        v2_artifact_bytes = v2_artifact_bytes,
        cold_v1_decode_ms = cold_v1_decode_ms,
        cold_v2_map_ms = cold_v2_map_ms,
        cold_v2_heap_ms = cold_v2_heap_ms,
        cold_map_speedup = cold_map_speedup,
        wal_durable_bps = wal_bps[0],
        wal_unlogged_bps = wal_bps[1],
        wal_overhead_pct = wal_overhead_pct,
        wal_bytes_per_record = wal_bytes_per_record,
        wal_records = wal_records,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    eprintln!("wrote {out_path}");
}
