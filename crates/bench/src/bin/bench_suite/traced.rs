//! The traced pass: per-layer numbers, never mixed with the end-to-end pass.
//!
//! Every layer is measured from outside. Training is replaced by the
//! equivalent public-API loop with a span around each call; a request is
//! replayed as a *staged* request on this thread (encode, decode, recommend,
//! encode reply, decode reply, with the scoring kernel timed on the same
//! rows); a delta is walked through bounds check, log append, graph apply and
//! re-encode on twins of the served engine. The socket phases run again,
//! shortened, with `Server::stats` read around them.

use crate::endtoend::{self, eval_config, Job, Report};
use crate::inputs::{self, DeltaStream};
use crate::loadgen::recommend_msg;
use crate::stack::{self, entity_counts, fail, Ctx, EngineSource, Failure, Stack};
use crate::stats::{median, median_of};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use cdrib_core::{save_model_file, train_model, CdribModel, InferenceModel};
use cdrib_data::{CdrScenario, Direction, DomainId, EpochBatches};
use cdrib_eval::{evaluate_both_directions, ColdStartScorer, EmbeddingScorer, EvalConfig, EvalSplit};
use cdrib_graph::DeltaEffect;
use cdrib_serve::proto::{self, ServerMsg};
use cdrib_serve::{DeltaWal, Recommendation, Recommender, ScoringPrecision};
use cdrib_tensor::alloc_track::allocation_count;
use cdrib_tensor::kernels::{self, QuantUser};
use cdrib_tensor::quant::quantize_user_into;
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{Adam, Optimizer, Tape};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests per staged batch: one span covers a batch, so the clock reads
/// are a negligible share of even the 50 ns stages.
const STAGE_BATCH: usize = 64;
/// Requests handed to `recommend_batch` at once — the coalescer's cap.
const ENGINE_BATCH: usize = 256;
/// Share of `--seconds` the shortened socket phases and the staged replay
/// are sized from.
const TRACED_SHARE: f64 = 0.4;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The training loop `train_model` runs, rebuilt from public calls with a
/// span around each, validation included. Returns wall seconds per epoch.
fn traced_training(
    w: &Workload,
    scenario: &CdrScenario,
    seed: u64,
    epochs: usize,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(CdribModel, f64), Failure> {
    let config = stack::training_config(w, seed, epochs);
    let val_config = EvalConfig {
        n_negatives: cdrib_core::validation_negatives(scenario),
        seed: config.seed ^ 0x5eed,
        max_cases: config.max_val_cases,
    };
    let start = Instant::now();
    let mut model = CdribModel::new(&config, scenario).map_err(fail("model init"))?;
    let mut opt = Adam::new(config.learning_rate, 0.9, 0.999, 1e-8, config.l2_weight);
    let mut rng = component_rng(config.seed, "cdrib-train");
    let mut tape = Tape::new();
    let (mut x_epoch, mut y_epoch) = (EpochBatches::new(), EpochBatches::new());
    tracer
        .span("core.infer", "core", 0, || model.infer_embeddings())
        .map_err(fail("infer_embeddings"))?;
    let mut warm_epoch_allocs = Vec::new();
    for epoch in 0..epochs {
        let op = epoch as u64;
        let allocs_before = allocation_count();
        let e = tracer.begin("train.epoch", "core", op);
        tracer
            .span("data.batch", "data", op, || {
                model.make_batches_into(scenario, &mut rng, &mut x_epoch, &mut y_epoch)
            })
            .map_err(fail("make_batches_into"))?;
        for (xb, yb) in x_epoch.iter().zip(y_epoch.iter()) {
            model.params_mut().zero_grad();
            tape.reset();
            let (loss, _) = tracer
                .span("core.forward", "core", op, || model.loss(&mut tape, xb, yb, &mut rng))
                .map_err(fail("loss"))?;
            let value = tracer
                .span("tensor.backward", "tensor", op, || {
                    tape.backward(loss, model.params_mut())
                })
                .map_err(fail("backward"))?;
            if !value.is_finite() {
                return Err(format!("traced training diverged in epoch {epoch}"));
            }
            tracer
                .span("tensor.optim", "tensor", op, || {
                    model.params_mut().clip_grad_norm(20.0);
                    opt.step(model.params_mut())
                })
                .map_err(fail("optimizer step"))?;
        }
        if !model.params().all_finite() {
            return Err(format!("traced training diverged in epoch {epoch}"));
        }
        if epoch >= workloads::WARMUP_EPOCHS {
            warm_epoch_allocs.push((allocation_count() - allocs_before) as f64);
        }
        if (epoch + 1) % config.eval_every == 0 || epoch + 1 == epochs {
            let v = tracer.begin("eval.validation", "eval", op);
            let embeddings = tracer
                .span("core.infer", "core", op, || model.infer_embeddings())
                .map_err(fail("infer_embeddings"))?;
            evaluate_both_directions(&embeddings.scorer(), scenario, EvalSplit::Validation, &val_config)
                .map_err(fail("validation"))?;
            tracer.end(v);
        }
        tracer.end(e);
    }
    let per_epoch_s = start.elapsed().as_secs_f64() / epochs as f64;
    rep.metric("tensor.allocs_per_epoch", median(&mut warm_epoch_allocs));
    Ok((model, per_epoch_s))
}

/// Times the scorer the evaluation protocol calls into, from inside the
/// protocol: what is left of an evaluation is the protocol's own sampling
/// and ranking.
struct TimedScorer<'a> {
    inner: &'a EmbeddingScorer,
    ns: AtomicU64,
}

impl ColdStartScorer for TimedScorer<'_> {
    fn score_into(&self, direction: Direction, user: u32, items: &[u32], out: &mut [f32]) {
        let start = Instant::now();
        self.inner.score_into(direction, user, items, out);
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

fn traced_eval(
    scorer: &EmbeddingScorer,
    scenario: &CdrScenario,
    seed: u64,
    evals: usize,
    tracer: &mut Tracer,
) -> Result<(), Failure> {
    let timed = TimedScorer {
        inner: scorer,
        ns: AtomicU64::new(0),
    };
    for i in 0..evals {
        timed.ns.store(0, Ordering::Relaxed);
        let e = tracer.begin("eval.evaluate", "eval", i as u64);
        evaluate_both_directions(&timed, scenario, EvalSplit::Test, &eval_config(scenario, seed, i))
            .map_err(fail("traced evaluation"))?;
        tracer.end(e);
        tracer.child_total(e, "eval.score", "eval", timed.ns.load(Ordering::Relaxed));
    }
    Ok(())
}

/// Replays the request mix as staged requests against `engine` at both
/// precisions, one span per stage per batch.
fn staged_requests(
    engine: &mut Recommender,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(), Failure> {
    let (n_users, n_items) = entity_counts(engine);
    let mix = inputs::request_mix(n_users, workloads::MIX_REQUESTS, seed, "staged");
    let catalogues: [Vec<u32>; 2] = [(0..n_items[0] as u32).collect(), (0..n_items[1] as u32).collect()];
    let mut scores = vec![0.0f32; n_items[0].max(n_items[1])];
    let mut user_q = vec![0u8; engine.scorer().x_users.cols()];
    let mut answers: Vec<Vec<Recommendation>> = vec![Vec::new(); STAGE_BATCH];
    let (mut req_buf, mut reply_buf) = (Vec::new(), Vec::new());
    let mut request_allocs = Vec::new();
    let deadline = Instant::now() + budget;
    let mut batch = 0usize;
    // At least three batches per precision, then until the budget is spent.
    while batch < 3 || Instant::now() < deadline {
        let op = batch as u64;
        let requests = &mix[(batch * STAGE_BATCH) % mix.len()..][..STAGE_BATCH];
        let b = tracer.begin("staged.batch", "bench", op);

        req_buf.clear();
        tracer.span("proto.encode_req", "serve.proto", op, || {
            for (i, request) in requests.iter().enumerate() {
                proto::write_frame(&mut req_buf, &recommend_msg(i as u64, request));
            }
        });
        tracer
            .span(
                "proto.decode_req",
                "serve.proto",
                op,
                || -> Result<(), proto::ProtoError> {
                    let mut rest = &req_buf[..];
                    while let Some((used, body)) = proto::split_frame(rest)? {
                        std::hint::black_box(proto::decode_client(body)?);
                        rest = &rest[used..];
                    }
                    Ok(())
                },
            )
            .map_err(fail("decode request"))?;

        engine.set_precision(ScoringPrecision::F32);
        let allocs_before = allocation_count();
        tracer
            .span("recommender.recommend", "serve.recommender", op, || {
                requests
                    .iter()
                    .zip(answers.iter_mut())
                    .try_for_each(|(r, out)| engine.recommend(r, out))
            })
            .map_err(fail("recommend"))?;
        if batch > 0 {
            request_allocs.push((allocation_count() - allocs_before) as f64 / STAGE_BATCH as f64);
        }

        reply_buf.clear();
        tracer.span("proto.encode_reply", "serve.proto", op, || {
            for (i, recs) in answers.iter().enumerate() {
                proto::encode_recommendations_into(&mut reply_buf, i as u64, 0, recs);
            }
        });
        tracer
            .span(
                "proto.decode_reply",
                "serve.proto",
                op,
                || -> Result<(), proto::ProtoError> {
                    let mut rest = &reply_buf[..];
                    while let Some((used, body)) = proto::split_frame(rest)? {
                        match proto::decode_server(body)? {
                            ServerMsg::Recommendations(ok) => std::hint::black_box(ok),
                            other => unreachable!("encoded a recommendation, decoded {other:?}"),
                        };
                        rest = &rest[used..];
                    }
                    Ok(())
                },
            )
            .map_err(fail("decode reply"))?;

        // The scoring kernel alone, over the rows those requests scanned.
        tracer.span("kernels.score", "tensor", op, || {
            let scorer = engine.scorer();
            for r in requests {
                let (users, items, cat) = match r.direction.source {
                    DomainId::X => (&scorer.x_users, &scorer.y_items, &catalogues[1]),
                    DomainId::Y => (&scorer.y_users, &scorer.x_items, &catalogues[0]),
                };
                let out = &mut scores[..cat.len()];
                kernels::score_candidates_dot(items.cols(), users.row(r.user as usize), items.as_slice(), cat, out);
                std::hint::black_box(&out);
            }
        });

        engine.set_precision(ScoringPrecision::Int8);
        tracer
            .span("recommender.recommend_int8", "serve.recommender", op, || {
                requests
                    .iter()
                    .zip(answers.iter_mut())
                    .try_for_each(|(r, out)| engine.recommend(r, out))
            })
            .map_err(fail("recommend int8"))?;
        tracer.span("kernels.score_int8", "tensor", op, || {
            let scorer = engine.scorer();
            for r in requests {
                let (users, cat) = match r.direction.source {
                    DomainId::X => (&scorer.x_users, &catalogues[1]),
                    DomainId::Y => (&scorer.y_users, &catalogues[0]),
                };
                let table = engine
                    .quantized_items(r.direction.target)
                    .expect("int8 precision carries quantised tables");
                let (scale, norm) = quantize_user_into(users.row(r.user as usize), &mut user_q);
                let user = QuantUser {
                    q: &user_q,
                    scale,
                    norm,
                };
                let out = &mut scores[..cat.len()];
                kernels::score_candidates_quant_dot(table.view(), user, cat, out);
                std::hint::black_box(&out);
            }
        });
        tracer.end(b);
        batch += 1;
    }

    engine.set_precision(ScoringPrecision::F32);
    let mut responses = Vec::new();
    let mut rates = Vec::new();
    for round in 0..5 {
        let requests = &mix[(round * ENGINE_BATCH) % (mix.len() - ENGINE_BATCH)..][..ENGINE_BATCH];
        let start = Instant::now();
        engine
            .recommend_batch(requests, &mut responses)
            .map_err(fail("recommend_batch"))?;
        rates.push(ENGINE_BATCH as f64 / start.elapsed().as_secs_f64());
    }
    rep.metric("recommender.batch_recs_per_s", median(&mut rates));
    rep.metric("recommender.allocs_per_request", median(&mut request_allocs));

    // Both directions alternate, so a request scans the mean of the two
    // catalogues.
    let per_request = |name: &str| median_of(&tracer.durations_ns(name)) / STAGE_BATCH as f64;
    let candidates = (n_items[0] + n_items[1]) as f64 / 2.0;
    let dim = engine.scorer().x_items.cols() as f64;
    let recommend_us = us(per_request("recommender.recommend"));
    let score_ns = per_request("kernels.score");
    rep.metric("proto.encode_req_ns", per_request("proto.encode_req"));
    rep.metric("proto.decode_req_ns", per_request("proto.decode_req"));
    rep.metric("proto.encode_reply_ns", per_request("proto.encode_reply"));
    rep.metric("proto.decode_reply_ns", per_request("proto.decode_reply"));
    rep.metric("recommender.recommend_us", recommend_us);
    rep.metric(
        "recommender.recommend_int8_us",
        us(per_request("recommender.recommend_int8")),
    );
    rep.metric("kernels.score_ns_per_cand", score_ns / candidates);
    rep.metric(
        "kernels.score_int8_ns_per_cand",
        per_request("kernels.score_int8") / candidates,
    );
    rep.metric("kernels.bytes_per_request", candidates * dim * 4.0);
    rep.metric("recommender.filter_select_us", recommend_us - us(score_ns));
    rep.lines.push(format!(
        "staged requests: {batch} batches of {STAGE_BATCH} per precision, {candidates} candidates per request"
    ));
    Ok(())
}

/// Walks the ingest stream through every layer a delta crosses, each on a
/// twin of the served engine's state.
fn delta_walk(
    t: &Stack,
    source: &EngineSource,
    seed: u64,
    n_deltas: usize,
    ctx: &Ctx,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(), Failure> {
    let mut graphs = [t.scenario.x.train.clone(), t.scenario.y.train.clone()];
    let mut inference = InferenceModel::from_model(&t.model);
    inference.enable_incremental().map_err(fail("enable_incremental"))?;
    let mut memory_twin = source.online_twin()?;
    let (mut durable_twin, _) = source.durable_engine(&ctx.scratch.path("walk-durable.wal"))?;
    let log_path = ctx.scratch.path("walk-append.wal");
    let mut log = DeltaWal::create(&log_path, 1).map_err(fail("create scratch log"))?;
    let header_bytes = std::fs::metadata(&log_path).map_err(fail("stat scratch log"))?.len();

    let (n_users, n_items) = entity_counts(&memory_twin);
    let deltas = DeltaStream::new(n_users, n_items, seed).take(n_deltas);
    let mut effect = DeltaEffect::new();
    let (mut rows, mut steady_allocs, mut sync_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (domain, delta)) in deltas.iter().enumerate() {
        let op = i as u64;
        let graph = &mut graphs[i % 2];
        let walk = tracer.begin("delta.walk", "bench", op);
        tracer
            .span("graph.check_bounds", "graph", op, || {
                delta.check_bounds(graph.n_users(), graph.n_items())
            })
            .map_err(fail("check_bounds"))?;
        tracer
            .span("wal.append", "serve.wal", op, || log.append(*domain, delta))
            .map_err(fail("wal append"))?;
        tracer
            .span("graph.apply", "graph", op, || {
                graph.apply_delta_into(delta, &mut effect)
            })
            .map_err(fail("graph apply_delta"))?;
        let reencoded = tracer
            .span("core.reencode", "core", op, || {
                inference.apply_delta(*domain, graph, &effect)
            })
            .map_err(fail("inference apply_delta"))?;
        tracer.end(walk);
        rows.push((reencoded.users_reencoded + reencoded.items_reencoded) as f64);

        let allocs_before = allocation_count();
        tracer
            .span("delta.apply", "serve.delta", op, || {
                memory_twin.apply_delta(*domain, delta)
            })
            .map_err(fail("apply_delta"))?;
        // Steady state: a like batch grows neither entities nor capacity.
        if i >= 2 && delta.add_users == 0 && delta.edges.len() == 8 {
            steady_allocs.push((allocation_count() - allocs_before) as f64);
        }
        tracer
            .span("delta.durable_apply", "serve.delta", op, || {
                durable_twin.apply_delta(*domain, delta)
            })
            .map_err(fail("durable apply_delta"))?;
        if i % 4 == 3 {
            let start = Instant::now();
            log.sync().map_err(fail("wal sync"))?;
            sync_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    let log_bytes = std::fs::metadata(&log_path).map_err(fail("stat scratch log"))?.len();

    let med = |name: &str| us(median_of(&tracer.durations_ns(name)));
    let (graph_apply, reencode, apply) = (med("graph.apply"), med("core.reencode"), med("delta.apply"));
    rep.metric("graph.check_bounds_us", med("graph.check_bounds"));
    rep.metric("graph.apply_us", graph_apply);
    rep.metric("core.reencode_us", reencode);
    rep.metric("core.rows_reencoded", rows.iter().sum::<f64>() / rows.len() as f64);
    rep.metric("wal.append_us", med("wal.append"));
    rep.metric("wal.sync_us", us(median(&mut sync_ns)));
    rep.metric(
        "wal.bytes_per_record",
        (log_bytes - header_bytes) as f64 / n_deltas as f64,
    );
    rep.metric("delta.apply_us", apply);
    rep.metric("delta.durable_apply_us", med("delta.durable_apply"));
    rep.metric("delta.patch_quant_us", apply - graph_apply - reencode);
    rep.metric("delta.allocs_per_batch", median(&mut steady_allocs));
    rep.lines
        .push(format!("delta walk: {n_deltas} deltas through five layers on twins"));
    Ok(())
}

/// `load.*`: mapping the v2 container against decoding the v1 artifact.
fn load_times(t: &Stack, source: &EngineSource, ctx: &Ctx, rep: &mut Report) -> Result<(), Failure> {
    let v1 = ctx.scratch.path("model.v1");
    save_model_file(&t.model, &t.scenario, &v1).map_err(fail("save v1 model"))?;
    let (mut map_ns, mut decode_ns) = (Vec::new(), Vec::new());
    let mut mapped = false;
    for _ in 0..5 {
        let start = Instant::now();
        let engine = Recommender::from_serve_v2_file(&source.base).map_err(fail("map v2"))?;
        map_ns.push(start.elapsed().as_nanos() as f64);
        mapped = engine.is_mapped();
    }
    for _ in 0..3 {
        let start = Instant::now();
        Recommender::from_artifact_file(&v1).map_err(fail("decode v1"))?;
        decode_ns.push(start.elapsed().as_nanos() as f64);
    }
    rep.metric("load.v2_map_ms", ms(median(&mut map_ns)));
    rep.metric("load.v1_decode_ms", ms(median(&mut decode_ns)));
    rep.metric("load.mapped", f64::from(u8::from(mapped)));
    Ok(())
}

/// The whole traced pass of one workload. Returns the report and the spans.
pub fn run(job: Job, ctx: &mut Ctx) -> Result<(Report, Tracer), Failure> {
    let Job { w, seed, seconds } = job;
    let mut rep = Report::default();
    let mut tracer = Tracer::with_capacity(1 << 16);
    let traced_seconds = seconds * TRACED_SHARE;
    let scenario = stack::build_scenario(w)?;

    // Training: the same epochs untraced (`train_model`) and traced.
    ctx.phase("traced training");
    let epochs = w.epochs(traced_seconds).max(workloads::WARMUP_EPOCHS + 2);
    let config = stack::training_config(w, seed, epochs);
    endtoend::warm_up_training(w, &scenario, seed)?;
    let start = Instant::now();
    let mut plain = CdribModel::new(&config, &scenario).map_err(fail("model init"))?;
    let trained = train_model(&mut plain, &config, &scenario).map_err(fail("untraced training"))?;
    let untraced_epoch_s = start.elapsed().as_secs_f64() / epochs as f64;
    drop(plain);
    let (model, traced_epoch_s) = traced_training(w, &scenario, seed, epochs, &mut tracer, &mut rep)?;

    let per_epoch = |name: &str| ms(median_of(&tracer.sum_per_op_ns(name)));
    let total_ms = |name: &str| ms(tracer.durations_ns(name).iter().sum::<f64>());
    // The first `core.infer` span is the loop's initial export; the rest sit
    // inside validations and are already counted there.
    let initial_infer_ms = ms(tracer.durations_ns("core.infer")[0]);
    let stage_sum_ms = total_ms("data.batch")
        + total_ms("core.forward")
        + total_ms("tensor.backward")
        + total_ms("tensor.optim")
        + total_ms("eval.validation")
        + initial_infer_ms;
    rep.metric("data.batch_ms", per_epoch("data.batch"));
    rep.metric("core.forward_ms", per_epoch("core.forward"));
    rep.metric("tensor.backward_ms", per_epoch("tensor.backward"));
    rep.metric("tensor.optim_ms", per_epoch("tensor.optim"));
    rep.metric("eval.validation_ms", total_ms("eval.validation"));
    rep.metric("core.infer_ms", ms(median_of(&tracer.durations_ns("core.infer"))));
    rep.metric(
        "train.stage_sum_ratio",
        stage_sum_ms / (untraced_epoch_s * 1e3 * epochs as f64),
    );
    rep.metric("trace.overhead_pct", (traced_epoch_s / untraced_epoch_s - 1.0) * 100.0);
    rep.lines.push(format!(
        "training: {epochs} epochs, {:.2} ms/epoch untraced, {:.2} ms/epoch traced",
        untraced_epoch_s * 1e3,
        traced_epoch_s * 1e3
    ));

    ctx.phase("traced evaluation");
    traced_eval(&trained.scorer(), &scenario, seed, w.evals(traced_seconds), &mut tracer)?;
    drop(trained);
    rep.metric("eval.score_ms", ms(median_of(&tracer.durations_ns("eval.score"))));
    rep.metric("eval.sample_rank_ms", ms(median_of(&tracer.self_ns("eval.evaluate"))));

    let t = stack::serving_stack(w, Stack { scenario, model }, seed, Some(traced_seconds))?;
    let source = EngineSource::new(w, &t, seed, ctx.scratch.path("base.cdr2"))?;
    load_times(&t, &source, ctx, &mut rep)?;

    ctx.phase("staged requests");
    let mut engine = source.scan_engine(ScoringPrecision::F32)?;
    let budget = Duration::from_secs_f64(traced_seconds * 0.1);
    staged_requests(&mut engine, seed, budget, &mut tracer, &mut rep)?;
    drop(engine);

    // The socket phases again, shortened, for the counters only a running
    // server has and for what the staged stages leave of a round trip.
    let traced_job = Job {
        seconds: traced_seconds,
        ..job
    };
    let ingest = endtoend::serve_stages(traced_job, ctx, &source, &mut rep)?;
    let staged_us = us([
        "proto.encode_req_ns",
        "proto.decode_req_ns",
        "proto.encode_reply_ns",
        "proto.decode_reply_ns",
    ]
    .iter()
    .map(|name| rep.get(name).expect("staged metrics were recorded"))
    .sum::<f64>())
        + rep
            .get("recommender.recommend_us")
            .expect("staged metrics were recorded");
    let closed = rep.get("closed_p50_us").expect("the closed loop ran");
    rep.metric("net.overhead_us", closed - staged_us);
    rep.metric("net.shed", rep.net_shed as f64);

    ctx.phase("delta walk");
    delta_walk(&t, &source, seed, ingest.n_deltas, ctx, &mut tracer, &mut rep)?;

    ctx.phase("compaction");
    let mut recovered = ingest.recovered;
    let start = Instant::now();
    recovered.compact().map_err(fail("compact"))?;
    rep.metric("wal.compact_ms", start.elapsed().as_secs_f64() * 1e3);
    rep.metric("recover.replayed", ingest.replayed as f64);
    rep.metric(
        "recover.replay_ms_per_record",
        ingest.recover_ms / ingest.replayed as f64,
    );
    ctx.phase("report");
    Ok((rep, tracer))
}
