//! The end-to-end pass: tracing off, every metric a user of the system sees.
//!
//! One pipeline for every workload — set up, train, evaluate, freeze, serve
//! (closed loop at both precisions, saturation, two open-loop rates), ingest
//! deltas over the wire, recover from the log — so every metric has one
//! definition everywhere. The workload decides the input and where the time
//! goes.

use crate::check::{self, bitwise_equal};
use crate::inputs::{self, DeltaStream};
use crate::loadgen::{Checked, OpenPlan, Outcome};
use crate::stack::{self, entity_counts, fail, Ctx, EngineSource, Failure, Stack};
use crate::stats::{self, SegmentStat};
use crate::workloads::{self, Workload};
use cdrib_core::{train_model, validation_negatives, CdribConfig, CdribModel, TrainedCdrib};
use cdrib_data::CdrScenario;
use cdrib_eval::{evaluate_both_directions, EvalConfig, EvalSplit};
use cdrib_serve::{Recommendation, Recommender, Request, ScoringPrecision};
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Clone, Copy)]
pub struct Job {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// What a pass measured.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per phase for the human reader: counts beside every timing.
    pub lines: Vec<String>,
    /// Metrics whose phase was too short, or whose generator ran late.
    pub unreliable: Vec<String>,
    /// Requests the servers shed, from `Server::stats` around every phase.
    pub net_shed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a percentile of a phase and flags it when it rests on too
    /// few samples.
    fn percentile(&mut self, name: &'static str, stat: SegmentStat, scale: f64) {
        self.metric(name, stat.value * scale);
        if !stat.reliable {
            self.unreliable.push(format!(
                "{name}: only {} samples in {} segments",
                stat.n,
                stats::SEGMENTS
            ));
        }
    }
}

/// The warm-up prefix of a scheduled phase of `n` operations: `full`, or a
/// quarter of the phase when `--quick` made it that short.
fn warmup_of(n: usize, full: usize) -> usize {
    full.min(n / 4)
}

fn secs(share: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64(share * seconds)
}

/// The percentiles reported for a latency phase.
#[derive(Clone, Copy)]
struct Percentiles {
    p50: SegmentStat,
    p95: SegmentStat,
    p99: SegmentStat,
}

/// Percentiles of a phase: over its slices when it ran as interleaved
/// slices, over equal cuts of its one run otherwise.
fn percentiles(outs: &[&Outcome], phase: &str) -> Result<Percentiles, Failure> {
    let segments: [&[f64]; stats::SEGMENTS] = match outs {
        [one] if one.lat_us.len() >= stats::SEGMENTS => stats::cut(&one.lat_us),
        many if many.len() == stats::SEGMENTS && many.iter().all(|o| !o.lat_us.is_empty()) => {
            std::array::from_fn(|i| &many[i].lat_us[..])
        }
        _ => return Err(format!("{phase}: too few samples")),
    };
    let sorted = stats::sorted_segments(segments);
    Ok(Percentiles {
        p50: stats::percentile_over(&sorted, 0.50, workloads::P50_MIN_PER_SEGMENT),
        p95: stats::percentile_over(&sorted, 0.95, workloads::P95_MIN_PER_SEGMENT),
        p99: stats::percentile_over(&sorted, 0.99, workloads::P99_MIN_PER_SEGMENT),
    })
}

/// Generator lateness of an open-loop phase: `(p50, p99)` in µs.
fn lateness(outs: &[&Outcome]) -> (f64, f64) {
    let mut late: Vec<f64> = outs.iter().flat_map(|o| o.late_us.iter().copied()).collect();
    late.sort_by(f64::total_cmp);
    (
        stats::percentile_sorted(&late, 0.50),
        stats::percentile_sorted(&late, 0.99),
    )
}

fn phase_line(phase: &str, outs: &[&Outcome], p: Percentiles) -> String {
    let sum = |f: &dyn Fn(&Outcome) -> u64| outs.iter().map(|o| f(o)).sum::<u64>();
    let max = outs
        .iter()
        .flat_map(|o| o.lat_us.iter().copied())
        .filter(|l| l.is_finite())
        .fold(0.0, f64::max);
    format!(
        "{phase}: attempted {} failed {} (shed {}, errors {}, timeouts {}), samples {}, p50 {:.1} us, p95 {:.1} us {:.0?}, p99 {:.1} us {:.0?}, max {max:.1} us, {:.2} s",
        sum(&|o| o.attempted),
        sum(&|o| o.failed()),
        sum(&|o| o.shed),
        sum(&|o| o.errors),
        sum(&|o| o.timeouts),
        p.p50.n,
        p.p50.value,
        p.p95.value,
        p.p95.segments,
        p.p99.value,
        p.p99.segments,
        outs.iter().map(|o| o.elapsed_s).sum::<f64>()
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// MRR (× 100) of a ranking that orders `candidates` at random: the mean of
/// `1 / rank` over a uniform rank.
fn random_mrr_percent(candidates: usize) -> f64 {
    (1..=candidates).map(|r| 1.0 / r as f64).sum::<f64>() / candidates as f64 * 100.0
}

/// The trained model the run goes on with, and the outcome of every timed
/// training (one per seed) for the evaluation stage.
pub struct Trained {
    pub stack: Stack,
    pub runs: Vec<TrainedCdrib>,
}

/// Trains a throw-away model for a couple of epochs, so the timed training
/// starts with warm caches and a grown heap.
pub fn warm_up_training(w: &Workload, scenario: &CdrScenario, seed: u64) -> Result<(), Failure> {
    let config = CdribConfig {
        eval_every: 0,
        ..stack::training_config(w, seed, workloads::WARMUP_EPOCHS)
    };
    let mut model = CdribModel::new(&config, scenario).map_err(fail("warm-up model init"))?;
    train_model(&mut model, &config, scenario).map_err(fail("warm-up training"))?;
    Ok(())
}

/// Builds the scenario, warms the training path on a throw-away model, then
/// times `CdribModel::new` + `train_model` — what `cdrib_core::train` does.
/// A workload whose training is short (0.4 s) times it on several seeds and
/// reports the median; the first seed's model is the one the run goes on with.
fn train_stage(job: Job, ctx: &Ctx, rep: &mut Report) -> Result<Trained, Failure> {
    let Job { w, seed, seconds } = job;
    let epochs = w.epochs(seconds);
    ctx.phase("train");
    let scenario = stack::build_scenario(w)?;
    warm_up_training(w, &scenario, seed)?;

    let mut first = None;
    let mut runs = Vec::with_capacity(w.train_runs);
    let mut epoch_ms = Vec::with_capacity(w.train_runs);
    for run in 0..w.train_runs {
        let config = stack::training_config(w, seed + run as u64, epochs);
        let start = Instant::now();
        let mut model = CdribModel::new(&config, &scenario).map_err(fail("model init"))?;
        let trained = train_model(&mut model, &config, &scenario).map_err(fail("training"))?;
        let elapsed = start.elapsed().as_secs_f64();

        let ran = trained.report.epochs_run;
        let bad = trained.report.epochs.iter().filter(|e| !e.loss.is_finite()).count();
        rep.count(ran as u64, bad as u64);
        if bad > 0 || ran != epochs {
            return Err(format!(
                "training ran {ran} of {epochs} epochs, {bad} with a non-finite loss"
            ));
        }
        epoch_ms.push(elapsed * 1e3 / ran as f64);
        runs.push(trained);
        first.get_or_insert(model);
    }
    let model = first.expect("a workload trains at least once");
    rep.lines.push(format!(
        "train: {epochs} epochs x {} runs, {epoch_ms:.2?} ms/epoch, loss {:.4} -> {:.4}, best validation MRR {:.4}",
        w.train_runs,
        runs[0].report.epochs[0].loss,
        runs[0].report.epochs[epochs - 1].loss,
        runs[0].report.best_validation_mrr.unwrap_or(f64::NAN)
    ));
    rep.metric("train_epoch_ms", stats::median(&mut epoch_ms));
    Ok(Trained {
        stack: Stack { scenario, model },
        runs,
    })
}

/// The evaluation protocol's configuration for repetition `i`: every
/// repetition ranks against freshly sampled negatives, so their mean MRR
/// estimates the model, not one draw of 999 items.
pub fn eval_config(scenario: &CdrScenario, seed: u64, i: usize) -> EvalConfig {
    EvalConfig {
        n_negatives: validation_negatives(scenario),
        seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
        max_cases: None,
    }
}

fn eval_stage(job: Job, t: &Trained, ctx: &Ctx, rep: &mut Report) -> Result<(), Failure> {
    let (seed, evals) = (job.seed, job.w.evals(job.seconds));
    ctx.phase("evaluate");
    let scenario = &t.stack.scenario;
    // Every trained model takes its turn: `cold_mrr` is about the training
    // recipe, and one model's 136 test cases say little about that.
    let scorers: Vec<_> = t.runs.iter().map(TrainedCdrib::scorer).collect();
    let mut rates = Vec::with_capacity(evals);
    let mut mrr_sum = 0.0;
    let mut cases = 0;
    for i in 0..evals {
        let config = eval_config(scenario, seed, i);
        let scorer = &scorers[i % scorers.len()];
        let start = Instant::now();
        let (x2y, y2x) =
            evaluate_both_directions(scorer, scenario, EvalSplit::Test, &config).map_err(fail("evaluation"))?;
        let elapsed = start.elapsed().as_secs_f64();
        cases = x2y.n_cases() + y2x.n_cases();
        rates.push(cases as f64 / elapsed);
        mrr_sum += 50.0 * (x2y.metrics.mrr + y2x.metrics.mrr);
    }
    rep.count(evals as u64, 0);
    let cold_mrr = mrr_sum / evals as f64;
    let random = random_mrr_percent(validation_negatives(scenario) + 1);
    rep.metric("eval_cases_per_s", stats::median(&mut rates));
    rep.metric("cold_mrr", cold_mrr);
    rep.lines.push(format!(
        "evaluate: {evals} test evaluations of {cases} cold-start cases over {} trained models, mean MRR {cold_mrr:.3} % (random ranking {random:.3} %)",
        scorers.len()
    ));
    // A model a few epochs old (`--quick`) has not learnt to rank yet; the
    // gate is on the trained model the full-length run reports.
    let epochs = t.runs[0].report.epochs_run;
    if epochs >= workloads::QUALITY_GATE_MIN_EPOCHS && cold_mrr < 3.0 * random {
        return Err(format!(
            "cold-start MRR {cold_mrr:.3} % after {epochs} epochs is below 3x the random-ranking expectation {random:.3} %"
        ));
    }
    Ok(())
}

/// The read phases one server can be asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadPhase {
    Closed,
    ClosedInt8,
    Saturation,
    LowLoad,
    Open,
}

/// Spawns a server on `engine`, passes the parity gate against `twin`, runs
/// `phases`, checks the kept replies, shuts the server down.
///
/// The phases run as [`stats::SEGMENTS`] interleaved rounds, each round one
/// slice of every phase, and a slice is the segment the reported percentile
/// is taken over. Host noise on a shared box comes in bursts of seconds: a
/// burst now lands in one slice of each phase, where the pick over slices
/// ([`stats::second_best`]) discards it, instead of owning three segments of
/// one contiguous phase.
fn serve_reads(
    job: Job,
    ctx: &mut Ctx,
    engine: Recommender,
    twin: &mut Recommender,
    phases: &[ReadPhase],
    rep: &mut Report,
) -> Result<(), Failure> {
    let Job { w, seed, seconds } = job;
    let (n_users, _) = entity_counts(twin);
    let conns = ctx.read_conns();
    let server = ctx.spawn(engine)?;
    let mut gen = ctx.connect(&server, conns)?;
    ctx.phase("parity gate");
    check::parity_gate(&mut gen, twin, n_users, seed, &format!("parity {phases:?}"))?;
    let slice = seconds / stats::SEGMENTS as f64;
    let mut slices: Vec<Vec<PhaseSlice>> = phases.iter().map(|_| Vec::new()).collect();
    for round in 0..stats::SEGMENTS {
        for (&phase, slices) in phases.iter().zip(&mut slices) {
            let label = format!("{phase:?} {round}");
            ctx.phase(&label);
            let mix = inputs::request_mix(n_users, workloads::MIX_REQUESTS, seed, &label);
            let before = server.stats();
            let out = match phase {
                ReadPhase::Closed => gen.closed_loop(&mix, secs(w.closed_share, slice), workloads::WARMUP_REQUESTS),
                ReadPhase::ClosedInt8 => {
                    gen.closed_loop(&mix, secs(w.closed_int8_share, slice), workloads::WARMUP_REQUESTS)
                }
                ReadPhase::Saturation => gen.saturate(&mix, secs(w.sat_share, slice)),
                ReadPhase::LowLoad | ReadPhase::Open => {
                    let (rate, share) = if phase == ReadPhase::Open {
                        (w.open_rate, w.open_share)
                    } else {
                        (workloads::LOW_RATE, w.low_share)
                    };
                    let due = inputs::poisson_schedule(rate, (rate * share * slice) as usize, seed, &label);
                    let plan = OpenPlan::new(&mix, &due, conns, &[], &[]);
                    gen.open_loop(&plan, warmup_of(due.len(), workloads::WARMUP_REQUESTS))
                        .map(|(reads, _)| reads)
                }
            }
            .map_err(fail(&label))?;
            let after = server.stats();
            rep.net_shed += after.shed - before.shed;
            rep.count(out.attempted, out.failed());
            check::verify_static(&out.checked, &mix, twin, &label)?;
            if phase == ReadPhase::Saturation && out.shed > 0 {
                return Err(format!("{label}: {} requests were shed", out.shed));
            }
            slices.push(PhaseSlice {
                batches: after.batches - before.batches,
                out,
            });
        }
    }
    drop(gen);
    ctx.stop(server);

    for (&phase, slices) in phases.iter().zip(&slices) {
        let label = format!("{phase:?}");
        let per_slice = |f: &dyn Fn(&PhaseSlice) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
        if phase == ReadPhase::Saturation {
            let rates = per_slice(&|s| s.out.served() as f64 / s.out.elapsed_s);
            rep.metric("sat_rps", stats::second_best(&rates, false));
            let batch_sizes = per_slice(&|s| s.out.served() as f64 / s.batches as f64);
            rep.metric("net.batch_mean", stats::median_of(&batch_sizes));
            rep.lines.push(format!(
                "{label}: attempted {} failed {}, {:.2} s",
                slices.iter().map(|s| s.out.attempted).sum::<u64>(),
                slices.iter().map(|s| s.out.failed()).sum::<u64>(),
                slices.iter().map(|s| s.out.elapsed_s).sum::<f64>()
            ));
            continue;
        }
        let outs: Vec<&Outcome> = slices.iter().map(|s| &s.out).collect();
        let p = percentiles(&outs, &label)?;
        rep.lines.push(phase_line(&label, &outs, p));
        match phase {
            ReadPhase::Closed => rep.percentile("closed_p50_us", p.p50, 1.0),
            ReadPhase::ClosedInt8 => rep.percentile("closed_int8_p50_us", p.p50, 1.0),
            ReadPhase::LowLoad => rep.percentile("lowload_p95_us", p.p95, 1.0),
            _ => {
                rep.percentile("open_p50_us", p.p50, 1.0);
                rep.percentile("open_p95_us", p.p95, 1.0);
                let batch_rates = per_slice(&|s| s.batches as f64 / s.out.elapsed_s);
                rep.metric("net.batches_per_s", stats::median_of(&batch_rates));
            }
        }
        if matches!(phase, ReadPhase::LowLoad | ReadPhase::Open) {
            flag_late(&label, &outs, phase == ReadPhase::Open, rep);
        }
    }
    Ok(())
}

/// One slice of a read phase: what the generator saw and how many batches
/// the coalescer ran meanwhile (`Server::stats` before and after).
struct PhaseSlice {
    out: Outcome,
    batches: u64,
}

/// An open-loop latency is only as good as the schedule was kept. The open
/// phase's lateness is also a metric of the generator itself.
fn flag_late(label: &str, outs: &[&Outcome], is_open_phase: bool, rep: &mut Report) {
    let (late_p50, late_p99) = lateness(outs);
    if is_open_phase {
        rep.metric("gen.late_p50_us", late_p50);
        rep.metric("gen.late_p99_us", late_p99);
    }
    rep.lines.push(format!(
        "{label}: generator lateness p50 {late_p50:.1} us, p99 {late_p99:.1} us"
    ));
    if late_p99 > workloads::MAX_LATE_P99_US {
        rep.unreliable.push(format!(
            "{label}: generator lateness p99 {late_p99:.1} us exceeds {} us",
            workloads::MAX_LATE_P99_US
        ));
    }
}

/// What the ingest stage hands to the traced pass.
pub struct IngestOutcome {
    pub n_deltas: usize,
    pub recover_ms: f64,
    pub replayed: usize,
    /// The recovered engine, durable, at the end of the log.
    pub recovered: Recommender,
}

/// Deltas over the wire on the durable int8 engine — beside the open-loop
/// reads when the workload mixes them — then the three-way comparison:
/// live answers == recovered engine == a twin that applied the same deltas
/// directly.
fn ingest_stage(job: Job, ctx: &mut Ctx, source: &EngineSource, rep: &mut Report) -> Result<IngestOutcome, Failure> {
    let Job { w, seed, seconds } = job;
    let wal = ctx.scratch.path("ingest.wal");
    let (engine, _) = source.durable_engine(&wal)?;
    let mut twin = source.online_twin()?;
    let (n_users, n_items) = entity_counts(&twin);
    let mix = inputs::request_mix(n_users, workloads::MIX_REQUESTS, seed, "mix-ingest");

    let share = if w.mixed { w.open_share } else { w.ingest_share };
    let n_deltas = ((workloads::DELTA_RATE * share * seconds) as usize).max(workloads::MIN_DELTAS);
    let deltas = DeltaStream::new(n_users, n_items, seed).take(n_deltas);
    let delta_due = inputs::poisson_schedule(workloads::DELTA_RATE, n_deltas, seed, "arrivals-delta");
    let (read_due, warmup) = if w.mixed {
        let n_reads = (w.open_rate * share * seconds) as usize;
        (
            inputs::poisson_schedule(w.open_rate, n_reads, seed, "arrivals-mixed-reads"),
            warmup_of(n_reads, workloads::WARMUP_REQUESTS),
        )
    } else {
        (Vec::new(), warmup_of(n_deltas, workloads::WARMUP_DELTAS))
    };
    // Reads on connection 0, deltas on connection 1.
    let plan = OpenPlan::new(&mix, &read_due, 1, &deltas, &delta_due);

    let server = ctx.spawn(engine)?;
    let mut gen = ctx.connect(&server, 2)?;
    ctx.phase("ingest parity gate");
    check::parity_gate(&mut gen, &mut twin, n_users, seed, "parity ingest")?;
    ctx.phase("ingest");
    let before = server.stats();
    let (reads, delta_out) = gen.open_loop(&plan, warmup).map_err(fail("ingest"))?;
    let after = server.stats();
    rep.net_shed += after.shed - before.shed;
    rep.count(
        reads.attempted + delta_out.attempted,
        reads.failed() + delta_out.failed(),
    );

    let d = percentiles(&[&delta_out], "ingest deltas")?;
    rep.lines.push(phase_line("ingest deltas", &[&delta_out], d));
    rep.percentile("delta_p50_ms", d.p50, 1e-3);
    rep.metric("delta.rtt_p99_ms", d.p99.value * 1e-3);
    flag_late("ingest deltas", &[&delta_out], false, rep);
    if w.mixed {
        let p = percentiles(&[&reads], "mixed reads")?;
        rep.lines.push(phase_line("mixed reads", &[&reads], p));
        rep.percentile("open_p50_us", p.p50, 1.0);
        rep.percentile("open_p95_us", p.p95, 1.0);
        rep.metric(
            "net.batches_per_s",
            (after.batches - before.batches) as f64 / reads.elapsed_s,
        );
        flag_late("mixed reads", &[&reads], true, rep);
    }

    // The state the server ended in, as seen over the wire.
    ctx.phase("ingest capture");
    let captured: Vec<(Request, Vec<Recommendation>)> =
        inputs::request_mix(n_users, workloads::PARITY_REQUESTS, seed, "ingest-capture")
            .into_iter()
            .map(|request| gen.ask(&request).map(|(_, recs)| (request, recs)))
            .collect::<Result<_, _>>()
            .map_err(fail("ingest capture"))?;
    drop(gen);
    ctx.stop(server);

    // The twin applies the same deltas directly; a read answered at epoch
    // `e` saw exactly the first `e` deltas, so the kept replies are checked
    // bit for bit along the way.
    ctx.phase("ingest verification");
    let mut checked: Vec<&Checked> = reads.checked.iter().collect();
    checked.sort_by_key(|c| c.epoch);
    let mut next = 0;
    for epoch in 0..=n_deltas {
        while next < checked.len() && checked[next].epoch == epoch as u64 {
            let c = checked[next];
            check::verify_static(std::slice::from_ref(c), &mix, &mut twin, "mixed read")?;
            next += 1;
        }
        if let Some((domain, delta)) = deltas.get(epoch) {
            twin.apply_delta(*domain, delta).map_err(fail("twin apply_delta"))?;
        }
    }
    if next != checked.len() {
        return Err(format!(
            "{} kept replies carry an epoch beyond the last delta",
            checked.len() - next
        ));
    }

    // Recovery reads the log and leaves it as it was, so it is timed
    // several times over and the median reported.
    ctx.phase("recover");
    let mut recover_runs_ms = Vec::with_capacity(workloads::RECOVER_REPEATS);
    let (mut last, mut replayed) = (None, 0);
    for _ in 0..workloads::RECOVER_REPEATS {
        // The previous engine holds the log open for appending.
        drop(last.take());
        let start = Instant::now();
        let (engine, report) = Recommender::recover(&source.base, &wal).map_err(fail("recover"))?;
        recover_runs_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !report.clean() || report.replayed != n_deltas {
            return Err(format!(
                "recovery replayed {} of {n_deltas} deltas: {report:?}",
                report.replayed
            ));
        }
        replayed = report.replayed;
        last = Some(engine);
    }
    let mut recovered = last.expect("recovery ran at least once");
    recovered.set_precision(ScoringPrecision::Int8);
    let runs_line = format!("{recover_runs_ms:.1?}");
    let recover_ms = stats::median(&mut recover_runs_ms);
    for (request, live) in &captured {
        let from_log = recovered.recommend_vec(request).map_err(fail("recovered engine"))?;
        let direct = twin.recommend_vec(request).map_err(fail("twin engine"))?;
        if !bitwise_equal(live, &from_log) || !bitwise_equal(live, &direct) {
            return Err(format!(
                "{request:?}: live {live:?}, recovered {from_log:?}, twin {direct:?}"
            ));
        }
        check::structure_ok(live, request, &twin)?;
    }
    rep.metric("recover_ms", recover_ms);
    rep.lines.push(format!(
        "recover: {replayed} records replayed in {runs_line} ms; live == recovered == twin on {} requests",
        captured.len()
    ));
    Ok(IngestOutcome {
        n_deltas,
        recover_ms,
        replayed,
        recovered,
    })
}

/// The serving stages shared by both passes: int8 server, f32 server(s),
/// durable server.
pub fn serve_stages(
    job: Job,
    ctx: &mut Ctx,
    source: &EngineSource,
    rep: &mut Report,
) -> Result<IngestOutcome, Failure> {
    use ReadPhase::{Closed, ClosedInt8, LowLoad, Open, Saturation};
    let mut twin = source.scan_engine(ScoringPrecision::Int8)?;
    let engine = source.scan_engine(ScoringPrecision::Int8)?;
    serve_reads(job, ctx, engine, &mut twin, &[ClosedInt8], rep)?;

    // Low load is a property of the front end, not of the scan: where the
    // scan engine is synthetic it runs on the model's engine instead, at the
    // same rate as everywhere else. A mixing workload's open loop runs
    // beside its deltas, on the durable engine.
    let phases: Vec<ReadPhase> = [
        Some(Closed),
        Some(Saturation),
        source.scan.is_none().then_some(LowLoad),
        (!job.w.mixed).then_some(Open),
    ]
    .into_iter()
    .flatten()
    .collect();
    twin.set_precision(ScoringPrecision::F32);
    let engine = source.scan_engine(ScoringPrecision::F32)?;
    serve_reads(job, ctx, engine, &mut twin, &phases, rep)?;
    drop(twin);
    if source.scan.is_some() {
        let mut twin = source.model_engine(ScoringPrecision::F32)?;
        let engine = source.model_engine(ScoringPrecision::F32)?;
        serve_reads(job, ctx, engine, &mut twin, &[LowLoad], rep)?;
    }
    ingest_stage(job, ctx, source, rep)
}

/// The whole end-to-end pass of one workload.
pub fn run(job: Job, ctx: &mut Ctx) -> Result<Report, Failure> {
    let mut rep = Report::default();
    let mut setups = Vec::with_capacity(workloads::SETUP_REPEATS);
    for _ in 0..workloads::SETUP_REPEATS {
        setups.push(stack::timed_set_up(job.w, job.seed, ctx)?);
    }
    rep.lines.push(format!("set-up: {setups:.3?} s"));
    rep.metric("setup_s", stats::median(&mut setups));
    stack::release_freed_memory();

    let trained = train_stage(job, ctx, &mut rep)?;
    eval_stage(job, &trained, ctx, &mut rep)?;
    let Trained { stack, runs } = trained;
    drop(runs);
    ctx.phase("freeze");
    let served = stack::serving_stack(job.w, stack, job.seed, Some(job.seconds))?;
    let source = EngineSource::new(job.w, &served, job.seed, ctx.scratch.path("base.cdr2"))?;
    drop(served);
    stack::release_freed_memory();
    serve_stages(job, ctx, &source, &mut rep)?;

    rep.metric("ok_share", 1.0 - stats::fail_share(rep.failed, rep.attempted));
    rep.metric("peak_rss_mb", peak_rss_mib());
    ctx.phase("report");
    Ok(rep)
}
