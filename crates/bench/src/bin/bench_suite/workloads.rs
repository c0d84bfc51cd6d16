//! The committed constants: workloads, rates, shares of the run length,
//! server configuration, and the metric tables with their bounds.
//!
//! Nothing here is derived from a measurement taken at run time. Rates are
//! absolute (requests per second), never a fraction of a saturation the run
//! re-measures; lengths are fixed shares of `--seconds`. `BENCHMARK.json`
//! repeats the names, units and bounds, and a unit test keeps the two equal.

use crate::inputs::ScanShape;
use cdrib_data::{Scale, ScenarioKind};
use cdrib_serve::ServerConfig;
use std::time::Duration;

/// `--seconds` when not given; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--seconds` under `--quick`: every phase a tenth of its length.
pub const QUICK_SECONDS: f64 = 2.0;

/// Seed of every preset scenario. The data set is part of the workload's
/// definition, like its rates: the cold-start MRR of one preset differs by
/// ±12 % between scenario seeds, which would bury any quality regression.
/// `--seed` drives everything else — model initialisation, training noise,
/// evaluation negatives, request mixes, arrival times, the delta stream and
/// the scan engine's tables.
pub const SCENARIO_SEED: u64 = 2022;

/// Kernel threads. Multi-thread kernels spawn per call today (no persistent
/// pool), which makes `train` both slower and ±20 % noisier at 2 threads.
pub const KERNEL_THREADS: usize = 1;

/// The served configuration, fixed for every workload.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        max_batch: 256,
        max_wait: Duration::from_micros(200),
        queue_capacity: 512,
    }
}

/// Requests answered over the socket and compared with the twin engine
/// before any timed phase of a server, and captured again at the end of the
/// ingest phase.
pub const PARITY_REQUESTS: usize = 256;
/// Distinct requests a phase cycles through.
pub const MIX_REQUESTS: usize = 4096;
/// Round trips / scheduled requests discarded at the head of a read phase.
pub const WARMUP_REQUESTS: usize = 200;
/// Fewest deltas an ingest stage sends, however short `--quick` makes it.
pub const MIN_DELTAS: usize = 24;
/// Deltas discarded at the head of an ingest stream.
pub const WARMUP_DELTAS: usize = 10;
/// Epochs trained on a throw-away model before the timed training.
pub const WARMUP_EPOCHS: usize = 2;
/// Epochs from which the trained model must rank at 3x the random
/// expectation or better.
pub const QUALITY_GATE_MIN_EPOCHS: usize = 20;
/// Times the whole set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Times recovery from the run's log is timed; `recover_ms` is the median.
pub const RECOVER_REPEATS: usize = 3;
/// Samples a segment needs behind a p99 / a p50: ten beyond the percentile.
pub const P99_MIN_PER_SEGMENT: usize = 1000;
pub const P95_MIN_PER_SEGMENT: usize = 200;
pub const P50_MIN_PER_SEGMENT: usize = 20;
/// Open-loop read rate of the low-load phase, requests per second: ~1 % of
/// the small engine's saturation, the idle-coalescer case.
pub const LOW_RATE: f64 = 2_000.0;
/// `IngestDelta` frames per second.
pub const DELTA_RATE: f64 = 150.0;
/// Generator lateness above which an open-loop phase is flagged unreliable.
pub const MAX_LATE_P99_US: f64 = 100.0;

/// One workload: an input and a traffic mix. Every workload runs the same
/// pipeline — train, evaluate, freeze, serve, ingest, recover — and reports
/// every metric; what differs is where the time goes.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub preset: (ScenarioKind, Scale),
    pub dim: usize,
    /// Training epochs and test evaluations per second of `--seconds`.
    pub epochs_per_second: f64,
    pub evals_per_second: f64,
    /// Timed trainings (on consecutive seeds) `train_epoch_ms` is the median
    /// of: one where a training takes seconds, three where it takes 0.4 s and
    /// a single hiccup would otherwise be a tenth of the measurement.
    pub train_runs: usize,
    /// When set, the four scan-sensitive phases (closed, closed int8,
    /// saturation, open loop) are served by a synthetic engine of this shape
    /// instead of the trained model's engine.
    pub scan: Option<ScanShape>,
    /// Open-loop read rate, requests per second.
    pub open_rate: f64,
    /// Whether the deltas arrive beside the open-loop reads (on the durable
    /// engine) or in a phase of their own.
    pub mixed: bool,
    /// Shares of `--seconds`.
    pub closed_share: f64,
    pub closed_int8_share: f64,
    pub sat_share: f64,
    pub low_share: f64,
    pub open_share: f64,
    pub ingest_share: f64,
}

impl Workload {
    pub fn epochs(&self, seconds: f64) -> usize {
        ((self.epochs_per_second * seconds).round() as usize).max(2)
    }

    pub fn evals(&self, seconds: f64) -> usize {
        ((self.evals_per_second * seconds).round() as usize).max(3)
    }

    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

const GAME_VIDEO_SMALL: (ScenarioKind, Scale) = (ScenarioKind::GameVideo, Scale::Small);

/// The workload whose preset, dimension and training length define the
/// model every serving stage freezes (see `stack::serving_stack`).
pub fn served_model() -> &'static Workload {
    Workload::by_name("serve_small_net").expect("serve_small_net is a workload")
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_mm_full",
        why: "The paper's own job at the largest preset: tensor kernels, tape, Adam, core forward, data batching and eval do the work; serving only has to stay put.",
        preset: (ScenarioKind::MusicMovie, Scale::Full),
        dim: 64,
        epochs_per_second: 1.5,
        evals_per_second: 2.0,
        train_runs: 1,
        scan: None,
        open_rate: 20_000.0,
        mixed: false,
        closed_share: 0.025,
        closed_int8_share: 0.025,
        sat_share: 0.04,
        low_share: 0.15,
        open_share: 0.1,
        ingest_share: 0.1,
    },
    Workload {
        name: "serve_small_net",
        why: "329-item cache-resident engine: socket, framing and coalescer are ~98 % of a round trip, so front-end work shows here and kernel work does not.",
        preset: GAME_VIDEO_SMALL,
        dim: 32,
        epochs_per_second: 2.0,
        evals_per_second: 25.0,
        train_runs: 3,
        scan: None,
        open_rate: 20_000.0,
        mixed: false,
        closed_share: 0.1,
        closed_int8_share: 0.1,
        sat_share: 0.125,
        low_share: 0.2,
        open_share: 0.2,
        ingest_share: 0.1,
    },
    Workload {
        name: "serve_large_scan",
        why: "65 536 items x dim 32 per domain (8 MiB table against 2 MiB of L2), power-law histories: scoring, filter and top-K are ~60 % of a round trip, memory-bound.",
        preset: GAME_VIDEO_SMALL,
        dim: 32,
        epochs_per_second: 2.0,
        evals_per_second: 25.0,
        train_runs: 3,
        scan: Some(ScanShape {
            users: 4096,
            items: 65_536,
            dim: 32,
        }),
        open_rate: 600.0,
        mixed: false,
        closed_share: 0.1,
        closed_int8_share: 0.06,
        sat_share: 0.1,
        low_share: 0.15,
        open_share: 0.5,
        ingest_share: 0.075,
    },
    Workload {
        name: "ingest_mixed",
        why: "Deltas at 150/s beside reads at 10 000/s on one durable int8 engine: WAL, graph apply, re-encode and re-quantise do the work, and reads queue behind each apply.",
        preset: GAME_VIDEO_SMALL,
        dim: 32,
        epochs_per_second: 2.0,
        evals_per_second: 25.0,
        train_runs: 3,
        scan: None,
        open_rate: 10_000.0,
        mixed: true,
        closed_share: 0.06,
        closed_int8_share: 0.06,
        sat_share: 0.1,
        low_share: 0.15,
        open_share: 0.5,
        ingest_share: 0.0,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("ok_share", "ratio", Higher, 0.001),
    e2e("train_epoch_ms", "ms", Lower, 0.25),
    e2e("eval_cases_per_s", "1/s", Higher, 0.25),
    e2e("cold_mrr", "%", Higher, 0.15),
    e2e("closed_p50_us", "us", Lower, 0.25),
    e2e("closed_int8_p50_us", "us", Lower, 0.25),
    e2e("open_p50_us", "us", Lower, 0.25),
    e2e("open_p95_us", "us", Lower, 0.25),
    e2e("lowload_p95_us", "us", Lower, 0.25),
    e2e("sat_rps", "1/s", Higher, 0.25),
    e2e("delta_p50_ms", "ms", Lower, 0.25),
    e2e("recover_ms", "ms", Lower, 0.25),
];

/// A per-layer metric from the traced pass and the end-to-end metric it
/// should move (see the README for the workload it should move it on).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 47] = [
    layer("data.batch_ms", "ms", Lower, "train_epoch_ms"),
    layer("core.forward_ms", "ms", Lower, "train_epoch_ms"),
    layer("tensor.backward_ms", "ms", Lower, "train_epoch_ms"),
    layer("tensor.optim_ms", "ms", Lower, "train_epoch_ms"),
    layer("eval.validation_ms", "ms", Lower, "train_epoch_ms"),
    layer("core.infer_ms", "ms", Lower, "train_epoch_ms, setup_s"),
    layer("eval.score_ms", "ms", Lower, "eval_cases_per_s"),
    layer("eval.sample_rank_ms", "ms", Lower, "eval_cases_per_s"),
    layer(
        "tensor.allocs_per_epoch",
        "count",
        Lower,
        "guard: zero-alloc warm epoch",
    ),
    layer(
        "recommender.allocs_per_request",
        "count",
        Lower,
        "guard: zero-alloc warm request",
    ),
    layer(
        "delta.allocs_per_batch",
        "count",
        Lower,
        "guard: zero-alloc steady-state delta",
    ),
    layer("train.stage_sum_ratio", "ratio", Lower, "check: 0.9-1.1"),
    layer("proto.encode_req_ns", "ns", Lower, "closed_p50_us, sat_rps"),
    layer("proto.decode_req_ns", "ns", Lower, "closed_p50_us, sat_rps"),
    layer("proto.encode_reply_ns", "ns", Lower, "closed_p50_us, sat_rps"),
    layer("proto.decode_reply_ns", "ns", Lower, "closed_p50_us, sat_rps"),
    layer(
        "recommender.recommend_us",
        "us",
        Lower,
        "closed_p50_us, open_p50_us, open_p95_us, sat_rps",
    ),
    layer("recommender.recommend_int8_us", "us", Lower, "closed_int8_p50_us"),
    layer("kernels.score_ns_per_cand", "ns", Lower, "closed_p50_us, sat_rps"),
    layer("kernels.score_int8_ns_per_cand", "ns", Lower, "closed_int8_p50_us"),
    layer(
        "kernels.bytes_per_request",
        "B",
        Lower,
        "closed_p50_us (computed: items x row bytes)",
    ),
    layer("recommender.filter_select_us", "us", Lower, "closed_p50_us"),
    layer("recommender.batch_recs_per_s", "1/s", Higher, "sat_rps"),
    layer(
        "net.overhead_us",
        "us",
        Lower,
        "closed_p50_us, lowload_p95_us, open_p50_us, open_p95_us",
    ),
    layer("net.batch_mean", "count", Higher, "sat_rps, open_p95_us"),
    layer("net.batches_per_s", "1/s", Lower, "sat_rps, open_p95_us"),
    layer("net.shed", "count", Lower, "ok_share"),
    layer(
        "gen.late_p50_us",
        "us",
        Lower,
        "validity of open_p50_us, open_p95_us, lowload_p95_us",
    ),
    layer(
        "gen.late_p99_us",
        "us",
        Lower,
        "validity of open_p50_us, open_p95_us, lowload_p95_us",
    ),
    layer("graph.check_bounds_us", "us", Lower, "delta_p50_ms, recover_ms"),
    layer("graph.apply_us", "us", Lower, "delta_p50_ms, recover_ms"),
    layer("core.reencode_us", "us", Lower, "delta_p50_ms, recover_ms, open_p95_us"),
    layer("core.rows_reencoded", "count", Lower, "delta_p50_ms, recover_ms"),
    layer("wal.append_us", "us", Lower, "delta_p50_ms"),
    layer("wal.sync_us", "us", Lower, "delta_p50_ms"),
    layer("wal.bytes_per_record", "B", Lower, "delta_p50_ms, recover_ms"),
    layer("delta.apply_us", "us", Lower, "delta_p50_ms, open_p95_us"),
    layer("delta.durable_apply_us", "us", Lower, "delta_p50_ms, open_p95_us"),
    layer("delta.patch_quant_us", "us", Lower, "delta_p50_ms, open_p95_us"),
    layer("delta.rtt_p99_ms", "ms", Lower, "diagnostic: tail of delta_p50_ms"),
    layer("recover.replayed", "count", Higher, "recover_ms"),
    layer("recover.replay_ms_per_record", "ms", Lower, "recover_ms"),
    layer("wal.compact_ms", "ms", Lower, "recover_ms"),
    layer("load.v2_map_ms", "ms", Lower, "setup_s, recover_ms"),
    layer("load.v1_decode_ms", "ms", Lower, "setup_s"),
    layer("load.mapped", "count", Higher, "setup_s, peak_rss_mb"),
    layer("trace.overhead_pct", "%", Lower, "bound on the tracing itself"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS),
            "run_seconds"
        );
        let names = |key: &str| -> Vec<&Json> { doc.get(key).and_then(Json::as_arr).unwrap().iter().collect() };
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = names("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (have, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(have, "name"), want.name);
            assert_eq!(text(have, "why"), want.why);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'), "{}", want.name);
        }
        let e2e = names("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(have, "name"), want.name);
            assert_eq!(text(have, "unit"), want.unit, "{}", want.name);
            assert_eq!(text(have, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(
                have.get("bound").and_then(Json::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
            assert!(want.bound <= 0.25);
        }
        let layers = names("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(have, "name"), want.name);
            assert_eq!(text(have, "unit"), want.unit, "{}", want.name);
            assert_eq!(text(have, "better"), want.better.as_str(), "{}", want.name);
        }
    }

    #[test]
    fn every_p99_phase_has_five_thousand_samples_at_the_default_length() {
        for w in &WORKLOADS {
            // Every slice discards its own warm-up.
            let floor = (crate::stats::SEGMENTS * (P99_MIN_PER_SEGMENT + WARMUP_REQUESTS)) as f64;
            assert!(LOW_RATE * w.low_share * DEFAULT_SECONDS >= floor, "{} lowload", w.name);
            assert!(w.open_rate * w.open_share * DEFAULT_SECONDS >= floor, "{} open", w.name);
            let shares =
                w.closed_share + w.closed_int8_share + w.sat_share + w.low_share + w.open_share + w.ingest_share;
            assert!(shares <= 1.0, "{}: phases take {shares} of the run", w.name);
            assert!(w.mixed == (w.ingest_share == 0.0), "{}", w.name);
        }
    }
}
