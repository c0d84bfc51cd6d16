//! `cdrib-served` — the batched TCP serving front-end as a standalone
//! process.
//!
//! Boots a [`cdrib_serve::Server`] over one of three engine sources and
//! parks until a client sends a `Shutdown` frame:
//!
//! ```text
//! cdrib-served [--addr 127.0.0.1:0]
//!              [--preset tiny|small|full] [--seed 42]     # deterministic preset engine
//!              [--artifact PATH | --v2 PATH]              # serve a frozen artifact
//!              [--wal PATH]                               # replay a delta WAL on top
//!              [--max-batch 256] [--max-wait-us 200]      # caps on one tick's burst, see below
//!              [--queue-cap 512] [--workers N]
//! ```
//!
//! `--max-batch` and `--max-wait-us` cap how large and how long one
//! coalescer tick may keep absorbing a *continuous* burst. Neither is a
//! delay: the tick drains as soon as arrivals stall, so a quiet server
//! answers a lone request without waiting (`--max-wait-us 0` skips the
//! window and drains whatever is queued).
//!
//! Prints `cdrib-served listening on ADDR` on stdout once bound — whoever
//! spawned the process (`tests/served_binary.rs`) parses that line to find
//! the ephemeral port.

use cdrib_serve::net::preset_engine;
use cdrib_serve::recommender::Recommender;
use cdrib_serve::{Server, ServerConfig};
use std::time::Duration;

/// Minimal `--key value` parser (the serve crate cannot depend on the
/// bench crate's `Args` without a dependency cycle).
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn from_env() -> Args {
        let mut pairs = Vec::new();
        let mut iter = std::env::args().skip(1);
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                die(&format!("unexpected positional argument {key:?}"));
            };
            let Some(value) = iter.next() else {
                die(&format!("--{name} expects a value"));
            };
            pairs.push((name.to_string(), value));
        }
        Args { pairs }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| die(&format!("--{name} got unparseable value {raw:?}"))),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("cdrib-served: {msg}");
    std::process::exit(2);
}

fn build_engine(args: &Args) -> Recommender {
    let seed = args.parse_or("seed", 42u64);
    let base = args.get("v2").or_else(|| args.get("artifact"));
    if let Some(wal) = args.get("wal") {
        // WAL replay needs a durable base: a serve v2 container (a fresh
        // freeze, or what compaction wrote) or a frozen model artifact;
        // `Recommender::recover` tells them apart by the CDR2 magic.
        let Some(base) = base else {
            die("--wal requires --artifact or --v2 as the recovery base");
        };
        let started = std::time::Instant::now();
        let (engine, report) = Recommender::recover(base, wal)
            .unwrap_or_else(|e| die(&format!("recovery from {base} + {wal} failed: {e}")));
        eprintln!(
            "cdrib-served: recovered to epoch {} ({} WAL records applied, {} rows re-encoded once, in {:.1} ms)",
            engine.epoch(),
            report.replayed,
            report.rows_reencoded,
            started.elapsed().as_secs_f64() * 1e3
        );
        return engine;
    }
    let engine = if let Some(path) = args.get("v2") {
        // Zero-copy *and* delta-capable: IngestDelta frames must work.
        Recommender::from_serve_v2_file_online(path)
    } else if let Some(path) = args.get("artifact") {
        std::fs::read(path)
            .map_err(|e| cdrib_serve::ServeError::Artifact(cdrib_tensor::artifact::ArtifactError::Io(e)))
            .and_then(|bytes| Recommender::from_artifact_bytes_online(&bytes))
    } else {
        let preset = args.get("preset").unwrap_or("tiny");
        preset_engine(preset, seed).map(|(rec, _scenario)| rec)
    };
    engine.unwrap_or_else(|e| die(&format!("engine construction failed: {e}")))
}

fn main() {
    let args = Args::from_env();
    let engine = build_engine(&args);
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        max_batch: args.parse_or("max-batch", defaults.max_batch),
        max_wait: Duration::from_micros(args.parse_or("max-wait-us", defaults.max_wait.as_micros() as u64)),
        queue_capacity: args.parse_or("queue-cap", defaults.queue_capacity),
        workers: args.parse_or("workers", defaults.workers),
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let server =
        Server::spawn(engine, addr.as_str(), config).unwrap_or_else(|e| die(&format!("bind {addr} failed: {e}")));
    // Spawners parse this exact line for the port.
    println!("cdrib-served listening on {}", server.addr());
    server.wait();
    let stats = server.stats();
    server.shutdown();
    eprintln!(
        "cdrib-served: shut down after {} accepted / {} served / {} shed / {} deltas / {} batches",
        stats.accepted, stats.served, stats.shed, stats.deltas_applied, stats.batches
    );
}
