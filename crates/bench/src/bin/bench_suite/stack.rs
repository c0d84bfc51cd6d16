//! Set-up: scenario, model, frozen artifact, engines, servers — everything a
//! run builds before (and between) its timed phases — plus the scratch
//! directory and the watchdog.

use crate::inputs::{self, ScanParts};
use crate::loadgen::LoadGen;
use crate::pin::Pinning;
use crate::workloads::{self, Workload};
use cdrib_core::{save_serve_v2_file, train_model, CdribConfig, CdribModel};
use cdrib_data::{build_preset, CdrScenario, DomainId};
use cdrib_serve::{Recommender, RecoveryReport, ScoringPrecision, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Anything that stops a run: a set-up step that failed or a correctness
/// check that did not hold. Timed phases never panic on a failed request —
/// they count it.
pub type Failure = String;

pub fn fail<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> Failure + '_ {
    move |e| format!("{what}: {e}")
}

/// A unique directory for artifacts and logs, removed when dropped. It sits
/// beside the executable — inside the build directory, so inside the
/// checkout and ignored by git.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, Failure> {
        let exe = std::env::current_exe().map_err(fail("current_exe"))?;
        let parent = exe.parent().ok_or("executable has no parent directory")?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = parent.join(format!("bench_suite_tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(fail("create scratch directory"))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Removes every file a previous set-up or phase left.
    pub fn clear(&self) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Turns a wedged server into a failed run with a report instead of a hang:
/// every phase arms a deadline, and a background thread ends the process
/// when one passes. Blocking calls without a timeout of their own (server
/// shutdown joins, recovery) are covered the same way.
pub struct Watchdog {
    epoch: Instant,
}

static DEADLINE_NS: AtomicU64 = AtomicU64::new(u64::MAX);
static PHASE: Mutex<String> = Mutex::new(String::new());

impl Watchdog {
    /// Starts the watcher. `scratch_dir` is removed before the process ends.
    pub fn start(scratch_dir: PathBuf) -> Watchdog {
        let epoch = Instant::now();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(100));
            if epoch.elapsed().as_nanos() as u64 > DEADLINE_NS.load(Ordering::SeqCst) {
                let phase = PHASE.lock().map(|p| p.clone()).unwrap_or_default();
                eprintln!("bench_suite: watchdog: phase `{phase}` overran its budget; the run is failed");
                let _ = std::fs::remove_dir_all(&scratch_dir);
                std::process::exit(3);
            }
        });
        Watchdog { epoch }
    }

    /// Gives the phase called `phase` [`PHASE_BUDGET`] from now.
    fn arm(&self, phase: &str) {
        if let Ok(mut p) = PHASE.lock() {
            phase.clone_into(&mut p);
        }
        DEADLINE_NS.store(
            (self.epoch.elapsed() + PHASE_BUDGET).as_nanos() as u64,
            Ordering::SeqCst,
        );
    }
}

/// Longest any single phase may take before the watchdog ends the run; the
/// driver gives a whole run 180 s.
const PHASE_BUDGET: Duration = Duration::from_secs(150);

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the memory the finished stage freed back to the system, so that
/// `peak_rss_mb` is the largest stage's own footprint and not whatever the
/// allocator happened to keep from the stage before: glibc releases a freed
/// training heap or keeps it depending on what sits above it, which made the
/// same run peak at 23, 26 or 29 MiB. A no-op off glibc.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any time;
    // it only returns free heap pages to the system.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
}

/// What every phase of a run shares.
pub struct Ctx {
    pub pinning: Pinning,
    pub scratch: Scratch,
    pub watchdog: Watchdog,
}

impl Ctx {
    /// Marks the start of a phase for the watchdog.
    pub fn phase(&self, name: &str) {
        self.watchdog.arm(name);
    }

    pub fn spawn(&mut self, engine: Recommender) -> Result<Server, Failure> {
        self.pinning
            .on_server_cores(|| Server::spawn(engine, "127.0.0.1:0", workloads::server_config()))
            .map_err(fail("spawn server"))
    }

    /// Shuts a server down once its connections are closed, and hands what
    /// it held back to the system (see [`release_freed_memory`]).
    pub fn stop(&self, server: Server) {
        self.phase("server shutdown");
        server.shutdown();
        release_freed_memory();
    }

    pub fn connect(&self, server: &Server, conns: usize) -> Result<LoadGen, Failure> {
        LoadGen::connect(server.addr(), conns, self.pinning.pinned).map_err(fail("connect"))
    }

    /// Reads and connections a read phase spreads over: at most one per core.
    pub fn read_conns(&self) -> usize {
        self.pinning.nproc.clamp(1, 2)
    }
}

/// A scenario and the model built on it.
pub struct Stack {
    pub scenario: CdrScenario,
    pub model: CdribModel,
}

pub fn training_config(w: &Workload, seed: u64, epochs: usize) -> CdribConfig {
    CdribConfig {
        dim: w.dim,
        layers: 2,
        epochs,
        eval_every: 10,
        patience: 0,
        seed,
        ..CdribConfig::default()
    }
}

pub fn build_scenario(w: &Workload) -> Result<CdrScenario, Failure> {
    let (kind, scale) = w.preset;
    build_preset(kind, scale, workloads::SCENARIO_SEED).map_err(fail("build preset"))
}

/// The stack the serving stages freeze and serve. It is game_video/small on
/// every workload, so a serving metric means the same engine wherever the
/// workload does not bring its own (the scan engine): a workload that trains
/// that preset serves the model it trained, and `train_mm_full` — whose own
/// model no serving layer ever sees — trains one here, untimed, as
/// `serve_small_net` would in a run of `train_for` seconds (`None`: a fresh
/// model, which is what set-up freezes).
pub fn serving_stack(w: &Workload, own: Stack, seed: u64, train_for: Option<f64>) -> Result<Stack, Failure> {
    let served = workloads::served_model();
    if w.preset == served.preset {
        return Ok(own);
    }
    drop(own);
    let scenario = build_scenario(served)?;
    let config = training_config(served, seed, train_for.map_or(1, |seconds| served.epochs(seconds)));
    let mut model = CdribModel::new(&config, &scenario).map_err(fail("served model init"))?;
    if train_for.is_some() {
        train_model(&mut model, &config, &scenario).map_err(fail("served model training"))?;
    }
    Ok(Stack { scenario, model })
}

/// `[x, y]` user and item counts of an engine.
pub fn entity_counts(engine: &Recommender) -> ([usize; 2], [usize; 2]) {
    let scorer = engine.scorer();
    (
        [scorer.x_users.rows(), scorer.y_users.rows()],
        [engine.catalogue_size(DomainId::X), engine.catalogue_size(DomainId::Y)],
    )
}

/// Where a run's engines come from: the frozen artifact, and for a scan
/// workload the synthetic parts.
pub struct EngineSource {
    pub base: PathBuf,
    pub scan: Option<ScanParts>,
}

impl EngineSource {
    /// Freezes the model into a serve v2 container at `base`, with int8
    /// mirrors and the model embedded (so the same file is the base of the
    /// durable engine), and generates the scan parts when the workload has
    /// them.
    pub fn new(w: &Workload, stack: &Stack, seed: u64, base: PathBuf) -> Result<EngineSource, Failure> {
        save_serve_v2_file(&stack.model, &stack.scenario, true, true, &base).map_err(fail("save serve v2"))?;
        Ok(EngineSource {
            base,
            scan: w.scan.map(|shape| inputs::scan_parts(shape, seed)),
        })
    }

    /// The static engine of the frozen model, served off the map.
    pub fn model_engine(&self, precision: ScoringPrecision) -> Result<Recommender, Failure> {
        let mut engine = Recommender::from_serve_v2_file(&self.base).map_err(fail("load serve v2"))?;
        engine.set_precision(precision);
        Ok(engine)
    }

    /// The engine of the scan-sensitive phases: the synthetic one when the
    /// workload has it, the model's otherwise.
    pub fn scan_engine(&self, precision: ScoringPrecision) -> Result<Recommender, Failure> {
        let Some(parts) = &self.scan else {
            return self.model_engine(precision);
        };
        let parts = parts.clone();
        let mut engine = Recommender::new(parts.scorer, parts.seen_x, parts.seen_y).map_err(fail("scan engine"))?;
        engine.set_precision(precision);
        Ok(engine)
    }

    /// The durable, delta-capable int8 engine over a write-ahead log.
    pub fn durable_engine(&self, wal: &Path) -> Result<(Recommender, RecoveryReport), Failure> {
        let (mut engine, report) = Recommender::recover(&self.base, wal).map_err(fail("recover"))?;
        engine.set_precision(ScoringPrecision::Int8);
        Ok((engine, report))
    }

    /// A delta-capable int8 engine without a log: the twin that applies the
    /// same deltas directly.
    pub fn online_twin(&self) -> Result<Recommender, Failure> {
        let mut engine = Recommender::from_serve_v2_file_online(&self.base).map_err(fail("load online twin"))?;
        engine.set_precision(ScoringPrecision::Int8);
        Ok(engine)
    }
}

/// One complete set-up, torn down again: the workload's scenario and model,
/// the served stack, its artifact, the three engines, a server, a connection
/// and the warm-up requests. Returns its wall time.
pub fn timed_set_up(w: &Workload, seed: u64, ctx: &mut Ctx) -> Result<f64, Failure> {
    ctx.phase("set-up");
    let start = Instant::now();
    let scenario = build_scenario(w)?;
    let model = CdribModel::new(&training_config(w, seed, 1), &scenario).map_err(fail("model init"))?;
    let stack = serving_stack(w, Stack { scenario, model }, seed, None)?;
    let source = EngineSource::new(w, &stack, seed, ctx.scratch.path("setup.cdr2"))?;
    let engine = source.scan_engine(ScoringPrecision::F32)?;
    let int8 = source.scan_engine(ScoringPrecision::Int8)?;
    let durable = source.durable_engine(&ctx.scratch.path("setup.wal"))?;
    let (n_users, _) = entity_counts(&engine);
    let server = ctx.spawn(engine)?;
    let mut gen = ctx.connect(&server, 1)?;
    for request in inputs::request_mix(n_users, workloads::WARMUP_REQUESTS, seed, "setup-warmup") {
        gen.ask(&request).map_err(fail("set-up warm-up request"))?;
    }
    drop((gen, int8, durable));
    server.shutdown();
    let elapsed = start.elapsed().as_secs_f64();
    ctx.scratch.clear();
    Ok(elapsed)
}
