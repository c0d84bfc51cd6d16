//! `bench_suite`: this repository's benchmark. One pinned, fixed-rate,
//! self-checking pipeline — 4 workloads, 14 end-to-end metrics, a per-layer
//! budget for every module. See `README.md` beside this file.
//!
//! ```text
//! bench_suite --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//!             [--quick] [--repeat <n>] [--spans <file>] [--out <file>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. `--trace 0` (the default) reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.

mod check;
mod endtoend;
mod inputs;
mod json;
mod loadgen;
mod pin;
mod stack;
mod stats;
mod trace;
mod traced;
mod workloads;

use cdrib_tensor::alloc_track::CountingAlloc;
use endtoend::{Job, Report};
use json::Json;
use stack::{Ctx, Failure, Scratch, Watchdog};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Counts allocator requests, for the exact `*.allocs_*` metrics. The warm
/// paths under test allocate nothing, so the two relaxed increments per
/// request are not on them.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str = "usage: bench_suite --workload <train_mm_full|serve_small_net|serve_large_scan|ingest_mixed|all> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--repeat <n>] [--spans <file>] [--out <file>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: workloads::DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        spans: None,
        out: None,
    };
    let (mut seed_given, mut quick) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad())?;
                seed_given = true;
            }
            "--seconds" => args.seconds = value.parse().ok().filter(|s| *s >= 1.0).ok_or_else(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if quick {
        args.seconds = workloads::QUICK_SECONDS;
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    if args.workload != "all" && Workload::by_name(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// The commit of the checkout the benchmark runs in, when it is a git one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(format!(".git/{reference}")).map_or(String::new(), |s| s.trim().into())
        }
        None => head.to_string(),
    }
}

/// The metrics of the pass's table, in table order: name, unit, and what
/// the reader should hold the number against.
fn table(trace: bool) -> Vec<(&'static str, &'static str, String)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("{} is better; moves {}", m.better.as_str(), m.moves),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("{} is better; bound {} %", m.better.as_str(), m.bound * 100.0),
                )
            })
            .collect()
    }
}

fn result_line(rep: &Report, trace: bool) -> Result<String, Failure> {
    let mut metrics = Vec::new();
    for (name, unit, _) in table(trace) {
        let value = rep.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            json::number(value),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    ))
}

/// One workload, one pass, in this process.
fn run_leaf(w: &'static Workload, args: &Args) -> ExitCode {
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            return ExitCode::from(2);
        }
    };
    // The watcher starts before pinning so it is free to run anywhere.
    let watchdog = Watchdog::start(scratch.path(""));
    let mut ctx = Ctx {
        pinning: pin::Pinning::establish(),
        scratch,
        watchdog,
    };
    println!(
        "bench_suite: workload {} seed {} seconds {} pass {} | isa {} threads {} nproc {} pinned {} spinner {} commit {}",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "end-to-end" },
        cdrib_tensor::kernels::active_isa(),
        cdrib_tensor::kernels::parallelism(),
        ctx.pinning.nproc,
        ctx.pinning.pinned,
        ctx.pinning.spinning(),
        git_commit()
    );
    println!("  why: {}", w.why);
    let job = Job {
        w,
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = if args.trace {
        traced::run(job, &mut ctx).map(|(rep, tracer)| (rep, Some(tracer)))
    } else {
        endtoend::run(job, &mut ctx).map(|rep| (rep, None))
    };
    let (nproc, pinned, spinner) = (ctx.pinning.nproc, ctx.pinning.pinned, ctx.pinning.spinning());
    drop(ctx);
    let (rep, tracer) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("bench_suite: {}: FAILED: {e}", w.name);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };
    for line in &rep.lines {
        println!("  {line}");
    }
    for flag in &rep.unreliable {
        println!("  unreliable: {flag}");
    }
    for (name, unit, note) in table(args.trace) {
        match rep.get(name) {
            Some(value) => println!("{name} = {value} {unit}   ({note})"),
            None => println!("{name} = (not measured)"),
        }
    }
    println!(
        "attempted {} failed {} fail_share {}",
        rep.attempted,
        rep.failed,
        stats::fail_share(rep.failed, rep.attempted)
    );
    let line = match result_line(&rep, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(tracer)) = (&args.spans, &tracer) {
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            eprintln!("bench_suite: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.out {
        let full = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"isa\": {}, \"threads\": {}, \"nproc\": {nproc}, \"pinned\": {pinned}, \"spinner\": {spinner}, \"commit\": {}, \"unreliable\": [{}], \"result\": {line}}}\n",
            json::quote(w.name),
            args.seed,
            args.seconds,
            json::quote(cdrib_tensor::kernels::active_isa()),
            cdrib_tensor::kernels::parallelism(),
            json::quote(&git_commit()),
            rep.unreliable.iter().map(|f| json::quote(f)).collect::<Vec<_>>().join(", ")
        );
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("bench_suite: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Runs one leaf in a child process — a fresh process per run is what makes
/// `setup_s` and `peak_rss_mb` mean the same thing on every repeat — and
/// parses its result line.
fn run_child(workload: &str, seed: u64, args: &Args) -> Result<Vec<(String, f64)>, Failure> {
    let exe = std::env::current_exe().map_err(stack::fail("current_exe"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(stack::fail("child run"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: child exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(last)?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: not correct"));
    }
    let metrics = doc.get("metrics").and_then(Json::as_obj).ok_or("no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// Metrics that must repeat exactly when the seed repeats.
fn is_exact(name: &str) -> bool {
    name == "cold_mrr" || name.contains(".allocs_") || name == "recover.replayed" || name == "net.shed"
}

/// `--workload all` and `--repeat`: child runs, then the repeatability
/// summary. With `--repeat N` every workload runs on `N` consecutive seeds —
/// the spread of each end-to-end metric (quartile distance over median) must
/// stay within its bound — and once more on the first seed, where the exact
/// metrics must read the same.
fn run_many(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![&args.workload]
    };
    let repeat = args.repeat.unwrap_or(1);
    let mut ok = true;
    let mut summary = Vec::new();
    for name in names {
        let mut runs = Vec::new();
        for r in 0..repeat as u64 + u64::from(repeat > 1) {
            // The extra run repeats the first seed.
            let seed = args.seed + r % repeat as u64;
            match run_child(name, seed, args) {
                Ok(metrics) => runs.push(metrics),
                Err(e) => {
                    eprintln!("bench_suite: {e}");
                    ok = false;
                }
            }
        }
        if repeat < 2 || runs.len() != repeat + 1 {
            continue;
        }
        let again = runs.pop().expect("the extra run");
        for (i, (metric, first)) in runs[0].iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[i].1).collect();
            let spread = stats::quartile_spread(&values);
            let bound = END_TO_END.iter().find(|m| m.name == metric).map(|m| m.bound);
            let mut verdict = match bound {
                Some(b) if spread > b => {
                    ok = false;
                    format!("spread {spread:.4} EXCEEDS bound {b}")
                }
                Some(b) => format!("spread {spread:.4} within bound {b}"),
                None => format!("spread {spread:.4}"),
            };
            if is_exact(metric) && again[i].1 != *first {
                ok = false;
                verdict.push_str(&format!(
                    "; NOT EXACT: seed {} read {first} then {}",
                    args.seed, again[i].1
                ));
            }
            let mut sorted = values.clone();
            summary.push(format!(
                "{name:<17} {metric:<32} min {:<12.6} median {:<12.6} max {:<12.6} {verdict}",
                values.iter().copied().fold(f64::INFINITY, f64::min),
                stats::median(&mut sorted),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ));
        }
    }
    if !summary.is_empty() {
        println!("repeatability over {repeat} seeds from {}:", args.seed);
        for line in &summary {
            println!("{line}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Before the first kernel dispatch latches the thread count.
    std::env::set_var("CDRIB_NUM_THREADS", workloads::KERNEL_THREADS.to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match Workload::by_name(&args.workload) {
        Some(w) if args.repeat.is_none() => run_leaf(w, &args),
        _ => run_many(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse_args(&argv("--workload ingest_mixed --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ingest_mixed", 7, 20.0, true)
        );
        let q = parse_args(&argv("--workload all --seed 1 --quick --repeat 3")).unwrap();
        assert_eq!((q.seconds, q.repeat), (workloads::QUICK_SECONDS, Some(3)));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(
            parse_args(&argv("--workload all")).is_err(),
            "the seed is an argument, never a default"
        );
        assert!(parse_args(&argv("--workload all --seed 1 --trace yes")).is_err());
        assert!(parse_args(&argv("--workload all --seed 1 --seconds 0")).is_err());
    }

    #[test]
    fn result_line_carries_exactly_the_pass_table() {
        let mut rep = Report::default();
        for m in &END_TO_END {
            rep.metric(m.name, 1.25);
        }
        rep.metric("net.batch_mean", 3.0);
        rep.attempted = 10;
        let doc = json::parse(&result_line(&rep, false).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert!(
            result_line(&rep, true).is_err(),
            "a missing per-layer metric is an error, not a gap"
        );
    }
}
