//! # cdrib-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! CDRIB paper on the synthetic scenarios, plus Criterion micro-benchmarks of
//! the hot kernels. Each table/figure has its own binary (see DESIGN.md for
//! the index); this library holds the shared plumbing: CLI parsing, scenario
//! construction, method execution and row formatting.

#![warn(missing_docs)]

use cdrib_baselines::{BaselineOpts, Method};
use cdrib_core::{train, CdribConfig};
use cdrib_data::{build_preset, CdrScenario, Scale, ScenarioKind};
use cdrib_eval::{evaluate_both_directions, EvalConfig, EvalOutcome, EvalSplit, MeanStd, RankingMetrics, TextTable};

/// A very small `--key value` command-line parser (no external crates).
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn from_env() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Parses an explicit argument vector (used by tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        let mut pairs = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = if iter.peek().map(|v| !v.starts_with("--")).unwrap_or(false) {
                    iter.next().unwrap()
                } else {
                    "true".to_string()
                };
                pairs.push((key.to_string(), value));
            }
        }
        Args { pairs }
    }

    /// Returns the raw value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The value of `--key` read by `parse`, or `default` when the flag is
    /// absent; an error naming the flag and its value when `parse` refuses
    /// it.
    pub fn try_parse<T, E>(
        &self,
        key: &str,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => parse(raw).map_err(|_| format!("--{key} got unparseable value {raw:?}")),
        }
    }

    /// [`Args::try_parse`], exiting with status 2 on a bad value.
    pub fn parse_or<T, E>(&self, key: &str, default: T, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        self.try_parse(key, default, parse).unwrap_or_else(|e| die(&e))
    }

    /// Returns a parsed value or the default; a value that does not parse
    /// exits with status 2.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.parse_or(key, default, str::parse)
    }
}

/// Prints `msg` and exits with status 2: a bad command line.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `println!` for the paper bins: a reader that closes the pipe early
/// (`table2_stats | head -1`) ends the process with status 0 instead of a
/// panic. See [`write_line`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::write_line(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. A closed pipe (`BrokenPipe`) exits with
/// status 0, since the reader has all it asked for; any other write error
/// exits with status 1.
pub fn write_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// Common experiment settings shared by the table binaries.
#[derive(Debug, Clone)]
pub struct ExperimentSettings {
    /// Dataset scale.
    pub scale: Scale,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Evaluation negatives (0 = choose automatically from catalogue size).
    pub n_negatives: usize,
    /// Cap on evaluated cases per direction (0 = all).
    pub max_cases: usize,
    /// Training epochs for CDRIB.
    pub cdrib_epochs: usize,
    /// Training epochs for baselines.
    pub baseline_epochs: usize,
    /// Embedding dimension for every method.
    pub dim: usize,
}

impl ExperimentSettings {
    /// Builds settings from parsed CLI arguments.
    pub fn from_args(args: &Args) -> Self {
        let scale = args.parse_or("scale", Scale::Tiny, Scale::parse);
        let n_seeds = args.get_or("seeds", 1usize).max(1);
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|s| 2022 + s).collect();
        let (cdrib_epochs, baseline_epochs, dim) = match scale {
            Scale::Tiny => (120, 25, 32),
            Scale::Small => (100, 30, 64),
            Scale::Full => (80, 30, 64),
        };
        ExperimentSettings {
            scale,
            seeds,
            n_negatives: args.get_or("negatives", 0),
            max_cases: args.get_or("max-cases", 0),
            cdrib_epochs: args.get_or("epochs", cdrib_epochs),
            baseline_epochs: args.get_or("baseline-epochs", baseline_epochs),
            dim: args.get_or("dim", dim),
        }
    }

    /// The evaluation protocol configuration for a scenario.
    pub fn eval_config(&self, scenario: &CdrScenario, seed: u64) -> EvalConfig {
        let negatives = if self.n_negatives > 0 {
            self.n_negatives
        } else {
            cdrib_core::validation_negatives(scenario)
        };
        EvalConfig {
            n_negatives: negatives,
            seed: seed ^ 0xeba1,
            max_cases: if self.max_cases > 0 { Some(self.max_cases) } else { None },
        }
    }

    /// The CDRIB configuration used by the experiments.
    pub fn cdrib_config(&self, seed: u64) -> CdribConfig {
        CdribConfig {
            dim: self.dim,
            layers: 2,
            epochs: self.cdrib_epochs,
            eval_every: (self.cdrib_epochs / 5).max(1),
            patience: 0,
            max_val_cases: Some(400),
            seed,
            ..CdribConfig::default()
        }
    }

    /// The baseline budget used by the experiments.
    pub fn baseline_opts(&self, seed: u64) -> BaselineOpts {
        BaselineOpts {
            dim: self.dim,
            epochs: self.baseline_epochs,
            seed,
            ..BaselineOpts::default()
        }
    }

    /// Builds the scenario of a kind for a given seed.
    pub fn scenario(&self, kind: ScenarioKind, seed: u64) -> CdrScenario {
        build_preset(kind, self.scale, seed).expect("preset scenarios are valid")
    }
}

/// The metrics of one method on one scenario (both directions, test split).
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method display name.
    pub name: String,
    /// Metrics in direction `X -> Y` (evaluated in domain Y).
    pub x_to_y: RankingMetrics,
    /// Metrics in direction `Y -> X` (evaluated in domain X).
    pub y_to_x: RankingMetrics,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

impl MethodResult {
    /// The numbers of this result's row in a main-results table, in column
    /// order (see [`render_main_table`]).
    pub fn main_row(&self) -> Vec<f64> {
        let (y, x) = (&self.x_to_y, &self.y_to_x);
        vec![y.mrr, y.ndcg10, y.hr10, x.mrr, x.ndcg10, x.hr10, self.train_seconds]
    }
}

/// Runs `run` once per seed and folds the numbers it reports — the same
/// cells in the same order for every seed — into mean ± std per cell (the
/// paper's "mean over five runs"). A seed that has no value for a cell (an
/// empty bucket) reports NaN there and is left out of that cell.
pub fn over_seeds(seeds: &[u64], run: impl FnMut(u64) -> Vec<f64>) -> Vec<MeanStd> {
    let per_seed: Vec<Vec<f64>> = seeds.iter().copied().map(run).collect();
    (0..per_seed[0].len())
        .map(|cell| {
            let values: Vec<f64> = per_seed.iter().map(|row| row[cell]).filter(|v| !v.is_nan()).collect();
            MeanStd::of(&values)
        })
        .collect()
}

/// Trains and evaluates one baseline method.
pub fn run_baseline(method: Method, scenario: &CdrScenario, settings: &ExperimentSettings, seed: u64) -> MethodResult {
    let start = std::time::Instant::now();
    let scorer = method
        .train(scenario, &settings.baseline_opts(seed))
        .expect("baseline training failed");
    let train_seconds = start.elapsed().as_secs_f64();
    let (x2y, y2x) = evaluate_both_directions(
        &scorer,
        scenario,
        EvalSplit::Test,
        &settings.eval_config(scenario, seed),
    )
    .expect("evaluation failed");
    MethodResult {
        name: method.name().to_string(),
        x_to_y: x2y.metrics,
        y_to_x: y2x.metrics,
        train_seconds,
    }
}

/// Trains and evaluates CDRIB under `config` (the row is named after its
/// variant); returns the detailed outcomes too (used by the grouping
/// analysis of Table IX).
pub fn run_cdrib_detailed(
    config: &CdribConfig,
    scenario: &CdrScenario,
    settings: &ExperimentSettings,
    seed: u64,
) -> (MethodResult, EvalOutcome, EvalOutcome) {
    let start = std::time::Instant::now();
    let trained = train(config, scenario).expect("CDRIB training failed");
    let train_seconds = start.elapsed().as_secs_f64();
    let scorer = trained.scorer();
    let (x2y, y2x) = evaluate_both_directions(
        &scorer,
        scenario,
        EvalSplit::Test,
        &settings.eval_config(scenario, seed),
    )
    .expect("evaluation failed");
    (
        MethodResult {
            name: config.variant.label().to_string(),
            x_to_y: x2y.metrics,
            y_to_x: y2x.metrics,
            train_seconds,
        },
        x2y,
        y2x,
    )
}

/// Trains and evaluates full CDRIB.
pub fn run_cdrib(scenario: &CdrScenario, settings: &ExperimentSettings, seed: u64) -> MethodResult {
    run_cdrib_detailed(&settings.cdrib_config(seed), scenario, settings, seed).0
}

/// Renders one main-results table (the layout of Tables III-VI) from each
/// method's name and the seed statistics of its [`MethodResult::main_row`].
pub fn render_main_table(scenario_name: &str, x_name: &str, y_name: &str, rows: &[(String, Vec<MeanStd>)]) -> String {
    let mut table = TextTable::new(vec![
        "Method".to_string(),
        format!("{y_name}:MRR"),
        format!("{y_name}:NDCG@10"),
        format!("{y_name}:HR@10"),
        format!("{x_name}:MRR"),
        format!("{x_name}:NDCG@10"),
        format!("{x_name}:HR@10"),
        "train(s)".to_string(),
    ]);
    for (name, cells) in rows {
        let mut row = vec![name.clone()];
        row.extend(cells[..6].iter().map(|c| cdrib_eval::pct(c.mean)));
        row.push(format!("{:.1}", cells[6].mean));
        table.add_row(row);
    }
    format!("## {scenario_name}\n{}", table.render())
}

/// Parses the list of methods to run from the CLI (`all`, `quick`, or a
/// comma-separated list of names); an unknown name is an error naming it.
pub fn parse_methods(spec: Option<&str>) -> Result<Vec<Method>, String> {
    match spec.unwrap_or("all") {
        "all" => Ok(Method::ALL.to_vec()),
        "quick" => Ok(Method::QUICK.to_vec()),
        other => other
            .split(',')
            .map(|name| Method::parse(name.trim()).ok_or_else(|| format!("--methods got unknown method {name:?}")))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parser_handles_flags_and_values() {
        let a = Args::from_vec(vec![
            "--scale".into(),
            "tiny".into(),
            "--seeds".into(),
            "3".into(),
            "--flag".into(),
            "--scenario".into(),
            "music-movie".into(),
        ]);
        assert_eq!(a.get("scale"), Some("tiny"));
        assert_eq!(a.get_or("seeds", 1usize), 3);
        assert_eq!(a.get("flag"), Some("true"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.get_or("missing", 7u32), 7);
    }

    #[test]
    fn bad_flag_values_are_errors_naming_the_flag_and_the_value() {
        let a = Args::from_vec(
            ["--seeds", "x", "--scale", "huge", "--scenario", "bogus", "--dim"]
                .map(String::from)
                .to_vec(),
        );
        let err = a.try_parse("seeds", 1usize, str::parse::<usize>).unwrap_err();
        assert!(err.contains("--seeds") && err.contains("\"x\""), "{err}");
        let err = a.try_parse("scale", Scale::Tiny, Scale::parse).unwrap_err();
        assert!(err.contains("--scale") && err.contains("\"huge\""), "{err}");
        let err = a
            .try_parse("scenario", ScenarioKind::GameVideo, ScenarioKind::parse)
            .unwrap_err();
        assert!(err.contains("--scenario") && err.contains("\"bogus\""), "{err}");
        // A flag given without a value reads as `true`, which is no number.
        assert!(a.try_parse("dim", 8usize, str::parse::<usize>).is_err());
        // Absent flags take the default; good values parse.
        assert_eq!(a.try_parse("negatives", 5usize, str::parse::<usize>), Ok(5));
        let good = Args::from_vec(
            ["--scale", "small", "--scenario", "music-movie"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(good.parse_or("scale", Scale::Tiny, Scale::parse), Scale::Small);
        let kind = good.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse);
        assert_eq!(kind, ScenarioKind::MusicMovie);
    }

    #[test]
    fn settings_from_args_and_scenario_construction() {
        let args = Args::from_vec(vec!["--scale".into(), "tiny".into(), "--max-cases".into(), "50".into()]);
        let s = ExperimentSettings::from_args(&args);
        assert_eq!(s.scale, Scale::Tiny);
        assert_eq!(s.max_cases, 50);
        let scenario = s.scenario(ScenarioKind::GameVideo, 3);
        let cfg = s.eval_config(&scenario, 3);
        assert_eq!(cfg.max_cases, Some(50));
        assert!(cfg.n_negatives >= 10);
        assert!(s.cdrib_config(1).epochs > 0);
        assert!(s.baseline_opts(1).epochs > 0);
    }

    #[test]
    fn method_parsing_specs() {
        assert_eq!(parse_methods(Some("all")).unwrap().len(), Method::ALL.len());
        assert_eq!(parse_methods(Some("quick")).unwrap().len(), Method::QUICK.len());
        let custom = parse_methods(Some("BPRMF, SA-VAE"));
        assert_eq!(custom, Ok(vec![Method::Bprmf, Method::SaVae]));
        let err = parse_methods(Some("nonsense")).unwrap_err();
        assert!(err.contains("--methods") && err.contains("nonsense"), "{err}");
        assert!(parse_methods(Some("BPRMF,bogus")).is_err());
    }

    #[test]
    fn quick_end_to_end_row() {
        let args = Args::from_vec(vec!["--scale".into(), "tiny".into(), "--max-cases".into(), "30".into()]);
        let mut settings = ExperimentSettings::from_args(&args);
        settings.baseline_epochs = 2;
        settings.cdrib_epochs = 3;
        settings.dim = 8;
        let scenario = settings.scenario(ScenarioKind::GameVideo, 5);
        let row = run_baseline(Method::Bprmf, &scenario, &settings, 5);
        assert!(row.x_to_y.mrr > 0.0);
        let cd = run_cdrib(&scenario, &settings, 5);
        assert!(cd.y_to_x.mrr > 0.0);
        let rows: Vec<_> = [row, cd]
            .iter()
            .map(|r| (r.name.clone(), over_seeds(&[5], |_| r.main_row())))
            .collect();
        let rendered = render_main_table("Game-Video", "Game", "Video", &rows);
        assert!(rendered.contains("BPRMF"));
        assert!(rendered.contains("CDRIB"));
    }

    #[test]
    fn over_seeds_folds_each_cell_into_mean_and_std() {
        let mut seen = Vec::new();
        let cells = over_seeds(&[2, 4], |seed| {
            seen.push(seed);
            vec![seed as f64, 1.0, if seed == 2 { f64::NAN } else { 7.0 }]
        });
        assert_eq!(seen, [2, 4]);
        assert_eq!((cells[0].mean, cells[0].n), (3.0, 2));
        assert!((cells[0].std - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!((cells[1].mean, cells[1].std), (1.0, 0.0));
        // The seed without a value for the third cell is left out of it.
        assert_eq!((cells[2].mean, cells[2].n), (7.0, 1));
    }
}
