//! Regenerates the main results tables (Tables III-VI): every compared method
//! on one bi-directional CDR scenario.
//!
//! Usage:
//! `cargo run --release -p cdrib-bench --bin table3_6_main -- --scenario music-movie [--scale tiny] [--seeds 1] [--methods all|quick|BPRMF,SA-VAE] [--max-cases 0]`

use cdrib_bench::{
    die, outln, over_seeds, parse_methods, render_main_table, run_baseline, run_cdrib, Args, ExperimentSettings,
    MethodResult,
};
use cdrib_data::{CdrScenario, ScenarioKind};

fn main() {
    let args = Args::from_env();
    let settings = ExperimentSettings::from_args(&args);
    let kind = args.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse);
    let methods = parse_methods(args.get("methods")).unwrap_or_else(|e| die(&e));
    let (x_name, y_name) = kind.domain_names();

    outln!(
        "Main results table for {} (scale {:?}, {} seed(s), methods: {})",
        kind.name(),
        settings.scale,
        settings.seeds.len(),
        methods.iter().map(|m| m.name()).collect::<Vec<_>>().join(", ")
    );
    outln!("Paper reference (Tables III-VI): CDRIB outperforms every baseline on all four scenarios;");
    outln!("EMCDR-family > single-domain CF; graph methods > plain MF.\n");

    let mut rows = Vec::new();
    let mut add_row = |name: &str, run: &dyn Fn(&CdrScenario, u64) -> MethodResult| {
        let cells = over_seeds(&settings.seeds, |seed| {
            run(&settings.scenario(kind, seed), seed).main_row()
        });
        outln!("  {name}: X->Y MRR over seeds = {}", cells[0].format(4));
        rows.push((name.to_string(), cells));
    };
    for &method in &methods {
        add_row(method.name(), &|scenario, seed| {
            run_baseline(method, scenario, &settings, seed)
        });
    }
    add_row("CDRIB", &|scenario, seed| run_cdrib(scenario, &settings, seed));

    outln!();
    outln!("{}", render_main_table(kind.name(), x_name, y_name, &rows));
    // Best-direction MRR: the larger of the two `MRR` columns of a row.
    let best_mrr = |cells: &[cdrib_eval::MeanStd]| cells[0].mean.max(cells[3].mean);
    if let Some((_, cdrib)) = rows.last() {
        let best_baseline = rows[..rows.len() - 1]
            .iter()
            .map(|(_, cells)| best_mrr(cells))
            .fold(0.0f64, f64::max);
        let cdrib_best = best_mrr(cdrib);
        outln!(
            "CDRIB vs best baseline (best-direction MRR): {:.4} vs {:.4} ({})",
            cdrib_best,
            best_baseline,
            if cdrib_best > best_baseline {
                "CDRIB wins, as in the paper"
            } else {
                "baseline wins on this run"
            }
        );
    }
}
