//! Regenerates Table VIII: robustness to the proportion of overlapping users
//! available as cross-domain bridges during training (CDRIB vs SA-VAE).
//!
//! Usage:
//! `cargo run --release -p cdrib-bench --bin table8_overlap -- [--scenario game-video] [--scale tiny] [--seeds 1]`

use cdrib_baselines::Method;
use cdrib_bench::{outln, over_seeds, run_baseline, run_cdrib, Args, ExperimentSettings};
use cdrib_data::{with_overlap_ratio, ScenarioKind, TABLE8_RATIOS};
use cdrib_eval::{pct, TextTable};

fn main() {
    let args = Args::from_env();
    let settings = ExperimentSettings::from_args(&args);
    let kind = args.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse);
    let (x_name, y_name) = kind.domain_names();

    outln!(
        "Table VIII — overlap-ratio robustness on {} (scale {:?}, {} seed(s))",
        kind.name(),
        settings.scale,
        settings.seeds.len()
    );
    outln!(
        "Paper reference: performance improves monotonically with the ratio and CDRIB beats SA-VAE at every ratio.\n"
    );

    let mut table = TextTable::new(vec![
        "Ratio",
        &format!("CDRIB MRR (->{y_name})"),
        &format!("CDRIB HR@10 (->{y_name})"),
        &format!("CDRIB MRR (->{x_name})"),
        "SA-VAE MRR",
        "SA-VAE HR@10",
    ]);
    // Per seed: one scenario, every ratio's cells in column order. Both
    // methods train on the reduced bridge set (SA-VAE's mapping sees fewer
    // overlap users).
    let cells = over_seeds(&settings.seeds, |seed| {
        let scenario = settings.scenario(kind, seed);
        let mut cells = Vec::new();
        for &ratio in &TABLE8_RATIOS {
            let reduced = with_overlap_ratio(&scenario, ratio, seed).expect("valid ratio");
            let cdrib = run_cdrib(&reduced, &settings, seed);
            let savae = run_baseline(Method::SaVae, &reduced, &settings, seed);
            cells.extend([
                cdrib.x_to_y.mrr,
                cdrib.x_to_y.hr10,
                cdrib.y_to_x.mrr,
                savae.x_to_y.mrr,
                savae.x_to_y.hr10,
            ]);
        }
        cells
    });
    for (ratio, cells) in TABLE8_RATIOS
        .iter()
        .zip(cells.chunks(cells.len() / TABLE8_RATIOS.len()))
    {
        let mut row = vec![format!("{:.0}%", ratio * 100.0)];
        row.extend(cells.iter().map(|c| pct(c.mean)));
        table.add_row(row);
    }
    outln!("{}", table.render());
}
