//! Regenerates Figure 5: sensitivity to the Lagrangian multiplier `beta`
//! (both `beta_1` and `beta_2` set to the same value, swept 0.5 .. 2.0).
//!
//! Usage:
//! `cargo run --release -p cdrib-bench --bin fig5_beta -- [--scenario game-video] [--scale tiny] [--seeds 1]`

use cdrib_bench::{outln, over_seeds, run_cdrib_detailed, Args, ExperimentSettings};
use cdrib_data::ScenarioKind;
use cdrib_eval::{pct, TextTable};

fn main() {
    let args = Args::from_env();
    let settings = ExperimentSettings::from_args(&args);
    let kind = args.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse);
    let (x_name, y_name) = kind.domain_names();

    outln!(
        "Figure 5 — effect of the Lagrangian multiplier beta on {} (scale {:?}, {} seed(s))",
        kind.name(),
        settings.scale,
        settings.seeds.len()
    );
    outln!("Paper reference: the best beta depends on the interaction scale; denser scenarios prefer smaller beta.\n");

    let mut table = TextTable::new(vec![
        "beta",
        &format!("MRR (->{y_name})"),
        &format!("NDCG@10 (->{y_name})"),
        &format!("HR@10 (->{y_name})"),
        &format!("MRR (->{x_name})"),
        &format!("HR@10 (->{x_name})"),
    ]);
    for beta in [0.5f32, 1.0, 1.5, 2.0] {
        let cells = over_seeds(&settings.seeds, |seed| {
            let config = settings.cdrib_config(seed).with_beta(beta);
            let (r, _, _) = run_cdrib_detailed(&config, &settings.scenario(kind, seed), &settings, seed);
            vec![
                r.x_to_y.mrr,
                r.x_to_y.ndcg10,
                r.x_to_y.hr10,
                r.y_to_x.mrr,
                r.y_to_x.hr10,
            ]
        });
        let mut row = vec![format!("{beta:.1}")];
        row.extend(cells.iter().map(|c| pct(c.mean)));
        table.add_row(row);
    }
    outln!("{}", table.render());
}
