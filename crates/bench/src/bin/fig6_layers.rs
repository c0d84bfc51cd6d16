//! Regenerates Figure 6: impact of the number of VBGE propagation layers
//! (1 .. 4).
//!
//! Usage:
//! `cargo run --release -p cdrib-bench --bin fig6_layers -- [--scenario game-video] [--scale tiny] [--seeds 1]`

use cdrib_bench::{outln, over_seeds, run_cdrib_detailed, Args, ExperimentSettings};
use cdrib_data::ScenarioKind;
use cdrib_eval::{pct, TextTable};

fn main() {
    let args = Args::from_env();
    let settings = ExperimentSettings::from_args(&args);
    let kind = args.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse);
    let (x_name, y_name) = kind.domain_names();

    outln!(
        "Figure 6 — impact of the VBGE layer count on {} (scale {:?}, {} seed(s))",
        kind.name(),
        settings.scale,
        settings.seeds.len()
    );
    outln!("Paper reference: neighbourhood aggregation helps; 4 layers often drops below 3 due to over-smoothing.\n");

    let mut table = TextTable::new(vec![
        "layers",
        &format!("NDCG@10 (->{y_name})"),
        &format!("HR@10 (->{y_name})"),
        &format!("NDCG@10 (->{x_name})"),
        &format!("HR@10 (->{x_name})"),
        "train(s)",
    ]);
    for layers in 1..=4usize {
        let cells = over_seeds(&settings.seeds, |seed| {
            let config = settings.cdrib_config(seed).with_layers(layers);
            let (r, _, _) = run_cdrib_detailed(&config, &settings.scenario(kind, seed), &settings, seed);
            vec![
                r.x_to_y.ndcg10,
                r.x_to_y.hr10,
                r.y_to_x.ndcg10,
                r.y_to_x.hr10,
                r.train_seconds,
            ]
        });
        let mut row = vec![layers.to_string()];
        row.extend(cells[..4].iter().map(|c| pct(c.mean)));
        row.push(format!("{:.1}", cells[4].mean));
        table.add_row(row);
    }
    outln!("{}", table.render());
}
