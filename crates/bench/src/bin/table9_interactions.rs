//! Regenerates Table IX: cold-start performance grouped by the number of
//! interactions the user has in the source domain (CDRIB vs SA-VAE).
//!
//! Usage:
//! `cargo run --release -p cdrib-bench --bin table9_interactions -- [--scenario game-video] [--scale tiny] [--seeds 1]`

use cdrib_baselines::Method;
use cdrib_bench::{outln, over_seeds, run_cdrib_detailed, Args, ExperimentSettings};
use cdrib_data::{Direction, ScenarioKind};
use cdrib_eval::{evaluate_cold_start, group_by_source_interactions, pct, EvalSplit, InteractionBucket, TextTable};

fn main() {
    let args = Args::from_env();
    let settings = ExperimentSettings::from_args(&args);
    let kind = args.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse);
    let (x_name, y_name) = kind.domain_names();

    outln!(
        "Table IX — performance by source-domain interaction count, {} -> {} direction ({}, scale {:?}, {} seed(s))",
        x_name,
        y_name,
        kind.name(),
        settings.scale,
        settings.seeds.len()
    );
    outln!("Paper reference: more source interactions generally help, with fluctuations in sparse buckets;");
    outln!("CDRIB beats SA-VAE in every bucket.\n");

    // Per seed and bucket: the case count, then CDRIB's and SA-VAE's three
    // metrics (NaN where the seed's bucket is empty).
    let cells = over_seeds(&settings.seeds, |seed| {
        let scenario = settings.scenario(kind, seed);
        let (_, cdrib_x2y, _) = run_cdrib_detailed(&settings.cdrib_config(seed), &scenario, &settings, seed);
        let savae = Method::SaVae
            .train(&scenario, &settings.baseline_opts(seed))
            .expect("SA-VAE training");
        let savae_x2y = evaluate_cold_start(
            &savae,
            &scenario,
            Direction::X_TO_Y,
            EvalSplit::Test,
            &settings.eval_config(&scenario, seed),
        )
        .expect("evaluation");
        let cdrib_groups = group_by_source_interactions(&scenario, Direction::X_TO_Y, &cdrib_x2y);
        let savae_groups = group_by_source_interactions(&scenario, Direction::X_TO_Y, &savae_x2y);
        let mut cells = Vec::new();
        for (c, s) in cdrib_groups.iter().zip(&savae_groups) {
            cells.push(c.n_cases as f64);
            for group in [c, s] {
                cells.extend(match &group.metrics {
                    Some(m) => [m.mrr, m.ndcg10, m.hr10],
                    None => [f64::NAN; 3],
                });
            }
        }
        cells
    });

    let mut table = TextTable::new(vec![
        "#Inter",
        "#cases",
        "CDRIB MRR",
        "CDRIB NDCG@10",
        "CDRIB HR@10",
        "SA-VAE MRR",
        "SA-VAE NDCG@10",
        "SA-VAE HR@10",
    ]);
    for (bucket, cells) in InteractionBucket::ALL
        .iter()
        .zip(cells.chunks(cells.len() / InteractionBucket::ALL.len()))
    {
        // Cases summed over the seeds; a bucket empty in every seed prints "-".
        let mut row = vec![
            bucket.label().to_string(),
            format!("{:.0}", cells[0].mean * cells[0].n as f64),
        ];
        row.extend(
            cells[1..]
                .iter()
                .map(|c| if c.n == 0 { "-".into() } else { pct(c.mean) }),
        );
        table.add_row(row);
    }
    outln!("{}", table.render());
}
