//! Regenerates Table VII: the ablation study over CDRIB's regularizers
//! (`w/o In-IB&Con`, `w/o Con`, full CDRIB).
//!
//! Usage:
//! `cargo run --release -p cdrib-bench --bin table7_ablation -- [--scenario game-video | --all-scenarios] [--scale tiny] [--seeds 1]`

use cdrib_bench::{outln, over_seeds, run_cdrib_detailed, Args, ExperimentSettings};
use cdrib_core::CdribVariant;
use cdrib_data::ScenarioKind;
use cdrib_eval::{pct, TextTable};

fn main() {
    let args = Args::from_env();
    let settings = ExperimentSettings::from_args(&args);
    let kinds: Vec<ScenarioKind> = if args.get("all-scenarios").is_some() {
        ScenarioKind::ALL.to_vec()
    } else {
        vec![args.parse_or("scenario", ScenarioKind::GameVideo, ScenarioKind::parse)]
    };
    let variants = [
        CdribVariant::WithoutInDomainAndContrastive,
        CdribVariant::WithoutContrastive,
        CdribVariant::Full,
    ];

    outln!(
        "Table VII — ablation study (scale {:?}, {} seed(s))",
        settings.scale,
        settings.seeds.len()
    );
    outln!("Paper reference: full CDRIB > w/o Con > w/o In-IB&Con on every scenario and metric.\n");
    let mut table = TextTable::new(vec![
        "Scenario",
        "Direction",
        "Metric",
        "w/o In-IB&Con",
        "w/o Con",
        "CDRIB",
    ]);
    for kind in kinds {
        let (x_name, y_name) = kind.domain_names();
        let rows = [
            ("MRR", y_name),
            ("MRR", x_name),
            ("NDCG@10", y_name),
            ("NDCG@10", x_name),
            ("HR@10", y_name),
            ("HR@10", x_name),
        ];
        // Per seed: one scenario, every variant's six cells in `rows` order.
        let cells = over_seeds(&settings.seeds, |seed| {
            let scenario = settings.scenario(kind, seed);
            let mut cells = Vec::new();
            for v in variants {
                let config = settings.cdrib_config(seed).with_variant(v);
                let (r, _, _) = run_cdrib_detailed(&config, &scenario, &settings, seed);
                let (y, x) = (r.x_to_y, r.y_to_x);
                cells.extend([y.mrr, x.mrr, y.ndcg10, x.ndcg10, y.hr10, x.hr10]);
            }
            cells
        });
        for (i, (metric, target)) in rows.iter().enumerate() {
            let mut row = vec![
                if i % 2 == 0 {
                    kind.name().to_string()
                } else {
                    String::new()
                },
                format!("-> {target}"),
                metric.to_string(),
            ];
            row.extend(cells.chunks(rows.len()).map(|variant| pct(variant[i].mean)));
            table.add_row(row);
        }
    }
    outln!("{}", table.render());
}
