//! Regenerates Table II: statistics of the four CDR scenarios.
//!
//! Usage: `cargo run --release -p cdrib-bench --bin table2_stats -- [--scale tiny|small|full] [--seed N]`

use cdrib_bench::{outln, Args};
use cdrib_data::{build_preset, Scale, ScenarioKind};
use cdrib_eval::TextTable;

fn main() {
    let args = Args::from_env();
    let scale = args.parse_or("scale", Scale::Small, Scale::parse);
    let seed: u64 = args.get_or("seed", 2022);

    let mut table = TextTable::new(vec![
        "Scenario",
        "Domain",
        "|U|",
        "|V|",
        "Training",
        "#Overlap",
        "Validation",
        "Test",
        "#Cold-start",
        "Density",
    ]);
    outln!("Table II — statistics of the synthetic CDR scenarios (scale {scale:?}, seed {seed})");
    outln!("(Paper reference: Music-Movie is the largest pair, Game-Video the smallest and densest.)\n");
    for kind in ScenarioKind::ALL {
        let scenario = build_preset(kind, scale, seed).expect("preset scenario");
        let stats = scenario.stats();
        for (dom, overlap) in [(&stats.domain_x, stats.n_train_overlap), (&stats.domain_y, 0)] {
            table.add_row(vec![
                if overlap > 0 { stats.name.clone() } else { String::new() },
                dom.name.clone(),
                dom.n_users.to_string(),
                dom.n_items.to_string(),
                dom.n_train.to_string(),
                if overlap > 0 {
                    overlap.to_string()
                } else {
                    String::new()
                },
                dom.n_validation.to_string(),
                dom.n_test.to_string(),
                dom.n_cold_start_users.to_string(),
                format!("{:.2}%", dom.density_percent),
            ]);
        }
    }
    outln!("{}", table.render());
}
