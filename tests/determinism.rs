//! End-to-end determinism: with a fixed seed, an experiment is a pure
//! function of its configuration — two training runs produce identical
//! per-epoch losses and identical embeddings, with the parallel kernel
//! subsystem enabled or not.

use cdrib::prelude::*;

fn run_once(seed: u64) -> (Vec<f32>, f32) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, seed).unwrap();
    let mut config = CdribConfig::fast_test();
    config.epochs = 4;
    config.seed = seed;
    let trained = train(&config, &scenario).unwrap();
    let losses: Vec<f32> = trained.report.epochs.iter().map(|e| e.loss).collect();
    let fingerprint = trained.embeddings.x_users.sum() + trained.embeddings.y_users.sum();
    (losses, fingerprint)
}

#[test]
fn same_seed_produces_identical_losses() {
    let (losses_a, fp_a) = run_once(11);
    let (losses_b, fp_b) = run_once(11);
    assert!(!losses_a.is_empty());
    // Bitwise equality, not tolerance: the kernels guarantee a fixed
    // accumulation order per element on a given machine.
    assert_eq!(losses_a, losses_b, "per-epoch losses must match bit-for-bit");
    assert_eq!(fp_a.to_bits(), fp_b.to_bits(), "embedding fingerprints must match");
}

#[test]
fn different_seeds_produce_different_trajectories() {
    let (losses_a, _) = run_once(11);
    let (losses_c, _) = run_once(12);
    assert_ne!(losses_a, losses_c, "distinct seeds should not collide");
}

/// Per-epoch losses (as `f32` bits) and an FNV-1a hash over the bits of the
/// four exported embedding tables, for tiny MusicMovie at the paper's dim 64
/// and 2 layers, 3 epochs, keyed by the active ISA tier. Recorded on x86_64
/// with `CDRIB_FORCE_ISA` pinning each tier, identical in the serial
/// (`--no-default-features`) and threaded builds. The fused tiers share one
/// trajectory; the portable tier rounds each multiply-add twice.
#[cfg(target_arch = "x86_64")]
const GOLDEN: &[(&str, [u32; 3], u64)] = &[
    ("portable", [1093447532, 1093126748, 1093015182], 0x247d53e54773b869),
    ("avx2+fma", [1093447531, 1093126748, 1093015182], 0x92548551045f0c85),
    ("avx512", [1093447531, 1093126748, 1093015182], 0x92548551045f0c85),
    ("avx512+vnni", [1093447531, 1093126748, 1093015182], 0x92548551045f0c85),
];

#[cfg(target_arch = "x86_64")]
#[test]
fn training_trajectory_matches_its_tiers_golden_bits() {
    // A change to the kernels, the tape or the storage that claims to be
    // bit-identical must leave this trajectory untouched on every tier; two
    // runs of one build (above) cannot catch a change that is not.
    let scenario = build_preset(ScenarioKind::MusicMovie, Scale::Tiny, 5).unwrap();
    let config = CdribConfig {
        epochs: 3,
        eval_every: 0,
        patience: 0,
        ..CdribConfig::default()
    };
    let trained = train(&config, &scenario).unwrap();
    let losses: Vec<u32> = trained.report.epochs.iter().map(|e| e.loss.to_bits()).collect();
    let e = &trained.embeddings;
    let mut hash: u64 = 0xcbf29ce484222325;
    for table in [&e.x_users, &e.x_items, &e.y_users, &e.y_items] {
        for v in table.as_slice() {
            hash = (hash ^ u64::from(v.to_bits())).wrapping_mul(0x100000001b3);
        }
    }
    let isa = cdrib::tensor::kernels::active_isa();
    let (_, want_losses, want_hash) = GOLDEN
        .iter()
        .find(|(tier, _, _)| *tier == isa)
        .unwrap_or_else(|| panic!("no golden trajectory for tier {isa}"));
    assert_eq!(losses, want_losses, "{isa}: per-epoch loss bits");
    assert_eq!(hash, *want_hash, "{isa}: embedding bits hash {hash:#018x}");
}
