//! Integration tests of the baseline suite against the shared evaluation
//! protocol, and of the comparative claims the experiment harness relies on.

use cdrib::prelude::*;

#[test]
fn representative_baselines_produce_valid_metrics() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 201).unwrap();
    let opts = BaselineOpts {
        dim: 8,
        epochs: 4,
        ..BaselineOpts::default()
    };
    let eval_cfg = EvalConfig {
        n_negatives: 30,
        seed: 1,
        max_cases: Some(60),
    };
    for method in Method::QUICK {
        let scorer = method.train(&scenario, &opts).unwrap();
        let (x2y, y2x) = evaluate_both_directions(&scorer, &scenario, EvalSplit::Test, &eval_cfg).unwrap();
        assert!(x2y.metrics.is_normalized(), "{}", method.name());
        assert!(y2x.metrics.is_normalized(), "{}", method.name());
    }
}

#[test]
fn trained_baseline_ranks_observed_interactions_highly() {
    // BPRMF on the merged graph must rank a user's observed (warm) items
    // above random non-interacted items; cold-start transfer is exactly what
    // single-domain baselines are bad at (paper §IV-C1), so that is not
    // asserted here — the comparative tables cover it.
    let scenario = build_preset(ScenarioKind::ClothSport, Scale::Tiny, 202).unwrap();
    let opts = BaselineOpts {
        dim: 32,
        epochs: 25,
        ..BaselineOpts::default()
    };
    let scorer = Method::Bprmf.train(&scenario, &opts).unwrap();
    // Pairwise accuracy on domain-X training edges using in-domain scores.
    let graph = &scenario.x.train;
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut scores = [0.0f32; 2];
    for (u, i) in graph.edges().take(500) {
        let neg = (i as usize + 17) % scenario.x.n_items;
        if graph.has_edge(u as usize, neg) {
            continue;
        }
        scorer.score_cross_into(DomainId::X, u, DomainId::X, &[i, neg as u32], &mut scores);
        total += 1;
        if scores[0] > scores[1] {
            correct += 1;
        }
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.7, "BPRMF pairwise accuracy on warm interactions too low: {acc}");
}

#[test]
fn emcdr_mapping_differs_from_raw_pretraining() {
    // The EMCDR scorer must not be identical to the underlying BPRMF scorer:
    // the mapping moves the user tables into the other domain's space.
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 203).unwrap();
    let opts = BaselineOpts {
        dim: 8,
        epochs: 4,
        ..BaselineOpts::default()
    };
    let emcdr = Method::EmcdrBprmf.train(&scenario, &opts).unwrap();
    let plain = Method::Bprmf.train(&scenario, &opts).unwrap();
    assert_ne!(emcdr.x_users.as_slice(), plain.x_users.as_slice());
}

#[test]
fn method_registry_is_consistent_with_paper_tables() {
    // Tables III-VI list 13 comparison methods besides CDRIB.
    assert_eq!(Method::ALL.len(), 13);
    let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
    for expected in [
        "CML",
        "BPRMF",
        "NGCF",
        "CoNet",
        "STAR",
        "PPGN",
        "EMCDR(CML)",
        "EMCDR(BPRMF)",
        "EMCDR(NGCF)",
        "SSCDR",
        "TMCDR",
        "SA-VAE",
        "VBGE",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
}
