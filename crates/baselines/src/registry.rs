//! A method registry so experiment runners can iterate over every compared
//! approach exactly as the paper's tables do.

use crate::common::{BaselineOpts, MergedGraph};
use crate::emcdr::{train_emcdr, EmcdrConfig, Pretrainer};
use crate::gcn::train_gcn;
use crate::mf::{train_bprmf, train_cml, MfModel};
use crate::neural::{train_conet, train_star};
use crate::vgae::train_vgae;
use cdrib_data::{CdrScenario, DomainId, Result};
use cdrib_eval::{EmbeddingScorer, ScoreKind};
use serde::{Deserialize, Serialize};

/// Every baseline method compared in Tables III-VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Collaborative metric learning on the merged graph.
    Cml,
    /// BPR matrix factorisation on the merged graph.
    Bprmf,
    /// GCN collaborative filtering (NGCF) on the merged graph.
    Ngcf,
    /// Single-domain variational bipartite graph encoder (VGAE objective).
    Vbge,
    /// CoNet-style shared towers with cross connections.
    CoNet,
    /// STAR-style shared-plus-domain-specific embeddings.
    Star,
    /// PPGN-style GCN over the joint cross-domain graph.
    Ppgn,
    /// EMCDR with CML pre-training.
    EmcdrCml,
    /// EMCDR with BPRMF pre-training.
    EmcdrBprmf,
    /// EMCDR with NGCF pre-training.
    EmcdrNgcf,
    /// SSCDR (neighbour-supervised mapping).
    Sscdr,
    /// TMCDR (episodic / meta mapping).
    Tmcdr,
    /// SA-VAE (variational pre-training and mapping).
    SaVae,
}

impl Method {
    /// All methods in the row order of the paper's tables.
    pub const ALL: [Method; 13] = [
        Method::Cml,
        Method::Bprmf,
        Method::Ngcf,
        Method::CoNet,
        Method::Star,
        Method::Ppgn,
        Method::EmcdrCml,
        Method::EmcdrBprmf,
        Method::EmcdrNgcf,
        Method::Sscdr,
        Method::Tmcdr,
        Method::SaVae,
        Method::Vbge,
    ];

    /// A representative subset used by quick sweeps.
    pub const QUICK: [Method; 5] = [
        Method::Bprmf,
        Method::Ngcf,
        Method::EmcdrBprmf,
        Method::SaVae,
        Method::Vbge,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Cml => "CML",
            Method::Bprmf => "BPRMF",
            Method::Ngcf => "NGCF",
            Method::Vbge => "VBGE",
            Method::CoNet => "CoNet",
            Method::Star => "STAR",
            Method::Ppgn => "PPGN",
            Method::EmcdrCml => "EMCDR(CML)",
            Method::EmcdrBprmf => "EMCDR(BPRMF)",
            Method::EmcdrNgcf => "EMCDR(NGCF)",
            Method::Sscdr => "SSCDR",
            Method::Tmcdr => "TMCDR",
            Method::SaVae => "SA-VAE",
        }
    }

    /// Trains the method on a scenario and returns its cold-start scorer.
    pub fn train(&self, scenario: &CdrScenario, opts: &BaselineOpts) -> Result<EmbeddingScorer> {
        match self {
            Method::Cml => {
                let merged = MergedGraph::new(scenario)?;
                let model = train_cml(&merged.graph, opts)?;
                Ok(split_merged(&model, &merged, scenario, ScoreKind::NegativeDistance))
            }
            Method::Bprmf => {
                let merged = MergedGraph::new(scenario)?;
                let model = train_bprmf(&merged.graph, opts)?;
                Ok(split_merged(&model, &merged, scenario, ScoreKind::Dot))
            }
            Method::Ngcf => {
                let merged = MergedGraph::new(scenario)?;
                let model = train_gcn(&merged.graph, opts, 2)?;
                Ok(split_merged(&model, &merged, scenario, ScoreKind::Dot))
            }
            Method::Ppgn => {
                // PPGN propagates preferences through the joint cross-domain
                // graph; the shared user prefix of the merged graph plays the
                // role of its shared embedding layer. Three GCN hops as in the
                // original.
                let merged = MergedGraph::new(scenario)?;
                let model = train_gcn(&merged.graph, opts, 3)?;
                Ok(split_merged(&model, &merged, scenario, ScoreKind::Dot))
            }
            Method::Vbge => {
                let merged = MergedGraph::new(scenario)?;
                let model = train_vgae(&merged.graph, opts, 1)?;
                Ok(split_merged(&model, &merged, scenario, ScoreKind::Dot))
            }
            Method::CoNet => train_conet(scenario, opts),
            Method::Star => train_star(scenario, opts),
            Method::EmcdrCml => train_emcdr(scenario, opts, &EmcdrConfig::emcdr(Pretrainer::Cml)),
            Method::EmcdrBprmf => train_emcdr(scenario, opts, &EmcdrConfig::emcdr(Pretrainer::Bprmf)),
            Method::EmcdrNgcf => train_emcdr(scenario, opts, &EmcdrConfig::emcdr(Pretrainer::Ngcf)),
            Method::Sscdr => train_emcdr(scenario, opts, &EmcdrConfig::sscdr()),
            Method::Tmcdr => train_emcdr(scenario, opts, &EmcdrConfig::tmcdr()),
            Method::SaVae => train_emcdr(scenario, opts, &EmcdrConfig::sa_vae()),
        }
    }

    /// Parses a method from a CLI-style name.
    pub fn parse(s: &str) -> Option<Method> {
        let key: String = s
            .to_ascii_lowercase()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        Method::ALL.iter().copied().find(|m| {
            m.name()
                .to_ascii_lowercase()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                == key
        })
    }
}

/// Splits a merged-graph model back into per-domain embedding tables.
pub(crate) fn split_merged(
    model: &MfModel,
    merged: &MergedGraph,
    scenario: &CdrScenario,
    kind: ScoreKind,
) -> EmbeddingScorer {
    let gather_users = |domain: DomainId, n: usize| -> cdrib_tensor::Tensor {
        let idx: Vec<usize> = (0..n).map(|u| merged.map_user(domain, u)).collect();
        model.users.gather_rows(&idx).expect("merged indices are valid")
    };
    let gather_items = |domain: DomainId, n: usize| -> cdrib_tensor::Tensor {
        let idx: Vec<usize> = (0..n).map(|i| merged.map_item(domain, i)).collect();
        model.items.gather_rows(&idx).expect("merged indices are valid")
    };
    EmbeddingScorer {
        x_users: gather_users(DomainId::X, scenario.x.n_users),
        x_items: gather_items(DomainId::X, scenario.x.n_items),
        y_users: gather_users(DomainId::Y, scenario.y.n_users),
        y_items: gather_items(DomainId::Y, scenario.y.n_items),
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};
    use cdrib_eval::{evaluate_both_directions, EvalConfig, EvalSplit};

    #[test]
    fn names_and_parsing_roundtrip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m), "{}", m.name());
        }
        assert_eq!(Method::parse("emcdr(bprmf)"), Some(Method::EmcdrBprmf));
        assert_eq!(Method::parse("sa-vae"), Some(Method::SaVae));
        assert_eq!(Method::parse("unknown"), None);
        assert_eq!(Method::ALL.len(), 13);
        assert!(Method::QUICK.len() < Method::ALL.len());
    }

    #[test]
    fn every_method_trains_and_evaluates_on_a_tiny_scenario() {
        let s = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 71).unwrap();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 3,
            ..BaselineOpts::default()
        };
        let cfg = EvalConfig {
            n_negatives: 30,
            seed: 5,
            max_cases: Some(30),
        };
        for m in Method::ALL {
            let scorer = m
                .train(&s, &opts)
                .unwrap_or_else(|e| panic!("{} failed: {e}", m.name()));
            assert!(scorer.x_users.all_finite(), "{} produced NaNs", m.name());
            let (a, b) = evaluate_both_directions(&scorer, &s, EvalSplit::Test, &cfg).unwrap();
            assert!(a.metrics.mrr > 0.0, "{}", m.name());
            assert!(b.metrics.mrr > 0.0, "{}", m.name());
        }
    }
}
