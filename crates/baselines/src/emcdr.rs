//! The Embedding-and-Mapping family: EMCDR and its descendants
//! (SSCDR, TMCDR, SA-VAE).
//!
//! All of these follow the pipeline of Fig. 1(b): (1) pre-train user/item
//! embeddings *separately* per domain, (2) fit a mapping function on the
//! overlapping users that translates source-domain user embeddings into the
//! target-domain space, (3) recommend for a cold-start user by mapping their
//! source embedding and ranking target items around it.
//!
//! The variants differ in the pre-trainer and in how the mapping is
//! supervised:
//!
//! * **EMCDR(CML / BPRMF / NGCF)** — plain MSE mapping on overlap users with
//!   the respective pre-trainer (Man et al., 2017).
//! * **SSCDR** — EMCDR(CML) plus neighbour supervision: the mapped user is
//!   also pulled towards the target-domain embeddings of the items the user
//!   interacted with there (Kang et al., 2019, simplified).
//! * **TMCDR** — EMCDR(BPRMF) trained with small episodic batches of overlap
//!   users, approximating the transfer-meta objective (Zhu et al., 2021).
//! * **SA-VAE** — variational pre-training (VGAE) and a mapping trained on
//!   noise-perturbed inputs, approximating the source-aligned VAE
//!   (Salah et al., 2021).

use crate::common::BaselineOpts;
use crate::gcn::train_gcn;
use crate::mf::{train_bprmf, train_cml, MfModel};
use crate::vgae::train_vgae;
use cdrib_data::{CdrScenario, DataError, DomainId, Result};
use cdrib_eval::{EmbeddingScorer, ScoreKind};
use cdrib_tensor::rng::{component_rng, normal_tensor, shuffle_in_place};
use cdrib_tensor::{Activation, Adam, Mlp, Optimizer, ParamSet, Tape, Tensor};
use serde::{Deserialize, Serialize};

/// Which single-domain model pre-trains the per-domain embeddings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pretrainer {
    /// Collaborative metric learning.
    Cml,
    /// Bayesian personalised ranking MF.
    Bprmf,
    /// The GCN recommender (NGCF-style).
    Ngcf,
    /// The variational graph encoder (used by SA-VAE).
    Vgae,
}

/// Configuration of an EMCDR-family method.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmcdrConfig {
    /// The per-domain pre-trainer.
    pub pretrainer: Pretrainer,
    /// Epochs of mapping-function training.
    pub mapping_epochs: usize,
    /// Learning rate of the mapping function.
    pub mapping_lr: f32,
    /// SSCDR-style neighbour supervision: additionally pull the mapped user
    /// towards the centroid of their target-domain item embeddings.
    pub neighbor_supervision: bool,
    /// TMCDR-style episodic training: overlap users are split into small
    /// episodes instead of full-batch mapping updates.
    pub episode_size: Option<usize>,
    /// SA-VAE-style variational mapping: Gaussian noise is added to the
    /// source embeddings while fitting the mapping.
    pub variational_mapping: bool,
}

impl EmcdrConfig {
    /// Plain EMCDR with the given pre-trainer.
    pub fn emcdr(pretrainer: Pretrainer) -> Self {
        EmcdrConfig {
            pretrainer,
            mapping_epochs: 200,
            mapping_lr: 0.01,
            neighbor_supervision: false,
            episode_size: None,
            variational_mapping: false,
        }
    }

    /// The SSCDR approximation.
    pub(crate) fn sscdr() -> Self {
        EmcdrConfig {
            neighbor_supervision: true,
            ..EmcdrConfig::emcdr(Pretrainer::Cml)
        }
    }

    /// The TMCDR approximation.
    pub(crate) fn tmcdr() -> Self {
        EmcdrConfig {
            episode_size: Some(16),
            ..EmcdrConfig::emcdr(Pretrainer::Bprmf)
        }
    }

    /// The SA-VAE approximation.
    pub(crate) fn sa_vae() -> Self {
        EmcdrConfig {
            variational_mapping: true,
            ..EmcdrConfig::emcdr(Pretrainer::Vgae)
        }
    }
}

fn pretrain(scenario: &CdrScenario, domain: DomainId, opts: &BaselineOpts, p: Pretrainer) -> Result<MfModel> {
    let graph = &scenario.domain(domain).train;
    match p {
        Pretrainer::Cml => train_cml(graph, opts),
        Pretrainer::Bprmf => train_bprmf(graph, opts),
        Pretrainer::Ngcf => train_gcn(graph, opts, 2),
        Pretrainer::Vgae => train_vgae(graph, opts, 1),
    }
}

/// Trains the mapping MLP `source user embedding -> target user embedding`
/// and returns the mapped source user table.
#[allow(clippy::too_many_arguments)]
fn train_mapping(
    source: &MfModel,
    target: &MfModel,
    target_graph: &cdrib_graph::BipartiteGraph,
    overlap: &[u32],
    cfg: &EmcdrConfig,
    opts: &BaselineOpts,
    label: &str,
) -> Result<Tensor> {
    if overlap.is_empty() {
        return Err(DataError::EmptyDataset {
            stage: "emcdr overlap users",
        });
    }
    let in_dim = source.users.cols();
    let out_dim = target.users.cols();
    let mut rng = component_rng(opts.seed, label);
    let mut params = ParamSet::new();
    // The paper's EMCDR MLP architecture: [F -> 2F -> F].
    let mlp = Mlp::new(
        &mut params,
        &mut rng,
        "mapping",
        &[in_dim, 2 * in_dim, out_dim],
        Activation::LeakyRelu(0.1),
        Activation::Identity,
    )
    .map_err(to_data_err)?;
    let mut opt = Adam::with_defaults(cfg.mapping_lr);

    // Pre-compute supervision targets.
    let overlap_idx: Vec<usize> = overlap.iter().map(|&u| u as usize).collect();
    let target_users = target.users.gather_rows(&overlap_idx).map_err(to_data_err)?;
    let source_users = source.users.gather_rows(&overlap_idx).map_err(to_data_err)?;
    // Neighbour supervision: centroid of the user's target-domain items.
    let neighbor_targets = if cfg.neighbor_supervision {
        let mut t = Tensor::zeros(overlap_idx.len(), out_dim);
        for (k, &u) in overlap_idx.iter().enumerate() {
            let items = target_graph.items_of(u);
            if items.is_empty() {
                t.row_mut(k).copy_from_slice(target_users.row(k));
                continue;
            }
            let mut acc = vec![0.0f32; out_dim];
            for &i in items {
                for (a, &v) in acc.iter_mut().zip(target.items.row(i as usize)) {
                    *a += v;
                }
            }
            let inv = 1.0 / items.len() as f32;
            for (dst, a) in t.row_mut(k).iter_mut().zip(acc) {
                *dst = a * inv;
            }
        }
        Some(t)
    } else {
        None
    };

    let episode = cfg.episode_size.unwrap_or(overlap_idx.len()).max(2);
    let mut order: Vec<usize> = (0..overlap_idx.len()).collect();
    let mut tape = Tape::new();
    for _epoch in 0..cfg.mapping_epochs {
        shuffle_in_place(&mut rng, &mut order);
        for chunk in order.chunks(episode) {
            params.zero_grad();
            tape.reset();
            let mut inputs = source_users.gather_rows(chunk).map_err(to_data_err)?;
            if cfg.variational_mapping {
                let noise = normal_tensor(&mut rng, inputs.rows(), inputs.cols(), 0.05);
                inputs.add_assign(&noise).map_err(to_data_err)?;
            }
            let x = tape.constant(inputs);
            let pred = mlp.forward(&mut tape, &params, x).map_err(to_data_err)?;
            let targets = tape.constant(target_users.gather_rows(chunk).map_err(to_data_err)?);
            let diff = tape.sub(pred, targets).map_err(to_data_err)?;
            let sq = tape.mul(diff, diff).map_err(to_data_err)?;
            let mut loss = tape.mean(sq).map_err(to_data_err)?;
            if let Some(nt) = &neighbor_targets {
                let nt_batch = tape.constant(nt.gather_rows(chunk).map_err(to_data_err)?);
                let d2 = tape.sub(pred, nt_batch).map_err(to_data_err)?;
                let sq2 = tape.mul(d2, d2).map_err(to_data_err)?;
                let l2 = tape.mean(sq2).map_err(to_data_err)?;
                let l2 = tape.scale(l2, 0.5).map_err(to_data_err)?;
                loss = tape.add(loss, l2).map_err(to_data_err)?;
            }
            tape.backward(loss, &mut params).map_err(to_data_err)?;
            opt.step(&mut params).map_err(to_data_err)?;
        }
    }

    // Map every source user into the target space.
    tape.reset();
    let all = tape.constant(source.users.clone());
    let mapped = mlp.forward(&mut tape, &params, all).map_err(to_data_err)?;
    Ok(tape.value(mapped).map_err(to_data_err)?.clone())
}

/// Trains an EMCDR-family method end to end and returns a scorer whose user
/// tables hold the *mapped* embeddings (so direction `X -> Y` ranks target
/// items around `f_{X->Y}(u)`).
pub(crate) fn train_emcdr(scenario: &CdrScenario, opts: &BaselineOpts, cfg: &EmcdrConfig) -> Result<EmbeddingScorer> {
    let x_model = pretrain(scenario, DomainId::X, opts, cfg.pretrainer)?;
    let y_model = pretrain(scenario, DomainId::Y, opts, cfg.pretrainer)?;
    let overlap = &scenario.train_overlap_users;
    let mapped_x = train_mapping(&x_model, &y_model, &scenario.y.train, overlap, cfg, opts, "map-x2y")?;
    let mapped_y = train_mapping(&y_model, &x_model, &scenario.x.train, overlap, cfg, opts, "map-y2x")?;
    let kind = if cfg.pretrainer == Pretrainer::Cml && !cfg.neighbor_supervision {
        ScoreKind::NegativeDistance
    } else {
        ScoreKind::Dot
    };
    Ok(EmbeddingScorer {
        x_users: mapped_x,
        x_items: x_model.items,
        y_users: mapped_y,
        y_items: y_model.items,
        kind,
    })
}

fn to_data_err<E: std::fmt::Display>(e: E) -> DataError {
    DataError::InvalidConfig {
        field: "emcdr",
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    #[test]
    fn emcdr_produces_well_shaped_scorer() {
        let s = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 51).unwrap();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 5,
            ..BaselineOpts::default()
        };
        let cfg = EmcdrConfig {
            mapping_epochs: 20,
            ..EmcdrConfig::emcdr(Pretrainer::Bprmf)
        };
        let scorer = train_emcdr(&s, &opts, &cfg).unwrap();
        assert_eq!(scorer.x_users.shape(), (s.x.n_users, 8));
        assert_eq!(scorer.y_items.shape(), (s.y.n_items, 8));
        assert!(scorer.x_users.all_finite());
        // mapped embeddings differ from raw pre-trained ones
        assert_eq!(scorer.kind, ScoreKind::Dot);
    }

    #[test]
    fn variant_constructors_set_flags() {
        assert!(EmcdrConfig::sscdr().neighbor_supervision);
        assert_eq!(EmcdrConfig::sscdr().pretrainer, Pretrainer::Cml);
        assert_eq!(EmcdrConfig::tmcdr().episode_size, Some(16));
        assert!(EmcdrConfig::sa_vae().variational_mapping);
        assert_eq!(EmcdrConfig::sa_vae().pretrainer, Pretrainer::Vgae);
        assert!(!EmcdrConfig::emcdr(Pretrainer::Ngcf).neighbor_supervision);
    }

    #[test]
    fn mapping_aligns_overlap_users() {
        // With identical source and target embeddings, the mapping should
        // learn something close to the identity on overlap users.
        let s = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 52).unwrap();
        let opts = BaselineOpts {
            dim: 6,
            epochs: 3,
            ..BaselineOpts::default()
        };
        let model = train_bprmf(&s.x.train, &opts).unwrap();
        let cfg = EmcdrConfig {
            mapping_epochs: 300,
            mapping_lr: 0.01,
            ..EmcdrConfig::emcdr(Pretrainer::Bprmf)
        };
        let mapped = train_mapping(
            &model,
            &model,
            &s.x.train,
            &s.train_overlap_users,
            &cfg,
            &opts,
            "identity-test",
        )
        .unwrap();
        let mut err = 0.0f32;
        let mut base = 0.0f32;
        for &u in &s.train_overlap_users {
            let u = u as usize;
            for d in 0..6 {
                let diff = mapped.get(u, d) - model.users.get(u, d);
                err += diff * diff;
                base += model.users.get(u, d).powi(2);
            }
        }
        assert!(
            err < base * 0.3,
            "mapping should approximate identity: err {err} base {base}"
        );
    }
}
