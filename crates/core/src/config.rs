//! Hyperparameter configuration of CDRIB.
//!
//! Defaults follow §IV-B3 of the paper where feasible on a CPU-scale
//! reproduction (the paper uses an embedding dimension of 128 and trains on
//! GPU; the default here is 64 and every experiment binary can override it).

use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// Which regularizers are active — used by the ablation study (Table VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CdribVariant {
    /// The full model: cross-domain IB + in-domain IB + contrastive.
    Full,
    /// "w/o Con": drop the contrastive information regularizer.
    WithoutContrastive,
    /// "w/o In-IB&Con": additionally drop the in-domain IB regularizer,
    /// keeping only the cross-domain IB regularizer.
    WithoutInDomainAndContrastive,
}

impl CdribVariant {
    /// Whether the contrastive regularizer (Eq. 9/14) is applied.
    pub(crate) fn use_contrastive(&self) -> bool {
        matches!(self, CdribVariant::Full)
    }

    /// Whether the in-domain IB regularizer (Eq. 8) is applied.
    pub(crate) fn use_in_domain_ib(&self) -> bool {
        !matches!(self, CdribVariant::WithoutInDomainAndContrastive)
    }

    /// Display name used by the ablation table.
    pub fn label(&self) -> &'static str {
        match self {
            CdribVariant::Full => "CDRIB",
            CdribVariant::WithoutContrastive => "w/o Con",
            CdribVariant::WithoutInDomainAndContrastive => "w/o In-IB&Con",
        }
    }
}

/// Hyperparameters of the CDRIB model and its trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdribConfig {
    /// Embedding / latent dimension `F`.
    pub dim: usize,
    /// Number of VBGE propagation layers (paper sweeps 1-4, Fig. 6).
    pub layers: usize,
    /// Lagrangian multiplier `beta_1` of domain X (Eq. 16).
    pub beta1: f32,
    /// Lagrangian multiplier `beta_2` of domain Y (Eq. 16).
    pub beta2: f32,
    /// Weight of the contrastive regularizer.
    pub contrastive_weight: f32,
    /// Dropout rate on the propagated representations.
    pub dropout: f32,
    /// Negative slope of LeakyReLU (paper fixes 0.1).
    pub leaky_slope: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Decoupled L2 weight-decay strength.
    pub l2_weight: f32,
    /// Number of training epochs.
    pub epochs: usize,
    /// Number of edge mini-batches per epoch (each step re-encodes the full
    /// graph, so a handful of large batches is the efficient regime on CPU).
    pub batches_per_epoch: usize,
    /// Negative items sampled per positive interaction in the reconstruction
    /// terms.
    pub neg_ratio: usize,
    /// Maximum number of overlap users per contrastive batch.
    pub contrastive_batch: usize,
    /// Evaluate on the validation split every this many epochs (0 disables
    /// validation-based model selection).
    pub eval_every: usize,
    /// Early-stopping patience measured in evaluations without improvement
    /// (0 disables early stopping).
    pub patience: usize,
    /// Number of validation cases used for model selection (keeps the
    /// in-loop evaluation cheap); `None` uses all.
    pub max_val_cases: Option<usize>,
    /// Which regularizers are active (ablation switch).
    pub variant: CdribVariant,
    /// Apply the paper's LeakyReLU to the latent means (Eq. 3). Disabling it
    /// linearises the mean head (cf. the paper's footnote 2 on nonlinearities
    /// in graph recommenders) and usually speeds up convergence.
    pub nonlinear_mean: bool,
    /// Random seed controlling initialisation, sampling noise, dropout and
    /// negative sampling.
    pub seed: u64,
}

impl Default for CdribConfig {
    fn default() -> Self {
        CdribConfig {
            dim: 64,
            layers: 2,
            beta1: 1.0,
            beta2: 1.0,
            contrastive_weight: 1.0,
            dropout: 0.1,
            leaky_slope: 0.1,
            learning_rate: 0.02,
            l2_weight: 1e-4,
            epochs: 100,
            batches_per_epoch: 2,
            neg_ratio: 1,
            contrastive_batch: 512,
            eval_every: 10,
            patience: 3,
            max_val_cases: Some(500),
            variant: CdribVariant::Full,
            nonlinear_mean: false,
            seed: 2022,
        }
    }
}

impl CdribConfig {
    /// A fast configuration for unit/integration tests.
    pub fn fast_test() -> Self {
        CdribConfig {
            dim: 16,
            layers: 1,
            epochs: 15,
            batches_per_epoch: 1,
            eval_every: 0,
            patience: 0,
            max_val_cases: Some(100),
            ..CdribConfig::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(CoreError::InvalidConfig {
                field: "dim",
                detail: "embedding dimension must be positive".into(),
            });
        }
        if self.layers == 0 || self.layers > 8 {
            return Err(CoreError::InvalidConfig {
                field: "layers",
                detail: format!("layer count must be in 1..=8, got {}", self.layers),
            });
        }
        if self.beta1 < 0.0 || self.beta2 < 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "beta",
                detail: "Lagrangian multipliers must be non-negative".into(),
            });
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(CoreError::InvalidConfig {
                field: "dropout",
                detail: format!("dropout must lie in [0,1), got {}", self.dropout),
            });
        }
        if self.learning_rate <= 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "learning_rate",
                detail: "learning rate must be positive".into(),
            });
        }
        if self.epochs == 0 {
            return Err(CoreError::InvalidConfig {
                field: "epochs",
                detail: "must train for at least one epoch".into(),
            });
        }
        if self.batches_per_epoch == 0 {
            return Err(CoreError::InvalidConfig {
                field: "batches_per_epoch",
                detail: "must be at least 1".into(),
            });
        }
        if self.neg_ratio == 0 {
            return Err(CoreError::InvalidConfig {
                field: "neg_ratio",
                detail: "must sample at least one negative per positive".into(),
            });
        }
        if self.contrastive_batch == 0 {
            return Err(CoreError::InvalidConfig {
                field: "contrastive_batch",
                detail: "must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Returns a copy with a different seed (used for the 5-run averages).
    pub fn with_seed(&self, seed: u64) -> Self {
        CdribConfig { seed, ..self.clone() }
    }

    /// Returns a copy with a different variant (used by the ablation study).
    pub fn with_variant(&self, variant: CdribVariant) -> Self {
        CdribConfig {
            variant,
            ..self.clone()
        }
    }

    /// Returns a copy with both betas set to the same value (Fig. 5 sweep).
    pub fn with_beta(&self, beta: f32) -> Self {
        CdribConfig {
            beta1: beta,
            beta2: beta,
            ..self.clone()
        }
    }

    /// Returns a copy with a different number of VBGE layers (Fig. 6 sweep).
    pub fn with_layers(&self, layers: usize) -> Self {
        CdribConfig { layers, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        CdribConfig::default().validate().unwrap();
        CdribConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = CdribConfig::default();
        assert!(CdribConfig { dim: 0, ..base.clone() }.validate().is_err());
        assert!(CdribConfig {
            layers: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            layers: 9,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            beta1: -1.0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            dropout: 1.0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            learning_rate: 0.0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            epochs: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            batches_per_epoch: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            neg_ratio: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(CdribConfig {
            contrastive_batch: 0,
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn variant_switches() {
        assert!(CdribVariant::Full.use_contrastive());
        assert!(CdribVariant::Full.use_in_domain_ib());
        assert!(!CdribVariant::WithoutContrastive.use_contrastive());
        assert!(CdribVariant::WithoutContrastive.use_in_domain_ib());
        assert!(!CdribVariant::WithoutInDomainAndContrastive.use_contrastive());
        assert!(!CdribVariant::WithoutInDomainAndContrastive.use_in_domain_ib());
        assert_eq!(CdribVariant::Full.label(), "CDRIB");
        assert_eq!(CdribVariant::WithoutContrastive.label(), "w/o Con");
    }

    #[test]
    fn builder_helpers() {
        let c = CdribConfig::default();
        assert_eq!(c.with_seed(9).seed, 9);
        assert_eq!(c.with_beta(1.5).beta2, 1.5);
        assert_eq!(c.with_layers(4).layers, 4);
        assert_eq!(
            c.with_variant(CdribVariant::WithoutContrastive).variant,
            CdribVariant::WithoutContrastive
        );
    }
}
