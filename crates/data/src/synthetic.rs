//! Synthetic cross-domain interaction generator.
//!
//! The Amazon review dumps used by the paper are not available offline, so
//! the reproduction generates synthetic data from an explicit latent-factor
//! model designed to contain exactly the structure CDRIB exploits:
//!
//! * every natural user has a **domain-shared** preference vector `s_u`
//!   (think "likes romance, dislikes horror") and a **domain-specific**
//!   vector per domain (think "likes 3D cinematography" which is meaningless
//!   for books);
//! * items expose a shared-facing factor and a domain-specific factor plus a
//!   popularity bias drawn from a heavy-tailed distribution;
//! * a user's affinity for an item mixes the shared and specific inner
//!   products with weight [`SyntheticConfig::shared_weight`]; interactions
//!   are sampled with a Gumbel-top-k draw over the affinities.
//!
//! Overlapping users reuse the *same* `s_u` in both domains, so the
//! transferable signal genuinely exists, while the domain-specific term
//! creates the bias that hurts per-domain pre-training — the phenomenon the
//! paper's introduction motivates with Fig. 1(a).

use crate::error::{DataError, Result};
use crate::raw::{RawCdrData, RawDomain};
use crate::scenario::{CdrScenario, SplitConfig};
use cdrib_tensor::rng::{component_rng, normal_tensor, sample_standard_normal};
use cdrib_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Scenario name.
    pub name: String,
    /// Name of domain `X` (e.g. "Music").
    pub domain_x_name: String,
    /// Name of domain `Y` (e.g. "Movie").
    pub domain_y_name: String,
    /// Number of users present in both domains before the cold-start split.
    pub n_overlap: usize,
    /// Users that exist only in domain `X`.
    pub n_users_x_only: usize,
    /// Users that exist only in domain `Y`.
    pub n_users_y_only: usize,
    /// Items of domain `X`.
    pub n_items_x: usize,
    /// Items of domain `Y`.
    pub n_items_y: usize,
    /// Dimensionality of the domain-shared latent factors.
    pub dim_shared: usize,
    /// Dimensionality of the domain-specific latent factors.
    pub dim_specific: usize,
    /// Weight of the shared term in the affinity (0 = no transferable
    /// signal, 1 = fully shared preferences).
    pub shared_weight: f32,
    /// Mean number of interactions per user (before filtering).
    pub mean_interactions: f32,
    /// Minimum number of interactions sampled per user.
    pub min_interactions: usize,
    /// Strength of the heavy-tailed item popularity bias.
    pub popularity_skew: f32,
    /// Softmax temperature of the item sampler (lower = more deterministic
    /// preference-driven choices).
    pub temperature: f32,
    /// Minimum interactions a user must keep after preprocessing (paper: 5).
    pub min_user_interactions: usize,
    /// Minimum interactions an item must keep after preprocessing (paper: 10).
    pub min_item_interactions: usize,
    /// Seed for the generator.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            name: "synthetic".into(),
            domain_x_name: "X".into(),
            domain_y_name: "Y".into(),
            n_overlap: 300,
            n_users_x_only: 500,
            n_users_y_only: 500,
            n_items_x: 400,
            n_items_y: 400,
            dim_shared: 8,
            dim_specific: 8,
            shared_weight: 0.7,
            mean_interactions: 14.0,
            min_interactions: 6,
            popularity_skew: 1.0,
            temperature: 0.8,
            min_user_interactions: 5,
            min_item_interactions: 10,
            seed: 2022,
        }
    }
}

impl SyntheticConfig {
    /// Validates the configuration values.
    pub fn validate(&self) -> Result<()> {
        if self.n_overlap < 8 {
            return Err(DataError::InvalidConfig {
                field: "n_overlap",
                detail: format!("need at least 8 overlapping users, got {}", self.n_overlap),
            });
        }
        if self.n_items_x < 20 || self.n_items_y < 20 {
            return Err(DataError::InvalidConfig {
                field: "n_items",
                detail: "each domain needs at least 20 items".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.shared_weight) {
            return Err(DataError::InvalidConfig {
                field: "shared_weight",
                detail: format!("must lie in [0,1], got {}", self.shared_weight),
            });
        }
        if self.mean_interactions < 1.0 {
            return Err(DataError::InvalidConfig {
                field: "mean_interactions",
                detail: "must be at least 1".into(),
            });
        }
        if self.temperature <= 0.0 {
            return Err(DataError::InvalidConfig {
                field: "temperature",
                detail: "must be positive".into(),
            });
        }
        if self.dim_shared == 0 {
            return Err(DataError::InvalidConfig {
                field: "dim_shared",
                detail: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Latent factors of one generated domain (exposed so that oracle-style
/// diagnostics and tests can inspect the ground truth).
#[derive(Debug, Clone)]
pub struct DomainLatents {
    /// Shared-facing item factors (`n_items x dim_shared`).
    pub item_shared: Tensor,
    /// Domain-specific item factors (`n_items x dim_specific`).
    pub item_specific: Tensor,
    /// Domain-specific user factors (`n_users x dim_specific`).
    pub user_specific: Tensor,
    /// Item popularity biases (`n_items`).
    pub popularity: Vec<f32>,
}

/// The generator's ground truth, useful for sanity checks (e.g. verifying
/// that an oracle using the shared factors beats random ranking).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Shared user factors indexed by natural user id
    /// (`0..n_overlap + n_x_only + n_y_only`).
    pub user_shared: Tensor,
    /// Latents of domain `X`.
    pub x: DomainLatents,
    /// Latents of domain `Y`.
    pub y: DomainLatents,
}

/// Output of `generate_raw`: interactions plus the generating latents.
#[derive(Debug, Clone)]
pub struct SyntheticOutput {
    /// The raw (unfiltered) interaction data.
    pub raw: RawCdrData,
    /// The ground-truth latents that produced it.
    pub ground_truth: GroundTruth,
}

fn sample_interaction_count(rng: &mut StdRng, cfg: &SyntheticConfig, n_items: usize) -> usize {
    // Exponential tail on top of the minimum, capped so a user cannot
    // interact with a large share of the catalogue.
    let u: f32 = rng.gen::<f32>().max(1e-6);
    let extra = (-(cfg.mean_interactions - cfg.min_interactions as f32).max(0.5) * u.ln()) as usize;
    (cfg.min_interactions + extra.min(200)).min(n_items / 3)
}

fn gumbel(rng: &mut StdRng) -> f32 {
    let u: f32 = rng.gen::<f32>().max(1e-9);
    -(-u.ln()).ln()
}

/// Generates the raw interactions and returns the ground-truth latents.
pub(crate) fn generate_raw(cfg: &SyntheticConfig) -> Result<SyntheticOutput> {
    cfg.validate()?;
    let mut rng = component_rng(cfg.seed, "synthetic-generator");

    let n_natural_users = cfg.n_overlap + cfg.n_users_x_only + cfg.n_users_y_only;
    let user_shared = normal_tensor(&mut rng, n_natural_users, cfg.dim_shared, 1.0);

    // Natural user ids of each domain: overlap users come first, then the
    // domain-only users.
    let users_x: Vec<usize> = (0..cfg.n_overlap)
        .chain(cfg.n_overlap..cfg.n_overlap + cfg.n_users_x_only)
        .collect();
    let users_y: Vec<usize> = (0..cfg.n_overlap)
        .chain(cfg.n_overlap + cfg.n_users_x_only..n_natural_users)
        .collect();

    let make_domain =
        |rng: &mut StdRng, name: &str, natural_users: &[usize], n_items: usize| -> (RawDomain, DomainLatents) {
            let item_shared = normal_tensor(rng, n_items, cfg.dim_shared, 1.0);
            let item_specific = normal_tensor(rng, n_items, cfg.dim_specific, 1.0);
            let user_specific = normal_tensor(rng, natural_users.len(), cfg.dim_specific, 1.0);
            // Heavy-tailed popularity: pop_v = skew * half-normal, so a few items
            // are much more popular than the rest.
            let popularity: Vec<f32> = (0..n_items)
                .map(|_| cfg.popularity_skew * sample_standard_normal(rng).abs())
                .collect();

            let shared_norm = (cfg.dim_shared as f32).sqrt();
            let specific_norm = (cfg.dim_specific as f32).sqrt();
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let mut scores = vec![0.0f32; n_items];
            for (local_u, &natural_u) in natural_users.iter().enumerate() {
                let s_u = user_shared.row(natural_u);
                let t_u = user_specific.row(local_u);
                for v in 0..n_items {
                    let a_v = item_shared.row(v);
                    let b_v = item_specific.row(v);
                    let shared: f32 = s_u.iter().zip(a_v.iter()).map(|(a, b)| a * b).sum::<f32>() / shared_norm;
                    let specific: f32 = t_u.iter().zip(b_v.iter()).map(|(a, b)| a * b).sum::<f32>() / specific_norm;
                    scores[v] = (cfg.shared_weight * shared + (1.0 - cfg.shared_weight) * specific + popularity[v])
                        / cfg.temperature;
                }
                let k = sample_interaction_count(rng, cfg, n_items);
                // Gumbel-top-k = weighted sampling without replacement from the
                // softmax over scores.
                let mut keyed: Vec<(f32, u32)> = scores
                    .iter()
                    .enumerate()
                    .map(|(v, &s)| (s + gumbel(rng), v as u32))
                    .collect();
                keyed.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                for &(_, v) in keyed.iter().take(k) {
                    edges.push((local_u as u32, v));
                }
            }
            (
                RawDomain {
                    name: name.into(),
                    n_users: natural_users.len(),
                    n_items,
                    edges,
                },
                DomainLatents {
                    item_shared,
                    item_specific,
                    user_specific,
                    popularity,
                },
            )
        };

    let (raw_x, latents_x) = make_domain(&mut rng, &cfg.domain_x_name, &users_x, cfg.n_items_x);
    let (raw_y, latents_y) = make_domain(&mut rng, &cfg.domain_y_name, &users_y, cfg.n_items_y);

    let raw = RawCdrData {
        x: raw_x,
        y: raw_y,
        n_overlap: cfg.n_overlap,
    };
    raw.validate()?;
    Ok(SyntheticOutput {
        raw,
        ground_truth: GroundTruth {
            user_shared,
            x: latents_x,
            y: latents_y,
        },
    })
}

/// Generates, preprocesses and splits a full scenario in one call.
pub fn generate_scenario(cfg: &SyntheticConfig, split: SplitConfig) -> Result<CdrScenario> {
    let out = generate_raw(cfg)?;
    let filtered = out.raw.filtered(cfg.min_user_interactions, cfg.min_item_interactions)?;
    CdrScenario::from_raw(cfg.name.clone(), &filtered, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            n_overlap: 60,
            n_users_x_only: 80,
            n_users_y_only: 80,
            n_items_x: 80,
            n_items_y: 80,
            mean_interactions: 12.0,
            min_interactions: 6,
            min_item_interactions: 5,
            seed,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_raw(&small_cfg(1)).unwrap();
        let b = generate_raw(&small_cfg(1)).unwrap();
        assert_eq!(a.raw.x.edges, b.raw.x.edges);
        assert_eq!(a.raw.y.edges, b.raw.y.edges);
        let c = generate_raw(&small_cfg(2)).unwrap();
        assert_ne!(a.raw.x.edges, c.raw.x.edges);
    }

    #[test]
    fn overlap_users_share_prefix_and_counts_are_sane() {
        let out = generate_raw(&small_cfg(3)).unwrap();
        let raw = &out.raw;
        assert_eq!(raw.n_overlap, 60);
        assert_eq!(raw.x.n_users, 140);
        assert_eq!(raw.y.n_users, 140);
        // every user got at least min_interactions interactions
        let mut user_counts = vec![0usize; raw.x.n_users];
        let mut item_counts = vec![0usize; raw.x.n_items];
        for &(u, i) in &raw.x.edges {
            user_counts[u as usize] += 1;
            item_counts[i as usize] += 1;
        }
        assert!(user_counts.iter().all(|&c| c >= 6));
        // heavy-tailed popularity: most-popular item has several times the
        // median item count
        item_counts.sort_unstable();
        let median = item_counts[item_counts.len() / 2];
        let max = *item_counts.last().unwrap();
        assert!(max >= median.max(1) * 2, "max {max} median {median}");
    }

    #[test]
    fn shared_factors_predict_cross_domain_preferences() {
        // The construction guarantees transferable signal: for overlapping
        // users, ranking Y items by the *shared* ground-truth affinity must
        // agree with the sampled interactions far better than chance.
        let cfg = small_cfg(4);
        let out = generate_raw(&cfg).unwrap();
        let gt = &out.ground_truth;
        let raw = &out.raw;
        let mut hit = 0usize;
        let mut total = 0usize;
        let shared_norm = (cfg.dim_shared as f32).sqrt();
        for u in 0..raw.n_overlap {
            let interacted: std::collections::HashSet<u32> = raw
                .y
                .edges
                .iter()
                .filter(|&&(uu, _)| uu as usize == u)
                .map(|&(_, i)| i)
                .collect();
            if interacted.is_empty() {
                continue;
            }
            // score all items by the shared component only
            let s_u = gt.user_shared.row(u);
            let mut scored: Vec<(f32, u32)> = (0..raw.y.n_items)
                .map(|v| {
                    let a_v = gt.y.item_shared.row(v);
                    let s: f32 = s_u.iter().zip(a_v.iter()).map(|(a, b)| a * b).sum::<f32>() / shared_norm;
                    (s + gt.y.popularity[v], v as u32)
                })
                .collect();
            scored.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let top_k: std::collections::HashSet<u32> =
                scored.iter().take(interacted.len() * 3).map(|&(_, v)| v).collect();
            hit += interacted.intersection(&top_k).count();
            total += interacted.len();
        }
        let recall = hit as f64 / total as f64;
        // chance level would be ~ 3*k/n_items ≈ 0.3; require clearly better.
        assert!(recall > 0.45, "shared-factor oracle recall too low: {recall}");
    }

    #[test]
    fn generate_scenario_end_to_end() {
        let cfg = small_cfg(5);
        let s = generate_scenario(&cfg, SplitConfig::default()).unwrap();
        s.validate().unwrap();
        assert!(s.n_overlap_total > 20);
        assert!(s.x.train.n_edges() > 100);
        assert!(!s.cold_x_to_y.test.is_empty());
        assert!(!s.cold_y_to_x.test.is_empty());
    }

    #[test]
    fn config_validation() {
        let c = SyntheticConfig {
            n_overlap: 2,
            ..SyntheticConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SyntheticConfig {
            shared_weight: 2.0,
            ..SyntheticConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SyntheticConfig {
            temperature: 0.0,
            ..SyntheticConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SyntheticConfig {
            n_items_x: 5,
            ..SyntheticConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SyntheticConfig {
            mean_interactions: 0.1,
            ..SyntheticConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SyntheticConfig {
            dim_shared: 0,
            ..SyntheticConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(SyntheticConfig::default().validate().is_ok());
    }
}
