//! The cold-start cross-domain recommendation scenario.
//!
//! A [`CdrScenario`] is the object every model trains on and every
//! experiment evaluates against. It is produced from [`RawCdrData`] by the
//! split described in §IV-A of the paper: roughly 20 % of the overlapping
//! users are held out as *cold-start* users — half of them are hidden from
//! domain `Y` (and evaluated there, direction `X -> Y`), the other half are
//! hidden from domain `X` (direction `Y -> X`). Each half is further split
//! into validation and test users.

use crate::error::{DataError, Result};
use crate::raw::RawCdrData;
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::rng::{component_rng, shuffle_in_place};
use serde::{Deserialize, Serialize};

/// Identifies one of the two domains of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DomainId {
    /// The paper's domain `X`.
    X,
    /// The paper's domain `Y`.
    Y,
}

impl DomainId {
    /// The opposite domain.
    pub fn other(self) -> DomainId {
        match self {
            DomainId::X => DomainId::Y,
            DomainId::Y => DomainId::X,
        }
    }
}

/// The transfer direction of a cold-start evaluation:
/// users observed in `source` are evaluated on items of `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Direction {
    /// Domain the cold-start users' training interactions live in.
    pub source: DomainId,
    /// Domain whose items are recommended and evaluated.
    pub target: DomainId,
}

impl Direction {
    /// Direction `X -> Y`.
    pub const X_TO_Y: Direction = Direction {
        source: DomainId::X,
        target: DomainId::Y,
    };
    /// Direction `Y -> X`.
    pub const Y_TO_X: Direction = Direction {
        source: DomainId::Y,
        target: DomainId::X,
    };
}

/// One ground-truth evaluation interaction: a cold-start `user` (index in
/// the shared overlap prefix) together with an `item` of the target domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalCase {
    /// Cold-start user index (valid in both domains; `< n_overlap_total`).
    pub user: u32,
    /// Ground-truth item index in the *target* domain.
    pub item: u32,
}

/// Everything known about the cold-start users of one transfer direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColdStartSet {
    /// The transfer direction these users are evaluated in.
    pub direction: Direction,
    /// Cold-start users assigned to the validation split.
    pub validation_users: Vec<u32>,
    /// Cold-start users assigned to the test split.
    pub test_users: Vec<u32>,
    /// Validation ground-truth interactions (all target-domain interactions
    /// of the validation users).
    pub validation: Vec<EvalCase>,
    /// Test ground-truth interactions.
    pub test: Vec<EvalCase>,
}

impl ColdStartSet {
    /// Total number of cold-start users in this direction.
    pub fn n_users(&self) -> usize {
        self.validation_users.len() + self.test_users.len()
    }

    /// All cold-start users of this direction (validation followed by test).
    pub fn all_users(&self) -> Vec<u32> {
        let mut v = self.validation_users.clone();
        v.extend_from_slice(&self.test_users);
        v
    }
}

/// One domain of a scenario with its training interaction graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainData {
    /// Human-readable name (e.g. "Music").
    pub name: String,
    /// Number of users (shared overlap prefix first, then domain-only users).
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Training interactions (cold-start users' target-domain interactions
    /// removed).
    pub train: BipartiteGraph,
    /// All interactions, including the held-out evaluation ground truth.
    pub full: BipartiteGraph,
}

impl DomainData {
    /// Density of the training interactions.
    pub(crate) fn train_density(&self) -> f64 {
        self.train.density()
    }
}

/// Parameters of the cold-start split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitConfig {
    /// Fraction of overlapping users held out as cold-start users
    /// (the paper uses about 0.2).
    pub cold_start_ratio: f64,
    /// Fraction of each direction's cold-start users assigned to the test
    /// split (the rest go to validation). The paper splits evenly.
    pub test_fraction: f64,
    /// Seed of the split shuffle.
    pub seed: u64,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            cold_start_ratio: 0.2,
            test_fraction: 0.5,
            seed: 17,
        }
    }
}

/// A fully prepared bi-directional cold-start CDR scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdrScenario {
    /// Scenario name (e.g. "Music-Movie").
    pub name: String,
    /// Domain `X`.
    pub x: DomainData,
    /// Domain `Y`.
    pub y: DomainData,
    /// Number of users shared by both domains *including* cold-start users.
    pub n_overlap_total: usize,
    /// Overlapping users available for training (bridge users).
    pub train_overlap_users: Vec<u32>,
    /// Cold-start users evaluated in direction `X -> Y`.
    pub cold_x_to_y: ColdStartSet,
    /// Cold-start users evaluated in direction `Y -> X`.
    pub cold_y_to_x: ColdStartSet,
}

impl CdrScenario {
    /// Builds a scenario from raw data by applying the cold-start split.
    pub fn from_raw(name: impl Into<String>, raw: &RawCdrData, split: SplitConfig) -> Result<Self> {
        raw.validate()?;
        if !(0.0..1.0).contains(&split.cold_start_ratio) || split.cold_start_ratio <= 0.0 {
            return Err(DataError::InvalidConfig {
                field: "cold_start_ratio",
                detail: format!("must be in (0,1), got {}", split.cold_start_ratio),
            });
        }
        if !(0.0..=1.0).contains(&split.test_fraction) {
            return Err(DataError::InvalidConfig {
                field: "test_fraction",
                detail: format!("must be in [0,1], got {}", split.test_fraction),
            });
        }
        let n_overlap = raw.n_overlap;
        if n_overlap < 4 {
            return Err(DataError::InvalidConfig {
                field: "n_overlap",
                detail: format!("need at least 4 overlapping users, got {n_overlap}"),
            });
        }

        // Choose the cold-start users among the overlap prefix.
        let mut rng = component_rng(split.seed, "cold-start-split");
        let mut overlap: Vec<u32> = (0..n_overlap as u32).collect();
        shuffle_in_place(&mut rng, &mut overlap);
        let n_cold = ((n_overlap as f64) * split.cold_start_ratio).round() as usize;
        let n_cold = n_cold.clamp(2, n_overlap - 2);
        let cold: Vec<u32> = overlap[..n_cold].to_vec();
        let train_overlap_users: Vec<u32> = {
            let mut v = overlap[n_cold..].to_vec();
            v.sort_unstable();
            v
        };

        // Half of the cold users are evaluated in Y (hidden from Y), half in X.
        let half = n_cold / 2;
        let cold_to_y: Vec<u32> = cold[..half].to_vec();
        let cold_to_x: Vec<u32> = cold[half..].to_vec();

        let build_domain = |raw_dom: &crate::raw::RawDomain, hidden_users: &[u32]| -> Result<DomainData> {
            let edges_all: Vec<(usize, usize)> = raw_dom.edges.iter().map(|&(u, i)| (u as usize, i as usize)).collect();
            let full = BipartiteGraph::new(raw_dom.n_users, raw_dom.n_items, &edges_all)?;
            let hidden: std::collections::HashSet<u32> = hidden_users.iter().copied().collect();
            let train = full.filter_users(|u| !hidden.contains(&(u as u32)));
            Ok(DomainData {
                name: raw_dom.name.clone(),
                n_users: raw_dom.n_users,
                n_items: raw_dom.n_items,
                train,
                full,
            })
        };

        let x = build_domain(&raw.x, &cold_to_x)?;
        let y = build_domain(&raw.y, &cold_to_y)?;

        let make_cold_set =
            |users: &[u32], direction: Direction, target: &DomainData, seed_label: &str| -> ColdStartSet {
                let mut users: Vec<u32> = users.to_vec();
                let mut rng = component_rng(split.seed, seed_label);
                shuffle_in_place(&mut rng, &mut users);
                let n_test = ((users.len() as f64) * split.test_fraction).round() as usize;
                let test_users: Vec<u32> = users[..n_test].to_vec();
                let validation_users: Vec<u32> = users[n_test..].to_vec();
                let collect_cases = |us: &[u32]| -> Vec<EvalCase> {
                    let mut cases = Vec::new();
                    for &u in us {
                        for &item in target.full.items_of(u as usize) {
                            cases.push(EvalCase { user: u, item });
                        }
                    }
                    cases
                };
                ColdStartSet {
                    direction,
                    validation: collect_cases(&validation_users),
                    test: collect_cases(&test_users),
                    validation_users,
                    test_users,
                }
            };

        let cold_x_to_y = make_cold_set(&cold_to_y, Direction::X_TO_Y, &y, "cold-split-x2y");
        let cold_y_to_x = make_cold_set(&cold_to_x, Direction::Y_TO_X, &x, "cold-split-y2x");

        Ok(CdrScenario {
            name: name.into(),
            x,
            y,
            n_overlap_total: n_overlap,
            train_overlap_users,
            cold_x_to_y,
            cold_y_to_x,
        })
    }

    /// Domain data by id.
    pub fn domain(&self, id: DomainId) -> &DomainData {
        match id {
            DomainId::X => &self.x,
            DomainId::Y => &self.y,
        }
    }

    /// The cold-start set of a transfer direction.
    pub fn cold_start(&self, direction: Direction) -> &ColdStartSet {
        if direction == Direction::X_TO_Y {
            &self.cold_x_to_y
        } else {
            &self.cold_y_to_x
        }
    }

    /// Number of overlapping users that participate in training.
    pub fn n_train_overlap(&self) -> usize {
        self.train_overlap_users.len()
    }

    /// Checks internal consistency; used by tests and after deserialisation.
    pub fn validate(&self) -> Result<()> {
        if self.n_overlap_total > self.x.n_users || self.n_overlap_total > self.y.n_users {
            return Err(DataError::InvalidConfig {
                field: "n_overlap_total",
                detail: "overlap prefix larger than a domain's user count".into(),
            });
        }
        for set in [&self.cold_x_to_y, &self.cold_y_to_x] {
            let target = self.domain(set.direction.target);
            for case in set.validation.iter().chain(set.test.iter()) {
                if case.user as usize >= self.n_overlap_total {
                    return Err(DataError::IndexOutOfRange {
                        entity: "cold-start user",
                        index: case.user as usize,
                        bound: self.n_overlap_total,
                    });
                }
                if case.item as usize >= target.n_items {
                    return Err(DataError::IndexOutOfRange {
                        entity: "evaluation item",
                        index: case.item as usize,
                        bound: target.n_items,
                    });
                }
                // Cold-start users must have no training interactions in the
                // target domain (that is what makes them cold).
                if target.train.user_degree(case.user as usize) != 0 {
                    return Err(DataError::InvalidConfig {
                        field: "cold_start",
                        detail: format!("user {} has training interactions in its target domain", case.user),
                    });
                }
            }
        }
        for &u in &self.train_overlap_users {
            if u as usize >= self.n_overlap_total {
                return Err(DataError::IndexOutOfRange {
                    entity: "train overlap user",
                    index: u as usize,
                    bound: self.n_overlap_total,
                });
            }
        }
        Ok(())
    }

    /// The statistics reported in Table II of the paper.
    pub fn stats(&self) -> ScenarioStats {
        ScenarioStats {
            name: self.name.clone(),
            domain_x: DomainStats::from_scenario(self, DomainId::X),
            domain_y: DomainStats::from_scenario(self, DomainId::Y),
            n_train_overlap: self.n_train_overlap(),
        }
    }
}

/// Per-domain statistics (one row of Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainStats {
    /// Domain name.
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of training interactions.
    pub n_train: usize,
    /// Number of validation ground-truth interactions (cold-start users whose
    /// target domain is this one).
    pub n_validation: usize,
    /// Number of test ground-truth interactions.
    pub n_test: usize,
    /// Number of cold-start users evaluated in this domain.
    pub n_cold_start_users: usize,
    /// Training density in percent.
    pub density_percent: f64,
}

impl DomainStats {
    fn from_scenario(s: &CdrScenario, id: DomainId) -> DomainStats {
        let dom = s.domain(id);
        let cold = if id == DomainId::Y {
            &s.cold_x_to_y
        } else {
            &s.cold_y_to_x
        };
        DomainStats {
            name: dom.name.clone(),
            n_users: dom.n_users,
            n_items: dom.n_items,
            n_train: dom.train.n_edges(),
            n_validation: cold.validation.len(),
            n_test: cold.test.len(),
            n_cold_start_users: cold.n_users(),
            density_percent: dom.train_density() * 100.0,
        }
    }
}

/// Statistics of a full scenario (both directions), i.e. one block of
/// Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStats {
    /// Scenario name.
    pub name: String,
    /// Statistics of domain `X`.
    pub domain_x: DomainStats,
    /// Statistics of domain `Y`.
    pub domain_y: DomainStats,
    /// Number of overlapping users used for training.
    pub n_train_overlap: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawDomain;
    use rand::Rng;

    /// A small random raw dataset with a guaranteed healthy overlap prefix.
    pub(crate) fn random_raw(
        seed: u64,
        n_overlap: usize,
        extra_x: usize,
        extra_y: usize,
        n_items: usize,
    ) -> RawCdrData {
        let mut rng = component_rng(seed, "random-raw");
        let mut gen_domain = |name: &str, n_users: usize| {
            let mut edges = Vec::new();
            for u in 0..n_users {
                let k = 3 + (rng.gen::<u32>() % 5) as usize;
                for _ in 0..k {
                    let i = rng.gen_range(0..n_items) as u32;
                    edges.push((u as u32, i));
                }
            }
            RawDomain {
                name: name.into(),
                n_users,
                n_items,
                edges,
            }
        };
        RawCdrData {
            x: gen_domain("X", n_overlap + extra_x),
            y: gen_domain("Y", n_overlap + extra_y),
            n_overlap,
        }
    }

    #[test]
    fn split_hides_cold_start_edges() {
        let raw = random_raw(3, 40, 20, 30, 25);
        let s = CdrScenario::from_raw("toy", &raw, SplitConfig::default()).unwrap();
        s.validate().unwrap();
        assert_eq!(s.n_overlap_total, 40);
        // roughly 20% of 40 = 8 cold users split across the two directions
        let total_cold = s.cold_x_to_y.n_users() + s.cold_y_to_x.n_users();
        assert_eq!(total_cold, 8);
        assert_eq!(s.n_train_overlap(), 32);
        // Cold users toward Y keep their X edges.
        for &u in &s.cold_x_to_y.all_users() {
            assert_eq!(s.y.train.user_degree(u as usize), 0);
            assert!(s.x.train.user_degree(u as usize) > 0);
        }
        for &u in &s.cold_y_to_x.all_users() {
            assert_eq!(s.x.train.user_degree(u as usize), 0);
            assert!(s.y.train.user_degree(u as usize) > 0);
        }
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let raw = random_raw(5, 30, 10, 10, 20);
        let a = CdrScenario::from_raw("a", &raw, SplitConfig::default()).unwrap();
        let b = CdrScenario::from_raw("b", &raw, SplitConfig::default()).unwrap();
        assert_eq!(a.cold_x_to_y.test_users, b.cold_x_to_y.test_users);
        let c = CdrScenario::from_raw(
            "c",
            &raw,
            SplitConfig {
                seed: 99,
                ..SplitConfig::default()
            },
        )
        .unwrap();
        assert_ne!(a.cold_x_to_y.all_users(), c.cold_x_to_y.all_users());
    }

    #[test]
    fn stats_reflect_split() {
        let raw = random_raw(7, 40, 20, 20, 25);
        let s = CdrScenario::from_raw("stats", &raw, SplitConfig::default()).unwrap();
        let st = s.stats();
        assert_eq!(st.domain_x.n_users, s.x.n_users);
        assert_eq!(st.domain_y.n_cold_start_users, s.cold_x_to_y.n_users());
        assert_eq!(st.n_train_overlap, s.n_train_overlap());
        assert!(st.domain_x.density_percent > 0.0);
        assert_eq!(
            st.domain_y.n_validation + st.domain_y.n_test,
            s.cold_x_to_y.validation.len() + s.cold_x_to_y.test.len()
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let raw = random_raw(1, 20, 5, 5, 15);
        assert!(CdrScenario::from_raw(
            "bad",
            &raw,
            SplitConfig {
                cold_start_ratio: 0.0,
                ..SplitConfig::default()
            }
        )
        .is_err());
        assert!(CdrScenario::from_raw(
            "bad",
            &raw,
            SplitConfig {
                test_fraction: 1.5,
                ..SplitConfig::default()
            }
        )
        .is_err());
        let tiny = random_raw(1, 2, 2, 2, 10);
        assert!(CdrScenario::from_raw("tiny", &tiny, SplitConfig::default()).is_err());
    }

    #[test]
    fn direction_and_domain_helpers() {
        assert_eq!(DomainId::X.other(), DomainId::Y);
        assert_eq!(Direction::X_TO_Y.target, DomainId::Y);
        let raw = random_raw(2, 20, 5, 5, 15);
        let s = CdrScenario::from_raw("h", &raw, SplitConfig::default()).unwrap();
        assert_eq!(s.domain(DomainId::X).name, "X");
        assert_eq!(s.cold_start(Direction::X_TO_Y).direction, Direction::X_TO_Y);
        assert_eq!(s.cold_start(Direction::Y_TO_X).direction, Direction::Y_TO_X);
    }
}
