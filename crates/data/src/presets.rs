//! Scenario presets mirroring the four Amazon CDR pairs of Table II.
//!
//! Absolute sizes are scaled down so that a full table sweep (14 methods x 4
//! scenarios x 5 seeds) runs on a single CPU core in minutes, but the
//! *relative* shapes of Table II are preserved: Music-Movie is the largest
//! and has a mid-range density, Phone-Elec pairs a dense small domain with a
//! sparse large one, Cloth-Sport is sparse on both sides, and Game-Video is
//! the smallest and densest pair with the fewest overlapping users.

use crate::error::{DataError, Result};
use crate::scenario::{CdrScenario, SplitConfig};
use crate::synthetic::{generate_scenario, SyntheticConfig};
use serde::{Deserialize, Serialize};

/// The four cross-domain pairs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Music (X) and Movie (Y).
    MusicMovie,
    /// Phone (X) and Elec (Y).
    PhoneElec,
    /// Cloth (X) and Sport (Y).
    ClothSport,
    /// Game (X) and Video (Y).
    GameVideo,
}

impl ScenarioKind {
    /// All four scenarios in the order of the paper's tables.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::MusicMovie,
        ScenarioKind::PhoneElec,
        ScenarioKind::ClothSport,
        ScenarioKind::GameVideo,
    ];

    /// Scenario display name (e.g. "Music-Movie").
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::MusicMovie => "Music-Movie",
            ScenarioKind::PhoneElec => "Phone-Elec",
            ScenarioKind::ClothSport => "Cloth-Sport",
            ScenarioKind::GameVideo => "Game-Video",
        }
    }

    /// Domain names as `(X, Y)`.
    pub fn domain_names(&self) -> (&'static str, &'static str) {
        match self {
            ScenarioKind::MusicMovie => ("Music", "Movie"),
            ScenarioKind::PhoneElec => ("Phone", "Elec"),
            ScenarioKind::ClothSport => ("Cloth", "Sport"),
            ScenarioKind::GameVideo => ("Game", "Video"),
        }
    }

    /// Parses a scenario from a CLI-style string (case-insensitive, accepts
    /// "music-movie", "MusicMovie", "music_movie", ...).
    pub fn parse(s: &str) -> Result<ScenarioKind> {
        let key: String = s
            .to_ascii_lowercase()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect();
        match key.as_str() {
            "musicmovie" => Ok(ScenarioKind::MusicMovie),
            "phoneelec" => Ok(ScenarioKind::PhoneElec),
            "clothsport" => Ok(ScenarioKind::ClothSport),
            "gamevideo" => Ok(ScenarioKind::GameVideo),
            _ => Err(DataError::InvalidConfig {
                field: "scenario",
                detail: format!("unknown scenario `{s}` (expected music-movie, phone-elec, cloth-sport or game-video)"),
            }),
        }
    }
}

/// Dataset scale of a preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// A few hundred users per domain; for unit/integration tests.
    Tiny,
    /// Default experiment scale (a couple of thousand users per domain).
    Small,
    /// Larger sweep used for scaling benches.
    Full,
}

impl Scale {
    /// Multiplier applied to the Small user/item counts.
    fn factor(&self) -> f64 {
        match self {
            Scale::Tiny => 0.3,
            Scale::Small => 1.0,
            Scale::Full => 3.0,
        }
    }

    /// Parses a scale from a CLI-style string.
    pub fn parse(s: &str) -> Result<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" | "large" => Ok(Scale::Full),
            _ => Err(DataError::InvalidConfig {
                field: "scale",
                detail: format!("unknown scale `{s}` (expected tiny, small or full)"),
            }),
        }
    }
}

fn scaled(base: usize, factor: f64, min: usize) -> usize {
    ((base as f64 * factor).round() as usize).max(min)
}

/// Builds the generator configuration of a preset scenario.
pub(crate) fn preset_config(kind: ScenarioKind, scale: Scale, seed: u64) -> SyntheticConfig {
    let f = scale.factor();
    let (xn, yn) = kind.domain_names();
    // (overlap, x_only, y_only, items_x, items_y, mean_inter_x≈y, shared_weight)
    let (overlap, x_only, y_only, items_x, items_y, mean_inter, skew) = match kind {
        // Large pair, mid density, many overlap users.
        ScenarioKind::MusicMovie => (420, 700, 1250, 700, 620, 14.0, 1.0),
        // Dense small phone domain vs sparse large electronics domain.
        ScenarioKind::PhoneElec => (460, 280, 1500, 330, 800, 13.0, 1.1),
        // Sparse mid-sized pair with moderate overlap.
        ScenarioKind::ClothSport => (240, 850, 520, 520, 400, 10.0, 0.9),
        // Smallest, densest pair with very few overlap users.
        ScenarioKind::GameVideo => (100, 420, 300, 360, 280, 15.0, 0.8),
    };
    SyntheticConfig {
        name: kind.name().into(),
        domain_x_name: xn.into(),
        domain_y_name: yn.into(),
        n_overlap: scaled(overlap, f, 40),
        n_users_x_only: scaled(x_only, f, 40),
        n_users_y_only: scaled(y_only, f, 40),
        n_items_x: scaled(items_x, f, 60),
        n_items_y: scaled(items_y, f, 60),
        dim_shared: 8,
        dim_specific: 8,
        shared_weight: 0.7,
        mean_interactions: mean_inter,
        min_interactions: 6,
        popularity_skew: skew,
        temperature: 0.8,
        min_user_interactions: 5,
        min_item_interactions: if scale == Scale::Tiny { 5 } else { 8 },
        seed,
    }
}

/// Generates a preset scenario end to end (generation + preprocessing +
/// cold-start split).
pub fn build_preset(kind: ScenarioKind, scale: Scale, seed: u64) -> Result<CdrScenario> {
    let cfg = preset_config(kind, scale, seed);
    let split = SplitConfig {
        seed: seed.wrapping_add(101),
        ..SplitConfig::default()
    };
    generate_scenario(&cfg, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scenarios_and_scales() {
        assert_eq!(ScenarioKind::parse("music-movie").unwrap(), ScenarioKind::MusicMovie);
        assert_eq!(ScenarioKind::parse("PhoneElec").unwrap(), ScenarioKind::PhoneElec);
        assert_eq!(ScenarioKind::parse("cloth_sport").unwrap(), ScenarioKind::ClothSport);
        assert_eq!(ScenarioKind::parse("GAME-VIDEO").unwrap(), ScenarioKind::GameVideo);
        assert!(ScenarioKind::parse("books").is_err());
        assert_eq!(Scale::parse("tiny").unwrap(), Scale::Tiny);
        assert_eq!(Scale::parse("small").unwrap(), Scale::Small);
        assert_eq!(Scale::parse("full").unwrap(), Scale::Full);
        assert!(Scale::parse("huge").is_err());
        assert_eq!(ScenarioKind::MusicMovie.domain_names().0, "Music");
        assert_eq!(ScenarioKind::ALL.len(), 4);
    }

    #[test]
    fn preset_configs_preserve_table2_shape() {
        let mm = preset_config(ScenarioKind::MusicMovie, Scale::Small, 0);
        let gv = preset_config(ScenarioKind::GameVideo, Scale::Small, 0);
        let pe = preset_config(ScenarioKind::PhoneElec, Scale::Small, 0);
        let x_users = |c: &SyntheticConfig| c.n_overlap + c.n_users_x_only;
        let y_users = |c: &SyntheticConfig| c.n_overlap + c.n_users_y_only;
        // Music-Movie is the largest pair, Game-Video the smallest with the
        // fewest overlap users — as in Table II.
        assert!(x_users(&mm) + y_users(&mm) > x_users(&gv) + y_users(&gv));
        assert!(mm.n_overlap > gv.n_overlap);
        // Phone domain is much smaller than Elec domain.
        assert!(pe.n_users_y_only > pe.n_users_x_only);
        // Tiny scale shrinks everything.
        let tiny = preset_config(ScenarioKind::MusicMovie, Scale::Tiny, 0);
        assert!(x_users(&tiny) < x_users(&mm));
        let full = preset_config(ScenarioKind::MusicMovie, Scale::Full, 0);
        assert!(x_users(&full) > x_users(&mm));
    }

    #[test]
    fn tiny_presets_build_valid_scenarios() {
        for kind in ScenarioKind::ALL {
            let s = build_preset(kind, Scale::Tiny, 7).unwrap();
            s.validate().unwrap();
            assert!(s.n_train_overlap() > 10, "{}", kind.name());
            assert!(!s.cold_x_to_y.test.is_empty());
            assert!(!s.cold_y_to_x.test.is_empty());
            assert_eq!(s.name, kind.name());
        }
    }

    #[test]
    fn game_video_is_densest_tiny_pair() {
        let gv = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 3).unwrap();
        let cs = build_preset(ScenarioKind::ClothSport, Scale::Tiny, 3).unwrap();
        let gv_density = gv.x.train_density() + gv.y.train_density();
        let cs_density = cs.x.train_density() + cs.y.train_density();
        assert!(
            gv_density > cs_density,
            "Game-Video should be denser than Cloth-Sport ({gv_density} vs {cs_density})"
        );
    }
}
