//! Seeded inputs: request mixes, arrival schedules, the power-law catalogue
//! of the scan engine and the ingest delta stream. The same seed always
//! gives the same inputs; nothing here reads a clock.

use cdrib_data::{Direction, DomainId};
use cdrib_eval::EmbeddingScorer;
use cdrib_graph::{BipartiteGraph, GraphDelta};
use cdrib_serve::Request;
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Items asked for by every request.
pub const TOP_K: usize = 10;

/// `n` requests alternating direction, users uniform over the source
/// domain's `n_users` (`[x, y]`).
pub fn request_mix(n_users: [usize; 2], n: usize, seed: u64, label: &str) -> Vec<Request> {
    let mut rng = component_rng(seed, label);
    (0..n)
        .map(|i| {
            let (direction, bound) = if i % 2 == 0 {
                (Direction::X_TO_Y, n_users[0])
            } else {
                (Direction::Y_TO_X, n_users[1])
            };
            Request {
                direction,
                user: rng.gen_range(0..bound as u32),
                k: TOP_K,
            }
        })
        .collect()
}

/// Poisson arrivals at `rate_per_s`: due times in ns from the phase start,
/// strictly increasing (exponential gaps by inverse CDF, at least 1 ns).
pub fn poisson_schedule(rate_per_s: f64, n: usize, seed: u64, label: &str) -> Vec<u64> {
    let mut rng = component_rng(seed, label);
    let mut t = 0.0f64;
    let mut last = 0u64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_per_s * 1e9;
            last = (t as u64).max(last + 1);
            last
        })
        .collect()
}

/// Interaction histories with a power-law degree (mean ≈ 20, capped at
/// 1 024) and cubic item skew — `item = floor(r³ · n_items)` — so a few
/// head items are in most histories and the long tail in almost none. No
/// duplicate edges, every index in range.
pub fn power_law_edges(n_users: usize, n_items: usize, seed: u64, label: &str) -> Vec<(usize, usize)> {
    let mut rng = component_rng(seed, label);
    let mut edges = Vec::with_capacity(n_users * 20);
    let mut items: Vec<usize> = Vec::new();
    for user in 0..n_users {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let degree = ((10.0 / u.sqrt()).round() as usize).clamp(1, 1024.min(n_items / 2));
        items.clear();
        while items.len() < degree {
            let r: f64 = rng.gen_range(0.0..1.0);
            let item = ((r * r * r) * n_items as f64) as usize;
            if let Err(pos) = items.binary_search(&item) {
                items.insert(pos, item);
            }
        }
        edges.extend(items.iter().map(|&item| (user, item)));
    }
    edges
}

/// Shape of the synthetic scan engine.
#[derive(Debug, Clone, Copy)]
pub struct ScanShape {
    pub users: usize,
    pub items: usize,
    pub dim: usize,
}

/// The scan engine's parts: four random embedding tables and one power-law
/// seen graph per domain. Cloned to build a served engine and its twin.
#[derive(Clone)]
pub struct ScanParts {
    pub scorer: EmbeddingScorer,
    pub seen_x: BipartiteGraph,
    pub seen_y: BipartiteGraph,
}

pub fn scan_parts(shape: ScanShape, seed: u64) -> ScanParts {
    let table = |rows: usize, label: &str| {
        let mut rng = component_rng(seed, label);
        let data: Vec<f32> = (0..rows * shape.dim).map(|_| rng.gen::<f32>() - 0.5).collect();
        Tensor::from_vec(rows, shape.dim, data).expect("table shape matches its data")
    };
    let graph = |label: &str| {
        BipartiteGraph::new(
            shape.users,
            shape.items,
            &power_law_edges(shape.users, shape.items, seed, label),
        )
        .expect("generated edges are in range")
    };
    ScanParts {
        scorer: EmbeddingScorer::dot(
            table(shape.users, "scan-xu"),
            table(shape.items, "scan-xi"),
            table(shape.users, "scan-yu"),
            table(shape.items, "scan-yi"),
        ),
        seen_x: graph("scan-seen-x"),
        seen_y: graph("scan-seen-y"),
    }
}

/// The ingest traffic: a deterministic stream of deltas whose indices are
/// valid when the deltas are applied in order. Mix by count: 60 % like
/// batches (8 new edges among existing users and items), 20 % un-likes of
/// edges this stream added earlier, 15 % growth (2 new cold users × 4
/// edges, every 4th growth also 1 new item), 5 % user erasure or item
/// delisting. Domains alternate.
pub struct DeltaStream {
    rng: StdRng,
    n_users: [usize; 2],
    n_items: [usize; 2],
    added: [Vec<(u32, u32)>; 2],
    growths: usize,
    retractions: usize,
}

impl DeltaStream {
    /// `n_users` / `n_items` are the `[x, y]` entity counts of the engine
    /// before the first delta.
    pub fn new(n_users: [usize; 2], n_items: [usize; 2], seed: u64) -> DeltaStream {
        DeltaStream {
            rng: component_rng(seed, "delta-stream"),
            n_users,
            n_items,
            added: [Vec::new(), Vec::new()],
            growths: 0,
            retractions: 0,
        }
    }

    pub fn next_delta(&mut self, index: usize) -> (DomainId, GraphDelta) {
        let d = index % 2;
        let domain = if d == 0 { DomainId::X } else { DomainId::Y };
        let kind = self.rng.gen_range(0..100u32);
        let mut delta = GraphDelta::empty();
        if kind < 20 && !self.added[d].is_empty() {
            for _ in 0..4.min(self.added[d].len()) {
                let pick = self.rng.gen_range(0..self.added[d].len());
                delta.remove_edges.push(self.added[d].swap_remove(pick));
            }
        } else if (80..95).contains(&kind) {
            self.growths += 1;
            let first_user = self.n_users[d] as u32;
            delta.add_users = 2;
            if self.growths.is_multiple_of(4) {
                delta.add_items = 1;
            }
            let items = (self.n_items[d] + delta.add_items) as u32;
            for user in first_user..first_user + 2 {
                for _ in 0..4 {
                    delta.edges.push((user, self.rng.gen_range(0..items)));
                }
            }
            self.n_users[d] += 2;
            self.n_items[d] += delta.add_items;
        } else if kind >= 95 {
            self.retractions += 1;
            if self.retractions.is_multiple_of(2) {
                delta.erase_users.push(self.rng.gen_range(0..self.n_users[d] as u32));
            } else {
                delta.delist_items.push(self.rng.gen_range(0..self.n_items[d] as u32));
            }
        } else {
            for _ in 0..8 {
                delta.edges.push((
                    self.rng.gen_range(0..self.n_users[d] as u32),
                    self.rng.gen_range(0..self.n_items[d] as u32),
                ));
            }
        }
        self.added[d].extend_from_slice(&delta.edges);
        (domain, delta)
    }

    /// The first `n` deltas of the stream.
    pub fn take(mut self, n: usize) -> Vec<(DomainId, GraphDelta)> {
        (0..n).map(|i| self.next_delta(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_strictly_increases() {
        for (rate, n) in [(2_000.0, 200_000), (20_000.0, 400_000), (150.0, 100_000)] {
            let due = poisson_schedule(rate, n, 42, "test-arrivals");
            assert!(due.windows(2).all(|w| w[0] < w[1]), "due times must strictly increase");
            let mean_rate = n as f64 / (*due.last().unwrap() as f64 * 1e-9);
            assert!(
                (mean_rate / rate - 1.0).abs() < 0.01,
                "rate {rate}: generated {mean_rate}"
            );
        }
        assert_eq!(
            poisson_schedule(600.0, 100, 7, "a"),
            poisson_schedule(600.0, 100, 7, "a"),
            "same seed, same schedule"
        );
        assert_ne!(
            poisson_schedule(600.0, 100, 7, "a"),
            poisson_schedule(600.0, 100, 8, "a")
        );
    }

    #[test]
    fn power_law_graph_is_valid_skewed_and_near_mean_twenty() {
        let (n_users, n_items) = (4096, 65_536);
        let edges = power_law_edges(n_users, n_items, 3, "test-graph");
        let mean = edges.len() as f64 / n_users as f64;
        assert!((18.0..22.0).contains(&mean), "mean degree {mean}");
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), edges.len(), "no duplicate edges");
        let graph = BipartiteGraph::new(n_users, n_items, &edges).expect("valid for BipartiteGraph::new");
        assert_eq!(graph.n_edges(), edges.len());
        // Cubic skew: the first 1 % of the catalogue takes ~ 0.01^(1/3) ≈ 21 % of the edges.
        let head = edges.iter().filter(|&&(_, i)| i < n_items / 100).count() as f64 / edges.len() as f64;
        assert!((0.15..0.30).contains(&head), "head share {head}");
        let max_degree = (0..n_users).map(|u| graph.user_degree(u)).max().unwrap();
        assert!(max_degree > 100, "a power law has heavy users (max {max_degree})");
    }

    #[test]
    fn request_mix_alternates_directions_in_range() {
        let mix = request_mix([50, 30], 1000, 1, "test-mix");
        for (i, r) in mix.iter().enumerate() {
            let (dir, bound) = if i % 2 == 0 {
                (Direction::X_TO_Y, 50)
            } else {
                (Direction::Y_TO_X, 30)
            };
            assert_eq!(r.direction, dir);
            assert!((r.user as usize) < bound);
            assert_eq!(r.k, TOP_K);
        }
    }

    #[test]
    fn delta_stream_applies_in_order_and_holds_its_mix() {
        let (n_users, n_items) = ([520usize, 400], [325usize, 250]);
        let mut graphs = [
            BipartiteGraph::new(n_users[0], n_items[0], &[]).unwrap(),
            BipartiteGraph::new(n_users[1], n_items[1], &[]).unwrap(),
        ];
        // The ingest workload's stream at the default run length.
        let deltas = DeltaStream::new(n_users, n_items, 9).take(1500);
        let (mut likes, mut unlikes, mut growth, mut retract) = (0, 0, 0, 0);
        for (i, (domain, delta)) in deltas.iter().enumerate() {
            let g = &mut graphs[i % 2];
            assert_eq!(*domain, if i % 2 == 0 { DomainId::X } else { DomainId::Y });
            delta
                .check_bounds(g.n_users(), g.n_items())
                .expect("every delta is in range when applied in order");
            g.apply_delta(delta).unwrap();
            if delta.add_users > 0 {
                growth += 1;
            } else if !delta.remove_edges.is_empty() {
                unlikes += 1;
            } else if !delta.erase_users.is_empty() || !delta.delist_items.is_empty() {
                retract += 1;
            } else {
                likes += 1;
            }
        }
        let share = |n: i32| f64::from(n) / 1500.0;
        assert!((share(likes) - 0.60).abs() < 0.04, "likes {likes}");
        assert!((share(unlikes) - 0.20).abs() < 0.04, "un-likes {unlikes}");
        assert!((share(growth) - 0.15).abs() < 0.03, "growth {growth}");
        assert!((share(retract) - 0.05).abs() < 0.02, "retractions {retract}");
        // Entity counts grow, but by less than 2x over the run.
        assert!(graphs[0].n_users() > n_users[0] && graphs[0].n_users() < 2 * n_users[0]);
        assert!(graphs[1].n_users() > n_users[1] && graphs[1].n_users() < 2 * n_users[1]);
    }
}
