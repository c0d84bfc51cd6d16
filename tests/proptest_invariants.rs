//! Property-based tests of the core invariants that every experiment relies
//! on: tensor algebra identities, CSR/graph consistency, metric bounds,
//! split correctness and batch-independence of served top-K lists.

use cdrib::data::{RawCdrData, RawDomain};
use cdrib::eval::{hit_rate_at_k, ndcg_at_k, rank_of_positive, reciprocal_rank, RankingMetrics, ScoreKind};
use cdrib::graph::{BipartiteGraph, DeltaEffect, GraphDelta, GraphError};
use cdrib::prelude::*;
use cdrib::serve::{ScoringPrecision, ServeError};
use cdrib::tensor::rng::{component_rng, normal_tensor};
use cdrib::tensor::CsrMatrix;
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..6, 1usize..6)
        .prop_flat_map(|(r, c)| proptest::collection::vec(-10.0f32..10.0, r * c).prop_map(move |v| (r, c, v)))
}

/// Raw draws for one delta: entity growth plus `(kind, a, b)` ops.
type RawDelta = (u8, u8, Vec<(u8, u16, u16)>);

/// Maps raw draws onto an in-range delta for `graph`. The id space is small,
/// so later deltas keep hitting what earlier ones added, removed, erased or
/// delisted — the interleavings a group has to get right.
fn materialise_delta(graph: &BipartiteGraph, (add_users, add_items, ops): &RawDelta) -> GraphDelta {
    let n_users = (graph.n_users() + *add_users as usize) as u32;
    let n_items = (graph.n_items() + *add_items as usize) as u32;
    let mut delta = GraphDelta {
        add_users: *add_users as usize,
        add_items: *add_items as usize,
        ..GraphDelta::empty()
    };
    for &(kind, a, b) in ops {
        let pair = (a as u32 % n_users, b as u32 % n_items);
        match kind % 6 {
            0 | 1 => delta.edges.push(pair),
            2 if graph.n_edges() > 0 => delta
                .remove_edges
                .push(graph.edges().nth(a as usize % graph.n_edges()).unwrap()),
            2 | 3 => delta.remove_edges.push(pair),
            4 => delta.erase_users.push(pair.0),
            _ => delta.delist_items.push(pair.1),
        }
    }
    delta
}

fn assert_same_graph(got: &BipartiteGraph, want: &BipartiteGraph) {
    got.check_invariants().unwrap();
    assert_eq!((got.n_users(), got.n_items()), (want.n_users(), want.n_items()));
    assert_eq!(got.edges().collect::<Vec<_>>(), want.edges().collect::<Vec<_>>());
    for u in 0..want.n_users() {
        assert_eq!(got.items_of(u), want.items_of(u), "user {u}");
    }
    for i in 0..want.n_items() {
        assert_eq!(got.users_of(i), want.users_of(i), "item {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `DeltaGroup` is indistinguishable from applying its deltas one at a
    /// time: same graph, and a receipt that is the per-delta receipts summed
    /// (counters) and unioned (lists). A delta the group rejects mutates
    /// nothing and leaves the group equal to the deltas before it.
    #[test]
    fn delta_group_matches_one_at_a_time_apply(
        n_users in 1usize..10,
        n_items in 1usize..10,
        initial in proptest::collection::vec((0usize..10, 0usize..10), 0..30),
        raw_deltas in proptest::collection::vec(
            (0u8..3, 0u8..3, proptest::collection::vec((0u8..6, 0u16..u16::MAX, 0u16..u16::MAX), 0..8)),
            1..8,
        ),
        reject_at in 0usize..8,
    ) {
        let seed_edges: Vec<(usize, usize)> = initial.iter().map(|&(u, i)| (u % n_users, i % n_items)).collect();
        let base = BipartiteGraph::new(n_users, n_items, &seed_edges).unwrap();

        // One at a time: `states[k]` is the graph after the first k deltas.
        let mut states = vec![base.clone()];
        let mut deltas = Vec::new();
        let mut receipts = Vec::new();
        for raw in &raw_deltas {
            let mut graph = states.last().unwrap().clone();
            let delta = materialise_delta(&graph, raw);
            receipts.push(graph.apply_delta(&delta).unwrap());
            deltas.push(delta);
            states.push(graph);
        }

        // The whole sequence as one group.
        let mut grouped = base.clone();
        let mut receipt = DeltaEffect::new();
        {
            let mut group = grouped.delta_group(&mut receipt);
            for delta in &deltas {
                group.apply(delta).unwrap();
            }
        }
        assert_same_graph(&grouped, states.last().unwrap());
        let sum = |f: fn(&DeltaEffect) -> usize| receipts.iter().map(f).sum::<usize>();
        prop_assert_eq!(receipt.users_added, sum(|e| e.users_added));
        prop_assert_eq!(receipt.items_added, sum(|e| e.items_added));
        prop_assert_eq!(receipt.edges_added, sum(|e| e.edges_added));
        prop_assert_eq!(receipt.duplicate_edges, sum(|e| e.duplicate_edges));
        prop_assert_eq!(receipt.edges_removed, sum(|e| e.edges_removed));
        prop_assert_eq!(receipt.missing_edges, sum(|e| e.missing_edges));
        prop_assert_eq!(receipt.users_erased, sum(|e| e.users_erased));
        prop_assert_eq!(receipt.items_delisted, sum(|e| e.items_delisted));
        let union = |f: fn(&DeltaEffect) -> &Vec<u32>| {
            let mut all: Vec<u32> = receipts.iter().flat_map(|e| f(e).iter().copied()).collect();
            all.sort_unstable();
            all.dedup();
            all
        };
        prop_assert_eq!(&receipt.touched_users, &union(|e| &e.touched_users));
        prop_assert_eq!(&receipt.touched_items, &union(|e| &e.touched_items));
        prop_assert_eq!(&receipt.erased_users, &union(|e| &e.erased_users));
        prop_assert_eq!(&receipt.delisted_items, &union(|e| &e.delisted_items));

        // The first k deltas, then one that is out of range for the graph
        // they leave behind (its in-range ops must not land either).
        let k = reject_at % (deltas.len() + 1);
        let mut bad = deltas.get(k).cloned().unwrap_or_default();
        let beyond = (states[k].n_users() + bad.add_users) as u32;
        bad.edges.push((beyond, 0));
        let mut grouped = base.clone();
        {
            let mut group = grouped.delta_group(&mut receipt);
            for delta in &deltas[..k] {
                group.apply(delta).unwrap();
            }
            let rejected = matches!(
                group.apply(&bad),
                Err(GraphError::UserOutOfRange { user, n_users }) if user == beyond as usize && n_users == beyond as usize
            );
            prop_assert!(rejected);
        }
        assert_same_graph(&grouped, &states[k]);
    }

    /// What a batch answers for a request is what the request gets alone,
    /// and (in f32, which the oracle scores in) what the full-sort oracle
    /// says — item ids and score bits — whatever else the batch holds: other
    /// directions, duplicates, `k` of 0 or past the catalogue, rejected
    /// users. Over random small engines of every embedding width, both score
    /// kinds, both precisions.
    #[test]
    fn batched_top_k_matches_single_requests_and_full_sort(
        seed in 0u64..u64::MAX,
        (dim, metric) in (1usize..20, 0u8..2),
        (x_users, x_items, y_users, y_items) in (1usize..6, 1usize..40, 1usize..6, 1usize..40),
        seen in proptest::collection::vec((0u8..2, 0usize..6, 0usize..40), 0..60),
        delisted in proptest::collection::vec((0u8..2, 0u32..40), 0..6),
        raw_requests in proptest::collection::vec((0u8..2, 0u32..7, 0usize..50), 1..12),
    ) {
        let mut rng = component_rng(seed, "batch-parity");
        // Coarse values: plenty of exact score ties for the id tie-break.
        let mut table = |rows: usize| normal_tensor(&mut rng, rows, dim, 0.5).map(|v| (v * 4.0).round() / 4.0);
        let scorer = EmbeddingScorer {
            x_users: table(x_users),
            x_items: table(x_items),
            y_users: table(y_users),
            y_items: table(y_items),
            kind: [ScoreKind::Dot, ScoreKind::NegativeDistance][metric as usize],
        };
        let graph = |domain: u8, n_users: usize, n_items: usize| {
            let of_domain = seen.iter().filter(|&&(d, _, _)| d == domain);
            let edges: Vec<(usize, usize)> = of_domain.map(|&(_, u, i)| (u % n_users, i % n_items)).collect();
            BipartiteGraph::new(n_users, n_items, &edges).unwrap()
        };
        let mut rec = Recommender::new(scorer, graph(0, x_users, x_items), graph(1, y_users, y_items)).unwrap();
        for (domain, n_items) in [(DomainId::X, x_items), (DomainId::Y, y_items)] {
            let of_domain = delisted.iter().filter(|&&(d, _)| d == domain as u8);
            let items: Vec<u32> = of_domain.map(|&(_, item)| item % n_items as u32).collect();
            rec.install_delisted_items(domain, &items);
        }
        // User ids run past both user tables, so some requests are rejected.
        let requests: Vec<Request> = raw_requests
            .iter()
            .map(|&(d, user, k)| Request { direction: [Direction::X_TO_Y, Direction::Y_TO_X][d as usize], user, k })
            .collect();
        let bits = |list: &[Recommendation]| list.iter().map(|r| (r.item, r.score.to_bits())).collect::<Vec<_>>();
        let (mut responses, mut outcomes, mut single) = (Vec::new(), Vec::new(), Vec::new());
        for precision in [ScoringPrecision::F32, ScoringPrecision::Int8] {
            rec.set_precision(precision);
            rec.recommend_batch_outcomes(&requests, &mut responses, &mut outcomes, 2);
            for (slot, request) in requests.iter().enumerate() {
                match rec.recommend(request, &mut single) {
                    Ok(()) => {
                        prop_assert!(outcomes[slot].is_ok());
                        prop_assert_eq!(bits(&responses[slot]), bits(&single));
                        if precision == ScoringPrecision::F32 {
                            prop_assert_eq!(bits(&single), bits(&rec.recommend_full_sort(request).unwrap()));
                        }
                    }
                    Err(ServeError::UserOutOfRange { user, bound }) => {
                        prop_assert!(matches!(
                            outcomes[slot],
                            Err(ServeError::UserOutOfRange { user: u, bound: b }) if u == user && b == bound
                        ));
                        prop_assert!(responses[slot].is_empty());
                    }
                    Err(other) => panic!("unexpected rejection {other:?}"),
                }
            }
        }
    }

    #[test]
    fn matmul_transpose_identity((r, k, a_data) in small_matrix(), c in 1usize..5) {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec(r, k, a_data).unwrap();
        let b = Tensor::from_vec(k, c, vec![0.5; k * c]).unwrap();
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn elementwise_ops_are_commutative_and_distributive((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(r, c, data.clone()).unwrap();
        let b = a.scale(0.3);
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        prop_assert_eq!(a.mul(&b).unwrap(), b.mul(&a).unwrap());
        // (a + b) * 2 == 2a + 2b
        let lhs = a.add(&b).unwrap().scale(2.0);
        let rhs = a.scale(2.0).add(&b.scale(2.0)).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn csr_roundtrip_matches_dense(edges in proptest::collection::vec((0usize..8, 0usize..8), 1..30)) {
        let csr = CsrMatrix::from_edges(8, 8, &edges).unwrap();
        let dense = csr.to_dense();
        // nnz equals the number of distinct edges
        let mut distinct = edges.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(csr.nnz(), distinct.len());
        // transpose twice is identity, and spmm matches dense matmul
        prop_assert_eq!(csr.transpose().transpose().to_dense(), dense.clone());
        let x = Tensor::ones(8, 3);
        let sparse_result = csr.spmm(&x).unwrap();
        let dense_result = dense.matmul(&x).unwrap();
        for (a, b) in sparse_result.as_slice().iter().zip(dense_result.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        // row-normalised rows sum to one (or zero for empty rows)
        let norm = csr.row_normalized();
        for r in 0..8 {
            let s: f32 = norm.row_iter(r).map(|(_, v)| v).sum();
            prop_assert!(s.abs() < 1e-5 || (s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn graph_degrees_sum_to_edge_count(edges in proptest::collection::vec((0usize..10, 0usize..12), 1..60)) {
        let g = BipartiteGraph::new(10, 12, &edges).unwrap();
        let user_sum: usize = (0..10).map(|u| g.user_degree(u)).sum();
        let item_sum: usize = (0..12).map(|i| g.item_degree(i)).sum();
        prop_assert_eq!(user_sum, g.n_edges());
        prop_assert_eq!(item_sum, g.n_edges());
        // two-hop neighbours never contain the user itself
        for u in 0..10 {
            prop_assert!(!g.two_hop_users(u).contains(&(u as u32)));
        }
    }

    #[test]
    fn ranking_metrics_are_bounded_and_monotone(rank in 1usize..2000) {
        let m = RankingMetrics::from_rank(rank);
        prop_assert!(m.is_normalized());
        prop_assert!(reciprocal_rank(rank) <= 1.0);
        prop_assert!(ndcg_at_k(rank, 10) <= 1.0);
        prop_assert!(hit_rate_at_k(rank, 5) <= hit_rate_at_k(rank, 10));
        prop_assert!(ndcg_at_k(rank, 5) <= ndcg_at_k(rank, 10) + 1e-12);
    }

    #[test]
    fn rank_of_positive_is_consistent(pos in -5.0f32..5.0, negs in proptest::collection::vec(-5.0f32..5.0, 0..50)) {
        let rank = rank_of_positive(pos, &negs);
        prop_assert!(rank >= 1);
        prop_assert!(rank <= negs.len() + 1);
        let strictly_higher = negs.iter().filter(|&&s| s > pos).count();
        prop_assert!(rank >= strictly_higher.min(negs.len()) + 1 - negs.iter().filter(|&&s| s == pos).count());
    }

    #[test]
    fn cold_start_split_invariants(seed in 0u64..500) {
        // Build a random raw dataset and check the split never leaks
        // target-domain interactions of cold-start users into training.
        let mut edges_x = Vec::new();
        let mut edges_y = Vec::new();
        for u in 0..30u32 {
            for k in 0..6u32 {
                edges_x.push((u, (u * 7 + k * 3) % 25));
                edges_y.push((u, (u * 5 + k * 11) % 20));
            }
        }
        let raw = RawCdrData {
            x: RawDomain { name: "X".into(), n_users: 30, n_items: 25, edges: edges_x },
            y: RawDomain { name: "Y".into(), n_users: 30, n_items: 20, edges: edges_y },
            n_overlap: 30,
        };
        let scenario = CdrScenario::from_raw("prop", &raw, SplitConfig { seed, ..SplitConfig::default() }).unwrap();
        prop_assert!(scenario.validate().is_ok());
        // training overlap users and cold-start users are disjoint
        let cold: std::collections::HashSet<u32> = scenario
            .cold_x_to_y
            .all_users()
            .into_iter()
            .chain(scenario.cold_y_to_x.all_users())
            .collect();
        for u in &scenario.train_overlap_users {
            prop_assert!(!cold.contains(u));
        }
        // every evaluation case's item exists in the full graph
        for case in scenario.cold_x_to_y.test.iter().chain(scenario.cold_x_to_y.validation.iter()) {
            prop_assert!(scenario.y.full.has_edge(case.user as usize, case.item as usize));
            prop_assert_eq!(scenario.y.train.user_degree(case.user as usize), 0);
        }
    }
}
