//! Differential test harness for online graph deltas.
//!
//! The online-update subsystem promises that ingesting interaction deltas
//! incrementally is *indistinguishable* from re-freezing the model on the
//! post-delta graph:
//!
//! 1. after any randomized delta sequence, the incrementally updated
//!    [`Recommender`]'s four embedding tables are **bitwise identical** to
//!    those of a recommender rebuilt from scratch
//!    (`InferenceModel::extend_entities` + `rebind_graph` + full forward);
//! 2. its top-K lists equal the rebuilt engine's full-sort reference
//!    **exactly** under the `(score desc, item asc)` total order;
//! 3. `BipartiteGraph::apply_delta` preserves every structural invariant
//!    and is equivalent to from-scratch construction on the accumulated
//!    edges (sorted-CSR row offsets monotone, neighbour lists sorted and
//!    deduplicated, the two sides consistent, the edge counter in step).
//!
//! Delta sequences interleave the two domains and mix new users (with and
//! without edges), new items, brand-new edges, duplicate edges, empty
//! deltas, edge retractions, GDPR user erasures and item delistings — the
//! traffic a serving process with a full data lifecycle would actually see.
//! The reference rebuild zeroes erased user rows (the public
//! `erase_user_rows` hook) and installs the same catalogue tombstones, so
//! "indistinguishable" covers the shrink direction too: grow-then-shrink
//! sequences must land bitwise on the state a never-grown engine plus
//! tombstones would serve.

use cdrib_core::{CdribConfig, CdribModel, InferenceModel};
use cdrib_data::{build_preset, CdrScenario, Direction, DomainId, Scale, ScenarioKind};
use cdrib_graph::{BipartiteGraph, GraphDelta};
use cdrib_serve::{Recommender, Request};
use cdrib_tensor::CsrMatrix;
use proptest::prelude::*;

/// Raw material for one delta: domain selector, entity growth, raw edge
/// draws that get mapped into the valid (post-growth) index ranges, and raw
/// retraction draws mapped onto the four removal shapes.
type RawDelta = (u8, u8, u8, Vec<(u16, u16)>, Vec<u16>);

fn raw_delta() -> impl Strategy<Value = RawDelta> {
    (
        0u8..2,
        0u8..3,
        0u8..3,
        proptest::collection::vec((0u16..u16::MAX, 0u16..u16::MAX), 0..7),
        proptest::collection::vec(0u16..u16::MAX, 0..5),
    )
}

/// Maps a raw draw onto a concrete delta for `graph`: every raw edge lands
/// in range, a fifth of the draws duplicate an existing interaction, and
/// each new user receives one guaranteed edge so the cold-start story
/// (fresh user, fresh neighbourhood, recommendable now) is always exercised.
/// Retraction draws split four ways — un-like an existing edge, erase a
/// user, delist an item, or remove a probably-absent pair (the counted
/// no-op) — so grow and shrink interleave inside a single batch.
fn materialise_delta(
    graph: &BipartiteGraph,
    add_users: usize,
    add_items: usize,
    raw: &[(u16, u16)],
    removals: &[u16],
) -> GraphDelta {
    let n_users = graph.n_users() + add_users;
    let n_items = graph.n_items() + add_items;
    let mut edges = Vec::new();
    for &(a, b) in raw {
        if a % 5 == 0 && graph.n_edges() > 0 {
            edges.push(graph.edges().nth(b as usize % graph.n_edges()).unwrap());
        } else {
            edges.push((a as u32 % n_users as u32, b as u32 % n_items as u32));
        }
    }
    for (offset, &(_, b)) in raw.iter().take(add_users).enumerate() {
        edges.push(((graph.n_users() + offset) as u32, b as u32 % n_items as u32));
    }
    let mut remove_edges = Vec::new();
    let mut erase_users = Vec::new();
    let mut delist_items = Vec::new();
    for &r in removals {
        let pick = (r / 4) as u32;
        match r % 4 {
            0 if graph.n_edges() > 0 => remove_edges.push(graph.edges().nth(pick as usize % graph.n_edges()).unwrap()),
            1 => erase_users.push(pick % n_users as u32),
            2 => delist_items.push(pick % n_items as u32),
            _ => remove_edges.push((pick % n_users as u32, (pick / 3) % n_items as u32)),
        }
    }
    GraphDelta {
        add_users,
        add_items,
        edges,
        remove_edges,
        erase_users,
        delist_items,
    }
}

/// A tiny two-domain scenario and its (untrained but fully structured)
/// model; deterministic per seed.
fn setup(seed: u64) -> (CdrScenario, CdribModel) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 1000 + seed).unwrap();
    let config = CdribConfig {
        layers: 2,
        ..CdribConfig::fast_test()
    };
    let model = CdribModel::new(&config, &scenario).unwrap();
    (scenario, model)
}

/// Accumulated lifecycle state the harness tracks alongside the graphs:
/// which users have been GDPR-erased and which items delisted, per domain.
#[derive(Default)]
struct TrackedLifecycle {
    erased_x: Vec<u32>,
    erased_y: Vec<u32>,
    delisted_x: Vec<u32>,
    delisted_y: Vec<u32>,
}

impl TrackedLifecycle {
    fn absorb(&mut self, domain: DomainId, erased: &[u32], delisted: &[u32]) {
        let (e, d) = match domain {
            DomainId::X => (&mut self.erased_x, &mut self.delisted_x),
            DomainId::Y => (&mut self.erased_y, &mut self.delisted_y),
        };
        for &u in erased {
            if let Err(pos) = e.binary_search(&u) {
                e.insert(pos, u);
            }
        }
        for &i in delisted {
            if let Err(pos) = d.binary_search(&i) {
                d.insert(pos, i);
            }
        }
    }
}

/// Rebuilds a recommender from scratch on the post-delta graphs: the
/// re-freeze path the incremental engine must be indistinguishable from.
/// `shared_prefix` is the scenario's overlap count — both engines must
/// agree on which user indices name the same person across domains.
/// Erased users get their base rows zeroed between the resize and the
/// graph rebind (the same order the incremental path uses), and the
/// catalogue tombstones are installed on the rebuilt engine so both sides
/// exclude the same delisted items.
fn rebuild_from_scratch(
    model: &CdribModel,
    gx: &BipartiteGraph,
    gy: &BipartiteGraph,
    shared_prefix: usize,
    lifecycle: &TrackedLifecycle,
) -> Recommender {
    let mut reference = InferenceModel::from_model(model);
    reference
        .extend_entities(DomainId::X, gx.n_users(), gx.n_items())
        .unwrap();
    reference
        .extend_entities(DomainId::Y, gy.n_users(), gy.n_items())
        .unwrap();
    reference.erase_user_rows(DomainId::X, &lifecycle.erased_x).unwrap();
    reference.erase_user_rows(DomainId::Y, &lifecycle.erased_y).unwrap();
    reference.rebind_graph(DomainId::X, gx).unwrap();
    reference.rebind_graph(DomainId::Y, gy).unwrap();
    let embeddings = reference.embeddings().unwrap();
    let mut rec = Recommender::new(embeddings.into_scorer(), gx.clone(), gy.clone()).unwrap();
    rec.set_shared_user_prefix(shared_prefix);
    rec.install_delisted_items(DomainId::X, &lifecycle.delisted_x);
    rec.install_delisted_items(DomainId::Y, &lifecycle.delisted_y);
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Headline differential property: incremental == full rebuild, for the
    /// tables bitwise and for the served top-K lists exactly, after every
    /// prefix of a randomized cross-domain delta sequence.
    #[test]
    fn incremental_recommender_matches_full_rebuild(
        seed in 0u64..1 << 32,
        raw_deltas in proptest::collection::vec(raw_delta(), 1..4),
    ) {
        let (scenario, model) = setup(seed % 7);
        let mut rec =
            Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();
        // The harness tracks the ground-truth graphs and lifecycle itself.
        let mut gx = scenario.x.train.clone();
        let mut gy = scenario.y.train.clone();
        let mut lifecycle = TrackedLifecycle::default();

        for (step, (dom, add_users, add_items, raw, removals)) in raw_deltas.iter().enumerate() {
            let domain = if dom % 2 == 0 { DomainId::X } else { DomainId::Y };
            let graph = if domain == DomainId::X { &mut gx } else { &mut gy };
            // Make the last delta of roughly a third of the sequences empty.
            let delta = if step + 1 == raw_deltas.len() && seed % 3 == 0 {
                GraphDelta::empty()
            } else {
                materialise_delta(graph, *add_users as usize, *add_items as usize, raw, removals)
            };
            let effect = graph.apply_delta(&delta).unwrap();
            let outcome = rec.apply_delta(domain, &delta).unwrap();
            prop_assert_eq!(outcome.edges_added, effect.edges_added);
            prop_assert_eq!(outcome.edges_removed, effect.edges_removed);
            prop_assert_eq!(outcome.missing_edges, effect.missing_edges);
            prop_assert_eq!(outcome.users_erased, effect.users_erased);
            prop_assert_eq!(outcome.items_delisted, effect.items_delisted);
            prop_assert_eq!(outcome.epoch, step as u64 + 1);
            graph.check_invariants().unwrap();
            prop_assert_eq!(rec.seen_graph(domain).edges().collect::<Vec<_>>(), graph.edges().collect::<Vec<_>>());
            lifecycle.absorb(domain, &effect.erased_users, &effect.delisted_items);
            // The engine's tombstone sets track the harness's exactly.
            prop_assert_eq!(rec.erased_users(DomainId::X), &lifecycle.erased_x[..]);
            prop_assert_eq!(rec.erased_users(DomainId::Y), &lifecycle.erased_y[..]);
            prop_assert_eq!(rec.delisted_items(DomainId::X), &lifecycle.delisted_x[..]);
            prop_assert_eq!(rec.delisted_items(DomainId::Y), &lifecycle.delisted_y[..]);

            // 1. Embedding tables: bitwise equality with a full re-freeze.
            let reference = rebuild_from_scratch(&model, &gx, &gy, scenario.n_overlap_total, &lifecycle);
            prop_assert_eq!(&rec.scorer().x_users, &reference.scorer().x_users, "x_users, step {}", step);
            prop_assert_eq!(&rec.scorer().x_items, &reference.scorer().x_items, "x_items, step {}", step);
            prop_assert_eq!(&rec.scorer().y_users, &reference.scorer().y_users, "y_users, step {}", step);
            prop_assert_eq!(&rec.scorer().y_items, &reference.scorer().y_items, "y_items, step {}", step);

            // 2. Top-K lists: exact equality under the shared total order,
            // for old users, the newest users, and k beyond the catalogue.
            let mut out = Vec::new();
            for direction in [Direction::X_TO_Y, Direction::Y_TO_X] {
                let n_source = rec.seen_graph(direction.source).n_users();
                let catalogue = rec.catalogue_size(direction.target);
                let probes = [0, n_source / 2, n_source.saturating_sub(1)];
                for &user in &probes {
                    for k in [1usize, 10, catalogue + 5] {
                        let request = Request { direction, user: user as u32, k };
                        rec.recommend(&request, &mut out).unwrap();
                        let want = reference.recommend_full_sort(&request).unwrap();
                        prop_assert_eq!(&out, &want, "step {} {:?} user {} k {}", step, direction, user, k);
                    }
                }
            }
        }
    }

    /// `BipartiteGraph::apply_delta` invariants: after arbitrary batches the
    /// graph equals from-scratch construction on the accumulated edges, all
    /// structural invariants hold, and the CSR views stay consistent.
    #[test]
    fn apply_delta_preserves_graph_invariants(
        n_users in 1usize..24,
        n_items in 1usize..24,
        initial in proptest::collection::vec((0u16..u16::MAX, 0u16..u16::MAX), 0..40),
        raw_deltas in proptest::collection::vec(raw_delta(), 1..6),
    ) {
        let seed_edges: Vec<(usize, usize)> = initial
            .iter()
            .map(|&(a, b)| (a as usize % n_users, b as usize % n_items))
            .collect();
        let mut graph = BipartiteGraph::new(n_users, n_items, &seed_edges).unwrap();
        let mut accumulated = seed_edges;

        for (dom, add_users, add_items, raw, removals) in &raw_deltas {
            // Both tuple orders exercise the same code; the domain byte just
            // varies the mix of growth sizes.
            let add_users = (*add_users as usize + *dom as usize) % 3;
            let delta = materialise_delta(&graph, add_users, *add_items as usize, raw, removals);
            let effect = graph.apply_delta(&delta).unwrap();
            prop_assert_eq!(effect.users_added, add_users);
            // Replay the delta's op order on the accumulated edge list:
            // adds first, then targeted removals, then the entity sweeps.
            accumulated.extend(delta.edges.iter().map(|&(u, i)| (u as usize, i as usize)));
            accumulated.sort_unstable();
            accumulated.dedup();
            for &(u, i) in &delta.remove_edges {
                if let Some(pos) = accumulated.iter().position(|&e| e == (u as usize, i as usize)) {
                    accumulated.remove(pos);
                }
            }
            for &u in &delta.erase_users {
                accumulated.retain(|&(uu, _)| uu != u as usize);
            }
            for &i in &delta.delist_items {
                accumulated.retain(|&(_, ii)| ii != i as usize);
            }

            // Structural invariants after every batch.
            graph.check_invariants().unwrap();

            // Equivalence with from-scratch construction.
            let reference = BipartiteGraph::new(graph.n_users(), graph.n_items(), &accumulated).unwrap();
            prop_assert_eq!(graph.edges().collect::<Vec<_>>(), reference.edges().collect::<Vec<_>>());
            for u in 0..graph.n_users() {
                prop_assert_eq!(graph.items_of(u), reference.items_of(u));
                prop_assert_eq!(graph.user_degree(u), reference.user_degree(u));
            }
            for i in 0..graph.n_items() {
                prop_assert_eq!(graph.users_of(i), reference.users_of(i));
                prop_assert_eq!(graph.item_degree(i), reference.item_degree(i));
            }

            // The CSR views: row offsets monotone, per-row nnz == degree,
            // and the in-place normalised rebuilds equal the fresh ones.
            let adj = graph.adjacency();
            prop_assert_eq!(adj.nnz(), graph.n_edges());
            let mut running = 0usize;
            for u in 0..graph.n_users() {
                prop_assert_eq!(adj.row_nnz(u), graph.user_degree(u));
                running += adj.row_nnz(u);
            }
            prop_assert_eq!(running, adj.nnz());
            let mut norm = CsrMatrix::empty(1, 1);
            graph.norm_adjacency_into(&mut norm);
            prop_assert_eq!(&norm, reference.norm_adjacency().as_ref());
            graph.norm_adjacency_transpose_into(&mut norm);
            prop_assert_eq!(&norm, reference.norm_adjacency_transpose().as_ref());

            // Touched sets cover every endpoint the delta addressed —
            // including removal targets (even missing ones, which are
            // counted no-ops but still dirty their rows conservatively).
            for &(u, i) in &delta.edges {
                prop_assert!(effect.touched_users.binary_search(&u).is_ok());
                prop_assert!(effect.touched_items.binary_search(&i).is_ok());
            }
            for &(u, i) in &delta.remove_edges {
                prop_assert!(effect.touched_users.binary_search(&u).is_ok());
                prop_assert!(effect.touched_items.binary_search(&i).is_ok());
            }
            for &u in &delta.erase_users {
                prop_assert!(effect.touched_users.binary_search(&u).is_ok());
                prop_assert!(effect.erased_users.binary_search(&u).is_ok());
                prop_assert!(graph.items_of(u as usize).is_empty());
            }
            for &i in &delta.delist_items {
                prop_assert!(effect.touched_items.binary_search(&i).is_ok());
                prop_assert!(effect.delisted_items.binary_search(&i).is_ok());
                prop_assert!(graph.users_of(i as usize).is_empty());
            }
        }
    }
}

/// Deterministic end-to-end scenario outside the proptest loop: a cold user
/// arrives empty, accumulates interactions over several deltas (including
/// duplicates and an empty delta), then the lifecycle closes — an un-like,
/// a full GDPR erasure and a delisting — and every intermediate state
/// matches a full rebuild. The shrink tail must round-trip the edge set
/// back to exactly the original training graph.
#[test]
fn cold_user_trajectory_matches_rebuild_at_every_step() {
    let (scenario, model) = setup(99);
    let mut rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();
    let mut gx = scenario.x.train.clone();
    let gy = scenario.y.train.clone();
    let original_edges: Vec<_> = gx.edges().collect();
    let user = gx.n_users() as u32;
    let new_item = gx.n_items() as u32;
    let third_edge = 107_u32.min(gx.n_items() as u32);

    let steps = [
        // Arrives with no history at all.
        GraphDelta {
            add_users: 1,
            ..GraphDelta::empty()
        },
        // First interactions trickle in.
        GraphDelta {
            edges: vec![(user, 3), (user, 11)],
            ..GraphDelta::empty()
        },
        // A replayed event (duplicate) plus a new item they interact with.
        GraphDelta {
            add_items: 1,
            edges: vec![(user, 3), (user, third_edge)],
            ..GraphDelta::empty()
        },
        // A quiet tick.
        GraphDelta::empty(),
        // They withdraw one interaction (and the retraction is replayed —
        // the second copy is a counted no-op).
        GraphDelta {
            remove_edges: vec![(user, 3), (user, 3)],
            ..GraphDelta::empty()
        },
        // Then invoke their right to erasure, while the catalogue delists
        // the item that arrived with them.
        GraphDelta {
            erase_users: vec![user],
            delist_items: vec![new_item],
            ..GraphDelta::empty()
        },
    ];
    let mut lifecycle = TrackedLifecycle::default();
    let mut out = Vec::new();
    for (step, delta) in steps.iter().enumerate() {
        let effect = gx.apply_delta(delta).unwrap();
        rec.apply_delta(DomainId::X, delta).unwrap();
        lifecycle.absorb(DomainId::X, &effect.erased_users, &effect.delisted_items);
        let reference = rebuild_from_scratch(&model, &gx, &gy, scenario.n_overlap_total, &lifecycle);
        assert_eq!(rec.scorer().x_users, reference.scorer().x_users, "step {step}");
        let request = Request {
            direction: Direction::X_TO_Y,
            user,
            k: 10,
        };
        rec.recommend(&request, &mut out).unwrap();
        assert_eq!(out, reference.recommend_full_sort(&request).unwrap(), "step {step}");
        assert_eq!(out.len(), 10, "step {step}");
    }
    // The grown-then-shrunk graph's edges round-trip to the original edge
    // set; only the entity tombstones remain.
    assert_eq!(gx.edges().collect::<Vec<_>>(), original_edges);
    assert_eq!(gx.n_users(), user as usize + 1);
    assert_eq!(gx.n_items(), new_item as usize + 1);
    assert_eq!(gx.user_degree(user as usize), 0);
    assert_eq!(rec.erased_users(DomainId::X), &[user]);

    // The erased user still gets served: zero history, full Y catalogue.
    let cat_y = rec.catalogue_size(DomainId::Y);
    let request = Request {
        direction: Direction::X_TO_Y,
        user,
        k: cat_y + 5,
    };
    rec.recommend(&request, &mut out).unwrap();
    assert_eq!(out.len(), cat_y);

    // The delisted X item vanished from Y→X serving for everyone — here an
    // overlap user whose own X history is also filtered out.
    let cat_x = rec.catalogue_size(DomainId::X);
    let request = Request {
        direction: Direction::Y_TO_X,
        user: 0,
        k: cat_x + 5,
    };
    rec.recommend(&request, &mut out).unwrap();
    assert!(out.iter().all(|r| r.item != new_item));
    assert_eq!(out.len(), cat_x - gx.items_of(0).len() - 1);
}
