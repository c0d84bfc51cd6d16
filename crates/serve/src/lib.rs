//! # cdrib-serve
//!
//! The online top-K recommendation subsystem of the CDRIB reproduction —
//! the serving half of the train/serve split. A trainer freezes its model
//! into a versioned artifact (`cdrib_core::artifact`); this crate loads the
//! frozen encoder output (or any baseline's tables) and answers the query
//! the paper is actually for: *recommend K target-domain items to this
//! cold-start user* (cf. CATN's online cold-start retrieval framing,
//! SIGIR 2020).
//!
//! Serving path: full-catalogue scoring through the shared SIMD candidate
//! kernels, tile by tile — a batch of requests shares each cache-resident
//! tile of item rows, a single request is the batch of one → sorted-merge
//! filtering of already-seen items against the bipartite interaction graph →
//! bounded binary-heap top-K selection per request. Warm batches are
//! allocation-free; they fan out over `std::thread::scope` workers behind
//! the default-on `parallel` feature.
//!
//! ## Online updates
//!
//! An engine built with [`Recommender::from_inference_online`] additionally
//! ingests interaction deltas at serving time
//! ([`Recommender::apply_delta`]): new users, items and edges are applied to
//! the seen-item graphs in place, only the entities whose propagated
//! neighbourhood changed are re-encoded through the frozen VBGE mean path,
//! and the served tables are validated, then patched in place (see
//! [`delta`]). The result is bitwise identical to re-freezing on the
//! post-delta graph — pinned by the differential harness in
//! `tests/delta_parity.rs`.
//!
//! ## Durability
//!
//! An engine opened with [`Recommender::recover`] additionally persists
//! every accepted delta to a checksummed, sequence-numbered write-ahead log
//! *before* it is applied (see [`wal`]). On restart, `recover`
//! replays the log over the frozen base artifact and reconstructs the exact
//! pre-crash state; damaged log tails are truncated and quarantined rather
//! than refusing to start, and [`Recommender::compact`] folds the log into
//! a new base via atomic renames. That base is a serve v2 container, the
//! format a fresh freeze writes too, so the next boot serves it off the
//! map. The fault-injection harness in `tests/wal_recovery.rs` drives a
//! crash-point matrix over this path.
//!
//! ## Quick example
//!
//! ```
//! use cdrib_core::{save_model_bytes, CdribConfig, CdribModel};
//! use cdrib_data::{build_preset, Direction, Scale, ScenarioKind};
//! use cdrib_serve::{Recommender, Request};
//!
//! let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 7).unwrap();
//! let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
//! // Freeze to artifact bytes and serve from the frozen snapshot.
//! let artifact = save_model_bytes(&model, &scenario);
//! let mut recommender = Recommender::from_artifact_bytes(&artifact).unwrap();
//! let user = scenario.cold_x_to_y.test_users[0];
//! let recs = recommender
//!     .recommend_vec(&Request { direction: Direction::X_TO_Y, user, k: 10 })
//!     .unwrap();
//! assert_eq!(recs.len(), 10);
//! assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod net;
pub mod proto;
pub mod recommender;
mod seen;
pub mod topk;
pub mod wal;

pub use delta::DeltaOutcome;
pub use error::{Result, ServeError};
pub use net::{Client, Server, ServerConfig, StatsSnapshot};
pub use proto::{ClientMsg, FrameReader, ProtoError, ServerMsg, MAX_FRAME_BODY, PROTO_VERSION};
pub use recommender::{Recommender, Request, ScoringPrecision};
pub use topk::{ranks_above, Recommendation, TopK};
pub use wal::{CompactionReport, DeltaWal, RecoveryReport, WalError};

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_core::{save_model_bytes, CdribConfig, CdribModel, InferenceModel};
    use cdrib_data::{build_preset, CdrScenario, Direction, DomainId, Scale, ScenarioKind};
    use cdrib_eval::{EmbeddingScorer, ScoreKind};
    use cdrib_graph::BipartiteGraph;
    use cdrib_tensor::rng::{component_rng, normal_tensor};
    use cdrib_tensor::Tensor;
    use rand::Rng;

    /// A small random serving setup with deliberately tie-heavy scores
    /// (embedding values quantised to a coarse grid).
    fn random_setup(seed: u64, n_users: usize, n_items: usize, dim: usize) -> Recommender {
        let mut rng = component_rng(seed, "serve-tests");
        let quantise = |t: Tensor| t.map(|v| (v * 4.0).round() / 4.0);
        let tables = |rng: &mut rand::rngs::StdRng, rows: usize| quantise(normal_tensor(rng, rows, dim, 0.5));
        let x_users = tables(&mut rng, n_users);
        let x_items = tables(&mut rng, n_items);
        let y_users = tables(&mut rng, n_users);
        let y_items = tables(&mut rng, n_items);
        let mut edges_x = Vec::new();
        let mut edges_y = Vec::new();
        for u in 0..n_users {
            for _ in 0..rng.gen_range(0..5) {
                edges_x.push((u, rng.gen_range(0..n_items)));
            }
            for _ in 0..rng.gen_range(0..5) {
                edges_y.push((u, rng.gen_range(0..n_items)));
            }
        }
        let seen_x = BipartiteGraph::new(n_users, n_items, &edges_x).unwrap();
        let seen_y = BipartiteGraph::new(n_users, n_items, &edges_y).unwrap();
        Recommender::new(EmbeddingScorer::dot(x_users, x_items, y_users, y_items), seen_x, seen_y).unwrap()
    }

    #[test]
    fn heap_selection_matches_full_sort_exactly() {
        let mut rec = random_setup(3, 40, 700, 8);
        let mut out = Vec::new();
        for direction in [Direction::X_TO_Y, Direction::Y_TO_X] {
            for user in 0..40u32 {
                for k in [1usize, 10, 699, 700, 2000] {
                    let request = Request { direction, user, k };
                    rec.recommend(&request, &mut out).unwrap();
                    let reference = rec.recommend_full_sort(&request).unwrap();
                    assert_eq!(out, reference, "direction={direction:?} user={user} k={k}");
                }
            }
        }
    }

    #[test]
    fn seen_items_are_filtered() {
        let mut rec = random_setup(11, 30, 200, 8);
        let mut out = Vec::new();
        for user in 0..30u32 {
            rec.recommend(
                &Request {
                    direction: Direction::X_TO_Y,
                    user,
                    k: 200,
                },
                &mut out,
            )
            .unwrap();
            for r in &out {
                assert!(
                    !rec.seen_graph(DomainId::Y).has_edge(user as usize, r.item as usize),
                    "user {user} was recommended already-seen item {}",
                    r.item
                );
            }
            // Everything unseen must be present when k covers the catalogue.
            let seen_count = rec.seen_graph(DomainId::Y).user_degree(user as usize);
            assert_eq!(out.len(), 200 - seen_count);
        }
    }

    #[test]
    fn batch_matches_single_requests() {
        let mut rec = random_setup(7, 25, 300, 16);
        let requests: Vec<Request> = (0..25u32)
            .flat_map(|user| {
                [
                    Request {
                        direction: Direction::X_TO_Y,
                        user,
                        k: 7,
                    },
                    Request {
                        direction: Direction::Y_TO_X,
                        user,
                        k: 13,
                    },
                ]
            })
            .collect();
        let mut responses = Vec::new();
        rec.recommend_batch(&requests, &mut responses).unwrap();
        assert_eq!(responses.len(), requests.len());
        let mut single = Vec::new();
        for (request, batched) in requests.iter().zip(responses.iter()) {
            rec.recommend(request, &mut single).unwrap();
            assert_eq!(&single, batched);
        }
        // Batch buffers are reused across calls without changing results.
        let snapshot = responses.clone();
        rec.recommend_batch(&requests, &mut responses).unwrap();
        assert_eq!(responses, snapshot);
    }

    /// An engine for the tile matrix below: `n_items` items per domain,
    /// tie-heavy tables, and seen lists and delisted items placed on and
    /// around every tile boundary of a `tile`-row tiling.
    fn tile_matrix_engine(kind: ScoreKind, n_users: usize, n_items: usize, dim: usize, tile: usize) -> Recommender {
        let mut rng = component_rng(n_items as u64, "tile-matrix");
        let mut table = |rows: usize| normal_tensor(&mut rng, rows, dim, 0.5).map(|v| (v * 4.0).round() / 4.0);
        let scorer = EmbeddingScorer {
            x_users: table(n_users),
            x_items: table(n_items),
            y_users: table(n_users),
            y_items: table(n_items),
            kind,
        };
        let edges = [
            0,
            tile - 1,
            tile,
            tile + 1,
            2 * tile - 1,
            2 * tile,
            3 * tile,
            3 * tile + 4,
        ];
        let graph = |phase: usize| {
            let edges: Vec<(usize, usize)> = (0..n_users)
                .flat_map(|u| {
                    let on_edges = edges
                        .iter()
                        .enumerate()
                        .filter(move |(i, _)| !(u + i + phase).is_multiple_of(3));
                    on_edges
                        .map(move |(_, &item)| (u, item))
                        .chain([(u, (u * 37 + phase) % n_items)])
                })
                .filter(|&(_, item)| item < n_items)
                .collect();
            BipartiteGraph::new(n_users, n_items, &edges).unwrap()
        };
        let mut rec = Recommender::new(scorer, graph(0), graph(1)).unwrap();
        let delisted: Vec<u32> = [tile.saturating_sub(2), tile, 2 * tile + 1, 3 * tile + 3]
            .into_iter()
            .filter(|&item| item < n_items && n_items > 1)
            .map(|item| item as u32)
            .collect();
        rec.install_delisted_items(DomainId::X, &delisted);
        rec.install_delisted_items(DomainId::Y, &delisted);
        rec
    }

    #[test]
    fn batches_match_single_requests_and_full_sort_across_tile_boundaries() {
        // One traversal serves everything, so: a batch's answer for a request
        // == that request alone == the full-sort oracle (f32; the oracle does
        // not quantise), item ids and score bits, whatever the batch holds
        // beside it — for both score kinds and precisions, catalogues on every
        // side of the tile size and of the kernel's 16-row panel chunk, a
        // second width (44: neither 16 columns nor 8 divide it; the tile
        // boundaries are left to 128, it drives the column paths), batch sizes
        // whose largest direction group straddles the panel route (2, 3, 4
        // users at 5, 6, 8 requests; the route starts at 3), both directions
        // interleaved, duplicate users, mixed `k`, exclusions on the tile
        // boundaries, and one rejected request mid-batch.
        let bits = |list: &[Recommendation]| list.iter().map(|r| (r.item, r.score.to_bits())).collect::<Vec<_>>();
        let n_users = 24usize;
        assert_eq!(recommender::tile_rows(128), 512, "the matrix assumes 256 KiB tiles");
        let catalogues = |dim: usize, tile: usize| match dim {
            128 => vec![1, 3, 15, 16, 17, tile - 1, tile, tile + 1, tile + 16 + 3, 3 * tile + 5],
            _ => vec![16, 17, tile + 16 + 3],
        };
        for (kind, dim) in [ScoreKind::Dot, ScoreKind::NegativeDistance]
            .into_iter()
            .flat_map(|k| [(k, 128), (k, 44)])
        {
            let tile = recommender::tile_rows(dim);
            for n_items in catalogues(dim, tile) {
                let mut rec = tile_matrix_engine(kind, n_users, n_items, dim, tile);
                let pool: Vec<Request> = (0..256usize)
                    .map(|i| Request {
                        direction: [Direction::X_TO_Y, Direction::Y_TO_X][i % 2],
                        user: (i * 7 / 3 % n_users) as u32,
                        k: [10, 0, 1, n_items + 7][i / 2 % 4],
                    })
                    .collect();
                let rejected = Request {
                    direction: Direction::Y_TO_X,
                    user: n_users as u32,
                    k: 10,
                };
                for precision in [ScoringPrecision::F32, ScoringPrecision::Int8] {
                    rec.set_precision(precision);
                    let expected: Vec<_> = pool
                        .iter()
                        .map(|request| {
                            let single = rec.recommend_vec(request).unwrap();
                            if precision == ScoringPrecision::F32 {
                                assert_eq!(bits(&single), bits(&rec.recommend_full_sort(request).unwrap()));
                            }
                            single
                        })
                        .collect();
                    assert!(matches!(
                        rec.recommend_vec(&rejected),
                        Err(ServeError::UserOutOfRange { .. })
                    ));
                    for batch_size in [1usize, 2, 3, 5, 6, 8, 255, 256] {
                        let mut batch = pool[..batch_size].to_vec();
                        let bad_slot = (batch_size >= 3).then_some(batch_size / 2);
                        if let Some(slot) = bad_slot {
                            batch[slot] = rejected;
                        }
                        // The worker split only matters where it has requests to split.
                        let worker_counts: &[usize] = if batch_size >= 255 { &[1, 3] } else { &[1] };
                        for &workers in worker_counts {
                            let context = format!(
                                "{kind:?} {precision:?} dim={dim} n={n_items} batch={batch_size} workers={workers}"
                            );
                            let stale = vec![Recommendation { item: 0, score: 0.0 }; 3];
                            let mut responses = vec![stale; batch_size];
                            let mut outcomes = Vec::new();
                            rec.recommend_batch_outcomes(&batch, &mut responses, &mut outcomes, workers);
                            for slot in 0..batch_size {
                                if Some(slot) == bad_slot {
                                    assert!(
                                        matches!(outcomes[slot], Err(ServeError::UserOutOfRange { user, bound })
                                            if user as usize == n_users && bound == n_users),
                                        "{context}: slot {slot} must be rejected"
                                    );
                                    assert!(responses[slot].is_empty(), "{context}: rejected slot not cleared");
                                } else {
                                    assert!(outcomes[slot].is_ok(), "{context}: slot {slot}");
                                    assert_eq!(bits(&responses[slot]), bits(&expected[slot]), "{context}: slot {slot}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn source_only_users_serve_without_a_target_row() {
        // Domains have unequal user counts: users in [n_target, n_source)
        // exist only in the source domain. They are valid requesters (their
        // user row exists where it is read from) and simply have no seen
        // list in the target graph — the request must succeed and match the
        // full-sort reference, not index out of the target graph.
        let mut rng = component_rng(23, "asymmetric");
        let dim = 6;
        let (n_x_users, n_y_users) = (12usize, 5usize);
        let (n_x_items, n_y_items) = (40usize, 30usize);
        let scorer = EmbeddingScorer::dot(
            normal_tensor(&mut rng, n_x_users, dim, 0.5),
            normal_tensor(&mut rng, n_x_items, dim, 0.5),
            normal_tensor(&mut rng, n_y_users, dim, 0.5),
            normal_tensor(&mut rng, n_y_items, dim, 0.5),
        );
        let seen_x = BipartiteGraph::new(n_x_users, n_x_items, &[(0, 1), (7, 2)]).unwrap();
        let seen_y = BipartiteGraph::new(n_y_users, n_y_items, &[(0, 3), (4, 9)]).unwrap();
        let mut rec = Recommender::new(scorer, seen_x, seen_y).unwrap();
        let mut out = Vec::new();
        for user in 0..n_x_users as u32 {
            let request = Request {
                direction: Direction::X_TO_Y,
                user,
                k: 8,
            };
            rec.recommend(&request, &mut out).unwrap();
            assert_eq!(out, rec.recommend_full_sort(&request).unwrap(), "user {user}");
            assert_eq!(out.len(), 8);
        }
    }

    #[test]
    fn request_validation() {
        let mut rec = random_setup(5, 10, 50, 4);
        let mut out = Vec::new();
        let err = rec.recommend(
            &Request {
                direction: Direction::X_TO_Y,
                user: 10,
                k: 5,
            },
            &mut out,
        );
        assert!(matches!(err, Err(ServeError::UserOutOfRange { user: 10, bound: 10 })));
        // k = 0 is a valid no-op request.
        rec.recommend(
            &Request {
                direction: Direction::X_TO_Y,
                user: 0,
                k: 0,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
        // Batch propagates worker errors.
        let bad_batch = vec![
            Request {
                direction: Direction::X_TO_Y,
                user: 0,
                k: 3,
            };
            4
        ]
        .into_iter()
        .chain([Request {
            direction: Direction::Y_TO_X,
            user: 99,
            k: 3,
        }])
        .collect::<Vec<_>>();
        let mut responses = Vec::new();
        assert!(matches!(
            rec.recommend_batch(&bad_batch, &mut responses),
            Err(ServeError::UserOutOfRange { user: 99, .. })
        ));
    }

    #[test]
    fn construction_rejects_inconsistent_tables() {
        let scorer = EmbeddingScorer::dot(
            Tensor::ones(3, 4),
            Tensor::ones(5, 4),
            Tensor::ones(3, 4),
            Tensor::ones(6, 4),
        );
        let gx = BipartiteGraph::new(3, 5, &[]).unwrap();
        let gy = BipartiteGraph::new(3, 6, &[]).unwrap();
        assert!(Recommender::new(scorer.clone(), gx.clone(), gy.clone()).is_ok());
        // Wrong graph size.
        let small = BipartiteGraph::new(2, 5, &[]).unwrap();
        assert!(matches!(
            Recommender::new(scorer.clone(), small, gy.clone()),
            Err(ServeError::ShapeMismatch { .. })
        ));
        // Non-finite table.
        let mut bad = scorer.clone();
        bad.y_items.set(0, 0, f32::INFINITY);
        assert!(matches!(
            Recommender::new(bad, gx.clone(), gy.clone()),
            Err(ServeError::NonFiniteEmbeddings { table: "y_items" })
        ));
        // Mismatched embedding width.
        let mut narrow = scorer;
        narrow.x_items = Tensor::ones(5, 3);
        assert!(matches!(
            Recommender::new(narrow, gx, gy),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    fn frozen_pipeline() -> (Recommender, CdribModel, CdrScenario) {
        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 19).unwrap();
        let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
        let bytes = save_model_bytes(&model, &scenario);
        let rec = Recommender::from_artifact_bytes(&bytes).unwrap();
        (rec, model, scenario)
    }

    #[test]
    fn apply_delta_brings_new_cold_users_online() {
        use cdrib_graph::GraphDelta;

        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 31).unwrap();
        let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
        let mut rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();
        assert_eq!(rec.epoch(), 0);

        // A brand-new cold-start user arrives with three source-domain (X)
        // interactions; one of them is with a brand-new item.
        let new_user = rec.seen_graph(DomainId::X).n_users() as u32;
        let new_item = rec.seen_graph(DomainId::X).n_items() as u32;
        let delta = GraphDelta {
            add_users: 1,
            add_items: 1,
            edges: vec![(new_user, 0), (new_user, 7), (new_user, new_item)],
            ..GraphDelta::empty()
        };
        let outcome = rec.apply_delta(DomainId::X, &delta).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.users_added, 1);
        assert_eq!(outcome.items_added, 1);
        assert_eq!(outcome.edges_added, 3);
        assert!(outcome.users_reencoded >= 1 && outcome.items_reencoded >= 1);
        assert_eq!(rec.epoch(), 1);
        assert_eq!(rec.catalogue_size(DomainId::X), new_item as usize + 1);

        // The new user is immediately recommendable in the target domain.
        let request = Request {
            direction: Direction::X_TO_Y,
            user: new_user,
            k: 10,
        };
        let mut out = Vec::new();
        rec.recommend(&request, &mut out).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out, rec.recommend_full_sort(&request).unwrap());

        // Differential check: a recommender re-frozen from scratch on the
        // post-delta graph must agree bitwise.
        let mut gx = scenario.x.train.clone();
        gx.apply_delta(&delta).unwrap();
        let mut reference = InferenceModel::from_model(&model);
        reference
            .extend_entities(DomainId::X, gx.n_users(), gx.n_items())
            .unwrap();
        reference.rebind_graph(DomainId::X, &gx).unwrap();
        let want = reference.embeddings().unwrap();
        assert_eq!(rec.scorer().x_users, want.x_users);
        assert_eq!(rec.scorer().x_items, want.x_items);
        let mut rebuilt = Recommender::new(want.into_scorer(), gx, scenario.y.train.clone()).unwrap();
        rebuilt.set_shared_user_prefix(scenario.n_overlap_total);
        assert_eq!(out, rebuilt.recommend_full_sort(&request).unwrap());
    }

    #[test]
    fn erased_users_and_delisted_items_drop_out_of_serving() {
        use cdrib_graph::GraphDelta;

        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 37).unwrap();
        let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
        let mut rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();

        // A user joins with history, then invokes their right to erasure;
        // separately the catalogue delists an established X item.
        let user = rec.seen_graph(DomainId::X).n_users() as u32;
        let delisted = 3u32;
        rec.apply_delta(
            DomainId::X,
            &GraphDelta {
                add_users: 1,
                edges: vec![(user, 0), (user, 7)],
                ..GraphDelta::empty()
            },
        )
        .unwrap();
        let outcome = rec
            .apply_delta(
                DomainId::X,
                &GraphDelta {
                    erase_users: vec![user],
                    delist_items: vec![delisted],
                    ..GraphDelta::empty()
                },
            )
            .unwrap();
        assert_eq!(outcome.users_erased, 1);
        assert_eq!(outcome.items_delisted, 1);
        assert!(outcome.edges_removed >= 2, "erasure drops the user's edges");
        assert_eq!(rec.erased_users(DomainId::X), &[user]);
        assert_eq!(rec.delisted_items(DomainId::X), &[delisted]);

        // The erased user keeps their id but serves from a clean slate:
        // no interactions, an all-zero embedding row, and a full target
        // catalogue when k covers it.
        assert!(rec.seen_graph(DomainId::X).items_of(user as usize).is_empty());
        assert!(rec.scorer().x_users.row(user as usize).iter().all(|&v| v == 0.0));
        let cat_y = rec.catalogue_size(DomainId::Y);
        let request = Request {
            direction: Direction::X_TO_Y,
            user,
            k: cat_y + 3,
        };
        let mut out = Vec::new();
        rec.recommend(&request, &mut out).unwrap();
        assert_eq!(out.len(), cat_y);
        assert_eq!(out, rec.recommend_full_sort(&request).unwrap());

        // The delisted item keeps its slot (served ids stay stable) but is
        // excluded from every Y→X top-K, on the f32 heap path, the
        // full-sort reference, and the int8 prefilter path alike.
        assert_eq!(rec.catalogue_size(DomainId::X), scenario.x.train.n_items());
        let cat_x = rec.catalogue_size(DomainId::X);
        for precision in [ScoringPrecision::F32, ScoringPrecision::Int8] {
            rec.set_precision(precision);
            for probe in [0u32, rec.seen_graph(DomainId::Y).n_users() as u32 - 1] {
                let request = Request {
                    direction: Direction::Y_TO_X,
                    user: probe,
                    k: cat_x,
                };
                rec.recommend(&request, &mut out).unwrap();
                assert!(
                    out.iter().all(|r| r.item != delisted),
                    "{precision:?}: delisted item served to user {probe}"
                );
                // Only overlap users carry an X-domain seen list into Y→X.
                let seen = if (probe as usize) < scenario.n_overlap_total {
                    rec.seen_graph(DomainId::X).user_degree(probe as usize)
                } else {
                    0
                };
                assert_eq!(out.len(), cat_x - seen - 1, "{precision:?}: user {probe}");
                if precision == ScoringPrecision::F32 {
                    assert_eq!(out, rec.recommend_full_sort(&request).unwrap());
                }
            }
        }
    }

    #[test]
    fn non_overlap_users_never_alias_a_strangers_seen_list() {
        // User indices identify the same person across domains only inside
        // the shared overlap prefix. A source user beyond it (domain-only,
        // or appended by a delta) whose index happens to collide with an
        // existing target-domain user must NOT have that stranger's items
        // filtered from their recommendations.
        let mut rng = component_rng(53, "alias");
        let dim = 4;
        let (n_users, n_items) = (6usize, 12usize);
        let scorer = EmbeddingScorer::dot(
            normal_tensor(&mut rng, n_users, dim, 0.5),
            normal_tensor(&mut rng, n_items, dim, 0.5),
            normal_tensor(&mut rng, n_users, dim, 0.5),
            normal_tensor(&mut rng, n_items, dim, 0.5),
        );
        // Target-domain (Y) user 4 — a stranger to X user 4 — has history.
        let seen_x = BipartiteGraph::new(n_users, n_items, &[]).unwrap();
        let seen_y = BipartiteGraph::new(n_users, n_items, &[(4, 0), (4, 1), (4, 2)]).unwrap();
        let mut rec = Recommender::new(scorer, seen_x, seen_y).unwrap();
        let request = Request {
            direction: Direction::X_TO_Y,
            user: 4,
            k: n_items,
        };
        let mut out = Vec::new();
        // Default prefix (bare tables): indices are one shared id space, so
        // the history IS user 4's own and gets filtered.
        rec.recommend(&request, &mut out).unwrap();
        assert_eq!(out.len(), n_items - 3);
        // With the overlap prefix ending at 2, X user 4 is a domain-only
        // user: the Y-side index-4 history belongs to someone else and the
        // full catalogue must come back, on both selection paths.
        rec.set_shared_user_prefix(2);
        assert_eq!(rec.shared_user_prefix(), 2);
        rec.recommend(&request, &mut out).unwrap();
        assert_eq!(out.len(), n_items);
        assert_eq!(out, rec.recommend_full_sort(&request).unwrap());
        // Overlap users keep their own filtering.
        let overlap_request = Request {
            direction: Direction::Y_TO_X,
            user: 1,
            k: n_items,
        };
        rec.recommend(&overlap_request, &mut out).unwrap();
        assert_eq!(out.len(), n_items); // user 1 has no X history
    }

    #[test]
    fn k_clamp_returns_full_ranked_list_for_fresh_user() {
        use cdrib_graph::GraphDelta;

        // Regression for the k-clamp edge case: a fresh user arriving
        // through an (edge-)empty delta asks for more items than the
        // catalogue holds. The engine must return the *full* ranked
        // catalogue — clamped against the live (post-delta) catalogue size,
        // never silently truncated against stale state — on both the single
        // and the batched path.
        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 33).unwrap();
        let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
        let mut rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();
        let fresh = rec.seen_graph(DomainId::X).n_users() as u32;
        rec.apply_delta(
            DomainId::X,
            &GraphDelta {
                add_users: 1,
                add_items: 0,
                edges: vec![],
                ..GraphDelta::empty()
            },
        )
        .unwrap();
        // The target catalogue also grows by two items mid-flight.
        rec.apply_delta(
            DomainId::Y,
            &GraphDelta {
                add_users: 0,
                add_items: 2,
                edges: vec![],
                ..GraphDelta::empty()
            },
        )
        .unwrap();
        let catalogue = rec.catalogue_size(DomainId::Y);
        let request = Request {
            direction: Direction::X_TO_Y,
            user: fresh,
            k: catalogue + 100,
        };
        let mut out = Vec::new();
        rec.recommend(&request, &mut out).unwrap();
        // A fresh user has seen nothing, so the full catalogue comes back —
        // including the items added after the user appeared.
        assert_eq!(out.len(), catalogue);
        assert_eq!(out, rec.recommend_full_sort(&request).unwrap());
        let mut responses = Vec::new();
        rec.recommend_batch(std::slice::from_ref(&request), &mut responses)
            .unwrap();
        assert_eq!(responses[0].len(), catalogue);
        assert_eq!(responses[0], out);
        // Exact-fit k behaves identically.
        let exact = Request {
            k: catalogue,
            ..request
        };
        rec.recommend(&exact, &mut out).unwrap();
        assert_eq!(out.len(), catalogue);
    }

    #[test]
    fn delta_requires_an_updater_and_rejects_bad_edges_atomically() {
        use cdrib_graph::GraphDelta;

        let mut rec = random_setup(41, 10, 50, 4);
        let err = rec.apply_delta(DomainId::X, &GraphDelta::empty());
        assert!(matches!(err, Err(ServeError::UpdaterMissing)));

        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 37).unwrap();
        let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
        let mut rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();
        let edges_before = rec.seen_graph(DomainId::X).n_edges();
        let bad = GraphDelta {
            add_users: 0,
            add_items: 0,
            edges: vec![(u32::MAX, 0)],
            ..GraphDelta::empty()
        };
        assert!(matches!(
            rec.apply_delta(DomainId::X, &bad),
            Err(ServeError::Graph(cdrib_graph::GraphError::UserOutOfRange { .. }))
        ));
        // Nothing moved: graph, epoch and tables are untouched.
        assert_eq!(rec.seen_graph(DomainId::X).n_edges(), edges_before);
        assert_eq!(rec.epoch(), 0);
    }

    #[test]
    fn int8_precision_serves_deterministic_high_recall_lists() {
        use cdrib_tensor::QuantizedTable;
        use std::collections::HashSet;

        let mut rec = random_setup(61, 30, 400, 16);
        assert_eq!(rec.precision(), ScoringPrecision::F32);
        let request = |user| Request {
            direction: Direction::X_TO_Y,
            user,
            k: 10,
        };
        let f32_lists: Vec<_> = (0..30u32).map(|u| rec.recommend_vec(&request(u)).unwrap()).collect();
        rec.set_precision(ScoringPrecision::Int8);
        assert_eq!(rec.precision(), ScoringPrecision::Int8);
        assert_eq!(
            rec.quantized_items(DomainId::Y).unwrap(),
            &QuantizedTable::from_tensor(&rec.scorer().y_items)
        );
        let mut hits = 0usize;
        let mut total = 0usize;
        for (u, f32_list) in f32_lists.iter().enumerate() {
            let int8_list = rec.recommend_vec(&request(u as u32)).unwrap();
            assert_eq!(int8_list.len(), f32_list.len());
            // Bitwise determinism: a second int8 pass reproduces the list.
            assert_eq!(int8_list, rec.recommend_vec(&request(u as u32)).unwrap());
            let want: HashSet<u32> = f32_list.iter().map(|r| r.item).collect();
            hits += int8_list.iter().filter(|r| want.contains(&r.item)).count();
            total += f32_list.len();
        }
        // Quantisation noise may reorder near-ties but must not change the
        // retrieved set much.
        assert!(
            hits as f64 >= 0.95 * total as f64,
            "int8 recall@10 collapsed: {hits}/{total}"
        );
        // Batch and single paths agree under int8 too, at every worker count.
        let requests: Vec<Request> = (0..30u32).map(request).collect();
        let mut responses = Vec::new();
        rec.recommend_batch(&requests, &mut responses).unwrap();
        let mut single = Vec::new();
        for (req, batched) in requests.iter().zip(responses.iter()) {
            rec.recommend(req, &mut single).unwrap();
            assert_eq!(&single, batched);
        }
        let snapshot = responses.clone();
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 5] {
            rec.recommend_batch_outcomes(&requests, &mut responses, &mut outcomes, workers);
            assert!(outcomes.iter().all(Result::is_ok), "workers={workers}");
            assert_eq!(responses, snapshot, "workers={workers}");
        }
        // Switching back to f32 restores the original lists exactly.
        rec.set_precision(ScoringPrecision::F32);
        for (u, f32_list) in f32_lists.iter().enumerate() {
            assert_eq!(&rec.recommend_vec(&request(u as u32)).unwrap(), f32_list);
        }
    }

    #[test]
    fn delta_ingest_keeps_quant_tables_coherent() {
        use cdrib_graph::GraphDelta;
        use cdrib_tensor::QuantizedTable;

        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 43).unwrap();
        let model = CdribModel::new(&CdribConfig::fast_test(), &scenario).unwrap();
        let mut rec = Recommender::from_inference_online(InferenceModel::from_model(&model), &scenario).unwrap();
        rec.set_precision(ScoringPrecision::Int8);
        let new_user = rec.seen_graph(DomainId::X).n_users() as u32;
        let new_item = rec.seen_graph(DomainId::X).n_items() as u32;
        // Several deltas so rows patched earlier must survive later patches,
        // on both domains, including entity growth.
        let deltas = [
            (
                DomainId::X,
                GraphDelta {
                    add_users: 1,
                    add_items: 1,
                    edges: vec![(new_user, 0), (new_user, new_item)],
                    ..GraphDelta::empty()
                },
            ),
            (
                DomainId::Y,
                GraphDelta {
                    add_users: 0,
                    add_items: 0,
                    edges: vec![(1, 3), (2, 5)],
                    ..GraphDelta::empty()
                },
            ),
            (
                DomainId::X,
                GraphDelta {
                    add_users: 0,
                    add_items: 0,
                    edges: vec![(new_user, 7), (0, 2)],
                    ..GraphDelta::empty()
                },
            ),
        ];
        for (domain, delta) in &deltas {
            rec.apply_delta(*domain, delta).unwrap();
            // After every patch the int8 mirror equals a from-scratch
            // quantisation of the served f32 table — exactly, not almost.
            for d in [DomainId::X, DomainId::Y] {
                let table = match d {
                    DomainId::X => &rec.scorer().x_items,
                    DomainId::Y => &rec.scorer().y_items,
                };
                assert_eq!(
                    rec.quantized_items(d).unwrap(),
                    &QuantizedTable::from_tensor(table),
                    "domain {d:?} mirror drifted after a {domain:?} delta"
                );
            }
        }
        // And the delta-appended user is servable on the int8 path.
        let recs = rec
            .recommend_vec(&Request {
                direction: Direction::X_TO_Y,
                user: new_user,
                k: 10,
            })
            .unwrap();
        assert_eq!(recs.len(), 10);
    }

    /// Every section a fresh serve container with int8 mirrors and the
    /// embedded model holds, in writer order, with its element alignment.
    const SERVE_SECTIONS: [(&str, u32); 18] = [
        ("meta", 8),
        ("xu", 4),
        ("xi", 4),
        ("yu", 4),
        ("yi", 4),
        ("sx_off", 8),
        ("sx_itm", 4),
        ("sy_off", 8),
        ("sy_itm", 4),
        ("qx_d", 1),
        ("qx_s", 4),
        ("qx_u", 4),
        ("qx_n", 4),
        ("qy_d", 1),
        ("qy_s", 4),
        ("qy_u", 4),
        ("qy_n", 4),
        ("model", 1),
    ];

    /// The section count in a v2 container's header.
    fn section_count(container: &[u8]) -> u32 {
        u32::from_le_bytes(container[28..32].try_into().unwrap())
    }

    /// Re-emits a serve container section by section through a fresh
    /// writer, so every checksum stays valid: each section passes through
    /// `patch`, and `legacy` adds the `cx`/`cy` catalogue id runs that
    /// containers carried before the catalogue became the item table's rows,
    /// where those containers held them.
    fn reemit(container: &[u8], legacy: bool, patch: impl Fn(&str, &mut Vec<u8>)) -> Vec<u8> {
        use cdrib_core::{SERVE_KIND, SERVE_VERSION};
        use cdrib_tensor::{artifact::v2, mmap};

        let reader = v2::Reader::open(mmap::from_bytes(container), SERVE_KIND, SERVE_VERSION).unwrap();
        let meta = reader.storage::<u64>("meta").unwrap();
        let mut w = v2::Writer::new(SERVE_KIND, SERVE_VERSION);
        for (name, align) in SERVE_SECTIONS {
            let mut bytes = reader.section_bytes(name).unwrap().to_vec();
            patch(name, &mut bytes);
            w.push(name, align, bytes);
            if legacy && name == "sy_itm" {
                for (name, n_items) in [("cx", meta[2]), ("cy", meta[4])] {
                    let ids: Vec<u8> = (0..n_items as u32).flat_map(u32::to_le_bytes).collect();
                    w.push(name, 4, ids);
                }
            }
        }
        w.finish()
    }

    /// A fresh serve container with int8 mirrors and the embedded model.
    fn fresh_container() -> Vec<u8> {
        let (_, model, scenario) = frozen_pipeline();
        let container = cdrib_core::save_serve_v2_bytes(&model, &scenario, true, true).unwrap();
        assert_eq!(section_count(&container), 18, "no catalogue id sections");
        container
    }

    #[test]
    fn legacy_containers_with_catalogue_sections_serve_the_same_bits() {
        let fresh = fresh_container();
        let legacy = reemit(&fresh, true, |_, _| {});
        assert_eq!(section_count(&legacy), 20);
        let path = std::env::temp_dir().join(format!("cdrib-legacy-serve-{}.cdr2", std::process::id()));
        std::fs::write(&path, &legacy).unwrap();
        let mut want = Recommender::from_serve_v2_bytes(&fresh).unwrap();
        let mut engines = [
            ("bytes", Recommender::from_serve_v2_bytes(&legacy).unwrap()),
            ("file, online", Recommender::from_serve_v2_file_online(&path).unwrap()),
        ];
        std::fs::remove_file(&path).unwrap();
        let bits = |list: Vec<Recommendation>| list.iter().map(|r| (r.item, r.score.to_bits())).collect::<Vec<_>>();
        for precision in [ScoringPrecision::F32, ScoringPrecision::Int8] {
            want.set_precision(precision);
            for (_, engine) in &mut engines {
                engine.set_precision(precision);
            }
            for direction in [Direction::X_TO_Y, Direction::Y_TO_X] {
                let catalogue = want.catalogue_size(direction.target);
                for user in 0..want.scorer().user_table(direction.source).rows() as u32 {
                    for k in [10, catalogue] {
                        let request = Request { direction, user, k };
                        let expected = bits(want.recommend_vec(&request).unwrap());
                        for (name, engine) in &mut engines {
                            let got = bits(engine.recommend_vec(&request).unwrap());
                            assert_eq!(got, expected, "{name} {precision:?} {direction:?} user {user} k {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_container_whose_int8_mirror_disagrees_with_itself_is_refused() {
        use cdrib_tensor::QuantTableError;

        let fresh = fresh_container();
        // Row 1 of the Y mirror: its stored sum is off by one.
        let wrong_sum = reemit(&fresh, false, |name, bytes| {
            if name == "qy_u" {
                bytes[4] ^= 1;
            }
        });
        // Row 2 of the X mirror: a NaN scale.
        let nan_scale = reemit(&fresh, false, |name, bytes| {
            if name == "qx_s" {
                bytes[8..12].copy_from_slice(&f32::NAN.to_le_bytes());
            }
        });
        assert!(matches!(
            Recommender::from_serve_v2_bytes(&wrong_sum).err(),
            Some(ServeError::InvalidQuantMirror {
                prefix: "qy",
                error: QuantTableError::Statistics { row: 1 }
            })
        ));
        assert!(matches!(
            Recommender::from_serve_v2_bytes(&nan_scale).err(),
            Some(ServeError::InvalidQuantMirror {
                prefix: "qx",
                error: QuantTableError::Scale { row: 2, .. }
            })
        ));
        // The untouched re-emit still loads.
        assert!(Recommender::from_serve_v2_bytes(&reemit(&fresh, false, |_, _| {})).is_ok());
    }

    #[test]
    fn artifact_pipeline_serves_tape_identical_scores() {
        let (mut rec, model, scenario) = frozen_pipeline();
        // The served tables are exactly the tape-side inference embeddings.
        let tape = model.infer_embeddings().unwrap();
        assert_eq!(rec.scorer().x_users, tape.x_users);
        assert_eq!(rec.scorer().y_items, tape.y_items);

        // Cold-start users receive full, strictly ordered top-K lists.
        let user = scenario.cold_x_to_y.test_users[0];
        let recs = rec
            .recommend_vec(&Request {
                direction: Direction::X_TO_Y,
                user,
                k: 10,
            })
            .unwrap();
        assert_eq!(recs.len(), 10);
        for pair in recs.windows(2) {
            assert!(ranks_above(
                (pair[0].score, pair[0].item),
                (pair[1].score, pair[1].item)
            ));
        }

        // And the InferenceModel route produces the same engine.
        let mut inference = InferenceModel::from_model(&model);
        let mut rec2 = Recommender::from_embeddings(inference.embeddings().unwrap(), &scenario).unwrap();
        let recs2 = rec2
            .recommend_vec(&Request {
                direction: Direction::X_TO_Y,
                user,
                k: 10,
            })
            .unwrap();
        assert_eq!(recs, recs2);
    }
}
