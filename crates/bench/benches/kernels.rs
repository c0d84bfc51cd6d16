//! Criterion micro-benchmarks of the hot kernels that dominate CDRIB's
//! training-time cost profile — sparse-dense products, dense matmul, the VBGE
//! forward pass and negative sampling — and of the serving scan's row-range
//! scorer.

use cdrib_core::{MeanActivation, VbgeEncoder};
use cdrib_data::{build_preset, NegativeSampler, Scale, ScenarioKind};
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{ParamSet, SparseOperand, Tape, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_sparse_dense(c: &mut Criterion) {
    let scenario = build_preset(ScenarioKind::MusicMovie, Scale::Tiny, 1).unwrap();
    let adj = scenario.x.train.norm_adjacency();
    let mut rng = component_rng(0, "bench-spmm");
    let mut group = c.benchmark_group("sparse_dense_product");
    for dim in [32usize, 64, 128] {
        let dense = cdrib_tensor::rng::normal_tensor(&mut rng, adj.cols(), dim, 0.1);
        group.bench_with_input(BenchmarkId::new("spmm", dim), &dim, |b, _| {
            b.iter(|| black_box(adj.spmm(black_box(&dense)).unwrap()))
        });
    }
    group.finish();
}

fn bench_dense_matmul(c: &mut Criterion) {
    let mut rng = component_rng(1, "bench-matmul");
    let mut group = c.benchmark_group("dense_matmul");
    for n in [128usize, 512] {
        let a = cdrib_tensor::rng::normal_tensor(&mut rng, n, 64, 0.1);
        let b_mat = cdrib_tensor::rng::normal_tensor(&mut rng, 64, 64, 0.1);
        group.bench_with_input(BenchmarkId::new("n_rows", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(black_box(&b_mat)).unwrap()))
        });
    }
    group.finish();
}

/// Serial-reference vs dispatched kernel pairs at the acceptance shapes
/// (`rows x 256 * 256 x 256`). The dispatched path adds runtime SIMD
/// selection and, above the work threshold on multi-core machines, row
/// chunking across threads; the pair makes the resulting speedup visible in
/// the bench trajectory. The active ISA and thread count are printed so a
/// bench log is interpretable on its own.
fn bench_matmul_serial_vs_parallel(c: &mut Criterion) {
    println!(
        "kernel dispatch: isa={}, threads={}",
        cdrib_tensor::kernels::active_isa(),
        cdrib_tensor::kernels::parallelism()
    );
    let mut rng = component_rng(5, "bench-matmul-pair");
    let k = 256usize;
    let n = 256usize;
    let b_mat = cdrib_tensor::rng::normal_tensor(&mut rng, k, n, 0.1);
    let mut group = c.benchmark_group("matmul_serial_vs_parallel");
    for rows in [256usize, 1024, 4096] {
        let a = cdrib_tensor::rng::normal_tensor(&mut rng, rows, k, 0.1);
        group.bench_with_input(BenchmarkId::new("serial", rows), &rows, |bench, _| {
            bench.iter(|| black_box(a.matmul_serial(black_box(&b_mat)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("parallel", rows), &rows, |bench, _| {
            bench.iter(|| black_box(a.matmul(black_box(&b_mat)).unwrap()))
        });
    }
    group.finish();
}

/// Register-tiled body vs hand-packed AVX-512 micro-kernel matmul at the
/// acceptance pair (`1024 x 256 * 256 x 256`), plus the int8 candidate
/// scorer against the f32 scorer at the serving width. Raw-slice kernel
/// entry points with preallocated outputs, so the pair times the kernels
/// alone — no allocation, no tensor wrapping. Both sides go through
/// `kernels::matmul`: the tiled side computes the same product in 8-row
/// slabs, below the packed path's row threshold, so every slab runs the
/// tile body (two full 4-row tiles per slab; on machines without AVX-512
/// both sides run the tile body and the pair reads ~1.0x).
fn bench_matmul_tiled_vs_packed(c: &mut Criterion) {
    use cdrib_tensor::kernels::{self, QuantUser};
    use cdrib_tensor::quant::quantize_user_into;
    use cdrib_tensor::QuantizedTable;
    let mut rng = component_rng(7, "bench-matmul-packed");
    let (m, k, n) = (1024usize, 256usize, 256usize);
    let a = cdrib_tensor::rng::normal_tensor(&mut rng, m, k, 0.1);
    let b_mat = cdrib_tensor::rng::normal_tensor(&mut rng, k, n, 0.1);
    let mut out = vec![0.0f32; m * n];
    let mut group = c.benchmark_group("matmul_tiled_vs_packed");
    group.bench_function(BenchmarkId::new("tiled", format!("{m}x{k}x{n}")), |bench| {
        const SLAB: usize = 8;
        bench.iter(|| {
            let (a, b) = (black_box(a.as_slice()), black_box(b_mat.as_slice()));
            for (a_rows, out_rows) in a.chunks(SLAB * k).zip(out.chunks_mut(SLAB * n)) {
                kernels::matmul(SLAB, k, n, a_rows, b, out_rows);
            }
            black_box(out[0])
        })
    });
    group.bench_function(BenchmarkId::new("packed", format!("{m}x{k}x{n}")), |bench| {
        bench.iter(|| {
            kernels::matmul(m, k, n, black_box(a.as_slice()), black_box(b_mat.as_slice()), &mut out);
            black_box(out[0])
        })
    });
    // Candidate scoring at the serving width: f32 rows vs int8 codes over a
    // catalogue-scale table.
    let dim = 32usize;
    let rows = 65_536usize;
    let table = cdrib_tensor::rng::normal_tensor(&mut rng, rows, dim, 0.5);
    let user = cdrib_tensor::rng::normal_tensor(&mut rng, 1, dim, 0.5);
    let qt = QuantizedTable::from_tensor(&table);
    let mut uq = vec![0u8; dim];
    let (scale, norm) = quantize_user_into(user.row(0), &mut uq);
    let items: Vec<u32> = (0..rows as u32).collect();
    let mut scores = vec![0.0f32; rows];
    group.bench_function(BenchmarkId::new("score_f32", rows), |bench| {
        bench.iter(|| {
            kernels::score_candidates_dot(dim, black_box(user.row(0)), table.as_slice(), &items, &mut scores);
            black_box(scores[0])
        })
    });
    group.bench_function(BenchmarkId::new("score_int8", rows), |bench| {
        let qu = QuantUser { q: &uq, scale, norm };
        bench.iter(|| {
            kernels::score_candidates_quant_dot(black_box(qt.view()), qu, &items, &mut scores);
            black_box(scores[0])
        })
    });
    group.finish();
}

/// Serial vs dispatched spmm on the synthetic scenario graph's normalised
/// adjacency — the exact operand shape of a VBGE propagation step.
fn bench_spmm_serial_vs_parallel(c: &mut Criterion) {
    let scenario = build_preset(ScenarioKind::MusicMovie, Scale::Tiny, 1).unwrap();
    let adj = scenario.x.train.norm_adjacency();
    let mut rng = component_rng(6, "bench-spmm-pair");
    let dense = cdrib_tensor::rng::normal_tensor(&mut rng, adj.cols(), 128, 0.1);
    let mut group = c.benchmark_group("spmm_serial_vs_parallel");
    group.bench_function(BenchmarkId::new("serial", "scenario"), |b| {
        b.iter(|| black_box(adj.spmm_serial(black_box(&dense)).unwrap()))
    });
    group.bench_function(BenchmarkId::new("parallel", "scenario"), |b| {
        b.iter(|| black_box(adj.spmm(black_box(&dense)).unwrap()))
    });
    group.finish();
}

/// The three dense products of one `Op::Matmul` node side by side, at the
/// shapes a MusicMovie/Full training step (dim 64, 2 layers) and a square
/// mid-size layer run them: the forward `Y = A W`, and the backward's
/// `dA = G W^T` (as the tape computes it: `W` transposed into scratch, then
/// `matmul`) and `dW = A^T G` (`transpose_matmul`). All three are
/// `2 m k n` floating-point operations, so `Gelem/s` reads as GFLOP/s and
/// the forward : backward ratio of the dense layers is one glance. Raw-slice
/// kernel entry points with preallocated outputs, as in the pair above.
fn bench_dense_backward(c: &mut Criterion) {
    use cdrib_tensor::kernels;
    let mut rng = component_rng(8, "bench-dense-backward");
    let mut group = c.benchmark_group("dense_backward");
    for (m, k, n) in [
        (5_009usize, 192usize, 64usize),
        (1_780, 192, 64),
        (5_009, 64, 64),
        (1_024, 128, 128),
    ] {
        let a = cdrib_tensor::rng::normal_tensor(&mut rng, m, k, 0.1);
        let w = cdrib_tensor::rng::normal_tensor(&mut rng, k, n, 0.1);
        let g = cdrib_tensor::rng::normal_tensor(&mut rng, m, n, 0.1);
        let (mut y, mut da, mut dw, mut wt) = (
            vec![0.0f32; m * n],
            vec![0.0f32; m * k],
            vec![0.0f32; k * n],
            vec![0.0f32; n * k],
        );
        let shape = format!("{m}x{k}x{n}");
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        group.bench_function(BenchmarkId::new("matmul", &shape), |bench| {
            bench.iter(|| {
                kernels::matmul(m, k, n, black_box(a.as_slice()), black_box(w.as_slice()), &mut y);
                black_box(y[0])
            })
        });
        group.bench_function(BenchmarkId::new("dA", &shape), |bench| {
            bench.iter(|| {
                for (r, w_row) in black_box(w.as_slice()).chunks_exact(n).enumerate() {
                    for (c, &v) in w_row.iter().enumerate() {
                        wt[c * k + r] = v;
                    }
                }
                kernels::matmul(m, n, k, black_box(g.as_slice()), &wt, &mut da);
                black_box(da[0])
            })
        });
        group.bench_function(BenchmarkId::new("transpose_matmul", &shape), |bench| {
            bench.iter(|| {
                kernels::transpose_matmul(m, k, n, black_box(a.as_slice()), black_box(g.as_slice()), &mut dw);
                black_box(dw[0])
            })
        });
    }
    group.finish();
}

/// `spmm` and its backward at dim 64 over the four normalised adjacencies a
/// MusicMovie/Full step propagates through (each domain's `Norm(A)` and
/// `Norm(A^T)`), one element per stored nonzero: `ns/elem` is nanoseconds
/// per nonzero (64 multiply-adds). The backward `S^T G` is the same kernel
/// over the transpose the model builds once (`spmm/transpose`); all operands
/// are tensors, so 64-byte aligned as on the tape.
fn bench_spmm_backward(c: &mut Criterion) {
    use cdrib_tensor::kernels;
    let scenario = build_preset(ScenarioKind::MusicMovie, Scale::Full, 1).unwrap();
    let mut rng = component_rng(9, "bench-spmm-backward");
    let dim = 64usize;
    let mut group = c.benchmark_group("spmm_backward");
    for (domain, graph) in [("x", &scenario.x.train), ("y", &scenario.y.train)] {
        for (side, adj) in [
            ("norm_a", graph.norm_adjacency()),
            ("norm_a_t", graph.norm_adjacency_transpose()),
        ] {
            let adj_t = adj.transpose();
            let dense = cdrib_tensor::rng::normal_tensor(&mut rng, adj.cols(), dim, 0.1);
            let grad = cdrib_tensor::rng::normal_tensor(&mut rng, adj.rows(), dim, 0.1);
            let (mut out, mut out_t) = (Tensor::zeros(adj.rows(), dim), Tensor::zeros(adj.cols(), dim));
            let id = format!("{domain}.{side}/{}x{}", adj.rows(), adj.cols());
            group.throughput(Throughput::Elements(adj.nnz() as u64));
            group.bench_function(BenchmarkId::new("spmm", &id), |bench| {
                bench.iter(|| {
                    kernels::spmm(adj.view(), dim, black_box(dense.as_slice()), out.as_mut_slice());
                    black_box(out.get(0, 0))
                })
            });
            group.bench_function(BenchmarkId::new("spmm/transpose", &id), |bench| {
                bench.iter(|| {
                    kernels::spmm(adj_t.view(), dim, black_box(grad.as_slice()), out_t.as_mut_slice());
                    black_box(out_t.get(0, 0))
                })
            });
        }
    }
    group.finish();
}

/// The row-range scorer as the serving scan drives it: a 65 536 x 32 item
/// table walked tile-major in 2 048-row (256 KiB) tiles, each tile scored for
/// a whole group of users in one call, over group sizes on both sides of the
/// panel body's crossover. One element per (user, row): `ns/elem` is
/// nanoseconds per (user, row), the unit the scan is priced in.
fn bench_score_rows(c: &mut Criterion) {
    use cdrib_tensor::kernels;
    let (n_items, cols, tile) = (65_536usize, 32usize, 2_048usize);
    let mut rng = component_rng(10, "bench-score-rows");
    let table = cdrib_tensor::rng::normal_tensor(&mut rng, n_items, cols, 0.5);
    let users = cdrib_tensor::rng::normal_tensor(&mut rng, 128, cols, 0.5);
    let mut scores = vec![0.0f32; 128 * tile];
    let mut group = c.benchmark_group("score_rows");
    for n_users in [1usize, 2, 3, 8, 32, 128] {
        let users = &users.as_slice()[..n_users * cols];
        group.throughput(Throughput::Elements((n_users * n_items) as u64));
        group.bench_function(BenchmarkId::new("dot", n_users), |bench| {
            bench.iter(|| {
                for first in (0..n_items).step_by(tile) {
                    let out = &mut scores[..n_users * tile];
                    kernels::score_rows_dot(cols, black_box(users), table.as_slice(), first, tile, out);
                }
                black_box(scores[0])
            })
        });
    }
    group.finish();
}

fn bench_vbge_forward(c: &mut Criterion) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 2).unwrap();
    let norm_a = SparseOperand::new(scenario.x.train.norm_adjacency());
    let norm_a_t = SparseOperand::new(scenario.x.train.norm_adjacency_transpose());
    let mut rng = component_rng(2, "bench-vbge");
    let mut group = c.benchmark_group("vbge_forward");
    for layers in [1usize, 2, 3] {
        let mut params = ParamSet::new();
        let enc =
            VbgeEncoder::with_mean_activation(&mut params, &mut rng, "u", 64, layers, 0.1, MeanActivation::Identity)
                .unwrap();
        let emb = cdrib_tensor::rng::normal_tensor(&mut rng, scenario.x.n_users, 64, 0.1);
        group.bench_with_input(BenchmarkId::new("layers", layers), &layers, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let e = tape.constant(emb.clone());
                let out = enc.forward(&mut tape, &params, e, &norm_a_t, &norm_a, None).unwrap();
                black_box(tape.value(out.mu).unwrap().sum())
            })
        });
    }
    group.finish();
}

fn bench_negative_sampling(c: &mut Criterion) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 3).unwrap();
    let graph = &scenario.x.train;
    let sampler = NegativeSampler::new(graph);
    c.bench_function("negative_sampling_1k", |b| {
        let mut rng = component_rng(3, "bench-neg");
        b.iter(|| {
            let mut acc = 0u32;
            for u in 0..graph.n_users().min(1000) {
                if graph.user_degree(u) < graph.n_items() {
                    acc = acc.wrapping_add(sampler.sample_one(graph, u, &mut rng).unwrap());
                }
            }
            black_box(acc)
        })
    });
}

fn bench_ranking(c: &mut Criterion) {
    let mut rng = component_rng(4, "bench-rank");
    let negatives: Tensor = cdrib_tensor::rng::normal_tensor(&mut rng, 1, 999, 1.0);
    c.bench_function("rank_of_positive_999", |b| {
        b.iter(|| black_box(cdrib_eval::rank_of_positive(0.3, negatives.as_slice())))
    });
}

/// Scalar-libm vs vectorised Box-Muller noise fill at a reparameterisation
/// buffer shape (a tiny-preset `n_users x dim` noise tensor). The uniform
/// draws are identical either way; the pair isolates the `ln`/`sin_cos`
/// transform that the branchless polynomial kernels vectorise.
fn bench_fill_normal_pair(c: &mut Criterion) {
    use cdrib_tensor::rng::{fill_normal, fill_normal_scalar};
    let mut group = c.benchmark_group("fill_normal_scalar_vs_vectorised");
    for len in [4096usize, 65_536] {
        let mut buf = vec![0.0f32; len];
        group.bench_with_input(BenchmarkId::new("scalar", len), &len, |b, _| {
            let mut rng = component_rng(5, "bench-fill-normal");
            b.iter(|| {
                fill_normal_scalar(&mut rng, black_box(&mut buf), 1.0);
                black_box(buf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("vectorised", len), &len, |b, _| {
            let mut rng = component_rng(5, "bench-fill-normal");
            b.iter(|| {
                fill_normal(&mut rng, black_box(&mut buf), 1.0);
                black_box(buf[0])
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sparse_dense, bench_dense_matmul, bench_matmul_serial_vs_parallel,
        bench_matmul_tiled_vs_packed, bench_dense_backward, bench_spmm_serial_vs_parallel,
        bench_spmm_backward, bench_score_rows, bench_vbge_forward,
        bench_negative_sampling, bench_ranking, bench_fill_normal_pair
}
criterion_main!(kernels);
