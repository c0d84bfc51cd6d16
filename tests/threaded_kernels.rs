//! Forces the threaded kernel drivers to actually run and checks them
//! against the serial references.
//!
//! The proptest parity suite draws most of its shapes below
//! `kernels::PAR_MIN_FLOPS`, so on them it compares serial against serial.
//! Here each shape crosses the threshold and `CDRIB_NUM_THREADS=4` overrides
//! the machine's core count (the override wins outright, so this works on a
//! 1-core CI box too), exercising `row_chunked` for the row-parallel
//! kernels, among them `spmm` over a transpose (the autodiff backward).
//!
//! This file is its own test binary, which matters: `parallelism()` caches
//! the thread count on first use, so the env var must be set before any
//! kernel in this process runs. Every test sets it (to the same value), and
//! tests only assert the override took effect under the `parallel` feature.
#![cfg(feature = "parallel")]

use cdrib::tensor::kernels;
use cdrib::tensor::{CsrMatrix, Tensor};

const THREADS: &str = "4";

fn force_threads() {
    std::env::set_var("CDRIB_NUM_THREADS", THREADS);
}

fn pseudo_tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(rows, cols, data).unwrap()
}

fn assert_close(fast: &Tensor, reference: &Tensor, what: &str) {
    assert_eq!(fast.shape(), reference.shape(), "{what}");
    for (i, (&x, &y)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        assert!((x - y).abs() <= 1e-5 * scale, "{what}: element {i}: {x} vs {y}");
    }
}

#[test]
fn forced_thread_count_is_in_effect() {
    force_threads();
    assert_eq!(kernels::parallelism(), 4);
}

#[test]
fn threaded_dense_kernels_match_serial_references() {
    force_threads();
    // 128 * 80 * 80 = 819_200 scalar multiply-adds, comfortably above
    // PAR_MIN_FLOPS, with row counts that do not divide evenly by 4 threads.
    let (m, k, n) = (129, 80, 81);
    assert!(m * k * n >= kernels::PAR_MIN_FLOPS);
    let a = pseudo_tensor(1, m, k);
    let b = pseudo_tensor(2, k, n);
    assert_close(&a.matmul(&b).unwrap(), &a.matmul_serial(&b).unwrap(), "threaded matmul");

    let bt = pseudo_tensor(3, n, k);
    assert_close(
        &a.matmul_transpose_b(&bt).unwrap(),
        &a.matmul_serial(&bt.transpose()).unwrap(),
        "threaded matmul_transpose_b",
    );

    let b2 = pseudo_tensor(4, m, n);
    assert_close(
        &a.transpose_matmul(&b2).unwrap(),
        &a.transpose().matmul_serial(&b2).unwrap(),
        "threaded transpose_matmul",
    );

    // Threading must not disturb run-to-run determinism.
    assert_eq!(a.matmul(&b).unwrap(), a.matmul(&b).unwrap());
}

#[test]
fn threaded_transpose_matmul_is_bitwise_the_ascending_fold() {
    force_threads();
    // `row_chunked` cuts the `k` output rows into `ceil(k / 4)`-row chunks:
    // two chunks of one row, three of three, and four of 18 (the last 16).
    // No chunk is a multiple of the AVX-512 micro-tile's eight rows, so all
    // of them end in a row remainder and all but the first start mid-tile;
    // each output element must still be its own ascending fold over `m`.
    let fused = kernels::active_isa() != "portable";
    for (m, k, n) in [(2_100usize, 2usize, 64usize), (1_000, 9, 33), (300, 70, 97)] {
        assert!(m * k * n >= kernels::PAR_MIN_FLOPS);
        let a = pseudo_tensor(7, m, k);
        let b = pseudo_tensor(8, m, n);
        let got = a.transpose_matmul(&b).unwrap();
        for p in 0..k {
            for j in 0..n {
                let fold = (0..m).fold(0.0f32, |s, i| {
                    let (av, bv) = (a.get(i, p), b.get(i, j));
                    if fused {
                        av.mul_add(bv, s)
                    } else {
                        s + av * bv
                    }
                });
                assert_eq!(
                    got.get(p, j).to_bits(),
                    fold.to_bits(),
                    "({m},{k},{n}) element ({p},{j})"
                );
            }
        }
    }
}

#[test]
fn threaded_spmm_kernels_match_serial_references() {
    force_threads();
    let (rows, cols, n) = (311, 157, 192);
    let mut state = 99u64;
    let triplets: Vec<(usize, usize, f32)> = (0..rows * 12)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % rows;
            let c = (state >> 12) as usize % cols;
            let v = ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5;
            (r, c, v)
        })
        .collect();
    let csr = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
    assert!(csr.nnz() * n >= kernels::PAR_MIN_FLOPS);

    let dense = pseudo_tensor(5, cols, n);
    assert_close(
        &csr.spmm(&dense).unwrap(),
        &csr.spmm_serial(&dense).unwrap(),
        "threaded spmm",
    );

    // The backward product `S^T G`: the same row-chunked kernel over the
    // materialised transpose.
    let dense_t = pseudo_tensor(6, rows, n);
    let csr_t = csr.transpose();
    assert_close(
        &csr_t.spmm(&dense_t).unwrap(),
        &csr.to_dense().transpose().matmul_serial(&dense_t).unwrap(),
        "threaded spmm over the transpose",
    );
    assert_eq!(
        csr_t.spmm(&dense_t).unwrap(),
        csr_t.spmm(&dense_t).unwrap(),
        "threaded spmm over the transpose must be deterministic"
    );
}
