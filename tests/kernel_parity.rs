//! Parity suite for the kernel subsystem: the dispatched (SIMD + optionally
//! threaded) kernels in `cdrib_tensor::kernels` must agree with the
//! single-threaded reference loops within 1e-5 across random shapes,
//! including empty, `1 x N` and `N x 1` edge cases.
//!
//! The same tests pass with `--no-default-features` (serial dispatch), so the
//! suite pins both feature configurations to the same numerics.

use cdrib::tensor::{CsrMatrix, Tensor};
use proptest::prelude::*;

/// Relative-ish tolerance: the fused-multiply-add kernels round differently
/// from the reference loop, but never by more than a few ulps per
/// accumulation step.
fn assert_close(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        assert!(
            (x - y).abs() <= 1e-5 * scale,
            "{what}: element {i} diverged: dispatched {x} vs reference {y}"
        );
    }
}

/// A random `rows x cols` tensor with entries in `[-1, 1]`; dimensions may
/// be zero.
fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data).unwrap())
}

/// Dimension strategy biased to cover 0, 1, "large enough to cross the
/// register-tile remainder paths" (MR = 4, NR = 16) and a few values past
/// one and several 64-row depth blocks of the AVX-512 `transpose_matmul`.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..43).prop_map(|d| match d {
        0..=2 => d,                  // empty / 1xN / Nx1 territory
        3..=20 => d,                 // remainder tiles
        21..=39 => (d - 20) * 3 + 1, // 4..58, crossing full 4x16 tiles
        40 => 65,                    // one depth block and a row
        41 => 130,                   // two and a remainder
        _ => 257,                    // four and a row
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matmul_matches_serial_reference((m, k, n) in (dim(), dim(), dim())) {
        let strategy = (tensor(m, k), tensor(k, n));
        let mut rng = TestRng::for_case("matmul_parity_inner", (m * 1009 + k * 31 + n) as u64);
        let (a, b) = strategy.generate(&mut rng);
        assert_close(&a.matmul(&b).unwrap(), &a.matmul_serial(&b).unwrap(), "matmul");
    }

    #[test]
    fn matmul_transpose_b_matches_reference((m, k, n) in (dim(), dim(), dim())) {
        let strategy = (tensor(m, k), tensor(n, k));
        let mut rng = TestRng::for_case("mtb_parity_inner", (m * 1013 + k * 37 + n) as u64);
        let (a, b) = strategy.generate(&mut rng);
        // Reference: materialise B^T and run the serial matmul.
        assert_close(
            &a.matmul_transpose_b(&b).unwrap(),
            &a.matmul_serial(&b.transpose()).unwrap(),
            "matmul_transpose_b",
        );
    }

    #[test]
    fn transpose_matmul_matches_reference((m, k, n) in (dim(), dim(), dim())) {
        let strategy = (tensor(m, k), tensor(m, n));
        let mut rng = TestRng::for_case("tm_parity_inner", (m * 1019 + k * 41 + n) as u64);
        let (a, b) = strategy.generate(&mut rng);
        assert_close(
            &a.transpose_matmul(&b).unwrap(),
            &a.transpose().matmul_serial(&b).unwrap(),
            "transpose_matmul",
        );
    }

    #[test]
    fn spmm_matches_serial_reference(
        (rows, cols, n) in (1usize..40, 1usize..40, 1usize..24),
        edge_seed in 0u64..10_000,
        density_pct in 0usize..60,
    ) {
        let mut rng = TestRng::for_case("spmm_parity_edges", edge_seed);
        let nnz = rows * cols * density_pct / 100;
        let triplets: Vec<(usize, usize, f32)> = (0..nnz)
            .map(|_| {
                let r = rng.below(rows as u64) as usize;
                let c = rng.below(cols as u64) as usize;
                let v = (rng.unit_f64() * 2.0 - 1.0) as f32;
                (r, c, v)
            })
            .collect();
        let csr = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
        let dense = (tensor(cols, n)).generate(&mut rng);
        assert_close(&csr.spmm(&dense).unwrap(), &csr.spmm_serial(&dense).unwrap(), "spmm");

        // The backward product `S^T G`, spmm over the transpose, against
        // the dense reference product.
        let dense_t = (tensor(rows, n)).generate(&mut rng);
        assert_close(
            &csr.transpose().spmm(&dense_t).unwrap(),
            &csr.to_dense().transpose().matmul_serial(&dense_t).unwrap(),
            "spmm over the transpose",
        );
    }

    #[test]
    fn rowwise_reductions_match_manual_loops((rows, cols) in (dim(), dim())) {
        let strategy = (tensor(rows, cols), tensor(rows, cols));
        let mut rng = TestRng::for_case("rowwise_parity_inner", (rows * 1021 + cols) as u64);
        let (a, b) = strategy.generate(&mut rng);
        let dots = a.rowwise_dot(&b).unwrap();
        let dists = a.rowwise_sq_dist(&b).unwrap();
        assert_eq!(dots.shape(), (rows, 1));
        for r in 0..rows {
            let expect_dot: f32 = a.row(r).iter().zip(b.row(r)).map(|(x, y)| x * y).sum();
            let expect_dist: f32 = a.row(r).iter().zip(b.row(r)).map(|(x, y)| (x - y) * (x - y)).sum();
            let scale = 1.0f32.max(expect_dot.abs());
            assert!((dots.get(r, 0) - expect_dot).abs() <= 1e-5 * scale);
            assert!((dists.get(r, 0) - expect_dist).abs() <= 1e-5 * 1.0f32.max(expect_dist));
        }
    }
}

#[test]
fn explicit_edge_shapes() {
    // Empty operands, single-row and single-column shapes — the cases the
    // tiled remainder paths must not get wrong.
    for (m, k, n) in [
        (0usize, 0usize, 0usize),
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (1, 1, 1),
        (1, 64, 1),
        (64, 1, 64),
        (1, 7, 33),
        (33, 7, 1),
        (4, 16, 16),
        (5, 17, 19),
    ] {
        let a = Tensor::full(m, k, 0.25);
        let b = Tensor::full(k, n, -0.5);
        let fast = a.matmul(&b).unwrap();
        let reference = a.matmul_serial(&b).unwrap();
        assert_close(&fast, &reference, &format!("matmul {m}x{k}x{n}"));
        assert_eq!(fast.shape(), (m, n));
    }
}

#[test]
fn sin_cos_approx_matches_libm_at_1e_5() {
    use cdrib::tensor::kernels::{cos_approx, sin_approx, sin_cos_approx};
    // Dense sweep over the Box-Muller input range [0, 2 pi) plus margin on
    // both sides (the reduction handles a few extra periods).
    let mut worst = 0.0f32;
    for i in 0..200_000 {
        let x = -4.0 * std::f32::consts::PI + i as f32 * (8.0 * std::f32::consts::PI / 200_000.0);
        let (s, c) = sin_cos_approx(x);
        let ds = (s - x.sin()).abs();
        let dc = (c - x.cos()).abs();
        worst = worst.max(ds).max(dc);
        assert!(ds <= 1e-5, "sin({x}) diverged: {s} vs {}", x.sin());
        assert!(dc <= 1e-5, "cos({x}) diverged: {c} vs {}", x.cos());
        assert_eq!(sin_approx(x), s);
        assert_eq!(cos_approx(x), c);
    }
    // The polynomials should be far inside the advertised tolerance.
    assert!(worst <= 2e-6, "worst sin/cos error {worst} larger than expected");
}

#[test]
fn box_muller_matches_scalar_reference_at_1e_5() {
    use cdrib::tensor::kernels::{box_muller, box_muller_serial};
    let mut rng = TestRng::for_case("box_muller_parity", 0);
    for (len, std) in [(2usize, 1.0f32), (64, 1.0), (1023, 0.1), (4096, 2.5)] {
        let uniforms: Vec<f32> = (0..len).map(|_| (rng.unit_f64() as f32).min(0.999_999)).collect();
        let mut fast = uniforms.clone();
        let mut reference = uniforms;
        let even = len / 2 * 2;
        box_muller(&mut fast[..even], std);
        box_muller_serial(&mut reference[..even], std);
        for (i, (&f, &r)) in fast.iter().zip(reference.iter()).enumerate() {
            assert!(f.is_finite(), "sample {i} not finite");
            // Absolute tolerance scaled by the sample magnitude: r can reach
            // ~13 std, where a 1e-7 sin/cos error scales accordingly.
            let scale = 1.0f32.max(f.abs()).max(r.abs());
            assert!(
                (f - r).abs() <= 1e-5 * scale,
                "len {len} std {std}: sample {i} diverged: vectorised {f} vs scalar {r}"
            );
        }
    }
}

#[test]
fn box_muller_handles_degenerate_uniforms() {
    use cdrib::tensor::kernels::box_muller;
    // u1 = 0 must clamp (ln(0) would be -inf), u2 on period boundaries must
    // stay finite, and the odd trailing element is left untouched.
    let mut buf = [0.0, 0.0, 0.0, 1.0 - f32::EPSILON, 0.5, 0.25, 7.0];
    box_muller(&mut buf[..6], 1.0);
    for (i, v) in buf[..6].iter().enumerate() {
        assert!(v.is_finite(), "sample {i} not finite: {v}");
        assert!(v.abs() < 20.0, "sample {i} implausibly large: {v}");
    }
    assert_eq!(buf[6], 7.0, "odd tail must not be transformed");
}

#[test]
fn fill_normal_is_seeded_and_well_distributed() {
    use cdrib::tensor::rng::{component_rng, fill_normal};
    // Same seed -> identical buffer; the vectorised path preserves the
    // determinism contract of every stochastic component.
    let mut a = vec![0.0f32; 4097];
    let mut b = vec![0.0f32; 4097];
    fill_normal(&mut component_rng(9, "fill-normal"), &mut a, 1.0);
    fill_normal(&mut component_rng(9, "fill-normal"), &mut b, 1.0);
    assert_eq!(a, b);
    // And the moments still look standard-normal.
    let n = a.len() as f64;
    let mean = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = a.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
    assert!(mean.abs() < 0.08, "mean {mean}");
    assert!((var - 1.0).abs() < 0.1, "var {var}");
}

#[test]
fn dispatched_kernels_are_run_to_run_deterministic() {
    // Two invocations of the same dispatched kernel must agree bit-for-bit:
    // the ISA choice is fixed per process and row/band chunking preserves
    // per-element accumulation order.
    let mut rng = TestRng::for_case("kernel_determinism", 0);
    let a = tensor(37, 29).generate(&mut rng);
    let b = tensor(29, 23).generate(&mut rng);
    assert_eq!(a.matmul(&b).unwrap(), a.matmul(&b).unwrap());
    assert_eq!(a.transpose_matmul(&a).unwrap(), a.transpose_matmul(&a).unwrap());
}

/// Whether this CPU has every feature of the tier `active_isa()` calls
/// `name` (the same feature sets the kernels' detection checks).
fn cpu_supports(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        let avx512 = avx2 && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
        match name {
            "avx2+fma" => avx2,
            "avx512" => avx512,
            "avx512+vnni" => avx512 && is_x86_feature_detected!("avx512vnni"),
            _ => true,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        name == "portable"
    }
}

#[test]
fn forced_isa_is_in_effect_or_skipped_loudly() {
    // The kernels ignore a `CDRIB_FORCE_ISA` they cannot honour (unknown
    // name, tier above the hardware) by design — production must never run
    // unsupported instructions. A tier-pinned *test* run (the CI
    // `kernel-tiers` matrix) must not inherit that silence, or it reports
    // green for a tier it never executed.
    use std::io::Write;
    let Ok(forced) = std::env::var("CDRIB_FORCE_ISA") else {
        return;
    };
    let tier = match forced.trim().to_ascii_lowercase().as_str() {
        "portable" | "scalar" => "portable",
        "avx2" | "avx2+fma" => "avx2+fma",
        "avx512" => "avx512",
        "vnni" | "avx512vnni" | "avx512+vnni" => "avx512+vnni",
        other => panic!("CDRIB_FORCE_ISA={other:?} names no ISA tier: this run is not pinned to anything"),
    };
    let active = cdrib::tensor::kernels::active_isa();
    if cpu_supports(tier) {
        assert_eq!(active, tier, "CDRIB_FORCE_ISA={forced} was not honoured");
    } else {
        // Straight to stderr: the harness captures `println!` on success.
        writeln!(
            std::io::stderr(),
            "SKIP: CDRIB_FORCE_ISA={forced} needs {tier}, which this CPU lacks; this run exercised {active} instead"
        )
        .unwrap();
    }
}
