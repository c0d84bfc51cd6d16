use super::*;

fn pseudo(seed: u64, len: usize) -> Vec<f32> {
    // Small deterministic pseudo-random buffer without pulling in rng.
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        })
        .collect()
}

fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        assert!((x - y).abs() <= tol * scale, "index {i}: {x} vs {y}");
    }
}

#[test]
fn matmul_dispatch_matches_reference() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (3, 5, 2),
        (17, 33, 9),
        (64, 64, 64),
        (5, 0, 7),
    ] {
        let a = pseudo(1, m * k);
        let b = pseudo(2, k * n);
        let mut reference = vec![0.0; m * n];
        let mut fast = vec![0.0; m * n];
        matmul_serial(m, k, n, &a, &b, &mut reference);
        matmul(m, k, n, &a, &b, &mut fast);
        assert_close(&fast, &reference, 1e-5);
    }
}

/// A deterministic `rows x cols` sparse matrix (every fourth cell of a
/// skewed diagonal sweep, so some rows are short or empty).
fn csr_fixture(rows: usize, cols: usize) -> crate::sparse::CsrMatrix {
    let weights = pseudo(21, rows * cols);
    let cells = (0..rows * cols).filter(|i| ((i / cols) * 7 + (i % cols) * 3).is_multiple_of(4));
    let triplets: Vec<_> = cells.map(|i| (i / cols, i % cols, weights[i])).collect();
    crate::sparse::CsrMatrix::from_triplets(rows, cols, &triplets).unwrap()
}

#[test]
fn spmm_rows_matches_full_spmm_bitwise() {
    // The row-subset kernel must reproduce the full product's rows to
    // the bit: the incremental re-encode scatters these rows into cached
    // tables that are later compared bitwise against a full rebuild.
    let (rows, cols, n) = (13usize, 9usize, 8usize);
    let matrix = csr_fixture(rows, cols);
    let s = matrix.view();
    let dense = pseudo(22, cols * n);
    let mut full = vec![0.0; rows * n];
    spmm(s, n, &dense, &mut full);
    for subset in [vec![0u32], vec![12, 3, 7], vec![5, 5], (0..rows as u32).collect()] {
        let mut out = vec![f32::NAN; subset.len() * n];
        spmm_rows(s, &subset, n, &dense, &mut out);
        for (i, &r) in subset.iter().enumerate() {
            assert_eq!(
                &out[i * n..(i + 1) * n],
                &full[r as usize * n..(r as usize + 1) * n],
                "row {r} of the subset product must be bitwise equal to the full product"
            );
        }
    }
}

/// The fold every spmm route must reproduce: the output row zeroed, then one
/// `axpy` of it per nonzero in ascending entry order (what the body did
/// before it kept its partial sums in registers).
fn spmm_axpy_fold<const FUSE: bool>(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    for r in 0..s.rows {
        let out_row = &mut out[r * n..(r + 1) * n];
        out_row.fill(0.0);
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<FUSE>(s.values[e], out_row, &dense[c * n..(c + 1) * n]);
        }
    }
}

#[test]
fn spmm_body_equals_the_per_nonzero_axpy_fold_bitwise_per_tier() {
    // Rows 0 and 3 are empty, row 1 has one nonzero, row 2 seventy (more
    // than any column block is wide), row 4 a few; the widths walk every
    // combination of 64- / 32- / 16-wide blocks and the `axpy` tail.
    let (rows, cols) = (5usize, 90usize);
    let weights = pseudo(23, cols);
    let mut triplets = vec![(1, 17, 0.75f32)];
    triplets.extend((0..70).map(|c| (2, c, weights[c])));
    triplets.extend([3usize, 4, 88].map(|c| (4, c, weights[c])));
    let matrix = crate::sparse::CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
    let s = matrix.view();
    for n in [1usize, 15, 16, 17, 32, 33, 48, 64, 100, 128, 130] {
        let dense = &pseudo(24, cols * n)[..];
        let subset = [4u32, 0, 2, 2, 1];
        for tier in tiers() {
            let body = run(
                &vec![f32::NAN; rows * n],
                |o| dispatch!(on tier; FUSE, o => spmm_body::<FUSE>(0, rows, s, n, dense, o)),
            );
            let fold = run(
                &vec![f32::NAN; rows * n],
                |o| dispatch!(on tier; FUSE, o => spmm_axpy_fold::<FUSE>(s, n, dense, o)),
            );
            assert_eq!(bits(&body), bits(&fold), "{tier:?} n={n}");
        }
        // The public entry points on the process's tier: the full product,
        // and the row-subset form against its rows.
        let mut full = vec![f32::NAN; rows * n];
        spmm(s, n, dense, &mut full);
        let fold = run(&full, |o| dispatch!(FUSE, o => spmm_axpy_fold::<FUSE>(s, n, dense, o)));
        assert_eq!(bits(&full), bits(&fold), "spmm n={n}");
        let mut picked = vec![f32::NAN; subset.len() * n];
        spmm_rows(s, &subset, n, dense, &mut picked);
        for (i, &r) in subset.iter().enumerate() {
            let r = r as usize;
            assert_eq!(
                bits(&picked[i * n..(i + 1) * n]),
                bits(&full[r * n..(r + 1) * n]),
                "spmm_rows n={n} row {r}"
            );
        }
    }
}

/// The scatter form of `out (S.cols x n) = S^T * D` (`D` is `S.rows x n`)
/// without a materialised transpose: `out` zeroed, then one `axpy` of the
/// output row of each nonzero's column, walking `S` row by row. The
/// backward kernel before the transpose was materialised; kept as the
/// oracle of the gather that replaced it.
fn spmm_transpose_scatter<const FUSE: bool>(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for r in 0..s.rows {
        let d_row = &dense[r * n..(r + 1) * n];
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<FUSE>(s.values[e], &mut out[c * n..(c + 1) * n], d_row);
        }
    }
}

#[test]
fn spmm_over_the_transpose_equals_the_scatter_bitwise_per_tier() {
    // 11 x 9 with rows 0 and 6 and columns 4 and 8 empty; column 2 is hit
    // by every non-empty row, so the transpose has one long row.
    let (rows, cols) = (11usize, 9usize);
    let weights = pseudo(25, rows * cols);
    let triplets: Vec<_> = (0..rows * cols)
        .map(|i| (i / cols, i % cols))
        .filter(|&(r, c)| r != 0 && r != 6 && c != 4 && c != 8 && (c == 2 || (r * 5 + c * 3) % 4 == 0))
        .map(|(r, c)| (r, c, weights[r * cols + c]))
        .collect();
    let matrix = crate::sparse::CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
    let transpose = matrix.transpose();
    let (s, st) = (matrix.view(), transpose.view());
    for n in [1usize, 13, 16, 64, 80] {
        let grad = &pseudo(26, rows * n)[..];
        for tier in tiers() {
            let scatter = run(
                &vec![f32::NAN; cols * n],
                |o| dispatch!(on tier; FUSE, o => spmm_transpose_scatter::<FUSE>(s, n, grad, o)),
            );
            let gather = run(
                &vec![f32::NAN; cols * n],
                |o| dispatch!(on tier; FUSE, o => spmm_body::<FUSE>(0, cols, st, n, grad, o)),
            );
            assert_eq!(bits(&gather), bits(&scatter), "{tier:?} n={n}");
        }
        // The public entry point on the process's tier.
        let mut full = vec![f32::NAN; cols * n];
        spmm(st, n, grad, &mut full);
        let scatter = run(
            &full,
            |o| dispatch!(FUSE, o => spmm_transpose_scatter::<FUSE>(s, n, grad, o)),
        );
        assert_eq!(bits(&full), bits(&scatter), "spmm n={n}");
    }
}

/// The one-pair loop the blocked `gather_rowwise_dot_body` replaced: a
/// single accumulator per pair, columns in ascending order.
fn gather_rowwise_dot_one_pair<const FUSE: bool>(
    cols: usize,
    a: &[f32],
    b: &[f32],
    a_idx: &[usize],
    b_idx: &[usize],
    out: &mut [f32],
) {
    for ((o, &ia), &ib) in out.iter_mut().zip(a_idx).zip(b_idx) {
        let mut acc = 0.0f32;
        for (&x, &y) in a[ia * cols..(ia + 1) * cols].iter().zip(&b[ib * cols..(ib + 1) * cols]) {
            acc = if FUSE { x.mul_add(y, acc) } else { acc + x * y };
        }
        *o = acc;
    }
}

#[test]
fn blocked_gather_rowwise_dot_equals_the_one_pair_loop_bitwise_per_tier() {
    let (a_rows, b_rows) = (23usize, 17usize);
    for cols in [1usize, 13, 64] {
        let (a, b) = (&pseudo(27, a_rows * cols)[..], &pseudo(28, b_rows * cols)[..]);
        for len in 0..=2 * DOT_PAIRS + 1 {
            let a_idx: Vec<usize> = (0..len).map(|k| (k * 7 + 3) % a_rows).collect();
            let b_idx: Vec<usize> = (0..len).map(|k| (k * 5 + len) % b_rows).collect();
            let (ia, ib) = (&a_idx[..], &b_idx[..]);
            for tier in tiers() {
                let blocked = run(
                    &vec![f32::NAN; len],
                    |o| dispatch!(on tier; FUSE, o => gather_rowwise_dot_body::<FUSE>(cols, a, b, ia, ib, o)),
                );
                let one_pair = run(
                    &vec![f32::NAN; len],
                    |o| dispatch!(on tier; FUSE, o => gather_rowwise_dot_one_pair::<FUSE>(cols, a, b, ia, ib, o)),
                );
                assert_eq!(bits(&blocked), bits(&one_pair), "{tier:?} cols={cols} len={len}");
            }
        }
    }
}

/// `matmul` on each gathered row `subset` must reproduce those rows of
/// the full `m x k x n` product to the bit.
fn check_row_independence(seed: u64, (m, k, n): (usize, usize, usize), subsets: &[Vec<usize>]) {
    let (a, b) = (pseudo(seed, m * k), pseudo(seed + 1, k * n));
    let mut full = vec![0.0; m * n];
    matmul(m, k, n, &a, &b, &mut full);
    for subset in subsets {
        let gathered: Vec<f32> = subset.iter().flat_map(|&r| a[r * k..(r + 1) * k].to_vec()).collect();
        let mut out = vec![f32::NAN; subset.len() * n];
        matmul(subset.len(), k, n, &gathered, &b, &mut out);
        for (i, &r) in subset.iter().enumerate() {
            assert_eq!(
                &out[i * n..(i + 1) * n],
                &full[r * n..(r + 1) * n],
                "row {r} depends on its batch"
            );
        }
    }
}

#[test]
fn matmul_row_subset_is_bitwise_row_independent() {
    // A row's result must not depend on which other rows are computed
    // alongside it (MR-tile grouping, remainder handling, thread
    // chunking): the delta path re-runs `matmul` on gathered dirty rows
    // and scatters the output back expecting bitwise equality with the
    // full-table product.
    let subsets = [vec![0usize], vec![10, 2, 5], vec![7, 8, 9, 10], (0..11).collect()];
    check_row_independence(31, (11, 19, 13), &subsets);
}

#[test]
fn transposed_variants_match_reference() {
    let (m, k, n) = (23, 17, 31);
    let a = pseudo(3, m * k);
    let b = pseudo(5, m * n);
    let mut reference = vec![0.0; k * n];
    let mut fast = vec![0.0; k * n];
    transpose_matmul_serial(m, k, n, &a, &b, &mut reference);
    transpose_matmul(m, k, n, &a, &b, &mut fast);
    assert_close(&fast, &reference, 1e-5);
}

/// The fold every `transpose_matmul` route must reproduce: each output
/// element accumulated alone over the `m` rows in ascending order, fused on
/// the SIMD tiers.
fn transpose_matmul_fold(fuse: bool, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; k * n];
    for (at, o) in out.iter_mut().enumerate() {
        let (p, j) = (at / n, at % n);
        for i in 0..m {
            let (av, bv) = (a[i * k + p], b[i * n + j]);
            *o = if fuse { av.mul_add(bv, *o) } else { *o + av * bv };
        }
    }
    out
}

#[test]
fn transpose_matmul_equals_the_ascending_fold_bitwise_per_tier() {
    // Depths: none (the NaN-filled output must still come back as zeros),
    // around one and two 64-row depth blocks, and the training shape's
    // 5 009; output rows around the 8-row micro-tile and the 4-row register
    // tile; widths around the 32- and 16-column strips.
    let (a_all, b_all) = (pseudo(33, 5_009 * 192), pseudo(34, 5_009 * 97));
    for m in [0usize, 1, 15, 16, 63, 64, 65, 129, 5_009] {
        for k in [1usize, 7, 8, 9, 64, 70, 192] {
            for n in [1usize, 31, 32, 33, 45, 64, 97] {
                // At the deepest shape the scalar fold of the full cross
                // product is a minute of debug-build time; two shapes with a
                // remainder in every dimension cover its 79 depth blocks.
                if m == 5_009 && !matches!((k, n), (9, 33) | (70, 45)) {
                    continue;
                }
                let (a, b) = (&a_all[..m * k], &b_all[..m * n]);
                let folds = [false, true].map(|fuse| transpose_matmul_fold(fuse, m, k, n, a, b));
                for tier in tiers() {
                    let fold = &folds[usize::from(tier != Isa::Portable)];
                    let route = run(&vec![f32::NAN; k * n], |o| {
                        // SAFETY: `tiers()` lists only tiers this CPU supports; the slices are
                        // `m x k`, `m x n` and `k x n`.
                        unsafe { transpose_matmul_rows_on(tier, (0, k), m, k, n, a, b, o) }
                    });
                    let tiled = run(
                        &vec![f32::NAN; k * n],
                        |o| dispatch!(on tier; FUSE, o => tile_body::<FUSE>(0, k, (0, m), n, |p, i| a[i * k + p], b, o)),
                    );
                    assert_eq!(bits(&route), bits(fold), "{tier:?} ({m},{k},{n}): route vs fold");
                    assert_eq!(bits(&tiled), bits(fold), "{tier:?} ({m},{k},{n}): tile_body vs fold");
                }
                let mut dispatched = vec![f32::NAN; k * n];
                transpose_matmul(m, k, n, a, b, &mut dispatched);
                assert_eq!(
                    bits(&dispatched),
                    bits(&folds[usize::from(isa() != Isa::Portable)]),
                    "dispatched ({m},{k},{n})"
                );
            }
        }
    }
}

#[test]
fn adam_update_matches_unfused_formulation() {
    let n = 37;
    let grad = pseudo(6, n);
    let mut value = pseudo(7, n);
    let mut m = vec![0.0; n];
    let mut v = vec![0.0; n];
    let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
    let (mut uv, mut um, mut uvv) = (value.clone(), m.clone(), v.clone());
    for t in 1..=3u32 {
        let bias1 = 1.0 - beta1.powi(t as i32);
        let bias2 = 1.0 - beta2.powi(t as i32);
        adam_update(&mut value, &grad, &mut m, &mut v, beta1, beta2, eps, lr, bias1, bias2);
        // unfused reference
        for i in 0..n {
            um[i] = beta1 * um[i] + (1.0 - beta1) * grad[i];
            uvv[i] = beta2 * uvv[i] + (1.0 - beta2) * grad[i] * grad[i];
            uv[i] -= lr * (um[i] / bias1) / ((uvv[i] / bias2).sqrt() + eps);
        }
    }
    assert_close(&value, &uv, 1e-6);
}

#[test]
fn axpy_and_scale_add_match_reference() {
    for len in [0usize, 1, 7, 33, 1024] {
        let src = pseudo(10, len);
        let mut fast = pseudo(11, len);
        let mut reference = fast.clone();
        axpy(0.37, &mut fast, &src);
        axpy_serial(0.37, &mut reference, &src);
        assert_close(&fast, &reference, 1e-6);

        scale_add(0.9, &mut fast, &src);
        scale_add_serial(0.9, &mut reference, &src);
        assert_close(&fast, &reference, 1e-6);

        add_assign(&mut fast, &src);
        axpy_serial(1.0, &mut reference, &src);
        assert_close(&fast, &reference, 1e-6);
    }
}

#[test]
fn exp_and_ln_approx_match_libm() {
    for i in -870..=880 {
        let x = i as f32 * 0.1;
        let got = exp_approx(x);
        let want = x.exp();
        let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
        assert!(rel < 3e-7, "exp({x}): {got} vs {want} (rel {rel})");
    }
    for i in 1..=4000 {
        let x = i as f32 * i as f32 * 1e-4; // covers (0, 1600]
        let got = ln_approx(x);
        let want = x.ln();
        let err = (got - want).abs();
        assert!(err < 1e-6 + 3e-7 * want.abs(), "ln({x}): {got} vs {want} (err {err})");
    }
    assert_eq!(ln_approx(1.0), 0.0);
    assert!((exp_approx(0.0) - 1.0).abs() < 1e-7);
    assert!(exp_approx(-1000.0) >= 0.0);
    assert!(exp_approx(1000.0).is_infinite(), "overflow must stay detectable");
}

#[test]
fn vectorised_activations_match_scalar_reference() {
    let x = pseudo(21, 333).iter().map(|v| v * 20.0).collect::<Vec<_>>();
    let mut sp = vec![0.0; x.len()];
    softplus_forward(&x, &mut sp);
    let mut sg = vec![0.0; x.len()];
    sigmoid_forward(&x, &mut sg);
    for (i, &xv) in x.iter().enumerate() {
        let want_sp = softplus_scalar(xv);
        assert!(
            (sp[i] - want_sp).abs() < 1e-5 + 1e-5 * want_sp.abs(),
            "softplus({xv}): {} vs {want_sp}",
            sp[i]
        );
        let want_sg = sigmoid_scalar(xv);
        assert!((sg[i] - want_sg).abs() < 1e-5, "sigmoid({xv}): {} vs {want_sg}", sg[i]);
    }
}

#[test]
fn fused_loss_forwards_match_scalar_reference() {
    let x: Vec<f32> = pseudo(22, 101).iter().map(|v| v * 8.0).collect();
    let t: Vec<f32> = pseudo(23, 101)
        .iter()
        .map(|v| if *v > 0.0 { 1.0 } else { 0.0 })
        .collect();
    let got = bce_logits_forward(&x, &t);
    let want: f64 = x
        .iter()
        .zip(&t)
        .map(|(&x, &t)| (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln()) as f64)
        .sum();
    assert!(
        (got as f64 - want).abs() < 1e-4 * want.abs().max(1.0),
        "bce sum {got} vs {want}"
    );

    let mu: Vec<f32> = pseudo(24, 77).to_vec();
    let sigma: Vec<f32> = pseudo(25, 77).iter().map(|v| v.abs() + 0.05).collect();
    let got = kl_std_normal_forward(1e-8, &mu, &sigma);
    let want: f64 = mu
        .iter()
        .zip(&sigma)
        .map(|(&m, &s)| (0.5 * (m * m + s * s - 2.0 * (s + 1e-8).ln() - 1.0)) as f64)
        .sum();
    assert!(
        (got as f64 - want).abs() < 1e-4 * want.abs().max(1.0),
        "kl sum {got} vs {want}"
    );
}

/// A fused backward `kernel(accumulate, out)` must overwrite arbitrary
/// `out` contents with `naive` and add `naive` on top of them otherwise.
fn check_backward(naive: &[f32], tol: f32, kernel: impl Fn(bool, &mut [f32])) {
    let mut overwrite = pseudo(14, naive.len());
    kernel(false, &mut overwrite);
    assert_close(&overwrite, naive, tol);
    let mut accum = pseudo(15, naive.len());
    let expected: Vec<f32> = accum.iter().zip(naive).map(|(&a, &d)| a + d).collect();
    kernel(true, &mut accum);
    assert_close(&accum, &expected, tol);
}

#[test]
fn softplus_backward_matches_naive() {
    let x: Vec<f32> = pseudo(26, 111).iter().map(|v| v * 10.0).collect();
    let g = pseudo(27, 111);
    let naive: Vec<f32> = x.iter().zip(&g).map(|(&x, &g)| g * sigmoid_scalar(x)).collect();
    check_backward(&naive, 1e-5, |acc, out| softplus_backward(acc, &x, &g, out));
}

#[test]
fn leaky_relu_backward_matches_naive() {
    let (x, g, slope) = (pseudo(12, 129), pseudo(13, 129), 0.1);
    let naive: Vec<f32> = x
        .iter()
        .zip(&g)
        .map(|(&xv, &gv)| if xv >= 0.0 { gv } else { gv * slope })
        .collect();
    check_backward(&naive, 1e-6, |acc, out| leaky_relu_backward(acc, slope, &x, &g, out));
}

#[test]
fn bce_logits_backward_matches_naive() {
    let n = 65;
    let x = pseudo(16, n);
    let t: Vec<f32> = pseudo(17, n).iter().map(|v| if *v > 0.0 { 1.0 } else { 0.0 }).collect();
    let scale = 1.0 / n as f32;
    let naive: Vec<f32> = x
        .iter()
        .zip(&t)
        .map(|(&xv, &tv)| scale * (sigmoid_scalar(xv) - tv))
        .collect();
    check_backward(&naive, 1e-6, |acc, out| bce_logits_backward(acc, scale, &x, &t, out));
}

#[test]
fn kl_sigma_backward_matches_naive() {
    let sigma: Vec<f32> = pseudo(18, 77).iter().map(|v| v.abs() + 0.05).collect();
    let (scale, eps) = (0.25f32, 1e-8f32);
    let naive: Vec<f32> = sigma.iter().map(|&sv| scale * (sv - 1.0 / (sv + eps))).collect();
    check_backward(&naive, 1e-5, |acc, out| kl_sigma_backward(acc, scale, eps, &sigma, out));
}

#[test]
fn score_candidates_match_serial_reference() {
    for &(rows, cols, n_cand) in &[
        (1usize, 1usize, 1usize),
        (7, 5, 4),
        (40, 32, 33),
        (13, 17, 0),
        (9, 48, 64),
    ] {
        let table = pseudo(31, rows * cols);
        let user = pseudo(32, cols);
        let items: Vec<u32> = (0..n_cand).map(|k| (k * 7 % rows) as u32).collect();
        let mut reference = vec![0.0; n_cand];
        let mut fast = vec![7.0; n_cand];
        score_candidates_dot_serial(cols, &user, &table, &items, &mut reference);
        score_candidates_dot(cols, &user, &table, &items, &mut fast);
        assert_close(&fast, &reference, 1e-5);
        score_candidates_neg_sq_dist_serial(cols, &user, &table, &items, &mut reference);
        score_candidates_neg_sq_dist(cols, &user, &table, &items, &mut fast);
        assert_close(&fast, &reference, 1e-5);
        // negative distance is maximal (zero) against the row itself
        if rows > 0 && !items.is_empty() {
            let self_row = table[items[0] as usize * cols..(items[0] as usize + 1) * cols].to_vec();
            let mut s = vec![1.0f32];
            score_candidates_neg_sq_dist(cols, &self_row, &table, &items[..1], &mut s);
            assert!(s[0].abs() < 1e-6, "distance to itself must be ~0, got {}", s[0]);
        }
    }
}

#[test]
fn scale_rows_accumulate_adds_on_top() {
    let (rows, cols) = (3, 4);
    let src = pseudo(19, rows * cols);
    let scales = pseudo(20, rows);
    let mut base = vec![0.0; rows * cols];
    scale_rows(rows, cols, &src, &scales, 2.0, false, &mut base);
    let mut twice = base.clone();
    scale_rows(rows, cols, &src, &scales, 2.0, true, &mut twice);
    let doubled: Vec<f32> = base.iter().map(|v| 2.0 * v).collect();
    assert_close(&twice, &doubled, 1e-6);
}

#[test]
fn isa_reports_a_name() {
    assert!(["portable", "avx2+fma", "avx512", "avx512+vnni"].contains(&active_isa()));
    assert!(parallelism() >= 1);
}

#[test]
fn force_isa_parses_known_names_and_never_ranks_up() {
    assert_eq!(parse_isa("portable"), Some(Isa::Portable));
    assert_eq!(parse_isa(" Portable "), Some(Isa::Portable));
    assert_eq!(parse_isa("garbage"), None);
    assert_eq!(parse_isa(""), None);
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(parse_isa("avx2"), Some(Isa::Avx2Fma));
        assert_eq!(parse_isa("avx512"), Some(Isa::Avx512));
        assert_eq!(parse_isa("vnni"), Some(Isa::Avx512Vnni));
        assert_eq!(parse_isa("AVX512+VNNI"), Some(Isa::Avx512Vnni));
        assert!(Isa::Portable < Isa::Avx2Fma);
        assert!(Isa::Avx2Fma < Isa::Avx512);
        assert!(Isa::Avx512 < Isa::Avx512Vnni);
    }
    // Forcing below the detected tier is honoured; above (or garbage)
    // falls back to detection — mirrored here without touching the
    // process-wide OnceLock.
    let detected = detect_isa();
    let pick = |req: Option<Isa>| match req {
        Some(forced) if forced <= detected => forced,
        _ => detected,
    };
    assert_eq!(pick(Some(Isa::Portable)), Isa::Portable);
    assert_eq!(pick(None), detected);
    assert_eq!(pick(parse_isa("nonsense")), detected);
}

#[test]
fn packed_matmul_is_bitwise_equal_to_tiled_path() {
    // Sizes chosen to clear the packed-path thresholds (m >= 16,
    // n >= 32, k >= 8) with awkward remainders in every dimension. On
    // AVX-512 machines `matmul` takes the packed micro-kernel while
    // `matmul_tiles` takes the register-tiled body; both must agree
    // bitwise because each output element is a sequential-k FMA fold in
    // either path. On lesser machines both take the tiled body and the
    // test degenerates to self-consistency.
    for &(m, k, n) in &[
        (16usize, 8usize, 32usize),
        (23, 9, 33),
        (40, 31, 95),
        (64, 32, 64),
        (17, 64, 100),
    ] {
        let a = pseudo(41, m * k);
        let b = pseudo(42, k * n);
        let mut packed = vec![f32::NAN; m * n];
        let mut tiled = vec![f32::NAN; m * n];
        matmul(m, k, n, &a, &b, &mut packed);
        matmul_tiles(m, k, n, &a, &b, &mut tiled);
        assert_eq!(packed, tiled, "packed vs tiled mismatch at ({m},{k},{n})");
        let mut reference = vec![0.0; m * n];
        matmul_serial(m, k, n, &a, &b, &mut reference);
        assert_close(&packed, &reference, 1e-5);
    }
}

#[test]
fn packed_matmul_rows_stay_bitwise_row_independent() {
    // The delta re-encode path multiplies small gathered row sets (tiled
    // path) and expects bitwise equality with full-table products
    // (packed path past the thresholds) — the same invariant
    // `matmul_row_subset_is_bitwise_row_independent` pins at small
    // sizes, here across the packed/tiled routing boundary.
    check_row_independence(51, (48, 24, 40), &[vec![0usize], vec![31, 2, 17], (8..14).collect()]);
}

/// Every ISA tier this CPU can run, lowest first.
fn tiers() -> Vec<Isa> {
    let known = ["portable", "avx2", "avx512", "vnni"].into_iter().filter_map(parse_isa);
    known.filter(|&t| t <= detect_isa()).collect()
}

/// Runs `kernel` on a copy of `init` and returns the result.
fn run(init: &[f32], kernel: impl FnOnce(&mut [f32])) -> Vec<f32> {
    let mut out = init.to_vec();
    kernel(&mut out);
    out
}

#[test]
fn every_dispatched_body_agrees_across_tiers() {
    // One process, every tier at or below the detected one, every
    // dispatched f32 body: the SIMD tiers must agree with each other
    // bitwise (the bodies fix their own lane counts and fold order, so
    // vector width cannot reorder a sum) and with the portable tier to
    // 1e-5 (FMA skips one rounding). The int8 bodies are pinned exactly
    // by `quant_score_bodies_are_exactly_equal_per_isa`.
    let (m, k, n) = (9usize, 13usize, 37usize);
    let (a, b, bt) = (&pseudo(71, m * k)[..], &pseudo(72, k * n)[..], &pseudo(73, m * n)[..]);
    let len = 203usize;
    let (x, y, seed) = (&pseudo(74, len)[..], &pseudo(75, len)[..], &pseudo(76, len)[..]);
    let (pos, unit) = (
        &x.iter().map(|v| v.abs() + 0.05).collect::<Vec<_>>()[..],
        &x.iter().map(|v| v + 0.5).collect::<Vec<_>>()[..],
    );
    let matrix = csr_fixture(7, 5);
    let s = matrix.view();
    let d5 = &pseudo(78, 5 * n)[..];
    // 111 columns: a 64-, a 32- and no 16-wide block, then a 15-column tail.
    let wide = &pseudo(77, 5 * 3 * n)[..];
    let (ia, ib, g) = (
        &[8usize, 0, 3, 3, 5][..],
        &[1usize, 12, 0, 7, 7][..],
        &pseudo(80, 5)[..],
    );
    let items = &[4u32, 0, 8, 8, 2, 7, 1][..];
    let (rows_1_to_8, rows_1_to_36) = (RowRange { first: 1, n: 7 }, RowRange { first: 1, n: 35 });
    let nan = |len: usize| vec![f32::NAN; len];
    let grad = |xv: f32, gv: f32| gv * sigmoid_approx(xv);
    let bce = |xv: f32, tv: f32| xv.max(0.0) - xv * tv + ln_approx(1.0 + exp_approx(-xv.abs()));
    // One row: the dispatched call, run at tier `t` on a copy of the
    // initial output `o`.
    macro_rules! row {
        ($name:literal, $init:expr, |$t:ident, $o:ident| $($kernel:tt)+) => {
            ($name, &|$t: Isa| run($init, |$o| dispatch!(on $t; $($kernel)+)))
        };
    }
    type Kernel<'a> = (&'a str, &'a dyn Fn(Isa) -> Vec<f32>);
    #[rustfmt::skip]
    let kernels: &[Kernel<'_>] = &[
        row!("matmul", &nan(m * n), |t, o| FUSE, o => tile_body::<FUSE>(0, m, (0, k), n, |i, p| a[i * k + p], b, o)),
        row!("transpose_matmul", &nan(k * n), |t, o| FUSE, o => tile_body::<FUSE>(0, k, (0, m), n, |p, i| a[i * k + p], bt, o)),
        // SAFETY: `supported` gates the tier; `a` is `m x k`, `bt` `m x n` and `o` `k x n`.
        ("transpose_matmul/route", &|t| run(&nan(k * n), |o| unsafe { transpose_matmul_rows_on(supported(t), (0, k), m, k, n, a, bt, o) })),
        row!("gather_rowwise_dot", &nan(5), |t, o| FUSE, o => gather_rowwise_dot_body::<FUSE>(k, a, b, ia, ib, o)),
        row!("scatter_scaled_rows", b, |t, o| FUSE, o => scatter_scaled_rows_body::<FUSE>(k, g, a, ia, o, ib)),
        row!("spmm", &nan(7 * n), |t, o| FUSE, o => spmm_body::<FUSE>(0, 7, s, n, d5, o)),
        row!("spmm/blocks", &nan(7 * 3 * n), |t, o| FUSE, o => spmm_body::<FUSE>(0, 7, s, 3 * n, wide, o)),
        row!("axpy", seed, |t, o| FUSE, o => axpy_body::<FUSE>(0.37, o, x)),
        row!("scale_add", seed, |t, o| FUSE, o => scale_add_body::<FUSE>(0.9, o, x)),
        row!("map/softplus", &nan(len), |t, o| o => map_body(x, o, &|v| softplus_approx(8.0 * v))),
        row!("map/sigmoid", &nan(len), |t, o| o => map_body(x, o, &|v| sigmoid_approx(8.0 * v))),
        row!("map/exp", &nan(len), |t, o| o => map_body(x, o, &|v| exp_approx(8.0 * v))),
        row!("map/ln", &nan(len), |t, o| o => map_body(pos, o, &ln_approx)),
        row!("zip", &nan(len), |t, o| o => zip_body::<false, _>(x, y, o, &grad)),
        row!("zip_accum", seed, |t, o| o => zip_body::<true, _>(x, y, o, &grad)),
        row!("kl_sigma_backward", &nan(len), |t, o| o => kl_sigma_backward_body::<false>(0.25, 1e-8, pos, o)),
        row!("kl_sigma_backward/accum", seed, |t, o| o => kl_sigma_backward_body::<true>(0.25, 1e-8, pos, o)),
        row!("box_muller", unit, |t, o| o => box_muller_body(o, 1.5)),
        ("lane_sum", &|t| vec![dispatch!(on t; lane_sum_body(x, unit, bce))]),
        // SAFETY (all six): `supported` gates the tier; the fixture's candidate ids and rows are in bounds.
        ("score_dot", &|t| run(&nan(7), |o| unsafe { score_candidates_on::<true, 1, _>(supported(t), k, [&a[..k]], a, items, o) })),
        ("score_neg_sq_dist", &|t| run(&nan(7), |o| unsafe { score_candidates_on::<false, 1, _>(supported(t), k, [&a[..k]], a, items, o) })),
        ("score_rows_dot", &|t| run(&nan(14), |o| unsafe { score_rows_on::<true>(supported(t), k, &b[..2 * k], a, rows_1_to_8, o) })),
        ("score_rows_neg_sq_dist", &|t| run(&nan(14), |o| unsafe { score_rows_on::<false>(supported(t), k, &b[..2 * k], a, rows_1_to_8, o) })),
        // Five users take the AVX-512 panel body (a three- and a two-user block) over two 16-row chunks and a 3-row tail.
        ("score_rows_dot/panel", &|t| run(&nan(5 * 35), |o| unsafe { score_rows_on::<true>(supported(t), k, &a[..5 * k], b, rows_1_to_36, o) })),
        ("score_rows_neg_sq_dist/panel", &|t| run(&nan(5 * 35), |o| unsafe { score_rows_on::<false>(supported(t), k, &a[..5 * k], b, rows_1_to_36, o) })),
    ];
    for (name, kernel) in kernels {
        let portable = kernel(Isa::Portable);
        let mut simd: Option<Vec<f32>> = None;
        for tier in tiers().into_iter().skip(1) {
            let got = kernel(tier);
            assert_close(&got, &portable, 1e-5);
            let first = simd.get_or_insert_with(|| got.clone());
            assert_eq!(&got, first, "{name}: {tier:?} must equal the other SIMD tiers bitwise");
        }
    }
}

/// The bits of `scores`, so NaN payloads and signed zeros compare too.
fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// On every tier, each group of the first `u` of `users` (`u` in `groups`)
/// scored over the row range `first..first + n` must equal, bit for bit, each
/// user scored alone through the gather form on the same ids.
fn check_row_range_against_gather<const DOT: bool>(groups: &[usize], users: &[f32], cols: usize, n: usize) {
    let first = 5usize;
    let table = pseudo(91, (first + n + 3) * cols);
    let ids: Vec<u32> = (first as u32..(first + n) as u32).collect();
    let rows = RowRange { first, n };
    for tier in tiers() {
        let gathered: Vec<Vec<f32>> = (0..users.len() / cols)
            .map(|u| {
                let user = &users[u * cols..(u + 1) * cols];
                // SAFETY (both calls): `tiers()` lists only tiers this CPU
                // supports, and rows `first..first + n` lie inside the table.
                run(&vec![f32::NAN; n], |o| unsafe {
                    score_candidates_on::<DOT, 1, _>(tier, cols, [user], &table, &ids[..], o)
                })
            })
            .collect();
        for &group in groups {
            let ranged = run(&vec![f32::NAN; group * n], |o| unsafe {
                score_rows_on::<DOT>(tier, cols, &users[..group * cols], &table, rows, o)
            });
            for (u, gathered) in gathered[..group].iter().enumerate() {
                assert_eq!(
                    bits(&ranged[u * n..(u + 1) * n]),
                    bits(gathered),
                    "{tier:?} dot={DOT} cols={cols} n={n}: user {u} of {group}"
                );
            }
        }
    }
    // The public entry points, on the process's tier.
    let group = groups[groups.len() - 1];
    let user = &users[(group - 1) * cols..group * cols];
    let (mut ranged, mut gathered) = (vec![f32::NAN; group * n], vec![f32::NAN; n]);
    if DOT {
        score_rows_dot(cols, &users[..group * cols], &table, first, n, &mut ranged);
        score_candidates_dot(cols, user, &table, &ids, &mut gathered);
    } else {
        score_rows_neg_sq_dist(cols, &users[..group * cols], &table, first, n, &mut ranged);
        score_candidates_neg_sq_dist(cols, user, &table, &ids, &mut gathered);
    }
    assert_eq!(bits(&ranged[(group - 1) * n..]), bits(&gathered));
}

#[test]
fn row_range_scorers_equal_the_gather_form_bitwise_per_tier() {
    // The serving scan (row ranges, a whole group of users per row load) and
    // the evaluation protocol plus the full-sort oracle (gathered ids, one
    // user) must agree to the bit on every tier: at every width (column tails,
    // `cols < 8`, both sides of the panel's 16-column transpose blocks, and
    // one table wider than the panel), at every count around the 16-row panel
    // chunk and the four-candidate tail, and at every group size around the
    // panel route and its three-user register block.
    #[cfg(target_arch = "x86_64")]
    const {
        assert!(PANEL_MIN_USERS == 3, "the group sizes below straddle the route at 3")
    };
    let groups = [1usize, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 128];
    for cols in [1usize, 7, 8, 15, 16, 17, 32, 33, 64, 100] {
        let users = pseudo(92, 128 * cols);
        for n in [0usize, 1, 3, 4, 5, 15, 16, 17, 31, 2049] {
            check_row_range_against_gather::<true>(&groups, &users, cols, n);
            check_row_range_against_gather::<false>(&groups, &users, cols, n);
        }
    }
    // A table wider than the panel keeps the pair body at every group size.
    #[cfg(target_arch = "x86_64")]
    {
        let cols = PANEL_MAX_COLS + 8;
        let users = pseudo(92, 128 * cols);
        check_row_range_against_gather::<true>(&groups, &users, cols, 21);
        check_row_range_against_gather::<false>(&groups, &users, cols, 21);
    }
}

#[test]
#[should_panic(expected = "out of bounds for a table of 10 rows")]
fn score_rows_rejects_a_range_past_the_table() {
    // Release-mode validation: the SIMD body reads rows through raw pointers.
    let cols = 8usize;
    score_rows_dot(cols, &[0.0; 24], &vec![0.0; 10 * cols], 7, 4, &mut [0.0; 12]);
}

#[test]
#[should_panic(expected = "users must be whole 8-wide rows")]
fn score_rows_rejects_a_short_score_block() {
    let cols = 8usize;
    score_rows_dot(cols, &[0.0; 24], &vec![0.0; 10 * cols], 0, 4, &mut [0.0; 11]);
}

#[test]
#[should_panic(expected = "users must be whole 0-wide rows")]
fn score_rows_rejects_a_short_score_block_at_zero_width() {
    // Zero-width rows leave only `out` to count the users; a block shorter
    // than one row of scores must not reach the SIMD body's four-score stores.
    score_rows_dot(0, &[], &[], 0, 8, &mut [0.0; 3]);
}

#[test]
fn score_rows_scores_zero_width_rows_as_zero() {
    // Any whole number of score rows is a valid zero-width group, on both
    // sides of the panel route.
    for n_users in [1usize, 2, 3, 5] {
        let mut out = vec![f32::NAN; n_users * 9];
        score_rows_dot(0, &[], &[], 0, 9, &mut out);
        assert!(out.iter().all(|&s| s == 0.0), "{n_users} users: {out:?}");
        score_rows_neg_sq_dist(0, &[], &[], 0, 9, &mut out);
        assert!(out.iter().all(|&s| s == 0.0), "{n_users} users: {out:?}");
    }
}

#[test]
#[should_panic(expected = "out of bounds for a table of 10 rows")]
fn score_candidates_rejects_an_id_past_the_table() {
    let (cols, user) = (8usize, vec![0.0; 8]);
    score_candidates_dot(cols, &user, &vec![0.0; 10 * cols], &[0, 3, 10, 1, 2], &mut [0.0; 5]);
}

/// A shape that takes the packed micro-kernel on AVX-512 machines.
const PACKED_SHAPE: (usize, usize, usize) = (32, 16, 64);

#[test]
#[should_panic(expected = "A must be m x k")]
fn matmul_rejects_a_short_lhs() {
    let (m, k, n) = PACKED_SHAPE;
    matmul(m, k, n, &vec![0.0; m * k - 1], &vec![0.0; k * n], &mut vec![0.0; m * n]);
}

#[test]
#[should_panic(expected = "B must be k x n")]
fn matmul_rejects_a_short_rhs() {
    let (m, k, n) = PACKED_SHAPE;
    matmul(m, k, n, &vec![0.0; m * k], &vec![0.0; k * n - 1], &mut vec![0.0; m * n]);
}

#[test]
#[should_panic(expected = "out must be m x n")]
fn matmul_rejects_a_short_output() {
    let (m, k, n) = PACKED_SHAPE;
    matmul(m, k, n, &vec![0.0; m * k], &vec![0.0; k * n], &mut vec![0.0; m * n - 1]);
}

#[test]
#[should_panic(expected = "A must be m x k")]
fn transpose_matmul_rejects_a_short_lhs() {
    let (m, k, n) = PACKED_SHAPE;
    transpose_matmul(m, k, n, &vec![0.0; m * k - 1], &vec![0.0; m * n], &mut vec![0.0; k * n]);
}

#[test]
#[should_panic(expected = "B must be m x n")]
fn transpose_matmul_rejects_a_short_rhs() {
    let (m, k, n) = PACKED_SHAPE;
    transpose_matmul(m, k, n, &vec![0.0; m * k], &vec![0.0; m * n - 1], &mut vec![0.0; k * n]);
}

#[test]
#[should_panic(expected = "out must be k x n")]
fn transpose_matmul_rejects_a_short_output() {
    let (m, k, n) = PACKED_SHAPE;
    transpose_matmul(m, k, n, &vec![0.0; m * k], &vec![0.0; m * n], &mut vec![0.0; k * n - 1]);
}

/// Table codes, scales, row sums, row norms, user codes, user norm.
type QuantFixture = (Vec<i8>, Vec<f32>, Vec<i32>, Vec<i32>, Vec<u8>, i32);

/// Builds a deterministic quantised table + user for the int8 kernel
/// tests: i8 codes spanning the full [-127, 127] range and u8 user
/// codes spanning [1, 255].
fn quant_fixture(rows: usize, cols: usize) -> QuantFixture {
    let code = |v: &f32| (v * 254.0).round().clamp(-127.0, 127.0) as i32;
    let data: Vec<i8> = pseudo(61, rows * cols).iter().map(|v| code(v) as i8).collect();
    let scales: Vec<f32> = (0..rows).map(|r| 0.001 + 0.0001 * r as f32).collect();
    let row_sums: Vec<i32> = (0..rows)
        .map(|r| data[r * cols..(r + 1) * cols].iter().map(|&q| q as i32).sum())
        .collect();
    let row_norms: Vec<i32> = (0..rows)
        .map(|r| data[r * cols..(r + 1) * cols].iter().map(|&q| (q as i32).pow(2)).sum())
        .collect();
    let user_q: Vec<u8> = pseudo(62, cols).iter().map(|v| (code(v) + 128) as u8).collect();
    let u_norm: i32 = user_q.iter().map(|&q| (q as i32 - 128).pow(2)).sum();
    (data, scales, row_sums, row_norms, user_q, u_norm)
}

/// Every tier's body, and the dispatched entry, against the scalar i32
/// reference — bitwise. Consecutive ids also run the row-range form over the
/// same rows, which must return the same bits on every tier.
fn check_quant_tiers<const DOT: bool>(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32]) {
    let n = items.len();
    let mut reference = vec![f32::NAN; n];
    score_candidates_quant_body::<DOT, _>(table, user, items, &mut reference);
    validate_quant_args(&table, &user, ids_end(items));
    let first = items.first().map_or(0, |&id| id as usize);
    let range = items
        .iter()
        .enumerate()
        .all(|(c, &id)| id as usize == first + c)
        .then_some(RowRange { first, n });
    for tier in tiers() {
        let mut got = vec![f32::NAN; n];
        // SAFETY (both calls): `tiers()` lists only tiers this CPU supports,
        // and the arguments were validated just above.
        unsafe { score_candidates_quant_on::<DOT, _>(tier, table, user, items, &mut got) };
        assert_eq!(got, reference, "{tier:?} body (dot={DOT}) at cols {}", table.cols);
        if let Some(rows) = range {
            let ranged = run(&vec![f32::NAN; n], |o| unsafe {
                score_candidates_quant_on::<DOT, _>(tier, table, user, rows, o)
            });
            assert_eq!(
                bits(&ranged),
                bits(&reference),
                "{tier:?} row form (dot={DOT}) at cols {}",
                table.cols
            );
        }
    }
    let mut via_dispatch = vec![f32::NAN; n];
    score_candidates_quant_dispatch::<DOT, _>(table, user, items, ids_end(items), &mut via_dispatch);
    assert_eq!(via_dispatch, reference);
    if range.is_some() {
        let ranged = run(&vec![f32::NAN; n], |o| match DOT {
            true => score_rows_quant_dot(table, user, first, n, o),
            false => score_rows_quant_neg_sq_dist(table, user, first, n, o),
        });
        assert_eq!(bits(&ranged), bits(&reference), "dispatched row form (dot={DOT})");
    }
}

#[test]
fn quant_score_bodies_are_exactly_equal_per_isa() {
    // Each ISA body computes the same i32 dot and shares the scalar f32
    // combine, so scores must be bitwise equal — not merely close —
    // across the portable, AVX2-widening and VNNI bodies (every tier
    // this CPU has), for both score kinds, including remainder-heavy
    // widths. Consecutive ids (`Some(first)`) also run the row-range form.
    for &(rows, cols, n_cand, first) in &[
        (5usize, 1usize, 3usize, None),
        (9, 15, 7, None),
        (16, 32, 33, None),
        (11, 33, 5, None),
        (8, 96, 13, None),
        (6, 100, 0, None),
        // Consecutive ids at width 32 drive the VNNI paired-row fast
        // path, including its 8-block remainder hand-off.
        (40, 32, 40, Some(0usize)),
        (40, 32, 29, Some(0)),
        (40, 32, 7, Some(0)),
        // Ranges that start past row 0, on both sides of that width.
        (40, 31, 29, Some(3)),
        (40, 32, 33, Some(5)),
        (40, 33, 21, Some(11)),
        (50, 64, 40, Some(9)),
        (6, 100, 0, Some(4)),
    ] {
        let (data, scales, row_sums, row_norms, user_q, u_norm) = quant_fixture(rows, cols);
        let table = QuantView {
            cols,
            data: &data,
            scales: &scales,
            row_sums: &row_sums,
            row_norms: &row_norms,
        };
        let user = QuantUser {
            q: &user_q,
            scale: 0.0123,
            norm: u_norm,
        };
        let items: Vec<u32> = match first {
            Some(first) => (first as u32..(first + n_cand) as u32).collect(),
            None => (0..n_cand).map(|i| (i * 5 % rows) as u32).collect(),
        };
        check_quant_tiers::<true>(table, user, &items);
        check_quant_tiers::<false>(table, user, &items);
    }
}

#[test]
fn quant_neg_sq_dist_is_zero_against_itself() {
    // A user quantised identically to a table row has distance exactly
    // -(s^2 |q|^2 - 2 s^2 |q|^2 + s^2 |q|^2) = 0 when scales match.
    let cols = 32usize;
    let (data, _, row_sums, row_norms, _, _) = quant_fixture(3, cols);
    let scales = vec![0.01f32; 3];
    let table = QuantView {
        cols,
        data: &data,
        scales: &scales,
        row_sums: &row_sums,
        row_norms: &row_norms,
    };
    let row1: Vec<u8> = data[cols..2 * cols].iter().map(|&q| (q as i32 + 128) as u8).collect();
    let user = QuantUser {
        q: &row1,
        scale: 0.01,
        norm: row_norms[1],
    };
    let mut out = vec![f32::NAN];
    score_rows_quant_neg_sq_dist(table, user, 1, 1, &mut out);
    assert_eq!(out[0], 0.0, "self-distance must be exactly zero, got {}", out[0]);
}

/// A `rows`-row quantised fixture of width `cols` with `meta` rows of
/// metadata, scored over `first..first + n` into `out_len` scores.
fn quant_range_call(rows: usize, cols: usize, meta: usize, (first, n): (usize, usize), out_len: usize) {
    let (data, scales, row_sums, row_norms, user_q, norm) = quant_fixture(rows, cols);
    let table = QuantView {
        cols,
        data: &data,
        scales: &scales[..meta],
        row_sums: &row_sums[..meta],
        row_norms: &row_norms,
    };
    let user = QuantUser {
        q: &user_q,
        scale: 0.5,
        norm,
    };
    score_rows_quant_dot(table, user, first, n, &mut vec![0.0; out_len]);
}

#[test]
#[should_panic(expected = "out of bounds for a table of 10 rows")]
fn score_rows_quant_rejects_a_range_past_the_codes() {
    quant_range_call(10, 32, 10, (7, 4), 4);
}

#[test]
#[should_panic(expected = "out of bounds for a table of 6 rows")]
fn score_rows_quant_rejects_a_range_past_the_metadata() {
    // The codes hold ten rows, the scales and row sums six.
    quant_range_call(10, 32, 6, (4, 4), 4);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn score_rows_quant_rejects_a_range_whose_end_overflows() {
    quant_range_call(10, 32, 10, (usize::MAX, 2), 2);
}

#[test]
#[should_panic(expected = "one output score per candidate")]
fn score_rows_quant_rejects_a_short_score_block() {
    quant_range_call(10, 32, 10, (0, 8), 7);
}

#[test]
#[should_panic(expected = "one output score per candidate")]
fn score_rows_quant_rejects_a_short_score_block_at_zero_width() {
    quant_range_call(10, 0, 10, (0, 8), 3);
}
