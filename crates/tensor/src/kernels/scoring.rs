//! Candidate-scoring kernels (the evaluation hot path)
//!
//! The leave-one-out ranking protocol scores one user vector against ~1000
//! candidate item rows gathered by index. These are the evaluation-side
//! siblings of [`gather_rowwise_dot`]: one fixed row against many gathered
//! rows, for both score functions of the shared scorer (inner product and
//! CML-style negative squared distance), with the same ISA dispatch as the
//! dense kernels so the per-candidate reductions run 8/16-wide.

use super::isa::*;

/// Reference loop for [`score_candidates_dot`] (the seed scalar scorer):
/// sequential accumulation, matching a plain `zip().map().sum()` pair score.
pub fn score_candidates_dot_serial(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    debug_assert_eq!(user.len(), cols);
    debug_assert_eq!(out.len(), items.len());
    for (o, &it) in out.iter_mut().zip(items.iter()) {
        let row = &table[it as usize * cols..(it as usize + 1) * cols];
        let mut acc = 0.0f32;
        for (&u, &v) in user.iter().zip(row.iter()) {
            acc += u * v;
        }
        *o = acc;
    }
}

/// Reference loop for [`score_candidates_neg_sq_dist`].
pub fn score_candidates_neg_sq_dist_serial(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    debug_assert_eq!(user.len(), cols);
    debug_assert_eq!(out.len(), items.len());
    for (o, &it) in out.iter_mut().zip(items.iter()) {
        let row = &table[it as usize * cols..(it as usize + 1) * cols];
        let mut acc = 0.0f32;
        for (&u, &v) in user.iter().zip(row.iter()) {
            let d = u - v;
            acc += d * d;
        }
        *o = -acc;
    }
}

/// One lane-wise accumulation step of the candidate scorer.
#[inline(always)]
fn score_lane<const DOT: bool, const FUSE: bool>(acc: f32, u: f32, v: f32) -> f32 {
    if DOT {
        if FUSE {
            u.mul_add(v, acc)
        } else {
            acc + u * v
        }
    } else {
        let d = u - v;
        if FUSE {
            d.mul_add(d, acc)
        } else {
            acc + d * d
        }
    }
}

/// Scalar tail + sign of one candidate's reduction.
#[inline(always)]
fn score_finish<const DOT: bool>(lanes: &[f32; 8], user_tail: &[f32], row_tail: &[f32]) -> f32 {
    // Pairwise tree reduction: 3 dependent adds instead of the 7 a
    // sequential `lanes.iter().sum()` would chain — at typical embedding
    // widths the horizontal sum is a visible share of the per-candidate
    // cost.
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (&u, &v) in user_tail.iter().zip(row_tail.iter()) {
        acc = score_lane::<DOT, false>(acc, u, v);
    }
    if DOT {
        acc
    } else {
        -acc
    }
}

/// `DOT = true` computes inner products, `DOT = false` negative squared
/// Euclidean distances. `LANES` independent partial sums per candidate keep
/// the reduction in vector registers (so agreement with the serial
/// reference is approximate, not bitwise), and candidates are processed in
/// blocks of four so each user chunk is loaded once per block and the four
/// accumulation chains run in parallel.
#[inline(always)]
fn score_candidates_body<const DOT: bool, const FUSE: bool>(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    const LANES: usize = 8;
    const CAND_BLOCK: usize = 4;
    let whole = cols - cols % LANES;
    let mut c = 0usize;
    while c + CAND_BLOCK <= items.len() {
        let rows: [&[f32]; CAND_BLOCK] = std::array::from_fn(|b| {
            let it = items[c + b] as usize;
            &table[it * cols..(it + 1) * cols]
        });
        let mut acc = [[0.0f32; LANES]; CAND_BLOCK];
        let mut p = 0usize;
        while p < whole {
            let uc: &[f32; LANES] = user[p..p + LANES].try_into().expect("LANES-sized chunk");
            for b in 0..CAND_BLOCK {
                let rc: &[f32; LANES] = rows[b][p..p + LANES].try_into().expect("LANES-sized chunk");
                for l in 0..LANES {
                    acc[b][l] = score_lane::<DOT, FUSE>(acc[b][l], uc[l], rc[l]);
                }
            }
            p += LANES;
        }
        for b in 0..CAND_BLOCK {
            out[c + b] = score_finish::<DOT>(&acc[b], &user[whole..], &rows[b][whole..]);
        }
        c += CAND_BLOCK;
    }
    for (o, &it) in out[c..].iter_mut().zip(items[c..].iter()) {
        let row = &table[it as usize * cols..(it as usize + 1) * cols];
        let mut lanes = [0.0f32; LANES];
        let mut p = 0usize;
        while p < whole {
            let uc: &[f32; LANES] = user[p..p + LANES].try_into().expect("LANES-sized chunk");
            let rc: &[f32; LANES] = row[p..p + LANES].try_into().expect("LANES-sized chunk");
            for l in 0..LANES {
                lanes[l] = score_lane::<DOT, FUSE>(lanes[l], uc[l], rc[l]);
            }
            p += LANES;
        }
        *o = score_finish::<DOT>(&lanes, &user[whole..], &row[whole..]);
    }
}

/// Explicit AVX2+FMA body: four 256-bit accumulators (one per candidate)
/// share each user chunk, and the four horizontal sums collapse through the
/// classic `hadd`/`hadd`/`hadd` + 128-bit fold into a single `__m128`
/// holding all four scores. The per-candidate horizontal reduction is what
/// limits the autovectorised formulation at typical embedding widths
/// (`cols` 32-128), so it is hand-scheduled here.
///
/// # Safety
/// Requires AVX2+FMA; `items` must index valid rows of `table` and
/// `user.len() == cols` (both checked by [`score_candidates_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn score_candidates_x86<const DOT: bool>(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    const CAND_BLOCK: usize = 4;
    let whole = cols - cols % LANES;
    let u_ptr = user.as_ptr();
    let t_ptr = table.as_ptr();

    #[inline(always)]
    unsafe fn accumulate<const DOT: bool>(acc: __m256, u: __m256, r: __m256) -> __m256 {
        if DOT {
            _mm256_fmadd_ps(u, r, acc)
        } else {
            let d = _mm256_sub_ps(u, r);
            _mm256_fmadd_ps(d, d, acc)
        }
    }

    let mut c = 0usize;
    while c + CAND_BLOCK <= items.len() {
        let r0 = t_ptr.add(items[c] as usize * cols);
        let r1 = t_ptr.add(items[c + 1] as usize * cols);
        let r2 = t_ptr.add(items[c + 2] as usize * cols);
        let r3 = t_ptr.add(items[c + 3] as usize * cols);
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut p = 0usize;
        while p < whole {
            let u = _mm256_loadu_ps(u_ptr.add(p));
            a0 = accumulate::<DOT>(a0, u, _mm256_loadu_ps(r0.add(p)));
            a1 = accumulate::<DOT>(a1, u, _mm256_loadu_ps(r1.add(p)));
            a2 = accumulate::<DOT>(a2, u, _mm256_loadu_ps(r2.add(p)));
            a3 = accumulate::<DOT>(a3, u, _mm256_loadu_ps(r3.add(p)));
            p += LANES;
        }
        // hadd tree: t2's 128-bit halves hold [s0,s1,s2,s3] partials.
        let t0 = _mm256_hadd_ps(a0, a1);
        let t1 = _mm256_hadd_ps(a2, a3);
        let t2 = _mm256_hadd_ps(t0, t1);
        let sums = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
        let mut four = [0.0f32; CAND_BLOCK];
        _mm_storeu_ps(four.as_mut_ptr(), sums);
        for (b, row) in [r0, r1, r2, r3].into_iter().enumerate() {
            let mut acc = four[b];
            for q in whole..cols {
                let (uv, rv) = (*u_ptr.add(q), *row.add(q));
                if DOT {
                    acc += uv * rv;
                } else {
                    let d = uv - rv;
                    acc += d * d;
                }
            }
            out[c + b] = if DOT { acc } else { -acc };
        }
        c += CAND_BLOCK;
    }
    // Tail candidates go through the generic body (same lane scheme).
    score_candidates_body::<DOT, true>(cols, user, table, &items[c..], &mut out[c..]);
}

/// Runs the f32 scorer on tier `isa`: the generic lane body on the portable
/// tier, the hand-scheduled [`score_candidates_x86`] on every SIMD tier (its
/// lanes are explicit 256-bit, so AVX-512 has nothing to add).
///
/// # Safety
/// The CPU must support `isa`, and the arguments must satisfy the geometry
/// asserts of [`score_candidates_dispatch`].
pub(super) unsafe fn score_candidates_on<const DOT: bool>(
    isa: Isa,
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    match isa {
        Isa::Portable => score_candidates_body::<DOT, false>(cols, user, table, items, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 | Isa::Avx512Vnni => score_candidates_x86::<DOT>(cols, user, table, items, out),
    }
}

fn score_candidates_dispatch<const DOT: bool>(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    // Real (release-mode) validation: the SIMD bodies read the table through
    // raw pointers, so an out-of-range candidate id or a short user row must
    // fail loudly here rather than read out of bounds. One compare per
    // candidate against ~`cols` FLOPs of scoring is noise.
    assert_eq!(user.len(), cols, "user row length must equal cols");
    assert_eq!(out.len(), items.len(), "one output score per candidate");
    if let Some(&max_idx) = items.iter().max() {
        assert!(
            (max_idx as usize + 1)
                .checked_mul(cols)
                .is_some_and(|end| end <= table.len()),
            "candidate id {max_idx} out of bounds for a table of {} rows",
            table.len().checked_div(cols).unwrap_or(0)
        );
    }
    // SAFETY: `isa()` only reports tiers `detect_isa()` verified, and the
    // asserts above are the geometry the SIMD body relies on.
    unsafe { score_candidates_on::<DOT>(isa(), cols, user, table, items, out) }
}

/// Fused candidate scoring by inner product:
/// `out[k] = <user, table[items[k]]>`. One gather + reduction pass, no
/// intermediate `batch x cols` matrix. Indices must be in bounds.
pub fn score_candidates_dot(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    score_candidates_dispatch::<true>(cols, user, table, items, out)
}

/// Fused candidate scoring by negative squared Euclidean distance
/// (CML-style metric scoring): `out[k] = -||user - table[items[k]]||^2`.
pub fn score_candidates_neg_sq_dist(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    score_candidates_dispatch::<false>(cols, user, table, items, out)
}
