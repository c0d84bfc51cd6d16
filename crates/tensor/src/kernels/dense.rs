//! Dense products (tiled and packed `matmul`, `transpose_matmul`), row-wise
//! reductions and the sampled gather/scatter pair.

use super::elementwise::axpy_body;
use super::isa::*;

// ---------------------------------------------------------------------------
// Dense matmul: out (m x n) = A (m x k) * B (k x n)
// ---------------------------------------------------------------------------

/// Reference loop for [`matmul`] (the seed implementation): i-k-j order with
/// a zero-skip on `A`, accumulating into a zeroed `out`.
pub fn matmul_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Dense micro-tile height (output rows per register tile).
const MR: usize = 4;
/// Dense micro-tile width (output columns per register tile).
const NR: usize = 16;

/// Register-tiled product over output rows `[r0, r1)` of `out = A' * B`,
/// shared by [`matmul`] (`A' = A`) and [`transpose_matmul`] (`A' = A^T`):
/// `B` is `(depth x n)` row-major, `a_at(row, p)` reads `A'[row][p]` from
/// wherever the caller stores it, and `out_rows` holds exactly the rows
/// `[r0, r1)`. `MR x NR` tiles keep their accumulators in registers, and
/// every output element folds `p = 0..depth` in ascending order. `FUSE`
/// selects `f32::mul_add` (only profitable when the target has a hardware
/// FMA — a libm call otherwise).
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `r` is the tile row of `acc` *and* of `A'`
pub(super) fn tile_body<const FUSE: bool>(
    r0: usize,
    r1: usize,
    depth: usize,
    n: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b: &[f32],
    out_rows: &mut [f32],
) {
    let mut i = r0;
    while i < r1 {
        let mr = MR.min(r1 - i);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            if mr == MR && nr == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..depth {
                    let b_row = &b[p * n + j..p * n + j + NR];
                    for r in 0..MR {
                        let av = a_at(i + r, p);
                        for (l, &bv) in b_row.iter().enumerate() {
                            if FUSE {
                                acc[r][l] = av.mul_add(bv, acc[r][l]);
                            } else {
                                acc[r][l] += av * bv;
                            }
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let row0 = (i - r0 + r) * n + j;
                    out_rows[row0..row0 + NR].copy_from_slice(acc_row);
                }
            } else {
                for r in 0..mr {
                    for l in 0..nr {
                        let mut s = 0.0f32;
                        for p in 0..depth {
                            let (av, bv) = (a_at(i + r, p), b[p * n + j + l]);
                            if FUSE {
                                s = av.mul_add(bv, s);
                            } else {
                                s += av * bv;
                            }
                        }
                        out_rows[(i - r0 + r) * n + j + l] = s;
                    }
                }
            }
            j += nr;
        }
        i += mr;
    }
}

/// `rows * cols` as the length a kernel operand must have. Checked, so a
/// geometry that overflows `usize` cannot wrap around to a length that
/// happens to match a short slice.
fn dims(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols).expect("kernel dimensions overflow usize")
}

/// Dense matmul `out (m x n) = A (m x k) * B (k x n)`. Every element of
/// `out` is overwritten; entry contents are ignored (recycled buffers are
/// fine — unlike [`matmul_serial`], which accumulates into a zeroed `out`).
///
/// On AVX-512 machines, problems past [`PACK_MIN_M`] rows route through the
/// hand-packed micro-kernel ([`matmul_packed_avx512`]); everything else runs
/// the register-tiled body. Both paths accumulate each output element with
/// sequential-`k` FMA chains, so the result is bitwise identical between
/// them — smaller gathered-row products (the delta re-encode path) stay
/// bitwise consistent with full-table rebuilds.
///
/// # Panics
/// If a slice length does not match the `m/k/n` geometry. These are release
/// checks: the packed micro-kernel reads `a` and writes `out` through raw
/// pointers, and three compares are nothing against `O(m·k·n)` work.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), dims(m, k), "A must be m x k");
    assert_eq!(b.len(), dims(k, n), "B must be k x n");
    assert_eq!(out.len(), dims(m, n), "out must be m x n");
    if m == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if matches!(isa(), Isa::Avx512 | Isa::Avx512Vnni) && m >= PACK_MIN_M && n >= NR_512 && k >= PACK_MIN_K {
        matmul_packed_avx512(m, k, n, a, b, out);
        return;
    }
    matmul_tiles(m, k, n, a, b, out);
}

/// The non-packed path of [`matmul`] — [`tile_body`] under the ISA dispatch
/// and the row-chunking shim — and the only path on AVX2 and portable
/// machines. Lengths are checked by [`matmul`].
pub(super) fn matmul_tiles(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    row_chunked(out, n, m, m * k * n, |i0, i1, rows| {
        dispatch!(FUSE, rows => tile_body::<FUSE>(i0, i1, k, n, |i, p| a[i * k + p], b, rows));
    });
}

// ---------------------------------------------------------------------------
// Hand-packed AVX-512 matmul micro-kernel
// ---------------------------------------------------------------------------
//
// The register-tiled body above reads `B` straight from the source matrix,
// so every `MR x NR` tile re-streams `B` rows through L1 with an `n`-element
// stride between vector loads. Packing `B` once into contiguous `NR_512`-wide
// panels (strip-major: panel `jp` holds rows `p = 0..k` of columns
// `[jp*32, jp*32+32)` back to back) turns the inner loop into two perfectly
// sequential streams — `A` broadcast from L1, packed `B` from L1/L2 — which
// is what pushes the kernel past the ~45-65 GFLOP/s plateau of the tiled
// path on this machine class.
//
// The micro-kernel computes an 8x32 output block per iteration: 8 rows x two
// zmm accumulators = 16 independent FMA chains, with the k-loop unrolled 2x
// (two broadcast/FMA rounds per trip — still *one* chain per accumulator, in
// ascending `p` order, so each output element's accumulation is exactly the
// `fma(a[i,p], b[p,j], acc)` fold of the tiled body and results stay bitwise
// identical to it).

/// Minimum output rows before [`matmul`] switches to the packed micro-kernel
/// (below this, packing `B` costs more than it saves).
#[cfg(target_arch = "x86_64")]
const PACK_MIN_M: usize = 16;
/// Minimum depth for the packed path (the 2x-unrolled FMA loop needs a few
/// iterations to amortise the pack).
#[cfg(target_arch = "x86_64")]
const PACK_MIN_K: usize = 8;
/// Packed micro-tile height (output rows per micro-kernel iteration).
#[cfg(target_arch = "x86_64")]
const MR_512: usize = 8;
/// Packed micro-tile width: two 16-lane zmm accumulators per row.
#[cfg(target_arch = "x86_64")]
const NR_512: usize = 32;

/// Packs the full-width strips of `B` into panel-major storage:
/// `packed[(jp * k + p) * NR_512 + l] = b[p * n + jp * NR_512 + l]`.
/// Trailing columns (`n % NR_512`) are not packed — the micro-kernel handles
/// them with scalar sequential-`k` loops.
#[cfg(target_arch = "x86_64")]
fn pack_b_panels(k: usize, n: usize, n_strips: usize, b: &[f32], packed: &mut [f32]) {
    for jp in 0..n_strips {
        let j = jp * NR_512;
        let panel = &mut packed[jp * k * NR_512..(jp + 1) * k * NR_512];
        for p in 0..k {
            panel[p * NR_512..(p + 1) * NR_512].copy_from_slice(&b[p * n + j..p * n + j + NR_512]);
        }
    }
}

/// The 8x32 micro-kernel over output rows `[i0, i1)` against pre-packed `B`
/// panels. `out_rows` holds exactly rows `[i0, i1)` of the full output.
///
/// # Safety
/// Requires AVX-512F (verified by the caller via `isa()`); `packed` must
/// hold `n_strips` panels of `k * NR_512` floats laid out by
/// [`pack_b_panels`], `a` must hold at least `i1` rows of `k` floats and
/// `out_rows` exactly `i1 - i0` rows of `n` (the release asserts at the top
/// of [`matmul`] plus [`row_chunked`]'s chunking).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
unsafe fn matmul_packed_range_avx512(
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    n_strips: usize,
    packed: &[f32],
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    let tail_j0 = n_strips * NR_512;
    let a_ptr = a.as_ptr();
    let o_ptr = out_rows.as_mut_ptr();
    let mut i = i0;
    while i < i1 {
        let mr = MR_512.min(i1 - i);
        for jp in 0..n_strips {
            let panel = packed.as_ptr().add(jp * k * NR_512);
            let j = jp * NR_512;
            if mr == MR_512 {
                let mut acc_lo = [_mm512_setzero_ps(); MR_512];
                let mut acc_hi = [_mm512_setzero_ps(); MR_512];
                let mut p = 0usize;
                // 2x unrolled: two (broadcast, fma, fma) rounds per trip.
                // Each accumulator still advances strictly in ascending `p`.
                while p + 2 <= k {
                    let b0_lo = _mm512_loadu_ps(panel.add(p * NR_512));
                    let b0_hi = _mm512_loadu_ps(panel.add(p * NR_512 + 16));
                    let b1_lo = _mm512_loadu_ps(panel.add((p + 1) * NR_512));
                    let b1_hi = _mm512_loadu_ps(panel.add((p + 1) * NR_512 + 16));
                    for r in 0..MR_512 {
                        let row = a_ptr.add((i + r) * k + p);
                        let av0 = _mm512_set1_ps(*row);
                        acc_lo[r] = _mm512_fmadd_ps(av0, b0_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av0, b0_hi, acc_hi[r]);
                        let av1 = _mm512_set1_ps(*row.add(1));
                        acc_lo[r] = _mm512_fmadd_ps(av1, b1_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av1, b1_hi, acc_hi[r]);
                    }
                    p += 2;
                }
                if p < k {
                    let b_lo = _mm512_loadu_ps(panel.add(p * NR_512));
                    let b_hi = _mm512_loadu_ps(panel.add(p * NR_512 + 16));
                    for r in 0..MR_512 {
                        let av = _mm512_set1_ps(*a_ptr.add((i + r) * k + p));
                        acc_lo[r] = _mm512_fmadd_ps(av, b_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av, b_hi, acc_hi[r]);
                    }
                }
                for r in 0..MR_512 {
                    let dst = o_ptr.add((i - i0 + r) * n + j);
                    _mm512_storeu_ps(dst, acc_lo[r]);
                    _mm512_storeu_ps(dst.add(16), acc_hi[r]);
                }
            } else {
                // Row remainder: one row at a time, same two chains.
                for r in 0..mr {
                    let mut acc_lo = _mm512_setzero_ps();
                    let mut acc_hi = _mm512_setzero_ps();
                    for p in 0..k {
                        let av = _mm512_set1_ps(*a_ptr.add((i + r) * k + p));
                        acc_lo = _mm512_fmadd_ps(av, _mm512_loadu_ps(panel.add(p * NR_512)), acc_lo);
                        acc_hi = _mm512_fmadd_ps(av, _mm512_loadu_ps(panel.add(p * NR_512 + 16)), acc_hi);
                    }
                    let dst = o_ptr.add((i - i0 + r) * n + j);
                    _mm512_storeu_ps(dst, acc_lo);
                    _mm512_storeu_ps(dst.add(16), acc_hi);
                }
            }
        }
        // Column remainder (`n % 32`): scalar sequential-k FMA per element,
        // the same accumulation fold as every other path.
        for r in 0..mr {
            for j in tail_j0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s = a[(i + r) * k + p].mul_add(b[p * n + j], s);
                }
                out_rows[(i - i0 + r) * n + j] = s;
            }
        }
        i += mr;
    }
}

/// Driver of the packed micro-kernel: packs `B` once on the calling thread
/// (into a thread-local buffer that is reused across calls, so steady-state
/// serving stays allocation-free), then row-chunks the output across the
/// threaded driver exactly like the tiled path.
#[cfg(target_arch = "x86_64")]
fn matmul_packed_avx512(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    use std::cell::RefCell;
    thread_local! {
        static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    let n_strips = n / NR_512;
    let need = n_strips * k * NR_512;
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < need {
            buf.resize(need, 0.0);
        }
        pack_b_panels(k, n, n_strips, b, &mut buf[..need]);
        let packed = &buf[..need];
        row_chunked(out, n, m, m * k * n, |i0, i1, rows| {
            // SAFETY: `matmul` routes here only when `isa()` reports an
            // AVX-512 tier and after its release asserts tied `a`/`b`/`out`
            // to `m/k/n`; `packed` was sized and filled for `n_strips`
            // panels just above; `rows` is rows `[i0, i1)` of `out`.
            unsafe { matmul_packed_range_avx512(i0, i1, k, n, n_strips, packed, a, b, rows) }
        });
    });
}

// ---------------------------------------------------------------------------
// out (k x n) = A^T * B, with A stored (m x k), B stored (m x n)
// ---------------------------------------------------------------------------

/// Reference loop for [`transpose_matmul`] (the seed implementation).
pub fn transpose_matmul_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `out (k x n) = A^T * B` where `A` is stored `(m x k)` and `B` `(m x n)`.
/// Every element of `out` is overwritten; entry contents are ignored (unlike
/// [`transpose_matmul_serial`], which accumulates into a zeroed `out`).
pub fn transpose_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    // Output row `p` is column `p` of `A`, folded over the `m` rows of `A` and
    // `B` in the reference loop's order.
    row_chunked(out, n, k, m * k * n, |p0, p1, rows| {
        dispatch!(FUSE, rows => tile_body::<FUSE>(p0, p1, m, n, |p, i| a[i * k + p], b, rows));
    });
}

// ---------------------------------------------------------------------------
// Row-wise reductions and sampled gather/scatter
// ---------------------------------------------------------------------------

/// Row-wise dot products of two `(rows x cols)` matrices into a `rows`-long
/// column.
pub fn rowwise_dot(rows: usize, cols: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(b.len(), rows * cols);
    debug_assert_eq!(out.len(), rows);
    for r in 0..rows {
        let mut acc = 0.0f32;
        for (&x, &y) in a[r * cols..(r + 1) * cols].iter().zip(&b[r * cols..(r + 1) * cols]) {
            acc += x * y;
        }
        out[r] = acc;
    }
}

/// Row-wise squared Euclidean distances into a `rows`-long column.
pub fn rowwise_sq_dist(rows: usize, cols: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(b.len(), rows * cols);
    debug_assert_eq!(out.len(), rows);
    for r in 0..rows {
        let mut acc = 0.0f32;
        for (&x, &y) in a[r * cols..(r + 1) * cols].iter().zip(&b[r * cols..(r + 1) * cols]) {
            let d = x - y;
            acc += d * d;
        }
        out[r] = acc;
    }
}

/// Scales each row of `src` by `factor * row_scales[r]`:
/// `out[r][c] (+)= factor * row_scales[r] * src[r][c]`. This is the backward
/// rule of both row-wise reductions above; `accumulate` selects whether the
/// result is added into `out` (gradient accumulation) or overwrites it.
pub fn scale_rows(
    rows: usize,
    cols: usize,
    src: &[f32],
    row_scales: &[f32],
    factor: f32,
    accumulate: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(row_scales.len(), rows);
    debug_assert_eq!(out.len(), rows * cols);
    for r in 0..rows {
        let g = factor * row_scales[r];
        let out_row = &mut out[r * cols..(r + 1) * cols];
        let src_row = &src[r * cols..(r + 1) * cols];
        if accumulate {
            for (o, &v) in out_row.iter_mut().zip(src_row) {
                *o += g * v;
            }
        } else {
            for (o, &v) in out_row.iter_mut().zip(src_row) {
                *o = g * v;
            }
        }
    }
}

#[inline(always)]
pub(super) fn gather_rowwise_dot_body<const FUSE: bool>(
    cols: usize,
    a: &[f32],
    b: &[f32],
    a_idx: &[usize],
    b_idx: &[usize],
    out: &mut [f32],
) {
    for ((o, &ia), &ib) in out.iter_mut().zip(a_idx.iter()).zip(b_idx.iter()) {
        let ra = &a[ia * cols..(ia + 1) * cols];
        let rb = &b[ib * cols..(ib + 1) * cols];
        let mut acc = 0.0f32;
        for (&x, &y) in ra.iter().zip(rb.iter()) {
            if FUSE {
                acc = x.mul_add(y, acc);
            } else {
                acc += x * y;
            }
        }
        *o = acc;
    }
}

/// Fused sampled inner products: `out[k] = <a[a_idx[k]], b[b_idx[k]]>` over
/// rows of two `(_ x cols)` matrices. This is `gather_rows` + `rowwise_dot`
/// without materialising the two gathered `batch x cols` matrices — the hot
/// scoring pattern of every sampled-interaction loss. Indices must be in
/// bounds (checked by the tape before dispatch).
pub fn gather_rowwise_dot(cols: usize, a: &[f32], b: &[f32], a_idx: &[usize], b_idx: &[usize], out: &mut [f32]) {
    debug_assert_eq!(a_idx.len(), b_idx.len());
    debug_assert_eq!(out.len(), a_idx.len());
    dispatch!(FUSE, out => gather_rowwise_dot_body::<FUSE>(cols, a, b, a_idx, b_idx, out))
}

#[inline(always)]
pub(super) fn scatter_scaled_rows_body<const FUSE: bool>(
    cols: usize,
    g: &[f32],
    src: &[f32],
    src_idx: &[usize],
    dst: &mut [f32],
    dst_idx: &[usize],
) {
    for ((&gv, &is), &id) in g.iter().zip(src_idx.iter()).zip(dst_idx.iter()) {
        axpy_body::<FUSE>(
            gv,
            &mut dst[id * cols..(id + 1) * cols],
            &src[is * cols..(is + 1) * cols],
        );
    }
}

/// Backward of [`gather_rowwise_dot`] for one operand:
/// `dst[dst_idx[k]] += g[k] * src[src_idx[k]]` — the gradient rows are
/// scattered straight into the destination table, so no intermediate
/// `batch x cols` gradient matrix ever exists.
pub fn scatter_scaled_rows(cols: usize, g: &[f32], src: &[f32], src_idx: &[usize], dst: &mut [f32], dst_idx: &[usize]) {
    debug_assert_eq!(g.len(), src_idx.len());
    debug_assert_eq!(g.len(), dst_idx.len());
    dispatch!(FUSE, dst => scatter_scaled_rows_body::<FUSE>(cols, g, src, src_idx, dst, dst_idx))
}
