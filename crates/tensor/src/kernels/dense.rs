//! Dense products (`matmul`, `transpose_matmul`), row-wise reductions and the
//! sampled gather/scatter pair.
//!
//! The two products share two bodies, and which one runs is decided per call
//! from the process's ISA tier and the shape — never by a knob:
//!
//! | tier | [`matmul`] `A * B` | [`transpose_matmul`] `A^T * B` |
//! |------|--------------------|--------------------------------|
//! | AVX-512 | the 8x32 micro-kernel over a packed `B` from 16 rows, 32 columns and depth 8 up; [`tile_body`] below | the 8x32 micro-kernel on every shape, `B` read where it is |
//! | AVX2+FMA, portable | [`tile_body`] (4x16) | [`tile_body`] (4x16) |
//!
//! `transpose_matmul`'s depth is the long dimension (`m`, the batch or the
//! entity count), so on every tier it walks it in 64-row blocks that stay
//! cache-resident while each output tile consumes them; `matmul`'s depth is a
//! layer width and runs in one piece.
//!
//! Whatever the route, every output element is one accumulator that starts at
//! zero and takes its `depth` products in ascending order, one `fma` each on
//! the SIMD tiers (multiply, then add, on the portable one). Tiling, packing,
//! depth blocking, lane masks and thread chunks only decide *which* elements
//! share a register or a call; none of them reorders or splits a sum. So the
//! routes are **bitwise equal** to each other and to the plain fold at the
//! same tier — which is what lets a gathered-row product of the delta
//! re-encode stand in for rows of a full-table one, and what keeps a training
//! trajectory (and `cold_mrr`) fixed per seed when a route is replaced.

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
/// every output element folds `p = d0..d1` in ascending order — from zero
/// when `d0 == 0`, otherwise from what `out_rows` holds (the partial sum of
/// `0..d0`: an `f32` store and reload is exact, so a depth cut into several
/// calls is still the one fold). `FUSE` selects `f32::mul_add` (only
/// profitable when the target has a hardware FMA — a libm call otherwise).
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `r` is the tile row of `acc` *and* of `A'`
pub(super) fn tile_body<const FUSE: bool>(
    r0: usize,
    r1: usize,
    (d0, d1): (usize, usize),
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
                if d0 > 0 {
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let row0 = (i - r0 + r) * n + j;
                        acc_row.copy_from_slice(&out_rows[row0..row0 + NR]);
                    }
                }
                for p in d0..d1 {
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
                        let at = (i - r0 + r) * n + j + l;
                        let mut s = if d0 > 0 { out_rows[at] } else { 0.0 };
                        for p in d0..d1 {
                            let (av, bv) = (a_at(i + r, p), b[p * n + j + l]);
                            if FUSE {
                                s = av.mul_add(bv, s);
                            } else {
                                s += av * bv;
                            }
                        }
                        out_rows[at] = s;
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
/// On AVX-512 machines, problems from [`PACK_MIN_M`] rows, one full strip of
/// columns and depth `PACK_MIN_K` up route through the hand-packed
/// micro-kernel ([`matmul_packed_avx512`]); everything else runs the
/// register-tiled body. Both paths accumulate each output element with
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
        dispatch!(FUSE, rows => tile_body::<FUSE>(i0, i1, (0, k), n, |i, p| a[i * k + p], b, rows));
    });
}

// ---------------------------------------------------------------------------
// The AVX-512 micro-kernel behind `matmul` and `transpose_matmul`
// ---------------------------------------------------------------------------
//
// The register-tiled body above keeps `MR x NR = 4 x 16` accumulators — four
// dependent FMA chains on a machine whose two 512-bit FMA ports need eight in
// flight to stay busy — and reads `B` straight from the source matrix, so
// every tile re-streams `B` rows through L1 with an `n`-element stride.
//
// The micro-kernel computes an 8x32 output block per iteration: 8 rows x two
// zmm accumulators = 16 independent FMA chains, with the depth loop unrolled
// 2x (two broadcast/FMA rounds per trip — still *one* chain per accumulator,
// in ascending depth order, so each output element's accumulation is exactly
// the `fma(a'[i,d], b[d,j], acc)` fold of the tiled body and results stay
// bitwise identical to it). The `n % 32` columns left of the last strip run
// through the same code under lane masks, not through a scalar loop.
//
// It is generic over *where* `A'[row][d]` and the rows of a 32-column `B`
// strip live (`Operands`), which is all that separates its two callers:
//
// * `matmul` (`A' = A`: rows `k` apart, depth contiguous) packs `B` once into
//   contiguous strip-major panels (panel `jp` holds rows `p = 0..k` of columns
//   `[32 jp, 32 jp + 32)` back to back), which turns the inner loop into two
//   perfectly sequential streams — `A` broadcast from L1, packed `B` from
//   L1/L2 — and runs the whole depth `0..k` in one call;
// * `transpose_matmul` (`A' = A^T`: the eight `A'` values of a depth step are
//   eight neighbours in one row of `A`, one cache line) reads `B` where it is
//   — its depth is the long dimension, so there is nothing to amortise a pack
//   over — and walks the depth `0..m` in blocks of `DEPTH_BLOCK` rows, every
//   call after the first resuming from the partial sums in `out`.

/// Minimum output rows before [`matmul`] switches to the packed micro-kernel
/// (below this, packing `B` costs more than it saves).
#[cfg(target_arch = "x86_64")]
const PACK_MIN_M: usize = 16;
/// Minimum depth for the packed path (the 2x-unrolled FMA loop needs a few
/// iterations to amortise the pack).
#[cfg(target_arch = "x86_64")]
const PACK_MIN_K: usize = 8;
/// Micro-tile height (output rows per micro-kernel iteration).
#[cfg(target_arch = "x86_64")]
const MR_512: usize = 8;
/// Micro-tile width: two 16-lane zmm accumulators per row.
#[cfg(target_arch = "x86_64")]
const NR_512: usize = 32;
/// Rows of `A` and `B` (the depth of `A^T * B`) that [`transpose_matmul`]
/// feeds to every tile of the output before it moves on, so that block of
/// both operands is read from memory once and from cache by every tile after
/// the first. Without it each of the `k / 8 * n / 32` micro-tiles (`k / 4 *
/// n / 16` register tiles below AVX-512) streams all `m` rows of `A` and `B`
/// again.
///
/// Chosen by measurement (Ice Lake Xeon 2.6 GHz, 1 thread, GFLOP/s at
/// `(m, k, n)` = (5 009, 192, 64) / (5 009, 64, 64) / (1 024, 128, 128)).
/// AVX-512 micro-kernel: 16 rows 70 / 74 / 74, 32 rows 85 / 85 / 89,
/// **64 rows 95 / 91 / 90**, 128 rows 87 / 87 / 81, 256 rows 81 / 81 / 83,
/// unblocked 43 / 49 / 78 — against 19 / 20 / 38 for the unblocked 4x16
/// tiled body it replaced on this tier and 100 / 107 / 100 for the packed
/// `matmul` at the same shapes; at 64 rows the block of `A` a pass touches
/// (`64 x k` floats, 48 KiB at `k = 192`) is the size of L1d, and the
/// accumulator reload between blocks is 16 loads and 16 stores per 1 024
/// FMAs. The tiled body is flat from 32 to 128 rows: on AVX2 unblocked
/// 21 / 21 / 50, 64 rows 60 / 58 / 62, 256 rows 54 / 54 / 54; portable
/// unblocked 10 / 10 / 22, 64 rows 24 / 24 / 24. (Depth-blocked *safe* tiles
/// do not replace the micro-kernel on AVX-512: 4x16 reaches 61 at the first
/// shape, 8x16 33, and 4x32 or 8x32 — 8 or 16 zmm of accumulator array —
/// spill to 5.)
const DEPTH_BLOCK: usize = 64;

/// Packs the full-width strips of `B` into panel-major storage:
/// `packed[(jp * k + p) * NR_512 + l] = b[p * n + jp * NR_512 + l]`.
/// Trailing columns (`n % NR_512`) are not packed — the micro-kernel reads
/// them from `b` itself.
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

/// Where the micro-kernel finds the operands of `out = A' * B`. `a` holds
/// `A'` with leading dimension `lda`, either as it is (`A'[row][d]` at
/// `a[row * lda + d]`) or transposed (`a[d * lda + row]`); the kernel's `AT`
/// parameter says which — at compile time, because with both strides in
/// registers the packed `matmul` measured 9 % slower (100 -> 91 GFLOP/s at
/// 5 009 x 192 x 64). Depth row `d` of the full-width strip `jp` (columns
/// `[32 jp, 32 jp + 32)` of `B`) starts at
/// `strips[jp * strip_stride + d * strip_depth]`; the trailing `n % 32`
/// columns are always read from `b`, which is `B` as stored (`depth x n`).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    lda: usize,
    strips: &'a [f32],
    strip_stride: usize,
    strip_depth: usize,
    b: &'a [f32],
}

/// The 8x32 micro-kernel over output rows `[i0, i1)` and depth `[d0, d1)`.
/// `out_rows` holds exactly rows `[i0, i1)` of the full `_ x n` output. As in
/// [`tile_body`], the accumulators start from zero when `d0 == 0` (entry
/// contents are ignored) and from the contents of `out_rows` otherwise, so
/// cutting the depth into several calls leaves every element's fold what one
/// call computes.
///
/// # Safety
/// Requires AVX-512F (verified by the caller via `isa()`). For every
/// `row < i1`, `d < d1` and full strip `jp < n / 32`, `ops` must address
/// `A'[row][d]` inside `ops.a` and 32 floats of strip row `d` inside
/// `ops.strips`; `ops.b` must hold `d1` rows of `n` floats and `out_rows`
/// exactly `i1 - i0` rows of `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
unsafe fn micro_kernel_avx512<const AT: bool>(
    (i0, i1): (usize, usize),
    (d0, d1): (usize, usize),
    n: usize,
    ops: Operands<'_>,
    out_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    let resume = d0 > 0;
    let a_ptr = ops.a.as_ptr();
    // Strides of `A'`: between rows, between depth steps.
    let (ar, ad) = if AT { (1, ops.lda) } else { (ops.lda, 1) };
    let o_ptr = out_rows.as_mut_ptr();
    let mut i = i0;
    while i < i1 {
        let mr = MR_512.min(i1 - i);
        let mut j = 0usize;
        while j < n {
            // A strip is 32 columns, the last one the `n % 32` that are left:
            // its lane masks keep loads and stores inside the row.
            let w = NR_512.min(n - j);
            let lanes = u32::MAX >> (NR_512 - w);
            let (lo, hi) = (lanes as __mmask16, (lanes >> 16) as __mmask16);
            let (strip, sd) = if w == NR_512 {
                (ops.strips.as_ptr().add(j / NR_512 * ops.strip_stride), ops.strip_depth)
            } else {
                (ops.b.as_ptr().add(j), n)
            };
            let dst = o_ptr.add((i - i0) * n + j);
            if mr == MR_512 {
                let mut acc_lo = [_mm512_setzero_ps(); MR_512];
                let mut acc_hi = [_mm512_setzero_ps(); MR_512];
                if resume {
                    for r in 0..MR_512 {
                        acc_lo[r] = _mm512_maskz_loadu_ps(lo, dst.add(r * n));
                        acc_hi[r] = _mm512_maskz_loadu_ps(hi, dst.add(r * n + 16));
                    }
                }
                let mut d = d0;
                // 2x unrolled: two (broadcast, fma, fma) rounds per trip.
                // Each accumulator still advances strictly in ascending `d`.
                while d + 2 <= d1 {
                    let b0_lo = _mm512_maskz_loadu_ps(lo, strip.add(d * sd));
                    let b0_hi = _mm512_maskz_loadu_ps(hi, strip.add(d * sd + 16));
                    let b1_lo = _mm512_maskz_loadu_ps(lo, strip.add((d + 1) * sd));
                    let b1_hi = _mm512_maskz_loadu_ps(hi, strip.add((d + 1) * sd + 16));
                    for r in 0..MR_512 {
                        let at = a_ptr.add((i + r) * ar + d * ad);
                        let av0 = _mm512_set1_ps(*at);
                        acc_lo[r] = _mm512_fmadd_ps(av0, b0_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av0, b0_hi, acc_hi[r]);
                        let av1 = _mm512_set1_ps(*at.add(ad));
                        acc_lo[r] = _mm512_fmadd_ps(av1, b1_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av1, b1_hi, acc_hi[r]);
                    }
                    d += 2;
                }
                if d < d1 {
                    let b_lo = _mm512_maskz_loadu_ps(lo, strip.add(d * sd));
                    let b_hi = _mm512_maskz_loadu_ps(hi, strip.add(d * sd + 16));
                    for r in 0..MR_512 {
                        let av = _mm512_set1_ps(*a_ptr.add((i + r) * ar + d * ad));
                        acc_lo[r] = _mm512_fmadd_ps(av, b_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av, b_hi, acc_hi[r]);
                    }
                }
                for r in 0..MR_512 {
                    _mm512_mask_storeu_ps(dst.add(r * n), lo, acc_lo[r]);
                    _mm512_mask_storeu_ps(dst.add(r * n + 16), hi, acc_hi[r]);
                }
            } else {
                // Row remainder: one row at a time, same two chains.
                for r in 0..mr {
                    let dst = dst.add(r * n);
                    let (mut acc_lo, mut acc_hi) = (_mm512_setzero_ps(), _mm512_setzero_ps());
                    if resume {
                        acc_lo = _mm512_maskz_loadu_ps(lo, dst);
                        acc_hi = _mm512_maskz_loadu_ps(hi, dst.add(16));
                    }
                    for d in d0..d1 {
                        let av = _mm512_set1_ps(*a_ptr.add((i + r) * ar + d * ad));
                        acc_lo = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(lo, strip.add(d * sd)), acc_lo);
                        acc_hi = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(hi, strip.add(d * sd + 16)), acc_hi);
                    }
                    _mm512_mask_storeu_ps(dst, lo, acc_lo);
                    _mm512_mask_storeu_ps(dst.add(16), hi, acc_hi);
                }
            }
            j += w;
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
        let ops = Operands {
            a,
            lda: k,
            strips: &buf[..need],
            strip_stride: k * NR_512,
            strip_depth: NR_512,
            b,
        };
        row_chunked(out, n, m, m * k * n, |i0, i1, rows| {
            // SAFETY: `matmul` routes here only when `isa()` reports an
            // AVX-512 tier and after its release asserts tied `a`/`b`/`out`
            // to `m/k/n`; `ops.strips` was sized and filled for `n_strips`
            // panels of `k` rows just above; `rows` is rows `[i0, i1)` of
            // `out`.
            unsafe { micro_kernel_avx512::<false>((i0, i1), (0, k), n, ops, rows) }
        });
    });
}

// ---------------------------------------------------------------------------
// out (k x n) = A^T * B, with A stored (m x k), B stored (m x n)
// ---------------------------------------------------------------------------

/// Reference loop for [`transpose_matmul`] (the seed implementation).
#[cfg(test)]
pub(crate) fn transpose_matmul_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
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

/// Output rows `[p0, p1)` of [`transpose_matmul`] on tier `isa`, into `rows`
/// (exactly those rows of `out`).
///
/// # Safety
/// The CPU must support `isa`, and `a` / `b` must be `m x k` / `m x n` with
/// `p1 <= k` and `rows` holding `p1 - p0` rows of `n` (the release asserts
/// of [`transpose_matmul`] plus [`row_chunked`]'s chunking).
pub(super) unsafe fn transpose_matmul_rows_on(
    isa: Isa,
    (p0, p1): (usize, usize),
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    rows: &mut [f32],
) {
    // At least one block, so `m == 0` still writes its zeros.
    let mut d0 = 0;
    loop {
        let d1 = (d0 + DEPTH_BLOCK).min(m);
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx512Vnni => {
                let ops = Operands {
                    a,
                    lda: k,
                    strips: b,
                    strip_stride: NR_512,
                    strip_depth: n,
                    b,
                };
                micro_kernel_avx512::<true>((p0, p1), (d0, d1), n, ops, rows);
            }
            // Output row `p` is column `p` of `A`, folded over the `m` rows
            // of `A` and `B` in the reference loop's order.
            _ => {
                dispatch!(@tier isa; FUSE, rows => tile_body::<FUSE>(p0, p1, (d0, d1), n, |p, i| a[i * k + p], b, rows))
            }
        }
        d0 = d1;
        if d0 == m {
            return;
        }
    }
}

/// `out (k x n) = A^T * B` where `A` is stored `(m x k)` and `B` `(m x n)`:
/// the weight gradient `dW = X^T G` of every dense layer. Every element of
/// `out` is overwritten, with zeros when `m == 0`; entry contents are ignored
/// (unlike the test oracle `transpose_matmul_serial`, which accumulates into
/// a zeroed `out`).
///
/// Every tier walks the depth `m` in blocks of `DEPTH_BLOCK` (64) rows. On the
/// AVX-512 tiers each block runs the 8x32 micro-kernel `matmul` packs `B`
/// for, here over `B` in place, on every shape (94 GFLOP/s at the
/// 5 009 x 192 x 64 head gradient of a MusicMovie/Full step, where the
/// unblocked tiled body ran 19); the AVX2 and portable tiers run
/// `tile_body` with a column-strided read of `A` (60 against 21, 24
/// against 10). Output element `(p, j)` is `fma(a[i, p], b[i, j], acc)` over
/// `i = 0..m` ascending on every route — bitwise what the plain fold
/// computes at the same tier, because a block boundary is an exact store and
/// reload of `acc` — and the threaded driver splits output rows, so neither
/// the tier's route nor the thread count changes a bit.
///
/// # Panics
/// If a slice length does not match the `m/k/n` geometry (release checks, as
/// in [`matmul`]: the micro-kernel reads and writes through raw pointers).
pub fn transpose_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), dims(m, k), "A must be m x k");
    assert_eq!(b.len(), dims(m, n), "B must be m x n");
    assert_eq!(out.len(), dims(k, n), "out must be k x n");
    if k == 0 || n == 0 {
        return;
    }
    row_chunked(out, n, k, m * k * n, |p0, p1, rows| {
        // SAFETY: `isa()` is a tier `detect_isa()` verified, the asserts
        // above tied `a`/`b`/`out` to `m/k/n`, and `rows` is rows
        // `[p0, p1)` of `out`.
        unsafe { transpose_matmul_rows_on(isa(), (p0, p1), m, k, n, a, b, rows) }
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
pub(crate) fn scale_rows(
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

/// Pairs per block of [`gather_rowwise_dot_body`].
pub(super) const DOT_PAIRS: usize = 8;

/// `out[p] = <a[ia[p]], b[ib[p]]>` for `P` pairs at once: `P` independent
/// accumulators, each folded over its pair's columns in ascending order.
#[inline(always)]
fn dot_pairs<const FUSE: bool, const P: usize>(
    cols: usize,
    a: &[f32],
    b: &[f32],
    ia: &[usize],
    ib: &[usize],
    out: &mut [f32],
) {
    let ra: [&[f32]; P] = std::array::from_fn(|p| &a[ia[p] * cols..][..cols]);
    let rb: [&[f32]; P] = std::array::from_fn(|p| &b[ib[p] * cols..][..cols]);
    let mut acc = [0.0f32; P];
    for c in 0..cols {
        for p in 0..P {
            let (x, y) = (ra[p][c], rb[p][c]);
            acc[p] = if FUSE { x.mul_add(y, acc[p]) } else { acc[p] + x * y };
        }
    }
    out[..P].copy_from_slice(&acc);
}

/// One pair's dot product is a serial chain of `cols` dependent
/// multiply-adds, so a pair at a time runs at the latency of that chain.
/// Blocks of [`DOT_PAIRS`] pairs keep as many chains in flight; each is
/// still `0 + x_0 y_0 + x_1 y_1 + ..` in ascending column order, so the
/// result is bitwise the one-pair loop's. The last `len % DOT_PAIRS` pairs
/// run one at a time.
#[inline(always)]
pub(super) fn gather_rowwise_dot_body<const FUSE: bool>(
    cols: usize,
    a: &[f32],
    b: &[f32],
    a_idx: &[usize],
    b_idx: &[usize],
    out: &mut [f32],
) {
    let blocked = out.len() / DOT_PAIRS * DOT_PAIRS;
    for k in (0..blocked).step_by(DOT_PAIRS) {
        dot_pairs::<FUSE, DOT_PAIRS>(cols, a, b, &a_idx[k..], &b_idx[k..], &mut out[k..]);
    }
    for k in blocked..out.len() {
        dot_pairs::<FUSE, 1>(cols, a, b, &a_idx[k..], &b_idx[k..], &mut out[k..]);
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
pub(crate) fn scatter_scaled_rows(
    cols: usize,
    g: &[f32],
    src: &[f32],
    src_idx: &[usize],
    dst: &mut [f32],
    dst_idx: &[usize],
) {
    debug_assert_eq!(g.len(), src_idx.len());
    debug_assert_eq!(g.len(), dst_idx.len());
    dispatch!(FUSE, dst => scatter_scaled_rows_body::<FUSE>(cols, g, src, src_idx, dst, dst_idx))
}
