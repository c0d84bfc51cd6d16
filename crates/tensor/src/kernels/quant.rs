//! Int8 quantised candidate scoring (the quantised serve hot path)
//!
//! Frozen embedding tables quantise to one i8 per element with a per-row f32
//! scale (`value ~= scale * q`), cutting table traffic ~4x. The user vector
//! is quantised per request into *offset-binary* u8 (`stored = q + 128`), the
//! operand layout of AVX-512 VNNI's `vpdpbusd` (u8 x i8 dot-accumulate). The
//! kernels below compute the integer dot
//!
//!   dot = sum_p (user[p] - 128) * row[p]          (exact, i32)
//!
//! three ways — scalar, AVX2 widening `pmaddwd`, and VNNI `vpdpbusd` with the
//! `128 * sum(row)` bias folded out via the table's precomputed row sums —
//! and all three produce the *same* i32 (integer addition is associative and
//! the value ranges rule out overflow/saturation), so after the shared f32
//! combine the whole kernel is bitwise identical across ISA tiers: a stronger
//! determinism story than the f32 scorers, pinned by exact-equality tests.
//!
//! Score reconstruction from the integer dot:
//!   dot product:   su * sr * dot
//!   neg-sq-dist:  -(su^2 * |u|^2 - 2 su sr dot + sr^2 * |r|^2)
//! with |u|^2, |r|^2 the integer self-dots carried next to the tables.

use super::isa::*;
use super::scoring::{CandidateRows, RowRange};

/// Borrowed view of a quantised embedding table — the int8 operand of the
/// quantised scoring kernels (built by
/// [`QuantizedTable::view`](crate::quant::QuantizedTable::view)).
#[derive(Debug, Clone, Copy)]
pub struct QuantView<'a> {
    /// Embedding width (bytes per row).
    pub cols: usize,
    /// Row-major i8 codes, `rows * cols` long.
    pub data: &'a [i8],
    /// Per-row dequantisation scale, `rows` long.
    pub scales: &'a [f32],
    /// Per-row `sum(q)` (i32), used to fold the u8 offset bias out of the
    /// VNNI dot.
    pub row_sums: &'a [i32],
    /// Per-row `sum(q^2)` (i32), used by the negative-distance score.
    pub row_norms: &'a [i32],
}

/// A per-request quantised user vector in offset-binary u8 (`stored =
/// q + 128`), with its scale and integer self-dot `sum(q^2)`.
#[derive(Debug, Clone, Copy)]
pub struct QuantUser<'a> {
    /// Offset-binary codes, `cols` long.
    pub q: &'a [u8],
    /// Dequantisation scale of the user vector.
    pub scale: f32,
    /// Integer self-dot `sum(q^2)` of the (un-offset) codes.
    pub norm: i32,
}

/// Shared scalar reconstruction of a candidate's f32 score from its exact
/// integer dot. Single implementation for every ISA body, so the quantised
/// kernel's output is bitwise identical across dispatch tiers.
#[inline(always)]
fn quant_combine<const DOT: bool>(su: f32, sr: f32, dot: i32, u_norm: i32, r_norm: i32) -> f32 {
    if DOT {
        (su * sr) * dot as f32
    } else {
        let uu = (su * su) * u_norm as f32;
        let rr = (sr * sr) * r_norm as f32;
        let cross = 2.0 * (su * sr) * dot as f32;
        -(uu - cross + rr)
    }
}

/// Reference loop for [`score_candidates_quant_dot`]: plain i32 accumulation
/// in index order. The SIMD bodies must match it *exactly* (integer
/// equality of the dot, bitwise equality of the combined score).
pub fn score_candidates_quant_dot_serial(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32], out: &mut [f32]) {
    score_candidates_quant_body::<true, _>(table, user, items, out)
}

/// Reference loop for [`score_rows_quant_neg_sq_dist`] on a list of ids.
pub fn score_candidates_quant_neg_sq_dist_serial(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    score_candidates_quant_body::<false, _>(table, user, items, out)
}

/// Portable body: scalar i32 multiply-accumulate per candidate (ids or a
/// row range: every int8 body is generic over [`CandidateRows`]).
#[inline(always)]
pub(super) fn score_candidates_quant_body<const DOT: bool, R: CandidateRows>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    rows: R,
    out: &mut [f32],
) {
    let cols = table.cols;
    for (c, o) in out.iter_mut().enumerate().take(rows.len()) {
        let it = rows.row(c);
        let row = &table.data[it * cols..(it + 1) * cols];
        let mut dot = 0i32;
        for (&uq, &rq) in user.q.iter().zip(row.iter()) {
            dot += (uq as i32 - 128) * rq as i32;
        }
        *o = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
    }
}

/// AVX2 widening body: 16 bytes per step through `cvtepu8/cvtepi8` to i16,
/// subtract the 128 offset in 16-bit lanes, then `pmaddwd` pairs into i32.
/// No saturation is possible (|products| <= 127^2, pair sums < 2^15.5), so
/// the accumulated dot is exact.
///
/// # Safety
/// Requires AVX2; argument geometry validated by [`validate_quant_args`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_candidates_quant_avx2<const DOT: bool, R: CandidateRows>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    rows: R,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const STEP: usize = 16;
    let cols = table.cols;
    let whole = cols - cols % STEP;
    let u_ptr = user.q.as_ptr();
    let t_ptr = table.data.as_ptr();
    let offset = _mm256_set1_epi16(128);
    for (c, o) in out.iter_mut().enumerate().take(rows.len()) {
        let it = rows.row(c);
        let r_ptr = t_ptr.add(it * cols);
        let mut acc = _mm256_setzero_si256();
        let mut p = 0usize;
        while p < whole {
            let u16x = _mm256_sub_epi16(
                _mm256_cvtepu8_epi16(_mm_loadu_si128(u_ptr.add(p) as *const __m128i)),
                offset,
            );
            let r16x = _mm256_cvtepi8_epi16(_mm_loadu_si128(r_ptr.add(p) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(u16x, r16x));
            p += STEP;
        }
        let mut dot = hsum_epi32(acc);
        for q in whole..cols {
            dot += (*u_ptr.add(q) as i32 - 128) * *r_ptr.add(q) as i32;
        }
        *o = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
    }
}

/// Horizontal sum of eight i32 lanes (exact — integer adds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: std::arch::x86_64::__m256i) -> i32 {
    use std::arch::x86_64::*;
    let quad = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let pair = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0b0100_1110));
    _mm_cvtsi128_si32(_mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0b0101_0101)))
}

/// AVX-512 VNNI body: `vpdpbusd` fuses the u8 x i8 multiply and the i32
/// accumulate, 32 bytes per instruction. The raw product is the *biased*
/// dot `sum(stored_u * row) = dot + 128 * sum(row)`; the precomputed row
/// sum folds the bias back out exactly. Candidates run four at a time so
/// each 32-byte user load feeds four accumulation chains (mirroring the f32
/// scorer's block scheme).
///
/// Width 32 — the serving dim — gets a dedicated fast path for runs of
/// *consecutive* candidate rows (a [`RowRange`], the serving scan's shape): one
/// 512-bit row load covers two adjacent 32-byte rows, so eight candidates
/// cost four loads and four `vpdpbusd`s, and the per-candidate epilogue
/// (bias fold + score reconstruction) runs 8-wide on contiguous metadata.
/// The vector epilogue applies the *same* IEEE operations in the same
/// order as [`quant_combine`], lane by lane, so the fast path stays
/// bitwise identical to the scalar reference.
///
/// # Safety
/// Requires AVX-512VNNI/VL; argument geometry validated by
/// [`validate_quant_args`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512vnni,avx2,fma")]
unsafe fn score_candidates_quant_vnni<const DOT: bool, R: CandidateRows>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    rows: R,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const STEP: usize = 32;
    const CAND_BLOCK: usize = 4;
    let cols = table.cols;
    let whole = cols - cols % STEP;
    let u_ptr = user.q.as_ptr();
    let t_ptr = table.data.as_ptr();
    let n = rows.len();

    let mut c = 0usize;
    if cols == 32 {
        let u256 = _mm256_loadu_si256(u_ptr as *const __m256i);
        let u512 = _mm512_inserti64x4(_mm512_castsi256_si512(u256), u256, 1);
        let zero = _mm512_setzero_si512();
        let su = _mm256_set1_ps(user.scale);
        let uu = _mm256_set1_ps((user.scale * user.scale) * user.norm as f32);
        let two = _mm256_set1_ps(2.0);
        let sign = _mm256_set1_ps(-0.0);
        while c + 8 <= n && (1..8).all(|b| rows.row(c + b) == rows.row(c) + b) {
            let it0 = rows.row(c);
            let base = t_ptr.add(it0 * 32);
            // Four 64-byte loads, each one covering candidate rows
            // (it0+2b, it0+2b+1); the user vector sits in both zmm halves,
            // so one `vpdpbusd` accumulates both rows' lane partials.
            let a0 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base as *const __m512i));
            let a1 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base.add(64) as *const __m512i));
            let a2 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base.add(128) as *const __m512i));
            let a3 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base.add(192) as *const __m512i));
            // hadd tree over the eight 8-lane halves -> [s0..s7] in id
            // order (exact — integer adds only).
            let lo = _mm256_hadd_epi32(
                _mm256_hadd_epi32(_mm512_castsi512_si256(a0), _mm512_extracti64x4_epi64(a0, 1)),
                _mm256_hadd_epi32(_mm512_castsi512_si256(a1), _mm512_extracti64x4_epi64(a1, 1)),
            );
            let hi = _mm256_hadd_epi32(
                _mm256_hadd_epi32(_mm512_castsi512_si256(a2), _mm512_extracti64x4_epi64(a2, 1)),
                _mm256_hadd_epi32(_mm512_castsi512_si256(a3), _mm512_extracti64x4_epi64(a3, 1)),
            );
            let four_lo = _mm_add_epi32(_mm256_castsi256_si128(lo), _mm256_extracti128_si256(lo, 1));
            let four_hi = _mm_add_epi32(_mm256_castsi256_si128(hi), _mm256_extracti128_si256(hi, 1));
            let biased = _mm256_set_m128i(four_hi, four_lo);
            // Bias fold: dot = biased - 128 * row_sum, exact in i32.
            let row_sums = _mm256_loadu_si256(table.row_sums.as_ptr().add(it0) as *const __m256i);
            let dot = _mm256_cvtepi32_ps(_mm256_sub_epi32(biased, _mm256_slli_epi32(row_sums, 7)));
            let scales = _mm256_loadu_ps(table.scales.as_ptr().add(it0));
            // Lane-for-lane the same IEEE multiply/add/negate sequence as
            // `quant_combine` — association preserved, so bitwise identical.
            let su_sr = _mm256_mul_ps(su, scales);
            let scores = if DOT {
                _mm256_mul_ps(su_sr, dot)
            } else {
                let norms = _mm256_loadu_si256(table.row_norms.as_ptr().add(it0) as *const __m256i);
                let rr = _mm256_mul_ps(_mm256_mul_ps(scales, scales), _mm256_cvtepi32_ps(norms));
                let cross = _mm256_mul_ps(_mm256_mul_ps(two, su_sr), dot);
                _mm256_xor_ps(_mm256_add_ps(_mm256_sub_ps(uu, cross), rr), sign)
            };
            _mm256_storeu_ps(out.as_mut_ptr().add(c), scores);
            c += 8;
        }
    }
    while c + CAND_BLOCK <= n {
        let block: [*const i8; CAND_BLOCK] = std::array::from_fn(|b| t_ptr.add(rows.row(c + b) * cols));
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        let mut p = 0usize;
        while p < whole {
            let u = _mm256_loadu_si256(u_ptr.add(p) as *const __m256i);
            a0 = _mm256_dpbusd_epi32(a0, u, _mm256_loadu_si256(block[0].add(p) as *const __m256i));
            a1 = _mm256_dpbusd_epi32(a1, u, _mm256_loadu_si256(block[1].add(p) as *const __m256i));
            a2 = _mm256_dpbusd_epi32(a2, u, _mm256_loadu_si256(block[2].add(p) as *const __m256i));
            a3 = _mm256_dpbusd_epi32(a3, u, _mm256_loadu_si256(block[3].add(p) as *const __m256i));
            p += STEP;
        }
        // hadd tree: collapses the four 8-lane accumulators into one
        // `__m128i` holding [s0, s1, s2, s3] (exact — integer adds).
        let t0 = _mm256_hadd_epi32(a0, a1);
        let t1 = _mm256_hadd_epi32(a2, a3);
        let t2 = _mm256_hadd_epi32(t0, t1);
        let sums = _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1));
        let mut four = [0i32; CAND_BLOCK];
        _mm_storeu_si128(four.as_mut_ptr() as *mut __m128i, sums);
        for (b, &row) in block.iter().enumerate() {
            let it = rows.row(c + b);
            let mut biased = four[b];
            for q in whole..cols {
                biased += *u_ptr.add(q) as i32 * *row.add(q) as i32;
            }
            let dot = biased - 128 * table.row_sums[it];
            out[c + b] = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
        }
        c += CAND_BLOCK;
    }
    for (c, o) in out.iter_mut().enumerate().take(n).skip(c) {
        let it = rows.row(c);
        let r_ptr = t_ptr.add(it * cols);
        let mut acc = _mm256_setzero_si256();
        let mut p = 0usize;
        while p < whole {
            let u = _mm256_loadu_si256(u_ptr.add(p) as *const __m256i);
            acc = _mm256_dpbusd_epi32(acc, u, _mm256_loadu_si256(r_ptr.add(p) as *const __m256i));
            p += STEP;
        }
        let mut biased = hsum_epi32(acc);
        for q in whole..cols {
            biased += *u_ptr.add(q) as i32 * *r_ptr.add(q) as i32;
        }
        let dot = biased - 128 * table.row_sums[it];
        *o = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
    }
}

/// Release-mode geometry validation of the quantised scorers: the SIMD
/// bodies read through raw pointers, so a short user row, or candidates
/// reaching past the rows all four table operands hold (`end` is one past
/// the highest candidate row, `None` when that overflowed), must fail loudly
/// here.
pub(super) fn validate_quant_args(table: &QuantView<'_>, user: &QuantUser<'_>, end: Option<usize>) {
    assert_eq!(user.q.len(), table.cols, "user row length must equal cols");
    let codes = table.data.len().checked_div(table.cols).unwrap_or(usize::MAX);
    let rows = codes
        .min(table.scales.len())
        .min(table.row_sums.len())
        .min(table.row_norms.len());
    assert!(
        end.is_some_and(|end| end <= rows),
        "candidate rows out of bounds for a table of {rows} rows"
    );
}

/// Runs the quantised scorer on tier `isa`. Plain AVX-512 (no VNNI) machines
/// run the AVX2 widening body — the 256-bit `pmaddwd` loop is already
/// load-bound at serving widths.
///
/// # Safety
/// The CPU must support `isa`, `out` must hold one score per candidate, and
/// the arguments must have passed [`validate_quant_args`].
pub(super) unsafe fn score_candidates_quant_on<const DOT: bool, R: CandidateRows>(
    isa: Isa,
    table: QuantView<'_>,
    user: QuantUser<'_>,
    rows: R,
    out: &mut [f32],
) {
    match isa {
        Isa::Portable => score_candidates_quant_body::<DOT, R>(table, user, rows, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 => score_candidates_quant_avx2::<DOT, R>(table, user, rows, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => score_candidates_quant_vnni::<DOT, R>(table, user, rows, out),
    }
}

/// Validates, then scores on the process's tier; `end` is one past the
/// highest candidate row (`None` when that overflows).
pub(super) fn score_candidates_quant_dispatch<const DOT: bool, R: CandidateRows>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    rows: R,
    end: Option<usize>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), rows.len(), "one output score per candidate");
    validate_quant_args(&table, &user, end);
    // SAFETY: `isa()` only reports tiers `detect_isa()` verified, and the
    // arguments were validated on the lines above.
    unsafe { score_candidates_quant_on::<DOT, R>(isa(), table, user, rows, out) }
}

/// One past the highest of `items` (0 when there are none).
pub(super) fn ids_end(items: &[u32]) -> Option<usize> {
    Some(items.iter().max().map_or(0, |&id| id as usize + 1))
}

/// Quantised candidate scoring by inner product:
/// `out[k] ~= <user, table[items[k]]>` reconstructed from the exact integer
/// dot as `user.scale * scales[items[k]] * dot`. Bitwise identical across
/// ISA tiers (see the module notes above).
pub fn score_candidates_quant_dot(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32], out: &mut [f32]) {
    score_candidates_quant_dispatch::<true, _>(table, user, items, ids_end(items), out)
}

/// Row-range form of [`score_candidates_quant_dot`], the serving scan's tile:
/// `out[r]` scores row `first + r`, bitwise what the id form computes on the
/// ids `first..first + n` (same body, every tier).
pub fn score_rows_quant_dot(table: QuantView<'_>, user: QuantUser<'_>, first: usize, n: usize, out: &mut [f32]) {
    score_candidates_quant_dispatch::<true, _>(table, user, RowRange { first, n }, first.checked_add(n), out)
}

/// Quantised scoring of rows `first..first + n` by negative squared Euclidean
/// distance, reconstructed from the integer dot and the stored integer
/// self-dots; the serving scan's tile otherwise as [`score_rows_quant_dot`].
pub fn score_rows_quant_neg_sq_dist(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    first: usize,
    n: usize,
    out: &mut [f32],
) {
    score_candidates_quant_dispatch::<false, _>(table, user, RowRange { first, n }, first.checked_add(n), out)
}
