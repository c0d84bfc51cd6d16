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
#[cfg(test)]
pub(crate) fn score_candidates_dot_serial(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
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
#[cfg(test)]
pub(crate) fn score_candidates_neg_sq_dist_serial(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
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

/// How one scorer call names its candidate rows: gathered ids (the evaluation
/// protocol's sampled negatives) or a contiguous row range (a serving tile).
/// The two scorer bodies are generic over this and nothing else, so both forms
/// run the same accumulation, reduction and store code.
pub(super) trait CandidateRows: Copy {
    /// Number of candidates.
    fn len(self) -> usize;
    /// Table row of candidate `c < len()`.
    fn row(self, c: usize) -> usize;
}

impl CandidateRows for &[u32] {
    #[inline(always)]
    fn len(self) -> usize {
        <[u32]>::len(self)
    }
    #[inline(always)]
    fn row(self, c: usize) -> usize {
        self[c] as usize
    }
}

/// The contiguous candidate rows `first..first + n`.
#[derive(Debug, Clone, Copy)]
pub(super) struct RowRange {
    pub(super) first: usize,
    pub(super) n: usize,
}

impl CandidateRows for RowRange {
    #[inline(always)]
    fn len(self) -> usize {
        self.n
    }
    #[inline(always)]
    fn row(self, c: usize) -> usize {
        self.first + c
    }
}

/// `DOT = true` computes inner products, `DOT = false` negative squared
/// Euclidean distances, of each of the `U` user rows against every candidate
/// from `start` on; user `u`'s score of candidate `c` lands in
/// `out[u * rows.len() + c]`. `LANES` independent partial sums per candidate
/// keep the reduction in vector registers (so agreement with the serial
/// reference is approximate, not bitwise), and candidates are processed in
/// blocks of four so each user chunk is loaded once per block and the four
/// accumulation chains run in parallel.
#[inline(always)]
fn score_candidates_body<const DOT: bool, const FUSE: bool, const U: usize, R: CandidateRows>(
    cols: usize,
    users: [&[f32]; U],
    table: &[f32],
    rows: R,
    start: usize,
    out: &mut [f32],
) {
    const LANES: usize = 8;
    const CAND_BLOCK: usize = 4;
    let n = rows.len();
    let whole = cols - cols % LANES;
    let row_of = |c: usize| {
        let r = rows.row(c);
        &table[r * cols..(r + 1) * cols]
    };
    let mut c = start;
    while c + CAND_BLOCK <= n {
        let block: [&[f32]; CAND_BLOCK] = std::array::from_fn(|b| row_of(c + b));
        for (u, user) in users.iter().enumerate() {
            let mut acc = [[0.0f32; LANES]; CAND_BLOCK];
            let mut p = 0usize;
            while p < whole {
                let uc: &[f32; LANES] = user[p..p + LANES].try_into().expect("LANES-sized chunk");
                for b in 0..CAND_BLOCK {
                    let rc: &[f32; LANES] = block[b][p..p + LANES].try_into().expect("LANES-sized chunk");
                    for l in 0..LANES {
                        acc[b][l] = score_lane::<DOT, FUSE>(acc[b][l], uc[l], rc[l]);
                    }
                }
                p += LANES;
            }
            for b in 0..CAND_BLOCK {
                out[u * n + c + b] = score_finish::<DOT>(&acc[b], &user[whole..], &block[b][whole..]);
            }
        }
        c += CAND_BLOCK;
    }
    for c in c..n {
        let row = row_of(c);
        for (u, user) in users.iter().enumerate() {
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
            out[u * n + c] = score_finish::<DOT>(&lanes, &user[whole..], &row[whole..]);
        }
    }
}

/// Explicit AVX2+FMA body: per user, four 256-bit accumulators (one per
/// candidate of a block) share each user chunk, every loaded row chunk is
/// multiplied into all `U` users' accumulators, and a user's four horizontal
/// sums collapse through the classic `hadd`/`hadd`/`hadd` + 128-bit fold into
/// a single `__m128` holding all four scores. The tail columns (`cols % 8`)
/// are added to those four lanes at once — unfused multiply then add, the
/// scalar tail's exact operations — and the four scores leave through one
/// store. The per-candidate horizontal reduction and what follows it are
/// what limit the autovectorised formulation at typical embedding widths
/// (`cols` 32-128), so they are hand-scheduled here. Per candidate the tree
/// sums the eight lanes as `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`; the
/// many-user [`score_rows_panel_avx512`] computes that tree vertically, 16
/// candidates per add, and so stays bitwise equal to this body.
///
/// # Safety
/// Requires AVX2+FMA; every candidate of `rows` must be a valid row of
/// `table`, every user `cols` long and `out.len() == U * rows.len()` (all
/// checked by [`score_candidates_dispatch`] / [`score_rows_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn score_candidates_x86<const DOT: bool, const U: usize, R: CandidateRows>(
    cols: usize,
    users: [&[f32]; U],
    table: &[f32],
    rows: R,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    const CAND_BLOCK: usize = 4;
    let n = rows.len();
    let whole = cols - cols % LANES;
    let u_ptr: [*const f32; U] = users.map(<[f32]>::as_ptr);
    let t_ptr = table.as_ptr();
    let o_ptr = out.as_mut_ptr();
    let negate = _mm_set1_ps(-0.0);

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
    while c + CAND_BLOCK <= n {
        let r: [*const f32; CAND_BLOCK] = std::array::from_fn(|b| t_ptr.add(rows.row(c + b) * cols));
        let mut acc = [[_mm256_setzero_ps(); CAND_BLOCK]; U];
        let mut p = 0usize;
        while p < whole {
            let rv = [
                _mm256_loadu_ps(r[0].add(p)),
                _mm256_loadu_ps(r[1].add(p)),
                _mm256_loadu_ps(r[2].add(p)),
                _mm256_loadu_ps(r[3].add(p)),
            ];
            for u in 0..U {
                let uv = _mm256_loadu_ps(u_ptr[u].add(p));
                for b in 0..CAND_BLOCK {
                    acc[u][b] = accumulate::<DOT>(acc[u][b], uv, rv[b]);
                }
            }
            p += LANES;
        }
        for u in 0..U {
            // hadd tree: t2's 128-bit halves hold [s0,s1,s2,s3] partials.
            let t0 = _mm256_hadd_ps(acc[u][0], acc[u][1]);
            let t1 = _mm256_hadd_ps(acc[u][2], acc[u][3]);
            let t2 = _mm256_hadd_ps(t0, t1);
            let mut sums = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
            for q in whole..cols {
                let uv = _mm_set1_ps(*u_ptr[u].add(q));
                let rv = _mm_set_ps(*r[3].add(q), *r[2].add(q), *r[1].add(q), *r[0].add(q));
                let term = if DOT {
                    _mm_mul_ps(uv, rv)
                } else {
                    let d = _mm_sub_ps(uv, rv);
                    _mm_mul_ps(d, d)
                };
                sums = _mm_add_ps(sums, term);
            }
            if !DOT {
                sums = _mm_xor_ps(sums, negate);
            }
            // In bounds: `c + CAND_BLOCK <= n` and `out` holds `U * n` scores.
            _mm_storeu_ps(o_ptr.add(u * n + c), sums);
        }
        c += CAND_BLOCK;
    }
    // Tail candidates go through the generic body (same lane scheme).
    score_candidates_body::<DOT, true, U, R>(cols, users, table, rows, c, out);
}

/// Candidate rows per panel chunk: one zmm holds a column of all of them.
#[cfg(target_arch = "x86_64")]
const PANEL_ROWS: usize = 16;

/// Widest table the panel body takes: its stack panel holds `PANEL_ROWS` rows
/// of this many columns (32 KiB). Wider tables keep the pair body.
#[cfg(target_arch = "x86_64")]
pub(super) const PANEL_MAX_COLS: usize = 512;

/// Fewest users a row-range call must score for the AVX-512 tiers to take
/// [`score_rows_panel_avx512`]; smaller groups run [`score_candidates_x86`]
/// one or two users per row load.
///
/// Chosen by measurement (one Sapphire Rapids core, a 65 536 x 32 table
/// scanned tile-major in 2 048-row tiles as the serving scan does; ns per
/// (user, row), pair body → panel body, medians of three alternated runs):
/// 1 user 5.39 → 5.75, 2 users 2.68 → 3.12, **3 users 2.69 → 2.24**,
/// 4 users 2.14 → 2.00, 8 users 1.81 → 1.33; the `kernels` bench's
/// `score_rows` group reads (two runs each) 32 users 1.79 → 0.97 and
/// 128 users 1.72 → 0.92. Below three users the 16-row transpose is paid for
/// too few FMAs. On an L2-resident 4 096-row table the pair body holds out to
/// four users (3 users 1.78 → 2.02, 5 users 1.65 → 1.54): part of the panel's
/// gain at three is its prefetch hiding the memory the pair body waits on.
/// Not a knob.
#[cfg(target_arch = "x86_64")]
pub(super) const PANEL_MIN_USERS: usize = 3;

/// A 16-row panel, aligned so every column load is one cache line.
#[cfg(target_arch = "x86_64")]
#[repr(align(64))]
struct Panel([f32; PANEL_ROWS * PANEL_MAX_COLS]);

/// Transposes 16 row vectors into 16 column vectors: `out[j]` lane `r` is
/// `rows[r]` lane `j`. Three shuffle rounds (32-bit and 64-bit unpacks within
/// 128-bit blocks, then two block shuffles), 64 shuffles in all.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_16x16(rows: [std::arch::x86_64::__m512; 16]) -> [std::arch::x86_64::__m512; 16] {
    use std::arch::x86_64::*;
    // t[2k], t[2k + 1]: rows 2k and 2k + 1 interleaved, block q holding
    // columns 4q + {0, 1} and 4q + {2, 3}.
    let mut t = [_mm512_setzero_ps(); 16];
    for k in (0..16).step_by(2) {
        t[k] = _mm512_unpacklo_ps(rows[k], rows[k + 1]);
        t[k + 1] = _mm512_unpackhi_ps(rows[k], rows[k + 1]);
    }
    // u[g + e]: block q holds column 4q + e of rows g..g + 4.
    let mut u = [_mm512_setzero_ps(); 16];
    for g in (0..16).step_by(4) {
        for h in 0..2 {
            let (a, b) = (_mm512_castps_pd(t[g + h]), _mm512_castps_pd(t[g + h + 2]));
            u[g + 2 * h] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
            u[g + 2 * h + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
        }
    }
    // Column 4q + e gathers block q of u[e], u[4 + e], u[8 + e], u[12 + e].
    let mut out = [_mm512_setzero_ps(); 16];
    for e in 0..4 {
        let even_lo = _mm512_shuffle_f32x4::<0x88>(u[e], u[4 + e]);
        let even_hi = _mm512_shuffle_f32x4::<0x88>(u[8 + e], u[12 + e]);
        let odd_lo = _mm512_shuffle_f32x4::<0xDD>(u[e], u[4 + e]);
        let odd_hi = _mm512_shuffle_f32x4::<0xDD>(u[8 + e], u[12 + e]);
        out[e] = _mm512_shuffle_f32x4::<0x88>(even_lo, even_hi);
        out[8 + e] = _mm512_shuffle_f32x4::<0xDD>(even_lo, even_hi);
        out[4 + e] = _mm512_shuffle_f32x4::<0x88>(odd_lo, odd_hi);
        out[12 + e] = _mm512_shuffle_f32x4::<0xDD>(odd_lo, odd_hi);
    }
    out
}

/// Scores `UB` users against one packed panel chunk: the 16 candidates'
/// scores of user `b` are stored (lanes under `keep`) at `dst[b]`.
///
/// Per user, accumulator `l` holds lane `l` of all 16 candidates at once, so
/// each FMA is one user value broadcast against one panel column, and the
/// per-candidate reduction of [`score_candidates_x86`]'s `hadd` tree
/// (`((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`) is seven vertical adds. Column
/// tail and sign follow that body exactly.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn score_panel_block<const DOT: bool, const UB: usize>(
    cols: usize,
    panel: *const f32,
    users: [*const f32; UB],
    dst: [*mut f32; UB],
    keep: std::arch::x86_64::__mmask16,
) {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    let whole = cols - cols % LANES;
    // acc[l][b]: lane `l` of user `b`'s 16 candidates.
    let mut acc = [[_mm512_setzero_ps(); UB]; LANES];
    let mut p = 0usize;
    while p < whole {
        for (l, acc) in acc.iter_mut().enumerate() {
            let rv = _mm512_load_ps(panel.add((p + l) * PANEL_ROWS));
            for (a, user) in acc.iter_mut().zip(users) {
                let uv = _mm512_set1_ps(*user.add(p + l));
                *a = if DOT {
                    _mm512_fmadd_ps(uv, rv, *a)
                } else {
                    let d = _mm512_sub_ps(uv, rv);
                    _mm512_fmadd_ps(d, d, *a)
                };
            }
        }
        p += LANES;
    }
    for (b, (user, dst)) in users.into_iter().zip(dst).enumerate() {
        let a = acc.map(|lane| lane[b]);
        let mut sums = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(a[0], a[1]), _mm512_add_ps(a[2], a[3])),
            _mm512_add_ps(_mm512_add_ps(a[4], a[5]), _mm512_add_ps(a[6], a[7])),
        );
        for q in whole..cols {
            let uv = _mm512_set1_ps(*user.add(q));
            let rv = _mm512_load_ps(panel.add(q * PANEL_ROWS));
            let term = if DOT {
                _mm512_mul_ps(uv, rv)
            } else {
                let d = _mm512_sub_ps(uv, rv);
                _mm512_mul_ps(d, d)
            };
            sums = _mm512_add_ps(sums, term);
        }
        if !DOT {
            sums = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(sums), _mm512_set1_epi32(i32::MIN)));
        }
        if keep == __mmask16::MAX {
            _mm512_storeu_ps(dst, sums);
        } else {
            _mm512_mask_storeu_ps(dst, keep, sums);
        }
    }
}

/// Transposes the `m <= 16` candidate rows at `rows` (`cols` apart) into
/// `panel`: column `p` of the chunk lands at `panel[16 p..16 p + 16]`, rows
/// past `m` as zeros. Sixteen columns at a time, the last block masked.
///
/// The row loops have fixed trip counts so the sixteen rows stay in
/// registers; bounded by `m` and the block width they went through the
/// stack, and a 3-user scan took 25 % longer per (user, row), an 8-user one
/// 10 %.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pack_panel(cols: usize, rows: *const f32, m: usize, panel: *mut f32) {
    use std::arch::x86_64::*;
    let mut j = 0usize;
    while j < cols {
        let w = PANEL_ROWS.min(cols - j);
        let mut chunk = [_mm512_setzero_ps(); PANEL_ROWS];
        if m == PANEL_ROWS && w == PANEL_ROWS {
            for (r, row) in chunk.iter_mut().enumerate() {
                *row = _mm512_loadu_ps(rows.add(r * cols + j));
            }
        } else {
            let lanes = (u32::MAX >> (32 - w)) as __mmask16;
            for (r, row) in chunk.iter_mut().enumerate() {
                // A row past `m` loads through an empty mask, which reads
                // nothing; its address stays on the last real row.
                let keep = if r < m { lanes } else { 0 };
                *row = _mm512_maskz_loadu_ps(keep, rows.add(r.min(m - 1) * cols + j));
            }
        }
        for (i, col) in transpose_16x16(chunk).iter().enumerate() {
            if i < w {
                _mm512_store_ps(panel.add((j + i) * PANEL_ROWS), *col);
            }
        }
        j += w;
    }
}

/// AVX-512 row-range body for groups of users (a micro-GEMM): each 16-row
/// chunk of the range is transposed into an L1 panel (column `p` of the
/// chunk is one zmm), then every user of the group runs against it, three
/// users' 24 accumulators at a time, so one 512-bit FMA covers 16 candidate
/// rows of one user and the panel is read once per three users.
///
/// Bitwise equal to [`score_candidates_x86`] per user: the candidates it
/// sends through the `hadd` tree (all but the last `n % 4`) go through
/// [`score_panel_block`]'s vertical form of the same tree, and the last
/// `n % 4` through the same generic body, user by user.
///
/// # Safety
/// Requires AVX-512F; `cols <= PANEL_MAX_COLS`, `rows` must lie inside
/// `table`, `users` must hold `out.len() / rows.n` rows of `cols` and `out`
/// one score per (user, row) (checked by [`score_rows_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
unsafe fn score_rows_panel_avx512<const DOT: bool>(
    cols: usize,
    users: &[f32],
    table: &[f32],
    rows: RowRange,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = rows.n;
    let n_users = out.len() / n;
    let body = n - n % 4;
    let (u_ptr, o_ptr) = (users.as_ptr(), out.as_mut_ptr());
    let t_ptr = table.as_ptr().add(rows.first * cols);
    let mut panel = std::mem::MaybeUninit::<Panel>::uninit();
    let pp = std::ptr::addr_of_mut!((*panel.as_mut_ptr()).0).cast::<f32>();
    let mut c = 0usize;
    while c < body {
        // The chunk: PANEL_ROWS candidates, fewer (a multiple of four) at the
        // end of the range; the missing rows pack as zeros and are never
        // stored.
        let m = PANEL_ROWS.min(body - c);
        let keep = (u32::MAX >> (32 - m)) as __mmask16;
        // The next chunk is pulled toward L1 while this one is scored: left to
        // the hardware prefetcher, a 3-user scan of a 65 536-row table took
        // 40 % longer per (user, row), a 128-user one 7 %.
        let next = t_ptr.add((c + m) * cols);
        for line in (0..PANEL_ROWS.min(body - c - m) * cols).step_by(PANEL_ROWS) {
            _mm_prefetch::<_MM_HINT_T0>(next.add(line).cast());
        }
        pack_panel(cols, t_ptr.add(c * cols), m, pp);
        // Three users' 24 accumulators fill the register file beside a
        // column and the broadcasts; the last one or two users of the group
        // run as a smaller block.
        let (user, dst) = (|u: usize| u_ptr.add(u * cols), |u: usize| o_ptr.add(u * n + c));
        let mut u = 0usize;
        while u + 3 <= n_users {
            let (us, ds) = ([user(u), user(u + 1), user(u + 2)], [dst(u), dst(u + 1), dst(u + 2)]);
            score_panel_block::<DOT, 3>(cols, pp, us, ds, keep);
            u += 3;
        }
        match n_users - u {
            2 => score_panel_block::<DOT, 2>(cols, pp, [user(u), user(u + 1)], [dst(u), dst(u + 1)], keep),
            1 => score_panel_block::<DOT, 1>(cols, pp, [user(u)], [dst(u)], keep),
            _ => {}
        }
        c += m;
    }
    if body < n {
        for u in 0..n_users {
            let user = &users[u * cols..(u + 1) * cols];
            score_candidates_body::<DOT, true, 1, _>(cols, [user], table, rows, body, &mut out[u * n..(u + 1) * n]);
        }
    }
}

/// Runs the f32 scorer on tier `isa`: the generic lane body on the portable
/// tier, the hand-scheduled [`score_candidates_x86`] on every SIMD tier (its
/// lanes are explicit 256-bit; AVX-512 adds the many-user
/// [`score_rows_panel_avx512`], routed by [`score_rows_on`]).
///
/// # Safety
/// The CPU must support `isa`, and the arguments must satisfy the geometry
/// asserts of [`score_candidates_dispatch`] / [`score_rows_dispatch`].
pub(super) unsafe fn score_candidates_on<const DOT: bool, const U: usize, R: CandidateRows>(
    isa: Isa,
    cols: usize,
    users: [&[f32]; U],
    table: &[f32],
    rows: R,
    out: &mut [f32],
) {
    match isa {
        Isa::Portable => score_candidates_body::<DOT, false, U, R>(cols, users, table, rows, 0, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 | Isa::Avx512Vnni => {
            score_candidates_x86::<DOT, U, R>(cols, users, table, rows, out)
        }
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
    // fail loudly here rather than read out of bounds. The id check is a
    // branch-free max fold (it vectorises), noise against ~`cols` FLOPs of
    // scoring per candidate.
    assert_eq!(user.len(), cols, "user row length must equal cols");
    assert_eq!(out.len(), items.len(), "one output score per candidate");
    let max_idx = items.iter().fold(0u32, |m, &i| m.max(i));
    assert!(
        items.is_empty()
            || (max_idx as usize + 1)
                .checked_mul(cols)
                .is_some_and(|end| end <= table.len()),
        "candidate id {max_idx} out of bounds for a table of {} rows",
        table.len().checked_div(cols).unwrap_or(0)
    );
    // SAFETY: `isa()` only reports tiers `detect_isa()` verified, and the
    // asserts above are the geometry the SIMD body relies on.
    unsafe { score_candidates_on::<DOT, 1, _>(isa(), cols, [user], table, items, out) }
}

/// Runs the row-range scorer on tier `isa` for `out.len() / rows.n` users
/// (`users`, their rows back to back). Routed by tier and group size only:
/// on the AVX-512 tiers a group of [`PANEL_MIN_USERS`] or more takes
/// [`score_rows_panel_avx512`]; everything else runs [`score_candidates_on`]
/// on pairs of users (the last one alone when the count is odd), each
/// loaded row multiplied into both users' accumulators. Two users' eight
/// accumulators, four row vectors and a user vector fit AVX2's sixteen
/// registers; three fit only by re-reading every row chunk per user, four
/// spill (on the pair body's Ice Lake measurement, 2 048-row tiles: 1 user
/// per row load 2.55 ns per (user, row), 2 users 1.40, 3 users 1.28,
/// 4 users 1.53).
///
/// # Safety
/// The CPU must support `isa`, and the arguments must satisfy the geometry
/// asserts of [`score_rows_dispatch`].
pub(super) unsafe fn score_rows_on<const DOT: bool>(
    isa: Isa,
    cols: usize,
    users: &[f32],
    table: &[f32],
    rows: RowRange,
    out: &mut [f32],
) {
    if rows.n == 0 {
        return;
    }
    let n_users = out.len() / rows.n;
    #[cfg(target_arch = "x86_64")]
    if matches!(isa, Isa::Avx512 | Isa::Avx512Vnni) && n_users >= PANEL_MIN_USERS && cols <= PANEL_MAX_COLS {
        return score_rows_panel_avx512::<DOT>(cols, users, table, rows, out);
    }
    let user = |u: usize| &users[u * cols..(u + 1) * cols];
    for (pair, out) in out.chunks_mut(2 * rows.n).enumerate() {
        let u = 2 * pair;
        match out.len() / rows.n {
            2 => score_candidates_on::<DOT, 2, _>(isa, cols, [user(u), user(u + 1)], table, rows, out),
            _ => score_candidates_on::<DOT, 1, _>(isa, cols, [user(u)], table, rows, out),
        }
    }
}

fn score_rows_dispatch<const DOT: bool>(
    cols: usize,
    users: &[f32],
    table: &[f32],
    first_row: usize,
    n_rows: usize,
    out: &mut [f32],
) {
    // Release-mode validation, as above; a row range needs one check, not
    // one per candidate. `out` fixes the user count (whole rows of `n_rows`
    // scores) and `users` must hold exactly that many `cols`-wide rows, at
    // every width. An empty range scores nothing: `out` is empty and `users`
    // any number of whole rows.
    let n_users = out.len().checked_div(n_rows).unwrap_or(0);
    assert!(
        n_users * n_rows == out.len()
            && if n_rows == 0 {
                users.len().checked_rem(cols).unwrap_or(0) == 0
            } else {
                n_users.checked_mul(cols) == Some(users.len())
            },
        "users must be whole {cols}-wide rows, one row of {n_rows} output scores each"
    );
    assert!(
        first_row
            .checked_add(n_rows)
            .and_then(|end| end.checked_mul(cols))
            .is_some_and(|end| end <= table.len()),
        "rows {first_row}..{first_row}+{n_rows} out of bounds for a table of {} rows",
        table.len().checked_div(cols).unwrap_or(0)
    );
    let rows = RowRange {
        first: first_row,
        n: n_rows,
    };
    // SAFETY: `isa()` only reports tiers `detect_isa()` verified, and the
    // asserts above are the geometry the SIMD bodies rely on.
    unsafe { score_rows_on::<DOT>(isa(), cols, users, table, rows, out) }
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

/// Row-range form of [`score_candidates_dot`] for a group of users at once:
/// `users` holds their rows back to back (`out.len() / n_rows` of them) and
/// `out[u * n_rows + r] = <user u, table[first_row + r]>`, each table row
/// loaded once for the whole group: a register-blocked micro-GEMM over
/// 16-row panels for groups of three or more on AVX-512, the users in pairs
/// otherwise.
/// Every score is bitwise what `score_candidates_dot` computes for that user
/// on the ids `first_row..first_row + n_rows` (same tier). The range must lie
/// inside the table.
pub fn score_rows_dot(cols: usize, users: &[f32], table: &[f32], first_row: usize, n_rows: usize, out: &mut [f32]) {
    score_rows_dispatch::<true>(cols, users, table, first_row, n_rows, out)
}

/// Row-range form of [`score_candidates_neg_sq_dist`]; see
/// [`score_rows_dot`].
pub fn score_rows_neg_sq_dist(
    cols: usize,
    users: &[f32],
    table: &[f32],
    first_row: usize,
    n_rows: usize,
    out: &mut [f32],
) {
    score_rows_dispatch::<false>(cols, users, table, first_row, n_rows, out)
}
