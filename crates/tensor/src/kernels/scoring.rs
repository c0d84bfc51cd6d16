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

/// Most user rows one row-range call scores ([`score_rows_dot`],
/// [`score_rows_neg_sq_dist`]): each loaded item row is multiplied into this
/// many users' accumulators before the next one is fetched.
///
/// Chosen by measurement on the hand-scheduled body (Ice Lake Xeon 2.6 GHz,
/// 65 536 x 32 table, 256 users, tile-major): on 2 048-row (256 KiB,
/// L2-resident) tiles 1 user per row load costs 2.55 ns per (user, row),
/// 2 users 1.40, 3 users 1.28, 4 users 1.53; on 256-row (L1-resident) tiles
/// 1.58 / 1.21 / 1.23 / 1.42. Two users' 8 accumulators, 4 row vectors and a
/// user vector fit AVX2's 16 registers by construction; three only fit when
/// the compiler re-reads every row chunk per user, four spill — hence 2,
/// although 3 read 9 % faster through L2 on that box.
pub const SCORE_ROWS_USERS: usize = 2;

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
/// (`cols` 32-128), so they are hand-scheduled here.
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

/// Runs the f32 scorer on tier `isa`: the generic lane body on the portable
/// tier, the hand-scheduled [`score_candidates_x86`] on every SIMD tier (its
/// lanes are explicit 256-bit, so AVX-512 has nothing to add).
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

fn score_rows_dispatch<const DOT: bool>(
    cols: usize,
    users: &[&[f32]],
    table: &[f32],
    first_row: usize,
    n_rows: usize,
    out: &mut [f32],
) {
    // Release-mode validation, as above; a row range needs one check, not
    // one per candidate.
    assert!(users.iter().all(|u| u.len() == cols), "user row length must equal cols");
    assert_eq!(out.len(), users.len() * n_rows, "one output score per (user, row)");
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
    // SAFETY (both arms): `isa()` only reports tiers `detect_isa()` verified,
    // and the asserts above are the geometry the SIMD body relies on.
    match *users {
        [u0] => unsafe { score_candidates_on::<DOT, 1, _>(isa(), cols, [u0], table, rows, out) },
        [u0, u1] => unsafe { score_candidates_on::<DOT, 2, _>(isa(), cols, [u0, u1], table, rows, out) },
        _ => panic!(
            "a row-range call scores 1..={SCORE_ROWS_USERS} users, got {}",
            users.len()
        ),
    }
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

/// Row-range form of [`score_candidates_dot`] for up to
/// [`SCORE_ROWS_USERS`] users at once:
/// `out[u * n_rows + r] = <users[u], table[first_row + r]>`, each table row
/// loaded once for all of them. Every score is bitwise what
/// `score_candidates_dot` computes for that user on the ids
/// `first_row..first_row + n_rows` (same body, same tier). The range must lie
/// inside the table.
pub fn score_rows_dot(cols: usize, users: &[&[f32]], table: &[f32], first_row: usize, n_rows: usize, out: &mut [f32]) {
    score_rows_dispatch::<true>(cols, users, table, first_row, n_rows, out)
}

/// Row-range form of [`score_candidates_neg_sq_dist`]; see
/// [`score_rows_dot`].
pub fn score_rows_neg_sq_dist(
    cols: usize,
    users: &[&[f32]],
    table: &[f32],
    first_row: usize,
    n_rows: usize,
    out: &mut [f32],
) {
    score_rows_dispatch::<false>(cols, users, table, first_row, n_rows, out)
}
