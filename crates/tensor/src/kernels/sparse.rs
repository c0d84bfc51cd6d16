//! CSR sparse-dense products.
//!
//! There is one product body, the per-output-row gather [`spmm_body`],
//! behind the full product [`spmm`] and the row subset [`spmm_rows`]. The
//! autodiff backward `dX = S^T G` of `Y = S X` is not a kernel of its own:
//! it runs [`spmm`] over a transpose of `S` materialised once
//! ([`SparseOperand`](crate::sparse::SparseOperand)), whose rows list their
//! entries in ascending source-row order — the same per-element fold a
//! scatter over `S` would compute, with the partial sums in registers
//! instead of a read-modify-write of an output row per nonzero.

use super::elementwise::axpy_body;
use super::isa::*;

/// Borrowed view of a CSR matrix's raw storage, the sparse operand type of
/// the spmm kernels (built by [`CsrMatrix::view`](crate::sparse::CsrMatrix)).
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointers, length `rows + 1`.
    pub indptr: &'a [usize],
    /// Column indices per stored entry.
    pub indices: &'a [u32],
    /// Values per stored entry.
    pub values: &'a [f32],
}

/// Reference loop for [`spmm`] (the seed implementation):
/// `out (rows x n) = S * D` with `D` dense `(S.cols x n)`; every output row
/// is overwritten, entry contents are ignored. One read-modify-write `axpy`
/// of the output row per nonzero, in ascending entry order — the fold
/// `spmm_body` reproduces.
pub fn spmm_serial(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), s.rows * n);
    for r in 0..s.rows {
        let out_row = &mut out[r * n..(r + 1) * n];
        out_row.fill(0.0);
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<false>(s.values[e], out_row, &dense[c * n..(c + 1) * n]);
        }
    }
}

/// Columns `[j, j + W)` of one output row of `S * D`: `W` local accumulators
/// folded over the row's nonzeros (`cols` / `vals`) and stored once.
#[inline(always)]
fn spmm_block<const FUSE: bool, const W: usize>(
    cols: &[u32],
    vals: &[f32],
    n: usize,
    dense: &[f32],
    j: usize,
    out_row: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (&c, &v) in cols.iter().zip(vals) {
        let at = c as usize * n + j;
        let src: &[f32; W] = dense[at..at + W].try_into().expect("W-sized chunk");
        for (a, &d) in acc.iter_mut().zip(src) {
            *a = if FUSE { v.mul_add(d, *a) } else { *a + v * d };
        }
    }
    out_row[j..j + W].copy_from_slice(&acc);
}

/// Per-output-row spmm over rows `[r0, r1)`; every element of `out_rows` is
/// overwritten, so callers may pass recycled storage with arbitrary
/// contents.
///
/// The reference loop ([`spmm_serial`]) loads, updates and stores the output
/// row once per nonzero, which puts the row's store-to-load forwarding on the
/// critical path. Here a row is cut into column blocks — the widest of
/// 64 / 32 / 16 that still fits, then an `axpy` tail below 16 columns — and
/// each block keeps its partial sums in registers across all of the row's
/// nonzeros. Every output element is still `0 + v_0 d_0 + v_1 d_1 + ..` over
/// the row's entries in ascending order (fused on the SIMD tiers), so the
/// result is **bitwise equal** to the reference fold at the same tier,
/// whatever the blocking; the price is one more walk over the row's indices
/// per block.
///
/// Measured at `n = 64` on the four normalised MusicMovie/Full adjacencies
/// (Ice Lake Xeon, 1 thread, ns per nonzero): AVX-512 13.9–15.1 -> 3.8–7.2,
/// AVX2 8.9 -> 4.0, portable 12.8 -> 8.8; `n = 128` 27 -> 14, `n = 32`
/// 5.6 -> 4.3. The gather of a row of `D` is one 64-byte load per 16
/// columns, which splits across two cache lines unless `D` starts on a line;
/// tensor storage does ([`crate::storage`]), and at AVX-512 the four
/// adjacencies run at 1.9–2.0 ns per nonzero, forward and (over the
/// transposes) backward, against 3.6–3.8 forward and 4.1–6.5 for the
/// scatter backward with `malloc`'s placement.
#[inline(always)]
pub(super) fn spmm_body<const FUSE: bool>(
    r0: usize,
    r1: usize,
    s: CsrView<'_>,
    n: usize,
    dense: &[f32],
    out_rows: &mut [f32],
) {
    for r in r0..r1 {
        let out_row = &mut out_rows[(r - r0) * n..(r - r0 + 1) * n];
        let entries = s.indptr[r]..s.indptr[r + 1];
        let (cols, vals) = (&s.indices[entries.clone()], &s.values[entries]);
        let mut j = 0;
        while n - j >= 64 {
            spmm_block::<FUSE, 64>(cols, vals, n, dense, j, out_row);
            j += 64;
        }
        if n - j >= 32 {
            spmm_block::<FUSE, 32>(cols, vals, n, dense, j, out_row);
            j += 32;
        }
        if n - j >= 16 {
            spmm_block::<FUSE, 16>(cols, vals, n, dense, j, out_row);
            j += 16;
        }
        if j < n {
            let tail = &mut out_row[j..];
            tail.fill(0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                axpy_body::<FUSE>(v, tail, &dense[c as usize * n + j..(c as usize + 1) * n]);
            }
        }
    }
}

/// Sparse-dense product `out (S.rows x n) = S * D`; every output row is
/// overwritten (zeroed in-kernel before accumulation), entry contents are
/// ignored. Output rows are independent, so the threaded driver chunks them
/// exactly like the dense kernels.
pub fn spmm(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), s.rows * n);
    if s.rows == 0 || n == 0 {
        return;
    }
    row_chunked(out, n, s.rows, s.values.len() * n, |r0, r1, rows| {
        dispatch!(FUSE, rows => spmm_body::<FUSE>(r0, r1, s, n, dense, rows));
    });
}

/// Row-subset sparse-dense product: computes only the selected `rows` of
/// `S * D`, compacted into `out` (`rows.len() x n`, `out[i]` = row `rows[i]`
/// of the full product).
///
/// Each selected row runs the *same* per-row body as [`spmm`] (same ISA
/// tier, same accumulation order over the row's nonzeros), so `out[i]`
/// is **bitwise identical** to the corresponding row of a full [`spmm`] —
/// the property the incremental re-encode path builds its full-rebuild
/// parity on (`tests/delta_parity.rs`). Dirty sets are small and scattered,
/// so the subset path always runs inline on the calling thread.
pub fn spmm_rows(s: CsrView<'_>, rows: &[u32], n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), rows.len() * n);
    if n == 0 {
        return;
    }
    for (i, &r) in rows.iter().enumerate() {
        let r = r as usize;
        debug_assert!(r < s.rows);
        let row = &mut out[i * n..(i + 1) * n];
        dispatch!(FUSE, row => spmm_body::<FUSE>(r, r + 1, s, n, dense, row));
    }
}
