//! CSR sparse-dense products

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
/// is overwritten, entry contents are ignored.
pub fn spmm_serial(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), s.rows * n);
    spmm_body::<false>(0, s.rows, s, n, dense, out);
}

/// Per-output-row spmm over rows `[r0, r1)`. Each output row is zeroed
/// right before its accumulation (while the cache line is hot), so callers
/// may pass recycled storage with arbitrary contents.
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
        out_row.fill(0.0);
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<FUSE>(s.values[e], out_row, &dense[c * n..(c + 1) * n]);
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

/// Scatter pass of [`spmm_transpose`] (`out (S.cols x n) = S^T * D` with `D`
/// dense `(S.rows x n)`, without materialising the transpose) restricted to
/// dense/output columns `[j0, j1)`; `out_cols` holds those columns of every
/// output row, contiguously per row (`(j1 - j0)`-wide rows).
#[inline(always)]
pub(super) fn spmm_transpose_cols<const FUSE: bool>(
    s: CsrView<'_>,
    n: usize,
    dense: &[f32],
    out_cols: &mut [f32],
    j0: usize,
    j1: usize,
) {
    let w = j1 - j0;
    for r in 0..s.rows {
        let d_row = &dense[r * n + j0..r * n + j1];
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<FUSE>(s.values[e], &mut out_cols[c * w..(c + 1) * w], d_row);
        }
    }
}

/// Transposed sparse-dense product `out (S.cols x n) = S^T * D`, `out`
/// zeroed on entry.
///
/// The scatter pattern writes rows of `out` indexed by *column* of `S`, so
/// output rows are not independent across input rows. The threaded driver
/// therefore splits the *dense columns* instead: each thread owns a disjoint
/// column band, accumulates it in a private buffer (same row-major order as
/// the reference, so per-element accumulation order is unchanged) and the
/// bands are copied back after the join.
pub fn spmm_transpose(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.rows * n);
    debug_assert_eq!(out.len(), s.cols * n);
    if s.cols == 0 || n == 0 {
        return;
    }
    // Every band worker re-walks the full CSR structure, so duplicated
    // sparse-index traffic grows with the thread count. Cap the split so
    // each band is at least MIN_BAND dense columns wide; narrow problems
    // (n below 2 * MIN_BAND) stay serial.
    const MIN_BAND: usize = 64;
    let threads = plan_threads(n, s.values.len() * n).min((n / MIN_BAND).max(1));
    let scatter = |j0: usize, j1: usize, out_cols: &mut [f32]| dispatch!(FUSE, out_cols => spmm_transpose_cols::<FUSE>(s, n, dense, out_cols, j0, j1));
    if threads == 1 {
        scatter(0, n, out);
    } else {
        // Unreachable without `parallel`: `plan_threads` only answers 1 there.
        #[cfg(feature = "parallel")]
        {
            let band = n.div_ceil(threads);
            let bands: Vec<(usize, usize)> = (0..threads)
                .map(|t| (t * band, ((t + 1) * band).min(n)))
                .filter(|(j0, j1)| j1 > j0)
                .collect();
            let mut buffers: Vec<Vec<f32>> = Vec::with_capacity(bands.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = bands
                    .iter()
                    .map(|&(j0, j1)| {
                        scope.spawn(move || {
                            let mut buf = vec![0.0f32; s.cols * (j1 - j0)];
                            scatter(j0, j1, &mut buf);
                            buf
                        })
                    })
                    .collect();
                for h in handles {
                    buffers.push(h.join().expect("spmm_transpose worker panicked"));
                }
            });
            for (&(j0, j1), buf) in bands.iter().zip(buffers.iter()) {
                let w = j1 - j0;
                for c in 0..s.cols {
                    out[c * n + j0..c * n + j1].copy_from_slice(&buf[c * w..(c + 1) * w]);
                }
            }
        }
    }
}
