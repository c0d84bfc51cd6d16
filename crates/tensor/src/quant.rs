//! Int8 post-training quantisation of frozen embedding tables.
//!
//! The serve path scores one user row against large frozen item tables; at
//! catalogue scale that loop is bound by memory traffic over f32 rows. A
//! [`QuantizedTable`] stores each embedding row as i8 codes plus one f32
//! scale (`value ~= scale * q`), cutting the table to ~1/4 the bytes, and
//! carries the two integer row statistics the int8 scoring kernels need
//! (`sum q` to fold the u8 offset bias out of the VNNI dot, `sum q^2` for
//! the negative-distance score function).
//!
//! ## Quantisation scheme
//!
//! Symmetric per-row max-abs: `scale = max|row| / 127`, `q = round(v /
//! scale)` clamped to `[-127, 127]`, rounding to nearest with ties away
//! from zero (implemented branch-free in [`round_clamped`], which every
//! quantisation path shares). One deterministic rounding everywhere means
//! requantising the same f32 row always produces the same codes — the
//! property the delta-coherence tests pin (an incrementally re-quantised
//! table must equal a from-scratch quantisation of the same f32 table).
//!
//! The user vector is quantised per request by [`quantize_user_into`] into
//! *offset-binary* u8 (`stored = q + 128`), the unsigned operand layout of
//! AVX-512 VNNI's `vpdpbusd`.

use crate::kernels::QuantView;
use crate::storage::TableStorage;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a set of int8 table parts is not a table the scoring kernels may
/// read: every ISA tier must see the same scale, row sum and row norm the
/// codes imply, or the tiers (the VNNI body folds its bias out with the
/// *stored* row sums, the others compute from the codes) rank differently.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantTableError {
    /// A part's length disagrees with the `rows x cols` geometry.
    Geometry {
        /// Recorded row count.
        rows: usize,
        /// Recorded width.
        cols: usize,
        /// Lengths of the codes, scales, row sums and row norms.
        lens: [usize; 4],
    },
    /// A row's scale is non-finite or negative.
    Scale {
        /// The row.
        row: usize,
        /// Its stored scale.
        scale: f32,
    },
    /// A row's stored `sum q` or `sum q^2` disagrees with its codes.
    Statistics {
        /// The row.
        row: usize,
    },
}

impl fmt::Display for QuantTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantTableError::Geometry { rows, cols, lens } => write!(
                f,
                "parts disagree with a {rows}x{cols} table: {} codes, {} scales, {} sums, {} norms",
                lens[0], lens[1], lens[2], lens[3]
            ),
            QuantTableError::Scale { row, scale } => write!(f, "row {row} has non-finite or negative scale {scale}"),
            QuantTableError::Statistics { row } => write!(f, "row {row} statistics disagree with its codes"),
        }
    }
}

impl std::error::Error for QuantTableError {}

/// An int8-quantised embedding table: row-major i8 codes with per-row f32
/// scales and the integer row statistics used by the scoring kernels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTable {
    rows: usize,
    cols: usize,
    data: TableStorage<i8>,
    scales: TableStorage<f32>,
    row_sums: TableStorage<i32>,
    row_norms: TableStorage<i32>,
}

/// `round(v * inv)` clamped to `[-127, 127]`, with ties away from zero.
///
/// Equivalent to `(v * inv).round().clamp(-127.0, 127.0) as i32` but
/// without the `roundf` libm call `f32::round` lowers to on baseline
/// x86-64 (no single instruction implements ties-away): adding a
/// sign-matched 0.5 and truncating (`as i32` is truncation) is *exactly*
/// ties-away rounding whenever `x + 0.5` is representable, which holds for
/// all |x| < 2^22 — far beyond the ±~128 quantisation domain (the clamp
/// owns everything outside it, and NaN casts to 0 either way).
#[inline(always)]
fn round_clamped(v: f32, inv: f32) -> i32 {
    let x = v * inv;
    ((x + 0.5f32.copysign(x)) as i32).clamp(-127, 127)
}

/// Quantises one f32 row into i8 codes, returning `(scale, sum q, sum q^2)`.
fn quantize_row(src: &[f32], out: &mut [i8]) -> (f32, i32, i32) {
    debug_assert_eq!(src.len(), out.len());
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        out.fill(0);
        return (0.0, 0, 0);
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    let mut sum = 0i32;
    let mut norm = 0i32;
    for (o, &v) in out.iter_mut().zip(src.iter()) {
        let q = round_clamped(v, inv);
        sum += q;
        norm += q * q;
        *o = q as i8;
    }
    (scale, sum, norm)
}

impl QuantizedTable {
    /// Quantises a dense f32 table (given as `rows * cols` row-major data).
    pub(crate) fn from_rows(rows: usize, cols: usize, data: &[f32]) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        let mut table = QuantizedTable {
            rows,
            cols,
            data: vec![0i8; rows * cols].into(),
            scales: vec![0.0; rows].into(),
            row_sums: vec![0; rows].into(),
            row_norms: vec![0; rows].into(),
        };
        for r in 0..rows {
            table.requantize_row(r, &data[r * cols..(r + 1) * cols]);
        }
        table
    }

    /// Quantises a [`Tensor`](crate::tensor::Tensor).
    pub fn from_tensor(t: &crate::tensor::Tensor) -> Self {
        Self::from_rows(t.rows(), t.cols(), t.as_slice())
    }

    /// Assembles a table from pre-built storage parts (the zero-copy v2
    /// artifact load: every part is a borrowed view into the mapped
    /// region), refusing parts that fail [`QuantizedTable::validate`]. The
    /// check is one pass over the codes.
    pub fn from_storage_parts(
        rows: usize,
        cols: usize,
        data: TableStorage<i8>,
        scales: TableStorage<f32>,
        row_sums: TableStorage<i32>,
        row_norms: TableStorage<i32>,
    ) -> Result<Self, QuantTableError> {
        let table = QuantizedTable {
            rows,
            cols,
            data,
            scales,
            row_sums,
            row_norms,
        };
        table.validate()?;
        Ok(table)
    }

    /// Whether the codes are still a borrowed view into a mapped region.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding width.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Re-quantises row `r` in place from a fresh f32 row (the delta-ingest
    /// path: exactly the dirty re-encoded rows are refreshed). Never
    /// allocates.
    pub fn requantize_row(&mut self, r: usize, src: &[f32]) {
        debug_assert!(r < self.rows);
        debug_assert_eq!(src.len(), self.cols);
        let (scale, sum, norm) = quantize_row(src, &mut self.data[r * self.cols..(r + 1) * self.cols]);
        self.scales[r] = scale;
        self.row_sums[r] = sum;
        self.row_norms[r] = norm;
    }

    /// Changes the row count in place, keeping the column width. Existing
    /// rows are preserved; new rows are zero-filled (scale 0 — a zero
    /// embedding). Mirrors [`Tensor::resize_rows`](crate::tensor::Tensor::resize_rows)
    /// for the online-update path.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0);
        self.scales.resize(rows, 0.0);
        self.row_sums.resize(rows, 0);
        self.row_norms.resize(rows, 0);
        self.rows = rows;
    }

    /// Borrowed kernel-ABI view of the table.
    #[inline]
    pub fn view(&self) -> QuantView<'_> {
        QuantView {
            cols: self.cols,
            data: &self.data,
            scales: &self.scales,
            row_sums: &self.row_sums,
            row_norms: &self.row_norms,
        }
    }

    /// Dequantises row `r` into `out` (`scale * q` per element).
    #[cfg(test)]
    pub(crate) fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        debug_assert!(r < self.rows);
        debug_assert_eq!(out.len(), self.cols);
        let s = self.scales[r];
        for (o, &q) in out.iter_mut().zip(self.data[r * self.cols..(r + 1) * self.cols].iter()) {
            *o = s * q as f32;
        }
    }

    /// Structural validation: every buffer length must match the recorded
    /// geometry, scales must be finite and non-negative, and the stored row
    /// statistics must equal the codes they summarise. Returns the first
    /// inconsistency.
    pub fn validate(&self) -> Result<(), QuantTableError> {
        let lens = [
            self.data.len(),
            self.scales.len(),
            self.row_sums.len(),
            self.row_norms.len(),
        ];
        if self.rows.checked_mul(self.cols) != Some(lens[0]) || lens[1..].iter().any(|&len| len != self.rows) {
            return Err(QuantTableError::Geometry {
                rows: self.rows,
                cols: self.cols,
                lens,
            });
        }
        for (row, &scale) in self.scales.iter().enumerate() {
            if !scale.is_finite() || scale < 0.0 {
                return Err(QuantTableError::Scale { row, scale });
            }
        }
        for row in 0..self.rows {
            let codes = &self.data[row * self.cols..(row + 1) * self.cols];
            let sum: i32 = codes.iter().map(|&q| q as i32).sum();
            let norm: i32 = codes.iter().map(|&q| (q as i32).pow(2)).sum();
            if sum != self.row_sums[row] || norm != self.row_norms[row] {
                return Err(QuantTableError::Statistics { row });
            }
        }
        Ok(())
    }
}

/// Quantises a user row into offset-binary u8 codes (`stored = q + 128`),
/// returning `(scale, sum q^2)` — the [`QuantUser`](crate::kernels::QuantUser)
/// fields. Writes into a caller-owned buffer, so the per-request path never
/// allocates. A zero vector quantises to scale 0 with all-zero codes.
pub fn quantize_user_into(src: &[f32], out: &mut [u8]) -> (f32, i32) {
    debug_assert_eq!(src.len(), out.len());
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        out.fill(128);
        return (0.0, 0);
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    let mut norm = 0i32;
    for (o, &v) in out.iter_mut().zip(src.iter()) {
        let q = round_clamped(v, inv);
        norm += q * q;
        *o = (q + 128) as u8;
    }
    (scale, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{score_candidates_dot_serial, score_candidates_quant_dot, QuantUser};
    use crate::tensor::Tensor;

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
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

    #[test]
    fn roundtrip_error_is_bounded_by_half_a_step() {
        let (rows, cols) = (7usize, 33usize);
        let data = pseudo(1, rows * cols);
        let t = Tensor::from_vec(rows, cols, data.clone()).unwrap();
        let q = QuantizedTable::from_tensor(&t);
        assert!(q.validate().is_ok());
        let mut row = vec![0.0f32; cols];
        for r in 0..rows {
            q.dequantize_row_into(r, &mut row);
            let max_abs = data[r * cols..(r + 1) * cols]
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            let half_step = 0.5 * max_abs / 127.0 + 1e-7;
            for (c, &back) in row.iter().enumerate() {
                let orig = data[r * cols + c];
                assert!(
                    (back - orig).abs() <= half_step,
                    "row {r} col {c}: {back} vs {orig} (step {half_step})"
                );
            }
        }
    }

    #[test]
    fn requantize_matches_fresh_quantisation_exactly() {
        // The delta path re-quantises dirty rows in place; the result must
        // equal a from-scratch quantisation of the updated f32 table.
        let (rows, cols) = (5usize, 16usize);
        let mut data = pseudo(2, rows * cols);
        let mut q = QuantizedTable::from_rows(rows, cols, &data);
        for &dirty in &[0usize, 3, 4] {
            for v in &mut data[dirty * cols..(dirty + 1) * cols] {
                *v = *v * 1.7 - 0.1;
            }
            q.requantize_row(dirty, &data[dirty * cols..(dirty + 1) * cols]);
        }
        let fresh = QuantizedTable::from_rows(rows, cols, &data);
        assert_eq!(q, fresh);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn resize_and_copy_preserve_rows() {
        let (rows, cols) = (4usize, 8usize);
        let data = pseudo(3, rows * cols);
        let src = QuantizedTable::from_rows(rows, cols, &data);
        let mut dst = src.clone();
        dst.resize_rows(6);
        assert_eq!(dst.rows(), 6);
        assert!(dst.validate().is_ok(), "new rows must be valid zero rows");
        let mut got = vec![0.0f32; cols];
        let mut want = vec![0.0f32; cols];
        for r in 0..rows {
            dst.dequantize_row_into(r, &mut got);
            src.dequantize_row_into(r, &mut want);
            assert_eq!(got, want, "row {r} must survive the growth");
        }
        dst.dequantize_row_into(5, &mut got);
        assert_eq!(got, vec![0.0f32; cols]);
        dst.resize_rows(rows);
        assert_eq!(dst, src, "shrinking back drops only the appended rows");
    }

    #[test]
    fn zero_rows_and_zero_users_are_well_defined() {
        let q = QuantizedTable::from_rows(2, 4, &[0.0; 8]);
        assert!(q.validate().is_ok());
        let mut uq = vec![0u8; 4];
        let (scale, norm) = quantize_user_into(&[0.0; 4], &mut uq);
        assert_eq!((scale, norm), (0.0, 0));
        assert!(uq.iter().all(|&b| b == 128));
        let user = QuantUser { q: &uq, scale, norm };
        let mut out = vec![f32::NAN; 2];
        score_candidates_quant_dot(q.view(), user, &[0, 1], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn quantised_dot_tracks_f32_dot() {
        // End-to-end sanity: quantised scores approximate the f32 scores to
        // within the combined step sizes of the two operands.
        let (rows, cols) = (50usize, 32usize);
        let table_f = pseudo(4, rows * cols);
        let user_f = pseudo(5, cols);
        let q = QuantizedTable::from_rows(rows, cols, &table_f);
        let mut uq = vec![0u8; cols];
        let (su, unorm) = quantize_user_into(&user_f, &mut uq);
        let user = QuantUser {
            q: &uq,
            scale: su,
            norm: unorm,
        };
        let items: Vec<u32> = (0..rows as u32).collect();
        let mut f32_scores = vec![0.0f32; rows];
        score_candidates_dot_serial(cols, &user_f, &table_f, &items, &mut f32_scores);
        let mut q_scores = vec![0.0f32; rows];
        score_candidates_quant_dot(q.view(), user, &items, &mut q_scores);
        for (r, (&qs, &fs)) in q_scores.iter().zip(f32_scores.iter()).enumerate() {
            // Error per element is bounded by half a step of each operand.
            assert!(
                (qs - fs).abs() < 0.02,
                "row {r}: quantised {qs} vs f32 {fs} drifted past the step bound"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_the_table() {
        let q = QuantizedTable::from_rows(3, 5, &pseudo(6, 15));
        let bytes = serde::to_bytes(&q);
        let back: QuantizedTable = serde::from_bytes(&bytes).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn validate_rejects_tampered_statistics() {
        let mut q = QuantizedTable::from_rows(2, 4, &pseudo(7, 8));
        q.row_sums[1] += 1;
        assert_eq!(q.validate(), Err(QuantTableError::Statistics { row: 1 }));
        let mut q2 = QuantizedTable::from_rows(2, 4, &pseudo(8, 8));
        q2.scales[0] = f32::NAN;
        assert!(matches!(q2.validate(), Err(QuantTableError::Scale { row: 0, .. })));
        let mut q3 = QuantizedTable::from_rows(2, 4, &pseudo(9, 8));
        q3.data.truncate(q3.data.len() - 1);
        assert!(matches!(q3.validate(), Err(QuantTableError::Geometry { .. })));
    }

    #[test]
    fn from_storage_parts_refuses_what_validate_refuses() {
        let q = QuantizedTable::from_rows(3, 4, &pseudo(11, 12));
        let parts = |q: &QuantizedTable| {
            let v = q.view();
            QuantizedTable::from_storage_parts(
                3,
                4,
                v.data.to_vec().into(),
                v.scales.to_vec().into(),
                v.row_sums.to_vec().into(),
                v.row_norms.to_vec().into(),
            )
        };
        assert_eq!(parts(&q).as_ref(), Ok(&q));
        let mut inf = q.clone();
        inf.scales[2] = f32::INFINITY;
        assert!(matches!(parts(&inf), Err(QuantTableError::Scale { row: 2, .. })));
        let mut norm = q.clone();
        norm.row_norms[0] -= 1;
        assert_eq!(parts(&norm), Err(QuantTableError::Statistics { row: 0 }));
    }

    #[test]
    fn table_bytes_is_about_a_quarter_of_f32() {
        let (rows, cols) = (1000usize, 32usize);
        let q = QuantizedTable::from_rows(rows, cols, &pseudo(10, rows * cols));
        let f32_bytes = rows * cols * std::mem::size_of::<f32>();
        // Codes plus the per-row scale, sum and norm: the storage a served
        // int8 table holds.
        let table_bytes = std::mem::size_of_val(q.data.as_slice())
            + std::mem::size_of_val(q.scales.as_slice())
            + std::mem::size_of_val(q.row_sums.as_slice())
            + std::mem::size_of_val(q.row_norms.as_slice());
        let ratio = f32_bytes as f64 / table_bytes as f64;
        assert!(ratio > 2.5, "compression ratio {ratio} too low (metadata overhead?)");
    }
}
