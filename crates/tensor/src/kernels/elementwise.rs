//! Elementwise accumulation kernels (gradient and optimizer update loops)

use super::isa::*;

/// Reference loop for [`axpy`] (the seed implementation).
#[cfg(test)]
pub(crate) fn axpy_serial(alpha: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += alpha * s;
    }
}

/// `dst += alpha * src`: the body of [`axpy`], and the row update inside the
/// sparse products and [`scatter_scaled_rows`].
#[inline(always)]
pub(super) fn axpy_body<const FUSE: bool>(alpha: f32, dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if FUSE {
            *d = alpha.mul_add(s, *d);
        } else {
            *d += alpha * s;
        }
    }
}

/// Elementwise `dst += alpha * src` (scaled gradient accumulation), SIMD
/// dispatched and chunk-threaded like the dense products (a buffer is
/// `len` rows of one column to `row_chunked`). Elementwise loops are
/// memory-bound, so the parallel split only engages for buffers past
/// [`PAR_MIN_FLOPS`] elements.
pub(crate) fn axpy(alpha: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    row_chunked(dst, 1, dst.len(), dst.len(), |i0, i1, d| {
        dispatch!(FUSE, d => axpy_body::<FUSE>(alpha, d, &src[i0..i1]));
    });
}

/// Elementwise `dst += src` (gradient accumulation).
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    axpy(1.0, dst, src);
}

/// Reference loop for [`scale_add`] (the seed formulation as two passes
/// collapsed into one).
#[cfg(test)]
pub(crate) fn scale_add_serial(beta: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = beta * *d + s;
    }
}

#[inline(always)]
pub(super) fn scale_add_body<const FUSE: bool>(beta: f32, dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if FUSE {
            *d = beta.mul_add(*d, s);
        } else {
            *d = beta * *d + s;
        }
    }
}

/// Elementwise `dst = beta * dst + src` (the momentum / moving-average
/// update), SIMD dispatched with the same threaded driver as [`axpy`].
pub(crate) fn scale_add(beta: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    row_chunked(dst, 1, dst.len(), dst.len(), |i0, i1, d| {
        dispatch!(FUSE, d => scale_add_body::<FUSE>(beta, d, &src[i0..i1]));
    });
}

// ---------------------------------------------------------------------------
// Dispatched generic elementwise loops
// ---------------------------------------------------------------------------
//
// The tape's elementwise ops (add, mul, LeakyReLU, dropout, backward
// accumulation closures) are pure arithmetic, but without `target_feature`
// the compiler may only vectorise them at the baseline SSE width. These
// entry points re-enter the same ISA dispatch seam as the dense kernels with
// the closure inlined into the feature-annotated trampoline, so the loops run
// 8/16-wide. Closures must be branch-light (selects are fine) for the
// vectoriser to succeed.

#[inline(always)]
pub(super) fn map_body<F: Fn(f32) -> f32>(x: &[f32], out: &mut [f32], f: &F) {
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = f(v);
    }
}

/// Elementwise `out[i] = f(x[i])` through the SIMD dispatch seam.
pub fn map(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(x.len(), out.len());
    dispatch!(out => map_body(x, out, &f))
}

#[inline(always)]
pub(super) fn zip_body<const ACC: bool, F: Fn(f32, f32) -> f32>(a: &[f32], b: &[f32], out: &mut [f32], f: &F) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        if ACC {
            *o += f(x, y);
        } else {
            *o = f(x, y);
        }
    }
}

/// `out[i] (+)= f(a[i], b[i])`: the shared entry of [`zip`], [`zip_accum`]
/// and the fused backward kernels, `accumulate` selecting `+=` over `=`.
#[inline]
pub(super) fn zip_into(accumulate: bool, a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    if accumulate {
        dispatch!(out => zip_body::<true, _>(a, b, out, &f))
    } else {
        dispatch!(out => zip_body::<false, _>(a, b, out, &f))
    }
}

/// Elementwise `out[i] = f(a[i], b[i])` through the SIMD dispatch seam.
pub fn zip(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    zip_into(false, a, b, out, f);
}

/// Elementwise `out[i] += f(a[i], b[i])` (fused gradient accumulation)
/// through the SIMD dispatch seam.
pub(crate) fn zip_accum(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    zip_into(true, a, b, out, f);
}

/// Fused backward of LeakyReLU: `out (+)= g * (x >= 0 ? 1 : slope)`.
///
/// Folds the gradient-of-activation elementwise product and the accumulation
/// into one pass so no intermediate gradient tensor is materialised;
/// `accumulate` selects `+=` (an upstream gradient already arrived) vs `=`.
pub(crate) fn leaky_relu_backward(accumulate: bool, slope: f32, x: &[f32], g: &[f32], out: &mut [f32]) {
    zip_into(
        accumulate,
        x,
        g,
        out,
        move |xv, gv| if xv >= 0.0 { gv } else { gv * slope },
    );
}

/// One fused Adam update pass over a parameter buffer: updates the moment
/// estimates in place and applies the bias-corrected step to `value`,
/// without any of the temporary tensors the unfused formulation needs.
///
/// `bias1 = 1 - beta1^t`, `bias2 = 1 - beta2^t` for step count `t`.
pub(crate) fn adam_update(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    beta1: f32,
    beta2: f32,
    eps: f32,
    lr: f32,
    bias1: f32,
    bias2: f32,
) {
    debug_assert_eq!(value.len(), grad.len());
    debug_assert_eq!(value.len(), m.len());
    debug_assert_eq!(value.len(), v.len());
    for i in 0..value.len() {
        let g = grad[i];
        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g);
        let m_hat = m[i] / bias1;
        let v_hat = v[i] / bias2;
        value[i] -= lr * (m_hat / (v_hat.sqrt() + eps));
    }
}
