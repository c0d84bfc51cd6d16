//! Branchless transcendental approximations
//!
//! The VBGE forward/backward passes are full of exp/ln-shaped loops (softplus
//! heads, sigmoids inside BCE, the log term of the Gaussian KL). libm calls
//! serialise those loops; the polynomial approximations below are branchless
//! (compares compile to selects), so inside the same `#[target_feature]`
//! trampolines as the dense kernels LLVM vectorises the surrounding loops
//! 8/16-wide. Maximum relative error is ~2e-7 — far below the 1e-5 parity
//! tolerance the kernel suite guarantees and the finite-difference tolerance
//! of the gradient checks.

use super::elementwise::{map, zip_into};
use super::isa::*;

/// Cody-Waite split of `ln 2` shared by [`exp_approx`] and [`ln_approx`].
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Polynomial `exp(x)` (Cephes-style): split `x = n ln2 + r`, evaluate a
/// degree-5 polynomial on `r`, scale by `2^n` through the exponent bits.
/// Underflow saturates to 0 like libm; overflow returns `+inf` (branchless
/// select) so non-finite values still propagate to divergence checks.
#[inline(always)]
pub(crate) fn exp_approx(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    let overflow = x > 88.3;
    let x = x.clamp(-87.3, 88.3);
    let n = (x * LOG2E).round();
    let r = x - n * LN2_HI - n * LN2_LO;
    // exp(r) = 1 + r + r^2 * P(r) on |r| <= 0.5 ln2.
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let e = r * r * p + r + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) as u32) << 23);
    if overflow {
        f32::INFINITY
    } else {
        e * scale
    }
}

/// Polynomial `ln(x)` (Cephes-style): split the float into mantissa and
/// exponent, evaluate a degree-8 polynomial on `m - 1`, and recombine with
/// `e ln2`. Non-positive inputs are clamped to the smallest positive normal
/// (callers guard with an epsilon anyway).
#[inline(always)]
pub(crate) fn ln_approx(x: f32) -> f32 {
    let x = x.max(f32::MIN_POSITIVE);
    let bits = x.to_bits();
    let mut e = ((bits >> 23) as i32 - 126) as f32;
    let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000); // [0.5, 1)

    // Normalise the mantissa into [1/sqrt2, sqrt2) so the polynomial stays
    // accurate; branchless (compiles to a select/mask).
    let low = m < std::f32::consts::FRAC_1_SQRT_2;
    m = if low { m + m } else { m };
    e = if low { e - 1.0 } else { e };
    let f = m - 1.0;
    let mut p = 7.037_684e-2f32;
    p = p * f - 1.151_461e-1;
    p = p * f + 1.167_699_8e-1;
    p = p * f - 1.242_014_1e-1;
    p = p * f + 1.424_932_3e-1;
    p = p * f - 1.666_805_7e-1;
    p = p * f + 2.000_071_4e-1;
    p = p * f - 2.499_999_3e-1;
    p = p * f + 3.333_333e-1;
    let f2 = f * f;
    let mut r = f2 * f * p;
    r -= 0.5 * f2;
    r + f + e * LN2_HI + e * LN2_LO
}

/// Branchless polynomial `sin(x)` and `cos(x)` in one evaluation
/// (Cephes-style): reduce `x` to `r` in `[-pi/4, pi/4]` with the quadrant
/// count `k` (two-step Cody-Waite reduction so the subtraction stays
/// accurate), evaluate the degree-7 sine and degree-6 cosine minimax
/// polynomials on `r`, then swap/negate per quadrant. All compares compile
/// to selects, so loops over this function vectorise 8/16-wide inside the
/// same `#[target_feature]` trampolines as the other transcendental kernels.
/// Maximum absolute error is ~1e-7 over `|x| <= 4 pi` — far below the 1e-5
/// parity tolerance the kernel suite guarantees (the Box-Muller caller only
/// ever passes `[0, 2 pi)`).
#[inline(always)]
pub fn sin_cos_approx(x: f32) -> (f32, f32) {
    const FRAC_2_PI: f32 = std::f32::consts::FRAC_2_PI;
    // Cody-Waite split of pi/2: the f32-rounded high part plus the residual
    // `pi/2 - (FRAC_PI_2 as f64)`, so the two-step subtraction loses no
    // accuracy over the reduction range.
    const PI_2_HI: f32 = std::f32::consts::FRAC_PI_2;
    const PI_2_LO: f32 = -4.371_139e-8;
    let k = (x * FRAC_2_PI).round();
    let r = x - k * PI_2_HI - k * PI_2_LO;
    let r2 = r * r;
    // sin(r) = r + r^3 P(r^2) on the reduced range.
    let mut ps = -1.951_529_6e-4f32;
    ps = ps * r2 + 8.332_161e-3;
    ps = ps * r2 - 1.666_665_5e-1;
    let sin_r = r2 * r * ps + r;
    // cos(r) = 1 - r^2/2 + r^4 Q(r^2).
    let mut pc = 2.443_315_7e-5f32;
    pc = pc * r2 - 1.388_731_6e-3;
    pc = pc * r2 + 4.166_664_6e-2;
    let cos_r = r2 * r2 * pc - 0.5 * r2 + 1.0;
    // Quadrant fix-up: odd quadrants swap sin/cos, quadrants 2-3 negate the
    // sine, quadrants 1-2 negate the cosine. Branchless selects on lane
    // values.
    let q = k as i32;
    let swap = (q & 1) != 0;
    let s = if swap { cos_r } else { sin_r };
    let c = if swap { sin_r } else { cos_r };
    let s = if (q & 2) != 0 { -s } else { s };
    let c = if ((q + 1) & 2) != 0 { -c } else { c };
    (s, c)
}

/// Branchless sine (see [`sin_cos_approx`]).
#[inline(always)]
pub fn sin_approx(x: f32) -> f32 {
    sin_cos_approx(x).0
}

/// Branchless cosine (see [`sin_cos_approx`]).
#[inline(always)]
pub fn cos_approx(x: f32) -> f32 {
    sin_cos_approx(x).1
}

// ---------------------------------------------------------------------------
// Box-Muller transform (the reparameterisation-noise hot path)
// ---------------------------------------------------------------------------
//
// Every training step fills `n x F` noise buffers with standard-normal
// samples. The uniform draws themselves are cheap; what serialised the loop
// was one libm `ln` and one `sin_cos` call per *pair*. Transforming a whole
// buffer of uniforms at once through the branchless `ln_approx` /
// `sin_cos_approx` polynomials lets LLVM vectorise the entire transform
// 8/16-wide (an open ROADMAP lever since PR 2).

/// Reference scalar transform for [`box_muller`] using libm `ln`/`sin_cos`:
/// the parity baseline (`tests/kernel_parity.rs`) and the pre-vectorisation
/// behaviour benched against in `benches/kernels.rs`.
pub fn box_muller_serial(buf: &mut [f32], std: f32) {
    const TWO_PI: f32 = std::f32::consts::TAU;
    for pair in buf.chunks_exact_mut(2) {
        let u1 = pair[0].max(f32::MIN_POSITIVE);
        let r = (-2.0 * u1.ln()).sqrt() * std;
        let (sin, cos) = (TWO_PI * pair[1]).sin_cos();
        pair[0] = r * cos;
        pair[1] = r * sin;
    }
}

#[inline(always)]
pub(super) fn box_muller_body(buf: &mut [f32], std: f32) {
    const TWO_PI: f32 = std::f32::consts::TAU;
    for pair in buf.chunks_exact_mut(2) {
        // Clamping u1 away from zero bounds `r` at ~13.2 std deviations, so
        // the transform never produces a non-finite sample (the scalar seed
        // path re-drew on the — practically unreachable — infinite case).
        let u1 = pair[0].max(f32::MIN_POSITIVE);
        let r = (-2.0 * ln_approx(u1)).sqrt() * std;
        let (sin, cos) = sin_cos_approx(TWO_PI * pair[1]);
        pair[0] = r * cos;
        pair[1] = r * sin;
    }
}

/// Transforms a buffer of `Uniform[0, 1)` samples into i.i.d. `N(0, std^2)`
/// samples in place, consuming consecutive pairs `(u1, u2)` per Box-Muller
/// transform (`buf[2k] = r cos(theta)`, `buf[2k+1] = r sin(theta)`). A
/// trailing odd element is left untouched — callers handle it with a scalar
/// draw.
pub fn box_muller(buf: &mut [f32], std: f32) {
    dispatch!(buf => box_muller_body(buf, std))
}

/// Branchless numerically stable sigmoid built on [`exp_approx`].
#[inline(always)]
pub(super) fn sigmoid_approx(x: f32) -> f32 {
    let e = exp_approx(-x.abs());
    let s = 1.0 / (1.0 + e);
    if x >= 0.0 {
        s
    } else {
        1.0 - s
    }
}

/// Branchless numerically stable softplus `max(x, 0) + ln(1 + exp(-|x|))`
/// built on the approximations above.
#[inline(always)]
pub(super) fn softplus_approx(x: f32) -> f32 {
    x.max(0.0) + ln_approx(1.0 + exp_approx(-x.abs()))
}

// ---------------------------------------------------------------------------
// Fused forward/backward kernels for the hot loss / activation chains
// ---------------------------------------------------------------------------

/// Numerically stable logistic sigmoid.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + exp(x))`.
#[cfg(test)]
pub(crate) fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Vectorised softplus: `out[i] = ln(1 + exp(x[i]))`, stable at both tails.
pub(crate) fn softplus_forward(x: &[f32], out: &mut [f32]) {
    map(x, out, softplus_approx);
}

/// Vectorised logistic sigmoid: `out[i] = 1 / (1 + exp(-x[i]))`.
pub(crate) fn sigmoid_forward(x: &[f32], out: &mut [f32]) {
    map(x, out, sigmoid_approx);
}

/// Vectorised elementwise exponential.
pub(crate) fn exp_forward(x: &[f32], out: &mut [f32]) {
    map(x, out, exp_approx);
}

/// Vectorised elementwise natural logarithm of `x + eps`.
pub(crate) fn ln_forward(eps: f32, x: &[f32], out: &mut [f32]) {
    map(x, out, move |v| ln_approx(v + eps));
}

/// `sum(term(a[i], b[i]))`: eight f32 lane sums over the whole chunks
/// (vectorisable), folded together with the scalar tail in f64.
#[inline(always)]
pub(super) fn lane_sum_body(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    const LANES: usize = 8;
    let mut lanes = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..LANES {
            lanes[l] += term(ca[l], cb[l]);
        }
    }
    let mut total = lanes.iter().map(|&v| v as f64).sum::<f64>();
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        total += term(x, y) as f64;
    }
    total as f32
}

/// Fused BCE-with-logits forward: returns
/// `sum( max(x,0) - x*t + ln(1+exp(-|x|)) )` (callers divide by the count).
pub(crate) fn bce_logits_forward(logits: &[f32], targets: &[f32]) -> f32 {
    debug_assert_eq!(logits.len(), targets.len());
    dispatch!(lane_sum_body(logits, targets, |x, t| x.max(0.0) - x * t
        + ln_approx(1.0 + exp_approx(-x.abs()))))
}

/// Fused standard-normal KL forward: returns
/// `sum( 0.5 (mu^2 + sigma^2 - 2 ln(sigma + eps) - 1) )` over all elements
/// (callers divide by the row count).
pub(crate) fn kl_std_normal_forward(eps: f32, mu: &[f32], sigma: &[f32]) -> f32 {
    debug_assert_eq!(mu.len(), sigma.len());
    dispatch!(lane_sum_body(mu, sigma, |m, s| 0.5 * (m * m + s * s - 2.0 * ln_approx(s + eps) - 1.0)))
}

/// Fused backward of softplus: `out (+)= g * sigmoid(x)`, without
/// materialising the sigmoid tensor.
pub(crate) fn softplus_backward(accumulate: bool, x: &[f32], g: &[f32], out: &mut [f32]) {
    zip_into(accumulate, x, g, out, |xv, gv| gv * sigmoid_approx(xv));
}

/// Fused backward of mean BCE-with-logits: `out (+)= scale * (sigmoid(x) - t)`
/// where `scale` is the upstream gradient divided by the element count.
/// One vectorised pass; no intermediate sigmoid or difference tensors.
pub(crate) fn bce_logits_backward(accumulate: bool, scale: f32, logits: &[f32], targets: &[f32], out: &mut [f32]) {
    zip_into(accumulate, logits, targets, out, move |xv, tv| {
        scale * (sigmoid_approx(xv) - tv)
    });
}

#[inline(always)]
pub(super) fn kl_sigma_backward_body<const ACC: bool>(scale: f32, eps: f32, sigma: &[f32], out: &mut [f32]) {
    for (o, &sv) in out.iter_mut().zip(sigma.iter()) {
        let d = scale * (sv - 1.0 / (sv + eps));
        if ACC {
            *o += d;
        } else {
            *o = d;
        }
    }
}

/// Fused backward of the sigma half of the mean standard-normal KL:
/// `out (+)= scale * (sigma - 1 / (sigma + eps))`.
///
/// (The mu half is exactly an [`axpy`](super::axpy) with `alpha = scale`.)
pub(crate) fn kl_sigma_backward(accumulate: bool, scale: f32, eps: f32, sigma: &[f32], out: &mut [f32]) {
    debug_assert_eq!(sigma.len(), out.len());
    if accumulate {
        dispatch!(out => kl_sigma_backward_body::<true>(scale, eps, sigma, out))
    } else {
        dispatch!(out => kl_sigma_backward_body::<false>(scale, eps, sigma, out))
    }
}
