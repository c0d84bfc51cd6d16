//! Deterministic random-number helpers.
//!
//! Every stochastic component in the reproduction (data generation, parameter
//! initialisation, negative sampling, dropout masks, reparameterisation
//! noise) draws from a [`Rng`](rand::Rng) seeded through this module so that
//! an experiment is fully determined by its `u64` seed.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives a child seed from a parent seed and a component label.
///
/// This is a small splitmix-style mix so that independent components (e.g.
/// "dropout" vs "negative-sampling") get decorrelated streams even though
/// they share the experiment seed.
pub(crate) fn derive_seed(parent: u64, label: &str) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ parent;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    h = h.wrapping_add(parent.rotate_left(17));
    h ^= h >> 29;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 32;
    h
}

/// Creates a [`StdRng`] for a named component of an experiment.
pub fn component_rng(seed: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, label))
}

/// Samples a standard-normal value using the Box-Muller transform.
///
/// We intentionally avoid `rand_distr` to stay within the allowed crate set;
/// Box-Muller is accurate enough for VAE reparameterisation noise.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        let z = r * theta.cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Samples a *pair* of independent standard-normal values from one
/// Box-Muller transform (using both the cosine and the sine branch), halving
/// the uniform draws and transcendentals per sample relative to
/// [`sample_standard_normal`].
pub(crate) fn sample_standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        let (sin, cos) = theta.sin_cos();
        let (z0, z1) = (r * cos, r * sin);
        if z0.is_finite() && z1.is_finite() {
            return (z0, z1);
        }
    }
}

/// Overwrites a buffer with i.i.d. `N(0, std^2)` samples (the
/// allocation-free counterpart of [`normal_tensor`], for pooled buffers).
///
/// The buffer is first filled with uniform draws (one per element, half the
/// uniforms of the unpaired transform), then transformed in place by the
/// vectorised Box-Muller kernel [`crate::kernels::box_muller`] — the whole
/// `ln`/`sin`/`cos` chain runs through the branchless polynomial
/// approximations, 8/16-wide. [`fill_normal_scalar`] keeps the libm
/// formulation as the parity/bench reference.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], std: f32) {
    let (pairs, rest) = buf.split_at_mut(buf.len() / 2 * 2);
    for u in pairs.iter_mut() {
        *u = rng.gen::<f32>();
    }
    crate::kernels::box_muller(pairs, std);
    if let [last] = rest {
        *last = sample_standard_normal(rng) * std;
    }
}

/// The pre-vectorisation formulation of [`fill_normal`]: pairwise scalar
/// Box-Muller through libm `ln`/`sin_cos`. Kept as the reference the
/// kernel-parity suite and the `fill_normal` bench pair compare against.
pub fn fill_normal_scalar<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], std: f32) {
    let (pairs, rest) = buf.split_at_mut(buf.len() / 2 * 2);
    for pair in pairs.chunks_exact_mut(2) {
        let (z0, z1) = sample_standard_normal_pair(rng);
        pair[0] = z0 * std;
        pair[1] = z1 * std;
    }
    if let [last] = rest {
        *last = sample_standard_normal(rng) * std;
    }
}

/// Fills a tensor with i.i.d. `N(0, std^2)` samples.
pub fn normal_tensor<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, std: f32) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    fill_normal(rng, t.as_mut_slice(), std);
    t
}

/// Fills a tensor with i.i.d. `Uniform(lo, hi)` samples.
pub(crate) fn uniform_tensor<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, lo: f32, hi: f32) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for v in t.as_mut_slice() {
        *v = rng.gen_range(lo..hi);
    }
    t
}

/// Overwrites a buffer with an inverted-dropout keep-mask scaled by
/// `1/keep_prob`.
///
/// `rate` is the probability of *dropping* an element. The mask is
/// multiplied elementwise with activations during training so that the
/// expected value matches evaluation-time behaviour.
pub fn fill_dropout_mask<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], rate: f32) {
    debug_assert!((0.0..1.0).contains(&rate));
    if rate <= 0.0 {
        buf.fill(1.0);
        return;
    }
    let keep = 1.0 - rate;
    let scale = 1.0 / keep;
    // Branch-free: the keep test is a coin flip the predictor cannot learn.
    // `scale * 1.0` and `scale * 0.0` are exactly `scale` and `0.0`.
    for v in buf {
        *v = scale * ((rng.gen::<f32>() < keep) as u32 as f32);
    }
}

/// Shuffles a slice in place with the Fisher-Yates algorithm.
pub fn shuffle_in_place<T, R: Rng + ?Sized>(rng: &mut R, items: &mut [T]) {
    if items.len() < 2 {
        return;
    }
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(derive_seed(42, "dropout"), derive_seed(42, "dropout"));
        assert_ne!(derive_seed(42, "dropout"), derive_seed(42, "negatives"));
        assert_ne!(derive_seed(42, "dropout"), derive_seed(43, "dropout"));
    }

    #[test]
    fn standard_normal_has_reasonable_moments() {
        let mut rng = component_rng(7, "normal-test");
        let n = 20_000;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..n {
            let v = sample_standard_normal(&mut rng) as f64;
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn uniform_tensor_respects_bounds() {
        let mut rng = component_rng(1, "uniform");
        let t = uniform_tensor(&mut rng, 10, 10, -0.5, 0.5);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn dropout_mask_preserves_expectation() {
        let mut rng = component_rng(3, "dropout");
        let rate = 0.3;
        let mut m = vec![0.0f32; 10_000];
        fill_dropout_mask(&mut rng, &mut m, rate);
        let mean = m.iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean of inverted dropout mask {mean}");
        let zero_frac = m.iter().filter(|&&v| v == 0.0).count() as f32 / 10_000.0;
        assert!((zero_frac - rate).abs() < 0.05);
        let mut none = [0.0f32; 16];
        fill_dropout_mask(&mut rng, &mut none, 0.0);
        assert_eq!(none, [1.0; 16]);
    }

    /// The branchy mask loop the branch-free one replaced.
    fn branchy_dropout_mask<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], rate: f32) {
        let keep = 1.0 - rate;
        let scale = 1.0 / keep;
        for v in buf {
            *v = if rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
    }

    #[test]
    fn dropout_mask_equals_the_branchy_loop_bitwise() {
        // Same draws, same mask bits, and the stream left in the same place.
        for rate in [0.1f32, 0.3, 0.5] {
            let (mut fast_rng, mut oracle_rng) = (component_rng(5, "mask"), component_rng(5, "mask"));
            let (mut fast, mut oracle) = (vec![f32::NAN; 1_003], vec![f32::NAN; 1_003]);
            fill_dropout_mask(&mut fast_rng, &mut fast, rate);
            branchy_dropout_mask(&mut oracle_rng, &mut oracle, rate);
            let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&oracle), "rate {rate}");
            assert_eq!(fast_rng.gen::<u64>(), oracle_rng.gen::<u64>(), "rate {rate}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = component_rng(9, "shuffle");
        let mut v: Vec<usize> = (0..100).collect();
        shuffle_in_place(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn normal_tensor_scales_std() {
        let mut rng = component_rng(11, "nt");
        let t = normal_tensor(&mut rng, 50, 50, 0.01);
        let var = t.sum_squares() / t.len() as f32;
        assert!(var < 0.001, "variance should be around 1e-4, got {var}");
    }
}
