//! Weight-initialisation schemes.
//!
//! CDRIB and all baselines use Xavier/Glorot initialisation for dense layers
//! and scaled normal initialisation for embedding tables, matching the common
//! PyTorch defaults used by the reference implementations.

use crate::rng::{normal_tensor, uniform_tensor};
use crate::tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_tensor(rng, fan_in, fan_out, -a, a)
}

/// Embedding-table initialisation: `N(0, std^2)` with a small std so that
/// initial inner products stay in the linear regime of the sigmoid.
pub fn embedding_normal<R: Rng + ?Sized>(rng: &mut R, rows: usize, dim: usize, std: f32) -> Tensor {
    normal_tensor(rng, rows, dim, std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::component_rng;

    #[test]
    fn xavier_uniform_bounds() {
        let mut rng = component_rng(0, "xu");
        let w = xavier_uniform(&mut rng, 64, 64);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= a));
        assert_eq!(w.shape(), (64, 64));
    }

    #[test]
    fn embedding_normal_std() {
        let mut rng = component_rng(2, "emb");
        let w = embedding_normal(&mut rng, 200, 32, 0.1);
        let var = w.sum_squares() / w.len() as f32;
        assert!((var - 0.01).abs() < 0.004);
    }
}
