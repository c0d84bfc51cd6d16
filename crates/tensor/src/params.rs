//! Trainable-parameter storage.
//!
//! A [`ParamSet`] owns every trainable tensor of a model together with its
//! gradient accumulator. Models register parameters once at construction time
//! and receive stable [`ParamId`] handles; the autodiff [`Tape`](crate::tape::Tape)
//! reads parameter values when a forward pass touches them and writes the
//! accumulated gradients back after `backward`.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stable handle to a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of the parameter (useful for optimizer state tables).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ParamEntry {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A named collection of trainable tensors and their gradients.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamSet {
    entries: Vec<ParamEntry>,
    by_name: HashMap<String, usize>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        ParamSet::default()
    }

    /// Registers a new parameter. Names must be unique.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> Result<ParamId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(TensorError::InvalidArgument {
                what: "ParamSet::add",
                detail: format!("duplicate parameter name `{name}`"),
            });
        }
        let grad = Tensor::zeros(value.rows(), value.cols());
        let id = self.entries.len();
        self.by_name.insert(name.clone(), id);
        self.entries.push(ParamEntry { name, value, grad });
        Ok(ParamId(id))
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of trainable scalar values.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Looks a parameter up by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied().map(ParamId)
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Iterator over `(id, name)` pairs.
    pub fn iter_ids(&self) -> impl Iterator<Item = (ParamId, &str)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ParamId(i), e.name.as_str()))
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable access to a parameter value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Immutable access to a parameter gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable access to a parameter gradient.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Simultaneous mutable access to a parameter's value and shared access
    /// to its gradient — the split borrow optimizers need to apply an update
    /// without cloning the gradient first.
    pub(crate) fn value_and_grad(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let entry = &mut self.entries[id.0];
        (&mut entry.value, &entry.grad)
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            e.grad.fill_zero();
        }
    }

    /// Adds `delta` into the gradient of `id`.
    pub(crate) fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) -> Result<()> {
        self.entries[id.0].grad.add_assign(delta)
    }

    /// Global L2 norm of all gradients (used for clipping / diagnostics).
    pub(crate) fn grad_norm(&self) -> f32 {
        self.entries.iter().map(|e| e.grad.sum_squares()).sum::<f32>().sqrt()
    }

    /// Scales every gradient so the global norm does not exceed `max_norm`.
    /// Returns the scaling factor applied (1.0 when no clipping happened).
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for e in &mut self.entries {
                e.grad.scale_in_place(scale);
            }
            scale
        } else {
            1.0
        }
    }

    /// Returns true if every parameter and gradient is finite.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|e| e.value.all_finite() && e.grad.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut p = ParamSet::new();
        let a = p.add("w1", Tensor::ones(2, 3)).unwrap();
        let b = p.add("w2", Tensor::zeros(4, 1)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 10);
        assert_eq!(p.id_of("w1"), Some(a));
        assert_eq!(p.id_of("nope"), None);
        assert_eq!(p.name(b), "w2");
        assert_eq!(p.value(a).sum(), 6.0);
        assert!(p.add("w1", Tensor::zeros(1, 1)).is_err());
        let ids: Vec<_> = p.iter_ids().map(|(_, n)| n.to_string()).collect();
        assert_eq!(ids, vec!["w1", "w2"]);
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut p = ParamSet::new();
        let a = p.add("w", Tensor::zeros(2, 2)).unwrap();
        p.accumulate_grad(a, &Tensor::ones(2, 2)).unwrap();
        p.accumulate_grad(a, &Tensor::ones(2, 2)).unwrap();
        assert_eq!(p.grad(a).sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad(a).sum(), 0.0);
        assert!(p.accumulate_grad(a, &Tensor::ones(3, 3)).is_err());
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut p = ParamSet::new();
        let a = p.add("w", Tensor::zeros(1, 2)).unwrap();
        *p.grad_mut(a) = Tensor::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((p.grad_norm() - 5.0).abs() < 1e-6);
        let s = p.clip_grad_norm(1.0);
        assert!((s - 0.2).abs() < 1e-6);
        assert!((p.grad_norm() - 1.0).abs() < 1e-5);
        let s2 = p.clip_grad_norm(10.0);
        assert_eq!(s2, 1.0);
    }

    #[test]
    fn l2_and_finiteness() {
        let mut p = ParamSet::new();
        let a = p.add("w", Tensor::full(2, 2, 2.0)).unwrap();
        assert!(p.all_finite());
        p.value_mut(a).set(0, 0, f32::NAN);
        assert!(!p.all_finite());
    }
}
