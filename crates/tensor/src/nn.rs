//! Small neural-network building blocks on top of the autodiff tape.
//!
//! CDRIB only needs dense (affine) layers and small MLPs: the VBGE's
//! per-layer weight matrices, the contrastive discriminator (a 3-layer MLP,
//! Eq. 15), and the EMCDR mapping function. These helpers register their
//! parameters in a [`ParamSet`] once and replay them on a [`Tape`] each
//! forward pass.

use crate::error::Result;
use crate::func::FuncCtx;
use crate::init::xavier_uniform;
use crate::params::{ParamId, ParamSet};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation functions supported by [`Linear`] and [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no nonlinearity).
    Identity,
    /// LeakyReLU with the given negative slope.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softplus (used for standard deviations).
    Softplus,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(&self, tape: &mut Tape, x: Var) -> Result<Var> {
        match *self {
            Activation::Identity => Ok(x),
            Activation::LeakyRelu(slope) => tape.leaky_relu(x, slope),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Softplus => tape.softplus(x),
        }
    }

    /// Applies the activation tape-free through the shared functional layer
    /// (same kernels as [`Activation::apply`], so results agree bit for bit).
    /// Takes ownership of `x` and recycles it when a new buffer is produced.
    pub(crate) fn apply_infer(&self, ctx: &mut FuncCtx, x: Tensor) -> Tensor {
        let out = match *self {
            Activation::Identity => return x,
            Activation::LeakyRelu(slope) => ctx.leaky_relu(&x, slope),
            Activation::Sigmoid => ctx.sigmoid(&x),
            Activation::Tanh => ctx.tanh(&x),
            Activation::Softplus => ctx.softplus(&x),
        };
        ctx.recycle(x);
        out
    }
}

/// A dense affine layer `y = act(x W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer's parameters in `params`.
    ///
    /// `name` must be unique within the parameter set; the layer registers
    /// `{name}.weight` and (optionally) `{name}.bias`.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        activation: Activation,
    ) -> Result<Self> {
        let weight = params.add(format!("{name}.weight"), xavier_uniform(rng, in_dim, out_dim))?;
        let bias = if bias {
            Some(params.add(format!("{name}.bias"), Tensor::zeros(1, out_dim))?)
        } else {
            None
        };
        Ok(Linear {
            weight,
            bias,
            activation,
            in_dim,
            out_dim,
        })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Runs the layer on the tape.
    pub fn forward(&self, tape: &mut Tape, params: &ParamSet, x: Var) -> Result<Var> {
        let w = tape.param(params, self.weight);
        let mut y = tape.matmul(x, w)?;
        if let Some(bias) = self.bias {
            let b = tape.param(params, bias);
            y = tape.add_row_broadcast(y, b)?;
        }
        self.activation.apply(tape, y)
    }

    /// Runs the layer tape-free through the shared functional layer. The
    /// result is bitwise identical to [`Linear::forward`]'s recorded value
    /// (both route through the same `func::*_into` computations).
    pub fn forward_infer(&self, ctx: &mut FuncCtx, params: &ParamSet, x: &Tensor) -> Result<Tensor> {
        let mut y = ctx.matmul(x, params.value(self.weight))?;
        if let Some(bias) = self.bias {
            let with_bias = ctx.add_row_broadcast(&y, params.value(bias))?;
            ctx.recycle(y);
            y = with_bias;
        }
        Ok(self.activation.apply_infer(ctx, y))
    }

    /// Sum of squared parameter values, used for L2 regularisation.
    pub fn l2(&self, params: &ParamSet) -> f32 {
        let mut total = params.value(self.weight).sum_squares();
        if let Some(bias) = self.bias {
            total += params.value(bias).sum_squares();
        }
        total
    }
}

/// A multi-layer perceptron built from [`Linear`] layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer dimensions.
    ///
    /// `dims = [in, h1, ..., out]` produces `dims.len() - 1` layers; every
    /// hidden layer uses `hidden_activation`, the final layer uses
    /// `output_activation`.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        rng: &mut R,
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Result<Self> {
        assert!(dims.len() >= 2, "an MLP needs at least an input and output dimension");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(Linear::new(
                params,
                rng,
                &format!("{name}.layer{i}"),
                dims[i],
                dims[i + 1],
                true,
                act,
            )?);
        }
        Ok(Mlp { layers })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The individual layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Runs the MLP on the tape.
    pub fn forward(&self, tape: &mut Tape, params: &ParamSet, x: Var) -> Result<Var> {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, params, h)?;
        }
        Ok(h)
    }

    /// Runs the MLP tape-free through the shared functional layer
    /// (bitwise-identical to the recorded [`Mlp::forward`] values).
    pub fn forward_infer(&self, ctx: &mut FuncCtx, params: &ParamSet, x: &Tensor) -> Result<Tensor> {
        let mut h = self.layers[0].forward_infer(ctx, params, x)?;
        for layer in &self.layers[1..] {
            let next = layer.forward_infer(ctx, params, &h)?;
            ctx.recycle(h);
            h = next;
        }
        Ok(h)
    }

    /// Sum of squared parameter values across all layers.
    pub fn l2(&self, params: &ParamSet) -> f32 {
        self.layers.iter().map(|l| l.l2(params)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::component_rng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = component_rng(0, "nn");
        let mut params = ParamSet::new();
        let layer = Linear::new(&mut params, &mut rng, "fc", 4, 3, true, Activation::Identity).unwrap();
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
        assert!(params.id_of("fc.weight").is_some());
        assert!(params.id_of("fc.bias").is_some());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(5, 4));
        let y = layer.forward(&mut tape, &params, x).unwrap();
        assert_eq!(tape.value(y).unwrap().shape(), (5, 3));
        assert!(layer.l2(&params) > 0.0);
    }

    #[test]
    fn linear_without_bias() {
        let mut rng = component_rng(1, "nn2");
        let mut params = ParamSet::new();
        let layer = Linear::new(&mut params, &mut rng, "fc", 2, 2, false, Activation::Sigmoid).unwrap();
        assert!(layer.bias.is_none());
        assert!(params.id_of("fc.bias").is_none());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(3, 2));
        let y = layer.forward(&mut tape, &params, x).unwrap();
        // sigmoid(0) = 0.5 everywhere
        assert!(tape
            .value(y)
            .unwrap()
            .as_slice()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn mlp_composes_layers() {
        let mut rng = component_rng(2, "mlp");
        let mut params = ParamSet::new();
        let mlp = Mlp::new(
            &mut params,
            &mut rng,
            "disc",
            &[8, 16, 8, 1],
            Activation::LeakyRelu(0.1),
            Activation::Identity,
        )
        .unwrap();
        assert_eq!(mlp.num_layers(), 3);
        assert_eq!(mlp.layers()[0].in_dim(), 8);
        assert_eq!(mlp.layers()[2].out_dim(), 1);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(4, 8));
        let y = mlp.forward(&mut tape, &params, x).unwrap();
        assert_eq!(tape.value(y).unwrap().shape(), (4, 1));
        assert!(mlp.l2(&params) > 0.0);
    }

    #[test]
    fn mlp_trains_toward_target() {
        // One gradient step on an MLP should reduce a simple regression loss.
        use crate::optim::{Adam, Optimizer};
        let mut rng = component_rng(3, "mlp-train");
        let mut params = ParamSet::new();
        let mlp = Mlp::new(
            &mut params,
            &mut rng,
            "net",
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Identity,
        )
        .unwrap();
        let x = crate::rng::normal_tensor(&mut rng, 16, 2, 1.0);
        let target = Tensor::ones(16, 1);
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.0);
        let mut losses = Vec::new();
        for _ in 0..30 {
            params.zero_grad();
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let pred = mlp.forward(&mut tape, &params, xv).unwrap();
            let tv = tape.constant(target.clone());
            let diff = tape.sub(pred, tv).unwrap();
            let sq = tape.mul(diff, diff).unwrap();
            let loss = tape.mean(sq).unwrap();
            let l = tape.backward(loss, &mut params).unwrap();
            losses.push(l);
            opt.step(&mut params).unwrap();
        }
        assert!(losses[losses.len() - 1] < losses[0] * 0.5, "losses: {losses:?}");
    }
}
