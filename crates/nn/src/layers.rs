//! Elementary layers: 2-D convolution, batch normalisation, ReLU.
//!
//! Each layer owns its parameters (as [`Param`]s), their gradients, and the
//! forward-pass caches its backward pass needs, so a network is just a struct
//! of layers plus wiring. Backward passes *accumulate* into the parameter
//! gradients; the optimizer clears them after each step.

use crate::param::{Param, ParamVisitor};
use crate::Result;
use st_tensor::conv::{conv2d, conv2d_grads, Conv2dSpec, Epilogue};
use st_tensor::{ops, Shape, Tensor, TensorError};

/// A 2-D convolution layer with optional bias and ReLU-friendly Kaiming init.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Static convolution geometry.
    pub spec: Conv2dSpec,
    /// Kernel weights, `(out_c, in_c, kh, kw)`.
    pub weight: Param,
    /// Bias, `(out_c)`.
    pub bias: Param,
    cache: Option<ConvCache>,
}

/// What a training forward leaves for the backward pass: the layer's input,
/// shared with whoever produced it (a clone of the tensor's handle, not of
/// its data). The weight gradient reads its columns from it.
#[derive(Debug, Clone)]
struct ConvCache {
    input: Tensor,
}

impl Conv2d {
    /// Create a convolution layer with Kaiming-normal weights and zero bias.
    ///
    /// `name` prefixes the parameter names (`{name}.weight`, `{name}.bias`).
    pub fn new(name: &str, spec: Conv2dSpec, seed: u64) -> Result<Self> {
        spec.validate()?;
        let fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w;
        let weight = st_tensor::random::kaiming(spec.weight_shape(), fan_in, seed);
        let bias = Tensor::zeros(Shape::vector(spec.out_channels));
        Ok(Conv2d {
            spec,
            weight: Param::new(format!("{name}.weight"), weight),
            bias: Param::new(format!("{name}.bias"), bias),
            cache: None,
        })
    }

    /// Forward pass, keeping the input for the next backward call. The
    /// `epilogue` (a ReLU, a residual add) is applied as the output is
    /// written; a ReLU's layer keeps the result with [`Relu::keep`].
    pub fn forward(&mut self, input: &Tensor, epilogue: Epilogue<'_>) -> Result<Tensor> {
        let out = self.forward_inference(input, epilogue)?;
        self.cache = Some(ConvCache {
            input: input.clone(),
        });
        Ok(out)
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, input: &Tensor, epilogue: Epilogue<'_>) -> Result<Tensor> {
        conv2d(
            input,
            &self.weight.value,
            Some(&self.bias.value),
            &self.spec,
            epilogue,
        )
    }

    /// Backward pass. Accumulates weight/bias gradients and, when
    /// `need_input_grad` is true, returns the gradient w.r.t. the layer
    /// input.
    pub fn backward(&mut self, grad_out: &Tensor, need_input_grad: bool) -> Result<Option<Tensor>> {
        let cache = self.cache.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Conv2d::backward called before forward".into())
        })?;
        let grads = conv2d_grads(
            grad_out,
            &cache.input,
            &self.weight.value,
            &self.spec,
            need_input_grad,
        )?;
        self.weight.grad.add_assign(&grads.weight)?;
        self.bias.grad.add_assign(&grads.bias)?;
        Ok(grads.input)
    }

    /// Number of parameters (weights + bias).
    pub fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    /// Visit the layer's parameters in a stable order.
    pub fn visit_params(&mut self, visitor: &mut dyn ParamVisitor, trainable: bool) {
        visitor.visit(&mut self.weight, trainable);
        visitor.visit(&mut self.bias, trainable);
    }

    /// Drop the forward cache (lets go of the cached input).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Batch normalisation over the spatial dimensions of a single-image batch
/// (equivalent to instance normalisation for N = 1), with learned scale and
/// shift and running statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Number of channels.
    pub channels: usize,
    /// Learned per-channel scale (gamma).
    pub gamma: Param,
    /// Learned per-channel shift (beta).
    pub beta: Param,
    /// Running mean used in inference mode.
    pub running_mean: Tensor,
    /// Running variance used in inference mode.
    pub running_var: Tensor,
    /// Momentum for the running statistics update.
    pub momentum: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    input_shape: Shape,
}

impl BatchNorm2d {
    /// Create a batch-norm layer with unit scale and zero shift.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            channels,
            gamma: Param::new(
                format!("{name}.gamma"),
                Tensor::ones(Shape::vector(channels)),
            ),
            beta: Param::new(
                format!("{name}.beta"),
                Tensor::zeros(Shape::vector(channels)),
            ),
            running_mean: Tensor::zeros(Shape::vector(channels)),
            running_var: Tensor::ones(Shape::vector(channels)),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        let (n, c, h, w) = input.shape().as_nchw()?;
        if n != 1 || c != self.channels {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm",
                lhs: input.shape().dims().to_vec(),
                rhs: vec![1, self.channels, 0, 0],
            });
        }
        Ok((c, h, w))
    }

    /// Forward pass in training mode: normalise with batch statistics,
    /// update running statistics, cache what backward needs.
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let (c, h, w) = self.check_input(input)?;
        let plane = h * w;
        let mut out = Tensor::zeros(input.shape().clone());
        let mut x_hat = Tensor::zeros(input.shape().clone());
        let mut inv_stds = vec![0.0f32; c];
        {
            let xin = input.data();
            let xh = x_hat.data_mut();
            for ci in 0..c {
                let slice = &xin[ci * plane..(ci + 1) * plane];
                let mean = slice.iter().sum::<f32>() / plane as f32;
                let var = slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / plane as f32;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                inv_stds[ci] = inv_std;
                for (o, &x) in xh[ci * plane..(ci + 1) * plane]
                    .iter_mut()
                    .zip(slice.iter())
                {
                    *o = (x - mean) * inv_std;
                }
                // Running stats update.
                let rm = &mut self.running_mean.data_mut()[ci];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                let rv = &mut self.running_var.data_mut()[ci];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
            }
        }
        {
            let xh = x_hat.data();
            let od = out.data_mut();
            for ci in 0..c {
                let g = self.gamma.value.data()[ci];
                let b = self.beta.value.data()[ci];
                for (o, &xhv) in od[ci * plane..(ci + 1) * plane]
                    .iter_mut()
                    .zip(xh[ci * plane..(ci + 1) * plane].iter())
                {
                    *o = g * xhv + b;
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat,
            inv_std: inv_stds,
            input_shape: input.shape().clone(),
        });
        Ok(out)
    }

    /// Forward pass in inference mode: normalise with running statistics,
    /// then apply a ReLU in the same pass when `relu` is set (the one a
    /// block's batch-norm feeds).
    ///
    /// Accepts any batch size — the running statistics are per-channel
    /// constants, so each frame normalises independently and a batched call
    /// is bit-for-bit identical to per-frame calls.
    pub fn forward_inference(&self, input: &Tensor, relu: bool) -> Result<Tensor> {
        let (n, c, h, w) = input.shape().as_nchw()?;
        if c != self.channels {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm",
                lhs: input.shape().dims().to_vec(),
                rhs: vec![n, self.channels, 0, 0],
            });
        }
        let plane = h * w;
        let mut out = Tensor::zeros(input.shape().clone());
        let xin = input.data();
        let od = out.data_mut();
        for ni in 0..n {
            let base = ni * c * plane;
            for ci in 0..c {
                let mean = self.running_mean.data()[ci];
                let inv_std = 1.0 / (self.running_var.data()[ci] + self.eps).sqrt();
                let g = self.gamma.value.data()[ci];
                let b = self.beta.value.data()[ci];
                let lo = base + ci * plane;
                for (o, &x) in od[lo..lo + plane]
                    .iter_mut()
                    .zip(xin[lo..lo + plane].iter())
                {
                    let v = g * (x - mean) * inv_std + b;
                    *o = if !relu || v > 0.0 { v } else { 0.0 };
                }
            }
        }
        Ok(out)
    }

    /// Backward pass (training-mode statistics). Accumulates gamma/beta
    /// gradients and returns the input gradient when requested.
    pub fn backward(&mut self, grad_out: &Tensor, need_input_grad: bool) -> Result<Option<Tensor>> {
        let cache = self.cache.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("BatchNorm2d::backward called before forward_train".into())
        })?;
        if !grad_out.shape().same_as(&cache.input_shape) {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm_backward",
                lhs: grad_out.shape().dims().to_vec(),
                rhs: cache.input_shape.dims().to_vec(),
            });
        }
        let (_, c, h, w) = cache.input_shape.as_nchw()?;
        let plane = h * w;
        let go = grad_out.data();
        let xh = cache.x_hat.data();

        // Per channel `Σ dy·x̂` and `Σ dy`: the gamma/beta gradients, and
        // what the input gradient subtracts.
        let mut sum_dy_xhat = vec![0.0f32; c];
        let mut sum_dy = vec![0.0f32; c];
        {
            let ggamma = self.gamma.grad.data_mut();
            let gbeta = self.beta.grad.data_mut();
            for ci in 0..c {
                let mut dg = 0.0f32;
                let mut db = 0.0f32;
                for p in 0..plane {
                    let idx = ci * plane + p;
                    dg += go[idx] * xh[idx];
                    db += go[idx];
                }
                ggamma[ci] += dg;
                gbeta[ci] += db;
                (sum_dy_xhat[ci], sum_dy[ci]) = (dg, db);
            }
        }

        if !need_input_grad {
            return Ok(None);
        }

        // Input gradient with batch statistics:
        // dx = (gamma * inv_std / m) * (m*dy - sum(dy) - x_hat * sum(dy * x_hat))
        let mut gin = Tensor::zeros(cache.input_shape.clone());
        let gid = gin.data_mut();
        let m = plane as f32;
        for ci in 0..c {
            let g = self.gamma.value.data()[ci];
            let inv_std = cache.inv_std[ci];
            let scale = g * inv_std / m;
            for p in 0..plane {
                let idx = ci * plane + p;
                gid[idx] = scale * (m * go[idx] - sum_dy[ci] - xh[idx] * sum_dy_xhat[ci]);
            }
        }
        Ok(Some(gin))
    }

    /// Drop the forward cache (frees the normalised-activation buffer).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Visit the layer's non-parameter state (running statistics) with stable
    /// names derived from the layer name (`{name}.running_mean` / `.running_var`).
    ///
    /// Running statistics are not parameters — the optimizer must never touch
    /// them — but they are part of the weights a serving client needs, so
    /// snapshots include them.
    pub fn visit_buffers(
        &mut self,
        visitor: &mut dyn FnMut(&str, &mut Tensor, bool),
        trainable: bool,
    ) {
        let prefix = self
            .gamma
            .name
            .strip_suffix(".gamma")
            .unwrap_or(&self.gamma.name)
            .to_string();
        visitor(
            &format!("{prefix}.running_mean"),
            &mut self.running_mean,
            trainable,
        );
        visitor(
            &format!("{prefix}.running_var"),
            &mut self.running_var,
            trainable,
        );
    }

    /// Number of parameters (gamma + beta).
    pub fn param_count(&self) -> usize {
        2 * self.channels
    }

    /// Visit the layer's parameters in a stable order.
    pub fn visit_params(&mut self, visitor: &mut dyn ParamVisitor, trainable: bool) {
        visitor.visit(&mut self.gamma, trainable);
        visitor.visit(&mut self.beta, trainable);
    }
}

/// Stateless ReLU that caches its *output* for the backward pass: the
/// gradient passes where the output is positive, which is exactly where the
/// input was, and the output is the tensor the next layer keeps as its input
/// anyway — one buffer serves both.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache: Option<Tensor>,
}

impl Relu {
    /// Create a ReLU layer.
    pub fn new() -> Self {
        Relu { cache: None }
    }

    /// Forward pass (caches the output).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = ops::relu(input);
        self.cache = Some(out.clone());
        out
    }

    /// Keep `output` — a ReLU's output computed elsewhere, e.g. in a
    /// convolution's epilogue — as this layer's forward output, and return
    /// it.
    pub fn keep(&mut self, output: Tensor) -> Tensor {
        self.cache = Some(output.clone());
        output
    }

    /// Backward pass using the cached forward output.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let output = self.cache.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Relu::backward called before forward".into())
        })?;
        ops::relu_backward(grad_out, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::random;

    #[test]
    fn conv_layer_forward_backward_accumulates() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let mut layer = Conv2d::new("c", spec, 1).unwrap();
        let x = random::uniform(Shape::nchw(1, 2, 6, 6), -1.0, 1.0, 2);
        let y = layer.forward(&x, Epilogue::NONE).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3, 6, 6]);
        let g = Tensor::ones(y.shape().clone());
        let gin = layer.backward(&g, true).unwrap().unwrap();
        assert_eq!(gin.shape(), x.shape());
        let w_grad_norm_1 = layer.weight.grad.norm();
        assert!(w_grad_norm_1 > 0.0);
        // second backward accumulates
        layer.forward(&x, Epilogue::NONE).unwrap();
        layer.backward(&g, false).unwrap();
        assert!((layer.weight.grad.norm() - 2.0 * w_grad_norm_1).abs() < 1e-3);
    }

    #[test]
    fn conv_backward_before_forward_errors() {
        let spec = Conv2dSpec::square(1, 1, 1, 1);
        let mut layer = Conv2d::new("c", spec, 1).unwrap();
        let g = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(layer.backward(&g, false).is_err());
    }

    #[test]
    fn conv_backward_keeps_its_typed_errors_with_a_cached_input() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let mut layer = Conv2d::new("c", spec, 1).unwrap();
        let grad = Tensor::ones(Shape::nchw(1, 3, 6, 6));
        // No cached forward.
        assert!(matches!(
            layer.backward(&grad, true),
            Err(TensorError::InvalidArgument(m)) if m.contains("before forward")
        ));
        // A batched gradient (the forward accepts a batch; training does not).
        let batch = random::uniform(Shape::nchw(2, 2, 6, 6), -1.0, 1.0, 2);
        let out = layer.forward(&batch, Epilogue::NONE).unwrap();
        assert!(matches!(
            layer.backward(&out, true),
            Err(TensorError::InvalidArgument(m)) if m.contains("per-frame")
        ));
        // A cache left by a forward over another input size — what a layer
        // that was trainable under an earlier freeze point still holds.
        layer
            .forward(
                &random::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 3),
                Epilogue::NONE,
            )
            .unwrap();
        assert!(matches!(
            layer.backward(&grad, true),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert_eq!(
            layer.weight.grad.norm(),
            0.0,
            "a failed backward accumulates nothing"
        );
    }

    #[test]
    fn a_cleared_conv_holds_no_clone_of_its_input() {
        let mut layer = Conv2d::new("c", Conv2dSpec::square(2, 3, 3, 1), 1).unwrap();
        let mut x = random::uniform(Shape::nchw(1, 2, 6, 6), -1.0, 1.0, 2);
        let storage = x.storage_id();
        layer.forward(&x, Epilogue::NONE).unwrap();
        // The cache is a handle on the caller's tensor, not a copy of it ...
        layer.clear_cache();
        // ... and once cleared the caller owns the buffer alone again: a
        // write goes through in place instead of copying.
        x.data_mut()[0] = 1.0;
        assert_eq!(x.storage_id(), storage);
        // While cached, the same write must leave the cached input intact.
        layer.forward(&x, Epilogue::NONE).unwrap();
        x.data_mut()[0] = 2.0;
        assert_ne!(x.storage_id(), storage);
    }

    #[test]
    fn conv_param_visiting() {
        let spec = Conv2dSpec::square(2, 4, 3, 1);
        let mut layer = Conv2d::new("stem", spec, 3).unwrap();
        let mut names = vec![];
        let mut v = |p: &mut Param, t: bool| {
            names.push((p.name.clone(), t));
        };
        layer.visit_params(&mut v, true);
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].0, "stem.weight");
        assert_eq!(names[1].0, "stem.bias");
        assert!(names.iter().all(|(_, t)| *t));
        assert_eq!(layer.param_count(), 2 * 4 * 9 + 4);
    }

    #[test]
    fn batchnorm_normalises_in_training_mode() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let x = random::uniform(Shape::nchw(1, 3, 8, 8), 5.0, 9.0, 4);
        let y = bn.forward_train(&x).unwrap();
        // Per channel output should be ~zero-mean, ~unit-variance.
        let plane = 64;
        for c in 0..3 {
            let slice = &y.data()[c * plane..(c + 1) * plane];
            let mean: f32 = slice.iter().sum::<f32>() / plane as f32;
            let var: f32 =
                slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / plane as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
        // Running stats moved towards the batch stats.
        assert!(bn.running_mean.data()[0] > 0.0);
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1);
        let x = random::uniform(Shape::nchw(1, 1, 16, 16), 2.0, 4.0, 5);
        // Train a few times so running stats converge towards the batch stats.
        for _ in 0..50 {
            bn.forward_train(&x).unwrap();
        }
        let y = bn.forward_inference(&x, false).unwrap();
        let mean: f32 = y.mean();
        assert!(mean.abs() < 0.2, "inference mean {mean}");
    }

    #[test]
    fn batchnorm_backward_matches_numerical_gradient() {
        let mut bn = BatchNorm2d::new("bn", 2);
        bn.gamma.value = Tensor::from_slice(&[1.3, 0.7]);
        bn.beta.value = Tensor::from_slice(&[0.1, -0.2]);
        let x = random::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 6);
        let coeff = random::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 7);
        let loss = |bn: &mut BatchNorm2d, input: &Tensor| -> f32 {
            bn.forward_train(input).unwrap().mul(&coeff).unwrap().sum()
        };
        loss(&mut bn, &x);
        let gin = bn.backward(&coeff, true).unwrap().unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            // fresh BN copies so running stats don't interfere
            let mut bnp = bn.clone();
            let mut bnm = bn.clone();
            let num = (loss(&mut bnp, &xp) - loss(&mut bnm, &xm)) / (2.0 * eps);
            let ana = gin.data()[idx];
            assert!((num - ana).abs() < 3e-2, "idx {idx}: num {num} ana {ana}");
        }
    }

    #[test]
    fn batchnorm_rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new("bn", 4);
        let x = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        assert!(bn.forward_train(&x).is_err());
        assert!(bn.forward_inference(&x, false).is_err());
    }

    #[test]
    fn relu_layer_round_trip() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let y = r.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = r.backward(&Tensor::from_slice(&[3.0, 3.0])).unwrap();
        assert_eq!(g.data(), &[0.0, 3.0]);
        let mut fresh = Relu::new();
        assert!(fresh.backward(&x).is_err());
    }
}
