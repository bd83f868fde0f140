//! The student block of Fig. 3a.
//!
//! One block is: BatchNorm → Conv 3×3 (optionally strided) → Conv 3×1 →
//! Conv 1×3 → Conv 1×1, with a residual connection from the block input to
//! the block output. ReLU activations follow the batch-norm and each of the
//! first three convolutions. When the block changes channel count or spatial
//! resolution the residual passes through a 1×1 projection convolution so the
//! shapes line up (the standard ResNet-style shortcut treatment).

use crate::layers::{BatchNorm2d, Conv2d, Relu};
use crate::param::ParamVisitor;
use crate::Result;
use st_tensor::conv::{Conv2dSpec, Epilogue};
use st_tensor::Tensor;

/// A residual student block (Fig. 3a of the paper).
#[derive(Debug, Clone)]
pub struct StudentBlock {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Spatial stride applied by the 3×3 convolution (and projection).
    pub stride: usize,
    bn: BatchNorm2d,
    relu_bn: Relu,
    conv33: Conv2d,
    relu33: Relu,
    conv31: Conv2d,
    relu31: Relu,
    conv13: Conv2d,
    relu13: Relu,
    conv11: Conv2d,
    proj: Option<Conv2d>,
}

impl StudentBlock {
    /// Create a block mapping `in_channels` to `out_channels` at `stride`.
    ///
    /// The three middle convolutions all use `out_channels` as their width.
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self> {
        let conv33 = Conv2d::new(
            &format!("{name}.conv33"),
            Conv2dSpec::square(in_channels, out_channels, 3, stride),
            seed.wrapping_mul(31).wrapping_add(1),
        )?;
        let conv31 = Conv2d::new(
            &format!("{name}.conv31"),
            Conv2dSpec::rect(out_channels, out_channels, 3, 1),
            seed.wrapping_mul(31).wrapping_add(2),
        )?;
        let conv13 = Conv2d::new(
            &format!("{name}.conv13"),
            Conv2dSpec::rect(out_channels, out_channels, 1, 3),
            seed.wrapping_mul(31).wrapping_add(3),
        )?;
        let conv11 = Conv2d::new(
            &format!("{name}.conv11"),
            Conv2dSpec::square(out_channels, out_channels, 1, 1),
            seed.wrapping_mul(31).wrapping_add(4),
        )?;
        let proj = if in_channels != out_channels || stride != 1 {
            Some(Conv2d::new(
                &format!("{name}.proj"),
                Conv2dSpec::square(in_channels, out_channels, 1, stride),
                seed.wrapping_mul(31).wrapping_add(5),
            )?)
        } else {
            None
        };
        Ok(StudentBlock {
            in_channels,
            out_channels,
            stride,
            bn: BatchNorm2d::new(&format!("{name}.bn"), in_channels),
            relu_bn: Relu::new(),
            conv33,
            relu33: Relu::new(),
            conv31,
            relu31: Relu::new(),
            conv13,
            relu13: Relu::new(),
            conv11,
            proj,
        })
    }

    /// Training-mode forward pass (caches everything backward needs). Each
    /// convolution applies its ReLU, or `conv11` the residual add, as it
    /// writes its output; the ReLU layers keep those outputs for backward.
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let x = self.bn.forward_train(input)?;
        let x = self.relu_bn.forward(&x);
        let x = self.relu33.keep(self.conv33.forward(&x, Epilogue::RELU)?);
        let x = self.relu31.keep(self.conv31.forward(&x, Epilogue::RELU)?);
        let x = self.relu13.keep(self.conv13.forward(&x, Epilogue::RELU)?);
        let shortcut = match &mut self.proj {
            Some(p) => p.forward(input, Epilogue::NONE)?,
            None => input.clone(),
        };
        self.conv11.forward(&x, Epilogue::residual(&shortcut))
    }

    /// Drop every layer's forward cache (lets go of the activations kept for
    /// a backward pass).
    pub fn clear_caches(&mut self) {
        self.bn.clear_cache();
        self.relu_bn = Relu::new();
        self.conv33.clear_cache();
        self.relu33 = Relu::new();
        self.conv31.clear_cache();
        self.relu31 = Relu::new();
        self.conv13.clear_cache();
        self.relu13 = Relu::new();
        self.conv11.clear_cache();
        if let Some(p) = &mut self.proj {
            p.clear_cache();
        }
    }

    /// Inference-mode forward pass (running statistics, no caches): the
    /// batch-norm and its ReLU in one pass, every convolution's ReLU or
    /// residual add in its epilogue.
    pub fn forward_inference(&self, input: &Tensor) -> Result<Tensor> {
        let x = self.bn.forward_inference(input, true)?;
        let x = self.conv33.forward_inference(&x, Epilogue::RELU)?;
        let x = self.conv31.forward_inference(&x, Epilogue::RELU)?;
        let x = self.conv13.forward_inference(&x, Epilogue::RELU)?;
        let shortcut = match &self.proj {
            Some(p) => p.forward_inference(input, Epilogue::NONE)?,
            None => input.clone(),
        };
        self.conv11
            .forward_inference(&x, Epilogue::residual(&shortcut))
    }

    /// Backward pass. Accumulates parameter gradients; returns the gradient
    /// with respect to the block input when `need_input_grad` is true.
    pub fn backward(&mut self, grad_out: &Tensor, need_input_grad: bool) -> Result<Option<Tensor>> {
        // Main path.
        let g = self
            .conv11
            .backward(grad_out, true)?
            .expect("input grad requested");
        let g = self.relu13.backward(&g)?;
        let g = self
            .conv13
            .backward(&g, true)?
            .expect("input grad requested");
        let g = self.relu31.backward(&g)?;
        let g = self
            .conv31
            .backward(&g, true)?
            .expect("input grad requested");
        let g = self.relu33.backward(&g)?;
        // Whether the BN/conv33 front needs to propagate further down.
        let g = self
            .conv33
            .backward(&g, true)?
            .expect("input grad requested");
        let g = self.relu_bn.backward(&g)?;
        let main_in_grad = self.bn.backward(&g, need_input_grad)?;

        // Shortcut path: grad_out flows straight through the residual add.
        let shortcut_in_grad = match &mut self.proj {
            Some(p) => p.backward(grad_out, need_input_grad)?,
            None => {
                if need_input_grad {
                    Some(grad_out.clone())
                } else {
                    None
                }
            }
        };

        if !need_input_grad {
            return Ok(None);
        }
        let mut total = main_in_grad.expect("requested input grad");
        total.add_assign(&shortcut_in_grad.expect("requested input grad"))?;
        Ok(Some(total))
    }

    /// Total number of parameters in the block.
    pub fn param_count(&self) -> usize {
        let mut n = self.bn.param_count()
            + self.conv33.param_count()
            + self.conv31.param_count()
            + self.conv13.param_count()
            + self.conv11.param_count();
        if let Some(p) = &self.proj {
            n += p.param_count();
        }
        n
    }

    /// Visit the block's non-parameter state (the batch-norm running
    /// statistics) in a stable order.
    pub fn visit_buffers(
        &mut self,
        visitor: &mut dyn FnMut(&str, &mut Tensor, bool),
        trainable: bool,
    ) {
        self.bn.visit_buffers(visitor, trainable);
    }

    /// Visit all parameters in a stable order.
    pub fn visit_params(&mut self, visitor: &mut dyn ParamVisitor, trainable: bool) {
        self.bn.visit_params(visitor, trainable);
        self.conv33.visit_params(visitor, trainable);
        self.conv31.visit_params(visitor, trainable);
        self.conv13.visit_params(visitor, trainable);
        self.conv11.visit_params(visitor, trainable);
        if let Some(p) = &mut self.proj {
            p.visit_params(visitor, trainable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use st_tensor::{random, Shape};

    #[test]
    fn identity_shaped_block_has_no_projection() {
        let b = StudentBlock::new("sb", 8, 8, 1, 1).unwrap();
        assert!(b.proj.is_none());
        let b2 = StudentBlock::new("sb", 8, 16, 1, 1).unwrap();
        assert!(b2.proj.is_some());
        let b3 = StudentBlock::new("sb", 8, 8, 2, 1).unwrap();
        assert!(b3.proj.is_some());
    }

    #[test]
    fn forward_shapes() {
        let mut b = StudentBlock::new("sb", 4, 8, 2, 2).unwrap();
        let x = random::uniform(Shape::nchw(1, 4, 8, 12), -1.0, 1.0, 3);
        let y = b.forward_train(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 8, 4, 6]);
        let yi = b.forward_inference(&x).unwrap();
        assert_eq!(yi.shape().dims(), &[1, 8, 4, 6]);
    }

    #[test]
    fn batched_inference_matches_per_frame() {
        // The block's inference path is built from batched layers (batched
        // conv, running-stat batch norm, elementwise ReLU and the
        // residual add), so a stacked forward must equal per-frame forwards
        // bit-for-bit.
        let mut b = StudentBlock::new("sb", 3, 6, 2, 9).unwrap();
        // Nudge the running stats off their init values first.
        let warm = random::uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0, 10);
        b.forward_train(&warm).unwrap();
        let frames: Vec<Tensor> = (0..3)
            .map(|i| random::uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0, 20 + i))
            .collect();
        let refs: Vec<&Tensor> = frames.iter().collect();
        let batch = Tensor::stack_batch(&refs).unwrap();
        let batched = b.forward_inference(&batch).unwrap();
        assert_eq!(batched.shape().dims(), &[3, 6, 4, 4]);
        let out_len = 6 * 4 * 4;
        for (i, frame) in frames.iter().enumerate() {
            let solo = b.forward_inference(frame).unwrap();
            assert_eq!(
                solo.data(),
                &batched.data()[i * out_len..(i + 1) * out_len],
                "frame {i} differs from its batched slice"
            );
        }
    }

    #[test]
    fn backward_produces_finite_grads_for_all_params() {
        let mut b = StudentBlock::new("sb", 3, 6, 1, 4).unwrap();
        let x = random::uniform(Shape::nchw(1, 3, 6, 6), -1.0, 1.0, 5);
        let y = b.forward_train(&x).unwrap();
        let gin = b
            .backward(&Tensor::ones(y.shape().clone()), true)
            .unwrap()
            .unwrap();
        assert_eq!(gin.shape(), x.shape());
        assert!(gin.all_finite());
        let mut all_have_grad = true;
        let mut v = |p: &mut Param, _t: bool| {
            if !p.grad.all_finite() || p.grad.norm() == 0.0 {
                // Bias terms of later convs always receive gradient; batch-norm
                // beta too. Zero gradients indicate a wiring bug.
                all_have_grad = p.name.contains("proj");
            }
        };
        b.visit_params(&mut v, true);
        assert!(all_have_grad, "some parameter received no gradient");
    }

    #[test]
    fn block_gradient_matches_numerical_on_sample_weights() {
        let mut b = StudentBlock::new("sb", 2, 4, 1, 7).unwrap();
        let x = random::uniform(Shape::nchw(1, 2, 5, 5), -1.0, 1.0, 8);
        let coeff = random::uniform(Shape::nchw(1, 4, 5, 5), -1.0, 1.0, 9);
        // analytic
        let _ = b.forward_train(&x).unwrap();
        b.backward(&coeff, false).unwrap();
        let analytic = b.conv11.weight.grad.clone();
        // numerical on a few conv11 weights (last conv => unaffected by BN
        // running-stat drift between evaluations in training mode).
        let eps = 1e-2f32;
        for idx in [0usize, 3, 10] {
            let mut bp = b.clone();
            bp.conv11.weight.value.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.conv11.weight.value.data_mut()[idx] -= eps;
            let lp = bp.forward_train(&x).unwrap().mul(&coeff).unwrap().sum();
            let lm = bm.forward_train(&x).unwrap().mul(&coeff).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = analytic.data()[idx];
            assert!((num - ana).abs() < 5e-2, "idx {idx}: num {num} ana {ana}");
        }
    }

    #[test]
    fn param_count_consistent_with_visit() {
        let mut b = StudentBlock::new("sb", 5, 7, 2, 11).unwrap();
        let mut seen = 0usize;
        let mut v = |p: &mut Param, _| seen += p.numel();
        b.visit_params(&mut v, true);
        assert_eq!(seen, b.param_count());
    }
}
