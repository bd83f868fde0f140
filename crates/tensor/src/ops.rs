//! Activation functions and channel-wise softmax with their gradients.

use crate::{Result, Tensor, TensorError};

/// ReLU forward: `max(x, 0)` elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| if v > 0.0 { v } else { 0.0 })
}

/// ReLU backward: passes `grad_out` where the *forward input* was positive.
pub fn relu_backward(grad_out: &Tensor, forward_input: &Tensor) -> Result<Tensor> {
    if !grad_out.shape().same_as(forward_input.shape()) {
        return Err(TensorError::ShapeMismatch {
            op: "relu_backward",
            lhs: grad_out.shape().dims().to_vec(),
            rhs: forward_input.shape().dims().to_vec(),
        });
    }
    let data = grad_out
        .data()
        .iter()
        .zip(forward_input.data().iter())
        .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
        .collect();
    Tensor::from_vec(grad_out.shape().clone(), data)
}

/// Per-pixel softmax over the channel axis of a `(1, C, H, W)` tensor.
///
/// Numerically stabilised by subtracting the per-pixel max.
pub fn softmax_channels(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    if n != 1 {
        return Err(TensorError::InvalidArgument(
            "softmax_channels expects batch size 1".into(),
        ));
    }
    let plane = h * w;
    let mut out = Tensor::zeros(x.shape().clone());
    let xin = x.data();
    let xout = out.data_mut();
    for p in 0..plane {
        let mut maxv = f32::NEG_INFINITY;
        for ci in 0..c {
            maxv = maxv.max(xin[ci * plane + p]);
        }
        let mut denom = 0.0f32;
        for ci in 0..c {
            let e = (xin[ci * plane + p] - maxv).exp();
            xout[ci * plane + p] = e;
            denom += e;
        }
        let inv = 1.0 / denom;
        for ci in 0..c {
            xout[ci * plane + p] *= inv;
        }
    }
    Ok(out)
}

/// Per-pixel log-softmax over the channel axis of a `(1, C, H, W)` tensor.
pub fn log_softmax_channels(x: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = x.shape().as_nchw()?;
    if n != 1 {
        return Err(TensorError::InvalidArgument(
            "log_softmax_channels expects batch size 1".into(),
        ));
    }
    let plane = h * w;
    let mut out = Tensor::zeros(x.shape().clone());
    let xin = x.data();
    let xout = out.data_mut();
    for p in 0..plane {
        let mut maxv = f32::NEG_INFINITY;
        for ci in 0..c {
            maxv = maxv.max(xin[ci * plane + p]);
        }
        let mut denom = 0.0f32;
        for ci in 0..c {
            denom += (xin[ci * plane + p] - maxv).exp();
        }
        let log_denom = denom.ln() + maxv;
        for ci in 0..c {
            xout[ci * plane + p] = xin[ci * plane + p] - log_denom;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random, Shape};

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        let gx = relu_backward(&g, &x).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_shape_check() {
        let g = Tensor::zeros(Shape::vector(3));
        let x = Tensor::zeros(Shape::vector(4));
        assert!(relu_backward(&g, &x).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = random::uniform(Shape::nchw(1, 5, 3, 4), -100.0, 100.0, 2);
        let s = softmax_channels(&x).unwrap();
        assert!(s.all_finite());
        let plane = 12;
        for p in 0..plane {
            let total: f32 = (0..5).map(|c| s.data()[c * plane + p]).sum();
            assert!((total - 1.0).abs() < 1e-4, "pixel {p} sums to {total}");
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let x = random::uniform(Shape::nchw(1, 4, 2, 2), -3.0, 3.0, 3);
        let s = softmax_channels(&x).unwrap();
        let ls = log_softmax_channels(&x).unwrap();
        for (a, b) in s.data().iter().zip(ls.data().iter()) {
            assert!((a.ln() - b).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_requires_4d() {
        let x = Tensor::zeros(Shape::matrix(3, 3));
        assert!(softmax_channels(&x).is_err());
        assert!(log_softmax_channels(&x).is_err());
    }
}
