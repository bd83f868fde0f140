//! im2col-based 2-D convolution: forward pass and all three backward passes
//! (input gradient, weight gradient, bias gradient).
//!
//! The student blocks of the ShadowTutor paper use square 3×3, asymmetric
//! 3×1 / 1×3, and pointwise 1×1 kernels, optionally strided for
//! down-sampling, so the implementation supports independent kernel sizes,
//! strides and paddings per axis.
//!
//! The lowering ([`im2col_batched`], [`col2im`]) is every convolution of
//! every model in the repository — client inference, server evaluation,
//! training forward and backward, the CNN teacher — so it moves row spans,
//! not pixels: per `(channel, kh, kw)` row the valid output-x range is worked
//! out once, and each output row is then one slice copy (or slice `+=`) at
//! stride 1, one strided walk otherwise, in the element order a per-pixel
//! loop would use. A single-frame 1×1 / stride-1 / pad-0 convolution is not
//! lowered at all: its column matrix is the input's storage under another
//! shape. Both are bit-equal to the per-pixel bodies, which the tests keep
//! as the reference.

use crate::matmul::{matmul_nt, matmul_tn};
use crate::{Result, Shape, Tensor, TensorError};
use std::ops::Range;

/// Static configuration of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Vertical zero padding (applied on both sides).
    pub pad_h: usize,
    /// Horizontal zero padding (applied on both sides).
    pub pad_w: usize,
}

impl Conv2dSpec {
    /// A square `k`×`k` convolution with "same" padding at stride 1, or the
    /// conventional `k/2` padding when strided.
    pub fn square(in_channels: usize, out_channels: usize, k: usize, stride: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel_h: k,
            kernel_w: k,
            stride_h: stride,
            stride_w: stride,
            pad_h: k / 2,
            pad_w: k / 2,
        }
    }

    /// An asymmetric `kh`×`kw` convolution at stride 1 with "same" padding.
    pub fn rect(in_channels: usize, out_channels: usize, kh: usize, kw: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kernel_h: kh,
            kernel_w: kw,
            stride_h: 1,
            stride_w: 1,
            pad_h: kh / 2,
            pad_w: kw / 2,
        }
    }

    /// Validate the specification (non-zero kernel and stride).
    pub fn validate(&self) -> Result<()> {
        if self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidArgument(
                "kernel size must be non-zero".into(),
            ));
        }
        if self.stride_h == 0 || self.stride_w == 0 {
            return Err(TensorError::InvalidArgument(
                "stride must be non-zero".into(),
            ));
        }
        if self.in_channels == 0 || self.out_channels == 0 {
            return Err(TensorError::InvalidArgument(
                "channel counts must be non-zero".into(),
            ));
        }
        Ok(())
    }

    /// Output spatial size for an `(h, w)` input.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad_h).saturating_sub(self.kernel_h) / self.stride_h + 1;
        let ow = (w + 2 * self.pad_w).saturating_sub(self.kernel_w) / self.stride_w + 1;
        (oh, ow)
    }

    /// Shape of the weight tensor: `(out_c, in_c, kh, kw)`.
    pub fn weight_shape(&self) -> Shape {
        Shape::new(&[
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        ])
    }

    /// Number of multiply-accumulate operations for an `(h, w)` input.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_size(h, w);
        (oh * ow) as u64
            * self.out_channels as u64
            * self.in_channels as u64
            * (self.kernel_h * self.kernel_w) as u64
    }
}

impl Conv2dSpec {
    /// Whether the column matrix of a single frame *is* the frame: a 1×1
    /// kernel at stride 1 without padding reads every pixel exactly once, in
    /// storage order.
    fn is_pointwise(&self) -> bool {
        (self.kernel_h, self.kernel_w) == (1, 1)
            && (self.stride_h, self.stride_w) == (1, 1)
            && (self.pad_h, self.pad_w) == (0, 0)
    }

    /// For the tap at kernel column `kw` on a `w`-wide input row: the output
    /// columns `ox` that land inside the row and the input columns they read
    /// (`ix = ox * stride_w + kw - pad_w`, every `stride_w`-th of the second
    /// range). `None` when the tap only ever sees padding, e.g. the far taps
    /// when `w < kernel_w`.
    fn tap_span(&self, kw: usize, w: usize, ow: usize) -> Option<(Range<usize>, Range<usize>)> {
        let lo = self.pad_w.saturating_sub(kw).div_ceil(self.stride_w);
        let hi = ((w + self.pad_w).checked_sub(kw + 1)? / self.stride_w + 1).min(ow);
        if lo >= hi {
            return None;
        }
        let ix = |ox: usize| ox * self.stride_w + kw - self.pad_w;
        Some((lo..hi, ix(lo)..ix(hi - 1) + 1))
    }

    /// Input row a tap at kernel row `kh` reads for output row `oy`, or
    /// `None` when it falls into the vertical padding.
    fn input_row(&self, oy: usize, kh: usize, h: usize) -> Option<usize> {
        (oy * self.stride_h + kh)
            .checked_sub(self.pad_h)
            .filter(|&iy| iy < h)
    }
}

/// Lower a batch of input images into one im2col matrix.
///
/// The result has shape `(in_c * kh * kw, n * oh * ow)`: frame `ni` owns the
/// contiguous column block `[ni*oh*ow, (ni+1)*oh*ow)`, and each column holds
/// the receptive field of one output pixel. The whole batch therefore
/// becomes a *single* GEMM with the `(out_c, in_c*kh*kw)` weight matrix —
/// the lowering the multi-stream teacher pool uses to label co-scheduled key
/// frames in one forward pass.
///
/// Each `(ci, kh, kw)` row is moved in spans: the valid output-x range is
/// computed once per row, then every output row is one `copy_from_slice`
/// (stride 1) or one strided walk (stride 2) of the matching input row. A
/// single-frame pointwise convolution is not lowered at all — the returned
/// matrix shares the input's storage.
///
/// Each frame's column block is computed exactly as the single-frame
/// lowering would, so batched and per-frame convolutions are bit-for-bit
/// identical.
pub fn im2col_batched(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    spec.validate()?;
    let (n, c, h, w) = input.shape().as_nchw()?;
    if n == 0 {
        return Err(TensorError::InvalidArgument(
            "im2col_batched needs at least one frame".into(),
        ));
    }
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.shape().dims().to_vec(),
            rhs: vec![n, spec.in_channels, 0, 0],
        });
    }
    if n == 1 && spec.is_pointwise() {
        return input.reshape(Shape::matrix(c, h * w));
    }
    let (oh, ow) = spec.output_size(h, w);
    let rows = c * spec.kernel_h * spec.kernel_w;
    let plane = oh * ow;
    let cols = n * plane;
    let mut out = vec![0.0f32; rows * cols];
    let in_data = input.data();
    let frame_len = c * h * w;
    for ni in 0..n {
        let frame = &in_data[ni * frame_len..(ni + 1) * frame_len];
        for ci in 0..c {
            for kh in 0..spec.kernel_h {
                for kw in 0..spec.kernel_w {
                    let Some((ox, ix)) = spec.tap_span(kw, w, ow) else {
                        continue;
                    };
                    let row = (ci * spec.kernel_h + kh) * spec.kernel_w + kw;
                    let out_row = &mut out[row * cols + ni * plane..row * cols + (ni + 1) * plane];
                    for oy in 0..oh {
                        let Some(iy) = spec.input_row(oy, kh, h) else {
                            continue;
                        };
                        let src = &frame[(ci * h + iy) * w..][ix.clone()];
                        let dst = &mut out_row[oy * ow..][ox.clone()];
                        if spec.stride_w == 1 {
                            dst.copy_from_slice(src);
                        } else {
                            for (d, &s) in dst.iter_mut().zip(src.iter().step_by(spec.stride_w)) {
                                *d = s;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::matrix(rows, cols), out)
}

/// Lower an input image into the im2col matrix.
///
/// Thin wrapper over [`im2col_batched`] (any batch size is accepted; the
/// seed's batch-1 restriction is gone). For a single frame the result has
/// shape `(in_c * kh * kw, oh * ow)`.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    im2col_batched(input, spec)
}

/// Scatter an im2col-shaped gradient back onto the input image (the adjoint
/// of [`im2col`]). Overlapping receptive fields accumulate, span by span in
/// the order [`im2col_batched`] reads them.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Result<Tensor> {
    spec.validate()?;
    let (rows, ncols) = cols.shape().as_matrix()?;
    let (oh, ow) = spec.output_size(h, w);
    if rows != spec.in_channels * spec.kernel_h * spec.kernel_w || ncols != oh * ow {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().dims().to_vec(),
            rhs: vec![spec.in_channels * spec.kernel_h * spec.kernel_w, oh * ow],
        });
    }
    let mut out = Tensor::zeros(Shape::nchw(1, spec.in_channels, h, w));
    let out_data = out.data_mut();
    let col_data = cols.data();
    for ci in 0..spec.in_channels {
        for kh in 0..spec.kernel_h {
            for kw in 0..spec.kernel_w {
                let Some((ox, ix)) = spec.tap_span(kw, w, ow) else {
                    continue;
                };
                let row = (ci * spec.kernel_h + kh) * spec.kernel_w + kw;
                let col_row = &col_data[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let Some(iy) = spec.input_row(oy, kh, h) else {
                        continue;
                    };
                    let src = &col_row[oy * ow..][ox.clone()];
                    let dst = &mut out_data[(ci * h + iy) * w..][ix.clone()];
                    if spec.stride_w == 1 {
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    } else {
                        for (d, &s) in dst.iter_mut().step_by(spec.stride_w).zip(src) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Forward convolution: `output = weight * im2col(input) + bias`, for a
/// batch of `n` frames in one GEMM.
///
/// * `input`  — `(n, in_c, h, w)`
/// * `weight` — `(out_c, in_c, kh, kw)`
/// * `bias`   — `(out_c)` or `None`
///
/// Returns `(output, columns)` with `output` shaped `(n, out_c, oh, ow)`.
/// The columns are reused by [`conv2d_backward`] so each key-frame
/// distillation step lowers the input only once (the backward pass is
/// per-frame: distillation trains on single key frames).
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    if !weight.shape().same_as(&spec.weight_shape()) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_forward(weight)",
            lhs: weight.shape().dims().to_vec(),
            rhs: spec.weight_shape().dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.numel() != spec.out_channels {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_forward(bias)",
                lhs: b.shape().dims().to_vec(),
                rhs: vec![spec.out_channels],
            });
        }
    }
    let (n, _, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = spec.output_size(h, w);
    let cols = im2col_batched(input, spec)?;
    let k = spec.in_channels * spec.kernel_h * spec.kernel_w;
    let w_mat = weight.reshape(Shape::matrix(spec.out_channels, k))?;
    // (out_c, k) x (k, n*oh*ow) -> (out_c, n*oh*ow), frame-major columns.
    let out_mat = crate::matmul::matmul(&w_mat, &cols)?;
    let plane = oh * ow;
    let mut out = if n == 1 {
        // Single frame (the per-frame training hot path): the GEMM result
        // *is* the output layout — reshape in place, no copy.
        out_mat.reshape(Shape::nchw(1, spec.out_channels, oh, ow))?
    } else {
        // Batched: the GEMM result is channel-major over frame-major
        // columns; scatter each (frame, channel) plane into NCHW order.
        let mut out = Tensor::zeros(Shape::nchw(n, spec.out_channels, oh, ow));
        let src = out_mat.data();
        let dst = out.data_mut();
        for ni in 0..n {
            for oc in 0..spec.out_channels {
                let row = &src[oc * n * plane + ni * plane..oc * n * plane + (ni + 1) * plane];
                dst[(ni * spec.out_channels + oc) * plane
                    ..(ni * spec.out_channels + oc + 1) * plane]
                    .copy_from_slice(row);
            }
        }
        out
    };
    if let Some(b) = bias {
        let data = out.data_mut();
        for ni in 0..n {
            for oc in 0..spec.out_channels {
                let bv = b.data()[oc];
                for v in &mut data[(ni * spec.out_channels + oc) * plane
                    ..(ni * spec.out_channels + oc + 1) * plane]
                {
                    *v += bv;
                }
            }
        }
    }
    Ok((out, cols))
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `(1, in_c, h, w)`.
    /// `None` when `need_input_grad` was false (the frozen front of the
    /// student never needs it).
    pub input: Option<Tensor>,
    /// Gradient with respect to the weights, `(out_c, in_c, kh, kw)`.
    pub weight: Tensor,
    /// Gradient with respect to the bias, `(out_c)`.
    pub bias: Tensor,
}

/// Backward convolution given the upstream gradient `grad_out`
/// (`(1, out_c, oh, ow)`), the cached im2col `columns` from the forward
/// pass, and the original input spatial size.
pub fn conv2d_backward(
    grad_out: &Tensor,
    columns: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    input_h: usize,
    input_w: usize,
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    let (n, oc, oh, ow) = grad_out.shape().as_nchw()?;
    if n != 1 {
        // Distillation trains on single key frames; only the forward/
        // inference path is batched.
        return Err(TensorError::InvalidArgument(
            "conv2d_backward expects a single-frame gradient (training is per-frame)".into(),
        ));
    }
    if oc != spec.out_channels {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![1, spec.out_channels, 0, 0],
        });
    }
    let k = spec.in_channels * spec.kernel_h * spec.kernel_w;
    let go_mat = grad_out.reshape(Shape::matrix(oc, oh * ow))?;

    // dW = grad_out (oc, P) * columns^T (P, k) -> (oc, k)
    let dw_mat = matmul_nt(&go_mat, columns)?;
    let weight_grad = dw_mat.reshape(spec.weight_shape())?;

    // db_c = sum over pixels of grad_out channel c
    let mut bias_grad = Tensor::zeros(Shape::vector(oc));
    {
        let bg = bias_grad.data_mut();
        let god = go_mat.data();
        let plane = oh * ow;
        for c in 0..oc {
            bg[c] = god[c * plane..(c + 1) * plane].iter().sum();
        }
    }

    // dInput = col2im( W^T (k, oc) * grad_out (oc, P) ) -> (k, P)
    let input_grad = if need_input_grad {
        let w_mat = weight.reshape(Shape::matrix(oc, k))?;
        let dcol = matmul_tn(&w_mat, &go_mat)?; // (k, P)
        Some(col2im(&dcol, spec, input_h, input_w)?)
    } else {
        None
    };

    Ok(Conv2dGrads {
        input: input_grad,
        weight: weight_grad,
        bias: bias_grad,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;

    /// Direct (non-im2col) convolution used as a reference.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let (_, c, h, w) = input.shape().as_nchw().unwrap();
        let (oh, ow) = spec.output_size(h, w);
        let mut out = Tensor::zeros(Shape::nchw(1, spec.out_channels, oh, ow));
        for ocn in 0..spec.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map(|b| b.data()[ocn]).unwrap_or(0.0);
                    for ci in 0..c {
                        for kh in 0..spec.kernel_h {
                            for kw in 0..spec.kernel_w {
                                let iy = (oy * spec.stride_h + kh) as isize - spec.pad_h as isize;
                                let ix = (ox * spec.stride_w + kw) as isize - spec.pad_w as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at4(0, ci, iy as usize, ix as usize)
                                    * weight.at4(ocn, ci, kh, kw);
                            }
                        }
                    }
                    out.set4(0, ocn, oy, ox, acc);
                }
            }
        }
        out
    }

    /// The per-pixel lowering the span version replaced, kept as the
    /// reference it must equal bit for bit.
    fn im2col_per_pixel(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().unwrap();
        let (oh, ow) = spec.output_size(h, w);
        let rows = c * spec.kernel_h * spec.kernel_w;
        let plane = oh * ow;
        let cols = n * plane;
        let mut out = vec![0.0f32; rows * cols];
        let in_data = input.data();
        let frame_len = c * h * w;
        for ni in 0..n {
            let frame = &in_data[ni * frame_len..(ni + 1) * frame_len];
            for ci in 0..c {
                for kh in 0..spec.kernel_h {
                    for kw in 0..spec.kernel_w {
                        let row = (ci * spec.kernel_h + kh) * spec.kernel_w + kw;
                        let out_row =
                            &mut out[row * cols + ni * plane..row * cols + (ni + 1) * plane];
                        for oy in 0..oh {
                            let iy = (oy * spec.stride_h + kh) as isize - spec.pad_h as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let in_row_base = (ci * h + iy as usize) * w;
                            let out_base = oy * ow;
                            for ox in 0..ow {
                                let ix = (ox * spec.stride_w + kw) as isize - spec.pad_w as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out_row[out_base + ox] = frame[in_row_base + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(Shape::matrix(rows, cols), out).unwrap()
    }

    /// Per-pixel reference of [`col2im`].
    fn col2im_per_pixel(cols: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
        let (_, ncols) = cols.shape().as_matrix().unwrap();
        let (oh, ow) = spec.output_size(h, w);
        let mut out = Tensor::zeros(Shape::nchw(1, spec.in_channels, h, w));
        let out_data = out.data_mut();
        let col_data = cols.data();
        for ci in 0..spec.in_channels {
            for kh in 0..spec.kernel_h {
                for kw in 0..spec.kernel_w {
                    let row = (ci * spec.kernel_h + kh) * spec.kernel_w + kw;
                    let col_row = &col_data[row * ncols..(row + 1) * ncols];
                    for oy in 0..oh {
                        let iy = (oy * spec.stride_h + kh) as isize - spec.pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let out_row_base = (ci * h + iy as usize) * w;
                        let col_base = oy * ow;
                        for ox in 0..ow {
                            let ix = (ox * spec.stride_w + kw) as isize - spec.pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_data[out_row_base + ix as usize] += col_row[col_base + ox];
                        }
                    }
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every kernel {1,3}×{1,3}, stride {1,2}, pad {0,1} geometry.
    fn lowering_specs(in_channels: usize, out_channels: usize) -> Vec<Conv2dSpec> {
        let mut specs = Vec::new();
        for (kernel_h, kernel_w) in [(1, 1), (1, 3), (3, 1), (3, 3)] {
            for stride in [1, 2] {
                for (pad_h, pad_w) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    specs.push(Conv2dSpec {
                        in_channels,
                        out_channels,
                        kernel_h,
                        kernel_w,
                        stride_h: stride,
                        stride_w: stride,
                        pad_h,
                        pad_w,
                    });
                }
            }
        }
        specs
    }

    #[test]
    fn span_lowering_equals_per_pixel_reference_bit_for_bit() {
        // Odd and tiny sizes, including w < kernel_w (a tap whose valid span
        // is empty) and h < kernel_h.
        let sizes = [(1, 1), (1, 2), (2, 1), (3, 2), (2, 5), (5, 7), (8, 6)];
        let mut seed = 100;
        for spec in lowering_specs(2, 3) {
            for (h, w) in sizes {
                for n in [1, 3] {
                    seed += 1;
                    let input = random::uniform(Shape::nchw(n, 2, h, w), -1.0, 1.0, seed);
                    let what = format!("{spec:?} on {n}x2x{h}x{w}");
                    let cols = im2col_batched(&input, &spec).unwrap();
                    let reference = im2col_per_pixel(&input, &spec);
                    assert_eq!(cols.shape(), reference.shape(), "{what}");
                    assert_eq!(bits(&cols), bits(&reference), "im2col {what}");
                    if n == 1 {
                        // Include negative zeros: `0.0 + -0.0` must stay what
                        // the accumulating reference makes of it.
                        let mut grad = random::uniform(cols.shape().clone(), -1.0, 1.0, seed + 7);
                        grad.data_mut()[0] = -0.0;
                        let back = col2im(&grad, &spec, h, w).unwrap();
                        let reference = col2im_per_pixel(&grad, &spec, h, w);
                        assert_eq!(bits(&back), bits(&reference), "col2im {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_forward_equals_per_frame_on_every_geometry() {
        for spec in lowering_specs(2, 3) {
            let (n, h, w) = (3, 5, 7);
            let batch = random::uniform(Shape::nchw(n, 2, h, w), -1.0, 1.0, 80);
            let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 81);
            let bias = random::uniform(Shape::vector(3), -0.1, 0.1, 82);
            let (batched, _) = conv2d_forward(&batch, &weight, Some(&bias), &spec).unwrap();
            let frame_len = 2 * h * w;
            let out_len = batched.numel() / n;
            for ni in 0..n {
                let frame = Tensor::from_vec(
                    Shape::nchw(1, 2, h, w),
                    batch.data()[ni * frame_len..(ni + 1) * frame_len].to_vec(),
                )
                .unwrap();
                let (solo, _) = conv2d_forward(&frame, &weight, Some(&bias), &spec).unwrap();
                assert_eq!(
                    bits(&solo),
                    batched.data()[ni * out_len..(ni + 1) * out_len]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "{spec:?} frame {ni}"
                );
            }
        }
    }

    #[test]
    fn pointwise_convolution_is_not_lowered() {
        // 1×1 / stride 1 / pad 0 on one frame: the column matrix is the
        // input's storage, in forward and as the columns backward consumes.
        let spec = Conv2dSpec::square(4, 3, 1, 1);
        let input = random::uniform(Shape::nchw(1, 4, 5, 6), -1.0, 1.0, 90);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 91);
        let (out, columns) = conv2d_forward(&input, &weight, None, &spec).unwrap();
        assert!(columns.shares_storage(&input));
        assert_eq!(columns.shape().dims(), &[4, 30]);
        let reference_columns = im2col_per_pixel(&input, &spec);
        assert!(!reference_columns.shares_storage(&input));
        assert_eq!(bits(&columns), bits(&reference_columns));

        let grad_out = random::uniform(out.shape().clone(), -1.0, 1.0, 92);
        let grads = conv2d_backward(&grad_out, &columns, &weight, &spec, 5, 6, true).unwrap();
        let reference =
            conv2d_backward(&grad_out, &reference_columns, &weight, &spec, 5, 6, true).unwrap();
        assert_eq!(bits(&grads.weight), bits(&reference.weight));
        assert_eq!(bits(&grads.bias), bits(&reference.bias));
        let w_mat = weight.reshape(Shape::matrix(3, 4)).unwrap();
        let go_mat = grad_out.reshape(Shape::matrix(3, 30)).unwrap();
        let dcol = matmul_tn(&w_mat, &go_mat).unwrap();
        assert_eq!(
            bits(&grads.input.unwrap()),
            bits(&col2im_per_pixel(&dcol, &spec, 5, 6))
        );

        // A batch, a stride or a pad takes the lowering path.
        let batch = random::uniform(Shape::nchw(2, 4, 5, 6), -1.0, 1.0, 93);
        assert!(!im2col(&batch, &spec).unwrap().shares_storage(&batch));
        let strided = Conv2dSpec::square(4, 3, 1, 2);
        assert!(!im2col(&input, &strided).unwrap().shares_storage(&input));
    }

    #[test]
    fn output_size_math() {
        let s = Conv2dSpec::square(3, 8, 3, 1);
        assert_eq!(s.output_size(10, 12), (10, 12));
        let s2 = Conv2dSpec::square(3, 8, 3, 2);
        assert_eq!(s2.output_size(10, 12), (5, 6));
        let s3 = Conv2dSpec::rect(4, 4, 3, 1);
        assert_eq!(s3.output_size(7, 7), (7, 7));
    }

    #[test]
    fn spec_validation() {
        let mut s = Conv2dSpec::square(3, 8, 3, 1);
        assert!(s.validate().is_ok());
        s.stride_w = 0;
        assert!(s.validate().is_err());
        let z = Conv2dSpec::square(0, 8, 3, 1);
        assert!(z.validate().is_err());
    }

    #[test]
    fn forward_matches_naive_3x3() {
        let spec = Conv2dSpec::square(3, 5, 3, 1);
        let input = random::uniform(Shape::nchw(1, 3, 9, 11), -1.0, 1.0, 10);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 11);
        let bias = random::uniform(Shape::vector(5), -0.1, 0.1, 12);
        let (out, _) = conv2d_forward(&input, &weight, Some(&bias), &spec).unwrap();
        let expected = naive_conv(&input, &weight, Some(&bias), &spec);
        for (a, b) in out.data().iter().zip(expected.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn forward_matches_naive_strided_and_rect() {
        for spec in [
            Conv2dSpec::square(2, 4, 3, 2),
            Conv2dSpec::rect(2, 4, 3, 1),
            Conv2dSpec::rect(2, 4, 1, 3),
            Conv2dSpec::square(2, 4, 1, 1),
        ] {
            let input = random::uniform(Shape::nchw(1, 2, 8, 10), -1.0, 1.0, 20);
            let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 21);
            let (out, _) = conv2d_forward(&input, &weight, None, &spec).unwrap();
            let expected = naive_conv(&input, &weight, None, &spec);
            assert_eq!(out.shape(), expected.shape());
            for (a, b) in out.data().iter().zip(expected.data().iter()) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn forward_rejects_bad_shapes() {
        let spec = Conv2dSpec::square(3, 5, 3, 1);
        let input = Tensor::zeros(Shape::nchw(1, 4, 8, 8)); // wrong channels
        let weight = Tensor::zeros(spec.weight_shape());
        assert!(conv2d_forward(&input, &weight, None, &spec).is_err());
        let input_ok = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        let bad_weight = Tensor::zeros(Shape::nchw(5, 3, 2, 2));
        assert!(conv2d_forward(&input_ok, &bad_weight, None, &spec).is_err());
    }

    /// Numerical-gradient check of the full backward pass.
    #[test]
    fn backward_matches_numerical_gradients() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let input = random::uniform(Shape::nchw(1, 2, 5, 6), -1.0, 1.0, 30);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 31);
        let bias = random::uniform(Shape::vector(3), -0.1, 0.1, 32);

        // Scalar loss = sum of outputs * fixed random coefficients.
        let coeff = random::uniform(Shape::nchw(1, 3, 5, 6), -1.0, 1.0, 33);
        let loss = |inp: &Tensor, wgt: &Tensor, b: &Tensor| -> f32 {
            let (out, _) = conv2d_forward(inp, wgt, Some(b), &spec).unwrap();
            out.mul(&coeff).unwrap().sum()
        };

        let (_, cols) = conv2d_forward(&input, &weight, Some(&bias), &spec).unwrap();
        let grads = conv2d_backward(&coeff, &cols, &weight, &spec, 5, 6, true).unwrap();

        let eps = 1e-2f32;
        // Check a sample of weight gradients.
        for idx in [0usize, 7, 13, 29, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = grads.weight.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "weight[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check a sample of input gradients.
        let gin = grads.input.unwrap();
        for idx in [0usize, 11, 23, 47] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let ana = gin.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "input[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check bias gradients.
        for idx in 0..3 {
            let mut bp = bias.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bias.clone();
            bm.data_mut()[idx] -= eps;
            let num = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            let ana = grads.bias.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2,
                "bias[{idx}]: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn backward_can_skip_input_grad() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let input = random::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 40);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 41);
        let (out, cols) = conv2d_forward(&input, &weight, None, &spec).unwrap();
        let grads = conv2d_backward(&out, &cols, &weight, &spec, 4, 4, false).unwrap();
        assert!(grads.input.is_none());
        assert!(grads.weight.all_finite());
    }

    #[test]
    fn batched_forward_is_bit_for_bit_per_frame() {
        // The batched lowering packs each frame's columns exactly as the
        // single-frame lowering does, so outputs must be *identical*, not
        // just close — the batched teacher pool relies on this.
        for spec in [
            Conv2dSpec::square(3, 5, 3, 1),
            Conv2dSpec::square(2, 4, 3, 2),
            Conv2dSpec::rect(2, 4, 1, 3),
        ] {
            let n = 4;
            let batch = random::uniform(Shape::nchw(n, spec.in_channels, 8, 10), -1.0, 1.0, 60);
            let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 61);
            let bias = random::uniform(Shape::vector(spec.out_channels), -0.1, 0.1, 62);
            let (batched, cols) = conv2d_forward(&batch, &weight, Some(&bias), &spec).unwrap();
            let (oh, ow) = spec.output_size(8, 10);
            assert_eq!(batched.shape().dims(), &[n, spec.out_channels, oh, ow]);
            assert_eq!(
                cols.shape().dims(),
                &[
                    spec.in_channels * spec.kernel_h * spec.kernel_w,
                    n * oh * ow
                ]
            );
            let frame_len = spec.in_channels * 8 * 10;
            let out_len = spec.out_channels * oh * ow;
            for ni in 0..n {
                let frame = Tensor::from_vec(
                    Shape::nchw(1, spec.in_channels, 8, 10),
                    batch.data()[ni * frame_len..(ni + 1) * frame_len].to_vec(),
                )
                .unwrap();
                let (solo, _) = conv2d_forward(&frame, &weight, Some(&bias), &spec).unwrap();
                assert_eq!(
                    solo.data(),
                    &batched.data()[ni * out_len..(ni + 1) * out_len],
                    "frame {ni} differs from its batched slice"
                );
            }
        }
    }

    #[test]
    fn backward_rejects_batched_gradients() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let batch = random::uniform(Shape::nchw(2, 2, 4, 4), -1.0, 1.0, 70);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 71);
        let (out, cols) = conv2d_forward(&batch, &weight, None, &spec).unwrap();
        let err = conv2d_backward(&out, &cols, &weight, &spec, 4, 4, true).unwrap_err();
        assert!(format!("{err:?}").contains("per-frame"));
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjointness).
        let spec = Conv2dSpec::square(2, 1, 3, 2);
        let x = random::uniform(Shape::nchw(1, 2, 6, 7), -1.0, 1.0, 50);
        let cols = im2col(&x, &spec).unwrap();
        let y = random::uniform(cols.shape().clone(), -1.0, 1.0, 51);
        let lhs = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, &spec, 6, 7).unwrap();
        let rhs = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn macs_counting() {
        let spec = Conv2dSpec::square(3, 8, 3, 1);
        // 4x4 output, 3 in, 8 out, 9 taps
        assert_eq!(spec.macs(4, 4), (4 * 4 * 3 * 8 * 9) as u64);
    }
}
