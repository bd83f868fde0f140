//! 2-D convolution as a GEMM over the input's column matrix: forward pass and
//! all three backward passes (input gradient, weight gradient, bias
//! gradient).
//!
//! The student blocks of the ShadowTutor paper use square 3×3, asymmetric
//! 3×1 / 1×3, and pointwise 1×1 kernels, optionally strided for
//! down-sampling, so the implementation supports independent kernel sizes,
//! strides and paddings per axis.
//!
//! Two pairs of entry points compute the same bits:
//!
//! * [`conv2d`] / [`conv2d_grads`] are what every model in the repository
//!   runs — client inference, server evaluation, training forward and
//!   backward, the CNN teacher. They never build the column matrix: the
//!   GEMM's `B`-panel packer reads each stripe of it from the frames
//!   (`LoweredImage`), row span by row span, for `W · cols` and — through a
//!   16 KiB block it transposes — for the weight gradient `gO · colsᵀ`. The
//!   backward takes the layer's *input*; the only column-shaped buffer left
//!   is the transient `Wᵀ · gO` the input gradient scatters back through
//!   [`col2im`] (its accumulation order is what that gradient's bits depend
//!   on).
//! * [`conv2d_forward`] / [`conv2d_backward`] go through a stored matrix
//!   ([`im2col_batched`]). They are the reference the first pair is tested
//!   against bit for bit, and what the repository benchmark's `tensor.*`
//!   probes time; no model calls them.
//!
//! The stored lowering ([`im2col_batched`], [`col2im`]) moves row spans, not
//! pixels: per `(channel, kh, kw)` row the valid output-x range is worked
//! out once, and each output row is then one slice copy (or slice `+=`) at
//! stride 1, one strided walk otherwise, in the element order a per-pixel
//! loop would use. A single-frame 1×1 / stride-1 / pad-0 convolution is not
//! lowered at all, by either pair: its column matrix is the input's storage
//! under another shape. All of it is bit-equal to the per-pixel bodies, which
//! the tests keep as the reference.

use crate::matmul::{matmul, matmul_lowered, matmul_nt, matmul_nt_lowered, matmul_tn, NR};
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

/// Validate a convolution input against `spec`: a non-empty batch of frames
/// with `spec.in_channels` channels. Returns its `(n, c, h, w)`.
fn check_frames(input: &Tensor, spec: &Conv2dSpec) -> Result<(usize, usize, usize, usize)> {
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
    Ok((n, c, h, w))
}

/// The column matrix [`im2col_batched`] would build from a batch of frames,
/// as a view that is read and never stored: the GEMM's `B`-panel packer asks
/// for one block of it at a time ([`LoweredImage::lower_block`]) and gets
/// exactly the values the built matrix holds at those positions.
pub(crate) struct LoweredImage<'a> {
    frames: &'a [f32],
    spec: &'a Conv2dSpec,
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Per kernel column, the output columns whose tap lands inside an input
    /// row ([`Conv2dSpec::tap_span`]), worked out once per convolution.
    taps: Vec<Option<Range<usize>>>,
}

impl<'a> LoweredImage<'a> {
    fn new(input: &'a Tensor, spec: &'a Conv2dSpec) -> Result<Self> {
        let (n, _, h, w) = check_frames(input, spec)?;
        let (oh, ow) = spec.output_size(h, w);
        let taps = (0..spec.kernel_w)
            .map(|kw| spec.tap_span(kw, w, ow).map(|(ox, _)| ox))
            .collect();
        Ok(LoweredImage {
            frames: input.data(),
            spec,
            n,
            h,
            w,
            oh,
            ow,
            taps,
        })
    }

    /// Shape of the column matrix: `(in_c * kh * kw, n * oh * ow)`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        let spec = self.spec;
        (
            spec.in_channels * spec.kernel_h * spec.kernel_w,
            self.n * self.oh * self.ow,
        )
    }

    /// Write the block `rows × cols` of the column matrix into `dst`, row `r`
    /// at `dst[(r - rows.start) * row_step..]`. Only taps that land inside a
    /// frame are written: `dst` must arrive zeroed, which is what a padding
    /// tap reads. The block may cross output rows and frames; each output
    /// row's part of it is one span per matrix row, as in
    /// [`im2col_batched`].
    pub(crate) fn lower_block(
        &self,
        dst: &mut [f32],
        rows: Range<usize>,
        cols: Range<usize>,
        row_step: usize,
    ) {
        let spec = self.spec;
        let (h, w, ow) = (self.h, self.w, self.ow);
        let plane = self.oh * ow;
        let frame_len = spec.in_channels * h * w;
        let taps_per_channel = spec.kernel_h * spec.kernel_w;
        let mut col = cols.start;
        while col < cols.end {
            // The part of `cols` inside one output row: `len` pixels from
            // `(oy, ox0)` of frame `ni`.
            let (ni, pixel) = (col / plane, col % plane);
            let (oy, ox0) = (pixel / ow, pixel % ow);
            let len = (ow - ox0).min(cols.end - col);
            let frame = &self.frames[ni * frame_len..(ni + 1) * frame_len];
            let dst = &mut dst[col - cols.start..];
            // Matrix rows come in runs of kernel columns sharing one input
            // row; the first and last run may be cut by `rows`.
            let mut ci = rows.start / taps_per_channel;
            let mut kh = rows.start % taps_per_channel / spec.kernel_w;
            let mut kw = rows.start % spec.kernel_w;
            let mut row = rows.start;
            while row < rows.end {
                let run = (spec.kernel_w - kw).min(rows.end - row);
                if let Some(iy) = spec.input_row(oy, kh, h) {
                    let in_row = &frame[(ci * h + iy) * w..][..w];
                    for (i, tap) in self.taps[kw..kw + run].iter().enumerate() {
                        let Some(tap) = tap else { continue };
                        let lo = tap.start.max(ox0);
                        let hi = tap.end.min(ox0 + len);
                        if lo >= hi {
                            continue;
                        }
                        let src = &in_row[lo * spec.stride_w + kw + i - spec.pad_w..];
                        let dst = &mut dst[(row + i - rows.start) * row_step + lo - ox0..];
                        if spec.stride_w != 1 {
                            let src = src.iter().step_by(spec.stride_w);
                            for (d, &v) in dst[..hi - lo].iter_mut().zip(src) {
                                *d = v;
                            }
                        } else if hi - lo == NR {
                            // A whole GEMM stripe inside one output row: a
                            // fixed-size move the compiler keeps in registers.
                            dst[..NR].copy_from_slice(&src[..NR]);
                        } else {
                            dst[..hi - lo].copy_from_slice(&src[..hi - lo]);
                        }
                    }
                }
                row += run;
                kw = 0;
                kh += 1;
                if kh == spec.kernel_h {
                    kh = 0;
                    ci += 1;
                }
            }
            col += len;
        }
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
    let (n, c, h, w) = check_frames(input, spec)?;
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

/// Check a convolution's weight and optional bias against `spec`.
fn check_params(weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Result<()> {
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
    Ok(())
}

/// The weights as the `(out_c, in_c*kh*kw)` matrix the GEMM multiplies by.
fn weight_matrix(weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let k = spec.in_channels * spec.kernel_h * spec.kernel_w;
    weight.reshape(Shape::matrix(spec.out_channels, k))
}

/// Turn the GEMM result `(out_c, n*oh*ow)` — channel-major over frame-major
/// columns — into the `(n, out_c, oh, ow)` output and add the bias.
fn finish_output(
    out_mat: Tensor,
    bias: Option<&Tensor>,
    (n, out_channels, oh, ow): (usize, usize, usize, usize),
) -> Result<Tensor> {
    let plane = oh * ow;
    let mut out = if n == 1 {
        // Single frame (the per-frame training hot path): the GEMM result
        // *is* the output layout — reshape in place, no copy.
        out_mat.reshape(Shape::nchw(1, out_channels, oh, ow))?
    } else {
        // Batched: scatter each (frame, channel) plane into NCHW order.
        let mut out = Tensor::zeros(Shape::nchw(n, out_channels, oh, ow));
        let src = out_mat.data();
        let dst = out.data_mut();
        for ni in 0..n {
            for oc in 0..out_channels {
                let row = &src[oc * n * plane + ni * plane..oc * n * plane + (ni + 1) * plane];
                dst[(ni * out_channels + oc) * plane..(ni * out_channels + oc + 1) * plane]
                    .copy_from_slice(row);
            }
        }
        out
    };
    if let Some(b) = bias {
        // Planes are (frame, channel)-major: the biases repeat per frame.
        let channels = out.data_mut().chunks_exact_mut(plane);
        for (channel, &bv) in channels.zip(b.data().iter().cycle()) {
            for v in channel {
                *v += bv;
            }
        }
    }
    Ok(out)
}

/// Forward convolution through a stored column matrix: `output = weight *
/// im2col(input) + bias`, for a batch of `n` frames in one GEMM.
///
/// * `input`  — `(n, in_c, h, w)`
/// * `weight` — `(out_c, in_c, kh, kw)`
/// * `bias`   — `(out_c)` or `None`
///
/// Returns `(output, columns)` with `output` shaped `(n, out_c, oh, ow)` and
/// `columns` the matrix [`conv2d_backward`] consumes. This pair is the
/// reference [`conv2d`] / [`conv2d_grads`] are held to bit for bit (and what
/// the repository benchmark's kernel probes time); the models call those.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    check_params(weight, bias, spec)?;
    let (n, _, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = spec.output_size(h, w);
    let cols = im2col_batched(input, spec)?;
    // (out_c, k) x (k, n*oh*ow) -> (out_c, n*oh*ow), frame-major columns.
    let out_mat = matmul(&weight_matrix(weight, spec)?, &cols)?;
    let out = finish_output(out_mat, bias, (n, spec.out_channels, oh, ow))?;
    Ok((out, cols))
}

/// Forward convolution, `(n, in_c, h, w)` → `(n, out_c, oh, ow)`: the product
/// [`conv2d_forward`] computes, with the GEMM reading each stripe of the
/// column matrix straight from the frames. Nothing column-shaped is
/// allocated, and the output is bit-identical.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    check_params(weight, bias, spec)?;
    let (n, c, h, w) = check_frames(input, spec)?;
    let (oh, ow) = spec.output_size(h, w);
    let w_mat = weight_matrix(weight, spec)?;
    let out_mat = if n == 1 && spec.is_pointwise() {
        // The column matrix is the frame under another shape.
        matmul(&w_mat, &input.reshape(Shape::matrix(c, h * w))?)?
    } else {
        matmul_lowered(&w_mat, &LoweredImage::new(input, spec)?)?
    };
    finish_output(out_mat, bias, (n, spec.out_channels, oh, ow))
}

/// Gradients produced by [`conv2d_backward`] and [`conv2d_grads`].
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

/// Check a single-frame upstream gradient against `spec` and return it as
/// the `(out_c, oh*ow)` matrix both backward products read.
fn grad_matrix(grad_out: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
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
    grad_out.reshape(Shape::matrix(oc, oh * ow))
}

/// Everything of a backward pass but the weight-gradient product, which the
/// caller supplies as `dw_mat` (`grad_out (oc, P) · columnsᵀ (P, k)`).
fn finish_grads(
    go_mat: &Tensor,
    dw_mat: Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    (input_h, input_w): (usize, usize),
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    // db_c = sum over pixels of grad_out channel c
    let (oc, plane) = go_mat.shape().as_matrix()?;
    let bias_grad: Vec<f32> = (0..oc)
        .map(|c| go_mat.data()[c * plane..(c + 1) * plane].iter().sum())
        .collect();

    // dInput = col2im( W^T (k, oc) * grad_out (oc, P) ) -> (k, P). The
    // scatter's accumulation order is what the input gradient's bits depend
    // on, so this stays a stored — transient — matrix.
    let input_grad = if need_input_grad {
        let dcol = matmul_tn(&weight_matrix(weight, spec)?, go_mat)?;
        Some(col2im(&dcol, spec, input_h, input_w)?)
    } else {
        None
    };

    Ok(Conv2dGrads {
        input: input_grad,
        weight: dw_mat.reshape(spec.weight_shape())?,
        bias: Tensor::from_vec(Shape::vector(oc), bias_grad)?,
    })
}

/// Backward convolution given the upstream gradient `grad_out`
/// (`(1, out_c, oh, ow)`), the im2col `columns` [`conv2d_forward`] returned,
/// and the original input spatial size. The reference for [`conv2d_grads`].
pub fn conv2d_backward(
    grad_out: &Tensor,
    columns: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    input_h: usize,
    input_w: usize,
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    let go_mat = grad_matrix(grad_out, spec)?;
    let dw_mat = matmul_nt(&go_mat, columns)?;
    finish_grads(
        &go_mat,
        dw_mat,
        weight,
        spec,
        (input_h, input_w),
        need_input_grad,
    )
}

/// Backward convolution from the forward pass's *input* (`(1, in_c, h, w)`)
/// instead of its column matrix: the weight gradient's GEMM reads the
/// columns from the frame as [`conv2d`] does. Bit-identical to
/// [`conv2d_backward`] on `im2col(input)`. A `grad_out` whose spatial size is
/// not the one `input` convolves to is a shape mismatch.
pub fn conv2d_grads(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    let go_mat = grad_matrix(grad_out, spec)?;
    let (n, c, h, w) = check_frames(input, spec)?;
    let (oh, ow) = spec.output_size(h, w);
    if (n, oh, ow) != (1, grad_out.shape().dim(2), grad_out.shape().dim(3)) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![n, spec.out_channels, oh, ow],
        });
    }
    let dw_mat = if spec.is_pointwise() {
        matmul_nt(&go_mat, &input.reshape(Shape::matrix(c, h * w))?)?
    } else {
        matmul_nt_lowered(&go_mat, &LoweredImage::new(input, spec)?)?
    };
    finish_grads(&go_mat, dw_mat, weight, spec, (h, w), need_input_grad)
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

    /// Both products of the lowered image against the same products of the
    /// built column matrix, and the two layer entry points against the
    /// column-matrix pair.
    fn assert_lowered_equals_stored(spec: &Conv2dSpec, input: &Tensor, seed: u64) {
        let (n, _, h, w) = input.shape().as_nchw().unwrap();
        let what = format!("{spec:?} on {n}x{}x{h}x{w}", spec.in_channels);
        let cols = im2col_batched(input, spec).unwrap();
        let (k, pixels) = cols.shape().as_matrix().unwrap();
        let image = LoweredImage::new(input, spec).unwrap();
        assert_eq!(image.dims(), (k, pixels), "{what}");

        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, seed);
        let w_mat = weight_matrix(&weight, spec).unwrap();
        assert_eq!(
            bits(&matmul_lowered(&w_mat, &image).unwrap()),
            bits(&matmul(&w_mat, &cols).unwrap()),
            "W · cols, {what}"
        );
        // With a -0.0 and a subnormal among the gradients.
        let mut go_mat = random::uniform(
            Shape::matrix(spec.out_channels, pixels),
            -1.0,
            1.0,
            seed + 1,
        );
        go_mat.data_mut()[0] = -0.0;
        go_mat.data_mut()[pixels / 2] = f32::from_bits(3);
        assert_eq!(
            bits(&matmul_nt_lowered(&go_mat, &image).unwrap()),
            bits(&matmul_nt(&go_mat, &cols).unwrap()),
            "gO · colsᵀ, {what}"
        );

        let bias = random::uniform(Shape::vector(spec.out_channels), -0.1, 0.1, seed + 2);
        let (reference, _) = conv2d_forward(input, &weight, Some(&bias), spec).unwrap();
        let out = conv2d(input, &weight, Some(&bias), spec).unwrap();
        assert_eq!(out.shape(), reference.shape(), "{what}");
        assert_eq!(bits(&out), bits(&reference), "conv2d {what}");
        if n == 1 {
            let grad_out = go_mat.reshape(out.shape().clone()).unwrap();
            let reference = conv2d_backward(&grad_out, &cols, &weight, spec, h, w, true).unwrap();
            let grads = conv2d_grads(&grad_out, input, &weight, spec, true).unwrap();
            assert_eq!(bits(&grads.weight), bits(&reference.weight), "dW {what}");
            assert_eq!(bits(&grads.bias), bits(&reference.bias), "db {what}");
            assert_eq!(
                bits(&grads.input.unwrap()),
                bits(&reference.input.unwrap()),
                "dX {what}"
            );
            let no_input = conv2d_grads(&grad_out, input, &weight, spec, false).unwrap();
            assert!(no_input.input.is_none());
            assert_eq!(bits(&no_input.weight), bits(&reference.weight), "dW {what}");
        }
    }

    #[test]
    fn lowered_image_equals_the_stored_column_matrix_bit_for_bit() {
        // The sizes of the span-lowering referee: stripes that cross output
        // rows and frames, a pixel count that is no multiple of `NR` (5×7),
        // `w < kernel_w`, `h < kernel_h`, both strides.
        let sizes = [(1, 1), (1, 2), (2, 1), (3, 2), (2, 5), (5, 7), (8, 6)];
        let mut seed = 300;
        for spec in lowering_specs(2, 3) {
            for (h, w) in sizes {
                for n in [1, 3] {
                    seed += 3;
                    let input = random::uniform(Shape::nchw(n, 2, h, w), -1.0, 1.0, seed);
                    assert_lowered_equals_stored(&spec, &input, seed);
                }
            }
        }
    }

    #[test]
    fn lowered_image_equals_the_stored_column_matrix_across_blocks_and_threads() {
        // `sb5.conv33` of the `small()` student: K = 576 spans three `KC`
        // blocks forward; 17×19 = 323 pixels span two of them backward and
        // are no multiple of `NR`.
        let deep = Conv2dSpec::square(64, 24, 3, 1);
        for n in [1, 2] {
            let input = random::uniform(Shape::nchw(n, 64, 17, 19), -1.0, 1.0, 500 + n as u64);
            assert_lowered_equals_stored(&deep, &input, 510);
        }
        // Both products above `PAR_MIN_MACS` (40·216·2304 and 40·216·768
        // multiply-adds), stride 1 and 2: each worker gathers its own stripes
        // from the frames, and the answer does not depend on how many there
        // are.
        for stride in [1, 2] {
            let wide = Conv2dSpec::square(24, 40, 3, stride);
            let (h, w) = (24 * stride, 32 * stride);
            for n in [1, 3] {
                let input = random::uniform(Shape::nchw(n, 24, h, w), -1.0, 1.0, 520 + n as u64);
                let weight = random::uniform(wide.weight_shape(), -0.5, 0.5, 530);
                let grad_out = random::uniform(Shape::nchw(1, 40, 24, 32), -1.0, 1.0, 531);
                let run = |threads: usize| {
                    crate::parallel::set_threads(threads);
                    assert_lowered_equals_stored(&wide, &input, 540);
                    let out = conv2d(&input, &weight, None, &wide).unwrap();
                    let grads = (n == 1)
                        .then(|| conv2d_grads(&grad_out, &input, &weight, &wide, false).unwrap());
                    crate::parallel::set_threads(0);
                    (bits(&out), grads.map(|g| bits(&g.weight)))
                };
                assert_eq!(run(1), run(2), "stride {stride}, {n} frames");
            }
        }
    }

    #[test]
    fn grads_from_the_input_keep_the_typed_errors() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 71);
        let frame = random::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 72);
        let batch = random::uniform(Shape::nchw(2, 2, 4, 4), -1.0, 1.0, 73);
        // A batched gradient: training is per-frame.
        let out = conv2d(&batch, &weight, None, &spec).unwrap();
        let err = conv2d_grads(&out, &batch, &weight, &spec, true).unwrap_err();
        assert!(format!("{err:?}").contains("per-frame"));
        // A single-frame gradient against a cached batch, another spatial
        // size, or another channel count: a shape mismatch, never a panic.
        let grad = Tensor::ones(Shape::nchw(1, 3, 4, 4));
        for (grad, input) in [
            (&grad, &batch),
            (&Tensor::ones(Shape::nchw(1, 3, 2, 2)), &frame),
            (&Tensor::ones(Shape::nchw(1, 4, 4, 4)), &frame),
            (&grad, &Tensor::ones(Shape::nchw(1, 5, 4, 4))),
        ] {
            assert!(matches!(
                conv2d_grads(grad, input, &weight, &spec, true),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
        conv2d_grads(&grad, &frame, &weight, &spec, true).unwrap();
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
