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
//!   backward, the CNN teacher. They never build a column-shaped matrix. They
//!   read zero-padded, stride-phase-split copies (`PaddedImage`) in which
//!   every row of a column matrix is one contiguous run:
//!   - the forward packs each `B` stripe as `kc` straight 32-float copies
//!     from a copy of one `K` block's input channels. Its output grid
//!     carries `wq − ow` padding columns per output row that the GEMM
//!     computes and never writes; each tile goes straight into the NCHW
//!     output, with the bias, an optional residual and an optional ReLU
//!     ([`Epilogue`]) added as it is written, so an activation is written
//!     once;
//!   - the weight and bias gradients broadcast the column rows in place
//!     from a copy of the whole input frame, against `gOᵀ` packed once;
//!   - the input gradient is a convolution of the zero-padded upstream
//!     gradient with the weights transposed and flipped, one stride-1
//!     convolution per stride phase of the input, each pixel's taps summed
//!     in the GEMM tile in `col2im`'s order.
//!
//!   The backward takes the layer's *input*, and its input copy is dropped
//!   before the input gradient's buffers are allocated.
//! * [`conv2d_forward`] / [`conv2d_backward`] go through a stored matrix
//!   ([`im2col_batched`]). They are the reference the first pair is tested
//!   against bit for bit — the epilogue against separate bias, add and ReLU
//!   passes over the reference output — and what the repository benchmark's
//!   `tensor.*` probes time; no model calls them.
//!
//! The stored lowering ([`im2col_batched`], [`col2im`]) moves row spans, not
//! pixels: per `(channel, kh, kw)` row the valid output-x range is worked
//! out once, and each output row is then one slice copy (or slice `+=`) at
//! stride 1, one strided walk otherwise, in the element order a per-pixel
//! loop would use. A 1×1 / stride-1 / pad-0 convolution is not lowered at
//! all: its column matrix is the input's storage under another shape (one
//! frame of it, for the stored pair). All of it is bit-equal to the
//! per-pixel bodies, which the tests keep as the reference.

use crate::matmul::{
    conv_product, matmul, matmul_nt, matmul_tn, tap_product, weight_grads, Sink, KC, NR,
};
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
/// with `spec.in_channels` channels. Returns its `(n, c, h, w)`. `op` is the
/// entry point the errors name.
fn check_frames(
    input: &Tensor,
    spec: &Conv2dSpec,
    op: &'static str,
) -> Result<(usize, usize, usize, usize)> {
    spec.validate()?;
    let (n, c, h, w) = input.shape().as_nchw()?;
    if n == 0 {
        return Err(TensorError::InvalidArgument(format!(
            "{op} needs at least one frame"
        )));
    }
    if c != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: input.shape().dims().to_vec(),
            rhs: vec![n, spec.in_channels, 0, 0],
        });
    }
    Ok((n, c, h, w))
}

/// A batch of frames laid out so that every row of their column matrix (the
/// one [`im2col_batched`] builds) is a contiguous run of memory.
///
/// Each frame is zero-padded and split into its stride phases, each an
/// `hq × wq` plane: `(py % stride_h, px % stride_w)` for padded pixel
/// `(py, px)`, only those a kernel tap reads (all of them unless the kernel
/// is smaller than the stride). Output pixel `(oy, ox)` is *grid
/// column* `oy * wq + ox` of its frame, and the tap `(ci, kh, kw)` of every
/// grid column lies at one fixed `offset` from it, so row `kk` of the column
/// matrix over a run of grid columns is `copy[offsets[kk] + column..]`. Grid
/// columns `ox ≥ ow` read whatever lies there; the GEMM computes them and
/// never writes them. At stride 1 a row's right padding doubles as the next
/// row's left padding, so `wq` is `w + pad_w`, not `w + 2 pad_w`. With more
/// than one frame a frame's grid is rounded up to a multiple of [`NR`], so
/// no GEMM stripe crosses frames.
///
/// The copy holds the channels of one `K` block of the column matrix at a
/// time ([`PaddedImage::load`]), so it stays a fraction of the input. A
/// pointwise convolution (1×1, stride 1, no padding) needs no copy: its
/// frames already are that layout.
pub(crate) struct PaddedImage<'a> {
    frames: &'a [f32],
    spec: Conv2dSpec,
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Sides of one stride phase of a padded frame.
    hq: usize,
    wq: usize,
    /// Stride phases kept per axis: `min(stride, kernel)`.
    phases: (usize, usize),
    /// Grid columns per frame.
    per_frame: usize,
    /// Per column-matrix row: where its tap reads, from its frame's first
    /// grid column, when channel 0 sits in the copy's first slot.
    offsets: Vec<usize>,
    /// `slots` channels of every frame, frame-major; empty when pointwise.
    copy: Vec<f32>,
    slots: usize,
    /// The channels `copy` holds, from its first slot on.
    channels: Range<usize>,
}

impl<'a> PaddedImage<'a> {
    /// Lay out `input` for `spec`, with room for the channels of
    /// `rows_per_load` consecutive column-matrix rows (a multiple of them
    /// starts every [`PaddedImage::load`]). The copy is allocated zeroed
    /// here and filled by `load`.
    pub(crate) fn new(
        input: &'a Tensor,
        spec: &Conv2dSpec,
        op: &'static str,
        rows_per_load: usize,
    ) -> Result<Self> {
        let (n, c, h, w) = check_frames(input, spec, op)?;
        let (oh, ow) = spec.output_size(h, w);
        let (sh, sw) = (spec.stride_h, spec.stride_w);
        // A kernel wider than the padded frame still reads zeros past it.
        let mut hq = (h + 2 * spec.pad_h)
            .max((oh - 1) * sh + spec.kernel_h)
            .div_ceil(sh);
        let mut wq = (w + 2 * spec.pad_w)
            .max((ow - 1) * sw + spec.kernel_w)
            .div_ceil(sw);
        if sw == 1 && spec.pad_w > 0 {
            // At stride 1 a row's right padding can be the next row's left
            // padding: taps past the row's end wrap into it, and one more
            // zero row serves the last. Fewer grid columns go to waste.
            wq = (w + spec.pad_w)
                .max(ow - 1 + spec.kernel_w - spec.pad_w)
                .max(ow);
            hq += 1;
        }
        let per_frame = if n == 1 {
            oh * wq
        } else {
            (oh * wq).next_multiple_of(NR)
        };
        let (ph, pw) = (sh.min(spec.kernel_h), sw.min(spec.kernel_w));
        let taps = spec.kernel_h * spec.kernel_w;
        // Tap `(ci, kh, kw)` sits in phase `(kh % sh, kw % sw)` of slot
        // `ci`, `(kh / sh, kw / sw)` from the grid column it serves.
        let mut offsets = Vec::with_capacity(c * taps);
        for ci in 0..c {
            for kh in 0..spec.kernel_h {
                let row = ((ci * ph + kh % sh) * pw * hq + kh / sh) * wq;
                let (mut phase, mut column) = (0, 0);
                for _ in 0..spec.kernel_w {
                    offsets.push(row + phase * hq * wq + column);
                    phase += 1;
                    if phase == sw {
                        (phase, column) = (0, column + 1);
                    }
                }
            }
        }
        let (copy, slots, channels) = if spec.is_pointwise() {
            (Vec::new(), c, 0..c)
        } else {
            // The most channels any load's rows touch.
            let slots = (0..c * taps)
                .step_by(rows_per_load)
                .map(|k0| ((k0 + rows_per_load).min(c * taps) - 1) / taps - k0 / taps + 1)
                .max()
                .unwrap_or(0);
            (vec![0.0; n * slots * ph * pw * hq * wq], slots, 0..0)
        };
        Ok(PaddedImage {
            frames: input.data(),
            spec: *spec,
            n,
            h,
            w,
            oh,
            ow,
            hq,
            wq,
            phases: (ph, pw),
            per_frame,
            offsets,
            copy,
            slots,
            channels,
        })
    }

    /// `grad_out`, the upstream gradient of a convolution by `spec`, laid out
    /// for the input gradient of one stride phase, whose axes are `y` and
    /// `x`: a stride-1 convolution of `grad_out` with the phase's taps, as
    /// [`PhaseAxis`] describes them.
    ///
    /// The phase's input pixels are the output grid (`y.len × x.len`).
    /// Column-matrix row `(jy, jx, oc)` — the phase's taps in kernel order,
    /// then output channels in order — reads `grad_out` channel `oc` at
    /// `(y.q0 + t − jy, x.q0 + u − jx)` for grid pixel `(t, u)`, and a zero
    /// outside it. Every channel is copied at once, zero-padded by
    /// [`PhaseAxis::before`] and [`PhaseAxis::extent`] per axis; where that
    /// is `grad_out`'s own layout (a pointwise convolution) nothing is
    /// copied. The phase must have a pixel and a tap.
    fn upstream(grad_out: &'a Tensor, spec: &Conv2dSpec, y: &PhaseAxis, x: &PhaseAxis) -> Self {
        let &[_, oc, gh, gw] = grad_out.shape().dims() else {
            unreachable!("an upstream gradient is NCHW")
        };
        let (hq, wq) = (y.extent(gh), x.extent(gw));
        let (top, left) = (y.before(), x.before());
        let mut offsets = Vec::with_capacity(y.taps * x.taps * oc);
        for jy in 0..y.taps {
            for jx in 0..x.taps {
                let at = (top + y.q0 - jy) * wq + left + x.q0 - jx;
                offsets.extend((0..oc).map(|o| o * hq * wq + at));
            }
        }
        let frames = grad_out.data();
        let copy = if (top, left, hq, wq) == (0, 0, gh, gw) {
            Vec::new()
        } else {
            let mut copy = vec![0.0; oc * hq * wq];
            for (plane, channel) in copy
                .chunks_exact_mut(hq * wq)
                .zip(frames.chunks_exact(gh * gw))
            {
                for (dst, row) in plane[top * wq..]
                    .chunks_exact_mut(wq)
                    .zip(channel.chunks_exact(gw))
                {
                    dst[left..left + gw].copy_from_slice(row);
                }
            }
            copy
        };
        PaddedImage {
            frames,
            spec: *spec,
            n: 1,
            h: gh,
            w: gw,
            oh: y.len,
            ow: x.len,
            hq,
            wq,
            phases: (1, 1),
            per_frame: y.len * wq,
            offsets,
            copy,
            slots: oc,
            channels: 0..oc,
        }
    }

    /// Shape of the product `W · cols` reads: `(in_c * kh * kw, grid
    /// columns of every frame)`.
    pub(crate) fn grid_dims(&self) -> (usize, usize) {
        (self.offsets.len(), self.n * self.per_frame)
    }

    /// Shape of the product `A · colsᵀ` reads over the valid pixels of a
    /// single frame: `(in_c * kh * kw, oh * ow)`.
    pub(crate) fn pixel_dims(&self) -> (usize, usize) {
        (self.offsets.len(), self.oh * self.ow)
    }

    /// Floats per channel slot: every kept phase of one padded frame.
    fn slot_len(&self) -> usize {
        self.phases.0 * self.phases.1 * self.hq * self.wq
    }

    /// What `offsets` and grid columns index: the copy, or the frames.
    pub(crate) fn data(&self) -> &[f32] {
        if self.copy.is_empty() {
            self.frames
        } else {
            &self.copy
        }
    }

    /// Where the output grid of this image lands: frame-major NCHW for
    /// `out_channels` rows of `C`.
    pub(crate) fn sink<'s>(
        &self,
        bias: Option<&'s [f32]>,
        residual: Option<&'s [f32]>,
        relu: bool,
    ) -> Sink<'s> {
        Sink {
            per_frame: self.per_frame,
            row: self.wq,
            oh: self.oh,
            ow: self.ow,
            bias,
            residual,
            relu,
            plain: false,
        }
    }

    /// Fill the copy with the channels column-matrix rows `rows` read: for
    /// every frame and channel, each input row is one slice copy (stride 1)
    /// or one strided walk per kept phase. Padding is never written, so it
    /// stays the zeros the copy was allocated with.
    pub(crate) fn load(&mut self, rows: Range<usize>) {
        let taps = self.spec.kernel_h * self.spec.kernel_w;
        let channels = rows.start / taps..(rows.end - 1) / taps + 1;
        if self.copy.is_empty() || channels == self.channels {
            return;
        }
        let spec = self.spec;
        let (sh, sw) = (spec.stride_h, spec.stride_w);
        let (ph, pw) = self.phases;
        let (h, w, wq) = (self.h, self.w, self.wq);
        let (slot_len, phase_len) = (self.slot_len(), self.hq * wq);
        let frame_len = self.slots * slot_len;
        let c = spec.in_channels;
        for ni in 0..self.n {
            for (slot, ci) in channels.clone().enumerate() {
                let src = &self.frames[(ni * c + ci) * h * w..][..h * w];
                let dst = &mut self.copy[ni * frame_len + slot * slot_len..][..slot_len];
                for (iy, row) in src.chunks_exact(w).enumerate() {
                    let py = iy + spec.pad_h;
                    if py % sh >= ph {
                        continue;
                    }
                    let dst_row = (py % sh) * pw * phase_len + py / sh * wq;
                    if sw == 1 {
                        dst[dst_row + spec.pad_w..][..w].copy_from_slice(row);
                        continue;
                    }
                    for rx in 0..pw {
                        // The input columns of phase `rx`: `(ix + pad_w) % sw == rx`.
                        let ix0 = (rx + sw - spec.pad_w % sw) % sw;
                        if ix0 >= w {
                            continue;
                        }
                        let at = dst_row + rx * phase_len + (ix0 + spec.pad_w) / sw;
                        let columns = row[ix0..].chunks(sw);
                        for (d, column) in dst[at..][..columns.len()].iter_mut().zip(columns) {
                            *d = column[0];
                        }
                    }
                }
            }
        }
        self.channels = channels;
    }

    /// Pack the stripe of grid columns `[j0, j0 + NR)` over column-matrix
    /// rows `rows` (loaded) into `bstripe[kk * NR..]`: one straight
    /// `NR`-float copy per row. Columns past the grid get what lies there,
    /// or keep what `bstripe` held where the data ends.
    pub(crate) fn pack_stripe(&self, bstripe: &mut [f32], rows: Range<usize>, j0: usize) {
        let data = self.data();
        let (ni, column) = (j0 / self.per_frame, j0 % self.per_frame);
        let base = ni * self.slots * self.slot_len() + column;
        let shift = self.channels.start * self.slot_len();
        for (dst, &offset) in bstripe.chunks_exact_mut(NR).zip(&self.offsets[rows]) {
            let start = base + offset - shift;
            match data.get(start..start + NR) {
                Some(src) => dst[..NR].copy_from_slice(&src[..NR]),
                None => {
                    let src = data.get(start..).unwrap_or_default();
                    dst[..src.len()].copy_from_slice(src);
                }
            }
        }
    }

    /// The runs of grid columns `(first, len)` that hold the output pixels
    /// `pixels` (`oy * ow + ox`) of a single frame, one per output row the
    /// range touches. Every channel must be loaded.
    pub(crate) fn pixel_runs(&self, pixels: Range<usize>) -> Vec<(usize, usize)> {
        debug_assert_eq!((self.n, self.channels.start), (1, 0));
        let mut runs = Vec::new();
        let mut p = pixels.start;
        while p < pixels.end {
            let (oy, ox) = (p / self.ow, p % self.ow);
            let len = (self.ow - ox).min(pixels.end - p);
            runs.push((oy * self.wq + ox, len));
            p += len;
        }
        runs
    }

    /// The input's channel count, and how far apart two channels' rows
    /// read: the same tap of channel `ci + 1` is this many floats after
    /// channel `ci`'s.
    pub(crate) fn channels(&self) -> (usize, usize) {
        (self.spec.in_channels, self.slot_len())
    }

    /// Per column-matrix row: where it reads in [`PaddedImage::data`], from
    /// the first grid column, while channel 0 is loaded first.
    pub(crate) fn row_offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// One axis of one stride phase of a convolution's input gradient: the
/// input positions `first + stride · t` (`t < len`), which the taps `phase +
/// stride · j` (`j < taps`, ascending with the kernel index) reach from
/// output position `q0 + t − j`, where that lies inside the output. At
/// stride 1 the one phase is every position and every tap.
#[derive(Debug, Clone, Copy)]
struct PhaseAxis {
    first: usize,
    len: usize,
    taps: usize,
    q0: usize,
}

impl PhaseAxis {
    /// Phase `phase` (`< stride`) of an axis of `input` positions under a
    /// `kernel`-wide, `stride`-strided, `pad`-padded convolution.
    fn new(kernel: usize, stride: usize, pad: usize, input: usize, phase: usize) -> Self {
        // The positions with `(position + pad) % stride == phase`.
        let first = (phase + stride - pad % stride) % stride;
        PhaseAxis {
            first,
            len: input.saturating_sub(first).div_ceil(stride),
            taps: kernel.saturating_sub(phase).div_ceil(stride),
            q0: (first + pad - phase) / stride,
        }
    }

    /// Zero padding before the output's first position: what the farthest
    /// tap of the first position reaches back.
    fn before(&self) -> usize {
        (self.taps - 1).saturating_sub(self.q0)
    }

    /// Padded length of an axis of `output` positions: every position any
    /// tap of any grid pixel reads.
    fn extent(&self, output: usize) -> usize {
        self.before() + output.max(self.q0 + self.len)
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
    let (n, c, h, w) = check_frames(input, spec, "im2col_batched")?;
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

/// What [`conv2d`] does to each output element after its last multiply-add,
/// in this order: add the bias, add `residual`, apply a ReLU the way
/// [`crate::ops::relu`] does. It happens as the GEMM writes the element, so
/// a layer's activation is written once, by the convolution producing it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// A tensor shaped like the output, added element by element.
    pub residual: Option<&'a Tensor>,
    /// Whether a ReLU follows.
    pub relu: bool,
}

impl<'a> Epilogue<'a> {
    /// The bias and nothing else.
    pub const NONE: Epilogue<'static> = Epilogue {
        residual: None,
        relu: false,
    };
    /// The bias, then a ReLU.
    pub const RELU: Epilogue<'static> = Epilogue {
        residual: None,
        relu: true,
    };

    /// The bias, then `residual` (a shortcut the convolution's output joins).
    pub fn residual(residual: &'a Tensor) -> Self {
        Epilogue {
            residual: Some(residual),
            relu: false,
        }
    }
}

/// Forward convolution, `(n, in_c, h, w)` → `(n, out_c, oh, ow)`, with the
/// bias and `epilogue` applied as each element is written: the product
/// [`conv2d_forward`] computes, followed by the separate passes the epilogue
/// stands for, bit for bit. The GEMM reads its stripes from a padded copy of
/// one `K` block's channels at a time (`PaddedImage`), and writes each tile
/// straight into the NCHW output, which is the only tensor this allocates.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    epilogue: Epilogue<'_>,
) -> Result<Tensor> {
    check_params(weight, bias, spec)?;
    let mut image = PaddedImage::new(input, spec, "conv2d", KC)?;
    let shape = Shape::nchw(image.n, spec.out_channels, image.oh, image.ow);
    if let Some(residual) = epilogue.residual {
        if !residual.shape().same_as(&shape) {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d(residual)",
                lhs: residual.shape().dims().to_vec(),
                rhs: shape.dims().to_vec(),
            });
        }
    }
    let sink = image.sink(
        bias.map(Tensor::data),
        epilogue.residual.map(Tensor::data),
        epilogue.relu,
    );
    let mut out = vec![0.0f32; shape.numel()];
    conv_product(
        weight.data(),
        spec.out_channels,
        &mut image,
        &sink,
        &mut out,
    );
    Tensor::from_vec(shape, out)
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
/// the `(out_c, oh*ow)` matrix both backward products read. `op` is the
/// entry point the errors name.
fn grad_matrix(grad_out: &Tensor, spec: &Conv2dSpec, op: &'static str) -> Result<Tensor> {
    let (n, oc, oh, ow) = grad_out.shape().as_nchw()?;
    if n != 1 {
        // Distillation trains on single key frames; only the forward/
        // inference path is batched.
        return Err(TensorError::InvalidArgument(format!(
            "{op} expects a single-frame gradient (training is per-frame)"
        )));
    }
    if oc != spec.out_channels {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![1, spec.out_channels, 0, 0],
        });
    }
    grad_out.reshape(Shape::matrix(oc, oh * ow))
}

/// Backward convolution given the upstream gradient `grad_out`
/// (`(1, out_c, oh, ow)`), the im2col `columns` [`conv2d_forward`] returned,
/// and the original input spatial size: `dW = gO · columnsᵀ`, `db` the sum
/// of each `gO` channel, and `dI = col2im(Wᵀ · gO)`. The reference for
/// [`conv2d_grads`].
pub fn conv2d_backward(
    grad_out: &Tensor,
    columns: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    input_h: usize,
    input_w: usize,
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    let go_mat = grad_matrix(grad_out, spec, "conv2d_backward")?;
    let dw_mat = matmul_nt(&go_mat, columns)?;
    let (oc, plane) = go_mat.shape().as_matrix()?;
    let bias_grad: Vec<f32> = (0..oc)
        .map(|c| go_mat.data()[c * plane..(c + 1) * plane].iter().sum())
        .collect();
    let input_grad = if need_input_grad {
        let dcol = matmul_tn(&weight_matrix(weight, spec)?, &go_mat)?;
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

/// Backward convolution from the forward pass's *input* (`(1, in_c, h, w)`)
/// instead of its column matrix, bit-identical to [`conv2d_backward`] on
/// `im2col(input)`; no column-shaped matrix is built.
///
/// * The weight and bias gradients read the column matrix in place from a
///   padded copy of the frame (`PaddedImage`), against `gOᵀ` packed once
///   (`weight_grads`).
/// * The input gradient is a convolution of the zero-padded `grad_out` with
///   the weights transposed over (out_c, in_c) and flipped: at stride `s`,
///   one stride-1 convolution per stride phase of the input, with that
///   phase's taps. Each input pixel is `0 + t₀ + t₁ + …` over the taps in
///   kernel order, each `tᵢ` one chain over the output channels
///   (`tap_product`): what `col2im` adds up, bit for bit, as long as the
///   weights are finite (a padding tap adds `0 · w`).
///
/// The input copy is dropped before the input gradient's buffers are
/// allocated. A `grad_out` whose spatial size is not the one `input`
/// convolves to is a shape mismatch.
pub fn conv2d_grads(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    need_input_grad: bool,
) -> Result<Conv2dGrads> {
    const OP: &str = "conv2d_grads";
    check_params(weight, None, spec)?;
    let go_mat = grad_matrix(grad_out, spec, OP)?;
    let (n, c, h, w) = check_frames(input, spec, OP)?;
    let (oh, ow) = spec.output_size(h, w);
    if (n, oh, ow) != (1, grad_out.shape().dim(2), grad_out.shape().dim(3)) {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![n, spec.out_channels, oh, ow],
        });
    }
    let oc = spec.out_channels;
    let (mut dw, mut db) = (vec![0.0f32; spec.weight_shape().numel()], vec![0.0f32; oc]);
    {
        let rows = c * spec.kernel_h * spec.kernel_w;
        let mut image = PaddedImage::new(input, spec, OP, rows)?;
        image.load(0..rows);
        weight_grads(go_mat.data(), oc, &image, &mut dw, &mut db);
    }
    Ok(Conv2dGrads {
        input: need_input_grad.then(|| input_grad(grad_out, weight, spec, (h, w))),
        weight: Tensor::from_vec(spec.weight_shape(), dw)?,
        bias: Tensor::from_vec(Shape::vector(oc), db)?,
    })
}

/// The input gradient of [`conv2d_grads`], phase by phase. A pixel no tap
/// reaches keeps the `+0.0` `col2im` leaves it.
fn input_grad(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    (h, w): (usize, usize),
) -> Tensor {
    let (ic, oc) = (spec.in_channels, spec.out_channels);
    let (sh, sw) = (spec.stride_h, spec.stride_w);
    let mut out = vec![0.0f32; ic * h * w];
    for ry in 0..sh {
        for rx in 0..sw {
            let y = PhaseAxis::new(spec.kernel_h, sh, spec.pad_h, h, ry);
            let x = PhaseAxis::new(spec.kernel_w, sw, spec.pad_w, w, rx);
            if y.len * x.len * y.taps * x.taps == 0 {
                continue;
            }
            let image = PaddedImage::upstream(grad_out, spec, &y, &x);
            let taps: Vec<usize> = (0..y.taps)
                .flat_map(|jy| (0..x.taps).map(move |jx| (ry + sh * jy, rx + sw * jx)))
                .map(|(kh, kw)| kh * spec.kernel_w + kw)
                .collect();
            let sink = image.sink(None, None, false);
            if (sh, sw) == (1, 1) {
                tap_product(weight.data(), (ic, oc), &taps, &image, &sink, &mut out);
                continue;
            }
            let mut phase = vec![0.0f32; ic * y.len * x.len];
            tap_product(weight.data(), (ic, oc), &taps, &image, &sink, &mut phase);
            for (plane, src) in out
                .chunks_exact_mut(h * w)
                .zip(phase.chunks_exact(y.len * x.len))
            {
                for (t, row) in src.chunks_exact(x.len).enumerate() {
                    let dst = plane[(y.first + sh * t) * w + x.first..]
                        .iter_mut()
                        .step_by(sw);
                    for (d, &v) in dst.zip(row) {
                        *d = v;
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::nchw(1, ic, h, w), out).expect("ic × h × w floats")
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

    /// Every stripe [`PaddedImage::pack_stripe`] packs, per `K` block,
    /// against the stored column matrix at the grid columns that are output
    /// pixels; then the weight-gradient product over the fully loaded copy,
    /// and the two layer entry points against the column-matrix pair.
    fn assert_padded_equals_stored(spec: &Conv2dSpec, input: &Tensor, seed: u64) {
        let (n, _, h, w) = input.shape().as_nchw().unwrap();
        let what = format!("{spec:?} on {n}x{}x{h}x{w}", spec.in_channels);
        let cols = im2col_batched(input, spec).unwrap();
        let (k, pixels) = cols.shape().as_matrix().unwrap();
        let (oh, ow) = spec.output_size(h, w);
        let mut image = PaddedImage::new(input, spec, "test", KC).unwrap();
        let (rows, grid) = image.grid_dims();
        assert_eq!(rows, k, "{what}");
        let mut bstripe = vec![0.0f32; KC * NR];
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            image.load(k0..k0 + kc);
            for j0 in (0..grid).step_by(NR) {
                bstripe.fill(f32::NAN);
                image.pack_stripe(&mut bstripe[..kc * NR], k0..k0 + kc, j0);
                for j in j0..(j0 + NR).min(grid) {
                    let (ni, column) = (j / image.per_frame, j % image.per_frame);
                    let (oy, ox) = (column / image.wq, column % image.wq);
                    if oy >= oh || ox >= ow {
                        continue;
                    }
                    for kk in k0..k0 + kc {
                        let want = cols.data()[kk * pixels + (ni * oh + oy) * ow + ox];
                        let got = bstripe[(kk - k0) * NR + j - j0];
                        assert_eq!(got.to_bits(), want.to_bits(), "row {kk} column {j}, {what}");
                    }
                }
            }
        }

        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, seed);
        let bias = random::uniform(Shape::vector(spec.out_channels), -0.1, 0.1, seed + 2);
        let (reference, _) = conv2d_forward(input, &weight, Some(&bias), spec).unwrap();
        let out = conv2d(input, &weight, Some(&bias), spec, Epilogue::NONE).unwrap();
        assert_eq!(out.shape(), reference.shape(), "{what}");
        assert_eq!(bits(&out), bits(&reference), "conv2d {what}");
        if n > 1 {
            return;
        }
        // With a -0.0 and a subnormal among the gradients.
        let mut grad_out = random::uniform(out.shape().clone(), -1.0, 1.0, seed + 1);
        grad_out.data_mut()[0] = -0.0;
        grad_out.data_mut()[pixels / 2] = f32::from_bits(3);
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

    #[test]
    fn padded_image_equals_the_stored_column_matrix_bit_for_bit() {
        // The sizes of the span-lowering referee: stripes that cross output
        // rows, frames whose grid is no multiple of `NR` (5×7), `w <
        // kernel_w`, `h < kernel_h`, odd sides under stride 2.
        let sizes = [(1, 1), (1, 2), (2, 1), (3, 2), (2, 5), (5, 7), (8, 6)];
        // Unequal strides too: row phases with stride-1 columns, whose rows
        // share their padding, and the other way round.
        let mixed = [(2, 1), (1, 2)].map(|(stride_h, stride_w)| Conv2dSpec {
            stride_h,
            stride_w,
            ..Conv2dSpec::square(2, 3, 3, 1)
        });
        let mut seed = 300;
        for spec in lowering_specs(2, 3).into_iter().chain(mixed) {
            for (h, w) in sizes {
                for n in [1, 3] {
                    seed += 3;
                    let input = random::uniform(Shape::nchw(n, 2, h, w), -1.0, 1.0, seed);
                    assert_padded_equals_stored(&spec, &input, seed);
                }
            }
        }
    }

    #[test]
    fn padded_image_equals_the_stored_column_matrix_across_blocks_and_threads() {
        // `sb5.conv33` of the `small()` student: K = 576 spans three `KC`
        // blocks forward, each loading the channels it reads; 17×19 = 323
        // pixels span two of them backward and are no multiple of `NR`.
        let deep = Conv2dSpec::square(64, 24, 3, 1);
        for n in [1, 2] {
            let input = random::uniform(Shape::nchw(n, 64, 17, 19), -1.0, 1.0, 500 + n as u64);
            assert_padded_equals_stored(&deep, &input, 510);
        }
        // Every product above `PAR_MIN_MACS` (40·216·2304 and 40·216·768
        // multiply-adds, 16·432·768 for the weight gradient whose tiles pair
        // rows), stride 1 and 2: each worker packs its own stripes from the
        // shared copy, and the answer does not depend on how many there are.
        for (ic, oc) in [(24, 40), (48, 16)] {
            for stride in [1, 2] {
                let wide = Conv2dSpec::square(ic, oc, 3, stride);
                let (h, w) = (24 * stride, 32 * stride);
                for n in [1, 3] {
                    let input =
                        random::uniform(Shape::nchw(n, ic, h, w), -1.0, 1.0, 520 + n as u64);
                    let weight = random::uniform(wide.weight_shape(), -0.5, 0.5, 530);
                    let grad_out = random::uniform(Shape::nchw(1, oc, 24, 32), -1.0, 1.0, 531);
                    let run = |threads: usize| {
                        crate::parallel::set_threads(threads);
                        assert_padded_equals_stored(&wide, &input, 540);
                        let out = conv2d(&input, &weight, None, &wide, Epilogue::RELU).unwrap();
                        let grads = (n == 1).then(|| {
                            let g = conv2d_grads(&grad_out, &input, &weight, &wide, true).unwrap();
                            (bits(&g.weight), bits(&g.bias), bits(&g.input.unwrap()))
                        });
                        crate::parallel::set_threads(0);
                        (bits(&out), grads)
                    };
                    assert_eq!(run(1), run(2), "{wide:?}, {n} frames");
                }
            }
        }
    }

    #[test]
    fn grads_split_a_tap_longer_than_kc_as_the_stored_matrix_does() {
        // `KC + 44` output channels: the input gradient chains each tap over
        // them in two pieces, joined as `matmul_tn` joins its `K` blocks, and
        // the weight gradient runs ten 32-lane stripes. Stride 1 and 2, with
        // specials in the input.
        for stride in [1, 2] {
            let spec = Conv2dSpec::square(3, KC + 44, 3, stride);
            let mut input = random::uniform(Shape::nchw(1, 3, 5, 6), -1.0, 1.0, 900);
            plant_specials(&mut input, 3);
            assert_padded_equals_stored(&spec, &input, 901);
        }
    }

    #[test]
    fn padded_image_equals_the_stored_column_matrix_on_the_students_shapes() {
        // The `small()` student's stem (3 → 6), head (16 → 9, pointwise:
        // read from the frames, no copy) and `in40 3×3` (40 → 24, K = 360
        // crosses a `KC` block): partial 8-row panels, over 16, 31, 33 and
        // 192 pixels — the first three fill no 32-column stripe, and a 12×16
        // frame's stripes each span two output rows — on one worker and on
        // two.
        let specs = [
            Conv2dSpec::square(3, 6, 3, 1),
            Conv2dSpec::square(16, 9, 1, 1),
            Conv2dSpec::square(40, 24, 3, 1),
        ];
        let mut seed = 600;
        for spec in &specs {
            for (h, w) in [(4, 4), (1, 31), (3, 11), (12, 16)] {
                for n in [1, 2] {
                    seed += 3;
                    let input =
                        random::uniform(Shape::nchw(n, spec.in_channels, h, w), -1.0, 1.0, seed);
                    for threads in [1, 2] {
                        crate::parallel::set_threads(threads);
                        assert_padded_equals_stored(spec, &input, seed);
                        crate::parallel::set_threads(0);
                    }
                }
            }
        }
    }

    /// `-0.0`, a subnormal, both infinities and a NaN at a few places of
    /// `t`, by `salt`.
    fn plant_specials(t: &mut Tensor, salt: usize) {
        let data = t.data_mut();
        let len = data.len();
        let specials = [
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for (i, v) in specials.into_iter().enumerate() {
            data[(salt * 7919 + i * 104_729) % len] = v;
        }
    }

    /// `conv2d` with `epilogue` against `conv2d_forward` followed by the
    /// separate residual add and ReLU, bit for bit.
    fn assert_fused_equals_separate(spec: &Conv2dSpec, input: &Tensor, seed: u64) {
        let (n, _, h, w) = input.shape().as_nchw().unwrap();
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, seed);
        let bias = random::uniform(Shape::vector(spec.out_channels), -0.1, 0.1, seed + 1);
        let (plain, _) = conv2d_forward(input, &weight, Some(&bias), spec).unwrap();
        let mut residual = random::uniform(plain.shape().clone(), -1.0, 1.0, seed + 2);
        plant_specials(&mut residual, seed as usize + 1);
        for (add, relu) in [(false, false), (false, true), (true, false), (true, true)] {
            let what = format!(
                "{spec:?} on {n}x{}x{h}x{w}, add {add}, relu {relu}",
                spec.in_channels
            );
            let mut expected = plain.clone();
            if add {
                expected = expected.add(&residual).unwrap();
            }
            if relu {
                expected = crate::ops::relu(&expected);
            }
            let epilogue = Epilogue {
                residual: add.then_some(&residual),
                relu,
            };
            let got = conv2d(input, &weight, Some(&bias), spec, epilogue).unwrap();
            assert_eq!(bits(&got), bits(&expected), "{what}");
        }
    }

    #[test]
    fn fused_epilogue_equals_the_separate_passes_across_k_blocks() {
        // K = 288, 360 and 576: two and three `KC` blocks, so the first,
        // a middle and the last block's write-backs all run; specials in the
        // input reach every block.
        let mut seed = 700;
        for (in_channels, stride) in [(32, 1), (40, 1), (64, 1), (40, 2)] {
            let spec = Conv2dSpec::square(in_channels, 20, 3, stride);
            for (n, h, w) in [(1, 9, 13), (2, 8, 6)] {
                seed += 5;
                let mut input = random::uniform(Shape::nchw(n, in_channels, h, w), -1.0, 1.0, seed);
                plant_specials(&mut input, seed as usize);
                for threads in [1, 2] {
                    crate::parallel::set_threads(threads);
                    assert_fused_equals_separate(&spec, &input, seed);
                    crate::parallel::set_threads(0);
                }
            }
        }
    }

    #[test]
    fn fused_epilogue_equals_the_separate_passes_on_every_geometry() {
        let mut seed = 800;
        for spec in lowering_specs(3, 5) {
            for (n, h, w) in [(1, 5, 7), (3, 2, 5)] {
                seed += 5;
                let mut input = random::uniform(Shape::nchw(n, 3, h, w), -1.0, 1.0, seed);
                plant_specials(&mut input, seed as usize);
                assert_fused_equals_separate(&spec, &input, seed);
            }
        }
        // A residual of another shape is refused, not read out of bounds.
        let spec = Conv2dSpec::square(3, 5, 3, 1);
        let input = random::uniform(Shape::nchw(1, 3, 4, 4), -1.0, 1.0, 1);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 2);
        let short = Tensor::zeros(Shape::nchw(1, 5, 4, 3));
        assert!(matches!(
            conv2d(&input, &weight, None, &spec, Epilogue::residual(&short)),
            Err(TensorError::ShapeMismatch {
                op: "conv2d(residual)",
                ..
            })
        ));
    }

    #[test]
    fn grads_from_the_input_keep_the_typed_errors() {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, 71);
        let frame = random::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 72);
        let batch = random::uniform(Shape::nchw(2, 2, 4, 4), -1.0, 1.0, 73);
        // A batched gradient: training is per-frame.
        let out = conv2d(&batch, &weight, None, &spec, Epilogue::NONE).unwrap();
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
                Err(TensorError::ShapeMismatch {
                    op: "conv2d_grads",
                    ..
                })
            ));
        }
        // Each entry point names itself, not the lowering underneath.
        let five = Tensor::ones(Shape::nchw(1, 5, 4, 4));
        assert!(matches!(
            conv2d(&five, &weight, None, &spec, Epilogue::NONE),
            Err(TensorError::ShapeMismatch { op: "conv2d", .. })
        ));
        let empty = Tensor::zeros(Shape::nchw(0, 2, 4, 4));
        for (err, op) in [
            (
                conv2d_grads(&grad, &empty, &weight, &spec, true).unwrap_err(),
                "conv2d_grads",
            ),
            (
                conv2d(&empty, &weight, None, &spec, Epilogue::NONE).unwrap_err(),
                "conv2d",
            ),
            (im2col_batched(&empty, &spec).unwrap_err(), "im2col_batched"),
        ] {
            let want = format!("{op} needs at least one frame");
            assert!(
                matches!(&err, TensorError::InvalidArgument(m) if *m == want),
                "{err:?}"
            );
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
