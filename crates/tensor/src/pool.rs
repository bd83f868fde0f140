//! Pooling and up-sampling operators with backward passes.
//!
//! The student decoder up-samples low-resolution feature maps back to the
//! skip-connection resolution before concatenation, and the segmentation
//! head up-samples logits back to the input resolution, so nearest-neighbour
//! up-sampling (and its adjoint, which is exactly average-style scatter
//! accumulation) sits in every pass of every model. Average pooling is
//! provided for the optional CNN teacher's wider encoder.
//!
//! All four kernels work on the tensors' slices, a row span at a time: one
//! `data()` / one output buffer per call, never a [`Tensor::set4`] per
//! element (each of those re-checks the copy-on-write handle; the two
//! up-samples of one `small()` forward at 64×48 cost 0.6 ms that way and
//! 0.02 ms this way). Sums run in the order the per-element loops used, which
//! the tests keep as the bit-for-bit reference.

use crate::{Result, Shape, Tensor, TensorError};

/// Average pooling with a square window of size `k` and stride `k`
/// (non-overlapping). Each window is summed row by row, left to right, then
/// scaled once.
pub fn avg_pool2d(input: &Tensor, k: usize) -> Result<Tensor> {
    if k == 0 {
        return Err(TensorError::InvalidArgument(
            "pool window must be non-zero".into(),
        ));
    }
    let (n, c, h, w) = input.shape().as_nchw()?;
    let oh = h / k;
    let ow = w / k;
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument(format!(
            "input {h}x{w} too small for pool window {k}"
        )));
    }
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; n * c * oh * ow];
    for (in_plane, out_plane) in input
        .data()
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(oh * ow))
    {
        for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            let window_rows = &in_plane[oy * k * w..(oy * k + k) * w];
            for (ox, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for in_row in window_rows.chunks_exact(w) {
                    for &v in &in_row[ox * k..ox * k + k] {
                        acc += v;
                    }
                }
                *o = acc * inv;
            }
        }
    }
    Tensor::from_vec(Shape::nchw(n, c, oh, ow), out)
}

/// Backward pass of [`avg_pool2d`]: spread each output gradient uniformly
/// over its `k×k` window (the part of it inside `in_h × in_w`; input pixels
/// no window covers get zero).
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    k: usize,
    in_h: usize,
    in_w: usize,
) -> Result<Tensor> {
    let (n, c, oh, ow) = grad_out.shape().as_nchw()?;
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; n * c * in_h * in_w];
    if oh * ow > 0 && in_h * in_w > 0 {
        for (g_plane, out_plane) in grad_out
            .data()
            .chunks_exact(oh * ow)
            .zip(out.chunks_exact_mut(in_h * in_w))
        {
            // Windows do not overlap, so every covered pixel is `0.0 + g`.
            for (y, out_row) in out_plane.chunks_exact_mut(in_w).enumerate().take(oh * k) {
                let g_row = &g_plane[(y / k) * ow..(y / k + 1) * ow];
                for (cells, &g) in out_row.chunks_mut(k).zip(g_row) {
                    for cell in cells {
                        *cell += g * inv;
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::nchw(n, c, in_h, in_w), out)
}

/// Nearest-neighbour up-sampling by an integer factor: each output row is
/// filled from its input row once and copied for the `factor − 1` repeats.
pub fn upsample_nearest(input: &Tensor, factor: usize) -> Result<Tensor> {
    if factor == 0 {
        return Err(TensorError::InvalidArgument(
            "upsample factor must be non-zero".into(),
        ));
    }
    let (n, c, h, w) = input.shape().as_nchw()?;
    let ow = w * factor;
    let mut out = vec![0.0f32; n * c * h * factor * ow];
    if w > 0 {
        // One band per input row: `factor` output rows of `ow` elements.
        for (in_row, band) in input
            .data()
            .chunks_exact(w)
            .zip(out.chunks_exact_mut(factor * ow))
        {
            for (cells, &v) in band[..ow].chunks_exact_mut(factor).zip(in_row) {
                cells.fill(v);
            }
            for repeat in 1..factor {
                band.copy_within(..ow, repeat * ow);
            }
        }
    }
    Tensor::from_vec(Shape::nchw(n, c, h * factor, ow), out)
}

/// Backward pass of [`upsample_nearest`]: each input position accumulates the
/// gradients of all output positions it was copied to, starting from `0.0`,
/// output row by output row and left to right within a row — the order a
/// per-element walk of the gradient visits them, so rounding and the sign of
/// a zero sum do not depend on how the rows are moved.
pub fn upsample_nearest_backward(grad_out: &Tensor, factor: usize) -> Result<Tensor> {
    if factor == 0 {
        return Err(TensorError::InvalidArgument(
            "upsample factor must be non-zero".into(),
        ));
    }
    let (n, c, oh, ow) = grad_out.shape().as_nchw()?;
    if oh % factor != 0 || ow % factor != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "gradient size {oh}x{ow} not divisible by factor {factor}"
        )));
    }
    let h = oh / factor;
    let w = ow / factor;
    let mut out = vec![0.0f32; n * c * h * w];
    if w > 0 {
        // One band of `factor` gradient rows per input row.
        for (band, in_row) in grad_out
            .data()
            .chunks_exact(factor * ow)
            .zip(out.chunks_exact_mut(w))
        {
            for g_row in band.chunks_exact(ow) {
                for (cell, gs) in in_row.iter_mut().zip(g_row.chunks_exact(factor)) {
                    for &g in gs {
                        *cell += g;
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::nchw(n, c, h, w), out)
}

/// Down-sample a label map (`H*W` class indices) by taking the top-left
/// sample of each `factor×factor` block. Used when supervising the student at
/// a reduced output resolution.
pub fn downsample_labels(
    labels: &[usize],
    h: usize,
    w: usize,
    factor: usize,
) -> Result<Vec<usize>> {
    if factor == 0 || !h.is_multiple_of(factor) || !w.is_multiple_of(factor) {
        return Err(TensorError::InvalidArgument(format!(
            "label map {h}x{w} not divisible by factor {factor}"
        )));
    }
    if labels.len() != h * w {
        return Err(TensorError::LengthMismatch {
            expected: h * w,
            actual: labels.len(),
        });
    }
    let oh = h / factor;
    let ow = w / factor;
    let mut out = Vec::with_capacity(oh * ow);
    for oy in 0..oh {
        for ox in 0..ow {
            out.push(labels[(oy * factor) * w + ox * factor]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;

    /// The per-element kernels the span versions replaced (one `at4` read
    /// and one `set4` write per element), kept as the reference they must
    /// equal bit for bit.
    fn upsample_per_element(input: &Tensor, factor: usize) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().unwrap();
        let mut out = Tensor::zeros(Shape::nchw(n, c, h * factor, w * factor));
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..h * factor {
                    for ox in 0..w * factor {
                        out.set4(ni, ci, oy, ox, input.at4(ni, ci, oy / factor, ox / factor));
                    }
                }
            }
        }
        out
    }

    fn upsample_backward_per_element(grad_out: &Tensor, factor: usize) -> Tensor {
        let (n, c, oh, ow) = grad_out.shape().as_nchw().unwrap();
        let mut out = Tensor::zeros(Shape::nchw(n, c, oh / factor, ow / factor));
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let cur = out.at4(ni, ci, oy / factor, ox / factor);
                        let sum = cur + grad_out.at4(ni, ci, oy, ox);
                        out.set4(ni, ci, oy / factor, ox / factor, sum);
                    }
                }
            }
        }
        out
    }

    fn avg_pool_per_element(input: &Tensor, k: usize) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().unwrap();
        let mut out = Tensor::zeros(Shape::nchw(n, c, h / k, w / k));
        let inv = 1.0 / (k * k) as f32;
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..h / k {
                    for ox in 0..w / k {
                        let mut acc = 0.0;
                        for dy in 0..k {
                            for dx in 0..k {
                                acc += input.at4(ni, ci, oy * k + dy, ox * k + dx);
                            }
                        }
                        out.set4(ni, ci, oy, ox, acc * inv);
                    }
                }
            }
        }
        out
    }

    fn avg_pool_backward_per_element(grad_out: &Tensor, k: usize, h: usize, w: usize) -> Tensor {
        let (n, c, oh, ow) = grad_out.shape().as_nchw().unwrap();
        let mut out = Tensor::zeros(Shape::nchw(n, c, h, w));
        let inv = 1.0 / (k * k) as f32;
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.at4(ni, ci, oy, ox) * inv;
                        for (y, x) in (0..k).flat_map(|dy| (0..k).map(move |dx| (dy, dx))) {
                            let (y, x) = (oy * k + y, ox * k + x);
                            if y < h && x < w {
                                let cur = out.at4(ni, ci, y, x);
                                out.set4(ni, ci, y, x, cur + g);
                            }
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

    /// Uniform values with the cases a reordered or regrouped sum would get
    /// wrong planted in: negative zeros (`0.0 + -0.0` is `0.0`, a sum that
    /// started from the first addend would be `-0.0`) and subnormals.
    fn awkward(shape: Shape, seed: u64) -> Tensor {
        let mut t = random::uniform(shape, -1.0, 1.0, seed);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 5 {
                0 => *v = -0.0,
                3 => *v = f32::from_bits(1 + (i as u32 % 7)) * if i % 2 == 0 { 1.0 } else { -1.0 },
                _ => {}
            }
        }
        t
    }

    #[test]
    fn span_kernels_equal_the_per_element_reference_bit_for_bit() {
        let mut seed = 40;
        for factor in 1..=3 {
            for n in [1, 3] {
                for (c, h, w) in [(1, 1, 1), (2, 3, 5), (3, 5, 3), (1, 7, 1), (2, 1, 4)] {
                    seed += 1;
                    let what = format!("factor {factor} on {n}x{c}x{h}x{w}");
                    let x = awkward(Shape::nchw(n, c, h, w), seed);
                    let up = upsample_nearest(&x, factor).unwrap();
                    let reference = upsample_per_element(&x, factor);
                    assert_eq!(up.shape(), reference.shape(), "{what}");
                    assert_eq!(bits(&up), bits(&reference), "upsample {what}");

                    let grad = awkward(up.shape().clone(), seed + 100);
                    let back = upsample_nearest_backward(&grad, factor).unwrap();
                    let reference = upsample_backward_per_element(&grad, factor);
                    assert_eq!(back.shape(), x.shape(), "{what}");
                    assert_eq!(bits(&back), bits(&reference), "upsample backward {what}");

                    // The same sizes as a pooling input: `h`, `w` need not be
                    // multiples of the window, and the gradient may be spread
                    // over an input larger or smaller than the windows cover.
                    if h >= factor && w >= factor {
                        let pooled = avg_pool2d(&x, factor).unwrap();
                        let reference = avg_pool_per_element(&x, factor);
                        assert_eq!(pooled.shape(), reference.shape(), "{what}");
                        assert_eq!(bits(&pooled), bits(&reference), "avg pool {what}");
                        let grad = awkward(pooled.shape().clone(), seed + 200);
                        for (in_h, in_w) in [(h, w), (h + 1, w + 2), (h - 1, w)] {
                            let back = avg_pool2d_backward(&grad, factor, in_h, in_w).unwrap();
                            let reference =
                                avg_pool_backward_per_element(&grad, factor, in_h, in_w);
                            assert_eq!(back.shape(), reference.shape(), "{what}");
                            assert_eq!(bits(&back), bits(&reference), "avg pool backward {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec(
            Shape::nchw(1, 1, 2, 4),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
        .unwrap();
        let y = avg_pool2d(&x, 2).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[3.5, 5.5]);
    }

    #[test]
    fn avg_pool_rejects_bad_window() {
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(avg_pool2d(&x, 0).is_err());
        assert!(avg_pool2d(&x, 4).is_err());
    }

    #[test]
    fn upsample_then_pool_is_identity() {
        let x = random::uniform(Shape::nchw(1, 3, 4, 5), -1.0, 1.0, 1);
        let up = upsample_nearest(&x, 2).unwrap();
        assert_eq!(up.shape().dims(), &[1, 3, 8, 10]);
        let back = avg_pool2d(&up, 2).unwrap();
        for (a, b) in x.data().iter().zip(back.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn upsample_backward_is_adjoint() {
        // <up(x), y> == <x, up_backward(y)>
        let x = random::uniform(Shape::nchw(1, 2, 3, 3), -1.0, 1.0, 2);
        let up = upsample_nearest(&x, 2).unwrap();
        let y = random::uniform(up.shape().clone(), -1.0, 1.0, 3);
        let lhs = up.mul(&y).unwrap().sum();
        let back = upsample_nearest_backward(&y, 2).unwrap();
        let rhs = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn avg_pool_backward_is_adjoint() {
        let x = random::uniform(Shape::nchw(1, 2, 4, 6), -1.0, 1.0, 4);
        let pooled = avg_pool2d(&x, 2).unwrap();
        let y = random::uniform(pooled.shape().clone(), -1.0, 1.0, 5);
        let lhs = pooled.mul(&y).unwrap().sum();
        let back = avg_pool2d_backward(&y, 2, 4, 6).unwrap();
        let rhs = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn upsample_backward_rejects_indivisible() {
        let g = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(upsample_nearest_backward(&g, 2).is_err());
    }

    #[test]
    fn label_downsampling() {
        let labels: Vec<usize> = (0..16).collect();
        let down = downsample_labels(&labels, 4, 4, 2).unwrap();
        assert_eq!(down, vec![0, 2, 8, 10]);
        assert!(downsample_labels(&labels, 4, 4, 3).is_err());
        assert!(downsample_labels(&labels[..15], 4, 4, 2).is_err());
    }
}
