//! Property-based tests of the tensor kernels.
//!
//! These check the algebraic identities the NN layers rely on: linearity of
//! GEMM, adjointness of im2col/col2im, shape preservation of elementwise
//! operations, and normalisation of softmax — over randomly drawn shapes
//! and contents — and hold the column-free convolution backward to the
//! stored-matrix one bit for bit.

use proptest::prelude::*;
use st_tensor::conv::{
    col2im, conv2d_backward, conv2d_forward, conv2d_grads, im2col, im2col_batched, Conv2dSpec,
};
use st_tensor::{matmul, ops, parallel, pool, random, Shape, Tensor};

/// Reference O(mnk) GEMM — the oracle the packed kernel is checked against.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix().unwrap();
    let (_, n) = b.shape().as_matrix().unwrap();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(Shape::matrix(m, n), out).unwrap()
}

fn transpose(t: &Tensor) -> Tensor {
    let (r, c) = t.shape().as_matrix().unwrap();
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = t.data()[i * c + j];
        }
    }
    Tensor::from_vec(Shape::matrix(c, r), out).unwrap()
}

/// `-0.0`, a subnormal, both infinities and a NaN at places of `t` drawn
/// from `seed`.
fn plant_specials(t: &mut Tensor, seed: u64) {
    let data = t.data_mut();
    let len = data.len() as u64;
    let specials = [
        -0.0,
        f32::MIN_POSITIVE / 8.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    for (i, v) in specials.into_iter().enumerate() {
        let at = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64 * 104_729)
            % len;
        data[at as usize] = v;
    }
}

/// Every value's bits, except that all NaNs are one: when both operands of
/// an addition are NaN, which payload comes out is the instruction's choice,
/// and LLVM may swap an addition's operands. Everything else compares to
/// the bit, `-0.0`, subnormals and infinities included.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

fn tensor_strategy(max: usize) -> impl Strategy<Value = Tensor> {
    (1..=max, 1..=max, any::<u64>())
        .prop_map(|(r, c, seed)| random::uniform(Shape::matrix(r, c), -2.0, 2.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn elementwise_add_commutes(a in tensor_strategy(12), seed in any::<u64>()) {
        let b = random::uniform(a.shape().clone(), -2.0, 2.0, seed);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn scale_is_linear(a in tensor_strategy(12), alpha in -3.0f32..3.0, beta in -3.0f32..3.0) {
        let lhs = a.scale(alpha + beta);
        let rhs = a.scale(alpha).add(&a.scale(beta)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in any::<u64>()
    ) {
        let a = random::uniform(Shape::matrix(m, k), -1.0, 1.0, seed);
        let b1 = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed.wrapping_add(1));
        let b2 = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed.wrapping_add(2));
        let lhs = matmul::matmul(&a, &b1.add(&b2).unwrap()).unwrap();
        let rhs = matmul::matmul(&a, &b1).unwrap().add(&matmul::matmul(&a, &b2).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// The packed microkernel zero-pads ragged MR/NR/KC edges, so it must
    /// agree with the reference kernel on *every* shape, not just multiples
    /// of the tile sizes.
    #[test]
    fn packed_matmul_matches_reference_on_arbitrary_shapes(
        m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in any::<u64>()
    ) {
        let a = random::uniform(Shape::matrix(m, k), -1.0, 1.0, seed);
        let b = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed.wrapping_add(1));
        let fast = matmul::matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn packed_matmul_tn_matches_reference_on_arbitrary_shapes(
        m in 1usize..24, k in 1usize..48, n in 1usize..24, seed in any::<u64>()
    ) {
        let a = random::uniform(Shape::matrix(k, m), -1.0, 1.0, seed); // stored (k, m)
        let b = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed.wrapping_add(2));
        let fast = matmul::matmul_tn(&a, &b).unwrap();
        let slow = naive_matmul(&transpose(&a), &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn packed_matmul_nt_matches_reference_on_arbitrary_shapes(
        m in 1usize..24, k in 1usize..48, n in 1usize..24, seed in any::<u64>()
    ) {
        let a = random::uniform(Shape::matrix(m, k), -1.0, 1.0, seed);
        let b = random::uniform(Shape::matrix(n, k), -1.0, 1.0, seed.wrapping_add(3)); // (n, k)
        let fast = matmul::matmul_nt(&a, &b).unwrap();
        let slow = naive_matmul(&a, &transpose(&b));
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// The batched lowering is the per-frame lowering with frame-major
    /// column blocks: batched convolution must be *bit-for-bit* the
    /// concatenation of single-frame convolutions.
    #[test]
    fn batched_conv_equals_per_frame_bit_for_bit(
        n in 1usize..5, h in 4usize..9, w in 4usize..9, stride in 1usize..3, seed in any::<u64>()
    ) {
        let spec = Conv2dSpec::square(2, 3, 3, stride);
        let batch = random::uniform(Shape::nchw(n, 2, h, w), -1.0, 1.0, seed);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, seed.wrapping_add(4));
        let bias = random::uniform(Shape::vector(3), -0.1, 0.1, seed.wrapping_add(5));
        let (batched, cols) = conv2d_forward(&batch, &weight, Some(&bias), &spec).unwrap();
        let (oh, ow) = spec.output_size(h, w);
        prop_assert_eq!(batched.shape().dims(), &[n, 3, oh, ow]);
        prop_assert_eq!(cols.shape().dims(), &[2 * 9, n * oh * ow]);
        let frame_len = 2 * h * w;
        let out_len = 3 * oh * ow;
        for ni in 0..n {
            let frame = Tensor::from_vec(
                Shape::nchw(1, 2, h, w),
                batch.data()[ni * frame_len..(ni + 1) * frame_len].to_vec(),
            ).unwrap();
            let (solo, solo_cols) = conv2d_forward(&frame, &weight, Some(&bias), &spec).unwrap();
            prop_assert_eq!(
                solo.data(),
                &batched.data()[ni * out_len..(ni + 1) * out_len]
            );
            // The frame's column block of the batched im2col is exactly its
            // single-frame lowering, column by column.
            let full_cols = im2col_batched(&batch, &spec).unwrap();
            let plane = oh * ow;
            for row in 0..2 * 9 {
                let batched_row = &full_cols.data()[row * n * plane + ni * plane
                    ..row * n * plane + (ni + 1) * plane];
                let solo_row = &solo_cols.data()[row * plane..(row + 1) * plane];
                prop_assert_eq!(batched_row, solo_row);
            }
        }
    }

    /// `conv2d_grads` (weight and bias gradients read in place, the input
    /// gradient as a convolution of the padded upstream gradient) is
    /// `conv2d_backward` on the stored column matrix, bit for bit (NaN as one
    /// value, see [`bits`]): any kernel
    /// of 1–3 and stride of 1–2 per axis, padding up to half the kernel,
    /// 1–40 channels, sides of 1–13 (smaller than the kernel too), with
    /// `-0.0`, a subnormal, ±inf and NaN in the upstream gradient and the
    /// input (the weights finite), on one lane and on two.
    #[test]
    fn column_free_backward_equals_the_stored_matrix_bit_for_bit(
        (kh, kw, sh, sw) in (1usize..=3, 1usize..=3, 1usize..=2, 1usize..=2),
        (ph, pw) in (0usize..=1, 0usize..=1),
        (ic, oc, h, w) in (1usize..=40, 1usize..=40, 1usize..=13, 1usize..=13),
        (need_input_grad, two_lanes) in (any::<bool>(), any::<bool>()),
        seed in any::<u64>()
    ) {
        let spec = Conv2dSpec {
            in_channels: ic,
            out_channels: oc,
            kernel_h: kh,
            kernel_w: kw,
            stride_h: sh,
            stride_w: sw,
            pad_h: ph.min(kh / 2),
            pad_w: pw.min(kw / 2),
        };
        let mut input = random::uniform(Shape::nchw(1, ic, h, w), -1.0, 1.0, seed);
        plant_specials(&mut input, seed);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, seed.wrapping_add(1));
        let (oh, ow) = spec.output_size(h, w);
        let mut grad_out = random::uniform(Shape::nchw(1, oc, oh, ow), -1.0, 1.0, seed.wrapping_add(2));
        plant_specials(&mut grad_out, seed.wrapping_add(3));
        let cols = im2col(&input, &spec).unwrap();
        let reference = conv2d_backward(&grad_out, &cols, &weight, &spec, h, w, need_input_grad).unwrap();
        parallel::set_threads(if two_lanes { 2 } else { 1 });
        let grads = conv2d_grads(&grad_out, &input, &weight, &spec, need_input_grad);
        parallel::set_threads(0);
        let grads = grads.unwrap();
        prop_assert_eq!(bits(&grads.weight), bits(&reference.weight), "dW {:?} on {}x{}", spec, h, w);
        prop_assert_eq!(bits(&grads.bias), bits(&reference.bias), "db {:?} on {}x{}", spec, h, w);
        prop_assert_eq!(
            grads.input.as_ref().map(bits),
            reference.input.as_ref().map(bits),
            "dX {:?} on {}x{}", spec, h, w
        );
    }

    #[test]
    fn im2col_col2im_are_adjoint(
        c in 1usize..4, h in 4usize..10, w in 4usize..10, stride in 1usize..3, seed in any::<u64>()
    ) {
        let spec = Conv2dSpec::square(c, 1, 3, stride);
        let x = random::uniform(Shape::nchw(1, c, h, w), -1.0, 1.0, seed);
        let cols = im2col(&x, &spec).unwrap();
        let y = random::uniform(cols.shape().clone(), -1.0, 1.0, seed.wrapping_add(7));
        let lhs = cols.mul(&y).unwrap().sum();
        let rhs = x.mul(&col2im(&y, &spec, h, w).unwrap()).unwrap().sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_is_linear_in_the_input(
        h in 4usize..9, w in 4usize..9, seed in any::<u64>()
    ) {
        let spec = Conv2dSpec::square(2, 3, 3, 1);
        let weight = random::uniform(spec.weight_shape(), -0.5, 0.5, seed);
        let x1 = random::uniform(Shape::nchw(1, 2, h, w), -1.0, 1.0, seed.wrapping_add(1));
        let x2 = random::uniform(Shape::nchw(1, 2, h, w), -1.0, 1.0, seed.wrapping_add(2));
        let (y_sum, _) = conv2d_forward(&x1.add(&x2).unwrap(), &weight, None, &spec).unwrap();
        let (y1, _) = conv2d_forward(&x1, &weight, None, &spec).unwrap();
        let (y2, _) = conv2d_forward(&x2, &weight, None, &spec).unwrap();
        let expected = y1.add(&y2).unwrap();
        for (a, b) in y_sum.data().iter().zip(expected.data().iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_normalised_and_shift_invariant(
        c in 2usize..6, h in 1usize..5, w in 1usize..5, shift in -10.0f32..10.0, seed in any::<u64>()
    ) {
        let x = random::uniform(Shape::nchw(1, c, h, w), -5.0, 5.0, seed);
        let s = ops::softmax_channels(&x).unwrap();
        let plane = h * w;
        for p in 0..plane {
            let total: f32 = (0..c).map(|ci| s.data()[ci * plane + p]).sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
        // Adding a constant to every logit leaves the softmax unchanged.
        let shifted = ops::softmax_channels(&x.map(|v| v + shift)).unwrap();
        for (a, b) in s.data().iter().zip(shifted.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Average pooling by `factor` is the up-sampling adjoint scaled by
    /// `1 / factor²`, so pooling an up-sampled map gives the input back.
    #[test]
    fn upsample_then_avgpool_recovers_the_input(
        c in 1usize..4, h in 1usize..6, w in 1usize..6, factor in 1usize..4, seed in any::<u64>()
    ) {
        let x = random::uniform(Shape::nchw(1, c, h, w), -1.0, 1.0, seed);
        let up = pool::upsample_nearest(&x, factor).unwrap();
        let mut back = pool::upsample_nearest_backward(&up, factor).unwrap();
        back.scale_in_place(1.0 / (factor * factor) as f32);
        prop_assert_eq!(back.shape(), x.shape());
        for (a, b) in x.data().iter().zip(back.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_then_slice_round_trips(
        c1 in 1usize..5, c2 in 1usize..5, h in 1usize..5, w in 1usize..5, seed in any::<u64>()
    ) {
        let a = random::uniform(Shape::nchw(1, c1, h, w), -1.0, 1.0, seed);
        let b = random::uniform(Shape::nchw(1, c2, h, w), -1.0, 1.0, seed.wrapping_add(3));
        let cat = Tensor::concat_channels(&[&a, &b]).unwrap();
        prop_assert_eq!(cat.slice_channels(0, c1).unwrap(), a);
        prop_assert_eq!(cat.slice_channels(c1, c2).unwrap(), b);
    }

    #[test]
    fn argmax_is_consistent_with_softmax(
        c in 2usize..6, h in 1usize..4, w in 1usize..4, seed in any::<u64>()
    ) {
        let x = random::uniform(Shape::nchw(1, c, h, w), -3.0, 3.0, seed);
        let labels_logits = x.argmax_channels().unwrap();
        let labels_probs = ops::softmax_channels(&x).unwrap().argmax_channels().unwrap();
        prop_assert_eq!(labels_logits, labels_probs);
    }
}
