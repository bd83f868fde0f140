//! Dense, contiguous, row-major `f32` tensor with copy-on-write storage.

use crate::{Result, Shape, TensorError};
use std::sync::Arc;

/// A dense, contiguous, row-major `f32` tensor.
///
/// The data buffer is always exactly `shape.numel()` elements long.
/// Operations that could fail on shape mismatch return [`Result`]; helpers
/// ending in `_unchecked` assume the caller validated shapes and are used in
/// hot inner loops.
///
/// Storage is **copy-on-write**: [`Clone`] (and [`Tensor::reshape`]) share
/// the underlying buffer, and the first mutation through any `&mut self`
/// method materializes a private copy ([`Arc::make_mut`]). A fleet of
/// sessions cloned from one pretrained template therefore costs one buffer
/// per *written* tensor, not one per session — frozen weights stay
/// physically shared. [`Tensor::shares_storage`] / [`Tensor::storage_id`]
/// expose the sharing structure for memory accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A tensor of the given shape filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// A tensor of the given shape filled with ones.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor of the given shape filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![value; n]),
        }
    }

    /// Build a tensor from an existing buffer.
    ///
    /// Fails if the buffer length does not match the shape.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// Build a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::vector(data.len()),
            data: Arc::new(data.to_vec()),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the underlying buffer (row-major).
    ///
    /// If the buffer is shared with other tensors (copy-on-write clones), a
    /// private copy is materialized first; a uniquely owned buffer is
    /// returned in place at the cost of one refcount check.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Bytes of `f32` payload in the underlying buffer (shared or not).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Stable identity of the underlying copy-on-write buffer. Two tensors
    /// with equal `storage_id` physically share one allocation.
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// Whether `self` and `other` physically share one copy-on-write buffer
    /// (a clone that neither side has written through yet).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Set the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        Arc::make_mut(&mut self.data)[off] = value;
        Ok(())
    }

    /// Element of a 4-D tensor at `(n, c, h, w)` without bounds re-derivation.
    ///
    /// Panics in debug builds when the tensor is not 4-D or the index is out
    /// of range; intended for hot loops that already validated shapes.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let d = self.shape.dims();
        debug_assert_eq!(d.len(), 4);
        debug_assert!(n < d[0] && c < d[1] && h < d[2] && w < d[3]);
        let idx = ((n * d[1] + c) * d[2] + h) * d[3] + w;
        self.data[idx]
    }

    /// Set an element of a 4-D tensor at `(n, c, h, w)`.
    ///
    /// Every call re-checks the copy-on-write handle ([`Arc::make_mut`]: an
    /// atomic look at both reference counts) before it writes. Fine for
    /// tests and one-off pokes, never for a loop: a kernel takes
    /// [`Tensor::data_mut`] once and indexes the slice (`st-lint`'s `no-set4`
    /// rule holds the numeric crates to that).
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let d = self.shape.dims();
        debug_assert_eq!(d.len(), 4);
        let idx = ((n * d[1] + c) * d[2] + h) * d[3] + w;
        Arc::make_mut(&mut self.data)[idx] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterpret the tensor with a new shape of identical element count.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        if shape.numel() != self.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.shape.dims().to_vec(),
                rhs: shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Concatenate 4-D tensors along the channel axis.
    ///
    /// All inputs must agree on `N`, `H` and `W`.
    pub fn concat_channels(tensors: &[&Tensor]) -> Result<Tensor> {
        if tensors.is_empty() {
            return Err(TensorError::InvalidArgument(
                "concat_channels requires at least one tensor".into(),
            ));
        }
        let (n, _, h, w) = tensors[0].shape.as_nchw()?;
        let mut total_c = 0usize;
        for t in tensors {
            let (tn, tc, th, tw) = t.shape.as_nchw()?;
            if tn != n || th != h || tw != w {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_channels",
                    lhs: tensors[0].shape.dims().to_vec(),
                    rhs: t.shape.dims().to_vec(),
                });
            }
            total_c += tc;
        }
        let mut out = Tensor::zeros(Shape::nchw(n, total_c, h, w));
        let plane = h * w;
        let out_data = Arc::make_mut(&mut out.data);
        for ni in 0..n {
            let mut c_off = 0usize;
            for t in tensors {
                let tc = t.shape.dim(1);
                let src_base = ni * tc * plane;
                let dst_base = (ni * total_c + c_off) * plane;
                out_data[dst_base..dst_base + tc * plane]
                    .copy_from_slice(&t.data[src_base..src_base + tc * plane]);
                c_off += tc;
            }
        }
        Ok(out)
    }

    /// Stack 4-D tensors along the batch axis.
    ///
    /// All inputs must agree on `C`, `H` and `W`; the result's batch size is
    /// the sum of the inputs' (so `(1, C, H, W)` frames stack into
    /// `(N, C, H, W)`). This is how the batched teacher forward assembles
    /// co-scheduled key frames into one input.
    pub fn stack_batch(tensors: &[&Tensor]) -> Result<Tensor> {
        if tensors.is_empty() {
            return Err(TensorError::InvalidArgument(
                "stack_batch requires at least one tensor".into(),
            ));
        }
        let (_, c, h, w) = tensors[0].shape.as_nchw()?;
        let mut total_n = 0usize;
        for t in tensors {
            let (tn, tc, th, tw) = t.shape.as_nchw()?;
            if tc != c || th != h || tw != w {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_batch",
                    lhs: tensors[0].shape.dims().to_vec(),
                    rhs: t.shape.dims().to_vec(),
                });
            }
            total_n += tn;
        }
        let mut data = Vec::with_capacity(total_n * c * h * w);
        for t in tensors {
            data.extend_from_slice(&t.data);
        }
        Tensor::from_vec(Shape::nchw(total_n, c, h, w), data)
    }

    /// Split channels `[start, start+len)` out of a 4-D tensor.
    pub fn slice_channels(&self, start: usize, len: usize) -> Result<Tensor> {
        let (n, c, h, w) = self.shape.as_nchw()?;
        if start + len > c {
            return Err(TensorError::IndexOutOfBounds {
                index: start + len,
                len: c,
            });
        }
        let mut out = Tensor::zeros(Shape::nchw(n, len, h, w));
        let plane = h * w;
        let out_data = Arc::make_mut(&mut out.data);
        for ni in 0..n {
            let src_base = (ni * c + start) * plane;
            let dst_base = ni * len * plane;
            out_data[dst_base..dst_base + len * plane]
                .copy_from_slice(&self.data[src_base..src_base + len * plane]);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum, returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        let data = Arc::new(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        );
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise difference, returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        let data = Arc::new(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        );
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise product, returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul")?;
        let data = Arc::new(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        );
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place elementwise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in Arc::make_mut(&mut self.data)
            .iter_mut()
            .zip(other.data.iter())
        {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulate: `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in Arc::make_mut(&mut self.data)
            .iter_mut()
            .zip(other.data.iter())
        {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiply every element by `alpha`, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|x| x * alpha).collect()),
        }
    }

    /// Multiply every element by `alpha` in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for x in Arc::make_mut(&mut self.data).iter_mut() {
            *x *= alpha;
        }
    }

    /// Apply a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Fill the tensor with zeros in place (reusing the allocation).
    pub fn zero_(&mut self) {
        for x in Arc::make_mut(&mut self.data).iter_mut() {
            *x = 0.0;
        }
    }

    /// Clamp every element into `[lo, hi]`, returning a new tensor.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// True if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Per-pixel argmax over the channel axis of an NCHW tensor.
    ///
    /// Returns an `N*H*W` vector of class indices, frame-major (frame `ni`
    /// owns `[ni*H*W, (ni+1)*H*W)`). Used to turn segmentation logits into
    /// label maps, one per batched frame.
    pub fn argmax_channels(&self) -> Result<Vec<usize>> {
        let (n, c, h, w) = self.shape.as_nchw()?;
        let plane = h * w;
        let mut out = vec![0usize; n * plane];
        for ni in 0..n {
            let frame = &self.data[ni * c * plane..(ni + 1) * c * plane];
            for (p, slot) in out[ni * plane..(ni + 1) * plane].iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                let mut best_c = 0usize;
                for ci in 0..c {
                    let v = frame[ci * plane + p];
                    if v > best {
                        best = v;
                        best_c = ci;
                    }
                }
                *slot = best_c;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data.to_vec()).unwrap()
    }

    #[test]
    fn constructors() {
        let z = Tensor::zeros(Shape::matrix(2, 3));
        assert_eq!(z.numel(), 6);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones(Shape::vector(4));
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(Shape::vector(3), 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::matrix(2, 2), vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(Shape::matrix(2, 2), vec![1.0; 4]).is_ok());
    }

    #[test]
    fn indexing_round_trip() {
        let mut x = Tensor::zeros(Shape::nchw(1, 2, 3, 4));
        x.set(&[0, 1, 2, 3], 7.0).unwrap();
        assert_eq!(x.at(&[0, 1, 2, 3]).unwrap(), 7.0);
        assert_eq!(x.at4(0, 1, 2, 3), 7.0);
        x.set4(0, 0, 0, 0, -1.0);
        assert_eq!(x.at(&[0, 0, 0, 0]).unwrap(), -1.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(&a).unwrap().data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(Shape::matrix(2, 2));
        let b = Tensor::zeros(Shape::matrix(2, 3));
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = t(&[3], &[1.0, 1.0, 1.0]);
        let b = t(&[3], &[1.0, 2.0, 3.0]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.5, 4.0, 5.5]);
    }

    #[test]
    fn reductions() {
        let a = t(&[4], &[-1.0, 0.0, 2.0, 3.0]);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.mean(), 1.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -1.0);
        assert!((a.norm() - (14.0f32).sqrt()).abs() < 1e-6);
        assert!(a.all_finite());
        let nan = t(&[1], &[f32::NAN]);
        assert!(!nan.all_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.reshape(Shape::new(&[3, 2])).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(Shape::new(&[4, 2])).is_err());
    }

    #[test]
    fn concat_and_slice_channels() {
        let a = Tensor::full(Shape::nchw(1, 2, 2, 2), 1.0);
        let b = Tensor::full(Shape::nchw(1, 3, 2, 2), 2.0);
        let c = Tensor::concat_channels(&[&a, &b]).unwrap();
        assert_eq!(c.shape().dims(), &[1, 5, 2, 2]);
        assert_eq!(c.at4(0, 1, 0, 0), 1.0);
        assert_eq!(c.at4(0, 2, 0, 0), 2.0);
        let s = c.slice_channels(2, 3).unwrap();
        assert_eq!(s.shape().dims(), &[1, 3, 2, 2]);
        assert_eq!(s.sum(), 2.0 * 12.0);
        // round trip
        let a2 = c.slice_channels(0, 2).unwrap();
        assert_eq!(a2, a);
    }

    #[test]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 3, 2));
        assert!(Tensor::concat_channels(&[&a, &b]).is_err());
        assert!(Tensor::concat_channels(&[]).is_err());
    }

    #[test]
    fn stack_batch_concatenates_frames() {
        let a = t(&[1, 2, 2, 2], &[1.0; 8]);
        let b = t(&[1, 2, 2, 2], &[2.0; 8]);
        let stacked = Tensor::stack_batch(&[&a, &b]).unwrap();
        assert_eq!(stacked.shape().dims(), &[2, 2, 2, 2]);
        assert_eq!(&stacked.data()[..8], a.data());
        assert_eq!(&stacked.data()[8..], b.data());
        // Mixed shapes are rejected; empty input is rejected.
        let c = t(&[1, 2, 2, 3], &[0.0; 12]);
        assert!(Tensor::stack_batch(&[&a, &c]).is_err());
        assert!(Tensor::stack_batch(&[]).is_err());
    }

    #[test]
    fn argmax_channels_handles_batches_frame_major() {
        // Frame 0: channel 1 wins everywhere; frame 1: channel 0 wins.
        let mut x = Tensor::zeros(Shape::nchw(2, 2, 1, 2));
        x.set4(0, 1, 0, 0, 1.0);
        x.set4(0, 1, 0, 1, 1.0);
        x.set4(1, 0, 0, 0, 1.0);
        x.set4(1, 0, 0, 1, 1.0);
        assert_eq!(x.argmax_channels().unwrap(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn argmax_channels_picks_largest() {
        // 3 channels, 2x2: channel index == value rank
        let mut x = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        x.set4(0, 0, 0, 0, 5.0); // pixel 0 -> class 0
        x.set4(0, 1, 0, 1, 5.0); // pixel 1 -> class 1
        x.set4(0, 2, 1, 0, 5.0); // pixel 2 -> class 2
        x.set4(0, 1, 1, 1, 5.0); // pixel 3 -> class 1
        assert_eq!(x.argmax_channels().unwrap(), vec![0, 1, 2, 1]);
    }

    #[test]
    fn map_and_clamp() {
        let a = t(&[3], &[-2.0, 0.5, 3.0]);
        assert_eq!(a.clamp(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0]);
        assert_eq!(a.map(|x| x * x).data(), &[4.0, 0.25, 9.0]);
    }
}
