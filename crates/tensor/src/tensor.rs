//! The dense row-major tensor type.

use crate::shape::checked_len;
use crate::{stride_for, ShapeError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the only array type used throughout the Ensembler stack. Layout
/// is always contiguous row-major; convolutional data uses the `[batch,
/// channels, height, width]` (NCHW) convention and fully-connected data uses
/// `[batch, features]`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(x.at2(1, 2), 6.0);
/// let y = x.map(|v| v * 2.0);
/// assert_eq!(y.sum(), 42.0);
/// # Ok::<(), ensembler_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    ///
    /// Like [`Tensor::full`] and [`Tensor::from_fn`], panics if a non-empty
    /// `shape`'s element count overflows `usize`.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = element_count(shape);
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = element_count(shape);
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the number of elements in `data` does not
    /// match the product of `shape`, or that product overflows `usize`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected = checked_len(shape)?;
        if data.len() != expected {
            return Err(ShapeError::new(format!(
                "expected {expected} elements for shape {shape:?}, got {}",
                data.len()
            )));
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor by evaluating `f` at every linear index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let len = element_count(shape);
        Self {
            shape: shape.to_vec(),
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![],
            data: vec![value],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the shape as a slice of axis extents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying buffer in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying buffer mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() requires a single-element tensor, shape is {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Reads the element at `(row, col)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the indices are out of bounds.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.rank(), 2, "at2 requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(
            row < r && col < c,
            "index ({row},{col}) out of bounds ({r},{c})"
        );
        self.data[row * c + col]
    }

    /// Writes the element at `(row, col)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the indices are out of bounds.
    pub fn set2(&mut self, row: usize, col: usize, value: f32) {
        assert_eq!(self.rank(), 2, "set2 requires a rank-2 tensor");
        let c = self.shape[1];
        assert!(row < self.shape[0] && col < c, "index out of bounds");
        self.data[row * c + col] = value;
    }

    /// Reads the element at `(n, c, h, w)` of a rank-4 (NCHW) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-4 or the indices are out of bounds.
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.offset4(n, c, h, w)]
    }

    /// Writes the element at `(n, c, h, w)` of a rank-4 (NCHW) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-4 or the indices are out of bounds.
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let off = self.offset4(n, c, h, w);
        self.data[off] = value;
    }

    fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        assert_eq!(self.rank(), 4, "NCHW access requires a rank-4 tensor");
        let strides = stride_for(&self.shape);
        assert!(
            n < self.shape[0] && c < self.shape[1] && h < self.shape[2] && w < self.shape[3],
            "index ({n},{c},{h},{w}) out of bounds {:?}",
            self.shape
        );
        n * strides[0] + c * strides[1] + h * strides[2] + w * strides[3]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the element counts differ, or if the
    /// target's element count overflows `usize`.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected = checked_len(shape)?;
        if expected != self.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) into {shape:?} ({expected} elements)",
                self.shape,
                self.len()
            )));
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Flattens a rank-N tensor into `[batch, features]`, keeping axis 0.
    /// `features` is the product of the other extents, so an empty batch
    /// keeps it.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-0, or if it is an empty batch whose
    /// feature count overflows `usize`.
    pub fn flatten_batch(&self) -> Self {
        assert!(self.rank() >= 1, "flatten_batch requires rank >= 1");
        let batch = self.shape[0];
        let features = self.shape[1..]
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .expect("flatten_batch: the feature count overflows usize");
        Self {
            shape: vec![batch, features],
            data: self.data.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other);
        Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise division.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Subtracts `other` from `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// Adds `alpha * other` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `factor`, producing a new tensor.
    pub fn scale(&self, factor: f32) -> Self {
        self.map(|x| x * factor)
    }

    /// Multiplies every element by `factor` in place.
    pub fn scale_assign(&mut self, factor: f32) {
        self.map_inplace(|x| x * factor);
    }

    /// Adds `value` to every element, producing a new tensor.
    pub fn add_scalar(&self, value: f32) -> Self {
        self.map(|x| x + value)
    }

    /// Sets every element to zero in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sets every element to `value` in place.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Clamps every element into `[min, max]`, producing a new tensor.
    pub fn clamp(&self, min: f32, max: f32) -> Self {
        self.map(|x| x.clamp(min, max))
    }

    // ------------------------------------------------------------------
    // Scalar reductions
    // ------------------------------------------------------------------

    /// Returns the sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns the arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Returns the maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Returns the minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Returns the Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Returns the dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product requires equal element counts"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Returns `true` if every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// The element count of `shape`, which panics rather than wrap; any zero
/// extent makes it 0, so an empty batch of absurd images is constructible.
fn element_count(shape: &[usize]) -> usize {
    if shape.contains(&0) {
        return 0;
    }
    checked_len(shape).unwrap_or_else(|err| panic!("{err}"))
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_contents() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
        let t = Tensor::from_fn(&[4], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn from_vec_refuses_shapes_that_wrap_to_the_data_length() {
        // 2^63 · 2 wraps to 0 and (2^63 + 1) · 2 wraps to 2: neither may pass
        // for a tensor of that many elements.
        let half = usize::MAX / 2 + 1;
        assert!(Tensor::from_vec(vec![], &[half, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 2], &[half + 1, 2]).is_err());
    }

    // 2^63 · 2 wraps to 0 in a release build: a buffer that short must not
    // pass for a tensor of that many elements.
    #[test]
    #[should_panic(expected = "overflows usize")]
    fn zeros_refuses_a_shape_whose_element_count_overflows() {
        let _ = Tensor::zeros(&[usize::MAX / 2 + 1, 2]);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn full_refuses_a_shape_whose_element_count_overflows() {
        let _ = Tensor::full(&[usize::MAX / 2 + 1, 2], 1.0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_fn_refuses_a_shape_whose_element_count_overflows() {
        let _ = Tensor::from_fn(&[usize::MAX / 2 + 1, 2], |_| 1.0);
    }

    #[test]
    fn an_empty_batch_of_absurd_images_is_constructible() {
        for shape in [[0, 4, usize::MAX, 2], [usize::MAX, usize::MAX, 0, 3]] {
            assert!(Tensor::zeros(&shape).is_empty());
            assert!(Tensor::from_fn(&shape, |_| 1.0).is_empty());
        }
    }

    #[test]
    fn indexing_rank2_and_rank4() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        assert_eq!(t.at2(1, 0), 3.0);
        let mut t4 = Tensor::zeros(&[2, 2, 2, 2]);
        t4.set4(1, 1, 0, 1, 7.0);
        assert_eq!(t4.at4(1, 1, 0, 1), 7.0);
        assert_eq!(t4.at4(0, 0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rank2_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at2(2, 0);
    }

    #[test]
    fn reshape_and_flatten() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let r = t.reshape(&[6, 4]).unwrap();
        assert_eq!(r.shape(), &[6, 4]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
        let f = t.flatten_batch();
        assert_eq!(f.shape(), &[2, 12]);
        assert_eq!(
            Tensor::zeros(&[0, 4, 2, 2]).flatten_batch().shape(),
            &[0, 16]
        );
    }

    #[test]
    fn reshape_refuses_a_target_whose_element_count_overflows() {
        // The product wraps to 0 in release, where it would match the empty
        // source, and panics in dev: a typed error in both profiles.
        let half = usize::MAX / 2 + 1;
        let empty = Tensor::zeros(&[0]);
        assert!(empty.reshape(&[half, 2]).is_err(), "wraps to 0");
        assert!(
            Tensor::zeros(&[2]).reshape(&[half + 1, 2]).is_err(),
            "wraps to 2"
        );
        assert!(empty.reshape(&[0, usize::MAX, usize::MAX]).is_err());
        assert_eq!(empty.reshape(&[3, 0]).map(|t| t.len()), Ok(0));
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn inplace_arithmetic() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[3.0, 6.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
        a.fill(4.0);
        assert_eq!(a.data(), &[4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_with_mismatched_shapes_panics() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, 3.0, -4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm() - (30.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(t.dot(&t), 30.0);
    }

    #[test]
    fn clamp_and_finiteness() {
        let t = Tensor::from_vec(vec![-2.0, 0.5, 9.0], &[3]).unwrap();
        assert_eq!(t.clamp(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0]);
        assert!(t.is_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(!bad.is_finite());
    }

    #[test]
    fn empty_tensor_behaviour() {
        let t = Tensor::zeros(&[0]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(Tensor::default(), t);
    }
}
