//! Shape bookkeeping helpers shared by the tensor operations.

use crate::ShapeError;

/// A tensor shape: the extent of every axis in row-major order.
///
/// The Ensembler stack uses at most four axes (`[batch, channels, height,
/// width]`), but [`Shape`] itself is rank-agnostic so fully-connected layers
/// can use two-axis shapes without special cases.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4, 4]);
/// assert_eq!(s.len(), 96);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.dims(), &[2, 3, 4, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from the given dimensions.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements described by this shape.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `true` if the shape describes zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the row-major strides for this shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use ensembler_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        stride_for(&self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

/// Computes row-major strides for a dimension list.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::stride_for;
/// assert_eq!(stride_for(&[4, 2, 3]), vec![6, 3, 1]);
/// assert_eq!(stride_for(&[]), Vec::<usize>::new());
/// ```
pub fn stride_for(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// The element count of `dims`, for extents that did not come from this
/// program (a decoded header, a caller-supplied shape).
///
/// The product of the *non-zero* extents must fit too: strides and per-sample
/// lengths are computed from them, so `[0, usize::MAX, usize::MAX]` is refused
/// rather than accepted as an empty tensor.
pub(crate) fn checked_len(dims: &[usize]) -> Result<usize, ShapeError> {
    let nonzero = dims
        .iter()
        .filter(|&&d| d != 0)
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| ShapeError::new(format!("shape {dims:?} overflows usize")))?;
    Ok(if dims.contains(&0) { 0 } else { nonzero })
}

/// Where each value of a feature map of logical NCHW shape `[b, c, h, w]`
/// lies: value `(n, ch, y, x)` at `n·image + ch·channel + p·pixel`, `p =
/// y·w + x` its pixel. The same map can lie channel plane after channel
/// plane ([`Layout::nchw`]) or pixel after pixel, each pixel's channels side
/// by side ([`Layout::pixel_major`]); a reader that takes the strides reads
/// either.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::Layout;
///
/// // Value (n 1, channel 2, pixel 3) of a map of 4 channels of 5 pixels:
/// assert_eq!(Layout::nchw(4, 5).at(1, 2, 3), 20 + 2 * 5 + 3);
/// assert_eq!(Layout::pixel_major(4, 5).at(1, 2, 3), 20 + 2 + 3 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The distance between two images.
    pub image: usize,
    /// The distance between two channels of a pixel.
    pub channel: usize,
    /// The distance between two pixels of a channel.
    pub pixel: usize,
}

impl Layout {
    /// `c` channels of `plane` pixels, a channel one contiguous plane.
    pub fn nchw(c: usize, plane: usize) -> Self {
        Self {
            image: c * plane,
            channel: plane,
            pixel: 1,
        }
    }

    /// `c` channels of `plane` pixels, a pixel's channels side by side (the
    /// order of a convolution's `[b·plane, c]` product rows).
    pub fn pixel_major(c: usize, plane: usize) -> Self {
        Self {
            image: c * plane,
            channel: 1,
            pixel: c,
        }
    }

    /// Where value `(n, ch, p)` lies.
    #[inline]
    pub fn at(self, n: usize, ch: usize, p: usize) -> usize {
        n * self.image + ch * self.channel + p * self.pixel
    }
}

/// Returns `true` if two shapes are element-wise compatible (identical dims).
///
/// The tensor kernel intentionally does not implement NumPy-style implicit
/// broadcasting; the only "broadcast" the NN layers need (per-channel bias) is
/// provided as an explicit operation on [`crate::Tensor`].
///
/// # Examples
///
/// ```
/// use ensembler_tensor::broadcast_compatible;
/// assert!(broadcast_compatible(&[2, 3], &[2, 3]));
/// assert!(!broadcast_compatible(&[2, 3], &[3, 2]));
/// ```
pub fn broadcast_compatible(a: &[usize], b: &[usize]) -> bool {
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::new(&[2, 3, 4, 5]);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.len(), 120);
        assert!(!s.is_empty());
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn zero_sized_shape_is_empty() {
        let s = Shape::new(&[2, 0, 4]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
    }

    #[test]
    fn strides_for_single_axis() {
        assert_eq!(stride_for(&[7]), vec![1]);
    }

    #[test]
    fn checked_len_refuses_every_wrapping_product() {
        assert_eq!(checked_len(&[2, 3, 4]), Ok(24));
        assert_eq!(checked_len(&[]), Ok(1));
        assert_eq!(checked_len(&[5, 0, 7]), Ok(0));
        let half = usize::MAX / 2 + 1;
        assert!(checked_len(&[half, 2]).is_err(), "wraps to 0");
        assert!(checked_len(&[half + 1, 2]).is_err(), "wraps to 2");
        // A zero extent does not launder absurd neighbours, in any order.
        assert!(checked_len(&[0, usize::MAX, usize::MAX]).is_err());
        assert!(checked_len(&[usize::MAX, usize::MAX, 0]).is_err());
    }

    #[test]
    fn compatibility_requires_equality() {
        assert!(broadcast_compatible(&[4], &[4]));
        assert!(!broadcast_compatible(&[4], &[4, 1]));
    }
}
