//! Linear-algebra, axis-reduction and NCHW-structure operations on [`Tensor`].

use crate::gemm;
use crate::Tensor;

/// `src`, a row-major `[rows, cols]` matrix, as the row-major `[cols, rows]`
/// one: in tiles of 4 x 4, each read as four runs of a row and written as
/// four runs of a column (≈ 1.7× a value-by-value walk on the `[16, 64]`
/// images of a `[32, 16, 8, 8]` batch), what the tiles leave value by value.
///
/// # Panics
///
/// Panics if `src.len() != rows * cols`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::transpose;
///
/// assert_eq!(transpose(&[1, 2, 3, 4, 5, 6], 2, 3), [1, 4, 2, 5, 3, 6]);
/// ```
pub fn transpose<T: Copy + Default>(src: &[T], rows: usize, cols: usize) -> Vec<T> {
    assert_eq!(src.len(), rows * cols, "transpose buffer/shape mismatch");
    let mut dst = vec![T::default(); src.len()];
    let (rg, cg) = (rows - rows % 4, cols - cols % 4);
    for r0 in (0..rg).step_by(4) {
        for c0 in (0..cg).step_by(4) {
            let tile: [[T; 4]; 4] = std::array::from_fn(|i| {
                src[(r0 + i) * cols + c0..][..4]
                    .try_into()
                    .expect("4 values of a row")
            });
            for j in 0..4 {
                dst[(c0 + j) * rows + r0..][..4].copy_from_slice(&tile.map(|row| row[j]));
            }
        }
    }
    for r in 0..rows {
        for c in (if r < rg { cg } else { 0 })..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    dst
}

impl Tensor {
    // ------------------------------------------------------------------
    // Matrix operations (rank-2)
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Backed by the blocked, parallel kernel in [`crate::gemm`]: large
    /// products are cache-tiled and split across cores, small ones run a
    /// plain serial loop.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let out = gemm::gemm_nn(self.data(), other.data(), m, k, n);
        Tensor::from_vec(out, &[m, n]).expect("matmul output length is m*n")
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 requires a rank-2 tensor");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        Tensor::from_vec(transpose(self.data(), m, n), &[n, m]).expect("transpose preserves length")
    }

    /// Computes `self^T * other` without materialising the transpose:
    /// `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// Backed by the blocked, parallel kernel in [`crate::gemm`]; the
    /// transpose is folded into the kernel's packing step, so no extra copy
    /// of the operand is made.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the leading dimensions differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be rank-2");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul_tn leading dimensions differ: {k} vs {k2}");
        let out = gemm::gemm_tn(self.data(), other.data(), k, m, n);
        Tensor::from_vec(out, &[m, n]).expect("matmul_tn output length is m*n")
    }

    /// Computes `self * other^T`: `[m, k] x [n, k]^T -> [m, n]`.
    ///
    /// Backed by the blocked, parallel kernel in [`crate::gemm`]; the
    /// transpose is folded into the kernel's packing step, so no extra copy
    /// of the operand is made.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the trailing dimensions differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul_nt trailing dimensions differ: {k} vs {k2}");
        let out = gemm::gemm_nt(self.data(), other.data(), m, k, n);
        Tensor::from_vec(out, &[m, n]).expect("matmul_nt output length is m*n")
    }

    // ------------------------------------------------------------------
    // Axis reductions (rank-2)
    // ------------------------------------------------------------------

    /// Sums a rank-2 tensor over axis 0, producing a `[cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_axis0 requires a rank-2 tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            for (acc, v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Tensor::from_vec(out, &[cols]).expect("length equals cols")
    }

    /// Sums a rank-2 tensor over axis 1, producing a `[rows]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn sum_axis1(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_axis1 requires a rank-2 tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; rows];
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.data()[r * cols..(r + 1) * cols].iter().sum();
        }
        Tensor::from_vec(out, &[rows]).expect("length equals rows")
    }

    /// Returns the per-row index of the maximum element of a rank-2 tensor.
    ///
    /// Ties resolve to the lowest index, matching `argmax` conventions.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        assert!(cols > 0, "argmax_rows requires at least one column");
        (0..rows)
            .map(|r| {
                let row = &self.data()[r * cols..(r + 1) * cols];
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // NCHW structure helpers
    // ------------------------------------------------------------------

    /// Extracts sample `n` of an NCHW tensor as a `[1, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-4 or `n` is out of bounds.
    pub fn batch_item(&self, n: usize) -> Tensor {
        assert_eq!(self.rank(), 4, "batch_item requires a rank-4 tensor");
        let [b, c, h, w] = [
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        ];
        assert!(n < b, "batch index {n} out of bounds for batch size {b}");
        let stride = c * h * w;
        let slice = self.data()[n * stride..(n + 1) * stride].to_vec();
        Tensor::from_vec(slice, &[1, c, h, w]).expect("slice length matches item shape")
    }

    /// Stacks `[1, C, H, W]` tensors along the batch axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or the per-item shapes differ.
    pub fn stack_batch(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack_batch requires at least one item");
        let first = items[0].shape().to_vec();
        assert_eq!(first.len(), 4, "stack_batch items must be rank-4");
        let mut data = Vec::with_capacity(items.iter().map(Tensor::len).sum());
        for item in items {
            assert_eq!(
                item.shape(),
                &first[..],
                "stack_batch items must share a shape"
            );
            data.extend_from_slice(item.data());
        }
        let shape = [items.len() * first[0], first[1], first[2], first[3]];
        Tensor::from_vec(data, &shape).expect("concatenated length matches shape")
    }

    /// Concatenates NCHW tensors along the channel axis.
    ///
    /// This is the operation performed by the Ensembler `Selector` when it
    /// combines the `P` activated server feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or batch/spatial dimensions differ.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(
            !parts.is_empty(),
            "concat_channels requires at least one part"
        );
        let b = parts[0].shape()[0];
        let h = parts[0].shape()[2];
        let w = parts[0].shape()[3];
        let total_c: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(p.rank(), 4, "concat_channels parts must be rank-4");
                assert_eq!(p.shape()[0], b, "batch sizes must match");
                assert_eq!(p.shape()[2], h, "heights must match");
                assert_eq!(p.shape()[3], w, "widths must match");
                p.shape()[1]
            })
            .sum();
        let mut out = Tensor::zeros(&[b, total_c, h, w]);
        let plane = h * w;
        for n in 0..b {
            let mut c_off = 0usize;
            for part in parts {
                let pc = part.shape()[1];
                let src_base = n * pc * plane;
                let dst_base = n * total_c * plane + c_off * plane;
                out.data_mut()[dst_base..dst_base + pc * plane]
                    .copy_from_slice(&part.data()[src_base..src_base + pc * plane]);
                c_off += pc;
            }
        }
        out
    }

    /// Splits an NCHW tensor into equally-sized channel groups.
    ///
    /// Inverse of [`Tensor::concat_channels`] for equal-width parts.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-4 or the channel count is not
    /// divisible by `groups`.
    pub fn split_channels(&self, groups: usize) -> Vec<Tensor> {
        assert_eq!(self.rank(), 4, "split_channels requires a rank-4 tensor");
        let [b, c, h, w] = [
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        ];
        assert!(
            groups > 0 && c % groups == 0,
            "channels {c} not divisible by {groups}"
        );
        let gc = c / groups;
        let plane = h * w;
        (0..groups)
            .map(|g| {
                let mut part = Tensor::zeros(&[b, gc, h, w]);
                for n in 0..b {
                    let src = n * c * plane + g * gc * plane;
                    let dst = n * gc * plane;
                    part.data_mut()[dst..dst + gc * plane]
                        .copy_from_slice(&self.data()[src..src + gc * plane]);
                }
                part
            })
            .collect()
    }

    /// Adds a per-channel bias to an NCHW tensor, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-4 or `bias` length differs from the
    /// channel count.
    pub fn add_channel_bias(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 4, "add_channel_bias requires a rank-4 tensor");
        let [b, c, h, w] = [
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        ];
        assert_eq!(bias.len(), c, "bias length must equal channel count");
        let mut out = self.clone();
        let plane = h * w;
        for n in 0..b {
            for ch in 0..c {
                let base = n * c * plane + ch * plane;
                let bv = bias.data()[ch];
                for v in &mut out.data_mut()[base..base + plane] {
                    *v += bv;
                }
            }
        }
        out
    }

    /// Sums an NCHW tensor over batch and spatial axes, producing `[C]`.
    ///
    /// Used for convolution bias gradients and batch-norm statistics.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-4.
    pub fn sum_per_channel(&self) -> Tensor {
        assert_eq!(self.rank(), 4, "sum_per_channel requires a rank-4 tensor");
        let [b, c, h, w] = [
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        ];
        let plane = h * w;
        let mut out = vec![0.0f32; c];
        for n in 0..b {
            for (ch, slot) in out.iter_mut().enumerate() {
                let base = n * c * plane + ch * plane;
                *slot += self.data()[base..base + plane].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(out, &[c]).expect("length equals channel count")
    }

    /// Per-sample cosine similarity between two tensors of identical shape,
    /// flattening everything but the batch axis. Returns a `[batch]` tensor.
    ///
    /// This is the `CS(·,·)` term of the stage-3 regularizer (Eq. 3 of the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or the tensors are rank-0.
    pub fn cosine_similarity_per_sample(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "shapes must match");
        assert!(self.rank() >= 1, "cosine similarity requires rank >= 1");
        let batch = self.shape()[0];
        let features = self.len().checked_div(batch).unwrap_or(0);
        let mut out = vec![0.0f32; batch];
        for (n, slot) in out.iter_mut().enumerate() {
            let a = &self.data()[n * features..(n + 1) * features];
            let b = &other.data()[n * features..(n + 1) * features];
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            *slot = if na > 1e-12 && nb > 1e-12 {
                dot / (na * nb)
            } else {
                0.0
            };
        }
        Tensor::from_vec(out, &[batch]).expect("length equals batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(&[3, 3], |i| i as f32);
        let eye = Tensor::from_fn(&[3, 3], |i| if i % 4 == 0 { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye).data(), a.data());
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let a = Tensor::from_fn(&[4, 3], |i| (i as f32).sin());
        let b = Tensor::from_fn(&[4, 5], |i| (i as f32).cos());
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose2().matmul(&b);
        for (x, y) in via_tn.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Tensor::from_fn(&[5, 3], |i| (i as f32) * 0.1);
        let d = Tensor::from_fn(&[4, 3], |i| (i as f32) * 0.2 - 1.0);
        let via_nt = c.matmul_nt(&d);
        let explicit2 = c.matmul(&d.transpose2());
        for (x, y) in via_nt.data().iter().zip(explicit2.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        // The transpose itself, value by value: whole 4 x 4 tiles, their
        // leftover rows and columns, and empty matrices.
        for (rows, cols) in [(0, 3), (3, 0), (1, 7), (4, 4), (5, 9), (8, 13), (16, 64)] {
            let src: Vec<u32> = (0..rows * cols).map(|i| i as u32).collect();
            let got = transpose(&src, rows, cols);
            for (i, &v) in got.iter().enumerate() {
                let (c, r) = (i / rows, i % rows);
                assert_eq!(v, src[r * cols + c], "{rows}x{cols} at {i}");
            }
            assert_eq!(got.len(), src.len());
        }
    }

    #[test]
    fn matmul_propagates_non_finite_rhs_through_zero_lhs() {
        // Regression: the old kernels skipped zero lhs entries, silently
        // laundering 0 x NaN and 0 x inf into 0.0 instead of NaN.
        let zeros = Tensor::zeros(&[2, 2]);
        let bad = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, 2.0], &[2, 2]).unwrap();
        for v in zeros.matmul(&bad).data() {
            assert!(v.is_nan(), "matmul swallowed a non-finite rhs: {v}");
        }
        for v in zeros.matmul_tn(&bad).data() {
            assert!(v.is_nan(), "matmul_tn swallowed a non-finite rhs: {v}");
        }
        let bad_nt = Tensor::from_vec(vec![f32::NAN, 1.0, f32::INFINITY, 2.0], &[2, 2]).unwrap();
        for v in zeros.matmul_nt(&bad_nt).data() {
            assert!(v.is_nan(), "matmul_nt swallowed a non-finite rhs: {v}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dimension_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axis_sums() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis0().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis1().data(), &[6.0, 15.0]);
    }

    #[test]
    fn argmax_rows_with_ties() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0, -1.0, -2.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn batch_item_and_stack_round_trip() {
        let t = Tensor::from_fn(&[3, 2, 2, 2], |i| i as f32);
        let items: Vec<Tensor> = (0..3).map(|n| t.batch_item(n)).collect();
        let back = Tensor::stack_batch(&items);
        assert_eq!(back, t);
    }

    #[test]
    fn concat_and_split_channels_round_trip() {
        let a = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let b = Tensor::from_fn(&[2, 3, 2, 2], |i| 100.0 + i as f32);
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 6, 2, 2]);
        let parts = cat.split_channels(2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        // Channel data interleaves per sample, not per part.
        assert_eq!(cat.at4(0, 0, 0, 0), a.at4(0, 0, 0, 0));
        assert_eq!(cat.at4(0, 3, 0, 0), b.at4(0, 0, 0, 0));
        assert_eq!(cat.at4(1, 3, 0, 0), b.at4(1, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "batch sizes must match")]
    fn concat_channels_rejects_mismatched_batch() {
        let a = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::zeros(&[2, 2, 2, 2]);
        let _ = Tensor::concat_channels(&[&a, &b]);
    }

    #[test]
    fn channel_bias_and_sum() {
        let t = Tensor::ones(&[2, 3, 2, 2]);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let biased = t.add_channel_bias(&bias);
        assert_eq!(biased.at4(0, 0, 0, 0), 2.0);
        assert_eq!(biased.at4(1, 2, 1, 1), 4.0);
        let sums = biased.sum_per_channel();
        // Each channel has 2 batches * 4 pixels = 8 entries.
        assert_eq!(sums.data(), &[16.0, 24.0, 32.0]);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[2, 2]).unwrap();
        let cs = a.cosine_similarity_per_sample(&b);
        assert!((cs.data()[0] - 1.0).abs() < 1e-6);
        assert!((cs.data()[1] + 1.0).abs() < 1e-6);
        // Zero vector yields similarity 0 rather than NaN.
        let z = Tensor::zeros(&[1, 4]);
        let o = Tensor::ones(&[1, 4]);
        assert_eq!(z.cosine_similarity_per_sample(&o).data(), &[0.0]);
    }
}
