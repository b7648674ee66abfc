//! Property-based tests for the tensor kernel.

use ensembler_tensor::gemm::{
    gemm_nn_with, gemm_nt_with, gemm_tn_with, Parallelism, MR, NR, SMALL_THRESHOLD,
};
use ensembler_tensor::gemm::{MC, PAR_THRESHOLD};
use ensembler_tensor::quant::{qgemm_nn_with, QKC};
use ensembler_tensor::{
    col2im, im2col, im2col_i8, Conv2dGeometry, QTensor, QTensorBatch, Rng, Tensor,
};
use proptest::prelude::*;

/// Textbook O(m·k·n) integer product used as the oracle for the packed int8
/// kernel.
fn naive_qgemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += a[i * k + p] as i32 * b[p * n + j] as i32;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn fill_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len).map(|_| rng.below(255) as i8).collect()
}

/// Textbook O(m·k·n) product used as the oracle for the blocked kernels.
fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = x[r * cols + c];
        }
    }
    out
}

fn fill(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

fn assert_all_close(got: &[f32], want: &[f32], tol: f32) {
    assert_eq!(got.len(), want.len());
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "gemm mismatch at {i}: {x} vs {y}"
        );
    }
}

/// The per-tap lowering `im2col` used before it copied in-bounds `kx` runs
/// as slices: every kernel tap of every window is bounds-tested on its own.
/// Kept here as the oracle for the run-copying code, for both element types.
fn per_tap_im2col<T: Copy + Default>(
    data: &[T],
    [b, c, h, w]: [usize; 4],
    geom: Conv2dGeometry,
) -> Vec<T> {
    let (out_h, out_w) = (geom.output_extent(h), geom.output_extent(w));
    let k = geom.kernel;
    let cols = c * k * k;
    let plane = h * w;
    let mut out = vec![T::default(); b * out_h * out_w * cols];
    for n in 0..b {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = (n * out_h + oy) * out_w + ox;
                let row = &mut out[row_idx * cols..(row_idx + 1) * cols];
                for ch in 0..c {
                    for ky in 0..k {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        for kx in 0..k {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            let col_idx = (ch * k + ky) * k + kx;
                            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                row[col_idx] = data
                                    [n * c * plane + ch * plane + iy as usize * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The dot-product loop the small `A·Bᵀ` product used before it transposed
/// its right operand and streamed it: one scalar accumulator per output
/// element, `k` multiply-then-adds in order from `0.0`.
fn nt_dot_oracle(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    out
}

/// Uniform values salted with the payloads a rearranged loop could treat
/// differently: `NaN`, both infinities, negative zero and subnormals.
fn fill_salted(len: usize, rng: &mut Rng) -> Vec<f32> {
    const SALT: [f32; 6] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        1.0e-40,
        -3.0e-42,
    ];
    (0..len)
        .map(|_| match rng.below(12) {
            pick @ 0..=5 if rng.below(4) == 0 => SALT[pick],
            _ => rng.uniform(-2.0, 2.0),
        })
        .collect()
}

/// Bit equality, except that any `NaN` equals any `NaN`: which payload an
/// operation on two `NaN`s returns is not something Rust pins down.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Shapes that straddle the interesting boundaries: unit dimensions,
/// non-multiples of the MR/NR register tile, and sizes on both sides of the
/// packing threshold.
fn gemm_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..8, any::<u64>()).prop_map(|(pick, seed)| {
        let mut rng = Rng::seed_from(seed);
        let odd = |lo: usize, hi: usize, rng: &mut Rng| lo + rng.below(hi - lo);
        match pick {
            0 => (1, odd(1, 40, &mut rng), odd(1, 40, &mut rng)), // m = 1
            1 => (odd(1, 40, &mut rng), 1, odd(1, 40, &mut rng)), // k = 1
            2 => (odd(1, 40, &mut rng), odd(1, 40, &mut rng), 1), // n = 1
            // Ragged tile edges with k*n past SMALL_THRESHOLD so the packed
            // kernel (not the small-product loop) handles them.
            3 => (MR + 1, odd(94, 128, &mut rng), NR + 3),
            // Past SMALL_THRESHOLD with non-multiple-of-block extents.
            4 => (37, 41, 43),
            5 => (MR * 9 + 2, 65, NR * 5 + 5),
            _ => (
                odd(1, 48, &mut rng),
                odd(1, 48, &mut rng),
                odd(1, 48, &mut rng),
            ),
        }
    })
}

/// Strategy producing a small random tensor with a random 2-D shape.
fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..6, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = Rng::seed_from(seed);
        Tensor::from_fn(&[r, c], |_| rng.uniform(-2.0, 2.0))
    })
}

/// Strategy producing a small random NCHW tensor.
fn small_nchw() -> impl Strategy<Value = Tensor> {
    (1usize..3, 1usize..4, 3usize..7, 3usize..7, any::<u64>()).prop_map(|(b, c, h, w, seed)| {
        let mut rng = Rng::seed_from(seed);
        Tensor::from_fn(&[b, c, h, w], |_| rng.uniform(-1.0, 1.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_commutes(a in small_matrix()) {
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn subtraction_is_inverse_of_addition(a in small_matrix()) {
        let b = a.map(|x| (x * 3.0).sin());
        let back = a.add(&b).sub(&b);
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn scaling_distributes_over_addition(a in small_matrix(), k in -3.0f32..3.0) {
        let b = a.map(|x| x + 1.0);
        let lhs = a.add(&b).scale(k);
        let rhs = a.scale(k).add(&b.scale(k));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_is_involutive(a in small_matrix()) {
        prop_assert_eq!(a.transpose2().transpose2(), a);
    }

    #[test]
    fn matmul_agrees_with_naive_definition(a in small_matrix(), seed in any::<u64>()) {
        let k = a.shape()[1];
        let n = 1 + (seed % 4) as usize;
        let mut rng = Rng::seed_from(seed);
        let b = Tensor::from_fn(&[k, n], |_| rng.uniform(-1.0, 1.0));
        let c = a.matmul(&b);
        for i in 0..a.shape()[0] {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                prop_assert!((c.at2(i, j) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn reshape_preserves_sum(a in small_matrix()) {
        let flat = a.reshape(&[a.len()]).unwrap();
        prop_assert!((flat.sum() - a.sum()).abs() < 1e-4);
    }

    #[test]
    fn sum_axis_decompositions_agree(a in small_matrix()) {
        let total = a.sum();
        prop_assert!((a.sum_axis0().sum() - total).abs() < 1e-4);
        prop_assert!((a.sum_axis1().sum() - total).abs() < 1e-4);
    }

    #[test]
    fn cosine_similarity_is_bounded(a in small_matrix()) {
        let b = a.map(|x| x.cos());
        let cs = a.cosine_similarity_per_sample(&b);
        for v in cs.data() {
            prop_assert!(*v >= -1.0 - 1e-5 && *v <= 1.0 + 1e-5);
        }
        let self_cs = a.cosine_similarity_per_sample(&a);
        for (row, v) in self_cs.data().iter().enumerate() {
            // Rows that are exactly zero report similarity 0 by convention.
            let row_norm: f32 = (0..a.shape()[1]).map(|c| a.at2(row, c).powi(2)).sum();
            if row_norm > 1e-10 {
                prop_assert!((v - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn concat_then_split_round_trips(x in small_nchw()) {
        let y = x.map(|v| v + 10.0);
        let cat = Tensor::concat_channels(&[&x, &y]);
        let parts = cat.split_channels(2);
        prop_assert_eq!(&parts[0], &x);
        prop_assert_eq!(&parts[1], &y);
    }

    #[test]
    fn batch_stack_round_trips(x in small_nchw()) {
        let items: Vec<Tensor> = (0..x.shape()[0]).map(|n| x.batch_item(n)).collect();
        prop_assert_eq!(Tensor::stack_batch(&items), x);
    }

    #[test]
    fn im2col_col2im_adjointness(x in small_nchw(), seed in any::<u64>()) {
        let geom = Conv2dGeometry::new(3, 1, 1);
        let cols = im2col(&x, geom);
        let mut rng = Rng::seed_from(seed);
        let y = Tensor::from_fn(cols.shape(), |_| rng.uniform(-1.0, 1.0));
        let lhs = cols.dot(&y);
        let rhs = x.dot(&col2im(
            &y,
            x.shape()[0],
            x.shape()[1],
            x.shape()[2],
            x.shape()[3],
            geom,
        ));
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn blocked_gemm_matches_naive_on_random_shapes((m, k, n) in gemm_shape(), seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let a = fill(m * k, &mut rng);
        let b = fill(k * n, &mut rng);
        let want = naive_gemm(&a, &b, m, k, n);
        // Serial and parallel paths must both match the oracle, whatever side
        // of the size thresholds the shape falls on.
        assert_all_close(&gemm_nn_with(&a, &b, m, k, n, Parallelism::Serial), &want, 1e-4);
        assert_all_close(&gemm_nn_with(&a, &b, m, k, n, Parallelism::Parallel), &want, 1e-4);
    }

    #[test]
    fn transposed_gemm_variants_match_naive((m, k, n) in gemm_shape(), seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let a = fill(m * k, &mut rng);
        let b = fill(k * n, &mut rng);
        let want = naive_gemm(&a, &b, m, k, n);
        // Aᵀ stored as [k,m] and Bᵀ stored as [n,k] must hit the same result
        // through the transpose-aware packing, on both execution paths.
        let a_t = transpose(&a, m, k);
        let b_t = transpose(&b, k, n);
        for par in [Parallelism::Serial, Parallelism::Parallel] {
            assert_all_close(&gemm_tn_with(&a_t, &b, k, m, n, par), &want, 1e-4);
            assert_all_close(&gemm_nt_with(&a, &b_t, m, k, n, par), &want, 1e-4);
        }
    }

    #[test]
    fn gemm_threshold_boundary_is_seamless(seed in any::<u64>()) {
        // Shape pairs bracketing SMALL_THRESHOLD (which is on k*n only): the
        // packed kernel and the small-path loop must both agree with the
        // naive oracle on either side of the switch.
        let mut rng = Rng::seed_from(seed);
        for n in [31usize, 33] {
            let (m, k) = (32usize, 32usize);
            assert!((k * n < SMALL_THRESHOLD) == (n == 31));
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let want = naive_gemm(&a, &b, m, k, n);
            assert_all_close(&gemm_nn_with(&a, &b, m, k, n, Parallelism::Serial), &want, 1e-4);
        }
    }

    #[test]
    fn gemm_rows_are_batch_invariant((m, k, n) in gemm_shape(), seed in any::<u64>()) {
        // The engine coalesces single-row requests into mini-batches, so row
        // i of a product must be bit-exact whether computed alone or inside a
        // larger batch (kernel path choice must not depend on m).
        let mut rng = Rng::seed_from(seed);
        let a = fill(m * k, &mut rng);
        let b = fill(k * n, &mut rng);
        let whole = gemm_nn_with(&a, &b, m, k, n, Parallelism::Serial);
        let row0 = gemm_nn_with(&a[..k], &b, 1, k, n, Parallelism::Serial);
        prop_assert_eq!(&whole[..n], &row0[..]);

        // The same for a right operand below SMALL_THRESHOLD, in the `A·Bᵀ`
        // layout the conv and linear stages use and tall enough that the
        // unpacked loop is row-chunked over the pool: a row's bits depend
        // neither on the batch around it nor on the band it falls in.
        let (ks, ns) = (1 + k % 27, 1 + n % 16);
        prop_assert!(ks * ns < SMALL_THRESHOLD);
        let tall = MC + 1 + m;
        let a = fill(tall * ks, &mut rng);
        let bt = fill(ns * ks, &mut rng);
        let whole = gemm_nt_with(&a, &bt, tall, ks, ns, Parallelism::Parallel);
        for i in [0, MC - 1, MC, tall - 1] {
            let alone = gemm_nt_with(&a[i * ks..(i + 1) * ks], &bt, 1, ks, ns, Parallelism::Serial);
            prop_assert!(same_bits(&whole[i * ns..(i + 1) * ns], &alone), "row {i}");
        }
    }

    #[test]
    fn im2col_copies_the_bits_the_per_tap_oracle_copies(
        (kernel, stride, padding) in (1usize..=5, 1usize..=3, 0usize..=2),
        (c, h, w) in (1usize..4, 5usize..13, 5usize..13),
        seed in any::<u64>()
    ) {
        // Every geometry the stack lowers and then some: padding >= kernel,
        // strides that skip pixels, the 1x1 stride-2 residual shortcut. Batch
        // 1 takes the serial loop; the second batch is sized just past the
        // lowering's PAR_ELEMENT_THRESHOLD (1 << 15 output elements), so its
        // items are chunks handed to the pool.
        let geom = Conv2dGeometry::new(kernel, stride, padding);
        let item_out = geom.output_extent(h) * geom.output_extent(w) * c * kernel * kernel;
        let mut rng = Rng::seed_from(seed);
        for b in [1, (1usize << 15).div_ceil(item_out) + 1] {
            let x = Tensor::from_fn(&[b, c, h, w], |_| rng.uniform(-1.0, 1.0));
            let want = per_tap_im2col(x.data(), [b, c, h, w], geom);
            prop_assert!(same_bits(im2col(&x, geom).data(), &want), "f32, batch {b}");

            let q = fill_i8(b * c * h * w, &mut rng);
            let want = per_tap_im2col(&q, [b, c, h, w], geom);
            prop_assert_eq!(im2col_i8(&q, b, c, h, w, geom), want, "i8, batch {}", b);
        }
    }

    #[test]
    fn small_nt_product_keeps_the_dot_loop_bits(
        (k, n) in (1usize..=40, 1usize..=25),
        seed in any::<u64>()
    ) {
        // Below SMALL_THRESHOLD `A·Bᵀ` transposes B once and streams it; each
        // output element must still see the dot loop's k multiply-then-adds
        // in order, whatever flows through them, on the serial path, the
        // forced row-chunked path (m not a multiple of the MC-row chunk) and
        // the automatic one (the last m is past PAR_THRESHOLD).
        prop_assert!(k * n < SMALL_THRESHOLD);
        let mut rng = Rng::seed_from(seed);
        let bt = fill_salted(n * k, &mut rng);
        for m in [1, 7, MC + 3, 2 * MC + 5, PAR_THRESHOLD.div_ceil(k * n) + 1] {
            let a = fill_salted(m * k, &mut rng);
            let want = nt_dot_oracle(&a, &bt, m, k, n);
            for par in [Parallelism::Serial, Parallelism::Parallel, Parallelism::Auto] {
                let got = gemm_nt_with(&a, &bt, m, k, n, par);
                prop_assert!(same_bits(&got, &want), "{m}x{k}x{n} {par:?}");
            }
        }
    }

    #[test]
    fn parallel_im2col_matches_row_extraction(x in small_nchw(), seed in any::<u64>()) {
        // im2col over the whole batch must equal stitching per-item lowerings,
        // which is exactly the invariant the batch-parallel split relies on.
        let _ = seed;
        let geom = Conv2dGeometry::new(3, 1, 1);
        let whole = im2col(&x, geom);
        let mut stitched = Vec::new();
        for n in 0..x.shape()[0] {
            stitched.extend_from_slice(im2col(&x.batch_item(n), geom).data());
        }
        prop_assert_eq!(whole.data(), &stitched[..]);
    }

    #[test]
    fn conv_geometry_round_trip(h in 4usize..16, k in 1usize..4, p in 0usize..2) {
        // For stride 1 the transposed geometry exactly inverts the forward one.
        let geom = Conv2dGeometry::new(k, 1, p);
        if h + 2 * p >= k {
            let out = geom.output_extent(h);
            prop_assert_eq!(geom.transposed_output_extent(out), h);
        }
    }

    #[test]
    fn quantize_dequantize_error_is_at_most_half_a_step(
        len in 1usize..200,
        magnitude in 0.001f32..1000.0,
        seed in any::<u64>()
    ) {
        // The defining bound of symmetric int8 quantization: every element
        // reconstructs to within scale/2 (up to f32 rounding slack).
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::from_fn(&[len], |_| rng.uniform(-magnitude, magnitude));
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        for (x, y) in t.data().iter().zip(back.data()) {
            prop_assert!(
                (x - y).abs() <= q.scale() * 0.500001,
                "roundtrip error {} exceeds scale/2 = {}",
                (x - y).abs(),
                q.scale() / 2.0
            );
        }
        // Per-sample batch quantization obeys the same bound per row.
        let rows = Tensor::from_fn(&[4, 16], |_| rng.uniform(-magnitude, magnitude));
        let qb = QTensorBatch::quantize_batch(&rows);
        let back = qb.dequantize();
        for (i, (x, y)) in rows.data().iter().zip(back.data()).enumerate() {
            prop_assert!((x - y).abs() <= qb.scales()[i / 16] * 0.500001);
        }
    }

    #[test]
    fn qgemm_matches_the_naive_i32_oracle((m, k, n) in gemm_shape(), seed in any::<u64>()) {
        // Same shape strategy as the f32 oracle suite: unit dims, ragged
        // register-tile edges, odd and even depths. Integer accumulation is
        // exact, so equality is bitwise on every path.
        let mut rng = Rng::seed_from(seed);
        let a = fill_i8(m * k, &mut rng);
        let b = fill_i8(k * n, &mut rng);
        let want = naive_qgemm(&a, &b, m, k, n);
        prop_assert_eq!(qgemm_nn_with(&a, &b, m, k, n, Parallelism::Serial), want.clone());
        prop_assert_eq!(qgemm_nn_with(&a, &b, m, k, n, Parallelism::Parallel), want);
    }

    #[test]
    fn qgemm_edge_shapes_match_the_oracle(seed in any::<u64>()) {
        // Explicit degenerate and boundary shapes: empty dims, 1x1, odd k
        // (the kernel walks k in pairs), k spanning multiple KC blocks, and
        // ragged and whole column panels.
        let mut rng = Rng::seed_from(seed);
        for (m, k, n) in [
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (2, 7, 3),
            (5, QKC + 3, 2),
            (4, 33, 31), // odd k, ragged last panel
            (4, 32, 32), // whole panels
        ] {
            let a = fill_i8(m * k, &mut rng);
            let b = fill_i8(k * n, &mut rng);
            let want = naive_qgemm(&a, &b, m, k, n);
            prop_assert_eq!(qgemm_nn_with(&a, &b, m, k, n, Parallelism::Serial), want);
        }
    }

    #[test]
    fn qgemm_rows_are_batch_invariant((m, k, n) in gemm_shape(), seed in any::<u64>()) {
        // Same invariant the engine's coalescer relies on for f32, in int8.
        let mut rng = Rng::seed_from(seed);
        if m == 0 {
            continue;
        }
        let a = fill_i8(m * k, &mut rng);
        let b = fill_i8(k * n, &mut rng);
        let whole = qgemm_nn_with(&a, &b, m, k, n, Parallelism::Serial);
        let row0 = qgemm_nn_with(&a[..k], &b, 1, k, n, Parallelism::Serial);
        prop_assert_eq!(&whole[..n], &row0[..]);
    }

    #[test]
    fn i8_lowering_commutes_with_quantization(x in small_nchw(), seed in any::<u64>()) {
        // im2col_i8(quantize(x)) must equal elementwise-quantizing im2col(x)
        // with the same per-sample scales: zero padding maps to quantized
        // zero, which is what the int8 convolution path relies on.
        let _ = seed;
        let geom = Conv2dGeometry::new(3, 1, 1);
        let [b, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let q = QTensorBatch::quantize_batch(&x);
        let got = im2col_i8(q.data(), b, c, h, w, geom);

        let cols = im2col(&x, geom);
        let rows_per_item = cols.shape()[0] / b;
        let row_len = cols.shape()[1];
        let expect: Vec<i8> = cols
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let sample = (i / row_len) / rows_per_item;
                let inv = 1.0 / q.scales()[sample];
                (v * inv).round().clamp(-127.0, 127.0) as i8
            })
            .collect();
        prop_assert_eq!(got, expect);
    }
}
