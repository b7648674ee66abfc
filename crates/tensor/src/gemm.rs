//! Blocked, parallel GEMM micro-kernels backing the rank-2 matrix products
//! and the compiled plans' `f32` convolutions.
//!
//! All three matrix layouts used by the stack — `A·B`, `Aᵀ·B` and `A·Bᵀ` —
//! and the convolution [`conv_fused`] funnel into one cache-blocked kernel:
//!
//! * **Packing — of the right operand only.** `B` is repacked once per
//!   product into column panels of [`NR`] contiguous columns (zero-padded on
//!   the ragged edge), so the inner loop streams it whatever its original
//!   layout. The left operand is *not* copied: the micro-kernel broadcasts
//!   each `A` value straight from where it lies, element `(i, p)` at
//!   `data[row[i] + koff[p]]` — a start per row and a k-offset table built
//!   once per product (`Lhs`). A matrix, transposed or not, is the 1×1 case
//!   (`row[i] = i·rs`, `koff[p] = p·ks`); a convolution reads its column
//!   matrix out of one zero-haloed copy of its input ([`crate::Halo`]), NCHW
//!   or pixel-major, row `(n, oy, ox)` at its window's corner and `koff[p]`
//!   the offset of tap `(c, ky, kx)` within the window, both from the copy's
//!   strides, so no column matrix is written. A
//!   ragged last row panel points its missing rows at the last valid one;
//!   their accumulators are never stored, so the micro-kernel still never
//!   branches.
//! * **Register tiling.** The micro-kernel accumulates a small output tile
//!   in registers across a [`KC`]-deep slice of the shared dimension,
//!   amortising every load of `A` over the tile width and every load of `B`
//!   over the tile height. The tile geometry is picked per host at runtime:
//!   an 8×16 AVX-512F kernel (one `zmm` per row) on x86-64 machines that
//!   report AVX-512F, a 6×16 AVX2+FMA kernel on those that report both of
//!   those features, a portable auto-vectorising [`MR`]`×`[`NR`] kernel
//!   everywhere else. The two x86-64 kernels run the same FMA chain per
//!   element, so they write the same bits.
//! * **Cache blocking.** The shared dimension is walked in [`KC`]-sized
//!   blocks so the active `A` and `B` panels stay resident in L1/L2 while an
//!   output tile is produced.
//! * **Row-band parallelism.** Bands of [`MC`] output rows are independent,
//!   so large products hand the bands — disjoint chunks of the output, each
//!   written in place — to the persistent pool with
//!   [`crate::parallel::par_chunks_mut`]. Products below [`PAR_THRESHOLD`]
//!   multiply-accumulates stay on the calling thread, and so does any
//!   product computed from inside a parallel region (one ensemble body per
//!   core, serial kernels inside; see [`crate::parallel`]). The unpacked
//!   small product below [`SMALL_THRESHOLD`] splits the same way.
//! * **The small product.** Below [`SMALL_THRESHOLD`] elements of `B`
//!   nothing is packed: each host kernel has a second register tile (8×16
//!   `zmm`, 4×16 `ymm`, portable 4×8, masked on a ragged column tail) that
//!   holds a block of output rows across the whole of `k` and reads the
//!   row-major `B` where it lies. It multiplies, then adds, from `0.0`, in
//!   ascending `p`, never fused, so every kernel writes the bits of a plain
//!   triple loop. The client's head conv is this path.
//!
//! Unlike the scalar loops this kernel replaced, no term is ever skipped:
//! `0 × NaN` and `0 × ∞` contributions propagate into the output as IEEE 754
//! dictates, so non-finite values cannot be silently laundered by a GEMM.
//!
//! # Examples
//!
//! ```
//! use ensembler_tensor::gemm::gemm_nn;
//!
//! // [2,2] x [2,2]
//! let c = gemm_nn(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
//! assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
//! ```

use crate::parallel::{chunks_mut, parallelism};
use crate::{transpose, Halo};
use std::borrow::Cow;

/// Rows of the register tile held by the portable micro-kernel. On x86-64
/// hosts with AVX-512F or AVX2+FMA a taller 16-column tile is selected at
/// runtime instead (see the module docs); the packing layout adapts to
/// whichever kernel runs.
pub const MR: usize = 4;
/// Columns of the register tile held by the portable micro-kernel.
pub const NR: usize = 8;
/// Depth of the shared-dimension cache block.
pub const KC: usize = 256;
/// Output rows per parallel band (one unit of work for a worker thread).
pub const MC: usize = 128;
/// At least the tallest register tile of any micro-kernel, blocked or small:
/// room for a ragged tile's repeated rows past a run of [`MC`].
const MAX_MR: usize = 8;

/// Where a product's logical `[m,k]` left operand lies in memory.
///
/// Row `i` is output position `(n, oy, ox)` of a convolution over `images`
/// images of `oh x ow` positions, and starts `n·image + oy·y + ox·x`
/// elements into the data. Shared index `p` is tap `(c, ky, kx)` of a
/// `kernel x kernel` window over `channels` channels, and lies
/// `c·channel + ky·tap_row + kx·tap` elements past its row's start. A plain
/// matrix with strides `(rs, ks)` is the 1×1 case: `m` images of one
/// position each, `image = rs`, and `k` channels, `channel = ks`.
#[derive(Debug, Clone, Copy)]
struct Walk {
    images: usize,
    oh: usize,
    ow: usize,
    image: usize,
    y: usize,
    x: usize,
    channels: usize,
    kernel: usize,
    channel: usize,
    tap_row: usize,
    tap: usize,
}

impl Walk {
    /// A row-major `[m,k]` matrix, or with `(rs, ks) = (1, m)` one stored
    /// transposed.
    fn matrix(m: usize, k: usize, rs: usize, ks: usize) -> Self {
        Self {
            images: m,
            oh: 1,
            ow: 1,
            image: rs,
            y: 0,
            x: 0,
            channels: k,
            kernel: 1,
            channel: ks,
            tap_row: 0,
            tap: 0,
        }
    }

    /// The column matrix of `halo`'s convolution, read from the halo through
    /// its strides ([`Halo::layout`]): a halo pixel `pixel` elements from
    /// the next, so a row of them `wp·pixel`, and a stride `s` moves an
    /// output position `s` halo pixels. An NCHW halo's pixels are adjacent
    /// and its channels a plane apart; a pixel-major halo's channels are
    /// adjacent and its pixels `c` apart.
    fn conv(halo: &Halo) -> Self {
        let (wp, s, layout) = (halo.wp, halo.geometry.stride, halo.layout);
        Self {
            images: halo.batch,
            oh: halo.oh,
            ow: halo.ow,
            image: layout.image,
            y: s * wp * layout.pixel,
            x: s * layout.pixel,
            channels: halo.channels,
            kernel: halo.geometry.kernel,
            channel: layout.channel,
            tap_row: wp * layout.pixel,
            tap: layout.pixel,
        }
    }

    fn m(&self) -> usize {
        self.images * self.oh * self.ow
    }

    fn k(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// The k-offset table: entry `p` is where shared index `p`, tap
    /// `(c, ky, kx)` in `im2col`'s order, lies past its row's start. Built
    /// once per product, by `gemm_impl`.
    ///
    /// The table need not be non-decreasing: a pixel-major window steps back
    /// at each next channel. So the micro-kernels' bounds check takes each
    /// block's largest entry ([`Lhs::block`]), not its last.
    ///
    /// # Panics
    ///
    /// Panics unless each tap axis (`kx`, `ky`, `c`, by stride) steps past
    /// all the axes with smaller strides reach, so that no two shared
    /// indices lie on one element. Every layout above passes (a window row
    /// never reaches the next, nor a window the next channel, in either
    /// order of a halo).
    fn k_offsets(&self) -> Vec<usize> {
        let mut koff = Vec::with_capacity(self.k());
        for c in 0..self.channels {
            for ky in 0..self.kernel {
                let start = c * self.channel + ky * self.tap_row;
                koff.extend((0..self.kernel).map(|kx| start + kx * self.tap));
            }
        }
        // Taken from the innermost axis out, each tap axis must step past
        // every offset the axes inside it reach.
        let mut axes = [
            (self.tap, self.kernel),
            (self.tap_row, self.kernel),
            (self.channel, self.channels),
        ];
        axes.sort_unstable();
        let mut reach = 0;
        for (stride, extent) in axes.into_iter().filter(|&(_, extent)| extent > 1) {
            assert!(stride > reach, "lhs k offsets must be distinct");
            reach += (extent - 1) * stride;
        }
        koff
    }

    /// Fills `out[r]` with the start of product row `row0 + r`. Rows walk
    /// `(n, oy, ox)`, so only the first is divided out.
    fn row_offsets(&self, row0: usize, out: &mut [usize]) {
        let plane = self.oh * self.ow;
        let (mut n, rest) = (row0 / plane, row0 % plane);
        let (mut oy, mut ox) = (rest / self.ow, rest % self.ow);
        for slot in out {
            *slot = n * self.image + oy * self.y + ox * self.x;
            ox += 1;
            if ox == self.ow {
                (ox, oy) = (0, oy + 1);
                if oy == self.oh {
                    (oy, n) = (0, n + 1);
                }
            }
        }
    }

    /// Calls `f(offsets, rows)` for each run of at most [`MC`] output rows
    /// of `band` (product rows `row0..`, `n` wide), with `offsets[r]` the
    /// start of row `r` of the run. `offsets` is padded to whole `tile`-row
    /// tiles by repeating the last row, whose accumulators a micro-kernel
    /// never stores. Nothing is allocated: the offsets live on the stack.
    fn for_each_run(
        &self,
        row0: usize,
        n: usize,
        tile: usize,
        band: &mut [f32],
        mut f: impl FnMut(&[usize], &mut [f32]),
    ) {
        let mut offsets = [0usize; MC + MAX_MR];
        for (run, out) in band.chunks_mut(MC * n).enumerate() {
            let rows = out.len() / n;
            let padded = rows.div_ceil(tile) * tile;
            self.row_offsets(row0 + run * MC, &mut offsets[..rows]);
            let last = offsets[rows - 1];
            offsets[rows..padded].fill(last);
            f(&offsets[..padded], out);
        }
    }
}

/// The left operand of one register tile, read in place: row `r` reads
/// shared index `p` at `data[rows[r] + koff[p]]`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    /// Each row's start; rows past a ragged edge repeat the last valid one.
    rows: &'a [usize],
    /// The block's slice of the product's k-offset table
    /// ([`Walk::k_offsets`]), in any order.
    koff: &'a [usize],
    /// The largest entry of `koff` (0 if it is empty).
    far: usize,
}

impl<'a> Lhs<'a> {
    /// The left operand of the tiles of one block of shared indices, `koff`
    /// of the product's k-offset table, with no rows yet (a tile sets its
    /// own): the block's largest offset is worked out once, here.
    fn block(data: &'a [f32], koff: &'a [usize]) -> Self {
        Self {
            data,
            rows: &[],
            koff,
            far: koff.iter().copied().max().unwrap_or(0),
        }
    }

    /// Panics unless every element of the tile lies inside `data` — the one
    /// check the micro-kernels' unchecked reads rest on. The farthest row
    /// at the block's largest k offset is the farthest read.
    fn assert_covers(self) {
        let far_row = self.rows.iter().max();
        let covered = match far_row {
            Some(row) if !self.koff.is_empty() => row
                .checked_add(self.far)
                .is_some_and(|far| far < self.data.len()),
            _ => false,
        };
        assert!(covered, "an lhs tile runs past its operand");
    }
}

/// One register-tile update: accumulate `tile_rows x cols` over the `kc =
/// a.koff.len()` shared indices of `a`'s block into `c` (leading dimension
/// `ldc`). `a.rows` holds one start per tile row; rows past `tile_rows`
/// re-read the last valid row and are not stored. The B panel holds `kc`
/// slivers of `nr` column values.
type MicroKernelFn =
    fn(a: Lhs, bpanel: &[f32], c: &mut [f32], ldc: usize, tile_rows: usize, cols: usize);

/// One small-product tile: `tile_rows x cols` outputs of the unpacked
/// product, read from `a`'s rows and the row-major right operand `b` (its
/// first `cols` columns, leading dimension `n`), stored into `c` (leading
/// dimension `n`). Each output is `0.0 + a·b + a·b …` over the whole of
/// `a.koff` in ascending order, a multiply then an add per term, never
/// fused and never skipped: the arithmetic of a plain triple loop. `a.rows`
/// holds one start per tile row; rows past `tile_rows` re-read the last
/// valid row and are not stored.
type SmallKernelFn = fn(a: Lhs, b: &[f32], c: &mut [f32], n: usize, tile_rows: usize, cols: usize);

/// The micro-kernels picked for this host, with their register-tile
/// geometry: the blocked product's `mr x nr` tile and the small product's
/// `small_mr x nr` one.
#[derive(Clone, Copy)]
struct KernelConfig {
    mr: usize,
    nr: usize,
    micro: MicroKernelFn,
    small_mr: usize,
    small: SmallKernelFn,
}

/// The portable kernels: what every host can run, and what hosts without
/// AVX2+FMA do run.
const PORTABLE_KERNEL: KernelConfig = KernelConfig {
    mr: MR,
    nr: NR,
    micro: portable_microkernel,
    small_mr: MR,
    small: portable_small,
};

/// The AVX2+FMA kernels, if this host reports both features. Detection is
/// cached by the standard library, so this is cheap to call per GEMM.
fn avx2_kernel() -> Option<KernelConfig> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(KernelConfig {
                mr: avx2::MR,
                nr: avx2::NR,
                micro: avx2::microkernel,
                small_mr: avx2::SMALL_MR,
                small: avx2::small,
            });
        }
    }
    None
}

/// The AVX-512F kernels, if this host reports the feature. Their blocked
/// tile runs the AVX2 kernel's per-element FMA chain, so the two write the
/// same bits.
fn avx512_kernel() -> Option<KernelConfig> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(KernelConfig {
                mr: avx512::MR,
                nr: avx512::NR,
                micro: avx512::microkernel,
                small_mr: avx512::SMALL_MR,
                small: avx512::small,
            });
        }
    }
    None
}

/// Picks the widest micro-kernels the host supports.
fn kernel_config() -> KernelConfig {
    avx512_kernel()
        .or_else(avx2_kernel)
        .unwrap_or(PORTABLE_KERNEL)
}

/// Below this many right-operand elements (`k·n`) the kernel skips packing
/// entirely and runs the small-product tiles, whose arithmetic is a plain
/// triple loop's (multiply, then add; no FMA).
///
/// Deliberately independent of `m`: row `i` of a product must be bit-exact
/// whether it is computed alone or inside a larger batch, because the
/// inference engine coalesces single-image requests into mini-batches and
/// guarantees coalescing never changes an answer. A threshold involving `m`
/// would route the same row through differently-rounded code paths (the
/// blocked kernel contracts multiply-adds with FMA where available)
/// depending on how many other requests happened to share the batch.
pub const SMALL_THRESHOLD: usize = 32 * 32;

/// At or above this many multiply-accumulates (`m·k·n`) the kernel splits row
/// bands across cores; below it the blocked kernel runs on the calling
/// thread.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Execution strategy for the blocked GEMM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Choose serial or parallel from the problem size (the default):
    /// products with at least [`PAR_THRESHOLD`] multiply-accumulates use all
    /// cores, smaller ones stay on the calling thread.
    #[default]
    Auto,
    /// Always run on the calling thread.
    Serial,
    /// Always hand row bands to the pool, regardless of size (they still run
    /// on the calling thread on a one-core host or inside a parallel region).
    Parallel,
}

/// An element-wise tail applied to each completed output row band while it is
/// still cache-hot, instead of as separate full passes over the output.
///
/// This is the hook the compiled-plan fusion passes in `ensembler-nn` use to
/// fold a layer's bias add and ReLU into the GEMM that feeds them: the fused
/// result is bit-identical to running the GEMM and then the separate
/// per-column bias and mask-multiply ReLU passes, because the epilogue
/// performs exactly the same scalar operations in the same per-element order —
/// only the traversal of memory changes.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::gemm::{gemm_nt_fused, GemmEpilogue, Parallelism};
///
/// let bias = [10.0, 20.0];
/// let ep = GemmEpilogue { bias: Some(&bias), relu: false };
/// // b is [n=2, k=2]: the transpose of [[5, 6], [7, 8]].
/// let c = gemm_nt_fused(&[1.0, 2.0, 3.0, 4.0], &[5.0, 7.0, 6.0, 8.0], 2, 2, 2,
///                       Parallelism::Auto, ep);
/// assert_eq!(c, vec![29.0, 42.0, 53.0, 70.0]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmEpilogue<'a> {
    /// Per-column bias added to every output row (length must be `n`).
    pub bias: Option<&'a [f32]>,
    /// Apply a mask-multiply ReLU after the bias: `v * (v > 0 ? 1 : 0)`.
    ///
    /// Mask-multiply (rather than `max(0.0)`) mirrors the eager `Relu`
    /// layer's `x * mask` formulation bit-for-bit, including its treatment of
    /// `NaN` (preserved) and negative inputs (mapped to `-0.0`).
    pub relu: bool,
}

impl GemmEpilogue<'_> {
    /// The identity epilogue: no bias, no activation.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if the epilogue performs no work.
    fn is_noop(&self) -> bool {
        self.bias.is_none() && !self.relu
    }
}

/// Applies `ep` to `rows x n` output rows. Element-wise, so applying it per
/// band is indistinguishable from one pass over the full output.
fn apply_epilogue(rows: &mut [f32], n: usize, ep: &GemmEpilogue) {
    if ep.is_noop() || n == 0 {
        return;
    }
    for row in rows.chunks_exact_mut(n) {
        if let Some(bias) = ep.bias {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
        if ep.relu {
            for o in row.iter_mut() {
                *o *= if *o > 0.0 { 1.0 } else { 0.0 };
            }
        }
    }
}

/// Which operands the kernel reads transposed.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `a` is `[m,k]`, `b` is `[k,n]`.
    Nn,
    /// `a` is `[k,m]` (used as `aᵀ`), `b` is `[k,n]`.
    Tn,
    /// `a` is `[m,k]`, `b` is `[n,k]` (used as `bᵀ`).
    Nt,
}

impl Op {
    /// Where the logical `[m,k]` left operand lies: strides `(k, 1)` for a
    /// row-major `A`, `(1, m)` for one stored transposed.
    fn walk(self, m: usize, k: usize) -> Walk {
        match self {
            Op::Nn | Op::Nt => Walk::matrix(m, k, k, 1),
            Op::Tn => Walk::matrix(m, k, 1, m),
        }
    }

    /// Element `(i, p)` of the logical `[m,k]` left operand (reference
    /// implementation only; the kernels read A through [`Op::walk`]).
    #[cfg(test)]
    fn a_at(self, a: &[f32], i: usize, p: usize, m: usize, k: usize) -> f32 {
        match self {
            Op::Nn | Op::Nt => a[i * k + p],
            Op::Tn => a[p * m + i],
        }
    }

    /// Element `(p, j)` of the logical `[k,n]` right operand (reference
    /// implementation only; the kernel reads B through its packed panels).
    #[cfg(test)]
    fn b_at(self, b: &[f32], p: usize, j: usize, k: usize, n: usize) -> f32 {
        match self {
            Op::Nn | Op::Tn => b[p * n + j],
            Op::Nt => b[j * k + p],
        }
    }
}

/// `C = A·B` for row-major `a: [m,k]` and `b: [k,n]`, returning row-major
/// `[m,n]`.
///
/// Serial below [`PAR_THRESHOLD`] multiply-accumulates, parallel above; use
/// [`gemm_nn_with`] to force either path.
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != k*n`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::gemm::gemm_nn;
///
/// // [1,3] x [3,2] — a row vector against a matrix.
/// let c = gemm_nn(&[1.0, 2.0, 3.0], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], 1, 3, 2);
/// assert_eq!(c, vec![14.0, 32.0]);
/// ```
pub fn gemm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm_nn_with(a, b, m, k, n, Parallelism::Auto)
}

/// [`gemm_nn`] with an explicit serial/parallel choice.
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != k*n`.
pub fn gemm_nn_with(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    par: Parallelism,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "gemm_nn lhs length must be m*k");
    assert_eq!(b.len(), k * n, "gemm_nn rhs length must be k*n");
    gemm_matrix(a, b, m, k, n, Op::Nn, par, GemmEpilogue::none())
}

/// `C = Aᵀ·B` for row-major `a: [k,m]` and `b: [k,n]`, returning row-major
/// `[m,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics if `a.len() != k*m` or `b.len() != k*n`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::gemm::{gemm_nn, gemm_tn};
///
/// // aᵀ·b computed directly matches the explicit [m,k] x [k,n] product.
/// let a_t = [1.0, 3.0, 2.0, 4.0]; // [k=2, m=2] storing aᵀ
/// let a = [1.0, 2.0, 3.0, 4.0]; // [m=2, k=2]
/// let b = [5.0, 6.0, 7.0, 8.0]; // [k=2, n=2]
/// assert_eq!(gemm_tn(&a_t, &b, 2, 2, 2), gemm_nn(&a, &b, 2, 2, 2));
/// ```
pub fn gemm_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    gemm_tn_with(a, b, k, m, n, Parallelism::Auto)
}

/// [`gemm_tn`] with an explicit serial/parallel choice.
///
/// # Panics
///
/// Panics if `a.len() != k*m` or `b.len() != k*n`.
pub fn gemm_tn_with(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    par: Parallelism,
) -> Vec<f32> {
    assert_eq!(a.len(), k * m, "gemm_tn lhs length must be k*m");
    assert_eq!(b.len(), k * n, "gemm_tn rhs length must be k*n");
    gemm_matrix(a, b, m, k, n, Op::Tn, par, GemmEpilogue::none())
}

/// `C = A·Bᵀ` for row-major `a: [m,k]` and `b: [n,k]`, returning row-major
/// `[m,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != n*k`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::gemm::gemm_nt;
///
/// // Each output element is a dot product of one row of a and one row of b.
/// let a = [1.0, 2.0, 3.0, 4.0]; // [m=2, k=2]
/// let b = [1.0, 0.0, 0.0, 1.0]; // [n=2, k=2]: the identity, so c == a
/// assert_eq!(gemm_nt(&a, &b, 2, 2, 2), a.to_vec());
/// ```
pub fn gemm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm_nt_with(a, b, m, k, n, Parallelism::Auto)
}

/// [`gemm_nt`] with an explicit serial/parallel choice.
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != n*k`.
pub fn gemm_nt_with(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    par: Parallelism,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "gemm_nt lhs length must be m*k");
    assert_eq!(b.len(), n * k, "gemm_nt rhs length must be n*k");
    gemm_matrix(a, b, m, k, n, Op::Nt, par, GemmEpilogue::none())
}

/// [`gemm_nt`] with a fused [`GemmEpilogue`] applied to each output band
/// while it is cache-hot. Bit-identical to [`gemm_nt_with`] followed by the
/// separate bias/ReLU passes — this is the entry point the compiled
/// convolution and linear stages use to fold their bias add (per GEMM
/// column) and ReLU into the kernel.
///
/// # Panics
///
/// Panics if `a.len() != m*k`, `b.len() != n*k`, or a bias is present with
/// length other than `n`.
pub fn gemm_nt_fused(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    par: Parallelism,
    ep: GemmEpilogue,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "gemm_nt lhs length must be m*k");
    assert_eq!(b.len(), n * k, "gemm_nt rhs length must be n*k");
    if let Some(bias) = ep.bias {
        assert_eq!(bias.len(), n, "epilogue bias length must be n");
    }
    gemm_matrix(a, b, m, k, n, Op::Nt, par, ep)
}

/// The `f32` convolution: `C = A·Bᵀ` with `A` the column matrix of the
/// halo's convolution read in place (one row per output position
/// `(n, oy, ox)`) and `weight` the `[n, c·kernel²]` filter bank, returning
/// row-major `[rows, n]` with `ep` applied to each band while it is
/// cache-hot. Bit-identical to [`crate::im2col`] followed by
/// [`gemm_nt_fused`], without the column matrix: the product reads the same
/// values, in the same `(c, ky, kx)` order, through the same blocking and
/// routing (both decided by the logical `[m,k]` and `n`).
///
/// # Panics
///
/// Panics if `weight.len() != n·c·kernel²` for the halo's channel count `c`,
/// or a bias is present with length other than `n`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::gemm::{conv_fused, gemm_nt_fused, GemmEpilogue, Parallelism};
/// use ensembler_tensor::{im2col, Conv2dGeometry, Halo, Layout, Tensor};
///
/// // A "same" 3x3 convolution of one 3-channel 3x3 image into 4 channels.
/// let geom = Conv2dGeometry::new(3, 1, 1);
/// let x = Tensor::from_fn(&[1, 3, 3, 3], |i| i as f32 - 13.0);
/// let w: Vec<f32> = (0..4 * 27).map(|v| (v % 7) as f32 - 3.0).collect(); // [out, c·k²]
/// let (ep, par) = (GemmEpilogue::none(), Parallelism::Auto);
/// let want = gemm_nt_fused(im2col(&x, geom).data(), &w, 9, 27, 4, par, ep);
/// let halo = Halo::lower(x.data(), Layout::nchw(3, 9), [1, 3, 3, 3], geom);
/// assert_eq!(conv_fused(&halo, &w, 4, par, ep), want);
/// ```
pub fn conv_fused(
    halo: &Halo,
    weight: &[f32],
    n: usize,
    par: Parallelism,
    ep: GemmEpilogue,
) -> Vec<f32> {
    conv_with(kernel_config(), halo, weight, n, par, ep)
}

/// [`conv_fused`] with `epilogue` run on each row band of the product while
/// it is cache-hot: `epilogue(row0, band)` rewrites in place the band's
/// rows, product rows `row0..` of `n` values each, and the returned
/// `[rows, n]` matrix holds what it wrote. The product is [`conv_fused`]'s,
/// bit for bit; a band is whole rows, and may cross an image's end.
///
/// # Panics
///
/// Panics if `weight.len() != n·c·kernel²` for the halo's channel count `c`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::gemm::{conv_fused, conv_map, GemmEpilogue, Parallelism};
/// use ensembler_tensor::{Conv2dGeometry, Halo, Layout};
///
/// // A "same" 3x3 convolution of one 2-channel 2x2 image into 3 channels,
/// // with a bias added to each band in place.
/// let geom = Conv2dGeometry::new(3, 1, 1);
/// let x = [1.0, -2.0, 3.0, 0.5, 0.25, -1.0, 2.0, 4.0];
/// let w: Vec<f32> = (0..3 * 18).map(|v| (v % 5) as f32 - 2.0).collect(); // [out, c·k²]
/// let halo = Halo::lower(&x, Layout::nchw(2, 4), [1, 2, 2, 2], geom);
/// let bias = [0.5, -0.5, 1.0];
/// let ep = GemmEpilogue { bias: Some(&bias), relu: false };
/// let want = conv_fused(&halo, &w, 3, Parallelism::Auto, ep);
/// let got = conv_map(&halo, &w, 3, |_, band| {
///     for row in band.chunks_exact_mut(3) {
///         row.iter_mut().zip(&bias).for_each(|(v, b)| *v += b);
///     }
/// });
/// assert_eq!(got, want);
/// ```
pub fn conv_map(
    halo: &Halo,
    weight: &[f32],
    n: usize,
    epilogue: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    conv_map_with(
        kernel_config(),
        halo,
        weight,
        n,
        Parallelism::Auto,
        epilogue,
    )
}

/// [`conv_fused`] under an explicit micro-kernel.
fn conv_with(
    cfg: KernelConfig,
    halo: &Halo,
    weight: &[f32],
    n: usize,
    par: Parallelism,
    ep: GemmEpilogue,
) -> Vec<f32> {
    if let Some(bias) = ep.bias {
        assert_eq!(bias.len(), n, "epilogue bias length must be n");
    }
    conv_map_with(cfg, halo, weight, n, par, |_, band| {
        apply_epilogue(band, n, &ep)
    })
}

/// [`conv_map`] under an explicit micro-kernel and parallelism.
fn conv_map_with(
    cfg: KernelConfig,
    halo: &Halo,
    weight: &[f32],
    n: usize,
    par: Parallelism,
    epilogue: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let walk = Walk::conv(halo);
    assert_eq!(
        weight.len(),
        n * walk.k(),
        "conv weight length must be out_channels*in_channels*kernel^2"
    );
    gemm_impl(cfg, halo.data(), walk, weight, n, Op::Nt, par, epilogue)
}

/// The three matrix layouts under the host's micro-kernel.
#[allow(clippy::too_many_arguments)]
fn gemm_matrix(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    op: Op,
    par: Parallelism,
    ep: GemmEpilogue,
) -> Vec<f32> {
    let epilogue = |_, band: &mut [f32]| apply_epilogue(band, n, &ep);
    gemm_impl(kernel_config(), a, op.walk(m, k), b, n, op, par, epilogue)
}

/// The one `f32` product driver: `a`, laid out as `walk` says, against the
/// logical `[k,n]` right operand `b` (`op` says whether it is stored
/// transposed), with `epilogue(row0, band)` run on each finished band of
/// output rows `row0..` (on the whole output, as rows `0..`, when a
/// dimension is empty).
#[allow(clippy::too_many_arguments)]
fn gemm_impl(
    cfg: KernelConfig,
    a: &[f32],
    walk: Walk,
    b: &[f32],
    n: usize,
    op: Op,
    par: Parallelism,
    epilogue: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let (m, k) = (walk.m(), walk.k());
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        epilogue(0, &mut out);
        return out;
    }
    let small = k * n < SMALL_THRESHOLD;
    let koff = walk.k_offsets();

    // The right operand, laid out once for every row band to read: below
    // SMALL_THRESHOLD the plain row-major `[k,n]` matrix the triple loop
    // streams (`A·Bᵀ` transposes its fewer-than-1024 elements into it);
    // above, ceil(n/nr) packed panels, each k rows of nr contiguous column
    // values (zero-padded on the ragged edge).
    let bp: Cow<[f32]> = match (small, op) {
        (true, Op::Nn | Op::Tn) => Cow::Borrowed(b),
        (true, Op::Nt) => Cow::Owned(transpose(b, n, k)),
        (false, _) => Cow::Owned(pack_b(b, k, n, op, cfg.nr)),
    };

    let workers = parallelism();
    let want_parallel = match par {
        Parallelism::Serial => false,
        Parallelism::Parallel => true,
        Parallelism::Auto => workers > 1 && m > cfg.mr && m * k * n >= PAR_THRESHOLD,
    };

    // Band sizing: MC rows normally, but a big product with few rows (the
    // engine's coalesced mini-batches rarely exceed MC) still deserves all
    // cores, so shrink bands to spread m across the workers. Bands stay
    // mr-aligned so every band but the last holds only full row panels, and
    // the split never changes results: each row's arithmetic is independent
    // of which band computes it.
    let band_rows = if want_parallel && m <= MC {
        let per_worker = m.div_ceil(workers.max(2));
        per_worker.div_ceil(cfg.mr) * cfg.mr
    } else {
        MC
    };

    // Each band is computed straight into its rows of the output, and the
    // epilogue follows immediately, while those rows are still resident in
    // cache; it is element-wise, so per band or in one pass is the same.
    chunks_mut(&mut out, band_rows * n, want_parallel, |index, band| {
        let row0 = index * band_rows;
        if small {
            gemm_small(a, walk, &koff, &bp, row0, n, cfg, band);
        } else {
            gemm_band(a, walk, &koff, &bp, row0, n, cfg, band);
        }
        epilogue(row0, band);
    });
    out
}

/// The product for `k·n` too small to amortise packing: the rows of `band`
/// (output rows `row0..`) against the row-major `[k,n]` right operand, in
/// `small_mr x nr` register tiles that each run the whole of `k`.
/// Each output element accumulates its `k` products in order, multiply then
/// add, from `0.0`, and never skips a term, so non-finite values propagate
/// exactly like the blocked path, and every kernel writes the bits of a
/// plain triple loop ([`SmallKernelFn`]).
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    a: &[f32],
    walk: Walk,
    koff: &[usize],
    b: &[f32],
    row0: usize,
    n: usize,
    cfg: KernelConfig,
    band: &mut [f32],
) {
    let (mr, nr) = (cfg.small_mr, cfg.nr);
    let block = Lhs::block(a, koff);
    walk.for_each_run(row0, n, mr, band, |offsets, out| {
        let rows = out.len() / n;
        for r0 in (0..rows).step_by(mr) {
            let tile = Lhs {
                rows: &offsets[r0..r0 + mr],
                ..block
            };
            for j0 in (0..n).step_by(nr) {
                let (tile_rows, cols) = (mr.min(rows - r0), nr.min(n - j0));
                (cfg.small)(tile, &b[j0..], &mut out[r0 * n + j0..], n, tile_rows, cols);
            }
        }
    });
}

/// Packs the logical `[k,n]` right operand into `nr`-column panels.
///
/// Panel `jp` occupies `bp[jp*k*nr..(jp+1)*k*nr]`; within a panel, row `p`
/// holds columns `jp*nr..jp*nr+nr` contiguously, zero-padded past `n`.
fn pack_b(b: &[f32], k: usize, n: usize, op: Op, nr: usize) -> Vec<f32> {
    let panels = n.div_ceil(nr);
    let mut bp = vec![0.0f32; panels * k * nr];
    for jp in 0..panels {
        let j0 = jp * nr;
        let cols = nr.min(n - j0);
        let panel = &mut bp[jp * k * nr..(jp + 1) * k * nr];
        match op {
            // Row-major source: copy nr-wide slivers of each row.
            Op::Nn | Op::Tn => {
                for p in 0..k {
                    let src = &b[p * n + j0..p * n + j0 + cols];
                    panel[p * nr..p * nr + cols].copy_from_slice(src);
                }
            }
            // Transposed source: column j of the logical B is row j of b.
            Op::Nt => {
                for (c, col) in (j0..j0 + cols).enumerate() {
                    let src = &b[col * k..(col + 1) * k];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * nr + c] = v;
                    }
                }
            }
        }
    }
    bp
}

/// Computes the product rows `row0..` that `band` (`rows x n`) holds,
/// blocking the shared dimension by KC. Nothing is allocated or copied
/// here: each tile's micro-kernel reads `a` where it lies, through the row
/// offsets worked out once per run of rows and the k-offset table `koff`.
#[allow(clippy::too_many_arguments)]
fn gemm_band(
    a: &[f32],
    walk: Walk,
    koff: &[usize],
    bp: &[f32],
    row0: usize,
    n: usize,
    cfg: KernelConfig,
    band: &mut [f32],
) {
    let (mr, nr, k) = (cfg.mr, cfg.nr, koff.len());
    let col_panels = n.div_ceil(nr);
    walk.for_each_run(row0, n, mr, band, |offsets, out| {
        let rows = out.len() / n;
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let block = Lhs::block(a, &koff[pc..pc + kc]);
            for jp in 0..col_panels {
                let bpanel = &bp[jp * k * nr + pc * nr..jp * k * nr + (pc + kc) * nr];
                let j0 = jp * nr;
                let cols = nr.min(n - j0);
                for r0 in (0..rows).step_by(mr) {
                    let tile = Lhs {
                        rows: &offsets[r0..r0 + mr],
                        ..block
                    };
                    (cfg.micro)(
                        tile,
                        bpanel,
                        &mut out[r0 * n + j0..],
                        n,
                        mr.min(rows - r0),
                        cols,
                    );
                }
            }
            pc += kc;
        }
    });
}

/// Accumulates an [`MR`]`x`[`NR`] register tile over the shared indices of
/// `a`'s block and adds the `tile_rows x cols` valid region into `c`
/// (leading dim `ldc`). The fixed-size slivers below auto-vectorise on any
/// target.
fn portable_microkernel(
    a: Lhs,
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    tile_rows: usize,
    cols: usize,
) {
    a.assert_covers();
    let row: [usize; MR] = a.rows.try_into().expect("MR row offsets");
    let mut acc = [[0.0f32; NR]; MR];
    for (p, &step) in a.koff.iter().enumerate() {
        let bv: &[f32; NR] = bpanel[p * NR..p * NR + NR].try_into().expect("NR sliver");
        for r in 0..MR {
            // SAFETY: `row[r]` is at most the farthest row offset and `step`
            // at most the block's largest k offset, the sum `assert_covers`
            // checked above. Unchecked because a checked read here halves
            // the kernel's throughput (docs/PERFORMANCE.md, "Reading A in
            // place").
            let ar = unsafe { *a.data.get_unchecked(row[r] + step) };
            for (slot, &bval) in acc[r].iter_mut().zip(bv) {
                *slot += ar * bval;
            }
        }
    }
    for r in 0..tile_rows {
        let crow = &mut c[r * ldc..r * ldc + cols];
        for (o, &v) in crow.iter_mut().zip(&acc[r][..cols]) {
            *o += v;
        }
    }
}

/// The portable small-product tile: [`MR`]`x`[`NR`] outputs held in a fixed
/// array across the whole of `k`, which auto-vectorises on any target
/// ([`SmallKernelFn`]). A ragged column tail multiplies zeros in the lanes
/// it does not store.
fn portable_small(a: Lhs, b: &[f32], c: &mut [f32], n: usize, tile_rows: usize, cols: usize) {
    a.assert_covers();
    let row: [usize; MR] = a.rows.try_into().expect("MR row offsets");
    let mut acc = [[0.0f32; NR]; MR];
    for (p, &step) in a.koff.iter().enumerate() {
        let sliver = &b[p * n..p * n + cols];
        let bv: [f32; NR] = sliver.try_into().unwrap_or_else(|_| {
            let mut ragged = [0.0; NR];
            ragged[..cols].copy_from_slice(sliver);
            ragged
        });
        for r in 0..MR {
            // SAFETY: as in `portable_microkernel`: `assert_covers` checked
            // the farthest row offset plus the largest k offset.
            let ar = unsafe { *a.data.get_unchecked(row[r] + step) };
            for (slot, &bval) in acc[r].iter_mut().zip(&bv) {
                *slot += ar * bval;
            }
        }
    }
    for r in 0..tile_rows {
        c[r * n..r * n + cols].copy_from_slice(&acc[r][..cols]);
    }
}

/// AVX2+FMA micro-kernel: a 6×16 register tile (12 `ymm` accumulators, two
/// per row) fed by A values broadcast from their six source rows, selected
/// at runtime on x86-64 hosts that report both features but not AVX-512F.
/// Its small-product tile is 4×16, two `ymm` per row, with a masked column
/// tail.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Lhs;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32,
        _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// Register-tile rows of the AVX2 kernel.
    pub(super) const MR: usize = 6;
    /// Register-tile columns of the AVX2 kernel (two 8-lane `ymm` vectors).
    pub(super) const NR: usize = 16;
    /// Register-tile rows of the AVX2 small-product tile.
    pub(super) const SMALL_MR: usize = 4;
    const _: () = assert!(MR <= super::MAX_MR && SMALL_MR <= super::MAX_MR);

    /// Safe entry point matching [`super::MicroKernelFn`].
    ///
    /// Only reachable through [`super::avx2_kernel`], which verifies AVX2
    /// and FMA availability before handing out this function pointer, so the
    /// `target_feature` call below is sound.
    pub(super) fn microkernel(
        a: Lhs,
        bpanel: &[f32],
        c: &mut [f32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        a.assert_covers();
        assert!(a.rows.len() == MR && (1..=MR).contains(&tile_rows) && cols <= NR);
        assert!(bpanel.len() >= a.koff.len() * NR);
        assert!(c.len() >= (tile_rows - 1) * ldc + cols);
        // SAFETY: AVX2+FMA are present (see above). The asserts are what
        // `microkernel_impl` requires of its caller.
        unsafe { microkernel_impl(a, bpanel, c, ldc, tile_rows, cols) }
    }

    /// # Safety
    ///
    /// The host must support AVX2 and FMA; `a` must cover its tile
    /// ([`Lhs::assert_covers`]) with `MR` row offsets and
    /// `1 <= tile_rows <= MR`; `bpanel` must hold `kc * NR` values for
    /// `kc = a.koff.len()`; and `c` must hold `(tile_rows - 1) * ldc + cols`
    /// with `cols <= NR`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn microkernel_impl(
        a: Lhs,
        bpanel: &[f32],
        c: &mut [f32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        // Row `r` of the tile starts here; rows past the ragged edge repeat
        // the last valid one, so every read below stays inside the tile
        // `assert_covers` vouched for.
        let mut row = [a.data.as_ptr(); MR];
        for (start, &offset) in row.iter_mut().zip(a.rows) {
            *start = start.add(offset);
        }
        let bpp = bpanel.as_ptr();
        for (p, &step) in a.koff.iter().enumerate() {
            let b0 = _mm256_loadu_ps(bpp.add(p * NR));
            let b1 = _mm256_loadu_ps(bpp.add(p * NR + 8));
            for (row_acc, start) in acc.iter_mut().zip(row) {
                let ar = _mm256_set1_ps(*start.add(step));
                row_acc[0] = _mm256_fmadd_ps(ar, b0, row_acc[0]);
                row_acc[1] = _mm256_fmadd_ps(ar, b1, row_acc[1]);
            }
        }
        if tile_rows == MR && cols == NR {
            // Full tile: vector read-modify-write straight into C.
            for (r, row_acc) in acc.iter().enumerate() {
                let crow = c.as_mut_ptr().add(r * ldc);
                _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), row_acc[0]));
                _mm256_storeu_ps(
                    crow.add(8),
                    _mm256_add_ps(_mm256_loadu_ps(crow.add(8)), row_acc[1]),
                );
            }
        } else {
            // Ragged edge: spill the tile and add the valid region scalar-wise.
            let mut spill = [0.0f32; MR * NR];
            for (r, row_acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(spill.as_mut_ptr().add(r * NR), row_acc[0]);
                _mm256_storeu_ps(spill.as_mut_ptr().add(r * NR + 8), row_acc[1]);
            }
            for r in 0..tile_rows {
                let crow = &mut c[r * ldc..r * ldc + cols];
                for (o, &v) in crow.iter_mut().zip(&spill[r * NR..r * NR + cols]) {
                    *o += v;
                }
            }
        }
    }

    /// Safe entry point matching [`super::SmallKernelFn`]; reachable only
    /// through [`super::avx2_kernel`], like [`microkernel`].
    pub(super) fn small(a: Lhs, b: &[f32], c: &mut [f32], n: usize, tile_rows: usize, cols: usize) {
        a.assert_covers();
        assert!(a.rows.len() == SMALL_MR && (1..=SMALL_MR).contains(&tile_rows));
        assert!((1..=NR).contains(&cols) && b.len() >= (a.koff.len() - 1) * n + cols);
        assert!(c.len() >= (tile_rows - 1) * n + cols);
        // SAFETY: AVX2 is present (see above). The asserts are what
        // `small_impl` requires of its caller.
        unsafe { small_impl(a, b, c, n, tile_rows, cols) }
    }

    /// Lane masks of the two `ymm` halves of a `cols`-wide row.
    #[target_feature(enable = "avx2")]
    fn tail(cols: usize) -> [__m256i; 2] {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let cols = _mm256_set1_epi32(cols as i32);
        [
            _mm256_cmpgt_epi32(cols, lanes),
            _mm256_cmpgt_epi32(cols, _mm256_add_epi32(lanes, _mm256_set1_epi32(8))),
        ]
    }

    /// # Safety
    ///
    /// The host must support AVX2; `a` must cover its tile
    /// ([`Lhs::assert_covers`]) with `SMALL_MR` row offsets and
    /// `1 <= tile_rows <= SMALL_MR`; `b` must hold `(kc - 1) * n + cols`
    /// values for `kc = a.koff.len()`, and `c` `(tile_rows - 1) * n + cols`,
    /// with `1 <= cols <= NR`.
    #[target_feature(enable = "avx2")]
    unsafe fn small_impl(
        a: Lhs,
        b: &[f32],
        c: &mut [f32],
        n: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        // The masked loads and stores touch no lane at or past `cols`, so a
        // half past the end of a row is never read or written.
        let [lo, hi] = tail(cols);
        let mut acc = [[_mm256_setzero_ps(); 2]; SMALL_MR];
        let mut row = [a.data.as_ptr(); SMALL_MR];
        for (start, &offset) in row.iter_mut().zip(a.rows) {
            *start = start.add(offset);
        }
        let bp = b.as_ptr();
        for (p, &step) in a.koff.iter().enumerate() {
            let at = bp.add(p * n);
            let b0 = _mm256_maskload_ps(at, lo);
            let b1 = _mm256_maskload_ps(at.wrapping_add(8), hi);
            for (row_acc, start) in acc.iter_mut().zip(row) {
                // A multiply, then an add: the scalar loop's two roundings.
                let ar = _mm256_set1_ps(*start.add(step));
                row_acc[0] = _mm256_add_ps(row_acc[0], _mm256_mul_ps(ar, b0));
                row_acc[1] = _mm256_add_ps(row_acc[1], _mm256_mul_ps(ar, b1));
            }
        }
        for (r, row_acc) in acc.iter().enumerate().take(tile_rows) {
            let crow = c.as_mut_ptr().add(r * n);
            _mm256_maskstore_ps(crow, lo, row_acc[0]);
            _mm256_maskstore_ps(crow.wrapping_add(8), hi, row_acc[1]);
        }
    }
}

/// AVX-512F micro-kernel: an 8×16 register tile, one `zmm` accumulator per
/// row, selected at runtime on x86-64 hosts that report AVX-512F. Each
/// element runs the AVX2 kernel's chain — one FMA per shared index,
/// ascending within a [`super::KC`] block, from zero, added into C once per
/// block — so the two kernels write the same bits. Its small-product tile
/// is 8×16 with a masked column tail.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Lhs;
    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };

    /// Register-tile rows of the AVX-512 kernel.
    pub(super) const MR: usize = 8;
    /// Register-tile columns (one 16-lane `zmm` per row).
    pub(super) const NR: usize = 16;
    /// Register-tile rows of the AVX-512 small-product tile.
    pub(super) const SMALL_MR: usize = 8;
    const _: () = assert!(MR <= super::MAX_MR && SMALL_MR <= super::MAX_MR);

    /// The lanes of a `cols`-wide row.
    fn tail(cols: usize) -> __mmask16 {
        if cols == NR {
            !0
        } else {
            (1 << cols) - 1
        }
    }

    /// Safe entry point matching [`super::MicroKernelFn`].
    ///
    /// Only reachable through [`super::avx512_kernel`], which verifies
    /// AVX-512F before handing out this function pointer, so the
    /// `target_feature` call below is sound.
    pub(super) fn microkernel(
        a: Lhs,
        bpanel: &[f32],
        c: &mut [f32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        a.assert_covers();
        assert!(a.rows.len() == MR && (1..=MR).contains(&tile_rows) && (1..=NR).contains(&cols));
        assert!(bpanel.len() >= a.koff.len() * NR);
        assert!(c.len() >= (tile_rows - 1) * ldc + cols);
        // SAFETY: AVX-512F is present (see above). The asserts are what
        // `microkernel_impl` requires of its caller.
        unsafe { microkernel_impl(a, bpanel, c, ldc, tile_rows, cols) }
    }

    /// # Safety
    ///
    /// The host must support AVX-512F; `a` must cover its tile
    /// ([`Lhs::assert_covers`]) with `MR` row offsets and
    /// `1 <= tile_rows <= MR`; `bpanel` must hold `kc * NR` values for
    /// `kc = a.koff.len()`; and `c` must hold `(tile_rows - 1) * ldc + cols`
    /// with `1 <= cols <= NR`.
    #[target_feature(enable = "avx512f")]
    unsafe fn microkernel_impl(
        a: Lhs,
        bpanel: &[f32],
        c: &mut [f32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        let mut acc = [_mm512_setzero_ps(); MR];
        let mut row = [a.data.as_ptr(); MR];
        for (start, &offset) in row.iter_mut().zip(a.rows) {
            *start = start.add(offset);
        }
        let bpp = bpanel.as_ptr();
        for (p, &step) in a.koff.iter().enumerate() {
            let bv = _mm512_loadu_ps(bpp.add(p * NR));
            for (row_acc, start) in acc.iter_mut().zip(row) {
                *row_acc = _mm512_fmadd_ps(_mm512_set1_ps(*start.add(step)), bv, *row_acc);
            }
        }
        // C plus the block's sum, as the AVX2 kernel adds them; the masked
        // lanes past `cols` are neither read nor written.
        let mask = tail(cols);
        for (r, row_acc) in acc.iter().enumerate().take(tile_rows) {
            let crow = c.as_mut_ptr().add(r * ldc);
            let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, crow), *row_acc);
            _mm512_mask_storeu_ps(crow, mask, sum);
        }
    }

    /// Safe entry point matching [`super::SmallKernelFn`]; reachable only
    /// through [`super::avx512_kernel`], like [`microkernel`].
    pub(super) fn small(a: Lhs, b: &[f32], c: &mut [f32], n: usize, tile_rows: usize, cols: usize) {
        a.assert_covers();
        assert!(a.rows.len() == SMALL_MR && (1..=SMALL_MR).contains(&tile_rows));
        assert!((1..=NR).contains(&cols) && b.len() >= (a.koff.len() - 1) * n + cols);
        assert!(c.len() >= (tile_rows - 1) * n + cols);
        // SAFETY: AVX-512F is present (see above). The asserts are what
        // `small_impl` requires of its caller.
        unsafe { small_impl(a, b, c, n, tile_rows, cols) }
    }

    /// # Safety
    ///
    /// The host must support AVX-512F; `a` must cover its tile
    /// ([`Lhs::assert_covers`]) with `SMALL_MR` row offsets and
    /// `1 <= tile_rows <= SMALL_MR`; `b` must hold `(kc - 1) * n + cols`
    /// values for `kc = a.koff.len()`, and `c` `(tile_rows - 1) * n + cols`,
    /// with `1 <= cols <= NR`.
    #[target_feature(enable = "avx512f")]
    unsafe fn small_impl(
        a: Lhs,
        b: &[f32],
        c: &mut [f32],
        n: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        let mask = tail(cols);
        let mut acc = [_mm512_setzero_ps(); SMALL_MR];
        let mut row = [a.data.as_ptr(); SMALL_MR];
        for (start, &offset) in row.iter_mut().zip(a.rows) {
            *start = start.add(offset);
        }
        let bp = b.as_ptr();
        for (p, &step) in a.koff.iter().enumerate() {
            let bv = _mm512_maskz_loadu_ps(mask, bp.add(p * n));
            for (row_acc, start) in acc.iter_mut().zip(row) {
                // A multiply, then an add: the scalar loop's two roundings.
                let term = _mm512_mul_ps(_mm512_set1_ps(*start.add(step)), bv);
                *row_acc = _mm512_add_ps(*row_acc, term);
            }
        }
        for (r, row_acc) in acc.iter().enumerate().take(tile_rows) {
            _mm512_mask_storeu_ps(c.as_mut_ptr().add(r * n), mask, *row_acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2dGeometry, Layout};

    /// Textbook reference product, deliberately unblocked and skip-free.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, op: Op) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += op.a_at(a, i, p, m, k) * op.b_at(b, p, j, k, n);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    fn assert_close(lhs: &[f32], rhs: &[f32], tol: f32) {
        assert_eq!(lhs.len(), rhs.len());
        for (i, (x, y)) in lhs.iter().zip(rhs).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// Every kernel this host can execute, named. `kernel_config` hands
    /// out only the widest, so only tests that iterate this list run the
    /// others.
    fn kernels() -> Vec<(&'static str, KernelConfig)> {
        let mut all = vec![("portable", PORTABLE_KERNEL)];
        all.extend(avx2_kernel().map(|cfg| ("avx2", cfg)));
        all.extend(avx512_kernel().map(|cfg| ("avx512", cfg)));
        all
    }

    #[test]
    fn the_sweeps_name_the_kernels_this_host_runs() {
        // Printed under `--nocapture`, so a host without AVX-512F (or AVX2)
        // says which sweeps it did not run instead of passing silently.
        let ran: Vec<&str> = kernels().iter().map(|(name, _)| *name).collect();
        let skipped: Vec<&str> = ["portable", "avx2", "avx512"]
            .into_iter()
            .filter(|name| !ran.contains(name))
            .collect();
        println!(
            "f32 micro-kernels exercised: {}; not on this host: {}",
            ran.join(", "),
            if skipped.is_empty() {
                "none".to_string()
            } else {
                skipped.join(", ")
            }
        );
        assert_eq!(ran[0], "portable");
    }

    const LAYOUTS: [Op; 3] = [Op::Nn, Op::Tn, Op::Nt];

    /// The blocked kernel under an explicit config, whatever `k·n` is:
    /// output rows `rows` of the product, computed as one band.
    fn blocked(
        cfg: KernelConfig,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        op: Op,
        rows: std::ops::Range<usize>,
    ) -> Vec<f32> {
        let bp = pack_b(b, k, n, op, cfg.nr);
        let mut band = vec![0.0f32; rows.len() * n];
        let walk = op.walk(m, k);
        gemm_band(
            a,
            walk,
            &walk.k_offsets(),
            &bp,
            rows.start,
            n,
            cfg,
            &mut band,
        );
        band
    }

    /// The routine `gemm_band` used until the micro-kernels learned to read
    /// `A` in place, kept as the oracle: copy each `[mr x kc]` block of the
    /// left operand into a zero-padded panel, `kc` slivers of `mr` row
    /// values, and multiply from the copy.
    fn blocked_from_packed_a(
        cfg: KernelConfig,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        op: Op,
    ) -> Vec<f32> {
        let (mr, nr) = (cfg.mr, cfg.nr);
        let bp = pack_b(b, k, n, op, nr);
        let mut band = vec![0.0f32; m * n];
        let row_panels = m.div_ceil(mr);
        let mut apack = vec![0.0f32; row_panels * KC.min(k) * mr];
        // A packed panel's row `r` starts at `r`, step `p` lies `p·mr` on.
        let rows: Vec<usize> = (0..mr).collect();
        let koff: Vec<usize> = (0..KC).map(|p| p * mr).collect();
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            for ir in 0..row_panels {
                let panel = &mut apack[ir * kc * mr..(ir + 1) * kc * mr];
                for p in 0..kc {
                    for r in 0..mr {
                        let i = ir * mr + r;
                        panel[p * mr + r] = if i < m {
                            op.a_at(a, i, pc + p, m, k)
                        } else {
                            0.0
                        };
                    }
                }
            }
            for jp in 0..n.div_ceil(nr) {
                let bpanel = &bp[jp * k * nr + pc * nr..jp * k * nr + (pc + kc) * nr];
                let j0 = jp * nr;
                for ir in 0..row_panels {
                    let apanel = Lhs {
                        rows: &rows,
                        ..Lhs::block(&apack[ir * kc * mr..(ir + 1) * kc * mr], &koff[..kc])
                    };
                    let r0 = ir * mr;
                    (cfg.micro)(
                        apanel,
                        bpanel,
                        &mut band[r0 * n + j0..],
                        n,
                        mr.min(m - r0),
                        nr.min(n - j0),
                    );
                }
            }
            pc += kc;
        }
        band
    }

    #[test]
    fn reading_a_in_place_equals_multiplying_from_a_packed_copy_bit_for_bit() {
        // Row counts around both tile heights (4, 6) and the band height,
        // depths around the conv stem's 144 and the KC block, widths around
        // both tile widths (8, 16).
        for (name, cfg) in kernels() {
            for m in [1, 5, 6, 7, 127, 128, 129] {
                for k in [1, 143, 144, KC, KC + 7] {
                    for n in [1, 15, 16, 17, 33] {
                        let a = pseudo(m * k, (m * 31 + k) as u64);
                        let b = pseudo(k * n, (k * 17 + n) as u64);
                        for op in LAYOUTS {
                            let dims = (m, k, n);
                            let got = blocked(cfg, &a, &b, dims, op, 0..m);
                            let packed = blocked_from_packed_a(cfg, &a, &b, dims, op);
                            assert_eq!(got, packed, "{name} {op:?} {m}x{k}x{n}");
                            assert_close(&got, &reference(&a, &b, m, k, n, op), 1e-3);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_ragged_transposed_panel_stops_at_the_last_row_of_the_last_step() {
        // `Aᵀ` stored `[k,m]`: row `i` at step `p` is `a[p*m + i]`, so the
        // rows a ragged last panel lacks would, at `p = k-1`, lie past the
        // end of the slice. They must alias the last valid row instead.
        for (name, cfg) in kernels() {
            for m in [1, cfg.mr + 1, 2 * cfg.mr - 1] {
                let (k, n) = (3, cfg.nr);
                let a = pseudo(k * m, 21);
                let b = pseudo(k * n, 22);
                let got = blocked(cfg, &a, &b, (m, k, n), Op::Tn, 0..m);
                let packed = blocked_from_packed_a(cfg, &a, &b, (m, k, n), Op::Tn);
                assert_eq!(got, packed, "{name} m={m}");
                assert_close(&got, &reference(&a, &b, m, k, n, Op::Tn), 1e-5);
            }
        }
    }

    #[test]
    fn a_row_is_the_same_alone_or_inside_a_batch_under_either_kernel() {
        // The engine's guarantee, at the conv stem's shape: coalescing
        // requests into one product never changes a row's bits.
        let (m, k, n) = (32, 144, 16);
        let a = pseudo(m * k, 23);
        let b = pseudo(n * k, 24);
        for (name, cfg) in kernels() {
            let batch = blocked(cfg, &a, &b, (m, k, n), Op::Nt, 0..m);
            for i in 0..m {
                let alone = blocked(cfg, &a[i * k..(i + 1) * k], &b, (1, k, n), Op::Nt, 0..1);
                assert_eq!(alone, batch[i * n..(i + 1) * n], "{name} row {i}");
            }
        }
    }

    #[test]
    fn band_boundaries_do_not_change_a_bit_in_any_layout() {
        // Ragged everywhere: 3 MC bands with a 44-row tail, two KC blocks.
        let (m, k, n) = (2 * MC + 44, KC + 9, 37);
        let a = pseudo(m * k, 25);
        let b = pseudo(k * n, 26);
        for op in LAYOUTS {
            for (name, cfg) in kernels() {
                let whole = blocked(cfg, &a, &b, (m, k, n), op, 0..m);
                let banded: Vec<f32> = (0..m)
                    .step_by(MC)
                    .flat_map(|r0| blocked(cfg, &a, &b, (m, k, n), op, r0..m.min(r0 + MC)))
                    .collect();
                assert_eq!(whole, banded, "{name} {op:?}");
            }
            let run = |par| gemm_matrix(&a, &b, m, k, n, op, par, GemmEpilogue::none());
            assert_eq!(
                run(Parallelism::Serial),
                run(Parallelism::Parallel),
                "{op:?} serial vs pool"
            );
        }
    }

    /// The bits of `values`, so that `-0.0` and `+0.0` differ.
    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_halo_product_equals_im2col_then_gemm_nt_fused_under_every_kernel() {
        // Every geometry of kernel {1,3} x stride {1,2} x padding {0,1,2};
        // 33 channels x 9 taps = 297 > KC, so a cache block ends inside a
        // window (and, pixel-major, a block's largest k offset is not its
        // last); 1 channel against 1-40 outputs stays under
        // SMALL_THRESHOLD; 17 and 40 outputs leave ragged panels in both
        // kernels; non-square extents give row counts no tile height
        // divides; batch 0 is the empty product; the three epilogues rotate.
        // The halo holds the input NCHW and pixel-major, and the product
        // runs as `conv_fused` and as `conv_map` with a band epilogue that
        // also adds each value's product row, so a band handed the wrong
        // `row0` shows.
        let geometries = [1, 3].into_iter().flat_map(|k| {
            [1, 2]
                .into_iter()
                .flat_map(move |s| [0, 1, 2].map(|p| Conv2dGeometry::new(k, s, p)))
        });
        let mut seed = 0;
        for (name, cfg) in kernels() {
            for geom in geometries.clone() {
                for c in [1, 3, 16, 33] {
                    for n in [1, 16, 17, 40] {
                        seed += 1;
                        let weight = pseudo(n * c * geom.kernel * geom.kernel, seed);
                        let bias = pseudo(n, seed + 7);
                        let ep = GemmEpilogue {
                            bias: (seed % 3 != 1).then_some(bias.as_slice()),
                            relu: seed % 3 != 0,
                        };
                        let mapped = |row0: usize, band: &mut [f32]| {
                            apply_epilogue(band, n, &ep);
                            for (i, v) in band.iter_mut().enumerate() {
                                *v += (row0 + i / n) as f32;
                            }
                        };
                        for (h, w) in [(1, 1), (2, 5), (5, 2), (4, 7), (9, 3)] {
                            if h.min(w) + 2 * geom.padding < geom.kernel {
                                continue;
                            }
                            for b in 0..4 {
                                let x = pseudo(b * c * h * w, seed * 31 + (h * 10 + w) as u64);
                                let par = if b == 3 {
                                    Parallelism::Parallel
                                } else {
                                    Parallelism::Serial
                                };
                                let image = crate::Tensor::from_vec(x.clone(), &[b, c, h, w])
                                    .expect("sized to the shape");
                                let cols = crate::im2col(&image, geom);
                                let (m, k) = (cols.shape()[0], cols.shape()[1]);
                                let walk = Op::Nt.walk(m, k);
                                let want = gemm_impl(
                                    cfg,
                                    cols.data(),
                                    walk,
                                    &weight,
                                    n,
                                    Op::Nt,
                                    par,
                                    |_, band: &mut [f32]| apply_epilogue(band, n, &ep),
                                );
                                let mut want_mapped = want.clone();
                                for (i, v) in want_mapped.iter_mut().enumerate() {
                                    *v += (i / n) as f32;
                                }
                                let pixels: Vec<f32> = (0..x.len())
                                    .map(|i| {
                                        let (img, p, ch) =
                                            (i / (c * h * w), i / c % (h * w), i % c);
                                        x[(img * c + ch) * h * w + p]
                                    })
                                    .collect();
                                let plane = h * w;
                                let inputs = [
                                    (&x, Layout::nchw(c, plane)),
                                    (&pixels, Layout::pixel_major(c, plane)),
                                ];
                                for (x, layout) in inputs {
                                    let what = format!(
                                        "{name} {geom:?} {b}x{c}x{h}x{w} -> {n}, {layout:?}"
                                    );
                                    let halo = Halo::lower(x, layout, [b, c, h, w], geom);
                                    let got = conv_with(cfg, &halo, &weight, n, par, ep);
                                    assert_eq!(bits(&got), bits(&want), "{what}");
                                    let got = conv_map_with(cfg, &halo, &weight, n, par, mapped);
                                    assert_eq!(bits(&got), bits(&want_mapped), "map {what}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_tile_reading_past_its_halo_is_refused_before_any_read() {
        // Rows 0 and 4 of a 12-element operand, k offsets 0, 3 and 8: the
        // last step of row 4 is element 4 + 8 = 12, one past the end. The
        // same offsets with the farthest in the middle, as a pixel-major
        // window's table has it: still refused.
        let data = [0.0f32; 12];
        for koff in [[0, 3, 8], [0, 8, 3]] {
            for (name, cfg) in kernels() {
                let mut rows = vec![4; cfg.mr];
                rows[0] = 0;
                let tile = Lhs {
                    rows: &rows,
                    ..Lhs::block(&data, &koff)
                };
                let read = std::panic::catch_unwind(|| {
                    let mut c = vec![0.0f32; cfg.nr];
                    (cfg.micro)(tile, &vec![0.0; 3 * cfg.nr], &mut c, cfg.nr, 2, cfg.nr);
                });
                assert_refused(read, name);
                // The small-product tile, over the same rows and k offsets.
                let mut rows = vec![4; cfg.small_mr];
                rows[0] = 0;
                let tile = Lhs {
                    rows: &rows,
                    ..tile
                };
                let read = std::panic::catch_unwind(|| {
                    let n = cfg.nr;
                    let mut c = vec![0.0f32; 2 * n];
                    (cfg.small)(tile, &vec![0.0; 3 * n], &mut c, n, 2, n);
                });
                assert_refused(read, name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "an lhs tile runs past its operand")]
    fn a_tile_is_bounded_by_its_largest_k_offset_not_its_last() {
        // A 12-element operand, rows at 0 and 4, k offsets 0, 8, 3: only
        // the middle offset reaches past the end (4 + 8 = 12), and the
        // last (4 + 3 = 7) stays inside. A check by the last offset would
        // let the kernel read element 12.
        let (data, koff) = ([0.0f32; 12], [0, 8, 3]);
        let cfg = kernel_config();
        let mut rows = vec![4; cfg.mr];
        rows[0] = 0;
        let tile = Lhs {
            rows: &rows,
            ..Lhs::block(&data, &koff)
        };
        let mut c = vec![0.0f32; cfg.nr];
        (cfg.micro)(tile, &vec![0.0; 3 * cfg.nr], &mut c, cfg.nr, 2, cfg.nr);
    }

    #[test]
    #[should_panic(expected = "lhs k offsets must be distinct")]
    fn a_walk_whose_taps_alias_is_refused() {
        // Two channels no distance apart would read one element twice.
        let mut walk = Walk::matrix(1, 2, 2, 1);
        walk.channel = 0;
        let _ = walk.k_offsets();
    }

    fn assert_refused(read: std::thread::Result<()>, name: &str) {
        let refusal = read.expect_err(name);
        let message = refusal
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| refusal.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("an lhs tile runs past its operand"), "{name}");
    }

    #[test]
    fn the_blocked_kernels_propagate_zero_times_non_finite() {
        // `zero_times_nan_propagates` below is a 2x2 product, i.e. the small
        // path. The same law on the blocked path, including the rows a
        // ragged panel re-reads: a zero left operand against NaN / ∞.
        let (m, k, n) = (7, 40, 17);
        let a = vec![0.0f32; m * k];
        let mut b = pseudo(k * n, 27);
        for j in 0..n {
            b[(j % k) * n + j] = if j % 2 == 0 { f32::NAN } else { f32::INFINITY };
        }
        for (name, cfg) in kernels() {
            for v in blocked(cfg, &a, &b, (m, k, n), Op::Nn, 0..m) {
                assert!(
                    v.is_nan(),
                    "{name}: 0 x NaN / 0 x inf must yield NaN, got {v}"
                );
            }
        }
    }

    /// The small product's oracle: each output element `0.0 + a·b + a·b
    /// ...` over `p` ascending, one rounding per product and per sum, then
    /// the epilogue as separate passes.
    fn naive(
        a_at: impl Fn(usize, usize) -> f32,
        b_at: impl Fn(usize, usize) -> f32,
        (m, k, n): (usize, usize, usize),
        ep: GemmEpilogue,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_at(i, p) * b_at(p, j);
                }
                out[i * n + j] = acc;
            }
        }
        separate_passes(out, n, ep.bias, ep.relu)
    }

    /// `pseudo` with every `every`-th value replaced by NaN, +inf or -inf
    /// in turn (none when `every` is 0).
    fn poisoned(len: usize, seed: u64, every: usize) -> Vec<f32> {
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut values = pseudo(len, seed);
        if every > 0 {
            for (i, v) in values.iter_mut().enumerate().skip(every / 2).step_by(every) {
                *v = poison[i % 3];
            }
        }
        values
    }

    /// [`bits`], with every NaN one value: where two NaNs meet in a sum,
    /// IEEE 754 leaves open whose sign and payload survive, and the
    /// compiler may swap an add's operands.
    fn bits_any_nan(values: &[f32]) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        values
            .iter()
            .map(|v| if v.is_nan() { nan } else { v.to_bits() })
            .collect()
    }

    #[test]
    fn the_small_product_is_a_naive_multiply_then_add_under_every_kernel() {
        // Row counts around the tile heights (4, 8) and past a run of MC
        // rows, widths around 8 and 16 with ragged tails (the shapes the
        // 4x8, 4x16 and 8x16 register tiles split unevenly), and every
        // depth below SMALL_THRESHOLD. The epilogues and the poisoning
        // rotate.
        fn epilogue(seed: u64, bias: &[f32]) -> GemmEpilogue<'_> {
            GemmEpilogue {
                bias: (seed % 4 >= 2).then_some(bias),
                relu: seed % 2 == 1,
            }
        }
        let mut seed = 0;
        let mut next = |n: usize| {
            seed += 1;
            (seed, pseudo(n, seed), [0, 37, 0, 53][seed as usize % 4])
        };
        let widths = [1, 7, 8, 9, 10, 16, 17, 32];
        for (name, cfg) in kernels() {
            for n in widths {
                for k in (1..).take_while(|k| k * n < SMALL_THRESHOLD) {
                    for m in [0, 1, 3, 4, 5, 7, 8, 9, 13, 17, 129] {
                        let (seed, bias, every) = next(n);
                        let ep = epilogue(seed, &bias);
                        let a = poisoned(m * k, seed, every);
                        let b = poisoned(k * n, seed + 1, every);
                        let op = LAYOUTS[seed as usize % 3];
                        let walk = op.walk(m, k);
                        let par = Parallelism::Serial;
                        let ep_band = |_, band: &mut [f32]| apply_epilogue(band, n, &ep);
                        let got = gemm_impl(cfg, &a, walk, &b, n, op, par, ep_band);
                        let want = naive(
                            |i, p| op.a_at(&a, i, p, m, k),
                            |p, j| op.b_at(&b, p, j, k, n),
                            (m, k, n),
                            ep,
                        );
                        assert_eq!(
                            bits_any_nan(&got),
                            bits_any_nan(&want),
                            "{name} {op:?} {m}x{k}x{n}"
                        );
                    }
                }
                // The halo walk: 3x3 "same" convolutions of c channels whose
                // row counts cover the same heights.
                let geometry = Conv2dGeometry::new(3, 1, 1);
                for c in (1..).take_while(|c| 9 * c * n < SMALL_THRESHOLD) {
                    for (b, h, w) in [
                        (0, 2, 2),
                        (1, 1, 1),
                        (1, 1, 3),
                        (1, 2, 2),
                        (1, 1, 5),
                        (3, 1, 43),
                    ] {
                        let (seed, bias, every) = next(n);
                        let ep = epilogue(seed, &bias);
                        let k = 9 * c;
                        let x = poisoned(b * c * h * w, seed, every);
                        let weight = poisoned(n * k, seed + 1, every);
                        let halo = Halo::lower(&x, Layout::nchw(c, h * w), [b, c, h, w], geometry);
                        let got = conv_with(cfg, &halo, &weight, n, Parallelism::Parallel, ep);
                        let image = crate::Tensor::from_vec(x, &[b, c, h, w]).expect("sized");
                        let cols = crate::im2col(&image, geometry);
                        let want = naive(
                            |i, p| cols.data()[i * k + p],
                            |p, j| weight[j * k + p],
                            (b * h * w, k, n),
                            ep,
                        );
                        assert_eq!(
                            bits_any_nan(&got),
                            bits_any_nan(&want),
                            "{name} halo {b}x{c}x{h}x{w} -> {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_avx512_and_avx2_blocked_kernels_write_the_same_bits() {
        // The same FMA chain per element in a 12x16 and a 6x16 tile: depths
        // around the KC block, widths around the 16-column panel, and row
        // counts that leave both tile heights ragged.
        let (Some(wide), Some(narrow)) = (avx512_kernel(), avx2_kernel()) else {
            println!("avx512 vs avx2 blocked kernels: not both on this host, not compared");
            return;
        };
        for n in [1, 16, 17, 32, 40] {
            for k in [255, 256, 257, 600] {
                for m in [1, 5, 7, 12, 13, 25, 130] {
                    let a = pseudo(m * k, (m * 7 + k) as u64);
                    let b = pseudo(k * n, (k * 3 + n) as u64);
                    for op in LAYOUTS {
                        let dims = (m, k, n);
                        assert_eq!(
                            bits(&blocked(wide, &a, &b, dims, op, 0..m)),
                            bits(&blocked(narrow, &a, &b, dims, op, 0..m)),
                            "{op:?} {m}x{k}x{n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_matches_reference_above_small_threshold() {
        // 41*43 > SMALL_THRESHOLD, with ragged MR/NR edges.
        let (m, k, n) = (40, 41, 43);
        let a = pseudo(m * k, 1);
        let b = pseudo(k * n, 2);
        let got = gemm_nn_with(&a, &b, m, k, n, Parallelism::Serial);
        assert_close(&got, &reference(&a, &b, m, k, n, Op::Nn), 1e-4);
    }

    #[test]
    fn parallel_path_matches_serial_path() {
        let (m, k, n) = (70, 33, 37); // k*n above SMALL_THRESHOLD: blocked path
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let serial = gemm_nn_with(&a, &b, m, k, n, Parallelism::Serial);
        let parallel = gemm_nn_with(&a, &b, m, k, n, Parallelism::Parallel);
        assert_eq!(serial, parallel, "band split must not change results");
    }

    #[test]
    fn kc_blocking_accumulates_across_blocks() {
        // k > KC forces at least two KC blocks accumulating into one tile.
        let (m, k, n) = (5, KC + 7, 9);
        let a = pseudo(m * k, 5);
        let b = pseudo(k * n, 6);
        let got = gemm_nn_with(&a, &b, m, k, n, Parallelism::Serial);
        assert_close(&got, &reference(&a, &b, m, k, n, Op::Nn), 1e-3);
    }

    #[test]
    fn transposed_variants_match_reference() {
        let (m, k, n) = (37, 33, 41); // k*n above SMALL_THRESHOLD: blocked path
        let at = pseudo(k * m, 7);
        let b = pseudo(k * n, 8);
        let got = gemm_tn_with(&at, &b, k, m, n, Parallelism::Parallel);
        assert_close(&got, &reference(&at, &b, m, k, n, Op::Tn), 1e-4);

        let a = pseudo(m * k, 9);
        let bt = pseudo(n * k, 10);
        let got = gemm_nt_with(&a, &bt, m, k, n, Parallelism::Parallel);
        assert_close(&got, &reference(&a, &bt, m, k, n, Op::Nt), 1e-4);
    }

    #[test]
    fn zero_times_nan_propagates() {
        // Regression for the old `if a_ip == 0.0 { continue; }` shortcut:
        // a zero lhs row must still pick up NaN/inf from the rhs.
        let a = vec![0.0f32; 4]; // [2,2] of zeros
        let b = vec![f32::NAN, f32::INFINITY, f32::INFINITY, f32::NAN];
        for v in gemm_nn(&a, &b, 2, 2, 2) {
            assert!(v.is_nan(), "0 x NaN / 0 x inf must yield NaN, got {v}");
        }
    }

    #[test]
    fn empty_dimensions_yield_zero_filled_output() {
        assert_eq!(gemm_nn(&[], &[], 0, 0, 0), Vec::<f32>::new());
        assert_eq!(gemm_nn(&[], &[], 2, 0, 3), vec![0.0; 6]);
    }

    /// The unfused equivalent of the epilogue: bias pass, then mask-multiply
    /// ReLU pass, exactly as the eager layer stack performs them.
    fn separate_passes(mut out: Vec<f32>, n: usize, bias: Option<&[f32]>, relu: bool) -> Vec<f32> {
        for row in out.chunks_exact_mut(n) {
            if let Some(bias) = bias {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
        if relu {
            for o in out.iter_mut() {
                let mask = if *o > 0.0 { 1.0 } else { 0.0 };
                *o *= mask;
            }
        }
        out
    }

    #[test]
    fn fused_epilogue_is_bit_exact_on_every_code_path() {
        // Sizes straddling SMALL_THRESHOLD and the parallel band split; the
        // fused result must be bit-identical to GEMM + separate passes on all
        // of them.
        for &(m, k, n) in &[(3usize, 5usize, 7usize), (40, 41, 43), (70, 160, 96)] {
            let a = pseudo(m * k, 11);
            let bt = pseudo(n * k, 13);
            let bias = pseudo(n, 14);
            for par in [Parallelism::Serial, Parallelism::Parallel] {
                for (biased, relu) in [(false, true), (true, false), (true, true)] {
                    let ep = GemmEpilogue {
                        bias: biased.then_some(bias.as_slice()),
                        relu,
                    };
                    let fused = gemm_nt_fused(&a, &bt, m, k, n, par, ep);
                    let eager =
                        separate_passes(gemm_nt_with(&a, &bt, m, k, n, par), n, ep.bias, relu);
                    assert_eq!(
                        fused, eager,
                        "nt {m}x{k}x{n} {par:?} bias={biased} relu={relu}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_relu_mirrors_the_mask_multiply_semantics() {
        // The eager Relu layer computes `x * (x > 0 ? 1 : 0)`: negatives
        // become -0.0 and NaN survives. The fused epilogue must match, or
        // fused-vs-eager bit-exactness breaks on those payloads.
        let a = [1.0f32, 0.0, -1.0, 0.0]; // [2,2]
        let bt = [-3.0f32, 0.0, f32::NAN, 0.0]; // [n=2, k=2]: columns of b = [[-3, NaN], [0, 0]]
        let ep = GemmEpilogue {
            bias: None,
            relu: true,
        };
        let fused = gemm_nt_fused(&a, &bt, 2, 2, 2, Parallelism::Serial, ep);
        // Row 0: [-3, NaN] -> [-0.0, NaN]; row 1: [3, NaN] -> [3, NaN].
        assert!(fused[0] == 0.0 && fused[0].is_sign_negative(), "{fused:?}");
        assert!(fused[1].is_nan());
        assert_eq!(fused[2], 3.0);
        assert!(fused[3].is_nan());
    }

    #[test]
    #[should_panic(expected = "epilogue bias length must be n")]
    fn fused_rejects_mismatched_bias() {
        let bias = [1.0f32; 3];
        let _ = gemm_nt_fused(
            &[1.0; 4],
            &[1.0; 4],
            2,
            2,
            2,
            Parallelism::Serial,
            GemmEpilogue {
                bias: Some(&bias),
                relu: false,
            },
        );
    }
}
