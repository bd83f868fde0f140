//! Packed, cache-blocked GEMM kernels behind every convolution.
//!
//! Three matrix products are public:
//!
//! * [`matmul`]     — `C = A (M×K) · B (K×N)`
//! * [`matmul_tn`]  — `C = Aᵀ (M×K stored as K×M) · B (K×N)`
//! * [`matmul_nt`]  — `C = A (M×K) · Bᵀ (N×K stored row-major)`
//!
//! [`matmul`] is the reference forward convolution's `W · cols`. The other
//! two are oracle-only: the reference backward (`conv::conv2d_backward`)
//! computes the weight gradient as `matmul_nt(gO, cols)` and the input
//! gradient's `Wᵀ · gO` as `matmul_tn(W, gO)`. Both copy the transposed
//! operand out explicitly and run [`matmul`]. No model calls any of them.
//! The models' convolutions run three crate-private products over a padded
//! image instead, each bit-identical to its oracle: `conv_product` (the
//! forward), `tap_product` (the input gradient) and `weight_grads` (the
//! weight and bias gradients).
//!
//! The GEMM driver behind all but the last:
//!
//! * The reduction dimension is blocked at `KC` so the packed panels stay
//!   cache-resident across the inner loops.
//! * Per block, `A` is packed into `MR`-row micro-panels laid out `k`-major
//!   (`apack[kk*MR + i]`), so the microkernel reads it as a contiguous
//!   stream; `B` is packed into `NR`-column stripes (`bstripe[kk*NR + j]`)
//!   the same way. `A`'s ragged last panel is zero-padded; a ragged `B`
//!   stripe keeps whatever its unused columns held, which the microkernel
//!   computes and nothing writes, so it has no edge branches.
//! * `B` is read through one *panel source* (`BSource`): a row-major matrix
//!   stored in memory, or the column matrix of a padded image that is
//!   **never built**. Each stripe is `kc` straight 32-float copies from
//!   the image (`crate::conv::PaddedImage::pack_stripe`) over its *output
//!   grid*: output rows `wq ≥ ow` columns wide, frames rounded up to whole
//!   stripes. For the forward the image is the input, one `K` block's
//!   channels at a time; for the input gradient it is the zero-padded `gO`
//!   of one stride phase, every channel at once. Either way the stripe holds
//!   exactly the values the stored matrix would at the columns the product
//!   writes, so every written element's multiply-add chain is the same.
//! * The input gradient's `K` is taps × output channels and is not blocked
//!   at `KC` (`Chains::Taps`): the tile keeps each input pixel's running sum
//!   over the taps, one fresh chain per tap, so each element is `0 + t₀ +
//!   t₁ + …` — what `col2im` adds from `Wᵀ · gO` — and is written once.
//! * The write-back (`Sink`) places each tile row's runs of output pixels:
//!   row-major for a plain matrix, NCHW for a convolution, skipping the
//!   grid's padding columns. The first `K` block stores `0.0 + acc`, later
//!   ones add `acc`, and the last then adds the bias, an optional residual
//!   and applies an optional ReLU — the additions a zeroed `C`, a bias
//!   pass, an add and `ops::relu` would make, in their order.
//! * The microkernel computes one `8×32` (`MR×NR`) tile of `C` from one
//!   panel and one stripe with a branch-free multiply-add per `kk`. Which
//!   kernel runs is decided once per product, from the CPU: AVX-512 holds
//!   the whole tile in sixteen 512-bit accumulators, AVX2 + FMA runs it as
//!   four `4×16` sub-tiles of eight 256-bit ones, and the portable kernel as
//!   `4×8` sub-tiles. All of them read the same packed panels and keep every
//!   element's multiply-add chain (`Microkernel`), so the two SIMD kernels
//!   give the same bits. (The seed kernel's data-dependent `aik == 0.0` skip
//!   is gone: it blocked vectorisation and made timing input-dependent.)
//! * Work is split across cores by disjoint `C` column stripes via
//!   [`crate::parallel::par_ranges`]; each worker packs its own `B` stripes
//!   and owns its columns of `C`, so no synchronisation is needed inside a
//!   block. `ST_THREADS` / [`crate::parallel::set_threads`] pin the core
//!   count.
//!
//! The weight gradient `gO · colsᵀ` runs transposed, as `cols · gOᵀ`: the
//! column rows are the broadcast side, read in place from the padded input
//! one output row's run at a time, and `gOᵀ` is packed once as the vector
//! side, lanes over output channels. Its tiles are written transposed into
//! `dW`; the chains, their `KC` blocks and the blocks' join are
//! `matmul_nt`'s.
//!
//! Accumulation order over `k` is identical for every output element across
//! block sizes, thread counts, batch widths, panel sources and SIMD
//! microkernels, so results are bit-for-bit reproducible — the batched
//! teacher forward relies on this to match per-frame forwards exactly, and
//! the column-free convolutions and their fused epilogues on it to match the
//! stored-matrix reference followed by separate passes.

use crate::conv::PaddedImage;
use crate::parallel;
use crate::{Result, Shape, Tensor, TensorError};

/// Cache block size over the reduction dimension.
pub(crate) const KC: usize = 256;
/// Microkernel tile rows (distinct broadcasts per `kk`).
const MR: usize = 8;
/// Microkernel tile columns: two 512-bit vectors, four 256-bit ones.
pub(crate) const NR: usize = 32;
/// The accumulator tile one microkernel call fills.
type Tile = [[f32; NR]; MR];
/// Minimum multiply-accumulate count before a GEMM splits across the lanes
/// ([`crate::parallel::par_ranges`]). Waking a parked lane and waiting for
/// it costs microseconds, so only products with roughly a millisecond of
/// work split: batched teacher forwards, and the largest convolutions of a
/// student's forward and training passes (a `small()` 64×48 `predict` has
/// two). The rest run on the calling thread alone.
const PAR_MIN_MACS: usize = 1 << 22;

/// How the `A` operand is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ALayout {
    /// `a[(i, kk)] = a[i*k + kk]` — `A` stored `(m, k)` row-major.
    RowMajor,
    /// Already in `MR`-row panels over the whole of `k`, `k`-major within
    /// each, the ragged last panel zero-padded: used as it is, in one `K`
    /// block.
    Packed,
}

/// `*mut f32` that may be shared with the lanes a GEMM splits onto.
/// Workers receive disjoint column ranges of the output, so concurrent
/// writes never alias.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: the pointer targets the caller-owned `out` buffer, which outlives
// the `par_ranges` call the workers run in (it returns once every range is
// done), and each worker writes only its own disjoint column range.
unsafe impl Send for SendPtr {}
// SAFETY: as above — shared access is read-only on the wrapper itself; all
// writes through the pointer are range-disjoint by construction.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor method (rather than field access) so closures capture the
    /// whole `Send + Sync` wrapper, not the bare `*mut f32` field.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Pack rows `[0, m)` of the `A` block `k ∈ [k0, k0+kc)` into `MR`-row
/// micro-panels, `k`-major within each panel, zero-padding the last panel.
fn pack_a(apack: &mut [f32], a: &[f32], layout: ALayout, m: usize, k: usize, k0: usize, kc: usize) {
    let panels = m.div_ceil(MR);
    apack[..panels * MR * kc].fill(0.0);
    match layout {
        ALayout::RowMajor => {
            for p in 0..panels {
                let i0 = p * MR;
                let rows = MR.min(m - i0);
                let base = p * MR * kc;
                for ii in 0..rows {
                    let src = &a[(i0 + ii) * k + k0..(i0 + ii) * k + k0 + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        apack[base + kk * MR + ii] = v;
                    }
                }
            }
        }
        ALayout::Packed => unreachable!("a packed `A` is not packed again"),
    }
}

/// Where [`gemm`] reads its `B` operand from. Every kind fills the same
/// `NR`-column stripes with the same values in the columns a product writes,
/// so the blocking, the microkernel and every written element's multiply-add
/// chain do not depend on which one a product uses. Columns a stripe holds
/// past the ones written keep whatever was there: they are computed and
/// dropped.
enum BSource<'a, 'i> {
    /// A `(k, n)` row-major matrix held in memory.
    Stored(&'a [f32]),
    /// `cols` over the output grid of a convolution input, reloaded per `K`
    /// block: each stripe row is one straight copy
    /// ([`PaddedImage::pack_stripe`]).
    Grid(&'a mut PaddedImage<'i>),
    /// The same over an image whose copy already holds every row's
    /// channels: the upstream gradient an input gradient reads.
    Loaded(&'a PaddedImage<'i>),
}

impl BSource<'_, '_> {
    /// Make `B`'s rows `[k0, k0+kc)` readable; only a grid reloads.
    fn load(&mut self, k0: usize, kc: usize) {
        if let BSource::Grid(image) = self {
            image.load(k0..k0 + kc);
        }
    }

    /// Pack the `B` stripe of columns `[j0, j0+cols)` for `k ∈ [k0, k0+kc)`
    /// into `bstripe[kk*NR + jj]`. `n` counts `B`'s columns.
    fn pack_stripe(
        &self,
        bstripe: &mut [f32],
        n: usize,
        k0: usize,
        kc: usize,
        j0: usize,
        cols: usize,
    ) {
        match self {
            BSource::Stored(b) => {
                for kk in 0..kc {
                    let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                    bstripe[kk * NR..kk * NR + cols].copy_from_slice(src);
                }
            }
            BSource::Grid(image) => image.pack_stripe(bstripe, k0..k0 + kc, j0),
            BSource::Loaded(image) => image.pack_stripe(bstripe, k0..k0 + kc, j0),
        }
    }
}

/// The multiply-add chains behind one `MR×NR` tile of `C`. A chain is one
/// element's `acc = 0`, then one multiply-add per `kk` in ascending order.
/// The two SIMD kernels fuse every step and differ only in how many chains
/// they keep in registers at once, so they give the same bits whichever a
/// CPU has; the portable kernel's steps are unfused. Each kernel runs three
/// products, each with the multiply-add its oracle uses:
///
/// * [`Microkernel::run`], `apanel · bstripe`: every GEMM's `K` block;
/// * [`Microkernel::run_taps`], the same summed per tap: a convolution's
///   input gradient ([`tap_product`]);
/// * [`Microkernel::run_rows`], broadcasts read in place from a padded
///   image: a convolution's weight gradient ([`weight_grads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Microkernel {
    /// Unfused `acc += a * b` in `4×8` sub-tiles: the live accumulators fit
    /// the 16 128-bit registers of baseline x86-64 (SSE2) and aarch64 (NEON).
    Portable,
    /// Fused multiply-adds in `4×16` sub-tiles, eight 256-bit accumulators
    /// each.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Fused multiply-adds over the whole tile in sixteen 512-bit
    /// accumulators: per `kk`, two `B` loads and eight broadcasts feed
    /// sixteen FMAs.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Microkernel {
    /// The widest kernel this CPU runs (the detection macro caches its probe
    /// in an atomic). A SIMD variant exists only where its features were
    /// detected: this is its one constructor outside the tests, which check
    /// the same features before naming one.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Self::Avx2;
            }
        }
        Self::Portable
    }

    /// Overwrite `acc` with `apanel · bstripe` over `kc` steps.
    #[inline]
    fn run(self, kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
        let (a, b) = (&apanel[..kc * MR], &bstripe[..kc * NR]);
        match self {
            Self::Portable => sub_tiled::<8>(a, b, acc, |acc, a, b| acc + a * b),
            // SAFETY: `Avx2` exists only where avx2 and fma were detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { microkernel_avx2(a, b, acc) },
            // SAFETY: `Avx512` exists only where avx512f was detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { microkernel_avx512(a, b, acc) },
        }
    }

    /// Overwrite `acc` with the sum over the taps `apanel · bstripe` holds,
    /// `seg` steps each: `acc = 0`, then `acc += t` per tap in order, where
    /// `t` is the tap's chain. A tap longer than [`KC`] chains in `KC`-step
    /// pieces joined as [`matmul_tn`] joins its `K` blocks, `(0 + c₀) + c₁ +
    /// …`. Each tap's partial sum stays in the tile: nothing is written back
    /// between taps.
    #[inline]
    fn run_taps(self, k: usize, seg: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
        let (a, b) = (&apanel[..k * MR], &bstripe[..k * NR]);
        if seg > KC {
            return taps_in_pieces(self, seg, a, b, acc);
        }
        match self {
            Self::Portable => sub_tiled_taps::<8>(seg, a, b, acc, |acc, a, b| acc + a * b),
            // SAFETY: `Avx2` exists only where avx2 and fma were detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { taps_avx2(seg, a, b, acc) },
            // SAFETY: `Avx512` exists only where avx512f was detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { taps_avx512(seg, a, b, acc) },
        }
    }

    /// Join into `acc` the chains of an `A` that is read in place (see
    /// [`Rows`]): row `i`'s step `s` of run `(g, len)` broadcasts
    /// `data[offsets[i] + g + s]`, the runs in order, against one `bstripe`
    /// row per step. The multiply-add is [`matmul_nt`]'s with the operands'
    /// roles swapped, so the tile is the transpose of that product's, bit for
    /// bit.
    #[inline]
    fn run_rows(self, rows: &Rows<'_>, bstripe: &[f32], acc: &mut Tile) {
        match self {
            Self::Portable => sub_tiled_rows::<8>(rows, bstripe, acc, |acc, a, b| acc + b * a),
            // SAFETY: `Avx2` exists only where avx2 and fma were detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { rows_avx2(rows, bstripe, acc) },
            // SAFETY: `Avx512` exists only where avx512f was detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { rows_avx512(rows, bstripe, acc) },
        }
    }

    /// Write rows `..rows` of `acc` into the `(oc, k)` matrix at `out`,
    /// transposed: lane `l` of half `h` (lanes `[h·NR/2, (h+1)·NR/2)`) of
    /// tile row `i` goes to row `o_h + l`, column `r_h + i`, where `(o_h,
    /// r_h) = halves[h]`; lanes whose row is `oc` or more are dropped.
    ///
    /// # Safety
    /// Every element written must lie inside `out`'s `oc · k` floats, and no
    /// other thread may touch them.
    unsafe fn write_columns(
        self,
        acc: &Tile,
        rows: usize,
        halves: [(usize, usize); 2],
        (oc, k): (usize, usize),
        out: SendPtr,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self == Self::Avx512 {
            // SAFETY: `Avx512` exists only where avx512f was detected; the
            // caller's contract is passed on.
            return unsafe { write_columns_avx512(acc, rows, halves, (oc, k), out) };
        }
        for (h, &(o0, r0)) in halves.iter().enumerate() {
            for (o, lane) in (o0..oc).zip(h * NR / 2..(h + 1) * NR / 2) {
                for (i, row) in acc[..rows].iter().enumerate() {
                    // SAFETY: the caller's contract.
                    unsafe { *out.get().add(o * k + r0 + i) = row[lane] };
                }
            }
        }
    }
}

/// The broadcast side of [`Microkernel::run_rows`]: rows of a padded image,
/// each `data[offset + g..]`, over the runs `(g, len)` of one `K` block. Tile
/// row `i` broadcasts row `offsets[i]` into lanes `[0, NR/2)`, and into
/// `[NR/2, NR)` the same row `shift` floats on (another channel's: two sets
/// of rows against a stripe that holds the same `NR/2` output channels
/// twice). A shift of 0 reads each row once.
struct Rows<'a> {
    data: &'a [f32],
    offsets: [usize; MR],
    shift: usize,
    runs: &'a [(usize, usize)],
    /// The first `K` block: its chains are stored as `0 + c`; later blocks'
    /// are added to what the tile holds, as [`matmul_nt`]'s write-back joins
    /// them.
    first: bool,
}

impl Rows<'_> {
    /// The row slices over run `(g, len)` that feed lanes `[c0, c0 + NR/2)`
    /// (or fewer) of tile rows `r0..r0 + ROWS`.
    #[inline(always)]
    fn slices<const ROWS: usize>(
        &self,
        (r0, c0): (usize, usize),
        (g, len): (usize, usize),
    ) -> [&[f32]; ROWS] {
        let g = if c0 >= NR / 2 { g + self.shift } else { g };
        std::array::from_fn(|i| &self.data[self.offsets[r0 + i] + g..][..len])
    }
}

/// Rows per sub-tile of the portable and AVX2 kernels.
const SUB_ROWS: usize = 4;
type SubTile<const COLS: usize> = [[f32; COLS]; SUB_ROWS];

/// Rows `r0..r0 + SUB_ROWS`, columns `c0..c0 + COLS` of `apanel · bstripe`
/// over every step the two hold, with `step(acc, a, b)` as the multiply-add.
/// The sub-tile is a value, so LLVM keeps it in registers for the whole loop.
#[inline(always)]
fn sub_chains<const COLS: usize>(
    (r0, c0): (usize, usize),
    apanel: &[f32],
    bstripe: &[f32],
    step: &impl Fn(f32, f32, f32) -> f32,
) -> SubTile<COLS> {
    let mut sub = [[0.0f32; COLS]; SUB_ROWS];
    for (a, b) in apanel.chunks_exact(MR).zip(bstripe.chunks_exact(NR)) {
        let b = &b[c0..c0 + COLS];
        for (row, &av) in sub.iter_mut().zip(&a[r0..r0 + SUB_ROWS]) {
            for (r, &bv) in row.iter_mut().zip(b) {
                *r = step(*r, av, bv);
            }
        }
    }
    sub
}

/// Write sub-tile `sub` at `(r0, c0)` of `acc`.
#[inline(always)]
fn put<const COLS: usize>(acc: &mut Tile, (r0, c0): (usize, usize), sub: &SubTile<COLS>) {
    for (out, row) in acc[r0..r0 + SUB_ROWS].iter_mut().zip(sub) {
        out[c0..c0 + COLS].copy_from_slice(row);
    }
}

/// The corners of the tile's `SUB_ROWS×COLS` sub-tiles, in the order the
/// kernels carry them.
fn corners<const COLS: usize>() -> impl Iterator<Item = (usize, usize)> {
    (0..MR)
        .step_by(SUB_ROWS)
        .flat_map(|r0| (0..NR).step_by(COLS).map(move |c0| (r0, c0)))
}

/// [`Microkernel::run`] as sub-tiles, each carried through all steps before
/// the next. Inlined into each kernel, so `step` compiles under that
/// kernel's target features.
#[inline(always)]
fn sub_tiled<const COLS: usize>(
    apanel: &[f32],
    bstripe: &[f32],
    acc: &mut Tile,
    step: impl Fn(f32, f32, f32) -> f32,
) {
    for at in corners::<COLS>() {
        put(acc, at, &sub_chains::<COLS>(at, apanel, bstripe, &step));
    }
}

/// [`Microkernel::run_taps`] as sub-tiles, for taps of at most [`KC`] steps.
#[inline(always)]
fn sub_tiled_taps<const COLS: usize>(
    seg: usize,
    apanel: &[f32],
    bstripe: &[f32],
    acc: &mut Tile,
    step: impl Fn(f32, f32, f32) -> f32,
) {
    for at in corners::<COLS>() {
        let mut sum = [[0.0f32; COLS]; SUB_ROWS];
        let taps = apanel
            .chunks_exact(seg * MR)
            .zip(bstripe.chunks_exact(seg * NR));
        for (a, b) in taps {
            let tap = sub_chains::<COLS>(at, a, b, &step);
            for (s, &t) in sum.iter_mut().flatten().zip(tap.iter().flatten()) {
                *s += t;
            }
        }
        put(acc, at, &sum);
    }
}

/// [`Microkernel::run_taps`] for taps longer than [`KC`]: each piece is one
/// [`Microkernel::run`], joined outside the registers. No model has an
/// output channel count this large; the chains are the same as in the
/// register kernels.
fn taps_in_pieces(
    kernel: Microkernel,
    seg: usize,
    apanel: &[f32],
    bstripe: &[f32],
    acc: &mut Tile,
) {
    let mut sum: Tile = [[0.0; NR]; MR];
    let (mut part, mut chain): (Tile, Tile) = ([[0.0; NR]; MR], [[0.0; NR]; MR]);
    let taps = apanel
        .chunks_exact(seg * MR)
        .zip(bstripe.chunks_exact(seg * NR));
    for (a, b) in taps {
        for p0 in (0..seg).step_by(KC) {
            let kc = KC.min(seg - p0);
            kernel.run(kc, &a[p0 * MR..], &b[p0 * NR..], &mut chain);
            for (p, &c) in part.iter_mut().flatten().zip(chain.iter().flatten()) {
                *p = if p0 == 0 { 0.0 + c } else { *p + c };
            }
        }
        for (s, &p) in sum.iter_mut().flatten().zip(part.iter().flatten()) {
            *s += p;
        }
    }
    *acc = sum;
}

/// [`Microkernel::run_rows`] as sub-tiles.
#[inline(always)]
fn sub_tiled_rows<const COLS: usize>(
    rows: &Rows<'_>,
    bstripe: &[f32],
    acc: &mut Tile,
    step: impl Fn(f32, f32, f32) -> f32,
) {
    for (r0, c0) in corners::<COLS>() {
        let mut sub = [[0.0f32; COLS]; SUB_ROWS];
        let mut b_rows = bstripe.chunks_exact(NR);
        for &run in rows.runs {
            let a = rows.slices::<SUB_ROWS>((r0, c0), run);
            for (s, b) in (0..run.1).zip(&mut b_rows) {
                let b = &b[c0..c0 + COLS];
                for (row, a) in sub.iter_mut().zip(&a) {
                    let av = a[s];
                    for (r, &bv) in row.iter_mut().zip(b) {
                        *r = step(*r, av, bv);
                    }
                }
            }
        }
        for (out, row) in acc[r0..r0 + SUB_ROWS].iter_mut().zip(&sub) {
            for (o, &c) in out[c0..c0 + COLS].iter_mut().zip(row) {
                *o = if rows.first { 0.0 + c } else { *o + c };
            }
        }
    }
}

/// AVX2 + FMA kernels ([`Microkernel::Avx2`]): `4×16` sub-tiles, eight
/// 256-bit accumulators each. `mul_add` compiles to `vfmadd` under the
/// enabled features (without them it would be a libm call).
///
/// # Safety
/// Caller must have verified `avx2` and `fma` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    sub_tiled::<16>(apanel, bstripe, acc, |acc, a, b| b.mul_add(a, acc))
}

/// # Safety
/// As [`microkernel_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn taps_avx2(seg: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    sub_tiled_taps::<16>(seg, apanel, bstripe, acc, |acc, a, b| b.mul_add(a, acc))
}

/// # Safety
/// As [`microkernel_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn rows_avx2(rows: &Rows<'_>, bstripe: &[f32], acc: &mut Tile) {
    sub_tiled_rows::<16>(rows, bstripe, acc, |acc, a, b| a.mul_add(b, acc))
}

/// The whole `8×32` tile in sixteen 512-bit accumulators, two per row.
#[cfg(target_arch = "x86_64")]
type Tile512 = [[std::arch::x86_64::__m512; 2]; MR];

/// `apanel · bstripe` over every step the two hold, one fresh chain per
/// element: per `kk`, two `B` loads and eight broadcasts feed sixteen FMAs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn chains_avx512(apanel: &[f32], bstripe: &[f32]) -> Tile512 {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_set1_ps, _mm512_setzero_ps};
    let mut tile = [[_mm512_setzero_ps(); 2]; MR];
    for (a, b) in apanel.chunks_exact(MR).zip(bstripe.chunks_exact(NR)) {
        let [b0, b1] = load_row(b);
        for (row, &av) in tile.iter_mut().zip(a) {
            let av = _mm512_set1_ps(av);
            row[0] = _mm512_fmadd_ps(b0, av, row[0]);
            row[1] = _mm512_fmadd_ps(b1, av, row[1]);
        }
    }
    tile
}

/// One `NR`-float row as two 16-lane vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load_row(row: &[f32]) -> [std::arch::x86_64::__m512; 2] {
    use std::arch::x86_64::_mm512_loadu_ps;
    let row = &row[..NR];
    // SAFETY: `row` holds `NR` = 32 floats, so both 16-lane unaligned loads
    // stay inside it.
    unsafe {
        [
            _mm512_loadu_ps(row.as_ptr()),
            _mm512_loadu_ps(row[NR / 2..].as_ptr()),
        ]
    }
}

/// Store `tile` into `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn store_tile(tile: &Tile512, acc: &mut Tile) {
    use std::arch::x86_64::_mm512_storeu_ps;
    for (out, row) in acc.iter_mut().zip(tile) {
        // SAFETY: `out` is one `NR`-float row of the tile, so both 16-lane
        // unaligned stores stay inside it.
        unsafe {
            _mm512_storeu_ps(out.as_mut_ptr(), row[0]);
            _mm512_storeu_ps(out[NR / 2..].as_mut_ptr(), row[1]);
        }
    }
}

/// AVX-512 kernels ([`Microkernel::Avx512`]).
///
/// # Safety
/// Caller must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    store_tile(&chains_avx512(apanel, bstripe), acc)
}

/// Each tap's chains in the sixteen accumulators, added to a sum tile that
/// lives beside them (the compiler keeps what fits of it in registers).
///
/// # Safety
/// As [`microkernel_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn taps_avx512(seg: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    use std::arch::x86_64::{_mm512_add_ps, _mm512_setzero_ps};
    let mut sum = [[_mm512_setzero_ps(); 2]; MR];
    let taps = apanel
        .chunks_exact(seg * MR)
        .zip(bstripe.chunks_exact(seg * NR));
    for (a, b) in taps {
        let tap = chains_avx512(a, b);
        for (s, t) in sum.iter_mut().zip(&tap) {
            s[0] = _mm512_add_ps(s[0], t[0]);
            s[1] = _mm512_add_ps(s[1], t[1]);
        }
    }
    store_tile(&sum, acc)
}

/// # Safety
/// As [`microkernel_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_avx512(rows: &Rows<'_>, bstripe: &[f32], acc: &mut Tile) {
    if rows.shift != 0 {
        rows_avx512_halves::<true>(rows, bstripe, acc)
    } else {
        rows_avx512_halves::<false>(rows, bstripe, acc)
    }
}

/// [`rows_avx512`] with the row sets `SPLIT` or not: per step, two `B`
/// loads and eight broadcasts (sixteen when split) feed sixteen FMAs. The
/// rows are read through raw pointers, checked once per run, so the loop
/// keeps its eight row pointers and two indices in registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn rows_avx512_halves<const SPLIT: bool>(rows: &Rows<'_>, bstripe: &[f32], acc: &mut Tile) {
    use std::arch::x86_64::{_mm512_add_ps, _mm512_fmadd_ps, _mm512_set1_ps, _mm512_setzero_ps};
    let mut tile = [[_mm512_setzero_ps(); 2]; MR];
    let mut b_rows = bstripe.chunks_exact(NR);
    let shift = if SPLIT { rows.shift } else { 0 };
    let last = rows.offsets.iter().max().copied().unwrap_or(0) + shift;
    for &(g, len) in rows.runs {
        assert!(
            last + g + len <= rows.data.len(),
            "a run reads past the image"
        );
        let base = rows.data.as_ptr().wrapping_add(g);
        let starts = rows.offsets.map(|offset| base.wrapping_add(offset));
        for (s, b) in (0..len).zip(&mut b_rows) {
            let [b0, b1] = load_row(b);
            for (row, &start) in tile.iter_mut().zip(&starts) {
                // SAFETY: `offset + g + s` and `offset + shift + g + s` are
                // below `last + g + len`, asserted inside `data`.
                let av = _mm512_set1_ps(unsafe { *start.add(s) });
                row[0] = _mm512_fmadd_ps(av, b0, row[0]);
                let av = if SPLIT {
                    // SAFETY: as above.
                    _mm512_set1_ps(unsafe { *start.add(s + shift) })
                } else {
                    av
                };
                row[1] = _mm512_fmadd_ps(av, b1, row[1]);
            }
        }
    }
    if !rows.first {
        let mut sum = [[_mm512_setzero_ps(); 2]; MR];
        for (row, out) in sum.iter_mut().zip(acc.iter()) {
            *row = load_row(out);
        }
        for (t, s) in tile.iter_mut().zip(&sum) {
            t[0] = _mm512_add_ps(s[0], t[0]);
            t[1] = _mm512_add_ps(s[1], t[1]);
        }
        return store_tile(&tile, acc);
    }
    for row in tile.iter_mut() {
        row[0] = _mm512_add_ps(_mm512_setzero_ps(), row[0]);
        row[1] = _mm512_add_ps(_mm512_setzero_ps(), row[1]);
    }
    store_tile(&tile, acc)
}

/// [`Microkernel::write_columns`] with one masked scatter per tile row and
/// half: sixteen lanes to sixteen rows of `out`.
///
/// # Safety
/// As [`Microkernel::write_columns`], and avx512f must have been detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn write_columns_avx512(
    acc: &Tile,
    rows: usize,
    halves: [(usize, usize); 2],
    (oc, k): (usize, usize),
    out: SendPtr,
) {
    use std::arch::x86_64::_mm512_setr_epi32;
    use std::arch::x86_64::{_mm512_mask_i32scatter_ps, _mm512_mullo_epi32, _mm512_set1_epi32};
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let stride = i32::try_from(k).expect("a weight matrix row fits i32 indexing");
    let index = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(stride));
    for (i, row) in acc[..rows].iter().enumerate() {
        let halves_of_row = load_row(row);
        for (&(o0, r0), v) in halves.iter().zip(halves_of_row) {
            let valid = oc.saturating_sub(o0).min(NR / 2);
            let mask = ((1u32 << valid) - 1) as u16;
            // SAFETY: the caller's contract covers lane `l < valid`'s element
            // `(o0 + l) · k + r0 + i`; masked-off lanes are not accessed.
            unsafe {
                let base = out.get().wrapping_add(o0 * k + r0 + i);
                _mm512_mask_i32scatter_ps::<4>(base.cast(), mask, index, v);
            }
        }
    }
}

/// Where [`gemm`] writes `C`, and what it does to each element on the way.
///
/// Row `i` of `C` is an output channel; its columns are a grid of frames of
/// `per_frame` columns each, and grid column `g` of a frame is output
/// pixel `(g / row, g % row)`, written only where that lies inside the
/// `oh × ow` output, at `((frame * m + i) * oh + oy) * ow + ox` (NCHW). A
/// plain `(m, n)` matrix is one frame of one output row of `n` pixels.
///
/// The first `K` block stores `0.0 + acc`, later ones add `acc` — the
/// additions a zeroed `C` receiving `+= acc` per block gets. After the last
/// block's the element gets `+ bias[i]`, then `+ residual` at its own index,
/// then a ReLU as [`crate::ops::relu`] applies it: the separate passes those
/// stand for, in their order, so the bits are theirs.
pub(crate) struct Sink<'a> {
    pub(crate) per_frame: usize,
    /// Grid columns per output row.
    pub(crate) row: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) residual: Option<&'a [f32]>,
    pub(crate) relu: bool,
    /// A plain row-major matrix: every stripe is one run, nothing added.
    pub(crate) plain: bool,
}

/// A grid column: its frame, its column within the frame, and that
/// column's output row and column within the row.
#[derive(Debug, Clone, Copy, Default)]
struct GridPos {
    frame: usize,
    column: usize,
    oy: usize,
    ox: usize,
}

/// Stripe columns `[at, at+len)` land in one output row, from `to + i *
/// plane` on for row `i` of `C`.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    at: usize,
    to: usize,
    len: usize,
}

impl Sink<'_> {
    /// A row-major `(m, n)` matrix and nothing else.
    fn matrix(n: usize) -> Sink<'static> {
        Sink {
            per_frame: n,
            row: n,
            oh: 1,
            ow: n,
            bias: None,
            residual: None,
            relu: false,
            plain: true,
        }
    }

    /// Where grid column `j` lies.
    fn locate(&self, j: usize) -> GridPos {
        let (frame, column) = (j / self.per_frame, j % self.per_frame);
        GridPos {
            frame,
            column,
            oy: column / self.row,
            ox: column % self.row,
        }
    }

    /// The runs of the next `cols` grid columns from `pos` that land in the
    /// output, into `runs`, leaving `pos` past them; returns how many runs
    /// there are. Runs that continue each other in the output (rows without
    /// grid padding) are one.
    fn runs(&self, m: usize, pos: &mut GridPos, cols: usize, runs: &mut [Run; NR]) -> usize {
        let plane = self.oh * self.ow;
        let mut count = 0usize;
        let mut at = 0;
        while at < cols {
            let len = (self.row - pos.ox)
                .min(self.per_frame - pos.column)
                .min(cols - at);
            if pos.oy < self.oh && pos.ox < self.ow {
                let run = Run {
                    at,
                    to: pos.frame * m * plane + pos.oy * self.ow + pos.ox,
                    len: len.min(self.ow - pos.ox),
                };
                match count.checked_sub(1).map(|last| &mut runs[last]) {
                    Some(prev) if prev.at + prev.len == run.at && prev.to + prev.len == run.to => {
                        prev.len += run.len
                    }
                    _ => {
                        runs[count] = run;
                        count += 1;
                    }
                }
            }
            at += len;
            pos.column += len;
            pos.ox += len;
            if pos.column == self.per_frame {
                *pos = GridPos {
                    frame: pos.frame + 1,
                    ..GridPos::default()
                };
            } else if pos.ox == self.row {
                (pos.oy, pos.ox) = (pos.oy + 1, 0);
            }
        }
        count
    }

    /// Finish row `i` of a tile and write it through `runs`: `row` holds the
    /// block's accumulators. One pass per run, straight into the output.
    #[allow(clippy::too_many_arguments)] // flat scalars keep the hot path branch-free
    #[inline(always)]
    fn write_row(
        &self,
        row: &[f32; NR],
        i: usize,
        runs: &[Run],
        out: SendPtr,
        first: bool,
        last: bool,
    ) {
        let plane = self.oh * self.ow;
        let output = |at: usize, len: usize| {
            // `gemm` asserted that every element a run of its `n` grid columns
            // places lies inside `out` (`ox + len <= ow`, `oy < oh`, `i < m`).
            // The worker calling this exclusively owns the grid columns of
            // `runs` (par_ranges hands out disjoint ranges), and distinct grid
            // columns of one row of `C` land on distinct elements.
            // SAFETY: in bounds by the assertion above, and no other live
            // slice overlaps this one.
            unsafe { std::slice::from_raw_parts_mut(out.get().add(at), len) }
        };
        if self.plain {
            let run = runs[0];
            let dst = output(run.to + i * plane, run.len);
            if first {
                for (o, &a) in dst.iter_mut().zip(row) {
                    *o = 0.0 + a;
                }
            } else {
                for (o, &a) in dst.iter_mut().zip(row) {
                    *o += a;
                }
            }
            return;
        }
        let bias = self.bias.filter(|_| last).map(|bias| bias[i]);
        let relu = last && self.relu;
        for run in runs {
            let at = run.to + i * plane;
            let dst = output(at, run.len);
            let acc = &row[run.at..run.at + run.len];
            let residual = self.residual.filter(|_| last).map(|r| &r[at..at + run.len]);
            for (j, (o, &a)) in dst.iter_mut().zip(acc).enumerate() {
                let mut v = if first { 0.0 + a } else { *o + a };
                if let Some(b) = bias {
                    v += b;
                }
                if let Some(r) = residual {
                    v += r[j];
                }
                if relu {
                    v = if v > 0.0 { v } else { 0.0 };
                }
                *o = v;
            }
        }
    }
}

/// How [`gemm`] chains each element's multiply-adds over `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chains {
    /// One chain per [`KC`] block, the blocks joined in the write-back.
    Blocked,
    /// `k` is a run of taps of `seg` steps each, summed in the tile
    /// ([`Microkernel::run_taps`]); `A` and `B` are packed whole, in one
    /// block.
    Taps(usize),
}

/// The shared packed GEMM: `C = A · B`, written through `sink` into
/// `out`. `n` counts `B`'s columns, grid columns included.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot path branch-free
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: ALayout,
    mut b: BSource<'_, '_>,
    chains: Chains,
    sink: &Sink<'_>,
    out: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // The write-back's unchecked slices rely on this: every element the
    // sink places for `n` grid columns lies inside `out`.
    assert!(
        n.div_ceil(sink.per_frame) * m * sink.oh * sink.ow <= out.len(),
        "gemm output too short for its sink"
    );
    let kernel = Microkernel::detect();
    let panels = m.div_ceil(MR);
    let block = match chains {
        Chains::Blocked => KC.min(k),
        Chains::Taps(_) => k,
    };
    let packed = a_layout == ALayout::Packed;
    assert!(!packed || block == k, "a packed `A` is one `K` block");
    let mut apack = vec![0.0f32; if packed { 0 } else { panels * MR * block }];
    let parallel_ok = parallel::threads() > 1 && m * n * k >= PAR_MIN_MACS;
    let out_ptr = SendPtr(out.as_mut_ptr());
    for k0 in (0..k).step_by(block) {
        let kc = block.min(k - k0);
        let (first, last) = (k0 == 0, k0 + kc == k);
        let apack = if packed {
            &a[..panels * MR * k]
        } else {
            pack_a(&mut apack, a, a_layout, m, k, k0, kc);
            &apack[..]
        };
        b.load(k0, kc);
        let b = &b;
        let worker = move |j_start: usize, j_end: usize| {
            let mut bstripe = vec![0.0f32; kc * NR];
            let mut acc: Tile = [[0.0; NR]; MR];
            let mut runs = [Run::default(); NR];
            let mut pos = sink.locate(j_start);
            let mut j0 = j_start;
            while j0 < j_end {
                let cols = NR.min(j_end - j0);
                let count = if sink.plain {
                    runs[0] = Run {
                        at: 0,
                        to: j0,
                        len: cols,
                    };
                    1
                } else {
                    sink.runs(m, &mut pos, cols, &mut runs)
                };
                // A stripe of grid padding only is neither packed nor run.
                if count > 0 {
                    b.pack_stripe(&mut bstripe, n, k0, kc, j0, cols);
                    for p in 0..panels {
                        let i0 = p * MR;
                        let rows = MR.min(m - i0);
                        let apanel = &apack[p * MR * kc..(p + 1) * MR * kc];
                        match chains {
                            Chains::Blocked => kernel.run(kc, apanel, &bstripe, &mut acc),
                            Chains::Taps(seg) => {
                                kernel.run_taps(kc, seg, apanel, &bstripe, &mut acc)
                            }
                        }
                        for (i, row) in (i0..).zip(&acc[..rows]) {
                            sink.write_row(row, i, &runs[..count], out_ptr, first, last);
                        }
                    }
                }
                j0 += cols;
            }
        };
        if parallel_ok {
            parallel::par_ranges(n, NR, worker);
        } else {
            worker(0, n);
        }
    }
}

fn check_matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    t.shape()
        .as_matrix()
        .map_err(|_| TensorError::ShapeMismatch {
            op,
            lhs: t.shape().dims().to_vec(),
            rhs: vec![0, 0],
        })
}

/// `C = A · B` for row-major matrices `A: (m, k)`, `B: (k, n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix(a, "matmul")?;
    let (kb, n) = check_matrix(b, "matmul")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        a.data(),
        ALayout::RowMajor,
        BSource::Stored(b.data()),
        Chains::Blocked,
        &Sink::matrix(n),
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = Aᵀ · B` where `A` is stored as `(k, m)` and `B` as `(k, n)`.
///
/// Result is `(m, n)`: [`matmul`] of `A` transposed and `B`. The reference
/// backward's input-gradient columns `Wᵀ · gO` (`conv::conv2d_backward`,
/// before `col2im`); oracle-only: the models' input gradient is
/// `tap_product`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul(&transposed(a, "matmul_tn")?, b)
}

/// `C = A · Bᵀ` where `A` is `(m, k)` and `B` is `(n, k)`, both row-major.
///
/// Result is `(m, n)`: [`matmul`] of `A` and `B` transposed. The reference
/// backward's weight gradient `gO · colsᵀ` (`conv::conv2d_backward`);
/// oracle-only: the models' weight gradient is `weight_grads`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul(a, &transposed(b, "matmul_nt")?)
}

/// The transpose of a row-major matrix, as a new row-major matrix. Packing
/// reads the same values from it as it would from the stored matrix, so a
/// product over it keeps every bit.
fn transposed(t: &Tensor, op: &'static str) -> Result<Tensor> {
    let (rows, cols) = check_matrix(t, op)?;
    let (data, mut out) = (t.data(), vec![0.0f32; rows * cols]);
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = data[i * cols + j];
        }
    }
    Tensor::from_vec(Shape::matrix(cols, rows), out)
}

/// `W · cols` for a convolution: `weights` is the `(m, in_c*kh*kw)` weight
/// matrix, the column matrix is `image`'s over its output grid, and `sink`
/// says where each element lands and what it gets on the way.
pub(crate) fn conv_product(
    weights: &[f32],
    m: usize,
    image: &mut PaddedImage<'_>,
    sink: &Sink<'_>,
    out: &mut [f32],
) {
    let (k, n) = image.grid_dims();
    gemm(
        m,
        n,
        k,
        weights,
        ALayout::RowMajor,
        BSource::Grid(image),
        Chains::Blocked,
        sink,
        out,
    );
}

/// A convolution's input gradient over `image`, the padded upstream gradient
/// of one stride phase with every channel loaded (`m` input channels, `seg`
/// output channels). `weight` is the convolution's `(seg, m, kh, kw)`
/// weight, `taps` the phase's taps as indices into one `kh × kw` kernel, in
/// kernel order. `A` is `W̃`: row `ci`, column `t · seg + oc` is `weight[oc,
/// ci, taps[t]]`, packed straight into the GEMM's panels. Each element is
/// `0 + t₀ + t₁ + …` over the taps in order, `tᵢ` the tap's chain over its
/// `seg` channels ([`Chains::Taps`]): what [`crate::conv::col2im`] adds up
/// from [`matmul_tn`]'s `Wᵀ · gO`, without that matrix.
pub(crate) fn tap_product(
    weight: &[f32],
    (m, seg): (usize, usize),
    taps: &[usize],
    image: &PaddedImage<'_>,
    sink: &Sink<'_>,
    out: &mut [f32],
) {
    let (k, n) = image.grid_dims();
    let per_kernel = weight.len() / (m * seg);
    let mut packed = vec![0.0f32; m.div_ceil(MR) * MR * k];
    for (p, panel) in packed.chunks_exact_mut(MR * k).enumerate() {
        let rows = MR.min(m - p * MR);
        let mut steps = panel.chunks_exact_mut(MR);
        for &tap in taps {
            for (o, step) in (0..seg).zip(&mut steps) {
                let column = weight[(o * m + p * MR) * per_kernel + tap..]
                    .iter()
                    .step_by(per_kernel);
                for (a, &w) in step[..rows].iter_mut().zip(column) {
                    *a = w;
                }
            }
        }
    }
    gemm(
        m,
        n,
        k,
        &packed,
        ALayout::Packed,
        BSource::Loaded(image),
        Chains::Taps(seg),
        sink,
        out,
    );
}

/// A convolution's weight and bias gradients over `image`'s one frame
/// (every channel loaded), from its upstream gradient `go`, `(oc, pixels)`:
/// `dw = gO · colsᵀ`, `(oc, K)`, bit-identical to [`matmul_nt`] on the built
/// column matrix, and `db[oc]`, bit-identical to an iterator `sum` over the
/// channel.
///
/// `gOᵀ` is packed once, lanes over `oc`: stripes of [`NR`] channels, or,
/// with at most `NR/2` channels, one stripe holding them twice, so a tile
/// carries two sets of rows. A tile's broadcasts are read in place from the
/// padded copy, one run per output row ([`Microkernel::run_rows`]), chained
/// over the [`KC`]-pixel blocks `matmul_nt` uses and joined as its
/// write-back joins them. The bias sums the packed stripes lane by lane from
/// `-0.0`, where `sum` starts. Workers split the rows above
/// [`PAR_MIN_MACS`].
pub(crate) fn weight_grads(
    go: &[f32],
    oc: usize,
    image: &PaddedImage<'_>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (k, pixels) = image.pixel_dims();
    assert!(
        go.len() == oc * pixels && dw.len() == oc * k && db.len() == oc,
        "weight_grads: operand sizes"
    );
    let split = oc <= NR / 2;
    let width = if split { NR / 2 } else { NR };
    // Stripe `s`, pixel `p`: `gt[(s * pixels + p) * NR..][..NR]`.
    let mut gt = vec![0.0f32; oc.div_ceil(width) * pixels * NR];
    for (stripe, channels) in gt
        .chunks_exact_mut(pixels * NR)
        .zip(go.chunks(width * pixels))
    {
        // 64 pixels at a time, so the rows being written stay in L1.
        for (block, p0) in stripe.chunks_mut(64 * NR).zip((0..).step_by(64)) {
            for (lane, channel) in channels.chunks_exact(pixels).enumerate() {
                for (row, &v) in block.chunks_exact_mut(NR).zip(&channel[p0..]) {
                    row[lane] = v;
                }
            }
            if split {
                for row in block.chunks_exact_mut(NR) {
                    row.copy_within(..NR / 2, NR / 2);
                }
            }
        }
    }
    for (stripe, db) in gt.chunks_exact(pixels * NR).zip(db.chunks_mut(width)) {
        let mut sums = [-0.0f32; NR];
        for row in stripe.chunks_exact(NR) {
            for (sum, &v) in sums.iter_mut().zip(row) {
                *sum += v;
            }
        }
        db.copy_from_slice(&sums[..db.len()]);
    }
    let blocks: Vec<Vec<(usize, usize)>> = (0..pixels)
        .step_by(KC)
        .map(|p0| image.pixel_runs(p0..(p0 + KC).min(pixels)))
        .collect();
    // With split stripes, a tile pairs each row of the first `half` rows
    // with the row `half` on: the same tap of a channel `c / 2` on, `shift`
    // floats further. An odd channel count leaves one channel's rows, which
    // run unpaired after them.
    let (channels, stride) = image.channels();
    let half = if split {
        k / channels * (channels / 2)
    } else {
        0
    };
    let shift = channels / 2 * stride;
    let paired = half.div_ceil(MR);
    let tiles = paired + (k - 2 * half).div_ceil(MR);
    let kernel = Microkernel::detect();
    let (data, row_offsets) = (image.data(), image.row_offsets());
    let out = SendPtr(dw.as_mut_ptr());
    let worker = |t_start: usize, t_end: usize| {
        let mut acc: Tile = [[0.0; NR]; MR];
        for t in t_start..t_end {
            let (r0, end, pair) = if t < paired {
                (t * MR, half, true)
            } else {
                (2 * half + (t - paired) * MR, k, false)
            };
            let rows = MR.min(end - r0);
            // Rows past the last repeat the first; they are not written.
            let offsets = std::array::from_fn(|i| row_offsets[r0 + if i < rows { i } else { 0 }]);
            for (s, stripe) in gt.chunks_exact(pixels * NR).enumerate() {
                for (b, runs) in blocks.iter().enumerate() {
                    let steps = runs.iter().map(|r| r.1).sum::<usize>();
                    let broadcasts = Rows {
                        data,
                        offsets,
                        shift: if pair { shift } else { 0 },
                        runs,
                        first: b == 0,
                    };
                    kernel.run_rows(&broadcasts, &stripe[b * KC * NR..][..steps * NR], &mut acc);
                }
                // Without a pair, `s * width + NR / 2` is `oc` or more when
                // the stripe holds `NR / 2` channels.
                let halves = if pair {
                    [(0, r0), (0, r0 + half)]
                } else {
                    [(s * width, r0), (s * width + NR / 2, r0)]
                };
                // SAFETY: a half's rows `o < oc` and columns `r0 + i` (`i <
                // rows`) lie inside `dw`, asserted `oc * k` long; this worker
                // owns tiles `[t_start, t_end)`, no other tile writes them.
                unsafe { kernel.write_columns(&acc, rows, halves, (oc, k), out) };
            }
        }
    };
    if parallel::threads() > 1 && oc * k * pixels >= PAR_MIN_MACS {
        parallel::par_ranges(tiles, 1, worker);
    } else {
        worker(0, tiles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;

    fn mat(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::matrix(rows, cols), data.to_vec()).unwrap()
    }

    /// The seed's reference O(mnk) kernel, kept as the oracle the packed
    /// kernel is checked against (here and in the crate's property tests).
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix().unwrap();
        let (_, n) = b.shape().as_matrix().unwrap();
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        mat(m, n, &out)
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = t.shape().as_matrix().unwrap();
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = t.data()[i * c + j];
            }
        }
        mat(c, r, &out)
    }

    fn assert_close(fast: &Tensor, slow: &Tensor, tol: f32) {
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(2, 3));
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(Shape::vector(3));
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn blocked_matches_naive_random() {
        let a = random::uniform(Shape::matrix(17, 33), -1.0, 1.0, 1);
        let b = random::uniform(Shape::matrix(33, 9), -1.0, 1.0, 2);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn packed_matches_naive_off_tile_shapes() {
        // m, n, k deliberately not multiples of MR/NR/KC, including
        // single-row/column edges.
        for (m, k, n, seed) in [
            (1usize, 1usize, 1usize, 10u64),
            (3, 5, 17, 11),
            (5, 7, 15, 12),
            (MR + 1, KC + 3, NR + 1, 13),
            (2 * MR - 1, 2 * KC + 5, 3 * NR - 7, 14),
            (64, 256, 192, 15),
        ] {
            let a = random::uniform(Shape::matrix(m, k), -1.0, 1.0, seed);
            let b = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed + 100);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 2e-3);
        }
    }

    #[test]
    fn packed_handles_zero_heavy_inputs() {
        // The seed kernel special-cased zeros; the packed kernel must get
        // the same answers on sparse-ish inputs without the branch.
        let mut a = random::uniform(Shape::matrix(9, 40), -1.0, 1.0, 20);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = random::uniform(Shape::matrix(40, 21), -1.0, 1.0, 21);
        assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        // Workers split C by column stripes; the k-accumulation order per
        // element is unchanged, so results are bit-for-bit identical.
        // 64·576·128 MACs, above `PAR_MIN_MACS`: the four-thread run splits.
        let a = random::uniform(Shape::matrix(64, 576), -1.0, 1.0, 30);
        let b = random::uniform(Shape::matrix(576, 128), -1.0, 1.0, 31);
        const { assert!(64 * 576 * 128 >= PAR_MIN_MACS) };
        crate::parallel::set_threads(1);
        let serial = matmul(&a, &b).unwrap();
        crate::parallel::set_threads(4);
        let parallel = matmul(&a, &b).unwrap();
        crate::parallel::set_threads(0);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn student_shapes_match_naive_at_one_and_two_threads() {
        // The `small()` student's products: stem (6 rows), head (9) and
        // `c_dec1` (24) leave a partial 8-row panel; 16, 31 and 33 columns
        // fill no 32-column stripe, 192 (a 12×16 frame) fills six; `in40
        // 3×3` (k = 360) crosses a `KC` block. 24 × 769 × 360 splits across
        // two lanes, with a ragged last stripe.
        const { assert!(24 * 769 * (KC + 104) >= PAR_MIN_MACS) };
        let mut seed = 60;
        for m in [6, 9, 24] {
            for n in [16, 31, 33, 192, 769] {
                for k in [27, KC + 104] {
                    seed += 2;
                    let a = random::uniform(Shape::matrix(m, k), -1.0, 1.0, seed);
                    let b = random::uniform(Shape::matrix(k, n), -1.0, 1.0, seed + 1);
                    let run = |threads: usize| {
                        crate::parallel::set_threads(threads);
                        let out = matmul(&a, &b).unwrap();
                        crate::parallel::set_threads(0);
                        out
                    };
                    let serial = run(1);
                    assert_close(&serial, &naive(&a, &b), 2e-3);
                    assert_eq!(serial.data(), run(2).data(), "{m}x{k}x{n}");
                }
            }
        }
    }

    /// The microkernels this host can run: portable always, each SIMD one
    /// only where its features are detected.
    fn runnable_microkernels() -> Vec<Microkernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Microkernel::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                kernels.push(Microkernel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(Microkernel::Avx512);
            }
        }
        kernels
    }

    #[test]
    fn microkernels_agree_bit_for_bit_with_the_scalar_chains() {
        // Every kernel on the same packed panels, with -0.0, subnormals,
        // ±inf and NaN planted: the fused kernels must give the scalar
        // `mul_add` chain's bits (`acc = 0`, then one fused step per `kk`),
        // the portable one the unfused chain's.
        let subnormal = f32::MIN_POSITIVE / 8.0;
        for kc in [1, 7, 104, KC] {
            let mut apanel = random::uniform(Shape::vector(kc * MR), -1.0, 1.0, kc as u64)
                .data()
                .to_vec();
            let mut bstripe = random::uniform(Shape::vector(kc * NR), -1.0, 1.0, kc as u64 + 1)
                .data()
                .to_vec();
            let last = kc - 1;
            // `A` row 1 is all subnormal, row 2 carries a -0.0, rows 3 and 4
            // an infinity each, row 6 a NaN.
            for kk in 0..kc {
                apanel[kk * MR + 1] = subnormal * (kk % 5) as f32;
            }
            apanel[last / 2 * MR + 2] = -0.0;
            apanel[last.min(1) * MR + 3] = f32::INFINITY;
            apanel[last * MR + 4] = f32::NEG_INFINITY;
            apanel[last / 3 * MR + 6] = f32::NAN;
            // `B` column 5 is all -0.0, column 17 subnormal, columns 20 and
            // 31 hold an infinity each (meeting row 3's and 4's: inf - inf
            // where the signs differ), column 26 a NaN.
            for kk in 0..kc {
                bstripe[kk * NR + 5] = -0.0;
                bstripe[kk * NR + 17] = subnormal;
            }
            bstripe[last * NR + 20] = f32::INFINITY;
            bstripe[last.min(1) * NR + 31] = f32::NEG_INFINITY;
            bstripe[last / 2 * NR + 26] = f32::NAN;

            let chain = |fused: bool| -> Vec<u32> {
                let mut out = Vec::with_capacity(MR * NR);
                for i in 0..MR {
                    for j in 0..NR {
                        let mut acc = 0.0f32;
                        for kk in 0..kc {
                            let (a, b) = (apanel[kk * MR + i], bstripe[kk * NR + j]);
                            acc = if fused {
                                b.mul_add(a, acc)
                            } else {
                                acc + a * b
                            };
                        }
                        out.push(acc.to_bits());
                    }
                }
                out
            };
            let (fused, unfused) = (chain(true), chain(false));
            for kernel in runnable_microkernels() {
                let mut acc: Tile = [[f32::NAN; NR]; MR];
                kernel.run(kc, &apanel, &bstripe, &mut acc);
                let got: Vec<u32> = acc.iter().flatten().map(|v| v.to_bits()).collect();
                let want = if kernel == Microkernel::Portable {
                    &unfused
                } else {
                    &fused
                };
                for (e, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g,
                        w,
                        "{kernel:?} kc={kc} row {} col {}: {} vs {}",
                        e / NR,
                        e % NR,
                        f32::from_bits(*g),
                        f32::from_bits(*w)
                    );
                }
            }
        }
    }

    /// `len` values from `seed`, with `-0.0`, a subnormal, both infinities
    /// and a NaN among them.
    fn with_specials(len: usize, seed: u64) -> Vec<f32> {
        let mut v = random::uniform(Shape::vector(len), -1.0, 1.0, seed)
            .data()
            .to_vec();
        let specials = [
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for (i, s) in specials.into_iter().enumerate() {
            v[(seed as usize * 31 + i * 977) % len] = s;
        }
        v
    }

    /// One multiply-add as `kernel` runs it, `a` the broadcast operand.
    fn step(kernel: Microkernel, acc: f32, a: f32, b: f32) -> f32 {
        if kernel == Microkernel::Portable {
            acc + a * b
        } else {
            b.mul_add(a, acc)
        }
    }

    #[test]
    fn tap_kernels_agree_bit_for_bit_with_the_scalar_chains() {
        // A tap's chain is fresh; taps add up from `+0`; a tap longer than
        // `KC` chains in pieces joined as `matmul_tn` joins its blocks.
        for (taps, seg) in [(1, 7), (9, 24), (3, 40), (2, KC + 5)] {
            let k = taps * seg;
            let apanel = with_specials(k * MR, k as u64);
            let bstripe = with_specials(k * NR, k as u64 + 1);
            for kernel in runnable_microkernels() {
                let mut acc: Tile = [[f32::NAN; NR]; MR];
                kernel.run_taps(k, seg, &apanel, &bstripe, &mut acc);
                for (i, j) in (0..MR).flat_map(|i| (0..NR).map(move |j| (i, j))) {
                    let mut sum = 0.0f32;
                    for t0 in (0..k).step_by(seg) {
                        let mut tap = 0.0f32;
                        for p0 in (t0..t0 + seg).step_by(KC) {
                            let mut chain = 0.0f32;
                            for kk in p0..(p0 + KC).min(t0 + seg) {
                                let (a, b) = (apanel[kk * MR + i], bstripe[kk * NR + j]);
                                chain = step(kernel, chain, a, b);
                            }
                            tap = if p0 == t0 { 0.0 + chain } else { tap + chain };
                        }
                        sum += tap;
                    }
                    assert_eq!(
                        acc[i][j].to_bits(),
                        sum.to_bits(),
                        "{kernel:?}, {taps} taps of {seg}, ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn row_kernels_agree_bit_for_bit_with_the_scalar_chains() {
        // Rows read in place over runs of an image, paired by a shift or
        // not, joined into the tile as the first block or a later one, then
        // written transposed.
        let data = with_specials(4000, 7);
        let offsets = [0, 3, 17, 40, 41, 100, 555, 1000];
        let runs = [(5, 9), (60, 1), (200, 30), (900, 11)];
        let steps: usize = runs.iter().map(|r| r.1).sum();
        let bstripe = with_specials(steps * NR, 8);
        let before = with_specials(MR * NR, 9);
        let (oc, k) = (NR + 3, 2000);
        for kernel in runnable_microkernels() {
            for (shift, first) in [(0, true), (1500, true), (777, false)] {
                let rows = Rows {
                    data: &data,
                    offsets,
                    shift,
                    runs: &runs,
                    first,
                };
                let mut acc: Tile =
                    std::array::from_fn(|i| std::array::from_fn(|j| before[i * NR + j]));
                kernel.run_rows(&rows, &bstripe, &mut acc);
                for (i, j) in (0..MR).flat_map(|i| (0..NR).map(move |j| (i, j))) {
                    let row = offsets[i] + if j >= NR / 2 { shift } else { 0 };
                    let mut chain = 0.0f32;
                    let mut s = 0;
                    for &(g, len) in &runs {
                        for x in 0..len {
                            let (a, b) = (data[row + g + x], bstripe[s * NR + j]);
                            chain = step(kernel, chain, a, b);
                            s += 1;
                        }
                    }
                    let want = if first {
                        0.0 + chain
                    } else {
                        before[i * NR + j] + chain
                    };
                    let what = format!("{kernel:?}, shift {shift}, first {first}, ({i}, {j})");
                    assert_eq!(acc[i][j].to_bits(), want.to_bits(), "{what}");
                }
                // Transposed into an `(oc, k)` matrix: row half 0 to output
                // rows from 0, half 1 from `NR + 1` (two of its lanes past
                // `oc`), at columns from 10 and 1200.
                let untouched = f32::from_bits(0x7fc0_1234);
                let (mut out, mut want) = (vec![untouched; oc * k], vec![untouched; oc * k]);
                let halves = [(0, 10), (NR + 1, 1200)];
                let rows_written = MR - 1;
                // SAFETY: lane `l` of half `h` goes to row `o_h + l < oc`,
                // columns `r_h..r_h + 7 < k`: inside `out`.
                unsafe {
                    kernel.write_columns(
                        &acc,
                        rows_written,
                        halves,
                        (oc, k),
                        SendPtr(out.as_mut_ptr()),
                    )
                };
                for (h, &(o0, r0)) in halves.iter().enumerate() {
                    for (o, l) in (o0..oc).zip(0..NR / 2) {
                        for (i, row) in acc[..rows_written].iter().enumerate() {
                            want[o * k + r0 + i] = row[h * NR / 2 + l];
                        }
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "{kernel:?}, shift {shift}");
            }
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = random::uniform(Shape::matrix(13, 7), -1.0, 1.0, 3); // stored (k=13, m=7)
        let b = random::uniform(Shape::matrix(13, 11), -1.0, 1.0, 4);
        let fast = matmul_tn(&a, &b).unwrap();
        assert_eq!(fast.shape().dims(), &[7, 11]);
        assert_close(&fast, &naive(&transpose(&a), &b), 1e-4);
    }

    #[test]
    fn tn_matches_naive_across_blocks() {
        let a = random::uniform(Shape::matrix(KC + 37, 29), -1.0, 1.0, 40);
        let b = random::uniform(Shape::matrix(KC + 37, 19), -1.0, 1.0, 41);
        assert_close(
            &matmul_tn(&a, &b).unwrap(),
            &naive(&transpose(&a), &b),
            2e-3,
        );
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = random::uniform(Shape::matrix(5, 13), -1.0, 1.0, 5);
        let b = random::uniform(Shape::matrix(9, 13), -1.0, 1.0, 6); // (n=9, k=13)
        let fast = matmul_nt(&a, &b).unwrap();
        assert_eq!(fast.shape().dims(), &[5, 9]);
        assert_close(&fast, &naive(&a, &transpose(&b)), 1e-4);
    }

    #[test]
    fn nt_matches_naive_across_blocks() {
        let a = random::uniform(Shape::matrix(23, KC + 41), -1.0, 1.0, 50);
        let b = random::uniform(Shape::matrix(31, KC + 41), -1.0, 1.0, 51);
        assert_close(
            &matmul_nt(&a, &b).unwrap(),
            &naive(&a, &transpose(&b)),
            2e-3,
        );
    }
}
