//! Packed, cache-blocked GEMM kernels behind every convolution.
//!
//! Three variants are provided because the convolution backward passes need
//! products against transposed operands and materialising the transpose would
//! double memory traffic:
//!
//! * [`matmul`]     — `C = A (M×K) · B (K×N)`
//! * [`matmul_tn`]  — `C = Aᵀ (M×K stored as K×M) · B (K×N)`
//! * [`matmul_nt`]  — `C = A (M×K) · Bᵀ (N×K stored row-major)`
//!
//! All three run through one packed kernel:
//!
//! * The reduction dimension is blocked at `KC` so the packed panels stay
//!   cache-resident across the inner loops.
//! * Per block, `A` is packed into `MR`-row micro-panels laid out `k`-major
//!   (`apack[kk*MR + i]`), so the microkernel reads it as a contiguous
//!   stream regardless of whether the source was stored `(m, k)` or
//!   `(k, m)`; `B` is packed into `NR`-column stripes (`bstripe[kk*NR + j]`)
//!   the same way. `A`'s ragged last panel is zero-padded; a ragged `B`
//!   stripe keeps whatever its unused columns held, which the microkernel
//!   computes and nothing writes, so it has no edge branches.
//! * `B` is read through one *panel source* (`BSource`): a matrix stored in
//!   memory, in either layout, or the column matrix of a convolution input
//!   that is **never built**. For `W · cols` each stripe is `kc` straight
//!   32-float copies from a padded copy of the input's channels in the
//!   current `K` block (`crate::conv::PaddedImage::pack_stripe`), over the
//!   *output grid*: output rows `wq ≥ ow` columns wide, frames rounded up to
//!   whole stripes. For the weight gradient `gO · colsᵀ` each stripe is a
//!   block of row runs over the valid pixels
//!   (`crate::conv::PaddedImage::gather_block`), transposed. Either way the
//!   stripe holds exactly the values `im2col_batched` would have stored at
//!   the columns the product writes, so every written element's multiply-add
//!   chain is the same whichever source a product uses.
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
    /// `a[(i, kk)] = a[kk*m + i]` — `A` stored `(k, m)` row-major (the
    /// `matmul_tn` case; the product uses `Aᵀ`).
    Transposed,
}

/// How the `B` operand is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BLayout {
    /// `b[(kk, j)] = b[kk*n + j]` — `B` stored `(k, n)` row-major.
    RowMajor,
    /// `b[(kk, j)] = b[j*k + kk]` — `B` stored `(n, k)` row-major (the
    /// `matmul_nt` case; the product uses `Bᵀ`).
    Transposed,
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
        ALayout::Transposed => {
            for p in 0..panels {
                let i0 = p * MR;
                let rows = MR.min(m - i0);
                let base = p * MR * kc;
                for kk in 0..kc {
                    let src = &a[(k0 + kk) * m + i0..(k0 + kk) * m + i0 + rows];
                    apack[base + kk * MR..base + kk * MR + rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Where [`gemm`] reads its `B` operand from. Every kind fills the same
/// `NR`-column stripes with the same values in the columns a product writes,
/// so the blocking, the microkernel and every written element's multiply-add
/// chain do not depend on which one a product uses. Columns a stripe holds
/// past the ones written keep whatever was there: they are computed and
/// dropped.
enum BSource<'a, 'i> {
    /// A matrix held in memory, in either layout.
    Stored(&'a [f32], BLayout),
    /// `cols` over the output grid of a convolution input, reloaded per `K`
    /// block: each stripe row is one straight copy
    /// ([`PaddedImage::pack_stripe`]).
    Grid(&'a mut PaddedImage<'i>),
    /// `colsᵀ` over the valid pixels of one frame: each stripe is a block of
    /// row runs ([`PaddedImage::gather_block`]), transposed.
    Pixels(&'a PaddedImage<'i>),
}

impl BSource<'_, '_> {
    /// Make `B`'s rows `[k0, k0+kc)` readable; only a grid reloads.
    fn load(&mut self, k0: usize, kc: usize) {
        if let BSource::Grid(image) = self {
            image.load(k0..k0 + kc);
        }
    }

    /// Pack the `B` stripe of columns `[j0, j0+cols)` for `k ∈ [k0, k0+kc)`
    /// into `bstripe[kk*NR + jj]`. `n` and `k` are the logical dimensions of
    /// `B` (`k × n`); `block` is scratch the worker keeps across stripes.
    #[allow(clippy::too_many_arguments)] // flat scalars keep the hot path branch-free
    fn pack_stripe(
        &self,
        bstripe: &mut [f32],
        block: &mut Vec<f32>,
        n: usize,
        k: usize,
        k0: usize,
        kc: usize,
        j0: usize,
        cols: usize,
    ) {
        match self {
            BSource::Stored(b, BLayout::RowMajor) => {
                for kk in 0..kc {
                    let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                    bstripe[kk * NR..kk * NR + cols].copy_from_slice(src);
                }
            }
            BSource::Stored(b, BLayout::Transposed) => {
                transpose_into_stripe(bstripe, &b[j0 * k + k0..], k, kc, cols)
            }
            BSource::Grid(image) => image.pack_stripe(bstripe, k0..k0 + kc, j0),
            // Its rows `[j0, j0+cols)` over pixels `[k0, k0+kc)`, gathered
            // into `block` (32 KiB at most), are the stored case in small.
            BSource::Pixels(image) => {
                if block.len() < cols * kc {
                    block.resize(NR * kc, 0.0);
                }
                let block = &mut block[..cols * kc];
                image.gather_block(block, j0..j0 + cols, k0..k0 + kc);
                transpose_into_stripe(bstripe, block, kc, kc, cols)
            }
        }
    }
}

/// `bstripe[kk*NR + jj] = rows[jj*row_len + kk]` for `kk < kc`, `jj < cols`.
fn transpose_into_stripe(
    bstripe: &mut [f32],
    rows: &[f32],
    row_len: usize,
    kc: usize,
    cols: usize,
) {
    let row = |jj: usize| &rows[jj * row_len..jj * row_len + kc];
    // Four rows at a time: one 16-byte store per `kk` instead of four
    // scalar ones to four cache lines.
    let quads = cols / 4 * 4;
    for jj in (0..quads).step_by(4) {
        let sources = row(jj)
            .iter()
            .zip(row(jj + 1))
            .zip(row(jj + 2))
            .zip(row(jj + 3));
        for (out, (((&a, &b), &c), &d)) in bstripe.chunks_exact_mut(NR).zip(sources) {
            out[jj..jj + 4].copy_from_slice(&[a, b, c, d]);
        }
    }
    for jj in quads..cols {
        for (kk, &v) in row(jj).iter().enumerate() {
            bstripe[kk * NR + jj] = v;
        }
    }
}

/// The multiply-add chains behind one `MR×NR` tile of `C`. Each kernel
/// overwrites `acc` with `apanel · bstripe` over `kc` steps, one chain per
/// element: `acc = 0`, then one multiply-add per `kk` in ascending order.
/// The two SIMD kernels fuse every step and differ only in how many chains
/// they keep in registers at once, so they give the same bits whichever a
/// CPU has; the portable kernel's steps are unfused.
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
        match self {
            Self::Portable => microkernel_portable(kc, apanel, bstripe, acc),
            // SAFETY: `Avx2` exists only where avx2 and fma were detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { microkernel_avx2(kc, apanel, bstripe, acc) },
            // SAFETY: `Avx512` exists only where avx512f was detected.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { microkernel_avx512(kc, apanel, bstripe, acc) },
        }
    }
}

/// The tile as `4×COLS` sub-tiles, each carried through all `kc` steps
/// before the next, with `step(acc, a, b)` as the multiply-add. Inlined into
/// each kernel, so `step` compiles under that kernel's target features.
#[inline(always)]
fn sub_tiled<const COLS: usize>(
    kc: usize,
    apanel: &[f32],
    bstripe: &[f32],
    acc: &mut Tile,
    step: impl Fn(f32, f32, f32) -> f32,
) {
    const ROWS: usize = 4;
    for r0 in (0..MR).step_by(ROWS) {
        for c0 in (0..NR).step_by(COLS) {
            // A by-value sub-tile, so LLVM keeps it in registers for the
            // whole `kc` loop instead of spilling through `acc`.
            let mut sub = [[0.0f32; COLS]; ROWS];
            for (a, b) in apanel
                .chunks_exact(MR)
                .zip(bstripe.chunks_exact(NR))
                .take(kc)
            {
                let b = &b[c0..c0 + COLS];
                for (row, &av) in sub.iter_mut().zip(&a[r0..r0 + ROWS]) {
                    for (r, &bv) in row.iter_mut().zip(b) {
                        *r = step(*r, av, bv);
                    }
                }
            }
            for (out, row) in acc[r0..r0 + ROWS].iter_mut().zip(&sub) {
                out[c0..c0 + COLS].copy_from_slice(row);
            }
        }
    }
}

/// Portable inner loop ([`Microkernel::Portable`]): `4×8` sub-tiles of
/// unfused multiply-adds.
fn microkernel_portable(kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    sub_tiled::<8>(kc, apanel, bstripe, acc, |acc, a, b| acc + a * b)
}

/// AVX2 + FMA inner loop ([`Microkernel::Avx2`]): `4×16` sub-tiles, eight
/// 256-bit accumulators each. `mul_add` compiles to `vfmadd` under the
/// enabled features (without them it would be a libm call).
///
/// # Safety
/// Caller must have verified `avx2` and `fma` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    sub_tiled::<16>(kc, apanel, bstripe, acc, |acc, a, b| b.mul_add(a, acc))
}

/// AVX-512 inner loop ([`Microkernel::Avx512`]): the whole `8×32` tile in
/// sixteen 512-bit accumulators, two per row.
///
/// # Safety
/// Caller must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(kc: usize, apanel: &[f32], bstripe: &[f32], acc: &mut Tile) {
    use std::arch::x86_64::{__m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps};
    use std::arch::x86_64::{_mm512_setzero_ps, _mm512_storeu_ps};
    const HALF: usize = NR / 2;
    let mut tile: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
    for (a, b) in apanel
        .chunks_exact(MR)
        .zip(bstripe.chunks_exact(NR))
        .take(kc)
    {
        // SAFETY: `b` is one `NR`-float row of the stripe, so both 16-lane
        // unaligned loads stay inside it.
        let (b0, b1) = unsafe {
            (
                _mm512_loadu_ps(b.as_ptr()),
                _mm512_loadu_ps(b[HALF..].as_ptr()),
            )
        };
        for (row, &av) in tile.iter_mut().zip(a) {
            let av = _mm512_set1_ps(av);
            row[0] = _mm512_fmadd_ps(b0, av, row[0]);
            row[1] = _mm512_fmadd_ps(b1, av, row[1]);
        }
    }
    for (out, row) in acc.iter_mut().zip(&tile) {
        // SAFETY: `out` is one `NR`-float row of the tile, so both 16-lane
        // unaligned stores stay inside it.
        unsafe {
            _mm512_storeu_ps(out.as_mut_ptr(), row[0]);
            _mm512_storeu_ps(out[HALF..].as_mut_ptr(), row[1]);
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

/// Shared packed GEMM driver: `C = op(A) · op(B)`, written through `sink`
/// into `out`. `n` counts `B`'s columns, grid columns included.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot path branch-free
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: ALayout,
    mut b: BSource<'_, '_>,
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
    let mut apack = vec![0.0f32; panels * MR * KC.min(k)];
    let parallel_ok = parallel::threads() > 1 && m * n * k >= PAR_MIN_MACS;
    let out_ptr = SendPtr(out.as_mut_ptr());
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let (first, last) = (k0 == 0, k0 + kc == k);
        pack_a(&mut apack, a, a_layout, m, k, k0, kc);
        b.load(k0, kc);
        let (apack, b) = (&apack, &b);
        let worker = move |j_start: usize, j_end: usize| {
            let mut bstripe = vec![0.0f32; kc * NR];
            let mut block = Vec::new();
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
                    b.pack_stripe(&mut bstripe, &mut block, n, k, k0, kc, j0, cols);
                    for p in 0..panels {
                        let i0 = p * MR;
                        let rows = MR.min(m - i0);
                        kernel.run(
                            kc,
                            &apack[p * MR * kc..(p + 1) * MR * kc],
                            &bstripe,
                            &mut acc,
                        );
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
        BSource::Stored(b.data(), BLayout::RowMajor),
        &Sink::matrix(n),
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = Aᵀ · B` where `A` is stored as `(k, m)` and `B` as `(k, n)`.
///
/// Result is `(m, n)`. Used for the convolution weight gradient
/// (`dW = dOutᵀ · im2col` style products).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_matrix(a, "matmul_tn")?;
    let (kb, n) = check_matrix(b, "matmul_tn")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
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
        ALayout::Transposed,
        BSource::Stored(b.data(), BLayout::RowMajor),
        &Sink::matrix(n),
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = A · Bᵀ` where `A` is `(m, k)` and `B` is `(n, k)`, both row-major.
///
/// Result is `(m, n)`. Used for the convolution input gradient
/// (`dCol = Wᵀ · dOut` style products) where the weight matrix is naturally
/// stored `(out_c, in_c*kh*kw)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_matrix(a, "matmul_nt")?;
    let (n, kb) = check_matrix(b, "matmul_nt")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
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
        BSource::Stored(b.data(), BLayout::Transposed),
        &Sink::matrix(n),
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
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
        sink,
        out,
    );
}

/// `C = A · colsᵀ` over the valid pixels of `image`'s one frame (every
/// channel loaded): the weight gradient `gO · colsᵀ`, bit-identical to
/// [`matmul_nt`] on the built column matrix.
pub(crate) fn matmul_nt_pixels(a: &Tensor, image: &PaddedImage<'_>) -> Result<Tensor> {
    let (m, k) = check_matrix(a, "matmul_nt_pixels")?;
    let (n, pixels) = image.pixel_dims();
    if k != pixels {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt_pixels",
            lhs: a.shape().dims().to_vec(),
            rhs: vec![n, pixels],
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm(
        m,
        n,
        k,
        a.data(),
        ALayout::RowMajor,
        BSource::Pixels(image),
        &Sink::matrix(n),
        &mut out,
    );
    Tensor::from_vec(Shape::matrix(m, n), out)
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
