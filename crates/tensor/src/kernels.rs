//! The compute kernels behind every heavy-math inner loop.
//!
//! This module is the single dispatch seam between the numerical API
//! ([`Tensor`](crate::tensor::Tensor), [`CsrMatrix`](crate::sparse::CsrMatrix),
//! [`Tape`](crate::tape::Tape), the optimizers) and the machine: all
//! `O(m·k·n)` loops — dense matmul and its transposed variant, CSR
//! sparse-dense products, row-wise reductions, candidate scoring and the
//! fused Adam update — live here and nowhere else. Later scaling work
//! (sharding, batching, alternative backends) only has to re-target these
//! entry points.
//!
//! Every dispatched kernel is assembled from the same three pieces:
//!
//! 1. **a reference body** — one `#[inline(always)]` function that holds the
//!    loop, written once in safe Rust. Where the loop multiplies and adds, a
//!    `const FUSE: bool` selects `f32::mul_add` (only profitable when the
//!    target has a hardware FMA — a libm call otherwise). The separate
//!    `*_serial` functions are the seed loops that parity tests and the
//!    `kernels` benchmarks compare against.
//! 2. **`dispatch!`** — runs a body on the process's ISA tier, chosen once by
//!    runtime CPU-feature detection (`is_x86_feature_detected!`): the
//!    portable tier calls `body::<false>` as compiled for the baseline
//!    target; the AVX2+FMA and AVX-512 tiers inline `body::<true>` into one
//!    of two generic `#[target_feature]` trampolines, so a baseline `x86-64`
//!    release build still runs fused 256/512-bit loops on capable hardware
//!    (2.5–3.5x over the reference loop on one core). Only the five bodies
//!    written with intrinsics carry a `#[target_feature]` attribute of their
//!    own.
//! 3. **`row_chunked`** — the threaded driver (the `parallel` feature, on by
//!    default): runs a kernel inline below [`PAR_MIN_FLOPS`] and otherwise
//!    splits the *output rows* across `std::thread::scope` threads. Row
//!    chunks are disjoint, so no synchronisation is needed.
//!
//! ## Determinism
//!
//! Every implementation accumulates each output element in the same index
//! order as the reference loop, so for a fixed machine the result is
//! reproducible bit-for-bit regardless of thread count. The fused-multiply-add
//! variants round differently from the reference (they skip the intermediate
//! rounding of `a*b`), which is why parity tests compare against `*_serial`
//! with a `1e-5` relative tolerance rather than exact equality.

// The kernel entry points intentionally take raw dimensions + slices — that
// IS the seam's ABI — so the argument-count lint does not apply here.
#![allow(clippy::too_many_arguments)]

use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Instruction-set detection
// ---------------------------------------------------------------------------

/// The ISA tiers, ordered by capability: a process may always be forced
/// *down* this ladder (every lower tier's features are implied by the higher
/// ones), never up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
}

fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        // Every feature named in the kernels' #[target_feature(enable)]
        // lists must be verified here, or the unsafe calls are unsound.
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                if is_x86_feature_detected!("avx512vnni") {
                    return Isa::Avx512Vnni;
                }
                return Isa::Avx512;
            }
            return Isa::Avx2Fma;
        }
    }
    Isa::Portable
}

/// Parses a `CDRIB_FORCE_ISA` value into an ISA tier. Unknown strings are
/// `None` (ignored, detection wins).
fn parse_isa(name: &str) -> Option<Isa> {
    match name.trim().to_ascii_lowercase().as_str() {
        "portable" | "scalar" => Some(Isa::Portable),
        #[cfg(target_arch = "x86_64")]
        "avx2" | "avx2+fma" => Some(Isa::Avx2Fma),
        #[cfg(target_arch = "x86_64")]
        "avx512" => Some(Isa::Avx512),
        #[cfg(target_arch = "x86_64")]
        "vnni" | "avx512vnni" | "avx512+vnni" => Some(Isa::Avx512Vnni),
        _ => None,
    }
}

fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        let detected = detect_isa();
        // `CDRIB_FORCE_ISA` pins the dispatch tier for the whole process so
        // every SIMD body is testable/benchable on one box. Forcing *down*
        // is always sound (the hardware still has the features detection
        // found); requests above the detected tier — or garbage — are
        // ignored rather than risking unsupported instructions.
        match std::env::var("CDRIB_FORCE_ISA").ok().as_deref().and_then(parse_isa) {
            Some(forced) if forced <= detected => forced,
            _ => detected,
        }
    })
}

/// Human-readable name of the SIMD path the dense kernels dispatch to on
/// this machine (`"avx512+vnni"`, `"avx512"`, `"avx2+fma"` or
/// `"portable"`).
pub fn active_isa() -> &'static str {
    match isa() {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => "avx2+fma",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => "avx512+vnni",
    }
}

// ---------------------------------------------------------------------------
// The ISA trampoline: two `#[target_feature]` functions and one macro
// ---------------------------------------------------------------------------

/// Runs `f(out)` compiled for AVX2+FMA. `f` is a `dispatch!` closure marked
/// `#[inline(always)]`, so the reference body inside it is inlined here and
/// vectorised under these features.
///
/// The kernel's one mutable output crosses the trampoline as a real
/// parameter, not as part of the closure's captured environment: a `&mut`
/// parameter is `noalias`, which is what lets the vectoriser skip the
/// runtime overlap checks between the output and the (captured, read-only)
/// inputs — the same guarantee a hand-written per-kernel wrapper has.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn with_avx2<O: ?Sized, R>(out: &mut O, f: impl FnOnce(&mut O) -> R) -> R {
    f(out)
}

/// [`with_avx2`] for the AVX-512 tiers.
///
/// # Safety
/// The CPU must support AVX-512F/VL (and with them AVX2 and FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
unsafe fn with_avx512<O: ?Sized, R>(out: &mut O, f: impl FnOnce(&mut O) -> R) -> R {
    f(out)
}

/// Checks that this CPU can run tier `isa` and returns it: the gate of
/// `dispatch!`'s explicit-tier form, through which the in-file tests reach
/// every tier at or below the detected one in a single process.
#[cfg(test)]
fn supported(isa: Isa) -> Isa {
    assert!(isa <= detect_isa(), "{isa:?} is above this CPU's tier");
    isa
}

/// Runs a call to a reference body on an ISA tier.
///
/// ```text
/// dispatch!(FUSE, out => body::<FUSE>(args.., out))   // body with an FMA choice
/// dispatch!(out => body(args.., out))                 // no multiply-add to fuse
/// dispatch!(body(args..))                             // reduction, no output slice
/// dispatch!(on tier; ..)                              // an explicit tier instead of `isa()`
/// ```
///
/// `out` names the variable holding the kernel's `&mut` output (see
/// [`with_avx2`] for why it is singled out). The portable arm evaluates the
/// call as written with `FUSE = false`; the SIMD arms wrap it in an
/// `#[inline(always)]` closure with `FUSE = true` and hand that to the
/// tier's trampoline. The call is expanded once outside any `unsafe` block,
/// so it cannot smuggle in an unsafe operation.
macro_rules! dispatch {
    (on $isa:expr; $($kernel:tt)+) => { dispatch!(@tier supported($isa); $($kernel)+) };
    (@tier $isa:expr; $fuse:ident, $out:ident => $call:expr) => {
        match $isa {
            Isa::Portable => {
                const $fuse: bool = false;
                $call
            }
            // SAFETY (both arms): `$isa` is `isa()` or passed `supported()`,
            // so `detect_isa()` verified the trampoline's CPU features.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => {
                const $fuse: bool = true;
                unsafe { with_avx2(&mut *$out, #[inline(always)] move |$out| $call) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx512Vnni => {
                const $fuse: bool = true;
                unsafe { with_avx512(&mut *$out, #[inline(always)] move |$out| $call) }
            }
        }
    };
    (@tier $isa:expr; $out:ident => $call:expr) => { dispatch!(@tier $isa; _FUSE, $out => $call) };
    (@tier $isa:expr; $call:expr) => {{
        let _no_output = &mut ();
        dispatch!(@tier $isa; _no_output => $call)
    }};
    ($($kernel:tt)+) => { dispatch!(@tier isa(); $($kernel)+) };
}

// ---------------------------------------------------------------------------
// Thread-count detection and the row-chunking shim
// ---------------------------------------------------------------------------

/// Minimum number of scalar multiply-adds before the threaded driver splits
/// work across cores; below this, thread spawn overhead dominates.
pub const PAR_MIN_FLOPS: usize = 1 << 18;

/// Number of worker threads the threaded driver may use. Defaults to
/// [`std::thread::available_parallelism`]; `CDRIB_NUM_THREADS` overrides it
/// outright when set to an integer >= 1 (`1` forces the serial path, values
/// above the core count oversubscribe; `0` or garbage is ignored). Always
/// `1` when the `parallel` feature is disabled.
pub fn parallelism() -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        match std::env::var("CDRIB_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n, // explicit request wins
            _ => hw,
        }
    })
}

/// Decides whether a kernel invocation is worth threading and returns the
/// thread count to use (1 = run inline).
fn plan_threads(rows: usize, flops_total: usize) -> usize {
    let p = parallelism();
    if p <= 1 || rows < 2 || flops_total < PAR_MIN_FLOPS {
        1
    } else {
        p.min(rows)
    }
}

/// The threaded driver of every row-parallel kernel: `f(r0, r1, chunk)`
/// computes output rows `[r0, r1)` into `chunk`, which holds exactly those
/// rows of `out` (`rows x cols`). Runs `f(0, rows, out)` inline when
/// [`plan_threads`] says threading `flops` multiply-adds is not worth it;
/// otherwise each contiguous row chunk runs on its own scoped thread.
fn row_chunked<F>(out: &mut [f32], cols: usize, rows: usize, flops: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let threads = plan_threads(rows, flops);
    if threads == 1 {
        f(0, rows, out);
        return;
    }
    #[cfg(feature = "parallel")]
    {
        let chunk_rows = rows.div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, chunk) in out.chunks_mut(chunk_rows * cols).enumerate() {
                let f = &f;
                scope.spawn(move || f(ci * chunk_rows, ci * chunk_rows + chunk.len() / cols, chunk));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Dense matmul: out (m x n) = A (m x k) * B (k x n)
// ---------------------------------------------------------------------------

/// Reference loop for [`matmul`] (the seed implementation): i-k-j order with
/// a zero-skip on `A`, accumulating into a zeroed `out`.
pub fn matmul_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Dense micro-tile height (output rows per register tile).
const MR: usize = 4;
/// Dense micro-tile width (output columns per register tile).
const NR: usize = 16;

/// Register-tiled product over output rows `[r0, r1)` of `out = A' * B`,
/// shared by [`matmul`] (`A' = A`) and [`transpose_matmul`] (`A' = A^T`):
/// `B` is `(depth x n)` row-major, `a_at(row, p)` reads `A'[row][p]` from
/// wherever the caller stores it, and `out_rows` holds exactly the rows
/// `[r0, r1)`. `MR x NR` tiles keep their accumulators in registers, and
/// every output element folds `p = 0..depth` in ascending order. `FUSE`
/// selects `f32::mul_add` (only profitable when the target has a hardware
/// FMA — a libm call otherwise).
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `r` is the tile row of `acc` *and* of `A'`
fn tile_body<const FUSE: bool>(
    r0: usize,
    r1: usize,
    depth: usize,
    n: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b: &[f32],
    out_rows: &mut [f32],
) {
    let mut i = r0;
    while i < r1 {
        let mr = MR.min(r1 - i);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            if mr == MR && nr == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..depth {
                    let b_row = &b[p * n + j..p * n + j + NR];
                    for r in 0..MR {
                        let av = a_at(i + r, p);
                        for (l, &bv) in b_row.iter().enumerate() {
                            if FUSE {
                                acc[r][l] = av.mul_add(bv, acc[r][l]);
                            } else {
                                acc[r][l] += av * bv;
                            }
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let row0 = (i - r0 + r) * n + j;
                    out_rows[row0..row0 + NR].copy_from_slice(acc_row);
                }
            } else {
                for r in 0..mr {
                    for l in 0..nr {
                        let mut s = 0.0f32;
                        for p in 0..depth {
                            let (av, bv) = (a_at(i + r, p), b[p * n + j + l]);
                            if FUSE {
                                s = av.mul_add(bv, s);
                            } else {
                                s += av * bv;
                            }
                        }
                        out_rows[(i - r0 + r) * n + j + l] = s;
                    }
                }
            }
            j += nr;
        }
        i += mr;
    }
}

/// `rows * cols` as the length a kernel operand must have. Checked, so a
/// geometry that overflows `usize` cannot wrap around to a length that
/// happens to match a short slice.
fn dims(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols).expect("kernel dimensions overflow usize")
}

/// Dense matmul `out (m x n) = A (m x k) * B (k x n)`. Every element of
/// `out` is overwritten; entry contents are ignored (recycled buffers are
/// fine — unlike [`matmul_serial`], which accumulates into a zeroed `out`).
///
/// On AVX-512 machines, problems past [`PACK_MIN_M`] rows route through the
/// hand-packed micro-kernel ([`matmul_packed_avx512`]); everything else runs
/// the register-tiled body. Both paths accumulate each output element with
/// sequential-`k` FMA chains, so the result is bitwise identical between
/// them — smaller gathered-row products (the delta re-encode path) stay
/// bitwise consistent with full-table rebuilds.
///
/// # Panics
/// If a slice length does not match the `m/k/n` geometry. These are release
/// checks: the packed micro-kernel reads `a` and writes `out` through raw
/// pointers, and three compares are nothing against `O(m·k·n)` work.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), dims(m, k), "A must be m x k");
    assert_eq!(b.len(), dims(k, n), "B must be k x n");
    assert_eq!(out.len(), dims(m, n), "out must be m x n");
    if m == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if matches!(isa(), Isa::Avx512 | Isa::Avx512Vnni) && m >= PACK_MIN_M && n >= NR_512 && k >= PACK_MIN_K {
        matmul_packed_avx512(m, k, n, a, b, out);
        return;
    }
    matmul_tiles(m, k, n, a, b, out);
}

/// The non-packed path of [`matmul`] — [`tile_body`] under the ISA dispatch
/// and the row-chunking shim — and the only path on AVX2 and portable
/// machines. Lengths are checked by [`matmul`].
fn matmul_tiles(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    row_chunked(out, n, m, m * k * n, |i0, i1, rows| {
        dispatch!(FUSE, rows => tile_body::<FUSE>(i0, i1, k, n, |i, p| a[i * k + p], b, rows));
    });
}

// ---------------------------------------------------------------------------
// Hand-packed AVX-512 matmul micro-kernel
// ---------------------------------------------------------------------------
//
// The register-tiled body above reads `B` straight from the source matrix,
// so every `MR x NR` tile re-streams `B` rows through L1 with an `n`-element
// stride between vector loads. Packing `B` once into contiguous `NR_512`-wide
// panels (strip-major: panel `jp` holds rows `p = 0..k` of columns
// `[jp*32, jp*32+32)` back to back) turns the inner loop into two perfectly
// sequential streams — `A` broadcast from L1, packed `B` from L1/L2 — which
// is what pushes the kernel past the ~45-65 GFLOP/s plateau of the tiled
// path on this machine class.
//
// The micro-kernel computes an 8x32 output block per iteration: 8 rows x two
// zmm accumulators = 16 independent FMA chains, with the k-loop unrolled 2x
// (two broadcast/FMA rounds per trip — still *one* chain per accumulator, in
// ascending `p` order, so each output element's accumulation is exactly the
// `fma(a[i,p], b[p,j], acc)` fold of the tiled body and results stay bitwise
// identical to it).

/// Minimum output rows before [`matmul`] switches to the packed micro-kernel
/// (below this, packing `B` costs more than it saves).
#[cfg(target_arch = "x86_64")]
const PACK_MIN_M: usize = 16;
/// Minimum depth for the packed path (the 2x-unrolled FMA loop needs a few
/// iterations to amortise the pack).
#[cfg(target_arch = "x86_64")]
const PACK_MIN_K: usize = 8;
/// Packed micro-tile height (output rows per micro-kernel iteration).
#[cfg(target_arch = "x86_64")]
const MR_512: usize = 8;
/// Packed micro-tile width: two 16-lane zmm accumulators per row.
#[cfg(target_arch = "x86_64")]
const NR_512: usize = 32;

/// Packs the full-width strips of `B` into panel-major storage:
/// `packed[(jp * k + p) * NR_512 + l] = b[p * n + jp * NR_512 + l]`.
/// Trailing columns (`n % NR_512`) are not packed — the micro-kernel handles
/// them with scalar sequential-`k` loops.
#[cfg(target_arch = "x86_64")]
fn pack_b_panels(k: usize, n: usize, n_strips: usize, b: &[f32], packed: &mut [f32]) {
    for jp in 0..n_strips {
        let j = jp * NR_512;
        let panel = &mut packed[jp * k * NR_512..(jp + 1) * k * NR_512];
        for p in 0..k {
            panel[p * NR_512..(p + 1) * NR_512].copy_from_slice(&b[p * n + j..p * n + j + NR_512]);
        }
    }
}

/// The 8x32 micro-kernel over output rows `[i0, i1)` against pre-packed `B`
/// panels. `out_rows` holds exactly rows `[i0, i1)` of the full output.
///
/// # Safety
/// Requires AVX-512F (verified by the caller via `isa()`); `packed` must
/// hold `n_strips` panels of `k * NR_512` floats laid out by
/// [`pack_b_panels`], `a` must hold at least `i1` rows of `k` floats and
/// `out_rows` exactly `i1 - i0` rows of `n` (the release asserts at the top
/// of [`matmul`] plus [`row_chunked`]'s chunking).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
unsafe fn matmul_packed_range_avx512(
    i0: usize,
    i1: usize,
    k: usize,
    n: usize,
    n_strips: usize,
    packed: &[f32],
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    let tail_j0 = n_strips * NR_512;
    let a_ptr = a.as_ptr();
    let o_ptr = out_rows.as_mut_ptr();
    let mut i = i0;
    while i < i1 {
        let mr = MR_512.min(i1 - i);
        for jp in 0..n_strips {
            let panel = packed.as_ptr().add(jp * k * NR_512);
            let j = jp * NR_512;
            if mr == MR_512 {
                let mut acc_lo = [_mm512_setzero_ps(); MR_512];
                let mut acc_hi = [_mm512_setzero_ps(); MR_512];
                let mut p = 0usize;
                // 2x unrolled: two (broadcast, fma, fma) rounds per trip.
                // Each accumulator still advances strictly in ascending `p`.
                while p + 2 <= k {
                    let b0_lo = _mm512_loadu_ps(panel.add(p * NR_512));
                    let b0_hi = _mm512_loadu_ps(panel.add(p * NR_512 + 16));
                    let b1_lo = _mm512_loadu_ps(panel.add((p + 1) * NR_512));
                    let b1_hi = _mm512_loadu_ps(panel.add((p + 1) * NR_512 + 16));
                    for r in 0..MR_512 {
                        let row = a_ptr.add((i + r) * k + p);
                        let av0 = _mm512_set1_ps(*row);
                        acc_lo[r] = _mm512_fmadd_ps(av0, b0_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av0, b0_hi, acc_hi[r]);
                        let av1 = _mm512_set1_ps(*row.add(1));
                        acc_lo[r] = _mm512_fmadd_ps(av1, b1_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av1, b1_hi, acc_hi[r]);
                    }
                    p += 2;
                }
                if p < k {
                    let b_lo = _mm512_loadu_ps(panel.add(p * NR_512));
                    let b_hi = _mm512_loadu_ps(panel.add(p * NR_512 + 16));
                    for r in 0..MR_512 {
                        let av = _mm512_set1_ps(*a_ptr.add((i + r) * k + p));
                        acc_lo[r] = _mm512_fmadd_ps(av, b_lo, acc_lo[r]);
                        acc_hi[r] = _mm512_fmadd_ps(av, b_hi, acc_hi[r]);
                    }
                }
                for r in 0..MR_512 {
                    let dst = o_ptr.add((i - i0 + r) * n + j);
                    _mm512_storeu_ps(dst, acc_lo[r]);
                    _mm512_storeu_ps(dst.add(16), acc_hi[r]);
                }
            } else {
                // Row remainder: one row at a time, same two chains.
                for r in 0..mr {
                    let mut acc_lo = _mm512_setzero_ps();
                    let mut acc_hi = _mm512_setzero_ps();
                    for p in 0..k {
                        let av = _mm512_set1_ps(*a_ptr.add((i + r) * k + p));
                        acc_lo = _mm512_fmadd_ps(av, _mm512_loadu_ps(panel.add(p * NR_512)), acc_lo);
                        acc_hi = _mm512_fmadd_ps(av, _mm512_loadu_ps(panel.add(p * NR_512 + 16)), acc_hi);
                    }
                    let dst = o_ptr.add((i - i0 + r) * n + j);
                    _mm512_storeu_ps(dst, acc_lo);
                    _mm512_storeu_ps(dst.add(16), acc_hi);
                }
            }
        }
        // Column remainder (`n % 32`): scalar sequential-k FMA per element,
        // the same accumulation fold as every other path.
        for r in 0..mr {
            for j in tail_j0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s = a[(i + r) * k + p].mul_add(b[p * n + j], s);
                }
                out_rows[(i - i0 + r) * n + j] = s;
            }
        }
        i += mr;
    }
}

/// Driver of the packed micro-kernel: packs `B` once on the calling thread
/// (into a thread-local buffer that is reused across calls, so steady-state
/// serving stays allocation-free), then row-chunks the output across the
/// threaded driver exactly like the tiled path.
#[cfg(target_arch = "x86_64")]
fn matmul_packed_avx512(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    use std::cell::RefCell;
    thread_local! {
        static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    let n_strips = n / NR_512;
    let need = n_strips * k * NR_512;
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < need {
            buf.resize(need, 0.0);
        }
        pack_b_panels(k, n, n_strips, b, &mut buf[..need]);
        let packed = &buf[..need];
        row_chunked(out, n, m, m * k * n, |i0, i1, rows| {
            // SAFETY: `matmul` routes here only when `isa()` reports an
            // AVX-512 tier and after its release asserts tied `a`/`b`/`out`
            // to `m/k/n`; `packed` was sized and filled for `n_strips`
            // panels just above; `rows` is rows `[i0, i1)` of `out`.
            unsafe { matmul_packed_range_avx512(i0, i1, k, n, n_strips, packed, a, b, rows) }
        });
    });
}

// ---------------------------------------------------------------------------
// out (k x n) = A^T * B, with A stored (m x k), B stored (m x n)
// ---------------------------------------------------------------------------

/// Reference loop for [`transpose_matmul`] (the seed implementation).
pub fn transpose_matmul_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `out (k x n) = A^T * B` where `A` is stored `(m x k)` and `B` `(m x n)`.
/// Every element of `out` is overwritten; entry contents are ignored (unlike
/// [`transpose_matmul_serial`], which accumulates into a zeroed `out`).
pub fn transpose_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    // Output row `p` is column `p` of `A`, folded over the `m` rows of `A` and
    // `B` in the reference loop's order.
    row_chunked(out, n, k, m * k * n, |p0, p1, rows| {
        dispatch!(FUSE, rows => tile_body::<FUSE>(p0, p1, m, n, |p, i| a[i * k + p], b, rows));
    });
}

// ---------------------------------------------------------------------------
// Row-wise reductions and sampled gather/scatter
// ---------------------------------------------------------------------------

/// Row-wise dot products of two `(rows x cols)` matrices into a `rows`-long
/// column.
pub fn rowwise_dot(rows: usize, cols: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(b.len(), rows * cols);
    debug_assert_eq!(out.len(), rows);
    for r in 0..rows {
        let mut acc = 0.0f32;
        for (&x, &y) in a[r * cols..(r + 1) * cols].iter().zip(&b[r * cols..(r + 1) * cols]) {
            acc += x * y;
        }
        out[r] = acc;
    }
}

/// Row-wise squared Euclidean distances into a `rows`-long column.
pub fn rowwise_sq_dist(rows: usize, cols: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(b.len(), rows * cols);
    debug_assert_eq!(out.len(), rows);
    for r in 0..rows {
        let mut acc = 0.0f32;
        for (&x, &y) in a[r * cols..(r + 1) * cols].iter().zip(&b[r * cols..(r + 1) * cols]) {
            let d = x - y;
            acc += d * d;
        }
        out[r] = acc;
    }
}

/// Scales each row of `src` by `factor * row_scales[r]`:
/// `out[r][c] (+)= factor * row_scales[r] * src[r][c]`. This is the backward
/// rule of both row-wise reductions above; `accumulate` selects whether the
/// result is added into `out` (gradient accumulation) or overwrites it.
pub fn scale_rows(
    rows: usize,
    cols: usize,
    src: &[f32],
    row_scales: &[f32],
    factor: f32,
    accumulate: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(row_scales.len(), rows);
    debug_assert_eq!(out.len(), rows * cols);
    for r in 0..rows {
        let g = factor * row_scales[r];
        let out_row = &mut out[r * cols..(r + 1) * cols];
        let src_row = &src[r * cols..(r + 1) * cols];
        if accumulate {
            for (o, &v) in out_row.iter_mut().zip(src_row) {
                *o += g * v;
            }
        } else {
            for (o, &v) in out_row.iter_mut().zip(src_row) {
                *o = g * v;
            }
        }
    }
}

#[inline(always)]
fn gather_rowwise_dot_body<const FUSE: bool>(
    cols: usize,
    a: &[f32],
    b: &[f32],
    a_idx: &[usize],
    b_idx: &[usize],
    out: &mut [f32],
) {
    for ((o, &ia), &ib) in out.iter_mut().zip(a_idx.iter()).zip(b_idx.iter()) {
        let ra = &a[ia * cols..(ia + 1) * cols];
        let rb = &b[ib * cols..(ib + 1) * cols];
        let mut acc = 0.0f32;
        for (&x, &y) in ra.iter().zip(rb.iter()) {
            if FUSE {
                acc = x.mul_add(y, acc);
            } else {
                acc += x * y;
            }
        }
        *o = acc;
    }
}

/// Fused sampled inner products: `out[k] = <a[a_idx[k]], b[b_idx[k]]>` over
/// rows of two `(_ x cols)` matrices. This is `gather_rows` + `rowwise_dot`
/// without materialising the two gathered `batch x cols` matrices — the hot
/// scoring pattern of every sampled-interaction loss. Indices must be in
/// bounds (checked by the tape before dispatch).
pub fn gather_rowwise_dot(cols: usize, a: &[f32], b: &[f32], a_idx: &[usize], b_idx: &[usize], out: &mut [f32]) {
    debug_assert_eq!(a_idx.len(), b_idx.len());
    debug_assert_eq!(out.len(), a_idx.len());
    dispatch!(FUSE, out => gather_rowwise_dot_body::<FUSE>(cols, a, b, a_idx, b_idx, out))
}

#[inline(always)]
fn scatter_scaled_rows_body<const FUSE: bool>(
    cols: usize,
    g: &[f32],
    src: &[f32],
    src_idx: &[usize],
    dst: &mut [f32],
    dst_idx: &[usize],
) {
    for ((&gv, &is), &id) in g.iter().zip(src_idx.iter()).zip(dst_idx.iter()) {
        axpy_body::<FUSE>(
            gv,
            &mut dst[id * cols..(id + 1) * cols],
            &src[is * cols..(is + 1) * cols],
        );
    }
}

/// Backward of [`gather_rowwise_dot`] for one operand:
/// `dst[dst_idx[k]] += g[k] * src[src_idx[k]]` — the gradient rows are
/// scattered straight into the destination table, so no intermediate
/// `batch x cols` gradient matrix ever exists.
pub fn scatter_scaled_rows(cols: usize, g: &[f32], src: &[f32], src_idx: &[usize], dst: &mut [f32], dst_idx: &[usize]) {
    debug_assert_eq!(g.len(), src_idx.len());
    debug_assert_eq!(g.len(), dst_idx.len());
    dispatch!(FUSE, dst => scatter_scaled_rows_body::<FUSE>(cols, g, src, src_idx, dst, dst_idx))
}

// ---------------------------------------------------------------------------
// CSR sparse-dense products
// ---------------------------------------------------------------------------

/// Borrowed view of a CSR matrix's raw storage, the sparse operand type of
/// the spmm kernels (built by [`CsrMatrix::view`](crate::sparse::CsrMatrix)).
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointers, length `rows + 1`.
    pub indptr: &'a [usize],
    /// Column indices per stored entry.
    pub indices: &'a [u32],
    /// Values per stored entry.
    pub values: &'a [f32],
}

/// Reference loop for [`spmm`] (the seed implementation):
/// `out (rows x n) = S * D` with `D` dense `(S.cols x n)`; every output row
/// is overwritten, entry contents are ignored.
pub fn spmm_serial(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), s.rows * n);
    spmm_body::<false>(0, s.rows, s, n, dense, out);
}

/// Per-output-row spmm over rows `[r0, r1)`. Each output row is zeroed
/// right before its accumulation (while the cache line is hot), so callers
/// may pass recycled storage with arbitrary contents.
#[inline(always)]
fn spmm_body<const FUSE: bool>(r0: usize, r1: usize, s: CsrView<'_>, n: usize, dense: &[f32], out_rows: &mut [f32]) {
    for r in r0..r1 {
        let out_row = &mut out_rows[(r - r0) * n..(r - r0 + 1) * n];
        out_row.fill(0.0);
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<FUSE>(s.values[e], out_row, &dense[c * n..(c + 1) * n]);
        }
    }
}

/// Sparse-dense product `out (S.rows x n) = S * D`; every output row is
/// overwritten (zeroed in-kernel before accumulation), entry contents are
/// ignored. Output rows are independent, so the threaded driver chunks them
/// exactly like the dense kernels.
pub fn spmm(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), s.rows * n);
    if s.rows == 0 || n == 0 {
        return;
    }
    row_chunked(out, n, s.rows, s.values.len() * n, |r0, r1, rows| {
        dispatch!(FUSE, rows => spmm_body::<FUSE>(r0, r1, s, n, dense, rows));
    });
}

/// Row-subset sparse-dense product: computes only the selected `rows` of
/// `S * D`, compacted into `out` (`rows.len() x n`, `out[i]` = row `rows[i]`
/// of the full product).
///
/// Each selected row runs the *same* per-row body as [`spmm`] (same ISA
/// tier, same accumulation order over the row's nonzeros), so `out[i]`
/// is **bitwise identical** to the corresponding row of a full [`spmm`] —
/// the property the incremental re-encode path builds its full-rebuild
/// parity on (`tests/delta_parity.rs`). Dirty sets are small and scattered,
/// so the subset path always runs inline on the calling thread.
pub fn spmm_rows(s: CsrView<'_>, rows: &[u32], n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.cols * n);
    debug_assert_eq!(out.len(), rows.len() * n);
    if n == 0 {
        return;
    }
    for (i, &r) in rows.iter().enumerate() {
        let r = r as usize;
        debug_assert!(r < s.rows);
        let row = &mut out[i * n..(i + 1) * n];
        dispatch!(FUSE, row => spmm_body::<FUSE>(r, r + 1, s, n, dense, row));
    }
}

/// Scatter pass of [`spmm_transpose`] (`out (S.cols x n) = S^T * D` with `D`
/// dense `(S.rows x n)`, without materialising the transpose) restricted to
/// dense/output columns `[j0, j1)`; `out_cols` holds those columns of every
/// output row, contiguously per row (`(j1 - j0)`-wide rows).
#[inline(always)]
fn spmm_transpose_cols<const FUSE: bool>(
    s: CsrView<'_>,
    n: usize,
    dense: &[f32],
    out_cols: &mut [f32],
    j0: usize,
    j1: usize,
) {
    let w = j1 - j0;
    for r in 0..s.rows {
        let d_row = &dense[r * n + j0..r * n + j1];
        for e in s.indptr[r]..s.indptr[r + 1] {
            let c = s.indices[e] as usize;
            axpy_body::<FUSE>(s.values[e], &mut out_cols[c * w..(c + 1) * w], d_row);
        }
    }
}

/// Transposed sparse-dense product `out (S.cols x n) = S^T * D`, `out`
/// zeroed on entry.
///
/// The scatter pattern writes rows of `out` indexed by *column* of `S`, so
/// output rows are not independent across input rows. The threaded driver
/// therefore splits the *dense columns* instead: each thread owns a disjoint
/// column band, accumulates it in a private buffer (same row-major order as
/// the reference, so per-element accumulation order is unchanged) and the
/// bands are copied back after the join.
pub fn spmm_transpose(s: CsrView<'_>, n: usize, dense: &[f32], out: &mut [f32]) {
    debug_assert_eq!(dense.len(), s.rows * n);
    debug_assert_eq!(out.len(), s.cols * n);
    if s.cols == 0 || n == 0 {
        return;
    }
    // Every band worker re-walks the full CSR structure, so duplicated
    // sparse-index traffic grows with the thread count. Cap the split so
    // each band is at least MIN_BAND dense columns wide; narrow problems
    // (n below 2 * MIN_BAND) stay serial.
    const MIN_BAND: usize = 64;
    let threads = plan_threads(n, s.values.len() * n).min((n / MIN_BAND).max(1));
    let scatter = |j0: usize, j1: usize, out_cols: &mut [f32]| dispatch!(FUSE, out_cols => spmm_transpose_cols::<FUSE>(s, n, dense, out_cols, j0, j1));
    if threads == 1 {
        scatter(0, n, out);
        return;
    }
    #[cfg(feature = "parallel")]
    {
        let band = n.div_ceil(threads);
        let bands: Vec<(usize, usize)> = (0..threads)
            .map(|t| (t * band, ((t + 1) * band).min(n)))
            .filter(|(j0, j1)| j1 > j0)
            .collect();
        let mut buffers: Vec<Vec<f32>> = Vec::with_capacity(bands.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = bands
                .iter()
                .map(|&(j0, j1)| {
                    scope.spawn(move || {
                        let mut buf = vec![0.0f32; s.cols * (j1 - j0)];
                        scatter(j0, j1, &mut buf);
                        buf
                    })
                })
                .collect();
            for h in handles {
                buffers.push(h.join().expect("spmm_transpose worker panicked"));
            }
        });
        for (&(j0, j1), buf) in bands.iter().zip(buffers.iter()) {
            let w = j1 - j0;
            for c in 0..s.cols {
                out[c * n + j0..c * n + j1].copy_from_slice(&buf[c * w..(c + 1) * w]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Candidate-scoring kernels (the evaluation hot path)
// ---------------------------------------------------------------------------
//
// The leave-one-out ranking protocol scores one user vector against ~1000
// candidate item rows gathered by index. These are the evaluation-side
// siblings of [`gather_rowwise_dot`]: one fixed row against many gathered
// rows, for both score functions of the shared scorer (inner product and
// CML-style negative squared distance), with the same ISA dispatch as the
// dense kernels so the per-candidate reductions run 8/16-wide.

/// Reference loop for [`score_candidates_dot`] (the seed scalar scorer):
/// sequential accumulation, matching a plain `zip().map().sum()` pair score.
pub fn score_candidates_dot_serial(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    debug_assert_eq!(user.len(), cols);
    debug_assert_eq!(out.len(), items.len());
    for (o, &it) in out.iter_mut().zip(items.iter()) {
        let row = &table[it as usize * cols..(it as usize + 1) * cols];
        let mut acc = 0.0f32;
        for (&u, &v) in user.iter().zip(row.iter()) {
            acc += u * v;
        }
        *o = acc;
    }
}

/// Reference loop for [`score_candidates_neg_sq_dist`].
pub fn score_candidates_neg_sq_dist_serial(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    debug_assert_eq!(user.len(), cols);
    debug_assert_eq!(out.len(), items.len());
    for (o, &it) in out.iter_mut().zip(items.iter()) {
        let row = &table[it as usize * cols..(it as usize + 1) * cols];
        let mut acc = 0.0f32;
        for (&u, &v) in user.iter().zip(row.iter()) {
            let d = u - v;
            acc += d * d;
        }
        *o = -acc;
    }
}

/// One lane-wise accumulation step of the candidate scorer.
#[inline(always)]
fn score_lane<const DOT: bool, const FUSE: bool>(acc: f32, u: f32, v: f32) -> f32 {
    if DOT {
        if FUSE {
            u.mul_add(v, acc)
        } else {
            acc + u * v
        }
    } else {
        let d = u - v;
        if FUSE {
            d.mul_add(d, acc)
        } else {
            acc + d * d
        }
    }
}

/// Scalar tail + sign of one candidate's reduction.
#[inline(always)]
fn score_finish<const DOT: bool>(lanes: &[f32; 8], user_tail: &[f32], row_tail: &[f32]) -> f32 {
    // Pairwise tree reduction: 3 dependent adds instead of the 7 a
    // sequential `lanes.iter().sum()` would chain — at typical embedding
    // widths the horizontal sum is a visible share of the per-candidate
    // cost.
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (&u, &v) in user_tail.iter().zip(row_tail.iter()) {
        acc = score_lane::<DOT, false>(acc, u, v);
    }
    if DOT {
        acc
    } else {
        -acc
    }
}

/// `DOT = true` computes inner products, `DOT = false` negative squared
/// Euclidean distances. `LANES` independent partial sums per candidate keep
/// the reduction in vector registers (so agreement with the serial
/// reference is approximate, not bitwise), and candidates are processed in
/// blocks of four so each user chunk is loaded once per block and the four
/// accumulation chains run in parallel.
#[inline(always)]
fn score_candidates_body<const DOT: bool, const FUSE: bool>(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    const LANES: usize = 8;
    const CAND_BLOCK: usize = 4;
    let whole = cols - cols % LANES;
    let mut c = 0usize;
    while c + CAND_BLOCK <= items.len() {
        let rows: [&[f32]; CAND_BLOCK] = std::array::from_fn(|b| {
            let it = items[c + b] as usize;
            &table[it * cols..(it + 1) * cols]
        });
        let mut acc = [[0.0f32; LANES]; CAND_BLOCK];
        let mut p = 0usize;
        while p < whole {
            let uc: &[f32; LANES] = user[p..p + LANES].try_into().expect("LANES-sized chunk");
            for b in 0..CAND_BLOCK {
                let rc: &[f32; LANES] = rows[b][p..p + LANES].try_into().expect("LANES-sized chunk");
                for l in 0..LANES {
                    acc[b][l] = score_lane::<DOT, FUSE>(acc[b][l], uc[l], rc[l]);
                }
            }
            p += LANES;
        }
        for b in 0..CAND_BLOCK {
            out[c + b] = score_finish::<DOT>(&acc[b], &user[whole..], &rows[b][whole..]);
        }
        c += CAND_BLOCK;
    }
    for (o, &it) in out[c..].iter_mut().zip(items[c..].iter()) {
        let row = &table[it as usize * cols..(it as usize + 1) * cols];
        let mut lanes = [0.0f32; LANES];
        let mut p = 0usize;
        while p < whole {
            let uc: &[f32; LANES] = user[p..p + LANES].try_into().expect("LANES-sized chunk");
            let rc: &[f32; LANES] = row[p..p + LANES].try_into().expect("LANES-sized chunk");
            for l in 0..LANES {
                lanes[l] = score_lane::<DOT, FUSE>(lanes[l], uc[l], rc[l]);
            }
            p += LANES;
        }
        *o = score_finish::<DOT>(&lanes, &user[whole..], &row[whole..]);
    }
}

/// Explicit AVX2+FMA body: four 256-bit accumulators (one per candidate)
/// share each user chunk, and the four horizontal sums collapse through the
/// classic `hadd`/`hadd`/`hadd` + 128-bit fold into a single `__m128`
/// holding all four scores. The per-candidate horizontal reduction is what
/// limits the autovectorised formulation at typical embedding widths
/// (`cols` 32-128), so it is hand-scheduled here.
///
/// # Safety
/// Requires AVX2+FMA; `items` must index valid rows of `table` and
/// `user.len() == cols` (both checked by [`score_candidates_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn score_candidates_x86<const DOT: bool>(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const LANES: usize = 8;
    const CAND_BLOCK: usize = 4;
    let whole = cols - cols % LANES;
    let u_ptr = user.as_ptr();
    let t_ptr = table.as_ptr();

    #[inline(always)]
    unsafe fn accumulate<const DOT: bool>(acc: __m256, u: __m256, r: __m256) -> __m256 {
        if DOT {
            _mm256_fmadd_ps(u, r, acc)
        } else {
            let d = _mm256_sub_ps(u, r);
            _mm256_fmadd_ps(d, d, acc)
        }
    }

    let mut c = 0usize;
    while c + CAND_BLOCK <= items.len() {
        let r0 = t_ptr.add(items[c] as usize * cols);
        let r1 = t_ptr.add(items[c + 1] as usize * cols);
        let r2 = t_ptr.add(items[c + 2] as usize * cols);
        let r3 = t_ptr.add(items[c + 3] as usize * cols);
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let mut p = 0usize;
        while p < whole {
            let u = _mm256_loadu_ps(u_ptr.add(p));
            a0 = accumulate::<DOT>(a0, u, _mm256_loadu_ps(r0.add(p)));
            a1 = accumulate::<DOT>(a1, u, _mm256_loadu_ps(r1.add(p)));
            a2 = accumulate::<DOT>(a2, u, _mm256_loadu_ps(r2.add(p)));
            a3 = accumulate::<DOT>(a3, u, _mm256_loadu_ps(r3.add(p)));
            p += LANES;
        }
        // hadd tree: t2's 128-bit halves hold [s0,s1,s2,s3] partials.
        let t0 = _mm256_hadd_ps(a0, a1);
        let t1 = _mm256_hadd_ps(a2, a3);
        let t2 = _mm256_hadd_ps(t0, t1);
        let sums = _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
        let mut four = [0.0f32; CAND_BLOCK];
        _mm_storeu_ps(four.as_mut_ptr(), sums);
        for (b, row) in [r0, r1, r2, r3].into_iter().enumerate() {
            let mut acc = four[b];
            for q in whole..cols {
                let (uv, rv) = (*u_ptr.add(q), *row.add(q));
                if DOT {
                    acc += uv * rv;
                } else {
                    let d = uv - rv;
                    acc += d * d;
                }
            }
            out[c + b] = if DOT { acc } else { -acc };
        }
        c += CAND_BLOCK;
    }
    // Tail candidates go through the generic body (same lane scheme).
    score_candidates_body::<DOT, true>(cols, user, table, &items[c..], &mut out[c..]);
}

/// Runs the f32 scorer on tier `isa`: the generic lane body on the portable
/// tier, the hand-scheduled [`score_candidates_x86`] on every SIMD tier (its
/// lanes are explicit 256-bit, so AVX-512 has nothing to add).
///
/// # Safety
/// The CPU must support `isa`, and the arguments must satisfy the geometry
/// asserts of [`score_candidates_dispatch`].
unsafe fn score_candidates_on<const DOT: bool>(
    isa: Isa,
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    match isa {
        Isa::Portable => score_candidates_body::<DOT, false>(cols, user, table, items, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 | Isa::Avx512Vnni => score_candidates_x86::<DOT>(cols, user, table, items, out),
    }
}

fn score_candidates_dispatch<const DOT: bool>(
    cols: usize,
    user: &[f32],
    table: &[f32],
    items: &[u32],
    out: &mut [f32],
) {
    // Real (release-mode) validation: the SIMD bodies read the table through
    // raw pointers, so an out-of-range candidate id or a short user row must
    // fail loudly here rather than read out of bounds. One compare per
    // candidate against ~`cols` FLOPs of scoring is noise.
    assert_eq!(user.len(), cols, "user row length must equal cols");
    assert_eq!(out.len(), items.len(), "one output score per candidate");
    if let Some(&max_idx) = items.iter().max() {
        assert!(
            (max_idx as usize + 1)
                .checked_mul(cols)
                .is_some_and(|end| end <= table.len()),
            "candidate id {max_idx} out of bounds for a table of {} rows",
            table.len().checked_div(cols).unwrap_or(0)
        );
    }
    // SAFETY: `isa()` only reports tiers `detect_isa()` verified, and the
    // asserts above are the geometry the SIMD body relies on.
    unsafe { score_candidates_on::<DOT>(isa(), cols, user, table, items, out) }
}

/// Fused candidate scoring by inner product:
/// `out[k] = <user, table[items[k]]>`. One gather + reduction pass, no
/// intermediate `batch x cols` matrix. Indices must be in bounds.
pub fn score_candidates_dot(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    score_candidates_dispatch::<true>(cols, user, table, items, out)
}

/// Fused candidate scoring by negative squared Euclidean distance
/// (CML-style metric scoring): `out[k] = -||user - table[items[k]]||^2`.
pub fn score_candidates_neg_sq_dist(cols: usize, user: &[f32], table: &[f32], items: &[u32], out: &mut [f32]) {
    score_candidates_dispatch::<false>(cols, user, table, items, out)
}

// ---------------------------------------------------------------------------
// Int8 quantised candidate scoring (the quantised serve hot path)
// ---------------------------------------------------------------------------
//
// Frozen embedding tables quantise to one i8 per element with a per-row f32
// scale (`value ~= scale * q`), cutting table traffic ~4x. The user vector
// is quantised per request into *offset-binary* u8 (`stored = q + 128`), the
// operand layout of AVX-512 VNNI's `vpdpbusd` (u8 x i8 dot-accumulate). The
// kernels below compute the integer dot
//
//   dot = sum_p (user[p] - 128) * row[p]          (exact, i32)
//
// three ways — scalar, AVX2 widening `pmaddwd`, and VNNI `vpdpbusd` with the
// `128 * sum(row)` bias folded out via the table's precomputed row sums —
// and all three produce the *same* i32 (integer addition is associative and
// the value ranges rule out overflow/saturation), so after the shared f32
// combine the whole kernel is bitwise identical across ISA tiers: a stronger
// determinism story than the f32 scorers, pinned by exact-equality tests.
//
// Score reconstruction from the integer dot:
//   dot product:   su * sr * dot
//   neg-sq-dist:  -(su^2 * |u|^2 - 2 su sr dot + sr^2 * |r|^2)
// with |u|^2, |r|^2 the integer self-dots carried next to the tables.

/// Borrowed view of a quantised embedding table — the int8 operand of the
/// quantised scoring kernels (built by
/// [`QuantizedTable::view`](crate::quant::QuantizedTable::view)).
#[derive(Debug, Clone, Copy)]
pub struct QuantView<'a> {
    /// Embedding width (bytes per row).
    pub cols: usize,
    /// Row-major i8 codes, `rows * cols` long.
    pub data: &'a [i8],
    /// Per-row dequantisation scale, `rows` long.
    pub scales: &'a [f32],
    /// Per-row `sum(q)` (i32), used to fold the u8 offset bias out of the
    /// VNNI dot.
    pub row_sums: &'a [i32],
    /// Per-row `sum(q^2)` (i32), used by the negative-distance score.
    pub row_norms: &'a [i32],
}

/// A per-request quantised user vector in offset-binary u8 (`stored =
/// q + 128`), with its scale and integer self-dot `sum(q^2)`.
#[derive(Debug, Clone, Copy)]
pub struct QuantUser<'a> {
    /// Offset-binary codes, `cols` long.
    pub q: &'a [u8],
    /// Dequantisation scale of the user vector.
    pub scale: f32,
    /// Integer self-dot `sum(q^2)` of the (un-offset) codes.
    pub norm: i32,
}

/// Shared scalar reconstruction of a candidate's f32 score from its exact
/// integer dot. Single implementation for every ISA body, so the quantised
/// kernel's output is bitwise identical across dispatch tiers.
#[inline(always)]
fn quant_combine<const DOT: bool>(su: f32, sr: f32, dot: i32, u_norm: i32, r_norm: i32) -> f32 {
    if DOT {
        (su * sr) * dot as f32
    } else {
        let uu = (su * su) * u_norm as f32;
        let rr = (sr * sr) * r_norm as f32;
        let cross = 2.0 * (su * sr) * dot as f32;
        -(uu - cross + rr)
    }
}

/// Reference loop for [`score_candidates_quant_dot`]: plain i32 accumulation
/// in index order. The SIMD bodies must match it *exactly* (integer
/// equality of the dot, bitwise equality of the combined score).
pub fn score_candidates_quant_dot_serial(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32], out: &mut [f32]) {
    score_candidates_quant_body::<true>(table, user, items, out)
}

/// Reference loop for [`score_candidates_quant_neg_sq_dist`].
pub fn score_candidates_quant_neg_sq_dist_serial(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    score_candidates_quant_body::<false>(table, user, items, out)
}

/// Portable body: scalar i32 multiply-accumulate per candidate.
#[inline(always)]
fn score_candidates_quant_body<const DOT: bool>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    let cols = table.cols;
    for (o, &it) in out.iter_mut().zip(items.iter()) {
        let it = it as usize;
        let row = &table.data[it * cols..(it + 1) * cols];
        let mut dot = 0i32;
        for (&uq, &rq) in user.q.iter().zip(row.iter()) {
            dot += (uq as i32 - 128) * rq as i32;
        }
        *o = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
    }
}

/// AVX2 widening body: 16 bytes per step through `cvtepu8/cvtepi8` to i16,
/// subtract the 128 offset in 16-bit lanes, then `pmaddwd` pairs into i32.
/// No saturation is possible (|products| <= 127^2, pair sums < 2^15.5), so
/// the accumulated dot is exact.
///
/// # Safety
/// Requires AVX2; argument geometry validated by [`validate_quant_args`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_candidates_quant_avx2<const DOT: bool>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const STEP: usize = 16;
    let cols = table.cols;
    let whole = cols - cols % STEP;
    let u_ptr = user.q.as_ptr();
    let t_ptr = table.data.as_ptr();
    let offset = _mm256_set1_epi16(128);
    for (o, &it) in out.iter_mut().zip(items.iter()) {
        let it = it as usize;
        let r_ptr = t_ptr.add(it * cols);
        let mut acc = _mm256_setzero_si256();
        let mut p = 0usize;
        while p < whole {
            let u16x = _mm256_sub_epi16(
                _mm256_cvtepu8_epi16(_mm_loadu_si128(u_ptr.add(p) as *const __m128i)),
                offset,
            );
            let r16x = _mm256_cvtepi8_epi16(_mm_loadu_si128(r_ptr.add(p) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(u16x, r16x));
            p += STEP;
        }
        let mut dot = hsum_epi32(acc);
        for q in whole..cols {
            dot += (*u_ptr.add(q) as i32 - 128) * *r_ptr.add(q) as i32;
        }
        *o = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
    }
}

/// Horizontal sum of eight i32 lanes (exact — integer adds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: std::arch::x86_64::__m256i) -> i32 {
    use std::arch::x86_64::*;
    let quad = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let pair = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0b0100_1110));
    _mm_cvtsi128_si32(_mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0b0101_0101)))
}

/// AVX-512 VNNI body: `vpdpbusd` fuses the u8 x i8 multiply and the i32
/// accumulate, 32 bytes per instruction. The raw product is the *biased*
/// dot `sum(stored_u * row) = dot + 128 * sum(row)`; the precomputed row
/// sum folds the bias back out exactly. Candidates run four at a time so
/// each 32-byte user load feeds four accumulation chains (mirroring the f32
/// scorer's block scheme).
///
/// Width 32 — the serving dim — gets a dedicated fast path for runs of
/// *consecutive* candidate ids (the shape every serve chunk has): one
/// 512-bit row load covers two adjacent 32-byte rows, so eight candidates
/// cost four loads and four `vpdpbusd`s, and the per-candidate epilogue
/// (bias fold + score reconstruction) runs 8-wide on contiguous metadata.
/// The vector epilogue applies the *same* IEEE operations in the same
/// order as [`quant_combine`], lane by lane, so the fast path stays
/// bitwise identical to the scalar reference.
///
/// # Safety
/// Requires AVX-512VNNI/VL; argument geometry validated by
/// [`validate_quant_args`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512vnni,avx2,fma")]
unsafe fn score_candidates_quant_vnni<const DOT: bool>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    const STEP: usize = 32;
    const CAND_BLOCK: usize = 4;
    let cols = table.cols;
    let whole = cols - cols % STEP;
    let u_ptr = user.q.as_ptr();
    let t_ptr = table.data.as_ptr();

    let mut c = 0usize;
    if cols == 32 {
        let u256 = _mm256_loadu_si256(u_ptr as *const __m256i);
        let u512 = _mm512_inserti64x4(_mm512_castsi256_si512(u256), u256, 1);
        let zero = _mm512_setzero_si512();
        let su = _mm256_set1_ps(user.scale);
        let uu = _mm256_set1_ps((user.scale * user.scale) * user.norm as f32);
        let two = _mm256_set1_ps(2.0);
        let sign = _mm256_set1_ps(-0.0);
        while c + 8 <= items.len() && (1..8).all(|b| items[c + b] == items[c] + b as u32) {
            let it0 = items[c] as usize;
            let base = t_ptr.add(it0 * 32);
            // Four 64-byte loads, each one covering candidate rows
            // (it0+2b, it0+2b+1); the user vector sits in both zmm halves,
            // so one `vpdpbusd` accumulates both rows' lane partials.
            let a0 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base as *const __m512i));
            let a1 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base.add(64) as *const __m512i));
            let a2 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base.add(128) as *const __m512i));
            let a3 = _mm512_dpbusd_epi32(zero, u512, _mm512_loadu_si512(base.add(192) as *const __m512i));
            // hadd tree over the eight 8-lane halves -> [s0..s7] in id
            // order (exact — integer adds only).
            let lo = _mm256_hadd_epi32(
                _mm256_hadd_epi32(_mm512_castsi512_si256(a0), _mm512_extracti64x4_epi64(a0, 1)),
                _mm256_hadd_epi32(_mm512_castsi512_si256(a1), _mm512_extracti64x4_epi64(a1, 1)),
            );
            let hi = _mm256_hadd_epi32(
                _mm256_hadd_epi32(_mm512_castsi512_si256(a2), _mm512_extracti64x4_epi64(a2, 1)),
                _mm256_hadd_epi32(_mm512_castsi512_si256(a3), _mm512_extracti64x4_epi64(a3, 1)),
            );
            let four_lo = _mm_add_epi32(_mm256_castsi256_si128(lo), _mm256_extracti128_si256(lo, 1));
            let four_hi = _mm_add_epi32(_mm256_castsi256_si128(hi), _mm256_extracti128_si256(hi, 1));
            let biased = _mm256_set_m128i(four_hi, four_lo);
            // Bias fold: dot = biased - 128 * row_sum, exact in i32.
            let row_sums = _mm256_loadu_si256(table.row_sums.as_ptr().add(it0) as *const __m256i);
            let dot = _mm256_cvtepi32_ps(_mm256_sub_epi32(biased, _mm256_slli_epi32(row_sums, 7)));
            let scales = _mm256_loadu_ps(table.scales.as_ptr().add(it0));
            // Lane-for-lane the same IEEE multiply/add/negate sequence as
            // `quant_combine` — association preserved, so bitwise identical.
            let su_sr = _mm256_mul_ps(su, scales);
            let scores = if DOT {
                _mm256_mul_ps(su_sr, dot)
            } else {
                let norms = _mm256_loadu_si256(table.row_norms.as_ptr().add(it0) as *const __m256i);
                let rr = _mm256_mul_ps(_mm256_mul_ps(scales, scales), _mm256_cvtepi32_ps(norms));
                let cross = _mm256_mul_ps(_mm256_mul_ps(two, su_sr), dot);
                _mm256_xor_ps(_mm256_add_ps(_mm256_sub_ps(uu, cross), rr), sign)
            };
            _mm256_storeu_ps(out.as_mut_ptr().add(c), scores);
            c += 8;
        }
    }
    while c + CAND_BLOCK <= items.len() {
        let rows: [*const i8; CAND_BLOCK] = std::array::from_fn(|b| t_ptr.add(items[c + b] as usize * cols));
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        let mut p = 0usize;
        while p < whole {
            let u = _mm256_loadu_si256(u_ptr.add(p) as *const __m256i);
            a0 = _mm256_dpbusd_epi32(a0, u, _mm256_loadu_si256(rows[0].add(p) as *const __m256i));
            a1 = _mm256_dpbusd_epi32(a1, u, _mm256_loadu_si256(rows[1].add(p) as *const __m256i));
            a2 = _mm256_dpbusd_epi32(a2, u, _mm256_loadu_si256(rows[2].add(p) as *const __m256i));
            a3 = _mm256_dpbusd_epi32(a3, u, _mm256_loadu_si256(rows[3].add(p) as *const __m256i));
            p += STEP;
        }
        // hadd tree: collapses the four 8-lane accumulators into one
        // `__m128i` holding [s0, s1, s2, s3] (exact — integer adds).
        let t0 = _mm256_hadd_epi32(a0, a1);
        let t1 = _mm256_hadd_epi32(a2, a3);
        let t2 = _mm256_hadd_epi32(t0, t1);
        let sums = _mm_add_epi32(_mm256_castsi256_si128(t2), _mm256_extracti128_si256(t2, 1));
        let mut four = [0i32; CAND_BLOCK];
        _mm_storeu_si128(four.as_mut_ptr() as *mut __m128i, sums);
        for (b, &row) in rows.iter().enumerate() {
            let it = items[c + b] as usize;
            let mut biased = four[b];
            for q in whole..cols {
                biased += *u_ptr.add(q) as i32 * *row.add(q) as i32;
            }
            let dot = biased - 128 * table.row_sums[it];
            out[c + b] = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
        }
        c += CAND_BLOCK;
    }
    for (o, &itu) in out[c..].iter_mut().zip(items[c..].iter()) {
        let it = itu as usize;
        let r_ptr = t_ptr.add(it * cols);
        let mut acc = _mm256_setzero_si256();
        let mut p = 0usize;
        while p < whole {
            let u = _mm256_loadu_si256(u_ptr.add(p) as *const __m256i);
            acc = _mm256_dpbusd_epi32(acc, u, _mm256_loadu_si256(r_ptr.add(p) as *const __m256i));
            p += STEP;
        }
        let mut biased = hsum_epi32(acc);
        for q in whole..cols {
            biased += *u_ptr.add(q) as i32 * *r_ptr.add(q) as i32;
        }
        let dot = biased - 128 * table.row_sums[it];
        *o = quant_combine::<DOT>(user.scale, table.scales[it], dot, user.norm, table.row_norms[it]);
    }
}

/// Release-mode geometry validation of the quantised scorers: the SIMD
/// bodies read through raw pointers, so a bad candidate id or a short operand
/// must fail loudly here.
fn validate_quant_args(table: &QuantView<'_>, user: &QuantUser<'_>, items: &[u32], out: &[f32]) {
    assert_eq!(user.q.len(), table.cols, "user row length must equal cols");
    assert_eq!(out.len(), items.len(), "one output score per candidate");
    let rows = table.data.len().checked_div(table.cols).unwrap_or(0);
    assert!(
        table.scales.len() >= rows && table.row_sums.len() >= rows && table.row_norms.len() >= rows,
        "quantised table metadata shorter than its row count"
    );
    if let Some(&max_idx) = items.iter().max() {
        assert!(
            (max_idx as usize + 1)
                .checked_mul(table.cols)
                .is_some_and(|end| end <= table.data.len())
                && (max_idx as usize) < table.scales.len(),
            "candidate id {max_idx} out of bounds for a table of {rows} rows"
        );
    }
}

/// Runs the quantised scorer on tier `isa`. Plain AVX-512 (no VNNI) machines
/// run the AVX2 widening body — the 256-bit `pmaddwd` loop is already
/// load-bound at serving widths.
///
/// # Safety
/// The CPU must support `isa`, and the arguments must have passed
/// [`validate_quant_args`].
unsafe fn score_candidates_quant_on<const DOT: bool>(
    isa: Isa,
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    match isa {
        Isa::Portable => score_candidates_quant_body::<DOT>(table, user, items, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 => score_candidates_quant_avx2::<DOT>(table, user, items, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => score_candidates_quant_vnni::<DOT>(table, user, items, out),
    }
}

fn score_candidates_quant_dispatch<const DOT: bool>(
    table: QuantView<'_>,
    user: QuantUser<'_>,
    items: &[u32],
    out: &mut [f32],
) {
    validate_quant_args(&table, &user, items, out);
    // SAFETY: `isa()` only reports tiers `detect_isa()` verified, and the
    // arguments were validated on the line above.
    unsafe { score_candidates_quant_on::<DOT>(isa(), table, user, items, out) }
}

/// Quantised candidate scoring by inner product:
/// `out[k] ~= <user, table[items[k]]>` reconstructed from the exact integer
/// dot as `user.scale * scales[items[k]] * dot`. Bitwise identical across
/// ISA tiers (see the module notes above).
pub fn score_candidates_quant_dot(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32], out: &mut [f32]) {
    score_candidates_quant_dispatch::<true>(table, user, items, out)
}

/// Quantised candidate scoring by negative squared Euclidean distance,
/// reconstructed from the integer dot and the stored integer self-dots.
pub fn score_candidates_quant_neg_sq_dist(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32], out: &mut [f32]) {
    score_candidates_quant_dispatch::<false>(table, user, items, out)
}

// ---------------------------------------------------------------------------
// Elementwise accumulation kernels (gradient and optimizer update loops)
// ---------------------------------------------------------------------------

/// Reference loop for [`axpy`] (the seed implementation).
pub fn axpy_serial(alpha: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += alpha * s;
    }
}

/// `dst += alpha * src`: the body of [`axpy`], and the row update inside the
/// sparse products and [`scatter_scaled_rows`].
#[inline(always)]
fn axpy_body<const FUSE: bool>(alpha: f32, dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if FUSE {
            *d = alpha.mul_add(s, *d);
        } else {
            *d += alpha * s;
        }
    }
}

/// Elementwise `dst += alpha * src` (scaled gradient accumulation), SIMD
/// dispatched and chunk-threaded like the dense products (a buffer is
/// `len` rows of one column to `row_chunked`). Elementwise loops are
/// memory-bound, so the parallel split only engages for buffers past
/// [`PAR_MIN_FLOPS`] elements.
pub fn axpy(alpha: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    row_chunked(dst, 1, dst.len(), dst.len(), |i0, i1, d| {
        dispatch!(FUSE, d => axpy_body::<FUSE>(alpha, d, &src[i0..i1]));
    });
}

/// Elementwise `dst += src` (gradient accumulation).
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    axpy(1.0, dst, src);
}

/// Reference loop for [`scale_add`] (the seed formulation as two passes
/// collapsed into one).
pub fn scale_add_serial(beta: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = beta * *d + s;
    }
}

#[inline(always)]
fn scale_add_body<const FUSE: bool>(beta: f32, dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if FUSE {
            *d = beta.mul_add(*d, s);
        } else {
            *d = beta * *d + s;
        }
    }
}

/// Elementwise `dst = beta * dst + src` (the momentum / moving-average
/// update), SIMD dispatched with the same threaded driver as [`axpy`].
pub fn scale_add(beta: f32, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    row_chunked(dst, 1, dst.len(), dst.len(), |i0, i1, d| {
        dispatch!(FUSE, d => scale_add_body::<FUSE>(beta, d, &src[i0..i1]));
    });
}

// ---------------------------------------------------------------------------
// Dispatched generic elementwise loops
// ---------------------------------------------------------------------------
//
// The tape's elementwise ops (add, mul, LeakyReLU, dropout, backward
// accumulation closures) are pure arithmetic, but without `target_feature`
// the compiler may only vectorise them at the baseline SSE width. These
// entry points re-enter the same ISA dispatch seam as the dense kernels with
// the closure inlined into the feature-annotated trampoline, so the loops run
// 8/16-wide. Closures must be branch-light (selects are fine) for the
// vectoriser to succeed.

#[inline(always)]
fn map_body<F: Fn(f32) -> f32>(x: &[f32], out: &mut [f32], f: &F) {
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = f(v);
    }
}

/// Elementwise `out[i] = f(x[i])` through the SIMD dispatch seam.
pub fn map(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(x.len(), out.len());
    dispatch!(out => map_body(x, out, &f))
}

#[inline(always)]
fn zip_body<const ACC: bool, F: Fn(f32, f32) -> f32>(a: &[f32], b: &[f32], out: &mut [f32], f: &F) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        if ACC {
            *o += f(x, y);
        } else {
            *o = f(x, y);
        }
    }
}

/// `out[i] (+)= f(a[i], b[i])`: the shared entry of [`zip`], [`zip_accum`]
/// and the fused backward kernels, `accumulate` selecting `+=` over `=`.
#[inline]
fn zip_into(accumulate: bool, a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    if accumulate {
        dispatch!(out => zip_body::<true, _>(a, b, out, &f))
    } else {
        dispatch!(out => zip_body::<false, _>(a, b, out, &f))
    }
}

/// Elementwise `out[i] = f(a[i], b[i])` through the SIMD dispatch seam.
pub fn zip(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    zip_into(false, a, b, out, f);
}

/// Elementwise `out[i] += f(a[i], b[i])` (fused gradient accumulation)
/// through the SIMD dispatch seam.
pub fn zip_accum(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    zip_into(true, a, b, out, f);
}

/// Fused backward of LeakyReLU: `out (+)= g * (x >= 0 ? 1 : slope)`.
///
/// Folds the gradient-of-activation elementwise product and the accumulation
/// into one pass so no intermediate gradient tensor is materialised;
/// `accumulate` selects `+=` (an upstream gradient already arrived) vs `=`.
pub fn leaky_relu_backward(accumulate: bool, slope: f32, x: &[f32], g: &[f32], out: &mut [f32]) {
    zip_into(
        accumulate,
        x,
        g,
        out,
        move |xv, gv| if xv >= 0.0 { gv } else { gv * slope },
    );
}

/// One fused Adam update pass over a parameter buffer: updates the moment
/// estimates in place and applies the bias-corrected step to `value`,
/// without any of the temporary tensors the unfused formulation needs.
///
/// `bias1 = 1 - beta1^t`, `bias2 = 1 - beta2^t` for step count `t`.
pub fn adam_update(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    beta1: f32,
    beta2: f32,
    eps: f32,
    lr: f32,
    bias1: f32,
    bias2: f32,
) {
    debug_assert_eq!(value.len(), grad.len());
    debug_assert_eq!(value.len(), m.len());
    debug_assert_eq!(value.len(), v.len());
    for i in 0..value.len() {
        let g = grad[i];
        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g);
        let m_hat = m[i] / bias1;
        let v_hat = v[i] / bias2;
        value[i] -= lr * (m_hat / (v_hat.sqrt() + eps));
    }
}

// ---------------------------------------------------------------------------
// Branchless transcendental approximations
// ---------------------------------------------------------------------------
//
// The VBGE forward/backward passes are full of exp/ln-shaped loops (softplus
// heads, sigmoids inside BCE, the log term of the Gaussian KL). libm calls
// serialise those loops; the polynomial approximations below are branchless
// (compares compile to selects), so inside the same `#[target_feature]`
// trampolines as the dense kernels LLVM vectorises the surrounding loops
// 8/16-wide. Maximum relative error is ~2e-7 — far below the 1e-5 parity
// tolerance the kernel suite guarantees and the finite-difference tolerance
// of the gradient checks.

/// Cody-Waite split of `ln 2` shared by [`exp_approx`] and [`ln_approx`].
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Polynomial `exp(x)` (Cephes-style): split `x = n ln2 + r`, evaluate a
/// degree-5 polynomial on `r`, scale by `2^n` through the exponent bits.
/// Underflow saturates to 0 like libm; overflow returns `+inf` (branchless
/// select) so non-finite values still propagate to divergence checks.
#[inline(always)]
pub fn exp_approx(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    let overflow = x > 88.3;
    let x = x.clamp(-87.3, 88.3);
    let n = (x * LOG2E).round();
    let r = x - n * LN2_HI - n * LN2_LO;
    // exp(r) = 1 + r + r^2 * P(r) on |r| <= 0.5 ln2.
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let e = r * r * p + r + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) as u32) << 23);
    if overflow {
        f32::INFINITY
    } else {
        e * scale
    }
}

/// Polynomial `ln(x)` (Cephes-style): split the float into mantissa and
/// exponent, evaluate a degree-8 polynomial on `m - 1`, and recombine with
/// `e ln2`. Non-positive inputs are clamped to the smallest positive normal
/// (callers guard with an epsilon anyway).
#[inline(always)]
pub fn ln_approx(x: f32) -> f32 {
    let x = x.max(f32::MIN_POSITIVE);
    let bits = x.to_bits();
    let mut e = ((bits >> 23) as i32 - 126) as f32;
    let mut m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000); // [0.5, 1)

    // Normalise the mantissa into [1/sqrt2, sqrt2) so the polynomial stays
    // accurate; branchless (compiles to a select/mask).
    let low = m < std::f32::consts::FRAC_1_SQRT_2;
    m = if low { m + m } else { m };
    e = if low { e - 1.0 } else { e };
    let f = m - 1.0;
    let mut p = 7.037_684e-2f32;
    p = p * f - 1.151_461e-1;
    p = p * f + 1.167_699_8e-1;
    p = p * f - 1.242_014_1e-1;
    p = p * f + 1.424_932_3e-1;
    p = p * f - 1.666_805_7e-1;
    p = p * f + 2.000_071_4e-1;
    p = p * f - 2.499_999_3e-1;
    p = p * f + 3.333_333e-1;
    let f2 = f * f;
    let mut r = f2 * f * p;
    r -= 0.5 * f2;
    r + f + e * LN2_HI + e * LN2_LO
}

/// Branchless polynomial `sin(x)` and `cos(x)` in one evaluation
/// (Cephes-style): reduce `x` to `r` in `[-pi/4, pi/4]` with the quadrant
/// count `k` (two-step Cody-Waite reduction so the subtraction stays
/// accurate), evaluate the degree-7 sine and degree-6 cosine minimax
/// polynomials on `r`, then swap/negate per quadrant. All compares compile
/// to selects, so loops over this function vectorise 8/16-wide inside the
/// same `#[target_feature]` trampolines as the other transcendental kernels.
/// Maximum absolute error is ~1e-7 over `|x| <= 4 pi` — far below the 1e-5
/// parity tolerance the kernel suite guarantees (the Box-Muller caller only
/// ever passes `[0, 2 pi)`).
#[inline(always)]
pub fn sin_cos_approx(x: f32) -> (f32, f32) {
    const FRAC_2_PI: f32 = std::f32::consts::FRAC_2_PI;
    // Cody-Waite split of pi/2: the f32-rounded high part plus the residual
    // `pi/2 - (FRAC_PI_2 as f64)`, so the two-step subtraction loses no
    // accuracy over the reduction range.
    const PI_2_HI: f32 = std::f32::consts::FRAC_PI_2;
    const PI_2_LO: f32 = -4.371_139e-8;
    let k = (x * FRAC_2_PI).round();
    let r = x - k * PI_2_HI - k * PI_2_LO;
    let r2 = r * r;
    // sin(r) = r + r^3 P(r^2) on the reduced range.
    let mut ps = -1.951_529_6e-4f32;
    ps = ps * r2 + 8.332_161e-3;
    ps = ps * r2 - 1.666_665_5e-1;
    let sin_r = r2 * r * ps + r;
    // cos(r) = 1 - r^2/2 + r^4 Q(r^2).
    let mut pc = 2.443_315_7e-5f32;
    pc = pc * r2 - 1.388_731_6e-3;
    pc = pc * r2 + 4.166_664_6e-2;
    let cos_r = r2 * r2 * pc - 0.5 * r2 + 1.0;
    // Quadrant fix-up: odd quadrants swap sin/cos, quadrants 2-3 negate the
    // sine, quadrants 1-2 negate the cosine. Branchless selects on lane
    // values.
    let q = k as i32;
    let swap = (q & 1) != 0;
    let s = if swap { cos_r } else { sin_r };
    let c = if swap { sin_r } else { cos_r };
    let s = if (q & 2) != 0 { -s } else { s };
    let c = if ((q + 1) & 2) != 0 { -c } else { c };
    (s, c)
}

/// Branchless sine (see [`sin_cos_approx`]).
#[inline(always)]
pub fn sin_approx(x: f32) -> f32 {
    sin_cos_approx(x).0
}

/// Branchless cosine (see [`sin_cos_approx`]).
#[inline(always)]
pub fn cos_approx(x: f32) -> f32 {
    sin_cos_approx(x).1
}

// ---------------------------------------------------------------------------
// Box-Muller transform (the reparameterisation-noise hot path)
// ---------------------------------------------------------------------------
//
// Every training step fills `n x F` noise buffers with standard-normal
// samples. The uniform draws themselves are cheap; what serialised the loop
// was one libm `ln` and one `sin_cos` call per *pair*. Transforming a whole
// buffer of uniforms at once through the branchless `ln_approx` /
// `sin_cos_approx` polynomials lets LLVM vectorise the entire transform
// 8/16-wide (an open ROADMAP lever since PR 2).

/// Reference scalar transform for [`box_muller`] using libm `ln`/`sin_cos`:
/// the parity baseline (`tests/kernel_parity.rs`) and the pre-vectorisation
/// behaviour benched against in `benches/kernels.rs`.
pub fn box_muller_serial(buf: &mut [f32], std: f32) {
    const TWO_PI: f32 = std::f32::consts::TAU;
    for pair in buf.chunks_exact_mut(2) {
        let u1 = pair[0].max(f32::MIN_POSITIVE);
        let r = (-2.0 * u1.ln()).sqrt() * std;
        let (sin, cos) = (TWO_PI * pair[1]).sin_cos();
        pair[0] = r * cos;
        pair[1] = r * sin;
    }
}

#[inline(always)]
fn box_muller_body(buf: &mut [f32], std: f32) {
    const TWO_PI: f32 = std::f32::consts::TAU;
    for pair in buf.chunks_exact_mut(2) {
        // Clamping u1 away from zero bounds `r` at ~13.2 std deviations, so
        // the transform never produces a non-finite sample (the scalar seed
        // path re-drew on the — practically unreachable — infinite case).
        let u1 = pair[0].max(f32::MIN_POSITIVE);
        let r = (-2.0 * ln_approx(u1)).sqrt() * std;
        let (sin, cos) = sin_cos_approx(TWO_PI * pair[1]);
        pair[0] = r * cos;
        pair[1] = r * sin;
    }
}

/// Transforms a buffer of `Uniform[0, 1)` samples into i.i.d. `N(0, std^2)`
/// samples in place, consuming consecutive pairs `(u1, u2)` per Box-Muller
/// transform (`buf[2k] = r cos(theta)`, `buf[2k+1] = r sin(theta)`). A
/// trailing odd element is left untouched — callers handle it with a scalar
/// draw.
pub fn box_muller(buf: &mut [f32], std: f32) {
    dispatch!(buf => box_muller_body(buf, std))
}

/// Branchless numerically stable sigmoid built on [`exp_approx`].
#[inline(always)]
fn sigmoid_approx(x: f32) -> f32 {
    let e = exp_approx(-x.abs());
    let s = 1.0 / (1.0 + e);
    if x >= 0.0 {
        s
    } else {
        1.0 - s
    }
}

/// Branchless numerically stable softplus `max(x, 0) + ln(1 + exp(-|x|))`
/// built on the approximations above.
#[inline(always)]
fn softplus_approx(x: f32) -> f32 {
    x.max(0.0) + ln_approx(1.0 + exp_approx(-x.abs()))
}

// ---------------------------------------------------------------------------
// Fused forward/backward kernels for the hot loss / activation chains
// ---------------------------------------------------------------------------

/// Numerically stable logistic sigmoid.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + exp(x))`.
pub fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Vectorised softplus: `out[i] = ln(1 + exp(x[i]))`, stable at both tails.
pub fn softplus_forward(x: &[f32], out: &mut [f32]) {
    map(x, out, softplus_approx);
}

/// Vectorised logistic sigmoid: `out[i] = 1 / (1 + exp(-x[i]))`.
pub fn sigmoid_forward(x: &[f32], out: &mut [f32]) {
    map(x, out, sigmoid_approx);
}

/// Vectorised elementwise exponential.
pub fn exp_forward(x: &[f32], out: &mut [f32]) {
    map(x, out, exp_approx);
}

/// Vectorised elementwise natural logarithm of `x + eps`.
pub fn ln_forward(eps: f32, x: &[f32], out: &mut [f32]) {
    map(x, out, move |v| ln_approx(v + eps));
}

/// `sum(term(a[i], b[i]))`: eight f32 lane sums over the whole chunks
/// (vectorisable), folded together with the scalar tail in f64.
#[inline(always)]
fn lane_sum_body(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    const LANES: usize = 8;
    let mut lanes = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..LANES {
            lanes[l] += term(ca[l], cb[l]);
        }
    }
    let mut total = lanes.iter().map(|&v| v as f64).sum::<f64>();
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        total += term(x, y) as f64;
    }
    total as f32
}

/// Fused BCE-with-logits forward: returns
/// `sum( max(x,0) - x*t + ln(1+exp(-|x|)) )` (callers divide by the count).
pub fn bce_logits_forward(logits: &[f32], targets: &[f32]) -> f32 {
    debug_assert_eq!(logits.len(), targets.len());
    dispatch!(lane_sum_body(logits, targets, |x, t| x.max(0.0) - x * t
        + ln_approx(1.0 + exp_approx(-x.abs()))))
}

/// Fused standard-normal KL forward: returns
/// `sum( 0.5 (mu^2 + sigma^2 - 2 ln(sigma + eps) - 1) )` over all elements
/// (callers divide by the row count).
pub fn kl_std_normal_forward(eps: f32, mu: &[f32], sigma: &[f32]) -> f32 {
    debug_assert_eq!(mu.len(), sigma.len());
    dispatch!(lane_sum_body(mu, sigma, |m, s| 0.5 * (m * m + s * s - 2.0 * ln_approx(s + eps) - 1.0)))
}

/// Fused backward of softplus: `out (+)= g * sigmoid(x)`, without
/// materialising the sigmoid tensor.
pub fn softplus_backward(accumulate: bool, x: &[f32], g: &[f32], out: &mut [f32]) {
    zip_into(accumulate, x, g, out, |xv, gv| gv * sigmoid_approx(xv));
}

/// Fused backward of mean BCE-with-logits: `out (+)= scale * (sigmoid(x) - t)`
/// where `scale` is the upstream gradient divided by the element count.
/// One vectorised pass; no intermediate sigmoid or difference tensors.
pub fn bce_logits_backward(accumulate: bool, scale: f32, logits: &[f32], targets: &[f32], out: &mut [f32]) {
    zip_into(accumulate, logits, targets, out, move |xv, tv| {
        scale * (sigmoid_approx(xv) - tv)
    });
}

#[inline(always)]
fn kl_sigma_backward_body<const ACC: bool>(scale: f32, eps: f32, sigma: &[f32], out: &mut [f32]) {
    for (o, &sv) in out.iter_mut().zip(sigma.iter()) {
        let d = scale * (sv - 1.0 / (sv + eps));
        if ACC {
            *o += d;
        } else {
            *o = d;
        }
    }
}

/// Fused backward of the sigma half of the mean standard-normal KL:
/// `out (+)= scale * (sigma - 1 / (sigma + eps))`.
///
/// (The mu half is exactly an [`axpy`] with `alpha = scale`.)
pub fn kl_sigma_backward(accumulate: bool, scale: f32, eps: f32, sigma: &[f32], out: &mut [f32]) {
    debug_assert_eq!(sigma.len(), out.len());
    if accumulate {
        dispatch!(out => kl_sigma_backward_body::<true>(scale, eps, sigma, out))
    } else {
        dispatch!(out => kl_sigma_backward_body::<false>(scale, eps, sigma, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        // Small deterministic pseudo-random buffer without pulling in rng.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            let scale = 1.0f32.max(x.abs()).max(y.abs());
            assert!((x - y).abs() <= tol * scale, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_dispatch_matches_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (17, 33, 9),
            (64, 64, 64),
            (5, 0, 7),
        ] {
            let a = pseudo(1, m * k);
            let b = pseudo(2, k * n);
            let mut reference = vec![0.0; m * n];
            let mut fast = vec![0.0; m * n];
            matmul_serial(m, k, n, &a, &b, &mut reference);
            matmul(m, k, n, &a, &b, &mut fast);
            assert_close(&fast, &reference, 1e-5);
        }
    }

    /// A deterministic `rows x cols` sparse matrix (every fourth cell of a
    /// skewed diagonal sweep, so some rows are short or empty).
    fn csr_fixture(rows: usize, cols: usize) -> crate::sparse::CsrMatrix {
        let weights = pseudo(21, rows * cols);
        let cells = (0..rows * cols).filter(|i| ((i / cols) * 7 + (i % cols) * 3).is_multiple_of(4));
        let triplets: Vec<_> = cells.map(|i| (i / cols, i % cols, weights[i])).collect();
        crate::sparse::CsrMatrix::from_triplets(rows, cols, &triplets).unwrap()
    }

    #[test]
    fn spmm_rows_matches_full_spmm_bitwise() {
        // The row-subset kernel must reproduce the full product's rows to
        // the bit: the incremental re-encode scatters these rows into cached
        // tables that are later compared bitwise against a full rebuild.
        let (rows, cols, n) = (13usize, 9usize, 8usize);
        let matrix = csr_fixture(rows, cols);
        let s = matrix.view();
        let dense = pseudo(22, cols * n);
        let mut full = vec![0.0; rows * n];
        spmm(s, n, &dense, &mut full);
        for subset in [vec![0u32], vec![12, 3, 7], vec![5, 5], (0..rows as u32).collect()] {
            let mut out = vec![f32::NAN; subset.len() * n];
            spmm_rows(s, &subset, n, &dense, &mut out);
            for (i, &r) in subset.iter().enumerate() {
                assert_eq!(
                    &out[i * n..(i + 1) * n],
                    &full[r as usize * n..(r as usize + 1) * n],
                    "row {r} of the subset product must be bitwise equal to the full product"
                );
            }
        }
    }

    /// `matmul` on each gathered row `subset` must reproduce those rows of
    /// the full `m x k x n` product to the bit.
    fn check_row_independence(seed: u64, (m, k, n): (usize, usize, usize), subsets: &[Vec<usize>]) {
        let (a, b) = (pseudo(seed, m * k), pseudo(seed + 1, k * n));
        let mut full = vec![0.0; m * n];
        matmul(m, k, n, &a, &b, &mut full);
        for subset in subsets {
            let gathered: Vec<f32> = subset.iter().flat_map(|&r| a[r * k..(r + 1) * k].to_vec()).collect();
            let mut out = vec![f32::NAN; subset.len() * n];
            matmul(subset.len(), k, n, &gathered, &b, &mut out);
            for (i, &r) in subset.iter().enumerate() {
                assert_eq!(
                    &out[i * n..(i + 1) * n],
                    &full[r * n..(r + 1) * n],
                    "row {r} depends on its batch"
                );
            }
        }
    }

    #[test]
    fn matmul_row_subset_is_bitwise_row_independent() {
        // A row's result must not depend on which other rows are computed
        // alongside it (MR-tile grouping, remainder handling, thread
        // chunking): the delta path re-runs `matmul` on gathered dirty rows
        // and scatters the output back expecting bitwise equality with the
        // full-table product.
        let subsets = [vec![0usize], vec![10, 2, 5], vec![7, 8, 9, 10], (0..11).collect()];
        check_row_independence(31, (11, 19, 13), &subsets);
    }

    #[test]
    fn transposed_variants_match_reference() {
        let (m, k, n) = (23, 17, 31);
        let a = pseudo(3, m * k);
        let b = pseudo(5, m * n);
        let mut reference = vec![0.0; k * n];
        let mut fast = vec![0.0; k * n];
        transpose_matmul_serial(m, k, n, &a, &b, &mut reference);
        transpose_matmul(m, k, n, &a, &b, &mut fast);
        assert_close(&fast, &reference, 1e-5);
    }

    #[test]
    fn adam_update_matches_unfused_formulation() {
        let n = 37;
        let grad = pseudo(6, n);
        let mut value = pseudo(7, n);
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
        let (mut uv, mut um, mut uvv) = (value.clone(), m.clone(), v.clone());
        for t in 1..=3u32 {
            let bias1 = 1.0 - beta1.powi(t as i32);
            let bias2 = 1.0 - beta2.powi(t as i32);
            adam_update(&mut value, &grad, &mut m, &mut v, beta1, beta2, eps, lr, bias1, bias2);
            // unfused reference
            for i in 0..n {
                um[i] = beta1 * um[i] + (1.0 - beta1) * grad[i];
                uvv[i] = beta2 * uvv[i] + (1.0 - beta2) * grad[i] * grad[i];
                uv[i] -= lr * (um[i] / bias1) / ((uvv[i] / bias2).sqrt() + eps);
            }
        }
        assert_close(&value, &uv, 1e-6);
    }

    #[test]
    fn axpy_and_scale_add_match_reference() {
        for len in [0usize, 1, 7, 33, 1024] {
            let src = pseudo(10, len);
            let mut fast = pseudo(11, len);
            let mut reference = fast.clone();
            axpy(0.37, &mut fast, &src);
            axpy_serial(0.37, &mut reference, &src);
            assert_close(&fast, &reference, 1e-6);

            scale_add(0.9, &mut fast, &src);
            scale_add_serial(0.9, &mut reference, &src);
            assert_close(&fast, &reference, 1e-6);

            add_assign(&mut fast, &src);
            axpy_serial(1.0, &mut reference, &src);
            assert_close(&fast, &reference, 1e-6);
        }
    }

    #[test]
    fn exp_and_ln_approx_match_libm() {
        for i in -870..=880 {
            let x = i as f32 * 0.1;
            let got = exp_approx(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 3e-7, "exp({x}): {got} vs {want} (rel {rel})");
        }
        for i in 1..=4000 {
            let x = i as f32 * i as f32 * 1e-4; // covers (0, 1600]
            let got = ln_approx(x);
            let want = x.ln();
            let err = (got - want).abs();
            assert!(err < 1e-6 + 3e-7 * want.abs(), "ln({x}): {got} vs {want} (err {err})");
        }
        assert_eq!(ln_approx(1.0), 0.0);
        assert!((exp_approx(0.0) - 1.0).abs() < 1e-7);
        assert!(exp_approx(-1000.0) >= 0.0);
        assert!(exp_approx(1000.0).is_infinite(), "overflow must stay detectable");
    }

    #[test]
    fn vectorised_activations_match_scalar_reference() {
        let x = pseudo(21, 333).iter().map(|v| v * 20.0).collect::<Vec<_>>();
        let mut sp = vec![0.0; x.len()];
        softplus_forward(&x, &mut sp);
        let mut sg = vec![0.0; x.len()];
        sigmoid_forward(&x, &mut sg);
        for (i, &xv) in x.iter().enumerate() {
            let want_sp = softplus_scalar(xv);
            assert!(
                (sp[i] - want_sp).abs() < 1e-5 + 1e-5 * want_sp.abs(),
                "softplus({xv}): {} vs {want_sp}",
                sp[i]
            );
            let want_sg = sigmoid_scalar(xv);
            assert!((sg[i] - want_sg).abs() < 1e-5, "sigmoid({xv}): {} vs {want_sg}", sg[i]);
        }
    }

    #[test]
    fn fused_loss_forwards_match_scalar_reference() {
        let x: Vec<f32> = pseudo(22, 101).iter().map(|v| v * 8.0).collect();
        let t: Vec<f32> = pseudo(23, 101)
            .iter()
            .map(|v| if *v > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let got = bce_logits_forward(&x, &t);
        let want: f64 = x
            .iter()
            .zip(&t)
            .map(|(&x, &t)| (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln()) as f64)
            .sum();
        assert!(
            (got as f64 - want).abs() < 1e-4 * want.abs().max(1.0),
            "bce sum {got} vs {want}"
        );

        let mu: Vec<f32> = pseudo(24, 77).to_vec();
        let sigma: Vec<f32> = pseudo(25, 77).iter().map(|v| v.abs() + 0.05).collect();
        let got = kl_std_normal_forward(1e-8, &mu, &sigma);
        let want: f64 = mu
            .iter()
            .zip(&sigma)
            .map(|(&m, &s)| (0.5 * (m * m + s * s - 2.0 * (s + 1e-8).ln() - 1.0)) as f64)
            .sum();
        assert!(
            (got as f64 - want).abs() < 1e-4 * want.abs().max(1.0),
            "kl sum {got} vs {want}"
        );
    }

    /// A fused backward `kernel(accumulate, out)` must overwrite arbitrary
    /// `out` contents with `naive` and add `naive` on top of them otherwise.
    fn check_backward(naive: &[f32], tol: f32, kernel: impl Fn(bool, &mut [f32])) {
        let mut overwrite = pseudo(14, naive.len());
        kernel(false, &mut overwrite);
        assert_close(&overwrite, naive, tol);
        let mut accum = pseudo(15, naive.len());
        let expected: Vec<f32> = accum.iter().zip(naive).map(|(&a, &d)| a + d).collect();
        kernel(true, &mut accum);
        assert_close(&accum, &expected, tol);
    }

    #[test]
    fn softplus_backward_matches_naive() {
        let x: Vec<f32> = pseudo(26, 111).iter().map(|v| v * 10.0).collect();
        let g = pseudo(27, 111);
        let naive: Vec<f32> = x.iter().zip(&g).map(|(&x, &g)| g * sigmoid_scalar(x)).collect();
        check_backward(&naive, 1e-5, |acc, out| softplus_backward(acc, &x, &g, out));
    }

    #[test]
    fn leaky_relu_backward_matches_naive() {
        let (x, g, slope) = (pseudo(12, 129), pseudo(13, 129), 0.1);
        let naive: Vec<f32> = x
            .iter()
            .zip(&g)
            .map(|(&xv, &gv)| if xv >= 0.0 { gv } else { gv * slope })
            .collect();
        check_backward(&naive, 1e-6, |acc, out| leaky_relu_backward(acc, slope, &x, &g, out));
    }

    #[test]
    fn bce_logits_backward_matches_naive() {
        let n = 65;
        let x = pseudo(16, n);
        let t: Vec<f32> = pseudo(17, n).iter().map(|v| if *v > 0.0 { 1.0 } else { 0.0 }).collect();
        let scale = 1.0 / n as f32;
        let naive: Vec<f32> = x
            .iter()
            .zip(&t)
            .map(|(&xv, &tv)| scale * (sigmoid_scalar(xv) - tv))
            .collect();
        check_backward(&naive, 1e-6, |acc, out| bce_logits_backward(acc, scale, &x, &t, out));
    }

    #[test]
    fn kl_sigma_backward_matches_naive() {
        let sigma: Vec<f32> = pseudo(18, 77).iter().map(|v| v.abs() + 0.05).collect();
        let (scale, eps) = (0.25f32, 1e-8f32);
        let naive: Vec<f32> = sigma.iter().map(|&sv| scale * (sv - 1.0 / (sv + eps))).collect();
        check_backward(&naive, 1e-5, |acc, out| kl_sigma_backward(acc, scale, eps, &sigma, out));
    }

    #[test]
    fn score_candidates_match_serial_reference() {
        for &(rows, cols, n_cand) in &[
            (1usize, 1usize, 1usize),
            (7, 5, 4),
            (40, 32, 33),
            (13, 17, 0),
            (9, 48, 64),
        ] {
            let table = pseudo(31, rows * cols);
            let user = pseudo(32, cols);
            let items: Vec<u32> = (0..n_cand).map(|k| (k * 7 % rows) as u32).collect();
            let mut reference = vec![0.0; n_cand];
            let mut fast = vec![7.0; n_cand];
            score_candidates_dot_serial(cols, &user, &table, &items, &mut reference);
            score_candidates_dot(cols, &user, &table, &items, &mut fast);
            assert_close(&fast, &reference, 1e-5);
            score_candidates_neg_sq_dist_serial(cols, &user, &table, &items, &mut reference);
            score_candidates_neg_sq_dist(cols, &user, &table, &items, &mut fast);
            assert_close(&fast, &reference, 1e-5);
            // negative distance is maximal (zero) against the row itself
            if rows > 0 && !items.is_empty() {
                let self_row = table[items[0] as usize * cols..(items[0] as usize + 1) * cols].to_vec();
                let mut s = vec![1.0f32];
                score_candidates_neg_sq_dist(cols, &self_row, &table, &items[..1], &mut s);
                assert!(s[0].abs() < 1e-6, "distance to itself must be ~0, got {}", s[0]);
            }
        }
    }

    #[test]
    fn scale_rows_accumulate_adds_on_top() {
        let (rows, cols) = (3, 4);
        let src = pseudo(19, rows * cols);
        let scales = pseudo(20, rows);
        let mut base = vec![0.0; rows * cols];
        scale_rows(rows, cols, &src, &scales, 2.0, false, &mut base);
        let mut twice = base.clone();
        scale_rows(rows, cols, &src, &scales, 2.0, true, &mut twice);
        let doubled: Vec<f32> = base.iter().map(|v| 2.0 * v).collect();
        assert_close(&twice, &doubled, 1e-6);
    }

    #[test]
    fn isa_reports_a_name() {
        assert!(["portable", "avx2+fma", "avx512", "avx512+vnni"].contains(&active_isa()));
        assert!(parallelism() >= 1);
    }

    #[test]
    fn force_isa_parses_known_names_and_never_ranks_up() {
        assert_eq!(parse_isa("portable"), Some(Isa::Portable));
        assert_eq!(parse_isa(" Portable "), Some(Isa::Portable));
        assert_eq!(parse_isa("garbage"), None);
        assert_eq!(parse_isa(""), None);
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(parse_isa("avx2"), Some(Isa::Avx2Fma));
            assert_eq!(parse_isa("avx512"), Some(Isa::Avx512));
            assert_eq!(parse_isa("vnni"), Some(Isa::Avx512Vnni));
            assert_eq!(parse_isa("AVX512+VNNI"), Some(Isa::Avx512Vnni));
            assert!(Isa::Portable < Isa::Avx2Fma);
            assert!(Isa::Avx2Fma < Isa::Avx512);
            assert!(Isa::Avx512 < Isa::Avx512Vnni);
        }
        // Forcing below the detected tier is honoured; above (or garbage)
        // falls back to detection — mirrored here without touching the
        // process-wide OnceLock.
        let detected = detect_isa();
        let pick = |req: Option<Isa>| match req {
            Some(forced) if forced <= detected => forced,
            _ => detected,
        };
        assert_eq!(pick(Some(Isa::Portable)), Isa::Portable);
        assert_eq!(pick(None), detected);
        assert_eq!(pick(parse_isa("nonsense")), detected);
    }

    #[test]
    fn packed_matmul_is_bitwise_equal_to_tiled_path() {
        // Sizes chosen to clear the packed-path thresholds (m >= 16,
        // n >= 32, k >= 8) with awkward remainders in every dimension. On
        // AVX-512 machines `matmul` takes the packed micro-kernel while
        // `matmul_tiles` takes the register-tiled body; both must agree
        // bitwise because each output element is a sequential-k FMA fold in
        // either path. On lesser machines both take the tiled body and the
        // test degenerates to self-consistency.
        for &(m, k, n) in &[
            (16usize, 8usize, 32usize),
            (23, 9, 33),
            (40, 31, 95),
            (64, 32, 64),
            (17, 64, 100),
        ] {
            let a = pseudo(41, m * k);
            let b = pseudo(42, k * n);
            let mut packed = vec![f32::NAN; m * n];
            let mut tiled = vec![f32::NAN; m * n];
            matmul(m, k, n, &a, &b, &mut packed);
            matmul_tiles(m, k, n, &a, &b, &mut tiled);
            assert_eq!(packed, tiled, "packed vs tiled mismatch at ({m},{k},{n})");
            let mut reference = vec![0.0; m * n];
            matmul_serial(m, k, n, &a, &b, &mut reference);
            assert_close(&packed, &reference, 1e-5);
        }
    }

    #[test]
    fn packed_matmul_rows_stay_bitwise_row_independent() {
        // The delta re-encode path multiplies small gathered row sets (tiled
        // path) and expects bitwise equality with full-table products
        // (packed path past the thresholds) — the same invariant
        // `matmul_row_subset_is_bitwise_row_independent` pins at small
        // sizes, here across the packed/tiled routing boundary.
        check_row_independence(51, (48, 24, 40), &[vec![0usize], vec![31, 2, 17], (8..14).collect()]);
    }

    /// Every ISA tier this CPU can run, lowest first.
    fn tiers() -> Vec<Isa> {
        let known = ["portable", "avx2", "avx512", "vnni"].into_iter().filter_map(parse_isa);
        known.filter(|&t| t <= detect_isa()).collect()
    }

    /// Runs `kernel` on a copy of `init` and returns the result.
    fn run(init: &[f32], kernel: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut out = init.to_vec();
        kernel(&mut out);
        out
    }

    #[test]
    fn every_dispatched_body_agrees_across_tiers() {
        // One process, every tier at or below the detected one, every
        // dispatched f32 body: the SIMD tiers must agree with each other
        // bitwise (the bodies fix their own lane counts and fold order, so
        // vector width cannot reorder a sum) and with the portable tier to
        // 1e-5 (FMA skips one rounding). The int8 bodies are pinned exactly
        // by `quant_score_bodies_are_exactly_equal_per_isa`.
        let (m, k, n) = (9usize, 13usize, 37usize);
        let (a, b, bt) = (&pseudo(71, m * k)[..], &pseudo(72, k * n)[..], &pseudo(73, m * n)[..]);
        let len = 203usize;
        let (x, y, seed) = (&pseudo(74, len)[..], &pseudo(75, len)[..], &pseudo(76, len)[..]);
        let (pos, unit) = (
            &x.iter().map(|v| v.abs() + 0.05).collect::<Vec<_>>()[..],
            &x.iter().map(|v| v + 0.5).collect::<Vec<_>>()[..],
        );
        let matrix = csr_fixture(7, 5);
        let s = matrix.view();
        let (d5, d7) = (&pseudo(78, 5 * n)[..], &pseudo(79, 7 * n)[..]);
        let (ia, ib, g) = (
            &[8usize, 0, 3, 3, 5][..],
            &[1usize, 12, 0, 7, 7][..],
            &pseudo(80, 5)[..],
        );
        let items = &[4u32, 0, 8, 8, 2, 7, 1][..];
        let nan = |len: usize| vec![f32::NAN; len];
        let grad = |xv: f32, gv: f32| gv * sigmoid_approx(xv);
        let bce = |xv: f32, tv: f32| xv.max(0.0) - xv * tv + ln_approx(1.0 + exp_approx(-xv.abs()));
        // One row: the dispatched call, run at tier `t` on a copy of the
        // initial output `o`.
        macro_rules! row {
            ($name:literal, $init:expr, |$t:ident, $o:ident| $($kernel:tt)+) => {
                ($name, &|$t: Isa| run($init, |$o| dispatch!(on $t; $($kernel)+)))
            };
        }
        type Kernel<'a> = (&'a str, &'a dyn Fn(Isa) -> Vec<f32>);
        #[rustfmt::skip]
        let kernels: &[Kernel<'_>] = &[
            row!("matmul", &nan(m * n), |t, o| FUSE, o => tile_body::<FUSE>(0, m, k, n, |i, p| a[i * k + p], b, o)),
            row!("transpose_matmul", &nan(k * n), |t, o| FUSE, o => tile_body::<FUSE>(0, k, m, n, |p, i| a[i * k + p], bt, o)),
            row!("gather_rowwise_dot", &nan(5), |t, o| FUSE, o => gather_rowwise_dot_body::<FUSE>(k, a, b, ia, ib, o)),
            row!("scatter_scaled_rows", b, |t, o| FUSE, o => scatter_scaled_rows_body::<FUSE>(k, g, a, ia, o, ib)),
            row!("spmm", &nan(7 * n), |t, o| FUSE, o => spmm_body::<FUSE>(0, 7, s, n, d5, o)),
            row!("spmm_transpose", &vec![0.0; 5 * n], |t, o| FUSE, o => spmm_transpose_cols::<FUSE>(s, n, d7, o, 0, n)),
            row!("axpy", seed, |t, o| FUSE, o => axpy_body::<FUSE>(0.37, o, x)),
            row!("scale_add", seed, |t, o| FUSE, o => scale_add_body::<FUSE>(0.9, o, x)),
            row!("map/softplus", &nan(len), |t, o| o => map_body(x, o, &|v| softplus_approx(8.0 * v))),
            row!("map/sigmoid", &nan(len), |t, o| o => map_body(x, o, &|v| sigmoid_approx(8.0 * v))),
            row!("map/exp", &nan(len), |t, o| o => map_body(x, o, &|v| exp_approx(8.0 * v))),
            row!("map/ln", &nan(len), |t, o| o => map_body(pos, o, &ln_approx)),
            row!("zip", &nan(len), |t, o| o => zip_body::<false, _>(x, y, o, &grad)),
            row!("zip_accum", seed, |t, o| o => zip_body::<true, _>(x, y, o, &grad)),
            row!("kl_sigma_backward", &nan(len), |t, o| o => kl_sigma_backward_body::<false>(0.25, 1e-8, pos, o)),
            row!("kl_sigma_backward/accum", seed, |t, o| o => kl_sigma_backward_body::<true>(0.25, 1e-8, pos, o)),
            row!("box_muller", unit, |t, o| o => box_muller_body(o, 1.5)),
            ("lane_sum", &|t| vec![dispatch!(on t; lane_sum_body(x, unit, bce))]),
            // SAFETY (both): `supported` gates the tier; the fixture's candidate ids are in bounds.
            ("score_dot", &|t| run(&nan(7), |o| unsafe { score_candidates_on::<true>(supported(t), k, &a[..k], a, items, o) })),
            ("score_neg_sq_dist", &|t| run(&nan(7), |o| unsafe { score_candidates_on::<false>(supported(t), k, &a[..k], a, items, o) })),
        ];
        for (name, kernel) in kernels {
            let portable = kernel(Isa::Portable);
            let mut simd: Option<Vec<f32>> = None;
            for tier in tiers().into_iter().skip(1) {
                let got = kernel(tier);
                assert_close(&got, &portable, 1e-5);
                let first = simd.get_or_insert_with(|| got.clone());
                assert_eq!(&got, first, "{name}: {tier:?} must equal the other SIMD tiers bitwise");
            }
        }
    }

    /// A shape that takes the packed micro-kernel on AVX-512 machines.
    const PACKED_SHAPE: (usize, usize, usize) = (32, 16, 64);

    #[test]
    #[should_panic(expected = "A must be m x k")]
    fn matmul_rejects_a_short_lhs() {
        let (m, k, n) = PACKED_SHAPE;
        matmul(m, k, n, &vec![0.0; m * k - 1], &vec![0.0; k * n], &mut vec![0.0; m * n]);
    }

    #[test]
    #[should_panic(expected = "B must be k x n")]
    fn matmul_rejects_a_short_rhs() {
        let (m, k, n) = PACKED_SHAPE;
        matmul(m, k, n, &vec![0.0; m * k], &vec![0.0; k * n - 1], &mut vec![0.0; m * n]);
    }

    #[test]
    #[should_panic(expected = "out must be m x n")]
    fn matmul_rejects_a_short_output() {
        let (m, k, n) = PACKED_SHAPE;
        matmul(m, k, n, &vec![0.0; m * k], &vec![0.0; k * n], &mut vec![0.0; m * n - 1]);
    }

    /// Table codes, scales, row sums, row norms, user codes, user norm.
    type QuantFixture = (Vec<i8>, Vec<f32>, Vec<i32>, Vec<i32>, Vec<u8>, i32);

    /// Builds a deterministic quantised table + user for the int8 kernel
    /// tests: i8 codes spanning the full [-127, 127] range and u8 user
    /// codes spanning [1, 255].
    fn quant_fixture(rows: usize, cols: usize) -> QuantFixture {
        let code = |v: &f32| (v * 254.0).round().clamp(-127.0, 127.0) as i32;
        let data: Vec<i8> = pseudo(61, rows * cols).iter().map(|v| code(v) as i8).collect();
        let scales: Vec<f32> = (0..rows).map(|r| 0.001 + 0.0001 * r as f32).collect();
        let row_sums: Vec<i32> = (0..rows)
            .map(|r| data[r * cols..(r + 1) * cols].iter().map(|&q| q as i32).sum())
            .collect();
        let row_norms: Vec<i32> = (0..rows)
            .map(|r| data[r * cols..(r + 1) * cols].iter().map(|&q| (q as i32).pow(2)).sum())
            .collect();
        let user_q: Vec<u8> = pseudo(62, cols).iter().map(|v| (code(v) + 128) as u8).collect();
        let u_norm: i32 = user_q.iter().map(|&q| (q as i32 - 128).pow(2)).sum();
        (data, scales, row_sums, row_norms, user_q, u_norm)
    }

    /// Every tier's body, and the dispatched entry, against the scalar i32
    /// reference — bitwise.
    fn check_quant_tiers<const DOT: bool>(table: QuantView<'_>, user: QuantUser<'_>, items: &[u32]) {
        let mut reference = vec![f32::NAN; items.len()];
        score_candidates_quant_body::<DOT>(table, user, items, &mut reference);
        validate_quant_args(&table, &user, items, &reference);
        for tier in tiers() {
            let mut got = vec![f32::NAN; items.len()];
            // SAFETY: `tiers()` lists only tiers this CPU supports, and the
            // arguments were validated just above.
            unsafe { score_candidates_quant_on::<DOT>(tier, table, user, items, &mut got) };
            assert_eq!(got, reference, "{tier:?} body (dot={DOT}) at cols {}", table.cols);
        }
        let mut via_dispatch = vec![f32::NAN; items.len()];
        score_candidates_quant_dispatch::<DOT>(table, user, items, &mut via_dispatch);
        assert_eq!(via_dispatch, reference);
    }

    #[test]
    fn quant_score_bodies_are_exactly_equal_per_isa() {
        // Each ISA body computes the same i32 dot and shares the scalar f32
        // combine, so scores must be bitwise equal — not merely close —
        // across the portable, AVX2-widening and VNNI bodies (every tier
        // this CPU has), for both score kinds, including remainder-heavy
        // widths.
        for &(rows, cols, n_cand, consecutive) in &[
            (5usize, 1usize, 3usize, false),
            (9, 15, 7, false),
            (16, 32, 33, false),
            (11, 33, 5, false),
            (8, 96, 13, false),
            (6, 100, 0, false),
            // Consecutive ids at width 32 drive the VNNI paired-row fast
            // path, including its 8-block remainder hand-off.
            (40, 32, 40, true),
            (40, 32, 29, true),
            (40, 32, 7, true),
        ] {
            let (data, scales, row_sums, row_norms, user_q, u_norm) = quant_fixture(rows, cols);
            let table = QuantView {
                cols,
                data: &data,
                scales: &scales,
                row_sums: &row_sums,
                row_norms: &row_norms,
            };
            let user = QuantUser {
                q: &user_q,
                scale: 0.0123,
                norm: u_norm,
            };
            let items: Vec<u32> = if consecutive {
                (0..n_cand as u32).collect()
            } else {
                (0..n_cand).map(|i| (i * 5 % rows) as u32).collect()
            };
            check_quant_tiers::<true>(table, user, &items);
            check_quant_tiers::<false>(table, user, &items);
        }
    }

    #[test]
    fn quant_neg_sq_dist_is_zero_against_itself() {
        // A user quantised identically to a table row has distance exactly
        // -(s^2 |q|^2 - 2 s^2 |q|^2 + s^2 |q|^2) = 0 when scales match.
        let cols = 32usize;
        let (data, _, row_sums, row_norms, _, _) = quant_fixture(3, cols);
        let scales = vec![0.01f32; 3];
        let table = QuantView {
            cols,
            data: &data,
            scales: &scales,
            row_sums: &row_sums,
            row_norms: &row_norms,
        };
        let row1: Vec<u8> = data[cols..2 * cols].iter().map(|&q| (q as i32 + 128) as u8).collect();
        let user = QuantUser {
            q: &row1,
            scale: 0.01,
            norm: row_norms[1],
        };
        let mut out = vec![f32::NAN];
        score_candidates_quant_neg_sq_dist(table, user, &[1u32], &mut out);
        assert_eq!(out[0], 0.0, "self-distance must be exactly zero, got {}", out[0]);
    }
}
