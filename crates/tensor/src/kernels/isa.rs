//! The machine seam: ISA tier detection, the two `#[target_feature]`
//! trampolines behind `dispatch!`, and the thread plan behind `row_chunked`.

use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Instruction-set detection
// ---------------------------------------------------------------------------

/// The ISA tiers, ordered by capability: a process may always be forced
/// *down* this ladder (every lower tier's features are implied by the higher
/// ones), never up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
}

pub(super) fn detect_isa() -> Isa {
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
pub(super) fn parse_isa(name: &str) -> Option<Isa> {
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

pub(super) fn isa() -> Isa {
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
pub(super) unsafe fn with_avx2<O: ?Sized, R>(out: &mut O, f: impl FnOnce(&mut O) -> R) -> R {
    f(out)
}

/// [`with_avx2`] for the AVX-512 tiers.
///
/// # Safety
/// The CPU must support AVX-512F/VL (and with them AVX2 and FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
pub(super) unsafe fn with_avx512<O: ?Sized, R>(out: &mut O, f: impl FnOnce(&mut O) -> R) -> R {
    f(out)
}

/// Checks that this CPU can run tier `isa` and returns it: the gate of
/// `dispatch!`'s explicit-tier form, through which the in-file tests reach
/// every tier at or below the detected one in a single process.
#[cfg(test)]
pub(super) fn supported(isa: Isa) -> Isa {
    assert!(isa <= detect_isa(), "{isa:?} is above this CPU's tier");
    isa
}

/// Runs a call to a reference body on an ISA tier.
///
/// ```text
/// dispatch!(FUSE, out => body::<FUSE>(args.., out))   // body with an FMA choice
/// dispatch!(out => body(args.., out))                 // no multiply-add to fuse
/// dispatch!(body(args..))                             // reduction, no output slice
/// dispatch!(on tier; ..)                              // an explicit tier instead of `isa()` (tests)
/// dispatch!(@tier tier; ..)                           // a tier the enclosing `unsafe fn`'s caller vouches for
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
            // SAFETY (both arms): `$isa` is `isa()`, passed `supported()` or
            // is vouched for by the caller of the function this expands in,
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
pub(super) fn plan_threads(rows: usize, flops_total: usize) -> usize {
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
pub(super) fn row_chunked<F>(out: &mut [f32], cols: usize, rows: usize, flops: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * cols, "`out` must be rows x cols");
    let threads = plan_threads(rows, flops);
    if threads == 1 {
        f(0, rows, out);
    } else {
        // Unreachable without `parallel`: `plan_threads` only answers 1 there.
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
}
