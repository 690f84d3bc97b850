//! The workspace's only `unsafe` module: SIMD-recompiled kernel clones.
//!
//! Every kernel here is an exact clone of a portable kernel body
//! (`matmul_packed_body` in `matrix.rs` and the one gather body,
//! `gather_pool_body` in `gather.rs`) compiled with `#[target_feature(...)]`
//! for AVX2 or AVX-512 — the same Rust source on wider registers, so the FP
//! op sequence (and therefore the bits) cannot diverge between backends.
//! There are no intrinsics except the prefetch hint and the f16
//! conversions. The AVX2 and AVX-512 gathers decode f16 lanes with the
//! hardware `vcvtph2ps`, which is exact, and which
//! [`crate::quant::f16_to_f32`] (the scalar rung's decoder) matches bit for
//! bit on all 65,536 inputs. The f16 encoder ([`quantize_f16_with`]) runs
//! `vcvtps2ph` with an explicit round-to-nearest-even immediate, which
//! matches [`crate::quant::f16_from_f32`] on every f32 except NaNs: the
//! hardware keeps a NaN's payload, so NaN lanes are re-encoded in
//! software.
//! The one other per-rung choice is the matmul tile width: AVX-512 runs two
//! 16-column panels per tile (6x32, 12 of its 32 vector registers), the
//! other rungs one (6x16), over the same packed layout; the tile width
//! changes which outputs share a loop, never the op sequence of any one
//! output.
//! Dispatch walks the ladder AVX-512 → AVX2 → scalar via explicit runtime
//! CPUID checks (`is_x86_feature_detected!`), so a 1-core AVX2-only dev
//! box and an AVX-512 server produce bit-identical results from different
//! code paths (see [`SimdBackend::detect`]).
//!
//! [`SimdBackend`] names one rung of that ladder and the `*_with` entry
//! points force a kernel onto a specific rung — that is how the
//! dispatch-parity test pins scalar/AVX2/AVX-512 onto identical inputs and
//! asserts identical bits. Forcing an unavailable rung panics; callers
//! probe [`SimdBackend::is_available`] first (and log an explicit skip).
//!
//! The `unsafe` is confined to (a) declaring the `target_feature` functions
//! and (b) calling them after the runtime feature check; nothing else in
//! the workspace is allowed to use `unsafe` — every other crate root
//! carries `#![forbid(unsafe_code)]`, and `er-tensor` itself denies it
//! outside this module.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::gather::Decode;
#[cfg(target_arch = "x86_64")]
use crate::gather::LANES;
use crate::{Matrix, PackedMatrix};

/// One rung of the SIMD dispatch ladder.
///
/// `Avx512` means the f/bw/vl trio (every AVX-512 server CPU since
/// Skylake-SP ships all three); `Avx2` is the 256-bit baseline, which also
/// requires `f16c` (every AVX2 CPU ships it) for the f16 decode; `Scalar`
/// is the portable body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdBackend {
    /// The portable kernel body, no `target_feature` recompilation.
    Scalar,
    /// The body recompiled for 256-bit vectors (`avx2`, plus `f16c` for
    /// the hardware f16 decode; the rung requires both).
    Avx2,
    /// The body recompiled for 512-bit vectors (`avx512f,avx512bw,avx512vl`).
    Avx512,
}

impl SimdBackend {
    /// Every rung, narrowest first — the order parity tests sweep.
    pub const ALL: [SimdBackend; 3] = [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512];

    /// The widest rung this CPU supports (what auto-dispatch uses),
    /// detected once per process. To A/B rungs on one part, force each
    /// through the `*_with` entry points instead; results are
    /// bit-identical on every rung either way.
    pub fn detect() -> SimdBackend {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<SimdBackend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if SimdBackend::Avx512.is_available() {
                SimdBackend::Avx512
            } else if SimdBackend::Avx2.is_available() {
                SimdBackend::Avx2
            } else {
                SimdBackend::Scalar
            }
        })
    }

    /// Whether this CPU can run the rung. `Scalar` is always available.
    pub fn is_available(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("f16c")
            }
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Short name for logs and bench labels.
    pub const fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How many lookups ahead the gather body prefetches. Random-access
/// gathers otherwise serialize on one cache/TLB miss per pooled row; a
/// handful of rows of lead time is enough to keep several misses in
/// flight without exceeding the core's fill buffers.
pub(crate) const PREFETCH_DISTANCE: usize = 16;

/// Tables smaller than this skip prefetching entirely: they are
/// cache-resident, so the hint cannot hide any latency and is pure
/// per-lookup overhead (measured ~25-50% on the forward pass's sub-MiB
/// tables). 4 MiB clears every L2 this workspace targets.
pub(crate) const PREFETCH_MIN_BYTES: usize = 4 << 20;

/// Issues a best-effort read prefetch for the cache line holding `p`.
///
/// Purely a hint: it never faults, never writes, and has no architectural
/// effect, so kernels that call it stay bit-identical to kernels that
/// don't. On non-x86-64 targets it compiles to nothing.
#[inline(always)]
fn prefetch_read<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a pure cache hint with no architectural
    // effect; the reference guarantees the address is valid anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(std::ptr::from_ref(p).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches every cache line of `data[base .. base + len]`, skipping
/// (not faulting on) out-of-bounds positions — the gather body calls this
/// for a row *ahead* of the one being validated, so the ahead index may
/// still be bogus. Safe to call from the safe kernel code; the intrinsic
/// stays confined to this module.
#[inline(always)]
pub(crate) fn prefetch_row<T>(data: &[T], base: usize, len: usize) {
    let step = (64 / std::mem::size_of::<T>()).max(1);
    let mut off = 0;
    while off < len {
        if let Some(p) = data.get(base + off) {
            prefetch_read(p);
        }
        off += step;
    }
}

#[track_caller]
fn check_available(backend: SimdBackend) {
    assert!(
        backend.is_available(),
        "SIMD backend {backend} is not available on this CPU"
    );
}

/// `out = a * b` through the packed-panel kernel, auto-dispatched down the
/// ladder. See `matmul_packed_body` in `matrix.rs` for the kernel and the
/// bit-exactness argument.
pub(crate) fn matmul_packed(a: &[f32], b: &PackedMatrix, out: &mut [f32]) {
    matmul_packed_with(SimdBackend::detect(), a, b, out);
}

/// `out = a * b` on a forced backend (parity testing; see module docs):
/// `a` is `m x k` row-major, `out` is `m x n` row-major, where `k x n` is
/// `b`'s shape.
///
/// # Panics
///
/// Panics if `backend` is unavailable on this CPU, or if `a.len()` and
/// `out.len()` are not `m * k` and `m * n` for one `m`.
pub fn matmul_packed_with(backend: SimdBackend, a: &[f32], b: &PackedMatrix, out: &mut [f32]) {
    check_available(backend);
    let (k, n) = (b.rows(), b.cols());
    assert!(
        a.len().is_multiple_of(k) && a.len() / k * n == out.len(),
        "matmul operand lengths {} and {} do not fit a {k}x{n} packed matrix",
        a.len(),
        out.len()
    );
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability of the target features was just verified.
        SimdBackend::Avx512 => unsafe { matmul_packed_avx512(a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability of the target features was just verified.
        SimdBackend::Avx2 => unsafe { matmul_packed_avx2(a, b, out) },
        _ => crate::matrix::matmul_packed_body::<1>(a, b, out),
    }
}

/// CSR gather + sum-pool on a forced backend (parity testing).
///
/// # Panics
///
/// Panics if `backend` is unavailable on this CPU, or on the input
/// violations documented for [`crate::gather_pool_csr`].
pub fn gather_pool_csr_with(
    backend: SimdBackend,
    data: &[f32],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    use crate::gather::F32;
    gather_on(backend, (F32, F32, F32), data, rows, indices, offsets, out);
}

/// f16 CSR gather + sum-pool on a forced backend (parity testing).
///
/// # Panics
///
/// Panics if `backend` is unavailable on this CPU, or on the input
/// violations documented for [`crate::quant::gather_pool_csr_f16`].
pub fn gather_pool_csr_f16_with(
    backend: SimdBackend,
    data: &[u16],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    let decoders = (crate::quant::F16, F16Avx2(()), F16Avx512(()));
    gather_on(backend, decoders, data, rows, indices, offsets, out);
}

/// i8 CSR gather + sum-pool on a forced backend (parity testing).
///
/// # Panics
///
/// Panics if `backend` is unavailable on this CPU, or on the input
/// violations documented for [`crate::quant::gather_pool_csr_i8`].
pub fn gather_pool_csr_i8_with(
    backend: SimdBackend,
    data: &[i8],
    scales: &[f32],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    assert_eq!(scales.len(), rows as usize, "one scale per table row");
    let dec = crate::quant::I8(scales);
    gather_on(backend, (dec, dec, dec), data, rows, indices, offsets, out);
}

/// Encodes `src` as IEEE-754 halfs into `dst` on a forced backend, bit
/// for bit as [`crate::quant::f16_from_f32`] encodes each element: the
/// scalar rung is that function, the AVX2 and AVX-512 rungs convert 8 or
/// 16 lanes at a time with `vcvtps2ph` (round to nearest even, whatever
/// MXCSR says), re-encode any NaN lane in software and finish the tail
/// with the scalar encoder.
///
/// # Panics
///
/// Panics if `backend` is unavailable on this CPU, or if `src` and `dst`
/// differ in length.
pub fn quantize_f16_with(backend: SimdBackend, src: &[f32], dst: &mut [u16]) {
    check_available(backend);
    assert_eq!(
        src.len(),
        dst.len(),
        "f16 output must match the input length"
    );
    let done = match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability of the target features was just verified.
        SimdBackend::Avx512 => unsafe { encode_f16_avx512(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability of the target features was just verified.
        SimdBackend::Avx2 => unsafe { encode_f16_avx2(src, dst) },
        _ => 0,
    };
    for (h, &x) in dst[done..].iter_mut().zip(&src[done..]) {
        *h = crate::quant::f16_from_f32(x);
    }
}

/// Encodes the whole 16-lane chunks of `src` into `dst` with the 512-bit
/// `vcvtps2ph`, returning how many elements it wrote.
///
/// # Safety
///
/// The CPU must support `avx512f`, and `dst` must be at least as long as
/// `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn encode_f16_avx512(src: &[f32], dst: &mut [u16]) -> usize {
    use std::arch::x86_64::{
        __m256i, _mm256_storeu_si256, _mm512_cmp_ps_mask, _mm512_cvtps_ph, _mm512_loadu_ps,
        _CMP_UNORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
    };
    const W: usize = 16;
    let whole = src.len() / W * W;
    for i in (0..whole).step_by(W) {
        // SAFETY: `i + W <= src.len() <= dst.len()`, so the 64-byte load
        // and the 32-byte store stay inside the two slices.
        unsafe {
            let v = _mm512_loadu_ps(src.as_ptr().add(i));
            let h = _mm512_cvtps_ph::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), h);
            let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
            if nan != 0 {
                reencode_nan_lanes(u32::from(nan), &src[i..i + W], &mut dst[i..i + W]);
            }
        }
    }
    whole
}

/// Encodes the whole 8-lane chunks of `src` into `dst` with the F16C
/// 256-bit `vcvtps2ph`, returning how many elements it wrote.
///
/// # Safety
///
/// The CPU must support `avx2` and `f16c`, and `dst` must be at least as
/// long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn encode_f16_avx2(src: &[f32], dst: &mut [u16]) -> usize {
    use std::arch::x86_64::{
        __m128i, _mm256_cmp_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm_storeu_si128, _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };
    const W: usize = 8;
    let whole = src.len() / W * W;
    for i in (0..whole).step_by(W) {
        // SAFETY: `i + W <= src.len() <= dst.len()`, so the 32-byte load
        // and the 16-byte store stay inside the two slices.
        unsafe {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast::<__m128i>(), h);
            let nan = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
            if nan != 0 {
                reencode_nan_lanes(nan as u32, &src[i..i + W], &mut dst[i..i + W]);
            }
        }
    }
    whole
}

/// Overwrites the lanes of `dst` flagged in `mask` with the software
/// encoding of `src`: `vcvtps2ph` keeps a NaN's payload bits, while
/// [`crate::quant::f16_from_f32`] emits one quiet NaN per sign.
#[cold]
fn reencode_nan_lanes(mask: u32, src: &[f32], dst: &mut [u16]) {
    for (lane, (h, &x)) in dst.iter_mut().zip(src).enumerate() {
        if mask >> lane & 1 == 1 {
            *h = crate::quant::f16_from_f32(x);
        }
    }
}

/// Runs the one gather body on `backend` with that rung's decoder from
/// `decoders` (scalar, AVX2, AVX-512), after the checks every gather
/// shares.
fn gather_on<E, S, A2, A5>(
    backend: SimdBackend,
    decoders: (S, A2, A5),
    data: &[E],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) where
    S: Decode<Elem = E>,
    A2: Decode<Elem = E>,
    A5: Decode<Elem = E>,
{
    check_available(backend);
    assert_eq!(
        out.rows(),
        offsets.len(),
        "output must have one row per lookup input"
    );
    assert_eq!(
        data.len(),
        rows as usize * out.cols(),
        "table storage must be rows x dim"
    );
    let (scalar, avx2, avx512) = decoders;
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability of the target features was just verified.
        SimdBackend::Avx512 => unsafe { gather_avx512(avx512, data, rows, indices, offsets, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability of the target features was just verified.
        SimdBackend::Avx2 => unsafe { gather_avx2(avx2, data, rows, indices, offsets, out) },
        _ => {
            let _ = (avx2, avx512); // unused off x86-64
            crate::gather::gather_pool_body(scalar, data, rows, indices, offsets, out);
        }
    }
}

/// f16 lanes decoded by the hardware `vcvtph2ps` on 256-bit registers
/// (two 8-lane conversions per chunk).
///
/// Invariant: values exist only in this module, and [`gather_on`] hands
/// them only to [`gather_avx2`], after `check_available` found the AVX2
/// rung (`avx2` plus `f16c`).
#[derive(Debug, Clone, Copy)]
struct F16Avx2(());

impl Decode for F16Avx2 {
    type Elem = u16;
    type Row = ();
    #[inline(always)]
    fn row(self, _id: usize) {}
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lanes(self, (): (), src: &[u16; LANES]) -> [f32; LANES] {
        // SAFETY: by the type's invariant `f16c` is present; the two
        // 16-byte loads read exactly the 32 bytes of `src`.
        unsafe {
            use std::arch::x86_64::{__m128i, __m256, _mm256_cvtph_ps, _mm_loadu_si128};
            let p = src.as_ptr().cast::<__m128i>();
            let lo = _mm256_cvtph_ps(_mm_loadu_si128(p));
            let hi = _mm256_cvtph_ps(_mm_loadu_si128(p.add(1)));
            std::mem::transmute::<[__m256; 2], [f32; LANES]>([lo, hi])
        }
    }
    #[inline(always)]
    fn lane(self, (): (), h: u16) -> f32 {
        crate::quant::f16_to_f32(h)
    }
}

/// f16 lanes decoded by the hardware `vcvtph2ps` on 512-bit registers.
///
/// Invariant: values exist only in this module, and [`gather_on`] hands
/// them only to [`gather_avx512`], after `check_available` found the
/// AVX-512 rung.
#[derive(Debug, Clone, Copy)]
struct F16Avx512(());

impl Decode for F16Avx512 {
    type Elem = u16;
    type Row = ();
    #[inline(always)]
    fn row(self, _id: usize) {}
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lanes(self, (): (), src: &[u16; LANES]) -> [f32; LANES] {
        // SAFETY: by the type's invariant `avx512f` is present; the
        // 32-byte load reads exactly the 32 bytes of `src`.
        unsafe {
            use std::arch::x86_64::{__m256i, __m512, _mm256_loadu_si256, _mm512_cvtph_ps};
            let h = _mm256_loadu_si256(src.as_ptr().cast::<__m256i>());
            std::mem::transmute::<__m512, [f32; LANES]>(_mm512_cvtph_ps(h))
        }
    }
    #[inline(always)]
    fn lane(self, (): (), h: u16) -> f32 {
        crate::quant::f16_to_f32(h)
    }
}

/// The packed matmul body recompiled with 256-bit vectors, 6x16 tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn matmul_packed_avx2(a: &[f32], b: &PackedMatrix, out: &mut [f32]) {
    crate::matrix::matmul_packed_body::<1>(a, b, out);
}

/// The packed matmul body recompiled with 512-bit vectors, 6x32 tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn matmul_packed_avx512(a: &[f32], b: &PackedMatrix, out: &mut [f32]) {
    crate::matrix::matmul_packed_body::<2>(a, b, out);
}

/// The gather body recompiled with 256-bit vectors.
///
/// # Safety
///
/// The CPU must support `avx2` and `f16c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn gather_avx2<D: Decode>(
    dec: D,
    data: &[D::Elem],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    crate::gather::gather_pool_body(dec, data, rows, indices, offsets, out);
}

/// The gather body recompiled with 512-bit vectors.
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512bw` and `avx512vl`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn gather_avx512<D: Decode>(
    dec: D,
    data: &[D::Elem],
    rows: u32,
    indices: &[u32],
    offsets: &[u32],
    out: &mut Matrix,
) {
    crate::gather::gather_pool_body(dec, data, rows, indices, offsets, out);
}
