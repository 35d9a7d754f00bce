/**
 * @file
 * Internal SIMD kernel machinery for the NCHWc8 blocked-layout
 * Winograd passes. Not part of the public API.
 *
 * Mirrors gemm/kernels.hh: the scalar reference implementations are
 * defined `static` so every TU including this header compiles its own
 * internal-linkage copy under that TU's instruction-set flags, and
 * the AVX2 TU (compiled -mavx2 -mfma, runtime-gated) and NEON TU
 * export resolver functions that return null when unsupported.
 *
 * Two kernels make up the blocked hot path:
 *
 *  - tapGemm: the c-blocked per-tap product. U holds a tap as
 *    [Cinb, P, 8] (8 input channels contiguous per tile), the weights
 *    as [Coutb][Cinb*8][8] (8 output channels contiguous per input
 *    channel), and M is produced as [Coutb, P, 8] — so the inner loop
 *    broadcasts one U element and multiply-accumulates an 8-wide
 *    contiguous weight vector into an 8-wide accumulator: the c-block
 *    is the SIMD lane dimension. Accumulation runs one fused
 *    multiply-add per element in strictly ascending input-channel
 *    order, the same order as the blocked gemm core, so on FMA
 *    hardware the blocked product is bit-identical to the NCHW
 *    per-tap GEMM.
 *
 *  - kron: the B^T (x) B^T / A^T (x) A^T passes over the flat
 *    blocked buffers, run in L1-sized column strips
 *    (winograd/tiled.hh kronStrips). Each strip of every input row
 *    is first copied into one contiguous stack buffer: the rows sit a
 *    multiple of 4 KiB apart, so read in place they all map onto the
 *    same L1 sets. Each output row's segment then accumulates in
 *    registers across all its terms and is stored once, instead of
 *    one load-FMA-store sweep of the whole row per term. The explicit
 *    kernel multiplies by the first term and fuses a multiply-add per
 *    later term; a short tail block takes the same vector path, so
 *    lane position never changes rounding.
 */

#ifndef TWQ_LAYOUT_KERNELS_HH
#define TWQ_LAYOUT_KERNELS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/bits.hh"
#include "layout/layout.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace layout
{

/** Tiles processed per accumulator block of the tap-GEMM kernels. */
inline constexpr std::size_t kTapPr = 4;

/**
 * Blocked per-tap product over tile columns [p0, p0 + pn) of a tap:
 * m[co, p, l] = sum_ic w[co, ic, l] * u[ic / 8, p, ic % 8], with u
 * [cinb, P, 8], w [coutb][cinb*8][8] and m [coutb, P, 8].
 */
using TapGemmDFn = void (*)(const double *w, const double *u,
                            double *m, std::size_t coutb,
                            std::size_t cinb, std::size_t P,
                            std::size_t p0, std::size_t pn);

/**
 * Widening int16 -> int32 counterpart backing the quantized blocked
 * pipeline (quant/int_wino_blocked.hh). Same contract as TapGemmDFn,
 * but the weights come PAIR-INTERLEAVED along the input channels:
 * w[co][cp][l][2] holds channels (2cp, 2cp + 1) of lane l adjacent,
 * so the AVX2 kernel feeds `vpmaddwd` directly — one broadcast of two
 * adjacent u values (contiguous in the blocked [cinb, P, 8] layout)
 * against a pair-interleaved 16-element weight vector pair-sums two
 * input channels for all 8 lanes per instruction. cinb * 8 is even by
 * construction, so pairs never straddle a block. Operands hold at
 * most `winogradBits` <= 10 bits, so products fit int16 x int16 ->
 * int32 exactly, and the int32 accumulation is wrap-free for the
 * channel counts the pipeline asserts. Integer sums are order-free:
 * every kernel is bit-identical to the scalar reference.
 */
using TapGemmI16Fn = void (*)(const std::int16_t *w,
                              const std::int16_t *u, std::int32_t *m,
                              std::size_t coutb, std::size_t cinb,
                              std::size_t P, std::size_t p0,
                              std::size_t pn);

/** applyKron over rows of length `len` (identical contract). */
using KronDFn = void (*)(const WinoKronPlan<double> &plan,
                         const double *x, std::size_t len, double *y);

/** Integer applyKron counterpart (exact — order-free int sums). */
using KronI32Fn = void (*)(const WinoKronPlan<std::int32_t> &plan,
                           const std::int32_t *x, std::size_t len,
                           std::int32_t *y);

/**
 * The S_B requantization narrowing pass of the quantized blocked
 * pipeline: dst[i] = clampSigned(shiftRightRound(src[i], shift),
 * bits) as int16, for shift >= 0 (S_B never scales up). Exact
 * (branch-free sign arithmetic computes the identical
 * round-half-away-from-zero result).
 */
using RescaleI16Fn = void (*)(const std::int32_t *src,
                              std::int16_t *dst, std::size_t len,
                              int shift, int bits);

/**
 * u8 x s8 counterpart of TapGemmI16Fn for 8-bit Winograd-domain
 * operands, the layout-side `vpdpbusd` variant: `u` holds the
 * requantized taps biased into unsigned range (value + 128), `w` the
 * QUAD-interleaved signed weights ([co][cinp/4][8][4], four input
 * channels per lane adjacent), and `comp` the per-output-lane
 * compensation 128 * sum_ic w[co, ic, l] for this tap (precomputed
 * at weight-prepare time — the weights are static), subtracted so
 * the result equals the unbiased product exactly:
 *
 *     sum_ic (u + 128) * w - 128 * sum_ic w = sum_ic u * w.
 */
using TapGemmU8Fn = void (*)(const std::int8_t *w,
                             const std::uint8_t *u,
                             const std::int32_t *comp,
                             std::int32_t *m, std::size_t coutb,
                             std::size_t cinb, std::size_t P,
                             std::size_t p0, std::size_t pn);

/**
 * RescaleI16Fn counterpart emitting the biased u8 operand of
 * TapGemmU8Fn: dst[i] = u8(clampSigned(shiftRightRound(src[i],
 * shift), bits) + 128), for bits <= 8.
 */
using RescaleU8Fn = void (*)(const std::int32_t *src,
                             std::uint8_t *dst, std::size_t len,
                             int shift, int bits);

/**
 * The spatial-domain input quantization of the quantized blocked
 * pipeline for POWER-OF-TWO scales: dst[i] =
 * clamp(nearbyint(src[i] * inv), lo, hi) with inv = 1 / scale.
 * Division by a power of two is exact and so is multiplication by
 * its reciprocal, and vroundpd's round-to-nearest-even is exactly
 * std::nearbyint under the default FP environment — so this is
 * bit-identical to quantize() from quant/quantizer.hh, element for
 * element. Non-pow2 scales must keep the scalar divide.
 */
using QuantizeI32Fn = void (*)(const double *src, double inv,
                               double lo, double hi,
                               std::int32_t *dst, std::size_t len);

/**
 * QuantizeI32Fn narrowing counterpart for the int8 im2col engine's
 * activation quantization: dst[i] = int8(clamp(nearbyint(src[i] *
 * inv), lo, hi)), in the style of the rescale* narrowing kernels.
 * Bit-identical to quantize() from quant/quantizer.hh when `inv` is
 * the exact reciprocal of the scale (power-of-two scales); arbitrary
 * scales must keep the scalar divide.
 */
using QuantizeI8Fn = void (*)(const double *src, double inv, double lo,
                              double hi, std::int8_t *dst,
                              std::size_t len);

/**
 * The fused bias/ReLU epilogue over one untile output row: `count`
 * groups of 8 lanes, group i read from src + i*8 (tile columns are
 * contiguous in Y) and written to dst + i*dstStride (the untiled
 * surface strides by m*8 between tile points of one row),
 *
 *     dst[i*dstStride + l] = relu(src[i*8 + l] + bias8[l]).
 *
 * bias8 may be null (ReLU only) and relu false (bias only) — a null
 * bias must NOT degenerate to adding 0.0, which would flip -0.0
 * outputs to +0.0. The ReLU select is exactly `s < 0 ? 0 : s`: -0.0
 * and NaN pass through unchanged, so the fused write is bit-identical
 * to the separate-pass epilogue (vmaxpd with the zero operand first
 * has precisely these semantics).
 */
using EpilogueRowDFn = void (*)(const double *src, double *dst,
                                std::size_t dstStride,
                                std::size_t count, const double *bias8,
                                bool relu);

/** float counterpart of EpilogueRowDFn (the f16 engine's untile). */
using EpilogueRowFFn = void (*)(const float *src, float *dst,
                                std::size_t dstStride,
                                std::size_t count, const float *bias8,
                                bool relu);

/**
 * The FP dequant scale pass of the quantized blocked pipeline: one
 * (tap, coutb) slice of the GEMM output M scaled per lane,
 * dst[p*8 + l] = double(src[p*8 + l]) * scale8[l] over `tiles`
 * tiles.
 */
using ScaleI32F64Fn = void (*)(const std::int32_t *src,
                               const double *scale8, double *dst,
                               std::size_t tiles);

/** One ISA's kernel set; null entries mean "not available here". */
struct LayoutKernels
{
    TapGemmDFn tapGemm = nullptr;
    KronDFn kron = nullptr;
    TapGemmI16Fn tapGemmI16 = nullptr;
    KronI32Fn kronI32 = nullptr;
    RescaleI16Fn rescaleI16 = nullptr;
    /// u8 x s8 tap GEMM for 8-bit operands; null everywhere except
    /// AVX-512 VNNI hosts (plain AVX2's vpmaddubsw would saturate).
    TapGemmU8Fn tapGemmU8 = nullptr;
    RescaleU8Fn rescaleU8 = nullptr;
    ScaleI32F64Fn scaleI32F64 = nullptr;
    QuantizeI32Fn quantizeI32 = nullptr;
    QuantizeI8Fn quantizeI8 = nullptr;
    EpilogueRowDFn epilogueRowD = nullptr;
    EpilogueRowFFn epilogueRowF = nullptr;
    const char *name = "scalar";
};

/// AVX2+FMA kernels (kernels_avx2.cc); nulls when not compiled in or
/// the CPU lacks support.
LayoutKernels avx2LayoutKernels();

/// NEON kernels (kernels_neon.cc); nulls off aarch64.
LayoutKernels neonLayoutKernels();

/// AVX-512 VNNI overrides (kernels_vnni.cc): the vpdpbusd u8 x s8
/// tap GEMM and a vpdpwssd int16 tap GEMM; nulls when not compiled
/// in or the CPU lacks AVX512VL+VNNI. Merged over the AVX2 table by
/// kernels().
LayoutKernels vnniLayoutKernels();

/// The resolved process-wide kernel set (wino_blocked.cc).
const LayoutKernels &kernels();

/** Scalar reference tap-GEMM; the autovectorization-friendly shape. */
template <typename Dummy = void>
static void
scalarTapGemmD(const double *w, const double *u, double *m,
               std::size_t coutb, std::size_t cinb, std::size_t P,
               std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const double *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            double acc[kTapPr][B] = {};
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const double *ub = u + (cbi * P + p) * B;
                const double *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    const double *w8 = wb + li * B;
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const double uv = ub[pp * B + li];
                        for (std::size_t l = 0; l < B; ++l)
                            acc[pp][l] += uv * w8[l];
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                double *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

/** Scalar reference kron pass: applyKron itself. */
template <typename Dummy = void>
static void
scalarKronD(const WinoKronPlan<double> &plan, const double *x,
            std::size_t len, double *y)
{
    applyKron(plan, x, len, y);
}

/** Scalar reference integer kron pass. */
template <typename Dummy = void>
static void
scalarKronI32(const WinoKronPlan<std::int32_t> &plan,
              const std::int32_t *x, std::size_t len, std::int32_t *y)
{
    applyKron(plan, x, len, y);
}

/** Scalar reference of the requantization narrowing pass. */
template <typename Dummy = void>
static void
scalarRescaleI16(const std::int32_t *src, std::int16_t *dst,
                 std::size_t len, int shift, int bits)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::int16_t>(
            clampSigned(shiftRightRound(src[i], shift), bits));
}

/** Scalar reference of the pow2 input quantization. */
template <typename Dummy = void>
static void
scalarQuantizeI32(const double *src, double inv, double lo, double hi,
                  std::int32_t *dst, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::int32_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/** Scalar reference of the pow2 int8 activation quantization. */
template <typename Dummy = void>
static void
scalarQuantizeI8(const double *src, double inv, double lo, double hi,
                 std::int8_t *dst, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::int8_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/**
 * Scalar reference of the fused epilogue row pass. The per-mode tight
 * loops matter even here: one data-dependent ReLU branch per lane
 * mispredicts ~half the time over a whole activation surface.
 */
template <typename T>
inline void
epilogueRowRef(const T *src, T *dst, std::size_t dstStride,
               std::size_t count, const T *bias8, bool relu)
{
    constexpr std::size_t B = kLayoutBlock;
    if (bias8 && relu) {
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t l = 0; l < B; ++l) {
                const T s = src[i * B + l] + bias8[l];
                dst[i * dstStride + l] = s < T{} ? T{} : s;
            }
    } else if (bias8) {
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t l = 0; l < B; ++l)
                dst[i * dstStride + l] = src[i * B + l] + bias8[l];
    } else if (relu) {
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t l = 0; l < B; ++l) {
                const T s = src[i * B + l];
                dst[i * dstStride + l] = s < T{} ? T{} : s;
            }
    } else {
        for (std::size_t i = 0; i < count; ++i)
            std::copy(src + i * B, src + (i + 1) * B,
                      dst + i * dstStride);
    }
}

/** Scalar reference of the double epilogue row pass. */
template <typename Dummy = void>
static void
scalarEpilogueRowD(const double *src, double *dst,
                   std::size_t dstStride, std::size_t count,
                   const double *bias8, bool relu)
{
    epilogueRowRef(src, dst, dstStride, count, bias8, relu);
}

/** Scalar reference of the float epilogue row pass. */
template <typename Dummy = void>
static void
scalarEpilogueRowF(const float *src, float *dst, std::size_t dstStride,
                   std::size_t count, const float *bias8, bool relu)
{
    epilogueRowRef(src, dst, dstStride, count, bias8, relu);
}

/** Scalar reference of the FP dequant scale pass. */
template <typename Dummy = void>
static void
scalarScaleI32F64(const std::int32_t *src, const double *scale8,
                  double *dst, std::size_t tiles)
{
    constexpr std::size_t B = kLayoutBlock;
    for (std::size_t p = 0; p < tiles; ++p)
        for (std::size_t l = 0; l < B; ++l)
            dst[p * B + l] =
                static_cast<double>(src[p * B + l]) * scale8[l];
}

/** Scalar reference of the biased-u8 requantization pass. */
template <typename Dummy = void>
static void
scalarRescaleU8(const std::int32_t *src, std::uint8_t *dst,
                std::size_t len, int shift, int bits)
{
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = static_cast<std::uint8_t>(
            clampSigned(shiftRightRound(src[i], shift), bits) + 128);
}

/** Scalar reference u8 x s8 tap-GEMM on quad-interleaved weights. */
template <typename Dummy = void>
static void
scalarTapGemmU8(const std::int8_t *w, const std::uint8_t *u,
                const std::int32_t *comp, std::int32_t *m,
                std::size_t coutb, std::size_t cinb, std::size_t P,
                std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t quads = cinb * B / 4; // channel quads
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int8_t *wt = w + co * quads * 4 * B;
        const std::int32_t *cv = comp + co * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            std::int32_t acc[kTapPr][B];
            for (std::size_t pp = 0; pp < pr; ++pp)
                for (std::size_t l = 0; l < B; ++l)
                    acc[pp][l] = -cv[l];
            for (std::size_t q = 0; q < quads; ++q) {
                // Channels 4q..4q+3 live in block q / 2 at lane
                // offset 4 * (q % 2) — adjacent in the blocked U.
                const std::uint8_t *ub =
                    u + ((q / 2) * P + p) * B + (q % 2) * 4;
                const std::int8_t *wb = wt + q * 4 * B;
                for (std::size_t pp = 0; pp < pr; ++pp)
                    for (std::size_t l = 0; l < B; ++l)
                        for (std::size_t j = 0; j < 4; ++j)
                            acc[pp][l] +=
                                static_cast<std::int32_t>(
                                    ub[pp * B + j]) *
                                static_cast<std::int32_t>(
                                    wb[l * 4 + j]);
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                std::int32_t *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

/** Scalar reference widening tap-GEMM on pair-interleaved weights. */
template <typename Dummy = void>
static void
scalarTapGemmI16(const std::int16_t *w, const std::int16_t *u,
                 std::int32_t *m, std::size_t coutb, std::size_t cinb,
                 std::size_t P, std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    const std::size_t pairs = cinb * B / 2; // channel pairs
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int16_t *wt = w + co * pairs * 2 * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            std::int32_t acc[kTapPr][B] = {};
            for (std::size_t cp = 0; cp < pairs; ++cp) {
                // Channels (2cp, 2cp+1) live in block cp / 4 at lane
                // offset 2 * (cp % 4) — adjacent in the blocked U.
                const std::int16_t *ub =
                    u + ((cp / 4) * P + p) * B + (cp % 4) * 2;
                const std::int16_t *wb = wt + cp * 2 * B;
                for (std::size_t pp = 0; pp < pr; ++pp) {
                    const std::int32_t u0 = ub[pp * B];
                    const std::int32_t u1 = ub[pp * B + 1];
                    for (std::size_t l = 0; l < B; ++l)
                        acc[pp][l] += u0 * wb[l * 2] +
                                      u1 * wb[l * 2 + 1];
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                std::int32_t *dst = m + (co * P + p + pp) * B;
                for (std::size_t l = 0; l < B; ++l)
                    dst[l] = acc[pp][l];
            }
        }
    }
}

} // namespace layout
} // namespace twq

#endif // TWQ_LAYOUT_KERNELS_HH
