/**
 * @file
 * AVX2+FMA kernels for the NCHWc8 blocked Winograd passes. This TU is
 * compiled with -mavx2 -mfma (see CMakeLists.txt) on x86-64 and
 * selected at runtime only when the CPU reports both features.
 *
 * The 8-wide c-block is exactly two ymm registers, so the tap-GEMM
 * holds a kTapPr x 8 accumulator tile in eight ymm registers, reads
 * each 8-channel weight vector with two contiguous loads, and
 * broadcasts U elements — every access on the blocked layout is unit
 * stride. All accumulation is fused, in the same ascending-channel
 * order as the blocked gemm core, so results are bit-identical to the
 * NCHW path on FMA hardware. The kron passes run in column strips
 * (winograd/tiled.hh kronStrips) whose short tail block takes the
 * full-width vector path, so no element's rounding depends on where
 * it falls in the vector schedule.
 */

#include "layout/kernels.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <cmath>
#include <cstring>
#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

void
avx2TapGemmD(const double *w, const double *u, double *m,
             std::size_t coutb, std::size_t cinb, std::size_t P,
             std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    static_assert(B == 8, "tap kernel assumes two 4-wide vectors");
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const double *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            __m256d acc[kTapPr][2];
            for (std::size_t pp = 0; pp < pr; ++pp) {
                acc[pp][0] = _mm256_setzero_pd();
                acc[pp][1] = _mm256_setzero_pd();
            }
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const double *ub = u + (cbi * P + p) * B;
                const double *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    const __m256d w0 = _mm256_loadu_pd(wb + li * B);
                    const __m256d w1 =
                        _mm256_loadu_pd(wb + li * B + 4);
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const __m256d uv =
                            _mm256_set1_pd(ub[pp * B + li]);
                        acc[pp][0] =
                            _mm256_fmadd_pd(uv, w0, acc[pp][0]);
                        acc[pp][1] =
                            _mm256_fmadd_pd(uv, w1, acc[pp][1]);
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp) {
                double *dst = m + (co * P + p + pp) * B;
                _mm256_storeu_pd(dst, acc[pp][0]);
                _mm256_storeu_pd(dst + 4, acc[pp][1]);
            }
        }
    }
}

/// ymm accumulators per kron register block: with two FMA ports at
/// four cycles' latency, eight independent chains keep both busy.
constexpr std::size_t kKronAcc = 8;

/**
 * FP kron pass in column strips (kronStrips): each 32-column block
 * of an output row accumulates in eight ymm registers across all of
 * the row's terms — a multiply for the first, one FMA per later term
 * in plan order — and is stored once.
 */
void
avx2KronD(const WinoKronPlan<double> &plan, const double *x,
          std::size_t len, double *y)
{
    constexpr std::size_t V = 4;
    kronStrips<kKronAcc * V>(
        plan, x, len, y,
        [](const double *src, std::size_t stride, const auto *t,
           std::size_t n, double *out) {
            __m256d acc[kKronAcc];
            const double *s0 = src + t[0].in * stride;
            const __m256d c0 = _mm256_set1_pd(t[0].coeff);
            for (std::size_t k = 0; k < kKronAcc; ++k)
                acc[k] = _mm256_mul_pd(c0, _mm256_loadu_pd(s0 + k * V));
            for (std::size_t i = 1; i < n; ++i) {
                const double *s = src + t[i].in * stride;
                const __m256d c = _mm256_set1_pd(t[i].coeff);
                for (std::size_t k = 0; k < kKronAcc; ++k)
                    acc[k] = _mm256_fmadd_pd(
                        c, _mm256_loadu_pd(s + k * V), acc[k]);
            }
            for (std::size_t k = 0; k < kKronAcc; ++k)
                _mm256_storeu_pd(out + k * V, acc[k]);
        });
}

/**
 * Widening int16 tap-GEMM: the 8-lane c-block is one ymm of int32
 * accumulators; each `vpmaddwd` consumes one broadcast pair of
 * adjacent blocked U values against a pair-interleaved 16-element
 * weight vector, accumulating two input channels for all 8 lanes.
 * Integer sums are order-free, so this is bit-identical to the
 * scalar reference.
 */
void
avx2TapGemmI16(const std::int16_t *w, const std::int16_t *u,
               std::int32_t *m, std::size_t coutb, std::size_t cinb,
               std::size_t P, std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    static_assert(B == 8, "tap kernel assumes one 8-lane i32 vector");
    const std::size_t pairs = cinb * B / 2;
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::int16_t *wt = w + co * pairs * 2 * B;
        for (std::size_t p = p0; p < p0 + pn; p += kTapPr) {
            const std::size_t pr = std::min(kTapPr, p0 + pn - p);
            __m256i acc[kTapPr];
            for (std::size_t pp = 0; pp < pr; ++pp)
                acc[pp] = _mm256_setzero_si256();
            for (std::size_t cp = 0; cp < pairs; ++cp) {
                const std::int16_t *ub =
                    u + ((cp / 4) * P + p) * B + (cp % 4) * 2;
                const __m256i wv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wt +
                                                      cp * 2 * B));
                for (std::size_t pp = 0; pp < pr; ++pp) {
                    std::int32_t pair;
                    std::memcpy(&pair, ub + pp * B, sizeof pair);
                    acc[pp] = _mm256_add_epi32(
                        acc[pp],
                        _mm256_madd_epi16(_mm256_set1_epi32(pair),
                                          wv));
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp)
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(
                        m + (co * P + p + pp) * B),
                    acc[pp]);
        }
    }
}

/**
 * Integer kron pass in column strips: exact int32 sums accumulate in
 * eight ymm registers per 64-column block, with +-1 coefficients —
 * the majority for F2, common for F4 — taking a multiply-free
 * add/sub path (vpmulld costs two uops on most cores).
 */
void
avx2KronI32(const WinoKronPlan<std::int32_t> &plan,
            const std::int32_t *x, std::size_t len, std::int32_t *y)
{
    constexpr std::size_t V = 8;
    kronStrips<kKronAcc * V>(
        plan, x, len, y,
        [](const std::int32_t *src, std::size_t stride, const auto *t,
           std::size_t n, std::int32_t *out) {
            const auto load = [](const std::int32_t *p) {
                return _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p));
            };
            __m256i acc[kKronAcc];
            for (std::size_t k = 0; k < kKronAcc; ++k)
                acc[k] = _mm256_setzero_si256();
            for (std::size_t i = 0; i < n; ++i) {
                const std::int32_t *s = src + t[i].in * stride;
                const std::int32_t c = t[i].coeff;
                if (c == 1) {
                    for (std::size_t k = 0; k < kKronAcc; ++k)
                        acc[k] = _mm256_add_epi32(acc[k],
                                                  load(s + k * V));
                } else if (c == -1) {
                    for (std::size_t k = 0; k < kKronAcc; ++k)
                        acc[k] = _mm256_sub_epi32(acc[k],
                                                  load(s + k * V));
                } else {
                    const __m256i cv = _mm256_set1_epi32(c);
                    for (std::size_t k = 0; k < kKronAcc; ++k)
                        acc[k] = _mm256_add_epi32(
                            acc[k],
                            _mm256_mullo_epi32(cv, load(s + k * V)));
                }
            }
            for (std::size_t k = 0; k < kKronAcc; ++k)
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(out + k * V), acc[k]);
        });
}

/**
 * Requantization narrowing: branch-free round-half-away-from-zero
 * (sign-fold, add bias, logical shift, sign-restore — identical
 * values to shiftRightRound), clamp to the `bits` range, pack pairs
 * of int32 vectors to int16 (the clamp keeps every value inside
 * int16, so vpackssdw saturation never engages).
 */
void
avx2RescaleI16(const std::int32_t *src, std::int16_t *dst,
               std::size_t len, int shift, int bits)
{
    const __m256i lov =
        _mm256_set1_epi32(-(std::int32_t{1} << (bits - 1)));
    const __m256i hiv =
        _mm256_set1_epi32((std::int32_t{1} << (bits - 1)) - 1);
    const __m256i bias = _mm256_set1_epi32(
        shift > 0 ? std::int32_t{1} << (shift - 1) : 0);
    const auto round1 = [&](__m256i v) {
        const __m256i sign = _mm256_srai_epi32(v, 31);
        const __m256i absv = _mm256_sub_epi32(
            _mm256_xor_si256(v, sign), sign);
        const __m256i sh = _mm256_srli_epi32(
            _mm256_add_epi32(absv, bias), shift);
        const __m256i r =
            _mm256_sub_epi32(_mm256_xor_si256(sh, sign), sign);
        return _mm256_max_epi32(_mm256_min_epi32(r, hiv), lov);
    };
    std::size_t i = 0;
    for (; i + 16 <= len; i += 16) {
        const __m256i a = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i)));
        const __m256i b = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 8)));
        // packs interleaves 128-bit lanes; vpermq restores order.
        const __m256i p = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(a, b), 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::int16_t>(
            clampSigned(shiftRightRound(src[i], shift), bits));
}

/**
 * Biased-u8 requantization narrowing: the rescaleI16 rounding/clamp
 * core, then +128 and a pack to bytes (clamped values + 128 lie in
 * [0, 255], so vpackus saturation never engages). The 128-bit-lane
 * interleave of the two pack steps is undone by one vpermd.
 */
void
avx2RescaleU8(const std::int32_t *src, std::uint8_t *dst,
              std::size_t len, int shift, int bits)
{
    const __m256i lov =
        _mm256_set1_epi32(-(std::int32_t{1} << (bits - 1)));
    const __m256i hiv =
        _mm256_set1_epi32((std::int32_t{1} << (bits - 1)) - 1);
    const __m256i bias = _mm256_set1_epi32(
        shift > 0 ? std::int32_t{1} << (shift - 1) : 0);
    const __m256i off = _mm256_set1_epi32(128);
    const __m256i perm =
        _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto round1 = [&](__m256i v) {
        const __m256i sign = _mm256_srai_epi32(v, 31);
        const __m256i absv = _mm256_sub_epi32(
            _mm256_xor_si256(v, sign), sign);
        const __m256i sh = _mm256_srli_epi32(
            _mm256_add_epi32(absv, bias), shift);
        const __m256i r =
            _mm256_sub_epi32(_mm256_xor_si256(sh, sign), sign);
        return _mm256_add_epi32(
            _mm256_max_epi32(_mm256_min_epi32(r, hiv), lov), off);
    };
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i a = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i)));
        const __m256i b = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 8)));
        const __m256i c = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 16)));
        const __m256i d = round1(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i + 24)));
        const __m256i p = _mm256_permutevar8x32_epi32(
            _mm256_packus_epi16(_mm256_packs_epi32(a, b),
                                _mm256_packs_epi32(c, d)),
            perm);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::uint8_t>(
            clampSigned(shiftRightRound(src[i], shift), bits) + 128);
}

/**
 * Pow2 input quantization: exact-reciprocal multiply, vroundpd
 * (nearest-even == std::nearbyint under the default FP env), clamp,
 * convert — bit-identical to the scalar quantize() path.
 */
void
avx2QuantizeI32(const double *src, double inv, double lo, double hi,
                std::int32_t *dst, std::size_t len)
{
    const __m256d iv = _mm256_set1_pd(inv);
    const __m256d lov = _mm256_set1_pd(lo);
    const __m256d hiv = _mm256_set1_pd(hi);
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const __m256d q = _mm256_max_pd(
            _mm256_min_pd(
                _mm256_round_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(src + i), iv),
                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC),
                hiv),
            lov);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm256_cvtpd_epi32(q));
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::int32_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/**
 * Pow2 int8 activation quantization: the QuantizeI32 round/clamp per
 * 4 doubles, then four 8-wide int32 groups pack to 32 int8 via the
 * signed saturating packs (values are pre-clamped, so saturation
 * never alters them) with the same cross-lane fixup permute as the
 * rescale narrowing kernels. Bit-identical to the scalar reference.
 */
void
avx2QuantizeI8(const double *src, double inv, double lo, double hi,
               std::int8_t *dst, std::size_t len)
{
    const __m256d iv = _mm256_set1_pd(inv);
    const __m256d lov = _mm256_set1_pd(lo);
    const __m256d hiv = _mm256_set1_pd(hi);
    const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto q4 = [&](const double *s) {
        return _mm256_cvtpd_epi32(_mm256_max_pd(
            _mm256_min_pd(
                _mm256_round_pd(
                    _mm256_mul_pd(_mm256_loadu_pd(s), iv),
                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC),
                hiv),
            lov));
    };
    const auto q8 = [&](const double *s) {
        return _mm256_set_m128i(q4(s + 4), q4(s));
    };
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i a = q8(src + i);
        const __m256i b = q8(src + i + 8);
        const __m256i c = q8(src + i + 16);
        const __m256i d = q8(src + i + 24);
        const __m256i p = _mm256_permutevar8x32_epi32(
            _mm256_packs_epi16(_mm256_packs_epi32(a, b),
                               _mm256_packs_epi32(c, d)),
            perm);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    for (; i < len; ++i)
        dst[i] = static_cast<std::int8_t>(
            std::clamp(std::nearbyint(src[i] * inv), lo, hi));
}

/** FP dequant scale pass: cvtepi32->pd and one mul per 4 lanes. */
void
avx2ScaleI32F64(const std::int32_t *src, const double *scale8,
                double *dst, std::size_t tiles)
{
    const __m256d s0 = _mm256_loadu_pd(scale8);
    const __m256d s1 = _mm256_loadu_pd(scale8 + 4);
    for (std::size_t p = 0; p < tiles; ++p) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + p * 8));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + p * 8 + 4));
        _mm256_storeu_pd(dst + p * 8,
                         _mm256_mul_pd(_mm256_cvtepi32_pd(a), s0));
        _mm256_storeu_pd(dst + p * 8 + 4,
                         _mm256_mul_pd(_mm256_cvtepi32_pd(b), s1));
    }
}

/**
 * Fused epilogue row pass: two ymm per 8-lane group. vmaxpd with the
 * zero vector as the FIRST operand returns the second on equal or
 * NaN, which is exactly `s < 0 ? 0 : s` — -0.0 and NaN pass through,
 * keeping the fused write bit-identical to the scalar separate pass.
 */
void
avx2EpilogueRowD(const double *src, double *dst, std::size_t dstStride,
                 std::size_t count, const double *bias8, bool relu)
{
    const __m256d z = _mm256_setzero_pd();
    if (bias8) {
        const __m256d b0 = _mm256_loadu_pd(bias8);
        const __m256d b1 = _mm256_loadu_pd(bias8 + 4);
        if (relu) {
            for (std::size_t i = 0; i < count; ++i) {
                const __m256d v0 = _mm256_max_pd(
                    z, _mm256_add_pd(_mm256_loadu_pd(src + i * 8),
                                     b0));
                const __m256d v1 = _mm256_max_pd(
                    z, _mm256_add_pd(_mm256_loadu_pd(src + i * 8 + 4),
                                     b1));
                _mm256_storeu_pd(dst + i * dstStride, v0);
                _mm256_storeu_pd(dst + i * dstStride + 4, v1);
            }
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                _mm256_storeu_pd(
                    dst + i * dstStride,
                    _mm256_add_pd(_mm256_loadu_pd(src + i * 8), b0));
                _mm256_storeu_pd(
                    dst + i * dstStride + 4,
                    _mm256_add_pd(_mm256_loadu_pd(src + i * 8 + 4),
                                  b1));
            }
        }
    } else if (relu) {
        for (std::size_t i = 0; i < count; ++i) {
            _mm256_storeu_pd(
                dst + i * dstStride,
                _mm256_max_pd(z, _mm256_loadu_pd(src + i * 8)));
            _mm256_storeu_pd(
                dst + i * dstStride + 4,
                _mm256_max_pd(z, _mm256_loadu_pd(src + i * 8 + 4)));
        }
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            _mm256_storeu_pd(dst + i * dstStride,
                             _mm256_loadu_pd(src + i * 8));
            _mm256_storeu_pd(dst + i * dstStride + 4,
                             _mm256_loadu_pd(src + i * 8 + 4));
        }
    }
}

/** float counterpart: one ymm covers the whole 8-lane group. */
void
avx2EpilogueRowF(const float *src, float *dst, std::size_t dstStride,
                 std::size_t count, const float *bias8, bool relu)
{
    const __m256 z = _mm256_setzero_ps();
    if (bias8) {
        const __m256 b = _mm256_loadu_ps(bias8);
        if (relu) {
            for (std::size_t i = 0; i < count; ++i)
                _mm256_storeu_ps(
                    dst + i * dstStride,
                    _mm256_max_ps(
                        z, _mm256_add_ps(_mm256_loadu_ps(src + i * 8),
                                         b)));
        } else {
            for (std::size_t i = 0; i < count; ++i)
                _mm256_storeu_ps(
                    dst + i * dstStride,
                    _mm256_add_ps(_mm256_loadu_ps(src + i * 8), b));
        }
    } else if (relu) {
        for (std::size_t i = 0; i < count; ++i)
            _mm256_storeu_ps(
                dst + i * dstStride,
                _mm256_max_ps(z, _mm256_loadu_ps(src + i * 8)));
    } else {
        for (std::size_t i = 0; i < count; ++i)
            _mm256_storeu_ps(dst + i * dstStride,
                             _mm256_loadu_ps(src + i * 8));
    }
}

} // namespace

LayoutKernels
avx2LayoutKernels()
{
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma")) {
        LayoutKernels k;
        k.tapGemm = &avx2TapGemmD;
        k.kron = &avx2KronD;
        k.tapGemmI16 = &avx2TapGemmI16;
        k.kronI32 = &avx2KronI32;
        k.rescaleI16 = &avx2RescaleI16;
        k.rescaleU8 = &avx2RescaleU8;
        k.scaleI32F64 = &avx2ScaleI32F64;
        k.quantizeI32 = &avx2QuantizeI32;
        k.quantizeI8 = &avx2QuantizeI8;
        k.epilogueRowD = &avx2EpilogueRowD;
        k.epilogueRowF = &avx2EpilogueRowF;
        k.name = "avx2";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !(__AVX2__ && __FMA__)

namespace twq
{
namespace layout
{

LayoutKernels
avx2LayoutKernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
