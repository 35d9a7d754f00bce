/**
 * @file
 * F16C + AVX2 + FMA kernels for the half-precision blocked Winograd
 * engine. This TU is compiled with -mavx2 -mfma -mf16c (see
 * CMakeLists.txt) on x86-64 and selected at runtime only when the CPU
 * reports all three features.
 *
 * The 8-wide c-block is exactly one ymm of floats, so the tap-GEMM
 * holds a kTapPr x 8 accumulator tile in four ymm registers, widens
 * each 8-half weight vector with a single `vcvtph2ps`, and broadcasts
 * U elements — half the weight-side bytes of the double kernel per
 * fused multiply-add. Narrowing uses `vcvtps2ph` with an explicit
 * round-to-nearest-even immediate, so results do not depend on MXCSR
 * state and match the software half exactly.
 */

#include "layout/kernels_f16.hh"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

namespace twq
{
namespace layout
{

namespace
{

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void
avx2Widen(const std::uint16_t *src, float *dst, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(
            dst + i,
            _mm256_cvtph_ps(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + i))));
    for (; i < len; ++i)
        dst[i] = softHalfToFloat(src[i]);
}

void
avx2Narrow(const float *src, std::uint16_t *dst, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(dst + i),
            _mm256_cvtps_ph(_mm256_loadu_ps(src + i), kRne));
    for (; i < len; ++i)
        dst[i] = softFloatToHalf(src[i]);
}

void
avx2TapGemmF16(const std::uint16_t *w, const float *u, float *m,
               std::size_t coutb, std::size_t cinb, std::size_t P,
               std::size_t p0, std::size_t pn)
{
    constexpr std::size_t B = kLayoutBlock;
    constexpr std::size_t kPr = 4; // == layout::kTapPr
    static_assert(B == 8, "tap kernel assumes one 8-wide ps vector");
    const std::size_t cinp = cinb * B;
    for (std::size_t co = 0; co < coutb; ++co) {
        const std::uint16_t *wt = w + co * cinp * B;
        for (std::size_t p = p0; p < p0 + pn; p += kPr) {
            const std::size_t pr = std::min(kPr, p0 + pn - p);
            __m256 acc[kPr];
            for (std::size_t pp = 0; pp < pr; ++pp)
                acc[pp] = _mm256_setzero_ps();
            for (std::size_t cbi = 0; cbi < cinb; ++cbi) {
                const float *ub = u + (cbi * P + p) * B;
                const std::uint16_t *wb = wt + cbi * B * B;
                for (std::size_t li = 0; li < B; ++li) {
                    const __m256 w8 = _mm256_cvtph_ps(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(wb +
                                                          li * B)));
                    for (std::size_t pp = 0; pp < pr; ++pp) {
                        const __m256 uv =
                            _mm256_set1_ps(ub[pp * B + li]);
                        acc[pp] =
                            _mm256_fmadd_ps(uv, w8, acc[pp]);
                    }
                }
            }
            for (std::size_t pp = 0; pp < pr; ++pp)
                _mm256_storeu_ps(m + (co * P + p + pp) * B, acc[pp]);
        }
    }
}

/**
 * Float kron pass in column strips (winograd/tiled.hh kronStrips):
 * each 64-column block of an output row accumulates in eight ymm
 * registers across all of the row's terms — a multiply for the
 * first, one FMA per later term in plan order — and is stored once.
 */
void
avx2KronF(const WinoKronPlan<float> &plan, const float *x,
          std::size_t len, float *y)
{
    constexpr std::size_t V = 8;
    constexpr std::size_t K = 8; // two FMA ports x four cycles
    kronStrips<K * V>(
        plan, x, len, y,
        [](const float *src, std::size_t stride, const auto *t,
           std::size_t n, float *out) {
            __m256 acc[K];
            const float *s0 = src + t[0].in * stride;
            const __m256 c0 = _mm256_set1_ps(t[0].coeff);
            for (std::size_t k = 0; k < K; ++k)
                acc[k] = _mm256_mul_ps(c0, _mm256_loadu_ps(s0 + k * V));
            for (std::size_t i = 1; i < n; ++i) {
                const float *s = src + t[i].in * stride;
                const __m256 c = _mm256_set1_ps(t[i].coeff);
                for (std::size_t k = 0; k < K; ++k)
                    acc[k] = _mm256_fmadd_ps(
                        c, _mm256_loadu_ps(s + k * V), acc[k]);
            }
            for (std::size_t k = 0; k < K; ++k)
                _mm256_storeu_ps(out + k * V, acc[k]);
        });
}

} // namespace

F16Kernels
avx2F16Kernels()
{
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma") &&
        __builtin_cpu_supports("f16c")) {
        F16Kernels k;
        k.widen = &avx2Widen;
        k.narrow = &avx2Narrow;
        k.tapGemm = &avx2TapGemmF16;
        k.kron = &avx2KronF;
        k.name = "avx2-f16c";
        return k;
    }
    return {};
}

} // namespace layout
} // namespace twq

#else // !(__AVX2__ && __FMA__ && __F16C__)

namespace twq
{
namespace layout
{

F16Kernels
avx2F16Kernels()
{
    return {};
}

} // namespace layout
} // namespace twq

#endif
