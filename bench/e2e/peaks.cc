/**
 * @file
 * Two microloops that measure the host's roofs, so every stage can be
 * reported as achieved GB/s or GFLOP/s against them without hardware
 * counters (which containers often deny).
 */

#include <algorithm>
#include <cstring>
#include <vector>

#include "e2e.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define E2E_X86_FMA 1
#endif

namespace e2e
{

namespace
{

constexpr int kReps = 5;
constexpr int kChains = 10; ///< independent accumulators (hides latency)
constexpr long kIters = 2'000'000;

#ifdef E2E_X86_FMA
/** Best-of-kReps AVX2 FMA rate; call only when the CPU has AVX2+FMA. */
__attribute__((target("avx2,fma"))) double
fmaAvx2()
{
    double best = 0.0;
    for (int r = 0; r < kReps; ++r) {
        __m256d acc[kChains];
        for (int c = 0; c < kChains; ++c)
            acc[c] = _mm256_set1_pd(1.0 + c * 1e-3);
        const __m256d mul = _mm256_set1_pd(0.9999999);
        const __m256d add = _mm256_set1_pd(1e-7);
        const std::uint64_t t0 = nowNs();
        for (long i = 0; i < kIters; ++i)
            for (int c = 0; c < kChains; ++c)
                acc[c] = _mm256_fmadd_pd(acc[c], mul, add);
        const double ns = static_cast<double>(nowNs() - t0);
        __m256d sum = acc[0];
        for (int c = 1; c < kChains; ++c)
            sum = _mm256_add_pd(sum, acc[c]);
        double lanes[4];
        _mm256_storeu_pd(lanes, sum);
        // Consume the result so the loop cannot be elided.
        if (lanes[0] + lanes[1] + lanes[2] + lanes[3] == 0.0)
            return 0.0;
        best = std::max(best, 2.0 * 4 * kChains * kIters / ns);
    }
    return best;
}
#endif

} // namespace

double
hostStreamGbps()
{
    // 32 MiB per buffer: past L2 everywhere; on hosts with a very
    // large L3 this is the cache-resident roof the stage buffers of
    // one layer (a few MiB) actually see.
    constexpr std::size_t kBytes = std::size_t{32} << 20;
    std::vector<char> src(kBytes, 1), dst(kBytes, 2);
    double best = 0.0;
    for (int r = 0; r < kReps; ++r) {
        src[r] = static_cast<char>(r);
        const std::uint64_t t0 = nowNs();
        std::memcpy(dst.data(), src.data(), kBytes);
        const double ns = static_cast<double>(nowNs() - t0);
        best = std::max(best, 2.0 * kBytes / ns); // read + write
    }
    return dst[kReps - 1] == static_cast<char>(kReps - 1) ? best : 0.0;
}

double
hostFmaGflops()
{
#ifdef E2E_X86_FMA
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return fmaAvx2();
#endif
    double best = 0.0;
    for (int r = 0; r < kReps; ++r) {
        double acc[kChains];
        for (int c = 0; c < kChains; ++c)
            acc[c] = 1.0 + c * 1e-3;
        const std::uint64_t t0 = nowNs();
        for (long i = 0; i < kIters; ++i)
            for (int c = 0; c < kChains; ++c)
                acc[c] = acc[c] * 0.9999999 + 1e-7;
        const double ns = static_cast<double>(nowNs() - t0);
        double sum = 0.0;
        for (double a : acc)
            sum += a;
        if (sum == 0.0)
            return 0.0;
        best = std::max(best, 2.0 * kChains * kIters / ns);
    }
    return best;
}

} // namespace e2e
