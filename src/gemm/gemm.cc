#include "gemm/gemm.hh"

#include <cstdlib>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "gemm/kernels.hh"

namespace twq
{
namespace gemm
{

namespace
{

/// Thread-local pack storage used when the caller provides none;
/// sized once, so the steady state allocates nothing.
template <typename T>
T *
tlsPack()
{
    static thread_local std::vector<T> buf(packSize());
    return buf.data();
}

/// The double-precision kernel, resolved once per process.
struct KernelTable
{
    GemmDFn gemmD;
    const char *name;
};

KernelTable
resolve()
{
    if (GemmDFn fn = avx2GemmD())
        return {fn, "avx2"};
    if (GemmDFn fn = neonGemmD())
        return {fn, "neon"};
    return {&blockedGemmImpl<double, double>, "scalar"};
}

const KernelTable &
table()
{
    static const KernelTable t = resolve();
    return t;
}

/// The generic blocked widening kernel in GemmS8Fn shape (the scalar
/// fallback of the int8 dispatch, and the exported oracle).
void
genericGemmS8(const std::int8_t *a, const std::int8_t *b,
              std::int32_t *c, std::size_t m, std::size_t k,
              std::size_t n, std::size_t ldb, std::size_t ldc,
              std::int8_t *pack)
{
    blockedGemmImpl<std::int8_t, std::int32_t>(
        a, b, c, m, k, n, ldb, ldc, /*transA=*/false, pack);
}

/// The int8 -> int32 widening kernel, resolved once per process.
struct Int8KernelTable
{
    GemmS8Fn gemmS8;
    const char *name;
};

Int8KernelTable
resolveInt8()
{
    if (GemmS8Fn fn = vnniGemmS8())
        return {fn, "avx512-vnni"};
    if (GemmS8Fn fn = avx2GemmS8())
        return {fn, "avx2"};
    if (GemmS8Fn fn = neonGemmS8())
        return {fn, "neon"};
    return {&genericGemmS8, "scalar"};
}

const Int8KernelTable &
int8Table()
{
    static const Int8KernelTable t = resolveInt8();
    return t;
}

/**
 * The kernel behind gemmS8S32Pair: VNNI's vpdpbusd is unconditionally
 * exact AND faster than vpmaddubsw, so it keeps priority; plain AVX2
 * hosts get the range-gated vpmaddubsw kernel; everything else falls
 * back to the ungated table (which is exact everywhere).
 */
Int8KernelTable
resolveInt8Pair()
{
    if (GemmS8Fn fn = vnniGemmS8())
        return {fn, "avx512-vnni"};
    if (GemmS8Fn fn = avx2GemmS8Pair())
        return {fn, "avx2-maddubs"};
    return int8Table();
}

const Int8KernelTable &
int8PairTable()
{
    static const Int8KernelTable t = resolveInt8Pair();
    return t;
}

} // namespace

const char *
kernelName()
{
    return table().name;
}

const char *
int8KernelName()
{
    return int8Table().name;
}

const char *
int8PairKernelName()
{
    return int8PairTable().name;
}

bool
gemmS8PairSafe(const std::int8_t *a, std::size_t m, std::size_t k)
{
    for (std::size_t i = 0; i < m; ++i) {
        const std::int8_t *row = a + i * k;
        for (std::size_t kk = 0; kk + 1 < k; kk += 2) {
            const int s =
                std::abs(static_cast<int>(row[kk])) +
                std::abs(static_cast<int>(row[kk + 1]));
            if (s > 128)
                return false;
        }
        // An odd K tail pairs with an implicit zero inside the
        // kernel, so |a| <= 128 holds for any int8 value.
    }
    return true;
}

void
gemmS8S32Pair(const std::int8_t *a, const std::int8_t *b,
              std::int32_t *c, std::size_t m, std::size_t k,
              std::size_t n, std::int8_t *pack)
{
    twq_assert(k <= (std::size_t{1} << 16),
               "gemmS8S32: K too large for exact int32 accumulation");
    int8PairTable().gemmS8(a, b, c, m, k, n, n, n,
                           pack ? pack : tlsPack<std::int8_t>());
}

template <typename T>
void
gemm(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
     std::size_t n, T *pack)
{
    gemmCols(a, b, c, m, k, n, n, n, pack);
}

template <typename T>
void
gemmCols(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
         std::size_t n, std::size_t ldb, std::size_t ldc, T *pack)
{
    twq_assert(ldb >= n && ldc >= n,
               "gemmCols: leading dimensions narrower than the block");
    T *p = pack ? pack : tlsPack<T>();
    if constexpr (std::is_same_v<T, double>)
        table().gemmD(a, b, c, m, k, n, ldb, ldc, /*transA=*/false, p);
    else
        blockedGemmImpl<T, T>(a, b, c, m, k, n, ldb, ldc,
                              /*transA=*/false, p);
}

template <typename T>
void
gemmTN(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
       std::size_t n, T *pack)
{
    T *p = pack ? pack : tlsPack<T>();
    if constexpr (std::is_same_v<T, double>)
        table().gemmD(a, b, c, m, k, n, n, n, /*transA=*/true, p);
    else
        blockedGemmImpl<T, T>(a, b, c, m, k, n, n, n, /*transA=*/true,
                              p);
}

template <typename T>
void
gemmNT(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
       std::size_t n)
{
    // C(i, j) = <A row i, B row j>: both operands stream unit-stride,
    // so the only blocking needed is a j-tile that keeps kNr B rows
    // hot while a block of A rows reduces against them.
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t jb = std::min(kNr, n - j0);
        for (std::size_t i = 0; i < m; ++i) {
            const T *ai = a + i * k;
            for (std::size_t j = 0; j < jb; ++j) {
                const T *bj = b + (j0 + j) * k;
                T s{};
                for (std::size_t kk = 0; kk < k; ++kk)
                    s += ai[kk] * bj[kk];
                c[i * n + j0 + j] = s;
            }
        }
    }
}

void
gemmS8S32(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
          std::size_t m, std::size_t k, std::size_t n,
          std::int8_t *pack)
{
    gemmS8S32Cols(a, b, c, m, k, n, n, n, pack);
}

void
gemmS8S32Cols(const std::int8_t *a, const std::int8_t *b,
              std::int32_t *c, std::size_t m, std::size_t k,
              std::size_t n, std::size_t ldb, std::size_t ldc,
              std::int8_t *pack)
{
    // k <= 2^16 keeps every kernel's intermediate accumulation inside
    // int32: the exact sums are bounded by 128^2 * k, and the VNNI
    // kernel's offset partial sums by 255 * 128 * kKc on top of an
    // exact partial — both clear of 2^31.
    twq_assert(k <= (std::size_t{1} << 16),
               "gemmS8S32: K too large for exact int32 accumulation");
    twq_assert(ldb >= n && ldc >= n,
               "gemmS8S32Cols: leading dims narrower than the block");
    int8Table().gemmS8(a, b, c, m, k, n, ldb, ldc,
                       pack ? pack : tlsPack<std::int8_t>());
}

void
gemmS8S32Generic(const std::int8_t *a, const std::int8_t *b,
                 std::int32_t *c, std::size_t m, std::size_t k,
                 std::size_t n, std::size_t ldb, std::size_t ldc,
                 std::int8_t *pack)
{
    twq_assert(k <= (std::size_t{1} << 16),
               "gemmS8S32: K too large for exact int32 accumulation");
    genericGemmS8(a, b, c, m, k, n, ldb, ldc,
                  pack ? pack : tlsPack<std::int8_t>());
}

template void gemm(const float *, const float *, float *, std::size_t,
                   std::size_t, std::size_t, float *);
template void gemm(const double *, const double *, double *,
                   std::size_t, std::size_t, std::size_t, double *);
template void gemmCols(const float *, const float *, float *,
                       std::size_t, std::size_t, std::size_t,
                       std::size_t, std::size_t, float *);
template void gemmCols(const double *, const double *, double *,
                       std::size_t, std::size_t, std::size_t,
                       std::size_t, std::size_t, double *);
template void gemmTN(const float *, const float *, float *, std::size_t,
                     std::size_t, std::size_t, float *);
template void gemmTN(const double *, const double *, double *,
                     std::size_t, std::size_t, std::size_t, double *);
template void gemmNT(const float *, const float *, float *, std::size_t,
                     std::size_t, std::size_t);
template void gemmNT(const double *, const double *, double *,
                     std::size_t, std::size_t, std::size_t);

} // namespace gemm
} // namespace twq
