/**
 * @file
 * Unified blocked micro-kernel GEMM subsystem.
 *
 * Every flat [rows, K] x [K, cols] product in the library — the t*t
 * per-tap Winograd products (winograd/tiled.cc), packed im2col
 * (tensor/im2col.cc) and the training forward/backward
 * (nn/wino_conv.cc) — routes through this one core instead of
 * hand-rolling a naive triple loop.
 *
 * Layout and algorithm
 * --------------------
 * Operands are flat row-major with implied leading dimensions
 * (lda = K, ldb = cols, ldc = cols). The core is a BLIS-style blocked
 * kernel:
 *
 *  - K is split into panels of kKc; the A panel [kMr, kKc] of each
 *    row block is packed k-major (pack[kk * kMr + r]) so the micro-
 *    kernel reads A contiguously regardless of lda (and regardless of
 *    whether A is logically transposed — gemmTN packs the transpose
 *    for free). Row-major B is already unit-stride along the N
 *    dimension and is consumed in place.
 *  - The micro-kernel holds an Mr x Nr accumulator tile (kMr = 4 rows
 *    by kNr = 8 columns) in registers and runs the K panel with one
 *    multiply-accumulate per element per k, in ascending k order.
 *
 * Because each output element owns exactly one accumulator and k is
 * consumed strictly ascending (partial sums are carried through C
 * between K panels), the floating-point result is bit-identical to
 * the classic i-k-j loop compiled with the same FP contraction — and
 * independent of M/N blocking, so batched execution stays
 * bit-identical to sequential execution no matter how the P dimension
 * grows.
 *
 * Kernel table
 * ------------
 * The double-precision entry is dispatched at runtime: an AVX2+FMA
 * micro-kernel (kernels_avx2.cc, compiled with -mavx2 -mfma) where
 * the CPU supports it, a NEON micro-kernel on aarch64, and the
 * autovectorization-friendly scalar blocked kernel everywhere else.
 * Within one process the choice is fixed, so results stay
 * deterministic. Integer kernels are exact under any schedule.
 *
 * Pack buffers
 * ------------
 * Every entry point takes an optional caller-provided pack buffer of
 * packSize() elements (the serving runtime draws them from per-worker
 * ScratchArena slots so the hot path performs no allocation); when
 * null, a thread-local buffer of the same size is used, which is
 * allocation-free after first use per thread.
 */

#ifndef TWQ_GEMM_GEMM_HH
#define TWQ_GEMM_GEMM_HH

#include <cstddef>
#include <cstdint>

namespace twq
{
namespace gemm
{

/// Micro-kernel register blocking: rows of A per panel.
inline constexpr std::size_t kMr = 4;
/// Micro-kernel register blocking: columns of B per tile.
inline constexpr std::size_t kNr = 8;
/// K-dimension panel length (bounds the pack buffer).
inline constexpr std::size_t kKc = 512;

/** Elements a caller-provided pack buffer must hold. */
constexpr std::size_t
packSize()
{
    return kMr * kKc;
}

/** Name of the double-precision kernel in use ("avx2", "neon", "scalar"). */
const char *kernelName();

/**
 * Name of the int8 -> int32 widening kernel in use ("avx512-vnni",
 * "avx2", "neon", "scalar").
 */
const char *int8KernelName();

/**
 * C = A B, flat row-major: A [m, k], B [k, n], C [m, n]. C is
 * overwritten. `pack` is an optional packSize() pack buffer.
 */
template <typename T>
void gemm(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
          std::size_t n, T *pack = nullptr);

/**
 * Column-block variant of gemm(): computes the n columns starting at
 * `b`/`c`, which point into operands whose full row strides are
 * ldb/ldc (>= n) — i.e. C[:, j0:j0+n] = A * B[:, j0:j0+n] with
 * b = B + j0 and c = C + j0. Each output element accumulates its own
 * ascending-k sum exactly as in gemm(), so computing a product as any
 * set of column blocks (the P-sharded per-tap GEMMs) is bit-identical
 * to one whole-width call.
 */
template <typename T>
void gemmCols(const T *a, const T *b, T *c, std::size_t m,
              std::size_t k, std::size_t n, std::size_t ldb,
              std::size_t ldc, T *pack = nullptr);

/**
 * C = A^T B with A [k, m] and B [k, n] flat row-major (C [m, n],
 * overwritten). The transpose is absorbed by the A packing step, so
 * this runs the same micro-kernel as gemm(). Used by the training
 * backward (dU = W^T dY).
 */
template <typename T>
void gemmTN(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
            std::size_t n, T *pack = nullptr);

/**
 * C = A B^T with A [m, k] and B [n, k] flat row-major (C [m, n],
 * overwritten) — every output is a dot product of an A row with a B
 * row, so both operands stream contiguously. Used by the training
 * backward (dW = dY U^T).
 */
template <typename T>
void gemmNT(const T *a, const T *b, T *c, std::size_t m, std::size_t k,
            std::size_t n);

/**
 * int8 -> int32 widening-accumulate GEMM: A [m, k] and B [k, n] are
 * signed 8-bit, C [m, n] is int32 and overwritten. Products widen
 * before accumulating in int32; k <= 2^16 is asserted so no
 * intermediate sum can wrap under any of the kernels below, hence no
 * saturation is ever observable and the result is exact.
 *
 * Dispatched at runtime like the double-precision core: an AVX-512
 * VNNI micro-kernel (`vpdpbusd` on u8 x s8 operands, the signed
 * activations offset into unsigned range with a per-row compensation
 * term), an AVX2 pairwise-widening micro-kernel (operands sign-extend
 * to int16 and `vpmaddwd` pair-sums straight into the int32
 * accumulator tile — the `vpmaddubsw` form of that idiom would
 * saturate its int16 pair sums for full-range operands, which would
 * break exactness), a NEON `smull`/`sadalp` counterpart, and the
 * scalar blocked fallback. All kernels accumulate the same integer
 * sums, so the choice never changes results. Backs the im2col-int8
 * baseline engine and the bench smoke gate.
 */
void gemmS8S32(const std::int8_t *a, const std::int8_t *b,
               std::int32_t *c, std::size_t m, std::size_t k,
               std::size_t n, std::int8_t *pack = nullptr);

/**
 * Column-block variant of gemmS8S32() with explicit B/C leading
 * dimensions (ldb/ldc >= n), the seam gemm::colShards P-sharding
 * splits on: computing any set of column blocks is exactly the whole
 * product (integer sums are order-free).
 */
void gemmS8S32Cols(const std::int8_t *a, const std::int8_t *b,
                   std::int32_t *c, std::size_t m, std::size_t k,
                   std::size_t n, std::size_t ldb, std::size_t ldc,
                   std::int8_t *pack = nullptr);

/**
 * True when A's weights provably cannot saturate a `vpmaddubsw`
 * int16 pair sum against full-range u8 activations: every adjacent
 * k-pair of every row satisfies |a[2i]| + |a[2i+1]| <= 128 (the u8 x
 * s8 pair sum is then bounded by 255 * 128 = 32640 < 2^15). 7-bit
 * weights (|a| <= 63) always qualify; full-range int8 may or may not.
 * Scanned once at weight-prepare time — the gate is a property of
 * the static weights alone, valid for any activation operand and any
 * row sub-block.
 */
bool gemmS8PairSafe(const std::int8_t *a, std::size_t m,
                    std::size_t k);

/**
 * Range-gated fast path of gemmS8S32 for weights that pass
 * gemmS8PairSafe (PRECONDITION — not re-checked per call): on AVX2
 * hosts the product runs a `vpmaddubsw` micro-kernel (activations
 * biased into u8 by xor 0x80, quad-interleaved per column, one
 * maddubs+maddwd pair consuming four k values, per-row compensation
 * 128 * sum_k a subtracted at panel stores), which keeps the B
 * operand in bytes through the inner loop. On AVX-512 VNNI hosts and
 * everywhere else it falls back to gemmS8S32's kernel, which is
 * already optimal or exact there. All paths compute the identical
 * integer sums, so results are bit-identical to gemmS8S32.
 */
void gemmS8S32Pair(const std::int8_t *a, const std::int8_t *b,
                   std::int32_t *c, std::size_t m, std::size_t k,
                   std::size_t n, std::int8_t *pack = nullptr);

/**
 * Name of the kernel gemmS8S32Pair dispatches to ("avx2-maddubs"
 * when the gated kernel is live, otherwise int8KernelName()).
 */
const char *int8PairKernelName();

/**
 * The generic baseline-ISA blocked widening kernel (what gemmS8S32
 * ran before the dispatched micro-kernels existed). Kept callable as
 * the oracle for tests and the baseline of the bench smoke gate.
 */
void gemmS8S32Generic(const std::int8_t *a, const std::int8_t *b,
                      std::int32_t *c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t ldb, std::size_t ldc,
                      std::int8_t *pack = nullptr);

/**
 * The naive i-k-j triple loop (the former gemmFlat), kept inline as
 * the oracle for tests, the bench gate's baseline, and for tiny
 * operands (t x t tile transforms) where blocking overhead dominates.
 * Accumulation runs in ascending k per element, like gemm().
 */
template <typename T>
inline void
referenceGemm(const T *a, const T *b, T *c, std::size_t m,
              std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        T *ci = c + i * n;
        for (std::size_t j = 0; j < n; ++j)
            ci[j] = T{};
        for (std::size_t kk = 0; kk < k; ++kk) {
            const T aik = a[i * k + kk];
            const T *bk = b + kk * n;
            for (std::size_t j = 0; j < n; ++j)
                ci[j] += aik * bk[j];
        }
    }
}

extern template void gemm(const float *, const float *, float *,
                          std::size_t, std::size_t, std::size_t,
                          float *);
extern template void gemm(const double *, const double *, double *,
                          std::size_t, std::size_t, std::size_t,
                          double *);
extern template void gemmCols(const float *, const float *, float *,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, std::size_t, float *);
extern template void gemmCols(const double *, const double *, double *,
                              std::size_t, std::size_t, std::size_t,
                              std::size_t, std::size_t, double *);
extern template void gemmTN(const float *, const float *, float *,
                            std::size_t, std::size_t, std::size_t,
                            float *);
extern template void gemmTN(const double *, const double *, double *,
                            std::size_t, std::size_t, std::size_t,
                            double *);
extern template void gemmNT(const float *, const float *, float *,
                            std::size_t, std::size_t, std::size_t);
extern template void gemmNT(const double *, const double *, double *,
                            std::size_t, std::size_t, std::size_t);

} // namespace gemm
} // namespace twq

#endif // TWQ_GEMM_GEMM_HH
