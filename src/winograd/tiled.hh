/**
 * @file
 * Flat tap-major Winograd execution: scatter – per-tap GEMM – gather.
 *
 * The tile-at-a-time implementations in winograd/conv.hh apply the
 * whole pipeline to one [t, t] tile at a time through heap-allocated
 * Matrix temporaries, which wastes the batch-level parallelism the
 * algorithm exposes. This header provides the production layout used
 * by fast Winograd implementations (cf. Lavin & Gray; TVM):
 *
 *   scatter  B^T x B for every tile of the batch, written tap-major
 *            into one contiguous buffer U of shape [t*t, Cin, P] with
 *            P = N * tilesY * tilesX,
 *   GEMM     t*t independent [Cout, Cin] x [Cin, P] matrix products
 *            into M of shape [t*t, Cout, P],
 *   gather   A^T Y A per (oc, p) column of M, written straight into
 *            the NCHW output.
 *
 * Per element the arithmetic (and its accumulation order over input
 * channels) is identical to conv2dWinogradPre, so results match the
 * tile-at-a-time reference bit for bit on hardware without FMA
 * contraction, and within rounding everywhere else. The same three
 * stages run the integer path (quant/int_winograd) and the
 * winograd-aware training layer (nn/wino_conv).
 */

#ifndef TWQ_WINOGRAD_TILED_HH
#define TWQ_WINOGRAD_TILED_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "gemm/gemm.hh"
#include "gemm/parallel.hh"
#include "tensor/im2col.hh"
#include "tensor/tensor.hh"
#include "winograd/conv.hh"
#include "winograd/matrices.hh"

namespace twq
{

/** Tile geometry of one Winograd launch. */
struct WinoDims
{
    std::size_t t = 0;       ///< transformed tile size
    std::size_t m = 0;       ///< output tile size
    std::size_t n = 0;       ///< batch
    std::size_t cin = 0;
    std::size_t ho = 0;      ///< output height
    std::size_t wo = 0;      ///< output width
    std::size_t tilesY = 0;
    std::size_t tilesX = 0;
    std::size_t tiles = 0;   ///< P = n * tilesY * tilesX
};

/** Geometry for an NCHW input under a variant and padding. */
WinoDims winoDims(const Shape &input, WinoVariant v, std::size_t pad);

/**
 * Weights re-laid tap-major: one flat [Cout, Cin] matrix per tap,
 * contiguous as [t*t][Cout][Cin]. This is the layout the per-tap GEMM
 * consumes directly; the transform matrices are cached alongside so
 * the hot path never rebuilds them from rationals.
 */
template <typename T>
struct WinogradTapWeights
{
    WinoVariant variant = WinoVariant::F2;
    std::size_t cout = 0;
    std::size_t cin = 0;
    /// [t*t][cout][cin]; tap k holds G f G^T sampled at tap k.
    std::vector<T> taps;

    const T *
    tap(std::size_t k) const
    {
        return taps.data() + k * cout * cin;
    }

    T &
    at(std::size_t k, std::size_t oc, std::size_t ic)
    {
        return taps[(k * cout + oc) * cin + ic];
    }
};

/** Transform [Cout, Cin, 3, 3] weights straight into tap-major form. */
template <typename T>
WinogradTapWeights<T> winogradPrepareTapWeights(const Tensor<T> &weights,
                                                WinoVariant v);

/** Re-lay per-(oc,ic)-tile weights (winograd/conv.hh) tap-major. */
template <typename T>
WinogradTapWeights<T> tapMajorWeights(const WinogradWeights<T> &w);

/**
 * Sparse schedule of a tile transform L s L^T, flattened to the
 * Kronecker product L ⊗ L acting on the tap dimension: output row r
 * is Σ coeff * input row `in` over this row's terms. Applied to the
 * flat [taps, C*P] buffers, every column of a pass is the same short
 * sum, so the transforms vectorize along the rows instead of running
 * tiny t x t matmuls per tile. Zero entries of L (half of B^T/A^T
 * for F2/F4) never appear as terms. Every kernel runs a plan in
 * L1-sized column strips (kronStrips below).
 */
template <typename T>
struct WinoKronPlan
{
    struct Term
    {
        std::uint16_t in;
        T coeff;
    };
    std::size_t rowsOut = 0;
    std::size_t rowsIn = 0;
    std::vector<Term> terms;            ///< rows concatenated
    std::vector<std::uint32_t> rowStart; ///< [rowsOut + 1]
};

/** Build the L ⊗ L plan from an exact rational transform matrix. */
template <typename T>
WinoKronPlan<T> makeKronPlan(const Matrix<Rational> &l);

/** Cached B^T ⊗ B^T (input transform) for a variant. */
template <typename T>
const WinoKronPlan<T> &winoInputKron(WinoVariant v);

/** Cached A^T ⊗ A^T (output transform) for a variant. */
template <typename T>
const WinoKronPlan<T> &winoOutputKron(WinoVariant v);

/** Cached B ⊗ B (transposed input transform, training backward). */
template <typename T>
const WinoKronPlan<T> &winoInputKronT(WinoVariant v);

/** Cached A ⊗ A (transposed output transform, training backward). */
template <typename T>
const WinoKronPlan<T> &winoOutputKronT(WinoVariant v);

/**
 * y[r] = Σ coeff * x[in] over rows of length `len`: per element a
 * multiply by the first term's coefficient, then `acc += coeff * x`
 * per later term in plan order (exact for integer T).
 */
template <typename T>
void applyKron(const WinoKronPlan<T> &plan, const T *x, std::size_t len,
               T *y);

/**
 * Bytes of the stack buffer a Kronecker pass stages one column strip
 * of its input rows in: half of a 48 KiB L1d, leaving room for the
 * output segments the strip writes.
 */
inline constexpr std::size_t kKronStripBytes = 24 * 1024;

/// Most input rows of any plan (F6: t*t = 64).
inline constexpr std::size_t kKronMaxRows = 64;

/**
 * Strip width, in elements, of a pass over `rowsIn` input rows of
 * `elemBytes`-byte elements: the widest multiple of a kernel's
 * register block `block` whose rowsIn segments fit the strip buffer.
 * An F4 input pass of doubles in 32-wide blocks gets 64 columns.
 */
constexpr std::size_t
kronStripLen(std::size_t rowsIn, std::size_t elemBytes,
             std::size_t block)
{
    return kKronStripBytes / (rowsIn * elemBytes) / block * block;
}

/**
 * Bytes one chunk of a blocked Winograd layer may take in its largest
 * tile buffer. The blocked compositions (layout/wino_blocked.hh,
 * quant/int_wino_blocked.hh) run a layer in chunks of whole tile rows,
 * each chunk going gather -> B-kron -> tap GEMM -> A-kron -> untile
 * before the next starts, so its tile buffers stay in L2 between the
 * stages instead of streaming the whole batch through DRAM five times.
 *
 * Chosen by a sweep on a shared 4-vCPU x86-64 guest (48 KiB L1d,
 * 2 MiB L2), five alternating rounds of 20 s wide-fp32-bulk runs,
 * throughput_rps per round:
 *
 *   256 KiB  265 270 258 236 228   (1-row chunks of 144 KiB)
 *   512 KiB  252 236 244 232 217   (3-row chunks of 432 KiB)
 *   1 MiB    239 206 228 234 206   (7-row chunks of 1008 KiB)
 *
 * 256 KiB won every round, but it splits cifar20's batch-1 32x32
 * layers (288 KiB in their largest int8 buffer) into two chunks, and
 * cifar-int8-open then read slower in three pairs of three (p50 6.07
 * 4.79 4.65 against 4.82 4.44 4.33 ms; p90 13.1 8.4 7.9 against 9.0
 * 5.7 5.0 ms). 512 KiB keeps every batch-1 layer of the bench nets in
 * one chunk, so they run the unchunked schedule.
 */
inline constexpr std::size_t kWinoChunkBytes = 512 * 1024;

/**
 * Tile rows per chunk when one tile row takes `rowBytes` in the
 * layer's largest tile buffer: as many as fit kWinoChunkBytes, and at
 * least one (also for the empty rows of a zero-width input).
 */
constexpr std::size_t
winoChunkRows(std::size_t rowBytes)
{
    return rowBytes == 0 || rowBytes >= kWinoChunkBytes
               ? 1
               : kWinoChunkBytes / rowBytes;
}

/**
 * The column-strip schedule every Kronecker kernel runs (applyKron
 * and the layout kernels' kron entries). A row-at-a-time pass
 * re-reads and re-writes its whole output row once per term, so F4's
 * 484-term input pass moves some 40x the bytes it transforms; and
 * since rows sit a multiple of 4 KiB apart, a strip read in place
 * maps every input row onto the same L1 sets. So for each strip of
 * kronStripLen(rowsIn, sizeof(T), Block) columns:
 *
 *  1. copy the strip's segment of every input row into one
 *     contiguous L1-sized buffer, zero-padded to whole blocks;
 *  2. for each output row, call `block(src, stride, terms, n, out)`
 *     once per Block columns: it sums the row's n terms over
 *     src + terms[i].in * stride in registers and stores its Block
 *     results to `out` once.
 *
 * A final block narrower than Block is computed into a stack block
 * and its valid prefix copied out. Every element therefore gets the
 * exact operation sequence `block` gives a lane, whatever its strip
 * or position. Output rows without terms are zeroed.
 *
 * `static`, like the scalar kernels of layout/kernels.hh: each TU
 * compiles its own copy under its own instruction-set flags.
 */
template <std::size_t Block, typename T, typename BlockFn>
static void
kronStrips(const WinoKronPlan<T> &plan, const T *x, std::size_t len,
           T *y, BlockFn &&block)
{
    static_assert(Block * kKronMaxRows * sizeof(T) <= kKronStripBytes,
                  "one block of the widest plan must fit the strip "
                  "buffer");
    twq_assert(plan.rowsIn <= kKronMaxRows,
               "kron plan has more input rows than the strip buffer "
               "holds");
    alignas(64) T buf[kKronStripBytes / sizeof(T)];
    const std::size_t S = kronStripLen(plan.rowsIn, sizeof(T), Block);
    for (std::size_t l0 = 0; l0 < len; l0 += S) {
        const std::size_t w = len - l0 < S ? len - l0 : S;
        const std::size_t wPad = (w + Block - 1) / Block * Block;
        for (std::size_t i = 0; i < plan.rowsIn; ++i) {
            T *seg = buf + i * S;
            std::memcpy(seg, x + i * len + l0, w * sizeof(T));
            for (std::size_t l = w; l < wPad; ++l)
                seg[l] = T{};
        }
        for (std::size_t r = 0; r < plan.rowsOut; ++r) {
            const auto *terms = plan.terms.data() + plan.rowStart[r];
            const std::size_t n = plan.rowStart[r + 1] - plan.rowStart[r];
            T *yr = y + r * len + l0;
            if (n == 0) {
                for (std::size_t l = 0; l < w; ++l)
                    yr[l] = T{};
                continue;
            }
            std::size_t l = 0;
            for (; l + Block <= w; l += Block)
                block(buf + l, S, terms, n, yr + l);
            if (l < w) {
                alignas(64) T tail[Block];
                block(buf + l, S, terms, n, tail);
                std::memcpy(yr + l, tail, (w - l) * sizeof(T));
            }
        }
    }
}

/**
 * Stage 1 of the scatter: copy every (padded) input tile of the batch
 * into V, reshaped to [t*t, Cin, P] — pure data movement, the
 * B-transform runs afterwards as row passes over V. Every element of
 * V is written, so no clearing is needed, and a caller reusing the
 * buffer across batches performs no allocation once shapes stabilize.
 */
template <typename T>
void winogradGatherTiles(const Tensor<T> &input, WinoVariant v,
                         std::size_t pad, Tensor<T> &V);

/**
 * Transposed counterpart of winogradGatherTiles: scatter-ADD tile
 * rows of V back into the (padded) input geometry. Overlapping tile
 * windows accumulate; `grad` must be pre-shaped NCHW. Used by the
 * training backward to push B-domain gradients into the input.
 */
template <typename T>
void winogradScatterAddTiles(const Tensor<T> &V, WinoVariant v,
                             std::size_t pad, Tensor<T> &grad);

/**
 * Scatter stage: gather raw tiles into V, then apply the B-transform
 * as Kronecker row passes into U ([t*t, Cin, P]).
 */
template <typename T>
void winogradScatter(const Tensor<T> &input, WinoVariant v,
                     std::size_t pad, Tensor<T> &V, Tensor<T> &U);

/**
 * GEMM stage: M[k] = W[k] * U[k] for every tap k, with W[k] the
 * [Cout, Cin] tap slice, each product running the blocked gemm core.
 * M is reshaped to [t*t, Cout, P]. The t*t taps are independent: when
 * `runner` is non-null they are sharded across it, and when taps
 * alone would under-fill the pool each tap's product is further split
 * into P column blocks (gemm::colShards). Every shard computes the
 * same per-element ascending-k sums it would serially, so parallel
 * execution is bit-identical to serial under any shard plan.
 */
template <typename T>
void winogradTapGemm(const WinogradTapWeights<T> &w, const Tensor<T> &U,
                     Tensor<T> &M,
                     gemm::ParallelRunner *runner = nullptr);

/**
 * Stage 2 of the gather: write the A-transformed tile rows Y
 * ([m*m, Cout, P]) into the NCHW output (edge tiles clipped). `out`
 * must already have shape [n, Cout, ho, wo].
 */
template <typename T>
void winogradUntile(const Tensor<T> &Y, WinoVariant v, Tensor<T> &out);

/**
 * Gather stage: A-transform M as Kronecker row passes into Y
 * ([m*m, Cout, P]), then untile into the NCHW output.
 */
template <typename T>
void winogradGather(const Tensor<T> &M, WinoVariant v, Tensor<T> &Y,
                    Tensor<T> &out);

/**
 * Full tiled Winograd convolution on NCHW: scatter, per-tap GEMM,
 * gather. The serving runtime runs the NCHWc8 engine
 * (layout/wino_blocked.hh); this path is its test oracle.
 */
template <typename T>
Tensor<T> conv2dWinogradTiled(const Tensor<T> &input,
                              const WinogradTapWeights<T> &w,
                              std::size_t pad = 1);

// Raw-pointer helpers shared with the integer pipeline
// (quant/int_winograd) and the training layer (nn/wino_conv). The
// t x t products run gemm::referenceGemm — operands this small never
// amortize the blocked core's packing.

/**
 * y = l x l^T for flat row-major square tiles ([t,t]); `tmp` is a
 * caller-provided [t*t] workspace. Accumulation order matches
 * matmul() so results are bit-compatible with the reference path.
 */
template <typename T>
inline void
transformTileFlat(const T *l, const T *x, std::size_t t, T *tmp, T *y)
{
    gemm::referenceGemm(l, x, tmp, t, t, t);
    // y = tmp * l^T without materializing the transpose.
    for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
            T s{};
            for (std::size_t k = 0; k < t; ++k)
                s += tmp[i * t + k] * l[j * t + k];
            y[i * t + j] = s;
        }
    }
}

/**
 * res = a y a^T with a of shape [m, t] (flat row-major) and y [t, t];
 * res is [m, m], tmp a caller-provided [m*t] workspace.
 */
template <typename T>
inline void
outputTransformFlat(const T *a, const T *y, std::size_t m, std::size_t t,
                    T *tmp, T *res)
{
    gemm::referenceGemm(a, y, tmp, m, t, t);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            T s{};
            for (std::size_t k = 0; k < t; ++k)
                s += tmp[i * t + k] * a[j * t + k];
            res[i * m + j] = s;
        }
    }
}

/**
 * Copy the [t, t] input window feeding output block (ty*m, tx*m) of
 * image n, channel c into flat row-major `tile`; out-of-range samples
 * (padding) read as zero.
 */
template <typename T>
inline void
extractInputTileFlat(const Tensor<T> &input, std::size_t n,
                     std::size_t c, std::size_t ty, std::size_t tx,
                     const WinoDims &d, std::size_t pad, T *tile)
{
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const T *plane =
        input.data() + (n * input.dim(1) + c) * h * w;
    const std::ptrdiff_t y0 = static_cast<std::ptrdiff_t>(ty * d.m) -
                              static_cast<std::ptrdiff_t>(pad);
    const std::ptrdiff_t x0 = static_cast<std::ptrdiff_t>(tx * d.m) -
                              static_cast<std::ptrdiff_t>(pad);
    for (std::size_t i = 0; i < d.t; ++i) {
        const std::ptrdiff_t iy = y0 + static_cast<std::ptrdiff_t>(i);
        T *row = tile + i * d.t;
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            for (std::size_t j = 0; j < d.t; ++j)
                row[j] = T{};
            continue;
        }
        const T *src = plane + static_cast<std::size_t>(iy) * w;
        for (std::size_t j = 0; j < d.t; ++j) {
            const std::ptrdiff_t ix =
                x0 + static_cast<std::ptrdiff_t>(j);
            row[j] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                         ? T{}
                         : src[static_cast<std::size_t>(ix)];
        }
    }
}

extern template struct WinogradTapWeights<float>;
extern template struct WinogradTapWeights<double>;
extern template struct WinoKronPlan<float>;
extern template struct WinoKronPlan<double>;
extern template struct WinoKronPlan<std::int32_t>;
extern template struct WinoKronPlan<std::int64_t>;
extern template WinogradTapWeights<float>
winogradPrepareTapWeights(const Tensor<float> &, WinoVariant);
extern template WinogradTapWeights<double>
winogradPrepareTapWeights(const Tensor<double> &, WinoVariant);
extern template WinogradTapWeights<float>
tapMajorWeights(const WinogradWeights<float> &);
extern template WinogradTapWeights<double>
tapMajorWeights(const WinogradWeights<double> &);
extern template WinoKronPlan<float> makeKronPlan(const Matrix<Rational> &);
extern template WinoKronPlan<double>
makeKronPlan(const Matrix<Rational> &);
extern template WinoKronPlan<std::int32_t>
makeKronPlan(const Matrix<Rational> &);
extern template WinoKronPlan<std::int64_t>
makeKronPlan(const Matrix<Rational> &);
extern template const WinoKronPlan<float> &winoInputKron(WinoVariant);
extern template const WinoKronPlan<double> &winoInputKron(WinoVariant);
extern template const WinoKronPlan<std::int32_t> &
winoInputKron(WinoVariant);
extern template const WinoKronPlan<std::int64_t> &
winoInputKron(WinoVariant);
extern template const WinoKronPlan<float> &winoOutputKron(WinoVariant);
extern template const WinoKronPlan<double> &winoOutputKron(WinoVariant);
extern template const WinoKronPlan<std::int64_t> &
winoOutputKron(WinoVariant);
extern template const WinoKronPlan<double> &winoInputKronT(WinoVariant);
extern template const WinoKronPlan<double> &winoOutputKronT(WinoVariant);
extern template void applyKron(const WinoKronPlan<float> &,
                               const float *, std::size_t, float *);
extern template void applyKron(const WinoKronPlan<double> &,
                               const double *, std::size_t, double *);
extern template void applyKron(const WinoKronPlan<std::int32_t> &,
                               const std::int32_t *, std::size_t,
                               std::int32_t *);
extern template void applyKron(const WinoKronPlan<std::int64_t> &,
                               const std::int64_t *, std::size_t,
                               std::int64_t *);
extern template void winogradGatherTiles(const Tensor<float> &,
                                         WinoVariant, std::size_t,
                                         Tensor<float> &);
extern template void winogradGatherTiles(const Tensor<double> &,
                                         WinoVariant, std::size_t,
                                         Tensor<double> &);
extern template void winogradGatherTiles(const Tensor<std::int64_t> &,
                                         WinoVariant, std::size_t,
                                         Tensor<std::int64_t> &);
extern template void winogradScatterAddTiles(const Tensor<double> &,
                                             WinoVariant, std::size_t,
                                             Tensor<double> &);
extern template void winogradScatter(const Tensor<float> &, WinoVariant,
                                     std::size_t, Tensor<float> &,
                                     Tensor<float> &);
extern template void winogradScatter(const Tensor<double> &, WinoVariant,
                                     std::size_t, Tensor<double> &,
                                     Tensor<double> &);
extern template void winogradTapGemm(const WinogradTapWeights<float> &,
                                     const Tensor<float> &,
                                     Tensor<float> &,
                                     gemm::ParallelRunner *);
extern template void winogradTapGemm(const WinogradTapWeights<double> &,
                                     const Tensor<double> &,
                                     Tensor<double> &,
                                     gemm::ParallelRunner *);
extern template void winogradUntile(const Tensor<float> &, WinoVariant,
                                    Tensor<float> &);
extern template void winogradUntile(const Tensor<double> &, WinoVariant,
                                    Tensor<double> &);
extern template void winogradUntile(const Tensor<std::int64_t> &,
                                    WinoVariant, Tensor<std::int64_t> &);
extern template void winogradGather(const Tensor<float> &, WinoVariant,
                                    Tensor<float> &, Tensor<float> &);
extern template void winogradGather(const Tensor<double> &, WinoVariant,
                                    Tensor<double> &, Tensor<double> &);
extern template Tensor<float>
conv2dWinogradTiled(const Tensor<float> &,
                    const WinogradTapWeights<float> &, std::size_t);
extern template Tensor<double>
conv2dWinogradTiled(const Tensor<double> &,
                    const WinogradTapWeights<double> &, std::size_t);

} // namespace twq

#endif // TWQ_WINOGRAD_TILED_HH
