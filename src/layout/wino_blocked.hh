/**
 * @file
 * NCHWc8 blocked-layout Winograd execution: the same scatter — per-tap
 * GEMM — gather pipeline as winograd/tiled.hh, re-laid so every hot
 * access is unit stride.
 *
 * Buffers carry the 8-channel block as the innermost dimension:
 *
 *   input   [N, Cinb,  H, W, 8]       (layout/layout.hh NCHWc8)
 *   V, U    [t*t, Cinb,  P, 8]        raw / B-transformed tiles
 *   M, Y    [t*t|m*m, Coutb, P, 8]    GEMM output / A-transformed
 *   output  [N, Coutb, Ho, Wo, 8]
 *
 * The tile gather and untile move whole 8-channel vectors between
 * the activation planes and the tile buffers — no per-element
 * `x[((n*C+c)*H+y)*W+x]` addressing — and the per-tap GEMM broadcasts
 * U elements against 8-wide contiguous weight vectors
 * (layout/kernels.hh), with the c-block as the SIMD lane dimension
 * throughout. The kron passes apply the same plans as the NCHW path,
 * just over blocked rows, dispatched to FMA kernels that run them in
 * L1-sized column strips (winograd/tiled.hh kronStrips): a strip of
 * every input row is copied into one contiguous buffer, then each
 * output row's segment is summed in registers over all its terms and
 * stored once.
 *
 * The full convolutions (conv2dWinogradBlockedInto and the f16 and
 * int8 compositions) run a layer in chunks of whole tile rows — row
 * g = n * tilesY + ty covers tilesX tiles — with rows per chunk sized
 * so the largest tile buffer takes at most kWinoChunkBytes
 * (winograd/tiled.hh). Each chunk goes through all five stages before
 * the next starts, so P above is per chunk: (rows in the chunk) *
 * tilesX, and the caller's tile buffers need hold one chunk, not the
 * batch. The stage entry points (winogradGatherTilesBlocked,
 * winogradTapGemmBlocked, winogradUntileBlocked) are the all-rows
 * case, P = N * tilesY * tilesX.
 *
 * Numerics: the per-element accumulation order (ascending input
 * channel, one fused multiply-add each) matches the blocked gemm
 * core, so on FMA hardware the blocked pipeline is bit-identical to
 * the NCHW tiled path per stage up to the kron passes (whose explicit
 * FMA may differ from the portable NCHW transform's multiply-then-add
 * in the last ulp — tolerance-equal where FMA contracts). Within the
 * blocked path every element's sum is independent of P, of the chunk
 * and of the strip it falls in, so chunked execution is bit-identical
 * to the whole-batch stage chain and batched execution to sequential.
 */

#ifndef TWQ_LAYOUT_WINO_BLOCKED_HH
#define TWQ_LAYOUT_WINO_BLOCKED_HH

#include "gemm/parallel.hh"
#include "layout/kernels_f16.hh"
#include "layout/layout.hh"
#include "winograd/tiled.hh"

namespace twq
{

/**
 * Tap-major weights re-blocked for the NCHWc8 per-tap kernel: tap k
 * is [Coutb][Cinb*8][8] with the last axis the 8 output channels of
 * a block. Rows past Cout and columns past Cin are zero, so padded
 * lanes never contribute to (or receive) logical values.
 */
struct BlockedTapWeights
{
    WinoVariant variant = WinoVariant::F2;
    std::size_t cout = 0;  ///< logical output channels
    std::size_t cin = 0;   ///< logical input channels
    std::size_t coutb = 0; ///< output channel blocks
    std::size_t cinb = 0;  ///< input channel blocks
    /// [t*t][coutb][cinb*8][8]
    std::vector<double> taps;

    const double *
    tap(std::size_t k) const
    {
        return taps.data() +
               k * coutb * cinb * kLayoutBlock * kLayoutBlock;
    }
};

/** Re-block tap-major weights (winograd/tiled.hh) for the kernel. */
BlockedTapWeights blockedTapWeights(const WinogradTapWeights<double> &w);

/**
 * Half-precision storage variant of BlockedTapWeights: the same
 * [t*t][coutb][cinb*8][8] blocking with every coefficient narrowed to
 * IEEE binary16 (round-to-nearest-even). The tap-GEMM widens one
 * 8-half vector per fused multiply-add, halving weight-side bandwidth.
 */
struct BlockedTapWeightsF16
{
    WinoVariant variant = WinoVariant::F2;
    std::size_t cout = 0;  ///< logical output channels
    std::size_t cin = 0;   ///< logical input channels
    std::size_t coutb = 0; ///< output channel blocks
    std::size_t cinb = 0;  ///< input channel blocks
    /// [t*t][coutb][cinb*8][8] IEEE halves
    std::vector<std::uint16_t> taps;

    const std::uint16_t *
    tap(std::size_t k) const
    {
        return taps.data() +
               k * coutb * cinb * kLayoutBlock * kLayoutBlock;
    }
};

/** Re-block tap-major weights and narrow them to binary16 storage. */
BlockedTapWeightsF16
blockedTapWeightsF16(const WinogradTapWeights<double> &w);

/** Name of the blocked-layout kernel set in use ("avx2", ...). */
const char *layoutKernelName();

/** WinoDims for a blocked [N, Cb, H, W, 8] input shape; d.cin counts
 * physical lanes (Cb * 8). */
WinoDims winoDimsBlocked(const Shape &s, WinoVariant v,
                         std::size_t pad);

/**
 * Blocked counterpart of winogradGatherTiles: copy every (padded)
 * input tile of the NCHWc8 batch into V ([t*t, Cinb, P, 8]) as whole
 * 8-channel vectors. Every element of V is written. The integer
 * instantiations feed the quantized blocked pipeline
 * (quant/int_wino_blocked.hh).
 */
template <typename T>
void winogradGatherTilesBlocked(const Tensor<T> &input, WinoVariant v,
                                std::size_t pad, Tensor<T> &V);

/**
 * Blocked counterpart of winogradScatterAddTiles: scatter-ADD tile
 * rows of V back into the (padded) NCHWc8 gradient geometry, 8-wide
 * vectors at a time. `grad` must be pre-shaped [N, Cinb, H, W, 8].
 */
void winogradScatterAddTilesBlocked(const TensorD &V, WinoVariant v,
                                    std::size_t pad, TensorD &grad);

/**
 * Blocked per-tap GEMM: M[k] = W[k] * U[k] on the c-blocked operands
 * (see layout/kernels.hh). Taps — further split into P column blocks
 * when taps alone would under-fill the pool — shard across `runner`;
 * every shard computes the same per-element ascending-channel sums,
 * so parallel execution is bit-identical to serial.
 */
void winogradTapGemmBlocked(const BlockedTapWeights &w,
                            const TensorD &U, TensorD &M,
                            gemm::ParallelRunner *runner = nullptr);

/**
 * Blocked counterpart of winogradUntile: write the A-transformed tile
 * rows Y ([m*m, Coutb, P, 8]) into the NCHWc8 output (edge tiles
 * clipped), 8-wide vectors at a time. `out` must be pre-shaped
 * [N, Coutb, Ho, Wo, 8].
 *
 * Optional fused epilogue: a non-null `bias8` ([Coutb*8], tail lanes
 * zero) is added per output lane and `relu` clamps negatives to zero
 * as each vector is written — the untile touches every output exactly
 * once, so the epilogue costs no extra memory pass and is
 * bit-identical to a separate bias/ReLU sweep.
 */
template <typename T>
void winogradUntileBlocked(const Tensor<T> &Y, WinoVariant v,
                           Tensor<T> &out, const T *bias8 = nullptr,
                           bool relu = false);

/**
 * Tile rows [g0, g1) of winogradGatherTilesBlocked, for the chunked
 * compositions: fills the chunk buffer `V`, laid
 * [t*t, Cinb, (g1 - g0) * tilesX, 8].
 */
template <typename T>
void winogradGatherTileRowsBlocked(const Tensor<T> &input,
                                   WinoVariant v, std::size_t pad,
                                   std::size_t g0, std::size_t g1,
                                   T *V);

/**
 * Tile rows [g0, g1) of winogradUntileBlocked, for the chunked
 * compositions: writes the outputs those rows cover from the chunk
 * buffer `Y`, laid [m*m, Coutb, (g1 - g0) * tilesX, 8].
 */
template <typename T>
void winogradUntileTileRowsBlocked(const T *Y, WinoVariant v,
                                   std::size_t g0, std::size_t g1,
                                   Tensor<T> &out,
                                   const T *bias8 = nullptr,
                                   bool relu = false);

/**
 * Storage for one chunk of a tile buffer: `buf` is regrown (flat,
 * zero-filled) only when it holds fewer than `n` elements and is
 * otherwise used as is, whatever its shape — so a buffer that has
 * grown to the largest chunk it meets serves every layer without a
 * reshape (ScratchArena::buffer).
 */
template <typename T>
T *
winoChunkBuffer(Tensor<T> &buf, std::size_t n)
{
    if (buf.numel() < n)
        buf = Tensor<T>(Shape{n});
    return buf.data();
}

/**
 * Full blocked-layout Winograd convolution with caller-provided
 * buffers (e.g. ScratchArena slots), mirroring
 * conv2dWinogradTiledInto: gather, input kron, per-tap GEMM, output
 * kron, untile — all on NCHWc8 operands, one chunk of tile rows at a
 * time (see the file comment). `out` must be pre-shaped
 * [N, Coutb, Ho, Wo, 8]. V, U, M and Y hold one chunk: each is
 * regrown only if smaller than that (winoChunkBuffer) and is
 * otherwise used as is, whatever its shape. `bias8` / `relu` are the
 * untile's fused epilogue (see winogradUntileBlocked).
 */
void conv2dWinogradBlockedInto(const TensorD &input,
                               const BlockedTapWeights &w,
                               std::size_t pad, TensorD &V, TensorD &U,
                               TensorD &M, TensorD &Y, TensorD &out,
                               gemm::ParallelRunner *runner = nullptr,
                               const double *bias8 = nullptr,
                               bool relu = false);

/** Convenience wrapper allocating its own buffers. */
TensorD conv2dWinogradBlocked(const TensorD &input,
                              const BlockedTapWeights &w,
                              std::size_t pad = 1);

/**
 * Half-storage blocked Winograd convolution: NCHWc8 binary16
 * activations in and out, binary16 weights, all arithmetic in fp32.
 *
 *   input [N, Cinb, H, W, 8] halves  -> gather -> V16 (halves)
 *   V16 -widen-> V (fp32) -B kron-> U -tap GEMM-> M -A kron-> Y
 *   Y -untile+epilogue-> outF (fp32 NCHWc8) -narrow-> out (halves)
 *
 * Gather through untile run one chunk of tile rows at a time, like
 * conv2dWinogradBlockedInto (V16, V, U, M and Y hold one chunk);
 * outF stages the whole output and is narrowed in one pass at the
 * end. The fused bias/ReLU epilogue is applied in fp32 before the
 * final narrowing, so the stored half is a single rounding of the
 * exact fp32 epilogue result. `out` must be pre-shaped
 * [N, Coutb, Ho, Wo, 8]; outF is reshaped as needed.
 */
void conv2dWinogradBlockedF16Into(
    const TensorF16 &input, const BlockedTapWeightsF16 &w,
    std::size_t pad, TensorF16 &V16, TensorF &V, TensorF &U,
    TensorF &M, TensorF &Y, TensorF &outF, TensorF16 &out,
    gemm::ParallelRunner *runner = nullptr,
    const float *bias8 = nullptr, bool relu = false);

/** Convenience wrapper allocating its own buffers. */
TensorF16 conv2dWinogradBlockedF16(const TensorF16 &input,
                                   const BlockedTapWeightsF16 &w,
                                   std::size_t pad = 1,
                                   const float *bias8 = nullptr,
                                   bool relu = false);

extern template void winogradGatherTilesBlocked(const Tensor<double> &,
                                                WinoVariant,
                                                std::size_t,
                                                Tensor<double> &);
extern template void
winogradGatherTilesBlocked(const Tensor<std::int32_t> &, WinoVariant,
                           std::size_t, Tensor<std::int32_t> &);
extern template void
winogradGatherTilesBlocked(const Tensor<std::uint16_t> &, WinoVariant,
                           std::size_t, Tensor<std::uint16_t> &);
extern template void winogradUntileBlocked(const Tensor<double> &,
                                           WinoVariant,
                                           Tensor<double> &,
                                           const double *, bool);
extern template void winogradUntileBlocked(const Tensor<float> &,
                                           WinoVariant,
                                           Tensor<float> &,
                                           const float *, bool);
extern template void
winogradUntileBlocked(const Tensor<std::int64_t> &, WinoVariant,
                      Tensor<std::int64_t> &, const std::int64_t *,
                      bool);
extern template void
winogradGatherTileRowsBlocked(const Tensor<std::int32_t> &, WinoVariant,
                              std::size_t, std::size_t, std::size_t,
                              std::int32_t *);
extern template void
winogradUntileTileRowsBlocked(const double *, WinoVariant, std::size_t,
                              std::size_t, Tensor<double> &,
                              const double *, bool);

} // namespace twq

#endif // TWQ_LAYOUT_WINO_BLOCKED_HH
