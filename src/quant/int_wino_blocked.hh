/**
 * @file
 * The int8 tap-wise Winograd engine: the quantized pipeline of
 * quant/int_winograd.hh run on the NCHWc8 blocked layout, with the
 * c-block as the SIMD lane dimension end to end. Stages (forwardInto
 * runs every stage after quantize one chunk of tile rows at a time):
 *
 *   quantize  blocked f64 input -> int32 xq, elementwise (padded
 *             lanes quantize 0 -> 0, so they stay invisible)
 *   gather    blocked tiles into V [t*t, Cinb, P, 8] (8-wide vector
 *             moves, winogradGatherTilesBlocked<int32>)
 *   kron      exact integer B^T (x) B^T row passes over the blocked
 *             rows (applyKron<int32>)
 *   rescale   the per-tap S_B requantization, clamped to
 *             `winogradBits` — which always fits int16, so the GEMM
 *             operand narrows to U16 [t*t, Cinb, P, 8] (or to biased
 *             u8 for the 8-bit VNNI kernel)
 *   GEMM      per-tap widening products on interleaved blocked
 *             weights with the c-block as the SIMD lane dimension
 *             (layout::TapGemmI16Fn / TapGemmU8Fn kernels)
 *   rescale   per GEMM slice: the FP dequant multiplies each tap
 *             slice by S_BG (a per-lane scale vector, with sx folded
 *             in); the fully integer path left-shifts each (tap, oc)
 *             slice to the channel's common power-of-two scale
 *
 * Every integer stage computes the same order-free sums as the
 * tile-at-a-time oracles, so forwardInt8 is bit-identical to
 * IntWinogradConv::forwardInt8 (modulo the NCHWc8 layout of the
 * returned tensors). The FP dequant of forwardInto runs the
 * vectorized blocked form — per-lane fused S_BG * s_x scaling,
 * Kronecker row passes through the dispatched kron kernel, blocked
 * untile — and IntWinogradConv::forward is specified in the same
 * row-pass order over the same fused scales and the same kernel, so
 * forwardInto is bit-identical to it too; its result is deterministic
 * and independent of batch size and sharding. Overflow is excluded by
 * construction: operands are bounded by 2^(winogradBits-1) <= 2^9, so
 * int32 accumulation over cinb*8 channels is wrap-free for any channel
 * count the constructor accepts (asserted).
 */

#ifndef TWQ_QUANT_INT_WINO_BLOCKED_HH
#define TWQ_QUANT_INT_WINO_BLOCKED_HH

#include <vector>

#include "layout/wino_blocked.hh"
#include "quant/int_winograd.hh"

namespace twq
{

/**
 * The blocked execution state of a layer, derived from a prepared
 * IntWinogradConv: its config, scales and quantized weights (re-laid
 * interleaved for the widening tap kernel). It copies everything it
 * reads, so the source conv may be destroyed once this is built.
 */
class BlockedIntWinograd
{
  public:
    explicit BlockedIntWinograd(const IntWinogradConv &conv);

    /**
     * Quantized inference on an NCHWc8 input, dequantized into the
     * pre-shaped NCHWc8 `out` ([N, Coutb, Ho, Wo, 8]; padded lanes
     * are zeroed). The whole input quantizes into xq; every later
     * stage, S_BG rescale and untile included, runs one chunk of
     * tile rows at a time like conv2dWinogradBlockedInto, so V, U32,
     * U16, U8, M, Md and Y hold one chunk (each regrown only if
     * smaller, winoChunkBuffer). Caller-provided buffers (e.g.
     * ScratchArena slots) make the steady state allocation-free. A
     * non-null `runner` shards the per-tap GEMMs
     * (bit-identical to serial — integer sums are order-free, and
     * the FP dequant is elementwise/row-pass, so results never
     * depend on batch size or sharding). Bit-identical to
     * IntWinogradConv::forward on the equivalent NCHW input. A
     * non-null `bias8` ([Coutb*8], tail lanes zero) and `relu` are
     * the fused FP epilogue of the blocked untile
     * (winogradUntileBlocked).
     */
    void forwardInto(const TensorD &input, TensorI32 &xq, TensorI32 &V,
                     TensorI32 &U32, TensorI16 &U16, TensorI8 &U8,
                     TensorI32 &M, TensorD &Md, TensorD &Y,
                     TensorD &out,
                     gemm::ParallelRunner *runner = nullptr,
                     const double *bias8 = nullptr,
                     bool relu = false) const;

    /** Convenience wrapper allocating its own buffers. */
    TensorD forward(const TensorD &input) const;

    /**
     * Fully integer blocked path (requires pow2Scales): rescale,
     * output transform and requantization run with integer adds and
     * shifts only. Returns the NCHWc8 int8 output (padded lanes
     * zero); logical lanes are bit-identical to
     * IntWinogradConv::forwardInt8.
     */
    TensorI8 forwardInt8(const TensorD &input, double *out_scale,
                         bool fuse_relu = false) const;

    std::size_t cout() const { return cout_; }
    std::size_t cin() const { return cin_; }
    std::size_t coutb() const { return coutb_; }
    std::size_t cinb() const { return cinb_; }
    const IntWinogradConfig &config() const { return cfg_; }

  private:
    /// Spatial quantization of the whole blocked input into xq.
    void quantizeInput(const TensorD &input, TensorI32 &xq) const;

    /// Stages shared by both forward paths, on tile rows [g0, g1) of
    /// the quantized input (P = (g1 - g0) * tilesX tiles): gather
    /// into V, kron into U32, S_B rescale (shift- or round-based),
    /// widening per-tap GEMM into M. With the u8 kernel engaged
    /// (8-bit operands on a VNNI host) the rescale emits the
    /// biased-u8 operand into U8 and U16 is not touched (may be
    /// null); otherwise the int16 path runs and U8 may be null.
    void scatterGemmRows(const TensorI32 &xq, std::size_t g0,
                         std::size_t g1, bool useShifts,
                         std::int32_t *V, std::int32_t *U32,
                         std::int16_t *U16, std::uint8_t *U8,
                         std::int32_t *M,
                         gemm::ParallelRunner *runner) const;

    IntWinogradConfig cfg_;
    double sx_ = 1.0; ///< spatial activation scale s_x
    MatrixD sb_;      ///< [t,t] integer-domain input divisors S_B
    std::size_t cout_ = 0;
    std::size_t cin_ = 0;
    std::size_t coutb_ = 0;
    std::size_t cinb_ = 0;
    /// Take the u8 x s8 tap kernel: 8-bit Winograd domain on a host
    /// providing layout::LayoutKernels::tapGemmU8 (VNNI). Only the
    /// chosen kernel's weight layout is built.
    bool use8_ = false;
    /// int16 kernel: quantized tap weights [t*t][coutb][cinp/2][8][2],
    /// pair-interleaved along the input channels; rows past Cout and
    /// columns past Cin are zero. Empty when use8_.
    std::vector<std::int16_t> wq16_;
    /// u8 kernel: quad-interleaved signed weights
    /// [t*t][coutb][cinp/4][8][4] and the per-(tap, output-lane) bias
    /// compensation 128 * sum_ic w ([t*t][coutb*8]). Empty unless
    /// use8_.
    std::vector<std::int8_t> wq8_;
    std::vector<std::int32_t> comp_;
    /// Per-(tap, lane) dequant scales S_BG * sx for the FP gather:
    /// [t*t][coutb*8], padded lanes zero so they come out exactly
    /// zero without a separate clearing pass.
    std::vector<double> sbgSx_;
    /// Per-oc common power-of-two S_BG scale (min over taps) and the
    /// relative left-shifts above it, precomputed for forwardInt8
    /// (pow2Scales configurations only).
    std::vector<int> comLog2_;
    std::vector<std::vector<int>> relShift_;
};

} // namespace twq

#endif // TWQ_QUANT_INT_WINO_BLOCKED_HH
