/**
 * @file
 * Integer-only tap-wise quantized Winograd convolution (Section III).
 *
 * Implements the paper's quantization scheme
 *
 *   y = A^T [ S_BG ⊙ Σ_Cin round(B^T x̂ B ⊘ S_B) ⊙ round(G f̂ G^T ⊘ S_G) ] A
 *
 * with per-tap scaling matrices S_B, S_G and S_BG = S_B ⊙ S_G. All
 * multiplications and the channel reduction run in the integer
 * domain; rescaling happens once, before the back-transformation.
 * Layer-wise (single-scalar) granularity reproduces the "traditional"
 * quantization that breaks F4 accuracy; tap-wise granularity is the
 * paper's contribution.
 *
 * IntWinogradConv is the quantizer (it calibrates s_x, S_B and S_G and
 * quantizes the transformed weights) and the tile-at-a-time oracle:
 * forward and forwardInt8 run one [t, t] tile at a time, the
 * formulation the paper writes down. The fast implementation is
 * BlockedIntWinograd (quant/int_wino_blocked.hh), built from a
 * prepared IntWinogradConv and held bit-identical to these oracles.
 */

#ifndef TWQ_QUANT_INT_WINOGRAD_HH
#define TWQ_QUANT_INT_WINOGRAD_HH

#include <vector>

#include "quant/scales.hh"
#include "tensor/tensor.hh"
#include "winograd/matrices.hh"

namespace twq
{

class CalibrationCache;

/** Configuration of the integer Winograd pipeline. */
struct IntWinogradConfig
{
    WinoVariant variant = WinoVariant::F4;
    int spatialBits = 8;   ///< activation/weight bits in spatial domain
    int winogradBits = 8;  ///< bits in the Winograd domain (8 or 10)
    QuantGranularity granularity = QuantGranularity::TapWise;
    bool pow2Scales = true; ///< restrict scales to powers of two
    std::size_t pad = 1;
};

/**
 * A quantized 3x3 convolution layer executing the integer Winograd
 * pipeline. Weights are transformed and quantized at construction
 * (the accelerator does this on the fly in MTE1); inputs are
 * quantized per call.
 */
class IntWinogradConv
{
  public:
    /**
     * @param weights     FP weights [Cout, Cin, 3, 3].
     * @param calibration sample input tensors (NCHW) used to
     *                    calibrate the activation and tap scales.
     * @param cfg         pipeline configuration.
     * @param calCache    optional shared calibration statistics
     *                    (quant/calibration.hh): candidates racing
     *                    the same layer reuse the abs-max,
     *                    fake-quantization, and tap-maxima passes
     *                    instead of recomputing them; results are
     *                    bit-identical with or without the cache.
     */
    IntWinogradConv(const TensorD &weights,
                    const std::vector<TensorD> &calibration,
                    const IntWinogradConfig &cfg,
                    CalibrationCache *calCache = nullptr);

    /**
     * Run quantized inference one tile at a time; returns the
     * dequantized FP output. The FP dequant follows the row-pass
     * (Kronecker) order over the fused S_BG * s_x scale, through the
     * dispatched kron kernel, so the blocked engine's vectorized
     * dequant is bit-identical to it.
     */
    TensorD forward(const TensorD &input) const;

    /**
     * Fully integer inference path (requires pow2Scales): the S_BG
     * rescale, the output transform, and the final requantization to
     * int8 are carried out with integer adds and shifts only, the
     * way the FixPipe/Vector Unit does it on the accelerator. Runs one
     * tile at a time, like forward().
     *
     * @param input     FP input (quantized internally with s_x).
     * @param out_scale output: the power-of-two scale of the
     *                  returned int8 tensor.
     * @param fuse_relu apply ReLU before requantization (the fused
     *                  activation of the FixPipe).
     */
    TensorI8 forwardInt8(const TensorD &input, double *out_scale,
                         bool fuse_relu = false) const;

    std::size_t cout() const { return cout_; }
    std::size_t cin() const { return cin_; }

    /** Input activation scale s_x (spatial domain). */
    double inputScale() const { return sx_; }

    /**
     * Per-tap input rescale factors S_B in the integer domain, i.e.
     * the divisor applied to B^T x̂ B before clamping to
     * `winogradBits`. Powers of two when pow2Scales is set.
     */
    const MatrixD &inputTapScale() const { return sb_; }

    /** Per-tap/channel weight scales S_G (Winograd domain). */
    const ScaleSet &weightScales() const { return wscales_; }

    /** Right-shift amounts log2(S_B) when scales are powers of two. */
    std::vector<int> inputShifts() const;

    /** Quantized weights, flat tap-major [t*t][Cout][Cin]. */
    const std::vector<std::int64_t> &tapWeights() const
    {
        return wqTaps_;
    }

    const IntWinogradConfig &config() const { return cfg_; }

  private:
    /// Integer pipeline shared by forward and forwardInt8: quantize
    /// the input, then per output tile transform each input channel,
    /// requantize by S_B (shifts when `useShifts`, else round(x/s);
    /// identical for power-of-two scales) and reduce over channels.
    /// Calls emit(n, ty, tx, oc, acc) with the [t, t] integer tap
    /// products of every output channel; emit may modify acc.
    template <typename Emit>
    void forEachTileProduct(const TensorD &input, bool useShifts,
                            Emit &&emit) const;

    IntWinogradConfig cfg_;
    std::size_t cout_;
    std::size_t cin_;
    double sx_ = 1.0;          ///< spatial activation scale
    MatrixD sb_;               ///< [t,t] integer-domain input divisors
    ScaleSet wscales_;         ///< Winograd-domain weight scales
    /// Quantized Winograd-domain weights, tap-major
    /// [t*t][cout][cin], values in `winogradBits` range.
    std::vector<std::int64_t> wqTaps_;
    /// Fused FP dequant scales S_B ⊙ S_G ⊙ s_x per (tap, oc),
    /// [t*t * cout], computed in the same association order as the
    /// blocked engine's sbgSx_ table so both dequants see identical
    /// doubles.
    std::vector<double> dqScale_;
};

/** Relative L2 error ||a - b|| / ||b||; b is the reference. */
double relativeL2Error(const TensorD &a, const TensorD &b);

} // namespace twq

#endif // TWQ_QUANT_INT_WINOGRAD_HH
