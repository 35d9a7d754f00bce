/**
 * @file
 * A loaded, immutable model instance shared by all workers.
 *
 * A Session takes a chainable NetworkDesc from models/zoo, draws
 * deterministic weights, resolves the per-layer engine policy against
 * the EngineRegistry, and runs every backend's prepare() step once
 * (Winograd weight transforms, int8 quantization with activation
 * calibration). After construction the session is strictly read-only:
 * run() may be called concurrently from any number of workers, each
 * passing its own scratch arena.
 */

#ifndef TWQ_RUNTIME_SESSION_HH
#define TWQ_RUNTIME_SESSION_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/perf.hh"
#include "runtime/engine.hh"
#include "runtime/plan_cache.hh"

namespace twq::obs
{
class Histogram;
}

namespace twq
{

/** How a Session materializes and executes a network. */
struct SessionConfig
{
    /** Winograd variant for both FP32 and int8 Winograd layers. */
    WinoVariant variant = WinoVariant::F2;

    /**
     * Engine for winograd-eligible layers; ineligible layers (strided
     * or non-3x3) always run im2col, mirroring the paper's
     * accelerator — im2col-int8 when this engine is quantized, so a
     * quantized session is quantized end to end.
     */
    ConvEngine defaultEngine = ConvEngine::WinogradBlocked;

    /** Per-layer overrides by layer name (after repeat expansion). */
    std::map<std::string, ConvEngine> layerEngines;

    /**
     * Collapse conv→bias[→ReLU] runs of the network's layer chain
     * (xform/fuse.hh) into each conv engine's final output write, so
     * post-op activations are touched exactly once. Off, the post-ops
     * run as separate full passes over the activation after the conv
     * — the baseline the fused path must match bit for bit on every
     * FP engine (the epilogue arithmetic is identical element-wise,
     * only the number of memory passes differs).
     */
    bool fuseEpilogues = true;

    /**
     * Let autoSelect additionally race the binary16-storage blocked
     * engine (WinogradBlockedF16) for FP Winograd layers. Opt-in
     * because fp16 storage rounds activations and weights to half
     * precision — accuracy-gated rather than bit-identical — so the
     * policy must not silently trade accuracy for speed. The f16
     * candidate is timed on its native half-precision hot path
     * (runF16 on a pre-narrowed blocked probe), symmetric with
     * blocked candidates timed on a blocked probe.
     */
    bool raceF16 = false;

    /**
     * Pick the execution plan per layer from a measured
     * microbenchmark instead of trusting defaultEngine blindly. At
     * session build each eligible layer on winograd-blocked is
     * prepared for im2col and for winograd-blocked under F2, F4 and
     * F6 (four candidates), timed on a sample batch (blocked
     * candidates on a blocked probe), and the fastest candidate wins
     * — the policy picks the engine, and with it the activation
     * layout, and the Winograd variant together. Layers on
     * winograd-blocked-int8 race their own quantized set the same
     * way: im2col-int8 and winograd-blocked-int8 under each variant
     * the bitwidth model's int8 eligibility gate admits (F2 and F4
     * at 16 channels; never F6) — never an FP engine, which would
     * silently drop the configured quantization. Each race starts on
     * the variant the layer's shape suggests (the largest whose
     * output tile divides the layer's output and whose channel width
     * amortizes it, à la TVM's tile-size inference), which wins
     * near-ties. Ineligible layers still always land on their
     * im2col fallback, and explicit layerEngines overrides are
     * honored unmeasured. Each distinct plan key
     * (PlanCache::layerKey) races once per build: later identical
     * layers adopt that race's outcome (see planCache), and
     * candidates within noise of the fastest are settled by race
     * order (settleRace).
     */
    bool autoSelect = false;

    /** Batch size of the autoSelect timing probe. */
    std::size_t autoSelectBatch = 8;

    /**
     * Optional cache of measured autoSelect plans, shared across
     * sessions and serializable (runtime/plan_cache.hh). A hit keyed
     * by the layer's shape (and probe batch) applies the cached
     * engine/variant/layout without re-running the probe; a miss
     * measures as usual and records the winner. Null, an autoSelect
     * build memoizes its races in a build-local cache instead, so
     * each distinct key still races once per build; that memo is
     * never saved, and the next build races again.
     */
    PlanCache *planCache = nullptr;

    /**
     * Auto-persisted plan cache: when non-empty, the session loads
     * this file into its plan cache before the build (ignoring a
     * missing, malformed, or stale-signature file — those re-probe)
     * and saves it back after the build if any plan was added or
     * refreshed. With a null `planCache` the build uses a private
     * cache behind the path; with both set, the shared cache is
     * loaded from and saved to the path. The file format is versioned
     * against the kernel-table/CPU signature (PlanCache::signature),
     * so a cache written by a different machine or build re-probes
     * instead of misfiring.
     */
    std::string planCachePath;

    /** Quantization settings for int8 layers. */
    IntWinogradConfig quant;

    /**
     * When non-empty, arm the runtime tracer (obs/trace.hh) for the
     * life of this session and write a Chrome trace-event JSON —
     * loadable in chrome://tracing or Perfetto — to this path when
     * the session is destroyed. The trace carries one lane per
     * worker/dispatcher thread with per-layer stage spans (quantize,
     * tile gather, B-kron, per-tap GEMM, rescale, untile), batching
     * waits, pool shards, and autoSelect probe spans from the build.
     * Tracing is process-global; one traced session at a time. Empty
     * (the default) leaves tracing off, which costs one predicted
     * branch per span site.
     */
    std::string tracePath;

    /**
     * Per-thread trace ring capacity (events) handed to
     * TraceCollector::enable when tracePath arms tracing. When the
     * `trace.dropped_events` gauge grows, raise this (each event is a
     * few dozen bytes; the default holds ~32k spans per thread).
     */
    std::size_t traceRingSlots = std::size_t{1} << 15;

    /** Deterministic weight initialization. */
    std::uint64_t weightSeed = 0x5eed;

    /** Inputs drawn to calibrate int8 activation scales. */
    std::size_t calibrationSamples = 2;
    std::uint64_t calibrationSeed = 77;
};

/**
 * How one layer's (engine, variant) plan was decided, for the
 * /statusz introspection endpoint and operators auditing autoSelect.
 * `probeNs` is the winning candidate's best probe run (0 when the
 * plan was not probed in this process); `counters` carries the
 * hardware counters sampled over that probe when perf_event_open was
 * available (counters.valid false otherwise).
 */
struct LayerPlanInfo
{
    std::string name;
    ConvEngine engine = ConvEngine::Im2col;
    WinoVariant variant = WinoVariant::F2;
    /**
     * "default" | "configured" | "cache" | "memo" | "probed". "memo"
     * is a layer that adopted an identical earlier layer's race in
     * the same build (no plan cache configured).
     */
    const char *source = "default";
    std::uint64_t probeNs = 0;
    obs::PerfCounters counters;
    /**
     * Decision margin from the layer's recorded candidate table:
     * 100 × (fastest other candidate − pick) / pick. 0 when the
     * near-tie rule decided, positive otherwise. Empty for layers
     * that did not race and for winner-only cache entries.
     */
    std::optional<double> marginPct;
};

/** One autoSelect race, settled (settleRace). */
struct RaceVerdict
{
    /** Index of the picked candidate, in race order. */
    std::size_t pick = 0;
    /**
     * Per candidate, in race order, the time the planner charges it
     * (PlanCache::Cand::ns): its own best round, or the leader's
     * best round for candidates tied with the leader.
     */
    std::vector<std::uint64_t> chargedNs;
};

/**
 * autoSelect's pick rule. `roundsNs[c]` holds candidate c's timed
 * rounds, candidates in race order (the shape-seeded incumbent
 * first). The leader is the candidate with the lowest best round. A
 * candidate ties the leader when its best round is no slower than
 * the leader's second-best round, so one preempted round cannot
 * widen the tie. The first tied candidate in race order wins, and
 * every tied candidate is charged the leader's best round, so the
 * recorded table reads as the race decided (a margin of 0).
 */
RaceVerdict
settleRace(const std::vector<std::vector<std::uint64_t>> &roundsNs);

/** An immutable, concurrently-executable model instance. */
class Session
{
  public:
    Session(const NetworkDesc &net, const SessionConfig &cfg);

    /**
     * Flushes the trace to SessionConfig::tracePath when that was
     * set (and a no-op otherwise).
     */
    ~Session();

    const NetworkDesc &network() const { return net_; }
    const SessionConfig &config() const { return cfg_; }

    /** Expected request shape, [1, C, H, W]. */
    const Shape &inputShape() const { return inputShape_; }

    /** Response shape for a single request, [1, C, H, W]. */
    const Shape &outputShape() const { return outputShape_; }

    /**
     * Executed layer count — conv layers after epilogue-fusion
     * planning; bias/ReLU post-op nodes of the network never count,
     * whether folded into their conv (fuseEpilogues) or applied as
     * separate session-level passes.
     */
    std::size_t layerCount() const { return layers_.size(); }
    const ConvLayerDesc &layerDesc(std::size_t i) const;
    ConvEngine layerEngine(std::size_t i) const;

    /**
     * The post-conv epilogue planned for a layer (bias drawn
     * deterministically from weightSeed for an absorbed Bias node,
     * relu from an absorbed Relu node; inactive for a bare conv).
     * Applied fused or as separate passes per
     * SessionConfig::fuseEpilogues — same values either way.
     */
    const Epilogue &layerEpilogue(std::size_t i) const;

    /**
     * Winograd variant a layer executes with (meaningful for the
     * Winograd engines; autoSelect may pick it per layer).
     */
    WinoVariant layerVariant(std::size_t i) const;

    /**
     * The activation layouts a layer's backend consumes and produces
     * — the session-level layout plan. run()/runInto() convert
     * between consecutive layers only where these disagree, so a
     * chain of NCHWc8 layers keeps its activations blocked in arena
     * slots and converts exactly once at ingress and once at egress.
     */
    const LayoutPlan &layerLayout(std::size_t i) const;

    /** Plan provenance of layer i (see LayerPlanInfo). */
    LayerPlanInfo layerPlan(std::size_t i) const;

    /**
     * Forward a (possibly batched) NCHW tensor through every layer.
     * Thread-safe: only reads shared prepared state; per-call scratch
     * lives in `scratch`. `ctx` optionally shards each large layer's
     * independent GEMMs across a worker pool (intra-batch
     * parallelism); outputs are bit-identical either way.
     */
    TensorD run(const TensorD &batch, ScratchArena &scratch,
                const RunContext &ctx) const;

    /** Serial overload. */
    TensorD run(const TensorD &batch, ScratchArena &scratch) const;

    /** Convenience overload with a throwaway arena. */
    TensorD run(const TensorD &batch) const;

    /**
     * Like run(), but the final layer writes into the caller-provided
     * `out` (pre-shaped [N, Cout, Ho, Wo] — e.g. an arena slot), so a
     * steady serving loop allocates nothing for the batch result.
     */
    void runInto(const TensorD &batch, ScratchArena &scratch,
                 const RunContext &ctx, TensorD &out) const;

  private:
    struct Layer
    {
        ConvLayerDesc desc;
        ConvParams params;
        ConvEngine engine = ConvEngine::Im2col;
        WinoVariant variant = WinoVariant::F2;
        /// Layout contract of this layer's backend (planned once at
        /// session build from the backend's declared layouts).
        LayoutPlan layout;
        std::shared_ptr<const ConvBackend> backend;
        std::shared_ptr<const PreparedLayer> prepared;
        /// Arena slot of this layer's output activation; intermediate
        /// activations live in the worker's arena so the serving loop
        /// performs no steady-state allocations.
        ScratchArena::Slot activation = 0;
        /// Arena slot holding this layer's input re-laid into the
        /// backend's layout, used only when the producing layer's
        /// output layout disagrees.
        ScratchArena::Slot convert = 0;
        /// Post-conv epilogue planned for this layer. Fused sessions
        /// hand it to the backend (LayerBuild::epilogue); unfused
        /// sessions apply it as separate passes after run().
        Epilogue epilogue;
        /// binary16 twins of activation/convert, used only when the
        /// backend stores activations as half (f16Storage()).
        ScratchArena::Slot activationH = 0;
        ScratchArena::Slot convertH = 0;
        /// Arena slot for widening a half activation back to double
        /// when the consumer is not an f16 backend (or at egress).
        ScratchArena::Slot widen = 0;
        /// Interned trace-span name ("layer:<name>"); spans store the
        /// pointer, so the string must outlive the trace flush — it
        /// lives as long as the session, whose destructor flushes.
        std::string spanName;
        /// Per-layer wall-time distribution in the global registry
        /// ("layer.<net>.<name>.latency_ns"), resolved once at build.
        obs::Histogram *latency = nullptr;
        /// Plan provenance, surfaced through layerPlan().
        const char *planSource = "default";
        std::uint64_t planProbeNs = 0;
        obs::PerfCounters planCounters;
        std::optional<double> planMarginPct;
    };

    NetworkDesc net_;
    SessionConfig cfg_;
    Shape inputShape_;
    Shape outputShape_;
    std::vector<Layer> layers_;
    /// Whether this session enabled tracing (cfg_.tracePath set) and
    /// owes a flush at destruction.
    bool traceArmed_ = false;
};

} // namespace twq

#endif // TWQ_RUNTIME_SESSION_HH
