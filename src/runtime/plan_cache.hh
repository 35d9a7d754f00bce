/**
 * @file
 * Serializable cache of autoSelect's measured per-layer plans.
 *
 * SessionConfig::autoSelect races each eligible FP layer's candidate
 * engines (im2col, winograd-fp32, blocked-layout winograd, across the
 * F2/F4/F6 transform variants) on a timing probe at session build.
 * Those measurements cost real wall-clock per layer per process; this
 * cache persists the winning (engine, variant) — the engine choice
 * carries the layout decision, since ConvEngine::WinogradBlocked is
 * the NCHWc8 plan — keyed by the layer's shape and the probe batch,
 * so repeat sessions (a restarted server, a fleet of identical
 * replicas) skip the probe entirely and land on the plan a previous
 * build measured.
 *
 * The cache is a plain line-oriented text format whose header carries
 * the kernel-table signature of the process that measured the plans:
 *
 *     twq-plan-cache v4 sig=avx2/avx512-vnni/avx2
 *     c64o64k3s1h16w16b8 winograd-blocked F4 182340 812345 1623490 \
 *         40210 1204 9120 8770 9050 8990 3 im2col F2 401200 \
 *         winograd-fp32 F4 240100 winograd-blocked F4 182340
 *     ...
 *
 * (shown wrapped; each entry is one line). The five numeric fields
 * after the variant are measurement provenance: the winning
 * candidate's best probe time in nanoseconds, then the hardware
 * counters sampled over that probe — cycles, instructions, cache
 * references, cache misses (all zero when perf_event_open was
 * unavailable). Provenance lets an operator audit WHY a cached plan
 * won (`/statusz` surfaces it per layer) without re-probing.
 *
 * v4 extends each entry with the data the chain-aware layout DP
 * (runtime/session.cc) needs to re-decide plans jointly across
 * adjacent layers without re-measuring anything: four layout
 * conversion costs — NCHW→NCHWc8 and NCHWc8→NCHW, each measured at
 * the layer's INPUT shape and at its OUTPUT shape (the seam a
 * downstream neighbor or the chain egress sees) — followed by the
 * full candidate table, `n` then n (engine, variant, ns) triples
 * (ns as charged by the planner, see Cand). A
 * winner-only entry (n = 0, costs 0) is still honored: the session
 * adopts the recorded winner verbatim and the DP treats the layer
 * as fixed.
 *
 * A measured ranking is only meaningful on the kernel set that
 * produced it — a plan probed on an AVX-512 VNNI host misfires on a
 * scalar-kernel host — so deserialize() rejects any input whose
 * signature differs from signature() (leaving the in-memory cache
 * untouched), forcing a re-probe instead of applying a stale plan.
 * Older v1/v2/v3 files are rejected the same way (v3 predates both
 * the F6 candidate and the conversion-cost fields, so its rankings
 * are incomplete for this candidate space).
 *
 * Thread-safe: sessions built concurrently may share one instance.
 */

#ifndef TWQ_RUNTIME_PLAN_CACHE_HH
#define TWQ_RUNTIME_PLAN_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "models/zoo.hh"
#include "winograd/matrices.hh"
#include "xform/engines.hh"

namespace twq
{

class PlanCache
{
  public:
    /** One measured candidate in a layer's race. */
    struct Cand
    {
        ConvEngine engine = ConvEngine::Im2col;
        WinoVariant variant = WinoVariant::F2;
        /**
         * The time the planner charges this candidate, ns: its best
         * probe round, or the race leader's best round when the
         * candidate tied the leader (settleRace, runtime/session.hh),
         * so the chain DP and later hits make the race's choice.
         */
        std::uint64_t ns = 0;
    };

    /** One cached autoSelect outcome, plus measurement provenance. */
    struct Decision
    {
        ConvEngine engine = ConvEngine::Im2col;
        WinoVariant variant = WinoVariant::F2;

        /** Winning candidate's best probe run, ns (0 = unknown). */
        std::uint64_t probeNs = 0;
        /** Counters over that probe; all zero when unmeasured. */
        std::uint64_t cycles = 0;
        std::uint64_t instructions = 0;
        std::uint64_t cacheRefs = 0;
        std::uint64_t cacheMisses = 0;

        /**
         * Measured layout-conversion costs, ns (0 = unmeasured):
         * NCHW↔NCHWc8 at the layer's input shape and at its output
         * shape. The chain DP charges these on seams between
         * adjacent layers whose layouts disagree and on chain
         * ingress/egress (the boundary between layers i-1 and i is
         * one shape — i-1's output is i's input — so either
         * neighbor's measurement of it applies).
         */
        std::uint64_t inToBlockedNs = 0;
        std::uint64_t inToNchwNs = 0;
        std::uint64_t outToBlockedNs = 0;
        std::uint64_t outToNchwNs = 0;

        /**
         * The full candidate table the race measured, winner
         * included. Empty on winner-only entries (hand-seeded or
         * pre-v4 provenance): the session then adopts the winner
         * verbatim and the chain DP treats the layer as fixed.
         */
        std::vector<Cand> table;

        /**
         * Equality is the PLAN, not the provenance: two decisions
         * that pick the same (engine, variant) are the same plan
         * even if measured at different speeds.
         */
        bool
        operator==(const Decision &o) const
        {
            return engine == o.engine && variant == o.variant;
        }
    };

    /**
     * Cache key of a layer shape under a probe batch size — every
     * field that changes the measured ranking participates,
     * including which candidate family raced: an FP layer and a
     * quantized layer of identical geometry measure different
     * candidate sets, and one decision must never clobber the other.
     */
    static std::string layerKey(const ConvLayerDesc &desc,
                                std::size_t probeBatch,
                                bool quantized = false);

    /**
     * Signature of the kernel tables resolved for this process (the
     * dispatched fp64, int8 and blocked-layout kernels) — the
     * environment a measured plan is valid in. Serialized into the
     * header; a mismatch on load discards the cache.
     */
    static std::string signature();

    /** Look up a cached decision; false when absent. */
    bool lookup(const std::string &key, Decision *out) const;

    /** Record (or overwrite) a decision. */
    void store(const std::string &key, const Decision &d);

    std::size_t size() const;

    /**
     * Monotonic change counter (bumped by store() and deserialize());
     * lets a caller that loaded a cache detect whether a build added
     * plans worth persisting.
     */
    std::uint64_t revision() const;

    /** The full cache in the line format above. */
    std::string serialize() const;

    /**
     * Merge serialize() output into the cache (parsed entries win
     * per key, existing entries for other keys survive — a shared
     * in-process cache never loses valid measurements to a load).
     * False with the cache UNCHANGED on a malformed line or a stale
     * header (wrong version or kernel-table signature): the affected
     * layers simply re-probe.
     */
    bool deserialize(const std::string &text);

    /** File convenience wrappers; false on I/O or parse failure. */
    bool loadFile(const std::string &path);
    bool saveFile(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, Decision> entries_;
    std::uint64_t revision_ = 0;
};

} // namespace twq

#endif // TWQ_RUNTIME_PLAN_CACHE_HH
