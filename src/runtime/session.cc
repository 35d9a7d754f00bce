#include "runtime/session.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "layout/kernels_f16.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "winograd/bitwidth.hh"
#include "xform/fuse.hh"

namespace twq
{

namespace
{

/** "Same"-style padding for the zoo's odd kernel sizes (1/3/7). */
ConvParams
paramsFor(const ConvLayerDesc &desc)
{
    return ConvParams{desc.kernel, desc.stride, (desc.kernel - 1) / 2};
}

TensorD
heInitWeights(const ConvLayerDesc &desc, std::uint64_t seed)
{
    TensorD w({desc.cout, desc.cin, desc.kernel, desc.kernel});
    const double stddev = std::sqrt(
        2.0 / static_cast<double>(desc.cin * desc.kernel * desc.kernel));
    Rng rng(seed);
    rng.fillNormal(w.storage(), 0.0, stddev);
    return w;
}

/**
 * Deterministic per-channel bias for an absorbed Bias node, seeded by
 * the node's position in the source chain so fused and unfused
 * sessions draw identical values.
 */
std::vector<double>
biasInit(std::size_t cout, std::uint64_t seed)
{
    std::vector<double> b(cout);
    Rng rng(seed);
    rng.fillNormal(b, 0.0, 0.1);
    return b;
}

/**
 * Shape-seeded starting variant for a raced layer (à la TVM's
 * tile-size inference): prefer the largest transform whose output
 * tile divides the layer's output exactly — a partial edge tile
 * wastes the wider transform's arithmetic saving — and whose channel
 * width amortizes the bigger Kronecker row passes; quantized layers
 * additionally require the variant to pass the bitwidth model's int8
 * eligibility gate (which excludes F6 outright: its transforms are
 * not integer).
 */
WinoVariant
seededVariant(const ConvLayerDesc &d, bool quantized, int winogradBits)
{
    const auto fits = [&](WinoVariant v, std::size_t m,
                          std::size_t minC) {
        if (d.outHeight() % m != 0 || d.outWidth() % m != 0 ||
            d.cin < minC)
            return false;
        return !quantized || winoInt8Eligible(v, winogradBits, d.cin);
    };
    if (fits(WinoVariant::F6, 6, 64))
        return WinoVariant::F6;
    if (fits(WinoVariant::F4, 4, 16))
        return WinoVariant::F4;
    return WinoVariant::F2;
}

/**
 * Separate-pass epilogue over an NCHW activation — the unfused
 * baseline. Bias is added only when present (adding a literal 0.0
 * would flip -0.0 outputs to +0.0 and break bit-identity with the
 * fused path).
 */
void
applyEpilogueNchw(TensorD &t, const Epilogue &e)
{
    if (e.bias.empty() && !e.relu)
        return;
    const std::size_t n = t.dim(0);
    const std::size_t c = t.dim(1);
    const std::size_t hw = t.dim(2) * t.dim(3);
    const bool hasBias = !e.bias.empty();
    double *p = t.data();
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t ch = 0; ch < c; ++ch) {
            double *row = p + (in * c + ch) * hw;
            const double bc = hasBias ? e.bias[ch] : 0.0;
            for (std::size_t i = 0; i < hw; ++i) {
                double v = row[i];
                if (hasBias)
                    v += bc;
                if (e.relu && v < 0.0)
                    v = 0.0;
                row[i] = v;
            }
        }
}

/**
 * Separate-pass epilogue over an NCHWc8 activation. Tail lanes of a
 * partial channel block stay zero — biasing them would pollute the
 * layout invariant every blocked consumer relies on.
 */
void
applyEpilogueBlocked(TensorD &t, std::size_t cout, const Epilogue &e)
{
    if (e.bias.empty() && !e.relu)
        return;
    const std::size_t n = t.dim(0);
    const std::size_t cb = t.dim(1);
    const std::size_t hw = t.dim(2) * t.dim(3);
    const bool hasBias = !e.bias.empty();
    double *p = t.data();
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t b = 0; b < cb; ++b) {
            double *plane = p + (in * cb + b) * hw * kLayoutBlock;
            const std::size_t lanes =
                std::min(kLayoutBlock, cout - b * kLayoutBlock);
            for (std::size_t i = 0; i < hw; ++i)
                for (std::size_t l = 0; l < lanes; ++l) {
                    double v = plane[i * kLayoutBlock + l];
                    if (hasBias)
                        v += e.bias[b * kLayoutBlock + l];
                    if (e.relu && v < 0.0)
                        v = 0.0;
                    plane[i * kLayoutBlock + l] = v;
                }
        }
}

} // namespace

RaceVerdict
settleRace(const std::vector<std::vector<std::uint64_t>> &roundsNs)
{
    twq_assert(!roundsNs.empty(), "race without candidates");
    std::vector<std::uint64_t> best;
    for (const std::vector<std::uint64_t> &r : roundsNs) {
        twq_assert(!r.empty(), "race candidate without timed rounds");
        best.push_back(*std::min_element(r.begin(), r.end()));
    }
    const std::size_t leader = static_cast<std::size_t>(
        std::min_element(best.begin(), best.end()) - best.begin());
    std::vector<std::uint64_t> lr = roundsNs[leader];
    std::sort(lr.begin(), lr.end());
    const std::uint64_t bar = lr[std::min<std::size_t>(1, lr.size() - 1)];

    RaceVerdict v;
    v.pick = best.size();
    v.chargedNs = best;
    for (std::size_t c = 0; c < best.size(); ++c) {
        if (best[c] > bar)
            continue;
        v.chargedNs[c] = best[leader];
        if (v.pick == best.size())
            v.pick = c;
    }
    return v;
}

Session::Session(const NetworkDesc &net, const SessionConfig &cfg)
    : net_(net), cfg_(cfg)
{
    const std::vector<ConvLayerDesc> descs = net.expandedLayers();
    twq_assert(!descs.empty(), "session on an empty network");
    // Dataflow pass: collapse conv→bias[→relu] runs of the chain into
    // fused groups. The plan is computed unconditionally (it also
    // validates post-op geometry); fuseEpilogues only decides whether
    // the epilogue executes inside the conv engine's output write or
    // as separate session-level passes.
    const std::vector<FusedLayer> fusedPlan = planEpilogueFusion(descs);

    // Arm the tracer before the build so autoSelect probe spans land
    // in the trace; the destructor flushes to cfg_.tracePath.
    if (!cfg_.tracePath.empty()) {
        obs::TraceCollector::global().enable(cfg_.traceRingSlots);
        traceArmed_ = true;
    }

    inputShape_ = {1, descs[0].cin, descs[0].height, descs[0].width};

    // Pass 1: validate the chain, draw weights, resolve engines.
    const EngineRegistry &registry = EngineRegistry::instance();
    std::size_t c = descs[0].cin;
    std::size_t h = descs[0].height;
    std::size_t w = descs[0].width;
    std::vector<TensorD> weights;
    std::vector<bool> pinned(fusedPlan.size(), false); ///< explicit override
    weights.reserve(fusedPlan.size());
    layers_.reserve(fusedPlan.size());
    for (std::size_t i = 0; i < fusedPlan.size(); ++i) {
        const FusedLayer &fuse = fusedPlan[i];
        const ConvLayerDesc &d = descs[fuse.conv];
        if (d.cin != c || d.height != h || d.width != w)
            twq_fatal("network '", net.name, "' does not chain at layer ",
                      d.name, ": expects [", d.cin, ", ", d.height, ", ",
                      d.width, "], previous layer produces [", c, ", ", h,
                      ", ", w, "]");

        Layer layer;
        layer.desc = d;
        layer.params = paramsFor(d);

        // Ineligible layers fall back to im2col — the int8 flavor
        // when the session's default path is quantized, so quantized
        // sessions stay quantized end to end.
        const bool quantizedDefault =
            cfg.defaultEngine == ConvEngine::WinogradBlockedInt8 ||
            cfg.defaultEngine == ConvEngine::Im2colInt8;
        const ConvEngine fallback = quantizedDefault
                                        ? ConvEngine::Im2colInt8
                                        : ConvEngine::Im2col;
        ConvEngine engine =
            d.winogradEligible() ? cfg.defaultEngine : fallback;
        if (auto it = cfg.layerEngines.find(d.name);
            it != cfg.layerEngines.end()) {
            engine = it->second;
            pinned[i] = true;
            layer.planSource = "configured";
        }
        std::shared_ptr<const ConvBackend> backend = registry.get(engine);
        if (!backend->supports(d)) {
            twq_warn("engine ", convEngineName(engine),
                     " does not support layer ", d.name,
                     "; falling back to im2col");
            engine = ConvEngine::Im2col;
            backend = registry.get(engine);
        }
        layer.engine = engine;
        layer.variant = cfg.variant;
        layer.backend = std::move(backend);
        // The epilogue's bias is seeded by the Bias node's position in
        // the SOURCE chain (like conv weights by theirs), so it is
        // identical however the plan groups the nodes.
        if (fuse.bias)
            layer.epilogue.bias = biasInit(
                d.cout, cfg.weightSeed ^ (0xb1a5ull << 32) ^
                            static_cast<std::uint64_t>(fuse.conv + 1));
        layer.epilogue.relu = fuse.relu;
        layer.activation = ScratchArena::resolve(
            "session.act:" + net.name + ":" + d.name);
        layer.convert = ScratchArena::resolve(
            "session.cvt:" + net.name + ":" + d.name);
        layer.activationH = ScratchArena::resolve(
            "session.acth:" + net.name + ":" + d.name);
        layer.convertH = ScratchArena::resolve(
            "session.cvth:" + net.name + ":" + d.name);
        layer.widen = ScratchArena::resolve(
            "session.wid:" + net.name + ":" + d.name);
        layer.spanName = "layer:" + d.name;
        layer.latency = &obs::Registry::global().histogram(
            "layer." + net.name + "." + d.name + ".latency_ns");
        layers_.push_back(std::move(layer));

        weights.push_back(heInitWeights(d, cfg.weightSeed + fuse.conv));

        c = d.cout;
        h = d.outHeight();
        w = d.outWidth();
    }
    outputShape_ = {1, c, h, w};

    // Pass 2: propagate calibration activations layer by layer (the
    // int8 engine calibrates its scales on the activations this layer
    // actually sees) and run each backend's one-time prepare(). The
    // calibration forward pass is only paid up to the last int8
    // layer; a session with none skips it entirely.
    std::size_t calEnd = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i)
        if (layers_[i].engine == ConvEngine::WinogradBlockedInt8 ||
            layers_[i].engine == ConvEngine::Im2colInt8)
            calEnd = i + 1;
    TensorD cal;
    if (calEnd > 0) {
        Rng calRng(cfg.calibrationSeed);
        cal = TensorD({std::max<std::size_t>(cfg.calibrationSamples, 1),
                       inputShape_[1], inputShape_[2], inputShape_[3]});
        calRng.fillNormal(cal.storage(), 0.0, 1.0);
    }

    // Plan cache resolution: the configured cache, else a build-local
    // one. A configured path loads before the build (a missing,
    // malformed, or stale-signature file simply re-probes) and saves
    // after it whenever the build added or refreshed plans. With
    // neither configured, the local cache is only a memo: each
    // distinct key races once, every later identical layer takes the
    // cache-hit path below, and nothing is saved.
    PlanCache local;
    PlanCache *cache = cfg.planCache ? cfg.planCache : &local;
    const bool memoOnly = !cfg.planCache && cfg_.planCachePath.empty();
    if (!cfg_.planCachePath.empty())
        cache->loadFile(cfg_.planCachePath);
    const std::uint64_t cacheRev0 = cache->revision();

    for (std::size_t i = 0; i < layers_.size(); ++i) {
        Layer &layer = layers_[i];

        // ConvEngine-auto policy membership is decided up front so
        // the shape seed can steer which variant is prepared first
        // (and wins near-ties): raced layers start on the variant the
        // layer's geometry suggests instead of blindly on the
        // configured one. The race still measures the full set, so
        // the seed is free when right and measured away when wrong.
        // Non-raced layers are untouched — without autoSelect every
        // layer reports the configured variant.
        const bool fpRace = layer.engine == ConvEngine::WinogradBlocked;
        const bool quantRace =
            layer.engine == ConvEngine::WinogradBlockedInt8;
        const bool raced =
            cfg.autoSelect && !pinned[i] && (fpRace || quantRace);
        if (raced)
            layer.variant = seededVariant(layer.desc, quantRace,
                                          cfg.quant.winogradBits);

        // The candidate set a race draws from — and the only cached
        // decisions (winner and table rows) a layer will adopt: a
        // foreign or corrupted cache entry (a quantized engine for an
        // FP layer, whose prepare() needs calibration the FP path
        // never built, or an int8 Winograd variant outside the
        // bitwidth model's envelope) is ignored and the layer
        // re-probed.
        const auto raceable = [&](ConvEngine e, WinoVariant v) {
            bool member;
            if (fpRace)
                member = e == ConvEngine::Im2col ||
                         e == ConvEngine::WinogradBlocked ||
                         (cfg.raceF16 &&
                          e == ConvEngine::WinogradBlockedF16);
            else
                member = e == ConvEngine::Im2colInt8 ||
                         (e == ConvEngine::WinogradBlockedInt8 &&
                          winoInt8Eligible(v, cfg.quant.winogradBits,
                                           layer.desc.cin));
            return member && registry.get(e)->supports(layer.desc);
        };

        // The raced layer's candidate table, as measured or cached:
        // the source of its decision margin.
        std::vector<PlanCache::Cand> table;

        // A cached (or memoized) decision applies a previously
        // measured plan — winner and candidate table — without
        // re-running the probe. It is adopted before prepare(), so
        // the layer is prepared once, with its own weights and
        // calibration.
        bool applied = false;
        std::string planKey;
        if (raced) {
            planKey = PlanCache::layerKey(layer.desc,
                                          cfg.autoSelectBatch, quantRace);
            // Keyed apart from plain races: a fused epilogue adds
            // work to the timed output write, and the f16 race has
            // a wider candidate set — reusing one key across these
            // policies would thrash the cache entry on every
            // alternating build.
            if (cfg.fuseEpilogues && layer.epilogue.active())
                planKey += ":fe";
            if (fpRace && cfg.raceF16)
                planKey += ":h";
            PlanCache::Decision hit;
            if (cache->lookup(planKey, &hit) &&
                raceable(hit.engine, hit.variant)) {
                layer.engine = hit.engine;
                layer.variant = hit.variant;
                layer.backend = registry.get(hit.engine);
                // Provenance travels with the cached plan so /statusz
                // can show why it won even though this layer never
                // probed.
                layer.planSource = memoOnly ? "memo" : "cache";
                layer.planProbeNs = hit.probeNs;
                layer.planCounters.cycles = hit.cycles;
                layer.planCounters.instructions = hit.instructions;
                layer.planCounters.cacheRefs = hit.cacheRefs;
                layer.planCounters.cacheMisses = hit.cacheMisses;
                layer.planCounters.valid =
                    hit.cycles != 0 || hit.instructions != 0;
                applied = true;
                obs::Registry::global()
                    .counter(memoOnly ? "autoselect.memo_hit"
                                      : "autoselect.cache_hit")
                    .inc();
                for (const PlanCache::Cand &cc : hit.table)
                    if (raceable(cc.engine, cc.variant))
                        table.push_back(cc);
            }
        }

        LayerBuild build;
        build.params = layer.params;
        build.variant = layer.variant;
        build.quant = cfg.quant;
        // Fused sessions fold the planned epilogue into the engine's
        // output write; unfused ones keep prepare() epilogue-free and
        // pay the separate passes in runInto.
        if (cfg.fuseEpilogues)
            build.epilogue = layer.epilogue;
        if (cfg.fuseEpilogues && layer.epilogue.active())
            obs::Registry::global()
                .counter("session.fused_epilogues")
                .inc();
        std::vector<TensorD> calSet;
        // Shared calibration statistics for every prepare() of this
        // layer: autoSelect races up to three quantized candidates,
        // and without the cache each one would redo the abs-max,
        // fake-quantization, and tap-maxima passes over the same
        // calibration set. Results are bit-identical with or without
        // it.
        CalibrationCache layerCal(&calSet);
        if (i < calEnd) {
            calSet.push_back(cal);
            build.calibration = &calSet;
            build.calCache = &layerCal;
        }
        layer.prepared =
            layer.backend->prepare(layer.desc, weights[i], build);
        twq_assert(layer.prepared, "backend returned no prepared state");

        // ConvEngine-auto policy: race this layer's assigned engine
        // against the rest of its candidate set, keeping the fastest
        // measured candidate — the policy picks engine and Winograd
        // variant together. FP Winograd layers race im2col and the
        // blocked FP engine under every Winograd variant (F2/F4/F6);
        // quantized Winograd layers race im2col-int8 and the blocked
        // int8 engine under each variant the bitwidth model's int8
        // eligibility gate admits (never F6) — never an FP engine,
        // which would silently drop the quantization the config asked
        // for. Blocked candidates are timed on a blocked probe — the
        // steady-state input layout propagation hands them inside a
        // blocked chain. Ineligible layers never reach here with a
        // raceable engine, so they always stay on their fallback.
        if (raced && !applied) {
            // Counts probed layers (cache misses, stale entries the
            // raceable() guard rejected, and first sightings of a
            // key in a cacheless build alike).
            obs::Registry::global()
                .counter("autoselect.cache_miss")
                .inc();
            // The contract a tuned plan cache is judged by: one tick
            // per layer whose candidate race actually ran in this
            // process. A cold build against a fully tuned cache reads
            // zero here.
            obs::Registry::global().counter("plan.probes").inc();
            TensorD probe({std::max<std::size_t>(cfg.autoSelectBatch, 1),
                           layer.desc.cin, layer.desc.height,
                           layer.desc.width});
            Rng probeRng(cfg.calibrationSeed ^ (0x9e3779b9ull + i));
            probeRng.fillNormal(probe.storage(), 0.0, 1.0);
            TensorD probeBlocked;
            ScratchArena probeArena;

            struct Candidate
            {
                ConvEngine engine;
                WinoVariant variant;
                std::shared_ptr<const ConvBackend> backend;
                std::shared_ptr<const PreparedLayer> prepared;
            };
            std::vector<Candidate> cands;
            cands.push_back({layer.engine, layer.variant, layer.backend,
                             layer.prepared});
            const auto addCandidate = [&](ConvEngine e, WinoVariant v) {
                if (e == cands[0].engine && v == cands[0].variant)
                    return; // already racing as the incumbent
                Candidate c;
                c.engine = e;
                c.variant = v;
                c.backend = registry.get(e);
                LayerBuild vbuild = build;
                vbuild.variant = v;
                c.prepared =
                    c.backend->prepare(layer.desc, weights[i], vbuild);
                cands.push_back(std::move(c));
            };
            if (fpRace) {
                for (WinoVariant v : kAllWinoVariants) {
                    addCandidate(ConvEngine::WinogradBlocked, v);
                    if (cfg.raceF16)
                        addCandidate(ConvEngine::WinogradBlockedF16, v);
                }
                addCandidate(ConvEngine::Im2col, cfg.variant);
            } else {
                // Variants outside the bitwidth model's int8 envelope
                // (F6 always — its transforms are not integer) never
                // enter the quantized race.
                for (WinoVariant v : kAllWinoVariants) {
                    if (!winoInt8Eligible(v, cfg.quant.winogradBits,
                                          layer.desc.cin))
                        continue;
                    addCandidate(ConvEngine::WinogradBlockedInt8, v);
                }
                addCandidate(ConvEngine::Im2colInt8, cfg.variant);
            }

            const auto probeFor =
                [&](const Candidate &c) -> const TensorD * {
                if (c.backend->inputLayout() != ActLayout::NCHWc8)
                    return &probe;
                if (probeBlocked.numel() == 0) {
                    probeBlocked = TensorD(blockedShape(probe.shape()));
                    nchwToBlocked(probe, probeBlocked);
                }
                return &probeBlocked;
            };
            // f16 candidates are timed on their native binary16 hot
            // path with a pre-narrowed probe — symmetric with blocked
            // candidates getting a blocked probe: steady-state
            // layout/storage propagation hands them halves inside an
            // f16 chain, and boundary conversions are a seam cost not
            // charged to the layer.
            TensorF16 probeHalf;
            const auto timeCand = [&](const Candidate &c,
                                      ScratchArena &arena) {
                if (!c.backend->f16Storage())
                    return timeBackendRun(*c.backend, *c.prepared,
                                          *probeFor(c), arena, 1);
                if (probeHalf.numel() == 0) {
                    const TensorD *pb = probeFor(c);
                    probeHalf = TensorF16(pb->shape());
                    tensorDToF16(*pb, probeHalf);
                }
                return timeBackendRunF16(*c.backend, *c.prepared,
                                         probeHalf, arena, 1);
            };
            // Interleaved rounds: timing the candidates back-to-back
            // would hand the last one warmed caches and a ramped-up
            // clock; round-robin rounds spread those drifts
            // symmetrically (timeBackendRun additionally precedes
            // every timed run with an untimed warmup). Every round is
            // kept for settleRace.
            std::vector<std::vector<std::uint64_t>> roundsNs(
                cands.size());
            // Hardware counters ride each probe run (a cheap
            // reset/enable ioctl pair when available, a no-op
            // otherwise); each candidate keeps the counters of its
            // best-time round, so the persisted provenance describes
            // the run that actually won.
            std::vector<std::uint64_t> bestNs(cands.size(),
                                              ~std::uint64_t{0});
            std::vector<obs::PerfCounters> bestC(cands.size());
            for (int round = 0; round < 3; ++round)
                for (std::size_t ci = 0; ci < cands.size(); ++ci) {
                    TWQ_SPAN_ARG("autoselect.probe",
                                 static_cast<std::int64_t>(ci));
                    obs::PerfScope perf;
                    const auto ns = static_cast<std::uint64_t>(
                        timeCand(cands[ci], probeArena) * 1e9);
                    const obs::PerfCounters pc = perf.stop();
                    roundsNs[ci].push_back(ns);
                    if (ns < bestNs[ci]) {
                        bestNs[ci] = ns;
                        bestC[ci] = pc;
                    }
                }
            const RaceVerdict verdict = settleRace(roundsNs);
            const std::size_t best = verdict.pick;
            obs::traceInstant("autoselect.pick",
                              static_cast<std::int64_t>(best));
            layer.engine = cands[best].engine;
            layer.variant = cands[best].variant;
            layer.backend = std::move(cands[best].backend);
            layer.prepared = std::move(cands[best].prepared);
            layer.planSource = "probed";
            layer.planProbeNs = bestNs[best];
            layer.planCounters = bestC[best];

            // Record the full table for the cache: every candidate
            // at the time settleRace charges it, in race order.
            for (std::size_t ci = 0; ci < cands.size(); ++ci)
                table.push_back({cands[ci].engine, cands[ci].variant,
                                 verdict.chargedNs[ci]});

            PlanCache::Decision d;
            d.engine = layer.engine;
            d.variant = layer.variant;
            d.probeNs = layer.planProbeNs;
            if (layer.planCounters.valid) {
                d.cycles = layer.planCounters.cycles;
                d.instructions = layer.planCounters.instructions;
                d.cacheRefs = layer.planCounters.cacheRefs;
                d.cacheMisses = layer.planCounters.cacheMisses;
            }
            d.table = table;
            cache->store(planKey, d);
        }

        // Decision margin from the recorded table: how far the
        // fastest other candidate trails the pick.
        if (table.size() > 1) {
            const PlanCache::Cand *pick = nullptr;
            std::uint64_t other = ~std::uint64_t{0};
            for (const PlanCache::Cand &c : table) {
                if (!pick && c.engine == layer.engine &&
                    c.variant == layer.variant)
                    pick = &c;
                else
                    other = std::min(other, c.ns);
            }
            if (pick && pick->ns > 0 && other != ~std::uint64_t{0})
                layer.planMarginPct =
                    100.0 *
                    (static_cast<double>(other) -
                     static_cast<double>(pick->ns)) /
                    static_cast<double>(pick->ns);
        }

        // Layout plan: read the final backend's contract once; the
        // serving loop converts only where consecutive layers
        // disagree.
        layer.layout = {layer.backend->inputLayout(),
                        layer.backend->outputLayout()};

        if (i + 1 < calEnd) {
            cal = conv2dIm2col(cal, weights[i], layer.params);
            // Downstream int8 layers must calibrate on the
            // activations they actually receive — bias and ReLU
            // included, whether fused or separate at run time.
            applyEpilogueNchw(cal, layer.epilogue);
        }
    }

    // Persist newly measured plans so the next build (a restarted
    // server, an identical replica) skips the probes entirely.
    if (!cfg_.planCachePath.empty() && cache->revision() != cacheRev0)
        cache->saveFile(cfg_.planCachePath);
}

Session::~Session()
{
    // writeJson disables tracing before draining the rings, so spans
    // racing the flush from still-live workers are simply cut off.
    if (traceArmed_)
        obs::TraceCollector::global().writeJson(cfg_.tracePath);
}

const ConvLayerDesc &
Session::layerDesc(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].desc;
}

ConvEngine
Session::layerEngine(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].engine;
}

WinoVariant
Session::layerVariant(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].variant;
}

const LayoutPlan &
Session::layerLayout(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].layout;
}

LayerPlanInfo
Session::layerPlan(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    const Layer &layer = layers_[i];
    LayerPlanInfo info;
    info.name = layer.desc.name;
    info.engine = layer.engine;
    info.variant = layer.variant;
    info.source = layer.planSource;
    info.probeNs = layer.planProbeNs;
    info.counters = layer.planCounters;
    info.marginPct = layer.planMarginPct;
    return info;
}

const Epilogue &
Session::layerEpilogue(std::size_t i) const
{
    twq_assert(i < layers_.size(), "layer index out of range");
    return layers_[i].epilogue;
}

void
Session::runInto(const TensorD &batch, ScratchArena &scratch,
                 const RunContext &ctx, TensorD &out) const
{
    twq_assert(batch.rank() == 4, "session input must be NCHW");
    twq_assert(batch.dim(1) == inputShape_[1] &&
                   batch.dim(2) == inputShape_[2] &&
                   batch.dim(3) == inputShape_[3],
               "request shape does not match the session's network");
    // Intermediate activations live in per-layer arena slots (written
    // by one layer, read by the next); the final layer writes into
    // the caller's buffer, so a steady stream of batches through
    // runInto reallocates nothing at all. Activations travel in each
    // backend's native layout: a conversion happens only where a
    // layer's input layout disagrees with its producer (the network's
    // NCHW ingress/egress included), so a chain of blocked layers
    // stays blocked end to end.
    const TensorD *cur = &batch;
    // Inside an f16-storage chain the live activation is `curH`
    // (binary16, NCHWc8) and `cur` is stale; everywhere else curH is
    // null. Consecutive f16 layers hand halves straight through —
    // that is the halved inter-layer activation bandwidth — and
    // conversions happen only at storage seams.
    const TensorF16 *curH = nullptr;
    ActLayout curLayout = ActLayout::NCHW;
    const std::size_t last = layers_.size() - 1;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Layer &layer = layers_[i];
        TWQ_SPAN(layer.spanName.c_str());
        // Per-layer latency histogram; the clock reads vanish in
        // TWQ_NO_OBS builds along with the stubbed record().
        [[maybe_unused]] std::chrono::steady_clock::time_point lt0;
        if constexpr (obs::kEnabled)
            lt0 = std::chrono::steady_clock::now();
        struct LayerTimer
        {
            const Layer &layer;
            std::chrono::steady_clock::time_point t0;
            ~LayerTimer()
            {
                if constexpr (obs::kEnabled) {
                    const auto ns = std::chrono::duration_cast<
                                        std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() -
                                        t0)
                                        .count();
                    layer.latency->record(
                        ns < 0 ? 0
                               : static_cast<std::uint64_t>(ns));
                }
            }
        } timer{layer, lt0};
        // A half activation feeding a non-f16 consumer widens back to
        // double first (the layout stays NCHWc8; any layout
        // conversion then proceeds as usual below).
        if (curH && !layer.backend->f16Storage()) {
            TWQ_SPAN("session.convert");
            TensorD &xw = scratch.tensor(layer.widen, curH->shape());
            tensorF16ToD(*curH, xw);
            cur = &xw;
            curH = nullptr;
        }
        if (!curH && layer.layout.in != curLayout) {
            TWQ_SPAN("session.convert");
            if (layer.layout.in == ActLayout::NCHWc8) {
                TensorD &xb = scratch.tensor(
                    layer.convert, blockedShape(cur->shape()));
                nchwToBlocked(*cur, xb);
                cur = &xb;
            } else {
                const Shape logical{cur->dim(0), layer.desc.cin,
                                    cur->dim(2), cur->dim(3)};
                TensorD &xn =
                    scratch.tensor(layer.convert, logical);
                blockedToNchw(*cur, xn);
                cur = &xn;
            }
            curLayout = layer.layout.in;
        }
        // Separate-pass epilogue (bias, then relu) when the session
        // was told not to fuse — the bit-identity baseline. The fused
        // path performs the same arithmetic inside the engine's
        // output write, saving these extra memory passes.
        const bool postPass =
            !cfg_.fuseEpilogues && layer.epilogue.active();
        if (layer.backend->f16Storage()) {
            const TensorF16 *inH = curH;
            if (!inH) {
                // Storage seam: narrow the (already blocked) double
                // activation to binary16 once at chain ingress.
                TWQ_SPAN("session.convert");
                TensorF16 &xh =
                    scratch.tensorF16(layer.convertH, cur->shape());
                tensorDToF16(*cur, xh);
                inH = &xh;
            }
            const Shape oshape = layer.backend->outputShape(
                *layer.prepared, inH->shape());
            TensorF16 &actH =
                scratch.tensorF16(layer.activationH, oshape);
            layer.backend->runF16(*layer.prepared, *inH, scratch, actH,
                                  ctx);
            if (postPass) {
                // Unfused baseline on a half activation: widen, apply
                // the element-wise passes in double, narrow back. The
                // extra round trip stays inside the engine's accuracy
                // gate (bit-identity is an FP32-engine contract; f16
                // is accuracy-gated).
                TWQ_SPAN("session.epilogue");
                TensorD &tmp = scratch.tensor(layer.widen, oshape);
                tensorF16ToD(actH, tmp);
                applyEpilogueBlocked(tmp, layer.desc.cout,
                                     layer.epilogue);
                tensorDToF16(tmp, actH);
            }
            if (i == last) {
                TWQ_SPAN("session.convert");
                TensorD &actD =
                    scratch.tensor(layer.activation, oshape);
                tensorF16ToD(actH, actD);
                twq_assert(out.rank() == 4 &&
                               blockedShape(out.shape()) == oshape,
                           "output tensor not pre-shaped for the batch");
                blockedToNchw(actD, out);
            } else {
                curH = &actH;
                curLayout = layer.layout.out;
            }
            continue;
        }
        const Shape oshape =
            layer.backend->outputShape(*layer.prepared, cur->shape());
        if (i == last) {
            if (layer.layout.out == ActLayout::NCHW) {
                twq_assert(out.shape() == oshape,
                           "output tensor not pre-shaped for the batch");
                layer.backend->run(*layer.prepared, *cur, scratch, out,
                                   ctx);
                if (postPass) {
                    TWQ_SPAN("session.epilogue");
                    applyEpilogueNchw(out, layer.epilogue);
                }
            } else {
                // Blocked final layer: produce into its arena slot,
                // then flatten once into the caller's NCHW buffer.
                TensorD &act = scratch.tensor(layer.activation, oshape);
                layer.backend->run(*layer.prepared, *cur, scratch, act,
                                   ctx);
                if (postPass) {
                    TWQ_SPAN("session.epilogue");
                    applyEpilogueBlocked(act, layer.desc.cout,
                                         layer.epilogue);
                }
                twq_assert(out.rank() == 4 &&
                               blockedShape(out.shape()) == oshape,
                           "output tensor not pre-shaped for the batch");
                TWQ_SPAN("session.convert");
                blockedToNchw(act, out);
            }
        } else {
            TensorD &act = scratch.tensor(layer.activation, oshape);
            layer.backend->run(*layer.prepared, *cur, scratch, act,
                               ctx);
            if (postPass) {
                TWQ_SPAN("session.epilogue");
                if (layer.layout.out == ActLayout::NCHW)
                    applyEpilogueNchw(act, layer.epilogue);
                else
                    applyEpilogueBlocked(act, layer.desc.cout,
                                         layer.epilogue);
            }
            cur = &act;
            curLayout = layer.layout.out;
        }
    }
}

TensorD
Session::run(const TensorD &batch, ScratchArena &scratch,
             const RunContext &ctx) const
{
    Shape oshape = outputShape_;
    oshape[0] = batch.dim(0);
    TensorD result(oshape);
    runInto(batch, scratch, ctx, result);
    return result;
}

TensorD
Session::run(const TensorD &batch, ScratchArena &scratch) const
{
    return run(batch, scratch, RunContext{});
}

TensorD
Session::run(const TensorD &batch) const
{
    ScratchArena arena;
    return run(batch, arena);
}

} // namespace twq
