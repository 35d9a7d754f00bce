/**
 * @file
 * Runtime-level tests for session layout propagation (the NCHWc8
 * blocked winograd engine end to end), the autoSelect layout race,
 * the serializable plan cache, and the P-sharded per-tap GEMMs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gemm/gemm.hh"
#include "layout/wino_blocked.hh"
#include "models/zoo.hh"
#include "runtime/server.hh"
#include "tensor/batch.hh"
#include "winograd/bitwidth.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace
{

TensorD
randomInput(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

TEST(LayoutPropagation, BlockedSessionMatchesIm2colReference)
{
    // width 4 exercises tail blocks (C % 8 != 0) on every layer.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig blockedCfg;
    blockedCfg.defaultEngine = ConvEngine::WinogradBlocked;
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session session(net, blockedCfg);
    const Session reference(net, refCfg);

    const TensorD input = randomInput(session.inputShape(), 42);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
}

TEST(LayoutPropagation, F6SessionsMatchIm2colEndToEnd)
{
    // F(6,3) end to end through the blocked session. Width 4 gives
    // 4x4 outputs — NOT a multiple of the 6-wide output tile — so
    // every layer runs masked partial tiles, the regime where a wrong
    // fractional B^T/A^T or a bad tail path would surface.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);
    const TensorD input = randomInput(reference.inputShape(), 99);
    const TensorD ref = reference.run(input);

    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    cfg.variant = WinoVariant::F6;
    const Session session(net, cfg);
    const TensorD y = session.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], ref[i], 1e-6) << "diverges at " << i;
}

TEST(LayoutPropagation, PlansBlockedChainWithNchwFallbacks)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    const Session session(microServeNet(8, 4), cfg);
    ASSERT_EQ(session.layerCount(), 5u);
    // stem + the two body layers are eligible: blocked in and out, so
    // the three-layer chain keeps its activations blocked.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::WinogradBlocked);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHWc8);
        EXPECT_EQ(session.layerLayout(i).out, ActLayout::NCHWc8);
    }
    // down (strided) and head (1x1) fall back to NCHW im2col.
    for (std::size_t i = 3; i < 5; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::Im2col);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHW);
        EXPECT_EQ(session.layerLayout(i).out, ActLayout::NCHW);
    }
}

TEST(LayoutPropagation, BatchedIsBitIdenticalToSequential)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    const Session session(microServeNet(8, 4), cfg);

    constexpr std::size_t kBatch = 4;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 800 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        const TensorD slice = sliceBatch(batched, i);
        EXPECT_TRUE(slice == alone)
            << "blocked batched element " << i
            << " differs from sequential execution";
    }
}

/** A chain of `depth` 3x3 convolutions, 16 channels at 8x8. */
NetworkDesc
convChain(std::size_t depth)
{
    ConvLayerDesc body;
    body.name = "body";
    body.cin = body.cout = 16;
    body.height = body.width = 8;
    body.repeat = depth;
    NetworkDesc n;
    n.name = "chain" + std::to_string(depth);
    n.inputRes = 8;
    n.layers.push_back(body);
    return n;
}

/** Expects plan source `first` on layer 0 of `s`, `rest` after it. */
void
expectSources(const Session &s, const char *first, const char *rest)
{
    for (std::size_t i = 0; i < s.layerCount(); ++i)
        EXPECT_STREQ(s.layerPlan(i).source, i == 0 ? first : rest)
            << "layer " << i;
}

TEST(LayoutPropagation, BlockedChainsShareOneTileSlotSet)
{
    // Every layer of a blocked chain runs its tile buffers through one
    // shared set of chunk-sized arena slots, so a chain two layers
    // deeper holds only those layers' own whole-tensor slots more:
    // the output activation, plus the quantized input (int8) or the
    // fp32 staging beside the half activation (f16).
    struct C
    {
        ConvEngine engine;
        std::size_t perLayer;
    };
    for (const C c : {C{ConvEngine::WinogradBlocked, 1},
                      C{ConvEngine::WinogradBlockedInt8, 2},
                      C{ConvEngine::WinogradBlockedF16, 2}}) {
        std::size_t live[2] = {};
        for (std::size_t i = 0; i < 2; ++i) {
            SessionConfig cfg;
            cfg.defaultEngine = c.engine;
            cfg.variant = WinoVariant::F4;
            const Session session(convChain(2 + 2 * i), cfg);
            ScratchArena arena;
            session.run(randomInput(session.inputShape(), 70), arena);
            live[i] = arena.slotCount();
        }
        EXPECT_EQ(live[1], live[0] + 2 * c.perLayer)
            << convEngineName(c.engine);
    }
}

TEST(LayoutPropagation, ServerResponsesAreBitIdentical)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlocked;
    auto session =
        std::make_shared<Session>(microServeNet(8, 4), cfg);

    constexpr std::size_t kRequests = 10;
    std::vector<TensorD> inputs;
    std::vector<TensorD> refs;
    for (std::size_t i = 0; i < kRequests; ++i) {
        inputs.push_back(randomInput(session->inputShape(), 900 + i));
        refs.push_back(session->run(inputs[i]));
    }

    RuntimeConfig rcfg;
    rcfg.threads = 2;
    rcfg.batch.maxBatch = 4;
    rcfg.batch.maxWait = std::chrono::microseconds(500);
    InferenceServer server(session, rcfg);
    std::vector<std::future<TensorD>> futures;
    for (const TensorD &in : inputs)
        futures.push_back(server.submit(in));
    for (std::size_t i = 0; i < kRequests; ++i) {
        const TensorD out = futures[i].get();
        EXPECT_TRUE(out == refs[i])
            << "blocked response " << i
            << " differs from sequential execution";
    }
    server.shutdown();
}

TEST(LayoutPropagation, AutoSelectOutputStaysCorrect)
{
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const Session session(net, cfg);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);

    const TensorD input = randomInput(session.inputShape(), 43);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
    // Whatever won the race, every eligible layer landed on an FP
    // engine and the ineligible tail stayed on im2col.
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::Im2col ||
                    e == ConvEngine::WinogradBlocked);
    }
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2col);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2col);
}

TEST(PlanCacheTest, AutoSelectPopulatesTheCache)
{
    PlanCache cache;
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    const NetworkDesc net = microServeNet(8, 4);
    const Session session(net, cfg);

    // stem and body share the cache across identical shapes; at least
    // the two distinct eligible shapes must be recorded.
    EXPECT_GE(cache.size(), 2u);
    for (const ConvLayerDesc &d : net.expandedLayers()) {
        if (!d.winogradEligible())
            continue;
        PlanCache::Decision dec;
        EXPECT_TRUE(cache.lookup(
            PlanCache::layerKey(d, cfg.autoSelectBatch), &dec))
            << "no cached plan for " << d.name;
    }
}

TEST(PlanCacheTest, CachedDecisionsAreHonoredWithoutMeasuring)
{
    const NetworkDesc net = microServeNet(8, 4);
    // Seed every eligible layer with a decision the measured race
    // would be very unlikely to produce uniformly (plain im2col under
    // F4): the session must adopt it verbatim, proving the lookup
    // short-circuits the probe.
    PlanCache cache;
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache.store(PlanCache::layerKey(d, cfg.autoSelectBatch),
                        {ConvEngine::Im2col, WinoVariant::F4});

    const Session session(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(session.layerEngine(i), ConvEngine::Im2col);
        EXPECT_EQ(session.layerVariant(i), WinoVariant::F4);
    }

    // A cached blocked decision carries the layout plan with it.
    PlanCache cache2;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache2.store(
                PlanCache::layerKey(d, cfg.autoSelectBatch),
                {ConvEngine::WinogradBlocked, WinoVariant::F2});
    cfg.planCache = &cache2;
    const Session blocked(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(blocked.layerEngine(i),
                  ConvEngine::WinogradBlocked);
        EXPECT_EQ(blocked.layerLayout(i).in, ActLayout::NCHWc8);
    }
}

TEST(PlanCacheTest, ForeignEngineEntriesAreIgnoredAndReprobed)
{
    // A corrupted / cross-version cache may name an engine the FP
    // race never produces (here: the quantized winograd engine, whose
    // prepare() needs calibration the FP path never built). The
    // session must ignore the entry and fall back to measuring
    // instead of dying in prepare().
    const NetworkDesc net = microServeNet(8, 4);
    PlanCache cache;
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCache = &cache;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache.store(PlanCache::layerKey(d, cfg.autoSelectBatch),
                        {ConvEngine::WinogradBlockedInt8,
                         WinoVariant::F2});

    const Session session(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::Im2col ||
                    e == ConvEngine::WinogradBlocked)
            << "foreign cache entry leaked into layer " << i;
    }
    // The re-probe overwrote the foreign entries with real decisions.
    PlanCache::Decision dec;
    ASSERT_TRUE(cache.lookup(
        PlanCache::layerKey(net.expandedLayers()[0],
                            cfg.autoSelectBatch),
        &dec));
    EXPECT_NE(dec.engine, ConvEngine::WinogradBlockedInt8);
}

/** A winner-only plan-cache entry (no candidate table). */
PlanCache::Decision
winnerOnly(ConvEngine engine, WinoVariant variant)
{
    PlanCache::Decision d;
    d.engine = engine;
    d.variant = variant;
    return d;
}

TEST(PlanCacheTest, OutOfEnvelopeInt8EntriesAreIgnoredAndReprobed)
{
    // A quantized plan the bitwidth model never admits (int8 Winograd
    // on F6, whose transforms are not integer) must not reach
    // prepare(): the cached winner is ignored and the layer re-probed,
    // and the same guard drops such rows from a cached candidate
    // table, so the layer's margin never counts them.
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    const auto eligible = [&](const Session &s, std::size_t i) {
        const ConvEngine e = s.layerEngine(i);
        if (e == ConvEngine::Im2colInt8)
            return true;
        return e == ConvEngine::WinogradBlockedInt8 &&
               winoInt8Eligible(s.layerVariant(i),
                                cfg.quant.winogradBits,
                                s.layerDesc(i).cin);
    };

    PlanCache cache;
    cfg.planCache = &cache;
    for (const ConvLayerDesc &d : net.expandedLayers())
        if (d.winogradEligible())
            cache.store(
                PlanCache::layerKey(d, cfg.autoSelectBatch, true),
                winnerOnly(ConvEngine::WinogradBlockedInt8,
                           WinoVariant::F6));
    const Session reprobed(net, cfg);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(eligible(reprobed, i))
            << "out-of-envelope plan leaked into layer " << i;
    // stem and the first body layer re-probe their two keys; the
    // second body layer then hits the fresh entry.
    EXPECT_STREQ(reprobed.layerPlan(0).source, "probed");
    EXPECT_STREQ(reprobed.layerPlan(1).source, "probed");
    EXPECT_STREQ(reprobed.layerPlan(2).source, "cache");
    PlanCache::Decision dec;
    ASSERT_TRUE(cache.lookup(
        PlanCache::layerKey(net.expandedLayers()[0],
                            cfg.autoSelectBatch, true),
        &dec));
    EXPECT_NE(dec.variant, WinoVariant::F6);

    // A valid winner whose table lists the same F6 row as the
    // cheapest candidate: the row is filtered, the layer keeps the
    // cached winner, and the one remaining row gives no margin.
    PlanCache tables;
    cfg.planCache = &tables;
    PlanCache::Decision d;
    d.engine = ConvEngine::Im2colInt8;
    d.variant = WinoVariant::F2;
    d.table = {{ConvEngine::WinogradBlockedInt8, WinoVariant::F6, 1},
               {ConvEngine::Im2colInt8, WinoVariant::F2, 1000}};
    for (const ConvLayerDesc &l : net.expandedLayers())
        if (l.winogradEligible())
            tables.store(
                PlanCache::layerKey(l, cfg.autoSelectBatch, true), d);
    const Session filtered(net, cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(filtered.layerEngine(i), ConvEngine::Im2colInt8);
        EXPECT_STREQ(filtered.layerPlan(i).source, "cache");
        EXPECT_FALSE(filtered.layerPlan(i).marginPct.has_value());
    }
}

TEST(PlanCacheTest, SerializeRoundTripsAndPersistsToDisk)
{
    PlanCache cache;
    cache.store("c64o64k3s1h16w16b8",
                {ConvEngine::WinogradBlocked, WinoVariant::F4});
    cache.store("c4o4k3s1h8w8b2q8",
                {ConvEngine::WinogradBlockedInt8, WinoVariant::F2});
    cache.store("c3o4k3s1h8w8b2", {ConvEngine::Im2col, WinoVariant::F2});

    const std::string text = cache.serialize();
    PlanCache parsed;
    ASSERT_TRUE(parsed.deserialize(text));
    EXPECT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed.serialize(), text);
    PlanCache::Decision dec;
    ASSERT_TRUE(parsed.lookup("c64o64k3s1h16w16b8", &dec));
    EXPECT_EQ(dec.engine, ConvEngine::WinogradBlocked);
    EXPECT_EQ(dec.variant, WinoVariant::F4);

    EXPECT_FALSE(parsed.deserialize("not a plan cache"));

    const std::string path =
        ::testing::TempDir() + "/twq_plan_cache_test.txt";
    ASSERT_TRUE(cache.saveFile(path));
    ASSERT_TRUE(cache.saveFile(path)); // replaces the existing file
    PlanCache loaded;
    ASSERT_TRUE(loaded.loadFile(path));
    EXPECT_EQ(loaded.serialize(), text);
    std::remove(path.c_str());
    EXPECT_FALSE(loaded.loadFile(path + ".missing"));

    // The save goes through a temporary file renamed over the path:
    // none is left behind, and a failed save leaves none either.
    EXPECT_FALSE(cache.saveFile(::testing::TempDir() +
                                "/twq_no_such_dir/plan_cache.txt"));
    for (const auto &e :
         std::filesystem::directory_iterator(::testing::TempDir()))
        EXPECT_NE(e.path().filename().string().rfind(
                      "twq_plan_cache_test.txt.", 0),
                  0u)
            << "leftover temporary file " << e.path();
}

/** The serialized entry lines of `c` (header dropped). */
std::vector<std::string>
entryLines(const PlanCache &c)
{
    std::istringstream in(c.serialize());
    std::vector<std::string> lines;
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(PlanCacheTest, TornFilesNeverLoadAChangedEntry)
{
    // A reader racing a writer can see any prefix of the file. Cut a
    // multi-entry cache at every byte: each cut either is rejected
    // with the cache unchanged, or it merges only entries equal field
    // for field to the originals (a serialized line is all of an
    // entry's fields).
    PlanCache source;
    PlanCache::Decision fp;
    fp.engine = ConvEngine::WinogradBlocked;
    fp.variant = WinoVariant::F4;
    fp.probeNs = 182340;
    fp.cycles = 812345;
    fp.table = {{ConvEngine::Im2col, WinoVariant::F2, 401200},
                {ConvEngine::WinogradBlocked, WinoVariant::F4, 182340}};
    source.store("c64o64k3s1h16w16b8", fp);
    PlanCache::Decision q;
    q.engine = ConvEngine::Im2colInt8;
    q.variant = WinoVariant::F2;
    q.probeNs = 5120;
    q.table = {{ConvEngine::WinogradBlockedInt8, WinoVariant::F2, 6000},
               {ConvEngine::Im2colInt8, WinoVariant::F2, 5120}};
    source.store("c16o16k3s1h32w32b8q8", q);
    source.store("c3o4k3s1h8w8b2",
                 winnerOnly(ConvEngine::Im2col, WinoVariant::F2));
    const std::string text = source.serialize();
    const std::vector<std::string> originals = entryLines(source);

    for (std::size_t cut = 0; cut < text.size(); ++cut) {
        PlanCache cache;
        cache.store("resident",
                    winnerOnly(ConvEngine::WinogradBlocked,
                               WinoVariant::F2));
        const std::string before = cache.serialize();
        if (!cache.deserialize(text.substr(0, cut))) {
            EXPECT_EQ(cache.serialize(), before) << "cut at " << cut;
            continue;
        }
        for (const std::string &line : entryLines(cache)) {
            if (line.rfind("resident ", 0) == 0)
                continue;
            EXPECT_NE(std::find(originals.begin(), originals.end(),
                                line),
                      originals.end())
                << "cut at " << cut << " loaded a changed entry: "
                << line;
        }
    }
}

TEST(PlanCacheTest, V5RoundTripsTheCandidateTable)
{
    // A v5 entry is the winner, its provenance and the full candidate
    // table (F6 included), with no other fields; all of it survives
    // serialize/deserialize byte for byte.
    PlanCache cache;
    PlanCache::Decision d;
    d.engine = ConvEngine::WinogradBlocked;
    d.variant = WinoVariant::F6;
    d.probeNs = 182340;
    d.table = {{ConvEngine::Im2col, WinoVariant::F2, 401200},
               {ConvEngine::WinogradBlocked, WinoVariant::F4, 240100},
               {ConvEngine::WinogradBlocked, WinoVariant::F6, 182340}};
    cache.store("c64o64k3s1h16w16b8", d);

    const std::string text = cache.serialize();
    EXPECT_EQ(text, "twq-plan-cache v5 " + PlanCache::signature() +
                        "\nc64o64k3s1h16w16b8 winograd-blocked F6 "
                        "182340 0 0 0 0 3 im2col F2 401200 "
                        "winograd-blocked F4 240100 winograd-blocked "
                        "F6 182340\n");
    PlanCache parsed;
    ASSERT_TRUE(parsed.deserialize(text));
    EXPECT_EQ(parsed.serialize(), text);
    PlanCache::Decision back;
    ASSERT_TRUE(parsed.lookup("c64o64k3s1h16w16b8", &back));
    EXPECT_EQ(back.variant, WinoVariant::F6);
    ASSERT_EQ(back.table.size(), 3u);
    EXPECT_EQ(back.table[1].engine, ConvEngine::WinogradBlocked);
    EXPECT_EQ(back.table[1].variant, WinoVariant::F4);
    EXPECT_EQ(back.table[1].ns, 240100u);

    // A truncated line (table promises more candidates than it
    // carries) is malformed, not merged.
    const std::string truncated =
        "twq-plan-cache v5 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 1 0 0 0 0 "
        "2 im2col F2 5\n";
    EXPECT_FALSE(parsed.deserialize(truncated));
    EXPECT_EQ(parsed.serialize(), text);
}

TEST(PlanCacheTest, StaleV3AndV4FilesAreRejectedWithoutDamage)
{
    // v3 predates the F6 candidate; v4 entries carry layout-
    // conversion costs and rank engines that no longer serve. The
    // header check must refuse either outright and leave existing
    // in-memory plans untouched (the affected layers re-probe).
    PlanCache cache;
    cache.store("keep", {ConvEngine::WinogradBlocked, WinoVariant::F2});
    const std::string v3 =
        "twq-plan-cache v3 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 182340 0 0 0 0\n";
    const std::string v4 =
        "twq-plan-cache v4 " + PlanCache::signature() +
        "\nc64o64k3s1h16w16b8 winograd-blocked F4 182340 0 0 0 0 "
        "9120 8770 9050 8990 2 winograd-fp32 F4 240100 "
        "winograd-blocked F4 182340\n";
    for (const std::string &stale : {v3, v4}) {
        EXPECT_FALSE(cache.deserialize(stale));
        EXPECT_EQ(cache.size(), 1u);
        PlanCache::Decision d;
        EXPECT_FALSE(cache.lookup("c64o64k3s1h16w16b8", &d));
        EXPECT_TRUE(cache.lookup("keep", &d));
    }
}

TEST(PlanCacheTest, StaleV4FileIsReprobedAndRewrittenAsV5)
{
    // A session pointed at a v4 file ignores it, races every key
    // and saves a v5 file over it.
    const NetworkDesc net = convChain(2);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.planCachePath = ::testing::TempDir() + "/twq_plan_cache_v4.txt";
    const std::string key =
        PlanCache::layerKey(net.expandedLayers()[0], cfg.autoSelectBatch);
    {
        std::FILE *f = std::fopen(cfg.planCachePath.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fprintf(f,
                     "twq-plan-cache v4 %s\n%s im2col F2 1 0 0 0 0 "
                     "0 0 0 0 0\n",
                     PlanCache::signature().c_str(), key.c_str());
        std::fclose(f);
    }
    const Session session(net, cfg);
    expectSources(session, "probed", "cache");
    PlanCache loaded;
    ASSERT_TRUE(loaded.loadFile(cfg.planCachePath));
    PlanCache::Decision d;
    ASSERT_TRUE(loaded.lookup(key, &d));
    EXPECT_EQ(d.table.size(), 4u);
    std::remove(cfg.planCachePath.c_str());
}

TEST(SinglePathPlanner, RacesOneEnginePerPrecisionAtEveryVariant)
{
    // The candidate tables a race records, no timing involved: an FP
    // layer races im2col and the blocked engine at F2, F4 and F6; a
    // 16-channel quantized layer races im2col-int8 and blocked int8
    // at the two variants the bitwidth model admits.
    const NetworkDesc net = convChain(1);
    const ConvLayerDesc &d = net.layers[0];
    ASSERT_EQ(d.cin, 16u);
    const auto recorded = [&](ConvEngine engine, bool quantized) {
        PlanCache cache;
        SessionConfig cfg;
        cfg.defaultEngine = engine;
        cfg.autoSelect = true;
        cfg.autoSelectBatch = 2;
        cfg.planCache = &cache;
        const Session session(net, cfg);
        PlanCache::Decision dec;
        EXPECT_TRUE(cache.lookup(
            PlanCache::layerKey(d, cfg.autoSelectBatch, quantized),
            &dec));
        std::multiset<std::string> rows;
        for (const PlanCache::Cand &c : dec.table)
            rows.insert(c.engine == ConvEngine::Im2col ||
                                c.engine == ConvEngine::Im2colInt8
                            ? std::string(convEngineName(c.engine))
                            : std::string(convEngineName(c.engine)) +
                                  " " + winoName(c.variant));
        return rows;
    };
    EXPECT_EQ(recorded(ConvEngine::WinogradBlocked, false),
              (std::multiset<std::string>{
                  "im2col", "winograd-blocked F2", "winograd-blocked F4",
                  "winograd-blocked F6"}));
    EXPECT_EQ(recorded(ConvEngine::WinogradBlockedInt8, true),
              (std::multiset<std::string>{"im2col-int8",
                                          "winograd-blocked-int8 F2",
                                          "winograd-blocked-int8 F4"}));
}

TEST(PlanCacheTest, TunedCacheBuildsWithZeroProbes)
{
    // The offline-tuning contract (tools/tune --verify asserts the
    // same thing from the CLI): a session built cold against a fully
    // populated cache runs ZERO live candidate races — the
    // plan.probes counter does not move and every raced layer
    // reports plan source "cache".
    const NetworkDesc net = microServeNet(8, 4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    PlanCache cache;
    cfg.planCache = &cache;
    { const Session tuning(net, cfg); } // populates the cache
    ASSERT_GT(cache.size(), 0u);

    auto &probes = obs::Registry::global().counter("plan.probes");
    const std::uint64_t before = probes.value();
    const Session cold(net, cfg);
    if constexpr (obs::kEnabled)
        EXPECT_EQ(probes.value(), before)
            << "tuned build ran a live probe";
    for (std::size_t i = 0; i < cold.layerCount(); ++i)
        EXPECT_STRNE(cold.layerPlan(i).source, "probed")
            << "layer " << i << " was probed despite a tuned cache";
    // The cache engaged (this net has raced layers).
    bool anyCached = false;
    for (std::size_t i = 0; i < cold.layerCount(); ++i)
        anyCached |=
            std::string(cold.layerPlan(i).source) == "cache";
    EXPECT_TRUE(anyCached);
}

TEST(PlanMemo, IdenticalLayersRaceOnce)
{
    // Four identical layers share one plan key: a cacheless build
    // races the first and adopts its outcome for the other three.
    const NetworkDesc net = convChain(4);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    auto &probes = obs::Registry::global().counter("plan.probes");
    auto &memoHits =
        obs::Registry::global().counter("autoselect.memo_hit");
    auto &cacheHits =
        obs::Registry::global().counter("autoselect.cache_hit");
    const std::uint64_t p0 = probes.value();
    const std::uint64_t m0 = memoHits.value();
    const std::uint64_t c0 = cacheHits.value();
    const Session session(net, cfg);
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(probes.value() - p0, 1u);
        EXPECT_EQ(memoHits.value() - m0, 3u);
        EXPECT_EQ(cacheHits.value(), c0);
    }
    expectSources(session, "probed", "memo");
    for (std::size_t i = 1; i < session.layerCount(); ++i) {
        EXPECT_EQ(session.layerEngine(i), session.layerEngine(0));
        EXPECT_EQ(session.layerVariant(i), session.layerVariant(0));
        // The memo hit carries the race's provenance and table.
        EXPECT_EQ(session.layerPlan(i).probeNs,
                  session.layerPlan(0).probeNs);
        EXPECT_EQ(session.layerPlan(i).marginPct,
                  session.layerPlan(0).marginPct);
    }

    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);
    const TensorD input = randomInput(session.inputShape(), 4321);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-6);
}

TEST(PlanMemo, MemoDiesWithTheBuild)
{
    // The memo is build-local: a second cacheless build races again.
    const NetworkDesc net = convChain(2);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    auto &probes = obs::Registry::global().counter("plan.probes");
    for (int build = 0; build < 2; ++build) {
        const std::uint64_t before = probes.value();
        const Session session(net, cfg);
        if constexpr (obs::kEnabled) {
            EXPECT_EQ(probes.value() - before, 1u) << "build " << build;
        }
        expectSources(session, "probed", "memo");
    }
}

TEST(PlanMemo, ConfiguredCacheStoresEveryKeyAndSaves)
{
    // A configured cache keeps its role: it records the key, later
    // identical layers hit it as "cache" (never "memo"), and a
    // planCachePath build persists it for the next process.
    const NetworkDesc net = convChain(3);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    PlanCache cache;
    cfg.planCache = &cache;
    auto &memoHits =
        obs::Registry::global().counter("autoselect.memo_hit");
    const std::uint64_t m0 = memoHits.value();
    const Session shared(net, cfg);
    EXPECT_EQ(cache.size(), 1u);
    PlanCache::Decision dec;
    EXPECT_TRUE(cache.lookup(
        PlanCache::layerKey(net.expandedLayers()[0],
                            cfg.autoSelectBatch),
        &dec));
    expectSources(shared, "probed", "cache");
    EXPECT_EQ(memoHits.value(), m0);

    const std::string path =
        ::testing::TempDir() + "/twq_plan_memo_test.txt";
    std::remove(path.c_str());
    cfg.planCache = nullptr;
    cfg.planCachePath = path;
    const Session saving(net, cfg);
    expectSources(saving, "probed", "cache");
    PlanCache loaded;
    ASSERT_TRUE(loaded.loadFile(path));
    EXPECT_EQ(loaded.size(), 1u);

    auto &probes = obs::Registry::global().counter("plan.probes");
    const std::uint64_t before = probes.value();
    const Session reloaded(net, cfg);
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(probes.value(), before);
    }
    expectSources(reloaded, "cache", "cache");
    std::remove(path.c_str());
}

TEST(SettleRace, ClearWinnerWinsWhereverItRaces)
{
    // Nobody comes within the leader's second-best round: the leader
    // wins from any position and every row keeps its own best round.
    const std::vector<std::uint64_t> fast = {100, 102, 101};
    const std::vector<std::uint64_t> slowA = {150, 140, 160};
    const std::vector<std::uint64_t> slowB = {300, 290, 310};
    for (std::ptrdiff_t at = 0; at < 3; ++at) {
        std::vector<std::vector<std::uint64_t>> rounds = {slowA, slowB};
        rounds.insert(rounds.begin() + at, fast);
        std::vector<std::uint64_t> charged = {140, 290};
        charged.insert(charged.begin() + at, 100);
        const RaceVerdict v = settleRace(rounds);
        EXPECT_EQ(v.pick, static_cast<std::size_t>(at));
        EXPECT_EQ(v.chargedNs, charged);
    }
}

TEST(SettleRace, NearTieGoesToTheFirstInRaceOrder)
{
    // The leader's best is 100 and its second-best 104; a candidate
    // whose best round is 103 ties it.
    const std::vector<std::uint64_t> leader = {100, 104, 130};
    const std::vector<std::uint64_t> near = {103, 110, 112};
    const std::vector<std::uint64_t> far = {150, 155, 151};

    RaceVerdict v = settleRace({near, far, leader});
    EXPECT_EQ(v.pick, 0u);
    EXPECT_EQ(v.chargedNs, (std::vector<std::uint64_t>{100, 150, 100}));

    // Raced after the leader, the same candidate loses to it.
    v = settleRace({leader, far, near});
    EXPECT_EQ(v.pick, 0u);
    EXPECT_EQ(v.chargedNs, (std::vector<std::uint64_t>{100, 150, 100}));

    // Exactly at the bar still ties; one nanosecond over does not.
    v = settleRace({{104, 120, 120}, leader});
    EXPECT_EQ(v.pick, 0u);
    v = settleRace({{105, 120, 120}, leader});
    EXPECT_EQ(v.pick, 1u);
    EXPECT_EQ(v.chargedNs, (std::vector<std::uint64_t>{105, 100}));
}

TEST(SettleRace, OneSlowRoundDoesNotWidenTheTie)
{
    // A preempted round on the leader (500) is ignored: the bar is
    // its second-best round (101), so 102 does not tie.
    const std::vector<std::uint64_t> leader = {100, 500, 101};
    const std::vector<std::uint64_t> close = {102, 103, 104};
    RaceVerdict v = settleRace({close, leader});
    EXPECT_EQ(v.pick, 1u);
    EXPECT_EQ(v.chargedNs, (std::vector<std::uint64_t>{102, 100}));

    // Two slow rounds do widen it: the leader's own spread is then
    // real, and the earlier candidate takes the tie.
    v = settleRace({close, {100, 500, 400}});
    EXPECT_EQ(v.pick, 0u);
    EXPECT_EQ(v.chargedNs, (std::vector<std::uint64_t>{100, 100}));
}

/** One FP Winograd-eligible 8-channel 3x3 layer at 8x8. */
NetworkDesc
oneLayerNet()
{
    ConvLayerDesc d;
    d.name = "one";
    d.cin = d.cout = 8;
    d.height = d.width = 8;
    NetworkDesc n;
    n.name = "OneLayer";
    n.inputRes = 8;
    n.layers.push_back(d);
    return n;
}

TEST(SettleRace, TiedRowsChargeTheLeader)
{
    // Blocked F4 races first and ties the blocked F2 leader. The
    // table records both at the leader's time, so a cached build of
    // it reports the race's pick with a margin of 0 and the pick's
    // own best round as its probe time.
    const RaceVerdict v = settleRace({{103, 110, 112}, {100, 104, 130}});
    ASSERT_EQ(v.pick, 0u);
    const NetworkDesc net = oneLayerNet();
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    PlanCache cache;
    cfg.planCache = &cache;
    PlanCache::Decision d;
    d.engine = ConvEngine::WinogradBlocked;
    d.variant = WinoVariant::F4;
    d.probeNs = 103;
    d.table = {
        {ConvEngine::WinogradBlocked, WinoVariant::F4, v.chargedNs[0]},
        {ConvEngine::WinogradBlocked, WinoVariant::F2, v.chargedNs[1]}};
    cache.store(PlanCache::layerKey(net.layers[0], cfg.autoSelectBatch),
                d);
    const Session s(net, cfg);
    const LayerPlanInfo settled = s.layerPlan(0);
    EXPECT_EQ(settled.engine, ConvEngine::WinogradBlocked);
    EXPECT_EQ(settled.variant, WinoVariant::F4);
    ASSERT_TRUE(settled.marginPct.has_value());
    EXPECT_EQ(*settled.marginPct, 0.0);
    EXPECT_EQ(settled.probeNs, 103u) << "probe_ns is the pick's own";
}

TEST(PlanMargin, ComesFromTheRecordedTable)
{
    // Synthetic tables through a cache, no timing: the margin is
    // 100 x (fastest other - pick) / pick over the recorded table.
    const NetworkDesc net = oneLayerNet();
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    PlanCache cache;
    cfg.planCache = &cache;
    PlanCache::Decision d;
    d.engine = ConvEngine::WinogradBlocked;
    d.variant = WinoVariant::F2;
    d.table = {{ConvEngine::WinogradBlocked, WinoVariant::F4, 100000},
               {ConvEngine::WinogradBlocked, WinoVariant::F2, 90000},
               {ConvEngine::Im2col, WinoVariant::F2, 400000}};
    const std::string key =
        PlanCache::layerKey(net.layers[0], cfg.autoSelectBatch);
    cache.store(key, d);
    const Session picked(net, cfg);
    ASSERT_TRUE(picked.layerPlan(0).marginPct.has_value());
    EXPECT_NEAR(*picked.layerPlan(0).marginPct, 100.0 * 10 / 90, 1e-9);

    // Winner-only entries and layers that never raced have none.
    cache.store(key,
                winnerOnly(ConvEngine::WinogradBlocked, WinoVariant::F2));
    const Session winnerOnly(net, cfg);
    EXPECT_FALSE(winnerOnly.layerPlan(0).marginPct.has_value());
    const Session pinned(net, SessionConfig{});
    EXPECT_FALSE(pinned.layerPlan(0).marginPct.has_value());
}

TEST(PShardedTapGemm, GemmColsIsBitIdenticalToWholeGemm)
{
    const std::size_t m = 13, k = 37, n = 300;
    const TensorD a = randomInput({m, k}, 1000);
    const TensorD b = randomInput({k, n}, 1001);
    TensorD whole({m, n});
    gemm::gemm(a.data(), b.data(), whole.data(), m, k, n);

    TensorD split({m, n});
    // Uneven thirds, including a non-multiple-of-kNr boundary.
    const std::size_t cuts[] = {0, 100, 171, n};
    for (std::size_t s = 0; s + 1 < 4; ++s) {
        const std::size_t j0 = cuts[s];
        gemm::gemmCols(a.data(), b.data() + j0, split.data() + j0, m,
                       k, cuts[s + 1] - j0, n, n);
    }
    EXPECT_TRUE(split == whole);
}

TEST(PShardedTapGemm, ParallelMatchesSerialBitExact)
{
    // 16 taps against 17 lanes: colShards > 1, so this exercises the
    // tap x P-block grid, not just tap sharding.
    ThreadPool pool(16);
    PoolRunner runner(pool, pool.size());

    const std::size_t cin = 24, cout = 24;
    const TensorD x = randomInput({4, cin, 16, 16}, 1100);
    const TensorD w = randomInput({cout, cin, 3, 3}, 1101);
    const WinogradTapWeights<double> taps =
        winogradPrepareTapWeights(w, WinoVariant::F2);

    TensorD V, U;
    winogradScatter(x, WinoVariant::F2, 1, V, U);

    TensorD mSerial, mParallel;
    winogradTapGemm(taps, U, mSerial);
    winogradTapGemm(taps, U, mParallel, &runner);
    EXPECT_TRUE(mParallel == mSerial)
        << "P-sharded NCHW tap GEMM differs from serial";

    // Same claim for the blocked-layout tap GEMM.
    const BlockedTapWeights bw = blockedTapWeights(taps);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);
    TensorD Vb;
    winogradGatherTilesBlocked(xb, WinoVariant::F2, 1, Vb);
    TensorD mbSerial, mbParallel;
    winogradTapGemmBlocked(bw, Vb, mbSerial);
    winogradTapGemmBlocked(bw, Vb, mbParallel, &runner);
    EXPECT_TRUE(mbParallel == mbSerial)
        << "P-sharded blocked tap GEMM differs from serial";

    pool.shutdown();
}

} // namespace
} // namespace twq
