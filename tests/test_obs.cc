/**
 * @file
 * Observability subsystem tests: histogram quantiles against an exact
 * sorted-sample oracle (bucket edges included), multi-threaded
 * counter/histogram merge determinism, trace JSON schema validity
 * (parses, spans nest, lanes match workers), zero allocations on the
 * disabled hot path, agreement between the server's histogram view
 * and client-side measurements, the shared-calibration pass counter,
 * and the thread-safe rate-limited logging sink.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "models/zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "quant/calibration.hh"
#include "quant/int_winograd.hh"
#include "runtime/server.hh"

// ------------------------------------------------- allocation probe
// Counts every global operator new in the test binary so the
// disabled-path test can assert the obs hot path allocates nothing.
namespace
{
std::atomic<std::size_t> gAllocCount{0};
} // namespace

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace twq
{
namespace
{

// ------------------------------------------------------- histograms

TEST(ObsHistogram, BinIndexEdges)
{
    using HS = obs::HistogramSnapshot;
    EXPECT_EQ(HS::binIndex(0), 0u);
    EXPECT_EQ(HS::binIndex(1), 0u);
    EXPECT_EQ(HS::binIndex(2), 1u);
    EXPECT_EQ(HS::binIndex(3), 1u);
    EXPECT_EQ(HS::binIndex(4), 2u);
    for (std::size_t b = 1; b < 63; ++b) {
        const std::uint64_t lo = std::uint64_t{1} << b;
        EXPECT_EQ(HS::binIndex(lo - 1), b - 1);
        EXPECT_EQ(HS::binIndex(lo), b);
        EXPECT_EQ(HS::binIndex(lo + 1), b);
        EXPECT_EQ(HS::binLower(b), lo);
        EXPECT_EQ(HS::binUpper(b), lo << 1);
    }
    EXPECT_EQ(HS::binIndex(~std::uint64_t{0}), 63u);
    EXPECT_EQ(HS::binUpper(63), ~std::uint64_t{0});
}

/**
 * The histogram quantile must land inside the bucket that holds the
 * exact nearest-rank sample — i.e. within one bucket width (a factor
 * of 2) of the true value, for any quantile and any sample set.
 */
void
checkQuantilesAgainstOracle(const std::vector<std::uint64_t> &samples)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::Histogram h;
    for (std::uint64_t v : samples)
        h.record(v);
    const obs::HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, samples.size());

    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        // Nearest rank, the same convention as twq::percentile.
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        rank = std::clamp<std::size_t>(rank, 1, sorted.size());
        const std::uint64_t exact = sorted[rank - 1];
        const std::size_t bin = obs::HistogramSnapshot::binIndex(exact);
        const double got = s.quantile(q);
        EXPECT_GE(got, static_cast<double>(
                           obs::HistogramSnapshot::binLower(bin)))
            << "q=" << q << " exact=" << exact;
        EXPECT_LE(got, static_cast<double>(
                           obs::HistogramSnapshot::binUpper(bin)))
            << "q=" << q << " exact=" << exact;
    }
}

TEST(ObsHistogram, QuantileVsOracleUniform)
{
    std::vector<std::uint64_t> samples;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 5000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push_back(x % 1000000);
    }
    checkQuantilesAgainstOracle(samples);
}

TEST(ObsHistogram, QuantileVsOracleBucketEdges)
{
    // Exact powers of two sit on bucket lower edges; +-1 neighbors
    // stress the off-by-one directions of the bin walk.
    std::vector<std::uint64_t> samples{0, 1, 1, 2, 3, 4, 7, 8, 9};
    for (std::size_t b = 4; b < 20; ++b) {
        const std::uint64_t lo = std::uint64_t{1} << b;
        samples.push_back(lo - 1);
        samples.push_back(lo);
        samples.push_back(lo + 1);
    }
    checkQuantilesAgainstOracle(samples);
}

TEST(ObsHistogram, QuantileVsOracleSkewed)
{
    // A latency-shaped distribution: a tight body and a long tail.
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 900; ++i)
        samples.push_back(50000 + static_cast<std::uint64_t>(i) * 37);
    for (int i = 0; i < 100; ++i)
        samples.push_back(2000000 +
                          static_cast<std::uint64_t>(i) * 100000);
    checkQuantilesAgainstOracle(samples);
}

TEST(ObsHistogram, MergeEqualsCombinedRecording)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::Histogram a, b, both;
    for (std::uint64_t v = 1; v < 4000; v += 3) {
        a.record(v);
        both.record(v);
    }
    for (std::uint64_t v = 10; v < 90000; v += 7) {
        b.record(v * v % 70001);
        both.record(v * v % 70001);
    }
    obs::HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    const obs::HistogramSnapshot expect = both.snapshot();
    EXPECT_EQ(merged.bins, expect.bins);
    EXPECT_EQ(merged.count, expect.count);
    EXPECT_EQ(merged.sum, expect.sum);
}

/**
 * Concurrent recording is exactly additive: a multi-threaded fill
 * must produce bit-identical bins/count/sum to the same values
 * recorded sequentially, and concurrent counter increments must not
 * lose updates.
 */
TEST(ObsHistogram, MultiThreadMergeDeterminism)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    obs::Histogram shared, sequential;
    obs::Counter counter;

    const auto valueOf = [](int t, int i) {
        return static_cast<std::uint64_t>(t * 1000003 + i * 17 + 1);
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                shared.record(valueOf(t, i));
                counter.inc();
            }
        });
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            sequential.record(valueOf(t, i));

    const obs::HistogramSnapshot got = shared.snapshot();
    const obs::HistogramSnapshot expect = sequential.snapshot();
    EXPECT_EQ(got.bins, expect.bins);
    EXPECT_EQ(got.count, expect.count);
    EXPECT_EQ(got.sum, expect.sum);
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

/**
 * Sharded recording (one histogram per thread, merged afterwards —
 * the server's per-worker pattern) must preserve the quantile
 * guarantee: merged quantiles stay within one bucket width of the
 * exact nearest-rank oracle over ALL threads' samples.
 */
TEST(ObsHistogram, ConcurrentShardMergeQuantilesWithinOneBucket)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    constexpr int kThreads = 8;
    constexpr int kPerThread = 4000;
    obs::Histogram shards[kThreads];

    // Latency-shaped per-thread streams: tight body, long tail, with
    // thread-dependent skew so shards genuinely differ.
    const auto valueOf = [](int t, int i) -> std::uint64_t {
        const std::uint64_t base = 40000 + t * 11000 + i * 13;
        return (i % 97 == 0) ? base * 50 : base;
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                shards[t].record(valueOf(t, i));
        });
    for (auto &th : threads)
        th.join();

    obs::HistogramSnapshot merged = shards[0].snapshot();
    for (int t = 1; t < kThreads; ++t)
        merged.merge(shards[t].snapshot());
    std::vector<std::uint64_t> sorted;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            sorted.push_back(valueOf(t, i));
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(merged.count, sorted.size());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        rank = std::clamp<std::size_t>(rank, 1, sorted.size());
        const std::uint64_t exact = sorted[rank - 1];
        const std::size_t bin =
            obs::HistogramSnapshot::binIndex(exact);
        const double got = merged.quantile(q);
        EXPECT_GE(got, static_cast<double>(
                           obs::HistogramSnapshot::binLower(bin)))
            << "q=" << q;
        EXPECT_LE(got, static_cast<double>(
                           obs::HistogramSnapshot::binUpper(bin)))
            << "q=" << q;
    }
}

// --------------------------------------------------------- registry

TEST(ObsRegistry, StableReferencesAndSnapshot)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::Registry reg;
    obs::Counter &c1 = reg.counter("reg.test_counter");
    obs::Counter &c2 = reg.counter("reg.test_counter");
    EXPECT_EQ(&c1, &c2); // same name, same metric
    c1.inc(41);
    c2.inc();
    reg.gauge("reg.test_gauge").set(-7);
    reg.histogram("reg.test_hist").record(1000);

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("reg.test_counter"), 42u);
    EXPECT_EQ(snap.gauges.at("reg.test_gauge"), -7);
    EXPECT_EQ(snap.histograms.at("reg.test_hist").count, 1u);

    const std::string text = snap.prometheusText();
    EXPECT_NE(text.find("twq_reg_test_counter 42"), std::string::npos);
    EXPECT_NE(text.find("twq_reg_test_gauge -7"), std::string::npos);
    EXPECT_NE(text.find("twq_reg_test_hist_count 1"),
              std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

/**
 * Registry name lookup is on the first-touch path of every metric
 * site, so lookups (including ones that CREATE metrics) must be safe
 * against concurrent recording and snapshotting. This is the test
 * CI's TSan leg aims at: any lock misuse in Registry::counter /
 * histogram / snapshot shows up as a reported race here.
 */
TEST(ObsRegistry, LookupDuringConcurrentRecordingIsRaceFree)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::Registry reg;
    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            const std::string mine =
                "race.writer_" + std::to_string(w);
            for (int i = 0; i < 20000; ++i) {
                // Re-resolve by name every iteration (first-touch
                // path), mixing a private metric with shared ones.
                reg.counter(mine).inc();
                reg.counter("race.shared").inc();
                reg.histogram("race.lat").record(
                    static_cast<std::uint64_t>(i) * 7 + 1);
                if (i % 1000 == 0)
                    reg.gauge("race.depth").set(i);
            }
        });
    std::thread reader([&] {
        std::uint64_t last = 0;
        while (!stop.load()) {
            const obs::MetricsSnapshot snap = reg.snapshot();
            if (const auto it = snap.counters.find("race.shared");
                it != snap.counters.end()) {
                // Monotone across snapshots: no torn/lost reads.
                EXPECT_GE(it->second, last);
                last = it->second;
            }
        }
    });
    for (auto &th : writers)
        th.join();
    stop.store(true);
    reader.join();

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("race.shared"),
              static_cast<std::uint64_t>(kWriters) * 20000);
    EXPECT_EQ(snap.histograms.at("race.lat").count,
              static_cast<std::uint64_t>(kWriters) * 20000);
}

// ---------------------------------------------------- disabled path

/**
 * With tracing disabled and metrics pre-resolved, the instrumented
 * hot path must not allocate: spans are a relaxed load, records are
 * relaxed atomic adds. This is the mechanism behind the <=5% CI
 * overhead gate.
 */
TEST(ObsDisabledPath, ZeroAllocations)
{
    obs::TraceCollector::global().disable();
    obs::Registry reg;
    obs::Counter &c = reg.counter("hot.counter");
    obs::Histogram &h = reg.histogram("hot.hist");

    const std::size_t before =
        gAllocCount.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        TWQ_SPAN("hot.span");
        TWQ_SPAN_ARG("hot.span_arg", i);
        c.inc();
        h.record(static_cast<std::uint64_t>(i));
        obs::traceInstant("hot.instant");
    }
    const std::size_t after =
        gAllocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after);
}

// ------------------------------------------------------------ trace

/**
 * Minimal JSON value/parser: just enough to verify the Chrome-trace
 * document the collector writes (objects, arrays, strings with
 * escapes, numbers, booleans). Parse failures surface as nullopt-ish
 * `ok == false`.
 */
struct JsonValue
{
    enum Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    } kind = Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue *
    get(const std::string &key) const
    {
        const auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

struct JsonParser
{
    const char *p;
    const char *end;
    bool ok = true;

    void
    ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    eat(char c)
    {
        ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        ok = false;
        return false;
    }

    JsonValue
    parse()
    {
        ws();
        JsonValue v;
        if (p >= end) {
            ok = false;
            return v;
        }
        switch (*p) {
        case '{': {
            ++p;
            v.kind = JsonValue::Obj;
            ws();
            if (p < end && *p == '}') {
                ++p;
                return v;
            }
            while (ok) {
                ws();
                JsonValue key = parse();
                if (!ok || key.kind != JsonValue::Str) {
                    ok = false;
                    return v;
                }
                if (!eat(':'))
                    return v;
                v.obj[key.str] = parse();
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                eat('}');
                return v;
            }
            return v;
        }
        case '[': {
            ++p;
            v.kind = JsonValue::Arr;
            ws();
            if (p < end && *p == ']') {
                ++p;
                return v;
            }
            while (ok) {
                v.arr.push_back(parse());
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                eat(']');
                return v;
            }
            return v;
        }
        case '"': {
            ++p;
            v.kind = JsonValue::Str;
            while (p < end && *p != '"') {
                if (*p == '\\' && p + 1 < end) {
                    ++p;
                    switch (*p) {
                    case 'n': v.str += '\n'; break;
                    case 't': v.str += '\t'; break;
                    case 'u':
                        // \uXXXX: tests only emit ASCII controls.
                        if (end - p >= 5) {
                            v.str += static_cast<char>(std::strtol(
                                std::string(p + 1, p + 5).c_str(),
                                nullptr, 16));
                            p += 4;
                        } else {
                            ok = false;
                        }
                        break;
                    default: v.str += *p; break;
                    }
                } else {
                    v.str += *p;
                }
                ++p;
            }
            if (!eat('"'))
                ok = false;
            return v;
        }
        case 't':
        case 'f': {
            v.kind = JsonValue::Bool;
            v.b = *p == 't';
            p += v.b ? 4 : 5;
            return v;
        }
        case 'n':
            p += 4;
            return v;
        default: {
            char *after = nullptr;
            v.kind = JsonValue::Num;
            v.num = std::strtod(p, &after);
            if (after == p)
                ok = false;
            p = after;
            return v;
        }
        }
    }
};

TEST(ObsTrace, JsonSchemaNestingAndLanes)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::TraceCollector &tc = obs::TraceCollector::global();
    tc.reset();
    tc.enable();

    constexpr int kWorkers = 3;
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w)
        workers.emplace_back([w] {
            obs::setThreadLane("testworker", static_cast<std::size_t>(w));
            for (int i = 0; i < 5; ++i) {
                TWQ_SPAN("outer");
                {
                    TWQ_SPAN_ARG("inner", i);
                }
                obs::traceInstant("tick", w);
            }
        });
    for (auto &t : workers)
        t.join();

    const std::string doc = tc.json();
    JsonParser parser{doc.data(), doc.data() + doc.size()};
    const JsonValue root = parser.parse();
    parser.ws();
    ASSERT_TRUE(parser.ok) << "trace JSON failed to parse";
    EXPECT_EQ(parser.p, parser.end) << "trailing garbage after JSON";
    ASSERT_EQ(root.kind, JsonValue::Obj);

    const JsonValue *events = root.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Arr);

    std::set<std::string> lanes;
    std::map<double, std::vector<const JsonValue *>> spansByTid;
    std::size_t instants = 0;
    for (const JsonValue &ev : events->arr) {
        ASSERT_EQ(ev.kind, JsonValue::Obj);
        const JsonValue *ph = ev.get("ph");
        ASSERT_NE(ph, nullptr);
        const JsonValue *name = ev.get("name");
        ASSERT_NE(name, nullptr);
        if (ph->str == "M") {
            EXPECT_EQ(name->str, "thread_name");
            const JsonValue *args = ev.get("args");
            ASSERT_NE(args, nullptr);
            lanes.insert(args->get("name")->str);
        } else if (ph->str == "X") {
            ASSERT_NE(ev.get("ts"), nullptr);
            ASSERT_NE(ev.get("dur"), nullptr);
            ASSERT_NE(ev.get("tid"), nullptr);
            spansByTid[ev.get("tid")->num].push_back(&ev);
        } else if (ph->str == "i") {
            EXPECT_EQ(name->str, "tick");
            ++instants;
        } else {
            FAIL() << "unexpected event phase " << ph->str;
        }
    }
    // One lane per worker, named as the workers named themselves.
    for (int w = 0; w < kWorkers; ++w)
        EXPECT_EQ(lanes.count("testworker " + std::to_string(w)), 1u)
            << "missing lane for worker " << w;
    EXPECT_EQ(instants, static_cast<std::size_t>(kWorkers) * 5);

    // Spans nest: every inner lies within an outer on the same lane,
    // and never spans across lanes.
    std::size_t inners = 0;
    for (const auto &[tid, spans] : spansByTid) {
        for (const JsonValue *inner : spans) {
            if (inner->get("name")->str != "inner")
                continue;
            ++inners;
            const double its = inner->get("ts")->num;
            const double iend = its + inner->get("dur")->num;
            bool nested = false;
            for (const JsonValue *outer : spans) {
                if (outer->get("name")->str != "outer")
                    continue;
                const double ots = outer->get("ts")->num;
                const double oend = ots + outer->get("dur")->num;
                if (its >= ots && iend <= oend) {
                    nested = true;
                    break;
                }
            }
            EXPECT_TRUE(nested)
                << "inner span not nested in any outer on tid "
                << tid;
            EXPECT_GE(inner->get("args")->get("arg")->num, 0.0);
        }
    }
    EXPECT_EQ(inners, static_cast<std::size_t>(kWorkers) * 5);
    tc.reset();
}

/**
 * Request attribution: spans recorded under a TraceContext — on any
 * thread — carry the minted id into the JSON and become one Chrome
 * flow; spans outside a context (or under the explicit id-0 clear)
 * stay untagged. This is the unit-level half of the end-to-end wire
 * test in test_net_introspect.cc.
 */
TEST(ObsTrace, TraceContextAttributesSpansAcrossThreads)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::TraceCollector &tc = obs::TraceCollector::global();
    tc.reset();
    tc.enable();

    const std::uint64_t id = obs::mintTraceId();
    ASSERT_NE(id, 0u);
    EXPECT_NE(obs::mintTraceId(), id); // process-unique
    {
        obs::TraceContext ctx(id);
        EXPECT_EQ(obs::currentTraceId(), id);
        TWQ_SPAN("ctx.ingress");
        {
            // Id 0 deliberately clears (batch boundaries); restored
            // on exit.
            obs::TraceContext clear(0);
            EXPECT_EQ(obs::currentTraceId(), 0u);
            TWQ_SPAN("ctx.outside");
        }
        EXPECT_EQ(obs::currentTraceId(), id);
    }
    EXPECT_EQ(obs::currentTraceId(), 0u);
    std::thread worker([&] {
        obs::TraceContext ctx(id); // the id crossed a thread boundary
        TWQ_SPAN("ctx.worker");
    });
    worker.join();

    const std::string doc = tc.json();
    const std::string tag = "\"trace_id\":" + std::to_string(id);
    const auto eventHasTag = [&](const char *name) {
        const std::size_t at =
            doc.find("\"name\":\"" + std::string(name) + "\"");
        EXPECT_NE(at, std::string::npos) << name;
        if (at == std::string::npos)
            return false;
        // Bound the search to this event object: stop at the start
        // of the next one so a neighbor's args can't leak in.
        const std::size_t next = doc.find("{\"ph\"", at);
        const std::string obj = doc.substr(
            at, next == std::string::npos ? doc.size() - at
                                          : next - at);
        return obj.find(tag) != std::string::npos;
    };
    EXPECT_TRUE(eventHasTag("ctx.ingress"));
    EXPECT_TRUE(eventHasTag("ctx.worker"));
    EXPECT_FALSE(eventHasTag("ctx.outside"));

    // Both tagged spans joined one flow: a start and an end event
    // bound to the id, across the two tids.
    EXPECT_NE(doc.find("{\"ph\":\"s\",\"cat\":\"request\","
                       "\"name\":\"req\",\"id\":" +
                       std::to_string(id)),
              std::string::npos);
    EXPECT_NE(doc.find("{\"ph\":\"f\",\"cat\":\"request\","
                       "\"name\":\"req\",\"id\":" +
                       std::to_string(id)),
              std::string::npos);
    tc.reset();
}

TEST(ObsTrace, AggregateRollsUpSpans)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    obs::TraceCollector &tc = obs::TraceCollector::global();
    tc.reset();
    tc.enable();
    for (int i = 0; i < 12; ++i) {
        TWQ_SPAN("agg.stage");
    }
    obs::traceInstant("agg.instant");
    const auto totals = tc.aggregate();
    ASSERT_EQ(totals.count("agg.stage"), 1u);
    EXPECT_EQ(totals.at("agg.stage").count, 12u);
    EXPECT_EQ(totals.count("agg.instant"), 0u); // instants excluded
    tc.reset();
}

// ----------------------------------------------------------- server

/**
 * The server's own histogram view must agree with what a client
 * measures: request-latency p50/p99 within histogram bucket
 * resolution of the client-observed values (the client additionally
 * pays submit + future overhead, so it reads slightly higher), and
 * the batch-size histogram must agree exactly with the coherent
 * counter pair.
 */
TEST(ObsServer, HistogramAgreesWithClientMeasurement)
{
    if (!obs::kEnabled)
        GTEST_SKIP() << "obs compiled out";
    SessionConfig scfg;
    auto session = std::make_shared<const Session>(microServeNet(8, 4),
                                                   scfg);
    RuntimeConfig rcfg;
    rcfg.threads = 2;
    rcfg.batch.maxBatch = 4;
    auto server =
        std::make_unique<InferenceServer>(session, rcfg);

    constexpr std::size_t kWarmup = 16;
    constexpr std::size_t kRequests = 200;
    TensorD input(session->inputShape(), 0.25);
    // Warm up (thread pool spin-up, first-touch allocations), then
    // drop the warmup from the histograms so both views cover the
    // same steady-state requests.
    for (std::size_t i = 0; i < kWarmup; ++i)
        server->submit(input).get();
    server->drain();
    {
        // Counter/histogram agreement over the warmup window, before
        // the reset splits the two views: the batch-size histogram is
        // the same events as the coherent counter pair, just kept as
        // a distribution instead of a mean.
        const ServerStats warm = server->stats();
        const obs::MetricsSnapshot wsnap = server->metricsSnapshot();
        const obs::HistogramSnapshot &bs =
            wsnap.histograms.at("server.batch_size");
        EXPECT_EQ(warm.submitted, kWarmup);
        EXPECT_EQ(warm.completed, kWarmup);
        EXPECT_EQ(bs.sum, warm.completed);
        EXPECT_EQ(bs.count, warm.batches);
        EXPECT_DOUBLE_EQ(bs.mean(), warm.avgBatchSize());
    }
    server->metrics().reset();

    std::vector<double> clientMs;
    clientMs.reserve(kRequests);
    using Clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const auto t0 = Clock::now();
        server->submit(input).get();
        clientMs.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count());
    }
    server->drain();
    const ServerStats stats = server->stats();
    const obs::MetricsSnapshot snap = server->metricsSnapshot();
    server->shutdown();

    EXPECT_EQ(stats.submitted, kWarmup + kRequests);
    EXPECT_EQ(stats.completed, kWarmup + kRequests);
    EXPECT_GE(stats.submitted, stats.completed);

    const obs::HistogramSnapshot &req =
        snap.histograms.at("server.request_latency_ns");
    const obs::HistogramSnapshot &wait =
        snap.histograms.at("server.queue_wait_ns");
    const obs::HistogramSnapshot &bs =
        snap.histograms.at("server.batch_size");
    ASSERT_EQ(req.count, kRequests);
    ASSERT_EQ(wait.count, kRequests);

    // Request latency: server view within two log2 buckets of the
    // client view — one bucket of histogram quantization plus one of
    // slack for timestamp skew (the client's submit/future overhead,
    // and the server's end timestamp possibly landing after the
    // client's future has already woken) on a microseconds-scale
    // request.
    for (double q : {0.50, 0.99}) {
        const double clientNs = percentile(clientMs, q) * 1e6;
        const double serverNs = req.quantile(q);
        ASSERT_GT(serverNs, 0.0);
        const double logRatio =
            std::log2(clientNs / serverNs);
        EXPECT_LE(std::abs(logRatio), 2.0)
            << "q=" << q << " client " << clientNs << " ns vs server "
            << serverNs << " ns";
    }
    // Queue wait is a component of request latency.
    EXPECT_LE(wait.quantile(0.5), req.quantile(0.5) + 1.0);

    // Every steady-state request was counted in exactly one batch.
    EXPECT_EQ(bs.sum, kRequests);

    // And the exposition renders the request histogram.
    const std::string text = snap.prometheusText();
    EXPECT_NE(text.find("twq_server_request_latency_ns_count"),
              std::string::npos);
}

// ------------------------------------------------------ calibration

/**
 * CalibrationCache sharing: the quantized autoSelect race prepares
 * five candidates per layer; with the shared cache the build pays 4
 * calibration passes (abs-max, fake-quantization, tap-maxima for F2
 * and F4) instead of 13, and the results are bit-identical.
 */
TEST(ObsCalibration, SharedPassesCountedAndBitIdentical)
{
    // Bit-identity holds regardless of obs.
    ConvLayerDesc d;
    d.name = "cal8";
    d.cin = 8;
    d.cout = 8;
    d.kernel = 3;
    d.stride = 1;
    d.height = 8;
    d.width = 8;
    TensorD weights({d.cout, d.cin, 3, 3});
    Rng wrng(0xca11);
    wrng.fillNormal(weights.storage(), 0.0, 0.1);
    std::vector<TensorD> cal;
    cal.emplace_back(Shape{2, d.cin, d.height, d.width});
    Rng crng(0xca12);
    crng.fillNormal(cal[0].storage(), 0.0, 1.0);
    TensorD x({1, d.cin, d.height, d.width});
    Rng xrng(0xca13);
    xrng.fillNormal(x.storage(), 0.0, 1.0);

    IntWinogradConfig cfg;
    cfg.variant = WinoVariant::F4;
    CalibrationCache cache(&cal);
    const IntWinogradConv uncached(weights, cal, cfg, nullptr);
    const IntWinogradConv cached(weights, cal, cfg, &cache);
    EXPECT_EQ(uncached.inputScale(), cached.inputScale());
    const TensorD yu = uncached.forward(x);
    const TensorD yc = cached.forward(x);
    ASSERT_EQ(yu.shape(), yc.shape());
    for (std::size_t i = 0; i < yu.numel(); ++i)
        ASSERT_EQ(yu[i], yc[i]) << "outputs diverge at " << i;

    if (!obs::kEnabled)
        return; // pass counting needs the real registry
    // A quantized autoSelect build (3 candidates racing) pays 4
    // passes per calibrated layer through the shared cache.
    obs::Counter &passes =
        obs::Registry::global().counter("quant.calibration_passes");
    const std::uint64_t before = passes.value();
    NetworkDesc net;
    net.name = "Cal8";
    net.inputRes = d.height;
    net.layers.push_back(d);
    SessionConfig scfg;
    scfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    scfg.autoSelect = true;
    const Session sel(net, scfg);
    const std::uint64_t delta = passes.value() - before;
    EXPECT_EQ(delta, 4u)
        << "expected 1 abs-max + 1 fake-quant + 2 tap-maxima passes "
           "shared across all three quantized candidates";
}

// ---------------------------------------------------------- logging

TEST(ObsLogging, SinkSeverityAndRateLimit)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    setLogSink([&](LogLevel level, const std::string &line) {
        captured.emplace_back(level, line);
    });
    const LogLevel oldLevel = logLevel();

    // Severity filter: warns pass at Info, vanish at Error.
    setLogLevel(LogLevel::Info);
    setLogRateLimit(0); // no limiting for the filter check
    twq_warn("filter check ", 1);
    twq_debug("debug below level");
    setLogLevel(LogLevel::Error);
    twq_warn("must not appear");
    setLogLevel(LogLevel::Info);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_NE(captured[0].second.find("filter check 1"),
              std::string::npos);

    // Rate limiter: 3/sec per call site; a 20-iteration burst from
    // one site emits exactly 3 lines.
    captured.clear();
    setLogRateLimit(3);
    for (int i = 0; i < 20; ++i)
        twq_warn("burst ", i);
    EXPECT_EQ(captured.size(), 3u);

    // Lines from concurrent threads arrive whole (the sink runs
    // under the logging mutex) and none are lost with limiting off.
    captured.clear();
    setLogRateLimit(0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([t] {
            for (int i = 0; i < 50; ++i)
                twq_warn("thread ", t, " line ", i);
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(captured.size(), 200u);
    for (const auto &[level, line] : captured)
        EXPECT_NE(line.find("thread "), std::string::npos);

    setLogSink(nullptr);
    setLogRateLimit(10);
    setLogLevel(oldLevel);
}

} // namespace
} // namespace twq
