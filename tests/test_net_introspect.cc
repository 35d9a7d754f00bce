/**
 * @file
 * End-to-end observability over the wire: the timed-request protocol
 * extension (server-side queue/batch/compute breakdown bounded by the
 * client's measured RTT), request-scoped trace flows (one trace id
 * spanning net ingress, batcher, worker, and backend stages in the
 * emitted Perfetto JSON), and the HTTP introspection endpoints
 * (/statusz, /healthz, /tracez, /metrics label conversion + compat).
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "models/zoo.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/server.hh"

using namespace twq;
using net::Frame;
using net::Status;

namespace
{

std::shared_ptr<const Session>
makeSession()
{
    SessionConfig scfg;
    scfg.defaultEngine = ConvEngine::WinogradFp32;
    return std::make_shared<const Session>(microServeNet(10, 6), scfg);
}

TensorD
makeInput(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

/** Session + InferenceServer + NetServer on an ephemeral port. */
struct Loopback
{
    std::shared_ptr<const Session> session;
    InferenceServer server;
    net::NetServer front;
    std::uint16_t port = 0;

    explicit Loopback(RuntimeConfig rcfg = {},
                      net::NetConfig ncfg = {},
                      std::shared_ptr<const Session> s = makeSession())
        : session(std::move(s)), server(session, rcfg),
          front(server, ncfg)
    {
        port = front.start();
    }

    ~Loopback()
    {
        front.shutdown();
        server.shutdown();
    }
};

/** Parse the first integer after `key` following `from` in `doc`. */
std::uint64_t
numberAfter(const std::string &doc, const std::string &key,
            std::size_t from = 0)
{
    const std::size_t at = doc.find(key, from);
    if (at == std::string::npos)
        return 0;
    return std::stoull(doc.substr(at + key.size()));
}

} // namespace

TEST(NetIntrospect, TimedInferBreakdownBoundedByRtt)
{
    RuntimeConfig rcfg;
    rcfg.threads = 2;
    Loopback lb(rcfg);
    net::Client client;
    client.connect("127.0.0.1", lb.port);

    const TensorD in = makeInput(lb.session->inputShape(), 1);
    const TensorD local = lb.server.submit(in).get();
    for (int i = 0; i < 4; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const Frame f = client.inferTimed(in);
        const auto rttNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ASSERT_EQ(f.status, Status::Ok);
        ASSERT_TRUE(f.timed);
        // The three phases partition enqueue-to-respond exactly, and
        // that window sits strictly inside the client's measured
        // round trip — the breakdown lets a client attribute wire
        // RTT to server phases vs network/encode overhead.
        const std::uint64_t serverNs =
            f.queueNs + f.batchNs + f.computeNs;
        EXPECT_GT(f.computeNs, 0u);
        EXPECT_LE(serverNs, static_cast<std::uint64_t>(rttNs));
        // Same bytes as the untimed path and in-process submit.
        ASSERT_EQ(f.data.size(), local.storage().size());
        EXPECT_EQ(std::memcmp(f.data.data(), local.storage().data(),
                              f.data.size() * sizeof(double)),
                  0);
    }
    // Untimed requests on the same connection still answer in the
    // untimed dialect.
    const Frame plain = client.infer(in);
    ASSERT_EQ(plain.status, Status::Ok);
    EXPECT_FALSE(plain.timed);
}

TEST(NetIntrospect, TimedDialectSurvivesErrors)
{
    Loopback lb;
    net::Client client;
    client.connect("127.0.0.1", lb.port);

    // Wrong shape: the server must answer a TIMED request with a
    // TIMED response even on failure (zeroed breakdown), so a client
    // waiting on inferTimed never trips on the response type.
    TensorD bad({1, 2, 3, 3}, 0.0);
    const Frame f = client.inferTimed(bad);
    EXPECT_EQ(f.status, Status::BadRequest);
    ASSERT_TRUE(f.timed);
    EXPECT_EQ(f.queueNs, 0u);
    EXPECT_EQ(f.computeNs, 0u);

    // The connection survives and serves a good request after.
    const TensorD in = makeInput(lb.session->inputShape(), 2);
    EXPECT_EQ(client.inferTimed(in).status, Status::Ok);
}

TEST(NetIntrospect, TracedRequestFormsOneFlowAcrossLayers)
{
    if constexpr (!obs::kEnabled)
        GTEST_SKIP() << "built with TWQ_NO_OBS";

    obs::TraceCollector::global().reset();
    obs::TraceCollector::global().enable();
    std::string doc;
    {
        // One worker: batches execute strictly sequentially, so by
        // the time the SECOND request's response arrives the first
        // batch's spans are certainly closed and flushable. The
        // assertions below target the FIRST request's flow.
        RuntimeConfig rcfg;
        rcfg.threads = 1;
        Loopback lb(rcfg);
        net::Client client;
        client.connect("127.0.0.1", lb.port);
        const TensorD in = makeInput(lb.session->inputShape(), 3);
        ASSERT_EQ(client.inferTimed(in).status, Status::Ok);
        ASSERT_EQ(client.inferTimed(in).status, Status::Ok);
        // Flush while the session is alive: span names include
        // session-interned layer names, and the ring stores pointers
        // (the documented lifetime contract of the tracer).
        doc = obs::TraceCollector::global().json();
    }

    // The ingress span carries the request's minted trace id...
    const std::size_t ingress = doc.find("\"name\":\"net.ingress\"");
    ASSERT_NE(ingress, std::string::npos);
    const std::uint64_t id =
        numberAfter(doc, "\"trace_id\":", ingress);
    ASSERT_NE(id, 0u);

    // ...and the SAME id appears on spans recorded by other threads
    // down the pipeline: the batcher/worker (server.batch) and the
    // response encode (net.respond). That is the cross-thread
    // attribution claim — one flow per request.
    const std::string tagged =
        "\"trace_id\":" + std::to_string(id) + "}";
    std::size_t occurrences = 0;
    for (std::size_t at = doc.find(tagged); at != std::string::npos;
         at = doc.find(tagged, at + 1))
        ++occurrences;
    EXPECT_GE(occurrences, 3u);
    const std::size_t batch = doc.find("\"name\":\"server.batch\"");
    ASSERT_NE(batch, std::string::npos);
    EXPECT_EQ(numberAfter(doc, "\"trace_id\":", batch), id);
    const std::size_t respond = doc.find("\"name\":\"net.respond\"");
    ASSERT_NE(respond, std::string::npos);
    EXPECT_EQ(numberAfter(doc, "\"trace_id\":", respond), id);

    // Perfetto flow rendering: a flow start and a terminating flow
    // end bound to this id.
    const std::string flowStart =
        "{\"ph\":\"s\",\"cat\":\"request\",\"name\":\"req\",\"id\":" +
        std::to_string(id);
    EXPECT_NE(doc.find(flowStart), std::string::npos);
    EXPECT_NE(doc.find("\"bp\":\"e\""), std::string::npos);
}

TEST(NetIntrospect, StatuszReportsPlansAndHealthzFlips)
{
    Loopback lb;
    // A request so stats are nonzero.
    net::Client client;
    client.connect("127.0.0.1", lb.port);
    const TensorD in = makeInput(lb.session->inputShape(), 4);
    ASSERT_EQ(client.infer(in).status, Status::Ok);
    // The stats counters publish when the batch retires, which can
    // trail the response by a hair; drain() waits for that.
    lb.server.drain();

    const std::string statusz =
        net::httpGet("127.0.0.1", lb.port, "/statusz");
    EXPECT_NE(statusz.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(statusz.find("application/json"), std::string::npos);
    // Build block, config echo, and the per-layer plan table with
    // provenance fields (source is "default" here — no autoSelect).
    EXPECT_NE(statusz.find("\"plan_signature\""), std::string::npos);
    EXPECT_NE(statusz.find("\"MicroServe\""), std::string::npos);
    EXPECT_NE(statusz.find("\"layers\""), std::string::npos);
    EXPECT_NE(statusz.find("\"stem\""), std::string::npos);
    EXPECT_NE(statusz.find("\"plan_source\": \"default\""),
              std::string::npos);
    EXPECT_NE(statusz.find("\"plan_margin_pct\": null"),
              std::string::npos);
    EXPECT_NE(statusz.find("\"winograd-fp32\""), std::string::npos);
    EXPECT_GE(numberAfter(statusz, "\"completed\": "), 1u);

    const std::string healthz =
        net::httpGet("127.0.0.1", lb.port, "/healthz");
    EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(healthz.find("ok"), std::string::npos);

    // The 404 catalogue advertises the introspection surface.
    const std::string missing =
        net::httpGet("127.0.0.1", lb.port, "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);
    EXPECT_NE(missing.find("/statusz"), std::string::npos);
}

TEST(NetIntrospect, StatuszReportsPlanMargins)
{
    // autoSelect races stem and the two body layers (body.1 adopts
    // body.0's race from the build's memo); the strided and 1x1
    // layers never race. Raced layers carry a numeric margin, the
    // rest null.
    SessionConfig scfg;
    scfg.autoSelect = true;
    scfg.autoSelectBatch = 2;
    Loopback lb({}, {},
                std::make_shared<const Session>(microServeNet(10, 6),
                                                scfg));
    const std::string statusz =
        net::httpGet("127.0.0.1", lb.port, "/statusz");
    const auto marginOf = [&](const std::string &layer) {
        const std::size_t at =
            statusz.find("{\"name\": \"" + layer + "\"");
        EXPECT_NE(at, std::string::npos) << layer;
        const std::string key = "\"plan_margin_pct\": ";
        const std::size_t m = statusz.find(key, at);
        EXPECT_NE(m, std::string::npos) << layer;
        return statusz.substr(m + key.size(), 4);
    };
    for (const char *raced : {"stem", "body.0", "body.1"}) {
        const std::string v = marginOf(raced);
        EXPECT_TRUE(v[0] == '-' || (v[0] >= '0' && v[0] <= '9'))
            << raced << " margin reads " << v;
    }
    EXPECT_EQ(marginOf("down"), "null");
    EXPECT_EQ(marginOf("head"), "null");
    EXPECT_NE(statusz.find("\"plan_source\": \"memo\""),
              std::string::npos);
}

TEST(NetIntrospect, TracezRecordsRequestTimelines)
{
    RuntimeConfig rcfg;
    rcfg.slowTraceThresholdNs = 0; // record every request
    rcfg.slowTraceSlots = 8;
    Loopback lb(rcfg);
    net::Client client;
    client.connect("127.0.0.1", lb.port);
    const TensorD in = makeInput(lb.session->inputShape(), 5);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(client.infer(in).status, Status::Ok);

    const std::string tracez =
        net::httpGet("127.0.0.1", lb.port, "/tracez");
    EXPECT_NE(tracez.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(tracez.find("\"records\""), std::string::npos);
    // Every request crossed the threshold-0 bar; each record carries
    // the same breakdown the wire returns.
    EXPECT_GE(numberAfter(tracez, "\"slots\": "), 8u);
    EXPECT_NE(tracez.find("\"compute_ns\""), std::string::npos);
    EXPECT_GT(numberAfter(tracez, "\"total_ns\": "), 0u);

    // In-process slowRequests() sees the same ring, oldest-first.
    const auto recs = lb.server.slowRequests();
    ASSERT_GE(recs.size(), 3u);
    EXPECT_GT(recs.back().timing.computeNs, 0u);
    EXPECT_EQ(recs.back().totalNs, recs.back().timing.queueNs +
                                       recs.back().timing.batchNs +
                                       recs.back().timing.computeNs);
}

TEST(NetIntrospect, MetricsLabelsAndCompatFlag)
{
    if constexpr (!obs::kEnabled)
        GTEST_SKIP() << "built with TWQ_NO_OBS";

    Loopback lb;
    net::Client client;
    client.connect("127.0.0.1", lb.port);
    const TensorD in = makeInput(lb.session->inputShape(), 6);
    ASSERT_EQ(client.infer(in).status, Status::Ok);

    const std::string metrics =
        net::httpGet("127.0.0.1", lb.port, "/metrics");
    // Proper exposition: HELP/TYPE per family, per-layer histograms
    // folded into ONE labeled family instead of a name per layer.
    EXPECT_NE(metrics.find("# HELP twq_layer_latency_ns"),
              std::string::npos);
    EXPECT_NE(metrics.find("# TYPE twq_layer_latency_ns summary"),
              std::string::npos);
    EXPECT_NE(metrics.find("twq_layer_latency_ns{net=\"MicroServe\","
                           "layer=\"stem\",quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(metrics.find("# TYPE twq_net_requests counter"),
              std::string::npos);
    // Deprecated flat names are gone by default...
    EXPECT_EQ(metrics.find("twq_layer_MicroServe_stem_latency_ns"),
              std::string::npos);
    // ...and come back under the compat query for old dashboards.
    const std::string compat =
        net::httpGet("127.0.0.1", lb.port, "/metrics?compat=1");
    EXPECT_NE(compat.find("twq_layer_latency_ns{net=\"MicroServe\""),
              std::string::npos);
    EXPECT_NE(compat.find("twq_layer_MicroServe_stem_latency_ns"),
              std::string::npos);
}
