/**
 * @file
 * Loopback tests of the epoll front door: network-served responses
 * bit-identical to in-process submit(), pipelining and half-close
 * flush semantics, connection churn (clean and abrupt), malformed
 * frames answered with BadRequest, shape mismatches kept on-line,
 * admission-control shedding over the wire, graceful drain under
 * load (every decoded request is answered before the server closes),
 * and the /metrics HTTP responder sharing the port.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.hh"
#include "models/zoo.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
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
    scfg.defaultEngine = ConvEngine::WinogradBlocked;
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
    std::shared_ptr<const Session> session = makeSession();
    InferenceServer server;
    net::NetServer front;
    std::uint16_t port = 0;

    explicit Loopback(RuntimeConfig rcfg = {},
                      net::NetConfig ncfg = {})
        : server(session, rcfg), front(server, ncfg)
    {
        port = front.start();
    }

    ~Loopback()
    {
        front.shutdown();
        server.shutdown();
    }
};

} // namespace

TEST(NetServer, BitIdenticalToInProcessSubmit)
{
    RuntimeConfig rcfg;
    rcfg.threads = 2;
    Loopback lb(rcfg);

    net::Client client;
    client.connect("127.0.0.1", lb.port);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const TensorD in =
            makeInput(lb.session->inputShape(), seed);
        const TensorD local = lb.server.submit(in).get();
        const Frame served = client.infer(in);
        ASSERT_EQ(served.status, Status::Ok);
        EXPECT_EQ(served.shape, local.shape());
        // Bitwise equality of the raw doubles, not approximate: the
        // wire carries host IEEE-754 and the server runs the same
        // kernels for both paths.
        ASSERT_EQ(served.data.size(), local.storage().size());
        EXPECT_EQ(std::memcmp(served.data.data(),
                              local.storage().data(),
                              served.data.size() * sizeof(double)),
                  0)
            << "seed " << seed;
    }
}

TEST(NetServer, ConcurrentClientsBitIdentical)
{
    RuntimeConfig rcfg;
    rcfg.threads = 2;
    Loopback lb(rcfg);

    constexpr std::size_t kClients = 4, kPerClient = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            const TensorD in =
                makeInput(lb.session->inputShape(), 100 + c);
            const TensorD local = lb.server.submit(in).get();
            net::Client client;
            client.connect("127.0.0.1", lb.port);
            for (std::size_t r = 0; r < kPerClient; ++r) {
                const Frame f = client.infer(in);
                if (f.status != Status::Ok ||
                    f.data != local.storage())
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(NetServer, PipelinedRequestsAndHalfClose)
{
    Loopback lb;
    const TensorD in = makeInput(lb.session->inputShape(), 3);
    const TensorD local = lb.server.submit(in).get();

    // Fire all requests without reading, half-close the send side,
    // then collect: the server must flush every response before EOF.
    net::Client client;
    client.connect("127.0.0.1", lb.port);
    constexpr std::size_t kRequests = 32;
    std::vector<std::uint64_t> ids;
    for (std::size_t r = 0; r < kRequests; ++r)
        ids.push_back(client.send(in));
    client.shutdownWrite();

    std::size_t got = 0;
    Frame f;
    while (client.recv(&f)) {
        ASSERT_EQ(f.status, Status::Ok);
        EXPECT_EQ(f.id, ids[got]);
        EXPECT_EQ(f.data, local.storage());
        ++got;
    }
    EXPECT_EQ(got, kRequests);
}

TEST(NetServer, ConnectionChurn)
{
    Loopback lb;
    const TensorD in = makeInput(lb.session->inputShape(), 4);

    // Clean churn: connect, one request, disconnect, many times over.
    for (int i = 0; i < 25; ++i) {
        net::Client client;
        client.connect("127.0.0.1", lb.port);
        EXPECT_EQ(client.infer(in).status, Status::Ok);
    }

    // Abrupt churn: half-written frames and empty connections torn
    // down mid-stream must not wedge the server.
    for (int i = 0; i < 25; ++i) {
        net::Client client;
        client.connect("127.0.0.1", lb.port);
        if (i % 2 == 0)
            client.send(in); // full frame, never reads the response
        client.close();
    }

    // The server still serves a well-behaved client afterwards.
    net::Client client;
    client.connect("127.0.0.1", lb.port);
    EXPECT_EQ(client.infer(in).status, Status::Ok);
}

TEST(NetServer, MalformedFrameGetsBadRequestThenClose)
{
    Loopback lb;

    // Hand-roll a corrupt frame (valid length, bad magic) over a raw
    // socket — the Client API refuses to emit invalid frames.
    std::vector<std::uint8_t> wire;
    net::encodeInfer(1, makeInput(lb.session->inputShape(), 5), wire);
    wire[4] ^= 0xff; // corrupt the magic

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(lb.port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));

    // The server answers id 0 BadRequest, then closes (framing cannot
    // resynchronize after corruption).
    net::FrameDecoder dec;
    Frame f;
    bool gotResponse = false, gotEof = false;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            gotEof = n == 0;
            break;
        }
        dec.feed(buf, static_cast<std::size_t>(n));
        if (dec.next(&f) == net::FrameDecoder::Result::Frame)
            gotResponse = true;
    }
    ::close(fd);
    ASSERT_TRUE(gotResponse);
    EXPECT_TRUE(gotEof);
    EXPECT_EQ(f.status, Status::BadRequest);
    EXPECT_EQ(f.id, 0u);

    // The listener survived the hostile peer.
    net::Client ok;
    ok.connect("127.0.0.1", lb.port);
    EXPECT_EQ(ok.infer(makeInput(lb.session->inputShape(), 6)).status,
              Status::Ok);
}

TEST(NetServer, ShapeMismatchAnsweredBadRequestConnectionStaysOpen)
{
    Loopback lb;
    net::Client client;
    client.connect("127.0.0.1", lb.port);

    // Well-framed but wrong tensor shape: answered BadRequest, and
    // the connection keeps working (framing never desynced).
    const Frame bad =
        client.infer(makeInput({1, 2, 3, 3}, 7)); // wrong channels
    EXPECT_EQ(bad.status, Status::BadRequest);
    EXPECT_TRUE(bad.data.empty());

    const Frame good =
        client.infer(makeInput(lb.session->inputShape(), 8));
    EXPECT_EQ(good.status, Status::Ok);
}

TEST(NetServer, OverloadShedsOverTheWire)
{
    RuntimeConfig rcfg;
    rcfg.threads = 1;
    rcfg.maxPending = 1; // admit one request at a time
    Loopback lb(rcfg);

    const TensorD in = makeInput(lb.session->inputShape(), 9);
    net::Client client;
    client.connect("127.0.0.1", lb.port);

    // Pipeline a burst: the server decodes the burst far faster than
    // inference completes, so admission control must shed most of it.
    constexpr std::size_t kBurst = 64;
    for (std::size_t r = 0; r < kBurst; ++r)
        client.send(in);
    client.shutdownWrite();

    std::size_t ok = 0, shed = 0, other = 0;
    Frame f;
    while (client.recv(&f)) {
        if (f.status == Status::Ok)
            ++ok;
        else if (f.status == Status::Shed)
            ++shed;
        else
            ++other;
    }
    // Every request gets exactly one response — shed is fast-fail,
    // not silence.
    EXPECT_EQ(ok + shed + other, kBurst);
    EXPECT_EQ(other, 0u);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(shed, 1u);
    EXPECT_EQ(lb.server.stats().shed, shed);
}

TEST(NetServer, DrainUnderLoadAnswersEveryDecodedRequest)
{
    RuntimeConfig rcfg;
    rcfg.threads = 2;
    auto session = makeSession();
    auto *server = new InferenceServer(session, rcfg);
    net::NetServer front(*server, net::NetConfig{});
    const std::uint16_t port = front.start();

    const TensorD in = makeInput(session->inputShape(), 10);
    net::Client client;
    client.connect("127.0.0.1", port);
    constexpr std::size_t kRequests = 48;
    for (std::size_t r = 0; r < kRequests; ++r)
        client.send(in);

    // Wait until the server has decoded the whole burst, so every
    // request is either admitted or shed — then shut down mid-flight.
    while (front.requestsSeen() < kRequests)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    front.shutdown();

    // Graceful drain contract: each decoded request was answered (Ok
    // for admitted work that completed, Shed for rejected) and the
    // bytes reached the socket before the close.
    std::size_t got = 0;
    Frame f;
    while (client.recv(&f)) {
        EXPECT_TRUE(f.status == Status::Ok ||
                    f.status == Status::Shed);
        ++got;
    }
    EXPECT_EQ(got, kRequests);

    server->shutdown();
    delete server;
}

TEST(NetServer, MetricsHttpOnSamePort)
{
    Loopback lb;
    // Serve one request so counters are nonzero.
    net::Client client;
    client.connect("127.0.0.1", lb.port);
    ASSERT_EQ(
        client.infer(makeInput(lb.session->inputShape(), 11)).status,
        Status::Ok);

    const std::string resp =
        net::httpGet("127.0.0.1", lb.port, "/metrics");
    EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
    // The series only exist when the metrics subsystem is compiled
    // in; a TWQ_NO_OBS build still answers the scrape, just empty.
    if constexpr (obs::kEnabled) {
        // Server-private registry and the process-global one both
        // appear.
        EXPECT_NE(resp.find("twq_server_request_latency_ns"),
                  std::string::npos);
        EXPECT_NE(resp.find("twq_net_requests"), std::string::npos);
        // Satellites: tracer drop gauge and per-layer histograms.
        EXPECT_NE(resp.find("twq_trace_dropped_events"),
                  std::string::npos);
        EXPECT_NE(resp.find("twq_layer_"), std::string::npos);
    }

    const std::string missing =
        net::httpGet("127.0.0.1", lb.port, "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);
}
