#include "net/server.hh"

#include <chrono>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "layout/layout.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"
#include "runtime/plan_cache.hh"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace twq::net
{

namespace
{

/** HTTP sniff/header cap: a request line + headers beyond this is
 * not a scrape client, it is garbage. */
constexpr std::size_t kMaxHttpHeaderBytes = 16 * 1024;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

/**
 * One accepted connection. Owned by exactly one I/O loop; read,
 * parse, epoll bookkeeping, and close happen only on that loop's
 * thread. The outbound buffer is the single cross-thread surface:
 * inference workers append response frames under outMu and wake the
 * loop, which does all actual socket writes.
 */
struct NetServer::Conn
{
    int fd = -1;
    IoLoop *loop = nullptr;
    FrameDecoder decoder;

    std::mutex outMu;
    std::vector<std::uint8_t> outBuf;
    std::size_t outOff = 0;

    // Loop-thread-only state.
    bool writeArmed = false;
    bool halfClosed = false; ///< peer sent EOF; flush then close
    bool wantClose = false;  ///< close once outBuf drains
    int mode = 0;            ///< 0 = undecided, 1 = binary, 2 = HTTP
    std::string sniff;       ///< first bytes until mode is decided
    std::string httpBuf;

    std::atomic<bool> closed{false};
    std::atomic<std::uint32_t> inflight{0};

    explicit Conn(std::size_t maxFrame) : decoder(maxFrame) {}
};

/** One epoll event loop plus its cross-thread mailbox. */
struct NetServer::IoLoop
{
    std::size_t index = 0;
    int epfd = -1;
    int wakeFd = -1;
    std::thread thread;

    std::mutex mu; ///< guards incoming + ready
    std::vector<std::shared_ptr<Conn>> incoming;
    std::vector<std::shared_ptr<Conn>> ready;

    /// Loop-thread-only registry of live connections.
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
};

#if defined(__linux__)

namespace
{

std::atomic<std::int64_t> gDrainDeadlineNs{0};

} // namespace

NetServer::NetServer(InferenceServer &server, const NetConfig &cfg)
    : server_(server), cfg_(cfg)
{
    twq_assert(cfg_.ioThreads > 0, "net server needs an I/O thread");
}

NetServer::~NetServer()
{
    shutdown();
}

std::uint16_t
NetServer::start()
{
    twq_assert(!started_.load(), "NetServer started twice");

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        twq_fatal("socket(): ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.bindAddr.c_str(), &addr.sin_addr) !=
        1)
        twq_fatal("bad bind address: ", cfg_.bindAddr);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        twq_fatal("bind(", cfg_.bindAddr, ":", cfg_.port,
                  "): ", std::strerror(errno));
    if (::listen(listenFd_, cfg_.backlog) < 0)
        twq_fatal("listen(): ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                  &blen);
    port_ = ntohs(bound.sin_port);

    loops_.clear();
    for (std::size_t i = 0; i < cfg_.ioThreads; ++i) {
        auto loop = std::make_unique<IoLoop>();
        loop->index = i;
        loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
        loop->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (loop->epfd < 0 || loop->wakeFd < 0)
            twq_fatal("epoll/eventfd: ", std::strerror(errno));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = loop->wakeFd;
        epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakeFd, &ev);
        if (i == 0) {
            epoll_event lev{};
            lev.events = EPOLLIN;
            lev.data.fd = listenFd_;
            epoll_ctl(loop->epfd, EPOLL_CTL_ADD, listenFd_, &lev);
        }
        loops_.push_back(std::move(loop));
    }
    stopping_.store(false);
    startedAtNs_ = nowNs();
    started_.store(true);
    for (auto &loop : loops_) {
        IoLoop *lp = loop.get();
        loop->thread = std::thread([this, lp] {
            obs::setThreadLane("net-io", lp->index);
            loopMain(*lp);
        });
    }
    return port_;
}

void
NetServer::wake(IoLoop &loop)
{
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(loop.wakeFd, &one, sizeof(one));
}

void
NetServer::shutdown()
{
    if (!started_.load())
        return;
    gDrainDeadlineNs.store(
        nowNs() +
        static_cast<std::int64_t>(cfg_.drainTimeoutMs) * 1000000);
    stopping_.store(true);
    for (auto &loop : loops_)
        wake(*loop);
    for (auto &loop : loops_)
        if (loop->thread.joinable())
            loop->thread.join();
    for (auto &loop : loops_) {
        if (loop->epfd >= 0)
            ::close(loop->epfd);
        if (loop->wakeFd >= 0)
            ::close(loop->wakeFd);
        loop->epfd = loop->wakeFd = -1;
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    started_.store(false);
}

std::uint64_t
NetServer::requestsSeen() const
{
    return requests_.load();
}

void
NetServer::loopMain(IoLoop &loop)
{
    obs::Gauge &connGauge =
        obs::Registry::global().gauge("net.connections");
    bool listenArmed = loop.index == 0;
    epoll_event evs[64];
    for (;;) {
        const bool stopping = stopping_.load();
        const int timeout = stopping ? 10 : -1;
        const int n = ::epoll_wait(loop.epfd, evs,
                                   static_cast<int>(std::size(evs)),
                                   timeout);
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == loop.wakeFd) {
                std::uint64_t drain;
                while (::read(loop.wakeFd, &drain, sizeof(drain)) > 0) {
                }
                continue;
            }
            if (fd == listenFd_ && listenArmed) {
                acceptReady(loop);
                continue;
            }
            const auto it = loop.conns.find(fd);
            if (it == loop.conns.end())
                continue;
            std::shared_ptr<Conn> conn = it->second;
            if (evs[i].events & (EPOLLERR | EPOLLHUP)) {
                // Flush whatever the peer can still take, then drop.
                conn->wantClose = true;
                flushConn(loop, conn);
                if (!conn->closed.load())
                    closeConn(loop, conn);
                continue;
            }
            if (evs[i].events & EPOLLIN)
                handleReadable(loop, conn);
            if (!conn->closed.load() && (evs[i].events & EPOLLOUT))
                flushConn(loop, conn);
        }

        // Mailbox: adopt assigned connections, flush completions.
        std::vector<std::shared_ptr<Conn>> incoming, ready;
        {
            std::lock_guard<std::mutex> lock(loop.mu);
            incoming.swap(loop.incoming);
            ready.swap(loop.ready);
        }
        for (const auto &conn : incoming)
            adoptConn(loop, conn);
        for (const auto &conn : ready)
            if (!conn->closed.load())
                flushConn(loop, conn);

        if (stopping) {
            if (listenArmed) {
                epoll_ctl(loop.epfd, EPOLL_CTL_DEL, listenFd_, nullptr);
                listenArmed = false;
            }
            // Graceful drain: a connection may close once its
            // responses are out (or the drain deadline passes — a
            // peer that stopped reading does not get to pin the
            // server open).
            const bool expired = nowNs() > gDrainDeadlineNs.load();
            std::vector<std::shared_ptr<Conn>> closable;
            for (const auto &[fd, conn] : loop.conns) {
                // inflight first, buffer second: callbacks append
                // before decrementing, so idle-then-flushed cannot
                // miss a response (see flushConn's close decision).
                const bool idle = conn->inflight.load() == 0;
                bool flushed;
                {
                    std::lock_guard<std::mutex> lock(conn->outMu);
                    flushed = conn->outOff >= conn->outBuf.size();
                }
                if (expired || (idle && flushed))
                    closable.push_back(conn);
            }
            for (const auto &conn : closable)
                closeConn(loop, conn);
            if (loop.conns.empty())
                break;
        }
    }
    connGauge.add(0); // keep the gauge registered even if no conns
}

void
NetServer::acceptReady(IoLoop &loop)
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN or a transient accept error
        }
        if (stopping_.load()) {
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>(cfg_.maxFrameBytes);
        conn->fd = fd;
        IoLoop *target =
            loops_[nextLoop_.fetch_add(1) % loops_.size()].get();
        conn->loop = target;
        if (target == &loop) {
            adoptConn(loop, conn);
        } else {
            {
                std::lock_guard<std::mutex> lock(target->mu);
                target->incoming.push_back(conn);
            }
            wake(*target);
        }
    }
}

void
NetServer::adoptConn(IoLoop &loop, const std::shared_ptr<Conn> &conn)
{
    loop.conns.emplace(conn->fd, conn);
    obs::Registry::global().gauge("net.connections").add(1);
    obs::Registry::global().counter("net.accepted").inc();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd, &ev);
}

void
NetServer::closeConn(IoLoop &loop, const std::shared_ptr<Conn> &conn)
{
    if (conn->closed.exchange(true))
        return;
    epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    loop.conns.erase(conn->fd);
    obs::Registry::global().gauge("net.connections").add(-1);
}

void
NetServer::handleReadable(IoLoop &loop,
                          const std::shared_ptr<Conn> &conn)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n > 0) {
            const char *p = buf;
            std::size_t len = static_cast<std::size_t>(n);
            if (conn->mode == 0) {
                // Sniff the transport: a binary frame would need a
                // payload length of 0x20544547 (~518 MB, over any
                // sane frame ceiling) to collide with "GET ", so the
                // first four bytes decide unambiguously.
                conn->sniff.append(p, len);
                if (conn->sniff.size() < 4)
                    continue;
                conn->mode =
                    conn->sniff.compare(0, 4, "GET ") == 0 ? 2 : 1;
                if (conn->mode == 2) {
                    conn->httpBuf = std::move(conn->sniff);
                } else {
                    conn->decoder.feed(conn->sniff.data(),
                                       conn->sniff.size());
                }
                conn->sniff.clear();
                p = nullptr;
                len = 0;
            }
            if (conn->mode == 2) {
                if (len > 0)
                    conn->httpBuf.append(p, len);
                if (conn->httpBuf.size() > kMaxHttpHeaderBytes) {
                    closeConn(loop, conn);
                    return;
                }
                if (conn->httpBuf.find("\r\n\r\n") !=
                    std::string::npos)
                    handleHttp(conn);
                continue;
            }
            if (len > 0)
                conn->decoder.feed(p, len);
            Frame frame;
            for (;;) {
                const FrameDecoder::Result r =
                    conn->decoder.next(&frame);
                if (r == FrameDecoder::Result::NeedMore)
                    break;
                if (r == FrameDecoder::Result::Error) {
                    // Framing is unrecoverable on a byte stream:
                    // answer id 0 with BadRequest and hang up.
                    obs::Registry::global()
                        .counter("net.bad_frames")
                        .inc();
                    std::vector<std::uint8_t> resp;
                    encodeResponse(0, Status::BadRequest, nullptr,
                                   resp);
                    conn->wantClose = true;
                    queueAndFlush(conn, std::move(resp));
                    return;
                }
                handleInfer(conn, std::move(frame));
                if (conn->closed.load())
                    return;
            }
            continue;
        }
        if (n == 0) {
            // Peer EOF: stop reading, flush pending responses, then
            // close. In-flight requests still complete — a client
            // that writes its requests and shuts down its send side
            // gets every response.
            conn->halfClosed = true;
            flushConn(loop, conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (errno == EINTR)
            continue;
        closeConn(loop, conn);
        return;
    }
}

void
NetServer::handleInfer(const std::shared_ptr<Conn> &conn, Frame frame)
{
    requests_.fetch_add(1);
    obs::Registry::global().counter("net.requests").inc();
    const std::uint64_t id = frame.id;
    const bool timed = frame.type == MsgType::InferTimed;
    // Pre-execution failures answer in the request's dialect: a timed
    // request always gets a ResponseTimed back (zeroed breakdown),
    // so a client can branch on the type it asked for.
    const auto encodeFail = [timed](std::uint64_t rid, Status s,
                                    std::vector<std::uint8_t> &resp) {
        if (timed)
            encodeResponseTimed(rid, s, nullptr, 0, 0, 0, resp);
        else
            encodeResponse(rid, s, nullptr, resp);
    };
    if (frame.type != MsgType::Infer &&
        frame.type != MsgType::InferTimed) {
        std::vector<std::uint8_t> resp;
        encodeResponse(id, Status::BadRequest, nullptr, resp);
        queueAndFlush(conn, std::move(resp));
        return;
    }

    // Shape gate: accept [C, H, W] or [1, C, H, W] matching the
    // session, mirroring InferenceServer::submit's contract — but as
    // a BadRequest response, not an assert, since the bytes came off
    // the wire.
    const Shape &want = server_.session().inputShape();
    Shape shape = frame.shape;
    if (shape.size() == 3)
        shape.insert(shape.begin(), 1);
    if (shape != want) {
        std::vector<std::uint8_t> resp;
        encodeFail(id, Status::BadRequest, resp);
        queueAndFlush(conn, std::move(resp));
        return;
    }

    if (stopping_.load()) {
        std::vector<std::uint8_t> resp;
        encodeFail(id, Status::Shed, resp);
        queueAndFlush(conn, std::move(resp));
        return;
    }

    // The request's trace flow starts here, at wire ingress: the
    // net.ingress span plus every span recorded downstream (batcher,
    // worker, backend stages, response encode) carries this id.
    const std::uint64_t traceId = obs::mintTraceId();
    obs::TraceContext traceCtx(traceId);
    TWQ_SPAN("net.ingress");

    conn->inflight.fetch_add(1);
    inflight_.fetch_add(1);
    IoLoop *loop = conn->loop;
    const bool admitted = server_.submitTimed(
        TensorD(shape, std::move(frame.data)), traceId,
        [this, conn, loop, id, timed](TensorD &&out,
                                      std::exception_ptr err,
                                      const RequestTiming &t) {
            // Worker thread: encode the response into the
            // connection's outbound buffer, then hand the flush to
            // the owning I/O loop. The inflight decrements come
            // AFTER the bytes are buffered so the drain logic can
            // never observe "no inflight work" while a response has
            // yet to be made flushable. The executing worker set this
            // request's TraceContext, so the encode span joins its
            // flow.
            TWQ_SPAN("net.respond");
            if (!conn->closed.load()) {
                std::vector<std::uint8_t> resp;
                const Status s = err ? Status::Error : Status::Ok;
                const TensorD *body = err ? nullptr : &out;
                if (timed)
                    encodeResponseTimed(id, s, body, t.queueNs,
                                        t.batchNs, t.computeNs, resp);
                else
                    encodeResponse(id, s, body, resp);
                std::lock_guard<std::mutex> lock(conn->outMu);
                conn->outBuf.insert(conn->outBuf.end(), resp.begin(),
                                    resp.end());
            }
            conn->inflight.fetch_sub(1);
            inflight_.fetch_sub(1);
            {
                std::lock_guard<std::mutex> lock(loop->mu);
                loop->ready.push_back(conn);
            }
            wake(*loop);
        });
    if (!admitted) {
        conn->inflight.fetch_sub(1);
        inflight_.fetch_sub(1);
        obs::Registry::global().counter("net.shed").inc();
        std::vector<std::uint8_t> resp;
        encodeFail(id, Status::Shed, resp);
        queueAndFlush(conn, std::move(resp));
    }
}

std::string
NetServer::metricsBody(bool includeCompat) const
{
    // Refresh the trace-drop gauge at scrape time so operators see
    // ring-buffer truncation without a flush having happened.
    obs::Registry::global()
        .gauge("trace.dropped_events")
        .set(static_cast<std::int64_t>(
            obs::TraceCollector::global().droppedEvents()));
    obs::MetricsSnapshot snap = server_.metricsSnapshot();
    snap.merge(obs::Registry::global().snapshot());
    return snap.prometheusText(includeCompat);
}

namespace
{

/** Minimal JSON string escaping (names are identifiers in practice). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    out += '"';
    return out;
}

const char *
jsonBool(bool b)
{
    return b ? "true" : "false";
}

} // namespace

std::string
NetServer::statuszBody() const
{
    const Session &session = server_.session();
    const SessionConfig &sc = session.config();
    const RuntimeConfig &rc = server_.config();
    const ServerStats stats = server_.stats();
    std::ostringstream out;
    out << "{\n";
    out << " \"build\": {\"compiler\": " << jsonStr(__VERSION__)
        << ", \"obs_enabled\": " << jsonBool(obs::kEnabled)
        << ", \"perf_counters\": " << jsonBool(obs::perfAvailable())
        << ", \"plan_signature\": " << jsonStr(PlanCache::signature())
        << "},\n";
    out << " \"uptime_ns\": " << (nowNs() - startedAtNs_) << ",\n";
    out << " \"net\": {\"port\": " << port_
        << ", \"io_threads\": " << cfg_.ioThreads
        << ", \"requests\": " << requests_.load()
        << ", \"draining\": " << jsonBool(stopping_.load()) << "},\n";
    out << " \"runtime\": {\"threads\": " << rc.threads
        << ", \"max_batch\": " << rc.batch.maxBatch
        << ", \"max_wait_us\": " << rc.batch.maxWait.count()
        << ", \"pin_workers\": " << jsonBool(rc.pinWorkers)
        << ", \"max_pending\": " << rc.maxPending
        << ", \"intra_batch_parallel\": "
        << jsonBool(rc.intraBatchParallel)
        << ", \"slow_trace_threshold_ns\": " << rc.slowTraceThresholdNs
        << ", \"slow_trace_slots\": " << rc.slowTraceSlots << "},\n";
    out << " \"session\": {\"network\": "
        << jsonStr(session.network().name)
        << ", \"layer_count\": " << session.layerCount()
        << ", \"auto_select\": " << jsonBool(sc.autoSelect)
        << ", \"fuse_epilogues\": " << jsonBool(sc.fuseEpilogues)
        << ", \"race_f16\": " << jsonBool(sc.raceF16) << "},\n";
    out << " \"stats\": {\"submitted\": " << stats.submitted
        << ", \"completed\": " << stats.completed
        << ", \"batches\": " << stats.batches
        << ", \"shed\": " << stats.shed << "},\n";
    out << " \"layers\": [\n";
    for (std::size_t i = 0; i < session.layerCount(); ++i) {
        const LayerPlanInfo plan = session.layerPlan(i);
        const LayoutPlan &layout = session.layerLayout(i);
        out << "  {\"name\": " << jsonStr(plan.name)
            << ", \"engine\": "
            << jsonStr(convEngineName(plan.engine))
            << ", \"variant\": " << jsonStr(winoName(plan.variant))
            << ", \"layout_in\": "
            << jsonStr(actLayoutName(layout.in))
            << ", \"layout_out\": "
            << jsonStr(actLayoutName(layout.out))
            << ", \"plan_source\": " << jsonStr(plan.source)
            << ", \"probe_ns\": " << plan.probeNs
            << ", \"plan_margin_pct\": ";
        if (plan.marginPct)
            out << *plan.marginPct;
        else
            out << "null";
        if (plan.counters.valid) {
            out << ", \"perf\": {\"cycles\": " << plan.counters.cycles
                << ", \"instructions\": "
                << plan.counters.instructions
                << ", \"ipc\": " << plan.counters.ipc()
                << ", \"cache_refs\": " << plan.counters.cacheRefs
                << ", \"cache_misses\": " << plan.counters.cacheMisses
                << ", \"miss_rate\": " << plan.counters.missRate()
                << "}";
        } else {
            out << ", \"perf\": null";
        }
        out << "}" << (i + 1 < session.layerCount() ? "," : "")
            << "\n";
    }
    out << " ]\n}\n";
    return out.str();
}

std::string
NetServer::tracezBody() const
{
    const RuntimeConfig &rc = server_.config();
    const std::vector<SlowRequestRecord> recs =
        server_.slowRequests();
    std::ostringstream out;
    out << "{\n \"threshold_ns\": " << rc.slowTraceThresholdNs
        << ",\n \"slots\": " << rc.slowTraceSlots
        << ",\n \"records\": [\n";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SlowRequestRecord &r = recs[i];
        out << "  {\"id\": " << r.id << ", \"trace_id\": " << r.traceId
            << ", \"queue_ns\": " << r.timing.queueNs
            << ", \"batch_ns\": " << r.timing.batchNs
            << ", \"compute_ns\": " << r.timing.computeNs
            << ", \"total_ns\": " << r.totalNs
            << ", \"batch_size\": " << r.batchSize
            << ", \"when_ns\": " << r.whenNs << "}"
            << (i + 1 < recs.size() ? "," : "") << "\n";
    }
    out << " ]\n}\n";
    return out.str();
}

void
NetServer::handleHttp(const std::shared_ptr<Conn> &conn)
{
    obs::Registry::global().counter("net.http_requests").inc();
    // Request line: "GET <path>[?query] HTTP/1.x". This is an
    // introspection surface, not a web server: four fixed paths,
    // anything else 404s.
    std::string path;
    const std::size_t sp1 = conn->httpBuf.find(' ');
    if (sp1 != std::string::npos) {
        const std::size_t sp2 = conn->httpBuf.find(' ', sp1 + 1);
        if (sp2 != std::string::npos)
            path = conn->httpBuf.substr(sp1 + 1, sp2 - sp1 - 1);
    }
    std::string query;
    if (const std::size_t qm = path.find('?');
        qm != std::string::npos) {
        query = path.substr(qm + 1);
        path.resize(qm);
    }
    std::string body, status;
    std::string ctype = "text/plain; version=0.0.4; charset=utf-8";
    if (path == "/metrics" || path == "/") {
        status = "200 OK";
        body = metricsBody(query.find("compat=1") !=
                           std::string::npos);
    } else if (path == "/statusz") {
        status = "200 OK";
        ctype = "application/json";
        body = statuszBody();
    } else if (path == "/tracez") {
        status = "200 OK";
        ctype = "application/json";
        body = tracezBody();
    } else if (path == "/healthz") {
        // The load-balancer eviction signal: draining hosts answer
        // 503 so they fall out of rotation while in-flight requests
        // finish.
        if (stopping_.load()) {
            status = "503 Service Unavailable";
            body = "draining\n";
        } else {
            status = "200 OK";
            body = "ok\n";
        }
    } else {
        status = "404 Not Found";
        body = "try /metrics, /statusz, /healthz or /tracez\n";
    }
    std::string resp = "HTTP/1.0 " + status +
                       "\r\nContent-Type: " + ctype +
                       "\r\nContent-Length: " +
                       std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n" + body;
    conn->wantClose = true;
    queueAndFlush(conn,
                  std::vector<std::uint8_t>(resp.begin(), resp.end()));
}

void
NetServer::queueAndFlush(const std::shared_ptr<Conn> &conn,
                         std::vector<std::uint8_t> bytes)
{
    {
        std::lock_guard<std::mutex> lock(conn->outMu);
        conn->outBuf.insert(conn->outBuf.end(), bytes.begin(),
                            bytes.end());
    }
    flushConn(*conn->loop, conn);
}

void
NetServer::flushConn(IoLoop &loop, const std::shared_ptr<Conn> &conn)
{
    if (conn->closed.load())
        return;
    bool fatal = false;
    bool empty;
    {
        std::lock_guard<std::mutex> lock(conn->outMu);
        while (conn->outOff < conn->outBuf.size()) {
            const ssize_t n = ::send(
                conn->fd, conn->outBuf.data() + conn->outOff,
                conn->outBuf.size() - conn->outOff, MSG_NOSIGNAL);
            if (n > 0) {
                conn->outOff += static_cast<std::size_t>(n);
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            if (errno == EINTR)
                continue;
            fatal = true;
            break;
        }
        if (conn->outOff >= conn->outBuf.size()) {
            conn->outBuf.clear();
            conn->outOff = 0;
        } else if (conn->outOff > (std::size_t{1} << 20)) {
            conn->outBuf.erase(
                conn->outBuf.begin(),
                conn->outBuf.begin() +
                    static_cast<std::ptrdiff_t>(conn->outOff));
            conn->outOff = 0;
        }
        empty = conn->outBuf.empty();
    }
    if (fatal) {
        closeConn(loop, conn);
        return;
    }
    const bool readable = !conn->halfClosed;
    const bool writable = !empty;
    if (writable != conn->writeArmed || conn->halfClosed) {
        conn->writeArmed = writable;
        epoll_event ev{};
        ev.events = (readable ? EPOLLIN : 0u) |
                    (writable ? EPOLLOUT : 0u);
        ev.data.fd = conn->fd;
        epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    if (!conn->wantClose && !conn->halfClosed)
        return;
    // Close-after-flush decision. Order matters: a worker callback
    // appends its response BEFORE decrementing inflight, so reading
    // inflight == 0 first guarantees every response that will ever
    // exist is already visible in outBuf when we re-check it —
    // checking a pre-read `empty` here would race a callback landing
    // between the flush above and this test and drop its response.
    if (conn->inflight.load() != 0)
        return;
    bool stillEmpty;
    {
        std::lock_guard<std::mutex> lock(conn->outMu);
        stillEmpty = conn->outBuf.empty();
    }
    if (stillEmpty)
        closeConn(loop, conn);
}

#else // !__linux__ ------------------------------------------- stub

NetServer::NetServer(InferenceServer &server, const NetConfig &cfg)
    : server_(server), cfg_(cfg)
{}

NetServer::~NetServer() = default;

std::uint16_t
NetServer::start()
{
    twq_fatal("the network front door requires Linux epoll");
}

void
NetServer::shutdown()
{}

std::uint64_t
NetServer::requestsSeen() const
{
    return 0;
}

void NetServer::loopMain(IoLoop &) {}
void NetServer::acceptReady(IoLoop &) {}
void NetServer::adoptConn(IoLoop &, const std::shared_ptr<Conn> &) {}
void NetServer::handleReadable(IoLoop &, const std::shared_ptr<Conn> &)
{}
void NetServer::handleInfer(const std::shared_ptr<Conn> &, Frame) {}
void NetServer::handleHttp(const std::shared_ptr<Conn> &) {}
void NetServer::queueAndFlush(const std::shared_ptr<Conn> &,
                              std::vector<std::uint8_t>)
{}
void NetServer::flushConn(IoLoop &, const std::shared_ptr<Conn> &) {}
void NetServer::closeConn(IoLoop &, const std::shared_ptr<Conn> &) {}
void NetServer::wake(IoLoop &) {}

std::string
NetServer::metricsBody(bool) const
{
    return {};
}

std::string
NetServer::statuszBody() const
{
    return {};
}

std::string
NetServer::tracezBody() const
{
    return {};
}

#endif // __linux__

} // namespace twq::net
