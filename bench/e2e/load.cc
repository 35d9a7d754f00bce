#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/rng.hh"
#include "e2e.hh"
#include "net/client.hh"

namespace e2e
{

namespace
{

constexpr const char *kHost = "127.0.0.1";

/** Record one decoded response into `r`. */
void
account(LoadResult &r, const twq::net::Frame &f, const Corpus &corpus,
        std::size_t index, Sample s)
{
    switch (judge(static_cast<int>(f.status), f.shape, f.data, corpus,
                  index)) {
    case Verdict::Ok:
        s.queueNs = f.queueNs;
        s.batchNs = f.batchNs;
        s.computeNs = f.computeNs;
        r.ok.push_back(s);
        break;
    case Verdict::Shed:
        ++r.shed;
        break;
    case Verdict::Error:
        ++r.error;
        break;
    case Verdict::Wrong:
        ++r.wrong;
        break;
    }
}

LoadResult
openLoop(double rate, std::uint16_t port, const Corpus &corpus,
         double seconds, std::uint64_t seed, bool timed)
{
    const std::vector<std::uint64_t> at =
        poissonSchedule(rate, seconds, seed);
    const std::size_t n = at.size();
    LoadResult r;
    r.attempted = n;
    r.lateMs.assign(n, 0.0);
    // Written by the sender before each send() and read by the
    // receiver after the matching response, so every slot is set by
    // the time it is read; atomics keep that hand-off free of races.
    std::unique_ptr<std::atomic<std::uint64_t>[]> sent(
        new std::atomic<std::uint64_t>[n]);

    twq::net::Client client;
    client.connect(kHost, port);
    const std::uint64_t t0 = nowNs() + 1'000'000;
    std::thread sender([&] {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t due = t0 + at[i];
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due)));
            const std::uint64_t now = nowNs();
            r.lateMs[i] = nsToMs(static_cast<double>(now - due));
            sent[i].store(now, std::memory_order_release);
            client.send(corpus.inputs[i % corpus.inputs.size()], timed);
        }
    });

    std::size_t received = 0;
    std::uint64_t last = t0;
    for (; received < n; ++received) {
        twq::net::Frame f;
        if (!client.recv(&f))
            break;
        last = nowNs();
        const std::size_t i = f.id - 1; // ids count from 1 per client
        if (f.id == 0 || i >= n) {
            ++r.error;
            continue;
        }
        Sample s;
        s.dueNs = t0 + at[i];
        s.sentNs = sent[i].load(std::memory_order_acquire);
        s.doneNs = last;
        s.id = f.id;
        account(r, f, corpus, i % corpus.inputs.size(), s);
    }
    sender.join();
    r.error += n - received;
    r.windowNs = last - t0;
    return r;
}

LoadResult
closedWindow(std::size_t depth, std::uint16_t port,
             const Corpus &corpus, double seconds, bool timed)
{
    LoadResult r;
    twq::net::Client client;
    client.connect(kHost, port);
    std::vector<std::uint64_t> sentAt; // by id - 1
    std::uint64_t lastDone = 0;
    const auto send = [&] {
        const std::size_t i = sentAt.size();
        const std::uint64_t now = nowNs();
        sentAt.push_back(now);
        // The generator's own turnaround: response decoded to the
        // next send, the closed-loop counterpart of open-loop lateness.
        if (lastDone)
            r.lateMs.push_back(nsToMs(static_cast<double>(now - lastDone)));
        client.send(corpus.inputs[i % corpus.inputs.size()], timed);
    };
    const std::uint64_t t0 = nowNs();
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t k = 0; k < depth; ++k)
        send();
    std::size_t received = 0;
    while (received < sentAt.size()) {
        twq::net::Frame f;
        if (!client.recv(&f))
            break;
        ++received;
        lastDone = nowNs();
        const std::size_t i = f.id - 1;
        if (f.id == 0 || i >= sentAt.size()) {
            ++r.error;
            continue;
        }
        Sample s;
        s.dueNs = s.sentNs = sentAt[i];
        s.doneNs = lastDone;
        s.id = f.id;
        account(r, f, corpus, i % corpus.inputs.size(), s);
        if (lastDone < deadline)
            send();
    }
    r.attempted = sentAt.size();
    r.error += sentAt.size() - received;
    r.windowNs = lastDone - t0;
    return r;
}

/**
 * One closed-loop client: one request in flight until `count` are sent
 * or `deadline` passes (the first is always sent); `offset` staggers
 * its walk of the corpus and `idBase` its sample ids.
 */
LoadResult
closedClient(std::uint16_t port, const Corpus &corpus,
             std::uint64_t deadline, std::size_t count, std::size_t offset,
             std::uint64_t idBase, bool timed)
{
    LoadResult r;
    twq::net::Client client;
    client.connect(kHost, port);
    const std::uint64_t t0 = nowNs();
    std::uint64_t lastDone = t0;
    for (std::size_t k = 0; k < count; ++k) {
        const std::uint64_t sent = nowNs();
        if (k > 0 && sent >= deadline)
            break;
        if (k > 0)
            r.lateMs.push_back(nsToMs(static_cast<double>(sent - lastDone)));
        const std::size_t i = (offset + k) % corpus.inputs.size();
        ++r.attempted;
        const std::uint64_t id = client.send(corpus.inputs[i], timed);
        twq::net::Frame f;
        if (!client.recv(&f) || f.id != id) {
            ++r.error;
            break;
        }
        lastDone = nowNs();
        Sample s;
        s.dueNs = s.sentNs = sent;
        s.doneNs = lastDone;
        s.id = idBase + id;
        account(r, f, corpus, i, s);
    }
    r.windowNs = lastDone - t0;
    return r;
}

} // namespace

Verdict
judge(int status, const twq::Shape &shape,
      const std::vector<double> &data, const Corpus &corpus,
      std::size_t index)
{
    if (status == static_cast<int>(twq::net::Status::Shed))
        return Verdict::Shed;
    if (status != static_cast<int>(twq::net::Status::Ok))
        return Verdict::Error;
    if (shape != corpus.outShape ||
        payloadHash(data.data(), data.size()) != corpus.expect[index])
        return Verdict::Wrong;
    return Verdict::Ok;
}

std::vector<std::uint64_t>
poissonSchedule(double rate, double seconds, std::uint64_t seed)
{
    // A Poisson process conditioned on its count: rate * seconds
    // arrivals placed uniformly at random and sorted. The gaps keep
    // the exponential burstiness, and every seed offers the same load.
    twq::Rng rng(seed);
    const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
    std::vector<std::uint64_t> at(n);
    for (std::uint64_t &t : at)
        t = static_cast<std::uint64_t>(rng.uniform(0.0, seconds) * 1e9);
    std::sort(at.begin(), at.end());
    return at;
}

LoadResult
runLoad(const LoadSpec &spec, std::uint16_t port, const Corpus &corpus,
        double seconds, std::uint64_t seed, bool timed)
{
    switch (spec.kind) {
    case LoadKind::OpenPoisson:
        return openLoop(spec.rate, port, corpus, seconds, seed, timed);
    case LoadKind::ClosedWindow:
        return closedWindow(spec.depth, port, corpus, seconds, timed);
    case LoadKind::ClosedLoop:
        break;
    }
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    const std::size_t stride = corpus.inputs.size() / spec.clients;
    // The calling thread is client 0; at most one more thread runs.
    std::vector<LoadResult> parts(spec.clients);
    std::vector<std::thread> others;
    for (std::size_t c = 1; c < spec.clients; ++c)
        others.emplace_back([&, c] {
            parts[c] = closedClient(port, corpus, deadline, SIZE_MAX,
                                    c * stride, std::uint64_t{c} << 40,
                                    timed);
        });
    parts[0] = closedClient(port, corpus, deadline, SIZE_MAX, 0, 0, timed);
    for (std::thread &t : others)
        t.join();
    LoadResult r;
    for (LoadResult &p : parts) {
        r.ok.insert(r.ok.end(), p.ok.begin(), p.ok.end());
        r.lateMs.insert(r.lateMs.end(), p.lateMs.begin(), p.lateMs.end());
        r.attempted += p.attempted;
        r.shed += p.shed;
        r.error += p.error;
        r.wrong += p.wrong;
        r.windowNs = std::max(r.windowNs, p.windowNs);
    }
    return r;
}

LoadResult
runSequential(std::uint16_t port, const Corpus &corpus, std::size_t count,
              bool timed)
{
    return closedClient(port, corpus, ~std::uint64_t{0}, count, 0, 0,
                        timed);
}

} // namespace e2e
