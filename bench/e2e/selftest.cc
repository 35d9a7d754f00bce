/**
 * @file
 * `twq_e2e --selftest`: the benchmark's own checks, in a few seconds.
 * The statistics and schedule helpers against known values, the
 * response checker against a flipped bit and a shed response, the
 * accuracy gate against a wrong engine, the metric lists against
 * BENCHMARK.json, the spawned-server protocol,
 * and a small traced run whose spans must reconcile with the client's
 * round trips and whose stage and layer times must add up to the layer
 * and session times.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "common/stats.hh"
#include "e2e.hh"
#include "net/protocol.hh"

namespace e2e
{

namespace
{

int gFailures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        ++gFailures;
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

/**
 * The string values of `key` in each object of the top-level array
 * `section` of a BENCHMARK.json document. The file is the benchmark's
 * own, written by hand with flat objects, so a scan suffices.
 */
std::vector<std::string>
declared(const std::string &json, const std::string &section,
         const std::string &key)
{
    std::vector<std::string> out;
    std::size_t p = json.find("\"" + section + "\"");
    if (p == std::string::npos)
        return out;
    p = json.find('[', p);
    const std::size_t end = json.find(']', p);
    const std::string k = "\"" + key + "\"";
    while (p != std::string::npos && p < end) {
        p = json.find(k, p);
        if (p == std::string::npos || p > end)
            break;
        const std::size_t q0 = json.find('"', json.find(':', p) + 1);
        const std::size_t q1 = json.find('"', q0 + 1);
        out.push_back(json.substr(q0 + 1, q1 - q0 - 1));
        p = q1 + 1;
    }
    return out;
}

void
checkStatistics()
{
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    check(twq::percentile(hundred, 0.50) == 50 &&
              twq::percentile(hundred, 0.90) == 90 &&
              twq::percentile(hundred, 0.99) == 99 &&
              twq::percentile({7.0}, 0.99) == 7,
          "nearest-rank percentile on 1..100 and a single sample");
    check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
          "median of odd and even samples");
    double q1 = 0, q3 = 0;
    quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, &q1, &q3);
    bool ok = near(q1, 2.75) && near(q3, 8.25);
    quartiles({4, 1, 3, 2}, &q1, &q3);
    ok = ok && near(q1, 1.25) && near(q3, 3.75);
    check(ok, "quartiles match statistics.quantiles(n=4)");
}

void
checkSchedule()
{
    const auto a = poissonSchedule(200.0, 5.0, 42);
    const auto b = poissonSchedule(200.0, 5.0, 42);
    const auto c = poissonSchedule(200.0, 5.0, 43);
    check(a == b, "a seed always gives the same Poisson schedule");
    check(a != c, "different seeds give different schedules");
    // Exponential gaps: mean 1/rate and a coefficient of variation
    // near 1 (a paced schedule would have 0).
    std::vector<double> gaps;
    for (std::size_t i = 1; i < a.size(); ++i)
        gaps.push_back(static_cast<double>(a[i] - a[i - 1]) * 1e-9);
    const twq::SampleStats st = twq::computeStats(gaps);
    check(a.size() == 1000 && std::is_sorted(a.begin(), a.end()) &&
              a.back() < 5'000'000'000ull,
          "schedule holds exactly rate x seconds arrivals, in order");
    char what[160];
    std::snprintf(what, sizeof(what),
                  "gaps are exponential (mean %.2f ms, CV %.2f)",
                  st.mean * 1e3, st.stddev / st.mean);
    check(std::abs(st.mean - 0.005) < 0.0005 &&
              std::abs(st.stddev / st.mean - 1.0) < 0.1,
          what);
}

void
checkChecker()
{
    Corpus c;
    c.outShape = {1, 2, 2, 2};
    std::vector<double> out = {0.5, -1.25, 3.0, 0.0, 1e-300, -0.0, 7, 8};
    c.expect.push_back(payloadHash(out.data(), out.size()));
    const int okStatus = static_cast<int>(twq::net::Status::Ok);
    check(judge(okStatus, c.outShape, out, c, 0) == Verdict::Ok,
          "checker accepts the expected response");
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> flipped = out;
        std::uint64_t bits;
        std::memcpy(&bits, &flipped[i], sizeof(bits));
        bits ^= std::uint64_t{1} << (i * 7 % 64);
        std::memcpy(&flipped[i], &bits, sizeof(bits));
        if (judge(okStatus, c.outShape, flipped, c, 0) != Verdict::Wrong) {
            check(false, "checker flags a flipped bit in element " +
                             std::to_string(i));
            return;
        }
    }
    check(true, "checker flags one flipped bit in any element");
    check(judge(static_cast<int>(twq::net::Status::Shed), {}, {}, c, 0) ==
              Verdict::Shed,
          "checker counts a shed response");
    check(judge(static_cast<int>(twq::net::Status::Error), {}, {}, c, 0) ==
              Verdict::Error,
          "checker counts an error response");
    check(judge(okStatus, {1, 8}, out, c, 0) == Verdict::Wrong,
          "checker flags a wrong shape");
}

void
checkAccuracyGate()
{
    const double nan = std::nan("");
    // An all-zero output scores exactly 1.
    check(accuracyOk(true, 0.8094, 1.03) && !accuracyOk(true, 0.83, 0.9) &&
              !accuracyOk(true, 1.0, 1.0) && !accuracyOk(true, nan, 0.0),
          "int8 plans pass at the blocked F4 error and fail above it");
    check(accuracyOk(false, 1e-15, 1e-14) &&
              !accuracyOk(false, 1e-15, 1e-8) &&
              !accuracyOk(false, nan, 0.0),
          "FP plans pass within 1e-9 of the fp64 reference only");
    const NetSetup fp = microFpPinned();
    NetSetup int8 = fp;
    int8.cfg.defaultEngine = twq::ConvEngine::WinogradBlockedInt8;
    check(checkAccuracy(twq::Session(fp.net, fp.cfg), fp),
          "the pinned micro8 plan matches the fp64 reference");
    check(!checkAccuracy(twq::Session(int8.net, int8.cfg), fp),
          "an int8 plan served for an FP net is flagged");
}

void
checkDeclarations(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    check(!json.empty(), "read " + path);
    const auto same = [&](const char *section,
                          const std::vector<MetricDecl> &decls) {
        const auto names = declared(json, section, "name");
        const auto units = declared(json, section, "unit");
        bool ok = names.size() == decls.size() &&
                  units.size() == decls.size();
        for (std::size_t i = 0; ok && i < decls.size(); ++i)
            ok = names[i] == decls[i].name && units[i] == decls[i].unit;
        check(ok, std::string("every ") + section + " metric of " + path +
                      " is printed with its unit (" +
                      std::to_string(names.size()) + " declared, " +
                      std::to_string(decls.size()) + " printed)");
    };
    same("end_to_end", endToEndDecls());
    same("per_layer", perLayerDecls());
    std::vector<std::string> names;
    for (const Workload &w : workloads())
        names.push_back(w.name);
    check(declared(json, "workloads", "name") == names,
          "BENCHMARK.json lists the workloads the binary runs");
}

void
checkTraceReconciles()
{
    const NetSetup ns = microFpPinned();
    auto session = std::make_shared<const twq::Session>(ns.net, ns.cfg);
    const Corpus corpus = makeCorpus(*session, 16, 5);
    LoadResult r;
    {
        Serving serving(session);
        r = runSequential(serving.port(), corpus, 200, true);
    }
    SpanLog log;
    for (const Sample &s : r.ok)
        logRequest(log, s);
    std::map<std::uint64_t, std::map<std::string, const SpanLog::Span *>>
        byId;
    for (const SpanLog::Span &sp : log.spans())
        byId[sp.requestId][sp.name] = &sp;
    bool ok = r.ok.size() == 200 && byId.size() == 200;
    for (const Sample &s : r.ok) {
        const auto &sp = byId[s.id];
        const SpanLog::Span *rtt = sp.at("client.rtt");
        const std::uint64_t server = s.queueNs + s.batchNs + s.computeNs;
        const std::uint64_t clientRtt = s.doneNs - s.sentNs;
        // The server's window must fit inside the client's round trip;
        // the rest of the round trip is wire and framing.
        ok = ok && server <= clientRtt && rtt->durNs == clientRtt &&
             sp.at("server.queue")->durNs == s.queueNs &&
             sp.at("server.batch")->durNs == s.batchNs &&
             sp.at("server.compute")->durNs == s.computeNs &&
             s.queueNs + s.batchNs + s.computeNs + (clientRtt - server) ==
                 rtt->durNs;
        for (const auto &[name, child] : sp)
            ok = ok && child->startNs >= rtt->startNs &&
                 child->startNs + child->durNs <=
                     rtt->startNs + rtt->durNs;
    }
    check(ok, "queue + batch + compute + wire = RTT for 200 traced "
              "requests, each span nested in its round trip");

    for (const NetSetup &n : {wideFpPinned(), cifarInt8Pinned()}) {
        const twq::Session s(n.net, n.cfg);
        const NetProfile prof = profileNet(s, 1, true, 1500.0, nullptr);
        double sum = 0.0, split = 0.0, stages = 0.0, worst = 0.0;
        for (const LayerTime &l : prof.layers) {
            sum += l.ms;
            if (l.stages.empty())
                continue;
            split += l.ms;
            stages += l.stageMs();
            worst = std::max(worst, std::abs(l.stageMs() - l.ms) / l.ms);
        }
        // The stages are reconciled over the net's split layers: one
        // small layer's split swings on its own (cifar20's 0.2 ms conv1
        // read 0% to -18% off its layer over three profiles of one
        // session), which says nothing about a missing or extra stage.
        const double run = prof.sessionMs;
        char what[200];
        std::snprintf(what, sizeof(what),
                      "%s at batch 1: stage sum %.3f ms within 15%% of its "
                      "split layers' %.3f ms (worst single layer %.1f%%)",
                      n.key.c_str(), stages, split, 100.0 * worst);
        check(std::abs(stages - split) <= 0.15 * split, what);
        std::snprintf(what, sizeof(what),
                      "%s at batch 1: layer sum %.3f ms within 15%% of "
                      "session.run %.3f ms",
                      n.key.c_str(), sum, run);
        check(std::abs(sum - run) <= 0.15 * run, what);
    }
}

/** The spawned-server protocol: verified answers, counts, memory. */
void
checkServerProcess(const std::string &self)
{
    const Workload &w = *findWorkload("micro-closed");
    const twq::Session ref(w.nets[0].net, w.nets[0].cfg);
    const Corpus corpus = makeCorpus(ref, 8, 9);
    ServerProcess server(self, w.name, 0);
    const LoadResult r = runSequential(server.port(), corpus, 50, false);
    const auto [completed, batches] = server.counts();
    const double rss = server.stop();
    check(server.accurate() && r.ok.size() == 50 && r.failed() == 0 &&
              completed == 50 && batches >= 1 && batches <= 50 && rss > 0.0,
          "a spawned server answers bit-identically and reports " +
              std::to_string(completed) + " requests in " +
              std::to_string(batches) + " batches, peak " +
              std::to_string(static_cast<int>(rss)) + " MiB");
}

} // namespace

int
runSelftest(const std::string &benchmarkJson, const std::string &self)
{
    const std::uint64_t t0 = nowNs();
    std::printf("twq_e2e selftest\n");
    checkStatistics();
    checkSchedule();
    checkChecker();
    checkAccuracyGate();
    checkDeclarations(benchmarkJson);
    checkServerProcess(self);
    checkTraceReconciles();
    std::printf("selftest: %d failure(s) in %.2f s\n", gFailures,
                nsToS(static_cast<double>(nowNs() - t0)));
    return gFailures == 0 ? 0 : 1;
}

} // namespace e2e
