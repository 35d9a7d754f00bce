#include <algorithm>
#include <cstdio>
#include <limits>

#include "e2e.hh"

namespace e2e
{

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
    for (const Span &s : spans_)
        origin = std::min(origin, s.startNs);
    const auto us = [&](std::uint64_t ns) {
        return static_cast<double>(ns - origin) * 1e-3;
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"twq_e2e\"}},\n"
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":1,\"args\":{\"name\":\"replay\"}},\n"
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":2,\"args\":{\"name\":\"requests\"}}");
    for (const Span &s : spans_) {
        if (s.requestId == 0) {
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                         s.name.c_str(), us(s.startNs),
                         static_cast<double>(s.durNs) * 1e-3);
            continue;
        }
        // Nestable async begin/end pairs: spans sharing a request id
        // nest on that request's own track.
        for (const char *ph : {"b", "e"})
            std::fprintf(
                f,
                ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"%s\","
                "\"id\":\"0x%llx\",\"pid\":1,\"tid\":2,\"ts\":%.3f,"
                "\"args\":{\"request\":%llu}}",
                s.name.c_str(), ph,
                static_cast<unsigned long long>(s.requestId),
                us(ph[0] == 'b' ? s.startNs : s.startNs + s.durNs),
                static_cast<unsigned long long>(s.requestId));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
logRequest(SpanLog &log, const Sample &s)
{
    const std::uint64_t rtt = s.doneNs - s.sentNs;
    const std::uint64_t server =
        std::min(rtt, s.queueNs + s.batchNs + s.computeNs);
    std::uint64_t t = s.sentNs + (rtt - server) / 2;
    log.add("client.rtt", s.sentNs, rtt, s.id);
    log.add("server.queue", t, s.queueNs, s.id);
    t += s.queueNs;
    log.add("server.compute", t, s.computeNs, s.id);
    t += s.computeNs;
    log.add("server.batch", t, s.batchNs, s.id);
}

} // namespace e2e
