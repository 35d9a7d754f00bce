#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>

namespace twq::obs
{

// HistogramSnapshot is plain data shared by both builds: a TWQ_NO_OBS
// binary can still merge and render snapshots it received from an
// instrumented peer, so the bucket math stays real even when the
// recording side is stubbed out.
std::size_t
HistogramSnapshot::binIndex(std::uint64_t v)
{
    // bit_width(v) - 1 == floor(log2(v)) for v >= 1; 0 and 1 share
    // bucket 0 so the edges line up as [0,2), [2,4), [4,8), ...
    if (v < 2)
        return 0;
    return static_cast<std::size_t>(std::bit_width(v)) - 1;
}

std::uint64_t
HistogramSnapshot::binLower(std::size_t b)
{
    return b == 0 ? 0 : (std::uint64_t{1} << b);
}

std::uint64_t
HistogramSnapshot::binUpper(std::size_t b)
{
    if (b >= kHistBins - 1)
        return ~std::uint64_t{0};
    return std::uint64_t{1} << (b + 1);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &o)
{
    for (std::size_t b = 0; b < kHistBins; ++b)
        bins[b] += o.bins[b];
    count += o.count;
    sum += o.sum;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank, the same convention as twq::percentile: the
    // quantile is the value of the sample at rank ceil(q*n), 1-based.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);

    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistBins; ++b) {
        if (bins[b] == 0)
            continue;
        if (seen + bins[b] >= rank) {
            // Interpolate the rank's position inside this bucket:
            // samples are assumed uniform over [lower, upper).
            const double within =
                static_cast<double>(rank - seen - 1) + 0.5;
            const double frac =
                within / static_cast<double>(bins[b]);
            const double lo = static_cast<double>(binLower(b));
            const double hi = static_cast<double>(binUpper(b));
            return lo + frac * (hi - lo);
        }
        seen += bins[b];
    }
    return static_cast<double>(binUpper(kHistBins - 1));
}

double
HistogramSnapshot::mean() const
{
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
}

namespace
{

std::string
sanitizeMetricName(const std::string &name)
{
    std::string out = "twq_";
    for (char c : name)
        out += (c == '.' || c == '-' || c == ':') ? '_' : c;
    return out;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
escapeLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/**
 * Split `layer.<net>.<layer>.latency_ns` into its net / layer label
 * values. The net segment never contains a dot (network names are
 * identifiers), so everything between the first dot after "layer."
 * and the ".latency_ns" suffix belongs to the layer name.
 */
bool
parseLayerHistName(const std::string &name, std::string &net,
                   std::string &layer)
{
    constexpr std::string_view prefix = "layer.";
    constexpr std::string_view suffix = ".latency_ns";
    if (name.size() <= prefix.size() + suffix.size())
        return false;
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    const std::string mid = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    const std::size_t dot = mid.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == mid.size())
        return false;
    net = mid.substr(0, dot);
    layer = mid.substr(dot + 1);
    return true;
}

const char *
helpFor(const std::string &family)
{
    static const std::map<std::string, const char *> table = {
        {"twq_layer_latency_ns",
         "Per-layer forward latency in nanoseconds, labelled by "
         "network and layer"},
        {"twq_server_request_latency_ns",
         "End-to-end request latency (enqueue to respond) in "
         "nanoseconds"},
        {"twq_server_queue_wait_ns",
         "Time a request waited in the batcher queue in nanoseconds"},
        {"twq_server_batch_size", "Requests per executed batch"},
        {"twq_server_shed",
         "Requests rejected because the pending queue was full"},
        {"twq_net_requests", "Inference frames accepted off the wire"},
        {"twq_net_shed",
         "Inference frames shed at the network front door"},
        {"twq_trace_dropped_events",
         "Trace events overwritten by ring wrap-around since enable"},
        {"twq_plan_cache_hit", "Plan cache lookups that hit"},
        {"twq_plan_cache_miss", "Plan cache lookups that missed"},
        {"twq_plan_cache_stale_reject",
         "Plan cache files rejected for a stale signature"},
        {"twq_autoselect_cache_hit",
         "autoSelect decisions served from the plan cache"},
        {"twq_autoselect_cache_miss",
         "autoSelect decisions that required a live probe"},
        {"twq_autoselect_memo_hit",
         "autoSelect decisions adopted from an identical layer's race "
         "in the same build"},
    };
    auto it = table.find(family);
    return it != table.end() ? it->second : "twq runtime metric";
}

} // namespace

void
MetricsSnapshot::merge(const MetricsSnapshot &o)
{
    for (const auto &[name, v] : o.counters)
        counters[name] += v;
    for (const auto &[name, v] : o.gauges)
        gauges[name] = v;
    for (const auto &[name, h] : o.histograms)
        histograms[name].merge(h);
}

std::string
MetricsSnapshot::prometheusText(bool includeCompat) const
{
    std::ostringstream out;
    std::set<std::string> announced;
    // HELP/TYPE belong to the family and must appear exactly once,
    // even when many labelled series (per-layer histograms) share it.
    const auto announce = [&](const std::string &family,
                              const char *type) {
        if (!announced.insert(family).second)
            return;
        out << "# HELP " << family << " " << helpFor(family) << "\n";
        out << "# TYPE " << family << " " << type << "\n";
    };
    const auto summary = [&](const std::string &family,
                             const std::string &labels,
                             const HistogramSnapshot &h) {
        announce(family, "summary");
        for (double q : {0.5, 0.99, 0.999}) {
            out << family << "{" << labels
                << (labels.empty() ? "" : ",") << "quantile=\"" << q
                << "\"} " << h.quantile(q) << "\n";
        }
        const std::string sel =
            labels.empty() ? "" : "{" + labels + "}";
        out << family << "_sum" << sel << " " << h.sum << "\n";
        out << family << "_count" << sel << " " << h.count << "\n";
    };

    for (const auto &[name, v] : counters) {
        const std::string p = sanitizeMetricName(name);
        announce(p, "counter");
        out << p << " " << v << "\n";
    }
    for (const auto &[name, v] : gauges) {
        const std::string p = sanitizeMetricName(name);
        announce(p, "gauge");
        out << p << " " << v << "\n";
    }
    for (const auto &[name, h] : histograms) {
        std::string net, layer;
        if (parseLayerHistName(name, net, layer)) {
            summary("twq_layer_latency_ns",
                    "net=\"" + escapeLabelValue(net) + "\",layer=\"" +
                        escapeLabelValue(layer) + "\"",
                    h);
            // Deprecated flattened names, kept one release behind a
            // compat flag so dashboards can migrate to the labelled
            // family.
            if (includeCompat)
                summary(sanitizeMetricName(name), "", h);
        } else {
            summary(sanitizeMetricName(name), "", h);
        }
    }
    return out.str();
}

#ifndef TWQ_NO_OBS

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    for (std::size_t b = 0; b < kHistBins; ++b)
        s.bins[b] = bins_[b].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    // A snapshot racing record() can see the bin increment but not
    // yet the count increment (or vice versa); clamp so quantile()
    // never walks past its own bins.
    std::uint64_t binned = 0;
    for (std::size_t b = 0; b < kHistBins; ++b)
        binned += s.bins[b];
    s.count = std::min(s.count, binned);
    return s;
}

void
Histogram::reset()
{
    for (auto &b : bins_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

Registry &
Registry::global()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counterIdx_.find(name);
    if (it != counterIdx_.end())
        return *it->second;
    Counter &c = counters_.emplace_back();
    counterIdx_.emplace(std::string(name), &c);
    return c;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gaugeIdx_.find(name);
    if (it != gaugeIdx_.end())
        return *it->second;
    Gauge &g = gauges_.emplace_back();
    gaugeIdx_.emplace(std::string(name), &g);
    return g;
}

Histogram &
Registry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histIdx_.find(name);
    if (it != histIdx_.end())
        return *it->second;
    Histogram &h = hists_.emplace_back();
    histIdx_.emplace(std::string(name), &h);
    return h;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot s;
    for (const auto &[name, c] : counterIdx_)
        s.counters[name] = c->value();
    for (const auto &[name, g] : gaugeIdx_)
        s.gauges[name] = g->value();
    for (const auto &[name, h] : histIdx_)
        s.histograms[name] = h->snapshot();
    return s;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &c : counters_)
        c.reset();
    for (auto &g : gauges_)
        g.reset();
    for (auto &h : hists_)
        h.reset();
}

#endif // TWQ_NO_OBS

} // namespace twq::obs
