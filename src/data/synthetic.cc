#include "data/synthetic.hh"

#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "common/rng.hh"

namespace twq
{

Dataset
Dataset::slice(std::size_t begin, std::size_t count) const
{
    twq_assert(begin + count <= size(), "slice out of range");
    const std::size_t c = images.dim(1);
    const std::size_t h = images.dim(2);
    const std::size_t w = images.dim(3);
    Dataset out;
    out.images = TensorD({count, c, h, w});
    out.labels.assign(labels.begin() +
                          static_cast<std::ptrdiff_t>(begin),
                      labels.begin() +
                          static_cast<std::ptrdiff_t>(begin + count));
    const std::size_t stride = c * h * w;
    for (std::size_t i = 0; i < count * stride; ++i)
        out.images[i] = images[(begin)*stride + i];
    return out;
}

Dataset
makeSynthetic(std::size_t count, const SyntheticConfig &cfg)
{
    Rng rng(cfg.seed);
    Dataset ds;
    ds.images = TensorD(
        {count, cfg.channels, cfg.imageSize, cfg.imageSize});
    ds.labels.resize(count);

    const double s = static_cast<double>(cfg.imageSize);
    for (std::size_t i = 0; i < count; ++i) {
        const int k = static_cast<int>(i % cfg.classes);
        ds.labels[i] = k;
        // Class signature: orientation, frequency, channel mixing.
        const double theta =
            std::numbers::pi * static_cast<double>(k) /
            static_cast<double>(cfg.classes);
        const double freq = 1.0 + static_cast<double>(k % 3);
        const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
        for (std::size_t c = 0; c < cfg.channels; ++c) {
            // Deterministic per-class channel amplitude in [0.4, 1].
            const double amp = 0.4 +
                0.6 * (0.5 + 0.5 * std::cos(theta * 3.0 +
                                            static_cast<double>(c)));
            for (std::size_t y = 0; y < cfg.imageSize; ++y) {
                for (std::size_t x = 0; x < cfg.imageSize; ++x) {
                    const double u =
                        (static_cast<double>(x) * std::cos(theta) +
                         static_cast<double>(y) * std::sin(theta)) / s;
                    const double v = amp *
                        std::sin(2.0 * std::numbers::pi * freq * u +
                                 phase);
                    // Scale a unit draw rather than pass `noise` as
                    // the stddev, which std::normal_distribution
                    // requires to be positive: noise = 0 is valid.
                    ds.images.at(i, c, y, x) =
                        v + cfg.noise * rng.normal();
                }
            }
        }
    }
    return ds;
}

DataSplits
makeSplits(std::size_t train_count, std::size_t val_count,
           std::size_t test_count, const SyntheticConfig &cfg)
{
    DataSplits s;
    SyntheticConfig c = cfg;
    s.train = makeSynthetic(train_count, c);
    c.seed = cfg.seed + 7919;
    s.val = makeSynthetic(val_count, c);
    c.seed = cfg.seed + 104729;
    s.test = makeSynthetic(test_count, c);
    return s;
}

} // namespace twq
