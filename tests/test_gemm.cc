/**
 * @file
 * Unit tests for the blocked micro-kernel GEMM subsystem: blocked
 * kernels vs the naive reference across odd/edge shapes, integer
 * bit-exactness, PoolRunner task semantics, and bit-identity of
 * parallel (intra-batch sharded) execution vs serial for every
 * serving engine.
 */

#include <atomic>
#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "common/rng.hh"
#include "gemm/gemm.hh"
#include "models/zoo.hh"
#include "runtime/server.hh"
#include "tensor/im2col.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace
{

/// Edge shapes straddling the micro-kernel's Mr = 4 / Nr = 8 tiles.
const std::size_t kShapes[] = {1, 3, 4, 5, 7, 8, 9, 19, 33};

template <typename T>
std::vector<T>
randomVec(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<T> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<T>(rng.normal());
    return v;
}

template <>
std::vector<std::int64_t>
randomVec<std::int64_t>(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int64_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::int64_t>(
            std::lround(rng.normal(0.0, 50.0)));
    return v;
}

TEST(Gemm, BlockedMatchesReferenceDouble)
{
    std::uint64_t seed = 1;
    for (std::size_t m : kShapes) {
        for (std::size_t k : kShapes) {
            for (std::size_t n : kShapes) {
                const auto a = randomVec<double>(m * k, seed++);
                const auto b = randomVec<double>(k * n, seed++);
                std::vector<double> c(m * n), ref(m * n);
                gemm::gemm(a.data(), b.data(), c.data(), m, k, n);
                gemm::referenceGemm(a.data(), b.data(), ref.data(), m,
                                    k, n);
                for (std::size_t i = 0; i < m * n; ++i)
                    ASSERT_NEAR(c[i], ref[i], 1e-12)
                        << "m=" << m << " k=" << k << " n=" << n
                        << " i=" << i;
            }
        }
    }
}

TEST(Gemm, BlockedMatchesReferenceAcrossKPanels)
{
    // K spanning several kKc panels exercises the carried partial
    // sums through C.
    const std::size_t m = 5, k = 2 * gemm::kKc + 3, n = 9;
    const auto a = randomVec<double>(m * k, 91);
    const auto b = randomVec<double>(k * n, 92);
    std::vector<double> c(m * n), ref(m * n);
    gemm::gemm(a.data(), b.data(), c.data(), m, k, n);
    gemm::referenceGemm(a.data(), b.data(), ref.data(), m, k, n);
    for (std::size_t i = 0; i < m * n; ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-9);
}

TEST(Gemm, BlockedMatchesReferenceFloat)
{
    std::uint64_t seed = 7;
    for (std::size_t m : {1u, 3u, 5u, 8u, 17u}) {
        for (std::size_t k : {1u, 4u, 9u, 33u}) {
            for (std::size_t n : {1u, 7u, 8u, 19u}) {
                const auto a = randomVec<float>(m * k, seed++);
                const auto b = randomVec<float>(k * n, seed++);
                std::vector<float> c(m * n), ref(m * n);
                gemm::gemm(a.data(), b.data(), c.data(), m, k, n);
                gemm::referenceGemm(a.data(), b.data(), ref.data(), m,
                                    k, n);
                for (std::size_t i = 0; i < m * n; ++i)
                    ASSERT_NEAR(c[i], ref[i],
                                1e-4f * std::max(1.0f,
                                                 std::abs(ref[i])));
            }
        }
    }
}

TEST(Gemm, BlockedIsExactInt64)
{
    std::uint64_t seed = 13;
    for (std::size_t m : kShapes) {
        for (std::size_t k : {1u, 5u, 8u, 33u}) {
            for (std::size_t n : kShapes) {
                const auto a = randomVec<std::int64_t>(m * k, seed++);
                const auto b = randomVec<std::int64_t>(k * n, seed++);
                std::vector<std::int64_t> c(m * n), ref(m * n);
                gemm::gemm(a.data(), b.data(), c.data(), m, k, n);
                gemm::referenceGemm(a.data(), b.data(), ref.data(), m,
                                    k, n);
                ASSERT_EQ(c, ref) << "m=" << m << " k=" << k
                                  << " n=" << n;
            }
        }
    }
}

TEST(Gemm, TransposedVariantsMatchReference)
{
    std::uint64_t seed = 23;
    for (std::size_t m : {1u, 3u, 4u, 9u, 17u}) {
        for (std::size_t k : {1u, 5u, 8u, 21u}) {
            for (std::size_t n : {1u, 7u, 9u, 16u}) {
                // TN: A stored [k, m]; reference on the explicit
                // transpose.
                const auto at = randomVec<double>(k * m, seed++);
                const auto b = randomVec<double>(k * n, seed++);
                std::vector<double> a(m * k);
                for (std::size_t kk = 0; kk < k; ++kk)
                    for (std::size_t i = 0; i < m; ++i)
                        a[i * k + kk] = at[kk * m + i];
                std::vector<double> c(m * n), ref(m * n);
                gemm::gemmTN(at.data(), b.data(), c.data(), m, k, n);
                gemm::referenceGemm(a.data(), b.data(), ref.data(), m,
                                    k, n);
                for (std::size_t i = 0; i < m * n; ++i)
                    ASSERT_NEAR(c[i], ref[i], 1e-12);

                // NT: B stored [n, k]; reference on the explicit
                // transpose.
                const auto bt = randomVec<double>(n * k, seed++);
                std::vector<double> bn(k * n);
                for (std::size_t j = 0; j < n; ++j)
                    for (std::size_t kk = 0; kk < k; ++kk)
                        bn[kk * n + j] = bt[j * k + kk];
                gemm::gemmNT(a.data(), bt.data(), c.data(), m, k, n);
                gemm::referenceGemm(a.data(), bn.data(), ref.data(),
                                    m, k, n);
                for (std::size_t i = 0; i < m * n; ++i)
                    ASSERT_NEAR(c[i], ref[i], 1e-12);
            }
        }
    }
}

TEST(Gemm, Int8WideningIsExact)
{
    Rng rng(31);
    for (std::size_t m : {1u, 3u, 4u, 5u, 9u, 16u}) {
        for (std::size_t k : {1u, 7u, 27u, 64u}) {
            for (std::size_t n : {1u, 7u, 8u, 25u}) {
                std::vector<std::int8_t> a(m * k), b(k * n);
                for (auto &v : a)
                    v = static_cast<std::int8_t>(
                        rng.uniformInt(-127, 127));
                for (auto &v : b)
                    v = static_cast<std::int8_t>(
                        rng.uniformInt(-127, 127));
                std::vector<std::int32_t> c(m * n), ref(m * n);
                gemm::gemmS8S32(a.data(), b.data(), c.data(), m, k,
                                n);
                for (std::size_t i = 0; i < m; ++i)
                    for (std::size_t j = 0; j < n; ++j) {
                        std::int32_t s = 0;
                        for (std::size_t kk = 0; kk < k; ++kk)
                            s += static_cast<std::int32_t>(
                                     a[i * k + kk]) *
                                 static_cast<std::int32_t>(
                                     b[kk * n + j]);
                        ref[i * n + j] = s;
                    }
                ASSERT_EQ(c, ref)
                    << "m=" << m << " k=" << k << " n=" << n;
            }
        }
    }
}

TEST(Gemm, ZeroKOverwritesOutput)
{
    std::vector<double> c(6, 42.0);
    gemm::gemm<double>(nullptr, nullptr, c.data(), 2, 0, 3);
    for (double v : c)
        EXPECT_EQ(v, 0.0);
}

TEST(Gemm, CallerPackBufferMatchesThreadLocal)
{
    const std::size_t m = 9, k = 33, n = 19;
    const auto a = randomVec<double>(m * k, 41);
    const auto b = randomVec<double>(k * n, 42);
    std::vector<double> c1(m * n), c2(m * n);
    std::vector<double> pack(gemm::packSize());
    gemm::gemm(a.data(), b.data(), c1.data(), m, k, n);
    gemm::gemm(a.data(), b.data(), c2.data(), m, k, n, pack.data());
    EXPECT_EQ(c1, c2); // bitwise: the pack buffer is pure scratch
}

TEST(Gemm, KernelNameIsResolved)
{
    const std::string name = gemm::kernelName();
    EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar");
}

TEST(Gemm, PairSafeGateDetectsSaturatingRows)
{
    // 7-bit weights always pass: |a0| + |a1| <= 63 + 63 < 128.
    std::vector<std::int8_t> sevenBit(4 * 8);
    Rng rng(61);
    for (auto &v : sevenBit)
        v = static_cast<std::int8_t>(rng.uniformInt(-63, 63));
    EXPECT_TRUE(gemm::gemmS8PairSafe(sevenBit.data(), 4, 8));

    // The boundary |a0| + |a1| == 128 is still safe (255 * 128 =
    // 32640 < 2^15)...
    std::vector<std::int8_t> boundary = {100, -28, 64, 64};
    EXPECT_TRUE(gemm::gemmS8PairSafe(boundary.data(), 1, 4));
    // ...but 129 is not, even buried in an otherwise tame operand.
    std::vector<std::int8_t> hot(3 * 6, 1);
    hot[1 * 6 + 2] = 100;
    hot[1 * 6 + 3] = -29;
    EXPECT_FALSE(gemm::gemmS8PairSafe(hot.data(), 3, 6));
    // Pair alignment matters: 100 and -29 in DIFFERENT pairs is fine.
    std::vector<std::int8_t> split(3 * 6, 1);
    split[1 * 6 + 1] = 100;
    split[1 * 6 + 2] = -29;
    EXPECT_TRUE(gemm::gemmS8PairSafe(split.data(), 3, 6));
    // An odd K tail pairs with an implicit zero: any value is safe.
    std::vector<std::int8_t> oddTail = {1, 2, -128};
    EXPECT_TRUE(gemm::gemmS8PairSafe(oddTail.data(), 1, 3));
}

TEST(Gemm, PairGemmMatchesUngatedKernel)
{
    // Pair-safe A operands (drawn 7-bit, plus exact |a0|+|a1| == 128
    // boundary pairs) against full-range B including the extremes
    // that maximize the u8-biased pair sums: gemmS8S32Pair must be
    // bit-identical to the ungated exact kernel. K values cross the
    // kKc panel boundary and exercise the quad tail (k % 4 != 0);
    // n = 16/17 exercise the full vector tile and its edge.
    Rng rng(62);
    for (std::size_t m : {1u, 4u, 7u}) {
        for (std::size_t k : {1u, 3u, 8u, 514u, 1026u}) {
            for (std::size_t n : {1u, 7u, 16u, 17u, 33u}) {
                std::vector<std::int8_t> a(m * k), b(k * n);
                // The gate pairs adjacent k within each ROW, so the
                // boundary pairs must be drawn row-aligned.
                for (std::size_t i = 0; i < m; ++i)
                    for (std::size_t kk = 0; kk < k; kk += 2) {
                        std::int8_t *p = a.data() + i * k + kk;
                        const bool full = kk + 1 < k;
                        // Half the pairs sit exactly on the 128
                        // boundary.
                        if (full && rng.uniformInt(0, 1)) {
                            // |p0| + |p1| == 128 exactly; a magnitude
                            // of 128 is only representable negative.
                            const int lo = static_cast<int>(
                                rng.uniformInt(0, 128));
                            const int rest = 128 - lo;
                            const int s0 =
                                lo > 127 || rng.uniformInt(0, 1);
                            const int s1 =
                                rest > 127 || rng.uniformInt(0, 1);
                            p[0] = static_cast<std::int8_t>(s0 ? -lo
                                                               : lo);
                            p[1] = static_cast<std::int8_t>(
                                s1 ? -rest : rest);
                        } else {
                            p[0] = static_cast<std::int8_t>(
                                rng.uniformInt(-63, 63));
                            if (full)
                                p[1] = static_cast<std::int8_t>(
                                    rng.uniformInt(-63, 63));
                        }
                    }
                for (auto &v : b)
                    v = static_cast<std::int8_t>(
                        rng.uniformInt(-128, 127));
                // Saturate-stress: a full B row at each extreme.
                if (k >= 2) {
                    std::fill(b.begin(), b.begin() + n, -128);
                    std::fill(b.begin() + n, b.begin() + 2 * n, 127);
                }
                ASSERT_TRUE(gemm::gemmS8PairSafe(a.data(), m, k));
                std::vector<std::int32_t> c(m * n), ref(m * n);
                gemm::gemmS8S32Pair(a.data(), b.data(), c.data(), m, k,
                                    n);
                gemm::gemmS8S32Generic(a.data(), b.data(), ref.data(),
                                       m, k, n, n, n);
                ASSERT_EQ(c, ref)
                    << "m=" << m << " k=" << k << " n=" << n << " ("
                    << gemm::int8PairKernelName() << ")";
            }
        }
    }
}

TEST(Gemm, PairKernelNameIsResolved)
{
    const std::string name = gemm::int8PairKernelName();
    EXPECT_TRUE(name == "avx512-vnni" || name == "avx2-maddubs" ||
                name == "avx2" || name == "neon" || name == "scalar");
}

TEST(PoolRunner, RunsEveryTaskExactlyOnceWithValidLanes)
{
    ThreadPool pool(3);
    PoolRunner runner(pool, pool.size()); // external caller lane
    constexpr std::size_t kTasks = 257;
    std::vector<std::atomic<int>> counts(kTasks);
    std::atomic<bool> laneOk{true};
    runner.run(kTasks, [&](std::size_t i, std::size_t lane) {
        counts[i].fetch_add(1);
        if (lane >= runner.lanes())
            laneOk.store(false);
    });
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "task " << i;
    EXPECT_TRUE(laneOk.load());
    pool.shutdown();
}

TEST(ParallelTapGemm, BitIdenticalToSerial)
{
    const TensorD input = [&] {
        TensorD t({2, 5, 12, 12});
        Rng rng(55);
        rng.fillNormal(t.storage(), 0.0, 1.0);
        return t;
    }();
    const TensorD weights = [&] {
        TensorD t({7, 5, 3, 3});
        Rng rng(56);
        rng.fillNormal(t.storage(), 0.0, 0.2);
        return t;
    }();
    const auto w = winogradPrepareTapWeights(weights, WinoVariant::F2);

    TensorD V, U, Ms, Mp;
    winogradScatter(input, WinoVariant::F2, 1, V, U);
    winogradTapGemm(w, U, Ms);

    ThreadPool pool(3);
    PoolRunner runner(pool, pool.size());
    winogradTapGemm(w, U, Mp, &runner);
    pool.shutdown();
    EXPECT_TRUE(Ms == Mp); // bitwise
}

/**
 * The tentpole's acceptance claim: intra-batch parallel execution —
 * per-tap GEMMs and im2col output-channel blocks sharded across a
 * worker pool, pack buffers drawn from per-lane arenas — produces
 * bit-identical session outputs for every engine.
 */
class ParallelVsSerial : public ::testing::TestWithParam<ConvEngine>
{};

TEST_P(ParallelVsSerial, SessionRunIsBitIdentical)
{
    SessionConfig cfg;
    cfg.defaultEngine = GetParam();
    const Session session(microServeNet(12, 6), cfg);

    TensorD batch({3, session.inputShape()[1], session.inputShape()[2],
                   session.inputShape()[3]});
    Rng rng(77);
    rng.fillNormal(batch.storage(), 0.0, 1.0);

    ScratchArena serialArena;
    const TensorD serial = session.run(batch, serialArena);

    ThreadPool pool(3);
    std::vector<ScratchArena> lanes(pool.size() + 1);
    ArenaPackPool packs(lanes);
    PoolRunner runner(pool, pool.size());
    RunContext ctx;
    ctx.runner = &runner;
    ctx.packs = &packs;
    ctx.minParallelMacs = 0; // shard every layer
    ScratchArena parallelArena;
    const TensorD parallel = session.run(batch, parallelArena, ctx);
    pool.shutdown();

    EXPECT_TRUE(serial == parallel)
        << "engine " << convEngineName(GetParam())
        << ": sharded execution diverged from serial";
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ParallelVsSerial,
    ::testing::Values(ConvEngine::Im2col, ConvEngine::WinogradBlocked,
                      ConvEngine::WinogradBlockedInt8,
                      ConvEngine::Im2colInt8),
    [](const ::testing::TestParamInfo<ConvEngine> &info) {
        switch (info.param) {
          case ConvEngine::Im2col:
            return "Im2col";
          case ConvEngine::WinogradBlocked:
            return "WinogradBlocked";
          case ConvEngine::WinogradBlockedInt8:
            return "WinogradBlockedInt8";
          case ConvEngine::Im2colInt8:
            return "Im2colInt8";
          default:
            return "Unknown";
        }
    });

} // namespace
} // namespace twq
