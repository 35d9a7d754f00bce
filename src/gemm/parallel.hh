/**
 * @file
 * Minimal parallel-execution vocabulary for sharded GEMM work.
 *
 * The GEMM layer must not depend on the serving runtime, yet the
 * runtime wants to shard the t*t independent per-tap products (and
 * im2col's output-channel blocks) across its worker pool. These two
 * interfaces are the seam: the runtime implements them (PoolRunner
 * over its ThreadPool, ArenaPackPool over per-worker ScratchArenas)
 * and hands them down through ConvBackend::run; kernels and lowering
 * code only ever see the abstractions.
 */

#ifndef TWQ_GEMM_PARALLEL_HH
#define TWQ_GEMM_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace twq
{
namespace gemm
{

/**
 * Executes a batch of independent tasks, with the calling thread
 * participating — the caller can always finish the whole batch alone,
 * so a runner backed by a busy pool can never deadlock.
 */
class ParallelRunner
{
  public:
    virtual ~ParallelRunner() = default;

    /** Helper threads that may join in beyond the calling thread. */
    virtual std::size_t workers() const = 0;

    /**
     * Upper bound (exclusive) on the lane ids passed to task
     * functions. A lane is unique per concurrently-executing thread,
     * so per-lane resources (pack buffers) need no locking.
     */
    virtual std::size_t lanes() const = 0;

    /**
     * Run fn(task, lane) for every task in [0, n); blocks until all
     * tasks have completed. Tasks must be independent.
     */
    virtual void run(std::size_t n,
                     const std::function<void(std::size_t task,
                                              std::size_t lane)> &fn) = 0;
};

/**
 * Per-lane pack-buffer provider: each call returns a buffer of
 * gemm::packSize() elements private to `lane`. Backed by ScratchArena
 * slots in the serving runtime so sharded GEMMs stay allocation-free;
 * a null PackPool makes kernels fall back to thread-local storage.
 */
class PackPool
{
  public:
    virtual ~PackPool() = default;

    virtual double *packD(std::size_t lane) = 0;
    virtual std::int8_t *packI8(std::size_t lane) = 0;
};

/**
 * The lane's pack buffer of element type T, or null (thread-local
 * fallback) with no pool or no pool storage for T. Only valid under a
 * live runner — each lane is then owned by exactly one executing
 * thread; a serial caller must pass a null pool instead (two workers
 * falling back to the serial path concurrently would otherwise share
 * lane 0's buffer).
 */
template <typename T>
inline T *
lanePack(PackPool *packs, std::size_t lane)
{
    if (!packs)
        return nullptr;
    if constexpr (std::is_same_v<T, double>)
        return packs->packD(lane);
    else if constexpr (std::is_same_v<T, std::int8_t>)
        return packs->packI8(lane);
    else
        return nullptr;
}

/**
 * Run fn(task, lane) for every task in [0, n) — across `runner` when
 * provided, serially otherwise. CRITICAL lane rule: with a runner,
 * every task reports a runner-assigned lane (even for n == 1, where
 * the runner reports its caller lane) — a hardcoded lane 0 here would
 * race another thread legitimately owning lane 0's pack buffer.
 * Without a runner the serial loop reports lane 0, and the caller
 * must have nulled its PackPool (see lanePack).
 */
inline void
runTasks(ParallelRunner *runner, std::size_t n,
         const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (runner) {
        runner->run(n, fn);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        fn(i, 0);
}

/**
 * How many column blocks to split each member of a family of `tasks`
 * independent [m, k] x [k, cols] products into, so the task grid
 * (tasks * shards) keeps every runner lane busy. Sixteen F2 taps on a
 * many-core host under-fill the pool at tap granularity alone — the
 * ROADMAP case this fixes — while a task count already >= 2x the
 * lanes stays unsplit (finer shards would only pay fixed overhead).
 * Each block is at least `minCols` wide so tiny P dimensions are not
 * shredded below the micro-kernel's efficient width. Splitting is
 * safe for any blocked-core GEMM: every output element accumulates
 * its own ascending-k sum, so column blocks are bit-identical to the
 * whole product.
 */
inline std::size_t
colShards(ParallelRunner *runner, std::size_t tasks, std::size_t cols,
          std::size_t minCols = 128)
{
    if (!runner || cols <= minCols)
        return 1;
    const std::size_t lanes = runner->lanes();
    if (tasks >= 2 * lanes)
        return 1;
    const std::size_t want = (2 * lanes + tasks - 1) / tasks;
    const std::size_t most = (cols + minCols - 1) / minCols;
    return std::max<std::size_t>(1, std::min(want, most));
}

/**
 * Run fn(tap, j0, jn, lane) over the task grid of `taps` independent
 * [m, k] x [k, cols] products, each split into column blocks per
 * colShards() with the block width rounded up to `granularity` (the
 * kernel's column tile). This is the one place the tap x P-block grid
 * is derived and decoded — the NCHW and blocked Winograd tap GEMMs
 * and the integer tap GEMM all shard through it.
 */
inline void
runTapColBlocks(
    ParallelRunner *runner, std::size_t taps, std::size_t cols,
    std::size_t granularity,
    const std::function<void(std::size_t tap, std::size_t j0,
                             std::size_t jn, std::size_t lane)> &fn)
{
    if (cols == 0)
        return;
    const std::size_t shards = colShards(runner, taps, cols);
    const std::size_t blk = ((cols + shards - 1) / shards +
                             granularity - 1) /
                            granularity * granularity;
    const std::size_t perTap = (cols + blk - 1) / blk;
    runTasks(runner, taps * perTap,
             [&](std::size_t task, std::size_t lane) {
                 const std::size_t k = task / perTap;
                 const std::size_t j0 = (task % perTap) * blk;
                 fn(k, j0, std::min(blk, cols - j0), lane);
             });
}

/**
 * Shard `rows` into contiguous row blocks of at least `minBlock` and
 * run fn(r0, nrows, lane) for each — across `runner` when provided
 * (about two blocks per lane, so a straggling lane can steal work),
 * serially on lane 0 otherwise. Used by the im2col backends to split
 * a GEMM over output-channel blocks; any split yields identical
 * results because every output row is the same computation.
 */
inline void
runRowBlocks(ParallelRunner *runner, std::size_t rows,
             std::size_t minBlock,
             const std::function<void(std::size_t r0, std::size_t nrows,
                                      std::size_t lane)> &fn)
{
    if (rows == 0)
        return;
    const std::size_t lanes = runner ? runner->lanes() : 1;
    const std::size_t blk =
        runner ? std::max(minBlock,
                          (rows + 2 * lanes - 1) / (2 * lanes))
               : rows;
    const std::size_t nblocks = (rows + blk - 1) / blk;
    runTasks(runner, nblocks, [&](std::size_t bi, std::size_t lane) {
        const std::size_t r0 = bi * blk;
        fn(r0, std::min(blk, rows - r0), lane);
    });
}

} // namespace gemm
} // namespace twq

#endif // TWQ_GEMM_PARALLEL_HH
