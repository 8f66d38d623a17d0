// Global thread pool and data-parallel loop primitives.
//
// Every threaded hot path in the library (GEMM row panels, pairwise
// distances, k-means assignment, per-row reweighting) dispatches through
// ParallelFor / ParallelSum. The pool is created lazily on first use and
// shared process-wide.
//
// Thread-count control (in priority order):
//   1. SetNumThreads(n)            — programmatic override, takes effect on
//                                    the next parallel region.
//   2. RHCHME_NUM_THREADS=<n>      — environment override, read once at
//                                    first pool use.
//   3. std::thread::hardware_concurrency() — default.
//
// Determinism contract: when ParallelFor splits a range, chunk starts
// always sit at begin + k*grain — but the inline path (pool size 1,
// single-chunk range, nested region) may fuse the whole range into one
// fn(begin, end) call, so per-call boundaries are NOT thread-count
// stable. Callers that need bit-stable results across thread counts must
// either (a) make each index's computation independent of the chunk
// extent (all the kernel call sites do this: one output row per index,
// fixed accumulation order), (b) use ParallelSum, which re-chunks fused
// ranges internally and combines per-chunk partials in chunk order, or
// (c) apply the same re-chunking idiom to non-scalar reductions: derive
// the chunk layout from the problem shape only (never the pool size),
// give each chunk its own accumulator slot, and merge the slots in chunk
// order after the barrier. A ParallelFor over chunk indices at grain 1
// makes the slot the index itself; over a raw range, the slot is
// (chunk_begin - begin) / grain, recoverable inside fused calls because
// chunk starts are grain-aligned. graph::ExactKnnNeighbors' per-chunk
// heap slabs, merged in chunk order, are the reference implementation of
// (c). No atomics touch user accumulators.
//
// Nested parallel regions run serially: a ParallelFor issued from inside
// a worker executes inline on that worker. Coarse task fan-out therefore
// trades inner kernel parallelism for task parallelism, so size the
// schedule: run a large task on the caller (its regions then spread over
// up to NumThreads() chunks) when that shortens the whole, and fan out
// the smaller tasks, through the pool only when there are >= 2 of them.
// The per-member ensemble build in core/ensemble.cc plans this from a
// cost estimate of each member (PlanMemberSchedule). Chunk functions
// must not throw.

#ifndef RHCHME_UTIL_PARALLEL_H_
#define RHCHME_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace rhchme {
namespace util {

/// Default minimum number of inner-loop operations a chunk should amortise
/// (~64K flops, a few tens of microseconds); callers derive their grain as
/// kMinWorkPerChunk / work-per-index.
constexpr std::size_t kMinWorkPerChunk = std::size_t{1} << 16;

/// Number of threads parallel regions will use (>= 1).
int NumThreads();

/// Sets the pool size for subsequent parallel regions. Values < 1 clamp
/// to 1 (serial). Safe to call between regions; must not be called from
/// inside a chunk function.
void SetNumThreads(int n);

/// Chunk body: processes the half-open index range [chunk_begin, chunk_end).
using ChunkFn = std::function<void(std::size_t, std::size_t)>;

/// Splits [begin, end) into chunks of `grain` indices (the last chunk may
/// be short) and executes them on the pool; the calling thread participates.
/// Returns after every chunk has finished (full barrier). Runs inline —
/// fusing the whole range into a single fn(begin, end) call — when the
/// range fits one chunk, the pool is size 1, or the caller is itself a
/// pool worker; use ParallelSum when per-chunk identity must survive that
/// fusion.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const ChunkFn& fn);

/// Chunk reduction body: returns the partial sum over [chunk_begin,
/// chunk_end).
using ChunkSumFn = std::function<double(std::size_t, std::size_t)>;

/// Parallel sum reduction with deterministic (chunk-ordered) combination:
/// partial sums are stored per chunk and added in chunk order, so the
/// result is identical for any thread count given fixed (begin, end, grain).
double ParallelSum(std::size_t begin, std::size_t end, std::size_t grain,
                   const ChunkSumFn& fn);

/// Grain (indices per chunk) that gives each chunk at least kMinWorkPerChunk
/// operations when one index costs `work_per_index` operations.
std::size_t GrainForWork(std::size_t work_per_index);

}  // namespace util
}  // namespace rhchme

#endif  // RHCHME_UTIL_PARALLEL_H_
