// Minimal parallel-execution interface shared by the layers below
// src/sttram/engine (which provides the real thread pool).
//
// The contract is deliberately narrow so determinism is easy to reason
// about: for_chunks() partitions [0, total) into exactly thread_count()
// contiguous index ranges — chunk k is chunk_range(total, threads, k) —
// and invokes body(k, begin, end) once per non-empty range, possibly
// concurrently.  The partition depends only on `total` and
// thread_count(), never on timing, and callers must
//   (a) write only to disjoint, pre-allocated state from the body, and
//   (b) perform any floating-point reduction serially, in index order,
//       after for_chunks() returns.
// Under those two rules results are bit-identical for every thread
// count, including the inline serial fallback.  Two patterns keep that
// guarantee without following the partition (sim/yield.cpp uses both):
//   (c) a body may ignore [begin, end) and claim work items from a
//       shared atomic counter, when each item's output depends only on
//       its index and lands in that item's own slot — which thread runs
//       an item is then unobservable;
//   (d) one chunk's body (say chunk 0) may run the in-order serial
//       reduction of a buffer that no chunk of the same call writes,
//       e.g. the previous call's output, so the reduction overlaps
//       the other chunks' work instead of following it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace sttram {

/// The contiguous chunk [begin, end) assigned to `chunk` of `chunks`
/// over `total` items.  Near-equal sizes; early chunks take the
/// remainder.  Purely arithmetic, so the partition is reproducible.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
};

inline ChunkRange chunk_range(std::size_t total, std::size_t chunks,
                              std::size_t chunk) {
  const std::size_t base = total / chunks;
  const std::size_t extra = total % chunks;
  const std::size_t begin = chunk * base + std::min(chunk, extra);
  return {begin, begin + base + (chunk < extra ? 1 : 0)};
}

/// Abstract chunked executor (see the determinism contract above).
class ParallelExecutor {
 public:
  virtual ~ParallelExecutor() = default;

  /// Number of chunks for_chunks() splits work into (>= 1).
  [[nodiscard]] virtual std::size_t thread_count() const = 0;

  /// Invokes body(chunk, begin, end) over the chunk_range() partition of
  /// [0, total).  Empty chunks (total < thread_count()) are skipped.
  /// Blocks until every chunk has finished; the first exception thrown
  /// by any chunk is rethrown on the calling thread.
  virtual void for_chunks(
      std::size_t total,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& body) = 0;
};

/// Executes the whole range inline on the calling thread.
class SerialExecutor final : public ParallelExecutor {
 public:
  [[nodiscard]] std::size_t thread_count() const override { return 1; }
  void for_chunks(std::size_t total,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& body) override {
    if (total > 0) body(0, 0, total);
  }
};

}  // namespace sttram
