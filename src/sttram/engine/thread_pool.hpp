// Deterministic thread pool with chunked static scheduling.
//
// The pool implements the ParallelExecutor contract (common/parallel.hpp):
// for_chunks(total, body) splits [0, total) into exactly thread_count()
// contiguous chunks — chunk k is chunk_range(total, threads, k) — and the
// assignment of chunk to thread is static (worker k always runs chunk k;
// chunk 0 runs on the calling thread).  Nothing about the partition or
// the per-chunk work order depends on scheduling, load, or wall-clock
// time, so a caller that writes disjoint state from the body and reduces
// serially afterwards gets bit-identical results for every thread count.
// The contract's two further patterns — claiming index-determined items
// from a shared counter, and one chunk reducing a buffer no chunk of the
// same call writes — hold here too: every call's writes happen-before
// its return, hence before the next call's reads (common/parallel.hpp).
//
// Workers are started once in the constructor and parked on a condition
// variable between calls; a for_chunks() call costs one notify_all plus
// one wakeup per worker, no allocation on the steady path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sttram/common/parallel.hpp"

namespace sttram::engine {

class ThreadPool final : public ParallelExecutor {
 public:
  /// Creates a pool that splits work into `threads` chunks (clamped to
  /// >= 1).  `threads - 1` worker threads are spawned; the calling
  /// thread always executes chunk 0, so ThreadPool(1) is fully serial.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const override {
    return threads_;
  }

  /// See ParallelExecutor::for_chunks.  Not reentrant: the body must not
  /// call for_chunks() on the same pool.
  void for_chunks(std::size_t total,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& body) override;

 private:
  void worker_loop(std::size_t chunk_index);
  void run_chunk(std::size_t chunk_index);

  const std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Job state, all guarded by mu_.  generation_ increments per
  // for_chunks() call so parked workers can tell "new job" from
  // spurious wakeups.
  std::uint64_t generation_ = 0;
  std::size_t job_total_ = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)>*
      job_body_ = nullptr;
  std::size_t workers_pending_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

}  // namespace sttram::engine
