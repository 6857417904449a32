// Shared-memory parallel-for over a lazily constructed process-wide thread
// pool, in the spirit of an OpenMP `parallel for` but with scoped C++ RAII.
//
// The pool sizes itself to std::thread::hardware_concurrency(); on a 1-core
// host parallel_for degrades gracefully to a serial loop with no thread
// round-trips.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace mlr {

/// Fixed-size worker pool executing void() jobs.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job; wait_idle() blocks until all enqueued jobs finished.
  void submit(std::function<void()> job);
  void wait_idle();

  [[nodiscard]] unsigned size() const { return unsigned(workers_.size()); }

  /// Process-wide pool (hardware_concurrency workers, min 1).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  unsigned in_flight_ = 0;
  bool stop_ = false;
};

/// Parallel loop over [begin, end), chunked across the global pool.
/// `fn` receives a single index. Exceptions inside fn propagate to the caller
/// of parallel_for (first one wins).
void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn);

/// Parallel loop receiving [chunk_begin, chunk_end) ranges, letting the body
/// amortize per-chunk setup (the OpenMP `schedule(static)` idiom).
void parallel_for_ranges(i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn);

/// Pool-scoped variants: run the loop on an explicit pool instead of the
/// process-global one (the memo layer's `threads` knob). A one-worker
/// pool degrades to a serial loop on the calling thread — same numerics,
/// no handoff.
void parallel_for(ThreadPool& pool, i64 begin, i64 end,
                  const std::function<void(i64)>& fn);
void parallel_for_ranges(ThreadPool& pool, i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn);

}  // namespace mlr
