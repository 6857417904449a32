// Shared-memory parallel-for on a fork-join team, in the spirit of an OpenMP
// `parallel for` but with scoped C++ RAII.
//
// A ThreadPool of n threads is a team: the thread that calls parallel_for
// plus n − 1 workers. Each call publishes one *round* — the loop body, its
// range cut into chunks, a chunk-claim index and a pending count — in a
// descriptor on the caller's stack. The caller claims and runs chunks of
// its own round beside the workers, then waits for the chunks the workers
// took. Several callers may share one team; their rounds queue in arrival
// order, and each caller works only its own.
//
// The stage engine runs thousands of rounds of a few chunks each, and the
// gap between rounds is often shorter than a thread's wake-up from a
// blocking wait. So an idle worker, and a caller waiting for its round,
// first polls for a short fixed budget and only then blocks on a condition
// variable; a round that arrives inside the budget starts without a
// system call.
//
// A one-thread team starts no worker and runs every loop on the caller:
// same numerics, no handoff.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace mlr {

class ThreadPool;

/// Parallel loop on `pool` receiving [chunk_begin, chunk_end) ranges, letting
/// the body amortize per-chunk setup (the OpenMP `schedule(static)` idiom).
/// The first exception thrown by `fn` propagates to the caller once every
/// chunk has run.
void parallel_for_ranges(ThreadPool& pool, i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn);

/// Fork-join team of size() threads: the calling thread plus size() − 1
/// workers (see the file comment).
class ThreadPool {
 public:
  /// A team of `threads` (0 counts as 1; capped at 256 so a garbage count
  /// cannot spawn billions of workers, while still allowing deliberate
  /// oversubscription in determinism tests on small hosts).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that work a round: the caller plus the workers.
  [[nodiscard]] unsigned size() const { return unsigned(workers_.size()) + 1; }

  /// Process-wide team (hardware_concurrency threads, min 1).
  static ThreadPool& global();

 private:
  friend void parallel_for_ranges(ThreadPool&, i64, i64,
                                  const std::function<void(i64, i64)>&);
  struct Round;

  void run(Round& r);
  void worker_loop();
  void work(Round& r, i64 chunk);
  i64 claim(Round& r);
  bool claim_queued(Round*& r, i64& chunk);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< idle workers wait for a round
  std::condition_variable done_cv_;  ///< callers wait for their round
  Round* head_ = nullptr;            ///< published rounds, oldest first (mu_)
  unsigned sleepers_ = 0;            ///< workers inside work_cv_.wait (mu_)
  bool stop_ = false;                ///< (mu_)
  /// Rounds with an unclaimed chunk; raised under mu_, lowered by the claim
  /// of a round's last chunk. Idle workers poll it without the lock.
  std::atomic<i64> open_{0};
  std::vector<std::thread> workers_;  ///< last: the threads use the above
};

/// Parallel loop over [begin, end), chunked across the global pool.
/// `fn` receives a single index. Exceptions inside fn propagate to the caller
/// of parallel_for (first one wins).
void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn);

/// parallel_for_ranges on the global pool.
void parallel_for_ranges(i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn);

/// Pool-scoped variant: run the loop on an explicit pool instead of the
/// process-global one (a run's `threads` knob).
void parallel_for(ThreadPool& pool, i64 begin, i64 end,
                  const std::function<void(i64)>& fn);

}  // namespace mlr
