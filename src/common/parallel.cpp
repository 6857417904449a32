#include "common/parallel.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/metrics.hpp"

namespace mlr {

namespace {

// How long an idle worker, or a caller waiting for its round, polls before
// it blocks. A stage round on the serve workload is a few chunks of tens to
// hundreds of µs, and the next round usually follows within this budget, so
// polling spares the futex wake-up a blocking handoff pays on every round;
// a longer budget only burns a core while the team is really idle.
constexpr auto kPollBudget = std::chrono::microseconds(50);

/// Spins on `ready()` for up to kPollBudget; returns its last value.
template <class Ready>
bool poll(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kPollBudget;
  do {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      _mm_pause();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return ready();
}

}  // namespace

// One parallel_for call, on its caller's stack. Chunk c covers
// [begin + c·step, min(end, begin + (c + 1)·step)). Lifetime rule: a thread
// touches a round only while it holds a claimed chunk whose completion it
// has not yet counted, or while it holds the pool mutex and finds the round
// queued (the caller unlinks it under that mutex before it can return).
// Hence a worker claims its next chunk before it counts the one it ran.
struct ThreadPool::Round {
  const std::function<void(i64, i64)>* fn = nullptr;
  i64 begin = 0, end = 0, step = 1, chunks = 0;
  std::atomic<i64> next{0};     ///< next chunk to claim
  std::atomic<i64> pending{0};  ///< chunks not yet finished
  std::atomic<bool> failed{false};
  std::exception_ptr error;     ///< written once, by the thread that set failed
  Round* link = nullptr;        ///< queue successor (pool mutex)

  void run_chunk(i64 c) noexcept {
    const i64 lo = begin + c * step;
    try {
      (*fn)(lo, std::min(end, lo + step));
    } catch (...) {
      if (!failed.exchange(true, std::memory_order_relaxed))
        error = std::current_exception();
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) {
  threads = std::clamp(threads, 1u, 256u);
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

i64 ThreadPool::claim(Round& r) {
  const i64 c = r.next.fetch_add(1, std::memory_order_relaxed);
  if (c == r.chunks - 1) open_.fetch_sub(1, std::memory_order_relaxed);
  return c;
}

// Under mu_: a chunk of the oldest queued round that has one left.
bool ThreadPool::claim_queued(Round*& r, i64& chunk) {
  for (Round* q = head_; q != nullptr; q = q->link) {
    if (q->next.load(std::memory_order_relaxed) >= q->chunks) continue;
    const i64 c = claim(*q);
    if (c < q->chunks) {
      r = q;
      chunk = c;
      return true;
    }
  }
  return false;
}

void ThreadPool::work(Round& r, i64 chunk) {
  const i64 chunks = r.chunks;
  for (;;) {
    r.run_chunk(chunk);
    const i64 next = claim(r);
    // Counting the chunk may release the caller, which then frees r: only
    // pool members are touched after it. The notify takes mu_, so a caller
    // that read a nonzero count under mu_ is inside its wait by then.
    if (r.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lk(mu_);
      done_cv_.notify_all();
    }
    if (next >= chunks) return;
    chunk = next;
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    const bool seen =
        poll([this] { return open_.load(std::memory_order_relaxed) > 0; });
    Round* r = nullptr;
    i64 chunk = 0;
    {
      std::unique_lock lk(mu_, std::defer_lock);
      if (seen) {
        if (!lk.try_lock()) continue;  // the queue is busy: poll again
      } else {
        lk.lock();
        ++sleepers_;
        work_cv_.wait(lk, [this] {
          return stop_ || open_.load(std::memory_order_relaxed) > 0;
        });
        --sleepers_;
      }
      if (stop_) return;
      if (!claim_queued(r, chunk)) continue;  // taken meanwhile: poll again
    }
    work(*r, chunk);
  }
}

void ThreadPool::run(Round& r) {
  static auto& rounds = obs::metrics().counter("pool.rounds");
  rounds.add();
  unsigned wake = 0;
  {
    std::lock_guard lk(mu_);
    Round** tail = &head_;
    while (*tail != nullptr) tail = &(*tail)->link;
    *tail = &r;
    open_.fetch_add(1, std::memory_order_relaxed);
    wake = unsigned(std::min<i64>(sleepers_, r.chunks - 1));
  }
  for (; wake > 0; --wake) work_cv_.notify_one();
  for (i64 c = claim(r); c < r.chunks; c = claim(r)) {
    r.run_chunk(c);
    r.pending.fetch_sub(1, std::memory_order_acq_rel);
  }
  {
    std::lock_guard lk(mu_);
    Round** p = &head_;
    while (*p != &r) p = &(*p)->link;
    *p = r.link;
  }
  const auto done = [&r] {
    return r.pending.load(std::memory_order_acquire) == 0;
  };
  if (!poll(done)) {
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, done);
  }
  if (r.failed.load(std::memory_order_relaxed))
    std::rethrow_exception(r.error);
}

void parallel_for_ranges(ThreadPool& pool, i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn) {
  const i64 total = end - begin;
  if (total <= 0) return;
  const i64 threads = i64(pool.size());
  if (threads <= 1 || total == 1) {  // serial fast path, no thread handoff
    fn(begin, end);
    return;
  }
  const i64 target = std::min(total, threads * 4);  // chunks to aim for
  const i64 step = (total + target - 1) / target;
  ThreadPool::Round r;
  r.fn = &fn;
  r.begin = begin;
  r.end = end;
  r.step = step;
  r.chunks = (total + step - 1) / step;
  r.pending.store(r.chunks, std::memory_order_relaxed);
  pool.run(r);
}

void parallel_for(ThreadPool& pool, i64 begin, i64 end,
                  const std::function<void(i64)>& fn) {
  parallel_for_ranges(pool, begin, end, [&](i64 lo, i64 hi) {
    for (i64 i = lo; i < hi; ++i) fn(i);
  });
}

void parallel_for_ranges(i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn) {
  parallel_for_ranges(ThreadPool::global(), begin, end, fn);
}

void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn) {
  parallel_for(ThreadPool::global(), begin, end, fn);
}

}  // namespace mlr
