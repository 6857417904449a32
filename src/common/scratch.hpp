// Per-owner, per-thread scratch arenas for allocation-free hot loops.
//
// The FFT/NUFFT kernels (and the operator layer driving them) used to
// heap-allocate their working buffers on every call — pure overhead on the
// miss-compute path the stage-execution engine tries to keep busy. A
// PerThreadScratch<T> gives its owner (a kernel source file, a solver's
// kernel set) one reusable buffer *per calling thread*:
//
//   * buffer(n) returns a span of n elements private to the calling thread.
//     Contents are whatever the last use on this thread left behind — the
//     caller zeroes/fills what it needs (exactly the work the old
//     value-initializing std::vector constructor did, minus the heap trip).
//   * Thread safety is by construction: threads never share a buffer, so
//     concurrent execute() calls on one plan (the ThreadPool fan-out) need
//     no locks and results stay bit-identical to the allocating version.
//   * Storage lives in thread-local slots keyed by a small arena id. Ids are
//     recycled through a free list when an arena dies, so the per-thread
//     footprint is bounded by the peak number of live arenas, not by the
//     total ever constructed (plans created in a loop reuse the same slot).
//
// scratch_heap_allocs() counts every time any arena actually touched the
// heap (fresh slot or capacity growth). Steady-state hot loops must keep it
// flat — bench_fft_micro reports it as an allocs-per-op column.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace mlr {

namespace scratch_detail {

inline std::atomic<u64>& heap_alloc_counter() {
  static std::atomic<u64> count{0};
  return count;
}

struct IdPool {
  std::mutex mu;
  std::vector<u64> free;
  u64 next = 0;
};

inline IdPool& id_pool() {
  static IdPool pool;
  return pool;
}

inline u64 acquire_id() {
  auto& p = id_pool();
  std::lock_guard lk(p.mu);
  if (!p.free.empty()) {
    const u64 id = p.free.back();
    p.free.pop_back();
    return id;
  }
  return p.next++;
}

inline void release_id(u64 id) {
  auto& p = id_pool();
  std::lock_guard lk(p.mu);
  p.free.push_back(id);
}

}  // namespace scratch_detail

/// Process-wide count of scratch-arena heap allocations (see header comment).
inline u64 scratch_heap_allocs() {
  return scratch_detail::heap_alloc_counter().load(std::memory_order_relaxed);
}

template <typename T>
class PerThreadScratch {
 public:
  PerThreadScratch() : id_(scratch_detail::acquire_id()) {}
  ~PerThreadScratch() { scratch_detail::release_id(id_); }

  PerThreadScratch(const PerThreadScratch&) = delete;
  PerThreadScratch& operator=(const PerThreadScratch&) = delete;

  /// Borrow the calling thread's buffer for this arena, grown (never shrunk)
  /// to at least n elements. Contents are unspecified; the span stays valid
  /// until the same thread calls buffer() on the same arena again.
  std::span<T> buffer(std::size_t n) const {
    thread_local std::unordered_map<u64, std::vector<T>> slots;
    auto [it, fresh] = slots.try_emplace(id_);
    auto& buf = it->second;
    if (buf.size() < n) {
      buf.resize(n);
      fresh = true;
    }
    if (fresh)
      scratch_detail::heap_alloc_counter().fetch_add(
          1, std::memory_order_relaxed);
    return {buf.data(), n};
  }

 private:
  u64 id_;
};

}  // namespace mlr
