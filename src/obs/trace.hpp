// obs/trace — per-thread ring-buffered trace recorder with Chrome-trace /
// Perfetto JSON export.
//
// Event model (Chrome trace event format):
//
//   MLR_TRACE_SPAN("name")            RAII complete event ('X') on this
//                                     thread's track — nest freely, Perfetto
//                                     renders the stack as a flame
//   trace_async_begin/end(name, id)   async pair ('b'/'e') — spans that
//                                     start on one thread/time and end on
//                                     another (GET_BATCH in flight, seed
//                                     export), correlated by `id`
//   trace_instant(name, id)           point event ('i')
//   trace_counter(name, value)        counter sample ('C') — the second
//                                     clock domain rides here: the sim
//                                     virtual clock is exported as counter
//                                     tracks ("vclock.service",
//                                     "vclock.session") against the wall-
//                                     clock x-axis, so a trace shows both
//                                     what the host did and what the
//                                     simulated Polaris timeline thought
//
// Recording is process-global and off by default. The hard hot-path
// contract: with recording disabled every emit — including constructing and
// destroying a TraceSpan — is a couple of relaxed atomic loads and nothing
// else (no clock read, no allocation, no branch into buffer code).
// Enabling tracing never feeds back into computation, so the bit-identity
// determinism matrix (outputs, records, cache fingerprints, virtual times)
// is invariant under trace on/off — asserted by Concurrency.TraceOnOff*
// and ReconService.TraceOnOff* tests.
//
// Storage: each thread owns a fixed-capacity ring (newest events win; drops
// are counted and exported as metadata). Buffers register themselves in a
// global list on first use; write_json() locks each ring briefly, merges,
// sorts by timestamp, and emits `traceEvents` JSON. Draining while worker
// threads still emit is safe (per-ring mutex) but callers normally drain at
// a quiescent point (after the parallel_for or service drain that emitted).
//
// Names and categories must be string literals (or otherwise outlive the
// recorder) — events store the pointer, not a copy.
#pragma once

#include <atomic>
#include <string>

#include "common/types.hpp"

namespace mlr::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}

/// True when the process-global recorder is recording.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Start recording. The first enable() pins the wall-clock epoch all
  /// timestamps are relative to.
  void enable();
  void disable();
  /// Drop all buffered events and drop counts (rings stay registered).
  /// Call at a quiescent point.
  void clear();

  /// Nanoseconds since the recorder epoch (steady clock).
  [[nodiscard]] u64 now_ns() const;

  // Emitters. All no-ops when disabled.
  void complete(const char* name, const char* cat, u64 ts_ns, u64 dur_ns,
                u64 id);
  void instant(const char* name, const char* cat, u64 id);
  void async_begin(const char* name, const char* cat, u64 id);
  void async_end(const char* name, const char* cat, u64 id);
  void counter(const char* name, double value);

  /// Merge + sort all rings into Chrome-trace JSON ({"traceEvents": [...]}).
  [[nodiscard]] std::string json() const;
  /// json() to a file; returns false (and logs) on I/O failure.
  bool write_json(const std::string& path) const;

  /// Total events currently buffered across rings (drained or droppable).
  [[nodiscard]] u64 buffered_events() const;
  /// Events lost to ring wrap since the last clear().
  [[nodiscard]] u64 dropped_events() const;

 private:
  TraceRecorder() = default;
};

/// RAII complete-event span. With tracing disabled, construction and
/// destruction are one relaxed atomic load each.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "app", u64 id = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  u64 id_;
  u64 t0_;
  bool active_;
};

inline void trace_instant(const char* name, const char* cat = "app",
                          u64 id = 0) {
  if (trace_enabled()) TraceRecorder::instance().instant(name, cat, id);
}
inline void trace_async_begin(const char* name, const char* cat, u64 id) {
  if (trace_enabled()) TraceRecorder::instance().async_begin(name, cat, id);
}
inline void trace_async_end(const char* name, const char* cat, u64 id) {
  if (trace_enabled()) TraceRecorder::instance().async_end(name, cat, id);
}
inline void trace_counter(const char* name, double value) {
  if (trace_enabled()) TraceRecorder::instance().counter(name, value);
}

#define MLR_OBS_CAT2(a, b) a##b
#define MLR_OBS_CAT(a, b) MLR_OBS_CAT2(a, b)
/// MLR_TRACE_SPAN("stage.encode_probe", "engine") — scoped span on this
/// thread's track. Name/category must be string literals.
#define MLR_TRACE_SPAN(...) \
  ::mlr::obs::TraceSpan MLR_OBS_CAT(mlr_trace_span_, __LINE__)(__VA_ARGS__)

}  // namespace mlr::obs
