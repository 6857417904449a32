// ExecutionContext — ownership of the execution substrate for one
// reconstruction run, and the only code that wires one.
//
// Wires together everything the memoized-operator layer drives: the
// simulated GPU(s), the interconnect + memory node, the distributed
// memoization DB, the worker pool for the layer's parallel phases, and the
// one memo::MemoizedLamino over all devices (one key encoder, one lane per
// device). Reconstructor, every serve session (at any `gpus_per_job`) and
// cluster::Cluster build their devices this way, and everything executes
// stages through `memo()`.
//
// Several devices do not reproduce a single device's hit patterns when
// memoization is on: the layer runs each device's whole round, tail
// included, in device order, so device g's DB query already sees what
// devices before it inserted earlier in the same stage. With memoization
// off the result is bit-identical for any device count.
#pragma once

#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "memo/memo_db.hpp"
#include "memo/memoized_ops.hpp"
#include "sim/device.hpp"

namespace mlr {

struct ExecutionOptions {
  /// Threads of the run's fork-join team: the calling thread plus
  /// `threads` − 1 workers, used by every parallel loop of the run (memo
  /// phases, encoder training, DB scoring, solver kernels, power iteration,
  /// F_2D stages). 0 = share the process-global team (hardware
  /// concurrency); 1 = strictly serial execution on the calling thread.
  unsigned threads = 0;
  /// Simulated devices; chunks are distributed round-robin across them.
  int gpus = 1;
  memo::MemoConfig memo{};   ///< memo layer config, shared by every device
  memo::MemoDbConfig db{};   ///< memoization DB config (used when memo.enable)

  // --- Shared-memo session wiring (serve::ReconService) -------------------
  // A serving session is an ExecutionContext whose expensive shared state is
  // handed in instead of built: the service's one cross-job encoder, a seed
  // snapshot of the shared memo tier, and the service-wide worker pool.

  /// Use this (typically pre-trained) key-encoder registry instead of
  /// creating a private one, so many contexts key through ONE encoder.
  std::shared_ptr<encoder::EncoderRegistry> registry{};
  /// Seed the context's fresh MemoDb from a snapshot before first use (see
  /// MemoDb::import_entries); only read when memo.enable. The pointee must
  /// outlive construction (the entries are copied into the DB).
  const std::vector<memo::MemoDb::Entry>* db_seed = nullptr;
  /// Lazy value fetcher for an *index-only* seed (entries whose value
  /// payload lives behind a remote tier — empty `value`, `value_cf` set):
  /// the session fetches hit payloads through it while its miss FFTs run.
  /// Must outlive the context. Null requires every seed entry to carry its
  /// value inline.
  memo::ValueFetcher* db_values = nullptr;
  /// Borrow an existing team instead of owning one (all job sessions of a
  /// service share the service's). Overrides `threads` when set.
  ThreadPool* shared_pool = nullptr;
};

class ExecutionContext {
 public:
  ExecutionContext(const lamino::Operators& ops, ExecutionOptions opt);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// The memoized-operator layer over all devices — the one entry point for
  /// running operator stages.
  [[nodiscard]] memo::MemoizedLamino& memo() { return *memo_; }

  [[nodiscard]] int num_gpus() const { return int(devices_.size()); }
  [[nodiscard]] sim::Interconnect& network() { return net_; }
  [[nodiscard]] memo::MemoDb* db() { return db_.get(); }

  /// Snapshot of every virtual timeline in the context (per-device compute +
  /// copy engines, the interconnect link, the memory-node CPU). A preempted
  /// serve session checkpoints these and restores them onto the rebuilt
  /// context: async insertion charges can leave link/node busy beyond the
  /// solver's own clock at a yield point, and losing that queueing would
  /// shift every later DB round-trip (and the job's run vtime).
  struct SimClockState {
    std::vector<sim::Device::ClockState> devices;
    sim::Timeline::State link;
    sim::Timeline::State memnode_cpu;
  };
  [[nodiscard]] SimClockState clock_state() const {
    SimClockState s;
    s.devices.reserve(devices_.size());
    for (const auto& d : devices_) s.devices.push_back(d->clock_state());
    s.link = net_.clock_state();
    s.memnode_cpu = memnode_.clock_state();
    return s;
  }
  void restore_clock(const SimClockState& s) {
    MLR_CHECK(s.devices.size() == devices_.size());
    for (std::size_t i = 0; i < devices_.size(); ++i)
      devices_[i]->restore_clock(s.devices[i]);
    net_.restore_clock(s.link);
    memnode_.restore_clock(s.memnode_cpu);
  }

 private:
  sim::Interconnect net_;
  sim::MemoryNode memnode_;
  std::unique_ptr<memo::MemoDb> db_;
  std::vector<std::unique_ptr<sim::Device>> devices_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<memo::MemoizedLamino> memo_;
};

}  // namespace mlr
