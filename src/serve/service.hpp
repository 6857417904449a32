// serve/service — ReconService, the multi-tenant reconstruction service.
//
// The serving model (docs/serving.md has the long form):
//
//   * One service = one shared geometry + ONE cross-job key encoder + a
//     *shared memo tier* (a serve::TierBackend — promoted MemoDb entries on
//     `shard_count` memory-node shards) + the ONE contended sim::Fabric its
//     traffic is charged on + `slots` execution slots (each session an
//     ExecutionContext of `gpus_per_job` simulated GPUs) + a host worker
//     pool every session shares.
//   * Lifecycle: configure → prime() → submit()* → drain(). prime() trains
//     the encoder and seeds the shared tier by running a canonical warm-up
//     workload back-to-back; drain() runs the event loop on the sim virtual
//     clock: jobs arrive, pass admission control (waiting jobs beyond
//     max_queue are rejected), wait in the JobQueue, and are dispatched by
//     the pluggable Scheduler whenever a slot frees and an admitted job has
//     arrived.
//   * Who charges fabric time: the service alone, on its own fabric, from
//     the occupancy the backend reports and the entries a job ships — for
//     every transport (all of it on the event-loop thread, with monotone
//     ready times — deterministic per policy). At dispatch the service
//     charges the *seed fetch* — the whole tier crosses the fabric
//     (shard links in parallel, shared uplink serialized across sessions),
//     timed at the job's work_scale like every other wire charge — and the
//     session's compute starts only at its completion, so
//     finish = start + seed_fetch_s + run_vtime and concurrent sessions
//     interfere on the virtual clock. Promotion *shipments* are charged in
//     (finish, id) order, interleaved with the fetch charges — a shipment
//     enters the fabric the moment its job finishes, so it contends with
//     every later dispatch's fetch. prime() is an offline warm-up and
//     charges nothing: the fabric clock starts with traffic. The fabric
//     carries over between drains: this epoch's promotion traffic delays
//     the next epoch's fetches.
//   * Promotion order and dedup semantics: separate from the shipment
//     charges, the tier *folds* each job's entries in job-id order, which
//     makes the tier's evolution policy-invariant; each entry meets the
//     max_shared_entries cap first (at capacity it drops unprobed,
//     shared_cap_drops) and the dedup probe second (nearest tier key within
//     τ_dedup ⇒ dropped as a near-duplicate,
//     MemoCounters::shared_dedup_drops).
//   * Cross-drain approximation: shipments still pending when a drain ends
//     are charged then, at their finish times. A later drain whose early
//     dispatches precede those finishes sees that traffic as already
//     queued — an ordering error bounded by the shipments' (small) transfer
//     durations, accepted so every drain leaves the fabric fully charged.
//   * Shared-memo sessions: every dispatched job runs in a hermetic session
//     — a fresh ExecutionContext whose MemoDb is seeded from the tier's
//     canonical insertion-order snapshot and which keys through the
//     service's one encoder. Hits on seeded entries are cross-job reuse
//     (MemoCounters::db_hit_shared). Hermetic sessions are what make
//     serving reproducible: a job's output and run vtime depend only on
//     (request, shared tier) — never on scheduling policy, thread count,
//     queue neighbours or shard count (sharding moves bytes, not entries)
//     — so latency CDFs are comparable across policies and fabric settings
//     while outputs stay bit-identical.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "admm/solver.hpp"
#include "common/stats.hpp"
#include "core/execution_context.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "serve/shared_tier.hpp"
#include "sim/fabric.hpp"

namespace mlr::net {
class TierServer;
class Transport;
}

namespace mlr::serve {

/// Which carrier serves the shared memo tier (see serve/shared_tier.hpp's
/// backend matrix and src/net/):
///   * Inproc   — the tier lives in this address space; no wire traffic.
///   * Loopback — a net::TierServer in this process behind the deterministic
///     loopback transport: every verb travels as real wire frames
///     (byte-identical to the socket path), sessions seed index-only and
///     fetch values lazily. Outputs, records, fingerprints and virtual
///     times are bit-identical to Inproc.
///   * Socket   — per-shard TCP connections to a TierServer; `tier_address`
///     names it ("host:port"), empty spawns one in-process on a localhost
///     ephemeral port. Outputs identical to Inproc; wall times differ.
enum class TierTransport { Inproc, Loopback, Socket };

/// Deadline admission (docs/serving.md "Admission and preemption"):
///   * None      — legacy behaviour: only the queue cap rejects.
///   * Reject    — jobs whose estimated finish misses their deadline are
///     rejected at arrival (never touch a slot, never charge the fabric).
///   * Downgrade — infeasible jobs run anyway but are flipped to
///     SloClass::BestEffort at arrival (counted, excluded from the admitted
///     deadline-hit accounting by consumers that honour the class).
/// A job is feasible when est_start + est_fetch + est_run ≤ deadline.
/// Decisions are made at the job's *arrival instant on the virtual clock*
/// from policy-invariant inputs only — the arrival-ordered stream, per-
/// scenario run-vtime estimates learned from prime()/previous drains, the
/// uncontended fetch estimate (tier bytes × work_scale over the uplink) and
/// a private model of slot availability advanced by those same estimates —
/// so the admitted/rejected/downgraded id sets are identical across
/// scheduling policies, thread counts and tier transports.
enum class AdmissionMode : int { None = 0, Reject = 1, Downgrade = 2 };

inline const char* admission_mode_name(AdmissionMode m) {
  switch (m) {
    case AdmissionMode::None: return "none";
    case AdmissionMode::Reject: return "reject";
    case AdmissionMode::Downgrade: return "downgrade";
  }
  return "?";
}

struct ServiceConfig {
  // Shared problem geometry: every job of one service reconstructs on the
  // same grid and chunking, so keys/values are comparable across jobs.
  i64 n = 14;
  i64 chunk_size = 4;

  // Capacity.
  int slots = 2;           ///< jobs running concurrently (virtual time)
  /// Simulated GPUs of each session's ExecutionContext, all driven by the
  /// session's one memo layer. A multi-GPU session reports
  /// cache_fingerprint 0 (no one device's cache is the session's) and
  /// cannot be preempted (a checkpoint holds one device's cache image).
  int gpus_per_job = 1;
  unsigned threads = 0;    ///< host worker pool shared by all sessions

  // Memo tier.
  bool memoize = true;
  memo::CacheKind cache = memo::CacheKind::Private;
  int encoder_train_steps = 120;

  // Admission control + shared-tier growth.
  std::size_t max_queue = 64;       ///< waiting jobs beyond this are rejected
  /// Deadline-aware admission at arrival (see AdmissionMode). Requires
  /// run-vtime estimates — scenarios never seen by prime()/a previous drain
  /// are always admitted (no estimate, no grounds to reject).
  AdmissionMode admission = AdmissionMode::None;
  std::size_t max_shared_entries = 1u << 20;  ///< promotion cap

  // Stage-boundary preemption (docs/serving.md). Requires gpus_per_job==1.
  /// >0 enables preemption: a running job offers to yield its slot at the
  /// first outer-iteration boundary after this many virtual seconds of
  /// segment service time — and actually yields only when someone is
  /// waiting with no other slot free (otherwise it keeps running in place,
  /// no checkpoint cost). The preempted session checkpoints (solver state +
  /// own DB entries + cache image + counters + virtual clocks), requeues at
  /// its yield time, and a later dispatch rebuilds it bit-identically —
  /// outputs, records, cache fingerprints and run_vtime never change, only
  /// the schedule does. 0 = off.
  double preempt_quantum_s = 0.0;
  /// Test knob: yield at EVERY eligible stage boundary, contended or not —
  /// forces each job through the full checkpoint/resume path.
  bool preempt_force = false;

  // Shared-tier sharding + the cross-session fabric (serve/shared_tier.hpp,
  // sim/fabric.hpp). Sharding never changes outputs — only which link
  // carries which bytes; the fabric moves virtual time only.
  int shard_count = 1;     ///< memory-node shards holding the tier
  /// Promotion near-duplicate threshold (0 disables the dedup probe). The
  /// default only rejects effectively-identical chunks — far above any
  /// scenario's query τ, so dedup compacts the tier without starving reuse.
  double tau_dedup = 0.999;
  /// The service's fabric: seed fetches and promotion shipments are charged
  /// on it, the same way for every transport. Disable to restore
  /// network-isolated sessions (zero charges).
  sim::FabricSpec fabric{};
  /// How the shared tier is reached (see TierTransport above).
  TierTransport transport = TierTransport::Inproc;
  /// Socket transport only: "host:port" of an external net::TierServer;
  /// empty spawns one inside this process on 127.0.0.1.
  std::string tier_address;
  /// Wall-clock bound on every remote-tier wait (seed export, value fetch,
  /// promotion PUT). A timeout fails only that request (net::RetryableError)
  /// and never breaks the transport: the client re-issues a GET_BATCH up to
  /// net_retry_max times, a lost seed export fails its one job, a lost PUT
  /// is buffered and re-shipped on recovery.
  double net_timeout_s = 30.0;
  /// Reconnect budget of the remote-tier transport: up to this many reopen
  /// attempts per carrier fault, with bounded exponential backoff starting
  /// at net_backoff_ms, each followed by an idempotent replay of the reads
  /// in flight. An exhausted budget breaks the transport: the struck job
  /// fails and the service drops to degraded cold sessions, re-probing the
  /// tier at each later dispatch. 0 (default) makes no reopen attempt, so
  /// the first carrier fault breaks the transport.
  int net_retry_max = 0;
  double net_backoff_ms = 10.0;
  /// Test/chaos hook: called right before each job is dispatched (after
  /// scheduling, before the seed fetch). A throw here fails that one job —
  /// the hook is how chaos benchmarks kill the tier mid-run and how tests
  /// inject arbitrary session failures. Never called for rejected jobs.
  std::function<void(const JobRequest&)> dispatch_hook;

  // Scheduling.
  SchedulerPolicy policy = SchedulerPolicy::Fifo;

  /// >0 caps every scenario's outer iterations (tests / CI smoke).
  int iters_cap = 0;

  /// Non-empty: enable the process-global trace recorder (obs/trace.hpp)
  /// and write the Chrome-trace JSON here at the end of every drain().
  /// Tracing never feeds back into computation, so outputs, records,
  /// fingerprints and virtual times are bit-identical with it on or off.
  std::string trace_path;
};

struct TenantStats {
  u64 jobs = 0;
  double busy_s = 0;   ///< virtual seconds of slot time consumed
  Samples queue_wait;
};

/// Aggregate serving metrics (cumulative across drains).
struct ServiceStats {
  u64 submitted = 0, completed = 0, rejected = 0, deadline_missed = 0;
  /// Deadline admission outcomes (subset of / in addition to `rejected`):
  /// jobs the controller rejected as deadline-infeasible, and jobs it
  /// downgraded to SloClass::BestEffort instead.
  u64 admission_rejected = 0, admission_downgraded = 0;
  /// Stage-boundary yields (each resumed exactly once later).
  u64 preemptions = 0;
  /// Dispatched jobs whose session threw (outcome == JobOutcome::Failed);
  /// the service released their slot and kept running.
  u64 jobs_failed = 0;
  /// Times the service flipped into degraded cold-session mode (tier
  /// declared down after the reconnect budget was exhausted).
  u64 degraded_spans = 0;
  Samples queue_wait, turnaround, run_vtime;  // admitted jobs only
  // Memoization outcomes summed over completed jobs.
  u64 lookups = 0, cache_hits = 0, db_hits = 0, shared_hits = 0, misses = 0;
  sim::VTime makespan = 0;  ///< latest finish seen
  double busy_s = 0;        ///< slot occupancy (seed fetch + run) summed
  u64 promoted = 0;             ///< entries promoted into the shared tier
  u64 shared_dedup_drops = 0;   ///< promotions rejected as near-duplicates
  u64 shared_cap_drops = 0;     ///< promotions dropped at max_shared_entries
  double fabric_fetch_s = 0;    ///< virtual seconds jobs spent fetching seeds
  double fabric_promote_s = 0;  ///< virtual seconds shipping promotions
  std::map<std::string, TenantStats> tenants;

  /// Fraction of memo lookups served by another job's work.
  [[nodiscard]] double cross_job_hit_rate() const {
    return lookups > 0 ? double(shared_hits) / double(lookups) : 0.0;
  }
  [[nodiscard]] double utilization(int slots) const {
    return makespan > 0 ? busy_s / (double(slots) * makespan) : 0.0;
  }
};

class ReconService {
 public:
  explicit ReconService(ServiceConfig cfg);
  ~ReconService();

  ReconService(const ReconService&) = delete;
  ReconService& operator=(const ReconService&) = delete;

  /// Build the shared tier: run `warm` back-to-back (request order, virtual
  /// time 0) with immediate promotion, training the cross-job encoder on
  /// the first job. Required before drain() when memoize is on — otherwise
  /// the first scheduled job would train the encoder and outputs would
  /// depend on dispatch order. Returns the warm jobs' stats (not counted in
  /// stats()).
  std::vector<JobStats> prime(std::span<const JobRequest> warm);

  /// Enqueue a job for the next drain(); assigns and returns its id.
  /// Admission control runs at *arrival* (virtual time) inside drain(), not
  /// here — a submitted job can still be rejected if the queue is full when
  /// it arrives.
  u64 submit(JobRequest req);
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Run the event loop until the queue is empty; returns per-job stats in
  /// id order (rejected jobs included, admitted=false). Session insertions
  /// are promoted into the shared tier afterwards in job-id order —
  /// deterministic for every scheduling policy.
  std::vector<JobStats> drain();

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t shared_entries() const { return tier_->size(); }
  /// The tier backend (shard occupancy) — in-process or a remote client,
  /// per ServiceConfig::transport.
  [[nodiscard]] const TierBackend& tier() const { return *tier_; }
  /// The fabric the tier's traffic is charged on (contention counters).
  [[nodiscard]] const sim::Fabric& fabric() const { return fabric_; }
  /// Mutable backend access (tests inject transport faults through it).
  [[nodiscard]] TierBackend& tier_mut() { return *tier_; }
  /// In degraded cold-session mode right now (tier declared down; see
  /// ServiceConfig::net_retry_max)?
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] Scheduler& scheduler() { return *sched_; }
  [[nodiscard]] const lamino::Operators& ops() const { return ops_; }
  /// Ground truth for a scenario/seed (error accounting, tests).
  const Array3D<cfloat>& ground_truth(Scenario s, u64 seed);

 private:
  struct Problem {
    Array3D<cfloat> truth;
    Array3D<cfloat> d;  ///< simulated projections
  };
  const Problem& problem_for(Scenario s, u64 seed);

  /// A preempted job between segments: everything needed to rebuild its
  /// hermetic session bit-identically at the next dispatch. The tier is
  /// constant during a drain (folds happen post-drain), so the resumed
  /// session re-fetches the *identical* seed snapshot; on top of it the
  /// checkpoint re-installs the session's own insertions, cache contents,
  /// outcome counters and virtual timelines, and the solver continues from
  /// its saved outer-iteration boundary.
  struct PausedJob {
    JobRequest req;  ///< owned copy (the queue points into this)
    admm::SolverCheckpoint ck;
    std::vector<memo::MemoDb::Entry> own_entries;  ///< session's inserts
    memo::CacheImage cache;
    memo::MemoCounters counters;
    ExecutionContext::SimClockState clocks;
    sim::VTime yield_time = 0;   ///< service-clock instant the slot freed
    sim::VTime first_start = 0;  ///< dispatch time of the first segment
    double seed_fetch_total = 0; ///< fetch seconds across segments so far
    u64 preemptions = 0;
    std::vector<int> slots;      ///< slots visited by earlier segments
  };

  struct RunOutcome {
    JobStats st;          ///< valid when !paused
    bool paused = false;
    PausedJob paused_job; ///< valid when paused
  };

  /// Execute one job segment in a hermetic session: dispatched at `start`,
  /// compute begins at `seed_ready` (the charged fabric fetch completion;
  /// == start when nothing was fetched). `own_entries` (nullable) receives
  /// the session's own DB insertions on completion. `resume` (nullable)
  /// continues a preempted session from its checkpoint. `contended`
  /// (nullable) is consulted at quantum-expired stage boundaries with the
  /// would-be yield instant on the service clock; preemption triggers when
  /// it returns true (or always, under preempt_force).
  RunOutcome run_job(const JobRequest& req, sim::VTime start,
                     sim::VTime seed_ready,
                     std::vector<memo::MemoDb::Entry>* own_entries,
                     bool cold = false, PausedJob* resume = nullptr,
                     const std::function<bool(sim::VTime)>& contended = {});
  /// Build a transport per cfg_.transport (Loopback/Socket). Used at
  /// construction and by the degraded-mode recovery probe.
  std::unique_ptr<net::Transport> make_transport();
  /// Flip into degraded cold-session mode (counted, traced and logged at
  /// Warn with `why`). Idempotent per span: a second fault while already
  /// degraded is not a new span.
  void enter_degraded(const std::string& why);
  /// Degraded-mode recovery probe, run at dispatch time: rebuild the
  /// transport, re-ship buffered promotions through the normal fold path,
  /// and leave degraded mode. A probe that fails leaves everything as it
  /// was — the next dispatch probes again.
  void try_tier_recovery();
  /// Virtual-clock multiplier of a scenario's wire/compute charges.
  [[nodiscard]] double work_scale_for(Scenario s) const;
  /// Admission's uncontended seed-fetch estimate at a scenario's work
  /// scale: fabric latency + tier bytes × scale / uplink bandwidth. 0 when
  /// nothing would be fetched (memoize off, fabric off, or empty tier).
  [[nodiscard]] double estimate_fetch_s(double scale) const;
  /// Charge the seed fetch for a job dispatched at `t`; returns when the
  /// session may start computing.
  sim::VTime charge_seed_fetch(sim::VTime t, double scale);
  /// Charge the shipment of the entries a job finished at `ready` offers
  /// the tier.
  void charge_shipment(const std::vector<memo::MemoDb::Entry>& entries,
                       sim::VTime ready, double scale);
  /// Fold one job's insertions into the tier (no clock charges — shipments
  /// are charged separately in finish order) and account the outcome into
  /// service stats and — when non-null — the job's own record
  /// (`st->promoted`, `st->memo.shared_*_drops`).
  void fold_promotion(JobStats* st, std::vector<memo::MemoDb::Entry> entries);
  void account(const JobStats& st);

  ServiceConfig cfg_;
  lamino::Geometry geom_;
  lamino::Operators ops_;
  std::shared_ptr<encoder::EncoderRegistry> registry_;
  std::unique_ptr<ThreadPool> pool_;  ///< shared by sessions (null = global)
  /// In-process TierServer backing the Loopback transport (and Socket with
  /// an empty tier_address). Declared before tier_: the client holds a raw
  /// pointer/connection into it and must be destroyed first.
  std::unique_ptr<net::TierServer> server_;
  std::unique_ptr<TierBackend> tier_;  ///< the shared memo tier backend
  sim::Fabric fabric_;  ///< cross-session fabric; links = shard_count
  /// Degraded cold-session mode: the remote tier is down (reconnect budget
  /// exhausted). Jobs run unseeded, promotions buffer locally in job-id
  /// order and re-ship through the normal fold path on recovery.
  bool degraded_ = false;
  std::vector<std::pair<u64, std::vector<memo::MemoDb::Entry>>>
      cold_promotions_;
  /// Socket-transport dial target (recovery probes re-dial it).
  std::string tier_host_;
  std::uint16_t tier_port_ = 0;
  std::vector<JobRequest> queue_;          ///< submitted, not yet drained
  std::vector<sim::VTime> slot_free_;      ///< per-slot next-free vtime
  /// Admission's *private* model of slot availability — advanced only by
  /// the controller's own estimates at arrival instants, never read from
  /// slot_free_/queue state, so decisions are policy-invariant. Persists
  /// across drains (like slot_free_).
  std::vector<sim::VTime> adm_free_;
  /// Per-scenario run-vtime estimate: the max run_vtime observed across
  /// prime() and completed drains (run vtimes are policy-invariant, so
  /// this is too). 0 = never seen, admission has no grounds to reject.
  std::array<double, std::size_t(kNumScenarios)> est_run_{};
  u64 next_id_ = 1;
  std::unique_ptr<Scheduler> sched_;
  ServiceStats stats_;
  std::map<std::pair<int, u64>, Problem> problems_;  ///< (scenario,seed) →
};

}  // namespace mlr::serve
