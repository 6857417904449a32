// serve/job — job-level types of the multi-tenant reconstruction service.
//
// A JobRequest is one tenant's reconstruction order: which scenario (the
// object class + solver profile, drawn from the example programs), which
// object (phantom seed), when it arrives on the virtual clock, how urgent it
// is (priority class / deadline) and which tenant to bill. JobStats is the
// service's answer: admission, schedule (queue wait / turnaround on the same
// virtual clock), memoization outcomes including cross-job reuse, and an
// output fingerprint — the bit-level identity the service guarantees across
// scheduling policies and thread counts.
#pragma once

#include <string>
#include <vector>

#include "lamino/phantom.hpp"
#include "memo/memoized_ops.hpp"
#include "sim/clock.hpp"

namespace mlr::serve {

/// Workload scenarios the service accepts — the heterogeneous mix of the
/// repo's example programs (pcb_inspection, ic_inspection, quickstart's
/// brain phantom, memory_constrained's paper-2K³ class).
enum class Scenario : int {
  PcbInspection = 0,     ///< coarse features, loose τ, short jobs
  IcInspection = 1,      ///< fine features, strict τ
  BrainScan = 2,         ///< smooth tissue, paper-1.5K³ timing class
  MemoryConstrained = 3, ///< paper-2K³ timing class: the long-job tail
};
inline constexpr int kNumScenarios = 4;

inline const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::PcbInspection: return "pcb";
    case Scenario::IcInspection: return "ic";
    case Scenario::BrainScan: return "brain";
    case Scenario::MemoryConstrained: return "memcon";
  }
  return "?";
}

/// Per-scenario solver profile. Every job of a service reconstructs on the
/// service's one shared geometry (keys/values of different shapes never
/// alias — the DB's value-size gate would reject them anyway); scenarios
/// differ in object class, similarity threshold, iteration budget and the
/// paper-scale dimension their virtual clock maps onto.
struct ScenarioProfile {
  lamino::PhantomKind phantom{};
  double tau = 0.92;   ///< similarity threshold class (paper §4.5)
  int iters = 10;
  int inner_iters = 4;
  double alpha = 1e-3;
  double noise = 0.01;
  i64 paper_n = 1024;  ///< paper-scale dimension (drives work_scale)
};

inline ScenarioProfile scenario_profile(Scenario s) {
  switch (s) {
    case Scenario::PcbInspection:
      return {lamino::PhantomKind::Pcb, 0.90, 8, 4, 1e-3, 0.01, 1024};
    case Scenario::IcInspection:
      return {lamino::PhantomKind::IntegratedCircuit, 0.95, 10, 4, 1e-3,
              0.01, 1024};
    case Scenario::BrainScan:
      return {lamino::PhantomKind::BrainTissue, 0.92, 10, 4, 1e-3, 0.01,
              1536};
    case Scenario::MemoryConstrained:
      return {lamino::PhantomKind::BrainTissue, 0.92, 6, 3, 2e-3, 0.01,
              2048};
  }
  return {};
}

/// Service-level objective class of a request. Admission may *downgrade* an
/// infeasible Interactive/Standard job to BestEffort instead of rejecting
/// it: the job keeps its deadline for reporting but stops counting against
/// the admitted deadline-hit rate (it was told up front it would be late).
enum class SloClass : int { Interactive = 0, Standard = 1, BestEffort = 2 };
inline constexpr int kNumSloClasses = 3;

inline const char* slo_class_name(SloClass c) {
  switch (c) {
    case SloClass::Interactive: return "interactive";
    case SloClass::Standard: return "standard";
    case SloClass::BestEffort: return "best-effort";
  }
  return "?";
}

/// One tenant's reconstruction order.
struct JobRequest {
  u64 id = 0;                    ///< assigned by ReconService::submit
  std::string tenant = "default";
  double tenant_weight = 1.0;    ///< fair-share weight of the tenant
  int priority = 1;              ///< higher runs first (Priority policy)
  sim::VTime arrival = 0;        ///< virtual arrival time
  sim::VTime deadline = 0;       ///< absolute virtual deadline; 0 = none
  SloClass slo = SloClass::Standard;
  Scenario scenario = Scenario::BrainScan;
  u64 seed = 1;                  ///< object identity (phantom seed)
};

/// How a job left the service. Rejected jobs never ran (admission control);
/// Failed jobs were dispatched but their session threw — the error is
/// preserved in JobStats::failure, the slot was released, and every OTHER
/// job's outputs/records/vtimes are unaffected (per-job failure isolation:
/// sessions are hermetic and the tier folds in job-id order, so a failed
/// job is simply absent from the fold).
enum class JobOutcome : int { Completed = 0, Rejected = 1, Failed = 2 };

inline const char* job_outcome_name(JobOutcome o) {
  switch (o) {
    case JobOutcome::Completed: return "completed";
    case JobOutcome::Rejected: return "rejected";
    case JobOutcome::Failed: return "failed";
  }
  return "?";
}

/// Outcome of one job.
struct JobStats {
  u64 id = 0;
  std::string tenant;
  Scenario scenario{};
  int priority = 1;
  SloClass slo = SloClass::Standard;
  bool admitted = true;          ///< false: rejected at arrival
  /// Why admission said no ("queue-full" / "deadline-infeasible"); empty
  /// for admitted jobs.
  std::string reject_reason;
  /// Admission downgraded the job to SloClass::BestEffort at arrival: its
  /// deadline was estimated infeasible but the job ran anyway.
  bool downgraded = false;
  JobOutcome outcome = JobOutcome::Completed;
  std::string failure;           ///< Failed only: what the session threw
  /// Ran in degraded (cold-session) mode: the shared tier was unreachable,
  /// so no seed was imported and the job's promotion was buffered locally
  /// for re-shipment on recovery.
  bool degraded = false;
  int slot = -1;                 ///< execution slot that ran the job (last)
  /// Stage-boundary preemption: how many times the job yielded its slot and
  /// requeued, and every slot that hosted one of its segments (in order).
  /// Preemption is schedule-shaped only — outputs, records, cache
  /// fingerprints and run_vtime are bit-identical to an uninterrupted run.
  u64 preemptions = 0;
  std::vector<int> slots_visited;
  sim::VTime arrival = 0, start = 0, finish = 0;
  /// Policy-invariant job runtime: sessions are hermetic (seed snapshot +
  /// own insertions), so a job's duration never depends on who else was in
  /// the queue — only queue wait, seed-fetch time and turnaround do.
  double run_vtime = 0;
  /// Virtual seconds between dispatch and compute start, spent fetching the
  /// shared-tier seed over the contended fabric (queueing behind other
  /// sessions' uplink passes included): finish = start + seed_fetch_s +
  /// run_vtime. 0 when the fabric is disabled or the tier is empty.
  double seed_fetch_s = 0;
  /// Entries of this job accepted into the shared tier (its dedup/cap drops
  /// are in memo.shared_dedup_drops / memo.shared_cap_drops).
  u64 promoted = 0;
  bool deadline_met = true;
  double error_vs_truth = 0;
  memo::MemoCounters memo;       ///< incl. db_hit_shared (cross-job reuse)
  double cache_hit_rate = 0;
  u64 output_fingerprint = 0;    ///< FNV-1a over the result bits
  u64 cache_fingerprint = 0;     ///< session cache digest at completion
                                 ///< (0 for a multi-GPU session)

  [[nodiscard]] double queue_wait() const { return start - arrival; }
  [[nodiscard]] double turnaround() const { return finish - arrival; }
};

}  // namespace mlr::serve
