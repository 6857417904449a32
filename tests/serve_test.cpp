// Tests for the multi-tenant reconstruction service: scheduler policies
// against hand-computed orders, the service event loop's schedule equations,
// admission control, deadline accounting, shared-tier cross-job reuse,
// sharded-tier promotion (dedup + cap accounting), the fabric-contention
// model, and the acceptance property of the serving model — per-job outputs
// and run vtimes are bit-identical across scheduling policies, thread
// counts, shard counts and (for a fixed gpus_per_job) session width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/hash.hpp"
#include "net/request_table.hpp"
#include "net/tier_client.hpp"
#include "net/tier_server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "serve/shared_tier.hpp"
#include "serve/workload.hpp"

namespace mlr::serve {
namespace {

JobRequest make_req(u64 id, sim::VTime arrival, int priority = 1,
                    std::string tenant = "default", double weight = 1.0) {
  JobRequest r;
  r.id = id;
  r.arrival = arrival;
  r.priority = priority;
  r.tenant = std::move(tenant);
  r.tenant_weight = weight;
  return r;
}

std::vector<QueuedJob> views(const std::vector<JobRequest>& reqs) {
  std::vector<QueuedJob> v;
  // queued_at = arrival, as drain() sets it for fresh jobs.
  for (const auto& r : reqs) v.push_back({&r, r.arrival, false});
  return v;
}

// --- Scheduler unit tests (hand-computed pick orders) -----------------------

TEST(Scheduler, FifoPicksEarliestArrivalThenId) {
  FifoScheduler s;
  const std::vector<JobRequest> reqs = {make_req(3, 5.0), make_req(1, 2.0),
                                        make_req(2, 2.0)};
  auto w = views(reqs);
  EXPECT_EQ(s.pick(w, 10.0), 1u);  // arrival 2.0, id 1
  w.erase(w.begin() + 1);
  EXPECT_EQ(s.pick(w, 10.0), 1u);  // arrival 2.0, id 2
  w.erase(w.begin() + 1);
  EXPECT_EQ(s.pick(w, 10.0), 0u);
}

TEST(Scheduler, PriorityClassesThenFifoWithin) {
  PriorityScheduler s;
  const std::vector<JobRequest> reqs = {
      make_req(1, 0.0, /*priority=*/1), make_req(2, 1.0, /*priority=*/3),
      make_req(3, 0.5, /*priority=*/3), make_req(4, 0.0, /*priority=*/2)};
  auto w = views(reqs);
  // Highest class first; within class 3 the earlier arrival (id 3) wins.
  EXPECT_EQ(s.pick(w, 10.0), 2u);
  w.erase(w.begin() + 2);
  EXPECT_EQ(s.pick(w, 10.0), 1u);  // id 2 (class 3)
  w.erase(w.begin() + 1);
  EXPECT_EQ(s.pick(w, 10.0), 1u);  // id 4 (class 2)
  w.erase(w.begin() + 1);
  EXPECT_EQ(s.pick(w, 10.0), 0u);  // id 1
}

TEST(Scheduler, FairShareStrideAccounting) {
  // Tenants A (weight 1) and B (weight 3), all jobs arrive at 0, equal run
  // vtime 9. Hand-computed virtual runtimes:
  //   dispatch A1 → vrun(A)=9; B jobs run at cost 9/3=3 each, so B2, B4, B6
  //   run before A's vruntime is matched; then the (arrival, id) tie-break
  //   resumes A3, A5.
  FairShareScheduler s;
  std::vector<JobRequest> reqs = {
      make_req(1, 0, 1, "A", 1.0), make_req(2, 0, 1, "B", 3.0),
      make_req(3, 0, 1, "A", 1.0), make_req(4, 0, 1, "B", 3.0),
      make_req(5, 0, 1, "A", 1.0), make_req(6, 0, 1, "B", 3.0)};
  auto w = views(reqs);
  std::vector<u64> order;
  while (!w.empty()) {
    const auto i = s.pick(w, 0.0);
    order.push_back(w[i].req->id);
    s.on_dispatch(*w[i].req, 0.0, 9.0);
    w.erase(w.begin() + i64(i));
  }
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 4, 6, 3, 5}));
  EXPECT_DOUBLE_EQ(s.tenant_vruntime("A"), 27.0);
  EXPECT_DOUBLE_EQ(s.tenant_vruntime("B"), 9.0);
  EXPECT_DOUBLE_EQ(s.tenant_vruntime("never-seen"), 0.0);
}

// --- Service-level scheduling ------------------------------------------------

ServiceConfig tiny_config(SchedulerPolicy policy, int slots = 1) {
  ServiceConfig sc;
  sc.n = 10;
  sc.chunk_size = 4;
  sc.slots = slots;
  sc.threads = 1;
  sc.iters_cap = 2;
  sc.encoder_train_steps = 40;
  sc.policy = policy;
  return sc;
}

std::vector<JobRequest> warm_set() {
  JobRequest w;
  w.scenario = Scenario::BrainScan;
  w.seed = 200;  // object 0 of the brain pool (see WorkloadGenerator)
  return {w};
}

TEST(ReconService, FifoScheduleMatchesRecurrence) {
  // One slot, FIFO: start_i = max(arrival_i, finish_{i-1}) in arrival
  // order, and finish = start + seed fetch (the charged fabric time) + run.
  // run_vtime is policy-invariant, so the whole schedule is exactly
  // recomputable from the observed fetch + run times.
  ReconService svc(tiny_config(SchedulerPolicy::Fifo));
  auto warm = warm_set();
  svc.prime(warm);
  for (int j = 0; j < 4; ++j) {
    JobRequest r;
    r.arrival = 50.0 * j;
    r.scenario = Scenario::BrainScan;
    r.seed = 200 + u64(j % 2);
    svc.submit(r);
  }
  const auto stats = svc.drain();
  ASSERT_EQ(stats.size(), 4u);
  sim::VTime prev_finish = 0;
  for (const auto& st : stats) {
    EXPECT_TRUE(st.admitted);
    EXPECT_DOUBLE_EQ(st.start, std::max(st.arrival, prev_finish));
    EXPECT_GT(st.seed_fetch_s, 0.0);  // the tier is primed, the fabric on
    EXPECT_DOUBLE_EQ(st.finish, st.start + st.seed_fetch_s + st.run_vtime);
    prev_finish = st.finish;
  }
  EXPECT_GT(svc.stats().fabric_fetch_s, 0.0);
  EXPECT_GT(svc.stats().fabric_promote_s, 0.0);  // promotions cross it too
}

TEST(ReconService, StartNeverPrecedesArrival) {
  // Regression for the event loop: with several slots idle and jobs
  // arriving simultaneously, the second slot used to dispatch a queued job
  // at the slot's free time (0) instead of the job's arrival instant.
  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  ReconService svc(cfg);
  auto warm = warm_set();
  svc.prime(warm);
  for (int j = 0; j < 3; ++j) {
    JobRequest r;
    r.arrival = 100.0;  // all at once, both slots idle
    r.scenario = Scenario::BrainScan;
    r.seed = 200;
    svc.submit(r);
  }
  for (const auto& st : svc.drain()) {
    EXPECT_GE(st.start, st.arrival);
    EXPECT_GE(st.queue_wait(), 0.0);
  }
}

TEST(ReconService, PriorityPolicyRunsHighClassFirst) {
  ReconService svc(tiny_config(SchedulerPolicy::Priority));
  auto warm = warm_set();
  svc.prime(warm);
  // All arrive at 0; priorities 1..4 submitted in increasing-priority order.
  std::map<u64, int> prio_of;
  for (int p = 1; p <= 4; ++p) {
    JobRequest r;
    r.arrival = 0;
    r.priority = p;
    r.scenario = Scenario::BrainScan;
    r.seed = 200;
    prio_of[svc.submit(r)] = p;
  }
  auto stats = svc.drain();
  ASSERT_EQ(stats.size(), 4u);
  std::sort(stats.begin(), stats.end(),
            [](const JobStats& a, const JobStats& b) {
              return a.start < b.start;
            });
  for (std::size_t i = 1; i < stats.size(); ++i)
    EXPECT_LT(prio_of[stats[i].id], prio_of[stats[i - 1].id]);
}

TEST(ReconService, AdmissionRejectsBeyondBacklogCap) {
  auto cfg = tiny_config(SchedulerPolicy::Fifo);
  cfg.max_queue = 1;
  ReconService svc(cfg);
  auto warm = warm_set();
  svc.prime(warm);
  // Job 1 runs long; job 2 queues; jobs 3 and 4 arrive while the single
  // queue slot is taken and are rejected at arrival.
  for (int j = 0; j < 4; ++j) {
    JobRequest r;
    r.arrival = 10.0 * j;
    r.scenario = Scenario::BrainScan;
    r.seed = 200;
    svc.submit(r);
  }
  const auto stats = svc.drain();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_TRUE(stats[0].admitted);
  EXPECT_TRUE(stats[1].admitted);
  EXPECT_FALSE(stats[2].admitted);
  EXPECT_FALSE(stats[3].admitted);
  EXPECT_EQ(svc.stats().completed, 2u);
  EXPECT_EQ(svc.stats().rejected, 2u);
}

TEST(ReconService, DeadlineAccounting) {
  ReconService svc(tiny_config(SchedulerPolicy::Fifo));
  auto warm = warm_set();
  svc.prime(warm);
  JobRequest relaxed;
  relaxed.scenario = Scenario::BrainScan;
  relaxed.seed = 200;
  relaxed.deadline = 1e12;
  JobRequest impossible = relaxed;
  impossible.deadline = 1e-6;
  svc.submit(relaxed);
  svc.submit(impossible);
  const auto stats = svc.drain();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].deadline_met);
  EXPECT_FALSE(stats[1].deadline_met);
  EXPECT_EQ(svc.stats().deadline_missed, 1u);
}

TEST(ReconService, DrainWithoutPrimeThrowsWhenMemoized) {
  ReconService svc(tiny_config(SchedulerPolicy::Fifo));
  JobRequest r;
  r.scenario = Scenario::BrainScan;
  svc.submit(r);
  EXPECT_THROW(svc.drain(), mlr::Error);
}

// --- Shared-memo sessions ----------------------------------------------------

TEST(ReconService, SharedTierServesCrossJobHits) {
  ReconService svc(tiny_config(SchedulerPolicy::Fifo));
  auto warm = warm_set();
  svc.prime(warm);
  const auto seeded = svc.shared_entries();
  EXPECT_GT(seeded, 0u);
  JobRequest r;
  r.scenario = Scenario::BrainScan;
  r.seed = 200;  // the primed object: maximal similarity
  svc.submit(r);
  const auto stats = svc.drain();
  ASSERT_EQ(stats.size(), 1u);
  // The job reuses another job's work (the priming pass) …
  EXPECT_GT(stats[0].memo.db_hit_shared, 0u);
  EXPECT_LE(stats[0].memo.db_hit_shared, stats[0].memo.db_hit);
  EXPECT_GT(svc.stats().cross_job_hit_rate(), 0.0);
  // … and its own insertions are promoted for the next epoch.
  EXPECT_GT(svc.shared_entries(), seeded);
}

TEST(ReconService, PromotionRespectsCap) {
  auto cfg = tiny_config(SchedulerPolicy::Fifo);
  cfg.max_shared_entries = 4;
  cfg.tau_dedup = 0.0;  // isolate the cap from the dedup probe
  ReconService svc(cfg);
  auto warm = warm_set();
  const auto primed = svc.prime(warm);
  EXPECT_EQ(svc.shared_entries(), 4u);
  EXPECT_GT(svc.stats().shared_cap_drops, 0u);
  EXPECT_EQ(svc.stats().shared_dedup_drops, 0u);
  // The warm job's own record carries its drop split.
  ASSERT_EQ(primed.size(), 1u);
  EXPECT_EQ(primed[0].memo.shared_cap_drops, svc.stats().shared_cap_drops);
  EXPECT_EQ(primed[0].promoted, 4u);
}

// --- Sharded tier: promotion dedup -------------------------------------------

memo::MemoDb::Entry tier_entry(std::vector<float> key, double norm = 1.0,
                               std::size_t value_size = 8) {
  memo::MemoDb::Entry e;
  e.kind = memo::OpKind::Fu1D;
  e.key = std::move(key);
  e.norm = norm;
  e.value.assign(value_size, cfloat(1.0f, 0.0f));
  return e;
}

TEST(SharedTier, DedupAndCapDropsCountedSeparately) {
  SharedTierConfig tc;
  tc.shard_count = 2;
  tc.max_entries = 3;
  tc.tau_dedup = 0.99;
  tc.key_dim = 4;
  SharedTier tier(tc);
  std::vector<memo::MemoDb::Entry> batch;
  batch.push_back(tier_entry({1, 0, 0, 0}));  // accepted
  batch.push_back(tier_entry({1, 0, 0, 0}));  // exact dup -> dedup drop
  batch.push_back(tier_entry({0, 1, 0, 0}));  // accepted (orthogonal)
  batch.push_back(tier_entry({0, 0, 1, 0}));  // accepted
  batch.push_back(tier_entry({0, 0, 0, 1}));  // cap (3 entries) -> cap drop
  const auto out = tier.fold(std::move(batch));
  EXPECT_EQ(out.promoted, 3u);
  EXPECT_EQ(out.dedup_drops, 1u);
  EXPECT_EQ(out.cap_drops, 1u);
  EXPECT_EQ(tier.size(), 3u);
  EXPECT_EQ(tier.shard_entries(0) + tier.shard_entries(1), 3u);
}

TEST(SharedTier, DedupNeverCrossesValueShapesAndSnapshotOrderIsShardFree) {
  // A same-key entry with a different value length is never a duplicate
  // (never a valid answer for the same query), and the canonical snapshot
  // order is identical for every shard count — sharding is placement only.
  std::vector<memo::MemoDb::Entry> batch;
  batch.push_back(tier_entry({1, 0, 0, 0}, 1.0, /*value_size=*/8));
  batch.push_back(tier_entry({1, 0, 0, 0}, 1.0, /*value_size=*/6));
  batch.push_back(tier_entry({0, 1, 0, 0}));
  std::vector<std::vector<float>> snap1, snap4;
  for (const int shards : {1, 4}) {
    SharedTierConfig tc;
    tc.shard_count = shards;
    tc.tau_dedup = 0.99;
    tc.key_dim = 4;
    SharedTier tier(tc);
    auto copy = batch;
    const auto out = tier.fold(std::move(copy));
    EXPECT_EQ(out.promoted, 3u);
    EXPECT_EQ(out.dedup_drops, 0u);
    auto& snap = shards == 1 ? snap1 : snap4;
    for (const auto& e : tier.snapshot()) snap.push_back(e.key);
  }
  EXPECT_EQ(snap1, snap4);
}

TEST(ReconService, DedupCompactsTierAndIsCountedPerJob) {
  // An aggressive τ_dedup drops near-duplicate promotions that a dedup-free
  // tier keeps, and the per-job drop fields sum to the service counters.
  struct Outcome {
    u64 prime_promoted = 0, prime_dedup = 0, total_dedup = 0;
  };
  auto run = [](double tau_dedup) {
    auto cfg = tiny_config(SchedulerPolicy::Fifo);
    cfg.tau_dedup = tau_dedup;
    ReconService svc(cfg);
    auto warm = warm_set();
    auto primed = svc.prime(warm);
    for (int j = 0; j < 2; ++j) {
      JobRequest r;
      r.arrival = 50.0 * j;
      r.scenario = Scenario::BrainScan;
      r.seed = 200;  // the primed object: maximal near-duplicate pressure
      svc.submit(r);
    }
    auto stats = svc.drain();
    u64 job_dedup = 0, job_cap = 0, job_promoted = 0;
    for (const auto* set : {&primed, &stats}) {
      for (const auto& st : *set) {
        job_dedup += st.memo.shared_dedup_drops;
        job_cap += st.memo.shared_cap_drops;
        job_promoted += st.promoted;
      }
    }
    EXPECT_EQ(job_dedup, svc.stats().shared_dedup_drops);
    EXPECT_EQ(job_cap, svc.stats().shared_cap_drops);
    EXPECT_EQ(job_promoted, svc.stats().promoted);
    EXPECT_EQ(svc.shared_entries(), svc.stats().promoted);
    Outcome o;
    o.prime_promoted = primed[0].promoted;
    o.prime_dedup = primed[0].memo.shared_dedup_drops;
    o.total_dedup = svc.stats().shared_dedup_drops;
    return o;
  };
  const Outcome keep = run(0.0);
  const Outcome dedup = run(0.35);
  EXPECT_EQ(keep.total_dedup, 0u);
  EXPECT_GT(dedup.total_dedup, 0u);
  // The priming job always runs on an empty tier, so both runs offer the
  // SAME batch: what dedup dropped there is exactly what it kept fewer.
  EXPECT_GT(dedup.prime_dedup, 0u);
  EXPECT_EQ(keep.prime_promoted, dedup.prime_promoted + dedup.prime_dedup);
}

// --- The acceptance property -------------------------------------------------

struct RunSummary {
  std::map<u64, u64> fingerprint;
  std::map<u64, u64> cache_fp;
  std::map<u64, double> run_vtime;
  std::map<u64, double> queue_wait;
  std::map<u64, double> seed_fetch;
  std::map<u64, double> finish;
  std::map<u64, u64> preemptions;
  std::map<u64, std::vector<int>> slots;
  /// Memo outcome digest {computed, miss, db_hit, cache_hit, db_hit_shared}
  /// — the per-job "records" half of the bit-identity contract.
  std::map<u64, std::vector<u64>> memo;
};

RunSummary run_workload(ServiceConfig cfg,
                        const std::vector<JobRequest>& jobs,
                        const std::vector<JobRequest>& warm) {
  ReconService svc(cfg);
  svc.prime(warm);
  for (const auto& j : jobs) svc.submit(j);
  RunSummary out;
  for (const auto& st : svc.drain()) {
    out.fingerprint[st.id] = st.output_fingerprint;
    out.cache_fp[st.id] = st.cache_fingerprint;
    out.run_vtime[st.id] = st.run_vtime;
    out.queue_wait[st.id] = st.queue_wait();
    out.seed_fetch[st.id] = st.seed_fetch_s;
    out.finish[st.id] = st.finish;
    out.preemptions[st.id] = st.preemptions;
    out.slots[st.id] = st.slots_visited;
    out.memo[st.id] = {st.memo.computed, st.memo.miss, st.memo.db_hit,
                       st.memo.cache_hit, st.memo.db_hit_shared};
  }
  return out;
}

TEST(ReconService, OutputsIdenticalAcrossPoliciesAndEngineKnobs) {
  WorkloadConfig wc;
  wc.jobs = 5;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  wc.tenants = {{"A", 1.0, 1, 1.0}, {"B", 2.0, 2, 1.0}};
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto fifo = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  auto prio = tiny_config(SchedulerPolicy::Priority, /*slots=*/2);
  prio.threads = 3;  // the pool width must not change anything either
  auto fair = tiny_config(SchedulerPolicy::FairShare, /*slots=*/2);
  fair.threads = 2;

  const auto a = run_workload(fifo, jobs, warm);
  const auto b = run_workload(prio, jobs, warm);
  const auto c = run_workload(fair, jobs, warm);

  // Hermetic sessions: outputs and run vtimes are bit-identical for every
  // policy / thread count; only queue waits may differ.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
  EXPECT_EQ(a.run_vtime, b.run_vtime);
  EXPECT_EQ(a.run_vtime, c.run_vtime);

  // Same policy + same knobs ⇒ the whole schedule reproduces bit-identically
  // (the latency-CDF reproducibility claim).
  auto fifo2 = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  fifo2.threads = 2;
  const auto a2 = run_workload(fifo2, jobs, warm);
  EXPECT_EQ(a.fingerprint, a2.fingerprint);
  EXPECT_EQ(a.run_vtime, a2.run_vtime);
  EXPECT_EQ(a.queue_wait, a2.queue_wait);
}

// Tracing joins the serving bit-identity property: a run that records a
// trace (ServiceConfig::trace_path) must reproduce the untraced schedule
// bit-for-bit — fingerprints, run vtimes, queue waits and finish times —
// while the trace file itself comes out non-empty and carries the per-job
// span taxonomy.
TEST(ReconService, TraceOnOffBitIdentity) {
  WorkloadConfig wc;
  wc.jobs = 4;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  wc.tenants = {{"A", 1.0, 1, 1.0}, {"B", 2.0, 2, 1.0}};
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  cfg.threads = 2;
  const auto off = run_workload(cfg, jobs, warm);

  auto traced = cfg;
  traced.trace_path = ::testing::TempDir() + "mlr_serve_trace_test.json";
  const auto on = run_workload(traced, jobs, warm);
  auto& rec = obs::TraceRecorder::instance();
  rec.disable();
  rec.clear();

  EXPECT_EQ(off.fingerprint, on.fingerprint);
  EXPECT_EQ(off.run_vtime, on.run_vtime);
  EXPECT_EQ(off.queue_wait, on.queue_wait);
  EXPECT_EQ(off.seed_fetch, on.seed_fetch);
  EXPECT_EQ(off.finish, on.finish);

  std::ifstream f(traced.trace_path);
  ASSERT_TRUE(f.good()) << traced.trace_path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string js = ss.str();
  EXPECT_GT(js.size(), 100u);
  for (const char* needle :
       {"\"traceEvents\"", "\"job\"", "job.solve", "job.session_build",
        "job.export", "service.drain", "vclock.service", "vclock.session"})
    EXPECT_NE(js.find(needle), std::string::npos) << needle;
  std::remove(traced.trace_path.c_str());
}

TEST(ReconService, SharedTierShardMatrix) {
  // The sharding acceptance property: job outputs, per-job records AND the
  // whole virtual-clock schedule are bit-identical for every shard count ×
  // scheduling policy × threads combination — sharding
  // decides which link carries which bytes, never what a session sees, and
  // with the default link ≥ uplink bandwidths the uplink pass (shard-count
  // invariant) dominates every fabric charge.
  WorkloadConfig wc;
  wc.jobs = 4;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  wc.tenants = {{"A", 1.0, 1, 1.0}, {"B", 2.0, 2, 1.0}};
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  struct Knobs {
    int shards;
    unsigned threads;
  };
  const Knobs knobs[] = {{1, 1}, {2, 3}, {4, 2}};
  const SchedulerPolicy policies[] = {SchedulerPolicy::Fifo,
                                     SchedulerPolicy::FairShare};
  const RunSummary* global_ref = nullptr;
  RunSummary first;
  for (const auto policy : policies) {
    RunSummary policy_ref;
    bool have_policy_ref = false;
    for (const auto& k : knobs) {
      auto cfg = tiny_config(policy, /*slots=*/2);
      cfg.shard_count = k.shards;
      cfg.threads = k.threads;
      const auto r = run_workload(cfg, jobs, warm);
      if (global_ref == nullptr) {
        first = r;
        global_ref = &first;
      }
      // Outputs + run vtimes: identical across EVERYTHING.
      EXPECT_EQ(r.fingerprint, global_ref->fingerprint);
      EXPECT_EQ(r.run_vtime, global_ref->run_vtime);
      // Schedule (queue waits, fetches, finishes): identical across shard
      // counts and thread counts for a fixed policy.
      if (!have_policy_ref) {
        policy_ref = r;
        have_policy_ref = true;
      } else {
        EXPECT_EQ(r.queue_wait, policy_ref.queue_wait);
        EXPECT_EQ(r.seed_fetch, policy_ref.seed_fetch);
        EXPECT_EQ(r.finish, policy_ref.finish);
      }
    }
  }
}

TEST(ReconService, FabricContentionShiftsOnlyConcurrentClocks) {
  // The fabric acceptance property, both halves. (a) Single-slot runs
  // reproduce the unsharded clock: with no concurrency there is no uplink
  // queueing, so the schedule is identical for every shard count. (b) With
  // two slots and a burst of simultaneous arrivals, sessions contend on the
  // uplink: every virtual time with the fabric enabled is >= its
  // network-isolated (disabled) counterpart, and narrowing the uplink can
  // only push clocks further — fabric-charge monotonicity.
  WorkloadConfig wc;
  wc.jobs = 4;
  wc.mean_interarrival = 1.0;
  wc.bursty = true;
  wc.burst_size = 4;  // jobs == one burst: maximal fetch overlap
  wc.mix = {{Scenario::PcbInspection, 1.0}};
  wc.distinct_objects = 2;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  // (a) one slot: shards 1 vs 4, full schedule identical.
  auto solo1 = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
  auto solo4 = solo1;
  solo4.shard_count = 4;
  const auto s1 = run_workload(solo1, jobs, warm);
  const auto s4 = run_workload(solo4, jobs, warm);
  EXPECT_EQ(s1.finish, s4.finish);
  EXPECT_EQ(s1.seed_fetch, s4.seed_fetch);

  // (b) two slots: isolated vs contended vs a 10x narrower uplink.
  auto isolated = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  isolated.fabric.enabled = false;
  auto contended = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  auto narrow = contended;
  narrow.fabric.uplink_bandwidth = contended.fabric.uplink_bandwidth / 10.0;
  narrow.fabric.link_bandwidth = contended.fabric.link_bandwidth;
  const auto off = run_workload(isolated, jobs, warm);
  const auto on = run_workload(contended, jobs, warm);
  const auto slow = run_workload(narrow, jobs, warm);
  EXPECT_EQ(off.fingerprint, on.fingerprint);  // the fabric moves time only
  EXPECT_EQ(on.fingerprint, slow.fingerprint);
  double contended_shift = 0;
  for (const auto& [id, fin] : on.finish) {
    EXPECT_GE(fin, off.finish.at(id));
    EXPECT_LE(fin, slow.finish.at(id));
    EXPECT_GE(on.seed_fetch.at(id), 0.0);
    EXPECT_GE(slow.seed_fetch.at(id), on.seed_fetch.at(id));
    contended_shift += fin - off.finish.at(id);
  }
  EXPECT_GT(contended_shift, 0.0);  // concurrent sessions really interfere
}

TEST(ReconService, FabricScheduleGolden) {
  // The fabric charge model, pinned end to end: per job its dispatch, seed
  // fetch, finish, run vtime, output and preemption count; then the
  // service's charged fetch and promote seconds, its makespan and every
  // fabric.* gauge — over two drains of one service, the second shifted by
  // 1000 vs so the fabric's carry-over between drains is pinned too, for
  // both deterministic tier carriers × 1 and 3 shards × preemption off and
  // forced. A change that moves a digest moved a virtual time: fix it, do
  // not re-record.
  WorkloadConfig wc;
  wc.jobs = 6;
  wc.mean_interarrival = 10.0;
  wc.bursty = true;
  wc.burst_size = 3;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  // Inproc and Loopback share each digest: the carrier moves no virtual
  // time.
  constexpr struct {
    int shards;
    bool preempt;
    u64 digest;
  } kGolden[] = {{1, false, 0x1d198f46bc650c94ull},
                 {1, true, 0xc967711e7bf80876ull},
                 {3, false, 0xa11f034fe45632c3ull},
                 {3, true, 0xcdc75cedc28497c4ull}};
  for (const auto& gd : kGolden) {
    for (const auto transport :
         {TierTransport::Inproc, TierTransport::Loopback}) {
      auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
      cfg.transport = transport;
      cfg.shard_count = gd.shards;
      cfg.preempt_force = gd.preempt;
      ReconService svc(cfg);
      svc.prime(warm);
      u64 h = kFnvOffsetBasis;
      auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
      u64 preemptions = 0;
      for (const double shift : {0.0, 1000.0}) {
        for (auto j : jobs) {
          j.arrival += shift;
          svc.submit(j);
        }
        for (const auto& st : svc.drain()) {
          ASSERT_EQ(st.outcome, JobOutcome::Completed) << "job " << st.id;
          pod(st.id);
          pod(st.start);
          pod(st.seed_fetch_s);
          pod(st.finish);
          pod(st.run_vtime);
          pod(st.output_fingerprint);
          pod(st.preemptions);
          preemptions += st.preemptions;
        }
      }
      const auto& ss = svc.stats();
      EXPECT_GT(ss.fabric_fetch_s, 0.0);
      EXPECT_GT(ss.fabric_promote_s, 0.0);
      EXPECT_EQ(preemptions > 0, gd.preempt);
      pod(ss.fabric_fetch_s);
      pod(ss.fabric_promote_s);
      pod(ss.makespan);
      for (const char* g :
           {"fabric.uplink_busy_vs", "fabric.links_busy_vs",
            "fabric.contention_vs", "fabric.bytes_moved", "fabric.transfers"})
        pod(obs::metrics().gauge(g).value());
      EXPECT_EQ(h, gd.digest)
          << (transport == TierTransport::Inproc ? "inproc" : "loopback")
          << " shards=" << gd.shards << " preempt=" << gd.preempt
          << " digest=0x" << std::hex << h;
    }
  }
}

TEST(ReconService, ClusterSessionsIdenticalAcrossPolicies) {
  // gpus_per_job > 1 builds two-device sessions; the identity guarantee
  // must hold there too.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 30.0;
  wc.mix = {{Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 1;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto fifo = tiny_config(SchedulerPolicy::Fifo);
  fifo.gpus_per_job = 2;
  auto fair = tiny_config(SchedulerPolicy::FairShare);
  fair.gpus_per_job = 2;
  fair.threads = 2;
  const auto a = run_workload(fifo, jobs, warm);
  const auto b = run_workload(fair, jobs, warm);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.run_vtime, b.run_vtime);
}

TEST(ReconService, ClusterSessionsGolden) {
  // Per-job outputs, run vtimes, cache fingerprints and memo outcomes of
  // the brain workload above at 1, 2 and 3 GPUs per job, folded into one
  // FNV-1a digest per width. Recorded when multi-GPU sessions ran on a
  // separately wired cluster::Cluster; a change that moves one changed
  // behaviour: fix it, do not re-record.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 30.0;
  wc.mix = {{Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 1;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  constexpr struct {
    int gpus;
    u64 digest;
  } kGolden[] = {{1, 0x7a8cd37446b02504ull},
                 {2, 0x0f45549b4be905ccull},
                 {3, 0xd7575120cd2b0c19ull}};
  for (const auto& gd : kGolden) {
    auto cfg = tiny_config(SchedulerPolicy::Fifo);
    cfg.gpus_per_job = gd.gpus;
    const auto r = run_workload(cfg, jobs, warm);
    ASSERT_EQ(r.fingerprint.size(), jobs.size());
    u64 h = kFnvOffsetBasis;
    auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
    for (const auto& [id, fp] : r.fingerprint) {
      // One device's cache is not a multi-device session's cache.
      EXPECT_EQ(r.cache_fp.at(id) == 0, gd.gpus > 1) << "job " << id;
      pod(id);
      pod(fp);
      pod(r.cache_fp.at(id));
      pod(r.run_vtime.at(id));
      for (const u64 m : r.memo.at(id)) pod(m);
    }
    EXPECT_EQ(h, gd.digest) << "gpus_per_job=" << gd.gpus << " digest=0x"
                            << std::hex << h;
  }
}

TEST(ReconService, PreemptionRequiresOneGpuPerJob) {
  // A checkpoint captures one device's cache image, so a multi-GPU session
  // cannot yield: the service refuses the configuration.
  auto cfg = tiny_config(SchedulerPolicy::Fifo);
  cfg.gpus_per_job = 2;
  EXPECT_NO_THROW(ReconService{cfg});
  cfg.preempt_quantum_s = 1.0;
  EXPECT_THROW(ReconService{cfg}, Error);
  cfg.preempt_quantum_s = 0.0;
  cfg.preempt_force = true;
  EXPECT_THROW(ReconService{cfg}, Error);
  cfg.preempt_force = false;
  cfg.gpus_per_job = 0;
  EXPECT_THROW(ReconService{cfg}, Error);
}

// --- Remote-tier transports (net/) -------------------------------------------

TEST(ReconService, LoopbackTransportMatrix) {
  // The transport acceptance property (loopback half): rehosting the shared
  // tier on the wire protocol's deterministic in-process backend changes
  // NOTHING a session can observe — outputs, per-job records and the whole
  // virtual-clock schedule are bit-identical to the in-process tier, across
  // shard counts × policies × threads. Wire
  // frames charge no virtual time (client-side charging contract) and the
  // index-only seed + lazy value fetch reproduces every hit decision.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  wc.tenants = {{"A", 1.0, 1, 1.0}, {"B", 2.0, 2, 1.0}};
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  struct Knobs {
    int shards;
    unsigned threads;
  };
  const Knobs knobs[] = {{1, 1}, {2, 3}, {4, 2}};
  const SchedulerPolicy policies[] = {SchedulerPolicy::Fifo,
                                      SchedulerPolicy::FairShare};
  const RunSummary* global_ref = nullptr;
  RunSummary first;
  for (const auto policy : policies) {
    for (const auto& k : knobs) {
      auto cfg = tiny_config(policy, /*slots=*/2);
      cfg.shard_count = k.shards;
      cfg.threads = k.threads;
      const auto inproc = run_workload(cfg, jobs, warm);
      cfg.transport = TierTransport::Loopback;
      const auto loop = run_workload(cfg, jobs, warm);
      // Same knobs, different carrier: the FULL schedule reproduces.
      EXPECT_EQ(loop.fingerprint, inproc.fingerprint);
      EXPECT_EQ(loop.run_vtime, inproc.run_vtime);
      EXPECT_EQ(loop.queue_wait, inproc.queue_wait);
      EXPECT_EQ(loop.seed_fetch, inproc.seed_fetch);
      EXPECT_EQ(loop.finish, inproc.finish);
      // And outputs + run vtimes are one global identity across everything.
      if (global_ref == nullptr) {
        first = inproc;
        global_ref = &first;
      }
      EXPECT_EQ(loop.fingerprint, global_ref->fingerprint);
      EXPECT_EQ(loop.run_vtime, global_ref->run_vtime);
    }
  }
}

TEST(ReconService, SocketTransportMatchesInproc) {
  // The transport acceptance property (socket half): the same workload
  // served through real TCP connections to a localhost TierServer produces
  // bit-identical outputs and virtual clocks — only wall time differs.
  // Environments without sockets (sandboxes) skip.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  cfg.shard_count = 2;
  cfg.threads = 2;
  const auto inproc = run_workload(cfg, jobs, warm);
  cfg.transport = TierTransport::Socket;
  try {
    const auto sock = run_workload(cfg, jobs, warm);
    EXPECT_EQ(sock.fingerprint, inproc.fingerprint);
    EXPECT_EQ(sock.run_vtime, inproc.run_vtime);
    EXPECT_EQ(sock.finish, inproc.finish);
  } catch (const net::NetError& e) {
    GTEST_SKIP() << "socket transport unavailable: " << e.what();
  }
}

TEST(ReconService, MalformedTierAddressIsRejectedBeforeConnecting) {
  // A bad host:port must fail the MLR_CHECK conventions (mlr::Error with
  // the offending address), not leak a raw std::invalid_argument from stoi
  // or silently truncate an out-of-range port through the uint16_t cast.
  for (const char* addr :
       {"no-port-separator", "host:", "host:abc", "host:0", "host:65536",
        "host:99999999999"}) {
    auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
    cfg.transport = TierTransport::Socket;
    cfg.tier_address = addr;
    EXPECT_THROW(ReconService{cfg}, mlr::Error) << addr;
  }
}

// --- Fault tolerance: degradation and recovery -------------------------------

TEST(ReconServiceFaults, ColdPromotionsBufferedAndReshippedOnRecovery) {
  // The degradation ladder's tier leg: the carrier dies on the first
  // promotion PUT (frame lost; the default budget of 0 attempts no reopen,
  // so the transport breaks), the service
  // flips to degraded, buffers every fold locally, and the next dispatch's
  // recovery probe re-ships the buffer through a fresh transport before the
  // job runs — so the tier ends up with everything and the job seeds warm.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
  cfg.transport = TierTransport::Loopback;
  ReconService svc(cfg);
  svc.prime(warm);
  const auto primed = svc.shared_entries();
  auto* client = dynamic_cast<net::TierClient*>(&svc.tier_mut());
  ASSERT_NE(client, nullptr);
  auto* lb = dynamic_cast<net::LoopbackTransport*>(&client->transport_mut());
  ASSERT_NE(lb, nullptr);
  lb->fault_disconnect_on_put(true);

  svc.submit(jobs[0]);
  svc.submit(jobs[1]);
  for (const auto& st : svc.drain()) {
    // The fault strikes at fold time, after both sessions ran: the jobs
    // themselves complete, warm.
    EXPECT_EQ(st.outcome, JobOutcome::Completed);
    EXPECT_FALSE(st.degraded);
  }
  EXPECT_TRUE(svc.degraded());
  EXPECT_EQ(svc.stats().degraded_spans, 1u);
  EXPECT_EQ(svc.stats().jobs_failed, 0u);
  EXPECT_EQ(svc.shared_entries(), primed);  // nothing landed during the span

  svc.submit(jobs[2]);
  const auto res = svc.drain();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].outcome, JobOutcome::Completed);
  // Recovery runs before the cold decision: this job is NOT degraded.
  EXPECT_FALSE(res[0].degraded);
  EXPECT_FALSE(svc.degraded());
  EXPECT_EQ(svc.stats().degraded_spans, 1u);  // one span, closed
  EXPECT_GT(svc.shared_entries(), primed);    // the buffer was re-shipped
}

TEST(ReconServiceFaults, LostReplyCostsOneJobNotTheTier) {
  // A reply lost on a healthy carrier times out per-request: the job whose
  // seed export it carried fails alone, the transport stays up (no
  // degraded span, no reconnect) and the next job seeds warm from the tier.
  WorkloadConfig wc;
  wc.jobs = 2;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}};
  wc.distinct_objects = 1;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
  cfg.transport = TierTransport::Loopback;
  cfg.net_timeout_s = 0.2;
  ReconService svc(cfg);
  svc.prime(warm);
  auto* client = dynamic_cast<net::TierClient*>(&svc.tier_mut());
  ASSERT_NE(client, nullptr);
  auto* lb = dynamic_cast<net::LoopbackTransport*>(&client->transport_mut());
  ASSERT_NE(lb, nullptr);
  lb->fault_drop_next(1);  // the first job's seed export reply vanishes
  auto& reconnects = obs::metrics().counter("net.client.reconnects");
  const u64 reconnects_before = reconnects.value();

  const u64 first = svc.submit(jobs[0]);
  const u64 second = svc.submit(jobs[1]);
  const auto res = svc.drain();
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].id, first);
  EXPECT_EQ(res[0].outcome, JobOutcome::Failed);
  EXPECT_FALSE(res[0].failure.empty());
  EXPECT_EQ(res[1].id, second);
  EXPECT_EQ(res[1].outcome, JobOutcome::Completed);
  EXPECT_FALSE(res[1].degraded);
  EXPECT_GT(res[1].memo.db_hit_shared, 0u);  // seeded from the tier
  EXPECT_FALSE(svc.degraded());
  EXPECT_EQ(svc.stats().degraded_spans, 0u);
  EXPECT_EQ(svc.stats().jobs_failed, 1u);
  EXPECT_EQ(reconnects.value(), reconnects_before);
}

TEST(ReconServiceFaults, SocketTierKillRestartDegradesAndRecovers) {
  // End-to-end over real TCP: the external tier server dies mid-service.
  // Exactly the struck job fails (budget exhausted), the service degrades
  // instead of crashing, and once a snapshot-restored server is back on the
  // same port the next dispatch reconnects and completes warm.
  // Environments without sockets skip.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}};
  wc.distinct_objects = 1;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  SharedTierConfig stc;
  stc.shard_count = 1;
  stc.tau_dedup = ServiceConfig{}.tau_dedup;
  stc.key_dim = memo::MemoConfig{}.key_dim;
  auto server = std::make_unique<net::TierServer>(stc);
  std::uint16_t port = 0;
  try {
    port = server->listen_and_serve();
  } catch (const net::NetError& e) {
    GTEST_SKIP() << "sockets unavailable: " << e.what();
  }

  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
  cfg.transport = TierTransport::Socket;
  cfg.tier_address = "127.0.0.1:" + std::to_string(port);
  cfg.net_retry_max = 2;
  cfg.net_backoff_ms = 1.0;
  std::unique_ptr<ReconService> svc;
  try {
    svc = std::make_unique<ReconService>(cfg);
  } catch (const net::NetError& e) {
    GTEST_SKIP() << "connect failed: " << e.what();
  }
  svc->prime(warm);
  svc->submit(jobs[0]);
  {
    const auto r = svc->drain();
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].outcome, JobOutcome::Completed);
  }

  const auto checkpoint = server->tier().snapshot();
  server.reset();  // the tier dies between drains
  svc->submit(jobs[1]);
  {
    const auto r = svc->drain();
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].outcome, JobOutcome::Failed);
    EXPECT_FALSE(r[0].failure.empty());
  }
  EXPECT_TRUE(svc->degraded());
  EXPECT_EQ(svc->stats().jobs_failed, 1u);

  server = std::make_unique<net::TierServer>(stc);
  {
    net::WireWriter w;
    net::encode_entries(w, checkpoint, /*with_values=*/true);
    server->handle_frame(
        net::encode_frame(net::FrameType::SnapshotImport, 0, 1, w.data()));
  }
  try {
    server->listen_and_serve("127.0.0.1", port);
  } catch (const net::NetError& e) {
    GTEST_SKIP() << "same-port rebind unavailable: " << e.what();
  }
  svc->submit(jobs[2]);
  {
    const auto r = svc->drain();
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].outcome, JobOutcome::Completed);
    EXPECT_FALSE(r[0].degraded);  // the recovery probe beat the dispatch
  }
  EXPECT_FALSE(svc->degraded());
  EXPECT_EQ(svc->stats().jobs_failed, 1u);  // no new casualties
}

TEST(ReconServiceFaults, FailedJobRecordKeepsItsRequest) {
  // A job whose session fails still reports what it asked for: its SLO
  // class, and a missed deadline when it carried one. Covers prime()'s
  // failure path (the warm job's promotion PUT drops the carrier; a budget
  // of 0 reopens nothing) and the dispatch failure path (a throwing hook).
  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
  cfg.transport = TierTransport::Loopback;
  cfg.net_retry_max = 0;
  cfg.dispatch_hook = [](const JobRequest&) {
    throw std::runtime_error("injected session fault");
  };
  ReconService svc(cfg);
  auto* client = dynamic_cast<net::TierClient*>(&svc.tier_mut());
  ASSERT_NE(client, nullptr);
  auto* lb = dynamic_cast<net::LoopbackTransport*>(&client->transport_mut());
  ASSERT_NE(lb, nullptr);
  lb->fault_disconnect_on_put(true);

  JobRequest w = warm_set()[0];
  w.slo = SloClass::Interactive;
  w.deadline = 1e12;
  const auto primed = svc.prime(std::vector<JobRequest>{w});
  ASSERT_EQ(primed.size(), 1u);
  EXPECT_EQ(primed[0].outcome, JobOutcome::Failed);
  EXPECT_EQ(int(primed[0].slo), int(SloClass::Interactive));
  EXPECT_FALSE(primed[0].deadline_met);

  svc.submit(w);
  const auto drained = svc.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].outcome, JobOutcome::Failed);
  EXPECT_EQ(int(drained[0].slo), int(SloClass::Interactive));
  EXPECT_FALSE(drained[0].deadline_met);
}

// --- Fault tolerance: per-job isolation (transport-independent) --------------

TEST(ReconServiceFaults, SessionThrowIsIsolatedPerJob) {
  // ANY exception out of one job's session marks that one job Failed (with
  // the message preserved), frees its slot, and leaves every other job's
  // output and run vtime bit-identical to a fault-free run.
  WorkloadConfig wc;
  wc.jobs = 3;
  wc.mean_interarrival = 40.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  const auto base = run_workload(cfg, jobs, warm);

  // prime() consumes job ids for the warm set, so the victim id is not
  // knowable up front — capture it from submit() and let the hook read it.
  u64 victim = ~u64{0};
  cfg.dispatch_hook = [&victim](const JobRequest& r) {
    if (r.id == victim) throw std::runtime_error("injected session fault");
  };
  ReconService svc(cfg);
  svc.prime(warm);
  std::vector<u64> ids;
  for (const auto& j : jobs) ids.push_back(svc.submit(j));
  victim = ids[1];
  int failed = 0;
  for (const auto& st : svc.drain()) {
    if (st.id == victim) {
      EXPECT_EQ(st.outcome, JobOutcome::Failed);
      EXPECT_NE(st.failure.find("injected session fault"), std::string::npos);
      EXPECT_EQ(st.output_fingerprint, 0u);
      ++failed;
      continue;
    }
    EXPECT_EQ(st.outcome, JobOutcome::Completed);
    EXPECT_EQ(st.output_fingerprint, base.fingerprint.at(st.id));
    EXPECT_EQ(st.run_vtime, base.run_vtime.at(st.id));
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(svc.stats().jobs_failed, 1u);
  EXPECT_EQ(svc.stats().completed, 2u);
}

// --- Stage-boundary preemption: the determinism matrix -----------------------

TEST(ReconService, PreemptionDeterminismMatrix) {
  // The preemption acceptance property: forcing a job to yield at EVERY
  // stage boundary (checkpoint → requeue → rebuild on whatever slot frees,
  // re-import the seed + its own entries + cache + clocks → continue) must
  // reproduce the uninterrupted run bit-for-bit — outputs, memo records,
  // cache fingerprints AND run vtimes — across threads × shards.
  // Preemption is schedule-shaped only.
  WorkloadConfig wc;
  wc.jobs = 4;
  wc.mean_interarrival = 10.0;
  wc.mix = {{Scenario::PcbInspection, 1.0}, {Scenario::BrainScan, 1.0}};
  wc.distinct_objects = 2;
  WorkloadGenerator gen(wc);
  const auto jobs = gen.generate();
  const auto warm = gen.priming_set();

  struct Knobs {
    unsigned threads;
    int shards;
  };
  const Knobs knobs[] = {{1, 1}, {3, 2}, {2, 4}};
  for (const auto& k : knobs) {
    auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
    cfg.iters_cap = 3;  // three outer iterations → two yield points per job
    cfg.threads = k.threads;
    cfg.shard_count = k.shards;
    const auto base = run_workload(cfg, jobs, warm);

    auto pre = cfg;
    pre.preempt_force = true;  // yield at every eligible boundary
    const auto p = run_workload(pre, jobs, warm);

    EXPECT_EQ(p.fingerprint, base.fingerprint);
    EXPECT_EQ(p.cache_fp, base.cache_fp);
    EXPECT_EQ(p.run_vtime, base.run_vtime);
    EXPECT_EQ(p.memo, base.memo);
    // The baseline never preempted; the forced run preempted every job at
    // both boundaries.
    for (const auto& [id, n] : base.preemptions) EXPECT_EQ(n, 0u);
    for (const auto& [id, n] : p.preemptions) EXPECT_EQ(n, 2u) << id;
  }
}

TEST(ReconService, PreemptedJobResumesOnDifferentSlot) {
  // One job, two slots, forced yields: the job runs its first segment on
  // slot 0; at the yield, slot 1 (free since 0) is the earliest-free slot,
  // so the resumed segment provably rebuilds the session on DIFFERENT
  // hardware — and still matches the uninterrupted run bit-for-bit.
  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  cfg.iters_cap = 3;
  JobRequest r;
  r.scenario = Scenario::BrainScan;
  r.seed = 200;
  auto warm = warm_set();

  ReconService base(cfg);
  base.prime(warm);
  base.submit(r);
  const auto base_st = base.drain();
  ASSERT_EQ(base_st.size(), 1u);

  auto pre = cfg;
  pre.preempt_force = true;
  ReconService svc(pre);
  svc.prime(warm);
  svc.submit(r);
  const auto st = svc.drain();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].preemptions, 2u);
  ASSERT_EQ(st[0].slots_visited, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(st[0].slot, 0);  // the last segment's slot
  EXPECT_EQ(svc.stats().preemptions, 2u);

  EXPECT_EQ(st[0].output_fingerprint, base_st[0].output_fingerprint);
  EXPECT_EQ(st[0].cache_fingerprint, base_st[0].cache_fingerprint);
  EXPECT_EQ(st[0].run_vtime, base_st[0].run_vtime);
  EXPECT_EQ(st[0].memo.db_hit, base_st[0].memo.db_hit);
  EXPECT_EQ(st[0].memo.db_hit_shared, base_st[0].memo.db_hit_shared);
  EXPECT_EQ(st[0].memo.cache_hit, base_st[0].memo.cache_hit);
  EXPECT_EQ(st[0].memo.miss, base_st[0].memo.miss);
  // Each re-dispatch re-fetches the seed: the fetch total grows, and only
  // turnaround absorbs it.
  EXPECT_GT(st[0].seed_fetch_s, base_st[0].seed_fetch_s);
  EXPECT_DOUBLE_EQ(st[0].finish - st[0].start,
                   st[0].seed_fetch_s + st[0].run_vtime);
  // Promotion after the preempted run matches the uninterrupted tier.
  EXPECT_EQ(svc.shared_entries(), base.shared_entries());
}

TEST(ReconService, QuantumPreemptionLetsShortJobOvertake) {
  // The scheduling payoff: one slot, a long MemoryConstrained job running
  // when a short interactive job arrives. Without preemption the short job
  // waits out the long one; with a quantum it overtakes at the next stage
  // boundary — and both jobs' outputs and run vtimes stay bit-identical.
  WorkloadConfig wc;
  wc.jobs = 1;
  wc.mix = {{Scenario::MemoryConstrained, 1.0}};
  wc.distinct_objects = 1;
  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
  cfg.iters_cap = 4;

  JobRequest long_job;
  long_job.scenario = Scenario::MemoryConstrained;
  long_job.seed = 300;
  long_job.arrival = 0.0;
  JobRequest short_job;
  short_job.scenario = Scenario::PcbInspection;
  short_job.seed = 0;
  short_job.slo = SloClass::Interactive;

  std::vector<JobRequest> warm;
  {
    JobRequest w1 = long_job, w2 = short_job;
    warm = {w1, w2};
  }

  auto run_pair = [&](double quantum) {
    auto c = cfg;
    c.preempt_quantum_s = quantum;
    ReconService svc(c);
    svc.prime(warm);
    JobRequest lj = long_job, sj = short_job;
    const u64 long_id = svc.submit(lj);
    // The short job arrives mid-flight of the long one's first iteration.
    sj.arrival = 1.0;
    const u64 short_id = svc.submit(sj);
    std::map<u64, JobStats> by_id;
    for (auto& st : svc.drain()) by_id.emplace(st.id, std::move(st));
    return std::make_tuple(by_id.at(long_id), by_id.at(short_id));
  };

  const auto [long_np, short_np] = run_pair(0.0);
  // Quantum between the short job's WHOLE runtime and the long job's first
  // stage boundary (~a quarter of its run, 8× the short one at these work
  // scales): the long job yields at its first boundary with the short job
  // waiting; the short job completes inside one quantum and never yields
  // back. Run vtimes are policy-invariant, so the baseline's are exact.
  const double quantum = short_np.run_vtime * 1.5;
  ASSERT_LT(quantum, long_np.run_vtime / 4.0);
  const auto [long_p, short_p] = run_pair(quantum);

  EXPECT_EQ(short_np.preemptions + long_np.preemptions, 0u);
  EXPECT_EQ(long_p.preemptions, 1u);
  EXPECT_EQ(short_p.preemptions, 0u);  // the short job never yields
  // Overtake: the short job finishes strictly earlier than without
  // preemption; the long job pays (its finish moves later).
  EXPECT_LT(short_p.finish, short_np.finish);
  EXPECT_GT(long_p.finish, long_np.finish);
  // Bit-identity is untouched by the schedule change.
  EXPECT_EQ(long_p.output_fingerprint, long_np.output_fingerprint);
  EXPECT_EQ(short_p.output_fingerprint, short_np.output_fingerprint);
  EXPECT_EQ(long_p.run_vtime, long_np.run_vtime);
  EXPECT_EQ(short_p.run_vtime, short_np.run_vtime);
}

// --- Deadline admission: decision invariance ---------------------------------

TEST(ReconService, AdmissionDecisionInvarianceMatrix) {
  // The admission acceptance property: the admitted / rejected / downgraded
  // id sets are identical across scheduler policy × threads × transport —
  // decisions read only the arrival-ordered stream, the learned estimates
  // and the controller's private slot model. Rejected jobs never touch a
  // slot or charge the fabric.
  auto warm = warm_set();

  struct Decision {
    std::set<u64> admitted, rejected;
    double fabric_fetch = 0;
  };
  auto run_with = [&](SchedulerPolicy policy, unsigned threads,
                      TierTransport transport, AdmissionMode mode) {
    auto cfg = tiny_config(policy, /*slots=*/1);
    cfg.threads = threads;
    cfg.transport = transport;
    cfg.admission = mode;
    ReconService svc(cfg);
    const auto primed = svc.prime(warm);
    // Deadlines in units of the learned estimate: generous for the first
    // two, then tight enough that the booked slot model (est_start grows by
    // est_fetch + est_run per admitted job) rules the later ones out.
    const double er = primed[0].run_vtime;
    const double ks[] = {10.0, 10.0, 1.2, 1.2, 0.5, 0.5};
    for (const double k : ks) {
      JobRequest r;
      r.scenario = Scenario::BrainScan;
      r.seed = 200;
      r.arrival = 0.0;
      r.deadline = k * er;
      svc.submit(r);
    }
    Decision d;
    for (const auto& st : svc.drain()) {
      if (st.admitted) {
        d.admitted.insert(st.id);
      } else {
        d.rejected.insert(st.id);
        // Never dispatched: no slot, no fetch, no compute, no fabric.
        EXPECT_EQ(st.outcome, JobOutcome::Rejected);
        EXPECT_EQ(st.reject_reason, "deadline-infeasible");
        EXPECT_EQ(st.slot, -1);
        EXPECT_TRUE(st.slots_visited.empty());
        EXPECT_EQ(st.seed_fetch_s, 0.0);
        EXPECT_EQ(st.run_vtime, 0.0);
        EXPECT_EQ(st.output_fingerprint, 0u);
      }
    }
    d.fabric_fetch = svc.stats().fabric_fetch_s;
    EXPECT_EQ(svc.stats().admission_rejected, d.rejected.size());
    return d;
  };

  const auto ref = run_with(SchedulerPolicy::Fifo, 1, TierTransport::Inproc,
                            AdmissionMode::Reject);
  EXPECT_FALSE(ref.admitted.empty());
  EXPECT_FALSE(ref.rejected.empty());

  const SchedulerPolicy policies[] = {SchedulerPolicy::Fifo,
                                      SchedulerPolicy::Priority,
                                      SchedulerPolicy::FairShare};
  const TierTransport transports[] = {TierTransport::Inproc,
                                      TierTransport::Loopback};
  for (const auto policy : policies)
    for (const unsigned threads : {1u, 3u})
      for (const auto transport : transports) {
        const auto d = run_with(policy, threads, transport,
                                AdmissionMode::Reject);
        EXPECT_EQ(d.admitted, ref.admitted);
        EXPECT_EQ(d.rejected, ref.rejected);
        // Rejected jobs charged nothing: every run moved the same bytes.
        EXPECT_DOUBLE_EQ(d.fabric_fetch, ref.fabric_fetch);
      }
}

TEST(ReconService, DowngradeModeRunsInfeasibleJobsAsBestEffort) {
  // Downgrade shares Reject's decision function exactly: the downgraded id
  // set equals Reject's rejected set, but the jobs run (as BestEffort).
  auto warm = warm_set();
  auto run_mode = [&](AdmissionMode mode) {
    auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/1);
    cfg.admission = mode;
    ReconService svc(cfg);
    const auto primed = svc.prime(warm);
    const double er = primed[0].run_vtime;
    const double ks[] = {10.0, 10.0, 0.5, 0.5};
    for (const double k : ks) {
      JobRequest r;
      r.scenario = Scenario::BrainScan;
      r.seed = 200;
      r.arrival = 0.0;
      r.deadline = k * er;
      svc.submit(r);
    }
    return std::make_pair(svc.drain(), svc.stats());
  };

  const auto [rej_st, rej_stats] = run_mode(AdmissionMode::Reject);
  const auto [dwn_st, dwn_stats] = run_mode(AdmissionMode::Downgrade);
  std::set<u64> rejected, downgraded;
  for (const auto& st : rej_st)
    if (!st.admitted) rejected.insert(st.id);
  for (const auto& st : dwn_st) {
    EXPECT_TRUE(st.admitted);  // downgrade never rejects on deadline
    EXPECT_EQ(st.outcome, JobOutcome::Completed);
    if (st.downgraded) {
      downgraded.insert(st.id);
      EXPECT_EQ(int(st.slo), int(SloClass::BestEffort));
    }
  }
  EXPECT_EQ(downgraded, rejected);
  EXPECT_FALSE(downgraded.empty());
  EXPECT_EQ(dwn_stats.admission_downgraded, downgraded.size());
  EXPECT_EQ(dwn_stats.admission_rejected, 0u);
  EXPECT_EQ(rej_stats.admission_rejected, rejected.size());
}

TEST(ReconService, AdmissionCanRejectEveryArrivalInABatch) {
  // Regression: a batch whose every member is deadline-rejected leaves the
  // dispatch queue empty — drain() must skip dispatching (not assert in the
  // scheduler) and later arrivals must still run normally.
  auto warm = warm_set();
  auto cfg = tiny_config(SchedulerPolicy::Fifo, /*slots=*/2);
  cfg.admission = AdmissionMode::Reject;
  ReconService svc(cfg);
  const auto primed = svc.prime(warm);
  const double er = primed[0].run_vtime;
  // Three simultaneous arrivals, all infeasible; one feasible straggler.
  for (int i = 0; i < 3; ++i) {
    JobRequest r;
    r.scenario = Scenario::BrainScan;
    r.seed = 200;
    r.arrival = 0.0;
    r.deadline = 0.01 * er;
    svc.submit(r);
  }
  JobRequest late;
  late.scenario = Scenario::BrainScan;
  late.seed = 200;
  late.arrival = 5.0;
  late.deadline = 5.0 + 10.0 * er;
  svc.submit(late);

  const auto out = svc.drain();
  ASSERT_EQ(out.size(), 4u);
  u64 rejected = 0, completed = 0;
  for (const auto& st : out) {
    if (st.admitted) {
      ++completed;
      EXPECT_EQ(st.outcome, JobOutcome::Completed);
      EXPECT_GE(st.start, 5.0);
    } else {
      ++rejected;
      EXPECT_EQ(st.reject_reason, "deadline-infeasible");
    }
  }
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(svc.stats().admission_rejected, 3u);
}

// --- Workload generation -----------------------------------------------------

TEST(WorkloadGenerator, DeterministicAndShaped) {
  WorkloadConfig wc;
  wc.jobs = 64;
  wc.seed = 42;
  wc.bursty = true;
  wc.burst_size = 4;
  wc.deadline_slack = 100.0;
  WorkloadGenerator g1(wc), g2(wc);
  const auto a = g1.generate(), b = g2.generate();
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(int(a[i].scenario), int(b[i].scenario));
    EXPECT_DOUBLE_EQ(a[i].deadline, a[i].arrival + 100.0);
  }
  // Bursts: members of one burst share an arrival instant.
  for (std::size_t i = 0; i < a.size(); i += 4)
    for (std::size_t j = 1; j < 4; ++j)
      EXPECT_EQ(a[i].arrival, a[i + j].arrival);
  // Arrivals are non-decreasing.
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i].arrival, a[i - 1].arrival);
}

}  // namespace
}  // namespace mlr::serve
