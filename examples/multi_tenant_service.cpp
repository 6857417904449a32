// Multi-tenant serving: three tenants share one ReconService — one cross-job
// encoder, one shared memo tier (sharded across memory nodes, reached over
// the contended fabric), two execution slots — under weighted fair share.
// Shows the serving lifecycle (prime → submit → drain), how a small tenant
// with a big weight keeps its queue waits short, how much of each job is
// served by other jobs' work (the cross-job memoization economics), and how
// the tier stays compact (promotion dedup) and spread (key-hash shards).
//   ./multi_tenant_service [n] [jobs] [threads] [shards]
#include <cstdio>

#include "serve/service.hpp"
#include "serve/workload.hpp"

int main(int argc, char** argv) {
  using namespace mlr;
  const i64 n = argc > 1 ? std::atoll(argv[1]) : 12;
  const i64 jobs = argc > 2 ? std::atoll(argv[2]) : 12;
  const unsigned threads =
      argc > 3 ? unsigned(std::max(0, std::atoi(argv[3]))) : 0;
  const int shards = argc > 4 ? std::max(1, std::atoi(argv[4])) : 2;

  serve::ServiceConfig sc;
  sc.n = n;
  sc.slots = 2;
  sc.threads = threads;
  sc.iters_cap = 4;
  sc.policy = serve::SchedulerPolicy::FairShare;
  sc.shard_count = shards;
  serve::ReconService svc(sc);

  serve::WorkloadConfig wc;
  wc.jobs = std::size_t(jobs);
  wc.mean_interarrival = 120.0;
  wc.tenants = {{"lab-a", 1.0, 1, 2.0},    // bulk traffic, weight 1
                {"lab-b", 2.0, 1, 1.0},
                {"urgent", 4.0, 2, 0.5}};  // rare jobs, weight 4
  wc.mix = {{serve::Scenario::PcbInspection, 1.0},
            {serve::Scenario::IcInspection, 1.0},
            {serve::Scenario::BrainScan, 1.0}};
  serve::WorkloadGenerator gen(wc);

  std::printf("multi-tenant service — %lld jobs on %lld^3, fair-share\n\n",
              (long long)jobs, (long long)n);
  auto warm = gen.priming_set();
  svc.prime(warm);
  std::printf("primed: %zu warm jobs -> %zu shared-tier entries, encoder "
              "trained once\n\n",
              warm.size(), svc.shared_entries());

  for (const auto& j : gen.generate()) svc.submit(j);
  const auto stats = svc.drain();

  std::printf("%-4s %-7s %-7s %9s %9s %9s %7s\n", "job", "tenant", "scen",
              "wait(s)", "run(s)", "turn(s)", "xjob%");
  for (const auto& st : stats) {
    const double xjob =
        st.memo.lookups() > 0
            ? 100.0 * double(st.memo.db_hit_shared) / double(st.memo.lookups())
            : 0.0;
    std::printf("%-4llu %-7s %-7s %9.0f %9.0f %9.0f %6.1f%%\n",
                (unsigned long long)st.id, st.tenant.c_str(),
                serve::scenario_name(st.scenario), st.queue_wait(),
                st.run_vtime, st.turnaround(), xjob);
  }

  const auto& ss = svc.stats();
  std::printf("\nper-tenant (weights 1/2/4):\n");
  for (const auto& [tenant, ts] : ss.tenants)
    std::printf("  %-7s jobs=%2llu busy=%8.0f s  median wait=%7.0f s\n",
                tenant.c_str(), (unsigned long long)ts.jobs, ts.busy_s,
                ts.queue_wait.count() > 0 ? ts.queue_wait.percentile(0.5)
                                          : 0.0);
  std::printf(
      "\ncross-job hit rate %.1f%% of %llu lookups; utilization %.0f%%; "
      "shared tier now %zu entries\n",
      100.0 * ss.cross_job_hit_rate(), (unsigned long long)ss.lookups,
      100.0 * ss.utilization(sc.slots), svc.shared_entries());
  const auto& tier = svc.tier();
  std::printf("tier shards (%d):", tier.shard_count());
  for (int s = 0; s < tier.shard_count(); ++s)
    std::printf(" %zu", tier.shard_entries(s));
  std::printf(
      "; promotion dedup dropped %llu, cap dropped %llu\n"
      "fabric: %llu transfers, fetch %.0f s + promote %.0f s charged, "
      "%.0f s waited on the shared uplink\n",
      (unsigned long long)ss.shared_dedup_drops,
      (unsigned long long)ss.shared_cap_drops,
      (unsigned long long)svc.fabric().transfers(), ss.fabric_fetch_s,
      ss.fabric_promote_s, svc.fabric().contention_wait_s());
  return 0;
}
