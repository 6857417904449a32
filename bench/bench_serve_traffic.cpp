// bench_serve_traffic — the serving-layer characterization: one mixed-
// scenario, multi-tenant workload replayed through ReconService under each
// scheduling policy (FIFO / priority / weighted fair share), then swept
// across shared-tier shard counts ({1,2,4} at the FIFO policy).
//
// Reports per policy: completion/rejection/deadline counts, queue-wait and
// turnaround percentiles (virtual time), slot utilization, the cross-job
// memo hit rate (lookups served by the shared tier — the paper's reuse
// economics across *jobs* instead of across iterations), and the shared
// tier's promotion split (accepted / dedup drops / cap drops). The shard
// sweep reports per shard count the fabric's charged fetch/promotion time
// and uplink contention wait. Exits non-zero if any job's output
// fingerprint differs between policies OR between shard counts: the
// hermetic-session + placement-only-sharding guarantees this layer is built
// on, also asserted by tests/serve_test.cpp, so the CI smoke run
// (`--jobs 8 --n small`) exercises both end to end.
//
// Knobs: `--shards N` (tier shard count for the policy table),
// `--fabric-gbps G` (link AND uplink bandwidth; 0 disables the fabric —
// legacy network-isolated sessions), `--tau-dedup T` (promotion
// near-duplicate threshold; 0 keeps everything), `--transport T` (inproc |
// loopback | socket — how sessions reach the shared tier; socket serves the
// whole workload over localhost TCP and must reproduce the inproc outputs
// bit-for-bit). A transport cross-check always replays the FIFO point on a
// second transport and feeds it into the same output-identity gate.
//
// Chaos mode (`--chaos kill-tier-at-job=N | blip-tier-at-job=N`, socket
// transport only) replays the FIFO point once more against a bench-owned
// TCP tier server that is killed at the Nth dispatch and later restarted
// from its snapshot on the same port. The "kill" flavor holds the outage
// past the reconnect budget and gates on exactly-one failed job, cold
// (degraded) sessions for the in-between dispatches, and a service-level
// reconnect; the "blip" flavor restarts within the budget and gates on
// zero failed jobs plus at least one transport reconnect + idempotent
// replay. Both gate on surviving seeded jobs staying bit-identical to the
// fault-free baseline and fold into the exit code.
//
// Deadline-aware serving (docs/serving.md "Admission and preemption"):
// `--preempt` replays the FIFO point with stage-boundary preemption on
// (quantum auto-derived as half the baseline's median run_vtime, or
// `--preempt-quantum S`) and feeds the preempted outputs into the same
// bit-identity gate — preemption is schedule-shaped only, so the gate and
// at least one observed preemption fold into the exit code. `--admission
// reject|downgrade|both` replays the FIFO point under deadline admission
// and records admitted/rejected/downgraded counts plus the deadline hit
// rate among admitted. `--slot-sweep` replays FIFO at 1/2/4 slots (with
// admission + preemption when enabled) — the capacity dimension of the
// deadline story. `--scaled N` generates scaled_workload(N): a
// heavy-tailed, bursty + diurnal, SLO-classed trace of N jobs replayed
// through the full admission + preemption stack with per-SLO-class
// outcome rows (its job ids collide with the base trace's, so it stays
// out of the identity gate).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/request_table.hpp"
#include "net/tier_server.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {

using namespace mlr;
using namespace mlr::serve;

i64 parse_n(const char* s) {
  if (std::strcmp(s, "small") == 0) return 12;
  if (std::strcmp(s, "medium") == 0) return 16;
  if (std::strcmp(s, "large") == 0) return 20;
  return std::atoll(s);
}

const char* transport_name(TierTransport t) {
  switch (t) {
    case TierTransport::Inproc: return "inproc";
    case TierTransport::Loopback: return "loopback";
    case TierTransport::Socket: return "socket";
  }
  return "?";
}

TierTransport parse_transport(const char* s) {
  if (std::strcmp(s, "inproc") == 0) return TierTransport::Inproc;
  if (std::strcmp(s, "loopback") == 0) return TierTransport::Loopback;
  if (std::strcmp(s, "socket") == 0) return TierTransport::Socket;
  std::fprintf(stderr, "unknown --transport %s (inproc|loopback|socket)\n", s);
  std::exit(2);
}

struct PolicyResult {
  std::string name;
  int shards = 1;
  int slots = 0;  ///< slot count this replay ran with
  TierTransport transport = TierTransport::Inproc;
  ServiceStats stats;
  std::map<u64, u64> fingerprints;
  std::vector<JobStats> job_stats;  ///< full per-job records from drain()
  double contention_s = 0;  ///< uplink queueing behind other sessions
  std::size_t tier_entries = 0;
  std::vector<std::size_t> shard_entries;
};

/// Per-replay overrides for the deadline-aware replays: slot count,
/// admission mode, preemption quantum, and (for --scaled) a different
/// trace + priming set. Zero/null fields fall back to the bench defaults.
struct RunOpts {
  int slots = 0;
  AdmissionMode admission = AdmissionMode::None;
  double quantum = 0;
  const std::vector<JobRequest>* traffic = nullptr;
  const std::vector<JobRequest>* warm = nullptr;
};

/// p-th percentile of an unsorted sample (sorts in place; 0 when empty).
double pct(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, std::size_t(p * double(v.size())))];
}

double deadline_hit_rate(const ServiceStats& st) {
  return st.completed > 0
             ? double(st.completed - st.deadline_missed) / double(st.completed)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  WallTimer wall;

  const i64 n = parse_n(args.get_str("--n", "small"));
  const i64 jobs = args.get_i64("--jobs", 32);
  const int slots = int(args.get_i64("--slots", 2));
  const int gpus_per_job = int(args.get_i64("--gpus-per-job", 1));
  const int iters_cap = int(args.get_i64("--iters-cap", 3));
  const double interarrival = args.get_double("--interarrival", 60.0);
  const bool bursty = args.has("--bursty");
  const double slack = args.get_double("--deadline-slack", 2500.0);
  const u64 seed = u64(args.get_i64("--seed", 7));
  const int shards = int(args.get_i64("--shards", 1));
  const double fabric_gbps = args.get_double("--fabric-gbps", 200.0);
  const double tau_dedup = args.get_double("--tau-dedup", 0.999);
  const TierTransport transport =
      parse_transport(args.get_str("--transport", "inproc"));
  // --trace <path>: record the first (FIFO) replay with the obs trace
  // recorder and write a Chrome-trace/Perfetto JSON there. Recording is
  // enable-only and read-only, so the traced run stays in the output
  // identity gate with the untraced ones.
  const char* trace_path = args.get_str("--trace", nullptr);
  // Deadline-aware serving knobs (see the header comment): --preempt /
  // --preempt-quantum, --admission MODE, --slot-sweep, --scaled N.
  const bool preempt = args.has("--preempt");
  const double preempt_quantum_arg = args.get_double("--preempt-quantum", 0.0);
  const char* admission_arg = args.get_str("--admission", "off");
  const bool slot_sweep_on = args.has("--slot-sweep");
  const i64 scaled_jobs = args.get_i64("--scaled", 0);
  std::vector<AdmissionMode> adm_modes;
  if (std::strcmp(admission_arg, "reject") == 0) {
    adm_modes = {AdmissionMode::Reject};
  } else if (std::strcmp(admission_arg, "downgrade") == 0) {
    adm_modes = {AdmissionMode::Downgrade};
  } else if (std::strcmp(admission_arg, "both") == 0) {
    adm_modes = {AdmissionMode::Reject, AdmissionMode::Downgrade};
  } else if (std::strcmp(admission_arg, "off") != 0) {
    std::fprintf(stderr, "unknown --admission %s (off|reject|downgrade|both)\n",
                 admission_arg);
    return 2;
  }
  if ((preempt || scaled_jobs > 0) && args.get_i64("--gpus-per-job", 1) != 1) {
    std::fprintf(stderr,
                 "--preempt/--scaled require --gpus-per-job 1 (stage-boundary "
                 "preemption yields one slot at a time)\n");
    return 2;
  }
  // --chaos kill-tier-at-job=N | blip-tier-at-job=N: fault-injection mode,
  // socket transport only. Both kill the bench-owned TCP tier server at the
  // Nth dispatch of a dedicated chaos replay. "kill" leaves it down until
  // --chaos-restart-after further dispatches have gone by: the struck job
  // exhausts its reconnect budget and fails, the in-between jobs run as
  // degraded cold sessions, and the service re-ships their buffered
  // promotions on recovery. "blip" restarts the server from a side thread
  // after --chaos-blip-ms, inside the reconnect budget: the transport's own
  // reconnect + idempotent replay absorbs the outage and NO job fails.
  // --retry-max / --backoff-ms size the reconnect budget (defaults differ
  // per flavor: kill wants the budget to die fast, blip wants the backoff
  // schedule to cover the restart window).
  const char* chaos = args.get_str("--chaos", nullptr);
  bool chaos_blip = false;
  i64 chaos_at = 0;
  if (chaos != nullptr) {
    const char* kKill = "kill-tier-at-job=";
    const char* kBlip = "blip-tier-at-job=";
    if (std::strncmp(chaos, kKill, std::strlen(kKill)) == 0) {
      chaos_at = std::atoll(chaos + std::strlen(kKill));
    } else if (std::strncmp(chaos, kBlip, std::strlen(kBlip)) == 0) {
      chaos_at = std::atoll(chaos + std::strlen(kBlip));
      chaos_blip = true;
    } else {
      std::fprintf(
          stderr,
          "unknown --chaos %s (kill-tier-at-job=N | blip-tier-at-job=N)\n",
          chaos);
      return 2;
    }
    if (transport != TierTransport::Socket || chaos_at < 1) {
      std::fprintf(stderr, "--chaos requires --transport socket and N >= 1\n");
      return 2;
    }
  }
  const i64 chaos_restart_after = args.get_i64("--chaos-restart-after", 3);
  const double chaos_blip_ms = args.get_double("--chaos-blip-ms", 50.0);
  const int retry_max = int(args.get_i64("--retry-max", chaos_blip ? 6 : 3));
  const double backoff_ms =
      args.get_double("--backoff-ms", chaos_blip ? 25.0 : 5.0);

  bench::header(
      "serve: multi-tenant traffic through ReconService, per policy + shard "
      "sweep",
      "north star: serving heavy traffic; paper §4 reuse economics across jobs",
      "fair-share evens tenant waits; cross-job hits well above 0; outputs "
      "identical for every policy and shard count");
  std::printf(
      "workload: %lld jobs, n=%lld^3, %d slot(s) x %d gpu(s), mean "
      "interarrival %.0f s%s, 3 tenants (weights 1/2/4)\n"
      "shared tier: %d shard(s), fabric %.0f Gb/s%s, tau_dedup %.3f\n",
      (long long)jobs, (long long)n, slots, gpus_per_job, interarrival,
      bursty ? ", bursty x4" : " (Poisson)", shards, fabric_gbps,
      fabric_gbps <= 0 ? " (disabled: network-isolated sessions)" : "",
      tau_dedup);
  std::printf("tier transport: %s\n\n", transport_name(transport));

  WorkloadConfig wc;
  wc.seed = seed;
  wc.jobs = std::size_t(jobs);
  wc.mean_interarrival = interarrival;
  wc.bursty = bursty;
  wc.deadline_slack = slack;
  wc.tenants = {{"bronze", 1.0, 1, 2.0},   // bulk of the traffic, low weight
                {"silver", 2.0, 2, 1.0},
                {"gold", 4.0, 3, 0.5}};    // sparse but heavily weighted
  WorkloadGenerator gen(wc);
  const auto traffic = gen.generate();
  const auto warm = gen.priming_set();

  auto run_once = [&](SchedulerPolicy policy, int shard_count, TierTransport tr,
                      const char* trace = nullptr, RunOpts opts = {}) {
    ServiceConfig sc;
    if (trace != nullptr) sc.trace_path = trace;
    sc.n = n;
    sc.slots = opts.slots > 0 ? opts.slots : slots;
    sc.gpus_per_job = gpus_per_job;
    sc.threads = args.threads();
    sc.iters_cap = iters_cap;
    sc.policy = policy;
    sc.shard_count = shard_count;
    sc.tau_dedup = tau_dedup;
    sc.transport = tr;
    sc.admission = opts.admission;
    sc.preempt_quantum_s = opts.quantum;
    sc.fabric.enabled = fabric_gbps > 0;
    if (fabric_gbps > 0) {
      sc.fabric.link_bandwidth = fabric_gbps * 1e9 / 8.0;
      sc.fabric.uplink_bandwidth = fabric_gbps * 1e9 / 8.0;
    }
    ReconService svc(sc);
    svc.prime(opts.warm != nullptr ? *opts.warm : warm);
    for (const auto& j : (opts.traffic != nullptr ? *opts.traffic : traffic))
      svc.submit(j);
    PolicyResult pr;
    pr.name = policy_name(policy);
    pr.shards = shard_count;
    pr.slots = sc.slots;
    pr.transport = tr;
    pr.job_stats = svc.drain();
    for (const auto& st : pr.job_stats)
      if (st.admitted) pr.fingerprints[st.id] = st.output_fingerprint;
    pr.stats = svc.stats();
    pr.contention_s = svc.fabric().contention_wait_s();
    pr.tier_entries = svc.shared_entries();
    for (int s = 0; s < shard_count; ++s)
      pr.shard_entries.push_back(svc.tier().shard_entries(s));
    return pr;
  };

  if (transport == TierTransport::Socket) {
    // Availability probe: a sandbox without sockets (or no loopback
    // interface) should skip rather than fail the smoke run. One throwaway
    // service exercises listen + connect end to end.
    try {
      ServiceConfig probe;
      probe.n = 8;
      probe.transport = TierTransport::Socket;
      ReconService svc(probe);
    } catch (const mlr::net::NetError& e) {
      std::printf("SKIP: socket transport unavailable (%s)\n", e.what());
      return 0;
    }
  }

  const SchedulerPolicy policies[] = {SchedulerPolicy::Fifo,
                                      SchedulerPolicy::Priority,
                                      SchedulerPolicy::FairShare};
  std::vector<PolicyResult> results;
  for (const auto policy : policies)
    results.push_back(run_once(
        policy, shards, transport,
        policy == SchedulerPolicy::Fifo ? trace_path : nullptr));
  if (trace_path != nullptr)
    std::printf("[trace written to %s]\n\n", trace_path);

  std::printf("%-9s %5s %4s %5s | %24s | %24s | %5s %6s\n", "policy", "done",
              "rej", "ddl%", "queue wait p50/p90/p99 (s)",
              "turnaround p50/p90/p99 (s)", "util%", "xjob%");
  for (const auto& pr : results) {
    const auto& st = pr.stats;
    const auto qw = summarize(st.queue_wait);
    const auto ta = summarize(st.turnaround);
    const double ddl =
        st.completed > 0
            ? 100.0 * double(st.completed - st.deadline_missed) /
                  double(st.completed)
            : 0.0;
    std::printf(
        "%-9s %5llu %4llu %5.0f | %7.0f %7.0f %8.0f | %7.0f %7.0f %8.0f | "
        "%5.0f %6.1f\n",
        pr.name.c_str(), (unsigned long long)st.completed,
        (unsigned long long)st.rejected, ddl, qw.p50, qw.p90, qw.p99, ta.p50,
        ta.p90, ta.p99, 100.0 * st.utilization(slots),
        100.0 * st.cross_job_hit_rate());
  }

  std::printf("\nper-tenant busy share under %s (weights 1/2/4):\n",
              results.back().name.c_str());
  const auto& fair = results.back().stats;
  for (const auto& [tenant, ts] : fair.tenants) {
    std::printf("  %-8s jobs=%3llu  busy=%8.0f s  wait p50=%7.0f s\n",
                tenant.c_str(), (unsigned long long)ts.jobs, ts.busy_s,
                ts.queue_wait.count() > 0 ? ts.queue_wait.percentile(0.5)
                                          : 0.0);
  }

  // Shard sweep at the FIFO policy: sharding decides placement (which link
  // carries which bytes), never session contents, so outputs must stay
  // bit-identical while the per-link occupancy changes shape. The fabric
  // observables (fetch/promotion seconds, uplink contention) are the new
  // serving dimension this records.
  std::printf("\nshard sweep (fifo, fabric %.0f Gb/s):\n", fabric_gbps);
  std::printf("%7s %9s %10s %11s %12s %6s | per-shard entries\n", "shards",
              "tier", "fetch(s)", "promote(s)", "contention(s)", "xjob%");
  std::vector<PolicyResult> sweep;
  for (const int sc2 : {1, 2, 4}) {
    // The policy table already ran FIFO at --shards: reuse that run instead
    // of replaying the whole workload for a bit-identical result.
    auto pr = sc2 == shards ? results[0]
                            : run_once(SchedulerPolicy::Fifo, sc2, transport);
    std::printf("%7d %9zu %10.1f %11.3f %13.1f %6.1f |", sc2,
                pr.tier_entries, pr.stats.fabric_fetch_s,
                pr.stats.fabric_promote_s, pr.contention_s,
                100.0 * pr.stats.cross_job_hit_rate());
    for (const auto se : pr.shard_entries) std::printf(" %zu", se);
    std::printf("\n");
    sweep.push_back(std::move(pr));
  }

  // Transport cross-check: replay the FIFO point on a second carrier and
  // feed it into the same identity gate. The tier backend moves bytes, not
  // decisions — outputs must be bit-identical whether the tier is a local
  // object, wire frames over loopback, or a TCP server.
  std::vector<PolicyResult> xruns;
  xruns.push_back(results[0]);  // the selected transport's FIFO point
  {
    const TierTransport other = transport == TierTransport::Inproc
                                    ? TierTransport::Loopback
                                    : TierTransport::Inproc;
    xruns.push_back(run_once(SchedulerPolicy::Fifo, shards, other));
  }
  std::printf("\ntransport cross-check (fifo, %d shard(s)):\n", shards);
  std::printf("%9s %9s %10s %11s %6s %6s\n", "transport", "tier", "fetch(s)",
              "promote(s)", "xjob%", "ddl%");
  for (const auto& pr : xruns)
    std::printf("%9s %9zu %10.1f %11.3f %6.1f %6.1f\n",
                transport_name(pr.transport), pr.tier_entries,
                pr.stats.fabric_fetch_s, pr.stats.fabric_promote_s,
                100.0 * pr.stats.cross_job_hit_rate(),
                100.0 * deadline_hit_rate(pr.stats));

  // Preemption replay: same trace, FIFO, stage-boundary preemption on.
  // Preemption is schedule-shaped only — the preempted run's outputs,
  // fingerprints and run vtimes must be bit-identical to the uninterrupted
  // baseline (fed into the identity gate below), and under a quantum of
  // half the baseline's median run_vtime on a contended queue at least one
  // job must actually have yielded, or the smoke proves nothing.
  std::vector<PolicyResult> preempt_runs;
  bool preempt_ok = true;
  double quantum = preempt_quantum_arg;
  if (preempt) {
    if (quantum <= 0) {
      std::vector<double> rv;
      for (const auto& st : results[0].job_stats)
        if (st.outcome == JobOutcome::Completed) rv.push_back(st.run_vtime);
      quantum = rv.empty() ? 1.0 : pct(rv, 0.5) / 2.0;
    }
    RunOpts o;
    o.quantum = quantum;
    preempt_runs.push_back(
        run_once(SchedulerPolicy::Fifo, shards, transport, nullptr, o));
    const auto& pr = preempt_runs.back();
    const auto ta = summarize(pr.stats.turnaround);
    const auto ta0 = summarize(results[0].stats.turnaround);
    preempt_ok = pr.stats.preemptions > 0;
    std::printf(
        "\npreemption (fifo, quantum %.0f s): %llu preemptions, done %llu, "
        "ddl%% %.0f, turnaround p50/p99 %.0f/%.0f s (baseline %.0f/%.0f)\n",
        quantum, (unsigned long long)pr.stats.preemptions,
        (unsigned long long)pr.stats.completed,
        100.0 * deadline_hit_rate(pr.stats), ta.p50, ta.p99, ta0.p50, ta0.p99);
    if (!preempt_ok)
      std::printf("  preemption smoke: NO preemption observed (quantum too "
                  "coarse for this trace?)\n");
  }

  // Admission replays: same trace, FIFO, deadline admission on. Rejected
  // jobs never reach a slot (serve_test pins that they charge nothing);
  // admitted jobs must stay bit-identical to the baseline, so these runs
  // feed the identity gate too.
  std::vector<PolicyResult> adm_runs;
  if (!adm_modes.empty()) {
    std::printf("\nadmission (fifo):\n");
    std::printf("%10s %5s %4s %4s %5s %5s | %24s\n", "mode", "adm", "rej",
                "down", "done", "ddl%", "turnaround p50/p99 (s)");
    for (const auto mode : adm_modes) {
      RunOpts o;
      o.admission = mode;
      if (preempt) o.quantum = quantum;
      adm_runs.push_back(
          run_once(SchedulerPolicy::Fifo, shards, transport, nullptr, o));
      const auto& pr = adm_runs.back();
      u64 admitted = 0;
      for (const auto& st : pr.job_stats) admitted += st.admitted ? 1 : 0;
      const auto ta = summarize(pr.stats.turnaround);
      std::printf("%10s %5llu %4llu %4llu %5llu %5.0f | %9.0f %9.0f\n",
                  admission_mode_name(mode), (unsigned long long)admitted,
                  (unsigned long long)pr.stats.admission_rejected,
                  (unsigned long long)pr.stats.admission_downgraded,
                  (unsigned long long)pr.stats.completed,
                  100.0 * deadline_hit_rate(pr.stats), ta.p50, ta.p99);
    }
  }

  // Slot sweep: the capacity dimension of the deadline story. More slots →
  // shorter queues → higher deadline hit rate among admitted (and fewer
  // admission rejects, since the admission model books per-slot finish
  // estimates). Outputs stay bit-identical: slots place jobs, sessions stay
  // hermetic.
  std::vector<PolicyResult> slot_runs;
  if (slot_sweep_on) {
    std::printf("\nslot sweep (fifo%s%s):\n",
                !adm_modes.empty() ? ", admission " : "",
                !adm_modes.empty() ? admission_mode_name(adm_modes[0]) : "");
    std::printf("%5s %5s %4s %7s %5s %5s %14s %10s\n", "slots", "done", "rej",
                "preempt", "ddl%", "util%", "p99 turn. (s)", "makespan");
    for (const int sl : {1, 2, 4}) {
      RunOpts o;
      o.slots = sl;
      if (preempt) o.quantum = quantum;
      if (!adm_modes.empty()) o.admission = adm_modes[0];
      slot_runs.push_back(
          run_once(SchedulerPolicy::Fifo, shards, transport, nullptr, o));
      const auto& pr = slot_runs.back();
      const auto ta = summarize(pr.stats.turnaround);
      std::printf("%5d %5llu %4llu %7llu %5.0f %5.0f %14.0f %10.0f\n", sl,
                  (unsigned long long)pr.stats.completed,
                  (unsigned long long)pr.stats.rejected,
                  (unsigned long long)pr.stats.preemptions,
                  100.0 * deadline_hit_rate(pr.stats),
                  100.0 * pr.stats.utilization(sl), ta.p99,
                  pr.stats.makespan);
    }
  }

  // Hermetic-session + placement-only-sharding + transport guarantees:
  // identical outputs under every policy, shard count, tier transport,
  // slot count, admission mode AND preemption schedule. The admitted *set*
  // can legitimately differ once admission control rejects (queue dynamics
  // are policy-dependent), so compare over the union: every job two or
  // more runs both ran must agree bit-for-bit.
  bool identical = true;
  std::map<u64, u64> agreed;
  for (const auto* set :
       {&results, &sweep, &xruns, &preempt_runs, &adm_runs, &slot_runs})
    for (const auto& pr : *set)
      for (const auto& [id, fp] : pr.fingerprints) {
        const auto [it, fresh] = agreed.emplace(id, fp);
        if (!fresh && it->second != fp) identical = false;
      }
  std::printf(
      "\noutput identity across policies, shard counts, transports, slots, "
      "admission and preemption: %s\n",
      identical ? "OK (bit-identical)" : "MISMATCH");
  std::printf(
      "shared tier (fifo): %llu promoted, %llu dedup drops (tau %.3f), "
      "%llu cap drops, cross-job hit rate %.1f%%\n",
      (unsigned long long)results[0].stats.promoted,
      (unsigned long long)results[0].stats.shared_dedup_drops, tau_dedup,
      (unsigned long long)results[0].stats.shared_cap_drops,
      100.0 * results[0].stats.cross_job_hit_rate());

  // Scaled workload: scaled_workload(N) — heavy-tailed scenario mix, bursty
  // + diurnally modulated arrivals, three tenants spanning the SLO classes —
  // replayed through the full admission + preemption stack. Its job ids
  // collide with the base trace's, so it reports outcomes (overall and per
  // SLO class) instead of joining the identity gate; the determinism of this
  // path is pinned by serve_test's preemption/admission matrices.
  std::vector<PolicyResult> scaled_runs;
  struct ClassAgg {
    u64 jobs = 0, completed = 0, rejected = 0, downgraded = 0, preempted = 0;
    u64 preemptions = 0, deadline_hits = 0;
    std::vector<double> turnaround;
  };
  std::map<int, ClassAgg> scaled_classes;
  if (scaled_jobs > 0) {
    const AdmissionMode smode =
        adm_modes.empty() ? AdmissionMode::Reject : adm_modes[0];
    auto swc = scaled_workload(std::size_t(scaled_jobs), seed);
    WorkloadGenerator sgen(swc);
    const auto straffic = sgen.generate();
    const auto swarm = sgen.priming_set();
    RunOpts o;
    o.traffic = &straffic;
    o.warm = &swarm;
    o.admission = smode;
    if (preempt) o.quantum = quantum;
    scaled_runs.push_back(
        run_once(SchedulerPolicy::Fifo, shards, transport, nullptr, o));
    const auto& pr = scaled_runs.back();
    for (const auto& st : pr.job_stats) {
      auto& agg = scaled_classes[int(st.slo)];
      ++agg.jobs;
      if (!st.admitted) {
        ++agg.rejected;
        continue;
      }
      agg.downgraded += st.downgraded ? 1 : 0;
      if (st.outcome != JobOutcome::Completed) continue;
      ++agg.completed;
      agg.preempted += st.preemptions > 0 ? 1 : 0;
      agg.preemptions += st.preemptions;
      agg.deadline_hits += st.deadline_met ? 1 : 0;
      agg.turnaround.push_back(st.turnaround());
    }
    std::printf(
        "\nscaled workload (%lld jobs, heavy-tailed + diurnal, admission "
        "%s%s):\n",
        (long long)scaled_jobs, admission_mode_name(smode),
        preempt ? ", preemption on" : "");
    std::printf("%12s %5s %5s %4s %4s %7s %5s | %24s\n", "class", "jobs",
                "done", "rej", "down", "preempt", "ddl%",
                "turnaround p50/p99 (s)");
    for (auto& [cls, agg] : scaled_classes) {
      const double ddl = agg.completed > 0
                             ? 100.0 * double(agg.deadline_hits) /
                                   double(agg.completed)
                             : 0.0;
      std::printf("%12s %5llu %5llu %4llu %4llu %7llu %5.0f | %9.0f %9.0f\n",
                  slo_class_name(SloClass(cls)), (unsigned long long)agg.jobs,
                  (unsigned long long)agg.completed,
                  (unsigned long long)agg.rejected,
                  (unsigned long long)agg.downgraded,
                  (unsigned long long)agg.preemptions, ddl,
                  pct(agg.turnaround, 0.5), pct(agg.turnaround, 0.99));
    }
    std::printf(
        "  totals: done %llu, rejected %llu, preemptions %llu, ddl%% %.0f "
        "(among admitted), makespan %.0f s, xjob hit %.1f%%\n",
        (unsigned long long)pr.stats.completed,
        (unsigned long long)pr.stats.rejected,
        (unsigned long long)pr.stats.preemptions,
        100.0 * deadline_hit_rate(pr.stats), pr.stats.makespan,
        100.0 * pr.stats.cross_job_hit_rate());
  }

  // Chaos replay: fault-inject the live TCP tier mid-drain and gate on the
  // recovery contract. The bench owns the TierServer here (instead of
  // letting the service spawn one) so the dispatch hook can kill it and
  // restart it — snapshot-restored, on the same port — mid-run.
  bool chaos_ok = true;
  bool chaos_identical = true;
  i64 chaos_failed = 0, chaos_degraded = 0, chaos_completed = 0;
  u64 chaos_reconnects = 0, chaos_replays = 0, chaos_retries = 0;
  double chaos_recovery_s = 0;
  double degraded_vtime_mean = 0, seeded_vtime_mean = 0;
  if (chaos != nullptr) {
    if (chaos_blip)
      std::printf(
          "\nchaos: blip tier at dispatch %lld, restart after %.0f ms "
          "(reconnect budget %d x %.0f ms)\n",
          (long long)chaos_at, chaos_blip_ms, retry_max, backoff_ms);
    else
      std::printf(
          "\nchaos: kill tier at dispatch %lld, restart %lld dispatches "
          "later (reconnect budget %d x %.0f ms)\n",
          (long long)chaos_at, (long long)chaos_restart_after, retry_max,
          backoff_ms);

    // Mirror the service's own remote-tier config so the external server is
    // indistinguishable from the one a fault-free run would spawn.
    serve::SharedTierConfig tc;
    tc.shard_count = shards;
    tc.max_entries = ServiceConfig{}.max_shared_entries;
    tc.tau_dedup = tau_dedup;
    tc.key_dim = memo::MemoConfig{}.key_dim;
    auto server = std::make_unique<net::TierServer>(tc);
    const std::uint16_t chaos_port = server->listen_and_serve();

    std::mutex srv_mu;  // hook thread vs blip restarter thread
    std::vector<memo::MemoDb::Entry> checkpoint;
    std::atomic<bool> restart_failed{false};
    auto restart_server = [&] {
      try {
        auto fresh = std::make_unique<net::TierServer>(tc);
        if (!checkpoint.empty()) {
          // Durable-tier semantics: the replacement comes back with the
          // killed server's last snapshot, shipped over the same wire path
          // sessions use (SNAPSHOT_IMPORT).
          net::WireWriter w;
          net::encode_entries(w, checkpoint, /*with_values=*/true);
          fresh->handle_frame(
              net::encode_frame(net::FrameType::SnapshotImport, 0, 1, w.data()));
        }
        fresh->listen_and_serve("127.0.0.1", chaos_port);
        std::lock_guard<std::mutex> lk(srv_mu);
        server = std::move(fresh);
      } catch (const std::exception& e) {
        restart_failed = true;
        std::fprintf(stderr, "chaos: tier restart failed: %s\n", e.what());
      }
    };
    std::thread blip_restarter;

    ServiceConfig sc;
    sc.n = n;
    sc.slots = slots;
    sc.gpus_per_job = gpus_per_job;
    sc.threads = args.threads();
    sc.iters_cap = iters_cap;
    sc.policy = SchedulerPolicy::Fifo;
    sc.shard_count = shards;
    sc.tau_dedup = tau_dedup;
    sc.transport = TierTransport::Socket;
    sc.tier_address = "127.0.0.1:" + std::to_string(chaos_port);
    sc.net_retry_max = retry_max;
    sc.net_backoff_ms = backoff_ms;
    sc.fabric.enabled = fabric_gbps > 0;
    if (fabric_gbps > 0) {
      sc.fabric.link_bandwidth = fabric_gbps * 1e9 / 8.0;
      sc.fabric.uplink_bandwidth = fabric_gbps * 1e9 / 8.0;
    }
    i64 dispatched = 0;
    sc.dispatch_hook = [&](const JobRequest&) {
      ++dispatched;
      if (dispatched == chaos_at) {
        checkpoint = server->tier().snapshot();
        {
          std::lock_guard<std::mutex> lk(srv_mu);
          server.reset();  // connection reset / refused from here on
        }
        if (chaos_blip)
          blip_restarter = std::thread([&] {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(chaos_blip_ms));
            restart_server();
          });
      } else if (!chaos_blip &&
                 dispatched == chaos_at + chaos_restart_after) {
        restart_server();  // in-hook: next recovery probe finds it up
      }
    };

    const auto before = obs::metrics().snapshot();
    ReconService svc(sc);
    svc.prime(warm);
    for (const auto& j : traffic) svc.submit(j);
    const auto res = svc.drain();
    if (blip_restarter.joinable()) blip_restarter.join();
    const auto after = obs::metrics().snapshot();
    chaos_reconnects = after.counter_value("net.client.reconnects") -
                       before.counter_value("net.client.reconnects");
    chaos_replays = after.counter_value("net.client.replays") -
                    before.counter_value("net.client.replays");
    chaos_retries = after.counter_value("net.table.retries") -
                    before.counter_value("net.table.retries");
    if (const auto* h = after.histogram("net.client.recovery_s")) {
      const auto* hb = before.histogram("net.client.recovery_s");
      chaos_recovery_s = h->sum - (hb != nullptr ? hb->sum : 0.0);
    }

    // Surviving seeded jobs must be bit-identical to the fault-free socket
    // FIFO baseline (results[0]). Degraded (cold) jobs legitimately differ —
    // they reconstruct without the shared seed — and failed jobs have no
    // output at all; both are excluded from the identity gate but counted
    // against the flavor's expectations below.
    double dsum = 0, ssum = 0;
    i64 dcount = 0, scount = 0;
    for (const auto& st : res) {
      if (!st.admitted) continue;
      if (st.outcome == JobOutcome::Failed) {
        ++chaos_failed;
        std::printf("  job %llu failed: %s\n", (unsigned long long)st.id,
                    st.failure.c_str());
        continue;
      }
      ++chaos_completed;
      if (st.degraded) {
        ++chaos_degraded;
        dsum += st.run_vtime;
        ++dcount;
        continue;
      }
      ssum += st.run_vtime;
      ++scount;
      const auto it = results[0].fingerprints.find(st.id);
      if (it != results[0].fingerprints.end() &&
          it->second != st.output_fingerprint)
        chaos_identical = false;
    }
    degraded_vtime_mean = dcount > 0 ? dsum / double(dcount) : 0.0;
    seeded_vtime_mean = scount > 0 ? ssum / double(scount) : 0.0;

    if (chaos_blip) {
      // The outage fits inside the reconnect budget: nobody fails, nobody
      // degrades, and at least one stashed read was replayed post-reconnect.
      chaos_ok = chaos_failed == 0 && chaos_degraded == 0 &&
                 chaos_reconnects >= 1 && chaos_replays >= 1 &&
                 !restart_failed;
    } else {
      // Exactly the struck job fails; the dispatches between kill and
      // restart run cold; the recovery probe reconnects the client.
      chaos_ok = chaos_failed == 1 &&
                 chaos_degraded == chaos_restart_after - 1 &&
                 chaos_reconnects >= 1 && !restart_failed;
    }
    chaos_ok = chaos_ok && chaos_identical;

    std::printf(
        "  completed %lld (degraded %lld), failed %lld | reconnects %llu, "
        "replays %llu, batch retries %llu, recovery %.3f s\n",
        (long long)chaos_completed, (long long)chaos_degraded,
        (long long)chaos_failed, (unsigned long long)chaos_reconnects,
        (unsigned long long)chaos_replays, (unsigned long long)chaos_retries,
        chaos_recovery_s);
    if (dcount > 0)
      std::printf(
          "  degraded (cold) mean run_vtime %.0f s vs seeded %.0f s "
          "(%.2fx)\n",
          degraded_vtime_mean, seeded_vtime_mean,
          seeded_vtime_mean > 0 ? degraded_vtime_mean / seeded_vtime_mean
                                : 0.0);
    std::printf("  surviving seeded jobs vs fault-free baseline: %s\n",
                chaos_identical ? "bit-identical" : "MISMATCH");
    std::printf("  chaos gate: %s\n", chaos_ok ? "OK" : "FAILED");
  }

  // Machine-readable trajectory point: configuration, per-policy wall/virtual
  // results and memo outcome counts (--json BENCH_serve_traffic.json).
  bench::JsonObject json;
  json.set("bench", "serve_traffic");
  json.set("n", n);
  json.set("jobs", jobs);
  json.set("slots", i64(slots));
  json.set("gpus_per_job", i64(gpus_per_job));
  json.set("threads", i64(args.threads()));
  json.set("shards", i64(shards));
  json.set("fabric_gbps", fabric_gbps);
  json.set("tau_dedup", tau_dedup);
  json.set("transport", transport_name(transport));
  json.set("identical_outputs", identical);
  json.set("admission", admission_arg);
  json.set("preempt", preempt);
  if (preempt) json.set("preempt_quantum_s", quantum);
  if (scaled_jobs > 0) json.set("scaled_jobs", scaled_jobs);
  for (const auto& pr : results) {
    const auto& st = pr.stats;
    const auto qw = summarize(st.queue_wait);
    const auto ta = summarize(st.turnaround);
    auto& row = json.row("policies");
    row.set("policy", pr.name);
    row.set("completed", st.completed);
    row.set("rejected", st.rejected);
    row.set("deadline_missed", st.deadline_missed);
    row.set("p50_queue_wait_s", qw.p50);
    row.set("p99_queue_wait_s", qw.p99);
    row.set("p50_turnaround_s", ta.p50);
    row.set("p99_turnaround_s", ta.p99);
    row.set("deadline_hit_rate", deadline_hit_rate(st));
    row.set("utilization", st.utilization(slots));
    row.set("lookups", st.lookups);
    row.set("cache_hits", st.cache_hits);
    row.set("db_hits", st.db_hits);
    row.set("shared_hits", st.shared_hits);
    row.set("misses", st.misses);
    row.set("promoted", st.promoted);
    row.set("shared_dedup_drops", st.shared_dedup_drops);
    row.set("shared_cap_drops", st.shared_cap_drops);
    row.set("fabric_fetch_s", st.fabric_fetch_s);
    row.set("fabric_promote_s", st.fabric_promote_s);
  }
  for (const auto& pr : sweep) {
    const auto& st = pr.stats;
    auto& row = json.row("shard_sweep");
    row.set("shards", i64(pr.shards));
    row.set("tier_entries", i64(pr.tier_entries));
    row.set("fabric_fetch_s", st.fabric_fetch_s);
    row.set("fabric_promote_s", st.fabric_promote_s);
    row.set("uplink_contention_s", pr.contention_s);
    row.set("makespan_s", st.makespan);
    row.set("shared_hits", st.shared_hits);
    row.set("promoted", st.promoted);
    row.set("shared_dedup_drops", st.shared_dedup_drops);
    row.set("shared_cap_drops", st.shared_cap_drops);
  }
  for (const auto& pr : xruns) {
    const auto& st = pr.stats;
    const auto ta = summarize(st.turnaround);
    auto& row = json.row("transports");
    row.set("transport", transport_name(pr.transport));
    row.set("completed", st.completed);
    row.set("p99_turnaround_s", ta.p99);
    row.set("deadline_hit_rate", deadline_hit_rate(st));
    row.set("fabric_fetch_s", st.fabric_fetch_s);
    row.set("fabric_promote_s", st.fabric_promote_s);
    row.set("shared_hits", st.shared_hits);
    row.set("makespan_s", st.makespan);
  }
  for (const auto& pr : preempt_runs) {
    const auto& st = pr.stats;
    const auto ta = summarize(st.turnaround);
    const auto ta0 = summarize(results[0].stats.turnaround);
    auto& row = json.row("preemption");
    row.set("quantum_s", quantum);
    row.set("preemptions", st.preemptions);
    row.set("completed", st.completed);
    row.set("deadline_hit_rate", deadline_hit_rate(st));
    row.set("p50_turnaround_s", ta.p50);
    row.set("p99_turnaround_s", ta.p99);
    row.set("baseline_p99_turnaround_s", ta0.p99);
    row.set("utilization", st.utilization(pr.slots));
    row.set("identical_to_baseline", identical);
  }
  for (std::size_t i = 0; i < adm_runs.size(); ++i) {
    const auto& pr = adm_runs[i];
    const auto& st = pr.stats;
    const auto ta = summarize(st.turnaround);
    u64 admitted = 0;
    for (const auto& js : pr.job_stats) admitted += js.admitted ? 1 : 0;
    auto& row = json.row("admission_modes");
    row.set("mode", admission_mode_name(adm_modes[i]));
    row.set("admitted", admitted);
    row.set("admission_rejected", st.admission_rejected);
    row.set("admission_downgraded", st.admission_downgraded);
    row.set("completed", st.completed);
    row.set("deadline_hit_rate", deadline_hit_rate(st));
    row.set("p50_turnaround_s", ta.p50);
    row.set("p99_turnaround_s", ta.p99);
    row.set("preemptions", st.preemptions);
    row.set("fabric_fetch_s", st.fabric_fetch_s);
  }
  for (const auto& pr : slot_runs) {
    const auto& st = pr.stats;
    const auto ta = summarize(st.turnaround);
    auto& row = json.row("slot_sweep");
    row.set("slots", i64(pr.slots));
    row.set("completed", st.completed);
    row.set("rejected", st.rejected);
    row.set("preemptions", st.preemptions);
    row.set("deadline_hit_rate", deadline_hit_rate(st));
    row.set("p99_turnaround_s", ta.p99);
    row.set("utilization", st.utilization(pr.slots));
    row.set("makespan_s", st.makespan);
  }
  for (const auto& pr : scaled_runs) {
    const auto& st = pr.stats;
    const auto ta = summarize(st.turnaround);
    auto& row = json.row("scaled");
    row.set("jobs", scaled_jobs);
    row.set("completed", st.completed);
    row.set("rejected", st.rejected);
    row.set("admission_rejected", st.admission_rejected);
    row.set("preemptions", st.preemptions);
    row.set("deadline_hit_rate", deadline_hit_rate(st));
    row.set("p50_turnaround_s", ta.p50);
    row.set("p99_turnaround_s", ta.p99);
    row.set("makespan_s", st.makespan);
    row.set("utilization", st.utilization(pr.slots));
    row.set("shared_hits", st.shared_hits);
  }
  for (auto& [cls, agg] : scaled_classes) {
    auto& row = json.row("scaled_classes");
    row.set("slo_class", std::string(slo_class_name(SloClass(cls))));
    row.set("jobs", agg.jobs);
    row.set("completed", agg.completed);
    row.set("rejected", agg.rejected);
    row.set("downgraded", agg.downgraded);
    row.set("preempted_jobs", agg.preempted);
    row.set("preemptions", agg.preemptions);
    row.set("deadline_hit_rate",
            agg.completed > 0
                ? double(agg.deadline_hits) / double(agg.completed)
                : 0.0);
    row.set("p50_turnaround_s", pct(agg.turnaround, 0.5));
    row.set("p99_turnaround_s", pct(agg.turnaround, 0.99));
  }
  if (chaos != nullptr) {
    auto& row = json.row("chaos");
    row.set("flavor", chaos_blip ? "blip" : "kill");
    row.set("at_dispatch", chaos_at);
    if (chaos_blip)
      row.set("blip_ms", chaos_blip_ms);
    else
      row.set("restart_after_dispatches", chaos_restart_after);
    row.set("retry_max", i64(retry_max));
    row.set("backoff_ms", backoff_ms);
    row.set("completed", chaos_completed);
    row.set("degraded_jobs", chaos_degraded);
    row.set("jobs_failed", chaos_failed);
    row.set("reconnects", chaos_reconnects);
    row.set("replays", chaos_replays);
    row.set("batch_retries", chaos_retries);
    row.set("recovery_s", chaos_recovery_s);
    row.set("degraded_run_vtime_mean_s", degraded_vtime_mean);
    row.set("seeded_run_vtime_mean_s", seeded_vtime_mean);
    row.set("surviving_identical", chaos_identical);
    row.set("gate", chaos_ok);
  }
  if (trace_path != nullptr) json.set("trace_path", trace_path);
  // The obs registry accumulated across every replay above (all policies,
  // shard counts and transports) — one deterministic instrument dump.
  bench::append_obs(json, obs::metrics().snapshot());
  json.set("wall_s", wall.seconds());
  if (!bench::write_json(args.json_path(), json)) return 1;
  bench::footer(wall.seconds());
  return identical && chaos_ok && preempt_ok ? 0 : 1;
}
