#include "serve/service.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "net/tier_client.hpp"
#include "net/tier_server.hpp"

namespace mlr::serve {

namespace {

/// Serving metrics, all on the *virtual* clock (the domain jobs queue and
/// run in); the wall-clock side of the same story lives in the stage/net
/// histograms.
struct ServeMetrics {
  obs::Counter& jobs_completed;
  obs::Counter& jobs_rejected;
  obs::Counter& admission_rejected;
  obs::Counter& admission_downgraded;
  obs::Counter& preemptions;
  obs::Counter& tier_promoted;
  obs::Counter& tier_dedup_drops;
  obs::Counter& tier_cap_drops;
  obs::Histogram& queue_wait_vs;
  obs::Histogram& turnaround_vs;
  obs::Histogram& seed_fetch_vs;
  obs::Histogram& slot_busy_vs;
  static ServeMetrics& get() {
    auto& m = obs::metrics();
    static ServeMetrics sm{
        m.counter("serve.jobs_completed"),
        m.counter("serve.jobs_rejected"),
        m.counter("serve.admission_rejected"),
        m.counter("serve.admission_downgraded"),
        m.counter("serve.preemptions"),
        m.counter("tier.promoted"),
        m.counter("tier.dedup_drops"),
        m.counter("tier.cap_drops"),
        m.histogram("serve.queue_wait_vs", obs::vtime_edges_s()),
        m.histogram("serve.turnaround_vs", obs::vtime_edges_s()),
        m.histogram("serve.seed_fetch_vs", obs::vtime_edges_s()),
        m.histogram("serve.slot_busy_vs", obs::vtime_edges_s()),
    };
    return sm;
  }
};

/// A job's record as its request sets it: identity, class and arrival, and
/// `deadline_met` false whenever there is a deadline — a job that never
/// finishes misses it; run_job sets it from the finish time.
JobStats record_for(const JobRequest& req) {
  JobStats st;
  st.id = req.id;
  st.tenant = req.tenant;
  st.scenario = req.scenario;
  st.priority = req.priority;
  st.slo = req.slo;
  st.arrival = req.arrival;
  st.deadline_met = req.deadline <= 0;
  return st;
}

}  // namespace

ReconService::ReconService(ServiceConfig cfg)
    : cfg_(cfg),
      geom_(lamino::Geometry::cube(cfg.n)),
      ops_(geom_),
      fabric_(cfg.fabric, cfg.shard_count) {
  MLR_CHECK(cfg_.n >= 8 && cfg_.chunk_size >= 1);
  MLR_CHECK(cfg_.slots >= 1 && cfg_.gpus_per_job >= 1);
  MLR_CHECK_MSG(cfg_.max_queue >= 1, "admission needs room for one waiter");
  MLR_CHECK_MSG(cfg_.gpus_per_job == 1 ||
                    (cfg_.preempt_quantum_s <= 0 && !cfg_.preempt_force),
                "stage-boundary preemption requires gpus_per_job == 1");
  const memo::MemoConfig mc{};  // encoder geometry defaults (key_dim, hw)
  registry_ = std::make_shared<encoder::EncoderRegistry>(
      encoder::EncoderConfig{.input_hw = mc.encoder_hw,
                             .embed_dim = mc.key_dim});
  if (cfg_.threads > 0) pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  SharedTierConfig tc;
  tc.shard_count = cfg_.shard_count;
  tc.max_entries = cfg_.max_shared_entries;
  tc.tau_dedup = cfg_.tau_dedup;
  tc.key_dim = mc.key_dim;
  if (cfg_.transport == TierTransport::Inproc) {
    tier_ = std::make_unique<SharedTier>(tc);
  } else {
    // Remote tier: the authoritative entries live in a TierServer; the
    // client mirrors their occupancy, which fabric_ is charged from here
    // exactly as for the in-process tier.
    if (cfg_.transport == TierTransport::Loopback) {
      server_ = std::make_unique<net::TierServer>(tc);
    } else {
      tier_host_ = "127.0.0.1";
      if (cfg_.tier_address.empty()) {
        server_ = std::make_unique<net::TierServer>(tc);
        tier_port_ = server_->listen_and_serve();
      } else {
        const auto colon = cfg_.tier_address.rfind(':');
        MLR_CHECK_MSG(colon != std::string::npos,
                      "tier_address must be host:port");
        tier_host_ = cfg_.tier_address.substr(0, colon);
        const auto port_str = cfg_.tier_address.substr(colon + 1);
        unsigned long parsed = 0;
        const bool digits =
            !port_str.empty() && port_str.size() <= 5 &&
            std::all_of(port_str.begin(), port_str.end(), [](unsigned char c) {
              return c >= '0' && c <= '9';
            });
        if (digits) parsed = std::stoul(port_str);
        MLR_CHECK_MSG(digits && parsed >= 1 && parsed <= 65535,
                      "tier_address port must be 1-65535, got \"" +
                          cfg_.tier_address + "\"");
        tier_port_ = std::uint16_t(parsed);
      }
    }
    tier_ = std::make_unique<net::TierClient>(
        make_transport(), cfg_.shard_count, cfg_.net_timeout_s,
        net::RetrySpec{cfg_.net_retry_max, cfg_.net_backoff_ms});
  }
  slot_free_.assign(std::size_t(cfg_.slots), 0.0);
  adm_free_.assign(std::size_t(cfg_.slots), 0.0);
  sched_ = make_scheduler(cfg_.policy);
  if (!cfg_.trace_path.empty()) obs::TraceRecorder::instance().enable();
}

ReconService::~ReconService() = default;

std::unique_ptr<net::Transport> ReconService::make_transport() {
  if (cfg_.transport == TierTransport::Loopback)
    return std::make_unique<net::LoopbackTransport>(server_.get(),
                                                    cfg_.shard_count);
  return net::SocketTransport::connect_tcp(tier_host_, tier_port_,
                                           cfg_.shard_count);
}

void ReconService::enter_degraded(const std::string& why) {
  if (degraded_) return;
  degraded_ = true;
  ++stats_.degraded_spans;
  obs::metrics().counter("serve.degraded_spans").add();
  obs::trace_instant("serve.degraded", "serve", stats_.degraded_spans);
  MLR_LOG(Warn) << "serve: shared tier degraded (span "
                << stats_.degraded_spans << "): " << why;
}

void ReconService::try_tier_recovery() {
  auto* client = dynamic_cast<net::TierClient*>(tier_.get());
  if (client == nullptr) {
    degraded_ = false;
    return;
  }
  try {
    client->reconnect(make_transport());
    // Re-ship the promotions buffered while cold, in job-id order — the
    // same fold path (and therefore the same tier evolution) a healthy
    // drain would have used. Entries are copied so a fold interrupted by a
    // relapse keeps its batch buffered for the next probe. Exact duplicates
    // of a PUT that did land before the outage are absorbed by the tier's
    // dedup probe.
    while (!cold_promotions_.empty()) {
      auto& [id, entries] = cold_promotions_.front();
      (void)id;
      fold_promotion(nullptr, entries);
      cold_promotions_.erase(cold_promotions_.begin());
    }
    degraded_ = false;
    obs::trace_instant("serve.recovered", "serve", stats_.degraded_spans);
  } catch (const net::NetError&) {
    // Tier still down (or it relapsed mid-re-ship): stay degraded; the
    // next dispatch probes again.
  }
}

const ReconService::Problem& ReconService::problem_for(Scenario s, u64 seed) {
  const auto key = std::make_pair(int(s), seed);
  auto it = problems_.find(key);
  if (it != problems_.end()) return it->second;
  const auto prof = scenario_profile(s);
  Problem pb;
  pb.truth = lamino::to_complex(
      lamino::make_phantom(geom_.object_shape(), prof.phantom, seed));
  pb.d = lamino::simulate_projections(
      ops_, pb.truth, prof.noise, seed + 1,
      pool_ != nullptr ? *pool_ : ThreadPool::global());
  return problems_.emplace(key, std::move(pb)).first->second;
}

const Array3D<cfloat>& ReconService::ground_truth(Scenario s, u64 seed) {
  return problem_for(s, seed).truth;
}

ReconService::RunOutcome ReconService::run_job(
    const JobRequest& req, sim::VTime start, sim::VTime seed_ready,
    std::vector<memo::MemoDb::Entry>* own_entries, bool cold,
    PausedJob* resume, const std::function<bool(sim::VTime)>& contended) {
  // The per-job trace tree: "job" wraps the whole synchronous session;
  // setup/solve/export children plus the net layer's async seed-export and
  // GET_BATCH pairs hang under it on the same track.
  MLR_TRACE_SPAN("job", "serve", req.id);
  // Issue the (possibly remote) seed-snapshot request FIRST: for a wire
  // backend the index-only export round-trip overlaps all the per-job setup
  // below; end_seed() harvests it just before the session is built. The
  // in-process tier's begin/end pair degenerates to a pointer handoff.
  // A cold (degraded-mode) session skips the seed entirely — the tier is
  // unreachable; the job still runs, just without cross-job reuse.
  const bool seeded = cfg_.memoize && !cold && tier_->size() > 0;
  const u64 seed_ticket = seeded ? tier_->begin_seed() : 0;

  const auto prof = scenario_profile(req.scenario);
  const auto& pb = problem_for(req.scenario, req.seed);
  const double ws = work_scale_for(req.scenario);

  memo::MemoConfig mc;
  mc.enable = cfg_.memoize;
  mc.tau = prof.tau;
  mc.cache = cfg_.cache;
  mc.work_scale = ws;
  memo::MemoDbConfig dbc;
  dbc.tau = prof.tau;
  dbc.value_scale = ws;

  admm::AdmmConfig ac;
  ac.outer_iters =
      cfg_.iters_cap > 0 ? std::min(prof.iters, cfg_.iters_cap) : prof.iters;
  ac.inner_iters = prof.inner_iters;
  ac.alpha = prof.alpha;
  ac.chunk_size = cfg_.chunk_size;
  ac.work_scale = ws;
  ac.encoder_train_steps = cfg_.encoder_train_steps;

  JobStats st = record_for(req);
  st.start = start;
  st.seed_fetch_s = seed_ready - start;
  st.degraded = cold;

  // Hermetic session: fresh devices/net/memory node (virtual time starts at
  // 0 inside the session; the service adds `seed_ready`, the charged fabric
  // completion of its seed fetch), the service's one encoder, and a MemoDb
  // seeded from the tier's canonical insertion-order snapshot. A remote
  // backend hands the snapshot over index-only plus a value fetcher.
  std::vector<memo::MemoDb::Entry> seed_storage;
  TierSeed seed{};
  if (seeded) {
    MLR_TRACE_SPAN("job.seed_harvest", "serve", req.id);
    seed = tier_->end_seed(seed_ticket, seed_storage);
  }
  ExecutionOptions eo;
  eo.gpus = cfg_.gpus_per_job;
  eo.memo = mc;
  eo.db = dbc;
  eo.registry = registry_;
  eo.db_seed = seed.entries;
  eo.db_values = seed.values;
  eo.shared_pool = pool_.get();
  std::unique_ptr<ExecutionContext> ctx;
  {
    MLR_TRACE_SPAN("job.session_build", "serve", req.id);
    ctx = std::make_unique<ExecutionContext>(ops_, eo);
  }
  memo::MemoizedLamino& ml = ctx->memo();
  memo::MemoDb* db = ctx->db();

  // Resumed segment: re-install the checkpointed session state on top of
  // the freshly seeded context. The tier is constant during a drain (folds
  // are post-drain), so the re-fetched seed is the *identical* snapshot the
  // first segment saw; replaying the session's own insertions above it
  // continues the per-kind id sequences exactly, and restoring the cache
  // image, outcome counters and virtual timelines makes the rebuilt session
  // indistinguishable from one that never yielded.
  if (resume != nullptr) {
    MLR_TRACE_SPAN("job.session_restore", "serve", req.id);
    if (db != nullptr && !resume->own_entries.empty())
      db->restore_session_entries(resume->own_entries);
    ml.restore_cache(resume->cache);
    ml.set_counters(resume->counters);
    ctx->restore_clock(resume->clocks);
  }

  admm::SolverCheckpoint ck;
  if (resume != nullptr) ck = std::move(resume->ck);
  const sim::VTime seg_t0 = ck.valid ? ck.t : 0.0;
  admm::YieldFn yield_fn;
  if ((cfg_.preempt_quantum_s > 0 || cfg_.preempt_force) && contended) {
    yield_fn = [&](int, sim::VTime tn) {
      if (cfg_.preempt_force) return true;
      if (tn - seg_t0 < cfg_.preempt_quantum_s) return false;
      // Map the session-local instant onto the service clock: compute
      // started at seed_ready, this segment's solver clock started at
      // seg_t0.
      return contended(seed_ready + (tn - seg_t0));
    };
  }

  admm::Solver solver(ml, ac);
  admm::SolveResult res;
  const bool finished = [&] {
    MLR_TRACE_SPAN("job.solve", "serve", req.id);
    return solver.solve_resumable(pb.d, ck, yield_fn, &res);
  }();

  if (!finished) {
    // Yielded at a stage boundary: checkpoint everything needed to rebuild
    // the session bit-identically and hand the slot back.
    RunOutcome ro;
    ro.paused = true;
    auto& pj = ro.paused_job;
    pj.req = req;
    pj.yield_time = seed_ready + (ck.t - seg_t0);
    pj.ck = std::move(ck);
    if (db != nullptr) {
      MLR_TRACE_SPAN("job.export", "serve", req.id);
      pj.own_entries = db->export_entries(/*session_only=*/true);
    }
    pj.cache = ml.cache_image();
    pj.counters = ml.counters();
    pj.clocks = ctx->clock_state();
    return ro;
  }

  st.run_vtime = res.total_vtime;
  st.finish = seed_ready + (res.total_vtime - seg_t0);
  // The session's virtual completion on the service timeline — the second
  // clock domain, exported as a counter track against the wall-clock axis.
  obs::trace_counter("vclock.service", st.finish);
  st.deadline_met = req.deadline <= 0 || st.finish <= req.deadline;
  st.memo = ml.counters();
  st.cache_hit_rate = ml.cache_stats().hit_rate();
  st.error_vs_truth = relative_error<cfloat>(pb.truth.span(), res.u.span());
  st.output_fingerprint = fnv1a_bytes(res.u.data(), std::size_t(res.u.bytes()));
  // One device's cache is not a multi-device session's cache.
  if (ctx->num_gpus() == 1 && ml.cache() != nullptr)
    st.cache_fingerprint = ml.cache()->fingerprint();
  if (own_entries != nullptr && db != nullptr) {
    MLR_TRACE_SPAN("job.export", "serve", req.id);
    *own_entries = db->export_entries(/*session_only=*/true);
  }
  RunOutcome ro;
  ro.st = std::move(st);
  return ro;
}

double ReconService::work_scale_for(Scenario s) const {
  const double sc = double(scenario_profile(s).paper_n) / double(cfg_.n);
  return sc * sc * sc;
}

sim::VTime ReconService::charge_seed_fetch(sim::VTime t, double scale) {
  // Each shard streams its resident bytes on its own link while the whole
  // tier funnels through the uplink. The uplink total is the backend's
  // fold-order sum, not a sum of the shard split, so the completion is
  // bit-identical for every shard count.
  std::vector<double> wire(std::size_t(cfg_.shard_count));
  for (int s = 0; s < cfg_.shard_count; ++s)
    wire[std::size_t(s)] = tier_->shard_bytes(s) * scale;
  const sim::VTime ready =
      fabric_.transfer(t, wire, tier_->total_bytes() * scale);
  stats_.fabric_fetch_s += ready - t;
  return ready;
}

void ReconService::charge_shipment(
    const std::vector<memo::MemoDb::Entry>& entries, sim::VTime ready,
    double scale) {
  // The whole batch travels — the session ships first, the tier filters on
  // arrival, so a dropped entry still spent its fabric time. The uplink
  // total accumulates in batch order (shard-count independent).
  std::vector<double> wire(std::size_t(cfg_.shard_count), 0.0);
  double total = 0;
  for (const auto& e : entries) {
    const double b = double(memo::entry_bytes(e)) * scale;
    wire[std::size_t(memo::entry_shard(e, cfg_.shard_count))] += b;
    total += b;
  }
  stats_.fabric_promote_s += fabric_.transfer(ready, wire, total) - ready;
}

double ReconService::estimate_fetch_s(double scale) const {
  if (!cfg_.memoize || !cfg_.fabric.enabled || tier_->size() == 0) return 0.0;
  // The uncontended lower bound of charge_seed_fetch: every fetch funnels
  // the whole tier through the shared uplink, so this is exact on an idle
  // fabric and optimistic under contention.
  return cfg_.fabric.latency +
         tier_->total_bytes() * scale / cfg_.fabric.uplink_bandwidth;
}

void ReconService::fold_promotion(JobStats* st,
                                  std::vector<memo::MemoDb::Entry> entries) {
  if (entries.empty()) return;
  MLR_TRACE_SPAN("job.promote", "serve", st != nullptr ? st->id : 0);
  const PromotionOutcome outcome = tier_->fold(std::move(entries));
  auto& sm = ServeMetrics::get();
  sm.tier_promoted.add(outcome.promoted);
  sm.tier_dedup_drops.add(outcome.dedup_drops);
  sm.tier_cap_drops.add(outcome.cap_drops);
  stats_.promoted += outcome.promoted;
  stats_.shared_dedup_drops += outcome.dedup_drops;
  stats_.shared_cap_drops += outcome.cap_drops;
  if (st != nullptr) {
    st->promoted = outcome.promoted;
    st->memo.shared_dedup_drops = outcome.dedup_drops;
    st->memo.shared_cap_drops = outcome.cap_drops;
  }
}

std::vector<JobStats> ReconService::prime(std::span<const JobRequest> warm) {
  // Offline warm-up: the tier is built before traffic exists, so neither
  // the seed fetches nor the promotions of warm jobs touch the fabric — its
  // clock starts with drain().
  MLR_TRACE_SPAN("service.prime", "serve", u64(warm.size()));
  std::vector<JobStats> out;
  out.reserve(warm.size());
  for (const auto& w : warm) {
    JobRequest req = w;
    req.id = next_id_++;
    try {
      std::vector<memo::MemoDb::Entry> own;
      auto st =
          std::move(run_job(req, 0.0, 0.0, cfg_.memoize ? &own : nullptr).st);
      if (cfg_.memoize) fold_promotion(&st, std::move(own));
      // Teach admission this scenario's runtime class (max across
      // observations: run vtimes are policy-invariant, so this is too).
      auto& est = est_run_[std::size_t(st.scenario)];
      est = std::max(est, st.run_vtime);
      out.push_back(std::move(st));
    } catch (const std::exception& e) {
      // A warm job that throws poisons only itself: later warm jobs (and
      // the drain) still run against whatever tier was built so far.
      JobStats st = record_for(req);
      st.start = st.finish = req.arrival;
      st.outcome = JobOutcome::Failed;
      st.failure = e.what();
      ++stats_.jobs_failed;
      obs::metrics().counter("serve.jobs_failed").add();
      obs::trace_instant("job.failed", "serve", req.id);
      out.push_back(std::move(st));
    }
  }
  return out;
}

u64 ReconService::submit(JobRequest req) {
  req.id = next_id_++;
  ++stats_.submitted;
  queue_.push_back(std::move(req));
  return queue_.back().id;
}

void ReconService::account(const JobStats& st) {
  auto& sm = ServeMetrics::get();
  sm.jobs_completed.add();
  sm.queue_wait_vs.observe(st.queue_wait());
  sm.turnaround_vs.observe(st.turnaround());
  sm.seed_fetch_vs.observe(st.seed_fetch_s);
  sm.slot_busy_vs.observe(st.run_vtime + st.seed_fetch_s);
  ++stats_.completed;
  stats_.queue_wait.add(st.queue_wait());
  stats_.turnaround.add(st.turnaround());
  stats_.run_vtime.add(st.run_vtime);
  stats_.lookups += st.memo.lookups();
  stats_.cache_hits += st.memo.cache_hit;
  stats_.db_hits += st.memo.db_hit;
  stats_.shared_hits += st.memo.db_hit_shared;
  stats_.misses += st.memo.miss;
  stats_.makespan = std::max(stats_.makespan, st.finish);
  stats_.busy_s += st.run_vtime + st.seed_fetch_s;
  if (!st.deadline_met) ++stats_.deadline_missed;
  auto& ten = stats_.tenants[st.tenant];
  ++ten.jobs;
  ten.busy_s += st.run_vtime + st.seed_fetch_s;
  ten.queue_wait.add(st.queue_wait());
}

std::vector<JobStats> ReconService::drain() {
  MLR_CHECK_MSG(!cfg_.memoize || registry_->encoder().quantized(),
                "prime() the service before drain(): the cross-job encoder "
                "must be trained once, not by whichever job runs first");
  // Explicit begin/complete instead of a RAII span: the drain span must be
  // flushed into the rings BEFORE write_json() below, or the trace file
  // would miss its own top-level span.
  const u64 drain_t0 =
      obs::trace_enabled() ? obs::TraceRecorder::instance().now_ns() : 0;
  std::vector<JobRequest> arr = std::move(queue_);
  queue_.clear();
  std::sort(arr.begin(), arr.end(),
            [](const JobRequest& a, const JobRequest& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival
                                            : a.id < b.id;
            });
  std::vector<JobStats> out;
  out.reserve(arr.size());
  // Session insertions: shipments are charged to the fabric in (finish, id)
  // order, interleaved with the fetch charges so timeline ready times stay
  // monotone — a finished job's promotion traffic contends with every later
  // dispatch's seed fetch. The tier itself *folds* at the end in job-id
  // order: its evolution is identical for every scheduling policy.
  std::map<u64, std::vector<memo::MemoDb::Entry>> own;
  struct Shipment {
    sim::VTime finish;
    u64 id;
    Scenario scenario;
  };
  std::vector<Shipment> pending;
  auto charge_shipments_until = [&](sim::VTime upto) {
    std::sort(pending.begin(), pending.end(),
              [](const Shipment& a, const Shipment& b) {
                return a.finish != b.finish ? a.finish < b.finish
                                            : a.id < b.id;
              });
    std::size_t shipped = 0;
    while (shipped < pending.size() && pending[shipped].finish <= upto) {
      const Shipment& sh = pending[shipped];
      charge_shipment(own[sh.id], sh.finish, work_scale_for(sh.scenario));
      ++shipped;
    }
    pending.erase(pending.begin(), pending.begin() + i64(shipped));
  };
  std::vector<QueuedJob> waiting;
  // Preempted jobs awaiting their next segment, by id. A paused job is
  // always also in `waiting` (as a resumed QueuedJob pointing at the
  // PausedJob's owned request), so the loop condition needs no new term.
  std::map<u64, std::unique_ptr<PausedJob>> paused;
  // Ids admission flipped to best-effort (Downgrade mode) — recorded so the
  // final JobStats can say so even though the request itself was mutated.
  std::set<u64> downgraded_ids;
  const bool preempt_on = cfg_.preempt_quantum_s > 0 || cfg_.preempt_force;
  std::size_t next = 0;
  while (next < arr.size() || !waiting.empty()) {
    // Earliest-free slot (ties: lowest index) sets the dispatch time: a job
    // runs when that slot is free AND a job has arrived, so clamp up to the
    // earliest arrival still on the table — a waiting job's, or the next
    // submission's when it beats them. (Clamping only when the queue was
    // empty used to let a second, idle slot start a queued job before its
    // own arrival instant.)
    std::size_t slot = 0;
    for (std::size_t s2 = 1; s2 < slot_free_.size(); ++s2)
      if (slot_free_[s2] < slot_free_[slot]) slot = s2;
    sim::VTime t = slot_free_[slot];
    sim::VTime earliest = std::numeric_limits<sim::VTime>::infinity();
    for (const auto& w : waiting) earliest = std::min(earliest, w.queued_at);
    if (next < arr.size()) earliest = std::min(earliest, arr[next].arrival);
    t = std::max(t, earliest);
    // Admission at arrival: everything that arrived by t is processed in
    // (arrival, id) order — deadline admission first (policy-invariant: its
    // inputs are the arrival-ordered stream, the learned estimates and the
    // controller's private adm_free_ model, never actual queue/slot state),
    // then the backlog cap (policy-*dependent*, as before: it reads the
    // real queue length).
    while (next < arr.size() && arr[next].arrival <= t) {
      JobRequest& jr = arr[next];  // mutable: Downgrade rewrites jr.slo
      auto reject = [&](const char* why) {
        JobStats rej = record_for(jr);
        rej.admitted = false;
        rej.reject_reason = why;
        rej.outcome = JobOutcome::Rejected;
        rej.start = rej.finish = jr.arrival;
        ++stats_.rejected;
        ServeMetrics::get().jobs_rejected.add();
        obs::trace_instant("job.rejected", "serve", jr.id);
        out.push_back(std::move(rej));
      };
      bool adm_rejected = false;
      const double er = est_run_[std::size_t(jr.scenario)];
      if (cfg_.admission != AdmissionMode::None && jr.deadline > 0 &&
          er > 0) {
        // Model the earliest start the controller can promise: the least-
        // loaded slot of its own bookkeeping, advanced below by the same
        // estimates. est_fetch is the uncontended uplink pass of the
        // (drain-constant) tier at this scenario's work scale.
        std::size_t am = 0;
        for (std::size_t s2 = 1; s2 < adm_free_.size(); ++s2)
          if (adm_free_[s2] < adm_free_[am]) am = s2;
        const sim::VTime est_start = std::max(jr.arrival, adm_free_[am]);
        const double ef = estimate_fetch_s(work_scale_for(jr.scenario));
        const bool feasible =
            est_start + (ef + er) <= jr.deadline;
        if (!feasible && cfg_.admission == AdmissionMode::Reject) {
          ++stats_.admission_rejected;
          ServeMetrics::get().admission_rejected.add();
          reject("deadline-infeasible");
          adm_rejected = true;
        } else {
          if (!feasible) {  // AdmissionMode::Downgrade
            jr.slo = SloClass::BestEffort;
            downgraded_ids.insert(jr.id);
            ++stats_.admission_downgraded;
            ServeMetrics::get().admission_downgraded.add();
            obs::trace_instant("job.downgraded", "serve", jr.id);
          }
          // Book the slot model with the same estimates.
          adm_free_[am] = est_start + ef + er;
        }
      }
      if (!adm_rejected) {
        if (waiting.size() >= cfg_.max_queue) {
          reject("queue-full");
        } else {
          waiting.push_back({&jr, jr.arrival, false});
        }
      }
      ++next;
    }
    // Admission may have rejected every arrival in the batch, leaving
    // nothing to dispatch: go around again (t then advances to the next
    // pending arrival, so the admission loop always consumes at least one
    // more request — no livelock) or fall out of the drain entirely.
    if (waiting.empty()) continue;
    // Every waiter has arrived by t: t is non-decreasing across iterations
    // (the slot minimum and the earliest-pending-arrival terms both only
    // rise), and each waiter was admitted when its arrival was <= the then-
    // current t.
    const std::size_t pi = sched_->pick(waiting, t);
    const QueuedJob picked = waiting[pi];
    const JobRequest req = *picked.req;
    waiting.erase(waiting.begin() + i64(pi));
    // A resumed pick carries its checkpoint; extract it (the QueuedJob's
    // req pointer aimed into the PausedJob we now own).
    std::unique_ptr<PausedJob> resume;
    if (picked.resumed) {
      const auto it = paused.find(req.id);
      MLR_CHECK(it != paused.end());
      resume = std::move(it->second);
      paused.erase(it);
    }
    // The dispatched session first fetches the shared tier over the fabric
    // — the charge concurrent sessions contend on — and computes only once
    // the seed landed. Dispatch times are non-decreasing across iterations,
    // so charging shipments whose jobs finished by t first, then this fetch,
    // keeps the fabric's ready times in time order.
    charge_shipments_until(t);
    // Virtual dispatch time on the service timeline (counter track pairs
    // with the vclock.service sample run_job emits at job completion).
    obs::trace_counter("vclock.service", t);
    // Per-job failure isolation: ANY throw out of this job's dispatch or
    // session — a NetError whose reconnect budget ran out, a chaos hook, a
    // solver bug — fails only this job. The slot is released, the message
    // preserved, and the loop moves on; sessions are hermetic and the tier
    // folds post-drain in job-id order, so the other jobs' sessions never
    // see a difference.
    try {
      if (cfg_.dispatch_hook) cfg_.dispatch_hook(req);
      // Degraded mode probes recovery once per dispatch: cheap when the
      // tier is still down (one failed connect), and the earliest possible
      // exit from cold sessions when it is back.
      if (degraded_) try_tier_recovery();
      const bool cold = degraded_;
      const sim::VTime seed_ready =
          cfg_.memoize && !cold
              ? charge_seed_fetch(t, work_scale_for(req.scenario))
              : t;
      std::vector<memo::MemoDb::Entry> mine;
      const bool collect = cfg_.memoize;
      // Yield rule, evaluated at quantum-expired stage boundaries on the
      // service clock: yield only when someone is waiting (or will have
      // arrived by then) AND no other slot could serve them — otherwise
      // keep running in place, no checkpoint cost. Preemption may read
      // live queue state precisely because resume is bit-exact: it shapes
      // the schedule, never the outputs.
      std::function<bool(sim::VTime)> contended;
      if (preempt_on) {
        contended = [&, slot](sim::VTime at) {
          const bool waiter =
              !waiting.empty() ||
              (next < arr.size() && arr[next].arrival <= at);
          if (!waiter) return false;
          for (std::size_t s2 = 0; s2 < slot_free_.size(); ++s2)
            if (s2 != slot && slot_free_[s2] <= at) return false;
          return true;
        };
      }
      if (resume != nullptr)
        obs::trace_instant("job.resume", "serve", req.id);
      RunOutcome ro = run_job(req, t, seed_ready, collect ? &mine : nullptr,
                              cold, resume.get(), contended);
      if (ro.paused) {
        // The job yielded: requeue it (as of its yield time) with the
        // accumulated cross-segment bookkeeping, free the slot, move on.
        auto pj = std::make_unique<PausedJob>(std::move(ro.paused_job));
        if (resume != nullptr) {
          pj->first_start = resume->first_start;
          pj->seed_fetch_total = resume->seed_fetch_total;
          pj->preemptions = resume->preemptions;
          pj->slots = std::move(resume->slots);
        } else {
          pj->first_start = t;
        }
        pj->seed_fetch_total += seed_ready - t;
        ++pj->preemptions;
        pj->slots.push_back(int(slot));
        // Usage accounting bills the segment's slot occupancy now; the
        // later segments bill theirs when they run.
        sched_->on_dispatch(req, t, pj->yield_time - t);
        slot_free_[slot] = pj->yield_time;
        ++stats_.preemptions;
        ServeMetrics::get().preemptions.add();
        obs::trace_instant("job.preempt", "serve", req.id);
        waiting.push_back({&pj->req, pj->yield_time, true});
        paused.emplace(req.id, std::move(pj));
      } else {
        JobStats st = std::move(ro.st);
        st.slot = int(slot);
        if (resume != nullptr) {
          // Stitch the whole-job record across segments: start is the
          // first dispatch, seed_fetch_s sums every segment's re-fetch
          // (turnaround absorbs them; run_vtime never does).
          st.start = resume->first_start;
          st.seed_fetch_s = resume->seed_fetch_total + (seed_ready - t);
          st.preemptions = resume->preemptions;
          st.slots_visited = std::move(resume->slots);
        }
        st.slots_visited.push_back(int(slot));
        st.downgraded = downgraded_ids.count(st.id) > 0;
        // Usage accounting bills this segment's slot occupancy — the seed
        // fetch holds the slot just like the compute does.
        sched_->on_dispatch(req, t, st.finish - t);
        slot_free_[slot] = st.finish;
        if (collect) {
          own.emplace(req.id, std::move(mine));
          pending.push_back({st.finish, req.id, req.scenario});
        }
        account(st);
        out.push_back(std::move(st));
      }
    } catch (const std::exception& e) {
      JobStats st = record_for(req);
      st.start = st.finish = t;
      st.slot = int(slot);
      st.outcome = JobOutcome::Failed;
      st.failure = e.what();
      st.degraded = degraded_;
      st.downgraded = downgraded_ids.count(st.id) > 0;
      if (resume != nullptr) {
        // A resumed segment that threw fails the whole job; its checkpoint
        // dies with `resume` (per-job failure isolation, as for any other
        // failed session).
        st.preemptions = resume->preemptions;
        st.slots_visited = std::move(resume->slots);
        st.start = resume->first_start;
        st.finish = t;
      }
      ++stats_.jobs_failed;
      obs::metrics().counter("serve.jobs_failed").add();
      obs::trace_instant("job.failed", "serve", req.id);
      slot_free_[slot] = t;  // the slot frees immediately
      out.push_back(std::move(st));
    }
    // A job whose transport faults past the reconnect budget leaves the
    // backend broken; declare the tier down and flip to cold sessions so
    // the queue keeps draining instead of failing job after job.
    if (cfg_.memoize && !degraded_ && !tier_->healthy())
      enter_degraded("tier transport broken (reconnect budget exhausted)");
  }
  MLR_CHECK_MSG(paused.empty(), "drain ended with a job still preempted");
  charge_shipments_until(std::numeric_limits<sim::VTime>::infinity());
  std::sort(out.begin(), out.end(),
            [](const JobStats& a, const JobStats& b) { return a.id < b.id; });
  // Refresh admission's per-scenario runtime estimates (id order — run
  // vtimes are policy-invariant, so the refreshed model is too).
  for (const auto& st : out)
    if (st.outcome == JobOutcome::Completed) {
      auto& est = est_run_[std::size_t(st.scenario)];
      est = std::max(est, st.run_vtime);
    }
  for (auto& st : out) {
    const auto it = own.find(st.id);
    if (it == own.end() || it->second.empty()) continue;
    auto& entries = it->second;
    if (cfg_.transport != TierTransport::Inproc) {
      if (degraded_) {
        // Tier down: buffer in job-id order (this loop's order) so the
        // recovery re-ship folds exactly as a healthy drain would have.
        cold_promotions_.emplace_back(st.id, std::move(entries));
        continue;
      }
      try {
        // Deliberate copy: a PUT interrupted by a fault is at-most-once —
        // the batch must survive to be re-shipped on recovery (the tier's
        // dedup probe absorbs it if the original did land).
        fold_promotion(&st, entries);
      } catch (const net::NetError& e) {
        enter_degraded(std::string("promotion PUT failed: ") + e.what());
        cold_promotions_.emplace_back(st.id, std::move(entries));
      }
      continue;
    }
    fold_promotion(&st, std::move(entries));
  }
  // Fabric busy/contention gauges: read from sim/ here rather than
  // instrumenting the fabric itself — sim/ stays free of obs dependencies.
  {
    auto& m = obs::metrics();
    m.gauge("fabric.uplink_busy_vs").set(fabric_.uplink().busy_time());
    double link_busy = 0;
    for (int i = 0; i < fabric_.links(); ++i)
      link_busy += fabric_.link(i).busy_time();
    m.gauge("fabric.links_busy_vs").set(link_busy);
    m.gauge("fabric.contention_vs").set(fabric_.contention_wait_s());
    m.gauge("fabric.bytes_moved").set(fabric_.bytes_moved());
    m.gauge("fabric.transfers").set(double(fabric_.transfers()));
  }
  if (obs::trace_enabled()) {
    auto& tr = obs::TraceRecorder::instance();
    tr.complete("service.drain", "serve", drain_t0, tr.now_ns() - drain_t0, 0);
  }
  if (!cfg_.trace_path.empty())
    obs::TraceRecorder::instance().write_json(cfg_.trace_path);
  return out;
}

}  // namespace mlr::serve
