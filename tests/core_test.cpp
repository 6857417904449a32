// Tests for the public mlr::Reconstructor facade.
#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "core/mlr.hpp"

namespace mlr {
namespace {

ReconstructionConfig tiny(bool memoize) {
  ReconstructionConfig cfg;
  cfg.dataset = Dataset::small(10);
  cfg.iters = 4;
  cfg.inner_iters = 2;
  cfg.chunk_size = 4;
  cfg.memoize = memoize;
  return cfg;
}

TEST(Dataset, PresetsScaleToPaperSizes) {
  auto s = Dataset::small();
  auto m = Dataset::medium();
  auto l = Dataset::large();
  EXPECT_EQ(s.paper_n, 1024);
  EXPECT_EQ(m.paper_n, 1536);
  EXPECT_EQ(l.paper_n, 2048);
  EXPECT_GT(s.work_scale(), 1.0);
  EXPECT_GT(l.work_scale(), s.work_scale() * 0.9);
}

TEST(Reconstructor, BaselineRunProducesReport) {
  Reconstructor rec(tiny(false));
  auto rep = rec.run();
  EXPECT_GT(rep.vtime_s, 0.0);
  EXPECT_GT(rep.real_seconds, 0.0);
  EXPECT_LT(rep.error_vs_truth, 1.0);
  EXPECT_EQ(rep.memo.miss + rep.memo.db_hit + rep.memo.cache_hit, 0u);
  EXPECT_GT(rep.memo.computed, 0u);
  EXPECT_GT(rep.peak_rss_bytes, 0.0);
}

TEST(Reconstructor, MemoizedRunFasterThanBaseline) {
  Reconstructor base(tiny(false));
  auto rb = base.run();
  Reconstructor memo_rec(tiny(true));
  auto rm = memo_rec.run();
  EXPECT_GT(rm.memo.cache_hit + rm.memo.db_hit, 0u);
  EXPECT_LT(rm.vtime_s, rb.vtime_s);
  // Reconstructions remain close (both approach the same phantom).
  EXPECT_LT(rm.error_vs_truth, rb.error_vs_truth + 0.35);
}

TEST(Reconstructor, OffloadReducesPeakRss) {
  auto cfg = tiny(false);
  cfg.offload = OffloadMode::Planned;
  Reconstructor rec(cfg);
  auto rep = rec.run();
  EXPECT_FALSE(rep.offload_plan.entries.empty());
  EXPECT_GT(rep.offload_plan.memory_saving_frac, 0.0);
  EXPECT_GT(rep.offload_plan.mt(), 0.0);
}

TEST(Reconstructor, GreedyOffloadStallsMore) {
  auto planned_cfg = tiny(false);
  planned_cfg.offload = OffloadMode::Planned;
  Reconstructor planned(planned_cfg);
  auto rp = planned.run();
  auto greedy_cfg = tiny(false);
  greedy_cfg.offload = OffloadMode::Greedy;
  Reconstructor greedy(greedy_cfg);
  auto rg = greedy.run();
  EXPECT_GT(rg.exposed_stall_s, rp.exposed_stall_s);
  EXPECT_GT(rg.vtime_s, rp.vtime_s);
}

/// FNV-1a over every observable of a memoized Reconstructor run: output bits,
/// virtual time, transfer share, cache hit rate and outcome counters; then
/// each iteration's loss, ρ, end time and outcome delta; every ChunkRecord
/// the record sink received; and the local cache's fingerprint.
u64 run_digest(memo::CacheKind cache, unsigned threads) {
  ReconstructionConfig cfg;
  cfg.dataset = Dataset::small(12);
  cfg.iters = 4;
  cfg.cache = cache;
  cfg.threads = threads;
  Reconstructor rec(cfg);
  rec.prepare();
  std::vector<memo::ChunkRecord> records;
  rec.wrapper().set_record_sink(&records);
  const Report rep = rec.run();
  u64 h = kFnvOffsetBasis;
  auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
  auto counters = [&pod](const memo::MemoCounters& c) {
    pod(c.computed);
    pod(c.miss);
    pod(c.db_hit);
    pod(c.cache_hit);
    pod(c.db_hit_shared);
  };
  const auto& u = rep.result.u;
  h = fnv1a(h, u.data(), std::size_t(u.bytes()));
  pod(rep.vtime_s);
  pod(rep.result.transfer_share);
  pod(rep.cache_hit_rate);
  counters(rep.memo);
  for (const auto& st : rep.result.iterations) {
    pod(st.loss);
    pod(st.rho);
    pod(st.t_end);
    counters(st.memo_delta);
  }
  for (const auto& r : records) {
    pod(int(r.kind));
    pod(int(r.outcome));
    pod(r.location);
    pod(r.encode_s);
    pod(r.db_s);
    pod(r.compute_s);
    pod(r.copy_s);
  }
  const auto* c = rec.wrapper().cache();
  pod(c != nullptr ? c->fingerprint() : 0);
  return h;
}

// Golden digests of a memoized run through the facade (warmup, encoder
// training, memoized iterations), recorded before the memo layer absorbed its
// stage engine. They pin the three aggregates the facade reads from that
// layer: the record sink (Figs 10/12), the summed copy-engine busy time
// behind `transfer_share`, and the summed cache stats behind
// `cache_hit_rate`. A change that moves them changed behaviour: fix it, do
// not re-record.
TEST(Reconstructor, MemoizedRunGolden) {
  constexpr struct {
    memo::CacheKind cache;
    u64 digest;
  } kGolden[] = {{memo::CacheKind::Private, 0x2edb56432301523eull},
                 {memo::CacheKind::Global, 0x789f6bd0d83204eeull}};
  for (const auto& gd : kGolden)
    for (const unsigned threads : {1u, 4u})
      EXPECT_EQ(run_digest(gd.cache, threads), gd.digest)
          << std::hex << "global=" << (gd.cache == memo::CacheKind::Global)
          << " threads=" << threads;
}

TEST(Reconstructor, PrepareIsIdempotent) {
  Reconstructor rec(tiny(false));
  rec.prepare();
  const auto* d1 = rec.projections().data();
  rec.prepare();
  EXPECT_EQ(rec.projections().data(), d1);
}

// A second run() on one object would restart the solve on devices whose
// timelines are still busy from the first and on memo counters that never
// reset (vtime and memo.miss would read cumulative), so it throws.
TEST(Reconstructor, SecondRunThrows) {
  Reconstructor rec(tiny(true));
  const Report first = rec.run();
  EXPECT_GT(first.vtime_s, 0.0);
  EXPECT_THROW((void)rec.run(), mlr::Error);
}

TEST(MemoryBreakdown, MatchesPaperShape) {
  // Fig 2: ψ and λ equal (12 % each), g + G_prev about double ψ, LSP
  // workspaces present.
  auto b = admm_memory_breakdown(Dataset::medium());
  EXPECT_DOUBLE_EQ(b.psi, b.lambda);
  EXPECT_GT(b.g + b.g_prev, 1.2 * b.psi);
  EXPECT_GT(b.total(), b.psi * 4);
  // Medium dataset ≈ the paper's 300 GB ADMM footprint (±2×).
  EXPECT_GT(b.total(), 150.0 * kGiB);
  EXPECT_LT(b.total(), 600.0 * kGiB);
}

}  // namespace
}  // namespace mlr
