// Concurrency tests for the batched stage-execution engine's shared state:
// the memoization caches are hammered from many threads and must neither
// lose counter updates nor corrupt entries; pool workers harvesting one
// remote DB entry at once must all land its payload; the memo layer's
// stage engine must produce bit-identical results, records, cache contents,
// DB entries and virtual times for any pool width, pinned by golden digests;
// ann::Index::search_batch must match looped search; keys encoded and
// operator chunks computed concurrently on several threads, and encoders
// trained concurrently on one shared pool, must match a serial pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "ann/ann.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "encoder/encoder.hpp"
#include "lamino/operators.hpp"
#include "lamino/phantom.hpp"
#include "memo/memo_cache.hpp"
#include "memo/memoized_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlr::memo {
namespace {

std::vector<float> unit_key(i64 dim, i64 hot) {
  std::vector<float> k(static_cast<size_t>(dim), 0.0f);
  k[size_t(hot % dim)] = 1.0f;
  return k;
}

std::vector<cfloat> random_value(i64 n, u64 seed) {
  Rng rng(seed);
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

// N threads × M rounds of lookup+insert against one cache; every counter
// update must survive (atomic counters, no lost updates) and every lookup
// that returns a value must return an intact, internally-consistent entry.
void hammer_cache(MemoCache& cache, int threads, int rounds, i64 locations) {
  std::atomic<u64> expected_lookups{0};
  std::atomic<u64> torn_values{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(u64(1000 + t));
      for (int r = 0; r < rounds; ++r) {
        const i64 loc = rng.uniform_int(0, locations - 1);
        const auto kind = OpKind(int(rng.uniform_int(0, kNumOpKinds - 1)));
        // Key and value both derive from hot = loc mod dim, so locations
        // sharing a key (GlobalCache cross-location hits) also share the
        // expected value — any mismatch is a genuinely torn/corrupt entry.
        const i64 hot = loc % 16;
        if (rng.uniform() < 0.5) {
          // Value encodes its own key id in every element so a torn read
          // (mixed entries) is detectable.
          std::vector<cfloat> v(32, cfloat(float(hot), float(hot)));
          cache.insert(kind, loc, unit_key(16, hot), v, 1.0);
        } else {
          auto got = cache.lookup(kind, loc, unit_key(16, hot), 0.9, 1.0);
          expected_lookups.fetch_add(1);
          if (got.has_value()) {
            for (const auto& x : *got) {
              if (x != cfloat(float(hot), float(hot))) {
                torn_values.fetch_add(1);
                break;
              }
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(torn_values.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, expected_lookups.load());  // no lost updates
  EXPECT_LE(stats.hits, stats.lookups);
  EXPECT_GE(stats.hit_rate(), 0.0);
  EXPECT_LE(stats.hit_rate(), 1.0);
}

TEST(Concurrency, PrivateCacheParallelLookupInsert) {
  PrivateCache cache(64);
  hammer_cache(cache, 8, 2000, 64);
}

TEST(Concurrency, GlobalCacheParallelLookupInsert) {
  GlobalCache cache(64);
  hammer_cache(cache, 8, 2000, 64);
}

TEST(Concurrency, GlobalCacheKeepsSameLocationSharing) {
  // A location can re-hit the entry it inserted.
  GlobalCache cache(64);
  for (i64 loc = 0; loc < 32; ++loc)
    cache.insert(OpKind::Fu2D, loc, unit_key(16, loc),
                 random_value(8, u64(loc)), 1.0);
  for (i64 loc = 0; loc < 32; ++loc)
    EXPECT_TRUE(
        cache.lookup(OpKind::Fu2D, loc, unit_key(16, loc), 0.9).has_value())
        << "location " << loc;
}

/// The remote tier's stand-in for a seeded session: serves each snapshot
/// position's payload and counts requests and fetches from any thread.
class FakeTier final : public ValueFetcher {
 public:
  explicit FakeTier(std::vector<std::vector<cfloat>> payloads)
      : payloads_(std::move(payloads)) {}
  void request(u64 /*pos*/) override { requests.fetch_add(1); }
  void flush() override {}
  std::vector<cfloat> fetch(u64 pos) override {
    fetches.fetch_add(1);
    auto v = payloads_.at(size_t(pos));
    if (short_payloads) v.pop_back();
    return v;
  }
  std::atomic<u64> requests{0};
  std::atomic<u64> fetches{0};
  bool short_payloads = false;  ///< one cfloat fewer than the seed index says

 private:
  std::vector<std::vector<cfloat>> payloads_;
};

// Pool workers harvest many replies of the same two remote entries at once:
// every reply lands the tier's payload bit for bit, the harvested entries
// serve the next round locally, and a payload whose length disagrees with
// the seed index is refused.
TEST(Concurrency, MemoDbHarvestsOneRemoteEntryFromManyWorkers) {
  const MemoDbConfig cfg{.key_dim = 16, .tau = 0.9,
                         .ivf = {.nlist = 2, .train_size = 8}};
  const std::vector<std::vector<cfloat>> payloads = {random_value(48, 1),
                                                     random_value(48, 2)};
  std::vector<MemoDb::Entry> seed;
  for (std::size_t p = 0; p < payloads.size(); ++p)
    seed.push_back({.kind = OpKind::Fu2D,
                    .key = unit_key(16, i64(p)),
                    .value_cf = payloads[p].size()});
  std::vector<QueryRequest> reqs;
  for (int r = 0; r < 64; ++r)
    reqs.push_back({OpKind::Fu2D, unit_key(16, r % 2), 1.0, {}, 0.0, 48});

  FakeTier tier(payloads);
  sim::Interconnect net;
  sim::MemoryNode node;
  MemoDb db(cfg, &net, &node);
  db.import_entries(seed, &tier);
  ThreadPool pool(4);
  auto replies = db.query_batch(reqs, 0.0, &pool);
  for (const auto& rp : replies) {
    ASSERT_TRUE(rp.hit);
    ASSERT_NE(rp.remote_pos, QueryReply::kNoRemote);
    EXPECT_TRUE(rp.value.empty());
  }
  EXPECT_EQ(tier.requests.load(), 64u);
  parallel_for(pool, 0, i64(replies.size()),
               [&](i64 r) { db.materialize(replies[size_t(r)]); });
  for (std::size_t r = 0; r < replies.size(); ++r) {
    EXPECT_EQ(replies[r].remote_pos, QueryReply::kNoRemote);
    EXPECT_EQ(replies[r].value, payloads[r % 2]) << "reply " << r;
  }
  EXPECT_GE(tier.fetches.load(), 2u);
  EXPECT_LE(tier.fetches.load(), 64u);

  // The next round scores the harvested entries as local ones.
  const u64 fetched = tier.fetches.load();
  const auto again = db.query_batch(reqs, 1.0, &pool);
  for (std::size_t r = 0; r < again.size(); ++r) {
    ASSERT_TRUE(again[r].hit);
    EXPECT_EQ(again[r].remote_pos, QueryReply::kNoRemote);
    EXPECT_EQ(again[r].value, payloads[r % 2]) << "reply " << r;
  }
  EXPECT_EQ(tier.requests.load(), 64u);
  EXPECT_EQ(tier.fetches.load(), fetched);

  FakeTier short_tier(payloads);
  short_tier.short_payloads = true;
  sim::Interconnect net2;
  sim::MemoryNode node2;
  MemoDb short_db(cfg, &net2, &node2);
  short_db.import_entries(seed, &short_tier);
  auto short_replies = short_db.query_batch(reqs, 0.0, &pool);
  ASSERT_TRUE(short_replies[0].hit);
  EXPECT_THROW(short_db.materialize(short_replies[0]), mlr::Error);
}

TEST(Concurrency, PoolScopedParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, 0, 1000, [&](i64 i) { touched[size_t(i)]++; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

// The engine contract: identical numerics AND identical virtual-clock
// schedule for any pool width. cube(10) with chunk size 2 yields 5 chunks —
// a count no power-of-two partition of the pool divides evenly — and the
// second pass mixes DB hits (even chunks) with misses (odd chunks read fresh
// churn). Outputs, per-chunk records, cache FIFO contents, DB entry counts
// and virtual times must all match the serial run.
TEST(Concurrency, StageExecutorDeterministicAcrossPoolWidths) {
  lamino::Operators ops{lamino::Geometry::cube(10)};
  const auto& g = ops.geometry();
  auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 9));
  Array3D<cfloat> churn(g.u1_shape());
  {
    Rng rng(77);
    for (i64 i = 0; i < churn.size(); ++i)
      churn.data()[i] = cfloat(float(rng.normal()), float(rng.normal()));
  }
  auto chunks = lamino::make_chunks(g.n1, 2);

  struct Run {
    Array3D<cfloat> out1, out2;
    std::vector<ChunkRecord> rec1, rec2;
    sim::VTime done1 = 0, done2 = 0;
    u64 cache_fp = 0;
    u64 db_entries = 0;
  };
  auto run_with_pool = [&](unsigned threads) {
    Run run{Array3D<cfloat>(g.u1_shape()), Array3D<cfloat>(g.u1_shape()),
            {}, {}, 0, 0, 0, 0};
    sim::Device dev{0};
    sim::Interconnect net;
    sim::MemoryNode node;
    MemoDb db{{.key_dim = 16, .tau = 0.92,
               .ivf = {.nlist = 2, .train_size = 8}},
              &net, &node};
    MemoizedLamino ml(ops, {.enable = true, .tau = 0.92, .key_dim = 16,
                            .encoder_hw = 16},
                      &dev, &db);
    ThreadPool pool(threads);
    ml.set_pool(&pool);
    auto make_work = [&](Array3D<cfloat>& dst, bool mixed) {
      std::vector<StageChunk> w;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const auto& spec = chunks[c];
        const auto& src = (mixed && c % 2 == 1) ? churn : u;
        w.push_back({spec, src.slices(spec.begin, spec.count),
                     dst.slices(spec.begin, spec.count)});
      }
      return w;
    };
    auto w1 = make_work(run.out1, false);
    auto rep1 = ml.run_stage(OpKind::Fu1D, w1, 0.0);  // all misses
    auto w2 = make_work(run.out2, true);
    auto rep2 = ml.run_stage(OpKind::Fu1D, w2, rep1.done);  // hit/miss mix
    run.rec1 = rep1.records;
    run.rec2 = rep2.records;
    run.done1 = rep1.done;
    run.done2 = rep2.done;
    run.cache_fp = ml.cache() != nullptr ? ml.cache()->fingerprint() : 0;
    run.db_entries = db.total_entries();
    return run;
  };

  const Run ref = run_with_pool(1);
  // The mixed pass must really mix outcomes or the test is vacuous.
  u64 hits = 0, misses = 0;
  for (const auto& r : ref.rec2) {
    hits += r.outcome == MemoOutcome::DbHit || r.outcome == MemoOutcome::CacheHit;
    misses += r.outcome == MemoOutcome::Miss;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);

  auto expect_same_records = [](const std::vector<ChunkRecord>& a,
                                const std::vector<ChunkRecord>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(int(a[i].kind), int(b[i].kind)) << i;
      EXPECT_EQ(int(a[i].outcome), int(b[i].outcome)) << i;
      EXPECT_EQ(a[i].location, b[i].location) << i;
      EXPECT_EQ(a[i].encode_s, b[i].encode_s) << i;
      EXPECT_EQ(a[i].db_s, b[i].db_s) << i;
      EXPECT_EQ(a[i].compute_s, b[i].compute_s) << i;
      EXPECT_EQ(a[i].copy_s, b[i].copy_s) << i;
    }
  };
  for (const unsigned threads : {2u, 4u}) {
    const Run got = run_with_pool(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (i64 i = 0; i < ref.out1.size(); ++i) {
      ASSERT_EQ(ref.out1.data()[i], got.out1.data()[i]);
      ASSERT_EQ(ref.out2.data()[i], got.out2.data()[i]);
    }
    expect_same_records(ref.rec1, got.rec1);
    expect_same_records(ref.rec2, got.rec2);
    EXPECT_EQ(ref.done1, got.done1);
    EXPECT_EQ(ref.done2, got.done2);
    EXPECT_EQ(ref.cache_fp, got.cache_fp);
    EXPECT_EQ(ref.db_entries, got.db_entries);
  }
}

// --- The kind-alternating stage workload -------------------------------------
// Five stages on cube(10) in chunks of 2 (5 chunks): a miss pass per kind,
// then mixed passes whose odd chunks read fresh churn, so DB hits interleave
// with misses. The Fu1D / Fu1DAdj alternation matches the real ADMM loop.

struct AlternatingRun {
  std::vector<Array3D<cfloat>> outs;
  std::vector<std::vector<ChunkRecord>> recs;
  std::vector<sim::VTime> dones;
  std::vector<u64> cache_fps;  // one per device, 0 without a cache
  u64 db_entries = 0;
  MemoCounters counters;
  std::vector<MemoDb::Entry> entries;  // export_entries(), canonical order
};

AlternatingRun run_alternating(unsigned threads, int gpus,
                               CacheKind cache_kind, bool oracle = true) {
  const lamino::Operators ops{lamino::Geometry::cube(10)};
  const auto& g = ops.geometry();
  const auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 9));
  Array3D<cfloat> base_u1(g.u1_shape());
  Array3D<cfloat> churn_obj(g.object_shape()), churn_u1(g.u1_shape());
  {
    Rng rng(77);
    auto fill = [&rng](Array3D<cfloat>& a) {
      for (i64 i = 0; i < a.size(); ++i)
        a.data()[i] = cfloat(float(rng.normal()), float(rng.normal()));
    };
    fill(base_u1);
    fill(churn_obj);
    fill(churn_u1);
  }
  const auto chunks = lamino::make_chunks(g.n1, 2);

  AlternatingRun run;
  sim::Interconnect net;
  sim::MemoryNode node;
  MemoDb db{{.key_dim = 16, .tau = 0.92,
             .ivf = {.nlist = 2, .train_size = 8}},
            &net, &node};
  // One layer over every device: one registry, so keys match the
  // single-GPU run.
  std::vector<std::unique_ptr<sim::Device>> devs;
  std::vector<sim::Device*> ptrs;
  for (int d = 0; d < gpus; ++d) {
    devs.push_back(std::make_unique<sim::Device>(d));
    ptrs.push_back(devs.back().get());
  }
  MemoizedLamino ml(ops,
                    {.enable = true, .tau = 0.92, .cache = cache_kind,
                     .key_dim = 16, .encoder_hw = 16,
                     .oracle_similarity = oracle},
                    ptrs, &db);
  ThreadPool pool(threads);
  ml.set_pool(&pool);
  auto make_work = [&](OpKind kind, Array3D<cfloat>& dst, bool mixed) {
    const bool adj = kind == OpKind::Fu1DAdj;
    const Array3D<cfloat>& src = adj ? base_u1 : u;
    const Array3D<cfloat>& alt = adj ? churn_u1 : churn_obj;
    std::vector<StageChunk> w;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const auto& spec = chunks[c];
      const auto& in = (mixed && c % 2 == 1) ? alt : src;
      w.push_back({spec, in.slices(spec.begin, spec.count),
                   dst.slices(spec.begin, spec.count)});
    }
    return w;
  };
  const struct {
    OpKind kind;
    bool mixed;
  } passes[] = {{OpKind::Fu1D, false},
                {OpKind::Fu1DAdj, false},
                {OpKind::Fu1D, true},
                {OpKind::Fu1DAdj, true},
                {OpKind::Fu1D, true}};
  sim::VTime t = 0;
  for (const auto& p : passes) {
    run.outs.emplace_back(p.kind == OpKind::Fu1DAdj ? g.object_shape()
                                                    : g.u1_shape());
    auto w = make_work(p.kind, run.outs.back(), p.mixed);
    auto rep = ml.run_stage(p.kind, w, t);
    t = rep.done;
    run.recs.push_back(std::move(rep.records));
    run.dones.push_back(t);
  }
  for (std::size_t d = 0; d < ml.num_devices(); ++d)
    run.cache_fps.push_back(ml.cache(d) != nullptr ? ml.cache(d)->fingerprint()
                                                   : 0);
  run.db_entries = db.total_entries();
  run.counters = ml.counters();
  run.entries = db.export_entries();
  return run;
}

/// FNV-1a over every observable of a run: output bytes, every ChunkRecord
/// field (doubles as raw bits), stage done times, cache fingerprints, the DB
/// entry count, the outcome counters and the exported DB entries in order.
u64 digest(const AlternatingRun& r) {
  u64 h = kFnvOffsetBasis;
  auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
  auto bytes = [&h](const auto& vec) {
    h = fnv1a(h, vec.data(), vec.size() * sizeof vec[0]);
  };
  for (const auto& o : r.outs)
    h = fnv1a(h, o.data(), std::size_t(o.size()) * sizeof(cfloat));
  for (const auto& recs : r.recs)
    for (const auto& rec : recs) {
      pod(int(rec.kind));
      pod(int(rec.outcome));
      pod(rec.location);
      pod(rec.encode_s);
      pod(rec.db_s);
      pod(rec.compute_s);
      pod(rec.copy_s);
    }
  bytes(r.dones);
  bytes(r.cache_fps);
  pod(r.db_entries);
  pod(r.counters.computed);
  pod(r.counters.miss);
  pod(r.counters.db_hit);
  pod(r.counters.cache_hit);
  pod(r.counters.db_hit_shared);
  for (const auto& e : r.entries) {
    pod(int(e.kind));
    bytes(e.key);
    pod(e.norm);
    bytes(e.probe);
    bytes(e.value);
  }
  return h;
}

/// Golden digests of the kind-alternating workload, recorded with an earlier
/// engine (sliced async DB rounds) whose observables this one reproduces. The
/// encoder-gated row (`oracle` false: the cache and the DB accept on keys, as
/// in Figs 15/16) was recorded with the engine that encoded every chunk's key
/// before its cache lookup. A change that moves them changed behaviour: fix
/// it, do not re-record.
constexpr struct {
  int gpus;
  CacheKind cache;
  bool oracle;
  u64 digest;
} kGolden[] = {
    {1, CacheKind::Private, true, 0x759b996da7149934ull},
    {1, CacheKind::Global, true, 0xd8022f50baf2ed2cull},
    {2, CacheKind::Private, true, 0x48af3a8672338411ull},
    {2, CacheKind::Global, true, 0xa14449ab7f169749ull},
    {1, CacheKind::Private, false, 0x67226de8f2d60441ull},
};

// Every gpus × cache kind × pool width run reproduces its golden digest.
TEST(Concurrency, StageExecutorGoldenDigest) {
  for (const auto& gd : kGolden)
    for (const unsigned threads : {1u, 4u})
      EXPECT_EQ(digest(run_alternating(threads, gd.gpus, gd.cache, gd.oracle)),
                gd.digest)
          << std::hex << "gpus=" << gd.gpus
          << " global=" << (gd.cache == CacheKind::Global)
          << " oracle=" << gd.oracle << " threads=" << threads;
}

// The golden digests' field-by-field companion: for gpus × cache kind, a
// 4-worker run reproduces the serial run's outputs, records, stage done
// times, cache contents, DB entries and counters — naming the first field
// that moved when a digest does.
TEST(Concurrency, CrossStageDeterminismMatrix) {
  for (const auto& gd : kGolden) {
    SCOPED_TRACE("gpus=" + std::to_string(gd.gpus) + " global=" +
                 std::to_string(gd.cache == CacheKind::Global) + " oracle=" +
                 std::to_string(gd.oracle));
    const AlternatingRun a = run_alternating(1, gd.gpus, gd.cache, gd.oracle);
    // The mixed passes must really mix outcomes or the matrix is vacuous.
    u64 hits = 0, misses = 0;
    for (const auto& recs : a.recs)
      for (const auto& r : recs) {
        hits += r.outcome == MemoOutcome::DbHit ||
                r.outcome == MemoOutcome::CacheHit;
        misses += r.outcome == MemoOutcome::Miss;
      }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);

    const AlternatingRun b = run_alternating(4, gd.gpus, gd.cache, gd.oracle);
    ASSERT_EQ(a.outs.size(), b.outs.size());
    for (std::size_t p = 0; p < a.outs.size(); ++p) {
      for (i64 i = 0; i < a.outs[p].size(); ++i)
        ASSERT_EQ(a.outs[p].data()[i], b.outs[p].data()[i]) << "pass " << p;
      ASSERT_EQ(a.recs[p].size(), b.recs[p].size());
      for (std::size_t i = 0; i < a.recs[p].size(); ++i) {
        EXPECT_EQ(int(a.recs[p][i].outcome), int(b.recs[p][i].outcome));
        EXPECT_EQ(a.recs[p][i].encode_s, b.recs[p][i].encode_s);
        EXPECT_EQ(a.recs[p][i].db_s, b.recs[p][i].db_s);
        EXPECT_EQ(a.recs[p][i].compute_s, b.recs[p][i].compute_s);
        EXPECT_EQ(a.recs[p][i].copy_s, b.recs[p][i].copy_s);
      }
      EXPECT_EQ(a.dones[p], b.dones[p]);
    }
    EXPECT_EQ(a.cache_fps, b.cache_fps);
    EXPECT_EQ(a.db_entries, b.db_entries);
    EXPECT_EQ(a.counters.miss, b.counters.miss);
    EXPECT_EQ(a.counters.db_hit, b.counters.db_hit);
    EXPECT_EQ(a.counters.cache_hit, b.counters.cache_hit);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t e = 0; e < a.entries.size(); ++e) {
      EXPECT_EQ(int(a.entries[e].kind), int(b.entries[e].kind)) << e;
      EXPECT_EQ(a.entries[e].key, b.entries[e].key) << e;
      EXPECT_EQ(a.entries[e].value, b.entries[e].value) << e;
    }
  }
}

// Tracing joins the bit-identity contract: with the obs trace recorder on
// (rings filling from every pool thread), the kind-alternating workload
// still reproduces its untraced golden digest at every pool width. Under
// TSan this also hammers the recorder's ring registration/push/drain paths
// from the worker threads.
TEST(Concurrency, TraceOnOffBitIdentityMatrix) {
  auto& rec = obs::TraceRecorder::instance();
  for (const unsigned threads : {1u, 4u}) {
    rec.enable();
    const u64 got = digest(run_alternating(threads, 1, CacheKind::Private));
    rec.disable();
    rec.clear();
    EXPECT_EQ(got, kGolden[0].digest) << "threads=" << threads;
  }
}

// Lazy keys: under oracle similarity the local cache decides on the pooled
// probe and the norm alone, so pool workers encode a key only for a chunk the
// cache missed (its DB query, cache refill and insertion read it). An all-hit
// stage encodes nothing and a mixed stage exactly its cache misses. The
// encoder-gated cache compares keys and a cacheless layer sends every chunk
// to the DB, so both encode every chunk.
TEST(Concurrency, CacheHitNeverEncodes) {
  const lamino::Operators ops{lamino::Geometry::cube(10)};
  const auto& g = ops.geometry();
  const auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 9));
  Array3D<cfloat> churn(g.object_shape());
  {
    Rng rng(77);
    for (i64 i = 0; i < churn.size(); ++i)
      churn.data()[i] = cfloat(float(rng.normal()), float(rng.normal()));
  }
  const auto chunks = lamino::make_chunks(g.n1, 2);
  const u64 n = chunks.size();
  auto& encoded = obs::metrics().counter("memo.keys_encoded");
  const struct {
    bool oracle;
    CacheKind cache;
  } modes[] = {{true, CacheKind::Private},
               {false, CacheKind::Private},
               {true, CacheKind::None}};
  for (const auto& m : modes) {
    SCOPED_TRACE("oracle=" + std::to_string(m.oracle) +
                 " cache=" + std::to_string(int(m.cache)));
    const bool lazy = m.oracle && m.cache != CacheKind::None;
    sim::Device dev{0};
    sim::Interconnect net;
    sim::MemoryNode node;
    MemoDb db{{.key_dim = 16, .tau = 0.92,
               .ivf = {.nlist = 2, .train_size = 8}},
              &net, &node};
    MemoizedLamino ml(ops,
                      {.enable = true, .tau = 0.92, .cache = m.cache,
                       .key_dim = 16, .encoder_hw = 16,
                       .oracle_similarity = m.oracle},
                      &dev, &db);
    ThreadPool pool(4);
    ml.set_pool(&pool);
    Array3D<cfloat> out(g.u1_shape());
    // A cold pass (every chunk misses the cache), the same inputs again
    // (all cache hits where a cache exists), then odd chunks on fresh churn.
    enum Pass { Cold, Warm, Mixed };
    for (const Pass pass : {Cold, Warm, Mixed}) {
      SCOPED_TRACE("pass " + std::to_string(int(pass)));
      std::vector<StageChunk> w;
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const auto& spec = chunks[c];
        const auto& in = (pass == Mixed && c % 2 == 1) ? churn : u;
        w.push_back({spec, in.slices(spec.begin, spec.count),
                     out.slices(spec.begin, spec.count)});
      }
      const u64 before = encoded.value();
      const auto rep = ml.run_stage(OpKind::Fu1D, w, 0.0);
      u64 cache_misses = 0;
      for (const auto& r : rep.records)
        cache_misses += r.outcome != MemoOutcome::CacheHit;
      EXPECT_EQ(encoded.value() - before, lazy ? cache_misses : n);
      if (m.cache == CacheKind::None) continue;
      if (pass == Warm) {
        EXPECT_EQ(cache_misses, 0u);
      }
      if (pass == Mixed) {
        EXPECT_GT(cache_misses, 0u);
        EXPECT_LT(cache_misses, n);
      }
    }
  }
}

// search_batch must be result- and count-equivalent to looping search, for
// every index type and any pool width.
TEST(Concurrency, SearchBatchMatchesLoopedSearch) {
  constexpr i64 kDim = 12;
  constexpr i64 kAdds = 200;
  constexpr i64 kQueries = 64;
  constexpr i64 kK = 3;
  auto fill = [&](ann::Index& idx, u64 seed) {
    Rng rng(seed);
    for (i64 i = 0; i < kAdds; ++i) {
      std::vector<float> v(static_cast<size_t>(kDim));
      for (auto& x : v) x = float(rng.normal());
      idx.add(u64(i), v);
    }
  };
  std::vector<float> queries(static_cast<size_t>(kQueries * kDim));
  {
    Rng rng(55);
    for (auto& x : queries) x = float(rng.normal());
  }
  ThreadPool pool(4);
  auto check = [&](ann::Index& a, ann::Index& b, const char* name) {
    SCOPED_TRACE(name);
    fill(a, 7);
    fill(b, 7);
    ASSERT_EQ(a.distance_evals(), b.distance_evals());
    auto batched = a.search_batch(queries, kK, &pool);
    std::vector<std::vector<ann::Neighbor>> looped;
    for (i64 q = 0; q < kQueries; ++q)
      looped.push_back(b.search(
          {queries.data() + size_t(q * kDim), size_t(kDim)}, kK));
    ASSERT_EQ(batched.size(), looped.size());
    for (std::size_t q = 0; q < batched.size(); ++q) {
      ASSERT_EQ(batched[q].size(), looped[q].size()) << q;
      for (std::size_t j = 0; j < batched[q].size(); ++j) {
        EXPECT_EQ(batched[q][j].id, looped[q][j].id) << q;
        EXPECT_EQ(batched[q][j].dist, looped[q][j].dist) << q;
      }
    }
    // Per-query accumulation must not lose or double-count evaluations.
    EXPECT_EQ(a.distance_evals(), b.distance_evals());
  };
  {
    ann::FlatIndex a(kDim), b(kDim);
    check(a, b, "flat");
  }
  {
    ann::IvfFlatIndex a(kDim, {.nlist = 4, .train_size = 32});
    ann::IvfFlatIndex b(kDim, {.nlist = 4, .train_size = 32});
    check(a, b, "ivf");
  }
  {
    ann::NswIndex a(kDim), b(kDim);
    check(a, b, "nsw");
  }
}

// Concurrent batched searches against one shared index: the satellite data
// race on dist_evals_ (mutated from const search paths) is fixed — counts
// must survive exactly.
TEST(Concurrency, SharedIndexParallelSearchCountsEveryEval) {
  constexpr i64 kDim = 8;
  ann::FlatIndex idx(kDim);
  Rng rng(3);
  for (i64 i = 0; i < 64; ++i) {
    std::vector<float> v(static_cast<size_t>(kDim));
    for (auto& x : v) x = float(rng.normal());
    idx.add(u64(i), v);
  }
  const u64 before = idx.distance_evals();
  std::vector<float> queries(size_t(128 * kDim));
  for (auto& x : queries) x = float(rng.normal());
  ThreadPool pool(8);
  (void)idx.search_batch(queries, 1, &pool);
  // Flat search evaluates every resident vector once per query.
  EXPECT_EQ(idx.distance_evals() - before, u64(128 * 64));
}

// Four threads encode distinct chunks on one shared encoder, each pass in a
// shifted order, so calls of every chunk shape interleave on every thread's
// per-thread kernel scratch. Every key must be bit-identical to a serial
// pass.
TEST(Concurrency, ConcurrentQuantizedEncodesMatchSerial) {
  encoder::CnnEncoder enc;
  std::vector<std::vector<cfloat>> train;
  for (u64 i = 0; i < 4; ++i) train.push_back(random_value(32 * 32, 50 + i));
  (void)enc.train(train, 32, 32, 4);
  enc.quantize();
  struct Chunk {
    i64 rows, cols;
    std::vector<cfloat> data;
  };
  constexpr int kWorkers = 4, kPerWorker = 4, kPasses = 3;
  const std::pair<i64, i64> shapes[] = {{32, 32}, {12, 12}, {12, 40}, {5, 7}};
  std::vector<Chunk> chunks;
  for (int i = 0; i < kWorkers * kPerWorker; ++i) {
    const auto [r, c] = shapes[i / kWorkers];
    chunks.push_back({r, c, random_value(r * c, u64(100 + i))});
  }
  std::vector<std::vector<float>> serial;
  for (const auto& c : chunks)
    serial.push_back(enc.encode_quantized({c.rows, c.cols, c.data}));

  std::vector<std::vector<float>> keys(kPasses * chunks.size());
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w)
    workers.emplace_back([&, w] {
      for (int pass = 0; pass < kPasses; ++pass)
        for (int j = 0; j < kPerWorker; ++j) {
          const auto i = size_t(((j + pass) % kPerWorker) * kWorkers + w);
          const auto& c = chunks[i];
          keys[size_t(pass) * chunks.size() + i] =
              enc.encode_quantized({c.rows, c.cols, c.data});
        }
    });
  for (auto& t : workers) t.join();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto& want = serial[k % chunks.size()];
    ASSERT_EQ(keys[k].size(), want.size()) << "key " << k;
    EXPECT_EQ(std::memcmp(keys[k].data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "pass " << k / chunks.size() << " chunk " << k % chunks.size();
  }
}

// Two threads each train their own encoder, both fanning every step out on
// one shared 4-worker pool, so the two encoders' layer kernels interleave on
// every worker's scratch. Each must end with exactly the loss, weights and
// INT8 keys of a serial run (a one-worker pool trains on its caller).
TEST(Concurrency, ConcurrentTrainingMatchesSerial) {
  struct Run {
    std::vector<std::vector<cfloat>> samples;
    double loss = 0;
    u64 digest = 0;
  };
  const auto train = [](Run& r, ThreadPool& pool) {
    encoder::CnnEncoder enc;
    r.loss = enc.train(r.samples, 32, 32, 24, 19, pool);
    enc.quantize();
    u64 h = kFnvOffsetBasis;
    const auto fold = [&h](const std::vector<float>& v) {
      h = fnv1a(h, v.data(), v.size() * sizeof(float));
    };
    for (const auto* c : {&enc.conv1(), &enc.conv2()}) {
      fold(c->w);
      fold(c->b);
    }
    fold(enc.fc().w);
    fold(enc.fc().b);
    for (const auto& s : r.samples) fold(enc.encode_quantized({32, 32, s}));
    r.digest = h;
  };
  std::vector<Run> serial(2), shared(2);
  for (std::size_t i = 0; i < 2; ++i)
    for (u64 j = 0; j < 5; ++j) {
      serial[i].samples.push_back(random_value(32 * 32, 400 + 10 * i + j));
      shared[i].samples = serial[i].samples;
    }
  ThreadPool one(1);
  for (auto& r : serial) train(r, one);
  ASSERT_NE(serial[0].digest, serial[1].digest);

  ThreadPool pool(4);
  std::thread other([&] { train(shared[1], pool); });
  train(shared[0], pool);
  other.join();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(std::memcmp(&shared[i].loss, &serial[i].loss, sizeof(double)), 0)
        << "encoder " << i;
    EXPECT_EQ(shared[i].digest, serial[i].digest) << "encoder " << i;
  }
}

// Four threads run all four F_u*D chunk kernels of one shared Operators on
// distinct chunks, each thread starting each pass at a different kernel, so
// the per-thread batch grids, transposed copies and Bluestein scratch
// (n = 12: every fine grid is non-pow2) serve every kernel from several
// threads at once. Outputs must match a serial pass bit for bit.
TEST(Concurrency, ConcurrentOperatorChunksMatchSerial) {
  const lamino::Operators ops(lamino::Geometry::cube(12));
  const auto& g = ops.geometry();
  constexpr int kWorkers = 4, kKernels = 4, kPasses = 3;
  const auto chunks = lamino::make_chunks(g.n1, 3);  // n1 = h: 4 chunks
  ASSERT_EQ(chunks.size(), size_t(kWorkers));
  // Per-slice input and output sizes of fu1d, fu1d_adj, fu2d, fu2d_adj.
  const i64 slab = g.n0 * g.n2, u1 = g.h * g.n2, plane = g.n1 * g.n2,
            proj = g.ntheta * g.w;
  const std::pair<i64, i64> sizes[kKernels] = {
      {slab, u1}, {u1, slab}, {plane, proj}, {proj, plane}};
  struct Job {
    int kernel;
    lamino::ChunkSpec spec;
    std::vector<cfloat> in;
  };
  std::vector<Job> jobs;  // kernel-major: jobs[kernel * kWorkers + chunk]
  for (int k = 0; k < kKernels; ++k)
    for (const auto& c : chunks)
      jobs.push_back({k, c,
                      random_value(c.count * sizes[k].first,
                                   u64(300 + jobs.size()))});
  const auto run = [&](const Job& j) {
    std::vector<cfloat> out(size_t(j.spec.count * sizes[j.kernel].second));
    switch (j.kernel) {
      case 0: ops.fu1d_chunk(j.spec, j.in, out); break;
      case 1: ops.fu1d_adj_chunk(j.spec, j.in, out); break;
      case 2: ops.fu2d_chunk(j.spec, j.in, out); break;
      default: ops.fu2d_adj_chunk(j.spec, j.in, out); break;
    }
    return out;
  };
  std::vector<std::vector<cfloat>> serial;
  for (const auto& j : jobs) serial.push_back(run(j));

  std::vector<std::vector<cfloat>> outs(kPasses * jobs.size());
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w)
    workers.emplace_back([&, w] {
      for (int pass = 0; pass < kPasses; ++pass)
        for (int j = 0; j < kKernels; ++j) {
          const auto i = size_t(((j + pass + w) % kKernels) * kWorkers + w);
          outs[size_t(pass) * jobs.size() + i] = run(jobs[i]);
        }
    });
  for (auto& t : workers) t.join();
  for (std::size_t k = 0; k < outs.size(); ++k) {
    const auto& want = serial[k % jobs.size()];
    ASSERT_EQ(outs[k].size(), want.size()) << "output " << k;
    EXPECT_EQ(std::memcmp(outs[k].data(), want.data(),
                          want.size() * sizeof(cfloat)),
              0)
        << "pass " << k / jobs.size() << " job " << k % jobs.size();
  }
}

}  // namespace
}  // namespace mlr::memo
