// Concurrency tests for the batched stage-execution engine's shared state:
// the memoization caches and the KvStore are hammered from many threads and
// must neither lose counter updates nor corrupt entries; the StageExecutor
// must produce bit-identical results, records, cache contents and virtual
// times for any pool width AND any overlap_slices setting (the async sliced
// MemoDb service); ann::Index::search_batch must match looped search; keys
// encoded and operator chunks computed concurrently by pool workers must
// match a serial pass.
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
#include "kvstore/kvstore.hpp"
#include "lamino/operators.hpp"
#include "lamino/phantom.hpp"
#include "memo/memo_cache.hpp"
#include "memo/memoized_ops.hpp"
#include "memo/stage_executor.hpp"
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

TEST(Concurrency, ShardedGlobalCacheParallelLookupInsert) {
  GlobalCache cache(64, /*shards=*/8);
  EXPECT_EQ(cache.shards(), 8);
  hammer_cache(cache, 8, 2000, 64);
}

TEST(Concurrency, ShardedGlobalCacheKeepsSameLocationSharing) {
  // Sharding must not break the contract that a location can re-hit the
  // entry it inserted.
  GlobalCache cache(64, /*shards=*/8);
  for (i64 loc = 0; loc < 32; ++loc)
    cache.insert(OpKind::Fu2D, loc, unit_key(16, loc),
                 random_value(8, u64(loc)), 1.0);
  for (i64 loc = 0; loc < 32; ++loc)
    EXPECT_TRUE(
        cache.lookup(OpKind::Fu2D, loc, unit_key(16, loc), 0.9).has_value())
        << "location " << loc;
}

TEST(Concurrency, KvStoreParallelGetAsyncPut) {
  kvstore::KvStore store(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 1000;
  std::vector<std::thread> workers;
  std::atomic<u64> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(u64(7 + t));
      for (int r = 0; r < kRounds; ++r) {
        const u64 key = u64(rng.uniform_int(0, 255));
        if (rng.uniform() < 0.5) {
          // Every blob for `key` holds key-derived bytes — torn or
          // cross-keyed reads are detectable.
          kvstore::Blob b(64, std::byte(key & 0xff));
          store.put_async(key, std::move(b));
        } else {
          auto got = store.get(key);
          if (got.has_value()) {
            for (const auto byte : *got) {
              if (byte != std::byte(key & 0xff)) {
                mismatches.fetch_add(1);
                break;
              }
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  store.drain();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(store.size(), 256u);
  // bytes() must agree with the surviving entries (no double counting).
  EXPECT_EQ(store.bytes(), store.size() * 64u);
}

TEST(Concurrency, PoolScopedParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, 0, 1000, [&](i64 i) { touched[size_t(i)]++; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

// The engine contract: identical numerics AND identical virtual-clock
// schedule for any pool width.
TEST(Concurrency, StageExecutorDeterministicAcrossPoolWidths) {
  lamino::Operators ops{lamino::Geometry::cube(8)};
  const auto& g = ops.geometry();
  auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 9));
  auto chunks = lamino::make_chunks(g.n1, 2);

  auto run_with_pool = [&](unsigned threads, Array3D<cfloat>& out1,
                           Array3D<cfloat>& out2) {
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
    ml.executor().set_pool(&pool);
    auto make_work = [&](Array3D<cfloat>& dst) {
      std::vector<StageChunk> w;
      for (const auto& spec : chunks)
        w.push_back({spec, u.slices(spec.begin, spec.count),
                     dst.slices(spec.begin, spec.count)});
      return w;
    };
    auto w1 = make_work(out1);
    auto rep1 = ml.run_stage(OpKind::Fu1D, w1, 0.0);  // all misses
    auto w2 = make_work(out2);
    auto rep2 = ml.run_stage(OpKind::Fu1D, w2, rep1.done);  // all hits
    return std::pair{rep1.done, rep2.done};
  };

  Array3D<cfloat> s1(g.u1_shape()), s2(g.u1_shape());
  Array3D<cfloat> p1(g.u1_shape()), p2(g.u1_shape());
  const auto [s_done1, s_done2] = run_with_pool(1, s1, s2);
  const auto [p_done1, p_done2] = run_with_pool(4, p1, p2);
  // Bit-identical outputs…
  for (i64 i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s1.data()[i], p1.data()[i]);
    ASSERT_EQ(s2.data()[i], p2.data()[i]);
  }
  // …and bit-identical virtual times.
  EXPECT_EQ(s_done1, p_done1);
  EXPECT_EQ(s_done2, p_done2);
}

// The async-service contract: for every overlap_slices setting and pool
// width, outputs, per-chunk records, cache FIFO contents and virtual times
// are bit-identical to the barriered overlap_slices = 0 path.
TEST(Concurrency, StageExecutorDeterministicAcrossOverlapSlices) {
  // cube(10) with chunk size 2 yields 5 chunks → 5 DB requests: a count
  // that does NOT divide evenly into 2, 4 or 8 slices, so the ragged-tail
  // partition (ceil-sized slices leaving trailing cuts empty) is exercised.
  lamino::Operators ops{lamino::Geometry::cube(10)};
  const auto& g = ops.geometry();
  auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 9));
  // Churn volume: odd chunks of the second pass read from here, so that
  // pass mixes DB hits (even chunks) with misses (odd chunks) — the
  // workload the sliced pipeline actually reorders in wall-clock time.
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
  auto run_cfg = [&](unsigned threads, i64 overlap) {
    Run run{Array3D<cfloat>(g.u1_shape()), Array3D<cfloat>(g.u1_shape()),
            {}, {}, 0, 0, 0, 0};
    sim::Device dev{0};
    sim::Interconnect net;
    sim::MemoryNode node;
    MemoDb db{{.key_dim = 16, .tau = 0.92, .overlap_slices = overlap,
               .ivf = {.nlist = 2, .train_size = 8}},
              &net, &node};
    MemoizedLamino ml(ops, {.enable = true, .tau = 0.92, .key_dim = 16,
                            .encoder_hw = 16},
                      &dev, &db);
    ThreadPool pool(threads);
    ml.executor().set_pool(&pool);
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

  const Run ref = run_cfg(1, 0);  // serial, barriered — the legacy path
  // The mixed pass must really mix outcomes or the overlap test is vacuous.
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
  for (const unsigned threads : {1u, 4u}) {
    for (const i64 overlap : {i64(0), i64(2), i64(4), i64(8)}) {
      const Run got = run_cfg(threads, overlap);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " overlap=" + std::to_string(overlap));
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
}

// The cross-stage pipeline contract: outputs, per-chunk records, cache FIFO
// contents, DB entry counts and virtual times are bit-identical to the
// serial / barriered / per-stage-barrier reference for EVERY pipeline_depth
// × overlap_slices × threads × gpus combination. The stage sequence
// alternates operator kinds (Fu1D / Fu1DAdj) like the real ADMM loop —
// exactly the adjacency whose tail/probe overlap the pipeline exploits —
// and the mixed passes interleave DB hits with fresh-churn misses.
TEST(Concurrency, PipelinedCrossStageDeterminismMatrix) {
  lamino::Operators ops{lamino::Geometry::cube(10)};
  const auto& g = ops.geometry();
  auto u = lamino::to_complex(lamino::make_phantom(
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
  auto chunks = lamino::make_chunks(g.n1, 2);  // 5 chunks: ragged slices

  struct Run {
    std::vector<Array3D<cfloat>> outs;
    std::vector<std::vector<ChunkRecord>> recs;
    std::vector<sim::VTime> dones;
    u64 cache_fp = 0;
    u64 db_entries = 0;
    MemoCounters counters;
  };
  auto run_cfg = [&](unsigned threads, i64 overlap, i64 depth, int gpus,
                     CacheKind cache_kind, i64 lanes) {
    Run run;
    sim::Interconnect net;
    sim::MemoryNode node;
    MemoDb db{{.key_dim = 16, .tau = 0.92, .overlap_slices = overlap,
               .ivf = {.nlist = 2, .train_size = 8}},
              &net, &node};
    // Wrappers share ONE registry (the multi-GPU configuration) so keys —
    // and therefore hit patterns — match the single-GPU run.
    auto reg = std::make_shared<encoder::EncoderRegistry>(
        encoder::EncoderConfig{.input_hw = 16, .embed_dim = 16});
    std::vector<std::unique_ptr<sim::Device>> devs;
    std::vector<std::unique_ptr<MemoizedLamino>> mls;
    std::vector<MemoizedLamino*> ptrs;
    for (int d = 0; d < gpus; ++d) {
      devs.push_back(std::make_unique<sim::Device>(d));
      mls.push_back(std::make_unique<MemoizedLamino>(
          ops,
          MemoConfig{.enable = true, .tau = 0.92, .cache = cache_kind,
                     .key_dim = 16, .encoder_hw = 16},
          devs.back().get(), &db, reg));
      ptrs.push_back(mls.back().get());
    }
    StageExecutor exec(ptrs);
    ThreadPool pool(threads);
    exec.set_pool(&pool);
    exec.set_pipeline_depth(depth);
    exec.set_tail_lanes(lanes);
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
    // Kind-alternating sequence: miss pass per kind, then mixed passes.
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
      auto rep = exec.run_stage(p.kind, w, t);
      t = rep.done;
      run.recs.push_back(std::move(rep.records));
      run.dones.push_back(t);
    }
    exec.settle();  // close the pipelined round before reading shared state
    u64 fp = kFnvOffsetBasis;
    for (const auto& ml : mls)
      if (ml->cache() != nullptr) fp ^= ml->cache()->fingerprint();
    run.cache_fp = fp;
    run.db_entries = db.total_entries();
    run.counters = exec.counters();
    return run;
  };

  auto expect_same = [](const Run& a, const Run& b) {
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
    EXPECT_EQ(a.cache_fp, b.cache_fp);
    EXPECT_EQ(a.db_entries, b.db_entries);
    EXPECT_EQ(a.counters.miss, b.counters.miss);
    EXPECT_EQ(a.counters.db_hit, b.counters.db_hit);
    EXPECT_EQ(a.counters.cache_hit, b.counters.cache_hit);
  };

  for (const int gpus : {1, 2}) {
    const Run ref = run_cfg(1, 0, 0, gpus, CacheKind::Private, 1);
    // The mixed passes must really mix outcomes or the matrix is vacuous.
    u64 hits = 0, misses = 0;
    for (const auto& recs : ref.recs)
      for (const auto& r : recs) {
        hits += r.outcome == MemoOutcome::DbHit ||
                r.outcome == MemoOutcome::CacheHit;
        misses += r.outcome == MemoOutcome::Miss;
      }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    for (const unsigned threads : {1u, 4u}) {
      for (const i64 overlap : {i64(0), i64(4)}) {
        for (const i64 depth : {i64(0), i64(2), i64(4)}) {
          // Tail lanes only matter when the pipeline defers tails; depth 0
          // drains inline, so one lane value suffices there.
          for (const i64 lanes : depth == 0 ? std::vector<i64>{1}
                                            : std::vector<i64>{1, 2, 4}) {
            SCOPED_TRACE("gpus=" + std::to_string(gpus) +
                         " threads=" + std::to_string(threads) +
                         " overlap=" + std::to_string(overlap) +
                         " depth=" + std::to_string(depth) +
                         " lanes=" + std::to_string(lanes));
            expect_same(ref, run_cfg(threads, overlap, depth, gpus,
                                     CacheKind::Private, lanes));
          }
        }
      }
    }
  }

  // Kind-coupled cache (GlobalCache FIFO eviction crosses kinds): the
  // engine must fall back to a full settle at stage entry AND pin every
  // tail to lane 0 (cross-kind FIFO order) — bit-identical for every depth
  // and every configured lane count.
  {
    const Run ref = run_cfg(1, 0, 0, 1, CacheKind::Global, 1);
    for (const i64 depth : {i64(0), i64(3)}) {
      for (const i64 lanes : {i64(1), i64(4)}) {
        SCOPED_TRACE("global-cache depth=" + std::to_string(depth) +
                     " lanes=" + std::to_string(lanes));
        expect_same(ref, run_cfg(4, 4, depth, 1, CacheKind::Global, lanes));
      }
    }
  }
}

// Tracing joins the bit-identity matrix: enabling the obs trace recorder
// (rings filling from every pool/drainer thread) must not perturb outputs,
// per-chunk records, cache fingerprints, DB entry counts or virtual times
// for any threads × lanes combination. Runs with recording ON are compared
// against the untraced serial reference — under TSan this also hammers the
// recorder's ring registration/push/drain paths from the worker threads.
TEST(Concurrency, TraceOnOffBitIdentityMatrix) {
  lamino::Operators ops{lamino::Geometry::cube(10)};
  const auto& g = ops.geometry();
  auto u = lamino::to_complex(lamino::make_phantom(
      g.object_shape(), lamino::PhantomKind::BrainTissue, 9));
  Array3D<cfloat> base_u1(g.u1_shape());
  Array3D<cfloat> churn_obj(g.object_shape()), churn_u1(g.u1_shape());
  {
    Rng rng(78);
    auto fill = [&rng](Array3D<cfloat>& a) {
      for (i64 i = 0; i < a.size(); ++i)
        a.data()[i] = cfloat(float(rng.normal()), float(rng.normal()));
    };
    fill(base_u1);
    fill(churn_obj);
    fill(churn_u1);
  }
  auto chunks = lamino::make_chunks(g.n1, 2);

  struct Run {
    std::vector<Array3D<cfloat>> outs;
    std::vector<std::vector<ChunkRecord>> recs;
    std::vector<sim::VTime> dones;
    u64 cache_fp = 0;
    u64 db_entries = 0;
  };
  auto run_cfg = [&](unsigned threads, i64 lanes, bool traced) {
    auto& rec = obs::TraceRecorder::instance();
    if (traced) rec.enable();
    Run run;
    sim::Device dev{0};
    sim::Interconnect net;
    sim::MemoryNode node;
    MemoDb db{{.key_dim = 16, .tau = 0.92, .overlap_slices = 4,
               .ivf = {.nlist = 2, .train_size = 8}},
              &net, &node};
    MemoizedLamino ml(ops, {.enable = true, .tau = 0.92, .key_dim = 16,
                            .encoder_hw = 16},
                      &dev, &db);
    ThreadPool pool(threads);
    ml.executor().set_pool(&pool);
    ml.executor().set_pipeline_depth(2);
    ml.executor().set_tail_lanes(lanes);
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
                  {OpKind::Fu1DAdj, true}};
    sim::VTime t = 0;
    for (const auto& p : passes) {
      run.outs.emplace_back(p.kind == OpKind::Fu1DAdj ? g.object_shape()
                                                      : g.u1_shape());
      auto w = make_work(p.kind, run.outs.back(), p.mixed);
      auto rep = ml.executor().run_stage(p.kind, w, t);
      t = rep.done;
      run.recs.push_back(std::move(rep.records));
      run.dones.push_back(t);
    }
    ml.executor().settle();
    run.cache_fp = ml.cache() != nullptr ? ml.cache()->fingerprint() : 0;
    run.db_entries = db.total_entries();
    if (traced) {
      rec.disable();
      rec.clear();
    }
    return run;
  };

  const Run ref = run_cfg(1, 1, /*traced=*/false);
  for (const unsigned threads : {1u, 4u}) {
    for (const i64 lanes : {i64(1), i64(4)}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " lanes=" + std::to_string(lanes));
      const Run got = run_cfg(threads, lanes, /*traced=*/true);
      ASSERT_EQ(ref.outs.size(), got.outs.size());
      for (std::size_t p = 0; p < ref.outs.size(); ++p) {
        for (i64 i = 0; i < ref.outs[p].size(); ++i)
          ASSERT_EQ(ref.outs[p].data()[i], got.outs[p].data()[i])
              << "pass " << p;
        ASSERT_EQ(ref.recs[p].size(), got.recs[p].size());
        for (std::size_t i = 0; i < ref.recs[p].size(); ++i) {
          EXPECT_EQ(int(ref.recs[p][i].outcome), int(got.recs[p][i].outcome));
          EXPECT_EQ(ref.recs[p][i].encode_s, got.recs[p][i].encode_s);
          EXPECT_EQ(ref.recs[p][i].db_s, got.recs[p][i].db_s);
          EXPECT_EQ(ref.recs[p][i].compute_s, got.recs[p][i].compute_s);
          EXPECT_EQ(ref.recs[p][i].copy_s, got.recs[p][i].copy_s);
        }
        EXPECT_EQ(ref.dones[p], got.dones[p]);
      }
      EXPECT_EQ(ref.cache_fp, got.cache_fp);
      EXPECT_EQ(ref.db_entries, got.db_entries);
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

// Four pool workers encode distinct chunks on one shared encoder, each pass
// in a shifted order, so calls of every chunk shape interleave on every
// worker's per-thread kernel scratch. Every key must be bit-identical to a
// serial pass.
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
  ThreadPool pool(kWorkers);
  for (int w = 0; w < kWorkers; ++w)
    pool.submit([&, w] {
      for (int pass = 0; pass < kPasses; ++pass)
        for (int j = 0; j < kPerWorker; ++j) {
          const auto i = size_t(((j + pass) % kPerWorker) * kWorkers + w);
          const auto& c = chunks[i];
          keys[size_t(pass) * chunks.size() + i] =
              enc.encode_quantized({c.rows, c.cols, c.data});
        }
    });
  pool.wait_idle();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto& want = serial[k % chunks.size()];
    ASSERT_EQ(keys[k].size(), want.size()) << "key " << k;
    EXPECT_EQ(std::memcmp(keys[k].data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "pass " << k / chunks.size() << " chunk " << k % chunks.size();
  }
}

// Four pool workers run all four F_u*D chunk kernels of one shared
// Operators on distinct chunks, each worker starting each pass at a
// different kernel, so the per-thread batch grids, transposed copies and
// Bluestein scratch (n = 12: every fine grid is non-pow2) serve every
// kernel from several threads at once. Outputs must match a serial pass
// bit for bit.
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
  ThreadPool pool(kWorkers);
  for (int w = 0; w < kWorkers; ++w)
    pool.submit([&, w] {
      for (int pass = 0; pass < kPasses; ++pass)
        for (int j = 0; j < kKernels; ++j) {
          const auto i = size_t(((j + pass + w) % kKernels) * kWorkers + w);
          outs[size_t(pass) * jobs.size() + i] = run(jobs[i]);
        }
    });
  pool.wait_idle();
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
