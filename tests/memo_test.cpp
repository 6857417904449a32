// Tests for the distributed memoization system: DB insert/query semantics,
// τ gating, coalescing, private vs global cache behaviour, and the memoized
// operator wrapper (exactness on miss, genuine reuse on hit).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "lamino/phantom.hpp"
#include "memo/memo_cache.hpp"
#include "memo/memo_db.hpp"
#include "memo/memoized_ops.hpp"

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

struct DbFixture {
  sim::Interconnect net;
  sim::MemoryNode node;
  MemoDb db;
  explicit DbFixture(MemoDbConfig cfg = {.key_dim = 8,
                                         .tau = 0.9,
                                         .ivf = {.nlist = 2, .train_size = 4}})
      : db(cfg, &net, &node) {}
};

TEST(MemoDb, MissOnEmpty) {
  DbFixture f;
  QueryRequest rq{OpKind::Fu1D, unit_key(8, 0)};
  auto replies = f.db.query_batch(std::vector<QueryRequest>{rq}, 0.0);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].hit);
  EXPECT_GT(replies[0].value_ready, 0.0);  // lookup latency still charged
}

TEST(MemoDb, InsertThenExactHit) {
  DbFixture f;
  auto key = unit_key(8, 3);
  auto value = random_value(64, 1);
  f.db.insert(OpKind::Fu1D, key, value, 0.0);
  auto replies = f.db.query_batch(
      std::vector<QueryRequest>{{OpKind::Fu1D, key}}, 1.0);
  ASSERT_TRUE(replies[0].hit);
  EXPECT_NEAR(replies[0].cosine, 1.0, 1e-6);
  ASSERT_EQ(replies[0].value.size(), value.size());
  for (std::size_t i = 0; i < value.size(); ++i)
    EXPECT_EQ(replies[0].value[i], value[i]);
}

TEST(MemoDb, TauGatesDissimilarKeys) {
  DbFixture f;
  f.db.insert(OpKind::Fu1D, unit_key(8, 0), random_value(16, 2), 0.0);
  // Orthogonal key: cosine 0 < τ → miss even though a nearest neighbour
  // exists.
  auto replies = f.db.query_batch(
      std::vector<QueryRequest>{{OpKind::Fu1D, unit_key(8, 1)}}, 1.0);
  EXPECT_FALSE(replies[0].hit);
}

TEST(MemoDb, OpKindsAreIsolated) {
  DbFixture f;
  auto key = unit_key(8, 2);
  f.db.insert(OpKind::Fu1D, key, random_value(16, 3), 0.0);
  auto replies = f.db.query_batch(
      std::vector<QueryRequest>{{OpKind::Fu2D, key}}, 1.0);
  EXPECT_FALSE(replies[0].hit);
  EXPECT_EQ(f.db.entries(OpKind::Fu1D), 1u);
  EXPECT_EQ(f.db.entries(OpKind::Fu2D), 0u);
}

TEST(MemoDb, NearDuplicateKeyHits) {
  DbFixture f;
  auto key = unit_key(8, 0);
  f.db.insert(OpKind::Fu2D, key, random_value(16, 4), 0.0);
  auto probe = key;
  probe[1] = 0.05f;  // tiny perturbation, cosine ≈ 0.9988
  auto replies = f.db.query_batch(
      std::vector<QueryRequest>{{OpKind::Fu2D, probe}}, 1.0);
  ASSERT_TRUE(replies[0].hit);
  EXPECT_GT(replies[0].cosine, 0.99);
}

TEST(MemoDb, CoalescingReducesMessageCount) {
  MemoDbConfig with{.key_dim = 60, .tau = 0.9, .coalesce = true};
  MemoDbConfig without{.key_dim = 60, .tau = 0.9, .coalesce = false};
  sim::Interconnect net1, net2;
  sim::MemoryNode n1, n2;
  MemoDb a(with, &net1, &n1), b(without, &net2, &n2);
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 32; ++i) reqs.push_back({OpKind::Fu1D, unit_key(60, i)});
  (void)a.query_batch(reqs, 0.0);
  (void)b.query_batch(reqs, 0.0);
  // 60-d float keys = 240 B → 17 keys per 4 KB message → 2 messages vs 32.
  EXPECT_LT(a.messages_sent(), 4u);
  EXPECT_EQ(b.messages_sent(), 32u);
}

TEST(MemoDb, TimingAccumulates) {
  DbFixture f;
  f.db.insert(OpKind::Fu1D, unit_key(8, 0), random_value(512, 5), 0.0);
  (void)f.db.query_batch(
      std::vector<QueryRequest>{{OpKind::Fu1D, unit_key(8, 0)}}, 1.0);
  EXPECT_GT(f.db.timing().search_s, 0.0);
  EXPECT_GT(f.db.timing().comm_s, 0.0);
  EXPECT_GT(f.db.timing().value_serve_s, 0.0);
  EXPECT_EQ(f.db.timing().query_latency_us.count(), 1u);
}

TEST(MemoDb, AsyncInsertDoesNotBlock) {
  DbFixture f;
  // Insert returns immediately in host terms; the value must still become
  // visible for subsequent queries.
  for (int i = 0; i < 10; ++i)
    f.db.insert(OpKind::Fu1D, unit_key(8, i), random_value(32, u64(i)), 0.0);
  EXPECT_EQ(f.db.entries(OpKind::Fu1D), 10u);
  EXPECT_EQ(f.db.total_entries(), 10u);
}

// ---------------------------------------------------------------------------
// Caches.

TEST(PrivateCache, OneComparisonPerLookup) {
  PrivateCache cache(16);
  auto key = unit_key(8, 0);
  auto val = random_value(8, 6);
  cache.insert(OpKind::Fu2D, 3, key, val);
  (void)cache.lookup(OpKind::Fu2D, 3, key, 0.9);
  EXPECT_EQ(cache.stats().comparisons, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Lookup at an empty location costs zero comparisons.
  (void)cache.lookup(OpKind::Fu2D, 4, key, 0.9);
  EXPECT_EQ(cache.stats().comparisons, 1u);
}

TEST(PrivateCache, LocationIsolation) {
  PrivateCache cache(8);
  cache.insert(OpKind::Fu1D, 0, unit_key(8, 0), random_value(4, 7));
  EXPECT_FALSE(cache.lookup(OpKind::Fu1D, 1, unit_key(8, 0), 0.9).has_value());
  EXPECT_TRUE(cache.lookup(OpKind::Fu1D, 0, unit_key(8, 0), 0.9).has_value());
}

TEST(PrivateCache, FifoReplacement) {
  PrivateCache cache(4);
  auto k1 = unit_key(8, 0), k2 = unit_key(8, 1);
  cache.insert(OpKind::Fu1D, 2, k1, random_value(4, 8));
  cache.insert(OpKind::Fu1D, 2, k2, random_value(4, 9));  // replaces
  EXPECT_FALSE(cache.lookup(OpKind::Fu1D, 2, k1, 0.9).has_value());
  EXPECT_TRUE(cache.lookup(OpKind::Fu1D, 2, k2, 0.9).has_value());
}

TEST(PrivateCache, TauGates) {
  PrivateCache cache(4);
  cache.insert(OpKind::Fu1D, 0, unit_key(8, 0), random_value(4, 10));
  auto probe = unit_key(8, 0);
  probe[1] = 1.0f;  // key cosine ≈ 0.707, estimated chunk cosine = 0.5
  EXPECT_FALSE(cache.lookup(OpKind::Fu1D, 0, probe, 0.9).has_value());
  EXPECT_TRUE(cache.lookup(OpKind::Fu1D, 0, probe, 0.45).has_value());
}

TEST(PrivateCache, KindIsolation) {
  PrivateCache cache(4);
  cache.insert(OpKind::Fu1D, 0, unit_key(8, 0), random_value(4, 11));
  EXPECT_FALSE(cache.lookup(OpKind::Fu2D, 0, unit_key(8, 0), 0.9).has_value());
}

TEST(GlobalCache, ScansAllResidentEntries) {
  GlobalCache cache(16);
  for (i64 loc = 0; loc < 8; ++loc)
    cache.insert(OpKind::Fu2D, loc, unit_key(8, loc), random_value(4, u64(loc)));
  (void)cache.lookup(OpKind::Fu2D, 0, unit_key(8, 0), 0.9);
  // One lookup compared against all 8 entries — the 64× overhead the paper
  // measured on its 1K³ dataset scales the same way.
  EXPECT_EQ(cache.stats().comparisons, 8u);
}

TEST(GlobalCache, CrossLocationSharing) {
  GlobalCache cache(16);
  cache.insert(OpKind::Fu2D, 0, unit_key(8, 5), random_value(4, 12));
  // A different location can reuse the entry — the global cache's one upside.
  EXPECT_TRUE(cache.lookup(OpKind::Fu2D, 7, unit_key(8, 5), 0.9).has_value());
}

TEST(GlobalCache, FifoEvictionAtCapacity) {
  GlobalCache cache(2);
  cache.insert(OpKind::Fu1D, 0, unit_key(8, 0), random_value(4, 13));
  cache.insert(OpKind::Fu1D, 1, unit_key(8, 1), random_value(4, 14));
  cache.insert(OpKind::Fu1D, 2, unit_key(8, 2), random_value(4, 15));
  EXPECT_FALSE(cache.lookup(OpKind::Fu1D, 0, unit_key(8, 0), 0.9).has_value());
  EXPECT_TRUE(cache.lookup(OpKind::Fu1D, 2, unit_key(8, 2), 0.9).has_value());
}

// Under oracle similarity a lookup decides on the pooled probe and the norm
// alone, which lets the engine look a chunk up before encoding its key. So an
// empty key with a probe must decide exactly as the full key does: same hits,
// same values, same counters. Key-gated acceptance (no probe) must refuse an
// empty key rather than compare it.
void expect_probe_decides_without_key(MemoCache& with_key, MemoCache& no_key) {
  const auto probe = [](u64 seed) { return random_value(16, seed); };
  for (auto* c : {&with_key, &no_key}) {
    c->insert(OpKind::Fu2D, 1, unit_key(8, 1), random_value(4, 21), 2.0,
              probe(31));
    c->insert(OpKind::Fu2D, 2, unit_key(8, 2), random_value(4, 22), 1.0,
              probe(32));
  }
  auto near = probe(31);
  near[0] += cfloat(0.3f, -0.2f);
  const struct {
    i64 location;
    double tau, norm;
    std::vector<cfloat> probe;
  } queries[] = {
      {1, 0.92, 2.0, probe(31)},   // identical probe and norm
      {1, 0.92, 2.0, near},        // near probe
      {1, 0.999, 2.0, near},       // near probe, strict τ
      {1, 0.92, 1.5, probe(31)},   // norm gate
      {1, 0.92, 2.0, probe(33)},   // unrelated probe
      {2, 0.92, 1.0, probe(32)},   // the other entry
      {3, 0.92, 1.0, probe(32)},   // empty slot (shared pool: a hit)
  };
  for (const auto& q : queries) {
    const auto a = with_key.lookup(OpKind::Fu2D, q.location, unit_key(8, 7),
                                   q.tau, q.norm, q.probe);
    const auto b = no_key.lookup(OpKind::Fu2D, q.location, {}, q.tau, q.norm,
                                 q.probe);
    ASSERT_EQ(a.has_value(), b.has_value()) << "location " << q.location;
    if (a.has_value()) EXPECT_EQ(*a, *b);
  }
  const auto sa = with_key.stats(), sb = no_key.stats();
  EXPECT_EQ(sa.lookups, sb.lookups);
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.comparisons, sb.comparisons);
  EXPECT_GT(sa.hits, 0u);
  EXPECT_LT(sa.hits, sa.lookups);
  EXPECT_THROW((void)no_key.lookup(OpKind::Fu2D, 1, {}, 0.92, 2.0, {}),
               mlr::Error);
}

TEST(PrivateCache, EmptyKeyWithProbeDecidesAsKey) {
  PrivateCache with_key(8), no_key(8);
  expect_probe_decides_without_key(with_key, no_key);
}

TEST(GlobalCache, EmptyKeyWithProbeDecidesAsKey) {
  GlobalCache with_key(8), no_key(8);
  expect_probe_decides_without_key(with_key, no_key);
}

// ---------------------------------------------------------------------------
// MemoizedLamino.

struct WrapperFixture {
  lamino::Operators ops{lamino::Geometry::cube(8)};
  sim::Device dev{0};
  sim::Interconnect net;
  sim::MemoryNode node;
  MemoDb db{{.key_dim = 16, .tau = 0.92, .ivf = {.nlist = 2, .train_size = 8}},
            &net, &node};
};

TEST(MemoizedLamino, DisabledPathMatchesPlainOperators) {
  WrapperFixture f;
  MemoizedLamino ml(f.ops, {.enable = false}, &f.dev, nullptr);
  const auto& g = f.ops.geometry();
  auto u = lamino::to_complex(
      lamino::make_phantom(g.object_shape(), lamino::PhantomKind::BrainTissue, 1));
  Array3D<cfloat> want(g.u1_shape()), got(g.u1_shape());
  f.ops.fu1d(u, want);
  auto chunks = lamino::make_chunks(g.n1, 4);
  std::vector<StageChunk> work;
  for (const auto& spec : chunks)
    work.push_back({spec, u.slices(spec.begin, spec.count),
                    got.slices(spec.begin, spec.count)});
  auto report = ml.run_stage(OpKind::Fu1D, work, 0.0);
  EXPECT_LT(relative_error<cfloat>(want.span(), got.span()), 1e-5);
  EXPECT_GT(report.done, 0.0);
  for (const auto& r : report.records)
    EXPECT_EQ(r.outcome, MemoOutcome::Computed);
}

TEST(MemoizedLamino, FirstPassMissesSecondPassHits) {
  WrapperFixture f;
  MemoizedLamino ml(f.ops, {.enable = true, .tau = 0.92, .key_dim = 16,
                            .encoder_hw = 16},
                    &f.dev, &f.db);
  const auto& g = f.ops.geometry();
  auto u = lamino::to_complex(
      lamino::make_phantom(g.object_shape(), lamino::PhantomKind::BrainTissue, 2));
  Array3D<cfloat> out1(g.u1_shape()), out2(g.u1_shape());
  auto chunks = lamino::make_chunks(g.n1, 4);
  auto make_work = [&](Array3D<cfloat>& dst) {
    std::vector<StageChunk> w;
    for (const auto& spec : chunks)
      w.push_back({spec, u.slices(spec.begin, spec.count),
                   dst.slices(spec.begin, spec.count)});
    return w;
  };
  auto w1 = make_work(out1);
  auto rep1 = ml.run_stage(OpKind::Fu1D, w1, 0.0);
  for (const auto& r : rep1.records) EXPECT_EQ(r.outcome, MemoOutcome::Miss);
  // Identical input again: the private cache serves every chunk.
  auto w2 = make_work(out2);
  auto rep2 = ml.run_stage(OpKind::Fu1D, w2, rep1.done);
  for (const auto& r : rep2.records)
    EXPECT_EQ(r.outcome, MemoOutcome::CacheHit);
  // Reused values are the stored exact results.
  EXPECT_LT(relative_error<cfloat>(out1.span(), out2.span()), 1e-6);
  // And the reuse pass is much faster in virtual time.
  EXPECT_LT(rep2.done - rep1.done, 0.5 * rep1.done);
}

TEST(MemoizedLamino, DbServesWhenCacheDisabled) {
  WrapperFixture f;
  MemoizedLamino ml(f.ops, {.enable = true, .tau = 0.92,
                            .cache = CacheKind::None, .key_dim = 16,
                            .encoder_hw = 16},
                    &f.dev, &f.db);
  const auto& g = f.ops.geometry();
  auto u = lamino::to_complex(
      lamino::make_phantom(g.object_shape(), lamino::PhantomKind::Pcb, 3));
  Array3D<cfloat> out1(g.u1_shape()), out2(g.u1_shape());
  auto chunks = lamino::make_chunks(g.n1, 4);
  std::vector<StageChunk> w1, w2;
  for (const auto& spec : chunks) {
    w1.push_back({spec, u.slices(spec.begin, spec.count),
                  out1.slices(spec.begin, spec.count)});
    w2.push_back({spec, u.slices(spec.begin, spec.count),
                  out2.slices(spec.begin, spec.count)});
  }
  auto rep1 = ml.run_stage(OpKind::Fu1D, w1, 0.0);
  auto rep2 = ml.run_stage(OpKind::Fu1D, w2, rep1.done);
  for (const auto& r : rep2.records) EXPECT_EQ(r.outcome, MemoOutcome::DbHit);
  EXPECT_LT(relative_error<cfloat>(out1.span(), out2.span()), 1e-6);
}

TEST(MemoizedLamino, CountersTrackOutcomes) {
  WrapperFixture f;
  MemoizedLamino ml(f.ops, {.enable = true, .key_dim = 16, .encoder_hw = 16},
                    &f.dev, &f.db);
  const auto& g = f.ops.geometry();
  auto u = lamino::to_complex(
      lamino::make_phantom(g.object_shape(), lamino::PhantomKind::BrainTissue, 4));
  Array3D<cfloat> out(g.u1_shape());
  auto chunks = lamino::make_chunks(g.n1, 4);
  std::vector<StageChunk> w;
  for (const auto& spec : chunks)
    w.push_back({spec, u.slices(spec.begin, spec.count),
                 out.slices(spec.begin, spec.count)});
  (void)ml.run_stage(OpKind::Fu1D, w, 0.0);
  (void)ml.run_stage(OpKind::Fu1D, w, 1.0);
  EXPECT_EQ(ml.counters().miss, chunks.size());
  EXPECT_EQ(ml.counters().cache_hit, chunks.size());
  EXPECT_EQ(ml.counters().total(), 2 * chunks.size());
}

TEST(MemoizedLamino, EncoderTrainingImprovesAndFreezes) {
  WrapperFixture f;
  MemoizedLamino ml(f.ops, {.enable = true, .key_dim = 16, .encoder_hw = 16},
                    &f.dev, &f.db);
  Rng rng(5);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 8; ++i) samples.push_back(random_value(8 * 8, u64(i)));
  const double tail = ml.train_encoder(samples, 8, 8, 60);
  EXPECT_GE(tail, 0.0);
  EXPECT_TRUE(ml.key_encoder().quantized());
}

TEST(MemoizedLamino, Fu2dFusedStageMemoizes) {
  WrapperFixture f;
  MemoizedLamino ml(f.ops, {.enable = true, .key_dim = 16, .encoder_hw = 16},
                    &f.dev, &f.db);
  const auto& g = f.ops.geometry();
  Rng rng(6);
  Array3D<cfloat> u1(g.u1_shape());
  for (auto& x : u1) x = cfloat(float(rng.normal()), float(rng.normal()));
  Array3D<cfloat> dhat(g.data_shape());
  for (auto& x : dhat) x = cfloat(float(rng.normal()), float(rng.normal()));
  auto chunks = lamino::make_chunks(g.h, 4);
  // Pack inputs/refs per chunk.
  std::vector<std::vector<cfloat>> ins(chunks.size()), refs(chunks.size()),
      outs1(chunks.size()), outs2(chunks.size());
  auto run = [&](std::vector<std::vector<cfloat>>& outs, sim::VTime t0) {
    std::vector<StageChunk> w;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const auto& spec = chunks[i];
      ins[i].resize(size_t(spec.count * g.n1 * g.n2));
      refs[i].resize(size_t(spec.count * g.ntheta * g.w));
      outs[i].resize(size_t(spec.count * g.ntheta * g.w));
      f.ops.pack_u1_rows(u1, spec, ins[i]);
      f.ops.pack_dhat_rows(dhat, spec, refs[i]);
      w.push_back({spec, ins[i], outs[i], refs[i]});
    }
    return ml.run_stage(OpKind::Fu2D, w, t0);
  };
  auto rep1 = run(outs1, 0.0);
  auto rep2 = run(outs2, rep1.done);
  for (const auto& r : rep2.records)
    EXPECT_EQ(r.outcome, MemoOutcome::CacheHit);
  for (std::size_t i = 0; i < chunks.size(); ++i)
    EXPECT_LT(relative_error<cfloat>(outs1[i], outs2[i]), 1e-6);
}

TEST(KeyCosine, BasicProperties) {
  std::vector<float> a{1, 0}, b{0, 1}, c{3, 0};
  EXPECT_NEAR(key_cosine(a, b), 0.0, 1e-12);
  EXPECT_NEAR(key_cosine(a, c), 1.0, 1e-12);
  EXPECT_NEAR(key_cosine(a, a), 1.0, 1e-12);
}

}  // namespace
}  // namespace mlr::memo
