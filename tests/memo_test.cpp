// Tests for the distributed memoization system: DB insert/query semantics,
// τ gating, coalescing, private vs global cache behaviour, and the memoized
// operator layer (exactness on miss, genuine reuse on hit).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "common/hash.hpp"
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

// --- Snapshot round trips, pinned bit for bit ---------------------------------

/// Seed-side stand-in for the remote tier: serves snapshot payloads by
/// position and counts the calls the DB makes.
class CountingFetcher final : public ValueFetcher {
 public:
  explicit CountingFetcher(std::vector<MemoDb::Entry> snapshot)
      : snapshot_(std::move(snapshot)) {}
  void request(u64 /*pos*/) override { requests.fetch_add(1); }
  void flush() override {}
  std::vector<cfloat> fetch(u64 pos) override {
    fetches.fetch_add(1);
    return snapshot_.at(size_t(pos)).value;
  }
  std::atomic<u64> requests{0};
  std::atomic<u64> fetches{0};

 private:
  std::vector<MemoDb::Entry> snapshot_;
};

/// Every QueryReply field, doubles as raw bits, folded into `h`.
u64 digest_replies(u64 h, std::span<const QueryReply> replies) {
  auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
  for (const auto& rp : replies) {
    pod(rp.hit);
    pod(rp.match_id);
    pod(rp.cosine);
    pod(rp.value_cf);
    pod(rp.remote_pos);
    h = fnv1a(h, rp.value.data(), rp.value.size() * sizeof(cfloat));
    pod(rp.value_ready);
  }
  return h;
}

/// The DB's timing sums and message count, folded into `h`.
u64 digest_timing(u64 h, const MemoDb& db) {
  auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
  const auto& t = db.timing();
  pod(t.comm_s);
  pod(t.search_s);
  pod(t.value_serve_s);
  double lat = 0;
  for (const double x : t.query_latency_us.raw()) lat += x;
  pod(lat);
  pod(t.query_latency_us.count());
  pod(db.messages_sent());
  return h;
}

/// The memory node's DRAM curve: the insertion charges' byte accounting.
u64 digest_dram(u64 h, sim::MemoryNode& node) {
  for (const auto& s : node.dram().timeline()) {
    h = fnv1a(h, &s.t, sizeof s.t);
    h = fnv1a(h, &s.bytes, sizeof s.bytes);
  }
  return h;
}

u64 digest_entries(u64 h, std::span<const MemoDb::Entry> entries) {
  auto pod = [&h](const auto& v) { h = fnv1a(h, &v, sizeof v); };
  auto bytes = [&h](const auto& vec) {
    h = fnv1a(h, vec.data(), vec.size() * sizeof vec[0]);
  };
  for (const auto& e : entries) {
    pod(int(e.kind));
    bytes(e.key);
    pod(e.norm);
    bytes(e.probe);
    bytes(e.value);
    pod(e.value_cf);
  }
  return h;
}

u64 digest_shared(u64 h, const MemoDb& db,
                  std::span<const QueryReply> replies) {
  for (const auto& rp : replies) {
    const bool shared = rp.hit && db.is_shared_entry(rp.match_id);
    h = fnv1a(h, &shared, sizeof shared);
  }
  return h;
}

// Odd key dimension: the insertion charge rounds a key up to ⌈7/2⌉ cfloats.
constexpr i64 kGoldenKeyDim = 7;

MemoDbConfig golden_db_config() {
  return {.key_dim = kGoldenKeyDim,
          .tau = 0.9,
          .ivf = {.nlist = 2, .train_size = 6}};
}

std::vector<float> golden_key(u64 seed) {
  Rng rng(seed);
  std::vector<float> k(static_cast<size_t>(kGoldenKeyDim));
  for (auto& x : k) x = float(std::abs(rng.normal()) + 0.1);
  return k;
}

/// Entries of all four kinds at value lengths 12 and 20, every third one
/// without an oracle probe, inserted at staggered ready times.
void fill_golden_db(MemoDb& db) {
  for (int i = 0; i < 16; ++i) {
    const auto kind = OpKind(i % kNumOpKinds);
    const i64 len = (i / kNumOpKinds) % 2 == 0 ? 12 : 20;
    std::vector<cfloat> probe;
    if (i % 3 != 0) probe = random_value(6, u64(500 + i));
    db.insert(kind, golden_key(u64(100 + i)), random_value(len, u64(300 + i)),
              0.01 * i, 1.0 + 0.25 * i, std::move(probe));
  }
}

/// Oracle requests (exact and near probes, one failing the norm gate),
/// key-gated requests (no probe; exact, near and unrelated keys) and one
/// shape mismatch.
std::vector<QueryRequest> golden_requests() {
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    const auto kind = OpKind(i % kNumOpKinds);
    const std::size_t len = (i / kNumOpKinds) % 2 == 0 ? 12 : 20;
    auto key = golden_key(u64(100 + i));
    const double norm = 1.0 + 0.25 * i;
    if (i % 3 != 0) {
      auto probe = random_value(6, u64(500 + i));
      if (i % 2 == 0) probe[0] += cfloat(0.2f, -0.1f);
      const double qnorm = i == 5 ? 0.5 * norm : norm;  // norm gate
      reqs.push_back({kind, key, qnorm, probe, 0.0, len});
    } else {
      key[1] += 0.02f * float(i % 5);
      reqs.push_back({kind, key, norm, {}, i == 9 ? 0.95 : 0.0, len});
    }
  }
  reqs.push_back({OpKind::Fu2D, golden_key(999), 2.0, {}, 0.0, 12});
  // Shape mismatch: entry 1's key and probe, but a 20-cfloat chunk.
  reqs.push_back({OpKind::Fu1DAdj, golden_key(101), 1.25,
                  random_value(6, 501), 0.0, 20});
  return reqs;
}

// Export → import (inline and index-only) → restore round trips reproduce
// every reply, timing sum, message count and exported entry bit for bit.
// The digest was recorded with the key-packing value store this DB
// replaced; a change that moves it changed behaviour.
TEST(MemoDb, SnapshotRoundTripGolden) {
  const auto cfg = golden_db_config();
  const auto reqs = golden_requests();
  u64 h = kFnvOffsetBasis;

  // The producer: every insertion charged, then one query round.
  sim::Interconnect net0;
  sim::MemoryNode node0;
  MemoDb src(cfg, &net0, &node0);
  fill_golden_db(src);
  const auto r0 = src.query_batch(reqs, 1.0);
  h = digest_replies(h, r0);
  h = digest_timing(h, src);
  h = digest_dram(h, node0);
  const auto snapshot = src.export_entries();
  ASSERT_EQ(snapshot.size(), 16u);
  h = digest_entries(h, snapshot);

  // Inline seed: the same replies, every match cross-job.
  sim::Interconnect net1;
  sim::MemoryNode node1;
  MemoDb inline_db(cfg, &net1, &node1);
  inline_db.import_entries(snapshot);
  const auto r1 = inline_db.query_batch(reqs, 1.0);
  h = digest_replies(h, r1);
  h = digest_timing(h, inline_db);
  h = digest_shared(h, inline_db, r1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(r1[i].hit, r0[i].hit) << "request " << i;
    EXPECT_EQ(r1[i].value, r0[i].value) << "request " << i;
  }

  // Index-only seed: hits carry their length and snapshot position, and
  // the fetcher hears one request per remote hit.
  auto index_only = snapshot;
  for (auto& e : index_only) e.value.clear();
  CountingFetcher fetcher(snapshot);
  sim::Interconnect net2;
  sim::MemoryNode node2;
  MemoDb remote_db(cfg, &net2, &node2);
  remote_db.import_entries(index_only, &fetcher);
  auto r2 = remote_db.query_batch(reqs, 1.0);
  h = digest_replies(h, r2);
  h = digest_shared(h, remote_db, r2);
  std::size_t hits = 0;
  for (const auto& rp : r2) hits += rp.hit ? 1 : 0;
  ASSERT_GT(hits, 0u);
  EXPECT_EQ(fetcher.requests.load(), hits);
  EXPECT_EQ(fetcher.fetches.load(), 0u);
  for (auto& rp : r2) remote_db.materialize(rp);
  h = digest_replies(h, r2);
  EXPECT_EQ(fetcher.fetches.load(), hits);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    EXPECT_EQ(r2[i].value, r0[i].value) << "request " << i;
  // Harvested payloads are local now: no new request, no new fetch.
  const auto r3 = remote_db.query_batch(reqs, 2.0);
  h = digest_replies(h, r3);
  h = digest_timing(h, remote_db);
  EXPECT_EQ(fetcher.requests.load(), hits);
  EXPECT_EQ(fetcher.fetches.load(), hits);
  // The index-only seed is accounted at its logical (full-value) size.
  remote_db.insert(OpKind::Fu2D, golden_key(600), random_value(12, 601), 2.5);
  h = digest_dram(h, node2);

  // A session on the inline seed, checkpointed and restored: its own
  // entries export identically and keep their session-local ids.
  for (int i = 0; i < 6; ++i)
    inline_db.insert(OpKind(i % kNumOpKinds), golden_key(u64(700 + i)),
                     random_value(i % 2 == 0 ? 12 : 20, u64(800 + i)),
                     3.0 + 0.01 * i, 0.5 + 0.125 * i,
                     i % 2 == 0 ? random_value(6, u64(900 + i))
                                : std::vector<cfloat>{});
  h = digest_dram(h, node1);
  const auto own = inline_db.export_entries(/*session_only=*/true);
  ASSERT_EQ(own.size(), 6u);
  h = digest_entries(h, own);
  sim::Interconnect net3;
  sim::MemoryNode node3;
  MemoDb resumed(cfg, &net3, &node3);
  resumed.import_entries(snapshot);
  resumed.restore_session_entries(own);
  const auto own_again = resumed.export_entries(/*session_only=*/true);
  h = digest_entries(h, own_again);
  EXPECT_EQ(digest_entries(kFnvOffsetBasis, own_again),
            digest_entries(kFnvOffsetBasis, own));
  auto resumed_reqs = reqs;
  for (int i = 0; i < 6; ++i)
    resumed_reqs.push_back({OpKind(i % kNumOpKinds), golden_key(u64(700 + i)),
                            0.5 + 0.125 * i, {}, 0.0, 0});
  const auto r4 = resumed.query_batch(resumed_reqs, 4.0);
  h = digest_replies(h, r4);
  h = digest_timing(h, resumed);
  h = digest_shared(h, resumed, r4);
  resumed.insert(OpKind::Fu1D, golden_key(602), random_value(20, 603), 5.0);
  h = digest_dram(h, node3);

  EXPECT_EQ(h, 0xd74d8fb7c8dd77efull) << std::hex << "0x" << h;
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
    if (a.has_value()) {
      EXPECT_EQ(*a, *b);
    }
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
