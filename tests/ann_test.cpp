// Tests for the ANN indexes (Faiss substitute): exactness of FlatIndex,
// IVF recall and cheap insertion, NSW graph behaviour, and the
// cluster-vs-graph insert-cost property the paper's design argues from.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "ann/ann.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace mlr::ann {
namespace {

std::vector<float> random_vec(i64 dim, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(dim));
  for (auto& x : v) x = float(rng.normal());
  return v;
}

// Clustered dataset: `nclusters` Gaussian clusters in `dim` dimensions.
std::vector<std::vector<float>> clustered_data(i64 n, i64 dim, i64 nclusters,
                                               Rng& rng) {
  std::vector<std::vector<float>> centers;
  for (i64 c = 0; c < nclusters; ++c) {
    auto v = random_vec(dim, rng);
    for (auto& x : v) x *= 10.0f;
    centers.push_back(std::move(v));
  }
  std::vector<std::vector<float>> data;
  for (i64 i = 0; i < n; ++i) {
    const auto& c = centers[size_t(rng.uniform_int(0, nclusters - 1))];
    auto v = random_vec(dim, rng);
    for (i64 d = 0; d < dim; ++d) v[size_t(d)] += c[size_t(d)];
    data.push_back(std::move(v));
  }
  return data;
}

TEST(FlatIndex, ExactNearest) {
  FlatIndex idx(4);
  idx.add(1, std::vector<float>{0, 0, 0, 0});
  idx.add(2, std::vector<float>{1, 0, 0, 0});
  idx.add(3, std::vector<float>{5, 5, 5, 5});
  auto n = idx.nearest(std::vector<float>{0.9f, 0, 0, 0});
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->id, 2u);
  EXPECT_NEAR(n->dist, 0.1f, 1e-5);
}

TEST(FlatIndex, TopKOrdering) {
  FlatIndex idx(2);
  for (int i = 0; i < 10; ++i)
    idx.add(u64(i), std::vector<float>{float(i), 0});
  auto r = idx.search(std::vector<float>{3.2f, 0}, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].id, 3u);
  EXPECT_LE(r[0].dist, r[1].dist);
  EXPECT_LE(r[1].dist, r[2].dist);
}

TEST(FlatIndex, EmptyIndexReturnsNothing) {
  FlatIndex idx(3);
  EXPECT_FALSE(idx.nearest(std::vector<float>{1, 2, 3}).has_value());
  EXPECT_TRUE(idx.search(std::vector<float>{1, 2, 3}, 5).empty());
}

TEST(FlatIndex, DimensionMismatchThrows) {
  FlatIndex idx(3);
  EXPECT_THROW(idx.add(1, std::vector<float>{1, 2}), mlr::Error);
}

TEST(IvfFlat, UntrainedFallsBackToExact) {
  IvfFlatIndex idx(2, {.nlist = 4});
  idx.add(1, std::vector<float>{0, 0});
  idx.add(2, std::vector<float>{3, 3});
  EXPECT_FALSE(idx.trained());
  auto n = idx.nearest(std::vector<float>{2.8f, 3.1f});
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->id, 2u);
}

TEST(IvfFlat, AutoTrainsAfterThreshold) {
  IvfFlatIndex idx(4, {.nlist = 4, .train_size = 32});
  Rng rng(1);
  for (u64 i = 0; i < 32; ++i) idx.add(i, random_vec(4, rng));
  EXPECT_TRUE(idx.trained());
  EXPECT_EQ(idx.size(), 32u);
}

TEST(IvfFlat, HighRecallOnClusteredData) {
  const i64 dim = 8, n = 400;
  Rng rng(3);
  auto data = clustered_data(n, dim, 8, rng);
  IvfFlatIndex ivf(dim, {.nlist = 8, .nprobe = 3});
  FlatIndex flat(dim);
  for (i64 i = 0; i < n; ++i) {
    ivf.add(u64(i), data[size_t(i)]);
    flat.add(u64(i), data[size_t(i)]);
  }
  ivf.train();
  int hit = 0;
  const int queries = 50;
  for (int q = 0; q < queries; ++q) {
    auto probe = data[size_t(rng.uniform_int(0, n - 1))];
    for (auto& x : probe) x += float(rng.normal(0.0, 0.05));
    auto want = flat.nearest(probe);
    auto got = ivf.nearest(probe);
    if (got && want && got->id == want->id) ++hit;
  }
  EXPECT_GE(hit, int(queries * 0.85));  // ≥85 % recall@1 with nprobe=3/8
}

TEST(IvfFlat, InsertCostIsConstantInIndexSize) {
  // IVF insert = nlist centroid distances, independent of how many vectors
  // are already stored (the dynamic-insertion property, §4.3.2).
  const i64 dim = 8;
  Rng rng(5);
  IvfFlatIndex idx(dim, {.nlist = 8, .train_size = 64});
  for (u64 i = 0; i < 64; ++i) idx.add(i, random_vec(dim, rng));
  ASSERT_TRUE(idx.trained());
  const u64 before_small = idx.distance_evals();
  idx.add(1000, random_vec(dim, rng));
  const u64 cost_early = idx.distance_evals() - before_small;
  for (u64 i = 0; i < 500; ++i) idx.add(2000 + i, random_vec(dim, rng));
  const u64 before_big = idx.distance_evals();
  idx.add(9999, random_vec(dim, rng));
  const u64 cost_late = idx.distance_evals() - before_big;
  EXPECT_EQ(cost_early, cost_late);
  EXPECT_EQ(cost_late, u64(idx.nlist()));
}

TEST(IvfFlat, EmptySearchSafe) {
  IvfFlatIndex idx(4);
  EXPECT_TRUE(idx.search(std::vector<float>{0, 0, 0, 0}, 3).empty());
}

TEST(Nsw, ExactOnTinyIndex) {
  NswIndex idx(2);
  idx.add(10, std::vector<float>{0, 0});
  idx.add(20, std::vector<float>{1, 1});
  idx.add(30, std::vector<float>{-4, 2});
  auto n = idx.nearest(std::vector<float>{0.9f, 0.9f});
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->id, 20u);
}

TEST(Nsw, GoodRecallOnClusteredData) {
  const i64 dim = 8, n = 300;
  Rng rng(7);
  auto data = clustered_data(n, dim, 6, rng);
  NswIndex nsw(dim, {.m = 8, .ef = 32});
  FlatIndex flat(dim);
  for (i64 i = 0; i < n; ++i) {
    nsw.add(u64(i), data[size_t(i)]);
    flat.add(u64(i), data[size_t(i)]);
  }
  int hit = 0;
  const int queries = 40;
  for (int q = 0; q < queries; ++q) {
    auto probe = data[size_t(rng.uniform_int(0, n - 1))];
    for (auto& x : probe) x += float(rng.normal(0.0, 0.05));
    auto want = flat.nearest(probe);
    auto got = nsw.nearest(probe);
    if (got && want && got->id == want->id) ++hit;
  }
  EXPECT_GE(hit, int(queries * 0.8));
}

TEST(Nsw, InsertCostGrowsWithIndexSize) {
  // The property that disqualifies graph indexes for mLR's growing DB:
  // inserting into a big graph costs much more than into a small one.
  const i64 dim = 8;
  Rng rng(9);
  NswIndex idx(dim, {.m = 8, .ef = 32});
  for (u64 i = 0; i < 10; ++i) idx.add(i, random_vec(dim, rng));
  const u64 b0 = idx.distance_evals();
  idx.add(100, random_vec(dim, rng));
  const u64 cost_small = idx.distance_evals() - b0;
  for (u64 i = 0; i < 500; ++i) idx.add(200 + i, random_vec(dim, rng));
  const u64 b1 = idx.distance_evals();
  idx.add(9999, random_vec(dim, rng));
  const u64 cost_big = idx.distance_evals() - b1;
  EXPECT_GT(cost_big, 2 * cost_small);
}

TEST(AnnComparison, IvfInsertMuchCheaperThanNswAtScale) {
  // Head-to-head version of the paper's design argument.
  const i64 dim = 8, n = 400;
  Rng rng(11);
  IvfFlatIndex ivf(dim, {.nlist = 16, .train_size = 64});
  NswIndex nsw(dim, {.m = 8, .ef = 32});
  for (u64 i = 0; i < u64(n); ++i) {
    auto v = random_vec(dim, rng);
    ivf.add(i, v);
    nsw.add(i, v);
  }
  const u64 ivf_before = ivf.distance_evals();
  const u64 nsw_before = nsw.distance_evals();
  auto v = random_vec(dim, rng);
  ivf.add(5000, v);
  nsw.add(5000, v);
  EXPECT_LT(ivf.distance_evals() - ivf_before,
            (nsw.distance_evals() - nsw_before) / 2);
}

}  // namespace
}  // namespace mlr::ann
