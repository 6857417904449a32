// Unit tests for src/common: arrays, stats, parallel_for, RNG, error macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "common/array.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"

namespace mlr {
namespace {

TEST(Array2D, ShapeAndIndexing) {
  Array2D<float> a(3, 4);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.size(), 12);
  a(2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(a(2, 3), 7.0f);
  EXPECT_FLOAT_EQ(a.data()[2 * 4 + 3], 7.0f);
}

TEST(Array2D, ZeroInitialized) {
  Array2D<cfloat> a(5, 5);
  for (const auto& x : a) EXPECT_EQ(x, cfloat{});
}

TEST(Array2D, DeepCopy) {
  Array2D<int> a(2, 2);
  a(0, 0) = 1;
  Array2D<int> b = a;
  b(0, 0) = 2;
  EXPECT_EQ(a(0, 0), 1);
  EXPECT_EQ(b(0, 0), 2);
}

TEST(Array2D, RowSpan) {
  Array2D<int> a(3, 4);
  std::iota(a.begin(), a.end(), 0);
  auto r1 = a.row(1);
  ASSERT_EQ(r1.size(), 4u);
  EXPECT_EQ(r1[0], 4);
  EXPECT_EQ(r1[3], 7);
}

TEST(Array2D, AtBoundsCheck) {
  Array2D<int> a(2, 2);
  EXPECT_THROW(a.at(2, 0), Error);
  EXPECT_THROW(a.at(0, -1), Error);
}

TEST(Array3D, ShapeAndIndexing) {
  Array3D<float> a(2, 3, 4);
  EXPECT_EQ(a.shape(), (Shape3{2, 3, 4}));
  EXPECT_EQ(a.size(), 24);
  a(1, 2, 3) = 9.0f;
  EXPECT_FLOAT_EQ(a.data()[(1 * 3 + 2) * 4 + 3], 9.0f);
}

TEST(Array3D, SlicesView) {
  Array3D<int> a(4, 2, 3);
  std::iota(a.begin(), a.end(), 0);
  auto s = a.slices(1, 2);
  ASSERT_EQ(s.size(), size_t(2 * 2 * 3));
  EXPECT_EQ(s[0], 6);  // first element of slice 1
  EXPECT_THROW(a.slices(3, 2), Error);
}

TEST(Array3D, MoveLeavesSourceEmpty) {
  Array3D<int> a(2, 2, 2);
  a(0, 0, 0) = 5;
  Array3D<int> b = std::move(a);
  EXPECT_EQ(b(0, 0, 0), 5);
}

TEST(Array3D, AlignedStorage) {
  Array3D<cfloat> a(3, 3, 3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % 64, 0u);
}

TEST(Norms, L2Norm) {
  std::vector<float> v{3.0f, 4.0f};
  EXPECT_NEAR(l2_norm<float>(v), 5.0, 1e-12);
  std::vector<cfloat> c{{3.0f, 4.0f}};
  EXPECT_NEAR(l2_norm<cfloat>(c), 5.0, 1e-6);
}

TEST(Norms, RelativeErrorZeroForIdentical) {
  std::vector<float> a{1, 2, 3}, b{1, 2, 3};
  EXPECT_DOUBLE_EQ(relative_error<float>(a, b), 0.0);
}

TEST(Norms, RelativeErrorScale) {
  std::vector<float> a{1, 0, 0}, b{0, 0, 0};
  EXPECT_DOUBLE_EQ(relative_error<float>(a, b), 1.0);
}

TEST(Norms, CosineSimilarity) {
  std::vector<float> a{1, 0}, b{0, 1}, c{2, 0};
  EXPECT_NEAR(cosine_similarity<float>(a, b), 0.0, 1e-12);
  EXPECT_NEAR(cosine_similarity<float>(a, c), 1.0, 1e-12);
}

TEST(Norms, CosineSimilarityComplex) {
  std::vector<cfloat> a{{1, 1}}, b{{2, 2}};
  EXPECT_NEAR(cosine_similarity<cfloat>(a, b), 1.0, 1e-6);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(double(i));
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.05);
}

TEST(Samples, AddAfterPercentileKeepsOrderCorrect) {
  // percentile() sorts the reservoir lazily; a later add() must invalidate
  // the sorted flag or an out-of-order sample would corrupt percentiles.
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_NEAR(s.percentile(1.0), 5.0, 1e-12);
  s.add(3.0);
  EXPECT_NEAR(s.percentile(0.5), 3.0, 1e-12);
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-12);
}

TEST(Samples, MergeAndSummarize) {
  Samples a, b;
  for (int i = 1; i <= 50; ++i) a.add(double(i));
  for (int i = 51; i <= 100; ++i) b.add(double(i));
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  const auto sum = summarize(a);
  EXPECT_EQ(sum.n, 100u);
  EXPECT_NEAR(sum.mean, 50.5, 1e-9);
  EXPECT_NEAR(sum.p50, 50.5, 1e-9);
  EXPECT_NEAR(sum.max, 100.0, 1e-12);
  const auto empty = summarize(Samples{});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.mean, 0.0);
}

TEST(Samples, CdfMonotone) {
  Samples s;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) s.add(rng.normal());
  auto cdf = s.cdf(16);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LE(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_NEAR(s.cdf_at(s.percentile(0.5)), 0.5, 0.05);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-1.0);   // clamps into first bin
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[9], 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(AsciiBar, Bounds) {
  EXPECT_EQ(ascii_bar(0.0, 10), "..........");
  EXPECT_EQ(ascii_bar(1.0, 10), "##########");
  EXPECT_EQ(ascii_bar(0.5, 10).size(), 10u);
}

TEST(ParallelFor, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(0, 100, [&](i64 i) { hits[size_t(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](i64) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 10,
                   [&](i64 i) {
                     if (i == 3) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelForRanges, RangesPartitionDomain) {
  std::atomic<i64> total{0};
  parallel_for_ranges(10, 1000, [&](i64 lo, i64 hi) { total += hi - lo; });
  EXPECT_EQ(total.load(), 990);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkIndependent) {
  Rng a(42);
  Rng c = a.fork();
  EXPECT_NE(a.uniform(), c.uniform());
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 200; ++i) {
    i64 v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
}

TEST(ErrorMacros, CheckThrowsWithMessage) {
  try {
    MLR_CHECK_MSG(1 == 2, "context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(WallTimer, MeasuresNonNegative) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 1000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace mlr
