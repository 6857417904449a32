// Tests for the FFT / NUFFT stack: correctness against naive O(n²) DFTs,
// roundtrips, Parseval, adjointness of NUFFT type-1/type-2 pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/nufft.hpp"

namespace mlr::fft {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<cfloat> random_signal(i64 n, u64 seed) {
  Rng rng(seed);
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

// Naive forward DFT reference.
std::vector<cfloat> naive_dft(const std::vector<cfloat>& x, bool inverse) {
  const i64 n = i64(x.size());
  std::vector<cfloat> out(static_cast<size_t>(n));
  const double sign = inverse ? 1.0 : -1.0;
  for (i64 k = 0; k < n; ++k) {
    cdouble acc{};
    for (i64 t = 0; t < n; ++t) {
      acc += cdouble(x[size_t(t)]) *
             std::polar(1.0, sign * 2.0 * kPi * double(k * t) / double(n));
    }
    if (inverse) acc /= double(n);
    out[size_t(k)] = cfloat(acc);
  }
  return out;
}

double max_abs_diff(const std::vector<cfloat>& a,
                    const std::vector<cfloat>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, double(std::abs(a[i] - b[i])));
  return m;
}

double max_abs(const std::vector<cfloat>& a) {
  double m = 0;
  for (const auto& x : a) m = std::max(m, double(std::abs(x)));
  return std::max(m, 1e-30);
}

// ---------------------------------------------------------------------------
// Plan1D over a sweep of sizes including non-powers-of-two (Bluestein).

class FftSizes : public ::testing::TestWithParam<i64> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const i64 n = GetParam();
  auto x = random_signal(n, 11 + u64(n));
  auto want = naive_dft(x, false);
  Plan1D plan(n);
  auto got = x;
  plan.forward(got);
  EXPECT_LT(max_abs_diff(got, want) / max_abs(want), 2e-4) << "n=" << n;
}

TEST_P(FftSizes, InverseRoundtrip) {
  const i64 n = GetParam();
  auto x = random_signal(n, 17 + u64(n));
  auto y = x;
  Plan1D plan(n);
  plan.forward(y);
  plan.inverse(y);
  EXPECT_LT(max_abs_diff(x, y) / max_abs(x), 1e-4) << "n=" << n;
}

TEST_P(FftSizes, ParsevalHolds) {
  const i64 n = GetParam();
  auto x = random_signal(n, 23 + u64(n));
  double e_time = 0;
  for (auto v : x) e_time += std::norm(v);
  Plan1D plan(n);
  auto y = x;
  plan.forward(y);
  double e_freq = 0;
  for (auto v : y) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq / double(n), e_time, 1e-3 * std::max(1.0, e_time))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values<i64>(1, 2, 3, 4, 5, 7, 8, 12, 16,
                                                27, 31, 32, 48, 64, 100, 128,
                                                255, 256, 500, 512));

TEST(Plan1D, DeltaGivesFlatSpectrum) {
  const i64 n = 64;
  std::vector<cfloat> x(static_cast<size_t>(n), cfloat{});
  x[0] = 1.0f;
  Plan1D plan(n);
  plan.forward(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v), 1.0, 1e-5);
}

TEST(Plan1D, LinearityHolds) {
  const i64 n = 48;
  auto a = random_signal(n, 1), b = random_signal(n, 2);
  std::vector<cfloat> sum(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i)
    sum[size_t(i)] = 2.0f * a[size_t(i)] + 3.0f * b[size_t(i)];
  Plan1D plan(n);
  auto fa = a, fb = b, fs = sum;
  plan.forward(fa);
  plan.forward(fb);
  plan.forward(fs);
  for (i64 i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(fs[size_t(i)] -
                         (2.0f * fa[size_t(i)] + 3.0f * fb[size_t(i)])),
                0.0, 1e-3);
  }
}

// execute_batch must give every lane exactly the bits execute() gives it
// alone: radix-2 and Bluestein lengths, even and odd lane counts (the odd
// last lane runs scalar), padded rows (ld > lanes) whose padding it must not
// touch, both directions.
TEST(Plan1D, BatchMatchesOneLaneBitForBit) {
  for (i64 n : {1, 2, 3, 5, 8, 24, 26, 64, 100}) {
    const Plan1D plan(n);
    for (i64 lanes = 1; lanes <= 9; ++lanes) {
      for (i64 ld : {lanes, lanes + 3}) {
        for (bool inverse : {false, true}) {
          const auto x = random_signal(n * ld, u64(1000 * n + 10 * lanes + ld));
          auto batch = x;
          plan.execute_batch(batch.data(), ld, lanes, inverse);
          for (i64 b = 0; b < ld; ++b) {
            std::vector<cfloat> lane(static_cast<size_t>(n)), got(lane.size());
            for (i64 j = 0; j < n; ++j) {
              lane[size_t(j)] = x[size_t(j * ld + b)];
              got[size_t(j)] = batch[size_t(j * ld + b)];
            }
            if (b < lanes) plan.execute(lane, inverse);  // padding: untouched
            EXPECT_EQ(std::memcmp(got.data(), lane.data(),
                                  lane.size() * sizeof(cfloat)),
                      0)
                << "n=" << n << " lanes=" << lanes << " ld=" << ld
                << " lane=" << b << " inverse=" << inverse;
          }
        }
      }
    }
  }
}

TEST(Fft2D, TransposeSwapsRowsAndColumns) {
  const i64 r = 3, c = 5;
  const auto a = random_signal(r * c, 7);
  std::vector<cfloat> t(a.size());
  transpose(a.data(), r, c, t.data());
  for (i64 i = 0; i < r; ++i)
    for (i64 j = 0; j < c; ++j)
      EXPECT_EQ(t[size_t(j * r + i)], a[size_t(i * c + j)]);
}

TEST(Fft2D, MatchesSeparableNaive) {
  const i64 r = 8, c = 12;
  Array2D<cfloat> a(r, c);
  Rng rng(3);
  for (auto& v : a) v = cfloat(float(rng.normal()), float(rng.normal()));
  // Naive 2-D DFT.
  Array2D<cfloat> want(r, c);
  for (i64 kr = 0; kr < r; ++kr)
    for (i64 kc = 0; kc < c; ++kc) {
      cdouble acc{};
      for (i64 ir = 0; ir < r; ++ir)
        for (i64 ic = 0; ic < c; ++ic)
          acc += cdouble(a(ir, ic)) *
                 std::polar(1.0, -2.0 * kPi *
                                     (double(kr * ir) / r + double(kc * ic) / c));
      want(kr, kc) = cfloat(acc);
    }
  fft2d(a, false);
  for (i64 i = 0; i < r * c; ++i)
    EXPECT_NEAR(std::abs(a.data()[i] - want.data()[i]), 0.0,
                1e-3 * std::max(1.0, double(std::abs(want.data()[i]))));
}

TEST(Fft2D, UnitaryRoundtripAndIdentity) {
  // F_2D · F*_2D = I — the identity the paper's operation cancellation uses.
  Array2D<cfloat> a(16, 16);
  Rng rng(9);
  for (auto& v : a) v = cfloat(float(rng.normal()), float(rng.normal()));
  Array2D<cfloat> orig = a;
  fft2d_unitary(a, false);   // F_2D
  fft2d_unitary(a, true);    // F*_2D
  for (i64 i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a.data()[i] - orig.data()[i]), 0.0, 1e-4);
}

TEST(Fft2D, UnitaryPreservesEnergy) {
  Array2D<cfloat> a(8, 8);
  Rng rng(13);
  for (auto& v : a) v = cfloat(float(rng.normal()), float(rng.normal()));
  double e0 = 0;
  for (auto& v : a) e0 += std::norm(v);
  fft2d_unitary(a, false);
  double e1 = 0;
  for (auto& v : a) e1 += std::norm(v);
  EXPECT_NEAR(e0, e1, 1e-3 * e0);
}

TEST(CenteredIndex, RoundTrips) {
  for (i64 n : {4, 5, 8, 9}) {
    for (i64 k = 0; k < n; ++k) {
      const i64 kc = to_centered(k, n);
      EXPECT_GE(kc, -(n + 1) / 2);
      EXPECT_LT(kc, (n + 1) / 2);
      EXPECT_EQ(from_centered(kc, n), k);
    }
  }
}

// ---------------------------------------------------------------------------
// NUFFT 1-D: accuracy vs naive NDFT across random frequency sets, both signs.

class Nufft1DSign : public ::testing::TestWithParam<int> {};

TEST_P(Nufft1DSign, Type2MatchesNaive) {
  const int sign = GetParam();
  const i64 n = 64, j = 100;
  Rng rng(31);
  std::vector<double> nu(static_cast<size_t>(j));
  for (auto& v : nu) v = rng.uniform(-double(n) / 2, double(n) / 2);
  auto f = random_signal(n, 37);
  std::vector<cfloat> got(static_cast<size_t>(j)), want(static_cast<size_t>(j));
  Nufft1D plan(n);
  plan.type2(nu, f, got, sign);
  ndft1d_type2(nu, f, want, sign);
  EXPECT_LT(max_abs_diff(got, want) / max_abs(want), 2e-5);
}

TEST_P(Nufft1DSign, Type1MatchesNaive) {
  const int sign = GetParam();
  const i64 n = 64, j = 100;
  Rng rng(41);
  std::vector<double> nu(static_cast<size_t>(j));
  for (auto& v : nu) v = rng.uniform(-double(n) / 2, double(n) / 2);
  auto q = random_signal(j, 43);
  std::vector<cfloat> got(static_cast<size_t>(n)), want(static_cast<size_t>(n));
  Nufft1D plan(n);
  plan.type1(nu, q, got, sign);
  ndft1d_type1(nu, q, want, n, sign);
  EXPECT_LT(max_abs_diff(got, want) / max_abs(want), 2e-5);
}

INSTANTIATE_TEST_SUITE_P(Signs, Nufft1DSign, ::testing::Values(-1, 1));

TEST(Nufft1D, AdjointnessHolds) {
  // <type2(f), q> == <f, type1(q, +sign)> with conjugated exponent.
  const i64 n = 32, j = 50;
  Rng rng(51);
  std::vector<double> nu(static_cast<size_t>(j));
  for (auto& v : nu) v = rng.uniform(-double(n) / 2, double(n) / 2);
  auto f = random_signal(n, 52);
  auto q = random_signal(j, 53);
  Nufft1D plan(n);
  std::vector<cfloat> Bf(static_cast<size_t>(j)), Bq(static_cast<size_t>(n));
  plan.type2(nu, f, Bf, -1);
  plan.type1(nu, q, Bq, +1);  // adjoint of type2(−1)
  cdouble lhs{}, rhs{};
  for (i64 i = 0; i < j; ++i)
    lhs += cdouble(Bf[size_t(i)]) * std::conj(cdouble(q[size_t(i)]));
  for (i64 i = 0; i < n; ++i)
    rhs += cdouble(f[size_t(i)]) * std::conj(cdouble(Bq[size_t(i)]));
  EXPECT_NEAR(std::abs(lhs - rhs) / std::abs(lhs), 0.0, 1e-4);
}

TEST(Nufft1D, UniformFrequenciesReduceToDft) {
  // With ν_j = centered integers the type-2 NUFFT is an exact (shifted) DFT.
  const i64 n = 16;
  std::vector<double> nu(static_cast<size_t>(n));
  for (i64 k = 0; k < n; ++k) nu[size_t(k)] = double(to_centered(k, n));
  auto f = random_signal(n, 61);
  std::vector<cfloat> got(static_cast<size_t>(n)), want(static_cast<size_t>(n));
  Nufft1D plan(n);
  plan.type2(nu, f, got, -1);
  ndft1d_type2(nu, f, want, -1);
  EXPECT_LT(max_abs_diff(got, want) / max_abs(want), 1e-5);
}

// ---------------------------------------------------------------------------
// NUFFT 2-D.

TEST(Nufft2D, Type2MatchesNaive) {
  const i64 r = 16, c = 12, j = 80;
  Rng rng(71);
  std::vector<double> nr(static_cast<size_t>(j)), nc(static_cast<size_t>(j));
  for (i64 i = 0; i < j; ++i) {
    nr[size_t(i)] = rng.uniform(-double(r) / 2, double(r) / 2);
    nc[size_t(i)] = rng.uniform(-double(c) / 2, double(c) / 2);
  }
  auto f = random_signal(r * c, 73);
  std::vector<cfloat> got(static_cast<size_t>(j)), want(static_cast<size_t>(j));
  Nufft2D plan(r, c);
  plan.type2(nr, nc, f, got, -1);
  ndft2d_type2(nr, nc, r, c, f, want, -1);
  EXPECT_LT(max_abs_diff(got, want) / max_abs(want), 3e-5);
}

TEST(Nufft2D, Type1MatchesNaive) {
  const i64 r = 12, c = 16, j = 80;
  Rng rng(81);
  std::vector<double> nr(static_cast<size_t>(j)), nc(static_cast<size_t>(j));
  for (i64 i = 0; i < j; ++i) {
    nr[size_t(i)] = rng.uniform(-double(r) / 2, double(r) / 2);
    nc[size_t(i)] = rng.uniform(-double(c) / 2, double(c) / 2);
  }
  auto q = random_signal(j, 83);
  std::vector<cfloat> got(static_cast<size_t>(r * c)), want(static_cast<size_t>(r * c));
  Nufft2D plan(r, c);
  plan.type1(nr, nc, q, got, +1);
  ndft2d_type1(nr, nc, r, c, q, want, +1);
  EXPECT_LT(max_abs_diff(got, want) / max_abs(want), 3e-5);
}

TEST(Nufft2D, AdjointnessHolds) {
  const i64 r = 8, c = 8, j = 40;
  Rng rng(91);
  std::vector<double> nr(static_cast<size_t>(j)), nc(static_cast<size_t>(j));
  for (i64 i = 0; i < j; ++i) {
    nr[size_t(i)] = rng.uniform(-double(r) / 2, double(r) / 2);
    nc[size_t(i)] = rng.uniform(-double(c) / 2, double(c) / 2);
  }
  auto f = random_signal(r * c, 92);
  auto q = random_signal(j, 93);
  Nufft2D plan(r, c);
  std::vector<cfloat> Bf(static_cast<size_t>(j)), Bq(static_cast<size_t>(r * c));
  plan.type2(nr, nc, f, Bf, -1);
  plan.type1(nr, nc, q, Bq, +1);
  cdouble lhs{}, rhs{};
  for (i64 i = 0; i < j; ++i)
    lhs += cdouble(Bf[size_t(i)]) * std::conj(cdouble(q[size_t(i)]));
  for (i64 i = 0; i < r * c; ++i)
    rhs += cdouble(f[size_t(i)]) * std::conj(cdouble(Bq[size_t(i)]));
  EXPECT_NEAR(std::abs(lhs - rhs) / std::abs(lhs), 0.0, 1e-4);
}

// A window holds 2·msp+1 taps in a fixed 32-slot array, so msp = 16 would
// silently drop taps and return a wrong transform.
TEST(Nufft, RejectsSpreadingWidthBeyondWindow) {
  EXPECT_THROW(Nufft1D(64, {.msp = 16}), Error);
  EXPECT_THROW(Nufft1D(64, {.msp = 0}), Error);
  EXPECT_THROW(Nufft2D(8, 8, {.msp = 16}), Error);
  EXPECT_NO_THROW(Nufft1D(64, {.msp = 15}));
  EXPECT_NO_THROW(Nufft2D(8, 8, {.msp = 15}));
}

// A lane-batched 1-D NUFFT call gives every lane the bits of a one-lane
// call on it, in both directions.
TEST(Nufft1D, LanesMatchOneLaneCallsBitForBit) {
  for (i64 n : {8, 12}) {
    const i64 j = 11, lanes = 5;
    Rng rng(u64(95 + n));
    std::vector<double> nu(static_cast<size_t>(j));
    for (auto& v : nu) v = rng.uniform(-double(n) / 2, double(n) / 2);
    const Nufft1D plan(n);
    const auto f = random_signal(n * lanes, 96);
    const auto q = random_signal(j * lanes, 97);
    std::vector<cfloat> f2(static_cast<size_t>(j * lanes));
    std::vector<cfloat> q1(static_cast<size_t>(n * lanes));
    plan.type2(nu, f, f2, -1, lanes);
    plan.type1(nu, q, q1, +1, lanes);
    for (i64 b = 0; b < lanes; ++b) {
      std::vector<cfloat> fin(static_cast<size_t>(n));
      std::vector<cfloat> qin(static_cast<size_t>(j));
      for (i64 k = 0; k < n; ++k) fin[size_t(k)] = f[size_t(k * lanes + b)];
      for (i64 k = 0; k < j; ++k) qin[size_t(k)] = q[size_t(k * lanes + b)];
      std::vector<cfloat> fout(qin.size()), qout(fin.size());
      plan.type2(nu, fin, fout, -1);
      plan.type1(nu, qin, qout, +1);
      for (i64 k = 0; k < j; ++k)
        EXPECT_EQ(std::memcmp(&fout[size_t(k)], &f2[size_t(k * lanes + b)],
                              sizeof(cfloat)),
                  0)
            << "type2 n=" << n << " lane " << b << " target " << k;
      for (i64 k = 0; k < n; ++k)
        EXPECT_EQ(std::memcmp(&qout[size_t(k)], &q1[size_t(k * lanes + b)],
                              sizeof(cfloat)),
                  0)
            << "type1 n=" << n << " lane " << b << " mode " << k;
    }
  }
}

TEST(Nufft, FlopsPositiveAndMonotone) {
  Nufft1D p1(64);
  EXPECT_GT(p1.flops(10), 0.0);
  EXPECT_GT(p1.flops(100), p1.flops(10));
  Nufft2D p2(32, 32);
  EXPECT_GT(p2.flops(100), 0.0);
  EXPECT_GT(fft_flops(1024), fft_flops(64));
}

}  // namespace
}  // namespace mlr::fft
