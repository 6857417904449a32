// Tests for the FFT / NUFFT stack: correctness against naive O(n²) DFTs,
// roundtrips, Parseval, adjointness of NUFFT type-1/type-2 pairs, and bit
// identity of the spreading windows and NUFFT plans with the scalar
// reference (ref_nufft.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/nufft.hpp"
#include "fft/window.hpp"
#include "lamino/geometry.hpp"

#include "bit_identity_geometries.hpp"
#include "ref_nufft.hpp"

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

// The fast Gaussian gridding window's bound holds only for σ ≥ 1, and a
// fine grid of σ·n points is meaningless below that.
TEST(Nufft, RejectsOversamplingBelowOne) {
  EXPECT_THROW(Nufft1D(64, {.sigma = 0}), Error);
  EXPECT_THROW(Nufft2D(8, 8, {.sigma = 0}), Error);
  EXPECT_NO_THROW(Nufft1D(64, {.sigma = 1}));
}

// ---------------------------------------------------------------------------
// Spreading windows against ref::make_window, bit for bit: tap count, every
// tap's grid index and every weight. The fast path keeps a tap's float only
// far from a float rounding midpoint and recomputes the reference `exp`
// otherwise; each sweep below must also reach that fallback, or it would
// not show that the band is wide enough.

bool same_float(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Wraps coordinates into a fine grid and checks the windows around them,
// counting windows, fallback taps and mismatches (with the first one kept
// for the failure message).
class WindowCheck {
 public:
  explicit WindowCheck(GriddingParams params)
      : params_(params), window_(params.msp, params.tau()) {}

  void check(double x, i64 m) {
    const double p = wrap(x, double(m));
    const double want_p = ref::wrap(x, double(m));
    ++windows_;
    if (!same_double(p, want_p)) return mismatch(x, m, "wrap");
    const auto got = window_.at(p, m);
    const auto want = ref::make_window(p, m, params_.msp, params_.tau());
    fallback_taps_ += got.fallback_taps;
    if (got.cnt != want.cnt) return mismatch(x, m, "tap count");
    i64 idx[SpreadWindow::kMax];
    tap_indices(got, m, idx);
    for (int t = 0; t < got.cnt; ++t) {
      if (idx[t] != want.idx[t]) return mismatch(x, m, "index");
      if (!same_float(got.w[t], want.w[t])) return mismatch(x, m, "weight");
    }
  }

  [[nodiscard]] i64 windows() const { return windows_; }
  [[nodiscard]] i64 fallback_taps() const { return fallback_taps_; }
  [[nodiscard]] i64 mismatches() const { return mismatches_; }
  [[nodiscard]] const std::string& first_mismatch() const { return first_; }

 private:
  void mismatch(double x, i64 m, const char* what) {
    if (mismatches_++ == 0) {
      std::ostringstream os;
      os.precision(17);
      os << what << " differs at x=" << x << " m=" << m
         << " msp=" << params_.msp << " sigma=" << params_.sigma;
      first_ = os.str();
    }
  }

  GriddingParams params_;
  GaussianWindow window_;
  i64 windows_ = 0, fallback_taps_ = 0, mismatches_ = 0;
  std::string first_;
};

// Every window the operators build on the bit-identity geometries: the
// F_u1D targets σ·ν_z on the n0 axis's fine grid, and each detector row's
// F_u2D targets on the n1 and n2 axes' fine grids.
TEST(SpreadWindow, MatchesReferenceOnBitIdentityTargets) {
  const GriddingParams params;
  const auto sigma = double(params.sigma);
  WindowCheck check(params);
  auto geometries = lamino::bit_identity_geometries();
  for (const auto& g : lamino::tiny_geometries()) geometries.push_back(g);
  i64 targets = 0;
  for (const auto& g : geometries) {
    targets += g.h * (1 + 2 * g.ntheta * g.w);
    for (double nu : g.z_frequencies())
      check.check(sigma * nu, params.sigma * g.n0);
    std::vector<double> nr, nc;
    for (i64 kv = 0; kv < g.h; ++kv) {
      g.plane_frequencies(kv, nr, nc);
      for (std::size_t j = 0; j < nr.size(); ++j) {
        check.check(sigma * nr[j], params.sigma * g.n1);
        check.check(sigma * nc[j], params.sigma * g.n2);
      }
    }
  }
  EXPECT_EQ(check.mismatches(), 0) << check.first_mismatch();
  EXPECT_EQ(check.windows(), targets);
}

// Random coordinates in (−m, m) on fine grids of 4 to 4096 points, per
// (msp, σ): at least 1 M windows each, 3 M at msp 15 where the bound is
// tightest.
class SpreadWindowSweep
    : public ::testing::TestWithParam<std::tuple<int, i64, i64>> {};

TEST_P(SpreadWindowSweep, RandomPointsMatchReference) {
  const auto [msp, sigma, count] = GetParam();
  WindowCheck check({.msp = msp, .sigma = sigma});
  Rng rng(u64(1000 * msp + sigma));
  for (i64 i = 0; i < count; ++i) {
    const i64 m = rng.uniform_int(4, 4096);
    check.check(rng.uniform(-double(m), double(m)), m);
  }
  EXPECT_EQ(check.mismatches(), 0) << check.first_mismatch();
  EXPECT_EQ(check.windows(), count);
  EXPECT_GT(check.fallback_taps(), 0) << "the sweep never reached the fallback";
}

INSTANTIATE_TEST_SUITE_P(
    MspSigma, SpreadWindowSweep,
    ::testing::Values(std::tuple<int, i64, i64>{1, 2, 1000000},
                      std::tuple<int, i64, i64>{1, 3, 1000000},
                      std::tuple<int, i64, i64>{6, 2, 1000000},
                      std::tuple<int, i64, i64>{6, 3, 1000000},
                      std::tuple<int, i64, i64>{15, 2, 1500000},
                      std::tuple<int, i64, i64>{15, 3, 1500000}),
    [](const auto& info) {
      return "msp" + std::to_string(std::get<0>(info.param)) + "_sigma" +
             std::to_string(std::get<1>(info.param));
    });

// An integer coordinate puts taps at both ends of the window: 2·msp+1 of
// them, the most a window holds. Every integer point of each grid, the
// grid's own size m included.
TEST(SpreadWindow, IntegerPointsGiveFullWindows) {
  for (int msp : {1, 6, 15}) {
    for (i64 sigma : {2, 3}) {
      WindowCheck check({.msp = msp, .sigma = sigma});
      const GaussianWindow window(msp, GriddingParams{msp, sigma}.tau());
      for (i64 m : {4, 5, 12, 13, 64, 4096}) {
        for (i64 p = 0; p <= m; ++p) {
          check.check(double(p), m);
          EXPECT_EQ(window.at(double(p), m).cnt, 2 * msp + 1);
        }
      }
      EXPECT_EQ(check.mismatches(), 0) << check.first_mismatch();
    }
  }
}

// Coordinates outside (−m, m) take wrap()'s fmod path; so do ±m exactly. A
// tiny negative coordinate wraps to m itself.
TEST(SpreadWindow, WrapOutsideRangeMatchesReference) {
  Rng rng(77);
  for (int msp : {1, 6, 15}) {
    WindowCheck check({.msp = msp});
    for (i64 m : {4, 7, 64, 4096}) {
      const auto md = double(m);
      for (double x : {md, -md, 2 * md, -2 * md, -1e-300, -0.0, 0.0,
                       std::nextafter(md, 0.0), -std::nextafter(md, 0.0),
                       std::nextafter(md, 2 * md), 1e6 * md + 0.25})
        check.check(x, m);
      for (int i = 0; i < 5000; ++i) {
        const double x = rng.uniform(md, 1000 * md);
        check.check(x, m);
        check.check(-x, m);
      }
    }
    EXPECT_EQ(check.mismatches(), 0) << check.first_mismatch();
  }
  EXPECT_EQ(wrap(-1e-300, 64.0), 64.0);
}

// ---------------------------------------------------------------------------
// The plans against the scalar reference plans, bit for bit, beyond the
// operators' own (σ = 2, msp = 6) configuration: odd fine grids (σ = 3 with
// odd sizes), grids narrower than a window, and other half-widths.

struct PlanCase {
  i64 rows, cols;
  GriddingParams params;
};

std::string plan_case_name(const PlanCase& c) {
  return std::to_string(c.rows) + "x" + std::to_string(c.cols) + "_msp" +
         std::to_string(c.params.msp) + "_sigma" +
         std::to_string(c.params.sigma);
}

void PrintTo(const PlanCase& c, std::ostream* os) { *os << plan_case_name(c); }

class NufftReferenceBits : public ::testing::TestWithParam<PlanCase> {};

bool same_bits(const std::vector<cfloat>& a, const std::vector<cfloat>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

TEST_P(NufftReferenceBits, Plan2DMatchesScalarReference) {
  const auto& c = GetParam();
  const i64 j = 97;
  Rng rng(u64(7 * c.rows + c.cols));
  std::vector<double> nr(static_cast<size_t>(j)), nc(static_cast<size_t>(j));
  for (i64 i = 0; i < j; ++i) {
    nr[size_t(i)] = rng.uniform(-double(c.rows), double(c.rows));
    nc[size_t(i)] = rng.uniform(-double(c.cols), double(c.cols));
  }
  const auto f = random_signal(c.rows * c.cols, 98);
  const auto q = random_signal(j, 99);
  const Nufft2D plan(c.rows, c.cols, c.params);
  const ref::Nufft2D want_plan(c.rows, c.cols, c.params);
  for (int sign : {-1, 1}) {
    std::vector<cfloat> got(static_cast<size_t>(j)), want(static_cast<size_t>(j));
    plan.type2(nr, nc, f, got, sign);
    want_plan.type2(nr, nc, f, want, sign);
    EXPECT_TRUE(same_bits(got, want)) << "type2 sign " << sign;
    std::vector<cfloat> got1(f.size()), want1(f.size());
    plan.type1(nr, nc, q, got1, sign);
    want_plan.type1(nr, nc, q, want1, sign);
    EXPECT_TRUE(same_bits(got1, want1)) << "type1 sign " << sign;
  }
}

TEST_P(NufftReferenceBits, Plan1DMatchesScalarReference) {
  const auto& c = GetParam();
  const i64 j = 41;
  Rng rng(u64(11 * c.rows + c.cols));
  std::vector<double> nu(static_cast<size_t>(j));
  for (auto& v : nu) v = rng.uniform(-double(c.cols), double(c.cols));
  const auto f = random_signal(c.cols, 100);
  const auto q = random_signal(j, 101);
  const Nufft1D plan(c.cols, c.params);
  const ref::Nufft1D want_plan(c.cols, c.params);
  for (int sign : {-1, 1}) {
    std::vector<cfloat> got(static_cast<size_t>(j)), want(static_cast<size_t>(j));
    plan.type2(nu, f, got, sign);
    want_plan.type2(nu, f, want, sign);
    EXPECT_TRUE(same_bits(got, want)) << "type2 sign " << sign;
    std::vector<cfloat> got1(f.size()), want1(f.size());
    plan.type1(nu, q, got1, sign);
    want_plan.type1(nu, q, want1, sign);
    EXPECT_TRUE(same_bits(got1, want1)) << "type1 sign " << sign;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, NufftReferenceBits,
    ::testing::Values(PlanCase{16, 12, {}}, PlanCase{2, 2, {}},
                      PlanCase{3, 5, {}}, PlanCase{5, 7, {.sigma = 3}},
                      PlanCase{9, 3, {.msp = 15, .sigma = 3}},
                      PlanCase{2, 3, {.msp = 15, .sigma = 3}},
                      PlanCase{11, 13, {.msp = 1, .sigma = 3}},
                      PlanCase{8, 6, {.msp = 15}}),
    [](const auto& info) { return plan_case_name(info.param); });

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
