// Gaussian spreading windows of the NUFFT plans (private to src/fft/, and
// to the tests and micro-benchmarks that check it).
//
// A window around point p on a fine grid of size m holds the taps
// u = ceil(p − msp) … floor(p + msp), tap t at grid index (u mod m), with
// weight float(exp(−(u − p)²·c)), c = 1/(4τ). That float, computed as
// `float(std::exp(-d * d * c))` with d = double(u) − p, is the reference
// every weight must equal bit for bit: the operators above are chaotic in
// their outputs, so one changed weight bit changes memo hit patterns and
// Eq. 5 accuracy.
//
// Fast Gaussian gridding (Greengard & Lee, SIAM Review 46(3), 2004) builds
// the same Gaussian from two `exp`s per window instead of one per tap: with
// d0 = double(lo) − p,
//     exp(−(d0 + t)²c) = exp(−d0²c) · exp(−2·d0·c)^t · exp(−t²c),
// where the last factor comes from a table filled once per plan. The
// product is evaluated in double, D_t. It rounds to the reference float
// whenever the reference double E_t = exp(−d_t²c) lies on the same side of
// every float rounding midpoint, so a tap keeps float(D_t) only when D_t is
// more than kBandUlps double ULPs from the nearest midpoint, and otherwise
// recomputes the reference expression. Bound on |D_t − E_t| (u = 2⁻⁵³, s =
// msp ≤ 15, σ ≥ 1 so c = π(σ − ½)/(σ·s) < π/s, |d0| ≤ s, t ≤ 2s; the libm
// `exp` is taken as 1 ULP = 2u relative):
//   - argument rounding on the fast path: −d0²c (two roundings), −2·d0·c
//     (one, counted t times by the power) and −t²c (one): at most
//     u·(2d0² + 2|d0|t + t²)·c ≤ 10s²c·u ≤ 10π·s·u;
//   - the rounding of d0 itself, which shifts every tap's argument by at
//     most 2|d_t|·c·s·u ≤ 2π·s·u;
//   - the reference's own argument rounding (d, d², ·c): ≤ 4s²c·u ≤ 4π·s·u;
//   - libm error: exp(−d0²c), exp(−t²c) and the reference's exp at 2u each,
//     exp(−2·d0·c) at 2u raised to t ≤ 2s: (6 + 4s)·u;
//   - the product chain: t + 1 ≤ 2s + 1 roundings of u (the even and odd
//     chains step by the rounded square of exp(−2·d0·c), whose rounding
//     and libm error they take once per two taps, so the counts hold).
// Together ≤ 16π·s·u + (6s + 7)·u, 851u at s = 15: a relative error whose
// absolute size is below 852 ULPs of D_t. The band is 4,096 ULPs, 4.8× that;
// at 8 or 64 ULPs the window sweep in tests/fft_test.cpp finds taps that
// would round differently. Every intermediate lies within e^±190, far
// inside double range, and every weight is at least e^−48, a normal float;
// a D_t below 2·FLT_MIN or not a number also takes the reference expression.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/types.hpp"

namespace mlr::fft {

/// Wraps a real coordinate into [0, m]: fmod, plus m when negative (which can
/// round a tiny negative value up to m itself). fmod returns x unchanged
/// when −m < x < m, so that case skips it.
inline double wrap(double x, double m) {
  if (!(x > -m && x < m)) x = std::fmod(x, m);
  if (x < 0) x += m;
  return x;
}

/// The Gaussian weights around one point: tap t sits at grid index
/// (start + t) mod m and weighs w[t].
struct SpreadWindow {
  static constexpr int kMax = 32;
  i64 start = 0;          ///< grid index of tap 0, in [0, m)
  int cnt = 0;            ///< taps, at most 2·msp + 1
  int fallback_taps = 0;  ///< taps that recomputed the reference `exp`
  float w[kMax];
};

/// Grid indices of a window's taps, idx[t] = (start + t) mod m.
inline void tap_indices(const SpreadWindow& win, i64 m, i64* idx) {
  i64 u = win.start;
  for (int t = 0; t < win.cnt; ++t) {
    idx[t] = u;
    if (++u == m) u = 0;
  }
}

/// Builds the spreading windows of one (msp, τ): the per-plan table of
/// exp(−t²c) and the fast-Gaussian-gridding loop with its exact fallback.
class GaussianWindow {
 public:
  /// Band, in double ULPs of D_t, around a float rounding midpoint inside
  /// which a tap recomputes the reference `exp` (see the bound above).
  static constexpr u64 kBandUlps = 4096;

  /// msp in [1, 15]; the plans check it before building one.
  GaussianWindow(int msp, double tau)
      : msp_(msp), inv4tau_(1.0 / (4.0 * tau)) {
    for (int t = 0; t <= 2 * msp_ && t < SpreadWindow::kMax; ++t)
      tail_[t] = std::exp(-double(t * t) * inv4tau_);
  }

  /// The window around p ∈ [0, m] (a coordinate passed through wrap()).
  SpreadWindow at(double p, i64 m) const {
    SpreadWindow win;
    const i64 lo = ceil_to_int(p - msp_);
    const i64 hi = floor_to_int(p + msp_);
    win.cnt = int(std::clamp<i64>(hi - lo + 1, 0, SpreadWindow::kMax));
    win.start = lo % m;
    if (win.start < 0) win.start += m;
    const double d0 = double(lo) - p;
    // exp(−d0²c)·exp(−2·d0·c)^t as two chains, even and odd t, each
    // stepping by exp(−2·d0·c)².
    const double step = std::exp(-2.0 * d0 * inv4tau_);
    const double step2 = step * step;
    double even = std::exp(-d0 * d0 * inv4tau_);
    double odd = even * step;
    int t = 0;
    for (; t + 1 < win.cnt; t += 2) {
      set_tap(win, t, even * tail_[t], lo, p);
      set_tap(win, t + 1, odd * tail_[t + 1], lo, p);
      even *= step2;
      odd *= step2;
    }
    if (t < win.cnt) set_tap(win, t, even * tail_[t], lo, p);
    return win;
  }

 private:
  // i64(std::ceil(x)) and i64(std::floor(x)) for |x| < 2⁶³, without the
  // libm calls baseline x86-64 (no SSE4.1 `roundsd`) compiles them to.
  static i64 ceil_to_int(double x) {
    const i64 t = i64(x);  // toward zero
    return double(t) < x ? t + 1 : t;
  }
  static i64 floor_to_int(double x) {
    const i64 t = i64(x);
    return x < double(t) ? t - 1 : t;
  }

  // Tap t keeps float(v), or recomputes the reference expression.
  void set_tap(SpreadWindow& win, int t, double v, i64 lo, double p) const {
    if (near_midpoint(v)) {
      const double d = double(lo + t) - p;
      win.w[t] = float(std::exp(-d * d * inv4tau_));
      ++win.fallback_taps;
    } else {
      win.w[t] = float(v);
    }
  }

  // True when float(v) might differ from the float of a double within the
  // band around v, or when v is not a normal float above 2·FLT_MIN: the low
  // 29 mantissa bits are v's offset from the float grid in double ULPs, and
  // 2²⁸ is the rounding midpoint.
  static bool near_midpoint(double v) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    constexpr u64 kMid = u64(1) << 28;
    const u64 off = (bits & ((u64(1) << 29) - 1)) - (kMid - kBandUlps);
    return off <= 2 * kBandUlps || !(v >= 0x1p-125);
  }

  int msp_;
  double inv4tau_;
  double tail_[SpreadWindow::kMax] = {};  ///< exp(−t²c), t = 0 … 2·msp
};

}  // namespace mlr::fft
