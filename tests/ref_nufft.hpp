// The scalar reference NUFFT: the Gaussian-gridding plans as they were
// before batching, copied verbatim — one transform at a time, each spreading
// window evaluated per target with one `exp` per tap, a column gather for
// the second pass of every 2-D fine transform. The library's windows and
// plans must reproduce every output bit of it (tests/fft_test.cpp,
// tests/lamino_test.cpp). Shared by test executables, so its free functions
// are inline.
#pragma once

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fft/fft.hpp"
#include "fft/nufft.hpp"

namespace mlr::ref {

inline constexpr double kPi = std::numbers::pi;

inline double wrap(double x, double m) {
  x = std::fmod(x, m);
  if (x < 0) x += m;
  return x;
}

inline void dft_sign(const fft::Plan1D& plan, std::span<cfloat> a, int sign) {
  if (sign < 0) {
    plan.forward(a);
  } else {
    plan.inverse(a);
    const float m = float(a.size());
    for (auto& x : a) x *= m;
  }
}

struct SpreadWindow {
  static constexpr int kMax = 32;
  i64 idx[kMax];
  float w[kMax];
  int cnt = 0;
};

inline SpreadWindow make_window(double p, i64 m, int msp, double tau) {
  SpreadWindow win;
  const i64 lo = i64(std::ceil(p - msp));
  const i64 hi = i64(std::floor(p + msp));
  const double inv4tau = 1.0 / (4.0 * tau);
  for (i64 u = lo; u <= hi && win.cnt < SpreadWindow::kMax; ++u) {
    const double d = double(u) - p;
    win.idx[win.cnt] = (u % m + m) % m;
    win.w[win.cnt] = float(std::exp(-d * d * inv4tau));
    ++win.cnt;
  }
  return win;
}

inline std::vector<float> make_deconv(i64 n, i64 m, double tau) {
  std::vector<float> d(static_cast<size_t>(n));
  const double norm = std::sqrt(4.0 * kPi * tau);
  for (i64 k = 0; k < n; ++k) {
    const i64 kc = fft::to_centered(k, n);
    const double w = 2.0 * kPi * double(kc) / double(m);
    d[size_t(k)] = float(1.0 / (norm * std::exp(-tau * w * w)));
  }
  return d;
}

using fft::from_centered;
using fft::to_centered;

class Nufft1D {
 public:
  explicit Nufft1D(i64 n, fft::GriddingParams params = {})
      : n_(n), m_(params.sigma * n), params_(params),
        deconv_(make_deconv(n_, m_, params_.tau())), fine_plan_(m_) {}

  void type2(std::span<const double> nu, std::span<const cfloat> f,
             std::span<cfloat> out, int sign) const {
    const double tau = params_.tau();
    std::vector<cfloat> g(size_t(m_), cfloat{});
    for (i64 k = 0; k < n_; ++k) {
      const i64 kc = to_centered(k, n_);
      g[size_t(from_centered(kc, m_))] = f[size_t(k)] * deconv_[size_t(k)];
    }
    dft_sign(fine_plan_, {g.data(), size_t(m_)}, sign);
    const auto sigma = double(params_.sigma);
    for (std::size_t j = 0; j < nu.size(); ++j) {
      const double p = wrap(sigma * nu[j], double(m_));
      const auto win = make_window(p, m_, params_.msp, tau);
      cfloat acc{};
      for (int t = 0; t < win.cnt; ++t) acc += g[size_t(win.idx[t])] * win.w[t];
      out[j] = acc;
    }
  }

  void type1(std::span<const double> nu, std::span<const cfloat> q,
             std::span<cfloat> out, int sign) const {
    const double tau = params_.tau();
    std::vector<cfloat> g(size_t(m_), cfloat{});
    const auto sigma = double(params_.sigma);
    for (std::size_t j = 0; j < nu.size(); ++j) {
      const double p = wrap(sigma * nu[j], double(m_));
      const auto win = make_window(p, m_, params_.msp, tau);
      for (int t = 0; t < win.cnt; ++t) g[size_t(win.idx[t])] += q[j] * win.w[t];
    }
    dft_sign(fine_plan_, {g.data(), size_t(m_)}, sign);
    for (i64 k = 0; k < n_; ++k) {
      const i64 kc = to_centered(k, n_);
      out[size_t(k)] =
          g[size_t(from_centered(kc, m_))] * deconv_[size_t(k)];
    }
  }

 private:
  i64 n_, m_;
  fft::GriddingParams params_;
  std::vector<float> deconv_;
  fft::Plan1D fine_plan_;
};

class Nufft2D {
 public:
  Nufft2D(i64 rows, i64 cols, fft::GriddingParams params = {})
      : rows_(rows), cols_(cols), mr_(params.sigma * rows),
        mc_(params.sigma * cols), params_(params),
        deconv_r_(make_deconv(rows_, mr_, params_.tau())),
        deconv_c_(make_deconv(cols_, mc_, params_.tau())),
        fine_plan_r_(mr_), fine_plan_c_(mc_) {}

  void type2(std::span<const double> nu_r, std::span<const double> nu_c,
             std::span<const cfloat> f, std::span<cfloat> out,
             int sign) const {
    const double tau = params_.tau();
    std::vector<cfloat> g(size_t(mr_ * mc_), cfloat{});
    for (i64 r = 0; r < rows_; ++r) {
      const i64 rf = from_centered(to_centered(r, rows_), mr_);
      for (i64 c = 0; c < cols_; ++c) {
        const i64 cf = from_centered(to_centered(c, cols_), mc_);
        g[size_t(rf * mc_ + cf)] = f[size_t(r * cols_ + c)] *
                                   deconv_r_[size_t(r)] * deconv_c_[size_t(c)];
      }
    }
    fine_fft2d({g.data(), g.size()}, sign);
    const auto sigma = double(params_.sigma);
    for (std::size_t j = 0; j < nu_r.size(); ++j) {
      const double pr = wrap(sigma * nu_r[j], double(mr_));
      const double pc = wrap(sigma * nu_c[j], double(mc_));
      const auto wr = make_window(pr, mr_, params_.msp, tau);
      const auto wc = make_window(pc, mc_, params_.msp, tau);
      cfloat acc{};
      for (int a = 0; a < wr.cnt; ++a) {
        const cfloat* row = g.data() + wr.idx[a] * mc_;
        cfloat racc{};
        for (int b = 0; b < wc.cnt; ++b) racc += row[wc.idx[b]] * wc.w[b];
        acc += racc * wr.w[a];
      }
      out[j] = acc;
    }
  }

  void type1(std::span<const double> nu_r, std::span<const double> nu_c,
             std::span<const cfloat> q, std::span<cfloat> out,
             int sign) const {
    const double tau = params_.tau();
    std::vector<cfloat> g(size_t(mr_ * mc_), cfloat{});
    const auto sigma = double(params_.sigma);
    for (std::size_t j = 0; j < nu_r.size(); ++j) {
      const double pr = wrap(sigma * nu_r[j], double(mr_));
      const double pc = wrap(sigma * nu_c[j], double(mc_));
      const auto wr = make_window(pr, mr_, params_.msp, tau);
      const auto wc = make_window(pc, mc_, params_.msp, tau);
      for (int a = 0; a < wr.cnt; ++a) {
        cfloat* row = g.data() + wr.idx[a] * mc_;
        const cfloat qa = q[j] * wr.w[a];
        for (int b = 0; b < wc.cnt; ++b) row[wc.idx[b]] += qa * wc.w[b];
      }
    }
    fine_fft2d({g.data(), g.size()}, sign);
    for (i64 r = 0; r < rows_; ++r) {
      const i64 rf = from_centered(to_centered(r, rows_), mr_);
      for (i64 c = 0; c < cols_; ++c) {
        const i64 cf = from_centered(to_centered(c, cols_), mc_);
        out[size_t(r * cols_ + c)] = g[size_t(rf * mc_ + cf)] *
                                     deconv_r_[size_t(r)] *
                                     deconv_c_[size_t(c)];
      }
    }
  }

 private:
  void fine_fft2d(std::span<cfloat> g, int sign) const {
    for (i64 r = 0; r < mr_; ++r)
      dft_sign(fine_plan_c_, g.subspan(size_t(r * mc_), size_t(mc_)), sign);
    std::vector<cfloat> col(static_cast<size_t>(mr_));
    for (i64 c = 0; c < mc_; ++c) {
      for (i64 r = 0; r < mr_; ++r) col[size_t(r)] = g[size_t(r * mc_ + c)];
      dft_sign(fine_plan_r_, {col.data(), size_t(mr_)}, sign);
      for (i64 r = 0; r < mr_; ++r) g[size_t(r * mc_ + c)] = col[size_t(r)];
    }
  }

  i64 rows_, cols_, mr_, mc_;
  fft::GriddingParams params_;
  std::vector<float> deconv_r_, deconv_c_;
  fft::Plan1D fine_plan_r_, fine_plan_c_;
};

}  // namespace mlr::ref
