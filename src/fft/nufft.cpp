#include "fft/nufft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/scratch.hpp"
#include "fft/fft.hpp"
#include "fft/simd.hpp"
#include "fft/window.hpp"

namespace mlr::fft {

namespace {

using namespace simd;

constexpr double kPi = std::numbers::pi;

// Execute length-m DFTs of a packed m×lanes batch with explicit sign:
// sign=-1 is the forward convention of Plan1D; sign=+1 is the unscaled
// conjugate transform.
void dft_sign(const Plan1D& plan, cfloat* a, i64 lanes, int sign) {
  plan.execute_batch(a, lanes, lanes, /*inverse=*/sign > 0);
  if (sign > 0) {
    const float m = float(plan.size());
    for (i64 i = 0; i < plan.size() * lanes; ++i) a[i] *= m;
  }
}

// 1/ψ̂ deconvolution factors in storage order for n uniform modes on a fine
// grid of size m. ψ̂(k̃) = √(4πτ)·exp(−τ(2πk̃/m)²).
std::vector<float> make_deconv(i64 n, i64 m, double tau) {
  std::vector<float> d(static_cast<size_t>(n));
  const double norm = std::sqrt(4.0 * kPi * tau);
  for (i64 k = 0; k < n; ++k) {
    const i64 kc = to_centered(k, n);
    const double w = 2.0 * kPi * double(kc) / double(m);
    d[size_t(k)] = float(1.0 / (norm * std::exp(-tau * w * w)));
  }
  return d;
}

// Per-thread working storage shared by every plan: the fine grid (m×lanes
// in 1-D, mr×mc in 2-D), zeroed and filled per call, and the transposed copy
// a 2-D fine FFT runs its row pass on. A NUFFT call runs no other NUFFT
// call, so one buffer each per thread serves every plan, and the footprint
// does not grow with the number of plans.
const PerThreadScratch<cfloat> grid_scratch;
const PerThreadScratch<cfloat> transpose_scratch;

// Rejects a spreading half-width whose 2·msp+1 taps overflow SpreadWindow,
// and an oversampling factor below 1, outside the window's error bound.
void check_params(const GriddingParams& params) {
  MLR_CHECK_MSG(params.msp >= 1 && 2 * params.msp + 1 <= SpreadWindow::kMax,
                "spreading half-width msp must be in [1, 15]");
  MLR_CHECK_MSG(params.sigma >= 1, "oversampling factor sigma must be >= 1");
}

}  // namespace

double GriddingParams::tau() const {
  // Greengard–Lee optimal width for oversampling σ: τ (in fine-grid units²)
  // = Msp·σ / (4π(σ−0.5)); for σ=2 this is Msp/(3π).
  return double(msp) * double(sigma) / (4.0 * kPi * (double(sigma) - 0.5));
}

Nufft1D::Nufft1D(i64 n, GriddingParams params)
    : n_(n), m_(params.sigma * n), params_(params) {
  MLR_CHECK(n >= 2);
  check_params(params_);
  window_ = std::make_shared<GaussianWindow>(params_.msp, params_.tau());
  deconv_ = make_deconv(n_, m_, params_.tau());
  fine_plan_ = std::make_shared<Plan1D>(m_);
}

void Nufft1D::type2(std::span<const double> nu, std::span<const cfloat> f,
                    std::span<cfloat> out, int sign, i64 lanes) const {
  MLR_CHECK(lanes >= 1);
  MLR_CHECK(i64(f.size()) == n_ * lanes);
  MLR_CHECK(i64(out.size()) == i64(nu.size()) * lanes);
  // 1) deconvolve and zero-pad into the fine grid (storage order: index
  //    k̃ mod m).
  auto g = grid_scratch.buffer(size_t(m_ * lanes));
  std::fill(g.begin(), g.end(), cfloat{});
  for (i64 k = 0; k < n_; ++k) {
    const i64 kc = to_centered(k, n_);
    const float d = deconv_[size_t(k)];
    const cfloat* src = f.data() + k * lanes;
    cfloat* dst = g.data() + from_centered(kc, m_) * lanes;
    for (i64 b = 0; b < lanes; ++b) dst[b] = src[b] * d;
  }
  // 2) fine-grid DFT from mode index to spatial index.
  dft_sign(*fine_plan_, g.data(), lanes, sign);
  // 3) interpolate at σ·ν_j, one window for all lanes. Each lane's sum
  //    stays in a register across the window's taps.
  const auto sigma = double(params_.sigma);
  for (std::size_t j = 0; j < nu.size(); ++j) {
    const auto win = window_->at(wrap(sigma * nu[j], double(m_)), m_);
    i64 idx[SpreadWindow::kMax];
    tap_indices(win, m_, idx);
    cfloat* acc = out.data() + i64(j) * lanes;
    for_lanes(
        lanes,
        [&](i64 b) {
          f32x4 sum = splat(0.0f);
          for (int t = 0; t < win.cnt; ++t)
            sum += load2(g.data() + idx[t] * lanes + b) * splat(win.w[t]);
          store2(acc + b, sum);
        },
        [&](i64 b) {
          cfloat sum{};
          for (int t = 0; t < win.cnt; ++t)
            sum += g[size_t(idx[t] * lanes + b)] * win.w[t];
          acc[b] = sum;
        });
  }
}

void Nufft1D::type1(std::span<const double> nu, std::span<const cfloat> q,
                    std::span<cfloat> out, int sign, i64 lanes) const {
  MLR_CHECK(lanes >= 1);
  MLR_CHECK(i64(q.size()) == i64(nu.size()) * lanes);
  MLR_CHECK(i64(out.size()) == n_ * lanes);
  // 1) spread onto the fine grid, one window for all lanes.
  auto g = grid_scratch.buffer(size_t(m_ * lanes));
  std::fill(g.begin(), g.end(), cfloat{});
  const auto sigma = double(params_.sigma);
  for (std::size_t j = 0; j < nu.size(); ++j) {
    const auto win = window_->at(wrap(sigma * nu[j], double(m_)), m_);
    const cfloat* src = q.data() + i64(j) * lanes;
    i64 u = win.start;
    for (int t = 0; t < win.cnt; ++t) {
      cfloat* dst = g.data() + u * lanes;
      const float w = win.w[t];
      for (i64 b = 0; b < lanes; ++b) dst[b] += src[b] * w;
      if (++u == m_) u = 0;
    }
  }
  // 2) fine-grid DFT from spatial index to mode index.
  dft_sign(*fine_plan_, g.data(), lanes, sign);
  // 3) deconvolve, truncate to the n central modes.
  for (i64 k = 0; k < n_; ++k) {
    const i64 kc = to_centered(k, n_);
    const float d = deconv_[size_t(k)];
    const cfloat* src = g.data() + from_centered(kc, m_) * lanes;
    cfloat* dst = out.data() + k * lanes;
    for (i64 b = 0; b < lanes; ++b) dst[b] = src[b] * d;
  }
}

double Nufft1D::flops(i64 npts) const {
  return fft_flops(m_) + double(npts) * double(2 * params_.msp + 1) * 8.0 +
         double(n_) * 6.0;
}

Nufft2D::Nufft2D(i64 rows, i64 cols, GriddingParams params)
    : rows_(rows),
      cols_(cols),
      mr_(params.sigma * rows),
      mc_(params.sigma * cols),
      params_(params) {
  MLR_CHECK(rows >= 2 && cols >= 2);
  check_params(params_);
  window_ = std::make_shared<GaussianWindow>(params_.msp, params_.tau());
  deconv_r_ = make_deconv(rows_, mr_, params_.tau());
  deconv_c_ = make_deconv(cols_, mc_, params_.tau());
  fine_plan_r_ = std::make_shared<Plan1D>(mr_);
  fine_plan_c_ = std::make_shared<Plan1D>(mc_);
}

void Nufft2D::fine_fft2d(std::span<cfloat> g, int sign) const {
  // Row pass on a transposed copy, where row r is lane r; then the column
  // pass in place, where column c is lane c.
  auto t = transpose_scratch.buffer(g.size());
  transpose(g.data(), mr_, mc_, t.data());
  dft_sign(*fine_plan_c_, t.data(), mr_, sign);
  transpose(t.data(), mc_, mr_, g.data());
  dft_sign(*fine_plan_r_, g.data(), mc_, sign);
}

void Nufft2D::type2(std::span<const double> nu_r,
                    std::span<const double> nu_c,
                    std::span<const cfloat> f, std::span<cfloat> out,
                    int sign) const {
  MLR_CHECK(i64(f.size()) == rows_ * cols_);
  MLR_CHECK(nu_r.size() == nu_c.size() && out.size() == nu_r.size());
  auto g = grid_scratch.buffer(size_t(mr_ * mc_));
  std::fill(g.begin(), g.end(), cfloat{});
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
    const auto wr = window_->at(wrap(sigma * nu_r[j], double(mr_)), mr_);
    const auto wc = window_->at(wrap(sigma * nu_c[j], double(mc_)), mc_);
    i64 ci[SpreadWindow::kMax];
    tap_indices(wc, mc_, ci);
    f32x4 wv[SpreadWindow::kMax];
    for (int b = 0; b < wc.cnt; ++b) wv[b] = splat(wc.w[b]);
    // Row a's sum over the column taps, then acc += sum·wr[a] in a-order.
    // Four rows sum side by side, two per register (one per half), each
    // over b in the scalar order; the last cnt mod 4 rows run the scalar
    // loop.
    cfloat acc{};
    i64 r = wr.start;
    const auto next_row = [&] {
      const cfloat* row = g.data() + r * mc_;
      if (++r == mr_) r = 0;
      return row;
    };
    int a = 0;
    for (; a + 3 < wr.cnt; a += 4) {
      const cfloat* row0 = next_row();
      const cfloat* row1 = next_row();
      const cfloat* row2 = next_row();
      const cfloat* row3 = next_row();
      f32x4 racc0 = splat(0.0f), racc1 = splat(0.0f);
      for (int b = 0; b < wc.cnt; ++b) {
        racc0 += load_pair(row0 + ci[b], row1 + ci[b]) * wv[b];
        racc1 += load_pair(row2 + ci[b], row3 + ci[b]) * wv[b];
      }
      acc += low(racc0) * wr.w[a];
      acc += high(racc0) * wr.w[a + 1];
      acc += low(racc1) * wr.w[a + 2];
      acc += high(racc1) * wr.w[a + 3];
    }
    for (; a < wr.cnt; ++a) {
      const cfloat* row = next_row();
      cfloat racc{};
      for (int b = 0; b < wc.cnt; ++b) racc += row[ci[b]] * wc.w[b];
      acc += racc * wr.w[a];
    }
    out[j] = acc;
  }
}

void Nufft2D::type1(std::span<const double> nu_r,
                    std::span<const double> nu_c,
                    std::span<const cfloat> q, std::span<cfloat> out,
                    int sign) const {
  MLR_CHECK(nu_r.size() == nu_c.size() && q.size() == nu_r.size());
  MLR_CHECK(i64(out.size()) == rows_ * cols_);
  auto g = grid_scratch.buffer(size_t(mr_ * mc_));
  std::fill(g.begin(), g.end(), cfloat{});
  const auto sigma = double(params_.sigma);
  const u32x4 kBoth{~0u, ~0u, ~0u, ~0u}, kLow{~0u, ~0u, 0u, 0u},
      kHigh{0u, 0u, ~0u, ~0u};
  for (std::size_t j = 0; j < nu_r.size(); ++j) {
    const auto wr = window_->at(wrap(sigma * nu_r[j], double(mr_)), mr_);
    const auto wc = window_->at(wrap(sigma * nu_c[j], double(mc_)), mc_);
    // The column taps as steps over cell pairs, built once per target and
    // run in b-order on every row. A step adds to both cells of a pair that
    // starts on an even column inside the row, or to one cell with the other
    // half's product masked to +0.0: that leaves the other cell's bits alone,
    // since a cell starts at +0.0 and a round-to-nearest sum is −0.0 only
    // when both terms are. A cell a window visits twice (m < 2·msp+1) takes
    // its adds in separate steps, in the scalar order.
    i64 col[SpreadWindow::kMax];
    f32x4 wv[SpreadWindow::kMax];
    u32x4 keep[SpreadWindow::kMax];
    int steps = 0;
    i64 c = wc.start;
    for (int b = 0; b < wc.cnt; ++steps) {
      const bool low = (c & 1) == 0 && c + 1 < mc_;  // c opens a pair
      const bool pair = low && b + 1 < wc.cnt;
      col[steps] = low ? c : c - 1;
      wv[steps] = pair_weights(wc.w[b], wc.w[pair ? b + 1 : b]);
      keep[steps] = pair ? kBoth : low ? kLow : kHigh;
      const int taps = pair ? 2 : 1;
      b += taps;
      c += taps;
      if (c == mc_) c = 0;
    }
    i64 r = wr.start;
    for (int a = 0; a < wr.cnt; ++a) {
      cfloat* row = g.data() + r * mc_;
      if (++r == mr_) r = 0;
      const f32x4 qv = dup(q[j] * wr.w[a]);
      for (int k = 0; k < steps; ++k) {
        const f32x4 add = (f32x4)((u32x4)(qv * wv[k]) & keep[k]);
        store2(row + col[k], load2(row + col[k]) + add);
      }
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

double Nufft2D::flops(i64 npts) const {
  const double w = double(2 * params_.msp + 1);
  return double(mr_) * fft_flops(mc_) + double(mc_) * fft_flops(mr_) +
         double(npts) * w * w * 8.0 + double(rows_ * cols_) * 6.0;
}

// ---------------------------------------------------------------------------
// Naive references.

void ndft1d_type2(std::span<const double> nu, std::span<const cfloat> f,
                  std::span<cfloat> out, int sign) {
  const i64 n = i64(f.size());
  for (std::size_t j = 0; j < nu.size(); ++j) {
    cdouble acc{};
    for (i64 k = 0; k < n; ++k) {
      const double ang =
          double(sign) * 2.0 * kPi * double(to_centered(k, n)) * nu[j] /
          double(n);
      acc += cdouble(f[size_t(k)]) * std::polar(1.0, ang);
    }
    out[j] = cfloat(acc);
  }
}

void ndft1d_type1(std::span<const double> nu, std::span<const cfloat> q,
                  std::span<cfloat> out, i64 n, int sign) {
  for (i64 k = 0; k < n; ++k) {
    cdouble acc{};
    for (std::size_t j = 0; j < nu.size(); ++j) {
      const double ang =
          double(sign) * 2.0 * kPi * double(to_centered(k, n)) * nu[j] /
          double(n);
      acc += cdouble(q[j]) * std::polar(1.0, ang);
    }
    out[size_t(k)] = cfloat(acc);
  }
}

void ndft2d_type2(std::span<const double> nu_r, std::span<const double> nu_c,
                  i64 rows, i64 cols, std::span<const cfloat> f,
                  std::span<cfloat> out, int sign) {
  for (std::size_t j = 0; j < nu_r.size(); ++j) {
    cdouble acc{};
    for (i64 r = 0; r < rows; ++r) {
      for (i64 c = 0; c < cols; ++c) {
        const double ang = double(sign) * 2.0 * kPi *
                           (double(to_centered(r, rows)) * nu_r[j] / double(rows) +
                            double(to_centered(c, cols)) * nu_c[j] / double(cols));
        acc += cdouble(f[size_t(r * cols + c)]) * std::polar(1.0, ang);
      }
    }
    out[j] = cfloat(acc);
  }
}

void ndft2d_type1(std::span<const double> nu_r, std::span<const double> nu_c,
                  i64 rows, i64 cols, std::span<const cfloat> q,
                  std::span<cfloat> out, int sign) {
  for (i64 r = 0; r < rows; ++r) {
    for (i64 c = 0; c < cols; ++c) {
      cdouble acc{};
      for (std::size_t j = 0; j < nu_r.size(); ++j) {
        const double ang = double(sign) * 2.0 * kPi *
                           (double(to_centered(r, rows)) * nu_r[j] / double(rows) +
                            double(to_centered(c, cols)) * nu_c[j] / double(cols));
        acc += cdouble(q[j]) * std::polar(1.0, ang);
      }
      out[size_t(r * cols + c)] = cfloat(acc);
    }
  }
}

}  // namespace mlr::fft
