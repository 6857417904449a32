// Non-uniform FFT (NUFFT), Dutt–Rokhlin / Greengard–Lee Gaussian gridding.
//
// The laminography operators F_u1D / F_u2D evaluate Fourier transforms on
// *unequally spaced* frequency grids (paper §2, refs [3,11]). This module
// provides the two required primitives:
//
//   type-2 ("uniform → nonuniform"):
//       F_j = Σ_k f_k · exp(sign·2πi · k̃ · ν_j / n),   k̃ = k − n/2 centered
//   type-1 ("nonuniform → uniform"), the exact transpose:
//       H_k = Σ_j q_j · exp(sign·2πi · k̃ · ν_j / n)
//
// so that type1(−sign) is the exact adjoint (conjugate transpose) of
// type2(sign) — the property the ADMM conjugate-gradient solver relies on.
//
// Accuracy: oversampling σ=2 and spreading half-width Msp=6 give ~1e-6
// relative error (single precision), verified against the naive NDFT in
// tests/fft_test.cpp.
//
// Cost: per-call frequencies are not free. Every target evaluates a
// spreading window of 2·Msp+1 Gaussian weights, and a 2-D target evaluates
// two. A window costs two `exp`s (fast Gaussian gridding, fft/window.hpp)
// plus a per-plan table of exp(−t²/(4τ)); a tap whose product lands near a
// float rounding midpoint recomputes the weight with its own `exp`, so every
// weight is the float of exp(−d²/(4τ)). The 1-D plan amortises its windows
// over many lanes per call; the 2-D plan evaluates them per target per call
// and runs two grid rows (interpolation) or two adjacent grid cells
// (spreading) per SSE register. No state grows with the geometry.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace mlr::fft {

/// Gaussian spreading parameters shared by the 1-D and 2-D transforms.
struct GriddingParams {
  int msp = 6;        ///< spreading half-width in fine-grid points, 1..15
  i64 sigma = 2;      ///< oversampling factor (fine grid m = sigma·n)
  [[nodiscard]] double tau() const;  ///< Gaussian width in fine-grid units²
};

/// 1-D NUFFT plan for a fixed uniform length n. The nonuniform frequencies
/// are passed per call, and each call evaluates one spreading window (two
/// `exp`s and 2·msp+1 products) per frequency. To amortise them, a call
/// transforms `lanes` independent inputs at once: element k of lane b is
/// f[k*lanes + b], target j of lane b is out[j*lanes + b]. Every lane's
/// output bits equal those of a one-lane call on that lane alone.
class Nufft1D {
 public:
  /// Throws mlr::Error unless 1 <= params.msp <= 15 (a window holds at most
  /// 31 taps) and params.sigma >= 1.
  explicit Nufft1D(i64 n, GriddingParams params = {});

  [[nodiscard]] i64 n() const { return n_; }
  [[nodiscard]] i64 fine_size() const { return m_; }

  /// Uniform (length n per lane) → nonuniform (length nu.size() per lane).
  void type2(std::span<const double> nu, std::span<const cfloat> f,
             std::span<cfloat> out, int sign, i64 lanes = 1) const;
  /// Nonuniform (length nu.size() per lane) → uniform (length n per lane).
  /// Accumulates into `out` after zeroing it.
  void type1(std::span<const double> nu, std::span<const cfloat> q,
             std::span<cfloat> out, int sign, i64 lanes = 1) const;

  /// FLOP estimate for one lane of a type-2/type-1 call with `npts` targets
  /// (cost model input for the simulated GPU).
  [[nodiscard]] double flops(i64 npts) const;

 private:
  i64 n_, m_;
  GriddingParams params_;
  std::shared_ptr<const class GaussianWindow> window_;
  std::vector<float> deconv_;  // 1/ψ̂(k̃) for each uniform mode (storage order)
  // Plan1D execute() is const-thread-safe, so one fine-grid plan serves
  // every calling thread.
  std::shared_ptr<const class Plan1D> fine_plan_;
};

/// 2-D NUFFT plan over an (rows × cols) uniform grid; nonuniform points are
/// (ν_r, ν_c) pairs in cycles.
class Nufft2D {
 public:
  /// Throws mlr::Error unless 1 <= params.msp <= 15 and params.sigma >= 1.
  Nufft2D(i64 rows, i64 cols, GriddingParams params = {});

  [[nodiscard]] i64 rows() const { return rows_; }
  [[nodiscard]] i64 cols() const { return cols_; }

  /// Uniform (rows·cols row-major) → nonuniform (nu_r.size() targets).
  void type2(std::span<const double> nu_r, std::span<const double> nu_c,
             std::span<const cfloat> f, std::span<cfloat> out,
             int sign) const;
  /// Nonuniform → uniform (rows·cols). Zeroes `out` first.
  void type1(std::span<const double> nu_r, std::span<const double> nu_c,
             std::span<const cfloat> q, std::span<cfloat> out,
             int sign) const;

  [[nodiscard]] double flops(i64 npts) const;

 private:
  i64 rows_, cols_, mr_, mc_;
  GriddingParams params_;
  std::shared_ptr<const class GaussianWindow> window_;
  std::vector<float> deconv_r_, deconv_c_;
  std::shared_ptr<const class Plan1D> fine_plan_r_, fine_plan_c_;

  void fine_fft2d(std::span<cfloat> g, int sign) const;
};

/// Naive O(n·J) nonuniform DFT references used by tests and tiny problems.
void ndft1d_type2(std::span<const double> nu, std::span<const cfloat> f,
                  std::span<cfloat> out, int sign);
void ndft1d_type1(std::span<const double> nu, std::span<const cfloat> q,
                  std::span<cfloat> out, i64 n, int sign);
void ndft2d_type2(std::span<const double> nu_r, std::span<const double> nu_c,
                  i64 rows, i64 cols, std::span<const cfloat> f,
                  std::span<cfloat> out, int sign);
void ndft2d_type1(std::span<const double> nu_r, std::span<const double> nu_c,
                  i64 rows, i64 cols, std::span<const cfloat> q,
                  std::span<cfloat> out, int sign);

}  // namespace mlr::fft
