#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <unordered_map>

#include "common/error.hpp"
#include "common/scratch.hpp"
#include "fft/simd.hpp"

namespace mlr::fft {

namespace {

using namespace simd;

constexpr double kPi = std::numbers::pi;

bool is_pow2(i64 n) { return n > 0 && (n & (n - 1)) == 0; }

i64 next_pow2(i64 n) {
  i64 p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<u64> make_bitrev(i64 n) {
  std::vector<u64> rev(static_cast<size_t>(n));
  int bits = 0;
  while ((i64(1) << bits) < n) ++bits;
  for (i64 i = 0; i < n; ++i) {
    u64 r = 0;
    for (int b = 0; b < bits; ++b)
      if (i & (i64(1) << b)) r |= u64(1) << (bits - 1 - b);
    rev[size_t(i)] = r;
  }
  return rev;
}

std::vector<cfloat> make_twiddles(i64 n) {
  std::vector<cfloat> tw(size_t(n / 2));
  for (i64 k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * kPi * double(k) / double(n);
    tw[size_t(k)] = cfloat(float(std::cos(ang)), float(std::sin(ang)));
  }
  return tw;
}

// Operands for multiplying two lanes by one complex c: `re` holds c.re in
// every slot, `im` holds (−c.im, c.im, −c.im, c.im).
struct Twiddle {
  explicit Twiddle(cfloat c)
      : re(splat(c.real())), im{-c.imag(), c.imag(), -c.imag(), c.imag()} {}
  f32x4 re, im;
};

// x·c for two lanes of x, as std::complex<float>'s multiply computes it:
// (xr·cr − xi·ci, xi·cr + xr·ci). The swapped product supplies xi·(−ci),
// which is −(xi·ci) exactly, and a + (−b) is a − b exactly.
f32x4 cmul2(f32x4 x, const Twiddle& c) {
  const f32x4 swapped = __builtin_shufflevector(x, x, 1, 0, 3, 2);
  return x * c.re + swapped * c.im;
}

// Iterative radix-2 Cooley–Tukey, decimation in time, over a batch: element
// j of lane b at a[j*ld + b]. Each lane sees the one-lane loop's butterflies
// in its order.
void fft_pow2_batch(cfloat* a, i64 n, i64 ld, i64 lanes,
                    const std::vector<cfloat>& tw, const std::vector<u64>& rev,
                    bool inverse) {
  for (i64 i = 0; i < n; ++i) {
    const auto j = i64(rev[size_t(i)]);
    if (i < j) std::swap_ranges(a + i * ld, a + i * ld + lanes, a + j * ld);
  }
  for (i64 len = 2; len <= n; len <<= 1) {
    const i64 half = len / 2;
    const i64 step = n / len;  // twiddle stride
    for (i64 base = 0; base < n; base += len) {
      for (i64 k = 0; k < half; ++k) {
        cfloat w = tw[size_t(k * step)];
        if (inverse) w = std::conj(w);
        const Twiddle wv(w);
        cfloat* top = a + (base + k) * ld;
        cfloat* bot = top + half * ld;
        for_lanes(
            lanes,
            [&](i64 b) {
              const f32x4 u = load2(top + b);
              const f32x4 t = cmul2(load2(bot + b), wv);
              store2(top + b, u + t);
              store2(bot + b, u - t);
            },
            [&](i64 b) {
              const cfloat u = top[b];
              const cfloat t = bot[b] * w;
              top[b] = u + t;
              bot[b] = u - t;
            });
      }
    }
  }
  if (inverse) {
    const float inv = 1.0f / float(n);
    for (i64 j = 0; j < n; ++j)
      for (i64 b = 0; b < lanes; ++b) a[j * ld + b] *= inv;
  }
}

// Per-thread working storage shared by every plan: the m×lanes Bluestein
// convolution grid, and the transposed copy fft2d_span runs its row pass on.
// No buffer is requested again while in use on the same thread (a Bluestein
// transform runs no other Bluestein transform, fft2d_span no other
// fft2d_span), so one buffer each per thread serves all plans and lengths,
// and the footprint does not grow with the number of plans.
const PerThreadScratch<cfloat> bluestein_scratch;
const PerThreadScratch<cfloat> transpose_scratch;

}  // namespace

Plan1D::Plan1D(i64 n) : n_(n), pow2_(is_pow2(n)) {
  MLR_CHECK_MSG(n >= 1, "FFT length must be positive");
  if (n_ == 1) return;
  if (pow2_) {
    twiddle_ = make_twiddles(n_);
    bitrev_ = make_bitrev(n_);
    return;
  }
  // Bluestein setup: x[k]·chirp[k], convolve with conj chirp, multiply chirp.
  m_ = next_pow2(2 * n_ - 1);
  chirp_.resize(static_cast<size_t>(n_));
  for (i64 k = 0; k < n_; ++k) {
    // exp(-iπ k²/n); reduce k² mod 2n to keep the angle accurate for large k.
    const i64 k2 = (k * k) % (2 * n_);
    const double ang = -kPi * double(k2) / double(n_);
    chirp_[size_t(k)] = cfloat(float(std::cos(ang)), float(std::sin(ang)));
  }
  mtw_ = make_twiddles(m_);
  mbitrev_ = make_bitrev(m_);
  std::vector<cfloat> b(size_t(m_), cfloat{});
  b[0] = std::conj(chirp_[0]);
  for (i64 k = 1; k < n_; ++k) {
    b[size_t(k)] = std::conj(chirp_[size_t(k)]);
    b[size_t(m_ - k)] = std::conj(chirp_[size_t(k)]);
  }
  fft_pow2_batch(b.data(), m_, 1, 1, mtw_, mbitrev_, /*inverse=*/false);
  chirp_fft_ = std::move(b);
}

void Plan1D::execute(std::span<cfloat> data, bool inverse) const {
  MLR_CHECK(i64(data.size()) == n_);
  execute_batch(data.data(), 1, 1, inverse);
}

void Plan1D::execute_batch(cfloat* data, i64 ld, i64 lanes,
                           bool inverse) const {
  MLR_CHECK(lanes >= 1 && ld >= lanes);
  if (n_ == 1) return;
  if (pow2_) {
    fft_pow2_batch(data, n_, ld, lanes, twiddle_, bitrev_, inverse);
  } else {
    execute_bluestein(data, ld, lanes, inverse);
  }
}

void Plan1D::execute_bluestein(cfloat* data, i64 ld, i64 lanes,
                               bool inverse) const {
  // Inverse transform = conj(forward(conj(x)))/n. The convolution runs on a
  // packed m×lanes grid.
  auto a = bluestein_scratch.buffer(size_t(m_ * lanes));
  std::fill(a.begin() + n_ * lanes, a.end(), cfloat{});  // zero-pad [n, m)
  const f32x4 conj_in = inverse ? f32x4{1, -1, 1, -1} : splat(1);
  for (i64 k = 0; k < n_; ++k) {
    const cfloat c = chirp_[size_t(k)];
    const Twiddle cv(c);
    const cfloat* x = data + k * ld;
    cfloat* y = a.data() + k * lanes;
    for_lanes(
        lanes, [&](i64 b) { store2(y + b, cmul2(load2(x + b) * conj_in, cv)); },
        [&](i64 b) { y[b] = (inverse ? std::conj(x[b]) : x[b]) * c; });
  }
  fft_pow2_batch(a.data(), m_, lanes, lanes, mtw_, mbitrev_,
                 /*inverse=*/false);
  for (i64 k = 0; k < m_; ++k) {
    const cfloat c = chirp_fft_[size_t(k)];
    const Twiddle cv(c);
    cfloat* y = a.data() + k * lanes;
    for_lanes(
        lanes, [&](i64 b) { store2(y + b, cmul2(load2(y + b), cv)); },
        [&](i64 b) { y[b] *= c; });
  }
  fft_pow2_batch(a.data(), m_, lanes, lanes, mtw_, mbitrev_,
                 /*inverse=*/true);
  // conj(p)·inv is (pr·inv, (−pi)·inv) = (pr·inv, pi·(−inv)), both exact
  // sign flips of the same products.
  const float inv = 1.0f / float(n_);
  const f32x4 out_scale = inverse ? f32x4{inv, -inv, inv, -inv} : splat(1);
  for (i64 k = 0; k < n_; ++k) {
    const cfloat c = chirp_[size_t(k)];
    const Twiddle cv(c);
    const cfloat* y = a.data() + k * lanes;
    cfloat* x = data + k * ld;
    for_lanes(
        lanes,
        [&](i64 b) {
          const f32x4 p = cmul2(load2(y + b), cv);
          store2(x + b, inverse ? p * out_scale : p);
        },
        [&](i64 b) {
          x[b] = inverse ? std::conj(y[b] * c) * inv : y[b] * c;
        });
  }
}

void transpose(const cfloat* in, i64 rows, i64 cols, cfloat* out) {
  for (i64 r = 0; r < rows; ++r)
    for (i64 c = 0; c < cols; ++c) out[c * rows + r] = in[r * cols + c];
}

const Plan1D& thread_plan(i64 n) {
  thread_local std::unordered_map<i64, std::unique_ptr<Plan1D>> plans;
  auto& slot = plans[n];
  if (slot == nullptr) slot = std::make_unique<Plan1D>(n);
  return *slot;
}

void fft2d_span(std::span<cfloat> a, i64 rows, i64 cols, bool inverse,
                bool unitary) {
  MLR_CHECK(i64(a.size()) == rows * cols);
  // Row pass on a transposed copy, where row r is lane r; then the column
  // pass in place, where column c is lane c.
  auto t = transpose_scratch.buffer(a.size());
  transpose(a.data(), rows, cols, t.data());
  thread_plan(cols).execute_batch(t.data(), rows, rows, inverse);
  transpose(t.data(), cols, rows, a.data());
  thread_plan(rows).execute_batch(a.data(), cols, cols, inverse);
  if (unitary) {
    // forward: multiply by 1/√N; inverse already divided by N, so restore √N.
    const double n = double(rows * cols);
    const float s = float(inverse ? std::sqrt(n) : 1.0 / std::sqrt(n));
    for (auto& x : a) x *= s;
  }
}

void fft2d(Array2D<cfloat>& a, bool inverse) {
  fft2d_span(a.span(), a.rows(), a.cols(), inverse, /*unitary=*/false);
}

void fft2d_unitary(Array2D<cfloat>& a, bool inverse) {
  fft2d_span(a.span(), a.rows(), a.cols(), inverse, /*unitary=*/true);
}

void fftshift(std::span<cfloat> a) {
  const auto n = i64(a.size());
  std::rotate(a.begin(), a.begin() + (n + 1) / 2, a.end());
}

double fft_flops(i64 n) {
  if (n <= 1) return 0.0;
  return 5.0 * double(n) * std::log2(double(n));
}

}  // namespace mlr::fft
