// From-scratch complex FFT library.
//
// The paper's reconstruction kernels (cuFFT on the authors' platform) are
// re-implemented here as portable CPU kernels:
//   * iterative radix-2 Cooley–Tukey for power-of-two lengths,
//   * Bluestein chirp-z for arbitrary lengths,
//   * batched application (many lanes per call) and 2-D transforms on top.
//
// Convention: forward() computes X[k] = Σ_n x[n]·exp(−2πi·k·n/N) (no scale);
// inverse() computes the conjugate transform scaled by 1/N, so
// inverse(forward(x)) == x. unitary variants scale both sides by 1/√N.
#pragma once

#include <span>
#include <vector>

#include "common/array.hpp"
#include "common/types.hpp"

namespace mlr::fft {

/// Reusable 1-D transform plan for a fixed length. Thread-safe for concurrent
/// execute() calls; non-pow2 (Bluestein) execution runs out of a per-thread
/// scratch arena that every plan shares, so a steady-state transform performs
/// zero heap allocations.
class Plan1D {
 public:
  explicit Plan1D(i64 n);

  [[nodiscard]] i64 size() const { return n_; }

  /// In-place forward transform of `n` contiguous elements.
  void forward(std::span<cfloat> data) const { execute(data, /*inverse=*/false); }
  /// In-place inverse transform (scaled by 1/n).
  void inverse(std::span<cfloat> data) const { execute(data, /*inverse=*/true); }
  /// The one-lane case of execute_batch().
  void execute(std::span<cfloat> data, bool inverse) const;

  /// In-place transforms of `lanes` independent sequences at once: element
  /// j of lane b is data[j*ld + b], for j < n, b < lanes <= ld. Lanes run
  /// two to a vector register, but every lane undergoes exactly the scalar
  /// operations of a one-lane transform in the same order, so its output
  /// bits equal execute() on that lane alone.
  void execute_batch(cfloat* data, i64 ld, i64 lanes, bool inverse) const;

 private:
  void execute_bluestein(cfloat* data, i64 ld, i64 lanes, bool inverse) const;

  i64 n_ = 0;
  bool pow2_ = false;
  // Radix-2 machinery (twiddles for each stage), for pow2 sizes.
  std::vector<cfloat> twiddle_;       // e^{-2πi k/n}, k < n/2
  std::vector<u64> bitrev_;
  // Bluestein machinery for non-pow2 sizes.
  i64 m_ = 0;                          // pow2 convolution length >= 2n-1
  std::vector<cfloat> chirp_;          // e^{-iπ k²/n}
  std::vector<cfloat> chirp_fft_;      // FFT of the padded conjugate chirp
  std::vector<cfloat> mtw_;            // twiddles for the length-m FFT
  std::vector<u64> mbitrev_;
};

/// Per-thread cache of Plan1D instances keyed by length — for call sites
/// that transform many different row/column lengths without owning plans
/// (fft2d_span). Plans are built once per (thread, length) and reused, so
/// repeated 2-D transforms stop re-deriving twiddles and bit-reversal
/// tables on every call.
const Plan1D& thread_plan(i64 n);

/// Centered ("fftshift-ed") index helper: maps centered index k̃ ∈ [−n/2,n/2)
/// to storage index in [0, n).
inline i64 from_centered(i64 k_tilde, i64 n) {
  return (k_tilde % n + n) % n;
}
/// Storage index -> centered index in [−n/2, n/2).
inline i64 to_centered(i64 k, i64 n) { return k < (n + 1) / 2 ? k : k - n; }

/// out[c*rows + r] = in[r*cols + c]: the cols×rows transpose of a rows×cols
/// row-major array (out must not overlap in). Turns the rows of an array
/// into the lanes of a batched transform.
void transpose(const cfloat* in, i64 rows, i64 cols, cfloat* out);

/// Forward 2-D transform of a rows×cols array, in place, row-major.
void fft2d(Array2D<cfloat>& a, bool inverse);
/// Unitary 2-D transform (scaled by 1/√(rows·cols) both directions), the
/// convention used for the paper's F_2D / F*_2D detector transforms.
void fft2d_unitary(Array2D<cfloat>& a, bool inverse);
/// Same, operating on a raw row-major span.
void fft2d_span(std::span<cfloat> a, i64 rows, i64 cols, bool inverse,
                bool unitary);

/// fftshift in place (1-D).
void fftshift(std::span<cfloat> a);

/// Approximate FLOP count of one complex FFT of length n (5 n log2 n), used by
/// the simulated-GPU cost model.
double fft_flops(i64 n);

}  // namespace mlr::fft
