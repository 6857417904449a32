// Lane-parallel helpers of the batched FFT and NUFFT kernels (private to
// src/fft/).
//
// A batch stores element j of lane b at data[j*ld + b], so one element of
// two adjacent lanes is two interleaved (re, im) pairs: four floats, one SSE
// register on x86-64. Element-wise +, − and × on f32x4 are the scalar IEEE
// operations slot by slot, and baseline x86-64 has no FMA to contract them
// into, so code written with it rounds exactly as the scalar
// std::complex<float> code it mirrors. The 2-D NUFFT packs its two halves
// the same way from two grid rows, or from two adjacent cells of one row.
#pragma once

#include <cstring>

#include "common/types.hpp"

namespace mlr::fft::simd {

using f32x4 = float __attribute__((vector_size(16)));
using u32x4 = u32 __attribute__((vector_size(16)));

inline f32x4 load2(const cfloat* p) {
  f32x4 v{};
  std::memcpy(&v, reinterpret_cast<const float*>(p), sizeof v);
  return v;
}

inline void store2(cfloat* p, f32x4 v) {
  std::memcpy(reinterpret_cast<float*>(p), &v, sizeof v);
}

inline f32x4 splat(float x) { return f32x4{x, x, x, x}; }

/// {*a, *b}: one element from each of two rows. Each element moves as one
/// 64-bit word (two loads into the register's halves, no stack round trip),
/// and the vector cast keeps its bits.
inline f32x4 load_pair(const cfloat* a, const cfloat* b) {
  using u64x2 = u64 __attribute__((vector_size(16)));
  u64 lo = 0, hi = 0;
  std::memcpy(&lo, a, sizeof lo);
  std::memcpy(&hi, b, sizeof hi);
  return (f32x4)(u64x2{lo, hi});
}

/// {x, x}: one complex value in both halves.
inline f32x4 dup(cfloat x) {
  return f32x4{x.real(), x.imag(), x.real(), x.imag()};
}

/// {w0, w0, w1, w1}: one real weight per complex half.
inline f32x4 pair_weights(float w0, float w1) {
  return f32x4{w0, w0, w1, w1};
}

inline cfloat low(f32x4 v) { return {v[0], v[1]}; }
inline cfloat high(f32x4 v) { return {v[2], v[3]}; }

/// Applies `pair` to lanes [b, b+2) and `one` to an odd last lane, for every
/// lane of a row: the vector path and its scalar tail in one place.
template <class Pair, class One>
void for_lanes(i64 lanes, Pair&& pair, One&& one) {
  const i64 even = lanes & ~i64(1);
  for (i64 b = 0; b < even; b += 2) pair(b);
  if (even < lanes) one(even);
}

}  // namespace mlr::fft::simd
