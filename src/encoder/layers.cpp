#include "encoder/layers.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/scratch.hpp"
#include "encoder/layer_kernels.hpp"
#include "obs/metrics.hpp"

namespace mlr::encoder {

namespace kernels {

bool supported(Isa isa) {
  if (isa == Isa::kBaseline) return true;
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

Isa dispatched() {
  static const Isa isa = supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  static auto& gauge = obs::metrics().gauge("encoder.kernel_isa");
  gauge.raise(double(isa));  // a load alone once raised
  return isa;
}

const char* name(Isa isa) { return isa == Isa::kAvx2 ? "avx2" : "sse2"; }

}  // namespace kernels

using kernels::Isa;

Conv2D::Conv2D(i64 in_ch, i64 out_ch, i64 ksize, i64 stride, Rng& rng)
    : in_ch_(in_ch), out_ch_(out_ch), k_(ksize), stride_(stride),
      pad_(ksize / 2) {
  MLR_CHECK(in_ch >= 1 && out_ch >= 1 && ksize >= 1 && stride >= 1);
  const auto n = size_t(out_ch * in_ch * ksize * ksize);
  w.resize(n);
  gw.assign(n, 0.0f);
  b.assign(size_t(out_ch), 0.0f);
  gb.assign(size_t(out_ch), 0.0f);
  const double he = std::sqrt(2.0 / double(in_ch * ksize * ksize));
  for (auto& x : w) x = float(rng.normal(0.0, he));
}

namespace {

// The vector widths the kernels compile at: GCC vectors, whose element-wise
// +, × and comparisons are the scalar IEEE operations lane by lane, so a
// kernel written with them rounds exactly as the scalar loop it replaces.
// The `u` forms are the same vectors at element alignment, for loads and
// stores at any offset (one movupd/vmovupd or a memory operand; a copy
// through an aligned stack temporary would stall on store forwarding).
// Kernels name them only inside always-inline templates: no function takes
// or returns one, since a 32-byte vector crossing a function compiled
// without AVX would change its calling convention (-Wpsabi).
struct Sse2 {
  using f64 = double __attribute__((vector_size(16)));
  using f64u = double __attribute__((vector_size(16), aligned(8), may_alias));
  static constexpr i64 kDoubles = 2;
};
struct Avx2 {
  using f64 = double __attribute__((vector_size(32)));
  using f64u = double __attribute__((vector_size(32), aligned(8), may_alias));
  using f32 = float __attribute__((vector_size(32)));
  using f32u = float __attribute__((vector_size(32), aligned(4), may_alias));
  static constexpr i64 kDoubles = 4, kFloats = 8;
};

/// `p` as a pointer to the unaligned vector type U.
template <class U, class T>
[[gnu::always_inline]] inline U* vec(T* p) {
  return reinterpret_cast<U*>(p);
}

/// Output channels of one forward block: a relaid tap holds their 8 weights
/// side by side, two AVX2 registers or four SSE2 ones.
constexpr i64 kLanes = Conv2D::kBlock;
static_assert(kLanes % Avx2::kDoubles == 0 && kLanes % Sse2::kDoubles == 0);

// Kernel buffers (relaid weights, channels-last copies). One arena per
// element type serves every layer: a thread runs one layer kernel at a time,
// so its buffer is reused across layers and calls and the steady state never
// touches the heap. Threads never share a buffer, so concurrent encodes and
// training tasks on pool workers need no lock.
const PerThreadScratch<double> forward_scratch;
const PerThreadScratch<float> backward_scratch;

/// Doubles of one relaid forward block: 8 biases, then 8 weights per tap.
i64 forward_block(const Conv2D& c) {
  return (c.in_ch() * c.ksize() * c.ksize() + 1) * kLanes;
}

// Blocks [blk0, blk1) of c's weights, widened to double: per block of 8
// output channels, their 8 biases, then each tap's (ic, ky, kx order) 8
// weights; lanes past out_ch hold 0.
void relay_forward(const Conv2D& c, i64 blk0, i64 blk1, double* dst) {
  const i64 taps = c.in_ch() * c.ksize() * c.ksize();
  for (i64 blk = blk0; blk < blk1; ++blk, dst += forward_block(c))
    for (i64 l = 0; l < kLanes; ++l) {
      const i64 oc = blk * kLanes + l;
      const bool real = oc < c.out_ch();
      dst[l] = real ? double(c.b[size_t(oc)]) : 0.0;
      for (i64 t = 0; t < taps; ++t)
        dst[(t + 1) * kLanes + l] = real ? double(c.w[size_t(oc * taps + t)]) : 0.0;
    }
}

/// One forward_channels call as its kernel sees it.
struct ForwardCall {
  const FeatureMap& in;
  FeatureMap& out;
  const double* wt;  ///< relaid blocks, the first starting at channel ocb
  i64 ocb, oc0, oc1, k, stride, pad;
};

// Output pixels (oy, ox) … (oy, ox + P − 1) of the 8 channels from ocb, whose
// windows clip alike: taps [ky0, ky1) × [kx0, kx1) in range. Each pixel
// keeps 8/lanes accumulators; every tap's weight registers serve all P
// pixels.
template <class V, int P>
[[gnu::always_inline]] inline void forward_pixels(const ForwardCall& f,
                                                  const double* wb, i64 ocb,
                                                  i64 oy, i64 ox, i64 ky0,
                                                  i64 ky1, i64 kx0, i64 kx1) {
  using Wu = const typename V::f64u;
  constexpr i64 R = kLanes / V::kDoubles;
  typename V::f64 acc[P][R];
  for (int p = 0; p < P; ++p)
    for (i64 r = 0; r < R; ++r) acc[p][r] = *vec<Wu>(wb + r * V::kDoubles);
  const i64 ix0 = ox * f.stride - f.pad + kx0;
  for (i64 ic = 0; ic < f.in.c; ++ic)
    for (i64 ky = ky0; ky < ky1; ++ky) {
      const float* row = &f.in.v[size_t(
          (ic * f.in.h + oy * f.stride - f.pad + ky) * f.in.w + ix0)];
      const double* wr = wb + kLanes + ((ic * f.k + ky) * f.k + kx0) * kLanes;
      for (i64 kx = 0; kx < kx1 - kx0; ++kx) {
        typename V::f64 w[R];
        for (i64 r = 0; r < R; ++r)
          w[r] = *vec<Wu>(wr + kx * kLanes + r * V::kDoubles);
        for (int p = 0; p < P; ++p) {
          const double x = row[p * f.stride + kx];
          for (i64 r = 0; r < R; ++r) acc[p][r] += w[r] * x;
        }
      }
    }
  for (int p = 0; p < P; ++p)
    for (i64 l = 0; l < kLanes; ++l)
      if (ocb + l >= f.oc0 && ocb + l < f.oc1)
        f.out.at(ocb + l, oy, ox + p) =
            float(acc[p][l / V::kDoubles][l % V::kDoubles]);
}

// Every output sums b, then its taps in (ic, ky, kx) order with out-of-range
// taps skipped: the direct convolution's order. The kernel runs it for the 8
// channels of a block side by side, their double accumulators held in
// registers across the whole tap loop, and for P adjacent pixels of a row
// whose windows clip alike (P = 2 at AVX2: four 4-double accumulators).
// A float×float product is exact in double, so only the order of the
// additions sets the result, and it is the direct loop's, bit for bit,
// whichever channels and pixels share a step.
template <class V, int P>
[[gnu::always_inline]] inline void forward_kernel(const ForwardCall& f) {
  const i64 block = (f.in.c * f.k * f.k + 1) * kLanes;
  for (i64 ocb = f.ocb; ocb < f.oc1; ocb += kLanes) {
    const double* wb = f.wt + (ocb - f.ocb) / kLanes * block;
    for (i64 oy = 0; oy < f.out.h; ++oy) {
      const i64 iy0 = oy * f.stride - f.pad;
      const i64 ky0 = std::max<i64>(0, -iy0);
      const i64 ky1 = std::min(f.k, f.in.h - iy0);
      for (i64 ox = 0; ox < f.out.w;) {
        const i64 ix0 = ox * f.stride - f.pad;
        const i64 kx0 = std::max<i64>(0, -ix0);
        const i64 kx1 = std::min(f.k, f.in.w - ix0);
        if constexpr (P == 2) {
          const i64 ix1 = ix0 + f.stride;
          if (ox + 1 < f.out.w && kx0 == std::max<i64>(0, -ix1) &&
              kx1 == std::min(f.k, f.in.w - ix1)) {
            forward_pixels<V, 2>(f, wb, ocb, oy, ox, ky0, ky1, kx0, kx1);
            ox += 2;
            continue;
          }
        }
        forward_pixels<V, 1>(f, wb, ocb, oy, ox, ky0, ky1, kx0, kx1);
        ++ox;
      }
    }
  }
}

void forward_sse2(const ForwardCall& f) { forward_kernel<Sse2, 1>(f); }
[[gnu::target("avx2")]] void forward_avx2(const ForwardCall& f) {
  forward_kernel<Avx2, 2>(f);
}

// The backward kernels run the direct loop nest — oc, then (oy, ox),
// skipping zero gradients, then the in-range taps — on channels-last copies
// of the input (or dL/din), weights (or gradient buffer). Each (ky) row of
// taps is then one contiguous (kx, ic) run, so the innermost loop
// vectorizes (at the width of the function it is inlined into) while every
// accumulator still receives its float products in the direct loop's order:
// gw and gb over (oy, ox) ascending, din over oc then (oy, ox) ascending.
struct ChannelsLast {
  i64 in_ch, k, in_h, in_w;
  /// Pixel (iy, ix) of an input as [iy][ix][ic].
  [[nodiscard]] i64 px(i64 iy, i64 ix) const { return (iy * in_w + ix) * in_ch; }
  /// Filter tap (ky, kx) of output channel oc as [oc][ky][kx][ic].
  [[nodiscard]] i64 tap(i64 oc, i64 ky, i64 kx) const {
    return ((oc * k + ky) * k + kx) * in_ch;
  }
};

// Writes `in` channels-last into xt.
void to_channels_last(const FeatureMap& in, const ChannelsLast& cl, float* xt) {
  for (i64 ic = 0; ic < in.c; ++ic)
    for (i64 iy = 0; iy < in.h; ++iy)
      for (i64 ix = 0; ix < in.w; ++ix) xt[cl.px(iy, ix) + ic] = in.at(ic, iy, ix);
}

// The direct loop over output channel oc's gradients: (oy, ox) ascending,
// zeros skipped. For each nonzero g it calls on_row(g, xo, fo, len) for each
// in-range tap row ky: `len` channels-last floats from input offset xo, and
// from filter offset fo relative to channel oc's filter.
template <class OnRow>
[[gnu::always_inline]] inline void for_tap_rows(const FeatureMap& dout, i64 oc,
                                                const ChannelsLast& cl,
                                                i64 stride, i64 pad,
                                                OnRow&& on_row) {
  for (i64 oy = 0; oy < dout.h; ++oy) {
    const i64 iy0 = oy * stride - pad;
    const i64 ky0 = std::max<i64>(0, -iy0);
    const i64 ky1 = std::min(cl.k, cl.in_h - iy0);
    for (i64 ox = 0; ox < dout.w; ++ox) {
      const float g = dout.at(oc, oy, ox);
      if (g == 0.0f) continue;
      const i64 ix0 = ox * stride - pad;
      const i64 kx0 = std::max<i64>(0, -ix0);
      const i64 len = (std::min(cl.k, cl.in_w - ix0) - kx0) * cl.in_ch;
      for (i64 ky = ky0; ky < ky1; ++ky)
        on_row(g, cl.px(iy0 + ky, ix0 + kx0), cl.tap(0, ky, kx0), len);
    }
  }
}

/// Each channel's bias gradient: its nonzero dL/dout, (oy, ox) ascending.
/// One store per channel: tasks on neighbouring ranges share gb's cache
/// lines, so a sum kept in memory would bounce them between cores.
void bias_grads(Conv2D& c, const FeatureMap& dout, i64 oc0, i64 oc1) {
  const i64 pixels = dout.h * dout.w;
  for (i64 oc = oc0; oc < oc1; ++oc) {
    float bsum = c.gb[size_t(oc)];
    for (const float g : std::span(dout.v).subspan(size_t(oc * pixels), size_t(pixels)))
      if (g != 0.0f) bsum += g;
    c.gb[size_t(oc)] = bsum;
  }
}

// Weight gradients along tap rows: one channel at a time, each nonzero
// dL/dout adding g·x to the in-range rows of the channel's channels-last
// filter. Rows of in_ch·k floats; suits wide inputs (conv2: 96 floats).
[[gnu::always_inline]] inline void weight_grads_by_row(Conv2D& c,
                                                       const FeatureMap& in,
                                                       const FeatureMap& dout,
                                                       i64 oc0, i64 oc1) {
  const ChannelsLast cl{c.in_ch(), c.ksize(), in.h, in.w};
  const i64 filter = cl.k * cl.k * cl.in_ch;
  const i64 plane = in.h * in.w * cl.in_ch;
  const auto buf = backward_scratch.buffer(size_t(plane + (oc1 - oc0) * filter));
  float* xt = buf.data();   // in, channels-last
  float* gwt = xt + plane;  // gw of channels [oc0, oc1), channels-last
  to_channels_last(in, cl, xt);
  for (i64 oc = oc0, wi = oc0 * filter; oc < oc1; ++oc)
    for (i64 ic = 0; ic < cl.in_ch; ++ic)
      for (i64 ky = 0; ky < cl.k; ++ky)
        for (i64 kx = 0; kx < cl.k; ++kx, ++wi)
          gwt[cl.tap(oc - oc0, ky, kx) + ic] = c.gw[size_t(wi)];
  for (i64 oc = oc0; oc < oc1; ++oc) {
    float* gf = gwt + cl.tap(oc - oc0, 0, 0);
    for_tap_rows(
        dout, oc, cl, c.stride(), c.pad(),
        [&](float g, i64 xo, i64 fo, i64 len) __attribute__((always_inline)) {
          float* gr = gf + fo;
          const float* xr = xt + xo;
          for (i64 j = 0; j < len; ++j) gr[j] += g * xr[j];
        });
  }
  for (i64 oc = oc0, wi = oc0 * filter; oc < oc1; ++oc)
    for (i64 ic = 0; ic < cl.in_ch; ++ic)
      for (i64 ky = 0; ky < cl.k; ++ky)
        for (i64 kx = 0; kx < cl.k; ++kx, ++wi)
          c.gw[size_t(wi)] = gwt[cl.tap(oc - oc0, ky, kx) + ic];
  bias_grads(c, dout, oc0, oc1);
}

// Weight gradients with the output channels in the AVX2 lanes: a register
// holds 8 channels' gradients of one tap and takes that tap's (oy, ox) terms
// in ascending order, the direct loop's. kChains registers cover
// consecutive taps of a (ky) row, so as many add chains run side by side.
// A lane whose dL/dout is ±0 keeps its value: the step blends the sum in,
// where adding a masked +0.0 would turn a −0.0 gradient into +0.0. Suits
// narrow inputs (conv1: rows of 10 floats, which at AVX2 width split into
// one full register and a ragged tail) and ranges of whole 8-channel blocks.
[[gnu::always_inline]] inline void weight_grads_by_lane(Conv2D& c,
                                                        const FeatureMap& in,
                                                        const FeatureMap& dout,
                                                        i64 oc0, i64 oc1) {
  using F = Avx2::f32;
  using Fu = Avx2::f32u;
  constexpr i64 W = Conv2D::kBlock;
  static_assert(W == Avx2::kFloats, "one block of channels per register");
  constexpr i64 kChains = 5;
  const ChannelsLast cl{c.in_ch(), c.ksize(), in.h, in.w};
  const i64 row = cl.k * cl.in_ch;
  const i64 taps = cl.k * row;
  const i64 pixels = dout.h * dout.w;
  const i64 plane = in.h * in.w * cl.in_ch;
  const auto buf = backward_scratch.buffer(size_t(plane + (pixels + taps) * W));
  float* xt = buf.data();     // in, channels-last
  float* gl = xt + plane;     // dL/dout of W lanes, [pixel][lane]
  float* acc = gl + pixels * W;  // gw of W lanes, [ky][kx][ic][lane]
  to_channels_last(in, cl, xt);
  // Output columns [whole0, whole1) see their whole window in range.
  const i64 right = in.w - cl.k + c.pad();
  const i64 whole0 = (c.pad() + c.stride() - 1) / c.stride();
  const i64 whole1 = right < 0 ? 0 : right / c.stride() + 1;
  for (i64 l0 = oc0; l0 < oc1; l0 += W) {
    const i64 lanes = std::min(W, oc1 - l0);
    for (i64 p = 0; p < pixels; ++p)
      for (i64 l = 0; l < W; ++l)
        gl[p * W + l] = l < lanes ? dout.v[size_t((l0 + l) * pixels + p)] : 0.0f;
    for (i64 l = 0, wi = l0 * taps; l < lanes; ++l)
      for (i64 ic = 0; ic < cl.in_ch; ++ic)
        for (i64 ky = 0; ky < cl.k; ++ky)
          for (i64 kx = 0; kx < cl.k; ++kx, ++wi)
            acc[(cl.tap(0, ky, kx) + ic) * W + l] = c.gw[size_t(wi)];
    for (i64 ky = 0; ky < cl.k; ++ky)
      for (i64 r0 = 0; r0 < row; r0 += kChains) {
        const i64 n = std::min(kChains, row - r0);
        float* ar = acc + (ky * row + r0) * W;
        F a[kChains] = {};
        for (i64 j = 0; j < n; ++j) a[j] = *vec<Fu>(ar + j * W);
        for (i64 oy = 0; oy < dout.h; ++oy) {
          const i64 iy = oy * c.stride() - c.pad() + ky;
          if (iy < 0 || iy >= in.h) continue;
          for (i64 ox = 0; ox < dout.w; ++ox) {
            const i64 ix0 = ox * c.stride() - c.pad();
            const i64 xo = cl.px(iy, ix0) + r0;
            const F g = *vec<const Fu>(gl + (oy * dout.w + ox) * W);
            const auto live = g != 0.0f;
            if (n == kChains && ox >= whole0 && ox < whole1) {
              for (i64 j = 0; j < kChains; ++j)
                a[j] = live ? a[j] + g * xt[xo + j] : a[j];
              continue;
            }
            // This pixel's in-range taps of the row are [lo, hi) from r0.
            const i64 lo = std::max<i64>(0, -ix0) * cl.in_ch - r0;
            const i64 hi = std::min(cl.k, in.w - ix0) * cl.in_ch - r0;
            for (i64 j = 0; j < kChains; ++j)
              if (j < n && j >= lo && j < hi)
                a[j] = live ? a[j] + g * xt[xo + j] : a[j];
          }
        }
        for (i64 j = 0; j < n; ++j) *vec<Fu>(ar + j * W) = a[j];
      }
    for (i64 l = 0, wi = l0 * taps; l < lanes; ++l)
      for (i64 ic = 0; ic < cl.in_ch; ++ic)
        for (i64 ky = 0; ky < cl.k; ++ky)
          for (i64 kx = 0; kx < cl.k; ++kx, ++wi)
            c.gw[size_t(wi)] = acc[(cl.tap(0, ky, kx) + ic) * W + l];
  }
  bias_grads(c, dout, oc0, oc1);
}

// dL/din: for each output channel, each nonzero dL/dout adds g·w to the
// in-range rows of a channels-last dL/din.
[[gnu::always_inline]] inline void input_grad_kernel(const Conv2D& c,
                                                     const FeatureMap& dout,
                                                     FeatureMap& din) {
  const ChannelsLast cl{c.in_ch(), c.ksize(), din.h, din.w};
  const i64 filters = c.out_ch() * cl.k * cl.k * cl.in_ch;
  const i64 plane = din.h * din.w * cl.in_ch;
  const auto buf = backward_scratch.buffer(size_t(filters + plane));
  float* wt = buf.data();      // w, channels-last
  float* dint = wt + filters;  // din, channels-last
  for (i64 oc = 0, wi = 0; oc < c.out_ch(); ++oc)
    for (i64 ic = 0; ic < cl.in_ch; ++ic)
      for (i64 ky = 0; ky < cl.k; ++ky)
        for (i64 kx = 0; kx < cl.k; ++kx, ++wi)
          wt[cl.tap(oc, ky, kx) + ic] = c.w[size_t(wi)];
  std::fill_n(dint, plane, 0.0f);
  for (i64 oc = 0; oc < c.out_ch(); ++oc) {
    const float* wf = wt + cl.tap(oc, 0, 0);
    for_tap_rows(
        dout, oc, cl, c.stride(), c.pad(),
        [&](float g, i64 xo, i64 fo, i64 len) __attribute__((always_inline)) {
          float* dr = dint + xo;
          const float* wr = wf + fo;
          for (i64 j = 0; j < len; ++j) dr[j] += g * wr[j];
        });
  }
  for (i64 ic = 0; ic < cl.in_ch; ++ic)
    for (i64 iy = 0; iy < din.h; ++iy)
      for (i64 ix = 0; ix < din.w; ++ix) din.at(ic, iy, ix) = dint[cl.px(iy, ix) + ic];
}

void weight_grads_sse2(Conv2D& c, const FeatureMap& in, const FeatureMap& dout,
                       i64 oc0, i64 oc1) {
  weight_grads_by_row(c, in, dout, oc0, oc1);
}

// At AVX2 a short tap row (conv1: 5 taps × 2 channels) runs one full
// register and a ragged tail per term, slower than SSE2; its channels go in
// the lanes instead. A long row (conv2: 96 floats) runs faster by row.
[[gnu::target("avx2")]] void weight_grads_avx2(Conv2D& c, const FeatureMap& in,
                                               const FeatureMap& dout, i64 oc0,
                                               i64 oc1) {
  if (c.ksize() * c.in_ch() >= 2 * Avx2::kFloats)
    weight_grads_by_row(c, in, dout, oc0, oc1);
  else
    weight_grads_by_lane(c, in, dout, oc0, oc1);
}

void input_grad_sse2(const Conv2D& c, const FeatureMap& dout, FeatureMap& din) {
  input_grad_kernel(c, dout, din);
}
[[gnu::target("avx2")]] void input_grad_avx2(const Conv2D& c,
                                             const FeatureMap& dout,
                                             FeatureMap& din) {
  input_grad_kernel(c, dout, din);
}

}  // namespace

namespace kernels {

void conv_forward(Isa isa, const Conv2D& conv, const FeatureMap& in, i64 oc0,
                  i64 oc1, FeatureMap& out) {
  MLR_CHECK(in.c == conv.in_ch() && 0 <= oc0 && oc0 <= oc1 &&
            oc1 <= conv.out_ch());
  MLR_CHECK(out.c == conv.out_ch() && out.h == conv.out_h(in.h) &&
            out.w == conv.out_w(in.w));
  if (oc0 == oc1) return;
  const i64 blk0 = oc0 / kLanes, blk1 = (oc1 + kLanes - 1) / kLanes;
  const auto buf =
      forward_scratch.buffer(size_t((blk1 - blk0) * forward_block(conv)));
  relay_forward(conv, blk0, blk1, buf.data());
  const ForwardCall f{in,  out,          buf.data(),    blk0 * kLanes, oc0,
                      oc1, conv.ksize(), conv.stride(), conv.pad()};
  if (isa == Isa::kAvx2)
    forward_avx2(f);
  else
    forward_sse2(f);
}

void conv_weight_grads(Isa isa, Conv2D& conv, const FeatureMap& in,
                       const FeatureMap& dout, i64 oc0, i64 oc1) {
  MLR_CHECK(in.c == conv.in_ch() && dout.c == conv.out_ch());
  MLR_CHECK(dout.h == conv.out_h(in.h) && dout.w == conv.out_w(in.w));
  MLR_CHECK(0 <= oc0 && oc0 <= oc1 && oc1 <= conv.out_ch());
  if (isa == Isa::kAvx2)
    weight_grads_avx2(conv, in, dout, oc0, oc1);
  else
    weight_grads_sse2(conv, in, dout, oc0, oc1);
}

void conv_input_grad(Isa isa, const Conv2D& conv, const FeatureMap& dout,
                     FeatureMap& din) {
  MLR_CHECK(din.c == conv.in_ch() && dout.c == conv.out_ch());
  MLR_CHECK(dout.h == conv.out_h(din.h) && dout.w == conv.out_w(din.w));
  if (isa == Isa::kAvx2)
    input_grad_avx2(conv, dout, din);
  else
    input_grad_sse2(conv, dout, din);
}

}  // namespace kernels

FeatureMap Conv2D::forward(const FeatureMap& in) const {
  FeatureMap out(out_ch_, out_h(in.h), out_w(in.w));
  forward_channels(in, 0, out_ch_, out);
  return out;
}

void Conv2D::forward_channels(const FeatureMap& in, i64 oc0, i64 oc1,
                              FeatureMap& out) const {
  kernels::conv_forward(kernels::dispatched(), *this, in, oc0, oc1, out);
}

FeatureMap Conv2D::backward(const FeatureMap& in, const FeatureMap& dout) {
  accumulate_weight_grads(in, dout, 0, out_ch_);
  FeatureMap din(in.c, in.h, in.w);
  input_grad(dout, din);
  return din;
}

void Conv2D::accumulate_weight_grads(const FeatureMap& in,
                                     const FeatureMap& dout, i64 oc0,
                                     i64 oc1) {
  kernels::conv_weight_grads(kernels::dispatched(), *this, in, dout, oc0, oc1);
}

void Conv2D::input_grad(const FeatureMap& dout, FeatureMap& din) const {
  kernels::conv_input_grad(kernels::dispatched(), *this, dout, din);
}

Dense::Dense(i64 in_dim, i64 out_dim, Rng& rng) : in_(in_dim), out_(out_dim) {
  MLR_CHECK(in_dim >= 1 && out_dim >= 1);
  w.resize(size_t(in_ * out_));
  gw.assign(w.size(), 0.0f);
  b.assign(size_t(out_), 0.0f);
  gb.assign(size_t(out_), 0.0f);
  const double xavier = std::sqrt(1.0 / double(in_));
  for (auto& x : w) x = float(rng.normal(0.0, xavier));
}

// Every output sums b, then i ascending, in double: the direct loop's order.
// Twelve outputs accumulate side by side, two per SSE2 register: six
// independent add chains instead of one latency-bound chain, and 60 outputs
// fill five blocks exactly. Each step widens two inputs' weights of each row
// straight from memory and interleaves a row pair in registers, so each
// register holds the two outputs' weights for one input; the products are
// exact in double, and the additions run in the direct order. A short last
// block recomputes its final row in the spare lanes. This kernel serves
// both ISAs: an AVX2 form with a 4×4 in-register transpose measured 36–41
// µs per key against its 25 µs.
std::vector<float> Dense::forward(const std::vector<float>& in) const {
  MLR_CHECK(i64(in.size()) == in_);
  std::vector<float> out(static_cast<size_t>(out_));
  constexpr i64 kPairs = 6;
  const auto widen2 = [](const float* p) {  // p[0], p[1] as doubles
    return _mm_cvtps_pd(
        _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  };
  for (i64 o0 = 0; o0 < out_; o0 += 2 * kPairs) {
    const auto row = [&](i64 r) { return std::min(o0 + r, out_ - 1); };
    const float* rows[2 * kPairs];
    __m128d acc[kPairs];
    for (i64 p = 0; p < kPairs; ++p) {
      rows[2 * p] = w.data() + row(2 * p) * in_;
      rows[2 * p + 1] = w.data() + row(2 * p + 1) * in_;
      acc[p] = _mm_set_pd(b[size_t(row(2 * p + 1))], b[size_t(row(2 * p))]);
    }
    i64 i = 0;
    for (; i + 2 <= in_; i += 2) {
      const __m128d x0 = _mm_set1_pd(in[size_t(i)]);
      const __m128d x1 = _mm_set1_pd(in[size_t(i + 1)]);
      for (i64 p = 0; p < kPairs; ++p) {
        const __m128d a = widen2(rows[2 * p] + i);      // a_i, a_i+1
        const __m128d c = widen2(rows[2 * p + 1] + i);  // c_i, c_i+1
        acc[p] = _mm_add_pd(acc[p], _mm_mul_pd(_mm_unpacklo_pd(a, c), x0));
        acc[p] = _mm_add_pd(acc[p], _mm_mul_pd(_mm_unpackhi_pd(a, c), x1));
      }
    }
    if (i < in_) {
      const __m128d x = _mm_set1_pd(in[size_t(i)]);
      for (i64 p = 0; p < kPairs; ++p)
        acc[p] = _mm_add_pd(
            acc[p], _mm_mul_pd(_mm_set_pd(rows[2 * p + 1][i], rows[2 * p][i]), x));
    }
    for (i64 p = 0; p < kPairs; ++p) {
      double v[2];
      _mm_storeu_pd(v, acc[p]);
      for (i64 l = 0; l < 2 && o0 + 2 * p + l < out_; ++l)
        out[size_t(o0 + 2 * p + l)] = float(v[l]);
    }
  }
  return out;
}

std::vector<float> Dense::backward(const std::vector<float>& in,
                                   const std::vector<float>& dout) {
  MLR_CHECK(i64(in.size()) == in_ && i64(dout.size()) == out_);
  std::vector<float> din(static_cast<size_t>(in_), 0.0f);
  for (i64 o = 0; o < out_; ++o) {
    const float g = dout[size_t(o)];
    gb[size_t(o)] += g;
    float* grow = gw.data() + size_t(o * in_);
    const float* row = w.data() + size_t(o * in_);
    for (i64 i = 0; i < in_; ++i) {
      grow[i] += g * in[size_t(i)];
      din[size_t(i)] += g * row[i];
    }
  }
  return din;
}

void relu_forward(std::span<float> v) {
  for (auto& x : v)
    if (x < 0) x = 0;
}

void relu_backward(std::span<const float> out, std::span<float> grad) {
  MLR_CHECK(out.size() == grad.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] <= 0.0f) grad[i] = 0.0f;
}

FeatureMap avgpool2(const FeatureMap& in) {
  FeatureMap out(in.c, in.h / 2, in.w / 2);
  avgpool2_channels(in, 0, in.c, out);
  return out;
}

void avgpool2_channels(const FeatureMap& in, i64 c0, i64 c1, FeatureMap& out) {
  MLR_CHECK(out.c == in.c && out.h == in.h / 2 && out.w == in.w / 2);
  MLR_CHECK(0 <= c0 && c0 <= c1 && c1 <= in.c);
  for (i64 c = c0; c < c1; ++c)
    for (i64 y = 0; y < out.h; ++y)
      for (i64 x = 0; x < out.w; ++x)
        out.at(c, y, x) = 0.25f * (in.at(c, 2 * y, 2 * x) +
                                   in.at(c, 2 * y + 1, 2 * x) +
                                   in.at(c, 2 * y, 2 * x + 1) +
                                   in.at(c, 2 * y + 1, 2 * x + 1));
}

FeatureMap avgpool2_backward(const FeatureMap& in_shape_ref,
                             const FeatureMap& dout) {
  FeatureMap din(in_shape_ref.c, in_shape_ref.h, in_shape_ref.w);
  avgpool2_backward_channels(dout, 0, dout.c, din);
  return din;
}

void avgpool2_backward_channels(const FeatureMap& dout, i64 c0, i64 c1,
                                FeatureMap& din) {
  MLR_CHECK(din.c == dout.c && din.h / 2 == dout.h && din.w / 2 == dout.w);
  MLR_CHECK(0 <= c0 && c0 <= c1 && c1 <= dout.c);
  const auto d = din.channels(c0, c1);
  std::fill(d.begin(), d.end(), 0.0f);
  for (i64 c = c0; c < c1; ++c)
    for (i64 y = 0; y < dout.h; ++y)
      for (i64 x = 0; x < dout.w; ++x) {
        const float g = 0.25f * dout.at(c, y, x);
        din.at(c, 2 * y, 2 * x) += g;
        din.at(c, 2 * y + 1, 2 * x) += g;
        din.at(c, 2 * y, 2 * x + 1) += g;
        din.at(c, 2 * y + 1, 2 * x + 1) += g;
      }
}

namespace {

constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

// Two floats, the low half of an SSE register (memcpy: no aliasing cast).
__m128 load2(const float* p) {
  double d = 0;
  std::memcpy(&d, p, sizeof d);
  return _mm_castpd_ps(_mm_set_sd(d));
}

void store2(float* p, __m128 v) {
  const double d = _mm_cvtsd_f64(_mm_castps_pd(v));
  std::memcpy(p, &d, sizeof d);
}

}  // namespace

void Adam::step(std::vector<float>& param, std::vector<float>& grad) {
  begin_step();
  update(param, grad, 0, param.size());
}

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0 - std::pow(kBeta1, double(t_));
  bc2_ = 1.0 - std::pow(kBeta2, double(t_));
}

// Per element, in this order (the scalar loop, which the odd tail runs):
//   m ← float(β1·m + (1−β1)·g)        v ← float(β2·v + ((1−β2)·g)·g)
//   p ← p − float(lr·(m/bc1) / (√(v/bc2) + ε))          g ← 0
// Products, sums, quotients and the square root are double, the moments and
// the parameter float. The two-lane path issues the same IEEE operations,
// packed: cvtps2pd/cvtpd2ps are the float↔double conversions, sqrtpd the
// correctly rounded root std::sqrt computes, subps the float subtraction,
// and baseline x86-64 has no FMA to contract a product into a sum. (The
// conv kernels above also run at AVX2 width, compiled for a target without
// FMA for the same reason; Adam stays SSE2: an AVX2 update measured slower,
// bound by its three divisions and a square root.)
void Adam::update(std::vector<float>& param, std::vector<float>& grad,
                  std::size_t lo, std::size_t hi) {
  MLR_CHECK(param.size() == m_.size() && grad.size() == m_.size());
  MLR_CHECK(t_ > 0 && lo <= hi && hi <= m_.size());
  const __m128d b1 = _mm_set1_pd(kBeta1), c1 = _mm_set1_pd(1.0 - kBeta1);
  const __m128d b2 = _mm_set1_pd(kBeta2), c2 = _mm_set1_pd(1.0 - kBeta2);
  const __m128d bc1 = _mm_set1_pd(bc1_), bc2 = _mm_set1_pd(bc2_);
  const __m128d lr = _mm_set1_pd(lr_), eps = _mm_set1_pd(kEps);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const __m128d g = _mm_cvtps_pd(load2(&grad[i]));
    const __m128 m = _mm_cvtpd_ps(_mm_add_pd(
        _mm_mul_pd(b1, _mm_cvtps_pd(load2(&m_[i]))), _mm_mul_pd(c1, g)));
    const __m128 v = _mm_cvtpd_ps(
        _mm_add_pd(_mm_mul_pd(b2, _mm_cvtps_pd(load2(&v_[i]))),
                   _mm_mul_pd(_mm_mul_pd(c2, g), g)));
    const __m128d mh = _mm_div_pd(_mm_cvtps_pd(m), bc1);
    const __m128d vh = _mm_div_pd(_mm_cvtps_pd(v), bc2);
    const __m128 u = _mm_cvtpd_ps(_mm_div_pd(
        _mm_mul_pd(lr, mh), _mm_add_pd(_mm_sqrt_pd(vh), eps)));
    store2(&m_[i], m);
    store2(&v_[i], v);
    store2(&param[i], _mm_sub_ps(load2(&param[i]), u));
    store2(&grad[i], _mm_setzero_ps());
  }
  for (; i < hi; ++i) {
    m_[i] = float(kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i]);
    v_[i] = float(kBeta2 * v_[i] + (1.0 - kBeta2) * double(grad[i]) * grad[i]);
    const double mh = m_[i] / bc1_;
    const double vh = v_[i] / bc2_;
    param[i] -= float(lr_ * mh / (std::sqrt(vh) + kEps));
    grad[i] = 0.0f;  // consume the accumulator
  }
}

}  // namespace mlr::encoder
