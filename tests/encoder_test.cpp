// Tests for the CNN key encoder: bitwise pins of the layer kernels (whole
// and split by channel range and image) and of Adam against the direct
// loops they replaced, golden digests of training at several pool widths
// and of keys, batch keys against single keys, the registry's non-finite
// sample guard,
// numerical gradient checks of every layer, contrastive training
// convergence, INT8 quantization fidelity, and the metric property the
// memoization system needs (similar chunks → nearby keys).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "encoder/encoder.hpp"
#include "encoder/layers.hpp"
#include "obs/metrics.hpp"

namespace mlr::encoder {
namespace {

FeatureMap random_fm(i64 c, i64 h, i64 w, Rng& rng) {
  FeatureMap fm(c, h, w);
  for (auto& x : fm.v) x = float(rng.normal());
  return fm;
}

// ---------------------------------------------------------------------------
// Bitwise pins. The direct loops the layer kernels replaced, kept verbatim as
// the reference: the kernels reorder loops for speed but must keep every
// output's summation order, so their results are memcmp-identical.

FeatureMap naive_conv_forward(const Conv2D& conv, const FeatureMap& in) {
  const i64 in_ch_ = conv.in_ch(), out_ch_ = conv.out_ch(), k_ = conv.ksize();
  const i64 stride_ = conv.stride(), pad_ = k_ / 2;
  const auto& w = conv.w;
  const auto& b = conv.b;
  MLR_CHECK(in.c == in_ch_);
  FeatureMap out(out_ch_, conv.out_h(in.h), conv.out_w(in.w));
  for (i64 oc = 0; oc < out_ch_; ++oc) {
    for (i64 oy = 0; oy < out.h; ++oy) {
      for (i64 ox = 0; ox < out.w; ++ox) {
        double acc = b[size_t(oc)];
        const i64 iy0 = oy * stride_ - pad_;
        const i64 ix0 = ox * stride_ - pad_;
        for (i64 ic = 0; ic < in_ch_; ++ic) {
          for (i64 ky = 0; ky < k_; ++ky) {
            const i64 iy = iy0 + ky;
            if (iy < 0 || iy >= in.h) continue;
            for (i64 kx = 0; kx < k_; ++kx) {
              const i64 ix = ix0 + kx;
              if (ix < 0 || ix >= in.w) continue;
              acc += double(w[size_t(((oc * in_ch_ + ic) * k_ + ky) * k_ + kx)]) *
                     double(in.at(ic, iy, ix));
            }
          }
        }
        out.at(oc, oy, ox) = float(acc);
      }
    }
  }
  return out;
}

FeatureMap naive_conv_backward(Conv2D& conv, const FeatureMap& in,
                               const FeatureMap& dout) {
  const i64 in_ch_ = conv.in_ch(), out_ch_ = conv.out_ch(), k_ = conv.ksize();
  const i64 stride_ = conv.stride(), pad_ = k_ / 2;
  const auto& w = conv.w;
  auto& gw = conv.gw;
  auto& gb = conv.gb;
  MLR_CHECK(in.c == in_ch_ && dout.c == out_ch_);
  FeatureMap din(in.c, in.h, in.w);
  for (i64 oc = 0; oc < out_ch_; ++oc) {
    for (i64 oy = 0; oy < dout.h; ++oy) {
      for (i64 ox = 0; ox < dout.w; ++ox) {
        const float g = dout.at(oc, oy, ox);
        if (g == 0.0f) continue;
        gb[size_t(oc)] += g;
        const i64 iy0 = oy * stride_ - pad_;
        const i64 ix0 = ox * stride_ - pad_;
        for (i64 ic = 0; ic < in_ch_; ++ic) {
          for (i64 ky = 0; ky < k_; ++ky) {
            const i64 iy = iy0 + ky;
            if (iy < 0 || iy >= in.h) continue;
            for (i64 kx = 0; kx < k_; ++kx) {
              const i64 ix = ix0 + kx;
              if (ix < 0 || ix >= in.w) continue;
              const auto wi = size_t(((oc * in_ch_ + ic) * k_ + ky) * k_ + kx);
              gw[wi] += g * in.at(ic, iy, ix);
              din.at(ic, iy, ix) += g * w[wi];
            }
          }
        }
      }
    }
  }
  return din;
}

std::vector<float> naive_dense_forward(const Dense& fc,
                                       const std::vector<float>& in) {
  const i64 in_ = fc.in_dim(), out_ = fc.out_dim();
  const auto& w = fc.w;
  const auto& b = fc.b;
  MLR_CHECK(i64(in.size()) == in_);
  std::vector<float> out(static_cast<size_t>(out_));
  for (i64 o = 0; o < out_; ++o) {
    double acc = b[size_t(o)];
    const float* row = w.data() + size_t(o * in_);
    for (i64 i = 0; i < in_; ++i) acc += double(row[i]) * double(in[size_t(i)]);
    out[size_t(o)] = float(acc);
  }
  return out;
}

std::vector<float> naive_dense_backward(Dense& fc, const std::vector<float>& in,
                                        const std::vector<float>& dout) {
  const i64 in_ = fc.in_dim(), out_ = fc.out_dim();
  const auto& w = fc.w;
  auto& gw = fc.gw;
  auto& gb = fc.gb;
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

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Test values. Plain normals catch a changed product rounding. But a
// float×float product is exact in double, and a double sum of products of one
// scale, rounded to float, rarely shows a changed addition order.
// `cancelling` values make it show: ±2^40 and ±1, whose huge products cancel
// exactly and leave small terms that were rounded against them only if they
// were added while a huge term was pending. Both mix in exact zeros of both
// signs, as ReLU masks leave them in real gradients.
void fill_hard(std::vector<float>& v, Rng& rng, bool cancelling) {
  for (auto& x : v) {
    const double u = rng.uniform();
    const float sign = rng.flip() ? 1.0f : -1.0f;
    x = u < 0.15                ? 0.0f
        : u < 0.2               ? -0.0f
        : cancelling && u < 0.3 ? sign * 0x1p40f
        : cancelling && u < 0.6 ? sign
                                : float(rng.normal());
  }
}

// Stride 1 and 2; kernels 1, 3 and 5; channel counts that are not multiples
// of any vector width; spatial sizes at or below the padding.
TEST(LayerKernels, ConvMatchesDirectLoopsBitForBit) {
  Rng rng(40);
  int cases = 0;
  for (const bool cancelling : {false, true})
    for (const i64 stride : {1, 2})
      for (const i64 k : {1, 3, 5})
        for (const auto& [ic, oc] : {std::pair<i64, i64>{1, 1}, {2, 3},
                                     {3, 9}, {7, 17}, {32, 64}})
          for (const auto& [h, w] : {std::pair<i64, i64>{1, 1}, {2, 3},
                                     {5, 7}, {8, 8}}) {
            SCOPED_TRACE(::testing::Message()
                         << "stride " << stride << " k " << k << " ic " << ic
                         << " oc " << oc << " " << h << "x" << w
                         << (cancelling ? " cancelling" : ""));
            Rng init(static_cast<u64>(cases));
            Conv2D fast(ic, oc, k, stride, init);
            fill_hard(fast.w, rng, cancelling);
            fill_hard(fast.b, rng, cancelling);
            Conv2D ref = fast;
            FeatureMap in(ic, h, w);
            fill_hard(in.v, rng, cancelling);
            const auto out = fast.forward(in);
            EXPECT_TRUE(same_bits(out.v, naive_conv_forward(ref, in).v));
            // Two backward passes: the second accumulates onto the first's
            // gradient buffers, as a training pair does.
            for (int pass = 0; pass < 2; ++pass) {
              FeatureMap dout(out.c, out.h, out.w);
              fill_hard(dout.v, rng, cancelling);
              const auto din = fast.backward(in, dout);
              EXPECT_TRUE(
                  same_bits(din.v, naive_conv_backward(ref, in, dout).v));
              EXPECT_TRUE(same_bits(fast.gw, ref.gw));
              EXPECT_TRUE(same_bits(fast.gb, ref.gb));
            }
            // accumulate_grads is backward() without dL/din.
            FeatureMap dout(out.c, out.h, out.w);
            fill_hard(dout.v, rng, cancelling);
            fast.accumulate_grads(in, dout);
            (void)naive_conv_backward(ref, in, dout);
            EXPECT_TRUE(same_bits(fast.gw, ref.gw));
            EXPECT_TRUE(same_bits(fast.gb, ref.gb));
            ++cases;
          }
  EXPECT_EQ(cases, 2 * 2 * 3 * 5 * 4);
}

// The split kernels a pooled training step runs: a channel-range forward,
// weight gradients of a channel range added image by image, and the input
// gradient alone. Ranges are uneven and cut through forward blocks; every
// piece must equal the direct loops' bits.
TEST(LayerKernels, SplitConvKernelsMatchDirectLoopsBitForBit) {
  Rng rng(42);
  int cases = 0;
  for (const bool cancelling : {false, true})
    for (const i64 stride : {1, 2})
      for (const i64 k : {1, 3, 5})
        for (const auto& [ic, oc] : {std::pair<i64, i64>{2, 3}, {3, 9},
                                     {7, 17}, {32, 64}})
          for (const auto& [h, w] : {std::pair<i64, i64>{2, 3}, {5, 7},
                                     {8, 8}}) {
            SCOPED_TRACE(::testing::Message()
                         << "stride " << stride << " k " << k << " ic " << ic
                         << " oc " << oc << " " << h << "x" << w
                         << (cancelling ? " cancelling" : ""));
            Rng init(static_cast<u64>(cases));
            Conv2D split(ic, oc, k, stride, init);
            fill_hard(split.w, rng, cancelling);
            fill_hard(split.b, rng, cancelling);
            Conv2D ref = split;
            FeatureMap in_a(ic, h, w), in_b(ic, h, w);
            fill_hard(in_a.v, rng, cancelling);
            fill_hard(in_b.v, rng, cancelling);
            // Range cuts: uneven, one empty range, blocks cut mid-way.
            std::vector<i64> cuts = {0, oc / 3, oc / 3, (2 * oc) / 3 + 1, oc};
            for (auto& c : cuts) c = std::min(c, oc);
            FeatureMap out(oc, split.out_h(h), split.out_w(w));
            for (std::size_t r = 0; r + 1 < cuts.size(); ++r)
              split.forward_channels(in_a, cuts[r], cuts[r + 1], out);
            EXPECT_TRUE(same_bits(out.v, naive_conv_forward(ref, in_a).v));

            FeatureMap dout_a(out.c, out.h, out.w), dout_b(out.c, out.h, out.w);
            fill_hard(dout_a.v, rng, cancelling);
            fill_hard(dout_b.v, rng, cancelling);
            // Image a then image b on each range: one training pair.
            for (std::size_t r = 0; r + 1 < cuts.size(); ++r) {
              split.accumulate_weight_grads(in_a, dout_a, cuts[r], cuts[r + 1]);
              split.accumulate_weight_grads(in_b, dout_b, cuts[r], cuts[r + 1]);
            }
            const auto din_a = naive_conv_backward(ref, in_a, dout_a);
            const auto din_b = naive_conv_backward(ref, in_b, dout_b);
            EXPECT_TRUE(same_bits(split.gw, ref.gw));
            EXPECT_TRUE(same_bits(split.gb, ref.gb));

            const auto gw_before = split.gw;
            FeatureMap din(ic, h, w);
            split.input_grad(dout_a, din);
            EXPECT_TRUE(same_bits(din.v, din_a.v));
            split.input_grad(dout_b, din);  // overwrites, never accumulates
            EXPECT_TRUE(same_bits(din.v, din_b.v));
            EXPECT_TRUE(same_bits(split.gw, gw_before));
            ++cases;
          }
  EXPECT_EQ(cases, 2 * 2 * 3 * 4 * 3);
}

// ReLU and pooling act per channel, so their channel-range forms, applied
// range by range, give the whole-map results.
TEST(LayerKernels, ChannelRangePoolingMatchesWholeMap) {
  Rng rng(43);
  FeatureMap in(7, 9, 6);
  fill_hard(in.v, rng, true);
  FeatureMap pooled(in.c, in.h / 2, in.w / 2), dpool(pooled.c, pooled.h, pooled.w);
  fill_hard(dpool.v, rng, true);
  FeatureMap din(in.c, in.h, in.w);
  fill_hard(din.v, rng, true);  // stale values the ranges must overwrite
  for (const auto& [c0, c1] : {std::pair<i64, i64>{0, 2}, {2, 2}, {2, 7}}) {
    avgpool2_channels(in, c0, c1, pooled);
    avgpool2_backward_channels(dpool, c0, c1, din);
  }
  EXPECT_TRUE(same_bits(pooled.v, avgpool2(in).v));
  EXPECT_TRUE(same_bits(din.v, avgpool2_backward(in, dpool).v));
  EXPECT_EQ(in.channels(2, 5).size(), size_t(3 * 9 * 6));
  EXPECT_EQ(in.channels(2, 5).data(), &in.at(2, 0, 0));
}

TEST(LayerKernels, DenseMatchesDirectLoopsBitForBit) {
  Rng rng(41);
  for (const bool cancelling : {false, true})
    for (const auto& [in_dim, out_dim] :
         {std::pair<i64, i64>{1, 1}, {5, 3}, {7, 9}, {33, 17}, {1024, 60},
          {1023, 61}, {8, 16}, {4, 2}}) {
      SCOPED_TRACE(::testing::Message() << in_dim << " -> " << out_dim
                                        << (cancelling ? " cancelling" : ""));
      Rng init(static_cast<u64>(in_dim));
      Dense fast(in_dim, out_dim, init);
      fill_hard(fast.w, rng, cancelling);
      fill_hard(fast.b, rng, cancelling);
      Dense ref = fast;
      std::vector<float> in(static_cast<size_t>(in_dim));
      fill_hard(in, rng, cancelling);
      EXPECT_TRUE(same_bits(fast.forward(in), naive_dense_forward(ref, in)));
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<float> dout(static_cast<size_t>(out_dim));
        fill_hard(dout, rng, cancelling);
        EXPECT_TRUE(same_bits(fast.backward(in, dout),
                              naive_dense_backward(ref, in, dout)));
        EXPECT_TRUE(same_bits(fast.gw, ref.gw));
        EXPECT_TRUE(same_bits(fast.gb, ref.gb));
      }
    }
}

// Scalar loss = sum of elements; checks dL/dw by finite differences.
TEST(Conv2D, WeightGradientMatchesFiniteDifference) {
  Rng rng(1);
  Conv2D conv(2, 3, 3, 1, rng);
  auto in = random_fm(2, 6, 6, rng);
  auto out = conv.forward(in);
  FeatureMap dout(out.c, out.h, out.w);
  for (auto& x : dout.v) x = 1.0f;  // L = sum(out)
  (void)conv.backward(in, dout);
  const double eps = 1e-3;
  for (std::size_t wi : {0ul, 7ul, 25ul, conv.w.size() - 1}) {
    const float orig = conv.w[wi];
    conv.w[wi] = orig + float(eps);
    auto op = conv.forward(in);
    conv.w[wi] = orig - float(eps);
    auto om = conv.forward(in);
    conv.w[wi] = orig;
    double lp = 0, lm = 0;
    for (auto v : op.v) lp += v;
    for (auto v : om.v) lm += v;
    const double want = (lp - lm) / (2 * eps);
    EXPECT_NEAR(conv.gw[wi], want, 1e-2 * std::max(1.0, std::abs(want)))
        << "w index " << wi;
  }
}

TEST(Conv2D, InputGradientMatchesFiniteDifference) {
  Rng rng(2);
  Conv2D conv(1, 2, 3, 1, rng);
  auto in = random_fm(1, 5, 5, rng);
  auto out = conv.forward(in);
  FeatureMap dout(out.c, out.h, out.w);
  for (auto& x : dout.v) x = 1.0f;
  auto din = conv.backward(in, dout);
  const double eps = 1e-3;
  for (std::size_t ii : {0ul, 12ul, 24ul}) {
    const float orig = in.v[ii];
    in.v[ii] = orig + float(eps);
    auto op = conv.forward(in);
    in.v[ii] = orig - float(eps);
    auto om = conv.forward(in);
    in.v[ii] = orig;
    double lp = 0, lm = 0;
    for (auto v : op.v) lp += v;
    for (auto v : om.v) lm += v;
    EXPECT_NEAR(din.v[ii], (lp - lm) / (2 * eps), 1e-2);
  }
}

TEST(Conv2D, StrideReducesOutput) {
  Rng rng(3);
  Conv2D conv(1, 1, 3, 2, rng);
  auto in = random_fm(1, 8, 8, rng);
  auto out = conv.forward(in);
  EXPECT_EQ(out.h, 4);
  EXPECT_EQ(out.w, 4);
}

TEST(Dense, GradientsMatchFiniteDifference) {
  Rng rng(4);
  Dense fc(6, 4, rng);
  std::vector<float> in(6);
  for (auto& x : in) x = float(rng.normal());
  std::vector<float> dout(4, 1.0f);
  (void)fc.backward(in, dout);
  const double eps = 1e-3;
  for (std::size_t wi : {0ul, 11ul, 23ul}) {
    const float orig = fc.w[wi];
    fc.w[wi] = orig + float(eps);
    auto op = fc.forward(in);
    fc.w[wi] = orig - float(eps);
    auto om = fc.forward(in);
    fc.w[wi] = orig;
    double lp = 0, lm = 0;
    for (auto v : op) lp += v;
    for (auto v : om) lm += v;
    EXPECT_NEAR(fc.gw[wi], (lp - lm) / (2 * eps), 1e-2);
  }
}

TEST(Relu, ForwardBackwardMask) {
  std::vector<float> v{-1.0f, 2.0f, -0.5f, 3.0f};
  relu_forward(v);
  EXPECT_EQ(v, (std::vector<float>{0, 2, 0, 3}));
  std::vector<float> g{1, 1, 1, 1};
  relu_backward(v, g);
  EXPECT_EQ(g, (std::vector<float>{0, 1, 0, 1}));
}

TEST(AvgPool, ForwardAndBackwardConserveMass) {
  Rng rng(5);
  auto in = random_fm(2, 4, 4, rng);
  auto out = avgpool2(in);
  EXPECT_EQ(out.h, 2);
  double sin = 0, sout = 0;
  for (auto v : in.v) sin += v;
  for (auto v : out.v) sout += v;
  EXPECT_NEAR(sout * 4.0, sin, 1e-4);
  FeatureMap dout(out.c, out.h, out.w);
  for (auto& x : dout.v) x = 1.0f;
  auto din = avgpool2_backward(in, dout);
  double sdin = 0;
  for (auto v : din.v) sdin += v;
  EXPECT_NEAR(sdin, double(out.size()), 1e-4);  // each out grad spreads to 4×0.25
}

TEST(Adam, DecreasesQuadratic) {
  // Minimize f(x) = x² from x=5.
  std::vector<float> x{5.0f};
  std::vector<float> g(1);
  Adam opt(1, 0.1);
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0f * x[0];
    opt.step(x, g);
    EXPECT_EQ(g[0], 0.0f);  // gradient accumulator consumed
  }
  EXPECT_LT(std::abs(x[0]), 0.3f);
}

// The scalar Adam loop the two-lane update replaced, verbatim.
struct ScalarAdam {
  double lr_;
  std::vector<float> m_, v_;
  i64 t_ = 0;
  void step(std::vector<float>& param, std::vector<float>& grad) {
    constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
    ++t_;
    const double bc1 = 1.0 - std::pow(b1, double(t_));
    const double bc2 = 1.0 - std::pow(b2, double(t_));
    for (std::size_t i = 0; i < param.size(); ++i) {
      m_[i] = float(b1 * m_[i] + (1.0 - b1) * grad[i]);
      v_[i] = float(b2 * v_[i] + (1.0 - b2) * double(grad[i]) * grad[i]);
      const double mh = m_[i] / bc1;
      const double vh = v_[i] / bc2;
      param[i] -= float(lr_ * mh / (std::sqrt(vh) + eps));
      grad[i] = 0.0f;  // consume the accumulator
    }
  }
};

// Odd lengths run the scalar tail; updates split into uneven ranges start
// pairs at odd offsets. Gradients mix zeros of both signs, subnormals,
// huge values (whose squares overflow the float second moment) and plain
// normals; parameters start at ±0 among them.
TEST(Adam, MatchesScalarLoopBitForBit) {
  Rng rng(44);
  for (const std::size_t n : {1ul, 2ul, 7ul, 64ul, 1001ul}) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    Adam lanes(n, 1e-3);
    ScalarAdam ref{1e-3, std::vector<float>(n, 0.0f), std::vector<float>(n, 0.0f)};
    std::vector<float> p(n);
    fill_hard(p, rng, false);
    std::vector<float> q = p;
    for (int step = 0; step < 40; ++step) {
      std::vector<float> g(n);
      for (auto& x : g) {
        const double u = rng.uniform();
        const float sign = rng.flip() ? 1.0f : -1.0f;
        x = u < 0.1    ? 0.0f
            : u < 0.2  ? -0.0f
            : u < 0.35 ? sign * 0x1p-140f  // subnormal
            : u < 0.45 ? sign * 0x1p100f   // square overflows float
                       : float(rng.normal());
      }
      std::vector<float> h = g;
      if (step % 2 == 0) {
        lanes.step(p, g);
      } else {
        lanes.begin_step();
        const std::size_t cut1 = n / 3 | 1, cut2 = std::min(n, cut1 + n / 2);
        lanes.update(p, g, cut2, n);
        lanes.update(p, g, std::min(cut1, n), cut2);
        lanes.update(p, g, 0, std::min(cut1, n));
      }
      ref.step(q, h);
      ASSERT_TRUE(same_bits(p, q)) << "step " << step;
      ASSERT_TRUE(same_bits(g, h)) << "step " << step;
    }
  }
  // Random inputs rarely show a reordered quotient once it is rounded to
  // float. These two-step gradients, found by search, move the parameter
  // by one float ulp if lr·m̂/(√v̂+ε) is computed as lr·(m̂/(√v̂+ε)): two
  // elements fill an SSE pair, the third runs the scalar tail.
  Adam lanes(3, 1e-3);
  ScalarAdam ref{1e-3, std::vector<float>(3, 0.0f), std::vector<float>(3, 0.0f)};
  std::vector<float> p(3, 0.0f), q(3, 0.0f);
  for (const auto& step : {std::vector<float>{0x1.11d4f8p-1f, 0x1.acbe64p-1f,
                                              0x1.11d4f8p-1f},
                           std::vector<float>{0x1.1dbf04p+0f, 0x1.8d12e6p+0f,
                                              0x1.1dbf04p+0f}}) {
    std::vector<float> g = step, h = step;
    lanes.step(p, g);
    ref.step(q, h);
  }
  EXPECT_TRUE(same_bits(p, q));
}

// ---------------------------------------------------------------------------
// Encoder end-to-end.

std::vector<cfloat> random_chunk(i64 n, Rng& rng) {
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

TEST(CnnEncoder, OutputDimensionAndDeterminism) {
  CnnEncoder enc;
  Rng rng(6);
  auto chunk = random_chunk(16 * 16, rng);
  auto z1 = enc.encode({16, 16, chunk});
  auto z2 = enc.encode({16, 16, chunk});
  ASSERT_EQ(z1.size(), 60u);
  EXPECT_EQ(z1, z2);
}

TEST(CnnEncoder, HandlesArbitraryChunkShapes) {
  CnnEncoder enc;
  Rng rng(7);
  for (auto [r, c] : {std::pair<i64, i64>{8, 8}, {12, 40}, {64, 64}, {5, 7}}) {
    auto chunk = random_chunk(r * c, rng);
    auto z = enc.encode({r, c, chunk});
    EXPECT_EQ(z.size(), 60u);
  }
}

TEST(CnnEncoder, IdenticalChunksEncodeIdentically) {
  CnnEncoder enc;
  Rng rng(8);
  auto chunk = random_chunk(32 * 32, rng);
  auto za = enc.encode({32, 32, chunk});
  auto zb = enc.encode({32, 32, chunk});
  double d = 0;
  for (std::size_t i = 0; i < za.size(); ++i)
    d += double(za[i] - zb[i]) * (za[i] - zb[i]);
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(CnnEncoder, ContrastiveTrainingReducesLoss) {
  CnnEncoder enc({.input_hw = 16, .embed_dim = 16, .lr = 3e-4});
  Rng rng(9);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(random_chunk(16 * 16, rng));
  // Loss of first steps vs trained tail.
  double first = 0;
  Rng prng(10);
  for (int s = 0; s < 8; ++s) {
    const auto i = size_t(prng.uniform_int(0, 10));
    first += enc.train_pair({16, 16, samples[i]}, {16, 16, samples[i + 1]});
  }
  first /= 8;
  const double tail = enc.train(samples, 16, 16, 150, 11);
  EXPECT_LT(tail, first);
}

TEST(CnnEncoder, TrainedEncoderPreservesSimilarityOrdering) {
  // After training, a near-duplicate chunk must embed closer than an
  // unrelated chunk — the property the τ threshold relies on.
  CnnEncoder enc({.input_hw = 16, .embed_dim = 16, .lr = 3e-4});
  Rng rng(12);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(random_chunk(16 * 16, rng));
  enc.train(samples, 16, 16, 200, 13);
  auto base = samples[0];
  auto near = base;
  for (auto& x : near) x += cfloat(float(rng.normal(0, 0.01)), 0);
  const auto& far = samples[5];
  auto zb = enc.encode({16, 16, base});
  auto zn = enc.encode({16, 16, near});
  auto zf = enc.encode({16, 16, far});
  auto dist = [](const std::vector<float>& a, const std::vector<float>& b) {
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      s += double(a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(s);
  };
  EXPECT_LT(dist(zb, zn), dist(zb, zf));
}

TEST(CnnEncoder, QuantizationPreservesEmbeddingsApproximately) {
  CnnEncoder enc({.input_hw = 16, .embed_dim = 16});
  Rng rng(14);
  auto chunk = random_chunk(16 * 16, rng);
  auto zf = enc.encode({16, 16, chunk});
  enc.quantize();
  ASSERT_TRUE(enc.quantized());
  auto zq = enc.encode_quantized({16, 16, chunk});
  double num = 0, den = 0;
  for (std::size_t i = 0; i < zf.size(); ++i) {
    num += double(zf[i] - zq[i]) * (zf[i] - zq[i]);
    den += double(zf[i]) * zf[i];
  }
  EXPECT_LT(std::sqrt(num / std::max(den, 1e-12)), 0.05);  // <5 % relative
}

template <class V>
u64 fold(u64 h, const V& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(v[0]));
}

// FNV-1a digests of the default encoder's parameters after 40 training
// steps, of its float keys and of its INT8 keys on fixed seeded chunks,
// recorded with the direct-loop layers and serial training. Any change to a
// key bit changes the hit pattern, and so the accuracy, of every memoized
// run. Training fans out on the given pool; every width must reproduce the
// serial bits (3 workers split the channel ranges unevenly).
TEST(CnnEncoder, GoldenTrainingAndKeys) {
  Rng rng(2025);
  std::vector<std::vector<cfloat>> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(random_chunk(32 * 32, rng));
  Rng crng(2026);
  std::vector<std::tuple<i64, i64, std::vector<cfloat>>> chunks;
  for (const auto& [r, c] : {std::pair<i64, i64>{32, 32}, {12, 12},
                             {12, 40}, {5, 7}, {64, 64}})
    chunks.emplace_back(r, c, random_chunk(r * c, crng));

  for (const unsigned width : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "pool width " << width);
    ThreadPool pool(width);
    CnnEncoder enc;
    const double loss = enc.train(samples, 32, 32, 40, 17, pool);
    u64 loss_bits = 0;
    std::memcpy(&loss_bits, &loss, sizeof loss);
    EXPECT_EQ(loss_bits, 0x4038b02037bf2fecull) << loss;

    u64 weights = kFnvOffsetBasis;
    for (const Conv2D* c : {&enc.conv1(), &enc.conv2()})
      weights = fold(fold(weights, c->w), c->b);
    weights = fold(fold(weights, enc.fc().w), enc.fc().b);
    EXPECT_EQ(weights, 0x4d614514e9c4d382ull);

    u64 keys = kFnvOffsetBasis;
    for (const auto& [r, c, d] : chunks) keys = fold(keys, enc.encode({r, c, d}));
    EXPECT_EQ(keys, 0x7a7a27d5579341d4ull);
    enc.quantize();
    u64 int8_keys = kFnvOffsetBasis;
    for (const auto& [r, c, d] : chunks)
      int8_keys = fold(int8_keys, enc.encode_quantized({r, c, d}));
    EXPECT_EQ(int8_keys, 0x3241cd4940ea8b17ull);
  }
}

// Every batch of 1–5 chunks, mixing the shapes the stage engine keys, gives
// each chunk the bits of its single-chunk key — float weights before
// quantize(), INT8 after — at every pool width (3 threads split the
// (image, channel block) tasks unevenly).
TEST(CnnEncoder, BatchKeysMatchSingleKeys) {
  Rng rng(2027);
  std::vector<std::tuple<i64, i64, std::vector<cfloat>>> chunks;
  for (int i = 0; i < 5; ++i)
    for (const auto& [r, c] : {std::pair<i64, i64>{32, 32}, {12, 12},
                               {12, 40}, {5, 7}})
      chunks.emplace_back(r, c, random_chunk(r * c, rng));
  CnnEncoder enc;
  for (const bool int8 : {false, true}) {
    if (int8) enc.quantize();
    std::vector<std::vector<float>> single;
    for (const auto& [r, c, d] : chunks)
      single.push_back(int8 ? enc.encode_quantized({r, c, d})
                            : enc.encode({r, c, d}));
    for (const unsigned width : {1u, 2u, 3u, 4u}) {
      ThreadPool pool(width);
      for (std::size_t len = 1; len <= 5; ++len)
        for (std::size_t first = 0; first + len <= chunks.size(); first += len) {
          SCOPED_TRACE(::testing::Message()
                       << (int8 ? "int8" : "float") << " width " << width
                       << " batch [" << first << ", " << first + len << ")");
          std::vector<ChunkImage> batch;
          for (std::size_t k = first; k < first + len; ++k) {
            const auto& [r, c, d] = chunks[k];
            batch.push_back({r, c, d});
          }
          const auto keys = enc.encode_batch(batch, pool);
          ASSERT_EQ(keys.size(), len);
          for (std::size_t k = 0; k < len; ++k)
            EXPECT_TRUE(same_bits(keys[k], single[first + k])) << "key " << k;
        }
    }
  }
}

// A warm chunk holding a NaN or an infinity never reaches training: the
// registry drops it without using a slot, counts it, and trains exactly as
// if it had never been offered.
TEST(EncoderRegistry, NonFiniteSampleIsDroppedAndCounted) {
  const EncoderConfig cfg{.input_hw = 16, .embed_dim = 16};
  Rng rng(18);
  std::vector<std::vector<cfloat>> planes;
  for (int i = 0; i < 5; ++i) planes.push_back(random_chunk(12 * 12, rng));
  std::vector<cfloat> nan_plane = random_chunk(12 * 12, rng);
  nan_plane[7] = cfloat(std::nanf(""), 0.0f);
  std::vector<cfloat> inf_plane = random_chunk(12 * 12, rng);
  inf_plane[0] = cfloat(0.0f, -INFINITY);

  auto& dropped = obs::metrics().counter("encoder.nonfinite_samples");
  const u64 before = dropped.value();
  EncoderRegistry clean(cfg), fed(cfg);
  clean.set_collect(true, 4);
  fed.set_collect(true, 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(clean.add_sample(planes[size_t(i)], 12, 12));
  EXPECT_TRUE(fed.add_sample(planes[0], 12, 12));
  EXPECT_TRUE(fed.add_sample(nan_plane, 12, 12));
  EXPECT_EQ(dropped.value() - before, 1u);
  for (int i = 1; i < 4; ++i) EXPECT_TRUE(fed.add_sample(planes[size_t(i)], 12, 12));
  EXPECT_FALSE(fed.add_sample(inf_plane, 12, 12));  // full: refused first
  EXPECT_EQ(dropped.value() - before, 1u);
  EXPECT_EQ(fed.collected(), 4u);

  ThreadPool pool(2);
  const double lc = clean.train_from_collected(30, pool);
  const double lf = fed.train_from_collected(30, pool);
  EXPECT_EQ(std::memcmp(&lc, &lf, sizeof lc), 0);
  EXPECT_EQ(fed.steps_trained(), 30);
  const auto digest = [](const CnnEncoder& e) {
    u64 h = kFnvOffsetBasis;
    for (const Conv2D* c : {&e.conv1(), &e.conv2()}) h = fold(fold(h, c->w), c->b);
    return fold(fold(h, e.fc().w), e.fc().b);
  };
  EXPECT_EQ(digest(fed.encoder()), digest(clean.encoder()));
  EXPECT_TRUE(fed.encoder().quantized());

  // With room left, an infinite plane is dropped and collection goes on.
  EncoderRegistry roomy(cfg);
  roomy.set_collect(true, 2);
  EXPECT_TRUE(roomy.add_sample(inf_plane, 12, 12));
  EXPECT_EQ(roomy.collected(), 0u);
  EXPECT_EQ(dropped.value() - before, 2u);
}

TEST(CnnEncoder, TrainAfterQuantizeRejected) {
  CnnEncoder enc({.input_hw = 16, .embed_dim = 8});
  enc.quantize();
  Rng rng(15);
  auto a = random_chunk(16 * 16, rng), b = random_chunk(16 * 16, rng);
  EXPECT_THROW(enc.train_pair({16, 16, a}, {16, 16, b}), mlr::Error);
}

TEST(CnnEncoder, EncodeFlopsTinyVsFft) {
  CnnEncoder enc;
  // Paper: CNN inference <1 % of total time. Sanity: a few MFLOPs.
  EXPECT_LT(enc.encode_flops(), 2.0e7);
  EXPECT_GT(enc.encode_flops(), 1.0e5);
}

TEST(AverageSlab, ReducesAlongFirstAxis) {
  Rng rng(16);
  auto slab = random_chunk(3 * 4 * 5, rng);
  auto avg = average_slab(slab, 3, 4, 5);
  ASSERT_EQ(avg.size(), 20u);
  for (i64 i = 0; i < 20; ++i) {
    cfloat want{};
    for (i64 s = 0; s < 3; ++s) want += slab[size_t(s * 20 + i)];
    want /= 3.0f;
    EXPECT_NEAR(std::abs(avg[size_t(i)] - want), 0.0, 1e-5);
  }
}

TEST(ChunkL2, MatchesDefinition) {
  std::vector<cfloat> a{{1, 0}, {0, 0}}, b{{0, 0}, {0, 1}};
  EXPECT_NEAR(chunk_l2(a, b), std::sqrt(2.0), 1e-9);
}

}  // namespace
}  // namespace mlr::encoder
