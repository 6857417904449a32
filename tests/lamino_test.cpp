// Tests for the laminography geometry, operators and phantoms.
// The load-bearing properties: adjoint consistency <Lu, d> == <u, L*d>
// (CG correctness), the F_2D·F*_2D = I cancellation identity, chunked ==
// whole-volume equality, bit-identity of the batched kernels with the
// scalar one-column-at-a-time loops, and phantom sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "lamino/geometry.hpp"
#include "lamino/operators.hpp"
#include "lamino/phantom.hpp"

#include "bit_identity_geometries.hpp"
#include "ref_nufft.hpp"

namespace mlr::lamino {
namespace {

Array3D<cfloat> random_volume(Shape3 s, u64 seed) {
  Array3D<cfloat> v(s);
  Rng rng(seed);
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

cdouble inner(std::span<const cfloat> a, std::span<const cfloat> b) {
  cdouble acc{};
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += cdouble(a[i]) * std::conj(cdouble(b[i]));
  return acc;
}

TEST(Geometry, CubePresetShapes) {
  auto g = Geometry::cube(16);
  g.validate();
  EXPECT_EQ(g.object_shape(), (Shape3{16, 16, 16}));
  EXPECT_EQ(g.data_shape(), (Shape3{16, 16, 16}));
  EXPECT_EQ(g.u1_shape(), (Shape3{16, 16, 16}));
}

TEST(Geometry, ValidateRejectsBadConfig) {
  Geometry g = Geometry::cube(8);
  g.phi = 0.0;
  EXPECT_THROW(g.validate(), Error);
  g = Geometry::cube(8);
  g.n0 = 1;
  EXPECT_THROW(g.validate(), Error);
}

TEST(Geometry, ZFrequenciesScaleWithPhi) {
  auto g90 = Geometry::cube(16, 90.0);  // sinφ = 1
  auto g30 = Geometry::cube(16, 30.0);  // sinφ = 0.5
  auto z90 = g90.z_frequencies();
  auto z30 = g30.z_frequencies();
  for (std::size_t i = 0; i < z90.size(); ++i)
    EXPECT_NEAR(z30[i], 0.5 * z90[i], 1e-9);
}

TEST(Geometry, PlaneFrequenciesCenterRowIsRing) {
  // kv = 0 (center frequency): points are ku·(cosθ, sinθ) — radius |ku|.
  auto g = Geometry::cube(16);
  std::vector<double> nr, nc;
  g.plane_frequencies(0, nr, nc);
  ASSERT_EQ(nr.size(), size_t(g.ntheta * g.w));
  for (i64 t = 0; t < g.ntheta; ++t) {
    for (i64 ku = 0; ku < g.w; ++ku) {
      const auto j = size_t(t * g.w + ku);
      const double r = std::hypot(nr[j], nc[j]);
      const double kuc = std::abs(double(fft::to_centered(ku, g.w)));
      EXPECT_NEAR(r, kuc, 1e-9);
    }
  }
}

TEST(Geometry, ThetaUniform) {
  auto g = Geometry::cube(8);
  EXPECT_DOUBLE_EQ(g.theta(0), 0.0);
  EXPECT_NEAR(g.theta(4), std::numbers::pi, 1e-12);
}

TEST(Chunks, PartitionCoversRange) {
  auto chunks = make_chunks(20, 6);
  ASSERT_EQ(chunks.size(), 4u);
  i64 covered = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].index, i64(i));
    EXPECT_EQ(chunks[i].begin, covered);
    covered += chunks[i].count;
  }
  EXPECT_EQ(covered, 20);
  EXPECT_EQ(chunks.back().count, 2);
}

TEST(Chunks, ExactDivision) {
  auto chunks = make_chunks(16, 4);
  ASSERT_EQ(chunks.size(), 4u);
  for (const auto& c : chunks) EXPECT_EQ(c.count, 4);
}

// ---------------------------------------------------------------------------
// Operator adjointness — the property CG depends on.

class OperatorAdjointness : public ::testing::TestWithParam<i64> {};

TEST_P(OperatorAdjointness, Fu1dPair) {
  const i64 n = GetParam();
  Operators ops(Geometry::cube(n));
  auto u = random_volume(ops.geometry().object_shape(), 1);
  auto y = random_volume(ops.geometry().u1_shape(), 2);
  Array3D<cfloat> Au(ops.geometry().u1_shape());
  Array3D<cfloat> Aty(ops.geometry().object_shape());
  ops.fu1d(u, Au);
  ops.fu1d_adj(y, Aty);
  const auto lhs = inner(Au.span(), y.span());
  const auto rhs = inner(u.span(), Aty.span());
  EXPECT_LT(std::abs(lhs - rhs) / std::abs(lhs), 2e-4) << "n=" << n;
}

TEST_P(OperatorAdjointness, Fu2dPair) {
  const i64 n = GetParam();
  Operators ops(Geometry::cube(n));
  auto u1 = random_volume(ops.geometry().u1_shape(), 3);
  auto y = random_volume(ops.geometry().data_shape(), 4);
  Array3D<cfloat> Au(ops.geometry().data_shape());
  Array3D<cfloat> Aty(ops.geometry().u1_shape());
  ops.fu2d(u1, Au);
  ops.fu2d_adj(y, Aty);
  const auto lhs = inner(Au.span(), y.span());
  const auto rhs = inner(u1.span(), Aty.span());
  EXPECT_LT(std::abs(lhs - rhs) / std::abs(lhs), 2e-4) << "n=" << n;
}

TEST_P(OperatorAdjointness, FullForwardAdjointPair) {
  const i64 n = GetParam();
  Operators ops(Geometry::cube(n));
  auto u = random_volume(ops.geometry().object_shape(), 5);
  auto y = random_volume(ops.geometry().data_shape(), 6);
  Array3D<cfloat> Lu(ops.geometry().data_shape());
  Array3D<cfloat> Lty(ops.geometry().object_shape());
  ops.forward(u, Lu);
  ops.adjoint(y, Lty);
  const auto lhs = inner(Lu.span(), y.span());
  const auto rhs = inner(u.span(), Lty.span());
  EXPECT_LT(std::abs(lhs - rhs) / std::abs(lhs), 3e-4) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, OperatorAdjointness,
                         ::testing::Values<i64>(8, 12, 16));

TEST(Operators, CancellationIdentity) {
  // F_2D(F*_2D(x)) == x on detector data — the algebra behind Algorithm 2.
  Operators ops(Geometry::cube(12));
  auto d = random_volume(ops.geometry().data_shape(), 7);
  auto d2 = d;
  ops.f2d(d2, /*inverse=*/true);
  ops.f2d(d2, /*inverse=*/false);
  EXPECT_LT(relative_error<cfloat>(d.span(), d2.span()), 1e-4);
}

TEST(Operators, FreqDomainForwardEqualsSpatialPlusF2d) {
  // forward_freq == F_2D ∘ forward — i.e. cancellation changes nothing.
  Operators ops(Geometry::cube(12));
  auto u = random_volume(ops.geometry().object_shape(), 8);
  Array3D<cfloat> d(ops.geometry().data_shape());
  ops.forward(u, d);
  ops.f2d(d, /*inverse=*/false);  // back to frequency domain
  Array3D<cfloat> dhat(ops.geometry().data_shape());
  ops.forward_freq(u, dhat);
  EXPECT_LT(relative_error<cfloat>(dhat.span(), d.span()), 1e-4);
}

TEST(Operators, ChunkedFu1dMatchesWhole) {
  Operators ops(Geometry::cube(12));
  const auto& g = ops.geometry();
  auto u = random_volume(g.object_shape(), 9);
  Array3D<cfloat> whole(g.u1_shape());
  ops.fu1d(u, whole);
  Array3D<cfloat> chunked(g.u1_shape());
  for (const auto& spec : make_chunks(g.n1, 5)) {
    ops.fu1d_chunk(spec, u.slices(spec.begin, spec.count),
                   chunked.slices(spec.begin, spec.count));
  }
  EXPECT_LT(relative_error<cfloat>(whole.span(), chunked.span()), 1e-5);
}

TEST(Operators, ChunkedFu2dMatchesWhole) {
  Operators ops(Geometry::cube(12));
  const auto& g = ops.geometry();
  auto u1 = random_volume(g.u1_shape(), 10);
  Array3D<cfloat> whole(g.data_shape());
  ops.fu2d(u1, whole);
  Array3D<cfloat> chunked(g.data_shape());
  for (const auto& spec : make_chunks(g.h, 5)) {
    std::vector<cfloat> in(static_cast<size_t>(spec.count * g.n1 * g.n2));
    std::vector<cfloat> out(static_cast<size_t>(spec.count * g.ntheta * g.w));
    ops.pack_u1_rows(u1, spec, in);
    ops.fu2d_chunk(spec, in, out);
    ops.unpack_dhat_rows(out, spec, chunked);
  }
  EXPECT_LT(relative_error<cfloat>(whole.span(), chunked.span()), 1e-5);
}

TEST(Operators, FusedSubtractMatchesSeparate) {
  Operators ops(Geometry::cube(8));
  const auto& g = ops.geometry();
  auto u1 = random_volume(g.u1_shape(), 11);
  auto ref = random_volume(g.data_shape(), 12);
  ChunkSpec spec{0, 0, g.h};
  std::vector<cfloat> in(static_cast<size_t>(g.h * g.n1 * g.n2));
  std::vector<cfloat> refp(static_cast<size_t>(g.h * g.ntheta * g.w));
  std::vector<cfloat> fused(refp.size()), separate(refp.size());
  ops.pack_u1_rows(u1, spec, in);
  ops.pack_dhat_rows(ref, spec, refp);
  ops.fu2d_chunk_fused_subtract(spec, in, refp, fused);
  ops.fu2d_chunk(spec, in, separate);
  for (std::size_t i = 0; i < fused.size(); ++i)
    separate[i] -= refp[i];
  EXPECT_LT(relative_error<cfloat>(separate, fused), 1e-6);
}

TEST(Operators, PackUnpackRoundtrip) {
  Operators ops(Geometry::cube(8));
  const auto& g = ops.geometry();
  auto u1 = random_volume(g.u1_shape(), 13);
  Array3D<cfloat> out(g.u1_shape());
  for (const auto& spec : make_chunks(g.h, 3)) {
    std::vector<cfloat> buf(static_cast<size_t>(spec.count * g.n1 * g.n2));
    ops.pack_u1_rows(u1, spec, buf);
    ops.unpack_u1_rows(buf, spec, out);
  }
  EXPECT_LT(relative_error<cfloat>(u1.span(), out.span()), 1e-12);
}

TEST(Operators, FlopModelsPositiveMonotone) {
  Operators ops(Geometry::cube(16));
  EXPECT_GT(ops.fu1d_chunk_flops(1), 0.0);
  EXPECT_GT(ops.fu1d_chunk_flops(4), ops.fu1d_chunk_flops(1));
  EXPECT_GT(ops.fu2d_chunk_flops(2), ops.fu2d_chunk_flops(1));
  EXPECT_GT(ops.f2d_proj_flops(), 0.0);
}

// The per-geometry ‖L*L‖ slot outlives the solve that fills it, so it keeps
// only a finite, positive estimate: a bad one throws and leaves the slot
// empty for the next caller, and a kept one is never re-estimated.
TEST(Operators, NormalOperatorNormSlotKeepsOnlyValidEstimates) {
  const Operators ops(Geometry::cube(8));
  int calls = 0;
  auto returning = [&calls](double v) {
    return [&calls, v] {
      ++calls;
      return v;
    };
  };
  EXPECT_THROW((void)ops.normal_operator_norm(returning(std::nan(""))),
               mlr::Error);
  EXPECT_THROW((void)ops.normal_operator_norm(returning(HUGE_VAL)),
               mlr::Error);
  EXPECT_THROW((void)ops.normal_operator_norm(returning(0.0)), mlr::Error);
  EXPECT_EQ(ops.normal_operator_norm(returning(2.0)), 2.0);
  EXPECT_EQ(ops.normal_operator_norm(returning(3.0)), 2.0);
  EXPECT_EQ(calls, 4);
}

// ---------------------------------------------------------------------------
// Reference: the operator kernels before batching, copied verbatim — one
// column and one 1-D transform at a time over the scalar reference NUFFT
// (ref_nufft.hpp), a column gather for the second pass of every 2-D
// transform. The batched kernels must reproduce every output bit of it.

namespace ref {

using namespace mlr::ref;

// fft2d_span with the column pass as Plan1D::execute_strided ran it: gather
// the column, transform it, scatter it back.
void fft2d_span(std::span<cfloat> a, i64 rows, i64 cols, bool inverse,
                bool unitary) {
  const fft::Plan1D row_plan(cols), col_plan(rows);
  for (i64 r = 0; r < rows; ++r) {
    row_plan.execute(a.subspan(size_t(r * cols), size_t(cols)), inverse);
  }
  std::vector<cfloat> tmp(static_cast<size_t>(rows));
  for (i64 c = 0; c < cols; ++c) {
    cfloat* data = a.data() + c;
    for (i64 i = 0; i < rows; ++i) tmp[size_t(i)] = data[i * cols];
    col_plan.execute(tmp, inverse);
    for (i64 i = 0; i < rows; ++i) data[i * cols] = tmp[size_t(i)];
  }
  if (unitary) {
    const double n = double(rows * cols);
    const float s = float(inverse ? std::sqrt(n) : 1.0 / std::sqrt(n));
    for (auto& x : a) x *= s;
  }
}

class Operators {
 public:
  explicit Operators(Geometry g)
      : geom_(g), znu_(g.z_frequencies()), nufft_z_(g.n0),
        nufft_plane_(g.n1, g.n2) {
    plane_nu_row_.resize(size_t(geom_.h));
    plane_nu_col_.resize(size_t(geom_.h));
    for (i64 kv = 0; kv < geom_.h; ++kv) {
      geom_.plane_frequencies(kv, plane_nu_row_[size_t(kv)],
                              plane_nu_col_[size_t(kv)]);
    }
    scale_1d_ = float(1.0 / std::sqrt(double(geom_.n0)));
    scale_2d_ = float(1.0 / std::sqrt(double(geom_.n1 * geom_.n2)));
  }

  void fu1d_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                  std::span<cfloat> out) const {
    const i64 n0 = geom_.n0, n2 = geom_.n2, h = geom_.h;
    std::vector<cfloat> col(static_cast<size_t>(n0));
    std::vector<cfloat> res(static_cast<size_t>(h));
    for (i64 s = 0; s < spec.count; ++s) {
      for (i64 i2 = 0; i2 < n2; ++i2) {
        for (i64 i0 = 0; i0 < n0; ++i0)
          col[size_t(i0)] = in[size_t((s * n0 + i0) * n2 + i2)];
        nufft_z_.type2(znu_, col, res, -1);
        for (i64 kv = 0; kv < h; ++kv)
          out[size_t((s * h + kv) * n2 + i2)] = res[size_t(kv)] * scale_1d_;
      }
    }
  }

  void fu1d_adj_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                      std::span<cfloat> out) const {
    const i64 n0 = geom_.n0, n2 = geom_.n2, h = geom_.h;
    std::vector<cfloat> q(static_cast<size_t>(h));
    std::vector<cfloat> res(static_cast<size_t>(n0));
    for (i64 s = 0; s < spec.count; ++s) {
      for (i64 i2 = 0; i2 < n2; ++i2) {
        for (i64 kv = 0; kv < h; ++kv)
          q[size_t(kv)] = in[size_t((s * h + kv) * n2 + i2)];
        nufft_z_.type1(znu_, q, res, +1);
        for (i64 i0 = 0; i0 < n0; ++i0)
          out[size_t((s * n0 + i0) * n2 + i2)] = res[size_t(i0)] * scale_1d_;
      }
    }
  }

  void fu2d_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                  std::span<cfloat> out) const {
    const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
    for (i64 s = 0; s < spec.count; ++s) {
      const i64 kv = spec.begin + s;
      auto plane = in.subspan(size_t(s * n1 * n2), size_t(n1 * n2));
      auto res = out.subspan(size_t(s * nth * w), size_t(nth * w));
      nufft_plane_.type2(plane_nu_row_[size_t(kv)], plane_nu_col_[size_t(kv)],
                         plane, res, -1);
      for (auto& x : res) x *= scale_2d_;
    }
  }

  void fu2d_adj_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                      std::span<cfloat> out) const {
    const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
    for (i64 s = 0; s < spec.count; ++s) {
      const i64 kv = spec.begin + s;
      auto q = in.subspan(size_t(s * nth * w), size_t(nth * w));
      auto res = out.subspan(size_t(s * n1 * n2), size_t(n1 * n2));
      nufft_plane_.type1(plane_nu_row_[size_t(kv)], plane_nu_col_[size_t(kv)],
                         q, res, +1);
      for (auto& x : res) x *= scale_2d_;
    }
  }

  void f2d(Array3D<cfloat>& d, bool inverse) const {
    for (i64 t = 0; t < geom_.ntheta; ++t)
      fft2d_span(d.slices(t, 1), geom_.h, geom_.w, inverse, /*unitary=*/true);
  }

  // Whole-volume operators: every slab / detector row as its own chunk.
  void fu1d(const Array3D<cfloat>& u, Array3D<cfloat>& u1) const {
    fu1d_chunk({0, 0, geom_.n1}, u.span(), u1.span());
  }
  void fu1d_adj(const Array3D<cfloat>& u1, Array3D<cfloat>& u) const {
    fu1d_adj_chunk({0, 0, geom_.n1}, u1.span(), u.span());
  }
  void fu2d(const Array3D<cfloat>& u1, Array3D<cfloat>& u2) const {
    const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
    std::vector<cfloat> in(static_cast<size_t>(n1 * n2));
    std::vector<cfloat> out(static_cast<size_t>(nth * w));
    for (i64 kv = 0; kv < geom_.h; ++kv) {
      for (i64 i1 = 0; i1 < n1; ++i1)
        for (i64 i2 = 0; i2 < n2; ++i2)
          in[size_t(i1 * n2 + i2)] = u1(i1, kv, i2);
      fu2d_chunk({kv, kv, 1}, in, out);
      for (i64 t = 0; t < nth; ++t)
        for (i64 ku = 0; ku < w; ++ku) u2(t, kv, ku) = out[size_t(t * w + ku)];
    }
  }
  void fu2d_adj(const Array3D<cfloat>& u2, Array3D<cfloat>& u1) const {
    const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
    std::vector<cfloat> in(static_cast<size_t>(nth * w));
    std::vector<cfloat> out(static_cast<size_t>(n1 * n2));
    for (i64 kv = 0; kv < geom_.h; ++kv) {
      for (i64 t = 0; t < nth; ++t)
        for (i64 ku = 0; ku < w; ++ku) in[size_t(t * w + ku)] = u2(t, kv, ku);
      fu2d_adj_chunk({kv, kv, 1}, in, out);
      for (i64 i1 = 0; i1 < n1; ++i1)
        for (i64 i2 = 0; i2 < n2; ++i2)
          u1(i1, kv, i2) = out[size_t(i1 * n2 + i2)];
    }
  }
  void forward(const Array3D<cfloat>& u, Array3D<cfloat>& d) const {
    Array3D<cfloat> u1(geom_.u1_shape());
    fu1d(u, u1);
    fu2d(u1, d);
    f2d(d, /*inverse=*/true);
  }
  void adjoint(const Array3D<cfloat>& d, Array3D<cfloat>& u) const {
    Array3D<cfloat> dhat = d;
    f2d(dhat, /*inverse=*/false);
    Array3D<cfloat> u1(geom_.u1_shape());
    fu2d_adj(dhat, u1);
    fu1d_adj(u1, u);
  }

 private:
  Geometry geom_;
  std::vector<double> znu_;
  std::vector<std::vector<double>> plane_nu_row_, plane_nu_col_;
  Nufft1D nufft_z_;
  Nufft2D nufft_plane_;
  float scale_1d_, scale_2d_;
};

}  // namespace ref

std::vector<cfloat> random_values(i64 n, u64 seed) {
  Rng rng(seed);
  std::vector<cfloat> v(static_cast<size_t>(n));
  for (auto& x : v) x = cfloat(float(rng.normal()), float(rng.normal()));
  return v;
}

bool same_bits(std::span<const cfloat> a, std::span<const cfloat> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

// Inputs and outputs of the four chunk kernels over a whole geometry, in the
// packed layouts the kernels take: F_u1D slabs along n1, F_u2D detector
// rows along h.
struct ChunkIo {
  explicit ChunkIo(const Geometry& g)
      : u(random_values(g.n1 * g.n0 * g.n2, 101)),
        y1(random_values(g.n1 * g.h * g.n2, 102)),
        rows(random_values(g.h * g.n1 * g.n2, 103)),
        dhat(random_values(g.h * g.ntheta * g.w, 104)),
        fu1d(y1.size()), fu1d_adj(u.size()), fu2d(dhat.size()),
        fu2d_adj(rows.size()) {}
  std::vector<cfloat> u, y1, rows, dhat;
  std::vector<cfloat> fu1d, fu1d_adj, fu2d, fu2d_adj;
};

// Runs the four chunk kernels of `ops` (lamino::Operators or ref::Operators)
// over `io`'s inputs in chunks of `chunk` (the last one ragged where
// `chunk` does not divide the extent).
template <class Ops>
void run_chunks(const Ops& ops, const Geometry& g, i64 chunk, ChunkIo& io) {
  // The slice range of `c` in a packed array of `per` values per slice.
  const auto part = [](auto& v, const ChunkSpec& c, i64 per) {
    return std::span(v).subspan(size_t(c.begin * per), size_t(c.count * per));
  };
  const i64 slab = g.n0 * g.n2, u1 = g.h * g.n2;
  for (const auto& c : make_chunks(g.n1, chunk)) {
    ops.fu1d_chunk(c, part(std::as_const(io.u), c, slab),
                   part(io.fu1d, c, u1));
    ops.fu1d_adj_chunk(c, part(std::as_const(io.y1), c, u1),
                       part(io.fu1d_adj, c, slab));
  }
  const i64 plane = g.n1 * g.n2, proj = g.ntheta * g.w;
  for (const auto& c : make_chunks(g.h, chunk)) {
    ops.fu2d_chunk(c, part(std::as_const(io.rows), c, plane),
                   part(io.fu2d, c, proj));
    ops.fu2d_adj_chunk(c, part(std::as_const(io.dhat), c, proj),
                       part(io.fu2d_adj, c, plane));
  }
}

class OperatorBitIdentity : public ::testing::TestWithParam<Geometry> {};

TEST_P(OperatorBitIdentity, ChunkKernelsMatchScalarLoops) {
  const Geometry g = GetParam();
  const Operators ops(g);
  ChunkIo want(g);
  run_chunks(ref::Operators(g), g, std::max(g.n1, g.h), want);
  for (i64 chunk : {1, 3, 4}) {
    ChunkIo got(g);
    run_chunks(ops, g, chunk, got);
    EXPECT_TRUE(same_bits(got.fu1d, want.fu1d)) << "fu1d chunk " << chunk;
    EXPECT_TRUE(same_bits(got.fu1d_adj, want.fu1d_adj))
        << "fu1d_adj chunk " << chunk;
    EXPECT_TRUE(same_bits(got.fu2d, want.fu2d)) << "fu2d chunk " << chunk;
    EXPECT_TRUE(same_bits(got.fu2d_adj, want.fu2d_adj))
        << "fu2d_adj chunk " << chunk;
  }
}

TEST_P(OperatorBitIdentity, WholeVolumeOperatorsMatchScalarLoops) {
  const Geometry g = GetParam();
  const Operators ops(g);
  const ref::Operators want_ops(g);
  const auto u = random_volume(g.object_shape(), 111);
  const auto u1 = random_volume(g.u1_shape(), 112);
  const auto d = random_volume(g.data_shape(), 113);
  const auto check = [&](const char* what, auto&& run, Shape3 shape) {
    Array3D<cfloat> got(shape), want(shape);
    run(ops, got);
    run(want_ops, want);
    EXPECT_TRUE(same_bits(got.span(), want.span())) << what;
  };
  check("fu1d", [&](const auto& o, auto& out) { o.fu1d(u, out); },
        g.u1_shape());
  check("fu1d_adj", [&](const auto& o, auto& out) { o.fu1d_adj(u1, out); },
        g.object_shape());
  check("fu2d", [&](const auto& o, auto& out) { o.fu2d(u1, out); },
        g.data_shape());
  check("fu2d_adj", [&](const auto& o, auto& out) { o.fu2d_adj(d, out); },
        g.u1_shape());
  for (bool inverse : {false, true})
    check(inverse ? "f2d inverse" : "f2d forward",
          [&](const auto& o, auto& out) {
            std::copy(d.begin(), d.end(), out.begin());
            o.f2d(out, inverse);
          },
          g.data_shape());
  check("forward", [&](const auto& o, auto& out) { o.forward(u, out); },
        g.data_shape());
  check("adjoint", [&](const auto& o, auto& out) { o.adjoint(d, out); },
        g.object_shape());
}

// FNV-1a digest of the four chunk kernels' outputs (chunk 4), the full
// forward and adjoint, and F_2D in both directions, per geometry, recorded
// with the scalar kernels. The solver is chaotic in its operator outputs,
// so any changed bit here changes memo hit patterns and Eq. 5 accuracy.
TEST(OperatorBitIdentity, GoldenDigests) {
  const std::vector<u64> golden = {
      0x30988359663a04d5ull, 0xce7bbcf95d40e255ull, 0x2729c437508eb7dcull,
      0xaaa3b94fd918279aull, 0x1bae6032a124529cull, 0x7fdf7def053add57ull,
      0xf596486d7aaa0952ull, 0x26ce94253f05954full};
  const auto geometries = bit_identity_geometries();
  ASSERT_EQ(geometries.size(), golden.size());
  for (std::size_t i = 0; i < geometries.size(); ++i) {
    const Geometry& g = geometries[i];
    const Operators ops(g);
    ChunkIo io(g);
    run_chunks(ops, g, 4, io);
    u64 h = kFnvOffsetBasis;
    for (const auto* v : {&io.fu1d, &io.fu1d_adj, &io.fu2d, &io.fu2d_adj})
      h = fnv1a(h, v->data(), v->size() * sizeof(cfloat));
    const auto u = random_volume(g.object_shape(), 111);
    const auto d = random_volume(g.data_shape(), 113);
    Array3D<cfloat> fwd(g.data_shape()), adj(g.object_shape());
    ops.forward(u, fwd);
    ops.adjoint(d, adj);
    auto f2d_fwd = d, f2d_inv = d;
    ops.f2d(f2d_fwd, /*inverse=*/false);
    ops.f2d(f2d_inv, /*inverse=*/true);
    for (const auto* a : {&fwd, &adj, &f2d_fwd, &f2d_inv})
      h = fnv1a(h, a->data(), size_t(a->size()) * sizeof(cfloat));
    EXPECT_EQ(h, golden[i]) << geometry_name(g) << std::hex << " 0x" << h;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, OperatorBitIdentity,
    ::testing::ValuesIn(bit_identity_geometries()),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return geometry_name(info.param);
    });

// Fine grids narrower than a spreading window: a window visits a cell
// twice, so the 2-D spreading's paired cell updates must keep each cell's
// adds in the scalar order.
INSTANTIATE_TEST_SUITE_P(
    TinyGeometries, OperatorBitIdentity,
    ::testing::ValuesIn(tiny_geometries()),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return geometry_name(info.param);
    });

// ---------------------------------------------------------------------------
// Phantoms.

class PhantomKinds : public ::testing::TestWithParam<PhantomKind> {};

TEST_P(PhantomKinds, ValuesInRangeAndNonTrivial) {
  auto v = make_phantom({24, 24, 24}, GetParam(), 3);
  float mx = 0, mn = 1e9f;
  double sum = 0;
  for (float x : v) {
    mx = std::max(mx, x);
    mn = std::min(mn, x);
    sum += x;
  }
  EXPECT_GE(mn, 0.0f);
  EXPECT_LE(mx, 1.0f + 1e-5f);
  EXPECT_GT(sum, 0.0);  // not empty
}

TEST_P(PhantomKinds, ConcentratedInCentralSlab) {
  // Laminography targets flat samples: mass near z-center should dominate
  // mass at the z-extremes.
  auto v = make_phantom({24, 24, 24}, GetParam(), 4);
  double central = 0, edges = 0;
  for (i64 i1 = 0; i1 < v.n1(); ++i1)
    for (i64 i0 = 0; i0 < v.n0(); ++i0)
      for (i64 i2 = 0; i2 < v.n2(); ++i2) {
        if (std::abs(i0 - v.n0() / 2) < v.n0() / 5)
          central += v(i1, i0, i2);
        else if (std::abs(i0 - v.n0() / 2) > v.n0() * 2 / 5)
          edges += v(i1, i0, i2);
      }
  EXPECT_GT(central, 10.0 * std::max(edges, 1e-9));
}

TEST_P(PhantomKinds, DeterministicAcrossCalls) {
  auto a = make_phantom({16, 16, 16}, GetParam(), 5);
  auto b = make_phantom({16, 16, 16}, GetParam(), 5);
  EXPECT_LT(relative_error<float>(a.span(), b.span()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PhantomKinds,
                         ::testing::Values(PhantomKind::BrainTissue,
                                           PhantomKind::IntegratedCircuit,
                                           PhantomKind::Pcb));

TEST(Phantom, ComplexRoundtrip) {
  auto v = make_phantom({8, 8, 8}, PhantomKind::BrainTissue, 6);
  auto c = to_complex(v);
  auto r = real_part(c);
  EXPECT_LT(relative_error<float>(v.span(), r.span()), 1e-12);
}

TEST(Phantom, SimulateProjectionsNoiseless) {
  Operators ops(Geometry::cube(8));
  auto u = to_complex(make_phantom(ops.geometry().object_shape(),
                                   PhantomKind::BrainTissue, 7));
  auto d0 = simulate_projections(ops, u, 0.0);
  Array3D<cfloat> want(ops.geometry().data_shape());
  ops.forward(u, want);
  EXPECT_LT(relative_error<cfloat>(want.span(), d0.span()), 1e-12);
}

TEST(Phantom, SimulateProjectionsNoisePerturbsByRightAmount) {
  Operators ops(Geometry::cube(8));
  auto u = to_complex(make_phantom(ops.geometry().object_shape(),
                                   PhantomKind::BrainTissue, 8));
  auto clean = simulate_projections(ops, u, 0.0);
  auto noisy = simulate_projections(ops, u, 0.05);
  const double rel = relative_error<cfloat>(clean.span(), noisy.span());
  EXPECT_GT(rel, 0.01);
  EXPECT_LT(rel, 0.2);
}

}  // namespace
}  // namespace mlr::lamino
