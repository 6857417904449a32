#include "lamino/operators.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "fft/fft.hpp"

namespace mlr::lamino {

std::vector<ChunkSpec> make_chunks(i64 total, i64 chunk_size) {
  MLR_CHECK(total > 0 && chunk_size > 0);
  std::vector<ChunkSpec> chunks;
  i64 idx = 0;
  for (i64 b = 0; b < total; b += chunk_size) {
    chunks.push_back({idx++, b, std::min(chunk_size, total - b)});
  }
  return chunks;
}

Operators::Operators(Geometry g) : geom_(g) {
  geom_.validate();
  znu_ = geom_.z_frequencies();
  nufft_z_ = std::make_unique<fft::Nufft1D>(geom_.n0);
  nufft_plane_ = std::make_unique<fft::Nufft2D>(geom_.n1, geom_.n2);
  plane_nu_row_.resize(size_t(geom_.h));
  plane_nu_col_.resize(size_t(geom_.h));
  for (i64 kv = 0; kv < geom_.h; ++kv) {
    geom_.plane_frequencies(kv, plane_nu_row_[size_t(kv)],
                            plane_nu_col_[size_t(kv)]);
  }
  // Near-unitary scaling keeps CG well conditioned and forward/adjoint an
  // exact adjoint pair (same scale on both sides).
  scale_1d_ = float(1.0 / std::sqrt(double(geom_.n0)));
  scale_2d_ = float(1.0 / std::sqrt(double(geom_.n1 * geom_.n2)));
}

// --- chunked kernels --------------------------------------------------------

// The n2 columns of a slab are the lanes of one batched 1-D NUFFT: the
// slab's [n0][n2] (or [h][n2]) block is already element-major, lane-minor.
void Operators::fu1d_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                           std::span<cfloat> out) const {
  const i64 n0 = geom_.n0, n2 = geom_.n2, h = geom_.h;
  MLR_CHECK(i64(in.size()) == spec.count * n0 * n2);
  MLR_CHECK(i64(out.size()) == spec.count * h * n2);
  for (i64 s = 0; s < spec.count; ++s) {
    nufft_z_->type2(znu_, in.subspan(size_t(s * n0 * n2), size_t(n0 * n2)),
                    out.subspan(size_t(s * h * n2), size_t(h * n2)), -1, n2);
  }
  for (auto& x : out) x *= scale_1d_;
}

void Operators::fu1d_adj_chunk(const ChunkSpec& spec,
                               std::span<const cfloat> in,
                               std::span<cfloat> out) const {
  const i64 n0 = geom_.n0, n2 = geom_.n2, h = geom_.h;
  MLR_CHECK(i64(in.size()) == spec.count * h * n2);
  MLR_CHECK(i64(out.size()) == spec.count * n0 * n2);
  for (i64 s = 0; s < spec.count; ++s) {
    // adjoint of type2(−1)
    nufft_z_->type1(znu_, in.subspan(size_t(s * h * n2), size_t(h * n2)),
                    out.subspan(size_t(s * n0 * n2), size_t(n0 * n2)), +1, n2);
  }
  for (auto& x : out) x *= scale_1d_;
}

void Operators::fu2d_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                           std::span<cfloat> out) const {
  const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
  MLR_CHECK(i64(in.size()) == spec.count * n1 * n2);
  MLR_CHECK(i64(out.size()) == spec.count * nth * w);
  for (i64 s = 0; s < spec.count; ++s) {
    const i64 kv = spec.begin + s;
    auto plane = in.subspan(size_t(s * n1 * n2), size_t(n1 * n2));
    auto res = out.subspan(size_t(s * nth * w), size_t(nth * w));
    nufft_plane_->type2(plane_nu_row_[size_t(kv)], plane_nu_col_[size_t(kv)],
                        plane, res, -1);
    for (auto& x : res) x *= scale_2d_;
  }
}

void Operators::fu2d_adj_chunk(const ChunkSpec& spec,
                               std::span<const cfloat> in,
                               std::span<cfloat> out) const {
  const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
  MLR_CHECK(i64(in.size()) == spec.count * nth * w);
  MLR_CHECK(i64(out.size()) == spec.count * n1 * n2);
  for (i64 s = 0; s < spec.count; ++s) {
    const i64 kv = spec.begin + s;
    auto q = in.subspan(size_t(s * nth * w), size_t(nth * w));
    auto res = out.subspan(size_t(s * n1 * n2), size_t(n1 * n2));
    nufft_plane_->type1(plane_nu_row_[size_t(kv)], plane_nu_col_[size_t(kv)],
                        q, res, +1);
    for (auto& x : res) x *= scale_2d_;
  }
}

void Operators::fu2d_chunk_fused_subtract(const ChunkSpec& spec,
                                          std::span<const cfloat> in,
                                          std::span<const cfloat> ref,
                                          std::span<cfloat> out) const {
  MLR_CHECK(ref.size() == out.size());
  fu2d_chunk(spec, in, out);
  // Fused epilogue: subtract the pre-mapped measured data in the same
  // "kernel" (paper §4.2 adds the subtraction input as an FFT argument).
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= ref[i];
}

// --- packing helpers ---------------------------------------------------------

void Operators::pack_u1_rows(const Array3D<cfloat>& u1, const ChunkSpec& spec,
                             std::span<cfloat> out) const {
  const i64 n1 = geom_.n1, n2 = geom_.n2;
  MLR_CHECK(u1.shape() == geom_.u1_shape());
  MLR_CHECK(i64(out.size()) == spec.count * n1 * n2);
  for (i64 s = 0; s < spec.count; ++s) {
    const i64 kv = spec.begin + s;
    for (i64 i1 = 0; i1 < n1; ++i1)
      for (i64 i2 = 0; i2 < n2; ++i2)
        out[size_t((s * n1 + i1) * n2 + i2)] = u1(i1, kv, i2);
  }
}

void Operators::unpack_u1_rows(std::span<const cfloat> in,
                               const ChunkSpec& spec,
                               Array3D<cfloat>& u1) const {
  const i64 n1 = geom_.n1, n2 = geom_.n2;
  MLR_CHECK(u1.shape() == geom_.u1_shape());
  MLR_CHECK(i64(in.size()) == spec.count * n1 * n2);
  for (i64 s = 0; s < spec.count; ++s) {
    const i64 kv = spec.begin + s;
    for (i64 i1 = 0; i1 < n1; ++i1)
      for (i64 i2 = 0; i2 < n2; ++i2)
        u1(i1, kv, i2) = in[size_t((s * n1 + i1) * n2 + i2)];
  }
}

void Operators::pack_dhat_rows(const Array3D<cfloat>& dhat,
                               const ChunkSpec& spec,
                               std::span<cfloat> out) const {
  const i64 nth = geom_.ntheta, w = geom_.w;
  MLR_CHECK(dhat.shape() == geom_.data_shape());
  MLR_CHECK(i64(out.size()) == spec.count * nth * w);
  for (i64 s = 0; s < spec.count; ++s) {
    const i64 kv = spec.begin + s;
    for (i64 t = 0; t < nth; ++t)
      for (i64 ku = 0; ku < w; ++ku)
        out[size_t((s * nth + t) * w + ku)] = dhat(t, kv, ku);
  }
}

void Operators::unpack_dhat_rows(std::span<const cfloat> in,
                                 const ChunkSpec& spec,
                                 Array3D<cfloat>& dhat) const {
  const i64 nth = geom_.ntheta, w = geom_.w;
  MLR_CHECK(dhat.shape() == geom_.data_shape());
  MLR_CHECK(i64(in.size()) == spec.count * nth * w);
  for (i64 s = 0; s < spec.count; ++s) {
    const i64 kv = spec.begin + s;
    for (i64 t = 0; t < nth; ++t)
      for (i64 ku = 0; ku < w; ++ku)
        dhat(t, kv, ku) = in[size_t((s * nth + t) * w + ku)];
  }
}

// --- whole-volume wrappers ----------------------------------------------------

void Operators::fu1d(const Array3D<cfloat>& u, Array3D<cfloat>& u1,
                     ThreadPool& pool) const {
  MLR_CHECK(u.shape() == geom_.object_shape());
  MLR_CHECK(u1.shape() == geom_.u1_shape());
  parallel_for(pool, 0, geom_.n1, [&](i64 i1) {
    ChunkSpec one{i1, i1, 1};
    fu1d_chunk(one, u.slices(i1, 1),
               u1.slices(i1, 1));
  });
}

void Operators::fu1d_adj(const Array3D<cfloat>& u1, Array3D<cfloat>& u,
                         ThreadPool& pool) const {
  MLR_CHECK(u.shape() == geom_.object_shape());
  MLR_CHECK(u1.shape() == geom_.u1_shape());
  parallel_for(pool, 0, geom_.n1, [&](i64 i1) {
    ChunkSpec one{i1, i1, 1};
    fu1d_adj_chunk(one, u1.slices(i1, 1), u.slices(i1, 1));
  });
}

void Operators::fu2d(const Array3D<cfloat>& u1, Array3D<cfloat>& u2,
                     ThreadPool& pool) const {
  MLR_CHECK(u1.shape() == geom_.u1_shape());
  MLR_CHECK(u2.shape() == geom_.data_shape());
  const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
  parallel_for(pool, 0, geom_.h, [&](i64 kv) {
    ChunkSpec one{kv, kv, 1};
    std::vector<cfloat> in(static_cast<size_t>(n1 * n2));
    std::vector<cfloat> out(static_cast<size_t>(nth * w));
    pack_u1_rows(u1, one, in);
    fu2d_chunk(one, in, out);
    unpack_dhat_rows(out, one, u2);
  });
}

void Operators::fu2d_adj(const Array3D<cfloat>& u2, Array3D<cfloat>& u1,
                         ThreadPool& pool) const {
  MLR_CHECK(u1.shape() == geom_.u1_shape());
  MLR_CHECK(u2.shape() == geom_.data_shape());
  const i64 n1 = geom_.n1, n2 = geom_.n2, nth = geom_.ntheta, w = geom_.w;
  parallel_for(pool, 0, geom_.h, [&](i64 kv) {
    ChunkSpec one{kv, kv, 1};
    std::vector<cfloat> in(static_cast<size_t>(nth * w));
    std::vector<cfloat> out(static_cast<size_t>(n1 * n2));
    pack_dhat_rows(u2, one, in);
    fu2d_adj_chunk(one, in, out);
    unpack_u1_rows(out, one, u1);
  });
}

void Operators::f2d(Array3D<cfloat>& d, bool inverse,
                    ThreadPool& pool) const {
  MLR_CHECK(d.shape() == geom_.data_shape());
  parallel_for(pool, 0, geom_.ntheta, [&](i64 t) {
    fft::fft2d_span(d.slices(t, 1), geom_.h, geom_.w, inverse,
                    /*unitary=*/true);
  });
}

void Operators::forward(const Array3D<cfloat>& u, Array3D<cfloat>& d,
                        ThreadPool& pool) const {
  Array3D<cfloat> u1(geom_.u1_shape());
  fu1d(u, u1, pool);
  fu2d(u1, d, pool);
  f2d(d, /*inverse=*/true, pool);  // F*_2D maps frequency → detector space
}

void Operators::adjoint(const Array3D<cfloat>& d, Array3D<cfloat>& u,
                        ThreadPool& pool) const {
  Array3D<cfloat> dhat = d;
  f2d(dhat, /*inverse=*/false, pool);  // F_2D
  Array3D<cfloat> u1(geom_.u1_shape());
  fu2d_adj(dhat, u1, pool);
  fu1d_adj(u1, u, pool);
}

void Operators::forward_freq(const Array3D<cfloat>& u, Array3D<cfloat>& dhat,
                             ThreadPool& pool) const {
  Array3D<cfloat> u1(geom_.u1_shape());
  fu1d(u, u1, pool);
  fu2d(u1, dhat, pool);
}

void Operators::adjoint_freq(const Array3D<cfloat>& dhat, Array3D<cfloat>& u,
                             ThreadPool& pool) const {
  Array3D<cfloat> u1(geom_.u1_shape());
  fu2d_adj(dhat, u1, pool);
  fu1d_adj(u1, u, pool);
}

// --- cost model -----------------------------------------------------------

double Operators::fu1d_chunk_flops(i64 count) const {
  return double(count * geom_.n2) * nufft_z_->flops(geom_.h);
}

double Operators::fu2d_chunk_flops(i64 count) const {
  return double(count) * nufft_plane_->flops(geom_.ntheta * geom_.w);
}

double Operators::f2d_proj_flops() const {
  return double(geom_.h) * fft::fft_flops(geom_.w) +
         double(geom_.w) * fft::fft_flops(geom_.h);
}

// A mutex rather than std::call_once: the slot must stay empty when the
// estimate throws, and ThreadSanitizer's pthread_once interceptor leaves a
// once_flag stuck after an exception, hanging the next call.
double Operators::normal_operator_norm(
    const std::function<double()>& estimate) const {
  std::lock_guard lk(normal_norm_mu_);
  if (!normal_norm_.has_value()) {
    const double v = estimate();
    MLR_CHECK_MSG(std::isfinite(v) && v > 0,
                  "||L*L|| estimate is not finite and positive");
    normal_norm_ = v;
  }
  return *normal_norm_;
}

}  // namespace mlr::lamino
