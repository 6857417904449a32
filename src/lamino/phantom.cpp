#include "lamino/phantom.hpp"

#include <algorithm>
#include <cmath>

namespace mlr::lamino {

namespace {

// Add a Gaussian blob at (c1, c0, c2) with per-axis radii and amplitude.
void add_blob(Array3D<float>& v, double c1, double c0, double c2, double r1,
              double r0, double r2, float amp) {
  const i64 n1 = v.n1(), n0 = v.n0(), n2 = v.n2();
  const i64 lo1 = std::max<i64>(0, i64(c1 - 3 * r1));
  const i64 hi1 = std::min<i64>(n1 - 1, i64(c1 + 3 * r1));
  const i64 lo0 = std::max<i64>(0, i64(c0 - 3 * r0));
  const i64 hi0 = std::min<i64>(n0 - 1, i64(c0 + 3 * r0));
  const i64 lo2 = std::max<i64>(0, i64(c2 - 3 * r2));
  const i64 hi2 = std::min<i64>(n2 - 1, i64(c2 + 3 * r2));
  for (i64 i1 = lo1; i1 <= hi1; ++i1)
    for (i64 i0 = lo0; i0 <= hi0; ++i0)
      for (i64 i2 = lo2; i2 <= hi2; ++i2) {
        const double d1 = (double(i1) - c1) / r1;
        const double d0 = (double(i0) - c0) / r0;
        const double d2 = (double(i2) - c2) / r2;
        v(i1, i0, i2) += amp * float(std::exp(-0.5 * (d1 * d1 + d0 * d0 + d2 * d2)));
      }
}

// Axis-aligned box with constant value (metal trace / pad).
void add_box(Array3D<float>& v, i64 b1, i64 e1, i64 b0, i64 e0, i64 b2, i64 e2,
             float val) {
  b1 = std::clamp<i64>(b1, 0, v.n1());
  e1 = std::clamp<i64>(e1, 0, v.n1());
  b0 = std::clamp<i64>(b0, 0, v.n0());
  e0 = std::clamp<i64>(e0, 0, v.n0());
  b2 = std::clamp<i64>(b2, 0, v.n2());
  e2 = std::clamp<i64>(e2, 0, v.n2());
  for (i64 i1 = b1; i1 < e1; ++i1)
    for (i64 i0 = b0; i0 < e0; ++i0)
      for (i64 i2 = b2; i2 < e2; ++i2) v(i1, i0, i2) = val;
}

Array3D<float> brain_phantom(Shape3 s, u64 seed) {
  Array3D<float> v(s);
  Rng rng(seed);
  const double zc = double(s.n0) / 2.0;
  const double slab = double(s.n0) * 0.22;  // thin specimen along z
  // Soft background slab (embedding medium).
  for (i64 i1 = 0; i1 < s.n1; ++i1)
    for (i64 i0 = 0; i0 < s.n0; ++i0)
      for (i64 i2 = 0; i2 < s.n2; ++i2) {
        const double dz = (double(i0) - zc) / slab;
        if (std::abs(dz) < 1.0) v(i1, i0, i2) = 0.08f * float(1.0 - dz * dz);
      }
  // Cell-body sized blobs of varying contrast.
  const int nblobs = int(12 + s.volume() / 4096);
  for (int b = 0; b < nblobs; ++b) {
    const double c1 = rng.uniform(0.1, 0.9) * double(s.n1);
    const double c0 = zc + rng.normal(0.0, slab * 0.45);
    const double c2 = rng.uniform(0.1, 0.9) * double(s.n2);
    const double r = rng.uniform(0.02, 0.08) * double(std::min(s.n1, s.n2));
    add_blob(v, c1, c0, c2, r, r * rng.uniform(0.4, 0.9), r,
             float(rng.uniform(0.25, 0.9)));
  }
  // Fine dendritic texture: a few elongated faint blobs.
  for (int b = 0; b < nblobs / 2; ++b) {
    const double c1 = rng.uniform(0.1, 0.9) * double(s.n1);
    const double c0 = zc + rng.normal(0.0, slab * 0.3);
    const double c2 = rng.uniform(0.1, 0.9) * double(s.n2);
    add_blob(v, c1, c0, c2, rng.uniform(2.0, 10.0), 1.2, rng.uniform(2.0, 10.0),
             float(rng.uniform(0.1, 0.3)));
  }
  for (auto& x : v) x = std::min(x, 1.0f);
  return v;
}

Array3D<float> ic_phantom(Shape3 s, u64 seed) {
  Array3D<float> v(s);
  Rng rng(seed);
  const i64 layer_z[3] = {s.n0 * 2 / 5, s.n0 / 2, s.n0 * 3 / 5};
  const i64 lt = std::max<i64>(1, s.n0 / 32);  // layer thickness
  // Substrate slab.
  add_box(v, 0, s.n1, s.n0 * 2 / 5 - lt, s.n0 * 3 / 5 + 2 * lt, 0, s.n2, 0.05f);
  for (int layer = 0; layer < 3; ++layer) {
    const i64 z0 = layer_z[layer], z1 = z0 + lt;
    const int ntraces = int(6 + s.n1 / 8);
    for (int t = 0; t < ntraces; ++t) {
      const i64 width = rng.uniform_int(1, std::max<i64>(2, s.n2 / 24));
      const float metal = float(rng.uniform(0.7, 1.0));
      if ((layer + t) % 2 == 0) {  // horizontal routing on even layers
        const i64 y = rng.uniform_int(0, s.n1 - width - 1);
        const i64 x0 = rng.uniform_int(0, s.n2 / 2);
        const i64 x1 = rng.uniform_int(s.n2 / 2, s.n2 - 1);
        add_box(v, y, y + width, z0, z1, x0, x1, metal);
      } else {  // vertical routing on odd layers
        const i64 x = rng.uniform_int(0, s.n2 - width - 1);
        const i64 y0 = rng.uniform_int(0, s.n1 / 2);
        const i64 y1 = rng.uniform_int(s.n1 / 2, s.n1 - 1);
        add_box(v, y0, y1, z0, z1, x, x + width, metal);
      }
    }
  }
  // Vias connecting the layers.
  const int nvias = int(4 + s.n1 / 8);
  for (int t = 0; t < nvias; ++t) {
    const i64 y = rng.uniform_int(2, s.n1 - 3);
    const i64 x = rng.uniform_int(2, s.n2 - 3);
    add_box(v, y, y + 1, layer_z[0], layer_z[2] + lt, x, x + 1, 1.0f);
  }
  return v;
}

Array3D<float> pcb_phantom(Shape3 s, u64 seed) {
  Array3D<float> v(s);
  Rng rng(seed);
  const i64 lt = std::max<i64>(1, s.n0 / 16);
  const i64 top = s.n0 / 2 - 2 * lt, bot = s.n0 / 2 + lt;
  // FR4 board.
  add_box(v, 0, s.n1, top, bot + lt, 0, s.n2, 0.12f);
  for (i64 z0 : {top, bot}) {
    const int npads = int(3 + s.n1 / 12);
    for (int p = 0; p < npads; ++p) {
      const i64 sz = rng.uniform_int(s.n1 / 12 + 1, s.n1 / 6 + 2);
      const i64 y = rng.uniform_int(0, std::max<i64>(1, s.n1 - sz - 1));
      const i64 x = rng.uniform_int(0, std::max<i64>(1, s.n2 - sz - 1));
      add_box(v, y, y + sz, z0, z0 + lt, x, x + sz, 0.85f);
    }
    const int ntraces = int(4 + s.n1 / 10);
    for (int t = 0; t < ntraces; ++t) {
      const i64 width = std::max<i64>(2, s.n2 / 16);
      const i64 y = rng.uniform_int(0, s.n1 - width - 1);
      add_box(v, y, y + width, z0, z0 + lt, 0, s.n2, 0.7f);
    }
  }
  return v;
}

}  // namespace

Array3D<float> make_phantom(Shape3 shape, PhantomKind kind, u64 seed) {
  MLR_CHECK(shape.volume() > 0);
  switch (kind) {
    case PhantomKind::BrainTissue: return brain_phantom(shape, seed);
    case PhantomKind::IntegratedCircuit: return ic_phantom(shape, seed);
    case PhantomKind::Pcb: return pcb_phantom(shape, seed);
  }
  MLR_CHECK_MSG(false, "unknown phantom kind");
}

Array3D<cfloat> to_complex(const Array3D<float>& real) {
  Array3D<cfloat> c(real.shape());
  for (i64 i = 0; i < real.size(); ++i) c.data()[i] = cfloat(real.data()[i], 0.0f);
  return c;
}

Array3D<float> real_part(const Array3D<cfloat>& c) {
  Array3D<float> r(c.shape());
  for (i64 i = 0; i < c.size(); ++i) r.data()[i] = c.data()[i].real();
  return r;
}

Array3D<cfloat> simulate_projections(const Operators& ops,
                                     const Array3D<cfloat>& u,
                                     double noise_sigma, u64 seed,
                                     ThreadPool& pool) {
  Array3D<cfloat> d(ops.geometry().data_shape());
  ops.forward(u, d, pool);
  if (noise_sigma > 0) {
    double rms = l2_norm<cfloat>(d.span()) / std::sqrt(double(d.size()));
    Rng rng(seed);
    for (auto& x : d) {
      x += cfloat(float(rng.normal(0.0, noise_sigma * rms)),
                  float(rng.normal(0.0, noise_sigma * rms)));
    }
  }
  return d;
}

}  // namespace mlr::lamino
