// The geometries the batched operator kernels are checked on bit for bit
// against the scalar reference (tests/lamino_test.cpp), and whose spreading
// windows are checked against the reference windows (tests/fft_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "lamino/geometry.hpp"

namespace mlr::lamino {

// Cubes covering radix-2 (8, 16, 32) and Bluestein (9, 12, 13, 14) fine
// grids, plus a geometry with every dimension distinct and odd detector
// sizes.
inline std::vector<Geometry> bit_identity_geometries() {
  std::vector<Geometry> gs;
  for (i64 n : {8, 9, 12, 13, 14, 16, 32}) gs.push_back(Geometry::cube(n));
  Geometry g = Geometry::cube(8);
  g.n1 = 10;
  g.n0 = 12;
  g.n2 = 7;
  g.ntheta = 9;
  g.h = 11;
  g.w = 13;
  gs.push_back(g);
  return gs;
}

// Geometries whose fine grids (m = 2n, 4 to 12 points) are narrower than a
// 13-tap spreading window, so one window visits a grid cell twice: cubes of
// side 2 to 6 and one ragged geometry with every dimension distinct.
inline std::vector<Geometry> tiny_geometries() {
  std::vector<Geometry> gs;
  for (i64 n = 2; n <= 6; ++n) gs.push_back(Geometry::cube(n));
  Geometry g = Geometry::cube(2);
  g.n1 = 3;
  g.n0 = 4;
  g.n2 = 5;
  g.ntheta = 3;
  g.h = 2;
  g.w = 6;
  gs.push_back(g);
  return gs;
}

inline std::string geometry_name(const Geometry& g) {
  return std::to_string(g.n1) + "x" + std::to_string(g.n0) + "x" +
         std::to_string(g.n2) + "_t" + std::to_string(g.ntheta) + "_d" +
         std::to_string(g.h) + "x" + std::to_string(g.w);
}

}  // namespace mlr::lamino
