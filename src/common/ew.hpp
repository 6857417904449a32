// Fused-elementwise substrate: deterministic tiling for single-pass host
// kernels (ROADMAP item 4 — the Dali expression-fusion model).
//
// The ADMM solver's RSP/λ/ρ/TV update chains used to run one full memory
// pass per elementwise operation on the caller thread. The fused kernel
// layer (admm/kernels.hpp) rewrites every chain as ONE pass; this header
// supplies the two things every fused kernel needs:
//
//   * a deterministic size-based tile partition — tile boundaries depend
//     only on the array length (kEwTileElems), never on the pool width, so
//     a tile's work is identical no matter which worker runs it;
//   * tile-ordered reduction combining — per-tile double partials are
//     written into caller-provided slots and summed serially in fixed tile
//     order, making every reduction bit-identical for any ThreadPool size
//     (the same contract the memo layer keeps for virtual time).
//
// EwStats is the measurement side: each fused kernel records the passes it
// actually made and the passes the unfused chain would have made, so the
// fusion win is observable deterministically even on a 1-core host where
// wall time cannot shrink (a "pass" = one full streaming sweep over one
// operand array; a stencil read or a scatter read-modify-write counts as
// one sweep of that operand).
#pragma once

#include <algorithm>

#include "common/parallel.hpp"
#include "common/types.hpp"

namespace mlr {

/// Fixed tile size of the deterministic partition (elements, not bytes).
/// Small enough to load-balance a pool on realistic volumes, large enough
/// that per-tile bookkeeping is noise.
inline constexpr i64 kEwTileElems = 16384;

[[nodiscard]] inline i64 ew_num_tiles(i64 n) {
  return n <= 0 ? 0 : (n + kEwTileElems - 1) / kEwTileElems;
}

/// Pass/byte counters for the fused kernel layer. `passes`/`bytes` are what
/// the fused kernels streamed; `naive_passes`/`naive_bytes` are what the
/// pre-fusion loop chains would have streamed for the same work. The ratio
/// naive/fused is the deterministic fusion win.
struct EwStats {
  u64 kernels = 0;        ///< fused kernel invocations
  u64 passes = 0;         ///< full-array sweeps actually performed
  u64 naive_passes = 0;   ///< sweeps of the equivalent unfused chain
  double bytes = 0;       ///< bytes streamed by the fused form
  double naive_bytes = 0; ///< bytes the unfused chain would have streamed

  EwStats& operator+=(const EwStats& o) {
    kernels += o.kernels;
    passes += o.passes;
    naive_passes += o.naive_passes;
    bytes += o.bytes;
    naive_bytes += o.naive_bytes;
    return *this;
  }
  [[nodiscard]] EwStats operator-(const EwStats& o) const {
    return {kernels - o.kernels, passes - o.passes,
            naive_passes - o.naive_passes, bytes - o.bytes,
            naive_bytes - o.naive_bytes};
  }
  /// naive_passes / passes — the deterministic measure of the fusion win.
  [[nodiscard]] double fusion_ratio() const {
    return passes > 0 ? double(naive_passes) / double(passes) : 0.0;
  }
};

/// Run `f(begin, end, tile)` over the deterministic partition of [0, n).
/// Tiles fan out across `pool` when it has workers; a null or one-worker
/// pool runs them serially on the caller — same tiles, same numerics.
template <typename F>
void ew_for_tiles(ThreadPool* pool, i64 n, F&& f) {
  const i64 tiles = ew_num_tiles(n);
  if (tiles <= 1 || pool == nullptr || pool->size() <= 1) {
    for (i64 t = 0; t < tiles; ++t)
      f(t * kEwTileElems, std::min(n, (t + 1) * kEwTileElems), t);
    return;
  }
  parallel_for(*pool, 0, tiles,
               [&](i64 t) { f(t * kEwTileElems, std::min(n, (t + 1) * kEwTileElems), t); });
}

/// Row-partitioned variant for stencil kernels over an (n1, n0, n2) volume:
/// tiles are whole rows of n2 contiguous elements, `rows_per_tile` chosen so
/// a tile stays near kEwTileElems. `f(row_begin, row_end, tile)` receives
/// flat row indices (row r = (i1, i0) with i1 = r / n0, i0 = r % n0). The
/// partition depends only on the array shape — never on the pool.
template <typename F>
void ew_for_row_tiles(ThreadPool* pool, i64 rows, i64 row_len, F&& f) {
  const i64 rows_per_tile = std::max<i64>(1, kEwTileElems / std::max<i64>(1, row_len));
  const i64 tiles = rows <= 0 ? 0 : (rows + rows_per_tile - 1) / rows_per_tile;
  if (tiles <= 1 || pool == nullptr || pool->size() <= 1) {
    for (i64 t = 0; t < tiles; ++t)
      f(t * rows_per_tile, std::min(rows, (t + 1) * rows_per_tile), t);
    return;
  }
  parallel_for(*pool, 0, tiles, [&](i64 t) {
    f(t * rows_per_tile, std::min(rows, (t + 1) * rows_per_tile), t);
  });
}

[[nodiscard]] inline i64 ew_num_row_tiles(i64 rows, i64 row_len) {
  const i64 rows_per_tile = std::max<i64>(1, kEwTileElems / std::max<i64>(1, row_len));
  return rows <= 0 ? 0 : (rows + rows_per_tile - 1) / rows_per_tile;
}

/// Combine per-tile partials serially in tile order — the one place every
/// reduction's floating-point order is decided, independent of pool width.
[[nodiscard]] inline double ew_combine(std::span<const double> partials) {
  double s = 0;
  for (const double p : partials) s += p;
  return s;
}

}  // namespace mlr
