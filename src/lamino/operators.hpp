// The laminography operator stack: F_u1D, F_u2D, F_2D and adjoints.
//
// Forward model (paper §2):   d = F*_2D · F_u2D · F_u1D · u
//   F_u1D : u[n1,n0,n2]   → ũ1[n1,h,n2]   1-D NUFFT along z (axis n0)
//   F_u2D : ũ1[n1,h,n2]   → ũ2[nθ,h,w]    2-D NUFFT of each kv-plane
//   F*_2D : ũ2[nθ,h,w]    → d[nθ,h,w]     inverse unitary detector FFT
//
// Chunked entry points mirror the paper's execution model: F_u1D chunks are
// slabs of n1 slices; F_u2D chunks are groups of detector rows kv (chunks
// "generated along different directions", §5.2). Each chunk call is
// independent, which is what makes both memoization (chunk = key/value) and
// multi-GPU distribution possible.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/array.hpp"
#include "common/parallel.hpp"
#include "fft/nufft.hpp"
#include "lamino/geometry.hpp"

namespace mlr::lamino {

/// Chunk descriptor: `count` consecutive indices starting at `begin` along
/// the partitioned dimension.
struct ChunkSpec {
  i64 index = 0;  ///< chunk location id (stable across iterations)
  i64 begin = 0;
  i64 count = 0;
};

/// Partition [0, total) into chunks of at most `chunk_size`.
std::vector<ChunkSpec> make_chunks(i64 total, i64 chunk_size);

/// Laminography operators bound to a fixed geometry — the per-geometry
/// object every solve of that geometry shares. Thread-safe: all state is
/// immutable after construction, apart from the once-filled ‖L*L‖ slot,
/// which a mutex guards.
class Operators {
 public:
  explicit Operators(Geometry g);

  [[nodiscard]] const Geometry& geometry() const { return geom_; }

  // --- whole-volume operators -------------------------------------------
  // Each fans its slices or rows out on `pool`: a run passes its own, so a
  // run with `threads` = 1 stays on its calling thread.
  /// ũ1 = F_u1D·u.
  void fu1d(const Array3D<cfloat>& u, Array3D<cfloat>& u1,
            ThreadPool& pool = ThreadPool::global()) const;
  /// u += adjoint: u = F*_u1D·ũ1.
  void fu1d_adj(const Array3D<cfloat>& u1, Array3D<cfloat>& u,
                ThreadPool& pool = ThreadPool::global()) const;
  /// ũ2 = F_u2D·ũ1.
  void fu2d(const Array3D<cfloat>& u1, Array3D<cfloat>& u2,
            ThreadPool& pool = ThreadPool::global()) const;
  /// ũ1 = F*_u2D·ũ2.
  void fu2d_adj(const Array3D<cfloat>& u2, Array3D<cfloat>& u1,
                ThreadPool& pool = ThreadPool::global()) const;
  /// In-place unitary detector transform of every projection:
  /// inverse=false applies F_2D (space → frequency), true applies F*_2D.
  void f2d(Array3D<cfloat>& d, bool inverse,
           ThreadPool& pool = ThreadPool::global()) const;

  /// Full forward model d = F*_2D F_u2D F_u1D u.
  void forward(const Array3D<cfloat>& u, Array3D<cfloat>& d,
               ThreadPool& pool = ThreadPool::global()) const;
  /// Full adjoint u = F*_u1D F*_u2D F_2D d.
  void adjoint(const Array3D<cfloat>& d, Array3D<cfloat>& u,
               ThreadPool& pool = ThreadPool::global()) const;

  /// Frequency-domain forward d̂ = F_u2D F_u1D u (Algorithm 2 after
  /// operation cancellation — no detector FFT).
  void forward_freq(const Array3D<cfloat>& u, Array3D<cfloat>& dhat,
                    ThreadPool& pool = ThreadPool::global()) const;
  /// Frequency-domain adjoint u = F*_u1D F*_u2D d̂.
  void adjoint_freq(const Array3D<cfloat>& dhat, Array3D<cfloat>& u,
                    ThreadPool& pool = ThreadPool::global()) const;

  // --- chunked operators (the units that are memoized / distributed) -----
  /// F_u1D on a slab of `spec.count` n1-slices: in = count·n0·n2 values,
  /// out = count·h·n2 values.
  void fu1d_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                  std::span<cfloat> out) const;
  /// Adjoint slab: in = count·h·n2, out = count·n0·n2.
  void fu1d_adj_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                      std::span<cfloat> out) const;
  /// F_u2D for detector rows [spec.begin, spec.begin+count): in is the
  /// corresponding ũ1 rows packed (count·n1·n2), out packed (count·nθ·w,
  /// kv-major then θ-major).
  void fu2d_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                  std::span<cfloat> out) const;
  void fu2d_adj_chunk(const ChunkSpec& spec, std::span<const cfloat> in,
                      std::span<cfloat> out) const;
  /// Fused kernel of the paper §4.2: out = F_u2D(in) − ref for one kv-chunk.
  /// `ref` is the pre-mapped measured data d̂ for the same rows.
  void fu2d_chunk_fused_subtract(const ChunkSpec& spec,
                                 std::span<const cfloat> in,
                                 std::span<const cfloat> ref,
                                 std::span<cfloat> out) const;

  // --- packing helpers between whole arrays and kv-chunk layouts ---------
  /// Gather ũ1 rows [begin, begin+count) into a packed (count·n1·n2) buffer.
  void pack_u1_rows(const Array3D<cfloat>& u1, const ChunkSpec& spec,
                    std::span<cfloat> out) const;
  void unpack_u1_rows(std::span<const cfloat> in, const ChunkSpec& spec,
                      Array3D<cfloat>& u1) const;
  /// Gather d̂ rows for a kv-chunk into packed (count·nθ·w) layout.
  void pack_dhat_rows(const Array3D<cfloat>& dhat, const ChunkSpec& spec,
                      std::span<cfloat> out) const;
  void unpack_dhat_rows(std::span<const cfloat> in, const ChunkSpec& spec,
                        Array3D<cfloat>& dhat) const;

  // --- cost model inputs --------------------------------------------------
  /// FLOPs of one F_u1D chunk of `count` slices (forward or adjoint).
  [[nodiscard]] double fu1d_chunk_flops(i64 count) const;
  /// FLOPs of one F_u2D chunk of `count` detector rows.
  [[nodiscard]] double fu2d_chunk_flops(i64 count) const;
  /// FLOPs of one detector-plane F_2D (per projection angle).
  [[nodiscard]] double f2d_proj_flops() const;

  // --- per-geometry state shared by every solve --------------------------
  /// ‖L*L‖ of this geometry, which the ADMM step size needs. The first call
  /// runs `estimate` and keeps its result; later calls, from any thread,
  /// return the kept value (a racing caller waits for the first). An
  /// estimate that is not finite and positive throws and leaves the slot
  /// empty: only its caller fails, and the next call estimates again.
  double normal_operator_norm(const std::function<double()>& estimate) const;

 private:
  Geometry geom_;
  std::vector<double> znu_;                       // F_u1D target frequencies
  std::vector<std::vector<double>> plane_nu_row_; // per-kv in-plane points
  std::vector<std::vector<double>> plane_nu_col_;
  std::unique_ptr<fft::Nufft1D> nufft_z_;
  std::unique_ptr<fft::Nufft2D> nufft_plane_;
  float scale_1d_, scale_2d_;
  mutable std::mutex normal_norm_mu_;
  mutable std::optional<double> normal_norm_;
};

}  // namespace mlr::lamino
