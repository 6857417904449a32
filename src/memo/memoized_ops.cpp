#include "memo/memoized_ops.hpp"

#include <cmath>

#include "common/error.hpp"
#include "memo/stage_executor.hpp"

namespace mlr::memo {

MemoizedLamino::MemoizedLamino(const lamino::Operators& ops, MemoConfig cfg,
                               sim::Device* device, MemoDb* db,
                               std::shared_ptr<encoder::EncoderRegistry> registry)
    : ops_(ops),
      cfg_(cfg),
      device_(device),
      db_(db),
      registry_(std::move(registry)) {
  MLR_CHECK(device != nullptr);
  if (registry_ == nullptr) {
    registry_ = std::make_shared<encoder::EncoderRegistry>(
        encoder::EncoderConfig{.input_hw = cfg_.encoder_hw,
                               .embed_dim = cfg_.key_dim});
  }
  if (cfg_.enable) {
    MLR_CHECK_MSG(db != nullptr, "memoization enabled but no MemoDb");
    const auto& g = ops_.geometry();
    const i64 locations = std::max(g.n1, g.h);  // covers both chunk axes
    switch (cfg_.cache) {
      case CacheKind::Private:
        cache_ = std::make_unique<PrivateCache>(locations);
        break;
      case CacheKind::Global:
        cache_ = std::make_unique<GlobalCache>(locations);
        break;
      case CacheKind::None:
        break;
    }
  }
  exec_ = std::make_unique<StageExecutor>(*this);
}

MemoizedLamino::~MemoizedLamino() = default;

std::pair<i64, i64> MemoizedLamino::chunk_plane_dims(OpKind kind) const {
  const auto& g = ops_.geometry();
  switch (kind) {
    case OpKind::Fu1D: return {g.n0, g.n2};      // slab of n1 slices
    case OpKind::Fu1DAdj: return {g.h, g.n2};
    case OpKind::Fu2D: return {g.n1, g.n2};      // kv-plane
    case OpKind::Fu2DAdj: return {g.ntheta, g.w};
  }
  return {0, 0};
}

std::vector<cfloat> MemoizedLamino::pooled_probe(
    OpKind kind, const lamino::ChunkSpec& spec,
    std::span<const cfloat> in) const {
  if (!cfg_.oracle_similarity) return {};
  const auto [rows, cols] = chunk_plane_dims(kind);
  const auto plane = encoder::average_slab(in, spec.count, rows, cols);
  const i64 hw = std::min({cfg_.probe_hw, rows, cols});
  std::vector<cfloat> pooled(size_t(hw * hw), cfloat{});
  std::vector<float> cnt(size_t(hw * hw), 0.0f);
  for (i64 y = 0; y < rows; ++y) {
    const i64 ty = std::min(hw - 1, y * hw / rows);
    for (i64 x = 0; x < cols; ++x) {
      const i64 tx = std::min(hw - 1, x * hw / cols);
      pooled[size_t(ty * hw + tx)] += plane[size_t(y * cols + x)];
      cnt[size_t(ty * hw + tx)] += 1.0f;
    }
  }
  for (std::size_t i = 0; i < pooled.size(); ++i)
    pooled[i] /= std::max(1.0f, cnt[i]);
  return pooled;
}

std::vector<float> MemoizedLamino::encode_chunk(
    OpKind kind, const lamino::ChunkSpec& spec,
    std::span<const cfloat> in) const {
  const auto [rows, cols] = chunk_plane_dims(kind);
  MLR_CHECK(i64(in.size()) == spec.count * rows * cols);
  const auto plane = encoder::average_slab(in, spec.count, rows, cols);
  const encoder::ChunkImage img{rows, cols, plane};
  const auto& enc = registry_->encoder();
  return enc.quantized() ? enc.encode_quantized(img) : enc.encode(img);
}

double MemoizedLamino::compute_chunk(OpKind kind, const StageChunk& c,
                                     double* flops_out) const {
  double flops = 0;
  switch (kind) {
    case OpKind::Fu1D:
      ops_.fu1d_chunk(c.spec, c.in, c.out);
      flops = ops_.fu1d_chunk_flops(c.spec.count);
      break;
    case OpKind::Fu1DAdj:
      ops_.fu1d_adj_chunk(c.spec, c.in, c.out);
      flops = ops_.fu1d_chunk_flops(c.spec.count);
      break;
    case OpKind::Fu2D:
      if (!c.ref.empty()) {
        ops_.fu2d_chunk_fused_subtract(c.spec, c.in, c.ref, c.out);
      } else {
        ops_.fu2d_chunk(c.spec, c.in, c.out);
      }
      flops = ops_.fu2d_chunk_flops(c.spec.count);
      break;
    case OpKind::Fu2DAdj:
      ops_.fu2d_adj_chunk(c.spec, c.in, c.out);
      flops = ops_.fu2d_chunk_flops(c.spec.count);
      break;
  }
  if (flops_out != nullptr) *flops_out = flops;
  return flops;
}

StageReport MemoizedLamino::run_stage(OpKind kind,
                                      std::span<StageChunk> chunks,
                                      sim::VTime ready) {
  return exec_->run_stage(kind, chunks, ready);
}

double MemoizedLamino::train_encoder(
    const std::vector<std::vector<cfloat>>& samples, i64 rows, i64 cols,
    int steps) {
  auto& enc = registry_->encoder();
  const double loss = enc.train(samples, rows, cols, steps);
  enc.quantize();
  return loss;
}

std::size_t MemoizedLamino::collected_samples() const {
  return registry_->collected();
}

}  // namespace mlr::memo
