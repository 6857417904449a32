// The CNN key encoder of mLR (§4.3.1).
//
// Maps a COMPLEX64 chunk (the input of an F_u*D operation) to a 60-d float
// key used to search the memoization index. Matches the paper's design:
//   * COMPLEX64 input decomposed into real/imag channels,
//   * layer 1: 32 filters 5×5; layer 2: 64 filters 3×3; layer 3: FC → 60,
//   * trained with contrastive pairs: L = | ‖za−zb‖₂ − ‖Cha−Chb‖₂ |,
//   * deployed on the CPU with INT8-quantized weights.
// Arbitrary chunk shapes are average-pooled to a fixed 32×32 front-end so one
// encoder serves every operator's chunks.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "encoder/layers.hpp"

namespace mlr::encoder {

struct EncoderConfig {
  i64 input_hw = 32;    ///< pooled front-end resolution
  i64 embed_dim = 60;   ///< key dimensionality (paper's query example)
  double lr = 1e-3;
};

/// A chunk viewed as a rows×cols complex image (3-D slabs are pre-averaged
/// along the slab dimension by the caller or via from_slab()).
struct ChunkImage {
  i64 rows = 0, cols = 0;
  std::span<const cfloat> data;
};

/// Reduce a (count, rows, cols) slab to a single rows×cols plane by averaging
/// along the first axis; returns owned storage.
std::vector<cfloat> average_slab(std::span<const cfloat> slab, i64 count,
                                 i64 rows, i64 cols);

class CnnEncoder {
 public:
  explicit CnnEncoder(EncoderConfig cfg = {}, u64 seed = 2024);

  /// Float-precision forward pass.
  [[nodiscard]] std::vector<float> encode(const ChunkImage& chunk) const;
  /// INT8-weight inference path (the deployed configuration). Falls back to
  /// float weights until quantize() has been called.
  [[nodiscard]] std::vector<float> encode_quantized(const ChunkImage& chunk) const;

  /// One contrastive training step on a pair of chunks; returns the loss
  /// L = | ‖za−zb‖ − ‖Cha−Chb‖ |.
  ///
  /// The step's layer kernels fan out on `pool`, split by image and by
  /// output channel so that every accumulator receives its terms in the
  /// serial step's order: the trained weights are the same bits at any pool
  /// width, and a one-worker pool runs the step on the calling thread. Must
  /// not be called from a worker of `pool` (its rounds would wait on
  /// themselves); two callers may share one pool.
  double train_pair(const ChunkImage& a, const ChunkImage& b,
                    ThreadPool& pool = ThreadPool::global());

  /// Train on random pairs drawn from `samples`; returns mean loss of the
  /// final quarter of steps. Each step runs as train_pair() on `pool`.
  double train(const std::vector<std::vector<cfloat>>& samples, i64 rows,
               i64 cols, int steps, u64 seed = 5,
               ThreadPool& pool = ThreadPool::global());

  /// Freeze float weights into per-tensor symmetric INT8.
  void quantize();
  [[nodiscard]] bool quantized() const { return int8_.has_value(); }

  /// The trained float layers (tests pin their parameters bit for bit).
  [[nodiscard]] const Conv2D& conv1() const { return conv1_; }
  [[nodiscard]] const Conv2D& conv2() const { return conv2_; }
  [[nodiscard]] const Dense& fc() const { return fc_; }

  [[nodiscard]] const EncoderConfig& config() const { return cfg_; }
  /// FLOPs of one forward pass (cost-model input; <1 % of FFT cost).
  [[nodiscard]] double encode_flops() const;

 private:
  FeatureMap preprocess(const ChunkImage& chunk) const;
  std::vector<float> forward(const FeatureMap& in, bool use_int8) const;
  // One image's intermediates in a training step.
  struct Trace;

  EncoderConfig cfg_;
  Rng rng_;
  Conv2D conv1_, conv2_;
  Dense fc_;
  Adam opt_w1_, opt_b1_, opt_w2_, opt_b2_, opt_wf_, opt_bf_;

  // The deployed layers, built once by quantize(): every weight is its INT8
  // value times the tensor's scale, held as float. No gradient buffers.
  struct Int8Layers {
    Conv2D conv1, conv2;
    Dense fc;
  };
  std::optional<Int8Layers> int8_;
};

/// L2 distance between two raw chunks (the contrastive ground-truth label).
double chunk_l2(std::span<const cfloat> a, std::span<const cfloat> b);

/// Shared ownership of one key encoder plus its contrastive training set.
///
/// A run's one memo::MemoizedLamino keys every device through one registry,
/// so a multi-GPU run collects ONE training set — deposited in global chunk
/// order, the order a single-GPU run would see — and trains ONE encoder,
/// producing the single-GPU run's keys. (Its hit patterns can still differ:
/// see memo/memoized_ops.hpp.) A serving session hands in the service's
/// registry, shared by every job; a layer constructed without one creates a
/// private registry.
///
/// Thread safety: encode paths on the contained CnnEncoder are const and may
/// run concurrently from pool workers. Sample collection is serial (the
/// layer collects in its deterministic serial pass). Training has one caller
/// at a time, between stages, and fans its steps out on the caller's pool
/// (the layer passes the pool it runs stages on).
class EncoderRegistry {
 public:
  explicit EncoderRegistry(EncoderConfig cfg = {}, u64 seed = 2024)
      : enc_(cfg, seed) {}

  [[nodiscard]] CnnEncoder& encoder() { return enc_; }
  [[nodiscard]] const CnnEncoder& encoder() const { return enc_; }

  /// Toggle sample collection; `cap_total` bounds the training set size.
  void set_collect(bool on, std::size_t cap_total) {
    collect_ = on;
    cap_ = cap_total;
  }
  [[nodiscard]] bool collecting() const { return collect_; }
  /// True while collection is on and the set has room — callers gate the
  /// (non-trivial) plane pooling on this.
  [[nodiscard]] bool wants_samples() const {
    return collect_ && samples_.size() < cap_;
  }
  /// Deposit one (plane, rows, cols) sample; returns false once the set is
  /// full (collection for this registry is then finished). A plane holding
  /// a NaN or infinity is dropped without taking a slot and counted
  /// (`encoder.nonfinite_samples`): one such sample would make every
  /// gradient, and through Adam every weight and key, NaN.
  bool add_sample(std::vector<cfloat> plane, i64 rows, i64 cols);
  [[nodiscard]] std::size_t collected() const { return samples_.size(); }

  /// Contrastive-train on the collected set (pairs must share a shape) and
  /// freeze to INT8, each step fanned out on `pool` (see
  /// CnnEncoder::train_pair). Returns mean tail loss; no-op (0) with fewer
  /// than 2 samples.
  double train_from_collected(int steps,
                              ThreadPool& pool = ThreadPool::global());
  /// Steps the last train_from_collected() trained: pairs of mismatched
  /// shape are drawn but skipped.
  [[nodiscard]] int steps_trained() const { return steps_trained_; }

 private:
  struct Sample {
    std::vector<cfloat> plane;
    i64 rows, cols;
  };
  CnnEncoder enc_;
  std::vector<Sample> samples_;
  bool collect_ = false;
  std::size_t cap_ = 0;
  int steps_trained_ = 0;
};

}  // namespace mlr::encoder
