#include "memo/memoized_ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/array.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "encoder/layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlr::memo {

namespace {

/// Per-phase wall-clock histograms and outcome counters. Cached references:
/// after the first stage, each event is one relaxed atomic op.
struct StageMetrics {
  obs::Histogram& encode_probe_s;
  obs::Histogram& score_s;
  obs::Histogram& miss_fft_s;
  obs::Histogram& tail_drain_s;
  obs::Counter& stages;
  obs::Counter& chunks;
  obs::Counter& cache_hit;
  obs::Counter& db_hit;
  obs::Counter& db_hit_shared;
  obs::Counter& miss;
  obs::Counter& computed;
  obs::Counter& keys_encoded;
  obs::Counter& tail_items;
  static StageMetrics& get() {
    static StageMetrics m{
        obs::metrics().histogram("stage.encode_probe_s",
                                 obs::latency_edges_s()),
        obs::metrics().histogram("stage.score_s", obs::latency_edges_s()),
        obs::metrics().histogram("stage.miss_fft_s", obs::latency_edges_s()),
        obs::metrics().histogram("stage.tail_drain_s",
                                 obs::latency_edges_s()),
        obs::metrics().counter("stage.stages"),
        obs::metrics().counter("stage.chunks"),
        obs::metrics().counter("memo.cache_hit"),
        obs::metrics().counter("memo.db_hit"),
        obs::metrics().counter("memo.db_hit_shared"),
        obs::metrics().counter("memo.miss"),
        obs::metrics().counter("memo.computed"),
        obs::metrics().counter("memo.keys_encoded"),
        obs::metrics().counter("stage.tail_items"),
    };
    return m;
  }
};

}  // namespace

MemoizedLamino::MemoizedLamino(const lamino::Operators& ops, MemoConfig cfg,
                               sim::Device* device, MemoDb* db,
                               std::shared_ptr<encoder::EncoderRegistry> registry)
    : MemoizedLamino(ops, cfg, std::vector<sim::Device*>{device}, db,
                     std::move(registry)) {}

MemoizedLamino::MemoizedLamino(const lamino::Operators& ops, MemoConfig cfg,
                               std::vector<sim::Device*> devices, MemoDb* db,
                               std::shared_ptr<encoder::EncoderRegistry> registry)
    : ops_(ops), cfg_(cfg), db_(db), registry_(std::move(registry)) {
  MLR_CHECK(!devices.empty());
  if (registry_ == nullptr) {
    registry_ = std::make_shared<encoder::EncoderRegistry>(
        encoder::EncoderConfig{.input_hw = cfg_.encoder_hw,
                               .embed_dim = cfg_.key_dim});
  }
  MLR_CHECK_MSG(!cfg_.enable || db != nullptr,
                "memoization enabled but no MemoDb");
  const auto& g = ops_.geometry();
  const i64 locations = std::max(g.n1, g.h);  // covers both chunk axes
  for (sim::Device* d : devices) {
    MLR_CHECK(d != nullptr);
    Lane& lane = lanes_.emplace_back();
    lane.device = d;
    if (!cfg_.enable) continue;
    switch (cfg_.cache) {
      case CacheKind::Private:
        lane.cache = std::make_unique<PrivateCache>(locations);
        break;
      case CacheKind::Global:
        lane.cache = std::make_unique<GlobalCache>(locations);
        break;
      case CacheKind::None:
        break;
    }
  }
}

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

double MemoizedLamino::train_encoder_from_collected(int steps) {
  static auto& train_s =
      obs::metrics().histogram("encoder.train_s", obs::latency_edges_s());
  static auto& trained = obs::metrics().counter("encoder.train_steps");
  MLR_TRACE_SPAN("encoder.train", "engine", u64(steps));
  const WallTimer timer;
  // Training steps fan out on the layer's pool: training runs between
  // stages, on the thread that runs them, never on a pool worker.
  const double loss = registry_->train_from_collected(steps, pool());
  trained.add(u64(registry_->steps_trained()));
  train_s.observe(timer.seconds());
  return loss;
}

CacheStats MemoizedLamino::cache_stats() const {
  CacheStats total;
  for (const auto& lane : lanes_) {
    if (lane.cache == nullptr) continue;
    const auto s = lane.cache->stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.comparisons += s.comparisons;
  }
  return total;
}

CacheImage MemoizedLamino::cache_image() const {
  MLR_CHECK(lanes_.size() == 1);
  return lanes_[0].cache ? lanes_[0].cache->image() : CacheImage{};
}

void MemoizedLamino::restore_cache(const CacheImage& img) {
  MLR_CHECK(lanes_.size() == 1);
  if (lanes_[0].cache) lanes_[0].cache->restore(img);
}

double MemoizedLamino::device_transfer_busy() const {
  double busy = 0;
  for (const auto& lane : lanes_)
    busy += lane.device->h2d_engine().busy_time() +
            lane.device->d2h_engine().busy_time();
  return busy;
}

StageReport MemoizedLamino::run_stage(OpKind kind,
                                      std::span<StageChunk> chunks,
                                      sim::VTime ready) {
  StageReport report;
  report.records.resize(chunks.size());
  report.done = ready;
  // Memoization off or bypassed (the warmup) takes the plain compute path.
  const bool plain = !cfg_.enable || bypass_;
  // Encoder-training sample collection (a warmup activity) runs above the
  // device distribution, serial in global chunk order, so the registry holds
  // exactly the training set a single-GPU run collects and the trained
  // encoder, and every downstream hit pattern, matches.
  if (plain) {
    const auto [rows, cols] = chunk_plane_dims(kind);
    for (const auto& c : chunks) {
      if (!registry_->wants_samples()) break;
      registry_->add_sample(
          encoder::average_slab(c.in, c.spec.count, rows, cols), rows, cols);
    }
  }
  // The batched phases for one device's share of the stage.
  auto run_lane = [&](Lane& lane, std::span<StageChunk> mine,
                      std::span<ChunkRecord> recs, sim::VTime* done) {
    if (plain) {
      run_bypass(lane, kind, mine, ready, recs, done);
    } else {
      run_memoized(lane, kind, mine, ready, recs, done);
    }
  };
  const std::size_t G = lanes_.size();
  if (G == 1) {
    run_lane(lanes_[0], chunks, report.records, &report.done);
  } else {
    // Round-robin distribution: device g takes chunks g, g+G, g+2G, …
    // Devices execute their sub-batches in device order so the shared DB /
    // link timelines are scheduled deterministically.
    std::vector<StageChunk> mine;
    std::vector<ChunkRecord> recs;
    for (std::size_t g = 0; g < G; ++g) {
      mine.clear();
      std::vector<std::size_t> idx;
      for (std::size_t c = g; c < chunks.size(); c += G) {
        mine.push_back(chunks[c]);
        idx.push_back(c);
      }
      if (mine.empty()) continue;
      recs.assign(mine.size(), ChunkRecord{});
      sim::VTime done = ready;
      run_lane(lanes_[g], mine, recs, &done);
      report.done = std::max(report.done, done);
      for (std::size_t i = 0; i < idx.size(); ++i)
        report.records[idx[i]] = recs[i];
    }
  }
  if (sink_ != nullptr)
    sink_->insert(sink_->end(), report.records.begin(), report.records.end());
  return report;
}

sim::VTime MemoizedLamino::run_fu1d(const Array3D<cfloat>& in,
                                   Array3D<cfloat>& out, bool adjoint,
                                   i64 chunk_size, sim::VTime ready) {
  const auto& g = ops_.geometry();
  auto chunks = lamino::make_chunks(g.n1, chunk_size);
  std::vector<StageChunk> work;
  work.reserve(chunks.size());
  for (const auto& spec : chunks) {
    work.push_back({spec, in.slices(spec.begin, spec.count),
                    out.slices(spec.begin, spec.count)});
  }
  return run_stage(adjoint ? OpKind::Fu1DAdj : OpKind::Fu1D, work, ready)
      .done;
}

sim::VTime MemoizedLamino::run_fu2d(const Array3D<cfloat>& in,
                                   Array3D<cfloat>& out,
                                   const Array3D<cfloat>* fused_ref,
                                   bool adjoint, i64 chunk_size,
                                   sim::VTime ready) {
  const auto& ops = ops_;
  const auto& g = ops.geometry();
  auto chunks = lamino::make_chunks(g.h, chunk_size);
  const std::size_t n = chunks.size();
  std::vector<std::vector<cfloat>> ins(n), outs(n), refs(n);
  std::vector<StageChunk> work;
  work.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& spec = chunks[i];
    const auto plane = size_t(spec.count * g.n1 * g.n2);
    const auto rows = size_t(spec.count * g.ntheta * g.w);
    if (!adjoint) {
      ins[i].resize(plane);
      outs[i].resize(rows);
      ops.pack_u1_rows(in, spec, ins[i]);
      if (fused_ref != nullptr) {
        refs[i].resize(rows);
        ops.pack_dhat_rows(*fused_ref, spec, refs[i]);
      }
      work.push_back({spec, ins[i], outs[i], refs[i]});
    } else {
      ins[i].resize(rows);
      outs[i].resize(plane);
      ops.pack_dhat_rows(in, spec, ins[i]);
      work.push_back({spec, ins[i], outs[i]});
    }
  }
  const sim::VTime done =
      run_stage(adjoint ? OpKind::Fu2DAdj : OpKind::Fu2D, work, ready).done;
  for (std::size_t i = 0; i < n; ++i) {
    if (!adjoint) {
      ops.unpack_dhat_rows(outs[i], chunks[i], out);
    } else {
      ops.unpack_u1_rows(outs[i], chunks[i], out);
    }
  }
  return done;
}

void MemoizedLamino::run_bypass(Lane& lane, OpKind kind,
                                std::span<StageChunk> chunks,
                                sim::VTime ready,
                                std::span<ChunkRecord> records,
                                sim::VTime* done) {
  // Fast path: memoization disabled or bypassed (warmup) — the Fig 1
  // pipeline (H2D / kernel / D2H with copy-compute overlap). Encoder sample
  // collection already happened in run_stage's global-chunk-order pass.
  MLR_TRACE_SPAN(op_kind_name(kind), "engine", u64(chunks.size()));
  auto& sm = StageMetrics::get();
  sm.stages.add();
  sm.chunks.add(chunks.size());
  sm.computed.add(chunks.size());
  // Parallel phase: the real FFT numerics of every chunk at once.
  std::vector<double> flops(chunks.size(), 0.0);
  {
    MLR_TRACE_SPAN("stage.bypass_compute", "engine");
    parallel_for(pool(), 0, i64(chunks.size()), [&](i64 i) {
      compute_chunk(kind, chunks[size_t(i)], &flops[size_t(i)]);
    });
  }
  // Serial phase: deterministic virtual-clock scheduling in chunk order.
  sim::VTime stage_done = ready;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    auto& c = chunks[i];
    auto& rec = records[i];
    rec.kind = kind;
    rec.outcome = MemoOutcome::Computed;
    rec.location = c.spec.index;
    double f = flops[i] * cfg_.kernel_cost_factor * cfg_.work_scale;
    if (kind == OpKind::Fu1D || kind == OpKind::Fu1DAdj)
      f *= cfg_.fu1d_extra_derate;
    const double in_bytes = double(c.in.size() + c.ref.size()) *
                            sizeof(cfloat) * cfg_.work_scale;
    const double out_bytes =
        double(c.out.size()) * sizeof(cfloat) * cfg_.work_scale;
    const sim::VTime t0 = lane.device->compute().busy_until();
    const sim::VTime in_ready = lane.device->h2d(ready, in_bytes);
    const sim::VTime k_done = lane.device->run_kernel(in_ready, f);
    const sim::VTime c_done = lane.device->d2h(k_done, out_bytes);
    rec.compute_s = c_done - std::max(ready, t0);
    ++counters_.computed;
    stage_done = std::max(stage_done, c_done);
  }
  *done = stage_done;
}

void MemoizedLamino::run_memoized(Lane& lane, OpKind kind,
                                  std::span<StageChunk> chunks,
                                  sim::VTime ready,
                                  std::span<ChunkRecord> records,
                                  sim::VTime* done) {
  MLR_TRACE_SPAN(op_kind_name(kind), "engine", u64(chunks.size()));
  auto& sm = StageMetrics::get();
  sm.stages.add();
  sm.chunks.add(chunks.size());
  const std::size_t n = chunks.size();
  const double encode_s =
      registry_->encoder().encode_flops() / cfg_.host_flops;
  std::vector<std::vector<float>> keys(n);
  std::vector<double> norms(n, 1.0);
  std::vector<std::vector<cfloat>> probes(n);
  std::vector<char> cache_hit(n, 0);  // char, not bool: written in parallel

  // Phase 1 (parallel): each chunk's norm and pooled probe, then the
  // thread-safe local cache; a hit copies its stored value straight into
  // the chunk output. The key is encoded only where it is read: a hit under
  // oracle similarity was accepted on probe and norm alone, so only a miss
  // encodes (for the DB round, its refill and insertion). No inserts happen
  // concurrently, so the lookup results are independent of evaluation order.
  {
    MLR_TRACE_SPAN("stage.encode_probe", "engine", u64(n));
    const WallTimer wt;
    parallel_for(pool(), 0, i64(n), [&](i64 ii) {
      const auto i = size_t(ii);
      auto& c = chunks[i];
      auto& rec = records[i];
      rec.kind = kind;
      rec.location = c.spec.index;
      auto encode = [&] {
        keys[i] = encode_chunk(kind, c.spec, c.in);
        sm.keys_encoded.add();
      };
      norms[i] = l2_norm<cfloat>(c.in);
      probes[i] = pooled_probe(kind, c.spec, c.in);
      if (lane.cache != nullptr) {
        if (probes[i].empty()) encode();  // the encoder-gated cache reads it
        auto hit = lane.cache->lookup(kind, c.spec.index, keys[i], cfg_.tau,
                                     norms[i], probes[i]);
        if (hit.has_value()) {
          MLR_CHECK(hit->size() == c.out.size());
          std::copy(hit->begin(), hit->end(), c.out.begin());
          cache_hit[i] = 1;
          return;
        }
      }
      if (keys[i].empty()) encode();
    });
    sm.encode_probe_s.observe(wt.seconds());
  }

  // Serial accounting pass: the host encodes keys and copies reused values
  // one after another (the paper's single host thread of control), so the
  // virtual clock advances in chunk order regardless of pool width. The
  // paper's pipeline encodes before it looks up, so every chunk is charged
  // encode_s, including the cache hits the pass above never encoded.
  sim::VTime stage_done = ready;
  sim::VTime host_t = ready;
  std::vector<QueryRequest> reqs;
  std::vector<std::size_t> req_chunk;  // request → chunk index
  for (std::size_t i = 0; i < n; ++i) {
    auto& c = chunks[i];
    auto& rec = records[i];
    rec.encode_s = encode_s;
    host_t += encode_s;
    if (cache_hit[i]) {
      rec.outcome = MemoOutcome::CacheHit;
      rec.copy_s = double(c.out.size()) * sizeof(cfloat) *
                   cfg_.work_scale / cfg_.host_mem_bw;
      host_t += rec.copy_s;
      ++counters_.cache_hit;
      sm.cache_hit.add();
      continue;
    }
    reqs.push_back(
        {kind, keys[i], norms[i], probes[i], cfg_.tau, c.out.size()});
    req_chunk.push_back(i);
  }
  stage_done = std::max(stage_done, host_t);
  if (reqs.empty()) {
    *done = stage_done;
    return;
  }

  // Phase 2: ONE coalesced DB round for everything the cache could not
  // serve, scored on the pool.
  std::vector<QueryReply> replies;
  {
    const WallTimer wt;
    MLR_TRACE_SPAN("stage.score", "engine", u64(reqs.size()));
    replies = db_->query_batch(reqs, host_t, &pool());
    sm.score_s.observe(wt.seconds());
  }
  // …then one parallel pass: every miss FFT first, then the hits
  // materialize and copy their values. A remote-seeded DB shipped its
  // GET_BATCH fetches at the end of scoring, so harvesting them after the
  // miss FFTs were issued leaves the round trips covered by local compute.
  std::vector<std::size_t> order;  // request indices, misses first
  order.reserve(replies.size());
  for (std::size_t r = 0; r < replies.size(); ++r)
    if (!replies[r].hit) order.push_back(r);
  const std::size_t num_misses = order.size();
  for (std::size_t r = 0; r < replies.size(); ++r)
    if (replies[r].hit) order.push_back(r);
  std::vector<double> flops(n, 0.0);
  {
    MLR_TRACE_SPAN("stage.miss_fft", "engine", u64(num_misses));
    const WallTimer wt;
    parallel_for(pool(), 0, i64(order.size()), [&](i64 oo) {
      auto& rp = replies[order[size_t(oo)]];
      const std::size_t i = req_chunk[order[size_t(oo)]];
      auto& c = chunks[i];
      if (rp.hit) {
        db_->materialize(rp);
        MLR_CHECK(rp.value.size() == c.out.size());
        std::copy(rp.value.begin(), rp.value.end(), c.out.begin());
      } else {
        compute_chunk(kind, c, &flops[i]);
      }
    });
    sm.miss_fft_s.observe(wt.seconds());
  }

  // Account timing serially, in chunk order: hits take their value arrival
  // plus the host copy; misses keep their lookup latency on the critical
  // path (case 1) and are scheduled on the simulated GPU.
  std::vector<std::size_t> misses;  // chunk indices, ascending
  std::vector<sim::VTime> miss_done;
  for (std::size_t r = 0; r < replies.size(); ++r) {
    const std::size_t i = req_chunk[r];
    auto& c = chunks[i];
    auto& rec = records[i];
    rec.db_s = replies[r].value_ready - host_t;
    if (!replies[r].hit) {
      misses.push_back(i);
      continue;
    }
    rec.outcome = MemoOutcome::DbHit;
    rec.copy_s = double(c.out.size()) * sizeof(cfloat) * cfg_.work_scale /
                 cfg_.host_mem_bw;
    ++counters_.db_hit;
    sm.db_hit.add();
    if (db_->is_shared_entry(replies[r].match_id)) {
      ++counters_.db_hit_shared;
      sm.db_hit_shared.add();
    }
    stage_done = std::max(stage_done, replies[r].value_ready + rec.copy_s);
  }
  for (const std::size_t i : misses) {
    auto& c = chunks[i];
    auto& rec = records[i];
    double f = flops[i] * cfg_.kernel_cost_factor * cfg_.work_scale;
    if (kind == OpKind::Fu1D || kind == OpKind::Fu1DAdj)
      f *= cfg_.fu1d_extra_derate;
    const double in_bytes = double(c.in.size() + c.ref.size()) *
                            sizeof(cfloat) * cfg_.work_scale;
    const double out_bytes =
        double(c.out.size()) * sizeof(cfloat) * cfg_.work_scale;
    const sim::VTime t0 = std::max(host_t, lane.device->compute().busy_until());
    const sim::VTime in_ready = lane.device->h2d(host_t, in_bytes);
    const sim::VTime k_done = lane.device->run_kernel(in_ready, f);
    const sim::VTime c_done = lane.device->d2h(k_done, out_bytes);
    rec.outcome = MemoOutcome::Miss;
    rec.compute_s = c_done - t0;
    miss_done.push_back(c_done);
    ++counters_.miss;
    sm.miss.add();
    sm.computed.add();
    stage_done = std::max(stage_done, c_done);
  }
  *done = stage_done;

  // Data tail: cache refills of the hits in request order, then each miss's
  // cache refill and DB insertion in chunk order. An insertion occupies the
  // link/node timelines from its miss's completion but never gates the
  // stage (the paper hides insertion behind the next iteration), and the
  // round above never saw it.
  const bool refill = lane.cache != nullptr;
  const std::size_t tail =
      (refill ? replies.size() - misses.size() : 0) + misses.size();
  MLR_TRACE_SPAN("stage.tail_drain", "engine", u64(tail));
  const WallTimer wt;
  for (std::size_t r = 0; refill && r < replies.size(); ++r) {
    if (!replies[r].hit) continue;
    const std::size_t i = req_chunk[r];
    lane.cache->insert(kind, chunks[i].spec.index, keys[i], chunks[i].out,
                      norms[i], probes[i]);
  }
  for (std::size_t m = 0; m < misses.size(); ++m) {
    const std::size_t i = misses[m];
    auto& c = chunks[i];
    // Cache refill first (it copies the probe), then the insertion moves it.
    if (refill)
      lane.cache->insert(kind, c.spec.index, keys[i], c.out, norms[i],
                        probes[i]);
    db_->insert(kind, keys[i], c.out, miss_done[m], norms[i],
                   std::move(probes[i]));
  }
  sm.tail_items.add(tail);
  sm.tail_drain_s.observe(wt.seconds());
}

}  // namespace mlr::memo
