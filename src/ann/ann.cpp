#include "ann/ann.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace mlr::ann {

thread_local u64* Index::tl_dist_acc_ = nullptr;

float Index::l2(std::span<const float> a, std::span<const float> b) const {
  MLR_CHECK(i64(a.size()) == dim_ && i64(b.size()) == dim_);
  count_dist(1);
  double s = 0;
  for (i64 i = 0; i < dim_; ++i) {
    const double d = double(a[size_t(i)]) - double(b[size_t(i)]);
    s += d * d;
  }
  return float(std::sqrt(s));
}

std::vector<std::vector<Neighbor>> Index::search_batch(
    std::span<const float> queries, i64 k, ThreadPool* pool) const {
  MLR_CHECK(dim_ >= 1 && i64(queries.size()) % dim_ == 0);
  const i64 nq = i64(queries.size()) / dim_;
  std::vector<std::vector<Neighbor>> out(static_cast<size_t>(nq));
  auto search_one = [&](i64 i) {
    std::span<const float> q{queries.data() + size_t(i) * size_t(dim_),
                             size_t(dim_)};
    u64 local = 0;
    DistAccScope scope(*this, &local);
    out[size_t(i)] = search(q, k);
  };
  if (pool != nullptr) {
    parallel_for(*pool, 0, nq, search_one);
  } else {
    for (i64 i = 0; i < nq; ++i) search_one(i);
  }
  return out;
}

// --- FlatIndex ---------------------------------------------------------------

void FlatIndex::add(u64 id, std::span<const float> vec) {
  MLR_CHECK(i64(vec.size()) == dim_);
  ids_.push_back(id);
  data_.insert(data_.end(), vec.begin(), vec.end());
}

std::vector<Neighbor> FlatIndex::search(std::span<const float> q,
                                        i64 k) const {
  std::vector<Neighbor> all;
  all.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    std::span<const float> v{data_.data() + i * size_t(dim_), size_t(dim_)};
    all.push_back({ids_[i], l2(q, v)});
  }
  const auto kk = std::min<std::size_t>(size_t(std::max<i64>(k, 0)), all.size());
  std::partial_sort(all.begin(), all.begin() + i64(kk), all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.dist < b.dist;
                    });
  all.resize(kk);
  return all;
}

// --- IvfFlatIndex -------------------------------------------------------------

IvfFlatIndex::IvfFlatIndex(i64 dim, Params p, u64 seed)
    : Index(dim), params_(p), rng_(seed) {
  MLR_CHECK(p.nlist >= 1 && p.nprobe >= 1);
  if (params_.train_size == 0) params_.train_size = 8 * params_.nlist;
  lists_.resize(size_t(params_.nlist));
}

void IvfFlatIndex::add(u64 id, std::span<const float> vec) {
  MLR_CHECK(i64(vec.size()) == dim_);
  const u64 offset = data_.size();
  data_.insert(data_.end(), vec.begin(), vec.end());
  ++total_;
  if (!trained_) {
    pending_ids_.push_back(id);
    if (i64(pending_ids_.size()) >= params_.train_size) train();
    return;
  }
  const i64 list = assign_list(vec);
  lists_[size_t(list)].push_back({id, offset});
}

i64 IvfFlatIndex::assign_list(std::span<const float> vec) const {
  i64 best = 0;
  float bd = std::numeric_limits<float>::max();
  for (i64 c = 0; c < params_.nlist; ++c) {
    std::span<const float> cen{centroids_.data() + size_t(c) * size_t(dim_),
                               size_t(dim_)};
    const float d = l2(vec, cen);
    if (d < bd) {
      bd = d;
      best = c;
    }
  }
  return best;
}

void IvfFlatIndex::kmeans() {
  const i64 n = i64(total_);
  const i64 k = std::min<i64>(params_.nlist, n);
  // Seed centroids with distinct random vectors.
  centroids_.assign(size_t(params_.nlist) * size_t(dim_), 0.0f);
  std::vector<i64> perm(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) perm[size_t(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng_.engine());
  for (i64 c = 0; c < k; ++c) {
    const float* src = data_.data() + size_t(perm[size_t(c)]) * size_t(dim_);
    std::copy(src, src + dim_, centroids_.begin() + i64(size_t(c) * size_t(dim_)));
  }
  std::vector<i64> assign(static_cast<size_t>(n), 0);
  std::vector<double> sums;
  std::vector<i64> counts;
  for (int iter = 0; iter < params_.kmeans_iters; ++iter) {
    for (i64 i = 0; i < n; ++i) {
      std::span<const float> v{data_.data() + size_t(i) * size_t(dim_),
                               size_t(dim_)};
      assign[size_t(i)] = assign_list(v);
    }
    sums.assign(size_t(params_.nlist) * size_t(dim_), 0.0);
    counts.assign(size_t(params_.nlist), 0);
    for (i64 i = 0; i < n; ++i) {
      const i64 c = assign[size_t(i)];
      ++counts[size_t(c)];
      const float* v = data_.data() + size_t(i) * size_t(dim_);
      for (i64 d = 0; d < dim_; ++d)
        sums[size_t(c) * size_t(dim_) + size_t(d)] += v[d];
    }
    for (i64 c = 0; c < params_.nlist; ++c) {
      if (counts[size_t(c)] == 0) continue;  // keep old centroid
      for (i64 d = 0; d < dim_; ++d)
        centroids_[size_t(c) * size_t(dim_) + size_t(d)] =
            float(sums[size_t(c) * size_t(dim_) + size_t(d)] /
                  double(counts[size_t(c)]));
    }
  }
}

void IvfFlatIndex::train() {
  if (trained_ || total_ == 0) return;
  kmeans();
  trained_ = true;
  // Route the held-back vectors into their lists.
  for (std::size_t i = 0; i < pending_ids_.size(); ++i) {
    std::span<const float> v{data_.data() + i * size_t(dim_), size_t(dim_)};
    const i64 list = assign_list(v);
    lists_[size_t(list)].push_back({pending_ids_[i], u64(i * size_t(dim_))});
  }
  pending_ids_.clear();
}

std::vector<Neighbor> IvfFlatIndex::search(std::span<const float> q,
                                           i64 k) const {
  std::vector<Neighbor> cand;
  if (!trained_) {
    // Exhaustive over the holding buffer.
    for (std::size_t i = 0; i < pending_ids_.size(); ++i) {
      std::span<const float> v{data_.data() + i * size_t(dim_), size_t(dim_)};
      cand.push_back({pending_ids_[i], l2(q, v)});
    }
  } else {
    // Rank centroids, scan the nprobe nearest lists.
    std::vector<std::pair<float, i64>> cd(static_cast<size_t>(params_.nlist));
    for (i64 c = 0; c < params_.nlist; ++c) {
      std::span<const float> cen{centroids_.data() + size_t(c) * size_t(dim_),
                                 size_t(dim_)};
      cd[size_t(c)] = {l2(q, cen), c};
    }
    const i64 nprobe = std::min(params_.nprobe, params_.nlist);
    std::partial_sort(cd.begin(), cd.begin() + nprobe, cd.end());
    for (i64 p = 0; p < nprobe; ++p) {
      for (const auto& e : lists_[size_t(cd[size_t(p)].second)]) {
        std::span<const float> v{data_.data() + e.offset, size_t(dim_)};
        cand.push_back({e.id, l2(q, v)});
      }
    }
  }
  const auto kk = std::min<std::size_t>(size_t(std::max<i64>(k, 0)), cand.size());
  std::partial_sort(cand.begin(), cand.begin() + i64(kk), cand.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.dist < b.dist;
                    });
  cand.resize(kk);
  return cand;
}

// --- NswIndex -----------------------------------------------------------------

NswIndex::NswIndex(i64 dim, Params p, u64 seed)
    : Index(dim), params_(p), rng_(seed) {
  MLR_CHECK(p.m >= 1 && p.ef >= 1);
}

std::vector<std::pair<float, i64>> NswIndex::beam_search(
    std::span<const float> q, i64 ef) const {
  std::vector<std::pair<float, i64>> result;
  if (ids_.empty()) return result;
  const i64 entry = 0;
  std::unordered_set<i64> visited{entry};
  // min-heap of candidates, max-heap (as sorted vector) of best ef results.
  using Cand = std::pair<float, i64>;
  std::priority_queue<Cand, std::vector<Cand>, std::greater<>> frontier;
  const float d0 = l2(q, vec_of(entry));
  frontier.push({d0, entry});
  result.push_back({d0, entry});
  auto worst = [&] { return result.back().first; };
  while (!frontier.empty()) {
    auto [d, node] = frontier.top();
    frontier.pop();
    if (d > worst() && i64(result.size()) >= ef) break;
    for (i64 nb : edges_[size_t(node)]) {
      if (!visited.insert(nb).second) continue;
      const float dn = l2(q, vec_of(nb));
      if (i64(result.size()) < ef || dn < worst()) {
        frontier.push({dn, nb});
        result.push_back({dn, nb});
        std::sort(result.begin(), result.end());
        if (i64(result.size()) > ef) result.pop_back();
      }
    }
  }
  return result;
}

void NswIndex::add(u64 id, std::span<const float> vec) {
  MLR_CHECK(i64(vec.size()) == dim_);
  const i64 node = i64(ids_.size());
  // Beam-search the existing graph for attachment points (this is the
  // expensive, size-dependent part of graph-index insertion).
  auto near = beam_search(vec, params_.ef);
  ids_.push_back(id);
  data_.insert(data_.end(), vec.begin(), vec.end());
  edges_.emplace_back();
  const i64 m = std::min<i64>(params_.m, i64(near.size()));
  for (i64 i = 0; i < m; ++i) {
    const i64 nb = near[size_t(i)].second;
    edges_[size_t(node)].push_back(nb);
    edges_[size_t(nb)].push_back(node);  // undirected; allow degree growth
  }
}

std::vector<Neighbor> NswIndex::search(std::span<const float> q,
                                       i64 k) const {
  auto beam = beam_search(q, std::max(params_.ef, k));
  std::vector<Neighbor> out;
  const i64 kk = std::min<i64>(k, i64(beam.size()));
  out.reserve(size_t(kk));
  for (i64 i = 0; i < kk; ++i)
    out.push_back({ids_[size_t(beam[size_t(i)].second)], beam[size_t(i)].first});
  return out;
}

}  // namespace mlr::ann
