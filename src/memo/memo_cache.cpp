#include "memo/memo_cache.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

namespace mlr::memo {

PrivateCache::PrivateCache(i64 num_locations)
    : num_locations_(num_locations),
      slots_(size_t(kNumOpKinds * num_locations)),
      locks_(std::make_unique<std::mutex[]>(kLockStripes)) {
  MLR_CHECK(num_locations >= 1);
}

i64 PrivateCache::slot(OpKind kind, i64 location) const {
  MLR_CHECK(location >= 0 && location < num_locations_);
  return i64(int(kind)) * num_locations_ + location;
}

namespace {
// FNV-1a (common/hash.hpp) over an entry's bits; order sensitivity comes
// from folding the running digest into each entry's hash.
u64 hash_entry(u64 h, const CacheEntry& e) {
  h = fnv1a(h, e.key.data(), e.key.size() * sizeof(float));
  h = fnv1a(h, e.value.data(), e.value.size() * sizeof(cfloat));
  h = fnv1a(h, &e.norm, sizeof(e.norm));
  h = fnv1a(h, e.probe.data(), e.probe.size() * sizeof(cfloat));
  return h;
}

// The DB's acceptance rule (gate_similarity): the oracle branch never reads
// the key, so the engine looks a chunk up before it encodes one.
bool accept_entry(const CacheEntry& e, std::span<const float> key, double tau,
                  double norm, std::span<const cfloat> probe) {
  return gate_similarity(key, norm, probe, e.key, e.norm, e.probe, tau) > tau;
}
}  // namespace

std::optional<std::vector<cfloat>> PrivateCache::lookup(
    OpKind kind, i64 location, std::span<const float> key, double tau,
    double norm, std::span<const cfloat> probe) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const i64 s = slot(kind, location);
  std::lock_guard lk(stripe(s));
  const auto& e = slots_[size_t(s)];
  if (!e.has_value()) return std::nullopt;
  comparisons_.fetch_add(1, std::memory_order_relaxed);  // the private slot
  if (accept_entry(*e, key, tau, norm, probe)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return e->value;
  }
  return std::nullopt;
}

void PrivateCache::insert(OpKind kind, i64 location,
                          std::span<const float> key,
                          std::span<const cfloat> value, double norm,
                          std::span<const cfloat> probe) {
  // FIFO with capacity one == unconditional replacement. Build the entry
  // outside the lock so the stripe is held only for the swap.
  CacheEntry entry{{key.begin(), key.end()},
                   {value.begin(), value.end()},
                   norm,
                   {probe.begin(), probe.end()}};
  const i64 s = slot(kind, location);
  std::lock_guard lk(stripe(s));
  slots_[size_t(s)] = std::move(entry);
}

std::size_t PrivateCache::bytes() const {
  std::size_t b = 0;
  for (i64 s = 0; s < i64(slots_.size()); ++s) {
    std::lock_guard lk(stripe(s));
    const auto& e = slots_[size_t(s)];
    if (e)
      b += e->key.size() * sizeof(float) + e->value.size() * sizeof(cfloat);
  }
  return b;
}

u64 PrivateCache::fingerprint() const {
  u64 h = kFnvOffsetBasis;
  for (i64 s = 0; s < i64(slots_.size()); ++s) {
    std::lock_guard lk(stripe(s));
    const auto& e = slots_[size_t(s)];
    h = fnv1a(h, &s, sizeof(s));
    if (e) h = hash_entry(h, *e);
  }
  return h;
}

CacheImage PrivateCache::image() const {
  CacheImage img;
  for (i64 s = 0; s < i64(slots_.size()); ++s) {
    std::lock_guard lk(stripe(s));
    const auto& e = slots_[size_t(s)];
    if (e) img.items.push_back({s, OpKind(int(s / num_locations_)), *e});
  }
  img.stats = stats();
  return img;
}

void PrivateCache::restore(const CacheImage& img) {
  for (auto& e : slots_) e.reset();
  for (const auto& it : img.items) {
    MLR_CHECK(it.slot >= 0 && it.slot < i64(slots_.size()));
    std::lock_guard lk(stripe(it.slot));
    slots_[size_t(it.slot)] = it.entry;
  }
  restore_stats(img.stats);
}

GlobalCache::GlobalCache(i64 capacity) : capacity_(capacity) {
  MLR_CHECK(capacity >= 1);
}

std::optional<std::vector<cfloat>> GlobalCache::lookup(
    OpKind kind, i64 /*location*/, std::span<const float> key, double tau,
    double norm, std::span<const cfloat> probe) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  // Cross-location sharing: any resident entry of the same operator kind
  // may serve the request, so every one must be compared.
  std::lock_guard lk(mu_);
  const Tagged* best = nullptr;
  u64 compared = 0;
  for (const auto& t : pool_) {
    if (t.kind != kind) continue;
    ++compared;
    if (accept_entry(t.entry, key, tau, norm, probe)) best = &t;
  }
  comparisons_.fetch_add(compared, std::memory_order_relaxed);
  if (best != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return best->entry.value;
  }
  return std::nullopt;
}

void GlobalCache::insert(OpKind kind, i64 /*location*/,
                         std::span<const float> key,
                         std::span<const cfloat> value, double norm,
                         std::span<const cfloat> probe) {
  Tagged tagged{kind, CacheEntry{{key.begin(), key.end()},
                                 {value.begin(), value.end()},
                                 norm,
                                 {probe.begin(), probe.end()}}};
  std::lock_guard lk(mu_);
  if (i64(pool_.size()) >= capacity_)
    pool_.erase(pool_.begin());  // FIFO
  pool_.push_back(std::move(tagged));
}

std::size_t GlobalCache::bytes() const {
  std::size_t b = 0;
  std::lock_guard lk(mu_);
  for (const auto& t : pool_)
    b += t.entry.key.size() * sizeof(float) +
         t.entry.value.size() * sizeof(cfloat);
  return b;
}

u64 GlobalCache::fingerprint() const {
  u64 h = kFnvOffsetBasis;
  std::lock_guard lk(mu_);
  for (const auto& t : pool_) {  // FIFO order
    const int k = int(t.kind);
    h = fnv1a(h, &k, sizeof(k));
    h = hash_entry(h, t.entry);
  }
  return h;
}

CacheImage GlobalCache::image() const {
  CacheImage img;
  {
    std::lock_guard lk(mu_);
    for (const auto& t : pool_)  // preserve FIFO order
      img.items.push_back({0, t.kind, t.entry});
  }
  img.stats = stats();
  return img;
}

void GlobalCache::restore(const CacheImage& img) {
  std::lock_guard lk(mu_);
  pool_.clear();
  for (const auto& it : img.items) {
    MLR_CHECK(it.slot == 0);
    pool_.push_back({it.kind, it.entry});
  }
  restore_stats(img.stats);
}

}  // namespace mlr::memo
