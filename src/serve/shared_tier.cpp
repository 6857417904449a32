#include "serve/shared_tier.hpp"

#include <utility>

#include "common/error.hpp"

namespace mlr::serve {

SharedTier::SharedTier(SharedTierConfig cfg)
    : cfg_(cfg),
      shard_entries_(std::size_t(cfg.shard_count), 0),
      shard_bytes_(std::size_t(cfg.shard_count), 0.0) {
  MLR_CHECK(cfg_.shard_count >= 1 && cfg_.max_entries >= 1);
  MLR_CHECK(cfg_.tau_dedup >= 0.0 && cfg_.tau_dedup <= 1.0);
  for (int k = 0; k < memo::kNumOpKinds; ++k)
    index_.push_back(
        std::make_unique<ann::IvfFlatIndex>(cfg_.key_dim, cfg_.ivf));
}

bool SharedTier::near_duplicate(const memo::MemoDb::Entry& e) const {
  const auto& idx = *index_[std::size_t(int(e.kind))];
  const auto nn = idx.nearest(e.key);
  if (!nn.has_value()) return false;
  return memo::entry_similarity(e, entries_[std::size_t(nn->id)]) >
         cfg_.tau_dedup;
}

void SharedTier::place(const memo::MemoDb::Entry& e) {
  const int shard = memo::entry_shard(e, cfg_.shard_count);
  shard_entries_[std::size_t(shard)] += 1;
  shard_bytes_[std::size_t(shard)] += double(memo::entry_bytes(e));
  total_bytes_ += double(memo::entry_bytes(e));
}

PromotionOutcome SharedTier::fold(std::vector<memo::MemoDb::Entry> entries) {
  PromotionOutcome out;
  for (auto& e : entries) {
    // Cap first: at capacity the drop is inevitable, so skip the ANN probe
    // (a full tier would otherwise pay one nearest() scan per offered entry
    // just to label the drop).
    if (entries_.size() >= cfg_.max_entries) {
      ++out.cap_drops;
      continue;
    }
    if (cfg_.tau_dedup > 0.0 && near_duplicate(e)) {
      ++out.dedup_drops;
      continue;
    }
    place(e);
    index_[std::size_t(int(e.kind))]->add(u64(entries_.size()), e.key);
    entries_.push_back(std::move(e));
    ++out.promoted;
  }
  return out;
}

void SharedTier::import_snapshot(std::vector<memo::MemoDb::Entry> entries) {
  MLR_CHECK_MSG(entries_.empty(), "import_snapshot requires an empty tier");
  entries_.reserve(entries.size());
  for (auto& e : entries) {
    MLR_CHECK_MSG(!e.value.empty() || e.value_cf == 0,
                  "import_snapshot needs full value payloads");
    place(e);
    index_[std::size_t(int(e.kind))]->add(u64(entries_.size()), e.key);
    entries_.push_back(std::move(e));
  }
}

}  // namespace mlr::serve
