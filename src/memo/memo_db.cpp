#include "memo/memo_db.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/array.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"

namespace mlr::memo {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Fu1D: return "Fu1D";
    case OpKind::Fu1DAdj: return "F*u1D";
    case OpKind::Fu2D: return "Fu2D";
    case OpKind::Fu2DAdj: return "F*u2D";
  }
  return "?";
}

double key_cosine(std::span<const float> a, std::span<const float> b) {
  MLR_CHECK(a.size() == b.size());
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += double(a[i]) * b[i];
    na += double(a[i]) * a[i];
    nb += double(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return na == nb ? 1.0 : 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double estimated_chunk_cosine(std::span<const float> key_q,
                              std::span<const float> key_db, double norm_q,
                              double norm_db) {
  MLR_CHECK(key_q.size() == key_db.size());
  if (norm_q <= 0 || norm_db <= 0) return norm_q == norm_db ? 1.0 : -1.0;
  double dz2 = 0;
  for (std::size_t i = 0; i < key_q.size(); ++i) {
    const double d = double(key_q[i]) - key_db[i];
    dz2 += d * d;
  }
  const double cs =
      (norm_q * norm_q + norm_db * norm_db - dz2) / (2.0 * norm_q * norm_db);
  return std::clamp(cs, -1.0, 1.0);
}

int entry_shard(const MemoDb::Entry& e, int shard_count) {
  MLR_CHECK(shard_count >= 1);
  if (shard_count == 1) return 0;
  u64 h = fnv1a(kFnvOffsetBasis, &e.kind, sizeof e.kind);
  h = fnv1a(h, e.key.data(), e.key.size() * sizeof(float));
  return int(h % u64(shard_count));
}

std::size_t entry_bytes(const MemoDb::Entry& e) {
  // Logical footprint: an index-only entry (empty value, value_cf set)
  // still stands for its full payload — charging and shard occupancy must
  // not depend on whether the bytes happen to be local.
  const std::size_t vcf = e.value.empty() ? e.value_cf : e.value.size();
  return e.key.size() * sizeof(float) + vcf * sizeof(cfloat) +
         e.probe.size() * sizeof(cfloat) + sizeof e.norm;
}

double gate_similarity(std::span<const float> key, double norm,
                       std::span<const cfloat> probe,
                       std::span<const float> stored_key, double stored_norm,
                       std::span<const cfloat> stored_probe, double tau) {
  if (!probe.empty() && stored_probe.size() == probe.size()) {
    const double lo = std::min(norm, stored_norm),
                 hi = std::max(norm, stored_norm);
    if (hi > 0 && lo / hi <= tau) return -1.0;
    return cosine_similarity<cfloat>(probe, stored_probe);
  }
  MLR_CHECK_MSG(!key.empty(), "key-gated lookup without a key");
  return std::min(key_cosine(key, stored_key),
                  estimated_chunk_cosine(key, stored_key, norm, stored_norm));
}

double entry_similarity(const MemoDb::Entry& a, const MemoDb::Entry& b) {
  if (a.kind != b.kind || a.value.size() != b.value.size()) return -1.0;
  const double lo = std::min(a.norm, b.norm), hi = std::max(a.norm, b.norm);
  const double scale = hi > 0 ? lo / hi : (a.norm == b.norm ? 1.0 : 0.0);
  double cs;
  if (!a.probe.empty() && a.probe.size() == b.probe.size()) {
    cs = cosine_similarity<cfloat>(a.probe, b.probe);
  } else {
    cs = std::min(key_cosine(a.key, b.key),
                  estimated_chunk_cosine(a.key, b.key, a.norm, b.norm));
  }
  return std::min(cs, scale);
}

MemoDb::MemoDb(MemoDbConfig cfg, sim::Interconnect* net,
               sim::MemoryNode* node)
    : cfg_(cfg), net_(net), node_(node) {
  MLR_CHECK(net != nullptr && node != nullptr);
  MLR_CHECK(cfg.key_dim >= 1 && cfg.tau > 0.0 && cfg.tau <= 1.0);
  for (int k = 0; k < kNumOpKinds; ++k) {
    index_.push_back(
        std::make_unique<ann::IvfFlatIndex>(cfg.key_dim, cfg.ivf));
  }
}

void MemoDb::score_requests(std::span<const QueryRequest> reqs,
                            std::span<QueryReply> replies,
                            ThreadPool* pool) const {
  MLR_CHECK(reqs.size() == replies.size());
  if (reqs.empty()) return;
  // 1) ANN search, batched per operator kind (requests of one stage share a
  //    kind, so this is normally a single search_batch fanned across the
  //    pool).
  std::vector<std::optional<ann::Neighbor>> nn(reqs.size());
  for (int k = 0; k < kNumOpKinds; ++k) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (int(reqs[i].kind) == k) members.push_back(i);
    if (members.empty()) continue;
    std::vector<float> flat;
    flat.reserve(members.size() * size_t(cfg_.key_dim));
    for (const auto i : members)
      flat.insert(flat.end(), reqs[i].key.begin(), reqs[i].key.end());
    auto found = index_[size_t(k)]->search_batch(flat, 1, pool);
    for (std::size_t m = 0; m < members.size(); ++m)
      if (!found[m].empty()) nn[members[m]] = found[m].front();
  }

  // 2) τ gate per request, reading the matched row in place; only a hit
  //    copies the value. No insertion runs while a round scores.
  auto gate_one = [&](i64 ii) {
    const auto i = size_t(ii);
    const auto& rq = reqs[i];
    auto& rp = replies[i];
    rp = QueryReply{};
    if (!nn[i].has_value()) return;
    const u64 id = nn[i]->id;
    const auto& row = rows_[size_t(int(rq.kind))][size_t(id & kSeqMask)];
    const auto& e = row.e;
    if (rq.value_size != 0 && e.value_cf != rq.value_size)
      return;  // shape mismatch: not a valid answer for this chunk
    const double tau = rq.tau > 0.0 ? rq.tau : cfg_.tau;
    const double cs = gate_similarity(rq.key, rq.norm, rq.probe, e.key,
                                      e.norm, e.probe, tau);
    if (cs > tau) {
      rp.hit = true;
      rp.match_id = id;
      rp.cosine = cs;
      rp.value_cf = e.value_cf;
      if (e.value.empty() && e.value_cf > 0) {
        // Payload still on the tier: note interest now (the round's flush
        // below ships one coalesced GET_BATCH per shard) and let the engine
        // harvest with materialize() once its miss FFTs are in flight.
        rp.remote_pos = row.seed_pos;
        fetcher_->request(row.seed_pos);
      } else {
        rp.value = e.value;
      }
    }
  };
  if (pool != nullptr) {
    parallel_for(*pool, 0, i64(reqs.size()), gate_one);
  } else {
    for (i64 i = 0; i < i64(reqs.size()); ++i) gate_one(i);
  }
  // One wire flush per round: every remote hit of this round rides one
  // GET_BATCH per shard, in flight while the caller computes.
  if (fetcher_ != nullptr) fetcher_->flush();
}

void MemoDb::schedule_replies(std::span<QueryReply> replies, sim::VTime ready) {
  if (replies.empty()) return;
  const double key_bytes = double(cfg_.key_dim) * sizeof(float);

  // 1) Ship the keys to the memory node. Coalescing packs keys until the
  //    payload reaches coalesce_bytes; without it every key is one message.
  sim::VTime keys_arrived = ready;
  const sim::VTime comm_start = ready;
  if (cfg_.coalesce) {
    const i64 keys_per_msg =
        std::max<i64>(1, i64(double(cfg_.coalesce_bytes) / key_bytes));
    for (std::size_t off = 0; off < replies.size();
         off += std::size_t(keys_per_msg)) {
      const auto cnt = std::min<std::size_t>(std::size_t(keys_per_msg),
                                             replies.size() - off);
      keys_arrived = net_->transfer(ready, double(cnt) * key_bytes);
      ++messages_;
    }
  } else {
    for (std::size_t i = 0; i < replies.size(); ++i) {
      keys_arrived = net_->transfer(ready, key_bytes);
      ++messages_;
    }
  }

  // 2) Index lookup on the memory node. Coalescing enables *batched* lookup
  // (one multi-threaded DRAM sweep amortizes the traversal, §4.3.3); without
  // it every key pays the full per-query cost.
  sim::VTime searched;
  if (cfg_.coalesce) {
    searched = node_->serve_index_query(keys_arrived, i64(replies.size()));
  } else {
    searched = keys_arrived;
    for (std::size_t i = 0; i < replies.size(); ++i)
      searched = node_->serve_index_query(searched, 1);
  }
  timing_.search_s += searched - keys_arrived;

  // 3) Hits fetch their value: value DB service + transfer back over the
  //    link, in request order.
  double value_comm = 0.0;
  for (auto& rp : replies) {
    rp.value_ready = searched;  // miss: the caller waited for the lookup
    if (rp.hit) {
      // Charge from the scored value length, not the payload buffer: a
      // remote hit's payload may still be in flight on the wall clock, and
      // virtual charging must neither wait for it nor depend on it.
      const double vbytes =
          double(rp.value_cf) * sizeof(cfloat) * cfg_.value_scale;
      const sim::VTime served = node_->serve_value(searched, vbytes);
      timing_.value_serve_s += served - searched;
      rp.value_ready = net_->transfer(served, vbytes);
      value_comm += rp.value_ready - served;
    }
    timing_.query_latency_us.add(
        (std::max(rp.hit ? rp.value_ready : searched, searched) - ready) *
        1e6);
  }
  timing_.comm_s += (keys_arrived - comm_start) + value_comm;
}

std::vector<QueryReply> MemoDb::query_batch(
    std::span<const QueryRequest> reqs, sim::VTime ready, ThreadPool* pool) {
  std::vector<QueryReply> replies(reqs.size());
  if (reqs.empty()) return replies;
  score_requests(reqs, replies, pool);
  schedule_replies(replies, ready);
  return replies;
}

void MemoDb::append(Entry e, u64 seed_pos) {
  MLR_CHECK(i64(e.key.size()) == cfg_.key_dim);
  if (!e.value.empty()) e.value_cf = e.value.size();
  const auto k = size_t(int(e.kind));
  // Per-kind lock: stores within a kind serialize, so the kind's sequence
  // numbers follow its insertion order.
  std::lock_guard store_lk(store_mu_[k]);
  auto& rows = rows_[k];
  index_[k]->add((u64(k) << 56) | u64(rows.size()), e.key);
  rows.push_back({std::move(e), seed_pos});
}

void MemoDb::insert(OpKind kind, std::span<const float> key,
                    std::span<const cfloat> value, sim::VTime ready,
                    double norm, std::vector<cfloat> probe) {
  append({.kind = kind,
          .key = {key.begin(), key.end()},
          .norm = norm,
          .probe = std::move(probe),
          .value = {value.begin(), value.end()}},
         0);
  // Virtual-time: the store travels over the link and lands in DRAM, but
  // nothing waits on the returned completion time. The footprint counts
  // ⌈key_dim/2⌉ + value cfloats per entry, in insertion order.
  const std::size_t key_cf = (key.size() + 1) / 2;
  const double store_bytes = double(key_cf + value.size()) * sizeof(cfloat);
  const double wire_bytes = store_bytes * cfg_.value_scale;
  const sim::VTime arrived = net_->transfer(ready, wire_bytes);
  (void)node_->serve_value(arrived, wire_bytes);
  node_->dram().alloc("memo_values", accounted_store_bytes_ + wire_bytes,
                      arrived);
  accounted_store_bytes_ += store_bytes;
}

std::vector<MemoDb::Entry> MemoDb::export_entries(bool session_only) {
  // A remote-seeded session may hold rows whose payload it never fetched —
  // a full export would silently produce empty values.
  MLR_CHECK_MSG(session_only || fetcher_ == nullptr,
                "full export of a remote-seeded session");
  // Canonical kind-major order: each kind's entries in its own insertion
  // order.
  std::scoped_lock store_lk(store_mu_[0], store_mu_[1], store_mu_[2],
                            store_mu_[3]);
  static_assert(kNumOpKinds == 4);
  std::vector<Entry> out;
  for (int k = 0; k < kNumOpKinds; ++k) {
    const auto& rows = rows_[size_t(k)];
    const u64 from_seq = session_only ? shared_boundary_[size_t(k)] : 0;
    for (auto seq = std::size_t(from_seq); seq < rows.size(); ++seq)
      out.push_back(rows[seq].e);
  }
  return out;
}

void MemoDb::import_entries(std::span<const Entry> entries,
                            ValueFetcher* values) {
  MLR_CHECK_MSG(total_entries() == 0,
                "import_entries requires a fresh database");
  fetcher_ = values;
  // Replay in snapshot order: per-kind ids (and therefore the IVF training
  // set and every downstream hit decision) come out identical for every
  // session seeded from the same snapshot — and identical whether the seed
  // carries value payloads inline or index-only records (the remote form).
  const std::size_t key_cf = (size_t(cfg_.key_dim) + 1) / 2;
  double logical_bytes = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    const std::size_t vcf = e.value.empty() ? e.value_cf : e.value.size();
    const bool remote = e.value.empty() && e.value_cf > 0;
    MLR_CHECK_MSG(!remote || values != nullptr,
                  "index-only seed entry without a value fetcher");
    append(e, u64(i));
    logical_bytes += double(key_cf + vcf) * sizeof(cfloat);
  }
  for (int k = 0; k < kNumOpKinds; ++k)
    shared_boundary_[size_t(k)] = rows_[size_t(k)].size();
  // Seed entries are (logically) resident before the session runs; account
  // them so the first insertion charge continues from the real footprint.
  // The *logical* footprint — key + full value per entry — is what the
  // paper-scale DRAM curve means, and for an index-only seed it is what the
  // resident bytes become once payloads land; using it keeps the accounting
  // identical to a value-carrying seed of the same snapshot.
  accounted_store_bytes_ = logical_bytes;
}

void MemoDb::restore_session_entries(std::span<const Entry> entries) {
  for (int k = 0; k < kNumOpKinds; ++k)
    MLR_CHECK_MSG(rows_[size_t(k)].size() == shared_boundary_[size_t(k)],
                  "restore_session_entries must run on a seed-only database");
  const std::size_t key_cf = (size_t(cfg_.key_dim) + 1) / 2;
  for (const auto& e : entries) {
    // Own entries always carry their payload inline: the session stored
    // them locally even when its *seed* was index-only.
    MLR_CHECK(!e.value.empty() || e.value_cf == 0);
    append(e, 0);
    accounted_store_bytes_ +=
        double(key_cf + e.value.size()) * sizeof(cfloat);
  }
}

void MemoDb::materialize(QueryReply& rp) {
  if (!rp.hit || rp.remote_pos == QueryReply::kNoRemote) return;
  const auto k = size_t(rp.match_id >> 56);
  const auto seq = size_t(rp.match_id & kSeqMask);
  {
    // Another harvest of the same entry may already have stored the payload.
    std::lock_guard lk(store_mu_[k]);
    const auto& stored = rows_[k][seq].e.value;
    if (!stored.empty()) {
      rp.value = stored;
      rp.remote_pos = QueryReply::kNoRemote;
      return;
    }
  }
  MLR_CHECK(fetcher_ != nullptr);
  auto v = fetcher_->fetch(rp.remote_pos);
  MLR_CHECK_MSG(v.size() == rp.value_cf,
                "fetched payload length disagrees with the seed index");
  {
    // Later rounds (and the dedup/export paths) serve this entry locally.
    // Concurrent harvests fetched identical bytes; the first one stores.
    std::lock_guard lk(store_mu_[k]);
    auto& stored = rows_[k][seq].e.value;
    if (stored.empty()) stored = v;
  }
  rp.value = std::move(v);
  rp.remote_pos = QueryReply::kNoRemote;
}

std::size_t MemoDb::entries(OpKind kind) const {
  return index_[size_t(int(kind))]->size();
}

std::size_t MemoDb::total_entries() const {
  std::size_t n = 0;
  for (const auto& idx : index_) n += idx->size();
  return n;
}

}  // namespace mlr::memo
