#include "memo/memo_db.hpp"

#include <algorithm>
#include <cmath>

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

  // 2) Value fetch + τ gate per request. Pure reads of the value store and
  //    the norm/probe maps — no insertion runs while a round scores.
  auto gate_one = [&](i64 ii) {
    const auto i = size_t(ii);
    const auto& rq = reqs[i];
    auto& rp = replies[i];
    rp = QueryReply{};
    if (!nn[i].has_value()) return;
    // Re-fetching the stored key via id is not needed: IVF gives distance;
    // we accept by cosine, which requires the stored key — the value blob
    // stores key+value together.
    auto blob = values_.get(nn[i]->id);
    if (!blob.has_value()) return;
    auto stored = kvstore::from_blob(*blob);
    // Layout: first ceil(key_dim/2) cfloats hold the key (2 floats each).
    const std::size_t key_cf = (size_t(cfg_.key_dim) + 1) / 2;
    // A remote-seeded entry stores a key-only blob; its full value length
    // (and its fetch address — the snapshot position) live in the per-kind
    // seed tables. Hit decisions need only the length, so scoring is
    // bit-identical whether the payload is local or still on the tier.
    std::size_t vlen = stored.size() - key_cf;
    u64 remote_pos = QueryReply::kNoRemote;
    if (vlen == 0 && fetcher_ != nullptr) {
      const auto k2 = size_t(int(rq.kind));
      const u64 seq = nn[i]->id & kSeqMask;
      if (seq < seed_vlen_[k2].size() && seed_vlen_[k2][size_t(seq)] > 0) {
        vlen = seed_vlen_[k2][size_t(seq)];
        remote_pos = seed_pos_[k2][size_t(seq)];
      }
    }
    if (rq.value_size != 0 && vlen != rq.value_size)
      return;  // shape mismatch: not a valid answer for this chunk
    std::vector<float> stored_key(static_cast<size_t>(cfg_.key_dim));
    for (i64 d = 0; d < cfg_.key_dim; ++d) {
      const auto c = stored[size_t(d / 2)];
      stored_key[size_t(d)] = (d % 2 == 0) ? c.real() : c.imag();
    }
    const auto& norms = norms_[size_t(int(rq.kind))];
    const auto& probes = probes_[size_t(int(rq.kind))];
    const auto nit = norms.find(nn[i]->id);
    const double ndb = nit != norms.end() ? nit->second : rq.norm;
    const double tau = rq.tau > 0.0 ? rq.tau : cfg_.tau;
    double cs;
    const auto pit = probes.find(nn[i]->id);
    if (cfg_.oracle_similarity && !rq.probe.empty() && pit != probes.end() &&
        pit->second.size() == rq.probe.size()) {
      // Oracle: true cosine of the pooled input planes (Eq. 3 computed on
      // the chunks the keys stand for).
      cs = cosine_similarity<cfloat>(rq.probe, pit->second);
      // Scale gate: cosine is magnitude-blind.
      const double lo = std::min(rq.norm, ndb), hi = std::max(rq.norm, ndb);
      if (hi > 0 && lo / hi <= tau) cs = -1.0;
    } else {
      // Encoder proxy: key cosine AND the chunk-cosine estimate from the
      // distance-preserving embedding must both clear τ.
      cs = std::min(key_cosine(rq.key, stored_key),
                    estimated_chunk_cosine(rq.key, stored_key, rq.norm, ndb));
    }
    if (cs > tau) {
      rp.hit = true;
      rp.match_id = nn[i]->id;
      rp.cosine = cs;
      rp.value_cf = vlen;
      if (remote_pos != QueryReply::kNoRemote) {
        // Payload still on the tier: note interest now (the round's flush
        // below ships one coalesced GET_BATCH per shard) and let the engine
        // harvest with materialize() once its miss FFTs are in flight.
        rp.remote_pos = remote_pos;
        fetcher_->request(remote_pos);
      } else {
        rp.value.assign(stored.begin() + i64(key_cf), stored.end());
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
  // Asynchronous insertions complete before the next round of queries (they
  // overlap the intervening iteration's compute).
  values_.drain();
  score_requests(reqs, replies, pool);
  schedule_replies(replies, ready);
  return replies;
}

u64 MemoDb::store_entry(OpKind kind, std::span<const float> key,
                        std::span<const cfloat> value, double norm,
                        std::vector<cfloat> probe, bool async) {
  MLR_CHECK(i64(key.size()) == cfg_.key_dim);
  const auto k = size_t(int(kind));
  // Per-kind lock: stores within a kind serialize, so the kind's sequence
  // numbers follow its insertion order.
  std::lock_guard store_lk(store_mu_[k]);
  const u64 seq = next_seq_[k].fetch_add(1, std::memory_order_acq_rel);
  const u64 id = (u64(kind) << 56) | seq;
  index_[k]->add(id, key);
  norms_[k][id] = norm;
  if (!probe.empty()) probes_[k][id] = std::move(probe);
  // Pack key + value into one blob (key padded into cfloat pairs).
  const std::size_t key_cf = (key.size() + 1) / 2;
  std::vector<cfloat> packed(key_cf + value.size());
  for (std::size_t d = 0; d < key.size(); ++d) {
    auto& c = packed[d / 2];
    c = (d % 2 == 0) ? cfloat(key[d], c.imag()) : cfloat(c.real(), key[d]);
  }
  std::copy(value.begin(), value.end(), packed.begin() + i64(key_cf));
  if (async) {
    values_.put_async(id, kvstore::to_blob(packed));
  } else {
    values_.put(id, kvstore::to_blob(packed));
  }
  return id;
}

void MemoDb::insert(OpKind kind, std::span<const float> key,
                    std::span<const cfloat> value, sim::VTime ready,
                    double norm, std::vector<cfloat> probe) {
  (void)store_entry(kind, key, value, norm, std::move(probe), /*async=*/true);
  // Virtual-time: the store travels over the link and lands in DRAM, but
  // asynchronously — nothing waits on the returned completion time. DRAM
  // growth is accounted in insertion order (not from values_.bytes(), which
  // trails the async writer), so the footprint curve is deterministic.
  const std::size_t key_cf = (key.size() + 1) / 2;
  const double blob_bytes = double(key_cf + value.size()) * sizeof(cfloat);
  const double wire_bytes = blob_bytes * cfg_.value_scale;
  const sim::VTime arrived = net_->transfer(ready, wire_bytes);
  (void)node_->serve_value(arrived, wire_bytes);
  node_->dram().alloc("memo_values", accounted_store_bytes_ + wire_bytes,
                      arrived);
  accounted_store_bytes_ += blob_bytes;
}

std::vector<MemoDb::Entry> MemoDb::export_entries(bool session_only) {
  // A remote-seeded session may hold key-only blobs for payloads it never
  // fetched — a full export would silently produce empty values.
  MLR_CHECK_MSG(session_only || fetcher_ == nullptr,
                "full export of a remote-seeded session");
  values_.drain();  // pending async insertions become part of the snapshot
  // Canonical kind-major order: each kind's entries in its own insertion
  // order.
  std::scoped_lock store_lk(store_mu_[0], store_mu_[1], store_mu_[2],
                            store_mu_[3]);
  static_assert(kNumOpKinds == 4);
  std::vector<Entry> out;
  for (int k = 0; k < kNumOpKinds; ++k) {
    const OpKind kind = OpKind(k);
    const u64 from_seq = session_only ? shared_boundary_[size_t(k)] : 0;
    const u64 end_seq = next_seq_[size_t(k)].load(std::memory_order_acquire);
    for (u64 seq = from_seq; seq < end_seq; ++seq) {
      const u64 id = (u64(kind) << 56) | seq;
      auto blob = values_.get(id);
      MLR_CHECK(blob.has_value());
      auto stored = kvstore::from_blob(*blob);
      const std::size_t key_cf = (size_t(cfg_.key_dim) + 1) / 2;
      Entry e;
      e.kind = kind;
      e.key.resize(size_t(cfg_.key_dim));
      for (i64 d = 0; d < cfg_.key_dim; ++d) {
        const auto c = stored[size_t(d / 2)];
        e.key[size_t(d)] = (d % 2 == 0) ? c.real() : c.imag();
      }
      e.value.assign(stored.begin() + i64(key_cf), stored.end());
      e.value_cf = e.value.size();
      const auto& norms = norms_[size_t(k)];
      const auto& probes = probes_[size_t(k)];
      const auto nit = norms.find(id);
      e.norm = nit != norms.end() ? nit->second : 1.0;
      const auto pit = probes.find(id);
      if (pit != probes.end()) e.probe = pit->second;
      out.push_back(std::move(e));
    }
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
    const auto k = size_t(int(e.kind));
    const std::size_t vcf = e.value.empty() ? e.value_cf : e.value.size();
    const bool remote = e.value.empty() && e.value_cf > 0;
    MLR_CHECK_MSG(!remote || values != nullptr,
                  "index-only seed entry without a value fetcher");
    if (values != nullptr) {
      // Per-kind seq the entry is about to get == the kind's current count.
      const u64 seq = next_seq_[k].load(std::memory_order_acquire);
      seed_vlen_[k].resize(size_t(seq) + 1, 0);
      seed_pos_[k].resize(size_t(seq) + 1, 0);
      if (remote) {
        seed_vlen_[k][size_t(seq)] = u32(vcf);
        seed_pos_[k][size_t(seq)] = u64(i);
      }
    }
    (void)store_entry(e.kind, e.key, e.value, e.norm, e.probe,
                      /*async=*/false);
    logical_bytes += double(key_cf + vcf) * sizeof(cfloat);
  }
  for (int k = 0; k < kNumOpKinds; ++k)
    shared_boundary_[size_t(k)] = next_seq_[size_t(k)].load();
  // Seed blobs are (logically) resident before the session runs; account
  // them so the first insertion charge continues from the real footprint.
  // The *logical* footprint — key + full value per entry — is what the
  // paper-scale DRAM curve means, and for an index-only seed it is what the
  // resident bytes become once payloads land; using it keeps the accounting
  // identical to a value-carrying seed of the same snapshot.
  accounted_store_bytes_ = logical_bytes;
}

void MemoDb::restore_session_entries(std::span<const Entry> entries) {
  for (int k = 0; k < kNumOpKinds; ++k)
    MLR_CHECK_MSG(
        next_seq_[size_t(k)].load() == shared_boundary_[size_t(k)],
        "restore_session_entries must run on a seed-only database");
  const std::size_t key_cf = (size_t(cfg_.key_dim) + 1) / 2;
  for (const auto& e : entries) {
    // Own entries always carry their payload inline: the session stored
    // them locally even when its *seed* was index-only.
    MLR_CHECK(!e.value.empty() || e.value_cf == 0);
    (void)store_entry(e.kind, e.key, e.value, e.norm, e.probe,
                      /*async=*/false);
    accounted_store_bytes_ +=
        double(key_cf + e.value.size()) * sizeof(cfloat);
  }
}

void MemoDb::materialize(QueryReply& rp) {
  if (!rp.hit || rp.remote_pos == QueryReply::kNoRemote) return;
  const std::size_t key_cf = (size_t(cfg_.key_dim) + 1) / 2;
  // Another harvest of the same entry may already have cached the payload.
  auto blob = values_.get(rp.match_id);
  MLR_CHECK(blob.has_value());
  auto stored = kvstore::from_blob(*blob);
  if (stored.size() > key_cf) {
    rp.value.assign(stored.begin() + i64(key_cf), stored.end());
  } else {
    MLR_CHECK(fetcher_ != nullptr);
    auto v = fetcher_->fetch(rp.remote_pos);
    MLR_CHECK_MSG(v.size() == rp.value_cf,
                  "fetched payload length disagrees with the seed index");
    // Upgrade the key-only blob so later rounds (and the dedup/export
    // paths) serve this entry locally. Concurrent upgrades write identical
    // bytes; KvStore::put is atomic per key.
    stored.insert(stored.end(), v.begin(), v.end());
    values_.put(rp.match_id, kvstore::to_blob(stored));
    rp.value = std::move(v);
  }
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
