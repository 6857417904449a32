#include "net/tier_client.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlr::net {

namespace {

/// Per-verb client counters + latency: frames and payload bytes out/in, one
/// wall-clock latency histogram per verb.
struct VerbMetrics {
  obs::Counter& frames;
  obs::Counter& bytes_out;
  obs::Counter& bytes_in;
  obs::Histogram& latency_s;
};

VerbMetrics make_verb_metrics(const char* side, FrameType t) {
  const std::string base =
      std::string("net.") + side + "." + frame_type_name(t);
  auto& m = obs::metrics();
  return {m.counter(base + ".frames"), m.counter(base + ".bytes_out"),
          m.counter(base + ".bytes_in"),
          m.histogram(base + ".latency_s", obs::latency_edges_s())};
}

VerbMetrics& client_verb_metrics(FrameType t) {
  static VerbMetrics m[] = {
      make_verb_metrics("client", FrameType::Get),
      make_verb_metrics("client", FrameType::GetBatch),
      make_verb_metrics("client", FrameType::Put),
      make_verb_metrics("client", FrameType::SnapshotExport),
      make_verb_metrics("client", FrameType::SnapshotImport),
      make_verb_metrics("client", FrameType::Error),
  };
  const int idx = std::clamp(int(t) - 1, 0, 5);
  return m[idx];
}

/// Trace span / async-pair names, one static literal per verb.
const char* verb_span_name(FrameType t) {
  switch (t) {
    case FrameType::Get: return "net.get";
    case FrameType::GetBatch: return "net.get_batch";
    case FrameType::Put: return "net.put";
    case FrameType::SnapshotExport: return "net.snapshot_export";
    case FrameType::SnapshotImport: return "net.snapshot_import";
    case FrameType::Error: return "net.error";
  }
  return "net.?";
}

}  // namespace

TierClient::TierClient(std::unique_ptr<Transport> transport, int shard_count,
                       double timeout_s, RetrySpec retry)
    : transport_(std::move(transport)),
      shard_count_(shard_count),
      timeout_s_(timeout_s),
      retry_(retry),
      shard_entries_(std::size_t(shard_count), 0),
      shard_bytes_(std::size_t(shard_count), 0.0),
      queued_(std::size_t(shard_count)) {
  MLR_CHECK(transport_ != nullptr && shard_count >= 1 && timeout_s > 0.0);
  // GET/GET_BATCH ride channel = shard; the transport must cover them all.
  MLR_CHECK(transport_->channels() >= shard_count);
  transport_->set_retry(retry_);
}

void TierClient::reconnect(std::unique_ptr<Transport> transport) {
  MLR_CHECK(transport != nullptr && transport->channels() >= shard_count_);
  transport->set_retry(retry_);
  transport_ = std::move(transport);
  // A client-level reconnect (fresh transport after the old one's budget
  // died) counts on the same ladder observable as an in-transport reopen.
  obs::metrics().counter("net.client.reconnects").add();
  // The lazy fetch state is keyed by request ids of the dead table; reset
  // it (positions re-request against the new carrier as needed). The stats
  // mirror survives — it models the tier, not the carrier.
  std::lock_guard lk(vmu_);
  vstate_.clear();
  batch_pos_.clear();
  batch_claimed_.clear();
  batch_retry_.clear();
  for (auto& q : queued_) q.clear();
}

std::vector<std::byte> TierClient::call(int channel, FrameType type,
                                        std::span<const std::byte> payload) {
  auto& table = transport_->table();
  const u64 id = table.next_id();
  table.expect(id);
  auto& vm = client_verb_metrics(type);
  vm.frames.add();
  vm.bytes_out.add(kHeaderBytes + payload.size());
  const WallTimer wt;
  MLR_TRACE_SPAN(verb_span_name(type), "net", id);
  transport_->send(channel, type, id, payload);
  auto reply = table.wait(id, timeout_s_);
  vm.latency_s.observe(wt.seconds());
  vm.bytes_in.add(kHeaderBytes + reply.size());
  return reply;
}

void TierClient::adopt_stats(WireReader& r) {
  size_ = std::size_t(r.u64());
  const auto n = r.u32();
  if (int(n) != shard_count_)
    throw NetError("tier stats shard count " + std::to_string(n) +
                   " != configured " + std::to_string(shard_count_));
  for (u32 s = 0; s < n; ++s) {
    shard_entries_[s] = std::size_t(r.u64());
    shard_bytes_[s] = r.f64();
  }
  total_bytes_ = r.f64();
}

u64 TierClient::begin_seed() {
  auto& table = transport_->table();
  const u64 id = table.next_id();
  table.expect(id);
  WireWriter w;
  w.u8(0);  // index-only: values arrive lazily via GET_BATCH
  auto& vm = client_verb_metrics(FrameType::SnapshotExport);
  vm.frames.add();
  vm.bytes_out.add(kHeaderBytes + w.size());
  obs::trace_async_begin("net.snapshot_export", "net", id);
  transport_->send(0, FrameType::SnapshotExport, id, w.data());
  return id;
}

serve::TierSeed TierClient::end_seed(
    u64 ticket, std::vector<memo::MemoDb::Entry>& storage) {
  const WallTimer wt;
  const auto payload = transport_->table().wait(ticket, timeout_s_);
  obs::trace_async_end("net.snapshot_export", "net", ticket);
  auto& vm = client_verb_metrics(FrameType::SnapshotExport);
  vm.latency_s.observe(wt.seconds());
  vm.bytes_in.add(kHeaderBytes + payload.size());
  WireReader r(payload);
  adopt_stats(r);
  storage = decode_entries(r);
  if (storage.size() != size_)
    throw NetError("snapshot export size disagrees with its stats block");
  pos_shard_.resize(storage.size());
  for (std::size_t i = 0; i < storage.size(); ++i)
    pos_shard_[i] = memo::entry_shard(storage[i], shard_count_);
  {
    // New session, new snapshot positions: prior fetch state is stale.
    std::lock_guard lk(vmu_);
    vstate_.clear();
    batch_pos_.clear();
    batch_claimed_.clear();
    batch_retry_.clear();
    for (auto& q : queued_) q.clear();
  }
  return {&storage, this};
}

serve::PromotionOutcome TierClient::fold(
    std::vector<memo::MemoDb::Entry> entries) {
  WireWriter w;
  encode_entries(w, entries, /*with_values=*/true);
  const auto payload = call(0, FrameType::Put, w.data());
  WireReader r(payload);
  serve::PromotionOutcome out;
  out.promoted = r.u64();
  out.dedup_drops = r.u64();
  out.cap_drops = r.u64();
  adopt_stats(r);
  return out;
}

void TierClient::request(u64 pos) {
  MLR_CHECK(std::size_t(pos) < pos_shard_.size());
  std::lock_guard lk(vmu_);
  if (vstate_.count(pos) != 0) return;  // queued, in flight, or already here
  vstate_[pos];                         // Queued
  queued_[std::size_t(pos_shard_[std::size_t(pos)])].push_back(pos);
}

void TierClient::flush() {
  auto& table = transport_->table();
  std::lock_guard lk(vmu_);
  for (int shard = 0; shard < shard_count_; ++shard) {
    auto& q = queued_[std::size_t(shard)];
    if (q.empty()) continue;
    // Sort the positions: request() call order depends on pool-worker
    // interleaving, the frame on the wire must not.
    std::sort(q.begin(), q.end());
    const u64 id = table.next_id();
    table.expect(id);
    WireWriter w;
    w.u32(u32(q.size()));
    for (const u64 pos : q) {
      w.u64(pos);
      auto& vs = vstate_[pos];
      vs.state = VState::Pending;
      vs.batch_id = id;
    }
    batch_pos_[id] = std::move(q);
    q.clear();
    auto& vm = client_verb_metrics(FrameType::GetBatch);
    vm.frames.add();
    vm.bytes_out.add(kHeaderBytes + w.size());
    // Async pair: the begin here and the end at the harvesting fetch() put
    // the in-flight round trip on the trace, overlapping whatever local
    // compute runs meanwhile (stage.miss_fft on a healthy overlap).
    obs::trace_async_begin("net.get_batch", "net", id);
    transport_->send(shard, FrameType::GetBatch, id, w.data());
  }
}

std::vector<cfloat> TierClient::fetch(u64 pos) {
  std::unique_lock lk(vmu_);
  auto it = vstate_.find(pos);
  if (it == vstate_.end()) {
    // Never batched (e.g. a straggler materialize after state reset): one
    // synchronous GET.
    MLR_CHECK(std::size_t(pos) < pos_shard_.size());
    const int shard = pos_shard_[std::size_t(pos)];
    lk.unlock();
    WireWriter w;
    w.u64(pos);
    const auto payload = call(shard, FrameType::Get, w.data());
    WireReader r(payload);
    const auto n = r.u32();
    std::vector<cfloat> v;
    v.reserve(n);
    for (u32 i = 0; i < n; ++i) {
      const float re = r.f32();
      const float im = r.f32();
      v.emplace_back(re, im);
    }
    return v;
  }
  if (it->second.state == VState::Queued) {
    // fetch before flush (barriered engine path): ship this shard's queue
    // now so the wait below has a frame to wait on.
    lk.unlock();
    flush();
    lk.lock();
    it = vstate_.find(pos);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(timeout_s_));
  for (;;) {
    if (it->second.state == VState::Ready) return it->second.value;
    if (it->second.state == VState::Failed)
      throw NetError(it->second.error);
    const u64 batch = it->second.batch_id;
    if (!batch_claimed_[batch]) {
      // First fetcher of this batch harvests its reply for everyone.
      batch_claimed_[batch] = true;
      lk.unlock();
      std::vector<std::byte> payload;
      std::string err;
      bool retryable = false;
      const WallTimer wt;
      try {
        payload = transport_->table().wait(batch, timeout_s_);
      } catch (const RetryableError& e) {
        err = e.what();
        retryable = true;
      } catch (const NetError& e) {
        err = e.what();
      }
      obs::trace_async_end("net.get_batch", "net", batch);
      auto& vm = client_verb_metrics(FrameType::GetBatch);
      vm.latency_s.observe(wt.seconds());
      vm.bytes_in.add(kHeaderBytes + payload.size());
      lk.lock();
      if (retryable && batch_retry_[batch] < retry_.retry_max) {
        // One slow or lost batch must not break the table: re-issue JUST
        // this batch under a fresh id.
        // The positions are already sorted — the retry frame is canonical.
        auto& table = transport_->table();
        const u64 fresh = table.next_id();
        table.expect(fresh);
        const int tried = batch_retry_[batch];
        auto positions = std::move(batch_pos_[batch]);
        batch_pos_.erase(batch);
        batch_claimed_.erase(batch);
        batch_retry_.erase(batch);
        WireWriter w;
        w.u32(u32(positions.size()));
        for (const u64 p : positions) {
          w.u64(p);
          auto& vs = vstate_[p];
          vs.state = VState::Pending;
          vs.batch_id = fresh;
        }
        const int shard = pos_shard_[std::size_t(positions.front())];
        batch_retry_[fresh] = tried + 1;
        batch_pos_[fresh] = std::move(positions);
        obs::metrics().counter("net.table.retries").add();
        vm.frames.add();
        vm.bytes_out.add(kHeaderBytes + w.size());
        obs::trace_async_begin("net.get_batch", "net", fresh);
        try {
          transport_->send(shard, FrameType::GetBatch, fresh, w.data());
        } catch (const NetError& e) {
          // Reconnect budget exhausted mid-retry: fail this batch's
          // positions so no fetcher waits forever, then surface the error.
          for (const u64 p : batch_pos_[fresh]) {
            auto& vs = vstate_[p];
            vs.state = VState::Failed;
            vs.error = e.what();
          }
          vcv_.notify_all();
          throw;
        }
        vcv_.notify_all();
        it = vstate_.find(pos);
        continue;  // this thread claims the fresh batch next iteration
      }
      if (err.empty()) {
        try {
          WireReader r(payload);
          const auto n = r.u32();
          for (u32 i = 0; i < n; ++i) {
            const u64 p = r.u64();
            const auto cf = r.u32();
            std::vector<cfloat> v;
            v.reserve(cf);
            for (u32 c = 0; c < cf; ++c) {
              const float re = r.f32();
              const float im = r.f32();
              v.emplace_back(re, im);
            }
            auto vit = vstate_.find(p);
            if (vit == vstate_.end() || vit->second.batch_id != batch)
              throw WireError("GET_BATCH reply names an unrequested position");
            vit->second.state = VState::Ready;
            vit->second.value = std::move(v);
          }
        } catch (const WireError& e) {
          err = std::string("bad GET_BATCH reply: ") + e.what();
        }
      }
      // Anything of this batch not published above (reply failed, or the
      // reply skipped it) fails — a fetcher must never wait forever.
      for (const u64 p : batch_pos_[batch]) {
        auto& vs = vstate_[p];
        if (vs.state == VState::Pending) {
          vs.state = VState::Failed;
          vs.error = err.empty() ? "position missing from GET_BATCH reply"
                                 : err;
        }
      }
      vcv_.notify_all();
      it = vstate_.find(pos);
      continue;
    }
    if (vcv_.wait_until(lk, deadline) == std::cv_status::timeout)
      // Only this fetch gives up; the harvester (and the table) may still
      // be making progress.
      throw NetError("GET_BATCH fetch timed out");
    it = vstate_.find(pos);
  }
}

}  // namespace mlr::net
