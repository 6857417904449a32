#include "net/request_table.hpp"

#include <chrono>

#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace mlr::net {

namespace {

struct TableMetrics {
  obs::Counter& requests;
  obs::Counter& timeouts;
  obs::Counter& stale_replies;
  obs::Gauge& in_flight_peak;
  obs::Histogram& wait_s;
  static TableMetrics& get() {
    static TableMetrics m{
        obs::metrics().counter("net.table.requests"),
        obs::metrics().counter("net.table.timeouts"),
        obs::metrics().counter("net.table.stale_replies"),
        obs::metrics().gauge("net.table.in_flight_peak"),
        obs::metrics().histogram("net.table.wait_s", obs::latency_edges_s()),
    };
    return m;
  }
};

}  // namespace

u64 RequestTable::next_id() {
  std::lock_guard lk(mu_);
  return next_++;
}

void RequestTable::expect(u64 id) {
  std::lock_guard lk(mu_);
  if (broken_) throw NetError(sticky_);
  slots_.emplace(id, Slot{});
  auto& tm = TableMetrics::get();
  tm.requests.add();
  tm.in_flight_peak.raise(double(slots_.size()));
}

void RequestTable::complete(u64 id, std::vector<std::byte> payload) {
  std::unique_lock lk(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end() && (id == 0 || id >= next_)) {
    // A reply for a request never issued: the peer is desynchronized, so
    // nothing received from here on can be trusted.
    lk.unlock();
    fail_all("unsolicited reply for request id " + std::to_string(id));
    return;
  }
  if (it == slots_.end() || it->second.done) {
    // A late reply to a timed-out or released slot, or a replay's duplicate
    // racing the original: keep the first outcome, count it, move on.
    TableMetrics::get().stale_replies.add();
    return;
  }
  it->second.done = true;
  it->second.payload = std::move(payload);
  cv_.notify_all();
}

void RequestTable::fail(u64 id, const std::string& error, bool retryable) {
  std::lock_guard lk(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end() || it->second.done) return;
  it->second.done = it->second.failed = true;
  it->second.retryable = retryable;
  it->second.error = error;
  cv_.notify_all();
}

void RequestTable::fail_all(const std::string& error) {
  std::lock_guard lk(mu_);
  if (!broken_) {
    broken_ = true;
    sticky_ = error;
  }
  for (auto& [k, s] : slots_) {
    if (s.done) continue;
    s.done = s.failed = true;
    s.retryable = false;
    s.error = sticky_;
  }
  cv_.notify_all();
}

void RequestTable::forget(u64 id) {
  std::lock_guard lk(mu_);
  slots_.erase(id);
}

std::vector<std::byte> RequestTable::wait(u64 id, double timeout_s) {
  const WallTimer wt;
  std::unique_lock lk(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end())
    throw NetError(broken_ ? sticky_
                           : "wait for unregistered request id " +
                                 std::to_string(id));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (!it->second.done) {
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
        !it->second.done) {
      // Only this slot fails: the reply is late or lost, and a late arrival
      // is dropped as stale by complete(). The verb layer decides whether
      // to re-issue (RetryableError).
      TableMetrics::get().timeouts.add();
      it->second.done = it->second.failed = it->second.retryable = true;
      it->second.error = "request " + std::to_string(id) + " timed out after " +
                         std::to_string(timeout_s) + " s";
      break;
    }
  }
  Slot slot = std::move(it->second);
  slots_.erase(it);
  TableMetrics::get().wait_s.observe(wt.seconds());
  if (slot.failed) {
    if (slot.retryable) throw RetryableError(slot.error);
    throw NetError(slot.error);
  }
  return std::move(slot.payload);
}

bool RequestTable::broken() const {
  std::lock_guard lk(mu_);
  return broken_;
}

std::string RequestTable::error() const {
  std::lock_guard lk(mu_);
  return sticky_;
}

std::size_t RequestTable::in_flight() const {
  std::lock_guard lk(mu_);
  return slots_.size();
}

bool RequestTable::pending(u64 id) const {
  std::lock_guard lk(mu_);
  const auto it = slots_.find(id);
  return it != slots_.end() && !it->second.done;
}

}  // namespace mlr::net
