#include "net/tier_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "net/request_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlr::net {

namespace {

/// Per-verb server-side counters + handle latency.
struct ServerVerbMetrics {
  obs::Counter& frames;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Histogram& handle_s;
};

ServerVerbMetrics make_server_verb(FrameType t) {
  const std::string base = std::string("net.server.") + frame_type_name(t);
  auto& m = obs::metrics();
  return {m.counter(base + ".frames"), m.counter(base + ".bytes_in"),
          m.counter(base + ".bytes_out"),
          m.histogram(base + ".handle_s", obs::latency_edges_s())};
}

ServerVerbMetrics& server_verb_metrics(FrameType t) {
  static ServerVerbMetrics m[] = {
      make_server_verb(FrameType::Get),
      make_server_verb(FrameType::GetBatch),
      make_server_verb(FrameType::Put),
      make_server_verb(FrameType::SnapshotExport),
      make_server_verb(FrameType::SnapshotImport),
      make_server_verb(FrameType::Error),
  };
  const int idx = std::clamp(int(t) - 1, 0, 5);
  return m[idx];
}

/// Stats block appended to PUT / SNAPSHOT_EXPORT / SNAPSHOT_IMPORT replies:
/// the tier occupancy a remote client mirrors, which the service charges
/// its fabric from. Doubles travel as IEEE-754 bits, so the mirror is
/// bit-exact.
void encode_tier_stats(WireWriter& w, const serve::SharedTier& tier) {
  w.u64(tier.size());
  w.u32(u32(tier.shard_count()));
  for (int s = 0; s < tier.shard_count(); ++s) {
    w.u64(tier.shard_entries(s));
    w.f64(tier.shard_bytes(s));
  }
  w.f64(tier.total_bytes());
}

bool read_full(int fd, std::byte* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const auto r = ::read(fd, buf + got, n - got);
    if (r <= 0) return false;
    got += std::size_t(r);
  }
  return true;
}

bool write_full(int fd, const std::byte* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    // MSG_NOSIGNAL: a client that died mid-reply must surface as a write
    // error on this connection, not a process-wide SIGPIPE.
    const auto r = ::send(fd, buf + put, n - put, MSG_NOSIGNAL);
    if (r <= 0) return false;
    put += std::size_t(r);
  }
  return true;
}

}  // namespace

TierServer::TierServer(serve::SharedTierConfig cfg) : tier_(cfg) {}

TierServer::~TierServer() { stop(); }

std::vector<std::byte> TierServer::handle(FrameType type,
                                          std::span<const std::byte> payload) {
  std::lock_guard lk(mu_);
  WireReader r(payload);
  WireWriter w;
  switch (type) {
    case FrameType::Get: {
      const u64 pos = r.u64();
      if (pos >= tier_.size())
        throw WireError("GET position " + std::to_string(pos) +
                        " beyond tier size " + std::to_string(tier_.size()));
      const auto& v = tier_.snapshot()[std::size_t(pos)].value;
      w.u32(u32(v.size()));
      for (const auto& c : v) {
        w.f32(c.real());
        w.f32(c.imag());
      }
      break;
    }
    case FrameType::GetBatch: {
      const auto n = r.u32();
      w.u32(n);
      for (u32 i = 0; i < n; ++i) {
        const u64 pos = r.u64();
        if (pos >= tier_.size())
          throw WireError("GET_BATCH position " + std::to_string(pos) +
                          " beyond tier size " +
                          std::to_string(tier_.size()));
        const auto& v = tier_.snapshot()[std::size_t(pos)].value;
        w.u64(pos);
        w.u32(u32(v.size()));
        for (const auto& c : v) {
          w.f32(c.real());
          w.f32(c.imag());
        }
      }
      break;
    }
    case FrameType::Put: {
      auto entries = decode_entries(r);
      const auto out = tier_.fold(std::move(entries));
      w.u64(out.promoted);
      w.u64(out.dedup_drops);
      w.u64(out.cap_drops);
      encode_tier_stats(w, tier_);
      break;
    }
    case FrameType::SnapshotExport: {
      const bool with_values = r.u8() != 0;
      encode_tier_stats(w, tier_);
      encode_entries(w, tier_.snapshot(), with_values);
      break;
    }
    case FrameType::SnapshotImport: {
      // Decode fully before applying: a truncated frame throws here and the
      // tier is untouched — a torn import is impossible.
      auto entries = decode_entries(r);
      tier_.import_snapshot(std::move(entries));
      w.u64(tier_.size());
      encode_tier_stats(w, tier_);
      break;
    }
    case FrameType::Error:
      throw WireError("ERROR is reply-only");
  }
  return w.take();
}

std::vector<std::byte> TierServer::handle_frame(
    std::span<const std::byte> frame) {
  // An unparseable header means the byte stream itself is unusable — throw
  // to the caller (which drops the connection). A request that parses but
  // fails to execute answers with an Error frame and the stream stays good.
  const auto h = decode_header(frame);
  if (h.is_reply()) throw WireError("received a reply frame as a request");
  if (frame.size() != kHeaderBytes + h.payload_bytes)
    throw WireError("frame length disagrees with header payload_bytes");
  const auto payload = frame.subspan(kHeaderBytes);
  auto& vm = server_verb_metrics(h.type);
  vm.frames.add();
  vm.bytes_in.add(frame.size());
  const WallTimer wt;
  MLR_TRACE_SPAN("net.serve", "net", h.request_id);
  try {
    const auto reply = handle(h.type, payload);
    auto out = encode_frame(h.type, kFlagReply, h.request_id, reply);
    vm.handle_s.observe(wt.seconds());
    vm.bytes_out.add(out.size());
    return out;
  } catch (const std::exception& e) {
    WireWriter w;
    encode_error(w, {/*code=*/2, e.what()});
    auto out =
        encode_frame(FrameType::Error, kFlagReply, h.request_id, w.data());
    vm.handle_s.observe(wt.seconds());
    vm.bytes_out.add(out.size());
    server_verb_metrics(FrameType::Error).frames.add();
    return out;
  }
}

std::uint16_t TierServer::listen_and_serve(const std::string& host,
                                           std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw NetError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError("listen address is not a valid IPv4 literal: " + host);
  }
  addr.sin_port = htons(port);  // 0 = ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError("bind/listen on " + host + ":" + std::to_string(port) +
                   " failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  acceptor_ = std::thread([this] { accept_loop(); });
  return ntohs(addr.sin_port);
}

void TierServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // listen socket closed by stop()
    if (stopping_.load(std::memory_order_acquire)) {
      // Raced with stop(): the connection landed before the listen socket
      // closed. Refuse it rather than spawn a handler stop() already swept.
      ::close(fd);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard lk(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void TierServer::serve_connection(int fd) {
  std::vector<std::byte> frame;
  for (;;) {
    frame.resize(kHeaderBytes);
    if (!read_full(fd, frame.data(), kHeaderBytes)) break;
    std::vector<std::byte> reply;
    try {
      // decode_header enforces kMaxFramePayload, so the resize below can
      // neither wrap kHeaderBytes + payload_bytes nor be driven to an
      // absurd size by a hostile header.
      const auto h = decode_header(frame);
      frame.resize(kHeaderBytes + h.payload_bytes);
      if (!read_full(fd, frame.data() + kHeaderBytes, h.payload_bytes)) break;
      reply = handle_frame(frame);
    } catch (const std::exception&) {
      // Desynchronized stream, reply-as-request, or allocation failure:
      // drop this connection, never the process.
      break;
    }
    if (!write_full(fd, reply.data(), reply.size())) break;
  }
  ::shutdown(fd, SHUT_RDWR);
}

void TierServer::stop() {
  if (stopping_.exchange(true)) {
    // Second call (destructor after explicit stop): nothing left to do.
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    std::lock_guard lk(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  // After the acceptor exited no new connections appear — but it may have
  // registered one between the shutdown pass above and observing the closed
  // listen socket. Shut every fd down again (idempotent) so no handler
  // thread can sit in read_full forever and block the joins below.
  std::vector<std::thread> threads;
  std::vector<int> fds;
  {
    std::lock_guard lk(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
    fds.swap(conn_fds_);
  }
  for (auto& t : threads) t.join();
  for (const int fd : fds) ::close(fd);
  listen_fd_ = -1;
}

}  // namespace mlr::net
