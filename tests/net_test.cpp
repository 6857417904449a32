// Tests for the net/ remote-memo transport: wire primitives and the
// snapshot codec (including the checked-in golden frame — the wire format
// is a compatibility surface), the in-flight RequestTable's one failure
// contract (out-of-order completion; a timeout fails only its request;
// stale replies are dropped and counted; a never-issued id or fail_all
// breaks the table), the TierClient ↔ TierServer round trip over loopback
// (mirror accounting bit-exact against a direct SharedTier, index-only
// seed + lazy value fetch, one GET_BATCH per shard for a remote-seeded
// engine stage), fault injection on every transport failure mode
// (truncated reply, dropped reply → per-request timeout, reordered
// delivery, torn snapshot import), the reconnect ladder with budgets of 0
// and more, and the real TCP socket backend (round trip, disconnect →
// sticky error, never a hang; restart → reconnect). Environments without
// sockets skip the TCP cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lamino/operators.hpp"
#include "memo/memoized_ops.hpp"
#include "net/request_table.hpp"
#include "net/tier_client.hpp"
#include "net/tier_server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/shared_tier.hpp"

namespace mlr::net {
namespace {

// --- Fixtures ----------------------------------------------------------------

memo::MemoDb::Entry entry(memo::OpKind kind, std::vector<float> key,
                          std::vector<cfloat> value, double norm = 1.0) {
  memo::MemoDb::Entry e;
  e.kind = kind;
  e.key = std::move(key);
  e.norm = norm;
  e.value = std::move(value);
  e.value_cf = e.value.size();
  return e;
}

/// A small, fully deterministic snapshot exercising every codec branch:
/// several kinds, distinct value lengths, a non-unit norm and one entry
/// carrying an oracle probe.
std::vector<memo::MemoDb::Entry> fixture_entries() {
  std::vector<memo::MemoDb::Entry> v;
  v.push_back(entry(memo::OpKind::Fu1D, {1.0f, 0.0f, 0.0f, 0.0f},
                    {{1.0f, -2.0f}, {0.5f, 0.25f}}));
  v.push_back(entry(memo::OpKind::Fu1D, {0.0f, 1.0f, 0.0f, 0.0f},
                    {{-0.125f, 8.0f}, {3.0f, 0.0f}, {0.0f, -1.0f}}, 2.0));
  auto probed = entry(memo::OpKind::Fu2D, {0.0f, 0.0f, 1.0f, 0.0f},
                      {{4.0f, 4.0f}}, 0.5);
  probed.probe = {{0.75f, -0.75f}, {-1.5f, 2.5f}};
  v.push_back(probed);
  return v;
}

serve::SharedTierConfig tier_config(int shards = 2) {
  serve::SharedTierConfig tc;
  tc.shard_count = shards;
  tc.tau_dedup = 0.99;
  tc.key_dim = 4;
  return tc;
}

std::vector<std::byte> import_frame(const std::vector<memo::MemoDb::Entry>& v,
                                    u64 request_id) {
  WireWriter w;
  encode_entries(w, v, /*with_values=*/true);
  return encode_frame(FrameType::SnapshotImport, 0, request_id, w.data());
}

// --- Wire primitives ---------------------------------------------------------

TEST(Wire, PrimitivesRoundTripLittleEndian) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f32(-1.5f);
  w.f64(3.141592653589793);
  // The encoding is explicit LE, not host order: check the first bytes.
  ASSERT_GE(w.size(), 7u);
  EXPECT_EQ(std::to_integer<unsigned>(w.data()[0]), 0xABu);
  EXPECT_EQ(std::to_integer<unsigned>(w.data()[1]), 0x34u);  // u16 low byte
  EXPECT_EQ(std::to_integer<unsigned>(w.data()[2]), 0x12u);
  EXPECT_EQ(std::to_integer<unsigned>(w.data()[3]), 0xEFu);  // u32 low byte
  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f32(), -1.5f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), WireError);  // past the end
}

TEST(Wire, FrameHeaderRoundTripAndValidation) {
  const std::vector<std::byte> payload(5, std::byte{0x7F});
  const auto frame = encode_frame(FrameType::GetBatch, kFlagReply, 42, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + 5);
  const auto h = decode_header(frame);
  EXPECT_EQ(h.magic, kWireMagic);
  EXPECT_EQ(h.version, kWireVersion);
  EXPECT_EQ(h.type, FrameType::GetBatch);
  EXPECT_TRUE(h.is_reply());
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_bytes, 5u);

  // Truncated header / bad magic / wrong version are hard decode errors.
  EXPECT_THROW(decode_header(std::span(frame).first(kHeaderBytes - 1)),
               WireError);
  auto bad = frame;
  bad[0] = std::byte{0x00};
  EXPECT_THROW(decode_header(bad), WireError);
  auto vers = frame;
  vers[4] = std::byte{0xFF};
  EXPECT_THROW(decode_header(vers), WireError);
}

TEST(Wire, HostilePayloadSizeIsRejectedAtHeaderDecode) {
  // A peer-controlled payload_bytes near 2^64 would wrap
  // kHeaderBytes + payload_bytes into a tiny buffer (out-of-bounds write in
  // the frame readers); a merely huge one would bad_alloc. Both must die in
  // decode_header as WireError, before any resize.
  const auto header_with_payload_bytes = [](u64 payload_bytes) {
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u8(std::uint8_t(FrameType::Get));
    w.u8(0);
    w.u64(/*request_id=*/1);
    w.u64(payload_bytes);
    return w.take();
  };
  EXPECT_THROW(decode_header(header_with_payload_bytes(kMaxFramePayload + 1)),
               WireError);
  EXPECT_THROW(
      decode_header(header_with_payload_bytes(~u64{0} - kHeaderBytes + 1)),
      WireError);
  EXPECT_NO_THROW(decode_header(header_with_payload_bytes(kMaxFramePayload)));
}

TEST(Wire, CorruptEntryCountsThrowBeforeAllocating) {
  // Wire-controlled counts (entry count, key/probe/value lengths) must be
  // checked against the bytes actually left in the frame before any
  // reserve/resize — a tiny corrupt frame throws WireError instead of
  // demanding a multi-gigabyte allocation.
  {
    WireWriter w;
    w.u64(~u64{0});  // entry count a 8-byte frame cannot possibly hold
    WireReader r(w.data());
    EXPECT_THROW(decode_entries(r), WireError);
  }
  {
    WireWriter w;
    w.u64(1);
    w.u8(0);             // kind
    w.u32(0xFFFFFFFFu);  // key length beyond the frame
    WireReader r(w.data());
    EXPECT_THROW(decode_entries(r), WireError);
  }
  {
    WireWriter w;
    w.u64(1);
    w.u8(0);             // kind
    w.u32(0);            // key length
    w.f64(1.0);          // norm
    w.u32(0xFFFFFFFFu);  // probe length beyond the frame
    WireReader r(w.data());
    EXPECT_THROW(decode_entries(r), WireError);
  }
  {
    WireWriter w;
    w.u64(1);
    w.u8(0);             // kind
    w.u32(0);            // key length
    w.f64(1.0);          // norm
    w.u32(0);            // probe length
    w.u32(0xFFFFFFFFu);  // value_cf beyond the frame...
    w.u8(1);             // ...with the value payload claimed present
    WireReader r(w.data());
    EXPECT_THROW(decode_entries(r), WireError);
  }
}

TEST(Wire, EntriesRoundTripFullAndIndexOnly) {
  const auto ref = fixture_entries();
  for (const bool with_values : {true, false}) {
    WireWriter w;
    encode_entries(w, ref, with_values);
    WireReader r(w.data());
    const auto out = decode_entries(r);
    EXPECT_TRUE(r.done());
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(int(out[i].kind), int(ref[i].kind));
      EXPECT_EQ(out[i].key, ref[i].key);
      EXPECT_EQ(out[i].norm, ref[i].norm);
      EXPECT_EQ(out[i].probe, ref[i].probe);
      // The full value length always travels; the payload only when asked —
      // the index-only seed form a remote session fetches lazily.
      EXPECT_EQ(out[i].value_cf, ref[i].value.size());
      if (with_values)
        EXPECT_EQ(out[i].value, ref[i].value);
      else
        EXPECT_TRUE(out[i].value.empty());
    }
  }
}

TEST(Wire, ErrorPayloadRoundTrip) {
  WireWriter w;
  encode_error(w, {3, "backend exploded"});
  WireReader r(w.data());
  const auto e = decode_error(r);
  EXPECT_EQ(e.code, 3u);
  EXPECT_EQ(e.message, "backend exploded");
}

TEST(Wire, SnapshotFrameMatchesGoldenBytes) {
  // The wire format is a compatibility surface: the SNAPSHOT_EXPORT reply
  // (stats block + full entry codec) for the fixture tier must reproduce
  // the checked-in golden frame byte for byte. Regenerate deliberately with
  // MLR_WRITE_GOLDEN=1 after an intentional format (version) change.
  TierServer server(tier_config(2));
  server.handle_frame(import_frame(fixture_entries(), 1));
  const auto request = [] {
    WireWriter w;
    w.u8(1);  // with_values
    return encode_frame(FrameType::SnapshotExport, 0, /*request_id=*/7,
                        w.data());
  }();
  const auto reply = server.handle_frame(request);
  ASSERT_GE(reply.size(), kHeaderBytes);
  EXPECT_EQ(decode_header(reply).type, FrameType::SnapshotExport);

  const std::string path =
      std::string(MLR_TEST_DATA_DIR) + "/snapshot_frame.golden";
  if (std::getenv("MLR_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(reply.data()),
              std::streamsize(reply.size()));
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "golden frame regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MLR_WRITE_GOLDEN=1)";
  std::vector<char> golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  ASSERT_EQ(golden.size(), reply.size());
  EXPECT_EQ(0, std::memcmp(golden.data(), reply.data(), reply.size()));

  // And the golden bytes round-trip: decoding them reproduces the fixture.
  WireReader r(std::span<const std::byte>(reply).subspan(kHeaderBytes));
  r.u64();                    // stats: size
  const auto sn = r.u32();    // stats: shard count
  for (u32 s = 0; s < sn; ++s) {
    r.u64();
    r.f64();
  }
  r.f64();                    // stats: total bytes
  const auto out = decode_entries(r);
  const auto ref = fixture_entries();
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(out[i].key, ref[i].key);
    EXPECT_EQ(out[i].value, ref[i].value);
    EXPECT_EQ(out[i].probe, ref[i].probe);
  }
}

// --- RequestTable ------------------------------------------------------------

TEST(RequestTable, CompletesOutOfOrderByRequestId) {
  RequestTable t;
  const u64 a = t.next_id(), b = t.next_id();
  EXPECT_LT(a, b);
  t.expect(a);
  t.expect(b);
  EXPECT_EQ(t.in_flight(), 2u);
  t.complete(b, {std::byte{2}});  // replies arrive in reverse order
  t.complete(a, {std::byte{1}});
  EXPECT_EQ(std::to_integer<int>(t.wait(a, 1.0)[0]), 1);
  EXPECT_EQ(std::to_integer<int>(t.wait(b, 1.0)[0]), 2);
  EXPECT_EQ(t.in_flight(), 0u);
  EXPECT_FALSE(t.broken());
}

TEST(RequestTable, PerRequestFailureIsNotSticky) {
  RequestTable t;
  const u64 a = t.next_id(), b = t.next_id();
  t.expect(a);
  t.expect(b);
  t.fail(a, "server said no");  // an Error reply fails only its own slot
  EXPECT_THROW(t.wait(a, 1.0), NetError);
  EXPECT_FALSE(t.broken());
  t.complete(b, {});
  EXPECT_NO_THROW(t.wait(b, 1.0));
}

TEST(RequestTable, FailAllIsStickyAndFirstErrorWins) {
  RequestTable t;
  const u64 a = t.next_id();
  t.expect(a);
  t.fail_all("connection reset");
  t.fail_all("second fault");  // idempotent: the root cause wins
  EXPECT_TRUE(t.broken());
  EXPECT_NE(t.error().find("connection reset"), std::string::npos);
  EXPECT_THROW(t.wait(a, 1.0), NetError);
  EXPECT_THROW(t.expect(t.next_id()), NetError);  // future requests too
}

TEST(RequestTable, UnsolicitedReplyBreaksTheTable) {
  // A reply for an id never issued (0, one past the last issued id, far
  // beyond it): the peer answered a request we never made, so the stream
  // is desynchronized and the whole table breaks.
  for (const int k : {0, 1, 2}) {
    RequestTable t;
    const u64 a = t.next_id();
    t.expect(a);
    const u64 bad = k == 0 ? 999 : k == 1 ? 0 : a + 1;
    t.complete(bad, {});
    EXPECT_TRUE(t.broken()) << "id " << bad;
    EXPECT_NE(t.error().find("unsolicited reply for request id " +
                             std::to_string(bad)),
              std::string::npos);
    EXPECT_THROW(t.wait(a, 1.0), NetError);
  }
}

// --- TierClient over loopback ------------------------------------------------

TEST(TierClient, MirrorsTierAccountingBitExactly) {
  const auto tc = tier_config(2);
  TierServer server(tc);
  TierClient client(std::make_unique<LoopbackTransport>(&server, 2), 2,
                    /*timeout_s=*/5.0);
  serve::SharedTier direct(tc);  // the in-process reference

  EXPECT_EQ(client.size(), 0u);
  auto batch = fixture_entries();
  const auto remote = client.fold(batch);
  const auto local = direct.fold(std::move(batch));
  EXPECT_EQ(remote.promoted, local.promoted);
  EXPECT_EQ(remote.dedup_drops, local.dedup_drops);
  EXPECT_EQ(remote.cap_drops, local.cap_drops);

  // The stats block carried doubles as IEEE-754 bits: the mirror is
  // bit-exact, so the service's fabric charges cannot tell the two apart.
  ASSERT_EQ(client.size(), direct.size());
  ASSERT_EQ(client.shard_count(), direct.shard_count());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(client.shard_entries(s), direct.shard_entries(s));
    EXPECT_EQ(client.shard_bytes(s), direct.shard_bytes(s));
  }
  EXPECT_EQ(client.total_bytes(), direct.total_bytes());
}

TEST(TierClient, IndexOnlySeedThenLazyValueFetch) {
  const auto tc = tier_config(2);
  TierServer server(tc);
  auto transport = std::make_unique<LoopbackTransport>(&server, 2);
  TierClient client(std::move(transport), 2, /*timeout_s=*/5.0);
  const auto ref = fixture_entries();
  client.fold(ref);

  // begin_seed is non-blocking (the service overlaps the round trip with
  // job setup); end_seed lands the index-only snapshot in caller storage.
  const u64 ticket = client.begin_seed();
  std::vector<memo::MemoDb::Entry> storage;
  const auto seed = client.end_seed(ticket, storage);
  ASSERT_EQ(seed.entries, &storage);
  ASSERT_EQ(seed.values, &client);
  ASSERT_EQ(storage.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(storage[i].value.empty());
    EXPECT_EQ(storage[i].value_cf, ref[i].value.size());
    EXPECT_EQ(storage[i].key, ref[i].key);
  }

  // Batched path: request() + flush() then fetch() — one GET_BATCH per
  // shard; every position lands.
  client.request(0);
  client.request(2);
  client.request(2);  // idempotent
  client.flush();
  EXPECT_EQ(client.fetch(0), server.tier().snapshot()[0].value);
  EXPECT_EQ(client.fetch(2), server.tier().snapshot()[2].value);
  // Unbatched path: a cold fetch() falls back to one synchronous GET.
  EXPECT_EQ(client.fetch(1), server.tier().snapshot()[1].value);
}

// The one wall-clock overlap the stage engine keeps: a remote-seeded stage
// scores every request in ONE round, so its remote hits ride at most one
// GET_BATCH per shard, shipped at the end of scoring and harvested after
// the miss FFTs were issued. Every hit must land its tier payload.
TEST(TierClient, RemoteSeededStageShipsOneGetBatchPerShard) {
  const lamino::Operators ops{lamino::Geometry::cube(12)};
  const auto& g = ops.geometry();
  Array3D<cfloat> u(g.object_shape());
  {
    Rng rng(5);
    for (i64 i = 0; i < u.size(); ++i)
      u.data()[i] = cfloat(float(rng.normal()), float(rng.normal()));
  }
  const auto chunks = lamino::make_chunks(g.n1, 2);
  ASSERT_GE(chunks.size(), 5u);
  // One registry for both sessions: identical inputs encode to identical
  // keys, so the seeded session's ANN search finds the producer's entries.
  auto reg = std::make_shared<encoder::EncoderRegistry>(
      encoder::EncoderConfig{.input_hw = 16, .embed_dim = 16});
  const memo::MemoDbConfig dbc{.key_dim = 16, .tau = 0.92,
                               .ivf = {.nlist = 2, .train_size = 8}};
  const memo::MemoConfig mc{.enable = true, .tau = 0.92, .key_dim = 16,
                            .encoder_hw = 16};
  auto run_stage = [&](memo::MemoDb& db, Array3D<cfloat>& out) {
    sim::Device dev{0};
    memo::MemoizedLamino ml(ops, mc, &dev, &db, reg);
    ThreadPool pool(4);
    ml.set_pool(&pool);
    std::vector<memo::StageChunk> w;
    for (const auto& spec : chunks)
      w.push_back({spec, u.slices(spec.begin, spec.count),
                   out.slices(spec.begin, spec.count)});
    return ml.run_stage(memo::OpKind::Fu1D, w, 0.0).records;
  };

  // Producer session: every chunk misses and is inserted; its entries are
  // promoted to a 2-shard tier.
  Array3D<cfloat> produced(g.u1_shape());
  std::vector<memo::MemoDb::Entry> entries;
  {
    sim::Interconnect net;
    sim::MemoryNode node;
    memo::MemoDb db(dbc, &net, &node);
    (void)run_stage(db, produced);
    entries = db.export_entries();
  }
  auto tc = tier_config(2);
  tc.key_dim = 16;
  TierServer server(tc);
  TierClient client(std::make_unique<LoopbackTransport>(&server, 2), 2,
                    /*timeout_s=*/5.0);
  client.fold(entries);
  ASSERT_EQ(client.size(), entries.size());

  // Consumer session, seeded index-only: every chunk hits a remote entry.
  std::vector<memo::MemoDb::Entry> storage;
  const auto seed = client.end_seed(client.begin_seed(), storage);
  sim::Interconnect net;
  sim::MemoryNode node;
  memo::MemoDb db(dbc, &net, &node);
  db.import_entries(*seed.entries, seed.values);
  auto& frames = obs::metrics().counter("net.client.GET_BATCH.frames");
  const u64 before = frames.value();
  Array3D<cfloat> out(g.u1_shape());
  const auto recs = run_stage(db, out);
  const u64 shipped = frames.value() - before;

  std::size_t hits = 0;
  const auto& tier = server.tier().snapshot();
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (recs[c].outcome != memo::MemoOutcome::DbHit) continue;
    ++hits;
    const auto got = out.slices(chunks[c].begin, chunks[c].count);
    const auto want = produced.slices(chunks[c].begin, chunks[c].count);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "chunk " << c;
    EXPECT_TRUE(std::any_of(tier.begin(), tier.end(), [&](const auto& e) {
      return std::equal(got.begin(), got.end(), e.value.begin(),
                        e.value.end());
    })) << "chunk " << c << " output is not a tier payload";
  }
  EXPECT_GE(hits, 5u);
  EXPECT_GE(shipped, 1u);
  EXPECT_LE(shipped, u64(tc.shard_count));
}

// --- Fault injection ---------------------------------------------------------

TEST(TierClientFaults, TruncatedReplyIsStickyNotTorn) {
  const auto tc = tier_config(1);
  TierServer server(tc);
  auto transport = std::make_unique<LoopbackTransport>(&server, 1);
  auto* lb = transport.get();
  TierClient client(std::move(transport), 1, /*timeout_s=*/1.0);
  client.fold(fixture_entries());
  std::vector<memo::MemoDb::Entry> storage;
  client.end_seed(client.begin_seed(), storage);

  lb->fault_truncate_replies(10);  // shorter than a frame header
  EXPECT_THROW(client.fold(fixture_entries()), NetError);
  // Sticky: the table is broken, later verbs fail fast instead of hanging.
  EXPECT_THROW(client.begin_seed(), NetError);
  EXPECT_THROW(client.fetch(0), NetError);
}

TEST(TierClientFaults, DroppedReplyFailsOnlyItsRequest) {
  // A lost reply costs its own request, not the transport: the waiter
  // times out retryably and the next verb round-trips.
  const auto tc = tier_config(1);
  TierServer server(tc);
  auto transport = std::make_unique<LoopbackTransport>(&server, 1);
  auto* lb = transport.get();
  TierClient client(std::move(transport), 1, /*timeout_s=*/0.1);
  client.fold(fixture_entries());
  std::vector<memo::MemoDb::Entry> storage;
  client.end_seed(client.begin_seed(), storage);

  lb->fault_drop_next(1);
  EXPECT_THROW(client.fetch(0), RetryableError);  // waits 0.1 s, fails alone
  EXPECT_FALSE(client.transport_mut().table().broken());
  EXPECT_NO_THROW(client.fold(fixture_entries()));
  EXPECT_TRUE(client.healthy());
}

TEST(TierClientFaults, ReorderedRepliesCompleteTheRightSlots) {
  // Out-of-order replies are legal: the request id keys the slot. Hold two
  // GET replies and deliver them reversed; both fetches get their own
  // value, not each other's.
  const auto tc = tier_config(2);
  TierServer server(tc);
  auto transport = std::make_unique<LoopbackTransport>(&server, 2);
  auto* lb = transport.get();
  auto& table = transport->table();
  server.handle_frame(import_frame(fixture_entries(), 1));

  lb->fault_hold_replies(true);
  const u64 a = table.next_id(), b = table.next_id();
  const auto get = [](u64 pos) {
    WireWriter w;
    w.u64(pos);
    return w.take();
  };
  table.expect(a);
  lb->send(0, FrameType::Get, a, get(0));
  table.expect(b);
  lb->send(1, FrameType::Get, b, get(2));
  EXPECT_EQ(table.in_flight(), 2u);
  lb->fault_hold_replies(false);
  lb->deliver_held(/*reverse=*/true);

  const std::pair<u64, u64> cases[] = {{a, 0}, {b, 2}};
  for (const auto& [id, pos] : cases) {
    const auto payload = table.wait(id, 1.0);
    WireReader r(payload);
    const auto n = r.u32();
    std::vector<cfloat> v;
    for (u32 i = 0; i < n; ++i) {
      const float re = r.f32(), im = r.f32();
      v.emplace_back(re, im);
    }
    EXPECT_EQ(v, server.tier().snapshot()[std::size_t(pos)].value);
  }
  EXPECT_FALSE(table.broken());
}

TEST(TierClientFaults, ServerErrorReplyFailsOnlyItsRequest) {
  // A GET past the tier draws an Error reply: a per-request failure that
  // fails its own slot, but the stream (and every later request) stays
  // usable — unlike a transport fault, nothing turns sticky.
  TierServer server(tier_config(1));
  LoopbackTransport lb(&server, 1);
  auto& table = lb.table();
  server.handle_frame(import_frame(fixture_entries(), 1));

  const auto get = [](u64 pos) {
    WireWriter w;
    w.u64(pos);
    return w.take();
  };
  const u64 bad = table.next_id();
  table.expect(bad);
  lb.send(0, FrameType::Get, bad, get(999));
  EXPECT_THROW(table.wait(bad, 1.0), NetError);
  EXPECT_FALSE(table.broken());

  const u64 good = table.next_id();
  table.expect(good);
  lb.send(0, FrameType::Get, good, get(0));
  const auto payload = table.wait(good, 1.0);
  WireReader r(payload);
  EXPECT_EQ(r.u32(), server.tier().snapshot()[0].value.size());
}

TEST(TierServerFaults, TruncatedImportCannotTearTheTier) {
  // decode-then-apply: a snapshot import whose payload is cut mid-entry
  // produces an Error reply and leaves the tier exactly as it was.
  TierServer server(tier_config(2));
  WireWriter w;
  encode_entries(w, fixture_entries(), /*with_values=*/true);
  auto payload = w.take();
  payload.resize(payload.size() - 4);  // tear the last value
  const auto reply = server.handle_frame(
      encode_frame(FrameType::SnapshotImport, 0, 9, payload));
  const auto h = decode_header(reply);
  EXPECT_EQ(h.type, FrameType::Error);
  EXPECT_EQ(h.request_id, 9u);
  WireReader r(std::span<const std::byte>(reply).subspan(kHeaderBytes));
  EXPECT_EQ(decode_error(r).code, 2u);
  EXPECT_EQ(server.tier().size(), 0u);  // untouched
}

// --- Socket backend ----------------------------------------------------------

TEST(SocketTransport, RoundTripOverLocalhost) {
  const auto tc = tier_config(2);
  TierServer server(tc);
  std::uint16_t port = 0;
  try {
    port = server.listen_and_serve();
  } catch (const NetError& e) {
    GTEST_SKIP() << "sockets unavailable: " << e.what();
  }
  std::unique_ptr<Transport> transport;
  try {
    transport = SocketTransport::connect_tcp("127.0.0.1", port, 2);
  } catch (const NetError& e) {
    GTEST_SKIP() << "connect failed: " << e.what();
  }
  TierClient client(std::move(transport), 2, /*timeout_s=*/10.0);
  const auto ref = fixture_entries();
  const auto out = client.fold(ref);
  EXPECT_EQ(out.promoted, server.tier().size());
  std::vector<memo::MemoDb::Entry> storage;
  client.end_seed(client.begin_seed(), storage);
  ASSERT_EQ(storage.size(), server.tier().size());
  for (u64 pos = 0; pos < storage.size(); ++pos) {
    client.request(pos);
  }
  client.flush();
  for (u64 pos = 0; pos < storage.size(); ++pos)
    EXPECT_EQ(client.fetch(pos), server.tier().snapshot()[pos].value);
  server.stop();
}

TEST(SocketTransport, DisconnectSurfacesStickyErrorNeverHangs) {
  const auto tc = tier_config(1);
  auto server = std::make_unique<TierServer>(tc);
  std::uint16_t port = 0;
  try {
    port = server->listen_and_serve();
  } catch (const NetError& e) {
    GTEST_SKIP() << "sockets unavailable: " << e.what();
  }
  std::unique_ptr<Transport> transport;
  try {
    transport = SocketTransport::connect_tcp("127.0.0.1", port, 1);
  } catch (const NetError& e) {
    GTEST_SKIP() << "connect failed: " << e.what();
  }
  TierClient client(std::move(transport), 1, /*timeout_s=*/5.0);
  client.fold(fixture_entries());
  std::vector<memo::MemoDb::Entry> storage;
  client.end_seed(client.begin_seed(), storage);

  // Kill the server between requests: the reader thread sees EOF, breaks
  // the table, and every later verb surfaces one sticky NetError — bounded
  // by the timeout, never a hang.
  server->stop();
  EXPECT_THROW(client.fetch(0), NetError);
  EXPECT_THROW(client.fold(fixture_entries()), NetError);
}

// --- Reconnect + idempotent replay -------------------------------------------

TEST(Wire, ReadVerbRepliesAreReplayEquivalent) {
  // The contract replay rests on: handling the SAME read-class request frame
  // twice yields byte-for-byte identical replies (a re-issue after a
  // reconnect is indistinguishable from the original), while PUT mutates —
  // which is why it stays at-most-once.
  TierServer server(tier_config(2));
  server.handle_frame(import_frame(fixture_entries(), 1));

  WireWriter get;
  get.u64(0);
  WireWriter batch;
  batch.u32(2);
  batch.u64(0);
  batch.u64(2);
  WireWriter exp;
  exp.u8(0);  // index-only snapshot export
  const std::pair<FrameType, std::vector<std::byte>> reads[] = {
      {FrameType::Get, get.take()},
      {FrameType::GetBatch, batch.take()},
      {FrameType::SnapshotExport, exp.take()},
  };
  for (const auto& [type, payload] : reads) {
    ASSERT_TRUE(replayable_verb(type));
    const auto frame = encode_frame(type, 0, 7, payload);
    const auto first = server.handle_frame(frame);
    const auto second = server.handle_frame(frame);
    EXPECT_EQ(first, second) << frame_type_name(type);
  }

  // PUT is not replay-equivalent: the second application sees its own
  // entries already in the tier and dedups them — a re-send would double
  // count. The verb classifier must say so.
  EXPECT_FALSE(replayable_verb(FrameType::Put));
  EXPECT_FALSE(replayable_verb(FrameType::SnapshotImport));
  const std::vector<memo::MemoDb::Entry> fresh = {
      entry(memo::OpKind::Fu1D, {0.0f, 0.0f, 0.0f, 1.0f}, {{9.0f, 9.0f}})};
  WireWriter put;
  encode_entries(put, fresh, /*with_values=*/true);
  const auto put_frame = encode_frame(FrameType::Put, 0, 8, put.take());
  const auto size_before = server.tier().size();
  const auto first = server.handle_frame(put_frame);   // promotes the entry
  const auto second = server.handle_frame(put_frame);  // dedup-drops it
  EXPECT_NE(first, second);
  EXPECT_EQ(server.tier().size(), size_before + 1);
}

TEST(RequestTable, TimeoutFailsOnlyThatRequest) {
  RequestTable t;
  const u64 a = t.next_id(), b = t.next_id();
  t.expect(a);
  t.expect(b);
  // The timeout is a per-request, retryable failure — not a table break.
  EXPECT_THROW(t.wait(a, 0.05), RetryableError);
  EXPECT_FALSE(t.broken());
  t.complete(b, {std::byte{7}});
  EXPECT_EQ(std::to_integer<int>(t.wait(b, 1.0)[0]), 7);
  // The late reply to the timed-out slot is stale weather, not a protocol
  // violation: dropped, table stays healthy.
  t.complete(a, {std::byte{9}});
  EXPECT_FALSE(t.broken());
  EXPECT_NO_THROW(t.expect(t.next_id()));
}

TEST(RequestTable, StaleRepliesAreDroppedAndCounted) {
  auto& stale = obs::metrics().counter("net.table.stale_replies");
  const u64 before = stale.value();
  RequestTable t;
  const u64 a = t.next_id();
  t.expect(a);
  t.complete(a, {std::byte{1}});
  t.complete(a, {std::byte{2}});  // duplicate after a replay: first wins
  EXPECT_EQ(std::to_integer<int>(t.wait(a, 1.0)[0]), 1);
  t.complete(a, {std::byte{3}});  // late reply to the released slot
  EXPECT_FALSE(t.broken());
  EXPECT_EQ(stale.value() - before, 2u);
  EXPECT_NO_THROW(t.expect(t.next_id()));
}

TEST(LoopbackReconnect, ReplayAfterScriptedDisconnect) {
  // Carrier drops mid-send: the frame is lost, the recovery ladder reopens
  // on the first attempt and replays the stashed GET — the waiter gets its
  // value with no caller-visible error.
  TierServer server(tier_config(1));
  server.handle_frame(import_frame(fixture_entries(), 1));
  LoopbackTransport lb(&server, 1);
  lb.set_retry({/*retry_max=*/3, /*backoff_ms=*/0.0});
  auto& table = lb.table();

  lb.fault_disconnect_after(0);  // the very next frame is lost
  const u64 a = table.next_id();
  table.expect(a);
  WireWriter w;
  w.u64(0);
  lb.send(0, FrameType::Get, a, w.data());
  const auto payload = table.wait(a, 1.0);
  WireReader r(payload);
  EXPECT_EQ(r.u32(), server.tier().snapshot()[0].value.size());
  EXPECT_FALSE(table.broken());
  EXPECT_FALSE(lb.carrier_down());
  EXPECT_EQ(lb.reconnects(), 1u);
  EXPECT_EQ(lb.replays(), 1u);
}

TEST(LoopbackReconnect, AtMostOncePutSurfacesRetryableError) {
  // The carrier dies on the first PUT: the frame may or may not have
  // reached the server (here: lost), so it must NOT be re-sent. The ladder
  // recovers the carrier, the PUT's waiter gets a RetryableError, and the
  // tier was not mutated.
  TierServer server(tier_config(1));
  LoopbackTransport lb(&server, 1);
  lb.set_retry({/*retry_max=*/3, /*backoff_ms=*/0.0});
  auto& table = lb.table();

  lb.fault_disconnect_on_put(true);
  const u64 a = table.next_id();
  table.expect(a);
  WireWriter w;
  encode_entries(w, fixture_entries(), /*with_values=*/true);
  EXPECT_THROW(lb.send(0, FrameType::Put, a, w.data()), RetryableError);
  EXPECT_EQ(server.tier().size(), 0u);  // the lost frame was never applied
  // The carrier is healthy again: the same PUT re-issued by the CALLER (who
  // owns the at-most-once ambiguity) lands.
  EXPECT_FALSE(lb.carrier_down());
  EXPECT_FALSE(table.broken());
  const u64 b = table.next_id();
  table.expect(b);
  WireWriter w2;
  encode_entries(w2, fixture_entries(), /*with_values=*/true);
  lb.send(0, FrameType::Put, b, w2.data());
  EXPECT_NO_THROW(table.wait(b, 1.0));
  EXPECT_EQ(server.tier().size(), fixture_entries().size());
}

TEST(LoopbackReconnect, ExhaustedBudgetIsSticky) {
  // Every reopen attempt fails: the ladder's floor is the sticky break —
  // fail_all with the root fault plus the budget diagnosis.
  TierServer server(tier_config(1));
  LoopbackTransport lb(&server, 1);
  lb.set_retry({/*retry_max=*/2, /*backoff_ms=*/0.0});
  auto& table = lb.table();

  lb.fault_disconnect_after(0);
  lb.fault_reconnect_after(1 << 20);  // never reconnects
  const u64 a = table.next_id();
  table.expect(a);
  WireWriter w;
  w.u64(0);
  EXPECT_THROW(lb.send(0, FrameType::Get, a, w.data()), NetError);
  EXPECT_TRUE(table.broken());
  EXPECT_NE(table.error().find("reconnect budget of 2 attempt(s) exhausted"),
            std::string::npos);
  EXPECT_THROW(table.expect(table.next_id()), NetError);
  EXPECT_EQ(lb.reconnects(), 0u);
}

TEST(LoopbackReconnect, ZeroBudgetIsSticky) {
  // net_retry_max == 0 is the ladder with no attempts: the first carrier
  // fault breaks the table and no reopen is attempted.
  TierServer server(tier_config(1));
  LoopbackTransport lb(&server, 1);  // no set_retry: a budget of 0
  auto& table = lb.table();

  lb.fault_disconnect_after(0);
  const u64 a = table.next_id();
  table.expect(a);
  WireWriter w;
  w.u64(0);
  EXPECT_THROW(lb.send(0, FrameType::Get, a, w.data()), NetError);
  EXPECT_TRUE(table.broken());
  EXPECT_NE(table.error().find("reconnect budget of 0 attempt(s) exhausted"),
            std::string::npos);
  EXPECT_TRUE(lb.carrier_down());  // nobody tried to reopen
  EXPECT_EQ(lb.reconnects(), 0u);
}

TEST(TierClientFaults, SlowBatchRetriesBeforeBreakingTable) {
  // A single lost GET_BATCH reply times out per-request; with a retry
  // budget the harvester re-issues that one batch under a fresh id and
  // every waiter gets its value.
  const auto tc = tier_config(1);
  TierServer server(tc);
  auto transport = std::make_unique<LoopbackTransport>(&server, 1);
  auto* lb = transport.get();
  TierClient client(std::move(transport), 1, /*timeout_s=*/0.2,
                    RetrySpec{/*retry_max=*/2, /*backoff_ms=*/1.0});
  client.fold(fixture_entries());
  std::vector<memo::MemoDb::Entry> storage;
  client.end_seed(client.begin_seed(), storage);

  lb->fault_drop_next(1);  // the first GET_BATCH reply vanishes
  client.request(0);
  client.request(2);
  client.flush();
  EXPECT_EQ(client.fetch(0), server.tier().snapshot()[0].value);
  EXPECT_EQ(client.fetch(2), server.tier().snapshot()[2].value);
  EXPECT_FALSE(client.transport_mut().table().broken());
  EXPECT_TRUE(client.healthy());
}

TEST(SocketTransport, ReconnectReplaysAcrossServerRestart) {
  // Real-socket half of the reconnect matrix: kill the TCP server under a
  // retry-budgeted transport, restart it on the same port, and verify the
  // next verb round-trips (the reader detected the fault, the ladder
  // redialed). Environments without sockets skip.
  const auto tc = tier_config(1);
  auto server = std::make_unique<TierServer>(tc);
  std::uint16_t port = 0;
  try {
    port = server->listen_and_serve();
  } catch (const NetError& e) {
    GTEST_SKIP() << "sockets unavailable: " << e.what();
  }
  std::unique_ptr<Transport> transport;
  try {
    transport = SocketTransport::connect_tcp("127.0.0.1", port, 1);
  } catch (const NetError& e) {
    GTEST_SKIP() << "connect failed: " << e.what();
  }
  transport->set_retry({/*retry_max=*/40, /*backoff_ms=*/25.0});
  auto* raw = transport.get();
  TierClient client(std::move(transport), 1, /*timeout_s=*/20.0,
                    RetrySpec{/*retry_max=*/40, /*backoff_ms=*/25.0});
  const auto ref = fixture_entries();
  client.fold(ref);
  const auto snapshot = server->tier().snapshot();

  // Kill + restart on the same port. The restart runs concurrently with
  // the client's redial loop — exactly the chaos-bench "blip" shape.
  server.reset();
  server = std::make_unique<TierServer>(tc);
  {
    WireWriter w;
    encode_entries(w, snapshot, /*with_values=*/true);
    server->handle_frame(encode_frame(FrameType::SnapshotImport, 0, 1,
                                      w.data()));
  }
  try {
    server->listen_and_serve("127.0.0.1", port);
  } catch (const NetError& e) {
    GTEST_SKIP() << "same-port rebind unavailable: " << e.what();
  }

  // The next verb may fault once (the old connection is dead) and must
  // come back through the ladder with the right bytes.
  std::vector<memo::MemoDb::Entry> storage;
  client.end_seed(client.begin_seed(), storage);
  ASSERT_EQ(storage.size(), ref.size());
  for (u64 pos = 0; pos < storage.size(); ++pos)
    EXPECT_EQ(client.fetch(pos), server->tier().snapshot()[pos].value);
  EXPECT_TRUE(client.healthy());
  EXPECT_GE(raw->reconnects(), 1u);
}

}  // namespace
}  // namespace mlr::net
