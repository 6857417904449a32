// The distributed memoization database (paper §4.3), exposed as a batch-
// query service.
//
// Architecture mirrors Fig 6: the *memory node* hosts an index database
// (ANN over encoder keys — Faiss IVF in the paper, our IvfFlatIndex here)
// and a value database (Redis in the paper). The value database's service
// time is modelled on the virtual clock by sim::MemoryNode; the host keeps
// each entry once, in a per-kind table. The compute node reaches the memory
// node over the shared interconnect. Queries are optionally *coalesced*
// into ≥4 KB payloads (§4.3.3) and looked up as a batch.
//
// query_batch() splits every lookup round into two halves:
//
//   * scoring — the real work: ANN search (fanned across a ThreadPool via
//     ann::Index::search_batch), the τ similarity gate and, for hits, the
//     value copy. Scoring touches no virtual timeline.
//   * scheduling — a deterministic serial pass over the round's requests in
//     submission order that charges key transfer (Interconnect), batched
//     lookup + value serve (MemoryNode) and value transfer back
//     (Interconnect) to the virtual clock. Because scheduling never depends
//     on which worker scored what, reported virtual times are bit-identical
//     for any pool width.
//
// Insertion charges occupy the link/node timelines but never gate the
// caller's ready time (the paper hides insertion behind the next
// iteration); the host stores the entry synchronously, and the next
// query_batch() sees it. Key/value spaces are partitioned by OpKind end to
// end (per-kind ANN index, per-kind entry table, per-kind id sequences), and
// stores of one kind serialize on that kind's mutex. Callers must not insert
// while a query_batch() of the same kind is scoring.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ann/ann.hpp"
#include "common/stats.hpp"
#include "sim/device.hpp"

namespace mlr {
class ThreadPool;
}

namespace mlr::memo {

/// Distinct FFT operators have distinct key/value spaces (an F_u1D result is
/// never a valid answer for an F_u2D query).
enum class OpKind : int { Fu1D = 0, Fu1DAdj = 1, Fu2D = 2, Fu2DAdj = 3 };
inline constexpr int kNumOpKinds = 4;
const char* op_kind_name(OpKind k);

/// One pending lookup in a coalescing batch. `norm` is the L2 norm of the
/// raw chunk: because the ReLU encoder is nearly positively homogeneous,
/// key *cosine* alone cannot distinguish a chunk from a rescaled copy, so a
/// match additionally requires the stored/query norm ratio to exceed τ.
struct QueryRequest {
  OpKind kind;
  std::vector<float> key;
  double norm = 1.0;
  /// Pooled input plane for oracle similarity (empty in encoder mode).
  std::vector<cfloat> probe{};
  /// Per-query acceptance threshold; 0 → use the DB's configured τ.
  double tau = 0.0;
  /// Expected value length in cfloats; 0 → any. A stored result for a
  /// different chunk shape is never a valid answer (tail chunks are smaller
  /// than interior chunks).
  std::size_t value_size = 0;
};

/// Outcome of one lookup.
struct QueryReply {
  /// remote_pos value meaning "the payload is local (in `value`)".
  static constexpr u64 kNoRemote = ~u64(0);

  bool hit = false;
  u64 match_id = 0;
  double cosine = 0.0;           ///< similarity of matched key
  std::vector<cfloat> value;     ///< retrieved FFT result when hit
  /// cfloat length of the matched value — set for every hit, even while the
  /// payload is still remote. The virtual clock charges from this length,
  /// so charging never waits on (or varies with) the wall-clock transport.
  std::size_t value_cf = 0;
  /// Seed-snapshot position of a hit whose value payload is still remote
  /// (in flight on the tier transport); kNoRemote once the payload is in
  /// `value`. Resolve with MemoDb::materialize() before reading `value`.
  u64 remote_pos = kNoRemote;
  sim::VTime value_ready = 0.0;  ///< virtual time the value is on the compute node
};

/// Lazy value-payload source for a remote-seeded session (implemented by
/// net::TierClient over the tier transport). The scoring phase calls
/// request() per remote hit (non-blocking — just notes interest) and
/// flush() once per query round (ships one coalesced GET_BATCH per shard);
/// the engine harvests with fetch() at value-copy time, after the stage's
/// miss FFTs were issued — the cache_request/cache_sync split that lets a
/// remote round-trip hide under local compute. Implementations must be
/// thread-safe: scoring and harvesting run on pool workers.
class ValueFetcher {
 public:
  virtual ~ValueFetcher() = default;
  /// Note interest in snapshot position `pos` (idempotent, non-blocking).
  virtual void request(u64 pos) = 0;
  /// Ship every noted request that is not already in flight.
  virtual void flush() = 0;
  /// Block until `pos`'s payload arrived and return it. Throws when the
  /// payload cannot arrive: its request timed out or failed, or the
  /// transport broke (see net/request_table.hpp).
  virtual std::vector<cfloat> fetch(u64 pos) = 0;
};

struct MemoDbConfig {
  i64 key_dim = 60;
  double tau = 0.92;            ///< cosine threshold for accepting a match
  i64 coalesce_bytes = 4096;    ///< payload target for key coalescing
  bool coalesce = true;
  /// Virtual-clock multiplier applied to value-payload bytes so a scaled-
  /// down volume is *timed* as its paper-scale counterpart (keys are tiny
  /// at any scale and are not multiplied).
  double value_scale = 1.0;
  ann::IvfParams ivf{};         ///< index database parameters
};

/// Timing breakdown accumulated across queries (Fig 10 / Fig 11 components).
struct DbTiming {
  double comm_s = 0;         ///< key+value transfer time on the critical path
  double search_s = 0;       ///< index lookup time
  double value_serve_s = 0;  ///< value database service time
  Samples query_latency_us;  ///< end-to-end per-query latency samples
};

class MemoDb {
 public:
  MemoDb(MemoDbConfig cfg, sim::Interconnect* net, sim::MemoryNode* node);

  /// Batched lookup: all requests travel together (coalesced into
  /// ceil(batch·key_bytes / coalesce_bytes) messages when enabled, one
  /// message per key otherwise). Every earlier insertion is visible.
  /// Returns one reply per request; replies for hits include the value (or,
  /// for a remote seed, its length — see materialize()) and its arrival
  /// time. Scoring fans out across `pool` when given (timing is
  /// unaffected — see the header comment's scoring/scheduling split).
  std::vector<QueryReply> query_batch(std::span<const QueryRequest> reqs,
                                      sim::VTime ready,
                                      ThreadPool* pool = nullptr);

  /// Insertion of (key, value): stored at once, and charged to the link/node
  /// timelines from `ready` without gating the caller. `norm` is the raw
  /// chunk L2 norm. Assigns the kind's next insertion sequence number.
  void insert(OpKind kind, std::span<const float> key,
              std::span<const cfloat> value, sim::VTime ready,
              double norm = 1.0, std::vector<cfloat> probe = {});

  // --- Snapshots / shared-memo sessions / the sharded tier ------------------
  // The serving layer (serve::ReconService) keeps one *shared memo tier* per
  // service — a snapshot of promoted entries, stored across N memory-node
  // shards (serve::SharedTier) — and seeds every job's session database from
  // it. The lifecycle, and who pays for what on the virtual clock:
  //
  //   * export — after a session's last stage,
  //     export_entries(/*session_only=*/true) yields "what this job
  //     inserted on top of its seed", in canonical kind-major order.
  //     Exporting is free: the entries' link/node/DRAM traffic was charged
  //     when they were first inserted inside the session.
  //   * promote — the service ships those entries to the tier in job-id
  //     order (policy-invariant tier evolution) and charges the transfer to
  //     the shared fabric (sim::Fabric) at the job's finish time: per-shard
  //     links stream concurrently, the shared uplink serializes sessions.
  //     At the tier, a *dedup probe* rejects near-duplicates: the candidate
  //     is the entry's nearest tier neighbour in key space (the same ANN
  //     machinery the live DB queries with), gated by entry_similarity()
  //     above τ_dedup; survivors then meet the max-entries cap. Both drop
  //     classes are counted separately (MemoCounters::shared_dedup_drops /
  //     shared_cap_drops).
  //   * fetch/import — when a job is dispatched, the service charges the
  //     fabric for fetching the whole tier (per-shard byte split by
  //     entry_shard()), and the session's compute begins only when the fetch
  //     completes. import_entries() then replays the snapshot in its
  //     canonical order — identical for every shard count, since sharding
  //     decides placement (which link carries which bytes), never ordering —
  //     so ids, the IVF training set and every downstream hit decision are
  //     bit-identical for shards ∈ {1, 2, 4, …}.
  //
  // Entries below the shared boundary were produced by other jobs (or the
  // priming pass), so a hit on one of them is cross-job reuse — the effect
  // the paper's economics depend on and MemoCounters::db_hit_shared
  // measures.

  /// One exported (key, value) record — the unit a snapshot is made of.
  /// `kind` partitions the key/value space exactly as the live index does.
  struct Entry {
    OpKind kind{};
    std::vector<float> key;
    double norm = 1.0;
    std::vector<cfloat> probe{};
    std::vector<cfloat> value{};
    /// Full value length in cfloats. Equals value.size() when the payload
    /// is present; an *index-only* entry (net wire format's seed form) has
    /// an empty `value` with value_cf > 0 — the payload stays on the tier
    /// server and sessions fetch it lazily (ValueFetcher).
    std::size_t value_cf = 0;
  };

  /// Export entries in canonical kind-major order (all of kind 0 in
  /// insertion order, then kind 1, …). With `session_only`, only entries
  /// above the per-kind shared
  /// boundary — what this session inserted on top of its seed — are
  /// exported.
  [[nodiscard]] std::vector<Entry> export_entries(bool session_only = false);
  /// Seed an EMPTY database from a snapshot: entries replay synchronously in
  /// order (no virtual-clock charges — the snapshot's traffic was paid when
  /// the entries were first inserted) and the per-kind shared boundaries are
  /// set to the seed sizes so seeded hits are distinguishable from hits on
  /// this session's own insertions.
  ///
  /// With a non-null `values` fetcher, *index-only* entries (empty value,
  /// value_cf > 0) are accepted: the session stores the entry without its
  /// payload, scores hits exactly as if the payload were local (hit
  /// decisions need key/norm/probe/length only), and resolves the payload
  /// lazily — score_requests batches fetcher->request() calls per round and
  /// the engine harvests via materialize(). A fetched payload is stored in
  /// the entry's row, so later rounds serve it locally.
  void import_entries(std::span<const Entry> entries,
                      ValueFetcher* values = nullptr);

  /// Re-install a preempted session's *own* insertions on top of a freshly
  /// imported seed (serve-layer checkpoint/resume). Entries are appended in
  /// snapshot order, continuing the per-kind
  /// sequences exactly where the seed left them — so the restored entries
  /// get the ids they had in the original session and stay *above* the
  /// shared boundary (a hit on one remains db_hit, not db_hit_shared). No
  /// virtual-clock charges: their traffic was paid when first inserted;
  /// their logical bytes are folded into the store accounting so later
  /// insertion charges continue from the real footprint. Call once, right
  /// after import_entries(), before any query round.
  void restore_session_entries(std::span<const Entry> entries);

  /// Resolve a remote hit in place: fetch the value payload (blocking — the
  /// engine calls this after the stage's miss FFTs were issued), store it in
  /// the entry's row, and clear remote_pos. No-op for local replies. Never
  /// touches a virtual timeline. Safe on pool workers, also for many replies
  /// of one entry at once.
  void materialize(QueryReply& rp);
  /// True when `match_id` (a QueryReply::match_id) refers to a seeded —
  /// i.e. cross-job — entry (its per-kind sequence is below that kind's
  /// shared boundary).
  [[nodiscard]] bool is_shared_entry(u64 id) const {
    return (id & kSeqMask) < shared_boundary_[std::size_t(id >> 56)];
  }

  /// Low 56 bits of an entry id hold the entry's *per-kind* insertion
  /// sequence number (the high byte is the OpKind): its row in the kind's
  /// table, and what is_shared_entry() compares.
  static constexpr u64 kSeqMask = (u64(1) << 56) - 1;

  [[nodiscard]] std::size_t entries(OpKind kind) const;
  [[nodiscard]] std::size_t total_entries() const;
  [[nodiscard]] const DbTiming& timing() const { return timing_; }
  /// Number of coalesced wire messages sent so far for queries.
  [[nodiscard]] u64 messages_sent() const { return messages_; }

 private:
  /// One row of a kind's table. An index-only seed row holds an empty
  /// `e.value` (with `e.value_cf` > 0) until materialize() stores the
  /// payload fetched from snapshot position `seed_pos`.
  struct Stored {
    Entry e;
    u64 seed_pos = 0;
  };

  /// Index and store one entry in its kind's table, without touching any
  /// virtual timeline. insert() layers the link/node charges on top.
  void append(Entry e, u64 seed_pos);

  /// Scoring half: ANN search (search_batch on `pool`), the τ gate and the
  /// hit value copy for every request. Touches no timeline and mutates no
  /// DB state, so it is safe on pool workers while the index is not being
  /// inserted to.
  void score_requests(std::span<const QueryRequest> reqs,
                      std::span<QueryReply> replies, ThreadPool* pool) const;
  /// Scheduling half: charge key transfer, batched lookup and hit value
  /// serve/transfer for `replies` (in order) to the virtual timelines,
  /// filling in value_ready and the timing/message counters.
  void schedule_replies(std::span<QueryReply> replies, sim::VTime ready);

  MemoDbConfig cfg_;
  sim::Interconnect* net_;
  sim::MemoryNode* node_;
  std::vector<std::unique_ptr<ann::IvfFlatIndex>> index_;  // one per OpKind
  /// Per-kind entry tables; a row's position is its per-kind sequence.
  std::array<std::vector<Stored>, kNumOpKinds> rows_;
  /// Per-kind store serialization, mirroring the per-kind indexes: stores
  /// within a kind stay in total insertion order. export_entries locks all
  /// kinds for a consistent snapshot.
  std::array<std::mutex, kNumOpKinds> store_mu_;
  /// Per-kind sequence below which entries came from import_entries().
  std::array<u64, kNumOpKinds> shared_boundary_{};
  /// Lazy value source for an index-only seed (null for local seeds).
  ValueFetcher* fetcher_ = nullptr;
  u64 messages_ = 0;
  /// Store bytes accounted in insertion order — the DRAM footprint the
  /// virtual clock sees: (⌈key_dim/2⌉ + value) cfloats per entry.
  double accounted_store_bytes_ = 0;
  DbTiming timing_;
};

// --- Sharded-tier helpers ----------------------------------------------------
// Free functions on snapshot entries, shared by serve::SharedTier: stable
// key-hash shard placement, wire footprint, and the promotion dedup probe.

/// Stable shard placement of a snapshot entry: FNV-1a over (kind, key bytes)
/// mod `shard_count`. Content-addressed — independent of insertion order and
/// of which session produced the entry, so the same chunk always lands on
/// the same memory-node shard.
int entry_shard(const MemoDb::Entry& e, int shard_count);

/// Wire footprint of one snapshot entry (key + value + oracle probe): the
/// bytes a fetch or promotion moves across the fabric for it.
std::size_t entry_bytes(const MemoDb::Entry& e);

/// The dedup probe: how interchangeable two snapshot entries are, in the
/// same units as the query-time τ gate. Entries of different kinds or value
/// sizes are never interchangeable (−1). With oracle probes present on both
/// sides it is the true pooled-plane cosine; otherwise the encoder proxy
/// (min of key cosine and the norm-aware chunk-cosine estimate). Either way
/// the min with the norm ratio lo/hi guards against rescaled copies, as the
/// live scale gate does.
double entry_similarity(const MemoDb::Entry& a, const MemoDb::Entry& b);

/// The query-time τ gate's similarity between a lookup (key, norm, probe)
/// and a stored entry — the one acceptance rule of MemoDb and the caches.
/// With oracle probes of equal length on both sides it is the true pooled-
/// plane cosine, or −1 when the norm ratio lo/hi does not exceed τ (cosine
/// is magnitude-blind); that branch never reads the keys. Otherwise it is
/// the encoder proxy: the min of key cosine and the chunk-cosine estimate,
/// and an empty `key` throws. A match requires the result to exceed τ.
double gate_similarity(std::span<const float> key, double norm,
                       std::span<const cfloat> probe,
                       std::span<const float> stored_key, double stored_norm,
                       std::span<const cfloat> stored_probe, double tau);

/// Cosine similarity between two float keys.
double key_cosine(std::span<const float> a, std::span<const float> b);

/// Estimated cosine similarity between the two *chunks* behind a pair of
/// keys (Eq. 3 of the paper). The contrastive encoder preserves chunk L2
/// distances (‖za−zb‖ ≈ ‖Cha−Chb‖), and chunk norms are known exactly, so
///   cos χ = (nq² + ndb² − ‖za−zb‖²) / (2·nq·ndb),
/// clamped to [−1, 1].
double estimated_chunk_cosine(std::span<const float> key_q,
                              std::span<const float> key_db, double norm_q,
                              double norm_db);

}  // namespace mlr::memo
