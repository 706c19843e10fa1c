// Query-result cache: maps (db epoch, engine name, canonical query hash)
// to a completed QueryResult so repeated — or isomorphically relabeled —
// queries skip the whole filtering/verification pipeline.
//
// Design:
//   * Sharded LRU. Keys are spread over `shards` independent shards, each
//     with its own mutex, hash map, and recency list, so concurrent
//     workers do not serialize on one lock. The byte budget is split
//     evenly; a shard evicts from its own LRU tail when over budget.
//   * Epoch-based bulk invalidation. The key embeds the database epoch;
//     RELOAD advances the epoch (AdvanceEpoch), making every prior entry
//     unreachable in O(1), and eagerly purges the shards to release
//     memory. A result computed against the old database can only ever be
//     inserted under the old epoch (callers capture the epoch before
//     executing), so a reload can never be polluted by stragglers.
//   * Exact keys. Lookup compares the full key (epoch, engine, 128-bit
//     canonical hash), so distinct engines and distinct epochs never
//     cross-talk even on a hash accident.
//
// The cache stores only *completed* results — callers must skip TIMEOUT /
// OOT results, which are partial relative to one request's deadline.
//
// Live mutations (src/update/): instead of dropping everything on every
// write, the cache invalidates selectively. Every entry records
//   * the mutation sequence number it was computed at (entries are only
//     accepted while the sequence still matches, checked under the shard
//     lock, so a result computed against a pre-mutation snapshot can never
//     land after the purge for that mutation ran), and
//   * the query's features (label bitmap, vertex/edge counts) plus a bloom
//     filter over its answer ids.
// ApplyRemove(gid) purges exactly the entries whose answer set contains
// the removed graph (bloom + binary search over the sorted answers);
// ApplyAdd(features) conservatively purges entries whose query could embed
// in the new graph (feature subsumption — never keeps an entry that could
// have gained an answer). Lookup takes the reader's pinned sequence and
// only returns entries computed at or before it: a surviving entry's
// answers are invariant across every mutation it survived, so older
// entries stay valid for newer readers, while entries from the future of
// a reader's snapshot are refused. Callers must order mutations so that a
// reader can only pin sequence S after ApplyAdd/ApplyRemove for S has
// returned (the query service does this under its admission mutex).
//
// The `SGQ_CACHE` environment variable ("off" / "0" / "false") force-
// disables every cache instance regardless of configuration; the CI
// cache-off leg uses it to prove results are bit-identical without caching.
#ifndef SGQ_CACHE_RESULT_CACHE_H_
#define SGQ_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/canonical.h"
#include "graph/graph.h"
#include "query/stats.h"

namespace sgq {

// Coarse features of a graph, used for the conservative could-this-query-
// match-that-graph test behind selective ADD invalidation. For a query q
// and a data graph G, MayEmbed(q_features, G_features) is true whenever q
// has an embedding in G (no false negatives); false positives only cost
// an unnecessary purge.
struct GraphFeatures {
  uint64_t label_bits = 0;  // bit (label % 64) per distinct label present
  uint32_t num_vertices = 0;
  uint32_t num_edges = 0;
};

GraphFeatures GraphFeaturesOf(const Graph& g);

inline bool MayEmbed(const GraphFeatures& query, const GraphFeatures& data) {
  return (query.label_bits & ~data.label_bits) == 0 &&
         query.num_vertices <= data.num_vertices &&
         query.num_edges <= data.num_edges;
}

// True unless the SGQ_CACHE environment variable disables caching
// process-wide. Read once on first use.
bool CacheEnabledByEnv();

// Lock shards of every serving cache (shard server and router alike).
inline constexpr uint32_t kCacheShards = 8;

struct CacheConfig {
  bool enabled = true;
  // Total byte budget across all shards; 0 disables the cache.
  size_t max_bytes = 64ull << 20;
  uint32_t shards = kCacheShards;
};

struct CacheKey {
  uint64_t epoch = 0;
  std::string engine;  // engine name (clones share one prepared database)
  CanonicalHash hash;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.epoch == b.epoch && a.hash == b.hash && a.engine == b.engine;
  }
};

struct CacheKeyHasher {
  size_t operator()(const CacheKey& key) const {
    uint64_t h = key.hash.lo ^ (key.hash.hi * 0x9E3779B97F4A7C15ull) ^
                 (key.epoch * 0xBF58476D1CE4E5B9ull);
    for (const char c : key.engine) h = (h ^ static_cast<uint8_t>(c)) * 31;
    return static_cast<size_t>(h);
  }
};

// Counter snapshot; also the `cache` section of the service's STATS reply.
struct CacheStatsSnapshot {
  bool enabled = false;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;    // LRU byte-budget evictions
  uint64_t invalidated = 0;  // entries purged by AdvanceEpoch / Clear
  // Selective-invalidation counters (live mutations).
  uint64_t selective_invalidated = 0;  // entries purged by ApplyAdd/Remove
  uint64_t stale_rejects = 0;  // inserts refused: sequence moved on
  uint64_t entries = 0;
  size_t bytes = 0;
  size_t capacity_bytes = 0;
  uint64_t epoch = 0;
  uint64_t mutation_seq = 0;
  // Filled by the service layer (the cache itself does not singleflight).
  uint64_t singleflight_shared = 0;
  uint64_t singleflight_waiting = 0;

  std::string ToJson() const;
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // False when configured off, budget is 0, or SGQ_CACHE disables it.
  bool enabled() const { return enabled_; }

  // Current database epoch; capture it *before* executing a query and use
  // the captured value for both Lookup and Insert.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Current mutation sequence; capture it together with the database
  // snapshot a query pins (the service does both under one mutex) and
  // pass the captured value to Lookup and Insert.
  uint64_t mutation_seq() const {
    return mutation_seq_.load(std::memory_order_acquire);
  }

  // On hit copies the stored result into *out, refreshes recency, and
  // counts a hit; otherwise counts a miss. Entries computed after
  // `pinned_seq` (the reader's snapshot) are refused — they may reflect
  // mutations the reader must not observe. Always a miss when disabled.
  bool Lookup(const CacheKey& key, uint64_t pinned_seq, QueryResult* out);

  // Stores a completed result (callers must not insert timed-out results);
  // overwrites an existing entry for the key, then evicts LRU entries
  // until the shard is back under its byte budget. Entries for epochs
  // other than the current one are accepted (they are simply unreachable
  // after the epoch moved on — harmless, purged by the next sweep).
  // The insert is refused (stale_rejects) when the mutation sequence has
  // moved past `pinned_seq`: the result was computed against a snapshot
  // whose selective purges already ran, so keeping it could resurrect an
  // invalidated answer set. `result.answers` must be the complete answer
  // set in ascending *global* id order (the membership test behind REMOVE
  // invalidation relies on it); `query_features` are the query's, for the
  // ADD subsumption test. No-op when disabled or when the entry alone
  // exceeds a shard's budget.
  void Insert(const CacheKey& key, const QueryResult& result,
              uint64_t pinned_seq, const GraphFeatures& query_features);

  // Selective invalidation. Both advance the mutation sequence and then
  // purge affected entries under the shard locks, returning the new
  // sequence once every purge completed. Callers must not let a reader
  // pin the new sequence before that return (see the file comment).
  //
  // ApplyAdd purges entries whose query could embed in the added graph
  // (MayEmbed on features). ApplyRemove purges entries whose answer set
  // contains the removed global id.
  uint64_t ApplyAdd(const GraphFeatures& added_graph);
  uint64_t ApplyRemove(GraphId global_id);

  // Bulk invalidation on RELOAD: advances the epoch (making every prior
  // entry unreachable) and purges all shards. Returns the new epoch.
  uint64_t AdvanceEpoch();

  // CACHE CLEAR: purges all shards without advancing the epoch.
  void Clear();

  CacheStatsSnapshot Stats() const;

 private:
  struct Entry {
    CacheKey key;
    QueryResult result;
    size_t bytes = 0;
    // Mutation sequence the result was computed at; readers pinned before
    // it must not see this entry.
    uint64_t seq = 0;
    // Query features for the ADD subsumption test.
    GraphFeatures features;
    // Bloom filter over the answer ids (fast negative for REMOVE purges).
    uint64_t answer_bloom = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHasher>
        map;
    size_t bytes = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[key.hash.lo % shards_.size()];
  }
  void PurgeAll(std::atomic<uint64_t>* counter);
  // Advances the sequence, then erases entries matching `affected` from
  // every shard; returns the new sequence.
  template <typename Predicate>
  uint64_t PurgeAffected(Predicate affected);

  const CacheConfig config_;
  const bool enabled_;
  const size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> mutation_seq_{0};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> selective_invalidated_{0};
  std::atomic<uint64_t> stale_rejects_{0};
};

// Approximate heap footprint of one cached result (used for the budget).
size_t CachedResultBytes(const CacheKey& key, const QueryResult& result);

}  // namespace sgq

#endif  // SGQ_CACHE_RESULT_CACHE_H_
