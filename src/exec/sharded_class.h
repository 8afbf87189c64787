// Flux-sharded query class: one CACQ query class partitioned across N shard
// replicas (paper §2.4 applied INTRA-process). Each shard is a full
// SharedEddy — own SteMs, routing state, decision cache — behind its own
// SharedCQDispatchUnit, so shards pump in parallel on separate Execution
// Objects with zero shared mutable dataflow state. Ingested batches are
// split per tuple by Partitioner::BucketOf over the class's derived join
// keys (round-robin for keyless streams); result batches from all shards
// fan back through a per-query merge mutex into the existing egress sinks.
//
// Correctness argument: partition keys are derived from the UNION of every
// member query's equality-join edges, with a conflict (one stream needing
// two different keys) collapsing the class to one shard. Hence whenever the
// class runs >1 shard, every join edge of every query is co-partitioned —
// matching tuples always meet in the same shard — and single-source queries
// are per-tuple, so the union of shard outputs equals the single-eddy
// output as a multiset.
//
// Online re-partition (Flux §4: pause/drain/move/resume) reuses the
// executor's quiesce + ExportState machinery: quiesce every shard at a
// quantum boundary, drain queued-but-UNPROCESSED tuples into a carryover
// (they re-inject untouched, so a query admitted right after still sees
// them), rebuild fresh replicas, re-admit queries in export order (FIFO
// determinism keeps local ids identical across shards), redistribute SteM
// entries by the new bucket map PRESERVING original seqs, and jump every
// replica's seq horizon past all exporters' — the same argument that makes
// ImportState exactly-once makes replayed entries probe-correct.

#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "exec/dispatch_unit.h"
#include "exec/execution_object.h"
#include "exec/partitioner.h"
#include "fjords/fjord.h"
#include "storage/checkpoint.h"

namespace tcq {

class ShardedClass {
 public:
  struct Options {
    /// Desired replica count; the EFFECTIVE count drops to 1 when the
    /// member queries' join edges cannot be consistently co-partitioned.
    size_t shards = 1;
    size_t quantum = 64;
    size_t queue_capacity = 4096;
    /// Flux bucket count: the unit of load balancing (keys hash to buckets,
    /// buckets map to shards, re-partition moves buckets).
    size_t buckets = 64;
    /// Re-partition when the busiest shard's recent ingest exceeds this
    /// multiple of the least-busy shard's.
    double skew_threshold = 4.0;
    /// Minimum tuples ingested (across shards) since the last check before
    /// a skew re-partition may trigger.
    uint64_t min_skew_volume = 256;
    /// Routing-policy seed (shard k uses seed + k).
    uint64_t seed = 42;
  };

  /// RouteBatch outcome. kRetired means this class was merged away — the
  /// caller must re-resolve the stream's owner and retry there.
  enum class RouteResult { kOk, kWouldBlock, kClosed, kRetired };

  /// Old-local-id -> new-local-id, reported whole so the executor can remap
  /// its query table in one aliasing-free pass.
  using RemapMap = std::map<QueryId, QueryId>;
  using RemapFn = std::function<void(const RemapMap&)>;

  /// `eos` are the executor's Execution Objects (stable for the executor's
  /// lifetime); shards attach to them by index. RouteBatch rings the EO of
  /// each shard it fed once the whole batch is enqueued (an EO hosting
  /// several fed shards once), and CloseStream rings every shard's EO.
  ShardedClass(std::string label, Options opts,
               std::vector<ExecutionObject*> eos, MetricsRegistryRef metrics,
               obs::TracerRef tracer);

  const std::string& label() const { return label_; }
  size_t num_shards() const { return shards_.size(); }
  /// Re-partitions of a class with member queries. The expansion from one
  /// shard to N at the class's first admission moves no state and is not
  /// counted.
  uint64_t repartitions() const { return repartitions_->Value(); }

  // --- Structural operations (serialized by the executor's mutex) ------------

  /// Adds a stream route: one fresh fjord per shard, stream registered on
  /// every replica. New claims start keyless (round-robin); the next
  /// AdmitQuery derives partition keys and re-partitions if needed.
  void ClaimStream(SourceId source, SchemaRef schema, StemOptions stem_opts);

  /// Closes every shard's producer for the stream. False if not routed here.
  bool CloseStream(SourceId source);

  /// Admits a query on EVERY shard replica (identical local ids, enforced).
  /// First re-derives partition keys including the new spec's join edges and
  /// re-partitions when the layout must change — with the admission tasks
  /// queued ahead of re-attachment, so the new query sees every carried-over
  /// tuple. The binding's sink is wrapped with a per-query mutex: shards
  /// deliver concurrently, but any one query's result batches stay
  /// serialized (the mutex is taken once per batch).
  Result<QueryId> AdmitQuery(const CQSpec& spec, SinkBinding binding,
                             bool started, const RemapFn& remap);

  /// Broadcasts removal to every shard at its next quantum boundary.
  void RemoveQuery(QueryId local);

  /// Forces the class to exactly `shards` replicas (no-op when already
  /// there). The executor collapses classes to 1 shard before a merge so
  /// the disjoint-stream ImportState path applies unchanged.
  void RepartitionTo(size_t shards, const RemapFn& remap);

  /// Checks per-shard ingest since the last check that saw at least
  /// min_skew_volume tuples (or since the last re-partition); on skew past
  /// the threshold, rebuilds the bucket->shard map by LPT over observed
  /// bucket counts and re-partitions online. Returns true if a
  /// re-partition ran.
  bool MaybeRepartitionForSkew(const RemapFn& remap);

  /// Merges `src` (another class, both collapsed to 1 shard) into this one:
  /// the single-shard eddies go through ExportState/ImportState, fjord
  /// consumers move with their queued tuples, and src's routes are adopted
  /// producers-and-all (producers are never repointed — the Flux marker
  /// point). src is left retired: in-flight RouteBatch callers get kRetired
  /// and re-resolve to this class. Returns src's lineage remap.
  RemapMap AbsorbSingleShard(ShardedClass* src);

  /// GC: detaches every shard from its EO, closes all stream producers
  /// (concurrent ingesters see kClosed), and drops the replicas.
  void Shutdown();

  // --- Durable state (DESIGN.md §13; serialized by the executor's mutex) -----

  /// Snapshots the class as one "class" checkpoint section: member queries
  /// (gid + spec, admission order), the Flux bucket->shard map, every
  /// shard's SteM entries with original seqs, and the max seq horizon.
  /// Rides the quiesce protocol: waits (bounded) for the shard fjords to
  /// drain — the caller must have blocked ingest; EO threads do the
  /// draining — then detaches + quiesces each shard DU, serializes, and
  /// re-attaches. Event-time merge state is NOT exported: like a
  /// re-partition, a restored class re-earns watermarks from the next
  /// punctuation broadcast (conservative, can only delay firing).
  Status CheckpointTo(CheckpointWriter* w);

  /// Restore path, on a FRESH class (queries re-admitted, no data ingested
  /// yet): adopts a recorded bucket->shard map. Owners are taken modulo the
  /// current shard count, so a checkpoint from a different effective count
  /// still routes consistently.
  void ApplyBucketOwners(const std::vector<uint32_t>& owner);

  /// Replays one checkpointed SteM entry, routed by the current partition
  /// map exactly like Repartition's redistribution step. Returns false
  /// (entry dropped) when the stream is not routed here — e.g. a stream
  /// whose last interested query was removed before the checkpoint.
  bool ReplayStemEntry(SourceId source, const Tuple& tuple, Timestamp seq);

  /// Jumps every replica's sequence horizon past the exporters' so replayed
  /// entries stay probe-visible to all future tuples.
  void AdvanceSeqHorizons(Timestamp horizon);

  // --- Data path (thread-safe, called WITHOUT the executor mutex) ------------

  /// Partitions the batch's tuples across shards and pushes each slice into
  /// that shard's fjord. Tuples that did not fit are left in `*batch`
  /// (per-shard order preserved) for the caller to retry or count.
  RouteResult RouteBatch(TupleBatch* batch);

  /// Back-pressure wait after a kWouldBlock RouteBatch: blocks until every
  /// full shard fjord of `source` has room (or closed), or until `deadline`.
  void WaitForRoom(SourceId source,
                   std::chrono::steady_clock::time_point deadline);

  // --- Per-shard scheduling surface (executor rebalance pass) ----------------

  std::shared_ptr<SharedCQDispatchUnit> shard_du(size_t shard) const {
    return shards_[shard].du;
  }
  size_t shard_eo(size_t shard) const { return shards_[shard].eo; }
  void set_shard_eo(size_t shard, size_t eo) { shards_[shard].eo = eo; }
  /// Progress (quanta that did work) since the last call, for EO load
  /// estimation; snapshot kept per shard.
  uint64_t TakeProgressDelta(size_t shard);

  /// Merged (min-combined across shard replicas) event-time watermark of a
  /// source, kMinTimestamp until every shard has applied a broadcast
  /// punctuation for it. Test/introspection surface.
  Timestamp merged_watermark(SourceId source);

 private:
  struct Shard {
    std::shared_ptr<SharedCQDispatchUnit> du;
    size_t eo = 0;
    uint64_t last_progress = 0;  ///< rebalance snapshot
    uint64_t last_ingest = 0;    ///< skew-detection snapshot
    Counter* ingest = nullptr;   ///< tcq_shard_ingest_total{shard=...}
    Gauge* occupancy = nullptr;  ///< tcq_shard_occupancy{shard=...}
  };

  struct Route {
    SchemaRef schema;
    StemOptions stem_opts;
    bool closed = false;
    /// Partition key attribute ("" = keyless, round-robin) and its field
    /// position in the schema.
    std::string key_attr;
    size_t key_field = 0;
    /// One producing endpoint + fjord per shard (index = shard).
    std::vector<std::shared_ptr<FjordProducer>> producers;
    std::vector<std::shared_ptr<Fjord>> fjords;
  };

  Shard MakeShard(size_t k, size_t eo);
  std::string FjordName(SourceId source, size_t shard, size_t total) const;
  /// Partition keys implied by all member specs (+ `extra` if non-null):
  /// source -> join attr. nullopt = conflicting requirements (unshardable).
  std::optional<std::map<SourceId, std::string>> DeriveKeys(
      const CQSpec* extra) const;
  /// The full pause/drain/move/resume protocol; see the header comment.
  /// `owner` is the bucket->shard map (empty = round-robin buckets). When
  /// `attach_after` is false the rebuilt shard DUs are left detached for the
  /// caller to queue admission tasks ahead of re-attachment.
  void Repartition(size_t new_count, std::map<SourceId, std::string> new_keys,
                   std::vector<size_t> owner, const RemapFn& remap,
                   bool attach_after);
  void AttachShards();
  RouteResult RouteBatchLocked(Route* r, TupleBatch* batch);
  void UpdateOccupancy();
  /// Shard `shard`'s eddy applied punctuation `p` (EO thread). Min-combines
  /// across replicas; when the MERGED watermark advances, a fresh
  /// punctuation tuple fans out to every member query's sink — the class's
  /// outward event-time promise.
  void OnShardPunctuation(size_t shard, const Punctuation& p);

  std::string label_;
  Options opts_;
  std::vector<ExecutionObject*> eos_;
  MetricsRegistryRef metrics_;
  obs::TracerRef tracer_;

  /// Guards routes_/shards_/parts_ against concurrent RouteBatch: the data
  /// path holds it shared; every structural mutation holds it exclusive.
  mutable std::shared_mutex route_mu_;
  std::map<SourceId, Route> routes_;
  std::vector<Shard> shards_;
  bool retired_ = false;  ///< merged away; routes moved to the survivor

  Partitioner parts_;
  std::unique_ptr<std::atomic<uint64_t>[]> bucket_counts_;
  std::atomic<uint64_t> rr_next_{0};

  /// Member specs under their CURRENT local ids (mirrors the replicas'
  /// registries) — the input to key derivation and re-admission.
  std::map<QueryId, CQSpec> specs_;

  /// Event-time merge state. Punctuations are broadcast to every shard
  /// (duplicates are idempotent: watermarks are monotone maxes), each
  /// shard's eddy reports what it applied through OnShardPunctuation, and
  /// the min across replicas is the class watermark. punct_mu_ also
  /// serializes the fan-out so sinks see monotone punctuation sequences.
  std::mutex punct_mu_;
  ShardMergedWatermark merged_wm_;
  /// Member queries' bindings under their local ids (the same wrapped
  /// sinks BindSink installs), for control fan-out.
  std::map<QueryId, SinkBinding> punct_sinks_;

  Counter* repartitions_;
  Histogram* pause_us_;
  Gauge* shard_count_gauge_;
};

}  // namespace tcq
