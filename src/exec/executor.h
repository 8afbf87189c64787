// The TelegraphCQ executor (paper §4.2.2): maps continuous queries onto
// pre-emptively scheduled Execution Objects hosting non-preemptive Dispatch
// Units. "The goal is to separate queries into classes that have
// significant potential for sharing work... based on the set of streams and
// tables over which the queries are defined, which we call the query
// footprint." Each class owns a CACQ shared eddy behind one DU.
//
// Unlike the paper's snapshot — which creates classes only for DISJOINT
// footprints and leaves "class re-adjustment" as §4.2.2's open issue — this
// executor gives classes a full dynamic lifecycle:
//   * MERGE: a query whose footprint bridges existing classes is admitted by
//     merging the touched classes into one. The merge quiesces each DU at a
//     quantum boundary (Flux-style pause/drain), transfers SteM state and
//     live queries (lineage bits remapped into the survivor's QuerySet), and
//     moves the stream fjords' consumer endpoints — producers never repoint,
//     so no in-flight batch is lost or reordered.
//   * GC: removing a class's last query retires the class — its DU detaches,
//     fjords close, and stream ownership is released for later queries.
//   * MIGRATE: a background rebalance pass watches per-DU progress counters
//     and moves the busiest shard DU off the most-loaded EO when the
//     imbalance exceeds a threshold (enable via Options::rebalance).
//   * SHARD: with Options::shards > 1 each class runs as a ShardedClass —
//     N shared-eddy replicas partitioned Flux-style on the class's derived
//     join keys, pumped in parallel by per-shard DUs, with online skew
//     re-partitioning (see exec/sharded_class.h).

#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/metrics.h"
#include "common/wakeup.h"
#include "exec/dispatch_unit.h"
#include "exec/execution_object.h"
#include "exec/sharded_class.h"
#include "stem/stem.h"

namespace tcq {

/// Executor-global query handle (distinct from per-eddy QueryIds).
using GlobalQueryId = uint64_t;

class Executor {
 public:
  struct Options {
    /// Execution Objects (threads) hosting every DU: query-class shards and
    /// windowed queries alike. 0 is treated as 1.
    size_t num_eos = 2;
    size_t quantum = 64;
    size_t queue_capacity = 4096;
    bool ticket_scheduler = false;
    uint64_t seed = 42;
    /// Run the background rebalance pass (class migration across EOs).
    bool rebalance = false;
    uint64_t rebalance_interval_ms = 100;  ///< 0 runs as 1
    /// Migrate when the most-loaded EO's recent progress exceeds this
    /// multiple of the least-loaded EO's (and it hosts >= 2 DUs).
    double rebalance_imbalance_threshold = 2.0;
    /// Shard replicas per query class (1 = classic single-eddy classes).
    /// A class only actually fans out when its queries' join edges can be
    /// consistently co-partitioned; see exec/sharded_class.h.
    size_t shards = 1;
    /// Flux bucket count per sharded class (unit of load balancing).
    size_t shard_buckets = 64;
    /// Skew re-partition trigger: busiest shard's recent ingest exceeds
    /// this multiple of the least-busy shard's (rebalance pass must run).
    double shard_skew_threshold = 4.0;
    /// Minimum tuples ingested class-wide between skew checks.
    uint64_t shard_min_skew_volume = 256;
  };

  /// Receives (global id, result batch) deliveries; called from EO threads,
  /// once per (input batch, query) plus once per forwarded punctuation.
  using Sink = ResultSink;

  /// One live query class, as reported by Topology().
  struct ClassInfo {
    size_t id = 0;          ///< stable class index (survives merges of others)
    std::string name;       ///< the class label (shard 0 DU's name)
    size_t eo = 0;          ///< EO hosting shard 0 (migrates)
    SourceSet streams = 0;  ///< streams the class owns
    size_t num_queries = 0; ///< live queries routed to the class
    size_t shards = 1;      ///< current shard replica count
  };

  /// When `metrics` is null the executor observes itself (and everything it
  /// creates: EOs, query classes' shared eddies and SteMs, stream fjords) in
  /// a private registry. A non-null `tracer` is handed to every class DU so
  /// ingest batches can be trace-sampled end to end.
  Executor() : Executor(Options()) {}
  explicit Executor(Options opts, MetricsRegistryRef metrics = nullptr,
                    obs::TracerRef tracer = nullptr);
  ~Executor();

  /// Declares a stream the executor may route. `stem_opts` configures the
  /// shared SteM a class creates for it (e.g. join window).
  Status RegisterStream(SourceId source, SchemaRef schema,
                        StemOptions stem_opts = StemOptions{});

  /// Thread-safe ingestion of one tuple: a batch of one (see IngestBatch).
  Status IngestTuple(SourceId source, const Tuple& tuple);

  /// Thread-safe batch ingestion: routes the whole batch to the query class
  /// consuming its stream in ONE catalog lookup; the class partitions it
  /// across its shard replicas and moves each slice in whole-batch pushes.
  /// Returns:
  ///   * kNotFound            — the stream was never registered;
  ///   * kFailedPrecondition  — no active query class consumes the stream
  ///                            (the batch is dropped and counted, per-stream
  ///                            and globally), or the stream is closed;
  ///   * kResourceExhausted   — back-pressure outlasted its budget (20 ms
  ///                            waiting for room in a full shard fjord);
  ///                            the undelivered suffix is dropped and counted
  ///                            (per-stream and under the dedicated
  ///                            back-pressure counter — these tuples WERE
  ///                            routed, unlike the unrouted drops above).
  Status IngestBatch(TupleBatch batch);

  /// Closes a stream: its class eventually drains and completes.
  Status CloseStream(SourceId source);

  /// Submits a continuous query; blocks until the owning class's DUs admit
  /// it (milliseconds). A footprint bridging several classes first merges
  /// them (also blocking, at quantum boundaries). Result batches go to
  /// `sink`, data rows projected by `projection` when given (queries with
  /// equal attribute lists share the projected tuples); with shards > 1
  /// they arrive from several EO threads, serialized per query but not
  /// across queries.
  Result<GlobalQueryId> SubmitQuery(
      const CQSpec& spec, Sink sink,
      std::optional<Projection> projection = std::nullopt);

  /// Removes a query at the next quantum boundary. Removing a class's LAST
  /// query garbage-collects the class synchronously: the DUs detach from
  /// their EOs, the class fjords close, and stream ownership is released (a
  /// later query re-claims the streams with fresh fjords).
  Status RemoveQuery(GlobalQueryId id);

  /// Hosts a standalone DU (a windowed query) on the EO hosting the fewest
  /// DUs — the placement rule new query classes follow. The DU runs
  /// whenever the executor runs; the rebalance pass never moves it.
  void HostDispatchUnit(std::shared_ptr<DispatchUnit> du);

  /// Detaches a DU placed by HostDispatchUnit, blocking until its in-flight
  /// quantum (if any) finishes. Afterwards the caller owns the DU
  /// exclusively and may read or mutate its state, then host it again.
  void UnhostDispatchUnit(const std::shared_ptr<DispatchUnit>& du);

  /// Runs one rebalance pass immediately (also what the background thread
  /// does every rebalance_interval_ms). Returns true if a DU migrated.
  bool RebalanceOnce();

  /// Runs one skew check over every sharded class, re-partitioning online
  /// where per-shard ingest deltas exceed the threshold (also part of the
  /// background rebalance pass). Returns true if any class re-partitioned.
  bool RepartitionSkewedOnce();

  // --- Durable state (DESIGN.md §13) -----------------------------------------

  /// Snapshots every live query class into the writer: one "executor"
  /// section (the class count) followed by one "class" section per class
  /// (queries + partition map + SteM state, via ShardedClass::CheckpointTo).
  /// The caller must have blocked ingestion for the duration; EO threads
  /// keep running (they drain the class fjords and service the quiesce).
  Status CheckpointTo(CheckpointWriter* w);

  /// Builds the delivery binding (sink and projection) for one restored
  /// query, from its recorded global id.
  using SinkFactory = std::function<SinkBinding(GlobalQueryId)>;

  /// Rebuilds the query classes from a checkpoint: re-drives each recorded
  /// admission under its ORIGINAL global id (deterministic footprint
  /// grouping reproduces the class shapes), re-applies the recorded Flux
  /// bucket maps, then replays SteM entries with their original seqs and
  /// jumps the seq horizons. Streams must already be re-registered. The
  /// executor must be freshly constructed (no queries admitted). Returns
  /// the number of SteM entries replayed.
  Result<uint64_t> RestoreFrom(CheckpointReader* r, const SinkFactory& sinks);

  void Start();
  void Stop();

  /// Live query classes only (merged-away and GC'd classes are excluded).
  size_t num_classes() const;
  size_t num_eos() const { return eos_.size(); }
  /// EOs parked right now (each waits for a ring through one of its DUs).
  size_t parked_eos() const;
  /// Snapshot of the live class -> EO topology.
  std::vector<ClassInfo> Topology() const;

  uint64_t tuples_dropped_unrouted() const {
    return dropped_unrouted_->Value();
  }
  uint64_t tuples_dropped_backpressure() const {
    return dropped_backpressure_->Value();
  }
  /// Tuples dropped on one stream (unrouted, closed, or back-pressured
  /// past the retry budget). 0 for unknown streams.
  uint64_t stream_tuples_dropped(SourceId source) const;
  /// The owning class's merged (min across shard replicas) event-time
  /// watermark of `source`; kMinTimestamp for unknown/unpunctuated streams.
  Timestamp stream_watermark(SourceId source) const;
  uint64_t class_merges() const { return merges_->Value(); }
  uint64_t class_migrations() const { return migrations_->Value(); }
  uint64_t class_gcs() const { return gcs_->Value(); }
  /// Online shard re-partitions across all live classes (the expansion at
  /// a class's first admission is not one).
  uint64_t class_repartitions() const;
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  struct StreamInfo {
    SchemaRef schema;
    StemOptions stem_opts;
    /// Owning class (null until claimed). Shared so a concurrent
    /// IngestBatch keeps the class alive while a GC pass releases the
    /// stream or a merge retires the class.
    std::shared_ptr<ShardedClass> owner;
    size_t owner_class = SIZE_MAX;
    /// Drops on this stream: tcq_executor_stream_dropped_total{stream=...}.
    Counter* dropped = nullptr;
  };

  struct QueryClass {
    std::shared_ptr<ShardedClass> sc;
    SourceSet streams = 0;
    bool live = false;  ///< false once merged away or GC'd
  };

  struct QueryInfo {
    size_t query_class = SIZE_MAX;
    QueryId local_id = 0;
  };

  /// The EO hosting the fewest DUs (caller holds mu_).
  size_t LeastLoadedEo() const;
  /// Finds or creates the class covering `footprint`, merging every touched
  /// class into one when the footprint bridges them (caller holds mu_).
  Result<size_t> ClassFor(SourceSet footprint);
  /// Merges class `src` into class `dst`: collapses both to one shard,
  /// quiesces, transfers eddy/SteM state, remaps query lineage, moves fjord
  /// consumers (caller holds mu_; both classes must be live).
  void MergeClassInto(size_t dst, size_t src);
  /// Retires a live class with no queries left (caller holds mu_).
  void GcClass(size_t cls);
  /// Rewrites queries_ local ids for `cls` after a shard re-partition
  /// re-admitted them (caller holds mu_; applied in one pass, whole-map).
  void ApplyRemap(size_t cls, const ShardedClass::RemapMap& remap);
  /// Restores one "class" checkpoint section: re-admission + bucket map +
  /// SteM replay (caller holds mu_). Adds replayed-entry count to *replayed.
  Status RestoreClass(CheckpointReader* r, const SinkFactory& sinks,
                      uint64_t* replayed);
  size_t CountLiveClasses() const;  // caller holds mu_
  bool RebalanceLocked();           // caller holds mu_
  bool SkewLocked();                // caller holds mu_
  void RebalanceLoop();

  Options opts_;
  mutable std::mutex mu_;
  std::map<SourceId, StreamInfo> streams_;
  std::vector<QueryClass> classes_;
  std::map<GlobalQueryId, QueryInfo> queries_;
  GlobalQueryId next_query_id_ = 1;
  size_t next_class_label_ = 0;  // DU/eddy labels stay unique across GC
  std::vector<std::unique_ptr<ExecutionObject>> eos_;
  MetricsRegistryRef metrics_;
  obs::TracerRef tracer_;
  Counter* dropped_unrouted_;
  Counter* dropped_backpressure_;
  Counter* merges_;
  Counter* migrations_;
  Counter* gcs_;
  Counter* rebalance_passes_;  // background passes only
  Gauge* classes_gauge_;
  bool started_ = false;
  std::thread rebalance_thread_;
  StopFlag rebalance_stop_;
};

}  // namespace tcq
