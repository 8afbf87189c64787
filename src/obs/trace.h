// Sampled dataflow tracing (DESIGN.md §9). A Tracer stamps monotonic-clock
// span events at each pipeline stage — wrapper flush, fjord enqueue/dequeue,
// eddy routing hop, SteM build/probe, PSoup probe, result flush, egress
// emit — for a deterministic 1-in-N sample of batches, and aggregates them
// into per-stage, per-module, and per-query latency histograms in the shared
// metrics registry. Raw spans additionally land in a lock-free per-thread
// ring (the flight recorder) for post-mortem dumps.
//
// Zero-cost-when-disabled contract: the batch path pays ONE relaxed atomic
// load (TraceBatchScope's enabled check); every downstream stage pays one
// thread-local read plus a null check. Only sampled batches touch the clock,
// the ring, or the histograms. All recorder state is per-thread or atomic,
// so recording is lock-free and TSan-clean.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace tcq::obs {

/// The span taxonomy: one kind per instrumented pipeline stage.
enum class SpanKind : uint8_t {
  kWrapperFlush = 0,  ///< wrapper batch flush into a streamer fjord
  kQueueEnqueue,      ///< producer-side delivery into a class fjord
  kQueueWait,         ///< fjord residence: first enqueue -> batch dequeue
  kEddyHop,           ///< one module invocation (eddy or shared eddy)
  kStemBuild,         ///< SteM insert
  kStemProbe,         ///< SteM equality/scan probe
  kPsoupProbe,        ///< PSoup disconnected-client invocation
  kResultFlush,       ///< one (batch, query) result flush: group projection
                      ///< and row assembly up to the sink call
  kEgressEmit,        ///< push-egress delivery of one result batch
  kEndToEnd,          ///< ingest enqueue -> egress emit, per result batch
};
inline constexpr size_t kNumSpanKinds = 10;

const char* SpanKindName(SpanKind kind);

/// One raw flight-recorder span.
struct Span {
  SpanKind kind = SpanKind::kEddyHop;
  /// Kind-dependent id: module slot for hops, source id for queue spans.
  uint32_t module = 0;
  /// Shard replica that processed the batch (0 for unsharded classes and
  /// stages upstream of shard routing).
  uint32_t shard = 0;
  /// Global query id for kEndToEnd / kPsoupProbe spans, else 0.
  uint64_t query = 0;
  int64_t start_us = 0;  ///< steady-clock microseconds (NowMicros)
  int64_t dur_us = 0;
};

struct TraceOptions {
  /// Master switch; also flippable at runtime via Tracer::set_enabled.
  bool enabled = false;
  /// Sample 1 of this many batches (1 = every batch, 0 treated as 1).
  uint32_t sample_period = 64;
  /// Seed of the per-thread deterministic sampling sequence.
  uint64_t seed = 42;
  /// Flight-recorder capacity: spans retained per recording thread, and the
  /// bound on what DumpFlightRecorder returns after the cross-thread merge.
  size_t ring_capacity = 4096;
};

class TraceBatchScope;

/// The span recorder. Instances are independent (no global state), so tests
/// and benches construct their own; the server owns one shared by every
/// component it wires. Thread-safe: recording is per-thread + atomics.
class Tracer {
 public:
  explicit Tracer(TraceOptions opts, MetricsRegistryRef metrics = nullptr);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The single hot-path check: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  const TraceOptions& options() const { return opts_; }

  /// Per-batch sampling decision on this thread's deterministic sequence.
  /// False whenever tracing is disabled. Producer-side samples (wrapper
  /// flush, fjord enqueue) call it directly and are not counted in
  /// batches_sampled(): only a TraceBatchScope opens a traced batch.
  bool ShouldSample();

  /// Records a raw span: flight-recorder ring + the per-stage histogram
  /// tcq_trace_span_us{stage=...}. Callers gate on an armed TraceContext
  /// (or their own ShouldSample), so this is only reached when sampled.
  void Record(SpanKind kind, uint32_t module, uint64_t query,
              int64_t start_us, int64_t dur_us);

  /// A routing hop: Record(kEddyHop) plus the per-module histogram
  /// tcq_trace_module_us{module=<name>}. `name` must outlive the tracer's
  /// use of it within the call (modules' names are stable).
  void RecordHop(size_t slot, const std::string& name, int64_t start_us,
                 int64_t dur_us);

  /// Ingest->result latency: Record(kEndToEnd) plus the per-query histogram
  /// tcq_trace_e2e_us{query="q<gid>"}.
  void RecordEndToEnd(uint64_t global_query, int64_t start_us,
                      int64_t latency_us);

  /// Per-tuple routing path length, into tcq_trace_eddy_hops (the
  /// routing-quality signal).
  void RecordHopCount(uint32_t hops);

  /// Merges every thread's ring, ordered by start time, keeping the last
  /// ring_capacity spans. Safe concurrently with recording (seqlock slots:
  /// a span being overwritten mid-read is skipped, not torn).
  std::vector<Span> DumpFlightRecorder() const;

  /// Batches whose TraceBatchScope was sampled: the batches that can carry
  /// downstream spans and an end-to-end span
  /// (tcq_trace_sampled_batches_total).
  uint64_t batches_sampled() const { return sampled_batches_->Value(); }
  uint64_t spans_recorded() const { return spans_total_->Value(); }
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  friend class TraceBatchScope;
  struct ThreadState;

  ThreadState* State();
  Histogram* ModuleHistogram(ThreadState* ts, const std::string& name);

  TraceOptions opts_;
  MetricsRegistryRef metrics_;
  std::atomic<bool> enabled_{false};
  /// Process-unique id keying the thread-local (tracer -> state) cache, so
  /// a stale cache entry from a destroyed tracer can never be revived.
  const uint64_t id_;

  Histogram* stage_us_[kNumSpanKinds];
  Histogram* hop_count_;
  Counter* sampled_batches_;
  Counter* spans_total_;

  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

using TracerRef = std::shared_ptr<Tracer>;

/// Thread-local marker for "the batch being processed on this thread is
/// sampled". Downstream stages (eddies, SteMs, egress) read it instead of
/// being plumbed a tracer: tracer == nullptr means inactive.
struct TraceContext {
  Tracer* tracer = nullptr;
  /// Enqueue time of the batch's oldest tuple, for end-to-end latency.
  int64_t ingest_us = 0;
  /// Shard replica pumping the current batch; stamped onto every span
  /// recorded under this context. Set by the sharded DU pump after arming
  /// (TraceBatchScope restores the previous context, shard included).
  uint32_t shard = 0;
};

/// This thread's context (never null; check .tracer for activity).
TraceContext& CurrentTrace();

/// RAII batch-scope arming. Constructed at batch boundaries (DU pump,
/// PSoup ingest, benches); makes the sampling decision and, when sampled,
/// arms CurrentTrace() for everything the batch synchronously touches.
class TraceBatchScope {
 public:
  /// `ingest_us` = enqueue timestamp of the batch (0 = now).
  explicit TraceBatchScope(Tracer* tracer, int64_t ingest_us = 0) {
    if (tracer == nullptr || !tracer->enabled()) return;
    Arm(tracer, ingest_us);
  }
  ~TraceBatchScope() {
    if (armed_) CurrentTrace() = saved_;
  }

  TraceBatchScope(const TraceBatchScope&) = delete;
  TraceBatchScope& operator=(const TraceBatchScope&) = delete;

  bool sampled() const { return armed_; }

 private:
  void Arm(Tracer* tracer, int64_t ingest_us);

  TraceContext saved_;
  bool armed_ = false;
};

}  // namespace tcq::obs
