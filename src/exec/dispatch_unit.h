// Dispatch Units (paper §4.2.2): "non-preemptive Dispatch Units that can be
// executed based on some scheduling policy... DUs are merely abstractions
// that represent entities that perform work in the system. DUs are
// responsible for maintaining their own state." A DU runs as a state
// machine: each Step() performs a bounded quantum of work and reports
// whether it progressed, idled, or finished.

#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cacq/shared_eddy.h"
#include "fjords/fjord.h"
#include "obs/trace.h"
#include "operators/projection.h"
#include "window/window_exec.h"

namespace tcq {

/// One query's result rows from one flush: the unit every result sink takes.
using ResultRows = std::span<const Tuple>;

/// Receives a batch of one query's results under its executor-global id.
using ResultSink = std::function<void(uint64_t global_id, ResultRows rows)>;

/// Where one query's results go: the sink, and the projection applied to
/// data rows before they reach it (nullopt = result tuples as they are).
struct SinkBinding {
  uint64_t global_id = 0;
  ResultSink sink;
  std::optional<Projection> projection;
};

class DispatchUnit {
 public:
  enum class StepResult {
    kProgress,  ///< did work; schedule again soon
    kIdle,      ///< nothing to do right now (inputs empty)
    kDone,      ///< inputs exhausted and all work finished
  };

  explicit DispatchUnit(std::string name) : name_(std::move(name)) {}
  virtual ~DispatchUnit() = default;

  const std::string& name() const { return name_; }

  /// Performs one bounded, non-preemptive quantum of work.
  virtual StepResult Step() = 0;

  /// Step counters are atomics: the owning EO updates them from its thread
  /// while the executor's rebalance pass reads them to estimate per-DU load.
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  uint64_t progress_steps() const {
    return progress_steps_.load(std::memory_order_relaxed);
  }

 protected:
  void CountStep(StepResult r) {
    steps_.fetch_add(1, std::memory_order_relaxed);
    if (r == StepResult::kProgress) {
      progress_steps_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  std::string name_;
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> progress_steps_{0};
};

/// The shared "continuous query" mode DU (paper §4.2.2 mode 3): one CACQ
/// shared eddy serving every query of one query class, fed by the class's
/// stream inputs. New queries arrive through a thread-safe plan queue (the
/// QPQueue analog) and are folded in between quanta.
///
/// Results leave batch-shaped. While the eddy ingests one input batch the
/// DU collects each query's deliveries; it then flushes one row batch per
/// (input batch, query) to that query's sink, and always flushes before it
/// forwards a punctuation to the control sink, so no punctuation overtakes
/// the data rows of its own batch. Queries with identical projection lists
/// form one projection group: each result is projected once per group, and
/// every query of the group receives the same immutable projected Tuple.
class SharedCQDispatchUnit : public DispatchUnit {
 public:
  struct Options {
    /// Max tuples ingested per Step.
    size_t quantum = 64;
  };

  SharedCQDispatchUnit(std::string name, std::unique_ptr<SharedEddy> eddy,
                       Options opts);

  /// Thread-safe: attaches a stream input (consumed round-robin from the
  /// next quantum on).
  void AddInput(SourceId source, FjordConsumer consumer);

  /// Thread-safe: enqueues an admission task executed against the eddy at
  /// the next quantum boundary (the QPQueue analog). Used for query
  /// add/remove and for registering streams a new query introduces.
  void SubmitTask(std::function<void(SharedEddy*)> task);

  /// Routes a local query id's deliveries to a sink under its global id,
  /// joining the projection group of its attribute list. Must be called
  /// from a submitted task (DU thread) or while the DU is detached.
  void BindSink(QueryId local, SinkBinding binding);
  void UnbindSink(QueryId local);

  StepResult Step() override;

  SharedEddy* eddy() { return eddy_.get(); }

  /// Attaches the dataflow tracer: each ingest quantum becomes a potential
  /// trace batch (sampling decided per batch). Call before the DU runs.
  void set_tracer(obs::TracerRef tracer) { tracer_ = std::move(tracer); }

  /// Routes punctuations the eddy applies to a per-shard observer (the
  /// sharded class's min-combine). Call before the DU runs; invoked from
  /// the DU thread during IngestBatch, after the batch's rows are flushed.
  void set_control_sink(std::function<void(const Punctuation&)> sink);

  /// Shard replica id this DU pumps (stamped on every sampled span). Call
  /// before the DU runs; defaults to 0 for unsharded classes.
  void set_shard(uint32_t shard) { shard_ = shard; }
  uint32_t shard() const { return shard_; }

  // --- Quiesce protocol (class merge / GC / migration) ------------------------
  // The methods below are safe ONLY while the DU is detached from every EO
  // (ExecutionObject::RemoveDispatchUnit blocks until the current quantum
  // finishes, so after it returns the caller owns the DU exclusively).

  /// Runs every pending plan-queue task and folds pending inputs in — the
  /// work a Step() would do at its next quantum boundary, without ingesting.
  void Quiesce();

  /// Moves every stream input (active and pending) out of the DU, preserving
  /// per-stream order: the FjordConsumer endpoints carry their queued tuples
  /// with them, so re-attaching them to another DU loses nothing. Inputs
  /// whose fjords already closed and drained are dropped (nothing left to
  /// consume).
  std::vector<std::pair<SourceId, FjordConsumer>> DetachInputs();

  /// Moves the delivery table (local id -> binding) out of the DU, for
  /// rebinding under remapped local ids in a merge target.
  std::map<QueryId, SinkBinding> TakeSinks();

 private:
  /// A projection shared by every bound query with the same attribute list.
  /// inputs/outputs hold the results collected since the last flush, each
  /// at most once (see Collect) and projected at the first flush needing it.
  struct ProjectionGroup {
    Projection projection;
    size_t users = 0;
    std::vector<Tuple> inputs;
    std::vector<Tuple> outputs;
  };
  /// A bound query and its deliveries since the last flush: raw rows when
  /// it has no projection, else indices into its group's inputs.
  struct BoundQuery {
    SinkBinding binding;
    int group = -1;
    bool pending = false;
    std::vector<Tuple> rows;
    std::vector<uint32_t> refs;
  };

  void DrainPlanQueue();
  /// The eddy's output callback: records one delivery for one query.
  void Collect(QueryId local, const Tuple& t);
  /// Hands every query's collected rows to its sink, one batch per query.
  void Flush();
  int GroupFor(const std::vector<AttrRef>& attrs);

  Options opts_;
  std::unique_ptr<SharedEddy> eddy_;
  obs::TracerRef tracer_;
  uint32_t shard_ = 0;
  struct Input {
    SourceId source;
    FjordConsumer consumer;
    bool exhausted = false;
  };
  std::vector<Input> inputs_;
  size_t next_input_ = 0;

  std::mutex plan_mu_;
  std::deque<std::function<void(SharedEddy*)>> pending_tasks_;
  std::vector<Input> pending_inputs_;
  // DU-thread-only delivery table, indexed by local query id.
  std::vector<std::optional<BoundQuery>> bound_;
  std::vector<ProjectionGroup> groups_;
  /// Queries with collected rows, in first-delivery order.
  std::vector<QueryId> pending_;
};

/// A windowed-query DU: drives an OnlineWindowRunner from stream inputs and
/// delivers fired windows to a sink.
class WindowedQueryDispatchUnit : public DispatchUnit {
 public:
  using WindowSink = std::function<void(const WindowResult&)>;

  WindowedQueryDispatchUnit(
      std::string name, WindowedQuery query, WindowSink sink,
      size_t quantum = 64,
      OnlineWindowRunner::Options runner_opts = OnlineWindowRunner::Options());

  void AddInput(SourceId source, FjordConsumer consumer);

  StepResult Step() override;

  const OnlineWindowRunner& runner() const { return runner_; }

  /// Durable state (DESIGN.md §13): checkpoint export/restore needs the
  /// runner itself. Only safe while the DU is detached from its EO
  /// (Executor::UnhostDispatchUnit) or its EO is not running.
  OnlineWindowRunner* mutable_runner() { return &runner_; }

 private:
  OnlineWindowRunner runner_;
  WindowSink sink_;
  size_t quantum_;
  struct Input {
    SourceId source;
    FjordConsumer consumer;
    bool exhausted = false;
  };
  std::vector<Input> inputs_;
  size_t next_input_ = 0;
};

}  // namespace tcq
