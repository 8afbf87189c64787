// Egress modules (paper §4.3): "push-based egress operators support
// interaction where clients are continually streamed query results, while
// pull-based egress operators may log data and support intermittent
// retrieval of results... and may encapsulate load shedding when the system
// is in danger of falling behind."

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "tuple/tuple.h"

namespace tcq {

/// One delivered result.
struct Delivery {
  uint64_t query_id = 0;
  Tuple tuple;
};

/// What to do when a push client's queue is full (QoS knob).
enum class ShedPolicy {
  kDropNewest,  ///< shed the arriving result
  kDropOldest,  ///< shed the stalest buffered result
  kBlock,       ///< apply back-pressure to the executor
};

const char* ShedPolicyName(ShedPolicy p);

/// Push egress: a bounded, thread-safe buffer the engine pushes into and a
/// streaming client drains.
class PushEgress {
 public:
  struct Options {
    size_t capacity = 1024;
    ShedPolicy shed = ShedPolicy::kDropOldest;
  };

  /// When `metrics` is null the egress observes itself in a private
  /// registry; `label` distinguishes clients sharing one registry. Shed
  /// counts are labeled by policy (tcq_egress_shed_total{policy="..."}).
  PushEgress() : PushEgress(Options()) {}
  explicit PushEgress(Options opts, MetricsRegistryRef metrics = nullptr,
                      std::string label = "");

  /// Engine side: one result batch of one query, under one lock, one
  /// wake-up and one update of each counter. Shedding stays per result: a
  /// full buffer sheds the batch's newest rows (kDropNewest), the stalest
  /// buffered rows (kDropOldest), or blocks row by row until the client
  /// makes room (kBlock; the counts and wake-up then also happen before
  /// each wait). Returns how many rows were buffered.
  size_t OfferBatch(uint64_t query_id, std::span<const Tuple> rows);

  /// Engine side: a batch of one. Returns false if the delivery was shed.
  bool Offer(const Delivery& delivery);

  /// Client side: non-blocking poll.
  bool Poll(Delivery* out);

  /// Client side: blocking receive; false once closed and drained.
  bool Receive(Delivery* out);

  void Close();

  /// Rows the client has polled or can still poll; shed() counts the rest,
  /// so delivered() + shed() is every row offered while open
  /// (tcq_egress_delivered_total and tcq_egress_shed_total).
  uint64_t delivered() const;
  uint64_t shed() const;
  size_t buffered() const;
  /// Control and revision tuples that passed through this client, counted
  /// by kind: a disconnect-and-diff client uses these to know whether its
  /// buffered answer set is still speculative.
  uint64_t punctuations_delivered() const;
  uint64_t retractions_delivered() const;
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Delivery> queue_;
  bool closed_ = false;
  MetricsRegistryRef metrics_;
  Counter* delivered_;
  Counter* shed_;
  Counter* punctuations_;
  Counter* retractions_;
  Gauge* buffered_gauge_;
};

/// Pull egress: logs results per query so intermittently connected clients
/// can fetch "what happened since I left" (PSoup-style delivery decoupling
/// at the egress boundary).
class PullEgress {
 public:
  struct Options {
    /// Retain at most this many results per query (0 = unbounded).
    size_t max_per_query = 0;
  };

  PullEgress() : PullEgress(Options()) {}
  explicit PullEgress(Options opts) : opts_(opts) {}

  /// Engine side.
  void Log(const Delivery& delivery);

  /// Client side: results of `query_id` with production ts > since.
  /// Returns the new cursor (max ts seen) to pass next time.
  Timestamp FetchSince(uint64_t query_id, Timestamp since,
                       std::vector<Tuple>* out) const;

  size_t LoggedCount(uint64_t query_id) const;

 private:
  Options opts_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::deque<Tuple>> log_;
};

}  // namespace tcq
