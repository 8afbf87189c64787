// The Wrapper host (paper §4.2.3): "wrappers in TelegraphCQ are placed in a
// separate process, where they can be accessed in a non-blocking manner (a
// la Fjords)... the responsibility of fetching data from the network
// devolves to the Wrapper process, which uses a pool of threads to implement
// non-blocking I/O." Here the wrapper is a thread pool hosting pull sources
// (the wrapper drives them, paced by an arrival process) and push sources
// (the source's own thread pushes); both deliver to the executor through
// push-mode Fjords ("streamers").

#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/wakeup.h"
#include "fjords/fjord.h"
#include "ingress/rate.h"
#include "ingress/source.h"
#include "obs/trace.h"

namespace tcq {

/// Source-issued event-time heartbeats (DESIGN.md §12): with `enabled`, the
/// wrapper task tracks the max event timestamp it has forwarded and appends
/// `Punctuation{source, max_ts - disorder_bound}` to each flushed batch's
/// control lane — the promise that no later tuple will be more than
/// `disorder_bound` behind the newest seen. Tuples that arrive already
/// behind the last emitted watermark are counted (per-stream
/// tcq_wrapper_late_tuples_total) but still forwarded: the window operator
/// owns the drop decision.
///
/// NOTE: wrapper heartbeats describe ONE feed. When several feeds merge
/// into the same logical stream, use the server's per-stream disorder bound
/// (StreamOptions::punctuate), which min-combines across feeds after the
/// merge.
struct PunctuationPolicy {
  bool enabled = false;
  /// Max distance a tuple may lag the newest timestamp seen on the feed.
  Timestamp disorder_bound = 0;
};

class Wrapper {
 public:
  struct Options {
    /// Capacity of each streamer queue (back-pressure bound).
    size_t queue_capacity = 4096;
    /// When a streamer queue is full: true = drop the tuple (count it),
    /// false = retry until space (throttling the source).
    bool drop_on_full = false;
    /// Flush policy: a pull task accumulates tuples into a batch and pushes
    /// the whole batch downstream under one queue lock when either bound
    /// trips. batch_max_size = 1 degenerates to per-tuple forwarding.
    size_t batch_max_size = 64;
    /// Max time the oldest accumulated tuple may wait before the batch is
    /// flushed regardless of size (0 = no delay bound; flush on size or
    /// end-of-stream only). Checked between source pulls, so a source that
    /// stalls inside Next() can exceed this bound until it yields.
    uint64_t batch_max_delay_us = 1000;
    /// Default punctuation policy for hosted pull sources (overridable per
    /// source in HostPullSource).
    PunctuationPolicy punctuation;
  };

  /// When `metrics` is null the wrapper observes itself (and its streamer
  /// queues) in a private registry. A non-null `tracer` samples pull-task
  /// batch flushes (kWrapperFlush spans).
  Wrapper() : Wrapper(Options()) {}
  explicit Wrapper(Options opts, MetricsRegistryRef metrics = nullptr,
                   obs::TracerRef tracer = nullptr);
  ~Wrapper();

  /// Hosts a pull source: a wrapper thread drives `source->Next()` paced by
  /// `arrivals` (nullptr = as fast as possible) and pushes into the
  /// returned consumer endpoint. `punctuation` overrides the wrapper-wide
  /// policy for this source (nullopt = inherit Options::punctuation).
  FjordConsumer HostPullSource(
      std::unique_ptr<StreamSource> source,
      std::unique_ptr<ArrivalProcess> arrivals,
      std::optional<PunctuationPolicy> punctuation = std::nullopt);

  /// A push source: the caller (playing the remote data source that
  /// "connects to a well-known port served by the Wrapper") pushes tuples
  /// itself through the returned producer; the executor consumes from the
  /// returned consumer.
  std::pair<FjordProducer, FjordConsumer> HostPushSource(
      const std::string& name);

  /// Rung after every pull-source flush attempt and streamer close, so a
  /// consumer of the feeds can park on it. Whoever pushes into a
  /// HostPushSource producer rings it the same way.
  WorkSignal& feed_signal() { return feed_signal_; }

  /// Starts the pull threads.
  void Start();

  /// Stops all threads and closes all streamers.
  void Stop();

  uint64_t tuples_forwarded() const { return forwarded_->Value(); }
  uint64_t tuples_dropped() const { return dropped_->Value(); }
  /// Tuples a source produced after its streamer was closed downstream
  /// (e.g. Stop() raced an in-flight Produce). Lost, but accounted for.
  uint64_t tuples_lost_on_close() const { return lost_on_close_->Value(); }
  /// Punctuations appended to flushed batches across all hosted sources.
  uint64_t punctuations_emitted() const { return punctuations_->Value(); }
  const MetricsRegistryRef& metrics() const { return metrics_; }

 private:
  struct PullTask {
    std::unique_ptr<StreamSource> source;
    std::unique_ptr<ArrivalProcess> arrivals;
    std::unique_ptr<FjordProducer> producer;
    PunctuationPolicy punct;
    Counter* late = nullptr;  ///< tcq_wrapper_late_tuples_total{stream}
  };

  void RunPullTask(PullTask* task);

  Options opts_;
  WorkSignal feed_signal_;
  std::vector<std::unique_ptr<PullTask>> tasks_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  MetricsRegistryRef metrics_;
  obs::TracerRef tracer_;
  Counter* forwarded_;
  Counter* dropped_;
  Counter* lost_on_close_;
  /// Distribution of flushed batch sizes: tcq_wrapper_batch_size.
  Histogram* batch_size_;
  /// Flush cause: tcq_wrapper_batch_flush_total{reason=size|delay|close}.
  Counter* flush_size_;
  Counter* flush_delay_;
  Counter* flush_close_;
  /// Punctuations emitted: tcq_wrapper_punctuations_total.
  Counter* punctuations_;
};

}  // namespace tcq
