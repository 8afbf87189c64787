#include "ingress/wrapper.h"

#include <algorithm>
#include <chrono>

namespace tcq {

Wrapper::Wrapper(Options opts, MetricsRegistryRef metrics,
                 obs::TracerRef tracer)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)) {
  opts_.batch_max_size = std::max<size_t>(opts_.batch_max_size, 1);
  forwarded_ = metrics_->GetCounter("tcq_wrapper_tuples_forwarded_total");
  dropped_ = metrics_->GetCounter("tcq_wrapper_tuples_dropped_total");
  lost_on_close_ =
      metrics_->GetCounter("tcq_wrapper_tuples_lost_on_close_total");
  batch_size_ = metrics_->GetHistogram("tcq_wrapper_batch_size");
  flush_size_ = metrics_->GetCounter(
      MetricName("tcq_wrapper_batch_flush_total", "reason", "size"));
  flush_delay_ = metrics_->GetCounter(
      MetricName("tcq_wrapper_batch_flush_total", "reason", "delay"));
  flush_close_ = metrics_->GetCounter(
      MetricName("tcq_wrapper_batch_flush_total", "reason", "close"));
  punctuations_ = metrics_->GetCounter("tcq_wrapper_punctuations_total");
}

Wrapper::~Wrapper() { Stop(); }

FjordConsumer Wrapper::HostPullSource(
    std::unique_ptr<StreamSource> source,
    std::unique_ptr<ArrivalProcess> arrivals,
    std::optional<PunctuationPolicy> punctuation) {
  auto endpoints = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                               "streamer:" + source->name(), metrics_.get());
  auto task = std::make_unique<PullTask>();
  task->punct = punctuation.value_or(opts_.punctuation);
  task->late = metrics_->GetCounter(
      MetricName("tcq_wrapper_late_tuples_total", "stream", source->name()));
  task->source = std::move(source);
  task->arrivals = std::move(arrivals);
  task->producer = std::make_unique<FjordProducer>(endpoints.producer);
  tasks_.push_back(std::move(task));
  return endpoints.consumer;
}

std::pair<FjordProducer, FjordConsumer> Wrapper::HostPushSource(
    const std::string& name) {
  auto endpoints = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                               "streamer:" + name, metrics_.get());
  return {endpoints.producer, endpoints.consumer};
}

void Wrapper::Start() {
  if (started_.exchange(true)) return;
  stop_.store(false);
  for (auto& task : tasks_) {
    threads_.emplace_back([this, t = task.get()] { RunPullTask(t); });
  }
}

void Wrapper::RunPullTask(PullTask* task) {
  TupleBatch batch;
  int64_t oldest_us = 0;  // arrival of the oldest accumulated tuple
  const SourceId source_id = task->source->source_id();
  Timestamp max_ts = kMinTimestamp;   // newest event time forwarded
  Timestamp last_wm = kMinTimestamp;  // last punctuation emitted

  // Pushes the whole accumulated batch downstream (one queue lock per
  // attempt), honoring drop_on_full. Returns false when the streamer was
  // closed under us (the task is over).
  auto flush = [&](Counter* reason) -> bool {
    if (task->punct.enabled && max_ts != kMinTimestamp) {
      // Heartbeat rides the batch's control lane: promise that nothing will
      // arrive more than disorder_bound behind the newest timestamp seen.
      Timestamp wm = max_ts - task->punct.disorder_bound;
      if (wm > last_wm) {
        batch.AddPunctuation(Punctuation{source_id, wm});
        last_wm = wm;
        punctuations_->Inc();
      }
    }
    if (batch.empty() && batch.punctuations().empty()) return true;
    reason->Inc();
    batch_size_->Observe(batch.size());
    // Flush span: timed across full-queue retries, so blocked streamers
    // show up as long kWrapperFlush durations.
    bool sampled = tracer_ != nullptr && tracer_->ShouldSample();
    int64_t t0 = sampled ? NowMicros() : 0;
    while (true) {
      size_t before = batch.size();
      QueueOp op = task->producer->ProduceBatch(&batch);
      forwarded_->Inc(before - batch.size());
      feed_signal_.Ring();
      if (batch.empty() && batch.punctuations().empty()) {
        if (sampled) {
          tracer_->Record(obs::SpanKind::kWrapperFlush, batch.source(), 0, t0,
                          NowMicros() - t0);
        }
        return true;
      }
      if (op == QueueOp::kClosed) {
        // The consumer closed the streamer under us: the tuples in hand are
        // lost. Count them — silent data loss is a bug magnet.
        lost_on_close_->Inc(batch.size());
        batch.clear();
        return false;
      }
      // Queue full: non-blocking semantics let us choose a policy.
      if (opts_.drop_on_full) {
        dropped_->Inc(batch.size());
        batch.clear();
        return true;
      }
      if (stop_.load(std::memory_order_relaxed)) {
        dropped_->Inc(batch.size());
        batch.clear();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  Tuple tuple;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!task->source->Next(&tuple)) break;  // end of stream
    if (task->arrivals != nullptr) {
      Timestamp gap_us = task->arrivals->NextGap();
      if (gap_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
      }
    }
    if (batch.empty()) oldest_us = NowMicros();
    if (task->punct.enabled && tuple.IsData()) {
      // Behind the promised watermark: still forwarded (the window operator
      // owns the drop decision) but accounted per stream.
      if (tuple.timestamp() < last_wm) task->late->Inc();
      max_ts = std::max(max_ts, tuple.timestamp());
    }
    batch.push_back(std::move(tuple));
    bool size_trip = batch.size() >= opts_.batch_max_size;
    bool delay_trip =
        !size_trip && opts_.batch_max_delay_us > 0 &&
        NowMicros() - oldest_us >=
            static_cast<int64_t>(opts_.batch_max_delay_us);
    if (size_trip || delay_trip) {
      if (!flush(size_trip ? flush_size_ : flush_delay_)) return;
    }
  }
  flush(flush_close_);
  task->producer->Close();
  feed_signal_.Ring();
}

void Wrapper::Stop() {
  stop_.store(true);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& task : tasks_) task->producer->Close();
  feed_signal_.Ring();
  started_.store(false);
}

}  // namespace tcq
