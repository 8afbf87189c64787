#include "egress/egress.h"

#include <chrono>

#include "obs/trace.h"

namespace tcq {

const char* ShedPolicyName(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kDropNewest:
      return "drop-newest";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
    case ShedPolicy::kBlock:
      return "block";
  }
  return "?";
}

PushEgress::PushEgress(Options opts, MetricsRegistryRef metrics,
                       std::string label)
    : opts_(opts), metrics_(OrPrivateRegistry(std::move(metrics))) {
  delivered_ = metrics_->GetCounter(
      MetricName("tcq_egress_delivered_total", "client", label));
  // Shed counts carry the policy so a dashboard can tell intentional
  // drop-oldest QoS from back-pressure starvation at a glance.
  std::string shed_name =
      label.empty()
          ? MetricName("tcq_egress_shed_total", "policy",
                       ShedPolicyName(opts_.shed))
          : "tcq_egress_shed_total{client=\"" + EscapeLabelValue(label) +
                "\",policy=\"" + ShedPolicyName(opts_.shed) + "\"}";
  shed_ = metrics_->GetCounter(shed_name);
  buffered_gauge_ = metrics_->GetGauge(
      MetricName("tcq_egress_buffered", "client", label));
  punctuations_ = metrics_->GetCounter(
      MetricName("tcq_egress_punctuations_total", "client", label));
  retractions_ = metrics_->GetCounter(
      MetricName("tcq_egress_retractions_total", "client", label));
}

size_t PushEgress::OfferBatch(uint64_t query_id,
                              std::span<const Tuple> rows) {
  // Sampled-batch context: the shared eddy delivers to egress synchronously
  // on the ingesting thread, so the context armed at the batch boundary is
  // still live here; emit + end-to-end spans close the trace.
  obs::TraceContext& tc = obs::CurrentTrace();
  int64_t t0 = tc.tracer != nullptr ? NowMicros() : 0;
  size_t accepted = 0;
  // Counts gathered since the last publish: rows buffered, and how many of
  // them count as delivered. A row that evicts a stale one under
  // kDropOldest takes over the evicted row's delivered count (the evicted
  // row is counted shed instead), so delivered + shed = rows offered and
  // delivered = rows polled + rows still buffered.
  size_t pending = 0;
  size_t delivered = 0;
  uint64_t shed = 0;
  uint64_t punctuations = 0;
  uint64_t retractions = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Counters move under the lock, at the end of the batch and before every
    // kBlock wait, so a client that has polled a row always sees it counted.
    auto publish = [&] {
      if (shed > 0) shed_->Inc(shed);
      if (punctuations > 0) punctuations_->Inc(punctuations);
      if (retractions > 0) retractions_->Inc(retractions);
      if (delivered > 0) delivered_->Inc(delivered);
      if (pending > 0) {
        buffered_gauge_->Set(static_cast<int64_t>(queue_.size()));
        cv_.notify_all();
      }
      pending = delivered = 0;
      shed = punctuations = retractions = 0;
    };
    for (const Tuple& t : rows) {
      if (closed_) break;
      bool evicted = false;
      if (queue_.size() >= opts_.capacity) {
        if (opts_.shed == ShedPolicy::kDropNewest) {
          shed += rows.size() - accepted;  // this row and every later one
          break;
        }
        if (opts_.shed == ShedPolicy::kDropOldest) {
          queue_.pop_front();
          ++shed;
          evicted = true;
        } else {
          // kBlock: let the client see (and count) the rows buffered so
          // far, then wait for room.
          publish();
          cv_.wait(lock,
                   [&] { return closed_ || queue_.size() < opts_.capacity; });
          if (closed_) break;
        }
      }
      if (t.valid()) {
        if (t.IsPunctuation()) ++punctuations;
        if (t.IsRetraction()) ++retractions;
      }
      queue_.push_back(Delivery{query_id, t});
      ++accepted;
      ++pending;
      if (!evicted) ++delivered;
    }
    publish();
  }
  if (tc.tracer != nullptr && accepted > 0) {
    int64_t now = NowMicros();
    tc.tracer->Record(obs::SpanKind::kEgressEmit, 0, query_id, t0, now - t0);
    if (tc.ingest_us > 0) {
      tc.tracer->RecordEndToEnd(query_id, tc.ingest_us, now - tc.ingest_us);
    }
  }
  return accepted;
}

bool PushEgress::Offer(const Delivery& delivery) {
  return OfferBatch(delivery.query_id, {&delivery.tuple, 1}) == 1;
}

bool PushEgress::Poll(Delivery* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  buffered_gauge_->Set(static_cast<int64_t>(queue_.size()));
  cv_.notify_all();
  return true;
}

bool PushEgress::Receive(Delivery* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  buffered_gauge_->Set(static_cast<int64_t>(queue_.size()));
  cv_.notify_all();
  return true;
}

void PushEgress::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

uint64_t PushEgress::delivered() const { return delivered_->Value(); }

uint64_t PushEgress::shed() const { return shed_->Value(); }

uint64_t PushEgress::punctuations_delivered() const {
  return punctuations_->Value();
}

uint64_t PushEgress::retractions_delivered() const {
  return retractions_->Value();
}

size_t PushEgress::buffered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void PullEgress::Log(const Delivery& delivery) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<Tuple>& q = log_[delivery.query_id];
  q.push_back(delivery.tuple);
  if (opts_.max_per_query > 0 && q.size() > opts_.max_per_query) {
    q.pop_front();
  }
}

Timestamp PullEgress::FetchSince(uint64_t query_id, Timestamp since,
                                 std::vector<Tuple>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  Timestamp cursor = since;
  auto it = log_.find(query_id);
  if (it == log_.end()) return cursor;
  for (const Tuple& t : it->second) {
    if (t.timestamp() > since) {
      out->push_back(t);
      cursor = std::max(cursor, t.timestamp());
    }
  }
  return cursor;
}

size_t PullEgress::LoggedCount(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = log_.find(query_id);
  return it == log_.end() ? 0 : it->second.size();
}

}  // namespace tcq
