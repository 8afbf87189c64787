#include "obs/system_streams.h"

#include <chrono>
#include <map>
#include <utility>

namespace tcq::obs {

namespace {

/// Inverse of EscapeLabelValue, for recovering queue names from the
/// instrument names the fjord layer registered.
std::string UnescapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '\\' && i + 1 < value.size()) {
      ++i;
      switch (value[i]) {
        case 'n': out += '\n'; break;
        default: out += value[i];
      }
    } else {
      out += value[i];
    }
  }
  return out;
}

/// Splits "family{key="value"}" into (family, unescaped value); returns
/// false for unlabeled names or a key mismatch.
bool ParseLabeled(const std::string& name, const std::string& family,
                  const std::string& key, std::string* value) {
  const std::string prefix = family + "{" + key + "=\"";
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.size() < prefix.size() + 2 ||
      name.compare(name.size() - 2, 2, "\"}") != 0) {
    return false;
  }
  *value = UnescapeLabelValue(
      name.substr(prefix.size(), name.size() - prefix.size() - 2));
  return true;
}

/// Per-queue accumulator joined across the tcq_queue_* instrument families.
struct QueueRow {
  int64_t depth = 0;
  int64_t enqueued = 0;
  int64_t dropped = 0;
  int64_t wait_p95_us = 0;
};

}  // namespace

std::vector<Field> SystemStreamSource::MetricsSchema() {
  return {{"metric", ValueType::kString, 0},
          {"kind", ValueType::kString, 0},
          {"value", ValueType::kInt64, 0}};
}

std::vector<Field> SystemStreamSource::QueuesSchema() {
  return {{"queue", ValueType::kString, 0},
          {"depth", ValueType::kInt64, 0},
          {"enqueued", ValueType::kInt64, 0},
          {"dropped", ValueType::kInt64, 0},
          {"wait_p95_us", ValueType::kInt64, 0}};
}

std::vector<Field> SystemStreamSource::LatencySchema() {
  return {{"metric", ValueType::kString, 0},
          {"count", ValueType::kInt64, 0},
          {"p50_us", ValueType::kInt64, 0},
          {"p95_us", ValueType::kInt64, 0},
          {"p99_us", ValueType::kInt64, 0}};
}

SystemStreamSource::SystemStreamSource(SystemStreamOptions opts,
                                       MetricsRegistryRef metrics,
                                       TracerRef tracer, PushFn push)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)),
      push_(std::move(push)) {}

SystemStreamSource::~SystemStreamSource() { Stop(); }

void SystemStreamSource::Start() {
  if (running_.exchange(true)) return;
  stop_.Reset();
  publisher_ = std::thread([this] { Run(); });
}

void SystemStreamSource::Stop() {
  if (!running_.exchange(false)) return;
  stop_.Stop();
  if (publisher_.joinable()) publisher_.join();
}

void SystemStreamSource::Run() {
  // Fixed-rate ticks; Stop() wakes the wait at once, however long the
  // interval.
  const auto interval = std::chrono::milliseconds(
      opts_.publish_interval_ms < 1 ? 1 : opts_.publish_interval_ms);
  auto next = std::chrono::steady_clock::now();
  while (!stop_.WaitUntil(next)) {
    PublishOnce();
    next += interval;
  }
}

void SystemStreamSource::PublishOnce() {
  MetricsSnapshot snap = metrics_->Snapshot();
  Timestamp tick = Timestamp(ticks_.fetch_add(1, std::memory_order_relaxed)) + 1;

  // tcq$metrics: the whole registry, one row per counter/gauge series.
  std::vector<Row> metric_rows;
  metric_rows.reserve(snap.counters.size() + snap.gauges.size());
  for (const auto& [name, v] : snap.counters) {
    metric_rows.push_back(Row{{Value::String(name), Value::String("counter"),
                               Value::Int64(int64_t(v))}});
  }
  for (const auto& [name, v] : snap.gauges) {
    metric_rows.push_back(
        Row{{Value::String(name), Value::String("gauge"), Value::Int64(v)}});
  }
  push_(kMetricsStream, std::move(metric_rows), tick);

  // tcq$queues: join the tcq_queue_* families back into one row per fjord.
  std::map<std::string, QueueRow> queues;
  std::string queue;
  for (const auto& [name, v] : snap.gauges) {
    if (ParseLabeled(name, "tcq_queue_depth", "queue", &queue)) {
      queues[queue].depth = v;
    }
  }
  for (const auto& [name, v] : snap.counters) {
    if (ParseLabeled(name, "tcq_queue_enqueued_total", "queue", &queue)) {
      queues[queue].enqueued = int64_t(v);
    } else if (ParseLabeled(name, "tcq_queue_dropped_on_close_total", "queue",
                            &queue)) {
      queues[queue].dropped = int64_t(v);
    }
  }
  for (const auto& h : snap.histograms) {
    if (ParseLabeled(h.name, "tcq_queue_wait_us", "queue", &queue)) {
      queues[queue].wait_p95_us = int64_t(h.p95);
    }
  }
  std::vector<Row> queue_rows;
  queue_rows.reserve(queues.size());
  for (const auto& [name, q] : queues) {
    queue_rows.push_back(Row{{Value::String(name), Value::Int64(q.depth),
                              Value::Int64(q.enqueued), Value::Int64(q.dropped),
                              Value::Int64(q.wait_p95_us)}});
  }
  push_(kQueuesStream, std::move(queue_rows), tick);

  // tcq$latency: one row per histogram, quantiles precomputed by Snapshot().
  std::vector<Row> latency_rows;
  latency_rows.reserve(snap.histograms.size());
  for (const auto& h : snap.histograms) {
    latency_rows.push_back(Row{{Value::String(h.name),
                                Value::Int64(int64_t(h.count)),
                                Value::Int64(int64_t(h.p50)),
                                Value::Int64(int64_t(h.p95)),
                                Value::Int64(int64_t(h.p99))}});
  }
  push_(kLatencyStream, std::move(latency_rows), tick);
}

}  // namespace tcq::obs
