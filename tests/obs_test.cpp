// Observability tests (DESIGN.md §9): span ordering through the live
// pipeline, deterministic sampling, flight-recorder wraparound, and the
// self-monitoring loop — a windowed CQ over the engine's own tcq$queues
// introspection stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "obs/system_streams.h"
#include "obs/trace.h"
#include "server/telegraphcq.h"

namespace tcq {
namespace {

std::vector<Field> StockFields() {
  return {{"timestamp", ValueType::kTimestamp, 0},
          {"stockSymbol", ValueType::kString, 0},
          {"closingPrice", ValueType::kDouble, 0}};
}

void PushStocks(TelegraphCQ* server, Timestamp from, Timestamp to) {
  for (Timestamp d = from; d <= to; ++d) {
    ASSERT_TRUE(server
                    ->Push("ClosingStockPrices",
                           {Value::TimestampVal(d), Value::String("MSFT"),
                            Value::Double(50.0)},
                           d)
                    .ok());
  }
}

size_t DrainCount(PushEgress* egress, size_t expected, int patience_ms) {
  size_t got = 0;
  Delivery d;
  for (int waited = 0; waited < patience_ms; ++waited) {
    while (egress->Poll(&d)) ++got;
    if (got >= expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return got;
}

// Earliest start time of `kind` in the dump, or -1 if absent.
int64_t FirstStart(const std::vector<obs::Span>& spans, obs::SpanKind kind) {
  int64_t best = -1;
  for (const obs::Span& s : spans) {
    if (s.kind == kind && (best < 0 || s.start_us < best)) best = s.start_us;
  }
  return best;
}

TEST(TraceTest, SpansOrderedWithinBatchThroughTheServer) {
  TelegraphCQ::Options opts;
  opts.trace.enabled = true;
  opts.trace.sample_period = 1;  // every batch
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();
  PushStocks(&server, 1, 20);
  ASSERT_EQ(DrainCount(handle->results.get(), 20, 2000), 20u);
  server.Stop();

  std::vector<obs::Span> spans = server.DumpFlightRecorder();
  ASSERT_FALSE(spans.empty());
  int64_t enq = FirstStart(spans, obs::SpanKind::kQueueEnqueue);
  int64_t wait = FirstStart(spans, obs::SpanKind::kQueueWait);
  int64_t hop = FirstStart(spans, obs::SpanKind::kEddyHop);
  int64_t emit = FirstStart(spans, obs::SpanKind::kEgressEmit);
  int64_t e2e = FirstStart(spans, obs::SpanKind::kEndToEnd);
  ASSERT_GE(enq, 0) << "no enqueue span";
  ASSERT_GE(wait, 0) << "no queue-wait span";
  ASSERT_GE(hop, 0) << "no routing-hop span";
  ASSERT_GE(emit, 0) << "no egress-emit span";
  ASSERT_GE(e2e, 0) << "no end-to-end span";
  // A tuple is enqueued, waits in the fjord, is routed, then emitted:
  // earliest occurrences must respect pipeline order.
  EXPECT_LE(enq, wait);
  EXPECT_LE(wait, hop);
  EXPECT_LE(hop, emit);
  for (const obs::Span& s : spans) EXPECT_GE(s.dur_us, 0);

  // Aggregates landed in the shared registry alongside the raw spans.
  MetricsSnapshot snap = server.metrics()->Snapshot();
  EXPECT_NE(snap.FindHistogram("tcq_trace_span_us{stage=\"hop\"}"), nullptr);
  EXPECT_NE(snap.FindHistogram("tcq_trace_eddy_hops"), nullptr);
  EXPECT_GT(server.tracer()->batches_sampled(), 0u);
}

TEST(TraceTest, SampledBatchesCountOnlyTracedBatches) {
  // tcq_trace_sampled_batches_total is the denominator of per-batch stage
  // sums, so it counts only batches that open a TraceBatchScope (each of
  // which records one queue_wait span here), not the producer-side
  // enqueue samples that carry no downstream spans.
  obs::TraceOptions topts;
  topts.enabled = true;
  topts.sample_period = 1;
  obs::Tracer bare(topts);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(bare.ShouldSample());
  EXPECT_EQ(bare.batches_sampled(), 0u);
  {
    obs::TraceBatchScope scope(&bare);
    EXPECT_TRUE(scope.sampled());
  }
  EXPECT_EQ(bare.batches_sampled(), 1u);

  TelegraphCQ::Options opts;
  opts.trace.enabled = true;
  opts.trace.sample_period = 1;  // every batch
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();
  PushStocks(&server, 1, 20);
  ASSERT_EQ(DrainCount(handle->results.get(), 20, 2000), 20u);
  server.Stop();

  MetricsSnapshot snap = server.metrics()->Snapshot();
  const auto* wait = snap.FindHistogram(
      MetricName("tcq_trace_span_us", "stage", "queue_wait"));
  const auto* enq = snap.FindHistogram(
      MetricName("tcq_trace_span_us", "stage", "enqueue"));
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(enq, nullptr);
  EXPECT_EQ(enq->count, 20u);  // one producer-side sample per pushed batch
  EXPECT_GT(wait->count, 0u);
  EXPECT_EQ(server.tracer()->batches_sampled(), wait->count);
}

TEST(TraceTest, ResultFlushSpanPerBatchAndQuery) {
  // Results leave one batch per (input batch, query): each flush records
  // one result_flush span, and the egress records one emit and one
  // end-to-end span per offered batch, not per result.
  TelegraphCQ::Options opts;
  opts.trace.enabled = true;
  opts.trace.sample_period = 1;  // every batch
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();
  auto builder = server.NewBatch("ClosingStockPrices");
  ASSERT_TRUE(builder.ok());
  for (Timestamp d = 1; d <= 20; ++d) {
    ASSERT_TRUE(builder
                    ->Append(d, {Value::TimestampVal(d), Value::String("MSFT"),
                                 Value::Double(50.0)})
                    .ok());
  }
  ASSERT_TRUE(server.PushBuilt(std::move(*builder)).ok());
  ASSERT_EQ(DrainCount(handle->results.get(), 20, 2000), 20u);
  server.Stop();

  std::vector<obs::Span> spans = server.DumpFlightRecorder();
  size_t flushes = 0, emits = 0, e2e = 0;
  for (const obs::Span& s : spans) {
    if (s.kind == obs::SpanKind::kResultFlush) {
      ++flushes;
      EXPECT_EQ(s.query, handle->id);
      EXPECT_GE(s.dur_us, 0);
    }
    if (s.kind == obs::SpanKind::kEgressEmit) ++emits;
    if (s.kind == obs::SpanKind::kEndToEnd) ++e2e;
  }
  EXPECT_GE(flushes, 1u);
  EXPECT_LT(flushes, 20u);  // per batch, not per result
  EXPECT_EQ(emits, flushes);
  EXPECT_EQ(e2e, flushes);
  // The flush precedes the emit it hands its rows to.
  EXPECT_LE(FirstStart(spans, obs::SpanKind::kEddyHop),
            FirstStart(spans, obs::SpanKind::kResultFlush));
  EXPECT_LE(FirstStart(spans, obs::SpanKind::kResultFlush),
            FirstStart(spans, obs::SpanKind::kEgressEmit));
  EXPECT_STREQ(obs::SpanKindName(obs::SpanKind::kResultFlush),
               "result_flush");
  EXPECT_NE(server.metrics()->Snapshot().FindHistogram(
                "tcq_trace_span_us{stage=\"result_flush\"}"),
            nullptr);
}

TEST(TraceTest, SamplingIsDeterministicForAGivenSeed) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.sample_period = 8;
  opts.seed = 123;
  obs::Tracer a(opts);
  obs::Tracer b(opts);
  std::vector<bool> seq_a, seq_b;
  for (int i = 0; i < 512; ++i) seq_a.push_back(a.ShouldSample());
  for (int i = 0; i < 512; ++i) seq_b.push_back(b.ShouldSample());
  EXPECT_EQ(seq_a, seq_b);
  size_t hits = static_cast<size_t>(
      std::count(seq_a.begin(), seq_a.end(), true));
  // 1-in-8 Bernoulli over 512 trials: expect ~64, assert a loose band.
  EXPECT_GT(hits, 20u);
  EXPECT_LT(hits, 160u);

  opts.seed = 124;
  obs::Tracer c(opts);
  std::vector<bool> seq_c;
  for (int i = 0; i < 512; ++i) seq_c.push_back(c.ShouldSample());
  EXPECT_NE(seq_a, seq_c);

  opts.sample_period = 1;
  obs::Tracer all(opts);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(all.ShouldSample());

  obs::Tracer off(obs::TraceOptions{});  // disabled by default
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(off.ShouldSample());
}

TEST(TraceTest, FlightRecorderRingWrapsKeepingNewestSpans) {
  obs::TraceOptions opts;
  opts.enabled = true;
  opts.sample_period = 1;
  opts.ring_capacity = 8;
  obs::Tracer tracer(opts);
  for (int64_t i = 0; i < 100; ++i) {
    tracer.Record(obs::SpanKind::kEddyHop, 0, 0, /*start_us=*/i,
                  /*dur_us=*/1);
  }
  std::vector<obs::Span> spans = tracer.DumpFlightRecorder();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_us, static_cast<int64_t>(92 + i));
  }
  EXPECT_EQ(tracer.spans_recorded(), 100u);
}

TEST(TraceTest, DisabledTracerRecordsNothingThroughTheScope) {
  obs::Tracer tracer(obs::TraceOptions{});  // enabled = false
  {
    obs::TraceBatchScope scope(&tracer);
    EXPECT_FALSE(scope.sampled());
    EXPECT_EQ(obs::CurrentTrace().tracer, nullptr);
  }
  EXPECT_EQ(tracer.batches_sampled(), 0u);
  EXPECT_TRUE(tracer.DumpFlightRecorder().empty());
}

TEST(SystemStreamTest, ReservedNamesAreRejectedForUsers) {
  TelegraphCQ server;
  auto r = server.DefineStream("tcq$mine", StockFields());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

TEST(SystemStreamTest, WindowedQueryOverTcqQueuesFiresUnderLoad) {
  TelegraphCQ::Options opts;
  opts.trace.enabled = true;
  opts.trace.sample_period = 1;
  opts.system_streams.enabled = true;
  opts.system_streams.publish_interval_ms = 5;
  TelegraphCQ server(opts);

  // The reserved streams exist before Start and are queryable like any
  // other stream.
  ASSERT_TRUE(server.catalog().Lookup("tcq$queues").ok());
  ASSERT_TRUE(server.catalog().Lookup("tcq$metrics").ok());
  ASSERT_TRUE(server.catalog().Lookup("tcq$latency").ok());

  // Load: a user stream with a continuous query, so an exec:s* fjord sees
  // traffic the introspection rows can report.
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto cq = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(cq.ok()) << cq.status();

  // The engine watching itself: tumbling one-tick windows over the queue
  // snapshots (ticks are the publish-round logical timestamps).
  auto watch = server.Submit(
      "SELECT * FROM tcq$queues "
      "for (t = 2; t <= 200; t += 1) { WindowIs(tcq$queues, t - 1, t); }");
  ASSERT_TRUE(watch.ok()) << watch.status();
  ASSERT_NE(watch->windows, nullptr);

  server.Start();

  std::vector<WindowResult> fired;
  int64_t max_exec_enqueued = -1;
  std::string busiest_queue;
  Timestamp day = 1;
  for (int i = 0; i < 5000 && fired.size() < 5; ++i) {
    // Keep pushing so queue counters keep moving while windows fire.
    PushStocks(&server, day, day + 4);
    day += 5;
    WindowResult wr;
    while (watch->windows->Poll(&wr)) fired.push_back(std::move(wr));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();

  ASSERT_GE(fired.size(), 5u) << "introspection windows never fired";
  size_t rows = 0;
  for (const WindowResult& wr : fired) {
    for (const Tuple& t : wr.tuples) {
      ++rows;
      ASSERT_EQ(t.num_fields(), 5u);
      std::string queue = t.Get("queue").AsString();
      int64_t enqueued = t.Get("enqueued").AsInt64();
      int64_t depth = t.Get("depth").AsInt64();
      int64_t dropped = t.Get("dropped").AsInt64();
      EXPECT_GE(enqueued, 0);
      EXPECT_GE(depth, 0);
      EXPECT_GE(dropped, 0);
      // Windowed max of enqueued over executor fjords, computed client-side.
      if (queue.rfind("exec:", 0) == 0 && enqueued > max_exec_enqueued) {
        max_exec_enqueued = enqueued;
        busiest_queue = queue;
      }
    }
  }
  EXPECT_GT(rows, 0u) << "windows fired but carried no queue rows";
  // Plausibility: the user stream's executor fjord really saw tuples.
  EXPECT_GT(max_exec_enqueued, 0) << "no exec:* queue reported traffic";
  EXPECT_FALSE(busiest_queue.empty());
}

TEST(SystemStreamTest, PublishOnceRendersAllThreeStreams) {
  auto metrics = std::make_shared<MetricsRegistry>();
  metrics->GetCounter("tcq_events_total")->Inc(3);
  metrics->GetGauge(MetricName("tcq_queue_depth", "queue", "q0"))->Set(2);
  metrics
      ->GetCounter(MetricName("tcq_queue_enqueued_total", "queue", "q0"))
      ->Inc(7);
  metrics->GetHistogram(MetricName("tcq_queue_wait_us", "queue", "q0"))
      ->Observe(11);

  std::map<std::string, std::vector<obs::SystemStreamSource::Row>> got;
  Timestamp last_tick = 0;
  obs::SystemStreamSource source(
      obs::SystemStreamOptions{}, metrics, nullptr,
      [&](const std::string& stream,
          std::vector<obs::SystemStreamSource::Row> rows, Timestamp tick) {
        got[stream] = std::move(rows);
        last_tick = tick;
      });
  source.PublishOnce();
  EXPECT_EQ(last_tick, 1);
  EXPECT_EQ(source.ticks(), 1u);

  ASSERT_TRUE(got.contains(obs::SystemStreamSource::kMetricsStream));
  ASSERT_TRUE(got.contains(obs::SystemStreamSource::kQueuesStream));
  ASSERT_TRUE(got.contains(obs::SystemStreamSource::kLatencyStream));

  // The q0 fjord's joined row: depth 2, enqueued 7, no drops.
  bool found_q0 = false;
  for (const auto& row : got[obs::SystemStreamSource::kQueuesStream]) {
    ASSERT_EQ(row.values.size(), 5u);
    if (row.values[0].AsString() == "q0") {
      found_q0 = true;
      EXPECT_EQ(row.values[1].AsInt64(), 2);  // depth
      EXPECT_EQ(row.values[2].AsInt64(), 7);  // enqueued
      EXPECT_EQ(row.values[3].AsInt64(), 0);  // dropped
    }
  }
  EXPECT_TRUE(found_q0);

  bool found_counter = false;
  for (const auto& row : got[obs::SystemStreamSource::kMetricsStream]) {
    if (row.values[0].AsString() == "tcq_events_total") {
      found_counter = true;
      EXPECT_EQ(row.values[1].AsString(), "counter");
      EXPECT_EQ(row.values[2].AsInt64(), 3);
    }
  }
  EXPECT_TRUE(found_counter);
}

}  // namespace
}  // namespace tcq
