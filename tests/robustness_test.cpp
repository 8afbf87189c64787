// Robustness and regression tests: the windowed-DU completion regression
// (a one-iteration loop must not be declared done before its window fires),
// out-of-order arrivals, load shedding under slow clients, background
// spooling + history scans, and logging.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "ingress/generators.h"
#include "server/telegraphcq.h"

namespace tcq {
namespace {

std::vector<Field> StockFields() {
  return {{"timestamp", ValueType::kTimestamp, 0},
          {"stockSymbol", ValueType::kString, 0},
          {"closingPrice", ValueType::kDouble, 0}};
}

// Regression: a snapshot (single-iteration) windowed query fed by a
// wrapper-hosted source. The windowed DU used to report kDone after its
// iterator advanced past the only iteration, before the pending window had
// fired — so the EO stopped scheduling it and the window never arrived.
TEST(RegressionTest, SnapshotWindowFedByWrapperFires) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto gen = std::make_unique<StockTickGenerator>(
      "gen", SourceId{0},
      StockTickGenerator::Options{
          .symbols = {"MSFT", "AAPL"}, .seed = 2026, .days = 60});
  ASSERT_TRUE(server.AttachSource("ClosingStockPrices", std::move(gen)).ok());
  auto handle = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  WindowResult wr;
  bool fired = false;
  for (int i = 0; i < 5000 && !fired; ++i) {
    fired = handle->windows->Poll(&wr);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  ASSERT_TRUE(fired) << "snapshot window never fired through the DU";
  EXPECT_EQ(wr.tuples.size(), 5u);
}

TEST(RobustnessTest, OutOfOrderArrivalWithinJitterIsWindowedCorrectly) {
  // Sensor readings with bounded timestamp jitter: StreamHistory positions
  // them, and windows computed over history are exact.
  SensorGenerator gen("s", 0,
                      SensorGenerator::Options{.num_sensors = 4,
                                               .max_jitter = 5,
                                               .seed = 3,
                                               .count = 500});
  StreamHistory h;
  Tuple t;
  std::vector<Tuple> all;
  while (gen.Next(&t)) {
    h.Append(t);
    all.push_back(t);
  }
  // History is timestamp-ordered despite jittered arrival order.
  std::vector<Tuple> scanned;
  h.Range(kMinTimestamp, kMaxTimestamp, &scanned);
  for (size_t i = 1; i < scanned.size(); ++i) {
    EXPECT_LE(scanned[i - 1].timestamp(), scanned[i].timestamp());
  }
  // A mid-stream window returns exactly the in-range readings.
  std::vector<Tuple> window;
  h.Range(100, 150, &window);
  size_t expect = 0;
  for (const Tuple& x : all) {
    if (x.timestamp() >= 100 && x.timestamp() <= 150) ++expect;
  }
  EXPECT_EQ(window.size(), expect);
}

TEST(RobustnessTest, SlowClientShedsInsteadOfStallingEngine) {
  TelegraphCQ::Options opts;
  opts.egress_capacity = 16;
  opts.egress_shed = ShedPolicy::kDropOldest;  // QoS: stay live, lose stale
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok());
  server.Start();
  // Client never drains; push far more than the egress buffer holds.
  for (Timestamp d = 1; d <= 500; ++d) {
    ASSERT_TRUE(server
                    .Push("ClosingStockPrices",
                          {Value::TimestampVal(d), Value::String("MSFT"),
                           Value::Double(50.0)},
                          d)
                    .ok());
  }
  // Engine kept running: every result was either delivered or shed.
  auto accounted = [&] {
    return handle->results->delivered() + handle->results->shed();
  };
  for (int i = 0; i < 500 && accounted() < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.Stop();
  EXPECT_EQ(accounted(), 500u);
  EXPECT_GE(handle->results->shed(), 500u - 16u);
  EXPECT_LE(handle->results->buffered(), 16u);
  // Nothing was polled, so what counts as delivered is what is buffered.
  EXPECT_EQ(handle->results->delivered(), handle->results->buffered());
  // The stalest results were the ones shed: the newest survive.
  Delivery d;
  ASSERT_TRUE(handle->results->Poll(&d));
  EXPECT_GT(d.tuple.timestamp(), 400);
}

TEST(RobustnessTest, BackgroundSpoolingMakesHistoryScannable) {
  std::string dir = testing::TempDir() + "/tcq_spool_test";
  std::filesystem::create_directories(dir);
  TelegraphCQ::Options opts;
  opts.spool_dir = dir;
  TelegraphCQ server(opts);
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  server.Start();
  for (Timestamp d = 1; d <= 300; ++d) {
    ASSERT_TRUE(server
                    .Push("ClosingStockPrices",
                          {Value::TimestampVal(d), Value::String("MSFT"),
                           Value::Double(50.0 + double(d))},
                          d)
                    .ok());
  }
  // Historical window scan over the spool, while the stream stays live.
  auto hist = server.ScanHistory("ClosingStockPrices", 100, 120);
  ASSERT_TRUE(hist.ok()) << hist.status();
  ASSERT_EQ(hist->size(), 21u);
  EXPECT_EQ(hist->front().timestamp(), 100);
  EXPECT_DOUBLE_EQ(hist->back().Get("closingPrice").AsDouble(), 170.0);
  server.Stop();
  std::filesystem::remove_all(dir);
}

TEST(RobustnessTest, ScanHistoryWithoutSpoolIsError) {
  TelegraphCQ server;  // no spool_dir
  ASSERT_TRUE(server.DefineStream("S", StockFields()).ok());
  EXPECT_EQ(server.ScanHistory("S", 0, 10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.ScanHistory("Nope", 0, 10).status().IsNotFound());
}

TEST(RobustnessTest, TicketSchedulerExecutorEndToEnd) {
  // Same end-to-end flow as the round-robin executor tests, but under the
  // lottery DU scheduler.
  Executor exec({.num_eos = 2, .quantum = 16, .ticket_scheduler = true});
  SchemaRef sch = Schema::Make({{"k", ValueType::kInt64, 0}});
  ASSERT_TRUE(exec.RegisterStream(0, sch).ok());
  std::atomic<size_t> got{0};
  CQSpec q;
  q.filters.push_back({{0, "k"}, CmpOp::kGe, Value::Int64(0)});
  ASSERT_TRUE(
      exec.SubmitQuery(q, [&](GlobalQueryId, ResultRows rows) { got += rows.size(); }).ok());
  exec.Start();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        exec.IngestTuple(0, Tuple::Make(sch, {Value::Int64(i)}, i)).ok());
  }
  for (int i = 0; i < 500 && got.load() < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exec.Stop();
  EXPECT_EQ(got.load(), 500u);
}

TEST(LoggingTest, LevelsGateOutput) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  // Below threshold: the streaming expression must not even be evaluated.
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return 42;
  };
  TCQ_LOG(Debug) << "never shown " << expensive();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(LogLevel::kDebug);
  TCQ_LOG(Debug) << "shown " << expensive();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(old);
}

}  // namespace
}  // namespace tcq
