// End-to-end server tests: SQL in, streams through the wrapper/executor,
// results out through egress — including the paper's §4.1 windowed queries
// and self-joins against the full stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "common/rng.h"
#include "operators/projection.h"
#include "ingress/generators.h"
#include "reference/reference.h"
#include "server/telegraphcq.h"

namespace tcq {
namespace {

std::vector<Field> StockFields() {
  return {{"timestamp", ValueType::kTimestamp, 0},
          {"stockSymbol", ValueType::kString, 0},
          {"closingPrice", ValueType::kDouble, 0}};
}

// Pushes `days` of deterministic prices: MSFT at 50, AAPL alternating
// 40/60 (beats MSFT on even days).
void PushStocks(TelegraphCQ* server, Timestamp days) {
  for (Timestamp d = 1; d <= days; ++d) {
    ASSERT_TRUE(server
                    ->Push("ClosingStockPrices",
                           {Value::TimestampVal(d), Value::String("MSFT"),
                            Value::Double(50.0)},
                           d)
                    .ok());
    double aapl = d % 2 == 0 ? 60.0 : 40.0;
    ASSERT_TRUE(server
                    ->Push("ClosingStockPrices",
                           {Value::TimestampVal(d), Value::String("AAPL"),
                            Value::Double(aapl)},
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

TEST(ServerTest, ContinuousFilterQueryEndToEnd) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 45.0");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->results, nullptr);
  server.Start();

  PushStocks(&server, 50);
  size_t got = DrainCount(handle->results.get(), 50, 2000);
  server.Stop();
  EXPECT_EQ(got, 50u);  // MSFT every day; AAPL filtered by symbol
}

TEST(ServerTest, ProjectionIsApplied) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'AAPL'");
  ASSERT_TRUE(handle.ok());
  server.Start();
  PushStocks(&server, 5);
  Delivery d;
  for (int i = 0; i < 2000; ++i) {
    if (handle->results->Poll(&d)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  ASSERT_EQ(d.tuple.num_fields(), 1u);
  EXPECT_EQ(d.tuple.schema()->field(0).name, "closingPrice");
}

TEST(ServerTest, MultipleQueriesShareOneStream) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto q_msft = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'");
  auto q_cheap = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE closingPrice < 45.0");
  ASSERT_TRUE(q_msft.ok() && q_cheap.ok());
  EXPECT_EQ(server.executor().num_classes(), 1u);  // shared class
  server.Start();
  PushStocks(&server, 40);
  size_t msft = DrainCount(q_msft->results.get(), 40, 2000);
  size_t cheap = DrainCount(q_cheap->results.get(), 20, 2000);
  server.Stop();
  EXPECT_EQ(msft, 40u);
  EXPECT_EQ(cheap, 20u);  // AAPL on odd days at 40 < 45
}

TEST(ServerTest, ContinuousQueryAfterWindowedQueryStillDelivers) {
  // Regression: a windowed query's input subscription shares the logical
  // source id with the executor's shared subscription; the dedup in
  // SubscribeContinuous must not mistake one for the other, or a continuous
  // query submitted second never gets fed.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto win = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = 5; t <= 10; t += 1) { WindowIs(ClosingStockPrices, t-4, t); }");
  ASSERT_TRUE(win.ok()) << win.status();
  auto cq = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'");
  ASSERT_TRUE(cq.ok()) << cq.status();
  server.Start();
  PushStocks(&server, 12);
  size_t got = DrainCount(cq->results.get(), 12, 2000);
  WindowResult wr;
  size_t fired = 0;
  for (int waited = 0; waited < 2000 && fired < 6; ++waited) {
    while (win->windows->Poll(&wr)) ++fired;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  EXPECT_EQ(got, 12u);    // the continuous query is actually fed
  EXPECT_EQ(fired, 6u);   // and the windowed query still fires t=5..10
}

TEST(ServerTest, CancelStopsDeliveries) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle =
      server.Submit("SELECT * FROM ClosingStockPrices WHERE closingPrice > 0.0");
  ASSERT_TRUE(handle.ok());
  server.Start();
  PushStocks(&server, 10);
  ASSERT_EQ(DrainCount(handle->results.get(), 20, 2000), 20u);
  ASSERT_TRUE(server.Cancel(handle->id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  PushStocks(&server, 10);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Delivery d;
  EXPECT_FALSE(handle->results->Poll(&d));
  server.Stop();
}

TEST(ServerTest, WindowedSnapshotQuery) {
  // Paper example 1: the first five days of MSFT.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->windows, nullptr);
  server.Start();
  PushStocks(&server, 10);

  WindowResult wr;
  bool fired = false;
  for (int i = 0; i < 2000 && !fired; ++i) {
    fired = handle->windows->Poll(&wr);
    if (!fired) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  ASSERT_TRUE(fired);
  EXPECT_EQ(wr.tuples.size(), 5u);
  for (const Tuple& t : wr.tuples) EXPECT_LE(t.Get("timestamp").AsInt64(), 5);
}

TEST(ServerTest, WindowedSlidingSelfJoin) {
  // Paper example 5: stocks that beat MSFT, over 5-day sliding windows.
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto handle = server.Submit(
      "SELECT c2.stockSymbol, c2.closingPrice "
      "FROM ClosingStockPrices c1, ClosingStockPrices c2 "
      "WHERE c1.stockSymbol = 'MSFT' "
      "AND c2.closingPrice > c1.closingPrice "
      "AND c2.timestamp = c1.timestamp "
      "for (t = 5; t <= 12; t += 1) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();
  PushStocks(&server, 20);

  std::vector<WindowResult> fired;
  for (int i = 0; i < 3000 && fired.size() < 8; ++i) {
    WindowResult wr;
    while (handle->windows->Poll(&wr)) fired.push_back(wr);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  ASSERT_EQ(fired.size(), 8u);
  for (const WindowResult& wr : fired) {
    // AAPL beats MSFT on even days: each 5-day window has 2 or 3 of them.
    size_t evens = 0;
    for (Timestamp d = wr.t - 4; d <= wr.t; ++d) {
      if (d % 2 == 0) ++evens;
    }
    EXPECT_EQ(wr.tuples.size(), evens) << "window ending " << wr.t;
    for (const Tuple& t : wr.tuples) {
      EXPECT_EQ(t.Get("stockSymbol").AsString(), "AAPL");
      EXPECT_DOUBLE_EQ(t.Get("closingPrice").AsDouble(), 60.0);
    }
  }
}

TEST(ServerTest, WrapperSourceFeedsQueries) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  auto gen = std::make_unique<StockTickGenerator>(
      "gen", SourceId{0},
      StockTickGenerator::Options{
          .symbols = {"MSFT", "AAPL"}, .seed = 1, .days = 100});
  ASSERT_TRUE(server.AttachSource("ClosingStockPrices", std::move(gen)).ok());
  auto handle = server.Submit(
      "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'");
  ASSERT_TRUE(handle.ok());
  server.Start();
  size_t got = DrainCount(handle->results.get(), 100, 3000);
  server.Stop();
  EXPECT_EQ(got, 100u);
}

TEST(ServerTest, IntrospectSeesEveryLayerAfterEndToEndRun) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockFields()).ok());
  // A continuous self-join: exercises the shared eddy AND its SteMs.
  auto joined = server.Submit(
      "SELECT c2.stockSymbol FROM ClosingStockPrices c1, "
      "ClosingStockPrices c2 WHERE c1.stockSymbol = c2.stockSymbol "
      "AND c1.closingPrice > 55.0");
  ASSERT_TRUE(joined.ok()) << joined.status();
  // A windowed query: exercises window fjords and the fired-window stats.
  auto windowed = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(windowed.ok()) << windowed.status();
  server.Start();
  PushStocks(&server, 10);

  // Wait until both clients saw output (AAPL beats 55 on even days and
  // joins its own history; the snapshot window fires once day 6 arrives).
  ASSERT_GE(DrainCount(joined->results.get(), 1, 2000), 1u);
  WindowResult wr;
  for (int i = 0; i < 2000 && !windowed->windows->Poll(&wr); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();

  TelegraphCQ::Introspection view = server.Introspect();
  EXPECT_EQ(view.tuples_ingested, 20u);

  // Every layer of the engine reported into the one registry.
  const MetricsSnapshot& m = view.metrics;
  EXPECT_GT(m.CounterFamilySum("tcq_shared_eddy_routing_decisions_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_stem_builds_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_stem_probes_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_queue_enqueued_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_eo_quanta_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_egress_delivered_total"), 0u);
  EXPECT_GT(m.CounterFamilySum("tcq_window_fired_total"), 0u);
  EXPECT_EQ(m.CounterValue(
                "tcq_server_stream_ingested_total{stream=\"ClosingStockPrices"
                "\"}"),
            20u);

  // Per-query stats distinguish the two clients.
  ASSERT_EQ(view.queries.size(), 2u);
  for (const TelegraphCQ::QueryStats& qs : view.queries) {
    EXPECT_EQ(qs.tuples_in, 20u);  // both read the one physical stream
    if (qs.windowed) {
      EXPECT_GE(qs.windows_fired, 1u);
      EXPECT_EQ(qs.tuples_out, 5u);  // MSFT days 1..5
    } else {
      EXPECT_EQ(qs.id, joined->id);
      EXPECT_GT(qs.tuples_out, 0u);
    }
  }

  // The text exposition renders the same registry.
  std::string text = server.metrics()->FormatText();
  EXPECT_NE(text.find("tcq_server_tuples_ingested_total 20"),
            std::string::npos);
  EXPECT_NE(text.find("tcq_queue_wait_us"), std::string::npos);
}

TEST(ServerTest, ErrorPaths) {
  TelegraphCQ server;
  ASSERT_TRUE(server.DefineStream("S", StockFields()).ok());
  EXPECT_TRUE(server.DefineStream("S", StockFields()).status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(server.Submit("SELECT * FROM Nope").status().IsNotFound());
  EXPECT_FALSE(server.Submit("garbage !!").ok());
  EXPECT_TRUE(server
                  .Push("Nope", {Value::TimestampVal(1), Value::String("x"),
                                 Value::Double(1.0)},
                        1)
                  .IsNotFound());
  // Arity mismatch caught by schema validation.
  EXPECT_TRUE(server.Push("S", {Value::TimestampVal(1)}, 1)
                  .IsInvalidArgument());
}

// --- One EO pool for every query kind ----------------------------------------

/// Stream "S": one row per timestamp 1..n, k = ts % 10. An arrival-time
/// window [l, r] fires once a row stamped past r arrives or the stream
/// closes, after every row it covers.
std::vector<Tuple> DefineAndBuildRows(TelegraphCQ* server, Timestamp n) {
  EXPECT_TRUE(server
                  ->DefineStream("S", {{"ts", ValueType::kTimestamp, 0},
                                       {"k", ValueType::kInt64, 0}})
                  .ok());
  auto entry = server->catalog().Lookup("S");
  EXPECT_TRUE(entry.ok());
  std::vector<Tuple> rows;
  for (Timestamp ts = 1; ts <= n; ++ts) {
    rows.push_back(Tuple::Make(
        entry->schema, {Value::TimestampVal(ts), Value::Int64(ts % 10)}, ts));
  }
  return rows;
}

void PushRows(TelegraphCQ* server, const std::vector<Tuple>& rows) {
  for (size_t i = 0; i < rows.size();) {
    auto batch = server->NewBatch("S");
    ASSERT_TRUE(batch.ok()) << batch.status();
    for (size_t end = std::min(i + 64, rows.size()); i < end; ++i) {
      ASSERT_TRUE(batch->Append(rows[i].timestamp(), rows[i].values()).ok());
    }
    ASSERT_TRUE(server->PushBuilt(std::move(*batch)).ok());
  }
}

/// Reference windows of "WindowIs(S, t - (width - 1), t)" for t in
/// [first, last]: the rows in each window passing `predicates`.
std::vector<std::map<std::string, int>> ReferenceWindows(
    const std::vector<Tuple>& rows, const std::vector<PredicateRef>& predicates,
    Timestamp first, Timestamp last, Timestamp width) {
  std::vector<std::map<std::string, int>> out;
  for (Timestamp t = first; t <= last; ++t) {
    std::vector<Tuple> in_window;
    for (const Tuple& r : rows) {
      if (r.timestamp() > t - width && r.timestamp() <= t) {
        in_window.push_back(r);
      }
    }
    out.push_back(testref::CanonicalMultiset(
        testref::NaiveFilter(in_window, predicates)));
  }
  return out;
}

/// Polls `buffer` until it holds `want` windows (or patience runs out).
std::vector<WindowResult> CollectWindows(WindowResultBuffer* buffer,
                                         size_t want, int patience_ms) {
  std::vector<WindowResult> got;
  WindowResult wr;
  for (int i = 0; i < patience_ms && got.size() < want; ++i) {
    while (buffer->Poll(&wr)) got.push_back(wr);
    if (got.size() < want) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return got;
}

/// One continuous and one windowed query on a server with `num_eos` EOs;
/// both must deliver exactly the reference evaluator's results.
void RunContinuousBesideWindowed(size_t num_eos) {
  TelegraphCQ::Options opts;
  opts.executor.num_eos = num_eos;
  TelegraphCQ server(opts);
  const Timestamp n = 1000;
  std::vector<Tuple> rows = DefineAndBuildRows(&server, n);
  const SourceId s = rows.front().schema()->field(0).source;
  auto cq = server.Submit("SELECT * FROM S WHERE k < 5");
  ASSERT_TRUE(cq.ok()) << cq.status();
  auto win = server.Submit(
      "SELECT * FROM S WHERE k >= 5 "
      "for (t = 4; t <= 1000; t++) { WindowIs(S, t - 3, t); }");
  ASSERT_TRUE(win.ok()) << win.status();
  server.Start();
  PushRows(&server, rows);
  ASSERT_TRUE(server.CloseStream("S").ok());  // seals the window ending n

  std::vector<Tuple> expected = testref::NaiveFilter(
      rows, {MakeCompareConst({s, "k"}, CmpOp::kLt, Value::Int64(5))});
  std::vector<Tuple> got;
  Delivery d;
  for (int i = 0; i < 10000 && got.size() < expected.size(); ++i) {
    while (cq->results->Poll(&d)) got.push_back(d.tuple);
    if (got.size() < expected.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::vector<std::map<std::string, int>> want_windows = ReferenceWindows(
      rows, {MakeCompareConst({s, "k"}, CmpOp::kGe, Value::Int64(5))}, 4, n, 4);
  std::vector<WindowResult> windows =
      CollectWindows(win->windows.get(), want_windows.size(), 10000);
  server.Stop();

  EXPECT_EQ(server.executor().num_eos(), std::max<size_t>(num_eos, 1));
  EXPECT_EQ(testref::CanonicalMultiset(got),
            testref::CanonicalMultiset(expected));
  ASSERT_EQ(windows.size(), want_windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].t, static_cast<Timestamp>(4 + i));
    EXPECT_EQ(testref::CanonicalMultiset(windows[i].tuples), want_windows[i])
        << "window ending " << windows[i].t;
  }
}

TEST(SharedEoServerTest, NumEosZeroRunsBothQueryKinds) {
  // num_eos = 0 runs one EO, like shards = 0 runs one shard.
  RunContinuousBesideWindowed(0);
}

TEST(SharedEoServerTest, ContinuousAndWindowedShareOneEo) {
  // A class DU and a windowed DU on one EO: round-robin quanta keep either
  // from starving the other.
  RunContinuousBesideWindowed(1);
}

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(SharedEoServerTest, WindowedQueriesAddNoThreads) {
  TelegraphCQ::Options opts;
  opts.executor.num_eos = 2;
  TelegraphCQ server(opts);
  const Timestamp n = 40;
  std::vector<Tuple> rows = DefineAndBuildRows(&server, n);
  const SourceId s = rows.front().schema()->field(0).source;
  server.Start();
  const size_t before = ThreadCount();

  std::vector<TelegraphCQ::ClientHandle> handles;
  for (int q = 0; q < 32; ++q) {
    // Query q keeps k == q % 10 over sliding 2-wide windows.
    auto h = server.Submit(
        "SELECT * FROM S WHERE k = " + std::to_string(q % 10) +
        " for (t = 2; t <= 40; t++) { WindowIs(S, t - 1, t); }");
    ASSERT_TRUE(h.ok()) << h.status();
    handles.push_back(*h);
  }
  EXPECT_EQ(ThreadCount(), before);

  PushRows(&server, rows);
  ASSERT_TRUE(server.CloseStream("S").ok());  // seals the window ending n
  for (int q = 0; q < 32; ++q) {
    std::vector<std::map<std::string, int>> want = ReferenceWindows(
        rows,
        {MakeCompareConst({s, "k"}, CmpOp::kEq, Value::Int64(q % 10))}, 2, n,
        2);
    std::vector<WindowResult> got =
        CollectWindows(handles[q].windows.get(), want.size(), 10000);
    ASSERT_EQ(got.size(), want.size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(testref::CanonicalMultiset(got[i].tuples), want[i])
          << "query " << q << ", window ending " << got[i].t;
    }
  }
  EXPECT_EQ(ThreadCount(), before);
  server.Stop();
}

// --- Event time & punctuations (DESIGN.md §12) ---------------------------

/// One MSFT row per day, price 50 + d.
void PushDay(TelegraphCQ* server, Timestamp d) {
  ASSERT_TRUE(server
                  ->Push("ClosingStockPrices",
                         {Value::TimestampVal(d), Value::String("MSFT"),
                          Value::Double(50.0 + static_cast<double>(d))},
                         d)
                  .ok());
}

/// Shuffles `days` within consecutive blocks of `block`: arrival disorder
/// is hard-bounded by block - 1.
std::vector<Timestamp> BlockShuffledDays(Timestamp days, size_t block,
                                         uint64_t seed) {
  std::vector<Timestamp> order;
  for (Timestamp d = 1; d <= days; ++d) order.push_back(d);
  Rng rng(seed);
  for (size_t i = 0; i < order.size(); i += block) {
    size_t end = std::min(i + block, order.size());
    for (size_t j = end - 1; j > i; --j) {
      std::swap(order[j], order[i + rng.UniformInt(0, j - i)]);
    }
  }
  return order;
}

TEST(EventTimeServerTest, DisorderedArrivalsYieldExactWindows) {
  // A punctuating stream with a disorder bound that covers the shuffle:
  // every event-time window must come out exactly as if arrivals had been
  // in order, with zero late drops.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 4})
                  .ok());
  auto handle = server.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = 5; t <= 12; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->windows, nullptr);
  server.Start();

  for (Timestamp d : BlockShuffledDays(20, 4, 7)) PushDay(&server, d);

  std::map<Timestamp, std::multiset<Timestamp>> got;
  for (int i = 0; i < 3000 && got.size() < 8; ++i) {
    WindowResult wr;
    while (handle->windows->Poll(&wr)) {
      for (const Tuple& t : wr.tuples) {
        got[wr.t].insert(t.Get("timestamp").AsInt64());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto intro = server.Introspect();
  server.Stop();

  ASSERT_EQ(got.size(), 8u);
  for (Timestamp t = 5; t <= 12; ++t) {
    std::multiset<Timestamp> want;
    for (Timestamp d = t - 4; d <= t; ++d) want.insert(d);
    EXPECT_EQ(got[t], want) << "window ending " << t;
  }
  for (const auto& ss : intro.streams) {
    if (ss.name == "ClosingStockPrices") {
      EXPECT_EQ(ss.late_tuples, 0u);
    }
  }
}

TEST(EventTimeServerTest, LateTuplesAreCountedAndExcluded) {
  // disorder_bound = 0: the watermark is the max timestamp seen, so a
  // replayed old row is provably late — counted per stream, and absent
  // from every event-time window.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  auto handle = server.Submit(
      "SELECT timestamp FROM ClosingStockPrices "
      "for (t = 5; t <= 8; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }");
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  std::map<Timestamp, size_t> sizes;
  auto drain = [&] {
    WindowResult wr;
    while (handle->windows->Poll(&wr)) sizes[wr.t] = wr.tuples.size();
  };

  for (Timestamp d : {1, 2, 4, 5, 6}) PushDay(&server, d);
  // Wait for window [1, 5] to fire: the runner has provably applied the
  // watermark-6 punctuation, so the replayed day 3 below is seen late by
  // the runner too (not just by the entrance scan).
  for (int i = 0; i < 3000 && sizes.count(5) == 0; ++i) {
    drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sizes.count(5), 1u);
  PushDay(&server, 3);  // late: the watermark already reached 6
  for (Timestamp d = 7; d <= 16; ++d) PushDay(&server, d);

  for (int i = 0; i < 3000 && sizes.size() < 4; ++i) {
    drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto intro = server.Introspect();
  server.Stop();

  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[5], 4u);  // days {1,2,4,5}: day 3 never arrived in time
  EXPECT_EQ(sizes[6], 4u);  // days {2,4,5,6}: late day 3 dropped
  EXPECT_EQ(sizes[7], 4u);  // days {4,5,6,7}: late day 3 dropped
  EXPECT_EQ(sizes[8], 5u);  // days {4..8}
  bool saw_stream = false;
  for (const auto& ss : intro.streams) {
    if (ss.name != "ClosingStockPrices") continue;
    saw_stream = true;
    EXPECT_EQ(ss.late_tuples, 1u);
  }
  EXPECT_TRUE(saw_stream);
}

TEST(EventTimeServerTest, SpeculativeQueryConvergesToFinalWindows) {
  // With speculation on, early (kSpeculative) results stream out before the
  // watermark seals a window; accumulating additions minus retractions must
  // reproduce the exact final content, and kFinal seals every window.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  auto handle = server.Submit(
      "SELECT timestamp FROM ClosingStockPrices "
      "for (t = 5; t <= 8; t += 1) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }",
      {.speculate = true});
  ASSERT_TRUE(handle.ok()) << handle.status();
  server.Start();

  // Two pushes with a gap so at least one poll observes an unsealed window.
  for (Timestamp d = 1; d <= 5; ++d) PushDay(&server, d);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (Timestamp d = 6; d <= 10; ++d) PushDay(&server, d);

  std::map<Timestamp, std::map<Timestamp, int64_t>> acc;
  size_t finals = 0, speculative = 0;
  for (int i = 0; i < 3000 && finals < 4; ++i) {
    WindowResult wr;
    while (handle->windows->Poll(&wr)) {
      if (wr.kind == WindowResultKind::kFinal) ++finals;
      if (wr.kind == WindowResultKind::kSpeculative) ++speculative;
      int64_t sign = wr.kind == WindowResultKind::kRetraction ? -1 : 1;
      for (const Tuple& t : wr.tuples) {
        acc[wr.t][t.Get("timestamp").AsInt64()] += sign;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto intro = server.Introspect();
  server.Stop();

  ASSERT_EQ(finals, 4u);
  EXPECT_GT(speculative, 0u);
  for (Timestamp t = 5; t <= 8; ++t) {
    std::map<Timestamp, int64_t> want;
    for (Timestamp d = t - 4; d <= t; ++d) want[d] = 1;
    // Zero entries are retract-cancelled additions; drop before comparing.
    for (auto it = acc[t].begin(); it != acc[t].end();) {
      it = it->second == 0 ? acc[t].erase(it) : std::next(it);
    }
    EXPECT_EQ(acc[t], want) << "window ending " << t;
  }
  // The client-side and introspected retraction counts agree (SPJ windows
  // are monotone in arrivals, so this is typically zero — see DESIGN.md).
  for (const auto& qs : intro.queries) {
    if (qs.id == handle->id) {
      EXPECT_EQ(qs.retractions, handle->windows->retractions());
    }
  }
}

TEST(EventTimeServerTest, PunctuationsReachContinuousEgress) {
  // Continuous queries on a punctuating stream see the merged punctuations
  // in-band at egress, counted per client.
  TelegraphCQ server;
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices", StockFields(),
                                {.punctuate = true, .disorder_bound = 0})
                  .ok());
  auto handle =
      server.Submit("SELECT * FROM ClosingStockPrices");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_NE(handle->results, nullptr);
  server.Start();

  for (Timestamp d = 1; d <= 10; ++d) PushDay(&server, d);

  // 10 data rows plus at least one merged punctuation tuple.
  size_t data = 0, puncts = 0;
  Delivery d;
  for (int waited = 0; waited < 3000 && (data < 10 || puncts == 0);
       ++waited) {
    while (handle->results->Poll(&d)) {
      if (d.tuple.IsPunctuation()) {
        ++puncts;
        EXPECT_GE(d.tuple.AsPunctuation().low_watermark, 1);
      } else {
        ++data;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  // Nothing is delivered after Stop(): take what arrived after the last poll
  // so the client-side count is complete before it meets the egress counter.
  while (handle->results->Poll(&d)) {
    if (d.tuple.IsPunctuation()) ++puncts;
  }
  EXPECT_EQ(data, 10u);
  EXPECT_GT(puncts, 0u);
  EXPECT_EQ(handle->results->punctuations_delivered(), puncts);
}


// --- Result path: shared projection groups, per-batch flush, shedding ------

// Pushes rows (already carrying the stream's schema) through the facade in
// batches of 64 via NewBatch / Append / PushBuilt.
void PushRows(TelegraphCQ* server, const std::string& stream,
              const std::vector<Tuple>& rows) {
  for (size_t off = 0; off < rows.size(); off += 64) {
    auto builder = server->NewBatch(stream);
    ASSERT_TRUE(builder.ok()) << builder.status();
    for (size_t i = off; i < std::min(rows.size(), off + 64); ++i) {
      ASSERT_TRUE(builder->Append(rows[i].timestamp(), rows[i].values()).ok());
    }
    ASSERT_TRUE(server->PushBuilt(std::move(*builder)).ok());
  }
}

// Polls until `want` data rows arrived (or patience runs out).
std::vector<Tuple> PollData(PushEgress* egress, size_t want, int patience_ms) {
  std::vector<Tuple> out;
  Delivery d;
  for (int waited = 0; waited < patience_ms && out.size() < want; ++waited) {
    while (egress->Poll(&d)) {
      if (d.tuple.IsData()) out.push_back(d.tuple);
    }
    if (out.size() < want) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return out;
}

// The reference answer of a projected query: the naive evaluator's rows,
// projected, as a canonical multiset.
std::map<std::string, int> ProjectedReference(
    const std::vector<Tuple>& reference, const std::vector<AttrRef>& attrs) {
  Projection p(attrs);
  std::vector<Tuple> out;
  for (const Tuple& t : reference) out.push_back(*p.Apply(t));
  return testref::CanonicalMultiset(out);
}

TEST(ResultPathTest, ProjectionGroupsMatchReferenceAndShareTuples) {
  // 64 overlapping range filters with one projection list form one
  // projection group; two queries with another list form a second; a
  // SELECT * rides in the same class; a join runs on 2 shards. Every
  // multiset equals the reference, and queries of one group receive the
  // very same projected Tuple for one result.
  TelegraphCQ::Options opts;
  opts.executor.shards = 2;
  TelegraphCQ server(opts);
  auto s = server.DefineStream("S", {{"id", ValueType::kInt64, 0},
                                     {"a", ValueType::kInt64, 0},
                                     {"b", ValueType::kInt64, 0}});
  auto l = server.DefineStream("L", {{"k", ValueType::kInt64, 0},
                                     {"lid", ValueType::kInt64, 0}});
  auto r = server.DefineStream("R", {{"k", ValueType::kInt64, 0},
                                     {"rid", ValueType::kInt64, 0}});
  ASSERT_TRUE(s.ok() && l.ok() && r.ok());
  constexpr int kRanges = 64;
  std::vector<TelegraphCQ::ClientHandle> ranges;
  for (int q = 0; q < kRanges; ++q) {
    auto h = server.Submit("SELECT id, a FROM S WHERE a >= " +
                           std::to_string(q * 150) + " AND a <= " +
                           std::to_string(q * 150 + 937));
    ASSERT_TRUE(h.ok()) << h.status();
    ranges.push_back(*h);
  }
  std::vector<TelegraphCQ::ClientHandle> pairs;
  for (int q = 0; q < 2; ++q) {
    auto h = server.Submit("SELECT b, id FROM S WHERE a < " +
                           std::to_string(4000 + q * 2000));
    ASSERT_TRUE(h.ok()) << h.status();
    pairs.push_back(*h);
  }
  auto star = server.Submit("SELECT * FROM S WHERE b >= 50");
  auto join = server.Submit(
      "SELECT l.lid, r.rid FROM L l, R r WHERE l.k = r.k");
  ASSERT_TRUE(star.ok() && join.ok());
  EXPECT_EQ(server.executor().num_classes(), 2u);
  server.Start();

  auto sch = [](SourceId src, std::vector<std::string> names) {
    std::vector<Field> fields;
    for (auto& n : names) fields.push_back({n, ValueType::kInt64, src});
    return Schema::Make(std::move(fields));
  };
  SchemaRef s_sch = sch(*s, {"id", "a", "b"});
  SchemaRef l_sch = sch(*l, {"k", "lid"});
  SchemaRef r_sch = sch(*r, {"k", "rid"});
  Rng rng(71);
  std::vector<Tuple> srows, lrows, rrows;
  for (int i = 0; i < 2048; ++i) {
    srows.push_back(Tuple::Make(
        s_sch,
        {Value::Int64(i), Value::Int64(rng.UniformInt(0, 9999)),
         Value::Int64(rng.UniformInt(0, 99))},
        i + 1));
  }
  for (int i = 0; i < 320; ++i) {
    lrows.push_back(Tuple::Make(
        l_sch, {Value::Int64(rng.UniformInt(0, 99)), Value::Int64(i)}, i + 1));
    rrows.push_back(Tuple::Make(
        r_sch, {Value::Int64(rng.UniformInt(0, 99)), Value::Int64(i)}, i + 1));
  }
  PushRows(&server, "S", srows);
  PushRows(&server, "L", lrows);
  PushRows(&server, "R", rrows);

  const std::vector<AttrRef> id_a = {{*s, "id"}, {*s, "a"}};
  std::vector<std::map<int64_t, Tuple>> range_got(kRanges);
  for (int q = 0; q < kRanges; ++q) {
    auto want = testref::NaiveFilter(
        srows, {MakeRange({*s, "a"}, Value::Int64(q * 150),
                          Value::Int64(q * 150 + 937))});
    auto got = PollData(ranges[q].results.get(), want.size(), 5000);
    EXPECT_EQ(testref::CanonicalMultiset(got), ProjectedReference(want, id_a))
        << "range query " << q;
    for (const Tuple& t : got) range_got[q].emplace(t.at(0).AsInt64(), t);
  }
  std::vector<std::map<int64_t, Tuple>> pair_got(2);
  for (int q = 0; q < 2; ++q) {
    auto want = testref::NaiveFilter(
        srows, {MakeCompareConst({*s, "a"}, CmpOp::kLt,
                                 Value::Int64(4000 + q * 2000))});
    auto got = PollData(pairs[q].results.get(), want.size(), 5000);
    EXPECT_EQ(testref::CanonicalMultiset(got),
              ProjectedReference(want, {{*s, "b"}, {*s, "id"}}));
    for (const Tuple& t : got) pair_got[q].emplace(t.at(1).AsInt64(), t);
  }
  {
    auto want = testref::NaiveFilter(
        srows, {MakeCompareConst({*s, "b"}, CmpOp::kGe, Value::Int64(50))});
    auto got = PollData(star->results.get(), want.size(), 5000);
    EXPECT_EQ(testref::CanonicalMultiset(got),
              testref::CanonicalMultiset(want));
  }
  {
    auto want = testref::NaiveJoin(
        {lrows, rrows}, {MakeCompareAttrs({*l, "k"}, CmpOp::kEq, {*r, "k"})});
    auto got = PollData(join->results.get(), want.size(), 5000);
    EXPECT_EQ(testref::CanonicalMultiset(got),
              ProjectedReference(want, {{*l, "lid"}, {*r, "rid"}}));
  }
  server.Stop();

  // Sharing: one projected Tuple per (result, projection group).
  size_t shared = 0;
  for (int q = 1; q < kRanges; ++q) {
    for (const auto& [id, t] : range_got[q]) {
      auto it = range_got[q - 1].find(id);
      if (it == range_got[q - 1].end()) continue;
      EXPECT_TRUE(t.SamePayload(it->second)) << "row " << id;
      ++shared;
    }
  }
  EXPECT_GT(shared, 0u);
  for (const auto& [id, t] : pair_got[0]) {
    auto it = pair_got[1].find(id);
    ASSERT_NE(it, pair_got[1].end());  // a < 4000 implies a < 6000
    EXPECT_TRUE(t.SamePayload(it->second)) << "row " << id;
  }
}

TEST(ResultPathTest, PunctuationNeverOvertakesItsBatchRows) {
  // A punctuation promises that no later row has a smaller timestamp. Rows
  // are flushed per batch, so the flush must precede the batch's
  // punctuation at every client, sharded or not, projected or not.
  TelegraphCQ::Options opts;
  opts.executor.shards = 2;
  TelegraphCQ server(opts);
  auto e = server.DefineStream(
      "E", {{"id", ValueType::kInt64, 0}, {"v", ValueType::kInt64, 0}},
      {.punctuate = true, .disorder_bound = 0});
  ASSERT_TRUE(e.ok());
  auto all = server.Submit("SELECT * FROM E");
  auto some = server.Submit("SELECT id FROM E WHERE v < 60");
  ASSERT_TRUE(all.ok() && some.ok());
  server.Start();
  SchemaRef sch = Schema::Make(
      {{"id", ValueType::kInt64, *e}, {"v", ValueType::kInt64, *e}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 4096; ++i) {
    rows.push_back(Tuple::Make(
        sch, {Value::Int64(i), Value::Int64(i % 100)}, i / 4 + 1));
  }
  PushRows(&server, "E", rows);
  for (auto* h : {&*all, &*some}) {
    size_t want =
        h == &*all
            ? rows.size()
            : testref::NaiveFilter(rows, {MakeCompareConst({*e, "v"}, CmpOp::kLt,
                                                           Value::Int64(60))})
                  .size();
    size_t data = 0, puncts = 0;
    Timestamp watermark = kMinTimestamp;
    Delivery d;
    for (int waited = 0; waited < 5000 && data < want; ++waited) {
      while (h->results->Poll(&d)) {
        if (d.tuple.IsPunctuation()) {
          ++puncts;
          watermark =
              std::max(watermark, d.tuple.AsPunctuation().low_watermark);
          continue;
        }
        ++data;
        EXPECT_GE(d.tuple.timestamp(), watermark)
            << "row " << d.tuple.at(0).AsInt64()
            << " arrived after a punctuation past it";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(data, want);
    EXPECT_GT(puncts, 0u);
  }
  server.Stop();
}

// Every produced result is accounted once: polled, still buffered, or shed.
// Under kDropNewest and kBlock `delivered` counts exactly the buffered ones,
// so delivered + shed = produced; under kDropOldest every result enters the
// buffer (delivered = produced) and shed counts the stalest evicted.
class ShedAccountingTest : public testing::TestWithParam<ShedPolicy> {};

TEST_P(ShedAccountingTest, BatchOffersAccountForEveryResult) {
  const ShedPolicy policy = GetParam();
  TelegraphCQ::Options opts;
  opts.executor.shards = 2;
  opts.egress_capacity = 32;
  opts.egress_shed = policy;
  TelegraphCQ server(opts);
  auto s = server.DefineStream(
      "S", {{"id", ValueType::kInt64, 0}, {"v", ValueType::kInt64, 0}});
  ASSERT_TRUE(s.ok());
  auto h = server.Submit("SELECT id FROM S WHERE v < 75");
  ASSERT_TRUE(h.ok());
  server.Start();
  SchemaRef sch = Schema::Make(
      {{"id", ValueType::kInt64, *s}, {"v", ValueType::kInt64, *s}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 2048; ++i) {
    rows.push_back(Tuple::Make(
        sch, {Value::Int64(i), Value::Int64(i % 100)}, i + 1));
  }
  const uint64_t produced = testref::NaiveFilter(
      rows, {MakeCompareConst({*s, "v"}, CmpOp::kLt, Value::Int64(75))}).size();
  PushEgress* egress = h->results.get();
  std::atomic<uint64_t> polled{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> polled_before_counted{false};
  // kBlock stalls the shard EOs until the client makes room: poll while
  // pushing. The shedding policies keep the engine live without a client.
  std::thread client;
  if (policy == ShedPolicy::kBlock) {
    client = std::thread([&] {
      Delivery d;
      while (!stop.load()) {
        while (egress->Poll(&d)) {
          // A blocked batch publishes its counts before it waits, so a
          // polled row is always already counted as delivered.
          if (egress->delivered() < polled.fetch_add(1) + 1) {
            polled_before_counted.store(true);
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  PushRows(&server, "S", rows);
  auto accounted = [&] {
    return polled.load() + egress->buffered() + egress->shed();
  };
  for (int waited = 0; waited < 5000 && accounted() < produced; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  if (client.joinable()) client.join();
  server.Stop();
  Delivery d;
  while (egress->Poll(&d)) polled.fetch_add(1);
  EXPECT_EQ(polled.load() + egress->shed(), produced);
  if (policy == ShedPolicy::kDropOldest) {
    // delivered() is left unasserted: it also counts evicted rows.
    EXPECT_GT(egress->shed(), 0u);
  } else {
    EXPECT_EQ(egress->delivered() + egress->shed(), produced);
    EXPECT_EQ(egress->delivered(), polled.load());
  }
  if (policy == ShedPolicy::kBlock) {
    EXPECT_EQ(egress->shed(), 0u);
    EXPECT_FALSE(polled_before_counted.load());
  }
  if (policy == ShedPolicy::kDropNewest) {
    EXPECT_GT(egress->shed(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ShedAccountingTest,
    testing::Values(ShedPolicy::kDropNewest, ShedPolicy::kDropOldest,
                    ShedPolicy::kBlock),
    [](const testing::TestParamInfo<ShedPolicy>& info) {
      switch (info.param) {
        case ShedPolicy::kDropNewest: return std::string("drop_newest");
        case ShedPolicy::kDropOldest: return std::string("drop_oldest");
        case ShedPolicy::kBlock: return std::string("block");
      }
      return std::string("unknown");
    });

}  // namespace
}  // namespace tcq
