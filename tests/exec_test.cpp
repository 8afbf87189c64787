// Executor tests: DU state machines, EO scheduling, query-class formation by
// footprint, dynamic admission through the plan queue, and end-to-end
// multithreaded runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "exec/executor.h"
#include "exec/scheduler.h"

namespace tcq {
namespace {

SchemaRef Sch(SourceId source) {
  return Schema::Make({
      {"k", ValueType::kInt64, source},
      {"v", ValueType::kInt64, source},
  });
}

Tuple Row(SourceId source, int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make(Sch(source), {Value::Int64(k), Value::Int64(v)}, ts);
}

// --- Schedulers ---------------------------------------------------------------

TEST(SchedulerTest, RoundRobinSkipsDone) {
  RoundRobinScheduler sched;
  std::vector<DuSchedInfo> dus(3);
  dus[1].done = true;
  EXPECT_EQ(sched.PickNext(dus), 0u);
  EXPECT_EQ(sched.PickNext(dus), 2u);
  EXPECT_EQ(sched.PickNext(dus), 0u);
  dus[0].done = dus[2].done = true;
  EXPECT_EQ(sched.PickNext(dus), SIZE_MAX);
}

TEST(SchedulerTest, RoundRobinStaysFairWhenDuSetGrows) {
  // Regression: the cursor was stored un-wrapped (cand + 1), so after
  // serving a 1-DU set it pointed past that DU; once the set grew, the
  // rotation resumed from the wrong slot and skipped DU 0.
  RoundRobinScheduler sched;
  std::vector<DuSchedInfo> dus(1);
  EXPECT_EQ(sched.PickNext(dus), 0u);
  dus.resize(3);
  EXPECT_EQ(sched.PickNext(dus), 0u);  // wrapped cursor: rotation continues
  EXPECT_EQ(sched.PickNext(dus), 1u);
  EXPECT_EQ(sched.PickNext(dus), 2u);
  EXPECT_EQ(sched.PickNext(dus), 0u);
}

TEST(SchedulerTest, TicketNeverStarvesZeroProgressDu) {
  // Starvation regression: a DU whose recent_progress decayed to exactly 0
  // must still be drawn within a bounded number of picks — the 0.05 ticket
  // floor gives it ~0.05/3.20 of the draws here (expected gap ~64).
  TicketScheduler sched(42);
  std::vector<DuSchedInfo> dus(4);
  for (size_t i = 0; i + 1 < dus.size(); ++i) dus[i].recent_progress = 1.0;
  dus.back().recent_progress = 0.0;  // the starvation candidate

  int gap = 0;
  int max_gap = 0;
  for (int i = 0; i < 20000; ++i) {
    size_t pick = sched.PickNext(dus);
    ASSERT_LT(pick, dus.size());
    if (pick == dus.size() - 1) {
      gap = 0;
    } else {
      max_gap = std::max(max_gap, ++gap);
    }
  }
  // A generous bound (~30x the expected gap) that only a zero-weight
  // starvation bug would exceed with this seed.
  EXPECT_LT(max_gap, 2000);
}

TEST(SchedulerTest, TicketFavoursProgress) {
  TicketScheduler sched(7);
  std::vector<DuSchedInfo> dus(2);
  dus[0].recent_progress = 1.0;
  dus[1].recent_progress = 0.0;
  int first = 0;
  for (int i = 0; i < 1000; ++i) {
    if (sched.PickNext(dus) == 0u) ++first;
  }
  EXPECT_GT(first, 700);
  EXPECT_GT(1000 - first, 10);  // idle DU still polled
}

// --- DUs over fjords -----------------------------------------------------------

TEST(DispatchUnitTest, SharedCQConsumesAndCompletes) {
  auto eddy = std::make_unique<SharedEddy>(MakeLotteryPolicy(1));
  eddy->RegisterStream(0, Sch(0));
  SharedCQDispatchUnit du("du0", std::move(eddy), {.quantum = 8});

  auto endpoints = Fjord::Make(FjordMode::kPush, 256);
  du.AddInput(0, endpoints.consumer);

  std::atomic<size_t> delivered{0};
  du.SubmitTask([&](SharedEddy* e) {
    e->SetOutput([&](QueryId, const Tuple&) { ++delivered; });
    CQSpec spec;
    spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(50)});
    ASSERT_TRUE(e->AddQuery(spec).ok());
  });

  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(endpoints.producer.Produce(Row(0, i % 100, 0, i)), QueueOp::kOk);
  }
  // Queue not closed: DU progresses then idles.
  DispatchUnit::StepResult r = du.Step();
  EXPECT_EQ(r, DispatchUnit::StepResult::kProgress);
  while (du.Step() == DispatchUnit::StepResult::kProgress) {
  }
  EXPECT_EQ(du.Step(), DispatchUnit::StepResult::kIdle);
  endpoints.producer.Close();
  EXPECT_EQ(du.Step(), DispatchUnit::StepResult::kDone);
  EXPECT_EQ(delivered.load(), 50u);
}

TEST(DispatchUnitTest, WindowedQueryFiresThroughDU) {
  WindowedQuery wq;
  wq.loop = ForLoopSpec::Sliding({0}, 5, 5, 20);
  std::vector<WindowResult> fired;
  WindowedQueryDispatchUnit du(
      "win", wq, [&](const WindowResult& r) { fired.push_back(r); }, 8);
  auto endpoints = Fjord::Make(FjordMode::kPush, 64);
  du.AddInput(0, endpoints.consumer);

  for (Timestamp t = 1; t <= 12; ++t) {
    ASSERT_EQ(endpoints.producer.Produce(Row(0, 1, 2, t)), QueueOp::kOk);
  }
  while (du.Step() == DispatchUnit::StepResult::kProgress) {
  }
  EXPECT_EQ(fired.size(), 7u);  // windows ending 5..11; 12 awaits ts > 12
  endpoints.producer.Close();
  while (du.Step() != DispatchUnit::StepResult::kDone) {
  }
  EXPECT_EQ(fired.size(), 16u);  // remaining windows fire at end of stream
  EXPECT_EQ(fired[7].tuples.size(), 5u);   // window [8, 12] is full
  EXPECT_EQ(fired.back().tuples.size(), 0u);  // [16, 20] is past the data
}

// --- ExecutionObject ------------------------------------------------------------

class CountdownDU : public DispatchUnit {
 public:
  CountdownDU(std::string name, int quanta, std::atomic<int>* counter)
      : DispatchUnit(std::move(name)), remaining_(quanta), counter_(counter) {}

  StepResult Step() override {
    if (remaining_ <= 0) {
      CountStep(StepResult::kDone);
      return StepResult::kDone;
    }
    --remaining_;
    counter_->fetch_add(1);
    StepResult r =
        remaining_ == 0 ? StepResult::kDone : StepResult::kProgress;
    CountStep(r);
    return r;
  }

 private:
  int remaining_;
  std::atomic<int>* counter_;
};

TEST(ExecutionObjectTest, RunsAllDusToCompletion) {
  ExecutionObject eo("eo", MakeRoundRobinScheduler());
  std::atomic<int> counter{0};
  eo.AddDispatchUnit(std::make_shared<CountdownDU>("a", 50, &counter));
  eo.AddDispatchUnit(std::make_shared<CountdownDU>("b", 70, &counter));
  eo.Start();
  // An EO idles rather than exits once every DU is done: wait for the work,
  // then stop it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter.load() < 120 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  eo.Stop();
  EXPECT_EQ(counter.load(), 120);
  EXPECT_GE(eo.quanta_run(), 120u);
}

// --- Park/ring: an idle EO sleeps on its work signal until a producer rings ----

/// A shared-CQ DU that records each step, so a test can see that the EO
/// woke and stepped it (and what the step returned).
class ObservedDU : public SharedCQDispatchUnit {
 public:
  explicit ObservedDU(std::unique_ptr<SharedEddy> eddy)
      : SharedCQDispatchUnit("du", std::move(eddy), Options{}) {}

  StepResult Step() override {
    StepResult r = SharedCQDispatchUnit::Step();
    last_.store(r);
    stepped_.fetch_add(1);
    return r;
  }

  uint64_t stepped() const { return stepped_.load(); }
  StepResult last() const { return last_.load(); }

 private:
  std::atomic<uint64_t> stepped_{0};
  std::atomic<StepResult> last_{StepResult::kIdle};
};

/// Polls `pred` for up to 5 s. The EO has no timed wake-up, so a dropped
/// ring leaves it parked and the wait runs out.
template <typename Pred>
bool Eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// One EO hosting one shared-CQ DU over one stream. The test plays the
/// producer: after each enqueue or Close() it rings the DU's host, as the
/// executor's routing and the facade's windowed fan-out do.
struct ParkedEo {
  ExecutionObject eo{"eo", MakeRoundRobinScheduler()};
  std::shared_ptr<ObservedDU> du;
  Fjord::Endpoints input = Fjord::Make(FjordMode::kPush, 256, "in");
  std::atomic<size_t> results{0};
  std::atomic<size_t> punctuations{0};

  ParkedEo() {
    auto eddy = std::make_unique<SharedEddy>(MakeLotteryPolicy(1));
    eddy->RegisterStream(0, Sch(0));
    du = std::make_shared<ObservedDU>(std::move(eddy));
    du->set_control_sink([this](const Punctuation&) { ++punctuations; });
  }

  /// True once the EO thread is inside Park(): it read the signal before
  /// its last idle round, so only a ring can wake it now.
  bool Parked() {
    return Eventually([&] { return eo.parked(); });
  }

  /// Admits `k < 50` through the plan queue and returns once it is bound.
  void Admit() {
    auto bound = std::make_shared<std::atomic<bool>>(false);
    du->SubmitTask([this, bound](SharedEddy* e) {
      CQSpec spec;
      spec.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(50)});
      Result<QueryId> q = e->AddQuery(spec);
      ASSERT_TRUE(q.ok());
      du->BindSink(*q, SinkBinding{1,
                                   [this](uint64_t, ResultRows rows) {
                                     results += rows.size();
                                   },
                                   std::nullopt});
      bound->store(true);
    });
    ASSERT_TRUE(Eventually([&] { return bound->load(); }))
        << "SubmitTask did not wake the parked EO";
  }
};

TEST(ParkRingTest, ParkedEoWakesForEveryKindOfWork) {
  ParkedEo p;
  p.eo.Start();
  ASSERT_TRUE(p.Parked()) << "an EO with no DU must park";

  // AddDispatchUnit rings, and makes the EO the DU's host; removal clears
  // the host, so a detached DU's RingHost is a no-op.
  EXPECT_EQ(p.du->host_signal(), nullptr);
  p.eo.AddDispatchUnit(p.du);
  EXPECT_NE(p.du->host_signal(), nullptr);
  ASSERT_TRUE(Eventually([&] { return p.du->stepped() > 0; }))
      << "AddDispatchUnit did not wake the parked EO";
  ASSERT_TRUE(p.Parked());
  ASSERT_TRUE(p.eo.RemoveDispatchUnit(p.du));
  EXPECT_EQ(p.du->host_signal(), nullptr);
  const uint64_t detached_steps = p.du->stepped();
  p.eo.AddDispatchUnit(p.du);
  ASSERT_TRUE(Eventually([&] { return p.du->stepped() > detached_steps; }))
      << "re-adding a DU did not wake the parked EO";
  ASSERT_TRUE(p.Parked());

  // SubmitTask rings.
  p.Admit();
  ASSERT_TRUE(p.Parked());

  // AddInput rings: the next step folds the input in.
  uint64_t before = p.du->stepped();
  p.du->AddInput(0, p.input.consumer);
  ASSERT_TRUE(Eventually([&] { return p.du->stepped() > before; }))
      << "AddInput did not wake the parked EO";
  ASSERT_TRUE(p.Parked());

  // A data enqueue, then RingHost.
  TupleBatch batch(0);
  for (int i = 0; i < 100; ++i) batch.push_back(Row(0, i, 0, i + 1));
  ASSERT_EQ(p.input.producer.ProduceBatch(&batch), QueueOp::kOk);
  p.du->RingHost();
  ASSERT_TRUE(Eventually([&] { return p.results.load() == 50; }))
      << "a data enqueue did not wake the parked EO";
  ASSERT_TRUE(p.Parked());

  // A punctuation-only batch, then RingHost.
  TupleBatch punct(0);
  punct.AddPunctuation(Punctuation{0, 100});
  ASSERT_EQ(p.input.producer.ProduceBatch(&punct), QueueOp::kOk);
  p.du->RingHost();
  ASSERT_TRUE(Eventually([&] { return p.punctuations.load() == 1; }))
      << "a punctuation-only batch did not wake the parked EO";
  ASSERT_TRUE(p.Parked());

  // Close, then RingHost: the DU then finishes.
  p.input.producer.Close();
  p.du->RingHost();
  ASSERT_TRUE(Eventually([&] {
    return p.du->last() == DispatchUnit::StepResult::kDone;
  })) << "Close() did not wake the parked EO";
  ASSERT_TRUE(p.Parked()) << "an EO whose DUs are all done must park";

  // Stop rings: it returns although the EO is parked.
  p.eo.Stop();
  EXPECT_FALSE(p.eo.running());
  EXPECT_EQ(p.results.load(), 50u);
  EXPECT_GT(p.eo.wakeups(), 0u);
  EXPECT_LE(p.eo.wakeups(), p.eo.parks());
}

TEST(ParkRingTest, StopReturnsWhileParked) {
  ExecutionObject eo("eo", MakeRoundRobinScheduler());
  std::atomic<int> counter{0};
  eo.AddDispatchUnit(std::make_shared<CountdownDU>("a", 3, &counter));
  eo.Start();
  ASSERT_TRUE(Eventually([&] { return eo.parked(); }));
  eo.Stop();
  EXPECT_FALSE(eo.running());
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParkRingTest, RoutedBatchPunctuationAndCloseWakeParkedEos) {
  // Routing rings the EO of every shard it fed once the batch is enqueued,
  // a punctuation-only batch included, and CloseStream rings after closing
  // the shard fjords: each must reach parked EOs, on the single-shard path
  // and the partitioned one.
  for (size_t shards : {1, 2}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    Executor exec({.num_eos = 2, .shards = shards});
    ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
    ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    std::atomic<size_t> joined{0};
    std::atomic<size_t> punctuations{0};
    ASSERT_TRUE(exec.SubmitQuery(join, [&](GlobalQueryId, ResultRows rows) {
                      for (const Tuple& t : rows) {
                        if (t.IsPunctuation()) {
                          ++punctuations;
                        } else {
                          ++joined;
                        }
                      }
                    }).ok());
    auto parked = [&] {
      return Eventually([&] { return exec.parked_eos() == 2; });
    };
    auto quanta = [&] {
      return exec.metrics()->Snapshot().CounterFamilySum(
          "tcq_eo_quanta_total");
    };
    exec.Start();
    ASSERT_TRUE(parked());
    for (SourceId s = 0; s < 2; ++s) {
      TupleBatch batch(s);
      for (int64_t k = 0; k < 64; ++k) batch.push_back(Row(s, k, 0, k + 1));
      ASSERT_TRUE(exec.IngestBatch(std::move(batch)).ok());
    }
    ASSERT_TRUE(Eventually([&] { return joined.load() == 64; }))
        << "a routed batch did not wake the parked EOs";
    ASSERT_TRUE(parked());
    for (SourceId s = 0; s < 2; ++s) {
      TupleBatch punct(s);
      punct.AddPunctuation(Punctuation{s, 100});
      ASSERT_TRUE(exec.IngestBatch(std::move(punct)).ok());
    }
    ASSERT_TRUE(Eventually([&] { return punctuations.load() > 0; }))
        << "a punctuation-only batch did not wake the parked EOs";
    ASSERT_TRUE(parked());
    const uint64_t before = quanta();
    ASSERT_TRUE(exec.CloseStream(0).ok());
    ASSERT_TRUE(Eventually([&] { return quanta() > before; }))
        << "CloseStream did not wake the parked EOs";
    exec.Stop();
    EXPECT_EQ(joined.load(), 64u);
  }
}

TEST(ParkRingTest, RoutedBatchWakesOnlyTheEoHostingItsShard) {
  // Two disjoint classes, one per EO. Batches for one class must not wake
  // the other class's EO: each EO parks on its own signal.
  Executor exec({.num_eos = 2});
  for (SourceId s = 0; s < 2; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
  }
  std::atomic<size_t> results{0};
  for (SourceId s = 0; s < 2; ++s) {
    CQSpec q;
    q.filters.push_back({{s, "k"}, CmpOp::kLt, Value::Int64(1000)});
    ASSERT_TRUE(exec.SubmitQuery(q, [&](GlobalQueryId, ResultRows rows) {
                      results += rows.size();
                    }).ok());
  }
  std::vector<Executor::ClassInfo> topo = exec.Topology();
  ASSERT_EQ(topo.size(), 2u);
  ASSERT_NE(topo[0].eo, topo[1].eo) << "the classes must sit on two EOs";
  const size_t fed = topo[0].eo;
  const size_t other = topo[1].eo;
  auto counter = [&](const char* family, size_t eo) {
    return exec.metrics()
        ->GetCounter(MetricName(family, "eo", "eo" + std::to_string(eo)))
        ->Value();
  };
  exec.Start();
  ASSERT_TRUE(Eventually([&] { return exec.parked_eos() == 2; }));
  const uint64_t other_quanta = counter("tcq_eo_quanta_total", other);
  const uint64_t other_wakeups = counter("tcq_eo_wakeups_total", other);
  const uint64_t fed_wakeups = counter("tcq_eo_wakeups_total", fed);
  constexpr int kBatches = 20;
  for (int b = 0; b < kBatches; ++b) {
    TupleBatch batch((topo[0].streams & 1) != 0 ? 0 : 1);
    for (int64_t k = 0; k < 8; ++k) {
      batch.push_back(Row(batch.source(), k, 0, b * 8 + k + 1));
    }
    ASSERT_TRUE(exec.IngestBatch(std::move(batch)).ok());
    // Let the fed EO drain and park again, so every batch meets a parked
    // executor.
    ASSERT_TRUE(Eventually([&] {
      return results.load() == static_cast<size_t>(8 * (b + 1)) &&
             exec.parked_eos() == 2;
    }));
  }
  EXPECT_GT(counter("tcq_eo_wakeups_total", fed), fed_wakeups);
  EXPECT_EQ(counter("tcq_eo_wakeups_total", other), other_wakeups);
  EXPECT_EQ(counter("tcq_eo_quanta_total", other), other_quanta);
  exec.Stop();
}

TEST(ParkRingTest, IdleExecutorRunsAtMostOneRoundOfQuanta) {
  // Three disjoint classes over two EOs, then nothing to do. Each EO steps
  // each of its DUs once, finds them all idle and parks: at most
  // num_dus + 1 quanta, however long the executor stays idle (a timed
  // back-off would run one round per back-off instead).
  Executor exec({.num_eos = 2});
  constexpr size_t kDus = 3;
  for (SourceId s = 0; s < kDus; ++s) {
    ASSERT_TRUE(exec.RegisterStream(s, Sch(s)).ok());
    CQSpec q;
    q.filters.push_back({{s, "k"}, CmpOp::kLt, Value::Int64(5)});
    ASSERT_TRUE(exec.SubmitQuery(q, [](GlobalQueryId, ResultRows) {}).ok());
  }
  ASSERT_EQ(exec.num_classes(), kDus);
  auto quanta = [&] {
    return exec.metrics()->Snapshot().CounterFamilySum("tcq_eo_quanta_total");
  };
  const uint64_t before = quanta();
  exec.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t ran = quanta() - before;
  exec.Stop();
  EXPECT_LE(ran, kDus + 1);
  EXPECT_GE(ran, kDus);  // every DU was stepped once before its EO parked
}

// --- Executor (query classes, admission, end to end) ----------------------------

TEST(ExecutorTest, DisjointFootprintsGetSeparateClasses) {
  Executor exec({.num_eos = 2});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());

  CQSpec q0;
  q0.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(5)});
  CQSpec q1;
  q1.filters.push_back({{1, "k"}, CmpOp::kLt, Value::Int64(5)});
  auto id0 = exec.SubmitQuery(q0, [](GlobalQueryId, ResultRows) {});
  auto id1 = exec.SubmitQuery(q1, [](GlobalQueryId, ResultRows) {});
  ASSERT_TRUE(id0.ok() && id1.ok());
  EXPECT_NE(*id0, *id1);
  EXPECT_EQ(exec.num_classes(), 2u);

  // A third query over stream 0 joins the existing class.
  CQSpec q2;
  q2.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(1)});
  ASSERT_TRUE(exec.SubmitQuery(q2, [](GlobalQueryId, ResultRows) {}).ok());
  EXPECT_EQ(exec.num_classes(), 2u);
}

TEST(ExecutorTest, BridgingQueryMergesClasses) {
  Executor exec;
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());
  CQSpec q0;
  q0.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(5)});
  CQSpec q1;
  q1.filters.push_back({{1, "k"}, CmpOp::kLt, Value::Int64(5)});
  ASSERT_TRUE(exec.SubmitQuery(q0, [](GlobalQueryId, ResultRows) {}).ok());
  ASSERT_TRUE(exec.SubmitQuery(q1, [](GlobalQueryId, ResultRows) {}).ok());
  EXPECT_EQ(exec.num_classes(), 2u);

  // A join bridging both classes merges them instead of being rejected
  // (closing the paper's §4.2.2 "class re-adjustment" open issue).
  CQSpec bridge;
  bridge.joins.push_back({{0, "k"}, {1, "k"}});
  std::atomic<size_t> joined{0};
  auto r = exec.SubmitQuery(
      bridge, [&](GlobalQueryId, ResultRows rows) { joined += rows.size(); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(exec.num_classes(), 1u);
  EXPECT_EQ(exec.class_merges(), 1u);
  auto topo = exec.Topology();
  ASSERT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo[0].streams, SourceBit(0) | SourceBit(1));
  EXPECT_EQ(topo[0].num_queries, 3u);

  // The merged class actually executes the bridging join.
  exec.Start();
  ASSERT_TRUE(exec.IngestTuple(0, Row(0, 7, 0, 1)).ok());
  ASSERT_TRUE(exec.IngestTuple(1, Row(1, 7, 0, 2)).ok());
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());
  for (int i = 0; i < 500 && joined.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  exec.Stop();
  EXPECT_EQ(joined.load(), 1u);
}

TEST(ExecutorTest, ZeroRebalanceIntervalStaysResponsive) {
  // An interval of 0 runs as 1 ms: the background pass must not spin on the
  // executor lock, and admission and ingest must still go through.
  Executor exec({.num_eos = 2, .rebalance = true, .rebalance_interval_ms = 0});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  exec.Start();
  std::atomic<size_t> results{0};
  CQSpec q;
  q.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(10)});
  ASSERT_TRUE(exec.SubmitQuery(q, [&](GlobalQueryId, ResultRows rows) {
                    results += rows.size();
                  }).ok());
  TupleBatch batch(0);
  for (int64_t k = 0; k < 20; ++k) batch.push_back(Row(0, k, 0, k + 1));
  ASSERT_TRUE(exec.IngestBatch(std::move(batch)).ok());
  ASSERT_TRUE(Eventually([&] { return results.load() == 10; }));
  Counter* passes =
      exec.metrics()->GetCounter("tcq_executor_rebalance_passes_total");
  const auto w0 = std::chrono::steady_clock::now();
  const uint64_t passes0 = passes->Value();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t ran = passes->Value() - passes0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto window_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(t0 - w0).count();
  exec.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_GT(ran, 0u);
  // Each pass waits >= 1 ms after the one before, so the window (measured,
  // in case this thread oversleeps) holds at most one pass per ms, plus
  // slack for its edges. Unclamped, a 0 ms wait ran thousands in 200 ms.
  EXPECT_LE(ran, static_cast<uint64_t>(window_ms) + 10);
}

TEST(ExecutorTest, UnknownStreamRejected) {
  Executor exec;
  CQSpec q;
  q.filters.push_back({{3, "k"}, CmpOp::kLt, Value::Int64(5)});
  EXPECT_TRUE(
      exec.SubmitQuery(q, [](GlobalQueryId, ResultRows) {}).status()
          .IsNotFound());
  CQSpec empty;
  EXPECT_TRUE(exec.SubmitQuery(empty, [](GlobalQueryId, ResultRows) {})
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorTest, EndToEndMultithreaded) {
  Executor exec({.num_eos = 2, .quantum = 32});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  ASSERT_TRUE(exec.RegisterStream(1, Sch(1)).ok());

  std::atomic<size_t> got0{0}, got1{0};
  CQSpec q0;
  q0.filters.push_back({{0, "k"}, CmpOp::kLt, Value::Int64(50)});
  CQSpec q1;
  q1.joins.push_back({{1, "k"}, {1, "k"}});  // degenerate: same source? no —
  // use a filter for stream 1 instead.
  q1 = CQSpec{};
  q1.filters.push_back({{1, "v"}, CmpOp::kGe, Value::Int64(50)});

  auto id0 = exec.SubmitQuery(
      q0, [&](GlobalQueryId, ResultRows rows) { got0 += rows.size(); });
  auto id1 = exec.SubmitQuery(
      q1, [&](GlobalQueryId, ResultRows rows) { got1 += rows.size(); });
  ASSERT_TRUE(id0.ok() && id1.ok());
  exec.Start();

  Rng rng(3);
  size_t expect0 = 0, expect1 = 0;
  for (int i = 0; i < 2000; ++i) {
    int64_t k = rng.UniformInt(0, 99), v = rng.UniformInt(0, 99);
    ASSERT_TRUE(exec.IngestTuple(0, Row(0, k, v, i)).ok());
    ASSERT_TRUE(exec.IngestTuple(1, Row(1, k, v, i)).ok());
    if (k < 50) ++expect0;
    if (v >= 50) ++expect1;
  }
  ASSERT_TRUE(exec.CloseStream(0).ok());
  ASSERT_TRUE(exec.CloseStream(1).ok());
  // Wait for drain.
  for (int i = 0; i < 500; ++i) {
    if (got0 == expect0 && got1 == expect1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  exec.Stop();
  EXPECT_EQ(got0.load(), expect0);
  EXPECT_EQ(got1.load(), expect1);
}

TEST(ExecutorTest, RemoveQueryStopsDeliveries) {
  Executor exec({.num_eos = 1});
  ASSERT_TRUE(exec.RegisterStream(0, Sch(0)).ok());
  std::atomic<size_t> got{0};
  CQSpec q;
  q.filters.push_back({{0, "k"}, CmpOp::kGe, Value::Int64(0)});
  auto id = exec.SubmitQuery(q, [&](GlobalQueryId, ResultRows rows) { got += rows.size(); });
  ASSERT_TRUE(id.ok());
  exec.Start();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(exec.IngestTuple(0, Row(0, 1, 1, i)).ok());
  }
  for (int i = 0; i < 200 && got.load() < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(got.load(), 100u);
  // Removing the class's last query GCs the whole class: the stream is no
  // longer consumed, so further ingest is refused (and counted) rather than
  // silently buffered for nobody.
  ASSERT_TRUE(exec.RemoveQuery(*id).ok());
  EXPECT_EQ(exec.num_classes(), 0u);
  EXPECT_EQ(exec.class_gcs(), 1u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        exec.IngestTuple(0, Row(0, 1, 1, 100 + i)).IsFailedPrecondition());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  exec.Stop();
  EXPECT_EQ(got.load(), 100u);
  EXPECT_TRUE(exec.RemoveQuery(*id).IsNotFound());
}

}  // namespace
}  // namespace tcq
