// E4 — CACQ shared execution vs query-at-a-time (paper §3.1): N similar
// continuous queries (a shared join edge plus per-query range filters) run
// either in ONE shared eddy (grouped filters + shared SteMs + lineage) or in
// N independent eddies, each rebuilding its own join state and filters.
// The shape: shared throughput degrades slowly with N; query-at-a-time
// degrades linearly — the gap is the work sharing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "bench_common.h"
#include "cacq/shared_eddy.h"
#include "eddy/eddy.h"
#include "exec/executor.h"
#include "operators/selection.h"

namespace tcq {
namespace {

using bench::KVRow;
using bench::KVSchema;
using bench::UniformStream;

constexpr size_t kTuplesPerSide = 3000;
constexpr int64_t kKeyRange = 40;

// Query q: S.k = T.k AND S.v >= lo_q AND S.v < lo_q + 30.
struct QueryParams {
  int64_t lo;
};

std::vector<QueryParams> MakeParams(size_t n) {
  std::vector<QueryParams> out;
  Rng rng(5);
  for (size_t q = 0; q < n; ++q) out.push_back({rng.UniformInt(0, 69)});
  return out;
}

void BM_SharedCACQ(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto params = MakeParams(n);
  auto s = UniformStream(0, kTuplesPerSide, kKeyRange, 1);
  auto t = UniformStream(1, kTuplesPerSide, kKeyRange, 2);

  uint64_t deliveries = 0, tuples = 0;
  for (auto _ : state) {
    SharedEddy eddy(MakeLotteryPolicy(3));
    eddy.RegisterStream(0, KVSchema(0));
    eddy.RegisterStream(1, KVSchema(1));
    eddy.SetOutput([&](QueryId, const Tuple&) { ++deliveries; });
    for (const QueryParams& p : params) {
      CQSpec spec;
      spec.joins.push_back({{0, "k"}, {1, "k"}});
      spec.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(p.lo)});
      spec.filters.push_back({{0, "v"}, CmpOp::kLt, Value::Int64(p.lo + 30)});
      (void)eddy.AddQuery(spec);
    }
    for (size_t i = 0; i < s.size(); ++i) {
      eddy.Ingest(0, s[i]);
      eddy.Ingest(1, t[i]);
    }
    tuples += 2 * kTuplesPerSide;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["queries"] = static_cast<double>(n);
  state.counters["deliveries"] = static_cast<double>(deliveries);
}
BENCHMARK(BM_SharedCACQ)
    ->RangeMultiplier(4)
    ->Range(1, 256)
    ->Unit(benchmark::kMillisecond);

void BM_QueryAtATime(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto params = MakeParams(n);
  auto s = UniformStream(0, kTuplesPerSide, kKeyRange, 1);
  auto t = UniformStream(1, kTuplesPerSide, kKeyRange, 2);

  uint64_t deliveries = 0, tuples = 0;
  for (auto _ : state) {
    // One full eddy (own SteMs, own filters) per query.
    std::vector<std::unique_ptr<Eddy>> eddies;
    std::vector<std::shared_ptr<SteM>> stems;
    for (const QueryParams& p : params) {
      auto stem_s = std::make_shared<SteM>("s", 0, KVSchema(0),
                                           StemOptions{.key_attr = "k"});
      auto stem_t = std::make_shared<SteM>("t", 1, KVSchema(1),
                                           StemOptions{.key_attr = "k"});
      auto eddy = std::make_unique<Eddy>(MakeLotteryPolicy(3));
      eddy->AttachSteM(stem_s);
      eddy->AttachSteM(stem_t);
      eddy->AddModule(std::make_unique<SteMProbe>(
          "probeS", stem_s.get(),
          JoinSpec{AttrRef{1, "k"}, AttrRef{0, "k"}, {}}));
      eddy->AddModule(std::make_unique<SteMProbe>(
          "probeT", stem_t.get(),
          JoinSpec{AttrRef{0, "k"}, AttrRef{1, "k"}, {}}));
      eddy->AddModule(std::make_unique<Selection>(
          "flo", MakeCompareConst({0, "v"}, CmpOp::kGe, Value::Int64(p.lo))));
      eddy->AddModule(std::make_unique<Selection>(
          "fhi",
          MakeCompareConst({0, "v"}, CmpOp::kLt, Value::Int64(p.lo + 30))));
      eddy->SetOutput([&](const Tuple&) { ++deliveries; });
      stems.push_back(stem_s);
      stems.push_back(stem_t);
      eddies.push_back(std::move(eddy));
    }
    for (size_t i = 0; i < s.size(); ++i) {
      for (auto& eddy : eddies) {
        eddy->Ingest(0, s[i]);
        eddy->Ingest(1, t[i]);
      }
    }
    tuples += 2 * kTuplesPerSide;
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["queries"] = static_cast<double>(n);
  state.counters["deliveries"] = static_cast<double>(deliveries);
}
BENCHMARK(BM_QueryAtATime)
    ->RangeMultiplier(4)
    ->Range(1, 64)
    ->Unit(benchmark::kMillisecond);

// Query add/remove churn: CACQ folds queries in and out of a RUNNING shared
// dataflow; this measures the cost of that adaptivity.
void BM_QueryChurn(benchmark::State& state) {
  auto s = UniformStream(0, 2000, kKeyRange, 1);
  uint64_t churns = 0;
  for (auto _ : state) {
    SharedEddy eddy(MakeLotteryPolicy(3));
    eddy.RegisterStream(0, KVSchema(0));
    eddy.SetOutput([](QueryId, const Tuple&) {});
    std::vector<QueryId> live;
    Rng rng(13);
    for (size_t i = 0; i < s.size(); ++i) {
      eddy.Ingest(0, s[i]);
      if (i % 50 == 0) {
        CQSpec spec;
        int64_t lo = rng.UniformInt(0, 69);
        spec.filters.push_back({{0, "v"}, CmpOp::kGe, Value::Int64(lo)});
        auto id = eddy.AddQuery(spec);
        if (id.ok()) live.push_back(*id);
        if (live.size() > 20) {
          (void)eddy.RemoveQuery(live.front());
          live.erase(live.begin());
        }
        ++churns;
      }
    }
  }
  state.counters["churns"] = static_cast<double>(churns);
}
BENCHMARK(BM_QueryChurn)->Unit(benchmark::kMillisecond);

// Batched vs per-tuple ingest into the shared eddy, on the workload batching
// targets: a network-monitor-style rule set whose point filters spread over
// eight attributes, so every tuple makes eight routing hops through eight
// grouped-filter modules (most rules match nothing — exactly when per-tuple
// routing overhead dominates). Arg(1) is the per-tuple Ingest() baseline;
// larger args cut the stream into IngestBatch() calls, amortizing the stream
// lookup, the QueriesTouching scan, and — via the drain-scoped decision
// cache — all eight ready-computations and rankings across identical-lineage
// tuples. The BENCH_batching.json criterion compares Arg(64) against Arg(1).
void BM_SharedCACQBatchedIngest(benchmark::State& state) {
  size_t batch_size = static_cast<size_t>(state.range(0));
  constexpr size_t kQueries = 64;
  constexpr size_t kAttrs = 8;
  constexpr size_t kStream = 20000;
  constexpr int64_t kWideKeyRange = 4096;

  std::vector<Field> fields;
  for (size_t a = 0; a < kAttrs; ++a) {
    fields.push_back({"a" + std::to_string(a), ValueType::kInt64, 0});
  }
  SchemaRef schema = Schema::Make(std::move(fields));

  std::vector<Tuple> s;
  s.reserve(kStream);
  {
    Rng rng(7);
    for (size_t i = 0; i < kStream; ++i) {
      std::vector<Value> vals;
      vals.reserve(kAttrs);
      for (size_t a = 0; a < kAttrs; ++a) {
        vals.push_back(Value::Int64(rng.UniformInt(0, kWideKeyRange - 1)));
      }
      s.push_back(Tuple::Make(schema, std::move(vals),
                              static_cast<Timestamp>(i)));
    }
  }

  uint64_t tuples = 0, reused = 0;
  for (auto _ : state) {
    SharedEddy eddy(MakeLotteryPolicy(3));
    eddy.RegisterStream(0, schema);
    eddy.SetOutput([](QueryId, const Tuple&) {});
    Rng rng(11);
    for (size_t q = 0; q < kQueries; ++q) {
      CQSpec spec;
      spec.filters.push_back(
          {{0, "a" + std::to_string(q % kAttrs)},
           CmpOp::kEq,
           Value::Int64(rng.UniformInt(0, kWideKeyRange))});
      (void)eddy.AddQuery(spec);
    }
    if (batch_size <= 1) {
      for (const Tuple& t : s) eddy.Ingest(0, t);
    } else {
      TupleBatch batch;
      batch.set_source(0);
      for (const Tuple& t : s) {
        batch.push_back(t);
        if (batch.size() >= batch_size) {
          eddy.IngestBatch(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) eddy.IngestBatch(batch);
    }
    tuples += kStream;
    reused = eddy.routing_decisions_reused();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["batch_size"] = static_cast<double>(batch_size);
  state.counters["decisions_reused"] = static_cast<double>(reused);
}
BENCHMARK(BM_SharedCACQBatchedIngest)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// E12 — Flux-sharded executor scaling (paper §2.4 + §4.2.2): ONE query
// class (a shared join plus a fan of range filters) partitioned across
// Arg(0) shard replicas, each pumped by its own dispatch unit on its own
// execution object. Ingest is batched; tuples hash-partition on the join
// key at the class boundary. Each iteration runs the workload to full
// drain (delivery count == precomputed ground truth). Only partitioned
// ingest, parallel pumping and merge-back are timed: construction,
// admission, Start() and Stop() run with the clock paused, and the sink
// signals the waiting thread when the last expected result arrives.
// Speedup vs Arg(1) measures shard scaling — meaningful only on a
// multi-core host; a 1-core container serializes the shard pumps.
void BM_ShardedExecutor(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  constexpr size_t kSide = 6000;
  constexpr int64_t kKeys = 2048;
  constexpr size_t kFilters = 16;
  constexpr size_t kIngestBatch = 256;
  auto s = UniformStream(0, kSide, kKeys, 21);
  auto t = UniformStream(1, kSide, kKeys, 22);

  // Ground-truth delivery count so every iteration waits for full drain.
  uint64_t expected = 0;
  {
    std::map<int64_t, uint64_t> lhs;
    for (const Tuple& row : s) ++lhs[row.at(0).AsInt64()];
    for (const Tuple& row : t) expected += lhs[row.at(0).AsInt64()];
    for (size_t q = 0; q < kFilters; ++q) {
      const int64_t lo = static_cast<int64_t>(q) * 6;
      for (const Tuple& row : s) {
        if (row.at(1).AsInt64() >= lo) ++expected;
      }
    }
  }

  // Signalled by the sink thread that delivers the last expected result.
  struct Drain {
    std::atomic<uint64_t> delivered{0};
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  uint64_t tuples = 0;
  bool drained = true;
  for (auto _ : state) {
    state.PauseTiming();
    Executor::Options opts;
    opts.num_eos = shards;
    opts.shards = shards;
    auto exec = std::make_unique<Executor>(opts);
    (void)exec->RegisterStream(0, KVSchema(0));
    (void)exec->RegisterStream(1, KVSchema(1));
    Drain drain;
    Executor::Sink sink = [&drain, expected](GlobalQueryId, ResultRows rows) {
      uint64_t now =
          drain.delivered.fetch_add(rows.size(), std::memory_order_relaxed) +
          rows.size();
      if (now >= expected && now - rows.size() < expected) {
        {
          std::lock_guard<std::mutex> lock(drain.mu);
          drain.done = true;
        }
        drain.cv.notify_all();
      }
    };
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    (void)exec->SubmitQuery(join, sink);
    for (size_t q = 0; q < kFilters; ++q) {
      CQSpec f;
      f.filters.push_back({{0, "v"},
                           CmpOp::kGe,
                           Value::Int64(static_cast<int64_t>(q) * 6)});
      (void)exec->SubmitQuery(f, sink);
    }
    exec->Start();
    state.ResumeTiming();
    for (size_t off = 0; off < kSide; off += kIngestBatch) {
      for (SourceId src = 0; src < 2; ++src) {
        const auto& stream = src == 0 ? s : t;
        TupleBatch batch;
        batch.set_source(src);
        const size_t end = std::min(off + kIngestBatch, kSide);
        for (size_t i = off; i < end; ++i) batch.push_back(stream[i]);
        (void)exec->IngestBatch(std::move(batch));
      }
    }
    (void)exec->CloseStream(0);
    (void)exec->CloseStream(1);
    {
      std::unique_lock<std::mutex> lock(drain.mu);
      drain.cv.wait_for(lock, std::chrono::seconds(60),
                        [&] { return drain.done; });
    }
    state.PauseTiming();
    drained = drained && drain.delivered.load() == expected;
    exec->Stop();
    exec.reset();
    tuples += 2 * kSide;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["expected"] = static_cast<double>(expected);
  state.counters["drained"] = drained ? 1.0 : 0.0;
}
BENCHMARK(BM_ShardedExecutor)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
