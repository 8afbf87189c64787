// E8 — Flux (paper §2.4; shape from [SHCF03]) on the real sharded executor:
// one L ⋈ R equijoin class partitioned across 4 shard replicas, both streams
// fed zipf(θ) keys. After a fixed prefix the online skew pass
// (Executor::RepartitionSkewedOnce: LPT over observed bucket counts, then
// pause/drain/move SteM state/resume) either runs or is skipped. The suffix
// then shows how evenly the bucket -> shard map spreads the load: the
// max/min ratio of per-shard tcq_shard_ingest_total deltas. The join result
// count must equal the ground truth with and without the re-partition —
// moving buckets and their state loses and duplicates nothing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"

namespace tcq {
namespace {

constexpr size_t kShards = 4;
constexpr uint64_t kKeys = 10000;
constexpr size_t kPrefix = 3000;  // tuples per stream before the skew pass
constexpr size_t kSide = 6000;    // tuples per stream in total
constexpr size_t kIngestBatch = 256;
// The hashed zipf(0.9) prefix leaves the hottest shard ~1.3x the coldest:
// below the background pass's 4x default, so the explicit pass uses a
// trigger the skewed prefix crosses (and the uniform one does not).
constexpr double kSkewThreshold = 1.25;

SchemaRef KVSchema(SourceId source) {
  return Schema::Make({{"k", ValueType::kInt64, source},
                       {"v", ValueType::kInt64, source}});
}

std::vector<Tuple> ZipfStream(SourceId source, double theta, uint64_t seed) {
  SchemaRef schema = KVSchema(source);
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(kSide);
  for (size_t i = 0; i < kSide; ++i) {
    rows.push_back(Tuple::Make(
        schema,
        {Value::Int64(static_cast<int64_t>(rng.Zipf(kKeys, theta))),
         Value::Int64(static_cast<int64_t>(i))},
        static_cast<Timestamp>(i + 1)));
  }
  return rows;
}

/// Ingests rows [begin, end) of both streams, alternating batches.
bool Ingest(Executor* exec, const std::vector<Tuple>* streams, size_t begin,
            size_t end) {
  for (size_t off = begin; off < end; off += kIngestBatch) {
    for (SourceId src = 0; src < 2; ++src) {
      TupleBatch batch;
      batch.set_source(src);
      for (size_t i = off; i < std::min(off + kIngestBatch, end); ++i) {
        batch.push_back(streams[src][i]);
      }
      if (!exec->IngestBatch(std::move(batch)).ok()) return false;
    }
  }
  return true;
}

std::vector<uint64_t> ShardIngest(const Executor& exec,
                                  const std::string& label) {
  auto snap = exec.metrics()->Snapshot();
  std::vector<uint64_t> out;
  for (size_t k = 0; k < kShards; ++k) {
    std::string shard = k == 0 ? label : label + "/s" + std::to_string(k);
    out.push_back(snap.CounterValue(
        MetricName("tcq_shard_ingest_total", "shard", shard)));
  }
  return out;
}

void BM_SkewedJoin(benchmark::State& state) {
  const bool skew_pass = state.range(0) != 0;
  const double theta = static_cast<double>(state.range(1)) / 100.0;
  const std::vector<Tuple> streams[2] = {ZipfStream(0, theta, 11),
                                         ZipfStream(1, theta, 12)};
  uint64_t expected = 0;
  {
    std::map<int64_t, uint64_t> lhs;
    for (const Tuple& row : streams[0]) ++lhs[row.at(0).AsInt64()];
    for (const Tuple& row : streams[1]) expected += lhs[row.at(0).AsInt64()];
  }

  bool exact = true;
  uint64_t results = 0, repartitions = 0;
  double ratio = 0;
  for (auto _ : state) {
    Executor::Options opts;
    opts.num_eos = kShards;
    opts.shards = kShards;
    opts.shard_skew_threshold = kSkewThreshold;
    Executor exec(opts);
    (void)exec.RegisterStream(0, KVSchema(0));
    (void)exec.RegisterStream(1, KVSchema(1));
    std::atomic<uint64_t> delivered{0};
    CQSpec join;
    join.joins.push_back({{0, "k"}, {1, "k"}});
    exact = exact && exec.SubmitQuery(join, [&delivered](GlobalQueryId,
                                                         ResultRows rows) {
      delivered.fetch_add(rows.size(), std::memory_order_relaxed);
    }).ok();
    const std::string label = exec.Topology().front().name;
    exec.Start();

    exact = exact && Ingest(&exec, streams, 0, kPrefix);
    if (skew_pass) (void)exec.RepartitionSkewedOnce();
    const std::vector<uint64_t> before = ShardIngest(exec, label);
    exact = exact && Ingest(&exec, streams, kPrefix, kSide);
    const std::vector<uint64_t> after = ShardIngest(exec, label);
    (void)exec.CloseStream(0);
    (void)exec.CloseStream(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (delivered.load(std::memory_order_relaxed) < expected &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    exec.Stop();

    uint64_t mx = 0, mn = UINT64_MAX;
    for (size_t k = 0; k < kShards; ++k) {
      mx = std::max(mx, after[k] - before[k]);
      mn = std::min(mn, after[k] - before[k]);
    }
    ratio = static_cast<double>(mx) /
            static_cast<double>(std::max<uint64_t>(mn, 1));
    results = delivered.load();
    repartitions = exec.class_repartitions();
    exact = exact && results == expected;
  }
  if (!exact) {
    state.SkipWithError("join result count differs from ground truth");
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * 2 * kSide));
  state.counters["skew_pass"] = skew_pass ? 1 : 0;
  state.counters["skew_theta"] = theta;
  state.counters["repartitions"] = static_cast<double>(repartitions);
  state.counters["suffix_ingest_ratio"] = ratio;
  state.counters["results"] = static_cast<double>(results);
  state.counters["expected"] = static_cast<double>(expected);
}
BENCHMARK(BM_SkewedJoin)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 90})
    ->Args({1, 90})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq

BENCHMARK_MAIN();
