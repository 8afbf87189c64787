// End-to-end benchmark of the TelegraphCQ facade.
//
// One process, one client thread: the seeded load generator and the result
// consumer share the main thread and drive the public API only —
// NewBatch / BatchBuilder::Append / PushBuilt in, PushEgress::Poll and
// WindowResultBuffer::Poll out, plus Checkpoint() / Restore(). Every result
// is checked against an oracle that recomputes the workload's answers from
// the generated inputs alone.
//
//   tcq_bench --workload <filter_fanout|join_durable|window_sliding>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the run with
// engine tracing on, replays the same inputs through each layer's public
// functions, prints the per-layer metrics and writes a Chrome trace-event
// file (<work-dir>/trace-<workload>-<seed>.json, opens in Perfetto).
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// See perfbench/README.md for the measurement rules.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cacq/shared_eddy.h"
#include "eddy/routing_policy.h"
#include "egress/egress.h"
#include "fjords/fjord.h"
#include "operators/grouped_filter.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/telegraphcq.h"
#include "stem/stem.h"
#include "storage/stream_store.h"
#include "window/window_exec.h"

namespace {

namespace fs = std::filesystem;
using tcq::Timestamp;
using tcq::TelegraphCQ;

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

/// Microseconds on the engine's span clock (steady_clock, the epoch of
/// tcq::NowMicros), at nanosecond resolution, so the benchmark's own spans
/// line up with DumpFlightRecorder() in one trace file.
double NowUs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) *
         1e-3;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// splitmix64: the generator and the order-independent result checksums.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded generator with its own distributions, so the same seed gives the
/// same inputs under any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix(seed ^ 0x7463712d62656e63ULL)) {}
  uint64_t Next() { return Mix(s_++); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int64_t Int(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Exp(double mean) { return -mean * std::log1p(-Uniform()); }

 private:
  uint64_t s_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double VmHwmMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/task")) ++n;
  return n;
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "tcq_bench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Must(tcq::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(*r);
}

void Must(const tcq::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (trace export)
// ---------------------------------------------------------------------------

struct BenchSpan {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;      // index into the span list, -1 = root
  int64_t batch = -1;   // input batch id, -1 = none
};

/// Spans recorded only in the traced run. A phase span (set-up, latency,
/// saturation, replay, ...) is the parent of every span begun while it is
/// open.
class SpanLog {
 public:
  bool on = false;
  int Begin(const std::string& name, int64_t batch = -1) {
    if (!on) return -1;
    spans_.push_back({name, NowUs(), 0, phase_, batch});
    return static_cast<int>(spans_.size()) - 1;
  }
  int BeginPhase(const std::string& name) {
    int id = Begin(name);
    if (id >= 0) phase_ = id;
    return id;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    if (id == phase_) phase_ = spans_[static_cast<size_t>(id)].parent;
  }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  std::vector<BenchSpan> spans_;
  int phase_ = -1;
};

SpanLog g_spans;

// ---------------------------------------------------------------------------
// Workloads: generated inputs plus the oracle's expected answers
// ---------------------------------------------------------------------------

/// One generated input batch, stored flat (row-major int64 values) so the
/// generator adds little to the process's peak RSS.
struct InBatch {
  int stream = 0;
  std::vector<Timestamp> ts;
  std::vector<int64_t> vals;

  size_t rows() const { return ts.size(); }
  size_t width() const { return ts.empty() ? 0 : vals.size() / ts.size(); }
  void Add(Timestamp t, std::initializer_list<int64_t> v) {
    ts.push_back(t);
    vals.insert(vals.end(), v);
  }
};

struct StreamDef {
  std::string name;
  std::vector<std::string> fields;  // all int64
  bool punctuate = false;
  Timestamp disorder = 0;
};

/// (count, order-independent checksum) of a result multiset.
struct Summary {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(uint64_t h) {
    ++count;
    sum += h;
  }
  bool operator==(const Summary& o) const {
    return count == o.count && sum == o.sum;
  }
};

uint64_t HashValues(size_t query, const std::vector<int64_t>& vals) {
  uint64_t h = Mix(query + 1);
  for (int64_t v : vals) h = Mix(h ^ static_cast<uint64_t>(v));
  return h;
}

/// One expected window of a windowed query.
struct WindowExpect {
  Summary content;
  size_t closing_batch = 0;
};

// Shared by every workload: rows per batch, warm-up batches, batches kept
// in flight during closed-loop phases (enough queued work that the engine
// never idles mid-slice), and latency/saturation rounds per run.
constexpr size_t kBatchRows = 64;
constexpr size_t kWarmup = 64;
constexpr size_t kInflight = 32;
constexpr size_t kRounds = 8;

struct Workload {
  std::string name;
  std::vector<StreamDef> streams;
  std::vector<std::string> queries;
  bool windowed = false;
  bool join = false;  // two streams; results carry both input ids
  size_t num_eos = 2;
  size_t shards = 1;
  bool spool = false;
  // Phase sizes in batches. After the warm-up, kRounds rounds each run an
  // open-loop latency chunk and then saturation slices, so both metrics
  // sample the whole run rather than one stretch of it; the suffix (pushed
  // after the checkpoints) ends `batches`.
  size_t latency = 0;      // batches per round
  double offered_tps = 0;  // open-loop offered input rate, tuples/s
  size_t slices = 0;       // saturation slices per round
  size_t slice_batches = 0;
  size_t suffix = 0;
  // Repetitions of set-up, Checkpoint() and Restore(). Cheap operations
  // take many samples; expensive ones are dominated by their own work.
  size_t setups = 51;
  size_t checkpoints = 21;
  size_t restores = 5;
  std::vector<InBatch> batches;

  // Oracle. Continuous queries: every result maps to the batch whose push
  // completes it (via the input ids it carries) and adds to its query's
  // summary. Windowed queries: every window has an expected content and the
  // batch whose watermark closes it.
  std::vector<uint32_t> expect_per_batch;
  std::vector<Summary> expect_query;           // continuous only
  std::vector<std::map<Timestamp, WindowExpect>> expect_windows;
  std::vector<uint32_t> batch_of_id;           // input id -> batch

  size_t RoundBegin(size_t r) const {
    return kWarmup + r * (latency + slices * slice_batches);
  }
  size_t SatBegin(size_t r) const { return RoundBegin(r) + latency; }
  size_t RoundsEnd() const { return RoundBegin(kRounds); }
  size_t SuffixEnd() const { return RoundsEnd() + suffix; }
};

/// Maps a continuous result tuple to (completing batch, checksum). Field 0
/// (and field 1 for joins) are input ids; the later input completes it.
std::pair<size_t, uint64_t> DecodeResult(const Workload& w, size_t q,
                                         const tcq::Tuple& t) {
  std::vector<int64_t> vals;
  for (size_t i = 0; i < t.num_fields(); ++i) vals.push_back(t.at(i).AsInt64());
  const size_t ids = w.join ? 2 : 1;
  if (vals.size() < ids) return {SIZE_MAX, 0};
  const int64_t last = *std::max_element(vals.begin(), vals.begin() + static_cast<long>(ids));
  size_t batch = last >= 0 && static_cast<size_t>(last) < w.batch_of_id.size()
                     ? w.batch_of_id[static_cast<size_t>(last)]
                     : SIZE_MAX;
  return {batch, HashValues(q, vals)};
}

size_t Scaled(size_t base, int seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(
                                 static_cast<double>(base) * seconds / 10.0)));
}

// filter_fanout: one stream, 64 overlapping range filters, ~6 results per
// input tuple, no join state.
Workload MakeFilterFanout(uint64_t seed, int seconds) {
  Workload w;
  w.name = "filter_fanout";
  w.streams = {{"S", {"id", "a", "b"}, false, 0}};
  w.num_eos = 1;
  w.latency = Scaled(250, seconds);
  w.offered_tps = 16000;
  w.slices = Scaled(30, seconds);
  w.slice_batches = 32;
  w.suffix = 16;
  w.restores = 11;
  Rng rng(seed);
  constexpr int64_t kDomain = 10000, kWidth = 937, kQueries = 64;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int64_t q = 0; q < kQueries; ++q) {
    int64_t lo = rng.Int(0, kDomain - kWidth - 1);
    ranges.push_back({lo, lo + kWidth});
    w.queries.push_back("SELECT id, a FROM S WHERE a >= " + std::to_string(lo) +
                        " AND a <= " + std::to_string(lo + kWidth));
  }
  size_t n = w.SuffixEnd();
  w.expect_query.resize(ranges.size());
  int64_t id = 0;
  for (size_t b = 0; b < n; ++b) {
    InBatch batch;
    uint32_t expect = 0;
    for (size_t i = 0; i < kBatchRows; ++i, ++id) {
      int64_t a = rng.Int(0, kDomain - 1);
      batch.Add(id, {id, a, rng.Int(0, 1 << 20)});
      w.batch_of_id.push_back(static_cast<uint32_t>(b));
      for (size_t q = 0; q < ranges.size(); ++q) {
        if (a >= ranges[q].first && a <= ranges[q].second) {
          w.expect_query[q].Add(HashValues(q, {id, a}));
          ++expect;
        }
      }
    }
    w.expect_per_batch.push_back(expect);
    w.batches.push_back(std::move(batch));
  }
  return w;
}

// join_durable: L and R equijoined on k by a few CQs with residual filters,
// spooled, 2 shards over 2 EOs. Each R key matches at most one earlier L
// tuple, so state grows linearly and each matched pair yields ~1 result.
Workload MakeJoinDurable(uint64_t seed, int seconds) {
  Workload w;
  w.name = "join_durable";
  w.streams = {{"L", {"k", "lid", "a"}, false, 0},
               {"R", {"k", "rid", "b"}, false, 0}};
  w.join = true;
  w.num_eos = 2;
  w.shards = 2;
  w.spool = true;
  w.setups = 21;
  w.checkpoints = 5;
  w.restores = 3;
  w.latency = Scaled(300, seconds);
  w.offered_tps = 40000;
  w.slices = Scaled(15, seconds);
  w.slice_batches = 64;
  w.suffix = 8;
  Rng rng(seed);
  constexpr int64_t kQueries = 4, kWidth = 500;
  std::vector<int64_t> los;
  for (int64_t q = 0; q < kQueries; ++q) {
    int64_t lo = rng.Int(0, 1000 - kWidth);
    los.push_back(lo);
    w.queries.push_back(
        "SELECT l.lid, r.rid FROM L l, R r WHERE l.k = r.k AND l.a < r.b"
        " AND l.a >= " + std::to_string(lo) + " AND l.a < " + std::to_string(lo + kWidth));
  }
  size_t n = w.SuffixEnd();
  w.expect_query.resize(los.size());
  struct Open {
    int64_t lid, a;
  };
  std::vector<std::pair<int64_t, Open>> unmatched;  // (key, L tuple)
  int64_t id = 0, next_key = 1;
  for (size_t b = 0; b < n; ++b) {
    InBatch batch;
    batch.stream = static_cast<int>(b % 2);
    uint32_t expect = 0;
    for (size_t i = 0; i < kBatchRows; ++i, ++id) {
      w.batch_of_id.push_back(static_cast<uint32_t>(b));
      if (batch.stream == 0) {
        int64_t a = rng.Int(0, 999), k = next_key++;
        batch.Add(id, {k, id, a});
        unmatched.push_back({k, {id, a}});
        continue;
      }
      int64_t bval = rng.Int(0, 999);
      if (unmatched.empty() || rng.Uniform() < 0.1) {
        batch.Add(id, {-(next_key++), id, bval});  // no partner
        continue;
      }
      size_t pick = static_cast<size_t>(rng.Int(0, static_cast<int64_t>(unmatched.size()) - 1));
      auto [k, l] = unmatched[pick];
      unmatched[pick] = unmatched.back();
      unmatched.pop_back();
      batch.Add(id, {k, id, bval});
      for (size_t q = 0; q < los.size(); ++q) {
        if (l.a < bval && l.a >= los[q] && l.a < los[q] + kWidth) {
          w.expect_query[q].Add(HashValues(q, {l.lid, id}));
          ++expect;
        }
      }
    }
    w.expect_per_batch.push_back(expect);
    w.batches.push_back(std::move(batch));
  }
  return w;
}

// window_sliding: one event-time stream with punctuations and bounded
// disorder, one sliding-window CQ; no SteM, no egress fan-out.
Workload MakeWindowSliding(uint64_t seed, int seconds) {
  Workload w;
  w.name = "window_sliding";
  constexpr Timestamp kStep = 10, kDisorder = 50;
  w.streams = {{"E", {"id", "v"}, true, kDisorder}};
  w.windowed = true;
  w.num_eos = 0;
  w.spool = true;
  w.latency = Scaled(250, seconds);
  w.offered_tps = 16000;
  w.slices = Scaled(30, seconds);
  w.slice_batches = 64;
  w.suffix = 8;
  struct Loop {
    Timestamp range, slide;
  };
  // One query: a second windowed CQ brings a second EO thread, and engine
  // threads plus the client at nproc made every figure swing run to run.
  // Slide = one batch's worth of event time (64 tuples), range = four.
  const std::vector<Loop> loops = {{2560, 640}};
  for (const Loop& l : loops) {
    w.queries.push_back("SELECT id, v FROM E for (t = " + std::to_string(l.range) +
                        "; t <= 1000000000000; t += " + std::to_string(l.slide) +
                        ") { WindowIs(E, t - " + std::to_string(l.range - 1) +
                        ", t); }");
  }
  Rng rng(seed);
  size_t n = w.SuffixEnd();
  // Oracle contents accumulate per window end t = range + k * slide as the
  // events are generated: event ts lies in [t - range + 1, t].
  std::vector<std::map<Timestamp, Summary>> content(loops.size());
  std::vector<Timestamp> watermark_after;  // per batch
  Timestamp max_ts = tcq::kMinTimestamp;
  int64_t id = 0;
  for (size_t b = 0; b < n; ++b) {
    InBatch batch;
    for (size_t i = 0; i < kBatchRows; ++i, ++id) {
      // Bounded disorder: at most kDisorder behind the running maximum, so
      // no tuple is ever late.
      Timestamp ts = kStep * (id + 1) - rng.Int(0, kDisorder);
      const int64_t v = rng.Int(0, 1 << 30);
      batch.Add(ts, {id, v});
      max_ts = std::max(max_ts, ts);
      w.batch_of_id.push_back(static_cast<uint32_t>(b));
      for (size_t q = 0; q < loops.size(); ++q) {
        const Timestamp range = loops[q].range, slide = loops[q].slide;
        // The first window end at or after ts, then every later one whose
        // left end t - range + 1 still reaches back to ts.
        const Timestamp k0 = std::max<Timestamp>(0, (ts - range + slide - 1) / slide);
        for (Timestamp t = range + k0 * slide; t - range + 1 <= ts; t += slide) {
          content[q][t].Add(HashValues(q, {id, v}));
        }
      }
    }
    watermark_after.push_back(max_ts - kDisorder);
    w.batches.push_back(std::move(batch));
  }
  w.expect_per_batch.assign(n, 0);
  w.expect_windows.resize(loops.size());
  for (size_t q = 0; q < loops.size(); ++q) {
    size_t closing = 0;
    for (Timestamp t = loops[q].range;; t += loops[q].slide) {
      // A window [l, r] fires once the watermark strictly passes r.
      while (closing < n && watermark_after[closing] <= t) ++closing;
      if (closing == n) break;
      w.expect_windows[q][t] = {content[q][t], closing};
      ++w.expect_per_batch[closing];
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// The facade run
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

/// Client-side timing of the facade calls, kept for the traced run.
struct ClientStats {
  double push_us = 0;     // PushBuilt
  double append_us = 0;   // NewBatch + Append
  uint64_t batches = 0;
  uint64_t tuples = 0;
  uint64_t poll_hits = 0;
  uint64_t poll_empty = 0;
  double ingest_cpu_s = 0;  // client-thread CPU inside NewBatch..PushBuilt
};

class FacadeRun {
 public:
  FacadeRun(const Workload& w, Counters* counters, std::string dir, bool trace)
      : w_(w), counters_(counters), dir_(std::move(dir)), trace_(trace) {
    got_.assign(w.batches.size(), 0);
    done_us_.assign(w.batches.size(), -1);
    got_query_.resize(w.queries.size());
  }

  TelegraphCQ::Options Options() const {
    TelegraphCQ::Options o;
    o.executor.num_eos = w_.num_eos;
    o.executor.shards = w_.shards;
    // Pinned off (also the defaults): no background thread may run beside
    // the measured engine threads; checkpoints are called explicitly.
    o.executor.rebalance = false;
    o.system_streams.enabled = false;
    o.checkpoint_interval_ms = 0;
    o.checkpoint_dir = dir_ + "/ckpt";
    if (w_.spool) o.spool_dir = dir_ + "/spool";
    o.trace.enabled = trace_;
    o.trace.sample_period = 16;
    o.trace.ring_capacity = 1 << 14;
    return o;
  }

  void ResetDirs() const {
    fs::remove_all(dir_);
    fs::create_directories(dir_ + "/ckpt");
    if (w_.spool) fs::create_directories(dir_ + "/spool");
  }

  /// Construct -> define -> submit -> Start. Returns seconds. The spool
  /// files of the previous server are truncated by DefineStream, so no
  /// directory churn lands inside the timed region.
  double Setup() {
    handles_.clear();
    server_.reset();
    double t0 = NowUs();
    server_ = std::make_unique<TelegraphCQ>(Options());
    for (const StreamDef& s : w_.streams) {
      std::vector<tcq::Field> fields;
      for (const std::string& f : s.fields) {
        fields.push_back({f, tcq::ValueType::kInt64, 0});
      }
      if (s.punctuate) {
        Must(server_->DefineStream(s.name, fields,
                                   {.punctuate = true, .disorder_bound = s.disorder}),
             "DefineStream " + s.name);
      } else {
        Must(server_->DefineStream(s.name, fields), "DefineStream " + s.name);
      }
    }
    for (const std::string& sql : w_.queries) {
      handles_.push_back(Must(server_->Submit(sql), "Submit " + sql));
    }
    server_->Start();
    return (NowUs() - t0) * 1e-6;
  }

  TelegraphCQ* server() { return server_.get(); }
  void Shutdown() {
    handles_.clear();
    server_.reset();
  }

  void Push(size_t b) {
    const InBatch& in = w_.batches[b];
    int span = g_spans.Begin("push", static_cast<int64_t>(b));
    double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    double t0 = trace_ ? NowUs() : 0.0;
    auto builder = server_->NewBatch(w_.streams[static_cast<size_t>(in.stream)].name);
    bool ok = builder.ok();
    const size_t nf = in.width();
    for (size_t i = 0; ok && i < in.rows(); ++i) {
      std::vector<tcq::Value> vals;
      vals.reserve(nf);
      for (size_t c = 0; c < nf; ++c) vals.push_back(tcq::Value::Int64(in.vals[i * nf + c]));
      ok = builder->Append(in.ts[i], std::move(vals)).ok();
    }
    double t1 = trace_ ? NowUs() : 0.0;
    ok = ok && server_->PushBuilt(std::move(*builder)).ok();
    double t2 = trace_ ? NowUs() : 0.0;
    stats_.ingest_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    g_spans.End(span);
    stats_.append_us += (t1 - t0);
    stats_.push_us += (t2 - t1);
    ++stats_.batches;
    stats_.tuples += in.rows();
    ++counters_->attempted;
    ++pushed_;
    ++open_;
    if (!ok) {
      counters_->Fail("push of batch " + std::to_string(b) + " failed");
      MarkDone(b);
      return;
    }
    if (w_.expect_per_batch[b] == 0) MarkDone(b);
  }

  /// One pass over every client handle. Returns the results seen.
  size_t Poll() {
    size_t seen = 0;
    for (size_t q = 0; q < handles_.size(); ++q) {
      if (handles_[q].results) {
        tcq::Delivery d;
        for (;;) {
          bool got = handles_[q].results->Poll(&d);
          if (!got) {
            ++stats_.poll_empty;
            break;
          }
          ++stats_.poll_hits;
          ++seen;
          OnResult(q, d.tuple);
        }
      } else {
        tcq::WindowResult r;
        for (;;) {
          bool got = handles_[q].windows->Poll(&r);
          if (!got) {
            ++stats_.poll_empty;
            break;
          }
          ++stats_.poll_hits;
          ++seen;
          OnWindow(q, r);
        }
      }
    }
    return seen;
  }

  /// Polls until every pushed batch is complete; false on a stall.
  bool DrainAll(double patience_s = 20) {
    double last = NowUs();
    while (first_open_ < pushed_) {
      if (Poll() > 0) last = NowUs();
      Advance();
      if (NowUs() - last > patience_s * 1e6) {
        for (size_t b = first_open_; b < pushed_; ++b) {
          if (done_us_[b] < 0) {
            counters_->Fail("batch " + std::to_string(b) + " missing " +
                            std::to_string(w_.expect_per_batch[b] - got_[b]) +
                            " results");
            MarkDone(b);
          }
        }
        Advance();
        return false;
      }
    }
    return true;
  }

  /// Completion bookkeeping: every batch before first_open() is complete.
  void Advance() {
    while (first_open_ < pushed_ && done_us_[first_open_] >= 0) ++first_open_;
  }
  size_t first_open() const { return first_open_; }
  size_t open_batches() const { return open_; }
  double done_us(size_t b) const { return done_us_[b]; }
  /// Starts a phase at batch `b`: the next batch to push. Every earlier
  /// phase has drained, so a result for a batch before `b` is a duplicate.
  void SkipTo(size_t b) {
    pushed_ = b;
    lo_ = b;
    first_open_ = std::max(first_open_, b);
  }
  /// Batches [b0, b1) re-enter the engine from the spool during Restore():
  /// expect their results without pushing them.
  void MarkReplayed(size_t b0, size_t b1) {
    SkipTo(b0);
    for (size_t b = b0; b < b1; ++b) {
      ++open_;
      ++pushed_;
      if (w_.expect_per_batch[b] == 0) MarkDone(b);
    }
  }
  const std::vector<uint32_t>& got_per_batch() const { return got_; }

  const ClientStats& stats() const { return stats_; }
  const std::vector<Summary>& got_query() const { return got_query_; }
  const std::vector<std::map<Timestamp, Summary>>& got_windows() const {
    return got_windows_;
  }

  /// Checks every continuous query's result multiset (count + checksum)
  /// against the oracle, once all batches were pushed. Windows are checked
  /// one by one as they arrive.
  void VerifyQueries() {
    if (w_.windowed) return;
    for (size_t q = 0; q < w_.queries.size(); ++q) {
      const Summary& want = w_.expect_query[q];
      if (!(got_query_[q] == want)) {
        counters_->Fail("query " + std::to_string(q) + ": got " +
                        std::to_string(got_query_[q].count) + " results, want " +
                        std::to_string(want.count) + " (or checksum differs)");
      }
    }
  }

  /// Adopts another server's handles (after Restore()).
  void Adopt(std::unique_ptr<TelegraphCQ> server) {
    server_ = std::move(server);
    auto hs = server_->Handles();
    std::sort(hs.begin(), hs.end(),
              [](const auto& x, const auto& y) { return x.id < y.id; });
    handles_ = std::move(hs);
  }

  void ResetResults() {
    got_.assign(w_.batches.size(), 0);
    done_us_.assign(w_.batches.size(), -1);
    got_query_.assign(w_.queries.size(), Summary{});
    got_windows_.clear();
    pushed_ = lo_ = first_open_ = open_ = 0;
  }

 private:
  void MarkDone(size_t b) {
    if (done_us_[b] >= 0) return;
    done_us_[b] = NowUs();
    if (open_ > 0) --open_;
  }

  void Count(size_t batch) {
    if (batch >= pushed_ || batch < lo_) {
      counters_->Fail("result attributed to batch " + std::to_string(batch) +
                      " outside the phase's pushed batches");
      return;
    }
    if (++got_[batch] == w_.expect_per_batch[batch]) MarkDone(batch);
    if (got_[batch] > w_.expect_per_batch[batch]) {
      counters_->Fail("batch " + std::to_string(batch) + " got extra results");
    }
  }

  void OnResult(size_t q, const tcq::Tuple& t) {
    auto [batch, h] = DecodeResult(w_, q, t);
    got_query_[q].Add(h);
    Count(batch);
  }

  void OnWindow(size_t q, const tcq::WindowResult& r) {
    if (r.kind != tcq::WindowResultKind::kFinal) {
      counters_->Fail("unexpected non-final window result");
      return;
    }
    Summary s;
    for (const tcq::Tuple& t : r.tuples) {
      std::vector<int64_t> vals;
      for (size_t i = 0; i < t.num_fields(); ++i) vals.push_back(t.at(i).AsInt64());
      s.Add(HashValues(q, vals));
    }
    if (got_windows_.size() < w_.queries.size()) got_windows_.resize(w_.queries.size());
    got_windows_[q][r.t] = s;
    auto it = w_.expect_windows[q].find(r.t);
    if (it == w_.expect_windows[q].end()) {
      counters_->Fail("unexpected window t=" + std::to_string(r.t));
      return;
    }
    if (!(it->second.content == s)) {
      counters_->Fail("window t=" + std::to_string(r.t) + " of query " +
                      std::to_string(q) + " has wrong contents (" +
                      std::to_string(s.count) + " tuples, want " +
                      std::to_string(it->second.content.count) + ")");
    }
    Count(it->second.closing_batch);
  }

  const Workload& w_;
  Counters* counters_;
  std::string dir_;
  bool trace_;
  std::unique_ptr<TelegraphCQ> server_;
  std::vector<TelegraphCQ::ClientHandle> handles_;
  std::vector<uint32_t> got_;
  std::vector<double> done_us_;
  std::vector<Summary> got_query_;
  std::vector<std::map<Timestamp, Summary>> got_windows_;
  size_t pushed_ = 0;
  size_t lo_ = 0;
  size_t first_open_ = 0;
  size_t open_ = 0;
  ClientStats stats_;
};

// ---------------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, const Counters& c) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (c.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << c.attempted << ", \"failed\": " << c.failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) o << ", ";
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << "\"" << metrics[i].name << "\": {\"value\": " << v << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

// Registry reads.
int64_t GaugeSum(const tcq::MetricsSnapshot& s, const std::string& family) {
  int64_t sum = 0;
  for (const auto& [name, v] : s.gauges) {
    if (name.rfind(family, 0) == 0) sum += v;
  }
  return sum;
}

/// p50 over the merged buckets of a histogram family (every label).
double HistogramFamilyP50(const tcq::MetricsSnapshot& s, const std::string& family) {
  tcq::MetricsSnapshot::HistogramData merged;
  for (const auto& h : s.histograms) {
    if (h.name.rfind(family, 0) != 0) continue;
    if (merged.buckets.empty()) merged.buckets = h.buckets;
    else
      for (size_t i = 0; i < h.buckets.size() && i < merged.buckets.size(); ++i)
        merged.buckets[i].second += h.buckets[i].second;
    merged.count += h.count;
    merged.sum += h.sum;
  }
  return merged.count ? static_cast<double>(merged.ApproxQuantile(0.5)) : 0.0;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct PhaseResult {
  std::vector<double> lat_us;     // latency samples
  std::vector<double> lag_us;     // generator lateness
  std::vector<double> slice_tps;  // saturation slices
  std::vector<double> slice_tps_traced;  // traced-run alternation
  double engine_cpu_s = 0;
  uint64_t sat_tuples = 0;
};

constexpr double kPatienceS = 5;
constexpr int64_t kSaturationPollUs = 100;
constexpr double kLatencyPollUs = 20;

/// Open loop over batches [b0, b1) at a fixed offered rate with seeded
/// exponential gaps.
void RunLatency(FacadeRun* run, const Workload& w, size_t b0, size_t b1, Rng* rng,
                PhaseResult* out) {
  const double mean_gap_us = 1e6 * static_cast<double>(kBatchRows) / w.offered_tps;
  std::vector<double> sched(b1 - b0);
  double t = NowUs() + 1000;
  for (size_t i = 0; i < sched.size(); ++i) {
    t += rng->Exp(mean_gap_us);
    sched[i] = t;
  }
  run->SkipTo(b0);
  size_t next = 0;
  double last_progress = NowUs();
  while (next < sched.size() || run->first_open() < b1) {
    double now = NowUs();
    if (next < sched.size() && now >= sched[next]) {
      out->lag_us.push_back(now - sched[next]);
      run->Push(b0 + next);
      ++next;
      continue;
    }
    if (run->Poll() > 0) last_progress = NowUs();
    run->Advance();
    // Busy-wait between poll passes without touching the egress locks:
    // fine-grained completion times without contending with the engine.
    const double until = std::min(NowUs() + kLatencyPollUs,
                                  next < sched.size() ? sched[next] : 1e300);
    while (NowUs() < until) {
    }
    if (NowUs() - last_progress > kPatienceS * 1e6 &&
        next == sched.size()) {
      run->DrainAll(0);
      break;
    }
  }
  for (size_t i = 0; i < sched.size(); ++i) {
    size_t b = b0 + i;
    if (w.expect_per_batch[b] == 0 || run->done_us(b) < 0) continue;
    out->lat_us.push_back(run->done_us(b) - sched[i]);
  }
}

/// Saturation: `w.slices` slices from batch b0 with a fixed window of
/// in-flight batches; throughput per slice. `toggle` (traced run only)
/// alternates engine tracing per slice.
void RunSaturation(FacadeRun* run, const Workload& w, size_t b0, PhaseResult* out,
                   const std::function<void(bool)>& toggle) {
  run->SkipTo(b0);
  const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const double client0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const double ingest0 = run->stats().ingest_cpu_s;
  double slice_start = NowUs();
  double last_progress = slice_start;
  for (size_t s = 0; s < w.slices; ++s) {
    bool traced_slice = toggle && (s % 2 == 1);
    if (toggle) toggle(traced_slice);
    const size_t end = b0 + (s + 1) * w.slice_batches;
    size_t next = b0 + s * w.slice_batches;
    while (run->first_open() < end) {
      if (next < end && run->open_batches() < kInflight) {
          run->Push(next++);
        continue;
      }
      // The window holds enough queued work to keep the engine busy, so the
      // client polls on a fixed beat instead of spinning on the egress locks
      // (spinning made the engine's offers contend with it, run by run).
      std::this_thread::sleep_for(std::chrono::microseconds(kSaturationPollUs));
      if (run->Poll() > 0) last_progress = NowUs();
      run->Advance();
      if (NowUs() - last_progress > kPatienceS * 1e6) {
        run->DrainAll(0);
        return;
      }
    }
    double slice_end = 0;
    for (size_t b = end - w.slice_batches; b < end; ++b) {
      slice_end = std::max(slice_end, run->done_us(b));
    }
    double tps = static_cast<double>(w.slice_batches * kBatchRows) /
                 ((slice_end - slice_start) * 1e-6);
    (traced_slice ? out->slice_tps_traced : out->slice_tps).push_back(tps);
    slice_start = slice_end;
  }
  if (toggle) toggle(true);
  const double client = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - client0;
  const double ingest = run->stats().ingest_cpu_s - ingest0;
  out->engine_cpu_s += CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - client + ingest;
  out->sat_tuples += w.slices * w.slice_batches * kBatchRows;
}

/// Pushes batches [from, to) closed-loop with the in-flight window.
bool PushRange(FacadeRun* run, size_t from, size_t to) {
  run->SkipTo(from);
  size_t next = from;
  double last_progress = NowUs();
  while (run->first_open() < to) {
    if (next < to && run->open_batches() < kInflight) {
      run->Push(next++);
      continue;
    }
    if (run->Poll() > 0) last_progress = NowUs();
    run->Advance();
    if (NowUs() - last_progress > kPatienceS * 1e6) {
      return run->DrainAll(0);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Layer replay (traced run): the same inputs through each layer's public
// functions, single-threaded, timed from here.
// ---------------------------------------------------------------------------

struct LayerReplay {
  std::map<std::string, double> m;  // metric name -> value
  uint64_t replay_results = 0;      // must equal the facade's count
};

tcq::SchemaRef SchemaFor(const tcq::Catalog& cat, const std::string& stream) {
  return Must(cat.Lookup(stream), "lookup " + stream).schema;
}

tcq::TupleBatch MakeBatch(const tcq::SchemaRef& schema, tcq::SourceId source,
                          const InBatch& in) {
  tcq::ColumnStoreBuilder b(schema);
  const size_t nf = in.width();
  for (size_t i = 0; i < in.rows(); ++i) {
    b.AppendTimestamp(in.ts[i]);
    for (size_t c = 0; c < nf; ++c) b.Append(c, tcq::Value::Int64(in.vals[i * nf + c]));
  }
  return tcq::TupleBatch(source, b.Finish());
}

LayerReplay ReplayLayers(const Workload& w, size_t b0, size_t b1, const std::string& dir) {
  LayerReplay out;
  tcq::Catalog cat;
  std::vector<tcq::SourceId> sources;
  for (const StreamDef& s : w.streams) {
    std::vector<tcq::Field> fields;
    for (const std::string& f : s.fields) fields.push_back({f, tcq::ValueType::kInt64, 0});
    sources.push_back(Must(cat.DefineStream(s.name, fields), "catalog"));
  }
  std::vector<tcq::PlannedQuery> plans;
  for (const std::string& sql : w.queries) {
    auto stmt = Must(tcq::ParseQuery(sql), "parse");
    plans.push_back(Must(tcq::PlanQuery(stmt, &cat), "plan"));
  }
  std::vector<tcq::TupleBatch> batches;
  uint64_t tuples = 0;
  for (size_t b = b0; b < b1; ++b) {
    const InBatch& in = w.batches[b];
    auto schema = SchemaFor(cat, w.streams[static_cast<size_t>(in.stream)].name);
    batches.push_back(MakeBatch(schema, sources[static_cast<size_t>(in.stream)], in));
    tuples += in.rows();
  }
  const double kt = static_cast<double>(tuples);

  // fjords: whole-batch produce into a push-mode fjord, drained as we go.
  {
    int span = g_spans.Begin("replay.fjords");
    auto ep = tcq::Fjord::Make(tcq::FjordMode::kPush, 4096, "bench");
    double us = 0;
    for (const tcq::TupleBatch& b : batches) {
      tcq::TupleBatch copy = b;
      double t0 = NowUs();
      ep.producer.ProduceBatch(&copy);
      us += (NowUs() - t0);
      tcq::TupleBatch sink;
      tcq::QueueOp op;
      ep.consumer.ConsumeBatch(&sink, 1 << 20, &op);
    }
    out.m["fjords.produce_us_per_batch"] = us / static_cast<double>(batches.size());
    g_spans.End(span);
  }

  // storage: spool appends of the same rows.
  {
    int span = g_spans.Begin("replay.storage");
    fs::create_directories(dir);
    std::vector<std::unique_ptr<tcq::StreamStore>> stores;
    for (size_t s = 0; s < w.streams.size(); ++s) {
      stores.push_back(Must(tcq::StreamStore::Create(dir + "/replay-" + w.streams[s].name,
                                                     SchemaFor(cat, w.streams[s].name)),
                            "spool create"));
    }
    double t0 = NowUs();
    for (size_t b = b0; b < b1; ++b) {
      const tcq::TupleBatch& tb = batches[b - b0];
      auto& store = stores[static_cast<size_t>(w.batches[b].stream)];
      for (size_t i = 0; i < tb.size(); ++i) Must(store->Append(tb.RowAt(i)), "spool append");
    }
    out.m["storage.spool_append_us_per_tuple"] = (NowUs() - t0) / kt;
    g_spans.End(span);
  }

  std::vector<std::pair<size_t, tcq::Tuple>> results;  // (query, raw result)
  std::vector<std::optional<tcq::Projection>> projections;
  for (const auto& p : plans) projections.push_back(p.projection);

  if (!w.windowed) {
    // cacq: the shared eddy over the same CQ specs, single-threaded.
    int span = g_spans.Begin("replay.cacq");
    tcq::SharedEddy eddy(tcq::MakeLotteryPolicy(42));
    for (size_t s = 0; s < w.streams.size(); ++s) {
      eddy.RegisterStream(sources[s], SchemaFor(cat, w.streams[s].name));
    }
    std::map<tcq::QueryId, size_t> local;
    for (size_t q = 0; q < plans.size(); ++q) {
      local[Must(eddy.AddQuery(plans[q].spec), "AddQuery")] = q;
    }
    results.reserve(static_cast<size_t>(kt * 8));
    eddy.SetOutput([&](tcq::QueryId id, const tcq::Tuple& t) {
      results.push_back({local[id], t});
    });
    double t0 = NowUs();
    for (const tcq::TupleBatch& b : batches) eddy.IngestBatch(b);
    double us = (NowUs() - t0);
    out.m["cacq.eddy_us_per_tuple"] = us / kt;
    out.m["cacq.replay_tps"] = kt / (us * 1e-6);
    g_spans.End(span);

    // operators: the grouped filters alone, over the same columns.
    span = g_spans.Begin("replay.operators.filter");
    std::map<std::string, std::unique_ptr<tcq::GroupedFilter>> gfs;
    for (size_t q = 0; q < plans.size(); ++q) {
      for (const auto& f : plans[q].spec.filters) {
        auto& gf = gfs[f.attr.ToString()];
        if (!gf) gf = std::make_unique<tcq::GroupedFilter>(f.attr);
        gf->AddFactor(static_cast<tcq::QueryId>(q), f.op, f.literal);
      }
    }
    std::vector<tcq::QuerySet> matched(kBatchRows);  // one set per row
    t0 = NowUs();
    uint64_t filtered = 0;
    for (const tcq::TupleBatch& b : batches) {
      for (auto& [name, gf] : gfs) {
        if (gf->attr().source != b.source()) continue;
        const tcq::ColumnStore::Ref& cols = b.columns();
        size_t col = cols->schema()->IndexOf(gf->attr().name).value_or(0);
        std::fill(matched.begin(), matched.end(), tcq::QuerySet());
        gf->MatchBatch(cols->column(col), b.size(), matched.data());
        filtered += b.size();
      }
    }
    out.m["operators.filter_us_per_tuple"] =
        filtered ? (NowUs() - t0) / static_cast<double>(filtered) : 0.0;
    g_spans.End(span);
  } else {
    // window: the online runner over the same inputs and punctuations.
    int span = g_spans.Begin("replay.window");
    double fire_us = 0;
    uint64_t windows = 0;
    for (size_t q = 0; q < plans.size(); ++q) {
      tcq::WindowedQuery wq;
      wq.loop = *plans[q].window_loop;
      wq.loop.semantics = tcq::TimeSemantics::kEvent;
      wq.predicates = plans[q].all_predicates;
      tcq::OnlineWindowRunner runner(wq);
      Timestamp max_ts = tcq::kMinTimestamp, last = tcq::kMinTimestamp;
      const tcq::SourceId src = plans[q].bindings[0].second.source;
      for (const tcq::TupleBatch& b : batches) {
        for (size_t i = 0; i < b.size(); ++i) {
          tcq::Tuple t = b.RowAt(i);
          max_ts = std::max(max_ts, t.timestamp());
          runner.Ingest(src, t);
        }
        Timestamp wm = max_ts - w.streams[0].disorder;
        if (wm > last) {
          runner.OnPunctuation({src, wm});
          last = wm;
        }
        double t0 = NowUs();
        runner.Poll([&](const tcq::WindowResult& r) {
          ++windows;
          for (const tcq::Tuple& t : r.tuples) results.push_back({q, t});
        });
        fire_us += (NowUs() - t0);
      }
    }
    out.m["window.fire_us_per_window"] = windows ? fire_us / static_cast<double>(windows) : 0.0;
    out.replay_results = windows;
    g_spans.End(span);
  }

  // operators: projection of every raw result.
  std::vector<std::pair<size_t, tcq::Tuple>> projected;
  projected.reserve(results.size());
  {
    int span = g_spans.Begin("replay.operators.project");
    double t0 = NowUs();
    for (auto& [q, t] : results) {
      if (projections[q]) {
        projected.push_back({q, Must(projections[q]->Apply(t), "project")});
      } else {
        projected.push_back({q, t});
      }
    }
    out.m["operators.project_us_per_result"] =
        results.empty() ? 0.0 : (NowUs() - t0) / static_cast<double>(results.size());
    g_spans.End(span);
  }
  if (!w.windowed) out.replay_results = results.size();

  // egress: offer every projected result, then poll it back.
  {
    int span = g_spans.Begin("replay.egress");
    std::vector<std::unique_ptr<tcq::PushEgress>> egress;
    for (size_t q = 0; q < plans.size(); ++q) {
      egress.push_back(std::make_unique<tcq::PushEgress>(
          tcq::PushEgress::Options{size_t{1} << 30, tcq::ShedPolicy::kBlock}));
    }
    double t0 = NowUs();
    for (auto& [q, t] : projected) egress[q]->Offer({q, t});
    double t1 = NowUs();
    tcq::Delivery d;
    for (auto& e : egress) while (e->Poll(&d)) {}
    double t2 = NowUs();
    double n = static_cast<double>(std::max<size_t>(1, projected.size()));
    out.m["egress.offer_us_per_result"] = projected.empty() ? 0.0 : (t1 - t0) / n;
    out.m["egress.poll_us_per_result"] = projected.empty() ? 0.0 : (t2 - t1) / n;
    g_spans.End(span);
  }

  // stem: build and probe the shared SteMs directly (joins only).
  if (w.join) {
    int span = g_spans.Begin("replay.stem");
    std::vector<std::unique_ptr<tcq::SteM>> stems;
    for (size_t s = 0; s < w.streams.size(); ++s) {
      stems.push_back(std::make_unique<tcq::SteM>(
          "bench/" + w.streams[s].name, sources[s], SchemaFor(cat, w.streams[s].name),
          tcq::StemOptions{.key_attr = "k"}));
    }
    std::vector<const tcq::StemEntry*> matches;
    double build_us = 0, probe_us = 0;
    Timestamp seq = 1;
    for (size_t b = b0; b < b1; ++b) {
      const tcq::TupleBatch& tb = batches[b - b0];
      size_t me = static_cast<size_t>(w.batches[b].stream);
      for (size_t i = 0; i < tb.size(); ++i) {
        tcq::Tuple t = tb.RowAt(i);
        matches.clear();
        double t0 = NowUs();
        stems[1 - me]->ProbeEq(t.at(0), seq, &matches);
        double t1 = NowUs();
        stems[me]->Build(t, seq++);
        double t2 = NowUs();
        probe_us += (t1 - t0);
        build_us += (t2 - t1);
      }
    }
    out.m["stem.build_us_per_tuple"] = build_us / kt;
    out.m["stem.probe_us_per_tuple"] = probe_us / kt;
    g_spans.End(span);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Trace export
// ---------------------------------------------------------------------------

void WriteTrace(const std::string& path, const std::vector<tcq::obs::Span>& engine) {
  std::ofstream o(path);
  o << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) o << ",\n";
    first = false;
  };
  o << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": \"tcq_bench\"}}";
  first = false;
  const auto& spans = g_spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    sep();
    o << "{\"name\": \"" << s.name << "\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
      << ", \"ts\": " << s.start_us << ", \"dur\": " << std::max(0.0, s.end_us - s.start_us)
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << ", \"batch\": " << s.batch
      << "}}";
  }
  for (const tcq::obs::Span& s : engine) {
    sep();
    o << "{\"name\": \"" << tcq::obs::SpanKindName(s.kind) << "\", \"cat\": \"engine\", \"ph\": \"X\""
      << ", \"pid\": 1, \"tid\": " << (100 + s.shard) << ", \"ts\": " << s.start_us
      << ", \"dur\": " << s.dur_us << ", \"args\": {\"module\": " << s.module
      << ", \"query\": " << s.query << ", \"shard\": " << s.shard << "}}";
  }
  o << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::max(1, std::atoi(v.c_str()));
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else Die("unknown argument " + k);
  }
  return a;
}

int Run(const Args& args) {
  Workload w;
  if (args.workload == "filter_fanout") w = MakeFilterFanout(args.seed, args.seconds);
  else if (args.workload == "join_durable") w = MakeJoinDurable(args.seed, args.seconds);
  else if (args.workload == "window_sliding") w = MakeWindowSliding(args.seed, args.seconds);
  else Die("unknown workload '" + args.workload + "'");

  g_spans.on = args.trace;
  Counters counters;
  const std::string dir = args.work_dir + "/" + w.name + "-" + std::to_string(args.seed);
  FacadeRun run(w, &counters, dir, args.trace);
  std::vector<Metric> metrics;

  // Seeded random pauses before each checkpoint and restore, so no
  // repetition locks in phase with the engine's fixed sleeps.
  Rng gaps(args.seed ^ 0x67617073ULL);
  auto pause = [&gaps] {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(gaps.Exp(1000.0))));
  };
  // Set-up is timed on fresh servers, half at the start of the run (the
  // last one carries the run) and half at the end, so its median samples
  // the whole run.
  std::vector<double> setups;
  auto time_setups = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      int span = g_spans.BeginPhase("setup");
      setups.push_back(run.Setup());
      g_spans.End(span);
    }
  };
  run.ResetDirs();
  time_setups((w.setups + 1) / 2);
  TelegraphCQ* server = run.server();

  // Thread budget: engine threads plus this client thread must fit nproc.
  const size_t threads = ThreadCount();
  const size_t cpus = UsableCpus();
  if (threads > cpus) {
    Die("configuration needs " + std::to_string(threads) +
        " threads (engine + client) but only " + std::to_string(cpus) +
        " CPUs are usable; lower num_eos/shards or windowed queries");
  }

  // Idle burn (traced run): the engine with nothing to do.
  double idle_cores = 0, idle_backoffs_per_s = 0;
  if (args.trace) {
    auto before = server->Introspect().metrics;
    double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    double t0 = NowUs();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    double wall = (NowUs() - t0) * 1e-6;
    idle_cores = (CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / wall;
    auto after = server->Introspect().metrics;
    idle_backoffs_per_s = static_cast<double>(after.CounterFamilySum("tcq_eo_idle_backoffs_total") -
                                              before.CounterFamilySum("tcq_eo_idle_backoffs_total")) /
                          wall;
  }

  // Warm-up, then rounds of open-loop latency and saturation. Counter
  // deltas over the saturation slices feed the per-layer ratios.
  PhaseResult phase;
  int span = g_spans.BeginPhase("warmup");
  PushRange(&run, 0, kWarmup);
  g_spans.End(span);
  Rng arrivals(args.seed ^ 0x6c6174656e6379ULL);
  std::function<void(bool)> toggle;
  if (args.trace) toggle = [server](bool on) { server->tracer()->set_enabled(on); };
  std::vector<std::pair<tcq::MetricsSnapshot, tcq::MetricsSnapshot>> sat_snaps;
  for (size_t r = 0; r < kRounds; ++r) {
    span = g_spans.BeginPhase("latency");
    RunLatency(&run, w, w.RoundBegin(r), w.SatBegin(r), &arrivals, &phase);
    g_spans.End(span);
    auto before = server->Introspect().metrics;
    span = g_spans.BeginPhase("saturation");
    RunSaturation(&run, w, w.SatBegin(r), &phase, toggle);
    g_spans.End(span);
    sat_snaps.push_back({std::move(before), server->Introspect().metrics});
  }
  const double peak_rss = VmHwmMiB();

  // Checkpoint, repeated on identical state.
  std::vector<double> ckpt_ms;
  for (size_t i = 0; i < w.checkpoints; ++i) {
    pause();
    span = g_spans.BeginPhase("checkpoint");
    double t0 = NowUs();
    auto epoch = server->Checkpoint();
    ckpt_ms.push_back((NowUs() - t0) * 1e-3);
    g_spans.End(span);
    ++counters.attempted;
    if (!epoch.ok()) counters.Fail("checkpoint: " + epoch.status().ToString());
  }
  auto intro_ckpt = server->Introspect();

  // The suffix past the snapshot: spooled workloads replay it on restore;
  // the unspooled one pushes it again into each restored server.
  span = g_spans.BeginPhase("suffix");
  const size_t suffix_begin = w.RoundsEnd();
  const std::vector<Summary> before_suffix = run.got_query();
  PushRange(&run, suffix_begin, w.SuffixEnd());
  g_spans.End(span);
  run.VerifyQueries();
  std::vector<Summary> pre_query = run.got_query();
  auto pre_windows = run.got_windows();
  if (w.spool) Must(server->FlushSpools(), "FlushSpools");
  auto final_intro = server->Introspect();
  std::vector<tcq::obs::Span> flight;
  if (args.trace) flight = server->DumpFlightRecorder();
  server->Stop();
  const ClientStats client = run.stats();

  // Restore, repeated into fresh servers from the same snapshot + spool.
  // Each restored server must reproduce the pre-crash results of the
  // suffix exactly: spooled workloads get it from the spool replay, the
  // unspooled one by pushing the suffix again.
  std::vector<Summary> pre_suffix(w.queries.size());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    pre_suffix[q] = {pre_query[q].count - before_suffix[q].count,
                     pre_query[q].sum - before_suffix[q].sum};
  }
  std::vector<std::map<Timestamp, Summary>> pre_suffix_windows(pre_windows.size());
  for (size_t q = 0; q < pre_windows.size(); ++q) {
    for (const auto& [t, s] : pre_windows[q]) {
      auto it = w.expect_windows[q].find(t);
      if (it != w.expect_windows[q].end() && it->second.closing_batch >= suffix_begin) {
        pre_suffix_windows[q][t] = s;
      }
    }
  }
  const std::vector<uint32_t> facade_got = run.got_per_batch();
  std::vector<double> restore_s;
  uint64_t replayed = 0;
  for (size_t i = 0; i < w.restores; ++i) {
    auto fresh = std::make_unique<TelegraphCQ>(run.Options());
    pause();
    span = g_spans.BeginPhase("restore");
    double t0 = NowUs();
    auto epoch = fresh->Restore();
    restore_s.push_back((NowUs() - t0) * 1e-6);
    g_spans.End(span);
    ++counters.attempted;
    if (!epoch.ok()) {
      counters.Fail("restore: " + epoch.status().ToString());
      continue;
    }
    replayed = fresh->Introspect().restore_replay_tuples;
    fresh->Start();
    run.Adopt(std::move(fresh));
    run.ResetResults();
    if (w.spool) {
      run.MarkReplayed(suffix_begin, w.SuffixEnd());
      run.DrainAll(kPatienceS);
    } else {
      PushRange(&run, suffix_begin, w.SuffixEnd());
    }
    if (!w.windowed && run.got_query() != pre_suffix) {
      counters.Fail("restore " + std::to_string(i) + ": suffix results differ from pre-crash");
    }
    if (w.windowed && run.got_windows() != pre_suffix_windows) {
      counters.Fail("restore " + std::to_string(i) + ": suffix windows differ from pre-crash");
    }
    run.server()->Stop();
  }
  run.Shutdown();
  run.ResetDirs();
  // Let the file system settle after deleting the run's spools and
  // snapshots before timing set-up again.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  time_setups(w.setups / 2);
  run.Shutdown();

  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setups), "s"});
    metrics.push_back({"drain_tps", Median(phase.slice_tps), "1/s"});
    metrics.push_back({"lat_p50_us", Median(phase.lat_us), "us"});
    metrics.push_back({"cpu_us_per_tuple",
                       phase.engine_cpu_s * 1e6 / static_cast<double>(phase.sat_tuples), "us"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
  } else {
    const double sat_k = static_cast<double>(phase.sat_tuples) / 1000.0;
    auto delta = [&](const std::string& family) {
      double sum = 0;
      for (const auto& [before, after] : sat_snaps) {
        sum += static_cast<double>(after.CounterFamilySum(family) - before.CounterFamilySum(family));
      }
      return sum;
    };
    const auto& fm = final_intro.metrics;

    // Layer replay over the first batches (bounded, to keep memory small).
    const size_t replay_end = std::min<size_t>(w.RoundsEnd(), 512);
    span = g_spans.BeginPhase("replay");
    LayerReplay lr = ReplayLayers(w, 0, replay_end, dir + "/replay");
    g_spans.End(span);
    uint64_t facade_results = 0;
    for (size_t b = 0; b < replay_end; ++b) facade_results += facade_got[b];
    ++counters.attempted;
    if (lr.replay_results != facade_results) {
      counters.Fail("layer replay produced " + std::to_string(lr.replay_results) +
                    " results, facade " + std::to_string(facade_results));
    }
    auto replay = [&](const std::string& name) {
      auto it = lr.m.find(name);
      return it == lr.m.end() ? 0.0 : it->second;
    };

    // Shard skew over the saturation phase: busiest / least busy replica.
    double skew = 1.0;
    {
      std::map<std::string, double> shard_sum;
      for (const auto& [before, after] : sat_snaps) {
        for (const auto& [name, v] : after.counters) {
          if (name.rfind("tcq_shard_ingest_total", 0) != 0) continue;
          shard_sum[name] += static_cast<double>(v - before.CounterValue(name));
        }
      }
      std::vector<double> per_shard;
      for (const auto& [name, v] : shard_sum) per_shard.push_back(v);
      if (per_shard.size() >= 2) {
        auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
        skew = *lo > 0 ? *hi / *lo : 0.0;
      }
    }

    const double decisions = delta("tcq_shared_eddy_routing_decisions_total");
    const double reused = delta("tcq_shared_eddy_routing_decisions_reused_total");
    const double probes = delta("tcq_stem_probes_total");
    const double fired = static_cast<double>(fm.CounterFamilySum("tcq_window_fired_total"));
    const uint64_t epochs = intro_ckpt.checkpoint_epochs;

    metrics.push_back({"server.push_us_per_batch", client.push_us / static_cast<double>(client.batches), "us"});
    metrics.push_back({"server.append_us_per_tuple", client.append_us / static_cast<double>(client.tuples), "us"});
    metrics.push_back({"exec.threads", static_cast<double>(threads), "count"});
    metrics.push_back({"exec.idle_cpu_cores", idle_cores, "cores"});
    metrics.push_back({"exec.idle_backoffs_per_s", idle_backoffs_per_s, "1/s"});
    metrics.push_back({"exec.quanta_per_ktuple", delta("tcq_eo_quanta_total") / sat_k, "count"});
    metrics.push_back({"exec.dropped_backpressure",
                       static_cast<double>(fm.CounterFamilySum("tcq_executor_tuples_dropped_backpressure_total")), "count"});
    metrics.push_back({"exec.dropped_unrouted",
                       static_cast<double>(fm.CounterFamilySum("tcq_executor_tuples_dropped_unrouted_total")), "count"});
    metrics.push_back({"exec.shard_ingest_skew", skew, "ratio"});
    metrics.push_back({"fjords.queue_wait_us_p50", HistogramFamilyP50(fm, "tcq_queue_wait_us"), "us"});
    metrics.push_back({"fjords.enqueue_blocked_per_ktuple", delta("tcq_queue_enqueue_blocked_total") / sat_k, "count"});
    metrics.push_back({"fjords.produce_us_per_batch", replay("fjords.produce_us_per_batch"), "us"});
    metrics.push_back({"cacq.eddy_us_per_tuple", replay("cacq.eddy_us_per_tuple"), "us"});
    metrics.push_back({"cacq.routing_decisions_per_tuple",
                       (decisions + reused) / static_cast<double>(phase.sat_tuples), "count"});
    metrics.push_back({"cacq.decisions_reused_frac",
                       decisions + reused > 0 ? reused / (decisions + reused) : 0.0, "ratio"});
    metrics.push_back({"cacq.replay_tps", replay("cacq.replay_tps"), "1/s"});
    metrics.push_back({"operators.filter_us_per_tuple", replay("operators.filter_us_per_tuple"), "us"});
    metrics.push_back({"operators.project_us_per_result", replay("operators.project_us_per_result"), "us"});
    metrics.push_back({"stem.build_us_per_tuple", replay("stem.build_us_per_tuple"), "us"});
    metrics.push_back({"stem.probe_us_per_tuple", replay("stem.probe_us_per_tuple"), "us"});
    metrics.push_back({"stem.matches_per_probe",
                       probes > 0 ? delta("tcq_stem_matches_total") / probes : 0.0, "count"});
    metrics.push_back({"stem.live_entries",
                       static_cast<double>(GaugeSum(intro_ckpt.metrics, "tcq_stem_live_entries")), "count"});
    metrics.push_back({"window.fire_us_per_window", replay("window.fire_us_per_window"), "us"});
    metrics.push_back({"window.tuples_per_window",
                       fired > 0 ? static_cast<double>(fm.CounterFamilySum("tcq_window_tuples_total")) / fired : 0.0,
                       "count"});
    metrics.push_back({"window.late_drops",
                       static_cast<double>(fm.CounterFamilySum("tcq_wrapper_late_tuples_total")), "count"});
    metrics.push_back({"egress.offer_us_per_result", replay("egress.offer_us_per_result"), "us"});
    metrics.push_back({"egress.poll_us_per_result", replay("egress.poll_us_per_result"), "us"});
    metrics.push_back({"egress.empty_poll_frac",
                       static_cast<double>(client.poll_empty) /
                           static_cast<double>(client.poll_empty + client.poll_hits),
                       "ratio"});
    uint64_t all_results = 0;
    for (uint32_t g : facade_got) all_results += g;
    metrics.push_back({"egress.results_per_tuple",
                       w.windowed ? static_cast<double>(fm.CounterFamilySum("tcq_window_tuples_total")) /
                                        static_cast<double>(client.tuples)
                                  : static_cast<double>(all_results) / static_cast<double>(client.tuples),
                       "count"});
    metrics.push_back({"egress.shed", static_cast<double>(fm.CounterFamilySum("tcq_egress_shed_total")), "count"});
    metrics.push_back({"storage.spool_append_us_per_tuple", replay("storage.spool_append_us_per_tuple"), "us"});
    metrics.push_back({"storage.checkpoint_bytes",
                       epochs ? static_cast<double>(intro_ckpt.checkpoint_bytes) / static_cast<double>(epochs) : 0.0,
                       "bytes"});
    metrics.push_back({"storage.checkpoint_write_ms",
                       static_cast<double>(intro_ckpt.metrics.GaugeValue("tcq_checkpoint_duration_us")) * 1e-3, "ms"});
    metrics.push_back({"storage.restore_replay_tuples", static_cast<double>(replayed), "count"});
    // Demoted from end-to-end: see perfbench/STEADINESS.md.
    metrics.push_back({"storage.checkpoint_ms", Median(ckpt_ms), "ms"});
    metrics.push_back({"storage.restore_s", Median(restore_s), "s"});

    // Engine spans: per-stage p50, and the share of end-to-end time no
    // stage accounts for (mean e2e vs summed stage time per sampled batch).
    double stage_sum = 0;
    for (size_t k = 0; k < tcq::obs::kNumSpanKinds; ++k) {
      const auto kind = static_cast<tcq::obs::SpanKind>(k);
      const std::string stage = tcq::obs::SpanKindName(kind);
      const auto* h = fm.FindHistogram(tcq::MetricName("tcq_trace_span_us", "stage", stage));
      metrics.push_back({"obs.span_us_p50." + stage, h && h->count ? static_cast<double>(h->p50) : 0.0, "us"});
      if (h && kind != tcq::obs::SpanKind::kEndToEnd) stage_sum += static_cast<double>(h->sum);
    }
    const auto* e2e = fm.FindHistogram(tcq::MetricName("tcq_trace_span_us", "stage", "e2e"));
    const double sampled = static_cast<double>(fm.CounterFamilySum("tcq_trace_sampled_batches_total"));
    double unattributed = 0;
    if (e2e && e2e->count && sampled > 0) {
      const double e2e_mean = static_cast<double>(e2e->sum) / static_cast<double>(e2e->count);
      unattributed = std::clamp(1.0 - (stage_sum / sampled) / e2e_mean, 0.0, 1.0);
    }
    metrics.push_back({"obs.unattributed_frac", unattributed, "ratio"});
    const double untraced_tps = Median(phase.slice_tps), traced_tps = Median(phase.slice_tps_traced);
    metrics.push_back({"obs.trace_overhead_frac",
                       untraced_tps > 0 ? 1.0 - traced_tps / untraced_tps : 0.0, "ratio"});
    metrics.push_back({"gen.lag_p99_us", Quantile(phase.lag_us, 0.99), "us"});
    metrics.push_back({"lat.p99_us", Quantile(phase.lat_us, 0.99), "us"});
    metrics.push_back({"lat.samples", static_cast<double>(phase.lat_us.size()), "count"});

    const std::string trace_path =
        args.work_dir + "/trace-" + w.name + "-" + std::to_string(args.seed) + ".json";
    WriteTrace(trace_path, flight);
    std::fprintf(stderr, "tcq_bench: trace written to %s\n", trace_path.c_str());
  }

  for (const std::string& e : counters.errors) std::fprintf(stderr, "tcq_bench: FAIL %s\n", e.c_str());
  fs::remove_all(dir);
  std::puts(Json(metrics, counters).c_str());
  return counters.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(ParseArgs(argc, argv));
}
