#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>

#include "cacq/spec_codec.h"

namespace tcq {

namespace {

/// How long IngestBatch waits for room in a full shard fjord before it
/// drops the batch's undelivered suffix.
constexpr std::chrono::milliseconds kBackpressureBudget{20};

}  // namespace

Executor::Executor(Options opts, MetricsRegistryRef metrics,
                   obs::TracerRef tracer)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)) {
  if (opts_.num_eos == 0) opts_.num_eos = 1;
  if (opts_.shards == 0) opts_.shards = 1;
  dropped_unrouted_ =
      metrics_->GetCounter("tcq_executor_tuples_dropped_unrouted_total");
  dropped_backpressure_ =
      metrics_->GetCounter("tcq_executor_tuples_dropped_backpressure_total");
  merges_ = metrics_->GetCounter("tcq_executor_class_merges_total");
  migrations_ = metrics_->GetCounter("tcq_executor_class_migrations_total");
  gcs_ = metrics_->GetCounter("tcq_executor_class_gcs_total");
  rebalance_passes_ =
      metrics_->GetCounter("tcq_executor_rebalance_passes_total");
  classes_gauge_ = metrics_->GetGauge("tcq_executor_classes");
  for (size_t i = 0; i < opts_.num_eos; ++i) {
    auto sched = opts_.ticket_scheduler
                     ? MakeTicketScheduler(opts_.seed + i)
                     : MakeRoundRobinScheduler();
    eos_.push_back(std::make_unique<ExecutionObject>(
        "eo" + std::to_string(i), std::move(sched), metrics_));
  }
}

Executor::~Executor() { Stop(); }

Status Executor::RegisterStream(SourceId source, SchemaRef schema,
                                StemOptions stem_opts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (streams_.contains(source)) {
    return Status::AlreadyExists("stream s" + std::to_string(source) +
                                 " already registered");
  }
  StreamInfo info;
  info.schema = std::move(schema);
  info.stem_opts = std::move(stem_opts);
  info.dropped = metrics_->GetCounter(MetricName(
      "tcq_executor_stream_dropped_total", "stream",
      "s" + std::to_string(source)));
  streams_.emplace(source, std::move(info));
  return Status::OK();
}

size_t Executor::CountLiveClasses() const {
  size_t n = 0;
  for (const QueryClass& qc : classes_) {
    if (qc.live) ++n;
  }
  return n;
}

void Executor::ApplyRemap(size_t cls, const ShardedClass::RemapMap& remap) {
  for (auto& [gid, qi] : queries_) {
    if (qi.query_class != cls) continue;
    auto it = remap.find(qi.local_id);
    assert(it != remap.end() && "live query missing from repartition remap");
    if (it != remap.end()) qi.local_id = it->second;
  }
}

void Executor::MergeClassInto(size_t dst, size_t src) {
  assert(classes_[dst].live && classes_[src].live && dst != src);
  // The disjoint-stream ImportState path works on single eddies, so both
  // classes first collapse to one shard (a no-op at the default shard
  // count; a real collapse re-partitions online and remaps local ids).
  classes_[dst].sc->RepartitionTo(
      1, [&](const ShardedClass::RemapMap& m) { ApplyRemap(dst, m); });
  classes_[src].sc->RepartitionTo(
      1, [&](const ShardedClass::RemapMap& m) { ApplyRemap(src, m); });

  QueryClass& d = classes_[dst];
  QueryClass& s = classes_[src];
  // Absorb: quiesces both, transfers streams + SteM contents + queries
  // (lineage bits remapped into the survivor's QuerySet), moves fjord
  // consumers with their queued tuples, and leaves src retired so an
  // in-flight RouteBatch re-resolves to the survivor.
  ShardedClass::RemapMap remap = d.sc->AbsorbSingleShard(s.sc.get());
  for (auto& [gid, qi] : queries_) {
    if (qi.query_class != src) continue;
    auto it = remap.find(qi.local_id);
    assert(it != remap.end() && "live query missing from export remap");
    qi.query_class = dst;
    qi.local_id = it->second;
  }
  ForEachSource(s.streams, [&](SourceId stream) {
    auto it = streams_.find(stream);
    assert(it != streams_.end());
    it->second.owner_class = dst;
    it->second.owner = d.sc;
  });
  d.streams |= s.streams;
  s.sc.reset();
  s.live = false;
  s.streams = 0;

  merges_->Inc();
  classes_gauge_->Set(static_cast<int64_t>(CountLiveClasses()));
}

void Executor::GcClass(size_t cls) {
  QueryClass& qc = classes_[cls];
  assert(qc.live);
  // Shutdown detaches every shard DU, closes all stream producers (a
  // concurrent IngestBatch holding the shared class ref sees kClosed and
  // counts the drop), and drops the replicas.
  qc.sc->Shutdown();
  ForEachSource(qc.streams, [&](SourceId stream) {
    auto it = streams_.find(stream);
    if (it == streams_.end()) return;
    it->second.owner.reset();
    it->second.owner_class = SIZE_MAX;
  });
  qc.sc.reset();
  qc.live = false;
  qc.streams = 0;
  gcs_->Inc();
  classes_gauge_->Set(static_cast<int64_t>(CountLiveClasses()));
}

size_t Executor::LeastLoadedEo() const {
  size_t best = 0;
  for (size_t e = 1; e < eos_.size(); ++e) {
    if (eos_[e]->num_dus() < eos_[best]->num_dus()) best = e;
  }
  return best;
}

void Executor::HostDispatchUnit(std::shared_ptr<DispatchUnit> du) {
  std::lock_guard<std::mutex> lock(mu_);
  eos_[LeastLoadedEo()]->AddDispatchUnit(std::move(du));
}

void Executor::UnhostDispatchUnit(const std::shared_ptr<DispatchUnit>& du) {
  // eos_ is fixed after construction, and the rebalance pass only moves
  // class shard DUs, so a hosted DU stays where it was placed.
  for (auto& eo : eos_) {
    if (eo->RemoveDispatchUnit(du)) return;
  }
}

Result<size_t> Executor::ClassFor(SourceSet footprint) {
  // Which live classes does the footprint touch?
  std::vector<size_t> touching;
  for (size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].live && (classes_[c].streams & footprint)) {
      touching.push_back(c);
    }
  }

  size_t class_idx;
  if (touching.empty()) {
    // New class, placed on the EO hosting the fewest DUs (the rebalance
    // pass revisits this later).
    size_t label = next_class_label_++;
    ShardedClass::Options sc_opts;
    sc_opts.shards = opts_.shards;
    sc_opts.quantum = opts_.quantum;
    sc_opts.queue_capacity = opts_.queue_capacity;
    sc_opts.buckets = opts_.shard_buckets;
    sc_opts.skew_threshold = opts_.shard_skew_threshold;
    sc_opts.min_skew_volume = opts_.shard_min_skew_volume;
    sc_opts.seed = opts_.seed + label;
    std::vector<ExecutionObject*> eo_ptrs;
    eo_ptrs.reserve(eos_.size());
    for (auto& eo : eos_) eo_ptrs.push_back(eo.get());
    QueryClass qc;
    qc.sc = std::make_shared<ShardedClass>(
        "class" + std::to_string(label), sc_opts, std::move(eo_ptrs),
        metrics_, tracer_);
    qc.live = true;
    size_t eo = LeastLoadedEo();
    qc.sc->set_shard_eo(0, eo);
    classes_.push_back(std::move(qc));
    class_idx = classes_.size() - 1;
    eos_[eo]->AddDispatchUnit(classes_[class_idx].sc->shard_du(0));
    classes_gauge_->Set(static_cast<int64_t>(CountLiveClasses()));
  } else {
    // The paper's §4.2.2 open issue, closed: a bridging footprint MERGES
    // every touched class into the first one.
    class_idx = touching.front();
    for (size_t i = 1; i < touching.size(); ++i) {
      MergeClassInto(class_idx, touching[i]);
    }
  }

  // Claim any footprint streams the class does not yet consume.
  QueryClass& qc = classes_[class_idx];
  SourceSet missing = footprint & ~qc.streams;
  ForEachSource(missing, [&](SourceId s) {
    auto it = streams_.find(s);
    assert(it != streams_.end());
    StreamInfo& info = it->second;
    // Any class owning a footprint stream was in `touching` and has been
    // merged in, so unclaimed is the only possibility left.
    assert(info.owner_class == SIZE_MAX && "stream owned by a merged class");
    qc.sc->ClaimStream(s, info.schema, info.stem_opts);
    info.owner = qc.sc;
    info.owner_class = class_idx;
    qc.streams |= SourceBit(s);
  });
  return class_idx;
}

Result<GlobalQueryId> Executor::SubmitQuery(
    const CQSpec& spec, Sink sink, std::optional<Projection> projection) {
  SourceSet footprint = spec.Footprint();
  if (footprint == 0) {
    return Status::InvalidArgument("query has an empty footprint");
  }
  // mu_ is held across admission: the wait inside AdmitQuery is serviced by
  // EO threads (or the inline Step pre-start), and EO threads never take
  // mu_ — so a concurrent merge/GC cannot remap the class between the eddy
  // admitting the query and queries_ recording its (class, local id).
  std::lock_guard<std::mutex> lock(mu_);
  Status unknown = Status::OK();
  ForEachSource(footprint, [&](SourceId s) {
    if (unknown.ok() && !streams_.contains(s)) {
      unknown = Status::NotFound("stream s" + std::to_string(s) +
                                 " is not registered");
    }
  });
  if (!unknown.ok()) return unknown;
  size_t class_idx;
  TCQ_ASSIGN_OR_RETURN(class_idx, ClassFor(footprint));
  GlobalQueryId gid = next_query_id_++;

  Result<QueryId> local = classes_[class_idx].sc->AdmitQuery(
      spec, SinkBinding{gid, std::move(sink), std::move(projection)}, started_,
      [&](const ShardedClass::RemapMap& m) { ApplyRemap(class_idx, m); });
  if (!local.ok()) {
    // If admission left the class without any query (e.g. a class freshly
    // created for this footprint), reclaim it right away.
    bool any = false;
    for (const auto& [g, qi] : queries_) {
      if (qi.query_class == class_idx) {
        any = true;
        break;
      }
    }
    if (!any && classes_[class_idx].live) GcClass(class_idx);
    return local.status();
  }
  queries_[gid] = QueryInfo{class_idx, *local};
  return gid;
}

Status Executor::RemoveQuery(GlobalQueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("no query " + std::to_string(id));
  }
  size_t cls = it->second.query_class;
  QueryId local = it->second.local_id;
  queries_.erase(it);
  bool last = true;
  for (const auto& [gid, qi] : queries_) {
    if (qi.query_class == cls) {
      last = false;
      break;
    }
  }
  if (!last) {
    classes_[cls].sc->RemoveQuery(local);
    return Status::OK();
  }
  // Last query of the class: GC it — DUs, eddies, SteMs, and fjords all go;
  // the streams are freed for a later query to re-claim.
  GcClass(cls);
  return Status::OK();
}

Status Executor::IngestTuple(SourceId source, const Tuple& tuple) {
  TupleBatch batch(source);
  batch.push_back(tuple);
  return IngestBatch(std::move(batch));
}

Status Executor::IngestBatch(TupleBatch batch) {
  if (batch.empty() && batch.punctuations().empty()) return Status::OK();
  SourceId source = batch.source();
  // Hold the class by shared_ptr: a concurrent GC may release the stream
  // (closing its fjords) while this batch is in flight.
  std::shared_ptr<ShardedClass> sc;
  Counter* dropped = nullptr;
  auto lookup = [&]() -> Status {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(source);
    if (it == streams_.end()) {
      return Status::NotFound("stream s" + std::to_string(source) +
                              " is not registered");
    }
    sc = it->second.owner;
    dropped = it->second.dropped;
    return Status::OK();
  };
  Status st = lookup();
  if (!st.ok()) return st;
  auto unrouted = [&]() {
    // No query class consumes this stream: drop loudly, not silently.
    dropped_unrouted_->Inc(batch.size());
    dropped->Inc(batch.size());
    return Status::FailedPrecondition(
        "stream s" + std::to_string(source) +
        " is not consumed by any active query class; " +
        std::to_string(batch.size()) + " tuple(s) dropped");
  };
  if (sc == nullptr) return unrouted();
  // Producer-side enqueue span: timed across back-pressure retries, so its
  // duration shows blocked producers (the consumer-side wait is kQueueWait).
  bool sampled = tracer_ != nullptr && tracer_->ShouldSample();
  int64_t t0 = sampled ? NowMicros() : 0;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  for (;;) {
    ShardedClass::RouteResult r = sc->RouteBatch(&batch);
    if (batch.empty() && batch.punctuations().empty()) {
      if (sampled) {
        tracer_->Record(obs::SpanKind::kQueueEnqueue, source, 0, t0,
                        NowMicros() - t0);
      }
      return Status::OK();
    }
    if (r == ShardedClass::RouteResult::kClosed) {
      dropped->Inc(batch.size());
      return Status::FailedPrecondition("stream s" + std::to_string(source) +
                                        " is closed");
    }
    if (r == ShardedClass::RouteResult::kRetired) {
      // The class was merged away mid-flight: re-resolve the stream's
      // current owner (the merge survivor) and route there.
      st = lookup();
      if (!st.ok()) return st;
      if (sc == nullptr) return unrouted();
      continue;
    }
    // Full shard fjord: wait for the consumer to make room, up to the
    // back-pressure budget counted from the first full attempt.
    auto now = std::chrono::steady_clock::now();
    if (!deadline.has_value()) deadline = now + kBackpressureBudget;
    if (now >= *deadline) break;
    sc->WaitForRoom(source, *deadline);
  }
  // Routed but back-pressured past the budget: counted separately
  // from unrouted drops (a consumer exists; it just can't keep up).
  dropped_backpressure_->Inc(batch.size());
  dropped->Inc(batch.size());
  return Status::ResourceExhausted("stream s" + std::to_string(source) +
                                   " back-pressured; " +
                                   std::to_string(batch.size()) +
                                   " tuple(s) dropped");
}

uint64_t Executor::stream_tuples_dropped(SourceId source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(source);
  if (it == streams_.end()) return 0;
  return it->second.dropped->Value();
}

Timestamp Executor::stream_watermark(SourceId source) const {
  std::shared_ptr<ShardedClass> sc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(source);
    if (it == streams_.end() || it->second.owner == nullptr) {
      return kMinTimestamp;
    }
    sc = it->second.owner;
  }
  return sc->merged_watermark(source);
}

Status Executor::CloseStream(SourceId source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(source);
  if (it == streams_.end()) {
    return Status::NotFound("stream s" + std::to_string(source) +
                            " is not registered");
  }
  if (it->second.owner != nullptr) it->second.owner->CloseStream(source);
  return Status::OK();
}

bool Executor::RebalanceLocked() {
  if (eos_.size() < 2) return false;
  // Per-EO load = recent progress (quanta that did work) of its live shard
  // DUs since the previous pass; per-shard deltas double as the "busiest
  // DU" ranking.
  std::vector<uint64_t> load(eos_.size(), 0);
  std::vector<size_t> hosted(eos_.size(), 0);
  struct Candidate {
    size_t cls;
    size_t shard;
    uint64_t delta;
  };
  std::vector<Candidate> cands;
  for (size_t c = 0; c < classes_.size(); ++c) {
    QueryClass& qc = classes_[c];
    if (!qc.live) continue;
    for (size_t k = 0; k < qc.sc->num_shards(); ++k) {
      uint64_t delta = qc.sc->TakeProgressDelta(k);
      size_t eo = qc.sc->shard_eo(k);
      load[eo] += delta;
      ++hosted[eo];
      cands.push_back({c, k, delta});
    }
  }
  size_t max_eo = 0;
  size_t min_eo = 0;
  for (size_t e = 1; e < eos_.size(); ++e) {
    if (load[e] > load[max_eo]) max_eo = e;
    if (load[e] < load[min_eo] ||
        (load[e] == load[min_eo] && hosted[e] < hosted[min_eo])) {
      min_eo = e;
    }
  }
  if (max_eo == min_eo || hosted[max_eo] < 2) return false;
  double floor = static_cast<double>(std::max<uint64_t>(load[min_eo], 1));
  if (static_cast<double>(load[max_eo]) <=
      opts_.rebalance_imbalance_threshold * floor) {
    return false;
  }
  if (started_ && !eos_[min_eo]->running()) return false;  // EO retired
  // Migrate the busiest shard DU off the most-loaded EO.
  const Candidate* busiest = nullptr;
  for (const Candidate& cand : cands) {
    if (classes_[cand.cls].sc->shard_eo(cand.shard) != max_eo) continue;
    if (busiest == nullptr || cand.delta > busiest->delta) busiest = &cand;
  }
  if (busiest == nullptr || busiest->delta == 0) return false;
  // Anti-thrash gate: move only if it strictly lowers the peak load.
  // Moving a DU that carries most of its EO's load onto the least-loaded
  // EO would just relocate the hot spot (and ping-pong on the next pass).
  uint64_t src_after = load[max_eo] - busiest->delta;
  uint64_t dst_after = load[min_eo] + busiest->delta;
  if (std::max(src_after, dst_after) >= load[max_eo]) return false;
  ShardedClass* sc = classes_[busiest->cls].sc.get();
  // Quiesce at a quantum boundary, then re-home. The DU's fjords and eddy
  // state move untouched — only the thread stepping it changes.
  auto du = sc->shard_du(busiest->shard);
  eos_[max_eo]->RemoveDispatchUnit(du);
  sc->set_shard_eo(busiest->shard, min_eo);
  eos_[min_eo]->AddDispatchUnit(du);
  migrations_->Inc();
  return true;
}

bool Executor::SkewLocked() {
  bool any = false;
  for (size_t c = 0; c < classes_.size(); ++c) {
    QueryClass& qc = classes_[c];
    if (!qc.live) continue;
    if (qc.sc->MaybeRepartitionForSkew(
            [&](const ShardedClass::RemapMap& m) { ApplyRemap(c, m); })) {
      any = true;
    }
  }
  return any;
}

bool Executor::RebalanceOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  return RebalanceLocked();
}

bool Executor::RepartitionSkewedOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  return SkewLocked();
}

uint64_t Executor::class_repartitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const QueryClass& qc : classes_) {
    if (qc.live) n += qc.sc->repartitions();
  }
  return n;
}

Status Executor::CheckpointTo(CheckpointWriter* w) {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginSection("executor", 1);
  w->PutU32(static_cast<uint32_t>(CountLiveClasses()));
  w->EndSection();
  for (QueryClass& qc : classes_) {
    if (!qc.live) continue;
    TCQ_RETURN_IF_ERROR(qc.sc->CheckpointTo(w));
  }
  return Status::OK();
}

Status Executor::RestoreClass(CheckpointReader* r, const SinkFactory& sinks,
                              uint64_t* replayed) {
  TCQ_ASSIGN_OR_RETURN(CheckpointReader::Section sec, r->BeginSection());
  if (sec.tag != "class") {
    return Status::IOError("expected a 'class' checkpoint section, found '" +
                           sec.tag + "'");
  }
  if (sec.version > 1) {
    return Status::IOError("class section version " +
                           std::to_string(sec.version) + " is newer than "
                           "this binary supports");
  }

  // Re-drive every recorded admission, in admission order, under its
  // ORIGINAL global id. Footprint grouping is deterministic, so the same
  // query sequence reproduces the same class shapes — except when a query
  // that once bridged two footprints was removed before the checkpoint, in
  // which case one recorded class legitimately restores as several. All
  // later steps therefore resolve classes through the stream catalog
  // instead of assuming one section == one class.
  std::set<size_t> restored;  // class indices this section's queries landed in
  uint32_t nqueries = 0;
  TCQ_ASSIGN_OR_RETURN(nqueries, r->GetU32());
  for (uint32_t i = 0; i < nqueries; ++i) {
    uint64_t gid = 0;
    TCQ_ASSIGN_OR_RETURN(gid, r->GetU64());
    TCQ_ASSIGN_OR_RETURN(CQSpec spec, GetCQSpec(r));
    SourceSet footprint = spec.Footprint();
    if (footprint == 0) {
      return Status::IOError("checkpointed query " + std::to_string(gid) +
                             " has an empty footprint");
    }
    Status missing = Status::OK();
    ForEachSource(footprint, [&](SourceId s) {
      if (missing.ok() && !streams_.contains(s)) {
        missing = Status::FailedPrecondition(
            "checkpointed query " + std::to_string(gid) + " needs stream s" +
            std::to_string(s) + ", which was not re-registered");
      }
    });
    if (!missing.ok()) return missing;
    if (queries_.contains(gid)) {
      return Status::IOError("duplicate query id " + std::to_string(gid) +
                             " in checkpoint");
    }
    size_t cls;
    TCQ_ASSIGN_OR_RETURN(cls, ClassFor(footprint));
    next_query_id_ = std::max(next_query_id_, gid + 1);
    SinkBinding binding = sinks ? sinks(gid) : SinkBinding{};
    binding.global_id = gid;
    if (!binding.sink) binding.sink = [](GlobalQueryId, ResultRows) {};
    Result<QueryId> local = classes_[cls].sc->AdmitQuery(
        spec, std::move(binding), started_,
        [&](const ShardedClass::RemapMap& m) { ApplyRemap(cls, m); });
    if (!local.ok()) return local.status();
    queries_[gid] = QueryInfo{cls, *local};
    restored.insert(cls);
  }

  // The recorded Flux bucket map. Owners apply modulo each class's current
  // shard count, so a checkpoint taken at a different effective count still
  // routes consistently.
  uint32_t nbuckets = 0;
  TCQ_ASSIGN_OR_RETURN(nbuckets, r->GetU32());
  std::vector<uint32_t> owners(nbuckets);
  for (uint32_t b = 0; b < nbuckets; ++b) {
    TCQ_ASSIGN_OR_RETURN(owners[b], r->GetU32());
  }
  for (size_t cls : restored) classes_[cls].sc->ApplyBucketOwners(owners);

  // SteM replay, routed through the stream catalog: each entry goes to the
  // class that now owns its stream (partition-map routed inside). Entries
  // for streams no class re-claimed — their last interested query was
  // removed before the checkpoint — are dropped, and counted against the
  // replay total by not counting them.
  uint32_t nroutes = 0;
  TCQ_ASSIGN_OR_RETURN(nroutes, r->GetU32());
  for (uint32_t i = 0; i < nroutes; ++i) {
    uint32_t source = 0;
    TCQ_ASSIGN_OR_RETURN(source, r->GetU32());
    uint64_t entries = 0;
    TCQ_ASSIGN_OR_RETURN(entries, r->GetU64());
    std::shared_ptr<ShardedClass> owner;
    if (auto it = streams_.find(static_cast<SourceId>(source));
        it != streams_.end()) {
      owner = it->second.owner;
    }
    for (uint64_t e = 0; e < entries; ++e) {
      TCQ_ASSIGN_OR_RETURN(Tuple t, r->GetTuple());
      Timestamp seq = 0;
      TCQ_ASSIGN_OR_RETURN(seq, r->GetI64());
      if (owner != nullptr &&
          owner->ReplayStemEntry(static_cast<SourceId>(source), t, seq)) {
        ++*replayed;
      }
    }
  }

  Timestamp horizon = 0;
  TCQ_ASSIGN_OR_RETURN(horizon, r->GetTimestamp());
  for (size_t cls : restored) classes_[cls].sc->AdvanceSeqHorizons(horizon);
  return r->EndSection();
}

Result<uint64_t> Executor::RestoreFrom(CheckpointReader* r,
                                       const SinkFactory& sinks) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!queries_.empty()) {
    return Status::FailedPrecondition(
        "restore requires a freshly constructed executor");
  }
  TCQ_ASSIGN_OR_RETURN(CheckpointReader::Section sec, r->BeginSection());
  if (sec.tag != "executor") {
    return Status::IOError("expected an 'executor' checkpoint section, "
                           "found '" + sec.tag + "'");
  }
  uint32_t nclasses = 0;
  TCQ_ASSIGN_OR_RETURN(nclasses, r->GetU32());
  TCQ_RETURN_IF_ERROR(r->EndSection());
  uint64_t replayed = 0;
  for (uint32_t c = 0; c < nclasses; ++c) {
    TCQ_RETURN_IF_ERROR(RestoreClass(r, sinks, &replayed));
  }
  return replayed;
}

void Executor::RebalanceLoop() {
  // At least 1 ms between passes: each takes mu_, which admission and
  // ingest lookups need too.
  const auto interval = std::chrono::milliseconds(
      std::max<uint64_t>(1, opts_.rebalance_interval_ms));
  while (!rebalance_stop_.WaitUntil(std::chrono::steady_clock::now() +
                                    interval)) {
    std::lock_guard<std::mutex> lock(mu_);
    (void)RebalanceLocked();
    (void)SkewLocked();
    rebalance_passes_->Inc();
  }
}

void Executor::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
  }
  for (auto& eo : eos_) eo->Start();
  if (opts_.rebalance && eos_.size() > 1) {
    rebalance_stop_.Reset();
    rebalance_thread_ = std::thread([this] { RebalanceLoop(); });
  }
}

void Executor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  rebalance_stop_.Stop();
  if (rebalance_thread_.joinable()) rebalance_thread_.join();
  for (auto& eo : eos_) eo->Stop();
}

size_t Executor::parked_eos() const {
  size_t n = 0;
  for (const auto& eo : eos_) n += eo->parked() ? 1 : 0;
  return n;
}

size_t Executor::num_classes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CountLiveClasses();
}

std::vector<Executor::ClassInfo> Executor::Topology() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClassInfo> out;
  for (size_t c = 0; c < classes_.size(); ++c) {
    const QueryClass& qc = classes_[c];
    if (!qc.live) continue;
    ClassInfo info;
    info.id = c;
    info.name = qc.sc->label();
    info.eo = qc.sc->shard_eo(0);
    info.streams = qc.streams;
    info.shards = qc.sc->num_shards();
    for (const auto& [gid, qi] : queries_) {
      if (qi.query_class == c) ++info.num_queries;
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace tcq
