#include "exec/sharded_class.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "cacq/spec_codec.h"
#include "eddy/routing_policy.h"

namespace tcq {

namespace {

/// One-shot synchronization for blocking admission (per shard replica).
struct AdmissionGate {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<QueryId>> result;

  void Set(Result<QueryId> r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
    }
    cv.notify_all();
  }
  Result<QueryId> Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return result.has_value(); });
    return *result;
  }
};

/// Partition key of a tuple: int64 values hash directly (equal keys across
/// streams must bucket identically for co-partitioning), everything else
/// through the Value hash.
int64_t KeyOf(const Tuple& t, size_t field) {
  const Value& v = t.at(field);
  return v.type() == ValueType::kInt64 ? v.AsInt64()
                                       : static_cast<int64_t>(v.Hash());
}

}  // namespace

ShardedClass::ShardedClass(std::string label, Options opts,
                           std::vector<ExecutionObject*> eos,
                           MetricsRegistryRef metrics, obs::TracerRef tracer)
    : label_(std::move(label)),
      opts_(opts),
      eos_(std::move(eos)),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::move(tracer)),
      parts_(opts.buckets == 0 ? 1 : opts.buckets, 1) {
  if (opts_.shards == 0) opts_.shards = 1;
  if (opts_.buckets == 0) opts_.buckets = 1;
  bucket_counts_ =
      std::make_unique<std::atomic<uint64_t>[]>(opts_.buckets);
  for (size_t b = 0; b < opts_.buckets; ++b) {
    bucket_counts_[b].store(0, std::memory_order_relaxed);
  }
  repartitions_ = metrics_->GetCounter(
      MetricName("tcq_shard_repartitions_total", "class", label_));
  pause_us_ = metrics_->GetHistogram(
      MetricName("tcq_shard_repartition_pause_us", "class", label_));
  shard_count_gauge_ =
      metrics_->GetGauge(MetricName("tcq_shard_count", "class", label_));
  // Classes always START at one shard; AdmitQuery expands to opts_.shards
  // once the first query's join edges prove the class co-partitionable.
  merged_wm_.Reset(1);
  shards_.push_back(MakeShard(0, 0));
  shard_count_gauge_->Set(1);
}

ShardedClass::Shard ShardedClass::MakeShard(size_t k, size_t eo) {
  // Shard 0 keeps the bare class label so the default single-shard path is
  // instrument- and name-identical to an unsharded class.
  std::string name = k == 0 ? label_ : label_ + "/s" + std::to_string(k);
  auto eddy = std::make_unique<SharedEddy>(MakeLotteryPolicy(opts_.seed + k),
                                           metrics_, name);
  auto du = std::make_shared<SharedCQDispatchUnit>(
      name, std::move(eddy), SharedCQDispatchUnit::Options{opts_.quantum});
  du->set_tracer(tracer_);
  du->set_shard(static_cast<uint32_t>(k));
  du->set_control_sink(
      [this, k](const Punctuation& p) { OnShardPunctuation(k, p); });
  Shard sh;
  sh.du = std::move(du);
  sh.eo = eos_.empty() ? 0 : eo % eos_.size();
  sh.ingest = metrics_->GetCounter(
      MetricName("tcq_shard_ingest_total", "shard", name));
  sh.occupancy =
      metrics_->GetGauge(MetricName("tcq_shard_occupancy", "shard", name));
  // Registry instruments persist across repartitions (same name -> same
  // counter), so the skew snapshot must start from the current value.
  sh.last_ingest = sh.ingest->Value();
  return sh;
}

std::string ShardedClass::FjordName(SourceId source, size_t shard,
                                    size_t total) const {
  // Single-shard classes keep the historical name so queue instruments and
  // tests see an unchanged default path.
  if (total == 1) return "exec:s" + std::to_string(source);
  return "exec:" + label_ + "/s" + std::to_string(source) + "/r" +
         std::to_string(shard);
}

void ShardedClass::ClaimStream(SourceId source, SchemaRef schema,
                               StemOptions stem_opts) {
  std::unique_lock<std::shared_mutex> lock(route_mu_);
  Route r;
  r.schema = schema;
  r.stem_opts = stem_opts;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto ep = Fjord::Make(FjordMode::kPush, opts_.queue_capacity,
                          FjordName(source, k, shards_.size()),
                          metrics_.get());
    r.producers.push_back(std::make_shared<FjordProducer>(ep.producer));
    r.fjords.push_back(ep.fjord);
    shards_[k].du->SubmitTask([source, schema, stem_opts](SharedEddy* eddy) {
      eddy->RegisterStream(source, schema, stem_opts);
    });
    shards_[k].du->AddInput(source, ep.consumer);
  }
  routes_.emplace(source, std::move(r));
}

bool ShardedClass::CloseStream(SourceId source) {
  std::unique_lock<std::shared_mutex> lock(route_mu_);
  auto it = routes_.find(source);
  if (it == routes_.end()) return false;
  it->second.closed = true;
  for (auto& p : it->second.producers) p->Close();
  for (const Shard& sh : shards_) sh.du->RingHost();
  return true;
}

std::optional<std::map<SourceId, std::string>> ShardedClass::DeriveKeys(
    const CQSpec* extra) const {
  std::map<SourceId, std::string> keys;
  auto fold = [&keys](const CQSpec& spec) {
    for (const JoinEdge& e : spec.joins) {
      for (const AttrRef* a : {&e.left, &e.right}) {
        auto [it, inserted] = keys.emplace(a->source, a->name);
        // One stream needing two different partition keys (chained joins on
        // distinct attrs, self-joins on distinct attrs) is unshardable.
        if (!inserted && it->second != a->name) return false;
      }
    }
    return true;
  };
  for (const auto& [id, spec] : specs_) {
    if (!fold(spec)) return std::nullopt;
  }
  if (extra != nullptr && !fold(*extra)) return std::nullopt;
  return keys;
}

Result<QueryId> ShardedClass::AdmitQuery(const CQSpec& spec,
                                         SinkBinding binding, bool started,
                                         const RemapFn& remap) {
  // Desired layout including the new query's join edges. A key conflict
  // collapses the class to one shard — correctness beats parallelism.
  auto keys = DeriveKeys(&spec);
  size_t desired = keys.has_value() ? opts_.shards : 1;
  bool reshape = desired != shards_.size();
  if (!reshape && desired > 1) {
    std::shared_lock<std::shared_mutex> lock(route_mu_);
    for (const auto& [source, r] : routes_) {
      std::string want;
      if (auto it = keys->find(source); it != keys->end()) want = it->second;
      if (r.key_attr != want) {
        reshape = true;
        break;
      }
    }
  }
  bool deferred = false;
  if (reshape) {
    // Leave the rebuilt DUs detached: the admission tasks below must enter
    // the plan queues BEFORE any EO pumps the carried-over tuples (Step
    // drains the plan queue first), so the new query sees all of them.
    Repartition(desired, keys.value_or(std::map<SourceId, std::string>{}),
                {}, remap, /*attach_after=*/false);
    deferred = true;
  }

  // Per-query merge stage: shards deliver concurrently from their own EO
  // threads; the mutex serializes any ONE query's result batches,
  // preserving the executor's sink contract.
  auto merge_mu = std::make_shared<std::mutex>();
  binding.sink = [merge_mu, sink = std::move(binding.sink)](uint64_t g,
                                                            ResultRows rows) {
    std::lock_guard<std::mutex> lock(*merge_mu);
    sink(g, rows);
  };

  // Broadcast admission. Tasks are enqueued in the same order on every
  // shard's FIFO plan queue and every replica has seen the identical task
  // sequence since birth, so the local ids they assign are identical.
  std::vector<std::shared_ptr<AdmissionGate>> gates;
  gates.reserve(shards_.size());
  for (Shard& sh : shards_) {
    auto gate = std::make_shared<AdmissionGate>();
    gates.push_back(gate);
    sh.du->SubmitTask([du = sh.du.get(), binding, spec,
                       gate](SharedEddy* eddy) mutable {
      Result<QueryId> r = eddy->AddQuery(std::move(spec));
      if (r.ok()) du->BindSink(*r, std::move(binding));
      gate->Set(std::move(r));
    });
  }
  if (deferred) AttachShards();
  // Pre-start admission: no EO pumps yet, so run one quantum inline.
  if (!started) {
    for (Shard& sh : shards_) (void)sh.du->Step();
  }
  Result<QueryId> first = gates[0]->Wait();
  for (size_t k = 1; k < gates.size(); ++k) {
    Result<QueryId> r = gates[k]->Wait();
    assert(r.ok() == first.ok() && (!r.ok() || *r == *first) &&
           "shard replicas diverged on admission");
    (void)r;
  }
  if (first.ok()) {
    specs_[*first] = spec;
    std::lock_guard<std::mutex> lock(punct_mu_);
    punct_sinks_[*first] = std::move(binding);
  }
  return first;
}

void ShardedClass::RemoveQuery(QueryId local) {
  specs_.erase(local);
  {
    std::lock_guard<std::mutex> lock(punct_mu_);
    punct_sinks_.erase(local);
  }
  for (Shard& sh : shards_) {
    sh.du->SubmitTask([local, du = sh.du.get()](SharedEddy* eddy) {
      (void)eddy->RemoveQuery(local);
      du->UnbindSink(local);
    });
  }
}

void ShardedClass::RepartitionTo(size_t shards, const RemapFn& remap) {
  if (shards == 0) shards = 1;
  if (shards == shards_.size()) return;
  auto keys = DeriveKeys(nullptr);
  if (!keys.has_value()) shards = 1;
  if (shards == shards_.size()) return;
  Repartition(shards, keys.value_or(std::map<SourceId, std::string>{}), {},
              remap, /*attach_after=*/true);
}

bool ShardedClass::MaybeRepartitionForSkew(const RemapFn& remap) {
  if (shards_.size() < 2) return false;
  bool keyed = false;
  {
    std::shared_lock<std::shared_mutex> lock(route_mu_);
    for (const auto& [source, r] : routes_) {
      if (!r.key_attr.empty() && !r.closed) keyed = true;
    }
  }
  if (!keyed) return false;  // round-robin routes are balanced by design
  uint64_t mx = 0;
  uint64_t mn = UINT64_MAX;
  uint64_t total = 0;
  for (Shard& sh : shards_) {
    uint64_t now = sh.ingest->Value();
    uint64_t d = now - sh.last_ingest;
    mx = std::max(mx, d);
    mn = std::min(mn, d);
    total += d;
  }
  // Below the volume gate the deltas keep accumulating; a check that sees
  // enough volume and no skew starts the next window, so a late burst is
  // judged on its own rather than diluted by balanced history.
  if (total < opts_.min_skew_volume) return false;
  if (static_cast<double>(mx) <=
      opts_.skew_threshold * static_cast<double>(std::max<uint64_t>(mn, 1))) {
    for (Shard& sh : shards_) sh.last_ingest = sh.ingest->Value();
    return false;
  }
  // LPT greedy: heaviest buckets first, each to the currently least-loaded
  // shard. Deterministic (stable sort, lowest-index tie-break).
  std::vector<std::pair<uint64_t, size_t>> weights;
  weights.reserve(opts_.buckets);
  for (size_t b = 0; b < opts_.buckets; ++b) {
    weights.emplace_back(bucket_counts_[b].load(std::memory_order_relaxed),
                         b);
  }
  std::stable_sort(weights.begin(), weights.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<uint64_t> load(shards_.size(), 0);
  std::vector<size_t> owner(opts_.buckets, 0);
  for (const auto& [w, b] : weights) {
    size_t k = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner[b] = k;
    load[k] += w;
  }
  auto keys = DeriveKeys(nullptr);
  if (!keys.has_value()) return false;  // raced into unshardable: bail out
  Repartition(shards_.size(), *keys, std::move(owner), remap,
              /*attach_after=*/true);
  return true;
}

void ShardedClass::AttachShards() {
  for (Shard& sh : shards_) {
    eos_[sh.eo % eos_.size()]->AddDispatchUnit(sh.du);
  }
}

void ShardedClass::Repartition(size_t new_count,
                               std::map<SourceId, std::string> new_keys,
                               std::vector<size_t> owner, const RemapFn& remap,
                               bool attach_after) {
  int64_t t0 = NowMicros();
  std::unique_lock<std::shared_mutex> lock(route_mu_);

  // 1. Pause: quiesce every shard at a quantum boundary. After this no EO
  //    thread steps them and the replicas are drained to quiescence.
  for (Shard& sh : shards_) {
    eos_[sh.eo % eos_.size()]->RemoveDispatchUnit(sh.du);
    sh.du->Quiesce();
  }

  // 2. Drain queued-but-unprocessed tuples into a per-source carryover
  //    (old-shard-major; per-shard per-source order preserved). They are
  //    NOT processed here — a query admitted right after the re-partition
  //    must still see them (the merge-survival guarantee).
  std::map<SourceId, TupleBatch> carry;
  for (Shard& sh : shards_) {
    for (auto& [source, consumer] : sh.du->DetachInputs()) {
      TupleBatch& b = carry[source];
      b.set_source(source);
      QueueOp op;
      while (consumer.ConsumeBatch(&b, SIZE_MAX / 2, &op) > 0) {
      }
    }
  }

  // 3. Export every replica's state. Shard 0's sink table is the class's
  //    (all replicas bind the same wrapped sinks).
  std::vector<SharedEddy::ExportedState> exports;
  exports.reserve(shards_.size());
  for (Shard& sh : shards_) {
    exports.push_back(sh.du->eddy()->ExportState());
  }
  auto sinks = shards_[0].du->TakeSinks();
  // The 1 -> N expansion at a class's first admission has no member query
  // and moves no state: it is not a re-partition.
  const bool had_members = !specs_.empty();
  Timestamp horizon = 1;
  for (const auto& st : exports) horizon = std::max(horizon, st.next_seq);

  // 4. Fresh bucket map. Bucket counts restart so the next skew decision
  //    reflects the new layout.
  parts_ = Partitioner(opts_.buckets, new_count);
  for (size_t b = 0; b < owner.size() && b < opts_.buckets; ++b) {
    parts_.Reassign(b, owner[b] % new_count);
  }
  for (size_t b = 0; b < opts_.buckets; ++b) {
    bucket_counts_[b].store(0, std::memory_order_relaxed);
  }

  // 5. Fresh replicas (EO placement inherited where possible). Event-time
  //    merge state restarts at kMinTimestamp: sources re-earn their merged
  //    watermarks from the next punctuation broadcast, which can only DELAY
  //    downstream window firing (never un-fire one) — conservative and safe.
  std::vector<Shard> old_shards = std::move(shards_);
  shards_.clear();
  {
    std::lock_guard<std::mutex> plock(punct_mu_);
    merged_wm_.Reset(new_count);
  }
  for (size_t k = 0; k < new_count; ++k) {
    size_t eo = k < old_shards.size() ? old_shards[k].eo : k;
    shards_.push_back(MakeShard(k, eo));
  }

  // 6. Rebuild routes: fresh fjords sized to always fit the carryover (the
  //    re-injection below must not block — no consumer pumps yet), streams
  //    registered and inputs attached on every replica directly (we own
  //    them exclusively until re-attachment).
  for (auto& [source, r] : routes_) {
    r.key_attr.clear();
    r.key_field = 0;
    if (new_count > 1) {
      if (auto it = new_keys.find(source); it != new_keys.end()) {
        if (auto idx = r.schema->IndexOf(it->second, source); idx) {
          r.key_attr = it->second;
          r.key_field = *idx;
        }
      }
    }
    size_t extra = 0;
    if (auto it = carry.find(source); it != carry.end()) {
      // Rows plus carried control-lane entries (punctuations re-inject as
      // individual control tuples behind the rows).
      extra = it->second.size() + it->second.punctuations().size();
    }
    r.producers.clear();
    r.fjords.clear();
    for (size_t k = 0; k < new_count; ++k) {
      auto ep = Fjord::Make(FjordMode::kPush, opts_.queue_capacity + extra,
                            FjordName(source, k, new_count), metrics_.get());
      r.producers.push_back(std::make_shared<FjordProducer>(ep.producer));
      r.fjords.push_back(ep.fjord);
      shards_[k].du->eddy()->RegisterStream(source, r.schema, r.stem_opts);
      shards_[k].du->AddInput(source, ep.consumer);
    }
  }

  // 7. Re-admit queries in shard-0 export order. Fresh registries assign
  //    ids in admission order, so all replicas agree; old ids are always
  //    >= new ids, so the remap map is aliasing-free when applied in order.
  RemapMap remap_map;
  specs_.clear();
  std::map<QueryId, SinkBinding> new_punct_sinks;
  for (const auto& q : exports[0].queries) {
    QueryId nid = 0;
    bool ok = true;
    for (size_t k = 0; k < shards_.size(); ++k) {
      Result<QueryId> r = shards_[k].du->eddy()->AddQuery(q.spec);
      if (!r.ok()) {
        assert(false && "re-admission of a previously valid query failed");
        ok = false;
        break;
      }
      if (k == 0) {
        nid = *r;
      } else {
        assert(*r == nid && "shard replicas diverged on re-admission");
      }
    }
    if (!ok) continue;
    remap_map[q.local_id] = nid;
    specs_[nid] = q.spec;
    if (auto sit = sinks.find(q.local_id); sit != sinks.end()) {
      for (Shard& sh : shards_) sh.du->BindSink(nid, sit->second);
      new_punct_sinks[nid] = std::move(sit->second);
    }
  }
  {
    std::lock_guard<std::mutex> plock(punct_mu_);
    punct_sinks_ = std::move(new_punct_sinks);
  }

  // 8. Redistribute stored SteM state by the NEW bucket map, preserving
  //    original seqs, then jump every replica's horizon past all the
  //    exporters'. Future tuples (seq > horizon) probe replayed entries
  //    exactly like locally built state; replayed entries never probe each
  //    other, mirroring single-eddy semantics (probing happens at ingest).
  for (const auto& st : exports) {
    for (const auto& es : st.streams) {
      if (es.stem == nullptr) continue;
      auto rit = routes_.find(es.source);
      if (rit == routes_.end()) continue;
      const Route& r = rit->second;
      es.stem->ForEachEntry([&](const Tuple& t, Timestamp seq) {
        size_t k = 0;
        if (!r.key_attr.empty() && shards_.size() > 1) {
          k = parts_.OwnerOf(parts_.BucketOf(KeyOf(t, r.key_field)));
        }
        shards_[k].du->eddy()->BuildHistorical(es.source, t, seq);
      });
    }
  }
  for (Shard& sh : shards_) sh.du->eddy()->AdvanceSeqHorizon(horizon);

  // 9. Re-inject the carryover unprocessed through the new routes, then
  //    re-close the producers of closed streams (their queued tuples stay
  //    consumable, matching BoundedQueue close semantics).
  for (auto& [source, batch] : carry) {
    if (batch.empty() && batch.punctuations().empty()) continue;
    auto rit = routes_.find(source);
    if (rit == routes_.end()) continue;
    (void)RouteBatchLocked(&rit->second, &batch);
    assert(batch.empty() && "carryover overflowed the resized fjords");
  }
  for (auto& [source, r] : routes_) {
    if (!r.closed) continue;
    for (auto& p : r.producers) p->Close();
  }

  shard_count_gauge_->Set(static_cast<int64_t>(shards_.size()));
  if (had_members) repartitions_->Inc();
  int64_t paused = NowMicros() - t0;
  pause_us_->Observe(paused > 0 ? static_cast<uint64_t>(paused) : 0);
  lock.unlock();

  if (remap) remap(remap_map);
  if (attach_after) AttachShards();
}

ShardedClass::RemapMap ShardedClass::AbsorbSingleShard(ShardedClass* src) {
  assert(shards_.size() == 1 && src->shards_.size() == 1 &&
         "absorb requires both classes collapsed to one shard");
  Shard& d0 = shards_[0];
  Shard& s0 = src->shards_[0];
  // Quiesce both single-shard DUs at a quantum boundary.
  eos_[d0.eo % eos_.size()]->RemoveDispatchUnit(d0.du);
  src->eos_[s0.eo % src->eos_.size()]->RemoveDispatchUnit(s0.du);
  d0.du->Quiesce();
  s0.du->Quiesce();

  // Streams are disjoint across classes, so the ImportState path applies
  // unchanged: SteM entries transfer by reference, queries re-admit with
  // lineage bits remapped into the survivor's QuerySet.
  SharedEddy::ExportedState st = s0.du->eddy()->ExportState();
  auto sinks = s0.du->TakeSinks();
  RemapMap remap;
  d0.du->eddy()->ImportState(
      std::move(st),
      [&remap](QueryId old_id, QueryId new_id) { remap[old_id] = new_id; });
  for (auto& [old_local, binding] : sinks) {
    auto it = remap.find(old_local);
    if (it == remap.end()) continue;  // query was already removed
    {
      std::lock_guard<std::mutex> plock(punct_mu_);
      punct_sinks_[it->second] = binding;
    }
    d0.du->BindSink(it->second, std::move(binding));
  }
  // The Flux marker point: producers are NEVER repointed. Consumers move
  // with their queued tuples, and src's routes (producer endpoints and all)
  // are adopted as-is, so an in-flight RouteBatch on src lands in the very
  // fjords whose consumers this class now pumps.
  for (auto& [source, consumer] : s0.du->DetachInputs()) {
    d0.du->AddInput(source, std::move(consumer));
  }
  {
    std::scoped_lock both(route_mu_, src->route_mu_);
    for (auto& [source, r] : src->routes_) {
      routes_.emplace(source, std::move(r));
    }
    src->routes_.clear();
    src->retired_ = true;  // late RouteBatch callers re-resolve the owner
  }
  for (auto& [old_local, spec] : src->specs_) {
    auto it = remap.find(old_local);
    if (it != remap.end()) specs_[it->second] = std::move(spec);
  }
  src->specs_.clear();
  src->shards_.clear();  // drops src's DU, eddy, and consumed endpoints

  eos_[d0.eo % eos_.size()]->AddDispatchUnit(d0.du);
  return remap;
}

void ShardedClass::Shutdown() {
  for (Shard& sh : shards_) {
    eos_[sh.eo % eos_.size()]->RemoveDispatchUnit(sh.du);
    sh.du->Quiesce();
  }
  std::unique_lock<std::shared_mutex> lock(route_mu_);
  for (auto& [source, r] : routes_) {
    r.closed = true;
    for (auto& p : r.producers) p->Close();
  }
  // Dropping the replicas drops their eddies, SteMs, and fjord consumers;
  // anything still queued had no query left to care about it.
  shards_.clear();
}

ShardedClass::RouteResult ShardedClass::RouteBatch(TupleBatch* batch) {
  if (batch->empty() && batch->punctuations().empty()) {
    return RouteResult::kOk;
  }
  std::shared_lock<std::shared_mutex> lock(route_mu_);
  if (retired_) return RouteResult::kRetired;
  auto it = routes_.find(batch->source());
  if (it == routes_.end()) return RouteResult::kRetired;
  if (it->second.closed) return RouteResult::kClosed;
  return RouteBatchLocked(&it->second, batch);
}

void ShardedClass::WaitForRoom(
    SourceId source, std::chrono::steady_clock::time_point deadline) {
  // Wait outside route_mu_, holding the fjords by reference, so a
  // concurrent re-partition or GC is not blocked behind a stalled consumer
  // (it drains or closes the old fjords, which wakes the wait).
  std::vector<std::shared_ptr<Fjord>> full;
  {
    std::shared_lock<std::shared_mutex> lock(route_mu_);
    auto it = routes_.find(source);
    if (it == routes_.end()) return;
    for (const auto& f : it->second.fjords) {
      if (f->queue().size() >= f->queue().capacity()) full.push_back(f);
    }
  }
  for (const auto& f : full) {
    if (!f->queue().WaitForRoom(deadline)) return;
  }
}

ShardedClass::RouteResult ShardedClass::RouteBatchLocked(Route* r,
                                                         TupleBatch* batch) {
  size_t n = shards_.size();
  if (n == 1) {
    size_t before = batch->size();
    size_t puncts_before = batch->punctuations().size();
    QueueOp op = r->producers[0]->ProduceBatch(batch);
    size_t pushed = before - batch->size();
    if (pushed > 0) shards_[0].ingest->Inc(pushed);
    if (pushed > 0 || batch->punctuations().size() < puncts_before) {
      shards_[0].du->RingHost();
    }
    UpdateOccupancy();
    if (op == QueueOp::kClosed) return RouteResult::kClosed;
    return batch->empty() && batch->punctuations().empty()
               ? RouteResult::kOk
               : RouteResult::kWouldBlock;
  }

  // Split per tuple. Keyed routes hash the partition key through the Flux
  // bucket map (counting per-bucket traffic for later LPT re-partitions);
  // keyless routes round-robin (stateless single-source queries only).
  static thread_local std::vector<TupleBatch> scratch;
  if (scratch.size() < n) scratch.resize(n);
  for (size_t k = 0; k < n; ++k) {
    scratch[k].clear();
    scratch[k].set_source(batch->source());
  }
  const bool keyed = !r->key_attr.empty();
  Tuple* data = batch->data();
  for (size_t i = 0; i < batch->size(); ++i) {
    size_t k;
    if (keyed) {
      size_t b = parts_.BucketOf(KeyOf(data[i], r->key_field));
      bucket_counts_[b].fetch_add(1, std::memory_order_relaxed);
      k = parts_.OwnerOf(b);
    } else {
      k = rr_next_.fetch_add(1, std::memory_order_relaxed) % n;
    }
    scratch[k].push_back(std::move(data[i]));
  }
  // Control broadcast: data rows PARTITION, punctuations go to EVERY shard
  // (each replica needs the watermark; the merge below min-combines their
  // reports, so a shard missing the broadcast would pin the class watermark
  // at kMinTimestamp forever). Duplicate deliveries are idempotent —
  // watermarks are monotone maxes.
  for (const Punctuation& p : batch->punctuations()) {
    for (size_t k = 0; k < n; ++k) scratch[k].AddPunctuation(p);
  }
  batch->clear();

  bool closed = false;
  static thread_local RingSet rings;
  std::map<SourceId, Timestamp> left_puncts;
  for (size_t k = 0; k < n; ++k) {
    if (scratch[k].empty() && scratch[k].punctuations().empty()) continue;
    size_t before = scratch[k].size();
    size_t puncts_before = scratch[k].punctuations().size();
    QueueOp op = r->producers[k]->ProduceBatch(&scratch[k]);
    size_t pushed = before - scratch[k].size();
    if (pushed > 0) shards_[k].ingest->Inc(pushed);
    if (pushed > 0 || scratch[k].punctuations().size() < puncts_before) {
      rings.Add(shards_[k].du->host_signal());
    }
    if (op == QueueOp::kClosed) closed = true;
    // Leftovers recombine in shard order: per-shard relative order is
    // preserved, which is the guarantee shards rely on (cross-shard
    // interleaving carries no meaning — shards are independent pipelines).
    for (Tuple& t : scratch[k]) batch->push_back(std::move(t));
    // Undelivered lane entries fold back per source (max per source: the
    // retry re-broadcasts to every shard, where stale ones are idempotent).
    for (const Punctuation& p : scratch[k].punctuations()) {
      auto [it, inserted] = left_puncts.try_emplace(p.source, p.low_watermark);
      if (!inserted) it->second = std::max(it->second, p.low_watermark);
    }
    scratch[k].clear();
  }
  for (const auto& [source, wm] : left_puncts) {
    batch->AddPunctuation(Punctuation{source, wm});
  }
  // Wake the EOs hosting the shards fed, each once (shards may share one).
  rings.RingAll();
  UpdateOccupancy();
  if (batch->empty() && batch->punctuations().empty()) {
    return RouteResult::kOk;
  }
  return closed ? RouteResult::kClosed : RouteResult::kWouldBlock;
}

void ShardedClass::OnShardPunctuation(size_t shard, const Punctuation& p) {
  // EO-thread context (during a shard eddy's IngestBatch). Deliveries stay
  // under punct_mu_ so every sink observes a monotone punctuation sequence;
  // the per-query merge mutex nests inside (punct_mu_ -> merge_mu, the same
  // order everywhere).
  std::lock_guard<std::mutex> lock(punct_mu_);
  std::optional<Timestamp> merged = merged_wm_.Observe(shard, p);
  if (!merged.has_value()) return;
  Tuple punct = Tuple::MakePunctuation(p.source, *merged);
  for (auto& [local, binding] : punct_sinks_) {
    binding.sink(binding.global_id, ResultRows(&punct, 1));
  }
}

Timestamp ShardedClass::merged_watermark(SourceId source) {
  std::lock_guard<std::mutex> lock(punct_mu_);
  return merged_wm_.MergedOf(source);
}

void ShardedClass::UpdateOccupancy() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    int64_t depth = 0;
    for (const auto& [source, r] : routes_) {
      if (k < r.fjords.size()) {
        depth += static_cast<int64_t>(r.fjords[k]->queue().size());
      }
    }
    shards_[k].occupancy->Set(depth);
  }
}

uint64_t ShardedClass::TakeProgressDelta(size_t shard) {
  Shard& sh = shards_[shard];
  uint64_t now = sh.du->progress_steps();
  uint64_t delta = now - sh.last_progress;
  sh.last_progress = now;
  return delta;
}

Status ShardedClass::CheckpointTo(CheckpointWriter* w) {
  // Drain first: tuples sitting in shard fjords are BELOW the spool's
  // recorded replay position, so a snapshot taken while they are queued
  // would lose them (replay starts after them). Ingest is blocked by the
  // caller, EO threads keep pumping, so the queues empty — unless a
  // member query's egress is back-pressured with a kBlock policy, which
  // the bounded wait surfaces as a typed error instead of a hang.
  constexpr int64_t kDrainTimeoutUs = 10'000'000;
  int64_t deadline = NowMicros() + kDrainTimeoutUs;
  for (;;) {
    size_t queued = 0;
    {
      std::shared_lock<std::shared_mutex> lock(route_mu_);
      for (const auto& [source, r] : routes_) {
        for (const auto& f : r.fjords) queued += f->queue().size();
      }
    }
    if (queued == 0) break;
    if (NowMicros() > deadline) {
      return Status::TimedOut("checkpoint drain stalled on class " + label_ +
                              " (" + std::to_string(queued) +
                              " tuples queued; egress back-pressure?)");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::unique_lock<std::shared_mutex> lock(route_mu_);
  // Pause: quiesce every shard at a quantum boundary. With ingest blocked
  // and the fjords empty, the replicas are fully quiescent afterwards.
  for (Shard& sh : shards_) {
    eos_[sh.eo % eos_.size()]->RemoveDispatchUnit(sh.du);
    sh.du->Quiesce();
  }

  w->BeginSection("class", 1);
  // Member queries in admission order (local ids are dense-FIFO, so key
  // order IS admission order) with their executor-global ids. The restorer
  // re-drives these through normal admission, which reproduces the class
  // deterministically.
  w->PutU32(static_cast<uint32_t>(specs_.size()));
  for (const auto& [local, spec] : specs_) {
    uint64_t gid = 0;
    {
      std::lock_guard<std::mutex> plock(punct_mu_);
      if (auto it = punct_sinks_.find(local); it != punct_sinks_.end()) {
        gid = it->second.global_id;
      }
    }
    w->PutU64(gid);
    PutCQSpec(w, spec);
  }
  // The Flux partition map (bucket -> shard).
  w->PutU32(static_cast<uint32_t>(parts_.num_buckets()));
  for (size_t b = 0; b < parts_.num_buckets(); ++b) {
    w->PutU32(static_cast<uint32_t>(parts_.OwnerOf(b)));
  }
  // Every route's SteM entries, flat across shards with ORIGINAL seqs.
  // Mixing the per-shard seq spaces is the same move Repartition makes:
  // replayed entries never probe each other, and the horizon jump keeps
  // them visible to all future tuples.
  Timestamp horizon = 1;
  for (Shard& sh : shards_) {
    horizon = std::max(horizon, sh.du->eddy()->seq_horizon());
  }
  w->PutU32(static_cast<uint32_t>(routes_.size()));
  for (const auto& [source, r] : routes_) {
    w->PutU32(source);
    uint64_t entries = 0;
    for (Shard& sh : shards_) {
      if (SteM* stem = sh.du->eddy()->GetSteM(source)) entries += stem->size();
    }
    w->PutU64(entries);
    for (Shard& sh : shards_) {
      SteM* stem = sh.du->eddy()->GetSteM(source);
      if (stem == nullptr) continue;
      stem->ForEachEntry([&](const Tuple& t, Timestamp seq) {
        w->PutTuple(t);
        w->PutI64(seq);
      });
    }
  }
  w->PutTimestamp(horizon);
  w->EndSection();

  lock.unlock();
  // Resume: re-attach the shard DUs to their EOs.
  AttachShards();
  return Status::OK();
}

void ShardedClass::ApplyBucketOwners(const std::vector<uint32_t>& owner) {
  std::unique_lock<std::shared_mutex> lock(route_mu_);
  size_t shards = shards_.size();
  for (size_t b = 0; b < owner.size() && b < parts_.num_buckets(); ++b) {
    parts_.Reassign(b, owner[b] % shards);
  }
}

bool ShardedClass::ReplayStemEntry(SourceId source, const Tuple& tuple,
                                   Timestamp seq) {
  std::unique_lock<std::shared_mutex> lock(route_mu_);
  auto rit = routes_.find(source);
  if (rit == routes_.end()) return false;
  const Route& r = rit->second;
  size_t k = 0;
  if (!r.key_attr.empty() && shards_.size() > 1) {
    k = parts_.OwnerOf(parts_.BucketOf(KeyOf(tuple, r.key_field)));
  }
  shards_[k].du->eddy()->BuildHistorical(source, tuple, seq);
  return true;
}

void ShardedClass::AdvanceSeqHorizons(Timestamp horizon) {
  std::unique_lock<std::shared_mutex> lock(route_mu_);
  for (Shard& sh : shards_) sh.du->eddy()->AdvanceSeqHorizon(horizon);
}

}  // namespace tcq
