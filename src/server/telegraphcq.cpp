#include "server/telegraphcq.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

namespace tcq {

// --- WindowResultBuffer -------------------------------------------------------

void WindowResultBuffer::Push(WindowResult result) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (result.kind) {
    case WindowResultKind::kFinal:
      // Only sealed windows count as fired; speculative revisions of the
      // same window would otherwise inflate the count arbitrarily.
      ++fired_;
      if (fired_counter_ != nullptr) fired_counter_->Inc();
      [[fallthrough]];
    case WindowResultKind::kSpeculative:
      tuples_ += result.tuples.size();
      if (tuples_counter_ != nullptr) {
        tuples_counter_->Inc(result.tuples.size());
      }
      break;
    case WindowResultKind::kRetraction:
      retractions_ += result.tuples.size();
      if (retractions_counter_ != nullptr) {
        retractions_counter_->Inc(result.tuples.size());
      }
      break;
  }
  results_.push_back(std::move(result));
}

void WindowResultBuffer::AttachMetrics(Counter* windows_fired,
                                       Counter* tuples,
                                       Counter* retractions) {
  std::lock_guard<std::mutex> lock(mu_);
  fired_counter_ = windows_fired;
  tuples_counter_ = tuples;
  retractions_counter_ = retractions;
}

uint64_t WindowResultBuffer::windows_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

uint64_t WindowResultBuffer::tuples_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tuples_;
}

uint64_t WindowResultBuffer::retractions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retractions_;
}

bool WindowResultBuffer::Poll(WindowResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (results_.empty()) return false;
  *out = std::move(results_.front());
  results_.pop_front();
  return true;
}

bool WindowResultBuffer::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_ && results_.empty();
}

void WindowResultBuffer::MarkFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
}

size_t WindowResultBuffer::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

// --- TelegraphCQ ---------------------------------------------------------------

namespace {

/// The delivery sink of a continuous query: offers each result batch, already
/// projected by the executor, to the client's egress in one call.
Executor::Sink EgressSink(std::shared_ptr<PushEgress> egress) {
  return [egress = std::move(egress)](GlobalQueryId id, ResultRows rows) {
    egress->OfferBatch(id, rows);
  };
}

}  // namespace

TelegraphCQ::TelegraphCQ(Options opts, MetricsRegistryRef metrics)
    : opts_(opts),
      metrics_(OrPrivateRegistry(std::move(metrics))),
      tracer_(std::make_shared<obs::Tracer>(opts.trace, metrics_)),
      executor_(opts.executor, metrics_, tracer_),
      wrapper_(opts.wrapper, metrics_, tracer_),
      spool_pool_(BufferPool::Options{opts.spool_buffer_pages,
                                      ReplacementPolicy::kLru}) {
  ingested_ = metrics_->GetCounter("tcq_server_tuples_ingested_total");
  ckpt_epochs_ = metrics_->GetCounter("tcq_checkpoint_epochs_total");
  ckpt_bytes_ = metrics_->GetCounter("tcq_checkpoint_bytes");
  ckpt_failures_ = metrics_->GetCounter("tcq_checkpoint_failures_total");
  ckpt_duration_us_ = metrics_->GetGauge("tcq_checkpoint_duration_us");
  restore_replayed_ = metrics_->GetCounter("tcq_restore_replay_tuples");
  restore_duration_us_ = metrics_->GetGauge("tcq_restore_duration_us");
  if (opts_.system_streams.enabled) {
    // The reserved streams exist from construction on, so clients can submit
    // queries over them before Start(). Registration cannot fail here: the
    // catalog is empty and the names are unreachable through the public API.
    (void)DefineStreamInternal(obs::SystemStreamSource::kMetricsStream,
                               obs::SystemStreamSource::MetricsSchema());
    (void)DefineStreamInternal(obs::SystemStreamSource::kQueuesStream,
                               obs::SystemStreamSource::QueuesSchema());
    (void)DefineStreamInternal(obs::SystemStreamSource::kLatencyStream,
                               obs::SystemStreamSource::LatencySchema());
    system_streams_ = std::make_unique<obs::SystemStreamSource>(
        opts_.system_streams, metrics_, tracer_,
        [this](const std::string& stream,
               std::vector<obs::SystemStreamSource::Row> rows,
               Timestamp tick) {
          // Columnar-native publishing via the builder API; rows the
          // publisher races against shutdown are dropped by the typed
          // Status (never silently mid-batch).
          Result<BatchBuilder> batch = NewBatch(stream);
          if (!batch.ok()) return;
          for (auto& row : rows) {
            (void)batch->Append(tick, std::move(row.values));
          }
          (void)PushBuilt(std::move(*batch));
        });
  }
}

TelegraphCQ::~TelegraphCQ() { Stop(); }

Result<SourceId> TelegraphCQ::DefineStream(const std::string& name,
                                           const std::vector<Field>& fields) {
  return DefineStream(name, fields, StreamOptions());
}

Result<SourceId> TelegraphCQ::DefineStream(const std::string& name,
                                           const std::vector<Field>& fields,
                                           StreamOptions stream_opts) {
  if (name.rfind("tcq$", 0) == 0) {
    return Status::InvalidArgument(
        "stream names starting with 'tcq$' are reserved for introspection "
        "streams");
  }
  TCQ_ASSIGN_OR_RETURN(SourceId source, DefineStreamInternal(name, fields));
  if (stream_opts.punctuate) {
    std::lock_guard<std::mutex> lock(mu_);
    PhysicalStream& stream = streams_[name];
    stream.event_time = stream_opts;
    stream.late = metrics_->GetCounter(
        MetricName("tcq_wrapper_late_tuples_total", "stream", name));
  }
  return source;
}

Result<SourceId> TelegraphCQ::DefineStreamInternal(
    const std::string& name, const std::vector<Field>& fields,
    bool reopen_spool) {
  std::lock_guard<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(SourceId source, catalog_.DefineStream(name, fields));
  TCQ_ASSIGN_OR_RETURN(Catalog::StreamEntry entry, catalog_.Lookup(name));
  PhysicalStream stream;
  stream.name = name;
  stream.canonical = source;
  stream.schema = entry.schema;
  stream.ingested = metrics_->GetCounter(
      MetricName("tcq_server_stream_ingested_total", "stream", name));
  stream.spool_failed = metrics_->GetCounter(
      MetricName("tcq_server_spool_append_failed_total", "stream", name));
  if (!opts_.spool_dir.empty()) {
    const std::string path = opts_.spool_dir + "/" + name + ".log";
    if (reopen_spool) {
      // Restore path: keep the archived history and append past it. A
      // missing file (stream spooled for the first time) falls back to
      // a fresh store.
      Result<std::unique_ptr<StreamStore>> opened =
          StreamStore::Open(path, entry.schema);
      if (opened.ok()) {
        stream.spool = std::move(*opened);
      } else if (opened.status().code() == StatusCode::kNotFound) {
        TCQ_ASSIGN_OR_RETURN(stream.spool,
                             StreamStore::Create(path, entry.schema));
      } else {
        return opened.status();
      }
    } else {
      TCQ_ASSIGN_OR_RETURN(stream.spool,
                           StreamStore::Create(path, entry.schema));
    }
  }
  streams_[name] = std::move(stream);
  TCQ_RETURN_IF_ERROR(executor_.RegisterStream(source, entry.schema));
  return source;
}

Status TelegraphCQ::AttachSource(const std::string& stream_name,
                                 std::unique_ptr<StreamSource> source,
                                 std::unique_ptr<ArrivalProcess> arrivals) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + stream_name + "'");
  }
  if (started_) {
    return Status::FailedPrecondition("attach sources before Start()");
  }
  FjordConsumer feed =
      wrapper_.HostPullSource(std::move(source), std::move(arrivals));
  it->second.wrapper_feeds.push_back(std::move(feed));
  return Status::OK();
}

void TelegraphCQ::RouteBatch(PhysicalStream* stream, const TupleBatch& batch,
                             bool spool) {
  if (batch.empty() && batch.punctuations().empty()) return;
  ingested_->Inc(batch.size());
  stream->ingested->Inc(batch.size());
  if (spool && stream->spool != nullptr) {
    // The spool is a row-shaped boundary: columnar batches materialize rows
    // here (and only here / SteM inserts / egress, DESIGN.md §11).
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!stream->spool->Append(batch.RowAt(i)).ok()) {
        stream->spool_failed->Inc();
      }
    }
  }
  // Columnarize once at the fabric entrance: every subscription below (and
  // the eddy prefilters downstream) shares this store by reference.
  const ColumnStore::Ref& cols = batch.columns();
  // The stream-level watermark lane, as VALUES: every subscription re-tags
  // them under its own logical source below, exactly like the rows. A
  // punctuating stream derives the lane here at the entrance — the only
  // point that sees the merge of all attached feeds, so its max-timestamp
  // scan is authoritative where a single feed's heartbeat is not (incoming
  // per-feed heartbeats are dropped and re-derived). A plain stream passes
  // the producer's lane through untouched.
  std::vector<Timestamp> lane;
  if (stream->event_time.punctuate) {
    if (cols != nullptr) {
      const int64_t* ts = cols->timestamps();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (ts[i] < stream->last_punct) stream->late->Inc();
        if (ts[i] > stream->max_ts) stream->max_ts = ts[i];
      }
    } else {
      for (const Tuple& t : batch) {
        if (t.timestamp() < stream->last_punct) stream->late->Inc();
        if (t.timestamp() > stream->max_ts) stream->max_ts = t.timestamp();
      }
    }
    if (stream->max_ts != kMinTimestamp) {
      Timestamp wm = stream->max_ts - stream->event_time.disorder_bound;
      if (wm > stream->last_punct) {
        stream->last_punct = wm;
        lane.push_back(wm);
      }
    }
  } else {
    for (const Punctuation& p : batch.punctuations()) {
      lane.push_back(p.low_watermark);
    }
  }
  for (const Subscription& sub : stream->subs) {
    // A canonical-source batch whose tuples already carry the
    // subscription's schema passes through untouched; anything else is
    // re-tagged under the subscription's logical source (self-join alias).
    bool direct = sub.logical == stream->canonical;
    if (direct) {
      if (cols != nullptr) {
        direct = cols->schema().get() == sub.schema.get();
      } else {
        for (const Tuple& t : batch) {
          if (t.schema().get() != sub.schema.get()) {
            direct = false;
            break;
          }
        }
      }
    }
    if (direct) {
      if (lane.empty() && batch.punctuations().empty()) {
        sub.deliver(batch);
        continue;
      }
      // Lane present: deliver a copy carrying the re-tagged lane (cheap for
      // columnar batches — the store is shared by reference).
      TupleBatch with_lane = batch;
      with_lane.ClearPunctuations();
      for (Timestamp wm : lane) {
        with_lane.AddPunctuation(Punctuation{sub.logical, wm});
      }
      sub.deliver(with_lane);
      continue;
    }
    if (cols != nullptr) {
      // Zero-copy alias re-tag: a view over the same lanes under the
      // subscription's schema.
      if (ColumnStore::Ref view = ColumnStore::Retagged(cols, sub.schema)) {
        TupleBatch retagged(sub.logical, std::move(view));
        for (Timestamp wm : lane) {
          retagged.AddPunctuation(Punctuation{sub.logical, wm});
        }
        sub.deliver(retagged);
        continue;
      }
    }
    TupleBatch retagged(sub.logical);
    retagged.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple t = batch.RowAt(i);
      retagged.push_back(Tuple::Make(sub.schema, t.values(), t.timestamp()));
    }
    for (Timestamp wm : lane) {
      retagged.AddPunctuation(Punctuation{sub.logical, wm});
    }
    sub.deliver(retagged);
  }
  // Every subscription has its batch: wake the EOs hosting the windowed
  // queries fed, each once. (Executor subscriptions rang in IngestBatch.)
  static thread_local RingSet rings;
  for (const Subscription& sub : stream->subs) {
    if (sub.window_du != nullptr) rings.Add(sub.window_du->host_signal());
  }
  rings.RingAll();
}

Status TelegraphCQ::BatchBuilder::Append(Timestamp timestamp,
                                         std::vector<Value> values) {
  // Whole-row validation first so a rejected row leaves the lanes intact.
  TCQ_RETURN_IF_ERROR(schema()->Validate(values));
  cols_.AppendTimestamp(timestamp);
  for (size_t c = 0; c < values.size(); ++c) {
    bool ok = cols_.Append(c, std::move(values[c]));
    (void)ok;
    assert(ok && "Schema::Validate admitted a value the lane rejects");
  }
  return Status::OK();
}

Result<TelegraphCQ::BatchBuilder> TelegraphCQ::NewBatch(
    const std::string& stream_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + stream_name + "'");
  }
  if (it->second.closed) {
    return Status::FailedPrecondition("stream '" + stream_name +
                                      "' is closed");
  }
  return BatchBuilder(stream_name, it->second.schema);
}

Status TelegraphCQ::PushBuilt(BatchBuilder&& built) {
  if (built.num_rows() == 0) return Status::OK();
  ColumnStore::Ref cols = built.cols_.Finish();
  if (cols == nullptr) {
    // Unreachable through Append (it keeps lanes rectangular); kept as a
    // typed failure rather than an assert so a future builder extension
    // cannot turn it into a silent drop.
    return Status::InvalidArgument("batch builder lanes are ragged");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(built.stream_);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + built.stream_ + "'");
  }
  PhysicalStream& stream = it->second;
  if (stream.closed) {
    return Status::FailedPrecondition("stream '" + built.stream_ +
                                      "' is closed");
  }
  TupleBatch batch(stream.canonical, std::move(cols));
  RouteBatch(&stream, batch);
  return Status::OK();
}

Status TelegraphCQ::PushBatch(const std::string& stream_name,
                              std::vector<TupleBatchRow> rows) {
  TCQ_ASSIGN_OR_RETURN(BatchBuilder batch, NewBatch(stream_name));
  // Atomic validation: Append rejects a bad row before touching the lanes,
  // and nothing is pushed until every row has been appended.
  for (size_t i = 0; i < rows.size(); ++i) {
    Status s = batch.Append(rows[i].timestamp, std::move(rows[i].values));
    if (!s.ok()) {
      return Status::InvalidArgument("row " + std::to_string(i) + " of " +
                                     std::to_string(rows.size()) + ": " +
                                     s.message());
    }
  }
  return PushBuilt(std::move(batch));
}

Status TelegraphCQ::Push(const std::string& stream_name,
                         std::vector<Value> values, Timestamp timestamp) {
  std::vector<TupleBatchRow> rows;
  rows.push_back(TupleBatchRow{std::move(values), timestamp});
  return PushBatch(stream_name, std::move(rows));
}

Status TelegraphCQ::CloseStream(const std::string& stream_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + stream_name + "'");
  }
  it->second.closed = true;
  // Executor-side close lets shared-CQ DUs drain to completion; windowed
  // subscriptions close their input fjords and fire remaining windows.
  for (const Subscription& sub : it->second.subs) {
    (void)executor_.CloseStream(sub.logical);
    if (sub.close) sub.close();
  }
  return Status::OK();
}

Status TelegraphCQ::SubscribeContinuous(const std::string& physical,
                                        const Catalog::StreamEntry& entry) {
  PhysicalStream& stream = streams_[physical];
  for (const Subscription& sub : stream.subs) {
    // Only the shared (owner==0) executor subscription dedups: windowed
    // queries also subscribe under this logical source, and their presence
    // must not swallow the executor feed for a later continuous query.
    if (sub.owner == 0 && sub.logical == entry.source) return Status::OK();
  }
  // Alias sources must be registered with the executor once.
  if (entry.source != stream.canonical) {
    Status s = executor_.RegisterStream(entry.source, entry.schema);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  }
  Subscription sub;
  sub.logical = entry.source;
  sub.schema = entry.schema;
  sub.deliver = [this, logical = entry.source](const TupleBatch& b) {
    TupleBatch routed = b;
    routed.set_source(logical);
    (void)executor_.IngestBatch(std::move(routed));
  };
  stream.subs.push_back(std::move(sub));
  return Status::OK();
}

Result<TelegraphCQ::ClientHandle> TelegraphCQ::Submit(const std::string& sql,
                                                      SubmitOptions sub_opts) {
  TCQ_ASSIGN_OR_RETURN(ast::SelectStatement stmt, ParseQuery(sql));

  std::unique_lock<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(PlannedQuery plan, PlanQuery(stmt, &catalog_));

  // Map each binding back to its physical stream.
  std::vector<std::pair<std::string, Catalog::StreamEntry>> bindings =
      plan.bindings;
  for (const auto& [alias, entry] : bindings) {
    if (!streams_.contains(entry.name)) {
      return Status::NotFound("stream '" + entry.name +
                              "' is not backed by a physical stream");
    }
  }

  ClientHandle handle;

  if (plan.window_loop.has_value()) {
    if (sub_opts.history_reach != 0) {
      // Validate spooling up front so a failed backfill can only mean an
      // I/O or back-pressure fault, not a predictable misuse.
      for (const auto& [alias, entry] : bindings) {
        if (streams_[entry.name].spool == nullptr) {
          return Status::FailedPrecondition(
              "history_reach requires spooled streams (set "
              "Options::spool_dir); stream '" +
              entry.name + "' is not spooled");
        }
      }
    }
    GlobalQueryId wid = next_window_query_id_++;
    TCQ_ASSIGN_OR_RETURN(handle, AdmitWindowedLocked(plan, sql, sub_opts, wid));
    ClientInfo& client = clients_[wid];
    if (sub_opts.history_reach != 0) {
      Status backfill = BackfillWindowedLocked(&client, sub_opts.history_reach);
      if (!backfill.ok()) {
        // Roll the admission back: a failed backfill must not leave a
        // half-primed query behind. Its DU was never hosted.
        for (auto& [name, stream] : streams_) {
          std::erase_if(stream.subs, [wid](const Subscription& s) {
            return s.owner == wid;
          });
        }
        clients_.erase(wid);
        return backfill;
      }
    }
    executor_.HostDispatchUnit(client.window_du);
    return handle;
  }
  if (sub_opts.history_reach != 0) {
    return Status::InvalidArgument(
        "history_reach applies to windowed queries only (continuous queries "
        "have no windows to backfill)");
  }

  // Continuous query through the shared executor.
  for (const auto& [alias, entry] : bindings) {
    TCQ_RETURN_IF_ERROR(SubscribeContinuous(entry.name, entry));
  }
  auto egress = std::make_shared<PushEgress>(
      PushEgress::Options{opts_.egress_capacity, opts_.egress_shed}, metrics_,
      "client" + std::to_string(next_client_label_++));
  lock.unlock();  // SubmitQuery blocks on admission; don't hold the mutex
  TCQ_ASSIGN_OR_RETURN(
      GlobalQueryId id,
      executor_.SubmitQuery(plan.spec, EgressSink(egress), plan.projection));
  handle.id = id;
  handle.results = egress;
  {
    std::lock_guard<std::mutex> relock(mu_);
    ClientInfo& client = clients_[id];
    client.egress = egress;
    client.sql = sql;
    for (const auto& [alias, entry] : bindings) {
      client.bindings.emplace_back(alias, entry.source);
      if (std::find(client.streams.begin(), client.streams.end(),
                    entry.name) == client.streams.end()) {
        client.streams.push_back(entry.name);
      }
    }
  }
  return handle;
}

Result<TelegraphCQ::ClientHandle> TelegraphCQ::AdmitWindowedLocked(
    const PlannedQuery& plan, const std::string& sql,
    const SubmitOptions& sub_opts, GlobalQueryId wid) {
  const std::vector<std::pair<std::string, Catalog::StreamEntry>>& bindings =
      plan.bindings;
  ClientHandle handle;
  {
    // Windowed query: its own DU fed by dedicated fjords.
    auto buffer = std::make_shared<WindowResultBuffer>();
    std::string qlabel = "q" + std::to_string(wid);
    buffer->AttachMetrics(
        metrics_->GetCounter(
            MetricName("tcq_window_fired_total", "query", qlabel)),
        metrics_->GetCounter(
            MetricName("tcq_window_tuples_total", "query", qlabel)),
        metrics_->GetCounter(
            MetricName("tcq_window_retractions_total", "query", qlabel)));
    auto projection = plan.projection;
    WindowedQuery wq;
    wq.loop = *plan.window_loop;
    wq.predicates = plan.all_predicates;
    // The query runs on event time when every bound stream punctuates:
    // watermarks then drive window firing and arrival order stops
    // mattering (up to each stream's disorder bound). A non-punctuating
    // stream has no watermark, so mixing would stall the loop forever.
    bool all_punctuate = true;
    for (const auto& [alias, entry] : bindings) {
      if (!streams_[entry.name].event_time.punctuate) all_punctuate = false;
    }
    if (all_punctuate) wq.loop.semantics = TimeSemantics::kEvent;
    OnlineWindowRunner::Options runner_opts;
    runner_opts.speculate = sub_opts.speculate && all_punctuate;
    auto du = std::make_shared<WindowedQueryDispatchUnit>(
        "windowed" + std::to_string(wid), std::move(wq),
        [buffer, projection](const WindowResult& r) {
          if (!projection.has_value()) {
            buffer->Push(r);
            return;
          }
          WindowResult projected;
          projected.t = r.t;
          projected.kind = r.kind;
          projected.revision = r.revision;
          for (const Tuple& t : r.tuples) {
            // Project the values, then restore the revision tag: a
            // retraction must cancel the projected tuple it revises.
            auto p = projection->Apply(t);
            if (!p.ok()) continue;
            projected.tuples.push_back(
                t.IsRetraction() ? Tuple::Retraction(*p) : std::move(*p));
          }
          buffer->Push(std::move(projected));
        },
        /*quantum=*/64, runner_opts);
    std::vector<ClientInfo::WindowInput> inputs;
    for (const auto& [alias, entry] : bindings) {
      auto endpoints = Fjord::Make(FjordMode::kPush, opts_.egress_capacity,
                                   "win:" + alias, metrics_.get());
      du->AddInput(entry.source, endpoints.consumer);
      PhysicalStream& stream = streams_[entry.name];
      Subscription sub;
      sub.logical = entry.source;
      sub.schema = entry.schema;
      sub.owner = wid;
      sub.window_du = du;
      auto producer = std::make_shared<FjordProducer>(endpoints.producer);
      Counter* win_dropped = metrics_->GetCounter(
          MetricName("tcq_window_input_dropped_total", "window",
                     "w" + std::to_string(wid)));
      sub.deliver = [producer, win_dropped](const TupleBatch& b) {
        // Push mode: drop on overload (windowed clients are best-effort
        // under backpressure) — but count what was dropped; the unconsumed
        // suffix stays in the offered batch by the ProduceBatch contract.
        TupleBatch offered = b;
        (void)producer->ProduceBatch(&offered);
        if (!offered.empty()) win_dropped->Inc(offered.size());
      };
      // CloseStream closes the input fjord so the DU sees end-of-stream and
      // fires the windows it is still holding open.
      sub.close = [producer, du] {
        producer->Close();
        du->RingHost();
      };
      stream.subs.push_back(std::move(sub));
      inputs.push_back(ClientInfo::WindowInput{entry.source, entry.name,
                                               entry.schema, endpoints.fjord,
                                               producer});
    }
    handle.id = wid;
    handle.windows = buffer;
    ClientInfo& client = clients_[handle.id];
    client.windowed = true;
    client.windows = buffer;
    client.window_du = du;
    client.sql = sql;
    client.speculate = sub_opts.speculate;
    client.window_inputs = std::move(inputs);
    for (const auto& [alias, entry] : bindings) {
      client.bindings.emplace_back(alias, entry.source);
      // Self-joins bind one physical stream under several aliases; count it
      // once per query.
      if (std::find(client.streams.begin(), client.streams.end(),
                    entry.name) == client.streams.end()) {
        client.streams.push_back(entry.name);
      }
    }
    return handle;
  }
}

Result<std::vector<Tuple>> TelegraphCQ::ScanHistory(const std::string& name,
                                                    Timestamp l,
                                                    Timestamp r) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("no stream '" + name + "'");
  }
  if (it->second.spool == nullptr) {
    return Status::FailedPrecondition(
        "stream '" + name + "' is not spooled (set Options::spool_dir)");
  }
  WindowedScanner scanner(it->second.spool.get(), &spool_pool_);
  std::vector<Tuple> out;
  TCQ_RETURN_IF_ERROR(scanner.Scan(l, r, &out));
  return out;
}

// --- Durable state (DESIGN.md §13) -------------------------------------------

namespace {

/// Runs a detached DU's quanta inline until its inputs are empty.
void DrainInline(DispatchUnit* du) {
  while (du->Step() == DispatchUnit::StepResult::kProgress) {
  }
}

/// Pushes a batch into a detached windowed query's input fjord, stepping
/// the DU inline whenever the fjord fills. The unconsumed suffix (rows, then
/// punctuations) stays in the batch across attempts by the ProduceBatch
/// contract.
Status PushWindowInput(FjordProducer* producer, DispatchUnit* du,
                       TupleBatch batch) {
  for (;;) {
    QueueOp op = producer->ProduceBatch(&batch);
    if (batch.empty() && batch.punctuations().empty()) return Status::OK();
    if (op == QueueOp::kClosed) {
      return Status::FailedPrecondition(
          "window input fjord closed during backfill");
    }
    DrainInline(du);
  }
}

}  // namespace

Status TelegraphCQ::FlushSpools() {
  std::lock_guard<std::mutex> lock(mu_);
  if (opts_.spool_dir.empty()) {
    return Status::FailedPrecondition(
        "no spools to flush (set Options::spool_dir)");
  }
  for (auto& [name, stream] : streams_) {
    if (stream.spool != nullptr) TCQ_RETURN_IF_ERROR(stream.spool->Flush());
  }
  return Status::OK();
}

Status TelegraphCQ::BackfillWindowedLocked(ClientInfo* client,
                                           Timestamp reach) {
  for (const ClientInfo::WindowInput& in : client->window_inputs) {
    PhysicalStream& stream = streams_[in.stream];
    std::vector<Tuple> archive;
    TCQ_RETURN_IF_ERROR(stream.spool->ScanFrom(0, &archive));
    Timestamp latest = kMinTimestamp;
    for (const Tuple& t : archive) latest = std::max(latest, t.timestamp());
    // Backfill window: [latest - reach + 1, latest]; kMaxTimestamp (or a
    // reach that underflows past kMinTimestamp) takes the whole archive.
    Timestamp lo = kMinTimestamp;
    if (reach != kMaxTimestamp && latest > kMinTimestamp + reach) {
      lo = latest - reach + 1;
    }
    size_t i = 0;
    while (i < archive.size()) {
      TupleBatch chunk;
      chunk.set_source(in.source);
      for (; i < archive.size() && chunk.size() < 256; ++i) {
        const Tuple& t = archive[i];
        if (t.timestamp() < lo) continue;
        chunk.push_back(t.schema().get() == in.schema.get()
                            ? t
                            : Tuple::Make(in.schema, t.values(),
                                          t.timestamp()));
      }
      TCQ_RETURN_IF_ERROR(PushWindowInput(in.producer.get(),
                                          client->window_du.get(),
                                          std::move(chunk)));
    }
    if (stream.event_time.punctuate && stream.last_punct != kMinTimestamp) {
      // The stream's current watermark promise travels BEHIND the
      // historical rows, so an event-time loop fires the backfilled
      // windows immediately instead of waiting for fresh live traffic.
      TupleBatch punct;
      punct.set_source(in.source);
      punct.AddPunctuation(Punctuation{in.source, stream.last_punct});
      TCQ_RETURN_IF_ERROR(PushWindowInput(in.producer.get(),
                                          client->window_du.get(),
                                          std::move(punct)));
    }
  }
  return Status::OK();
}

Result<uint64_t> TelegraphCQ::Checkpoint() {
  if (opts_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint location (set Options::checkpoint_dir)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = last_epoch_ + 1;
  // Quiesce: holding mu_ blocks every ingest path; the spools flush so the
  // replay positions recorded below are durable; every windowed runner is
  // detached from its EO at a quantum boundary and its inputs drained
  // inline, so it is exclusively ours to export.
  for (auto& [name, stream] : streams_) {
    if (stream.spool != nullptr) TCQ_RETURN_IF_ERROR(stream.spool->Flush());
  }
  for (auto& [id, client] : clients_) {
    if (!client.windowed) continue;
    executor_.UnhostDispatchUnit(client.window_du);
    DrainInline(client.window_du.get());
  }
  const std::string path =
      opts_.checkpoint_dir + "/ckpt-" + std::to_string(epoch);
  Status written = WriteCheckpointLocked(epoch, path);
  for (auto& [id, client] : clients_) {
    if (client.windowed) executor_.HostDispatchUnit(client.window_du);
  }
  TCQ_RETURN_IF_ERROR(written);
  last_epoch_ = epoch;
  ckpt_epochs_->Inc();
  std::error_code ec;
  const uint64_t bytes = std::filesystem::file_size(path, ec);
  if (!ec) ckpt_bytes_->Inc(bytes);
  ckpt_duration_us_->Set(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
  return epoch;
}

Status TelegraphCQ::WriteCheckpointLocked(uint64_t epoch,
                                          const std::string& path) {
  CheckpointWriter w(epoch);
  w.BeginSection("server", 1);
  w.PutU64(system_streams_ != nullptr ? system_streams_->ticks() : 0);
  // The catalog, recorded in id order for verbatim replay: id assignment
  // depends on the original interleaving of stream definitions and
  // self-join submissions, and every snapshot below keys state by these
  // ids, so a restore must reproduce the layout exactly.
  const SourceId ncat = catalog_.next_source();
  w.PutU32(static_cast<uint32_t>(ncat));
  for (SourceId id = 0; id < ncat; ++id) {
    const Catalog::StreamEntry* entry = catalog_.LookupBySource(id);
    if (entry == nullptr) {
      return Status::Internal("catalog source id " + std::to_string(id) +
                              " has no entry (ids should be dense)");
    }
    Result<Catalog::StreamEntry> canonical = catalog_.Lookup(entry->name);
    const bool is_alias = canonical.ok() && canonical->source != id;
    w.PutString(entry->name);
    w.PutBool(is_alias);
    if (!is_alias) w.PutSchema(*entry->schema);
  }
  w.PutU32(static_cast<uint32_t>(streams_.size()));
  for (const auto& [name, stream] : streams_) {
    w.PutString(name);
    w.PutBool(stream.event_time.punctuate);
    w.PutTimestamp(stream.event_time.disorder_bound);
    w.PutTimestamp(stream.max_ts);
    w.PutTimestamp(stream.last_punct);
    w.PutBool(stream.closed);
    w.PutU64(stream.spool != nullptr ? stream.spool->tuples_appended() : 0);
  }
  uint32_t ncont = 0, nwin = 0;
  for (const auto& [id, client] : clients_) {
    (client.windowed ? nwin : ncont) += 1;
  }
  w.PutU32(ncont);
  for (const auto& [id, client] : clients_) {
    if (client.windowed) continue;
    w.PutU64(id);
    w.PutString(client.sql);
    w.PutU32(static_cast<uint32_t>(client.bindings.size()));
    for (const auto& [alias, source] : client.bindings) {
      w.PutString(alias);
      w.PutU32(static_cast<uint32_t>(source));
    }
  }
  w.PutU32(nwin);
  for (const auto& [id, client] : clients_) {
    if (!client.windowed) continue;
    w.PutU64(id);
    w.PutString(client.sql);
    w.PutBool(client.speculate);
    w.PutU32(static_cast<uint32_t>(client.bindings.size()));
    for (const auto& [alias, source] : client.bindings) {
      w.PutString(alias);
      w.PutU32(static_cast<uint32_t>(source));
    }
  }
  w.EndSection();

  // Continuous state: the executor exports every query class (specs,
  // partition maps, SteM logs, seq horizons) behind its own quiesce.
  TCQ_RETURN_IF_ERROR(executor_.CheckpointTo(&w));

  // Windowed runners (detached by the caller), in query-id order; restore
  // reads them back in the same order.
  for (auto& [id, client] : clients_) {
    if (!client.windowed) continue;
    auto* du = static_cast<WindowedQueryDispatchUnit*>(client.window_du.get());
    WriteCheckpointSection(&w, du->runner());
  }
  return w.WriteTo(path);
}

Result<uint64_t> TelegraphCQ::Restore() {
  if (opts_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint location (set Options::checkpoint_dir)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("Restore() must run before Start()");
    }
    if (!clients_.empty() || ingested_->Value() != 0) {
      return Status::FailedPrecondition(
          "Restore() requires a freshly constructed server");
    }
  }

  // Latest epoch wins: a crash mid-checkpoint leaves the previous epoch's
  // file intact (temp-file + rename), so the newest complete file is the
  // recovery point.
  uint64_t epoch = 0;
  std::string path;
  {
    std::error_code ec;
    std::filesystem::directory_iterator dir(opts_.checkpoint_dir, ec);
    if (ec) {
      return Status::NotFound("cannot list checkpoint dir '" +
                              opts_.checkpoint_dir + "': " + ec.message());
    }
    for (const auto& e : dir) {
      const std::string fname = e.path().filename().string();
      if (fname.rfind("ckpt-", 0) != 0 || fname.size() == 5) continue;
      uint64_t n = 0;
      bool numeric = true;
      for (size_t i = 5; i < fname.size(); ++i) {
        if (fname[i] < '0' || fname[i] > '9') {
          numeric = false;
          break;
        }
        n = n * 10 + static_cast<uint64_t>(fname[i] - '0');
      }
      if (numeric && (path.empty() || n > epoch)) {
        epoch = n;
        path = e.path().string();
      }
    }
  }
  if (path.empty()) {
    return Status::NotFound("no checkpoint under '" + opts_.checkpoint_dir +
                            "'");
  }

  TCQ_ASSIGN_OR_RETURN(std::unique_ptr<CheckpointReader> r,
                       CheckpointReader::Open(path, &spool_pool_));
  TCQ_ASSIGN_OR_RETURN(CheckpointReader::Section sec, r->BeginSection());
  if (sec.tag != "server" || sec.version != 1) {
    return Status::IOError("checkpoint does not start with a v1 server "
                           "section (found '" +
                           sec.tag + "' v" + std::to_string(sec.version) +
                           ")");
  }
  TCQ_ASSIGN_OR_RETURN(uint64_t tick, r->GetU64());
  if (system_streams_ != nullptr) system_streams_->AdvanceTicksTo(tick);

  // 1. Catalog replay in id order: re-drive the original DefineStream /
  // InstantiateAlias calls so every recorded source id comes back exactly.
  TCQ_ASSIGN_OR_RETURN(uint32_t ncat, r->GetU32());
  for (uint32_t id = 0; id < ncat; ++id) {
    TCQ_ASSIGN_OR_RETURN(std::string name, r->GetString());
    TCQ_ASSIGN_OR_RETURN(bool is_alias, r->GetBool());
    SchemaRef schema;
    if (!is_alias) {
      TCQ_ASSIGN_OR_RETURN(schema, r->GetSchema());
    }
    const Catalog::StreamEntry* existing = catalog_.LookupBySource(id);
    if (existing != nullptr) {
      // Pre-defined at construction (tcq$ introspection streams).
      if (existing->name != name) {
        return Status::IOError(
            "checkpoint catalog id " + std::to_string(id) + " names '" +
            name + "' but this server already assigned it to '" +
            existing->name + "' (constructed with different Options?)");
      }
      continue;
    }
    if (is_alias) {
      TCQ_ASSIGN_OR_RETURN(Catalog::StreamEntry entry,
                           catalog_.InstantiateAlias(name));
      if (entry.source != id) {
        return Status::IOError("catalog replay assigned alias of '" + name +
                               "' id " + std::to_string(entry.source) +
                               ", checkpoint recorded " + std::to_string(id));
      }
    } else {
      TCQ_ASSIGN_OR_RETURN(
          SourceId got,
          DefineStreamInternal(name, schema->fields(), /*reopen_spool=*/true));
      if (got != id) {
        return Status::IOError("catalog replay assigned stream '" + name +
                               "' id " + std::to_string(got) +
                               ", checkpoint recorded " + std::to_string(id));
      }
    }
  }

  // 2. Per-stream event-time marks and spool replay positions.
  std::vector<std::pair<std::string, uint64_t>> replay;
  TCQ_ASSIGN_OR_RETURN(uint32_t nstreams, r->GetU32());
  for (uint32_t i = 0; i < nstreams; ++i) {
    TCQ_ASSIGN_OR_RETURN(std::string name, r->GetString());
    TCQ_ASSIGN_OR_RETURN(bool punctuate, r->GetBool());
    TCQ_ASSIGN_OR_RETURN(Timestamp disorder, r->GetTimestamp());
    TCQ_ASSIGN_OR_RETURN(Timestamp max_ts, r->GetTimestamp());
    TCQ_ASSIGN_OR_RETURN(Timestamp last_punct, r->GetTimestamp());
    TCQ_ASSIGN_OR_RETURN(bool closed, r->GetBool());
    TCQ_ASSIGN_OR_RETURN(uint64_t pos, r->GetU64());
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(name);
    if (it == streams_.end()) {
      return Status::IOError("checkpoint stream '" + name +
                             "' was not recreated by the catalog replay");
    }
    PhysicalStream& stream = it->second;
    stream.event_time.punctuate = punctuate;
    stream.event_time.disorder_bound = disorder;
    if (punctuate && stream.late == nullptr) {
      stream.late = metrics_->GetCounter(
          MetricName("tcq_wrapper_late_tuples_total", "stream", name));
    }
    stream.max_ts = max_ts;
    stream.last_punct = last_punct;
    stream.closed = closed;
    replay.emplace_back(name, pos);
  }

  // 3. Continuous clients: recreate egress plumbing and subscriptions under
  // the recorded ids; the executor re-admits the queries itself below.
  std::map<GlobalQueryId, SinkBinding> sinks;
  TCQ_ASSIGN_OR_RETURN(uint32_t ncont, r->GetU32());
  for (uint32_t i = 0; i < ncont; ++i) {
    TCQ_ASSIGN_OR_RETURN(uint64_t gid, r->GetU64());
    TCQ_ASSIGN_OR_RETURN(std::string sql, r->GetString());
    TCQ_ASSIGN_OR_RETURN(uint32_t nbind, r->GetU32());
    std::map<std::string, SourceId> pinned;
    std::vector<std::pair<std::string, SourceId>> recorded;
    for (uint32_t b = 0; b < nbind; ++b) {
      TCQ_ASSIGN_OR_RETURN(std::string alias, r->GetString());
      TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
      pinned[alias] = source;
      recorded.emplace_back(alias, source);
    }
    TCQ_ASSIGN_OR_RETURN(ast::SelectStatement stmt, ParseQuery(sql));
    std::lock_guard<std::mutex> lock(mu_);
    TCQ_ASSIGN_OR_RETURN(PlannedQuery plan,
                         PlanQuery(stmt, &catalog_, &pinned));
    for (const auto& [alias, entry] : plan.bindings) {
      auto pin = pinned.find(alias);
      if (pin == pinned.end() || pin->second != entry.source) {
        return Status::IOError("restored plan for query " +
                               std::to_string(gid) + " bound alias '" +
                               alias + "' to a different source than the "
                               "checkpoint recorded");
      }
      TCQ_RETURN_IF_ERROR(SubscribeContinuous(entry.name, entry));
    }
    auto egress = std::make_shared<PushEgress>(
        PushEgress::Options{opts_.egress_capacity, opts_.egress_shed},
        metrics_, "client" + std::to_string(next_client_label_++));
    sinks[gid] = SinkBinding{gid, EgressSink(egress), plan.projection};
    ClientInfo& client = clients_[gid];
    client.egress = egress;
    client.sql = sql;
    client.bindings = std::move(recorded);
    for (const auto& [alias, entry] : plan.bindings) {
      if (std::find(client.streams.begin(), client.streams.end(),
                    entry.name) == client.streams.end()) {
        client.streams.push_back(entry.name);
      }
    }
  }

  // 4. Windowed client metadata (their runner sections come after the
  // executor's, in file order).
  struct WinRec {
    uint64_t wid = 0;
    std::string sql;
    bool speculate = false;
    std::map<std::string, SourceId> pinned;
    std::vector<std::pair<std::string, SourceId>> recorded;
  };
  std::vector<WinRec> wins;
  TCQ_ASSIGN_OR_RETURN(uint32_t nwin, r->GetU32());
  for (uint32_t i = 0; i < nwin; ++i) {
    WinRec rec;
    TCQ_ASSIGN_OR_RETURN(rec.wid, r->GetU64());
    TCQ_ASSIGN_OR_RETURN(rec.sql, r->GetString());
    TCQ_ASSIGN_OR_RETURN(rec.speculate, r->GetBool());
    TCQ_ASSIGN_OR_RETURN(uint32_t nbind, r->GetU32());
    for (uint32_t b = 0; b < nbind; ++b) {
      TCQ_ASSIGN_OR_RETURN(std::string alias, r->GetString());
      TCQ_ASSIGN_OR_RETURN(uint32_t source, r->GetU32());
      rec.pinned[alias] = source;
      rec.recorded.emplace_back(alias, source);
    }
    wins.push_back(std::move(rec));
  }
  TCQ_RETURN_IF_ERROR(r->EndSection());

  // 5. Executor state: query classes re-admitted under their original
  // global ids, SteM logs and seq horizons imported.
  TCQ_ASSIGN_OR_RETURN(
      uint64_t restored_queries,
      executor_.RestoreFrom(r.get(), [&sinks](GlobalQueryId qid) {
        auto it = sinks.find(qid);
        return it != sinks.end() ? it->second : SinkBinding{};
      }));
  (void)restored_queries;

  // 6. Windowed queries: re-admit under recorded ids (pinned re-planning),
  // then import each runner's snapshot.
  for (WinRec& rec : wins) {
    TCQ_ASSIGN_OR_RETURN(ast::SelectStatement stmt, ParseQuery(rec.sql));
    ClientInfo* client = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      TCQ_ASSIGN_OR_RETURN(PlannedQuery plan,
                           PlanQuery(stmt, &catalog_, &rec.pinned));
      for (const auto& [alias, entry] : plan.bindings) {
        auto pin = rec.pinned.find(alias);
        if (pin == rec.pinned.end() || pin->second != entry.source) {
          return Status::IOError("restored plan for query " +
                                 std::to_string(rec.wid) + " bound alias '" +
                                 alias + "' to a different source than the "
                                 "checkpoint recorded");
        }
      }
      SubmitOptions so;
      so.speculate = rec.speculate;
      TCQ_ASSIGN_OR_RETURN(ClientHandle handle,
                           AdmitWindowedLocked(plan, rec.sql, so, rec.wid));
      (void)handle;
      if (rec.wid + 1 > next_window_query_id_) {
        next_window_query_id_ = rec.wid + 1;
      }
      auto it = clients_.find(rec.wid);
      it->second.bindings = rec.recorded;
      client = &it->second;
    }
    auto* du = static_cast<WindowedQueryDispatchUnit*>(client->window_du.get());
    TCQ_RETURN_IF_ERROR(ReadCheckpointSection(r.get(), du->mutable_runner()));
    executor_.HostDispatchUnit(client->window_du);
  }

  // 7. Bring the dataflow up for the replay (the fjords must drain or the
  // chunks below would overflow them). Start() later re-invokes it —
  // idempotent.
  executor_.Start();

  // 8. Replay each stream's archived suffix past its snapshot high-water
  // mark, spool-bypassing (the tuples are already archived). Chunks yield
  // between pushes so windowed fjords keep headroom.
  uint64_t replayed = 0;
  for (const auto& [name, pos] : replay) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = streams_.find(name);
    if (it == streams_.end() || it->second.spool == nullptr) continue;
    PhysicalStream& stream = it->second;
    std::vector<Tuple> suffix;
    TCQ_RETURN_IF_ERROR(stream.spool->ScanFrom(pos, &suffix));
    size_t i = 0;
    while (i < suffix.size()) {
      TupleBatch chunk;
      chunk.set_source(stream.canonical);
      for (; i < suffix.size() && chunk.size() < 256; ++i) {
        chunk.push_back(suffix[i]);
      }
      replayed += chunk.size();
      RouteBatch(&stream, chunk, /*spool=*/false);
      lock.unlock();
      const auto bp_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (;;) {
        bool full = false;
        {
          std::lock_guard<std::mutex> g(mu_);
          for (auto& [id, client] : clients_) {
            if (!client.windowed) continue;
            for (const ClientInfo::WindowInput& in : client.window_inputs) {
              if (in.fjord->queue().size() > opts_.egress_capacity / 2) {
                full = true;
              }
            }
          }
        }
        if (!full || std::chrono::steady_clock::now() > bp_deadline) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      lock.lock();
    }
  }

  // 9. Re-deliver end-of-stream for streams that closed before the crash:
  // the restored subscriptions never saw the original CloseStream.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, stream] : streams_) {
      if (!stream.closed) continue;
      for (const Subscription& sub : stream.subs) {
        (void)executor_.CloseStream(sub.logical);
        if (sub.close) sub.close();
      }
    }
    last_epoch_ = epoch;
  }
  restore_replayed_->Inc(replayed);
  restore_duration_us_->Set(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return epoch;
}

std::vector<TelegraphCQ::ClientHandle> TelegraphCQ::Handles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClientHandle> out;
  for (const auto& [id, client] : clients_) {
    ClientHandle h;
    h.id = id;
    h.results = client.egress;
    h.windows = client.windows;
    out.push_back(std::move(h));
  }
  return out;
}

void TelegraphCQ::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(opts_.checkpoint_interval_ms);
  while (!checkpoint_stop_.WaitUntil(std::chrono::steady_clock::now() +
                                     interval)) {
    if (!Checkpoint().ok()) ckpt_failures_->Inc();
  }
}

Status TelegraphCQ::Cancel(GlobalQueryId id) {
  std::shared_ptr<WindowResultBuffer> windows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = clients_.find(id);
    if (it == clients_.end()) {
      return Status::NotFound("no query " + std::to_string(id));
    }
    if (it->second.windowed) {
      windows = it->second.windows;
      // Detach the query's subscriptions so its fjords stop filling, then
      // its DU (waiting out an in-flight quantum, so no window fires after
      // Cancel returns).
      for (auto& [name, stream] : streams_) {
        std::erase_if(stream.subs, [id](const Subscription& s) {
          return s.owner == id;
        });
      }
      executor_.UnhostDispatchUnit(it->second.window_du);
    }
    clients_.erase(it);
  }
  if (windows != nullptr) {
    windows->MarkFinished();
    return Status::OK();
  }
  return executor_.RemoveQuery(id);
}

TelegraphCQ::Introspection TelegraphCQ::Introspect() const {
  Introspection out;
  out.metrics = metrics_->Snapshot();
  out.tuples_ingested = ingested_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, client] : clients_) {
    QueryStats qs;
    qs.id = id;
    qs.windowed = client.windowed;
    for (const std::string& name : client.streams) {
      auto it = streams_.find(name);
      if (it != streams_.end()) qs.tuples_in += it->second.ingested->Value();
    }
    if (client.egress != nullptr) {
      qs.tuples_out = client.egress->delivered();
      qs.shed = client.egress->shed();
    }
    if (client.windows != nullptr) {
      qs.windows_fired = client.windows->windows_fired();
      qs.tuples_out = client.windows->tuples_out();
      qs.retractions = client.windows->retractions();
    }
    out.queries.push_back(qs);
  }
  for (const auto& [name, stream] : streams_) {
    StreamStats ss;
    ss.name = name;
    ss.source = stream.canonical;
    ss.tuples_in = stream.ingested->Value();
    // Executor-side drops accrue against each logical subscription the
    // physical stream fans out to (the canonical id plus re-tagged aliases).
    ss.dropped = executor_.stream_tuples_dropped(stream.canonical);
    for (const Subscription& sub : stream.subs) {
      if (sub.logical != stream.canonical) {
        ss.dropped += executor_.stream_tuples_dropped(sub.logical);
      }
    }
    if (stream.late != nullptr) ss.late_tuples = stream.late->Value();
    out.streams.push_back(std::move(ss));
  }
  out.classes = executor_.Topology();
  out.class_merges = executor_.class_merges();
  out.class_migrations = executor_.class_migrations();
  out.class_gcs = executor_.class_gcs();
  out.checkpoint_epochs = ckpt_epochs_->Value();
  out.checkpoint_bytes = ckpt_bytes_->Value();
  out.restore_replay_tuples = restore_replayed_->Value();
  return out;
}

void TelegraphCQ::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
  }
  executor_.Start();
  wrapper_.Start();
  stop_.store(false);
  pump_thread_ = std::thread([this] { PumpLoop(); });
  if (system_streams_ != nullptr) system_streams_->Start();
  if (!opts_.checkpoint_dir.empty() && opts_.checkpoint_interval_ms > 0) {
    checkpoint_stop_.Reset();
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
}

void TelegraphCQ::PumpLoop() {
  // Drains wrapper feeds into the routing fabric, parking on the wrapper's
  // feed signal when a pass finds nothing (the signal is read first, so a
  // batch flushed during the pass makes the park return at once).
  WorkSignal& feeds = wrapper_.feed_signal();
  for (;;) {
    uint64_t seen = feeds.seq();
    if (stop_.load(std::memory_order_relaxed)) break;
    bool any = false;
    bool all_closed = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [name, stream] : streams_) {
        for (FjordConsumer& feed : stream.wrapper_feeds) {
          TupleBatch batch;
          batch.set_source(stream.canonical);
          QueueOp op = QueueOp::kOk;
          size_t got = feed.ConsumeBatch(&batch, 64, &op);
          if (got > 0) {
            RouteBatch(&stream, batch);
            any = true;
          }
          if (op == QueueOp::kWouldBlock) all_closed = false;
          if (!feed.Exhausted()) all_closed = false;
        }
        if (stream.wrapper_feeds.empty()) all_closed = false;
      }
    }
    if (!any) {
      if (all_closed) break;
      feeds.Park(seen);
    }
  }
}

void TelegraphCQ::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  // The checkpointer goes first: it takes mu_ and detaches/re-hosts DUs.
  checkpoint_stop_.Stop();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  // Stop the publisher next: it pushes into streams_ via PushBatch.
  if (system_streams_ != nullptr) system_streams_->Stop();
  wrapper_.Stop();
  stop_.store(true);
  wrapper_.feed_signal().Ring();
  if (pump_thread_.joinable()) pump_thread_.join();
  executor_.Stop();
}

}  // namespace tcq
