#include "exec/dispatch_unit.h"

namespace tcq {

namespace {

/// Pulls up to `quantum` tuples round-robin from push-mode inputs, draining
/// each visited input in whole batches (one queue lock per batch instead of
/// one per tuple) and invoking `deliver(source, batch, first_enq_us)`, where
/// first_enq_us is the enqueue time of the batch's oldest tuple (0 when the
/// queue keeps no timestamps). Returns (consumed, all_exhausted).
template <typename InputVec, typename Fn>
std::pair<size_t, bool> PumpInputs(InputVec& inputs, size_t* next_input,
                                   size_t quantum, Fn&& deliver) {
  if (inputs.empty()) return {0, false};
  size_t consumed = 0;
  size_t attempts = 0;
  TupleBatch batch;
  while (consumed < quantum && attempts < inputs.size()) {
    auto& input = inputs[*next_input % inputs.size()];
    ++*next_input;
    if (input.exhausted) {
      ++attempts;
      continue;
    }
    batch.clear();
    batch.set_source(input.source);
    QueueOp op;
    int64_t enq_us = 0;
    size_t got =
        input.consumer.ConsumeBatch(&batch, quantum - consumed, &op, &enq_us);
    if (op == QueueOp::kClosed) input.exhausted = true;
    if (got > 0) {
      deliver(input.source, batch, enq_us);
      consumed += got;
      attempts = 0;
    } else {
      ++attempts;
    }
  }
  // Recompute exhaustion after the pump: inputs may have closed mid-loop.
  bool all_exhausted = true;
  for (const auto& input : inputs) {
    if (!input.exhausted) {
      all_exhausted = false;
      break;
    }
  }
  return {consumed, all_exhausted};
}

}  // namespace

// --- SharedCQDispatchUnit ----------------------------------------------------

SharedCQDispatchUnit::SharedCQDispatchUnit(std::string name,
                                           std::unique_ptr<SharedEddy> eddy,
                                           Options opts)
    : DispatchUnit(std::move(name)), opts_(opts), eddy_(std::move(eddy)) {
  eddy_->SetOutput([this](QueryId q, const Tuple& t) { Collect(q, t); });
}

void SharedCQDispatchUnit::set_control_sink(
    std::function<void(const Punctuation&)> sink) {
  eddy_->SetControlOutput([this, sink = std::move(sink)](const Punctuation& p) {
    Flush();  // the batch's data rows go out ahead of its punctuations
    sink(p);
  });
}

int SharedCQDispatchUnit::GroupFor(const std::vector<AttrRef>& attrs) {
  int free_slot = -1;
  for (size_t i = 0; i < groups_.size(); ++i) {
    ProjectionGroup& g = groups_[i];
    if (g.users > 0 && g.projection.attrs() == attrs) {
      ++g.users;
      return static_cast<int>(i);
    }
    if (g.users == 0 && free_slot < 0) free_slot = static_cast<int>(i);
  }
  ProjectionGroup fresh{Projection(attrs), 1, {}, {}};
  if (free_slot >= 0) {
    groups_[static_cast<size_t>(free_slot)] = std::move(fresh);
    return free_slot;
  }
  groups_.push_back(std::move(fresh));
  return static_cast<int>(groups_.size() - 1);
}

void SharedCQDispatchUnit::BindSink(QueryId local, SinkBinding binding) {
  UnbindSink(local);
  BoundQuery b;
  if (binding.projection.has_value()) {
    b.group = GroupFor(binding.projection->attrs());
  }
  b.binding = std::move(binding);
  if (bound_.size() <= local) bound_.resize(local + 1);
  bound_[local] = std::move(b);
}

void SharedCQDispatchUnit::UnbindSink(QueryId local) {
  if (local >= bound_.size() || !bound_[local].has_value()) return;
  if (int g = bound_[local]->group; g >= 0) {
    --groups_[static_cast<size_t>(g)].users;
  }
  bound_[local].reset();
}

void SharedCQDispatchUnit::Collect(QueryId local, const Tuple& t) {
  if (local >= bound_.size() || !bound_[local].has_value()) return;
  BoundQuery& b = *bound_[local];
  if (!b.pending) {
    b.pending = true;
    pending_.push_back(local);
  }
  if (b.group < 0) {
    b.rows.push_back(t);
    return;
  }
  // Last-input memo: the eddy hands one result to all of its queries back
  // to back, so a group stores (and later projects) each result once.
  ProjectionGroup& g = groups_[static_cast<size_t>(b.group)];
  if (g.inputs.empty() || !g.inputs.back().SamePayload(t)) {
    g.inputs.push_back(t);
  }
  b.refs.push_back(static_cast<uint32_t>(g.inputs.size() - 1));
}

void SharedCQDispatchUnit::Flush() {
  if (pending_.empty()) return;
  obs::TraceContext& tc = obs::CurrentTrace();
  for (QueryId local : pending_) {
    BoundQuery& b = *bound_[local];
    b.pending = false;
    int64_t t0 = tc.tracer != nullptr ? NowMicros() : 0;
    if (b.group >= 0) {
      ProjectionGroup& g = groups_[static_cast<size_t>(b.group)];
      for (size_t i = g.outputs.size(); i < g.inputs.size(); ++i) {
        // Control tuples have no columns to project; they pass as they are.
        const Tuple& in = g.inputs[i];
        if (!in.IsData()) {
          g.outputs.push_back(in);
          continue;
        }
        Result<Tuple> p = g.projection.Apply(in);
        g.outputs.push_back(p.ok() ? std::move(*p) : Tuple());
      }
      for (uint32_t r : b.refs) {
        if (g.outputs[r].valid()) b.rows.push_back(g.outputs[r]);
      }
      b.refs.clear();
    }
    if (tc.tracer != nullptr) {
      tc.tracer->Record(obs::SpanKind::kResultFlush, 0, b.binding.global_id,
                        t0, NowMicros() - t0);
    }
    if (!b.rows.empty()) b.binding.sink(b.binding.global_id, b.rows);
    b.rows.clear();
  }
  pending_.clear();
  for (ProjectionGroup& g : groups_) {
    g.inputs.clear();
    g.outputs.clear();
  }
}

void SharedCQDispatchUnit::AddInput(SourceId source, FjordConsumer consumer) {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    pending_inputs_.push_back(Input{source, std::move(consumer), false});
  }
  RingHost();
}

void SharedCQDispatchUnit::SubmitTask(std::function<void(SharedEddy*)> task) {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    pending_tasks_.push_back(std::move(task));
  }
  RingHost();
}

void SharedCQDispatchUnit::Quiesce() { DrainPlanQueue(); }

std::vector<std::pair<SourceId, FjordConsumer>>
SharedCQDispatchUnit::DetachInputs() {
  DrainPlanQueue();  // fold pending inputs in before moving them out
  std::vector<std::pair<SourceId, FjordConsumer>> out;
  out.reserve(inputs_.size());
  for (Input& input : inputs_) {
    if (input.exhausted) continue;
    out.emplace_back(input.source, std::move(input.consumer));
  }
  inputs_.clear();
  next_input_ = 0;
  return out;
}

std::map<QueryId, SinkBinding> SharedCQDispatchUnit::TakeSinks() {
  std::map<QueryId, SinkBinding> out;
  for (size_t q = 0; q < bound_.size(); ++q) {
    if (bound_[q].has_value()) {
      out.emplace(static_cast<QueryId>(q), std::move(bound_[q]->binding));
    }
  }
  bound_.clear();
  groups_.clear();
  return out;
}

void SharedCQDispatchUnit::DrainPlanQueue() {
  std::deque<std::function<void(SharedEddy*)>> tasks;
  std::vector<Input> inputs;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    tasks.swap(pending_tasks_);
    inputs.swap(pending_inputs_);
  }
  for (auto& task : tasks) task(eddy_.get());
  for (Input& input : inputs) inputs_.push_back(std::move(input));
}

DispatchUnit::StepResult SharedCQDispatchUnit::Step() {
  DrainPlanQueue();
  auto [consumed, exhausted] = PumpInputs(
      inputs_, &next_input_, opts_.quantum,
      [&](SourceId source, const TupleBatch& b, int64_t enq_us) {
        // The sampled-batch boundary: arms the thread-local context for the
        // whole synchronous dataflow below (eddy hops, SteM ops, egress).
        obs::TraceBatchScope scope(tracer_.get(), enq_us);
        if (scope.sampled()) obs::CurrentTrace().shard = shard_;
        if (scope.sampled() && enq_us > 0) {
          tracer_->Record(obs::SpanKind::kQueueWait, source, 0, enq_us,
                          NowMicros() - enq_us);
        }
        eddy_->IngestBatch(b);
        Flush();
      });
  StepResult r = consumed > 0 ? StepResult::kProgress
                 : exhausted  ? StepResult::kDone
                              : StepResult::kIdle;
  CountStep(r);
  return r;
}

// --- WindowedQueryDispatchUnit -----------------------------------------------

WindowedQueryDispatchUnit::WindowedQueryDispatchUnit(
    std::string name, WindowedQuery query, WindowSink sink, size_t quantum,
    OnlineWindowRunner::Options runner_opts)
    : DispatchUnit(std::move(name)),
      runner_(std::move(query), runner_opts),
      sink_(std::move(sink)),
      quantum_(quantum) {}

void WindowedQueryDispatchUnit::AddInput(SourceId source,
                                         FjordConsumer consumer) {
  inputs_.push_back(Input{source, std::move(consumer), false});
}

DispatchUnit::StepResult WindowedQueryDispatchUnit::Step() {
  auto [consumed, exhausted] = PumpInputs(
      inputs_, &next_input_, quantum_,
      [&](SourceId s, const TupleBatch& b, int64_t) {
        for (const Tuple& t : b) runner_.Ingest(s, t);
        // Control lane applies after the rows (the lane's contract).
        for (const Punctuation& p : b.punctuations()) runner_.OnPunctuation(p);
      });
  if (exhausted) {
    // End of streams: everything that will ever arrive has arrived.
    for (auto& input : inputs_) {
      runner_.AdvanceWatermark(input.source, kMaxTimestamp);
    }
  }
  runner_.Poll([&](const WindowResult& r) { sink_(r); });
  StepResult r = consumed > 0 ? StepResult::kProgress
                 : (exhausted || runner_.Done()) ? StepResult::kDone
                                                 : StepResult::kIdle;
  CountStep(r);
  return r;
}

}  // namespace tcq
