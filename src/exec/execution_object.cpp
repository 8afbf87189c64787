#include "exec/execution_object.h"

#include <algorithm>

namespace tcq {

ExecutionObject::ExecutionObject(std::string name,
                                 std::unique_ptr<Scheduler> scheduler,
                                 MetricsRegistryRef metrics)
    : name_(std::move(name)),
      scheduler_(std::move(scheduler)),
      metrics_(OrPrivateRegistry(std::move(metrics))) {
  quanta_ = metrics_->GetCounter(MetricName("tcq_eo_quanta_total", "eo",
                                            name_));
  parks_ = metrics_->GetCounter(
      MetricName("tcq_eo_idle_backoffs_total", "eo", name_));
  wakeups_ = metrics_->GetCounter(
      MetricName("tcq_eo_wakeups_total", "eo", name_));
  num_dus_gauge_ = metrics_->GetGauge(MetricName("tcq_eo_dus", "eo", name_));
}

ExecutionObject::~ExecutionObject() {
  Stop();
  // DUs may outlive this EO: none may ring its signal after it is gone.
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& du : dus_) Detach(du.get());
}

void ExecutionObject::Detach(DispatchUnit* du) {
  WorkSignal* mine = &signal_;
  du->host_.compare_exchange_strong(mine, nullptr);
}

void ExecutionObject::AddDispatchUnit(std::shared_ptr<DispatchUnit> du) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    du_quanta_.push_back(metrics_->GetCounter(
        MetricName("tcq_du_quanta_total", "du", du->name())));
    du_progress_.push_back(metrics_->GetCounter(
        MetricName("tcq_du_progress_total", "du", du->name())));
    dus_.push_back(std::move(du));
    infos_.push_back(DuSchedInfo{});
    idle_round_.push_back(0);
    num_dus_gauge_->Set(static_cast<int64_t>(dus_.size()));
    // Producers that read the host after this store ring us; one that read
    // it before enqueued before this point, so the ring below covers it.
    dus_.back()->host_.store(&signal_);
  }
  signal_.Ring();
}

bool ExecutionObject::RemoveDispatchUnit(const std::shared_ptr<DispatchUnit>& du) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = std::find(dus_.begin(), dus_.end(), du);
  if (it == dus_.end()) return false;
  // Wait out the in-flight quantum (if any): DUs are non-preemptive, so the
  // only safe detach point is a quantum boundary.
  step_done_.wait(lock, [&] { return stepping_ != du.get(); });
  // Re-find: the vector may have shifted while we waited.
  it = std::find(dus_.begin(), dus_.end(), du);
  if (it == dus_.end()) return false;
  size_t idx = static_cast<size_t>(it - dus_.begin());
  dus_.erase(dus_.begin() + idx);
  infos_.erase(infos_.begin() + idx);
  idle_round_.erase(idle_round_.begin() + idx);
  du_quanta_.erase(du_quanta_.begin() + idx);
  du_progress_.erase(du_progress_.begin() + idx);
  num_dus_gauge_->Set(static_cast<int64_t>(dus_.size()));
  Detach(du.get());
  return true;
}

size_t ExecutionObject::num_dus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dus_.size();
}

void ExecutionObject::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false);
  thread_ = std::thread([this] { Run(); });
}

bool ExecutionObject::RoundIdleLocked() const {
  for (size_t i = 0; i < infos_.size(); ++i) {
    if (!infos_[i].done && idle_round_[i] != round_) return false;
  }
  return true;
}

void ExecutionObject::Run() {
  // The park/ring protocol (DESIGN.md §15): the signal is read BEFORE a
  // round's first step, and the EO parks on that value only once every
  // runnable DU has idled since. Work that arrived before the read is seen
  // by the round's steps; work that arrives after it rang the signal, so
  // the park returns at once. Reading it before the stop_ check likewise
  // makes Stop()'s ring reach a parked EO.
  uint64_t seen = signal_.seq();
  while (!stop_.load(std::memory_order_relaxed)) {
    std::shared_ptr<DispatchUnit> du;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t pick = scheduler_->PickNext(infos_);
      if (pick != SIZE_MAX) {
        du = dus_[pick];
        stepping_ = du.get();
      }
    }
    // With no runnable DU the EO parks until one is added or migrated in.
    if (du != nullptr) {
      DispatchUnit::StepResult result = du->Step();
      quanta_->Inc();
      const bool progressed = result == DispatchUnit::StepResult::kProgress;
      bool round_idle = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        stepping_ = nullptr;
        // Re-find by pointer: RemoveDispatchUnit may have erased OTHER DUs
        // while this quantum ran, shifting indices.
        auto it = std::find(dus_.begin(), dus_.end(), du);
        if (it != dus_.end()) {
          size_t idx = static_cast<size_t>(it - dus_.begin());
          DuSchedInfo& info = infos_[idx];
          info.recent_progress =
              0.8 * info.recent_progress + 0.2 * (progressed ? 1.0 : 0.0);
          if (result == DispatchUnit::StepResult::kDone) info.done = true;
          du_quanta_[idx]->Inc();
          if (progressed) {
            du_progress_[idx]->Inc();
          } else {
            idle_round_[idx] = round_;
          }
        }
        round_idle = !progressed && RoundIdleLocked();
      }
      step_done_.notify_all();
      if (progressed) {
        // Progress starts a new round: the next park must follow a full
        // idle pass that began after this point.
        seen = signal_.seq();
        ++round_;
      }
      if (!round_idle) continue;
    }
    parks_->Inc();
    if (signal_.Park(seen)) wakeups_->Inc();
    seen = signal_.seq();
    ++round_;
  }
  running_.store(false);
}

void ExecutionObject::Stop() {
  stop_.store(true);
  signal_.Ring();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

}  // namespace tcq
