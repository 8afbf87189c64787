// Execution Object (paper §4.2.2): "we use the term Execution Object to
// describe the threads of control in the TelegraphCQ executor. Each EO is
// mapped to a single system thread." An EO repeatedly asks its scheduler
// for the next Dispatch Unit and runs one non-preemptive quantum. When every
// DU idled in a round (or none is runnable) it parks on its own WorkSignal
// until a producer rings it through one of its DUs (DispatchUnit::RingHost):
// fjord enqueues, plan-queue tasks and new inputs ring; so do new DUs and
// Stop() (DESIGN.md §15). An EO never exits on its own: with
// no runnable DU it parks until Stop(), so DUs can be added or migrated in
// at any time.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/wakeup.h"
#include "exec/dispatch_unit.h"
#include "exec/scheduler.h"

namespace tcq {

class ExecutionObject {
 public:
  /// When `metrics` is null the EO observes itself in a private registry;
  /// instruments are labeled with the EO's name (and per-DU counters with
  /// each DU's name).
  ExecutionObject(std::string name, std::unique_ptr<Scheduler> scheduler,
                  MetricsRegistryRef metrics = nullptr);
  ~ExecutionObject();

  const std::string& name() const { return name_; }

  /// Thread-safe: adds a DU (picked up on the next scheduling round), makes
  /// this EO the DU's host (its RingHost rings us) and rings.
  void AddDispatchUnit(std::shared_ptr<DispatchUnit> du);

  /// Thread-safe quiesce point: removes a DU, BLOCKING until any in-flight
  /// quantum of it finishes (DU quanta are non-preemptive; this waits out
  /// the current one rather than interrupting it). After a true return the
  /// caller owns the DU exclusively — no EO thread will step it again — so
  /// it can be mutated, migrated to another EO, or dropped. Returns false if
  /// the DU is not hosted here.
  bool RemoveDispatchUnit(const std::shared_ptr<DispatchUnit>& du);

  void Start();
  void Stop();

  bool running() const { return running_.load(); }
  uint64_t quanta_run() const { return quanta_->Value(); }
  /// Times the EO parked after an all-idle round, and times a ring woke a
  /// parked EO (a park that found a ring already landed is not a wakeup).
  uint64_t parks() const { return parks_->Value(); }
  uint64_t wakeups() const { return wakeups_->Value(); }
  /// True while the EO thread is inside Park(): it read the signal before
  /// its last idle round, so only a ring can wake it now.
  bool parked() const { return signal_.parked() != 0; }
  size_t num_dus() const;

 private:
  void Run();
  /// Whether every runnable DU idled since the round began (caller holds
  /// mu_). A DU added mid-round has not, so the EO steps it before parking.
  bool RoundIdleLocked() const;
  /// Clears `du`'s host if it is still this EO.
  void Detach(DispatchUnit* du);

  std::string name_;
  std::unique_ptr<Scheduler> scheduler_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<DispatchUnit>> dus_;
  std::vector<DuSchedInfo> infos_;
  /// Parallel to dus_: the round in which each DU last idled. A round
  /// starts at the signal read that a park would wait on.
  std::vector<uint64_t> idle_round_;
  uint64_t round_ = 1;
  /// The DU whose quantum is running right now (set under mu_ before the
  /// step, cleared after). RemoveDispatchUnit waits on step_done_ until its
  /// target is not this.
  DispatchUnit* stepping_ = nullptr;
  std::condition_variable step_done_;
  WorkSignal signal_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  MetricsRegistryRef metrics_;
  Counter* quanta_;
  /// tcq_eo_idle_backoffs_total: the park count (name kept for dashboards).
  Counter* parks_;
  Counter* wakeups_;
  Gauge* num_dus_gauge_;
  // Parallel to dus_: per-DU quanta/progress counters (scheduler picks).
  std::vector<Counter*> du_quanta_;
  std::vector<Counter*> du_progress_;
};

}  // namespace tcq
