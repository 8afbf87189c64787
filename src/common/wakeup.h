// Event-driven wake-ups for threads that would otherwise poll with sleeps.
//
// WorkSignal is the park/ring protocol behind the Fjords design point (paper
// §2.3): consumers poll non-blocking queues, and one that finds nothing to do
// parks until a producer rings, instead of sleeping on a timer. StopFlag is
// the same idea for periodic loops: they sleep until their next tick, and a
// stop request wakes them at once.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace tcq {

/// A sequence number that producers bump and idle consumers park on.
///
/// Protocol: a consumer reads seq() BEFORE it looks for work; if it finds
/// none it calls Park(seen), which returns once the sequence differs from
/// `seen`. A producer calls Ring() AFTER its work is visible (e.g. after
/// the queue lock is released). No wakeup is lost: Ring bumps the sequence
/// and then reads the parked count, Park raises the parked count and then
/// reads the sequence (all seq_cst). So either the ringer sees the parker
/// and notifies under the mutex, or the parker's check sees the new value.
/// A ring with no parked consumer costs one atomic add and one load.
class WorkSignal {
 public:
  void Ring() {
    seq_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) {
      // Taking the mutex orders this ring after a parker's predicate check
      // or before it: the parker either sees the new value or is waiting.
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_.notify_all();
    }
  }

  uint64_t seq() const { return seq_.load(std::memory_order_seq_cst); }

  /// Threads inside Park() right now. Each read the sequence before it
  /// entered, so any later Ring() wakes it (a test's "is it parked" probe).
  uint32_t parked() const { return parked_.load(std::memory_order_seq_cst); }

  /// Blocks until a Ring() has bumped the sequence past `seen`. Returns
  /// true if it had to wait, false if a ring had already landed.
  bool Park(uint64_t seen) {
    parked_.fetch_add(1, std::memory_order_seq_cst);
    bool waited = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (seq_.load(std::memory_order_seq_cst) == seen) {
        waited = true;
        cv_.wait(lock);
      }
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
    return waited;
  }

 private:
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint32_t> parked_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The distinct signals one producer step must ring: a batch fanned out to
/// several consumers that park on one signal rings it once. Reused across
/// steps, so it allocates only while it grows.
class RingSet {
 public:
  void Add(WorkSignal* signal) {
    if (signal != nullptr &&
        std::find(signals_.begin(), signals_.end(), signal) == signals_.end()) {
      signals_.push_back(signal);
    }
  }

  /// Rings every signal added since the last call, once each.
  void RingAll() {
    for (WorkSignal* signal : signals_) signal->Ring();
    signals_.clear();
  }

 private:
  std::vector<WorkSignal*> signals_;
};

/// A stop request a periodic loop sleeps on: WaitUntil returns at the
/// deadline, or at once when Stop() is called.
class StopFlag {
 public:
  /// Clears the request; call before (re)starting the loop's thread.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = false;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  bool stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }

  /// Sleeps until `deadline` or a Stop(); returns true once stopped.
  bool WaitUntil(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] { return stopped_; });
    return stopped_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

}  // namespace tcq
