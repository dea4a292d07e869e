// Single-threaded deterministic discrete-event simulator. Events with equal
// timestamps fire in scheduling order (FIFO tie-break), which makes every run
// with the same seed bit-for-bit reproducible — a property the integration
// and property tests rely on.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "src/sim/time.h"

namespace switchfs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }
  // Events executed so far by Step/Run/RunUntil/RunWhileWorkPending: the
  // simulator's own host-cost unit.
  uint64_t events_executed() const { return executed_; }

  // Schedules fn to run at absolute time `at` (clamped to Now()).
  void ScheduleAt(SimTime at, std::function<void()> fn);
  // Schedules fn to run `delay` after Now().
  void ScheduleAfter(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Runs until the event queue is empty. Returns the final time.
  SimTime Run();
  // Runs until the queue is empty or simulated time would exceed `deadline`.
  // Events at exactly `deadline` are executed.
  SimTime RunUntil(SimTime deadline);
  // Executes at most one event; returns false if the queue was empty.
  bool Step();

  // ---- work sources (run-while-work-pending mode) -------------------------
  // A work source is a component holding work the event queue cannot see:
  // tasks parked in per-shard run queues, standing control-plane backlogs.
  // `pending` reports how much is queued; `kick` starts drains for it
  // (scheduling events). Sources let RunWhileWorkPending make background
  // work progress without an external op driving it.
  struct WorkSource {
    std::function<size_t()> pending;
    std::function<void()> kick;
  };
  uint64_t RegisterWorkSource(WorkSource source);
  void UnregisterWorkSource(uint64_t id);
  size_t pending_source_work() const;

  // Like Run()/RunUntil(deadline), but after the event queue drains, polls
  // the registered work sources: if any reports pending work, kicks them
  // all and keeps running. Returns when (a) the queue is empty AND every
  // source reports zero pending, (b) the deadline passes, or (c) a kick
  // round makes no progress (no events scheduled and pending unchanged —
  // a stuck source must not livelock the loop).
  SimTime RunWhileWorkPending(SimTime deadline = kSimTimeMax);

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  uint64_t next_source_id_ = 1;
  std::map<uint64_t, WorkSource> sources_;  // ordered: deterministic kicks
};

}  // namespace switchfs::sim

#endif  // SRC_SIM_SIMULATOR_H_
