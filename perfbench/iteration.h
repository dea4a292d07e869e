// One benchmark iteration: build the fixed SwitchFS cluster, preload the
// namespace, run the closed-loop load, measure the change-log drain, run the
// same mix with one op in flight, and check the namespace against the model.
#ifndef PERFBENCH_ITERATION_H_
#define PERFBENCH_ITERATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

// Closed-loop slots of the loaded phase, one warm client each (§7.2).
inline constexpr int kInflight = 256;
// Ops of the one-in-flight phase.
inline constexpr uint64_t kSoloOps = 500;
// drain_ms resolution: the change-log backlog is polled on this tick.
inline constexpr switchfs::sim::SimTime kDrainTick =
    switchfs::sim::Microseconds(10);
// Traced run only: change-log backlog and per-server CPU sample period.
inline constexpr switchfs::sim::SimTime kSampleTick =
    switchfs::sim::Microseconds(50);

struct RunConfig {
  Workload workload = Workload::kCreateStorm;
  uint64_t seed = 1;
  uint64_t warmup_ops = 0;    // loaded-phase ops before the measured window
  uint64_t measured_ops = 0;  // loaded-phase ops inside the window
};

// Everything the modelled system decides. Runs with one seed, traced or
// not, must produce equal outcomes.
struct SimOutcome {
  switchfs::sim::SimTime window = 0;    // measured window
  std::vector<int64_t> latencies;       // measured loaded-phase ops
  std::vector<int64_t> solo_latencies;
  switchfs::sim::SimTime drain = 0;
  uint64_t attempted = 0;  // loaded (warm-up included) + solo ops
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // "<op class>:<status>" -> count
  uint64_t loaded_events = 0;  // simulator events, benchmark ticks excluded

  bool operator==(const SimOutcome&) const = default;
};

// Host-clock seconds per phase.
struct HostTimes {
  double cluster_s = 0;
  double preload_s = 0;
  double clients_s = 0;
  double loaded_s = 0;
  double drain_s = 0;
  double solo_s = 0;
  double verify_s = 0;
  double setup_s() const { return cluster_s + preload_s + clients_s; }
};

struct IterationResult {
  SimOutcome sim;
  HostTimes host;
  uint64_t dirs_verified = 0;
  // Post-drain check failures and stuck phases; empty means correct.
  std::vector<std::string> problems;
};

IterationResult RunIteration(const RunConfig& config, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_ITERATION_H_
