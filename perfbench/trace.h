// In-memory span and counter recorder for the traced benchmark run, written
// out as Chrome trace-event JSON (chrome://tracing, Perfetto) when the run
// ends.
//
// Two clocks, kept apart by process id:
//  * pid 1 "simulated": op spans and counter samples, timestamped in
//    simulated microseconds. Each op span also carries its host start/end.
//  * pid 2 "host": set-up steps and benchmark phases, timestamped in host
//    microseconds since the tracer was created.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int64_t HostNowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Simulated-clock span around one MetadataService call or one benchmark
  // op. `parent` is the index BeginOp returned for the enclosing span, or -1.
  // `name` must be a string literal.
  size_t BeginOp(const char* name, uint64_t op_id, int64_t parent, int lane,
                 switchfs::sim::SimTime now);
  void EndOp(size_t span, switchfs::sim::SimTime now, int status);

  // Host-clock span around a set-up step or a benchmark phase.
  size_t BeginPhase(std::string name);
  void EndPhase(size_t span);

  // Counter sample on the simulated clock.
  void Counter(std::string name, switchfs::sim::SimTime at,
               std::vector<std::pair<std::string, double>> values);

  // Run-level facts written under "otherData".
  void Meta(std::string key, double value) {
    meta_.emplace_back(std::move(key), value);
  }

  bool Write(const std::string& path) const;

 private:
  struct OpSpan {
    const char* name;
    uint64_t op_id;
    int64_t parent;
    int lane;
    int status;
    switchfs::sim::SimTime sim_start;
    switchfs::sim::SimTime sim_end;
    int64_t host_start;
    int64_t host_end;
  };
  struct PhaseSpan {
    std::string name;
    int64_t host_start;
    int64_t host_end;
  };
  struct CounterSample {
    std::string name;
    switchfs::sim::SimTime at;
    std::vector<std::pair<std::string, double>> values;
  };

  std::chrono::steady_clock::time_point origin_;
  std::vector<OpSpan> ops_;
  std::vector<PhaseSpan> phases_;
  std::vector<CounterSample> counters_;
  std::vector<std::pair<std::string, double>> meta_;
};

// Scoped host-clock phase span; a null tracer records nothing.
class PhaseScope {
 public:
  PhaseScope(Tracer* tracer, std::string name)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->BeginPhase(std::move(name)) : 0) {}
  ~PhaseScope() {
    if (tracer_ != nullptr) {
      tracer_->EndPhase(span_);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Tracer* tracer_;
  size_t span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
