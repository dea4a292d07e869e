// SwitchFS repository benchmark binary.
//
//   switchfs_perfbench --workload <create-storm|pangu-mix|hot-stat>
//                      --seed <n> --seconds <s> [--trace-out <file>]
//
// Untraced (no --trace-out): runs whole iterations (set-up, loaded phase,
// drain, solo phase, post-drain check), each on its own seed
// derived from --seed. The iteration count follows from --seconds alone, so
// one (seed, seconds) pair always simulates the same ops. Simulated results
// pool every iteration. Host results are medians over iterations, except
// host_kops, which is the fastest iteration's: on a shared host, noise only
// ever slows an iteration down.
//
// Traced (--trace-out): the first iteration runs untraced, then again traced.
// The traced run records spans and samples and writes them as Chrome
// trace-event JSON; its simulated results must equal the untraced run's.
//
// The last line of stdout is one JSON object with every result; the other
// lines are human-readable.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "iteration.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val);
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

// Nearest-rank percentile of a sorted sample.
int64_t Percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

// Per-workload sizes. The warm-up covers the ~5 ms of simulated time the
// change-log backlog takes to reach its steady level. hot-stat ops are about
// ten times cheaper to simulate, so it runs more of them.
RunConfig ConfigFor(Workload workload, uint64_t seed) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = seed;
  const bool hot = workload == Workload::kHotStat;
  cfg.warmup_ops = hot ? 15000 : 12000;
  cfg.measured_ops = hot ? 150000 : 40000;
  return cfg;
}

// Host seconds one iteration takes on one x86-64 core; --seconds divided by
// this is the iteration count.
double IterationSeconds(Workload workload) {
  return workload == Workload::kHotStat ? 3.0 : 5.0;
}

// Seed of iteration k (SplitMix64 step, so neighbouring seeds diverge).
uint64_t IterationSeed(uint64_t seed, int k) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(k) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  Workload workload = Workload::kCreateStorm;
  if (!ParseArgs(argc, argv, &args) || !ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: %s --workload <create-storm|pangu-mix|hot-stat> "
                 "--seed N --seconds S [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const bool traced = !args.trace_out.empty();
  const int iterations =
      traced ? 1
             : std::clamp(static_cast<int>(std::lround(
                              args.seconds / IterationSeconds(workload))),
                          2, 30);

  // Pooled simulated results and per-iteration host results.
  SimOutcome pooled;
  std::vector<int64_t> drains;
  std::vector<double> setup, host_kops, cluster_s, preload_s, clients_s,
      loaded_s, drain_s;
  std::vector<std::string> problems;
  uint64_t dirs_verified = 0;
  uint64_t loaded_ops = 0;
  double overhead_ratio = 0;
  Tracer tracer;
  for (int k = 0; k < iterations && problems.empty(); ++k) {
    const RunConfig cfg = ConfigFor(workload, IterationSeed(args.seed, k));
    const IterationResult r = RunIteration(cfg, nullptr);
    for (const std::string& p : r.problems) {
      problems.push_back("iteration " + std::to_string(k + 1) + ": " + p);
    }
    const uint64_t ops = cfg.warmup_ops + cfg.measured_ops;
    loaded_ops += ops;
    std::fprintf(stderr,
                 "iteration %d: setup %.3f s, loaded %.3f s, drain %.3f s, "
                 "solo %.3f s, verify %.3f s\n",
                 k + 1, r.host.setup_s(), r.host.loaded_s, r.host.drain_s,
                 r.host.solo_s, r.host.verify_s);
    setup.push_back(r.host.setup_s());
    cluster_s.push_back(r.host.cluster_s);
    preload_s.push_back(r.host.preload_s);
    clients_s.push_back(r.host.clients_s);
    loaded_s.push_back(r.host.loaded_s);
    drain_s.push_back(r.host.drain_s);
    host_kops.push_back(static_cast<double>(ops) / r.host.loaded_s / 1e3);
    dirs_verified += r.dirs_verified;
    pooled.window += r.sim.window;
    Append(pooled.latencies, r.sim.latencies);
    Append(pooled.solo_latencies, r.sim.solo_latencies);
    drains.push_back(r.sim.drain);
    pooled.attempted += r.sim.attempted;
    pooled.failed += r.sim.failed;
    for (const auto& [key, count] : r.sim.failures) {
      pooled.failures[key] += count;
    }
    pooled.loaded_events += r.sim.loaded_events;

    if (traced && problems.empty()) {
      const IterationResult t = RunIteration(cfg, &tracer);
      for (const std::string& p : t.problems) {
        problems.push_back("traced run: " + p);
      }
      if (problems.empty() && !(t.sim == r.sim)) {
        problems.push_back("traced run: simulated results differ from the "
                           "untraced run");
      }
      overhead_ratio = t.host.loaded_s / r.host.loaded_s;
      tracer.Meta("overhead_ratio", overhead_ratio);
      if (problems.empty() && !tracer.Write(args.trace_out)) {
        problems.push_back("cannot write " + args.trace_out);
      }
    }
  }

  std::sort(pooled.latencies.begin(), pooled.latencies.end());
  std::sort(pooled.solo_latencies.begin(), pooled.solo_latencies.end());
  const size_t n = pooled.latencies.size();
  const auto p999_rank =
      static_cast<size_t>(std::ceil(0.999 * static_cast<double>(n)));
  double drain_sum = 0;
  for (const int64_t d : drains) {
    drain_sum += static_cast<double>(d);
  }
  const double drain_mean_ms =
      drain_sum / static_cast<double>(std::max<size_t>(1, drains.size())) / 1e6;
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };

  std::printf("{\"correct\": %s, \"iterations\": %d, \"attempted\": %llu, "
              "\"failed\": %llu, \"dirs_verified\": %llu",
              problems.empty() ? "true" : "false", iterations,
              static_cast<unsigned long long>(pooled.attempted),
              static_cast<unsigned long long>(pooled.failed),
              static_cast<unsigned long long>(dirs_verified));
  std::printf(
      ", \"sim\": {\"throughput_kops\": %.17g, \"latency_p50_us\": %.17g, "
      "\"latency_p99_us\": %.17g, \"latency_p999_us\": %.17g, "
      "\"latency_samples\": %zu, \"latency_beyond_p999\": %zu, "
      "\"solo_latency_p50_us\": %.17g, \"solo_samples\": %zu, "
      "\"drain_ms\": %.17g, \"drains\": %zu, \"drain_resolution_ms\": %.17g, "
      "\"error_rate\": %.17g, \"events_per_op\": %.17g}",
      static_cast<double>(n) / (static_cast<double>(pooled.window) / 1e9) / 1e3,
      us(Percentile(pooled.latencies, 0.5)),
      us(Percentile(pooled.latencies, 0.99)),
      us(Percentile(pooled.latencies, 0.999)), n, n - std::min(n, p999_rank),
      us(Percentile(pooled.solo_latencies, 0.5)), pooled.solo_latencies.size(),
      drain_mean_ms, drains.size(),
      static_cast<double>(kDrainTick) / 1e6,
      static_cast<double>(pooled.failed) /
          static_cast<double>(std::max<uint64_t>(1, pooled.attempted)),
      static_cast<double>(pooled.loaded_events) /
          static_cast<double>(std::max<uint64_t>(1, loaded_ops)));
  std::printf(", \"host\": {\"host_kops\": %.17g, \"setup_s\": %.17g, "
              "\"peak_rss_mb\": %.17g, \"setup_cluster_s\": %.17g, "
              "\"setup_preload_s\": %.17g, \"setup_clients_s\": %.17g, "
              "\"loaded_s\": %.17g, \"drain_s\": %.17g, "
              "\"host_ns_per_event\": %.17g",
              *std::max_element(host_kops.begin(), host_kops.end()),
              Median(setup), PeakRssMb(), Median(cluster_s),
              Median(preload_s), Median(clients_s), Median(loaded_s),
              Median(drain_s),
              Median(loaded_s) * 1e9 /
                  (static_cast<double>(pooled.loaded_events) / iterations));
  if (traced) {
    std::printf(", \"trace_overhead_ratio\": %.17g", overhead_ratio);
  }
  std::printf("}, \"failures\": {");
  bool first = true;
  for (const auto& [key, count] : pooled.failures) {
    std::printf("%s", first ? "" : ", ");
    PrintJsonString(key);
    std::printf(": %llu", static_cast<unsigned long long>(count));
    first = false;
  }
  std::printf("}, \"problems\": [");
  for (size_t i = 0; i < problems.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    PrintJsonString(problems[i]);
  }
  std::printf("]}\n");
  return problems.empty() ? 0 : 1;
}
