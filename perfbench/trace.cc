#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

constexpr int kSimPid = 1;
constexpr int kHostPid = 2;

// Trace-event timestamps are microseconds; keep nanosecond precision.
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Names here are benchmark-chosen identifiers (no quotes or backslashes).
void PrintArgs(std::FILE* f,
               const std::vector<std::pair<std::string, double>>& values) {
  std::fputc('{', f);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                 values[i].first.c_str(), values[i].second);
  }
  std::fputc('}', f);
}

}  // namespace

size_t Tracer::BeginOp(const char* name, uint64_t op_id, int64_t parent,
                       int lane, switchfs::sim::SimTime now) {
  ops_.push_back(OpSpan{name, op_id, parent, lane, 0, now, now, HostNowNs(), 0});
  return ops_.size() - 1;
}

void Tracer::EndOp(size_t span, switchfs::sim::SimTime now, int status) {
  OpSpan& s = ops_[span];
  s.sim_end = now;
  s.host_end = HostNowNs();
  s.status = status;
}

size_t Tracer::BeginPhase(std::string name) {
  phases_.push_back(PhaseSpan{std::move(name), HostNowNs(), 0});
  return phases_.size() - 1;
}

void Tracer::EndPhase(size_t span) { phases_[span].host_end = HostNowNs(); }

void Tracer::Counter(std::string name, switchfs::sim::SimTime at,
                     std::vector<std::pair<std::string, double>> values) {
  counters_.push_back(CounterSample{std::move(name), at, std::move(values)});
}

bool Tracer::Write(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return false;
  }
  std::FILE* f = file.get();
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated\"}},\n"
               "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host\"}}",
               kSimPid, kHostPid);
  for (size_t i = 0; i < ops_.size(); ++i) {
    const OpSpan& s = ops_[i];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu,\"status\":%d,"
                 "\"host_ts\":%.3f,\"host_dur\":%.3f}}",
                 kSimPid, s.lane, s.name, Us(s.sim_start),
                 Us(s.sim_end - s.sim_start), i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op_id), s.status,
                 Us(s.host_start), Us(s.host_end - s.host_start));
  }
  for (const PhaseSpan& s : phases_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 kHostPid, s.name.c_str(), Us(s.host_start),
                 Us(s.host_end - s.host_start));
  }
  for (const CounterSample& c : counters_) {
    std::fprintf(f, ",\n{\"ph\":\"C\",\"pid\":%d,\"name\":\"%s\",\"ts\":%.3f,"
                 "\"args\":",
                 kSimPid, c.name.c_str(), Us(c.at));
    PrintArgs(f, c.values);
    std::fputc('}', f);
  }
  std::fprintf(f, "\n],\"otherData\":");
  PrintArgs(f, meta_);
  std::fprintf(f, "}\n");
  return std::fflush(f) == 0 && std::ferror(f) == 0;
}

}  // namespace perfbench
