#include "iteration.h"

#include <algorithm>
#include <ctime>
#include <memory>
#include <utility>

#include "src/core/cluster.h"
#include "src/core/metadata_service.h"
#include "src/sim/task.h"

namespace perfbench {

namespace core = switchfs::core;
namespace sim = switchfs::sim;
using switchfs::StatusCode;
using sim::SimTime;

namespace {

// Fixed set-up (perfbench/README.md, "Fixed set-up").
constexpr uint32_t kServers = 8;
constexpr int kCoresPerServer = 4;
constexpr uint64_t kClusterSeed = 42;
constexpr int kVerifyWorkers = 32;
// Upper bounds that turn a stuck protocol into a reported failure.
constexpr SimTime kDrainLimit = sim::Seconds(10);
constexpr uint64_t kQuiesceEventLimit = 200'000'000;

// Host phase times are CPU seconds of this (the only) thread: the simulator
// is single-threaded, and CPU time leaves out the time other processes on a
// shared host hold the core.
struct CpuClock {
  using time_point = double;
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }
};
using Clock = CpuClock;
double Since(double t) { return Clock::now() - t; }

std::unique_ptr<core::Cluster> MakeCluster() {
  core::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.cores_per_server = kCoresPerServer;
  cfg.tracker = core::TrackerMode::kSwitch;
  cfg.async_updates = true;
  cfg.compaction = true;
  cfg.seed = kClusterSeed;
  // Dirty-set sizing of bench::MakeSwitchFs (10 stages x 16K registers).
  cfg.switch_config.dirty_set.num_stages = 10;
  cfg.switch_config.dirty_set.registers_per_stage = 1 << 14;
  cfg.server_template.switch_cache = true;
  return std::make_unique<core::Cluster>(cfg);
}

// Spans around the MetadataService calls of one op (no-ops untraced).
struct SpanCtx {
  Tracer* tracer;
  sim::Simulator* sim;
  uint64_t op_id;
  int64_t parent;
  int lane;

  size_t Begin(const char* name) const {
    return tracer != nullptr
               ? tracer->BeginOp(name, op_id, parent, lane, sim->Now())
               : 0;
  }
  void End(size_t span, StatusCode code) const {
    if (tracer != nullptr) {
      tracer->EndOp(span, sim->Now(), static_cast<int>(code));
    }
  }
};

// OpenDir -> ReaddirPage... -> CloseDir; appends entry names to `names` when
// given. Returns the first non-OK status.
sim::Task<StatusCode> ListDir(core::MetadataService& client,
                              const std::string& path, SpanCtx spans,
                              std::vector<std::string>* names) {
  size_t span = spans.Begin("opendir");
  switchfs::StatusOr<core::DirHandle> handle = co_await client.OpenDir(path);
  spans.End(span, handle.status().code());
  if (!handle.ok()) {
    co_return handle.status().code();
  }
  const core::DirHandle h = *handle;
  StatusCode result = StatusCode::kOk;
  uint64_t cookie = core::kDirStreamStart;
  while (true) {
    span = spans.Begin("readdir_page");
    switchfs::StatusOr<core::DirPage> page =
        co_await client.ReaddirPage(h, cookie);
    spans.End(span, page.status().code());
    if (!page.ok()) {
      result = page.status().code();
      break;
    }
    if (names != nullptr) {
      for (const core::DirEntry& e : page->entries) {
        names->push_back(e.name);
      }
    }
    if (page->at_end) {
      break;
    }
    cookie = page->next_cookie;
  }
  span = spans.Begin("closedir");
  const switchfs::Status closed = co_await client.CloseDir(h);
  spans.End(span, closed.code());
  if (result == StatusCode::kOk) {
    result = closed.code();
  }
  co_return result;
}

sim::Task<StatusCode> Dispatch(core::MetadataService& client, const Op& op,
                               SpanCtx spans) {
  const std::string path =
      op.name.empty() ? DirPath(op.dir) : FilePath(op.dir, op.name);
  switch (op.cls) {
    case OpClass::kCreate: {
      const switchfs::Status s = co_await client.Create(path);
      co_return s.code();
    }
    case OpClass::kUnlink: {
      const switchfs::Status s = co_await client.Unlink(path);
      co_return s.code();
    }
    case OpClass::kRename: {
      const std::string to = FilePath(op.dir, op.name2);
      const switchfs::Status s = co_await client.Rename(path, to);
      co_return s.code();
    }
    case OpClass::kStat: {
      auto r = co_await client.Stat(path);
      co_return r.status().code();
    }
    case OpClass::kOpen: {
      size_t span = spans.Begin("open");
      auto r = co_await client.Open(path);
      spans.End(span, r.status().code());
      if (!r.ok()) {
        co_return r.status().code();
      }
      span = spans.Begin("close");
      const switchfs::Status s = co_await client.Close(path);
      spans.End(span, s.code());
      co_return s.code();
    }
    case OpClass::kSetAttr: {
      // chmod-class delta that differs from the 0644 creation mode.
      core::AttrDelta delta;
      delta.set_mode = true;
      delta.mode = 0640;
      const switchfs::Status s = co_await client.SetAttr(path, delta);
      co_return s.code();
    }
    case OpClass::kStatDir: {
      auto r = co_await client.StatDir(path);
      co_return r.status().code();
    }
    case OpClass::kReaddir:
      co_return co_await ListDir(client, path, spans, nullptr);
  }
  co_return StatusCode::kInvalidArgument;
}

std::vector<std::pair<std::string, double>> CounterSnapshot(
    core::Cluster& cluster) {
  const core::ServerStats s = cluster.TotalStats();
  const auto& dp = cluster.data_plane()->stats();
  const auto& net = cluster.network().stats();
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<std::pair<std::string, double>> v = {
      {"server.ops", d(s.ops)},
      {"server.aggregations", d(s.aggregations)},
      {"server.agg_retries", d(s.agg_retries)},
      {"server.entries_applied", d(s.entries_applied)},
      {"server.entries_deduped", d(s.entries_deduped)},
      {"server.pushes_sent", d(s.pushes_sent)},
      {"server.pushes_local", d(s.pushes_local)},
      {"server.push_failures", d(s.push_failures)},
      {"server.push_dirs_sent", d(s.push_dirs_sent)},
      {"server.push_entries_sent", d(s.push_entries_sent)},
      {"server.push_pace_hints", d(s.push_pace_hints)},
      {"server.push_batches_deduped", d(s.push_batches_deduped)},
      {"server.cross_shard_handoffs", d(s.cross_shard_handoffs)},
      {"server.fallbacks", d(s.fallbacks)},
      {"server.stale_cache_bounces", d(s.stale_cache_bounces)},
      {"server.cache_installs", d(s.cache_installs)},
      {"server.cache_evicts", d(s.cache_evicts)},
      {"pswitch.queries", d(dp.queries)},
      {"pswitch.inserts", d(dp.inserts)},
      {"pswitch.insert_fallbacks", d(dp.insert_fallbacks)},
      {"pswitch.removes", d(dp.removes)},
      {"pswitch.stale_removes", d(dp.stale_removes)},
      {"pswitch.multicast_packets", d(dp.multicast_packets)},
      {"pswitch.cross_pipe_mirrors", d(dp.cross_pipe_mirrors)},
      {"cache.hits", d(dp.mc_hits)},
      {"cache.misses", d(dp.mc_misses)},
      {"cache.installs", d(dp.mc_installs)},
      {"cache.install_rejects", d(dp.mc_install_rejects)},
      {"cache.evicts", d(dp.mc_evicts)},
      {"net.packets_sent", d(net.packets_sent)},
      {"net.packets_dropped", d(net.packets_dropped)},
      {"net.switch_traversals", d(net.switch_traversals)},
  };
  for (uint32_t i = 0; i < cluster.ServerCount(); ++i) {
    v.emplace_back("cpu.busy_ns.s" + std::to_string(i),
                   d(static_cast<uint64_t>(cluster.server(i).cpu().busy_time())));
  }
  return v;
}

// Shared state of the closed-loop slots of one phase.
struct Loop {
  core::Cluster* cluster;
  sim::Simulator* sim;
  Generator* gen;
  Tracer* tracer;
  SimOutcome* out;
  uint64_t issued = 0;
  uint64_t limit = 0;         // op id at which this phase stops issuing
  uint64_t measure_from = 0;  // first measured op id of this phase
  std::vector<int64_t>* latencies = nullptr;
  int running = 0;
  SimTime window_start = 0;
  SimTime window_end = 0;
  uint64_t bench_events = 0;  // events the benchmark itself scheduled
  bool sampling = false;
};

sim::Task<void> Slot(Loop* loop, core::MetadataService* client, int lane) {
  while (loop->issued < loop->limit) {
    const uint64_t id = loop->issued++;
    const Op op = loop->gen->Next();
    const SimTime start = loop->sim->Now();
    if (id == loop->measure_from) {
      loop->window_start = start;
      if (loop->tracer != nullptr && loop->latencies == &loop->out->latencies) {
        loop->tracer->Counter("window_start", start,
                              CounterSnapshot(*loop->cluster));
      }
    }
    SpanCtx spans{loop->tracer, loop->sim, id, -1, lane};
    const size_t span = spans.Begin(OpClassName(op.cls));
    spans.parent = static_cast<int64_t>(span);
    const StatusCode code = co_await Dispatch(*client, op, spans);
    spans.End(span, code);
    const SimTime end = loop->sim->Now();
    loop->gen->Complete(op, code == StatusCode::kOk);
    ++loop->out->attempted;
    if (code != StatusCode::kOk) {
      ++loop->out->failed;
      ++loop->out->failures[std::string(OpClassName(op.cls)) + ":" +
                            std::string(switchfs::StatusCodeName(code))];
    }
    if (id >= loop->measure_from) {
      loop->latencies->push_back(end - start);
      loop->window_end = std::max(loop->window_end, end);
    }
  }
  --loop->running;
}

// Steps the event loop until `done()`. Returns false if the queue empties
// first (the phase is stuck). Counts every event executed.
template <typename Pred>
bool StepUntil(sim::Simulator& s, Pred done, uint64_t* events) {
  while (!done()) {
    if (!s.Step()) {
      return false;
    }
    ++*events;
  }
  return true;
}

struct DrainPoll {
  bool drained = false;
  bool timed_out = false;
  SimTime at = 0;
};

// Polls TotalPendingChangeLogEntries() at from + k*tick, k >= 1 (walking
// every change log per event would dominate host time).
void SchedulePoll(Loop* loop, DrainPoll* poll, SimTime at, SimTime tick,
                  SimTime deadline) {
  loop->sim->ScheduleAt(at, [=] {
    ++loop->bench_events;
    if (loop->cluster->TotalPendingChangeLogEntries() == 0) {
      poll->drained = true;
      poll->at = at;
    } else if (at >= deadline) {
      poll->timed_out = true;
    } else {
      SchedulePoll(loop, poll, at + tick, tick, deadline);
    }
  });
}

// Polls until the backlog is empty; returns the drain time measured from
// `from`, or -1 if it did not drain within kDrainLimit.
SimTime DrainFrom(Loop* loop, SimTime from, SimTime tick, uint64_t* events) {
  DrainPoll poll;
  SchedulePoll(loop, &poll, from + tick, tick, from + kDrainLimit);
  if (!StepUntil(*loop->sim, [&] { return poll.drained || poll.timed_out; },
                 events) ||
      poll.timed_out) {
    return -1;
  }
  return poll.at - from;
}

// Traced run: samples the change-log backlog and every server's CPU run queue
// and busy time through the loaded phase and the drain. Stops rescheduling
// once `sampling` is cleared, which happens when the loaded ops are done and
// the backlog has drained, so it never keeps the event loop alive.
void ScheduleSample(Loop* loop, SimTime at, SimTime tick) {
  loop->sim->ScheduleAt(at, [=] {
    ++loop->bench_events;
    if (!loop->sampling) {
      return;
    }
    const size_t backlog = loop->cluster->TotalPendingChangeLogEntries();
    std::vector<std::pair<std::string, double>> queue, busy;
    for (uint32_t i = 0; i < loop->cluster->ServerCount(); ++i) {
      sim::CpuPool& cpu = loop->cluster->server(i).cpu();
      const std::string s = "s" + std::to_string(i);
      queue.emplace_back(s, static_cast<double>(cpu.run_queue_length()));
      busy.emplace_back(s, static_cast<double>(cpu.busy_time()));
    }
    loop->tracer->Counter("changelog", at,
                          {{"backlog", static_cast<double>(backlog)}});
    loop->tracer->Counter("cpu.run_queue", at, std::move(queue));
    loop->tracer->Counter("cpu.busy_ns", at, std::move(busy));
    ScheduleSample(loop, at + tick, tick);
  });
}

struct VerifyState {
  const Generator* gen;
  std::vector<uint32_t> dirs;
  size_t next = 0;
  int running = 0;
  std::vector<std::string>* problems;
  uint64_t verified = 0;
  uint64_t problem_count = 0;
};

// Records a check failure; only the first few are kept verbatim.
void Problem(VerifyState* v, std::string what) {
  constexpr uint64_t kMaxListed = 20;
  if (++v->problem_count <= kMaxListed) {
    v->problems->push_back(std::move(what));
  }
}

// StatDir and list every touched directory; compare size and name set with
// the model. Any non-OK status is a problem too.
sim::Task<void> VerifyWorker(VerifyState* v, core::MetadataService* client,
                             sim::Simulator* s) {
  while (v->next < v->dirs.size()) {
    const uint32_t dir = v->dirs[v->next++];
    const std::string path = DirPath(dir);
    std::vector<std::string> expected = v->gen->live(dir);
    std::sort(expected.begin(), expected.end());
    auto st = co_await client->StatDir(path);
    if (!st.ok()) {
      Problem(v, path + ": statdir " + st.status().ToString());
    } else if (st->size != expected.size()) {
      Problem(v, path + ": statdir size " + std::to_string(st->size) +
                     ", model " + std::to_string(expected.size()));
    }
    std::vector<std::string> names;
    const StatusCode code = co_await ListDir(
        *client, path, SpanCtx{nullptr, s, 0, -1, 0}, &names);
    std::sort(names.begin(), names.end());
    if (code != StatusCode::kOk) {
      Problem(v, path + ": readdir " +
                     std::string(switchfs::StatusCodeName(code)));
    } else if (names != expected) {
      Problem(v, path + ": readdir lists " + std::to_string(names.size()) +
                     " names, model " + std::to_string(expected.size()) +
                     " (sets differ)");
    }
    ++v->verified;
  }
  --v->running;
}

}  // namespace

IterationResult RunIteration(const RunConfig& config, Tracer* tracer) {
  IterationResult result;
  SimOutcome& out = result.sim;
  HostTimes& host = result.host;

  double t = Clock::now();
  std::unique_ptr<core::Cluster> cluster;
  {
    PhaseScope phase(tracer, "setup.cluster");
    cluster = MakeCluster();
  }
  host.cluster_s = Since(t);
  t = Clock::now();
  {
    PhaseScope phase(tracer, "setup.preload");
    for (uint32_t d = 0; d < kNumDirs; ++d) {
      cluster->PreloadMkdir(DirPath(d));
      for (uint32_t i = 0; i < kFilesPerDir; ++i) {
        cluster->PreloadFile(FilePath(d, PreloadedName(i)));
      }
    }
  }
  host.preload_s = Since(t);
  t = Clock::now();
  std::vector<std::unique_ptr<core::MetadataService>> clients;
  {
    PhaseScope phase(tracer, "setup.clients");
    for (int i = 0; i <= kInflight; ++i) {  // + the solo client
      clients.push_back(cluster->NewClient(/*warm=*/true));
    }
  }
  host.clients_s = Since(t);

  sim::Simulator& s = cluster->sim();
  Generator gen(config.workload, config.seed);
  Loop loop{cluster.get(), &s, &gen, tracer, &out};
  auto stuck = [&](const std::string& phase) {
    result.problems.push_back(phase + ": event queue emptied or limit hit");
    return result;
  };

  // ---- loaded phase: kInflight closed-loop slots ----
  loop.limit = config.warmup_ops + config.measured_ops;
  loop.measure_from = config.warmup_ops;
  loop.latencies = &out.latencies;
  out.latencies.reserve(config.measured_ops);
  uint64_t events = 0;
  t = Clock::now();
  {
    PhaseScope phase(tracer, "loaded");
    if (tracer != nullptr) {
      loop.sampling = true;
      ScheduleSample(&loop, s.Now(), kSampleTick);
    }
    loop.running = kInflight;
    for (int i = 0; i < kInflight; ++i) {
      sim::Spawn(Slot(&loop, clients[i].get(), i + 1));
    }
    if (!StepUntil(s, [&] { return loop.running == 0; }, &events)) {
      return stuck("loaded");
    }
  }
  host.loaded_s = Since(t);
  out.loaded_events = events - loop.bench_events;
  out.window = loop.window_end - loop.window_start;
  if (tracer != nullptr) {
    tracer->Counter("window_end", s.Now(), CounterSnapshot(*cluster));
  }

  // ---- drain: last measured completion -> empty change-log backlog ----
  t = Clock::now();
  {
    PhaseScope phase(tracer, "drain");
    out.drain = DrainFrom(&loop, loop.window_end, kDrainTick, &events);
    if (out.drain < 0) {
      return stuck("drain");
    }
  }
  host.drain_s = Since(t);
  loop.sampling = false;
  if (tracer != nullptr) {
    size_t kv_keys = 0;
    for (uint32_t i = 0; i < cluster->ServerCount(); ++i) {
      kv_keys += cluster->server(i).KvSize();
    }
    tracer->Meta("kv_keys", static_cast<double>(kv_keys));
    // Live entries: files, the directories, and the root.
    tracer->Meta("live_entries",
                 static_cast<double>(gen.live_files() + kNumDirs + 1));
    tracer->Meta("loaded_events", static_cast<double>(out.loaded_events));
    tracer->Meta("window_ns", static_cast<double>(out.window));
    tracer->Meta("drain_ns", static_cast<double>(out.drain));
    tracer->Meta("servers", kServers);
    tracer->Meta("cores_per_server", kCoresPerServer);
    tracer->Meta("warmup_ops", static_cast<double>(config.warmup_ops));
    tracer->Meta("measured_ops", static_cast<double>(config.measured_ops));
  }

  // ---- solo phase: the same mix, one op in flight ----
  t = Clock::now();
  {
    PhaseScope phase(tracer, "solo");
    loop.limit = loop.issued + kSoloOps;
    loop.measure_from = loop.issued;
    loop.latencies = &out.solo_latencies;
    loop.running = 1;
    sim::Spawn(Slot(&loop, clients[kInflight].get(), 0));
    if (!StepUntil(s, [&] { return loop.running == 0; }, &events) ||
        DrainFrom(&loop, s.Now(), kDrainTick, &events) < 0) {
      return stuck("solo");
    }
  }
  host.solo_s = Since(t);

  // ---- post-drain correctness check ----
  t = Clock::now();
  {
    PhaseScope phase(tracer, "verify");
    VerifyState v{&gen, {}, 0, 0, &result.problems};
    for (uint32_t d = 0; d < kNumDirs; ++d) {
      if (gen.touched(d)) {
        v.dirs.push_back(d);
      }
    }
    v.running = kVerifyWorkers;
    for (int i = 0; i < kVerifyWorkers; ++i) {
      sim::Spawn(VerifyWorker(&v, clients[i].get(), &s));
    }
    if (!StepUntil(s, [&] { return v.running == 0; }, &events)) {
      return stuck("verify");
    }
    result.dirs_verified = v.verified;
    if (v.problem_count > result.problems.size()) {
      result.problems.push_back(std::to_string(v.problem_count) +
                                " check failures in all");
    }
  }
  host.verify_s = Since(t);

  // Let timers and sessions run out before the cluster is torn down.
  uint64_t quiesce = 0;
  while (s.Step()) {
    if (++quiesce > kQuiesceEventLimit) {
      return stuck("quiesce");
    }
  }

  return result;
}

}  // namespace perfbench
