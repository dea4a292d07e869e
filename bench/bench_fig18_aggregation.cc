// Fig 18 (§7.5): directory aggregation overhead — the latency of statdir
// issued right after a sequence of creates in the same directory.
//  (a) vs the number of preceding creates (8 servers): grows, then plateaus
//      because proactive pushes bound the per-server change-log backlog to
//      one MTU (~29 entries).
//  (b) vs the number of servers (100 preceding creates): more servers keep
//      more entries un-pushed, so the aggregation collects more.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"

namespace switchfs::bench {
namespace {

// Issues `creates` into a fresh directory through `workers` concurrent
// clients, then measures one statdir. Returns the statdir latency.
sim::SimTime MeasureOnce(core::Cluster& world, const std::string& dir,
                         int creates, int workers) {
  world.PreloadMkdir(dir);
  auto stat_client = world.NewClient(true);
  std::vector<std::unique_ptr<core::MetadataService>> clients;
  for (int w = 0; w < workers; ++w) {
    clients.push_back(world.NewClient(true));
  }
  struct State {
    int remaining;
    sim::SimTime statdir_latency = 0;
  };
  auto st = std::make_shared<State>();
  st->remaining = creates;

  auto issue_creates = [](core::MetadataService* c, const std::string d,
                          int base, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      (void)co_await c->Create(d + "/f" + std::to_string(base + i));
    }
  };
  const int per_worker = creates / workers;
  int base = 0;
  std::vector<sim::Task<void>> tasks;
  auto done = std::make_shared<sim::JoinCounter>(&world.sim(), workers);
  for (int w = 0; w < workers; ++w) {
    const int n = w == workers - 1 ? creates - base : per_worker;
    sim::Spawn([](core::MetadataService* c, std::string d, int b, int n,
                  std::shared_ptr<sim::JoinCounter> jc,
                  decltype(issue_creates)* fn) -> sim::Task<void> {
      co_await (*fn)(c, d, b, n);
      jc->Done();
    }(clients[w].get(), dir, base, n, done, &issue_creates));
    base += n;
  }
  // The statdir fires the moment the last create returns — no settling time
  // for pushes beyond what overlapped with the creates themselves.
  sim::Spawn([](core::Cluster* world, core::MetadataService* c, std::string d,
                std::shared_ptr<sim::JoinCounter> done,
                std::shared_ptr<State> st) -> sim::Task<void> {
    co_await done->Wait();
    const sim::SimTime start = world->sim().Now();
    auto r = co_await c->StatDir(d);
    (void)r;
    st->statdir_latency = world->sim().Now() - start;
  }(&world, stat_client.get(), dir, done, st));
  world.sim().Run();
  return st->statdir_latency;
}

// Prints one row: average statdir latency over `rounds` fresh directories,
// plus the cluster's aggregation rounds and how many of them needed no
// AggDone (no remote server had entries).
void PrintRow(uint32_t servers, int creates, int rounds, int key) {
  auto world = MakeSwitchFs(servers, 4);
  double total = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const std::string dir = "/agg" + std::to_string(creates) + "_" +
                            std::to_string(round);
    total += sim::ToMicros(MeasureOnce(*world, dir, creates,
                                       std::min(creates, 32)));
  }
  const core::ServerStats st = world->TotalStats();
  std::printf("%10d %14.1f %8llu %14llu\n", key, total / rounds,
              static_cast<unsigned long long>(st.aggregations),
              static_cast<unsigned long long>(st.agg_done_skipped));
  std::fflush(stdout);
}

}  // namespace
}  // namespace switchfs::bench

int main() {
  using namespace switchfs::bench;
  PrintHeader("Fig 18(a): statdir latency after N creates (8 servers)");
  std::printf("%10s %14s %8s %14s\n", "creates", "statdir(us)", "aggs",
              "done_skipped");
  for (int creates : {1, 10, 100, 1000, 10000}) {
    PrintRow(8, creates, creates >= 1000 ? 3 : 8, creates);
  }

  PrintHeader("Fig 18(b): statdir latency after 100 creates vs #servers");
  std::printf("%10s %14s %8s %14s\n", "servers", "statdir(us)", "aggs",
              "done_skipped");
  for (uint32_t servers : {4u, 8u, 12u, 16u}) {
    PrintRow(servers, 100, 8, static_cast<int>(servers));
  }
  return 0;
}
