// §5.1 parallel routing tests: flow determinism across thread counts, the
// chunked sharing solver, the window scheduler, and concurrent
// RoutingSpace mutation (the TSan target).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/db/instance_gen.hpp"
#include "src/detailed/scheduler.hpp"
#include "src/obs/metrics.hpp"
#include "src/router/bonnroute.hpp"
#include "src/util/thread_pool.hpp"

namespace bonn {
namespace {

/// Big enough that the window grid actually partitions (die 24000 against a
/// min window extent of ~11000 at the default search parameters).
ChipParams window_params() {
  ChipParams p;
  p.tiles_x = 8;
  p.tiles_y = 8;
  p.tracks_per_tile = 30;
  p.num_nets = 120;
  p.num_macros = 2;
  p.seed = 5;
  return p;
}

FlowParams fast_flow() {
  FlowParams fp;
  fp.tiles_x = 8;
  fp.tiles_y = 8;
  fp.global.sharing.phases = 3;
  fp.detailed.rounds = 2;
  fp.cleanup.max_reroutes = 50;
  return fp;
}

TEST(Parallel, FlowDeterministicAcrossThreadCounts) {
  // The acceptance criterion: the whole BonnRoute flow at 4 threads is
  // bit-identical (wirelength, vias, DRC) to the same flow at 1 thread.
  const Chip chip = generate_chip(window_params());
  FlowReport reports[3];
  const int thread_counts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    FlowParams fp = fast_flow();
    fp.threads = thread_counts[i];
    reports[i] = run_bonnroute_flow(chip, fp, nullptr);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(reports[i].netlength, reports[0].netlength)
        << "threads=" << thread_counts[i];
    EXPECT_EQ(reports[i].vias, reports[0].vias)
        << "threads=" << thread_counts[i];
    EXPECT_EQ(reports[i].drc.errors(), reports[0].drc.errors())
        << "threads=" << thread_counts[i];
    EXPECT_EQ(reports[i].preroute_nets, reports[0].preroute_nets)
        << "threads=" << thread_counts[i];
    EXPECT_EQ(reports[i].net_lengths, reports[0].net_lengths)
        << "threads=" << thread_counts[i];
  }
  EXPECT_GT(reports[0].netlength, 0);
}

/// Scheduler-level determinism without the flow around it: route_all at
/// `threads` on a fresh routing space gives the 1-thread result exactly.
/// One test per thread count keeps each within the ctest timeout under
/// ThreadSanitizer.
void expect_route_all_matches_one_thread(int threads) {
  const Chip chip = generate_chip(window_params());
  NetRouteParams params;
  params.rounds = 2;
  auto route = [&](int t) {
    RoutingSpace rs(chip);
    NetRouter router(rs);
    DetailedScheduler sched(router, t);
    DetailedStats stats;
    sched.route_all(params, stats);
    return rs.result();
  };
  const RoutingResult one = route(1);
  EXPECT_GT(one.total_wirelength(), 0);
  const RoutingResult many = route(threads);
  EXPECT_EQ(many.net_paths, one.net_paths) << "threads=" << threads;
}

TEST(Parallel, SchedulerRouteAllDeterministic) {
  expect_route_all_matches_one_thread(2);
}

TEST(Parallel, SchedulerRouteAllDeterministicFourThreads) {
  expect_route_all_matches_one_thread(4);
}

TEST(Parallel, DeterministicSharingThreadInvariant) {
  // The global phase's chunked block solves: same fractional → same routes
  // at any thread count.
  const Chip chip = generate_chip(window_params());
  std::vector<SteinerSolution> routes[2];
  const int thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    RoutingSpace rs(chip);
    GlobalRouter gr(chip, rs.tg(), rs.fast(), 8, 8);
    GlobalRouterParams gp;
    gp.sharing.phases = 3;
    gp.sharing.threads = thread_counts[i];
    routes[i] = gr.route(gp, nullptr);
  }
  ASSERT_EQ(routes[0].size(), routes[1].size());
  for (std::size_t n = 0; n < routes[0].size(); ++n) {
    EXPECT_TRUE(routes[0][n] == routes[1][n]) << "net " << n;
  }
}

TEST(Parallel, ConcurrentDisjointMutationIsSafe) {
  // The RoutingSpace locking contract, exercised directly: four threads
  // commit, query and rip in disjoint quadrants of the die under
  // set_concurrent(true).  Run under -DBONN_SANITIZE=thread, this is the
  // data-race regression test for the sharded grid locks.
  ChipParams cp;
  cp.tiles_x = 4;
  cp.tiles_y = 4;
  cp.tracks_per_tile = 30;
  cp.num_nets = 40;
  cp.seed = 11;
  const Chip chip = generate_chip(cp);
  RoutingSpace rs(chip);
  rs.set_concurrent(true);
  ThreadPool pool(4);
  const Coord half_w = chip.die.width() / 2;
  const Coord half_h = chip.die.height() / 2;
  pool.parallel_for(4, [&](std::size_t q) {
    const Coord x0 = chip.die.xlo + (q % 2) * half_w + 500;
    const Coord y0 = chip.die.ylo + (q / 2) * half_h + 500;
    const int net = static_cast<int>(q);
    for (int rep = 0; rep < 8; ++rep) {
      for (int k = 0; k < 12; ++k) {
        RoutedPath p;
        p.net = net;
        p.wiretype = 0;
        const Coord y = y0 + 150 * k;
        p.wires.push_back({{x0, y}, {x0 + 2000, y}, 0});
        p.vias.push_back({{x0, y}, 0});
        rs.commit_path(p);
      }
      for (int k = 0; k < 12; ++k) {
        const Coord y = y0 + 150 * k + 40;
        const WireStick probe{{x0, y}, {x0 + 2000, y}, 0};
        (void)rs.checker().check_wire(probe, net, 0);
      }
      (void)rs.rip_net(net);
    }
  });
  rs.set_concurrent(false);
  for (int q = 0; q < 4; ++q) EXPECT_TRUE(rs.paths(q).empty());
}

TEST(Parallel, BonnThreadsEnvOverridesFlowParams) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DBONN_OBS=OFF";
  ChipParams cp;
  cp.tiles_x = 4;
  cp.tiles_y = 4;
  cp.tracks_per_tile = 30;
  cp.num_nets = 30;
  cp.seed = 3;
  const Chip chip = generate_chip(cp);
  ::setenv("BONN_THREADS", "3", 1);
  FlowParams fp;
  fp.tiles_x = 4;
  fp.tiles_y = 4;
  fp.global.sharing.phases = 2;
  fp.detailed.rounds = 2;
  fp.threads = 1;  // overridden by the environment
  run_bonnroute_flow(chip, fp, nullptr);
  ::unsetenv("BONN_THREADS");
  EXPECT_EQ(obs::gauge("detailed.threads").value(), 3.0);
}

}  // namespace
}  // namespace bonn
