// Figure 4 / §3.6 claims: the fast grid answers 97.89 % of legality
// questions without touching the distance rule checking module, speeding up
// on-track path search by 5.29x.  We reproduce (a) the hit rate observed
// while routing a chip, and (b) the micro-level speed ratio between a fast
// grid word lookup and the equivalent rule-checker query.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "src/util/rng.hpp"
#include "src/detailed/scheduler.hpp"

using namespace bonn;

int main(int argc, char** argv) {
  bench::print_header("Figure 4: fast grid hit rate & query speedup");

  ChipParams p;
  p.tiles_x = 4;
  p.tiles_y = 4;
  p.tracks_per_tile = 30;
  p.num_nets = 100 * bench::scale();
  p.seed = 31;
  const Chip chip = generate_chip(p);
  RoutingSpace rs(chip);
  NetRouter router(rs);
  DetailedScheduler sched(router, 1);
  DetailedStats stats;
  sched.route_all(NetRouteParams{}, stats);

  const double hits = static_cast<double>(rs.fast().hits());
  const double misses = static_cast<double>(rs.fast().misses());
  std::printf("fast grid answers   : %.0f\n", hits);
  std::printf("checker fallbacks   : %.0f\n", misses);
  std::printf("hit rate            : %.2f %%  (paper: 97.89 %%)\n",
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0);
  std::printf("fast grid intervals : %zu breakpoints\n",
              rs.fast().breakpoint_count());

  // Micro ratio: word lookup vs full checker query at the same vertices.
  static RoutingSpace* rs_p = &rs;
  static const Chip* chip_p = &chip;
  benchmark::RegisterBenchmark("fastgrid_word_lookup",
                               [](benchmark::State& state) {
                                 Rng rng(7);
                                 const auto& tg = rs_p->tg();
                                 std::uint64_t acc = 0;
                                 for (auto _ : state) {
                                   const int l = static_cast<int>(rng.below(4));
                                   const int t = static_cast<int>(
                                       rng.below(tg.tracks(l).size()));
                                   const int s = static_cast<int>(
                                       rng.below(tg.stations(l).size()));
                                   acc ^= rs_p->fast().word(l, t, s);
                                 }
                                 benchmark::DoNotOptimize(acc);
                               });
  benchmark::RegisterBenchmark(
      "checker_shape_query", [](benchmark::State& state) {
        Rng rng(7);
        const auto& tg = rs_p->tg();
        std::size_t acc = 0;
        for (auto _ : state) {
          const int l = static_cast<int>(rng.below(4));
          const int t =
              static_cast<int>(rng.below(tg.tracks(l).size()));
          const int s =
              static_cast<int>(rng.below(tg.stations(l).size()));
          const Point pt = tg.vertex_pt({l, t, s});
          Shape cand;
          cand.rect = chip_p->tech.wire_model(0, l, true).shape(pt);
          cand.global_layer = global_of_wiring(l);
          cand.net = -3;
          acc += rs_p->checker().check_shape(cand).allowed;
        }
        benchmark::DoNotOptimize(acc);
      });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nThe word-lookup vs checker-query time ratio is the per-query "
              "speedup the cache provides;\ncombined with the hit rate it "
              "yields the paper's ~5x end-to-end search speedup.\n");
  return 0;
}
