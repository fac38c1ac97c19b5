// §5.1 parallelization:
//  - global routing with chunked block solves across threads (frozen
//    chunk-start prices, §5.1's slightly outdated prices): wall-clock and λ
//    vs thread count — λ is identical at every count;
//  - detailed routing by region partitioning: we build the balanced
//    partition sequence the paper describes and report the attainable
//    speedup (sum/max workload) per partition level.
#include "bench/bench_common.hpp"
#include "src/detailed/routing_space.hpp"
#include "src/global/global_router.hpp"
#include "src/router/bonnroute.hpp"
#include "src/util/timer.hpp"

using namespace bonn;

int main() {
  bench::print_header("Parallelization (§5.1)");

  ChipParams p;
  p.tiles_x = 6;
  p.tiles_y = 6;
  p.tracks_per_tile = 30;
  p.num_nets = 300 * bench::scale();
  p.seed = 81;
  const Chip chip = generate_chip(p);
  RoutingSpace rs(chip);
  auto [nx, ny] = auto_tiles(chip);

  std::printf("\nGlobal routing, chunked block solves:\n");
  std::printf("%8s %10s %10s\n", "threads", "time[s]", "lambda");
  for (int threads : {1, 2, 4}) {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = 8;
    gp.sharing.threads = threads;
    GlobalRoutingStats stats;
    gr.route(gp, &stats);
    std::printf("%8d %10.2f %10.3f\n", threads, stats.alg2_seconds,
                stats.lambda);
  }

  // Detailed routing region partitions: estimate per-region workload by pin
  // count; nets crossing region borders defer to the next (coarser) level —
  // exactly the partition sequence of §5.1.
  std::printf("\nDetailed routing partition sequence (workload balance):\n");
  std::printf("%9s %12s %12s %14s\n", "regions", "local nets", "deferred",
              "speedup (sum/max)");
  for (int slabs : {8, 4, 2, 1}) {
    const Coord w = chip.die.width() / slabs;
    std::vector<std::int64_t> load(static_cast<std::size_t>(slabs), 0);
    int local = 0, deferred = 0;
    for (const Net& n : chip.nets) {
      Coord xlo = chip.die.xhi, xhi = chip.die.xlo;
      for (int pid : n.pins) {
        const Point a = chip.pins[static_cast<std::size_t>(pid)].anchor();
        xlo = std::min(xlo, a.x);
        xhi = std::max(xhi, a.x);
      }
      const int r0 = static_cast<int>(std::min<Coord>((xlo - chip.die.xlo) / w,
                                                      slabs - 1));
      const int r1 = static_cast<int>(std::min<Coord>((xhi - chip.die.xlo) / w,
                                                      slabs - 1));
      // A margin keeps wires with large spacing away from region borders.
      const bool fits = r0 == r1 &&
                        (xlo - (chip.die.xlo + r0 * w)) > 300 &&
                        ((chip.die.xlo + (r0 + 1) * w) - xhi) > 300;
      if (fits) {
        ++local;
        load[static_cast<std::size_t>(r0)] += n.degree();
      } else {
        ++deferred;
      }
    }
    std::int64_t sum = 0, mx = 1;
    for (std::int64_t l : load) {
      sum += l;
      mx = std::max(mx, l);
    }
    std::printf("%9d %12d %12d %13.2fx\n", slabs, local, deferred,
                static_cast<double>(sum) / static_cast<double>(mx));
  }
  std::printf(
      "\nThe partition sequence shrinks (8 -> 1 regions) so deferred nets are\n"
      "closed in later, coarser levels — the structure of §5.1.\n");
  return 0;
}
