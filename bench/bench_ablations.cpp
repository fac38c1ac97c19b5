// Ablations of the design choices DESIGN.md calls out:
//   (a) Algorithm 2 phase count t and ε: λ convergence (paper: t=125, ε=1,
//       but "we do not need a near-optimal solution if λ* >> 1")
//   (b) oracle reuse on/off (the §2.3 speed-up)
//   (c) extra space on/off (the §2.1 feature most routers lack)
//   (d) π_P future cost on/off for detoured connections
#include "bench/bench_common.hpp"
#include "src/detailed/scheduler.hpp"
#include "src/router/bonnroute.hpp"
#include "src/util/timer.hpp"

using namespace bonn;

int main() {
  bench::print_header("Ablations");

  ChipParams p;
  p.tiles_x = 5;
  p.tiles_y = 5;
  p.tracks_per_tile = 30;
  p.num_nets = 120 * bench::scale();
  p.seed = 71;
  const Chip chip = generate_chip(p);
  RoutingSpace rs(chip);
  auto [nx, ny] = auto_tiles(chip);

  // (a) phase sweep.
  std::printf("\n(a) Algorithm 2 convergence (lambda vs phases, eps=1):\n");
  std::printf("%8s %10s %12s %12s\n", "phases", "lambda", "time[s]",
              "oracle calls");
  for (int t : {1, 2, 4, 8, 16}) {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = t;
    GlobalRoutingStats stats;
    gr.route(gp, &stats);
    std::printf("%8d %10.3f %12.2f %12lld\n", t, stats.lambda,
                stats.alg2_seconds, (long long)stats.oracle_calls);
  }

  std::printf("\n(a') epsilon sweep (8 phases):\n");
  std::printf("%8s %10s\n", "eps", "lambda");
  for (double eps : {0.25, 0.5, 1.0, 2.0}) {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = 8;
    gp.sharing.epsilon = eps;
    GlobalRoutingStats stats;
    gr.route(gp, &stats);
    std::printf("%8.2f %10.3f\n", eps, stats.lambda);
  }

  // (b) oracle reuse.
  std::printf("\n(b) oracle reuse (8 phases):\n");
  for (bool reuse : {false, true}) {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = 8;
    gp.sharing.oracle_reuse = reuse;
    GlobalRoutingStats stats;
    gr.route(gp, &stats);
    std::printf("  reuse=%-5s time %6.2f s, %8lld oracle calls, %8lld reuses, "
                "lambda %.3f\n",
                reuse ? "on" : "off", stats.alg2_seconds,
                (long long)stats.oracle_calls, (long long)stats.oracle_reuses,
                stats.lambda);
  }

  // (c) extra space.
  std::printf("\n(c) extra space assignment (s_max):\n");
  for (int smax : {0, 3}) {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = 8;
    gp.max_extra_space = smax;
    GlobalRoutingStats stats;
    const auto routes = gr.route(gp, &stats);
    std::int64_t spaced_edges = 0, edges = 0;
    for (const auto& sol : routes) {
      for (const auto& [e, s] : sol.edges) {
        (void)e;
        ++edges;
        if (s > 0) ++spaced_edges;
      }
    }
    std::printf("  s_max=%d: lambda %.3f, %lld/%lld edge uses carry extra "
                "space\n",
                smax, stats.lambda, (long long)spaced_edges, (long long)edges);
  }

  // (c') wire spreading (§4.2): compare detailed results with and without
  // keep-free zones over the congested tiles.
  std::printf("\n(c') wire spreading:\n");
  {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = 6;
    const auto routes = gr.route(gp, nullptr);
    for (bool spreading : {false, true}) {
      RoutingSpace drs(chip);
      NetRouter router(drs);
      router.set_global(&gr, &routes);
      if (spreading) {
        std::vector<double> usage(static_cast<std::size_t>(gr.graph().num_edges()), 0.0);
        for (const Net& n : chip.nets) {
          for (const auto& [e, sx] : routes[static_cast<std::size_t>(n.id)].edges) {
            usage[static_cast<std::size_t>(e)] += chip.tech.wt(n.wiretype).track_usage + sx;
          }
        }
        std::vector<std::pair<Rect, Coord>> zones;
        const GlobalGraph& g = gr.graph();
        for (int e = 0; e < g.num_edges(); ++e) {
          const GlobalEdge& ge = g.edge(e);
          if (ge.via) continue;
          const double util = usage[static_cast<std::size_t>(e)] /
                              std::max(ge.capacity, 0.25);
          if (util > 0.9) {
            zones.push_back({g.tile_rect(g.tx_of(ge.u), g.ty_of(ge.u))
                                 .hull(g.tile_rect(g.tx_of(ge.v), g.ty_of(ge.v))),
                             static_cast<Coord>(100 * (util - 0.9))});
          }
        }
        std::printf("  zones: %zu\n", zones.size());
        router.set_spread_zones(std::move(zones));
      }
      NetRouteParams np;
      DetailedStats ds;
      DetailedScheduler(router, 1).route_all(np, ds);
      const RoutingResult rr = drs.result();
      std::printf("  spreading=%-5s wl %.3f mm, failed %d\n",
                  spreading ? "on" : "off",
                  rr.total_wirelength() / 1e6, ds.nets_failed);
    }
  }

  // (d'') layer corridors (§4.4's 3D routing area).
  std::printf("\n(d'') layer-restricted corridors:\n");
  {
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    GlobalRouterParams gp;
    gp.sharing.phases = 6;
    const auto routes = gr.route(gp, nullptr);
    for (bool lc : {false, true}) {
      RoutingSpace drs(chip);
      NetRouter router(drs);
      router.set_global(&gr, &routes);
      NetRouteParams np;
      np.layer_corridor = lc;
      DetailedStats ds;
      Timer t;
      DetailedScheduler(router, 1).route_all(np, ds);
      const RoutingResult rr = drs.result();
      std::printf("  layer_corridor=%-5s wl %.3f mm, vias %lld, time %.1f s, "
                  "failed %d\n",
                  lc ? "on" : "off", rr.total_wirelength() / 1e6,
                  (long long)rr.via_count(), t.seconds(), ds.nets_failed);
    }
  }

  // (d) pi_P.
  std::printf("\n(d) future cost pi_P for detoured connections:\n");
  for (bool pip : {false, true}) {
    RoutingSpace drs(chip);
    NetRouter router(drs);
    NetRouteParams np;
    np.use_pi_p = pip;
    DetailedStats stats;
    Timer t;
    DetailedScheduler(router, 1).route_all(np, stats);
    std::printf("  pi_P=%-5s time %7.2f s, pops %10lld, pi_P used %d, "
                "failed %d\n",
                pip ? "on" : "off", t.seconds(), (long long)stats.search.pops,
                stats.pi_p_used, stats.nets_failed);
  }
  return 0;
}
