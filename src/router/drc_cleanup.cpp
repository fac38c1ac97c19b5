#include "src/router/drc_cleanup.hpp"

#include <algorithm>
#include <cstdint>

#include "src/util/timer.hpp"

namespace bonn {

int DrcCleanup::extend_short_segments() {
  RoutingSpace& rs = router_->space();
  const Chip& chip = rs.chip();
  int extended = 0;
  for (const Net& n : chip.nets) {
    // Iterate over the stable ids of the paths recorded *now*: replacing a
    // path (remove + commit) shifts positions but never invalidates the
    // remaining ids.
    const std::vector<std::uint64_t> ids = rs.path_ids(n.id);
    for (std::uint64_t id : ids) {
      const auto pi_opt = rs.recorded_index(n.id, id);
      if (!pi_opt) continue;
      const std::size_t pi = *pi_opt;
      RoutedPath p = rs.paths(n.id)[pi];
      bool changed = false;
      for (WireStick& w : p.wires) {
        const Coord tau =
            chip.tech.wiring[static_cast<std::size_t>(w.layer)].min_seg_len;
        if (w.length() == 0 || w.length() >= tau) continue;
        WireStick ext = w;
        const Coord need = tau - w.length();
        if (ext.horizontal()) {
          ext.a.x -= (need + 1) / 2;
          ext.b.x += (need + 1) / 2;
        } else {
          ext.a.y -= (need + 1) / 2;
          ext.b.y += (need + 1) / 2;
        }
        if (rs.checker().check_wire(ext, n.id, p.wiretype).allowed) {
          w = ext;
          changed = true;
          ++extended;
        }
      }
      if (changed) {
        rs.remove_recorded_by_id(n.id, id);
        rs.commit_path(p);  // re-recorded at the end under a fresh id
      }
    }
  }
  return extended;
}

CleanupStats DrcCleanup::run(const CleanupParams& params,
                             const NetRouteParams& reroute,
                             DetailedStats& reroutes) {
  Timer timer;
  CleanupStats stats;
  RoutingSpace& rs = router_->space();

  for (int pass = 0; pass < params.passes; ++pass) {
    // The offenders are judged on *drawn* metal, as the audit judges them:
    // the cleanup pass plays the signoff tool, not the router's
    // conservative model.
    const std::vector<std::int64_t> per_net =
        diffnet_violations_per_net(rs.chip(), rs.result());
    std::vector<int> offenders;
    for (std::size_t n = 0; n < per_net.size(); ++n)
      if (per_net[n] != 0) offenders.push_back(static_cast<int>(n));
    if (offenders.empty()) break;
    // Deterministic cap: take the first budget-many offenders in order.
    const int budget = params.max_reroutes - stats.nets_rerouted;
    if (budget <= 0) break;
    if (static_cast<int>(offenders.size()) > budget) {
      offenders.resize(static_cast<std::size_t>(budget));
    }
    NetRouteParams rp = reroute;
    // Cleanup reroutes around its blockers instead of ripping them: a
    // rip-up cascade here must land cleanly or roll back (net_router.cpp),
    // which makes it expensive, and measurements show it fixes no more
    // violations than plain rerouting — the scheduler's escalation rounds
    // already did the aggressive work.
    rp.search.allowed_ripup = 0;
    // A cleanup reroute must never convert a routed net into an open —
    // commit even when some violation remains (it was violating before).
    rp.commit_despite_violations = true;
    sched_->route_nets(offenders, rp, reroutes, /*rip_first=*/true,
                       /*rip_depth=*/1);
    stats.nets_rerouted += static_cast<int>(offenders.size());
  }
  stats.segments_extended = extend_short_segments();
  // Minimum-area re-patching after all the local surgery.
  for (const Net& n : rs.chip().nets) router_->postprocess_net(n.id);

  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace bonn
