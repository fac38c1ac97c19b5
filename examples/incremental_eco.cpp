// Incremental / ECO-style editing: route a chip, then rip selected nets and
// reroute them in the otherwise frozen design — the everyday workflow of an
// engineering change order.  Routes with run_bonnroute_flow, persists the
// result through the text format (§3 persistence), and edits it with the
// public ECO entry point reroute_nets: each reroute runs in its own
// transaction, so a failed one rolls back to the prior wiring instead of
// leaving an open, and untouched nets keep their wiring bit-exactly.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/db/instance_gen.hpp"
#include "src/db/io.hpp"
#include "src/drc/audit.hpp"
#include "src/router/bonnroute.hpp"

using namespace bonn;

int main() {
  ChipParams params;
  params.tiles_x = 4;
  params.tiles_y = 4;
  params.tracks_per_tile = 30;
  params.num_nets = 60;
  params.seed = 33;
  const Chip chip = generate_chip(params);

  FlowParams fp;
  RoutingResult routed;
  const FlowReport flow = run_bonnroute_flow(chip, fp, &routed);
  if (flow.outcome == FlowOutcome::kFailed) {
    std::printf("initial route failed: %s\n",
                flow.errors.empty() ? "?" : flow.errors[0].message.c_str());
    return 1;
  }
  std::printf("initial route: %.3f mm, %lld vias, %lld opens\n",
              routed.total_wirelength() / 1e6,
              (long long)routed.via_count(),
              (long long)count_opens(chip, routed));

  // Persist the routing and load it back (as a real flow would between
  // tool invocations).
  std::stringstream snapshot;
  write_result(snapshot, routed);
  const RoutingResult before = read_result(snapshot);

  // ECO: rip the three longest nets (as if their timing constraints
  // changed) and reroute them with rip permission over standard wiring.
  std::vector<int> victims;
  for (const Net& n : chip.nets) {
    victims.push_back(n.id);
  }
  std::sort(victims.begin(), victims.end(), [&](int a, int b) {
    return before.net_wirelength(a) > before.net_wirelength(b);
  });
  victims.resize(3);
  for (int v : victims) {
    std::printf("ECO: ripping net %d (%lld dbu)\n", v,
                (long long)before.net_wirelength(v));
  }
  RoutingResult after;
  const EcoReport eco = reroute_nets(chip, before, victims, fp, &after);
  if (eco.outcome == FlowOutcome::kFailed) {
    std::printf("ECO failed: %s\n",
                eco.errors.empty() ? "?" : eco.errors[0].message.c_str());
    return 1;
  }
  std::printf("after ECO: %d rerouted (%d collision victims, %d left open, "
              "%d rolled back), %.3f mm, %lld vias, %lld opens\n",
              eco.nets_rerouted, eco.collision_nets, eco.nets_failed,
              eco.rollbacks, after.total_wirelength() / 1e6,
              (long long)after.via_count(),
              (long long)count_opens(chip, after));

  // Stability: nets outside the edit keep their wiring unless a reroute
  // ripped them or the collision sweep picked them up.
  int changed = 0;
  for (int id : eco.changed_nets) {
    changed += std::find(victims.begin(), victims.end(), id) == victims.end();
  }
  std::printf("untouched nets with changed wiring: %d (rip-up and collision "
              "victims of the ECO reroutes)\n",
              changed);
  return count_opens(chip, after) <= count_opens(chip, before) ? 0 : 1;
}
