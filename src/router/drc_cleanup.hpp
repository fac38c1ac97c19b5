// DRC cleanup pass (§5.2).
//
// BonnRoute's philosophy is near-optimum packing with DRC cleanup left to an
// external tool; this module plays that external tool's role for both flows:
// it finds nets with remaining diff-net violations and locally reroutes
// them (with ripup), extends sub-τ segments, and re-applies minimum-area
// patches.  Only local changes are made — and, as the paper observes, the
// cleanup can still take longer than BonnRoute itself.
#pragma once

#include "src/detailed/net_router.hpp"
#include "src/detailed/scheduler.hpp"
#include "src/drc/audit.hpp"

namespace bonn {

struct CleanupParams {
  int max_reroutes = 500;
  int passes = 2;
};

struct CleanupStats {
  double seconds = 0;
  int nets_rerouted = 0;
  int segments_extended = 0;
};

class DrcCleanup {
 public:
  /// The reroutes run through the scheduler: under the §5.1 window
  /// discipline (parallel across disjoint windows, deterministic at any
  /// thread count), each as a transactional rip + reroute that rolls back
  /// on failure or on a thrown fault.
  explicit DrcCleanup(DetailedScheduler& sched)
      : router_(&sched.router()), sched_(&sched) {}

  /// The local reroutes search with `reroute` (the flow's detailed
  /// parameters); their net attempts record into `reroutes` (their
  /// recovered errors and quarantined nets included).
  CleanupStats run(const CleanupParams& params, const NetRouteParams& reroute,
                   DetailedStats& reroutes);

 private:
  /// Extend wire sticks shorter than τ where legal.
  int extend_short_segments();

  NetRouter* router_;
  DetailedScheduler* sched_;
};

}  // namespace bonn
