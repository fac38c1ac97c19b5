// Connecting nets (§4.4) — the per-net detailed router.  Lists of nets are
// routed by the DetailedScheduler (scheduler.hpp), which calls route_net
// inside the transaction of each net attempt.
//
// Per net: build pin-access catalogues and a conflict-free primary access
// selection (§4.3); then repeatedly pick an unconnected component, build the
// source/target vertex sets (access endpoints + vertices of already routed
// paths), temporarily remove the components' shapes from routing space,
// run the on-track interval search inside the global-routing corridor, and
// commit the found path (with its off-track access tails).  Failures trigger
// rip-up sequences with bounded depth; ripped nets are rerouted.  After a
// net completes, a postprocessing step repairs same-net violations (minimum
// area patches) exactly where §4.4 says they occur.
#pragma once

#include <memory>

#include "src/detailed/ontrack_search.hpp"
#include "src/detailed/pin_access.hpp"
#include "src/detailed/transaction.hpp"
#include "src/detailed/vertex_search.hpp"
#include "src/global/global_router.hpp"
#include "src/util/error.hpp"

namespace bonn {

struct NetRouteParams {
  SearchParams search;
  PinAccessParams access;
  int corridor_halo = 1;       ///< tiles added around the global route
  int max_rip_depth = 2;       ///< bound on rip-up recursion (§4.4)
  /// §5.1 window discipline: when set, only nets with a nonzero entry may
  /// be ripped as victims; blockers outside the mask count as fixed.  The
  /// DetailedScheduler sets this to the set of nets whose reach lies inside
  /// the current routing window, so no thread ever rips wiring that another
  /// window may be touching.
  const std::vector<char>* rip_allowed = nullptr;
  int rounds = 3;              ///< escalation rounds (ripup, wider area)
  double detour_for_pi_p = 1.3;  ///< use π_P when corridor detours this much
  // --- ISR-baseline behaviour switches (§5.3's industry standard router
  // "completes the routing in purely gridless fashion"): ---
  bool vertex_search = false;  ///< per-vertex maze instead of Algorithm 4
  bool greedy_access = false;  ///< greedy pin access instead of conflict-free
  bool use_pi_p = true;        ///< disable for ablation
  /// Restrict the first-round search to the global route's layers ± 1
  /// (§4.4's 3D routing area); escalation rounds lift it.  The ISR baseline
  /// routes "in purely gridless fashion" and leaves this off.
  bool layer_corridor = true;
  /// Last-resort mode (§5.2 philosophy): commit a found path even if the
  /// final verification still sees violations — connectivity first, the
  /// external DRC cleanup deals with the remainder.
  bool commit_despite_violations = false;
  // --- fault-tolerance knobs (the flow budget is search.budget): ---
  /// Per-net search-pop cap for the bounded retry ladder (full search → no
  /// rip-up → tight corridor at a quarter of the cap → leave open), so one
  /// pathological net cannot stall a window.  A rung that stops on a limit
  /// rolls back and retries one rung down; genuine (non-limit) failures
  /// exit the ladder immediately.  0 disables.  Pops are counted, not
  /// timed, so the ladder is deterministic.
  std::int64_t attempt_pop_limit = 0;
  /// Hung-net watchdog: hard wall-clock ceiling on a net attempt (restarted
  /// for the scheduler's rip-up-off retry), enforced inside the search pop
  /// loops (BONN_WATCHDOG_S).  A watchdog stop marks the attempt hung, and
  /// a net that trips it repeatedly is quarantined by the scheduler; the
  /// stop also sets SearchParams::limit_hit, so with a pop cap set it
  /// descends the retry ladder like any limit stop.  Wall-clock, hence
  /// nondeterministic; it never fires in default runs (0 = off).
  double watchdog_s = 0;
};

struct DetailedStats {
  int connections_routed = 0;
  int connections_failed = 0;
  int nets_failed = 0;
  int nets_deferred = 0;   ///< skipped because the budget had tripped
  int ladder_retries = 0;  ///< retry-ladder rungs descended
  int ripups = 0;          ///< nets ripped and rerouted
  int pi_p_used = 0;       ///< searches that enabled the π_P refinement
  int rollbacks = 0;       ///< routing transactions rolled back
  int watchdog_stops = 0;  ///< attempts stopped by the hung-net watchdog
  /// Per-net failures recovered at the attempt boundary (capped; see
  /// append_error) — internal invariant violations unwound by rollback.
  std::vector<FlowError> errors;
  /// Nets the scheduler quarantined (rolled back, excluded from further
  /// waves) with the trigger cause: "fault", "watchdog" or "ladder".
  struct Quarantined {
    int net = -1;
    std::string cause;
  };
  std::vector<Quarantined> quarantined;
  DirtyRegion dirty;       ///< union of all committed transactions' regions
  std::vector<int> touched_nets;  ///< nets whose recorded paths changed
  SearchStats search;
  double seconds = 0;
};

/// Read-mostly state shared by every worker NetRouter (§5.1 split): the
/// global-routing guidance, spread zones, and the per-pin access
/// bookkeeping.  The per-pin vectors are indexed by dense pin id; a pin
/// belongs to exactly one net, and every net is owned by exactly one window
/// (or the serial phase) at a time, so concurrent workers touch disjoint
/// elements and never resize — element access is race-free by construction.
struct DetailedShared {
  const GlobalRouter* global = nullptr;
  const std::vector<SteinerSolution>* global_routes = nullptr;
  std::vector<std::pair<Rect, Coord>> spread_zones;
  /// Per pin; empty until built (lazily, or again after a rip).
  std::vector<std::vector<AccessPath>> catalogues;
  std::vector<int> selected;                        ///< per pin, -1 = none
  std::vector<char> access_committed;               ///< per pin

  explicit DetailedShared(std::size_t num_pins)
      : catalogues(num_pins),
        selected(num_pins, -1),
        access_committed(num_pins, 0) {}
};

class NetRouter {
 public:
  /// Owning constructor: creates the shared per-pin state.
  explicit NetRouter(RoutingSpace& rs)
      : rs_(&rs),
        access_(rs),
        search_(rs),
        shared_(std::make_shared<DetailedShared>(rs.chip().pins.size())) {}

  /// Worker constructor (§5.1): a per-thread router operating against the
  /// same RoutingSpace and the owner's shared state.
  NetRouter(RoutingSpace& rs, std::shared_ptr<DetailedShared> shared)
      : rs_(&rs), access_(rs), search_(rs), shared_(std::move(shared)) {}

  /// Provide global-routing corridors (optional — without them the corridor
  /// is the net bounding box plus a margin).
  void set_global(const GlobalRouter* gr,
                  const std::vector<SteinerSolution>* routes) {
    shared_->global = gr;
    shared_->global_routes = routes;
  }

  /// Wire spreading (§4.2): planar zones with extra search cost, derived
  /// from the congestion observed by global routing.
  void set_spread_zones(std::vector<std::pair<Rect, Coord>> zones) {
    shared_->spread_zones = std::move(zones);
  }

  /// §4.3 preprocessing: build catalogues for every pin, compute a
  /// conflict-free primary access selection per pin *cluster* (the circuit
  /// analogue), and commit the primary paths as reservations so that later
  /// wiring cannot invalidate them.  Called by DetailedScheduler::route_all;
  /// idempotent.
  void precompute_access(const NetRouteParams& params);

  /// Route a single net inside the caller's RoutingTransaction (the
  /// DetailedScheduler's net attempt), which commits or rolls back what
  /// this leaves; returns true if fully connected.
  bool route_net(int net, const NetRouteParams& params, DetailedStats& stats,
                 int rip_depth = 0);

  /// Same-net postprocessing: minimum-area patches (§4.4, §5.2).
  void postprocess_net(int net);

  /// Rip a net's wiring *and* reset its access bookkeeping (the committed
  /// pin-access paths are part of the ripped wiring).
  void rip_net_tracked(int net);

  RoutingSpace& space() { return *rs_; }
  const std::shared_ptr<DetailedShared>& shared() const { return shared_; }

  /// True if the net's pins and committed paths form one component.
  bool net_connected(int net) const;

  /// Deterministic routing order: critical nets (and wide wires) first
  /// (§5.1), then by span ascending.
  static std::vector<int> route_order(const Chip& chip);

  /// Everything this net's routing can read or write, before margins: hull
  /// of the pin shapes, the committed paths, and the global corridor at
  /// `halo`.  The DetailedScheduler expands it by the §5.1 window margin
  /// and assigns the net to a window only if the result fits inside.
  Rect net_reach_core(int net, int halo) const;

 private:
  /// `entry` is true for the net route_net was called on; rip-up victims
  /// rerouted recursively get entry = false and must land cleanly (they may
  /// never commit despite violations).
  bool connect_components(int net, const NetRouteParams& params,
                          DetailedStats& stats, int rip_depth, bool entry);

  RoutingSpace* rs_;
  PinAccess access_;
  OnTrackSearch search_;
  VertexSearch vsearch_{*rs_};
  std::shared_ptr<DetailedShared> shared_;
};

}  // namespace bonn
