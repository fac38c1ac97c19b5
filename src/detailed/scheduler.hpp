// Region-partitioned detailed routing (§5.1).
//
// The chip is partitioned into rectangular routing windows; every net whose
// *reach* (pin shapes, committed wiring, global corridor, plus the margin
// covering search-area expansion, pin-access windows, DRC interaction
// distance and the fast-grid refresh neighbourhood) fits inside one window
// is routed by that window's task, one window in flight per thread.  Nets
// spanning windows — and whole rounds whose escalated search area is the
// entire die — are serialized after a barrier.
//
// Determinism: the window grid and the net-to-window assignment depend only
// on geometry and routing parameters, never on the thread count; windows
// are pairwise disjoint in everything they read or write (ripping is
// restricted to the window's mask), so any execution order — sequential at
// one thread, interleaved at many — produces bit-identical routing.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/detailed/net_router.hpp"
#include "src/util/thread_pool.hpp"

namespace bonn {

class DetailedScheduler {
 public:
  /// `threads` <= 1 keeps everything on the calling thread (but still under
  /// the window discipline, so results match any other thread count).
  DetailedScheduler(NetRouter& owner, int threads);
  ~DetailedScheduler();

  int threads() const { return threads_; }

  /// The owner router: its routing space and shared per-pin state.
  NetRouter& router() { return *owner_; }

  /// Route every net, the only multi-net routing driver: §4.3 access
  /// precompute, then escalation rounds (no rip-up, standard, critical;
  /// wider corridors each round; the last commits despite violations) over
  /// the critical-first deterministic order, window-parallel per round.
  void route_all(const NetRouteParams& params, DetailedStats& stats);

  /// One scheduling pass over `nets` in the given order: window phase, then
  /// a serial phase for cross-window nets and window failures.  With
  /// `rip_first`, each net is ripped just before its reroute (DRC cleanup
  /// semantics).  Returns the number of nets whose final attempt failed.
  int route_nets(const std::vector<int>& nets, const NetRouteParams& params,
                 DetailedStats& stats, bool rip_first = false,
                 int rip_depth = 0);

 private:
  struct Pass;  // one window partitioning (scheduler.cpp)

  NetRouter* checkout_worker();
  void return_worker(NetRouter* r);

  /// One net attempt, the only code that opens a net's transactions: each
  /// try (ripping the net first when `rip_first`) runs under its own
  /// RoutingTransaction, committed on success and rolled back — restoring
  /// the pre-attempt wiring — on failure.  It decides the retries (the
  /// rip-up-off retry of violating-commit rounds, the retry ladder's
  /// rungs), contains thrown errors, records everything in `stats`, keeps
  /// the maybe-open cache and decides quarantine.  Every routing attempt in
  /// the stack — flow, ECO, cleanup — funnels through here, so this is also
  /// where the flight recorder captures one record per attempt; `window` is
  /// the scheduler window the attempt ran in (-1 = serial / cross-window).
  bool attempt_net(NetRouter* r, int net, const NetRouteParams& params,
                   DetailedStats& stats, bool rip_first, int rip_depth,
                   int window = -1);

  NetRouter* owner_;
  RoutingSpace* rs_;
  int threads_;
  std::unique_ptr<ThreadPool> pool_;              ///< only when threads_ > 1
  std::vector<std::unique_ptr<NetRouter>> workers_;
  std::mutex worker_mu_;
  std::vector<NetRouter*> free_workers_;

  /// Per-net "might be unconnected" cache, maintained from the per-
  /// transaction touched-net sets: 0 only when the net routed successfully
  /// and no later transaction touched its wiring, so route_all can skip the
  /// whole-net connectivity recomputation for untouched nets between
  /// rounds.  Conservative — a spurious 1 only costs a recheck.  Window
  /// workers write disjoint elements (victims stay inside the window mask),
  /// so no synchronisation is needed.
  std::vector<char> maybe_open_;

  /// Lazily size the per-net quarantine state (same discipline as
  /// maybe_open_: disjoint-element writes under the window discipline, so
  /// no synchronisation needed).
  void ensure_net_state(std::size_t num_nets);

  /// Net quarantine (failure containment): a net that exhausts its retry
  /// ladder, trips repeated recovered faults, or repeatedly hangs the
  /// watchdog is excluded from every further attempt — the flow terminates
  /// with a usable partial result instead of burning rounds on a net that
  /// cannot land.  Its opens still count honestly in the final tally.
  std::vector<char> quarantined_;      ///< per net, 1 = quarantined
  std::vector<int> fault_strikes_;     ///< recovered attempt errors per net
  std::vector<int> watchdog_strikes_;  ///< watchdog stops per net
};

}  // namespace bonn
