#include "src/detailed/scheduler.hpp"

#include <algorithm>

#include <stdexcept>

#include "src/detailed/transaction.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"

namespace bonn {

namespace {

/// Margin added around a net's reach core (§5.1): covers the search-area
/// expansion at the deepest rip-up level (net_router.cpp expands the
/// endpoint bbox by 800 + 600·rip_depth + 500·halo), plus slack for the
/// pin-access windows, the DRC interaction distance, the fast-grid refresh
/// neighbourhood and the postprocessing patches.
Coord window_margin(const NetRouteParams& p) {
  return 800 + 600 * static_cast<Coord>(p.max_rip_depth) +
         500 * static_cast<Coord>(p.corridor_halo) + 2000;
}

void merge_stats(DetailedStats& into, const DetailedStats& s) {
  into.connections_routed += s.connections_routed;
  into.connections_failed += s.connections_failed;
  into.nets_failed += s.nets_failed;
  into.nets_deferred += s.nets_deferred;
  into.ladder_retries += s.ladder_retries;
  for (const FlowError& e : s.errors) append_error(into.errors, e);
  into.quarantined.insert(into.quarantined.end(), s.quarantined.begin(),
                          s.quarantined.end());
  into.ripups += s.ripups;
  into.pi_p_used += s.pi_p_used;
  into.rollbacks += s.rollbacks;
  into.watchdog_stops += s.watchdog_stops;
  into.dirty.merge(s.dirty);
  into.touched_nets.insert(into.touched_nets.end(), s.touched_nets.begin(),
                           s.touched_nets.end());
  into.search.labels_created += s.search.labels_created;
  into.search.pops += s.search.pops;
  into.search.heap_pushes += s.search.heap_pushes;
  into.search.station_expansions += s.search.station_expansions;
  into.search.fastgrid_hits += s.search.fastgrid_hits;
  into.search.fastgrid_misses += s.search.fastgrid_misses;
}

}  // namespace

/// One window partitioning of a scheduling pass.
struct DetailedScheduler::Pass {
  int dx = 1, dy = 1;
  Rect die;

  /// Window index of a reach rect, or -1 if it spans windows.  Pure
  /// integer geometry: independent of thread count and execution order.
  int window_of(const Rect& reach) const {
    if (reach.empty()) return 0;
    const auto ix = [&](Coord x) {
      return std::clamp<Coord>((x - die.xlo) * dx / std::max<Coord>(die.width(), 1),
                               0, dx - 1);
    };
    const auto iy = [&](Coord y) {
      return std::clamp<Coord>((y - die.ylo) * dy / std::max<Coord>(die.height(), 1),
                               0, dy - 1);
    };
    const Coord cx = ix(reach.xlo), cy = iy(reach.ylo);
    if (cx != ix(reach.xhi) || cy != iy(reach.yhi)) return -1;
    return static_cast<int>(cy * dx + cx);
  }
};

DetailedScheduler::DetailedScheduler(NetRouter& owner, int threads)
    : owner_(&owner), rs_(&owner.space()), threads_(std::max(1, threads)) {
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i) {
      workers_.push_back(std::make_unique<NetRouter>(*rs_, owner.shared()));
      free_workers_.push_back(workers_.back().get());
    }
  }
}

DetailedScheduler::~DetailedScheduler() = default;

NetRouter* DetailedScheduler::checkout_worker() {
  std::lock_guard<std::mutex> lk(worker_mu_);
  if (free_workers_.empty()) return owner_;  // serial (threads_ == 1) path
  NetRouter* r = free_workers_.back();
  free_workers_.pop_back();
  return r;
}

void DetailedScheduler::return_worker(NetRouter* r) {
  if (r == owner_) return;
  std::lock_guard<std::mutex> lk(worker_mu_);
  free_workers_.push_back(r);
}

void DetailedScheduler::ensure_net_state(std::size_t num_nets) {
  // Quarantine (and its strike counters) persists across passes and rounds
  // within this scheduler's lifetime — a quarantined net stays out.
  if (quarantined_.size() != num_nets) {
    quarantined_.assign(num_nets, 0);
    fault_strikes_.assign(num_nets, 0);
    watchdog_strikes_.assign(num_nets, 0);
  }
}

bool DetailedScheduler::attempt_net(NetRouter* r, int net,
                                    const NetRouteParams& params,
                                    DetailedStats& stats, bool rip_first,
                                    int rip_depth, int window) {
  // Flight recorder: one record per attempt, built from the deltas of the
  // stats the attempt writes anyway.
  const bool fly = obs::Flight::enabled();
  const std::int64_t pops0 = stats.search.pops;
  const std::int64_t pushes0 = stats.search.heap_pushes;
  const int rip0 = stats.ripups, roll0 = stats.rollbacks;
  const int ladder0 = stats.ladder_retries;
  const std::uint64_t t0 = fly ? obs::Trace::now_us() : 0;

  // A rip-up cascade is all-or-nothing (net_router.cpp): if a victim cannot
  // be rerouted cleanly, route_net fails and the transaction rolls back.
  // In the violating-commit round that alone would strand the net, so retry
  // once with rip-up disabled — the net then routes around its blockers and
  // commits its own violations for cleanup to fix, instead of trashing its
  // victims' wiring.
  const bool degenerate_retry =
      params.commit_despite_violations && params.search.allowed_ripup != 0;
  const int passes = degenerate_retry ? 2 : 1;
  // Bounded retry ladder: with a per-net pop cap, each pass climbs down up
  // to three rungs, each under its own transaction.  A rung that stops on a
  // limit (pop cap, budget or watchdog) rolls back and descends to a cheaper
  // one; a genuine failure (search space exhausted) or a recovered error
  // ends the pass at once — a weaker rung cannot succeed where a stronger
  // one legitimately failed.
  const std::int64_t cap = params.attempt_pop_limit;
  const int rungs = cap > 0 ? 3 : 1;
  bool routed = false;
  bool recovered_error = false;
  bool watchdog_hit = false;
  bool rungs_exhausted = false;
  for (int pass = 0; pass < passes && !routed; ++pass) {
    // Hung-net watchdog: a hard wall-clock ceiling on this pass, enforced
    // at the search cores' ~1024-pop poll cadence.
    Deadline wd = params.watchdog_s > 0
                      ? Deadline::after_seconds(params.watchdog_s)
                      : Deadline::never();
    for (int rung = 0; rung < rungs; ++rung) {
      NetRouteParams p = params;
      if (pass == 1) p.search.allowed_ripup = 0;
      if (rung >= 1) {
        // Reduced rip-up radius: route around blockers instead of cascading.
        p.max_rip_depth = 0;
        p.search.allowed_ripup = 0;
      }
      if (rung >= 2) {
        // Cheapest rung: tight corridor, no off-track π_P refinement, and a
        // quarter of the pop cap.
        p.corridor_halo = 0;
        p.use_pi_p = false;
      }
      if (cap > 0) {
        p.search.max_pops = std::min(
            p.search.max_pops,
            rung >= 2 ? std::max<std::int64_t>(1, cap / 4) : cap);
      }
      bool limit = false;
      p.search.limit_hit = &limit;
      if (params.watchdog_s > 0) {
        p.search.watchdog = &wd;
        p.search.watchdog_hit = &watchdog_hit;
      }
      RoutingTransaction txn(*rs_);
      bool error = false;
      try {
        if (rip_first) r->rip_net_tracked(net);
        routed = r->route_net(net, p, stats, rip_depth);
        // Commit inside the recovery boundary too: a commit-time failure (an
        // injected txn_commit fault, or a real one) leaves the transaction
        // open, so the rollback below restores the pre-attempt wiring.
        if (routed) txn.commit();
      } catch (const std::exception& e) {
        // Recoverable error model: an internal invariant failure inside a
        // net attempt unwinds that net's transaction, marks the net failed
        // and counts a quarantine strike — it must never kill the flow.
        routed = false;
        error = recovered_error = true;
        static obs::Counter& c_err =
            obs::counter("detailed.net_attempt_errors");
        c_err.add();
        BONN_LOGF(obs::LogLevel::kWarn, "net %d attempt failed: %s", net,
                  e.what());
        append_error(stats.errors, {"net_attempt", e.what(), net});
      }
      if (routed) {
        // A net this transaction ripped may have been left open (or
        // rerouted differently) — recheck it next round.  The routed net
        // itself is settled until some later transaction touches it.
        for (int t : txn.touched_nets()) {
          maybe_open_[static_cast<std::size_t>(t)] = 1;
        }
        maybe_open_[static_cast<std::size_t>(net)] = 0;
        stats.dirty.merge(txn.dirty());
        stats.touched_nets.insert(stats.touched_nets.end(),
                                  txn.touched_nets().begin(),
                                  txn.touched_nets().end());
        break;
      }
      // Attempt-boundary watchdog fallback: a small search may fail without
      // ever reaching the in-loop poll; an expired ceiling on a failed
      // attempt still counts as a hang.
      if (params.watchdog_s > 0 && wd.expired()) watchdog_hit = true;
      // Restore-on-failure: the rip (if any) and all partial progress are
      // undone, so a failed cleanup/ECO reroute never converts a routed net
      // into an open.
      txn.rollback();
      ++stats.rollbacks;
      // Descend only on a limit stop, and not once the flow budget itself
      // has tripped — then the scheduler defers instead — nor once this
      // pass's watchdog ceiling has expired: every lower rung shares it and
      // would stop at its first poll, so the stop counts as a hang, not as
      // an exhausted ladder.
      const Budget* budget = params.search.budget;
      if (rungs == 1 || error || !limit ||
          (budget != nullptr && budget->stopped()) || wd.expired()) {
        break;
      }
      if (rung + 1 < rungs) {
        ++stats.ladder_retries;
        static obs::Counter& c_ladder = obs::counter("detailed.ladder_retries");
        c_ladder.add();
      } else {
        // Even the cheapest rung hit its cap: no configured cap routes this
        // net — the quarantine trigger below.
        rungs_exhausted = true;
      }
    }
  }

  // Strike accounting + quarantine decision.  Per-net elements are written
  // only by the net's owning window (or the serial phase), so this is
  // race-free under the window discipline.
  const std::size_t nidx = static_cast<std::size_t>(net);
  if (watchdog_hit) {
    ++watchdog_strikes_[nidx];
    ++stats.watchdog_stops;
    static obs::Counter& c_wd = obs::counter("detailed.watchdog_stops");
    c_wd.add();
  }
  if (recovered_error) ++fault_strikes_[nidx];
  const char* quarantine_cause = nullptr;
  if (!routed && quarantined_[nidx] == 0) {
    if (rungs_exhausted) {
      // Every rung of the retry ladder failed on a limit: no configured cap
      // routes this net, so stop spending waves on it immediately.
      quarantine_cause = "ladder";
    } else if (fault_strikes_[nidx] >= 2) {
      quarantine_cause = "fault";
    } else if (watchdog_strikes_[nidx] >= 2) {
      quarantine_cause = "watchdog";
    }
    if (quarantine_cause != nullptr) {
      quarantined_[nidx] = 1;
      stats.quarantined.push_back({net, quarantine_cause});
      static obs::Counter& c_q = obs::counter("detailed.nets_quarantined");
      c_q.add();
      BONN_LOGF(obs::LogLevel::kWarn,
                "net %d quarantined (%s): excluded from further waves", net,
                quarantine_cause);
    }
  }

  if (fly) {
    obs::FlightRecord rec;
    rec.net = net;
    rec.window = window;
    rec.phase = obs::current_phase();
    rec.mode = params.vertex_search ? "vertex" : "ontrack";
    rec.pops = stats.search.pops - pops0;
    rec.pushes = stats.search.heap_pushes - pushes0;
    rec.ripups = stats.ripups - rip0;
    rec.rollbacks = stats.rollbacks - roll0;
    rec.ladder_rungs = stats.ladder_retries - ladder0;
    rec.rip_first = rip_first;
    rec.budget_stopped = params.search.budget != nullptr &&
                         params.search.budget->stopped();
    rec.watchdog_stopped = watchdog_hit;
    rec.quarantine = quarantine_cause != nullptr ? quarantine_cause : "";
    rec.outcome = routed ? 'R' : (recovered_error ? 'E' : 'F');
    rec.start_us = t0;
    rec.dur_us = obs::Trace::now_us() - t0;
    obs::Flight::record(rec);
  }
  return routed;
}

int DetailedScheduler::route_nets(const std::vector<int>& nets,
                                  const NetRouteParams& params,
                                  DetailedStats& stats, bool rip_first,
                                  int rip_depth) {
  if (nets.empty()) return 0;
  // The flow budget is polled at net granularity here and inside the search
  // pop loop; a deferred net counts as neither routed nor failed.
  const Budget* budget = params.search.budget;
  auto defer = [&](std::size_t remaining) {
    stats.nets_deferred += static_cast<int>(remaining);
    static obs::Counter& c_defer = obs::counter("detailed.nets_deferred");
    c_defer.add(static_cast<std::int64_t>(remaining));
  };
  const Chip& chip = rs_->chip();
  const Coord margin = window_margin(params);
  if (maybe_open_.size() != chip.nets.size()) {
    maybe_open_.assign(chip.nets.size(), 1);
  }
  ensure_net_state(chip.nets.size());

  Pass pass;
  pass.die = chip.die;
  // Whole-die escalation rounds (net_router.cpp appends chip.die to the
  // search area at corridor_halo >= 3) cannot be partitioned.
  if (params.corridor_halo < 3) {
    const Coord min_win = 2 * margin + 2000;
    while (pass.dx < 8 && pass.die.width() / (pass.dx + 1) >= min_win) {
      ++pass.dx;
    }
    while (pass.dy < 8 && pass.die.height() / (pass.dy + 1) >= min_win) {
      ++pass.dy;
    }
  }

  int failures = 0;
  if (pass.dx * pass.dy == 1) {
    // One window covering the die: the mask would admit every net, so this
    // is exactly the plain sequential loop.
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (budget != nullptr && budget->stopped()) {
        defer(nets.size() - i);
        break;
      }
      const int net = nets[i];
      if (quarantined_[static_cast<std::size_t>(net)] != 0) continue;
      if (!rip_first && owner_->net_connected(net)) {
        maybe_open_[static_cast<std::size_t>(net)] = 0;
        continue;
      }
      if (!attempt_net(owner_, net, params, stats, rip_first, rip_depth,
                       /*window=*/0)) {
        ++failures;
      }
    }
    return failures;
  }

  // ---- assignment: reach rects for every net (mask candidates), window
  // buckets for the pending nets in their given order.
  const std::size_t N = chip.nets.size();
  std::vector<int> win_of(N, -1);
  for (std::size_t n = 0; n < N; ++n) {
    const Rect reach = owner_
                           ->net_reach_core(static_cast<int>(n),
                                            params.corridor_halo)
                           .expanded(margin)
                           .intersection(pass.die);
    win_of[n] = pass.window_of(reach);
  }

  struct WindowTask {
    std::vector<int> nets;        ///< pending, in global order
    std::vector<char> mask;       ///< rippable victims for this window
    std::vector<int> failed;      ///< retried in the serial phase
    DetailedStats local;
    bool ran = false;  ///< false when the budget stopped the task entirely
  };
  std::vector<int> task_of_window(static_cast<std::size_t>(pass.dx * pass.dy),
                                  -1);
  std::vector<WindowTask> tasks;
  std::vector<int> window_id;  ///< window index per task
  std::size_t cross = 0;
  for (int net : nets) {
    if (quarantined_[static_cast<std::size_t>(net)] != 0) continue;
    const int w = win_of[static_cast<std::size_t>(net)];
    if (w < 0) {
      ++cross;
      continue;
    }
    int& t = task_of_window[static_cast<std::size_t>(w)];
    if (t < 0) {
      t = static_cast<int>(tasks.size());
      tasks.emplace_back();
      window_id.push_back(w);
    }
    tasks[static_cast<std::size_t>(t)].nets.push_back(net);
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    tasks[t].mask.assign(N, 0);
    for (std::size_t n = 0; n < N; ++n) {
      if (win_of[n] == window_id[t]) tasks[t].mask[n] = 1;
    }
  }

  static obs::Counter& c_win = obs::counter("detailed.windows");
  static obs::Counter& c_cross = obs::counter("detailed.cross_nets");
  static obs::Counter& c_fail = obs::counter("detailed.window_failures");
  c_win.add(static_cast<std::int64_t>(tasks.size()));
  c_cross.add(static_cast<std::int64_t>(cross));

  // ---- window phase: disjoint windows, one in flight per thread.
  if (!tasks.empty()) {
    rs_->set_concurrent(true);
    auto run_task = [&](std::size_t i) {
      BONN_TRACE_SPAN("detailed.window");
      WindowTask& wt = tasks[i];
      wt.ran = true;
      NetRouter* r = checkout_worker();
      NetRouteParams wp = params;
      wp.rip_allowed = &wt.mask;
      for (std::size_t k = 0; k < wt.nets.size(); ++k) {
        if (budget != nullptr && budget->stopped()) {
          wt.local.nets_deferred += static_cast<int>(wt.nets.size() - k);
          break;
        }
        const int net = wt.nets[k];
        if (!rip_first && r->net_connected(net)) {
          maybe_open_[static_cast<std::size_t>(net)] = 0;
          continue;
        }
        if (!attempt_net(r, net, wp, wt.local, rip_first, rip_depth,
                         window_id[i])) {
          // A net quarantined by this very attempt is done — no serial
          // retry.
          if (quarantined_[static_cast<std::size_t>(net)] == 0) {
            wt.failed.push_back(net);
          }
        }
      }
      return_worker(r);
    };
    if (pool_) {
      // The pool_dispatch fault drops a window task (lost dispatch); its
      // unran flag then counts the whole window's nets as deferred below.
      pool_->parallel_for(tasks.size(), run_task, /*grain=*/1, budget,
                          /*fault_point=*/"pool_dispatch");
    } else {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (budget != nullptr && budget->stopped()) break;
        run_task(i);
      }
    }
    rs_->set_concurrent(false);
  }

  // Deterministic merge: per-window stats folded in window-task order.
  std::vector<char> failed_in_window(N, 0);
  std::size_t window_failures = 0;
  for (WindowTask& wt : tasks) {
    if (!wt.ran) defer(wt.nets.size());  // budget stopped before this task
    merge_stats(stats, wt.local);
    for (int net : wt.failed) {
      failed_in_window[static_cast<std::size_t>(net)] = 1;
      ++window_failures;
    }
  }
  c_fail.add(static_cast<std::int64_t>(window_failures));

  // ---- serial phase: cross-window nets plus window failures (the latter
  // retried without a mask, so victims outside their window are reachable
  // now that no other window is in flight), in the pass's global order.
  // A failed window attempt rolled back, so with rip_first the net's old
  // wiring is in place again and the serial retry rips it once more.
  bool stopped = false;
  for (int net : nets) {
    const std::size_t n = static_cast<std::size_t>(net);
    if (quarantined_[n] != 0) continue;
    const bool is_cross = win_of[n] < 0;
    if (!is_cross && !failed_in_window[n]) continue;
    if (stopped || (budget != nullptr && budget->stopped())) {
      stopped = true;
      defer(1);
      continue;
    }
    if (!rip_first && owner_->net_connected(net)) {
      maybe_open_[n] = 0;
      continue;
    }
    if (!attempt_net(owner_, net, params, stats, rip_first, rip_depth)) {
      ++failures;
    }
  }
  return failures;
}

void DetailedScheduler::route_all(const NetRouteParams& params,
                                  DetailedStats& stats) {
  BONN_TRACE_SPAN("detailed.route_all");
  Timer timer;
  static obs::Gauge& g_threads = obs::gauge("detailed.threads");
  g_threads.set(threads_);
  owner_->precompute_access(params);
  const Chip& chip = rs_->chip();
  const std::vector<int> order = NetRouter::route_order(chip);
  maybe_open_.assign(chip.nets.size(), 1);
  ensure_net_state(chip.nets.size());

  int failed = 0;
  for (int round = 0; round < params.rounds; ++round) {
    BONN_TRACE_SPAN("detailed.round");
    if (params.search.budget != nullptr && params.search.budget->stopped()) {
      break;
    }
    NetRouteParams rp = params;
    rp.search.allowed_ripup =
        round == 0 ? 0 : (round == 1 ? kStandard : kCritical);
    // Escalation evidence (§4.4): how many rounds ran at each ripup level.
    static obs::Counter& c_r0 = obs::counter("detailed.rounds_noripup");
    static obs::Counter& c_r1 = obs::counter("detailed.rounds_standard");
    static obs::Counter& c_r2 = obs::counter("detailed.rounds_critical");
    (round == 0 ? c_r0 : round == 1 ? c_r1 : c_r2).add();
    rp.corridor_halo = params.corridor_halo + round;
    rp.commit_despite_violations = round == params.rounds - 1;
    // Per-transaction dirty tracking replaces whole-net conservatism: a net
    // is rechecked only if some transaction touched its wiring since it
    // last routed successfully.
    std::vector<int> pending;
    for (int net : order) {
      if (quarantined_[static_cast<std::size_t>(net)] != 0) continue;
      if (!maybe_open_[static_cast<std::size_t>(net)]) continue;
      if (owner_->net_connected(net)) {
        maybe_open_[static_cast<std::size_t>(net)] = 0;
        continue;
      }
      pending.push_back(net);
    }
    failed = route_nets(pending, rp, stats, /*rip_first=*/false,
                        /*rip_depth=*/0);
    if (failed == 0 && round > 0) break;
  }
  // Final tally: count nets still open (rip-up victims included).
  failed = 0;
  for (int net : order) {
    if (!owner_->net_connected(net)) ++failed;
  }
  stats.nets_failed = failed;
  stats.seconds = timer.seconds();
}

}  // namespace bonn
