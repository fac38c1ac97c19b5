// The two end-to-end flows of the paper's evaluation (§5.3):
//
//   BonnRoute flow ("BR+ISR"): pre-route single-tile nets (the §2.5 capacity
//   refinement), resource-sharing global routing, interval-search detailed
//   routing with conflict-free pin access, then the external DRC cleanup.
//
//   ISR flow ("ISR"): negotiation-based 2D global routing + layer
//   assignment, per-vertex gridless maze detailed routing with greedy pin
//   access, then the same DRC cleanup.
//
// Both flows share the chip, the capacity model and the metrics code, so the
// Table I/III comparisons isolate the algorithmic differences.
//
// Fault tolerance: every flow entry point runs its phases inside one flow
// runner, which validates the inputs up front (chip, parameters, BONN_*
// overrides — each parsed once, there), runs the phases under an optional
// execution budget (wall clock, RSS, cooperative cancellation), contains
// escaped exceptions, and reports how the run ended through FlowOutcome +
// FlowError instead of aborting the process.  When the budget trips, the
// BonnRoute flow checkpoints at the last completed deterministic phase
// boundary and returns its best-effort partial routing; resume_flow replays
// the remaining phases and reproduces the uninterrupted result
// bit-identically.
#pragma once

#include <memory>
#include <string>

#include "src/detailed/net_router.hpp"
#include "src/router/checkpoint.hpp"
#include "src/router/drc_cleanup.hpp"
#include "src/router/isr_global.hpp"
#include "src/router/metrics.hpp"
#include "src/util/budget.hpp"

namespace bonn {

/// Observability switches per flow run.  Empty paths fall back to the
/// BONN_TRACE / BONN_REPORT environment variables, so examples/ and bench/
/// binaries can be traced without code changes.
struct ObsParams {
  /// Populate the obs metrics registry (BONN_OBS set to an off value —
  /// 0, n, no, f, false or off, in any case — turns it off; a value that is
  /// neither on nor off fails the flow with an "env.parse" error).
  bool metrics = true;
  /// Per-net flight recorder (src/obs/flight.hpp): one record per routing
  /// attempt, queryable via obs::Flight after the flow returns and embedded
  /// in the run report.  Off by default (BONN_FLIGHT set to an on value —
  /// 1, y, yes, t, true or on — also enables it; other values parse as for
  /// BONN_OBS); the BONN_FLIGHT_TRACE variable additionally writes the
  /// records as a standalone Chrome trace.
  bool flight = false;
  std::string trace_path;   ///< Chrome trace-event JSON (empty: BONN_TRACE)
  std::string report_path;  ///< structured run report (empty: BONN_REPORT)
};

/// RSS sample taken at a flow phase boundary (end of the named phase), so
/// the run report can attribute the peak to a phase instead of only
/// reporting the flow-end value.
struct PhaseRss {
  std::string phase;
  double rss_gb = 0;   ///< resident set at the boundary
  double peak_gb = 0;  ///< process peak (VmHWM) up to the boundary
};

/// Execution budget of a flow run.  All limits default to "unlimited"; the
/// BONN_DEADLINE_S / BONN_MEM_GB environment variables override the fields
/// (strictly parsed — garbage fails the run with an "env.parse" error, see
/// util/env.hpp).
struct BudgetParams {
  double deadline_s = 0;  ///< wall-clock limit in seconds; <= 0 = none
  double memory_gb = 0;   ///< resident-set limit in GiB; <= 0 = none
  /// Cooperative cancellation: cancel() from any thread makes the flow wind
  /// down to the next phase boundary and checkpoint.
  CancelToken cancel = CancelToken::none();
  /// Testing/fuzzing hook: trip deterministically after exactly this many
  /// budget polls (negative = disabled).  See Budget::set_poll_trip.
  std::int64_t poll_trip = -1;
};

struct FlowParams {
  int tiles_x = 0;  ///< 0 = auto (≈50 tracks per tile, §2.1)
  int tiles_y = 0;
  /// Worker threads for both phases (§5.1): the global sharing solver's
  /// chunked block solves and the detailed window scheduler both yield
  /// bit-identical results at any value — including 0 = auto-detect.  The
  /// BONN_THREADS environment variable, when set, overrides this field.
  int threads = 1;
  GlobalRouterParams global;
  IsrGlobalParams isr_global;
  NetRouteParams detailed;
  CleanupParams cleanup;
  bool run_cleanup = true;
  ObsParams obs;
  BudgetParams budget;
  /// Where to write the checkpoint if the run is interrupted (empty: the
  /// BONN_CHECKPOINT environment variable; still empty = in-memory only,
  /// via FlowReport::checkpoint).
  std::string checkpoint_path;
};

/// What every flow run reports, whichever flow ran it: how the run ended,
/// its diagnostics, the detailed-routing stats, the size of the result and
/// the phase-boundary RSS samples.  FlowReport and EcoReport extend it.  The
/// one flow runner (bonnroute.cpp) fills outcome, errors and total_seconds
/// on rejected inputs and escaped exceptions, and folds detailed.errors and
/// quarantined nets into errors and outcome at the end of every run.
struct FlowRunReport {
  /// How the run ended.  kCompleted and kBudgetExhausted / kCancelled all
  /// leave a usable (possibly partial) routing in `out`; kFailed means the
  /// inputs were rejected or an internal error escaped a phase — see
  /// `errors`.
  FlowOutcome outcome = FlowOutcome::kCompleted;
  StopReason stop_reason = StopReason::kNone;  ///< which limit tripped
  /// Structured diagnostics: validation failures, per-net recovered errors,
  /// internal failures (capped, see append_error).
  std::vector<FlowError> errors;
  double total_seconds = 0;
  DetailedStats detailed;
  Coord netlength = 0;     ///< of the full result
  std::int64_t vias = 0;
  std::vector<PhaseRss> phase_rss;  ///< RSS at each completed phase boundary
};

struct FlowReport : FlowRunReport {
  /// Set when the run was interrupted: the phase-boundary checkpoint that
  /// resume_flow replays from (also saved to checkpoint_path if set).
  std::shared_ptr<Checkpoint> checkpoint;
  double br_seconds = 0;       ///< Table I "BR" column (before cleanup)
  double cleanup_seconds = 0;
  double memory_gb = 0;
  GlobalRoutingStats global;       ///< BonnRoute flow only
  IsrGlobalStats isr_global;       ///< ISR flow only
  CleanupStats cleanup;
  DrcReport drc;
  ScenicStats scenic;
  int preroute_nets = 0;
  std::vector<Coord> net_lengths;  ///< per net, for Table II
};

/// Result of an incremental (ECO) reroute: how much was touched and how the
/// routing differs from the prior result.
struct EcoReport : FlowRunReport {
  int nets_requested = 0;
  int nets_rerouted = 0;   ///< requested nets + dirty-region collision victims
  int collision_nets = 0;  ///< victims picked up by the dirty-region pass
  int nets_failed = 0;     ///< rerouted nets left open
  int rollbacks = 0;       ///< failed attempts undone by transaction rollback
  Rect dirty_bbox;         ///< hull of everything the reroute touched
  std::vector<int> changed_nets;  ///< delta vs prior: nets whose paths differ
};

/// Incremental (ECO-style) entry point: load `prior` into a fresh routing
/// space, rip only `net_ids`, reroute them transactionally (failed attempts
/// roll back to the prior wiring), then sweep the transactions' dirty
/// regions for collision victims and reroute those too.  Every net outside
/// the touched set keeps its prior wiring bit-identically; with empty
/// `net_ids` the result *is* `prior`.  Deterministic at any thread count.
/// Malformed inputs (net ids out of range, a prior that does not belong to
/// the chip) produce outcome = kFailed with structured errors, not a crash.
EcoReport reroute_nets(const Chip& chip, const RoutingResult& prior,
                       const std::vector<int>& net_ids,
                       const FlowParams& params, RoutingResult* out = nullptr);

/// Auto tile count for a chip (≈ 50 tracks of the bottom layer per tile).
std::pair<int, int> auto_tiles(const Chip& chip);

/// Structural validation of flow parameters (ranges, finiteness, tile
/// consistency).  Empty = valid; run_bonnroute_flow performs this up front
/// and fails the run with these errors instead of asserting mid-flow.
std::vector<FlowError> validate_flow_params(const FlowParams& params);

/// Digest of the result-affecting flow parameters (tiles, global, detailed
/// and cleanup knobs).  Deliberately excludes threads, observability,
/// budget limits and the checkpoint path — none of them change the routing.
/// Checkpoints carry it so a resume under different parameters (which could
/// not reproduce the original run) is rejected.
std::uint64_t flow_params_digest(const FlowParams& params);

/// Check that `ck` can resume a run of `params` on `chip`: version, chip
/// and parameter digests, phase range, state digest, and base-result
/// geometry.  Empty = resumable.
std::vector<FlowError> validate_checkpoint(const Chip& chip,
                                           const FlowParams& params,
                                           const Checkpoint& ck);

/// Run the BonnRoute flow; fills `out` with the final routing.  Never
/// throws on malformed input or an expired budget: see FlowReport::outcome.
FlowReport run_bonnroute_flow(const Chip& chip, const FlowParams& params,
                              RoutingResult* out = nullptr);

/// Resume an interrupted BonnRoute flow from a checkpoint: completed phases
/// are reloaded, the unfinished ones replayed.  Because every phase is
/// deterministic at any thread count, the result is bit-identical to the
/// uninterrupted run — even when the resumed run uses a different thread
/// count than the interrupted one.
FlowReport resume_flow(const Chip& chip, const Checkpoint& ckpt,
                       const FlowParams& params, RoutingResult* out = nullptr);

/// Run the ISR baseline flow.  Budget-aware (polled between stages) but
/// without checkpointing — the ISR negotiation loop carries history prices
/// that are not phase-boundary reconstructible, so an interrupted ISR run
/// reports its partial result and resumes by rerunning.
FlowReport run_isr_flow(const Chip& chip, const FlowParams& params,
                        RoutingResult* out = nullptr);

}  // namespace bonn
