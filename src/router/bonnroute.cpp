#include "src/router/bonnroute.hpp"

#include "src/router/track_assign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <thread>
#include <type_traits>

#include "src/detailed/scheduler.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/router/run_report.hpp"
#include "src/util/assert.hpp"
#include "src/util/env.hpp"
#include "src/util/faultpoint.hpp"
#include "src/util/hash.hpp"
#include "src/util/timer.hpp"

namespace bonn {

std::pair<int, int> auto_tiles(const Chip& chip) {
  const Coord pitch = chip.tech.wiring.front().pitch;
  const Coord tile = 50 * pitch;
  const int nx = std::max<int>(2, static_cast<int>(chip.die.width() / tile));
  const int ny = std::max<int>(2, static_cast<int>(chip.die.height() / tile));
  return {nx, ny};
}

namespace {

/// Per-flow observability session: applies ObsParams (with the BONN_TRACE /
/// BONN_REPORT / BONN_OBS / BONN_FLIGHT env fallbacks), resets the registry
/// so the run report describes exactly this run, and owns the trace session
/// if this flow started one.
class FlowObs {
 public:
  /// `span_name` must be a string literal (the trace keeps the pointer).
  FlowObs(const char* flow_name, const char* span_name, const ObsParams& p)
      : flow_name_(flow_name), span_name_(span_name) {
    metrics_ =
        p.metrics && obs::env_flag("BONN_OBS", true) && obs::kCompiledIn;
    obs::set_enabled(metrics_);
    if (metrics_) obs::registry().reset();

    // The flight recorder describes exactly this run: recomputed from the
    // params + environment each flow (a previous flow's setting never
    // leaks), and its rings cleared at the start.
    flight_ = p.flight || obs::env_flag("BONN_FLIGHT", false);
    obs::Flight::set_enabled(flight_);
    if (flight_) obs::Flight::reset();

    trace_path_ = p.trace_path;
    if (trace_path_.empty()) {
      if (const char* env = std::getenv("BONN_TRACE")) trace_path_ = env;
    }
    if (!trace_path_.empty()) started_trace_ = obs::Trace::start(trace_path_);
    if (obs::Trace::active()) flow_start_us_ = obs::Trace::now_us();

    report_path_ = p.report_path;
    if (report_path_.empty()) {
      if (const char* env = std::getenv("BONN_REPORT")) report_path_ = env;
    }
  }

  /// Publish flow-level summary metrics and write the trace, the report
  /// and the flight trace.  A FlowReport is written as a run report, an
  /// EcoReport in its own ECO schema, so each round-trips as itself.
  template <class Report>
  void finish(const Report& report) {
    constexpr bool kFlow = std::is_same_v<Report, FlowReport>;
    if (metrics_) {
      obs::gauge("router.total_seconds").set(report.total_seconds);
      obs::gauge("router.netlength_dbu")
          .set(static_cast<double>(report.netlength));
      obs::gauge("router.vias").set(static_cast<double>(report.vias));
      if constexpr (kFlow) {
        obs::gauge("router.drc_errors")
            .set(static_cast<double>(report.drc.errors()));
        obs::counter("router.preroute_nets").add(report.preroute_nets);
      }
      obs::gauge("router.outcome")
          .set(static_cast<double>(static_cast<int>(report.outcome)));
    }
    // The whole-flow span is emitted here, not via BONN_TRACE_SPAN: a scoped
    // span would only close after stop() has already written the file.
    if (obs::Trace::active() && flow_start_us_ != kNoStart) {
      obs::Trace::complete_event(span_name_, flow_start_us_,
                                 obs::Trace::now_us() - flow_start_us_);
    }
    if (started_trace_) {
      if (!obs::Trace::stop()) {
        BONN_LOGF(obs::LogLevel::kWarn, "failed to write trace to %s",
                  trace_path_.c_str());
      }
    }
    if (!report_path_.empty()) {
      bool written;
      if constexpr (kFlow) {
        written = write_run_report(report_path_, flow_name_, report);
      } else {
        written = write_eco_report(report_path_, report);
      }
      if (!written) {
        BONN_LOGF(obs::LogLevel::kWarn, "failed to write run report to %s",
                  report_path_.c_str());
      }
    }
    obs::set_phase("");
    if (flight_) {
      if (const char* env = std::getenv("BONN_FLIGHT_TRACE")) {
        if (!obs::Flight::write_chrome_trace(env)) {
          BONN_LOGF(obs::LogLevel::kWarn, "failed to write flight trace to %s",
                    env);
        }
      }
    }
  }

 private:
  static constexpr std::uint64_t kNoStart = ~std::uint64_t{0};
  const char* flow_name_;
  const char* span_name_;
  bool metrics_ = false;
  bool flight_ = false;
  bool started_trace_ = false;
  std::uint64_t flow_start_us_ = kNoStart;
  std::string trace_path_;
  std::string report_path_;
};

/// The BONN_* overrides, each parsed once at the flow boundary.  A
/// set-but-malformed value is an "env.parse" error that fails the run
/// instead of silently running with a default the caller did not ask for.
struct EnvOverrides {
  std::optional<long long> threads;     ///< BONN_THREADS
  std::optional<double> deadline_s;     ///< BONN_DEADLINE_S
  std::optional<double> memory_gb;      ///< BONN_MEM_GB
  /// BONN_WATCHDOG_S: per-attempt wall-clock ceiling (0 = off).  Like the
  /// budget limits it is machine-speed-dependent, hence excluded from the
  /// params digest.
  std::optional<double> watchdog_s;
};

/// Parse the overrides, check the BONN_OBS and BONN_FLIGHT flags (FlowObs
/// reads them; a value that is not a flag is an "env.parse" error here)
/// and arm the fault-injection registry from BONN_FAULTS (a malformed plan
/// is an "env.faults" error, and the previous plan stays in force).
EnvOverrides read_environment(std::vector<FlowError>& errors) {
  EnvOverrides env;
  env.threads = env_int("BONN_THREADS", 0, 4096, errors);
  env.deadline_s = env_double("BONN_DEADLINE_S", 1e-3, 1e9, errors);
  env.memory_gb = env_double("BONN_MEM_GB", 1e-3, 1e6, errors);
  env.watchdog_s = env_double("BONN_WATCHDOG_S", 0.0, 1e9, errors);
  env_bool("BONN_OBS", errors);
  env_bool("BONN_FLIGHT", errors);
  if (auto diag = FaultPoints::arm_from_env()) {
    append_error(errors, {"env.faults", *diag, -1});
  }
  return env;
}

/// What the flow runner hands a flow's phases.
struct FlowContext {
  const Chip& chip;
  const FlowParams& params;
  const Timer& total;  ///< started before validation
  Budget& budget;      ///< params.budget with BONN_DEADLINE_S / BONN_MEM_GB
  int threads;         ///< params.threads or BONN_THREADS; 0 = hardware
  /// params.detailed carrying the flow budget and BONN_WATCHDOG_S.
  NetRouteParams detailed;
};

/// Flow tail, run by the runner after every flow's phases: the per-net
/// errors the detailed stats recovered join the report's errors, each
/// quarantined net becomes a structured "net.quarantined" error, and a run
/// that would otherwise count as completed is downgraded to
/// completed_degraded — the result is usable, but some nets were given up
/// on and their opens count.
void apply_quarantine(FlowRunReport& report) {
  const DetailedStats& stats = report.detailed;
  for (const FlowError& e : stats.errors) append_error(report.errors, e);
  for (const DetailedStats::Quarantined& q : stats.quarantined) {
    append_error(report.errors,
                 {"net.quarantined",
                  "net " + std::to_string(q.net) + " quarantined (" + q.cause +
                      "): excluded from further waves; counted as open if "
                      "unconnected",
                  q.net});
  }
  if (!stats.quarantined.empty() &&
      report.outcome == FlowOutcome::kCompleted) {
    report.outcome = FlowOutcome::kDegraded;
  }
}

/// The one flow runner.  It opens the observability session, validates
/// the chip, the parameters, the environment and then the flow's own
/// inputs (`validate`), and fails fast with kFailed on any error.  It then
/// builds the budget and the thread count from the parsed overrides, runs
/// `phases` inside the recoverable-error boundary (whatever escapes is an
/// "internal" error and kFailed, never rethrown past the flow API), folds
/// detailed.errors and quarantined nets into the report, and closes the
/// session.  The phases stamp total_seconds themselves, before their
/// finalization work.
template <class Report, class Validate, class Phases>
Report run_flow(const char* flow_name, const char* span_name, const Chip& chip,
                const FlowParams& params, Report report, Validate validate,
                Phases phases) {
  Timer total;
  FlowObs flow_obs(flow_name, span_name, params.obs);
  for (FlowError& e : validate_chip(chip)) {
    append_error(report.errors, std::move(e));
  }
  for (FlowError& e : validate_flow_params(params)) {
    append_error(report.errors, std::move(e));
  }
  const EnvOverrides env = read_environment(report.errors);
  validate(report.errors);
  if (!report.errors.empty()) {
    report.outcome = FlowOutcome::kFailed;
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }
  BudgetParams bp = params.budget;
  if (env.deadline_s) bp.deadline_s = *env.deadline_s;
  if (env.memory_gb) bp.memory_gb = *env.memory_gb;
  Budget budget(bp.deadline_s > 0 ? Deadline::after_seconds(bp.deadline_s)
                                  : Deadline::never(),
                bp.memory_gb > 0 ? MemoryBudget::of_gb(bp.memory_gb)
                                 : MemoryBudget(),
                bp.cancel);
  budget.set_poll_trip(bp.poll_trip);
  int threads = env.threads ? static_cast<int>(*env.threads) : params.threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  FlowContext ctx{chip, params, total, budget, std::max(threads, 1),
              params.detailed};
  ctx.detailed.search.budget = &budget;
  if (env.watchdog_s) ctx.detailed.watchdog_s = *env.watchdog_s;

  try {
    phases(ctx, report);
    apply_quarantine(report);
  } catch (const std::exception& e) {
    report.outcome = FlowOutcome::kFailed;
    append_error(report.errors, {"internal", e.what(), -1});
    report.total_seconds = total.seconds();
  }
  flow_obs.finish(report);
  return report;
}

/// Budget-interrupted run: record which limit tripped (one budget poll).
void mark_stopped(FlowRunReport& report, const Budget& budget) {
  report.stop_reason = budget.stop_reason();
  report.outcome = report.stop_reason == StopReason::kCancelled
                       ? FlowOutcome::kCancelled
                       : FlowOutcome::kBudgetExhausted;
}

std::pair<int, int> flow_tiles(const Chip& chip, const FlowParams& params) {
  return params.tiles_x > 0
             ? std::pair<int, int>{params.tiles_x, params.tiles_y}
             : auto_tiles(chip);
}

/// End-of-phase boundary: record an RSS sample against the finished phase
/// and move the shared phase label (trace spans + flight records) onward.
/// `done` and `next` must be string literals.
void phase_boundary(std::vector<PhaseRss>& samples, const char* done,
                    const char* next) {
  samples.push_back(
      {done, MemoryBudget::current_rss_gb(), peak_memory_gb()});
  obs::set_phase(next);
}

/// Shared tail of BR and ISR, interrupted or not: stamp total_seconds, then
/// metrics, DRC audit and Table II lengths.  The stamp comes first so the
/// report's total excludes this finalization.
void finalize_report(const FlowContext& ctx, RoutingSpace& rs,
                     FlowReport& report, RoutingResult* out) {
  report.total_seconds = ctx.total.seconds();
  BONN_TRACE_SPAN("router.finalize");
  const Chip& chip = ctx.chip;
  const RoutingResult result = rs.result();
  report.netlength = result.total_wirelength();
  report.vias = result.via_count();
  report.scenic = count_scenic(chip, result);
  report.drc = audit_routing(chip, result);
  report.memory_gb = peak_memory_gb();
  report.net_lengths.resize(chip.nets.size());
  for (const Net& n : chip.nets) {
    report.net_lengths[static_cast<std::size_t>(n.id)] =
        result.net_wirelength(n.id);
  }
  if (out) *out = result;
}

/// The DRC cleanup phase of BR and ISR: local reroutes through the flow's
/// scheduler with the flow's detailed parameters `dp`.  Of the reroutes'
/// stats only the recovered errors and the quarantined nets join
/// report.detailed, so the report names them while its counters keep
/// describing detailed routing alone.
void cleanup_phase(DetailedScheduler& sched, const FlowParams& params,
                   const NetRouteParams& dp, FlowReport& report) {
  BONN_TRACE_SPAN("router.drc_cleanup");
  DetailedStats reroutes;
  report.cleanup = DrcCleanup(sched).run(params.cleanup, dp, reroutes);
  report.cleanup_seconds = report.cleanup.seconds;
  for (FlowError& e : reroutes.errors) {
    append_error(report.detailed.errors, std::move(e));
  }
  report.detailed.quarantined.insert(report.detailed.quarantined.end(),
                                     reroutes.quarantined.begin(),
                                     reroutes.quarantined.end());
}

/// Pre-route nets whose pins all fall into one tile (§2.5 first refinement):
/// they are invisible to the global model, so they must consume detailed
/// capacity before edge capacities are counted.  The nets are routed through
/// the scheduler (window-parallel, deterministic, net-id order).
int preroute_local_nets(const Chip& chip, DetailedScheduler& sched,
                        const NetRouteParams& params, int nx, int ny,
                        DetailedStats& stats) {
  const Coord tw = (chip.die.width() + nx - 1) / nx;
  const Coord th = (chip.die.height() + ny - 1) / ny;
  std::vector<int> local_nets;
  for (const Net& n : chip.nets) {
    bool local = true;
    std::pair<Coord, Coord> tile{-1, -1};
    for (int pid : n.pins) {
      const Point a = chip.pins[static_cast<std::size_t>(pid)].anchor();
      const std::pair<Coord, Coord> t{(a.x - chip.die.xlo) / tw,
                                      (a.y - chip.die.ylo) / th};
      if (tile.first < 0) {
        tile = t;
      } else if (!(tile == t)) {
        local = false;
        break;
      }
    }
    if (local) local_nets.push_back(n.id);
  }
  // Route within a slightly larger area than the tile (§2.5).
  const int failed = sched.route_nets(local_nets, params, stats);
  return static_cast<int>(local_nets.size()) - failed;
}

std::string checkpoint_destination(const FlowParams& params) {
  if (!params.checkpoint_path.empty()) return params.checkpoint_path;
  if (const char* env = std::getenv("BONN_CHECKPOINT")) return env;
  return {};
}

void check_range(std::vector<FlowError>& errors, bool ok, const char* code,
                 const std::string& message) {
  if (!ok) append_error(errors, {code, message, -1});
}

}  // namespace

std::vector<FlowError> validate_flow_params(const FlowParams& p) {
  std::vector<FlowError> errors;
  check_range(errors, p.tiles_x >= 0 && p.tiles_y >= 0 &&
                          p.tiles_x <= 100'000 && p.tiles_y <= 100'000,
              "params.tiles", "tile counts must be in [0, 100000]");
  check_range(errors, (p.tiles_x > 0) == (p.tiles_y > 0), "params.tiles",
              "specify both tiles_x and tiles_y, or neither (0 = auto)");
  check_range(errors, p.threads >= 0 && p.threads <= 4096, "params.threads",
              "threads must be in [0, 4096] (0 = auto-detect)");
  const SharingParams& sh = p.global.sharing;
  check_range(errors, sh.phases >= 1 && sh.phases <= 100'000,
              "params.sharing_phases", "sharing phases must be in [1, 1e5]");
  check_range(errors, std::isfinite(sh.epsilon) && sh.epsilon > 0,
              "params.sharing_epsilon", "sharing epsilon must be finite, > 0");
  check_range(errors, std::isfinite(sh.reuse_slack) && sh.reuse_slack > 0,
              "params.reuse_slack", "reuse slack must be finite, > 0");
  const RoundingParams& ro = p.global.rounding;
  check_range(errors, ro.rechoose_passes >= 0 && ro.reroute_rounds >= 0,
              "params.rounding", "rounding pass counts must be >= 0");
  check_range(errors,
              std::isfinite(ro.overflow_price) && ro.overflow_price >= 0,
              "params.overflow_price",
              "overflow price must be finite, >= 0");
  check_range(errors, p.global.max_extra_space >= 0, "params.extra_space",
              "max_extra_space must be >= 0");
  check_range(errors,
              std::isfinite(p.global.detour_bound) &&
                  p.global.detour_bound >= 0,
              "params.detour_bound", "detour bound must be finite, >= 0");
  const NetRouteParams& d = p.detailed;
  check_range(errors, d.search.max_pops >= 1, "params.max_pops",
              "search pop bound must be >= 1");
  check_range(errors,
              d.search.jog_penalty >= 0 && d.search.via_cost >= 0 &&
                  d.search.rip_penalty >= 0,
              "params.search_costs", "search costs must be >= 0");
  check_range(errors, d.corridor_halo >= 0 && d.corridor_halo <= 1000,
              "params.corridor_halo", "corridor halo must be in [0, 1000]");
  check_range(errors, d.max_rip_depth >= 0 && d.max_rip_depth <= 64,
              "params.rip_depth", "rip-up depth must be in [0, 64]");
  check_range(errors, d.rounds >= 1 && d.rounds <= 100, "params.rounds",
              "escalation rounds must be in [1, 100]");
  check_range(errors,
              std::isfinite(d.detour_for_pi_p) && d.detour_for_pi_p > 0,
              "params.detour_for_pi_p",
              "detour_for_pi_p must be finite, > 0");
  check_range(errors, std::isfinite(d.watchdog_s) && d.watchdog_s >= 0,
              "params.watchdog",
              "hung-net watchdog ceiling must be finite, >= 0 (0 = off)");
  check_range(errors, d.attempt_pop_limit >= 0, "params.attempt_pop_limit",
              "per-net attempt pop limit must be >= 0 (0 = off)");
  const PinAccessParams& a = d.access;
  check_range(errors, a.window_radius > 0, "params.access_window",
              "pin-access window radius must be > 0");
  check_range(errors,
              a.max_targets >= 1 && a.max_paths >= 1 && a.access_layers >= 1,
              "params.access_counts",
              "pin-access target/path/layer counts must be >= 1");
  check_range(errors, p.cleanup.max_reroutes >= 0 && p.cleanup.passes >= 0,
              "params.cleanup", "cleanup pass/reroute counts must be >= 0");
  const BudgetParams& b = p.budget;
  check_range(errors, std::isfinite(b.deadline_s) && std::isfinite(b.memory_gb),
              "params.budget", "budget limits must be finite");
  return errors;
}

std::uint64_t flow_params_digest(const FlowParams& p) {
  // Only result-affecting knobs enter the digest.  Excluded on purpose:
  // threads (the flow is bit-identical at any count), obs, budget limits,
  // checkpoint_path, and isr_global (the BonnRoute flow never reads it).
  std::uint64_t h = kFnvOffset;
  h = fnv1a_i64(h, p.tiles_x);
  h = fnv1a_i64(h, p.tiles_y);
  h = fnv1a_i64(h, p.global.sharing.phases);
  h = fnv1a_double(h, p.global.sharing.epsilon);
  h = fnv1a_i64(h, p.global.sharing.oracle_reuse ? 1 : 0);
  h = fnv1a_double(h, p.global.sharing.reuse_slack);
  h = fnv1a_u64(h, p.global.rounding.seed);
  h = fnv1a_i64(h, p.global.rounding.rechoose_passes);
  h = fnv1a_i64(h, p.global.rounding.reroute_rounds);
  h = fnv1a_double(h, p.global.rounding.overflow_price);
  h = fnv1a_i64(h, p.global.max_extra_space);
  h = fnv1a_double(h, p.global.detour_bound);
  const SearchParams& s = p.detailed.search;
  h = fnv1a_i64(h, static_cast<std::int64_t>(s.allowed_ripup));
  h = fnv1a_i64(h, s.jog_penalty);
  h = fnv1a_i64(h, s.via_cost);
  h = fnv1a_i64(h, s.rip_penalty);
  h = fnv1a_i64(h, s.max_pops);
  const PinAccessParams& a = p.detailed.access;
  h = fnv1a_i64(h, a.wiretype);
  h = fnv1a_i64(h, a.window_radius);
  h = fnv1a_i64(h, a.max_targets);
  h = fnv1a_i64(h, a.max_paths);
  h = fnv1a_i64(h, a.via_cost);
  h = fnv1a_i64(h, a.access_layers);
  h = fnv1a_i64(h, a.layer_bonus);
  h = fnv1a_i64(h, a.endpoint_wiretype);
  h = fnv1a_i64(h, a.ignore_rippable ? 1 : 0);
  h = fnv1a_i64(h, p.detailed.corridor_halo);
  h = fnv1a_i64(h, p.detailed.max_rip_depth);
  h = fnv1a_i64(h, p.detailed.rounds);
  h = fnv1a_double(h, p.detailed.detour_for_pi_p);
  h = fnv1a_i64(h, p.detailed.vertex_search ? 1 : 0);
  h = fnv1a_i64(h, p.detailed.greedy_access ? 1 : 0);
  h = fnv1a_i64(h, p.detailed.use_pi_p ? 1 : 0);
  h = fnv1a_i64(h, p.detailed.layer_corridor ? 1 : 0);
  h = fnv1a_i64(h, p.detailed.commit_despite_violations ? 1 : 0);
  h = fnv1a_i64(h, p.detailed.attempt_pop_limit);
  h = fnv1a_i64(h, p.cleanup.max_reroutes);
  h = fnv1a_i64(h, p.cleanup.passes);
  h = fnv1a_i64(h, p.run_cleanup ? 1 : 0);
  return h;
}

std::vector<FlowError> validate_checkpoint(const Chip& chip,
                                           const FlowParams& params,
                                           const Checkpoint& ck) {
  std::vector<FlowError> errors;
  if (ck.version != Checkpoint::kVersion) {
    append_error(errors,
                 {"checkpoint.version",
                  "checkpoint version " + std::to_string(ck.version) +
                      " unsupported (this build resumes v" +
                      std::to_string(Checkpoint::kVersion) + ")",
                  -1});
  }
  if (ck.chip_hash != chip_digest(chip)) {
    append_error(errors,
                 {"checkpoint.chip_mismatch",
                  "checkpoint was written for a different chip "
                  "(content digest mismatch)",
                  -1});
  }
  if (ck.params_digest != flow_params_digest(params)) {
    append_error(errors,
                 {"checkpoint.params_mismatch",
                  "result-affecting flow parameters differ from the "
                  "checkpointed run; resuming would not reproduce it",
                  -1});
  }
  const int phase = static_cast<int>(ck.phase);
  if (phase < 0 || phase > static_cast<int>(FlowPhase::kDetailedDone)) {
    append_error(errors,
                 {"checkpoint.phase",
                  "phase " + std::to_string(phase) + " out of range", -1});
    return errors;  // the phase checks below would be meaningless
  }
  if (ck.state_digest != checkpoint_state_digest(ck)) {
    append_error(errors,
                 {"checkpoint.digest",
                  "state digest mismatch (corrupt or edited checkpoint)",
                  -1});
  }
  if (ck.phase >= FlowPhase::kGlobalDone &&
      ck.routes.size() != chip.nets.size()) {
    append_error(errors,
                 {"checkpoint.routes",
                  "checkpoint at phase " + std::string(to_string(ck.phase)) +
                      " carries " + std::to_string(ck.routes.size()) +
                      " global routes but the chip has " +
                      std::to_string(chip.nets.size()) + " nets",
                  -1});
  }
  if (!ck.net_routed.empty() && ck.net_routed.size() != chip.nets.size()) {
    append_error(errors,
                 {"checkpoint.net_status",
                  "per-net status length " +
                      std::to_string(ck.net_routed.size()) +
                      " does not match the net count",
                  -1});
  }
  if (!ck.base.net_paths.empty()) {
    for (FlowError& e : validate_result(chip, ck.base)) {
      append_error(errors, std::move(e));
    }
  }
  return errors;
}

namespace {

/// Shared body of run_bonnroute_flow and resume_flow.  `resume` == nullptr
/// is a fresh run; otherwise completed phases are reloaded from the
/// checkpoint and only the remaining ones execute.
FlowReport bonnroute_impl(const Chip& chip, const FlowParams& params,
                          RoutingResult* out, const Checkpoint* resume) {
  const auto validate = [&](std::vector<FlowError>& errors) {
    if (resume == nullptr) return;
    for (FlowError& e : validate_checkpoint(chip, params, *resume)) {
      append_error(errors, std::move(e));
    }
  };
  return run_flow("bonnroute", "flow.bonnroute", chip, params, FlowReport(),
                  validate, [&](const FlowContext& ctx, FlowReport& report) {
    const auto [nx, ny] = flow_tiles(chip, params);
    const bool from_detailed_done =
        resume != nullptr && resume->phase >= FlowPhase::kDetailedDone;
    // At the detailed-done boundary all wiring — including the committed
    // pin-access paths — is in the checkpoint base; building the space with
    // it reconstructs the exact routing-space state at that boundary.
    RoutingSpace rs = [&] {
      if (!from_detailed_done) return RoutingSpace(chip);
      obs::set_phase("resume");
      BONN_TRACE_SPAN("router.resume_load");
      return RoutingSpace(chip, resume->base);
    }();
    NetRouter router(rs);
    DetailedScheduler sched(router, ctx.threads);
    Budget& budget = ctx.budget;
    const NetRouteParams& dp = ctx.detailed;
    const std::string ckpt_path = checkpoint_destination(params);

    std::vector<SteinerSolution> routes;
    std::vector<std::pair<Rect, Coord>> zones;

    // Interrupted: freeze the last *completed* phase boundary into a
    // checkpoint, persist it if a path is configured, and return the
    // best-effort partial routing currently in the routing space.
    auto interrupt = [&](FlowPhase phase, const RoutingResult* base) {
      mark_stopped(report, budget);
      static obs::Counter& interrupts = obs::counter("router.flow_interrupts");
      interrupts.add();
      auto ck = std::make_shared<Checkpoint>();
      ck->chip_hash = chip_digest(chip);
      ck->params_digest = flow_params_digest(params);
      ck->phase = phase;
      if (phase >= FlowPhase::kGlobalDone) {
        ck->routes = routes;
        ck->spread_zones = zones;
      }
      ck->base = base != nullptr ? *base : rs.result();
      ck->net_routed.assign(chip.nets.size(), 0);
      for (const Net& n : chip.nets) {
        ck->net_routed[static_cast<std::size_t>(n.id)] =
            router.net_connected(n.id) ? 1 : 0;
      }
      ck->state_digest = checkpoint_state_digest(*ck);
      report.checkpoint = ck;
      if (!ckpt_path.empty()) {
        try {
          save_checkpoint(ckpt_path, *ck);
        } catch (const std::exception& e) {
          BONN_LOGF(obs::LogLevel::kWarn, "failed to save checkpoint: %s",
                    e.what());
          append_error(report.errors, {"checkpoint.save", e.what(), -1});
        }
      }
      finalize_report(ctx, rs, report, out);
    };

    std::optional<GlobalRouter> gr;

    if (from_detailed_done) {
      // The global router is rebuilt for its corridor geometry only (tile
      // grid), never re-routed.
      gr.emplace(chip, rs.tg(), rs.fast(), nx, ny);
      routes = resume->routes;
      zones = resume->spread_zones;
      router.set_global(&*gr, &routes);
      router.set_spread_zones(std::vector<std::pair<Rect, Coord>>(zones));
      phase_boundary(report.phase_rss, "resume", "cleanup");
    } else {
      obs::set_phase("preroute");
      // §4.3 preprocessing first: access reservations consume routing space
      // and must be visible to the §2.5 capacity estimation.  A resume at
      // kStart/kGlobalDone replays this deterministically — the global
      // capacities depend on it.
      router.precompute_access(dp);  // dp carries the flow budget
      {
        BONN_TRACE_SPAN("router.preroute_local_nets");
        report.preroute_nets =
            preroute_local_nets(chip, sched, dp, nx, ny, report.detailed);
      }
      if (budget.stopped()) return interrupt(FlowPhase::kStart, nullptr);
      phase_boundary(report.phase_rss, "preroute", "global");

      // Global routing on capacities that already reflect the pre-routes.
      // The sharing solver gets the flow-wide thread count; its chunked
      // block solves match at any parallelism.
      gr.emplace(chip, rs.tg(), rs.fast(), nx, ny);
      if (resume != nullptr && resume->phase >= FlowPhase::kGlobalDone) {
        routes = resume->routes;
        zones = resume->spread_zones;
      } else {
        GlobalRouterParams gp = params.global;
        gp.sharing.threads = ctx.threads;
        gp.sharing.budget = &budget;
        routes = gr->route(gp, &report.global);
        if (budget.stopped()) {
          // The sharing solver stopped early and the rounding ran on a
          // degraded fractional solution; those routes would differ from
          // the uninterrupted run's, so for bit-identical resume the
          // checkpoint stays at kStart (full global replay).
          routes.clear();
          return interrupt(FlowPhase::kStart, nullptr);
        }
        // Wire spreading (§4.2): tiles the global router filled beyond 90 %
        // get a keep-free cost so the detailed router spreads into emptier
        // regions.  The zones go into any later checkpoint verbatim — they
        // are *not* recomputable at kDetailedDone, where the fast grid
        // already carries the detailed wiring.
        BONN_TRACE_SPAN("router.wire_spreading");
        const GlobalGraph& g = gr->graph();
        std::vector<double> usage(static_cast<std::size_t>(g.num_edges()),
                                  0.0);
        for (const Net& n : chip.nets) {
          const double w = chip.tech.wt(n.wiretype).track_usage;
          for (const auto& [e, sp] :
               routes[static_cast<std::size_t>(n.id)].edges) {
            usage[static_cast<std::size_t>(e)] += w + sp;
          }
        }
        for (int e = 0; e < g.num_edges(); ++e) {
          const GlobalEdge& ge = g.edge(e);
          if (ge.via) continue;
          const double util =
              usage[static_cast<std::size_t>(e)] / std::max(ge.capacity, 0.25);
          // Only near-overflow tiles get a keep-free cost, and a mild one —
          // spreading must nudge wires into empty space, not force detours.
          if (util > 0.9) {
            const Rect zone =
                g.tile_rect(g.tx_of(ge.u), g.ty_of(ge.u))
                    .hull(g.tile_rect(g.tx_of(ge.v), g.ty_of(ge.v)));
            zones.push_back({zone, static_cast<Coord>(100 * (util - 0.9))});
          }
        }
      }
      router.set_global(&*gr, &routes);
      router.set_spread_zones(std::vector<std::pair<Rect, Coord>>(zones));
      phase_boundary(report.phase_rss, "global", "detailed");

      sched.route_all(dp, report.detailed);
      if (budget.stopped()) return interrupt(FlowPhase::kGlobalDone, nullptr);
      phase_boundary(report.phase_rss, "detailed", "cleanup");
    }
    report.br_seconds = ctx.total.seconds();

    if (params.run_cleanup) {
      // Snapshot the detailed-done wiring before cleanup mutates it: if the
      // budget trips mid-cleanup, the checkpoint resumes cleanup from this
      // boundary (the partially cleaned wiring is still returned as the
      // best-effort result).  Skipped for unlimited budgets — the copy is
      // pure overhead when nothing can interrupt the run.
      RoutingResult after_detailed;
      if (budget.limited()) {
        after_detailed = from_detailed_done ? resume->base : rs.result();
      }
      cleanup_phase(sched, params, dp, report);
      if (budget.stopped()) {
        return interrupt(FlowPhase::kDetailedDone, &after_detailed);
      }
      phase_boundary(report.phase_rss, "cleanup", "finalize");
    }
    finalize_report(ctx, rs, report, out);
  });
}

}  // namespace

FlowReport run_bonnroute_flow(const Chip& chip, const FlowParams& params,
                              RoutingResult* out) {
  return bonnroute_impl(chip, params, out, nullptr);
}

FlowReport resume_flow(const Chip& chip, const Checkpoint& ckpt,
                       const FlowParams& params, RoutingResult* out) {
  return bonnroute_impl(chip, params, out, &ckpt);
}

EcoReport reroute_nets(const Chip& chip, const RoutingResult& prior,
                       const std::vector<int>& net_ids,
                       const FlowParams& params, RoutingResult* out) {
  EcoReport init;
  init.nets_requested = static_cast<int>(net_ids.size());
  const auto validate = [&](std::vector<FlowError>& errors) {
    // A prior result that does not belong to this chip would silently
    // corrupt the routing space on load; reject it with structured errors
    // instead.
    for (FlowError& e : validate_result(chip, prior)) {
      append_error(errors, std::move(e));
    }
    for (int id : net_ids) {
      if (id < 0 || id >= chip.num_nets()) {
        append_error(errors,
                     {"eco.net_range",
                      "requested net " + std::to_string(id) +
                          " out of range [0, " +
                          std::to_string(chip.num_nets()) + ")",
                      id});
      }
    }
  };
  return run_flow("eco", "flow.eco", chip, params, std::move(init), validate,
                  [&](const FlowContext& ctx, EcoReport& report) {
    obs::set_phase("eco_load");
    RoutingSpace rs = [&] {
      BONN_TRACE_SPAN("eco.load_prior");
      return RoutingSpace(chip, prior);
    }();
    phase_boundary(report.phase_rss, "eco_load", "eco");
    NetRouter router(rs);
    DetailedScheduler sched(router, ctx.threads);

    NetRouteParams rp = ctx.detailed;
    rp.search.allowed_ripup = kStandard;
    // An ECO edit must never convert a routed net into an open: a clean
    // reroute commits, a violating one commits too (it gets picked up by the
    // collision sweep or a later cleanup), and a failed one rolls back to the
    // prior wiring via the scheduler's per-net transaction.
    rp.commit_despite_violations = true;

    // DRC interaction distance around the dirty region: wiring further away
    // cannot have been affected by the reroute.
    constexpr Coord kCollisionMargin = 600;

    DetailedStats& stats = report.detailed;
    std::vector<char> rerouted(chip.nets.size(), 0);
    std::vector<int> wave;
    for (int id : net_ids) {
      const auto n = static_cast<std::size_t>(id);
      if (!rerouted[n]) {
        rerouted[n] = 1;
        wave.push_back(id);
      }
    }

    // Rip + reroute the requested nets, then sweep the transactions' dirty
    // regions for collision victims (nets whose wiring now violates near the
    // new wiring) and reroute those too.  Bounded: each net reroutes at most
    // once, and the sweep runs at most twice.  A tripped budget stops at the
    // pass boundary — every net past that point keeps its prior wiring.
    // stats.seconds covers the passes and sweeps, as route_all's covers its
    // rounds.
    Timer detailed_timer;
    for (int pass = 0; pass < 3 && !wave.empty(); ++pass) {
      {
        BONN_TRACE_SPAN("eco.reroute_pass");
        report.nets_failed +=
            sched.route_nets(wave, rp, stats, /*rip_first=*/true,
                             /*rip_depth=*/0);
        report.nets_rerouted += static_cast<int>(wave.size());
      }
      wave.clear();
      if (ctx.budget.stopped()) break;
      if (pass == 2 || stats.dirty.empty()) break;
      BONN_TRACE_SPAN("eco.collision_sweep");
      // Wiring the reroute actually changed: the requested nets plus every
      // rip-up victim its transactions touched.
      std::vector<char> touched(chip.nets.size(), 0);
      for (std::size_t i = 0; i < rerouted.size(); ++i) {
        touched[i] = rerouted[i];
      }
      for (int id : stats.touched_nets) {
        touched[static_cast<std::size_t>(id)] = 1;
      }
      const auto touched_blocker = [&](const PlacementCheck& pc) {
        for (int b : pc.blocking_nets)
          if (b >= 0 && touched[static_cast<std::size_t>(b)]) return true;
        return false;
      };
      for (const Net& n : chip.nets) {
        if (rerouted[static_cast<std::size_t>(n.id)]) continue;
        bool near = false;
        for (const RoutedPath& p : rs.paths(n.id)) {
          for (const Shape& s : expand_path(p, chip.tech)) {
            if (stats.dirty.intersects(s.rect, s.global_layer,
                                       kCollisionMargin)) {
              near = true;
              break;
            }
          }
          if (near) break;
        }
        if (!near) continue;
        // A net is a collision victim only if its wiring now violates
        // *against a net this reroute touched*.  The prior result may carry
        // residual violations between untouched nets (the flow commits
        // despite violations and cleans up best-effort); rerouting those here
        // would cascade far beyond the edit.
        bool violated = false;
        for (const RoutedPath& p : rs.paths(n.id)) {
          for (const WireStick& w : p.wires) {
            const PlacementCheck pc = rs.checker().check_wire(w, n.id,
                                                              p.wiretype);
            if (!pc.allowed && touched_blocker(pc)) {
              violated = true;
              break;
            }
          }
          for (const ViaStick& v : p.vias) {
            if (violated) break;
            const PlacementCheck pc = rs.checker().check_via(v, n.id,
                                                             p.wiretype);
            if (!pc.allowed && touched_blocker(pc)) violated = true;
          }
          if (violated) break;
        }
        if (violated) {
          rerouted[static_cast<std::size_t>(n.id)] = 1;
          wave.push_back(n.id);
        }
      }
      report.collision_nets += static_cast<int>(wave.size());
    }
    stats.seconds = detailed_timer.seconds();

    if (ctx.budget.stopped()) mark_stopped(report, ctx.budget);
    phase_boundary(report.phase_rss, "eco", "finalize");

    const RoutingResult result = rs.result();
    for (const Net& n : chip.nets) {
      const auto i = static_cast<std::size_t>(n.id);
      if (!(result.net_paths[i] == prior.net_paths[i])) {
        report.changed_nets.push_back(n.id);
      }
    }
    report.rollbacks = stats.rollbacks;
    report.dirty_bbox = stats.dirty.bbox;
    report.netlength = result.total_wirelength();
    report.vias = result.via_count();
    report.total_seconds = ctx.total.seconds();
    if (out) *out = result;
  });
}

FlowReport run_isr_flow(const Chip& chip, const FlowParams& params,
                        RoutingResult* out) {
  const auto validate = [](std::vector<FlowError>&) {};
  return run_flow("isr", "flow.isr", chip, params, FlowReport(), validate,
                  [&](const FlowContext& ctx, FlowReport& report) {
    const auto [nx, ny] = flow_tiles(chip, params);
    RoutingSpace rs(chip);
    NetRouter router(rs);
    DetailedScheduler sched(router, ctx.threads);

    // Budget-interrupted: report the partial routing.  No checkpoint — the
    // ISR negotiation loop's history prices are not reconstructible at a
    // phase boundary, so an interrupted ISR run resumes by rerunning.
    auto interrupted = [&]() {
      mark_stopped(report, ctx.budget);
      finalize_report(ctx, rs, report, out);
    };

    // ISR global: negotiated 2D + layer assignment on the same capacities.
    obs::set_phase("isr_global");
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    IsrGlobalRouter isr(chip, gr);
    std::vector<SteinerSolution> routes =
        isr.route(params.isr_global, &report.isr_global);
    if (ctx.budget.stopped()) return interrupted();
    phase_boundary(report.phase_rss, "isr_global", "track_assign");

    // ISR track assignment: long-distance trunks on tracks, no DRC checking
    // (§1.2/§5.3); the gridless maze then closes pin-to-trunk connections.
    {
      BONN_TRACE_SPAN("router.track_assign");
      assign_tracks(rs, gr, routes);
    }
    if (ctx.budget.stopped()) return interrupted();
    phase_boundary(report.phase_rss, "track_assign", "detailed");

    // ISR detailed: per-vertex gridless maze, greedy pin access.
    NetRouteParams dp = ctx.detailed;
    dp.vertex_search = true;
    dp.greedy_access = true;
    dp.use_pi_p = false;
    dp.layer_corridor = false;  // "purely gridless fashion"
    router.set_global(&gr, &routes);
    sched.route_all(dp, report.detailed);
    if (ctx.budget.stopped()) return interrupted();
    phase_boundary(report.phase_rss, "detailed", "cleanup");
    report.br_seconds = ctx.total.seconds();

    if (params.run_cleanup) {
      cleanup_phase(sched, params, dp, report);
      if (ctx.budget.stopped()) return interrupted();
      phase_boundary(report.phase_rss, "cleanup", "finalize");
    }
    finalize_report(ctx, rs, report, out);
  });
}

}  // namespace bonn
