#include "src/router/bonnroute.hpp"

#include "src/router/track_assign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <thread>

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
/// BONN_REPORT / BONN_OBS env fallbacks), resets the registry so the run
/// report describes exactly this run, and owns the trace session if this
/// flow started one.
/// Truthy environment flag ("1", "yes", "true", ...; absent or 0/n/f = off).
bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v && !(v[0] == '0' || v[0] == 'n' || v[0] == 'N' || v[0] == 'f' ||
                v[0] == 'F');
}

class FlowObs {
 public:
  /// `span_name` must be a string literal (the trace keeps the pointer).
  FlowObs(const char* flow_name, const char* span_name, const ObsParams& p)
      : flow_name_(flow_name), span_name_(span_name) {
    const char* obs_env = std::getenv("BONN_OBS");
    const bool env_off = obs_env && obs_env[0] == '0';
    metrics_ = p.metrics && !env_off && obs::kCompiledIn;
    obs::set_enabled(metrics_);
    if (metrics_) obs::registry().reset();

    // The flight recorder describes exactly this run: recomputed from the
    // params + environment each flow (a previous flow's setting never
    // leaks), and its rings cleared at the start.
    flight_ = p.flight || env_flag("BONN_FLIGHT");
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

  /// Publish flow-level summary metrics and write trace + report files.
  void finish(const FlowReport& report) {
    if (metrics_) {
      obs::gauge("router.total_seconds").set(report.total_seconds);
      obs::gauge("router.netlength_dbu")
          .set(static_cast<double>(report.netlength));
      obs::gauge("router.vias").set(static_cast<double>(report.vias));
      obs::gauge("router.drc_errors")
          .set(static_cast<double>(report.drc.errors()));
      obs::counter("router.preroute_nets").add(report.preroute_nets);
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
      if (!write_run_report(report_path_, flow_name_, report)) {
        BONN_LOGF(obs::LogLevel::kWarn, "failed to write run report to %s",
                  report_path_.c_str());
      }
    }
    finish_common();
  }

  /// ECO variant: writes the EcoReport-shaped run report instead of a faux
  /// FlowReport, so ECO runs round-trip their own schema.
  void finish(const EcoReport& report) {
    if (metrics_) {
      obs::gauge("router.total_seconds").set(report.total_seconds);
      obs::gauge("router.netlength_dbu")
          .set(static_cast<double>(report.netlength));
      obs::gauge("router.vias").set(static_cast<double>(report.vias));
      obs::gauge("router.outcome")
          .set(static_cast<double>(static_cast<int>(report.outcome)));
    }
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
      if (!write_eco_report(report_path_, report)) {
        BONN_LOGF(obs::LogLevel::kWarn, "failed to write run report to %s",
                  report_path_.c_str());
      }
    }
    finish_common();
  }

 private:
  void finish_common() {
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

/// End-of-phase boundary: record an RSS sample against the finished phase
/// and move the shared phase label (trace spans + flight records) onward.
/// `done` and `next` must be string literals.
void phase_boundary(std::vector<PhaseRss>& samples, const char* done,
                    const char* next) {
  samples.push_back(
      {done, MemoryBudget::current_rss_gb(), peak_memory_gb()});
  obs::set_phase(next);
}

/// Shared tail: metrics, DRC audit, Table II lengths.
void finalize_report(const Chip& chip, RoutingSpace& rs, FlowReport& report,
                     RoutingResult* out) {
  BONN_TRACE_SPAN("router.finalize");
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

/// Pre-route nets whose pins all fall into one tile (§2.5 first refinement):
/// they are invisible to the global model, so they must consume detailed
/// capacity before edge capacities are counted.  The nets are routed through
/// the scheduler (window-parallel, deterministic, net-id order).
int preroute_local_nets(const Chip& chip, DetailedScheduler& sched,
                        const NetRouteParams& params, int nx, int ny,
                        DetailedStats* stats) {
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

/// Resolve the worker-thread count: BONN_THREADS overrides FlowParams
/// (strictly parsed — garbage falls back with a warning), and 0 means
/// auto-detect from the hardware.
int resolve_threads(int requested) {
  if (auto v = env_int("BONN_THREADS", 0, 4096)) {
    requested = static_cast<int>(*v);
  }
  if (requested == 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(requested, 1);
}

/// Budget limits with the BONN_DEADLINE_S / BONN_MEM_GB overrides applied.
BudgetParams budget_with_env(BudgetParams bp) {
  if (auto v = env_double("BONN_DEADLINE_S", 1e-3, 1e9)) bp.deadline_s = *v;
  if (auto v = env_double("BONN_MEM_GB", 1e-3, 1e6)) bp.memory_gb = *v;
  return bp;
}

Deadline flow_deadline(const BudgetParams& bp) {
  return bp.deadline_s > 0 ? Deadline::after_seconds(bp.deadline_s)
                           : Deadline::never();
}

MemoryBudget flow_memory(const BudgetParams& bp) {
  return bp.memory_gb > 0 ? MemoryBudget::of_gb(bp.memory_gb)
                          : MemoryBudget();
}

FlowOutcome outcome_of(StopReason reason) {
  return reason == StopReason::kCancelled ? FlowOutcome::kCancelled
                                          : FlowOutcome::kBudgetExhausted;
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

/// Flow-boundary environment validation.  A set-but-malformed BONN_*
/// override is a structured FlowError — the flow fails fast instead of
/// silently running with a default the caller did not ask for.  Also arms
/// the fault-injection registry from BONN_FAULTS (a malformed plan is an
/// error too, and the previous plan stays in force).
void validate_environment(std::vector<FlowError>& errors) {
  env_int("BONN_THREADS", 0, 4096, &errors);
  env_double("BONN_DEADLINE_S", 1e-3, 1e9, &errors);
  env_double("BONN_MEM_GB", 1e-3, 1e6, &errors);
  env_double("BONN_WATCHDOG_S", 0.0, 1e9, &errors);
  if (auto diag = FaultPoints::arm_from_env()) {
    append_error(errors, {"env.faults", *diag, -1});
  }
}

/// BONN_WATCHDOG_S override: per-attempt wall-clock ceiling (0 = off).
/// Wall-clock, so a tripped watchdog is machine-speed-dependent — like the
/// budget limits it is excluded from the params digest.
double watchdog_with_env(double configured) {
  if (auto v = env_double("BONN_WATCHDOG_S", 0.0, 1e9)) return *v;
  return configured;
}

/// Quarantine surfacing, shared by every flow tail: each quarantined net
/// becomes a structured "net.quarantined" error, and a run that would
/// otherwise count as completed is downgraded to completed_degraded — the
/// result is usable, but some nets were given up on and their opens count.
void apply_quarantine(FlowOutcome& outcome, std::vector<FlowError>& errors,
                      const DetailedStats& stats) {
  for (const DetailedStats::Quarantined& q : stats.quarantined) {
    append_error(errors,
                 {"net.quarantined",
                  "net " + std::to_string(q.net) + " quarantined (" + q.cause +
                      "): excluded from further waves; counted as open if "
                      "unconnected",
                  q.net});
  }
  if (!stats.quarantined.empty() && outcome == FlowOutcome::kCompleted) {
    outcome = FlowOutcome::kDegraded;
  }
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
  check_range(errors,
              std::isfinite(d.attempt_deadline_s) && d.attempt_deadline_s >= 0,
              "params.attempt_deadline",
              "per-net attempt deadline must be finite, >= 0 (0 = off)");
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
  h = fnv1a_double(h, p.detailed.attempt_deadline_s);
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
  Timer total;
  FlowObs flow_obs("bonnroute", "flow.bonnroute", params.obs);
  FlowReport report;

  // Fail fast on malformed inputs: every downstream stage may then assume a
  // structurally sound chip, parameters and checkpoint.
  for (FlowError& e : validate_chip(chip)) {
    append_error(report.errors, std::move(e));
  }
  for (FlowError& e : validate_flow_params(params)) {
    append_error(report.errors, std::move(e));
  }
  validate_environment(report.errors);
  if (resume != nullptr) {
    for (FlowError& e : validate_checkpoint(chip, params, *resume)) {
      append_error(report.errors, std::move(e));
    }
  }
  if (!report.errors.empty()) {
    report.outcome = FlowOutcome::kFailed;
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }

  const BudgetParams bp = budget_with_env(params.budget);
  Budget budget(flow_deadline(bp), flow_memory(bp), bp.cancel);
  budget.set_poll_trip(bp.poll_trip);
  const std::string ckpt_path = checkpoint_destination(params);

  try {
    auto [nx, ny] = params.tiles_x > 0
                        ? std::pair<int, int>{params.tiles_x, params.tiles_y}
                        : auto_tiles(chip);
    const int threads = resolve_threads(params.threads);
    RoutingSpace rs(chip);
    NetRouter router(rs);
    DetailedScheduler sched(router, threads);

    std::vector<SteinerSolution> routes;
    std::vector<std::pair<Rect, Coord>> zones;

    // Interrupted: freeze the last *completed* phase boundary into a
    // checkpoint, persist it if a path is configured, and return the
    // best-effort partial routing currently in the routing space.
    auto interrupt = [&](FlowPhase phase, const RoutingResult* base) {
      const StopReason reason = budget.stop_reason();
      report.stop_reason = reason;
      report.outcome = outcome_of(reason);
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
      report.total_seconds = total.seconds();
      finalize_report(chip, rs, report, out);
      for (const FlowError& e : report.detailed.errors) {
        append_error(report.errors, e);
      }
      apply_quarantine(report.outcome, report.errors, report.detailed);
      flow_obs.finish(report);
      return report;
    };

    NetRouteParams dp = params.detailed;
    dp.budget = &budget;
    dp.watchdog_s = watchdog_with_env(dp.watchdog_s);

    const bool from_detailed_done =
        resume != nullptr && resume->phase >= FlowPhase::kDetailedDone;
    std::optional<GlobalRouter> gr;

    if (from_detailed_done) {
      // All wiring — including the committed pin-access paths — is in the
      // checkpoint base; reloading it reconstructs the exact routing-space
      // state at the detailed-done boundary.  The global router is rebuilt
      // for its corridor geometry only (tile grid), never re-routed.
      obs::set_phase("resume");
      BONN_TRACE_SPAN("router.resume_load");
      rs.load_result(resume->base);
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
      {
        BONN_TRACE_SPAN("detailed.precompute_access");
        router.precompute_access(dp);  // dp carries the flow budget
      }
      {
        BONN_TRACE_SPAN("router.preroute_local_nets");
        report.preroute_nets =
            preroute_local_nets(chip, sched, dp, nx, ny, &report.detailed);
      }
      if (budget.stopped()) return interrupt(FlowPhase::kStart, nullptr);
      phase_boundary(report.phase_rss, "preroute", "global");

      // Global routing on capacities that already reflect the pre-routes.
      // The sharing solver gets the flow-wide thread count in deterministic
      // chunked mode, so its fractional solution matches at any parallelism.
      gr.emplace(chip, rs.tg(), rs.fast(), nx, ny);
      if (resume != nullptr && resume->phase >= FlowPhase::kGlobalDone) {
        routes = resume->routes;
        zones = resume->spread_zones;
      } else {
        GlobalRouterParams gp = params.global;
        gp.sharing.threads = threads;
        gp.sharing.deterministic = true;
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

      sched.route_all(dp, &report.detailed);
      if (budget.stopped()) return interrupt(FlowPhase::kGlobalDone, nullptr);
      phase_boundary(report.phase_rss, "detailed", "cleanup");
    }
    report.br_seconds = total.seconds();

    if (params.run_cleanup) {
      BONN_TRACE_SPAN("router.drc_cleanup");
      // Snapshot the detailed-done wiring before cleanup mutates it: if the
      // budget trips mid-cleanup, the checkpoint resumes cleanup from this
      // boundary (the partially cleaned wiring is still returned as the
      // best-effort result).  Skipped for unlimited budgets — the copy is
      // pure overhead when nothing can interrupt the run.
      RoutingResult after_detailed;
      if (budget.limited()) {
        after_detailed = from_detailed_done ? resume->base : rs.result();
      }
      DrcCleanup cleanup(router, &sched);
      CleanupParams cp = params.cleanup;
      cp.reroute = dp;
      report.cleanup = cleanup.run(cp);
      report.cleanup_seconds = report.cleanup.seconds;
      if (budget.stopped()) {
        return interrupt(FlowPhase::kDetailedDone, &after_detailed);
      }
      phase_boundary(report.phase_rss, "cleanup", "finalize");
    }
    report.total_seconds = total.seconds();
    finalize_report(chip, rs, report, out);
    for (const FlowError& e : report.detailed.errors) {
      append_error(report.errors, e);
    }
    apply_quarantine(report.outcome, report.errors, report.detailed);
    flow_obs.finish(report);
    return report;
  } catch (const std::exception& e) {
    // The recoverable-error boundary: whatever escaped the per-net and
    // per-phase handlers is reported, never rethrown past the flow API.
    report.outcome = FlowOutcome::kFailed;
    append_error(report.errors, {"internal", e.what(), -1});
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }
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
  Timer total;
  FlowObs flow_obs("eco", "flow.eco", params.obs);
  EcoReport report;
  report.nets_requested = static_cast<int>(net_ids.size());

  for (FlowError& e : validate_chip(chip)) {
    append_error(report.errors, std::move(e));
  }
  for (FlowError& e : validate_flow_params(params)) {
    append_error(report.errors, std::move(e));
  }
  validate_environment(report.errors);
  // A prior result that does not belong to this chip would silently corrupt
  // the routing space on load; reject it with structured errors instead.
  for (FlowError& e : validate_result(chip, prior)) {
    append_error(report.errors, std::move(e));
  }
  for (int id : net_ids) {
    if (id < 0 || id >= chip.num_nets()) {
      append_error(report.errors,
                   {"eco.net_range",
                    "requested net " + std::to_string(id) +
                        " out of range [0, " +
                        std::to_string(chip.num_nets()) + ")",
                    id});
    }
  }
  if (!report.errors.empty()) {
    report.outcome = FlowOutcome::kFailed;
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }

  const BudgetParams bp = budget_with_env(params.budget);
  Budget budget(flow_deadline(bp), flow_memory(bp), bp.cancel);
  budget.set_poll_trip(bp.poll_trip);

  try {
    const int threads = resolve_threads(params.threads);
    RoutingSpace rs(chip);
    obs::set_phase("eco_load");
    {
      BONN_TRACE_SPAN("eco.load_prior");
      rs.load_result(prior);
    }
    phase_boundary(report.phase_rss, "eco_load", "eco");
    NetRouter router(rs);
    DetailedScheduler sched(router, threads);

    NetRouteParams rp = params.detailed;
    rp.search.allowed_ripup = kStandard;
    rp.budget = &budget;
    rp.watchdog_s = watchdog_with_env(rp.watchdog_s);
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
            sched.route_nets(wave, rp, &stats, /*rip_first=*/true,
                             /*rip_depth=*/0);
        report.nets_rerouted += static_cast<int>(wave.size());
      }
      wave.clear();
      if (budget.stopped()) break;
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

    if (budget.stopped()) {
      report.stop_reason = budget.stop_reason();
      report.outcome = outcome_of(report.stop_reason);
    }
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
    report.total_seconds = total.seconds();
    for (const FlowError& e : stats.errors) append_error(report.errors, e);
    apply_quarantine(report.outcome, report.errors, stats);
    if (out) *out = result;
    flow_obs.finish(report);
    return report;
  } catch (const std::exception& e) {
    report.outcome = FlowOutcome::kFailed;
    append_error(report.errors, {"internal", e.what(), -1});
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }
}

FlowReport run_isr_flow(const Chip& chip, const FlowParams& params,
                        RoutingResult* out) {
  Timer total;
  FlowObs flow_obs("isr", "flow.isr", params.obs);
  FlowReport report;

  for (FlowError& e : validate_chip(chip)) {
    append_error(report.errors, std::move(e));
  }
  for (FlowError& e : validate_flow_params(params)) {
    append_error(report.errors, std::move(e));
  }
  validate_environment(report.errors);
  if (!report.errors.empty()) {
    report.outcome = FlowOutcome::kFailed;
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }

  const BudgetParams bp = budget_with_env(params.budget);
  Budget budget(flow_deadline(bp), flow_memory(bp), bp.cancel);
  budget.set_poll_trip(bp.poll_trip);

  try {
    auto [nx, ny] = params.tiles_x > 0
                        ? std::pair<int, int>{params.tiles_x, params.tiles_y}
                        : auto_tiles(chip);
    const int threads = resolve_threads(params.threads);
    RoutingSpace rs(chip);
    NetRouter router(rs);
    DetailedScheduler sched(router, threads);

    // Budget-interrupted: report the partial routing.  No checkpoint — the
    // ISR negotiation loop's history prices are not reconstructible at a
    // phase boundary, so an interrupted ISR run resumes by rerunning.
    auto interrupted = [&]() {
      report.stop_reason = budget.stop_reason();
      report.outcome = outcome_of(report.stop_reason);
      report.total_seconds = total.seconds();
      finalize_report(chip, rs, report, out);
      for (const FlowError& e : report.detailed.errors) {
        append_error(report.errors, e);
      }
      apply_quarantine(report.outcome, report.errors, report.detailed);
      flow_obs.finish(report);
      return report;
    };

    // ISR global: negotiated 2D + layer assignment on the same capacities.
    obs::set_phase("isr_global");
    GlobalRouter gr(chip, rs.tg(), rs.fast(), nx, ny);
    IsrGlobalRouter isr(chip, gr);
    std::vector<SteinerSolution> routes =
        isr.route(params.isr_global, &report.isr_global);
    if (budget.stopped()) return interrupted();
    phase_boundary(report.phase_rss, "isr_global", "track_assign");

    // ISR track assignment: long-distance trunks on tracks, no DRC checking
    // (§1.2/§5.3); the gridless maze then closes pin-to-trunk connections.
    {
      BONN_TRACE_SPAN("router.track_assign");
      assign_tracks(rs, gr, routes);
    }
    if (budget.stopped()) return interrupted();
    phase_boundary(report.phase_rss, "track_assign", "detailed");

    // ISR detailed: per-vertex gridless maze, greedy pin access.
    NetRouteParams dp = params.detailed;
    dp.vertex_search = true;
    dp.greedy_access = true;
    dp.use_pi_p = false;
    dp.layer_corridor = false;  // "purely gridless fashion"
    dp.budget = &budget;
    dp.watchdog_s = watchdog_with_env(dp.watchdog_s);
    router.set_global(&gr, &routes);
    sched.route_all(dp, &report.detailed);
    if (budget.stopped()) return interrupted();
    phase_boundary(report.phase_rss, "detailed", "cleanup");
    report.br_seconds = total.seconds();

    if (params.run_cleanup) {
      BONN_TRACE_SPAN("router.drc_cleanup");
      DrcCleanup cleanup(router, &sched);
      CleanupParams cp = params.cleanup;
      cp.reroute = dp;
      report.cleanup = cleanup.run(cp);
      report.cleanup_seconds = report.cleanup.seconds;
      if (budget.stopped()) return interrupted();
      phase_boundary(report.phase_rss, "cleanup", "finalize");
    }
    report.total_seconds = total.seconds();
    finalize_report(chip, rs, report, out);
    for (const FlowError& e : report.detailed.errors) {
      append_error(report.errors, e);
    }
    apply_quarantine(report.outcome, report.errors, report.detailed);
    flow_obs.finish(report);
    return report;
  } catch (const std::exception& e) {
    report.outcome = FlowOutcome::kFailed;
    append_error(report.errors, {"internal", e.what(), -1});
    report.total_seconds = total.seconds();
    flow_obs.finish(report);
    return report;
  }
}

}  // namespace bonn
