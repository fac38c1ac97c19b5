// The routing benchmark program.  `gen` writes a workload's input files; `run`
// reads only those files and runs the workload's closed loop at one thread
// through the public entry points (run_bonnroute_flow, reroute_nets,
// run_isr_flow) for the given number of seconds, checks every output, and
// prints the end-to-end metrics.  With --trace it then runs the workload
// once more under the benchmark's span recorder, probes each layer on the
// workload's output, prints the per-layer metrics and writes the spans as a
// Chrome trace.  routebench/run.py builds this binary and calls both
// commands; routebench/README.md describes the workloads and metrics.
//
//   routebench gen --workload W --chip C --dir D
//   routebench run --workload W --chip C --dir D --seed N --seconds S
//                  [--trace FILE] [--record FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "routebench/probes.hpp"
#include "routebench/spans.hpp"
#include "src/db/instance_gen.hpp"
#include "src/db/io.hpp"
#include "src/drc/audit.hpp"
#include "src/obs/json.hpp"
#include "src/router/bonnroute.hpp"
#include "src/router/metrics.hpp"
#include "src/util/hash.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace routebench {
namespace {

using namespace bonn;
using obs::Json;

enum class Workload { kBulk, kEco, kIsr };

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0; BENCHMARK.json gates them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"turnaround_s", "s"}, {"peak_rss_mb", "MB"},
    {"netlength_dbu", "dbu"}, {"vias", "count"},     {"drc_errors", "count"},
};
// Printed beside them but not gated: zero on every workload by design
// (opens are the failures), or defined on some workloads only.
constexpr MetricDef kUngated[] = {
    {"opens", "count"},
    {"scenic25_nets", "count"},
    {"eco_changed_nets", "count"},
};
// Reported by every workload with --trace 1.  Every time here is measured
// on every workload; a count or ratio reads 0 where its layer does no work.
constexpr MetricDef kPerLayer[] = {
    {"db.load_chip_s", "s"},
    {"db.load_result_s", "s"},
    {"detailed.space_build_s", "s"},
    {"detailed.space_load_s", "s"},
    {"fastgrid.rebuild_s", "s"},
    {"router.cleanup_reroutes", "count"},
    {"router.finalize_s", "s"},
    {"global.oracle_calls", "count"},
    {"detailed.ontrack_ns_per_pop", "ns"},
    {"detailed.vertex_ns_per_pop", "ns"},
    {"detailed.pops", "count"},
    {"detailed.heap_pushes", "count"},
    {"detailed.labels", "count"},
    {"detailed.connections_routed", "count"},
    {"detailed.connections_failed", "count"},
    {"detailed.route_success_ratio", "ratio"},
    {"detailed.ripups", "count"},
    {"detailed.rollbacks", "count"},
    {"detailed.ladder_retries", "count"},
    {"detailed.commit_ms", "ms"},
    {"fastgrid.refresh_ms", "ms"},
    {"fastgrid.recomputes", "count"},
    {"fastgrid.hit_ratio", "ratio"},
    {"detailed.txn_rip_rollback_ms", "ms"},
    {"detailed.txn_rollback_entries", "count"},
    {"detailed.txn_commit_ratio", "ratio"},
    {"detailed.net_connected_us", "us"},
    {"detailed.access_precompute_s", "s"},
    {"shapegrid.insert_us", "us"},
    {"shapegrid.query_us", "us"},
    {"shapegrid.capture_us", "us"},
    {"shapegrid.inserts", "count"},
    {"shapegrid.removes", "count"},
    {"shapegrid.queries", "count"},
    {"drc.check_us", "us"},
    {"drc.audit_s", "s"},
    {"trace.overhead_s", "s"},
};
// Printed and recorded with --trace 1, but not in the result line: these
// times come from the flow's report or from the on-track core alone, so
// they read exactly 0 on a workload that does not run that phase
// (pre-detailed, detailed and cleanup times on eco, whose reroute_nets
// reports none; the search time on isr; each flow's global routing on the
// other two workloads).
constexpr MetricDef kPerLayerPartial[] = {
    {"router.pre_detailed_s", "s"},
    {"detailed.route_s", "s"},
    {"detailed.search_s", "s"},
    {"detailed.other_s", "s"},
    {"router.cleanup_s", "s"},
    {"global.route_s", "s"},
    {"global.isr_route_s", "s"},
};

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
// One eco pass reroutes every net once, one net per edit, in an order the
// seed shuffles.  Consecutive edits form sessions of this many edits: each
// session starts from the prior result, and each edit works against the
// previous edit's result.  Editing every net makes a pass's median edit
// time and mean quality depend little on the seed, which only decides the
// order and the pairing; the pass is fixed, so its quality does not depend
// on how many passes fit into a run.
constexpr int kEditsPerSession = 2;

// BENCH_6.json's chip1/bonnroute row, which `--chip chip1` must reproduce.
constexpr Coord kChip1Netlength = 1969634;
constexpr std::int64_t kChip1Vias = 2235;
constexpr std::int64_t kChip1DrcErrors = 112;
constexpr std::int64_t kChip1Opens = 0;
constexpr int kChip1Scenic25 = 10;

struct Options {
  std::string command;
  Workload workload = Workload::kBulk;
  std::string workload_name;
  std::string chip = "bench";
  std::string dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;
  std::string record_path;
};

const char* usage =
    "usage: routebench gen --workload bulk|eco|isr --chip bench|smoke|chip1 "
    "--dir D\n"
    "       routebench run --workload W --chip C --dir D --seed N --seconds S"
    " [--trace FILE] [--record FILE]\n";

std::optional<Options> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options o;
  o.command = argv[1];
  if (o.command != "gen" && o.command != "run") return std::nullopt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload_name = val;
      if (val == "bulk") {
        o.workload = Workload::kBulk;
      } else if (val == "eco") {
        o.workload = Workload::kEco;
      } else if (val == "isr") {
        o.workload = Workload::kIsr;
      } else {
        return std::nullopt;
      }
    } else if (key == "--chip") {
      if (val != "bench" && val != "smoke" && val != "chip1") {
        return std::nullopt;
      }
      o.chip = val;
    } else if (key == "--dir") {
      o.dir = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace_path = val;
    } else if (key == "--record") {
      o.record_path = val;
    } else {
      return std::nullopt;
    }
  }
  if ((argc % 2) != 0 || o.dir.empty() || o.workload_name.empty()) {
    return std::nullopt;
  }
  return o;
}

/// The chip each workload routes.  "bench" is the measured chip; "smoke" a
/// tiny one for the smoke test; "chip1" BENCH_6's chip1, for the continuity
/// check against the last trajectory.  The generator seed is part of the
/// chip: --seed drives the closed loop's choices, not the netlist.
ChipParams chip_params(const std::string& name) {
  if (name == "chip1") return paper_chip_suite(150)[0];
  ChipParams p;
  p.tiles_x = p.tiles_y = name == "smoke" ? 2 : 3;
  p.tracks_per_tile = 30;
  p.num_nets = name == "smoke" ? 10 : 30;
  p.seed = 1000;
  return p;
}

/// BENCH_6's flow parameters, at one thread.
FlowParams flow_params() {
  FlowParams fp;
  fp.global.sharing.phases = 6;
  fp.threads = 1;
  return fp;
}

std::uint64_t digest(const RoutingResult& r) {
  std::ostringstream os;
  write_result(os, r);
  return fnv1a_str(kFnvOffset, os.str());
}

/// Nets of every edit of every session of an eco pass.
using Sessions = std::vector<std::vector<std::vector<int>>>;

Sessions make_sessions(std::uint64_t seed, int num_nets) {
  std::vector<int> order(static_cast<std::size_t>(num_nets));
  for (int n = 0; n < num_nets; ++n) order[std::size_t(n)] = n;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  Sessions sessions;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i % kEditsPerSession == 0) sessions.emplace_back();
    sessions.back().push_back({order[i]});
  }
  return sessions;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string utc_now() {
  const std::time_t t =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

Json build_info() {
  const std::string flags = ROUTEBENCH_CXX_FLAGS;
  std::string sanitizers = "none";
  const std::size_t at = flags.find("-fsanitize=");
  if (at != std::string::npos) {
    const std::size_t from = at + std::strlen("-fsanitize=");
    sanitizers = flags.substr(from, flags.find(' ', from) - from);
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return Json::object()
      .set("build_type", ROUTEBENCH_BUILD_TYPE)
      .set("cxx_flags", flags)
      .set("ndebug", ndebug)
      .set("sanitizers", sanitizers);
}

int gen(const Options& o) {
  const std::string chip_path = o.dir + "/chip.txt";
  save_chip(chip_path, generate_chip(chip_params(o.chip)));
  if (o.workload != Workload::kEco) return 0;
  // The eco session starts from the BonnRoute result of the file's chip.
  const Chip chip = load_chip(chip_path);
  RoutingResult prior;
  const FlowReport r = run_bonnroute_flow(chip, flow_params(), &prior);
  if (r.outcome != FlowOutcome::kCompleted) {
    std::fprintf(stderr, "routebench: routing the eco prior ended %s\n",
                 to_string(r.outcome));
    return 1;
  }
  save_result(o.dir + "/prior.txt", prior);
  return 0;
}

/// Routing quality of a result, recomputed by the benchmark.
struct Quality {
  double netlength_dbu = 0;
  double vias = 0;
  double drc_errors = 0;
  double opens = 0;
  double scenic25_nets = 0;

  void add(const Quality& q, double w) {
    netlength_dbu += w * q.netlength_dbu;
    vias += w * q.vias;
    drc_errors += w * q.drc_errors;
    opens += w * q.opens;
    scenic25_nets += w * q.scenic25_nets;
  }
};

Quality quality_of(const Chip& chip, const RoutingResult& r,
                   DrcReport* audit) {
  *audit = audit_routing(chip, r);
  Quality q;
  q.netlength_dbu = double(r.total_wirelength());
  q.vias = double(r.via_count());
  q.drc_errors = double(audit->errors());
  q.opens = double(audit->opens);
  q.scenic25_nets = count_scenic(chip, r).over_25;
  return q;
}

void add_stats(DetailedStats& into, const DetailedStats& d) {
  into.connections_routed += d.connections_routed;
  into.connections_failed += d.connections_failed;
  into.ripups += d.ripups;
  into.rollbacks += d.rollbacks;
  into.ladder_retries += d.ladder_retries;
  into.search.pops += d.search.pops;
  into.search.heap_pushes += d.search.heap_pushes;
  into.search.labels_created += d.search.labels_created;
  into.seconds += d.seconds;
}

/// One pass of a workload's timed calls: one flow call (bulk, isr), or every
/// edit of every session (eco).  The timed and the traced runs both run
/// passes; the traced run passes its recorder, and each call gets a span.
struct Pass {
  std::vector<double> call_s;
  std::uint64_t digest = kFnvOffset;  ///< over every call's result
  RoutingResult result;  ///< the output the probes run on
  Quality quality;       ///< eco: mean over the edit results
  int eco_changed_nets = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Report fields the traced run turns into per-layer metrics.
  FlowReport report;       ///< bulk, isr
  DetailedStats detailed;  ///< eco: summed over the edits
  double finalize_s = 0;   ///< call time the report's total does not cover
};

template <class Fn>
double timed(SpanRecorder* rec, const char* name, Fn&& fn) {
  if (rec == nullptr) {
    Timer t;
    fn();
    return t.seconds();
  }
  return rec->record(name, fn).seconds();
}

std::string vs(double recomputed, double reported) {
  return "recomputed " + std::to_string(recomputed) + ", report " +
         std::to_string(reported);
}

Pass flow_pass(Workload w, const Chip& chip, Checks& checks,
               SpanRecorder* rec) {
  const bool bulk = w == Workload::kBulk;
  const FlowParams fp = flow_params();
  Pass p;
  RoutingResult out(chip.num_nets());
  FlowReport& r = p.report;
  p.call_s.push_back(
      timed(rec, bulk ? "router.run_bonnroute_flow" : "router.run_isr_flow",
            [&] {
              r = bulk ? run_bonnroute_flow(chip, fp, &out)
                       : run_isr_flow(chip, fp, &out);
            }));
  p.finalize_s = p.call_s.back() - r.total_seconds;
  p.digest = digest(out);
  DrcReport audit;
  p.quality = quality_of(chip, out, &audit);
  checks.expect("quality.netlength_matches_report",
                p.quality.netlength_dbu == double(r.netlength),
                vs(p.quality.netlength_dbu, double(r.netlength)));
  checks.expect("quality.vias_match_report",
                p.quality.vias == double(r.vias),
                vs(p.quality.vias, double(r.vias)));
  checks.expect("quality.drc_matches_report", audit == r.drc,
                vs(p.quality.drc_errors, double(r.drc.errors())));
  checks.expect("quality.scenic_matches_report",
                p.quality.scenic25_nets == r.scenic.over_25,
                vs(p.quality.scenic25_nets, r.scenic.over_25));
  for (const Net& n : chip.nets) p.attempted += n.degree() - 1;
  p.failed = r.outcome == FlowOutcome::kCompleted ? audit.opens : p.attempted;
  p.result = std::move(out);
  return p;
}

Pass eco_pass(const Chip& chip, const RoutingResult& prior,
              const Sessions& sessions, Checks& checks, SpanRecorder* rec) {
  const FlowParams fp = flow_params();
  Pass p;
  const std::int64_t prior_opens = count_opens(chip, prior);
  int results = 0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    RoutingResult cur = prior;
    std::int64_t cur_opens = prior_opens;
    for (std::size_t e = 0; e < sessions[s].size(); ++e) {
      const std::string edit = "session " + std::to_string(s + 1) +
                               " edit " + std::to_string(e + 1);
      EcoReport er;
      RoutingResult out;
      p.call_s.push_back(timed(rec, "router.reroute_nets", [&] {
        er = reroute_nets(chip, cur, sessions[s][e], fp, &out);
      }));
      p.finalize_s += p.call_s.back() - er.total_seconds;
      ++p.attempted;
      const bool completed = er.outcome == FlowOutcome::kCompleted;
      checks.expect("eco.edit_completes", completed,
                    edit + " ended " + to_string(er.outcome));
      if (er.outcome == FlowOutcome::kFailed) {
        // No result: the session goes on from the previous one.
        ++p.failed;
        p.digest = fnv1a_u64(p.digest, 0);
        continue;
      }
      DrcReport audit;
      const Quality q = quality_of(chip, out, &audit);
      const bool raised = audit.opens > cur_opens;
      if (!completed || raised) ++p.failed;
      checks.expect("eco.no_new_opens", !raised,
                    edit + " raised opens from " + std::to_string(cur_opens) +
                        " to " + std::to_string(audit.opens));
      checks.expect("quality.netlength_matches_report",
                    q.netlength_dbu == double(er.netlength),
                    edit + ": " + vs(q.netlength_dbu, double(er.netlength)));
      checks.expect("quality.vias_match_report", q.vias == double(er.vias),
                    edit + ": " + vs(q.vias, double(er.vias)));
      std::vector<int> changed;
      for (const Net& n : chip.nets) {
        const auto i = static_cast<std::size_t>(n.id);
        if (!(out.net_paths[i] == cur.net_paths[i])) changed.push_back(n.id);
      }
      checks.expect("quality.changed_nets_match_report",
                    changed == er.changed_nets,
                    edit + ": " + vs(double(changed.size()),
                                     double(er.changed_nets.size())));
      p.eco_changed_nets += static_cast<int>(er.changed_nets.size());
      add_stats(p.detailed, er.detailed);
      p.quality.add(q, 1);
      ++results;
      p.digest = fnv1a_u64(p.digest, digest(out));
      cur = std::move(out);
      cur_opens = audit.opens;
    }
    p.result = std::move(cur);
  }
  const Quality sum = p.quality;
  p.quality = {};
  if (results > 0) p.quality.add(sum, 1.0 / results);
  return p;
}

Pass run_pass(const Options& o, const Chip& chip, const RoutingResult& prior,
              const Sessions& sessions, Checks& checks, SpanRecorder* rec) {
  return o.workload == Workload::kEco
             ? eco_pass(chip, prior, sessions, checks, rec)
             : flow_pass(o.workload, chip, checks, rec);
}

/// The traced run: set-up, one pass and the probes, each call under a span.
/// Fills the per-layer metrics.
void traced_run(const Options& o, const Sessions& sessions,
                const Pass& timed_pass, const std::vector<double>& call_s,
                Values& layer, Checks& checks, Json& record) {
  SpanRecorder rec(o.workload_name);
  {
    SpanRecorder::Scope root(rec, "traced_run");
    Chip chip;
    RoutingResult prior;
    {
      SpanRecorder::Scope setup(rec, "setup");
      layer["db.load_chip_s"] =
          rec.record("db.load_chip",
                     [&] { chip = load_chip(o.dir + "/chip.txt"); })
              .seconds();
      std::unique_ptr<RoutingSpace> rs;
      layer["detailed.space_build_s"] =
          rec.record("detailed.space_build",
                     [&] { rs = std::make_unique<RoutingSpace>(chip); })
              .seconds();
      if (o.workload == Workload::kEco) {
        rec.record("db.load_result",
                   [&] { prior = load_result(o.dir + "/prior.txt"); });
        rec.record("detailed.space_load", [&] { rs->load_result(prior); });
      }
    }

    Pass t;
    rec.record("workload", [&] {
      t = run_pass(o, chip, prior, sessions, checks, &rec);
    });
    checks.expect("determinism.traced_run", t.digest == timed_pass.digest,
                  "the traced pass returned other results than the timed "
                  "passes");

    // Registry counts of the workload's calls (the "router.*" spans; the
    // benchmark's own audits between them are not the workload's).
    const auto counted = [&](const std::string& counter) {
      double sum = 0;
      for (const auto& s : rec.spans()) {
        if (s.name.rfind("router.", 0) == 0) sum += double(s.delta(counter));
      }
      return sum;
    };
    const auto ratio = [](double a, double b) {
      return a + b > 0 ? a / (a + b) : 0;
    };
    const FlowReport& r = t.report;
    const DetailedStats& det =
        o.workload == Workload::kEco ? t.detailed : r.detailed;
    const double global_s = r.global.total_seconds + r.isr_global.seconds;
    if (o.workload != Workload::kEco) {
      layer["router.pre_detailed_s"] =
          r.br_seconds - global_s - r.detailed.seconds;
    }
    layer["router.cleanup_s"] = r.cleanup_seconds;
    layer["router.cleanup_reroutes"] = r.cleanup.nets_rerouted;
    layer["router.finalize_s"] = t.finalize_s;
    layer["global.route_s"] = r.global.total_seconds;
    layer["global.oracle_calls"] = double(r.global.oracle_calls);
    layer["global.isr_route_s"] = r.isr_global.seconds;
    const double search_s = counted("detailed.search_micros.sum") * 1e-6;
    layer["detailed.route_s"] = det.seconds;
    layer["detailed.search_s"] = search_s;
    // reroute_nets leaves DetailedStats::seconds unset, so on eco the
    // difference would be meaningless.
    layer["detailed.other_s"] = det.seconds > 0 ? det.seconds - search_s : 0;
    layer["detailed.pops"] = double(det.search.pops);
    layer["detailed.heap_pushes"] = double(det.search.heap_pushes);
    layer["detailed.labels"] = double(det.search.labels_created);
    layer["detailed.connections_routed"] = det.connections_routed;
    layer["detailed.connections_failed"] = det.connections_failed;
    layer["detailed.route_success_ratio"] =
        ratio(det.connections_routed, det.connections_failed);
    layer["detailed.ripups"] = det.ripups;
    layer["detailed.rollbacks"] = det.rollbacks;
    layer["detailed.ladder_retries"] = det.ladder_retries;
    layer["fastgrid.recomputes"] = counted("fastgrid.recomputes");
    layer["fastgrid.hit_ratio"] =
        ratio(counted("fastgrid.hits"), counted("fastgrid.misses"));
    layer["detailed.txn_rollback_entries"] = counted("txn.rollback_entries");
    layer["detailed.txn_commit_ratio"] =
        ratio(counted("txn.commits"), counted("txn.rollbacks"));
    layer["shapegrid.inserts"] = counted("shapegrid.inserts");
    layer["shapegrid.removes"] = counted("shapegrid.removes");
    layer["shapegrid.queries"] = counted("shapegrid.queries");
    layer["trace.overhead_s"] = median(t.call_s) - median(call_s);

    run_probes(chip, t.result, flow_params(), ~o.seed,
               o.dir + "/probe_result.txt", rec, layer, checks);
  }

  std::ofstream trace(o.trace_path);
  trace << rec.chrome_trace().dump(1) << '\n';
  checks.expect("trace.written", static_cast<bool>(trace),
                "cannot write " + o.trace_path);
  record.set("spans", rec.summary());
}

Json metric_json(double value, const char* unit) {
  return Json::object().set("value", value).set("unit", unit);
}

int run(const Options& o) {
  const std::string started = utc_now();
  Checks checks;

  // Set-up: read the chip and build a routing space (eco: and load the
  // prior result into it), several times.
  std::vector<double> setup_s;
  Chip chip;
  RoutingResult prior;
  for (int i = 0; i < kSetupReps; ++i) {
    Timer t;
    chip = load_chip(o.dir + "/chip.txt");
    RoutingSpace rs(chip);
    if (o.workload == Workload::kEco) {
      prior = load_result(o.dir + "/prior.txt");
      rs.load_result(prior);
    }
    setup_s.push_back(t.seconds());
  }

  // The timed loop: whole passes until the time is up.  Every pass must
  // return the same results as the first.
  const Sessions sessions = make_sessions(o.seed, chip.num_nets());
  Pass first;
  std::vector<double> call_s;
  std::int64_t attempted = 0, failed = 0;
  int passes = 0;
  Timer loop;
  do {
    Pass p = run_pass(o, chip, prior, sessions, checks, nullptr);
    call_s.insert(call_s.end(), p.call_s.begin(), p.call_s.end());
    attempted += p.attempted;
    failed += p.failed;
    if (++passes == 1) first = std::move(p);
    checks.expect("determinism.result_digest", p.digest == first.digest,
                  "pass " + std::to_string(passes) +
                      " returned other results than pass 1");
  } while (loop.seconds() < o.seconds);
  const double rss_mb = peak_rss_mb();

  Values e2e;
  e2e["setup_s"] = median(setup_s);
  e2e["turnaround_s"] = median(call_s);
  e2e["peak_rss_mb"] = rss_mb;
  e2e["netlength_dbu"] = first.quality.netlength_dbu;
  e2e["vias"] = first.quality.vias;
  e2e["drc_errors"] = first.quality.drc_errors;
  e2e["opens"] = first.quality.opens;
  e2e["scenic25_nets"] = first.quality.scenic25_nets;
  e2e["eco_changed_nets"] = first.eco_changed_nets;

  if (o.chip == "chip1" && o.workload == Workload::kBulk) {
    const Quality& q = first.quality;
    const bool same = q.netlength_dbu == kChip1Netlength &&
                      q.vias == kChip1Vias &&
                      q.drc_errors == kChip1DrcErrors &&
                      q.opens == kChip1Opens &&
                      q.scenic25_nets == kChip1Scenic25;
    checks.expect("continuity.bench6_chip1", same,
                  "quality differs from BENCH_6.json's chip1/bonnroute row");
  }

  Json record = Json::object();
  Values layer;
  if (!o.trace_path.empty()) {
    traced_run(o, sessions, first, call_s, layer, checks, record);
  }

  // Human-readable report, then the one-line result.
  const Json build = build_info();
  std::printf("routebench %s  chip=%s  seed=%llu  started=%s\n",
              o.workload_name.c_str(), o.chip.c_str(),
              (unsigned long long)o.seed, started.c_str());
  std::printf("build: %s  ndebug=%s  sanitizers=%s\n",
              build.find("build_type")->as_string().c_str(),
              build.find("ndebug")->as_bool() ? "yes" : "no",
              build.find("sanitizers")->as_string().c_str());
  if (o.workload == Workload::kEco) {
    std::printf(
        "turnaround_s: median of %zu one-net reroute_nets edits (%d passes "
        "of %zu sessions x %d edits); quality: mean over one pass's edit "
        "results\n",
        call_s.size(), passes, sessions.size(), kEditsPerSession);
  } else {
    std::printf("turnaround_s: median of %zu %s calls\n", call_s.size(),
                o.workload == Workload::kBulk ? "run_bonnroute_flow"
                                              : "run_isr_flow");
  }
  std::printf("setup_s: median of %d set-ups\n", kSetupReps);
  const auto print_raw = [](const char* name, const std::vector<double>& v) {
    std::printf("raw %s:", name);
    for (double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  print_raw("setup_s", setup_s);
  print_raw("turnaround_s", call_s);
  for (const MetricDef& d : kEndToEnd) {
    std::printf("  %-32s %14.6g %s\n", d.name, e2e[d.name], d.unit);
  }
  for (const MetricDef& d : kUngated) {
    std::printf("  %-32s %14.6g %s  (not gated)\n", d.name, e2e[d.name],
                d.unit);
  }
  if (!o.trace_path.empty()) {
    std::printf("per-layer metrics of the traced run:\n");
    for (const MetricDef& d : kPerLayer) {
      std::printf("  %-32s %14.6g %s\n", d.name, layer[d.name], d.unit);
    }
    for (const MetricDef& d : kPerLayerPartial) {
      std::printf("  %-32s %14.6g %s  (not in the result line)\n", d.name,
                  layer[d.name], d.unit);
    }
    std::printf("trace: %s\n", o.trace_path.c_str());
  }
  for (const Check& c : checks.list()) {
    std::printf("check %-36s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.ok ? "" : c.detail.c_str());
  }

  Json metrics = Json::object();
  if (o.trace_path.empty()) {
    for (const MetricDef& d : kEndToEnd) {
      metrics.set(d.name, metric_json(e2e[d.name], d.unit));
    }
  } else {
    for (const MetricDef& d : kPerLayer) {
      metrics.set(d.name, metric_json(layer[d.name], d.unit));
    }
  }

  if (!o.record_path.empty()) {
    const auto array = [](const std::vector<double>& v) {
      return Json(Json::Array(v.begin(), v.end()));
    };
    const auto with_units = [](const Values& v, const auto& defs) {
      Json::Object out;
      for (const MetricDef& d : defs) {
        const auto it = v.find(d.name);
        if (it != v.end()) {
          out.emplace_back(d.name, metric_json(it->second, d.unit));
        }
      }
      return Json(std::move(out));
    };
    Json check_list = Json::array();
    for (const Check& c : checks.list()) {
      check_list.push(Json::object()
                          .set("name", c.name)
                          .set("ok", c.ok)
                          .set("detail", c.detail));
    }
    record.set("workload", o.workload_name)
        .set("chip", o.chip)
        .set("seed", o.seed)
        .set("seconds", o.seconds)
        .set("started_utc", started)
        .set("build", build)
        .set("passes", passes)
        .set("raw", Json::object()
                        .set("setup_s", array(setup_s))
                        .set("turnaround_s", array(call_s)))
        .set("end_to_end", with_units(e2e, kEndToEnd))
        .set("ungated", with_units(e2e, kUngated))
        .set("per_layer", with_units(layer, kPerLayer))
        .set("per_layer_partial", with_units(layer, kPerLayerPartial))
        .set("result_digest", std::to_string(first.digest))
        .set("checks", std::move(check_list));
    std::ofstream out(o.record_path);
    out << record.dump(1) << '\n';
  }

  const Json result = Json::object()
                          .set("correct", checks.all_ok())
                          .set("attempted", attempted)
                          .set("failed", failed)
                          .set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return checks.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace routebench

int main(int argc, char** argv) {
  const auto o = routebench::parse(argc, argv);
  if (!o) {
    std::fputs(routebench::usage, stderr);
    return 2;
  }
  try {
    return o->command == "gen" ? routebench::gen(*o) : routebench::run(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "routebench: %s\n", e.what());
    return 1;
  }
}
