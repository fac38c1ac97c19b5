// Scoreboard, trajectory diffing and flight-recorder integration: JSON
// round-trips (FlowOutcome, FlowError, Scoreboard, ECO reports, budget
// trips), the noise-aware bench_diff semantics, phase-boundary RSS
// sampling, and querying the flight recorder for a deliberately failed net.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/db/instance_gen.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/router/bonnroute.hpp"
#include "src/router/run_report.hpp"
#include "src/router/scoreboard.hpp"
#include "src/util/faultpoint.hpp"

namespace bonn {
namespace {

Chip small_chip(int nets = 40, std::uint64_t seed = 7) {
  ChipParams params;
  params.tiles_x = 4;
  params.tiles_y = 4;
  params.tracks_per_tile = 30;
  params.num_nets = nets;
  params.seed = seed;
  return generate_chip(params);
}

FlowParams small_flow() {
  FlowParams fp;
  fp.global.sharing.phases = 4;
  return fp;
}

TEST(FlowOutcomeJson, RoundTripsAllValues) {
  for (FlowOutcome o :
       {FlowOutcome::kCompleted, FlowOutcome::kBudgetExhausted,
        FlowOutcome::kCancelled, FlowOutcome::kFailed}) {
    FlowOutcome back = FlowOutcome::kFailed;
    ASSERT_TRUE(outcome_from_string(to_string(o), &back)) << to_string(o);
    EXPECT_EQ(back, o);
  }
  FlowOutcome back = FlowOutcome::kCompleted;
  EXPECT_FALSE(outcome_from_string("definitely_not_an_outcome", &back));
  EXPECT_EQ(back, FlowOutcome::kCompleted) << "*out must stay untouched";
  EXPECT_FALSE(outcome_from_string("", &back));
}

TEST(ScoreboardJson, RoundTripsEveryField) {
  Scoreboard s;
  s.flow = "bonnroute";
  s.chip = "chip1";
  s.nets = 100;
  s.open_nets = 3;
  s.netlength = 123456789;
  s.vias = 4242;
  s.scenic_over_25 = 7;
  s.scenic_over_50 = 2;
  s.drc_errors = 11;
  s.overflowed_edges = 5;
  s.total_seconds = 12.5;
  s.route_seconds = 9.25;
  s.cleanup_seconds = 2.0;
  s.peak_rss_gb = 1.75;
  s.search_pops = 987654321;
  s.heap_pushes = 1987654321;
  s.labels_created = 55555;
  s.oracle_calls = 777;

  // Through a dump/parse cycle, not just the in-memory Json value.
  const auto parsed = obs::Json::parse(s.to_json().dump(1));
  ASSERT_TRUE(parsed.has_value());
  const auto back = Scoreboard::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->flow, s.flow);
  EXPECT_EQ(back->chip, s.chip);
  EXPECT_EQ(back->nets, s.nets);
  EXPECT_EQ(back->open_nets, s.open_nets);
  EXPECT_EQ(back->netlength, s.netlength);
  EXPECT_EQ(back->vias, s.vias);
  EXPECT_EQ(back->scenic_over_25, s.scenic_over_25);
  EXPECT_EQ(back->scenic_over_50, s.scenic_over_50);
  EXPECT_EQ(back->drc_errors, s.drc_errors);
  EXPECT_EQ(back->overflowed_edges, s.overflowed_edges);
  EXPECT_DOUBLE_EQ(back->total_seconds, s.total_seconds);
  EXPECT_DOUBLE_EQ(back->route_seconds, s.route_seconds);
  EXPECT_DOUBLE_EQ(back->cleanup_seconds, s.cleanup_seconds);
  EXPECT_DOUBLE_EQ(back->peak_rss_gb, s.peak_rss_gb);
  EXPECT_EQ(back->search_pops, s.search_pops);
  EXPECT_EQ(back->heap_pushes, s.heap_pushes);
  EXPECT_EQ(back->labels_created, s.labels_created);
  EXPECT_EQ(back->oracle_calls, s.oracle_calls);

  EXPECT_FALSE(Scoreboard::from_json(obs::Json(1)).has_value());
  // Missing keys keep defaults (additive schema evolution).
  auto sparse = Scoreboard::from_json(
      *obs::Json::parse(R"({"flow":"isr","vias":9})"));
  ASSERT_TRUE(sparse.has_value());
  EXPECT_EQ(sparse->flow, "isr");
  EXPECT_EQ(sparse->vias, 9);
  EXPECT_EQ(sparse->netlength, 0);
}

TEST(ScoreboardJson, TableSkipsRuntimeRowsWhenUntimed) {
  Scoreboard a = *Scoreboard::from_json(
      *obs::Json::parse(R"({"flow":"prior","netlength_dbu":100,"vias":5})"));
  const std::string table = scoreboard_table({a});
  EXPECT_NE(table.find("netlength"), std::string::npos);
  EXPECT_EQ(table.find("total s"), std::string::npos)
      << "untimed scoreboard must not print runtime rows:\n" << table;

  a.total_seconds = 1.0;
  const std::string timed = scoreboard_table({a});
  EXPECT_NE(timed.find("total s"), std::string::npos);
}

TEST(ScoreboardFlow, ReportAndResultAgreeOnQuality) {
  const Chip chip = small_chip();
  RoutingResult result;
  const FlowReport report = run_bonnroute_flow(chip, small_flow(), &result);
  ASSERT_EQ(report.outcome, FlowOutcome::kCompleted);

  const Scoreboard from_rep = Scoreboard::from_report(report, "bonnroute");
  const Scoreboard from_res = Scoreboard::from_result(chip, result, "prior");
  EXPECT_EQ(from_rep.nets, chip.num_nets());
  EXPECT_EQ(from_res.nets, chip.num_nets());
  // Same routing, so the recomputed quality numbers must match the report's.
  EXPECT_EQ(from_res.netlength, from_rep.netlength);
  EXPECT_EQ(from_res.vias, from_rep.vias);
  EXPECT_EQ(from_res.drc_errors, from_rep.drc_errors);
  EXPECT_EQ(from_res.scenic_over_25, from_rep.scenic_over_25);
  EXPECT_EQ(from_res.open_nets, from_rep.open_nets);
  // The report side carries timing/search counters; the result side cannot.
  EXPECT_GT(from_rep.total_seconds, 0.0);
  EXPECT_GT(from_rep.search_pops, 0);
  EXPECT_GT(from_rep.heap_pushes, 0);
  EXPECT_EQ(from_res.total_seconds, 0.0);

  // And the run report embeds the same scoreboard.
  const obs::Json doc = flow_report_json("bonnroute", report);
  const obs::Json* sb = doc.find("scoreboard");
  ASSERT_NE(sb, nullptr);
  const auto parsed = Scoreboard::from_json(*sb);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->netlength, from_rep.netlength);
  EXPECT_EQ(parsed->heap_pushes, from_rep.heap_pushes);
  // heap_pushes also lands in the detailed search counters.
  const obs::Json* det = doc.find("detailed");
  ASSERT_NE(det, nullptr);
  ASSERT_NE(det->find("search"), nullptr);
  EXPECT_NE(det->find("search")->find("heap_pushes"), nullptr);
}

TEST(ScoreboardFlow, PhaseRssSampledAtEveryBoundary) {
  const Chip chip = small_chip();
  const FlowReport report = run_bonnroute_flow(chip, small_flow(), nullptr);
  ASSERT_EQ(report.outcome, FlowOutcome::kCompleted);
  std::vector<std::string> phases;
  for (const PhaseRss& p : report.phase_rss) phases.push_back(p.phase);
  EXPECT_EQ(phases, (std::vector<std::string>{"preroute", "global",
                                              "detailed", "cleanup"}));
  if (peak_memory_available()) {
    for (const PhaseRss& p : report.phase_rss) {
      EXPECT_GT(p.rss_gb, 0.0) << p.phase;
      EXPECT_GE(p.peak_gb, p.rss_gb) << p.phase;
    }
    // Peak is monotone across boundaries.
    for (std::size_t i = 1; i < report.phase_rss.size(); ++i) {
      EXPECT_GE(report.phase_rss[i].peak_gb, report.phase_rss[i - 1].peak_gb);
    }
  }
  // The report JSON carries the samples.
  const obs::Json doc = flow_report_json("bonnroute", report);
  const obs::Json* rss = doc.find("phase_rss");
  ASSERT_NE(rss, nullptr);
  ASSERT_TRUE(rss->is_array());
  EXPECT_EQ(rss->size(), report.phase_rss.size());
}

TEST(ScoreboardFlow, BudgetTripRoundTripsThroughReportJson) {
  const Chip chip = small_chip();
  FlowParams fp = small_flow();
  fp.budget.poll_trip = 8;  // deterministic mid-flow stop
  const FlowReport report = run_bonnroute_flow(chip, fp, nullptr);
  ASSERT_EQ(report.outcome, FlowOutcome::kCancelled);

  const auto doc =
      obs::Json::parse(flow_report_json("bonnroute", report).dump(1));
  ASSERT_TRUE(doc.has_value());
  const obs::Json* outcome = doc->find("outcome");
  ASSERT_NE(outcome, nullptr);
  FlowOutcome back = FlowOutcome::kCompleted;
  ASSERT_TRUE(outcome_from_string(outcome->as_string(), &back));
  EXPECT_EQ(back, FlowOutcome::kCancelled);
  ASSERT_NE(doc->find("stop_reason"), nullptr);
  // An interrupted run stops sampling at the trip point: strictly fewer
  // boundaries than the four of a full run.
  const obs::Json* rss = doc->find("phase_rss");
  ASSERT_NE(rss, nullptr);
  EXPECT_LT(rss->size(), 4u);
}

TEST(ScoreboardFlow, EcoReportRoundTripsThroughJson) {
  const Chip chip = small_chip();
  RoutingResult prior;
  const FlowReport base = run_bonnroute_flow(chip, small_flow(), &prior);
  ASSERT_EQ(base.outcome, FlowOutcome::kCompleted);

  EcoReport eco = reroute_nets(chip, prior, {0, 1, 2}, small_flow(), nullptr);
  EXPECT_EQ(eco.outcome, FlowOutcome::kCompleted);
  // Inject an error so the errors array round-trip is exercised too.
  append_error(eco.errors, {"net_attempt", "synthetic test error", 5});

  const auto doc = obs::Json::parse(eco_report_json(eco).dump(1));
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("flow"), nullptr);
  EXPECT_EQ(doc->find("flow")->as_string(), "eco");
  FlowOutcome back = FlowOutcome::kFailed;
  ASSERT_TRUE(outcome_from_string(doc->find("outcome")->as_string(), &back));
  EXPECT_EQ(back, eco.outcome);

  const obs::Json* ecoj = doc->find("eco");
  ASSERT_NE(ecoj, nullptr);
  EXPECT_EQ(ecoj->find("nets_requested")->as_int(), eco.nets_requested);
  EXPECT_EQ(ecoj->find("nets_rerouted")->as_int(), eco.nets_rerouted);
  EXPECT_EQ(ecoj->find("rollbacks")->as_int(), eco.rollbacks);
  EXPECT_EQ(ecoj->find("netlength_dbu")->as_int(),
            static_cast<std::int64_t>(eco.netlength));

  const obs::Json* errs = doc->find("errors");
  ASSERT_NE(errs, nullptr);
  ASSERT_GE(errs->size(), 1u);
  bool saw_injected = false;
  for (std::size_t i = 0; i < errs->size(); ++i) {
    const obs::Json& e = errs->at(i);
    if (e.find("code")->as_string() == "net_attempt" &&
        e.find("net") != nullptr && e.find("net")->as_int() == 5) {
      saw_injected = true;
      EXPECT_EQ(e.find("message")->as_string(), "synthetic test error");
    }
  }
  EXPECT_TRUE(saw_injected) << "FlowError must round-trip code/message/net";

  // ECO runs sample their own phase boundaries.
  const obs::Json* rss = doc->find("phase_rss");
  ASSERT_NE(rss, nullptr);
  std::vector<std::string> phases;
  for (std::size_t i = 0; i < rss->size(); ++i) {
    phases.push_back(rss->at(i).find("phase")->as_string());
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"eco_load", "eco"}));
}

TEST(BenchDiff, IdenticalTrajectoriesPass) {
  Scoreboard s;
  s.flow = "bonnroute";
  s.netlength = 1000;
  s.vias = 50;
  s.total_seconds = 2.0;
  const obs::Json doc = trajectory_json({{"chip1", {s}}});
  EXPECT_TRUE(diff_trajectories(doc, doc, {}).empty());
}

TEST(BenchDiff, QualityRegressionDetectedRuntimeGated) {
  Scoreboard base;
  base.flow = "bonnroute";
  base.netlength = 100000;
  base.vias = 500;
  base.total_seconds = 1.0;
  Scoreboard cur = base;
  cur.netlength = 110000;    // +10 % > 2 % tolerance
  cur.total_seconds = 10.0;  // 10x, but runtime is gated off by default

  const obs::Json bdoc = trajectory_json({{"chip1", {base}}});
  const obs::Json cdoc = trajectory_json({{"chip1", {cur}}});
  const auto regs = diff_trajectories(bdoc, cdoc, {});
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].metric, "netlength_dbu");
  EXPECT_EQ(regs[0].chip, "chip1");
  EXPECT_EQ(regs[0].flow, "bonnroute");
  EXPECT_DOUBLE_EQ(regs[0].base, 100000);
  EXPECT_DOUBLE_EQ(regs[0].current, 110000);

  BenchDiffOptions with_runtime;
  with_runtime.check_runtime = true;
  const auto regs2 = diff_trajectories(bdoc, cdoc, with_runtime);
  EXPECT_EQ(regs2.size(), 2u) << "runtime check must add total_seconds";
}

TEST(BenchDiff, CountSlackAbsorbsSmallIntegerNoise) {
  Scoreboard base;
  base.flow = "bonnroute";
  base.scenic_over_25 = 3;
  Scoreboard cur = base;
  cur.scenic_over_25 = 5;  // +2: inside the default slack of 2

  const obs::Json bdoc = trajectory_json({{"chip1", {base}}});
  const obs::Json cdoc = trajectory_json({{"chip1", {cur}}});
  EXPECT_TRUE(diff_trajectories(bdoc, cdoc, {}).empty());

  cur.scenic_over_25 = 6;  // beyond relative tol + slack
  const obs::Json cdoc2 = trajectory_json({{"chip1", {cur}}});
  const auto regs = diff_trajectories(bdoc, cdoc2, {});
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].metric, "scenic_over_25");
}

TEST(BenchDiff, IntersectsChipsAndFlows) {
  Scoreboard a;
  a.flow = "bonnroute";
  a.netlength = 1000;
  Scoreboard worse = a;
  worse.netlength = 2000;
  // Baseline has chip1+chip2; current has chip2 (clean) and chip3 (new,
  // would regress if compared against anything — it must be skipped).
  const obs::Json bdoc =
      trajectory_json({{"chip1", {a}}, {"chip2", {a}}});
  const obs::Json cdoc =
      trajectory_json({{"chip2", {a}}, {"chip3", {worse}}});
  EXPECT_TRUE(diff_trajectories(bdoc, cdoc, {}).empty());
  // A new flow on a known chip is skipped too.
  Scoreboard isr = worse;
  isr.flow = "isr";
  const obs::Json cdoc2 = trajectory_json({{"chip1", {a, isr}}});
  EXPECT_TRUE(diff_trajectories(bdoc, cdoc2, {}).empty());
}

TEST(Flight, ExplainsDeliberatelyFailedNet) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DBONN_OBS-OFF";
  const Chip chip = small_chip();
  const int victim = 4;
  FaultPlan plan;
  plan.specs.push_back({"search", 1, 1.0, victim});
  FaultPoints::arm(plan);
  FlowParams fp = small_flow();
  fp.obs.flight = true;
  const FlowReport report = run_bonnroute_flow(chip, fp, nullptr);
  FaultPoints::disarm();
  // Repeated recovered faults quarantine the victim and the flow finishes
  // degraded — contained either way, never fatal.
  ASSERT_TRUE(report.outcome == FlowOutcome::kCompleted ||
              report.outcome == FlowOutcome::kDegraded)
      << "a per-net error must stay recovered";

  const obs::Json doc = obs::Flight::explain(victim);
  ASSERT_NE(doc.find("summary"), nullptr);
  const obs::Json& summary = *doc.find("summary");
  EXPECT_GE(summary.find("attempts")->as_int(), 1);
  EXPECT_GE(summary.find("recovered_errors")->as_int(), 1)
      << "the injected throw must surface as an 'E' attempt";
  const obs::Json* attempts = doc.find("attempts");
  ASSERT_NE(attempts, nullptr);
  bool saw_error_attempt = false;
  for (std::size_t i = 0; i < attempts->size(); ++i) {
    const obs::Json& a = attempts->at(i);
    EXPECT_EQ(a.find("net")->as_int(), victim);
    if (a.find("outcome")->as_string() == "E") saw_error_attempt = true;
  }
  EXPECT_TRUE(saw_error_attempt);

  // The run report embeds the recorder dump when flight is on.
  const obs::Json rep = flow_report_json("bonnroute", report);
  EXPECT_NE(rep.find("flight"), nullptr);

  // And with the recorder off, the flow records nothing.
  obs::Flight::set_enabled(false);
  obs::Flight::reset();
  const FlowReport quiet = run_bonnroute_flow(chip, small_flow(), nullptr);
  ASSERT_EQ(quiet.outcome, FlowOutcome::kCompleted);
  EXPECT_TRUE(obs::Flight::snapshot().empty());
  EXPECT_EQ(flow_report_json("bonnroute", quiet).find("flight"), nullptr);
}

}  // namespace
}  // namespace bonn
