// Chaos-harness tests: the fault-plan grammar, kill-at-every-fault-point
// crash consistency of checkpoint saves, the corrupted-checkpoint recovery
// matrix (truncation, bit flips, stale magic, generation fallback), net
// quarantine with graceful degradation, the hung-net watchdog, and strict
// BONN_* environment parsing at the flow boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/db/chip.hpp"
#include "src/db/instance_gen.hpp"
#include "src/obs/flight.hpp"
#include "src/router/bonnroute.hpp"
#include "src/router/run_report.hpp"
#include "src/util/env.hpp"
#include "src/util/faultpoint.hpp"

namespace bonn {
namespace {

ChipParams small_params() {
  ChipParams p;
  p.tiles_x = 3;
  p.tiles_y = 3;
  p.tracks_per_tile = 30;
  p.num_nets = 40;
  p.num_macros = 1;
  p.seed = 17;
  return p;
}

FlowParams fast_flow(int threads = 1) {
  FlowParams fp;
  fp.tiles_x = 3;
  fp.tiles_y = 3;
  fp.threads = threads;
  fp.global.sharing.phases = 3;
  fp.detailed.rounds = 2;
  fp.cleanup.max_reroutes = 30;
  fp.obs.metrics = false;
  return fp;
}

bool same_result(const RoutingResult& a, const RoutingResult& b) {
  if (a.net_paths.size() != b.net_paths.size()) return false;
  for (std::size_t i = 0; i < a.net_paths.size(); ++i) {
    if (!(a.net_paths[i] == b.net_paths[i])) return false;
  }
  return true;
}

bool has_error(const std::vector<FlowError>& errors, const std::string& code) {
  for (const FlowError& e : errors) {
    if (e.code == code) return true;
  }
  return false;
}

std::string serialize(const Checkpoint& ck) {
  std::ostringstream os;
  write_checkpoint(os, ck);
  return os.str();
}

/// Every test leaves the registry disarmed, whatever path it exits on.
struct DisarmGuard {
  ~DisarmGuard() { FaultPoints::disarm(); }
};

/// Scoped environment variable (set on construction, unset on destruction).
struct ScopedEnv {
  explicit ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  const char* name_;
};

TEST(Chaos, FaultPlanParsesValidGrammar) {
  std::string err;
  const auto plan =
      FaultPlan::parse("ckpt_write:after=3,alloc:rate=0.25,search:net=42",
                       &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->specs.size(), 3u);
  EXPECT_EQ(plan->specs[0].point, "ckpt_write");
  EXPECT_EQ(plan->specs[0].after, 3);
  EXPECT_EQ(plan->specs[0].rate, 1.0);
  EXPECT_EQ(plan->specs[0].net, -1);
  EXPECT_EQ(plan->specs[1].point, "alloc");
  EXPECT_EQ(plan->specs[1].rate, 0.25);
  EXPECT_EQ(plan->specs[2].point, "search");
  EXPECT_EQ(plan->specs[2].net, 42);
  // Modifiers stack on one entry.
  const auto combo = FaultPlan::parse("txn_commit:after=2:rate=0.5:net=7");
  ASSERT_TRUE(combo.has_value());
  EXPECT_EQ(combo->specs[0].after, 2);
  EXPECT_EQ(combo->specs[0].rate, 0.5);
  EXPECT_EQ(combo->specs[0].net, 7);
  // The empty plan is valid and arms nothing.
  const auto empty = FaultPlan::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->specs.empty());
}

TEST(Chaos, FaultPlanRejectsMalformedInput) {
  const char* bad[] = {
      "search:frobnicate=1",   // unknown modifier
      "alloc:rate=banana",     // non-numeric
      "alloc:rate=1.5",        // out of range
      "ckpt_write:after=0",    // after must be >= 1
      "search:net=-3",         // net must be >= 0
      ":after=1",              // empty point name
      "search:after",          // modifier without '='
      "search,,alloc",         // empty entry
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(Chaos, FaultPointAfterRateAndNetSemantics) {
  DisarmGuard guard;
  // after=N fires from the Nth matching hit onward.
  FaultPlan plan;
  plan.specs.push_back({"x", /*after=*/3, /*rate=*/1.0, /*net=*/-1});
  FaultPoints::arm(plan);
  EXPECT_TRUE(FaultPoints::armed());
  EXPECT_FALSE(FaultPoints::should_fail("x"));
  EXPECT_FALSE(FaultPoints::should_fail("x"));
  EXPECT_TRUE(FaultPoints::should_fail("x"));
  EXPECT_TRUE(FaultPoints::should_fail("x"));
  EXPECT_FALSE(FaultPoints::should_fail("unrelated"));
  auto st = FaultPoints::stats();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].hits, 4);
  EXPECT_EQ(st[0].fires, 2);

  // net=K matches only hits tagged with that net.
  FaultPlan scoped;
  scoped.specs.push_back({"y", 1, 1.0, 5});
  FaultPoints::arm(scoped);
  EXPECT_FALSE(FaultPoints::should_fail("y", 4));
  EXPECT_FALSE(FaultPoints::should_fail("y", -1));
  EXPECT_TRUE(FaultPoints::should_fail("y", 5));

  // rate=R is a deterministic coin: same plan, same firing pattern.
  FaultPlan coin;
  coin.specs.push_back({"z", 1, 0.5, -1});
  auto run_coin = [&] {
    FaultPoints::arm(coin);
    std::vector<bool> fired;
    for (int i = 0; i < 1000; ++i) fired.push_back(FaultPoints::should_fail("z"));
    return fired;
  };
  const auto first = run_coin();
  const auto second = run_coin();
  EXPECT_EQ(first, second);
  int fires = 0;
  for (const bool f : first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 350);
  EXPECT_LT(fires, 650);

  FaultPoints::disarm();
  EXPECT_FALSE(FaultPoints::armed());
}

// The crash-consistency guarantee: a save killed at *every* registered
// checkpoint fault point leaves the previous generation bit-identical on
// disk, and resuming from it reproduces the golden run at 1/2/4 threads.
TEST(Chaos, CheckpointSaveKilledAtEveryFaultPointIsCrashConsistent) {
  DisarmGuard guard;
  const Chip chip = generate_chip(small_params());
  RoutingResult golden;
  const FlowReport gr = run_bonnroute_flow(chip, fast_flow(), &golden);
  ASSERT_EQ(gr.outcome, FlowOutcome::kCompleted);

  // An interrupted run donates a resumable mid-flow checkpoint.
  FlowParams fp = fast_flow();
  fp.budget.poll_trip = 256;
  const FlowReport ir = run_bonnroute_flow(chip, fp);
  if (ir.checkpoint == nullptr) {
    GTEST_SKIP() << "flow completed before the poll trip";
  }
  const Checkpoint& ck = *ir.checkpoint;
  const std::string prior_text = serialize(ck);

  const std::string path = ::testing::TempDir() + "bonn_chaos_crash.ckpt";
  for (const char* point : kCheckpointFaultPoints) {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    // Generation 1 lands cleanly...
    save_checkpoint(path, ck);
    // ...then the next save dies at `point`.
    FaultPlan plan;
    plan.specs.push_back({point, 1, 1.0, -1});
    FaultPoints::arm(plan);
    EXPECT_THROW(save_checkpoint(path, ck), FaultInjected) << point;
    FaultPoints::disarm();
    // Whatever step died, some prior generation still loads — and it is
    // bit-identical to the state saved before the crash.
    std::vector<FlowError> errors;
    std::string loaded_from;
    const auto loaded = load_newest_valid_checkpoint(path, &errors,
                                                     &loaded_from);
    ASSERT_TRUE(loaded.has_value()) << point;
    EXPECT_EQ(serialize(*loaded), prior_text) << point;
    // Resume from the survivor reproduces the golden run at any thread
    // count.
    for (const int threads : {1, 2, 4}) {
      RoutingResult resumed;
      const FlowReport rr =
          resume_flow(chip, *loaded, fast_flow(threads), &resumed);
      EXPECT_EQ(rr.outcome, FlowOutcome::kCompleted)
          << point << " threads " << threads;
      EXPECT_TRUE(same_result(resumed, golden))
          << point << " threads " << threads;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(Chaos, CorruptedCheckpointRecoveryMatrix) {
  const Chip chip = generate_chip(small_params());
  FlowParams fp = fast_flow();
  fp.budget.poll_trip = 256;
  const FlowReport ir = run_bonnroute_flow(chip, fp);
  if (ir.checkpoint == nullptr) {
    GTEST_SKIP() << "flow completed before the poll trip";
  }
  const std::string text = serialize(*ir.checkpoint);
  ASSERT_GT(text.size(), 1024u) << "checkpoint too small to truncate";

  auto expect_rejected = [](const std::string& body, const char* what) {
    std::stringstream in(body);
    EXPECT_THROW(read_checkpoint(in), std::runtime_error) << what;
  };

  // Truncation at every 1 KiB boundary (and one byte short of complete) is
  // rejected, never read as a shorter checkpoint.
  for (std::size_t cut = 1024; cut < text.size(); cut += 1024) {
    expect_rejected(text.substr(0, cut), "truncation");
  }
  // Cutting into the endckpt terminator (losing only a trailing newline is
  // benign — every byte of data is digest-covered) is rejected.
  expect_rejected(text.substr(0, text.size() - 2), "near-complete truncation");

  // A single flipped bit inside each section body is caught by that
  // section's digest, and the error names the section.
  for (const char* name : {"zones", "status", "routes", "base"}) {
    const std::string marker = std::string("sec ") + name + ' ';
    const std::size_t sec = text.find(marker);
    ASSERT_NE(sec, std::string::npos) << name;
    const std::size_t body = text.find('\n', sec) + 1;
    const std::size_t next = text.find("sec ", body);
    const std::size_t end = next == std::string::npos
                                ? text.find("endckpt", body)
                                : next;
    ASSERT_NE(end, std::string::npos) << name;
    if (end <= body) continue;  // empty section body: nothing to flip
    std::string flipped = text;
    flipped[body + (end - body) / 2] ^= 0x01;
    std::stringstream in(flipped);
    try {
      read_checkpoint(in);
      FAIL() << "bit flip in section '" << name << "' was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }

  // Stale magic from an older format generation is refused at the header.
  std::stringstream stale("BONNCKPT v1\nmeta 1 0 0 0 0\n");
  try {
    read_checkpoint(stale);
    FAIL() << "v1 magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint format"),
              std::string::npos)
        << e.what();
  }

  // Generation fallback: a corrupt primary with a valid rotated previous
  // generation recovers through <path>.1, and the primary's rejection is a
  // precise structured error.
  const std::string path = ::testing::TempDir() + "bonn_chaos_corrupt.ckpt";
  {
    std::ofstream bad(path);
    bad << text.substr(0, text.size() / 2);
  }
  {
    std::ofstream good(path + ".1");
    good << text;
  }
  std::vector<FlowError> errors;
  std::string loaded_from;
  const auto loaded = load_newest_valid_checkpoint(path, &errors,
                                                   &loaded_from);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded_from, path + ".1");
  EXPECT_EQ(serialize(*loaded), text);
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].code, "checkpoint.load");
  EXPECT_NE(errors[0].message.find(path), std::string::npos);
  // Both generations corrupt: structured failure naming every candidate.
  {
    std::ofstream bad1(path + ".1");
    bad1 << "not a checkpoint\n";
  }
  errors.clear();
  EXPECT_FALSE(load_newest_valid_checkpoint(path, &errors).has_value());
  EXPECT_EQ(errors.size(), 2u);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

// The quarantine acceptance path: a net whose every search invocation
// throws ends quarantined, the flow completes with a usable degraded
// result, and the cause is visible in the report, the errors, and the
// flight recorder.
TEST(Chaos, AlwaysFailingNetIsQuarantinedAndFlowDegrades) {
  DisarmGuard guard;
  const Chip chip = generate_chip(small_params());
  const int victim = 7;
  FaultPlan plan;
  plan.specs.push_back({"search", 1, 1.0, victim});
  FaultPoints::arm(plan);

  FlowParams fp = fast_flow();
  fp.obs.flight = true;  // so Flight::explain can name the cause
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fp, &out);
  FaultPoints::disarm();

  EXPECT_EQ(r.outcome, FlowOutcome::kDegraded);
  ASSERT_EQ(r.detailed.quarantined.size(), 1u);
  EXPECT_EQ(r.detailed.quarantined[0].net, victim);
  EXPECT_EQ(r.detailed.quarantined[0].cause, "fault");
  EXPECT_TRUE(has_error(r.errors, "net.quarantined"));
  // Quarantine never destroys wiring: the victim either keeps its
  // last-known-good routing (restored by transaction rollback) or stays
  // open and is counted honestly.  The rest of the chip routed.
  if (out.net_paths[static_cast<std::size_t>(victim)].empty()) {
    EXPECT_GE(r.drc.opens, 1);
  }
  int routed = 0;
  for (const Net& n : chip.nets) {
    if (!out.net_paths[static_cast<std::size_t>(n.id)].empty()) ++routed;
  }
  EXPECT_GT(routed, chip.num_nets() / 2);
  EXPECT_TRUE(validate_result(chip, out).empty());

  // Flight::explain says why the net is open.
  const obs::Json doc = obs::Flight::explain(victim);
  const obs::Json* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  const obs::Json* cause = summary->find("quarantined");
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->as_string(), "fault");

  // ...and so does the run report.
  const obs::Json report = flow_report_json("bonnroute", r);
  EXPECT_EQ(report.find("outcome")->as_string(), "completed_degraded");
  const obs::Json* detailed = report.find("detailed");
  ASSERT_NE(detailed, nullptr);
  EXPECT_EQ(detailed->find("nets_quarantined")->as_int(), 1);
}

// A net that only DRC cleanup's reroutes fail on is quarantined there, and
// the report says so: its recovered errors and its quarantine reach the
// flow's errors and downgrade the outcome, while report.detailed's counters
// still describe detailed routing alone.  The chip is one where cleanup
// reroutes the victim in both of its passes; the fault is armed to skip
// every search hit on the victim before cleanup.
TEST(Chaos, FaultsInCleanupReachTheReport) {
  DisarmGuard guard;
  ChipParams cp;
  cp.tiles_x = 3;
  cp.tiles_y = 3;
  cp.tracks_per_tile = 30;
  cp.num_nets = 30;
  cp.seed = 3;
  const Chip chip = generate_chip(cp);
  const int victim = 21;
  FlowParams fp;
  fp.global.sharing.phases = 4;
  fp.obs.metrics = false;

  // Count the victim's search hits up to the end of detailed routing with a
  // plan that never fires; the same run is the fault-free baseline.
  FlowParams no_cleanup = fp;
  no_cleanup.run_cleanup = false;
  FaultPlan count;
  count.specs.push_back({"search", std::int64_t{1} << 40, 1.0, victim});
  FaultPoints::arm(count);
  const FlowReport base = run_bonnroute_flow(chip, no_cleanup);
  const std::int64_t hits = FaultPoints::stats().at(0).hits;
  FaultPoints::disarm();
  ASSERT_EQ(base.outcome, FlowOutcome::kCompleted);

  FaultPlan plan;
  plan.specs.push_back({"search", hits + 1, 1.0, victim});
  FaultPoints::arm(plan);
  fp.obs.flight = true;
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fp, &out);
  FaultPoints::disarm();

  // Both cleanup attempts on the victim failed on the fault.
  const obs::Json doc = obs::Flight::explain(victim);
  const obs::Json* attempts = doc.find("attempts");
  ASSERT_NE(attempts, nullptr);
  int cleanup_errors = 0;
  for (std::size_t i = 0; i < attempts->size(); ++i) {
    const obs::Json& a = attempts->at(i);
    const bool in_cleanup = a.find("phase")->as_string() == "cleanup";
    const bool error = a.find("outcome")->as_string() == "E";
    EXPECT_EQ(in_cleanup, error) << "attempt " << i;
    if (in_cleanup && error) ++cleanup_errors;
  }
  ASSERT_EQ(cleanup_errors, 2);
  EXPECT_EQ(doc.find("summary")->find("quarantined")->as_string(), "fault");

  EXPECT_EQ(r.outcome, FlowOutcome::kDegraded);
  ASSERT_EQ(r.detailed.quarantined.size(), 1u);
  EXPECT_EQ(r.detailed.quarantined[0].net, victim);
  EXPECT_EQ(r.detailed.quarantined[0].cause, "fault");
  int attempt_errors = 0;
  bool quarantine_error = false;
  for (const FlowError& e : r.errors) {
    if (e.code == "net_attempt" && e.net == victim) ++attempt_errors;
    if (e.code == "net.quarantined" && e.net == victim) {
      quarantine_error = true;
    }
  }
  EXPECT_EQ(attempt_errors, 2);
  EXPECT_TRUE(quarantine_error);
  const obs::Json report = flow_report_json("bonnroute", r);
  EXPECT_EQ(report.find("outcome")->as_string(), "completed_degraded");
  EXPECT_EQ(report.find("detailed")->find("nets_quarantined")->as_int(), 1);

  // Cleanup's counters stay out of report.detailed.
  EXPECT_EQ(r.detailed.connections_routed, base.detailed.connections_routed);
  EXPECT_EQ(r.detailed.connections_failed, base.detailed.connections_failed);
  EXPECT_EQ(r.detailed.nets_failed, base.detailed.nets_failed);
  EXPECT_EQ(r.detailed.rollbacks, base.detailed.rollbacks);
  EXPECT_EQ(r.detailed.search.pops, base.detailed.search.pops);

  // The failed reroutes rolled back: the victim keeps its wiring.
  EXPECT_FALSE(out.net_paths[static_cast<std::size_t>(victim)].empty());
  EXPECT_TRUE(validate_result(chip, out).empty());
}

// Degradation is deterministic: the same fault plan quarantines the same
// net and produces bit-identical wiring at any thread count.
TEST(Chaos, QuarantineIsDeterministicAcrossThreads) {
  DisarmGuard guard;
  const int victim = 3;
  const Chip chip = generate_chip(small_params());
  auto run = [&](int threads) {
    FaultPlan plan;
    plan.specs.push_back({"search", 1, 1.0, victim});
    FaultPoints::arm(plan);
    RoutingResult out;
    const FlowReport r = run_bonnroute_flow(chip, fast_flow(threads), &out);
    FaultPoints::disarm();
    EXPECT_EQ(r.outcome, FlowOutcome::kDegraded) << threads;
    return out;
  };
  const RoutingResult r1 = run(1);
  const RoutingResult r4 = run(4);
  EXPECT_TRUE(same_result(r1, r4));
}

TEST(Chaos, CommitFaultsAreContainedAndFlowTerminates) {
  DisarmGuard guard;
  const Chip chip = generate_chip(small_params());
  // One in five transaction commits dies (deterministically).  Every fault
  // is recovered at the attempt boundary; the flow must terminate with an
  // honest outcome, never crash or hang.
  FaultPlan plan;
  plan.specs.push_back({"txn_commit", 1, 0.2, -1});
  FaultPoints::arm(plan);
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fast_flow(), &out);
  FaultPoints::disarm();
  EXPECT_TRUE(r.outcome == FlowOutcome::kCompleted ||
              r.outcome == FlowOutcome::kDegraded)
      << to_string(r.outcome);
  EXPECT_TRUE(validate_result(chip, out).empty());
}

TEST(Chaos, PoolDispatchFaultDefersNetsWithoutCrashing) {
  DisarmGuard guard;
  const Chip chip = generate_chip(small_params());
  FaultPlan plan;
  plan.specs.push_back({"pool_dispatch", 1, 0.5, -1});
  FaultPoints::arm(plan);
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fast_flow(2), &out);
  FaultPoints::disarm();
  // Dropped dispatches defer nets; later rounds (or the final tally) still
  // account for every net and the flow terminates cleanly.
  EXPECT_TRUE(r.outcome == FlowOutcome::kCompleted ||
              r.outcome == FlowOutcome::kDegraded)
      << to_string(r.outcome);
  EXPECT_TRUE(validate_result(chip, out).empty());
}

// A watchdog ceiling no real attempt can meet stops every long search at
// the poll boundary, quarantines the repeat offenders, and the flow still
// terminates with the fast nets routed.  With a per-net pop cap too, a
// watchdog stop must not descend the retry ladder: its rungs share the
// pass's expired ceiling, so descending would quarantine each hung net as
// `ladder` on its first attempt instead of as `watchdog` after two strikes.
TEST(Chaos, WatchdogStopsHungAttemptsAndQuarantinesRepeatOffenders) {
  const Chip chip = generate_chip(small_params());
  for (const std::int64_t pop_limit : {0, 1'000'000}) {
    SCOPED_TRACE("attempt_pop_limit " + std::to_string(pop_limit));
    FlowParams fp = fast_flow();
    fp.detailed.watchdog_s = 1e-9;
    fp.detailed.attempt_pop_limit = pop_limit;
    fp.obs.flight = true;
    RoutingResult out;
    const FlowReport r = run_bonnroute_flow(chip, fp, &out);
    EXPECT_TRUE(validate_result(chip, out).empty());
    EXPECT_TRUE(r.outcome == FlowOutcome::kCompleted ||
                r.outcome == FlowOutcome::kDegraded)
        << to_string(r.outcome);
    if (r.outcome == FlowOutcome::kCompleted) {
      GTEST_SKIP() << "every net routed under 1024 pops on this machine";
    }
    EXPECT_GT(r.detailed.watchdog_stops, 0);
    ASSERT_FALSE(r.detailed.quarantined.empty());
    for (const DetailedStats::Quarantined& q : r.detailed.quarantined) {
      EXPECT_EQ(q.cause, "watchdog");
      // Flight::explain marks the watchdog stops for the quarantined net.
      const obs::Json doc = obs::Flight::explain(q.net);
      const obs::Json* summary = doc.find("summary");
      ASSERT_NE(summary, nullptr);
      EXPECT_GT(summary->find("watchdog_stops")->as_int(), 0) << q.net;
    }
  }
}

TEST(ChaosEnv, MalformedEnvOverridesFailTheFlowFast) {
  // Every entry point × every BONN_* override: the runner parses each
  // override once, up front, and a malformed value fails the run before any
  // phase with the override's structured error.
  const Chip chip = generate_chip(small_params());
  const RoutingResult prior(chip.num_nets());
  struct Case {
    const char* var;
    const char* value;
    const char* code;
  };
  const Case cases[] = {
      {"BONN_THREADS", "banana", "env.parse"},
      {"BONN_DEADLINE_S", "soon", "env.parse"},
      {"BONN_MEM_GB", "lots", "env.parse"},
      {"BONN_WATCHDOG_S", "-5", "env.parse"},
      {"BONN_FAULTS", "search:net=banana", "env.faults"},
      {"BONN_OBS", "disable", "env.parse"},
      {"BONN_FLIGHT", "maybe", "env.parse"},
  };
  const std::string entries[] = {"bonnroute", "isr", "eco"};
  int runs = 0;
  for (const Case& c : cases) {
    for (const std::string& entry : entries) {
      SCOPED_TRACE(entry + " with " + c.var + "=" + c.value);
      DisarmGuard guard;
      ScopedEnv env(c.var, c.value);
      FlowOutcome outcome;
      std::vector<FlowError> errors;
      if (entry == "eco") {
        const EcoReport r = reroute_nets(chip, prior, {0}, fast_flow());
        outcome = r.outcome;
        errors = r.errors;
      } else {
        const FlowReport r = entry == "isr"
                                 ? run_isr_flow(chip, fast_flow())
                                 : run_bonnroute_flow(chip, fast_flow());
        outcome = r.outcome;
        errors = r.errors;
      }
      EXPECT_EQ(outcome, FlowOutcome::kFailed);
      EXPECT_TRUE(has_error(errors, c.code));
      EXPECT_FALSE(FaultPoints::armed());  // a bad plan never arms
      ++runs;
    }
  }
  EXPECT_EQ(runs, 21);
}

TEST(ChaosEnv, BonnFaultsEnvArmsThePlanEndToEnd) {
  DisarmGuard guard;
  const Chip chip = generate_chip(small_params());
  ScopedEnv env("BONN_FAULTS", "search:net=7");
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fast_flow(), &out);
  EXPECT_EQ(r.outcome, FlowOutcome::kDegraded);
  ASSERT_EQ(r.detailed.quarantined.size(), 1u);
  EXPECT_EQ(r.detailed.quarantined[0].net, 7);
}

TEST(ChaosEnv, ErrorCollectingOverloadsReportPreciseDiagnostics) {
  std::vector<FlowError> errors;
  {
    ScopedEnv env("BONN_CHAOS_TEST_INT", "12");
    const auto v = env_int("BONN_CHAOS_TEST_INT", 0, 100, errors);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 12);
    EXPECT_TRUE(errors.empty());
  }
  {
    ScopedEnv env("BONN_CHAOS_TEST_INT", "4x");
    EXPECT_FALSE(env_int("BONN_CHAOS_TEST_INT", 0, 100, errors).has_value());
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].code, "env.parse");
    EXPECT_NE(errors[0].message.find("BONN_CHAOS_TEST_INT"),
              std::string::npos);
    EXPECT_NE(errors[0].message.find("4x"), std::string::npos);
  }
  errors.clear();
  {
    ScopedEnv env("BONN_CHAOS_TEST_INT", "101");  // out of range is an error
    EXPECT_FALSE(env_int("BONN_CHAOS_TEST_INT", 0, 100, errors).has_value());
    EXPECT_EQ(errors.size(), 1u);
  }
  errors.clear();
  {
    ScopedEnv env("BONN_CHAOS_TEST_DBL", "0.5e1");
    const auto v = env_double("BONN_CHAOS_TEST_DBL", 0, 100, errors);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5.0);
  }
  {
    ScopedEnv env("BONN_CHAOS_TEST_DBL", "nan");
    EXPECT_FALSE(
        env_double("BONN_CHAOS_TEST_DBL", 0, 100, errors).has_value());
    EXPECT_EQ(errors.size(), 1u);
  }
  // Unset stays silent: absent overrides are not errors.
  errors.clear();
  EXPECT_FALSE(env_int("BONN_CHAOS_TEST_UNSET", 0, 100, errors).has_value());
  EXPECT_TRUE(errors.empty());
}

}  // namespace
}  // namespace bonn
