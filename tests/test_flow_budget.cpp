// Fault-tolerance tests for the flow entry points: execution budgets
// (deadline / memory / cancellation / deterministic poll-trip), the
// interrupt-checkpoint-resume cycle and its bit-identity guarantee at 1/2/4
// threads, checkpoint persistence and corruption detection, the retry
// ladder's determinism, recovered per-net faults, and the structured error
// model for malformed inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "src/db/chip.hpp"
#include "src/db/instance_gen.hpp"
#include "src/router/bonnroute.hpp"
#include "src/util/faultpoint.hpp"
#include "src/util/timer.hpp"

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

TEST(FlowValidation, MalformedChipFailsWithStructuredError) {
  Chip chip = generate_chip(small_params());
  chip.nets[0].pins.push_back(999999);  // pin id out of range
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fast_flow(), &out);
  EXPECT_EQ(r.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(has_error(r.errors, "chip.net_pin_range"));
  EXPECT_EQ(r.checkpoint, nullptr);
}

TEST(FlowValidation, MalformedParamsFailBothFlows) {
  const Chip chip = generate_chip(small_params());
  FlowParams bad = fast_flow();
  bad.threads = -2;
  EXPECT_EQ(run_bonnroute_flow(chip, bad).outcome, FlowOutcome::kFailed);
  bad = fast_flow();
  bad.global.sharing.epsilon = 0;
  EXPECT_EQ(run_bonnroute_flow(chip, bad).outcome, FlowOutcome::kFailed);
  bad = fast_flow();
  bad.detailed.search.max_pops = 0;
  EXPECT_EQ(run_isr_flow(chip, bad).outcome, FlowOutcome::kFailed);
  bad = fast_flow();
  bad.tiles_x = 4;
  bad.tiles_y = 0;  // both-or-neither
  const FlowReport r = run_bonnroute_flow(chip, bad);
  EXPECT_EQ(r.outcome, FlowOutcome::kFailed);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_EQ(r.errors[0].code.rfind("params.", 0), 0u) << r.errors[0].code;
}

TEST(FlowBudget, PreCancelledTokenStopsBeforeGlobal) {
  const Chip chip = generate_chip(small_params());
  FlowParams fp = fast_flow();
  CancelToken cancel;
  cancel.cancel();
  fp.budget.cancel = cancel;
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fp, &out);
  EXPECT_EQ(r.outcome, FlowOutcome::kCancelled);
  EXPECT_EQ(r.stop_reason, StopReason::kCancelled);
  ASSERT_NE(r.checkpoint, nullptr);
  EXPECT_EQ(r.checkpoint->phase, FlowPhase::kStart);
}

// The core guarantee: a run interrupted at an arbitrary poll, resumed from
// its checkpoint, reproduces the uninterrupted run bit-identically — at any
// thread count.  Poll-trip points are log-spaced so the interrupts land in
// different phases (preroute, sharing, detailed, cleanup).
TEST(FlowBudget, InterruptResumeIsBitIdenticalAcrossThreads) {
  const Chip chip = generate_chip(small_params());
  RoutingResult golden;
  const FlowReport gr = run_bonnroute_flow(chip, fast_flow(), &golden);
  ASSERT_EQ(gr.outcome, FlowOutcome::kCompleted);

  const std::int64_t trips[] = {1, 16, 256, 2048, 16384};
  for (const std::int64_t k : trips) {
    FlowParams fp = fast_flow();
    fp.budget.poll_trip = k;
    RoutingResult partial;
    const FlowReport ir = run_bonnroute_flow(chip, fp, &partial);
    if (ir.outcome == FlowOutcome::kCompleted) {
      // The flow finished in fewer than k polls — it must be the golden run.
      EXPECT_TRUE(same_result(partial, golden)) << "trip " << k;
      continue;
    }
    EXPECT_EQ(ir.outcome, FlowOutcome::kCancelled) << "trip " << k;
    EXPECT_EQ(ir.stop_reason, StopReason::kCancelled) << "trip " << k;
    ASSERT_NE(ir.checkpoint, nullptr) << "trip " << k;
    // The partial result is structurally legal wiring for this chip.
    EXPECT_TRUE(validate_result(chip, partial).empty()) << "trip " << k;
    // The in-memory checkpoint passes resumability validation as-is.
    EXPECT_TRUE(validate_checkpoint(chip, fast_flow(), *ir.checkpoint).empty())
        << "trip " << k;
    for (const int threads : {1, 2, 4}) {
      RoutingResult resumed;
      const FlowReport rr =
          resume_flow(chip, *ir.checkpoint, fast_flow(threads), &resumed);
      EXPECT_EQ(rr.outcome, FlowOutcome::kCompleted)
          << "trip " << k << " threads " << threads;
      EXPECT_TRUE(same_result(resumed, golden))
          << "trip " << k << " threads " << threads;
    }
  }
}

TEST(FlowBudget, DeadlineTerminatesCheckpointsAndResumes) {
  ChipParams cp = small_params();
  cp.tiles_x = 4;
  cp.tiles_y = 4;
  cp.num_nets = 100;
  const Chip chip = generate_chip(cp);
  FlowParams fp = fast_flow();
  fp.tiles_x = 4;
  fp.tiles_y = 4;

  RoutingResult golden;
  ASSERT_EQ(run_bonnroute_flow(chip, fp, &golden).outcome,
            FlowOutcome::kCompleted);

  FlowParams limited = fp;
  limited.budget.deadline_s = 0.05;
  const std::string path = ::testing::TempDir() + "bonn_deadline_test.ckpt";
  limited.checkpoint_path = path;
  Timer timer;
  RoutingResult partial;
  const FlowReport ir = run_bonnroute_flow(chip, limited, &partial);
  const double elapsed = timer.seconds();
  if (ir.outcome == FlowOutcome::kCompleted) {
    GTEST_SKIP() << "flow finished under the deadline on this machine";
  }
  EXPECT_EQ(ir.outcome, FlowOutcome::kBudgetExhausted);
  EXPECT_EQ(ir.stop_reason, StopReason::kDeadline);
  // Cooperative wind-down is prompt.  The bound is generous (CI machines
  // stall), but a hang or a full run to completion would blow it.
  EXPECT_LT(elapsed, 60.0);
  EXPECT_TRUE(validate_result(chip, partial).empty());
  // The checkpoint was persisted; it loads, validates, and resumes to the
  // bit-identical uninterrupted result even though the deadline trip itself
  // was timing-dependent — checkpoints only freeze deterministic
  // phase-boundary state.
  FlowError err;
  const auto ck = try_load_checkpoint(path, &err);
  ASSERT_TRUE(ck.has_value()) << err.message;
  EXPECT_TRUE(validate_checkpoint(chip, fp, *ck).empty());
  RoutingResult resumed;
  const FlowReport rr = resume_flow(chip, *ck, fp, &resumed);
  EXPECT_EQ(rr.outcome, FlowOutcome::kCompleted);
  EXPECT_TRUE(same_result(resumed, golden));
  std::remove(path.c_str());
}

TEST(FlowBudget, ResumeRejectsMismatchedChipOrParams) {
  const Chip chip = generate_chip(small_params());
  FlowParams fp = fast_flow();
  fp.budget.poll_trip = 64;
  const FlowReport ir = run_bonnroute_flow(chip, fp);
  if (ir.checkpoint == nullptr) {
    GTEST_SKIP() << "flow completed before the poll trip";
  }
  // Different result-affecting parameters cannot reproduce the original run.
  FlowParams other = fast_flow();
  other.global.rounding.seed = 777;
  const FlowReport r1 = resume_flow(chip, *ir.checkpoint, other);
  EXPECT_EQ(r1.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(has_error(r1.errors, "checkpoint.params_mismatch"));
  // A different chip is rejected by the chip digest.
  ChipParams cp2 = small_params();
  cp2.seed = 99;
  const Chip chip2 = generate_chip(cp2);
  const FlowReport r2 = resume_flow(chip2, *ir.checkpoint, fast_flow());
  EXPECT_EQ(r2.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(has_error(r2.errors, "checkpoint.chip_mismatch"));
  // Thread count is excluded from the parameter digest: resuming with more
  // workers is legal (and still bit-identical, per the test above).
  EXPECT_TRUE(validate_checkpoint(chip, fast_flow(4), *ir.checkpoint).empty());
}

TEST(FlowBudget, RetryLadderIsDeterministicAcrossThreads) {
  const Chip chip = generate_chip(small_params());
  FlowParams fp = fast_flow();
  // Small enough that some nets exhaust the pop budget and descend the
  // ladder; the descent must be limit-driven, never timing-driven.
  fp.detailed.attempt_pop_limit = 1500;
  RoutingResult r1, r4;
  const FlowReport a = run_bonnroute_flow(chip, fp, &r1);
  fp.threads = 4;
  const FlowReport b = run_bonnroute_flow(chip, fp, &r4);
  // A net that exhausts every ladder rung is quarantined and the flow
  // degrades — legal here, as long as both thread counts agree exactly.
  EXPECT_TRUE(a.outcome == FlowOutcome::kCompleted ||
              a.outcome == FlowOutcome::kDegraded)
      << to_string(a.outcome);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_TRUE(same_result(r1, r4));
  EXPECT_EQ(a.detailed.ladder_retries, b.detailed.ladder_retries);
  ASSERT_EQ(a.detailed.quarantined.size(), b.detailed.quarantined.size());
  for (std::size_t i = 0; i < a.detailed.quarantined.size(); ++i) {
    EXPECT_EQ(a.detailed.quarantined[i].net, b.detailed.quarantined[i].net);
    EXPECT_EQ(a.detailed.quarantined[i].cause,
              b.detailed.quarantined[i].cause);
  }
}

TEST(FlowBudget, InjectedNetFaultIsRecoveredNotFatal) {
  const Chip chip = generate_chip(small_params());
  const int victim = 7;
  FaultPlan plan;
  plan.specs.push_back({"search", 1, 1.0, victim});
  FaultPoints::arm(plan);
  RoutingResult out;
  const FlowReport r = run_bonnroute_flow(chip, fast_flow(), &out);
  FaultPoints::disarm();
  // The fault is contained to the victim net: after repeated recovered
  // faults the net is quarantined, the flow completes degraded (a usable
  // partial result, honestly labelled), the error is reported per net, and
  // the rest of the chip is routed.
  EXPECT_EQ(r.outcome, FlowOutcome::kDegraded);
  bool found = false, quarantined = false;
  for (const FlowError& e : r.errors) {
    if (e.code == "net_attempt" && e.net == victim) found = true;
    if (e.code == "net.quarantined" && e.net == victim) quarantined = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(quarantined);
  ASSERT_EQ(r.detailed.quarantined.size(), 1u);
  EXPECT_EQ(r.detailed.quarantined[0].net, victim);
  EXPECT_EQ(r.detailed.quarantined[0].cause, "fault");
  int routed = 0;
  for (const Net& n : chip.nets) {
    if (!out.net_paths[static_cast<std::size_t>(n.id)].empty()) ++routed;
  }
  EXPECT_GT(routed, chip.num_nets() / 2);
  EXPECT_TRUE(validate_result(chip, out).empty());
}

TEST(FlowBudget, IsrFlowReportsBudgetStopWithoutCheckpoint) {
  const Chip chip = generate_chip(small_params());
  FlowParams fp = fast_flow();
  fp.budget.poll_trip = 8;
  const FlowReport r = run_isr_flow(chip, fp);
  if (r.outcome == FlowOutcome::kCompleted) {
    GTEST_SKIP() << "ISR flow finished before the poll trip";
  }
  EXPECT_EQ(r.outcome, FlowOutcome::kCancelled);
  // Documented: the ISR negotiation loop is not phase-boundary
  // reconstructible, so an interrupted ISR run has no checkpoint.
  EXPECT_EQ(r.checkpoint, nullptr);
}

TEST(EcoRobustness, RejectsBadInputsAndHonoursBudget) {
  const Chip chip = generate_chip(small_params());
  RoutingResult prior;
  ASSERT_EQ(run_bonnroute_flow(chip, fast_flow(), &prior).outcome,
            FlowOutcome::kCompleted);

  // Net id out of range: structured failure, not a crash.
  const EcoReport bad =
      reroute_nets(chip, prior, {chip.num_nets() + 5}, fast_flow());
  EXPECT_EQ(bad.outcome, FlowOutcome::kFailed);
  EXPECT_TRUE(has_error(bad.errors, "eco.net_range"));

  // A prior that does not belong to this chip is rejected.
  const RoutingResult mismatched(chip.num_nets() + 3);
  const EcoReport bad2 = reroute_nets(chip, mismatched, {0}, fast_flow());
  EXPECT_EQ(bad2.outcome, FlowOutcome::kFailed);

  // A budget that trips before the first net attempt leaves the prior
  // routing bit-identically intact.
  FlowParams fp = fast_flow();
  fp.budget.poll_trip = 0;
  RoutingResult out;
  const EcoReport stopped = reroute_nets(chip, prior, {0, 1}, fp, &out);
  EXPECT_EQ(stopped.outcome, FlowOutcome::kCancelled);
  EXPECT_EQ(stopped.stop_reason, StopReason::kCancelled);
  EXPECT_TRUE(same_result(out, prior));
}

TEST(CheckpointIo, RoundTripsBitExactly) {
  Checkpoint ck;
  ck.chip_hash = 0x12345;
  ck.params_digest = 0x9abc;
  ck.phase = FlowPhase::kGlobalDone;
  ck.routes.resize(3);
  ck.routes[1].edges = {{4, 1}, {7, 0}};
  ck.spread_zones.emplace_back(Rect{0, 0, 100, 100}, 25);
  ck.base = RoutingResult(3);
  RoutedPath p;
  p.net = 2;
  p.wiretype = 0;
  p.wires.push_back({{0, 0}, {50, 0}, 1});
  p.vias.push_back({{50, 0}, 1});
  ck.base.net_paths[2].push_back(p);
  ck.net_routed = {1, 0, 1};
  ck.state_digest = checkpoint_state_digest(ck);

  std::stringstream ss;
  write_checkpoint(ss, ck);
  const Checkpoint back = read_checkpoint(ss);
  EXPECT_EQ(back.version, Checkpoint::kVersion);
  EXPECT_EQ(back.chip_hash, ck.chip_hash);
  EXPECT_EQ(back.params_digest, ck.params_digest);
  EXPECT_EQ(back.phase, ck.phase);
  ASSERT_EQ(back.routes.size(), ck.routes.size());
  EXPECT_EQ(back.routes[1].edges, ck.routes[1].edges);
  EXPECT_EQ(back.spread_zones, ck.spread_zones);
  EXPECT_EQ(back.net_routed, ck.net_routed);
  EXPECT_TRUE(same_result(back.base, ck.base));
  EXPECT_EQ(back.state_digest, ck.state_digest);
}

TEST(CheckpointIo, RejectsCorruptionTruncationAndBadVersion) {
  Checkpoint ck;
  ck.phase = FlowPhase::kGlobalDone;
  ck.routes.resize(2);
  ck.routes[0].edges = {{3, 0}};
  ck.net_routed = {1, 0};
  ck.base = RoutingResult(2);
  std::stringstream ss;
  write_checkpoint(ss, ck);
  const std::string text = ss.str();

  auto expect_parse_error = [](const std::string& body,
                               const std::string& needle) {
    std::stringstream in(body);
    try {
      read_checkpoint(in);
      FAIL() << "expected a parse error mentioning '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // A flipped payload bit fails the enclosing section's digest, which names
  // the section.
  std::string tampered = text;
  const std::size_t at = tampered.find("status 2 1 0");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 12, "status 2 0 1");
  expect_parse_error(tampered, "section 'status' digest mismatch");

  // Truncation is reported (as eof or a cut section, depending on where the
  // cut lands), not read as a shorter checkpoint.
  expect_parse_error(text.substr(0, text.size() / 2), "checkpoint parse error");
  expect_parse_error("BONNCKPT v2\n", "eof");

  // A v1-era file (or any other format generation) is refused at the header.
  expect_parse_error("BONNCKPT v1\n", "unsupported checkpoint format");

  // An unsupported version is refused before anything is trusted.
  std::string wrong_version = text;
  const std::size_t meta = wrong_version.find("meta 2 ");
  ASSERT_NE(meta, std::string::npos);
  wrong_version.replace(meta, 7, "meta 9 ");
  expect_parse_error(wrong_version, "version");

  expect_parse_error("not a checkpoint\n", "bad header");

  // Missing files surface through the non-throwing loader.
  FlowError err;
  EXPECT_FALSE(
      try_load_checkpoint("/nonexistent/dir/x.ckpt", &err).has_value());
  EXPECT_EQ(err.code, "checkpoint.load");
  EXPECT_FALSE(err.message.empty());
}

}  // namespace
}  // namespace bonn
