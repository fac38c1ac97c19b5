// The correctness harness (src/fuzz): clean campaigns on the real code,
// replay-script round-trip, the injected-bug demo — re-introduce the
// historical fast-grid staleness bug, watch the fuzzer catch the divergence,
// shrink it, and write a replayable script — and the BONN_AUDIT invariant
// auditor at transaction boundaries.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/db/instance_gen.hpp"
#include "src/detailed/routing_space.hpp"
#include "src/detailed/transaction.hpp"
#include "src/fastgrid/fast_grid.hpp"
#include "src/fuzz/fuzzer.hpp"

namespace bonn {
namespace {

using fuzz::FuzzOp;
using fuzz::FuzzParams;
using fuzz::FuzzResult;

/// RAII: arm the fast-grid fault injection for one test and always disarm —
/// the switch is process-global, so a leak would poison later tests.
struct StalenessBugGuard {
  StalenessBugGuard() { FastGrid::testing_inject_staleness_bug(true); }
  ~StalenessBugGuard() { FastGrid::testing_inject_staleness_bug(false); }
};

RoutedPath straight_path(int net, Coord x0, Coord y, Coord x1, int layer = 0) {
  RoutedPath p;
  p.net = net;
  WireStick w;
  w.a = {x0, y};
  w.b = {x1, y};
  w.layer = layer;
  w.normalize();
  p.wires.push_back(w);
  return p;
}

// --------------------------------------------------------- campaigns ------

TEST(Fuzz, ShortCampaignIsClean) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    FuzzParams p;
    p.seed = seed;
    p.steps = 120;
    p.artifact_dir = ::testing::TempDir();
    const FuzzResult r = fuzz::run_fuzz(p);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.failure ? r.failure->message : "");
    EXPECT_EQ(r.ops_executed, p.steps);
    EXPECT_GE(r.checks, r.ops_executed);
  }
}

TEST(Fuzz, CampaignWithoutEcoOrDrcIsClean) {
  FuzzParams p;
  p.seed = 99;
  p.steps = 150;
  p.with_eco = false;
  p.drc_checks = false;
  p.layers = 3;
  p.artifact_dir = ::testing::TempDir();
  const FuzzResult r = fuzz::run_fuzz(p);
  EXPECT_TRUE(r.ok()) << (r.failure ? r.failure->message : "");
}

// ------------------------------------------------------ script format -----

TEST(Fuzz, ScriptRoundTrip) {
  FuzzParams p;
  p.seed = 42;
  p.steps = 4;
  p.check_every = 2;
  p.full_check_every = 7;
  p.with_eco = false;
  p.drc_checks = true;
  p.layers = 5;
  std::vector<FuzzOp> ops;
  ops.push_back({FuzzOp::Kind::kCommitPath, 1, 2, 3, 4});
  ops.push_back({FuzzOp::Kind::kHold, 5, 6, 7, 8});
  ops.push_back({FuzzOp::Kind::kEcoReroute, 0xffffffffffffffffULL, 0, 7, 9});
  ops.push_back({FuzzOp::Kind::kTxnRollback, 0, 0, 0, 0});

  const std::string text = fuzz::format_script(p, ops);
  FuzzParams q;
  std::vector<FuzzOp> parsed;
  std::string err;
  ASSERT_TRUE(fuzz::parse_script(text, &q, &parsed, &err)) << err;
  EXPECT_EQ(parsed, ops);
  EXPECT_EQ(q.seed, p.seed);
  EXPECT_EQ(q.check_every, p.check_every);
  EXPECT_EQ(q.full_check_every, p.full_check_every);
  EXPECT_EQ(q.with_eco, p.with_eco);
  EXPECT_EQ(q.drc_checks, p.drc_checks);
  EXPECT_EQ(q.layers, p.layers);
}

TEST(Fuzz, ParseRejectsMalformedScripts) {
  FuzzParams p;
  std::vector<FuzzOp> ops;
  std::string err;
  EXPECT_FALSE(fuzz::parse_script("not a script", &p, &ops, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(fuzz::parse_script(
      "# bonn_fuzz failure script v1\nop bogus_kind 1 2 3 4\n", &p, &ops,
      &err));
}

// ------------------------------------------------- injected-bug demo ------

// The acceptance demo for the harness: deliberately re-introduce the
// fast-grid staleness bug (dropped min-updates for standard-level blockers,
// the failure mode the historical `& 0x7` masking had), and require the
// fuzzer to (a) catch the divergence against the naive oracle, (b) shrink
// the sequence, and (c) write a script that replays red with the bug and
// green without it.
TEST(Fuzz, CatchesInjectedStalenessBugAndShrinks) {
  FuzzParams p;
  p.seed = 5;
  p.steps = 150;
  p.with_eco = false;  // the bug reproduces with plain commits; keep it fast
  p.drc_checks = false;
  p.artifact_dir = ::testing::TempDir();

  FuzzResult r;
  {
    StalenessBugGuard bug;
    r = fuzz::run_fuzz(p);
  }
  ASSERT_FALSE(r.ok()) << "injected bug not detected";
  const fuzz::FuzzFailure& f = *r.failure;
  EXPECT_NE(f.message.find("fast grid"), std::string::npos) << f.message;
  // Shrinking must have pruned the sequence to a handful of ops.
  ASSERT_FALSE(f.ops.empty());
  EXPECT_LT(f.ops.size(), 10u) << "shrink left " << f.ops.size() << " ops";

  // The replay script exists on disk and reproduces the failure while the
  // bug is present...
  ASSERT_FALSE(f.script_path.empty());
  std::ifstream in(f.script_path);
  ASSERT_TRUE(in.good()) << f.script_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string script = buf.str();
  {
    StalenessBugGuard bug;
    std::string err;
    const FuzzResult replay = fuzz::replay_script(script, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_FALSE(replay.ok()) << "script did not reproduce under the bug";
  }
  // ...and passes once the bug is fixed (removed).
  std::string err;
  const FuzzResult fixed = fuzz::replay_script(script, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_TRUE(fixed.ok()) << (fixed.failure ? fixed.failure->message : "");
  std::remove(f.script_path.c_str());
}

// -------------------------------------------- audit at txn boundaries -----

TEST(Audit, ArmedAuditPassesOnHealthyTransactions) {
  RoutingSpace::set_audit_for_testing(1);
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  {
    RoutingTransaction txn(rs);
    rs.commit_path(straight_path(0, 300, 900, 1200));
    EXPECT_NO_THROW(txn.commit());
  }
  {
    RoutingTransaction txn(rs);
    rs.rip_net(0);
    EXPECT_NO_THROW(txn.rollback());
  }
  RoutingSpace::set_audit_for_testing(-1);
}

TEST(Audit, ArmedAuditCatchesCorruptionAtCommit) {
  RoutingSpace::set_audit_for_testing(1);
  {
    const Chip chip = make_tiny_chip(4);
    RoutingSpace rs(chip);
    StalenessBugGuard bug;  // fast grid now silently drops updates
    RoutingTransaction txn(rs);
    rs.commit_path(straight_path(0, 300, 900, 1200));
    EXPECT_THROW(txn.commit(), std::logic_error);
  }
  RoutingSpace::set_audit_for_testing(-1);
}

TEST(Audit, DisarmedByDefaultEnvOverride) {
  RoutingSpace::set_audit_for_testing(0);
  EXPECT_FALSE(RoutingSpace::audit_enabled());
  RoutingSpace::set_audit_for_testing(1);
  EXPECT_TRUE(RoutingSpace::audit_enabled());
  RoutingSpace::set_audit_for_testing(-1);
}

// ------------------------------------- per-shape ripup regression ---------

// Regression for the flagship fuzz finding (shrunk from seed 1:
// [eco_reroute, commit_path]): the shape grid used to report a *cell-level
// min* ripup for every piece in a cell, so committing a critical (level-1)
// wire into a cell it shared with another net's standard wiring silently
// re-labelled that neighbour's pieces as level 1.  merge_pieces then spread
// the lowered level across the neighbour's full merged geometry, moving
// forbidden runs far outside the fast grid's refresh window — incremental
// updates diverged from a rebuild.  Ripup is now a per-shape attribute.
TEST(PerShapeRipup, NeighbourInsertDoesNotChangeReportedLevel) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  // A standard-level wire of net 2 crossing several cells.
  const Shape standard{Rect{300, 900, 1500, 960}, global_of_wiring(0),
                       ShapeKind::kWire, 0, 2};
  rs.insert_shape(standard, kStandard);
  // A critical-level shape of net 3 sharing the wire's first cell.
  const Shape critical{Rect{310, 820, 420, 890}, global_of_wiring(0),
                       ShapeKind::kWire, 0, 3};
  rs.insert_shape(critical, kCritical);

  // Every piece of the standard wire must still report kStandard — including
  // the piece in the shared cell.  (Filter on kWire: the tiny chip has a
  // fixed pin of net 3 near this window.)
  rs.grid().query(global_of_wiring(0), standard.rect.hull(critical.rect),
                  [&](const GridShape& gs) {
                    if (gs.kind != ShapeKind::kWire) return;
                    if (gs.net == 2) {
                      EXPECT_EQ(gs.ripup, kStandard);
                    }
                    if (gs.net == 3) {
                      EXPECT_EQ(gs.ripup, kCritical);
                    }
                  });

  // And the fast grid's incremental view must equal a full recomputation.
  std::string why;
  EXPECT_TRUE(rs.check_invariants(&why)) << why;
}

TEST(PerShapeRipup, RemovalRequiresMatchingLevel) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  const Shape s{Rect{300, 900, 900, 960}, global_of_wiring(0),
                ShapeKind::kWire, 0, 1};
  rs.insert_shape(s, kStandard);
  // Removing at the wrong level is a contract violation the config table
  // traps (the per-shape record includes the level).
  EXPECT_THROW(rs.remove_shape(s, kCritical), std::logic_error);
  EXPECT_NO_THROW(rs.remove_shape(s, kStandard));
}

}  // namespace
}  // namespace bonn
