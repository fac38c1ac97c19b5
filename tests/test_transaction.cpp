// RoutingTransaction: journaled mutations, rollback bit-identity, nesting
// (the §4.4 search hold included), stable path ids, and the incremental
// (ECO) entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/db/instance_gen.hpp"
#include "src/detailed/net_router.hpp"
#include "src/detailed/transaction.hpp"
#include "src/fastgrid/oracle.hpp"
#include "src/router/bonnroute.hpp"
#include "src/util/rng.hpp"
#include "src/util/undo_log.hpp"

namespace bonn {
namespace {

// ------------------------------------------------------------ helpers -----

/// Complete observable state of a routing space: every shape piece of every
/// layer, the interval-map structure, every fast-grid legality word, and the
/// recorded paths + ids per net.  The config table's *size* is deliberately
/// not part of the state: it is an append-only intern cache, so mutating and
/// rolling back may leave extra (unreferenced) configs behind.
struct SpaceSnapshot {
  using Piece = std::tuple<int, Coord, Coord, Coord, Coord, int, int, int,
                           Coord, int, int>;
  std::vector<Piece> pieces;
  std::size_t intervals = 0;
  std::vector<std::uint64_t> words;
  std::vector<std::vector<RoutedPath>> paths;
  std::vector<std::vector<std::uint64_t>> ids;

  friend bool operator==(const SpaceSnapshot&, const SpaceSnapshot&) = default;
};

SpaceSnapshot snapshot(const RoutingSpace& rs) {
  SpaceSnapshot snap;
  for (int gl = 0; gl < rs.grid().num_layers(); ++gl) {
    rs.grid().query(gl, rs.grid().die(), [&](const GridShape& gs) {
      snap.pieces.emplace_back(gl, gs.rect.xlo, gs.rect.ylo, gs.rect.xhi,
                               gs.rect.yhi, static_cast<int>(gs.kind),
                               static_cast<int>(gs.cls), gs.net,
                               gs.rule_width, static_cast<int>(gs.ripup), 0);
    });
  }
  std::sort(snap.pieces.begin(), snap.pieces.end());
  snap.intervals = rs.grid().interval_count();
  for (int layer = 0; layer < rs.tg().num_layers(); ++layer) {
    const auto tracks = rs.tg().tracks(layer).size();
    const auto stations = rs.tg().stations(layer).size();
    for (std::size_t t = 0; t < tracks; ++t) {
      for (std::size_t s = 0; s < stations; ++s) {
        snap.words.push_back(rs.fast().word(layer, static_cast<int>(t),
                                            static_cast<int>(s)));
      }
    }
  }
  const int nets = static_cast<int>(rs.chip().nets.size());
  for (int n = 0; n < nets; ++n) {
    snap.paths.push_back(rs.paths(n));
    snap.ids.push_back(rs.path_ids(n));
  }
  return snap;
}

RoutedPath make_path(int net, Coord x0, Coord y0, Coord x1, int layer = 0) {
  RoutedPath p;
  p.net = net;
  WireStick w;
  w.a = {x0, y0};
  w.b = {x1, y0};
  w.layer = layer;
  w.normalize();
  p.wires.push_back(w);
  return p;
}

Shape make_wire_shape(Coord x0, Coord y0, Coord x1, int layer, int net) {
  return Shape{Rect{x0, y0, x1, y0 + 60}, global_of_wiring(layer),
               ShapeKind::kWire, 0, net};
}

// ------------------------------------------------------------ UndoLog -----

TEST(UndoLog, Basics) {
  std::vector<int> trace;
  {
    UndoLog log;
    log.defer([&] { trace.push_back(1); });
    log.defer([&] { trace.push_back(2); });
    EXPECT_EQ(log.size(), 2u);
    log.rollback();
    EXPECT_EQ(log.size(), 0u);
  }
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], 2);  // reverse order
  EXPECT_EQ(trace[1], 1);

  trace.clear();
  {
    UndoLog log;
    log.defer([&] { trace.push_back(3); });
    log.commit();
  }  // destructor must not run committed entries
  EXPECT_TRUE(trace.empty());

  trace.clear();
  {
    UndoLog log;
    log.defer([&] { trace.push_back(4); });
  }  // open log rolls back on destruction
  ASSERT_EQ(trace.size(), 1u);
}

// --------------------------------------------------- stable path ids ------

TEST(StablePathIds, RemovalDoesNotShiftRemainingIds) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  const std::uint64_t id0 = rs.commit_path(make_path(0, 200, 900, 700));
  const std::uint64_t id1 = rs.commit_path(make_path(0, 900, 900, 1400));
  const std::uint64_t id2 = rs.commit_path(make_path(0, 1600, 900, 2100));
  EXPECT_EQ(rs.path_ids(0), (std::vector<std::uint64_t>{id0, id1, id2}));

  // The regression the ids fix: removing by position shifts later indices,
  // so naively removing "index 1 then index 2" after a middle removal would
  // hit the wrong (or no) path.  Ids stay valid.
  rs.remove_recorded_by_id(0, id1);
  EXPECT_EQ(rs.recorded_index(0, id1), std::nullopt);
  ASSERT_EQ(rs.paths(0).size(), 2u);
  EXPECT_EQ(rs.recorded_index(0, id2), std::size_t{1});  // shifted position
  rs.remove_recorded_by_id(0, id2);  // still removable via its id
  ASSERT_EQ(rs.paths(0).size(), 1u);
  EXPECT_EQ(rs.path_ids(0), (std::vector<std::uint64_t>{id0}));

  // Ids are never reused, and per-net counters are independent.
  const std::uint64_t id3 = rs.commit_path(make_path(0, 900, 900, 1400));
  EXPECT_GT(id3, id2);
  EXPECT_EQ(rs.commit_path(make_path(1, 300, 1500, 800)), id0);
}

// ------------------------------------------------ rollback property -------

class RollbackBitIdentical : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollbackBitIdentical, RestoresGridFastGridAndPaths) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  Rng rng(GetParam());

  // Pre-existing wiring outside the transaction.
  for (int n = 0; n < 3; ++n) {
    const Coord y = 400 + 300 * n;
    rs.commit_path(make_path(n, rng.range(200, 600), y, rng.range(1200, 3200),
                             static_cast<int>(rng.range(0, 3))));
  }
  const SpaceSnapshot before = snapshot(rs);

  {
    RoutingTransaction txn(rs);
    // A random mix of every journaled mutation kind.
    std::vector<std::pair<int, std::uint64_t>> committed;
    for (int step = 0; step < 40; ++step) {
      const int op = static_cast<int>(rng.range(0, 4));
      const int net = static_cast<int>(rng.range(0, 3));
      switch (op) {
        case 0: {  // commit a new path
          const Coord y = 300 + 80 * static_cast<Coord>(rng.range(0, 40));
          const std::uint64_t id =
              rs.commit_path(make_path(net, rng.range(200, 1000), y,
                                       rng.range(1400, 3600),
                                       static_cast<int>(rng.range(0, 3))));
          committed.push_back({net, id});
          break;
        }
        case 1: {  // rip a whole net
          rs.rip_net(net);
          std::erase_if(committed,
                        [net](const auto& c) { return c.first == net; });
          break;
        }
        case 2: {  // remove one recorded path
          const auto& ids = rs.path_ids(net);
          if (ids.empty()) break;
          const std::uint64_t id = ids[rng.below(ids.size())];
          rs.remove_recorded_by_id(net, id);
          std::erase_if(committed, [net, id](const auto& c) {
            return c.first == net && c.second == id;
          });
          break;
        }
        case 3: {  // raw shape batch + a nested hold transaction
          const Shape s = make_wire_shape(rng.range(200, 3000),
                                          300 + 80 * rng.range(0, 40),
                                          rng.range(3000, 3800),
                                          static_cast<int>(rng.range(0, 3)),
                                          static_cast<int>(rng.range(0, 4)));
          rs.insert_shape(s, kStandard);
          const std::size_t entries = txn.journal_size();
          RoutingTransaction hold(rs);
          rs.remove_shape(s, kStandard);
          hold.rollback();  // the hold leaves nothing in the outer journal
          EXPECT_EQ(txn.journal_size(), entries);
          break;
        }
      }
    }
    EXPECT_GT(txn.journal_size(), 0u);
    txn.rollback();
  }

  SpaceSnapshot after = snapshot(rs);
  EXPECT_EQ(after, before);

  // Cross-check against a fresh rebuild, like the incremental==rebuild
  // invariant: rolled-back fast-grid words must equal recomputed ones.
  rs.mutable_fast().rebuild();
  EXPECT_EQ(snapshot(rs), before);

  // And against a from-scratch space replaying the surviving paths in the
  // same order: shape-grid rows, interval structure, config references and
  // fast-grid words must all come out identical (the rolled-back intern
  // table may only hold extra unreferenced configs).
  RoutingSpace fresh(chip);
  for (int n = 0; n < static_cast<int>(chip.nets.size()); ++n)
    for (const RoutedPath& p : rs.paths(n)) fresh.commit_path(p);
  const SpaceSnapshot scratch = snapshot(fresh);
  EXPECT_EQ(scratch.pieces, before.pieces);
  EXPECT_EQ(scratch.intervals, before.intervals);
  EXPECT_EQ(scratch.words, before.words);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackBitIdentical,
                         ::testing::Values(7, 19, 42, 77));

// ----------------------------------------------------------- nesting ------

TEST(RoutingTransaction, NestedCommitSplicesIntoOuterRollback) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  rs.commit_path(make_path(0, 300, 900, 1300));
  const SpaceSnapshot before = snapshot(rs);

  {
    RoutingTransaction outer(rs);
    rs.commit_path(make_path(1, 300, 1700, 1300));
    {
      RoutingTransaction inner(rs);
      rs.rip_net(0);
      rs.commit_path(make_path(2, 300, 2500, 1300));
      inner.commit();  // inner work survives the inner scope...
    }
    EXPECT_TRUE(rs.paths(0).empty());
    ASSERT_EQ(rs.paths(2).size(), 1u);
    outer.rollback();  // ...but the outer rollback undoes it all
  }
  EXPECT_EQ(snapshot(rs), before);
}

TEST(RoutingTransaction, NestedRollbackUndoesOnlyItsOwnEntries) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  RoutingTransaction outer(rs);
  rs.commit_path(make_path(0, 300, 900, 1300));
  const SpaceSnapshot mid = snapshot(rs);
  {
    RoutingTransaction inner(rs);
    rs.commit_path(make_path(1, 300, 1700, 1300));
    rs.rip_net(0);
  }  // destructor rolls the inner transaction back
  EXPECT_EQ(snapshot(rs), mid);
  ASSERT_EQ(rs.paths(0).size(), 1u);
  outer.commit();
  EXPECT_EQ(snapshot(rs), mid);
}

TEST(RoutingTransaction, DirtyRegionAndTouchedNets) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  RoutingTransaction txn(rs);
  EXPECT_TRUE(txn.dirty().empty());
  rs.commit_path(make_path(1, 500, 900, 1500, 0));
  EXPECT_FALSE(txn.dirty().empty());
  EXPECT_TRUE(txn.dirty().bbox.intersects(Rect{500, 900, 1500, 900}));
  EXPECT_TRUE(
      txn.dirty().intersects(Rect{600, 900, 700, 901}, global_of_wiring(0)));
  // Far away — and on an untouched layer — is clean.
  EXPECT_FALSE(
      txn.dirty().intersects(Rect{3900, 3900, 3950, 3950}, global_of_wiring(0)));
  EXPECT_FALSE(
      txn.dirty().intersects(Rect{600, 900, 700, 901}, global_of_wiring(3)));
  ASSERT_FALSE(txn.touched_nets().empty());
  EXPECT_EQ(txn.touched_nets().front(), 1);
  txn.commit();
}

// ------------------------------------------------------------- ECO --------

FlowParams eco_flow() {
  FlowParams fp;
  fp.tiles_x = 4;
  fp.tiles_y = 4;
  fp.global.sharing.phases = 3;
  fp.detailed.rounds = 2;
  fp.cleanup.max_reroutes = 30;
  fp.obs.metrics = false;
  return fp;
}

Chip eco_chip() {
  ChipParams p;
  p.tiles_x = 4;
  p.tiles_y = 4;
  p.tracks_per_tile = 30;
  p.num_nets = 60;
  p.num_macros = 1;
  p.seed = 33;
  return generate_chip(p);
}

TEST(Eco, EmptyEditSetReproducesPriorExactly) {
  const Chip chip = eco_chip();
  FlowParams fp = eco_flow();
  RoutingResult prior;
  run_bonnroute_flow(chip, fp, &prior);

  RoutingResult result;
  const EcoReport rep = reroute_nets(chip, prior, {}, fp, &result);
  EXPECT_EQ(rep.nets_rerouted, 0);
  EXPECT_TRUE(rep.changed_nets.empty());
  EXPECT_TRUE(rep.dirty_bbox.empty());
  // Loading a prior result and writing it back is the identity — the
  // unchanged-chip guarantee every incremental flow rests on.
  EXPECT_EQ(result.net_paths, prior.net_paths);
  EXPECT_EQ(rep.netlength, prior.total_wirelength());
  EXPECT_EQ(rep.vias, prior.via_count());
}

TEST(Eco, UntouchedNetsKeepPriorWiring) {
  const Chip chip = eco_chip();
  FlowParams fp = eco_flow();
  RoutingResult prior;
  run_bonnroute_flow(chip, fp, &prior);

  const std::vector<int> victims = {3, 17, 40};
  RoutingResult result;
  const EcoReport rep = reroute_nets(chip, prior, victims, fp, &result);
  EXPECT_GE(rep.nets_rerouted, static_cast<int>(victims.size()));
  // The report times the reroute passes, as a flow's report times its rounds.
  EXPECT_GT(rep.detailed.seconds, 0.0);
  // The edit can only propagate through transactions: every changed net was
  // requested, or touched by some reroute's transaction (rip-up victims,
  // collision victims) — never an arbitrary net.
  std::vector<char> touched(chip.nets.size(), 0);
  for (int id : victims) touched[static_cast<std::size_t>(id)] = 1;
  for (int id : rep.detailed.touched_nets)
    touched[static_cast<std::size_t>(id)] = 1;
  for (int id : rep.changed_nets)
    EXPECT_TRUE(touched[static_cast<std::size_t>(id)]) << "net " << id;
  for (const Net& n : chip.nets) {
    const auto i = static_cast<std::size_t>(n.id);
    if (!touched[i]) {
      EXPECT_EQ(result.net_paths[i], prior.net_paths[i]) << "net " << n.id;
    }
  }
}

// ------------------------------------- holds × ECO × rollback property ---

/// The shapes NetRouter holds out of the space for a search of `net`
/// (§4.4): its pins at kFixed and its recorded wiring at its own level.
struct HoldShapes {
  std::vector<Shape> pins;
  std::vector<Shape> wiring;
};

HoldShapes hold_shapes(const RoutingSpace& rs, int net) {
  HoldShapes h{rs.chip().pin_shapes(net), {}};
  for (const RoutedPath& p : rs.paths(net)) {
    for (const Shape& s : expand_path(p, rs.chip().tech)) h.wiring.push_back(s);
  }
  return h;
}

/// Arms the transaction-boundary audit for one test.
struct AuditArmed {
  AuditArmed() { RoutingSpace::set_audit_for_testing(1); }
  ~AuditArmed() { RoutingSpace::set_audit_for_testing(-1); }
};

/// Property test of the correctness harness: random sequences mixing §4.4
/// search holds with ECO reroutes and transaction rollback must keep every
/// cross-structure invariant (shape grid canonical form, fast-grid
/// incremental == naive recomputation, recorded-path/id bookkeeping) at
/// every step boundary.  Each hold opens and rolls back within its step,
/// as the search's does: a nested transaction removes one net's pins and
/// wiring, the fast grid must match the oracle while they are out, and the
/// rollback restores the space bit-identically without adding to the
/// enclosing transaction's journal.
class HoldEcoInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HoldEcoInvariants, HoldsRollBackWithinEachStep) {
  const AuditArmed audit;
  ChipParams cp;
  cp.layers = 4;
  cp.tiles_x = 2;
  cp.tiles_y = 2;
  cp.tracks_per_tile = 20;
  cp.num_nets = 10;
  cp.seed = GetParam();
  const Chip chip = generate_chip(cp);
  const int nets = chip.num_nets();
  RoutingSpace rs(chip);
  Rng rng(GetParam() * 977);
  std::string why;

  FlowParams fp;
  fp.tiles_x = 2;
  fp.tiles_y = 2;
  fp.threads = 1;
  fp.run_cleanup = false;
  fp.obs.metrics = false;

  for (int round = 0; round < 4; ++round) {
    // ECO at the base level: replace all wiring via load_result, then audit.
    const RoutingResult prior = rs.result();
    RoutingResult out(static_cast<std::size_t>(nets));
    reroute_nets(chip, prior, {static_cast<int>(rng.below(nets))}, fp, &out);
    rs.load_result(out);
    ASSERT_TRUE(rs.check_invariants(&why)) << "after ECO: " << why;

    // A transaction mixing commits and path removals with holds.
    const SpaceSnapshot before = snapshot(rs);
    {
      RoutingTransaction txn(rs);
      for (int step = 0; step < 12; ++step) {
        const int net = static_cast<int>(rng.below(nets));
        switch (rng.below(3)) {
          case 0: {
            const Coord y = 200 + 100 * static_cast<Coord>(rng.below(15));
            rs.commit_path(make_path(net, 200 + 10 * rng.range(0, 30), y,
                                     1200 + 10 * rng.range(0, 50),
                                     static_cast<int>(rng.below(2)) * 2));
            break;
          }
          case 1: {
            const HoldShapes h = hold_shapes(rs, net);
            const SpaceSnapshot held_from = snapshot(rs);
            const std::size_t entries = txn.journal_size();
            RoutingTransaction hold(rs);
            rs.remove_shapes(h.pins, kFixed);
            rs.remove_shapes(h.wiring, rs.net_level(net));
            EXPECT_EQ(fastgrid_diff_vs_naive(rs.fast(), chip.tech, rs.tg(),
                                             rs.checker(), &why),
                      0u)
                << "round " << round << " step " << step << " inside hold: "
                << why;
            hold.rollback();  // audited: a transaction boundary
            ASSERT_EQ(snapshot(rs), held_from)
                << "round " << round << " step " << step
                << ": hold rollback not bit-identical";
            EXPECT_EQ(txn.journal_size(), entries);
            break;
          }
          default: {
            if (rs.path_ids(net).empty()) break;
            rs.remove_recorded_by_id(net, rs.path_ids(net).front());
            break;
          }
        }
        ASSERT_TRUE(rs.check_invariants(&why))
            << "round " << round << " step " << step << ": " << why;
      }
      txn.rollback();
    }
    ASSERT_EQ(snapshot(rs), before) << "rollback not bit-identical";
    ASSERT_TRUE(rs.check_invariants(&why)) << "after rollback: " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HoldEcoInvariants, ::testing::Values(3, 11));

/// The search hold leaves no trace in the caller's transaction: a
/// route_net whose search fails adds no journal entry, no dirty region and
/// no touched net, so an ECO collision sweep reads only wiring that changed.
TEST(SearchHold, FailedSearchLeavesCallerTransactionEmpty) {
  const Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  NetRouter router(rs);
  const SpaceSnapshot before = snapshot(rs);
  NetRouteParams params;
  params.search.max_pops = 1;
  DetailedStats stats;
  RoutingTransaction txn(rs);
  EXPECT_FALSE(router.route_net(0, params, stats));
  EXPECT_GT(stats.connections_failed, 0);
  EXPECT_EQ(txn.journal_size(), 0u);
  EXPECT_TRUE(txn.dirty().empty());
  EXPECT_TRUE(txn.touched_nets().empty());
  EXPECT_EQ(snapshot(rs), before);
  txn.commit();
}

TEST(Eco, DeterministicAcrossThreadCounts) {
  const Chip chip = eco_chip();
  FlowParams fp = eco_flow();
  RoutingResult prior;
  run_bonnroute_flow(chip, fp, &prior);

  const std::vector<int> victims = {1, 22, 45, 58};
  RoutingResult results[3];
  EcoReport reps[3];
  const int thread_counts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    FlowParams tfp = eco_flow();
    tfp.threads = thread_counts[i];
    reps[i] = reroute_nets(chip, prior, victims, tfp, &results[i]);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[i].net_paths, results[0].net_paths)
        << "threads=" << thread_counts[i];
    EXPECT_EQ(reps[i].changed_nets, reps[0].changed_nets)
        << "threads=" << thread_counts[i];
    EXPECT_EQ(reps[i].netlength, reps[0].netlength);
    EXPECT_EQ(reps[i].vias, reps[0].vias);
  }
}

}  // namespace
}  // namespace bonn
