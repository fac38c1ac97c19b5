// Fast grid tests (§3.6): legality words must agree with the rule checker,
// incremental updates must match full rebuilds, gap bits must flag off-track
// blockers between stations.
#include <gtest/gtest.h>

#include <span>

#include "src/db/instance_gen.hpp"
#include "src/detailed/routing_space.hpp"
#include "src/fastgrid/oracle.hpp"
#include "src/util/rng.hpp"

namespace bonn {
namespace {

class FastGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chip_ = make_tiny_chip(4);
    rs_ = std::make_unique<RoutingSpace>(chip_);
  }

  /// Reference: is a preferred-direction degenerate wire of wiretype wt
  /// placeable at vertex v (no ripup), per the rule checker?
  bool checker_wire_ok(const TrackVertex& v, int wt) {
    const Point p = rs_->tg().vertex_pt(v);
    Shape cand;
    cand.rect = chip_.tech.wire_model(wt, v.layer, true).shape(p);
    cand.global_layer = global_of_wiring(v.layer);
    cand.kind = ShapeKind::kWire;
    cand.net = -3;
    return rs_->checker().check_shape(cand).allowed;
  }

  Chip chip_;
  std::unique_ptr<RoutingSpace> rs_;
};

TEST_F(FastGridTest, FreeSpaceIsFree) {
  const TrackVertex v = rs_->tg().nearest_vertex(1, {3000, 3500});
  ASSERT_TRUE(v.valid());
  const std::uint64_t w = rs_->fast().word(v.layer, v.track, v.station);
  EXPECT_EQ(FastGrid::wiring_field(w, 0, FastGrid::kWireF), FastGrid::kFree);
  EXPECT_EQ(FastGrid::wiring_field(w, 0, FastGrid::kJogF), FastGrid::kFree);
  EXPECT_FALSE(FastGrid::gap_bit(w, 0));
}

TEST_F(FastGridTest, BlockageBlocks) {
  // make_tiny_chip has a fixed blockage {1500,1200,2100,2600} on layers 0,1.
  const TrackVertex v = rs_->tg().nearest_vertex(1, {1800, 1900});
  ASSERT_TRUE(v.valid());
  const std::uint64_t w = rs_->fast().word(v.layer, v.track, v.station);
  EXPECT_EQ(FastGrid::wiring_field(w, 0, FastGrid::kWireF), 0);  // fixed
  EXPECT_FALSE(FastGrid::passes(
      FastGrid::wiring_field(w, 0, FastGrid::kWireF), kStandard));
}

/// The central property: for a sample of vertices, the fast grid's wire
/// legality equals the checker's verdict.  Exact equality needs a scene
/// without wide shapes (the fast grid assumes maximal run-length for swept
/// wires, §3.1's conservative modelling), so we clear the tiny chip's macro
/// blockage and use narrow wires only.
TEST_F(FastGridTest, WireFieldMatchesChecker) {
  chip_.blockages.clear();
  rs_ = std::make_unique<RoutingSpace>(chip_);
  RoutedPath p;
  p.net = 0;
  p.wiretype = 0;
  p.wires.push_back({{500, 1000}, {2500, 1000}, 0});
  p.wires.push_back({{900, 400}, {900, 2000}, 1});
  p.vias.push_back({{900, 1000}, 0});
  rs_->commit_path(p);

  Rng rng(3);
  for (int layer = 0; layer < 2; ++layer) {
    const auto& tracks = rs_->tg().tracks(layer);
    const auto& stations = rs_->tg().stations(layer);
    for (int iter = 0; iter < 150; ++iter) {
      const TrackVertex v{layer,
                          static_cast<int>(rng.below(tracks.size())),
                          static_cast<int>(rng.below(stations.size()))};
      const std::uint64_t w = rs_->fast().word(v.layer, v.track, v.station);
      const bool fast_free =
          FastGrid::wiring_field(w, 0, FastGrid::kWireF) == FastGrid::kFree;
      const bool chk = checker_wire_ok(v, 0);
      EXPECT_EQ(fast_free, chk)
          << "layer " << layer << " track " << v.track << " station "
          << v.station << " at (" << rs_->tg().vertex_pt(v).x << ","
          << rs_->tg().vertex_pt(v).y << ")";
    }
  }
}

/// One-sided property on the full chip (wide macro blockage present): the
/// fast grid is never optimistic — a free word implies the checker agrees.
TEST_F(FastGridTest, FreeImpliesCheckerFree) {
  Rng rng(4);
  for (int layer = 0; layer < 2; ++layer) {
    const auto& tracks = rs_->tg().tracks(layer);
    const auto& stations = rs_->tg().stations(layer);
    for (int iter = 0; iter < 150; ++iter) {
      const TrackVertex v{layer,
                          static_cast<int>(rng.below(tracks.size())),
                          static_cast<int>(rng.below(stations.size()))};
      const std::uint64_t w = rs_->fast().word(v.layer, v.track, v.station);
      if (FastGrid::wiring_field(w, 0, FastGrid::kWireF) == FastGrid::kFree) {
        EXPECT_TRUE(checker_wire_ok(v, 0))
            << "fast grid optimistic at layer " << layer << " ("
            << rs_->tg().vertex_pt(v).x << "," << rs_->tg().vertex_pt(v).y
            << ")";
      }
    }
  }
}

TEST_F(FastGridTest, InsertRemoveRestoresWords) {
  const TrackVertex v = rs_->tg().nearest_vertex(1, {3000, 3000});
  const Point p = rs_->tg().vertex_pt(v);
  const std::uint64_t before = rs_->fast().word(v.layer, v.track, v.station);

  Shape s{Rect{p.x - 200, p.y - 25, p.x + 200, p.y + 25},
          global_of_wiring(1), ShapeKind::kWire, 0, 9};
  rs_->insert_shape(s, kStandard);
  const std::uint64_t during = rs_->fast().word(v.layer, v.track, v.station);
  EXPECT_NE(before, during);
  EXPECT_EQ(FastGrid::wiring_field(during, 0, FastGrid::kWireF), kStandard);

  rs_->remove_shape(s, kStandard);
  const std::uint64_t after = rs_->fast().word(v.layer, v.track, v.station);
  EXPECT_EQ(before, after);
}

TEST_F(FastGridTest, ViaLevelReflectsBlockedPad) {
  const TrackVertex v = rs_->tg().nearest_vertex(0, {3000, 3000});
  ASSERT_TRUE(rs_->tg().via_up(v).valid());
  EXPECT_EQ(rs_->fast().via_level(v, 0), FastGrid::kFree);
  // Block the top pad location on layer 1.
  const Point p = rs_->tg().vertex_pt(v);
  Shape s{Rect{p.x - 60, p.y - 60, p.x + 60, p.y + 60}, global_of_wiring(1),
          ShapeKind::kWire, 0, 9};
  rs_->insert_shape(s, kStandard);
  EXPECT_EQ(rs_->fast().via_level(v, 0), kStandard);
  rs_->remove_shape(s, kStandard);
  EXPECT_EQ(rs_->fast().via_level(v, 0), FastGrid::kFree);
}

/// All-words comparison of the incremental state against the oracle (what
/// RoutingSpace::check_invariants runs); "" on agreement.
std::string fast_vs_naive(const RoutingSpace& rs) {
  std::string why;
  const std::size_t diffs = fastgrid_diff_vs_naive(
      rs.fast(), rs.chip().tech, rs.tg(), rs.checker(), &why);
  return diffs == 0 ? std::string() : why;
}

/// The tiny chip without its macro blockage, on a deck whose layer-0
/// stations (layer 1's tracks) are 400 dbu apart.  A small blocker's
/// forbidden runs then fit strictly between two stations, which is the
/// scene the gap bit exists for; on the default deck every run is wider
/// than the 100-dbu station pitch and covers a station.
Chip wide_station_chip() {
  Chip chip = make_tiny_chip(4);
  chip.blockages.clear();
  chip.tech.wiring[1].pitch = 400;
  return chip;
}

/// A 4x4 blocker on layer 0 centred at (x, y).
Shape small_blocker(Coord x, Coord y) {
  return Shape{Rect{x - 2, y - 2, x + 2, y + 2}, global_of_wiring(0),
               ShapeKind::kBlockage, 0, -1};
}

TEST_F(FastGridTest, GapBitForOfftrackBlocker) {
  // A small blocker midway between two stations of a layer-0 track leaves
  // both stations free; only the gap bit of the left one flags the edge.
  chip_ = wide_station_chip();
  rs_ = std::make_unique<RoutingSpace>(chip_);
  const auto& tracks = rs_->tg().tracks(0);
  const auto& stations = rs_->tg().stations(0);
  const int ti = static_cast<int>(tracks.size() / 2);
  const int si = static_cast<int>(stations.size() / 2);
  const Coord x0 = stations[static_cast<std::size_t>(si)];
  const Coord x1 = stations[static_cast<std::size_t>(si) + 1];
  ASSERT_GE(x1 - x0, 400);
  const Shape s =
      small_blocker((x0 + x1) / 2, tracks[static_cast<std::size_t>(ti)]);
  rs_->insert_shape(s, kFixed);
  const std::uint64_t w = rs_->fast().word(0, ti, si);
  EXPECT_EQ(FastGrid::wiring_field(w, 0, FastGrid::kWireF), FastGrid::kFree);
  EXPECT_EQ(FastGrid::wiring_field(rs_->fast().word(0, ti, si + 1), 0,
                                   FastGrid::kWireF),
            FastGrid::kFree);
  EXPECT_TRUE(FastGrid::gap_bit(w, 0));
  EXPECT_FALSE(FastGrid::gap_bit(rs_->fast().word(0, ti, si - 1), 0));
  EXPECT_FALSE(FastGrid::gap_bit(rs_->fast().word(0, ti, si + 1), 0));
  EXPECT_EQ(fast_vs_naive(*rs_), "");
  // Removing the blocker clears the bit again.
  rs_->remove_shape(s, kFixed);
  EXPECT_FALSE(FastGrid::gap_bit(rs_->fast().word(0, ti, si), 0));
  EXPECT_EQ(fast_vs_naive(*rs_), "");
}

/// Incremental == oracle where refreshes must set and clear gap bits: on
/// the wide-station deck a fixed small blocker sits between stations si and
/// si+1, and a second one is inserted and removed every 50 dbu along the
/// same track towards it.  Some of these refresh windows end exactly at
/// station si, the gap's left vertex, so the bit must be re-set there from
/// a run just past the window's right edge; every removal must clear the
/// probe's own gap bits.
TEST_F(FastGridTest, GapBitsIncrementalMatchOracle) {
  chip_ = wide_station_chip();
  rs_ = std::make_unique<RoutingSpace>(chip_);
  const auto& tracks = rs_->tg().tracks(0);
  const auto& stations = rs_->tg().stations(0);
  const int ti = static_cast<int>(tracks.size() / 2);
  const int si = static_cast<int>(stations.size() / 2);
  const Coord y = tracks[static_cast<std::size_t>(ti)];
  const Coord x0 = stations[static_cast<std::size_t>(si)];
  const Coord x1 = stations[static_cast<std::size_t>(si) + 1];
  const Shape fixed = small_blocker((x0 + x1) / 2, y);
  rs_->insert_shape(fixed, kFixed);
  ASSERT_TRUE(FastGrid::gap_bit(rs_->fast().word(0, ti, si), 0));
  for (Coord x = x0 - 2000; x < x0; x += 50) {
    const Shape probe = small_blocker(x, y);
    rs_->insert_shape(probe, kStandard);
    ASSERT_EQ(fast_vs_naive(*rs_), "") << "probe inserted at x=" << x;
    rs_->remove_shape(probe, kStandard);
    ASSERT_EQ(fast_vs_naive(*rs_), "") << "probe removed at x=" << x;
  }
  EXPECT_TRUE(FastGrid::gap_bit(rs_->fast().word(0, ti, si), 0));
  rs_->remove_shape(fixed, kFixed);
  EXPECT_EQ(fast_vs_naive(*rs_), "");
  EXPECT_FALSE(FastGrid::gap_bit(rs_->fast().word(0, ti, si), 0));
}

/// Regression: the checker widens a long point model's query window by the
/// model's length, and a refresh must reach every station whose window
/// meets the change.  The power wiretype's layer-0 via-bottom pad is 480
/// long against the 400 run-length rule.  Blockage G, 350 long, leaves the
/// pad at the station free: run-length 350 needs spacing 100, and the
/// diagonal gap is 134.  S abuts G, and their 700-long union needs 160.  S
/// starts 650 along from the station: past the model's extent plus the
/// spacing and two stations, but inside the widened window.
TEST_F(FastGridTest, RefreshReachCoversLongPadWindowWidening) {
  chip_.blockages.clear();
  rs_ = std::make_unique<RoutingSpace>(chip_);
  FastGrid fast3(chip_.tech, rs_->tg(), rs_->checker(), /*max_cached=*/3);
  fast3.rebuild();
  const TrackVertex v = rs_->tg().nearest_vertex(0, {500, 2000});
  ASSERT_TRUE(v.valid());
  const Point p = rs_->tg().vertex_pt(v);
  ASSERT_EQ(p.x, 525);
  ASSERT_EQ(p.y, 2025);
  const Shape g{Rect{p.x + 300, p.y + 280, p.x + 650, p.y + 340},
                global_of_wiring(0), ShapeKind::kBlockage, 0, -1};
  const Shape s{Rect{p.x + 650, p.y + 280, p.x + 1000, p.y + 340},
                global_of_wiring(0), ShapeKind::kBlockage, 0, -1};
  auto change = [&](const Shape& shape, bool insert) {
    if (insert) {
      rs_->insert_shape(shape, kFixed);
    } else {
      rs_->remove_shape(shape, kFixed);
    }
    fast3.on_change(shape);
  };
  auto power_via_bottom = [&] {
    return FastGrid::wiring_field(fast3.word(0, v.track, v.station),
                                  /*wt=*/2, FastGrid::kViaBotF);
  };
  auto diffs = [&] {
    std::string why;
    return fastgrid_diff_vs_naive(fast3, chip_.tech, rs_->tg(),
                                  rs_->checker(), &why) == 0
               ? std::string()
               : why;
  };
  change(g, /*insert=*/true);
  EXPECT_EQ(power_via_bottom(), FastGrid::kFree);
  EXPECT_EQ(diffs(), "");
  change(s, /*insert=*/true);
  EXPECT_EQ(power_via_bottom(), 0);
  EXPECT_EQ(diffs(), "");
  change(s, /*insert=*/false);
  EXPECT_EQ(power_via_bottom(), FastGrid::kFree);
  EXPECT_EQ(diffs(), "");
}

/// Incremental consistency: a sequence of single and batched inserts and
/// removes, on wiring and via layers, leaves exactly the words of a full
/// rebuild — both checked word by word against the oracle, for the space's
/// fast grid and for one caching all three test wiretypes.
TEST_F(FastGridTest, IncrementalMatchesRebuild) {
  FastGrid fast3(chip_.tech, rs_->tg(), rs_->checker(), /*max_cached=*/3);
  fast3.rebuild();
  Rng rng(77);
  std::vector<Shape> shapes;
  for (int i = 0; i < 36; ++i) {
    const Coord x = rng.range(200, 3400);
    const Coord y = rng.range(200, 3400);
    const bool via = i % 4 == 3;
    const Rect r = via ? Rect{x, y, x + 50, y + 50}
                       : Rect{x, y, x + rng.range(30, 600),
                              y + rng.range(30, 90)};
    shapes.push_back(Shape{r,
                           via ? global_of_via(static_cast<int>(rng.range(0, 2)))
                               : global_of_wiring(static_cast<int>(rng.range(0, 3))),
                           via ? ShapeKind::kViaCut : ShapeKind::kWire, 0,
                           static_cast<int>(rng.range(0, 5))});
  }
  // The first 12 one at a time, the rest in batches of 6 that the refresh
  // clusters per layer.
  const std::span<const Shape> all(shapes);
  auto insert = [&](std::span<const Shape> b) {
    rs_->insert_shapes(b, kStandard);
    fast3.on_change_all(b);
  };
  auto remove = [&](std::span<const Shape> b) {
    rs_->remove_shapes(b, kStandard);
    fast3.on_change_all(b);
  };
  for (std::size_t i = 0; i < 12; ++i) insert(all.subspan(i, 1));
  for (std::size_t i = 12; i < all.size(); i += 6) insert(all.subspan(i, 6));
  for (std::size_t i = 0; i < 6; ++i) remove(all.subspan(i, 1));
  remove(all.subspan(12, 6));
  remove(all.subspan(24, 6));

  auto expect_naive = [&](const FastGrid& fast, const char* what) {
    std::string why;
    EXPECT_EQ(fastgrid_diff_vs_naive(fast, chip_.tech, rs_->tg(),
                                     rs_->checker(), &why),
              0u)
        << what << "\n"
        << why;
  };
  expect_naive(rs_->fast(), "incremental, 2 wiretypes");
  expect_naive(fast3, "incremental, 3 wiretypes");
  rs_->mutable_fast().rebuild();
  fast3.rebuild();
  expect_naive(rs_->fast(), "rebuild, 2 wiretypes");
  expect_naive(fast3, "rebuild, 3 wiretypes");
}

// Regression (fuzzer find, shrunk from seed 1): ripup must be a per-shape
// attribute.  With the old cell-level min, inserting a critical (level-1)
// shape into a cell shared with another net's *long* standard wire dragged
// the wire's reported level down; merge_pieces spread it across the merged
// rect, and the forbidden run's level changed stations far outside the
// incremental refresh window of the inserted shape.
TEST_F(FastGridTest, NeighbourCellRipupStaysLocalToTheInsertedShape) {
  // Long standard wire of net 0 spanning many cells on layer 0.
  const Shape wire{Rect{300, 900, 3300, 960}, global_of_wiring(0),
                   ShapeKind::kWire, 0, 0};
  rs_->insert_shape(wire, kStandard);
  ASSERT_EQ(fast_vs_naive(*rs_), "");
  // Critical shape of net 1 sharing only the wire's first cell.
  const Shape crit{Rect{310, 980, 380, 1040}, global_of_wiring(0),
                   ShapeKind::kWire, 0, 1};
  rs_->insert_shape(crit, kCritical);
  EXPECT_EQ(fast_vs_naive(*rs_), "");
  rs_->remove_shape(crit, kCritical);
  EXPECT_EQ(fast_vs_naive(*rs_), "");
}

// Regression: a shape reaching the die edge drives recompute_wiring's gap
// restoration at station 0 / the track start; the `update(alo-1, alo, ...)`
// neighbour write must not underflow the interval map's domain.
TEST_F(FastGridTest, ShapeAtDieEdgeKeepsIncrementalEqualToRebuild) {
  for (int layer = 0; layer < 2; ++layer) {
    // Overhang the die on both ends of the along axis (and off-grid cross
    // coordinates) — exercises station_range clamping at both borders.
    const bool horiz = chip_.tech.pref(layer) == Dir::kHorizontal;
    const Rect r = horiz ? Rect{-150, 333, 250, 397} : Rect{333, -150, 397, 250};
    const Rect r2 = horiz ? Rect{3800, 407, 4300, 463} : Rect{407, 3800, 463, 4300};
    rs_->insert_shape(
        Shape{r, global_of_wiring(layer), ShapeKind::kWire, 0, 2}, kStandard);
    rs_->insert_shape(
        Shape{r2, global_of_wiring(layer), ShapeKind::kWire, 0, 3}, kStandard);
  }
  EXPECT_EQ(fast_vs_naive(*rs_), "");
  std::string why;
  EXPECT_TRUE(rs_->fast().check_canonical(&why)) << why;
}

// Regression: the word-field writers saturate at kFree (7) instead of
// silently masking high bits into a wrong small value (`9 & 0x7 == 1`, which
// read as "critical blocker" instead of "free").
TEST(FastGridFields, WithFieldSaturatesAtKFree) {
  const std::uint64_t w0 = ~0ULL;
  for (int wt = 0; wt < 2; ++wt) {
    for (int f = 0; f < 4; ++f) {
      const std::uint64_t w = FastGrid::with_wiring_field(
          w0, wt, static_cast<FastGrid::Field>(f), 9);
      EXPECT_EQ(FastGrid::wiring_field(w, wt, static_cast<FastGrid::Field>(f)),
                FastGrid::kFree);
    }
    for (int f = 0; f < 2; ++f) {
      const std::uint64_t w = FastGrid::with_via_field(
          0, wt, static_cast<FastGrid::ViaField>(f), 250);
      EXPECT_EQ(FastGrid::via_field(w, wt, static_cast<FastGrid::ViaField>(f)),
                FastGrid::kFree);
    }
  }
  // In-range values are stored verbatim.
  const std::uint64_t w =
      FastGrid::with_wiring_field(0, 1, FastGrid::kViaTopF, 5);
  EXPECT_EQ(FastGrid::wiring_field(w, 1, FastGrid::kViaTopF), 5);
}

}  // namespace
}  // namespace bonn
