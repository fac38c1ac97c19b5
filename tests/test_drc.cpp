// Distance rule checking module tests (§3.4) and the full-chip audit.
// Includes two differential properties: forbidden_runs must agree with
// per-position check_shape along a track, and the piece merge must match the
// restart loop it replaced.
#include <gtest/gtest.h>

#include "src/db/instance_gen.hpp"
#include "src/drc/audit.hpp"
#include "src/drc/checker.hpp"
#include "src/util/rng.hpp"

namespace bonn {
namespace {

class DrcTest : public ::testing::Test {
 protected:
  DrcTest()
      : tech_(Tech::make_test(4)),
        grid_(tech_, {0, 0, 8000, 8000}),
        checker_(tech_, grid_) {}

  Shape wire(Rect r, int layer, int net,
             ShapeKind kind = ShapeKind::kWire) const {
    return Shape{r, global_of_wiring(layer), kind, 0, net};
  }

  Tech tech_;
  ShapeGrid grid_;
  DrcChecker checker_;
};

TEST_F(DrcTest, EmptyGridAllows) {
  EXPECT_TRUE(checker_.check_shape(wire({100, 100, 300, 150}, 0, 1)).allowed);
}

TEST_F(DrcTest, SpacingViolationDetected) {
  grid_.insert(wire({0, 0, 500, 50}, 0, 1), kStandard);
  // 49 gap < 50 spacing: violation.
  auto pc = checker_.check_shape(wire({0, 99, 500, 149}, 0, 2));
  EXPECT_FALSE(pc.allowed);
  ASSERT_EQ(pc.blocking_nets.size(), 1u);
  EXPECT_EQ(pc.blocking_nets[0], 1);
  EXPECT_EQ(pc.min_blocker_ripup, kStandard);
  EXPECT_TRUE(pc.rippable(kStandard));
  EXPECT_FALSE(pc.rippable(kStandard + 1));
  // 50 gap: legal.
  EXPECT_TRUE(checker_.check_shape(wire({0, 100, 500, 150}, 0, 2)).allowed);
}

TEST_F(DrcTest, SameNetExempt) {
  grid_.insert(wire({0, 0, 500, 50}, 0, 1), kStandard);
  EXPECT_TRUE(checker_.check_shape(wire({0, 20, 500, 70}, 0, 1)).allowed);
  EXPECT_FALSE(checker_.check_shape(wire({0, 20, 500, 70}, 0, 2)).allowed);
}

TEST_F(DrcTest, FixedBlockerNotRippable) {
  grid_.insert(wire({0, 0, 500, 50}, 0, -1, ShapeKind::kBlockage), kFixed);
  auto pc = checker_.check_shape(wire({0, 60, 500, 110}, 0, 2));
  EXPECT_FALSE(pc.allowed);
  EXPECT_EQ(pc.min_blocker_ripup, kFixed);
  EXPECT_TRUE(pc.blocking_nets.empty());
  EXPECT_FALSE(pc.rippable(kStandard));
}

TEST_F(DrcTest, WideMetalNeedsMoreSpace) {
  // A wide shape (150) across cells: rule width survives clipping.
  grid_.insert(wire({0, 0, 1000, 150}, 0, 1), kStandard);
  // 60 gap is fine for 50-spacing but violates the 80 wide-metal row.
  auto pc = checker_.check_shape(wire({0, 210, 1000, 260}, 0, 2));
  EXPECT_FALSE(pc.allowed);
  // 80 gap with a *short* parallel run (prl < 400) satisfies the 80 row.
  EXPECT_TRUE(checker_.check_shape(wire({0, 230, 390, 280}, 0, 2)).allowed);
  // 80 gap with a long parallel run hits the 120 row: violation.
  EXPECT_FALSE(checker_.check_shape(wire({0, 230, 1000, 280}, 0, 2)).allowed);
  // 120 gap with a long run is legal.
  EXPECT_TRUE(checker_.check_shape(wire({0, 270, 1000, 320}, 0, 2)).allowed);
}

TEST_F(DrcTest, ViaCutRules) {
  const Shape cut{{1000, 1000, 1050, 1050}, global_of_via(0),
                  ShapeKind::kViaCut, 0, 1};
  grid_.insert(cut, kStandard);
  // Cut spacing 60: a cut 40 away violates.
  Shape near_cut{{1090, 1000, 1140, 1050}, global_of_via(0),
                 ShapeKind::kViaCut, 0, 2};
  EXPECT_FALSE(checker_.check_shape(near_cut).allowed);
  Shape far_cut{{1110, 1000, 1160, 1050}, global_of_via(0),
                ShapeKind::kViaCut, 0, 2};
  EXPECT_TRUE(checker_.check_shape(far_cut).allowed);
}

TEST_F(DrcTest, CheckWireAndVia) {
  grid_.insert(wire({0, 0, 2000, 50}, 0, 1), kStandard);
  WireStick w{{0, 120}, {1000, 120}, 0};
  // Centerline 120: shape [95, 145]; gap to 50 -> 45 < 50: violation.
  EXPECT_FALSE(checker_.check_wire(w, 2, 0).allowed);
  WireStick w2{{0, 130}, {1000, 130}, 0};
  EXPECT_TRUE(checker_.check_wire(w2, 2, 0).allowed);
  ViaStick v{{1000, 1000}, 0};
  EXPECT_TRUE(checker_.check_via(v, 2, 0).allowed);
}

/// Differential property: forbidden_runs vs. brute-force check_shape per
/// position.  forbidden_runs is allowed to be *more* conservative (swept
/// run-length assumption), never less.
TEST_F(DrcTest, ForbiddenRunsMatchPointChecks) {
  Rng rng(17);
  for (int iter = 0; iter < 12; ++iter) {
    // Fresh scene per iteration.
    ShapeGrid grid(tech_, {0, 0, 8000, 8000});
    DrcChecker checker(tech_, grid);
    std::vector<Shape> scene;
    for (int i = 0; i < 6; ++i) {
      const Coord x = rng.range(0, 3500);
      const Coord y = rng.range(800, 1400);
      scene.push_back(wire({x, y, x + rng.range(50, 800), y + rng.range(40, 120)},
                           0, static_cast<int>(rng.range(1, 4))));
    }
    for (const Shape& s : scene) grid.insert(s, kStandard);

    const WireModel& model = tech_.wire_model(0, 0, true);
    const Coord cross = rng.range(900, 1300);
    const Interval bound{0, 4000};
    const auto runs = checker.forbidden_runs(global_of_wiring(0), model,
                                             /*line_horizontal=*/true, cross,
                                             bound, /*net=*/-3,
                                             ShapeKind::kWire,
                                             /*swept=*/false);
    auto forbidden_at = [&](Coord c) {
      for (const ForbiddenRun& r : runs) {
        if (r.along.contains(c)) return true;
      }
      return false;
    };
    for (Coord c = bound.lo; c <= bound.hi; c += 37) {
      Shape cand;
      cand.rect = model.shape({c, cross});
      cand.global_layer = global_of_wiring(0);
      cand.kind = ShapeKind::kWire;
      cand.net = -3;
      const bool blocked = !checker.check_shape(cand).allowed;
      if (blocked) {
        EXPECT_TRUE(forbidden_at(c))
            << "missed violation at " << c << " cross " << cross
            << " iter " << iter;
      }
      // Conservative direction: point-placement forbidden_runs with
      // swept=false should agree exactly on these simple scenes.
      if (forbidden_at(c)) {
        EXPECT_TRUE(blocked) << "false positive at " << c << " iter " << iter;
      }
    }
  }
}

// ------------------------------------------------------ piece merging ---

/// The restart loop detail::merge_pieces replaced, kept verbatim as the
/// reference: merge the first mergeable pair in list order, then rescan.
void reference_merge_pieces(std::vector<GridShape>& pieces) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < pieces.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < pieces.size(); ++j) {
        GridShape& a = pieces[i];
        GridShape& b = pieces[j];
        if (a.net != b.net || a.kind != b.kind || a.cls != b.cls ||
            a.rule_width != b.rule_width) {
          continue;
        }
        const bool same_y = a.rect.ylo == b.rect.ylo && a.rect.yhi == b.rect.yhi;
        const bool same_x = a.rect.xlo == b.rect.xlo && a.rect.xhi == b.rect.xhi;
        const bool x_touch = a.rect.x_iv().touches(b.rect.x_iv());
        const bool y_touch = a.rect.y_iv().touches(b.rect.y_iv());
        if ((same_y && x_touch) || (same_x && y_touch) ||
            a.rect.contains(b.rect) || b.rect.contains(a.rect)) {
          a.rect = a.rect.hull(b.rect);
          a.ripup = std::min(a.ripup, b.ripup);
          pieces.erase(pieces.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }
  }
}

std::string piece_str(const GridShape& g) {
  const Rect& r = g.rect;
  return "[" + std::to_string(r.xlo) + "," + std::to_string(r.xhi) + "]x[" +
         std::to_string(r.ylo) + "," + std::to_string(r.yhi) + "] net " +
         std::to_string(g.net) + " kind " +
         std::to_string(static_cast<int>(g.kind)) + " cls " +
         std::to_string(g.cls) + " w " + std::to_string(g.rule_width) +
         " ripup " + std::to_string(static_cast<int>(g.ripup));
}

/// Whole-vector comparison: same pieces (rect, rip-up level, key) in the
/// same order.
void expect_same_pieces(const std::vector<GridShape>& got,
                        const std::vector<GridShape>& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(piece_str(got[i]), piece_str(want[i])) << ctx << ", piece " << i;
  }
}

/// Pieces as a shape-grid query returns them: random rects of a few
/// interleaved keys, clipped into the cells of a grid and listed cell by
/// cell, plus duplicates and contained sub-rects spliced in at random.
std::vector<GridShape> random_pieces(Rng& rng) {
  const Coord cell = rng.range(40, 100);
  const Coord gap = rng.flip(0.5) ? 0 : 1;  // cells share edges or abut
  std::vector<GridShape> keys(static_cast<std::size_t>(rng.range(1, 6)));
  for (GridShape& k : keys) {
    const ShapeKind kinds[] = {ShapeKind::kWire, ShapeKind::kJog,
                               ShapeKind::kPin};
    k.kind = kinds[rng.below(3)];
    k.net = static_cast<int>(rng.range(-1, 2));
    k.cls = static_cast<ShapeClass>(rng.below(2));
    k.rule_width = rng.flip(0.5) ? 50 : 80;
  }
  struct Clipped {
    Coord row, col;
    GridShape piece;
  };
  std::vector<Clipped> clipped;
  const auto num_shapes = rng.range(0, 40);
  for (std::int64_t s = 0; s < num_shapes; ++s) {
    GridShape g = keys[rng.below(keys.size())];
    const Coord x = rng.range(0, 400);
    const Coord y = rng.range(0, 400);
    // One in five shapes is zero-width on one axis.
    const Coord w = rng.flip(0.2) ? 0 : rng.range(1, 300);
    const Coord h = rng.flip(0.2) ? 0 : rng.range(1, 300);
    const Rect r{x, y, x + w, y + h};
    for (Coord row = r.ylo / cell; row <= r.yhi / cell; ++row) {
      for (Coord col = r.xlo / cell; col <= r.xhi / cell; ++col) {
        const Rect c{col * cell, row * cell, (col + 1) * cell - gap,
                     (row + 1) * cell - gap};
        g.rect = r.intersection(c);
        if (g.rect.empty()) continue;
        clipped.push_back({row, col, g});
      }
    }
  }
  std::stable_sort(clipped.begin(), clipped.end(),
                   [](const Clipped& a, const Clipped& b) {
                     return std::tie(a.row, a.col) < std::tie(b.row, b.col);
                   });
  std::vector<GridShape> pieces;
  for (const Clipped& c : clipped) pieces.push_back(c.piece);
  const auto extras = rng.range(0, static_cast<std::int64_t>(pieces.size()) / 4);
  for (std::int64_t e = 0; e < extras; ++e) {
    GridShape g = pieces[rng.below(pieces.size())];
    if (rng.flip(0.5)) {  // contained sub-rect, else an exact duplicate
      g.rect.xlo = rng.range(g.rect.xlo, g.rect.xhi);
      g.rect.xhi = rng.range(g.rect.xlo, g.rect.xhi);
      g.rect.ylo = rng.range(g.rect.ylo, g.rect.yhi);
      g.rect.yhi = rng.range(g.rect.ylo, g.rect.yhi);
    }
    pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(pieces.size() + 1)),
                  g);
  }
  pieces.resize(std::min(pieces.size(),
                         static_cast<std::size_t>(rng.range(0, 300))));
  const RipupLevel levels[] = {kFixed, kCritical, kStandard, 7, 255};
  for (GridShape& g : pieces) g.ripup = levels[rng.below(5)];
  return pieces;
}

TEST(MergePieces, MatchesRestartLoopOnRandomInputs) {
  std::size_t largest = 0;
  int cases_with_merges = 0;
  constexpr int kCases = 1000;
  for (int seed = 1; seed <= kCases; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<GridShape> got = random_pieces(rng);
    std::vector<GridShape> want = got;
    largest = std::max(largest, got.size());
    reference_merge_pieces(want);
    if (want.size() < got.size()) ++cases_with_merges;
    detail::merge_pieces(got);
    expect_same_pieces(got, want, "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
  // The inputs span the size range and mostly do merge.
  EXPECT_GE(largest, 250u);
  EXPECT_GE(cases_with_merges, kCases / 2);
}

TEST(MergePieces, OrderDecidesWhichPairMerges) {
  const auto piece = [](Rect r) {
    return GridShape{r, ShapeKind::kWire, 0, 50, 1, kStandard};
  };
  const GridShape p1 = piece({0, 0, 10, 10});
  const GridShape p2 = piece({10, 0, 20, 10});
  const GridShape p3 = piece({0, 10, 10, 20});
  struct Case {
    std::vector<GridShape> in;
    std::vector<Rect> out;
  };
  const Case cases[] = {
      // P1 absorbs P2 first; the wide result no longer lines up with P3.
      {{p1, p2, p3}, {{0, 0, 20, 10}, {0, 10, 10, 20}}},
      // P1 absorbs P3 first; the tall result no longer lines up with P2.
      {{p1, p3, p2}, {{0, 0, 10, 20}, {10, 0, 20, 10}}},
      // The last two merge into a piece that lines up with the first, which
      // then absorbs it.
      {{p3, piece({0, 0, 5, 9}), piece({5, 0, 10, 9})}, {{0, 0, 10, 20}}},
  };
  for (const Case& c : cases) {
    std::vector<GridShape> got = c.in;
    std::vector<GridShape> want = c.in;
    detail::merge_pieces(got);
    reference_merge_pieces(want);
    expect_same_pieces(got, want, "pinned case");
    ASSERT_EQ(got.size(), c.out.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(piece_str(got[i]), piece_str(piece(c.out[i])));
    }
  }
}

TEST(Audit, TinyChipUnroutedHasOpens) {
  const Chip chip = make_tiny_chip(4);
  RoutingResult empty(chip.num_nets());
  const auto report = audit_routing(chip, empty);
  // Each k-pin net contributes k-1 opens.
  std::int64_t expect_opens = 0;
  for (const Net& n : chip.nets) expect_opens += n.degree() - 1;
  EXPECT_EQ(report.opens, expect_opens);
  EXPECT_EQ(report.diffnet_violations, 0);
}

TEST(Audit, DetectsPlantedViolations) {
  Chip chip = make_tiny_chip(4);
  RoutingResult result(chip.num_nets());
  // Connect net 2's two pins ({600,600} and {700,2800} pin rects are 50x100
  // at layer 0) with wires, deliberately near net 0's pin at {200,200}.
  RoutedPath p;
  p.net = 2;
  p.wiretype = 0;
  p.wires.push_back({{625, 650}, {625, 2850}, 0});  // vertical jog-ish wire
  p.wires.push_back({{625, 2850}, {725, 2850}, 0});
  result.net_paths[2].push_back(p);
  const auto report = audit_routing(chip, result);
  EXPECT_EQ(report.opens, 2 + 1 + 0 + 3);  // nets 0,1,3 unrouted; net 2 done
  // The long vertical wire passes blockage at x in [1500..2100]? No — x=625.
  // No diff-net violation expected here.
  EXPECT_EQ(report.diffnet_violations, 0);
  // Min segment: the 100-long second stick is exactly tau -> no violation.
  EXPECT_EQ(report.min_seg_violations, 0);
}

TEST(Audit, MinAreaViolationCounted) {
  Chip chip = make_tiny_chip(4);
  RoutingResult result(chip.num_nets());
  RoutedPath p;
  p.net = 0;
  p.wiretype = 0;
  // A lone tiny stick far from everything: metal area (2*45+100)*50 = 9500
  // >= 7500 OK; make it degenerate instead: single point stick.
  p.wires.push_back({{3800, 3800}, {3800, 3800}, 2});
  result.net_paths[0].push_back(p);
  const auto report = audit_routing(chip, result);
  // Degenerate stick: shape 90x50 = 4500 < 7500.
  EXPECT_GE(report.min_area_violations, 1);
}

}  // namespace
}  // namespace bonn
