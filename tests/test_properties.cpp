// Parameterized property sweeps (TEST_P): the heavy invariants of the
// system, each swept over seeds / rule parameters.
//
//  - interval search ≡ per-vertex search (Algorithm 4 exactness)
//  - fast grid incremental updates ≡ rebuild
//  - forbidden_runs ≡ per-position placement checks
//  - τ-path feasibility for every τ
//  - track optimization beats all uniform-offset solutions
//  - shape grid insert/remove round-trips to empty
//  - stacked-via estimator monotone in k for every footprint
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "src/blockagegrid/tau_path.hpp"
#include "src/db/instance_gen.hpp"
#include "src/detailed/net_router.hpp"
#include "src/fastgrid/oracle.hpp"
#include "src/geom/rsmt.hpp"
#include "src/global/stacked_vias.hpp"
#include "src/tracks/track_opt.hpp"
#include "src/util/rng.hpp"

namespace bonn {
namespace {

// ---------------------------------------------------------------- search --
class SearchDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SearchDifferential, IntervalEqualsVertexCost) {
  Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  Rng rng(GetParam());
  // Random clutter of foreign wires.
  for (int i = 0; i < 20; ++i) {
    const Coord x = rng.range(300, 3300);
    const Coord y = rng.range(300, 3300);
    const int layer = static_cast<int>(rng.range(0, 3));
    rs.insert_shape(Shape{Rect{x, y, x + rng.range(60, 700),
                               y + rng.range(40, 90)},
                          global_of_wiring(layer), ShapeKind::kWire, 0,
                          static_cast<int>(rng.range(50, 60))},
                    kStandard);
  }
  OnTrackSearch isearch(rs);
  VertexSearch vsearch(rs);
  const std::vector<Rect> area{chip.die};
  int compared = 0;
  for (int iter = 0; iter < 8; ++iter) {
    const Point sp{rng.range(300, 3500), rng.range(300, 3500)};
    const Point tp{rng.range(300, 3500), rng.range(300, 3500)};
    const SearchSource s{
        rs.tg().nearest_vertex(static_cast<int>(rng.range(0, 3)), sp), 0, 0};
    const TrackVertex t =
        rs.tg().nearest_vertex(static_cast<int>(rng.range(0, 3)), tp);
    if (!s.v.valid() || !t.valid()) continue;
    FutureCost pi({{Rect::from_points(rs.tg().vertex_pt(t),
                                      rs.tg().vertex_pt(t)),
                    t.layer}},
                  4, 400);
    SearchParams params;
    params.max_pops = 10'000'000;
    const auto a = isearch.run({&s, 1}, {&t, 1}, area, pi, params);
    const auto b = vsearch.run({&s, 1}, {&t, 1}, area, pi, params);
    ASSERT_EQ(a.has_value(), b.has_value()) << "iter " << iter;
    if (a) {
      EXPECT_EQ(a->cost, b->cost) << "iter " << iter;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchDifferential,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ------------------------------------------------------------- fast grid --
/// Every word of every wiring and via track against the oracle, which
/// recomputes each station from the checker and shares no write path with
/// the fast grid — for the space's fast grid and `fast3` (all three test
/// wiretypes), before a rebuild and after it, so incremental words equal
/// rebuilt ones.
void expect_oracle_words_before_and_after_rebuild(RoutingSpace& rs,
                                                  FastGrid& fast3) {
  auto expect_naive = [&](const FastGrid& fast, const char* what) {
    std::string why;
    EXPECT_EQ(fastgrid_diff_vs_naive(fast, rs.chip().tech, rs.tg(),
                                     rs.checker(), &why),
              0u)
        << what << "\n"
        << why;
    EXPECT_TRUE(fast.check_canonical(&why)) << what << "\n" << why;
  };
  expect_naive(rs.fast(), "incremental, 2 wiretypes");
  expect_naive(fast3, "incremental, 3 wiretypes");
  rs.mutable_fast().rebuild();
  fast3.rebuild();
  expect_naive(rs.fast(), "rebuild, 2 wiretypes");
  expect_naive(fast3, "rebuild, 3 wiretypes");
}

class FastGridIncremental : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastGridIncremental, MatchesRebuild) {
  Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  // A second fast grid over the same shape grid that caches all three test
  // wiretypes, kept current by the same change notifications.
  FastGrid fast3(chip.tech, rs.tg(), rs.checker(), /*max_cached=*/3);
  fast3.rebuild();
  Rng rng(GetParam());
  std::vector<Shape> shapes;
  for (int i = 0; i < 32; ++i) {
    const Coord x = rng.range(200, 3400);
    const Coord y = rng.range(200, 3400);
    if (rng.flip(0.25)) {
      shapes.push_back(Shape{Rect{x, y, x + rng.range(30, 120),
                                  y + rng.range(30, 120)},
                             global_of_via(static_cast<int>(rng.range(0, 2))),
                             ShapeKind::kViaCut, 0,
                             static_cast<int>(rng.range(0, 5))});
      continue;
    }
    const int layer = static_cast<int>(rng.range(0, 3));
    const auto kind = rng.flip(0.2) ? ShapeKind::kJog : ShapeKind::kWire;
    shapes.push_back(Shape{Rect{x, y, x + rng.range(30, 600),
                                y + rng.range(30, 90)},
                           global_of_wiring(layer), kind, 0,
                           static_cast<int>(rng.range(0, 5))});
  }
  // Batches of 1-4 shapes: on_change_all clusters each batch's rects per
  // layer and refreshes each cluster once.
  auto batches = [&](std::span<const Shape> all, auto&& apply) {
    for (std::size_t i = 0; i < all.size();) {
      const std::size_t n =
          std::min<std::size_t>(all.size() - i, 1 + rng.below(4));
      apply(all.subspan(i, n));
      i += n;
    }
  };
  batches(shapes, [&](std::span<const Shape> b) {
    rs.insert_shapes(b, kStandard);
    fast3.on_change_all(b);
  });
  Rng rng2(GetParam() + 1);
  std::shuffle(shapes.begin(), shapes.end(), rng2);
  batches(std::span<const Shape>(shapes).first(12),
          [&](std::span<const Shape> b) {
            rs.remove_shapes(b, kStandard);
            fast3.on_change_all(b);
          });
  expect_oracle_words_before_and_after_rebuild(rs, fast3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastGridIncremental,
                         ::testing::Values(11, 22, 33, 44));

/// Incremental == oracle on same-key unions: overlapping pairs of shapes of
/// one key (net, kind, class, rule width) whose union is an L, a T or a
/// staircase, so the checker's merge joins cell pieces of different shapes
/// and the merged rects depend on which pieces a query window holds.  A
/// pair is pins of one net or blockages, both at kFixed, or one net's wires
/// at kStandard.
class FastGridUnions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastGridUnions, SameKeyUnionsMatchOracle) {
  Chip chip = make_tiny_chip(4);
  RoutingSpace rs(chip);
  FastGrid fast3(chip.tech, rs.tg(), rs.checker(), /*max_cached=*/3);
  fast3.rebuild();
  Rng rng(GetParam());
  // One overlapping pair of rule width rw at (x, y): a bar of length a, and
  // a bar of length b that crosses its end (L), its middle (T) or overlaps
  // its end shifted sideways (staircase); mirrored onto the other axis when
  // `transpose`.
  auto pair = [&](int layer, ShapeKind kind, int net) {
    const Coord rw = rng.flip(0.5) ? 60 : 130;
    const Coord a = rng.range(3 * rw + 50, 900);
    const Coord b = rng.range(rw + 100, 700);
    const Coord x = rng.range(300, 2800);
    const Coord y = rng.range(300, 2800);
    Rect first{0, 0, a, rw};
    Rect second;
    switch (rng.below(3)) {
      case 0:  // L: the second bar rises from the first one's left end
        second = {0, 0, rw, b};
        break;
      case 1: {  // T: the second bar hangs from the first one's middle
        const Coord c = rng.range(rw, a - 2 * rw);
        second = {c, rw - b, c + rw, rw};
        break;
      }
      default: {  // staircase: overlapping, shifted along and across
        const Coord d = rng.range(20, a - 20);
        const Coord e = rng.range(10, rw - 10);
        second = {a - d, e, a - d + b, e + rw};
        break;
      }
    }
    const bool transpose = rng.flip(0.5);
    std::vector<Shape> out;
    for (const Rect& r : {first, second}) {
      const Rect t = transpose ? Rect{r.ylo, r.xlo, r.yhi, r.xhi} : r;
      out.push_back(Shape{t.translated(x, y), global_of_wiring(layer), kind,
                          0, net});
    }
    return out;
  };
  struct Keyed {
    Shape shape;
    RipupLevel level;
  };
  std::vector<Keyed> all;
  for (int i = 0; i < 16; ++i) {
    ShapeKind kind = ShapeKind::kWire;
    int net = 7;
    RipupLevel level = kStandard;
    switch (rng.below(3)) {
      case 0:
        kind = ShapeKind::kPin;
        net = 3;
        level = kFixed;
        break;
      case 1:
        kind = ShapeKind::kBlockage;
        net = -1;
        level = kFixed;
        break;
      default:
        break;
    }
    const int layer = static_cast<int>(rng.range(0, 3));
    for (const Shape& s : pair(layer, kind, net)) all.push_back({s, level});
  }
  // Shuffled into batches of 1-4 shapes, so the two halves of a union
  // usually change in different refreshes.  A batch is one insert_shapes
  // (remove_shapes) call per rip-up level and one refresh of fast3.
  auto batches = [&](std::span<const Keyed> list, bool insert) {
    for (std::size_t i = 0; i < list.size();) {
      const std::size_t n =
          std::min<std::size_t>(list.size() - i, 1 + rng.below(4));
      std::vector<Shape> changed;
      for (const RipupLevel level : {kFixed, kStandard}) {
        std::vector<Shape> part;
        for (const Keyed& k : list.subspan(i, n)) {
          if (k.level == level) part.push_back(k.shape);
        }
        if (insert) {
          rs.insert_shapes(part, level);
        } else {
          rs.remove_shapes(part, level);
        }
        changed.insert(changed.end(), part.begin(), part.end());
      }
      fast3.on_change_all(changed);
      i += n;
    }
  };
  std::shuffle(all.begin(), all.end(), rng);
  batches(all, /*insert=*/true);
  std::shuffle(all.begin(), all.end(), rng);
  batches(std::span<const Keyed>(all).first(all.size() / 2),
          /*insert=*/false);
  expect_oracle_words_before_and_after_rebuild(rs, fast3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastGridUnions,
                         ::testing::Range<std::uint64_t>(1, 41));

// ----------------------------------------------------------- checker -----
class ForbiddenRunsDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForbiddenRunsDifferential, MatchesPointChecks) {
  const Tech tech = Tech::make_test(4);
  ShapeGrid grid(tech, {0, 0, 8000, 8000});
  DrcChecker checker(tech, grid);
  Rng rng(GetParam());
  for (int i = 0; i < 8; ++i) {
    const Coord x = rng.range(0, 3500);
    const Coord y = rng.range(800, 1400);
    grid.insert(Shape{Rect{x, y, x + rng.range(50, 800),
                           y + rng.range(40, 120)},
                      global_of_wiring(0), ShapeKind::kWire, 0,
                      static_cast<int>(rng.range(1, 4))},
                kStandard);
  }
  const WireModel& model = tech.wire_model(0, 0, true);
  const Coord cross = rng.range(900, 1300);
  const Interval bound{0, 4000};
  const auto runs =
      checker.forbidden_runs(global_of_wiring(0), model, true, cross, bound,
                             -3, ShapeKind::kWire, /*swept=*/false);
  auto forbidden_at = [&](Coord c) {
    for (const ForbiddenRun& r : runs) {
      if (r.along.contains(c)) return true;
    }
    return false;
  };
  for (Coord c = bound.lo; c <= bound.hi; c += 53) {
    Shape cand;
    cand.rect = model.shape({c, cross});
    cand.global_layer = global_of_wiring(0);
    cand.kind = ShapeKind::kWire;
    cand.net = -3;
    EXPECT_EQ(!checker.check_shape(cand).allowed, forbidden_at(c))
        << "at " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForbiddenRunsDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------- tau paths --
class TauFeasibility : public ::testing::TestWithParam<Coord> {};

TEST_P(TauFeasibility, AllSegmentsRespectTau) {
  const Coord tau = GetParam();
  Rng rng(tau * 7 + 5);
  for (int scene = 0; scene < 6; ++scene) {
    std::vector<Rect> obs;
    for (int i = 0; i < 5; ++i) {
      const Coord x = rng.range(150, 1500);
      const Coord y = rng.range(150, 1500);
      obs.push_back(
          {x, y, x + rng.range(80, 400), y + rng.range(80, 400)});
    }
    TauLayer layer{obs, tau, Dir::kHorizontal};
    TauPathSearch search({0, 0, 2000, 2000}, {layer}, 400);
    const PointL src{40, 40, 0};
    const std::vector<PointL> tgt{{1960, 1960, 0}};
    const auto r = search.shortest(src, tgt);
    if (!r) continue;  // scene may wall the corner in
    for (std::size_t i = 1; i < r->points.size(); ++i) {
      if (r->points[i - 1].layer != r->points[i].layer) continue;
      const Coord seg = l1_dist(r->points[i - 1].pt(), r->points[i].pt());
      EXPECT_GE(seg, tau) << "segment " << i << " scene " << scene;
      // Obstacle avoidance.
      const Rect sr =
          Rect::from_points(r->points[i - 1].pt(), r->points[i].pt());
      for (const Rect& o : obs) {
        EXPECT_FALSE(sr.overlaps_interior(o));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, TauFeasibility,
                         ::testing::Values(1, 40, 75, 100, 150, 250));

// -------------------------------------------------------------- trackopt --
class TrackOptOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackOptOptimality, BeatsAllUniformOffsets) {
  Rng rng(GetParam());
  std::vector<Rect> usable;
  for (int i = 0; i < 6; ++i) {
    const Coord y = rng.range(0, 560);
    usable.push_back({0, y, rng.range(100, 900), y + rng.range(10, 90)});
  }
  const Interval span{0, 600};
  const Coord pitch = 100;
  const auto res = optimize_tracks(span, usable, Dir::kHorizontal, pitch);
  const auto value = usable_track_length(res.tracks, usable, Dir::kHorizontal);
  for (Coord off = 0; off < pitch; off += 3) {
    std::vector<Coord> uniform;
    for (Coord c = span.lo + off; c <= span.hi; c += pitch) {
      uniform.push_back(c);
    }
    EXPECT_GE(value, usable_track_length(uniform, usable, Dir::kHorizontal))
        << "offset " << off;
  }
  // Pitch constraint.
  for (std::size_t i = 1; i < res.tracks.size(); ++i) {
    EXPECT_GE(res.tracks[i] - res.tracks[i - 1], pitch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackOptOptimality,
                         ::testing::Values(3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------------------------------ shape grid --
class ShapeGridRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShapeGridRoundTrip, InsertRemoveLeavesEmpty) {
  const Tech tech = Tech::make_test(4);
  ShapeGrid grid(tech, {0, 0, 6000, 6000});
  Rng rng(GetParam());
  std::vector<Shape> shapes;
  for (int i = 0; i < 120; ++i) {
    const Coord x = rng.range(0, 5200);
    const Coord y = rng.range(0, 5200);
    const int g = static_cast<int>(rng.range(0, 6));  // wiring + via layers
    const auto kind = is_wiring(g) ? ShapeKind::kWire : ShapeKind::kViaCut;
    shapes.push_back(Shape{Rect{x, y, x + rng.range(10, 700),
                                y + rng.range(10, 300)},
                           g, kind, static_cast<ShapeClass>(rng.range(0, 1)),
                           static_cast<int>(rng.range(0, 30))});
  }
  for (const Shape& s : shapes) grid.insert(s, kStandard);
  EXPECT_GT(grid.interval_count(), 0u);
  Rng rng2(GetParam() ^ 0xabc);
  std::shuffle(shapes.begin(), shapes.end(), rng2);
  for (const Shape& s : shapes) grid.remove(s, kStandard);
  for (int g = 0; g < 7; ++g) {
    EXPECT_TRUE(grid.region_empty(g, {0, 0, 6000, 6000})) << "layer " << g;
  }
  EXPECT_EQ(grid.interval_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeGridRoundTrip,
                         ::testing::Values(7, 14, 21, 28, 35));

// ------------------------------------------------------------ stacked via --
class StackedViaMonotone : public ::testing::TestWithParam<int> {};

TEST_P(StackedViaMonotone, OccupancyMonotoneInK) {
  StackedViaModel m;
  m.footprint = GetParam();
  double prev = 0;
  for (int k = 1; k <= 6; ++k) {
    const double occ = expected_column_occupancy(m, k);
    EXPECT_GE(occ, prev - 1e-9) << "k=" << k;
    EXPECT_LE(occ, static_cast<double>(m.lattice_rows));
    prev = occ;
  }
  EXPECT_GT(stacked_via_capacity_factor(m, 3), 0.0);
  EXPECT_LT(stacked_via_capacity_factor(m, 3), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Footprints, StackedViaMonotone,
                         ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------------ rsmt --
class RsmtBoundsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RsmtBoundsSweep, SteinerBetweenHalfHpwlAndMst) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<Point> pts;
    const int n = static_cast<int>(rng.range(2, 12));
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.range(0, 2000), rng.range(0, 2000)});
    }
    const Coord s = rsmt_length(pts);
    EXPECT_LE(s, l1_mst_length(pts));
    EXPECT_GE(2 * s, hpwl(pts));
    // Translation invariance.
    std::vector<Point> moved;
    for (const Point& p : pts) moved.push_back({p.x + 777, p.y - 333});
    EXPECT_EQ(rsmt_length(moved), s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsmtBoundsSweep,
                         ::testing::Values(111, 222, 333));

}  // namespace
}  // namespace bonn
