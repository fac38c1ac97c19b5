// Geometry substrate tests: intervals, rects, interval maps, rect unions,
// Steiner heuristics.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/geom/interval.hpp"
#include "src/geom/interval_map.hpp"
#include "src/geom/rect.hpp"
#include "src/geom/rect_union.hpp"
#include "src/geom/rsmt.hpp"
#include "src/util/rng.hpp"

namespace bonn {
namespace {

TEST(Interval, BasicOps) {
  const Interval a{0, 10};
  const Interval b{5, 20};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.intersection(b), (Interval{5, 10}));
  EXPECT_EQ(a.hull(b), (Interval{0, 20}));
  EXPECT_EQ(a.length(), 10);
  EXPECT_EQ(a.count(), 11);
  EXPECT_TRUE(Interval{}.empty());
  EXPECT_EQ(a.dist(Interval{15, 20}), 5);
  EXPECT_EQ(a.dist(b), 0);
  EXPECT_EQ(a.dist(-7), 7);
  EXPECT_EQ(a.dist(13), 3);
}

TEST(Interval, TouchesAndRunLength) {
  EXPECT_TRUE((Interval{0, 5}).touches(Interval{6, 9}));
  EXPECT_FALSE((Interval{0, 5}).touches(Interval{7, 9}));
  EXPECT_EQ(run_length({0, 10}, {5, 30}), 5);
  EXPECT_EQ(run_length({0, 10}, {20, 30}), -10);  // gap => negative
}

TEST(Rect, BasicOps) {
  const Rect r{0, 0, 100, 50};
  EXPECT_EQ(r.area(), 5000);
  EXPECT_EQ(r.rule_width(), 50);
  EXPECT_TRUE(r.contains(Point{50, 25}));
  EXPECT_FALSE(r.contains(Point{50, 60}));
  EXPECT_EQ(r.expanded(10), (Rect{-10, -10, 110, 60}));
  EXPECT_EQ(r.expanded_along(Dir::kHorizontal, 5), (Rect{-5, 0, 105, 50}));
  EXPECT_EQ(r.minkowski(Rect{-5, -5, 5, 5}), (Rect{-5, -5, 105, 55}));
}

TEST(Rect, Distances) {
  const Rect a{0, 0, 10, 10};
  const Rect b{20, 0, 30, 10};   // axis gap 10
  const Rect c{20, 20, 30, 30};  // diagonal gap (10, 10)
  EXPECT_EQ(a.x_gap(b), 10);
  EXPECT_EQ(a.y_gap(b), 0);
  EXPECT_EQ(a.l2_dist_sq(b), 100);
  EXPECT_EQ(a.l2_dist_sq(c), 200);
  EXPECT_EQ(a.l1_dist(Point{15, 15}), 10);
}

TEST(IntervalMap, AssignAndQuery) {
  IntervalMap<int> m(0);
  m.assign(10, 20, 5);
  EXPECT_EQ(m.at(9), 0);
  EXPECT_EQ(m.at(10), 5);
  EXPECT_EQ(m.at(19), 5);
  EXPECT_EQ(m.at(20), 0);
  m.assign(15, 30, 7);
  EXPECT_EQ(m.at(14), 5);
  EXPECT_EQ(m.at(15), 7);
  EXPECT_EQ(m.at(29), 7);
  EXPECT_EQ(m.at(30), 0);
}

TEST(IntervalMap, Coalescing) {
  IntervalMap<int> m(0);
  m.assign(0, 10, 1);
  m.assign(10, 20, 1);
  EXPECT_EQ(m.breakpoint_count(), 2u);  // one start, one end
  m.assign(5, 15, 1);                   // no-op
  EXPECT_EQ(m.breakpoint_count(), 2u);
  m.assign(0, 20, 0);  // back to default everywhere
  EXPECT_EQ(m.breakpoint_count(), 0u);
}

/// Property: IntervalMap agrees with a naive dense reference under random
/// assigns and bulk writes, and stays canonical.
TEST(IntervalMap, MatchesNaiveReference) {
  Rng rng(123);
  IntervalMap<int> m(-1);
  std::map<Coord, int> naive;  // position -> value over [0, 200)
  for (Coord i = 0; i < 200; ++i) naive[i] = -1;
  for (int step = 0; step < 1000; ++step) {
    const Coord lo = rng.range(0, 199);
    const Coord hi = rng.range(lo, 200);
    if (rng.flip(0.5)) {
      const int v = static_cast<int>(rng.range(-1, 4));
      m.assign(lo, hi, v);
      for (Coord i = lo; i < hi; ++i) naive[i] = v;
    } else {
      // Runs of equal values, some equal to their neighbours outside the
      // window, so the splice must coalesce on both ends.
      std::vector<int> vals;
      for (Coord i = lo; i < hi; ++i) {
        vals.push_back(!vals.empty() && rng.flip(0.6)
                           ? vals.back()
                           : static_cast<int>(rng.range(-1, 4)));
      }
      m.assign_dense(lo, vals);
      for (Coord i = lo; i < hi; ++i)
        naive[i] = vals[static_cast<std::size_t>(i - lo)];
    }
    ASSERT_TRUE(m.check_coalesced()) << "step " << step;
    if (step % 50 == 0) {
      for (Coord i = 0; i < 200; ++i) {
        ASSERT_EQ(m.at(i), naive[i]) << "pos " << i << " step " << step;
      }
    }
  }
  // for_each must cover the window exactly once with correct values.
  Coord covered = 0;
  m.for_each(0, 200, [&](Coord lo, Coord hi, const int& v) {
    covered += hi - lo;
    for (Coord i = lo; i < hi; ++i) ASSERT_EQ(naive[i], v);
  });
  EXPECT_EQ(covered, 200);
}

TEST(RectUnion, AreaBasics) {
  std::vector<Rect> rs{{0, 0, 10, 10}, {5, 5, 15, 15}};
  EXPECT_EQ(union_area(rs), 100 + 100 - 25);
  rs.push_back({100, 100, 110, 110});
  EXPECT_EQ(union_area(rs), 175 + 100);
  EXPECT_EQ(union_area(std::vector<Rect>{}), 0);
}

/// Property: union area by sweep equals Monte-Carlo-free exact raster count
/// on small coordinates.
TEST(RectUnion, AreaMatchesRaster) {
  Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Rect> rs;
    for (int i = 0; i < 6; ++i) {
      const Coord x = rng.range(0, 20), y = rng.range(0, 20);
      rs.push_back({x, y, x + rng.range(1, 10), y + rng.range(1, 10)});
    }
    std::int64_t raster = 0;
    for (Coord x = 0; x < 32; ++x) {
      for (Coord y = 0; y < 32; ++y) {
        for (const Rect& r : rs) {
          if (r.xlo <= x && x < r.xhi && r.ylo <= y && y < r.yhi) {
            ++raster;
            break;
          }
        }
      }
    }
    EXPECT_EQ(union_area(rs), raster) << "iter " << iter;
  }
}

TEST(RectUnion, ConnectedComponents) {
  std::vector<Rect> rs{{0, 0, 10, 10}, {10, 0, 20, 10}, {50, 50, 60, 60}};
  const auto comps = connected_components(rs);
  EXPECT_EQ(comps.size(), 2u);  // touching rects merge
}

TEST(RectUnion, BoundaryOfSquare) {
  std::vector<Rect> rs{{0, 0, 10, 10}};
  const auto edges = union_boundary(rs);
  ASSERT_EQ(edges.size(), 4u);
  Coord total = 0;
  for (const auto& e : edges) total += e.length();
  EXPECT_EQ(total, 40);
}

TEST(RectUnion, BoundaryOfLShape) {
  std::vector<Rect> rs{{0, 0, 20, 10}, {0, 10, 10, 20}};
  const auto edges = union_boundary(rs);
  Coord total = 0;
  for (const auto& e : edges) total += e.length();
  EXPECT_EQ(total, 80);  // L-shape perimeter
}

TEST(Rsmt, SmallExact) {
  std::vector<Point> two{{0, 0}, {30, 40}};
  EXPECT_EQ(rsmt_length(two), 70);
  std::vector<Point> three{{0, 0}, {10, 0}, {5, 8}};
  EXPECT_EQ(rsmt_length(three), 18);  // median point connection
  // Four corners of a square: RSMT = 3 * side via two Steiner points? For a
  // 10x10 square the optimum is 30 (H-tree like), MST is 30 as well.
  std::vector<Point> corners{{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  EXPECT_EQ(rsmt_length(corners), 30);
}

/// Properties: hpwl <= rsmt <= mst for random point sets, and the 1-Steiner
/// heuristic never exceeds the MST.
TEST(Rsmt, Bounds) {
  Rng rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Point> pts;
    const int n = static_cast<int>(rng.range(2, 9));
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.range(0, 1000), rng.range(0, 1000)});
    }
    const Coord h = hpwl(pts);
    const Coord s = rsmt_length(pts);
    const Coord m = l1_mst_length(pts);
    EXPECT_LE(h, s * 2);  // hpwl <= 2 * steiner always; usually hpwl <= s
    EXPECT_LE(s, m);
    EXPECT_GE(s, (h + 1) / 2);
  }
}

}  // namespace
}  // namespace bonn
