// Blockage grid (Algorithm 3) and τ-feasible path search tests (§3.8).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>

#include "src/blockagegrid/blockage_grid.hpp"
#include "src/blockagegrid/tau_path.hpp"
#include "src/util/rng.hpp"

namespace bonn {
namespace {

TEST(BlockageGridCoords, ContainsBaseAndTauShifts) {
  const auto coords =
      blockage_grid_coords({100, 150, 900}, /*tau=*/50, {0, 1000});
  // Base coordinates present.
  for (Coord b : {100, 150, 900}) {
    EXPECT_NE(std::find(coords.begin(), coords.end(), b), coords.end());
  }
  // τ-shifted copies within the cluster padding.
  EXPECT_NE(std::find(coords.begin(), coords.end(), Coord{200}), coords.end());
  EXPECT_NE(std::find(coords.begin(), coords.end(), Coord{50}), coords.end());
  // 100 and 150 cluster (gap 50 < 4τ=200); padding is 2τ=100, so 300 is not
  // generated from that cluster; 900's cluster spans [800, 1000].
  EXPECT_NE(std::find(coords.begin(), coords.end(), Coord{800}), coords.end());
  EXPECT_NE(std::find(coords.begin(), coords.end(), Coord{1000}), coords.end());
  // Far-outside coordinates are not generated.
  EXPECT_EQ(std::find(coords.begin(), coords.end(), Coord{500}), coords.end());
  // Sorted unique.
  EXPECT_TRUE(std::is_sorted(coords.begin(), coords.end()));
  EXPECT_EQ(std::adjacent_find(coords.begin(), coords.end()), coords.end());
}

TEST(BlockageGridCoords, BoundedSize) {
  // Dense cluster of n coords: grid stays O(width/τ + n), not unbounded.
  std::vector<Coord> base;
  for (int i = 0; i < 50; ++i) base.push_back(i * 30);
  const auto coords = blockage_grid_coords(base, 40, {0, 5000});
  EXPECT_LE(coords.size(), 300u);
}

TEST(BlockageGrid, BuildFromObstacles) {
  const std::vector<Rect> obs{{200, 200, 400, 300}};
  const std::vector<Point> anchors{{50, 50}, {600, 600}};
  const auto grid = BlockageGrid::build({0, 0, 700, 700}, obs, anchors, 60);
  EXPECT_GT(grid.xs.size(), 4u);
  EXPECT_GT(grid.ys.size(), 4u);
  EXPECT_GT(grid.vertex_count(), 16u);
}

class TauPathTest : public ::testing::Test {
 protected:
  static std::vector<TauLayer> one_layer(std::vector<Rect> obs, Coord tau) {
    TauLayer l;
    l.obstacles = std::move(obs);
    l.tau = tau;
    l.pref = Dir::kHorizontal;
    return {l};
  }
};

TEST_F(TauPathTest, StraightLine) {
  TauPathSearch search({0, 0, 1000, 1000}, one_layer({}, 100), 400);
  const PointL src{100, 500, 0};
  const std::vector<PointL> tgt{{900, 500, 0}};
  const auto r = search.shortest(src, tgt);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length, 800);
  EXPECT_EQ(r->points.size(), 2u);
}

TEST_F(TauPathTest, DetourAroundObstacle) {
  // Wall between source and target.
  TauPathSearch search({0, 0, 1000, 1000},
                       one_layer({{450, 0, 550, 800}}, 100), 400);
  const PointL src{100, 400, 0};
  const std::vector<PointL> tgt{{900, 400, 0}};
  const auto r = search.shortest(src, tgt);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->length, 800);  // must detour over the wall
  // Verify τ-feasibility: every segment >= 100.
  for (std::size_t i = 1; i < r->points.size(); ++i) {
    const Coord seg = l1_dist(r->points[i - 1].pt(), r->points[i].pt());
    EXPECT_GE(seg, 100) << "segment " << i;
  }
  // And obstacle avoidance.
  for (std::size_t i = 1; i < r->points.size(); ++i) {
    const Rect seg = Rect::from_points(r->points[i - 1].pt(), r->points[i].pt());
    EXPECT_FALSE(seg.overlaps_interior(Rect{450, 0, 550, 800}));
  }
}

TEST_F(TauPathTest, MinSegmentForcesLongerPath) {
  // Fig. 5 scenario: with τ = 0 a staircase is shortest; with large τ the
  // path must use fewer, longer segments — never shorter than τ each.
  const std::vector<Rect> obs{{300, 0, 400, 450}, {500, 550, 600, 1000}};
  TauPathSearch tiny({0, 0, 1000, 1000}, one_layer(obs, 1), 400);
  TauPathSearch big({0, 0, 1000, 1000}, one_layer(obs, 200), 400);
  const PointL src{100, 200, 0};
  const std::vector<PointL> tgt{{900, 800, 0}};
  const auto r1 = tiny.shortest(src, tgt);
  const auto r2 = big.shortest(src, tgt);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_LE(r1->length, r2->length);
  for (std::size_t i = 1; i < r2->points.size(); ++i) {
    EXPECT_GE(l1_dist(r2->points[i - 1].pt(), r2->points[i].pt()), 200);
  }
}

TEST_F(TauPathTest, ViaToSecondLayer) {
  TauLayer l0;
  l0.tau = 100;
  l0.pref = Dir::kHorizontal;
  l0.obstacles = {{200, 0, 300, 1000}};  // full wall on layer 0
  TauLayer l1;
  l1.tau = 100;
  l1.pref = Dir::kVertical;
  TauPathSearch search({0, 0, 1000, 1000}, {l0, l1}, 400);
  const PointL src{100, 500, 0};
  const std::vector<PointL> tgt{{900, 500, 0}};
  const auto r = search.shortest(src, tgt);
  ASSERT_TRUE(r.has_value());
  // Must hop to layer 1 to cross the wall (cost includes 2 vias) or stay if
  // target reachable; wall is full-height so vias are required.
  bool uses_layer1 = false;
  for (const PointL& p : r->points) uses_layer1 |= p.layer == 1;
  EXPECT_TRUE(uses_layer1);
}

TEST_F(TauPathTest, AllPathsReturnsMultipleTargets) {
  TauPathSearch search({0, 0, 1000, 1000}, one_layer({}, 100), 400);
  const PointL src{500, 500, 0};
  const std::vector<PointL> tgt{{200, 500, 0}, {800, 500, 0}, {500, 200, 0}};
  const auto rs = search.all_paths(src, tgt, 8);
  EXPECT_EQ(rs.size(), 3u);
  // Cheapest first.
  for (std::size_t i = 1; i < rs.size(); ++i) {
    EXPECT_LE(rs[i - 1].cost, rs[i].cost);
  }
}

TEST_F(TauPathTest, NoPathWhenWalledIn) {
  // Source fully enclosed by obstacles.
  const std::vector<Rect> obs{{0, 0, 1000, 400},
                              {0, 600, 1000, 1000},
                              {0, 400, 400, 600},
                              {600, 400, 1000, 600}};
  TauPathSearch search({0, 0, 1000, 1000}, one_layer(obs, 100), 400);
  const PointL src{500, 500, 0};
  const std::vector<PointL> tgt{{50, 50, 0}};
  EXPECT_FALSE(search.shortest(src, tgt).has_value());
}

TEST_F(TauPathTest, DegenerateObstaclesBlockNothing) {
  // A rect without an open interior (zero width, zero height, or inverted)
  // has nothing a centreline could pass through, so it blocks no arc.  The
  // reference scan below disagrees on such rects (it blocks a segment
  // straddling a zero-width line), so the rule is pinned here instead of
  // compared; no flow builds one, since every obstacle is grown by wire
  // half-width plus spacing.
  const std::vector<Rect> degenerate{{500, 0, 500, 1000},   // zero width
                                     {0, 300, 1000, 300},   // zero height
                                     {650, 0, 640, 1000}};  // inverted
  TauPathSearch search({0, 0, 1000, 1000}, one_layer(degenerate, 100), 400);
  const PointL src{100, 500, 0};
  const std::vector<PointL> tgt{{900, 500, 0}};
  const auto r = search.shortest(src, tgt);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length, 800);
  EXPECT_EQ(r->points.size(), 2u);

  const BlockageGrid grid = BlockageGrid::build(
      {0, 0, 1000, 1000}, degenerate, std::vector<Point>{{100, 500}}, 100);
  const BlockageTable table(grid, degenerate, 100);
  const int nx = static_cast<int>(grid.xs.size());
  const int ny = static_cast<int>(grid.ys.size());
  for (int yi = 0; yi < ny; ++yi) EXPECT_TRUE(table.row_free(yi, 0, nx - 1));
  for (int xi = 0; xi < nx; ++xi) {
    EXPECT_TRUE(table.column_free(xi, 0, ny - 1));
    for (int yi = 0; yi < ny; ++yi) EXPECT_TRUE(table.vertex_free(xi, yi));
  }
}

TEST_F(TauPathTest, RejectsCostsTheHeapKeyCannotHold) {
  // Every arc must cost less than 2^31 (the heap key's distance half
  // orders keys by their difference), and Dijkstra needs costs >= 0.
  const Coord max_arc = (Coord{1} << 31) - 1;
  EXPECT_NO_THROW(
      TauPathSearch({0, 0, max_arc / 250, 10}, one_layer({}, 1), max_arc));
  EXPECT_THROW(TauPathSearch({0, 0, max_arc / 250 + 1, 10}, one_layer({}, 1),
                             400),
               std::logic_error);
  EXPECT_THROW(
      TauPathSearch({0, 0, 10, max_arc / 400 + 1}, one_layer({}, 1), 400, 400),
      std::logic_error);
  EXPECT_THROW(TauPathSearch({0, 0, 10, 10}, one_layer({}, 1), max_arc + 1),
               std::logic_error);
  EXPECT_THROW(TauPathSearch({0, 0, 10, 10}, one_layer({}, 1), -1),
               std::logic_error);
  EXPECT_THROW(TauPathSearch({0, 0, 10, 10}, one_layer({}, 1), 400, -1),
               std::logic_error);
}

TEST_F(TauPathTest, SourceOnMissingLayerFindsNothing) {
  // A source on a layer the search does not have (L or -1) finds nothing,
  // as a target there does: no path and no callback.
  TauLayer upper;
  upper.tau = 100;
  upper.pref = Dir::kVertical;
  for (int num_layers : {1, 2}) {
    SCOPED_TRACE(std::to_string(num_layers) + " layers");
    std::vector<TauLayer> layers = one_layer({}, 100);
    if (num_layers == 2) layers.push_back(upper);
    const TauPathSearch search({0, 0, 1000, 1000}, layers, 400);
    const std::vector<PointL> tgt{{900, 500, 0}, {500, 900, num_layers - 1}};
    ASSERT_EQ(search.all_paths({100, 500, 0}, tgt, 8).size(), 2u);
    for (int layer : {num_layers, -1}) {
      SCOPED_TRACE("source layer " + std::to_string(layer));
      const PointL src{100, 500, layer};
      EXPECT_TRUE(search.all_paths(src, tgt, 8).empty());
      EXPECT_FALSE(search.shortest(src, tgt).has_value());
      int calls = 0;
      EXPECT_EQ(search.each_path(src, tgt, 8,
                                 [&](TauPathResult&&) {
                                   ++calls;
                                   return true;
                                 }),
                0u);
      EXPECT_EQ(calls, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential test.  ReferenceSearch is the τ-path search as it was before
// the blockage tables: every arc test scans all obstacles of the layer and
// every bend walks the axis.  Its members and bodies are kept verbatim; the
// tables must reproduce its output exactly on every scene whose obstacles
// have an open interior.

constexpr Coord kInf = std::numeric_limits<Coord>::max() / 4;

/// Directions a segment can be travelling in; kFresh = no segment yet
/// (source, or just after a via).
enum : int { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3, kFresh = 4 };

class ReferenceSearch {
 public:
  ReferenceSearch(const Rect& area, std::vector<TauLayer> layers,
                  Coord via_cost, int nonpref_penalty_pct)
      : area_(area),
        layers_(std::move(layers)),
        via_cost_(via_cost),
        nonpref_pct_(nonpref_penalty_pct) {}

  std::vector<TauPathResult> all_paths(const PointL& source,
                                       std::span<const PointL> targets,
                                       std::size_t max_results) const {
    std::vector<TauPathResult> out;
    run(source, targets, max_results, out);
    return out;
  }

  bool segment_free(int layer, const Point& a, const Point& b) const;
  bool point_free(int layer, const Point& p) const;

 private:
  void run(const PointL& source, std::span<const PointL> targets,
           std::size_t max_results, std::vector<TauPathResult>& out) const;

  Rect area_;
  std::vector<TauLayer> layers_;
  Coord via_cost_;
  int nonpref_pct_;
};

bool ReferenceSearch::point_free(int layer, const Point& p) const {
  for (const Rect& o : layers_[static_cast<std::size_t>(layer)].obstacles) {
    if (o.xlo < p.x && p.x < o.xhi && o.ylo < p.y && p.y < o.yhi) return false;
  }
  return true;
}

bool ReferenceSearch::segment_free(int layer, const Point& a,
                                 const Point& b) const {
  const Interval xi{std::min(a.x, b.x), std::max(a.x, b.x)};
  const Interval yi{std::min(a.y, b.y), std::max(a.y, b.y)};
  for (const Rect& o : layers_[static_cast<std::size_t>(layer)].obstacles) {
    // The zero-width centreline is blocked iff it passes through the
    // obstacle's open interior.
    const bool x_hit = (xi.lo == xi.hi) ? (o.xlo < xi.lo && xi.lo < o.xhi)
                                        : (o.xlo < xi.hi && xi.lo < o.xhi);
    const bool y_hit = (yi.lo == yi.hi) ? (o.ylo < yi.lo && yi.lo < o.yhi)
                                        : (o.ylo < yi.hi && yi.lo < o.yhi);
    if (x_hit && y_hit) return false;
  }
  return true;
}

void ReferenceSearch::run(const PointL& source, std::span<const PointL> targets,
                        std::size_t max_results,
                        std::vector<TauPathResult>& out) const {
  out.clear();
  if (!area_.contains(source.pt())) return;

  // Build the blockage grid with source/targets as anchors.  τ of the grid
  // is the max over layers (denser grids remain correct for smaller τ).
  Coord tau = 1;
  for (const TauLayer& l : layers_) tau = std::max(tau, l.tau);
  std::vector<Point> anchors{source.pt()};
  for (const PointL& t : targets) anchors.push_back(t.pt());
  std::vector<Rect> all_obs;
  for (const TauLayer& l : layers_) {
    all_obs.insert(all_obs.end(), l.obstacles.begin(), l.obstacles.end());
  }
  const BlockageGrid grid = BlockageGrid::build(area_, all_obs, anchors, tau);
  const int nx = static_cast<int>(grid.xs.size());
  const int ny = static_cast<int>(grid.ys.size());
  const int L = static_cast<int>(layers_.size());
  if (nx == 0 || ny == 0) return;

  auto x_index = [&](Coord c) {
    auto it = std::lower_bound(grid.xs.begin(), grid.xs.end(), c);
    return (it != grid.xs.end() && *it == c)
               ? static_cast<int>(it - grid.xs.begin())
               : -1;
  };
  auto y_index = [&](Coord c) {
    auto it = std::lower_bound(grid.ys.begin(), grid.ys.end(), c);
    return (it != grid.ys.end() && *it == c)
               ? static_cast<int>(it - grid.ys.begin())
               : -1;
  };
  auto state_id = [&](int l, int xi, int yi, int d) {
    return ((l * ny + yi) * nx + xi) * 5 + d;
  };

  const std::size_t num_states =
      static_cast<std::size_t>(L) * static_cast<std::size_t>(nx) *
      static_cast<std::size_t>(ny) * 5;
  std::vector<Coord> dist(num_states, kInf);
  std::vector<int> parent(num_states, -1);

  auto weight = [&](int layer, bool horizontal_move) {
    const bool pref_move =
        (layers_[static_cast<std::size_t>(layer)].pref == Dir::kHorizontal) ==
        horizontal_move;
    return pref_move ? 100 : nonpref_pct_;
  };

  using QE = std::pair<Coord, int>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;

  const int sx = x_index(source.x);
  const int sy = y_index(source.y);
  if (sx < 0 || sy < 0) return;
  const int s_state = state_id(source.layer, sx, sy, kFresh);
  dist[static_cast<std::size_t>(s_state)] = 0;
  pq.push({0, s_state});

  // Target lookup: (layer, xi, yi) -> target index.
  std::vector<int> target_of(static_cast<std::size_t>(L * nx * ny), -1);
  int wanted = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const int tx = x_index(targets[t].x);
    const int ty = y_index(targets[t].y);
    if (tx < 0 || ty < 0 || targets[t].layer < 0 || targets[t].layer >= L) {
      continue;
    }
    auto& slot = target_of[static_cast<std::size_t>(
        (targets[t].layer * ny + ty) * nx + tx)];
    if (slot < 0) {
      slot = static_cast<int>(t);
      ++wanted;
    }
  }
  std::vector<char> target_done(targets.size(), 0);
  int found = 0;

  auto relax = [&](int from, int to, Coord w) {
    if (dist[static_cast<std::size_t>(to)] >
        dist[static_cast<std::size_t>(from)] + w) {
      dist[static_cast<std::size_t>(to)] =
          dist[static_cast<std::size_t>(from)] + w;
      parent[static_cast<std::size_t>(to)] = from;
      pq.push({dist[static_cast<std::size_t>(to)], to});
    }
  };

  // Nearest grid index at distance >= tau_l in +/- direction along an axis.
  auto jump_index = [&](const std::vector<Coord>& axis, int i, int step,
                        Coord min_d) {
    int j = i + step;
    while (j >= 0 && j < static_cast<int>(axis.size())) {
      if (abs_diff(axis[static_cast<std::size_t>(j)],
                   axis[static_cast<std::size_t>(i)]) >= min_d) {
        return j;
      }
      j += step;
    }
    return -1;
  };

  auto settle_target = [&](int state, int l, int xi, int yi) {
    const int t = target_of[static_cast<std::size_t>((l * ny + yi) * nx + xi)];
    if (t < 0 || target_done[static_cast<std::size_t>(t)]) return;
    target_done[static_cast<std::size_t>(t)] = 1;
    ++found;
    // Reconstruct.
    TauPathResult r;
    r.target_index = t;
    r.cost = dist[static_cast<std::size_t>(state)];
    std::vector<PointL> pts;
    int cur = state;
    while (cur >= 0) {
      const int d = cur % 5;
      (void)d;
      const int cell = cur / 5;
      const int cxi = cell % nx;
      const int cyi = (cell / nx) % ny;
      const int cl = cell / (nx * ny);
      const PointL p{grid.xs[static_cast<std::size_t>(cxi)],
                     grid.ys[static_cast<std::size_t>(cyi)], cl};
      if (pts.empty() || !(pts.back() == p)) pts.push_back(p);
      cur = parent[static_cast<std::size_t>(cur)];
    }
    std::reverse(pts.begin(), pts.end());
    // Drop collinear interior points on the same layer.
    std::vector<PointL> simp;
    for (const PointL& p : pts) {
      while (simp.size() >= 2) {
        const PointL& a = simp[simp.size() - 2];
        const PointL& b = simp.back();
        const bool collinear = a.layer == b.layer && b.layer == p.layer &&
                               ((a.x == b.x && b.x == p.x) ||
                                (a.y == b.y && b.y == p.y));
        if (!collinear) break;
        simp.pop_back();
      }
      simp.push_back(p);
    }
    for (std::size_t i = 1; i < simp.size(); ++i) {
      r.length += l1_dist(simp[i - 1].pt(), simp[i].pt());
    }
    r.points = std::move(simp);
    out.push_back(std::move(r));
  };

  std::vector<char> settled(num_states, 0);
  while (!pq.empty() && found < wanted &&
         out.size() < max_results) {
    const auto [d_cur, state] = pq.top();
    pq.pop();
    if (settled[static_cast<std::size_t>(state)]) continue;
    settled[static_cast<std::size_t>(state)] = 1;
    const int dir = state % 5;
    const int cell = state / 5;
    const int xi = cell % nx;
    const int yi = (cell / nx) % ny;
    const int l = cell / (nx * ny);
    const Point p{grid.xs[static_cast<std::size_t>(xi)],
                  grid.ys[static_cast<std::size_t>(yi)]};
    settle_target(state, l, xi, yi);

    const Coord tau_l = layers_[static_cast<std::size_t>(l)].tau;

    // Straight continuation (no bend).
    auto straight = [&](int dxi, int dyi, int d) {
      const int nxi = xi + dxi;
      const int nyi = yi + dyi;
      if (nxi < 0 || nxi >= nx || nyi < 0 || nyi >= ny) return;
      const Point q{grid.xs[static_cast<std::size_t>(nxi)],
                    grid.ys[static_cast<std::size_t>(nyi)]};
      if (!segment_free(l, p, q)) return;
      relax(state, state_id(l, nxi, nyi, d),
            l1_dist(p, q) * weight(l, dyi == 0));
    };
    // Turn / fresh start: jump to the nearest vertex at distance >= τ.
    auto turn = [&](int d) {
      int j, nxi = xi, nyi = yi;
      if (d == kEast || d == kWest) {
        j = jump_index(grid.xs, xi, d == kEast ? 1 : -1, tau_l);
        if (j < 0) return;
        nxi = j;
      } else {
        j = jump_index(grid.ys, yi, d == kNorth ? 1 : -1, tau_l);
        if (j < 0) return;
        nyi = j;
      }
      const Point q{grid.xs[static_cast<std::size_t>(nxi)],
                    grid.ys[static_cast<std::size_t>(nyi)]};
      if (!segment_free(l, p, q)) return;
      relax(state, state_id(l, nxi, nyi, d),
            l1_dist(p, q) * weight(l, d == kEast || d == kWest));
    };

    if (dir == kEast || dir == kWest) {
      straight(dir == kEast ? 1 : -1, 0, dir);
      turn(kNorth);
      turn(kSouth);
    } else if (dir == kNorth || dir == kSouth) {
      straight(0, dir == kNorth ? 1 : -1, dir);
      turn(kEast);
      turn(kWest);
    } else {  // kFresh: all four directions, each must run >= τ
      turn(kEast);
      turn(kWest);
      turn(kNorth);
      turn(kSouth);
    }

    // Vias: end the segment; continuation is fresh on the other layer.
    for (int nl : {l - 1, l + 1}) {
      if (nl < 0 || nl >= L) continue;
      if (!point_free(nl, p)) continue;
      relax(state, state_id(nl, xi, yi, kFresh), via_cost_);
    }
  }
}

/// The reference's bend walk (the `jump_index` lambda of its run()).
int reference_jump(const std::vector<Coord>& axis, int i, int step,
                   Coord min_d) {
  int j = i + step;
  while (j >= 0 && j < static_cast<int>(axis.size())) {
    if (abs_diff(axis[static_cast<std::size_t>(j)],
                 axis[static_cast<std::size_t>(i)]) >= min_d) {
      return j;
    }
    j += step;
  }
  return -1;
}

struct Scene {
  Rect area;
  std::vector<TauLayer> layers;
  Coord via_cost = 0;
  int nonpref_pct = 250;
  PointL source;
  std::vector<PointL> targets;
  std::size_t max_results = 1;

  std::vector<Rect> all_obstacles() const {
    std::vector<Rect> all;
    for (const TauLayer& l : layers) {
      all.insert(all.end(), l.obstacles.begin(), l.obstacles.end());
    }
    return all;
  }
  /// The grid the search builds: every layer's obstacles, source and
  /// targets as anchors, τ the largest over the layers.
  BlockageGrid grid() const {
    Coord tau = 1;
    for (const TauLayer& l : layers) tau = std::max(tau, l.tau);
    std::vector<Point> anchors{source.pt()};
    for (const PointL& t : targets) anchors.push_back(t.pt());
    return BlockageGrid::build(area, all_obstacles(), anchors, tau);
  }
  std::size_t states() const {
    return layers.size() * grid().vertex_count() * 5;
  }
};

/// A seeded pin-access-like scene whose coordinates and τ are all multiples
/// of `pitch`, so the grid stays on that lattice instead of growing with
/// every τ-shift.  Bench-sized scenes are two layers of 60 to 120 obstacles
/// on a 20-pitch lattice (a few hundred lines per axis, as in the bench
/// chip's windows); other scenes mix 1 to 4 layers and 0 to 120 obstacles.
Scene lattice_scene(std::uint64_t seed, bool bench_sized, Coord pitch) {
  Rng rng(seed);
  Scene s;
  auto snap = [&](Coord c) { return c - ((c % pitch) + pitch) % pitch; };
  auto side = [&] {
    return snap(bench_sized ? rng.range(3400, 4400) : rng.range(40, 1500)) +
           pitch;
  };
  const Coord w = side();
  const Coord h = side();
  const Coord x0 = snap(rng.range(-3000, 3000));
  const Coord y0 = snap(rng.range(-3000, 3000));
  s.area = {x0, y0, x0 + w, y0 + h};
  auto point_in = [&](const Rect& r) {
    return Point{snap(rng.range(r.xlo, r.xhi)), snap(rng.range(r.ylo, r.yhi))};
  };

  const int num_layers = bench_sized ? 2 : static_cast<int>(rng.range(1, 4));
  for (int l = 0; l < num_layers; ++l) {
    TauLayer tl;
    if (bench_sized) {
      tl.tau = pitch * rng.range(1, 3);
    } else {
      tl.tau = rng.flip(0.1) ? 0 : pitch * rng.range(1, 200 / pitch);
    }
    tl.pref = rng.flip(0.5) ? Dir::kHorizontal : Dir::kVertical;
    s.layers.push_back(std::move(tl));
  }
  s.via_cost = rng.range(0, 1500);
  s.nonpref_pct = std::vector<int>{100, 150, 250, 400}[rng.below(4)];

  // Source: usually inside the area, on a random layer.
  s.source = {0, 0, static_cast<int>(rng.below(num_layers))};
  const Point sp = rng.flip(0.03) ? Point{s.area.xhi + pitch, s.area.ylo}
                                  : point_in(s.area);
  s.source.x = sp.x;
  s.source.y = sp.y;

  // Obstacles: random rects over the area grown by a margin (so some reach
  // past it or lie outside), some with a border through the source or on
  // another obstacle's border (a grid line), some spanning the area, a few
  // containing the source.
  const Rect reach{s.area.xlo - w / 4, s.area.ylo - h / 4, s.area.xhi + w / 4,
                   s.area.yhi + h / 4};
  const int num_obs = static_cast<int>(
      bench_sized ? rng.range(60, 120)
                  : (rng.flip(0.15) ? 0 : rng.range(1, 120)));
  std::vector<Rect> placed;
  for (int i = 0; i < num_obs; ++i) {
    const Point c = point_in(reach);
    const Coord ow = snap(rng.range(pitch, std::max(pitch, w / 4))) + pitch;
    const Coord oh = snap(rng.range(pitch, std::max(pitch, h / 4))) + pitch;
    Rect o{c.x, c.y, c.x + ow, c.y + oh};
    const auto kind = rng.below(10);
    if (kind == 0) {  // a border through the source
      if (rng.flip(0.5)) {
        o.xlo = s.source.x;
        o.xhi = o.xlo + ow;
      } else {
        o.yhi = s.source.y;
        o.ylo = o.yhi - oh;
      }
    } else if (kind == 1 && !placed.empty()) {  // abuts another obstacle
      const Rect& other = placed[rng.below(placed.size())];
      o.xlo = other.xhi;
      o.xhi = o.xlo + ow;
    } else if (kind == 2 && rng.flip(0.2)) {  // swallows the source
      o = {s.source.x - ow / 2 - pitch, s.source.y - oh / 2 - pitch,
           s.source.x + ow / 2 + pitch, s.source.y + oh / 2 + pitch};
    } else if (kind == 3) {  // spans the whole area in one direction
      o.xlo = reach.xlo;
      o.xhi = reach.xhi;
    }
    placed.push_back(o);
    s.layers[rng.below(num_layers)].obstacles.push_back(o);
  }

  // Targets: on-track-like points; some outside the area, on a layer the
  // search does not have, duplicated, inside an obstacle, on an obstacle's
  // border, or walled in.
  const int num_targets = static_cast<int>(rng.range(1, 12));
  for (int i = 0; i < num_targets; ++i) {
    PointL t{0, 0, static_cast<int>(rng.below(num_layers))};
    Point p = point_in(s.area);
    const auto kind = rng.below(20);
    if (kind == 0) {
      p = {s.area.xlo - pitch, p.y};
    } else if (kind == 1) {
      t.layer = num_layers;
    } else if (kind == 2 && !s.targets.empty()) {
      t = s.targets[rng.below(s.targets.size())];
      p = t.pt();
    } else if ((kind == 3 || kind == 4) && !placed.empty()) {
      const Rect& o = placed[rng.below(placed.size())];
      const Coord mid_y = snap((o.ylo + o.yhi) / 2);
      p = {kind == 3 ? snap((o.xlo + o.xhi) / 2) : o.xlo, mid_y};
      p = {std::clamp(p.x, s.area.xlo, s.area.xhi),
           std::clamp(p.y, s.area.ylo, s.area.yhi)};
    } else if (kind == 5) {
      const Coord r = 4 * pitch;
      auto& obs = s.layers[static_cast<std::size_t>(t.layer)].obstacles;
      obs.push_back({p.x - 2 * r, p.y + r, p.x + 2 * r, p.y + 2 * r});
      obs.push_back({p.x - 2 * r, p.y - 2 * r, p.x + 2 * r, p.y - r});
      obs.push_back({p.x - 2 * r, p.y - r, p.x - r, p.y + r});
      obs.push_back({p.x + r, p.y - r, p.x + 2 * r, p.y + r});
    }
    t.x = p.x;
    t.y = p.y;
    s.targets.push_back(t);
  }
  s.max_results = static_cast<std::size_t>(rng.range(1, 16));

  return s;
}

/// Scene `seed`: arbitrary coordinates (pitch 1) where the grid is small
/// enough for the reference's per-arc obstacle scans (40k states), else the
/// same draws on a coarser lattice.  Bench-sized scenes use pitch 20.
Scene random_scene(std::uint64_t seed, bool bench_sized) {
  Coord pitch = bench_sized ? 20 : 1;
  Scene s = lattice_scene(seed, bench_sized, pitch);
  while (!bench_sized && s.states() > 40'000) {
    pitch *= 2;
    s = lattice_scene(seed, bench_sized, pitch);
  }
  return s;
}

/// Scene `seed` with arc costs near the 2^31 ceiling: a window about 8.6
/// million wide, so its longest arc at non-preferred weight 250 costs just
/// under 2^31, and vias just under 2^31.
Scene high_cost_scene(std::uint64_t seed) {
  const Coord max_arc = (Coord{1} << 31) - 1;
  Rng rng(seed * 7919);
  Scene s;
  const Coord w = max_arc / 250 - rng.range(0, 1000);
  s.area = {0, 0, w, rng.range(200'000, 2'000'000)};
  s.layers.resize(static_cast<std::size_t>(rng.range(2, 3)));
  for (TauLayer& l : s.layers) {
    l.tau = rng.range(1, 1000);
    l.pref = rng.flip(0.5) ? Dir::kHorizontal : Dir::kVertical;
    for (auto i = rng.range(0, 3); i > 0; --i) {
      const Coord x = rng.range(0, s.area.xhi);
      const Coord y = rng.range(0, s.area.yhi);
      l.obstacles.push_back({x, y, x + rng.range(1, w / 3),
                             y + rng.range(1, s.area.yhi / 2)});
    }
  }
  s.via_cost = max_arc - rng.range(0, 1000);
  s.nonpref_pct = 250;
  s.source = {rng.range(0, w / 10), rng.range(0, s.area.yhi), 0};
  for (int i = 0; i < 6; ++i) {
    s.targets.push_back({rng.range(0, w), rng.range(0, s.area.yhi),
                         static_cast<int>(rng.below(s.layers.size()))});
  }
  s.max_results = 8;
  return s;
}

void expect_same_paths(const std::vector<TauPathResult>& got,
                       const std::vector<TauPathResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("result " + std::to_string(i));
    EXPECT_EQ(got[i].target_index, want[i].target_index);
    EXPECT_EQ(got[i].cost, want[i].cost);
    EXPECT_EQ(got[i].length, want[i].length);
    EXPECT_TRUE(got[i].points == want[i].points);
  }
}

TEST(TauPathDifferential, AllPathsMatchObstacleScan) {
  int bench_regime = 0, with_paths = 0, partial = 0, layer_counts[5] = {};
  std::size_t max_obstacles = 0;
  for (std::uint64_t seed = 1; seed <= 540; ++seed) {
    SCOPED_TRACE("scene seed " + std::to_string(seed));
    const Scene s = random_scene(seed, seed % 30 == 0);
    const TauPathSearch search(s.area, s.layers, s.via_cost, s.nonpref_pct);
    const ReferenceSearch ref(s.area, s.layers, s.via_cost, s.nonpref_pct);
    const auto got = search.all_paths(s.source, s.targets, s.max_results);
    const auto want = ref.all_paths(s.source, s.targets, s.max_results);
    expect_same_paths(got, want);
    if (HasFailure()) return;

    const std::size_t obstacles = s.all_obstacles().size();
    max_obstacles = std::max(max_obstacles, obstacles);
    if (s.states() >= 200'000 && obstacles >= 60) ++bench_regime;
    if (!want.empty()) ++with_paths;
    const std::size_t cap = std::min(s.max_results, s.targets.size());
    if (!want.empty() && want.size() < cap) ++partial;
    ++layer_counts[s.layers.size()];
  }
  // The scenes cover the bench regime (grids up to ~500k states, 86
  // obstacles per window), found and missed targets, and every layer count.
  EXPECT_GE(bench_regime, 10);
  EXPECT_GE(max_obstacles, 100u);
  EXPECT_GE(with_paths, 300);
  EXPECT_GE(partial, 50);
  for (int l = 1; l <= 4; ++l) EXPECT_GE(layer_counts[l], 60) << l;
}

TEST(TauPathDifferential, CostsPastTwoToThe32MatchObstacleScan) {
  // Arc costs near the 2^31 ceiling: distances cross 2^32 many times, so
  // the heap key's distance half wraps and only the signed difference
  // keeps the pop order.
  int past_2_32 = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("scene seed " + std::to_string(seed));
    const Scene s = high_cost_scene(seed);
    const TauPathSearch search(s.area, s.layers, s.via_cost, s.nonpref_pct);
    const ReferenceSearch ref(s.area, s.layers, s.via_cost, s.nonpref_pct);
    const auto want = ref.all_paths(s.source, s.targets, s.max_results);
    expect_same_paths(search.all_paths(s.source, s.targets, s.max_results),
                      want);
    if (HasFailure()) return;
    for (const TauPathResult& r : want) past_2_32 += r.cost > (Coord{1} << 32);
  }
  EXPECT_GE(past_2_32, 20);
}

TEST(TauPathDifferential, EachPathStopsWhereTheCallerSays) {
  // The caller stops the search after a seeded k-th path, k in
  // [1, max_results]: the paths handed over are the first k of the
  // reference's (all of them if it finds fewer), and the callback is never
  // called again after it returned false.
  int stopped_early = 0;
  auto check = [&](const Scene& s, std::uint64_t seed) {
    Rng rng(seed * 104729 + 17);
    const std::size_t k = 1 + rng.below(s.max_results);
    const TauPathSearch search(s.area, s.layers, s.via_cost, s.nonpref_pct);
    const ReferenceSearch ref(s.area, s.layers, s.via_cost, s.nonpref_pct);
    auto want = ref.all_paths(s.source, s.targets, s.max_results);
    if (k < want.size()) {
      want.resize(k);
      ++stopped_early;
    }
    std::vector<TauPathResult> got;
    bool said_stop = false;
    search.each_path(s.source, s.targets, s.max_results,
                     [&](TauPathResult&& r) {
                       EXPECT_FALSE(said_stop) << "called after a stop";
                       got.push_back(std::move(r));
                       said_stop = got.size() >= k;
                       return !said_stop;
                     });
    expect_same_paths(got, want);
  };
  for (std::uint64_t seed = 1; seed <= 540; ++seed) {
    SCOPED_TRACE("scene seed " + std::to_string(seed));
    check(random_scene(seed, seed % 30 == 0), seed);
    if (HasFailure()) return;
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("high-cost scene seed " + std::to_string(seed));
    check(high_cost_scene(seed), seed);
    if (HasFailure()) return;
  }
  // Many searches are stopped before they run out of paths or of results.
  EXPECT_GE(stopped_early, 100);
}

TEST(TauPathDifferential, TablesMatchObstacleScan) {
  // Every row and column segment between two grid points, every grid point
  // and every τ-jump, against the reference's scans and axis walk.
  int scenes = 0;
  for (std::uint64_t seed = 1000; scenes < 60; ++seed) {
    const Scene s = random_scene(seed, false);
    const BlockageGrid grid = s.grid();
    const int nx = static_cast<int>(grid.xs.size());
    const int ny = static_cast<int>(grid.ys.size());
    if (nx == 0 || ny == 0 || nx > 60 || ny > 60) continue;
    ++scenes;
    SCOPED_TRACE("scene seed " + std::to_string(seed));
    const ReferenceSearch ref(s.area, s.layers, s.via_cost, s.nonpref_pct);
    for (std::size_t l = 0; l < s.layers.size(); ++l) {
      const BlockageTable table(grid, s.layers[l].obstacles, s.layers[l].tau);
      const int li = static_cast<int>(l);
      auto pt = [&](int xi, int yi) {
        return Point{grid.xs[static_cast<std::size_t>(xi)],
                     grid.ys[static_cast<std::size_t>(yi)]};
      };
      for (int yi = 0; yi < ny; ++yi) {
        for (int xi = 0; xi < nx; ++xi) {
          ASSERT_EQ(table.vertex_free(xi, yi), ref.point_free(li, pt(xi, yi)));
          for (int x1 = xi + 1; x1 < nx; ++x1) {
            ASSERT_EQ(table.row_free(yi, xi, x1),
                      ref.segment_free(li, pt(xi, yi), pt(x1, yi)));
            ASSERT_EQ(table.row_free(yi, x1, xi), table.row_free(yi, xi, x1));
          }
          for (int y1 = yi + 1; y1 < ny; ++y1) {
            ASSERT_EQ(table.column_free(xi, yi, y1),
                      ref.segment_free(li, pt(xi, yi), pt(xi, y1)));
            ASSERT_EQ(table.column_free(xi, y1, yi),
                      table.column_free(xi, yi, y1));
          }
        }
      }
      const Coord tau = s.layers[l].tau;
      for (int xi = 0; xi < nx; ++xi) {
        ASSERT_EQ(table.jump(kEast, xi), reference_jump(grid.xs, xi, 1, tau));
        ASSERT_EQ(table.jump(kWest, xi), reference_jump(grid.xs, xi, -1, tau));
      }
      for (int yi = 0; yi < ny; ++yi) {
        ASSERT_EQ(table.jump(kNorth, yi), reference_jump(grid.ys, yi, 1, tau));
        ASSERT_EQ(table.jump(kSouth, yi), reference_jump(grid.ys, yi, -1, tau));
      }
    }
  }
}

}  // namespace
}  // namespace bonn
