#include "src/blockagegrid/tau_path.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <queue>

#include "src/util/assert.hpp"

namespace bonn {

namespace {

/// Directions a segment can be travelling in (numbered like
/// BlockageTable::jump's compass); kFresh = no segment yet (source, or just
/// after a via).
enum : int { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3, kFresh = 4 };

/// Dijkstra's heap entries: one 64-bit key, the distance modulo 2^32 in the
/// high half and the state id in the low half.  All keys in the heap lie
/// within one arc cost of the last popped distance, so while every arc
/// costs less than 2^31 the signed difference of two keys is exactly
/// (Δdist · 2^32 + Δstate) and orders them as the (dist, state) pairs; the
/// pop sequence is that of a heap of pairs.
using HeapKey = std::uint64_t;
constexpr Coord kMaxArcCost = (Coord{1} << 31) - 1;

HeapKey heap_key(Coord dist, int state) {
  return (HeapKey{static_cast<std::uint32_t>(dist)} << 32) |
         static_cast<std::uint32_t>(state);
}

struct LaterKey {
  bool operator()(HeapKey a, HeapKey b) const {
    return static_cast<std::int64_t>(a - b) > 0;
  }
};

}  // namespace

TauPathSearch::TauPathSearch(const Rect& area, std::vector<TauLayer> layers,
                             Coord via_cost, int nonpref_penalty_pct)
    : area_(area),
      layers_(std::move(layers)),
      via_cost_(via_cost),
      nonpref_pct_(nonpref_penalty_pct) {
  BONN_CHECK(!layers_.empty());
  // Dijkstra needs non-negative arc costs, and the heap key needs every
  // arc below 2^31: a planar arc costs at most the area's longer side times
  // the larger direction weight.
  BONN_CHECK(via_cost_ >= 0 && nonpref_pct_ >= 0);
  const Coord weight = std::max(100, nonpref_pct_);
  BONN_CHECK(via_cost_ <= kMaxArcCost &&
             std::max(area_.width(), area_.height()) <= kMaxArcCost / weight);
}

std::size_t TauPathSearch::each_path(
    const PointL& source, std::span<const PointL> targets,
    std::size_t max_results,
    const std::function<bool(TauPathResult&&)>& on_path) const {
  const int L = static_cast<int>(layers_.size());
  if (source.layer < 0 || source.layer >= L || max_results == 0 ||
      !area_.contains(source.pt())) {
    return 0;
  }

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
  if (nx == 0 || ny == 0) return 0;
  const std::size_t num_cells = static_cast<std::size_t>(L) *
                                static_cast<std::size_t>(nx) *
                                static_cast<std::size_t>(ny);
  const std::size_t num_states = num_cells * 5;
  BONN_CHECK(num_states <= static_cast<std::size_t>(INT_MAX));

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

  const int sx = x_index(source.x);
  const int sy = y_index(source.y);
  if (sx < 0 || sy < 0) return 0;

  // Targets: a bit per grid cell (layer, xi, yi) that holds one, and the
  // wanted cells in target order, each answering for its first target.
  struct Wanted {
    int cell;
    int target;
    bool found;
  };
  std::vector<bool> target_cell(num_cells);
  std::vector<Wanted> wanted;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const int tx = x_index(targets[t].x);
    const int ty = y_index(targets[t].y);
    if (tx < 0 || ty < 0 || targets[t].layer < 0 || targets[t].layer >= L) {
      continue;
    }
    const int cell = (targets[t].layer * ny + ty) * nx + tx;
    if (target_cell[static_cast<std::size_t>(cell)]) continue;
    target_cell[static_cast<std::size_t>(cell)] = true;
    wanted.push_back({cell, static_cast<int>(t), false});
  }
  if (wanted.empty()) return 0;

  std::vector<BlockageTable> tables;
  tables.reserve(layers_.size());
  for (const TauLayer& l : layers_) {
    tables.emplace_back(grid, l.obstacles, l.tau);
  }

  // Distances and parents are valid where `reached` is set and final where
  // `settled` is; they start uninitialised, so a search pays time and
  // resident memory for the states it reaches, not for the whole window.
  const auto dist = std::make_unique_for_overwrite<Coord[]>(num_states);
  const auto parent = std::make_unique_for_overwrite<int[]>(num_states);
  std::vector<bool> reached(num_states);
  std::vector<bool> settled(num_states);

  auto weight = [&](int layer, bool horizontal_move) {
    const bool pref_move =
        (layers_[static_cast<std::size_t>(layer)].pref == Dir::kHorizontal) ==
        horizontal_move;
    return pref_move ? 100 : nonpref_pct_;
  };

  std::priority_queue<HeapKey, std::vector<HeapKey>, LaterKey> pq;
  auto reach = [&](int state, Coord d, int from) {
    const auto s = static_cast<std::size_t>(state);
    dist[s] = d;
    parent[s] = from;
    reached[s] = true;
    pq.push(heap_key(d, state));
  };
  auto relax = [&](int from, int to, Coord w) {
    const Coord d = dist[static_cast<std::size_t>(from)] + w;
    if (!reached[static_cast<std::size_t>(to)] ||
        dist[static_cast<std::size_t>(to)] > d) {
      reach(to, d, from);
    }
  };
  reach(state_id(source.layer, sx, sy, kFresh), 0, -1);

  // The path to a settled state, its collinear interior points on one layer
  // dropped.
  auto path_to = [&](int state, int target) {
    TauPathResult r;
    r.target_index = target;
    r.cost = dist[static_cast<std::size_t>(state)];
    std::vector<PointL> pts;
    for (int cur = state; cur >= 0;
         cur = parent[static_cast<std::size_t>(cur)]) {
      const int cell = cur / 5;
      const int cxi = cell % nx;
      const int cyi = (cell / nx) % ny;
      const int cl = cell / (nx * ny);
      const PointL p{grid.xs[static_cast<std::size_t>(cxi)],
                     grid.ys[static_cast<std::size_t>(cyi)], cl};
      if (pts.empty() || !(pts.back() == p)) pts.push_back(p);
    }
    std::reverse(pts.begin(), pts.end());
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
    return r;
  };

  std::size_t settles = 0;
  std::size_t handed = 0;
  while (!pq.empty()) {
    const int state = static_cast<int>(static_cast<std::uint32_t>(pq.top()));
    pq.pop();
    if (settled[static_cast<std::size_t>(state)]) continue;
    settled[static_cast<std::size_t>(state)] = true;
    ++settles;
    const int dir = state % 5;
    const int cell = state / 5;
    const int xi = cell % nx;
    const int yi = (cell / nx) % ny;
    const int l = cell / (nx * ny);
    if (target_cell[static_cast<std::size_t>(cell)]) {
      Wanted& w = *std::find_if(
          wanted.begin(), wanted.end(),
          [&](const Wanted& x) { return x.cell == cell; });
      if (!w.found) {
        w.found = true;
        ++handed;
        if (!on_path(path_to(state, w.target)) || handed == max_results ||
            handed == wanted.size()) {
          return settles;
        }
      }
    }
    const Point p{grid.xs[static_cast<std::size_t>(xi)],
                  grid.ys[static_cast<std::size_t>(yi)]};
    const BlockageTable& table = tables[static_cast<std::size_t>(l)];

    // Arc to grid point (nxi, nyi) on this layer, arriving in direction d.
    auto arc = [&](int nxi, int nyi, int d) {
      const bool horizontal = d == kEast || d == kWest;
      if (horizontal ? !table.row_free(yi, xi, nxi)
                     : !table.column_free(xi, yi, nyi)) {
        return;
      }
      const Point q{grid.xs[static_cast<std::size_t>(nxi)],
                    grid.ys[static_cast<std::size_t>(nyi)]};
      relax(state, state_id(l, nxi, nyi, d),
            l1_dist(p, q) * weight(l, horizontal));
    };
    // Straight continuation (no bend).
    auto straight = [&](int dxi, int dyi, int d) {
      const int nxi = xi + dxi;
      const int nyi = yi + dyi;
      if (nxi < 0 || nxi >= nx || nyi < 0 || nyi >= ny) return;
      arc(nxi, nyi, d);
    };
    // Turn / fresh start: jump to the nearest vertex at distance >= τ.
    auto turn = [&](int d) {
      const bool horizontal = d == kEast || d == kWest;
      const int j = table.jump(d, horizontal ? xi : yi);
      if (j < 0) return;
      arc(horizontal ? j : xi, horizontal ? yi : j, d);
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
      if (!tables[static_cast<std::size_t>(nl)].vertex_free(xi, yi)) continue;
      relax(state, state_id(nl, xi, yi, kFresh), via_cost_);
    }
  }
  return settles;
}

std::optional<TauPathResult> TauPathSearch::shortest(
    const PointL& source, std::span<const PointL> targets) const {
  std::optional<TauPathResult> out;
  each_path(source, targets, 1, [&](TauPathResult&& r) {
    out = std::move(r);
    return false;
  });
  return out;
}

std::vector<TauPathResult> TauPathSearch::all_paths(
    const PointL& source, std::span<const PointL> targets,
    std::size_t max_results) const {
  std::vector<TauPathResult> out;
  each_path(source, targets, max_results, [&](TauPathResult&& r) {
    out.push_back(std::move(r));
    return true;
  });
  return out;
}

}  // namespace bonn
