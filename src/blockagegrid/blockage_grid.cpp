#include "src/blockagegrid/blockage_grid.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace bonn {

std::vector<Coord> blockage_grid_coords(std::vector<Coord> base, Coord tau,
                                        Interval span) {
  BONN_CHECK(tau > 0);
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  std::erase_if(base, [&](Coord c) { return !span.contains(c); });
  if (base.empty()) return {};

  // Cluster consecutive coordinates with gaps < 4τ (Algorithm 3's c_min /
  // c_max walk); τ-shifted copies of a coordinate stay within its cluster's
  // extent padded by 2τ.
  std::vector<Coord> out;
  std::size_t i = 0;
  while (i < base.size()) {
    std::size_t j = i;
    while (j + 1 < base.size() && base[j + 1] - base[j] < 4 * tau) ++j;
    const Coord lo = std::max(span.lo, base[i] - 2 * tau);
    const Coord hi = std::min(span.hi, base[j] + 2 * tau);
    for (std::size_t k = i; k <= j; ++k) {
      // λ = 0 term first, then shifted copies within [lo, hi].
      const Coord b = base[k];
      const Coord lam_lo = -((b - lo) / tau);
      const Coord lam_hi = (hi - b) / tau;
      for (Coord lam = lam_lo; lam <= lam_hi; ++lam) {
        out.push_back(b + lam * tau);
      }
    }
    i = j + 1;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

BlockageGrid BlockageGrid::build(const Rect& area,
                                 std::span<const Rect> obstacles,
                                 std::span<const Point> anchors, Coord tau) {
  std::vector<Coord> bx{area.xlo, area.xhi};
  std::vector<Coord> by{area.ylo, area.yhi};
  for (const Rect& o : obstacles) {
    if (!o.intersects(area)) continue;
    bx.push_back(o.xlo);
    bx.push_back(o.xhi);
    by.push_back(o.ylo);
    by.push_back(o.yhi);
  }
  for (const Point& p : anchors) {
    bx.push_back(p.x);
    by.push_back(p.y);
  }
  BlockageGrid g;
  g.xs = blockage_grid_coords(std::move(bx), tau, area.x_iv());
  g.ys = blockage_grid_coords(std::move(by), tau, area.y_iv());
  return g;
}

namespace {

/// Inclusive index range; empty when lo > hi.
struct IndexRange {
  int lo, hi;
  bool holds(int i) const { return lo <= i && i <= hi; }
};

/// Grid coordinates strictly inside (lo, hi).
IndexRange inside(const std::vector<Coord>& axis, Coord lo, Coord hi) {
  const auto first = std::upper_bound(axis.begin(), axis.end(), lo);
  const auto end = std::lower_bound(axis.begin(), axis.end(), hi);
  return {static_cast<int>(first - axis.begin()),
          static_cast<int>(end - axis.begin()) - 1};
}

/// Unit edges (axis[k], axis[k + 1]) that meet (lo, hi): the edges from
/// the one ending past lo through the one starting before hi.
IndexRange edges_meeting(const std::vector<Coord>& axis, Coord lo, Coord hi) {
  const IndexRange in = inside(axis, lo, hi);
  return {std::max(in.lo - 1, 0),
          std::min(in.hi, static_cast<int>(axis.size()) - 2)};
}

/// One row or column: `count` grid points, `out` its prefix counts of
/// blocked unit edges.  `diff` holds +1/-1 marks of the blocking ranges.
void prefix_blocked(const std::vector<int>& diff, int* out, std::size_t count) {
  int cover = 0, blocked = 0;
  for (std::size_t k = 0; k < count; ++k) {
    out[k] = blocked;
    cover += diff[k];
    if (cover > 0) ++blocked;
  }
}

void mark(std::vector<int>& diff, IndexRange r) {
  if (r.lo > r.hi) return;
  ++diff[static_cast<std::size_t>(r.lo)];
  --diff[static_cast<std::size_t>(r.hi) + 1];
}

/// τ-jumps along one axis: for each index, the nearest index at least τ
/// away upwards (`up`) and downwards (`down`), or -1.  Both searches are
/// monotone in the index, so each is one two-pointer sweep.
void tau_jumps(const std::vector<Coord>& axis, Coord tau, std::vector<int>& up,
               std::vector<int>& down) {
  const int n = static_cast<int>(axis.size());
  up.resize(axis.size());
  down.resize(axis.size());
  auto at = [&](int i) { return axis[static_cast<std::size_t>(i)]; };
  for (int i = 0, j = 0; i < n; ++i) {
    j = std::max(j, i + 1);
    while (j < n && at(j) - at(i) < tau) ++j;
    up[static_cast<std::size_t>(i)] = j < n ? j : -1;
  }
  for (int i = n - 1, j = n - 1; i >= 0; --i) {
    j = std::min(j, i - 1);
    while (j >= 0 && at(i) - at(j) < tau) --j;
    down[static_cast<std::size_t>(i)] = j;
  }
}

}  // namespace

BlockageTable::BlockageTable(const BlockageGrid& grid,
                             std::span<const Rect> obstacles, Coord tau)
    : nx_(grid.xs.size()),
      ny_(grid.ys.size()),
      row_prefix_(nx_ * ny_),
      col_prefix_(nx_ * ny_),
      vertex_blocked_(nx_ * ny_) {
  // Each obstacle as grid index ranges: the points strictly inside it per
  // axis, and the unit edges meeting its open extent per axis.
  struct Ranges {
    IndexRange px, py, ex, ey;
  };
  std::vector<Ranges> ranges;
  for (const Rect& o : obstacles) {
    if (o.xlo >= o.xhi || o.ylo >= o.yhi) continue;
    ranges.push_back({inside(grid.xs, o.xlo, o.xhi),
                      inside(grid.ys, o.ylo, o.yhi),
                      edges_meeting(grid.xs, o.xlo, o.xhi),
                      edges_meeting(grid.ys, o.ylo, o.yhi)});
  }

  // A row strictly inside an obstacle is blocked along the unit edges
  // meeting it, and at the points strictly inside it; columns likewise.
  std::vector<int> edge_diff(nx_ + 1), vertex_diff(nx_ + 1);
  for (std::size_t yi = 0; yi < ny_; ++yi) {
    std::fill(edge_diff.begin(), edge_diff.end(), 0);
    std::fill(vertex_diff.begin(), vertex_diff.end(), 0);
    for (const Ranges& r : ranges) {
      if (!r.py.holds(static_cast<int>(yi))) continue;
      mark(edge_diff, r.ex);
      mark(vertex_diff, r.px);
    }
    prefix_blocked(edge_diff, row_prefix_.data() + yi * nx_, nx_);
    int cover = 0;
    for (std::size_t xi = 0; xi < nx_; ++xi) {
      cover += vertex_diff[xi];
      vertex_blocked_[yi * nx_ + xi] = cover > 0;
    }
  }
  edge_diff.assign(ny_ + 1, 0);
  for (std::size_t xi = 0; xi < nx_; ++xi) {
    std::fill(edge_diff.begin(), edge_diff.end(), 0);
    for (const Ranges& r : ranges) {
      if (r.px.holds(static_cast<int>(xi))) mark(edge_diff, r.ey);
    }
    prefix_blocked(edge_diff, col_prefix_.data() + xi * ny_, ny_);
  }

  tau_jumps(grid.xs, tau, jump_[0], jump_[1]);
  tau_jumps(grid.ys, tau, jump_[2], jump_[3]);
}

}  // namespace bonn
