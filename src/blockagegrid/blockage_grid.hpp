// The blockage grid (§3.8, Algorithm 3).
//
// Supports shortest τ-feasible rectilinear paths: every segment must have
// length >= τ and avoid obstacle interiors.  Starting from the Hanan-grid
// coordinates of the obstacle borders (plus source/target), additional lines
// are added at multiples of τ — but only while consecutive original lines
// are closer than 4τ, which bounds the grid size (Theorem 3.2 guarantees
// these vertices suffice for some shortest τ-feasible path).
#pragma once

#include <span>
#include <vector>

#include "src/geom/interval.hpp"
#include "src/geom/rect.hpp"

namespace bonn {

/// Algorithm 3 (one axis): given sorted base coordinates (obstacle borders,
/// source, target), τ > 0 and the allowed span, produce the blockage-grid
/// coordinate set for this axis.
std::vector<Coord> blockage_grid_coords(std::vector<Coord> base, Coord tau,
                                        Interval span);

/// Full planar blockage grid for one layer: x and y coordinate sets built
/// from obstacle borders and the given anchor points.
struct BlockageGrid {
  std::vector<Coord> xs;
  std::vector<Coord> ys;

  static BlockageGrid build(const Rect& area, std::span<const Rect> obstacles,
                            std::span<const Point> anchors, Coord tau);

  std::size_t vertex_count() const { return xs.size() * ys.size(); }
};

/// One layer's arc tests on a blockage grid, each O(1): is a row or column
/// segment between grid points free, is a grid point free, and where does a
/// τ-long segment from a grid point end.  "Free" means outside every
/// obstacle's open interior, the rule of the τ-path search (§3.8).
///
/// An axis segment between grid points meets an open interior iff one of
/// its unit edges (between neighbouring grid coordinates) does: the overlap
/// is a non-empty open interval, so it holds a point strictly inside some
/// unit edge.  The table therefore counts blocked unit edges along every
/// row and column, and a segment is free iff the prefix counts at its two
/// ends are equal.  Obstacles without an open interior (xlo >= xhi or
/// ylo >= yhi) block nothing and are dropped.
///
/// Built in O(obstacles · (rows + columns) + grid points); holds two ints
/// and one byte per grid point plus four ints per coordinate.
class BlockageTable {
 public:
  BlockageTable(const BlockageGrid& grid, std::span<const Rect> obstacles,
                Coord tau);

  /// Segment on row `yi` between columns `x0` and `x1` (either order).
  bool row_free(int yi, int x0, int x1) const {
    const int* row = &row_prefix_[static_cast<std::size_t>(yi) * nx_];
    return row[x0] == row[x1];
  }
  /// Segment on column `xi` between rows `y0` and `y1` (either order).
  bool column_free(int xi, int y0, int y1) const {
    const int* col = &col_prefix_[static_cast<std::size_t>(xi) * ny_];
    return col[y0] == col[y1];
  }
  bool vertex_free(int xi, int yi) const {
    return !vertex_blocked_[static_cast<std::size_t>(yi) * nx_ +
                            static_cast<std::size_t>(xi)];
  }
  /// The nearest column (compass 0 = east, 1 = west) or row (2 = north,
  /// 3 = south) at least τ away from index `i` in that direction, or -1.
  int jump(int compass, int i) const {
    return jump_[compass][static_cast<std::size_t>(i)];
  }

 private:
  std::size_t nx_ = 0, ny_ = 0;
  /// [yi * nx + xi]: blocked unit edges on row yi left of column xi.
  std::vector<int> row_prefix_;
  /// [xi * ny + yi]: blocked unit edges on column xi below row yi.
  std::vector<int> col_prefix_;
  /// [yi * nx + xi]: the grid point lies in some obstacle's open interior.
  std::vector<char> vertex_blocked_;
  std::vector<int> jump_[4];
};

}  // namespace bonn
