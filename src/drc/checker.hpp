// The distance rule checking module (§3.4).
//
// Interface between the shape grid and the rest of BonnRoute: given a
// candidate wire or via placement, it queries all shape-grid intervals that
// could conflict, evaluates the width/run-length spacing tables, and reports
// whether the placement is legal — and if not, which nets would have to be
// (partially) removed to make it legal.  It also reports a maximal interval
// of locations around the query point for which the same answer holds, which
// is what the fast grid caches (§3.6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/shapegrid/shape_grid.hpp"
#include "src/tech/stick.hpp"
#include "src/tech/tech.hpp"

namespace bonn {

/// Result of a legality check for one candidate placement.
struct PlacementCheck {
  bool allowed = true;
  /// Minimum ripup level over all blockers; 255 when there are none and 0
  /// when a fixed shape blocks.  The placement becomes legal after ripping
  /// all blockers iff min_blocker_ripup >= requested level >= 1.
  RipupLevel min_blocker_ripup = 255;
  /// Distinct nets (>= 0) among the blockers — rip-up candidates.
  std::vector<int> blocking_nets;

  bool rippable(RipupLevel level) const {
    return !allowed && level >= 1 && min_blocker_ripup >= level;
  }
  void merge(const PlacementCheck& o);
};

/// One forbidden interval of along-coordinates, with ripup data.
struct ForbiddenRun {
  Interval along;
  int net = -1;         ///< blocking net (-1 fixed, -2 mixed)
  RipupLevel ripup = 0;  ///< ripup level of the blocker
};

class DrcChecker {
 public:
  DrcChecker(const Tech& tech, const ShapeGrid& grid)
      : tech_(&tech), grid_(&grid) {}

  /// Check a single candidate shape against the shape grid (diff-net rules;
  /// shapes of `cand.net` are exempt).
  PlacementCheck check_shape(const Shape& cand) const;

  /// Check the full shape set of a wire stick / via under a wiretype.
  PlacementCheck check_wire(const WireStick& w, int net, int wiretype) const;
  PlacementCheck check_via(const ViaStick& v, int net, int wiretype) const;

  /// Forbidden runs: the set of reference-point positions along a line
  /// (e.g. a routing track) at which placing `model` violates a diff-net
  /// rule, reported as maximal intervals with rip-up information.  This is
  /// the §3.4 "maximal interval with the same answer" interface turned
  /// inside out — the fast grid fills whole legality runs from it, and the
  /// blockage grid derives obstacle expansions from it.
  ///  - `global_layer`: layer the model shape lands on
  ///  - `line_horizontal`: direction the reference point moves in
  ///  - `cross`: fixed coordinate of the line
  ///  - `bound`: along-coordinate range of interest
  ///  - `kind`: shape kind (selects cut/projection rules on via layers)
  ///  - `swept`: the model will be swept along the line (a wire), so the
  ///    run-length against parallel shapes must be assumed maximal
  ///    (conservative, §3.1); point placements use the model's own length.
  /// The composition of the three steps below: query_window, merged_pieces
  /// and append_runs.
  std::vector<struct ForbiddenRun> forbidden_runs(int global_layer,
                                                  const WireModel& model,
                                                  bool line_horizontal,
                                                  Coord cross, Interval bound,
                                                  int net, ShapeKind kind,
                                                  bool swept = false) const;

  /// Step 1: the shape-grid window a forbidden_runs call with these
  /// arguments queries.  A piece outside it puts no run into `bound`: it
  /// is `bound` plus the model's extent plus the layer's largest spacing,
  /// and for a point placement long enough to reach a run-length threshold
  /// also the model's length along the line (window independence, DESIGN
  /// §4).
  Rect query_window(int global_layer, const WireModel& model,
                    bool line_horizontal, Coord cross, Interval bound,
                    bool swept) const;
  /// Step 2: the pieces of `global_layer` meeting `window`, merged back into
  /// maximal rects (detail::merge_pieces); `pieces` is overwritten.
  void merged_pieces(int global_layer, const Rect& window,
                     std::vector<GridShape>& pieces) const;
  /// Step 3: the forbidden runs of one model against a merged piece list,
  /// appended to `runs`.  The pieces may come from a window larger than
  /// query_window(...) of the same arguments: a piece outside that window
  /// adds no run, and the rects it merges into differ only beyond it, where
  /// window independence keeps the answer forbidden_runs gives.
  void append_runs(std::span<const GridShape> pieces, int global_layer,
                   const WireModel& model, bool line_horizontal, Coord cross,
                   Interval bound, int net, ShapeKind kind, bool swept,
                   std::vector<ForbiddenRun>& runs) const;

  const Tech& tech() const { return *tech_; }

 private:
  /// Required spacing between the candidate and a grid shape on a wiring or
  /// via layer.
  Coord required_between(const Shape& cand, const GridShape& gs) const;
  /// The largest spacing any rule of `global_layer` requires: how far past a
  /// candidate a query must look.
  Coord window_margin(int global_layer) const;

  const Tech* tech_;
  const ShapeGrid* grid_;
};

namespace detail {

/// Merge the cell-clipped pieces a shape-grid query returns back into
/// maximal rects, so that widths and run-lengths are evaluated on real
/// geometry.  Two pieces merge when they share (net, kind, class, rule
/// width) and their union is again a rect; the earlier piece absorbs the
/// later one (hull rect, min rip-up level).  The result equals that of
/// repeatedly merging the first mergeable pair in list order until none is
/// left: the same pieces, in the same order, which callers rely on because
/// they report blocking nets in piece order.
void merge_pieces(std::vector<GridShape>& pieces);

}  // namespace detail

}  // namespace bonn
